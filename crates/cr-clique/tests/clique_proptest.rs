//! Property tests: exact max clique vs brute force, greedy vs exact.

use proptest::prelude::*;

use cr_clique::exact::max_clique;
use cr_clique::greedy::greedy_clique;
use cr_clique::Graph;

fn build(n: usize, edges: &[(usize, usize)]) -> Graph {
    let mut g = Graph::new(n);
    for &(a, b) in edges {
        g.add_edge(a % n.max(1), b % n.max(1));
    }
    g
}

fn brute_force_max_clique(g: &Graph) -> usize {
    let n = g.len();
    let mut best = 0;
    for mask in 0u32..(1 << n) {
        let members: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
        if members.len() > best && g.is_clique(&members) {
            best = members.len();
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn exact_matches_brute_force(
        n in 1usize..13,
        edges in prop::collection::vec((0usize..13, 0usize..13), 0..40),
    ) {
        let g = build(n, &edges);
        let exact = max_clique(&g);
        prop_assert!(g.is_clique(&exact));
        prop_assert_eq!(exact.len(), brute_force_max_clique(&g));
    }

    #[test]
    fn greedy_is_a_valid_lower_bound(
        n in 1usize..20,
        edges in prop::collection::vec((0usize..20, 0usize..20), 0..80),
    ) {
        let g = build(n, &edges);
        let greedy = greedy_clique(&g);
        let exact = max_clique(&g);
        prop_assert!(g.is_clique(&greedy));
        prop_assert!(!greedy.is_empty() || g.is_empty());
        prop_assert!(greedy.len() <= exact.len());
        // Greedy result is maximal: no vertex extends it.
        for v in 0..n {
            if !greedy.contains(&v) {
                prop_assert!(!greedy.iter().all(|&u| g.has_edge(u, v)));
            }
        }
    }
}
