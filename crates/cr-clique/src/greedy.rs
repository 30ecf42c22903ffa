//! Greedy maximal-clique heuristic for graphs too large for exact search.

use crate::graph::{Graph, VertexSet};

/// Builds a maximal clique greedily from every vertex seed and keeps the
/// best. Within a run, the candidate with the highest degree *inside the
/// remaining candidate set* is added next — the classic sequential greedy
/// bound used as the base case of approximation schemes like Feige's.
///
/// O(n · m / 64) overall; deterministic.
pub fn greedy_clique(g: &Graph) -> Vec<usize> {
    let n = g.len();
    if n == 0 {
        return Vec::new();
    }
    let mut best: Vec<usize> = Vec::new();
    for seed in 0..n {
        if g.degree(seed) < best.len() {
            continue; // cannot possibly beat the incumbent
        }
        let mut clique = vec![seed];
        let mut candidates = VertexSet::full(n).intersect_row(g.row(seed));
        while !candidates.is_empty() {
            // Pick the candidate with the most neighbours among candidates.
            let mut best_v = usize::MAX;
            let mut best_deg = 0usize;
            for v in candidates.iter() {
                let deg = candidates.intersect_row(g.row(v)).count();
                if best_v == usize::MAX || deg > best_deg {
                    best_v = v;
                    best_deg = deg;
                }
            }
            clique.push(best_v);
            candidates = candidates.intersect_row(g.row(best_v));
        }
        if clique.len() > best.len() {
            best = clique;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::max_clique;

    #[test]
    fn greedy_finds_planted_clique() {
        // Sparse background + planted K6 on vertices 10..16.
        let mut g = Graph::new(40);
        for i in 0..39 {
            g.add_edge(i, i + 1);
        }
        for a in 10..16 {
            for b in (a + 1)..16 {
                g.add_edge(a, b);
            }
        }
        let c = greedy_clique(&g);
        assert!(g.is_clique(&c));
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn greedy_result_is_always_a_clique_and_maximal() {
        let mut g = Graph::new(25);
        for a in 0..25usize {
            for b in a + 1..25 {
                if (a * 7 + b * 13) % 3 == 0 {
                    g.add_edge(a, b);
                }
            }
        }
        let c = greedy_clique(&g);
        assert!(g.is_clique(&c));
        // Maximality: no vertex can extend it.
        for v in 0..25 {
            if c.contains(&v) {
                continue;
            }
            assert!(
                !c.iter().all(|&u| g.has_edge(u, v)),
                "clique not maximal: {v} extends it"
            );
        }
        // Sanity against exact.
        assert!(c.len() <= max_clique(&g).len());
    }

    #[test]
    fn empty_graph() {
        assert!(greedy_clique(&Graph::new(0)).is_empty());
        assert_eq!(greedy_clique(&Graph::new(3)).len(), 1);
    }
}
