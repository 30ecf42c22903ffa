//! Maximum clique over undirected graphs.
//!
//! The `Suggest` algorithm (Section V-C of the paper) computes a maximum
//! clique of the *compatibility graph* of derivation rules; every clique is a
//! set of rules that can fire together. The paper plugs in Feige's
//! approximation \[16\]; compatibility graphs are small (≤ |R|·|It| nodes), so
//! this crate provides an **exact** Tomita-style branch-and-bound with a
//! greedy-colouring upper bound, falling back to a multi-seed greedy
//! heuristic above a fixed node limit.

pub mod exact;
pub mod graph;
pub mod greedy;

pub use graph::Graph;

/// Largest node count [`find_max_clique`] still solves exactly.
const EXACT_NODE_LIMIT: usize = 160;

/// Finds a clique of `g` — maximum (exact branch-and-bound) up to 160
/// nodes, maximal (greedy) beyond — returned as sorted vertex indices.
pub fn find_max_clique(g: &Graph) -> Vec<usize> {
    let mut clique = if g.len() <= EXACT_NODE_LIMIT {
        exact::max_clique(g)
    } else {
        greedy::greedy_clique(g)
    };
    clique.sort_unstable();
    debug_assert!(g.is_clique(&clique));
    clique
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_with_edges(n: usize, edges: &[(usize, usize)]) -> Graph {
        let mut g = Graph::new(n);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    #[test]
    fn strategies_agree_on_small_graph() {
        // Triangle 0-1-2 plus pendant 3.
        let g = graph_with_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let mut exact = exact::max_clique(&g);
        exact.sort_unstable();
        assert_eq!(exact, vec![0, 1, 2]);
        let auto = find_max_clique(&g);
        assert_eq!(auto, exact);
        let greedy = greedy::greedy_clique(&g);
        assert!(g.is_clique(&greedy));
        assert!(greedy.len() >= 2);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = Graph::new(0);
        assert!(exact::max_clique(&g).is_empty());
        let g1 = Graph::new(1);
        assert_eq!(exact::max_clique(&g1), vec![0]);
    }
}
