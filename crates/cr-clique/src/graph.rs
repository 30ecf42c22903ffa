//! Bitset-based undirected graph.

/// An undirected graph over vertices `0..n` with bitset adjacency rows,
/// giving O(n/64) neighbourhood intersection — the inner loop of the
/// branch-and-bound clique search.
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    words: usize,
    adj: Vec<u64>,
}

impl Graph {
    /// A graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Graph {
            n,
            words,
            adj: vec![0; n * words],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds the undirected edge `{a, b}`. Self-loops are ignored.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n, "vertex out of range");
        if a == b {
            return;
        }
        self.adj[a * self.words + b / 64] |= 1u64 << (b % 64);
        self.adj[b * self.words + a / 64] |= 1u64 << (a % 64);
    }

    /// True iff `{a, b}` is an edge.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        a != b && self.adj[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }

    /// The adjacency row of `v` as a word slice.
    pub(crate) fn row(&self, v: usize) -> &[u64] {
        &self.adj[v * self.words..(v + 1) * self.words]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.row(v).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).sum::<usize>() / 2
    }

    /// True iff `vertices` are pairwise adjacent.
    pub fn is_clique(&self, vertices: &[usize]) -> bool {
        vertices
            .iter()
            .enumerate()
            .all(|(i, &a)| vertices[i + 1..].iter().all(|&b| self.has_edge(a, b)))
    }

    /// Neighbours of `v` as a vertex list.
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.degree(v));
        for (wi, &w) in self.row(v).iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(wi * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// A dynamic vertex-set bitmask used by the clique searches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct VertexSet {
    pub(crate) words: Vec<u64>,
}

#[cfg_attr(not(test), allow(dead_code))] // some helpers are test-only
impl VertexSet {
    pub(crate) fn full(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        VertexSet { words }
    }

    pub(crate) fn empty(n: usize) -> Self {
        VertexSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub(crate) fn contains(&self, v: usize) -> bool {
        self.words[v / 64] >> (v % 64) & 1 == 1
    }

    pub(crate) fn insert(&mut self, v: usize) {
        self.words[v / 64] |= 1 << (v % 64);
    }

    pub(crate) fn remove(&mut self, v: usize) {
        self.words[v / 64] &= !(1 << (v % 64));
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self ∩ adjacency-row`, written into a fresh set.
    pub(crate) fn intersect_row(&self, row: &[u64]) -> VertexSet {
        VertexSet {
            words: self.words.iter().zip(row).map(|(a, b)| a & b).collect(),
        }
    }

    /// Smallest member, if any (no borrow held afterwards).
    pub(crate) fn first(&self) -> Option<usize> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|wi| wi * 64 + self.words[wi].trailing_zeros() as usize)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_and_degrees() {
        let mut g = Graph::new(70); // spans two words
        g.add_edge(0, 69);
        g.add_edge(0, 1);
        g.add_edge(5, 5); // ignored
        assert!(g.has_edge(69, 0));
        assert!(!g.has_edge(1, 69));
        assert!(!g.has_edge(5, 5));
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), vec![1, 69]);
    }

    #[test]
    fn clique_check() {
        let mut g = Graph::new(4);
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            g.add_edge(a, b);
        }
        assert!(g.is_clique(&[0, 1, 2]));
        assert!(g.is_clique(&[1]));
        assert!(g.is_clique(&[]));
        assert!(!g.is_clique(&[0, 1, 3]));
    }

    #[test]
    fn vertex_set_ops() {
        let mut s = VertexSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        s.remove(69);
        assert!(!s.contains(69));
        assert_eq!(s.count(), 69);
        s.insert(69);
        assert_eq!(s.iter().count(), 70);
        let e = VertexSet::empty(70);
        assert!(e.is_empty());
    }
}
