//! Compressed sparse row directed graph.

use serde::{Deserialize, Serialize};

/// A directed graph in compressed-sparse-row form.
///
/// Edge `(u, v)` means "v is a neighbor of u"; aggregation over `u` reads the
/// features of its out-neighbors, which matches the message-flow convention
/// of DGCNN-style edge convolutions (neighbors found by KNN feed the center).
///
/// # Example
///
/// ```
/// use gcode_graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// assert_eq!(g.degree(2), 0);
/// assert_eq!(g.num_edges(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Edges may appear in any order; duplicates are kept (multi-edges are
    /// legal and occasionally produced by random sampling).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0usize; n];
        for &(u, v) in edges {
            assert!((u as usize) < n && (v as usize) < n, "edge endpoint out of range");
            degree[u as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for d in &degree {
            offsets.push(offsets.last().copied().unwrap_or(0) + d);
        }
        let mut targets = vec![0u32; edges.len()];
        let mut cursor = offsets.clone();
        for &(u, v) in edges {
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        Self { offsets, targets }
    }

    /// Builds a graph directly from adjacency lists (one `Vec` per node).
    pub fn from_adjacency(adj: Vec<Vec<u32>>) -> Self {
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for neighbors in &adj {
            targets.extend_from_slice(neighbors);
            offsets.push(targets.len());
        }
        Self { offsets, targets }
    }

    /// Builds a graph from each node's out-degree and the neighbor lists
    /// concatenated in node order — the CSR arrays themselves, so nothing
    /// is copied or reordered.
    ///
    /// # Panics
    ///
    /// Panics if the degrees do not sum to `targets.len()`.
    pub fn from_degrees(degrees: impl IntoIterator<Item = usize>, targets: Vec<u32>) -> Self {
        let degrees = degrees.into_iter();
        let mut offsets = Vec::with_capacity(degrees.size_hint().0 + 1);
        let mut end = 0usize;
        offsets.push(end);
        for degree in degrees {
            end += degree;
            offsets.push(end);
        }
        assert_eq!(end, targets.len(), "degrees must sum to the number of targets");
        Self { offsets, targets }
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Self { offsets: vec![0; n + 1], targets: Vec::new() }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= num_nodes()`.
    pub fn neighbors(&self, u: usize) -> &[u32] {
        assert!(u < self.num_nodes(), "node {u} out of range");
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Out-degree of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= num_nodes()`.
    pub fn degree(&self, u: usize) -> usize {
        assert!(u < self.num_nodes(), "node {u} out of range");
        self.offsets[u + 1] - self.offsets[u]
    }

    /// Iterates over all `(u, v)` edges in CSR order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_nodes())
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u as u32, v)))
    }

    /// Returns a copy with every edge reversed.
    pub fn reverse(&self) -> CsrGraph {
        let edges: Vec<(u32, u32)> = self.iter_edges().map(|(u, v)| (v, u)).collect();
        CsrGraph::from_edges(self.num_nodes(), &edges)
    }

    /// Returns a copy with self-loops added to every node (used by the
    /// predictor's architecture-graph abstraction, Sec. 3.5).
    pub fn with_self_loops(&self) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = self.iter_edges().collect();
        for u in 0..self.num_nodes() as u32 {
            edges.push((u, u));
        }
        CsrGraph::from_edges(self.num_nodes(), &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_basic() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3), (0, 3)]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.neighbors(2), &[3]);
    }

    #[test]
    fn from_adjacency_round_trip() {
        let adj = vec![vec![1, 2], vec![], vec![0]];
        let g = CsrGraph::from_adjacency(adj.clone());
        for (u, expected) in adj.iter().enumerate() {
            assert_eq!(g.neighbors(u), expected.as_slice());
        }
    }

    #[test]
    fn from_degrees_matches_from_adjacency() {
        let adj = vec![vec![1, 2], vec![], vec![0, 0, 1]];
        let degrees = adj.iter().map(Vec::len);
        let g = CsrGraph::from_degrees(degrees, adj.concat());
        assert_eq!(g, CsrGraph::from_adjacency(adj));
        assert_eq!(CsrGraph::from_degrees([], Vec::new()), CsrGraph::empty(0));
    }

    #[test]
    #[should_panic(expected = "degrees must sum")]
    fn from_degrees_rejects_a_short_target_list() {
        let _ = CsrGraph::from_degrees([2, 1], vec![0, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn reverse_flips_edges() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let r = g.reverse();
        assert_eq!(r.neighbors(1), &[0]);
        assert_eq!(r.neighbors(2), &[1]);
        assert_eq!(r.num_edges(), g.num_edges());
    }

    #[test]
    fn double_reverse_preserves_edge_multiset() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 1), (3, 2), (1, 0)]);
        let rr = g.reverse().reverse();
        let mut a: Vec<_> = g.iter_edges().collect();
        let mut b: Vec<_> = rr.iter_edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn self_loops_added_once_per_node() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let s = g.with_self_loops();
        assert_eq!(s.num_edges(), 4);
        for u in 0..3 {
            assert!(s.neighbors(u).contains(&(u as u32)));
        }
    }

    #[test]
    #[should_panic(expected = "edge endpoint out of range")]
    fn out_of_range_edge_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn iter_edges_matches_neighbors() {
        let g = CsrGraph::from_edges(3, &[(0, 2), (1, 0), (1, 2)]);
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges, vec![(0, 2), (1, 0), (1, 2)]);
    }
}
