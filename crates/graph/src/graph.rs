//! A simple undirected graph stored as adjacency lists.

use crate::error::GraphError;
use serde::{Deserialize, Serialize};

/// Identifier of a vertex inside a [`Graph`].
///
/// Vertices are dense indices `0..n`; the small integer type keeps hot
/// structures compact (see the type-size guidance of the Rust performance
/// book) while still allowing graphs of up to four billion vertices.
pub type VertexId = u32;

/// A finite simple undirected graph.
///
/// The representation is an adjacency list per vertex. After
/// [`Graph::finalize`] (called implicitly by every constructor that returns a
/// complete graph) the neighbour lists are sorted, which makes
/// [`Graph::has_edge`] a binary search and iteration deterministic.
///
/// ```
/// use pcgraph::Graph;
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1).unwrap();
/// g.add_edge(1, 2).unwrap();
/// g.add_edge(2, 3).unwrap();
/// assert!(g.has_edge(1, 2));
/// assert!(!g.has_edge(0, 3));
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    adj: Vec<Vec<VertexId>>,
    m: usize,
    sorted: bool,
}

impl Graph {
    /// Creates an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            m: 0,
            sorted: true,
        }
    }

    /// Creates a graph from an explicit edge list.
    ///
    /// Returns an error on out-of-range endpoints, self loops or duplicate
    /// edges.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Result<Self, GraphError> {
        Graph::from_edge_iter(n, edges.iter().copied())
    }

    /// [`Graph::from_edges`] over any iterator of edges, in any order: each
    /// edge is appended to both endpoints' lists and every list is sorted
    /// once at the end, where [`Graph::add_edge`] would search a list for a
    /// duplicate per edge. A duplicate edge is found in the sorted lists and
    /// reported as `(u, v)` with `u < v`.
    pub fn from_edge_iter(
        n: usize,
        edges: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Result<Self, GraphError> {
        let mut adj = vec![Vec::new(); n];
        let mut m = 0;
        for (u, v) in edges {
            if let Some(vertex) = [u, v].into_iter().find(|&w| w as usize >= n) {
                return Err(GraphError::VertexOutOfRange { vertex, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            adj[u as usize].push(v);
            adj[v as usize].push(u);
            m += 1;
        }
        for (u, list) in adj.iter_mut().enumerate() {
            // A merge sort: a list appended as a few ascending runs (a sorted
            // edge list, or a cotree's join edges labelled in leaf order)
            // sorts in little more than one pass.
            list.sort();
            if let Some(pair) = list.windows(2).find(|pair| pair[0] == pair[1]) {
                let (u, v) = (u as VertexId, pair[0]);
                return Err(GraphError::DuplicateEdge {
                    u: u.min(v),
                    v: u.max(v),
                });
            }
        }
        Ok(Graph {
            adj,
            m,
            sorted: true,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// `true` when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Inserts the undirected edge `{u, v}`.
    ///
    /// Self loops and duplicate edges are rejected so that the structure
    /// always represents a *simple* graph, which is what the cograph theory
    /// assumes.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        let n = self.num_vertices();
        if (u as usize) >= n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n });
        }
        if (v as usize) >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if self.has_edge(u, v) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        // Appending in ascending neighbour order keeps the lists sorted, so
        // bulk constructors that emit edges in order (complement, join,
        // generators) retain binary-search `has_edge` while building instead
        // of degenerating to linear scans.
        let keeps_sorted = self.sorted
            && self.adj[u as usize].last().map_or(true, |&last| last < v)
            && self.adj[v as usize].last().map_or(true, |&last| last < u);
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
        self.m += 1;
        self.sorted = keeps_sorted;
        Ok(())
    }

    /// Sorts all adjacency lists; called by constructors, cheap when already
    /// sorted. Idempotent.
    pub fn finalize(&mut self) {
        if !self.sorted {
            for list in &mut self.adj {
                list.sort_unstable();
            }
            self.sorted = true;
        }
    }

    /// Returns `true` when `{u, v}` is an edge.
    ///
    /// Out-of-range queries return `false` rather than panicking so the
    /// verifier can use the method on untrusted covers.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let n = self.num_vertices();
        if (u as usize) >= n || (v as usize) >= n || u == v {
            return false;
        }
        let list = &self.adj[u as usize];
        if self.sorted {
            list.binary_search(&v).is_ok()
        } else {
            list.contains(&v)
        }
    }

    /// Degree of `u`.
    pub fn degree(&self, u: VertexId) -> usize {
        self.adj[u as usize].len()
    }

    /// Neighbours of `u` (sorted once [`Graph::finalize`] has run).
    pub fn neighbors(&self, u: VertexId) -> &[VertexId] {
        &self.adj[u as usize]
    }

    /// `true` once every adjacency list is sorted (after [`Graph::finalize`],
    /// or when all insertions arrived in ascending order). Sorted lists make
    /// [`Graph::has_edge`] a binary search and let passes that only care
    /// about neighbours below a threshold read a list prefix.
    pub fn is_finalized(&self) -> bool {
        self.sorted
    }

    /// All adjacency lists at once, indexed by vertex id.
    ///
    /// One borrow hands a pass over the whole graph its neighbour slices
    /// without a bounds-checked [`Graph::neighbors`] call per vertex; the
    /// incremental recogniser's marker pass iterates this directly.
    pub fn adjacency(&self) -> &[Vec<VertexId>] {
        &self.adj
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all undirected edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, list)| {
            let u = u as VertexId;
            list.iter()
                .copied()
                .filter_map(move |v| if u < v { Some((u, v)) } else { None })
        })
    }

    /// Connected components as a vector `comp[v] = component index`, together
    /// with the number of components. Components are numbered in order of
    /// their smallest vertex.
    pub fn connected_components(&self) -> (Vec<usize>, usize) {
        let n = self.num_vertices();
        let mut comp = vec![usize::MAX; n];
        let mut count = 0usize;
        let mut stack = Vec::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            comp[start] = count;
            stack.push(start as VertexId);
            while let Some(u) = stack.pop() {
                for &w in self.neighbors(u) {
                    if comp[w as usize] == usize::MAX {
                        comp[w as usize] = count;
                        stack.push(w);
                    }
                }
            }
            count += 1;
        }
        (comp, count)
    }

    /// `true` when the graph is connected (the empty graph is considered
    /// connected, matching the usual convention in the cograph literature).
    pub fn is_connected(&self) -> bool {
        if self.num_vertices() <= 1 {
            return true;
        }
        self.connected_components().1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        assert!(g.is_connected());
    }

    #[test]
    fn add_and_query_edges() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new(3);
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop { vertex: 1 }));
        assert_eq!(
            Graph::from_edges(3, &[(0, 1), (2, 2)]),
            Err(GraphError::SelfLoop { vertex: 2 })
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = Graph::new(3);
        assert!(matches!(
            g.add_edge(0, 3),
            Err(GraphError::VertexOutOfRange { vertex: 3, n: 3 })
        ));
        assert!(matches!(
            g.add_edge(5, 0),
            Err(GraphError::VertexOutOfRange { vertex: 5, n: 3 })
        ));
        assert_eq!(
            Graph::from_edges(3, &[(0, 1), (2, 5)]),
            Err(GraphError::VertexOutOfRange { vertex: 5, n: 3 })
        );
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1).unwrap();
        assert_eq!(
            g.add_edge(1, 0),
            Err(GraphError::DuplicateEdge { u: 1, v: 0 })
        );
        // `from_edges` finds a duplicate in the sorted lists: `u < v`.
        assert_eq!(
            Graph::from_edges(4, &[(2, 1), (0, 3), (1, 2)]),
            Err(GraphError::DuplicateEdge { u: 1, v: 2 })
        );
    }

    #[test]
    fn from_edges_matches_edge_by_edge_insertion() {
        let edges = [(3, 0), (1, 4), (0, 1), (4, 3), (2, 0), (1, 3)];
        let mut g = Graph::new(5);
        for &(u, v) in &edges {
            g.add_edge(u, v).unwrap();
        }
        g.finalize();
        assert_eq!(Graph::from_edges(5, &edges).unwrap(), g);
    }

    #[test]
    fn edge_iterator_reports_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 1), (2, 3)]).unwrap();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn connected_components_counts() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let (comp, count) = g.connected_components();
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[3], comp[5]);
        assert!(!g.is_connected());
    }

    #[test]
    fn single_vertex_is_connected() {
        assert!(Graph::new(1).is_connected());
    }

    #[test]
    fn vertices_iterator() {
        let g = Graph::new(3);
        let vs: Vec<_> = g.vertices().collect();
        assert_eq!(vs, vec![0, 1, 2]);
    }

    #[test]
    fn adjacency_accessor() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (1, 3)]).unwrap();
        assert_eq!(g.adjacency().len(), 5);
        assert_eq!(&g.adjacency()[1], &[0, 2, 3]);
        assert!(g.is_finalized());
    }

    #[test]
    fn ascending_insertion_keeps_lists_sorted() {
        // Edges inserted in ascending order (the pattern of complement/join
        // construction) never dirty the sorted flag, so duplicate checks stay
        // binary searches mid-construction.
        let mut g = Graph::new(4);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                g.add_edge(u, v).unwrap();
            }
        }
        // All lists are sorted without an explicit finalize.
        for v in g.vertices() {
            let list = g.neighbors(v);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "list of {v} unsorted");
        }
        assert!(g.has_edge(0, 3));
        // Out-of-order insertion still works and finalize restores order.
        let mut h = Graph::new(3);
        h.add_edge(2, 0).unwrap();
        h.add_edge(0, 1).unwrap();
        h.finalize();
        assert_eq!(h.neighbors(0), &[1, 2]);
    }
}
