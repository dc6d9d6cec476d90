//! Paths, path covers and the cover verifier.
//!
//! A *path cover* of a graph `G` is a set of vertex-disjoint simple paths
//! whose union contains every vertex of `G`. The path cover problem asks for
//! a cover with the minimum number of paths; a graph admitting a cover of
//! size one is Hamiltonian. Every algorithm in this workspace ultimately
//! produces a [`PathCover`], and every test certifies it with
//! [`verify_path_cover`].

use crate::graph::{Graph, VertexId};
use serde::{Deserialize, Serialize};

/// A simple path given as the sequence of its vertices.
///
/// A single vertex is a path of length zero; the empty path is not allowed in
/// a [`PathCover`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    vertices: Vec<VertexId>,
}

impl Path {
    /// Creates a path from its vertex sequence.
    pub fn new(vertices: Vec<VertexId>) -> Self {
        Path { vertices }
    }

    /// Creates the one-vertex path.
    pub fn singleton(v: VertexId) -> Self {
        Path { vertices: vec![v] }
    }

    /// The vertices of the path in traversal order.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Number of vertices on the path.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// `true` for the (illegal inside covers) empty path.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// First vertex, if any.
    pub fn first(&self) -> Option<VertexId> {
        self.vertices.first().copied()
    }

    /// Last vertex, if any.
    pub fn last(&self) -> Option<VertexId> {
        self.vertices.last().copied()
    }

    /// Checks that every consecutive pair of vertices is an edge of `g` and
    /// that no vertex repeats.
    pub fn is_valid_in(&self, g: &Graph) -> bool {
        if self.vertices.is_empty() {
            return false;
        }
        let mut seen = vec![false; g.num_vertices()];
        for &v in &self.vertices {
            let idx = v as usize;
            if idx >= g.num_vertices() || seen[idx] {
                return false;
            }
            seen[idx] = true;
        }
        self.vertices.windows(2).all(|w| g.has_edge(w[0], w[1]))
    }
}

impl From<Vec<VertexId>> for Path {
    fn from(vertices: Vec<VertexId>) -> Self {
        Path::new(vertices)
    }
}

/// A collection of vertex-disjoint paths intended to cover a graph.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathCover {
    paths: Vec<Path>,
}

impl PathCover {
    /// Creates an empty cover (valid only for the empty graph).
    pub fn new() -> Self {
        PathCover { paths: Vec::new() }
    }

    /// Creates a cover from a list of paths.
    pub fn from_paths(paths: Vec<Path>) -> Self {
        PathCover { paths }
    }

    /// Adds a path to the cover.
    pub fn push(&mut self, p: Path) {
        self.paths.push(p);
    }

    /// The paths of the cover.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// `true` when the cover has no paths.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Total number of vertices across all paths.
    pub fn total_vertices(&self) -> usize {
        self.paths.iter().map(Path::len).sum()
    }

    /// Consumes the cover and returns its paths.
    pub fn into_paths(self) -> Vec<Path> {
        self.paths
    }

    /// Iterates over all covered vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.paths.iter().flat_map(|p| p.vertices().iter().copied())
    }
}

impl FromIterator<Path> for PathCover {
    fn from_iter<T: IntoIterator<Item = Path>>(iter: T) -> Self {
        PathCover {
            paths: iter.into_iter().collect(),
        }
    }
}

/// Detailed result of verifying a [`PathCover`] against a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverReport {
    /// Number of paths in the cover.
    pub num_paths: usize,
    /// Number of vertices covered.
    pub covered: usize,
    /// Vertices of the graph not covered by any path.
    pub missing: Vec<VertexId>,
    /// Vertices covered by more than one path position.
    pub duplicated: Vec<VertexId>,
    /// Consecutive pairs on some path that are not edges of the graph.
    pub non_edges: Vec<(VertexId, VertexId)>,
    /// Vertices referenced by the cover that do not exist in the graph.
    pub out_of_range: Vec<VertexId>,
}

impl CoverReport {
    /// `true` when the cover is a genuine path cover of the graph.
    pub fn is_valid(&self) -> bool {
        self.missing.is_empty()
            && self.duplicated.is_empty()
            && self.non_edges.is_empty()
            && self.out_of_range.is_empty()
    }
}

/// Verifies that `cover` is a path cover of `g` and reports every defect.
///
/// The verifier is the trusted oracle of the whole workspace: both the
/// sequential baseline and the PRAM algorithm are checked against it, so it
/// is written for clarity rather than speed.
pub fn verify_path_cover(g: &Graph, cover: &PathCover) -> CoverReport {
    let n = g.num_vertices();
    let mut times_covered = vec![0usize; n];
    let mut out_of_range = Vec::new();
    let mut non_edges = Vec::new();

    for path in cover.paths() {
        for &v in path.vertices() {
            if (v as usize) < n {
                times_covered[v as usize] += 1;
            } else {
                out_of_range.push(v);
            }
        }
        for w in path.vertices().windows(2) {
            if !g.has_edge(w[0], w[1]) {
                non_edges.push((w[0], w[1]));
            }
        }
    }

    let missing: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| times_covered[v as usize] == 0)
        .collect();
    let duplicated: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| times_covered[v as usize] > 1)
        .collect();
    let covered = times_covered.iter().filter(|&&c| c > 0).count();

    CoverReport {
        num_paths: cover.len(),
        covered,
        missing,
        duplicated,
        non_edges,
        out_of_range,
    }
}

/// Computes the exact minimum number of paths needed to cover `g` by
/// exhaustive bitmask dynamic programming. Exponential; intended only for
/// cross-checking the real algorithms on small graphs (`n <= 20`) in tests.
///
/// `single[mask]` records whether the vertex subset `mask` can be covered by
/// one simple path; `best[mask]` is the minimum number of paths covering
/// exactly `mask`.
pub fn brute_force_min_path_cover(g: &Graph) -> usize {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    assert!(
        n <= 20,
        "brute force oracle is restricted to n <= 20 (got {n})"
    );
    let full: usize = if n == usize::BITS as usize {
        usize::MAX
    } else {
        (1 << n) - 1
    };

    // reach[mask][v]: `mask` can be covered by one path ending at `v`.
    let mut reach = vec![0usize; 1 << n]; // bitset over ending vertices
    for v in 0..n {
        reach[1 << v] |= 1 << v;
    }
    for mask in 1..=full {
        let ends = reach[mask];
        if ends == 0 {
            continue;
        }
        for v in 0..n {
            if ends & (1 << v) == 0 {
                continue;
            }
            for &w in g.neighbors(v as VertexId) {
                let w = w as usize;
                if mask & (1 << w) == 0 {
                    reach[mask | (1 << w)] |= 1 << w;
                }
            }
        }
    }
    let single: Vec<bool> = reach.iter().map(|&ends| ends != 0).collect();

    // best[mask]: minimum number of vertex-disjoint paths covering `mask`.
    let mut best = vec![usize::MAX; 1 << n];
    best[0] = 0;
    for mask in 1..=full {
        // The lowest uncovered vertex must lie on some path; enumerate the
        // sub-mask that forms that path.
        let low = mask & mask.wrapping_neg();
        let mut sub = mask;
        let mut value = usize::MAX;
        while sub > 0 {
            if sub & low != 0 && single[sub] && best[mask ^ sub] != usize::MAX {
                value = value.min(1 + best[mask ^ sub]);
            }
            sub = (sub - 1) & mask;
        }
        best[mask] = value;
    }
    best[full]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Graph;

    #[test]
    fn path_basics() {
        let p = Path::new(vec![3, 1, 2]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.first(), Some(3));
        assert_eq!(p.last(), Some(2));
        assert!(!p.is_empty());
        let s = Path::singleton(7);
        assert_eq!(s.len(), 1);
        assert_eq!(s.first(), s.last());
    }

    #[test]
    fn path_validity() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(Path::new(vec![0, 1, 2, 3]).is_valid_in(&g));
        assert!(!Path::new(vec![0, 2]).is_valid_in(&g));
        assert!(!Path::new(vec![0, 1, 0]).is_valid_in(&g));
        assert!(!Path::new(vec![]).is_valid_in(&g));
        assert!(!Path::new(vec![9]).is_valid_in(&g));
    }

    #[test]
    fn valid_cover_verifies() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let cover = PathCover::from_paths(vec![Path::new(vec![0, 1, 2]), Path::new(vec![3, 4])]);
        let report = verify_path_cover(&g, &cover);
        assert!(report.is_valid(), "{report:?}");
        assert_eq!(report.num_paths, 2);
        assert_eq!(report.covered, 5);
    }

    #[test]
    fn missing_vertex_detected() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let cover = PathCover::from_paths(vec![Path::new(vec![0, 1])]);
        let report = verify_path_cover(&g, &cover);
        assert!(!report.is_valid());
        assert_eq!(report.missing, vec![2]);
    }

    #[test]
    fn duplicate_vertex_detected() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let cover = PathCover::from_paths(vec![Path::new(vec![0, 1]), Path::new(vec![1, 2])]);
        let report = verify_path_cover(&g, &cover);
        assert!(!report.is_valid());
        assert_eq!(report.duplicated, vec![1]);
    }

    #[test]
    fn non_edge_detected() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let cover = PathCover::from_paths(vec![Path::new(vec![0, 1, 2])]);
        let report = verify_path_cover(&g, &cover);
        assert!(!report.is_valid());
        assert_eq!(report.non_edges, vec![(1, 2)]);
    }

    #[test]
    fn out_of_range_detected() {
        let g = Graph::new(2);
        let cover = PathCover::from_paths(vec![
            Path::new(vec![0]),
            Path::new(vec![1]),
            Path::new(vec![5]),
        ]);
        let report = verify_path_cover(&g, &cover);
        assert!(!report.is_valid());
        assert_eq!(report.out_of_range, vec![5]);
    }

    #[test]
    fn empty_cover_of_empty_graph_is_valid() {
        let g = Graph::new(0);
        let report = verify_path_cover(&g, &PathCover::new());
        assert!(report.is_valid());
        assert_eq!(report.covered, 0);
    }

    #[test]
    fn cover_metadata() {
        let cover = PathCover::from_paths(vec![Path::new(vec![0, 1, 2])]);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover.total_vertices(), 3);
        let vs: Vec<_> = cover.vertices().collect();
        assert_eq!(vs, vec![0, 1, 2]);
    }

    #[test]
    fn brute_force_on_path_graph() {
        // A path graph has a Hamiltonian path: minimum cover is 1.
        let g = generators::path_graph(6);
        assert_eq!(brute_force_min_path_cover(&g), 1);
    }

    #[test]
    fn brute_force_on_edgeless_graph() {
        let g = Graph::new(4);
        assert_eq!(brute_force_min_path_cover(&g), 4);
    }

    #[test]
    fn brute_force_on_star() {
        // Star K_{1,4}: centre can join two leaves into one path; remaining
        // 2 leaves are singletons -> 3 paths.
        let g = generators::star_graph(4);
        assert_eq!(brute_force_min_path_cover(&g), 3);
    }

    #[test]
    fn brute_force_on_complete_graph() {
        let g = generators::complete_graph(5);
        assert_eq!(brute_force_min_path_cover(&g), 1);
    }

    #[test]
    fn from_iterator_collects_paths() {
        let cover: PathCover = vec![Path::singleton(0), Path::singleton(1)]
            .into_iter()
            .collect();
        assert_eq!(cover.len(), 2);
    }
}
