//! Cograph recognition: building a cotree from an arbitrary graph.
//!
//! Two recognisers live here behind one front:
//!
//! * [`fast`] — the default. Incremental Corneil–Perl–Stewart-style
//!   recognition: vertices are inserted one at a time into a growing mutable
//!   cotree, each insertion driven by a marking pass over `O(d(x))` nodes,
//!   for `O(n + m)` total. On failure it does not just say "no": it returns
//!   a concrete induced `P_4` as a certificate ([`InducedP4`]), read off
//!   the cotree of the prefix before the failing vertex in `O(n)`.
//! * [`reference`](mod@reference) — the textbook component/co-component decomposition
//!   (a graph is a cograph iff every induced subgraph on two or more
//!   vertices is disconnected or has a disconnected complement). It is
//!   `O(n^2 log n)`-ish and survives as the differential-testing oracle for
//!   the fast path.
//!
//! The free functions of this module — [`recognize`], [`try_recognize`],
//! [`is_cograph`] — are thin fronts over [`fast`]. The paper itself assumes
//! the cotree is given (parallel cotree construction is the separate result
//! of He, cited as \[12\]); this module is what lets the serving stack accept
//! raw graphs at the same asymptotic cost as the solve path.
//!
//! # Certificate semantics
//!
//! A graph is a cograph iff it has no induced `P_4` (path on four vertices).
//! When recognition rejects, [`RecognitionError::InducedP4`] carries such a
//! path `a - b - c - d`: edges `ab`, `bc`, `cd` present, edges `ac`, `ad`,
//! `bd` absent. [`InducedP4::verify`] re-checks a witness against a graph,
//! so callers (and the differential tests) can validate certificates
//! independently of the recogniser that produced them.

pub mod fast;
pub mod reference;

pub use fast::IncrementalCotree;

use crate::cotree::Cotree;
use pcgraph::{Graph, VertexId};
use std::fmt;

/// A certificate that a graph is not a cograph: an induced path on four
/// vertices, in path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InducedP4 {
    /// The path `a - b - c - d` as `[a, b, c, d]`.
    pub path: [VertexId; 4],
}

impl InducedP4 {
    /// The four vertices in path order.
    pub fn vertices(&self) -> [VertexId; 4] {
        self.path
    }

    /// `true` when the witness really is an induced `P_4` of `g`: four
    /// distinct vertices with exactly the three consecutive edges present.
    pub fn verify(&self, g: &Graph) -> bool {
        let [a, b, c, d] = self.path;
        let distinct = a != b && a != c && a != d && b != c && b != d && c != d;
        distinct
            && g.has_edge(a, b)
            && g.has_edge(b, c)
            && g.has_edge(c, d)
            && !g.has_edge(a, c)
            && !g.has_edge(a, d)
            && !g.has_edge(b, d)
    }
}

impl fmt::Display for InducedP4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.path;
        write!(f, "{a} - {b} - {c} - {d}")
    }
}

/// Why recognition rejected a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecognitionError {
    /// The graph has no vertices; a cotree needs at least one leaf.
    EmptyGraph,
    /// The graph contains the induced `P_4` carried as witness, and is
    /// therefore not a cograph.
    InducedP4(InducedP4),
}

impl fmt::Display for RecognitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecognitionError::EmptyGraph => write!(f, "the empty graph has no cotree"),
            RecognitionError::InducedP4(p4) => {
                write!(f, "not a cograph: induced P4 {p4}")
            }
        }
    }
}

impl std::error::Error for RecognitionError {}

/// Builds the cotree of `g`, or returns a typed rejection: either
/// [`RecognitionError::EmptyGraph`] or an induced-`P_4` certificate.
///
/// Runs the linear-time incremental recogniser ([`fast`]); leaf labels of
/// the returned cotree are the vertex ids of `g`.
pub fn try_recognize(g: &Graph) -> Result<Cotree, RecognitionError> {
    fast::recognize(g)
}

/// Attempts to build the cotree of `g`. Returns `None` when `g` is not a
/// cograph (or has no vertices). Use [`try_recognize`] to obtain the
/// induced-`P_4` certificate instead of a bare `None`.
pub fn recognize(g: &Graph) -> Option<Cotree> {
    fast::recognize(g).ok()
}

/// `true` when `g` is a cograph.
///
/// The decision version: runs the same incremental insertion as
/// [`try_recognize`] but skips materialising the final [`Cotree`] arena and
/// never extracts a witness, exiting on the first failed insertion.
pub fn is_cograph(g: &Graph) -> bool {
    fast::is_cograph(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random_cotree, CotreeShape};
    use pcgraph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn single_vertex_is_a_cograph() {
        let g = Graph::new(1);
        let t = recognize(&g).expect("single vertex");
        assert_eq!(t.num_vertices(), 1);
    }

    #[test]
    fn empty_graph_is_not_handled() {
        assert!(recognize(&Graph::new(0)).is_none());
        assert!(!is_cograph(&Graph::new(0)));
        assert_eq!(
            try_recognize(&Graph::new(0)),
            Err(RecognitionError::EmptyGraph)
        );
    }

    #[test]
    fn complete_graphs_are_cographs() {
        for n in 1..8 {
            let g = generators::complete_graph(n);
            let t = recognize(&g).expect("complete graphs are cographs");
            assert_eq!(t.to_graph(), g);
        }
    }

    #[test]
    fn edgeless_graphs_are_cographs() {
        let g = Graph::new(6);
        let t = recognize(&g).expect("edgeless graphs are cographs");
        assert_eq!(t.to_graph(), g);
    }

    #[test]
    fn p4_is_not_a_cograph_and_certifies_itself() {
        let p4 = generators::p4();
        assert!(recognize(&p4).is_none());
        assert!(!is_cograph(&p4));
        let Err(RecognitionError::InducedP4(witness)) = try_recognize(&p4) else {
            panic!("P4 must be rejected with a witness");
        };
        assert!(witness.verify(&p4), "witness {witness} not an induced P4");
    }

    #[test]
    fn p3_and_paw_like_graphs() {
        // P3 is a cograph (it is K_{1,2} = join of a vertex with 2K_1).
        let p3 = generators::path_graph(3);
        assert!(is_cograph(&p3));
        // P5 contains P4, hence not a cograph.
        assert!(!is_cograph(&generators::path_graph(5)));
        // C5 contains an induced P4.
        assert!(!is_cograph(&generators::cycle_graph(5)));
        // C4 = K_{2,2} is a cograph.
        assert!(is_cograph(&generators::cycle_graph(4)));
    }

    #[test]
    fn cluster_graphs_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::random_cluster_graph(5, 4, &mut rng);
        let t = recognize(&g).expect("cluster graphs are cographs");
        assert_eq!(t.to_graph(), g);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn generated_cotrees_round_trip_through_recognition() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for shape in CotreeShape::ALL {
            for n in [2usize, 5, 12, 30] {
                let t = random_cotree(n, shape, &mut rng);
                let g = t.to_graph();
                let t2 = recognize(&g).expect("materialised cotrees are cographs");
                assert_eq!(t2.to_graph(), g, "{shape:?} n={n}");
                assert!(t2.validate().is_ok(), "{shape:?} n={n}");
            }
        }
    }

    #[test]
    fn is_cograph_agrees_with_recognize_on_all_generator_shapes() {
        // Positives: materialised random cotrees of every shape are
        // cographs, and the cheap decision must say so.
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for shape in CotreeShape::ALL {
            for n in [1usize, 2, 5, 13, 31] {
                let g = random_cotree(n, shape, &mut rng).to_graph();
                assert_eq!(is_cograph(&g), recognize(&g).is_some(), "{shape:?} n={n}");
                assert!(is_cograph(&g), "{shape:?} n={n} must be a cograph");
            }
        }
        // Mixed verdicts: perturb each cograph with one extra edge; whatever
        // recognize decides, is_cograph must decide identically, and every
        // rejection must carry a valid certificate.
        use rand::Rng as _;
        for trial in 0..40 {
            let shape = CotreeShape::ALL[trial % CotreeShape::ALL.len()];
            let tree = random_cotree(12, shape, &mut rng);
            let g = tree.to_graph();
            let (u, v) = (rng.gen_range(0..12u32), rng.gen_range(0..12u32));
            if u == v || g.has_edge(u, v) {
                continue;
            }
            let mut edges: Vec<(u32, u32)> = g.edges().collect();
            edges.push((u, v));
            let perturbed = Graph::from_edges(12, &edges).unwrap();
            assert_eq!(
                is_cograph(&perturbed),
                recognize(&perturbed).is_some(),
                "trial {trial}: decision diverges from recognition"
            );
            if let Err(RecognitionError::InducedP4(witness)) = try_recognize(&perturbed) {
                assert!(witness.verify(&perturbed), "trial {trial}: bad witness");
            }
        }
    }

    #[test]
    fn random_dense_graph_with_p4_rejected() {
        // The 5-cycle plus a chord still contains an induced P4.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]).unwrap();
        assert!(!is_cograph(&g));
        let Err(RecognitionError::InducedP4(witness)) = try_recognize(&g) else {
            panic!("must reject with witness");
        };
        assert!(witness.verify(&g));
    }

    #[test]
    fn witness_verify_rejects_non_p4s() {
        let g = generators::p4(); // path 0-1-2-3
        assert!(InducedP4 { path: [0, 1, 2, 3] }.verify(&g));
        assert!(InducedP4 { path: [3, 2, 1, 0] }.verify(&g));
        // Wrong order: 1-0 is an edge but 0-2 is not.
        assert!(!InducedP4 { path: [1, 0, 2, 3] }.verify(&g));
        // Repeated vertex.
        assert!(!InducedP4 { path: [0, 1, 2, 2] }.verify(&g));
        // A triangle chord breaks induced-ness.
        let paw = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]).unwrap();
        assert!(!InducedP4 { path: [0, 1, 2, 3] }.verify(&paw));
    }
}
