//! # cograph — cotrees and cograph machinery
//!
//! Cographs (complement-reducible graphs) are the graphs obtainable from
//! single vertices by disjoint union and complementation — equivalently, by
//! disjoint union and join. Every cograph has a canonical tree representation,
//! the *cotree*: leaves are the graph's vertices, internal nodes are labelled
//! 0 (union) or 1 (join), and two vertices are adjacent exactly when their
//! lowest common ancestor is a 1-node.
//!
//! This crate provides the substrate the path-cover algorithms operate on:
//!
//! * [`Cotree`] — the k-ary labelled cotree with construction operators
//!   (plus the one-pass [`CotreeBuilder`]), validation, materialisation
//!   into a [`pcgraph::Graph`], and the cotree-native edge count and path
//!   cover check ([`Cotree::num_edges`], [`Cotree::verify_cover`]) that
//!   need no materialisation;
//! * [`recognition`] — building the cotree of an arbitrary graph in
//!   `O(n + m)` by incremental insertion ([`recognition::fast`]), with an
//!   induced-`P_4` certificate on rejection; the textbook
//!   complement-reducibility decomposition survives as
//!   [`recognition::reference`], the differential-testing oracle;
//! * [`generators`] — deterministic random cotree families (balanced, skewed,
//!   mixed) used as workloads by the experiments;
//! * [`BinaryCotree`] — the binarised cotree `T_b(G)` of the paper, plus the
//!   leaf counts `L(u)`, the leftist reordering `T_bl(G)`, the path counts
//!   `p(u)` (sequential recurrence and the PRAM tree-contraction version of
//!   the paper's Lemma 2.4), and the reduced cotree `T_blr(G)` with its
//!   bridge / insert / primary vertex classification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod cotree;
pub mod generators;
pub mod pathcount;
pub mod recognition;
pub mod reduce;
mod verify;

pub use binary::{BinKind, BinaryCotree, NONE};
pub use cotree::{Cotree, CotreeBuilder, CotreeKind};
pub use generators::{random_cotree, CotreeShape};
pub use pathcount::{path_counts_pram, path_counts_seq};
pub use recognition::{
    is_cograph, recognize, try_recognize, IllegalInsertion, IncrementalCotree, InducedP4,
    RecognitionError,
};
pub use reduce::{classify_vertices, ReducedCotree, VertexRole};
