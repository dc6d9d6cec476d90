//! # pathcover — time- and work-optimal minimum path cover on cographs
//!
//! This crate implements the algorithm of Koji Nakano, Stephan Olariu and
//! Albert Y. Zomaya, *"A time-optimal solution for the path cover problem on
//! cographs"* (IPPS 1999 / Theoretical Computer Science 290, 2003): given an
//! `n`-vertex cograph represented by its cotree, report **all paths of a
//! minimum path cover in `O(log n)` time using `n / log n` EREW-PRAM
//! processors**, matching the `Ω(log n)` CREW lower bound the paper proves by
//! reduction from the OR problem.
//!
//! What lives where:
//!
//! * [`pipeline`] — the paper's eight-step algorithm (binarise, leftist
//!   order, path counts, bracket generation, bracket matching, pseudo path
//!   trees, dummy-vertex legalisation, path extraction). One code path serves
//!   both the host execution and the PRAM-metered execution; the
//!   [`pipeline::Engine`] chooses which substrate runs the heavy primitives.
//! * [`sequential`] — the sequential bottom-up algorithm after Lin, Olariu
//!   and Pruesse (the paper's Lemma 2.3 and the baseline of experiment E2),
//!   one `O(n log n)` leftist fold over the k-ary cotree; it is what the
//!   service solves with.
//! * [`baselines`] — complexity-faithful emulations of the prior parallel
//!   algorithms the paper compares against: the naive bottom-up
//!   parallelisation, the suboptimal EREW algorithm of Lin et al. and an
//!   Adhar–Peng-like CRCW algorithm (experiment E5).
//! * [`hamiltonian`] — Hamiltonian-path and Hamiltonian-cycle decisions for
//!   cographs, the corollaries highlighted in the abstract (experiment E7).
//! * [`lower_bound`] — the reduction from OR to path-cover counting that
//!   drives the `Ω(log n)` lower bound (Theorem 2.2, experiment E1).
//!
//! ## Quick start
//!
//! ```
//! use cograph::{random_cotree, CotreeShape};
//! use pathcover::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let cotree = random_cotree(64, CotreeShape::Mixed, &mut rng);
//! let graph = cotree.to_graph();
//!
//! // Native execution of the parallel algorithm.
//! let cover = path_cover(&cotree);
//! assert!(pcgraph::verify_path_cover(&graph, &cover).is_valid());
//!
//! // The sequential baseline finds a cover of the same (minimum) size.
//! let seq = sequential_path_cover(&cotree);
//! assert_eq!(cover.len(), seq.len());
//!
//! // PRAM-metered execution: O(log n) steps, O(n) work, EREW discipline.
//! let outcome = pram_path_cover(&cotree, PramConfig::default());
//! assert_eq!(outcome.cover.len(), cover.len());
//! assert!(outcome.metrics.steps > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod hamiltonian;
pub mod lower_bound;
pub mod pipeline;
pub mod sequential;

pub use hamiltonian::{hamiltonian_path, has_hamiltonian_cycle, has_hamiltonian_path};
pub use lower_bound::{or_instance_cotree, or_via_path_cover};
pub use pipeline::{
    min_path_cover_size, path_cover, pool_path_cover, pram_path_cover, PramConfig, PramOutcome,
};
pub use sequential::sequential_path_cover;

/// Convenience re-exports for downstream users and the examples.
pub mod prelude {
    pub use crate::baselines::{adhar_peng_like_cover, lin_etal_cover, naive_parallel_cover};
    pub use crate::hamiltonian::{hamiltonian_path, has_hamiltonian_cycle, has_hamiltonian_path};
    pub use crate::lower_bound::{or_instance_cotree, or_via_path_cover};
    pub use crate::pipeline::{
        min_path_cover_size, path_cover, pool_path_cover, pram_path_cover, PramConfig, PramOutcome,
    };
    pub use crate::sequential::sequential_path_cover;
    pub use cograph::{BinaryCotree, Cotree, CotreeKind};
    pub use pcgraph::{verify_path_cover, Graph, Path, PathCover};
}
