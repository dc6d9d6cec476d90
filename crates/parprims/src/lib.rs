//! # parprims — classical PRAM parallel primitives
//!
//! The path-cover algorithm of Nakano, Olariu and Zomaya leans on a toolbox of
//! classical PRAM primitives (the paper's Lemmas 5.1 and 5.2):
//!
//! 1. prefix sums over an array ([`scan`]),
//! 2. list ranking of a linked list ([`ranking`]),
//! 3. bracket (parentheses) matching ([`brackets`]),
//! 4. the Euler tour technique on rooted trees, including preorder, inorder
//!    and postorder numbering, subtree sizes, leaf counts and depths
//!    ([`euler`]), and
//! 5. rake-based tree contraction for expression evaluation over
//!    max-plus-affine functions, used to compute the path counts `p(u)`
//!    ([`contraction`]).
//!
//! Every primitive runs on the [`pram`] simulator, so its time (synchronous
//! steps), work and access discipline are *measured*. Each has one entry
//! point that takes a `&mut Pram` and [`pram::ArrayHandle`]s and runs its
//! rounds with [`pram::Pram::parallel_for`], and a plain sequential reference
//! implementation the tests use as an oracle.
//!
//! Fidelity notes (detailed in the [`brackets`] module docs): the blocked
//! prefix-sum, list-ranking and Euler-tour implementations are work-optimal
//! and EREW-clean. The bracket-matching pair-extraction phase implements the
//! tournament algorithm, which performs concurrent reads of the tournament
//! tree and `O(n log n)` work; it stands in for the optimal EREW algorithm of
//! Gibbons and Rytter cited by the paper. Those concurrent reads are the
//! only EREW violations of the whole path-cover pipeline, and the
//! simulator's per-phase violation totals
//! ([`pram::PhaseReport::violations`]) show them inside the bracket-matching
//! step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brackets;
pub mod contraction;
pub mod euler;
pub mod ranking;
pub mod scan;
pub mod tree;

pub use brackets::{match_brackets_pram, match_brackets_seq, BracketKind};
pub use contraction::{evaluate_tree_pram, evaluate_tree_seq, MaxPlusAffine, NodeOp};
pub use euler::{euler_tour_numbers, EulerNumbers};
pub use ranking::{list_rank_blocked, list_rank_seq, list_rank_wyllie};
pub use scan::{prefix_sums_pram, prefix_sums_seq, ScanOp};
pub use tree::RootedTree;
