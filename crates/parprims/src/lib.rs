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
//! Every primitive is implemented against the [`pram`] simulator so its time
//! (synchronous steps), work and access discipline are *measured*, and every
//! primitive has a plain sequential reference implementation used by the
//! tests as an oracle.
//!
//! Fidelity notes (detailed in the [`brackets`] module docs): the blocked
//! prefix-sum, list-ranking and Euler-tour implementations are work-optimal
//! and EREW-clean. The bracket-matching pair-extraction phase implements the
//! tournament algorithm, which performs concurrent reads of the tournament
//! tree and `O(n log n)` work; it stands in for the optimal EREW algorithm of
//! Gibbons and Rytter cited by the paper. The experiment driver reports the
//! phases separately so the substitution is visible in the measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brackets;
pub mod contraction;
pub mod euler;
pub mod exec;
pub mod ranking;
pub mod scan;
pub mod tree;

pub use brackets::{match_brackets_exec, match_brackets_pram, match_brackets_seq, BracketKind};
pub use contraction::{
    evaluate_tree_exec, evaluate_tree_pram, evaluate_tree_seq, MaxPlusAffine, NodeOp,
};
pub use euler::{euler_tour_numbers, euler_tour_numbers_exec, EulerNumbers};
pub use exec::{Exec, Handle, RoundCtx};
pub use ranking::{list_rank_blocked, list_rank_exec, list_rank_seq, list_rank_wyllie};
pub use scan::{prefix_sums_exec, prefix_sums_pram, prefix_sums_seq, ScanOp};
pub use tree::RootedTree;
