//! # pcgraph — general graph substrate
//!
//! This crate provides the plain (non-cograph-specific) graph machinery the
//! rest of the workspace is built on:
//!
//! * [`Graph`] — a simple undirected graph stored as adjacency lists, with
//!   adjacency queries backed by sorted neighbour lists.
//! * [`Path`], [`PathCover`] — the objects the path-cover algorithms produce,
//!   together with [`verify_path_cover`], the oracle every test and benchmark
//!   uses to certify a cover against the underlying graph.
//! * [`ops`] — graph operators (complement, disjoint union, join, relabel)
//!   matching the recursive definition of cographs.
//! * [`generators`] — deterministic pseudo-random workload generators.
//!
//! The crate is deliberately free of any cograph- or PRAM-specific knowledge;
//! those live in the `cograph`, `parprims` and `pathcover` crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod generators;
pub mod graph;
pub mod ops;
pub mod path;

pub use error::GraphError;
pub use graph::{Graph, VertexId};
pub use path::{verify_path_cover, CoverReport, Path, PathCover};
