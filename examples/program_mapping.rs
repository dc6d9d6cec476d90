//! Mapping a series-parallel task graph onto a linear processor array —
//! the "mapping parallel programs to parallel architectures" application the
//! paper's introduction mentions.
//!
//! Task compatibility (two tasks may run back-to-back on the same processor
//! pipeline) for series-parallel programs composed of sequential and parallel
//! blocks forms a cograph: a *parallel* composition makes all tasks of the
//! two sides compatible (join), a *sequential* composition keeps the two
//! sides incompatible (union). A minimum path cover of the compatibility
//! graph is a minimum number of processor pipelines needed to run everything,
//! and each path is the schedule of one pipeline.
//!
//! Run with: `cargo run --release -p pathcover --example program_mapping`

use cograph::Cotree;
use pathcover::prelude::*;
use pram::Mode;

/// A tiny series-parallel program description.
enum Block {
    /// A single task.
    Task,
    /// Blocks that must run one after another (no sharing possible).
    Seq(Vec<Block>),
    /// Blocks that may run concurrently (all pairs compatible).
    Par(Vec<Block>),
}

fn to_cotree(block: &Block) -> Cotree {
    match block {
        Block::Task => Cotree::single(0),
        Block::Seq(parts) => Cotree::union_of(parts.iter().map(to_cotree).collect()),
        Block::Par(parts) => Cotree::join_of(parts.iter().map(to_cotree).collect()),
    }
}

fn main() {
    // A pipeline stage followed by a fan-out of workers, a reduction, and a
    // post-processing stage.
    let program = Block::Seq(vec![
        Block::Task,
        Block::Par(vec![
            Block::Seq(vec![Block::Task, Block::Task]),
            Block::Seq(vec![Block::Task, Block::Task, Block::Task]),
            Block::Task,
            Block::Par(vec![Block::Task, Block::Task]),
        ]),
        Block::Task,
        Block::Par((0..6).map(|_| Block::Task).collect()),
    ]);

    let cotree = to_cotree(&program);
    let graph = cotree.to_graph();
    println!(
        "{} tasks, {} compatibility pairs",
        graph.num_vertices(),
        graph.num_edges()
    );

    let cover = path_cover(&cotree);
    assert!(verify_path_cover(&graph, &cover).is_valid());
    println!("minimum number of processor pipelines: {}", cover.len());
    for (i, path) in cover.paths().iter().enumerate() {
        println!("  pipeline {i}: tasks {:?}", path.vertices());
    }

    // The scheduling decision itself can be taken in O(log n) parallel time;
    // the metered run shows the cost and certifies the EREW discipline.
    let outcome = pram_path_cover(
        &cotree,
        PramConfig {
            mode: Mode::Erew,
            processors: None,
            strict: false,
        },
    );
    println!(
        "PRAM schedule computation: {} steps, {} work, {} EREW violations",
        outcome.metrics.steps, outcome.metrics.work, outcome.metrics.violation_total
    );
    assert_eq!(outcome.cover.len(), cover.len());
}
