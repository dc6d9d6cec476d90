//! Quickstart: build a cograph, compute its minimum path cover three ways
//! (sequential, native parallel, PRAM-metered), and verify the results.
//!
//! Run with: `cargo run --release -p pathcover --example quickstart`

use cograph::{random_cotree, recognize, CotreeShape};
use pathcover::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(42);

    // A random 200-vertex cograph described by its cotree.
    let cotree = random_cotree(200, CotreeShape::Mixed, &mut rng);
    let graph = cotree.to_graph();
    println!(
        "cograph: {} vertices, {} edges, cotree height {}",
        graph.num_vertices(),
        graph.num_edges(),
        cotree.height()
    );

    // The library also recognises cographs from raw graphs.
    let recognised = recognize(&graph).expect("materialised cographs are recognised");
    assert_eq!(recognised.to_graph(), graph);

    // Sequential baseline (Lin-Olariu-Pruesse).
    let seq = sequential_path_cover(&cotree);
    println!("sequential cover: {} paths", seq.len());

    // The paper's parallel algorithm, executed natively.
    let par = path_cover(&cotree);
    println!("parallel  cover: {} paths", par.len());
    assert_eq!(seq.len(), par.len());
    assert!(verify_path_cover(&graph, &par).is_valid());

    // The same algorithm on the instrumented EREW PRAM with n / log n
    // processors: O(log n) steps and O(n) work. The simulator counts every
    // access violation; the only ones are the concurrent reads of the
    // tournament bracket matcher, a CREW stand-in for the paper's EREW
    // matcher, so they all fall in step 5.
    let outcome = pram_path_cover(&cotree, PramConfig::default());
    let m = &outcome.metrics;
    println!(
        "PRAM run: p = {}, steps = {}, work = {}, violations = {}",
        outcome.processors, m.steps, m.work, m.violation_total
    );
    for phase in m.phase_report() {
        println!(
            "  {:<32} steps = {:>8}  work = {:>10}  violations = {:>6}",
            phase.name, phase.steps, phase.work, phase.violations
        );
        assert!(phase.violations == 0 || phase.name == "step 5: bracket matching");
    }
    assert!(verify_path_cover(&graph, &outcome.cover).is_valid());

    // Hamiltonian corollaries.
    println!("hamiltonian path:  {}", has_hamiltonian_path(&cotree));
    println!("hamiltonian cycle: {}", has_hamiltonian_cycle(&cotree));
}
