//! Access-discipline integration tests: the primitives that claim to be
//! EREW-clean must report zero violations on the simulator, and the
//! simulator must still detect deliberately conflicting programs.

use cograph::{random_cotree, BinaryCotree, CotreeShape};
use parprims::scan::{prefix_sums_pram, ScanOp};
use pathcover::prelude::*;
use pram::{Metrics, Mode, Pram, ViolationKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn scans_euler_and_contraction_are_erew_clean() {
    let mut rng = ChaCha8Rng::seed_from_u64(20);
    let cotree = random_cotree(300, CotreeShape::Mixed, &mut rng);
    let (tree, leaf_counts) = BinaryCotree::leftist_from_cotree(&cotree);

    let mut machine = Pram::strict(Mode::Erew, pram::optimal_processors(300));
    let data: Vec<i64> = (0..500).collect();
    let input = machine.alloc_from(&data);
    let _ = prefix_sums_pram(&mut machine, input, ScanOp::Sum, 0);
    let _ = cograph::path_counts_pram(&mut machine, &tree, &leaf_counts);
    assert!(machine.metrics().is_clean());
}

#[test]
fn full_pipeline_reports_conflict_counts() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let cotree = random_cotree(200, CotreeShape::Balanced, &mut rng);
    // Under CREW accounting the pipeline must be entirely clean.
    let crew = pram_path_cover(
        &cotree,
        PramConfig {
            mode: Mode::Crew,
            processors: None,
            strict: false,
        },
    );
    assert!(crew.metrics.is_clean(), "CREW run reported violations");
    // Under EREW accounting the only tolerated conflicts are the concurrent
    // *reads* of the tournament tree in the bracket-matching extraction
    // phase (the documented approximation); no concurrent writes ever.
    let erew = pram_path_cover(
        &cotree,
        PramConfig {
            mode: Mode::Erew,
            processors: None,
            strict: false,
        },
    );
    assert!(erew
        .metrics
        .violations
        .iter()
        .all(|v| v.kind == ViolationKind::ConcurrentRead));
}

#[test]
fn every_violation_is_counted_past_the_sample() {
    // The quickstart example's cotree: the EREW run makes more violations
    // than the sample keeps, all of them in the bracket-matching step.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let cotree = random_cotree(200, CotreeShape::Mixed, &mut rng);
    let m = pram_path_cover(&cotree, PramConfig::default()).metrics;
    assert_eq!(m.violation_total, 1092);
    assert_eq!(m.violations.len(), Metrics::VIOLATION_SAMPLE);
    assert_eq!(Metrics::VIOLATION_SAMPLE, 1024);
    assert!(!m.is_clean());
    let per_phase: Vec<(String, u64)> = m
        .phase_report()
        .into_iter()
        .filter(|p| p.violations > 0)
        .map(|p| (p.name, p.violations))
        .collect();
    assert_eq!(per_phase, [("step 5: bracket matching".to_string(), 1092)]);
}

#[test]
fn deliberate_conflicts_are_detected() {
    let mut machine = Pram::new(Mode::Erew, 4);
    let cell = machine.alloc(1);
    machine.parallel_for(4, |ctx, i| ctx.write(cell, 0, i as i64));
    assert!(!machine.metrics().is_clean());
    assert!(machine
        .metrics()
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::ConcurrentWrite));
}

#[test]
fn processor_sweep_respects_brents_principle() {
    let mut rng = ChaCha8Rng::seed_from_u64(22);
    let n = 1 << 9;
    let cotree = random_cotree(n, CotreeShape::Balanced, &mut rng);
    let mut prev_steps = None;
    for p in [1usize, 4, 16, 64, 256] {
        let outcome = pram_path_cover(
            &cotree,
            PramConfig {
                mode: Mode::Erew,
                processors: Some(p),
                strict: false,
            },
        );
        if let Some(prev) = prev_steps {
            assert!(
                outcome.metrics.steps <= prev,
                "more processors must not be slower"
            );
        }
        prev_steps = Some(outcome.metrics.steps);
    }
}
