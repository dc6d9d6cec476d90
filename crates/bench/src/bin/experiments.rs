//! Experiment driver: regenerates every table of `EXPERIMENTS.md`.
//!
//! Run with: `cargo run --release -p pc-bench --bin experiments [-- --quick]`

use cograph::BinaryCotree;
use pathcover::prelude::*;
use pc_bench::workloads::{CotreeFamily, Workload, DEFAULT_SEED};
use pc_bench::Table;
use pram::Mode;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: Vec<usize> = if quick {
        vec![1 << 8, 1 << 10]
    } else {
        vec![1 << 8, 1 << 10, 1 << 12, 1 << 14]
    };
    e1_lower_bound(&sizes);
    e2_sequential(&sizes, quick);
    e3_path_counts(&sizes);
    e4_full_pipeline(&sizes);
    e5_baselines(&sizes, quick);
    e6_processor_sweep(if quick { 1 << 10 } else { 1 << 12 });
    e7_hamiltonian(&sizes);
    e8_primitives(&sizes);
}

fn print_table(title: &str, table: &Table) {
    println!("\n## {title}\n");
    println!("{}", table.render());
}

/// E1 — Theorem 2.2: the OR reduction and the matching Theta(log n) upper bound.
fn e1_lower_bound(sizes: &[usize]) {
    let mut rng = ChaCha8Rng::seed_from_u64(DEFAULT_SEED);
    let mut t = Table::new(vec![
        "n (bits)",
        "cover size",
        "OR",
        "pipeline steps",
        "steps/log2(n)",
    ]);
    for &n in sizes {
        let bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.25)).collect();
        let cotree = or_instance_cotree(&bits);
        let outcome = pram_path_cover(&cotree, PramConfig::default());
        let or = outcome.cover.len() < n + 2;
        assert_eq!(or, bits.iter().any(|&b| b));
        t.add_row(vec![
            n.to_string(),
            outcome.cover.len().to_string(),
            or.to_string(),
            outcome.metrics.steps.to_string(),
            format!("{:.1}", outcome.metrics.steps_per_log(n)),
        ]);
    }
    print_table("E1 - lower-bound reduction (Theorem 2.2)", &t);
}

/// E2 — Lemma 2.3: the sequential algorithm is (near-)linear time.
fn e2_sequential(sizes: &[usize], quick: bool) {
    let mut t = Table::new(vec![
        "family",
        "n",
        "paths",
        "wall time (ms)",
        "us per vertex",
    ]);
    let extra = if quick {
        vec![]
    } else {
        vec![1 << 16, 1 << 18, 1 << 20]
    };
    for family in CotreeFamily::ALL {
        for &n in sizes.iter().chain(extra.iter()) {
            let cotree = Workload::new(family, n, DEFAULT_SEED).cotree();
            let start = Instant::now();
            let cover = sequential_path_cover(&cotree);
            let elapsed = start.elapsed();
            t.add_row(vec![
                family.name().to_string(),
                n.to_string(),
                cover.len().to_string(),
                format!("{:.2}", elapsed.as_secs_f64() * 1e3),
                format!("{:.3}", elapsed.as_secs_f64() * 1e6 / n as f64),
            ]);
        }
    }
    print_table("E2 - sequential algorithm (Lemma 2.3)", &t);
}

/// E3 — Lemma 2.4: path counts in O(log n) steps and O(n) work, EREW-clean.
fn e3_path_counts(sizes: &[usize]) {
    let mut t = Table::new(vec![
        "family",
        "n",
        "steps",
        "steps/log2(n)",
        "work",
        "work/n",
        "violations",
    ]);
    for family in CotreeFamily::ALL {
        for &n in sizes {
            let cotree = Workload::new(family, n, DEFAULT_SEED).cotree();
            let (tree, leaf_counts) = BinaryCotree::leftist_from_cotree(&cotree);
            let mut machine = pram::Pram::new(Mode::Erew, pram::optimal_processors(n));
            let _ = cograph::path_counts_pram(&mut machine, &tree, &leaf_counts);
            let m = machine.metrics();
            t.add_row(vec![
                family.name().to_string(),
                n.to_string(),
                m.steps.to_string(),
                format!("{:.1}", m.steps_per_log(n)),
                m.work.to_string(),
                format!("{:.1}", m.work_per_item(n)),
                m.violation_total.to_string(),
            ]);
        }
    }
    print_table("E3 - number of paths via tree contraction (Lemma 2.4)", &t);
}

/// E4 — Theorem 5.3: the full pipeline.
fn e4_full_pipeline(sizes: &[usize]) {
    let mut t = Table::new(vec![
        "family",
        "n",
        "paths",
        "steps",
        "steps/log2(n)",
        "work",
        "work/n",
        "EREW violations",
        "outside bracket matching",
    ]);
    for family in CotreeFamily::ALL {
        for &n in sizes {
            let cotree = Workload::new(family, n, DEFAULT_SEED).cotree();
            let outcome = pram_path_cover(&cotree, PramConfig::default());
            let m = &outcome.metrics;
            let matching: u64 = m
                .phase_report()
                .iter()
                .filter(|p| p.name.contains("bracket matching"))
                .map(|p| p.violations)
                .sum();
            t.add_row(vec![
                family.name().to_string(),
                n.to_string(),
                outcome.cover.len().to_string(),
                m.steps.to_string(),
                format!("{:.1}", m.steps_per_log(n)),
                m.work.to_string(),
                format!("{:.1}", m.work_per_item(n)),
                m.violation_total.to_string(),
                (m.violation_total - matching).to_string(),
            ]);
        }
    }
    print_table("E4 - full minimum path cover pipeline (Theorem 5.3)", &t);
}

/// E5 — comparison against the prior algorithms.
fn e5_baselines(sizes: &[usize], quick: bool) {
    let mut t = Table::new(vec![
        "family",
        "n",
        "algorithm",
        "steps",
        "work",
        "processors",
    ]);
    for family in [CotreeFamily::Balanced, CotreeFamily::Skewed] {
        for &n in sizes {
            let cotree = Workload::new(family, n, DEFAULT_SEED).cotree();
            let ours = pram_path_cover(&cotree, PramConfig::default());
            let mut rows = vec![(
                "this paper (optimal)",
                ours.metrics.steps,
                ours.metrics.work,
                ours.processors,
            )];
            let naive = naive_parallel_cover(&cotree);
            rows.push((
                "naive bottom-up",
                naive.metrics.steps,
                naive.metrics.work,
                naive.processors,
            ));
            let lin = lin_etal_cover(&cotree);
            rows.push((
                "Lin et al. [18]",
                lin.metrics.steps,
                lin.metrics.work,
                lin.processors,
            ));
            if n <= if quick { 1 << 10 } else { 1 << 12 } {
                let ap = adhar_peng_like_cover(&cotree);
                rows.push((
                    "Adhar-Peng-like [2]",
                    ap.metrics.steps,
                    ap.metrics.work,
                    ap.processors,
                ));
            }
            for (name, steps, work, procs) in rows {
                t.add_row(vec![
                    family.name().to_string(),
                    n.to_string(),
                    name.to_string(),
                    steps.to_string(),
                    work.to_string(),
                    procs.to_string(),
                ]);
            }
        }
    }
    print_table("E5 - comparison against prior algorithms", &t);
}

/// E6 — Brent speedup / work optimality across processor counts.
fn e6_processor_sweep(n: usize) {
    let cotree = Workload::new(CotreeFamily::Balanced, n, DEFAULT_SEED).cotree();
    let mut t = Table::new(vec![
        "processors",
        "steps",
        "speedup vs p=1",
        "p x steps / work",
    ]);
    let base = pram_path_cover(
        &cotree,
        PramConfig {
            processors: Some(1),
            ..PramConfig::default()
        },
    );
    let mut p = 1usize;
    while p <= n {
        let outcome = pram_path_cover(
            &cotree,
            PramConfig {
                processors: Some(p),
                ..PramConfig::default()
            },
        );
        t.add_row(vec![
            p.to_string(),
            outcome.metrics.steps.to_string(),
            format!(
                "{:.2}",
                base.metrics.steps as f64 / outcome.metrics.steps as f64
            ),
            format!(
                "{:.2}",
                (p as u64 * outcome.metrics.steps) as f64 / outcome.metrics.work as f64
            ),
        ]);
        p *= 4;
    }
    print_table(
        &format!("E6 - processor sweep (Brent speedup), balanced n={n}"),
        &t,
    );
}

/// E7 — Hamiltonian path / cycle decisions.
fn e7_hamiltonian(sizes: &[usize]) {
    let mut t = Table::new(vec![
        "n",
        "ham. path",
        "ham. cycle",
        "steps",
        "steps/log2(n)",
    ]);
    let mut rng = ChaCha8Rng::seed_from_u64(DEFAULT_SEED);
    for &n in sizes {
        let cotree = cograph::generators::random_connected_cotree(n, CotreeFamily::Mixed, &mut rng);
        let outcome = pram_path_cover(&cotree, PramConfig::default());
        t.add_row(vec![
            n.to_string(),
            (outcome.cover.len() == 1).to_string(),
            has_hamiltonian_cycle(&cotree).to_string(),
            outcome.metrics.steps.to_string(),
            format!("{:.1}", outcome.metrics.steps_per_log(n)),
        ]);
    }
    print_table("E7 - Hamiltonian path / cycle decisions", &t);
}

/// E8 — the primitive toolbox of Lemmas 5.1 / 5.2.
fn e8_primitives(sizes: &[usize]) {
    use parprims::brackets::BracketKind;
    use parprims::scan::ScanOp;
    let mut t = Table::new(vec![
        "primitive",
        "n",
        "steps",
        "steps/log2(n)",
        "work/n",
        "violations",
    ]);
    let mut rng = ChaCha8Rng::seed_from_u64(DEFAULT_SEED);
    for &n in sizes {
        // prefix sums
        let data: Vec<i64> = (0..n as i64).collect();
        let mut m = pram::Pram::new(Mode::Erew, pram::optimal_processors(n));
        let h = m.alloc_from(&data);
        let _ = parprims::scan::prefix_sums_pram(&mut m, h, ScanOp::Sum, 0);
        t.add_row(vec![
            "prefix sums".into(),
            n.to_string(),
            m.metrics().steps.to_string(),
            format!("{:.1}", m.metrics().steps_per_log(n)),
            format!("{:.1}", m.metrics().work_per_item(n)),
            m.metrics().violation_total.to_string(),
        ]);
        // list ranking
        let mut order: Vec<usize> = (0..n).collect();
        use rand::seq::SliceRandom;
        order.shuffle(&mut rng);
        let mut succ = vec![-1i64; n];
        for w in order.windows(2) {
            succ[w[0]] = w[1] as i64;
        }
        let mut m = pram::Pram::new(Mode::Erew, pram::optimal_processors(n));
        let h = m.alloc_from(&succ);
        let _ = parprims::ranking::list_rank_blocked(&mut m, h, 0);
        t.add_row(vec![
            "list ranking (blocked)".into(),
            n.to_string(),
            m.metrics().steps.to_string(),
            format!("{:.1}", m.metrics().steps_per_log(n)),
            format!("{:.1}", m.metrics().work_per_item(n)),
            m.metrics().violation_total.to_string(),
        ]);
        // bracket matching
        let kinds: Vec<BracketKind> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    BracketKind::Open
                } else {
                    BracketKind::Close
                }
            })
            .collect();
        let mut m = pram::Pram::new(Mode::Crew, pram::optimal_processors(n));
        let _ = parprims::brackets::match_brackets_pram(&mut m, &kinds);
        t.add_row(vec![
            "bracket matching (CREW)".into(),
            n.to_string(),
            m.metrics().steps.to_string(),
            format!("{:.1}", m.metrics().steps_per_log(n)),
            format!("{:.1}", m.metrics().work_per_item(n)),
            m.metrics().violation_total.to_string(),
        ]);
        // euler tour numberings
        let cotree = Workload::new(CotreeFamily::Balanced, n, DEFAULT_SEED).cotree();
        let (tree, _) = BinaryCotree::leftist_from_cotree(&cotree);
        let rooted = tree.to_rooted_tree();
        let mut m = pram::Pram::new(Mode::Erew, pram::optimal_processors(n));
        let _ = parprims::euler::euler_tour_numbers(&mut m, &rooted, None);
        t.add_row(vec![
            "euler tour numberings".into(),
            n.to_string(),
            m.metrics().steps.to_string(),
            format!("{:.1}", m.metrics().steps_per_log(n)),
            format!("{:.1}", m.metrics().work_per_item(n)),
            m.metrics().violation_total.to_string(),
        ]);
    }
    print_table("E8 - primitive toolbox (Lemmas 5.1 / 5.2)", &t);
}
