//! Pins the PRAM simulator's answers and accounting byte for byte.
//!
//! For every cotree shape, a few sizes and both exclusive-write modes, one
//! FNV-1a digest covers `pram_path_cover`'s cover and metrics (steps, work,
//! reads, writes, instructions, peak cells, every kept violation and the
//! per-phase steps and work), the three baselines' covers and metrics, and
//! the covers of `path_cover` and `pool_path_cover`. A refactor of the
//! kernels or the simulator must leave every digest unchanged; a change to
//! what is counted must re-record them on purpose.

use cograph::{random_cotree, CotreeShape};
use pathcover::prelude::*;
use pram::{Metrics, Mode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a accumulator.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn cover(&mut self, cover: &PathCover) {
        self.word(cover.len() as u64);
        for path in cover.paths() {
            self.word(path.len() as u64);
            for &v in path.vertices() {
                self.bytes(&v.to_le_bytes());
            }
        }
    }

    fn metrics(&mut self, m: &Metrics) {
        for x in [m.steps, m.work, m.reads, m.writes, m.instructions] {
            self.word(x);
        }
        self.word(m.peak_cells as u64);
        self.word(m.violations.len() as u64);
        for v in &m.violations {
            self.word(v.kind as u64);
            self.word(v.address as u64);
            self.word(v.step_index);
            self.word(v.processors.0 as u64);
            self.word(v.processors.1 as u64);
        }
        for phase in m.phase_report() {
            self.bytes(phase.name.as_bytes());
            self.word(phase.steps);
            self.word(phase.work);
        }
    }
}

/// The simulator's metrics of one outcome; taking `Into<Option<_>>` lets
/// this file build whether the outcome's field is optional or not.
fn metrics_of(metrics: impl Into<Option<Metrics>>) -> Metrics {
    metrics.into().expect("the simulator reports metrics")
}

/// Checks that `cover` is a valid minimum cover of `cotree` and feeds it.
fn checked(hash: &mut Fnv, cotree: &Cotree, graph: &Graph, cover: &PathCover, what: &str) {
    assert!(verify_path_cover(graph, cover).is_valid(), "{what}");
    assert_eq!(cover.len(), min_path_cover_size(cotree), "{what}");
    hash.cover(cover);
}

#[test]
fn simulator_covers_and_accounting_are_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(2203);
    let mut pool = parpool::Pool::new(2);
    let mut got = Vec::new();
    for shape in CotreeShape::ALL {
        for n in [2usize, 7, 64, 300] {
            let cotree = random_cotree(n, shape, &mut rng);
            let graph = cotree.to_graph();
            for mode in [Mode::Erew, Mode::Crew] {
                let what = format!("{} n={n} {mode}", shape.name());
                let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
                let outcome = pram_path_cover(
                    &cotree,
                    PramConfig {
                        mode,
                        ..PramConfig::default()
                    },
                );
                checked(&mut hash, &cotree, &graph, &outcome.cover, &what);
                hash.word(outcome.processors as u64);
                hash.metrics(&metrics_of(outcome.metrics));
                for baseline in [naive_parallel_cover, lin_etal_cover, adhar_peng_like_cover] {
                    let outcome = baseline(&cotree);
                    checked(&mut hash, &cotree, &graph, &outcome.cover, &what);
                    hash.word(outcome.processors as u64);
                    hash.metrics(&metrics_of(outcome.metrics));
                }
                checked(&mut hash, &cotree, &graph, &path_cover(&cotree), &what);
                let pooled = pool_path_cover(&cotree, &mut pool);
                checked(&mut hash, &cotree, &graph, &pooled, &what);
                got.push(format!("{what}: {:#018x}", hash.0));
            }
        }
    }
    let want = [
        "balanced n=2 EREW: 0x0d71ba71f2b078b5",
        "balanced n=2 CREW: 0x0d71ba71f2b078b5",
        "balanced n=7 EREW: 0x458fc3fb7e1ff4ac",
        "balanced n=7 CREW: 0xbaf607a9a0910214",
        "balanced n=64 EREW: 0x74b68a730da915e8",
        "balanced n=64 CREW: 0x10e2a82a00c89f5a",
        "balanced n=300 EREW: 0xf68044a0c1879ea2",
        "balanced n=300 CREW: 0x1bed6beb7398b4e9",
        "skewed n=2 EREW: 0x2c232d0ca67f969c",
        "skewed n=2 CREW: 0x2c232d0ca67f969c",
        "skewed n=7 EREW: 0x84f7ac8820458877",
        "skewed n=7 CREW: 0xc8e215d56e7bd9cf",
        "skewed n=64 EREW: 0x20a3afaa46370e9d",
        "skewed n=64 CREW: 0x168ec5e15e9343b3",
        "skewed n=300 EREW: 0xc98edf7cf0bd846e",
        "skewed n=300 CREW: 0xaa9fc5d6c5c7fde0",
        "mixed n=2 EREW: 0x2c232d0ca67f969c",
        "mixed n=2 CREW: 0x2c232d0ca67f969c",
        "mixed n=7 EREW: 0x007b7b3d774537c9",
        "mixed n=7 CREW: 0x12fb0bbc13715e48",
        "mixed n=64 EREW: 0xc8124db135d37f2d",
        "mixed n=64 CREW: 0x456b2bc6bfdab70d",
        "mixed n=300 EREW: 0x57e3b9819439c561",
        "mixed n=300 CREW: 0xc38777f15cd8fd32",
    ];
    assert_eq!(got, want);
}
