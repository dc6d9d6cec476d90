//! Prefix sums (scans) — Lemma 5.1(2) of the paper.
//!
//! The work-optimal EREW algorithm follows the classical three-phase blocked
//! scheme: with `p = ceil(n / b)` blocks of size `b` (the caller typically
//! chooses `b = log2 n`), (1) every virtual processor reduces its block
//! sequentially, (2) the block sums are scanned with the balanced-tree
//! algorithm, (3) every virtual processor rescans its block seeded with the
//! scanned block offset. Phases 1 and 3 touch only the processor's own block,
//! phase 2 touches each tree cell exactly once per direction, so the whole
//! scan is EREW-clean. Total: `O(b + log p)` steps and `O(n)` work.
//!
use pram::{ArrayHandle, Pram};

/// Associative operators supported by the scans.
///
/// All operators act on `i64` words. `CopyLast` propagates the most recent
/// *defined* value (any value different from the designated `undefined`
/// sentinel, `i64::MIN`); it is the segmented "broadcast the last marker"
/// scan used to attach bracket positions to their emitting cotree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOp {
    /// Addition; identity 0.
    Sum,
    /// Maximum; identity `i64::MIN`.
    Max,
    /// Minimum; identity `i64::MAX`.
    Min,
    /// Keep the right operand unless it is `i64::MIN` ("undefined"), in which
    /// case keep the left one; identity `i64::MIN`.
    CopyLast,
}

impl ScanOp {
    /// Identity element of the operator.
    pub fn identity(self) -> i64 {
        match self {
            ScanOp::Sum => 0,
            ScanOp::Max | ScanOp::CopyLast => i64::MIN,
            ScanOp::Min => i64::MAX,
        }
    }

    /// Applies the operator.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            ScanOp::Sum => a + b,
            ScanOp::Max => a.max(b),
            ScanOp::Min => a.min(b),
            ScanOp::CopyLast => {
                if b == i64::MIN {
                    a
                } else {
                    b
                }
            }
        }
    }
}

/// Sequential reference scan. Returns the inclusive scan of `input`.
pub fn prefix_sums_seq(input: &[i64], op: ScanOp) -> Vec<i64> {
    let mut out = Vec::with_capacity(input.len());
    let mut acc = op.identity();
    for &x in input {
        acc = op.apply(acc, x);
        out.push(acc);
    }
    out
}

/// Work-optimal inclusive scan on the PRAM simulator.
///
/// Reads `input`, writes and returns a freshly allocated array of the same
/// length holding the inclusive scan. `block` is the block size of the
/// work-optimal scheme; callers aiming for the paper's bounds pass
/// `log2(n)`; `0` selects that default.
pub fn prefix_sums_pram(
    pram: &mut Pram,
    input: ArrayHandle,
    op: ScanOp,
    block: usize,
) -> ArrayHandle {
    let n = input.len();
    let output = pram.alloc(n);
    if n == 0 {
        return output;
    }
    let block = effective_block(n, block);
    let num_blocks = n.div_ceil(block);

    // Phase 1: per-block sequential reduction into `sums`.
    let sums = pram.alloc(num_blocks);
    pram.parallel_for(num_blocks, |ctx, b| {
        let start = b * block;
        let end = (start + block).min(n);
        let mut acc = op.identity();
        for i in start..end {
            acc = op.apply(acc, ctx.read(input, i));
        }
        ctx.write(sums, b, acc);
    });

    // Phase 2: balanced-tree scan of the block sums (exclusive).
    let offsets = tree_exclusive_scan(pram, sums, op);

    // Phase 3: per-block rescan seeded with the block offset.
    pram.parallel_for(num_blocks, |ctx, b| {
        let start = b * block;
        let end = (start + block).min(n);
        let mut acc = ctx.read(offsets, b);
        for i in start..end {
            acc = op.apply(acc, ctx.read(input, i));
            ctx.write(output, i, acc);
        }
    });
    output
}

/// Exclusive scan: element `i` of the result combines elements `0..i` of the
/// input (the identity for `i = 0`).
pub fn exclusive_scan_pram(
    pram: &mut Pram,
    input: ArrayHandle,
    op: ScanOp,
    block: usize,
) -> ArrayHandle {
    let n = input.len();
    let inclusive = prefix_sums_pram(pram, input, op, block);
    let output = pram.alloc(n);
    if n == 0 {
        return output;
    }
    pram.parallel_for(n, |ctx, i| {
        let v = if i == 0 {
            op.identity()
        } else {
            ctx.read(inclusive, i - 1)
        };
        ctx.write(output, i, v);
    });
    output
}

/// The non-blocked balanced-tree scan (up-sweep / down-sweep), exposed for
/// the ablation benchmark comparing it against the work-optimal blocked
/// version: `O(log n)` steps but `O(n log n)`-ish work when charged per
/// round over all elements.
pub fn tree_scan_pram(pram: &mut Pram, input: ArrayHandle, op: ScanOp) -> ArrayHandle {
    let n = input.len();
    let output = pram.alloc(n);
    if n == 0 {
        return output;
    }
    pram.parallel_for(n, |ctx, i| {
        let v = ctx.read(input, i);
        ctx.write(output, i, v);
    });
    // Hillis–Steele inclusive scan: log n rounds of shifted combines. Each
    // round reads a private copy to stay exclusive.
    let mut stride = 1usize;
    while stride < n {
        let shifted = pram.alloc(n);
        pram.parallel_for(n, |ctx, i| {
            let v = ctx.read(output, i);
            ctx.write(shifted, i, v);
        });
        pram.parallel_for(n, |ctx, i| {
            if i >= stride {
                let a = ctx.read(shifted, i - stride);
                let b = ctx.read(output, i);
                ctx.write(output, i, op.apply(a, b));
            }
        });
        stride *= 2;
    }
    output
}

/// Exclusive balanced-tree scan over `input`, used internally for the block
/// sums of the work-optimal scan. Returns a new array `off` with
/// `off[0] = identity` and `off[i] = op(input[0..i])`.
fn tree_exclusive_scan(pram: &mut Pram, input: ArrayHandle, op: ScanOp) -> ArrayHandle {
    let n = input.len();
    let inclusive = tree_scan_pram(pram, input, op);
    let out = pram.alloc(n);
    pram.parallel_for(n, |ctx, i| {
        let v = if i == 0 {
            op.identity()
        } else {
            ctx.read(inclusive, i - 1)
        };
        ctx.write(out, i, v);
    });
    out
}

/// Default block size: `log2(n)` rounded up, at least 1.
pub fn effective_block(n: usize, block: usize) -> usize {
    if block > 0 {
        return block;
    }
    if n <= 2 {
        1
    } else {
        ((usize::BITS - (n - 1).leading_zeros()) as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram::{Mode, Pram};

    fn run_pram_scan(data: &[i64], op: ScanOp, block: usize) -> (Vec<i64>, pram::Metrics) {
        let mut pram = Pram::strict(Mode::Erew, pram::optimal_processors(data.len().max(1)));
        let input = pram.alloc_from(data);
        let out = prefix_sums_pram(&mut pram, input, op, block);
        (pram.snapshot(out), pram.into_metrics())
    }

    #[test]
    fn sequential_scan_ops() {
        assert_eq!(
            prefix_sums_seq(&[1, 2, 3, 4], ScanOp::Sum),
            vec![1, 3, 6, 10]
        );
        assert_eq!(
            prefix_sums_seq(&[3, 1, 4, 1], ScanOp::Max),
            vec![3, 3, 4, 4]
        );
        assert_eq!(
            prefix_sums_seq(&[3, 1, 4, 1], ScanOp::Min),
            vec![3, 1, 1, 1]
        );
        assert_eq!(
            prefix_sums_seq(&[i64::MIN, 5, i64::MIN, 7, i64::MIN], ScanOp::CopyLast),
            vec![i64::MIN, 5, 5, 7, 7]
        );
        assert!(prefix_sums_seq(&[], ScanOp::Sum).is_empty());
    }

    #[test]
    fn pram_scan_matches_sequential() {
        let data: Vec<i64> = (0..257).map(|i| (i * 37 % 101) - 50).collect();
        for op in [ScanOp::Sum, ScanOp::Max, ScanOp::Min] {
            let (got, metrics) = run_pram_scan(&data, op, 0);
            assert_eq!(got, prefix_sums_seq(&data, op), "{op:?}");
            assert!(metrics.is_clean());
        }
    }

    #[test]
    fn pram_copylast_matches_sequential() {
        let data: Vec<i64> = (0..100)
            .map(|i| if i % 7 == 0 { i } else { i64::MIN })
            .collect();
        let (got, _) = run_pram_scan(&data, ScanOp::CopyLast, 0);
        assert_eq!(got, prefix_sums_seq(&data, ScanOp::CopyLast));
    }

    #[test]
    fn pram_scan_handles_awkward_sizes() {
        for n in [0usize, 1, 2, 3, 5, 17, 64, 65, 255] {
            let data: Vec<i64> = (0..n as i64).collect();
            let (got, _) = run_pram_scan(&data, ScanOp::Sum, 0);
            assert_eq!(got, prefix_sums_seq(&data, ScanOp::Sum), "n={n}");
        }
    }

    #[test]
    fn exclusive_scan_shifts_by_one() {
        let mut pram = Pram::strict(Mode::Erew, 4);
        let input = pram.alloc_from(&[5, 1, 2, 3]);
        let out = exclusive_scan_pram(&mut pram, input, ScanOp::Sum, 0);
        assert_eq!(pram.snapshot(out), vec![0, 5, 6, 8]);
    }

    #[test]
    fn tree_scan_matches_sequential() {
        let data: Vec<i64> = (0..130).map(|i| i % 9 - 4).collect();
        let mut pram = Pram::strict(Mode::Erew, 16);
        let input = pram.alloc_from(&data);
        let out = tree_scan_pram(&mut pram, input, ScanOp::Sum);
        assert_eq!(pram.snapshot(out), prefix_sums_seq(&data, ScanOp::Sum));
        assert!(pram.metrics().is_clean());
    }

    #[test]
    fn blocked_scan_is_work_optimal_and_logarithmic() {
        // Work must stay within a constant factor of n, and steps within a
        // constant factor of log n, when p = n / log n.
        let mut ratios = Vec::new();
        for exp in [10usize, 12, 14] {
            let n = 1usize << exp;
            let data: Vec<i64> = vec![1; n];
            let (_, metrics) = run_pram_scan(&data, ScanOp::Sum, 0);
            ratios.push((metrics.work_per_item(n), metrics.steps_per_log(n)));
        }
        for (work_per_item, _) in &ratios {
            assert!(
                *work_per_item < 8.0,
                "work per item too high: {work_per_item}"
            );
        }
        // Steps per log n may not grow by more than ~2x across a 16x size
        // range if the algorithm is O(log n).
        let first = ratios.first().expect("non-empty").1;
        let last = ratios.last().expect("non-empty").1;
        assert!(
            last / first < 2.0,
            "steps are not O(log n): {first} -> {last}"
        );
    }

    #[test]
    fn default_block_is_log_n() {
        assert_eq!(effective_block(1024, 0), 10);
        assert_eq!(effective_block(1, 0), 1);
        assert_eq!(effective_block(1000, 16), 16);
    }
}
