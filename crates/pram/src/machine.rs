//! The simulated machine: shared memory, synchronous steps, conflict checks.

use crate::handle::ArrayHandle;
use crate::metrics::{Metrics, Violation, ViolationKind};
use crate::mode::{Mode, WritePolicy};

/// Word type of the simulated shared memory.
///
/// PRAM algorithms in the literature operate on machine words; every quantity
/// the path-cover pipeline stores (indices, counters, labels, encoded
/// brackets) fits comfortably in a signed 64-bit word.
pub type Word = i64;

/// Builder for a [`Pram`], allowing the rarely-changed knobs to be set
/// explicitly.
#[derive(Debug, Clone)]
pub struct PramBuilder {
    mode: Mode,
    processors: usize,
    strict: bool,
}

impl PramBuilder {
    /// Starts a builder for the given model variant and physical processor
    /// count.
    pub fn new(mode: Mode, processors: usize) -> Self {
        PramBuilder {
            mode,
            processors: processors.max(1),
            strict: false,
        }
    }

    /// In strict mode an access-discipline violation panics instead of being
    /// recorded. The test suite uses this to prove algorithms are EREW-clean.
    pub fn strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Finishes construction.
    pub fn build(self) -> Pram {
        Pram {
            mode: self.mode,
            processors: self.processors,
            strict: self.strict,
            memory: Vec::new(),
            arrays: 0,
            metrics: Metrics::default(),
            scratch_reads: Vec::new(),
            scratch_writes: Vec::new(),
        }
    }
}

/// One buffered write: (absolute address, value, virtual processor id).
#[derive(Debug, Clone, Copy)]
struct WriteOp {
    addr: usize,
    value: Word,
    proc: usize,
}

/// One logged read: (absolute address, virtual processor id).
#[derive(Debug, Clone, Copy)]
struct ReadOp {
    addr: usize,
    proc: usize,
}

/// The simulated machine. See the crate-level documentation for the model.
#[derive(Debug)]
pub struct Pram {
    mode: Mode,
    processors: usize,
    strict: bool,
    memory: Vec<Word>,
    arrays: u32,
    metrics: Metrics,
    // Reused between steps to avoid reallocating the logs on every call.
    scratch_reads: Vec<ReadOp>,
    scratch_writes: Vec<WriteOp>,
}

impl Pram {
    /// Creates a machine with default (permissive) violation handling.
    pub fn new(mode: Mode, processors: usize) -> Self {
        PramBuilder::new(mode, processors).build()
    }

    /// Creates a machine that panics on the first access violation.
    pub fn strict(mode: Mode, processors: usize) -> Self {
        PramBuilder::new(mode, processors).strict(true).build()
    }

    /// The simulated model variant.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The physical processor count used for Brent scheduling.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Accumulated counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consumes the machine and returns its counters.
    pub fn into_metrics(self) -> Metrics {
        self.metrics
    }

    /// Records a named phase boundary; [`Metrics::phase_report`] later splits
    /// the step, work and violation counters at these marks.
    pub fn phase(&mut self, name: &str) {
        let m = &mut self.metrics;
        m.phase_marks
            .push((name.to_string(), m.steps, m.work, m.violation_total));
    }

    /// Allocates a zero-initialised region of `len` cells.
    ///
    /// Allocation is host-side bookkeeping (building the input/output layout)
    /// and is not charged as PRAM time.
    pub fn alloc(&mut self, len: usize) -> ArrayHandle {
        let offset = self.memory.len();
        self.memory.resize(offset + len, 0);
        let id = self.arrays;
        self.arrays += 1;
        self.metrics.cells_allocated = self.memory.len();
        self.metrics.peak_cells = self.metrics.peak_cells.max(self.memory.len());
        ArrayHandle { id, offset, len }
    }

    /// Allocates a region initialised with `data` (host-side input loading).
    pub fn alloc_from(&mut self, data: &[Word]) -> ArrayHandle {
        let h = self.alloc(data.len());
        self.memory[h.offset..h.offset + data.len()].copy_from_slice(data);
        h
    }

    /// Allocates a region initialised from any iterator of words.
    pub fn alloc_from_iter<I: IntoIterator<Item = Word>>(&mut self, iter: I) -> ArrayHandle {
        let data: Vec<Word> = iter.into_iter().collect();
        self.alloc_from(&data)
    }

    /// Host-side readback of a whole region (free; used to extract results).
    pub fn snapshot(&self, h: ArrayHandle) -> Vec<Word> {
        self.memory[h.offset..h.offset + h.len].to_vec()
    }

    /// Host-side readback of a single cell (free; used to extract results).
    pub fn peek(&self, h: ArrayHandle, idx: usize) -> Word {
        self.memory[h.address(idx)]
    }

    /// Host-side write of a single cell (free; used to load inputs).
    pub fn poke(&mut self, h: ArrayHandle, idx: usize, value: Word) {
        let addr = h.address(idx);
        self.memory[addr] = value;
    }

    /// Executes one synchronous PRAM instruction on `m` virtual processors.
    ///
    /// The closure is invoked once per virtual processor with a [`ProcCtx`]
    /// through which all shared-memory accesses must go. Reads observe the
    /// memory contents from before the step; writes are committed after every
    /// virtual processor has run. Time charged: `ceil(m / p) * c`, work
    /// charged: `m * c`, where `c` is the maximum number of accesses (plus
    /// explicit [`ProcCtx::charge`]s) any single virtual processor performed,
    /// never less than one.
    pub fn parallel_for<F>(&mut self, m: usize, mut body: F)
    where
        F: FnMut(&mut ProcCtx<'_>, usize),
    {
        if m == 0 {
            return;
        }
        let mut reads = std::mem::take(&mut self.scratch_reads);
        let mut writes = std::mem::take(&mut self.scratch_writes);
        reads.clear();
        writes.clear();

        let mut max_ops: u64 = 1;
        let mut total_ops: u64 = 0;
        for proc in 0..m {
            let mut ctx = ProcCtx {
                memory: &self.memory,
                reads: &mut reads,
                writes: &mut writes,
                proc,
                ops: 0,
            };
            body(&mut ctx, proc);
            let ops = ctx.ops.max(1);
            max_ops = max_ops.max(ops);
            total_ops += ops;
        }

        // Accounting: time follows Brent's principle (the slowest virtual
        // processor bounds every round), work counts the instructions that
        // were actually executed.
        let rounds = (m as u64).div_ceil(self.processors as u64);
        self.metrics.steps += rounds * max_ops;
        self.metrics.work += total_ops;
        self.metrics.instructions += 1;
        self.metrics.reads += reads.len() as u64;
        self.metrics.writes += writes.len() as u64;

        // Conflict detection.
        let step_index = self.metrics.instructions - 1;
        self.detect_conflicts(step_index, &mut reads, &mut writes);

        // Commit writes. For exclusive-write models every address appears at
        // most once (otherwise a violation was recorded and the first write
        // in processor order wins deterministically). For CRCW the policy
        // decides.
        writes.sort_by_key(|w| (w.addr, w.proc));
        let mut i = 0;
        while i < writes.len() {
            let mut j = i + 1;
            while j < writes.len() && writes[j].addr == writes[i].addr {
                j += 1;
            }
            let winner = match self.mode {
                Mode::Crcw(WritePolicy::Arbitrary) => writes[j - 1],
                // Priority: the lowest-numbered processor wins. Exclusive
                // write models also take the first in processor order, which
                // only matters after a violation was already flagged.
                _ => writes[i],
            };
            self.memory[winner.addr] = winner.value;
            i = j;
        }

        self.scratch_reads = reads;
        self.scratch_writes = writes;
    }

    /// Charges `m` virtual processors `ops` instructions each, without
    /// computing anything: one round in which every processor is charged
    /// `ops - 1` operations and writes one cell of a fresh scratch array.
    /// Kernels use it for per-element glue whose data movement happens
    /// host-side. `m = 0` costs nothing.
    pub fn charge_round(&mut self, m: usize, ops: u64) {
        if m == 0 {
            return;
        }
        let scratch = self.alloc(m);
        self.parallel_for(m, |ctx, i| {
            ctx.charge(ops.saturating_sub(1));
            ctx.write(scratch, i, 1);
        });
    }

    fn detect_conflicts(&mut self, step_index: u64, reads: &mut [ReadOp], writes: &mut [WriteOp]) {
        let mut violations: Vec<Violation> = Vec::new();

        // Write/write conflicts.
        writes.sort_by_key(|w| (w.addr, w.proc));
        for pair in writes.windows(2) {
            if pair[0].addr == pair[1].addr && pair[0].proc != pair[1].proc {
                match self.mode {
                    Mode::Erew | Mode::Crew => violations.push(Violation {
                        kind: ViolationKind::ConcurrentWrite,
                        step_index,
                        address: pair[0].addr,
                        processors: (pair[0].proc, pair[1].proc),
                    }),
                    Mode::Crcw(WritePolicy::Common) => {
                        if pair[0].value != pair[1].value {
                            violations.push(Violation {
                                kind: ViolationKind::CommonValueMismatch,
                                step_index,
                                address: pair[0].addr,
                                processors: (pair[0].proc, pair[1].proc),
                            });
                        }
                    }
                    Mode::Crcw(_) => {}
                }
            }
        }

        // Read/read conflicts (EREW only).
        if !self.mode.allows_concurrent_reads() {
            reads.sort_by_key(|r| (r.addr, r.proc));
            for pair in reads.windows(2) {
                if pair[0].addr == pair[1].addr && pair[0].proc != pair[1].proc {
                    violations.push(Violation {
                        kind: ViolationKind::ConcurrentRead,
                        step_index,
                        address: pair[0].addr,
                        processors: (pair[0].proc, pair[1].proc),
                    });
                }
            }
            // Read/write clashes between distinct processors (EREW only):
            // JaJa's formulation forbids any simultaneous access to a cell.
            let mut wi = 0usize;
            for r in reads.iter() {
                while wi < writes.len() && writes[wi].addr < r.addr {
                    wi += 1;
                }
                let mut k = wi;
                while k < writes.len() && writes[k].addr == r.addr {
                    if writes[k].proc != r.proc {
                        violations.push(Violation {
                            kind: ViolationKind::ReadWriteClash,
                            step_index,
                            address: r.addr,
                            processors: (r.proc, writes[k].proc),
                        });
                        break;
                    }
                    k += 1;
                }
            }
        }

        if self.strict {
            if let Some(v) = violations.first() {
                panic!(
                    "PRAM access violation in {} mode at instruction {}: {:?} at address {} by processors {:?}",
                    self.mode, v.step_index, v.kind, v.address, v.processors
                );
            }
        }
        // Count every violation, but keep only a sample of them.
        self.metrics.violation_total += violations.len() as u64;
        let room = Metrics::VIOLATION_SAMPLE.saturating_sub(self.metrics.violations.len());
        self.metrics
            .violations
            .extend(violations.into_iter().take(room));
    }
}

/// Per-virtual-processor access context handed to the body of
/// [`Pram::parallel_for`].
#[derive(Debug)]
pub struct ProcCtx<'a> {
    memory: &'a [Word],
    reads: &'a mut Vec<ReadOp>,
    writes: &'a mut Vec<WriteOp>,
    proc: usize,
    ops: u64,
}

impl ProcCtx<'_> {
    /// The virtual processor index (`0..m`).
    pub fn processor(&self) -> usize {
        self.proc
    }

    /// Reads one cell; observes the pre-step snapshot.
    pub fn read(&mut self, h: ArrayHandle, idx: usize) -> Word {
        let addr = h.address(idx);
        self.reads.push(ReadOp {
            addr,
            proc: self.proc,
        });
        self.ops += 1;
        self.memory[addr]
    }

    /// Buffers a write to one cell; committed when the step ends.
    pub fn write(&mut self, h: ArrayHandle, idx: usize, value: Word) {
        let addr = h.address(idx);
        self.writes.push(WriteOp {
            addr,
            value,
            proc: self.proc,
        });
        self.ops += 1;
    }

    /// Charges `ops` extra units of local computation to this processor for
    /// honest accounting of non-trivial constant factors.
    pub fn charge(&mut self, ops: u64) {
        self.ops += ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_map_step() {
        let mut pram = Pram::new(Mode::Erew, 4);
        let xs = pram.alloc_from(&[1, 2, 3, 4]);
        let ys = pram.alloc(4);
        pram.parallel_for(4, |ctx, i| {
            let v = ctx.read(xs, i);
            ctx.write(ys, i, v * 10);
        });
        assert_eq!(pram.snapshot(ys), vec![10, 20, 30, 40]);
        assert_eq!(pram.metrics().instructions, 1);
        assert_eq!(pram.metrics().reads, 4);
        assert_eq!(pram.metrics().writes, 4);
        // 4 virtual on 4 physical, 2 accesses each -> 2 steps, 8 work.
        assert_eq!(pram.metrics().steps, 2);
        assert_eq!(pram.metrics().work, 8);
        assert!(pram.metrics().is_clean());
    }

    #[test]
    fn reads_see_pre_step_values() {
        // Classic synchronous swap: every processor reads its neighbour's
        // value and writes it to its own slot; the result must be the
        // pre-step values, not a sequential in-place propagation.
        let mut pram = Pram::new(Mode::Erew, 8);
        let xs = pram.alloc_from(&[1, 2, 3, 4, 5, 6, 7, 8]);
        pram.parallel_for(8, |ctx, i| {
            let v = ctx.read(xs, (i + 1) % 8);
            ctx.write(xs, i, v);
        });
        assert_eq!(pram.snapshot(xs), vec![2, 3, 4, 5, 6, 7, 8, 1]);
        // Shift is EREW-clean: every cell is read once and written once, by
        // different processors but in different phases... no wait: cell i+1 is
        // read by processor i and written by processor i+1 -> a read/write
        // clash under the strict JaJa EREW rule.
        assert!(!pram.metrics().is_clean());
        assert!(pram
            .metrics()
            .violations
            .iter()
            .all(|v| v.kind == ViolationKind::ReadWriteClash));
    }

    #[test]
    fn brent_scheduling_charges_rounds() {
        let mut pram = Pram::new(Mode::Erew, 2);
        let xs = pram.alloc(10);
        pram.parallel_for(10, |ctx, i| {
            ctx.write(xs, i, i as Word);
        });
        // 10 virtual processors on 2 physical: 5 rounds, 1 access each.
        assert_eq!(pram.metrics().steps, 5);
        assert_eq!(pram.metrics().work, 10);
    }

    #[test]
    fn max_ops_scales_charge() {
        let mut pram = Pram::new(Mode::Erew, 4);
        let xs = pram.alloc(4);
        pram.parallel_for(4, |ctx, i| {
            // Processor 3 performs 3 accesses; the whole step is charged for
            // the slowest processor.
            ctx.write(xs, i, 1);
            if i == 3 {
                ctx.charge(2);
            }
        });
        assert_eq!(pram.metrics().steps, 3);
        assert_eq!(pram.metrics().work, 6);
    }

    #[test]
    fn erew_detects_concurrent_reads() {
        let mut pram = Pram::new(Mode::Erew, 4);
        let xs = pram.alloc_from(&[7]);
        let ys = pram.alloc(4);
        pram.parallel_for(4, |ctx, i| {
            let v = ctx.read(xs, 0);
            ctx.write(ys, i, v);
        });
        assert!(!pram.metrics().is_clean());
        assert!(pram
            .metrics()
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::ConcurrentRead));
    }

    #[test]
    fn violations_past_the_sample_are_counted() {
        let mut pram = Pram::new(Mode::Erew, 4);
        let cell = pram.alloc(1);
        let m = Metrics::VIOLATION_SAMPLE + 100;
        pram.parallel_for(m, |ctx, _| {
            ctx.read(cell, 0);
        });
        // Each adjacent pair of the m readers is one concurrent read.
        assert_eq!(pram.metrics().violation_total, m as u64 - 1);
        assert_eq!(pram.metrics().violations.len(), Metrics::VIOLATION_SAMPLE);
        assert!(!pram.metrics().is_clean());
    }

    #[test]
    fn crew_allows_concurrent_reads_but_not_writes() {
        let mut pram = Pram::new(Mode::Crew, 4);
        let xs = pram.alloc_from(&[7]);
        let ys = pram.alloc(4);
        pram.parallel_for(4, |ctx, i| {
            let v = ctx.read(xs, 0);
            ctx.write(ys, i, v);
        });
        assert!(pram.metrics().is_clean());

        let zs = pram.alloc(1);
        pram.parallel_for(4, |ctx, i| {
            ctx.write(zs, 0, i as Word);
        });
        assert!(!pram.metrics().is_clean());
        assert!(pram
            .metrics()
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::ConcurrentWrite));
    }

    #[test]
    fn crcw_common_checks_values() {
        let mut pram = Pram::new(Mode::Crcw(WritePolicy::Common), 4);
        let xs = pram.alloc(1);
        pram.parallel_for(4, |ctx, _| {
            ctx.write(xs, 0, 1);
        });
        assert!(pram.metrics().is_clean());
        pram.parallel_for(4, |ctx, i| {
            ctx.write(xs, 0, i as Word);
        });
        assert!(!pram.metrics().is_clean());
    }

    #[test]
    fn crcw_priority_lowest_processor_wins() {
        let mut pram = Pram::new(Mode::Crcw(WritePolicy::Priority), 4);
        let xs = pram.alloc(1);
        pram.parallel_for(4, |ctx, i| {
            ctx.write(xs, 0, (i + 10) as Word);
        });
        assert_eq!(pram.peek(xs, 0), 10);
        assert!(pram.metrics().is_clean());
    }

    #[test]
    fn crcw_arbitrary_is_deterministic() {
        let run = || {
            let mut pram = Pram::new(Mode::Crcw(WritePolicy::Arbitrary), 4);
            let xs = pram.alloc(1);
            pram.parallel_for(4, |ctx, i| {
                ctx.write(xs, 0, i as Word);
            });
            pram.peek(xs, 0)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "PRAM access violation")]
    fn strict_mode_panics_on_violation() {
        let mut pram = Pram::strict(Mode::Erew, 4);
        let xs = pram.alloc_from(&[7]);
        let ys = pram.alloc(4);
        pram.parallel_for(4, |ctx, i| {
            let v = ctx.read(xs, 0);
            ctx.write(ys, i, v);
        });
    }

    #[test]
    fn same_processor_may_touch_a_cell_twice() {
        let mut pram = Pram::strict(Mode::Erew, 1);
        let xs = pram.alloc(1);
        pram.parallel_for(1, |ctx, _| {
            let v = ctx.read(xs, 0);
            ctx.write(xs, 0, v + 1);
        });
        assert_eq!(pram.peek(xs, 0), 1);
        assert!(pram.metrics().is_clean());
    }

    #[test]
    fn alloc_accounting() {
        let mut pram = Pram::new(Mode::Erew, 1);
        let a = pram.alloc(10);
        let b = pram.alloc(6);
        assert_eq!(pram.metrics().cells_allocated, 16);
        assert_eq!(pram.metrics().peak_cells, 16);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn poke_and_peek_roundtrip() {
        let mut pram = Pram::new(Mode::Erew, 1);
        let a = pram.alloc(3);
        pram.poke(a, 2, 99);
        assert_eq!(pram.peek(a, 2), 99);
        assert_eq!(pram.snapshot(a), vec![0, 0, 99]);
    }

    #[test]
    fn alloc_from_iter_collects() {
        let mut pram = Pram::new(Mode::Erew, 1);
        let a = pram.alloc_from_iter((0..5).map(|x| x * x));
        assert_eq!(pram.snapshot(a), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn empty_parallel_for_is_free() {
        let mut pram = Pram::new(Mode::Erew, 4);
        pram.parallel_for(0, |_ctx, _i| unreachable!("no processors"));
        assert_eq!(pram.metrics().steps, 0);
        assert_eq!(pram.metrics().instructions, 0);
    }

    #[test]
    fn phases_split_counters() {
        let mut pram = Pram::new(Mode::Erew, 4);
        let a = pram.alloc(8);
        pram.phase("fill");
        pram.parallel_for(8, |ctx, i| ctx.write(a, i, 1));
        pram.phase("half");
        pram.parallel_for(4, |ctx, i| ctx.write(a, i, 2));
        let report = pram.metrics().phase_report();
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].name, "fill");
        assert!(report[0].steps > 0);
        assert_eq!(report[1].name, "half");
        assert!(report[1].steps > 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let mut pram = Pram::new(Mode::Erew, 1);
        let a = pram.alloc(2);
        pram.parallel_for(1, |ctx, _| {
            ctx.read(a, 5);
        });
    }
}
