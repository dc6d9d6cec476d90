//! Time, work and conflict accounting.

use crate::mode::Mode;
use serde::{Deserialize, Serialize};

/// The kind of access-discipline violation that was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// Two distinct processors read the same cell in one step on an EREW PRAM.
    ConcurrentRead,
    /// Two distinct processors wrote the same cell in one step on an EREW or
    /// CREW PRAM.
    ConcurrentWrite,
    /// One processor read a cell another processor wrote in the same step on
    /// an EREW PRAM.
    ReadWriteClash,
    /// CRCW-Common processors wrote different values to the same cell.
    CommonValueMismatch,
}

/// A recorded access-discipline violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// The index of the offending `parallel_for` call (0-based).
    pub step_index: u64,
    /// The absolute shared-memory address involved.
    pub address: usize,
    /// Two of the virtual processors involved.
    pub processors: (usize, usize),
}

/// Per-phase accounting snapshot produced by [`Metrics::phase_report`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Phase label given to [`crate::Pram::phase`].
    pub name: String,
    /// Parallel time steps spent in the phase.
    pub steps: u64,
    /// Work (processor-instructions) spent in the phase.
    pub work: u64,
    /// Access-discipline violations detected in the phase.
    pub violations: u64,
}

/// Aggregate counters for one simulated execution.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Parallel time: sum over `parallel_for` calls of
    /// `ceil(m / p) * max_accesses_per_processor`.
    pub steps: u64,
    /// Work: total shared-memory accesses plus explicit charges actually
    /// executed across all virtual processors (the work-time framework's
    /// notion of work; `processors * steps` is an upper bound on it by
    /// Brent's principle).
    pub work: u64,
    /// Total shared-memory reads issued.
    pub reads: u64,
    /// Total shared-memory writes issued.
    pub writes: u64,
    /// Number of `parallel_for` invocations (logical PRAM instructions).
    pub instructions: u64,
    /// Cells currently allocated.
    pub cells_allocated: usize,
    /// High-water mark of allocated cells.
    pub peak_cells: usize,
    /// A sample of the detected violations of the access discipline: the
    /// first [`Metrics::VIOLATION_SAMPLE`], in detection order.
    pub violations: Vec<Violation>,
    /// Number of detected violations, including those past the sample.
    pub violation_total: u64,
    /// Phase boundaries: (label, steps, work and violation total at the
    /// boundary).
    pub(crate) phase_marks: Vec<(String, u64, u64, u64)>,
}

impl Metrics {
    /// How many violations [`Metrics::violations`] keeps, so a massively
    /// faulty run does not exhaust memory; [`Metrics::violation_total`]
    /// counts them all.
    pub const VIOLATION_SAMPLE: usize = 1024;

    /// `true` when no access-discipline violation was detected.
    pub fn is_clean(&self) -> bool {
        self.violation_total == 0
    }

    /// Work divided by input size — the quantity that must stay bounded for a
    /// work-optimal algorithm.
    pub fn work_per_item(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.work as f64 / n as f64
        }
    }

    /// Steps divided by `log2(n)` — the quantity that must stay bounded for a
    /// time-optimal `O(log n)` algorithm.
    pub fn steps_per_log(&self, n: usize) -> f64 {
        if n < 2 {
            self.steps as f64
        } else {
            self.steps as f64 / (n as f64).log2()
        }
    }

    /// Splits the counters at the recorded phase marks. A mark labels the
    /// segment that *follows* it (up to the next mark or the end of the
    /// execution); anything before the first mark is reported as
    /// `(preamble)`.
    pub fn phase_report(&self) -> Vec<PhaseReport> {
        let end = (self.steps, self.work, self.violation_total);
        let mut out = Vec::new();
        let (steps, work, violations) = self
            .phase_marks
            .first()
            .map_or(end, |&(_, s, w, v)| (s, w, v));
        if steps > 0 || work > 0 {
            out.push(PhaseReport {
                name: "(preamble)".to_string(),
                steps,
                work,
                violations,
            });
        }
        for (i, (name, steps, work, violations)) in self.phase_marks.iter().enumerate() {
            let (end_steps, end_work, end_violations) = self
                .phase_marks
                .get(i + 1)
                .map_or(end, |&(_, s, w, v)| (s, w, v));
            out.push(PhaseReport {
                name: name.clone(),
                steps: end_steps - steps,
                work: end_work - work,
                violations: end_violations - violations,
            });
        }
        out
    }

    /// Human-readable one-line summary, used by the experiment driver.
    pub fn summary(&self, mode: Mode, processors: usize) -> String {
        format!(
            "{mode} p={processors}: steps={} work={} reads={} writes={} violations={}",
            self.steps, self.work, self.reads, self.writes, self.violation_total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let m = Metrics {
            steps: 30,
            work: 4000,
            ..Default::default()
        };
        assert!((m.work_per_item(1000) - 4.0).abs() < 1e-9);
        assert!((m.steps_per_log(1024) - 3.0).abs() < 1e-9);
        assert_eq!(m.work_per_item(0), 0.0);
        assert_eq!(m.steps_per_log(1), 30.0);
    }

    #[test]
    fn phase_report_deltas() {
        let m = Metrics {
            steps: 10,
            work: 100,
            violation_total: 5,
            phase_marks: vec![("a".into(), 4, 40, 1), ("b".into(), 9, 90, 3)],
            ..Default::default()
        };
        let report = m.phase_report();
        assert_eq!(report.len(), 3);
        assert_eq!(
            report[0],
            PhaseReport {
                name: "(preamble)".into(),
                steps: 4,
                work: 40,
                violations: 1,
            }
        );
        assert_eq!(
            report[1],
            PhaseReport {
                name: "a".into(),
                steps: 5,
                work: 50,
                violations: 2,
            }
        );
        assert_eq!(
            report[2],
            PhaseReport {
                name: "b".into(),
                steps: 1,
                work: 10,
                violations: 2,
            }
        );
    }

    #[test]
    fn phase_report_without_marks() {
        let m = Metrics {
            steps: 3,
            work: 9,
            ..Default::default()
        };
        let report = m.phase_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].name, "(preamble)");
    }

    #[test]
    fn clean_and_summary() {
        let m = Metrics::default();
        assert!(m.is_clean());
        let s = m.summary(Mode::Erew, 4);
        assert!(s.contains("EREW"));
        assert!(s.contains("p=4"));
    }
}
