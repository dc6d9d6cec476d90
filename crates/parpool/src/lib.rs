//! # parpool — a round-synchronous work-stealing thread pool
//!
//! The PRAM kernels in `parprims` execute as a sequence of *rounds*: every
//! round applies the same body to `0..m` items, all reads observe the memory
//! state from before the round, and all writes become visible together when
//! the round ends. The simulator backend realises those semantics one item at
//! a time; this crate realises them across real cores.
//!
//! A [`Pool`] owns `threads - 1` persistent worker threads (the caller's
//! thread acts as worker 0). [`Pool::round`] splits the item range into
//! contiguous chunks, deals them into per-worker deques, and lets every
//! participant drain its own deque from the front while stealing from the
//! back of other deques when idle. Two reusable barriers separate the round
//! into a *compute* phase and a *finish* phase: the finish callback runs once
//! per participant after all compute chunks are done, which is where the
//! caller commits its buffered writes (the double-buffering that preserves
//! read-before-write semantics lives in the caller; the pool only guarantees
//! the phase ordering).
//!
//! Design constraints inherited from the workspace:
//!
//! * **No dependencies, no unsafe.** Everything is `std`: mutexes, condvars,
//!   atomics, `catch_unwind`.
//! * **Panic propagation.** A panicking chunk poisons the round but every
//!   participant still reaches both barriers, so the pool never deadlocks;
//!   the first payload is re-raised on the calling thread by
//!   [`Pool::round`], and the pool remains usable afterwards.
//! * **Observability.** The pool counts rounds, executed chunks and steals,
//!   and buckets barrier-wait times into a power-of-two-microsecond
//!   histogram; [`Pool::stats`] exposes them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Number of chunks each worker's share of a round is split into, so that
/// stealing has something to take without making chunks too fine.
const CHUNKS_PER_WORKER: usize = 8;

/// Smallest chunk worth dispatching; below this the per-chunk bookkeeping
/// dominates the body.
const MIN_CHUNK: usize = 256;

/// Number of power-of-two buckets in the barrier-wait histogram
/// (bucket `i` counts waits in `[2^(i-1), 2^i)` microseconds).
const WAIT_BUCKETS: usize = 32;

type Body = Arc<dyn Fn(usize, Range<usize>) + Send + Sync>;
type Finish = Arc<dyn Fn(usize) + Send + Sync>;

/// The job published to workers for one round.
#[derive(Clone)]
struct Job {
    body: Body,
    finish: Finish,
}

/// Epoch-stamped job slot workers sleep on between rounds.
struct Coord {
    epoch: u64,
    job: Option<Job>,
    shutdown: bool,
}

/// Reusable generation-counting barrier state.
struct BarrierState {
    arrived: usize,
    generation: u64,
}

struct Shared {
    threads: usize,
    coord: Mutex<Coord>,
    work_cv: Condvar,
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
    queues: Vec<Mutex<VecDeque<Range<usize>>>>,
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    rounds: AtomicU64,
    chunks: AtomicU64,
    steals: AtomicU64,
    wait_count: AtomicU64,
    wait_buckets: Vec<AtomicU64>,
}

impl Shared {
    fn new(threads: usize) -> Self {
        Shared {
            threads,
            coord: Mutex::new(Coord {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            barrier: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
            }),
            barrier_cv: Condvar::new(),
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            rounds: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            wait_count: AtomicU64::new(0),
            wait_buckets: (0..WAIT_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Pops the next chunk: own deque from the front, then a steal from the
    /// back of the fullest-looking victim.
    fn next_chunk(&self, me: usize) -> Option<Range<usize>> {
        if let Some(chunk) = self.lock(&self.queues[me]).pop_front() {
            return Some(chunk);
        }
        for offset in 1..self.threads {
            let victim = (me + offset) % self.threads;
            if let Some(chunk) = self.lock(&self.queues[victim]).pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(chunk);
            }
        }
        None
    }

    /// Runs the compute phase for one participant: drain and steal chunks,
    /// capturing any panic so the barrier is always reached.
    fn work(&self, me: usize, body: &Body) {
        while let Some(chunk) = self.next_chunk(me) {
            if self.poisoned.load(Ordering::Relaxed) {
                continue; // drain the queues but stop doing work
            }
            self.chunks.fetch_add(1, Ordering::Relaxed);
            let result = catch_unwind(AssertUnwindSafe(|| body(me, chunk)));
            if let Err(payload) = result {
                self.record_panic(payload);
            }
        }
    }

    /// Runs the finish phase for one participant (skipped when poisoned).
    fn finish(&self, me: usize, finish: &Finish) {
        if self.poisoned.load(Ordering::Relaxed) {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| finish(me))) {
            self.record_panic(payload);
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        self.poisoned.store(true, Ordering::Relaxed);
        let mut slot = self.lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Generation-based reusable barrier across all `threads` participants;
    /// the wait time of every participant feeds the histogram.
    fn barrier_wait(&self) {
        let start = Instant::now();
        let mut state = self.lock(&self.barrier);
        state.arrived += 1;
        if state.arrived == self.threads {
            state.arrived = 0;
            state.generation = state.generation.wrapping_add(1);
            self.barrier_cv.notify_all();
        } else {
            let generation = state.generation;
            while state.generation == generation {
                state = self
                    .barrier_cv
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
        drop(state);
        self.record_wait(start.elapsed().as_micros() as u64);
    }

    fn record_wait(&self, micros: u64) {
        let bucket = if micros == 0 {
            0
        } else {
            ((64 - micros.leading_zeros()) as usize).min(WAIT_BUCKETS - 1)
        };
        self.wait_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.wait_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Locks a mutex, ignoring poisoning: every critical section here leaves
    /// plain-old-data in a consistent state even when a holder panicked.
    fn lock<'a, T>(&self, mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
        mutex
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// One full round as seen by a participant thread.
    fn participate(&self, me: usize, job: &Job) {
        self.work(me, &job.body);
        self.barrier_wait();
        self.finish(me, &job.finish);
        self.barrier_wait();
    }

    fn worker_loop(&self, me: usize) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut coord = self.lock(&self.coord);
                loop {
                    if coord.shutdown {
                        return;
                    }
                    if coord.epoch != seen {
                        seen = coord.epoch;
                        break coord.job.clone().expect("epoch bumped without a job");
                    }
                    coord = self
                        .work_cv
                        .wait(coord)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            self.participate(me, &job);
        }
    }
}

/// Cumulative pool counters, plus barrier-wait quantiles derived from the
/// internal power-of-two-microsecond histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of participating threads (workers plus the calling thread).
    pub workers: usize,
    /// Rounds executed since the pool was created.
    pub rounds: u64,
    /// Chunks executed across all rounds.
    pub chunks: u64,
    /// Chunks taken from another worker's deque.
    pub steals: u64,
    /// Barrier waits recorded (two per participant per round).
    pub barrier_waits: u64,
    /// Median barrier wait, as the upper bound of its histogram bucket.
    pub barrier_wait_p50_micros: u64,
    /// 99th-percentile barrier wait, as the upper bound of its bucket.
    pub barrier_wait_p99_micros: u64,
}

/// A round-synchronous work-stealing pool; see the crate docs for the
/// execution model.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool with `threads` participants. The calling thread is one
    /// of them, so `threads - 1` OS threads are spawned; `threads` below 1 is
    /// clamped to 1, which makes every round run inline with no
    /// synchronisation at all.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared::new(threads));
        let workers = (1..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("parpool-{me}"))
                    .spawn(move || shared.worker_loop(me))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Number of participating threads (including the caller).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Runs one round: `body(worker, chunk)` over disjoint chunks covering
    /// `0..items`, a barrier, then `finish(worker)` once per participant,
    /// then a final barrier. Returns after the finish phase is globally done.
    ///
    /// # Panics
    /// Re-raises the first panic captured from `body` or `finish` on the
    /// calling thread. The pool itself stays consistent and reusable.
    pub fn round<B, F>(&mut self, items: usize, body: B, finish: F)
    where
        B: Fn(usize, Range<usize>) + Send + Sync + 'static,
        F: Fn(usize) + Send + Sync + 'static,
    {
        let shared = &self.shared;
        shared.poisoned.store(false, Ordering::Relaxed);
        *shared.lock(&shared.panic) = None;

        if self.workers.is_empty() {
            // Single-threaded fast path: no publication, no barriers.
            if items > 0 {
                shared.chunks.fetch_add(1, Ordering::Relaxed);
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                if items > 0 {
                    body(0, 0..items);
                }
                finish(0);
            }));
            shared.rounds.fetch_add(1, Ordering::Relaxed);
            if let Err(payload) = result {
                resume_unwind(payload);
            }
            return;
        }

        self.deal_chunks(items);
        let job = Job {
            body: Arc::new(body),
            finish: Arc::new(finish),
        };
        {
            let mut coord = shared.lock(&shared.coord);
            coord.epoch = coord.epoch.wrapping_add(1);
            coord.job = Some(job.clone());
            shared.work_cv.notify_all();
        }
        shared.participate(0, &job);
        shared.rounds.fetch_add(1, Ordering::Relaxed);
        shared.lock(&shared.coord).job = None;
        let payload = shared.lock(&shared.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Splits `0..items` into contiguous per-worker shares, each share into
    /// [`CHUNKS_PER_WORKER`] chunks of at least [`MIN_CHUNK`] items.
    fn deal_chunks(&self, items: usize) {
        let threads = self.shared.threads;
        let chunk = (items.div_ceil(threads * CHUNKS_PER_WORKER)).max(MIN_CHUNK);
        let share = items.div_ceil(threads);
        for (me, queue) in self.shared.queues.iter().enumerate() {
            let lo = (me * share).min(items);
            let hi = ((me + 1) * share).min(items);
            let mut queue = self.shared.lock(queue);
            debug_assert!(queue.is_empty(), "deque not drained by previous round");
            let mut start = lo;
            while start < hi {
                let end = (start + chunk).min(hi);
                queue.push_back(start..end);
                start = end;
            }
        }
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> PoolStats {
        let shared = &self.shared;
        let counts: Vec<u64> = shared
            .wait_buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            let rank = ((total as f64) * q).ceil() as u64;
            let mut seen = 0u64;
            for (i, &count) in counts.iter().enumerate() {
                seen += count;
                if seen >= rank {
                    // Bucket i covers [2^(i-1), 2^i) microseconds.
                    return if i == 0 { 1 } else { 1u64 << i };
                }
            }
            1u64 << (WAIT_BUCKETS - 1)
        };
        PoolStats {
            workers: shared.threads,
            rounds: shared.rounds.load(Ordering::Relaxed),
            chunks: shared.chunks.load(Ordering::Relaxed),
            steals: shared.steals.load(Ordering::Relaxed),
            barrier_waits: shared.wait_count.load(Ordering::Relaxed),
            barrier_wait_p50_micros: quantile(0.50),
            barrier_wait_p99_micros: quantile(0.99),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut coord = self.shared.lock(&self.shared.coord);
            coord.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Resolves a requested thread count: `None` or `Some(0)` means "use
/// [`std::thread::available_parallelism`]", clamped to `1..=64` so a typo or
/// an exotic machine cannot oversubscribe the round barrier into oblivion.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    let resolved = match requested {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    };
    resolved.clamp(1, 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    fn sum_round(pool: &mut Pool, n: usize) -> i64 {
        let acc = Arc::new(AtomicI64::new(0));
        let body_acc = Arc::clone(&acc);
        pool.round(
            n,
            move |_, range| {
                let local: i64 = range.map(|i| i as i64).sum();
                body_acc.fetch_add(local, Ordering::Relaxed);
            },
            |_| {},
        );
        acc.load(Ordering::Relaxed)
    }

    #[test]
    fn single_thread_round_covers_all_items() {
        let mut pool = Pool::new(1);
        assert_eq!(sum_round(&mut pool, 10_000), (0..10_000i64).sum());
        assert_eq!(pool.stats().rounds, 1);
    }

    #[test]
    fn multi_thread_round_covers_all_items_exactly_once() {
        let mut pool = Pool::new(4);
        for _ in 0..10 {
            let n = 100_000;
            let hits: Arc<Vec<AtomicI64>> = Arc::new((0..n).map(|_| AtomicI64::new(0)).collect());
            let body_hits = Arc::clone(&hits);
            pool.round(
                n,
                move |_, range| {
                    for i in range {
                        body_hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                },
                |_| {},
            );
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
        assert_eq!(pool.stats().rounds, 10);
    }

    #[test]
    fn finish_runs_after_all_compute() {
        // The finish phase must observe every compute write: compute bumps a
        // counter, finish (on one designated worker) snapshots it.
        let mut pool = Pool::new(4);
        let count = Arc::new(AtomicI64::new(0));
        let seen = Arc::new(AtomicI64::new(-1));
        let body_count = Arc::clone(&count);
        let fin_count = Arc::clone(&count);
        let fin_seen = Arc::clone(&seen);
        let n = 50_000;
        pool.round(
            n,
            move |_, range| {
                for _ in range {
                    body_count.fetch_add(1, Ordering::Relaxed);
                }
            },
            move |me| {
                if me == 0 {
                    fin_seen.store(fin_count.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            },
        );
        assert_eq!(seen.load(Ordering::Relaxed), n as i64);
    }

    #[test]
    fn uneven_work_triggers_steals() {
        let mut pool = Pool::new(4);
        // Worker 0 owns the expensive low indices; everyone else finishes
        // fast and must steal to keep busy.
        for _ in 0..20 {
            pool.round(
                100_000,
                |_, range| {
                    for i in range {
                        if i < 25_000 {
                            std::hint::black_box((0..200).sum::<u64>());
                        }
                    }
                },
                |_| {},
            );
        }
        // Stealing is probabilistic scheduling, but 20 skewed rounds on 4
        // threads virtually always produce at least one steal.
        assert!(pool.stats().steals > 0, "stats: {:?}", pool.stats());
    }

    #[test]
    fn panic_in_body_propagates_and_pool_survives() {
        let mut pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.round(
                10_000,
                |_, range| {
                    for i in range {
                        assert!(i != 7_777, "injected failure");
                    }
                },
                |_| {},
            );
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The barrier must not be wedged: the pool still runs rounds.
        assert_eq!(sum_round(&mut pool, 1_000), (0..1_000i64).sum());
    }

    #[test]
    fn panic_in_finish_propagates() {
        let mut pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.round(100, |_, _| {}, |_| panic!("finish failure"));
        }));
        assert!(result.is_err());
        assert_eq!(sum_round(&mut pool, 100), (0..100i64).sum());
    }

    #[test]
    fn zero_items_still_runs_finish() {
        let mut pool = Pool::new(2);
        let ran = Arc::new(AtomicI64::new(0));
        let fin = Arc::clone(&ran);
        pool.round(
            0,
            |_, _| {},
            move |_| {
                fin.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(
            ran.load(Ordering::Relaxed),
            2,
            "finish runs per participant"
        );
    }

    #[test]
    fn resolve_threads_clamps() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(1_000)), 64);
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(Some(0)) >= 1);
    }

    #[test]
    fn stats_track_waits() {
        let mut pool = Pool::new(2);
        sum_round(&mut pool, 10_000);
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        // Two barriers per participant per round — but a worker records its
        // wait *after* the barrier releases, so it can lag behind this
        // thread's return from round(); poll briefly instead of asserting a
        // racy instantaneous value.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let waits = loop {
            let waits = pool.stats().barrier_waits;
            if waits == 4 || std::time::Instant::now() > deadline {
                break waits;
            }
            std::thread::yield_now();
        };
        assert_eq!(waits, 4);
        let stats = pool.stats();
        assert!(stats.barrier_wait_p50_micros <= stats.barrier_wait_p99_micros);
    }
}
