//! # parpool — the retired thread-pool surface
//!
//! This crate once held a round-synchronous work-stealing pool that ran the
//! PRAM kernels across real cores. It lost to the sequential fold at every
//! size measured, so the kernels now run only on the `pram` simulator. What
//! remains is the surface the benchmark's traced replay (`perfbench`)
//! compiles against: [`Pool::new`] and [`resolve_threads`]. The replay never
//! calls them, because the engine's `parallel_min_vertices` is `0`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A pool with no worker threads. Kept, empty, because the benchmark's
/// traced replay (`perfbench`) still names it.
#[derive(Debug)]
pub struct Pool;

impl Pool {
    /// Returns the empty pool; the thread count is ignored.
    pub fn new(_threads: usize) -> Self {
        Pool
    }
}

/// Resolves a requested thread count: `None` or `Some(0)` means "use
/// [`std::thread::available_parallelism`]", clamped to `1..=64`.
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

    #[test]
    fn resolve_threads_clamps() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(1_000)), 64);
        assert!(resolve_threads(None) >= 1);
        assert!(resolve_threads(Some(0)) >= 1);
    }
}
