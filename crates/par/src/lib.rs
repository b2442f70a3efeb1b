//! `fj-par` — deterministic sharded execution for fleet-scale workloads.
//!
//! The paper's dataset is 107 routers polled every 5 minutes for 10
//! months; the reproduction's ambition (ROADMAP north star, the multi-AS
//! scaling of Chen et al.) is thousands. Ticking and polling routers is
//! embarrassingly parallel — each router owns its simulator, PSU sensors,
//! and health ladder — but naive parallelism would wreck the FJ01
//! determinism contract: results must be a pure function of seeds and the
//! sim clock, never of thread scheduling.
//!
//! This crate provides the one audited concurrency seam of the workspace:
//! a persistent [`WorkerPool`] whose threads are spawned once and parked
//! on channels between dispatches (see `pool.rs` for the ownership
//! ping-pong design). [`WorkerPool::for_shards`] sizes it for a shard
//! count: at one shard it spawns no threads and runs every dispatch
//! inline on the calling thread, so the single-shard fast path and the
//! parallel path are one code path.
//!
//! The pool splits an **indexed** workload into contiguous shards and
//! reduces the per-item results in **stable index order**. Whatever the
//! shard or worker count, the returned vector is element-for-element
//! identical to the sequential map; threads only decide *when* each item
//! runs, never *what* the caller observes. Callers keep cross-item
//! effects (telemetry, floating-point accumulation) out of the parallel
//! closure and apply them during their own in-order reduction — see
//! `fj_isp::trace` for the canonical pattern.
//!
//! Zero dependencies, no unsafe, no locks, no atomics: workers receive
//! owned shards over [`std::sync::mpsc`] channels and hand them back the
//! same way. Panics are captured per item, with the lowest panicking
//! shard winning deterministically.

use std::num::NonZeroUsize;
use std::ops::Range;

mod pool;

pub use pool::{Completed, Pending, WorkerPool};

/// Environment variable overriding the default shard count.
pub const SHARDS_ENV: &str = "FJ_SHARDS";

/// Worker threads the host can run without oversubscription.
pub fn available_shards() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// The default shard count: `FJ_SHARDS` when set to a positive integer,
/// otherwise [`available_shards`]. Because every sharded entry point is
/// deterministic in its shard count, the override tunes throughput only —
/// it can never change a result.
pub fn shard_count() -> usize {
    if let Ok(v) = std::env::var(SHARDS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    available_shards()
}

/// Clamps a requested shard count to `min(cores, requested)`, at least 1 —
/// the worker count the pool actually spawns for host-sized defaults.
pub fn clamp_shards(requested: usize) -> usize {
    requested.clamp(1, available_shards().max(1))
}

/// Contiguous, balanced index ranges covering `0..len` with at most
/// `shards` non-empty entries. Earlier ranges are never shorter than
/// later ones; concatenated in order they enumerate `0..len` exactly.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.clamp(1, len.max(1));
    let base = len / shards;
    let extra = len % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let size = base + usize::from(s < extra);
        if size == 0 {
            break;
        }
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// A captured worker panic: which shard failed, and the original payload.
///
/// Observability hooks (the flight recorder) inspect the shard index and
/// then [`ShardPanic::resume`] so the panic still reaches the caller
/// exactly as a sequential run's would.
pub struct ShardPanic {
    /// Index of the shard whose item panicked.
    pub shard: usize,
    /// The payload the panicking item unwound with.
    pub payload: Box<dyn std::any::Any + Send + 'static>,
}

impl ShardPanic {
    /// Re-raises the captured panic on the calling thread.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for ShardPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPanic")
            .field("shard", &self.shard)
            .finish_non_exhaustive()
    }
}

/// Utilization of a single shard in one profiled pool dispatch.
///
/// The three duration fields partition the dispatch's wall interval as
/// seen by this shard: `spawn_wait_us` (dispatch entry → the shard's
/// first item), `busy_us` (the shard's item loop), and `join_wait_us`
/// (the shard's last item → [`Pending::wait`] returning, i.e. time spent
/// waiting for sibling shards). By construction
/// `spawn_wait_us + busy_us + join_wait_us == ShardStats::wall_us` up to
/// clock granularity — the invariant the fj-obs proptests pin down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Shard index this entry describes.
    pub shard: usize,
    /// Items the worker mapped.
    pub items: u64,
    /// Clock ticks between call entry and the worker starting.
    pub spawn_wait_us: u64,
    /// Clock ticks the worker spent inside its item loop.
    pub busy_us: u64,
    /// Clock ticks between the worker finishing and the call returning.
    pub join_wait_us: u64,
}

/// Utilization of one whole profiled pool dispatch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Clock ticks from dispatch entry to [`Pending::wait`] returning.
    pub wall_us: u64,
    /// One entry per shard, in shard order — at least one, even for an
    /// empty dispatch.
    pub workers: Vec<WorkerStats>,
}

impl ShardStats {
    /// Worker count that actually ran (≤ the requested shard count).
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// Total busy time across workers.
    pub fn busy_us(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_us).sum()
    }

    /// Busy time of the slowest worker — the parallel critical path.
    pub fn max_busy_us(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_us).max().unwrap_or(0)
    }

    /// Offset from call entry to the *last* worker finishing its item
    /// loop: `max(spawn_wait + busy)`. For a pipelined pool dispatch
    /// this is when the simulate phase truly ended, which the engine's
    /// merge-overlap accounting needs.
    pub fn critical_end_us(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.spawn_wait_us + w.busy_us)
            .max()
            .unwrap_or(0)
    }

    /// Total items mapped across workers.
    pub fn items(&self) -> u64 {
        self.workers.iter().map(|w| w.items).sum()
    }

    /// Total spawn wait across workers.
    pub fn spawn_wait_us(&self) -> u64 {
        self.workers.iter().map(|w| w.spawn_wait_us).sum()
    }

    /// Total join wait across workers.
    pub fn join_wait_us(&self) -> u64 {
        self.workers.iter().map(|w| w.join_wait_us).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_exactly_once() {
        for len in [0usize, 1, 2, 7, 8, 9, 107, 1000] {
            for shards in [1usize, 2, 3, 4, 8, 200] {
                let ranges = shard_ranges(len, shards);
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                let expect: Vec<usize> = (0..len).collect();
                assert_eq!(flat, expect, "len {len} shards {shards}");
                assert!(ranges.len() <= shards.max(1));
                // Balanced: sizes differ by at most one, larger first.
                let sizes: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
                if let (Some(max), Some(min)) = (sizes.first(), sizes.last()) {
                    assert!(max - min <= 1, "unbalanced {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn shard_count_is_positive() {
        assert!(shard_count() >= 1);
        assert!(available_shards() >= 1);
        assert_eq!(clamp_shards(0), 1);
        assert!(clamp_shards(usize::MAX) >= 1);
    }
}
