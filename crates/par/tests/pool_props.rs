//! Property-based equivalence: the [`WorkerPool`] must be observationally
//! identical to the sequential map for arbitrary inputs, shard counts,
//! and worker counts — including the pool with no threads that
//! [`WorkerPool::for_shards`] builds for one shard — with the same
//! outputs in the same order, the same mutations, the same item counts.
//! This is the FJ01 contract for the executor: thread placement (how
//! shards round-robin onto workers, or whether they run inline) may only
//! ever change wall-clock time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fj_par::{shard_ranges, ShardStats, WorkerPool};
use proptest::prelude::*;

/// Runs a profiled pool dispatch over `len` items with a deterministic,
/// strictly monotonic fake clock (each read advances by one tick plus a
/// per-item cost), returning the recorded stats.
fn profiled_run(len: usize, shards: usize, item_cost: u64) -> ShardStats {
    let tick = Arc::new(AtomicU64::new(0));
    let clock = move || tick.fetch_add(1, Ordering::Relaxed);
    let burn = clock.clone();
    let items: Vec<u64> = (0..len as u64).collect();
    let done = WorkerPool::for_shards(shards)
        .submit_profiled(items, shards, clock, move |_, v| {
            // Burn deterministic clock ticks to make workers visibly busy.
            for _ in 0..item_cost {
                burn();
            }
            *v
        })
        .wait();
    assert!(done.result.is_ok(), "no panic injected");
    done.stats.expect("profiled dispatch reports stats")
}

proptest! {
    /// Pool output == sequential map, element for element, for arbitrary
    /// item vectors and shard/worker counts (0 workers = inline).
    #[test]
    fn pool_map_equals_sequential_map(
        items in proptest::collection::vec(0u64..1_000_000, 0..300),
        shards in 1usize..40,
        workers in 0usize..6,
    ) {
        let f = |i: usize, v: &mut u64| {
            *v = v.wrapping_mul(31).wrapping_add(i as u64);
            *v ^ 0x5A5A
        };

        let mut seq_items = items.clone();
        let seq_out: Vec<u64> = seq_items
            .iter_mut()
            .enumerate()
            .map(|(i, v)| f(i, v))
            .collect();

        for pool in [WorkerPool::new(workers), WorkerPool::for_shards(1)] {
            let done = pool.submit(items.clone(), shards, f).wait();
            let pool_out = done.result.expect("no panic injected");
            prop_assert_eq!(&pool_out, &seq_out);
            prop_assert_eq!(&done.items, &seq_items);
        }
    }

    /// shard_ranges always partitions 0..len exactly: contiguous,
    /// in-order, balanced within one item, never more than
    /// min(shards, len) non-empty ranges.
    #[test]
    fn shard_ranges_partition_exactly(len in 0usize..5_000, shards in 0usize..300) {
        let ranges = shard_ranges(len, shards);
        let mut expected_start = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, expected_start, "contiguous in order");
            prop_assert!(r.end > r.start, "no empty ranges emitted");
            expected_start = r.end;
        }
        prop_assert_eq!(expected_start, len, "covers 0..len exactly");
        prop_assert!(ranges.len() <= shards.max(1).min(len.max(1)));
        if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
            prop_assert!(first.len() >= last.len(), "larger shards first");
            prop_assert!(first.len() - last.len() <= 1, "balanced within one");
        }
    }

    /// A profiled pool dispatch reports stats that cover every item
    /// exactly once and satisfy the spawn+busy+join == wall partition
    /// under a strictly monotonic fake clock. An empty dispatch still
    /// reports one (empty) worker.
    #[test]
    fn profiled_pool_stats_cover_all_items(
        len in 0usize..200,
        shards in 1usize..20,
        workers in 0usize..4,
    ) {
        let tick = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&tick);
        let pool = WorkerPool::new(workers);
        let done = pool
            .submit_profiled(
                (0..len as u64).collect::<Vec<u64>>(),
                shards,
                move || t.fetch_add(1, Ordering::Relaxed),
                |i, v: &mut u64| i as u64 + *v,
            )
            .wait();
        let out = done.result.expect("no panic injected");
        prop_assert_eq!(out.len(), len);
        let stats = done.stats.expect("profiled dispatch reports stats");
        prop_assert_eq!(stats.items() as usize, len);
        prop_assert_eq!(stats.shards(), shard_ranges(len, shards).len().max(1));
        for w in &stats.workers {
            // Telescoping identity: the three segments partition the
            // dispatch wall exactly under a monotonic clock.
            prop_assert_eq!(w.spawn_wait_us + w.busy_us + w.join_wait_us, stats.wall_us);
        }
    }

    /// The accounting identity: every worker's spawn wait + busy + join
    /// wait sums to the call's measured wall time, within one clock tick
    /// per sampled stamp (the fake clock advances on every read, so the
    /// four samples taken around a worker cost at most 4 ticks of skew).
    #[test]
    fn worker_segments_sum_to_wall(
        len in 0usize..200,
        shards in 1usize..9,
        item_cost in 0u64..50,
    ) {
        let stats = profiled_run(len, shards, item_cost);
        // The inline path (≤ 1 range) still reports a single worker.
        prop_assert_eq!(stats.shards(), fj_par::shard_ranges(len, shards).len().max(1));
        prop_assert_eq!(stats.items(), len as u64);
        for w in &stats.workers {
            let accounted = w.spawn_wait_us + w.busy_us + w.join_wait_us;
            let skew = accounted.abs_diff(stats.wall_us);
            prop_assert!(
                skew <= 4,
                "shard {}: {} + {} + {} = {accounted} vs wall {} (skew {skew})",
                w.shard, w.spawn_wait_us, w.busy_us, w.join_wait_us, stats.wall_us
            );
        }
        // Total busy never exceeds the available worker-time.
        prop_assert!(stats.busy_us() <= stats.wall_us * stats.shards().max(1) as u64);
    }
}
