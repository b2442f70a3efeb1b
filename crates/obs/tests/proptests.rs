//! Property-based tests for the utilization accounting and the
//! efficiency report invariants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fj_obs::EfficiencyAccumulator;
use fj_par::{ShardStats, WorkerPool, WorkerStats};
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

fn arb_worker() -> impl Strategy<Value = (u64, u64, u64, u64)> {
    // (items, spawn_wait, busy, join_wait) in microseconds.
    (0u64..1000, 0u64..10_000, 0u64..1_000_000, 0u64..10_000)
}

proptest! {
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

    /// Report invariants hold for arbitrary folded stats: efficiency and
    /// the fractions stay in [0, 1], imbalance ≥ 1, and the Amdahl
    /// ceiling stays between 1 and the shard count.
    #[test]
    fn report_invariants(
        chunks in prop::collection::vec(
            (prop::collection::vec(arb_worker(), 1..8), 0u64..50_000),
            1..12,
        ),
    ) {
        let mut acc = EfficiencyAccumulator::default();
        let mut wall_total = 0u64;
        for (workers, merge_us) in &chunks {
            let workers: Vec<WorkerStats> = workers
                .iter()
                .enumerate()
                .map(|(shard, &(items, spawn_wait_us, busy_us, join_wait_us))| WorkerStats {
                    shard,
                    items,
                    spawn_wait_us,
                    busy_us,
                    join_wait_us,
                })
                .collect();
            let wall_us = workers
                .iter()
                .map(|w| w.spawn_wait_us + w.busy_us + w.join_wait_us)
                .max()
                .unwrap_or(0);
            wall_total += wall_us + merge_us;
            acc.record_chunk(&ShardStats { wall_us, workers }, *merge_us);
        }
        let r = acc.report(wall_total);
        prop_assert_eq!(r.chunks, chunks.len() as u64);
        prop_assert!((0.0..=1.0).contains(&r.efficiency), "efficiency {}", r.efficiency);
        prop_assert!((0.0..=1.0).contains(&r.merge_fraction), "merge {}", r.merge_fraction);
        prop_assert!((0.0..=1.0).contains(&r.serial_fraction), "serial {}", r.serial_fraction);
        prop_assert!(r.imbalance >= 1.0, "imbalance {}", r.imbalance);
        prop_assert!(
            r.amdahl_ceiling >= 1.0 - 1e-9 && r.amdahl_ceiling <= r.shards as f64 + 1e-9,
            "ceiling {} for {} shards", r.amdahl_ceiling, r.shards
        );
    }
}
