//! Run profiling for the streaming engine: one plain-data accumulator
//! that folds the raw per-worker samples
//! [`fj_par::WorkerPool::submit_profiled`] takes on the tracer's
//! `WallEpoch` (plus the engine's measured merge intervals) into a
//! [`ParallelEfficiencyReport`] — merge serialization, worker idle time,
//! dispatch queueing, and how much of the merge the pipeline hides.
//!
//! [`RunProfile`] reads no clock: every timestamp it sees is an epoch
//! reading in microseconds taken by the engine, so the whole fold is
//! testable with synthetic samples. Everything here is wall-clock-derived
//! and therefore lives **off** the FJ01 deterministic surface: reports
//! ride in `StreamOutcome` / `BENCH_fleet.json` side channels and the
//! profiler-only registry series, never in traces, events, or the
//! deterministic metric registry (see DESIGN.md "Runtime profiling &
//! live progress" for the exclusion rationale, and
//! `tests/profiler_fj01.rs` for the enforcement).
//!
//! The accounting identity the report leans on, pinned down by the
//! `fj-par` pool proptests: for every worker of a profiled dispatch,
//! `spawn_wait + busy + join_wait` equals the dispatch's wall time up to
//! clock granularity, so Σbusy / (wall × shards) is a true utilization
//! in `[0, 1]` whenever workers get their own cores.

use std::ops::Range;

use fj_par::ShardStats;
use fj_telemetry::{Gauge, Histogram, Registry};
use serde::{Deserialize, Serialize};

const US_PER_SEC: f64 = 1_000_000.0;

/// A parallel-efficiency summary folded over every profiled chunk of a
/// streaming run.
///
/// All durations are wall-clock seconds as sampled through the audited
/// `WallEpoch` seam; none of these numbers are deterministic and none
/// may feed back into simulation results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelEfficiencyReport {
    /// Largest worker count observed in any chunk (≥ 1).
    pub shards: usize,
    /// Profiled sharded calls folded into this report.
    pub chunks: u64,
    /// Items mapped across all chunks (router-chunks for the engine).
    pub items: u64,
    /// Total wall time of the measured region (simulate + merge + glue).
    pub wall_secs: f64,
    /// Σ worker busy time across all chunks.
    pub busy_secs: f64,
    /// Σ wall time of the sharded simulate calls themselves.
    pub simulate_secs: f64,
    /// Σ serial merge time (the sequential (round, router) reduction).
    pub merge_secs: f64,
    /// Σ worker spawn wait (call entry → worker start).
    pub spawn_wait_secs: f64,
    /// Σ worker join wait (worker end → call return).
    pub join_wait_secs: f64,
    /// Σ pool dispatch wait: on the persistent-pool path, the time
    /// between a chunk's dispatch and each worker's first instruction
    /// (channel send + queueing behind earlier shards on the same
    /// worker). Zero for inline runs. `Option` so baselines recorded
    /// before the pool existed still parse (`None`).
    pub pool_dispatch_wait_secs: Option<f64>,
    /// Σ merge time that overlapped the *next* chunk's simulation — the
    /// pipelining win. Zero when the merge never overlaps (inline path,
    /// single-chunk runs); `None` on pre-pool baselines.
    pub merge_overlap_secs: Option<f64>,
    /// merge_overlap / merge: the fraction of the serial merge hidden
    /// behind pool workers, in `[0, 1]`; `None` on pre-pool baselines.
    pub merge_overlap_fraction: Option<f64>,
    /// Σbusy / (wall × shards): fraction of the theoretically available
    /// worker-seconds actually spent mapping items.
    pub efficiency: f64,
    /// merge / wall: fraction of the run serialized in the merge.
    pub merge_fraction: f64,
    /// Σ per-chunk max busy / Σ per-chunk mean busy (≥ 1; 1 = perfectly
    /// balanced shards, 2 = the slowest worker does twice the mean).
    pub imbalance: f64,
    /// (wall − Σ per-chunk critical path) / wall, clamped to [0, 1]: the
    /// measured serial fraction in Amdahl's sense.
    pub serial_fraction: f64,
    /// 1 / (serial + (1 − serial) / shards): the speedup ceiling the
    /// measured serial fraction permits at this shard count.
    pub amdahl_ceiling: f64,
}

impl ParallelEfficiencyReport {
    /// An empty report for `shards` workers — what a run with zero
    /// profiled chunks folds to.
    pub fn empty(shards: usize) -> Self {
        RunProfile::default().report_for(shards.max(1), 0)
    }
}

/// The profiler state of one streaming run: per-chunk sums plus the
/// profiler-only registry series they refresh.
///
/// Plain data: no clocks, no locks, no I/O. The engine owns one per
/// profiled run and feeds it once per merged chunk. The default value
/// starts at epoch reading 0 with detached series, which is what the
/// tests fold into.
#[derive(Debug, Clone, Default)]
pub struct RunProfile {
    /// Epoch reading when this run started, so rates cover only the work
    /// this process actually did (a resumed prefix is not ours).
    started_us: u64,
    shards: usize,
    chunks: u64,
    items: u64,
    busy_us: u64,
    simulate_us: u64,
    merge_us: u64,
    spawn_wait_us: u64,
    join_wait_us: u64,
    /// Σ per-chunk max worker busy — the parallel critical path.
    critical_us: u64,
    /// Σ per-chunk mean worker busy (kept as a float to avoid rounding
    /// bias).
    mean_busy_us: f64,
    pool_dispatch_wait_us: u64,
    merge_overlap_us: u64,
    efficiency: Gauge,
    merge_fraction: Gauge,
    /// Merged rounds per wall second; the engine sets it, since only the
    /// engine knows how many rounds a chunk held.
    pub(crate) rounds_per_sec: Gauge,
    shard_busy: Histogram,
    dispatch_wait: Gauge,
}

impl RunProfile {
    /// A profile starting at epoch reading `started_us`, registering the
    /// profiler-only series in `registry`.
    pub fn new(registry: &Registry, started_us: u64) -> Self {
        Self {
            started_us,
            efficiency: registry.gauge("fleet_parallel_efficiency", &[]),
            merge_fraction: registry.gauge("fleet_merge_fraction", &[]),
            rounds_per_sec: registry.gauge("fleet_progress_rounds_per_sec", &[]),
            shard_busy: registry.histogram("fleet_shard_busy_seconds", &[]),
            dispatch_wait: registry.gauge("fleet_pool_dispatch_wait_seconds", &[]),
            ..Self::default()
        }
    }

    /// Absorbs one merged chunk: its pool dispatch `stats`, the `merge`
    /// interval that followed it (epoch µs), the dispatch queue wait
    /// (Σ per-worker spawn wait on a pool with threads, else 0), and the
    /// part of the *previous* merge that ran while this chunk's workers
    /// were still busy. Refreshes the registry series and returns the
    /// run-so-far report, measured up to the end of `merge`.
    pub fn record_chunk(
        &mut self,
        stats: &ShardStats,
        merge: Range<u64>,
        dispatch_wait_us: u64,
        merge_overlap_us: u64,
    ) -> ParallelEfficiencyReport {
        self.shards = self.shards.max(stats.shards());
        self.chunks += 1;
        self.items += stats.items();
        self.busy_us += stats.busy_us();
        self.simulate_us += stats.wall_us;
        self.merge_us += merge.end.saturating_sub(merge.start);
        self.spawn_wait_us += stats.spawn_wait_us();
        self.join_wait_us += stats.join_wait_us();
        self.critical_us += stats.max_busy_us();
        if stats.shards() > 0 {
            self.mean_busy_us += stats.busy_us() as f64 / stats.shards() as f64;
        }
        self.pool_dispatch_wait_us += dispatch_wait_us;
        self.merge_overlap_us += merge_overlap_us;

        for w in &stats.workers {
            self.shard_busy.observe(w.busy_us as f64 / US_PER_SEC);
        }
        let report = self.report(merge.end);
        self.efficiency.set(report.efficiency);
        self.merge_fraction.set(report.merge_fraction);
        // Cumulative pool dispatch wait so far — the series the
        // `dispatch_wait_budget` alert rule watches.
        self.dispatch_wait
            .set(self.pool_dispatch_wait_us as f64 / US_PER_SEC);
        report
    }

    /// The report over the run so far, at epoch reading `now_us` (same
    /// clock the chunk stats used).
    pub fn report(&self, now_us: u64) -> ParallelEfficiencyReport {
        self.report_for(self.shards.max(1), now_us.saturating_sub(self.started_us))
    }

    fn report_for(&self, shards: usize, wall_us: u64) -> ParallelEfficiencyReport {
        let wall_secs = wall_us as f64 / US_PER_SEC;
        let busy_secs = self.busy_us as f64 / US_PER_SEC;
        let efficiency = if wall_us > 0 {
            (busy_secs / (wall_secs * shards as f64)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let merge_secs = self.merge_us as f64 / US_PER_SEC;
        let merge_fraction = if wall_us > 0 {
            (merge_secs / wall_secs).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let imbalance = if self.mean_busy_us > 0.0 {
            (self.critical_us as f64 / self.mean_busy_us).max(1.0)
        } else {
            1.0
        };
        let serial_fraction = if wall_us > 0 {
            (1.0 - self.critical_us as f64 / wall_us as f64).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let amdahl_ceiling = 1.0 / (serial_fraction + (1.0 - serial_fraction) / shards as f64);
        let merge_overlap_fraction = if self.merge_us > 0 {
            (self.merge_overlap_us as f64 / self.merge_us as f64).clamp(0.0, 1.0)
        } else {
            0.0
        };
        ParallelEfficiencyReport {
            shards,
            chunks: self.chunks,
            items: self.items,
            wall_secs,
            busy_secs,
            simulate_secs: self.simulate_us as f64 / US_PER_SEC,
            merge_secs,
            spawn_wait_secs: self.spawn_wait_us as f64 / US_PER_SEC,
            join_wait_secs: self.join_wait_us as f64 / US_PER_SEC,
            pool_dispatch_wait_secs: Some(self.pool_dispatch_wait_us as f64 / US_PER_SEC),
            merge_overlap_secs: Some(self.merge_overlap_us as f64 / US_PER_SEC),
            merge_overlap_fraction: Some(merge_overlap_fraction),
            efficiency,
            merge_fraction,
            imbalance,
            serial_fraction,
            amdahl_ceiling,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_par::WorkerStats;
    use proptest::prelude::*;

    fn stats(busy: &[u64]) -> ShardStats {
        let workers = busy
            .iter()
            .enumerate()
            .map(|(shard, &busy_us)| WorkerStats {
                shard,
                items: 10,
                spawn_wait_us: 5,
                busy_us,
                join_wait_us: 5,
            })
            .collect();
        ShardStats {
            wall_us: busy.iter().copied().max().unwrap_or(0) + 10,
            workers,
        }
    }

    #[test]
    fn balanced_chunks_report_high_efficiency_and_unit_imbalance() {
        let mut acc = RunProfile::default();
        acc.record_chunk(&stats(&[1000, 1000, 1000, 1000]), 0..0, 0, 0);
        let r = acc.report(1010);
        assert_eq!(r.shards, 4);
        assert_eq!(r.chunks, 1);
        assert_eq!(r.items, 40);
        assert!(r.efficiency > 0.98, "efficiency {}", r.efficiency);
        assert!(
            (r.imbalance - 1.0).abs() < 1e-9,
            "imbalance {}",
            r.imbalance
        );
        assert!(r.amdahl_ceiling > 3.8, "ceiling {}", r.amdahl_ceiling);
    }

    #[test]
    fn skewed_chunks_report_imbalance_and_lower_efficiency() {
        let mut acc = RunProfile::default();
        acc.record_chunk(&stats(&[4000, 1000, 1000, 1000]), 0..0, 0, 0);
        let r = acc.report(4010);
        // mean busy = 1750, max = 4000 → imbalance ≈ 2.29.
        assert!(r.imbalance > 2.0, "imbalance {}", r.imbalance);
        assert!(r.efficiency < 0.5, "efficiency {}", r.efficiency);
    }

    #[test]
    fn merge_fraction_tracks_serial_merge_share() {
        let mut acc = RunProfile::default();
        acc.record_chunk(&stats(&[500, 500]), 510..1010, 0, 0);
        let r = acc.report(1010);
        assert!(
            (r.merge_fraction - 500.0 / 1010.0).abs() < 1e-9,
            "merge fraction {}",
            r.merge_fraction
        );
        assert!(r.serial_fraction > 0.4, "serial {}", r.serial_fraction);
        assert!(r.amdahl_ceiling < 1.7, "ceiling {}", r.amdahl_ceiling);
    }

    #[test]
    fn empty_report_is_well_defined() {
        let r = ParallelEfficiencyReport::empty(4);
        assert_eq!(r.shards, 4);
        assert_eq!(r.chunks, 0);
        assert_eq!(r.efficiency, 0.0);
        assert_eq!(r.imbalance, 1.0);
        assert_eq!(r.serial_fraction, 1.0);
        assert!((r.amdahl_ceiling - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pool_dispatch_wait_and_merge_overlap_fold_into_the_report() {
        let mut acc = RunProfile::default();
        acc.record_chunk(&stats(&[800, 900]), 910..1310, 30, 300);
        acc.record_chunk(&stats(&[850, 850]), 2160..2760, 20, 450);
        let r = acc.report(3000);
        assert!((r.pool_dispatch_wait_secs.unwrap_or(0.0) - 50e-6).abs() < 1e-12);
        assert!((r.merge_overlap_secs.unwrap_or(0.0) - 750e-6).abs() < 1e-12);
        // 750 of 1000 merge µs hidden behind the pipeline.
        let frac = r.merge_overlap_fraction.unwrap_or(0.0);
        assert!((frac - 0.75).abs() < 1e-9, "overlap fraction {frac}");
    }

    #[test]
    fn overlap_fraction_clamps_and_defaults_sanely() {
        // No merge recorded → fraction is 0, not NaN.
        let mut acc = RunProfile::default();
        acc.record_chunk(&ShardStats::default(), 0..0, 0, 500);
        let r = acc.report(1000);
        assert_eq!(r.merge_overlap_fraction, Some(0.0));
        // Overlap beyond the merge total clamps to 1.
        let mut acc = RunProfile::default();
        acc.record_chunk(&stats(&[100]), 110..210, 0, 500);
        assert_eq!(acc.report(1000).merge_overlap_fraction, Some(1.0));
        // Pre-pool baselines parse with the new fields absent.
        let old = r#"{"shards":2,"chunks":1,"items":4,"wall_secs":1.0,
            "busy_secs":0.5,"simulate_secs":0.5,"merge_secs":0.1,
            "spawn_wait_secs":0.0,"join_wait_secs":0.0,"efficiency":0.25,
            "merge_fraction":0.1,"imbalance":1.0,"serial_fraction":0.5,
            "amdahl_ceiling":1.33}"#;
        let parsed: ParallelEfficiencyReport = serde_json::from_str(old).expect("old json parses");
        assert_eq!(parsed.pool_dispatch_wait_secs, None);
        assert_eq!(parsed.merge_overlap_secs, None);
        assert_eq!(parsed.merge_overlap_fraction, None);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut acc = RunProfile::default();
        acc.record_chunk(&stats(&[700, 900]), 910..960, 0, 0);
        acc.record_chunk(&stats(&[800, 800]), 1770..1830, 0, 0);
        let r = acc.report(2000);
        assert_eq!(r.chunks, 2);
        let text = serde_json::to_string(&r).expect("serialize");
        let back: ParallelEfficiencyReport = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, r);
    }

    #[test]
    fn profile_starts_at_its_epoch_reading_and_refreshes_its_series() {
        let registry = Registry::new();
        let mut profile = RunProfile::new(&registry, 1_000);
        let so_far = profile.record_chunk(&stats(&[500, 500]), 1_510..2_010, 40, 0);
        // Wall covers only this run: epoch 1 000 → end of the merge.
        assert!((so_far.wall_secs - 1_010e-6).abs() < 1e-12);
        assert_eq!(so_far, profile.report(2_010));
        let efficiency = registry.gauge("fleet_parallel_efficiency", &[]).get();
        assert_eq!(efficiency, so_far.efficiency);
        let wait = registry
            .gauge("fleet_pool_dispatch_wait_seconds", &[])
            .get();
        assert!((wait - 40e-6).abs() < 1e-12);
        let busy = registry
            .histogram("fleet_shard_busy_seconds", &[])
            .snapshot();
        assert_eq!(busy.count, 2);
    }

    fn arb_worker() -> impl Strategy<Value = (u64, u64, u64, u64)> {
        // (items, spawn_wait, busy, join_wait) in microseconds.
        (0u64..1000, 0u64..10_000, 0u64..1_000_000, 0u64..10_000)
    }

    proptest! {
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
            let mut acc = RunProfile::default();
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
                let merge_start = wall_total + wall_us;
                wall_total += wall_us + merge_us;
                acc.record_chunk(&ShardStats { wall_us, workers }, merge_start..wall_total, 0, 0);
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
}
