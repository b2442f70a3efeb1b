//! `fj-obs` — runtime profiling for the sharded streaming engine.
//!
//! The committed `BENCH_fleet.json` baseline shows 2-shard speedup of
//! ~0.95×, and before this crate nothing in the workspace could say
//! *why*: merge serialization, worker idle time, or checkpoint stalls
//! at chunk boundaries. `fj-obs` turns the raw per-worker timings that
//! [`fj_par::WorkerPool::submit_profiled`] collects (plus the engine's
//! measured serial merge time) into a [`ParallelEfficiencyReport`] — the
//! quantities the ROADMAP's "make parallelism actually pay" item needs
//! before any 1k/10k/50k scaling work touches the engine.
//!
//! Everything here is wall-clock-derived and therefore lives **off** the
//! FJ01 deterministic surface: reports ride in `StreamOutcome` /
//! `BENCH_fleet.json` side channels, never in traces, events, or the
//! deterministic metric registry (see DESIGN.md "Runtime profiling &
//! live progress" for the exclusion rationale, and
//! `crates/isp/tests/profiler_fj01.rs` for the enforcement).
//!
//! The accounting identity this crate leans on, pinned down by the
//! proptests in `tests/proptests.rs`: for every worker of a profiled
//! call, `spawn_wait + busy + join_wait` equals the call's wall time up
//! to clock granularity, so Σbusy / (wall × shards) is a true
//! utilization in `[0, 1]` whenever workers get their own cores.

use fj_par::ShardStats;
use serde::{Deserialize, Serialize};

const US_PER_SEC: f64 = 1_000_000.0;

/// A parallel-efficiency summary folded over every profiled chunk of a
/// streaming run (or any other sequence of sharded calls).
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
    /// worker). Zero for scoped/inline runs. `Option` so baselines
    /// recorded before the pool existed still parse (`None`).
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
        EfficiencyAccumulator::default().report_for(shards.max(1), 0)
    }
}

/// Folds per-chunk [`ShardStats`] (plus the caller's measured merge
/// time) into a [`ParallelEfficiencyReport`].
///
/// The accumulator is plain data: no clocks, no locks, no I/O. The
/// engine owns one per streaming run, feeds it after every successful
/// chunk, and snapshots a report on demand for the progress plane.
#[derive(Debug, Clone, Default)]
pub struct EfficiencyAccumulator {
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
    /// Σ per-chunk mean worker busy, in microsecond units scaled by the
    /// chunk's worker count (kept as a float to avoid rounding bias).
    mean_busy_us: f64,
    /// Σ pool dispatch queue wait ([`EfficiencyAccumulator::record_pool_dispatch_wait`]).
    pool_dispatch_wait_us: u64,
    /// Σ merge time overlapped with the next chunk's simulation
    /// ([`EfficiencyAccumulator::record_merge_overlap`]).
    merge_overlap_us: u64,
}

impl EfficiencyAccumulator {
    /// Absorbs one profiled sharded call and the serial merge time that
    /// followed it.
    pub fn record_chunk(&mut self, stats: &ShardStats, merge_us: u64) {
        self.shards = self.shards.max(stats.shards());
        self.chunks += 1;
        self.items += stats.items();
        self.busy_us += stats.busy_us();
        self.simulate_us += stats.wall_us;
        self.merge_us += merge_us;
        self.spawn_wait_us += stats.spawn_wait_us();
        self.join_wait_us += stats.join_wait_us();
        self.critical_us += stats.max_busy_us();
        if stats.shards() > 0 {
            self.mean_busy_us += stats.busy_us() as f64 / stats.shards() as f64;
        }
    }

    /// Chunks folded so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Absorbs one pool dispatch's queue wait (Σ per-worker spawn wait
    /// as measured by [`fj_par::WorkerPool::submit_profiled`]). Callers
    /// on the scoped path never call this; the field stays zero.
    pub fn record_pool_dispatch_wait(&mut self, us: u64) {
        self.pool_dispatch_wait_us += us;
    }

    /// Absorbs the portion of one merge interval that ran while the
    /// pool was already simulating the next chunk — the pipelined-merge
    /// win the report surfaces as `merge_overlap_fraction`.
    pub fn record_merge_overlap(&mut self, us: u64) {
        self.merge_overlap_us += us;
    }

    /// Snapshot the report against the measured total wall time of the
    /// region (microseconds, same clock the chunk stats used).
    pub fn report(&self, wall_us: u64) -> ParallelEfficiencyReport {
        self.report_for(self.shards.max(1), wall_us)
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
        let mut acc = EfficiencyAccumulator::default();
        acc.record_chunk(&stats(&[1000, 1000, 1000, 1000]), 0);
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
        let mut acc = EfficiencyAccumulator::default();
        acc.record_chunk(&stats(&[4000, 1000, 1000, 1000]), 0);
        let r = acc.report(4010);
        // mean busy = 1750, max = 4000 → imbalance ≈ 2.29.
        assert!(r.imbalance > 2.0, "imbalance {}", r.imbalance);
        assert!(r.efficiency < 0.5, "efficiency {}", r.efficiency);
    }

    #[test]
    fn merge_fraction_tracks_serial_merge_share() {
        let mut acc = EfficiencyAccumulator::default();
        acc.record_chunk(&stats(&[500, 500]), 500);
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
        let mut acc = EfficiencyAccumulator::default();
        acc.record_chunk(&stats(&[800, 900]), 400);
        acc.record_pool_dispatch_wait(30);
        acc.record_merge_overlap(300);
        acc.record_chunk(&stats(&[850, 850]), 600);
        acc.record_pool_dispatch_wait(20);
        acc.record_merge_overlap(450);
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
        let mut acc = EfficiencyAccumulator::default();
        acc.record_merge_overlap(500);
        let r = acc.report(1000);
        assert_eq!(r.merge_overlap_fraction, Some(0.0));
        // Overlap beyond the merge total clamps to 1.
        let mut acc = EfficiencyAccumulator::default();
        acc.record_chunk(&stats(&[100]), 100);
        acc.record_merge_overlap(500);
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
        let mut acc = EfficiencyAccumulator::default();
        acc.record_chunk(&stats(&[700, 900]), 50);
        acc.record_chunk(&stats(&[800, 800]), 60);
        let r = acc.report(2000);
        assert_eq!(r.chunks, 2);
        let text = serde_json::to_string(&r).expect("serialize");
        let back: ParallelEfficiencyReport = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, r);
    }
}
