//! Long-horizon trace collection — the synthetic counterpart of the
//! 10-month SNMP dataset and the 2-month Autopower co-deployment.
//!
//! Collection can run under a [`FaultPlan`]: each recorded tick is one
//! "poll" per router, and the plan's drop channel decides which polls
//! fail. A failed poll is recorded as an explicit gap on the affected
//! series — never as a fabricated zero — so gap-aware statistics keep
//! fleet aggregates comparable between faulty and fault-free runs.
//!
//! # Streaming sharded execution
//!
//! [`collect_streaming`] is the engine's one entry point: a chunked
//! two-phase engine built on [`fj_par::WorkerPool`]. The horizon is cut
//! into **epoch chunks** of [`StreamConfig::chunk_rounds`] poll rounds;
//! for each chunk:
//!
//! 1. **Simulate** — routers are split into contiguous index shards and
//!    dispatched to the run's worker pool (spawned once per run; at one
//!    shard it has no threads and simulates the chunk inline); each
//!    shard runs its routers through the chunk's
//!    window (events, polls, fault draws, health ladder, prediction)
//!    with no cross-shard synchronisation, producing columnar
//!    [`RoundRecord`] batches. This is sound because every input is
//!    per-router keyed: fault draws address stream `"snmp/{router}"`
//!    (and `"wall/{router}"`) at the *global* round index — the
//!    `(round, router)` cell of a pure oracle and the engine's "RNG
//!    cursor" — scheduled events each target exactly one router, and
//!    the simulators share no state.
//! 2. **Merge** — the main thread drains the chunk's records in strict
//!    `(round, router-index)` order: per-router series and fleet totals
//!    accumulate in fleet order, and telemetry (gap cause events, health
//!    transitions, counters, gauges, adopted spans) is emitted in exactly
//!    the sequence the old sequential loop produced.
//!
//! When the pool has threads the two phases **pipeline**: the next
//! chunk is dispatched before the current chunk's merge begins, so the
//! serial merge overlaps the workers' simulation. Ownership makes this
//! safe — workers own the router cells (ping-ponged by value through
//! the pool), the main thread owns all traces and telemetry emission —
//! so the pipelining is invisible to every output.
//!
//! Workers hold only one chunk of records at a time, so peak record
//! memory is `O(routers × chunk_rounds)` instead of
//! `O(routers × horizon)`.
//!
//! # Checkpoints and crash recovery
//!
//! With [`StreamConfig::checkpoints`] set, every chunk boundary (except
//! the last) serializes the complete resumable state — router sims,
//! health and predictor counters, event cursors, traces, totals, and the
//! whole telemetry bundle — to a CRC-sealed file
//! ([`crate::checkpoint`]). A supervisor catches shard panics (reported
//! deterministically by [`fj_par::Pending::wait`] — the lowest panicking
//! shard wins attribution), restores the chunk-boundary state,
//! and retries with [`fj_faults::Backoff`] up to
//! [`StreamConfig::max_restarts`] times; a killed process resumes from
//! the newest verifiable checkpoint ([`StreamConfig::resume`]), falling
//! back to the previous one when the latest is torn or corrupt.
//!
//! The contract (tested in `tests/determinism.rs` and
//! `tests/recovery.rs`): traces, gap markers, telemetry events, and
//! counters are **bit-identical for every shard count, every chunk size,
//! and across any crash/resume or supervised restart**. Threads, chunking
//! and recovery decide only wall-clock speed and memory, never results —
//! the FJ01 determinism rule extended to parallel *and* interrupted
//! execution. Recovery itself is observable out-of-band: the flight
//! recorder trips on every restart and checkpoint rejection, and the
//! recovery-only counters (`fleet_recoveries_total`,
//! `fleet_checkpoints_rejected_total`) are excluded from the
//! deterministic surface by construction.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use fj_alerts::{AlertEngine, AlertRule, TransitionKind};
use fj_faults::{Backoff, FaultPlan, HealthState, TargetHealth};
use fj_router_sim::SimError;
use fj_telemetry::{
    Counter, Gauge, Histogram, Level, RunProgress, SpanBuffer, SpanId, StageSpan, Telemetry,
    TraceSink, WallEpoch,
};
use fj_traffic::PacketProfile;
use fj_units::{SimDuration, SimInstant, TimeSeries};

use crate::checkpoint::{self, CheckpointConfig, CheckpointError};
use crate::events::{sort_events, ScheduledEvent};
use crate::fleet::{Fleet, FleetRouter};
use crate::predict::ModelPredictor;
use crate::profile::{ParallelEfficiencyReport, RunProfile};

/// Numeric encoding of the health ladder for the per-router gauge
/// (`fleet_router_health`): 0 healthy, 1 degraded, 2 quarantined.
fn health_level(s: HealthState) -> f64 {
    match s {
        HealthState::Healthy => 0.0,
        HealthState::Degraded => 1.0,
        HealthState::Quarantined => 2.0,
    }
}

/// Collected series for one router. Serializable: checkpoints persist
/// the partially-collected trace at chunk boundaries.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RouterTrace {
    /// Router name.
    pub name: String,
    /// Hardware model.
    pub model: String,
    /// Sum of firmware-reported PSU input power (the SNMP trace). Empty
    /// for models that do not report (Fig. 4c).
    pub psu_reported: TimeSeries,
    /// External (Autopower) wall-power measurements. Only populated for
    /// instrumented routers.
    pub wall: TimeSeries,
    /// Power-model predictions (§6.2 method).
    pub predicted: TimeSeries,
    /// Traffic through the router, bits per second (both directions,
    /// summed over interfaces).
    pub traffic: TimeSeries,
}

/// Fleet-wide series plus per-router detail.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetTrace {
    /// Poll period used.
    pub step: SimDuration,
    /// Per-router traces, fleet order.
    pub routers: Vec<RouterTrace>,
    /// Total wall power (W) — the physical ground truth.
    pub total_wall: TimeSeries,
    /// Total firmware-reported power (W) over reporting routers — what
    /// the Fig. 1 "Total power" curve is built from.
    pub total_reported: TimeSeries,
    /// Total traffic (bit/s), internal links counted once.
    pub total_traffic: TimeSeries,
    /// Polls that failed under the fault plan and were recorded as gaps
    /// (SNMP and wall-meter reads combined). Zero for a clean collection.
    pub missed_polls: u64,
}

impl FleetTrace {
    /// Trace of the router with the given name, if collected.
    pub fn router(&self, name: &str) -> Option<&RouterTrace> {
        self.routers.iter().find(|r| r.name == name)
    }
}

/// What one router's SNMP poll yielded in one round.
#[derive(Debug, Clone, Copy)]
enum SnmpPoll {
    /// Firmware reported; the sample was recorded.
    Value(f64),
    /// A reporting router's poll was dropped by the fault plan: a gap on
    /// its series, and the fleet total is unknowable this round.
    Gap,
    /// The model exposes no PSU input sensor (Fig. 4c); its wall draw
    /// substitutes in the fleet total (documented deviation).
    NonReporting,
}

/// What the external wall meter read in one round.
#[derive(Debug, Clone, Copy)]
enum WallRead {
    /// No Autopower unit on this router.
    NotInstrumented,
    /// Read recorded (the value is the round's wall power).
    Value,
    /// Read dropped by the fault plan: a gap on the wall series.
    Gap,
}

/// Everything one router contributed to one poll round, recorded
/// columnar by the shard worker and replayed by the deterministic merge.
/// The record is fully self-contained — the merge alone writes the
/// per-router series from it — so a chunk of records is transactional:
/// a retried chunk re-derives the identical batch.
#[derive(Debug, Clone, Copy)]
struct RoundRecord {
    /// Wall power (W) at poll time — feeds `total_wall` and substitutes
    /// for non-reporting routers in `total_reported`.
    wall: f64,
    /// SNMP poll outcome.
    snmp: SnmpPoll,
    /// Wall-meter outcome.
    wall_read: WallRead,
    /// Traffic through the router (full rate over active interfaces),
    /// for the per-router traffic series.
    traffic: f64,
    /// Contribution to the fleet traffic total, with the Fig. 1
    /// convention applied per interface (external full, internal half).
    traffic_contrib: f64,
    /// The §6.2 prediction, if the model is known.
    predicted: Option<f64>,
    /// Health-ladder transition caused by this round's poll outcome, if
    /// any: `(before, after)`.
    transition: Option<(HealthState, HealthState)>,
}

/// Bound on each worker's span buffer: the newest ~1 300 rounds of a
/// router's stage spans survive to the merge; older ones are evicted and
/// *counted* (`spans_dropped_total`), with their wall time still folded
/// into the per-stage profile totals.
const SPAN_BUFFER_CAPACITY: usize = 4096;

/// Every `&'static str` the engine can intern into the span sink —
/// span/stage names plus the `router` span-field key. Restoring a
/// checkpoint re-interns its owned strings against this table; an
/// unknown name rejects the checkpoint instead of corrupting the sink.
const SPAN_NAMES: &[&str] = &[
    "fleet_collect",
    "fleet_simulate",
    "fleet_merge",
    "fleet_checkpoint",
    "snmp_poll",
    "autopower_frame",
    "predict",
    "router_step",
    "router",
];

/// Deterministic chaos hook: panics one worker at an exact
/// `(round, router)` cell, a bounded number of times. Used by the
/// recovery tests and the crash-recovery CI smoke to prove the
/// supervisor restores chunk-boundary state; firing is latched through
/// an [`Arc`] so a supervised retry of the same chunk does not re-fire.
#[derive(Debug, Clone)]
pub struct ChaosPanic {
    round: u64,
    router: usize,
    remaining: Arc<AtomicU32>,
}

impl ChaosPanic {
    /// Panics the worker simulating `router` when it reaches the global
    /// poll round `round` — once.
    pub fn once(round: u64, router: usize) -> Self {
        Self {
            round,
            router,
            remaining: Arc::new(AtomicU32::new(1)),
        }
    }

    /// Consumes one firing if this `(round, router)` cell is armed.
    fn fires(&self, round: u64, router: usize) -> bool {
        round == self.round
            && router == self.router
            && self
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok()
    }
}

/// Streaming-engine knobs. `StreamConfig::default()` runs the plain
/// sharded engine: default shard count, one chunk spanning the whole
/// horizon, no checkpoints, no supervision.
#[derive(Debug, Clone, Default)]
pub struct StreamConfig {
    /// Worker shard count; `0` means [`fj_par::shard_count`].
    pub shards: usize,
    /// Poll rounds simulated per epoch chunk; `0` means the whole
    /// horizon in one chunk. Peak record memory is
    /// `O(routers × chunk_rounds)`.
    pub chunk_rounds: u64,
    /// Supervised restarts allowed after shard panics. Each restart
    /// restores the chunk-boundary state and retries the chunk after an
    /// [`fj_faults::Backoff`] delay; once exhausted, the panic resumes
    /// unwinding (the plain-engine behaviour).
    pub max_restarts: u32,
    /// Write a CRC-sealed checkpoint at every chunk boundary except the
    /// last.
    pub checkpoints: Option<CheckpointConfig>,
    /// Before starting, try to resume from the newest verifiable
    /// checkpoint in [`StreamConfig::checkpoints`]. Rejected candidates
    /// (torn, corrupt, wrong version/scenario) trip the flight recorder
    /// and fall back to the next-older file; with none left the run
    /// starts from round zero.
    pub resume: bool,
    /// Stop (successfully, with [`StreamOutcome::completed`] `false`)
    /// after this many chunks — the deterministic stand-in for a killed
    /// process in kill-and-resume tests.
    pub stop_after_chunks: Option<u64>,
    /// Deterministic fault injection for recovery tests.
    pub chaos_panic: Option<ChaosPanic>,
    /// Run the shard-utilization profiler and the live progress plane:
    /// per-chunk worker/merge timings fold into
    /// [`StreamOutcome::efficiency`], [`RunProgress`] snapshots publish
    /// into the telemetry bundle's bounded ring, and profiler-only
    /// registry series (`fleet_parallel_efficiency`, …) track the latest
    /// values. Everything recorded is wall-clock-derived and excluded
    /// from the FJ01 deterministic surface exactly like the recovery
    /// counters — enabling the profiler never changes traces, events,
    /// span ids, or the deterministic metric series (enforced by
    /// `tests/profiler_fj01.rs`).
    pub profile: bool,
    /// Additionally mirror each progress snapshot to this file with an
    /// atomic tmp+rename write (conventionally
    /// `target/telemetry/progress-<exp>.json`), so a long run can be
    /// watched from outside the process. Requires [`StreamConfig::profile`].
    pub progress_path: Option<PathBuf>,
    /// Evaluate a declarative alert rule pack ([`fj_alerts`]) at every
    /// epoch-chunk boundary, in sim time. The verdict stream — firing
    /// and resolved transitions with sim timestamps — is part of the
    /// deterministic contract: bit-identical at any shard/chunk count
    /// and across crash/resume (the engine state rides in checkpoints;
    /// `tests/alerts_fj01.rs` enforces it). The alert-plane registry
    /// series (`fleet_alerts_*`) are registered only when this is set
    /// and sit on [`fj_telemetry::OFF_SURFACE_METRICS`], so plain runs
    /// stay byte-identical. Firing alerts trip the flight recorder (if
    /// armed) with the triggering rule attached.
    pub alerts: Option<AlertsConfig>,
}

/// Alert-plane configuration for a streaming run.
#[derive(Debug, Clone)]
pub struct AlertsConfig {
    /// The rule pack to evaluate (e.g. [`fj_alerts::default_pack`]).
    /// On resume the pack must render to exactly the checkpointed
    /// rules text, or the candidate is rejected.
    pub rules: Vec<AlertRule>,
    /// Mirror the full alert state (rule phases, verdict stream) to
    /// this file after every evaluation with an atomic tmp+rename write
    /// (conventionally `target/telemetry/alerts-<exp>.json`).
    pub json_path: Option<PathBuf>,
}

impl AlertsConfig {
    /// The default rule pack, no JSON mirror.
    pub fn default_pack() -> AlertsConfig {
        AlertsConfig {
            rules: fj_alerts::default_pack(),
            json_path: None,
        }
    }
}

/// What a streaming collection produced, beyond the trace itself.
#[derive(Debug)]
pub struct StreamOutcome {
    /// The collected trace (partial when `completed` is false).
    pub trace: FleetTrace,
    /// Whether the full horizon was collected (`false` only under
    /// [`StreamConfig::stop_after_chunks`]).
    pub completed: bool,
    /// Rounds simulated and merged, including restored ones.
    pub rounds_done: u64,
    /// Rounds in the full horizon.
    pub rounds_total: u64,
    /// Supervised restarts consumed.
    pub restarts: u32,
    /// The round this run resumed from, if it restored a checkpoint.
    pub resumed_at_round: Option<u64>,
    /// Checkpoint files rejected during resume (torn/corrupt/mismatched).
    pub checkpoints_rejected: u32,
    /// Parallel-efficiency report folded over every merged chunk
    /// (`Some` iff [`StreamConfig::profile`] was on). Wall-clock-derived
    /// and off the deterministic surface.
    pub efficiency: Option<ParallelEfficiencyReport>,
    /// The alert engine after the final boundary evaluation (`Some` iff
    /// [`StreamConfig::alerts`] was set): rule phases, the verdict
    /// stream, and the `ALERTS` renderer.
    pub alerts: Option<AlertEngine>,
}

/// One router's sim-side engine state, owned across chunks: the
/// simulator and the per-router oracles' cursors (health ladder,
/// predictor counters, event index).
///
/// Cells are what the worker pool ping-pongs: dispatched by value for
/// each chunk, handed back by [`fj_par::Pending::wait`]. The per-router
/// traces deliberately live *outside* the cell (merge-owned, in a
/// parallel `Vec<RouterTrace>`), so the merge of chunk N can append to
/// them while the pool already simulates chunk N+1 on these cells.
struct RouterCell {
    router: FleetRouter,
    predictor: ModelPredictor,
    health: TargetHealth,
    /// Index of the next unfired event in this router's filtered list.
    next_event: usize,
    snmp_stream: String,
    wall_stream: String,
    instrumented: bool,
}

/// Worker-side state captured at a chunk boundary so a supervised
/// restart can rewind a half-simulated chunk. Trace state needs no
/// capture: workers never touch it, and the merge only runs after the
/// whole chunk succeeded.
struct BoundaryState {
    router: FleetRouter,
    health: TargetHealth,
    predictor: Vec<(usize, usize, u64, u64)>,
    next_event: usize,
}

impl BoundaryState {
    fn capture(cell: &RouterCell) -> Self {
        Self {
            router: cell.router.clone(),
            health: cell.health.clone(),
            predictor: cell.predictor.counters_snapshot(),
            next_event: cell.next_event,
        }
    }

    fn restore_into(&self, cell: &mut RouterCell) {
        cell.router = self.router.clone();
        cell.health = self.health.clone();
        cell.predictor.restore_counters(&self.predictor);
        cell.next_event = self.next_event;
    }
}

/// A shard worker's output for one router and one chunk: the columnar
/// round records plus the stage spans, both keyed by global round.
struct ChunkOutput {
    records: Vec<RoundRecord>,
    spans: SpanBuffer,
}

/// Global round window `[first, end)` of one epoch chunk.
#[derive(Debug, Clone, Copy)]
struct ChunkWindow {
    first: u64,
    end: u64,
}

/// Read-only inputs shared by every shard worker. Owned (and handed to
/// the pool behind an [`Arc`]) so dispatched chunks need no borrows into
/// the engine's stack frame — the caller thread is busy merging while
/// pool workers read this.
struct RunContext {
    start: SimInstant,
    step: SimDuration,
    packets: PacketProfile,
    /// All scheduled events, time-sorted; workers filter by router.
    events: Vec<ScheduledEvent>,
    poll_faults: FaultPlan,
    /// The trace sink's wall-clock epoch, so worker span stamps and
    /// merge span stamps share one time base.
    epoch: WallEpoch,
    chaos: Option<ChaosPanic>,
}

/// Poll time of global round `round`: rounds sample at
/// `start + step·(round+1)` (the first step is consumed by priming).
fn round_time(start: SimInstant, step: SimDuration, round: u64) -> SimInstant {
    let n = i64::try_from(round).unwrap_or(i64::MAX).saturating_add(1);
    start + SimDuration::from_secs(step.as_secs().saturating_mul(n))
}

/// Simulates one router through one chunk window: fires its events,
/// polls it every `step` under the fault plan, steps its health ladder,
/// and runs the §6.2 predictor. Pure per-router *and* per-window — the
/// only inputs are the cell itself and per-router oracles keyed by the
/// global round — so shards can run any subset in any order, chunks of
/// any size, and produce identical records.
fn run_chunk(
    ctx: &RunContext,
    window: ChunkWindow,
    index: usize,
    cell: &mut RouterCell,
) -> Result<ChunkOutput, SimError> {
    let my_events: Vec<&ScheduledEvent> = ctx
        .events
        .iter()
        .filter(|e| e.kind.router() == index)
        .collect();
    let mut out = ChunkOutput {
        records: Vec::with_capacity(usize::try_from(window.end - window.first).unwrap_or(0)),
        spans: SpanBuffer::new(SPAN_BUFFER_CAPACITY),
    };

    if window.first == 0 {
        // Prime: align the sim clock, seed predictor counters so the
        // first recorded sample has a delta, and consume the first step.
        // A resumed run never lands here — the checkpoint state is
        // already past priming.
        cell.router.sim.set_time(ctx.start);
        let _ = cell.predictor.predict_router(index, &cell.router, ctx.step);
        cell.router.step(ctx.start, &ctx.packets, ctx.step)?;
    }

    for round in window.first..window.end {
        let t = round_time(ctx.start, ctx.step, round);
        if let Some(chaos) = &ctx.chaos {
            if chaos.fires(round, index) {
                // fj-lint: allow(FJ02) — deliberate chaos injection: the
                // recovery tests and CI smoke panic a worker here to
                // prove the supervisor restores chunk-boundary state.
                panic!("chaos: injected worker panic (round {round}, router {index})");
            }
        }

        // Fire this router's due events.
        while cell.next_event < my_events.len() && my_events[cell.next_event].at <= t {
            my_events[cell.next_event].apply_to_router(&mut cell.router)?;
            cell.next_event += 1;
        }

        // One power-model evaluation per round: the meter's truth and
        // every PSU sensor read below share it.
        let wall = cell.router.sim.wall_power();

        // The poll span covers the PSU sensor read plus the fault draw —
        // the simulated counterpart of the poller's round trip. It is
        // recorded only for reporting models (others never poll).
        let poll_span = StageSpan::begin("snmp_poll", t, &ctx.epoch);
        let mut reported = 0.0;
        let mut reports = false;
        for slot in 0..cell.router.sim.psu_count() {
            if let Ok(Some(p)) = cell.router.sim.psu_reported_power_at(slot, wall) {
                reported += p.as_f64();
                reports = true;
            }
        }
        let mut transition = None;
        let snmp = if reports {
            if ctx.poll_faults.should_drop(&cell.snmp_stream, round) {
                let before = cell.health.state();
                let after = cell.health.record_failure();
                if after != before {
                    transition = Some((before, after));
                }
                SnmpPoll::Gap
            } else {
                let before = cell.health.state();
                cell.health.record_success();
                if before != HealthState::Healthy {
                    transition = Some((before, HealthState::Healthy));
                }
                SnmpPoll::Value(reported)
            }
        } else {
            SnmpPoll::NonReporting
        };
        if reports {
            out.spans.push(round, poll_span.finish(t, &ctx.epoch));
        }

        let frame_span = StageSpan::begin("autopower_frame", t, &ctx.epoch);
        let wall_read = if cell.instrumented {
            if ctx.poll_faults.should_drop(&cell.wall_stream, round) {
                WallRead::Gap
            } else {
                WallRead::Value
            }
        } else {
            WallRead::NotInstrumented
        };
        if cell.instrumented {
            out.spans.push(round, frame_span.finish(t, &ctx.epoch));
        }

        // One pattern evaluation sets the loads the tick below carries
        // and feeds both traffic series. Setting them before the
        // prediction is exact: the predictor reads only the octet and
        // packet counters, which only the tick moves.
        let (traffic, traffic_contrib) = cell.router.refresh_loads(t, &ctx.packets)?;

        let predict_span = StageSpan::begin("predict", t, &ctx.epoch);
        let predicted = cell
            .predictor
            .predict_router(index, &cell.router, ctx.step)
            .map(|p| p.as_f64());
        out.spans.push(round, predict_span.finish(t, &ctx.epoch));

        out.records.push(RoundRecord {
            wall: wall.as_f64(),
            snmp,
            wall_read,
            traffic,
            traffic_contrib,
            predicted,
            transition,
        });

        let step_span = StageSpan::begin("router_step", t, &ctx.epoch);
        cell.router.sim.tick(ctx.step);
        out.spans
            .push(round, step_span.finish(t + ctx.step, &ctx.epoch));
    }

    Ok(out)
}

/// Recovery bookkeeping counters, registered only for supervised or
/// checkpointed runs so a plain run's registry snapshot stays
/// byte-identical to the pre-streaming engine's.
///
/// `written` is part of the deterministic surface (same chunking ⇒ same
/// count, checkpointed and restored); `recoveries` and `rejected` are
/// recovery-only and deliberately excluded from the FJ01 comparison —
/// an interrupted run *should* differ there.
struct RecoveryCounters {
    written: Counter,
    recoveries: Counter,
    rejected: Counter,
}

/// Relative error above which a §6.2 power-model prediction counts as a
/// miss for `fleet_prediction_errors_total` (with a 1 W absolute floor,
/// so near-idle readings don't flag on noise). Feeds the
/// `prediction_error_burn` SLO rule.
pub const PREDICTION_ERROR_TOLERANCE: f64 = 0.10;

/// Merge-side metric handles, resolved once per run; the replay then
/// costs one atomic op per update.
struct MergeMetrics {
    rounds: Counter,
    snmp_gaps: Counter,
    wall_gaps: Counter,
    total_gaps: Counter,
    quarantines: Counter,
    round_duration: Histogram,
    health: Vec<Gauge>,
    /// Rounds × routers with a §6.2 prediction and wall truth.
    predictions: Counter,
    /// Of those, predictions outside [`PREDICTION_ERROR_TOLERANCE`].
    prediction_errors: Counter,
}

/// Alert-plane state for one streaming run: the [`AlertEngine`] plus its
/// registry series. Like the recovery counters and the profiler, the
/// series exist only when the feature is configured and are excluded
/// from base FJ01 comparisons by name ([`fj_telemetry::OFF_SURFACE_METRICS`])
/// — but unlike the profiler they are *deterministic given the config*:
/// the verdict stream they mirror is part of the extended contract.
struct AlertPlane {
    engine: AlertEngine,
    firing: Gauge,
    pending: Gauge,
    evals: Counter,
    fired: Counter,
    resolved: Counter,
    json_path: Option<PathBuf>,
}

impl AlertPlane {
    fn new(
        registry: &fj_telemetry::Registry,
        engine: AlertEngine,
        json_path: Option<PathBuf>,
    ) -> Self {
        Self {
            engine,
            firing: registry.gauge("fleet_alerts_firing", &[]),
            pending: registry.gauge("fleet_alerts_pending", &[]),
            evals: registry.counter("fleet_alert_evals_total", &[]),
            fired: registry.counter("fleet_alert_transitions_total", &[("kind", "firing")]),
            resolved: registry.counter("fleet_alert_transitions_total", &[("kind", "resolved")]),
            json_path,
        }
    }

    /// One boundary evaluation at sim time `now`: steps every rule,
    /// emits verdict events, trips the (armed-only) flight recorder per
    /// firing, refreshes the alert-plane series, and mirrors the JSON
    /// dump if configured.
    fn eval(&mut self, telemetry: &Telemetry, now: SimInstant) {
        let transitions = self.engine.eval_and_trip(telemetry, now);
        self.evals.inc();
        for t in &transitions {
            match t.kind {
                TransitionKind::Firing => self.fired.inc(),
                TransitionKind::Resolved => self.resolved.inc(),
            }
        }
        self.firing.set(self.engine.firing_count() as f64);
        self.pending.set(self.engine.pending_count() as f64);
        if let Some(path) = &self.json_path {
            if let Err(e) = self.engine.write_alerts_json(path) {
                // A failed dump degrades observability, not correctness.
                let _ = telemetry
                    .trip_flight_recorder("alerts write failed", &[("error", e.to_string())]);
            }
        }
    }
}

/// Runs the fleet from `start` (inclusive) to `end` (exclusive) at the
/// poll period `step`, applying `events` at their scheduled times and
/// recording one sample per poll — the engine's one entry point.
///
/// `instrumented` lists fleet indices carrying Autopower units (the
/// paper deployed three); their wall power is recorded externally.
/// `poll_faults` decides which polls fail: its drop channel, drawn per
/// router per round (streams `"snmp/{router}"` and `"wall/{router}"`),
/// turns each failed poll into a gap marker on the per-router series,
/// and any round with at least one failed SNMP poll turns the
/// fleet-total sample into a gap — the total is unknowable when a
/// contributor is missing. [`FaultPlan::clean`] collects fault-free.
///
/// Reports into `telemetry` (usually [`fj_telemetry::global`]):
/// per-round span timing, `gaps_total` counters by source, a per-router
/// health ladder (gauge `fleet_router_health`), and a Warn cause event —
/// stamped with the round's sim time — for every gap marker pushed onto
/// a series. `StreamConfig::default()` collects the whole horizon as one
/// chunk at the default shard count ([`fj_par::shard_count`],
/// overridable via `FJ_SHARDS`).
///
/// See the module docs for the chunked execution model, the
/// checkpoint/recovery supervisor, and the extended FJ01 contract:
/// traces, gap markers, telemetry events, and counters are bit-identical
/// for every shard count and chunk size, and resume-from-checkpoint is
/// bit-identical to an uninterrupted run.
///
/// # Errors
///
/// [`SimError::InvalidCollection`] for a non-positive `step` or an event
/// aimed at a router outside the fleet; otherwise the first router
/// error in fleet order.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub fn collect_streaming(
    fleet: &mut Fleet,
    start: SimInstant,
    end: SimInstant,
    step: SimDuration,
    mut events: Vec<ScheduledEvent>,
    instrumented: &[usize],
    poll_faults: &FaultPlan,
    telemetry: &Arc<Telemetry>,
    config: &StreamConfig,
) -> Result<StreamOutcome, SimError> {
    if !step.is_positive() {
        return Err(SimError::InvalidCollection(format!(
            "poll period {step} is not positive"
        )));
    }
    sort_events(&mut events);
    let router_count = fleet.routers.len();
    if let Some(e) = events.iter().find(|e| e.kind.router() >= router_count) {
        return Err(SimError::InvalidCollection(format!(
            "event at {} targets router {} of a {router_count}-router fleet",
            e.at,
            e.kind.router()
        )));
    }
    let shards = if config.shards == 0 {
        fj_par::shard_count()
    } else {
        config.shards
    };

    // Round count derives from the horizon, not from the workers, so an
    // empty fleet still records (empty) totals every round.
    let mut rounds_total: u64 = 0;
    {
        let mut tt = start + step;
        while tt < end {
            rounds_total += 1;
            tt += step;
        }
    }
    let chunk_rounds = if config.chunk_rounds == 0 {
        rounds_total.max(1)
    } else {
        config.chunk_rounds
    };

    let fingerprint = checkpoint::scenario_fingerprint(
        start,
        end,
        step,
        &events,
        instrumented,
        poll_faults,
        &fleet.routers,
    );

    let tracer = telemetry.tracer();
    let registry = telemetry.registry();
    let recovery =
        (config.checkpoints.is_some() || config.max_restarts > 0).then(|| RecoveryCounters {
            written: registry.counter("fleet_checkpoints_written_total", &[]),
            recoveries: registry.counter("fleet_recoveries_total", &[]),
            rejected: registry.counter("fleet_checkpoints_rejected_total", &[]),
        });

    // Resume: walk candidate checkpoints newest-first. Every rejection —
    // torn frame, flipped bit, wrong version, foreign scenario,
    // unrestorable telemetry — trips the flight recorder and falls back
    // to the next-older file; verification is transactional, so a
    // rejected candidate leaves the telemetry bundle untouched.
    let mut checkpoints_rejected = 0u32;
    let mut restored: Option<(checkpoint::CheckpointState, SpanId, Option<AlertEngine>)> = None;
    if config.resume {
        if let Some(ckpt_cfg) = &config.checkpoints {
            for path in checkpoint::candidates(&ckpt_cfg.dir) {
                let verdict = checkpoint::load(&path).and_then(|mut state| {
                    if state.fingerprint != fingerprint {
                        return Err(CheckpointError::Fingerprint {
                            expected: fingerprint,
                            found: state.fingerprint,
                        });
                    }
                    if state.routers.len() != router_count {
                        return Err(CheckpointError::Parse(format!(
                            "checkpoint has {} routers, fleet has {router_count}",
                            state.routers.len()
                        )));
                    }
                    // The open root span must be restorable *before* the
                    // bundle is mutated, keeping rejection transactional.
                    if !state
                        .telemetry
                        .trace
                        .open
                        .iter()
                        .any(|s| s.name == "fleet_collect")
                    {
                        return Err(CheckpointError::Parse(
                            "checkpoint has no open fleet_collect span".to_owned(),
                        ));
                    }
                    // The alert engine restores *before* the bundle is
                    // mutated, keeping rejection transactional. A run
                    // configured with alerts cannot resume a checkpoint
                    // written without them (the verdict stream would
                    // diverge from an uninterrupted run's); a run
                    // without alerts ignores any checkpointed state.
                    let alert_engine = match &config.alerts {
                        Some(alerts_cfg) => {
                            let engine_state = state.alerts.take().ok_or_else(|| {
                                CheckpointError::Parse(
                                    "checkpoint carries no alert state but alerts are configured"
                                        .to_owned(),
                                )
                            })?;
                            Some(
                                AlertEngine::restore(alerts_cfg.rules.clone(), engine_state)
                                    .map_err(CheckpointError::Parse)?,
                            )
                        }
                        None => None,
                    };
                    telemetry
                        .restore_state(&state.telemetry, SPAN_NAMES)
                        .map_err(CheckpointError::Parse)?;
                    let root = tracer.resume_open_span("fleet_collect").ok_or_else(|| {
                        CheckpointError::Parse("open fleet_collect span vanished".to_owned())
                    })?;
                    Ok((state, root, alert_engine))
                });
                match verdict {
                    Ok(hit) => {
                        restored = Some(hit);
                        break;
                    }
                    Err(err) => {
                        checkpoints_rejected += 1;
                        if let Some(rc) = &recovery {
                            rc.rejected.inc();
                        }
                        let _ = telemetry.trip_flight_recorder(
                            "checkpoint rejected",
                            &[
                                ("path", path.display().to_string()),
                                ("error", err.to_string()),
                            ],
                        );
                    }
                }
            }
        }
    }

    let mut trace;
    let first_round;
    let root_span;
    let mut resumed_at_round = None;
    // Sim-side cells (pool-dispatched) and merge-owned per-router traces
    // are kept in two parallel vectors: the merge appends to `traces`
    // while the pool may already hold `cells` for the next chunk.
    let mut cells: Vec<RouterCell>;
    let mut traces: Vec<RouterTrace>;
    let mut restored_alerts: Option<AlertEngine> = None;
    match restored {
        Some((state, root, alert_engine)) => {
            restored_alerts = alert_engine;
            root_span = root;
            first_round = state.rounds_done;
            resumed_at_round = Some(state.rounds_done);
            trace = FleetTrace {
                step,
                routers: Vec::new(),
                total_wall: state.total_wall,
                total_reported: state.total_reported,
                total_traffic: state.total_traffic,
                missed_polls: state.missed_polls,
            };
            // The checkpoint replaces the caller's (round-zero) router
            // state wholesale; it is handed back on return.
            fleet.routers.clear();
            cells = Vec::with_capacity(state.routers.len());
            traces = Vec::with_capacity(state.routers.len());
            for (i, rs) in state.routers.into_iter().enumerate() {
                let mut health = TargetHealth::new();
                health.restore_counts(
                    rs.consecutive_failures,
                    rs.total_failures,
                    rs.total_successes,
                );
                let mut predictor = ModelPredictor::new(fj_router_sim::spec::truth_registry());
                predictor.restore_counters(&rs.predictor);
                traces.push(rs.trace);
                cells.push(RouterCell {
                    snmp_stream: format!("snmp/{}", rs.router.name),
                    wall_stream: format!("wall/{}", rs.router.name),
                    instrumented: instrumented.contains(&i),
                    router: rs.router,
                    predictor,
                    health,
                    next_event: usize::try_from(rs.next_event).unwrap_or(usize::MAX),
                });
            }
        }
        None => {
            root_span = tracer.begin_span("fleet_collect", None, start);
            first_round = 0;
            trace = FleetTrace {
                step,
                ..Default::default()
            };
            let routers = std::mem::take(&mut fleet.routers);
            cells = Vec::with_capacity(routers.len());
            traces = Vec::with_capacity(routers.len());
            for (i, router) in routers.into_iter().enumerate() {
                traces.push(RouterTrace {
                    name: router.name.clone(),
                    model: router.sim.spec().model.clone(),
                    ..Default::default()
                });
                cells.push(RouterCell {
                    snmp_stream: format!("snmp/{}", router.name),
                    wall_stream: format!("wall/{}", router.name),
                    instrumented: instrumented.contains(&i),
                    predictor: ModelPredictor::new(fj_router_sim::spec::truth_registry()),
                    health: TargetHealth::new(),
                    next_event: 0,
                    router,
                });
            }
        }
    }

    let metrics = MergeMetrics {
        rounds: registry.counter("fleet_poll_rounds_total", &[]),
        snmp_gaps: registry.counter("gaps_total", &[("source", "snmp")]),
        wall_gaps: registry.counter("gaps_total", &[("source", "wall")]),
        total_gaps: registry.counter("gaps_total", &[("source", "fleet_total")]),
        quarantines: registry.counter("fleet_routers_quarantined_total", &[]),
        round_duration: registry.histogram("fleet_poll_round_duration_seconds", &[]),
        health: traces
            .iter()
            .map(|rt| registry.gauge("fleet_router_health", &[("router", &rt.name)]))
            .collect(),
        predictions: registry.counter("fleet_predictions_total", &[]),
        prediction_errors: registry.counter("fleet_prediction_errors_total", &[]),
    };

    // The alert plane exists only when configured, like the recovery
    // counters: a plain run registers none of the `fleet_alerts_*`
    // series and evaluates nothing.
    let mut alert_plane = config.alerts.as_ref().map(|alerts_cfg| {
        let engine = restored_alerts
            .take()
            .unwrap_or_else(|| AlertEngine::new(alerts_cfg.rules.clone()));
        AlertPlane::new(registry, engine, alerts_cfg.json_path.clone())
    });

    // Profiler state is created only when asked for: an unprofiled run
    // registers none of the profiler-only series and takes no clock
    // reads beyond what the span stamps already do.
    let epoch = tracer.epoch();
    let mut profiler = config
        .profile
        .then(|| RunProfile::new(registry, epoch.elapsed_micros()));
    let mut checkpoints_written = 0u64;

    let supervising = config.max_restarts > 0;
    let mut restarts = 0u32;
    let mut backoff =
        Backoff::new(Duration::from_millis(2), Duration::from_millis(50)).with_seed(0x464A_434B);
    let mut round = first_round;
    let mut chunks_done = 0u64;
    let mut completed = true;

    // The run's worker pool: threads are spawned once here and parked on
    // their channels between chunks; at one shard it has none and every
    // chunk simulates inline. The pool is sized to the host — shard
    // counts above the core count (the FJ01 1024-shard case) round-robin
    // onto the available workers deterministically.
    let pool = fj_par::WorkerPool::for_shards(shards);
    // Prefetching the next chunk pays only when workers simulate it
    // during the merge; inline it would just hold two chunks at once.
    let pipelined = pool.workers() > 0;
    let ctx = Arc::new(RunContext {
        start,
        step,
        packets: fleet.packets.clone(),
        events,
        poll_faults: poll_faults.clone(),
        epoch,
        chaos: config.chaos_panic.clone(),
    });
    // Hands one chunk's cells to the pool for the flight, stamped on the
    // trace epoch so profiler stats and merge-overlap accounting share
    // one time base. Yields the dispatch time with the pending handle.
    let dispatch = |window: ChunkWindow, cells: Vec<RouterCell>| {
        let ctx = Arc::clone(&ctx);
        let dispatched_us = epoch.elapsed_micros();
        let pending = pool.submit_profiled(
            cells,
            shards,
            move || epoch.elapsed_micros(),
            move |i, cell: &mut RouterCell| run_chunk(&ctx, window, i, cell),
        );
        (dispatched_us, pending)
    };
    let window_at = |first: u64| ChunkWindow {
        first,
        end: rounds_total.min(first.saturating_add(chunk_rounds)),
    };

    // Pipelined dispatch state. The first chunk is dispatched before the
    // loop; each iteration then waits on chunk N, dispatches chunk N+1
    // (when pipelined), and merges chunk N while N+1 simulates. `boundary` is
    // the worker-side rewind point for supervised restarts, captured at
    // every dispatch; the merge side needs none — it only runs after the
    // chunk succeeded.
    let mut window = window_at(round);
    let mut boundary: Option<Vec<BoundaryState>> =
        supervising.then(|| cells.iter().map(BoundaryState::capture).collect());
    let (mut dispatched_us, mut inflight) = dispatch(window, cells);
    // Merge interval of the previous chunk, awaiting overlap attribution
    // against the dispatch currently in flight.
    let mut overlap_pending: Option<std::ops::Range<u64>> = None;
    let final_cells: Vec<RouterCell>;
    loop {
        // Wait for the chunk's workers, supervising panics: restore the
        // chunk-boundary state, back off, re-dispatch the same window.
        let (cells_now, outs, chunk_stats) = loop {
            let fj_par::Completed {
                items: mut got,
                result,
                stats,
            } = inflight.wait();
            match result {
                Ok(results) => {
                    let mut outs = Vec::with_capacity(results.len());
                    let mut first_err = None;
                    for r in results {
                        match r {
                            Ok(o) => outs.push(o),
                            Err(e) => {
                                // First error in fleet order, matching
                                // the sequential loop.
                                first_err = Some(e);
                                break;
                            }
                        }
                    }
                    match first_err {
                        Some(e) => {
                            fleet.routers = got.into_iter().map(|c| c.router).collect();
                            return Err(e);
                        }
                        None => break (got, outs, stats),
                    }
                }
                Err(p) => {
                    // A wedged pool worker loses its shard's cells; only
                    // a complete set can be rewound and retried.
                    let restorable = got.len() == router_count;
                    if let (Some(bounds), true, true) =
                        (&boundary, restarts < config.max_restarts, restorable)
                    {
                        // Supervised recovery: count it, capture crash
                        // context, rewind every cell to the chunk
                        // boundary (panicked *and* healthy shards — a
                        // healthy shard already advanced through the
                        // chunk), back off, retry. Nothing here touches
                        // the deterministic surface: no events, no span
                        // ids, no series — only the recovery-excluded
                        // counter and the (armed-only) flight recorder.
                        restarts += 1;
                        if let Some(rc) = &recovery {
                            rc.recoveries.inc();
                        }
                        let _ = telemetry.trip_flight_recorder(
                            "shard worker panicked",
                            &[
                                ("shard", p.shard.to_string()),
                                ("chunk_first_round", window.first.to_string()),
                                ("restart", restarts.to_string()),
                            ],
                        );
                        for (cell, b) in got.iter_mut().zip(bounds.iter()) {
                            b.restore_into(cell);
                        }
                        std::thread::sleep(backoff.next_delay(Duration::ZERO));
                        (dispatched_us, inflight) = dispatch(window, got);
                    } else {
                        // Unsupervised (or budget exhausted): crash
                        // context first, then the panic proceeds exactly
                        // as a sequential run's would.
                        let _ = telemetry.trip_flight_recorder(
                            "shard worker panicked",
                            &[("shard", p.shard.to_string())],
                        );
                        p.resume();
                    }
                }
            }
        };
        debug_assert!(outs
            .iter()
            .all(|o| o.records.len()
                == usize::try_from(window.end - window.first).unwrap_or(usize::MAX)));

        // Merge-overlap attribution: how much of the previous chunk's
        // merge interval ran while this chunk's workers were still busy.
        // `dispatched_us + critical_end` is the absolute epoch time the
        // last worker finished its item loop.
        let merge_overlap_us = match (overlap_pending.take(), &chunk_stats) {
            (Some(prev), Some(stats)) => {
                let workers_end = dispatched_us.saturating_add(stats.critical_end_us());
                workers_end.min(prev.end).saturating_sub(prev.start)
            }
            _ => 0,
        };

        // Decide — and when pipelined start — the next chunk *before*
        // merging this one: that is the pipeline. `stop_after_chunks`
        // counts this chunk, so a stopping run never simulates past the
        // rounds it reports and the returned fleet state matches an
        // unpipelined engine's exactly.
        let stopping = config
            .stop_after_chunks
            .is_some_and(|n| chunks_done + 1 >= n);
        let has_next = window.end < rounds_total && !stopping;
        // Sim-side checkpoint snapshot, taken while the cells are in
        // hand (they may be re-dispatched below): the merge-owned traces
        // and telemetry are folded in at write time, after this chunk's
        // merge ran. The cells' sim state at this boundary is exactly
        // what the next dispatch starts from — the merge never touches
        // sim-side fields.
        let ckpt_cells = (config.checkpoints.is_some() && window.end < rounds_total)
            .then(|| capture_router_states(&cells_now));
        let mut cells_opt = Some(cells_now);
        let mut prefetched = None;
        if has_next && pipelined {
            if let Some(next_cells) = cells_opt.take() {
                boundary =
                    supervising.then(|| next_cells.iter().map(BoundaryState::capture).collect());
                prefetched = Some(dispatch(window_at(window.end), next_cells));
            }
        }

        // Chunk spans carry the window's sim extent; the whole-horizon
        // chunk reproduces the old `[start, end]` stamps exactly.
        let chunk_start = if window.first == 0 {
            start
        } else {
            round_time(start, step, window.first - 1)
        };
        let chunk_end = if window.end == rounds_total {
            end
        } else {
            round_time(start, step, window.end - 1)
        };
        // The sim span is begun only after the chunk's workers succeeded:
        // a supervised retry must not consume span ids, or resumed and
        // uninterrupted runs would diverge.
        let sim_span = tracer.begin_span("fleet_simulate", Some(root_span), chunk_start);
        tracer.end_span(sim_span, chunk_end);
        // The serial section the profiler attributes to "merge": worker
        // span absorption plus the sequential (round, router) replay. When
        // pipelined the next chunk is already simulating while this
        // runs — the interval is saved for overlap attribution above.
        let merge_started_us = profiler.as_ref().map(|_| epoch.elapsed_micros());
        // Fold each worker's complete stage totals (and span-drop
        // counts) into the sink before replay, in fleet order.
        for o in &outs {
            tracer.absorb_worker(Some(sim_span), &o.spans);
        }
        let merge_span = tracer.begin_span("fleet_merge", Some(root_span), chunk_start);
        merge_chunk(
            telemetry,
            tracer,
            sim_span,
            &metrics,
            &mut traces,
            outs,
            window,
            &mut trace,
            start,
            step,
        );
        tracer.end_span(merge_span, chunk_end);
        round = window.end;
        chunks_done += 1;

        // Alert evaluation at the chunk boundary, in sim time, *before*
        // the checkpoint write below: the checkpoint then carries the
        // post-eval engine state, so a resumed run continues the verdict
        // stream exactly (the boundary is never re-evaluated).
        if let Some(plane) = &mut alert_plane {
            plane.eval(telemetry, chunk_end);
        }

        if let (Some(p), Some(merge_started_us)) = (&mut profiler, merge_started_us) {
            let merge = merge_started_us..epoch.elapsed_micros();
            if prefetched.is_some() {
                overlap_pending = Some(merge.clone());
            }
            let stats = chunk_stats.unwrap_or_default();
            // With worker threads the per-worker spawn wait *is* the
            // dispatch queue wait (channel send + queueing behind earlier
            // shards on the same worker); inline there is no queue.
            let dispatch_wait_us = if pipelined { stats.spawn_wait_us() } else { 0 };
            let report = p.record_chunk(&stats, merge, dispatch_wait_us, merge_overlap_us);
            let wall_secs = report.wall_secs;
            let merged_here = round.saturating_sub(first_round);
            let rate = if wall_secs > 0.0 {
                merged_here as f64 / wall_secs
            } else {
                0.0
            };
            p.rounds_per_sec.set(rate);
            let remaining = rounds_total.saturating_sub(round);
            let eta_secs = if rate > 0.0 {
                remaining as f64 / rate
            } else {
                0.0
            };
            let snapshot = RunProgress {
                chunk: chunks_done,
                rounds_done: round,
                rounds_total,
                routers: u64::try_from(router_count).unwrap_or(u64::MAX),
                shards: u64::try_from(shards).unwrap_or(u64::MAX),
                wall_secs,
                rounds_per_sec: rate,
                eta_secs,
                checkpoints_written,
                checkpoints_rejected: u64::from(checkpoints_rejected),
                recoveries: u64::from(restarts),
                efficiency: report.efficiency,
                merge_fraction: report.merge_fraction,
            };
            telemetry.publish_progress(snapshot);
            if let Some(path) = &config.progress_path {
                if let Err(e) = telemetry.write_progress_json(path) {
                    // A failed progress write degrades observability, not
                    // correctness; capture context if the recorder is armed.
                    let _ = telemetry
                        .trip_flight_recorder("progress write failed", &[("error", e.to_string())]);
                }
            }
        }

        if round >= rounds_total {
            final_cells = cells_opt.take().unwrap_or_default();
            break;
        }
        if let (Some(ckpt_cfg), Some(ckpt_routers)) = (&config.checkpoints, ckpt_cells) {
            checkpoints_written += 1;
            if let Some(rc) = &recovery {
                rc.written.inc();
            }
            // The checkpoint span and counter are recorded *before*
            // serialization, so the checkpoint file contains its own
            // bookkeeping and a resumed run continues the sequence
            // exactly. Both are deterministic: same chunking, same count.
            let ck_span = tracer.begin_span("fleet_checkpoint", Some(root_span), chunk_end);
            tracer.end_span(ck_span, chunk_end);
            let state = build_state(
                fingerprint,
                round,
                ckpt_routers,
                &traces,
                &trace,
                telemetry,
                alert_plane.as_ref().map(|p| p.engine.checkpoint_state()),
            );
            if let Err(e) = checkpoint::write(ckpt_cfg, round, &state) {
                // A failed write degrades durability, not correctness:
                // the run continues, resumable only from the previous
                // checkpoint. Worth a dump if the recorder is armed.
                let _ = telemetry
                    .trip_flight_recorder("checkpoint write failed", &[("error", e.to_string())]);
            }
        }
        if stopping {
            completed = false;
            final_cells = cells_opt.take().unwrap_or_default();
            break;
        }

        // Advance: a pipelined run already dispatched the next chunk
        // before the merge; an inline one dispatches it now.
        window = window_at(round);
        (dispatched_us, inflight) = match prefetched {
            Some(next) => next,
            None => {
                let next_cells = cells_opt.take().unwrap_or_default();
                boundary =
                    supervising.then(|| next_cells.iter().map(BoundaryState::capture).collect());
                dispatch(window, next_cells)
            }
        };
    }

    if completed {
        tracer.end_span(root_span, end);
    }
    fleet.routers = final_cells.into_iter().map(|c| c.router).collect();
    trace.routers = traces;
    Ok(StreamOutcome {
        trace,
        completed,
        rounds_done: round,
        rounds_total,
        restarts,
        resumed_at_round,
        checkpoints_rejected,
        efficiency: profiler.as_ref().map(|p| p.report(epoch.elapsed_micros())),
        alerts: alert_plane.map(|p| p.engine),
    })
}

/// Snapshots the sim-side per-router state at a chunk boundary, while
/// the cells are still in hand (the pipelined engine may dispatch them
/// for the next chunk before the checkpoint is written). The merge-owned
/// trace slot is left empty; [`build_state`] fills it at write time.
fn capture_router_states(cells: &[RouterCell]) -> Vec<checkpoint::RouterState> {
    cells
        .iter()
        .map(|c| checkpoint::RouterState {
            router: c.router.clone(),
            consecutive_failures: c.health.consecutive_failures(),
            total_failures: c.health.total_failures(),
            total_successes: c.health.total_successes(),
            predictor: c.predictor.counters_snapshot(),
            next_event: u64::try_from(c.next_event).unwrap_or(u64::MAX),
            trace: RouterTrace::default(),
        })
        .collect()
}

/// Serializes the engine state at a chunk boundary (`rounds_done` rounds
/// simulated *and* merged) into a checkpoint payload, marrying the
/// sim-side snapshot from [`capture_router_states`] with the merge-owned
/// traces and telemetry as they stand after the boundary's merge.
fn build_state(
    fingerprint: u64,
    rounds_done: u64,
    mut routers: Vec<checkpoint::RouterState>,
    traces: &[RouterTrace],
    trace: &FleetTrace,
    telemetry: &Telemetry,
    alerts: Option<fj_alerts::EngineState>,
) -> checkpoint::CheckpointState {
    for (rs, rt) in routers.iter_mut().zip(traces.iter()) {
        rs.trace = rt.clone();
    }
    checkpoint::CheckpointState {
        version: checkpoint::CHECKPOINT_VERSION,
        fingerprint,
        rounds_done,
        missed_polls: trace.missed_polls,
        total_wall: trace.total_wall.clone(),
        total_reported: trace.total_reported.clone(),
        total_traffic: trace.total_traffic.clone(),
        routers,
        telemetry: telemetry.checkpoint_state(),
        alerts,
    }
}

/// Phase 2 for one chunk: drains the columnar records in strict
/// `(round, router-index)` order, writing per-router series, fleet
/// totals, and all telemetry exactly as the sequential loop would have.
#[allow(clippy::too_many_arguments)]
fn merge_chunk(
    telemetry: &Telemetry,
    tracer: &TraceSink,
    sim_span: SpanId,
    metrics: &MergeMetrics,
    traces: &mut [RouterTrace],
    mut outs: Vec<ChunkOutput>,
    window: ChunkWindow,
    trace: &mut FleetTrace,
    start: SimInstant,
    step: SimDuration,
) {
    let epoch = tracer.epoch();
    for round in window.first..window.end {
        let t = round_time(start, step, round);
        // Stamp the sim clock first: every event emitted this round —
        // gap causes included — carries the round's timestamp, so gap
        // markers on the trace join to their cause events by `ts`.
        telemetry.set_now(t);
        metrics.rounds.inc();
        let round_started = epoch.elapsed();
        let rec_index = usize::try_from(round - window.first).unwrap_or(usize::MAX);

        let mut total_wall = 0.0;
        let mut total_reported = 0.0;
        let mut total_traffic = 0.0;
        let mut reported_unknown = false;
        for (i, (rt, out)) in traces.iter_mut().zip(outs.iter_mut()).enumerate() {
            let rec = out.records[rec_index];
            // Adopt this router's worker spans for the round *before*
            // emitting its telemetry: sequential ids in strict
            // `(round, router-index)` order — the trace stream is
            // bit-identical at any shard count — and fault cause events
            // always land after the span they join to.
            let lane = u32::try_from(i + 1).unwrap_or(u32::MAX);
            for span_rec in out.spans.drain_through(round) {
                tracer.adopt(Some(sim_span), lane, span_rec, Some(&rt.name));
            }
            total_wall += rec.wall;
            total_traffic += rec.traffic_contrib;

            match rec.snmp {
                SnmpPoll::Value(v) => {
                    rt.psu_reported.push(t, v);
                    total_reported += v;
                    if let Some((before, _)) = rec.transition {
                        metrics.health[i].set(0.0);
                        telemetry.event(
                            Level::Info,
                            "fleet.collect",
                            "router health transition",
                            &[
                                ("router", rt.name.clone()),
                                ("from", before.label().to_owned()),
                                ("to", "healthy".to_owned()),
                            ],
                        );
                    }
                }
                SnmpPoll::Gap => {
                    // Missed poll: an explicit gap, never a zero. With a
                    // contributor unknown, the fleet total is unknown
                    // too.
                    rt.psu_reported.push_gap(t);
                    trace.missed_polls += 1;
                    reported_unknown = true;
                    metrics.snmp_gaps.inc();
                    telemetry.event(
                        Level::Warn,
                        "fleet.collect",
                        "snmp poll dropped, gap recorded",
                        &[("router", rt.name.clone()), ("series", "snmp".to_owned())],
                    );
                    if let Some((before, after)) = rec.transition {
                        metrics.health[i].set(health_level(after));
                        if after == HealthState::Quarantined {
                            metrics.quarantines.inc();
                        }
                        telemetry.event(
                            Level::Warn,
                            "fleet.collect",
                            "router health transition",
                            &[
                                ("router", rt.name.clone()),
                                ("from", before.label().to_owned()),
                                ("to", after.label().to_owned()),
                            ],
                        );
                        if before == HealthState::Healthy {
                            // Leaving Healthy is the dump trigger: the
                            // recorder (if armed) captures the recent
                            // span+event rings at the first failure.
                            let _ = telemetry.trip_flight_recorder(
                                "router health ladder left healthy",
                                &[
                                    ("router", rt.name.clone()),
                                    ("to", after.label().to_owned()),
                                ],
                            );
                        }
                    }
                }
                SnmpPoll::NonReporting => total_reported += rec.wall,
            }

            match rec.wall_read {
                WallRead::Value => rt.wall.push(t, rec.wall),
                WallRead::Gap => {
                    rt.wall.push_gap(t);
                    trace.missed_polls += 1;
                    metrics.wall_gaps.inc();
                    telemetry.event(
                        Level::Warn,
                        "fleet.collect",
                        "wall-meter read dropped, gap recorded",
                        &[("router", rt.name.clone()), ("series", "wall".to_owned())],
                    );
                }
                WallRead::NotInstrumented => {}
            }

            rt.traffic.push(t, rec.traffic);
            if let Some(p) = rec.predicted {
                rt.predicted.push(t, p);
                // Prediction-accuracy counters for the SLO plane: every
                // predicted round has wall truth in hand; a miss is a
                // relative error outside the tolerance band. Both are
                // deterministic (same records ⇒ same counts) and feed
                // the `prediction_error_burn` burn-rate rule.
                metrics.predictions.inc();
                if (p - rec.wall).abs() > PREDICTION_ERROR_TOLERANCE * rec.wall.abs().max(1.0) {
                    metrics.prediction_errors.inc();
                }
            }
        }

        trace.total_wall.push(t, total_wall);
        if reported_unknown {
            trace.total_reported.push_gap(t);
            metrics.total_gaps.inc();
            telemetry.event(
                Level::Warn,
                "fleet.collect",
                "fleet total unknowable, gap recorded",
                &[("series", "fleet_total".to_owned())],
            );
        } else {
            trace.total_reported.push(t, total_reported);
        }
        trace.total_traffic.push(t, total_traffic);

        let round_secs = epoch.elapsed().saturating_sub(round_started).as_secs_f64();
        metrics.round_duration.observe(round_secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_fleet;
    use crate::config::FleetConfig;
    use crate::events::EventKind;
    use fj_units::Watts;

    /// One sim day at the 5-minute poll with router 0 metered, default
    /// engine knobs.
    fn collect_day(
        fleet: &mut Fleet,
        events: Vec<ScheduledEvent>,
        plan: &FaultPlan,
        telemetry: &Arc<Telemetry>,
    ) -> Result<FleetTrace, SimError> {
        collect_streaming(
            fleet,
            SimInstant::EPOCH,
            SimInstant::from_days(1),
            SimDuration::from_mins(5),
            events,
            &[0],
            plan,
            telemetry,
            &StreamConfig::default(),
        )
        .map(|outcome| outcome.trace)
    }

    fn day_trace(events: Vec<ScheduledEvent>) -> (Fleet, FleetTrace) {
        let mut fleet = build_fleet(&FleetConfig::small(11));
        let trace = collect_day(
            &mut fleet,
            events,
            &FaultPlan::clean(),
            fj_telemetry::global(),
        )
        .unwrap();
        (fleet, trace)
    }

    #[test]
    fn trace_has_expected_sample_counts() {
        let (fleet, trace) = day_trace(vec![]);
        let expected = 24 * 12 - 1; // one poll per 5 min, first consumed by priming
        assert_eq!(trace.total_wall.len(), expected);
        assert_eq!(trace.total_traffic.len(), expected);
        assert_eq!(trace.routers.len(), fleet.routers.len());
        // Instrumented router 0 has wall samples; others none.
        assert_eq!(trace.routers[0].wall.len(), expected);
        assert!(trace.routers[1].wall.is_empty());
    }

    #[test]
    fn non_reporting_models_have_empty_psu_series() {
        let (fleet, trace) = day_trace(vec![]);
        for (r, rt) in fleet.routers.iter().zip(&trace.routers) {
            let reports = r.sim.spec().sensor.reports();
            assert_eq!(
                !rt.psu_reported.is_empty(),
                reports,
                "{} ({})",
                rt.name,
                rt.model
            );
        }
    }

    #[test]
    fn power_step_event_visible_in_total() {
        let (_, quiet) = day_trace(vec![]);
        let (_, stepped) = day_trace(vec![ScheduledEvent {
            at: SimInstant::from_secs(12 * 3600),
            kind: EventKind::PowerStep {
                router: 0,
                delta: Watts::new(200.0),
            },
        }]);
        let before = |tr: &FleetTrace| {
            tr.total_wall
                .slice(SimInstant::from_secs(0), SimInstant::from_secs(11 * 3600))
                .mean()
                .unwrap()
        };
        let after = |tr: &FleetTrace| {
            tr.total_wall
                .slice(
                    SimInstant::from_secs(13 * 3600),
                    SimInstant::from_secs(24 * 3600),
                )
                .mean()
                .unwrap()
        };
        let quiet_delta = after(&quiet) - before(&quiet);
        let stepped_delta = after(&stepped) - before(&stepped);
        assert!(
            stepped_delta - quiet_delta > 150.0,
            "step visible: {stepped_delta} vs {quiet_delta}"
        );
    }

    #[test]
    fn predictions_collected_for_all_routers() {
        let (_, trace) = day_trace(vec![]);
        for rt in &trace.routers {
            assert!(!rt.predicted.is_empty(), "{} has predictions", rt.name);
            // Prediction is in a sane absolute range.
            let mean = rt.predicted.mean().unwrap();
            assert!(mean > 5.0 && mean < 1000.0, "{}: {mean}", rt.name);
        }
    }

    #[test]
    fn failed_polls_become_gaps_not_zeros() {
        let mut fleet = build_fleet(&FleetConfig::small(11));
        let plan = FaultPlan::new(0x90115).with_drop_rate(0.2);
        let trace = collect_day(&mut fleet, vec![], &plan, fj_telemetry::global()).unwrap();
        let ticks = 24 * 12 - 1;

        assert!(trace.missed_polls > 0, "plan injected failures");
        // Every reporting router's tick is either a sample or a gap.
        let mut router_gaps = 0;
        for rt in &trace.routers {
            if rt.psu_reported.is_empty() && !rt.psu_reported.has_gaps() {
                continue; // non-reporting model
            }
            assert_eq!(rt.psu_reported.len() + rt.psu_reported.gap_count(), ticks);
            router_gaps += rt.psu_reported.gap_count();
        }
        assert!(router_gaps > 0, "some SNMP polls failed");
        // No fabricated zeros anywhere.
        for rt in &trace.routers {
            assert!(rt.psu_reported.values().iter().all(|&v| v > 0.0));
        }
        // A missing contributor makes the fleet total a gap for that tick.
        assert_eq!(
            trace.total_reported.len() + trace.total_reported.gap_count(),
            ticks
        );
        assert!(trace.total_reported.has_gaps());
        // Wall meter on the instrumented router also degrades to gaps.
        let wall = &trace.routers[0].wall;
        assert_eq!(wall.len() + wall.gap_count(), ticks);

        // Aggregates over observed intervals stay comparable to a clean
        // collection: random misses shrink the denominator, they do not
        // drag the average down.
        let (_, clean) = day_trace(vec![]);
        let until = SimInstant::from_days(1);
        let faulty_mean = trace.total_reported.mean_power_observed(until).unwrap();
        let clean_mean = clean.total_reported.mean_power_observed(until).unwrap();
        let rel = (faulty_mean - clean_mean).abs() / clean_mean;
        assert!(
            rel < 0.01,
            "observed-interval mean within 1%: faulty {faulty_mean:.1} vs clean {clean_mean:.1}"
        );
    }

    #[test]
    fn every_gap_marker_has_a_cause_event() {
        let telemetry = Telemetry::with_capacity(16384);
        let mut fleet = build_fleet(&FleetConfig::small(11));
        let plan = FaultPlan::new(0x6A9_0002).with_drop_rate(0.2);
        let trace = collect_day(&mut fleet, vec![], &plan, &telemetry).unwrap();
        assert!(trace.missed_polls > 0, "plan injected failures");
        assert!(
            telemetry.events().evicted() == 0,
            "ring must hold all events"
        );

        let has_cause = |at: SimInstant, series: &str, router: Option<&str>| {
            telemetry
                .events()
                .events_where(|e| {
                    e.ts == at
                        && e.target == "fleet.collect"
                        && e.field("series").is_some_and(|s| s == series)
                        && router.is_none_or(|r| e.field("router").is_some_and(|f| f == r))
                })
                .len()
                == 1
        };
        for rt in &trace.routers {
            for &g in rt.psu_reported.gaps() {
                assert!(has_cause(g, "snmp", Some(&rt.name)), "{} @ {g:?}", rt.name);
            }
            for &g in rt.wall.gaps() {
                assert!(has_cause(g, "wall", Some(&rt.name)), "{} @ {g:?}", rt.name);
            }
        }
        for &g in trace.total_reported.gaps() {
            assert!(has_cause(g, "fleet_total", None), "total @ {g:?}");
        }

        // The gaps_total counter agrees with the trace's own count
        // (fleet-total gaps are derived, not missed polls).
        let reg = telemetry.registry();
        let counted = reg.counter("gaps_total", &[("source", "snmp")]).get()
            + reg.counter("gaps_total", &[("source", "wall")]).get();
        assert_eq!(counted, trace.missed_polls);
        assert!(
            reg.counter_total("gaps_total") > counted,
            "total gaps counted too"
        );
    }

    #[test]
    fn non_positive_step_is_a_typed_error() {
        let mut fleet = build_fleet(&FleetConfig::small(11));
        let err = collect_streaming(
            &mut fleet,
            SimInstant::EPOCH,
            SimInstant::from_days(1),
            SimDuration::ZERO,
            vec![],
            &[],
            &FaultPlan::clean(),
            &Telemetry::with_capacity(16),
            &StreamConfig::default(),
        )
        .expect_err("a zero poll period cannot be collected");
        assert!(matches!(err, SimError::InvalidCollection(_)), "{err}");
        assert!(err.to_string().contains("poll period"), "{err}");
    }

    #[test]
    fn event_for_a_router_outside_the_fleet_is_a_typed_error() {
        let mut fleet = build_fleet(&FleetConfig::small(11));
        let routers = fleet.routers.len();
        let event = ScheduledEvent {
            at: SimInstant::from_secs(3600),
            kind: EventKind::PowerStep {
                router: routers,
                delta: Watts::new(10.0),
            },
        };
        let err = collect_day(
            &mut fleet,
            vec![event],
            &FaultPlan::clean(),
            &Telemetry::with_capacity(16),
        )
        .expect_err("an out-of-range event target cannot be applied");
        assert!(matches!(err, SimError::InvalidCollection(_)), "{err}");
        assert!(err
            .to_string()
            .contains(&format!("targets router {routers}")));
        // Rejected before the engine took the routers.
        assert_eq!(fleet.routers.len(), routers);
    }

    #[test]
    fn traffic_total_positive_and_diurnal() {
        let (_, trace) = day_trace(vec![]);
        let night = trace
            .total_traffic
            .slice(
                SimInstant::from_secs(2 * 3600),
                SimInstant::from_secs(4 * 3600),
            )
            .mean()
            .unwrap();
        let afternoon = trace
            .total_traffic
            .slice(
                SimInstant::from_secs(14 * 3600),
                SimInstant::from_secs(16 * 3600),
            )
            .mean()
            .unwrap();
        assert!(afternoon > night, "afternoon {afternoon} night {night}");
    }

    #[test]
    fn chunked_streaming_equals_whole_horizon_run() {
        let plan = FaultPlan::new(0xC4A5).with_drop_rate(0.1);
        let run = |chunk_rounds: u64, shards: usize| {
            let mut fleet = build_fleet(&FleetConfig::small(9));
            let telemetry = Telemetry::with_capacity(1 << 14);
            let config = StreamConfig {
                shards,
                chunk_rounds,
                ..StreamConfig::default()
            };
            let outcome = collect_streaming(
                &mut fleet,
                SimInstant::EPOCH,
                SimInstant::from_days(1),
                SimDuration::from_mins(5),
                vec![],
                &[0, 3],
                &plan,
                &telemetry,
                &config,
            )
            .unwrap();
            assert!(outcome.completed);
            assert_eq!(outcome.rounds_done, outcome.rounds_total);
            (outcome.trace, fleet.routers[4].sim.now())
        };
        let baseline = run(0, 1);
        // 37 does not divide the 287-round horizon: the final chunk is
        // ragged; 1-round chunks exercise the maximal boundary count.
        for chunk in [37, 1, 288] {
            for shards in [1, 4] {
                assert_eq!(
                    run(chunk, shards),
                    baseline,
                    "chunk={chunk} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn stop_after_chunks_reports_partial_progress() {
        let mut fleet = build_fleet(&FleetConfig::small(5));
        let telemetry = Telemetry::with_capacity(1 << 10);
        let config = StreamConfig {
            shards: 2,
            chunk_rounds: 50,
            stop_after_chunks: Some(2),
            ..StreamConfig::default()
        };
        let outcome = collect_streaming(
            &mut fleet,
            SimInstant::EPOCH,
            SimInstant::from_days(1),
            SimDuration::from_mins(5),
            vec![],
            &[0],
            &FaultPlan::clean(),
            &telemetry,
            &config,
        )
        .unwrap();
        assert!(!outcome.completed);
        assert_eq!(outcome.rounds_done, 100);
        assert_eq!(outcome.rounds_total, 287);
        assert_eq!(outcome.trace.total_wall.len(), 100);
    }
}
