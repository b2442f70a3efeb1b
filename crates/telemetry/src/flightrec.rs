//! Fault-triggered flight recorder.
//!
//! The bounded rings ([`crate::events::EventLog`], the
//! [`crate::trace::TraceSink`] span ring) already retain "what just
//! happened"; this module dumps them to disk at the moment something goes
//! wrong — a fault-health ladder leaving `Healthy`, or a shard worker
//! panic — so post-mortems get the recent causal history without paying
//! for always-on full traces.
//!
//! A recorder is **armed** with an experiment id and output directory
//! (the `exp` runner arms it for each experiment), then **tripped**
//! by fault sites. Tripping is once-per-arming: the first trip writes
//! `flightrec-<exp>.json` and later trips are no-ops, so the dump shows
//! the *first* failure, not the last. An unarmed trip is a strict no-op —
//! deterministic test scenarios that exercise fault paths without arming
//! see no new events or metrics.
//!
//! The dump joins fault cause events to the spans they interrupted: a gap
//! event with `series="snmp"` joins the `snmp_poll` span of the same sim
//! timestamp and router, `series="wall"` joins `autopower_frame`. Spans
//! already evicted from the bounded ring cannot join; the dump counts
//! those honestly in `unjoined_fault_events` rather than pretending
//! coverage.

use std::path::PathBuf;

use serde::Value;

use crate::events::Event;
use crate::render;
use crate::trace::{span_value, Span};
use crate::Telemetry;

/// Armed flight-recorder state, held by [`Telemetry`].
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    /// Experiment id naming the dump file.
    pub experiment: String,
    /// Directory receiving `flightrec-<exp>.json`.
    pub dir: PathBuf,
    /// Path of the dump once tripped (trip-once latch).
    pub dumped: Option<PathBuf>,
}

/// Fault-event `series` label → the span name it interrupts.
fn span_name_for_series(series: &str) -> Option<&'static str> {
    match series {
        "snmp" => Some("snmp_poll"),
        "wall" => Some("autopower_frame"),
        _ => None,
    }
}

/// Whether `span` is the recorded work that `event` interrupted: same
/// stage, same sim timestamp, same router attribution.
fn joins(span: &Span, event: &Event, span_name: &str) -> bool {
    span.name == span_name
        && span.sim_start == event.ts
        && span.field("router") == event.field("router")
}

/// Builds the dump document from the telemetry bundle's current rings.
pub(crate) fn document(
    telemetry: &Telemetry,
    experiment: &str,
    reason: &str,
    extra: &[(&str, String)],
) -> Value {
    let spans = telemetry.tracer().spans();
    let open = telemetry.tracer().open_spans();
    let events = telemetry.events().events();

    let mut join_entries: Vec<Value> = Vec::new();
    let mut unjoined = 0u64;
    for e in &events {
        let Some(series) = e.field("series") else {
            continue;
        };
        let Some(span_name) = span_name_for_series(series) else {
            continue;
        };
        match spans.iter().find(|s| joins(s, e, span_name)) {
            Some(s) => join_entries.push(Value::Map(vec![
                ("event_seq".to_owned(), Value::UInt(e.seq)),
                ("span_id".to_owned(), Value::UInt(s.id)),
                ("span".to_owned(), Value::Str(span_name.to_owned())),
            ])),
            None => unjoined += 1,
        }
    }

    let mut header = vec![
        ("experiment".to_owned(), Value::Str(experiment.to_owned())),
        ("reason".to_owned(), Value::Str(reason.to_owned())),
        (
            "sim_now_s".to_owned(),
            Value::Int(telemetry.now().as_secs()),
        ),
    ];
    for (k, v) in extra {
        header.push(((*k).to_owned(), Value::Str(v.clone())));
    }

    Value::Map(vec![
        ("flightrec".to_owned(), Value::Map(header)),
        (
            "spans_dropped".to_owned(),
            Value::UInt(telemetry.tracer().dropped()),
        ),
        (
            "spans".to_owned(),
            Value::Array(spans.iter().map(span_value).collect()),
        ),
        (
            "open_spans".to_owned(),
            Value::Array(open.iter().map(span_value).collect()),
        ),
        (
            "events".to_owned(),
            Value::Array(events.iter().map(render::event_value).collect()),
        ),
        ("joins".to_owned(), Value::Array(join_entries)),
        ("unjoined_fault_events".to_owned(), Value::UInt(unjoined)),
        // Latest live-progress snapshot (Null before any publish), so a
        // mid-run dump answers "how far had it got?" directly.
        (
            "progress".to_owned(),
            crate::progress::to_value(telemetry.latest_progress().as_ref()),
        ),
    ])
}
