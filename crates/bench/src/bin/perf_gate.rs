//! Perf-regression gate: perfbench medians against the committed
//! `BENCH_perf.json` baseline.
//!
//! ```text
//! cargo run --release -p fj-bench --bin perf_gate -- target/perf/*.out
//! ```
//!
//! Reads captured perfbench stdout from the files named on the command
//! line. Each `provenance:` line opens a run and the next `{"correct": …}`
//! result line closes it; a run that never closes (its process died)
//! counts as a failed capture. Timed runs (`--trace 0`) reduce to
//! per-workload, per-metric medians over their seeds; the traced census,
//! switch_ops and link_sleeping runs (`--trace 1`) are the layer ledger.
//! The fresh summary is written to `target/perf/BENCH_perf.json`, then
//! compared with the committed repository-root `BENCH_perf.json`:
//!
//! * every workload × `end_to_end` metric of `BENCHMARK.json` may worsen
//!   by at most the bound listed there, in the direction listed there.
//!   A pairing whose baseline runs spread (quartile distance over median)
//!   wider than its bound cannot resolve that bound: it prints
//!   `unresolved` and is not gated;
//! * switch_ops `par.dispatch_wait_s` ≤ 2 × baseline, and never above
//!   the alert pack's [`DISPATCH_WAIT_BUDGET_SECS`]: a pool that
//!   serializes its two shards queues one behind the other for every
//!   chunk. The relative cap is what catches that where simulation is
//!   fast: on a 2-core host such a pool waited 0.20 s against a 0.06 s
//!   baseline, under the 0.25 s budget;
//! * switch_ops `par.efficiency` ≥ 0.5 × baseline. A missing profiler
//!   reads 0 and fails here;
//! * census `isp.merge_ns_per_rr` ≤ 2 × baseline;
//! * link_sleeping `hypnos.decide_p50_ms` ≤ 2 × baseline: one Hypnos
//!   decision, the layer that sets link_sleeping's throughput.
//!
//! The two parallel bounds skip, with a printed note, when the switch_ops
//! provenance reports one CPU: the pool's one worker then runs both
//! shards in turn by construction. Every capture must also read
//! `correct: true` with `failed: 0`, and every metric must be present in
//! the fresh runs: a missing one fails, it never passes silently.
//!
//! To re-baseline after an intended change, run the captures as CI does
//! and copy `target/perf/BENCH_perf.json` over the repository-root file.
//!
//! Exit codes: 0 pass; 1 a bound failed, a metric is missing or a capture
//! failed its output checks; 2 no capture named, unreadable input, a
//! workload missing from the captures, or a baseline recorded at another
//! `--seconds` (`cpu_s` is scaled to it).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fj_alerts::pack::DISPATCH_WAIT_BUDGET_SECS;
use fj_bench::table::TablePrinter;
use serde::{Deserialize, Serialize};

/// Workloads whose traced run feeds the layer bounds.
const TRACED: [&str; 3] = ["census", "switch_ops", "link_sleeping"];

/// The part of `BENCHMARK.json` the gate reads.
#[derive(Debug, Deserialize)]
struct Spec {
    workloads: Vec<Named>,
    end_to_end: Vec<EndToEnd>,
}

#[derive(Debug, Deserialize)]
struct Named {
    name: String,
}

/// One end-to-end metric: the share of the baseline median by which it
/// may worsen, in its `better` direction (`"higher"` or `"lower"`).
#[derive(Debug, Deserialize)]
struct EndToEnd {
    name: String,
    better: String,
    bound: f64,
}

/// The fields of a perfbench `provenance:` line the gate reads.
#[derive(Debug, Deserialize)]
struct Provenance {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: u8,
    nproc: u64,
}

/// A perfbench result line. A non-finite metric prints as `null`.
#[derive(Debug, Deserialize)]
struct ResultLine {
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

#[derive(Debug, Deserialize)]
struct MetricValue {
    value: Option<f64>,
}

/// One captured perfbench run.
#[derive(Debug, Clone)]
struct Run {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    nproc: u64,
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// A metric over a set of runs: its median, its spread (quartile
/// distance over median), and the values, sorted.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Stat {
    median: f64,
    spread: f64,
    values: Vec<f64>,
}

/// The `BENCH_perf.json` document: medians of the timed runs per
/// workload and metric, and the traced runs' per-layer ledger.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Summary {
    /// `--seconds` of the timed runs.
    seconds: f64,
    /// CPUs the traced switch_ops run could use.
    nproc: u64,
    timed: BTreeMap<String, BTreeMap<String, Stat>>,
    traced: BTreeMap<String, BTreeMap<String, Stat>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Fail,
    Unresolved,
    Skipped,
}

/// One bound applied to one workload × metric.
#[derive(Debug)]
struct Check {
    workload: String,
    metric: String,
    base: Option<f64>,
    fresh: Option<f64>,
    limit: Option<f64>,
    higher_is_better: bool,
    verdict: Verdict,
}

/// Linear-interpolation quantile `q ∈ [0, 1]` of sorted, non-empty `v`.
fn quantile(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

impl Stat {
    fn of(mut values: Vec<f64>) -> Stat {
        values.sort_by(f64::total_cmp);
        let median = quantile(&values, 0.5);
        let iqr = quantile(&values, 0.75) - quantile(&values, 0.25);
        let spread = if iqr == 0.0 { 0.0 } else { iqr / median.abs() };
        Stat {
            median,
            spread,
            values,
        }
    }
}

fn parse_line<T: Deserialize>(json: &str, what: &str) -> Result<T, String> {
    serde_json::from_str(json).map_err(|e| format!("unreadable {what} line: {e}"))
}

/// The runs of one capture, in order.
fn parse_capture(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let mut open: Option<Run> = None;
    for line in text.lines() {
        if let Some(json) = line.strip_prefix("provenance: ") {
            let p: Provenance = parse_line(json, "provenance")?;
            runs.extend(open.take());
            open = Some(Run {
                workload: p.workload,
                seed: p.seed,
                seconds: p.seconds,
                trace: p.trace != 0,
                nproc: p.nproc,
                correct: false,
                failed: 0,
                metrics: BTreeMap::new(),
            });
        } else if line.starts_with("{\"correct\"") {
            let r: ResultLine = parse_line(line, "result")?;
            let Some(mut run) = open.take() else {
                return Err("a result line without a provenance line".to_owned());
            };
            run.correct = r.correct;
            run.failed = r.failed;
            run.metrics = r
                .metrics
                .into_iter()
                .filter_map(|(name, m)| Some((name, m.value?)))
                .collect();
            runs.push(run);
        }
    }
    runs.extend(open);
    Ok(runs)
}

/// Per-metric statistics over `runs`. A metric missing from any one run
/// is left out, so the comparison reads it as missing.
fn reduce(runs: &[&Run]) -> BTreeMap<String, Stat> {
    let names: BTreeSet<&String> = runs.iter().flat_map(|r| r.metrics.keys()).collect();
    names
        .into_iter()
        .filter_map(|name| {
            let values: Option<Vec<f64>> =
                runs.iter().map(|r| r.metrics.get(name).copied()).collect();
            Some((name.clone(), Stat::of(values?)))
        })
        .collect()
}

/// The fresh summary of `runs`, or why the captures cannot make one:
/// a workload with no timed run, a [`TRACED`] workload with no traced
/// run, or timed runs at more than one `--seconds`.
fn summarize(runs: &[Run], workloads: &[String]) -> Result<Summary, String> {
    let of = |w: &str, trace: bool| -> Vec<&Run> {
        runs.iter()
            .filter(|r| r.workload == w && r.trace == trace)
            .collect()
    };
    let mut timed = BTreeMap::new();
    for w in workloads {
        let runs = of(w, false);
        if runs.is_empty() {
            return Err(format!("no timed {w} run in the captures"));
        }
        timed.insert(w.clone(), reduce(&runs));
    }
    let mut traced = BTreeMap::new();
    for w in TRACED {
        let runs = of(w, true);
        if runs.is_empty() {
            return Err(format!("no traced {w} run in the captures"));
        }
        traced.insert(w.to_owned(), reduce(&runs));
    }
    let seconds = runs.iter().find(|r| !r.trace).map_or(0.0, |r| r.seconds);
    if runs.iter().any(|r| !r.trace && r.seconds != seconds) {
        return Err("the timed runs were captured at different --seconds".to_owned());
    }
    let nproc = of("switch_ops", true)
        .iter()
        .map(|r| r.nproc)
        .min()
        .unwrap_or(0);
    Ok(Summary {
        seconds,
        nproc,
        timed,
        traced,
    })
}

/// Captures that failed their own output checks, one line each.
fn failed_captures(runs: &[Run]) -> Vec<String> {
    runs.iter()
        .filter(|r| !r.correct || r.failed > 0)
        .map(|r| {
            format!(
                "{} seed {} {}: correct {}, {} failed operation(s)",
                r.workload,
                r.seed,
                if r.trace { "traced" } else { "timed" },
                r.correct,
                r.failed
            )
        })
        .collect()
}

fn passes(fresh: f64, limit: f64, higher_is_better: bool) -> bool {
    if higher_is_better {
        fresh >= limit
    } else {
        fresh <= limit
    }
}

impl Check {
    /// A check of `fresh` against `limit`, unless `hold` says why it is
    /// not gated. A missing value fails whatever `hold` says.
    fn new(
        (workload, metric): (&str, &str),
        (base, fresh): (Option<&Stat>, Option<&Stat>),
        limit: Option<f64>,
        higher_is_better: bool,
        hold: Option<Verdict>,
    ) -> Check {
        let (base, fresh) = (base.map(|s| s.median), fresh.map(|s| s.median));
        let verdict = match (fresh, limit, hold) {
            (Some(_), Some(_), Some(held)) => held,
            (Some(f), Some(l), None) if passes(f, l, higher_is_better) => Verdict::Ok,
            _ => Verdict::Fail,
        };
        Check {
            workload: workload.to_owned(),
            metric: metric.to_owned(),
            base,
            fresh,
            limit,
            higher_is_better,
            verdict,
        }
    }

    /// `fresh / baseline`, when both are there and the baseline is not 0.
    fn ratio(&self) -> Option<f64> {
        let (b, f) = (self.base?, self.fresh?);
        (b != 0.0).then_some(f / b)
    }

    /// The share of its allowance the fresh value used: 0 at the
    /// baseline, 1 at the limit, negative when it moved the right way.
    fn used(&self) -> Option<f64> {
        let (b, f, l) = (self.base?, self.fresh?, self.limit?);
        (l != b).then(|| (f - b) / (l - b))
    }
}

/// Every bound the gate applies, in print order; `Err` when the
/// baseline was recorded at another `--seconds`.
fn checks(spec: &Spec, base: &Summary, fresh: &Summary) -> Result<Vec<Check>, String> {
    if base.seconds != fresh.seconds {
        return Err(format!(
            "the baseline was recorded at --seconds {}, the captures at {}; cpu_s is \
             scaled to it, so re-baseline at the captures' --seconds",
            base.seconds, fresh.seconds
        ));
    }
    let mut out = Vec::new();
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let pick = |s: &Summary| s.timed.get(&w.name).and_then(|t| t.get(&m.name)).cloned();
            let (b, f) = (pick(base), pick(fresh));
            let higher = m.better == "higher";
            let limit = b.as_ref().map(|b| {
                if higher {
                    b.median * (1.0 - m.bound)
                } else {
                    b.median * (1.0 + m.bound)
                }
            });
            let hold = b
                .as_ref()
                .is_some_and(|b| b.spread > m.bound)
                .then_some(Verdict::Unresolved);
            out.push(Check::new(
                (&w.name, &m.name),
                (b.as_ref(), f.as_ref()),
                limit,
                higher,
                hold,
            ));
        }
    }
    let parallel = (fresh.nproc <= 1).then_some(Verdict::Skipped);
    let layer = |w: &str, metric: &str, higher: bool, limit: &dyn Fn(f64) -> f64, hold| {
        let pick = |s: &Summary| s.traced.get(w).and_then(|t| t.get(metric)).cloned();
        let (b, f) = (pick(base), pick(fresh));
        let l = b.as_ref().map(|b| limit(b.median));
        Check::new((w, metric), (b.as_ref(), f.as_ref()), l, higher, hold)
    };
    out.push(layer(
        "switch_ops",
        "par.dispatch_wait_s",
        false,
        &|b| DISPATCH_WAIT_BUDGET_SECS.min(2.0 * b),
        parallel,
    ));
    out.push(layer(
        "switch_ops",
        "par.efficiency",
        true,
        &|b| 0.5 * b,
        parallel,
    ));
    out.push(layer(
        "census",
        "isp.merge_ns_per_rr",
        false,
        &|b| 2.0 * b,
        None,
    ));
    out.push(layer(
        "link_sleeping",
        "hypnos.decide_p50_ms",
        false,
        &|b| 2.0 * b,
        None,
    ));
    Ok(out)
}

fn load<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading {} failed: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {} failed: {e}", path.display()))
}

fn load_spec(path: &Path) -> Result<Spec, String> {
    let spec: Spec = load(path)?;
    if let Some(m) = spec
        .end_to_end
        .iter()
        .find(|m| m.better != "higher" && m.better != "lower")
    {
        return Err(format!(
            "{}: {} has better = {:?}, not \"higher\" or \"lower\"",
            path.display(),
            m.name,
            m.better
        ));
    }
    Ok(spec)
}

fn repo_path(rel: &str) -> PathBuf {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    crate_dir.ancestors().nth(2).unwrap_or(crate_dir).join(rel)
}

fn cell(v: Option<f64>) -> String {
    v.map_or_else(|| "missing".to_owned(), |v| format!("{v:.4}"))
}

fn print_checks(checks: &[Check]) {
    let t = TablePrinter::new(&[13, 19, 14, 14, 10, 14, 10]);
    t.header(&[
        "workload",
        "metric",
        "baseline",
        "fresh",
        "fresh/base",
        "limit",
        "verdict",
    ]);
    for c in checks {
        let ratio = c
            .ratio()
            .map_or_else(|| "-".to_owned(), |r| format!("{r:.3}"));
        let limit = c.limit.map_or_else(
            || "-".to_owned(),
            |l| format!("{} {l:.4}", if c.higher_is_better { "≥" } else { "≤" }),
        );
        let verdict = match c.verdict {
            Verdict::Ok => "ok",
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "unresolved",
            Verdict::Skipped => "skipped",
        };
        t.row(&[
            c.workload.clone(),
            c.metric.clone(),
            cell(c.base),
            cell(c.fresh),
            ratio,
            limit,
            verdict.to_owned(),
        ]);
    }
}

/// What the table does not show: skipped and unresolved bounds, and the
/// gated pairing that moved furthest the wrong way.
fn notes(checks: &[Check], fresh: &Summary) -> Vec<String> {
    let mut out = Vec::new();
    if checks.iter().any(|c| c.verdict == Verdict::Skipped) {
        out.push(format!(
            "note: the switch_ops provenance reports nproc {}: the pool's one worker runs \
             both shards in turn, so the par.dispatch_wait_s and par.efficiency bounds skip",
            fresh.nproc
        ));
    }
    let unresolved = checks
        .iter()
        .filter(|c| c.verdict == Verdict::Unresolved)
        .count();
    if unresolved > 0 {
        out.push(format!(
            "note: {unresolved} pairing(s) unresolved: their baseline runs spread wider \
             than their bound"
        ));
    }
    let worst = checks
        .iter()
        .filter(|c| matches!(c.verdict, Verdict::Ok | Verdict::Fail))
        .filter_map(|c| Some((c, c.used()?)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((c, used)) = worst {
        out.push(format!(
            "worst gated: {} {} fresh/baseline {} ({:.0} % of its allowance)",
            c.workload,
            c.metric,
            c.ratio()
                .map_or_else(|| "-".to_owned(), |r| format!("{r:.3}")),
            used * 100.0
        ));
    }
    out
}

/// Parses every capture, summarizes, writes the fresh summary, and
/// compares it with the baseline. `Err` carries the exit-2 reason.
fn gate(paths: &[PathBuf]) -> Result<bool, String> {
    let spec = load_spec(&repo_path("BENCHMARK.json"))?;
    let mut runs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {} failed: {e}", path.display()))?;
        runs.extend(parse_capture(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let workloads: Vec<String> = spec.workloads.iter().map(|w| w.name.clone()).collect();
    let fresh = summarize(&runs, &workloads)?;

    let out = repo_path("target/perf/BENCH_perf.json");
    std::fs::create_dir_all(repo_path("target/perf"))
        .and_then(|()| {
            let body = serde_json::to_string_pretty(&fresh).expect("summary serialises");
            std::fs::write(&out, body + "\n")
        })
        .map_err(|e| format!("writing {} failed: {e}", out.display()))?;
    println!("fresh medians of {} run(s): {}", runs.len(), out.display());

    let base: Summary = load(&repo_path("BENCH_perf.json"))?;
    let checks = checks(&spec, &base, &fresh)?;
    print_checks(&checks);
    for note in notes(&checks, &fresh) {
        println!("{note}");
    }
    let failed_runs = failed_captures(&runs);
    for f in &failed_runs {
        println!("FAIL capture: {f}");
    }
    let failed = checks.iter().filter(|c| c.verdict == Verdict::Fail).count();
    Ok(failed == 0 && failed_runs.is_empty())
}

fn main() -> ExitCode {
    let paths: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    if paths.is_empty() || paths.iter().any(|p| p.to_string_lossy().starts_with('-')) {
        eprintln!("usage: perf_gate CAPTURE... (captured perfbench stdout; no flags)");
        return ExitCode::from(2);
    }
    match gate(&paths) {
        Ok(true) => {
            println!("perf gate: pass");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("perf gate: FAILED");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf_gate: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "workloads": [{"name": "census"}, {"name": "switch_ops"}],
        "end_to_end": [
            {"name": "ops_per_s", "better": "higher", "bound": 0.25},
            {"name": "cpu_s", "better": "lower", "bound": 0.15}
        ]
    }"#;

    fn spec() -> Spec {
        serde_json::from_str(SPEC).expect("spec parses")
    }

    /// One run's captured stdout, in perfbench's format.
    fn capture(workload: &str, trace: bool, ok: (bool, u64), metrics: &[(&str, f64)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"u\"}}"))
            .collect();
        format!(
            "== {workload}\nprovenance: {{\"workload\": \"{workload}\", \"seed\": 1, \
             \"seconds\": 5, \"trace\": {}, \"git\": \"g\", \"nproc\": 2, \"cpus\": \"0-1\", \
             \"params\": {{\"shards\": \"2\"}}}}\nops_per_s = 1 1/s (n=1)\n\
             {{\"correct\": {}, \"attempted\": 10, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            u8::from(trace),
            ok.0,
            ok.1,
            body.join(", ")
        )
    }

    /// Three timed seeds per workload reading `ops` and `cpu`, and the
    /// three traced runs.
    fn captures(ops: f64, cpu: f64) -> Vec<Run> {
        let mut text = String::new();
        for w in ["census", "switch_ops"] {
            for _ in 0..3 {
                text += &capture(w, false, (true, 0), &[("ops_per_s", ops), ("cpu_s", cpu)]);
            }
            text += &capture(
                w,
                true,
                (true, 0),
                &[
                    ("isp.merge_ns_per_rr", 500.0),
                    ("par.dispatch_wait_s", 0.05),
                    ("par.efficiency", 0.1),
                ],
            );
        }
        text += &capture(
            "link_sleeping",
            true,
            (true, 0),
            &[("hypnos.decide_p50_ms", 0.7)],
        );
        parse_capture(&text).expect("captures parse")
    }

    fn summary(runs: &[Run]) -> Summary {
        summarize(runs, &["census".to_owned(), "switch_ops".to_owned()]).expect("complete")
    }

    fn verdict(checks: &[Check], workload: &str, metric: &str) -> Verdict {
        checks
            .iter()
            .find(|c| c.workload == workload && c.metric == metric)
            .expect("checked")
            .verdict
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Stat::of(vec![3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(Stat::of(vec![4.0, 1.0, 3.0, 2.0]).median, 2.5);
        let s = Stat::of(vec![5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(s.values, [1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.spread, (4.0 - 2.0) / 3.0);
        assert_eq!(Stat::of(vec![7.0]).spread, 0.0);
    }

    #[test]
    fn captures_parse_into_runs() {
        let runs = captures(1000.0, 4.0);
        assert_eq!(runs.len(), 9);
        assert_eq!(runs[0].workload, "census");
        assert!(!runs[0].trace && runs[3].trace);
        assert_eq!(runs[0].seconds, 5.0);
        assert_eq!(runs[0].metrics["ops_per_s"], 1000.0);
        // A result line with no provenance line before it is unreadable.
        assert!(parse_capture("{\"correct\": true}").is_err());
    }

    #[test]
    fn both_directions_pass_at_the_bound_and_fail_just_past_it() {
        let base = summary(&captures(1000.0, 4.0));
        let at = summary(&captures(1000.0 * (1.0 - 0.25), 4.0 * (1.0 + 0.15)));
        let c = checks(&spec(), &base, &at).expect("same seconds");
        assert_eq!(verdict(&c, "census", "ops_per_s"), Verdict::Ok);
        assert_eq!(verdict(&c, "census", "cpu_s"), Verdict::Ok);
        let past = summary(&captures(749.99, 4.601));
        let c = checks(&spec(), &base, &past).expect("same seconds");
        assert_eq!(verdict(&c, "census", "ops_per_s"), Verdict::Fail);
        assert_eq!(verdict(&c, "switch_ops", "cpu_s"), Verdict::Fail);
        // Moving the right way never fails.
        let better = summary(&captures(5000.0, 1.0));
        let c = checks(&spec(), &base, &better).expect("same seconds");
        assert!(c.iter().all(|c| c.verdict == Verdict::Ok));
    }

    #[test]
    fn a_metric_missing_from_a_fresh_run_fails() {
        let base = summary(&captures(1000.0, 4.0));
        let mut runs = captures(1000.0, 4.0);
        runs[1].metrics.remove("cpu_s");
        runs[7].metrics.remove("par.efficiency");
        let c = checks(&spec(), &base, &summary(&runs)).expect("same seconds");
        assert_eq!(verdict(&c, "census", "cpu_s"), Verdict::Fail);
        assert_eq!(verdict(&c, "switch_ops", "par.efficiency"), Verdict::Fail);
        assert_eq!(verdict(&c, "census", "ops_per_s"), Verdict::Ok);
    }

    #[test]
    fn missing_workloads_and_another_seconds_are_input_errors() {
        let runs = captures(1000.0, 4.0);
        let workloads = ["census".to_owned(), "switch_ops".to_owned()];
        let without = |drop: &dyn Fn(&Run) -> bool| -> Vec<Run> {
            runs.iter().filter(|r| !drop(r)).cloned().collect()
        };
        let no_timed = without(&|r| r.workload == "switch_ops" && !r.trace);
        assert!(summarize(&no_timed, &workloads).is_err());
        let no_traced = without(&|r| r.workload == "census" && r.trace);
        assert!(summarize(&no_traced, &workloads).is_err());
        let mut mixed = runs.clone();
        mixed[0].seconds = 25.0;
        assert!(summarize(&mixed, &workloads).is_err());

        let base = summary(&runs);
        let mut longer = base.clone();
        longer.seconds = 25.0;
        assert!(checks(&spec(), &longer, &base).is_err());
    }

    #[test]
    fn incorrect_failed_and_unclosed_captures_fail() {
        let m = [("ops_per_s", 1.0)];
        let text = capture("census", false, (true, 0), &m)
            + &capture("census", false, (false, 0), &m)
            + &capture("census", false, (true, 3), &m)
            + "provenance: {\"workload\": \"census\", \"seed\": 4, \"seconds\": 5, \
               \"trace\": 0, \"nproc\": 2}\n";
        let runs = parse_capture(&text).expect("parses");
        assert_eq!(runs.len(), 4);
        let failed = failed_captures(&runs);
        assert_eq!(failed.len(), 3, "{failed:?}");
        assert!(failed[2].contains("seed 4"));
    }

    #[test]
    fn one_cpu_switch_ops_skips_the_parallel_bounds_with_a_note() {
        let base = summary(&captures(1000.0, 4.0));
        let mut runs = captures(1000.0, 4.0);
        for r in &mut runs {
            if r.workload == "switch_ops" && r.trace {
                r.nproc = 1;
                r.metrics.insert("par.dispatch_wait_s".to_owned(), 9.0);
            }
        }
        let fresh = summary(&runs);
        let c = checks(&spec(), &base, &fresh).expect("same seconds");
        assert_eq!(
            verdict(&c, "switch_ops", "par.dispatch_wait_s"),
            Verdict::Skipped
        );
        assert_eq!(
            verdict(&c, "switch_ops", "par.efficiency"),
            Verdict::Skipped
        );
        assert_eq!(verdict(&c, "census", "isp.merge_ns_per_rr"), Verdict::Ok);
        assert!(notes(&c, &fresh).iter().any(|n| n.contains("nproc 1")));
        // Another workload's one-CPU provenance (snmp_walk pins itself)
        // skips nothing.
        for r in &mut runs {
            r.nproc = if r.workload == "switch_ops" { 2 } else { 1 };
        }
        let c = checks(&spec(), &base, &summary(&runs)).expect("same seconds");
        assert_eq!(
            verdict(&c, "switch_ops", "par.dispatch_wait_s"),
            Verdict::Fail
        );
    }

    #[test]
    fn layer_bounds_catch_queueing_a_lost_profiler_and_a_slow_merge() {
        let base = summary(&captures(1000.0, 4.0));
        let mut runs = captures(1000.0, 4.0);
        for r in runs.iter_mut().filter(|r| r.trace) {
            r.metrics.insert("isp.merge_ns_per_rr".to_owned(), 1000.01);
            // Over 2 × the 0.05 s baseline, under the absolute budget.
            r.metrics.insert("par.dispatch_wait_s".to_owned(), 0.11);
            r.metrics.insert("par.efficiency".to_owned(), 0.0);
        }
        let c = checks(&spec(), &base, &summary(&runs)).expect("same seconds");
        for (w, m) in [
            ("census", "isp.merge_ns_per_rr"),
            ("switch_ops", "par.dispatch_wait_s"),
            ("switch_ops", "par.efficiency"),
        ] {
            assert_eq!(verdict(&c, w, m), Verdict::Fail, "{w} {m}");
        }
        // The budget caps the relative bound of a slow baseline.
        let mut slow = base.clone();
        fn wait(s: &mut Summary) -> &mut Stat {
            let t = s.traced.get_mut("switch_ops").expect("traced");
            t.get_mut("par.dispatch_wait_s").expect("wait")
        }
        wait(&mut slow).median = 0.2;
        let mut fresh = slow.clone();
        wait(&mut fresh).median = DISPATCH_WAIT_BUDGET_SECS;
        let c = checks(&spec(), &slow, &fresh).expect("same seconds");
        assert_eq!(
            verdict(&c, "switch_ops", "par.dispatch_wait_s"),
            Verdict::Ok
        );
        wait(&mut fresh).median = DISPATCH_WAIT_BUDGET_SECS + 0.01;
        let c = checks(&spec(), &slow, &fresh).expect("same seconds");
        assert_eq!(
            verdict(&c, "switch_ops", "par.dispatch_wait_s"),
            Verdict::Fail
        );
    }

    #[test]
    fn decide_bound_catches_a_doubled_decision_and_a_missing_traced_run() {
        let base = summary(&captures(1000.0, 4.0));
        let slower = |ms: f64| {
            let mut runs = captures(1000.0, 4.0);
            for r in runs.iter_mut().filter(|r| r.workload == "link_sleeping") {
                r.metrics.insert("hypnos.decide_p50_ms".to_owned(), ms);
            }
            checks(&spec(), &base, &summary(&runs)).expect("same seconds")
        };
        let m = ("link_sleeping", "hypnos.decide_p50_ms");
        assert_eq!(verdict(&slower(1.4), m.0, m.1), Verdict::Ok);
        assert_eq!(verdict(&slower(1.41), m.0, m.1), Verdict::Fail);
        // Without its traced run the captures cannot be summarized.
        let runs: Vec<Run> = captures(1000.0, 4.0)
            .into_iter()
            .filter(|r| r.workload != "link_sleeping")
            .collect();
        let workloads = ["census".to_owned(), "switch_ops".to_owned()];
        assert!(summarize(&runs, &workloads).is_err());
    }

    #[test]
    fn a_baseline_spread_wider_than_the_bound_is_unresolved() {
        let mut base = summary(&captures(1000.0, 4.0));
        let noisy = Stat::of(vec![600.0, 1000.0, 1400.0]);
        base.timed
            .get_mut("census")
            .expect("timed")
            .insert("ops_per_s".to_owned(), noisy);
        let c = checks(&spec(), &base, &summary(&captures(10.0, 4.0))).expect("same seconds");
        assert_eq!(verdict(&c, "census", "ops_per_s"), Verdict::Unresolved);
        assert_eq!(verdict(&c, "switch_ops", "ops_per_s"), Verdict::Fail);
    }

    #[test]
    fn committed_baseline_covers_the_benchmark() {
        let spec = load_spec(&repo_path("BENCHMARK.json")).expect("BENCHMARK.json");
        let base: Summary = load(&repo_path("BENCH_perf.json")).expect("BENCH_perf.json");
        for w in &spec.workloads {
            for m in &spec.end_to_end {
                let stat = base.timed.get(&w.name).and_then(|t| t.get(&m.name));
                let stat = stat.unwrap_or_else(|| panic!("{} {} baselined", w.name, m.name));
                assert!(stat.median.is_finite() && stat.median > 0.0);
                // The fleet engine's throughput must always be gated.
                if m.name == "ops_per_s" && TRACED.contains(&w.name.as_str()) {
                    assert!(stat.spread <= m.bound, "{} ops_per_s resolves", w.name);
                }
            }
        }
        let c = checks(&spec, &base, &base).expect("same seconds");
        assert_eq!(c.len(), spec.workloads.len() * spec.end_to_end.len() + 4);
        assert!(c.iter().all(|c| c.verdict != Verdict::Fail), "{c:?}");
    }
}
