//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <census|switch_ops|link_sleeping|snmp_walk|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs in its own process on inputs generated from the
//! seed. `--trace 0` measures the end-to-end metrics for `--seconds`
//! seconds with the program's profiler off; `--trace 1` reports the
//! per-layer metrics, timed around calls into each layer's public
//! functions from this package (nothing is traced inside the program).
//! Every run checks the program's outputs, prints its metrics by name
//! with units and sample counts, and ends with one JSON result line; it
//! exits non-zero when an output check fails. `--workload all` runs the
//! four workloads one after another, each in a child process. See
//! `METRICS.md` for what each metric means and which change should move
//! it.

mod digest;
mod fleet;
mod host;
mod hypnos;
mod replay;
mod report;
mod snmp;
mod speed;
mod stats;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{Metrics, END_TO_END, EXTRA, PER_LAYER};

/// The seed whose outputs are pinned by digest.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Failure reasons kept per run; the failure count stays exact.
const MAX_REASONS: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Census,
    SwitchOps,
    LinkSleeping,
    SnmpWalk,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Census,
        Workload::SwitchOps,
        Workload::LinkSleeping,
        Workload::SnmpWalk,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Census => "census",
            Workload::SwitchOps => "switch_ops",
            Workload::LinkSleeping => "link_sleeping",
            Workload::SnmpWalk => "snmp_walk",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Workload parameters, for provenance.
    pub params: Vec<(&'static str, String)>,
    /// Operations attempted: router-rounds, decisions, or gets.
    pub attempted: u64,
    /// Of those, failed: an error, a panic, or a failed output check.
    pub failed: u64,
    /// Why checks failed.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Lines printed after the metrics (e.g. which percentile a tail is).
    pub notes: Vec<String>,
}

impl Run {
    /// Builds the workload's inputs [`SETUP_REPEATS`] times and keeps the
    /// last build. `setup_s` is the median build time in reference-host
    /// seconds ([`speed`]); `setup_s_raw` the median as measured.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> T) -> T {
        let mut raw = Vec::with_capacity(SETUP_REPEATS);
        let mut normalized = Vec::with_capacity(SETUP_REPEATS);
        let mut built = None;
        for _ in 0..SETUP_REPEATS {
            drop(built.take());
            let bracket = speed::Bracket::open();
            let t0 = Instant::now();
            built = Some(build());
            let secs = t0.elapsed().as_secs_f64();
            raw.push(secs);
            normalized.push(secs * bracket.close());
        }
        let n = SETUP_REPEATS as u64;
        self.metrics.set("setup_s", median_of(&normalized), n);
        self.metrics.set("setup_s_raw", median_of(&raw), n);
        built.expect("SETUP_REPEATS > 0")
    }

    /// Counts `ops` failed operations and keeps the first few reasons.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.failures.len() < MAX_REASONS {
            self.failures.push(why);
        }
    }

    /// Calls `unit` (with its index) until `seconds` of wall time have
    /// passed, and records the process CPU time the phase used as
    /// `cpu_s`. The phase ends with the unit running at the deadline, so
    /// the CPU time is scaled to exactly `seconds` of wall time: runs
    /// that finish a different number of whole units stay comparable.
    pub fn timed_phase(&mut self, seconds: f64, mut unit: impl FnMut(&mut Run, usize)) {
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let mut i = 0;
        while t0.elapsed().as_secs_f64() < seconds {
            unit(self, i);
            i += 1;
        }
        let wall = t0.elapsed().as_secs_f64();
        match (cpu0, host::cpu_seconds()) {
            (Some(a), Some(b)) => self.metrics.set("cpu_s", (b - a) * seconds / wall, 1),
            _ => self.fail(0, "process CPU time unreadable".to_owned()),
        }
    }
}

/// Median of a non-empty sample; NaN (rejected by the result check)
/// when empty.
pub fn median_of(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(f64::NAN)
}

/// One measured unit of a workload: the operations it completed, the
/// seconds of timed work they took, and the factor that turns those
/// seconds into reference-host seconds ([`speed::Bracket::close`]).
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    pub ops: f64,
    pub secs: f64,
    pub speed: f64,
}

/// Records the throughput of a run's units: `ops_per_s` is the median
/// unit's operations per reference-host second, `alias` (the workload's
/// own name for it) the same, and `ops_per_s_raw` the median unit's
/// operations per second as measured.
pub fn record_throughput(run: &mut Run, alias: &'static str, units: &[Unit]) {
    let n = units.len() as u64;
    let raw: Vec<f64> = units.iter().map(|u| u.ops / u.secs).collect();
    let normalized: Vec<f64> = units.iter().map(|u| u.ops / (u.secs * u.speed)).collect();
    let rate = median_of(&normalized);
    run.metrics.set("ops_per_s", rate, n);
    run.metrics.set(alias, rate, n);
    run.metrics.set("ops_per_s_raw", median_of(&raw), n);
}

/// Names the percentile a tail metric reports, with its evidence.
pub fn tail_note(metric: &str, t: stats::Tail, n: u64) -> String {
    format!(
        "{metric} is p{}: {} of {n} samples beyond it",
        t.percentile, t.beyond
    )
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = match v.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                    ),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `git describe` of the checkout, when it is a git checkout.
fn git_describe() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_owned();
    }
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// FNV-1a digest of the sources the benchmark builds — the root
/// manifest, `crates/`, `vendor/` and `perfbench/src/` — over sorted
/// relative paths and contents, so a result from a checkout without git
/// still names the code it measured.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.filter_map(Result::ok) {
            let path = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() => walk(&path, out),
                Ok(t) if t.is_file() => out.push(path),
                _ => {}
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml")];
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(std::path::Path::new(dir), &mut files);
    }
    files.sort();
    let mut d = digest::Digest::default();
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            return "unknown".to_owned();
        };
        d.bytes(f.to_string_lossy().as_bytes());
        d.u64(bytes.len() as u64);
        d.bytes(&bytes);
    }
    format!("{:016x} ({} files)", d.finish(), files.len())
}

fn provenance(args: &Args, workload: Workload, run: &Run) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpus = host::cpus_allowed().unwrap_or_else(|| "unknown".to_owned());
    let params: Vec<String> = run
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", report::json_string(k), report::json_string(v)))
        .collect();
    format!(
        "provenance: {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git\": {}, \"source\": {}, \"nproc\": {nproc}, \"cpus\": {}, \"rustc\": {}, \"params\": {{{}}}}}",
        report::json_string(workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::json_string(&git_describe()),
        report::json_string(&source_digest()),
        report::json_string(&cpus),
        report::json_string(env!("PERFBENCH_RUSTC_VERSION")),
        params.join(", ")
    )
}

/// Per-run scratch space inside the working directory, for checkpoint
/// files; removed when the run ends.
fn scratch_dir(workload: Workload) -> PathBuf {
    PathBuf::from(".perfbench_tmp").join(format!("{}-{}", workload.name(), std::process::id()))
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let scratch = scratch_dir(workload);
    let mut run = Run::default();
    let seconds = args.seconds as f64;
    let clock_ns = report::clock_overhead_ns();
    // A panic is a failed operation like any other: the run still ends
    // with its result line.
    let finished = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match (workload, args.trace) {
            (Workload::Census, false) => {
                fleet::timed(&fleet::CENSUS, args.seed, seconds, &scratch, &mut run);
            }
            (Workload::Census, true) => {
                fleet::traced(&fleet::CENSUS, args.seed, &scratch, &mut run, clock_ns);
            }
            (Workload::SwitchOps, false) => {
                fleet::timed(&fleet::SWITCH_OPS, args.seed, seconds, &scratch, &mut run);
            }
            (Workload::SwitchOps, true) => {
                fleet::traced(&fleet::SWITCH_OPS, args.seed, &scratch, &mut run, clock_ns);
            }
            (Workload::LinkSleeping, false) => hypnos::timed(args.seed, seconds, &mut run),
            (Workload::LinkSleeping, true) => hypnos::traced(args.seed, &mut run),
            (Workload::SnmpWalk, false) => snmp::timed(args.seed, seconds, &mut run),
            (Workload::SnmpWalk, true) => snmp::traced(args.seed, &mut run, clock_ns),
        }
    }));
    if finished.is_err() {
        run.attempted += 1;
        run.fail(1, "an operation panicked".to_owned());
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench_tmp");

    match host::peak_rss_mib() {
        Some(mib) => run.metrics.set("peak_rss_mib", mib, 1),
        None => run.failures.push("peak RSS unreadable".to_owned()),
    }
    if run.attempted == 0 {
        run.failures.push("no operation completed".to_owned());
    }
    let error_rate = run.failed as f64 / run.attempted.max(1) as f64;
    run.metrics.set("error_rate", error_rate, run.attempted);

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in catalogue {
        match run.metrics.get(name) {
            Some(v) if !v.value.is_finite() => {
                run.failures.push(format!("{name} is not a finite number"));
            }
            None if !args.trace => run.failures.push(format!("{name} was not measured")),
            _ => {}
        }
    }

    println!("{}", provenance(args, workload, &run));
    for (name, unit) in catalogue.iter().chain(EXTRA) {
        if let Some(v) = run.metrics.get(name) {
            println!("{name} = {} {unit} (n={})", v.value, v.samples);
        }
    }
    for note in &run.notes {
        println!("{note}");
    }
    for f in &run.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = run.failures.is_empty();
    println!(
        "{}",
        report::result_line(correct, run.attempted, run.failed, catalogue, &run.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, passing its output
/// through; fails if any child fails.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {}", w.name());
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    println!("all workloads: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(Workload::SnmpWalk) if std::env::var_os(PINNED_ENV).is_none() => {
            run_pinned().unwrap_or_else(|| run_one(&args, Workload::SnmpWalk))
        }
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    }
}

/// Set in the environment of a re-executed, CPU-pinned run.
const PINNED_ENV: &str = "PERFBENCH_PINNED";

/// Re-runs this invocation pinned to CPU 0 with `taskset`, passing its
/// output and exit code through; `None` when `taskset` cannot run, and
/// the workload then runs unpinned (the provenance line shows which).
///
/// `snmp_walk` is a closed loop with one request outstanding, so poller
/// and agent never need two CPUs at once. Unpinned, every get pays the
/// VM's cross-vCPU wake-up, whose latency follows the host's load: on
/// the reference host the spread of gets/s between runs was 0.24 of the
/// median unpinned and 0.06–0.08 pinned.
fn run_pinned() -> Option<ExitCode> {
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("taskset")
        .args(["-c", "0"])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, "1")
        .status()
        .ok()?;
    Some(ExitCode::from(
        status.code().map_or(1, |c| u8::try_from(c).unwrap_or(1)),
    ))
}
