//! Fleet collection throughput across shard counts.
//!
//! Times [`fj_isp::trace::collect_streaming`] — the engine's one entry
//! point, which runs every chunk through one `fj_par::WorkerPool` — over
//! the small, census (1k) and census10k fleets at 1/2/4/8 shards,
//! printing router-rounds per second, the speedup over the single-shard
//! run (whose pool has no threads and simulates inline), the measured
//! peak resident set, and the run profiler's efficiency and merge share.
//! Every parallel trace is compared against the cell's first run — the
//! determinism contract means the numbers may *only* differ in wall-clock
//! time, and this bench asserts it on every cell. It prints and gates
//! nothing else: the perf-regression gate is `perf_gate` over the
//! repository benchmark.
//!
//! Flags (hand-rolled, no CLI dependency):
//!
//! * `--smoke` — the small fleet at 1/2 shards (whole-horizon and
//!   chunked) and the census fleet at 1/2/4 shards, for CI;
//! * `--trace PATH` — run one extra 4-shard traced smoke collection and
//!   write its Perfetto `trace_event` JSON to PATH, printing the
//!   self-time profile table.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fj_bench::table::{fmt, TablePrinter};
use fj_bench::EXPERIMENT_SEED;
use fj_faults::FaultPlan;
use fj_isp::trace::{collect_streaming, StreamConfig};
use fj_isp::{build_fleet, FleetConfig, FleetTrace, ParallelEfficiencyReport};
use fj_router_sim::SimError;
use fj_telemetry::{Telemetry, WallEpoch};
use fj_units::{SimDuration, SimInstant};

struct Args {
    smoke: bool,
    trace: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--trace" => match it.next() {
                Some(p) => args.trace = Some(PathBuf::from(p)),
                None => return Err("--trace needs a path".to_owned()),
            },
            other => {
                return Err(format!(
                    "unknown flag {other} (known: --smoke --trace PATH)"
                ))
            }
        }
    }
    Ok(args)
}

/// One sweep cell: a fleet size, a horizon, and a chunk size.
struct Config {
    label: &'static str,
    fleet: FleetConfig,
    days: u64,
    chunk_rounds: u64,
    shards: &'static [usize],
}

/// The sweep, smallest cells first, so the running peak-RSS column
/// reads each fleet size's own high-water mark as it grows.
fn sweep_grid(smoke: bool) -> Vec<Config> {
    let small = |days, chunk_rounds, shards| Config {
        label: "small",
        fleet: FleetConfig::small(EXPERIMENT_SEED),
        days,
        chunk_rounds,
        shards,
    };
    let census = |label, routers, days, chunk_rounds, shards| Config {
        label,
        fleet: FleetConfig::census_of(EXPERIMENT_SEED, routers),
        days,
        chunk_rounds,
        shards,
    };
    if smoke {
        vec![
            small(2, 0, &[1, 2]),
            small(2, 96, &[2]),
            // The pool-path cell on multi-core hosts: 1 000 routers in
            // 8-hour chunks through 4 shards.
            census("census", 1000, 1, 96, &[1, 2, 4]),
        ]
    } else {
        vec![
            small(28, 0, &[1, 2, 4, 8]),
            census("census", 1000, 7, 288, &[1, 2, 4, 8]),
            census("census10k", 10_000, 1, 96, &[1, 2, 4, 8]),
        ]
    }
}

/// The process's peak resident set so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line["VmHWM:".len()..]
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// One timed run: a fresh fleet and a private telemetry bundle, so
/// repeated runs never share counter state. The profiler is always on —
/// its per-chunk clock reads are noise next to the simulate/merge work
/// it measures — and the live progress file lands beside the other
/// telemetry artifacts for CI to upload.
fn run_once(
    cfg: &Config,
    shards: usize,
) -> Result<(FleetTrace, f64, Option<ParallelEfficiencyReport>), SimError> {
    let mut fleet = build_fleet(&cfg.fleet);
    let telemetry = Telemetry::with_capacity(1 << 10);
    let stream = StreamConfig {
        shards,
        chunk_rounds: cfg.chunk_rounds,
        profile: true,
        progress_path: Some(fj_bench::telemetry_dir().join("progress-bench_fleet.json")),
        ..StreamConfig::default()
    };
    let epoch = WallEpoch::now();
    let outcome = collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(cfg.days as i64),
        SimDuration::from_mins(5),
        vec![],
        &[],
        &FaultPlan::clean(),
        &telemetry,
        &stream,
    )?;
    Ok((
        outcome.trace,
        epoch.elapsed().as_secs_f64(),
        outcome.efficiency,
    ))
}

/// Runs the sweep (or the `--smoke` subset), printing one row per run
/// and asserting every run's trace equals its cell's first run.
fn run_sweep(smoke: bool) -> Result<(), SimError> {
    let t = TablePrinter::new(&[10, 9, 7, 7, 8, 10, 14, 9, 10, 7, 8]);
    t.header(&[
        "fleet",
        "routers",
        "days",
        "chunk",
        "shards",
        "secs",
        "rounds/sec",
        "speedup",
        "peak MiB",
        "eff",
        "merge%",
    ]);
    for cfg in &sweep_grid(smoke) {
        let routers = cfg.fleet.router_count();
        let mut first: Option<(FleetTrace, f64)> = None;
        for &shards in cfg.shards {
            let (trace, secs, efficiency) = run_once(cfg, shards)?;
            let router_rounds = (trace.total_wall.len() * routers) as f64;
            let speedup = match &first {
                None => 1.0,
                Some((seq, seq_secs)) => {
                    assert_eq!(
                        seq, &trace,
                        "{}-shard trace diverged from the cell baseline ({} × {}d, chunk {})",
                        shards, cfg.label, cfg.days, cfg.chunk_rounds
                    );
                    seq_secs / secs
                }
            };
            t.row(&[
                cfg.label.to_owned(),
                format!("{routers}"),
                format!("{}", cfg.days),
                format!("{}", cfg.chunk_rounds),
                format!("{shards}"),
                fmt(secs, 3),
                fmt(router_rounds / secs, 0),
                format!("{speedup:.2}x"),
                peak_rss_mib().map_or("-".to_owned(), |m| fmt(m, 1)),
                efficiency
                    .as_ref()
                    .map_or("-".to_owned(), |e| format!("{:.2}", e.efficiency)),
                efficiency.as_ref().map_or("-".to_owned(), |e| {
                    format!("{:.1}", e.merge_fraction * 100.0)
                }),
            ]);
            if first.is_none() {
                first = Some((trace, secs));
            }
        }
    }
    Ok(())
}

/// One instrumented 4-shard smoke collection with the causal tracer on,
/// exported as Chrome `trace_event` JSON plus a printed self-time
/// profile.
fn write_trace(path: &Path) -> Result<(), String> {
    let mut fleet = build_fleet(&FleetConfig::small(EXPERIMENT_SEED));
    let telemetry = Telemetry::with_capacity(1 << 10);
    collect_streaming(
        &mut fleet,
        SimInstant::EPOCH,
        SimInstant::from_days(2),
        SimDuration::from_mins(5),
        vec![],
        &[0, 3],
        &FaultPlan::clean(),
        &telemetry,
        &StreamConfig {
            shards: 4,
            ..Default::default()
        },
    )
    .map_err(|e| format!("traced collection failed: {e}"))?;
    println!("\n--- self-time profile (4-shard traced smoke run) ---");
    print!("{}", telemetry.tracer().render_profile());
    telemetry
        .write_trace(path)
        .map_err(|e| format!("writing {} failed: {e}", path.display()))?;
    println!(
        "trace: {} (load in Perfetto / chrome://tracing)",
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_fleet: {e}");
            return ExitCode::from(2);
        }
    };

    println!("==============================================================");
    println!("bench_fleet — sharded collection throughput");
    println!(
        "seed {EXPERIMENT_SEED}; {} cores available; traces asserted bit-identical; \
         peak MiB is the process's running VmHWM",
        fj_par::available_shards()
    );
    println!("==============================================================");

    if let Err(e) = run_sweep(args.smoke) {
        eprintln!("bench_fleet: sweep failed: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nall parallel traces bit-identical to sequential — determinism holds");

    if let Some(trace_path) = &args.trace {
        if let Err(e) = write_trace(trace_path) {
            eprintln!("bench_fleet: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_run_smallest_first_and_cover_the_census_scales() {
        for smoke in [true, false] {
            let sizes: Vec<usize> = sweep_grid(smoke)
                .iter()
                .map(|c| c.fleet.router_count())
                .collect();
            assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
        }
        let full: Vec<usize> = sweep_grid(false)
            .iter()
            .map(|c| c.fleet.router_count())
            .collect();
        assert!(full.contains(&1000), "1k census cell");
        assert!(full.contains(&10_000), "10k census cell");
        // The smoke census cell is chunked and reaches 4 shards.
        let smoke = sweep_grid(true);
        let census = smoke.iter().find(|c| c.label == "census").expect("cell");
        assert_eq!(census.fleet.router_count(), 1000);
        assert_eq!(census.chunk_rounds, 96);
        assert_eq!(census.shards, [1, 2, 4]);
    }

    #[test]
    fn smoke_sweep_runs_with_identical_traces() {
        run_sweep(true).expect("smoke sweep runs");
    }

    #[test]
    fn peak_rss_reads_the_process_high_water_mark() {
        let mib = peak_rss_mib().expect("VmHWM readable");
        assert!(mib > 0.0);
    }
}
