#!/usr/bin/env bash
# Local CI gate — the same sequence the workflow runs. Everything is
# vendored in-repo, so the whole script works offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> fj-lint (domain rules, cold run with timing)"
rm -rf target/lint
cargo run -q -p fj-lint -- --timing target/lint/timing-cold.json
cp target/lint/findings.json target/lint/findings-cold.json

echo "==> fj-lint (warm run: cache must reproduce the cold bytes)"
cargo run -q -p fj-lint -- --timing target/lint/timing-warm.json
cmp target/lint/findings-cold.json target/lint/findings.json \
    || { echo "incremental cache changed findings.json" >&2; exit 1; }

echo "==> fj-lint wall-time gate (budget = 2x cold + 500ms, noise-calibrated)"
cold_ms=$(sed -n 's/.*"total_ms": \([0-9]*\).*/\1/p' target/lint/timing-cold.json)
cargo run -q -p fj-lint -- --max-wall-ms $((cold_ms * 2 + 500)) \
    --timing target/lint/timing-gated.json

echo "==> cargo test"
cargo test --workspace -q

echo "==> telemetry smoke"
cargo run -q -p fj-bench --bin telemetry_smoke

echo "==> alert smoke (default pack parses; seeded faults must fire)"
cargo run -q --release -p fj-bench --bin alert_smoke

echo "==> paper fidelity (every experiment runs; verdicts must match the expected drift set)"
cargo run -q --release -p fj-bench --bin exp -- all

echo "==> fleet throughput smoke (asserts shard-count determinism, writes a Perfetto trace)"
cargo run -q --release -p fj-bench --bin bench_fleet -- --smoke \
    --trace target/telemetry/trace-fleet.json

echo "==> progress report (the live progress plane must have written its snapshot)"
test -s target/telemetry/progress-bench_fleet.json \
    || { echo "progress-bench_fleet.json missing or empty" >&2; exit 1; }

echo "==> crash-recovery smoke (kill mid-run, resume, diff vs uninterrupted)"
cargo run -q --release -p fj-bench --bin fleet_recover -- \
    --dir target/telemetry/recovery

echo "==> perf gate (repository benchmark medians vs committed BENCH_perf.json)"
# Every perfbench run checks the engine's outputs and exits non-zero on
# a pinned-digest mismatch (seed 1) or a failed invariant; the traced
# runs also replay the engine layer by layer and fail unless the replay
# equals the engine's trace bit for bit. perf_gate then holds the medians
# of the five timed seeds to BENCHMARK.json's bounds, and the traced
# switch_ops dispatch wait and parallel efficiency, census merge cost and
# link_sleeping Hypnos decision to their own, against the committed
# BENCH_perf.json. To re-baseline
# after an intended change, copy target/perf/BENCH_perf.json to the root.
rm -rf target/perf && mkdir -p target/perf
perfbench=(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --)
for seed in 1 2 3 4 5; do
    "${perfbench[@]}" --workload all --seconds 5 --seed "$seed" | tee "target/perf/all-seed$seed.out"
done
"${perfbench[@]}" --workload census --trace 1 | tee target/perf/census-trace.out
"${perfbench[@]}" --workload switch_ops --trace 1 | tee target/perf/switch_ops-trace.out
"${perfbench[@]}" --workload link_sleeping --trace 1 | tee target/perf/link_sleeping-trace.out
cargo run -q --release -p fj-bench --bin perf_gate -- target/perf/*.out

if [[ "${CI_SOAK:-0}" == "1" ]]; then
    echo "==> chaos soak (full)"
    cargo test -p fj-faults --test chaos_soak -q -- --ignored
fi

echo "==> ok"
