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

echo "==> fleet throughput smoke (asserts shard-count determinism + dispatch-wait budget)"
# The ≥2-shard cells run on the persistent worker pool: cumulative
# dispatch wait (jobs queued behind busy workers) must stay under a
# fixed per-run budget. bench_fleet skips the budget with a note on
# single-core hosts, where one worker queues shards by construction.
cargo run -q --release -p fj-bench --bin bench_fleet -- --smoke --json \
    --max-dispatch-wait-secs 0.25 \
    --out target/telemetry/BENCH_fleet.json \
    --trace target/telemetry/trace-fleet.json

echo "==> efficiency report (profiler + progress plane must have produced output)"
grep -q '"efficiency"' target/telemetry/BENCH_fleet.json \
    || { echo "BENCH_fleet.json carries no parallel-efficiency report" >&2; exit 1; }
grep -q '"generated_by"' target/telemetry/BENCH_fleet.json \
    || { echo "BENCH_fleet.json carries no generated_by provenance" >&2; exit 1; }
test -s target/telemetry/progress-bench_fleet.json \
    || { echo "progress-bench_fleet.json missing or empty" >&2; exit 1; }

echo "==> perf gate (fresh smoke sweep vs committed BENCH_fleet.json)"
cargo run -q --release -p fj-bench --bin bench_compare

echo "==> crash-recovery smoke (kill mid-run, resume, diff vs uninterrupted)"
cargo run -q --release -p fj-bench --bin fleet_recover -- \
    --dir target/telemetry/recovery

echo "==> repository benchmark output checks (pinned digests, invariants, bit-identical replay)"
# Every perfbench run checks the engine's outputs and exits non-zero on
# a pinned-digest mismatch or a failed invariant; the traced runs also
# replay the engine layer by layer and fail unless the replay equals the
# engine's trace bit for bit.
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload all --seconds 1
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload census --trace 1
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload switch_ops --trace 1

if [[ "${CI_SOAK:-0}" == "1" ]]; then
    echo "==> chaos soak (full)"
    cargo test -p fj-faults --test chaos_soak -q -- --ignored
fi

echo "==> ok"
