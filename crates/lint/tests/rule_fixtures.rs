//! Golden fixtures: for every rule, one planted violation that must fire
//! and one justified suppression that must silence it.
//!
//! Each fixture is a small in-memory source file pushed through the same
//! pipeline as the driver (lex → mask → rules → pragmas → suppression),
//! so these tests pin both the detectors and the suppression semantics.

use fj_lint::findings::Finding;
use fj_lint::rules::{self, FileCtx};
use fj_lint::symbols::{self, Surface};
use fj_lint::workspace::FileClass;
use fj_lint::{lexer, suppress};

/// Runs the full single-file pipeline; returns surviving findings and the
/// number suppressed. Surface and shard adjacency are derived from the
/// path and code exactly as the driver derives them.
fn lint(rel: &str, class: FileClass, src: &str) -> (Vec<Finding>, usize) {
    let spans = lexer::lex(src);
    let code = lexer::code_only(src, &spans);
    let test_regions = lexer::test_regions(&code);
    let ctx = FileCtx {
        rel,
        class,
        surface: symbols::classify(&symbols::resolve(rel), class),
        shard_adjacent: symbols::references_shard_seam(&code),
        src,
        spans: &spans,
        code: &code,
        test_regions: &test_regions,
    };
    let mut raw = Vec::new();
    rules::check_file(&ctx, &mut raw);
    let pragmas = suppress::parse(src, &spans);
    for pragma in &pragmas {
        if !pragma.justified {
            raw.push(Finding {
                rule: "FJ00",
                file: rel.to_owned(),
                line: pragma.line,
                col: 1,
                message: "unjustified pragma".to_owned(),
            });
        }
    }
    let mut suppressed = 0usize;
    let mut surviving = Vec::new();
    for finding in raw {
        if finding.rule != "FJ00" && suppress::suppressed(&pragmas, finding.rule, finding.line) {
            suppressed += 1;
        } else {
            surviving.push(finding);
        }
    }
    (surviving, suppressed)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

const LIB: &str = "crates/telemetry/src/fixture.rs";

#[test]
fn fj01_wall_clock_fires_and_suppresses() {
    let fired = "fn sample() { let t = std::time::Instant::now(); drop(t); }\n";
    let (findings, _) = lint(LIB, FileClass::Library, fired);
    assert_eq!(rules_of(&findings), ["FJ01"]);
    assert_eq!(findings[0].line, 1);

    let suppressed = "// fj-lint: allow(FJ01) — this fixture is the wall-clock seam\n\
                      fn sample() { let t = std::time::Instant::now(); drop(t); }\n";
    let (findings, n) = lint(LIB, FileClass::Library, suppressed);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(n, 1);
}

#[test]
fn fj01_ignores_tests_and_comments() {
    let src = "// Instant::now in a comment is fine.\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn t() { let _x = std::time::Instant::now(); }\n\
               }\n";
    let (findings, _) = lint(LIB, FileClass::Library, src);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn fj02_panic_family_fires_and_suppresses() {
    let fired = "fn read(v: Option<u8>) -> u8 { v.unwrap() }\n";
    let (findings, _) = lint(LIB, FileClass::Library, fired);
    assert_eq!(rules_of(&findings), ["FJ02"]);

    let suppressed = "fn read(v: Option<u8>) -> u8 {\n\
                      \x20   // fj-lint: allow(FJ02) — v is seeded two lines up, the\n\
                      \x20   // invariant is local\n\
                      \x20   v.unwrap()\n\
                      }\n";
    let (findings, n) = lint(LIB, FileClass::Library, suppressed);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(n, 1);
}

#[test]
fn fj02_exempts_bins_and_test_modules() {
    let src = "fn read(v: Option<u8>) -> u8 { v.unwrap() }\n";
    let (findings, _) = lint("crates/bench/src/bin/f.rs", FileClass::Bin, src);
    assert!(findings.is_empty(), "bins may panic: {findings:?}");

    let inline = "#[cfg(test)]\nmod tests {\n    fn t() { None::<u8>.unwrap(); }\n}\n";
    let (findings, _) = lint(LIB, FileClass::Library, inline);
    assert!(findings.is_empty(), "test modules may panic: {findings:?}");
}

#[test]
fn fj03_bare_f64_quantity_fires_and_suppresses() {
    let fired = "pub fn input_power(p_out_w: f64, load: f64) -> f64 { p_out_w * load }\n";
    let (findings, _) = lint("crates/psu/src/fixture.rs", FileClass::Library, fired);
    assert_eq!(
        rules_of(&findings),
        ["FJ03"],
        "only the quantity name fires"
    );
    assert!(findings[0].message.contains("p_out_w"));

    let suppressed = "// fj-lint: allow(FJ03) — table-ingestion seam, suffix carries the unit\n\
         pub fn input_power(p_out_w: f64, load: f64) -> f64 { p_out_w * load }\n";
    let (findings, n) = lint("crates/psu/src/fixture.rs", FileClass::Library, suppressed);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(n, 1);
}

#[test]
fn fj03_scoped_to_power_model_crates() {
    let src = "pub fn input_power(p_out_w: f64) -> f64 { p_out_w }\n";
    let (findings, _) = lint("crates/traffic/src/fixture.rs", FileClass::Library, src);
    assert!(findings.is_empty(), "fj-traffic is out of FJ03 scope");
}

#[test]
fn fj04_naming_fires_and_suppresses() {
    let fired = "fn init(r: &Registry) { let _c = r.counter(\"polls\", &[]); }\n";
    let (findings, _) = lint(LIB, FileClass::Library, fired);
    assert_eq!(rules_of(&findings), ["FJ04"]);
    assert!(findings[0].message.contains("_total"));

    let suppressed = "fn init(r: &Registry) {\n\
         \x20   // fj-lint: allow(FJ04) — legacy dashboard name, renaming breaks panels\n\
         \x20   let _c = r.counter(\"polls\", &[]);\n\
         }\n";
    let (findings, n) = lint(LIB, FileClass::Library, suppressed);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(n, 1);
}

#[test]
fn fj04_catalogue_checks_both_directions() {
    let ctx_src = "fn init(r: &Registry) { let _c = r.counter(\"polls_total\", &[]); }\n";
    let spans = lexer::lex(ctx_src);
    let code = lexer::code_only(ctx_src, &spans);
    let ctx = FileCtx {
        rel: LIB,
        class: FileClass::Library,
        surface: Surface::Deterministic,
        shard_adjacent: false,
        src: ctx_src,
        spans: &spans,
        code: &code,
        test_regions: &[],
    };
    let regs = rules::fj04::registrations(&ctx);
    assert_eq!(regs.len(), 1);

    // Registered but uncatalogued: finding against the code.
    let design = "### Metric catalogue\n\n| `other_total` | something else |\n";
    let mut out = Vec::new();
    rules::fj04::check_catalogue(&regs, design, ctx_src, &mut out);
    assert!(
        out.iter()
            .any(|f| f.file == LIB && f.message.contains("polls_total")),
        "missing-from-catalogue not flagged: {out:?}"
    );
    // Catalogued but registered nowhere: finding against DESIGN.md.
    assert!(
        out.iter()
            .any(|f| f.file == "DESIGN.md" && f.message.contains("other_total")),
        "dead catalogue row not flagged: {out:?}"
    );

    // A design that matches the code exactly is clean.
    let design = "### Metric catalogue\n\n| `polls_total` | poll rounds |\n";
    let mut out = Vec::new();
    rules::fj04::check_catalogue(&regs, design, ctx_src, &mut out);
    assert!(out.is_empty(), "unexpected: {out:?}");
}

#[test]
fn fj04_span_naming_fires_and_suppresses() {
    let fired =
        "fn go(t: &TraceSink, s: SimInstant) { let _id = t.begin_span(\"FleetMerge\", None, s); }\n";
    let (findings, _) = lint(LIB, FileClass::Library, fired);
    assert_eq!(rules_of(&findings), ["FJ04"]);
    assert!(
        findings[0].message.contains("span `FleetMerge`"),
        "message must name the span: {findings:?}"
    );

    // Spans carry no `_total` / `_seconds` suffix rule — a snake_case
    // name is convention-clean.
    let clean =
        "fn go(t: &TraceSink, s: SimInstant) { let _id = t.begin_span(\"fleet_merge\", None, s); }\n";
    let (findings, _) = lint(LIB, FileClass::Library, clean);
    assert!(findings.is_empty(), "unexpected: {findings:?}");

    let suppressed = "fn go(t: &TraceSink, s: SimInstant) {\n\
         \x20   // fj-lint: allow(FJ04) — mirrors an upstream trace-viewer name\n\
         \x20   let _id = t.begin_span(\"FleetMerge\", None, s);\n\
         }\n";
    let (findings, n) = lint(LIB, FileClass::Library, suppressed);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(n, 1);
}

#[test]
fn fj04_span_catalogue_checks_both_directions() {
    let ctx_src = "fn go(t: &TraceSink, e: &WallEpoch, s: SimInstant) {\n\
         \x20   let _id = t.begin_span(\"fleet_merge\", None, s);\n\
         \x20   let _sp = StageSpan::begin(\"router_step\", s, e);\n\
         }\n";
    let spans = lexer::lex(ctx_src);
    let code = lexer::code_only(ctx_src, &spans);
    let ctx = FileCtx {
        rel: LIB,
        class: FileClass::Library,
        surface: Surface::Deterministic,
        shard_adjacent: false,
        src: ctx_src,
        spans: &spans,
        code: &code,
        test_regions: &[],
    };
    let regs = rules::fj04::registrations(&ctx);
    assert_eq!(regs.len(), 2, "both span forms collect: {regs:?}");
    assert!(regs.iter().all(|r| r.kind == "span"));

    // One registered span missing from the catalogue, one catalogued span
    // registered nowhere — and the metric catalogue must NOT absorb span
    // names (fleet_merge listed only under metrics still counts missing).
    let design = "### Metric catalogue\n\n| `fleet_merge` | wrong section |\n\n\
                  ### Span catalogue\n\n| `router_step` | one router-round |\n\
                  | `ghost_span` | never registered |\n";
    let mut out = Vec::new();
    rules::fj04::check_catalogue(&regs, design, ctx_src, &mut out);
    assert!(
        out.iter()
            .any(|f| f.file == LIB && f.message.contains("span `fleet_merge`")),
        "span missing from span catalogue not flagged: {out:?}"
    );
    assert!(
        out.iter()
            .any(|f| f.file == "DESIGN.md" && f.message.contains("span `ghost_span`")),
        "dead span catalogue row not flagged: {out:?}"
    );
    // Liveness is source-text based, so the misplaced metric row is not
    // "dead" — and router_step, catalogued and registered, must be clean.
    assert!(
        !out.iter().any(|f| f.message.contains("router_step")),
        "router_step is catalogued and registered: {out:?}"
    );

    // A design listing both spans in the span catalogue is clean.
    let design = "### Span catalogue\n\n| `fleet_merge` | merge phase |\n\
                  | `router_step` | one router-round |\n";
    let mut out = Vec::new();
    rules::fj04::check_catalogue(&regs, design, ctx_src, &mut out);
    assert!(out.is_empty(), "unexpected: {out:?}");
}

#[test]
fn fj04_alert_naming_fires_and_suppresses() {
    let fired = "fn pack() -> AlertRule { AlertRule::new(\"GapSLO\", Severity::Page, expr()) }\n";
    let (findings, _) = lint(LIB, FileClass::Library, fired);
    assert_eq!(rules_of(&findings), ["FJ04"]);
    assert!(
        findings[0].message.contains("alert `GapSLO`"),
        "message must name the alert: {findings:?}"
    );

    // Alerts carry no `_total` / `_seconds` suffix rule — a snake_case
    // name is convention-clean.
    let clean = "fn pack() -> AlertRule { AlertRule::new(\"gap_slo\", Severity::Page, expr()) }\n";
    let (findings, _) = lint(LIB, FileClass::Library, clean);
    assert!(findings.is_empty(), "unexpected: {findings:?}");

    let suppressed = "fn pack() -> AlertRule {\n\
         \x20   // fj-lint: allow(FJ04) — matches the upstream pager's routing key\n\
         \x20   AlertRule::new(\"GapSLO\", Severity::Page, expr())\n\
         }\n";
    let (findings, n) = lint(LIB, FileClass::Library, suppressed);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(n, 1);
}

#[test]
fn fj04_alert_catalogue_checks_both_directions() {
    let ctx_src = "fn pack() -> Vec<AlertRule> {\n\
         \x20   vec![AlertRule::new(\"gap_rate_slo\", Severity::Page, expr())]\n\
         }\n";
    let spans = lexer::lex(ctx_src);
    let code = lexer::code_only(ctx_src, &spans);
    let ctx = FileCtx {
        rel: LIB,
        class: FileClass::Library,
        surface: Surface::Deterministic,
        shard_adjacent: false,
        src: ctx_src,
        spans: &spans,
        code: &code,
        test_regions: &[],
    };
    let regs = rules::fj04::registrations(&ctx);
    assert_eq!(regs.len(), 1, "alert registration collects: {regs:?}");
    assert_eq!(regs[0].kind, "alert");

    // The metric catalogue must NOT absorb alert names, and a catalogued
    // alert registered nowhere is a dead row against DESIGN.md.
    let design = "### Metric catalogue\n\n| `gap_rate_slo` | wrong section |\n\n\
                  ### Alert catalogue\n\n| `ghost_alert` | never registered |\n";
    let mut out = Vec::new();
    rules::fj04::check_catalogue(&regs, design, ctx_src, &mut out);
    assert!(
        out.iter()
            .any(|f| f.file == LIB && f.message.contains("alert `gap_rate_slo`")),
        "alert missing from alert catalogue not flagged: {out:?}"
    );
    assert!(
        out.iter()
            .any(|f| f.file == "DESIGN.md" && f.message.contains("alert `ghost_alert`")),
        "dead alert catalogue row not flagged: {out:?}"
    );

    // A design listing the alert in the alert catalogue is clean.
    let design = "### Alert catalogue\n\n| `gap_rate_slo` | gap-rate SLO burn |\n";
    let mut out = Vec::new();
    rules::fj04::check_catalogue(&regs, design, ctx_src, &mut out);
    assert!(out.is_empty(), "unexpected: {out:?}");
}

#[test]
fn fj05_swallowed_io_fires_and_suppresses() {
    let fired = "fn beat(s: &UdpSocket, b: &[u8]) { let _ = s.send_to(b, ADDR); }\n";
    let (findings, _) = lint(LIB, FileClass::Library, fired);
    assert_eq!(rules_of(&findings), ["FJ05"]);

    let suppressed = "fn beat(s: &UdpSocket, b: &[u8]) {\n\
                      \x20   // fj-lint: allow(FJ05) — best-effort wakeup, loss is benign\n\
                      \x20   let _ = s.send_to(b, ADDR);\n\
                      }\n";
    let (findings, n) = lint(LIB, FileClass::Library, suppressed);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(n, 1);
}

#[test]
fn fj06_guard_across_telemetry_fires_and_suppresses() {
    let fired = "fn record(&self) {\n\
                 \x20   let mut units = self.units.lock();\n\
                 \x20   units.push(1);\n\
                 \x20   self.telemetry.event(Level::Warn, \"s\", \"m\", &[]);\n\
                 }\n";
    let (findings, _) = lint(LIB, FileClass::Library, fired);
    assert_eq!(rules_of(&findings), ["FJ06"]);
    assert_eq!(findings[0].line, 2);

    // Dropping the guard before the re-entry point is the real fix.
    let fixed = "fn record(&self) {\n\
                 \x20   let mut units = self.units.lock();\n\
                 \x20   units.push(1);\n\
                 \x20   drop(units);\n\
                 \x20   self.telemetry.event(Level::Warn, \"s\", \"m\", &[]);\n\
                 }\n";
    let (findings, _) = lint(LIB, FileClass::Library, fixed);
    assert!(
        findings.is_empty(),
        "drop(guard) must clear it: {findings:?}"
    );

    let suppressed = "fn record(&self) {\n\
                      \x20   // fj-lint: allow(FJ06) — telemetry here is a no-op stub\n\
                      \x20   let mut units = self.units.lock();\n\
                      \x20   units.push(1);\n\
                      \x20   self.telemetry.event(Level::Warn, \"s\", \"m\", &[]);\n\
                      }\n";
    let (findings, n) = lint(LIB, FileClass::Library, suppressed);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(n, 1);
}

#[test]
fn fj07_hash_collections_fire_and_suppress() {
    let fired = "fn index(m: &HashMap<u32, u32>) -> usize { m.len() }\n";
    let (findings, _) = lint(LIB, FileClass::Library, fired);
    assert_eq!(rules_of(&findings), ["FJ07"]);
    assert!(findings[0].message.contains("HashMap"));

    let suppressed = "// fj-lint: allow(FJ07) — keys are consumed via lookups only, the\n\
                      // map is never iterated\n\
                      fn index(m: &HashMap<u32, u32>) -> usize { m.len() }\n";
    let (findings, n) = lint(LIB, FileClass::Library, suppressed);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(n, 1);
}

#[test]
fn fj07_scoped_to_the_deterministic_surface() {
    let src = "fn index(s: &HashSet<u32>) -> usize { s.len() }\n";
    // Off-surface observability is out of scope.
    let (findings, _) = lint("crates/obs/src/fixture.rs", FileClass::Library, src);
    assert!(findings.is_empty(), "fj-obs is off-surface: {findings:?}");
    // Audited seams are out of scope.
    let (findings, _) = lint("crates/par/src/fixture.rs", FileClass::Library, src);
    assert!(
        findings.is_empty(),
        "fj-par is an audited seam: {findings:?}"
    );
    // Test modules inside deterministic-surface files are exempt.
    let inline =
        "#[cfg(test)]\nmod tests {\n    fn t(m: &HashMap<u32, u32>) -> usize { m.len() }\n}\n";
    let (findings, _) = lint(LIB, FileClass::Library, inline);
    assert!(findings.is_empty(), "test modules are exempt: {findings:?}");
    // Identifier boundaries: a type merely containing the token is clean.
    let boundary = "fn f(m: &MyHashMapLike) -> usize { m.len() }\n";
    let (findings, _) = lint(LIB, FileClass::Library, boundary);
    assert!(findings.is_empty(), "word boundary: {findings:?}");
}

const SHARDY: &str = "crates/isp/src/fixture.rs";

#[test]
fn fj08_shard_reduction_fires_and_suppresses() {
    // Direct chain: pool results straight into `.sum()`.
    let fired = "fn total(xs: Vec<f64>) -> f64 {\n\
                 \x20   fj_par::WorkerPool::for_shards(4).submit(xs, 4, |_, x| *x).wait().items.into_iter().sum()\n\
                 }\n";
    let (findings, _) = lint(SHARDY, FileClass::Library, fired);
    assert_eq!(rules_of(&findings), ["FJ08"]);
    assert!(findings[0].message.contains("sum"));

    // Bound result reduced later in the same block, turbofish spelling.
    let bound = "fn total(xs: Vec<f64>) -> f64 {\n\
                 \x20   let done = fj_par::WorkerPool::for_shards(4).submit(xs, 4, |_, x| *x).wait();\n\
                 \x20   let t = done.items.iter().sum::<f64>();\n\
                 \x20   t\n\
                 }\n";
    let (findings, _) = lint(SHARDY, FileClass::Library, bound);
    assert_eq!(rules_of(&findings), ["FJ08"], "bound-result form");

    // A profiled dispatch on a caller-held pool: the mapped results feed
    // `.sum()` through the completed dispatch.
    let profiled = "fn total(pool: &WorkerPool, xs: Vec<f64>) -> f64 {\n\
                    \x20   let done = pool.submit_profiled(xs, 4, clock, |_, x| *x).wait();\n\
                    \x20   done.result.unwrap_or_default().iter().sum()\n\
                    }\n";
    let (findings, _) = lint(SHARDY, FileClass::Library, profiled);
    assert_eq!(rules_of(&findings), ["FJ08"], "profiled pool form");

    // Routing through the Kahan seam is the sanctioned fix.
    let seam = "fn total(xs: Vec<f64>) -> f64 {\n\
                \x20   let done = fj_par::WorkerPool::for_shards(4).submit(xs, 4, |_, x| *x).wait();\n\
                \x20   PrefixSums::new(&done.items).total()\n\
                }\n";
    let (findings, _) = lint(SHARDY, FileClass::Library, seam);
    assert!(findings.is_empty(), "PrefixSums is exempt: {findings:?}");

    let suppressed = "fn total(xs: Vec<u64>) -> u64 {\n\
                      \x20   let done = fj_par::WorkerPool::for_shards(4).submit(xs, 4, |_, x| *x).wait();\n\
                      \x20   // fj-lint: allow(FJ08) — integer sum; addition commutes\n\
                      \x20   done.items.iter().sum()\n\
                      }\n";
    let (findings, n) = lint(SHARDY, FileClass::Library, suppressed);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(n, 1);
}

#[test]
fn fj08_needs_shard_adjacency_and_the_surface() {
    // A `.sum()` with no shard producer anywhere is out of scope.
    let plain = "fn total(xs: &[f64]) -> f64 { xs.iter().sum() }\n";
    let (findings, _) = lint(SHARDY, FileClass::Library, plain);
    assert!(findings.is_empty(), "no producer, no finding: {findings:?}");

    // The same shard-fed reduction off the surface is out of scope.
    let fired = "fn total(xs: Vec<f64>) -> f64 {\n\
                 \x20   fj_par::WorkerPool::for_shards(4).submit(xs, 4, |_, x| *x).wait().items.into_iter().sum()\n\
                 }\n";
    let (findings, _) = lint("crates/obs/src/fixture.rs", FileClass::Library, fired);
    assert!(findings.is_empty(), "fj-obs is off-surface: {findings:?}");
}

#[test]
fn fj09_relaxed_ordering_fires_and_suppresses() {
    let fired = "fn read(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n";
    let (findings, _) = lint(LIB, FileClass::Library, fired);
    assert_eq!(rules_of(&findings), ["FJ09"]);
    assert!(findings[0].message.contains("Relaxed"));

    let acqrel = "fn bump(a: &AtomicU64) -> u64 { a.fetch_add(1, Ordering::AcqRel) }\n";
    let (findings, _) = lint(LIB, FileClass::Library, acqrel);
    assert_eq!(rules_of(&findings), ["FJ09"], "AcqRel is in scope too");

    let suppressed = "fn read(a: &AtomicU64) -> u64 {\n\
                      \x20   // fj-lint: allow(FJ09) — single-writer progress counter;\n\
                      \x20   // readers tolerate staleness by design\n\
                      \x20   a.load(Ordering::Relaxed)\n\
                      }\n";
    let (findings, n) = lint(LIB, FileClass::Library, suppressed);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(n, 1);
}

#[test]
fn fj09_exempts_audited_seams_and_seqcst() {
    let src = "fn read(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n";
    // The audited counter seam may relax.
    let (findings, _) = lint("crates/telemetry/src/metrics.rs", FileClass::Library, src);
    assert!(findings.is_empty(), "metrics is audited: {findings:?}");
    let (findings, _) = lint("crates/par/src/pool.rs", FileClass::Library, src);
    assert!(findings.is_empty(), "fj-par is audited: {findings:?}");
    // SeqCst is always clean.
    let seqcst = "fn read(a: &AtomicU64) -> u64 { a.load(Ordering::SeqCst) }\n";
    let (findings, _) = lint(LIB, FileClass::Library, seqcst);
    assert!(
        findings.is_empty(),
        "SeqCst is the sanctioned default: {findings:?}"
    );
}

#[test]
fn fj00_unjustified_pragma_fires_and_cannot_self_suppress() {
    let src = "// fj-lint: allow(FJ02)\n\
               fn read(v: Option<u8>) -> u8 { v.unwrap() }\n";
    let (findings, n) = lint(LIB, FileClass::Library, src);
    // The FJ02 is suppressed (coverage does not require justification),
    // but the pragma itself is flagged.
    assert_eq!(rules_of(&findings), ["FJ00"]);
    assert_eq!(n, 1);

    // Even an allow(FJ00) pragma cannot silence FJ00.
    let src = "// fj-lint: allow-file(FJ00) — trying to excuse myself\n\
               // fj-lint: allow(FJ02)\n\
               fn read(v: Option<u8>) -> u8 { v.unwrap() }\n";
    let (findings, _) = lint(LIB, FileClass::Library, src);
    assert_eq!(rules_of(&findings), ["FJ00"]);
}

#[test]
fn wrapped_justifications_cover_their_whole_comment_block() {
    // The pragma's justification wraps over two further comment lines;
    // the violation sits on the line after the block and must still be
    // covered.
    let src = "fn read(v: Option<u8>) -> u8 {\n\
               \x20   // fj-lint: allow(FJ02) — the justification for this is\n\
               \x20   // long enough that it wraps across two comment lines\n\
               \x20   // before the code actually starts\n\
               \x20   v.unwrap()\n\
               }\n";
    let (findings, n) = lint(LIB, FileClass::Library, src);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    assert_eq!(n, 1);

    // One line further and coverage ends.
    let src = "fn read(v: Option<u8>) -> Option<u8> {\n\
               \x20   // fj-lint: allow(FJ02) — justified here\n\
               \x20   let w = v;\n\
               \x20   let x = w;\n\
               \x20   x.map(|y| y + Some(0u8).unwrap())\n\
               }\n";
    let (findings, _) = lint(LIB, FileClass::Library, src);
    assert_eq!(rules_of(&findings), ["FJ02"], "coverage must stay bounded");
}
