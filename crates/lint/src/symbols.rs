//! The workspace symbol pass: per-crate module resolution and the
//! deterministic-surface map.
//!
//! The FJ01 contract ("every fleet run replays byte-for-byte") is not a
//! property of individual statements — it is a property of *where* a
//! statement lives. `Ordering::Relaxed` inside `fj-telemetry::metrics`
//! is an audited monotonic counter; the same token inside `fj-isp`'s
//! merge would be a replay hazard. This pass gives the cross-file rules
//! (FJ07–FJ09) that context: it resolves every source file to exactly
//! one `(crate, module path)` via Cargo layout + the `mod` declarations
//! the lexer's code mask exposes, then classifies each module as on or
//! off the deterministic surface, seeded from the seams previous PRs
//! audited by hand (the `fj-telemetry::clock` wall seam, the `fj-par`
//! concurrency seam, the recovery/diagnostic planes of `fj-obs`,
//! `fj-telemetry::progress`, and `fj-telemetry::flightrec`).
//!
//! Resolution is **total**: any `.rs` path maps to exactly one module
//! identity, even for files no `mod` chain reaches (those are reported
//! with `declared: false` in the surface dump rather than dropped). A
//! proptest in `tests/symbols_props.rs` pins that totality.

use std::fmt::Write as _;

use crate::workspace::FileClass;

/// Where a module sits relative to the FJ01 determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// Sim-visible: outputs must be a pure function of seeds and the sim
    /// clock; the cross-file rules fire here.
    Deterministic,
    /// An audited seam (wall clock, monotonic counters, the `fj-par`
    /// pool): nondeterminism-adjacent constructs are this module's whole
    /// job and were reviewed as such.
    AuditedSeam,
    /// Off-surface observability: recovery counters, live progress,
    /// flight-recorder dumps — excluded from FJ01 comparisons by the
    /// runtime suites, so excluded from the surface rules too.
    Off,
}

impl Surface {
    /// Short label for reports and the surface dump.
    pub fn label(self) -> &'static str {
        match self {
            Surface::Deterministic => "deterministic",
            Surface::AuditedSeam => "audited-seam",
            Surface::Off => "off",
        }
    }
}

/// Modules that are audited seams, as `(member, module-path prefix)`.
/// An empty prefix covers the whole crate. Members are the directory
/// names under `crates/`; the root package never appears here.
const AUDITED_SEAMS: &[(&str, &str)] = &[
    // The one sanctioned home for `Instant::now` (PR 3).
    ("telemetry", "clock"),
    // Monotonic Relaxed counters/gauges: loads never feed back into sim
    // decisions, stores are commutative increments (PR 2 audit).
    ("telemetry", "metrics"),
    // The single audited concurrency seam: contiguous index shards with
    // stable index-order reduction (PR 4), including its profiled path
    // and the persistent worker pool (`pool` module): per-worker mpsc
    // channels with deterministic round-robin placement, per-item
    // catch_unwind, lowest-shard-wins panic attribution. The empty
    // prefix deliberately covers the whole crate, so a new module here
    // lands on the audited seam — adding one is an audit, not a lint fix.
    ("par", ""),
];

/// Modules off the deterministic surface, same shape as
/// [`AUDITED_SEAMS`]. These are the diagnostic/recovery planes the FJ01
/// runtime suites explicitly exclude from bit-for-bit comparisons.
const OFF_SURFACE: &[(&str, &str)] = &[
    // Parallel-efficiency reporting (PR 7) — wall-time derived.
    ("obs", ""),
    // Live run-progress plane (PR 7) — wall-time derived snapshots.
    ("telemetry", "progress"),
    // Flight recorder (PR 5) — trips on faults, dumps diagnostics.
    ("telemetry", "flightrec"),
];

/// One file resolved to its module identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleId {
    /// Workspace member key: the directory name under `crates/` (or
    /// `vendor/`), or `"."` for the root package.
    pub member: String,
    /// `::`-joined module path within the crate; empty for the crate
    /// root (`lib.rs`). Binary targets resolve as `bin::<name>`, test /
    /// bench / example files as `<kind>::<stem>`.
    pub path: String,
}

/// Resolves a workspace-relative `.rs` path to its module identity.
/// Total: every input yields exactly one identity.
pub fn resolve(rel: &str) -> ModuleId {
    let rel = rel.trim_start_matches('/');
    let (member, rest) = match rel
        .strip_prefix("crates/")
        .or_else(|| rel.strip_prefix("vendor/"))
    {
        Some(tail) => match tail.split_once('/') {
            Some((m, rest)) => (m.to_owned(), rest),
            None => (tail.to_owned(), ""),
        },
        None => (".".to_owned(), rel),
    };
    let path = module_path(rest);
    ModuleId { member, path }
}

/// The module path of a path relative to a crate directory.
fn module_path(rest: &str) -> String {
    let (kind, tail) = match rest.split_once('/') {
        Some((k, t)) => (k, t),
        None => ("", rest),
    };
    let stem = |s: &str| s.strip_suffix(".rs").unwrap_or(s).to_owned();
    let joined = |t: &str| {
        let mut parts: Vec<String> = t.split('/').map(stem).collect();
        if parts.last().is_some_and(|p| p == "mod") {
            parts.pop();
        }
        parts.join("::")
    };
    match kind {
        "src" => match tail {
            "lib.rs" => String::new(),
            "main.rs" => "main".to_owned(),
            t => match t.strip_prefix("bin/") {
                Some(b) => format!("bin::{}", joined(b)),
                None => joined(t),
            },
        },
        "tests" | "benches" | "examples" => format!("{kind}::{}", joined(tail)),
        // Anything else (a stray root-level file, an unconventional
        // layout) still resolves — totality over precision.
        _ => joined(rest),
    }
}

/// Classifies a resolved module against the seam seeds. Tests, benches,
/// and vendored code are off the surface by construction; everything
/// else defaults to [`Surface::Deterministic`].
pub fn classify(id: &ModuleId, class: FileClass) -> Surface {
    if matches!(class, FileClass::Test | FileClass::Vendor) {
        return Surface::Off;
    }
    let hit = |seeds: &[(&str, &str)]| {
        seeds.iter().any(|(member, prefix)| {
            id.member == *member
                && (prefix.is_empty()
                    || id.path == *prefix
                    || id.path.starts_with(&format!("{prefix}::")))
        })
    };
    if hit(AUDITED_SEAMS) {
        Surface::AuditedSeam
    } else if hit(OFF_SURFACE) {
        Surface::Off
    } else {
        Surface::Deterministic
    }
}

/// One entry of the assembled surface map.
#[derive(Debug, Clone)]
pub struct ModuleEntry {
    /// Workspace-relative file path.
    pub rel: String,
    /// Resolved identity.
    pub id: ModuleId,
    /// Layout-derived role.
    pub class: FileClass,
    /// Surface classification.
    pub surface: Surface,
    /// Whether a `mod` declaration chain from the crate root reaches
    /// this file (roots, binaries, tests, and examples are their own
    /// roots and always count as declared).
    pub declared: bool,
    /// Whether the file's code references the `fj-par` shard seam —
    /// the FJ08 scope marker.
    pub shard_adjacent: bool,
}

/// The workspace surface map: every non-vendor file, resolved and
/// classified, in path order.
#[derive(Debug, Default)]
pub struct SurfaceMap {
    /// Entries sorted by `rel`.
    pub modules: Vec<ModuleEntry>,
}

impl SurfaceMap {
    /// Assembles the map from per-file facts: `(rel, class, mod
    /// declarations parsed from the code mask, shard adjacency)`.
    pub fn build(files: &[(String, FileClass, Vec<String>, bool)]) -> SurfaceMap {
        let mut modules: Vec<ModuleEntry> = files
            .iter()
            .map(|(rel, class, _, shard_adjacent)| {
                let id = resolve(rel);
                let surface = classify(&id, *class);
                ModuleEntry {
                    rel: rel.clone(),
                    id,
                    class: *class,
                    surface,
                    declared: false,
                    shard_adjacent: *shard_adjacent,
                }
            })
            .collect();
        modules.sort_by(|a, b| a.rel.cmp(&b.rel));

        // Declaration pass: a `src/**` module is declared when its
        // parent module's file carries `mod <leaf>`. Roots of their own
        // target (lib.rs, main.rs, bin/, tests/, benches/, examples/)
        // are trivially declared.
        for entry in &mut modules {
            let own_root = entry.id.path.is_empty() || entry.class != FileClass::Library;
            entry.declared =
                own_root || parent_declares(files, &entry.id, entry.id.path.rsplit("::").next());
        }
        SurfaceMap { modules }
    }

    /// Looks up the entry for a file.
    pub fn get(&self, rel: &str) -> Option<&ModuleEntry> {
        self.modules
            .binary_search_by(|m| m.rel.as_str().cmp(rel))
            .ok()
            .map(|i| &self.modules[i])
    }

    /// Renders the deterministic-surface dump written to
    /// `target/lint/surface.json` (and printed by `fj-lint --surface`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"modules\": [\n");
        for (i, m) in self.modules.iter().enumerate() {
            let comma = if i + 1 == self.modules.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"file\": \"{}\", \"member\": \"{}\", \"module\": \"{}\", \
                 \"role\": \"{}\", \"surface\": \"{}\", \"declared\": {}, \
                 \"shard_adjacent\": {}}}{}",
                m.rel,
                m.id.member,
                m.id.path,
                m.class.label(),
                m.surface.label(),
                m.declared,
                m.shard_adjacent,
                comma
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Whether the parent module file of `id` declares `leaf` via `mod`.
fn parent_declares(
    files: &[(String, FileClass, Vec<String>, bool)],
    id: &ModuleId,
    leaf: Option<&str>,
) -> bool {
    let Some(leaf) = leaf else {
        return false;
    };
    let parent_path = match id.path.rsplit_once("::") {
        Some((head, _)) => head.to_owned(),
        None => String::new(),
    };
    files.iter().any(|(rel, _, decls, _)| {
        let pid = resolve(rel);
        pid.member == id.member && pid.path == parent_path && decls.iter().any(|d| d == leaf)
    })
}

/// Parses the `mod <name>;` / `mod <name> {` declarations out of a
/// code-only mask (so commented-out or string-quoted declarations do
/// not count). Inline `mod tests` blocks count too — harmless, since
/// inline modules never resolve to their own file.
pub fn mod_decls(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    for (pos, _) in code.match_indices("mod ") {
        // Word boundary on the left (`pub mod x;` yes, `amod x` no).
        if pos > 0 {
            let prev = bytes[pos - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let rest = &code[pos + 4..];
        let name: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        let after = rest.trim_start()[name.len()..].trim_start();
        if (after.starts_with(';') || after.starts_with('{')) && !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

/// Whether a code mask references the `fj-par` shard seam (the FJ08
/// scope marker: only shard-adjacent modules can feed shard-produced
/// collections into a float reduction).
pub fn references_shard_seam(code: &str) -> bool {
    ["fj_par::", "use fj_par", "WorkerPool", "collect_streaming"]
        .iter()
        .any(|needle| code.contains(needle))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_resolution() {
        let cases = [
            ("crates/telemetry/src/lib.rs", "telemetry", ""),
            ("crates/telemetry/src/clock.rs", "telemetry", "clock"),
            ("crates/meter/src/autopower/mod.rs", "meter", "autopower"),
            (
                "crates/meter/src/autopower/server.rs",
                "meter",
                "autopower::server",
            ),
            ("crates/lint/src/main.rs", "lint", "main"),
            (
                "crates/bench/src/bin/bench_fleet.rs",
                "bench",
                "bin::bench_fleet",
            ),
            (
                "crates/isp/tests/determinism.rs",
                "isp",
                "tests::determinism",
            ),
            (
                "examples/fleet_monitoring.rs",
                ".",
                "examples::fleet_monitoring",
            ),
            ("src/lib.rs", ".", ""),
        ];
        for (rel, member, path) in cases {
            let id = resolve(rel);
            assert_eq!(
                (id.member.as_str(), id.path.as_str()),
                (member, path),
                "{rel}"
            );
        }
    }

    #[test]
    fn seeds_classify_the_audited_seams() {
        let surf = |rel: &str| classify(&resolve(rel), FileClass::Library);
        assert_eq!(surf("crates/telemetry/src/clock.rs"), Surface::AuditedSeam);
        assert_eq!(
            surf("crates/telemetry/src/metrics.rs"),
            Surface::AuditedSeam
        );
        assert_eq!(surf("crates/par/src/lib.rs"), Surface::AuditedSeam);
        // The persistent worker pool rides the whole-crate seam entry.
        assert_eq!(surf("crates/par/src/pool.rs"), Surface::AuditedSeam);
        assert_eq!(surf("crates/obs/src/lib.rs"), Surface::Off);
        assert_eq!(surf("crates/telemetry/src/progress.rs"), Surface::Off);
        assert_eq!(surf("crates/telemetry/src/flightrec.rs"), Surface::Off);
        assert_eq!(
            surf("crates/telemetry/src/events.rs"),
            Surface::Deterministic
        );
        assert_eq!(surf("crates/isp/src/fleet.rs"), Surface::Deterministic);
        // Prefix matching must not swallow sibling modules by name.
        assert_eq!(
            surf("crates/telemetry/src/clockwork.rs"),
            Surface::Deterministic
        );
    }

    #[test]
    fn tests_and_vendor_are_off_surface() {
        let id = resolve("crates/isp/tests/determinism.rs");
        assert_eq!(classify(&id, FileClass::Test), Surface::Off);
        let id = resolve("vendor/serde/src/lib.rs");
        assert_eq!(classify(&id, FileClass::Vendor), Surface::Off);
    }

    #[test]
    fn mod_decls_parse_from_code_mask() {
        let code = "pub mod clock;\nmod flightrec;\n#[cfg(test)]\nmod tests {\n}\n\
                    let modx = 1; // not: amod y;\n";
        assert_eq!(mod_decls(code), vec!["clock", "flightrec", "tests"]);
    }

    #[test]
    fn declaration_pass_marks_reachable_modules() {
        let files = vec![
            (
                "crates/x/src/lib.rs".to_owned(),
                FileClass::Library,
                vec!["a".to_owned()],
                false,
            ),
            (
                "crates/x/src/a/mod.rs".to_owned(),
                FileClass::Library,
                vec!["b".to_owned()],
                false,
            ),
            (
                "crates/x/src/a/b.rs".to_owned(),
                FileClass::Library,
                vec![],
                false,
            ),
            (
                "crates/x/src/orphan.rs".to_owned(),
                FileClass::Library,
                vec![],
                false,
            ),
        ];
        let map = SurfaceMap::build(&files);
        let declared = |rel: &str| map.get(rel).map(|m| m.declared).unwrap_or_default();
        assert!(declared("crates/x/src/lib.rs"));
        assert!(declared("crates/x/src/a/mod.rs"));
        assert!(declared("crates/x/src/a/b.rs"));
        assert!(
            !declared("crates/x/src/orphan.rs"),
            "orphan stays mapped but undeclared"
        );
    }

    #[test]
    fn surface_json_is_sorted_and_complete() {
        let files = vec![
            (
                "crates/b/src/lib.rs".to_owned(),
                FileClass::Library,
                vec![],
                true,
            ),
            (
                "crates/a/src/lib.rs".to_owned(),
                FileClass::Library,
                vec![],
                false,
            ),
        ];
        let map = SurfaceMap::build(&files);
        let json = map.render_json();
        let a = json.find("crates/a/src/lib.rs").unwrap();
        let b = json.find("crates/b/src/lib.rs").unwrap();
        assert!(a < b, "entries sorted by path");
        assert!(json.contains("\"shard_adjacent\": true"));
    }
}
