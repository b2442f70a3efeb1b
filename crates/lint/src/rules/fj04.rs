//! FJ04 — telemetry contract: metric and span names follow the
//! convention and the DESIGN.md catalogues are complete in both
//! directions.
//!
//! The observability layer (PR 2) is only trustworthy if a reader can go
//! from a dashboard name to its documented meaning and back. This rule
//! extracts every literal metric name passed to `Registry::counter` /
//! `gauge` / `histogram` in library code, checks the naming convention
//! (snake_case; counters end `_total`, duration histograms `_seconds`),
//! and cross-checks the set against the table in DESIGN.md's
//! "Metric catalogue" section. Causal trace spans carry the same
//! contract: every literal name passed to `TraceSink::begin_span` or
//! `StageSpan::begin` must be snake_case and listed in DESIGN.md's
//! "Span catalogue" section, and vice versa. Alert rules are the third
//! catalogued namespace: every literal name passed to `AlertRule::new`
//! must be snake_case and listed in DESIGN.md's "Alert catalogue".

use super::{find_all, FileCtx};
use crate::findings::Finding;
use crate::lexer::SpanKind;
use crate::workspace::FileClass;

/// A literal metric registration found in code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    /// The metric name literal.
    pub name: String,
    /// `counter` / `gauge` / `histogram` / `span` / `alert`.
    pub kind: &'static str,
    /// File and line of the registration.
    pub file: String,
    /// 1-based line.
    pub line: usize,
}

const KINDS: &[(&str, &str)] = &[
    (".counter(", "counter"),
    (".gauge(", "gauge"),
    (".histogram(", "histogram"),
    // Causal trace spans: merge-side sink spans and worker-side stage
    // spans share one catalogued namespace.
    (".begin_span(", "span"),
    ("StageSpan::begin(", "span"),
    // Alert rules: the name is the first argument of the constructor and
    // the key a pager/dashboard shows, so it shares the naming contract.
    ("AlertRule::new(", "alert"),
];

/// The catalogue namespace a registration kind belongs to.
fn noun_of(kind: &str) -> &'static str {
    match kind {
        "span" => "span",
        "alert" => "alert",
        _ => "metric",
    }
}

/// Per-file half: naming-convention findings. Use [`registrations`] for the
/// registrations themselves (the driver cross-checks them globally).
pub fn check_names(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for reg in registrations(ctx) {
        let mut problems = Vec::new();
        if !is_snake_case(&reg.name) {
            problems.push("not snake_case".to_owned());
        }
        if reg.kind == "counter" && !reg.name.ends_with("_total") {
            problems.push("counter must end `_total`".to_owned());
        }
        if reg.kind == "histogram" && !reg.name.ends_with("_seconds") {
            problems.push("duration histogram must end `_seconds`".to_owned());
        }
        for problem in problems {
            let noun = noun_of(reg.kind);
            out.push(Finding {
                rule: "FJ04",
                file: reg.file.clone(),
                line: reg.line,
                col: 1,
                message: format!("{noun} `{}` ({}): {problem}", reg.name, reg.kind),
            });
        }
    }
}

/// Extracts literal metric registrations from a library file, outside
/// inline test modules. Dynamic names (non-literal first arguments) are
/// skipped — they cannot be checked statically.
pub fn registrations(ctx: &FileCtx<'_>) -> Vec<Registration> {
    let mut out = Vec::new();
    if ctx.class != FileClass::Library {
        return out;
    }
    for &(needle, kind) in KINDS {
        for pos in find_all(ctx.code, needle) {
            if ctx.in_test(pos) {
                continue;
            }
            let arg_start = pos + needle.len();
            // The first argument must be a string literal: the next
            // non-whitespace bytes of *code* must be blank up to a Str
            // span that starts right there.
            let Some(lit) = ctx.spans.iter().find(|s| {
                s.kind == SpanKind::Str
                    && s.start >= arg_start
                    && ctx.code[arg_start..s.start].trim().is_empty()
                    && s.start - arg_start < 120
            }) else {
                continue;
            };
            let name = ctx.src[lit.start + 1..lit.end - 1].to_owned();
            out.push(Registration {
                name,
                kind,
                file: ctx.rel.to_owned(),
                line: crate::suppress::line_of(ctx.src, pos),
            });
        }
    }
    out
}

/// Cross-checks collected registrations against the DESIGN.md
/// catalogues — metrics against "Metric catalogue", spans against
/// "Span catalogue", alerts against "Alert catalogue" — in both
/// directions: code names missing from the
/// catalogue, and catalogue names never registered anywhere in the tree
/// (the caller supplies `all_source`, a concatenation of every
/// non-vendor file, so names used only from tests or experiment binaries
/// still count as alive).
pub fn check_catalogue(
    registrations: &[Registration],
    design: &str,
    all_source: &str,
    out: &mut Vec<Finding>,
) {
    let thirds = [
        ("metric", "Metric catalogue", catalogue_names(design)),
        ("span", "Span catalogue", span_catalogue_names(design)),
        ("alert", "Alert catalogue", alert_catalogue_names(design)),
    ];
    for (noun, section, catalogued) in &thirds {
        for reg in registrations.iter().filter(|r| noun_of(r.kind) == *noun) {
            if !catalogued.iter().any(|(n, _)| n == &reg.name) {
                out.push(Finding {
                    rule: "FJ04",
                    file: reg.file.clone(),
                    line: reg.line,
                    col: 1,
                    message: format!(
                        "{noun} `{}` is not in DESIGN.md's {section}; document it",
                        reg.name
                    ),
                });
            }
        }
        for (name, line) in catalogued {
            if !all_source.contains(&format!("\"{name}\"")) {
                out.push(Finding {
                    rule: "FJ04",
                    file: "DESIGN.md".to_owned(),
                    line: *line,
                    col: 1,
                    message: format!(
                        "catalogued {noun} `{name}` is registered nowhere in the tree; \
                         remove it or restore the series"
                    ),
                });
            }
        }
    }
}

/// Parses the backticked metric names out of DESIGN.md's
/// "Metric catalogue" section, with their line numbers. Label blocks
/// (`{target}`) are stripped — the catalogue documents series names.
pub fn catalogue_names(design: &str) -> Vec<(String, usize)> {
    section_names(design, "Metric catalogue")
}

/// Parses the backticked span names out of DESIGN.md's "Span catalogue"
/// section, with their line numbers.
pub fn span_catalogue_names(design: &str) -> Vec<(String, usize)> {
    section_names(design, "Span catalogue")
}

/// Parses the backticked alert names out of DESIGN.md's
/// "Alert catalogue" section, with their line numbers.
pub fn alert_catalogue_names(design: &str) -> Vec<(String, usize)> {
    section_names(design, "Alert catalogue")
}

/// Backticked snake_case names inside the `###` section whose heading
/// contains `section`.
fn section_names(design: &str, section: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (idx, line) in design.lines().enumerate() {
        if line.starts_with("###") {
            in_section = line.contains(section);
            continue;
        }
        if !in_section {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find('`') {
            let Some(len) = rest[open + 1..].find('`') else {
                break;
            };
            let token = &rest[open + 1..open + 1 + len];
            let name = token.split('{').next().unwrap_or(token).trim();
            if !name.is_empty()
                && is_snake_case(name)
                && !out.iter().any(|(n, _): &(String, usize)| n == name)
            {
                out.push((name.to_owned(), idx + 1));
            }
            rest = &rest[open + 1 + len + 1..];
        }
    }
    out
}

/// `[a-z][a-z0-9_]*`
pub fn is_snake_case(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_lowercase())
        && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}
