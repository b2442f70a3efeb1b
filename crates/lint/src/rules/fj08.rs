//! FJ08 — reduction-order discipline: float accumulation over
//! shard-produced collections must be order-explicit.
//!
//! `fj-par` guarantees shard results come back in stable index order,
//! and the engine's merges exploit that: per-round records are folded
//! sequentially in `(round, router-index)` order, and windowed sums go
//! through the compensated `PrefixSums` seam in `fj-units`. An iterator
//! `.sum()` (or `.product()`) bolted onto a shard-produced collection is
//! the one-line refactor that silently re-opens the seam: the *current*
//! code may still be index-ordered, but nothing marks the ordering as
//! load-bearing, and the next `.par`-ish shuffle or chunk resize
//! reorders a floating-point reduction — bit-replay gone. This rule
//! makes the discipline explicit: in deterministic-surface,
//! shard-adjacent code, a result of a `WorkerPool` dispatch (`submit` /
//! `submit_profiled`) or of `collect_streaming` must not feed `.sum()` /
//! `.product()` directly; route it through the index-ordered merge, the
//! `PrefixSums` seam, or justify the reduction with a pragma.

use super::{find_all, FileCtx};
use crate::findings::Finding;
use crate::symbols::Surface;
use crate::workspace::FileClass;

/// Calls that produce shard-ordered collections.
const PRODUCERS: &[&str] = &["submit(", "submit_profiled(", "collect_streaming("];

/// Order-sensitive iterator reductions, in both plain and turbofish
/// spellings.
const REDUCERS: &[&str] = &[".sum(", ".sum::<", ".product(", ".product::<"];

/// The audited compensated-accumulation seam: statements routing through
/// it are exempt.
const KAHAN_SEAM: &str = "PrefixSums";

/// Scans deterministic-surface, shard-adjacent code for shard results
/// feeding an iterator reduction.
pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !matches!(ctx.class, FileClass::Library | FileClass::Bin)
        || ctx.surface != Surface::Deterministic
        || !ctx.shard_adjacent
    {
        return;
    }
    let code = ctx.code;
    for producer in PRODUCERS {
        for pos in find_all(code, producer) {
            if ctx.in_test(pos) {
                continue;
            }
            let stmt_start = statement_start(code, pos);
            let stmt_end = statement_end(code, pos);
            let stmt = &code[stmt_start..stmt_end];
            // Direct chain: `... submit(...).wait().items.iter().sum()`
            // in one statement.
            if !stmt.contains(KAHAN_SEAM) {
                if let Some(reducer) = REDUCERS.iter().find(|r| code[pos..stmt_end].contains(*r)) {
                    out.push(finding(ctx, pos, reducer));
                    continue;
                }
            }
            // Bound result: `let done = ...submit(...).wait();` followed
            // by a reduction over `done` later in the enclosing block.
            let Some(ident) = binding_ident(stmt) else {
                continue;
            };
            let block_end = enclosing_block_end(code, stmt_end);
            let tail = &code[stmt_end..block_end];
            for use_off in find_all(tail, &ident) {
                let use_pos = stmt_end + use_off;
                if !word_bounded(code, use_pos, ident.len()) {
                    continue;
                }
                let use_end = statement_end(code, use_pos);
                let use_stmt = &code[use_pos..use_end];
                if use_stmt.contains(KAHAN_SEAM) {
                    continue;
                }
                if let Some(reducer) = REDUCERS.iter().find(|r| use_stmt.contains(*r)) {
                    out.push(finding(ctx, use_pos, reducer));
                }
            }
        }
    }
}

fn finding(ctx: &FileCtx<'_>, pos: usize, reducer: &str) -> Finding {
    let what = if reducer.contains("sum") {
        "sum"
    } else {
        "product"
    };
    ctx.finding(
        "FJ08",
        pos,
        format!(
            "shard-produced collection feeds `{what}()`: floating-point reduction \
             order must be explicit across shard/chunk boundaries — fold in index \
             order at the merge, use the Kahan `PrefixSums` seam, or justify with \
             an allow pragma"
        ),
    )
}

/// Byte offset where the statement containing `pos` starts.
fn statement_start(code: &str, pos: usize) -> usize {
    let bytes = code.as_bytes();
    let mut i = pos;
    while i > 0 {
        match bytes[i - 1] {
            b';' | b'{' | b'}' => break,
            _ => i -= 1,
        }
    }
    i
}

/// Byte offset one past the `;` ending the statement containing `pos`
/// (nesting-aware), or the end of the file.
fn statement_end(code: &str, from: usize) -> usize {
    let mut depth = 0i32;
    for (i, b) in code.bytes().enumerate().skip(from) {
        match b {
            b'(' | b'{' | b'[' => depth += 1,
            b')' | b'}' | b']' => depth -= 1,
            b';' if depth <= 0 => return i + 1,
            _ => {}
        }
        if depth < 0 {
            return i;
        }
    }
    code.len()
}

/// If `stmt` is a `let [mut] <ident> = ...` binding, the identifier.
fn binding_ident(stmt: &str) -> Option<String> {
    let rest = stmt.trim_start().strip_prefix("let ")?;
    let rest = rest.trim_start().trim_start_matches("mut ").trim_start();
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    let after = rest[ident.len()..].trim_start();
    (!ident.is_empty() && (after.starts_with('=') || after.starts_with(':'))).then_some(ident)
}

/// Byte offset just past the `}` closing the block containing `from`.
fn enclosing_block_end(code: &str, from: usize) -> usize {
    let mut depth = 0i32;
    for (i, b) in code.bytes().enumerate().skip(from) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Whether the identifier match at `pos..pos+len` stands alone.
fn word_bounded(code: &str, pos: usize, len: usize) -> bool {
    let bytes = code.as_bytes();
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let left_ok = pos == 0 || !ident(bytes[pos - 1]);
    let right_ok = bytes.get(pos + len).is_none_or(|&b| !ident(b));
    left_ok && right_ok
}
