//! Workspace discovery: find the root, enumerate member source files,
//! and classify each file from the Cargo layout it sits in.
//!
//! Classification drives rule applicability: panic-freedom (FJ02) holds
//! for library code but not tests; determinism (FJ01) holds for library
//! and binary code; vendored subsets of external crates are not ours to
//! lint at all.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What role a source file plays, derived from `Cargo.toml` layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `src/**` of a workspace member (minus `src/bin` and `main.rs`).
    Library,
    /// Binary targets: `src/bin/**`, `src/main.rs`, `examples/**`.
    Bin,
    /// `tests/**` and `benches/**`.
    Test,
    /// Members under `vendor/` — API-compatible subsets of external
    /// crates, never linted.
    Vendor,
}

impl FileClass {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FileClass::Library => "lib",
            FileClass::Bin => "bin",
            FileClass::Test => "test",
            FileClass::Vendor => "vendor",
        }
    }
}

/// One source file scheduled for linting.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// Role in the workspace.
    pub class: FileClass,
    /// Full file contents.
    pub text: String,
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Enumerates every member's Rust sources (plus the root package's own
/// `src/`, `tests/`, and `examples/`), classified. Vendor members are
/// returned with [`FileClass::Vendor`] and empty text — they are counted
/// but never read in full or linted.
pub fn scan(root: &Path) -> io::Result<Vec<SourceFile>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut member_dirs = expand_members(root, &parse_members(&manifest));
    member_dirs.push(root.to_path_buf()); // the root package itself
    member_dirs.sort();
    member_dirs.dedup();

    let mut out = Vec::new();
    for dir in member_dirs {
        let vendored = dir
            .strip_prefix(root)
            .ok()
            .is_some_and(|p| p.starts_with("vendor"));
        for sub in ["src", "tests", "benches", "examples"] {
            let base = dir.join(sub);
            if base.is_dir() {
                walk_rs(&base, &mut |path| {
                    let rel = path
                        .strip_prefix(root)
                        .unwrap_or(path)
                        .to_string_lossy()
                        .replace('\\', "/");
                    // Never descend into another member (the root package
                    // shares `root/src` siblings with `crates/`).
                    if rel.starts_with("crates/") && dir == root {
                        return Ok(());
                    }
                    let class = if vendored {
                        FileClass::Vendor
                    } else {
                        classify(&rel, sub)
                    };
                    let text = if class == FileClass::Vendor {
                        String::new()
                    } else {
                        fs::read_to_string(path)?
                    };
                    out.push(SourceFile { rel, class, text });
                    Ok(())
                })?;
            }
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn classify(rel: &str, top: &str) -> FileClass {
    match top {
        "tests" | "benches" => FileClass::Test,
        "examples" => FileClass::Bin,
        _ => {
            if rel.contains("/src/bin/") || rel.ends_with("src/main.rs") {
                FileClass::Bin
            } else {
                FileClass::Library
            }
        }
    }
}

/// Pulls the `members = [...]` globs out of a workspace manifest without
/// a TOML dependency: the table is flat and the values are quoted.
fn parse_members(manifest: &str) -> Vec<String> {
    let Some(start) = manifest.find("members") else {
        return Vec::new();
    };
    let Some(open) = manifest[start..].find('[') else {
        return Vec::new();
    };
    let Some(close) = manifest[start + open..].find(']') else {
        return Vec::new();
    };
    let body = &manifest[start + open + 1..start + open + close];
    body.split(',')
        .filter_map(|part| {
            let part = part.trim().trim_matches('"');
            (!part.is_empty()).then(|| part.to_owned())
        })
        .collect()
}

fn expand_members(root: &Path, globs: &[String]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for glob in globs {
        if let Some(prefix) = glob.strip_suffix("/*") {
            if let Ok(entries) = fs::read_dir(root.join(prefix)) {
                for entry in entries.flatten() {
                    let path = entry.path();
                    if path.join("Cargo.toml").is_file() {
                        out.push(path);
                    }
                }
            }
        } else {
            out.push(root.join(glob));
        }
    }
    out
}

fn walk_rs(dir: &Path, f: &mut impl FnMut(&Path) -> io::Result<()>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, f)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            f(&path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_globs_parse() {
        let manifest = "[workspace]\nmembers = [\"crates/*\", \"vendor/*\"]\n";
        assert_eq!(parse_members(manifest), vec!["crates/*", "vendor/*"]);
    }

    #[test]
    fn classification_by_layout() {
        assert_eq!(
            classify("crates/core/src/lib.rs", "src"),
            FileClass::Library
        );
        assert_eq!(
            classify("crates/bench/src/bin/smoke.rs", "src"),
            FileClass::Bin
        );
        assert_eq!(classify("crates/lint/src/main.rs", "src"), FileClass::Bin);
        assert_eq!(classify("crates/core/tests/t.rs", "tests"), FileClass::Test);
        assert_eq!(
            classify("crates/bench/benches/b.rs", "benches"),
            FileClass::Test
        );
        assert_eq!(classify("examples/demo.rs", "examples"), FileClass::Bin);
    }

    #[test]
    fn finds_this_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root above crates/lint");
        assert!(root.join("Cargo.toml").is_file());
        let files = scan(&root).expect("scan");
        assert!(files.iter().any(|f| f.rel == "crates/lint/src/lexer.rs"));
        assert!(files
            .iter()
            .filter(|f| f.class == FileClass::Vendor)
            .all(|f| f.text.is_empty()));
        // The root package's own sources are present exactly once.
        assert_eq!(files.iter().filter(|f| f.rel == "src/lib.rs").count(), 1);
    }
}
