//! `recpipe-analysis`: the `simlint` static-analysis pass.
//!
//! The simulator's correctness claims rest on bit-for-bit determinism:
//! a digest corpus pins the serving loop's outcomes over thousands of
//! seeded scenarios, and sharded == serial merges hold only because
//! nothing in the hot path depends on hash order, wall-clock time, or
//! unseeded RNG. `simlint` turns that contract from prose into a mechanical
//! gate: a pure-std, hand-rolled scanner ([`mod@scan`]) feeds a rule
//! engine ([`rules`]) that denies hash-order iteration, ambient clocks
//! and entropy, unjustified packing casts, non-validating public
//! constructors, untested `serve_*` entry points and public items
//! nothing uses — with an inline allowlist
//! (`// simlint: allow(<rule>) -- <justification>`) for the audited
//! exceptions.
//!
//! Each rule's scope is a constant of [`rules`] (`SIM_PATHS`, the
//! bench/test carve-out `BENCH_TEST_PREFIXES` and `BENCH_TEST_DIRS`,
//! `SHARD_FILE`, `EVENT_FILE` with `PACKING_IMPLS` and `PACKING_FNS`,
//! `QSIM_SRC` and `QSIM_TESTS`), encoding this workspace's layout.
//!
//! Run it with `cargo run -p recpipe-analysis --bin simlint`; every
//! finding fails the scan and makes it exit nonzero, so CI fails when
//! the discipline rots. See ARCHITECTURE.md "Determinism discipline,
//! mechanically enforced" for the rule table.

pub mod rules;
pub mod scan;

use rules::{check_file, check_workspace, Finding};
use scan::{scan, ScannedFile};

/// The outcome of an analysis run.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (path, line, rule); any one fails the scan.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files: usize,
    /// Total source lines scanned.
    pub lines: usize,
}

/// Analyzes a set of already-loaded `(path, text)` pairs. Paths are
/// workspace-relative with `/` separators; rule scoping matches on
/// them, so fixtures can exercise any rule by choosing the path.
pub fn analyze_files(sources: &[(String, String)]) -> Report {
    let mut scanned: Vec<ScannedFile> = sources
        .iter()
        .map(|(path, text)| scan(path, text))
        .collect();
    scanned.sort_by(|a, b| a.path.cmp(&b.path));
    let mut findings = Vec::new();
    for file in &scanned {
        check_file(file, &mut findings);
    }
    check_workspace(&scanned, &mut findings);
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Report {
        findings,
        files: scanned.len(),
        lines: scanned.iter().map(|f| f.lines.len()).sum(),
    }
}

/// Collects the workspace's own Rust sources under `root`: every
/// `.rs` file below `crates/`, plus top-level `src/`, `examples/`,
/// `tests/` and the benchmark's `perfbench/` if present. Skips
/// `target/`, `fixtures/` (fixtures violate rules on purpose) and
/// hidden directories, and the offline dependency shims (vendored API
/// surface, not simulator code). The listing is sorted so reports are
/// stable across filesystems.
pub fn collect_files(root: &std::path::Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    for top in ["crates", "src", "examples", "tests", "perfbench"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    let mut out: Vec<(String, String)> = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&p)?;
        out.push((rel, text));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Recursive walker feeding [`collect_files`].
fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the workspace rooted at `root` and runs every rule.
pub fn analyze_workspace(root: &std::path::Path) -> std::io::Result<Report> {
    let sources = collect_files(root)?;
    Ok(analyze_files(&sources))
}
