//! `simlint` CLI: scans the workspace and exits 1 on any finding.
//!
//! Usage: `simlint [ROOT]` — with no argument it walks up from the
//! current directory to the workspace `Cargo.toml`. `--list-rules`
//! prints each rule's id and summary and exits. The binary deliberately
//! does no timing of its own (`Instant::now` is exactly what it
//! denies); `bench_smoke` owns the wall-clock budget check.

use recpipe_analysis::analyze_workspace;
use recpipe_analysis::rules::RULES;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut root: Option<std::path::PathBuf> = None;
    for arg in &mut args {
        if arg == "--list-rules" {
            for r in RULES {
                println!("{:<14} {}", r.id, r.summary);
            }
            return;
        }
        root = Some(std::path::PathBuf::from(arg));
    }
    let root = root.unwrap_or_else(find_workspace_root);
    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "simlint: failed to read workspace at {}: {e}",
                root.display()
            );
            std::process::exit(2);
        }
    };
    for f in &report.findings {
        println!("{f}");
    }
    println!(
        "simlint: {} findings across {} files ({} lines)",
        report.findings.len(),
        report.files,
        report.lines
    );
    if !report.findings.is_empty() {
        std::process::exit(1);
    }
}

/// Walks up from the current directory to the first `Cargo.toml`
/// declaring a `[workspace]`.
fn find_workspace_root() -> std::path::PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return std::path::PathBuf::from(".");
        }
    }
}
