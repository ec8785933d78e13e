//! The shipped tree scans clean under every `simlint` rule, so a new
//! determinism violation, untested entry point or dead public item
//! fails the root test run, not only CI's separate simlint step.

use recpipe_analysis::analyze_workspace;

#[test]
fn live_workspace_scans_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let r = analyze_workspace(root).expect("workspace readable");
    assert!(r.files > 50, "walker found only {} files", r.files);
    assert!(
        r.findings.is_empty(),
        "workspace must scan clean:\n{}",
        r.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
