//! Fixture-driven tests for every `simlint` rule — positive, negative,
//! and allowlisted cases. Fixtures live in `tests/fixtures/`, which the
//! workspace walker skips (they violate rules on purpose); each test
//! assigns them the synthetic workspace-relative path that puts them in
//! the rule's scope. The meta-test asserting the live workspace scans
//! clean is a root-package test (`tests/simlint.rs`), so the root test
//! run fails on any finding.

use recpipe_analysis::rules::{Finding, RULES};
use recpipe_analysis::{analyze_files, Report};

const HASH_ITER: &str = include_str!("fixtures/hash_iter.rs");
const WALL_CLOCK: &str = include_str!("fixtures/wall_clock.rs");
const SHARD_NONDET: &str = include_str!("fixtures/shard_nondet.rs");
const PACKING_CAST: &str = include_str!("fixtures/packing_cast.rs");
const CTOR_VALIDATE: &str = include_str!("fixtures/ctor_validate.rs");
const CTOR_VALIDATE_SETTER: &str = include_str!("fixtures/ctor_validate_setter.rs");
const SERVE_SRC: &str = include_str!("fixtures/serve_src.rs");
const SERVE_TESTS: &str = include_str!("fixtures/serve_tests.rs");
const BAD_ALLOW: &str = include_str!("fixtures/bad_allow.rs");
const DEAD_PUB: &str = include_str!("fixtures/dead_pub.rs");
const DEAD_PUB_LIB: &str = include_str!("fixtures/dead_pub_lib.rs");
const DEAD_PUB_USE: &str = include_str!("fixtures/dead_pub_use.rs");
const DEAD_PUB_SETTER: &str = include_str!("fixtures/dead_pub_setter.rs");

fn report(files: &[(&str, &str)]) -> Report {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect();
    analyze_files(&owned)
}

fn by_rule<'a>(r: &'a Report, rule: &str) -> Vec<&'a Finding> {
    r.findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn hash_iter_flags_iteration_not_keyed_access() {
    let r = report(&[("crates/hwsim/src/lru.rs", HASH_ITER)]);
    let hits = by_rule(&r, "hash-iter");
    // Exactly the two positives: the min-over-entries scan and the
    // `for … in` over a hash set. Keyed access, the allowlisted sum,
    // and the #[cfg(test)] iteration stay silent.
    assert_eq!(hits.len(), 2, "findings: {:?}", r.findings);
    assert!(hits.iter().any(|f| f.message.contains("last_use.iter()")));
    assert!(hits.iter().any(|f| f.message.contains("for … in seen")));
    assert!(!r.findings.is_empty());
}

#[test]
fn hash_iter_is_scoped_to_sim_paths() {
    let r = report(&[("crates/bench/src/lru.rs", HASH_ITER)]);
    assert!(by_rule(&r, "hash-iter").is_empty(), "{:?}", r.findings);
}

#[test]
fn wall_clock_and_rng_fire_in_product_code() {
    let r = report(&[("crates/qsim/src/clock.rs", WALL_CLOCK)]);
    assert_eq!(by_rule(&r, "wall-clock").len(), 1, "{:?}", r.findings);
    assert_eq!(by_rule(&r, "unseeded-rng").len(), 1, "{:?}", r.findings);
    assert!(!r.findings.is_empty());
}

#[test]
fn bench_and_test_carve_out_is_config_not_allows() {
    for path in [
        "crates/bench/src/bin/bench_smoke.rs",
        "crates/qsim/tests/scale.rs",
        "perfbench/src/main.rs",
    ] {
        let r = report(&[(path, WALL_CLOCK)]);
        assert!(r.findings.is_empty(), "{path}: {:?}", r.findings);
    }
}

#[test]
fn shard_nondet_requires_justified_worker_branches() {
    let r = report(&[("crates/qsim/src/shard.rs", SHARD_NONDET)]);
    let hits = by_rule(&r, "shard-nondet");
    // The unjustified branch and the parallelism probe fire; the
    // allowlisted branch and the merge helper do not.
    assert_eq!(hits.len(), 2, "findings: {:?}", r.findings);
    assert!(hits
        .iter()
        .any(|f| f.message.contains("available_parallelism")));
}

#[test]
fn shard_nondet_only_applies_to_shard_files() {
    let r = report(&[("crates/qsim/src/sim2.rs", SHARD_NONDET)]);
    assert!(by_rule(&r, "shard-nondet").is_empty(), "{:?}", r.findings);
}

#[test]
fn packing_cast_needs_a_range_justification() {
    let r = report(&[("crates/qsim/src/sim.rs", PACKING_CAST)]);
    let hits = by_rule(&r, "packing-cast");
    // Only the unjustified cast inside `impl Event` fires: the two
    // allowlisted casts and the out-of-scope helper stay silent.
    assert_eq!(hits.len(), 1, "findings: {:?}", r.findings);
}

#[test]
fn packing_cast_is_scoped_to_the_event_file() {
    let r = report(&[("crates/qsim/src/sim/queue.rs", PACKING_CAST)]);
    assert!(by_rule(&r, "packing-cast").is_empty(), "{:?}", r.findings);
}

#[test]
fn ctor_validate_accepts_asserts_docs_and_allows() {
    let r = report(&[("crates/qsim/src/cfg.rs", CTOR_VALIDATE)]);
    let hits = by_rule(&r, "ctor-validate");
    assert_eq!(hits.len(), 1, "findings: {:?}", r.findings);
    // The one positive is the undocumented, unvalidated constructor.
    assert_eq!(hits[0].line, 9, "findings: {:?}", r.findings);
}

#[test]
fn ctor_validate_checks_scalar_builder_setters() {
    let r = report(&[("crates/qsim/src/cfg.rs", CTOR_VALIDATE_SETTER)]);
    let hits = by_rule(&r, "ctor-validate");
    // Only the unvalidated setter fires: the validating setter and the
    // `&self` method stay silent.
    assert_eq!(hits.len(), 1, "findings: {:?}", r.findings);
    assert_eq!(hits[0].line, 9, "findings: {:?}", r.findings);
    assert!(hits[0].message.contains("`pub fn with_rate`"), "{hits:?}");
}

#[test]
fn ctor_validate_is_scoped_to_qsim() {
    let r = report(&[("crates/core/src/cfg.rs", CTOR_VALIDATE)]);
    assert!(by_rule(&r, "ctor-validate").is_empty(), "{:?}", r.findings);
}

#[test]
fn serve_coverage_fails_the_build_for_unpinned_entry_points() {
    let r = report(&[
        ("crates/qsim/src/serving.rs", SERVE_SRC),
        ("crates/qsim/tests/props.rs", SERVE_TESTS),
    ]);
    let hits = by_rule(&r, "serve-coverage");
    // `serve_pinned` is named by the test file, `serve_waved` carries
    // an allow; only `serve_orphan` fails — and it fails the build.
    assert_eq!(hits.len(), 1, "findings: {:?}", r.findings);
    assert!(hits[0].message.contains("serve_orphan"));
    assert!(!r.findings.is_empty());
}

#[test]
fn serve_coverage_passes_once_every_entry_point_is_pinned() {
    let pinned_tests = format!("{SERVE_TESTS}\nfn also() {{ serve_orphan(1, 2); }}\n");
    let r = report(&[
        ("crates/qsim/src/serving.rs", SERVE_SRC),
        ("crates/qsim/tests/props.rs", &pinned_tests),
    ]);
    assert!(by_rule(&r, "serve-coverage").is_empty(), "{:?}", r.findings);
}

#[test]
fn bad_allow_rejects_malformed_and_unknown_directives() {
    let r = report(&[("crates/qsim/src/misc.rs", BAD_ALLOW)]);
    let hits = by_rule(&r, "bad-allow");
    // Missing justification, unknown rule, and non-allow directive all
    // fire; the well-formed directive does not.
    assert_eq!(hits.len(), 3, "findings: {:?}", r.findings);
}

/// The dead-pub fixture crate: declarations, the crate root that
/// re-exports two of them, and a test naming one, plus `extra` files.
fn dead_pub_report(api: &str, extra: &[(&str, &str)]) -> Report {
    let mut files = vec![
        ("crates/demo/src/api.rs", api),
        ("crates/demo/src/lib.rs", DEAD_PUB_LIB),
        ("crates/demo/tests/use.rs", DEAD_PUB_USE),
    ];
    files.extend_from_slice(extra);
    report(&files)
}

fn dead_names(r: &Report) -> Vec<String> {
    by_rule(r, "dead-pub")
        .iter()
        .map(|f| f.message.split('`').nth(1).unwrap_or("").to_string())
        .collect()
}

#[test]
fn dead_pub_flags_items_named_only_by_themselves() {
    let r = dead_pub_report(DEAD_PUB, &[]);
    // The unused fn, the struct only its impl header names, and the
    // const only its own tests and a re-export name. The item another
    // file names, the one its own code calls, the `pub(crate)` one and
    // the allowlisted seam stay silent.
    assert_eq!(
        dead_names(&r),
        [
            "pub fn orphan_helper",
            "pub struct Hollow",
            "pub const TEST_ONLY_LIMIT"
        ],
        "{:?}",
        r.findings
    );
    assert!(!r.findings.is_empty());
}

#[test]
fn dead_pub_allow_keeps_a_seam_accessor() {
    let unallowed = DEAD_PUB.replace("// simlint: allow(dead-pub)", "//");
    let r = dead_pub_report(&unallowed, &[]);
    assert!(
        dead_names(&r).contains(&"pub fn seam_accessor".to_string()),
        "{:?}",
        r.findings
    );
}

#[test]
fn dead_pub_counts_perfbench_and_ignores_binaries() {
    // perfbench is a read-only use site: what only the benchmark calls
    // is live.
    let bench = "fn main() {\n    let _ = orphan_helper();\n}\n";
    let r = dead_pub_report(DEAD_PUB, &[("perfbench/src/main.rs", bench)]);
    assert!(
        !dead_names(&r).contains(&"pub fn orphan_helper".to_string()),
        "{:?}",
        r.findings
    );
    // Binaries and non-library trees declare no API.
    for path in ["crates/demo/src/bin/tool.rs", "examples/tool.rs"] {
        let r = report(&[(path, DEAD_PUB)]);
        assert!(
            by_rule(&r, "dead-pub").is_empty(),
            "{path}: {:?}",
            r.findings
        );
    }
}

#[test]
fn dead_pub_setters_need_a_call_with_an_argument() {
    let r = report(&[("crates/demo/src/builder.rs", DEAD_PUB_SETTER)]);
    // Only getter-style `.name()` calls name the two setters; the setter
    // called with an argument on the next line and the `mut self`-only
    // method stay silent.
    let names = dead_names(&r);
    assert_eq!(
        names,
        ["pub fn timeout", "pub fn retries"],
        "{:?}",
        r.findings
    );
}

#[test]
fn every_registered_rule_fires_on_some_fixture() {
    let scans = [
        report(&[("crates/hwsim/src/lru.rs", HASH_ITER)]),
        report(&[("crates/qsim/src/clock.rs", WALL_CLOCK)]),
        report(&[("crates/qsim/src/shard.rs", SHARD_NONDET)]),
        report(&[("crates/qsim/src/sim.rs", PACKING_CAST)]),
        report(&[("crates/qsim/src/cfg.rs", CTOR_VALIDATE)]),
        report(&[
            ("crates/qsim/src/serving.rs", SERVE_SRC),
            ("crates/qsim/tests/props.rs", SERVE_TESTS),
        ]),
        report(&[("crates/qsim/src/misc.rs", BAD_ALLOW)]),
        dead_pub_report(DEAD_PUB, &[]),
    ];
    for rule in RULES {
        assert!(
            scans.iter().any(|r| !by_rule(r, rule.id).is_empty()),
            "no fixture fires `{}`",
            rule.id
        );
    }
}
