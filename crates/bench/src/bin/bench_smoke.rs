//! CI bench smoke check: re-times the hottest queueing-simulator
//! benches (the scenarios the `recpipe_bench` library builds for them)
//! and the quality evaluator's quick-grid batch, and fails
//! (non-zero exit) if any regressed more than 2x against its checked-in
//! baseline (`BENCH_pr9.json` for the simulator, `BENCH_pr35.json` for
//! the evaluator), and holds the 10M-query sharded trace replay to its
//! single-digit-second (machine-normalized) budget.
//!
//! Baselines were recorded on one developer machine, while CI runs on
//! shared runners with very different single-core throughput — so
//! comparing absolute wall-clock would gate on machine identity, not
//! on the code. To factor the machine out, the binary first times a
//! fixed CPU-bound *calibration* workload (pure integer mixing, no
//! simulator code) whose baseline is recorded alongside the bench
//! baselines; each bench's threshold is scaled by the
//! measured/baseline calibration ratio, each baseline file carrying its
//! own calibration entry. A runner half as fast as the
//! recording machine is expected to take ~2x on calibration and
//! benches alike, leaving the regression ratio near 1. The 2x
//! threshold on top of that is deliberately generous — only a genuine
//! hot-loop regression (an accidental re-introduction of per-event
//! allocation, a heap blow-up) trips it. Run locally with:
//!
//! ```text
//! cargo run --release -p recpipe-bench --bin bench_smoke
//! ```

use std::time::{Duration, Instant};

use recpipe_core::{QualityEvaluator, Scheduler, SchedulerSettings};
use recpipe_qsim::{ExpectedWait, JoinShortestQueue, SimResult};

/// Largest tolerated machine-normalized measured/baseline ratio.
const MAX_REGRESSION: f64 = 2.0;

/// Absolute machine-normalized wall-clock budget for the one-shot
/// 10M-query sharded trace replay: single-digit seconds on the
/// baseline-recording machine.
const SCALE_BUDGET_SECONDS: f64 = 10.0;

/// Bounds on the calibration-derived machine speed factor: scaling is
/// allowed to absorb up to a 4x-slower or 4x-faster machine, beyond
/// which something other than CPU speed is wrong and the raw ratio
/// should surface it.
const MACHINE_FACTOR_RANGE: (f64, f64) = (0.25, 4.0);

/// Absolute machine-normalized wall-clock budget for a full `simlint`
/// workspace scan: the analysis pass gates every CI run, so it must
/// stay sub-second (it is ~tens of milliseconds today).
const SIMLINT_BUDGET_SECONDS: f64 = 1.0;

/// Fixed CPU-bound calibration workload: a splitmix64 mixing loop that
/// exercises no simulator code, so its runtime tracks the machine, not
/// the repository. Must stay byte-for-byte stable across PRs or
/// recorded calibration baselines lose meaning.
fn calibration_workload() -> u64 {
    let mut z: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    for _ in 0..2_000_000u32 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc ^= x ^ (x >> 31);
    }
    acc
}

/// Times `f` the way the criterion shim does: a short warmup to size
/// the measurement window, then mean wall-clock over that window.
fn measure_ns_per_iter(mut f: impl FnMut()) -> f64 {
    let warmup = Duration::from_millis(50);
    let start = Instant::now();
    let mut warm_iters: u64 = 0;
    while start.elapsed() < warmup {
        f();
        warm_iters += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;

    let target = Duration::from_millis(400);
    let iters = ((target.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(10, 1_000_000);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Extracts `benches.<name>.ns_per_iter` from the baseline JSON with a
/// dependency-free string scan (the workspace has no JSON parser).
fn baseline_ns_per_iter(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\"");
    let at = json.find(&key)?;
    let tail = &json[at + key.len()..];
    let field = "\"ns_per_iter\":";
    let at = tail.find(field)?;
    let tail = tail[at + field.len()..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn main() {
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr9.json");
    let json = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));

    let quality_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr35.json");
    let quality_json = std::fs::read_to_string(quality_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {quality_path}: {e}"));

    // Machine normalization: how much slower/faster this machine runs
    // the fixed calibration loop than each baseline's recorder did.
    let cal_name = "bench_smoke/calibration";
    let cal_measured = measure_ns_per_iter(|| {
        std::hint::black_box(calibration_workload());
    });
    let factor_for = |json: &str, path: &str| {
        let cal_baseline = baseline_ns_per_iter(json, cal_name)
            .unwrap_or_else(|| panic!("baseline for {cal_name} missing from {path}"));
        let factor =
            (cal_measured / cal_baseline).clamp(MACHINE_FACTOR_RANGE.0, MACHINE_FACTOR_RANGE.1);
        let file = path.rsplit('/').next().unwrap_or(path);
        println!(
            "{cal_name}: {cal_measured:.0} ns/iter vs {file} baseline {cal_baseline:.0} \
             (machine factor x{factor:.2})"
        );
        factor
    };
    let machine_factor = factor_for(&json, baseline_path);
    let quality_factor = factor_for(&quality_json, quality_path);

    let two_stage = recpipe_bench::two_stage();
    let routed = recpipe_bench::routed_fleet();
    let two_gen = recpipe_bench::two_gen_fleet();
    type Check = (&'static str, Box<dyn Fn() -> SimResult>);
    let checks: Vec<Check> = vec![
        ("qsim/two_stage_10000q", Box::new(move || two_stage(10_000))),
        (
            "qsim_cluster/routed_10000q/jsq",
            Box::new(move || routed(&JoinShortestQueue)),
        ),
        (
            "qsim_cluster/two_gen_10000q/expected_wait",
            Box::new(move || two_gen(&ExpectedWait)),
        ),
        (
            "qsim_lifecycle/diurnal_failures_10000q",
            Box::new(recpipe_bench::diurnal_failures()),
        ),
        (
            "qsim_multipath/brownout_ladder3_10000q",
            Box::new(recpipe_bench::brownout_ladder()),
        ),
        (
            "qsim_resilience/hedged_limp_10000q",
            Box::new(recpipe_bench::hedged_limp()),
        ),
    ];

    let mut failed = false;
    let mut gate = |name: &str, measured: f64, baseline: f64, factor: f64| {
        let ratio = measured / (baseline * factor);
        let verdict = if ratio > MAX_REGRESSION {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{name}: {measured:.0} ns/iter vs baseline {baseline:.0} \
             (normalized x{ratio:.2}) {verdict}"
        );
    };
    for (name, run) in checks {
        let baseline = baseline_ns_per_iter(&json, name)
            .unwrap_or_else(|| panic!("baseline for {name} missing from {baseline_path}"));
        let measured = measure_ns_per_iter(|| {
            std::hint::black_box(run());
        });
        gate(name, measured, baseline, machine_factor);
    }
    // The quality evaluator: most of a design sweep's run time.
    // Mirrors benches/pipeline_eval.rs `quality_eval_all_quick_grid`.
    let quality_name = "quality_eval_all_quick_grid";
    let grid = Scheduler::new(SchedulerSettings::quick()).enumerate_pipelines(3);
    let evaluator = QualityEvaluator::criteo_like(64).queries(50);
    let baseline = baseline_ns_per_iter(&quality_json, quality_name)
        .unwrap_or_else(|| panic!("baseline for {quality_name} missing from {quality_path}"));
    let measured = measure_ns_per_iter(|| {
        std::hint::black_box(evaluator.evaluate_all(std::hint::black_box(&grid)));
    });
    gate(quality_name, measured, baseline, quality_factor);
    // Scale check, measured once (a full repetition loop would dwarf
    // the rest of the smoke): the 10M-query sharded replay must stay
    // within the regression envelope of its baseline AND inside the
    // absolute single-digit-second budget, both machine-normalized.
    let scale_name = "qsim_scale/trace_replay_10M";
    let scale_baseline = baseline_ns_per_iter(&json, scale_name)
        .unwrap_or_else(|| panic!("baseline for {scale_name} missing from {baseline_path}"));
    let replay = recpipe_bench::trace_replay_10m();
    let start = Instant::now();
    std::hint::black_box(replay());
    let measured = start.elapsed().as_nanos() as f64;
    let ratio = measured / (scale_baseline * machine_factor);
    let normalized_seconds = measured / machine_factor / 1e9;
    let over_budget = normalized_seconds >= SCALE_BUDGET_SECONDS;
    let verdict = if ratio > MAX_REGRESSION || over_budget {
        failed = true;
        "REGRESSED"
    } else {
        "ok"
    };
    println!(
        "{scale_name}: {measured:.0} ns vs baseline {scale_baseline:.0} \
         (normalized x{ratio:.2}, {normalized_seconds:.2}s of {SCALE_BUDGET_SECONDS}s budget) \
         {verdict}"
    );

    // simlint wall-clock: the static-analysis gate runs on every CI
    // build, so its full-workspace scan is held to an absolute
    // (machine-normalized) sub-second budget. No baseline ratio — the
    // scan grows with the tree, and the budget is the contract.
    let workspace_root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let start = Instant::now();
    let report =
        recpipe_analysis::analyze_workspace(workspace_root).expect("workspace sources readable");
    let simlint_seconds = start.elapsed().as_secs_f64();
    let simlint_normalized = simlint_seconds / machine_factor;
    let simlint_verdict = if simlint_normalized >= SIMLINT_BUDGET_SECONDS {
        failed = true;
        "REGRESSED"
    } else {
        "ok"
    };
    println!(
        "simlint/workspace_scan: {:.0} ms over {} files ({:.3}s normalized of \
         {SIMLINT_BUDGET_SECONDS}s budget, {} findings) {simlint_verdict}",
        simlint_seconds * 1e3,
        report.files,
        simlint_normalized,
        report.findings.len()
    );

    if failed {
        eprintln!(
            "bench smoke failed: a hot-loop bench regressed more than {MAX_REGRESSION}x \
             after machine normalization, or the 10M replay left its \
             {SCALE_BUDGET_SECONDS}s budget"
        );
        std::process::exit(1);
    }
}
