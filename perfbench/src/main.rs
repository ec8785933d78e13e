//! RecPipe end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <sweep|gray|brownout> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed, times its body on one
//! thread, checks the program's outputs, and prints one JSON object as
//! the last line of standard output. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it reruns the body decomposed
//! into its public layer calls, each wrapped in a span, and reports the
//! per-layer split. See README.md for what each workload stresses.

mod brownout;
mod gray;
mod sweep;
mod trace;

use std::time::Instant;

use recpipe_qsim::SimResult;

/// Timed body repetitions and set-up batches each run at least this
/// often (after one warm-up repetition), however long `--seconds` is.
const MIN_SAMPLES: usize = 3;
/// Set-up is timed in batches sized to take about this long each, so
/// microsecond set-ups are not lost in timer and allocator noise.
const SETUP_BATCH_S: f64 = 0.02;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Output checks, counted against the queries (or design points)
/// attempted.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    /// Fails `weight` attempted units when `ok` is false.
    pub fn expect(&mut self, ok: bool, weight: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += weight.max(1);
            self.errors.push(what());
        }
    }

    /// A conservation ledger: `accounted` must equal `offered`; each
    /// unaccounted (or double-counted) query is one failure.
    pub fn ledger(&mut self, what: &str, offered: usize, accounted: usize) {
        let gap = offered.abs_diff(accounted) as u64;
        self.expect(gap == 0, gap, || {
            format!("{what}: {accounted} accounted for {offered} offered")
        });
    }
}

/// The modeled (simulated) end-to-end outputs of one workload
/// repetition. Deterministic for a seed.
#[derive(Default)]
pub struct Modeled {
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Completed-query samples behind the percentiles.
    pub samples: usize,
    pub served_frac: f64,
    pub quality: f64,
    pub quality_goodput: f64,
}

impl Modeled {
    /// Latency percentiles and completed share of one simulation run
    /// that was offered `offered` queries.
    pub fn of(out: &SimResult, offered: usize, quality: f64, quality_goodput: f64) -> Self {
        let mut latency = out.latency.clone();
        Modeled {
            p50_ms: latency.p50().as_secs_f64() * 1e3,
            p99_ms: latency.p99().as_secs_f64() * 1e3,
            samples: latency.len(),
            served_frac: out.completed as f64 / offered as f64,
            quality,
            quality_goodput,
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Runs `f`, returning its output and its wall-clock seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, secs(t0))
}

/// Peak resident set size of this process (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run shared by every workload.
///
/// One cold set-up builds the state every repetition runs on; set-up
/// batches are then grown until a warm batch lasts [`SETUP_BATCH_S`].
/// One warm-up repetition gives the reference output, which `check`
/// validates, returning the units (queries or design points) one
/// repetition attempts and the modeled metrics. Then, until `--seconds`
/// have passed, rounds of one set-up batch followed by body repetitions
/// until the round's body time reaches the batch's, so set-up is
/// sampled across the whole window rather than in one burst of host
/// speed. `setup_s` is the median per-set-up time of the batches (their
/// state is dropped; the body keeps the first), `run_s` the median
/// repetition. Every repetition's output must equal the first (the body
/// is deterministic).
pub fn untraced<S, O: PartialEq>(
    args: &Args,
    checks: &mut Checks,
    mut setup: impl FnMut() -> S,
    body: impl Fn(&S) -> O,
    check: impl FnOnce(&S, &O, &mut Checks) -> (u64, Modeled),
) -> Vec<Metric> {
    let (state, cold_s) = timed(&mut setup);
    let mut set_up_batch = |n: usize| {
        timed(|| {
            for _ in 0..n {
                std::hint::black_box(setup());
            }
        })
        .1
    };
    let mut batch = (SETUP_BATCH_S / cold_s).ceil().max(1.0) as usize;
    while set_up_batch(batch) < SETUP_BATCH_S {
        batch *= 2;
    }
    let first = std::hint::black_box(body(&state));
    let (attempted_per_rep, modeled) = check(&state, &first, checks);
    checks.attempted += attempted_per_rep;

    let begin = Instant::now();
    let (mut per_setup, mut run) = (Vec::new(), Vec::new());
    while per_setup.len() < MIN_SAMPLES || run.len() < MIN_SAMPLES || secs(begin) < args.seconds {
        let batch_s = set_up_batch(batch);
        per_setup.push(batch_s / batch as f64);
        let mut round_s = 0.0;
        while round_s < batch_s {
            let (out, s) = timed(|| std::hint::black_box(body(&state)));
            round_s += s;
            run.push(s);
            checks.attempted += attempted_per_rep;
            checks.expect(out == first, attempted_per_rep, || {
                "a repetition's output differs from the first".to_string()
            });
        }
    }
    eprintln!(
        "{}: {} set-up batches of {batch}, {} repetitions",
        args.workload,
        per_setup.len(),
        run.len()
    );
    report_modeled(&args.workload, &modeled);
    end_to_end(median(&per_setup), median(&run), &modeled)
}

/// End-to-end metrics in `BENCHMARK.json` order.
fn end_to_end(setup_s: f64, run_s: f64, m: &Modeled) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", setup_s),
        metric("run_s", "s", run_s),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
        metric("sim_p50_ms", "sim_ms", m.p50_ms),
        metric("sim_p99_ms", "sim_ms", m.p99_ms),
        metric("served_frac", "ratio", m.served_frac),
        metric("quality", "NDCG", m.quality),
        metric("quality_goodput", "quality/sim_s", m.quality_goodput),
    ]
}

/// Prints the modeled outputs with the sample count behind the
/// percentiles (standard error; standard output ends with the result).
fn report_modeled(workload: &str, m: &Modeled) {
    eprintln!(
        "{workload}: sim p50 {:.4} ms, p99 {:.4} ms over {} samples; served {:.6}; \
         quality {:.6}; quality goodput {:.3}/s",
        m.p50_ms, m.p99_ms, m.samples, m.served_frac, m.quality, m.quality_goodput
    );
}

/// Counts from the traced run that spans cannot give, summed over its
/// repetitions. Times come from the spans themselves (see
/// [`per_layer`]).
#[derive(Default)]
pub struct Layers {
    pub reps: u64,
    /// Traced body time against the untraced body time, minus one.
    pub overhead_frac: f64,
    pub quality_mc_queries: u64,
    pub scheduler_pipelines: u64,
    pub scheduler_candidates: u64,
    /// Design points enumerated before spec errors and the stability
    /// pre-check pruned them.
    pub scheduler_enumerated: u64,
    pub qsim_sim_queries: u64,
    /// Sum of each simulation's mean batch size.
    pub qsim_batch_sum: f64,
    pub lifecycle_events: u64,
    pub lifecycle_windows: u64,
    pub res_offered: u64,
    pub res_timeouts: u64,
    pub res_retries: u64,
    pub res_denied: u64,
    pub res_hedges: u64,
    pub res_hedges_won: u64,
    pub res_wasted_s: f64,
    pub admitted: [u64; 3],
    pub admission_shed: u64,
    pub pareto_points: u64,
    pub pareto_front: u64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every per-layer metric in `BENCHMARK.json` order, per traced
/// repetition. Layers a workload does not exercise report zero.
///
/// Span names the workloads record: `quality.*`, `scheduler.*`,
/// `backend.*`, `qsim.*` (the workload body's simulations),
/// `pareto.*`, `multipath.*`, `data.*`, and gray's ablation ladders:
/// `shard.serial` (the plain routed loop), `shard.one_worker`,
/// `shard.nproc`, `ladder.lifecycle` and `ladder.inert`.
fn per_layer(l: &Layers, tracer: &trace::Tracer) -> Vec<Metric> {
    let reps = l.reps.max(1) as f64;
    let per = |v: f64| v / reps;
    let quality = tracer.totals("quality.");
    let scheduler = tracer.totals("scheduler.");
    let backend = tracer.totals("backend.");
    let qsim = tracer.totals("qsim.");
    let routed = tracer.totals("shard.serial").total_s;
    let one_worker = tracer.totals("shard.one_worker").total_s;
    let nproc = tracer.totals("shard.nproc").total_s;
    let lifecycle = tracer.totals("ladder.lifecycle").total_s;
    let inert = tracer.totals("ladder.inert").total_s;
    let resilient = tracer.totals("qsim.serve_resilient").total_s;
    let admitted_total: u64 = l.admitted.iter().sum();
    vec![
        metric("quality.calls", "count", per(quality.calls as f64)),
        metric(
            "quality.mc_queries",
            "count",
            per(l.quality_mc_queries as f64),
        ),
        metric("quality.busy_s", "s", per(quality.self_s)),
        metric(
            "quality.us_per_mc_query",
            "us",
            1e6 * ratio(quality.self_s, l.quality_mc_queries as f64),
        ),
        metric(
            "scheduler.pipelines",
            "count",
            per(l.scheduler_pipelines as f64),
        ),
        metric(
            "scheduler.candidates",
            "count",
            per(l.scheduler_candidates as f64),
        ),
        metric(
            "scheduler.prune_frac",
            "ratio",
            ratio(
                (l.scheduler_enumerated - l.scheduler_candidates) as f64,
                l.scheduler_enumerated as f64,
            ),
        ),
        metric("scheduler.enumerate_s", "s", per(scheduler.self_s)),
        metric("backend.specs", "count", per(backend.calls as f64)),
        metric("backend.spec_build_s", "s", per(backend.self_s)),
        metric("qsim.sims", "count", per(qsim.calls as f64)),
        metric("qsim.sim_queries", "count", per(l.qsim_sim_queries as f64)),
        metric("qsim.busy_s", "s", per(qsim.self_s)),
        metric(
            "qsim.ns_per_query",
            "ns",
            1e9 * ratio(qsim.self_s, l.qsim_sim_queries as f64),
        ),
        metric(
            "qsim.mean_batch",
            "queries",
            ratio(l.qsim_batch_sum, qsim.calls as f64),
        ),
        metric("shard.serial_s", "s", per(routed)),
        metric("shard.one_worker_s", "s", per(one_worker)),
        metric("shard.nproc_s", "s", per(nproc)),
        metric("shard.speedup", "x", ratio(one_worker, nproc)),
        metric("lifecycle.events", "count", per(l.lifecycle_events as f64)),
        metric(
            "lifecycle.windows",
            "count",
            per(l.lifecycle_windows as f64),
        ),
        metric("lifecycle.cost_s", "s", per(lifecycle - routed)),
        metric("resilience.timeouts", "count", per(l.res_timeouts as f64)),
        metric("resilience.retries", "count", per(l.res_retries as f64)),
        metric(
            "resilience.retries_denied",
            "count",
            per(l.res_denied as f64),
        ),
        metric(
            "resilience.hedges_issued",
            "count",
            per(l.res_hedges as f64),
        ),
        metric(
            "resilience.hedges_won",
            "count",
            per(l.res_hedges_won as f64),
        ),
        metric(
            "resilience.hedge_win_frac",
            "ratio",
            ratio(l.res_hedges_won as f64, l.res_hedges as f64),
        ),
        metric(
            "resilience.attempts_per_query",
            "attempts",
            ratio((l.res_offered + l.res_retries) as f64, l.res_offered as f64),
        ),
        metric("resilience.wasted_service_s", "sim_s", per(l.res_wasted_s)),
        metric("resilience.inert_cost_s", "s", per(inert - lifecycle)),
        metric("resilience.active_cost_s", "s", per(resilient - inert)),
        metric("admission.admitted_p0", "count", per(l.admitted[0] as f64)),
        metric("admission.admitted_p1", "count", per(l.admitted[1] as f64)),
        metric("admission.admitted_p2", "count", per(l.admitted[2] as f64)),
        metric("admission.shed", "count", per(l.admission_shed as f64)),
        metric(
            "admission.degraded_frac",
            "ratio",
            ratio(
                (l.admitted[1] + l.admitted[2]) as f64,
                admitted_total as f64,
            ),
        ),
        metric(
            "multipath.build_s",
            "s",
            per(tracer.totals("multipath.").self_s),
        ),
        metric("pareto.points", "count", per(l.pareto_points as f64)),
        metric("pareto.front", "count", per(l.pareto_front as f64)),
        metric(
            "pareto.extract_s",
            "s",
            per(tracer.totals("pareto.").self_s),
        ),
        metric(
            "data.trace_build_s",
            "s",
            per(tracer.totals("data.").self_s),
        ),
        metric("trace.overhead_frac", "ratio", l.overhead_frac),
    ]
}

/// Where the traced run leaves its spans: next to the build output, so
/// the checkout's tracked files stay untouched.
fn spans_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    std::path::Path::new(&dir)
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

/// The traced run shared by every workload: `iteration` runs one
/// traced repetition plus an untraced twin of its body and returns
/// `(traced_s, untraced_s)` of the body; repetitions continue until
/// `--seconds` have passed. Writes the spans and derives the per-layer
/// metrics from them.
pub fn traced_reps(
    args: &Args,
    mut iteration: impl FnMut(&mut trace::Tracer, &mut Layers) -> (f64, f64),
) -> Vec<Metric> {
    let mut tracer = trace::Tracer::new();
    let mut layers = Layers::default();
    let begin = Instant::now();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    while layers.reps == 0 || secs(begin) < args.seconds {
        let (t, p) = iteration(&mut tracer, &mut layers);
        traced.push(t);
        plain.push(p);
        layers.reps += 1;
    }
    layers.overhead_frac = median(&traced) / median(&plain) - 1.0;
    if let Err(e) = tracer.write_jsonl(&spans_path(args)) {
        eprintln!("perfbench: cannot write spans: {e}");
    }
    per_layer(&layers, &tracer)
}

fn print_result(checks: &Checks, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN/inf; a non-finite value already failed a
            // check, so print it as null.
            let v = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let metrics = match args.workload.as_str() {
        "sweep" => sweep::run(&args, &mut checks),
        "gray" => gray::run(&args, &mut checks),
        "brownout" => brownout::run(&args, &mut checks),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for m in &metrics {
        checks.expect(m.value.is_finite(), 1, || {
            format!("{} is not finite", m.name)
        });
    }
    for e in &checks.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    print_result(&checks, &metrics);
    if checks.failed > 0 {
        std::process::exit(1);
    }
}
