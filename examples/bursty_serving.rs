//! Batching-aware serving under realistic traffic: drive one pipeline
//! through the arrival-process x scheduling-policy matrix and watch the
//! tail move.
//!
//! The paper evaluates under Poisson arrivals with per-query FIFO
//! serving; production traffic is burstier and production servers
//! batch. This example serves the two-stage Criteo pipeline on the
//! commodity GPU+CPU platform with dynamic batching enabled and
//! compares:
//!
//! * **arrivals** — Poisson, bursty MMPP, a compressed diurnal cycle,
//!   and a closed-loop client population, all at the same nominal load;
//! * **policies** — work-conserving FIFO, a 2 ms batch window, and
//!   earliest-deadline-first against the 25 ms SLA (deadline-ordered,
//!   batching only within each query's slack budget).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example bursty_serving
//! ```

use recpipe::core::{Engine, PipelineConfig, Placement, StageConfig, Table};
use recpipe::data::{
    ArrivalProcess, ClosedLoopArrivals, DiurnalArrivals, MmppArrivals, PoissonArrivals,
};
use recpipe::models::ModelKind;
use recpipe::qsim::{BatchWindow, EarliestDeadlineFirst, Fifo, SchedulingPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pipeline = PipelineConfig::builder()
        .stage(StageConfig::new(ModelKind::RmSmall, 4096, 256))
        .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
        .build()?;

    // GPU frontend, CPU backend, with every stage carrying its
    // backend's batch-scaling curve.
    let engine = Engine::commodity(pipeline)
        .placement(Placement::gpu_frontend(2, 2))
        .batching(true)
        .quality_queries(200)
        .build()?;

    let qps = 400.0;
    println!(
        "Two-stage pipeline on {}  (per-query capacity {:.0} QPS, fully-batched {:.0} QPS)",
        engine.placement().describe(engine.backends()),
        engine.spec().max_qps(),
        engine.spec().max_qps_at_full_batch(),
    );

    let arrivals: Vec<Box<dyn ArrivalProcess>> = vec![
        Box::new(PoissonArrivals::new(qps)),
        // Quiet 100 QPS / surge 1600 QPS, same 400 QPS mean.
        Box::new(MmppArrivals::new(100.0, 1_600.0, 0.8, 0.2)),
        // A "day" compressed into 8 simulated seconds.
        Box::new(DiurnalArrivals::new(80.0, 720.0, 8.0)),
        // 24 clients thinking 60 ms between queries.
        Box::new(ClosedLoopArrivals::new(24, 0.060)),
    ];
    let policies: Vec<Box<dyn SchedulingPolicy>> = vec![
        Box::new(Fifo),
        Box::new(BatchWindow::new(0.002)),
        Box::new(EarliestDeadlineFirst::new(0.025)),
    ];

    let mut table = Table::new(vec![
        "arrivals",
        "policy",
        "p50 (ms)",
        "p99 (ms)",
        "QPS",
        "mean batch",
    ]);
    for arrival in &arrivals {
        for policy in &policies {
            let mut result = engine
                .scenario(arrival.as_ref(), 20_000)
                .policy(policy.as_ref())
                .run()?;
            table.row(vec![
                arrival.name(),
                policy.name(),
                format!("{:.2}", result.p50_seconds() * 1e3),
                format!("{:.2}", result.p99_seconds() * 1e3),
                format!("{:.0}", result.qps),
                format!("{:.2}", result.mean_batch),
            ]);
        }
    }
    println!("{table}");

    println!("Reading the matrix:");
    println!(
        "  - bursty (MMPP) and diurnal arrivals fatten p99 versus Poisson at the same mean load;"
    );
    println!(
        "  - the batch window grows batches (amortizing fixed launch work) at a latency tax —"
    );
    println!("    a trade worth making near saturation, not at light load;");
    println!("  - EDF orders by system age and batches only inside each query's slack budget —");
    println!("    deadline-bounded batching between FIFO's eagerness and the fixed window;");
    println!("  - the closed loop self-regulates under FIFO (latency pinned at the floor), while");
    println!("    batch-forming policies sync its clients into convoys — EDF's deadline bound");
    println!("    keeps those convoys far shorter than the fixed window's.");
    Ok(())
}
