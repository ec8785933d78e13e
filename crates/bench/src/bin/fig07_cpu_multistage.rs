//! Regenerates **Figure 7**: multi-stage pipelines on CPUs.
//!
//! * Left: single-stage quality vs tail latency per model tier.
//! * Center: one/two/three-stage Pareto frontiers at QPS 500.
//! * Right: latency vs throughput at iso-quality (NDCG 92.25-class).

use recpipe_bench::{criteo_single_stage, criteo_three_stage, criteo_two_stage};
use recpipe_core::{Engine, PipelineConfig, Placement, Scheduler, SchedulerSettings, Table};
use recpipe_data::PoissonArrivals;
use recpipe_models::ModelKind;

fn main() {
    println!("Figure 7 (left): single-stage quality vs p99 on CPU, QPS 500\n");
    let mut left = Table::new(vec!["model", "items", "NDCG", "p99 (ms)"]);
    for kind in ModelKind::ALL {
        for items in [1024u64, 2048, 4096] {
            let pipeline = PipelineConfig::single_stage(kind, items, 64).unwrap();
            let engine = Engine::commodity(pipeline)
                .placement(Placement::cpu_only(1))
                .load(500.0)
                .sim_queries(4_000)
                .build()
                .expect("valid single-stage engine");
            let outcome = engine.evaluate();
            left.row(vec![
                kind.to_string(),
                items.to_string(),
                format!("{:.2}", outcome.ndcg_percent()),
                format!("{:.2}", outcome.p99_ms()),
            ]);
        }
    }
    println!("{left}");

    let settings = SchedulerSettings::paper_default();
    println!(
        "Figure 7 (center): Pareto frontier per stage count at QPS 500 \
         ({} sweep workers)\n",
        recpipe_core::worker_threads(settings.workers)
    );
    let scheduler = Scheduler::new(settings);
    let points = scheduler.explore_cpu(500.0, 3);
    let mut center = Table::new(vec!["stages", "pipeline", "mapping", "NDCG", "p99 (ms)"]);
    for stages in 1..=3usize {
        let subset: Vec<_> = points
            .iter()
            .filter(|p| p.pipeline.num_stages() == stages)
            .cloned()
            .collect();
        let mut frontier = Scheduler::pareto(subset).into_vec();
        frontier.sort_by(|a, b| b.ndcg.partial_cmp(&a.ndcg).unwrap());
        for p in frontier.iter().take(3) {
            center.row(vec![
                stages.to_string(),
                p.pipeline.describe(),
                p.mapping.clone(),
                format!("{:.2}", p.ndcg_percent()),
                format!("{:.2}", p.p99_ms()),
            ]);
        }
    }
    println!("{center}");

    println!("Figure 7 (right): iso-quality latency vs offered load\n");
    let designs = [
        ("1-stage", criteo_single_stage(4096), Placement::cpu_only(1)),
        ("2-stage", criteo_two_stage(256), Placement::cpu_only(2)),
        ("3-stage", criteo_three_stage(), Placement::cpu_only(3)),
    ];
    let engines: Vec<Engine> = designs
        .iter()
        .map(|(_, pipeline, placement)| {
            Engine::commodity(pipeline.clone())
                .placement(placement.clone())
                .sim_queries(4_000)
                .seed(7)
                .build()
                .expect("valid CPU engine")
        })
        .collect();
    let loads = [100.0, 250.0, 500.0, 1000.0, 2000.0];
    let mut right = Table::new(vec!["QPS", "1-stage p99", "2-stage p99", "3-stage p99"]);
    // p99 in ms per load and design; `None` where the design saturates.
    let mut p99_ms: Vec<Vec<Option<f64>>> = Vec::new();
    for qps in loads {
        let p99s: Vec<Option<f64>> = engines
            .iter()
            .map(|engine| {
                // Latency-only table: a bare scenario skips the (unused)
                // quality evaluation.
                (engine.max_qps() >= qps).then(|| {
                    let mut sim = engine
                        .scenario(&PoissonArrivals::new(qps), 4_000)
                        .run()
                        .expect("valid scenario");
                    sim.p99_seconds() * 1e3
                })
            })
            .collect();
        let mut row = vec![format!("{qps:.0}")];
        row.extend(p99s.iter().map(|p99| match p99 {
            Some(ms) => format!("{ms:.2} ms"),
            None => "saturated".into(),
        }));
        right.row(row);
        p99_ms.push(p99s);
    }
    println!("{right}");
    println!("Paper shape: two-stage cuts tail latency ~4.4x vs single-stage at QPS 500.");
    for (more, fewer) in [(1, 0), (2, 1)] {
        let (more_name, fewer_name) = (designs[more].0, designs[fewer].0);
        let pairs: Vec<(f64, f64, f64)> = loads
            .iter()
            .zip(&p99_ms)
            .filter_map(|(&qps, row)| Some((qps, row[more]?, row[fewer]?)))
            .collect();
        let lower = pairs.iter().filter(|&&(_, m, f)| m < f).count();
        print!(
            "Measured: {more_name} p99 is below {fewer_name} at {lower} of {} loads both sustain",
            pairs.len()
        );
        match pairs.iter().find(|&&(qps, _, _)| qps == 500.0) {
            Some(&(_, m, f)) => {
                println!("; at QPS 500, {m:.2} vs {f:.2} ms ({:.2}x).", f / m)
            }
            None => println!("."),
        }
    }
}
