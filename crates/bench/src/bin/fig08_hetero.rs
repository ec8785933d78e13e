//! Regenerates **Figure 8**: mapping multi-stage recommendation onto
//! heterogeneous CPU-GPU hardware.
//!
//! * Top: throughput vs p99 at iso-quality for CPU two-stage, GPU-CPU
//!   two-stage, and GPU-only single-stage.
//! * Bottom: quality vs latency at QPS 70 — at a 25 ms SLA the GPU ranks
//!   the full pool while the CPU cannot.

use recpipe_bench::{criteo_single_stage, criteo_two_stage};
use recpipe_core::{Engine, PipelineConfig, Placement, StageConfig, Table};
use recpipe_data::PoissonArrivals;
use recpipe_models::ModelKind;

fn commodity(pipeline: PipelineConfig, placement: Placement, seed: u64) -> Engine {
    Engine::commodity(pipeline)
        .placement(placement)
        .sim_queries(4_000)
        .seed(seed)
        .build()
        .expect("valid commodity engine")
}

fn main() {
    let cpu_two = criteo_two_stage(256);
    let gpu_one = criteo_single_stage(4096);

    println!("Figure 8 (top): iso-quality latency vs offered load\n");
    let engines = [
        commodity(cpu_two.clone(), Placement::cpu_only(2), 11),
        commodity(cpu_two.clone(), Placement::gpu_frontend(2, 4), 11),
        commodity(gpu_one.clone(), Placement::gpu_only(1), 11),
    ];
    let mut top = Table::new(vec![
        "QPS",
        "CPU 2-stage p99",
        "GPU-CPU 2-stage p99",
        "GPU 1-stage p99",
    ]);
    for qps in [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0] {
        let mut row = vec![format!("{qps:.0}")];
        for engine in &engines {
            if engine.max_qps() < qps {
                row.push("saturated".into());
            } else {
                // Latency-only table: a bare scenario skips the
                // (unused) quality evaluation.
                let mut sim = engine
                    .scenario(&PoissonArrivals::new(qps), 4_000)
                    .run()
                    .expect("valid scenario");
                row.push(format!("{:.2} ms", sim.p99_seconds() * 1e3));
            }
        }
        top.row(row);
    }
    println!("{top}");
    println!(
        "Paper shape: GPU-enabled designs win latency at low load and\n\
         collapse at high load; CPU-only sustains the highest throughput.\n"
    );

    println!("Figure 8 (bottom): quality vs latency at QPS 70 (25 ms SLA)\n");
    let mut bottom = Table::new(vec![
        "items ranked",
        "CPU 2-stage p99",
        "CPU NDCG",
        "GPU 1-stage p99",
        "GPU NDCG",
    ]);
    let sla = 0.025;
    for items in [2048u64, 2560, 3200, 4096] {
        let cpu_pipeline = PipelineConfig::builder()
            .stage(StageConfig::new(ModelKind::RmSmall, items, 256))
            .stage(StageConfig::new(ModelKind::RmLarge, 256, 64))
            .build()
            .unwrap();
        let cpu = Engine::commodity(cpu_pipeline)
            .placement(Placement::cpu_only(2))
            .load(70.0)
            .sla(sla)
            .sim_queries(4_000)
            .build()
            .expect("valid CPU engine")
            .evaluate();
        let gpu = Engine::commodity(criteo_single_stage(items))
            .placement(Placement::gpu_only(1))
            .load(70.0)
            .sla(sla)
            .sim_queries(4_000)
            .build()
            .expect("valid GPU engine")
            .evaluate();
        let fmt_sla = |p99_ms: f64, met: Option<bool>| {
            if met == Some(false) {
                format!("{p99_ms:.2} ms (>SLA)")
            } else {
                format!("{p99_ms:.2} ms")
            }
        };
        bottom.row(vec![
            items.to_string(),
            fmt_sla(cpu.p99_ms(), cpu.meets_sla),
            format!("{:.2}", cpu.ndcg_percent()),
            fmt_sla(gpu.p99_ms(), gpu.meets_sla),
            format!("{:.2}", gpu.ndcg_percent()),
        ]);
    }
    println!("{bottom}");
    println!(
        "Paper anchors: at the 25 ms SLA the CPU design stops near 3200\n\
         items (NDCG ~87) while the GPU ranks all 4096 (NDCG 92.25)."
    );
}
