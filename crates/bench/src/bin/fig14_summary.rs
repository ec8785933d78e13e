//! Regenerates **Figure 14**: the cross-dataset summary — p99 tail
//! latency at iso-quality for three datasets x three system loads x
//! three platforms x one/two/three-stage pipelines.
//!
//! Cells are `saturated` when a configuration cannot meet the load
//! (greyed out in the paper).

use recpipe_accel::Partition;
use recpipe_core::{Engine, PipelineConfig, Placement, StageConfig, Table};
use recpipe_data::{DatasetKind, PoissonArrivals};
use recpipe_models::ModelKind;

/// Canonical 1/2/3-stage pipelines per dataset, scaled to the dataset's
/// pool size and per-stage reduction factor.
fn pipelines(dataset: DatasetKind) -> Vec<PipelineConfig> {
    let pool: u64 = match dataset {
        DatasetKind::MovieLens1M => 1024,
        _ => 4096,
    };
    let reduction: u64 = match dataset {
        DatasetKind::CriteoKaggle => 5,
        DatasetKind::MovieLens1M => 2,
        DatasetKind::MovieLens20M => 4,
    };
    let mid = (pool / reduction).max(64);
    let mid2 = (mid / reduction).max(64);

    let one = PipelineConfig::builder()
        .dataset(dataset)
        .stage(StageConfig::new(ModelKind::RmLarge, pool, 64))
        .build()
        .unwrap();
    let two = PipelineConfig::builder()
        .dataset(dataset)
        .stage(StageConfig::new(ModelKind::RmSmall, pool, mid))
        .stage(StageConfig::new(ModelKind::RmLarge, mid, 64))
        .build()
        .unwrap();
    let three = PipelineConfig::builder()
        .dataset(dataset)
        .stage(StageConfig::new(ModelKind::RmSmall, pool, mid))
        .stage(StageConfig::new(ModelKind::RmMed, mid, mid2))
        .stage(StageConfig::new(ModelKind::RmLarge, mid2, 64))
        .build()
        .unwrap();
    vec![one, two, three]
}

/// The platform's engine for a pipeline: CPU-only, GPU frontend + CPU
/// backend(s), or RPAccel.
fn platform_engine(platform: &str, pipeline: &PipelineConfig) -> Engine {
    let stages = pipeline.num_stages();
    let builder = match platform {
        "accel" => {
            let partition = if stages == 1 {
                Partition::monolithic()
            } else {
                Partition::symmetric(8, 8)
            };
            Engine::rpaccel(pipeline.clone(), partition)
        }
        "gpu" => {
            let placement = if stages == 1 {
                Placement::gpu_only(1)
            } else {
                // GPU frontend + CPU backend(s) per the paper's Section 5.2.
                Placement::gpu_frontend(stages, 2)
            };
            Engine::commodity(pipeline.clone()).placement(placement)
        }
        _ => Engine::commodity(pipeline.clone()).placement(Placement::cpu_only(stages)),
    };
    builder
        .sim_queries(3_000)
        .seed(21)
        .build()
        .expect("valid platform engine")
}

fn main() {
    let loads = [100.0, 500.0, 2000.0];

    println!("Figure 14: iso-quality tail latency summary (p99, ms)\n");
    for dataset in DatasetKind::ALL {
        println!("== {dataset} ==\n");
        let mut table = Table::new(vec!["platform", "stages", "100 QPS", "500 QPS", "2000 QPS"]);
        for platform in ["cpu", "gpu", "accel"] {
            for (i, pipeline) in pipelines(dataset).iter().enumerate() {
                let engine = platform_engine(platform, pipeline);
                let mut row = vec![platform.to_string(), (i + 1).to_string()];
                for &qps in &loads {
                    if engine.max_qps() < qps {
                        row.push("saturated".into());
                        continue;
                    }
                    // Latency-only table: a bare scenario skips the
                    // (unused) quality evaluation.
                    let mut sim = engine
                        .scenario(&PoissonArrivals::new(qps), 3_000)
                        .run()
                        .expect("valid scenario");
                    if sim.saturated {
                        row.push("saturated".into());
                    } else {
                        row.push(format!("{:.2}", sim.p99_seconds() * 1e3));
                    }
                }
                table.row(row);
            }
        }
        println!("{table}");
    }
    println!(
        "Paper shape: the optimal stage count varies with load, platform,\n\
         and dataset; RPAccel dominates tail latency everywhere it fits;\n\
         GPU designs grey out at high loads."
    );
}
