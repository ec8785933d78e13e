//! Explore RPAccel's micro-architectural design space: systolic-array
//! fission, asymmetric partitioning, sub-batch pipelining, and the
//! baseline comparison — the accelerator side of the paper (Sections
//! 6-7).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example accelerator_design
//! ```

use recpipe::accel::{
    AreaPowerModel, BaselineAccel, Partition, RpAccel, RpAccelConfig, SystolicArray,
};
use recpipe::core::Table;
use recpipe::data::DatasetKind;
use recpipe::hwsim::StageWork;
use recpipe::models::{ModelConfig, ModelKind};

fn criteo(kind: ModelKind, items: u64) -> StageWork {
    StageWork::new(
        ModelConfig::for_kind(kind, DatasetKind::CriteoKaggle),
        items,
    )
}

fn main() {
    let two_stage = vec![
        criteo(ModelKind::RmSmall, 4096),
        criteo(ModelKind::RmLarge, 512),
    ];

    // 1. Utilization: why fission pays (Figure 10a).
    println!("Systolic-array utilization (RMsmall@4096 vs RMlarge@512):\n");
    let mut util = Table::new(vec!["array", "RMsmall util", "RMlarge util"]);
    for dim in [16usize, 32, 64, 128] {
        let array = SystolicArray::new(dim, dim, 250_000_000);
        util.row(vec![
            format!("{dim}x{dim}"),
            format!(
                "{:.1}%",
                array.model_utilization(&two_stage[0].model, 4096) * 100.0
            ),
            format!(
                "{:.1}%",
                array.model_utilization(&two_stage[1].model, 512) * 100.0
            ),
        ]);
    }
    println!("{util}");

    // 2. Partition choice: latency/lanes tradeoff (Figure 12 bottom).
    println!("Partition sweep for the two-stage pipeline:\n");
    let mut part = Table::new(vec!["partition", "latency (us)", "lanes", "max QPS"]);
    for (f, b) in [(8usize, 2usize), (8, 8), (8, 16), (4, 4)] {
        let accel = RpAccel::new(RpAccelConfig::paper_default(Partition::symmetric(f, b)));
        let profile = accel.service_profile(&two_stage, 1);
        part.row(vec![
            format!("RPAccel({f},{b})"),
            format!("{:.0}", accel.query_latency(&two_stage, 1) * 1e6),
            profile.lanes.to_string(),
            format!("{:.0}", profile.max_qps()),
        ]);
    }
    println!("{part}");

    // 3. The Centaur-like baseline for contrast.
    let baseline = BaselineAccel::paper_default();
    let single = criteo(ModelKind::RmLarge, 4096);
    println!(
        "Baseline single-stage accelerator: {:.0} us/query (host filtering {:.0} us of it)",
        baseline.query_latency(&single, 64, 1) * 1e6,
        baseline.host_filter_time(4096, 64) * 1e6,
    );
    let best = RpAccel::new(RpAccelConfig::paper_default(Partition::symmetric(8, 2)));
    println!(
        "RPAccel(8,2) two-stage:           {:.0} us/query ({:.1}x faster)\n",
        best.query_latency(&two_stage, 1) * 1e6,
        baseline.query_latency(&single, 64, 1) / best.query_latency(&two_stage, 1),
    );

    // 4. What the extra hardware costs (Figure 11).
    let area = AreaPowerModel::paper_default();
    let (a, p) = area.overheads();
    println!(
        "RPAccel overhead vs baseline: +{:.1}% area, +{:.1}% power",
        a * 100.0,
        p * 100.0
    );
    let mut breakdown = Table::new(vec!["component", "area share", "power share"]);
    for ((name, area_share), (_, power_share)) in area
        .area_breakdown()
        .into_iter()
        .zip(area.power_breakdown())
    {
        breakdown.row(vec![
            name,
            format!("{:.1}%", area_share * 100.0),
            format!("{:.1}%", power_share * 100.0),
        ]);
    }
    println!("\n{breakdown}");
}
