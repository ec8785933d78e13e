//! Regenerates the **Figure 5 (right)** ablation: RPAccel's five
//! optimizations applied cumulatively over the baseline accelerator.
//!
//! * O.1 multi-stage decomposition (paper: 2.5x latency)
//! * O.2 on-chip top-k filtering (1.5x latency)
//! * O.3 reconfigurable sub-arrays (2x throughput)
//! * O.4 dual embedding caches
//! * O.5 sub-batch pipelining (1.3x latency)
//! * overall: ~5x latency and ~10x throughput

use recpipe_accel::{
    BaselineAccel, EmbeddingCacheConfig, Partition, RpAccel, RpAccelConfig, SubBatchSchedule,
};
use recpipe_core::Table;
use recpipe_data::DatasetKind;
use recpipe_hwsim::StageWork;
use recpipe_models::{ModelConfig, ModelKind};

fn criteo(kind: ModelKind, items: u64) -> StageWork {
    StageWork::new(
        ModelConfig::for_kind(kind, DatasetKind::CriteoKaggle),
        items,
    )
}

fn main() {
    let single = criteo(ModelKind::RmLarge, 4096);
    let two_stage = vec![
        criteo(ModelKind::RmSmall, 4096),
        criteo(ModelKind::RmLarge, 512),
    ];

    let baseline = BaselineAccel::paper_default();
    let base_latency = baseline.query_latency(&single, 64, 1);
    let base_profile = baseline.service_profile(&single, 64, 1);

    // Ablation steps built by progressively enabling features.
    let no_cache = EmbeddingCacheConfig {
        lookahead_bytes: 0,
        prefetch_coverage: 0.0,
        ..EmbeddingCacheConfig::paper_default()
    };

    // O.1: multi-stage on the monolithic array, still no accel top-k
    // (host round trip), no dual cache, no pipelining.
    let mut o1_cfg = RpAccelConfig::paper_default(Partition::monolithic());
    o1_cfg.schedule = SubBatchSchedule::unpipelined();
    o1_cfg.cache = no_cache;
    o1_cfg.gather_efficiency = baseline.gather_efficiency;
    let o1 = RpAccel::new(o1_cfg.clone());
    let host_rt = baseline.host_filter_time(4096, 512);
    let o1_latency = o1.query_latency(&two_stage, 1) + host_rt;

    // O.2: + on-chip top-k (drop the host round trip).
    let o2_latency = o1.query_latency(&two_stage, 1);

    // O.3: + reconfigurable sub-arrays (concurrent stages & queries).
    let mut o3_cfg = o1_cfg.clone();
    o3_cfg.partition = Partition::symmetric(8, 2);
    let o3 = RpAccel::new(o3_cfg.clone());
    let o3_latency = o3.query_latency(&two_stage, 1);

    // O.4: + dual embedding caches (static + look-ahead, better gathers).
    let mut o4_cfg = o3_cfg.clone();
    o4_cfg.cache = EmbeddingCacheConfig::paper_default();
    o4_cfg.gather_efficiency =
        RpAccelConfig::paper_default(Partition::monolithic()).gather_efficiency;
    let o4 = RpAccel::new(o4_cfg.clone());
    let o4_latency = o4.query_latency(&two_stage, 1);

    // O.5: + sub-batch pipelining.
    let mut o5_cfg = o4_cfg.clone();
    o5_cfg.schedule = SubBatchSchedule::paper_default();
    let o5 = RpAccel::new(o5_cfg);
    let o5_latency = o5.query_latency(&two_stage, 1);
    let o5_profile = o5.service_profile(&two_stage, 1);

    let mut table = Table::new(vec!["step", "latency (us)", "cumulative speedup"]);
    let mut rows = vec![("baseline (single-stage + host filter)", base_latency)];
    rows.push(("O.1 + multi-stage models", o1_latency));
    rows.push(("O.2 + on-chip top-k filter", o2_latency));
    rows.push(("O.3 + reconfigurable sub-arrays", o3_latency));
    rows.push(("O.4 + dual embedding caches", o4_latency));
    rows.push(("O.5 + sub-batch pipelining", o5_latency));
    for (name, latency) in &rows {
        table.row(vec![
            name.to_string(),
            format!("{:.0}", latency * 1e6),
            format!("{:.2}x", base_latency / latency),
        ]);
    }
    println!("Figure 5 (right): RPAccel ablation, two-stage Criteo query\n");
    println!("{table}");
    println!(
        "overall latency gain: {:.1}x (paper: ~5x)\nthroughput gain:      {:.1}x (paper: ~10x; caps {:.0} -> {:.0} QPS)",
        base_latency / o5_latency,
        o5_profile.max_qps() / base_profile.max_qps(),
        base_profile.max_qps(),
        o5_profile.max_qps(),
    );
}
