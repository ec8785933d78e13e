use std::borrow::Cow;

use recpipe_data::{DatasetSpec, Zipf};
use recpipe_hwsim::{MemoryModel, PcieModel, StageWork};

use crate::{
    EmbeddingCache, EmbeddingCacheConfig, Partition, SubArray, SubBatchSchedule, SystolicArray,
    TopKFilter,
};

/// Configuration of an RPAccel instance (Table 3 resources plus the
/// fission/pipelining design choices of Section 6).
#[derive(Debug, Clone, PartialEq)]
pub struct RpAccelConfig {
    /// Systolic-array fission plan (O.3).
    pub partition: Partition,
    /// Sub-batch pipelining schedule (O.5).
    pub schedule: SubBatchSchedule,
    /// Dual embedding-cache provisioning (O.4).
    pub cache: EmbeddingCacheConfig,
    /// Accelerator clock (Table 3: 250 MHz).
    pub freq_hz: u64,
    /// Weight/activation SRAM (Table 3: 8 MB); half is modeled as
    /// activation buffering.
    pub weight_act_sram_bytes: u64,
    /// Host link.
    pub pcie: PcieModel,
    /// Device DRAM (Table 3: 16 GB, 64 GB/s, 100 cycles).
    pub dram: MemoryModel,
    /// Fraction of DRAM bandwidth achieved by embedding gathers; higher
    /// than the baseline's because the look-ahead unit batches fetches.
    pub gather_efficiency: f64,
    /// Rows per embedding table of the served workload.
    pub table_rows: u64,
    /// Zipf exponent of embedding popularity.
    pub zipf_exponent: f64,
}

impl RpAccelConfig {
    /// Table 3 resources with the paper's operating points, serving the
    /// Criteo-like workload.
    pub fn paper_default(partition: Partition) -> Self {
        Self {
            partition,
            schedule: SubBatchSchedule::paper_default(),
            cache: EmbeddingCacheConfig::paper_default(),
            freq_hz: 250_000_000,
            weight_act_sram_bytes: 8 * 1024 * 1024,
            pcie: PcieModel::measured(),
            dram: MemoryModel::accel_dram(),
            gather_efficiency: 0.15,
            table_rows: 2_600_000,
            zipf_exponent: 0.9,
        }
    }

    /// Adapts the workload parameters to a dataset.
    pub fn with_dataset(mut self, spec: &DatasetSpec) -> Self {
        self.table_rows = spec.rows_per_table;
        self.zipf_exponent = spec.zipf_exponent;
        self
    }
}

/// Service profile the queueing simulator consumes: the time of one
/// launch is split into a memory phase (serialized on the shared DRAM
/// system) and a compute phase (parallel across `lanes` sub-array groups).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceProfile {
    /// Seconds of DRAM occupancy per launch (gathers + spills + weights).
    pub dram_service_s: f64,
    /// Seconds of sub-array occupancy per launch (everything else).
    pub compute_service_s: f64,
    /// Concurrent query lanes.
    pub lanes: usize,
}

impl ServiceProfile {
    /// Splits one launch's `latency` into its DRAM occupancy `dram`,
    /// capped at 95% of the latency, and the compute rest, floored at
    /// 1 ns, served on `lanes` lanes.
    pub(crate) fn split(latency: f64, dram: f64, lanes: usize) -> Self {
        let dram = dram.min(latency * 0.95);
        Self {
            dram_service_s: dram,
            compute_service_s: (latency - dram).max(1e-9),
            lanes,
        }
    }

    /// Maximum sustainable launch rate: QPS for a profile of one query.
    pub fn max_qps(&self) -> f64 {
        let dram_cap = if self.dram_service_s > 0.0 {
            1.0 / self.dram_service_s
        } else {
            f64::INFINITY
        };
        let lane_cap = self.lanes as f64 / self.compute_service_s.max(1e-12);
        dram_cap.min(lane_cap)
    }
}

/// The RPAccel accelerator: reconfigurable systolic array, on-chip top-k
/// filtering, dual embedding caches, and sub-batch pipelining.
///
/// # Examples
///
/// ```
/// use recpipe_accel::{Partition, RpAccel, RpAccelConfig};
/// use recpipe_data::DatasetKind;
/// use recpipe_hwsim::StageWork;
/// use recpipe_models::{ModelConfig, ModelKind};
///
/// let accel = RpAccel::new(RpAccelConfig::paper_default(Partition::symmetric(8, 2)));
/// let criteo = |kind, items| {
///     StageWork::new(ModelConfig::for_kind(kind, DatasetKind::CriteoKaggle), items)
/// };
/// let two_stage = [criteo(ModelKind::RmSmall, 4096), criteo(ModelKind::RmLarge, 512)];
/// assert!(accel.query_latency(&two_stage, 1) < 0.005);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RpAccel {
    config: RpAccelConfig,
}

impl RpAccel {
    /// Creates an accelerator from a configuration.
    pub fn new(config: RpAccelConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &RpAccelConfig {
        &self.config
    }

    fn popularity(&self) -> Zipf {
        Zipf::new(self.config.table_rows.max(1), self.config.zipf_exponent)
    }

    /// Builds the dual-cache model for a concrete stage chain.
    pub fn build_cache(&self, stages: &[StageWork]) -> EmbeddingCache {
        let front = stages.first().expect("at least one stage");
        let back = stages.last().expect("at least one stage");
        let tables = front.model.num_tables.max(1) as u64;
        EmbeddingCache::new(
            self.config.cache,
            self.popularity(),
            (front.model.embedding_dim * 4).max(1) as u64,
            (back.model.embedding_dim * 4).max(1) as u64,
            tables,
        )
    }

    /// Sub-array assigned to stage `idx` of an `n`-stage chain.
    fn sub_array_for_stage(&self, idx: usize, n: usize) -> SubArray {
        let p = &self.config.partition;
        if p.is_monolithic() || n == 1 {
            return p.frontend()[0];
        }
        if idx == 0 {
            p.frontend()[0]
        } else {
            // Later stages share the backend group round-robin.
            p.backend()[(idx - 1) % p.backend().len().max(1)]
        }
    }

    fn array_for(&self, sub: SubArray) -> SystolicArray {
        sub.as_array(self.config.freq_hz)
    }

    /// MLP time of one stage on its sub-array (seconds).
    pub fn stage_mlp_time(&self, work: &StageWork, idx: usize, n: usize) -> f64 {
        let array = self.array_for(self.sub_array_for_stage(idx, n));
        array.cycles_to_seconds(array.model_cycles(&work.model, work.items))
    }

    /// Activation-spill traffic for one stage in bytes (written out and
    /// read back when a chunk's activations overflow the on-chip buffer).
    pub fn spill_bytes(&self, work: &StageWork) -> u64 {
        let chunk = (work.items / self.config.schedule.sub_batches() as u64).max(1);
        let widest = work
            .model
            .mlp_bottom
            .iter()
            .chain(work.model.mlp_top.iter())
            .copied()
            .max()
            .unwrap_or(1) as u64;
        // Double-buffered activations; half the SRAM holds weights.
        let act_bytes = chunk * widest * 4 * 2;
        let act_sram = self.config.weight_act_sram_bytes / 2;
        2 * act_bytes.saturating_sub(act_sram)
    }

    /// DRAM occupancy of one query (embedding-gather misses, activation
    /// spills, weight streaming) in seconds.
    pub fn dram_time(&self, stages: &[StageWork]) -> f64 {
        let cache = self.build_cache(stages);
        let gather_bw = self.config.dram.bandwidth() * self.config.gather_efficiency;
        let mut t = 0.0;
        for (idx, work) in stages.iter().enumerate() {
            let frontend = idx == 0;
            let hit = if frontend {
                cache.frontend_hit_rate()
            } else {
                cache.backend_hit_rate()
            };
            let cost = work.cost();
            let line = cost.bytes_per_lookup.max(64) as f64;
            let lookups = (cost.sparse_lookups_per_item * work.items) as f64;
            t += lookups * (1.0 - hit) * line / gather_bw;
            t += self.spill_bytes(work) as f64 / self.config.dram.bandwidth();
            t += cost.mlp_param_bytes as f64 / self.config.dram.bandwidth();
        }
        t
    }

    /// End-to-end latency of a launch of `batch` queries through the
    /// stage chain (`batch = 1` is one query). The candidate sets
    /// concatenate, so MLP weight streaming, activation-spill setup, and
    /// PCIe input setup amortize across the batch while embedding
    /// gathers scale with the items.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn query_latency(&self, stages: &[StageWork], batch: usize) -> f64 {
        assert!(!stages.is_empty(), "need at least one stage");
        let stages = &launch(stages, batch);
        let n = stages.len();
        let cache = self.build_cache(stages);

        // Per-stage busy times: MLP + embedding fetch + filter drain.
        let filter_drain = |work: &StageWork, last: bool| -> f64 {
            if last {
                return 0.0;
            }
            let k = (work.items / 8).max(64); // forwarded survivors
            let filter = TopKFilter::paper_default(k as usize);
            (filter.num_bins() as u64 + k) as f64 / self.config.freq_hz as f64
        };

        let stage_times: Vec<f64> = stages
            .iter()
            .enumerate()
            .map(|(idx, work)| {
                self.stage_mlp_time(work, idx, n)
                    + cache.stage_fetch_time(work.items, idx == 0)
                    + self.spill_bytes(work) as f64 / self.config.dram.bandwidth()
                    + filter_drain(work, idx + 1 == n)
            })
            .collect();

        let pipeline_time = if n == 1 {
            stage_times[0]
        } else {
            self.config.schedule.makespan(&stage_times)
        };

        self.config.pcie.transfer_time(stages[0].input_bytes()) + pipeline_time
    }

    /// At-scale service profile of a launch of `batch` queries for the
    /// queueing simulator: the whole-launch service times of the
    /// serialized DRAM phase and the lanes-parallel compute phase.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn service_profile(&self, stages: &[StageWork], batch: usize) -> ServiceProfile {
        let latency = self.query_latency(stages, batch);
        let dram = self.dram_time(&launch(stages, batch));
        ServiceProfile::split(latency, dram, self.config.partition.query_lanes())
    }
}

/// `stages` as one launch of `batch` queries: the candidate sets
/// concatenate, so every stage ranks `batch` times its items. Borrowed
/// for a single query.
pub(crate) fn launch(stages: &[StageWork], batch: usize) -> Cow<'_, [StageWork]> {
    if batch <= 1 {
        return Cow::Borrowed(stages);
    }
    let scale = |w: &StageWork| StageWork::new(w.model.clone(), w.items * batch as u64);
    Cow::Owned(stages.iter().map(scale).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use recpipe_data::DatasetKind;
    use recpipe_models::{ModelConfig, ModelKind};

    fn criteo(kind: ModelKind, items: u64) -> StageWork {
        StageWork::new(
            ModelConfig::for_kind(kind, DatasetKind::CriteoKaggle),
            items,
        )
    }

    fn two_stage() -> Vec<StageWork> {
        vec![
            criteo(ModelKind::RmSmall, 4096),
            criteo(ModelKind::RmLarge, 512),
        ]
    }

    fn accel(partition: Partition) -> RpAccel {
        RpAccel::new(RpAccelConfig::paper_default(partition))
    }

    #[test]
    fn two_stage_latency_is_sub_millisecond_scale() {
        let a = accel(Partition::symmetric(8, 8));
        let t = a.query_latency(&two_stage(), 1);
        assert!((1e-4..5e-3).contains(&t), "two-stage latency {t} s");
    }

    #[test]
    fn asymmetric_backend_cuts_low_load_latency() {
        // Figure 12 (bottom): RPAccel8,2 (two big backend arrays) beats
        // RPAccel8,16 on single-query latency.
        let big_backend = accel(Partition::symmetric(8, 2)).query_latency(&two_stage(), 1);
        let small_backend = accel(Partition::symmetric(8, 16)).query_latency(&two_stage(), 1);
        assert!(
            big_backend < small_backend,
            "8,2: {big_backend} vs 8,16: {small_backend}"
        );
    }

    #[test]
    fn more_lanes_raise_throughput_cap() {
        let p8 = accel(Partition::symmetric(8, 8)).service_profile(&two_stage(), 1);
        let p2 = accel(Partition::symmetric(2, 2)).service_profile(&two_stage(), 1);
        assert!(p8.lanes > p2.lanes);
    }

    #[test]
    fn dram_caps_throughput_before_lanes() {
        // With 8 lanes and sub-millisecond compute, the shared memory
        // system is the binding constraint (the reason the paper's
        // throughput tops out near ~1300 QPS rather than scaling with
        // lanes).
        let profile = accel(Partition::symmetric(8, 8)).service_profile(&two_stage(), 1);
        let dram_cap = 1.0 / profile.dram_service_s;
        let lane_cap = profile.lanes as f64 / profile.compute_service_s;
        assert!(dram_cap < lane_cap, "dram {dram_cap} vs lanes {lane_cap}");
        assert!((500.0..20_000.0).contains(&profile.max_qps()));
    }

    #[test]
    fn multi_stage_beats_single_stage_latency() {
        // O.1: decomposing the monolithic model reduces query latency.
        let single = RpAccel::new(RpAccelConfig::paper_default(Partition::monolithic()));
        let multi = accel(Partition::symmetric(8, 2));
        let t_single = single.query_latency(&[criteo(ModelKind::RmLarge, 4096)], 1);
        let t_multi = multi.query_latency(&two_stage(), 1);
        assert!(
            t_single / t_multi > 1.5,
            "single {t_single} vs multi {t_multi}"
        );
    }

    #[test]
    fn spills_vanish_with_subbatching() {
        let a = accel(Partition::symmetric(8, 8));
        // RMlarge@4096 in 4 chunks: 1024 x 512 wide x 8 B = 4 MB ≤ 4 MB
        // activation SRAM → no spill.
        assert_eq!(a.spill_bytes(&criteo(ModelKind::RmLarge, 4096)), 0);
        // Without sub-batching the same stage spills.
        let mut cfg = RpAccelConfig::paper_default(Partition::symmetric(8, 8));
        cfg.schedule = SubBatchSchedule::unpipelined();
        let unbatched = RpAccel::new(cfg);
        assert!(unbatched.spill_bytes(&criteo(ModelKind::RmLarge, 4096)) > 0);
    }

    #[test]
    fn service_profile_is_consistent() {
        let a = accel(Partition::symmetric(8, 8));
        let stages = two_stage();
        let p = a.service_profile(&stages, 1);
        let latency = p.dram_service_s + p.compute_service_s;
        assert!((latency - a.query_latency(&stages, 1)).abs() < 1e-9);
        assert!(p.max_qps() > 0.0);
    }

    #[test]
    fn three_stage_chain_is_supported() {
        let a = accel(Partition::symmetric(8, 8));
        let stages = vec![
            criteo(ModelKind::RmSmall, 4096),
            criteo(ModelKind::RmMed, 512),
            criteo(ModelKind::RmLarge, 128),
        ];
        let t = a.query_latency(&stages, 1);
        assert!(t > 0.0 && t < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_stage_chain_panics() {
        accel(Partition::symmetric(8, 8)).query_latency(&[], 1);
    }
}
