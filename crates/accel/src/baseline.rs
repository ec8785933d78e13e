use recpipe_data::{DatasetSpec, Zipf};
use recpipe_hwsim::{MemoryModel, PcieModel, StageWork, StaticCacheModel};

use crate::rpaccel::{launch, ServiceProfile};
use crate::SystolicArray;

/// The state-of-the-art baseline accelerator (Centaur-style, paper
/// Section 6): a monolithic TPU-like systolic array with a static
/// hot-embedding cache, optimized for *single-stage* inference.
///
/// Its two structural handicaps against RPAccel:
///
/// * **Host-side filtering** — top-k selection between (or after) stages
///   runs on the host CPU, paying a PCIe round trip plus a host-side
///   sort (O.2 removes this);
/// * **Whole-query batches** — no sub-batching, so large-batch
///   activations overflow on-chip SRAM and stream through DRAM, and
///   embedding gathers are purely random-access (lower effective
///   bandwidth than RPAccel's look-ahead batched fetches).
///
/// # Examples
///
/// ```
/// use recpipe_accel::BaselineAccel;
/// use recpipe_data::DatasetKind;
/// use recpipe_hwsim::StageWork;
/// use recpipe_models::{ModelConfig, ModelKind};
///
/// let baseline = BaselineAccel::paper_default();
/// let work = StageWork::new(
///     ModelConfig::for_kind(ModelKind::RmLarge, DatasetKind::CriteoKaggle),
///     4096,
/// );
/// let t = baseline.query_latency(&work, 64, 1);
/// assert!(t > 0.0005 && t < 0.02);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineAccel {
    /// The monolithic MLP engine (128x128 at 250 MHz).
    pub array: SystolicArray,
    /// Static embedding cache capacity in bytes (all 16 MB, no
    /// look-ahead partition).
    pub embedding_cache_bytes: u64,
    /// Weight/activation SRAM in bytes (8 MB).
    pub weight_act_sram_bytes: u64,
    /// Host link.
    pub pcie: PcieModel,
    /// Device DRAM.
    pub dram: MemoryModel,
    /// Fraction of DRAM bandwidth achieved by random embedding gathers.
    pub gather_efficiency: f64,
    /// Host-side sort cost per item scored, seconds.
    pub host_sort_s_per_item: f64,
    /// Rows per embedding table of the served workload.
    pub table_rows: u64,
    /// Zipf exponent of embedding popularity.
    pub zipf_exponent: f64,
}

impl BaselineAccel {
    /// Table 3-equivalent resources serving the Criteo-like workload.
    pub fn paper_default() -> Self {
        Self {
            array: SystolicArray::paper_default(),
            embedding_cache_bytes: 16 * 1024 * 1024,
            weight_act_sram_bytes: 8 * 1024 * 1024,
            pcie: PcieModel::measured(),
            dram: MemoryModel::accel_dram(),
            gather_efficiency: 0.08,
            host_sort_s_per_item: 25e-9,
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

    /// Static-cache hit rate for the given stage's row size.
    pub fn cache_hit_rate(&self, work: &StageWork) -> f64 {
        let tables = work.model.num_tables.max(1) as u64;
        let per_table = self.embedding_cache_bytes / tables;
        let row_bytes = (work.model.embedding_dim * 4).max(1) as u64;
        StaticCacheModel::with_capacity_bytes(
            Zipf::new(self.table_rows.max(1), self.zipf_exponent),
            per_table,
            row_bytes,
        )
        .hit_rate()
    }

    /// Activation spill traffic for a whole-query batch, in bytes.
    pub fn spill_bytes(&self, work: &StageWork) -> u64 {
        let widest = work
            .model
            .mlp_bottom
            .iter()
            .chain(work.model.mlp_top.iter())
            .copied()
            .max()
            .unwrap_or(1) as u64;
        let act_bytes = work.items * widest * 4 * 2;
        let act_sram = self.weight_act_sram_bytes / 2;
        2 * act_bytes.saturating_sub(act_sram)
    }

    /// DRAM occupancy per query in seconds.
    pub fn dram_time(&self, work: &StageWork) -> f64 {
        let cost = work.cost();
        let hit = self.cache_hit_rate(work);
        let line = cost.bytes_per_lookup.max(64) as f64;
        let lookups = (cost.sparse_lookups_per_item * work.items) as f64;
        let gather_bw = self.dram.bandwidth() * self.gather_efficiency;
        lookups * (1.0 - hit) * line / gather_bw
            + self.spill_bytes(work) as f64 / self.dram.bandwidth()
            + cost.mlp_param_bytes as f64 / self.dram.bandwidth()
    }

    /// Host-side top-k filtering round trip: ship every CTR score to the
    /// host, sort there, return the selected ids.
    pub fn host_filter_time(&self, items: u64, k: u64) -> f64 {
        self.pcie.round_trip_time(items * 4, k * 4) + items as f64 * self.host_sort_s_per_item
    }

    /// End-to-end latency of a launch of `batch` queries through the
    /// single stage, each served its own top `k` (`batch = 1` is one
    /// query). The candidate sets concatenate (amortizing model
    /// streaming, PCIe setup, and the host round trip), and the host
    /// sorts each query's scores.
    pub fn query_latency(&self, work: &StageWork, k: u64, batch: usize) -> f64 {
        let work = &launch(std::slice::from_ref(work), batch)[0];
        let mlp = self.array.model_cycles(&work.model, work.items);
        self.pcie.transfer_time(work.input_bytes())
            + self.array.cycles_to_seconds(mlp)
            + self.dram_time(work)
            + self.host_filter_time(work.items, k * batch.max(1) as u64)
    }

    /// At-scale service profile of a launch of `batch` queries (single
    /// lane; DRAM phase serialized).
    pub fn service_profile(&self, work: &StageWork, k: u64, batch: usize) -> ServiceProfile {
        let latency = self.query_latency(work, k, batch);
        let dram = self.dram_time(&launch(std::slice::from_ref(work), batch)[0]);
        ServiceProfile::split(latency, dram, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recpipe_data::DatasetKind;
    use recpipe_models::{ModelConfig, ModelKind};

    fn work(kind: ModelKind, items: u64) -> StageWork {
        StageWork::new(
            ModelConfig::for_kind(kind, DatasetKind::CriteoKaggle),
            items,
        )
    }

    #[test]
    fn baseline_is_millisecond_scale() {
        let b = BaselineAccel::paper_default();
        let t = b.query_latency(&work(ModelKind::RmLarge, 4096), 64, 1);
        assert!((5e-4..8e-3).contains(&t), "baseline latency {t}");
    }

    #[test]
    fn host_filtering_is_a_real_cost() {
        let b = BaselineAccel::paper_default();
        let t = b.host_filter_time(4096, 64);
        // Two PCIe legs + a ~100 us host sort.
        assert!(t > 50e-6, "host filter {t}");
    }

    #[test]
    fn whole_query_batches_spill() {
        let b = BaselineAccel::paper_default();
        // 4096 x 512 x 8 B = 16.8 MB of activations vs 4 MB of buffer.
        assert!(b.spill_bytes(&work(ModelKind::RmLarge, 4096)) > 10_000_000);
    }

    #[test]
    fn single_lane_service() {
        let b = BaselineAccel::paper_default();
        let p = b.service_profile(&work(ModelKind::RmLarge, 4096), 64, 1);
        assert_eq!(p.lanes, 1);
        assert!(p.max_qps() < 2000.0, "baseline cap {}", p.max_qps());
    }

    #[test]
    fn cache_hit_rate_is_meaningful() {
        let b = BaselineAccel::paper_default();
        let hr = b.cache_hit_rate(&work(ModelKind::RmLarge, 4096));
        assert!((0.1..0.9).contains(&hr), "hit rate {hr}");
    }

    #[test]
    fn dataset_override_changes_locality() {
        let criteo = BaselineAccel::paper_default();
        let ml = BaselineAccel::paper_default().with_dataset(&DatasetSpec::movielens_1m());
        // MovieLens' tiny tables fit entirely: hit rate ~1.
        let w = StageWork::new(
            ModelConfig::for_kind(ModelKind::RmLarge, DatasetKind::MovieLens1M),
            1024,
        );
        assert!(ml.cache_hit_rate(&w) > criteo.cache_hit_rate(&work(ModelKind::RmLarge, 4096)));
    }
}
