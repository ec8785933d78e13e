use recpipe_models::ModelConfig;

use crate::StageWork;

/// Roofline-style cost model of a server-class CPU (Table 2: Intel
/// Cascade Lake, 64 cores, AVX-512, 75 GB/s DRAM).
///
/// ## Execution model
///
/// Following the paper's methodology, each query runs on a single
/// PyTorch/MKL thread pinned to one core; cores serve queries
/// concurrently (task parallelism). Backend stages with heavyweight
/// models may optionally split one query across `cores_per_query` cores
/// (model parallelism) at a synchronization-efficiency penalty — one of
/// the mapping knobs the RecPipe scheduler explores.
///
/// ## Calibration
///
/// * **Per-layer GEMM efficiency** `eff = clamp(eff_cap * min_dim/256,
///   eff_floor, eff_cap)`: narrow layers (the 13-wide Criteo input, the
///   4-wide RMsmall bottleneck) are memory-bound and achieve a few
///   percent of peak; wide RMlarge layers approach `eff_cap`.
/// * **Batch factor** `(items / 4096)^0.3` (floored): ranking fewer items
///   means smaller GEMM batches and lower efficiency, which is why the
///   256-item backend stage does not get a full 16x speedup over a
///   4096-item stage.
/// * **Embedding lookups** are random DRAM reads: each lookup transfers
///   at least one 64-byte line at `dram_bw * random_access_eff`.
///
/// With these constants the model lands where the paper's Figure 7/8
/// shapes require: single-stage RMlarge@4096 ≈ 100 ms on a core,
/// two-stage (RMsmall@4096 → RMlarge@256) ≈ 25 ms, a ~4x gap.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Physical cores (Table 2: 64).
    pub cores: usize,
    /// Clock frequency in Hz (Table 2: 2.8 GHz).
    pub freq_hz: f64,
    /// Multiply-accumulates per cycle per core with AVX-512 (2 FMA ports
    /// x 16 fp32 lanes).
    pub macs_per_cycle: f64,
    /// Peak fraction achieved by wide GEMM layers.
    pub eff_cap: f64,
    /// Peak fraction achieved by the narrowest layers.
    pub eff_floor: f64,
    /// `min_dim` at which a layer reaches `eff_cap`.
    pub min_dim_ref: f64,
    /// Item count at which the batch factor reaches 1.0.
    pub batch_ref: f64,
    /// Exponent of the batch-efficiency factor.
    pub batch_exponent: f64,
    /// Lower bound of the batch factor.
    pub batch_floor: f64,
    /// Efficiency of the feature-interaction vector ops.
    pub interaction_eff: f64,
    /// DRAM bandwidth in bytes/s (Table 2: 75 GB/s).
    pub dram_bw: f64,
    /// Fraction of DRAM bandwidth achieved by one core issuing random
    /// embedding gathers.
    pub random_access_eff: f64,
    /// Minimum DRAM transaction in bytes (one cache line).
    pub cache_line_bytes: u64,
    /// Per-stage software dispatch overhead in seconds.
    pub dispatch_overhead_s: f64,
    /// Per-doubling parallel efficiency when splitting one query across
    /// cores (0.85 → 2 cores give 1.7x).
    pub parallel_eff: f64,
}

impl CpuModel {
    /// The paper's CPU platform (Table 2).
    pub fn cascade_lake() -> Self {
        Self {
            cores: 64,
            freq_hz: 2.8e9,
            macs_per_cycle: 32.0,
            eff_cap: 0.19,
            eff_floor: 0.004,
            min_dim_ref: 256.0,
            batch_ref: 4096.0,
            batch_exponent: 0.3,
            batch_floor: 0.3,
            interaction_eff: 0.05,
            dram_bw: 75e9,
            random_access_eff: 0.08,
            cache_line_bytes: 64,
            dispatch_overhead_s: 300e-6,
            parallel_eff: 0.85,
        }
    }

    /// Peak multiply-accumulate rate of one core.
    pub fn peak_macs_per_core(&self) -> f64 {
        self.freq_hz * self.macs_per_cycle
    }

    /// GEMM efficiency of a layer with inner dimensions `(in_dim, out_dim)`.
    pub fn layer_eff(&self, in_dim: usize, out_dim: usize) -> f64 {
        let min_dim = in_dim.min(out_dim) as f64;
        (self.eff_cap * min_dim / self.min_dim_ref).clamp(self.eff_floor, self.eff_cap)
    }

    /// Batch-efficiency factor for a stage ranking `items` candidates.
    pub fn batch_factor(&self, items: u64) -> f64 {
        ((items as f64 / self.batch_ref).powf(self.batch_exponent)).clamp(self.batch_floor, 1.0)
    }

    /// MLP + interaction compute time for one query's stage on one core.
    pub fn compute_time(&self, model: &ModelConfig, items: u64) -> f64 {
        let peak = self.peak_macs_per_core();
        let batch = self.batch_factor(items);
        let mut per_item = 0.0f64;
        let mut chain = |dims: &[usize]| {
            for w in dims.windows(2) {
                let macs = (w[0] * w[1]) as f64;
                per_item += macs / (peak * self.layer_eff(w[0], w[1]));
            }
        };
        chain(&model.mlp_bottom);
        chain(&model.mlp_top);

        let cost = model.cost();
        let interaction_macs = (cost.flops_per_item - cost.mlp_flops_per_item) as f64;
        per_item += interaction_macs / (peak * self.interaction_eff);

        per_item * items as f64 / batch
    }

    /// Embedding gather time for one query's stage on one core.
    pub fn embedding_time(&self, model: &ModelConfig, items: u64) -> f64 {
        let cost = model.cost();
        let bytes_per_lookup = cost.bytes_per_lookup.max(self.cache_line_bytes) as f64;
        let total = bytes_per_lookup * cost.sparse_lookups_per_item as f64 * items as f64;
        total / (self.dram_bw * self.random_access_eff)
    }

    /// Service time of a launch of `batch` queries' stages sharing
    /// `cores_per_query` cores (`batch = 1` is one query).
    ///
    /// The batch concatenates its GEMMs (raising the batch-efficiency
    /// factor toward 1.0), embedding gathers scale linearly, and the
    /// software dispatch overhead is paid once per batch instead of once
    /// per query.
    ///
    /// # Panics
    ///
    /// Panics if `cores_per_query` is zero or exceeds the core count.
    pub fn stage_latency(&self, work: &StageWork, cores_per_query: usize, batch: usize) -> f64 {
        assert!(
            cores_per_query >= 1 && cores_per_query <= self.cores,
            "cores_per_query out of range"
        );
        let items = work.items * batch.max(1) as u64;
        let single =
            self.compute_time(&work.model, items) + self.embedding_time(&work.model, items);
        single / self.parallel_speedup(cores_per_query) + self.dispatch_overhead_s
    }

    /// Effective speedup from splitting one query across `k` cores.
    pub fn parallel_speedup(&self, k: usize) -> f64 {
        let k = k.max(1) as f64;
        k * self.parallel_eff.powf(k.log2())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recpipe_data::DatasetKind;
    use recpipe_models::ModelKind;

    fn work(kind: ModelKind, items: u64) -> StageWork {
        StageWork::new(
            ModelConfig::for_kind(kind, DatasetKind::CriteoKaggle),
            items,
        )
    }

    #[test]
    fn single_stage_rmlarge_is_roughly_100ms() {
        let cpu = CpuModel::cascade_lake();
        let t = cpu.stage_latency(&work(ModelKind::RmLarge, 4096), 1, 1);
        assert!((0.06..0.16).contains(&t), "RMlarge@4096 on one core: {t} s");
    }

    #[test]
    fn two_stage_beats_single_stage_by_about_4x() {
        // Figure 7 (right): at iso-quality, two-stage cuts tail latency
        // ~4.4x on CPUs. Service times alone should show ~3-6x.
        let cpu = CpuModel::cascade_lake();
        let single = cpu.stage_latency(&work(ModelKind::RmLarge, 4096), 1, 1);
        let multi = cpu.stage_latency(&work(ModelKind::RmSmall, 4096), 1, 1)
            + cpu.stage_latency(&work(ModelKind::RmLarge, 256), 1, 1);
        let ratio = single / multi;
        assert!((3.0..6.5).contains(&ratio), "speedup {ratio}");
    }

    #[test]
    fn small_and_large_share_no_batch_advantage_below_floor() {
        let cpu = CpuModel::cascade_lake();
        assert_eq!(cpu.batch_factor(1), cpu.batch_floor);
        assert_eq!(cpu.batch_factor(4096), 1.0);
        assert!(cpu.batch_factor(256) < 1.0);
    }

    #[test]
    fn layer_eff_clamps_both_ends() {
        let cpu = CpuModel::cascade_lake();
        assert_eq!(cpu.layer_eff(1, 1), cpu.eff_floor);
        assert_eq!(cpu.layer_eff(512, 512), cpu.eff_cap);
        let mid = cpu.layer_eff(128, 512);
        assert!(mid > cpu.eff_floor && mid < cpu.eff_cap);
    }

    #[test]
    fn latency_is_monotone_in_items() {
        let cpu = CpuModel::cascade_lake();
        let mut prev = 0.0;
        for items in [256u64, 512, 1024, 2048, 4096] {
            let t = cpu.stage_latency(&work(ModelKind::RmMed, items), 1, 1);
            assert!(t > prev, "items {items}: {t} <= {prev}");
            prev = t;
        }
    }

    #[test]
    fn model_parallelism_cuts_latency_sublinearly() {
        let cpu = CpuModel::cascade_lake();
        let w = work(ModelKind::RmLarge, 256);
        let t1 = cpu.stage_latency(&w, 1, 1);
        let t2 = cpu.stage_latency(&w, 2, 1);
        let t4 = cpu.stage_latency(&w, 4, 1);
        assert!(t2 < t1 && t4 < t2);
        // Sublinear: 4 cores give less than 4x.
        assert!(t1 / t4 < 4.0);
        assert!(t1 / t2 > 1.4);
    }

    #[test]
    fn embedding_time_uses_cache_lines() {
        // RMsmall vectors are 16 B but transfers round up to 64 B lines.
        let cpu = CpuModel::cascade_lake();
        let small = cpu.embedding_time(
            &ModelConfig::for_kind(ModelKind::RmSmall, DatasetKind::CriteoKaggle),
            1000,
        );
        let large = cpu.embedding_time(
            &ModelConfig::for_kind(ModelKind::RmLarge, DatasetKind::CriteoKaggle),
            1000,
        );
        // 128 B vs 64 B lines → exactly 2x.
        assert!((large / small - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_cores_per_query_panics() {
        let cpu = CpuModel::cascade_lake();
        cpu.stage_latency(&work(ModelKind::RmSmall, 64), 0, 1);
    }

    #[test]
    fn frontend_slope_supports_sla_knee() {
        // Figure 8 (bottom): between 3200 and 4096 items the two-stage CPU
        // design crosses the 25 ms SLA. The frontend slope must therefore
        // be meaningful: ~1-4 ms over that span.
        let cpu = CpuModel::cascade_lake();
        let lo = cpu.stage_latency(&work(ModelKind::RmSmall, 3200), 1, 1);
        let hi = cpu.stage_latency(&work(ModelKind::RmSmall, 4096), 1, 1);
        let delta = hi - lo;
        assert!(
            (0.0005..0.006).contains(&delta),
            "frontend slope over 896 items: {delta} s"
        );
    }
}
