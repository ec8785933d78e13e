use recpipe_models::ModelConfig;

use crate::{PcieModel, StageWork};

/// Cost model of a discrete inference GPU (Table 2: NVIDIA T4 — 2560
/// cores, 8.1 TFLOPS fp32, 300 GB/s, PCIe attached).
///
/// ## Execution model
///
/// The GPU parallelizes *within* one query (its large candidate batch maps
/// onto the data-parallel cores) and serves queries serially — the paper's
/// observation that GPUs buy latency, not concurrency, for this workload.
/// One GPU serves one query (or batch) at a time, so at-scale behavior
/// shows the characteristic tail-latency cliff once the offered load
/// approaches `1 / service_time` (Figure 8 top).
///
/// ## Calibration
///
/// * Wide layers with thousands of items approach `eff_cap` of peak; the
///   skinny RMsmall layers are launch- and memory-bound, which is why the
///   paper finds "comparable latency for RMsmall versus RMlarge on the
///   GPU" — both end up dominated by fixed overheads.
/// * Every MLP layer and every embedding table costs one kernel launch.
/// * Embedding gathers achieve a small fraction of HBM bandwidth
///   (irregular access + index transformation overhead, per the paper's
///   DeepRecSys citation).
/// * Query inputs cross PCIe before compute starts (the [`PcieModel`]
///   leg is accounted by this device since it is unavoidable per query).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuModel {
    /// Peak multiply-accumulate rate (8.1 TFLOPS fp32 → 4.05e12 MAC/s).
    pub peak_macs: f64,
    /// Best-case fraction of peak for large GEMMs.
    pub eff_cap: f64,
    /// Worst-case fraction of peak for skinny layers.
    pub eff_floor: f64,
    /// `min_dim` at which a layer reaches `eff_cap`.
    pub min_dim_ref: f64,
    /// Items at which the batch factor saturates.
    pub batch_ref: f64,
    /// Kernel launch overhead per layer / per table op, seconds.
    pub kernel_launch_s: f64,
    /// Device memory bandwidth in bytes/s (Table 2: 300 GB/s).
    pub mem_bw: f64,
    /// Fraction of memory bandwidth achieved by embedding gathers.
    pub gather_eff: f64,
    /// Fixed per-query software overhead (CUDA stream sync, output copy).
    pub fixed_overhead_s: f64,
    /// The PCIe link queries arrive over.
    pub pcie: PcieModel,
}

impl GpuModel {
    /// The paper's GPU platform (Table 2).
    pub fn t4() -> Self {
        Self {
            peak_macs: 4.05e12,
            eff_cap: 0.30,
            eff_floor: 0.004,
            min_dim_ref: 512.0,
            batch_ref: 2048.0,
            kernel_launch_s: 15e-6,
            mem_bw: 300e9,
            gather_eff: 0.10,
            fixed_overhead_s: 200e-6,
            pcie: PcieModel::measured(),
        }
    }

    /// GEMM efficiency for a layer, scaled by the item batch.
    pub fn layer_eff(&self, in_dim: usize, out_dim: usize, items: u64) -> f64 {
        let min_dim = in_dim.min(out_dim) as f64;
        let width = (self.eff_cap * min_dim / self.min_dim_ref).clamp(self.eff_floor, self.eff_cap);
        let batch = (items as f64 / self.batch_ref).clamp(0.1, 1.0);
        (width * batch).max(self.eff_floor)
    }

    /// MLP + interaction compute time (including kernel launches).
    pub fn compute_time(&self, model: &ModelConfig, items: u64) -> f64 {
        let mut t = 0.0f64;
        let mut layers = 0usize;
        let mut chain = |dims: &[usize]| {
            for w in dims.windows(2) {
                let macs = (w[0] * w[1]) as f64 * items as f64;
                t += macs / (self.peak_macs * self.layer_eff(w[0], w[1], items));
                layers += 1;
            }
        };
        chain(&model.mlp_bottom);
        chain(&model.mlp_top);

        let cost = model.cost();
        let interaction_macs = (cost.flops_per_item - cost.mlp_flops_per_item) as f64;
        t += interaction_macs * items as f64 / (self.peak_macs * self.eff_floor.max(0.02));
        layers += 1;

        t + layers as f64 * self.kernel_launch_s
    }

    /// Embedding gather time: bandwidth-bound irregular reads plus one
    /// kernel per table.
    pub fn embedding_time(&self, model: &ModelConfig, items: u64) -> f64 {
        let cost = model.cost();
        let bytes = cost.embedding_bytes_per_item() as f64 * items as f64;
        bytes / (self.mem_bw * self.gather_eff)
            + cost.sparse_lookups_per_item as f64 * self.kernel_launch_s
    }

    /// Service time of a launch of `batch` queries' stages on the GPU
    /// (`batch = 1` is one query).
    ///
    /// Batching is where the GPU shines for this workload: the batch's
    /// candidate sets concatenate into one large launch, so the per-layer
    /// kernel-launch overheads, the fixed per-query software overhead,
    /// and PCIe setup are paid once while GEMM efficiency climbs toward
    /// `eff_cap`.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn stage_latency(&self, work: &StageWork, batch: usize) -> f64 {
        assert!(batch >= 1, "a launch holds at least one query");
        let batch = batch as u64;
        let input = self.pcie.transfer_time(work.input_bytes() * batch);
        input
            + self.compute_time(&work.model, work.items * batch)
            + self.embedding_time(&work.model, work.items * batch)
            + self.fixed_overhead_s
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
    fn gpu_single_stage_is_low_milliseconds() {
        let gpu = GpuModel::t4();
        let t = gpu.stage_latency(&work(ModelKind::RmLarge, 4096), 1);
        assert!((0.0005..0.01).contains(&t), "RMlarge@4096 on GPU: {t} s");
    }

    #[test]
    fn small_and_large_latency_are_comparable_on_gpu() {
        // Paper Section 5.2: "comparable latency for RMsmall versus
        // RMlarge on the GPU, overshadowing the benefits of decomposing
        // models" — within ~4x, not the ~75x FLOP ratio.
        let gpu = GpuModel::t4();
        let small = gpu.stage_latency(&work(ModelKind::RmSmall, 4096), 1);
        let large = gpu.stage_latency(&work(ModelKind::RmLarge, 4096), 1);
        let ratio = large / small;
        assert!((1.0..4.5).contains(&ratio), "GPU large/small ratio {ratio}");
    }

    #[test]
    fn gpu_is_much_faster_than_one_cpu_core_for_rmlarge() {
        // Figure 8 (top): the GPU buys ~an order of magnitude latency on
        // the heavyweight single-stage model.
        let gpu = GpuModel::t4();
        let cpu = crate::CpuModel::cascade_lake();
        let w = work(ModelKind::RmLarge, 4096);
        let speedup = cpu.stage_latency(&w, 1, 1) / gpu.stage_latency(&w, 1);
        assert!(speedup > 10.0, "GPU speedup {speedup}");
    }

    #[test]
    fn latency_grows_with_items() {
        let gpu = GpuModel::t4();
        let a = gpu.stage_latency(&work(ModelKind::RmMed, 512), 1);
        let b = gpu.stage_latency(&work(ModelKind::RmMed, 4096), 1);
        assert!(b > a);
    }

    #[test]
    fn pcie_input_is_part_of_latency() {
        let mut gpu = GpuModel::t4();
        let w = work(ModelKind::RmLarge, 4096);
        let with_pcie = gpu.stage_latency(&w, 1);
        gpu.pcie = PcieModel::new(0.0, f64::INFINITY);
        let without = gpu.stage_latency(&w, 1);
        assert!(with_pcie > without);
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn an_empty_launch_panics() {
        GpuModel::t4().stage_latency(&work(ModelKind::RmMed, 512), 0);
    }

    #[test]
    fn layer_eff_respects_bounds() {
        let gpu = GpuModel::t4();
        for (i, o, n) in [(1usize, 1usize, 1u64), (512, 512, 4096), (64, 4, 100)] {
            let e = gpu.layer_eff(i, o, n);
            assert!(e >= gpu.eff_floor && e <= gpu.eff_cap);
        }
    }
}
