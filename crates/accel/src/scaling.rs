//! Future-model scaling study (paper Section 7.2, Figure 13): what
//! happens when embedding tables outgrow accelerator DRAM and spill to
//! SSD, and how multi-stage execution hides the resulting long-latency
//! accesses.
//!
//! Production models grow ~10x in three years; the paper projects
//! RPAccel behavior with tables scaled up to 32x (TB-class, 97% resident
//! on SSD) while the frontend scales the items ranked from 4K to 12K.

use recpipe_data::{DatasetSpec, Zipf};
use recpipe_hwsim::{MemoryModel, StageWork};
use recpipe_models::{ModelConfig, ModelKind};

use crate::{Partition, RpAccel, RpAccelConfig};

/// Configuration of the scaling study.
#[derive(Debug, Clone, PartialEq)]
pub struct FutureScaling {
    /// The accelerator under study.
    accel: RpAccel,
    /// SSD tier characteristics.
    ssd: MemoryModel,
    /// Accelerator-attached DRAM capacity in bytes (Table 3: 16 GB).
    dram_bytes: u64,
    /// The workload whose backend model is being scaled.
    spec: DatasetSpec,
}

impl FutureScaling {
    /// Builds the study with the paper's defaults: an 8,8-partitioned
    /// RPAccel, Table 3 DRAM, NVMe-class SSD, Criteo-like workload.
    pub fn paper_default() -> Self {
        let spec = DatasetSpec::criteo_kaggle();
        Self {
            accel: RpAccel::new(
                RpAccelConfig::paper_default(Partition::symmetric(8, 8)).with_dataset(&spec),
            ),
            ssd: MemoryModel::ssd(),
            dram_bytes: 16 * (1 << 30),
            spec,
        }
    }

    /// The backend model configuration scaled `memory_scale`x in
    /// embedding rows.
    pub fn scaled_backend(&self, memory_scale: f64) -> ModelConfig {
        let mut cfg = ModelConfig::for_kind(ModelKind::RmLarge, self.spec.kind);
        cfg.rows_per_table = ((cfg.rows_per_table as f64) * memory_scale.max(1.0)) as u64;
        cfg
    }

    /// Fraction of the scaled model stored on SSD (beyond DRAM capacity).
    pub fn ssd_fraction(&self, memory_scale: f64) -> f64 {
        let model_bytes = self.scaled_backend(memory_scale).cost().model_bytes as f64;
        (1.0 - self.dram_bytes as f64 / model_bytes).max(0.0)
    }

    /// DRAM miss rate of backend embedding lookups: DRAM holds the
    /// hottest rows of the scaled table, the rest live on SSD. Figure 13
    /// (top): grows from ~17% to ~28% as the model scales to 32x.
    pub fn dram_miss_rate(&self, memory_scale: f64) -> f64 {
        let cfg = self.scaled_backend(memory_scale);
        let rows = cfg.rows_per_table.max(1);
        let row_bytes = (cfg.embedding_dim * 4) as u64;
        let rows_in_dram =
            (self.dram_bytes / cfg.num_tables.max(1) as u64 / row_bytes.max(1)).min(rows);
        if rows_in_dram == rows {
            return 0.0;
        }
        let zipf = Zipf::new(rows, self.spec.zipf_exponent);
        1.0 - zipf.cdf(rows_in_dram.max(1))
    }

    /// SSD time per query for the backend stage (`backend_items`
    /// re-ranked), before any overlap.
    pub fn ssd_time_per_query(&self, memory_scale: f64, backend_items: u64) -> f64 {
        let cfg = self.scaled_backend(memory_scale);
        let lookups = (cfg.num_tables as u64 * backend_items) as f64;
        let misses = lookups * self.dram_miss_rate(memory_scale);
        // SSD reads are page-granular; accesses to distinct rows rarely
        // coalesce, so each miss pays a full access amortized over the
        // queue depth the device sustains.
        const QUEUE_DEPTH: f64 = 256.0;
        misses * self.ssd.access_time((cfg.embedding_dim * 4) as u64) / QUEUE_DEPTH
    }

    /// Fraction of SSD access time the multi-stage pipeline hides behind
    /// frontend compute. Figure 13 (top): shrinks as models grow (more
    /// SSD time to hide) and recovers as the frontend ranks more items
    /// (more compute to hide it behind).
    pub fn overlap_fraction(&self, memory_scale: f64, compute_scale: f64) -> f64 {
        let frontend_items = (4096.0 * compute_scale.max(0.1)) as u64;
        // The backend re-ranks a fixed shortlist; scaling the frontend
        // pool adds hide-capacity without adding SSD traffic.
        let backend_items = 512;
        let frontend = StageWork::new(
            ModelConfig::for_kind(ModelKind::RmSmall, self.spec.kind),
            frontend_items,
        );
        let frontend_time = self.accel.stage_mlp_time(&frontend, 0, 2)
            + self
                .accel
                .build_cache(std::slice::from_ref(&frontend))
                .stage_fetch_time(frontend_items, true);
        let ssd_time = self.ssd_time_per_query(memory_scale, backend_items);
        if ssd_time <= 0.0 {
            return 1.0;
        }
        (frontend_time / ssd_time).min(1.0)
    }

    /// Projected query latency of the *multi-stage* RPAccel at the scaled
    /// workload: pipeline latency plus the un-hidden SSD time.
    pub fn multi_stage_latency(&self, memory_scale: f64, compute_scale: f64) -> f64 {
        let frontend_items = (4096.0 * compute_scale.max(0.1)) as u64;
        let backend_items = 512;
        let stages = vec![
            StageWork::new(
                ModelConfig::for_kind(ModelKind::RmSmall, self.spec.kind),
                frontend_items,
            ),
            StageWork::new(self.scaled_backend(memory_scale), backend_items),
        ];
        let base = self.accel.query_latency(&stages, 1);
        let ssd = self.ssd_time_per_query(memory_scale, backend_items);
        let hidden = self.overlap_fraction(memory_scale, compute_scale);
        base + ssd * (1.0 - hidden)
    }

    /// Projected query latency of the *single-stage* design at the same
    /// scaled workload: every item is ranked by the scaled model and no
    /// SSD access can hide behind an earlier stage.
    pub fn single_stage_latency(&self, memory_scale: f64, compute_scale: f64) -> f64 {
        let items = (4096.0 * compute_scale.max(0.1)) as u64;
        let single = RpAccel::new(
            RpAccelConfig::paper_default(Partition::monolithic()).with_dataset(&self.spec),
        );
        let stage = StageWork::new(self.scaled_backend(memory_scale), items);
        let base = single.query_latency(std::slice::from_ref(&stage), 1);
        base + self.ssd_time_per_query(memory_scale, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_model_fits_in_dram() {
        let s = FutureScaling::paper_default();
        assert_eq!(s.ssd_fraction(1.0), 0.0);
        assert_eq!(s.dram_miss_rate(1.0), 0.0);
    }

    #[test]
    fn figure13_ssd_fraction_reaches_97_percent() {
        // Paper: "increasing the size of RMlarge by 32x requires storing
        // 97% of the embedding tables in SSD".
        let s = FutureScaling::paper_default();
        let frac = s.ssd_fraction(32.0);
        assert!((0.90..0.99).contains(&frac), "SSD fraction {frac}");
    }

    #[test]
    fn figure13_miss_rate_grows_into_paper_band() {
        // Paper: DRAM miss rates grow from ~17% to ~28% across the sweep.
        let s = FutureScaling::paper_default();
        let mid = s.dram_miss_rate(8.0);
        let big = s.dram_miss_rate(32.0);
        assert!(mid < big, "miss rate must grow: {mid} vs {big}");
        assert!((0.10..0.24).contains(&mid), "8x miss rate {mid}");
        assert!((0.20..0.36).contains(&big), "32x miss rate {big}");
    }

    #[test]
    fn figure13_overlap_shrinks_with_model_scale() {
        let s = FutureScaling::paper_default();
        let small = s.overlap_fraction(4.0, 1.0);
        let big = s.overlap_fraction(32.0, 1.0);
        assert!(big < small, "overlap should shrink: {small} -> {big}");
    }

    #[test]
    fn figure13_overlap_recovers_with_items() {
        let s = FutureScaling::paper_default();
        let narrow = s.overlap_fraction(32.0, 1.0);
        let wide = s.overlap_fraction(32.0, 3.0);
        assert!(
            wide > narrow,
            "more items must hide more: {narrow} -> {wide}"
        );
    }

    #[test]
    fn figure13_multi_stage_scales_more_gracefully() {
        // Bottom panel: the multi-stage design's latency grows far more
        // slowly than single-stage as the workload scales.
        let s = FutureScaling::paper_default();
        let single_growth = s.single_stage_latency(32.0, 3.0) / s.single_stage_latency(1.0, 1.0);
        let multi_growth = s.multi_stage_latency(32.0, 3.0) / s.multi_stage_latency(1.0, 1.0);
        assert!(
            single_growth > 1.8 * multi_growth,
            "single grows {single_growth}x, multi {multi_growth}x"
        );
    }

    #[test]
    fn multi_stage_is_faster_at_every_scale() {
        let s = FutureScaling::paper_default();
        for (m, c) in [(1.0, 1.0), (8.0, 2.0), (32.0, 3.0)] {
            assert!(
                s.multi_stage_latency(m, c) < s.single_stage_latency(m, c),
                "multi must win at scale ({m}, {c})"
            );
        }
    }
}
