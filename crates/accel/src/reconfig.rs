use crate::SystolicArray;

/// One fissioned piece of the monolithic systolic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubArray {
    /// Rows of the sub-array.
    pub rows: usize,
    /// Columns of the sub-array.
    pub cols: usize,
}

impl SubArray {
    /// MAC units in this sub-array.
    pub fn macs(&self) -> usize {
        self.rows * self.cols
    }

    /// Views this sub-array as a standalone [`SystolicArray`] at the
    /// given clock.
    pub fn as_array(&self, freq_hz: u64) -> SystolicArray {
        SystolicArray::new(self.rows, self.cols, freq_hz)
    }
}

/// A fission plan for the reconfigurable systolic array (paper O.3,
/// adapted from Planaria): the monolithic fabric is split into a
/// *frontend* group and a *backend* group, each further divided into
/// equal sub-arrays that process queries concurrently.
///
/// The paper's `RPAccel_{f,b}` notation maps to
/// [`Partition::symmetric(f, b)`](Partition::symmetric): half the MACs
/// are divided into `f` frontend sub-arrays, half into `b` backend
/// sub-arrays. Figure 12 (bottom) sweeps `b` in {2, 8, 16}.
///
/// # Examples
///
/// ```
/// use recpipe_accel::Partition;
///
/// let p = Partition::symmetric(8, 2);
/// assert_eq!(p.frontend().len(), 8);
/// assert_eq!(p.backend().len(), 2);
/// // Fission conserves the fabric.
/// assert_eq!(p.total_macs(), 128 * 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Partition {
    frontend: Vec<SubArray>,
    backend: Vec<SubArray>,
}

impl Partition {
    /// Total MACs of the monolithic fabric being divided (Table 3).
    pub const TOTAL_MACS: usize = 128 * 128;

    /// A monolithic, unpartitioned array (the baseline configuration):
    /// one "frontend" group owning the whole fabric and no backend group.
    pub fn monolithic() -> Self {
        Self {
            frontend: vec![SubArray {
                rows: 128,
                cols: 128,
            }],
            backend: Vec::new(),
        }
    }

    /// Splits half the fabric into `f` frontend sub-arrays and half into
    /// `b` backend sub-arrays.
    ///
    /// Each group's half (8192 MACs) is divided into equal sub-arrays
    /// with near-square geometry.
    ///
    /// # Panics
    ///
    /// Panics if `f` or `b` is zero or either group cannot be divided
    /// evenly (counts must be powers of two up to 64).
    pub fn symmetric(f: usize, b: usize) -> Self {
        Self {
            frontend: Self::divide(Self::TOTAL_MACS / 2, f),
            backend: Self::divide(Self::TOTAL_MACS / 2, b),
        }
    }

    /// Divides `macs` into `n` equal near-square sub-arrays.
    fn divide(macs: usize, n: usize) -> Vec<SubArray> {
        assert!(n > 0, "sub-array count must be positive");
        assert!(
            n.is_power_of_two() && n <= 64,
            "count must be a power of two <= 64"
        );
        let per = macs / n;
        assert!(per > 0, "sub-arrays would be empty");
        // Near-square: rows = 2^ceil(log2(sqrt(per))), cols = per / rows.
        let mut rows = 1usize;
        while rows * rows < per {
            rows *= 2;
        }
        let cols = per / rows;
        assert!(rows * cols == per, "non-power-of-two fabric");
        (0..n).map(|_| SubArray { rows, cols }).collect()
    }

    /// Frontend sub-arrays.
    pub fn frontend(&self) -> &[SubArray] {
        &self.frontend
    }

    /// Backend sub-arrays.
    pub fn backend(&self) -> &[SubArray] {
        &self.backend
    }

    /// Whether this is the monolithic (single-group) configuration.
    pub fn is_monolithic(&self) -> bool {
        self.backend.is_empty() && self.frontend.len() == 1
    }

    /// Total MACs across every sub-array — must equal the fabric size.
    pub fn total_macs(&self) -> usize {
        self.frontend
            .iter()
            .chain(self.backend.iter())
            .map(SubArray::macs)
            .sum()
    }

    /// Number of queries that can be in flight concurrently: limited by
    /// the scarcer group (each in-flight query occupies one frontend and
    /// one backend sub-array as it pipelines through).
    pub fn query_lanes(&self) -> usize {
        if self.backend.is_empty() {
            self.frontend.len()
        } else {
            self.frontend.len().min(self.backend.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recpipe_data::DatasetKind;
    use recpipe_models::{ModelConfig, ModelKind};

    #[test]
    fn symmetric_partition_conserves_fabric() {
        for (f, b) in [(8usize, 2usize), (8, 8), (8, 16), (4, 4), (1, 1)] {
            let p = Partition::symmetric(f, b);
            assert_eq!(p.total_macs(), Partition::TOTAL_MACS, "({f},{b})");
        }
    }

    #[test]
    fn monolithic_partition_is_whole_fabric() {
        let p = Partition::monolithic();
        assert!(p.is_monolithic());
        assert_eq!(p.total_macs(), Partition::TOTAL_MACS);
        assert_eq!(p.query_lanes(), 1);
    }

    #[test]
    fn paper_notation_maps_to_group_counts() {
        let p = Partition::symmetric(8, 16);
        assert_eq!(p.frontend().len(), 8);
        assert_eq!(p.backend().len(), 16);
        assert_eq!(p.query_lanes(), 8);
    }

    #[test]
    fn fewer_backend_subarrays_are_bigger() {
        let p2 = Partition::symmetric(8, 2);
        let p16 = Partition::symmetric(8, 16);
        assert!(p2.backend()[0].macs() > p16.backend()[0].macs());
    }

    #[test]
    fn bigger_backend_subarray_is_faster_per_query() {
        // Figure 12 (bottom): RPAccel8,2 aggregates the backend into
        // fewer, larger arrays, cutting per-query backend latency.
        let model = ModelConfig::for_kind(ModelKind::RmLarge, DatasetKind::CriteoKaggle);
        let big = Partition::symmetric(8, 2).backend()[0].as_array(250_000_000);
        let small = Partition::symmetric(8, 16).backend()[0].as_array(250_000_000);
        let c_big = big.model_cycles(&model, 512);
        let c_small = small.model_cycles(&model, 512);
        assert!(
            c_big < c_small,
            "8,2 backend {c_big} cycles vs 8,16 {c_small}"
        );
    }

    #[test]
    fn reconfiguration_doubles_two_stage_utilization() {
        // Figure 10(a): the monolithic array averages ~30% utilization on
        // a two-stage mix; fissioned sub-arrays roughly double it.
        let freq = 250_000_000;
        let small = ModelConfig::for_kind(ModelKind::RmSmall, DatasetKind::CriteoKaggle);
        let large = ModelConfig::for_kind(ModelKind::RmLarge, DatasetKind::CriteoKaggle);

        let mono = SystolicArray::paper_default();
        let mono_cycles = mono.model_cycles(&small, 4096) + mono.model_cycles(&large, 512);
        let total_macs =
            (small.cost().flops_per_item * 4096 + large.cost().flops_per_item * 512) as f64;
        let mono_util = total_macs / (mono_cycles as f64 * Partition::TOTAL_MACS as f64);

        let p = Partition::symmetric(8, 8);
        let f_arr = p.frontend()[0].as_array(freq);
        let b_arr = p.backend()[0].as_array(freq);
        // Each sub-array works on its own stage concurrently; utilization
        // is measured against the sub-array fabric actually used.
        let f_cycles = f_arr.model_cycles(&small, 4096);
        let b_cycles = b_arr.model_cycles(&large, 512);
        let split_util = (small.cost().flops_per_item * 4096) as f64
            / (f_cycles as f64 * f_arr.macs() as f64).max(1.0)
            / 2.0
            + (large.cost().flops_per_item * 512) as f64
                / (b_cycles as f64 * b_arr.macs() as f64).max(1.0)
                / 2.0;

        assert!(
            split_util > 1.5 * mono_util,
            "monolithic {mono_util:.3} vs reconfigured {split_util:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_count_panics() {
        Partition::symmetric(3, 8);
    }
}
