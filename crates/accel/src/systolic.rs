use recpipe_models::ModelConfig;

/// A weight-stationary systolic array MLP engine (paper Section 6.2,
/// following the TPU/Centaur lineage).
///
/// ## Cycle model
///
/// A layer of shape `(in_dim, out_dim)` over a batch of `b` items tiles
/// the weight matrix into `ceil(in/rows) x ceil(out/cols)` tiles. Each
/// tile costs:
///
/// ```text
/// rows            cycles to load the stationary weights, plus
/// b + rows + cols cycles to stream the batch through (fill + drain).
/// ```
///
/// Utilization is the ratio of useful MACs to `rows * cols * cycles`.
/// Small models on large arrays waste most of the fabric — exactly the
/// effect of Figure 10(a) that motivates fission into sub-arrays.
///
/// # Examples
///
/// ```
/// use recpipe_accel::SystolicArray;
///
/// let array = SystolicArray::paper_default(); // 128x128 @ 250 MHz
/// let run = array.layer_run(13, 64, 4096);
/// assert!(run.utilization < 0.10); // RMsmall's first layer wastes the fabric
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystolicArray {
    rows: usize,
    cols: usize,
    freq_hz: u64,
}

/// Cycle-level outcome of running one layer on a [`SystolicArray`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerRun {
    /// Total cycles including weight loads and pipeline fill/drain.
    pub cycles: u64,
    /// Useful multiply-accumulates performed.
    pub macs: u64,
    /// `macs / (rows * cols * cycles)` in `(0, 1]`.
    pub utilization: f64,
}

impl SystolicArray {
    /// Creates an array with the given geometry and clock.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the frequency is zero.
    pub fn new(rows: usize, cols: usize, freq_hz: u64) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        assert!(freq_hz > 0, "frequency must be positive");
        Self {
            rows,
            cols,
            freq_hz,
        }
    }

    /// The paper's Table 3 configuration: 128x128 MACs at 250 MHz.
    pub fn paper_default() -> Self {
        Self::new(128, 128, 250_000_000)
    }

    /// Array rows (stationary-weight input dimension).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array columns (output dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Clock frequency in Hz.
    pub fn freq_hz(&self) -> u64 {
        self.freq_hz
    }

    /// Total MAC units.
    pub fn macs(&self) -> usize {
        self.rows * self.cols
    }

    /// Cycle cost of one `(in_dim, out_dim)` layer over a batch.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn layer_run(&self, in_dim: usize, out_dim: usize, batch: u64) -> LayerRun {
        assert!(in_dim > 0 && out_dim > 0 && batch > 0, "degenerate layer");
        let tiles_r = in_dim.div_ceil(self.rows) as u64;
        let tiles_c = out_dim.div_ceil(self.cols) as u64;
        let per_tile = self.rows as u64 + batch + (self.rows + self.cols) as u64;
        let cycles = tiles_r * tiles_c * per_tile;
        let macs = in_dim as u64 * out_dim as u64 * batch;
        let capacity = (self.rows * self.cols) as u64 * cycles;
        LayerRun {
            cycles,
            macs,
            utilization: macs as f64 / capacity as f64,
        }
    }

    /// Cycles to run every MLP layer of `model` over `items`, plus the
    /// feature interaction (executed as a wide vector op on the array's
    /// column lanes at 50% efficiency).
    pub fn model_cycles(&self, model: &ModelConfig, items: u64) -> u64 {
        let mut cycles = 0u64;
        let mut chain = |dims: &[usize]| {
            for w in dims.windows(2) {
                cycles += self.layer_run(w[0], w[1], items).cycles;
            }
        };
        chain(&model.mlp_bottom);
        chain(&model.mlp_top);

        let cost = model.cost();
        let interaction_macs = (cost.flops_per_item - cost.mlp_flops_per_item) * items;
        let lanes = (self.rows * self.cols) as u64 / 2;
        cycles += interaction_macs.div_ceil(lanes.max(1));
        cycles
    }

    /// Aggregate utilization of running `model` over `items`.
    pub fn model_utilization(&self, model: &ModelConfig, items: u64) -> f64 {
        let cycles = self.model_cycles(model, items);
        let macs = model.cost().flops_per_item * items;
        macs as f64 / ((self.rows * self.cols) as u64 * cycles) as f64
    }

    /// Converts cycles to seconds at this array's clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recpipe_data::DatasetKind;
    use recpipe_models::ModelKind;

    fn cfg(kind: ModelKind) -> ModelConfig {
        ModelConfig::for_kind(kind, DatasetKind::CriteoKaggle)
    }

    #[test]
    fn single_tile_layer_cycle_count() {
        let a = SystolicArray::new(128, 128, 250_000_000);
        let run = a.layer_run(128, 128, 1000);
        // One tile: 128 (load) + 1000 + 256 (fill/drain).
        assert_eq!(run.cycles, 128 + 1000 + 256);
    }

    #[test]
    fn tiling_multiplies_cycles() {
        let a = SystolicArray::new(128, 128, 250_000_000);
        let one = a.layer_run(128, 128, 1000).cycles;
        let four = a.layer_run(256, 256, 1000).cycles;
        assert_eq!(four, 4 * one);
    }

    #[test]
    fn utilization_is_bounded() {
        let a = SystolicArray::paper_default();
        for (i, o, b) in [(13usize, 64usize, 4096u64), (512, 256, 256), (1, 1, 1)] {
            let run = a.layer_run(i, o, b);
            assert!(run.utilization > 0.0 && run.utilization <= 1.0);
        }
    }

    #[test]
    fn figure10a_small_model_wastes_large_array() {
        // RMsmall on the monolithic 128x128 array: utilization well below
        // the ~30% the paper reports for the two-stage mix.
        let a = SystolicArray::paper_default();
        let util = a.model_utilization(&cfg(ModelKind::RmSmall), 4096);
        assert!(util < 0.10, "RMsmall monolithic utilization {util}");
    }

    #[test]
    fn figure10a_small_array_runs_small_model_efficiently() {
        // The same RMsmall on an 8x8 sub-array is far better utilized but
        // takes more cycles — the latency/utilization tradeoff of
        // Figure 10(a).
        let big = SystolicArray::new(128, 128, 250_000_000);
        let small = SystolicArray::new(8, 8, 250_000_000);
        let model = cfg(ModelKind::RmSmall);
        let u_big = big.model_utilization(&model, 4096);
        let u_small = small.model_utilization(&model, 4096);
        let c_big = big.model_cycles(&model, 4096);
        let c_small = small.model_cycles(&model, 4096);
        assert!(u_small > 3.0 * u_big, "util {u_big} -> {u_small}");
        assert!(c_small > c_big, "cycles {c_big} -> {c_small}");
    }

    #[test]
    fn larger_arrays_reduce_latency_for_rmlarge() {
        let model = cfg(ModelKind::RmLarge);
        let mut prev = u64::MAX;
        for dim in [16usize, 32, 64, 128] {
            let a = SystolicArray::new(dim, dim, 250_000_000);
            let c = a.model_cycles(&model, 4096);
            assert!(c < prev, "{dim}x{dim}: {c} cycles");
            prev = c;
        }
    }

    #[test]
    fn rmlarge_runs_in_sub_millisecond_on_paper_array() {
        let a = SystolicArray::paper_default();
        let t = a.cycles_to_seconds(a.model_cycles(&cfg(ModelKind::RmLarge), 4096));
        assert!((5e-5..2e-3).contains(&t), "RMlarge@4096: {t} s");
    }

    #[test]
    fn utilization_improves_with_batch() {
        let a = SystolicArray::paper_default();
        let lo = a.layer_run(128, 128, 64).utilization;
        let hi = a.layer_run(128, 128, 8192).utilization;
        assert!(hi > lo);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_batch_panics() {
        SystolicArray::paper_default().layer_run(8, 8, 0);
    }
}
