/// Sub-batch pipelining schedule (paper Takeaway 4, O.5, Figure 9 right).
///
/// A query of `N` items is split into `n` sub-batches. The frontend
/// processes sub-batch `i` while the backend re-ranks the filtered
/// survivors of sub-batch `i-1`, overlapping the two stages within one
/// query. The classic two-stage pipeline makespan with per-chunk times
/// `f` and `b` is:
///
/// ```text
/// makespan = f + max(f, b) * (n - 1) + b
/// ```
///
/// Each extra chunk pays a per-chunk overhead (weight re-streaming,
/// control) — the reason the paper settles on **four** sub-batches:
/// deeper splitting stops paying for itself and stitching top-k/n per
/// chunk erodes quality.
///
/// # Examples
///
/// ```
/// use recpipe_accel::SubBatchSchedule;
///
/// let s = SubBatchSchedule::new(4, 10e-6);
/// // Frontend 400 us, backend 200 us → pipelining hides most of the backend.
/// let pipelined = s.makespan(&[400e-6, 200e-6]);
/// assert!(pipelined < 600e-6);
/// assert!(pipelined >= 400e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubBatchSchedule {
    sub_batches: usize,
    per_chunk_overhead_s: f64,
}

impl SubBatchSchedule {
    /// Creates a schedule with `sub_batches` chunks and a per-chunk
    /// overhead.
    ///
    /// # Panics
    ///
    /// Panics if `sub_batches == 0` or the overhead is negative/NaN.
    pub fn new(sub_batches: usize, per_chunk_overhead_s: f64) -> Self {
        assert!(sub_batches > 0, "need at least one sub-batch");
        assert!(
            per_chunk_overhead_s >= 0.0 && !per_chunk_overhead_s.is_nan(),
            "invalid overhead"
        );
        Self {
            sub_batches,
            per_chunk_overhead_s,
        }
    }

    /// The paper's operating point: four sub-batches, 10 us chunk
    /// overhead.
    pub fn paper_default() -> Self {
        Self::new(4, 10e-6)
    }

    /// An unpipelined schedule (one chunk): frontend then backend.
    pub fn unpipelined() -> Self {
        Self::new(1, 0.0)
    }

    /// Number of sub-batches.
    pub fn sub_batches(&self) -> usize {
        self.sub_batches
    }

    /// Pipelined makespan of a query whose *whole-query* stage times are
    /// `stage_times` (the first stage feeds the second, and so on):
    /// per-chunk times flow through the pipeline and the bottleneck stage
    /// sets the steady-state rate. Two stages give the classic
    /// `f + max(f, b) * (n - 1) + b` over per-chunk times.
    pub fn makespan(&self, stage_times: &[f64]) -> f64 {
        if stage_times.is_empty() {
            return 0.0;
        }
        let n = self.sub_batches as f64;
        let chunk: Vec<f64> = stage_times
            .iter()
            .map(|t| t / n + self.per_chunk_overhead_s)
            .collect();
        let bottleneck = chunk.iter().cloned().fold(0.0, f64::max);
        chunk.iter().sum::<f64>() + bottleneck * (n - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpipelined_is_simple_sum() {
        let s = SubBatchSchedule::unpipelined();
        assert!((s.makespan(&[3.0, 2.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn pipelining_beats_serial_execution() {
        // O.5: ~1.3x latency reduction for the paper's stage balance.
        let serial = SubBatchSchedule::unpipelined().makespan(&[400e-6, 250e-6]);
        let pipelined = SubBatchSchedule::paper_default().makespan(&[400e-6, 250e-6]);
        let speedup = serial / pipelined;
        assert!(
            (1.15..1.7).contains(&speedup),
            "pipelining speedup {speedup}"
        );
    }

    #[test]
    fn makespan_never_beats_bottleneck_stage() {
        let s = SubBatchSchedule::new(8, 0.0);
        let m = s.makespan(&[1.0, 0.1]);
        assert!(m >= 1.0);
    }

    #[test]
    fn deep_splitting_pays_overhead() {
        // With a large per-chunk overhead, 64 chunks must be slower than 4.
        let four = SubBatchSchedule::new(4, 50e-6).makespan(&[400e-6, 250e-6]);
        let sixty_four = SubBatchSchedule::new(64, 50e-6).makespan(&[400e-6, 250e-6]);
        assert!(sixty_four > four);
    }

    #[test]
    fn three_stage_chain_is_bounded_sensibly() {
        let s = SubBatchSchedule::new(4, 0.0);
        let chain = s.makespan(&[400e-6, 200e-6, 100e-6]);
        // At least the bottleneck, at most the serial sum.
        assert!(chain >= 400e-6);
        assert!(chain <= 700e-6 + 1e-12);
    }

    #[test]
    fn empty_chain_is_zero() {
        assert_eq!(SubBatchSchedule::paper_default().makespan(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_subbatches_panics() {
        SubBatchSchedule::new(0, 0.0);
    }
}
