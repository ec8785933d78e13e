use rand::rngs::StdRng;
use rand::SeedableRng;
use recpipe_data::{DatasetKind, DatasetSpec, Normal, QueryGenerator};
use recpipe_metrics::{ideal_top_k, ndcg_at_k, top_k_positions, BinaryConfusion};
use recpipe_models::{AccuracyModel, ModelKind};
use serde::{Deserialize, Serialize};

use crate::PipelineConfig;

/// Quality measurement of a pipeline over many queries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// Mean NDCG of the served top-k, in `[0, 1]` (the paper reports this
    /// x100, e.g. 92.25).
    pub ndcg: f64,
    /// Standard deviation across queries.
    pub ndcg_std: f64,
    /// Queries evaluated.
    pub queries: usize,
}

impl QualityReport {
    /// NDCG scaled to the paper's percent convention.
    pub fn ndcg_percent(&self) -> f64 {
        self.ndcg * 100.0
    }
}

/// Monte-Carlo quality evaluator implementing the paper's quality metric
/// (Section 2.2): NDCG of the top-64 served items against the ideal
/// ordering of the *full* candidate pool.
///
/// ## Mechanism
///
/// Each query draws a pool of candidates with hidden true utilities
/// (`Exp(1)` tails). A stage scores the items it sees as
/// `utility + Normal(0, sigma_model)` — the calibrated
/// [`AccuracyModel`] maps model tiers to noise levels — and forwards its
/// top `items_out` survivors. The final stage's ranking of its survivors
/// is served; NDCG gains are `utility^gain_exponent`.
///
/// Two structural effects emerge rather than being assumed:
///
/// * ranking fewer items than the pool leaves good candidates unseen
///   (the items-ranked axis of Figure 3);
/// * multi-stage funnels recover single-stage quality as long as the
///   frontend's noise rarely drops true winners out of its shortlist
///   (the iso-quality result of Section 5.1).
///
/// Sub-batched execution (RPAccel's O.5) is modeled honestly: with
/// `sub_batches = n`, each stage selects `items_out / n` survivors from
/// each chunk of its input, stitched together — quality can degrade if
/// winners cluster in one chunk.
///
/// # Examples
///
/// ```
/// use recpipe_core::{PipelineConfig, QualityEvaluator};
/// use recpipe_models::ModelKind;
///
/// let single = PipelineConfig::single_stage(ModelKind::RmLarge, 4096, 64).unwrap();
/// let report = QualityEvaluator::criteo_like(64).evaluate(&single);
/// assert!(report.ndcg_percent() > 90.0);
/// ```
#[derive(Debug, Clone)]
pub struct QualityEvaluator {
    spec: DatasetSpec,
    accuracy: AccuracyModel,
    top_k: usize,
    num_queries: usize,
    sub_batches: usize,
    /// Correlation of scoring errors across stages: recommendation tiers
    /// share features and training data, so an item a small model
    /// mis-scores is likely mis-scored by the large model too. With
    /// independent errors (0.0) a second stage would *average away*
    /// noise and multi-stage would beat single-stage quality; the
    /// calibrated value reproduces the paper's iso-quality result.
    stage_noise_correlation: f64,
    seed: u64,
}

impl QualityEvaluator {
    /// Evaluator for the Criteo-like workload serving `top_k` items.
    pub fn criteo_like(top_k: usize) -> Self {
        Self::for_dataset(DatasetKind::CriteoKaggle, top_k)
    }

    /// Evaluator for any dataset.
    pub fn for_dataset(dataset: DatasetKind, top_k: usize) -> Self {
        let accuracy = match dataset {
            DatasetKind::CriteoKaggle => AccuracyModel::criteo(),
            _ => AccuracyModel::movielens(),
        };
        Self {
            spec: DatasetSpec::for_kind(dataset),
            accuracy,
            top_k,
            num_queries: 300,
            sub_batches: 1,
            stage_noise_correlation: 0.9,
            seed: 0x5eed,
        }
    }

    /// Overrides the number of Monte-Carlo queries (default 300).
    pub fn queries(mut self, n: usize) -> Self {
        self.num_queries = n.max(1);
        self
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Evaluates with per-stage sub-batched top-k stitching (RPAccel's
    /// pipelined execution; the paper uses 4).
    pub fn sub_batches(mut self, n: usize) -> Self {
        self.sub_batches = n.max(1);
        self
    }

    /// Overrides the accuracy (score-noise) model, e.g. for calibration
    /// sweeps or future-model projections.
    pub fn accuracy_model(mut self, accuracy: AccuracyModel) -> Self {
        self.accuracy = accuracy;
        self
    }

    /// Overrides the cross-stage error correlation in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is outside `[0, 1]`.
    pub fn noise_correlation(mut self, rho: f64) -> Self {
        assert!((0.0..=1.0).contains(&rho), "correlation must be in [0, 1]");
        self.stage_noise_correlation = rho;
        self
    }

    /// The dataset spec in use.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Measures the pipeline's quality: [`evaluate_all`](Self::evaluate_all)
    /// of one pipeline.
    pub fn evaluate(&self, pipeline: &PipelineConfig) -> QualityReport {
        self.evaluate_all(std::slice::from_ref(pipeline))[0]
    }

    /// Measures every pipeline's quality in one pass over the
    /// Monte-Carlo queries, reports in input order.
    ///
    /// Each query's candidate pool, its gains and its ideal top-k are
    /// drawn once and shared by every pipeline (common random numbers),
    /// while each pipeline scores with its own noise stream seeded as a
    /// lone [`evaluate`](Self::evaluate) seeds it. A report therefore
    /// does not depend on which pipelines share the batch or in what
    /// order: `evaluate_all(ps)[i] == evaluate(&ps[i])`, bit for bit.
    /// Pools are streamed one query at a time, so memory does not grow
    /// with the query count.
    pub fn evaluate_all(&self, pipelines: &[PipelineConfig]) -> Vec<QualityReport> {
        let mut gen = QueryGenerator::new(&self.spec, self.seed.wrapping_add(1));
        let mut rngs: Vec<StdRng> = pipelines
            .iter()
            .map(|_| StdRng::seed_from_u64(self.seed))
            .collect();
        let mut scores: Vec<Vec<f64>> = pipelines
            .iter()
            .map(|_| Vec::with_capacity(self.num_queries))
            .collect();
        for _ in 0..self.num_queries {
            let query = gen.next_query();
            // Ideal ordering over the FULL pool: unseen candidates count
            // against the pipeline.
            let gains: Vec<f64> = query
                .utilities
                .iter()
                .map(|&u| u.powf(self.spec.gain_exponent))
                .collect();
            let ideal = ideal_top_k(&gains, self.top_k);
            for ((pipeline, rng), scores) in pipelines.iter().zip(&mut rngs).zip(&mut scores) {
                let served: Vec<f64> = self
                    .funnel(pipeline, &query.utilities, rng)
                    .into_iter()
                    .map(|idx| gains[idx])
                    .collect();
                scores.push(ndcg_at_k(&served, &ideal, self.top_k));
            }
        }
        scores
            .iter()
            .map(|scores| {
                let mean = scores.iter().sum::<f64>() / scores.len() as f64;
                let var =
                    scores.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / scores.len() as f64;
                QualityReport {
                    ndcg: mean,
                    ndcg_std: var.sqrt(),
                    queries: scores.len(),
                }
            })
            .collect()
    }

    /// Runs one query's pool through the pipeline's stages and returns
    /// the served pool indices, best first. `rng` is the pipeline's own
    /// scoring-noise stream.
    fn funnel(&self, pipeline: &PipelineConfig, utilities: &[f64], rng: &mut StdRng) -> Vec<usize> {
        let noise = Normal::standard();

        // The funnel: indices into the pool survive stage by stage.
        let first_in = (pipeline.items_in() as usize).min(utilities.len());
        let mut survivors: Vec<usize> = (0..first_in).collect();

        // Persistent per-item error component shared by every stage
        // (see `stage_noise_correlation`).
        let shared: Vec<f64> = (0..first_in).map(|_| noise.sample(rng)).collect();
        let rho = self.stage_noise_correlation;
        let fresh_scale = (1.0 - rho * rho).sqrt();

        let num_stages = pipeline.num_stages();
        for (stage_idx, stage) in pipeline.stages().iter().enumerate() {
            let sigma = self.accuracy.sigma(stage.model);
            let scored: Vec<(usize, f64)> = survivors
                .iter()
                .map(|&idx| {
                    let eps = rho * shared[idx] + fresh_scale * noise.sample(rng);
                    (idx, utilities[idx] + sigma * eps)
                })
                .collect();
            // Inter-stage filtering may stitch per-sub-batch top-k/n
            // lists (unordered is fine; the next stage rescores), but
            // the FINAL stage's output is the served ranking and is
            // always globally ordered.
            let last = stage_idx + 1 == num_stages;
            survivors = if last {
                top_k_indices(&scored, stage.items_out as usize)
            } else {
                select_top(&scored, stage.items_out as usize, self.sub_batches)
            };
        }
        survivors
    }

    /// Measures a single model tier's pointwise CTR accuracy (the metric
    /// of Figure 3 left): classify "click" (utility above the ~25th
    /// percentile threshold of `Exp(1)`) from the noisy score.
    pub fn evaluate_accuracy(&self, model: ModelKind) -> f64 {
        // P(Exp(1) > ln 4) = 0.25: a Criteo-like positive rate.
        let threshold = 4.0f64.ln();
        let sigma = self.accuracy.sigma(model);
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(7));
        let mut gen = QueryGenerator::new(&self.spec, self.seed.wrapping_add(8));
        let noise = Normal::standard();

        let mut cm = BinaryConfusion::new();
        for _ in 0..self.num_queries.min(50) {
            let query = gen.next_query();
            for &u in &query.utilities {
                let score = u + sigma * noise.sample(&mut rng);
                // Map the unbounded score to a pseudo-CTR via the same
                // threshold the labels use.
                let predicted = if score > threshold { 0.9 } else { 0.1 };
                cm.observe(predicted, u > threshold);
            }
        }
        cm.error()
    }
}

/// Selects the indices of the top `k` scored items, optionally stitching
/// `sub_batches` per-chunk top-(k/n) selections (the accelerator's
/// sub-batched filtering).
fn select_top(scored: &[(usize, f64)], k: usize, sub_batches: usize) -> Vec<usize> {
    if sub_batches <= 1 || scored.len() <= sub_batches {
        return top_k_indices(scored, k);
    }
    let chunk_len = scored.len().div_ceil(sub_batches);
    let per_chunk = (k / sub_batches).max(1);
    let mut out = Vec::with_capacity(k);
    for chunk in scored.chunks(chunk_len) {
        out.extend(top_k_indices(chunk, per_chunk));
    }
    out.truncate(k.max(1));
    out
}

/// Indices of the top `k` (at least one) items by score, best first.
/// Equal scores keep their order in `scored`, so the result is exactly
/// the prefix a stable descending sort yields.
fn top_k_indices(scored: &[(usize, f64)], k: usize) -> Vec<usize> {
    top_k_positions(scored, k.max(1), |&(_, score)| score)
        .into_iter()
        .map(|pos| scored[pos].0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StageConfig;

    fn eval() -> QualityEvaluator {
        QualityEvaluator::criteo_like(64).queries(150)
    }

    fn single(model: ModelKind, items: u64) -> PipelineConfig {
        PipelineConfig::single_stage(model, items, 64).unwrap()
    }

    fn two_stage(front: ModelKind, items: u64, mid: u64) -> PipelineConfig {
        PipelineConfig::builder()
            .stage(StageConfig::new(front, items, mid))
            .stage(StageConfig::new(ModelKind::RmLarge, mid, 64))
            .build()
            .unwrap()
    }

    #[test]
    fn rmlarge_full_pool_hits_max_quality_target() {
        // Paper Section 4: the Criteo maximum-quality target is
        // NDCG 92.25, achieved by RMlarge ranking all 4096 items.
        let q = eval()
            .evaluate(&single(ModelKind::RmLarge, 4096))
            .ndcg_percent();
        assert!((91.0..94.0).contains(&q), "RMlarge@4096 NDCG {q}");
    }

    #[test]
    fn model_ordering_matches_accuracy_ordering() {
        let q_small = eval().evaluate(&single(ModelKind::RmSmall, 4096)).ndcg;
        let q_med = eval().evaluate(&single(ModelKind::RmMed, 4096)).ndcg;
        let q_large = eval().evaluate(&single(ModelKind::RmLarge, 4096)).ndcg;
        assert!(
            q_small < q_med && q_med < q_large,
            "{q_small} {q_med} {q_large}"
        );
    }

    #[test]
    fn quality_is_monotone_in_items_ranked() {
        // Figure 3 (center/right): more items ranked → higher quality.
        let mut prev = 0.0;
        for items in [256u64, 1024, 2048, 4096] {
            let q = eval().evaluate(&single(ModelKind::RmLarge, items)).ndcg;
            assert!(q > prev, "items {items}: {q} <= {prev}");
            prev = q;
        }
    }

    #[test]
    fn two_stage_is_iso_quality_with_single_stage() {
        // Section 5.1: RMsmall@4096 → RMlarge@256 matches single-stage
        // RMlarge@4096 quality.
        let single_q = eval().evaluate(&single(ModelKind::RmLarge, 4096)).ndcg;
        let multi_q = eval()
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 256))
            .ndcg;
        assert!(
            (single_q - multi_q).abs() < 0.01,
            "single {single_q} vs two-stage {multi_q}"
        );
    }

    #[test]
    fn frontend_tier_is_irrelevant_at_iso_quality() {
        // Section 5.1: with RMlarge in the backend, RMsmall and RMmed
        // frontends reach the same quality — the key argument for
        // optimizing quality, not accuracy.
        let with_small = eval()
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 256))
            .ndcg;
        let with_med = eval()
            .evaluate(&two_stage(ModelKind::RmMed, 4096, 256))
            .ndcg;
        assert!(
            (with_small - with_med).abs() < 0.01,
            "small-front {with_small} vs med-front {with_med}"
        );
    }

    #[test]
    fn overly_aggressive_filtering_hurts_quality() {
        // Keeping only 64 after the frontend leaves the backend nothing
        // to fix.
        let tight = eval()
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 64))
            .ndcg;
        let roomy = eval()
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 512))
            .ndcg;
        assert!(roomy > tight, "roomy {roomy} vs tight {tight}");
    }

    #[test]
    fn sub_batching_at_paper_setting_preserves_quality() {
        // Takeaway 4: four sub-batches keep quality within noise.
        let whole = eval()
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 256))
            .ndcg;
        let chunked = eval()
            .sub_batches(4)
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 256))
            .ndcg;
        assert!(
            (whole - chunked).abs() < 0.012,
            "whole {whole} vs 4 sub-batches {chunked}"
        );
    }

    #[test]
    fn sub_batch_stitching_cost_is_bounded() {
        // Stitched per-chunk top-k/n only drops borderline survivors the
        // correlated backend would down-rank anyway: even extreme
        // shredding costs at most ~1 NDCG point and never helps beyond
        // Monte-Carlo noise.
        let whole = eval()
            .evaluate(&two_stage(ModelKind::RmSmall, 4096, 256))
            .ndcg;
        for n in [2usize, 8, 64] {
            let chunked = eval()
                .sub_batches(n)
                .evaluate(&two_stage(ModelKind::RmSmall, 4096, 256))
                .ndcg;
            assert!(
                chunked > whole - 0.012 && chunked < whole + 0.004,
                "n={n}: whole {whole} vs chunked {chunked}"
            );
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let a = eval().evaluate(&single(ModelKind::RmMed, 1024));
        let b = eval().evaluate(&single(ModelKind::RmMed, 1024));
        assert_eq!(a, b);
    }

    /// The pre-selection top-k (a full stable sort): the reference the
    /// selection-based [`top_k_indices`] must match exactly.
    fn sorted_top_k_indices(scored: &[(usize, f64)], k: usize) -> Vec<usize> {
        let mut sorted: Vec<(usize, f64)> = scored.to_vec();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        sorted.truncate(k.max(1));
        sorted.into_iter().map(|(idx, _)| idx).collect()
    }

    /// [`select_top`]'s stitching over [`sorted_top_k_indices`].
    fn sorted_select_top(scored: &[(usize, f64)], k: usize, sub_batches: usize) -> Vec<usize> {
        if sub_batches <= 1 || scored.len() <= sub_batches {
            return sorted_top_k_indices(scored, k);
        }
        let chunk_len = scored.len().div_ceil(sub_batches);
        let per_chunk = (k / sub_batches).max(1);
        let mut out = Vec::with_capacity(k);
        for chunk in scored.chunks(chunk_len) {
            out.extend(sorted_top_k_indices(chunk, per_chunk));
        }
        out.truncate(k.max(1));
        out
    }

    #[test]
    fn top_k_selection_matches_stable_sort_on_ties() {
        // Few distinct scores (signed zeros included) and pool indices
        // out of input order, so every tie is decided by input position.
        let levels = [1.5, 0.0, -0.0, 1.5, -2.0, 0.25];
        for len in [0usize, 1, 7, 33, 100] {
            let scored: Vec<(usize, f64)> = (0..len)
                .map(|pos| ((pos * 37 + 11) % 101, levels[pos * 5 % levels.len()]))
                .collect();
            for k in [0, 1, 2, len / 2, len.saturating_sub(1), len, len + 3] {
                assert_eq!(
                    top_k_indices(&scored, k),
                    sorted_top_k_indices(&scored, k),
                    "len {len}, k {k}"
                );
                for sub_batches in [1, 4, len.max(1)] {
                    assert_eq!(
                        select_top(&scored, k, sub_batches),
                        sorted_select_top(&scored, k, sub_batches),
                        "len {len}, k {k}, sub_batches {sub_batches}"
                    );
                }
            }
        }
    }

    fn bits(report: &QualityReport) -> (u64, u64, usize) {
        (
            report.ndcg.to_bits(),
            report.ndcg_std.to_bits(),
            report.queries,
        )
    }

    #[test]
    fn batched_reports_do_not_depend_on_the_batch() {
        let grid = crate::Scheduler::new(crate::SchedulerSettings::quick()).enumerate_pipelines(3);
        assert_eq!(grid.len(), 14);
        for sub_batches in [1, 4] {
            let e = QualityEvaluator::criteo_like(64)
                .queries(10)
                .sub_batches(sub_batches);
            let alone: Vec<_> = grid.iter().map(|p| bits(&e.evaluate(p))).collect();
            let forward: Vec<_> = e.evaluate_all(&grid).iter().map(bits).collect();
            assert_eq!(forward, alone, "forward, sub_batches {sub_batches}");

            let reversed: Vec<PipelineConfig> = grid.iter().rev().cloned().collect();
            let mut backward: Vec<_> = e.evaluate_all(&reversed).iter().map(bits).collect();
            backward.reverse();
            assert_eq!(backward, alone, "reversed, sub_batches {sub_batches}");

            let subset: Vec<PipelineConfig> = grid.iter().step_by(3).cloned().collect();
            let some: Vec<_> = e.evaluate_all(&subset).iter().map(bits).collect();
            let expected: Vec<_> = alone.iter().step_by(3).copied().collect();
            assert_eq!(some, expected, "subset, sub_batches {sub_batches}");
        }
    }

    #[test]
    fn reports_keep_their_pinned_bit_patterns() {
        // Bit patterns measured with the full-sort evaluator, before
        // pools were shared and sorts became selections.
        use DatasetKind::{CriteoKaggle as Criteo, MovieLens20M};
        let large = single(ModelKind::RmLarge, 4096);
        let funnel = two_stage(ModelKind::RmSmall, 4096, 512);
        let cases = [
            (Criteo, &large, 1, 0x3feda7c216d974e1, 0x3f99e30a2f6b2e6b),
            (Criteo, &funnel, 4, 0x3feda235c3fd15c5, 0x3f9755a5e388448a),
            (
                MovieLens20M,
                &funnel,
                1,
                0x3fee52e96baff545,
                0x3f8b3827889dea9c,
            ),
        ];
        for (dataset, pipeline, sub_batches, ndcg, std) in cases {
            let report = QualityEvaluator::for_dataset(dataset, 64)
                .queries(120)
                .seed(77)
                .sub_batches(sub_batches)
                .evaluate(pipeline);
            assert_eq!(
                bits(&report),
                (ndcg, std, 120),
                "{dataset:?} {} at {sub_batches} sub-batches",
                pipeline.describe()
            );
        }
    }

    #[test]
    fn accuracy_tracks_model_tier() {
        let e = eval();
        let small = e.evaluate_accuracy(ModelKind::RmSmall);
        let large = e.evaluate_accuracy(ModelKind::RmLarge);
        assert!(small > large, "small err {small} vs large err {large}");
        assert!((0.01..0.5).contains(&large));
    }

    #[test]
    fn movielens_evaluator_works() {
        let e = QualityEvaluator::for_dataset(DatasetKind::MovieLens1M, 64).queries(100);
        let p = PipelineConfig::builder()
            .dataset(DatasetKind::MovieLens1M)
            .stage(StageConfig::new(ModelKind::RmLarge, 1024, 64))
            .build()
            .unwrap();
        let q = e.evaluate(&p).ndcg;
        assert!((0.5..1.0).contains(&q));
    }
}
