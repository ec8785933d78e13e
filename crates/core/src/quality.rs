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

    /// Measures every pipeline's quality over the Monte-Carlo queries,
    /// reports in input order.
    ///
    /// Every pipeline sees the same candidate pools (common random
    /// numbers) and scores them with the noise stream a lone
    /// [`evaluate`](Self::evaluate) draws from
    /// `StdRng::seed_from_u64(seed)`. A report therefore does not depend
    /// on which pipelines share the batch or in what order:
    /// `evaluate_all(ps)[i] == evaluate(&ps[i])`, bit for bit.
    ///
    /// That stream is one fixed sequence of standard normals, and a
    /// pipeline whose funnel reads `D` of them per query reads query
    /// `q`'s at positions `q·D..(q+1)·D`. So the sequence is drawn once,
    /// onto a shared tape, and pipelines with equal `D` form a group that
    /// shares each query's pool, ideal top-k and tape slice. The
    /// evaluator always advances the group whose next query ends earliest
    /// on the tape and forgets the prefix no group still needs, so a
    /// batch draws `queries · max D` normals rather than
    /// `queries · Σ D`, and the tape holds fewer than `2 · max D` of them
    /// at any time. Each group streams its own pools one query at a
    /// time, so memory does not grow with the query count.
    pub fn evaluate_all(&self, pipelines: &[PipelineConfig]) -> Vec<QualityReport> {
        self.evaluate_on(pipelines, &mut NoiseTape::new(self.seed))
    }

    /// [`evaluate_all`](Self::evaluate_all), reading the scoring noise
    /// from `tape`.
    fn evaluate_on(
        &self,
        pipelines: &[PipelineConfig],
        tape: &mut NoiseTape,
    ) -> Vec<QualityReport> {
        // Groups in first-appearance order, so nothing depends on a hash.
        let mut groups: Vec<Group> = Vec::new();
        for (i, pipeline) in pipelines.iter().enumerate() {
            let draws = self.draws(pipeline);
            match groups.iter_mut().find(|g| g.draws == draws) {
                Some(group) => group.members.push(i),
                None => groups.push(Group {
                    draws,
                    members: vec![i],
                    done: 0,
                    pools: QueryGenerator::new(&self.spec, self.seed.wrapping_add(1)),
                }),
            }
        }
        let max_draws = groups.iter().map(|g| g.draws).max().unwrap_or(0);
        let exponent = self.spec.gain_exponent;
        let queries = self.num_queries;
        let mut scores: Vec<Vec<f64>> = pipelines
            .iter()
            .map(|_| Vec::with_capacity(queries))
            .collect();
        while let Some(group) = groups
            .iter_mut()
            .filter(|g| g.done < queries)
            .min_by_key(|g| (g.done + 1) * g.draws)
        {
            let noise = tape.read(group.done * group.draws, group.draws);
            let utilities = group.pools.next_query().utilities;
            // Ideal ordering over the FULL pool: unseen candidates count
            // against the pipeline.
            let ideal = ideal_gains(&utilities, self.top_k, exponent);
            for &i in &group.members {
                let served: Vec<f64> = self
                    .funnel(&pipelines[i], &utilities, noise)
                    .into_iter()
                    .map(|idx| utilities[idx].powf(exponent))
                    .collect();
                scores[i].push(ndcg_at_k(&served, &ideal, self.top_k));
            }
            group.done += 1;
            if let Some(needed) = groups
                .iter()
                .filter(|g| g.done < queries)
                .map(|g| g.done * g.draws)
                .min()
            {
                tape.release(needed);
            }
        }
        debug_assert!(tape.peak <= 2 * max_draws, "tape held {}", tape.peak);
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

    /// Scoring normals one query's funnel reads: the shared error
    /// component of every item entering the first stage, then one fresh
    /// draw per item entering each stage.
    fn draws(&self, pipeline: &PipelineConfig) -> usize {
        let num_stages = pipeline.num_stages();
        let mut entering = (pipeline.items_in() as usize).min(self.spec.candidates_per_query);
        let mut draws = entering;
        for (stage_idx, stage) in pipeline.stages().iter().enumerate() {
            draws += entering;
            entering = survivor_count(
                entering,
                stage.items_out as usize,
                self.stage_sub_batches(stage_idx + 1 == num_stages),
            );
        }
        draws
    }

    /// Sub-batches a stage's survivor selection stitches. Inter-stage
    /// filtering may stitch per-sub-batch top-k/n lists (unordered is
    /// fine; the next stage rescores), but the FINAL stage's output is
    /// the served ranking and is always globally ordered.
    fn stage_sub_batches(&self, last: bool) -> usize {
        if last {
            1
        } else {
            self.sub_batches
        }
    }

    /// Runs one query's pool through the pipeline's stages and returns
    /// the served pool indices, best first. `noise` is the pipeline's
    /// scoring noise for this query, [`draws`](Self::draws) normals read
    /// in order.
    ///
    /// # Panics
    ///
    /// Panics unless the funnel reads exactly `noise`: a miscounted
    /// slice would shift every later query's noise.
    fn funnel(&self, pipeline: &PipelineConfig, utilities: &[f64], noise: &[f64]) -> Vec<usize> {
        // The funnel: indices into the pool survive stage by stage.
        let first_in = (pipeline.items_in() as usize).min(utilities.len());
        let mut survivors: Vec<usize> = (0..first_in).collect();

        // Persistent per-item error component shared by every stage
        // (see `stage_noise_correlation`).
        let (shared, mut fresh) = noise.split_at(first_in);
        let rho = self.stage_noise_correlation;
        let fresh_scale = (1.0 - rho * rho).sqrt();

        let num_stages = pipeline.num_stages();
        for (stage_idx, stage) in pipeline.stages().iter().enumerate() {
            let sigma = self.accuracy.sigma(stage.model);
            let (draws, rest) = fresh.split_at_checked(survivors.len()).unwrap_or_else(|| {
                panic!("{} reads past its scoring normals", pipeline.describe())
            });
            fresh = rest;
            let scored: Vec<(usize, f64)> = survivors
                .iter()
                .zip(draws)
                .map(|(&idx, &z)| {
                    let eps = rho * shared[idx] + fresh_scale * z;
                    (idx, utilities[idx] + sigma * eps)
                })
                .collect();
            survivors = select_top(
                &scored,
                stage.items_out as usize,
                self.stage_sub_batches(stage_idx + 1 == num_stages),
            );
        }
        assert!(
            fresh.is_empty(),
            "{} left {} of its {} scoring normals unread",
            pipeline.describe(),
            fresh.len(),
            noise.len()
        );
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
    let (chunk_len, per_chunk) = chunking(scored.len(), k, sub_batches);
    let mut out: Vec<usize> = scored
        .chunks(chunk_len)
        .flat_map(|chunk| top_k_indices(chunk, per_chunk))
        .collect();
    out.truncate(k.max(1));
    out
}

/// How [`select_top`] splits `len` scored items: into chunks of
/// `chunk_len` that each keep their top `per_chunk`, returned as
/// `(chunk_len, per_chunk)`. One chunk unless sub-batching applies.
fn chunking(len: usize, k: usize, sub_batches: usize) -> (usize, usize) {
    if sub_batches <= 1 || len <= sub_batches {
        (len.max(1), k.max(1))
    } else {
        (len.div_ceil(sub_batches), (k / sub_batches).max(1))
    }
}

/// How many of `len` scored items [`select_top`] keeps: each chunk's
/// top `per_chunk` (or all of a shorter chunk), cut to `k` (at least
/// one).
fn survivor_count(len: usize, k: usize, sub_batches: usize) -> usize {
    let (chunk_len, per_chunk) = chunking(len, k, sub_batches);
    let stitched = len / chunk_len * per_chunk.min(chunk_len) + (len % chunk_len).min(per_chunk);
    stitched.min(k.max(1))
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

/// `ideal_top_k` of the pool's gains `u^exponent`, with only the `k`
/// winners raised to the power. Every dataset's gain exponent is
/// positive, so the gain is non-decreasing in the `Exp(1)` utility and
/// the top-k utilities carry exactly the top-k gains.
fn ideal_gains(utilities: &[f64], k: usize, exponent: f64) -> Vec<f64> {
    ideal_top_k(utilities, k)
        .into_iter()
        .map(|u| u.powf(exponent))
        .collect()
}

/// Pipelines whose funnels read the same number of scoring normals per
/// query, and so the same tape slice for each query.
struct Group {
    /// Normals per query ([`QualityEvaluator::draws`]).
    draws: usize,
    /// Positions in the batch.
    members: Vec<usize>,
    /// Queries evaluated so far.
    done: usize,
    /// The group's own copy of the pool stream.
    pools: QueryGenerator,
}

/// The scoring-noise sequence every pipeline reads: the standard normals
/// `StdRng::seed_from_u64(seed)` yields, drawn on demand and kept only
/// while some group still needs them.
struct NoiseTape {
    rng: StdRng,
    normal: Normal,
    /// Tape positions `base..base + held.len()`.
    held: Vec<f64>,
    base: usize,
    /// Most normals held at once.
    peak: usize,
}

impl NoiseTape {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            normal: Normal::standard(),
            held: Vec::new(),
            base: 0,
            peak: 0,
        }
    }

    /// Tape positions `start..start + len`, drawing those not drawn yet.
    fn read(&mut self, start: usize, len: usize) -> &[f64] {
        let (from, to) = (start - self.base, start + len - self.base);
        while self.held.len() < to {
            self.held.push(self.normal.sample(&mut self.rng));
        }
        self.peak = self.peak.max(self.held.len());
        &self.held[from..to]
    }

    /// Forgets the positions below `start` once they are at least half
    /// of what the tape holds.
    fn release(&mut self, start: usize) {
        let dead = start - self.base;
        if 2 * dead >= self.held.len() {
            self.held.drain(..dead);
            self.base = start;
        }
    }

    /// Normals drawn so far.
    #[cfg(test)]
    fn drawn(&self) -> usize {
        self.base + self.held.len()
    }
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
                for sub_batches in [1, 3, 4, 7, len.max(1)] {
                    let kept = select_top(&scored, k, sub_batches);
                    assert_eq!(
                        kept,
                        sorted_select_top(&scored, k, sub_batches),
                        "len {len}, k {k}, sub_batches {sub_batches}"
                    );
                    assert_eq!(kept.len(), survivor_count(len, k, sub_batches));
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

    fn quick_grid() -> Vec<PipelineConfig> {
        let grid = crate::Scheduler::new(crate::SchedulerSettings::quick()).enumerate_pipelines(3);
        assert_eq!(grid.len(), 14);
        grid
    }

    #[test]
    fn batched_reports_do_not_depend_on_the_batch() {
        let grid = quick_grid();
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
    fn quick_grid_draws_each_scoring_normal_once() {
        let grid = quick_grid();
        let e = QualityEvaluator::criteo_like(64);
        let draws: Vec<usize> = grid.iter().map(|p| e.draws(p)).collect();
        // A noise stream per pipeline reads the sum per query; the tape
        // draws only the largest.
        assert_eq!(draws.iter().sum::<usize>(), 74_368);
        assert_eq!(draws.iter().max(), Some(&8_768));
        for queries in [10, 40] {
            let e = e.clone().queries(queries);
            let mut tape = NoiseTape::new(e.seed);
            e.evaluate_on(&grid, &mut tape);
            assert_eq!(tape.drawn(), queries * 8_768, "{queries} queries");
            assert!(
                tape.peak <= 2 * 8_768,
                "{queries} queries: the tape held {} normals",
                tape.peak
            );
        }
    }

    #[test]
    fn batches_read_the_tape_as_lone_evaluations_do() {
        let mut grid = quick_grid();
        // Clipped to the 4,096-item pool, as `fig13` ranks it.
        grid.push(single(ModelKind::RmLarge, 12_288));
        let draws_at_one = QualityEvaluator::criteo_like(64);
        assert_eq!(draws_at_one.draws(&grid[14]), 8_192);
        let by_draws = |d: usize, skip: usize| {
            grid.iter()
                .enumerate()
                .filter(|(_, p)| draws_at_one.draws(p) == d)
                .nth(skip)
                .map(|(i, _)| i)
                .expect("a quick-grid pipeline with these draws")
        };
        let batches = [
            (0..grid.len()).collect::<Vec<usize>>(),
            // Groups that interleave on the tape, one of them split.
            vec![
                by_draws(8_768, 0),
                by_draws(2_048, 0),
                by_draws(8_192, 0),
                by_draws(2_048, 1),
            ],
            // A pipeline twice in one batch.
            vec![3, 0, 3, 14],
        ];
        let movielens = |model, items, mid: Option<u64>| {
            let builder = PipelineConfig::builder().dataset(DatasetKind::MovieLens1M);
            match mid {
                None => builder.stage(StageConfig::new(model, items, 64)),
                Some(mid) => builder
                    .stage(StageConfig::new(model, items, mid))
                    .stage(StageConfig::new(ModelKind::RmLarge, mid, 64)),
            }
            .build()
            .unwrap()
        };
        // All three are clipped to MovieLens-1M's 1,024-item pool.
        let ml_batch = [
            movielens(ModelKind::RmSmall, 4096, None),
            movielens(ModelKind::RmSmall, 4096, Some(256)),
            movielens(ModelKind::RmLarge, 1024, None),
        ];
        for sub_batches in [1, 2, 3, 4, 7, 64, 5000] {
            let e = QualityEvaluator::criteo_like(64)
                .queries(6)
                .sub_batches(sub_batches);
            let alone: Vec<_> = grid.iter().map(|p| bits(&e.evaluate(p))).collect();
            for batch in &batches {
                let pipelines: Vec<PipelineConfig> =
                    batch.iter().map(|&i| grid[i].clone()).collect();
                let together: Vec<_> = e.evaluate_all(&pipelines).iter().map(bits).collect();
                let expected: Vec<_> = batch.iter().map(|&i| alone[i]).collect();
                assert_eq!(together, expected, "{batch:?} at {sub_batches} sub-batches");
            }
            let e = QualityEvaluator::for_dataset(DatasetKind::MovieLens1M, 64)
                .queries(6)
                .sub_batches(sub_batches);
            let alone: Vec<_> = ml_batch.iter().map(|p| bits(&e.evaluate(p))).collect();
            let together: Vec<_> = e.evaluate_all(&ml_batch).iter().map(bits).collect();
            assert_eq!(together, alone, "MovieLens-1M at {sub_batches} sub-batches");
        }
    }

    #[test]
    fn lazy_ideal_matches_the_ideal_of_all_gains() {
        // Exp(1) pools rounded to quarters: many ties, and zeros.
        let mut gen = QueryGenerator::new(&DatasetSpec::movielens_1m(), 3);
        for round in 0..4 {
            let mut utilities: Vec<f64> = gen
                .next_query()
                .utilities
                .iter()
                .map(|u| (u * 4.0).floor() / 4.0)
                .collect();
            // A negative zero, and a utility whose gain underflows to a
            // zero that ties with it.
            utilities[round] = -0.0;
            utilities[round + 7] = 1e-200;
            let positive = utilities.iter().filter(|&&u| u > 0.0).count();
            assert!(
                utilities.len() - positive > 64,
                "{positive} of {}",
                utilities.len()
            );
            for exponent in [2.0, 2.5, 3.0] {
                let gains: Vec<f64> = utilities.iter().map(|u| u.powf(exponent)).collect();
                let len = utilities.len();
                // Cuts above, at and inside the tied zeros.
                for k in [0, 1, 64, positive - 1, positive, positive + 2, len, len + 1] {
                    assert_eq!(
                        ideal_gains(&utilities, k, exponent),
                        ideal_top_k(&gains, k),
                        "round {round}, exponent {exponent}, k {k}"
                    );
                }
            }
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
