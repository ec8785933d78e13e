use std::cmp::Reverse;
use std::ops::{AddAssign, Range};

use recpipe_data::{DatasetKind, DatasetSpec};
use recpipe_metrics::{ideal_top_k, top_k_positions, top_k_set, BinaryConfusion, NdcgAtK};
use recpipe_models::{AccuracyModel, ModelKind};

use crate::sampler::{splitmix64, SplitMix64, Ziggurats};
use crate::{parallel_map, PipelineConfig};

/// Quality measurement of a pipeline over many queries.
#[derive(Debug, Clone, Copy, PartialEq)]
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

    /// Mean and standard deviation of per-query NDCGs, summed in query
    /// order.
    fn of(scores: &[f64]) -> Self {
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        let var = scores.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / scores.len() as f64;
        Self {
            ndcg: mean,
            ndcg_std: var.sqrt(),
            queries: scores.len(),
        }
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
/// `utility + sigma_model · ε` with a standard normal error `ε` — the
/// calibrated [`AccuracyModel`] maps model tiers to noise levels — and
/// forwards its top `items_out` survivors. The final stage's ranking of
/// its survivors is served; NDCG gains are `utility^gain_exponent`.
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
/// ## Keyed randomness
///
/// Nothing is read from a running stream. Query `q`'s pool is drawn from
/// a key made of `(seed, q)`, and every scoring normal from a key made of
/// `(seed, q, stream, item)`, so an item's error at a stage is the same
/// whichever pipeline scores it, and in whatever order. Each key seeds a
/// SplitMix64 sequence, and Marsaglia–Tsang ziggurats turn its outputs
/// into `Exp(1)` utilities and standard normal errors, with a logarithm
/// or an exponential only on their rare slow paths.
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
    /// Every pipeline sees the same candidate pools and the same scoring
    /// noise (common random numbers), both keyed by query and item rather
    /// than read from a stream. A report therefore does not depend on
    /// which pipelines share the batch or in what order:
    /// `evaluate_all(ps)[i] == evaluate(&ps[i])`, bit for bit.
    ///
    /// The batch runs query by query. Each query's pool and ideal top-k
    /// are drawn once for the whole batch, and the funnels are merged on
    /// their shared stage prefixes (same model, pool clip, items out and
    /// sub-batching), so pipelines that begin alike share those stages'
    /// scores and survivors.
    pub fn evaluate_all(&self, pipelines: &[PipelineConfig]) -> Vec<QualityReport> {
        self.evaluate_split(pipelines, 1).0
    }

    /// [`evaluate_all`](Self::evaluate_all) with the queries split into
    /// `workers` contiguous ranges evaluated in parallel, and the work
    /// it did. Each pipeline's per-query NDCGs are reduced in query
    /// order, so the reports do not depend on `workers`.
    pub(crate) fn evaluate_split(
        &self,
        pipelines: &[PipelineConfig],
        workers: usize,
    ) -> (Vec<QualityReport>, Work) {
        if pipelines.is_empty() {
            return (Vec::new(), Work::default());
        }
        let trie = Trie::new(self, pipelines);
        let queries = self.num_queries;
        let span = queries.div_ceil(workers.max(1));
        let ranges: Vec<Range<usize>> = (0..queries)
            .step_by(span)
            .map(|start| start..queries.min(start + span))
            .collect();
        let mut work = Work::default();
        let mut ndcgs: Vec<Vec<f64>> = vec![Vec::with_capacity(queries); trie.leaves];
        for (part, part_work) in
            parallel_map(&ranges, workers, |_, range| trie.run(self, range.clone()))
        {
            work += part_work;
            for (all, some) in ndcgs.iter_mut().zip(part) {
                all.extend(some);
            }
        }
        let reports: Vec<QualityReport> = ndcgs.iter().map(|s| QualityReport::of(s)).collect();
        let served = trie.served.iter().map(|&leaf| reports[leaf]).collect();
        (served, work)
    }

    /// Every pipeline's per-query NDCGs in query order, pipelines in
    /// input order: what its report reduces, and what a paired comparison
    /// of two pipelines reads.
    #[cfg(test)]
    pub(crate) fn query_ndcgs(&self, pipelines: &[PipelineConfig]) -> Vec<Vec<f64>> {
        let trie = Trie::new(self, pipelines);
        let (ndcgs, _) = trie.run(self, 0..self.num_queries);
        trie.served
            .iter()
            .map(|&leaf| ndcgs[leaf].clone())
            .collect()
    }

    /// Sub-batches a stage's survivor selection stitches. Inter-stage
    /// filtering may stitch per-sub-batch top-k/n sets (unordered is
    /// fine; the next stage rescores), but the FINAL stage's output is
    /// the served ranking and is always one global top-k.
    fn stage_sub_batches(&self, last: bool) -> usize {
        if last {
            1
        } else {
            self.sub_batches
        }
    }

    /// Measures a single model tier's pointwise CTR accuracy (the metric
    /// of Figure 3 left) over every Monte-Carlo query's pool: classify
    /// "click" (utility above the ~25th percentile threshold of
    /// `Exp(1)`) from the noisy score. The pools are the ones
    /// [`evaluate`](Self::evaluate) ranks; the score errors are keyed
    /// normals of their own stream.
    pub fn evaluate_accuracy(&self, model: ModelKind) -> f64 {
        // P(Exp(1) > ln 4) = 0.25: a Criteo-like positive rate.
        let threshold = 4.0f64.ln();
        let sigma = self.accuracy.sigma(model);
        let mut cm = BinaryConfusion::new();
        let mut utilities = Vec::with_capacity(self.spec.candidates_per_query);
        for query in 0..self.num_queries {
            draw_pool(
                &mut utilities,
                self.spec.candidates_per_query,
                self.seed,
                query,
            );
            let key = stream_key(self.seed, query, ACCURACY_STREAM);
            for (index, items) in utilities.chunks(2).enumerate() {
                let (a, b) = normal_pair(key, index);
                for (&u, error) in items.iter().zip([a, b]) {
                    let score = u + sigma * error;
                    // Map the unbounded score to a pseudo-CTR via the same
                    // threshold the labels use.
                    let predicted = if score > threshold { 0.9 } else { 0.1 };
                    cm.observe(predicted, u > threshold);
                }
            }
        }
        cm.error()
    }
}

/// Work an evaluation did, counted exactly: plain sums that depend on
/// the batch and the queries, never on the worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Work {
    /// Candidate pools drawn, each with its one ideal top-k.
    pub(crate) pools: u64,
    /// Standard normals drawn, two per keyed pair.
    pub(crate) normals: u64,
    /// Item scores computed, over every stage.
    pub(crate) scored: u64,
    /// Top-k selections run over a stage's scores: one per scoring for
    /// its one-chunk selections, which are drawn from one another, and
    /// one per sub-batched selection.
    pub(crate) selections: u64,
    /// Items put in ranked order: each served ranking and the ideal
    /// prefix. Shortlists between stages stay unordered.
    pub(crate) sorted: u64,
}

impl AddAssign for Work {
    fn add_assign(&mut self, other: Self) {
        self.pools += other.pools;
        self.normals += other.normals;
        self.scored += other.scored;
        self.selections += other.selections;
        self.sorted += other.sorted;
    }
}

/// What a stage scores.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Input {
    /// Pool items `0..clip`: the first stage of a funnel whose
    /// `items_in` is clipped to the pool.
    Pool(usize),
    /// The survivors of a selection.
    Survivors(usize),
}

/// One model scoring one input at one funnel depth.
#[derive(Debug)]
struct Scoring {
    input: Input,
    model: ModelKind,
    /// Stage index: 0 for a pool input.
    depth: usize,
    /// The selections over these scores, widest first.
    selections: Vec<usize>,
}

/// One survivor selection over a scoring's scores.
#[derive(Debug)]
struct Selection {
    k: usize,
    sub_batches: usize,
    /// The served ranking these survivors make, if a pipeline ends here:
    /// its index among the trie's distinct served rankings.
    served: Option<usize>,
}

/// A batch's funnels merged on their shared stage prefixes.
///
/// A stage of a pipeline is a scoring (model and input) followed by a
/// selection (items out and sub-batches), and pipelines that begin with
/// the same stages share those nodes, so each query scores and selects
/// them once. Nodes are kept in creation order, so a selection's
/// survivors are always ready before the scoring that reads them.
///
/// Survivors are a set kept in input order, so every shortlist lists
/// pool items in ascending order; the next stage rescores them and reads
/// their order only to break exact score ties. Only a served ranking is
/// sorted, from its own selection's set.
#[derive(Debug)]
struct Trie {
    scorings: Vec<Scoring>,
    selections: Vec<Selection>,
    /// Distinct served rankings.
    leaves: usize,
    /// Each pipeline's served ranking.
    served: Vec<usize>,
    /// Largest pool clip: the items whose first-stage error is drawn.
    clip: usize,
    /// Deepest stage index.
    depth: usize,
    /// What every served ranking is scored with: NDCG at the
    /// evaluator's top-k, its rank discounts computed once.
    at_k: NdcgAtK,
}

impl Trie {
    fn new(eval: &QualityEvaluator, pipelines: &[PipelineConfig]) -> Self {
        let pool = eval.spec.candidates_per_query;
        let mut trie = Self {
            scorings: Vec::new(),
            selections: Vec::new(),
            leaves: 0,
            served: Vec::with_capacity(pipelines.len()),
            clip: 0,
            depth: 0,
            at_k: NdcgAtK::new(eval.top_k),
        };
        for pipeline in pipelines {
            let last = pipeline.num_stages().saturating_sub(1);
            let mut input = Input::Pool((pipeline.items_in() as usize).min(pool));
            for (depth, stage) in pipeline.stages().iter().enumerate() {
                let scoring = trie.scoring(input, stage.model, depth);
                let sub_batches = eval.stage_sub_batches(depth == last);
                input = Input::Survivors(trie.selection(
                    scoring,
                    stage.items_out as usize,
                    sub_batches,
                ));
            }
            let Input::Survivors(leaf) = input else {
                panic!("{pipeline:?} has no stage to serve from");
            };
            let leaves = &mut trie.leaves;
            let served = *trie.selections[leaf].served.get_or_insert_with(|| {
                *leaves += 1;
                *leaves - 1
            });
            trie.served.push(served);
        }
        trie
    }

    /// The scoring of `input` by `model`, added unless present.
    fn scoring(&mut self, input: Input, model: ModelKind, depth: usize) -> usize {
        if let Some(i) = self
            .scorings
            .iter()
            .position(|s| s.input == input && s.model == model)
        {
            return i;
        }
        if let Input::Pool(clip) = input {
            self.clip = self.clip.max(clip);
        }
        self.depth = self.depth.max(depth);
        self.scorings.push(Scoring {
            input,
            model,
            depth,
            selections: Vec::new(),
        });
        self.scorings.len() - 1
    }

    /// The top-`k` selection over `scoring`, added unless present.
    fn selection(&mut self, scoring: usize, k: usize, sub_batches: usize) -> usize {
        let selections = &self.scorings[scoring].selections;
        if let Some(&i) = selections.iter().find(|&&i| {
            let s = &self.selections[i];
            s.k == k && s.sub_batches == sub_batches
        }) {
            return i;
        }
        self.selections.push(Selection {
            k,
            sub_batches,
            served: None,
        });
        let i = self.selections.len() - 1;
        let all = &self.selections;
        let selections = &mut self.scorings[scoring].selections;
        selections.push(i);
        selections.sort_by_key(|&s| Reverse(all[s].k));
        i
    }

    /// Per-query NDCG of every served ranking over `queries`, in query
    /// order, and the work done.
    fn run(&self, eval: &QualityEvaluator, queries: Range<usize>) -> (Vec<Vec<f64>>, Work) {
        let exponent = eval.spec.gain_exponent;
        let rho = eval.stage_noise_correlation;
        let mut noise = Noise::new(self.clip, self.depth, rho);
        let pool_items: Vec<usize> = (0..self.clip).collect();
        let mut survivors: Vec<Vec<usize>> = vec![Vec::new(); self.selections.len()];
        let widest = self.scorings.iter().map(|s| s.selections.len()).max();
        let mut picked: Vec<Vec<usize>> = vec![Vec::new(); widest.unwrap_or(0)];
        let mut scores: Vec<f64> = Vec::new();
        // Each served item's gain, computed on first read; NaN until then.
        let mut gains: Vec<f64> = vec![f64::NAN; self.clip];
        let mut ndcgs: Vec<Vec<f64>> = vec![Vec::with_capacity(queries.len()); self.leaves];
        let mut work = Work::default();
        let mut utilities = Vec::with_capacity(eval.spec.candidates_per_query);
        for query in queries {
            draw_pool(
                &mut utilities,
                eval.spec.candidates_per_query,
                eval.seed,
                query,
            );
            // Ideal ordering over the FULL pool: unseen candidates count
            // against the pipeline. Its DCG normalizes every ranking.
            let ideal = ideal_gains(&utilities, eval.top_k, exponent);
            work.sorted += ideal.len() as u64;
            let ideal_dcg = self.at_k.dcg(ideal);
            gains.fill(f64::NAN);
            work.pools += 1;
            noise.start(eval.seed, query, &mut work);
            for scoring in &self.scorings {
                let sigma = eval.accuracy.sigma(scoring.model);
                let input: &[usize] = match scoring.input {
                    Input::Pool(clip) => &pool_items[..clip],
                    Input::Survivors(selection) => &survivors[selection],
                };
                scores.clear();
                if scoring.depth == 0 {
                    let first = &noise.first[..input.len()];
                    scores.extend(
                        utilities[..input.len()]
                            .iter()
                            .zip(first)
                            .map(|(u, eps)| u + sigma * eps),
                    );
                } else {
                    scores.extend(input.iter().map(|&item| {
                        utilities[item] + sigma * noise.rescore(item, scoring.depth, &mut work)
                    }));
                }
                work.scored += input.len() as u64;

                // Widest first, so every one-chunk set after the first is
                // the top k of the one before it: the same set a
                // selection over all the scores keeps.
                let len = scores.len();
                let mut wider: Option<Vec<usize>> = None;
                for (out, &i) in picked.iter_mut().zip(&scoring.selections) {
                    let Selection {
                        k,
                        sub_batches,
                        served,
                    } = self.selections[i];
                    let kept = match &wider {
                        Some(wider) if one_chunk(len, sub_batches) => {
                            top_k_set(wider, k, |&pos| scores[pos])
                                .into_iter()
                                .map(|j| wider[j])
                                .collect()
                        }
                        _ => {
                            work.selections += 1;
                            select_top(&scores, k, sub_batches)
                        }
                    };
                    if let Some(leaf) = served {
                        let ranked = top_k_positions(&kept, eval.top_k, |&pos| scores[pos]);
                        work.sorted += ranked.len() as u64;
                        let served_gains = ranked.into_iter().map(|j| {
                            let item = input[kept[j]];
                            let gain = &mut gains[item];
                            if gain.is_nan() {
                                *gain = utilities[item].powf(exponent);
                            }
                            *gain
                        });
                        ndcgs[leaf].push(self.at_k.ndcg(served_gains, ideal_dcg));
                    }
                    out.clear();
                    out.extend(kept.iter().map(|&pos| input[pos]));
                    if one_chunk(len, sub_batches) {
                        wider = Some(kept);
                    }
                }
                for (out, &i) in picked.iter_mut().zip(&scoring.selections) {
                    std::mem::swap(out, &mut survivors[i]);
                }
            }
        }
        (ndcgs, work)
    }
}

/// Key stream of a query's pool: one SplitMix64 sequence of `Exp(1)`
/// utilities.
const POOL_STREAM: u64 = 0;
/// Key stream of a query's first-stage errors, one pair per two
/// neighbouring items.
const FIRST_STREAM: u64 = 1;
/// First key stream of a query's later-stage normals: stream
/// `LATER_STREAM + m` holds rows `2m` and `2m + 1` of [`Noise::later`].
const LATER_STREAM: u64 = 2;
/// Key stream of a query's CTR-accuracy errors, one pair per two
/// neighbouring items: far above every later stream a pipeline's depth
/// can reach.
const ACCURACY_STREAM: u64 = u64::MAX;

/// The key of `stream` in query `query`.
fn stream_key(seed: u64, query: usize, stream: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ query as u64) ^ stream)
}

/// Fills `utilities` with query `query`'s pool of `len` `Exp(1)`
/// utilities, drawn in order from the sequence seeded with the query's
/// pool key.
fn draw_pool(utilities: &mut Vec<f64>, len: usize, seed: u64, query: usize) {
    let (zigs, mut rng) = (
        Ziggurats::get(),
        SplitMix64::new(stream_key(seed, query, POOL_STREAM)),
    );
    utilities.clear();
    utilities.extend((0..len).map(|_| zigs.exponential(&mut rng)));
}

/// Pair `index` of a stream's standard normals, drawn one after the other
/// from the pair's own SplitMix64 sequence, seeded by output `index` of
/// the one seeded with `key`: any pair is drawn without the ones before
/// it.
fn normal_pair(key: u64, index: usize) -> (f64, f64) {
    let (zigs, mut rng) = (Ziggurats::get(), SplitMix64::at(key, index as u64));
    (zigs.normal(&mut rng), zigs.normal(&mut rng))
}

/// One query's scoring errors, drawn in keyed pairs ([`normal_pair`]):
/// stream [`FIRST_STREAM`]'s pair `j` holds `ε₀` of items `2j` and
/// `2j + 1`, and stream `LATER_STREAM + m`'s pair `i` holds item `i`'s
/// rows `2m` and `2m + 1` of [`Noise::later`].
///
/// Stage 0 scores item `i` with error `ε₀`, one standard normal. A later
/// stage `t` rescores it with `ρ·s + √(1−ρ²)·z_t`, where
/// `s = ρ·ε₀ + √(1−ρ²)·w` is the item's shared component and `w` and
/// `z_t` are fresh standard normals. Every stage's error is then
/// standard normal, and any two stages' errors correlate by `ρ²`: the
/// joint law of a shared component mixed into each stage's own draw,
/// with `w` drawn only for the items a later stage rescores.
struct Noise {
    /// `√(1−ρ²)`.
    fresh: f64,
    rho: f64,
    /// `ε₀` of pool items `0..clip`.
    first: Vec<f64>,
    /// Row 0 holds each item's `w`, row `t` its `z_t`; NaN until drawn.
    /// Rows `2m` and `2m + 1` are drawn together, one pair per item.
    later: Vec<Vec<f64>>,
    /// The query's key for each pair of rows.
    keys: Vec<u64>,
}

impl Noise {
    fn new(clip: usize, depth: usize, rho: f64) -> Self {
        // `w` and `z_1..=z_depth`, in whole pairs; none for lone stages.
        let rows = if depth == 0 {
            0
        } else {
            (depth + 1).next_multiple_of(2)
        };
        Self {
            fresh: (1.0 - rho * rho).sqrt(),
            rho,
            first: vec![0.0; clip],
            later: vec![vec![f64::NAN; clip]; rows],
            keys: vec![0; rows / 2],
        }
    }

    /// Draws query `query`'s first-stage errors and forgets the previous
    /// query's later normals.
    fn start(&mut self, seed: u64, query: usize, work: &mut Work) {
        let key = stream_key(seed, query, FIRST_STREAM);
        for (index, items) in self.first.chunks_mut(2).enumerate() {
            let (a, b) = normal_pair(key, index);
            items[0] = a;
            if let Some(second) = items.get_mut(1) {
                *second = b;
            }
            work.normals += 2;
        }
        for (m, key) in self.keys.iter_mut().enumerate() {
            *key = stream_key(seed, query, LATER_STREAM + m as u64);
        }
        for row in &mut self.later {
            row.fill(f64::NAN);
        }
    }

    /// Item `item`'s error at stage `depth >= 1`.
    fn rescore(&mut self, item: usize, depth: usize, work: &mut Work) -> f64 {
        let shared = self.rho * self.first[item] + self.fresh * self.later_normal(0, item, work);
        self.rho * shared + self.fresh * self.later_normal(depth, item, work)
    }

    /// Row `row`'s normal for `item`, drawing its pair on first read.
    fn later_normal(&mut self, row: usize, item: usize, work: &mut Work) -> f64 {
        let drawn = self.later[row][item];
        if !drawn.is_nan() {
            return drawn;
        }
        let even = row & !1;
        let (a, b) = normal_pair(self.keys[even / 2], item);
        self.later[even][item] = a;
        self.later[even + 1][item] = b;
        work.normals += 2;
        if row == even {
            a
        } else {
            b
        }
    }
}

/// Whether [`select_top`] keeps one chunk: no sub-batching, or no more
/// items than sub-batches.
fn one_chunk(len: usize, sub_batches: usize) -> bool {
    sub_batches <= 1 || len <= sub_batches
}

/// Positions of the top `k` (at least one) `scores` in input order,
/// optionally stitching `sub_batches` per-chunk top-(k/n) sets (the
/// accelerator's sub-batched filtering). Each chunk keeps the first
/// positions of a stable descending sort, and chunks stitch in order.
/// With more chunks than `k` each chunk keeps one winner, and the `k`
/// best winners pass on (equal scores to the earlier position).
fn select_top(scores: &[f64], k: usize, sub_batches: usize) -> Vec<usize> {
    let k = k.max(1);
    let (chunk_len, per_chunk) = if one_chunk(scores.len(), sub_batches) {
        (scores.len().max(1), k)
    } else {
        (scores.len().div_ceil(sub_batches), (k / sub_batches).max(1))
    };
    let winners: Vec<usize> = scores
        .chunks(chunk_len)
        .enumerate()
        .flat_map(|(chunk, scores)| {
            top_k_set(scores, per_chunk, |&s| s)
                .into_iter()
                .map(move |pos| chunk * chunk_len + pos)
        })
        .collect();
    if winners.len() <= k {
        return winners;
    }
    top_k_set(&winners, k, |&pos| scores[pos])
        .into_iter()
        .map(|j| winners[j])
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

    /// The pre-selection top-k (a full stable sort), best first: the
    /// reference the selection-based [`select_top`] must match exactly.
    fn sorted_top_k(scores: &[f64], k: usize) -> Vec<usize> {
        let mut sorted: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        sorted.truncate(k.max(1));
        sorted.into_iter().map(|(pos, _)| pos).collect()
    }

    /// [`select_top`]'s stitching over [`sorted_top_k`], keeping the
    /// best `k` chunk winners, put back in input order.
    fn sorted_select_top(scores: &[f64], k: usize, sub_batches: usize) -> Vec<usize> {
        if sub_batches <= 1 || scores.len() <= sub_batches {
            let mut top = sorted_top_k(scores, k);
            top.sort_unstable();
            return top;
        }
        let chunk_len = scores.len().div_ceil(sub_batches);
        let per_chunk = (k / sub_batches).max(1);
        let mut out = Vec::with_capacity(k);
        for (chunk, scores) in scores.chunks(chunk_len).enumerate() {
            out.extend(
                sorted_top_k(scores, per_chunk)
                    .into_iter()
                    .map(|pos| chunk * chunk_len + pos),
            );
        }
        // Equal scores sit in input order here, so the stable sort
        // breaks their ties to the earlier position.
        let winners: Vec<f64> = out.iter().map(|&pos| scores[pos]).collect();
        let mut top: Vec<usize> = sorted_top_k(&winners, k)
            .into_iter()
            .map(|j| out[j])
            .collect();
        top.sort_unstable();
        top
    }

    #[test]
    fn top_k_selection_matches_stable_sort_on_ties() {
        // Few distinct scores (signed zeros included), so every tie is
        // decided by input position.
        let levels = [1.5, 0.0, -0.0, 1.5, -2.0, 0.25];
        for len in [0usize, 1, 7, 33, 100] {
            let scores: Vec<f64> = (0..len).map(|pos| levels[pos * 5 % levels.len()]).collect();
            for k in [0, 1, 2, len / 2, len.saturating_sub(1), len, len + 3] {
                for sub_batches in [1, 3, 4, 7, len.max(1)] {
                    assert_eq!(
                        select_top(&scores, k, sub_batches),
                        sorted_select_top(&scores, k, sub_batches),
                        "len {len}, k {k}, sub_batches {sub_batches}"
                    );
                }
                // A one-chunk top-k is the top k of every larger one, and
                // a served ranking its stable sort.
                let top = select_top(&scores, k, 1);
                for wider in [len / 2, len.saturating_sub(1), len + 3] {
                    let wider = select_top(&scores, wider.max(k), 1);
                    let nested: Vec<usize> = top_k_set(&wider, k.max(1), |&pos| scores[pos])
                        .into_iter()
                        .map(|j| wider[j])
                        .collect();
                    assert_eq!(nested, top, "len {len}, k {k}");
                    let ranked: Vec<usize> = top_k_positions(&wider, k.max(1), |&pos| scores[pos])
                        .into_iter()
                        .map(|j| wider[j])
                        .collect();
                    assert_eq!(ranked, sorted_top_k(&scores, k), "len {len}, k {k}");
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
    fn more_sub_batches_than_survivors_keep_the_best_chunk_winners() {
        // Past 256 sub-batches each chunk keeps one winner, and the 256
        // best winners pass on: the stage still reads the whole pool.
        let funnel = two_stage(ModelKind::RmSmall, 4096, 256);
        let ndcg = |n| eval().queries(100).sub_batches(n).evaluate(&funnel).ndcg;
        let whole = ndcg(1);
        for n in [300, 1_000, 4_095] {
            let chunked = ndcg(n);
            assert!((chunked - whole).abs() < 0.02, "{n}: {chunked} vs {whole}");
        }
    }

    #[test]
    fn reports_keep_their_pinned_bit_patterns() {
        // Bit patterns measured when the keyed pools and scoring noise
        // came to be drawn by the ziggurats.
        use DatasetKind::{CriteoKaggle as Criteo, MovieLens20M};
        let large = single(ModelKind::RmLarge, 4096);
        let funnel = two_stage(ModelKind::RmSmall, 4096, 512);
        let cases = [
            (Criteo, &large, 1, 0x3fed97212162556d, 0x3f99495e33ab1ca8),
            (Criteo, &funnel, 4, 0x3fed97bc361fd6ca, 0x3f98f8c210594f6e),
            (
                MovieLens20M,
                &funnel,
                1,
                0x3fee4b065d5e0422,
                0x3f9002520d7fbd75,
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
    fn quick_grid_shares_pools_and_funnel_prefixes() {
        let grid = quick_grid();
        // Per query: one pool (and its ideal) for the whole grid. Stage 0
        // scores once per distinct (model, pool clip): three models over
        // 1,024 and 4,096 items. Later stages score once per distinct
        // prefix and model: RMmed and RMlarge after both RMsmall
        // shortlists (128 and 512 items), RMlarge after both RMmed ones,
        // and RMlarge after the two RMsmall → RMmed chains (64 each).
        let scored = 3 * (1_024 + 4_096) + 2 * (128 + 512) + (128 + 512) + 2 * 64;
        // One top-k per stage-0 (model, clip), whose narrower sets are
        // drawn from its widest, six at stage 1 and two at stage 2.
        let selections = 6 + 6 + 2;
        // Only the 14 served top-64s and the ideal top-64 are sorted.
        let sorted = 14 * 64 + 64;
        // Normals: 4,096 first-stage errors per query, and a pair per item
        // and row pair that a later stage rescores. The shortlists decide
        // which items those are, so this count follows the draws.
        for (queries, normals) in [(10, 53_520), (40, 214_380)] {
            let e = QualityEvaluator::criteo_like(64).queries(queries);
            let (_, work) = e.evaluate_split(&grid, 1);
            let per_query = |n: u64| n * queries as u64;
            assert_eq!(
                work,
                Work {
                    pools: per_query(1),
                    normals,
                    scored: per_query(scored),
                    selections: per_query(selections),
                    sorted: per_query(sorted),
                },
                "{queries} queries"
            );
            assert_eq!(e.evaluate_split(&grid, 3).1, work, "{queries} queries");
        }
    }

    /// Sub-batch counts the batch property draws from: every stitching
    /// shape, up to more chunks than a stage has items.
    const SUB_BATCHES: [usize; 7] = [1, 2, 3, 4, 7, 64, 5000];

    /// The batch a property case picks pipelines from: the quick grid
    /// with RMlarge@12288 (clipped to the 4,096-item pool, as `fig13`
    /// ranks it), or funnels clipped to MovieLens-1M's 1,024-item pool.
    fn batch(movielens: bool) -> Vec<PipelineConfig> {
        if !movielens {
            let mut grid = quick_grid();
            grid.push(single(ModelKind::RmLarge, 12_288));
            return grid;
        }
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
        vec![
            movielens(ModelKind::RmSmall, 4096, None),
            movielens(ModelKind::RmSmall, 4096, Some(256)),
            movielens(ModelKind::RmLarge, 1024, None),
            movielens(ModelKind::RmSmall, 1024, Some(256)),
        ]
    }

    fn batch_evaluator(movielens: bool, sub_batches: usize) -> QualityEvaluator {
        let dataset = if movielens {
            DatasetKind::MovieLens1M
        } else {
            DatasetKind::CriteoKaggle
        };
        QualityEvaluator::for_dataset(dataset, 64)
            .queries(7)
            .sub_batches(sub_batches)
    }

    /// Every [`batch`] pipeline's lone report, per dataset and
    /// [`SUB_BATCHES`] entry, evaluated once.
    fn alone(movielens: bool, sub_batches: usize) -> &'static [(u64, u64, usize)] {
        type Table = Vec<Vec<Vec<(u64, u64, usize)>>>;
        static ALONE: std::sync::OnceLock<Table> = std::sync::OnceLock::new();
        let table = ALONE.get_or_init(|| {
            [false, true]
                .map(|movielens| {
                    SUB_BATCHES
                        .iter()
                        .map(|&n| {
                            let e = batch_evaluator(movielens, n);
                            batch(movielens)
                                .iter()
                                .map(|p| bits(&e.evaluate(p)))
                                .collect()
                        })
                        .collect()
                })
                .to_vec()
        });
        &table[usize::from(movielens)][sub_batches]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        #[test]
        fn reports_do_not_depend_on_the_batch_or_the_workers(
            movielens in proptest::prelude::any::<bool>(),
            sub_batches in 0..SUB_BATCHES.len(),
            picks in proptest::collection::vec(0usize..64, 1..24),
            workers in 1usize..5,
        ) {
            // Any subset, order or duplicate of the batch, split across
            // any worker count, reports exactly what each pipeline
            // reports alone.
            let batch = batch(movielens);
            let picks: Vec<usize> = picks.iter().map(|&i| i % batch.len()).collect();
            let pipelines: Vec<PipelineConfig> = picks.iter().map(|&i| batch[i].clone()).collect();
            let (reports, _) = batch_evaluator(movielens, SUB_BATCHES[sub_batches])
                .evaluate_split(&pipelines, workers);
            let together: Vec<_> = reports.iter().map(bits).collect();
            let alone = alone(movielens, sub_batches);
            let expected: Vec<_> = picks.iter().map(|&i| alone[i]).collect();
            proptest::prop_assert_eq!(
                together,
                expected,
                "{:?} on {} workers at {} sub-batches",
                picks,
                workers,
                SUB_BATCHES[sub_batches]
            );
        }
    }

    #[test]
    fn perfectly_correlated_same_model_funnels_serve_their_first_ranking() {
        // Under ρ = 1 every stage scores an item with the same error, so
        // a funnel that re-ranks with the same model keeps its first
        // stage's order and serves exactly what that stage alone serves.
        let chain = |stages: &[(u64, u64)]| {
            stages
                .iter()
                .fold(PipelineConfig::builder(), |b, &(items_in, items_out)| {
                    b.stage(StageConfig::new(ModelKind::RmSmall, items_in, items_out))
                })
                .build()
                .unwrap()
        };
        let e = QualityEvaluator::criteo_like(64)
            .queries(60)
            .seed(3)
            .noise_correlation(1.0);
        let lone = bits(&e.evaluate(&chain(&[(4096, 64)])));
        for funnel in [
            chain(&[(4096, 512), (512, 64)]),
            chain(&[(4096, 512), (512, 128), (128, 64)]),
        ] {
            assert_eq!(bits(&e.evaluate(&funnel)), lone, "{}", funnel.describe());
        }
    }

    #[test]
    fn noiseless_tiers_ranking_the_whole_pool_are_perfect() {
        // Zero-sigma tiers rank by true utility: the served top-64 is the
        // ideal one, so every query's NDCG is exactly 1.
        for dataset in [DatasetKind::CriteoKaggle, DatasetKind::MovieLens1M] {
            let oracle = QualityEvaluator::for_dataset(dataset, 64)
                .accuracy
                .with_sigma(ModelKind::RmSmall, 0.0)
                .with_sigma(ModelKind::RmLarge, 0.0);
            let e = QualityEvaluator::for_dataset(dataset, 64)
                .queries(40)
                .accuracy_model(oracle);
            let pool = e.spec().candidates_per_query as u64;
            for pipeline in [
                single(ModelKind::RmLarge, pool),
                two_stage(ModelKind::RmSmall, pool, 256),
            ] {
                let report = e.evaluate(&pipeline);
                assert_eq!(
                    (report.ndcg, report.ndcg_std),
                    (1.0, 0.0),
                    "{dataset:?} {}",
                    pipeline.describe()
                );
            }
        }
    }

    #[test]
    fn stage_errors_are_standard_normals_correlated_by_rho_squared() {
        // The first stage's error is drawn directly and the shared
        // component from it; the joint law must be that of one shared
        // normal mixed into each stage's own: unit variances and
        // correlation ρ² between any two stages.
        let (rho, items, queries) = (0.9, 4096, 25);
        let mut noise = Noise::new(items, 2, rho);
        let mut work = Work::default();
        let mut errors = [Vec::new(), Vec::new(), Vec::new()];
        for query in 0..queries {
            noise.start(11, query, &mut work);
            for item in 0..items {
                errors[0].push(noise.first[item]);
                let later = [1, 2].map(|depth| noise.rescore(item, depth, &mut work));
                // Drawn once: a second read is the same error.
                assert_eq!(later[0], noise.rescore(item, 1, &mut work));
                errors[1].push(later[0]);
                errors[2].push(later[1]);
            }
        }
        // w, z₁ and z₂ are drawn for every item (z₃ with z₂), ε₀ in pairs.
        assert_eq!(work.normals, (queries * items * 5) as u64);
        let n = (items * queries) as f64;
        let mean = |x: &[f64]| x.iter().sum::<f64>() / n;
        let cov = |x: &[f64], y: &[f64]| {
            let (mx, my) = (mean(x), mean(y));
            x.iter()
                .zip(y)
                .map(|(a, b)| (a - mx) * (b - my))
                .sum::<f64>()
                / n
        };
        // 102,400 samples: standard errors near 0.003 for a mean and
        // 0.0045 for a variance.
        for (stage, e) in errors.iter().enumerate() {
            assert!(mean(e).abs() < 0.015, "stage {stage} mean {}", mean(e));
            assert!(
                (cov(e, e) - 1.0).abs() < 0.025,
                "stage {stage} var {}",
                cov(e, e)
            );
        }
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            let corr = cov(&errors[a], &errors[b]);
            assert!(
                (corr - rho * rho).abs() < 0.02,
                "stages {a} and {b}: correlation {corr}"
            );
        }
    }

    /// `erf` to within 1.5e-7 (Abramowitz and Stegun 7.1.26): far inside
    /// the Kolmogorov–Smirnov bound at 10^6 draws.
    fn erf(x: f64) -> f64 {
        let t = 1.0 / (1.0 + 0.327_591_1 * x.abs());
        let poly = [
            1.061_405_429,
            -1.453_152_027,
            1.421_413_741,
            -0.284_496_736,
            0.254_829_592,
        ]
        .iter()
        .fold(0.0, |acc, c| acc * t + c)
            * t;
        (1.0 - poly * (-x * x).exp()).copysign(x)
    }

    /// The Kolmogorov–Smirnov distance between `draws` and `cdf`.
    fn ks_distance(mut draws: Vec<f64>, cdf: impl Fn(f64) -> f64) -> f64 {
        draws.sort_unstable_by(f64::total_cmp);
        let n = draws.len() as f64;
        draws
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let p = cdf(x);
                (p - i as f64 / n).max((i + 1) as f64 / n - p)
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn keyed_draws_follow_their_exact_cdfs() {
        // 10^6 draws of each ziggurat through the evaluator's keys: the
        // normals of 500,000 first-stage pairs, and 250 pools of 4,000
        // utilities. The bound is the one-sample Kolmogorov–Smirnov
        // distance's 99% critical value.
        const DRAWS: usize = 1_000_000;
        let critical = 1.63 / (DRAWS as f64).sqrt();
        let key = stream_key(3, 0, FIRST_STREAM);
        let normals = (0..DRAWS / 2)
            .flat_map(|index| {
                let (a, b) = normal_pair(key, index);
                [a, b]
            })
            .collect();
        let mut pool = Vec::new();
        let mut utilities = Vec::with_capacity(DRAWS);
        for query in 0..DRAWS / 4_000 {
            draw_pool(&mut pool, 4_000, 3, query);
            utilities.extend_from_slice(&pool);
        }
        let normal_cdf = |x: f64| 0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2));
        let exp_cdf = |x: f64| 1.0 - (-x).exp();
        for (name, distance) in [
            ("normal", ks_distance(normals, normal_cdf)),
            ("exponential", ks_distance(utilities, exp_cdf)),
        ] {
            assert!(distance < critical, "{name}: KS distance {distance}");
        }
    }

    #[test]
    fn a_pair_is_drawn_without_the_pairs_before_it() {
        // Later-stage normals are drawn on first read, item by item: an
        // item's errors must not depend on which items were read first.
        let (items, seed, query) = (64, 4, 9);
        let mut work = Work::default();
        let errors = |noise: &mut Noise, item, work: &mut Work| {
            [1, 2].map(|depth| noise.rescore(item, depth, work).to_bits())
        };
        let mut every = Noise::new(items, 2, 0.9);
        every.start(seed, query, &mut work);
        let all: Vec<_> = (0..items)
            .map(|item| errors(&mut every, item, &mut work))
            .collect();
        for item in [items - 1, 17, 0] {
            let mut lone = Noise::new(items, 2, 0.9);
            lone.start(seed, query, &mut work);
            assert_eq!(errors(&mut lone, item, &mut work), all[item], "item {item}");
        }
        let key = stream_key(seed, query, FIRST_STREAM);
        let pairs: Vec<_> = (0..items).map(|index| normal_pair(key, index)).collect();
        for index in (0..items).rev() {
            assert_eq!(normal_pair(key, index), pairs[index], "pair {index}");
        }
    }

    #[test]
    fn lazy_ideal_matches_the_ideal_of_all_gains() {
        // Exp(1) pools rounded to quarters: many ties, and zeros.
        let items = DatasetSpec::movielens_1m().candidates_per_query;
        let mut pool = Vec::new();
        for round in 0..4 {
            draw_pool(&mut pool, items, 3, round);
            let mut utilities: Vec<f64> = pool.iter().map(|u| (u * 4.0).floor() / 4.0).collect();
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
    fn per_query_ndcgs_reduce_to_the_reports() {
        let grid = quick_grid();
        let e = QualityEvaluator::criteo_like(64).queries(12).seed(5);
        let reports: Vec<_> = e
            .query_ndcgs(&grid)
            .iter()
            .map(|scores| bits(&QualityReport::of(scores)))
            .collect();
        let expected: Vec<_> = e.evaluate_all(&grid).iter().map(bits).collect();
        assert_eq!(reports, expected);
    }

    /// Prints every per-query NDCG of the quick grid (400 queries) and of
    /// the paper-default grid (200 queries) at seeds 1–10, one line per
    /// pipeline: `grid seed pipeline ndcg...`. Two builds' outputs pair
    /// query by query, which is how a change to the draws is checked:
    /// per-pipeline means against their standard errors, and the sign of
    /// every pair a 99% paired test decides.
    #[test]
    #[ignore = "prints the per-query NDCGs that pair two builds' draws"]
    fn print_per_query_ndcgs() {
        use crate::{Scheduler, SchedulerSettings};
        for (name, settings) in [
            ("quick", SchedulerSettings::quick()),
            ("paper", SchedulerSettings::paper_default()),
        ] {
            let grid = Scheduler::new(settings.clone()).enumerate_pipelines(settings.max_stages);
            for seed in 1..=10 {
                let e = QualityEvaluator::for_dataset(settings.dataset, 64)
                    .queries(settings.quality_queries)
                    .seed(seed);
                for (pipeline, scores) in e.query_ndcgs(&grid).iter().enumerate() {
                    let scores: Vec<String> = scores.iter().map(f64::to_string).collect();
                    println!("{name} {seed} {pipeline} {}", scores.join(" "));
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
