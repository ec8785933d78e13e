//! Multi-path serving (see [`Scenario::multipath`]): the admission seam
//! and per-path accounting. Every path's stages sit contiguously in one
//! concatenated spec, so the loop serves a path like any pipeline; this
//! runtime picks the path a fresh query enters and counts its fate.
//!
//! [`Scenario::multipath`]: crate::Scenario::multipath

use recpipe_metrics::LatencyStats;

use super::window::{QueryWindow, UNASSIGNED};
use super::Gauges;
use crate::{
    Admission, AdmissionCtx, AdmissionPolicy, AdmissionState, PathProfile, PathSet, PathStats,
    WindowStats,
};

/// The multi-path runtime: the admission policy and its state, the
/// path layout, and per-path counters over the run and the current
/// telemetry window. A query's admitted path is its [`QueryWindow`]
/// record's `path`.
pub(super) struct MultipathRt<'a> {
    admission: &'a dyn AdmissionPolicy,
    /// Per-path analytic profiles handed to the policy on every arrival.
    profiles: Vec<PathProfile>,
    /// First flat stage of each path.
    entry: Vec<usize>,
    /// Per flat stage: whether it is its path's final stage.
    pub(super) last_of_path: Vec<bool>,
    /// The policy's mutable state (degradation level, RNG stream).
    state: AdmissionState,
    /// Per-path outcomes over the whole run (sheds count lifecycle
    /// losses after admission, not admission rejections); the latency
    /// summaries fill in from `latency` at the end.
    stats: Vec<PathStats>,
    /// Per-path post-warmup latency collectors.
    latency: Vec<LatencyStats>,
    /// Queries rejected at admission (before any path).
    admission_shed: usize,
    /// Admitted-but-unresolved queries — the concurrency signal
    /// admission policies threshold on.
    in_system: usize,
    /// Largest single-path fully-batched capacity — the saturation
    /// test's rate bound (the concatenated spec's own figure sums every
    /// path's load as if all were always taken, which is meaningless).
    pub(super) max_full_batch_qps: f64,
    /// Per-path admissions and completions in the current telemetry
    /// window.
    win_admitted: Vec<usize>,
    win_completed: Vec<usize>,
}

impl<'a> MultipathRt<'a> {
    pub(super) fn new(paths: &PathSet, admission: &'a dyn AdmissionPolicy, seed: u64) -> Self {
        let n = paths.num_paths();
        let profiles = paths.profiles();
        let max_full_batch_qps = profiles
            .iter()
            .map(|p| p.max_qps_full_batch)
            .fold(0.0, f64::max);
        let stats = (paths.names().iter().zip(&profiles))
            .map(|(name, profile)| PathStats {
                name: name.clone(),
                quality: profile.quality,
                admitted: 0,
                completed: 0,
                shed: 0,
                dropped: 0,
                mean_latency_s: 0.0,
                p99_s: 0.0,
            })
            .collect();
        Self {
            admission,
            profiles,
            entry: (0..n).map(|p| paths.entry(p)).collect(),
            last_of_path: paths.last_of_path(),
            // A distinct splitmix lane per run seed: decorrelated from
            // every router's per-group stream (those mix the group
            // index) while staying a pure function of the seed.
            state: AdmissionState::new(seed ^ 0xa076_1d64_78bd_642f),
            stats,
            latency: (0..n).map(|_| LatencyStats::new()).collect(),
            admission_shed: 0,
            in_system: 0,
            max_full_batch_qps,
            win_admitted: vec![0; n],
            win_completed: vec![0; n],
        }
    }

    /// Runs the admission decision for a stage-0 arrival of `query`:
    /// returns the admitted path's entry stage, or `None` when the query
    /// was shed. Re-arrivals of an already-admitted query (lifecycle
    /// requeues and parked flushes re-enter at their original stage —
    /// which is 0 only on path 0) keep their path without a second
    /// decision.
    pub(super) fn admit(
        &mut self,
        now: f64,
        w: &mut QueryWindow,
        query: usize,
        gauges: Gauges,
        window: Option<&WindowStats>,
    ) -> Option<usize> {
        let rec = w.rec_mut(query);
        let prior = rec.path;
        if prior != UNASSIGNED {
            debug_assert_eq!(prior, 0, "only path 0 starts at flat stage 0");
            return Some(0);
        }
        let ctx = AdmissionCtx {
            now,
            query,
            in_system: self.in_system,
            capacity: gauges.capacity,
            queue_depth: gauges.queued,
            paths: &self.profiles,
            window,
        };
        match self.admission.admit(&ctx, &mut self.state) {
            Admission::Admit(p) => {
                let paths = self.entry.len();
                assert!(p < paths, "admission chose path {p} of {paths}");
                rec.path = p as u8;
                self.stats[p].admitted += 1;
                self.win_admitted[p] += 1;
                self.in_system += 1;
                Some(self.entry[p])
            }
            Admission::Shed => {
                self.admission_shed += 1;
                None
            }
        }
    }

    /// Counts an admitted query's loss: shed without service, or
    /// dropped mid-service when `in_flight`.
    pub(super) fn on_lost(&mut self, w: &QueryWindow, query: usize, in_flight: bool) {
        let p = w.rec(query).path as usize;
        debug_assert!(p < self.entry.len(), "lost query was never admitted");
        if in_flight {
            self.stats[p].dropped += 1;
        } else {
            self.stats[p].shed += 1;
        }
        self.in_system -= 1;
    }

    /// Counts `query`'s completion, recording its latency unless it is
    /// a warmup query.
    pub(super) fn on_completion(
        &mut self,
        w: &QueryWindow,
        query: usize,
        latency_s: f64,
        warm: bool,
    ) {
        let p = w.rec(query).path as usize;
        debug_assert!(p < self.entry.len(), "completion of an unadmitted query");
        self.stats[p].completed += 1;
        self.win_completed[p] += 1;
        self.in_system -= 1;
        if warm {
            self.latency[p].record_secs(latency_s);
        }
    }

    /// The closing window's per-path admissions and completions; the
    /// next window counts from zero.
    pub(super) fn take_window(&mut self) -> (Vec<usize>, Vec<usize>) {
        let n = self.entry.len();
        (
            std::mem::replace(&mut self.win_admitted, vec![0; n]),
            std::mem::replace(&mut self.win_completed, vec![0; n]),
        )
    }

    /// The run's per-path outcomes and its admission sheds.
    pub(super) fn into_stats(mut self) -> (Vec<PathStats>, usize) {
        for (stats, latency) in self.stats.iter_mut().zip(&mut self.latency) {
            stats.mean_latency_s = latency.mean().as_secs_f64();
            stats.p99_s = latency.p99().as_secs_f64();
        }
        (self.stats, self.admission_shed)
    }
}
