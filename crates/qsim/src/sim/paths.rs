//! Multi-path serving (see [`Scenario::multipath`]): the admission seam
//! and per-path accounting. Every path's stages sit contiguously in one
//! concatenated spec, so the loop serves a path like any pipeline; this
//! runtime picks the path a fresh query enters and keeps each path's
//! [`Ledger`] of admissions and fates.
//!
//! [`Scenario::multipath`]: crate::Scenario::multipath

use recpipe_metrics::LatencyStats;

use super::window::{QueryWindow, UNASSIGNED};
use super::{Fate, Gauges, Ledger};
use crate::{
    Admission, AdmissionCtx, AdmissionPolicy, AdmissionState, PathProfile, PathSet, PathStats,
    WindowStats,
};

/// The multi-path runtime: the admission policy and its state, the
/// path layout, and per-path ledgers and latencies. A query's admitted
/// path is its [`QueryWindow`] record's `path`.
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
    names: Vec<String>,
    /// Per-path admissions (as `arrivals`) and fates; shed counts
    /// losses after admission, not admission rejections.
    pub(super) ledgers: Vec<Ledger>,
    /// Per-path post-warmup latency collectors.
    latency: Vec<LatencyStats>,
    /// Queries rejected at admission (before any path).
    admission_shed: usize,
    /// Largest single-path fully-batched capacity — the saturation
    /// test's rate bound (the concatenated spec's own figure sums every
    /// path's load as if all were always taken, which is meaningless).
    pub(super) max_full_batch_qps: f64,
}

impl<'a> MultipathRt<'a> {
    pub(super) fn new(paths: &PathSet, admission: &'a dyn AdmissionPolicy, seed: u64) -> Self {
        let n = paths.num_paths();
        let profiles = paths.profiles();
        let max_full_batch_qps = profiles
            .iter()
            .map(|p| p.max_qps_full_batch)
            .fold(0.0, f64::max);
        Self {
            admission,
            profiles,
            entry: (0..n).map(|p| paths.entry(p)).collect(),
            last_of_path: paths.last_of_path(),
            // A distinct splitmix lane per run seed: decorrelated from
            // every router's per-group stream (those mix the group
            // index) while staying a pure function of the seed.
            state: AdmissionState::new(seed ^ 0xa076_1d64_78bd_642f),
            names: paths.names().to_vec(),
            ledgers: vec![Ledger::default(); n],
            latency: (0..n).map(|_| LatencyStats::new()).collect(),
            admission_shed: 0,
            max_full_batch_qps,
        }
    }

    /// Runs the admission decision for a stage-0 arrival of `query`:
    /// returns the admitted path's first stage, or `None` when the query
    /// was shed. An already-admitted query (a retry or hedge lane, or a
    /// requeue or parked flush of a path-0 query) re-enters its own
    /// path's first stage without a second decision.
    pub(super) fn admit(
        &mut self,
        now: f64,
        w: &mut QueryWindow,
        query: usize,
        gauges: Gauges,
        window: Option<&WindowStats>,
    ) -> Option<usize> {
        let rec = w.rec_mut(query);
        if rec.path != UNASSIGNED {
            return Some(self.entry[rec.path as usize]);
        }
        // Admitted-but-unresolved queries: the concurrency signal
        // admission policies threshold on.
        let in_system = self.ledgers.iter().map(|l| l.arrivals - l.resolved()).sum();
        let ctx = AdmissionCtx {
            now,
            query,
            in_system,
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
                self.ledgers[p].arrivals += 1;
                Some(self.entry[p])
            }
            Admission::Shed => {
                self.admission_shed += 1;
                None
            }
        }
    }

    /// Counts a query of `path` resolving as `fate` on the path's
    /// ledger, recording a `warm` completion's latency. A query shed at
    /// admission has no path.
    pub(super) fn count(&mut self, path: u8, fate: Fate, warm: bool) {
        let p = path as usize;
        let Some(ledger) = self.ledgers.get_mut(p) else {
            debug_assert!(path == UNASSIGNED && matches!(fate, Fate::Shed));
            return;
        };
        ledger.count(fate);
        if let (Fate::Completed(latency_s), true) = (fate, warm) {
            self.latency[p].record_secs(latency_s);
        }
    }

    /// The run's per-path outcomes and its admission sheds.
    pub(super) fn into_stats(self) -> (Vec<PathStats>, usize) {
        let per_path =
            (self.names.into_iter().zip(&self.profiles)).zip(self.ledgers.iter().zip(self.latency));
        let stats = per_path
            .map(|((name, profile), (l, mut latency))| PathStats {
                name,
                quality: profile.quality,
                admitted: l.arrivals,
                completed: l.completed,
                shed: l.shed,
                dropped: l.dropped,
                timed_out: l.timed_out,
                mean_latency_s: latency.mean().as_secs_f64(),
                p99_s: latency.p99().as_secs_f64(),
            })
            .collect();
        (stats, self.admission_shed)
    }
}
