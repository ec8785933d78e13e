//! Query-level resilience (see [`Scenario::resilience`]): the per-query
//! attempt state machine behind timeouts, retries and hedges. An
//! attempt travels as *lanes* (the primary and, once hedged, a
//! duplicate) tagged with the query's generation; bumping it cancels
//! every lane of the attempt lazily, wherever it sits. A query's lane
//! fields live in its [`QueryWindow`] record: a query is live once its
//! first attempt starts, and resolved once its record retires, which
//! turns any surviving lane into a carcass.
//!
//! [`Scenario::resilience`]: crate::Scenario::resilience

use super::nearest_rank;
use super::window::{QueryRec, QueryWindow, NO_SLOT};
use crate::resilience::HedgeDelay;
use crate::router::splitmix64;
use crate::{HedgePolicy, ResilienceConfig, ResilienceStats};

/// Completed-latency reservoir capacity for quantile hedge delays.
const RESERVOIR_CAP: usize = 512;
/// Inserts tolerated before the reservoir's quantile refreshes.
const RESERVOIR_REFRESH: usize = 64;

/// A started query's lane generation. Only a timeout bumps it, and a
/// timeout either retries, starting one more attempt, or resolves the
/// query, so it is the query's attempts less one.
fn attempt_gen(rec: &QueryRec) -> u32 {
    u32::from(rec.attempts) - 1
}

/// The runtime of an active [`ResilienceConfig`]: the attempt state
/// machine over the window's lane fields (attempts, hedge flag, entry
/// slot), the retry token bucket, the completed-latency
/// reservoir behind quantile hedge delays, and the run's
/// [`ResilienceStats`].
pub(super) struct ResilienceRt {
    cfg: ResilienceConfig,
    /// Retry tokens left (unused without a budget).
    tokens: f64,
    /// Dedicated splitmix lane for backoff jitter (decorrelated from
    /// router and admission streams).
    rng: u64,
    /// Completed-latency reservoir feeding quantile hedge delays: a
    /// fixed ring overwritten round-robin past capacity.
    samples: Vec<f64>,
    /// The reservoir's quantile, selected on the copy `selected` (so
    /// the ring keeps its order) and cached until the next refresh:
    /// whenever the reservoir grew, and at most every
    /// [`RESERVOIR_REFRESH`] inserts once full.
    quantile: f64,
    selected: Vec<f64>,
    sample_writes: usize,
    sample_dirty: usize,
    /// The run's stats but `timeouts` and `timed_out`, which `Sim`
    /// fills in from its ledger at the end.
    pub(super) stats: ResilienceStats,
}

impl ResilienceRt {
    pub(super) fn new(cfg: &ResilienceConfig, seed: u64) -> Self {
        Self {
            cfg: cfg.clone(),
            tokens: cfg.retry.budget.map_or(0.0, |b| b.capacity),
            // A distinct splitmix lane per run seed, decorrelated from
            // the router/admission streams by a different xor constant.
            rng: seed ^ 0xd6e8_feb8_6659_fd93,
            samples: Vec::new(),
            quantile: 0.0,
            selected: Vec::new(),
            sample_writes: 0,
            sample_dirty: 0,
            stats: ResilienceStats {
                retries: vec![0; cfg.retry.max_attempts - 1],
                ..ResilienceStats::default()
            },
        }
    }

    /// First dispatch: a fresh query goes live with attempt 1 (true);
    /// any other query is a re-arrival (false). A retired query is
    /// resolved, not fresh, and its record stays retired.
    pub(super) fn start(&mut self, w: &mut QueryWindow, q: usize) -> bool {
        match w.get_mut(q) {
            Some(rec) if rec.attempts == 0 => {
                rec.attempts = 1;
                true
            }
            _ => false,
        }
    }

    /// Whether generation `gen` — a lane's or a timer's — is still the
    /// live attempt of `q`: the query is unresolved and the attempt
    /// current.
    pub(super) fn is_live(&self, w: &QueryWindow, q: usize, gen: u32) -> bool {
        w.get(q)
            .is_some_and(|rec| rec.attempts > 0 && gen == attempt_gen(rec))
    }

    /// Whether a hedge armed under `gen` is due: its attempt is live and
    /// not hedged yet.
    pub(super) fn hedge_due(&self, w: &QueryWindow, q: usize, gen: u32) -> bool {
        self.is_live(w, q, gen) && !w.rec(q).hedged
    }

    /// The timers of an attempt of `q` starting at `start`: its
    /// generation, and when its timeout and its hedge fire.
    pub(super) fn timers(
        &mut self,
        start: f64,
        w: &QueryWindow,
        q: usize,
    ) -> (u32, Option<f64>, Option<f64>) {
        let timeout_at = self.cfg.timeout_s.map(|t| start + t);
        let hedge_at = self.hedge_delay().map(|d| start + d);
        (attempt_gen(w.rec(q)), timeout_at, hedge_at)
    }

    /// A live attempt's timeout fired at `now`: the retry policy picks
    /// between a backed-off retry — its start time and generation, whose
    /// bump cancels both lanes of the timed-out attempt — and resolving
    /// the query timed-out-final (`None`; the caller retires its record).
    pub(super) fn on_timeout(
        &mut self,
        now: f64,
        w: &mut QueryWindow,
        q: usize,
    ) -> Option<(f64, u32)> {
        let rec = w.rec_mut(q);
        let retry = &self.cfg.retry;
        let attempts = rec.attempts as usize;
        let can_retry = attempts < retry.max_attempts;
        if !can_retry || (retry.budget.is_some() && self.tokens < 1.0) {
            if can_retry {
                self.stats.retries_denied += 1;
            }
            return None;
        }
        if retry.budget.is_some() {
            self.tokens -= 1.0;
        }
        rec.attempts += 1;
        rec.hedged = false;
        // `attempts` is also the 1-based number of this retry.
        self.stats.retries[attempts - 1] += 1;
        let mut delay = retry.backoff_s(attempts);
        if retry.jitter_frac > 0.0 {
            let u = (splitmix64(&mut self.rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            delay *= 1.0 + retry.jitter_frac * u;
        }
        Some((now + delay, attempt_gen(rec)))
    }

    /// Issues the hedge of `q`'s current attempt; returns the slot it
    /// should route away from, if one was recorded.
    pub(super) fn on_hedge(&mut self, w: &mut QueryWindow, q: usize) -> Option<usize> {
        let rec = w.rec_mut(q);
        rec.hedged = true;
        self.stats.hedges_issued += 1;
        (rec.last_slot != NO_SLOT).then_some(rec.last_slot as usize)
    }

    /// Records the slot a lane of `q` entered the pipeline on (either
    /// lane may record; the next reader is the next attempt, which
    /// rewrites it).
    pub(super) fn placed(&mut self, w: &mut QueryWindow, q: usize, slot: usize) {
        w.rec_mut(q).last_slot = slot as u32;
    }

    /// A live lane finished the last stage after `latency_s`: the query
    /// resolves, and the caller retires its record, which cancels its
    /// twin lane wherever it is.
    pub(super) fn resolve(&mut self, hedge: bool, latency_s: f64) {
        if hedge {
            self.stats.hedges_won += 1;
        }
        if let Some(budget) = self.cfg.retry.budget {
            self.tokens = (self.tokens + budget.refill_per_success).min(budget.capacity);
        }
        self.push_sample(latency_s);
    }

    /// Records a completed query's latency into the hedge reservoir
    /// (no-op unless a quantile delay needs it).
    fn push_sample(&mut self, latency_s: f64) {
        if !matches!(
            self.cfg.hedge.map(|h| h.delay),
            Some(HedgeDelay::Quantile(_))
        ) {
            return;
        }
        if self.samples.len() < RESERVOIR_CAP {
            self.samples.push(latency_s);
        } else {
            self.samples[self.sample_writes % RESERVOIR_CAP] = latency_s;
        }
        self.sample_writes += 1;
        self.sample_dirty += 1;
    }

    /// The hedge delay for an attempt starting now: the fixed delay, or
    /// the reservoir's current quantile (None until
    /// [`HedgePolicy::MIN_QUANTILE_SAMPLES`] completions have been
    /// observed — early hedging off a handful of samples would be
    /// noise).
    fn hedge_delay(&mut self) -> Option<f64> {
        match self.cfg.hedge?.delay {
            HedgeDelay::Fixed(d) => Some(d),
            HedgeDelay::Quantile(q) => {
                if self.sample_writes < HedgePolicy::MIN_QUANTILE_SAMPLES {
                    return None;
                }
                if self.sample_dirty >= RESERVOIR_REFRESH
                    || self.selected.len() != self.samples.len()
                {
                    self.selected.clone_from(&self.samples);
                    self.quantile = nearest_rank(&mut self.selected, q);
                    self.sample_dirty = 0;
                }
                Some(self.quantile)
            }
        }
    }
}
