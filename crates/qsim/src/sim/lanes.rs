//! Query-level resilience (see [`Scenario::resilience`]): the per-query
//! attempt state machine behind timeouts, retries and hedges. An
//! attempt travels as *lanes* (the primary and, once hedged, a
//! duplicate) tagged with the query's generation; bumping it cancels
//! every lane of the attempt lazily, wherever it sits.
//!
//! [`Scenario::resilience`]: crate::Scenario::resilience

use super::{nearest_rank, RES_GEN_MASK};
use crate::router::splitmix64;
use crate::{HedgeDelay, HedgePolicy, ResilienceConfig, ResilienceStats};

/// A query's resolution state: not yet dispatched.
const FRESH: u8 = 0;
/// The query has at least one live lane in flight.
const LIVE: u8 = 1;
/// The query resolved (completed, shed, or timed-out-final); any
/// surviving lanes are carcasses.
const DONE: u8 = 2;

/// Completed-latency reservoir capacity for quantile hedge delays.
const RESERVOIR_CAP: usize = 512;
/// Inserts tolerated before the reservoir's quantile refreshes.
const RESERVOIR_REFRESH: usize = 64;

/// The runtime of an active [`ResilienceConfig`]: per-query lane
/// generations and attempt counts, the retry token bucket, the
/// completed-latency reservoir behind quantile hedge delays, and the
/// run's [`ResilienceStats`].
pub(super) struct ResilienceRt {
    cfg: ResilienceConfig,
    /// Retry tokens left (unused without a budget).
    tokens: f64,
    /// Per-query resolution state (`FRESH`, `LIVE` or `DONE`).
    state: Vec<u8>,
    /// Per-query lane generation: bumped when the query resolves or an
    /// attempt times out.
    gen: Vec<u32>,
    /// Attempts started per query (1 on first dispatch).
    attempts: Vec<u8>,
    /// Whether the current attempt already dispatched its hedge.
    hedged: Vec<bool>,
    /// Slot the query's latest entry-stage lane was placed on — what a
    /// hedge dispatch routes away from (`u32::MAX` = none recorded).
    last_slot: Vec<u32>,
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
    pub(super) stats: ResilienceStats,
}

impl ResilienceRt {
    pub(super) fn new(cfg: &ResilienceConfig, num_queries: usize, seed: u64) -> Self {
        Self {
            cfg: cfg.clone(),
            tokens: cfg.retry.budget.map_or(0.0, |b| b.capacity),
            state: vec![FRESH; num_queries],
            gen: vec![0; num_queries],
            attempts: vec![0; num_queries],
            hedged: vec![false; num_queries],
            last_slot: vec![u32::MAX; num_queries],
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
    /// any other query is a re-arrival (false).
    pub(super) fn start(&mut self, q: usize) -> bool {
        let fresh = self.state[q] == FRESH;
        if fresh {
            self.state[q] = LIVE;
            self.attempts[q] = 1;
        }
        fresh
    }

    /// Whether a lane of generation `gen` (its payload's 19 bits) is
    /// still live: the query is unresolved and the attempt current.
    pub(super) fn is_live(&self, q: usize, gen: u32) -> bool {
        gen == self.gen[q] & RES_GEN_MASK && self.state[q] == LIVE
    }

    /// Whether a timer armed under generation `gen` still guards the
    /// live attempt of `q`.
    pub(super) fn attempt_live(&self, q: usize, gen: u32) -> bool {
        gen == self.gen[q] && self.state[q] == LIVE
    }

    /// Whether a hedge armed under `gen` is due: its attempt is live and
    /// not hedged yet.
    pub(super) fn hedge_due(&self, q: usize, gen: u32) -> bool {
        self.attempt_live(q, gen) && !self.hedged[q]
    }

    /// The timers of an attempt of `q` starting at `start`: its
    /// generation, and when its timeout and its hedge fire.
    pub(super) fn timers(&mut self, start: f64, q: usize) -> (u32, Option<f64>, Option<f64>) {
        let hedge_at = self.hedge_delay().map(|d| start + d);
        (self.gen[q], self.cfg.timeout_s.map(|t| start + t), hedge_at)
    }

    /// A live attempt's timeout fired at `now`: the generation bump
    /// cancels both of its lanes, and the retry policy picks between a
    /// backed-off retry — its start time and generation — and resolving
    /// the query timed-out-final (`None`).
    pub(super) fn on_timeout(&mut self, now: f64, q: usize) -> Option<(f64, u32)> {
        self.stats.timeouts += 1;
        self.gen[q] = self.gen[q].wrapping_add(1);
        let retry = &self.cfg.retry;
        let attempts = self.attempts[q] as usize;
        let can_retry = attempts < retry.max_attempts;
        if !can_retry || (retry.budget.is_some() && self.tokens < 1.0) {
            if can_retry {
                self.stats.retries_denied += 1;
            }
            self.state[q] = DONE;
            self.stats.timed_out += 1;
            return None;
        }
        if retry.budget.is_some() {
            self.tokens -= 1.0;
        }
        self.attempts[q] += 1;
        self.hedged[q] = false;
        // `attempts` is also the 1-based number of this retry.
        self.stats.retries[attempts - 1] += 1;
        let mut delay = retry.backoff_s(attempts);
        if retry.jitter_frac > 0.0 {
            let u = (splitmix64(&mut self.rng) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            delay *= 1.0 + retry.jitter_frac * u;
        }
        Some((now + delay, self.gen[q]))
    }

    /// Issues the hedge of `q`'s current attempt; returns the slot it
    /// should route away from, if one was recorded.
    pub(super) fn on_hedge(&mut self, q: usize) -> Option<usize> {
        self.hedged[q] = true;
        self.stats.hedges_issued += 1;
        let slot = self.last_slot[q];
        (slot != u32::MAX).then_some(slot as usize)
    }

    /// Records the slot a lane of `q` entered the pipeline on (either
    /// lane may record; the next reader is the next attempt, which
    /// rewrites it).
    pub(super) fn placed(&mut self, q: usize, slot: usize) {
        self.last_slot[q] = slot as u32;
    }

    /// A live lane of `q` finished the last stage after `latency_s`:
    /// the query resolves, cancelling its twin lane wherever it is.
    pub(super) fn resolve(&mut self, q: usize, hedge: bool, latency_s: f64) {
        self.gen[q] = self.gen[q].wrapping_add(1);
        self.state[q] = DONE;
        if hedge {
            self.stats.hedges_won += 1;
        }
        if let Some(budget) = self.cfg.retry.budget {
            self.tokens = (self.tokens + budget.refill_per_success).min(budget.capacity);
        }
        self.push_sample(latency_s);
    }

    /// Queries still live when the event stream ran dry — the
    /// end-of-run sweep counts them shed.
    pub(super) fn unresolved(&self) -> usize {
        self.state.iter().filter(|&&s| s == LIVE).count()
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
