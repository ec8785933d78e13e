//! Query-level resilience: per-attempt timeouts, retry budgets with
//! exponential backoff, hedged requests, and correlated fault plans.
//!
//! The lifecycle module (PR 6) models replicas that are either healthy
//! or dead. Production fleets also produce the modes in between: a
//! limping box that keeps accepting work at a tenth of its profile
//! speed (gray failure / limpware), a query stuck behind it, and the
//! retry storm that turns one slow replica into fleet-wide congestion
//! collapse. This module supplies the client-side vocabulary the
//! simulator speaks when a [`ResilienceConfig`] is attached to a run
//! ([`Scenario::resilience`](crate::Scenario::resilience)):
//!
//! * [`ResilienceConfig`] — a per-attempt timeout, a [`RetryPolicy`]
//!   consulted when it fires, and an optional [`HedgePolicy`];
//! * [`RetryPolicy`] — attempt cap, exponential backoff with seeded
//!   jitter, and a global [`RetryBudget`] (token bucket refilled by
//!   successes) that provably bounds retry amplification;
//! * [`HedgePolicy`] — after a fixed or quantile-derived delay,
//!   dispatch a duplicate attempt to a *different* replica;
//!   first completion wins, the loser is cancelled lazily;
//! * [`ResilienceStats`] — timeouts fired, retries by attempt, hedges
//!   issued/won, wasted service seconds — reported through
//!   [`SimResult::resilience`](crate::SimResult::resilience);
//! * [`FaultPlan`] — seeded, correlated fail-stop/degrade bursts
//!   expanded into a [`LifecycleSchedule`], the injection side of the
//!   same story.
//!
//! An inert config (no timeout, no hedge) arms nothing, draws no
//! randomness, and leaves the event loop bit-identical to the
//! lifecycle-only run — pinned by proptest.

use crate::lifecycle::{LifecycleEvent, LifecycleSchedule};
use crate::router::splitmix64;

/// Retry discipline consulted when a per-attempt timeout fires.
///
/// The default policy ([`RetryPolicy::none`]) allows a single attempt:
/// the first timeout is final. [`RetryPolicy::new`] raises the attempt
/// cap and configures exponential backoff; [`with_budget`] adds the
/// global token bucket that keeps retries from amplifying overload
/// into congestion collapse. The fields are set only through the
/// builders, which check their ranges:
///
/// ```compile_fail
/// let _ = recpipe_qsim::RetryPolicy {
///     max_attempts: 0,
///     backoff_base_s: 0.0,
///     backoff_factor: 1.0,
///     backoff_max_s: 0.0,
///     jitter_frac: 0.0,
///     budget: None,
/// };
/// ```
///
/// [`with_budget`]: Self::with_budget
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per query, including the first (≥ 1).
    pub(crate) max_attempts: usize,
    /// Backoff before retry `k` (1-based) is
    /// `min(base · factor^(k-1), max)`, stretched by up to
    /// `jitter_frac` with seeded uniform jitter.
    pub(crate) backoff_base_s: f64,
    /// Multiplier applied per successive retry (≥ 1).
    pub(crate) backoff_factor: f64,
    /// Upper bound on the un-jittered backoff delay in seconds.
    pub(crate) backoff_max_s: f64,
    /// Jitter fraction in `[0, 1]`: the delay is multiplied by
    /// `1 + jitter_frac · u` with `u` uniform in `[0, 1)` from a
    /// dedicated seeded stream. Zero keeps backoff deterministic
    /// per-attempt.
    pub(crate) jitter_frac: f64,
    /// Global retry budget; `None` allows unbounded retries (up to the
    /// attempt cap) — the storm-prone configuration the budget exists
    /// to beat.
    pub(crate) budget: Option<RetryBudget>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

impl RetryPolicy {
    /// No retries: one attempt per query, the first final timeout
    /// resolves it.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            backoff_base_s: 0.0,
            backoff_factor: 1.0,
            backoff_max_s: 0.0,
            jitter_frac: 0.0,
            budget: None,
        }
    }

    /// Up to `max_attempts` total attempts with exponential backoff
    /// `min(base · factor^(k-1), max)` before retry `k`.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts == 0`, any duration is negative or
    /// non-finite, or `factor < 1`.
    pub fn new(max_attempts: usize, backoff_base_s: f64, backoff_factor: f64) -> Self {
        assert!(
            max_attempts > 0,
            "retry policy must allow at least one attempt"
        );
        assert!(
            backoff_base_s.is_finite() && backoff_base_s >= 0.0,
            "backoff base must be non-negative and finite"
        );
        assert!(
            backoff_factor.is_finite() && backoff_factor >= 1.0,
            "backoff factor must be at least 1"
        );
        Self {
            max_attempts,
            backoff_base_s,
            backoff_factor,
            backoff_max_s: f64::INFINITY,
            jitter_frac: 0.0,
            budget: None,
        }
    }

    /// Caps the un-jittered backoff delay.
    ///
    /// # Panics
    ///
    /// Panics if `backoff_max_s` is negative or NaN (infinity — no
    /// cap — is allowed).
    pub fn with_backoff_cap(mut self, backoff_max_s: f64) -> Self {
        assert!(
            !backoff_max_s.is_nan() && backoff_max_s >= 0.0,
            "backoff cap must be non-negative"
        );
        self.backoff_max_s = backoff_max_s;
        self
    }

    /// Sets the seeded-jitter fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `jitter_frac` is in `[0, 1]`.
    pub fn with_jitter(mut self, jitter_frac: f64) -> Self {
        assert!(
            jitter_frac.is_finite() && (0.0..=1.0).contains(&jitter_frac),
            "jitter fraction must be in [0, 1]"
        );
        self.jitter_frac = jitter_frac;
        self
    }

    /// Attaches a global [`RetryBudget`].
    pub fn with_budget(mut self, budget: RetryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Total attempts allowed per query, including the first.
    pub fn max_attempts(&self) -> usize {
        self.max_attempts
    }

    /// The un-jittered backoff before retry `retry_index` (1-based:
    /// the first retry is 1).
    pub fn backoff_s(&self, retry_index: usize) -> f64 {
        debug_assert!(retry_index >= 1);
        let raw = self.backoff_base_s * self.backoff_factor.powi(retry_index as i32 - 1);
        raw.min(self.backoff_max_s)
    }
}

/// A global retry token bucket: retries spend one token, successes
/// refill `refill_per_success` (capped at `capacity`).
///
/// With a refill of `r`, long-run retries are bounded by `r` per
/// success plus the initial `capacity` — the classic "retries may not
/// exceed 10% of successes" guarantee (`r = 0.1`) that prevents a
/// timeout burst from amplifying into a self-sustaining retry storm:
/// once the bucket drains, timed-out queries resolve as final instead
/// of re-entering an already-saturated fleet. Built only by
/// [`new`](Self::new), which checks both values:
///
/// ```compile_fail
/// let _ = recpipe_qsim::RetryBudget { capacity: 0.5, refill_per_success: 0.1 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudget {
    /// Token capacity (also the initial fill, ≥ 1).
    pub(crate) capacity: f64,
    /// Tokens refunded per successful completion.
    pub(crate) refill_per_success: f64,
}

impl RetryBudget {
    /// A budget of `capacity` tokens refilled by `refill_per_success`
    /// per completion.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity ≥ 1` and `refill_per_success` is in
    /// `[0, 1]`, both finite.
    pub fn new(capacity: f64, refill_per_success: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity >= 1.0,
            "retry budget capacity must be at least 1"
        );
        assert!(
            refill_per_success.is_finite() && (0.0..=1.0).contains(&refill_per_success),
            "retry budget refill must be in [0, 1]"
        );
        Self {
            capacity,
            refill_per_success,
        }
    }
}

/// When to dispatch a hedge (duplicate attempt), measured from the
/// attempt's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum HedgeDelay {
    /// A fixed number of seconds ([`HedgePolicy::after`]).
    Fixed(f64),
    /// A running latency quantile ([`HedgePolicy::at_quantile`]).
    Quantile(f64),
}

/// Hedged-request discipline: after a fixed
/// ([`after`](Self::after)) or quantile-derived
/// ([`at_quantile`](Self::at_quantile)) delay, dispatch one
/// duplicate of the outstanding attempt, routed to a *different*
/// replica whenever the group has one; first completion wins and the
/// loser is cancelled lazily. Nothing is purged: the losing lane stays
/// in its queue or batch as a carcass, is served like a live lane, and
/// is discarded when it leaves that stage, its service charged to
/// [`wasted_service_s`](ResilienceStats::wasted_service_s).
///
/// At most one hedge is issued per attempt — retries re-arm the hedge
/// clock. Built only by those two constructors, which check the delay:
///
/// ```compile_fail
/// use recpipe_qsim::{HedgeDelay, HedgePolicy};
/// let _ = HedgePolicy { delay: HedgeDelay::Quantile(1.0) };
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// When the hedge fires, measured from the attempt's start.
    pub(crate) delay: HedgeDelay,
}

impl HedgePolicy {
    /// Completions observed before a quantile-derived delay activates.
    pub const MIN_QUANTILE_SAMPLES: usize = 32;

    /// Hedge a fixed `delay_s` after each attempt starts.
    ///
    /// # Panics
    ///
    /// Panics if `delay_s` is negative or non-finite.
    pub fn after(delay_s: f64) -> Self {
        assert!(
            delay_s.is_finite() && delay_s >= 0.0,
            "hedge delay must be non-negative and finite"
        );
        Self {
            delay: HedgeDelay::Fixed(delay_s),
        }
    }

    /// Hedge once an attempt outlives the running `q`-quantile of
    /// completion latency (the classic "hedge past p95" discipline).
    /// Until [`MIN_QUANTILE_SAMPLES`](Self::MIN_QUANTILE_SAMPLES)
    /// completions have been observed no hedges are issued — the
    /// estimate would be noise.
    ///
    /// The delay for `q` is the `⌈n·q⌉`-th smallest of the last
    /// `n ≤ 512` completed queries' end-to-end latencies, read when an
    /// attempt starts. While the window fills, every completion
    /// refreshes it; once full, it refreshes at most every 64
    /// completions, so the delay can lag up to 63 completions behind.
    ///
    /// # Panics
    ///
    /// Panics unless `q` is in `(0, 1)`.
    pub fn at_quantile(q: f64) -> Self {
        assert!(
            q.is_finite() && q > 0.0 && q < 1.0,
            "hedge quantile must be in (0, 1)"
        );
        Self {
            delay: HedgeDelay::Quantile(q),
        }
    }
}

/// Per-run resilience options attached by
/// [`Scenario::resilience`](crate::Scenario::resilience): a per-attempt
/// timeout, the [`RetryPolicy`] consulted when it fires, and an optional
/// [`HedgePolicy`]. The default ([`ResilienceConfig::new`]) is inert —
/// no timeout, no hedge — and leaves the event loop bit-identical to
/// the lifecycle-only run. The fields are set only through the
/// builders, which check their ranges:
///
/// ```compile_fail
/// use recpipe_qsim::{ResilienceConfig, RetryPolicy};
/// let _ = ResilienceConfig {
///     timeout_s: Some(0.0),
///     retry: RetryPolicy::none(),
///     hedge: None,
/// };
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceConfig {
    /// Per-attempt timeout in seconds; `None` never times out.
    pub(crate) timeout_s: Option<f64>,
    /// What a fired timeout does next.
    pub(crate) retry: RetryPolicy,
    /// Hedged-request discipline; `None` never hedges.
    pub(crate) hedge: Option<HedgePolicy>,
}

impl ResilienceConfig {
    /// The inert configuration: no timeout, no retries, no hedging.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a per-attempt timeout.
    ///
    /// # Panics
    ///
    /// Panics unless `timeout_s` is strictly positive and finite.
    pub fn with_timeout(mut self, timeout_s: f64) -> Self {
        assert!(
            timeout_s.is_finite() && timeout_s > 0.0,
            "timeout must be positive and finite"
        );
        self.timeout_s = Some(timeout_s);
        self
    }

    /// Sets the retry policy consulted when a timeout fires.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables hedged requests.
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// Whether this configuration can ever arm an event: an inert
    /// config keeps the loop on the resilience-free fast path.
    pub fn is_inert(&self) -> bool {
        self.timeout_s.is_none() && self.hedge.is_none()
    }
}

/// Client-side resilience telemetry for one run, reported through
/// [`SimResult::resilience`](crate::SimResult::resilience).
///
/// `timeouts` counts fired per-attempt timeouts (a query retried twice
/// contributes up to three), each retried or final, so `timeouts ==
/// total_retries() + timed_out`; `timed_out` counts queries resolved as
/// timed-out-final — the conservation ledger reads
/// `completed + shed + dropped + timed_out == admitted`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceStats {
    /// Per-attempt timeouts fired (including the one that resolves a
    /// query as final).
    pub timeouts: usize,
    /// Queries resolved as timed-out-final.
    pub timed_out: usize,
    /// Retries dispatched, indexed by retry number − 1 (`retries[0]`
    /// counts first retries, i.e. second attempts).
    pub retries: Vec<usize>,
    /// Retries denied by an exhausted [`RetryBudget`]; each denial
    /// resolves its query as timed-out-final.
    pub retries_denied: usize,
    /// Hedges dispatched.
    pub hedges_issued: usize,
    /// Queries whose hedge lane finished before the primary.
    pub hedges_won: usize,
    /// Service seconds consumed by cancelled lanes (hedge losers and
    /// attempts that finished after their query was resolved),
    /// amortized per batch slot.
    pub wasted_service_s: f64,
}

impl ResilienceStats {
    /// Total retries across all attempt indices.
    pub fn total_retries(&self) -> usize {
        self.retries.iter().sum()
    }
}

/// Which fault a [`FaultPlan`] burst injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Kill the chosen replicas outright.
    FailStop,
    /// Degrade the chosen replicas to `speed` × profile (limpware).
    Degrade {
        /// Fraction of profile speed, in `(0, 1]`.
        speed: f64,
    },
}

/// One correlated burst: at `time`, `count` distinct replicas —
/// chosen by the plan's seeded stream — suffer `kind`, and (optionally)
/// all recover together `recover_after_s` later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultBurst {
    /// Injection instant in seconds.
    pub time: f64,
    /// Fail-stop or degrade.
    pub kind: FaultKind,
    /// Distinct replicas hit (clamped to the group size at expansion).
    pub count: usize,
    /// Recovery delay; `None` leaves the fault in place.
    pub recover_after_s: Option<f64>,
}

/// A seeded generator of *correlated* fault injections: bursts that
/// take out or degrade several replicas of one group at once (a rack
/// switch brown-out, a bad kernel rollout), expanded deterministically
/// into the [`LifecycleSchedule`] vocabulary the simulator already
/// speaks.
///
/// The same `(seed, bursts)` pair always expands to the same schedule;
/// different seeds redraw which replicas each burst hits.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    bursts: Vec<FaultBurst>,
}

impl FaultPlan {
    /// An empty plan drawing replica choices from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            bursts: Vec::new(),
        }
    }

    /// Adds a correlated degrade burst: `count` replicas limp at
    /// `speed` × profile from `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is negative or non-finite, `count == 0`, or
    /// `speed` is outside `(0, 1]`.
    pub fn degrade_burst(self, time: f64, count: usize, speed: f64) -> Self {
        self.burst(FaultBurst {
            time,
            kind: FaultKind::Degrade { speed },
            count,
            recover_after_s: None,
        })
    }

    /// Adds one burst with full control (including recovery).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative time or recovery delay, a
    /// zero count, or a degrade speed outside `(0, 1]`.
    pub fn burst(mut self, burst: FaultBurst) -> Self {
        assert!(
            burst.time.is_finite() && burst.time >= 0.0,
            "fault burst time must be non-negative and finite"
        );
        assert!(burst.count > 0, "fault burst must hit at least one replica");
        if let FaultKind::Degrade { speed } = burst.kind {
            assert!(
                speed.is_finite() && speed > 0.0 && speed <= 1.0,
                "degraded speed must be in (0, 1]"
            );
        }
        if let Some(r) = burst.recover_after_s {
            assert!(
                r.is_finite() && r > 0.0,
                "recovery delay must be positive and finite"
            );
        }
        self.bursts.push(burst);
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.bursts.is_empty()
    }

    /// Expands the plan against a group of `replicas` slots into a
    /// time-ordered [`LifecycleSchedule`]. Each burst draws `count`
    /// distinct replica indices (clamped to the group size) from the
    /// plan's splitmix64 stream via a partial Fisher–Yates shuffle, so
    /// co-failure is genuinely correlated: one burst, one instant,
    /// several replicas.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn expand(&self, replicas: usize) -> LifecycleSchedule {
        assert!(
            replicas > 0,
            "cannot expand a fault plan over zero replicas"
        );
        let mut rng = self.seed;
        let mut events: Vec<LifecycleEvent> = Vec::new();
        let mut pool: Vec<usize> = (0..replicas).collect();
        for b in &self.bursts {
            let hit = b.count.min(replicas);
            // Partial Fisher–Yates over the slot pool: the first `hit`
            // entries after shuffling are the burst's victims.
            for i in 0..hit {
                let j = i + (splitmix64(&mut rng) as usize) % (replicas - i);
                pool.swap(i, j);
            }
            let mut victims: Vec<usize> = pool[..hit].to_vec();
            // Deterministic event order within the instant: ascending
            // replica index, independent of the draw order.
            victims.sort_unstable();
            for &r in &victims {
                events.push(match b.kind {
                    FaultKind::FailStop => LifecycleEvent::fail_stop(b.time, r),
                    FaultKind::Degrade { speed } => LifecycleEvent::degrade(b.time, r, speed),
                });
            }
            if let Some(delay) = b.recover_after_s {
                for &r in &victims {
                    events.push(LifecycleEvent::recover(b.time + delay, r));
                }
            }
        }
        events.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite times"));
        LifecycleSchedule::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_panics_with;
    use crate::lifecycle::LifecycleAction;

    #[test]
    fn retry_policy_backoff_is_exponential_and_capped() {
        let p = RetryPolicy::new(4, 0.010, 2.0).with_backoff_cap(0.030);
        assert!((p.backoff_s(1) - 0.010).abs() < 1e-12);
        assert!((p.backoff_s(2) - 0.020).abs() < 1e-12);
        assert!((p.backoff_s(3) - 0.030).abs() < 1e-12); // capped from 0.040
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn inert_config_detects_itself() {
        assert!(ResilienceConfig::new().is_inert());
        assert!(!ResilienceConfig::new().with_timeout(0.1).is_inert());
        assert!(!ResilienceConfig::new()
            .with_hedge(HedgePolicy::after(0.05))
            .is_inert());
        // A retry policy alone cannot fire without a timeout: still
        // inert.
        assert!(ResilienceConfig::new()
            .with_retry(RetryPolicy::new(3, 0.01, 2.0))
            .is_inert());
    }

    #[test]
    fn builders_reject_out_of_range_values() {
        for timeout_s in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let timeout = move || ResilienceConfig::new().with_timeout(timeout_s);
            assert_panics_with("timeout must be positive and finite", timeout);
        }
        for delay_s in [-0.01, f64::NAN] {
            let hedge = move || HedgePolicy::after(delay_s);
            assert_panics_with("hedge delay must be non-negative and finite", hedge);
        }
        for q in [f64::NAN, 0.0, 1.0] {
            let hedge = move || HedgePolicy::at_quantile(q);
            assert_panics_with("hedge quantile must be in (0, 1)", hedge);
        }
        let zero = || RetryPolicy::new(0, 0.01, 2.0);
        assert_panics_with("retry policy must allow at least one attempt", zero);
        for base in [-0.5, f64::NAN] {
            let retry = move || RetryPolicy::new(3, base, 2.0);
            assert_panics_with("backoff base must be non-negative and finite", retry);
        }
        for factor in [0.5, f64::NAN, f64::INFINITY] {
            let retry = move || RetryPolicy::new(3, 0.01, factor);
            assert_panics_with("backoff factor must be at least 1", retry);
        }
        let valid = || RetryPolicy::new(3, 0.01, 2.0);
        for cap in [-1.0, f64::NAN] {
            let retry = move || valid().with_backoff_cap(cap);
            assert_panics_with("backoff cap must be non-negative", retry);
        }
        for jitter in [-5.0, 1.5, f64::NAN] {
            let retry = move || valid().with_jitter(jitter);
            assert_panics_with("jitter fraction must be in [0, 1]", retry);
        }
        for capacity in [0.5, f64::NAN, f64::INFINITY] {
            let budget = move || RetryBudget::new(capacity, 0.1);
            assert_panics_with("retry budget capacity must be at least 1", budget);
        }
        for refill in [-0.1, 1.5, f64::NAN] {
            let budget = move || RetryBudget::new(10.0, refill);
            assert_panics_with("retry budget refill must be in [0, 1]", budget);
        }
    }

    #[test]
    fn stats_sum_retries_across_attempts() {
        let s = ResilienceStats {
            retries: vec![5, 2, 1],
            ..ResilienceStats::default()
        };
        assert_eq!(s.total_retries(), 8);
        assert_eq!(ResilienceStats::default().total_retries(), 0);
    }

    #[test]
    fn fault_plan_expansion_is_deterministic_and_correlated() {
        let plan = FaultPlan::new(7)
            .degrade_burst(1.0, 2, 0.25)
            .burst(FaultBurst {
                time: 2.0,
                kind: FaultKind::FailStop,
                count: 3,
                recover_after_s: Some(0.5),
            });
        let a = plan.expand(8);
        let b = plan.expand(8);
        assert_eq!(a, b, "same seed, same schedule");
        let events = a.events();
        // Burst 1: two degrades at t=1; burst 2: three fail-stops at
        // t=2 and three recoveries at t=2.5.
        assert_eq!(events.len(), 2 + 3 + 3);
        let degrades: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.action, LifecycleAction::Degrade { .. }))
            .collect();
        assert_eq!(degrades.len(), 2);
        assert!(degrades.iter().all(|e| e.time == 1.0), "correlated instant");
        assert!(
            degrades[0].replica < degrades[1].replica,
            "sorted within burst"
        );
        let failed: Vec<usize> = events
            .iter()
            .filter(|e| e.action == LifecycleAction::FailStop)
            .map(|e| e.replica)
            .collect();
        let recovered: Vec<usize> = events
            .iter()
            .filter(|e| e.action == LifecycleAction::Recover)
            .map(|e| e.replica)
            .collect();
        assert_eq!(failed, recovered, "the burst's victims recover together");
        // A different seed redraws the victims somewhere in the space.
        let other = FaultPlan::new(8).degrade_burst(1.0, 2, 0.25).expand(8);
        assert_eq!(other.events().len(), 2);
    }

    #[test]
    fn fault_plan_burst_count_clamps_to_group_size() {
        let plan = FaultPlan::new(3).degrade_burst(1.0, 10, 0.5);
        let schedule = plan.expand(2);
        assert_eq!(schedule.events().len(), 2);
        let hit: Vec<usize> = schedule.events().iter().map(|e| e.replica).collect();
        assert_eq!(hit, vec![0, 1], "every replica hit exactly once");
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_burst_is_rejected() {
        let _ = FaultPlan::new(0).degrade_burst(1.0, 0, 0.5);
    }
}
