//! Replica lifecycle events, failure policies, and the autoscaling
//! seam — the availability dimension of at-scale serving.
//!
//! Steady-state sweeps assume a fixed, always-healthy fleet. Production
//! fleets are not: machines warm up, drain for maintenance, fail
//! mid-batch, and resize with the diurnal load. This module supplies
//! the vocabulary the simulator speaks:
//!
//! * [`LifecycleEvent`] — a timed [`LifecycleAction`] against one
//!   replica of a group (provision with warm-up, drain, fail-stop,
//!   recover, degrade), attached to a [`ReplicaGroup`] as a
//!   [`LifecycleSchedule`] and injected into the event loop as ordinary
//!   timed simulator events;
//! * [`FailurePolicy`] — what happens to a failed replica's queued and
//!   in-flight queries (requeue through the router, or shed);
//! * [`SimError::NoAvailableReplica`] — the typed all-replicas-down
//!   error surfaced when a query cannot be routed and no revival is
//!   pending;
//! * [`WindowStats`] — per-window telemetry (p99, queue depth,
//!   utilization, cost) driving feedback controllers;
//! * [`FleetController`] — the closed-loop resize seam: consulted at
//!   every window boundary with the closing window's stats, it returns
//!   the replica count the fleet should converge to. Scale-ups
//!   provision Down replicas through warm-up; scale-downs drain — they
//!   never kill live work.
//!
//! The replica state machine is `warming → up → draining → down` (plus
//! the fail-stop edge from any live state straight to down); see
//! ARCHITECTURE.md for the full transition table and the determinism
//! policy for same-instant event ordering.
//!
//! [`ReplicaGroup`]: crate::ReplicaGroup
//! [`SimError::NoAvailableReplica`]: crate::SimError::NoAvailableReplica

/// What happens to one replica at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifecycleAction {
    /// Bring a down replica up through a warm-up phase: for `warmup_s`
    /// seconds the replica serves at a reduced speed (see
    /// [`LifecycleConfig::with_warmup_speed`]) before reaching its profile
    /// speed. A zero warm-up is an instant bring-up.
    Provision {
        /// Warm-up duration in seconds.
        warmup_s: f64,
    },
    /// Stop routing new work to the replica; queued and in-flight
    /// batches finish, then the replica goes down. Scale-down never
    /// kills live work.
    Drain,
    /// Kill the replica mid-batch: its in-flight and queued queries are
    /// requeued through the router or shed per the run's
    /// [`FailurePolicy`], and the replica goes down immediately.
    FailStop,
    /// Instant bring-up of a down replica (a [`Provision`] with zero
    /// warm-up) — the recovery edge after a fail-stop. Applied to a
    /// *degraded* live replica it restores profile speed instead (the
    /// limpware repair edge).
    ///
    /// [`Provision`]: LifecycleAction::Provision
    Recover,
    /// Gray failure (limpware): the replica keeps accepting work but
    /// serves at `speed` times its profile speed. Unlike a fail-stop or
    /// drain it stays routable, so availability masking cannot see it —
    /// only latency-sensitive mechanisms (hedging, timeouts, the
    /// expected-wait estimator) can route around it. A later
    /// [`Recover`](LifecycleAction::Recover) restores profile speed.
    Degrade {
        /// Fraction of profile speed the limping replica serves at,
        /// in `(0, 1]`.
        speed: f64,
    },
}

/// One timed lifecycle action against one replica of a group, built
/// by the constructors below, which check the time and the action.
///
/// ```compile_fail
/// use recpipe_qsim::{LifecycleAction, LifecycleEvent};
/// let _ = LifecycleEvent {
///     time: 0.0,
///     replica: 0,
///     action: LifecycleAction::Degrade { speed: f64::NAN },
/// };
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleEvent {
    /// Absolute simulation time in seconds.
    pub(crate) time: f64,
    /// Replica index within the owning group.
    pub(crate) replica: usize,
    /// The action applied at `time`.
    pub(crate) action: LifecycleAction,
}

impl LifecycleEvent {
    fn validated(time: f64, replica: usize, action: LifecycleAction) -> Self {
        assert!(
            time.is_finite() && time >= 0.0,
            "lifecycle event time must be non-negative and finite"
        );
        if let LifecycleAction::Provision { warmup_s } = action {
            assert!(
                warmup_s.is_finite() && warmup_s >= 0.0,
                "warm-up duration must be non-negative and finite"
            );
        }
        if let LifecycleAction::Degrade { speed } = action {
            assert!(
                speed.is_finite() && speed > 0.0 && speed <= 1.0,
                "degraded speed must be in (0, 1]"
            );
        }
        Self {
            time,
            replica,
            action,
        }
    }

    /// A provision event with the given warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `time` or `warmup_s` is negative or non-finite — the
    /// panic-on-construction policy every qsim constructor follows.
    pub fn provision(time: f64, replica: usize, warmup_s: f64) -> Self {
        Self::validated(time, replica, LifecycleAction::Provision { warmup_s })
    }

    /// A drain event.
    ///
    /// # Panics
    ///
    /// Panics if `time` is negative or non-finite.
    pub fn drain(time: f64, replica: usize) -> Self {
        Self::validated(time, replica, LifecycleAction::Drain)
    }

    /// A fail-stop event.
    ///
    /// # Panics
    ///
    /// Panics if `time` is negative or non-finite.
    pub fn fail_stop(time: f64, replica: usize) -> Self {
        Self::validated(time, replica, LifecycleAction::FailStop)
    }

    /// A recovery event.
    ///
    /// # Panics
    ///
    /// Panics if `time` is negative or non-finite.
    pub fn recover(time: f64, replica: usize) -> Self {
        Self::validated(time, replica, LifecycleAction::Recover)
    }

    /// A gray-failure (limpware) event: the replica keeps serving at
    /// `speed` times its profile speed until recovered.
    ///
    /// # Panics
    ///
    /// Panics if `time` is negative or non-finite, or `speed` is
    /// outside `(0, 1]` (a limping replica cannot outrun its profile;
    /// a stopped one is a [`fail_stop`](Self::fail_stop)).
    pub fn degrade(time: f64, replica: usize, speed: f64) -> Self {
        Self::validated(time, replica, LifecycleAction::Degrade { speed })
    }

    /// Whether this event can bring a down replica back
    /// ([`Provision`](LifecycleAction::Provision) or
    /// [`Recover`](LifecycleAction::Recover)) — the signal the
    /// simulator uses to park, rather than fail, unroutable queries.
    pub fn revives(&self) -> bool {
        matches!(
            self.action,
            LifecycleAction::Provision { .. } | LifecycleAction::Recover
        )
    }
}

/// A time-ordered stream of [`LifecycleEvent`]s for one replica group.
///
/// # Validation policy
///
/// [`new`](Self::new) panics on a non-monotone schedule; each event
/// checked its own time and action when it was built. Replica indices
/// are validated against the owning group by
/// [`ReplicaGroup::with_lifecycle`](crate::ReplicaGroup::with_lifecycle).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LifecycleSchedule {
    events: Vec<LifecycleEvent>,
}

impl LifecycleSchedule {
    /// A schedule with no events — the inert default every group
    /// carries; runs with only empty schedules are bit-identical to
    /// lifecycle-free serving.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Creates a schedule from time-ordered events.
    ///
    /// # Panics
    ///
    /// Panics if event times decrease.
    pub fn new(events: Vec<LifecycleEvent>) -> Self {
        for w in events.windows(2) {
            assert!(
                w[1].time >= w[0].time,
                "lifecycle schedule times must be non-decreasing"
            );
        }
        Self { events }
    }

    /// Appends one event, which must not precede the last.
    ///
    /// # Panics
    ///
    /// Panics if `event` precedes the last event.
    pub fn with_event(mut self, event: LifecycleEvent) -> Self {
        if let Some(last) = self.events.last() {
            assert!(
                event.time >= last.time,
                "lifecycle schedule times must be non-decreasing"
            );
        }
        self.events.push(event);
        self
    }

    /// The events in schedule order.
    pub fn events(&self) -> &[LifecycleEvent] {
        &self.events
    }

    /// Whether the schedule holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// What happens to queries stranded by a fail-stop (killed mid-batch or
/// queued on the dead replica) and to arrivals routed to a group with
/// no available replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Re-inject stranded queries as fresh arrivals at the failure
    /// instant: the router re-places them on the group's surviving
    /// replicas, preserving their original arrival times (so the lost
    /// work shows up as latency, not as lost queries). When the whole
    /// group is down they park until a provision or recovery flushes
    /// them — or surface
    /// [`SimError::NoAvailableReplica`](crate::SimError::NoAvailableReplica)
    /// when no revival is pending.
    #[default]
    Requeue,
    /// Drop stranded work: queued queries and dead-group arrivals are
    /// counted as `shed`, killed in-flight queries as `dropped`. Each
    /// loss frees its closed-loop client just as a completion does. The
    /// run always completes (no typed error), and
    /// `completed + shed + dropped` still accounts for every query.
    Shed,
}

/// Telemetry for one fixed-width time window of a lifecycle-aware run —
/// the signal driving [`FleetController`]s and the per-window series
/// [`SimResult::windows`](crate::SimResult::windows) reports.
///
/// Integral quantities (queue depth, utilization, cost) are
/// time-weighted means over the window; `p99_s` is the 99th-percentile
/// latency of the queries that *completed* in the window (0.0 when none
/// did — pair it with `mean_queue_depth` to tell an idle window from a
/// stalled one).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window start time in seconds.
    pub start: f64,
    /// Window end time in seconds.
    pub end: f64,
    /// Stage-0 arrivals injected during the window.
    pub arrivals: usize,
    /// Queries that completed their final stage during the window.
    pub completed: usize,
    /// Queries shed during the window.
    pub shed: usize,
    /// In-flight queries dropped by fail-stops during the window.
    pub dropped: usize,
    /// Queries that exhausted their timeout (and any retry allowance)
    /// during the window. Always zero outside resilience-aware runs
    /// (see [`Scenario::resilience`](crate::Scenario::resilience)).
    pub timed_out: usize,
    /// p99 latency of the window's completions in seconds (0.0 when the
    /// window completed nothing).
    pub p99_s: f64,
    /// Time-weighted mean number of waiting queries (queued plus
    /// parked) across all replicas.
    pub mean_queue_depth: f64,
    /// Time-weighted mean busy fraction of the *live* fleet's units.
    pub utilization: f64,
    /// Live (up or warming) replicas at the window's end — of the
    /// scaled group under autoscaling, of the whole pipeline otherwise.
    pub live_replicas: usize,
    /// Time-weighted mean fleet cost: the sum of profile speeds over
    /// non-down replicas (a half-speed previous-generation box prices
    /// at 0.5), averaged over the window.
    pub cost: f64,
    /// Queries admitted onto each path during the window, in path order
    /// (see [`Scenario::multipath`](crate::Scenario::multipath)). Empty outside
    /// multi-path runs.
    pub path_admitted: Vec<usize>,
    /// Queries completing each path during the window, in path order.
    /// Empty outside multi-path runs.
    pub path_completed: Vec<usize>,
}

impl WindowStats {
    /// Window width in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Mean offered arrival rate over the window in QPS.
    pub fn arrival_rate(&self) -> f64 {
        if self.duration() > 0.0 {
            self.arrivals as f64 / self.duration()
        } else {
            0.0
        }
    }

    /// Fraction of the window's resolved queries that were shed or
    /// dropped: `(shed + dropped) / (completed + shed + dropped +
    /// timed_out)`, the denominator [`timeout_rate`](Self::timeout_rate)
    /// uses (0.0 when the window resolved nothing). The loss signal brown-out
    /// SLOs bound — a run that protects p99 by shedding heavily still
    /// shows its damage here.
    pub fn shed_rate(&self) -> f64 {
        let lost = self.shed + self.dropped;
        let resolved = self.completed + lost + self.timed_out;
        if resolved == 0 {
            0.0
        } else {
            lost as f64 / resolved as f64
        }
    }

    /// Fraction of the window's resolved queries that timed out for
    /// good: `timed_out / (completed + shed + dropped + timed_out)`
    /// (0.0 when the window resolved nothing). Mirrors
    /// [`shed_rate`](Self::shed_rate) for the resilience loss channel —
    /// a run that protects its tail statistics by abandoning slow
    /// queries still shows its damage here.
    pub fn timeout_rate(&self) -> f64 {
        let resolved = self.completed + self.shed + self.dropped + self.timed_out;
        if resolved == 0 {
            0.0
        } else {
            self.timed_out as f64 / resolved as f64
        }
    }

    /// Whether the window violated a p99 SLO: any shed, dropped or
    /// timed-out query, tail latency above `slo_p99_s`, or work waiting
    /// while nothing completed (a stalled window has no latency sample
    /// but is certainly not meeting its SLO).
    pub fn violates(&self, slo_p99_s: f64) -> bool {
        self.shed_rate() > 0.0
            || self.timeout_rate() > 0.0
            || self.p99_s > slo_p99_s
            || (self.completed == 0 && self.mean_queue_depth >= 1.0)
    }
}

/// The closed-loop fleet-resize seam: consulted at every window
/// boundary with the closing window's [`WindowStats`] and the current
/// live (up or warming) replica count, it returns the count the fleet
/// should converge to. The simulator clamps the answer to the
/// configured `[min_replicas, max_replicas]` band, provisions down
/// replicas (lowest index first, through warm-up) to scale up, and
/// drains live replicas (highest index first) to scale down — draining
/// finishes queued and in-flight work, so scale-down never kills live
/// queries.
pub trait FleetController {
    /// Short name for reports.
    fn name(&self) -> String;

    /// The replica count the fleet should converge to.
    fn desired_replicas(&mut self, window: &WindowStats, live: usize) -> usize;
}

/// Options for a lifecycle-aware run
/// ([`Scenario::lifecycle`](crate::Scenario::lifecycle)): how failures treat
/// stranded work, how slowly warming replicas serve, and whether to
/// record windowed telemetry. The fields are set only through the
/// builders, which check their ranges:
///
/// ```compile_fail
/// use recpipe_qsim::{FailurePolicy, LifecycleConfig};
/// let _ = LifecycleConfig {
///     failure_policy: FailurePolicy::Requeue,
///     warmup_speed: 0.0,
///     window_s: None,
/// };
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleConfig {
    /// What happens to stranded queries (default: requeue).
    pub(crate) failure_policy: FailurePolicy,
    /// Speed multiplier applied to a warming replica's profile speed
    /// (default 0.5: a warming box serves at half rate).
    pub(crate) warmup_speed: f64,
    /// Fixed telemetry window width in seconds; `None` records no
    /// per-window series (the cost integral is still tracked).
    pub(crate) window_s: Option<f64>,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        Self {
            failure_policy: FailurePolicy::Requeue,
            warmup_speed: 0.5,
            window_s: None,
        }
    }
}

impl LifecycleConfig {
    /// The default configuration: requeue on failure, half-speed
    /// warm-up, no windowed telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the failure policy.
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// Sets the warming-replica speed multiplier.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < warmup_speed <= 1` (a warming replica cannot
    /// outrun its own profile).
    pub fn with_warmup_speed(mut self, warmup_speed: f64) -> Self {
        assert!(
            warmup_speed.is_finite() && warmup_speed > 0.0 && warmup_speed <= 1.0,
            "warm-up speed must be in (0, 1]"
        );
        self.warmup_speed = warmup_speed;
        self
    }

    /// Enables windowed telemetry with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window_s` is not strictly positive and finite.
    pub fn with_window(mut self, window_s: f64) -> Self {
        assert!(
            window_s.is_finite() && window_s > 0.0,
            "telemetry window must be positive"
        );
        self.window_s = Some(window_s);
        self
    }
}

/// Options for a closed-loop autoscaled run
/// ([`Scenario::autoscale`](crate::Scenario::autoscale)): which resource
/// group a [`FleetController`] resizes, within what band, and on what
/// cadence. The spec's group must hold `max_replicas` slots — the
/// controller provisions and drains within them. The fields are set
/// only through the builders, which check their ranges:
///
/// ```compile_fail
/// let _ = recpipe_qsim::AutoscaleConfig {
///     group: 0,
///     min_replicas: 0,
///     max_replicas: 2,
///     initial_replicas: 0,
///     warmup_s: 0.0,
///     window_s: 1.0,
/// };
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleConfig {
    /// Index of the resource group the controller resizes.
    pub(crate) group: usize,
    /// Smallest replica count the controller may converge to (≥ 1).
    pub(crate) min_replicas: usize,
    /// Largest replica count (must not exceed the group's slot count).
    pub(crate) max_replicas: usize,
    /// Replicas live at t = 0; the rest start down.
    pub(crate) initial_replicas: usize,
    /// Warm-up applied to every controller-issued provision, seconds.
    pub(crate) warmup_s: f64,
    /// Decision and telemetry window width in seconds.
    pub(crate) window_s: f64,
}

impl AutoscaleConfig {
    /// An autoscaling band over `group` with a decision window.
    ///
    /// Defaults: start at `min_replicas`, zero warm-up. Failure policy
    /// and warm-up speed come from the scenario's
    /// [`LifecycleConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `min_replicas == 0`, `min_replicas > max_replicas`, or
    /// `window_s` is not strictly positive and finite.
    pub fn new(group: usize, min_replicas: usize, max_replicas: usize, window_s: f64) -> Self {
        assert!(min_replicas > 0, "autoscale floor must be at least 1");
        assert!(
            min_replicas <= max_replicas,
            "autoscale floor exceeds ceiling"
        );
        assert!(
            window_s.is_finite() && window_s > 0.0,
            "decision window must be positive"
        );
        Self {
            group,
            min_replicas,
            max_replicas,
            initial_replicas: min_replicas,
            warmup_s: 0.0,
            window_s,
        }
    }

    /// Sets the replica count live at t = 0.
    ///
    /// # Panics
    ///
    /// Panics unless `min_replicas <= initial <= max_replicas`.
    pub fn with_initial_replicas(mut self, initial: usize) -> Self {
        assert!(
            (self.min_replicas..=self.max_replicas).contains(&initial),
            "initial replicas outside the autoscale band"
        );
        self.initial_replicas = initial;
        self
    }

    /// Sets the warm-up applied to controller-issued provisions.
    ///
    /// # Panics
    ///
    /// Panics if `warmup_s` is negative or non-finite.
    pub fn with_warmup(mut self, warmup_s: f64) -> Self {
        assert!(
            warmup_s.is_finite() && warmup_s >= 0.0,
            "warm-up duration must be non-negative and finite"
        );
        self.warmup_s = warmup_s;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_panics_with;

    #[test]
    fn schedule_accepts_ordered_events() {
        let s = LifecycleSchedule::new(vec![
            LifecycleEvent::fail_stop(1.0, 0),
            LifecycleEvent::recover(2.0, 0),
            LifecycleEvent::drain(2.0, 1),
        ]);
        assert_eq!(s.events().len(), 3);
        assert!(!s.is_empty());
        assert!(LifecycleSchedule::empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn non_monotone_schedule_is_rejected() {
        LifecycleSchedule::new(vec![
            LifecycleEvent::fail_stop(2.0, 0),
            LifecycleEvent::recover(1.0, 0),
        ]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn with_event_rejects_time_regression() {
        let _ = LifecycleSchedule::empty()
            .with_event(LifecycleEvent::drain(3.0, 0))
            .with_event(LifecycleEvent::drain(1.0, 1));
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn negative_event_time_is_rejected() {
        LifecycleEvent::drain(-1.0, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn nan_event_time_is_rejected() {
        LifecycleEvent::fail_stop(f64::NAN, 0);
    }

    #[test]
    #[should_panic(expected = "warm-up duration")]
    fn negative_warmup_is_rejected() {
        LifecycleEvent::provision(0.0, 0, -0.5);
    }

    #[test]
    fn window_stats_violation_rules() {
        let base = WindowStats {
            start: 0.0,
            end: 1.0,
            arrivals: 100,
            completed: 100,
            shed: 0,
            dropped: 0,
            timed_out: 0,
            p99_s: 0.010,
            mean_queue_depth: 0.5,
            utilization: 0.4,
            live_replicas: 2,
            cost: 2.0,
            path_admitted: Vec::new(),
            path_completed: Vec::new(),
        };
        assert!(!base.violates(0.025));
        assert!(base.violates(0.005)); // tail above SLO
        let shedding = WindowStats {
            shed: 1,
            ..base.clone()
        };
        assert!(shedding.violates(0.025));
        let stalled = WindowStats {
            completed: 0,
            p99_s: 0.0,
            mean_queue_depth: 40.0,
            ..base.clone()
        };
        assert!(stalled.violates(0.025)); // backlogged, nothing finishing
        let idle = WindowStats {
            arrivals: 0,
            completed: 0,
            p99_s: 0.0,
            mean_queue_depth: 0.0,
            ..base
        };
        assert!(!idle.violates(0.025));
        assert!((idle.arrival_rate() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn shed_rate_divides_loss_by_resolved_queries() {
        let mut w = WindowStats {
            start: 0.0,
            end: 1.0,
            arrivals: 100,
            completed: 90,
            shed: 8,
            dropped: 2,
            timed_out: 0,
            p99_s: 0.010,
            mean_queue_depth: 0.5,
            utilization: 0.4,
            live_replicas: 2,
            cost: 2.0,
            path_admitted: Vec::new(),
            path_completed: Vec::new(),
        };
        assert!((w.shed_rate() - 0.1).abs() < 1e-12);
        w.completed = 0;
        w.shed = 0;
        w.dropped = 0;
        assert_eq!(w.shed_rate(), 0.0); // idle window resolves nothing
    }

    #[test]
    fn degrade_is_not_a_revival_and_validates_speed() {
        let e = LifecycleEvent::degrade(1.0, 0, 0.25);
        assert!(!e.revives());
        assert_eq!(e.action, LifecycleAction::Degrade { speed: 0.25 });
        // Full-profile "degradation" is allowed (a no-op limp).
        let _ = LifecycleEvent::degrade(0.0, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "degraded speed")]
    fn degrade_to_zero_speed_is_rejected() {
        // speed == 0 would be a stopped replica masquerading as live;
        // that's a fail-stop, not a limp.
        LifecycleEvent::degrade(1.0, 0, 0.0);
    }

    #[test]
    #[should_panic(expected = "degraded speed")]
    fn degrade_above_profile_speed_is_rejected() {
        LifecycleEvent::degrade(1.0, 0, 1.5);
    }

    #[test]
    fn timeout_rate_bounds_the_resilience_loss_channel() {
        let timing_out = WindowStats {
            start: 0.0,
            end: 1.0,
            arrivals: 100,
            completed: 90,
            shed: 0,
            dropped: 0,
            timed_out: 10,
            p99_s: 0.005, // tail looks great — protected by abandoning
            mean_queue_depth: 0.5,
            utilization: 0.4,
            live_replicas: 2,
            cost: 2.0,
            path_admitted: Vec::new(),
            path_completed: Vec::new(),
        };
        assert!((timing_out.timeout_rate() - 0.1).abs() < 1e-12);
        // Timeouts do not inflate the shed channel...
        assert!((timing_out.shed_rate() - 0.0).abs() < 1e-12);
        // ...but any final timeout violates, mirroring the shed rule.
        assert!(timing_out.violates(0.025));
        // An idle window resolves nothing and cannot violate on rate.
        let idle = WindowStats {
            arrivals: 0,
            completed: 0,
            timed_out: 0,
            p99_s: 0.0,
            mean_queue_depth: 0.0,
            ..timing_out
        };
        assert!((idle.timeout_rate() - 0.0).abs() < 1e-12);
        assert!(!idle.violates(0.025));
    }

    #[test]
    #[should_panic(expected = "floor exceeds ceiling")]
    fn autoscale_band_must_be_ordered() {
        AutoscaleConfig::new(0, 4, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "outside the autoscale band")]
    fn initial_replicas_must_sit_in_band() {
        let _ = AutoscaleConfig::new(0, 2, 4, 1.0).with_initial_replicas(5);
    }

    #[test]
    #[should_panic(expected = "in (0, 1]")]
    fn warmup_speed_above_profile_is_rejected() {
        let _ = LifecycleConfig::new().with_warmup_speed(1.5);
    }

    #[test]
    fn builders_reject_out_of_range_values() {
        for window_s in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let window = move || LifecycleConfig::new().with_window(window_s);
            assert_panics_with("telemetry window must be positive", window);
        }
        let speed = || LifecycleConfig::new().with_warmup_speed(0.0);
        assert_panics_with("warm-up speed must be in (0, 1]", speed);
        let window = || AutoscaleConfig::new(0, 1, 2, 0.0);
        assert_panics_with("decision window must be positive", window);
        let floor = || AutoscaleConfig::new(0, 0, 2, 1.0);
        assert_panics_with("autoscale floor must be at least 1", floor);
        let band = || AutoscaleConfig::new(0, 1, 2, 1.0);
        let initial = || band().with_initial_replicas(3);
        assert_panics_with("initial replicas outside the autoscale band", initial);
        let warmup = "warm-up duration must be non-negative and finite";
        assert_panics_with(warmup, || band().with_warmup(-1.0));
        assert_panics_with(warmup, || LifecycleEvent::provision(0.0, 0, f64::INFINITY));
        let degrade = || LifecycleEvent::degrade(0.0, 0, f64::NAN);
        assert_panics_with("degraded speed must be in (0, 1]", degrade);
    }
}
