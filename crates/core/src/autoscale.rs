//! Closed-loop autoscaling policies: decide each window how many
//! replicas the serving fleet should run.
//!
//! The queueing simulator exposes the mechanism — warm-up, drains, and
//! windowed telemetry behind the
//! [`FleetController`] seam — while this
//! module supplies the *policies* that close the loop:
//!
//! * [`ReactiveScaling`] chases observed utilization and queue depth:
//!   scale so the live fleet would have run at a target busy fraction,
//!   and add a replica whenever queues build past a per-replica bound.
//!   Simple and robust, but it only reacts *after* a window has already
//!   run hot — warm-up latency means the damage lands before the fix.
//! * [`PredictiveScaling`] smooths the offered arrival rate with an
//!   EWMA, extrapolates one window ahead along the trend, and
//!   provisions for the *predicted* demand plus headroom — paying a
//!   little steady-state cost to have capacity warm before the peak.
//!
//! Both implement [`FleetController`]; hand one to a scenario's
//! [`autoscale`](recpipe_qsim::Scenario::autoscale) (for example on an
//! [`Engine::scenario`](crate::Engine::scenario)) to run the closed loop
//! end to end. The simulator clamps whatever a policy returns to the
//! configured `[min, max]` band, so policies may speak their mind
//! without range bookkeeping.

use recpipe_qsim::{FleetController, WindowStats};

/// Reactive utilization/queue-depth scaling: size the fleet so the
/// closing window's busy work would have run at
/// [`target_utilization`](Self::target_utilization), and add one
/// replica whenever mean queue depth exceeds
/// [`max_queue_per_replica`](Self::max_queue_per_replica) waiting
/// queries per live replica.
///
/// # Examples
///
/// ```
/// use recpipe_core::ReactiveScaling;
/// use recpipe_qsim::FleetController;
///
/// let policy = ReactiveScaling::new(0.6, 4.0);
/// assert_eq!(policy.name(), "reactive(util<=0.6,queue<=4)");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReactiveScaling {
    /// Busy fraction the policy steers the live fleet toward.
    pub target_utilization: f64,
    /// Mean waiting queries per live replica above which the policy
    /// requests one extra replica even if utilization looks healthy.
    pub max_queue_per_replica: f64,
}

impl ReactiveScaling {
    /// Creates a reactive policy steering toward `target_utilization`
    /// busy fraction with at most `max_queue_per_replica` mean waiting
    /// queries per replica.
    ///
    /// # Panics
    ///
    /// Panics if `target_utilization` is not in `(0, 1]` or
    /// `max_queue_per_replica` is not positive and finite.
    pub fn new(target_utilization: f64, max_queue_per_replica: f64) -> Self {
        assert!(
            target_utilization > 0.0 && target_utilization <= 1.0,
            "target utilization must be in (0, 1]"
        );
        assert!(
            max_queue_per_replica.is_finite() && max_queue_per_replica > 0.0,
            "queue bound must be positive and finite"
        );
        Self {
            target_utilization,
            max_queue_per_replica,
        }
    }
}

impl FleetController for ReactiveScaling {
    fn name(&self) -> String {
        format!(
            "reactive(util<={},queue<={})",
            self.target_utilization, self.max_queue_per_replica
        )
    }

    fn desired_replicas(&mut self, window: &WindowStats, live: usize) -> usize {
        // The window's busy work, expressed in replicas: running `live`
        // replicas at `utilization` busy fraction is the same work as
        // `live * utilization` replicas flat out. Resize so that work
        // would have run at the target fraction instead.
        let busy_replicas = live as f64 * window.utilization;
        let mut desired = (busy_replicas / self.target_utilization).ceil() as usize;
        // Queue build-up is the earlier signal: utilization saturates
        // at 1.0 under overload while queues keep growing, so a deep
        // queue asks for capacity even when the utilization arithmetic
        // has stalled at `live / target`.
        if window.mean_queue_depth > live as f64 * self.max_queue_per_replica {
            desired = desired.max(live + 1);
        }
        desired.max(1)
    }
}

/// Predictive EWMA-on-arrival-rate scaling: smooth the offered rate,
/// extrapolate one window ahead along the smoothed trend, and provision
/// `ceil(predicted * headroom / per_replica_qps)` replicas — capacity
/// is warming *before* the peak arrives rather than after it hurts.
///
/// # Examples
///
/// ```
/// use recpipe_core::PredictiveScaling;
/// use recpipe_qsim::FleetController;
///
/// // Smooth at alpha 0.5, plan for 200 QPS per replica, 25% headroom.
/// let policy = PredictiveScaling::new(0.5, 200.0, 1.25);
/// assert_eq!(policy.name(), "predictive(a=0.5,qps=200,hr=1.25)");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PredictiveScaling {
    /// EWMA smoothing factor in `(0, 1]`: the weight of the newest
    /// window's observed arrival rate.
    pub alpha: f64,
    /// Sustainable throughput of one replica in queries per second —
    /// the capacity model the prediction is divided by.
    pub per_replica_qps: f64,
    /// Multiplier applied to the predicted rate before sizing (1.25 =
    /// provision for 25% above the prediction).
    pub headroom: f64,
    ewma: Option<f64>,
}

impl PredictiveScaling {
    /// Creates a predictive policy smoothing at `alpha`, with a
    /// capacity model of `per_replica_qps` per replica and a `headroom`
    /// safety multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1]`, `per_replica_qps` is not
    /// positive and finite, or `headroom < 1.0`.
    pub fn new(alpha: f64, per_replica_qps: f64, headroom: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        assert!(
            per_replica_qps.is_finite() && per_replica_qps > 0.0,
            "per-replica capacity must be positive and finite"
        );
        assert!(
            headroom.is_finite() && headroom >= 1.0,
            "headroom must be at least 1.0"
        );
        Self {
            alpha,
            per_replica_qps,
            headroom,
            ewma: None,
        }
    }
}

impl FleetController for PredictiveScaling {
    fn name(&self) -> String {
        format!(
            "predictive(a={},qps={},hr={})",
            self.alpha, self.per_replica_qps, self.headroom
        )
    }

    fn desired_replicas(&mut self, window: &WindowStats, live: usize) -> usize {
        let observed = window.arrival_rate();
        let smoothed = match self.ewma {
            Some(prev) => self.alpha * observed + (1.0 - self.alpha) * prev,
            None => observed,
        };
        // One-window trend extrapolation on the smoothed series: where
        // the rate will be by the time a provisioned replica has
        // finished warming, not where it was. Clamped at zero — a
        // falling trend never predicts negative traffic.
        let trend = match self.ewma {
            Some(before) => smoothed - before,
            None => 0.0,
        };
        self.ewma = Some(smoothed);
        let predicted = (smoothed + trend).max(0.0);
        let desired = (predicted * self.headroom / self.per_replica_qps).ceil() as usize;
        desired.max(1).max(if window.mean_queue_depth >= 1.0 {
            // A standing queue means the capacity model was optimistic
            // for the current mix; hold the fleet rather than shrinking
            // into a backlog.
            live
        } else {
            1
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(arrivals: usize, utilization: f64, queue: f64, live: usize) -> WindowStats {
        WindowStats {
            start: 0.0,
            end: 2.0,
            arrivals,
            completed: arrivals,
            shed: 0,
            dropped: 0,
            timed_out: 0,
            p99_s: 0.01,
            mean_queue_depth: queue,
            utilization,
            live_replicas: live,
            cost: live as f64,
            path_admitted: Vec::new(),
            path_completed: Vec::new(),
        }
    }

    #[test]
    fn reactive_scales_toward_target_utilization() {
        let mut policy = ReactiveScaling::new(0.5, 8.0);
        // 4 replicas at 100% busy → 8 replicas would run at 50%.
        assert_eq!(policy.desired_replicas(&window(800, 1.0, 0.0, 4), 4), 8);
        // 4 replicas at 25% busy → 2 replicas suffice at 50%.
        assert_eq!(policy.desired_replicas(&window(200, 0.25, 0.0, 4), 4), 2);
    }

    #[test]
    fn reactive_queue_pressure_forces_growth() {
        let mut policy = ReactiveScaling::new(0.9, 2.0);
        // Utilization alone says 4 replicas at 0.9 busy are fine
        // (ceil(3.6/0.9) = 4), but 20 waiting queries over 4 replicas
        // breach the 2-per-replica bound → live + 1.
        assert_eq!(policy.desired_replicas(&window(800, 0.9, 20.0, 4), 4), 5);
    }

    #[test]
    fn reactive_never_asks_for_zero() {
        let mut policy = ReactiveScaling::new(0.5, 8.0);
        assert_eq!(policy.desired_replicas(&window(0, 0.0, 0.0, 3), 3), 1);
    }

    #[test]
    fn predictive_extrapolates_a_rising_trend() {
        let mut policy = PredictiveScaling::new(1.0, 100.0, 1.0);
        // alpha = 1 → EWMA tracks the observations exactly.
        // 200 QPS observed → predict 200 → 2 replicas.
        assert_eq!(policy.desired_replicas(&window(400, 0.5, 0.0, 2), 2), 2);
        // 300 QPS observed, trend +100 → predict 400 → 4 replicas,
        // while a purely reactive view of 300 QPS would ask for 3.
        assert_eq!(policy.desired_replicas(&window(600, 0.7, 0.0, 3), 3), 4);
    }

    #[test]
    fn predictive_holds_the_fleet_over_a_standing_queue() {
        let mut policy = PredictiveScaling::new(0.5, 1_000.0, 1.0);
        // The capacity model claims one replica handles 1000 QPS, but a
        // standing queue proves otherwise — never shrink below live.
        assert_eq!(policy.desired_replicas(&window(200, 0.9, 5.0, 4), 4), 4);
    }

    #[test]
    #[should_panic(expected = "target utilization must be in (0, 1]")]
    fn reactive_rejects_out_of_range_target() {
        ReactiveScaling::new(1.5, 4.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn predictive_rejects_zero_alpha() {
        PredictiveScaling::new(0.0, 100.0, 1.25);
    }

    #[test]
    #[should_panic(expected = "headroom must be at least 1.0")]
    fn predictive_rejects_sub_unity_headroom() {
        PredictiveScaling::new(0.5, 100.0, 0.9);
    }
}
