//! Scheduling policies: when a stage launches a batch.
//!
//! The simulator keeps one waiting queue per resource. Whenever a
//! scheduling opportunity arises (an arrival, a completion freeing
//! units, or a policy-requested recheck), it orders the queue by the
//! policy's [`priority`](SchedulingPolicy::priority), takes the
//! head entry's stage, gathers up to `max_batch` same-stage entries in
//! priority order, and asks the policy to
//! [`release`](SchedulingPolicy::release) the batch now or hold it.
//!
//! * [`Fifo`] — work-conserving: launch as soon as units are free, with
//!   whatever has queued (the pre-batching simulator's behavior when
//!   every stage has `max_batch = 1`);
//! * [`BatchWindow`] — hold a partial batch until it fills or the head
//!   entry has waited `window_s`, trading latency at low load for
//!   amortization at high load;
//! * [`EarliestDeadlineFirst`] — order by each query's *system* arrival
//!   time plus a deadline, so queries deep into their SLA budget
//!   preempt fresh ones on shared resources.

/// One query waiting at a stage's queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueEntry {
    /// Query id (index in arrival order).
    pub query: usize,
    /// Pipeline stage the query is waiting for.
    pub stage: usize,
    /// When the query entered the *system* (stage 0 arrival), seconds.
    pub arrived: f64,
    /// When the query joined this stage's queue, seconds.
    pub enqueued: f64,
    /// Global admission sequence number (FIFO tie-break).
    pub seq: u64,
}

/// A policy's verdict on a ready batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Release {
    /// Launch the batch immediately.
    Now,
    /// Hold the batch; recheck at the given absolute time (the
    /// simulator also rechecks on every arrival and completion).
    At(f64),
}

/// Decides when a stage launches a batch from its waiting queue.
///
/// Implementations must be deterministic: identical queue states must
/// produce identical decisions, or simulation results stop being
/// reproducible across runs and worker threads.
pub trait SchedulingPolicy: std::fmt::Debug + Send + Sync {
    /// Short name for reports.
    fn name(&self) -> String;

    /// Sort key of a waiting entry — lower is served first. Ties break
    /// by admission sequence. The default (enqueue time) is FIFO.
    fn priority(&self, entry: &QueueEntry) -> f64 {
        entry.enqueued
    }

    /// Whether a batch of `ready` same-stage entries (head entry
    /// `head`, stage batch cap `max_batch`) should launch at `now`.
    fn release(&self, now: f64, head: &QueueEntry, ready: usize, max_batch: usize) -> Release {
        let _ = (now, head, ready, max_batch);
        Release::Now
    }

    /// Whether a query arriving at a stage with free units may start
    /// service immediately without consulting
    /// [`release`](Self::release). Work-conserving policies keep the
    /// default `true`; batch-forming policies return `false` so
    /// arrivals accumulate into batches.
    ///
    /// Contract: a policy returning `true` must also release ready
    /// batches immediately (the default [`release`](Self::release)) —
    /// the simulator relies on it to skip redundant queue scans when an
    /// arrival cannot start.
    fn admit_on_arrival(&self) -> bool {
        true
    }
}

/// First-in-first-out, work-conserving scheduling: every scheduling
/// opportunity launches the largest batch that has already queued. With
/// per-query stages this is exactly the pre-batching simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fifo;

impl SchedulingPolicy for Fifo {
    fn name(&self) -> String {
        "fifo".into()
    }
}

/// Batch-window scheduling: hold a partial batch until it reaches the
/// stage's `max_batch` or the head entry has waited `window_s` seconds.
///
/// The canonical dynamic-batching policy of GPU/accelerator serving
/// stacks: a bounded latency tax at low load buys full amortization at
/// high load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchWindow {
    /// Longest time the head entry may wait for its batch to fill.
    pub(crate) window_s: f64,
}

impl BatchWindow {
    /// Creates a batch-window policy with the given fill timeout.
    ///
    /// # Panics
    ///
    /// Panics if `window_s` is negative or not finite.
    pub fn new(window_s: f64) -> Self {
        assert!(
            window_s.is_finite() && window_s >= 0.0,
            "window must be non-negative"
        );
        Self { window_s }
    }
}

impl SchedulingPolicy for BatchWindow {
    fn name(&self) -> String {
        format!("batch-window({}s)", self.window_s)
    }

    fn release(&self, now: f64, head: &QueueEntry, ready: usize, max_batch: usize) -> Release {
        if ready >= max_batch || now >= head.enqueued + self.window_s {
            Release::Now
        } else {
            Release::At(head.enqueued + self.window_s)
        }
    }

    fn admit_on_arrival(&self) -> bool {
        false
    }
}

/// Earliest-deadline-first scheduling: entries are served in order of
/// their system arrival (the query whose deadline `arrived +
/// deadline_s` expires soonest first), and partial batches may form
/// only inside each query's slack budget.
///
/// Two effects, both deadline-driven:
///
/// * **Ordering** — on resources shared by several stages, queries that
///   already burned latency at earlier stages jump ahead of fresh
///   arrivals (FIFO by *system* age rather than queue age);
/// * **Deadline-bounded batching** — a partial batch is held until it
///   fills or the head query has consumed `batch_slack` of its
///   deadline budget since entering the system, whichever comes first.
///   A tight deadline degenerates toward work-conserving FIFO; a loose
///   one batches as deeply as a [`BatchWindow`]. Stages with
///   `max_batch = 1` always launch immediately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarliestDeadlineFirst {
    /// Per-query end-to-end deadline in seconds (e.g. the SLA target).
    pub(crate) deadline_s: f64,
    /// Fraction of the deadline budget a query may spend waiting for
    /// batches to fill; the rest is reserved for service. Default 0.25.
    pub(crate) batch_slack: f64,
}

impl EarliestDeadlineFirst {
    /// Creates an EDF policy with the given end-to-end deadline and the
    /// default slack reservation.
    ///
    /// # Panics
    ///
    /// Panics if `deadline_s` is not strictly positive and finite.
    pub fn new(deadline_s: f64) -> Self {
        assert!(
            deadline_s.is_finite() && deadline_s > 0.0,
            "deadline must be positive"
        );
        Self {
            deadline_s,
            batch_slack: 0.25,
        }
    }

    /// Overrides the fraction of the deadline spendable on batching.
    ///
    /// # Panics
    ///
    /// Panics if `batch_slack` is not in `[0, 1]`.
    pub fn with_batch_slack(mut self, batch_slack: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&batch_slack),
            "batch_slack must be in [0, 1]"
        );
        self.batch_slack = batch_slack;
        self
    }

    /// Latest instant the given head entry may keep waiting for its
    /// batch to fill.
    fn hold_until(&self, head: &QueueEntry) -> f64 {
        head.arrived + self.deadline_s * self.batch_slack
    }
}

impl SchedulingPolicy for EarliestDeadlineFirst {
    fn name(&self) -> String {
        format!("edf({}s)", self.deadline_s)
    }

    fn priority(&self, entry: &QueueEntry) -> f64 {
        entry.arrived + self.deadline_s
    }

    fn release(&self, now: f64, head: &QueueEntry, ready: usize, max_batch: usize) -> Release {
        if ready >= max_batch || now >= self.hold_until(head) {
            Release::Now
        } else {
            Release::At(self.hold_until(head))
        }
    }

    fn admit_on_arrival(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(query: usize, arrived: f64, enqueued: f64) -> QueueEntry {
        QueueEntry {
            query,
            stage: 0,
            arrived,
            enqueued,
            seq: query as u64,
        }
    }

    #[test]
    fn fifo_orders_by_enqueue_time_and_always_releases() {
        let fifo = Fifo;
        assert!(fifo.priority(&entry(0, 0.0, 1.0)) < fifo.priority(&entry(1, 0.5, 2.0)));
        assert_eq!(fifo.release(0.0, &entry(0, 0.0, 0.0), 1, 8), Release::Now);
        assert!(fifo.admit_on_arrival());
    }

    #[test]
    fn batch_window_holds_partial_batches_until_timeout() {
        let policy = BatchWindow::new(0.002);
        let head = entry(0, 0.0, 1.0);
        // Partial batch before the window: hold until enqueued + window.
        assert_eq!(policy.release(1.001, &head, 3, 8), Release::At(1.002));
        // Window expired: go.
        assert_eq!(policy.release(1.002, &head, 3, 8), Release::Now);
        // Full batch: go immediately.
        assert_eq!(policy.release(1.0005, &head, 8, 8), Release::Now);
        assert!(!policy.admit_on_arrival());
    }

    #[test]
    fn edf_prioritizes_oldest_system_arrival() {
        let policy = EarliestDeadlineFirst::new(0.05);
        // Query 1 entered the system earlier even though it joined this
        // queue later — EDF serves it first.
        let fresh = entry(0, 10.0, 10.0);
        let aged = entry(1, 9.0, 10.5);
        assert!(policy.priority(&aged) < policy.priority(&fresh));
    }

    #[test]
    fn edf_batches_within_the_slack_budget_only() {
        // deadline 40 ms, slack 0.25: a query may wait for its batch
        // until 10 ms after it entered the system.
        let policy = EarliestDeadlineFirst::new(0.04);
        let head = entry(0, 1.0, 1.002);
        // Inside the slack: hold until arrived + 10 ms (not enqueued!).
        assert_eq!(policy.release(1.003, &head, 2, 8), Release::At(1.010));
        // Slack exhausted: launch the partial batch.
        assert_eq!(policy.release(1.010, &head, 2, 8), Release::Now);
        // Full batch launches regardless.
        assert_eq!(policy.release(1.003, &head, 8, 8), Release::Now);
        // Per-query stages never hold.
        assert_eq!(policy.release(1.003, &head, 1, 1), Release::Now);
        assert!(!policy.admit_on_arrival());
    }

    #[test]
    fn edf_deadline_scales_the_hold_window() {
        let head = entry(0, 0.0, 0.0);
        let tight = EarliestDeadlineFirst::new(0.004);
        let loose = EarliestDeadlineFirst::new(0.4);
        let hold_of = |r: Release| match r {
            Release::At(t) => t,
            Release::Now => 0.0,
        };
        let tight_hold = hold_of(tight.release(0.0001, &head, 1, 8));
        let loose_hold = hold_of(loose.release(0.0001, &head, 1, 8));
        assert!(tight_hold < loose_hold, "{tight_hold} vs {loose_hold}");
        // Slack override: zero slack is fully work-conserving.
        let eager = EarliestDeadlineFirst::new(0.4).with_batch_slack(0.0);
        assert_eq!(eager.release(0.0001, &head, 1, 8), Release::Now);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn batch_window_rejects_negative_window() {
        BatchWindow::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn edf_rejects_zero_deadline() {
        EarliestDeadlineFirst::new(0.0);
    }
}
