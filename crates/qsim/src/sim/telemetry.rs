//! Windowed telemetry: the time integrals of the fleet's [`Gauges`],
//! and the window series [`WindowStats`], whose counts are differences
//! of the run's and the paths' [`Ledger`]s between a window's open and
//! close. Attached when a telemetry window is set, a lifecycle schedule
//! is non-empty, or an autoscaler is attached.

use super::{nearest_rank, Gauges, Ledger};
use crate::WindowStats;

/// `∫ gauge dt` since t = 0 for the queue depth, busy units, live
/// capacity and live cost.
#[derive(Clone, Copy, Default)]
struct Integrals {
    queue: f64,
    busy: f64,
    cap: f64,
    cost: f64,
}

/// The open window: its start, and the integrals and ledgers at its
/// start.
#[derive(Default)]
struct Window {
    start: f64,
    base: Integrals,
    ledger: Ledger,
    paths: Vec<Ledger>,
}

/// The telemetry runtime: the integrals, the open window and its
/// completions' latencies, and the closed windows in order.
#[derive(Default)]
pub(super) struct Telemetry {
    /// Window width in seconds (0.0 = no windowed series).
    pub(super) window_s: f64,
    /// Time the integrals were last advanced to.
    clock: f64,
    integrals: Integrals,
    open: Window,
    /// Latencies of the open window's completions.
    pub(super) latencies: Vec<f64>,
    pub(super) windows: Vec<WindowStats>,
}

impl Telemetry {
    pub(super) fn new(window_s: f64) -> Self {
        Self {
            window_s,
            ..Self::default()
        }
    }

    /// Advances the integrals to `now` at the gauges' current levels.
    pub(super) fn advance(&mut self, now: f64, gauges: Gauges) {
        let dt = now - self.clock;
        if dt > 0.0 {
            let i = &mut self.integrals;
            i.queue += gauges.queued as f64 * dt;
            i.busy += gauges.busy as f64 * dt;
            i.cap += gauges.capacity as f64 * dt;
            i.cost += gauges.cost * dt;
            self.clock = now;
        }
    }

    pub(super) fn cost_integral(&self) -> f64 {
        self.integrals.cost
    }

    /// When the trailing partial window closes: at the integral clock,
    /// on runs that record windows.
    pub(super) fn end(&self) -> Option<f64> {
        (self.window_s > 0.0).then_some(self.clock)
    }

    /// Closes the window ending at `now` with `live_replicas` live and
    /// the run's and the paths' ledgers at `ledger` and `paths`, and
    /// opens the next. An empty span closes nothing and keeps the window
    /// open.
    pub(super) fn close(
        &mut self,
        now: f64,
        live_replicas: usize,
        ledger: &Ledger,
        paths: &[Ledger],
    ) {
        let (w, now_i) = (&mut self.open, self.integrals);
        let duration = now - w.start;
        if duration <= 0.0 {
            return;
        }
        let cap_delta = now_i.cap - w.base.cap;
        let utilization = if cap_delta > 0.0 {
            ((now_i.busy - w.base.busy) / cap_delta).min(1.0)
        } else {
            0.0
        };
        let p99_s = if self.latencies.is_empty() {
            0.0
        } else {
            nearest_rank(&mut self.latencies, 0.99)
        };
        let counts = ledger.since(&w.ledger);
        // The paths' ledgers are all zero before the first window opens.
        w.paths.resize(paths.len(), Ledger::default());
        let per_path = paths
            .iter()
            .zip(&w.paths)
            .map(|(path, base)| path.since(base));
        let (path_admitted, path_completed) = per_path.map(|c| (c.arrivals, c.completed)).unzip();
        self.windows.push(WindowStats {
            start: w.start,
            end: now,
            arrivals: counts.arrivals,
            completed: counts.completed,
            shed: counts.shed,
            dropped: counts.dropped,
            timed_out: counts.timed_out,
            p99_s,
            mean_queue_depth: (now_i.queue - w.base.queue) / duration,
            utilization,
            live_replicas,
            cost: (now_i.cost - w.base.cost) / duration,
            path_admitted,
            path_completed,
        });
        (w.start, w.base, w.ledger) = (now, now_i, *ledger);
        w.paths.copy_from_slice(paths);
        self.latencies.clear();
    }
}
