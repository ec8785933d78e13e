//! Windowed telemetry: the time integrals of the fleet's [`Gauges`] and
//! the per-window counters behind [`WindowStats`]. Attached when a
//! telemetry window is set, a lifecycle schedule is non-empty, or an
//! autoscaler is attached.

use super::{nearest_rank, Gauges};
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

/// The open window: its start, the integrals at its start, and what it
/// has counted so far.
#[derive(Default)]
struct Window {
    start: f64,
    base: Integrals,
    arrivals: usize,
    completed: usize,
    shed: usize,
    dropped: usize,
    timed_out: usize,
    latencies: Vec<f64>,
}

/// The telemetry runtime: the integrals, the open window, and the
/// closed windows in order.
#[derive(Default)]
pub(super) struct Telemetry {
    /// Window width in seconds (0.0 = no windowed series).
    pub(super) window_s: f64,
    /// Time the integrals were last advanced to.
    clock: f64,
    integrals: Integrals,
    open: Window,
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

    pub(super) fn on_arrival(&mut self) {
        self.open.arrivals += 1;
    }

    pub(super) fn on_completion(&mut self, latency_s: f64) {
        self.open.completed += 1;
        self.open.latencies.push(latency_s);
    }

    /// Counts `queries` lost: dropped mid-service when `in_flight`,
    /// shed otherwise.
    pub(super) fn on_lost(&mut self, in_flight: bool, queries: usize) {
        if in_flight {
            self.open.dropped += queries;
        } else {
            self.open.shed += queries;
        }
    }

    pub(super) fn on_timed_out(&mut self) {
        self.open.timed_out += 1;
    }

    pub(super) fn cost_integral(&self) -> f64 {
        self.integrals.cost
    }

    /// When the trailing partial window closes: at the integral clock,
    /// on runs that record windows.
    pub(super) fn end(&self) -> Option<f64> {
        (self.window_s > 0.0).then_some(self.clock)
    }

    /// Closes the window ending at `now` with `live_replicas` live, and
    /// opens the next. An empty span closes nothing and keeps the window
    /// open; otherwise the closed window is returned for the caller to
    /// add its per-path counts.
    pub(super) fn close(&mut self, now: f64, live_replicas: usize) -> Option<&mut WindowStats> {
        let (w, now_i) = (&mut self.open, self.integrals);
        let duration = now - w.start;
        if duration <= 0.0 {
            return None;
        }
        let cap_delta = now_i.cap - w.base.cap;
        let utilization = if cap_delta > 0.0 {
            ((now_i.busy - w.base.busy) / cap_delta).min(1.0)
        } else {
            0.0
        };
        let p99_s = if w.latencies.is_empty() {
            0.0
        } else {
            nearest_rank(&mut w.latencies, 0.99)
        };
        self.windows.push(WindowStats {
            start: w.start,
            end: now,
            arrivals: w.arrivals,
            completed: w.completed,
            shed: w.shed,
            dropped: w.dropped,
            timed_out: w.timed_out,
            p99_s,
            mean_queue_depth: (now_i.queue - w.base.queue) / duration,
            utilization,
            live_replicas,
            cost: (now_i.cost - w.base.cost) / duration,
            path_admitted: Vec::new(),
            path_completed: Vec::new(),
        });
        let mut latencies = std::mem::take(&mut w.latencies);
        latencies.clear();
        self.open = Window {
            start: now,
            base: now_i,
            latencies,
            ..Window::default()
        };
        self.windows.last_mut()
    }
}
