//! Query arrival processes: the traffic side of at-scale serving.
//!
//! The paper evaluates under Poisson arrivals (Section 4), but
//! production recommendation traffic is burstier: flash crowds, diurnal
//! cycles, and closed-loop clients all move the tail. The
//! [`ArrivalProcess`] trait makes the traffic model a pluggable seam so
//! the queueing simulator can serve any scenario:
//!
//! * [`PoissonArrivals`] — the paper's memoryless baseline;
//! * [`MmppArrivals`] — a two-state Markov-modulated Poisson process
//!   (bursty: quiet/surge phases with exponential dwell times);
//! * [`DiurnalArrivals`] — a sinusoidal day/night rate cycle sampled by
//!   thinning (an inhomogeneous Poisson process);
//! * [`ClosedLoopArrivals`] — a fixed client population where each
//!   client issues its next query a think time after the previous one
//!   completes (load adapts to service, as in benchmark harnesses).
//!
//! Every process is seeded explicitly and fully deterministic.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Exponential;

/// A source of query arrival times for the at-scale simulator.
///
/// Every process is one lazy, unbounded stream of absolute arrival
/// times ([`stream`](ArrivalProcess::stream)), nondecreasing and
/// deterministic in its seed; [`times`](ArrivalProcess::times) is that
/// stream's prefix. The simulator pulls one timestamp per staged
/// arrival, so a 10M-query replay never materializes its schedule.
/// Closed-loop processes additionally return a [`ClosedLoopSpec`] from
/// [`closed_loop`](ArrivalProcess::closed_loop); the simulator then
/// issues only the initial per-client arrivals from the stream and
/// derives every later arrival from resolved queries.
///
/// # Examples
///
/// ```
/// use recpipe_data::{ArrivalProcess, MmppArrivals, PoissonArrivals};
///
/// let poisson = PoissonArrivals::new(500.0);
/// let bursty = MmppArrivals::new(100.0, 2_000.0, 0.5, 0.1);
/// for process in [&poisson as &dyn ArrivalProcess, &bursty] {
///     let times = process.times(1_000, 7);
///     assert_eq!(times.len(), 1_000);
///     assert!(times.windows(2).all(|w| w[1] >= w[0]));
/// }
/// ```
pub trait ArrivalProcess: std::fmt::Debug + Send + Sync {
    /// Short name for reports (`poisson(500)`, `mmpp(100,2000)`, ...).
    fn name(&self) -> String;

    /// Long-run mean arrival rate in queries per second. For
    /// closed-loop processes this is the zero-service-time upper bound
    /// `clients / think_time`.
    fn mean_rate(&self) -> f64;

    /// The schedule as a lazy stream of absolute arrival times in
    /// seconds, deterministic in `seed`.
    ///
    /// **Contract:** the stream never ends and never decreases. The
    /// simulator stages arrivals in stream order and debug-asserts the
    /// order; a decreasing timestamp would be served out of order.
    fn stream(&self, seed: u64) -> Box<dyn Iterator<Item = f64> + Send + '_>;

    /// The first `n` arrival times: the prefix of
    /// [`stream`](Self::stream).
    fn times(&self, n: usize, seed: u64) -> Vec<f64> {
        self.stream(seed).take(n).collect()
    }

    /// Closed-loop feedback, if any: when `Some`, the simulator takes
    /// only the first `clients` entries of [`stream`](Self::stream) as
    /// the initial arrivals and schedules each client's next query a
    /// think time after its previous query resolves.
    fn closed_loop(&self) -> Option<ClosedLoopSpec> {
        None
    }
}

/// Parameters of a closed-loop client population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoopSpec {
    /// Number of concurrent clients, each with one query in flight.
    pub clients: usize,
    /// Seconds a client waits after a completion before issuing its
    /// next query.
    pub think_time_s: f64,
}

/// Poisson arrival process configuration: memoryless arrivals at a
/// fixed rate, with exponential inter-arrival gaps — the paper's load
/// model ("Queries follow a Poisson arrival rate", Section 4).
///
/// # Examples
///
/// ```
/// use recpipe_data::{ArrivalProcess, PoissonArrivals};
///
/// let arrivals: Vec<f64> = PoissonArrivals::new(500.0).stream(7).take(1000).collect();
/// let span = arrivals.last().unwrap() - arrivals.first().unwrap();
/// let rate = 999.0 / span;
/// assert!((rate - 500.0).abs() < 50.0); // ≈ 500 QPS
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonArrivals {
    rate_qps: f64,
}

impl PoissonArrivals {
    /// Creates a Poisson process at `rate_qps` queries per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_qps` is not strictly positive and finite.
    pub fn new(rate_qps: f64) -> Self {
        assert!(
            rate_qps.is_finite() && rate_qps > 0.0,
            "rate must be positive"
        );
        Self { rate_qps }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn name(&self) -> String {
        format!("poisson({})", self.rate_qps)
    }

    fn mean_rate(&self) -> f64 {
        self.rate_qps
    }

    fn stream(&self, seed: u64) -> Box<dyn Iterator<Item = f64> + Send + '_> {
        Box::new(PoissonStream {
            gap: Exponential::new(self.rate_qps),
            rng: StdRng::seed_from_u64(seed),
            now: 0.0,
        })
    }
}

/// Streaming form of [`PoissonArrivals`]: one exponential gap per
/// `next()`.
#[derive(Debug)]
struct PoissonStream {
    gap: Exponential,
    rng: StdRng,
    now: f64,
}

impl Iterator for PoissonStream {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.now += self.gap.sample(&mut self.rng);
        Some(self.now)
    }
}

/// Two-state Markov-modulated Poisson process: traffic alternates
/// between a quiet state and a surge state, with exponentially
/// distributed dwell times in each — the standard parsimonious model of
/// bursty request streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmppArrivals {
    rate_quiet: f64,
    rate_surge: f64,
    dwell_quiet_s: f64,
    dwell_surge_s: f64,
}

impl MmppArrivals {
    /// Creates a two-state MMPP: `rate_quiet`/`rate_surge` QPS with mean
    /// dwell times `dwell_quiet_s`/`dwell_surge_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if any rate or dwell time is not strictly positive and
    /// finite.
    pub fn new(rate_quiet: f64, rate_surge: f64, dwell_quiet_s: f64, dwell_surge_s: f64) -> Self {
        for v in [rate_quiet, rate_surge, dwell_quiet_s, dwell_surge_s] {
            assert!(v.is_finite() && v > 0.0, "MMPP parameters must be positive");
        }
        Self {
            rate_quiet,
            rate_surge,
            dwell_quiet_s,
            dwell_surge_s,
        }
    }
}

impl ArrivalProcess for MmppArrivals {
    fn name(&self) -> String {
        format!("mmpp({},{})", self.rate_quiet, self.rate_surge)
    }

    fn mean_rate(&self) -> f64 {
        // Time-weighted average over the stationary state occupancy.
        let total = self.dwell_quiet_s + self.dwell_surge_s;
        (self.rate_quiet * self.dwell_quiet_s + self.rate_surge * self.dwell_surge_s) / total
    }

    fn stream(&self, seed: u64) -> Box<dyn Iterator<Item = f64> + Send + '_> {
        let mut rng = StdRng::seed_from_u64(seed);
        // End of the current state's dwell period.
        let state_end = Exponential::new(1.0 / self.dwell_quiet_s).sample(&mut rng);
        Box::new(MmppStream {
            process: *self,
            rng,
            now: 0.0,
            surge: false,
            state_end,
        })
    }
}

/// Streaming form of [`MmppArrivals`]: the two-state machine advanced
/// one arrival per `next()`.
#[derive(Debug)]
struct MmppStream {
    process: MmppArrivals,
    rng: StdRng,
    now: f64,
    surge: bool,
    state_end: f64,
}

impl Iterator for MmppStream {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        loop {
            let rate = if self.surge {
                self.process.rate_surge
            } else {
                self.process.rate_quiet
            };
            let gap = Exponential::new(rate).sample(&mut self.rng);
            if self.now + gap <= self.state_end {
                self.now += gap;
                return Some(self.now);
            }
            // The gap straddles a state switch: discard it
            // (memorylessness makes redrawing in the new state exact)
            // and advance to the switch point.
            self.now = self.state_end;
            self.surge = !self.surge;
            let dwell = if self.surge {
                self.process.dwell_surge_s
            } else {
                self.process.dwell_quiet_s
            };
            self.state_end = self.now + Exponential::new(1.0 / dwell).sample(&mut self.rng);
        }
    }
}

/// Diurnal (inhomogeneous Poisson) arrivals: the rate follows a raised
/// cosine between `trough_qps` and `peak_qps` over `period_s` seconds,
/// sampled exactly by thinning against the peak rate.
///
/// Production recommendation traffic follows the day/night cycle;
/// compressing a day into a few simulated seconds stresses how a
/// configuration rides the rate swing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalArrivals {
    trough_qps: f64,
    peak_qps: f64,
    period_s: f64,
}

impl DiurnalArrivals {
    /// Creates a diurnal process cycling between `trough_qps` and
    /// `peak_qps` with the given period.
    ///
    /// # Panics
    ///
    /// Panics if the rates or period are not strictly positive and
    /// finite, or if `peak_qps < trough_qps`.
    pub fn new(trough_qps: f64, peak_qps: f64, period_s: f64) -> Self {
        for v in [trough_qps, peak_qps, period_s] {
            assert!(
                v.is_finite() && v > 0.0,
                "diurnal parameters must be positive"
            );
        }
        assert!(peak_qps >= trough_qps, "peak must be at least trough");
        Self {
            trough_qps,
            peak_qps,
            period_s,
        }
    }

    /// Instantaneous rate at time `t` seconds: trough at `t = 0`, peak
    /// at `t = period / 2`.
    pub fn rate_at(&self, t: f64) -> f64 {
        let phase = (std::f64::consts::TAU * t / self.period_s).cos();
        self.trough_qps + (self.peak_qps - self.trough_qps) * 0.5 * (1.0 - phase)
    }
}

impl ArrivalProcess for DiurnalArrivals {
    fn name(&self) -> String {
        format!("diurnal({},{})", self.trough_qps, self.peak_qps)
    }

    fn mean_rate(&self) -> f64 {
        0.5 * (self.trough_qps + self.peak_qps)
    }

    fn stream(&self, seed: u64) -> Box<dyn Iterator<Item = f64> + Send + '_> {
        Box::new(DiurnalStream {
            process: *self,
            gap: Exponential::new(self.peak_qps),
            rng: StdRng::seed_from_u64(seed),
            now: 0.0,
        })
    }
}

/// Streaming form of [`DiurnalArrivals`]: Lewis-Shedler thinning — draw
/// candidates at the peak rate and accept each with probability
/// `rate(t) / peak` — advanced one accepted arrival per `next()`.
#[derive(Debug)]
struct DiurnalStream {
    process: DiurnalArrivals,
    gap: Exponential,
    rng: StdRng,
    now: f64,
}

impl Iterator for DiurnalStream {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        loop {
            self.now += self.gap.sample(&mut self.rng);
            let accept: f64 = rand::Rng::gen(&mut self.rng);
            if accept * self.process.peak_qps <= self.process.rate_at(self.now) {
                return Some(self.now);
            }
        }
    }
}

/// Closed-loop arrivals: `clients` concurrent users, each re-issuing a
/// query `think_time_s` after its previous query completes. The offered
/// load self-regulates — a saturated system sees at most `clients`
/// queries in flight instead of an unbounded backlog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoopArrivals {
    clients: usize,
    think_time_s: f64,
}

impl ClosedLoopArrivals {
    /// Creates a closed-loop population of `clients` users with the
    /// given think time.
    ///
    /// # Panics
    ///
    /// Panics if `clients == 0` or `think_time_s` is not strictly
    /// positive and finite.
    pub fn new(clients: usize, think_time_s: f64) -> Self {
        assert!(clients > 0, "need at least one client");
        assert!(
            think_time_s.is_finite() && think_time_s > 0.0,
            "think time must be positive"
        );
        Self {
            clients,
            think_time_s,
        }
    }
}

impl ArrivalProcess for ClosedLoopArrivals {
    fn name(&self) -> String {
        format!("closed({},{}s)", self.clients, self.think_time_s)
    }

    fn mean_rate(&self) -> f64 {
        self.clients as f64 / self.think_time_s
    }

    fn stream(&self, seed: u64) -> Box<dyn Iterator<Item = f64> + Send + '_> {
        // Initial ramp: clients start staggered uniformly over one think
        // time so the population does not arrive as a single burst. Only
        // the first `clients` entries are meaningful; later entries
        // extend the ramp so open-loop consumers of the schedule still
        // get a (degenerate) valid sequence. Each offset lies in
        // [i, i+1) * step, so the schedule is monotone by construction.
        let mut rng = StdRng::seed_from_u64(seed);
        let step = self.think_time_s / self.clients as f64;
        Box::new((0usize..).map(move |i| {
            let jitter: f64 = rand::Rng::gen(&mut rng);
            (i as f64 + jitter) * step
        }))
    }

    fn closed_loop(&self) -> Option<ClosedLoopSpec> {
        Some(ClosedLoopSpec {
            clients: self.clients,
            think_time_s: self.think_time_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_strictly_increasing() {
        let times = PoissonArrivals::new(100.0).times(500, 1);
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn mean_rate_approaches_target() {
        let n = 20_000;
        let times = PoissonArrivals::new(2000.0).times(n, 2);
        let rate = (n as f64 - 1.0) / (times[n - 1] - times[0]);
        assert!(
            (rate - 2000.0).abs() / 2000.0 < 0.05,
            "observed rate {rate}"
        );
    }

    #[test]
    fn same_seed_reproduces_process() {
        let a = PoissonArrivals::new(50.0).times(100, 9);
        let b = PoissonArrivals::new(50.0).times(100, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = PoissonArrivals::new(50.0).times(10, 9);
        let b = PoissonArrivals::new(50.0).times(10, 10);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        PoissonArrivals::new(0.0);
    }

    #[test]
    fn mmpp_is_deterministic_and_ordered() {
        let p = MmppArrivals::new(100.0, 1500.0, 0.4, 0.1);
        let a = p.times(2_000, 5);
        let b = p.times(2_000, 5);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn mmpp_mean_rate_is_dwell_weighted() {
        let p = MmppArrivals::new(100.0, 1000.0, 0.9, 0.1);
        assert!((p.mean_rate() - 190.0).abs() < 1e-9);
    }

    #[test]
    fn mmpp_observed_rate_matches_mean() {
        // Few dwell cycles make a single run noisy; average over seeds.
        let p = MmppArrivals::new(200.0, 2_000.0, 0.5, 0.5);
        let n = 40_000;
        let mean_observed = (0..6)
            .map(|seed| {
                let times = p.times(n, seed);
                (n as f64 - 1.0) / (times[n - 1] - times[0])
            })
            .sum::<f64>()
            / 6.0;
        assert!(
            (mean_observed - p.mean_rate()).abs() / p.mean_rate() < 0.08,
            "observed {mean_observed} vs mean {}",
            p.mean_rate()
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Squared coefficient of variation of inter-arrival gaps: 1 for
        // Poisson, > 1 for MMPP with distinct state rates.
        fn scv(times: &[f64]) -> f64 {
            let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        }
        let poisson = PoissonArrivals::new(500.0).times(20_000, 8);
        let bursty = MmppArrivals::new(100.0, 2_000.0, 0.5, 0.1).times(20_000, 8);
        assert!(scv(&poisson) < 1.3, "poisson SCV {}", scv(&poisson));
        assert!(scv(&bursty) > 1.5, "mmpp SCV {}", scv(&bursty));
    }

    #[test]
    fn diurnal_rate_cycles_between_trough_and_peak() {
        let d = DiurnalArrivals::new(100.0, 900.0, 10.0);
        assert!((d.rate_at(0.0) - 100.0).abs() < 1e-9);
        assert!((d.rate_at(5.0) - 900.0).abs() < 1e-9);
        assert!((d.rate_at(10.0) - 100.0).abs() < 1e-9);
        assert!((d.mean_rate() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn diurnal_density_tracks_the_cycle() {
        let d = DiurnalArrivals::new(50.0, 950.0, 4.0);
        let times = d.times(30_000, 4);
        // Count arrivals in the first trough quarter vs the first peak
        // quarter of the first full cycle.
        let in_range = |lo: f64, hi: f64| times.iter().filter(|&&t| t >= lo && t < hi).count();
        let trough = in_range(0.0, 1.0);
        let peak = in_range(1.5, 2.5);
        assert!(
            peak > trough * 3,
            "peak quarter {peak} vs trough quarter {trough}"
        );
    }

    #[test]
    fn closed_loop_exposes_spec_and_staggered_start() {
        let c = ClosedLoopArrivals::new(32, 0.1);
        let spec = c.closed_loop().expect("closed loop");
        assert_eq!(spec.clients, 32);
        assert!((c.mean_rate() - 320.0).abs() < 1e-9);
        let times = c.times(32, 1);
        assert!(times.windows(2).all(|w| w[1] >= w[0]));
        // The whole population starts within one think time.
        assert!(times[31] <= 0.1 + 1e-9);
    }

    #[test]
    fn streams_reproduce_times_bit_for_bit() {
        // The streaming contract: every prefix of `stream` equals
        // `times` exactly, for every process.
        let processes: Vec<Box<dyn ArrivalProcess>> = vec![
            Box::new(PoissonArrivals::new(700.0)),
            Box::new(MmppArrivals::new(100.0, 2_000.0, 0.5, 0.1)),
            Box::new(DiurnalArrivals::new(100.0, 900.0, 4.0)),
            Box::new(ClosedLoopArrivals::new(16, 0.05)),
        ];
        for p in &processes {
            for seed in [0u64, 7, 42] {
                let streamed: Vec<f64> = p.stream(seed).take(3_000).collect();
                assert_eq!(streamed, p.times(3_000, seed), "{}", p.name());
            }
        }
        // The closed-loop stream is the jittered ramp its materialized
        // schedule always was: offset `i` lies at `(i + U[0,1)) * step`.
        let closed = ClosedLoopArrivals::new(16, 0.05);
        for seed in [0u64, 7, 42] {
            let mut rng = StdRng::seed_from_u64(seed);
            let step = 0.05 / 16.0;
            let ramp: Vec<f64> = (0..3_000)
                .map(|i| {
                    let jitter: f64 = rand::Rng::gen(&mut rng);
                    (i as f64 + jitter) * step
                })
                .collect();
            assert_eq!(closed.stream(seed).take(3_000).collect::<Vec<_>>(), ramp);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn mmpp_rejects_zero_rate() {
        MmppArrivals::new(0.0, 100.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn closed_loop_rejects_zero_clients() {
        ClosedLoopArrivals::new(0, 0.1);
    }
}
