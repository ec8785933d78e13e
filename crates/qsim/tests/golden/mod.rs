//! The golden corpus: a seeded map from an index to a scenario, and the
//! two digests of its `SimResult` that `corpus.txt` pins.
//!
//! Every entry is drawn by splitmix64 from its index alone, so entry
//! `i` is the same scenario on every machine and in every build. The
//! index ranges below are families:
//!
//! * [`PLAIN`], [`UNIFORM`] and [`MIXED`] stay inside the domains of
//!   the frozen copies of older event loops this corpus replaced:
//!   Poisson and MMPP arrivals, single-replica, uniform and
//!   mixed-speed fleets, the three policies, batch caps 1–11 and all
//!   six routers. When the file was first recorded, every one of these
//!   entries that a frozen loop served gave that loop's result bit for
//!   bit.
//! * [`LIFECYCLE`], [`AUTOSCALE`], [`MULTIPATH`] and [`RESILIENCE`]
//!   run the optional runtimes live: lifecycle schedules and fault
//!   plans, closed-loop resizing, multi-path admission, and timeouts,
//!   budgeted retries and hedges.
//! * [`MULTIPATH_RESILIENCE`], [`MULTIPATH_AUTOSCALE`] and
//!   [`AUTOSCALE_RESILIENCE`] run those runtimes in pairs. They follow
//!   the first 2,100 entries, whose lines a new family must leave
//!   byte-identical.
//!
//! Each entry stores an *outcome* digest (the latency multiset and
//! every count, rate and utilization of the result) and a *telemetry*
//! digest (the window series and the cost integral), so a change that
//! moves only telemetry shows as such.
//!
//! Regenerate the file only for a change that moves outcomes on
//! purpose, and state the reason in CHANGES.md:
//!
//! ```text
//! cargo test -q -p recpipe-qsim --test corpus -- --ignored --nocapture print_corpus \
//!     | grep '^[0-9#]' > crates/qsim/tests/golden/corpus.txt
//! ```

use std::ops::Range;

use recpipe_data::{
    ArrivalProcess, ClosedLoopArrivals, DiurnalArrivals, MmppArrivals, PoissonArrivals,
};
use recpipe_qsim::{
    AdmissionPolicy, AlwaysPrimary, AutoscaleConfig, BatchModel, BatchWindow, DeadlineAware,
    EarliestDeadlineFirst, ExpectedWait, FailurePolicy, FaultBurst, FaultKind, FaultPlan, Fifo,
    FleetController, HedgePolicy, JoinShortestQueue, LeastWorkLeft, LifecycleConfig,
    LifecycleEvent, LifecycleSchedule, LoadAdaptive, PathSet, PipelineSpec, PowerOfTwoChoices,
    ReplicaGroup, ReplicaProfile, ResilienceConfig, RetryBudget, RetryPolicy, RoundRobin, Router,
    Scenario, SchedulingPolicy, SimResult, StageSpec, Sticky, WindowStats,
};

/// Single-replica pools, per-query FIFO service, Poisson arrivals.
pub const PLAIN: Range<usize> = 0..300;
/// Uniform replicated fleets, batched, under the four load routers.
pub const UNIFORM: Range<usize> = 300..750;
/// Mixed-speed fleets, batched, under all six routers.
pub const MIXED: Range<usize> = 750..1_200;
/// Lifecycle schedules and fault plans, with and without windows.
pub const LIFECYCLE: Range<usize> = 1_200..1_500;
/// Closed-loop resizing by a queue-pressure controller.
pub const AUTOSCALE: Range<usize> = 1_500..1_650;
/// Two- and three-path ladders under the four admission policies.
pub const MULTIPATH: Range<usize> = 1_650..1_850;
/// Timeouts, retries and hedges over faulted fleets.
pub const RESILIENCE: Range<usize> = 1_850..2_100;
/// Path ladders under timeouts, retries and hedges over faulted fleets.
pub const MULTIPATH_RESILIENCE: Range<usize> = 2_100..2_200;
/// Path ladders on a closed-loop resized fleet.
pub const MULTIPATH_AUTOSCALE: Range<usize> = 2_200..2_300;
/// Timeouts, retries and hedges over a faulted, resized fleet.
pub const AUTOSCALE_RESILIENCE: Range<usize> = 2_300..2_400;
/// Number of entries.
pub const LEN: usize = AUTOSCALE_RESILIENCE.end;

/// The checked-in digests, one `index outcome telemetry` line each.
const CORPUS: &str = include_str!("corpus.txt");

/// splitmix64 draws from one entry's index.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn int(&mut self, range: Range<usize>) -> usize {
        range.start + (self.next() % (range.end - range.start) as u64) as usize
    }

    fn real(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn seed(&mut self, below: usize) -> u64 {
        self.int(0..below) as u64
    }
}

/// What serves an entry's queries: one pipeline, or a path ladder and
/// the admission policy that picks among its paths.
enum Fleet {
    Spec(PipelineSpec),
    Paths(PathSet, Box<dyn AdmissionPolicy>),
}

/// One corpus scenario.
pub struct Entry {
    fleet: Fleet,
    arrivals: Box<dyn ArrivalProcess>,
    policy: Box<dyn SchedulingPolicy>,
    router: Box<dyn Router>,
    queries: usize,
    seed: u64,
    lifecycle: Option<LifecycleConfig>,
    autoscale: Option<(AutoscaleConfig, Pressure)>,
    resilience: Option<ResilienceConfig>,
}

impl Entry {
    /// Runs the scenario.
    pub fn run(&self) -> SimResult {
        let (arrivals, n, seed) = (self.arrivals.as_ref(), self.queries, self.seed);
        let mut scenario = match &self.fleet {
            Fleet::Spec(spec) => Scenario::new(spec, arrivals, n, seed),
            Fleet::Paths(paths, admission) => {
                Scenario::multipath(paths, admission.as_ref(), arrivals, n, seed)
            }
        }
        .policy(self.policy.as_ref())
        .router(self.router.as_ref());
        if let Some(cfg) = &self.lifecycle {
            scenario = scenario.lifecycle(cfg);
        }
        if let Some(cfg) = &self.resilience {
            scenario = scenario.resilience(cfg);
        }
        // The scenario borrows the controller mutably; each run gets a copy.
        let mut autoscale = self.autoscale.clone();
        if let Some((cfg, controller)) = autoscale.as_mut() {
            scenario = scenario.autoscale(cfg, controller);
        }
        scenario.run().expect("corpus scenarios are valid")
    }
}

/// Demands `hi` replicas while a window leaves queries waiting, `lo`
/// once the backlog clears.
#[derive(Clone)]
struct Pressure {
    lo: usize,
    hi: usize,
}

impl FleetController for Pressure {
    fn name(&self) -> String {
        format!("pressure({},{})", self.lo, self.hi)
    }

    fn desired_replicas(&mut self, window: &WindowStats, _live: usize) -> usize {
        if window.mean_queue_depth > 0.5 {
            self.hi
        } else {
            self.lo
        }
    }
}

fn policy(idx: usize) -> Box<dyn SchedulingPolicy> {
    match idx {
        0 => Box::new(Fifo),
        1 => Box::new(BatchWindow::new(0.002)),
        _ => Box::new(EarliestDeadlineFirst::new(0.05)),
    }
}

/// The six built-in routers; indices below 4 are the load routers.
fn router(idx: usize) -> Box<dyn Router> {
    match idx {
        0 => Box::new(RoundRobin),
        1 => Box::new(JoinShortestQueue),
        2 => Box::new(PowerOfTwoChoices),
        3 => Box::new(LeastWorkLeft),
        4 => Box::new(ExpectedWait),
        _ => Box::new(Sticky),
    }
}

fn admission(idx: usize) -> Box<dyn AdmissionPolicy> {
    match idx {
        0 => Box::new(AlwaysPrimary),
        1 => Box::new(DeadlineAware::new(0.05)),
        2 => Box::new(LoadAdaptive::new(1.5, 0.75)),
        _ => Box::new(LoadAdaptive::new(0.8, 0.5).without_degradation()),
    }
}

/// The frozen domains' bursty traffic, or Poisson at a drawn rate.
fn open_loop(d: &mut Draw) -> Box<dyn ArrivalProcess> {
    if d.int(0..4) == 0 {
        Box::new(PoissonArrivals::new(d.real(100.0, 900.0)))
    } else {
        Box::new(MmppArrivals::new(100.0, 800.0, 0.2, 0.1))
    }
}

/// `fast` baseline replicas of `capacity` units and `slow` at
/// `speed_pct` percent speed.
fn profiles(fast: usize, slow: usize, speed_pct: usize, capacity: usize) -> Vec<ReplicaProfile> {
    let mut profiles = vec![ReplicaProfile::baseline(capacity); fast];
    profiles.extend(std::iter::repeat_n(
        ReplicaProfile::new(capacity, speed_pct as f64 / 100.0),
        slow,
    ));
    profiles
}

/// Stages `(service seconds, group)` over `groups`, each batched by
/// `batch`.
fn pipeline(groups: Vec<ReplicaGroup>, stages: &[(f64, usize)], batch: BatchModel) -> PipelineSpec {
    let mut spec = PipelineSpec::new(groups);
    for (i, &(service, group)) in stages.iter().enumerate() {
        let stage = StageSpec::new(format!("s{i}"), group, 1, service).with_batch(batch);
        spec = spec.with_stage(stage).unwrap();
    }
    spec
}

/// Batches of up to a drawn cap below `below`, each query after the
/// first adding a quarter of the base service time.
fn batching(d: &mut Draw, below: usize) -> BatchModel {
    BatchModel::new(d.int(1..below), 0.25)
}

/// Two stages on one group, `s1` in milliseconds and `s2` in half
/// milliseconds.
fn two_stages(d: &mut Draw) -> [(f64, usize); 2] {
    [
        (d.int(1..10) as f64 / 1e3, 0),
        (d.int(1..10) as f64 / 2e3, 0),
    ]
}

/// A random schedule of one to five actions over `replicas` slots
/// before `horizon`, then a provision of every slot so each failure has
/// a way back.
fn schedule(d: &mut Draw, replicas: usize, horizon: f64) -> LifecycleSchedule {
    let events = d.int(1..6);
    let mut times: Vec<f64> = (0..events).map(|_| d.real(0.0, horizon)).collect();
    times.sort_by(f64::total_cmp);
    let mut schedule = LifecycleSchedule::empty();
    for &t in &times {
        let r = d.int(0..replicas);
        let event = match d.int(0..5) {
            0 | 1 => LifecycleEvent::fail_stop(t, r),
            2 => LifecycleEvent::degrade(t, r, d.real(0.2, 1.0)),
            3 => LifecycleEvent::drain(t, r),
            _ => LifecycleEvent::recover(t, r),
        };
        schedule = schedule.with_event(event);
    }
    let back = times.last().copied().unwrap_or(0.0) + d.real(0.01, 0.3);
    for r in 0..replicas {
        schedule = schedule.with_event(LifecycleEvent::provision(back, r, d.real(0.0, 0.1)));
    }
    schedule
}

/// A correlated fault plan over `replicas` slots: a limp burst, a
/// recovering fail-stop burst, or both.
fn fault_plan(d: &mut Draw, replicas: usize, horizon: f64) -> LifecycleSchedule {
    let mut plan = FaultPlan::new(d.next());
    let kind = d.int(0..3);
    if kind != 1 {
        let count = d.int(1..replicas + 1);
        plan = plan.burst(FaultBurst {
            time: d.real(0.0, horizon),
            kind: FaultKind::Degrade {
                speed: d.real(0.2, 0.9),
            },
            count,
            recover_after_s: d.coin().then(|| d.real(0.05, horizon)),
        });
    }
    if kind != 0 {
        plan = plan.burst(FaultBurst {
            time: d.real(0.0, horizon),
            kind: FaultKind::FailStop,
            count: d.int(1..replicas + 1),
            recover_after_s: Some(d.real(0.01, 0.3)),
        });
    }
    plan.expand(replicas)
}

fn failure_policy(d: &mut Draw) -> FailurePolicy {
    if d.coin() {
        FailurePolicy::Shed
    } else {
        FailurePolicy::Requeue
    }
}

/// A drawn failure policy, with a telemetry window half the time.
fn windowed_lifecycle(d: &mut Draw) -> LifecycleConfig {
    let cfg = LifecycleConfig::new().with_failure_policy(failure_policy(d));
    if d.coin() {
        cfg.with_window(d.real(0.05, 0.3))
    } else {
        cfg
    }
}

/// The batched full/lite ladder over `group`, with a tiny third path
/// half the time.
fn ladder(d: &mut Draw, group: ReplicaGroup, batch: BatchModel) -> PathSet {
    let batched = |name, service| StageSpec::new(name, 0, 1, service).with_batch(batch);
    let paths = PathSet::new(vec![group])
        .with_path(
            "full",
            1.0,
            vec![batched("filter", 0.004), batched("rank", 0.002)],
        )
        .unwrap()
        .with_path("lite", d.real(0.1, 1.0), vec![batched("lite", 0.001)])
        .unwrap();
    if d.coin() {
        let quality = d.real(0.05, 0.5);
        paths
            .with_path("tiny", quality, vec![batched("tiny", 0.0005)])
            .unwrap()
    } else {
        paths
    }
}

/// A timeout of 10–59 ms, one of four retry policies and one of three
/// hedging choices.
fn resilience_cfg(d: &mut Draw) -> ResilienceConfig {
    let retry = match d.int(0..4) {
        0 => RetryPolicy::none(),
        1 => RetryPolicy::new(3, 0.002, 2.0).with_backoff_cap(0.010),
        2 => RetryPolicy::new(4, 0.001, 2.0).with_jitter(0.5),
        _ => RetryPolicy::new(3, 0.002, 2.0).with_budget(RetryBudget::new(5.0, 0.1)),
    };
    let cfg = ResilienceConfig::new()
        .with_timeout(d.int(10..60) as f64 / 1e3)
        .with_retry(retry);
    match d.int(0..3) {
        0 => cfg,
        1 => cfg.with_hedge(HedgePolicy::after(d.real(0.001, 0.01))),
        _ => cfg.with_hedge(HedgePolicy::at_quantile(d.real(0.8, 0.99))),
    }
}

/// A queue-pressure controller resizing group 0 of `replicas` within
/// `1..=replicas`, from a drawn initial size.
fn autoscaler(d: &mut Draw, replicas: usize) -> (AutoscaleConfig, Pressure) {
    let cfg = AutoscaleConfig::new(0, 1, replicas, d.real(0.05, 0.3))
        .with_initial_replicas(d.int(1..replicas + 1))
        .with_warmup(d.real(0.0, 0.2));
    let lo = d.int(1..replicas);
    (cfg, Pressure { lo, hi: replicas })
}

/// Traffic that swings: a diurnal ramp or the frozen domains' bursts.
fn swings(d: &mut Draw) -> Box<dyn ArrivalProcess> {
    if d.coin() {
        Box::new(DiurnalArrivals::new(
            50.0,
            d.real(300.0, 900.0),
            d.real(0.5, 2.0),
        ))
    } else {
        Box::new(MmppArrivals::new(100.0, 800.0, 0.2, 0.1))
    }
}

/// Entry `index`'s scenario.
///
/// # Panics
///
/// Panics if `index >= LEN`.
pub fn entry(index: usize) -> Entry {
    let d = &mut Draw(index as u64);
    let mut lifecycle = None;
    let mut autoscale = None;
    let mut resilience = None;
    let (fleet, arrivals, policy_idx, router_idx, queries, seed): (
        Fleet,
        Box<dyn ArrivalProcess>,
        _,
        _,
        _,
        _,
    ) = if PLAIN.contains(&index) {
        let servers = d.int(1..8);
        let stages = [
            (d.int(1..10) as f64 / 1e3, 0),
            (d.int(1..10) as f64 / 1e3, 0),
        ];
        let spec = pipeline(
            vec![ReplicaGroup::new("pool", servers)],
            &stages,
            BatchModel::per_query(),
        );
        let arrivals = Box::new(PoissonArrivals::new(d.real(10.0, 900.0)));
        (
            Fleet::Spec(spec),
            arrivals,
            0,
            d.int(0..4),
            d.int(200..1_200),
            d.seed(500),
        )
    } else if UNIFORM.contains(&index) {
        let (replicas, capacity) = (d.int(1..5), d.int(1..3));
        let stages = two_stages(d);
        let group = ReplicaGroup::replicated("fleet", capacity, replicas);
        let spec = pipeline(vec![group], &stages, batching(d, 12));
        let (policy_idx, router_idx) = (d.int(0..3), d.int(0..4));
        let arrivals = open_loop(d);
        (
            Fleet::Spec(spec),
            arrivals,
            policy_idx,
            router_idx,
            d.int(100..700),
            d.seed(300),
        )
    } else if MIXED.contains(&index) {
        let profiles = profiles(d.int(1..4), d.int(0..3), d.int(20..100), d.int(1..3));
        let stages = two_stages(d);
        let group = ReplicaGroup::heterogeneous("fleet", profiles);
        let spec = pipeline(vec![group], &stages, batching(d, 12));
        let (policy_idx, router_idx) = (d.int(0..3), d.int(0..6));
        let arrivals = open_loop(d);
        (
            Fleet::Spec(spec),
            arrivals,
            policy_idx,
            router_idx,
            d.int(100..600),
            d.seed(300),
        )
    } else if LIFECYCLE.contains(&index) {
        let replicas = d.int(2..6);
        let profiles = profiles(replicas - 1, 1, d.int(30..101), d.int(1..3));
        let rate = d.real(100.0, 700.0);
        let queries = d.int(150..500);
        let horizon = queries as f64 / rate;
        let lives = if d.coin() {
            schedule(d, replicas, horizon)
        } else {
            fault_plan(d, replicas, horizon)
        };
        let group = ReplicaGroup::heterogeneous("fleet", profiles).with_lifecycle(lives);
        let spec = pipeline(vec![group], &two_stages(d), batching(d, 8));
        let arrivals: Box<dyn ArrivalProcess> = if d.int(0..4) == 0 {
            Box::new(ClosedLoopArrivals::new(d.int(1..12), d.real(0.002, 0.02)))
        } else {
            Box::new(PoissonArrivals::new(rate))
        };
        let mut cfg = LifecycleConfig::new()
            .with_failure_policy(failure_policy(d))
            .with_warmup_speed(d.real(0.2, 1.0));
        if d.coin() {
            cfg = cfg.with_window(d.real(0.05, 0.3));
        }
        lifecycle = Some(cfg);
        (
            Fleet::Spec(spec),
            arrivals,
            d.int(0..3),
            d.int(0..6),
            queries,
            d.seed(300),
        )
    } else if AUTOSCALE.contains(&index) {
        let (replicas, capacity) = (d.int(2..6), d.int(1..3));
        let spec = pipeline(
            vec![ReplicaGroup::replicated("fleet", capacity, replicas)],
            &two_stages(d),
            batching(d, 5),
        );
        let arrivals = swings(d);
        autoscale = Some(autoscaler(d, replicas));
        (
            Fleet::Spec(spec),
            arrivals,
            d.int(0..3),
            d.int(0..6),
            d.int(100..500),
            d.seed(300),
        )
    } else if MULTIPATH.contains(&index) {
        let (replicas, capacity, batch) = (d.int(1..4), d.int(1..3), batching(d, 8));
        let mut group = ReplicaGroup::replicated("fleet", capacity, replicas);
        let queries = d.int(100..500);
        if d.int(0..3) == 0 {
            group = group.with_lifecycle(fault_plan(d, replicas, queries as f64 / 400.0));
        }
        let paths = ladder(d, group, batch);
        lifecycle = Some(windowed_lifecycle(d));
        let fleet = Fleet::Paths(paths, admission(d.int(0..4)));
        let arrivals = open_loop(d);
        (
            fleet,
            arrivals,
            d.int(0..3),
            d.int(0..6),
            queries,
            d.seed(300),
        )
    } else if RESILIENCE.contains(&index) {
        let (replicas, capacity) = (d.int(1..4), d.int(1..3));
        let queries = d.int(100..400);
        let faults = fault_plan(d, replicas, queries as f64 / 400.0);
        let group = ReplicaGroup::replicated("fleet", capacity, replicas).with_lifecycle(faults);
        let spec = pipeline(vec![group], &[(0.004, 0), (0.002, 0)], batching(d, 6));
        resilience = Some(resilience_cfg(d));
        lifecycle = Some(windowed_lifecycle(d));
        let arrivals = open_loop(d);
        (
            Fleet::Spec(spec),
            arrivals,
            d.int(0..3),
            d.int(0..6),
            queries,
            d.seed(300),
        )
    } else if MULTIPATH_RESILIENCE.contains(&index) {
        let (replicas, capacity, batch) = (d.int(1..4), d.int(1..3), batching(d, 6));
        let queries = d.int(100..400);
        let faults = fault_plan(d, replicas, queries as f64 / 400.0);
        let group = ReplicaGroup::replicated("fleet", capacity, replicas).with_lifecycle(faults);
        let paths = ladder(d, group, batch);
        resilience = Some(resilience_cfg(d));
        lifecycle = Some(windowed_lifecycle(d));
        let fleet = Fleet::Paths(paths, admission(d.int(0..4)));
        let arrivals = open_loop(d);
        (
            fleet,
            arrivals,
            d.int(0..3),
            d.int(0..6),
            queries,
            d.seed(300),
        )
    } else if MULTIPATH_AUTOSCALE.contains(&index) {
        let (replicas, capacity, batch) = (d.int(2..6), d.int(1..3), batching(d, 5));
        let group = ReplicaGroup::replicated("fleet", capacity, replicas);
        let paths = ladder(d, group, batch);
        let fleet = Fleet::Paths(paths, admission(d.int(0..4)));
        let arrivals = swings(d);
        autoscale = Some(autoscaler(d, replicas));
        (
            fleet,
            arrivals,
            d.int(0..3),
            d.int(0..6),
            d.int(100..500),
            d.seed(300),
        )
    } else {
        assert!(
            AUTOSCALE_RESILIENCE.contains(&index),
            "corpus index {index} out of range"
        );
        let (replicas, capacity) = (d.int(2..6), d.int(1..3));
        let queries = d.int(100..400);
        let faults = fault_plan(d, replicas, queries as f64 / 400.0);
        let group = ReplicaGroup::replicated("fleet", capacity, replicas).with_lifecycle(faults);
        let spec = pipeline(vec![group], &[(0.004, 0), (0.002, 0)], batching(d, 6));
        resilience = Some(resilience_cfg(d));
        lifecycle = Some(LifecycleConfig::new().with_failure_policy(failure_policy(d)));
        autoscale = Some(autoscaler(d, replicas));
        let arrivals = swings(d);
        (
            Fleet::Spec(spec),
            arrivals,
            d.int(0..3),
            d.int(0..6),
            queries,
            d.seed(300),
        )
    };
    Entry {
        fleet,
        arrivals,
        policy: policy(policy_idx),
        router: router(router_idx),
        queries,
        seed,
        lifecycle,
        autoscale,
        resilience,
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x100_0000_01b3);
    }

    fn count(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn real(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn reals(&mut self, xs: &[f64]) {
        self.count(xs.len());
        xs.iter().for_each(|&x| self.real(x));
    }
}

/// The outcome and telemetry digests of one result.
pub fn digest(mut out: SimResult) -> (u64, u64) {
    let mut h = Fnv::new();
    let n = out.latency.len();
    h.count(n);
    if out.latency.is_folded() {
        // A folded collector's bins are private; its `Debug` form is
        // the one exact view of them.
        format!("{:?}", out.latency)
            .bytes()
            .for_each(|b| h.word(b.into()));
    } else {
        for i in 0..n {
            // The mid-rank percentile of rank i + 1 reads the sorted
            // multiset's i-th sample.
            let p = 100.0 * (i as f64 + 0.5) / n as f64;
            h.word(out.latency.percentile(p).as_nanos() as u64);
        }
    }
    h.real(out.qps);
    h.count(out.completed);
    h.count(out.saturated.into());
    h.reals(&out.utilization);
    h.count(out.replica_utilization.len());
    out.replica_utilization.iter().for_each(|g| h.reals(g));
    h.real(out.mean_batch);
    h.count(out.shed);
    h.count(out.dropped);
    h.count(out.paths.len());
    for p in &out.paths {
        [p.admitted, p.completed, p.shed, p.dropped]
            .into_iter()
            .for_each(|c| h.count(c));
        [p.quality, p.mean_latency_s, p.p99_s]
            .into_iter()
            .for_each(|x| h.real(x));
    }
    h.count(out.admission_shed);
    h.count(out.resilience.is_some().into());
    if let Some(r) = &out.resilience {
        [
            r.timeouts,
            r.timed_out,
            r.retries_denied,
            r.hedges_issued,
            r.hedges_won,
        ]
        .into_iter()
        .for_each(|c| h.count(c));
        h.count(r.retries.len());
        r.retries.iter().for_each(|&c| h.count(c));
        h.real(r.wasted_service_s);
    }

    let mut t = Fnv::new();
    t.count(out.windows.len());
    for w in &out.windows {
        [
            w.arrivals,
            w.completed,
            w.shed,
            w.dropped,
            w.timed_out,
            w.live_replicas,
        ]
        .into_iter()
        .for_each(|c| t.count(c));
        [
            w.start,
            w.end,
            w.p99_s,
            w.mean_queue_depth,
            w.utilization,
            w.cost,
        ]
        .into_iter()
        .for_each(|x| t.real(x));
        for per_path in [&w.path_admitted, &w.path_completed] {
            t.count(per_path.len());
            per_path.iter().for_each(|&c| t.count(c));
        }
    }
    t.real(out.cost_integral);
    (h.0, t.0)
}

/// The pinned `(index, outcome, telemetry)` triples, in index order.
///
/// # Panics
///
/// Panics on a malformed line or a gap in the indices.
pub fn pinned() -> Vec<(usize, u64, u64)> {
    let pins: Vec<(usize, u64, u64)> = CORPUS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            assert_eq!(f.len(), 3, "malformed corpus line {l:?}");
            let hex = |s| u64::from_str_radix(s, 16).expect("hex digest");
            (f[0].parse().expect("decimal index"), hex(f[1]), hex(f[2]))
        })
        .collect();
    assert!(
        pins.iter().enumerate().all(|(i, p)| p.0 == i) && pins.len() == LEN,
        "corpus.txt must list indices 0..{LEN} in order"
    );
    pins
}

/// Replays every pinned entry `keep` selects and panics listing the
/// ones whose digests moved.
pub fn check(keep: impl Fn(usize) -> bool) {
    let moved: Vec<String> = pinned()
        .into_iter()
        .filter(|&(i, ..)| keep(i))
        .filter_map(|(i, outcome, telemetry)| {
            let got = digest(entry(i).run());
            (got != (outcome, telemetry)).then(|| {
                format!(
                    "{i}: outcome {outcome:016x} -> {:016x}, telemetry {telemetry:016x} -> {:016x}",
                    got.0, got.1
                )
            })
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} corpus entries moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}
