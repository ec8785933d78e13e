//! Replica routing: which replica of a [`ReplicaGroup`] serves a query.
//!
//! When a stage's resource group has more than one replica, every query
//! arriving at that stage must be sent to exactly one replica's private
//! queue — the load-balancer decision of a scale-out serving fleet. The
//! [`Router`] trait makes that decision pluggable, orthogonal to *when*
//! a replica launches a batch (the
//! [`SchedulingPolicy`](crate::SchedulingPolicy) seam):
//!
//! * [`RoundRobin`] — cycle through replicas, oblivious to their state:
//!   the baseline hardware load balancer;
//! * [`JoinShortestQueue`] — send to the replica with the fewest
//!   queued-plus-in-flight queries: the full-information ideal on
//!   *uniform* fleets, at the cost of inspecting every replica per
//!   decision;
//! * [`PowerOfTwoChoices`] — sample two distinct replicas uniformly and
//!   join the less loaded (the classic d=2 result: nearly all of JSQ's
//!   tail benefit with two probes instead of N);
//! * [`LeastWorkLeft`] — prefer the replica with the most free resource
//!   units (it can start new work soonest), breaking ties by fewest
//!   outstanding queries: the queue-length signal JSQ ignores;
//! * [`ExpectedWait`] — join the replica whose *expected wait*
//!   (outstanding expected service seconds divided by replica speed) is
//!   smallest: the estimator that sees through both query counts and
//!   free units on mixed-generation fleets (see below);
//! * [`Sticky`] — replica affinity: a query's later stages return to
//!   the replica an earlier stage on the same group chose (where its
//!   state — cached embeddings, per-query context — already lives),
//!   with [`JoinShortestQueue`] for the first touch.
//!
//! # The expected-wait estimator
//!
//! The simulator maintains two per-replica signals, both updated
//! incrementally on every enqueue, launch, and completion — no
//! per-decision scan:
//!
//! * **queued work** — the sum of every *queued* entry's baseline
//!   per-query service time ([`StageSpec::service_time`]), in baseline
//!   (speed-1) seconds. Exposed through
//!   [`ReplicaLoads::remaining_work`]; it must be divided by the
//!   replica's [`speed`](ReplicaLoads::speed) to become wall-clock
//!   drain time.
//! * **decayed in-flight wait** — the wall-clock seconds until the
//!   replica's in-flight batches finish: the sum of their scheduled
//!   finish times minus `now` per batch. Because each batch's finish
//!   time already folds in the replica's live speed, this term is
//!   *already* wall-clock and is **not** divided by speed again.
//!   Exposed through [`ReplicaLoads::in_flight_wait`].
//!
//! [`ReplicaLoads::expected_wait`] is the sum of the two:
//! `remaining_work / speed + in_flight_wait`. **Units matter here**:
//! `remaining_work` is base-time and gets speed-scaled at read time;
//! `in_flight_wait` is wall-clock and does not. The in-flight term
//! decays as service elapses: a batch one tick from finishing adds
//! almost nothing, one just launched its whole service time.
//!
//! The estimator still ignores a replica's internal unit parallelism
//! for queued work (the serial-drain approximation, exact for
//! capacity-1 replicas) — but it is the only built-in signal that
//! *sees replica speed*. On a fleet mixing machine generations, a
//! 2-query backlog on an old 0.5-speed box outweighs a 3-query backlog
//! on a new one; JSQ's query count and `LeastWorkLeft`'s free units
//! are both blind to the difference, which is why [`ExpectedWait`]
//! wins the tail on mixed fleets (`examples/cluster_serving.rs`
//! measures it).
//!
//! Routers must be deterministic given the replica state, the
//! [`RoutingCtx`], and the [`RouterState`]; all randomness flows
//! through the state's seeded generator, so simulations reproduce
//! bit-for-bit across runs and worker threads.
//!
//! # Availability masking
//!
//! Under the replica lifecycle (see
//! [`Scenario::lifecycle`](crate::Scenario::lifecycle)), routers only ever see
//! *routable* replicas — up or warming ones. When any replica of a
//! group is draining or down, the simulator compacts the routable
//! subset into a dense [`ReplicaLoads`] view and remaps the query's
//! same-group routing history onto compacted positions (choices that
//! point at a now-unavailable replica become `u32::MAX`, which
//! [`Sticky`] treats as "no prior choice" and falls back). A router
//! therefore never needs availability logic of its own, and the
//! `loads.len() == 1` and empty-group cases are handled before the
//! router is consulted — [`ReplicaLoads`] is never constructed empty,
//! and a fully-unavailable group surfaces as
//! [`SimError::NoAvailableReplica`](crate::SimError::NoAvailableReplica)
//! (or a shed query) instead of a router panic.
//!
//! [`ReplicaGroup`]: crate::ReplicaGroup
//! [`StageSpec::service_time`]: crate::StageSpec::service_time
//! [`StageSpec::batch_service_time`]: crate::StageSpec::batch_service_time

/// Borrowed per-replica occupancy arrays for one resource group — what
/// [`Router::route`] decides over.
///
/// The simulator maintains `queued`/`in_flight`/`free_units` counters
/// plus the expected-wait estimator columns incrementally on every
/// enqueue, launch, and completion; routers probe them directly, so a
/// JSQ decision over `n` replicas reads `2n` integers.
///
/// The simulator attaches the estimator columns
/// ([`with_estimates`](Self::with_estimates)) only for routers that
/// read them ([`Router::uses_estimates`]); a view without them reads
/// as idle ([`remaining_work`](Self::remaining_work) and
/// [`in_flight_wait`](Self::in_flight_wait) = 0) baseline-speed
/// replicas.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaLoads<'a> {
    queued: &'a [usize],
    in_flight: &'a [usize],
    free_units: &'a [usize],
    /// Estimator columns, attached only for routers that read them —
    /// one `None` store on the counter-only construction path (the
    /// loads struct is rebuilt per routing decision).
    est: Option<Estimates<'a>>,
}

/// The expected-wait estimator columns of a [`ReplicaLoads`].
#[derive(Debug, Clone, Copy)]
struct Estimates<'a> {
    /// Queued work per replica, in baseline seconds.
    work: &'a [f64],
    /// Service-rate multiplier per replica.
    speed: &'a [f64],
    /// Sum of in-flight batches' scheduled finish times per replica.
    finish_sum: &'a [f64],
    /// Number of in-flight batches per replica.
    batches: &'a [usize],
    /// Simulation clock the decayed wait is evaluated at.
    now: f64,
}

impl<'a> ReplicaLoads<'a> {
    /// Wraps one group's per-replica counter slices (index `i` of every
    /// slice describes replica `i`), with no expected-work estimates.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty or their lengths differ.
    pub fn new(queued: &'a [usize], in_flight: &'a [usize], free_units: &'a [usize]) -> Self {
        assert!(!queued.is_empty(), "replica group has no replicas");
        assert!(
            queued.len() == in_flight.len() && queued.len() == free_units.len(),
            "replica counter arrays must have equal lengths"
        );
        Self {
            queued,
            in_flight,
            free_units,
            est: None,
        }
    }

    /// Attaches the expected-wait estimator columns, each indexed by
    /// replica: queued work in baseline seconds, speed, the sum of the
    /// in-flight batches' scheduled finish times and their count, plus
    /// the simulation clock `now` (the module docs spell out the
    /// units). [`in_flight_wait`](Self::in_flight_wait) then reads
    /// `finish_sum[i] - batches[i] * now`: the exact wall-clock seconds
    /// of in-flight service left.
    ///
    /// # Panics
    ///
    /// Panics if any slice's length differs from the counter arrays'.
    pub fn with_estimates(
        mut self,
        work: &'a [f64],
        speed: &'a [f64],
        finish_sum: &'a [f64],
        batches: &'a [usize],
        now: f64,
    ) -> Self {
        let n = self.queued.len();
        assert!(
            work.len() == n && speed.len() == n && finish_sum.len() == n && batches.len() == n,
            "estimator arrays must match the counter arrays' length"
        );
        self.est = Some(Estimates {
            work,
            speed,
            finish_sum,
            batches,
            now,
        });
        self
    }

    /// Number of replicas in the group (never zero).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.queued.len()
    }

    /// Queries waiting in replica `i`'s queue.
    pub fn queued(&self, i: usize) -> usize {
        self.queued[i]
    }

    /// Queries currently in service on replica `i`.
    pub fn in_flight(&self, i: usize) -> usize {
        self.in_flight[i]
    }

    /// Resource units currently free on replica `i`.
    pub fn free_units(&self, i: usize) -> usize {
        self.free_units[i]
    }

    /// Replica `i`'s total outstanding queries — the load metric
    /// [`JoinShortestQueue`] and [`PowerOfTwoChoices`] compare.
    pub fn load(&self, i: usize) -> usize {
        self.queued[i] + self.in_flight[i]
    }

    /// Queued expected work on replica `i` in **baseline seconds**
    /// (divide by [`speed`](Self::speed) for wall clock; module docs
    /// spell out the estimator and its units). In-flight batches count
    /// in [`in_flight_wait`](Self::in_flight_wait) instead. Reads 0.0
    /// when the view was built without estimates.
    pub fn remaining_work(&self, i: usize) -> f64 {
        self.est.map_or(0.0, |e| e.work[i])
    }

    /// Replica `i`'s service-rate multiplier (1.0 when the view was
    /// built without estimates).
    pub fn speed(&self, i: usize) -> f64 {
        self.est.map_or(1.0, |e| e.speed[i])
    }

    /// Decayed wall-clock seconds until replica `i`'s in-flight batches
    /// finish: `finish_sum - batches * now`, already speed-scaled.
    /// Reads 0.0 when the view was built without estimates.
    pub fn in_flight_wait(&self, i: usize) -> f64 {
        // Clamp: finish times are >= now by construction, but the
        // incremental sum can carry float dust after many updates.
        self.est.map_or(0.0, |e| {
            (e.finish_sum[i] - e.batches[i] as f64 * e.now).max(0.0)
        })
    }

    /// Expected wall-clock drain time of replica `i`'s outstanding
    /// work: [`remaining_work`](Self::remaining_work) `/`
    /// [`speed`](Self::speed) `+`
    /// [`in_flight_wait`](Self::in_flight_wait) — the [`ExpectedWait`]
    /// signal. Only the first term is speed-scaled; the in-flight term
    /// is already wall clock (module docs).
    pub fn expected_wait(&self, i: usize) -> f64 {
        self.remaining_work(i) / self.speed(i) + self.in_flight_wait(i)
    }
}

/// Per-decision routing context: which query is being routed, at which
/// stage, and which replica each of its *prior* stages chose — the
/// affinity signal [`Sticky`] consumes.
///
/// The simulator records every routing decision as it is made and
/// threads the query's history into each subsequent decision; routers
/// that ignore affinity simply never touch the context.
#[derive(Debug, Clone, Copy)]
pub struct RoutingCtx<'a> {
    /// The query being routed (its arrival-order id).
    pub query: usize,
    /// The pipeline stage it is arriving at.
    pub stage: usize,
    /// The resource group serving that stage.
    pub group: usize,
    /// Replica index (within its stage's group) chosen at each prior
    /// stage, indexed by stage; length `<= stage`.
    prior_replicas: &'a [u32],
    /// Resource group of every pipeline stage (the full, static
    /// stage → group map).
    stage_groups: &'a [usize],
}

impl<'a> RoutingCtx<'a> {
    /// A context carrying the query's full routing history.
    /// `prior_replicas[s]` is the replica index stage `s` chose within
    /// `stage_groups[s]`; both slices are indexed by stage, and
    /// `prior_replicas` covers stages `0..stage`.
    pub fn new(
        query: usize,
        stage: usize,
        group: usize,
        prior_replicas: &'a [u32],
        stage_groups: &'a [usize],
    ) -> Self {
        // Built once per query-stage dispatch, so the documented slice
        // invariants are debug-checked rather than paid for in release.
        debug_assert!(prior_replicas.len() <= stage, "history exceeds stage");
        debug_assert!(stage < stage_groups.len() || stage_groups.is_empty());
        Self {
            query,
            stage,
            group,
            prior_replicas,
            stage_groups,
        }
    }

    /// A history-free context (stage 0, or a caller without routing
    /// records): every affinity probe reports no prior choice.
    pub fn root(query: usize, stage: usize, group: usize) -> Self {
        Self::new(query, stage, group, &[], &[])
    }

    /// The replica a given prior stage chose, if recorded.
    // simlint: allow(dead-pub) -- Router seam: a user's router reads any earlier stage's choice
    pub fn prior_replica(&self, stage: usize) -> Option<usize> {
        self.prior_replicas.get(stage).map(|&r| r as usize)
    }

    /// The replica chosen by the query's most recent prior stage on the
    /// *same* resource group — where the query's state already lives.
    /// `None` at a group's first touch.
    pub fn prior_on_group(&self) -> Option<usize> {
        (0..self.prior_replicas.len().min(self.stage))
            .rev()
            .find(|&s| self.stage_groups.get(s) == Some(&self.group))
            .map(|s| self.prior_replicas[s] as usize)
    }
}

/// Advances a splitmix64 stream and returns its next value — the one
/// generator behind routers, admission policies, fault plans and retry
/// jitter.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-group mutable routing state owned by the simulator: a round-robin
/// cursor and a seeded splitmix64 stream for randomized routers.
///
/// One `RouterState` exists per resource group per simulation run, so
/// routers themselves stay immutable and shareable across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterState {
    next: usize,
    rng: u64,
}

impl RouterState {
    /// Creates routing state seeded for one resource group.
    pub fn new(seed: u64) -> Self {
        Self { next: 0, rng: seed }
    }

    /// Advances the round-robin cursor over `n` replicas and returns
    /// the previous position.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn cycle(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot cycle over zero replicas");
        let at = self.next % n;
        self.next = (at + 1) % n;
        at
    }

    /// Draws the next value of the seeded splitmix64 stream.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.rng)
    }
}

/// Picks which replica of a resource group serves an arriving query.
///
/// Implementations must be deterministic functions of the replica
/// state, the [`RoutingCtx`], and the [`RouterState`] — identical
/// inputs must produce identical choices, or simulation results stop
/// being reproducible. All randomness must come from
/// [`RouterState::next_u64`].
///
/// The returned index must be `< loads.len()`; the simulator panics
/// otherwise. `loads` is never empty.
pub trait Router: std::fmt::Debug + Send + Sync {
    /// Short name for reports.
    fn name(&self) -> String;

    /// Chooses a replica index for one arriving query by probing the
    /// group's per-replica [`ReplicaLoads`]. `ctx` carries the query's
    /// identity and its prior stages' replica choices; state-oblivious
    /// routers ignore it.
    fn route(
        &self,
        loads: &ReplicaLoads<'_>,
        ctx: &RoutingCtx<'_>,
        state: &mut RouterState,
    ) -> usize;

    /// Whether this router ever reads the expected-work estimator
    /// signals ([`ReplicaLoads::remaining_work`],
    /// [`ReplicaLoads::speed`], [`ReplicaLoads::in_flight_wait`] and
    /// [`ReplicaLoads::expected_wait`]). When `false`, the
    /// simulator skips maintaining the estimator arrays entirely on
    /// the per-event hot path and offers loads without them — results
    /// are unchanged because the router never looks.
    ///
    /// Defaults to `true` (custom routers are assumed to read
    /// everything); override to `false` only if no code path touches
    /// the estimator signals.
    fn uses_estimates(&self) -> bool {
        true
    }

    /// Whether this router ever reads the query's prior-stage routing
    /// history ([`RoutingCtx::prior_replica`] /
    /// [`RoutingCtx::prior_on_group`]). When `false`, the simulator
    /// skips recording per-query choices and offers an empty history —
    /// results are unchanged because the router never looks.
    ///
    /// Defaults to `true`; override to `false` only if no code path
    /// touches the context's history.
    fn uses_history(&self) -> bool {
        true
    }
}

/// Round-robin routing: cycle through replicas in order, ignoring their
/// occupancy — the oblivious baseline every stateful router is measured
/// against. On single-replica groups (and therefore on every
/// pre-cluster pipeline) it is the identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin;

impl Router for RoundRobin {
    fn name(&self) -> String {
        "round-robin".into()
    }

    fn route(
        &self,
        loads: &ReplicaLoads<'_>,
        _ctx: &RoutingCtx<'_>,
        state: &mut RouterState,
    ) -> usize {
        state.cycle(loads.len())
    }

    fn uses_estimates(&self) -> bool {
        false
    }

    fn uses_history(&self) -> bool {
        false
    }
}

/// Join-the-shortest-queue routing: inspect every replica and join the
/// one with the fewest outstanding queries (ties break toward the
/// lowest index). The full-information upper bound on *count-based*
/// load-aware routing — on mixed-generation fleets the count is blind
/// to replica speed, which is what [`ExpectedWait`] exploits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinShortestQueue;

impl Router for JoinShortestQueue {
    fn name(&self) -> String {
        "jsq".into()
    }

    fn route(
        &self,
        loads: &ReplicaLoads<'_>,
        _ctx: &RoutingCtx<'_>,
        state: &mut RouterState,
    ) -> usize {
        let _ = state;
        let mut best = 0;
        let mut best_load = loads.load(0);
        for i in 1..loads.len() {
            let load = loads.load(i);
            if load < best_load {
                best = i;
                best_load = load;
            }
        }
        best
    }

    fn uses_estimates(&self) -> bool {
        false
    }

    fn uses_history(&self) -> bool {
        false
    }
}

/// Power-of-two-choices routing: sample two distinct replicas uniformly
/// at random and join the less loaded (ties break toward the lower
/// index). Mitzenmacher's d=2 result: an exponential improvement in
/// maximum queue length over random/oblivious routing, with only two
/// probes per query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PowerOfTwoChoices;

impl Router for PowerOfTwoChoices {
    fn name(&self) -> String {
        "po2".into()
    }

    fn route(
        &self,
        loads: &ReplicaLoads<'_>,
        _ctx: &RoutingCtx<'_>,
        state: &mut RouterState,
    ) -> usize {
        let n = loads.len();
        if n == 1 {
            return 0;
        }
        let i = (state.next_u64() % n as u64) as usize;
        let mut j = (state.next_u64() % (n as u64 - 1)) as usize;
        if j >= i {
            j += 1;
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        if loads.load(hi) < loads.load(lo) {
            hi
        } else {
            lo
        }
    }

    fn uses_estimates(&self) -> bool {
        false
    }

    fn uses_history(&self) -> bool {
        false
    }
}

/// Least-work-left routing: join the replica with the most free
/// resource units — the one that can start new work soonest — breaking
/// ties by fewest outstanding queries ([`ReplicaLoads::load`]), then
/// by lowest index.
///
/// This is the router that uses [`ReplicaLoads::free_units`]: on
/// batched fleets, query counts mislead — a replica with eight queries
/// riding *one* in-service batch will free all of them at once and
/// holds no more units than a replica grinding one long query — while
/// free units directly measure how much of the replica's capacity is
/// already spoken for. On per-query single-unit fleets it degenerates
/// toward JSQ (free units and load are complementary), so the
/// interesting comparisons are batched and multi-unit groups. Measured
/// on those (`examples/cluster_serving.rs`): funneling arrivals toward
/// startable replicas forms the deepest batches of any router, but
/// [`JoinShortestQueue`]'s query count remains the better *tail
/// latency* signal at high utilization — and both lose to
/// [`ExpectedWait`] once replica generations mix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastWorkLeft;

impl LeastWorkLeft {
    /// Whether replica `(free_b, load_b)` beats `(free_a, load_a)`:
    /// more free units, or equal units and fewer outstanding queries.
    fn better(free_a: usize, load_a: usize, free_b: usize, load_b: usize) -> bool {
        free_b > free_a || (free_b == free_a && load_b < load_a)
    }
}

impl Router for LeastWorkLeft {
    fn name(&self) -> String {
        "least-work".into()
    }

    fn route(
        &self,
        loads: &ReplicaLoads<'_>,
        _ctx: &RoutingCtx<'_>,
        state: &mut RouterState,
    ) -> usize {
        let _ = state;
        let mut best = 0;
        for i in 1..loads.len() {
            if Self::better(
                loads.free_units(best),
                loads.load(best),
                loads.free_units(i),
                loads.load(i),
            ) {
                best = i;
            }
        }
        best
    }

    fn uses_estimates(&self) -> bool {
        false
    }

    fn uses_history(&self) -> bool {
        false
    }
}

/// Expected-wait routing: join the replica whose outstanding work will
/// drain soonest — [`ReplicaLoads::expected_wait`], i.e. remaining
/// expected service seconds divided by the replica's speed. Ties break
/// by fewest outstanding queries, then lowest index, so on a view with
/// no estimator data (all waits 0.0) it degenerates to
/// [`JoinShortestQueue`] exactly.
///
/// This is the ROADMAP's "expected-wait routing" item and the router
/// heterogeneous fleets need: JSQ's query count treats a slow
/// old-generation replica like a fast one, and [`LeastWorkLeft`]'s
/// free units say nothing about how long the busy units stay busy.
/// Weighing booked work by replica speed beats both on
/// mixed-generation fleets at high utilization
/// (`examples/cluster_serving.rs` prints the measured table), while on
/// uniform fleets it tracks JSQ closely (same signal, finer-grained
/// units).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpectedWait;

impl ExpectedWait {
    /// Whether `(wait_b, load_b)` beats `(wait_a, load_a)`: strictly
    /// smaller expected wait, or an exact tie broken by fewer
    /// outstanding queries.
    fn better(wait_a: f64, load_a: usize, wait_b: f64, load_b: usize) -> bool {
        wait_b < wait_a || (wait_b == wait_a && load_b < load_a)
    }
}

impl Router for ExpectedWait {
    fn name(&self) -> String {
        "expected-wait".into()
    }

    fn route(
        &self,
        loads: &ReplicaLoads<'_>,
        _ctx: &RoutingCtx<'_>,
        state: &mut RouterState,
    ) -> usize {
        let _ = state;
        let mut best = 0;
        let mut best_wait = loads.expected_wait(0);
        for i in 1..loads.len() {
            let wait = loads.expected_wait(i);
            if Self::better(best_wait, loads.load(best), wait, loads.load(i)) {
                best = i;
                best_wait = wait;
            }
        }
        best
    }

    fn uses_history(&self) -> bool {
        false
    }
}

/// Replica-affinity routing: a query's later stages return to the
/// replica an earlier stage *on the same resource group* chose — where
/// its per-query state (cached embedding rows, intermediate scores)
/// already lives — falling back to [`JoinShortestQueue`] at the group's
/// first touch.
///
/// Affinity is a *constraint*, not a load signal: once a query touches
/// a group, its later stages on that group ignore occupancy entirely.
/// That trades load balance for locality — see ARCHITECTURE.md's
/// heterogeneous-fleets notes for when the trade wins (multi-stage
/// pipelines on mixed-generation fleets, where re-routing mid-query
/// risks finishing a fast-started query on a slow replica) and when it
/// loses (uniform fleets under bursts, where the fallback decision gets
/// frozen at stage 0 on information that has gone stale).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sticky;

impl Router for Sticky {
    fn name(&self) -> String {
        "sticky(jsq)".into()
    }

    fn route(
        &self,
        loads: &ReplicaLoads<'_>,
        ctx: &RoutingCtx<'_>,
        state: &mut RouterState,
    ) -> usize {
        match ctx.prior_on_group() {
            Some(r) if r < loads.len() => r,
            _ => JoinShortestQueue.route(loads, ctx, state),
        }
    }

    fn uses_estimates(&self) -> bool {
        false
    }

    fn uses_history(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> RoutingCtx<'static> {
        RoutingCtx::root(0, 0, 0)
    }

    /// One replica's occupancy as a plain record: the input of both the
    /// [`ReplicaLoads`] the one `route` reads and the reference
    /// decisions below.
    #[derive(Debug, Clone, Copy)]
    struct Snap {
        queued: usize,
        in_flight: usize,
        free_units: usize,
        remaining_work: f64,
        speed: f64,
    }

    impl Snap {
        fn load(&self) -> usize {
            self.queued + self.in_flight
        }

        fn expected_wait(&self) -> f64 {
            self.remaining_work / self.speed
        }
    }

    /// A group's replicas as owned columns, viewed through
    /// [`ReplicaLoads`] with the estimator columns attached.
    struct Columns {
        queued: Vec<usize>,
        in_flight: Vec<usize>,
        free_units: Vec<usize>,
        work: Vec<f64>,
        speed: Vec<f64>,
        finish_sum: Vec<f64>,
        batches: Vec<usize>,
    }

    impl Columns {
        fn of(replicas: &[Snap]) -> Self {
            Self {
                queued: replicas.iter().map(|r| r.queued).collect(),
                in_flight: replicas.iter().map(|r| r.in_flight).collect(),
                free_units: replicas.iter().map(|r| r.free_units).collect(),
                work: replicas.iter().map(|r| r.remaining_work).collect(),
                speed: replicas.iter().map(|r| r.speed).collect(),
                finish_sum: vec![0.0; replicas.len()],
                batches: vec![0; replicas.len()],
            }
        }

        fn loads(&self) -> ReplicaLoads<'_> {
            ReplicaLoads::new(&self.queued, &self.in_flight, &self.free_units).with_estimates(
                &self.work,
                &self.speed,
                &self.finish_sum,
                &self.batches,
                0.0,
            )
        }
    }

    /// Routes over `replicas` through the one [`Router::route`].
    fn route(
        router: &dyn Router,
        replicas: &[Snap],
        ctx: &RoutingCtx<'_>,
        state: &mut RouterState,
    ) -> usize {
        router.route(&Columns::of(replicas).loads(), ctx, state)
    }

    /// The built-ins, in the order [`reference_route`] indexes them.
    fn builtins() -> [&'static dyn Router; 6] {
        [
            &RoundRobin,
            &JoinShortestQueue,
            &PowerOfTwoChoices,
            &LeastWorkLeft,
            &ExpectedWait,
            &Sticky,
        ]
    }

    /// Built-in `which`'s decision written independently over
    /// per-replica records — the reference its `route` over
    /// [`ReplicaLoads`] is checked against, tie-breaks and
    /// [`RouterState`] draws included.
    fn reference_route(
        which: usize,
        replicas: &[Snap],
        ctx: &RoutingCtx<'_>,
        state: &mut RouterState,
    ) -> usize {
        let mut best = 0;
        match which {
            0 => return state.cycle(replicas.len()),
            1 => {
                for (i, r) in replicas.iter().enumerate().skip(1) {
                    if r.load() < replicas[best].load() {
                        best = i;
                    }
                }
            }
            2 => {
                let n = replicas.len();
                if n == 1 {
                    return 0;
                }
                let i = (state.next_u64() % n as u64) as usize;
                let mut j = (state.next_u64() % (n as u64 - 1)) as usize;
                if j >= i {
                    j += 1;
                }
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                best = if replicas[hi].load() < replicas[lo].load() {
                    hi
                } else {
                    lo
                };
            }
            3 => {
                for (i, r) in replicas.iter().enumerate().skip(1) {
                    let b = &replicas[best];
                    if LeastWorkLeft::better(b.free_units, b.load(), r.free_units, r.load()) {
                        best = i;
                    }
                }
            }
            4 => {
                for (i, r) in replicas.iter().enumerate().skip(1) {
                    let b = &replicas[best];
                    if ExpectedWait::better(
                        b.expected_wait(),
                        b.load(),
                        r.expected_wait(),
                        r.load(),
                    ) {
                        best = i;
                    }
                }
            }
            _ => {
                return match ctx.prior_on_group() {
                    Some(r) if r < replicas.len() => r,
                    _ => reference_route(1, replicas, ctx, state),
                }
            }
        }
        best
    }

    fn snap(queued: usize, in_flight: usize) -> Snap {
        Snap {
            queued,
            in_flight,
            free_units: 0,
            remaining_work: 0.0,
            speed: 1.0,
        }
    }

    #[test]
    fn round_robin_cycles_in_order() {
        let replicas = vec![snap(9, 9); 3];
        let mut state = RouterState::new(0);
        let picks: Vec<usize> = (0..7)
            .map(|_| route(&RoundRobin, &replicas, &ctx(), &mut state))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn jsq_picks_least_loaded_with_stable_ties() {
        let mut state = RouterState::new(0);
        let replicas = vec![snap(3, 1), snap(0, 2), snap(1, 0)];
        assert_eq!(route(&JoinShortestQueue, &replicas, &ctx(), &mut state), 2);
        // Ties break toward the lowest index.
        let tied = vec![snap(1, 1), snap(2, 0), snap(0, 2)];
        assert_eq!(route(&JoinShortestQueue, &tied, &ctx(), &mut state), 0);
    }

    #[test]
    fn po2_probes_two_distinct_replicas_and_joins_the_lighter() {
        let mut state = RouterState::new(42);
        // One empty replica among loaded ones: po2 must pick the empty
        // one whenever it is probed, and always a valid index.
        let replicas = vec![snap(5, 1), snap(0, 0), snap(5, 1), snap(5, 1)];
        let mut hit_empty = 0;
        for _ in 0..200 {
            let pick = route(&PowerOfTwoChoices, &replicas, &ctx(), &mut state);
            assert!(pick < replicas.len());
            if pick == 1 {
                hit_empty += 1;
            }
        }
        // Probability the empty replica is among the two probes is
        // 1 - (3/4)(2/3) = 1/2; 200 draws make misses astronomically
        // unlikely to stay below 60.
        assert!(hit_empty > 60, "empty replica picked {hit_empty}/200");
    }

    #[test]
    fn po2_on_single_replica_is_identity() {
        let mut state = RouterState::new(7);
        assert_eq!(
            route(&PowerOfTwoChoices, &[snap(4, 4)], &ctx(), &mut state),
            0
        );
    }

    #[test]
    fn splitmix64_matches_the_reference_vector() {
        let mut state = 0;
        let drawn: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        let expected = [
            0xe220_a839_7b1d_cdaf,
            0x6e78_9e6a_a1b9_65f4,
            0x06c4_5d18_8009_454f,
        ];
        assert_eq!(drawn, expected);
    }

    #[test]
    fn router_state_is_deterministic() {
        let mut a = RouterState::new(9);
        let mut b = RouterState::new(9);
        let da: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let db: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(da, db);
        assert_ne!(da[0], RouterState::new(10).next_u64());
    }

    #[test]
    fn load_sums_queued_and_in_flight() {
        assert_eq!(ReplicaLoads::new(&[3], &[2], &[0]).load(0), 5);
    }

    fn snap_free(queued: usize, in_flight: usize, free_units: usize) -> Snap {
        Snap {
            free_units,
            ..snap(queued, in_flight)
        }
    }

    fn snap_wait(queued: usize, in_flight: usize, work: f64, speed: f64) -> Snap {
        Snap {
            remaining_work: work,
            speed,
            ..snap(queued, in_flight)
        }
    }

    #[test]
    fn least_work_left_prefers_free_units_then_fewest_outstanding() {
        let mut state = RouterState::new(0);
        // Most free units wins even against a shorter queue.
        let replicas = vec![snap_free(0, 1, 0), snap_free(3, 2, 2), snap_free(1, 1, 1)];
        assert_eq!(route(&LeastWorkLeft, &replicas, &ctx(), &mut state), 1);
        // Equal free units: fewest outstanding queries breaks the tie.
        let tied_units = vec![snap_free(4, 0, 1), snap_free(1, 1, 1), snap_free(0, 3, 1)];
        assert_eq!(route(&LeastWorkLeft, &tied_units, &ctx(), &mut state), 1);
        // Full ties resolve to the lowest index.
        let all_tied = vec![snap_free(1, 1, 1); 3];
        assert_eq!(route(&LeastWorkLeft, &all_tied, &ctx(), &mut state), 0);
    }

    #[test]
    fn expected_wait_divides_work_by_speed() {
        let mut state = RouterState::new(0);
        // Same booked work everywhere: the fastest replica drains
        // soonest and wins.
        let same_work = vec![
            snap_wait(2, 1, 0.030, 1.0),
            snap_wait(2, 1, 0.030, 0.5),
            snap_wait(2, 1, 0.030, 1.5),
        ];
        assert_eq!(route(&ExpectedWait, &same_work, &ctx(), &mut state), 2);
        // A shorter queue on a slow replica loses to a longer queue on
        // a fast one — the signal JSQ cannot see.
        let mixed = vec![snap_wait(2, 0, 0.020, 0.5), snap_wait(3, 0, 0.030, 1.0)];
        assert_eq!(route(&ExpectedWait, &mixed, &ctx(), &mut state), 1);
        // Exact wait ties break by fewest outstanding, then index.
        let tied = vec![
            snap_wait(3, 0, 0.010, 1.0),
            snap_wait(1, 0, 0.010, 1.0),
            snap_wait(1, 0, 0.010, 1.0),
        ];
        assert_eq!(route(&ExpectedWait, &tied, &ctx(), &mut state), 1);
    }

    #[test]
    fn expected_wait_without_estimates_degenerates_to_jsq() {
        // A loads view built from counters alone reads all waits as
        // 0.0; the tie-break chain (load, then index) is exactly JSQ's
        // decision on every input.
        let queued = [3usize, 0, 5, 1, 2];
        let in_flight = [1usize, 2, 0, 1, 4];
        let free_units = [0usize, 2, 1, 3, 1];
        let loads = ReplicaLoads::new(&queued, &in_flight, &free_units);
        let mut a = RouterState::new(1);
        let mut b = RouterState::new(1);
        assert_eq!(
            ExpectedWait.route(&loads, &ctx(), &mut a),
            JoinShortestQueue.route(&loads, &ctx(), &mut b),
        );
    }

    #[test]
    fn sticky_reuses_the_prior_choice_on_the_same_group() {
        let mut state = RouterState::new(0);
        let replicas = vec![snap(9, 9), snap(0, 0), snap(9, 9)];
        // Stage 2 routing for a query whose stage-0 choice (group 0)
        // was replica 2 and stage-1 choice (group 1) was replica 0.
        let prior = [2u32, 0];
        let groups = [0usize, 1, 0];
        let ctx = RoutingCtx::new(7, 2, 0, &prior, &groups);
        // Affinity overrides load: replica 1 is empty but 2 holds the
        // query's state.
        assert_eq!(route(&Sticky, &replicas, &ctx, &mut state), 2);
        // A different group (1) only has the stage-1 record: replica 0.
        let ctx_g1 = RoutingCtx::new(7, 2, 1, &prior, &groups);
        assert_eq!(route(&Sticky, &replicas, &ctx_g1, &mut state), 0);
    }

    #[test]
    fn sticky_falls_back_on_first_touch() {
        let mut state = RouterState::new(0);
        let replicas = vec![snap(9, 9), snap(0, 0)];
        // No prior stages: the JSQ fallback picks the empty replica.
        let first = RoutingCtx::root(3, 0, 0);
        assert_eq!(route(&Sticky, &replicas, &first, &mut state), 1);
    }

    #[test]
    fn routing_ctx_prior_lookups() {
        let prior = [1u32, 0];
        let groups = [0usize, 1, 1];
        let ctx = RoutingCtx::new(5, 2, 1, &prior, &groups);
        assert_eq!(ctx.prior_replica(0), Some(1));
        assert_eq!(ctx.prior_replica(1), Some(0));
        assert_eq!(ctx.prior_replica(2), None);
        // Most recent same-group (group 1) prior is stage 1.
        assert_eq!(ctx.prior_on_group(), Some(0));
        // Root contexts have no history.
        assert_eq!(RoutingCtx::root(5, 2, 1).prior_on_group(), None);
    }

    #[test]
    fn indexed_routing_matches_snapshot_routing_for_every_builtin() {
        // The one `route` must make the identical decision (and consume
        // identical RouterState randomness) as each built-in's
        // reference decision over per-replica records.
        let queued = [3usize, 0, 5, 1, 2];
        let in_flight = [1usize, 2, 0, 1, 4];
        let free_units = [0usize, 2, 1, 3, 1];
        let work = [0.02f64, 0.0, 0.05, 0.004, 0.02];
        let speed = [1.0f64, 0.6, 1.0, 0.6, 1.5];
        let replicas: Vec<Snap> = (0..queued.len())
            .map(|i| Snap {
                queued: queued[i],
                in_flight: in_flight[i],
                free_units: free_units[i],
                remaining_work: work[i],
                speed: speed[i],
            })
            .collect();
        let loads = ReplicaLoads::new(&queued, &in_flight, &free_units)
            .with_estimates(&work, &speed, &[0.0; 5], &[0; 5], 0.0);
        for (which, router) in builtins().into_iter().enumerate() {
            let mut a = RouterState::new(99);
            let mut b = RouterState::new(99);
            for _ in 0..64 {
                let via_snapshots = reference_route(which, &replicas, &ctx(), &mut a);
                let via_loads = router.route(&loads, &ctx(), &mut b);
                assert_eq!(via_snapshots, via_loads, "router {}", router.name());
            }
            assert_eq!(a, b, "router {} diverged RouterState", router.name());
        }
    }

    #[test]
    fn expected_wait_units_on_a_two_speed_fleet() {
        // Units pin: `remaining_work` is base-time and is divided by
        // speed; `in_flight_wait` is wall-clock and is NOT. Two
        // replicas with identical booked signals but different speeds
        // must differ only through the queued-work term.
        let queued = [2usize, 2];
        let in_flight = [1usize, 1];
        let free_units = [0usize, 0];
        let work = [0.040f64, 0.040]; // base seconds of queued work
        let speed = [1.0f64, 0.5]; // new-gen vs old-gen replica
        let finish_sum = [10.025f64, 10.025]; // one batch each, finishes at t=10.025
        let batches = [1usize, 1];
        let now = 10.0;
        let loads = ReplicaLoads::new(&queued, &in_flight, &free_units).with_estimates(
            &work,
            &speed,
            &finish_sum,
            &batches,
            now,
        );
        // Replica 0: 0.040 / 1.0 + 0.025 = 0.065 s.
        assert!((loads.expected_wait(0) - 0.065).abs() < 1e-12);
        // Replica 1: 0.040 / 0.5 + 0.025 = 0.105 s — the wall-clock
        // in-flight residual is identical (the batch's finish time
        // already folded the slow speed in when it was scheduled).
        assert!((loads.expected_wait(1) - 0.105).abs() < 1e-12);
        assert!((loads.in_flight_wait(0) - 0.025).abs() < 1e-12);
        assert!((loads.in_flight_wait(1) - 0.025).abs() < 1e-12);
        // And the router picks the fast replica.
        let mut state = RouterState::new(0);
        assert_eq!(ExpectedWait.route(&loads, &ctx(), &mut state), 0);
    }

    #[test]
    fn in_flight_wait_decays_to_zero_at_batch_finish() {
        let queued = [0usize];
        let in_flight = [4usize];
        let free_units = [0usize];
        let finish_sum = [7.5f64];
        let batches = [1usize];
        let at = |now: f64| {
            ReplicaLoads::new(&queued, &in_flight, &free_units)
                .with_estimates(&[0.0], &[1.0], &finish_sum, &batches, now)
                .in_flight_wait(0)
        };
        assert!((at(7.0) - 0.5).abs() < 1e-12);
        assert!((at(7.4) - 0.1).abs() < 1e-12);
        assert_eq!(at(7.5), 0.0);
        // Float dust past the finish clamps to zero, never negative.
        assert_eq!(at(7.5 + 1e-9), 0.0);
        // Without the estimator columns the wait reads zero.
        assert_eq!(
            ReplicaLoads::new(&queued, &in_flight, &free_units).in_flight_wait(0),
            0.0
        );
    }

    #[test]
    fn capability_flags_match_what_each_builtin_reads() {
        assert!(!RoundRobin.uses_estimates() && !RoundRobin.uses_history());
        assert!(!JoinShortestQueue.uses_estimates() && !JoinShortestQueue.uses_history());
        assert!(!PowerOfTwoChoices.uses_estimates() && !PowerOfTwoChoices.uses_history());
        assert!(!LeastWorkLeft.uses_estimates() && !LeastWorkLeft.uses_history());
        assert!(ExpectedWait.uses_estimates() && !ExpectedWait.uses_history());
        assert!(!Sticky.uses_estimates() && Sticky.uses_history());
        // Custom routers default to the conservative "reads everything".
        #[derive(Debug)]
        struct Custom;
        impl Router for Custom {
            fn name(&self) -> String {
                "custom".into()
            }
            fn route(
                &self,
                _loads: &ReplicaLoads<'_>,
                _ctx: &RoutingCtx<'_>,
                _state: &mut RouterState,
            ) -> usize {
                0
            }
        }
        assert!(Custom.uses_estimates() && Custom.uses_history());
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn replica_loads_rejects_mismatched_arrays() {
        ReplicaLoads::new(&[1, 2], &[0], &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "match the counter arrays")]
    fn replica_loads_rejects_mismatched_decay_arrays() {
        let loads = ReplicaLoads::new(&[1, 2], &[0, 0], &[1, 1]);
        let _ = loads.with_estimates(&[0.0, 0.0], &[1.0, 1.0], &[0.0], &[0, 0], 0.0);
    }

    #[test]
    #[should_panic(expected = "match the counter arrays")]
    fn replica_loads_rejects_mismatched_estimates() {
        let loads = ReplicaLoads::new(&[1, 2], &[0, 0], &[1, 1]);
        let _ = loads.with_estimates(&[0.0], &[1.0, 1.0], &[0.0, 0.0], &[0, 0], 0.0);
    }
}
