use std::cmp::Ordering;
use std::collections::VecDeque;
use std::ops::{ControlFlow, Range};
use std::time::Duration;

use recpipe_data::ArrivalProcess;
use recpipe_metrics::LatencyStats;

use crate::{
    AdmissionPolicy, AutoscaleConfig, FleetController, LifecycleConfig, PathSet, PipelineSpec,
    QueueEntry, Release, ReplicaLoads, ResilienceConfig, Router, RouterState, RoutingCtx,
    SchedulingPolicy, SimError, SimResult, StageSpec,
};

mod lifecycle;
mod paths;
mod queue;
mod resilience;
mod telemetry;
mod window;

use lifecycle::LifecycleRt;
use paths::MultipathRt;
use queue::EventQueue;
use resilience::ResilienceRt;
use telemetry::Telemetry;
use window::QueryWindow;

/// Fraction of queries discarded from the front as warmup.
const WARMUP_FRACTION: f64 = 0.05;

/// What an event does. The discriminant is the event's 3-bit tag in
/// [`Event`]'s key, and [`Event::kind`] decodes it; each variant names
/// the payload its event carries in `a` and `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// Query `a` arrives at stage `b` and joins its queue (on resilient
    /// runs `b` is the [`lane_payload`] packing the stage).
    Arrive = 0,
    /// Batch `a` finishes service, releasing its units. The event is
    /// live only while `b` matches the batch table slot's generation
    /// (low 32 bits) — a fail-stop that kills the batch bumps the
    /// generation, cancelling the completion lazily at pop (always 0 on
    /// lifecycle-free runs).
    Complete = 1,
    /// A scheduling policy asked to re-examine replica slot `a`. The
    /// event is live only while `b` matches the slot's timer generation
    /// (low 32 bits) — superseded timers are cancelled lazily (skipped
    /// at pop) instead of scanned.
    Recheck = 2,
    /// Scheduled lifecycle event `a` (index into the flattened per-run
    /// schedule) fires against its replica slot.
    Lifecycle = 3,
    /// Replica slot `a` finishes warming and reaches full speed; live
    /// only while `b` matches the slot's lifecycle generation (low 32
    /// bits; a drain or fail-stop during warm-up cancels it).
    WarmDone = 4,
    /// A telemetry window boundary: close the current window, consult
    /// the autoscaling controller, and re-arm the next tick.
    WindowTick = 5,
    /// Query `a`'s per-attempt timeout fires; live only while `b`
    /// matches the query's lane generation (a completion or an earlier
    /// timeout bumped it otherwise — the same lazy-cancellation
    /// discipline as `Complete`).
    Timeout = 6,
    /// Query `a`'s hedge delay elapsed; if attempt `b` is still live
    /// and unhedged, a duplicate lane dispatches to a different
    /// replica.
    Hedge = 7,
}

/// Stage bits in a resilience-packed arrive payload (`b`): the low 12
/// bits carry the stage, the next 19 the lane generation, the top bit
/// the lane (0 primary, 1 hedge). Gen 0 / lane 0 leave the payload
/// byte-identical to the plain `b = stage` encoding, which is what
/// keeps resilience-free runs bit-exact.
const RES_STAGE_BITS: u32 = 12;
/// Mask extracting the stage from a packed arrive payload.
const RES_STAGE_MASK: u32 = (1 << RES_STAGE_BITS) - 1;
/// Mask for the 19 generation bits carried in packed arrive payloads.
/// A query's generation is its attempts less one, and attempts are
/// capped at 255, so the 19 bits hold it whole.
const RES_GEN_MASK: u32 = 0x7_FFFF;
/// Low-32 mask extracting the bare query index from a lane id.
const RES_Q_MASK: usize = 0xFFFF_FFFF;
/// Most stages a resilient run's packed arrive payload can name.
pub(crate) const MAX_RESILIENT_STAGES: usize = RES_STAGE_MASK as usize;
/// Most attempts per query a resilient run's attempt counter holds.
pub(crate) const MAX_ATTEMPTS: usize = u8::MAX as usize;

/// A lane id — what queues and batches carry for a query on resilient
/// runs: `query | gen << 32 | hedge << 63`, the query's lane generation
/// (its 19 payload bits) above the bare index and the top bit set on a
/// hedge lane. A gen-0 primary lane's id is the bare query, the only
/// id resilience-free runs carry.
fn lane_id(query: usize, gen: u32, hedge: bool) -> usize {
    query | ((gen & RES_GEN_MASK) as usize) << 32 | (hedge as usize) << 63
}

/// The bare query index of a lane id.
fn lane_query(id: usize) -> usize {
    id & RES_Q_MASK
}

/// A lane id's generation (its 19 payload bits).
fn lane_gen(id: usize) -> u32 {
    // simlint: allow(packing-cast) -- masked to the 19 payload bits at the cast
    (id >> 32) as u32 & RES_GEN_MASK
}

/// Whether a lane id names a hedge lane.
fn is_hedge_lane(id: usize) -> bool {
    id >> 63 == 1
}

/// The arrive payload of lane `id` entering `stage`:
/// `stage | gen << 12 | hedge << 31`, which is the plain `stage` for a
/// gen-0 primary lane.
fn lane_payload(id: usize, stage: usize) -> u32 {
    // simlint: allow(packing-cast) -- stage < 2^12 (pipeline depth, validated by Scenario::run)
    let stage = stage as u32;
    // simlint: allow(packing-cast) -- a single bit
    stage | lane_gen(id) << RES_STAGE_BITS | (is_hedge_lane(id) as u32) << 31
}

/// Unpacks an arrive event's query and [`lane_payload`] into the lane
/// id and the stage.
fn unpack_lane(query: usize, payload: usize) -> (usize, usize) {
    // simlint: allow(packing-cast) -- payloads are u32 (`Event::b`)
    let payload = payload as u32;
    let gen = (payload >> RES_STAGE_BITS) & RES_GEN_MASK;
    let stage = (payload & RES_STAGE_MASK) as usize;
    (lane_id(query, gen, payload >> 31 == 1), stage)
}

/// Refills `out` with `column[r]` for each compacted replica `r`.
fn gather<T: Copy>(out: &mut Vec<T>, column: &[T], idx: &[usize]) {
    out.clear();
    out.extend(idx.iter().map(|&r| column[r]));
}

/// The nearest-rank `q`-quantile of the non-empty `values`: the
/// `⌈n·q⌉`-th smallest (clamped to `1..=n`), found by selection, which
/// reads the same value a full sort would. Leaves `values` reordered.
fn nearest_rank(values: &mut [f64], q: f64) -> f64 {
    let n = values.len();
    let idx = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
    *values
        .select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal))
        .1
}

/// Completions per second between the first and the last of
/// `completed` completions: `completed − 1` intervals over the span, 0
/// with fewer than two completions or a zero span. The span is the
/// difference of the two times as `Duration`s (whole nanoseconds).
fn completion_rate(completed: usize, first: f64, last: f64) -> f64 {
    if completed < 2 {
        return 0.0;
    }
    let span = Duration::from_secs_f64(last).saturating_sub(Duration::from_secs_f64(first));
    let span = span.as_secs_f64();
    if span <= 0.0 {
        return 0.0;
    }
    (completed - 1) as f64 / span
}

/// A packed event: 24 bytes instead of the 40 a time, a seq and the
/// kind with two `usize` payloads would occupy, so every heap sift and
/// lane move in the event queue copies 40% less memory, at 4 events per
/// query-stage.
///
/// Events pop in `(time, seq)` order, compared as one integer, the
/// [`order`](Self::order) key: the time's order bits above `key`.
/// - `at` holds the time's IEEE total-order bits
///   ([`order_bits`](Self::order_bits)), which order as unsigned
///   integers exactly as the times do, negative times included.
///   [`time`](Self::time) decodes them. The time is canonicalized
///   first, `-0.0` to `+0.0`: the two are equal times, so they must tie
///   and let the seq decide, and raw bits would put every `-0.0` event
///   first. So an event created at `-0.0` pops at `+0.0`, which equals
///   it. Lifecycle events accept `-0.0`, and a custom `ArrivalProcess`
///   may yield it or negative times.
/// - `key` packs `(seq << 3) | kind`. Seqs are unique, so the kind
///   never breaks a tie: same-time events pop in the order their seqs
///   were numbered. Schedule arrival `q` carries seq `q`; the scheduled
///   lifecycle transitions (group-major, in schedule order) and then
///   the first window tick are numbered next, when the run is armed;
///   every other event takes the next seq from `Sim::seq` when it is
///   created. A new kind's tie order is decided by where its seq comes
///   from, not by its tag.
///
/// Payloads are two `u32`s: query/batch/slot indices are bounded well
/// below `u32::MAX` (validated by `Scenario::run`), and generation
/// counters compare on their low 32 bits (a stale event would mis-match
/// only after 2^32 same-slot generation bumps while it sat in the
/// queue, which cannot happen before the queue itself exhausts memory).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Event {
    at: u64,
    key: u64,
    a: u32,
    b: u32,
}

impl Event {
    #[inline]
    fn new(time: f64, seq: u64, kind: EventKind, a: usize, b: u32) -> Self {
        debug_assert!(a <= u32::MAX as usize);
        debug_assert!(!time.is_nan(), "event times are never NaN");
        Self {
            at: Self::order_bits(time),
            // simlint: allow(packing-cast) -- a discriminant in 0..8
            key: (seq << 3) | kind as u64,
            // simlint: allow(packing-cast) -- a is a query/batch/slot
            // index bounded far below u32::MAX at construction
            // (debug_assert above; scale asserts at spec build).
            a: a as u32,
            b,
        }
    }

    /// The total-order bits of `time`, canonicalized: `-0.0 + 0.0` is
    /// `+0.0`, and adding `0.0` leaves every other time as it is. A set
    /// sign bit flips every bit and a clear one flips only the sign, so
    /// the bits order as unsigned integers exactly as the times order.
    #[inline]
    fn order_bits(time: f64) -> u64 {
        let bits = (time + 0.0).to_bits();
        bits ^ ((bits >> 63).wrapping_neg() | 1 << 63)
    }

    /// The event's time, decoded from its order bits.
    #[inline]
    fn time(&self) -> f64 {
        f64::from_bits(self.at ^ ((!self.at >> 63).wrapping_neg() | 1 << 63))
    }

    /// The event's order key: the least key pops first.
    #[inline]
    fn order(&self) -> u128 {
        u128::from(self.at) << 64 | u128::from(self.key)
    }

    /// The low 32 bits of a slot's or batch's generation — what a
    /// `Complete`, `Recheck` or `WarmDone` payload carries.
    #[inline]
    fn gen32(gen: u64) -> u32 {
        // simlint: allow(packing-cast) -- generations compare on their
        // low 32 bits by design (see Event docs on wraparound).
        gen as u32
    }

    /// The event's sequence number.
    #[inline]
    fn seq(&self) -> u64 {
        self.key >> 3
    }

    /// The event's kind, decoded from the tag bits (high to low). Every
    /// 3-bit pattern has its own arm and there is no wildcard, so the
    /// compiler checks that each tag decodes.
    #[inline]
    fn kind(&self) -> EventKind {
        let bit = |b: u32| self.key >> b & 1 == 1;
        match (bit(2), bit(1), bit(0)) {
            (false, false, false) => EventKind::Arrive,
            (false, false, true) => EventKind::Complete,
            (false, true, false) => EventKind::Recheck,
            (false, true, true) => EventKind::Lifecycle,
            (true, false, false) => EventKind::WarmDone,
            (true, false, true) => EventKind::WindowTick,
            (true, true, false) => EventKind::Timeout,
            (true, true, true) => EventKind::Hedge,
        }
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("time", &self.time())
            .field("seq", &self.seq())
            .field("kind", &self.kind())
            .field("a", &self.a)
            .field("b", &self.b)
            .finish()
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed, so that `BinaryHeap`, a max-heap, pops the least key.
        other.order().cmp(&self.order())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An in-flight batch: the stage it runs, the replica slot holding its
/// units, the queries it carries, and its booked absolute completion
/// time (`finish`, set at launch) — what a fail-stop needs to refund
/// the unserved tail of the batch's busy time.
#[derive(Debug, Clone)]
struct Batch {
    stage: usize,
    slot: usize,
    queries: BatchQueries,
    finish: f64,
}

/// Batch membership: allocation-free in the dominant per-query case,
/// and backed by a pooled buffer (recycled at completion) for real
/// batches, so the steady-state event loop allocates nothing per
/// launch.
#[derive(Debug, Clone)]
enum BatchQueries {
    One(usize),
    Many(Vec<usize>),
}

impl BatchQueries {
    fn len(&self) -> usize {
        match self {
            BatchQueries::One(_) => 1,
            BatchQueries::Many(v) => v.len(),
        }
    }
}

/// The fleet's levels: what the telemetry integrals accrue and what
/// admission policies see.
#[derive(Clone, Copy)]
struct Gauges {
    /// Waiting queries across all slots (queued plus parked).
    queued: usize,
    /// Units currently in service across all slots.
    busy: usize,
    /// Unit capacity of non-down slots.
    capacity: usize,
    /// Summed profile speeds of non-down slots — the cost integrand.
    cost: f64,
}

/// Scratch columns for availability-masked routing: the original
/// replica index per compacted position, the compacted counter and
/// estimator columns, and the remapped routing history.
#[derive(Default)]
struct MaskScratch {
    idx: Vec<usize>,
    queued: Vec<usize>,
    in_flight: Vec<usize>,
    free: Vec<usize>,
    work: Vec<f64>,
    speed: Vec<f64>,
    finish: Vec<f64>,
    count: Vec<usize>,
    hist: Vec<u32>,
}

/// The simulator state. `#[repr(C)]` pins the declared field order in
/// memory: the per-event scalars and flags pack into the first cache
/// lines, the hot container headers follow, and the optional runtimes —
/// the lifecycle among them, each `None` unless armed — sit at the cold
/// tail. (repr(Rust) is free to shuffle fields, and a struct this wide
/// scatters the hot set across all of it otherwise.)
#[repr(C)]
pub(crate) struct Sim<'a> {
    // --- Hot per-event scalars (first cache lines) ---
    seq: u64,
    last_time: f64,
    completed: usize,
    launches: u64,
    served: u64,
    /// Closed-loop state: next query index to inject.
    next_inject: usize,
    /// Number of schedule-driven arrivals (the `times()` prefix; seqs
    /// `0..schedule_len` are reserved for them).
    schedule_len: usize,
    /// `num_queries * WARMUP_FRACTION`, precomputed: completions of
    /// queries below this index are warmup and skip latency recording.
    warmup_len: usize,
    num_queries: usize,
    /// Queue depth, busy units, and the live fleet's capacity and cost,
    /// maintained incrementally.
    gauges: Gauges,
    /// Cached `policy.admit_on_arrival()` (consulted on every arrival).
    work_conserving: bool,
    /// Whether the router reads the work/speed estimator signals
    /// ([`Router::uses_estimates`]); false skips the hot-path
    /// maintenance of `queued_work`, `inflight_finish`, and
    /// `inflight_count`, which then stay zero.
    track_est: bool,
    /// Whether the router reads per-query routing history
    /// ([`Router::uses_history`]) on a multi-stage pipeline; false
    /// gives the window's records no history rows and routes with an
    /// empty history slice.
    track_hist: bool,
    /// One-shot routing exclusion for a hedge dispatch: the primary
    /// lane's slot, skipped by the router while the group has another
    /// routable replica. Always `None` outside a hedge dispatch.
    avoid_slot: Option<usize>,

    // --- Hot containers ---
    queue: EventQueue,
    stages: &'a [StageSpec],
    /// Per-slot waiting entries, kept sorted by (policy priority,
    /// admission seq) — FIFO inserts are O(1) appends.
    waiting: Vec<VecDeque<QueueEntry>>,
    /// Per-slot waiting-entry counts, mirrored off `waiting` so router
    /// probes read one contiguous array (see [`ReplicaLoads`]).
    queued: Vec<usize>,
    /// Per-slot queries currently in service (the router's load signal).
    in_flight: Vec<usize>,
    /// Per-slot free units (router signal, maintained incrementally).
    free: Vec<usize>,
    /// Every in-flight query's record — its arrival clock, routing
    /// history, admitted path and lane state — from creation (staged,
    /// injected, or handed to this shard) until it resolves.
    window: QueryWindow,
    /// In-flight batches, indexed by `Complete` events; completed slots
    /// are recycled through `free_batches` so the table stays at the
    /// concurrency high-water mark instead of growing per launch.
    batches: Vec<Batch>,
    /// Recyclable `batches` indices.
    free_batches: Vec<usize>,
    /// Per-batch-table-slot generation: bumped when a fail-stop kills
    /// the batch, cancelling its pending `Complete` lazily.
    batch_gen: Vec<u64>,
    /// Spare query buffers recycled from completed multi-query batches.
    query_pool: Vec<Vec<usize>>,
    /// First flattened replica slot of each resource group: replica `r`
    /// of group `g` lives at slot `slot_base[g] + r`. Single-replica
    /// pipelines flatten to one slot per group, reproducing the
    /// pre-cluster layout exactly.
    slot_base: Vec<usize>,
    /// Resource group owning each slot.
    slot_group: Vec<usize>,
    /// Replica count per group (cached off the spec for the hot path).
    group_replicas: Vec<usize>,
    /// Resource group of each pipeline stage (the static map routing
    /// contexts expose to affinity routers).
    stage_groups: Vec<usize>,
    /// Per-slot *current* service-rate multiplier: the profile speed,
    /// scaled down while warming or degraded. Equal to `slot_speed` on
    /// lifecycle-free runs (bit-identical estimates and service times).
    cur_speed: Vec<f64>,
    /// Per-slot earliest armed policy recheck, if any.
    armed: Vec<Option<f64>>,
    /// Per-slot timer generation: bumped whenever a recheck is armed,
    /// so superseded `Recheck` events cancel lazily at pop.
    timer_gen: Vec<u64>,
    /// Busy unit-seconds per slot for utilization accounting.
    busy_unit_seconds: Vec<f64>,
    /// Per-group router state (round-robin cursors, probe RNG).
    router_states: Vec<RouterState>,
    policy: &'a dyn SchedulingPolicy,
    router: &'a dyn Router,
    /// Closed-loop think time, when the arrivals are a closed loop.
    think_time_s: Option<f64>,

    // --- Estimator / history columns (maintained only when tracked) ---
    /// Per-slot queued (not yet launched) work in baseline seconds —
    /// one of the two [`ExpectedWait`] estimator signals (see router.rs
    /// module docs). Zero (never maintained) unless the router reads
    /// estimates (`track_est`).
    ///
    /// [`ExpectedWait`]: crate::ExpectedWait
    queued_work: Vec<f64>,
    /// Per-slot sum of live batches' absolute finish times — with
    /// `inflight_count`, the decay-aware in-flight wait signal:
    /// `inflight_finish[s] - inflight_count[s] * now` is exactly the
    /// summed not-yet-elapsed service of the slot's running batches.
    /// Zero unless `track_est`.
    inflight_finish: Vec<f64>,
    /// Per-slot count of live batches (the decay term's multiplier).
    /// Zero unless `track_est`.
    inflight_count: Vec<usize>,

    // --- Per-run configuration and recording ---
    spec: &'a PipelineSpec,
    arrivals: &'a dyn ArrivalProcess,
    /// Per-slot unit capacity (per-replica, heterogeneous fleets may
    /// differ within a group).
    slot_capacity: Vec<usize>,
    /// Per-slot service-rate multiplier
    /// ([`ReplicaProfile::speed`](crate::ReplicaProfile::speed)): a
    /// batch's service time is its baseline time divided by this.
    slot_speed: Vec<f64>,
    /// Lazily-pulled arrival schedule ([`ArrivalProcess::stream`]):
    /// each popped schedule arrival pulls its successor's timestamp on
    /// demand instead of materializing the whole schedule up front.
    /// `None` on shards past the head, which stage no schedule.
    arrival_stream: Option<Box<dyn Iterator<Item = f64> + Send + 'a>>,
    /// Largest arrival timestamp injected so far (the backlog test's
    /// denominator), maintained at every record creation.
    arrival_span: f64,
    /// Post-warmup latency of every completion, recorded as it
    /// happens. Folded past 2^17 samples, so a 10M-query run's memory
    /// stays flat.
    latency: LatencyStats,
    /// The first and the latest completion time: `qps`'s span.
    first_done: f64,
    last_done: f64,
    /// The hand-offs a stage shard has emitted to the next stage's
    /// shard and its driver has yet to take (see shard.rs); the serial
    /// loop and the final stage's shard keep `None` and record
    /// completions locally.
    outbox: Option<VecDeque<Handoff>>,
    /// Queries lost without service: shed at admission, or at a dead
    /// group or from a dead queue under `FailurePolicy::Shed`.
    shed: usize,
    /// In-flight queries killed by fail-stops under
    /// `FailurePolicy::Shed`.
    dropped: usize,
    /// Scratch columns for masked routing.
    mask: MaskScratch,

    // --- Optional runtimes (None unless armed) ---
    tele: Option<Telemetry>,
    life: Option<Box<LifecycleRt<'a>>>,
    mp: Option<MultipathRt<'a>>,
    resil: Option<Box<ResilienceRt>>,
}

/// A query handed from one stage shard to the next: its completion
/// time upstream (its arrival time downstream), its index, and its
/// original stage-0 arrival time. A shard emits hand-offs in its
/// completion-processing order, which downstream must preserve — it is
/// the serial loop's tie-break order for equal-time arrivals.
pub(crate) type Handoff = (f64, usize, f64);

/// A run's raw totals (per-slot busy integrals, clocks, launch counts,
/// post-warmup records). The serial loop and the sharded merge both
/// reduce to one and assemble their [`SimResult`] through
/// [`into_result`](Self::into_result), so the two agree by construction.
pub(crate) struct RunTotals {
    pub(crate) busy_unit_seconds: Vec<f64>,
    pub(crate) last_time: f64,
    pub(crate) launches: u64,
    pub(crate) served: u64,
    pub(crate) completed: usize,
    pub(crate) latency: LatencyStats,
    pub(crate) qps: f64,
    pub(crate) arrival_span: f64,
}

impl RunTotals {
    /// Assembles the run's [`SimResult`] core: utilization, saturation,
    /// and mean batch. `rate_overload` is the open-loop offered-load
    /// test against the workload's fully-batched capacity.
    pub(crate) fn into_result(self, spec: &PipelineSpec, rate_overload: bool) -> SimResult {
        let span = self.last_time.max(f64::MIN_POSITIVE);
        // Utilization per group aggregates its replicas; the per-replica
        // breakdown is reported only for replicated pipelines, keeping
        // single-replica results identical to the pre-cluster simulator.
        let per_replica = spec.has_replication();
        let mut utilization = Vec::with_capacity(spec.resources().len());
        let mut replica_utilization = Vec::new();
        let mut busy = self.busy_unit_seconds.as_slice();
        for r in spec.resources() {
            let (group, rest) = busy.split_at(r.replicas());
            busy = rest;
            let total: f64 = group.iter().sum();
            utilization.push((total / (r.total_units() as f64 * span)).min(1.0));
            if per_replica {
                let each = group.iter().zip(r.profiles());
                let each = each.map(|(&b, p)| (b / (p.capacity as f64 * span)).min(1.0));
                replica_utilization.push(each.collect());
            }
        }
        let saturated =
            rate_overload || self.last_time > self.arrival_span * 1.5 + spec.service_floor();
        let mean_batch = if self.launches > 0 {
            self.served as f64 / self.launches as f64
        } else {
            1.0
        };
        SimResult {
            latency: self.latency,
            qps: self.qps,
            completed: self.completed,
            saturated,
            utilization,
            mean_batch,
            replica_utilization,
            shed: 0,
            dropped: 0,
            cost_integral: 0.0,
            windows: Vec::new(),
            paths: Vec::new(),
            admission_shed: 0,
            resilience: None,
        }
    }
}

/// What every run is built from: the spec served, its traffic, the
/// scheduling and routing policies, the query count, and the seed.
#[derive(Clone, Copy)]
pub(crate) struct Inputs<'a> {
    pub(crate) spec: &'a PipelineSpec,
    pub(crate) arrivals: &'a dyn ArrivalProcess,
    pub(crate) policy: &'a dyn SchedulingPolicy,
    pub(crate) router: &'a dyn Router,
    pub(crate) num_queries: usize,
    pub(crate) seed: u64,
}

impl<'a> Sim<'a> {
    pub(crate) fn new(inputs: Inputs<'a>) -> Self {
        let mut sim = Self::new_inner(inputs, None);
        sim.stage_schedule(inputs.seed);
        sim
    }

    /// Builds one stage's shard of a sharded run (see shard.rs): the
    /// full spec with globally-derived router-state seeds (so the
    /// shard's group RNG stream matches the serial loop's), history
    /// tracking off (shard eligibility requires pairwise-distinct
    /// stage groups, so a same-group affinity prior can never exist),
    /// and — for the head shard only — the arrival schedule. Only the
    /// final stage's shard completes queries, so only it records
    /// latency and throughput; every other one gets an outbox.
    pub(crate) fn new_shard(inputs: Inputs<'a>, stage: usize) -> Self {
        let mut sim = Self::new_inner(inputs, Some(stage));
        if stage == 0 {
            sim.stage_schedule(inputs.seed);
        }
        sim
    }

    /// The serial loop's state, or stage `shard`'s when it is `Some`.
    fn new_inner(inputs: Inputs<'a>, shard: Option<usize>) -> Self {
        let Inputs {
            spec,
            arrivals,
            policy,
            router,
            num_queries,
            seed,
        } = inputs;
        // Packed heap events store query indices in 32 bits
        // (validated by `Scenario::run`).
        debug_assert!(num_queries <= u32::MAX as usize);
        let resources = spec.resources();
        let mut slot_base = Vec::with_capacity(resources.len());
        let mut slot_group = Vec::new();
        let mut slot_capacity = Vec::new();
        let mut slot_speed = Vec::new();
        let mut free = Vec::new();
        for (g, r) in resources.iter().enumerate() {
            slot_base.push(slot_group.len());
            for p in r.profiles() {
                slot_group.push(g);
                slot_capacity.push(p.capacity);
                slot_speed.push(p.speed);
                free.push(p.capacity);
            }
        }
        let num_slots = slot_group.len();
        let num_stages = spec.stages().len();
        let group_replicas: Vec<usize> = resources.iter().map(|r| r.replicas()).collect();
        let gauges = Gauges {
            queued: 0,
            busy: 0,
            capacity: slot_capacity.iter().sum(),
            cost: slot_speed.iter().sum(),
        };
        // Gate per-query bookkeeping on what the router actually reads:
        // oblivious and counter-only routers skip the estimator arrays'
        // maintenance entirely, and history-blind routers (every
        // builtin but Sticky) skip the per-query choice table. Stage
        // shards force history off — their eligibility (pairwise
        // distinct stage groups) means no same-group prior can exist.
        let track_est = router.uses_estimates();
        let track_hist = shard.is_none() && router.uses_history() && num_stages > 1;
        let warmup_len = ((num_queries as f64) * WARMUP_FRACTION) as usize;
        let outbox = shard
            .filter(|&stage| stage + 1 < num_stages)
            .map(|_| VecDeque::new());
        // A shard that hands its queries on completes none, so it keeps
        // an empty latency collector.
        let latency = match outbox {
            Some(_) => LatencyStats::default(),
            None => LatencyStats::with_capacity(num_queries.saturating_sub(warmup_len)),
        };
        Self {
            spec,
            stages: spec.stages(),
            policy,
            arrivals,
            router,
            num_queries,
            queue: EventQueue::new(num_stages),
            seq: 0,
            window: QueryWindow::new(if track_hist { num_stages } else { 0 }),
            slot_base,
            slot_group,
            group_replicas,
            slot_capacity,
            cur_speed: slot_speed.clone(),
            slot_speed,
            free,
            queued_work: vec![0.0; num_slots],
            inflight_finish: vec![0.0; num_slots],
            inflight_count: vec![0; num_slots],
            stage_groups: spec.stages().iter().map(|s| s.resource).collect(),
            track_est,
            track_hist,
            waiting: vec![VecDeque::new(); num_slots],
            queued: vec![0; num_slots],
            in_flight: vec![0; num_slots],
            armed: vec![None; num_slots],
            timer_gen: vec![0; num_slots],
            busy_unit_seconds: vec![0.0; num_slots],
            router_states: (0..resources.len() as u64)
                .map(|g| RouterState::new(seed ^ g.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
                .collect(),
            batches: Vec::new(),
            free_batches: Vec::new(),
            query_pool: Vec::new(),
            completed: 0,
            last_time: 0.0,
            launches: 0,
            served: 0,
            next_inject: 0,
            think_time_s: None,
            work_conserving: policy.admit_on_arrival(),
            schedule_len: 0,
            batch_gen: Vec::new(),
            shed: 0,
            dropped: 0,
            mask: MaskScratch::default(),
            gauges,
            tele: None,
            life: None,
            mp: None,
            resil: None,
            avoid_slot: None,
            arrival_stream: None,
            arrival_span: 0.0,
            warmup_len,
            latency,
            first_done: 0.0,
            last_done: 0.0,
            outbox,
        }
    }

    /// Stages the arrival schedule lazily from
    /// [`ArrivalProcess::stream`] (a closed loop stages only its client
    /// population and derives the rest from resolved queries): one
    /// stage-0 event is queued at a time, on the queue's schedule lane,
    /// and each pop pulls its successor's timestamp
    /// ([`stage_next_arrival`]). The queue stays at the in-flight
    /// high-water mark instead of the query count, and a 10M-query
    /// replay never materializes the schedule. Schedule
    /// arrival `q` carries seq `q`, and the counter resumes at `initial`
    /// (see [`Event`] on the tie order this fixes).
    ///
    /// [`stage_next_arrival`]: Self::stage_next_arrival
    fn stage_schedule(&mut self, seed: u64) {
        let num_queries = self.num_queries;
        let initial = match self.arrivals.closed_loop() {
            Some(cl) => {
                self.think_time_s = Some(cl.think_time_s);
                cl.clients.min(num_queries)
            }
            None => num_queries,
        };
        self.seq = initial as u64;
        self.schedule_len = initial;
        self.next_inject = initial;
        if initial == 0 {
            return;
        }
        let mut stream = self.arrivals.stream(seed);
        let t0 = stream.next().expect("arrival stream ended early");
        self.window.create(0, t0);
        self.arrival_span = self.arrival_span.max(t0);
        self.arrival_stream = Some(stream);
        self.queue
            .push_schedule(Event::new(t0, 0, EventKind::Arrive, 0, 0));
    }

    /// Arms the replica lifecycle under `cfg`, with `scale`'s controller
    /// consulted at every closing window, and attaches telemetry when a
    /// window is configured (starting its clock) or the lifecycle armed.
    ///
    /// The lifecycle transitions, then the first window tick, take the
    /// seqs after the schedule arrivals (see [`Event`]), so at equal
    /// timestamps an arrival is processed before the lifecycle event
    /// that would have masked its replica.
    pub(crate) fn enable_lifecycle(
        &mut self,
        cfg: &LifecycleConfig,
        scale: Option<(&AutoscaleConfig, &'a mut dyn FleetController)>,
    ) {
        self.arm_lifecycle(cfg, scale);
        if let Some(w) = cfg.window_s {
            self.push(w, EventKind::WindowTick, 0, 0);
        }
        if cfg.window_s.is_some() || self.life.is_some() {
            self.tele = Some(Telemetry::new(cfg.window_s.unwrap_or(0.0)));
        }
    }

    /// Arms multi-path serving: every stage-0 arrival first passes the
    /// admission policy, which assigns it a path (its stages sit at a
    /// fixed offset in the concatenated spec) or sheds it. Consumes no
    /// seqs and pushes no events, so an [`AlwaysPrimary`] run's event
    /// stream is identical to the plain routed loop.
    ///
    /// [`AlwaysPrimary`]: crate::AlwaysPrimary
    pub(crate) fn enable_multipath(
        &mut self,
        paths: &PathSet,
        admission: &'a dyn AdmissionPolicy,
        seed: u64,
    ) {
        debug_assert_eq!(paths.spec().stages().len(), self.stages.len());
        self.mp = Some(MultipathRt::new(paths, admission, seed));
    }

    /// Arms query-level resilience for an active `cfg`: per-attempt
    /// timeouts, the retry policy, and hedged requests. Consumes no
    /// seqs until the first dispatch. `Scenario::run` never arms an
    /// inert config, which therefore replays the run without it bit for
    /// bit (pinned by proptest).
    pub(crate) fn enable_resilience(&mut self, cfg: &ResilienceConfig, seed: u64) {
        // Packed lane payloads bound both (validated by `Scenario::run`).
        debug_assert!(self.stages.len() <= MAX_RESILIENT_STAGES);
        debug_assert!(cfg.retry.max_attempts <= MAX_ATTEMPTS);
        debug_assert!(!cfg.is_inert());
        self.resil = Some(Box::new(ResilienceRt::new(cfg, seed)));
        self.queue.arm_timers();
    }

    fn group_slots(&self, group: usize) -> Range<usize> {
        let base = self.slot_base[group];
        base..base + self.group_replicas[group]
    }

    /// Queues an event carrying the next seq, on its kind's lane when
    /// it has one (see [`EventQueue::push`]).
    fn push(&mut self, time: f64, kind: EventKind, a: usize, b: u32) {
        self.queue.push(Event::new(time, self.seq, kind, a, b));
        self.seq += 1;
    }

    /// Queues an event carrying the next seq straight onto the heap:
    /// one created ahead of its lane's back.
    fn push_heap(&mut self, time: f64, kind: EventKind, a: usize, b: u32) {
        self.queue.push_heap(Event::new(time, self.seq, kind, a, b));
        self.seq += 1;
    }

    /// Pushes an arrive event for lane `id` entering `stage` (the bare
    /// query and the plain stage payload on resilience-free runs).
    fn push_arrive(&mut self, t: f64, id: usize, stage: usize) {
        self.push(
            t,
            EventKind::Arrive,
            lane_query(id),
            lane_payload(id, stage),
        );
    }

    /// Whether lane `id` still names a live lane of its query; false
    /// means the lane is a carcass — cancelled lazily, to be discarded
    /// wherever it next surfaces.
    fn lane_live(&self, id: usize) -> bool {
        let rt = self.resil.as_ref().expect("resilience runtime attached");
        rt.is_live(&self.window, lane_query(id), lane_gen(id))
    }

    /// Arms the timeout and hedge events for an attempt of `q` starting
    /// at `start` under the query's current generation. A `retry`
    /// starts after its backoff, ahead of the timeout and hedge lanes'
    /// backs, so its timers go straight onto the heap.
    fn arm_attempt(&mut self, start: f64, q: usize, retry: bool) {
        let rt = self.resil.as_mut().expect("resilience runtime attached");
        let (gen, timeout_at, hedge_at) = rt.timers(start, &self.window, q);
        let push = if retry { Self::push_heap } else { Self::push };
        if let Some(t) = timeout_at {
            push(self, t, EventKind::Timeout, q, gen);
        }
        if let Some(t) = hedge_at {
            push(self, t, EventKind::Hedge, q, gen);
        }
    }

    /// A live attempt's timeout fired: a retry re-enters stage 0 once
    /// its backoff elapses, or the query resolves timed-out-final.
    fn on_timeout(&mut self, now: f64, q: usize) {
        self.last_time = now;
        let rt = self.resil.as_mut().expect("resilience runtime attached");
        match rt.on_timeout(now, &mut self.window, q) {
            Some((start, gen)) => {
                // The retry enters after its backoff, ahead of the arrive
                // lane's back: straight onto the heap, so the in-order
                // events created meanwhile keep their lanes.
                let id = lane_id(q, gen, false);
                self.push_heap(start, EventKind::Arrive, q, lane_payload(id, 0));
                self.arm_attempt(start, q, true);
            }
            None => {
                self.window.retire(q);
                if let Some(tele) = self.tele.as_mut() {
                    tele.on_timed_out();
                }
                self.release_client(now);
            }
        }
    }

    /// Dispatches the hedge lane: a duplicate of the current attempt
    /// (same generation, lane bit set), routed away from the primary's
    /// entry slot whenever the group has another routable replica.
    /// Whichever lane completes first resolves the query; the loser is
    /// cancelled lazily and its service accounted wasted.
    fn on_hedge(&mut self, now: f64, q: usize, gen: u32) {
        self.last_time = now;
        let rt = self.resil.as_mut().expect("resilience runtime attached");
        self.avoid_slot = rt.on_hedge(&mut self.window, q);
        self.on_arrive(now, lane_id(q, gen, true), 0);
        self.avoid_slot = None;
    }

    /// Runs the admission decision for a stage-0 arrival: returns the
    /// admitted path's entry stage, or `None` when the query was shed
    /// (freeing its closed-loop client).
    fn admit(&mut self, now: f64, query: usize) -> Option<usize> {
        let closed = self.tele.as_ref().and_then(|t| t.windows.last());
        let mp = self.mp.as_mut().expect("multipath runtime attached");
        let entry = mp.admit(now, &mut self.window, query, self.gauges, closed);
        if entry.is_none() {
            self.window.retire(query);
            self.shed += 1;
            if let Some(tele) = self.tele.as_mut() {
                tele.on_lost(false, 1);
            }
            self.release_client(now);
        }
        entry
    }

    /// Counts a post-admission loss of `query` — shed without service,
    /// or dropped mid-service when `was_in_flight` — in the run, window,
    /// and (on multi-path runs) per-path counters, and retires its
    /// record.
    fn account_lost(&mut self, query: usize, was_in_flight: bool) {
        if was_in_flight {
            self.dropped += 1;
        } else {
            self.shed += 1;
        }
        if let Some(tele) = self.tele.as_mut() {
            tele.on_lost(was_in_flight, 1);
        }
        if let Some(mp) = self.mp.as_mut() {
            mp.on_lost(&self.window, query, was_in_flight);
        }
        self.window.retire(query);
    }

    /// Closed loop: a resolved query (completed, shed, dropped, or
    /// timed out) frees its client, which thinks and then issues the
    /// next query. No-op on open-loop runs and once every query has
    /// been issued.
    fn release_client(&mut self, now: f64) {
        if let Some(think) = self.think_time_s {
            if self.next_inject < self.num_queries {
                let q = self.next_inject;
                self.next_inject += 1;
                self.inject(q, now + think);
            }
        }
    }

    fn inject(&mut self, query: usize, t: f64) {
        self.window.create(query, t);
        self.arrival_span = self.arrival_span.max(t);
        // Closed-loop arrivals are attributed to the window in which the
        // client issues them (skew vs first service at most the think
        // time).
        if let Some(tele) = self.tele.as_mut() {
            tele.on_arrival();
        }
        self.push(t, EventKind::Arrive, query, 0);
    }

    /// Routes `query` arriving at `stage_idx` to one replica slot of
    /// the stage's resource group, recording the choice in the query's
    /// routing history (the [`RoutingCtx`] affinity signal).
    ///
    /// While lifecycle masking leaves a replica unroutable, or a hedge
    /// avoids its primary's slot, the candidates are compacted first:
    /// routers never see a draining or down replica. Returns `None` when
    /// the group has no routable (up or warming) replica — the caller
    /// sheds, parks, or fails the run per the
    /// [`FailurePolicy`](crate::FailurePolicy).
    fn route(&mut self, now: f64, query: usize, stage_idx: usize) -> Option<usize> {
        let group = self.stages[stage_idx].resource;
        let slots = self.group_slots(group);
        let (base, replicas) = (slots.start, slots.len());
        // A hedge dispatch avoids its primary's slot — but only while
        // the group actually has another replica to offer.
        let avoid = self
            .avoid_slot
            .filter(|s| slots.contains(s) && replicas > 1);
        let life = self.life.as_ref();
        let masked = avoid.is_some() || life.is_some_and(|l| l.masks(group, replicas));
        if masked {
            self.compact(slots.clone(), avoid);
            if self.mask.idx.is_empty() && avoid.is_some() {
                // The avoided slot is the group's only routable replica:
                // hedge onto it rather than not at all.
                self.compact(slots, None);
            }
            if self.mask.idx.is_empty() {
                return None;
            }
        }
        let candidates = if masked {
            self.mask.idx.len()
        } else {
            replicas
        };
        let pick = if candidates > 1 {
            self.consult_router(now, query, stage_idx, masked)
        } else {
            0
        };
        let replica = if masked { self.mask.idx[pick] } else { pick };
        if self.track_hist {
            self.window.hist_mut(query)[stage_idx] = replica as u32;
        }
        Some(base + replica)
    }

    /// Compacts the routable slots of `slots` other than `avoid` into
    /// the mask scratch columns.
    fn compact(&mut self, slots: Range<usize>, avoid: Option<usize>) {
        let (m, base) = (&mut self.mask, slots.start);
        let life = self.life.as_ref();
        let keep = |&s: &usize| Some(s) != avoid && life.is_none_or(|l| l.routable(s));
        m.idx.clear();
        m.idx.extend(slots.filter(keep).map(|s| s - base));
        gather(&mut m.queued, &self.queued[base..], &m.idx);
        gather(&mut m.in_flight, &self.in_flight[base..], &m.idx);
        gather(&mut m.free, &self.free[base..], &m.idx);
        if self.track_est {
            gather(&mut m.work, &self.queued_work[base..], &m.idx);
            gather(&mut m.speed, &self.cur_speed[base..], &m.idx);
            gather(&mut m.finish, &self.inflight_finish[base..], &m.idx);
            gather(&mut m.count, &self.inflight_count[base..], &m.idx);
        }
    }

    /// Asks the router to pick one of the group's candidates: every
    /// replica, probing the incrementally-maintained counter and
    /// estimator columns directly, or — when `masked` — the compacted
    /// ones, with the query's same-group routing history remapped onto
    /// compacted positions (absent replicas become `u32::MAX`, which
    /// affinity routers treat as "no prior" and fall back).
    fn consult_router(&mut self, now: f64, query: usize, stage_idx: usize, masked: bool) -> usize {
        let group = self.stages[stage_idx].resource;
        let slots = self.group_slots(group);
        if !masked {
            debug_assert!(slots
                .clone()
                .all(|s| self.queued[s] == self.waiting[s].len()));
            debug_assert!(!self.track_est || slots.clone().all(|s| self.estimator_mirrors_scan(s)));
        } else if self.track_hist {
            self.mask.hist.clear();
            for s in 0..stage_idx {
                let prior = self.window.hist(query)[s];
                let remapped = if self.stage_groups[s] == group {
                    let at = self.mask.idx.iter().position(|&r| r == prior as usize);
                    at.map_or(u32::MAX, |at| at as u32)
                } else {
                    prior
                };
                self.mask.hist.push(remapped);
            }
        }
        // The candidates' counter and estimator columns: the compacted
        // ones, or the group's own.
        let (counts, est, count, prior) = if masked {
            let m = &self.mask;
            let counts = [&m.queued, &m.in_flight, &m.free].map(|v| &v[..]);
            let est = [&m.work, &m.speed, &m.finish].map(|v| &v[..]);
            (counts, est, &m.count[..], &m.hist[..])
        } else {
            let counts = [&self.queued, &self.in_flight, &self.free];
            let est = [&self.queued_work, &self.cur_speed, &self.inflight_finish];
            let prior = if self.track_hist {
                &self.window.hist(query)[..stage_idx]
            } else {
                &[]
            };
            let counts = counts.map(|v| &v[slots.clone()]);
            let est = est.map(|v| &v[slots.clone()]);
            (counts, est, &self.inflight_count[slots], prior)
        };
        let ([queued, in_flight, free], [work, speed, finish]) = (counts, est);
        let mut loads = ReplicaLoads::new(queued, in_flight, free);
        if self.track_est {
            loads = loads.with_estimates(work, speed, finish, count, now);
        }
        let ctx = RoutingCtx::new(query, stage_idx, group, prior, &self.stage_groups);
        let pick = self
            .router
            .route(&loads, &ctx, &mut self.router_states[group]);
        let candidates = loads.len();
        assert!(
            pick < candidates,
            "router returned replica {pick} of {candidates}"
        );
        pick
    }

    /// Recomputes one slot's estimator signals from scratch by scanning
    /// its queue and the live batch table — the ground truth the
    /// incrementally-maintained `queued_work` / `inflight_finish` /
    /// `inflight_count` columns are checked against under the test
    /// profile (a drift beyond float noise means an update path was
    /// missed). Only `debug_assert!` calls it, so release builds
    /// compile it out with the assertion.
    fn estimator_mirrors_scan(&self, slot: usize) -> bool {
        let queued: f64 = self.waiting[slot]
            .iter()
            .map(|e| self.stages[e.stage].service_time)
            .sum();
        let mut count = 0usize;
        let mut finish_sum = 0.0f64;
        for (idx, b) in self.batches.iter().enumerate() {
            if b.slot == slot && !self.free_batches.contains(&idx) {
                count += 1;
                finish_sum += b.finish;
            }
        }
        (self.queued_work[slot] - queued).abs() < 1e-6
            && self.inflight_count[slot] == count
            && (self.inflight_finish[slot] - finish_sum).abs() < 1e-6
    }

    /// Launches a batch of same-stage entries on `slot` at `now`. The
    /// batch's baseline service time is divided by the slot's replica
    /// speed (1.0 on uniform fleets, leaving service times bit-exact).
    fn launch(&mut self, now: f64, stage_idx: usize, slot: usize, queries: BatchQueries) {
        let stage = &self.stages[stage_idx];
        debug_assert_eq!(self.slot_group[slot], stage.resource);
        debug_assert!(self.free[slot] >= stage.units);
        debug_assert!(queries.len() >= 1 && queries.len() <= stage.batch.max_batch);
        self.free[slot] -= stage.units;
        self.in_flight[slot] += queries.len();
        let single = queries.len() == 1;
        let base_service = stage.batch_service_time(queries.len());
        // Full-speed slots (every slot on a homogeneous lifecycle-free
        // fleet) skip the divide: `x / 1.0 == x` exactly, so the branch
        // is bit-identical and predicts perfectly when speeds are
        // uniform.
        let speed = self.cur_speed[slot];
        let service = if speed == 1.0 {
            base_service
        } else {
            base_service / speed
        };
        let finish = now + service;
        if self.track_est {
            self.inflight_finish[slot] += finish;
            self.inflight_count[slot] += 1;
        }
        self.busy_unit_seconds[slot] += stage.units as f64 * service;
        self.gauges.busy += stage.units;
        self.launches += 1;
        self.served += queries.len() as u64;
        let entry = Batch {
            stage: stage_idx,
            slot,
            queries,
            finish,
        };
        // Recycle a completed batch slot when one is free; the table
        // stays sized to the in-flight high-water mark.
        let batch = match self.free_batches.pop() {
            Some(idx) => {
                self.batches[idx] = entry;
                idx
            }
            None => {
                self.batches.push(entry);
                self.batch_gen.push(0);
                self.batches.len() - 1
            }
        };
        let gen = Event::gen32(self.batch_gen[batch]);
        let event = Event::new(finish, self.seq, EventKind::Complete, batch, gen);
        self.seq += 1;
        if single && speed == 1.0 {
            self.queue.push_completion(stage_idx, event);
        } else {
            self.queue.push_heap(event);
        }
    }

    /// Inserts an entry into its slot queue at its (priority, seq)
    /// position. Priorities are static per entry, so the queue stays
    /// sorted; FIFO-ordered policies always append in O(1).
    fn enqueue(&mut self, slot: usize, entry: QueueEntry) {
        if self.track_est {
            self.queued_work[slot] += self.stages[entry.stage].service_time;
        }
        let p = self.policy.priority(&entry);
        let queue = &mut self.waiting[slot];
        let mut at = queue.len();
        while at > 0 {
            let prev = self.policy.priority(&queue[at - 1]);
            // Equal priorities keep admission order (seq is increasing).
            if prev.partial_cmp(&p) != Some(Ordering::Greater) {
                break;
            }
            at -= 1;
        }
        queue.insert(at, entry);
        self.queued[slot] += 1;
        self.gauges.queued += 1;
    }

    /// Gathers up to `limit` waiting same-stage entries of one slot in
    /// queue (priority) order into `out`, removing them in one
    /// compaction pass (no per-launch allocation, no quadratic
    /// `remove` shifting; survivors keep their order).
    fn take_same_stage_into(
        &mut self,
        slot: usize,
        stage: usize,
        limit: usize,
        out: &mut Vec<usize>,
    ) {
        let queue = &mut self.waiting[slot];
        let mut taken = 0usize;
        let mut write = 0usize;
        for read in 0..queue.len() {
            if taken < limit && queue[read].stage == stage {
                out.push(queue[read].query);
                taken += 1;
            } else {
                if write != read {
                    queue[write] = queue[read];
                }
                write += 1;
            }
        }
        queue.truncate(write);
        self.queued[slot] -= taken;
        self.gauges.queued -= taken;
        // Mirror enqueue's per-entry additions one by one so the
        // counter drifts no differently than the updates it reverses.
        if self.track_est {
            for _ in 0..taken {
                self.queued_work[slot] -= self.stages[stage].service_time;
            }
        }
    }

    /// Removes and returns the first waiting entry of `stage` — the
    /// single-query form of
    /// [`take_same_stage_into`](Self::take_same_stage_into).
    fn take_one_same_stage(&mut self, slot: usize, stage: usize) -> Option<usize> {
        let queue = &mut self.waiting[slot];
        let at = queue.iter().position(|e| e.stage == stage)?;
        let taken = queue.remove(at).map(|e| e.query);
        self.queued[slot] -= 1;
        self.gauges.queued -= 1;
        if self.track_est {
            self.queued_work[slot] -= self.stages[stage].service_time;
        }
        taken
    }

    /// Runs the scheduling loop for one replica slot: launch batches
    /// while the policy releases them and units are free. Head-of-line
    /// blocking matches the pre-batching simulator: only the
    /// priority-minimal entry is considered for launch.
    fn dispatch(&mut self, now: f64, slot: usize) {
        loop {
            // The waiting entry with the lowest policy priority.
            let Some(head) = self.waiting[slot].front().copied() else {
                return;
            };
            let stage = &self.stages[head.stage];
            if self.free[slot] < stage.units {
                return;
            }
            let mut ready = 0usize;
            for e in self.waiting[slot].iter() {
                if e.stage == head.stage {
                    ready += 1;
                    if ready == stage.batch.max_batch {
                        break;
                    }
                }
            }
            match self
                .policy
                .release(now, &head, ready, stage.batch.max_batch)
            {
                Release::At(t) if t > now => {
                    // Arm at most one live recheck per slot: arming an
                    // earlier deadline bumps the generation, lazily
                    // cancelling the superseded event still queued.
                    if self.armed[slot].is_none_or(|armed| t < armed) {
                        self.armed[slot] = Some(t);
                        self.timer_gen[slot] += 1;
                        let gen = Event::gen32(self.timer_gen[slot]);
                        self.push(t, EventKind::Recheck, slot, gen);
                    }
                    return;
                }
                // `Now`, or a hold "until" a past instant: launch.
                _ => {
                    let queries = self.take_batch(slot, head.stage, ready);
                    self.launch(now, head.stage, slot, queries);
                }
            }
        }
    }

    /// Removes `ready` same-stage entries of `slot` as a
    /// [`BatchQueries`].
    fn take_batch(&mut self, slot: usize, stage: usize, ready: usize) -> BatchQueries {
        if ready == 1 {
            BatchQueries::One(
                self.take_one_same_stage(slot, stage)
                    .expect("ready entry exists"),
            )
        } else {
            // A recycled buffer (a fresh one before the pool warms up).
            let mut buf = self.query_pool.pop().unwrap_or_default();
            self.take_same_stage_into(slot, stage, ready, &mut buf);
            BatchQueries::Many(buf)
        }
    }

    fn on_arrive(&mut self, now: f64, query: usize, stage_idx: usize) {
        // Multi-path: a stage-0 arrival is an admission decision — the
        // query enters at its admitted path's entry stage, or not at
        // all. (Paths other than 0 never re-enter at flat stage 0, so
        // the remap fires exactly once per fresh query.)
        let stage_idx = if stage_idx == 0 && self.mp.is_some() {
            match self.admit(now, query) {
                Some(entry_stage) => entry_stage,
                None => return,
            }
        } else {
            stage_idx
        };
        // Under resilience `query` is a lane id; routing, history, and
        // the arrival clock key off the bare index while queue entries
        // and batch members carry the lane id.
        let q = lane_query(query);
        let Some(slot) = self.route(now, q, stage_idx) else {
            self.handle_unroutable(now, query, stage_idx);
            return;
        };
        if let Some(rt) = self.resil.as_mut().filter(|_| stage_idx == 0) {
            // What a later hedge dispatch of this query routes away from.
            rt.placed(&mut self.window, q, slot);
        }
        let stage = &self.stages[stage_idx];
        let entry = QueueEntry {
            query,
            stage: stage_idx,
            arrived: self.window.rec(q).arrival,
            enqueued: now,
            seq: self.seq,
        };
        self.seq += 1;
        if self.work_conserving && self.free[slot] >= stage.units {
            // Work-conserving admission: the arriving query starts
            // immediately (exactly the pre-batching behavior), pulling
            // waiting same-stage work on the same replica into its
            // batch when allowed. The arriving query leads the batch.
            let queries = if stage.batch.max_batch > 1 {
                let mut buf = self.query_pool.pop().unwrap_or_default();
                buf.push(query);
                self.take_same_stage_into(slot, stage_idx, stage.batch.max_batch - 1, &mut buf);
                if buf.len() == 1 {
                    buf.clear();
                    self.query_pool.push(buf);
                    BatchQueries::One(query)
                } else {
                    BatchQueries::Many(buf)
                }
            } else {
                BatchQueries::One(query)
            };
            self.launch(now, stage_idx, slot, queries);
        } else {
            self.enqueue(slot, entry);
            // Work-conserving policies launch on admission or
            // completion only: if this entry had fit it would have been
            // admitted above, and the head cannot have started fitting
            // since the last completion — dispatching here would scan
            // the queue for nothing. Batch-forming policies need the
            // dispatch to arm their window timer (or launch a batch the
            // new entry just filled).
            if !self.work_conserving {
                self.dispatch(now, slot);
            }
        }
    }

    /// Closes the telemetry window ending at `now`, adding the closing
    /// window's per-path counts on multi-path runs. An empty span closes
    /// nothing.
    fn close_window(&mut self, now: f64) {
        let live_replicas = self.live_replicas();
        let tele = self.tele.as_mut().expect("telemetry attached");
        if let (Some(window), Some(mp)) = (tele.close(now, live_replicas), self.mp.as_mut()) {
            (window.path_admitted, window.path_completed) = mp.take_window();
        }
    }

    /// Takes batch `idx` out of the table, recycling its table slot.
    fn retire_batch(&mut self, idx: usize) -> Batch {
        self.free_batches.push(idx);
        let vacant = Batch {
            stage: 0,
            slot: 0,
            queries: BatchQueries::One(0),
            finish: 0.0,
        };
        std::mem::replace(&mut self.batches[idx], vacant)
    }

    /// Hands a retired batch's queries to `f` in batch order, then
    /// returns a multi-query buffer to the pool.
    fn for_each_query(&mut self, queries: BatchQueries, mut f: impl FnMut(&mut Self, usize)) {
        match queries {
            BatchQueries::One(query) => f(self, query),
            BatchQueries::Many(mut queries) => {
                for &query in queries.iter() {
                    f(self, query);
                }
                queries.clear();
                self.query_pool.push(queries);
            }
        }
    }

    fn on_complete(&mut self, now: f64, batch: usize) {
        let Batch {
            stage,
            slot,
            queries,
            finish,
        } = self.retire_batch(batch);
        let s = &self.stages[stage];
        self.free[slot] += s.units;
        self.in_flight[slot] -= queries.len();
        if self.track_est {
            self.inflight_finish[slot] -= finish;
            self.inflight_count[slot] -= 1;
        }
        self.gauges.busy -= s.units;
        // Conservation invariant (active under the test profile): a
        // release can never return more units than the replica owns.
        debug_assert!(self.free[slot] <= self.slot_capacity[slot]);

        self.for_each_query(queries, |sim, query| sim.route_onward(now, query, stage));
        self.dispatch(now, slot);
        if self.life.is_some() {
            self.down_if_drained(slot);
        }
    }

    /// Sends a query that finished `stage` to the next stage (or, on a
    /// stage shard, to the next stage's shard), or records its
    /// completion (re-arming its closed-loop client).
    fn route_onward(&mut self, now: f64, query: usize, stage: usize) {
        if let Some(out) = self.outbox.as_mut() {
            // Stage shard with a downstream: hand the query over at its
            // completion instant — the serial loop's same-time Arrive
            // push, minus the shared queue. The query leaves this
            // shard's window.
            out.push_back((now, query, self.window.rec(query).arrival));
            self.window.retire(query);
            return;
        }
        // Resilience: a carcass (its query resolved or its attempt
        // timed out while it sat in service) is discarded here, its
        // baseline service charged to wasted work.
        if let Some(rt) = self.resil.as_mut() {
            if !rt.is_live(&self.window, lane_query(query), lane_gen(query)) {
                rt.stats.wasted_service_s += self.stages[stage].service_time;
                return;
            }
        }
        // A path's stages are contiguous in the concatenated spec, so
        // "advance to stage + 1" is correct within a path; the path's
        // final stage completes the query instead of entering the next
        // path's first stage.
        let last_stage = match self.mp.as_ref() {
            Some(mp) => mp.last_of_path[stage],
            None => stage + 1 == self.stages.len(),
        };
        if !last_stage {
            self.push_arrive(now, query, stage + 1);
            return;
        }
        let (hedge, query) = (is_hedge_lane(query), lane_query(query));
        let latency_s = now - self.window.rec(query).arrival;
        let warm = query >= self.warmup_len;
        if let Some(rt) = self.resil.as_mut() {
            // A live lane finishing resolves the query; retiring its
            // record below cancels the twin lane wherever it is.
            rt.resolve(hedge, latency_s);
        }
        self.completed += 1;
        if warm {
            self.latency.record_secs(latency_s);
        }
        if self.completed == 1 {
            self.first_done = now;
        }
        self.last_done = now;
        if let Some(tele) = self.tele.as_mut() {
            tele.on_completion(latency_s);
        }
        if let Some(mp) = self.mp.as_mut() {
            mp.on_completion(&self.window, query, latency_s, warm);
        }
        self.window.retire(query);
        self.release_client(now);
    }

    /// Stages schedule arrival `query + 1` after arrival `query` popped:
    /// the successor's timestamp comes off the arrival stream.
    fn stage_next_arrival(&mut self, query: usize) {
        let next = query + 1;
        let stream = self.arrival_stream.as_mut().expect("schedule is staged");
        let t = stream.next().expect("arrival stream ended early");
        // Built-in processes are sorted by construction and
        // `TraceArrivals::new` rejects decreasing traces; this guards
        // custom processes against the stream contract.
        debug_assert!(
            t >= self.window.rec(query).arrival,
            "streamed arrivals must be nondecreasing"
        );
        self.window.create(next, t);
        self.arrival_span = self.arrival_span.max(t);
        // On its own lane: see `EventQueue::push_schedule`.
        self.queue
            .push_schedule(Event::new(t, next as u64, EventKind::Arrive, next, 0));
    }

    pub(crate) fn run(mut self) -> Result<SimResult, SimError> {
        while let Some(event) = self.queue.pop() {
            if self.step(event).is_break() {
                break;
            }
        }
        if let Some(err) = self.life.as_mut().and_then(|l| l.fatal.take()) {
            return Err(err);
        }
        Ok(self.finish())
    }

    /// Processes one popped event — the one dispatch the serial loop
    /// and every stage shard share. Breaks once an arrival leaves the
    /// run failed ([`SimError::NoAvailableReplica`]).
    fn step(&mut self, event: Event) -> ControlFlow<()> {
        let now = event.time();
        // Telemetry ends at the last resolution: an event popping after
        // it (a stale warm-up, a window tick armed before the end)
        // advances no integral and closes no window, so `finish` closes
        // the trailing window at the last resolution.
        let telemetry_live = self.tele.is_some() && self.resolved() < self.num_queries;
        if let Some(tele) = self.tele.as_mut().filter(|_| telemetry_live) {
            tele.advance(now, self.gauges);
        }
        match event.kind() {
            EventKind::Arrive => {
                // Under resilience the payload packs the lane identity
                // around the stage; rebuild the lane id that flows
                // through queues and batches.
                let (query, payload) = (event.a as usize, event.b as usize);
                let (id, stage) = match self.resil {
                    Some(_) => unpack_lane(query, payload),
                    None => (query, payload),
                };
                self.last_time = now;
                // A schedule arrival stages its successor (closed-loop
                // re-injections sit past `schedule_len` and never match;
                // lifecycle requeues re-use schedule query indices but
                // carry later seqs, so the seq check keeps them from
                // staging duplicates).
                let scheduled = stage == 0 && event.seq() as usize == query;
                if scheduled && query + 1 < self.schedule_len {
                    self.stage_next_arrival(query);
                }
                // Window arrival counting: schedule-driven stage-0
                // arrivals only (their seq is their query index);
                // requeues and parked flushes re-use query indices but
                // carry later seqs, so they never double-count.
                // Closed-loop injections count at `inject`.
                if scheduled && query < self.schedule_len {
                    if let Some(tele) = self.tele.as_mut() {
                        tele.on_arrival();
                    }
                }
                if let Some(rt) = self.resil.as_mut() {
                    if stage == 0 && rt.start(&mut self.window, query) {
                        // First dispatch of the query: attempt 1 starts
                        // now, with its timeout and hedge.
                        self.arm_attempt(now, query, false);
                    } else if !self.lane_live(id) {
                        // A cancelled lane's leftover arrival (requeue or
                        // parked flush of an attempt that has since
                        // resolved or timed out).
                        return ControlFlow::Continue(());
                    }
                }
                self.on_arrive(now, id, stage);
                if self.life.as_ref().is_some_and(|l| l.fatal.is_some()) {
                    return ControlFlow::Break(());
                }
            }
            EventKind::Complete => {
                // A fail-stop that killed the batch bumped its
                // generation; the orphaned completion is a no-op.
                let batch = event.a as usize;
                if event.b == self.batch_gen[batch] as u32 {
                    self.last_time = now;
                    self.on_complete(now, batch);
                }
            }
            EventKind::Recheck => {
                // Lazy cancellation: only the latest-armed timer of a
                // slot dispatches. A superseded timer can never launch
                // anything a live recheck, arrival, or completion would
                // not have launched first (the armed time is always at
                // or before the head entry's hold deadline), so skipping
                // it changes nothing but the wasted queue scan.
                let slot = event.a as usize;
                if event.b == self.timer_gen[slot] as u32 {
                    self.armed[slot] = None;
                    self.dispatch(now, slot);
                }
            }
            EventKind::Lifecycle => self.on_lifecycle(now, event.a as usize),
            EventKind::WarmDone => self.on_warm_done(event.a as usize, event.b),
            EventKind::WindowTick if telemetry_live => {
                self.close_window(now);
                self.autoscale_tick(now);
                // Re-arm while the run is still going; the last
                // (partial) window closes in `finish`.
                if !self.queue.is_empty() {
                    let window_s = self.tele.as_ref().expect("telemetry attached").window_s;
                    self.push(now + window_s, EventKind::WindowTick, 0, 0);
                }
            }
            EventKind::WindowTick => {}
            EventKind::Timeout => {
                let query = event.a as usize;
                let rt = self.resil.as_ref().expect("resilience runtime attached");
                if rt.is_live(&self.window, query, event.b) {
                    self.on_timeout(now, query);
                }
            }
            EventKind::Hedge => {
                let (query, gen) = (event.a as usize, event.b);
                let rt = self.resil.as_ref().expect("resilience runtime attached");
                if rt.hedge_due(&self.window, query, gen) {
                    self.on_hedge(now, query, gen);
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Steps stage `stage`'s shard of a sharded (lifecycle-free) run
    /// through the serial loop's [`step`](Self::step) until it finishes
    /// (returns `true`), runs out of input, or holds `chunk` hand-offs
    /// in its [`outbox`](Self::outbox). The head shard takes an empty,
    /// closed inbox and replays the arrival schedule itself; a later
    /// shard takes in `inbox`'s hand-offs in order, each after every
    /// pending event at or before its time (the serial tie order; see
    /// shard.rs). `closed` says that no more will join `inbox`. With
    /// `inbox` empty and open the shard stops. It may run an event only
    /// at or before the last hand-off it took in, since the next one may
    /// arrive at that time; but it took that hand-off in only once every
    /// pending event was later, and taking it in created later ones only.
    pub(crate) fn advance(
        &mut self,
        stage: usize,
        inbox: &mut VecDeque<Handoff>,
        closed: bool,
        chunk: usize,
    ) -> bool {
        if let Some(out) = self.outbox.as_mut() {
            // An event hands on at most one batch, so stopping at
            // `chunk` never grows the outbox past this capacity.
            let cap = chunk + self.stages[stage].batch.max_batch - 1;
            out.reserve_exact(cap.saturating_sub(out.len()));
        }
        loop {
            if self.outbox.as_ref().is_some_and(|out| out.len() >= chunk) {
                return false;
            }
            let take_queued = match (self.queue.peek(), inbox.front()) {
                (Some(ev), Some(&(t, ..))) => ev.time() <= t,
                (Some(_), None) => closed,
                (None, Some(_)) => false,
                (None, None) => return closed,
            };
            if take_queued {
                let event = self.queue.pop().expect("peeked event exists");
                // Shards are lifecycle-free, so no arrival fails the run.
                let flow = self.step(event);
                debug_assert!(flow.is_continue());
            } else if let Some((t, query, arrived)) = inbox.pop_front() {
                // The query's end-to-end clock starts at its *original*
                // arrival (EDF deadlines and latency both key off it),
                // not the hand-off instant.
                self.window.create(query, arrived);
                self.arrival_span = self.arrival_span.max(arrived);
                self.last_time = t;
                self.on_arrive(t, query, stage);
            } else {
                return false;
            }
        }
    }

    /// The hand-offs a shard with a downstream stage emitted and its
    /// driver has not taken yet; `None` on the final stage's shard and
    /// on the serial loop.
    pub(crate) fn outbox(&mut self) -> Option<&mut VecDeque<Handoff>> {
        self.outbox.as_mut()
    }

    /// Queries resolved so far: completed, shed, dropped, or timed out
    /// for good.
    fn resolved(&self) -> usize {
        let timed_out = self.resil.as_ref().map_or(0, |r| r.stats.timed_out);
        self.completed + self.shed + self.dropped + timed_out
    }

    /// Takes the run's raw totals (a stage shard's contribution to the
    /// merged result).
    pub(crate) fn totals(&mut self) -> RunTotals {
        RunTotals {
            busy_unit_seconds: std::mem::take(&mut self.busy_unit_seconds),
            last_time: self.last_time,
            launches: self.launches,
            served: self.served,
            completed: self.completed,
            latency: std::mem::take(&mut self.latency),
            qps: completion_rate(self.completed, self.first_done, self.last_done),
            arrival_span: self.arrival_span,
        }
    }

    fn finish(mut self) -> SimResult {
        // Conservation safety net: parked queries count as shed, and on
        // resilient runs every unresolved query does (a query with a
        // parked lane *and* a live twin, or a silently-lost lane under
        // Shed, resolves exactly once).
        if self.life.is_some() {
            self.shed_parked();
        }
        if let Some(rt) = self.resil.as_ref() {
            let unresolved = rt.unresolved(&self.window);
            self.shed += unresolved;
            if let Some(tele) = self.tele.as_mut() {
                tele.on_lost(false, unresolved);
            }
        }
        // The resolution ledger: every query resolved exactly once.
        assert_eq!(
            self.resolved(),
            self.num_queries,
            "completed + shed + dropped + timed out must equal the queries offered"
        );
        // Close the trailing partial window at the integral clock.
        if let Some(end) = self.tele.as_ref().and_then(Telemetry::end) {
            self.close_window(end);
        }
        // Saturation: open-loop offered load beyond the fully-batched
        // analytic capacity (identical to `max_qps()` for per-query
        // stages). Closed loops self-regulate, so only the backlog test
        // applies. Multi-path runs compare the offered rate against the
        // *best single path's* capacity (the concatenated spec's own
        // bound sums every path's load as if each query took all of
        // them); for a single-path set the figure is bit-equal to the
        // spec's.
        let offered = self.arrivals.mean_rate();
        let full_batch_qps = match self.mp.as_ref() {
            Some(mp) => mp.max_full_batch_qps,
            None => self.spec.max_qps_at_full_batch(),
        };
        let rate_overload = self.think_time_s.is_none() && offered > full_batch_qps;
        let mut result = self.totals().into_result(self.spec, rate_overload);
        result.shed = self.shed;
        result.dropped = self.dropped;
        if let Some(tele) = self.tele.take() {
            result.cost_integral = tele.cost_integral();
            result.windows = tele.windows;
        }
        if let Some(mp) = self.mp.take() {
            (result.paths, result.admission_shed) = mp.into_stats();
        }
        result.resilience = self.resil.take().map(|rt| rt.stats);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchModel, BatchWindow, EarliestDeadlineFirst, ReplicaGroup, Scenario};
    use recpipe_data::{ClosedLoopArrivals, DiurnalArrivals, MmppArrivals, PoissonArrivals};

    fn single_stage(servers: usize, service: f64) -> PipelineSpec {
        PipelineSpec::new(vec![ReplicaGroup::new("r", servers)])
            .with_stage(StageSpec::new("s", 0, 1, service))
            .unwrap()
    }

    fn batched_stage(
        servers: usize,
        service: f64,
        max_batch: usize,
        marginal: f64,
    ) -> PipelineSpec {
        PipelineSpec::new(vec![ReplicaGroup::new("r", servers)])
            .with_stage(
                StageSpec::new("s", 0, 1, service).with_batch(BatchModel::new(max_batch, marginal)),
            )
            .unwrap()
    }

    #[test]
    fn all_queries_complete() {
        let spec = single_stage(4, 0.002);
        let out = spec.simulate(100.0, 2_000, 1);
        assert_eq!(out.completed, 2_000);
    }

    #[test]
    fn completion_rate_counts_intervals_over_the_span() {
        // Fewer than two completions, or a zero span, has no rate.
        assert_eq!(completion_rate(0, 0.0, 0.0), 0.0);
        assert_eq!(completion_rate(1, 1.0, 1.0), 0.0);
        assert_eq!(completion_rate(5, 2.0, 2.0), 0.0);
        // 11 completions, one every 100 ms: exactly 10 QPS.
        assert!((completion_rate(11, 0.0, 1.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_load_latency_equals_service_floor() {
        // At negligible load there is no queueing: every latency is the
        // service time.
        let spec = single_stage(8, 0.004);
        let mut out = spec.simulate(1.0, 500, 2);
        let p50 = out.latency.p50().as_secs_f64();
        assert!((p50 - 0.004).abs() < 1e-6, "p50 {p50}");
    }

    #[test]
    fn latency_grows_with_load() {
        let spec = single_stage(2, 0.01);
        let mut lo = spec.simulate(20.0, 8_000, 4);
        let mut hi = spec.simulate(180.0, 8_000, 4);
        assert!(hi.latency.p99() > lo.latency.p99());
    }

    #[test]
    fn overload_is_flagged_saturated() {
        let spec = single_stage(1, 0.01); // capacity 100 QPS
        let out = spec.simulate(150.0, 4_000, 5);
        assert!(out.saturated);
    }

    #[test]
    fn stable_load_is_not_saturated() {
        let spec = single_stage(8, 0.01); // capacity 800 QPS
        let out = spec.simulate(200.0, 4_000, 6);
        assert!(!out.saturated);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let spec = single_stage(4, 0.005);
        let mut a = spec.simulate(300.0, 3_000, 9);
        let mut b = spec.simulate(300.0, 3_000, 9);
        assert_eq!(a.latency.p99(), b.latency.p99());
        assert_eq!(a.qps, b.qps);
    }

    #[test]
    fn multi_stage_latency_sums_floors() {
        let spec = PipelineSpec::new(vec![
            ReplicaGroup::new("gpu", 1),
            ReplicaGroup::new("cpu", 16),
        ])
        .with_stage(StageSpec::new("front", 0, 1, 0.001))
        .unwrap()
        .with_stage(StageSpec::new("back", 1, 1, 0.006))
        .unwrap();
        let mut out = spec.simulate(5.0, 1_000, 10);
        let p50 = out.latency.p50().as_secs_f64();
        assert!((p50 - 0.007).abs() < 1e-4, "p50 {p50}");
    }

    #[test]
    fn shared_resource_contention_raises_latency() {
        // Two stages sharing one pool must be slower than the same stages
        // on dedicated pools of the same per-stage size at high load.
        let shared = PipelineSpec::new(vec![ReplicaGroup::new("cpu", 8)])
            .with_stage(StageSpec::new("a", 0, 1, 0.004))
            .unwrap()
            .with_stage(StageSpec::new("b", 0, 1, 0.004))
            .unwrap();
        let dedicated = PipelineSpec::new(vec![
            ReplicaGroup::new("cpu0", 8),
            ReplicaGroup::new("cpu1", 8),
        ])
        .with_stage(StageSpec::new("a", 0, 1, 0.004))
        .unwrap()
        .with_stage(StageSpec::new("b", 1, 1, 0.004))
        .unwrap();
        let mut s = shared.simulate(900.0, 20_000, 11);
        let mut d = dedicated.simulate(900.0, 20_000, 11);
        assert!(s.latency.p99() > d.latency.p99());
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let service = 0.01;
        let spec = single_stage(4, service);
        // rho = 200 * 0.01 / 4 = 0.5.
        let out = spec.simulate(200.0, 20_000, 12);
        assert!(
            (out.utilization[0] - 0.5).abs() < 0.06,
            "utilization {}",
            out.utilization[0]
        );
    }

    #[test]
    fn multi_unit_stages_consume_more_capacity() {
        // units=2 halves the effective parallelism → saturation at half
        // the QPS.
        let spec = PipelineSpec::new(vec![ReplicaGroup::new("cpu", 4)])
            .with_stage(StageSpec::new("wide", 0, 2, 0.01))
            .unwrap();
        assert!((spec.max_qps() - 200.0).abs() < 1e-9);
        let out = spec.simulate(300.0, 3_000, 13);
        assert!(out.saturated);
    }

    #[test]
    #[should_panic(expected = "no stages")]
    fn empty_pipeline_panics() {
        let spec = PipelineSpec::new(vec![ReplicaGroup::new("r", 1)]);
        spec.simulate(10.0, 10, 0);
    }

    // ------------------------------------------------------------------
    // qsim v2: batching, policies, arrival processes
    // ------------------------------------------------------------------

    #[test]
    fn mean_batch_is_one_without_batching() {
        let out = single_stage(2, 0.004).simulate(100.0, 1_000, 1);
        assert_eq!(out.mean_batch, 1.0);
    }

    #[test]
    fn batching_raises_capacity_at_saturation() {
        // One server, 10 ms service: per-query capacity is 100 QPS. With
        // batch 8 at marginal cost 0.1 a full batch costs 17 ms for 8
        // queries (~470 QPS). Offered 300 QPS: per-query serving
        // saturates, batched serving keeps up.
        let per_query = single_stage(1, 0.01);
        let batched = batched_stage(1, 0.01, 8, 0.1);
        assert!(batched.max_qps_at_full_batch() > 4.0 * per_query.max_qps());

        let arrivals = PoissonArrivals::new(300.0);
        let slow = Scenario::new(&per_query, &arrivals, 6_000, 21)
            .run()
            .unwrap();
        let fast = Scenario::new(&batched, &arrivals, 6_000, 21).run().unwrap();
        assert!(slow.saturated);
        assert!(!fast.saturated, "batched run saturated");
        assert!(
            fast.qps > slow.qps,
            "batched {} vs per-query {}",
            fast.qps,
            slow.qps
        );
        assert!(fast.mean_batch > 2.0, "mean batch {}", fast.mean_batch);
    }

    #[test]
    fn batch_window_pays_bounded_latency_at_low_load() {
        // A lone query waits out the window before launching.
        let spec = batched_stage(2, 0.002, 8, 0.1);
        let window = 0.004;
        let mut out = Scenario::new(&spec, &PoissonArrivals::new(5.0), 400, 2)
            .policy(&BatchWindow::new(window))
            .run()
            .unwrap();
        let p50 = out.latency.p50().as_secs_f64();
        assert!(
            (p50 - (window + 0.002)).abs() < 1e-3,
            "p50 {p50} vs window+service {}",
            window + 0.002
        );
    }

    #[test]
    fn batch_window_forms_larger_batches_than_greedy_fifo() {
        let spec = batched_stage(1, 0.004, 8, 0.2);
        let arrivals = PoissonArrivals::new(400.0);
        let scenario = || Scenario::new(&spec, &arrivals, 4_000, 5);
        let fifo = scenario().run().unwrap();
        let windowed = scenario().policy(&BatchWindow::new(0.01)).run().unwrap();
        assert!(
            windowed.mean_batch > fifo.mean_batch,
            "windowed {} vs fifo {}",
            windowed.mean_batch,
            fifo.mean_batch
        );
    }

    #[test]
    fn edf_deadline_value_changes_batching_behavior() {
        // The deadline is a real knob: a loose budget batches deeply, a
        // tight one launches almost immediately.
        let spec = batched_stage(1, 0.004, 8, 0.2);
        let arrivals = PoissonArrivals::new(300.0);
        let run = |policy: &dyn SchedulingPolicy| {
            let scenario = Scenario::new(&spec, &arrivals, 3_000, 5);
            scenario.policy(policy).run().unwrap()
        };
        let tight = run(&EarliestDeadlineFirst::new(0.002));
        let loose = run(&EarliestDeadlineFirst::new(0.2));
        assert!(
            loose.mean_batch > tight.mean_batch + 0.2,
            "loose {} vs tight {}",
            loose.mean_batch,
            tight.mean_batch
        );
    }

    #[test]
    fn edf_matches_fifo_on_single_stage() {
        // With one per-query stage, system age equals queue age and the
        // slack window never engages (max_batch = 1): EDF degenerates
        // to FIFO exactly.
        let spec = single_stage(2, 0.006);
        let a = Scenario::new(&spec, &PoissonArrivals::new(250.0), 2_000, 8)
            .run()
            .unwrap();
        let b = Scenario::new(&spec, &PoissonArrivals::new(250.0), 2_000, 8)
            .policy(&EarliestDeadlineFirst::new(0.05))
            .run()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn edf_cuts_tail_latency_on_shared_resource() {
        // Two stages share one pool. FIFO serves by queue-join time, so
        // a query that already waited at stage 0 queues behind fresh
        // stage-0 arrivals at stage 1. EDF orders by system age and
        // pulls stragglers forward, trimming the tail.
        let spec = PipelineSpec::new(vec![ReplicaGroup::new("cpu", 4)])
            .with_stage(StageSpec::new("a", 0, 1, 0.003))
            .unwrap()
            .with_stage(StageSpec::new("b", 0, 1, 0.003))
            .unwrap();
        let arrivals = MmppArrivals::new(200.0, 1_200.0, 0.3, 0.1);
        let scenario = || Scenario::new(&spec, &arrivals, 12_000, 3);
        let mut fifo = scenario().run().unwrap();
        let mut edf = scenario()
            .policy(&EarliestDeadlineFirst::new(0.02))
            .run()
            .unwrap();
        assert_eq!(edf.completed, 12_000);
        assert!(
            edf.latency.p99() <= fifo.latency.p99(),
            "edf p99 {:?} vs fifo p99 {:?}",
            edf.latency.p99(),
            fifo.latency.p99()
        );
    }

    #[test]
    fn bursty_arrivals_fatten_the_tail() {
        let spec = single_stage(4, 0.004);
        // Same mean rate (500 QPS), very different variance.
        let poisson = PoissonArrivals::new(500.0);
        let bursty = MmppArrivals::new(125.0, 1_625.0, 0.3, 0.1);
        assert!((bursty.mean_rate() - 500.0).abs() < 1.0);
        let mut smooth = Scenario::new(&spec, &poisson, 20_000, 6).run().unwrap();
        let mut spiky = Scenario::new(&spec, &bursty, 20_000, 6).run().unwrap();
        assert!(
            spiky.latency.p99() > smooth.latency.p99(),
            "bursty p99 {:?} vs poisson p99 {:?}",
            spiky.latency.p99(),
            smooth.latency.p99()
        );
    }

    #[test]
    fn diurnal_arrivals_complete_and_stay_stable_under_capacity() {
        let spec = single_stage(8, 0.004); // capacity 2000 QPS
        let diurnal = DiurnalArrivals::new(100.0, 1_500.0, 4.0);
        let out = Scenario::new(&spec, &diurnal, 10_000, 9).run().unwrap();
        assert_eq!(out.completed, 10_000);
        assert!(!out.saturated);
    }

    #[test]
    fn closed_loop_self_regulates_instead_of_saturating() {
        // 8 clients against 1 server of 10 ms: an open loop at the same
        // nominal rate would diverge; the closed loop bounds in-flight
        // work at the population size.
        let spec = single_stage(1, 0.01);
        let closed = ClosedLoopArrivals::new(8, 0.01); // nominal 800 QPS
        let mut out = Scenario::new(&spec, &closed, 3_000, 4).run().unwrap();
        assert_eq!(out.completed, 3_000);
        // Worst case a query waits behind the 7 other in-flight queries.
        assert!(
            out.latency.p99().as_secs_f64() <= 8.0 * 0.01 + 1e-9,
            "closed-loop p99 {:?}",
            out.latency.p99()
        );
        assert!(!out.saturated);
    }

    #[test]
    fn closed_loop_throughput_tracks_little_law() {
        // N clients, service s, think z: X = N / (R + z), R >= s.
        let spec = single_stage(4, 0.01);
        let closed = ClosedLoopArrivals::new(4, 0.03);
        let out = Scenario::new(&spec, &closed, 5_000, 7).run().unwrap();
        let expected = 4.0 / (0.01 + 0.03);
        assert!(
            (out.qps - expected).abs() / expected < 0.05,
            "qps {} vs Little's law {expected}",
            out.qps
        );
    }

    #[test]
    fn serve_is_deterministic_across_policies_and_arrivals() {
        let spec = batched_stage(2, 0.005, 4, 0.3);
        let arrivals = MmppArrivals::new(100.0, 900.0, 0.2, 0.1);
        let policy = BatchWindow::new(0.003);
        let scenario = || Scenario::new(&spec, &arrivals, 3_000, 11);
        let a = scenario().policy(&policy).run().unwrap();
        let b = scenario().policy(&policy).run().unwrap();
        assert_eq!(a, b);
    }

    // ------------------------------------------------------------------
    // qsim v3: replica groups and routers
    // ------------------------------------------------------------------

    use crate::{JoinShortestQueue, PowerOfTwoChoices, RoundRobin, Router};

    /// Mixed job sizes on one replicated fleet — the scenario where
    /// load-aware routing matters: a replica grinding a long backend
    /// query keeps receiving oblivious round-robin assignments while
    /// its siblings idle.
    fn mixed_fleet(replicas: usize) -> PipelineSpec {
        PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 1, replicas)])
            .with_stage(StageSpec::new("front", 0, 1, 0.002))
            .unwrap()
            .with_stage(StageSpec::new("back", 0, 1, 0.010))
            .unwrap()
    }

    #[test]
    fn replication_multiplies_analytic_capacity() {
        let one = mixed_fleet(1);
        let four = mixed_fleet(4);
        assert!((four.max_qps() - 4.0 * one.max_qps()).abs() < 1e-9);
        assert!(four.has_replication() && !one.has_replication());
    }

    #[test]
    fn single_replica_serve_routed_matches_serve_for_every_router() {
        // With one replica per group, routing has no choices: every
        // router must reproduce round-robin bit-for-bit — the cluster
        // redesign is invisible until replicas appear.
        let spec = PipelineSpec::new(vec![
            ReplicaGroup::new("gpu", 1),
            ReplicaGroup::new("cpu", 16),
        ])
        .with_stage(StageSpec::new("front", 0, 1, 0.001))
        .unwrap()
        .with_stage(StageSpec::new("back", 1, 2, 0.006))
        .unwrap();
        let arrivals = MmppArrivals::new(100.0, 900.0, 0.3, 0.1);
        let scenario = || Scenario::new(&spec, &arrivals, 2_000, 13);
        let baseline = scenario().run().unwrap();
        let routers: [&dyn Router; 3] = [&RoundRobin, &JoinShortestQueue, &PowerOfTwoChoices];
        for router in routers {
            let routed = scenario().router(router).run().unwrap();
            assert_eq!(baseline, routed, "router {}", router.name());
        }
        assert!(baseline.replica_utilization.is_empty());
    }

    #[test]
    fn jsq_and_po2_beat_round_robin_p99_at_high_utilization() {
        // The cluster headline: at rho = 0.9 with mixed job sizes,
        // load-aware routing cuts the tail that oblivious round-robin
        // pays for ignoring replica state (JSQ ~2x here; d=2 sampling
        // recovers most of that with two probes).
        let spec = mixed_fleet(4);
        let qps = 0.9 * spec.max_qps();
        let arrivals = PoissonArrivals::new(qps);
        let scenario = || Scenario::new(&spec, &arrivals, 15_000, 7);
        let mut rr = scenario().run().unwrap();
        let mut jsq = scenario().router(&JoinShortestQueue).run().unwrap();
        let mut po2 = scenario().router(&PowerOfTwoChoices).run().unwrap();
        assert_eq!(rr.completed, 15_000);
        assert!(
            jsq.p99_seconds() < rr.p99_seconds() * 0.8,
            "jsq p99 {} vs rr p99 {}",
            jsq.p99_seconds(),
            rr.p99_seconds()
        );
        assert!(
            po2.p99_seconds() < rr.p99_seconds() * 0.9,
            "po2 p99 {} vs rr p99 {}",
            po2.p99_seconds(),
            rr.p99_seconds()
        );
    }

    #[test]
    fn replicated_runs_report_per_replica_utilization() {
        let spec = mixed_fleet(4);
        let out = Scenario::new(&spec, &PoissonArrivals::new(0.5 * spec.max_qps()), 4_000, 3)
            .run()
            .unwrap();
        assert_eq!(out.replica_utilization.len(), 1);
        assert_eq!(out.replica_utilization[0].len(), 4);
        // The group aggregate is the mean of its replicas (equal
        // capacities).
        let mean: f64 = out.replica_utilization[0].iter().sum::<f64>() / 4.0;
        assert!((mean - out.utilization[0]).abs() < 1e-9);

        // On a single-stage fleet, round-robin's per-replica streams
        // are identical in distribution: utilization balances tightly.
        let uniform = PipelineSpec::new(vec![ReplicaGroup::replicated("worker", 1, 4)])
            .with_stage(StageSpec::new("rank", 0, 1, 0.004))
            .unwrap();
        let arrivals = PoissonArrivals::new(0.5 * uniform.max_qps());
        let balanced = Scenario::new(&uniform, &arrivals, 4_000, 3).run().unwrap();
        assert!(
            balanced.replica_imbalance() < 0.05,
            "imbalance {}",
            balanced.replica_imbalance()
        );
    }

    #[test]
    fn replication_rescues_an_overloaded_pipeline() {
        let spec = mixed_fleet(1);
        let qps = 2.0 * spec.max_qps();
        let arrivals = PoissonArrivals::new(qps);
        let alone = Scenario::new(&spec, &arrivals, 4_000, 9).run().unwrap();
        assert!(alone.saturated);
        let fleet = mixed_fleet(4);
        let scaled = Scenario::new(&fleet, &arrivals, 4_000, 9)
            .router(&JoinShortestQueue)
            .run()
            .unwrap();
        assert!(!scaled.saturated);
        assert!(scaled.qps > alone.qps);
    }

    #[test]
    fn replicated_serving_is_deterministic_per_router() {
        let spec = mixed_fleet(3);
        let arrivals = MmppArrivals::new(80.0, 600.0, 0.3, 0.1);
        let routers: [&dyn Router; 3] = [&RoundRobin, &JoinShortestQueue, &PowerOfTwoChoices];
        let window = BatchWindow::new(0.002);
        for router in routers {
            let run = || {
                let scenario = Scenario::new(&spec, &arrivals, 2_000, 5);
                scenario.policy(&window).router(router).run().unwrap()
            };
            assert_eq!(run(), run(), "router {}", router.name());
        }
    }

    #[test]
    fn batching_composes_with_replication() {
        // Batched stages on a replicated fleet: batches form within one
        // replica's queue (never spanning replicas) and still amortize.
        let spec = PipelineSpec::new(vec![ReplicaGroup::replicated("gpu", 1, 3)])
            .with_stage(StageSpec::new("rank", 0, 1, 0.004).with_batch(BatchModel::new(8, 0.2)))
            .unwrap();
        let arrivals = PoissonArrivals::new(600.0);
        let out = Scenario::new(&spec, &arrivals, 6_000, 2)
            .policy(&BatchWindow::new(0.004))
            .router(&JoinShortestQueue)
            .run()
            .unwrap();
        assert_eq!(out.completed, 6_000);
        assert!(out.mean_batch > 1.5, "mean batch {}", out.mean_batch);
        assert!(out.mean_batch <= 8.0 + 1e-12);
    }

    // ------------------------------------------------------------------
    // qsim v4: heterogeneous fleets, expected-wait, and affinity
    // ------------------------------------------------------------------

    use crate::{ExpectedWait, LeastWorkLeft, ReplicaProfile, Sticky};

    /// A two-generation fleet: `fast` current-generation replicas at
    /// speed 1.0 and `slow` previous-generation ones at `speed`, all
    /// single-unit, serving the mixed 2 ms / 10 ms stage pair.
    fn two_generation_fleet(fast: usize, slow: usize, speed: f64) -> PipelineSpec {
        let mut profiles = vec![ReplicaProfile::baseline(1); fast];
        profiles.extend(std::iter::repeat_n(ReplicaProfile::new(1, speed), slow));
        PipelineSpec::new(vec![ReplicaGroup::heterogeneous("worker", profiles)])
            .with_stage(StageSpec::new("front", 0, 1, 0.002))
            .unwrap()
            .with_stage(StageSpec::new("back", 0, 1, 0.010))
            .unwrap()
    }

    #[test]
    fn mixed_fleet_capacity_is_speed_weighted() {
        // 2 fast + 2 half-speed replicas drain like 3 fast ones.
        let mixed = two_generation_fleet(2, 2, 0.5);
        let uniform = mixed_fleet(3);
        assert!((mixed.max_qps() - uniform.max_qps()).abs() < 1e-9);
        assert!(mixed.has_heterogeneity() && !uniform.has_heterogeneity());
    }

    #[test]
    fn slow_replicas_serve_slower() {
        // At negligible load every query pays service only; on a fleet
        // of one slow replica the floor scales by 1/speed.
        let slow = PipelineSpec::new(vec![ReplicaGroup::heterogeneous(
            "old",
            vec![ReplicaProfile::new(4, 0.5)],
        )])
        .with_stage(StageSpec::new("rank", 0, 1, 0.004))
        .unwrap();
        let mut out = Scenario::new(&slow, &PoissonArrivals::new(1.0), 500, 2)
            .router(&JoinShortestQueue)
            .run()
            .unwrap();
        let p50 = out.latency.p50().as_secs_f64();
        assert!((p50 - 0.008).abs() < 1e-6, "p50 {p50}");
    }

    #[test]
    fn expected_wait_beats_jsq_and_least_work_on_a_mixed_generation_fleet() {
        // The heterogeneity headline (ROADMAP's expected-wait item): on
        // a two-generation fleet at rho = 0.9, JSQ's query count and
        // least-work's free units both treat an old 0.4-speed box like
        // a new one; weighing booked work by replica speed routes
        // around the slow generation's long drains and wins the tail.
        let spec = two_generation_fleet(2, 2, 0.4);
        let arrivals = PoissonArrivals::new(0.9 * spec.max_qps());
        let scenario = || Scenario::new(&spec, &arrivals, 20_000, 7);
        let mut jsq = scenario().router(&JoinShortestQueue).run().unwrap();
        let mut lwl = scenario().router(&LeastWorkLeft).run().unwrap();
        let mut ew = scenario().router(&ExpectedWait).run().unwrap();
        assert_eq!(ew.completed, 20_000);
        assert!(
            ew.p99_seconds() < jsq.p99_seconds() * 0.9,
            "expected-wait p99 {} vs jsq p99 {}",
            ew.p99_seconds(),
            jsq.p99_seconds()
        );
        assert!(
            ew.p99_seconds() < lwl.p99_seconds() * 0.9,
            "expected-wait p99 {} vs least-work p99 {}",
            ew.p99_seconds(),
            lwl.p99_seconds()
        );
    }

    #[test]
    fn expected_wait_tracks_jsq_on_uniform_fleets() {
        // On a uniform fleet the speed term is constant, so expected
        // wait and queue length are closely correlated signals: the
        // tails land within a modest band of each other.
        let spec = mixed_fleet(4);
        let arrivals = PoissonArrivals::new(0.9 * spec.max_qps());
        let scenario = || Scenario::new(&spec, &arrivals, 15_000, 7);
        let mut jsq = scenario().router(&JoinShortestQueue).run().unwrap();
        let mut ew = scenario().router(&ExpectedWait).run().unwrap();
        let ratio = ew.p99_seconds() / jsq.p99_seconds();
        assert!(
            (0.7..1.3).contains(&ratio),
            "uniform-fleet ew/jsq p99 ratio {ratio}"
        );
    }

    #[test]
    fn sticky_keeps_batch_mates_together_and_forms_the_deepest_batches() {
        // A stage-0 batch completes as one event, so with sticky
        // routing all its members re-join the same replica at stage 1
        // and re-batch together; re-evaluating routers scatter them.
        // Bursty arrivals on a mixed-speed batched fleet make the
        // cohesion visible as strictly deeper mean batches.
        use recpipe_data::TraceArrivals;
        let spec = PipelineSpec::new(vec![ReplicaGroup::heterogeneous(
            "gpu",
            vec![ReplicaProfile::baseline(1), ReplicaProfile::new(1, 0.5)],
        )])
        .with_stage(StageSpec::new("rank", 0, 1, 0.004).with_batch(BatchModel::new(8, 0.2)))
        .unwrap()
        .with_stage(StageSpec::new("rerank", 0, 1, 0.003).with_batch(BatchModel::new(8, 0.2)))
        .unwrap();
        let window = BatchWindow::new(0.001);
        let times: Vec<f64> = (0..100)
            .flat_map(|b| std::iter::repeat_n(b as f64 * 0.040, 8))
            .collect();
        let burst = TraceArrivals::new(times);
        let run = |router: &dyn Router| {
            let scenario = Scenario::new(&spec, &burst, 800, 7).policy(&window);
            scenario.router(router).run().unwrap()
        };
        let sticky = run(&Sticky);
        let jsq = run(&JoinShortestQueue);
        assert_eq!(sticky.completed, 800);
        assert!(
            sticky.mean_batch > jsq.mean_batch + 0.3,
            "sticky mean batch {} vs jsq {}",
            sticky.mean_batch,
            jsq.mean_batch
        );
    }

    #[test]
    fn heterogeneous_routing_is_deterministic_per_router() {
        let spec = two_generation_fleet(2, 2, 0.6);
        let arrivals = MmppArrivals::new(60.0, 400.0, 0.3, 0.1);
        let routers: [&dyn Router; 3] = [&ExpectedWait, &Sticky, &JoinShortestQueue];
        let window = BatchWindow::new(0.002);
        for router in routers {
            let run = || {
                let scenario = Scenario::new(&spec, &arrivals, 2_000, 5);
                scenario.policy(&window).router(router).run().unwrap()
            };
            assert_eq!(run(), run(), "router {}", router.name());
        }
    }

    #[test]
    fn mixed_capacity_fleet_reports_per_replica_utilization() {
        // Heterogeneous capacities: per-replica utilization normalizes
        // by each replica's own capacity and stays in [0, 1].
        let spec = PipelineSpec::new(vec![ReplicaGroup::heterogeneous(
            "mixed",
            vec![ReplicaProfile::baseline(2), ReplicaProfile::new(1, 0.5)],
        )])
        .with_stage(StageSpec::new("rank", 0, 1, 0.004))
        .unwrap();
        let out = Scenario::new(&spec, &PoissonArrivals::new(0.6 * spec.max_qps()), 5_000, 3)
            .router(&ExpectedWait)
            .run()
            .unwrap();
        assert_eq!(out.completed, 5_000);
        assert_eq!(out.replica_utilization[0].len(), 2);
        for u in &out.replica_utilization[0] {
            assert!((0.0..=1.0).contains(u), "utilization {u}");
        }
    }

    #[test]
    fn single_replica_serving_ignores_the_new_routers_too() {
        // ExpectedWait and Sticky on single-replica pipelines have no
        // choices: results match round-robin exactly, like every router.
        let spec = PipelineSpec::new(vec![
            ReplicaGroup::new("gpu", 1),
            ReplicaGroup::new("cpu", 16),
        ])
        .with_stage(StageSpec::new("front", 0, 1, 0.001))
        .unwrap()
        .with_stage(StageSpec::new("back", 1, 2, 0.006))
        .unwrap();
        let arrivals = MmppArrivals::new(100.0, 900.0, 0.3, 0.1);
        let scenario = || Scenario::new(&spec, &arrivals, 2_000, 13);
        let baseline = scenario().run().unwrap();
        let routers: [&dyn Router; 2] = [&ExpectedWait, &Sticky];
        for router in routers {
            let routed = scenario().router(router).run().unwrap();
            assert_eq!(baseline, routed, "router {}", router.name());
        }
    }

    // ------------------------------------------------------------------
    // EarliestDeadlineFirst edge cases
    // ------------------------------------------------------------------

    #[test]
    fn edf_zero_slack_launches_eagerly_like_fifo_batching() {
        // batch_slack = 0 reserves the whole deadline for service: every
        // ready batch releases immediately, so EDF degenerates to
        // work-conserving launch order (by system age) and batches far
        // less than a loose-slack EDF.
        let spec = batched_stage(1, 0.004, 8, 0.2);
        let arrivals = PoissonArrivals::new(300.0);
        let run = |policy: &dyn SchedulingPolicy| {
            let scenario = Scenario::new(&spec, &arrivals, 3_000, 5);
            scenario.policy(policy).run().unwrap()
        };
        let eager = run(&EarliestDeadlineFirst::new(0.2).with_batch_slack(0.0));
        let loose = run(&EarliestDeadlineFirst::new(0.2));
        assert_eq!(eager.completed, 3_000);
        assert!(
            loose.mean_batch > eager.mean_batch + 0.2,
            "loose {} vs zero-slack {}",
            loose.mean_batch,
            eager.mean_batch
        );
    }

    #[test]
    fn edf_with_all_equal_deadlines_degenerates_to_arrival_order() {
        // A simultaneous burst gives every query the same system
        // arrival, hence the same deadline: EDF's priority ties
        // everywhere and must fall back to admission order — exactly
        // FIFO. Per-query stages keep both policies work-equivalent.
        use recpipe_data::TraceArrivals;
        let spec = PipelineSpec::new(vec![ReplicaGroup::new("cpu", 2)])
            .with_stage(StageSpec::new("a", 0, 1, 0.003))
            .unwrap()
            .with_stage(StageSpec::new("b", 0, 1, 0.005))
            .unwrap();
        let burst = TraceArrivals::new(vec![0.0; 64]);
        let scenario = || Scenario::new(&spec, &burst, 64, 1);
        let fifo = scenario().run().unwrap();
        let edf = scenario()
            .policy(&EarliestDeadlineFirst::new(0.05))
            .run()
            .unwrap();
        assert_eq!(fifo.completed, 64);
        assert_eq!(fifo.latency, edf.latency);
        assert_eq!(fifo.qps, edf.qps);
    }

    #[test]
    fn edf_under_closed_loop_arrivals_completes_and_self_regulates() {
        // The closed loop re-injects on completion; EDF's batch holds
        // must not deadlock against a client population that only
        // issues new work when old work finishes.
        let spec = batched_stage(2, 0.004, 4, 0.3);
        let closed = ClosedLoopArrivals::new(12, 0.01);
        let run = |policy: &dyn SchedulingPolicy| {
            let scenario = Scenario::new(&spec, &closed, 2_000, 4);
            scenario.policy(policy).run().unwrap()
        };
        let tight = run(&EarliestDeadlineFirst::new(0.005));
        let loose = run(&EarliestDeadlineFirst::new(0.5));
        assert_eq!(tight.completed, 2_000);
        assert_eq!(loose.completed, 2_000);
        assert!(!tight.saturated && !loose.saturated);
        // The deadline knob still works against closed-loop feedback:
        // loose budgets form deeper batches.
        assert!(
            loose.mean_batch >= tight.mean_batch,
            "loose {} vs tight {}",
            loose.mean_batch,
            tight.mean_batch
        );
        // A run is reproducible under the completion-driven injection.
        assert_eq!(loose, run(&EarliestDeadlineFirst::new(0.5)));
    }

    // ------------------------------------------------------------------
    // qsim v6: replica lifecycle, failure injection, autoscaling
    // ------------------------------------------------------------------

    use crate::{
        AutoscaleConfig, FailurePolicy, FleetController, LifecycleConfig, LifecycleEvent,
        LifecycleSchedule, SimError, WindowStats,
    };

    fn replicated(replicas: usize, service: f64) -> PipelineSpec {
        PipelineSpec::new(vec![ReplicaGroup::replicated("r", 4, replicas)])
            .with_stage(StageSpec::new("s", 0, 1, service))
            .unwrap()
    }

    #[test]
    fn empty_lifecycle_run_matches_serve_routed_exactly() {
        let spec = replicated(3, 0.005);
        let arrivals = MmppArrivals::new(200.0, 900.0, 0.3, 0.1);
        let routers: [&dyn Router; 3] = [&RoundRobin, &JoinShortestQueue, &Sticky];
        for router in routers {
            let scenario = || Scenario::new(&spec, &arrivals, 3_000, 11);
            let plain = scenario().router(router).run().unwrap();
            let lifecycle = scenario()
                .router(router)
                .lifecycle(&LifecycleConfig::new())
                .run()
                .unwrap();
            assert_eq!(plain, lifecycle, "router {}", router.name());
        }
    }

    #[test]
    fn fail_stop_on_sole_replica_is_a_typed_error_under_requeue() {
        // One replica, killed mid-run with no recovery scheduled:
        // Requeue has nowhere to put the stranded work, so the run
        // fails with the typed error instead of panicking in a router.
        let spec = single_stage(2, 0.01).with_group_lifecycle(
            0,
            LifecycleSchedule::empty().with_event(LifecycleEvent::fail_stop(0.5, 0)),
        );
        let err = Scenario::new(&spec, &PoissonArrivals::new(100.0), 1_000, 3)
            .lifecycle(&LifecycleConfig::new())
            .run()
            .unwrap_err();
        let SimError::NoAvailableReplica { group, time } = err else {
            panic!("expected an availability hole, got {err}");
        };
        assert_eq!(group, 0);
        assert!(time >= 0.5);
    }

    #[test]
    fn fail_stop_on_sole_replica_sheds_under_shed_policy() {
        // Same dead-end fleet under Shed: the run completes, stranded
        // and subsequent queries are counted, and every query is
        // accounted for exactly once.
        let spec = single_stage(2, 0.01).with_group_lifecycle(
            0,
            LifecycleSchedule::empty().with_event(LifecycleEvent::fail_stop(0.5, 0)),
        );
        let out = Scenario::new(&spec, &PoissonArrivals::new(100.0), 1_000, 3)
            .lifecycle(&LifecycleConfig::new().with_failure_policy(FailurePolicy::Shed))
            .run()
            .unwrap();
        assert!(out.completed > 0, "nothing completed before the failure");
        assert!(out.shed > 0, "post-failure arrivals were not shed");
        assert_eq!(out.completed + out.shed + out.dropped, 1_000);
    }

    #[test]
    fn fail_stop_then_recover_loses_no_queries_under_requeue() {
        // Mid-batch fail-stop with queued work, then a recovery: every
        // stranded query re-enters and completes; nothing is lost.
        let schedule = LifecycleSchedule::empty()
            .with_event(LifecycleEvent::fail_stop(0.5, 0))
            .with_event(LifecycleEvent::recover(1.0, 0));
        let spec = single_stage(2, 0.01).with_group_lifecycle(0, schedule);
        let out = Scenario::new(&spec, &PoissonArrivals::new(150.0), 2_000, 7)
            .lifecycle(&LifecycleConfig::new())
            .run()
            .unwrap();
        assert_eq!(out.completed, 2_000);
        assert_eq!(out.shed, 0);
        assert_eq!(out.dropped, 0);
    }

    #[test]
    fn arrivals_during_outage_park_until_recovery() {
        // The whole group is dead between the fail-stop and the
        // recovery; arrivals in that hole park and flush at recovery
        // (their waiting time shows up as latency).
        let schedule = LifecycleSchedule::empty()
            .with_event(LifecycleEvent::fail_stop(0.2, 0))
            .with_event(LifecycleEvent::recover(0.6, 0));
        let spec = single_stage(4, 0.002).with_group_lifecycle(0, schedule);
        let mut out = Scenario::new(&spec, &PoissonArrivals::new(200.0), 400, 5)
            .lifecycle(&LifecycleConfig::new())
            .run()
            .unwrap();
        assert_eq!(out.completed, 400);
        // Some query sat out most of the 0.4 s hole.
        assert!(
            out.p99_seconds() > 0.2,
            "outage did not surface in latency: p99 {}",
            out.p99_seconds()
        );
    }

    #[test]
    fn drained_replica_takes_no_new_work() {
        // Draining replica 1 at t=0 leaves it idle for the whole run:
        // all traffic lands on replica 0, and the drained replica's
        // utilization is exactly zero.
        let spec = replicated(2, 0.004).with_group_lifecycle(
            0,
            LifecycleSchedule::empty().with_event(LifecycleEvent::drain(0.0, 1)),
        );
        let out = Scenario::new(&spec, &PoissonArrivals::new(300.0), 2_000, 9)
            .router(&JoinShortestQueue)
            .lifecycle(&LifecycleConfig::new())
            .run()
            .unwrap();
        assert_eq!(out.completed, 2_000);
        assert_eq!(out.replica_utilization[0][1], 0.0);
        assert!(out.replica_utilization[0][0] > 0.0);
    }

    #[test]
    fn warming_replica_serves_at_reduced_speed() {
        // A sole replica provisioned with warm-up after a fail-stop
        // serves at half speed while warming: service times double, so
        // the p50 under negligible load exceeds the cold service time.
        let schedule = LifecycleSchedule::empty()
            .with_event(LifecycleEvent::fail_stop(0.0, 0))
            .with_event(LifecycleEvent::provision(0.001, 0, 100.0));
        let spec = single_stage(4, 0.01).with_group_lifecycle(0, schedule);
        let mut out = Scenario::new(&spec, &PoissonArrivals::new(5.0), 200, 2)
            .lifecycle(&LifecycleConfig::new().with_warmup_speed(0.5))
            .run()
            .unwrap();
        let p50 = out.p50_seconds();
        assert!(
            (p50 - 0.02).abs() < 2e-3,
            "warming service time should be ~0.02 s, p50 {p50}"
        );
    }

    #[test]
    fn a_drain_cut_short_mid_warm_up_keeps_the_warm_up_speed_through_limps() {
        // Replica 1 comes back warming for 10 s, takes ten queries of a
        // burst (one in service, nine queued at half speed), and drains
        // at t = 1. A limp during the drain scales the warm-up speed
        // (0.5 * 0.9) rather than replacing it, and a recovery restores
        // the warm-up speed, not the profile speed. A last arrival at
        // t = 2 on replica 0 gives every run the same span.
        use recpipe_data::TraceArrivals;
        let run = |extra: &[LifecycleEvent]| {
            let mut schedule = LifecycleSchedule::empty()
                .with_event(LifecycleEvent::fail_stop(0.0, 1))
                .with_event(LifecycleEvent::provision(0.0, 1, 10.0))
                .with_event(LifecycleEvent::drain(1.0, 1));
            for &event in extra {
                schedule = schedule.with_event(event);
            }
            let spec = PipelineSpec::new(vec![ReplicaGroup::replicated("w", 1, 2)])
                .with_stage(StageSpec::new("s", 0, 1, 0.010))
                .unwrap()
                .with_group_lifecycle(0, schedule);
            let mut times = vec![0.995; 20];
            times.push(2.0);
            let out = Scenario::new(&spec, &TraceArrivals::new(times), 21, 1)
                .lifecycle(&LifecycleConfig::new())
                .run()
                .unwrap();
            assert_eq!(out.completed, 21);
            out.replica_utilization[0][1]
        };
        let drained = run(&[]);
        let limp = LifecycleEvent::degrade(1.0, 1, 0.9);
        let limping = run(&[limp]);
        let busy = |speed: f64| 0.020 + 9.0 * 0.010 / speed;
        let ratio = limping / drained;
        let expected = busy(0.5 * 0.9) / busy(0.5);
        assert!((ratio - expected).abs() < 1e-9, "ratio {ratio}");
        assert_eq!(run(&[limp, LifecycleEvent::recover(1.0, 1)]), drained);
    }

    #[test]
    fn windowed_telemetry_accounts_for_every_query() {
        // With a telemetry window, the per-window series partitions the
        // run: summed arrivals and completions match the totals, window
        // edges chain, and the cost integral matches the per-window
        // costs.
        let spec = replicated(2, 0.004);
        let out = Scenario::new(&spec, &PoissonArrivals::new(300.0), 3_000, 4)
            .lifecycle(&LifecycleConfig::new().with_window(0.5))
            .run()
            .unwrap();
        assert_eq!(out.completed, 3_000);
        assert!(!out.windows.is_empty());
        let arrivals: usize = out.windows.iter().map(|w| w.arrivals).sum();
        let completed: usize = out.windows.iter().map(|w| w.completed).sum();
        assert_eq!(arrivals, 3_000);
        assert_eq!(completed, 3_000);
        for pair in out.windows.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        let integrated: f64 = out.windows.iter().map(|w| w.cost * w.duration()).sum();
        assert!(
            (integrated - out.cost_integral).abs() < 1e-6,
            "window costs {integrated} vs integral {}",
            out.cost_integral
        );
        // Two always-up speed-1 replicas cost 2 per second.
        assert!((out.mean_fleet_cost() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn telemetry_ends_at_the_last_resolution() {
        // Replica 1 fail-stops at t = 0, is provisioned with a warm-up
        // and drains at t = 1, so its warm-up completion is stale. How
        // long that warm-up was must not matter: events popping after
        // the last query resolves (the stale completion, a window tick
        // armed before the end) stretch neither the trailing window nor
        // the cost integral.
        let run = |warmup_s| {
            let schedule = LifecycleSchedule::empty()
                .with_event(LifecycleEvent::fail_stop(0.0, 1))
                .with_event(LifecycleEvent::provision(0.0, 1, warmup_s))
                .with_event(LifecycleEvent::drain(1.0, 1));
            let spec = PipelineSpec::new(vec![ReplicaGroup::replicated("w", 1, 2)])
                .with_group_lifecycle(0, schedule)
                .with_stage(StageSpec::new("s", 0, 1, 0.005))
                .unwrap();
            Scenario::new(&spec, &PoissonArrivals::new(100.0), 300, 7)
                .lifecycle(&LifecycleConfig::new().with_window(1.0))
                .run()
                .unwrap()
        };
        let (short, long) = (run(1.5), run(100.0));
        assert_eq!(short.completed, 300);
        assert_eq!(short.cost_integral.to_bits(), long.cost_integral.to_bits());
        assert_eq!(short.windows, long.windows);
        // The trailing window closes at the last completion, inside the
        // third second, with the run's last completions in it.
        let last = long.windows.last().unwrap();
        assert_eq!(long.windows.len(), 3);
        assert!(last.start == 2.0 && last.end < 3.0 && last.completed > 0);
        let integrated: f64 = long.windows.iter().map(|w| w.cost * w.duration()).sum();
        assert!((integrated - long.cost_integral).abs() < 1e-9);
    }

    #[test]
    fn same_time_events_pop_in_the_order_their_seqs_were_numbered() {
        // A schedule arrival, a scheduled transition and the first window
        // tick all fall at t = 1: the arrival pops first (seq = its query
        // index), then the transition, then the tick, as armed.
        use recpipe_data::TraceArrivals;
        let degrade = LifecycleEvent::degrade(1.0, 0, 0.5);
        let spec = replicated(2, 0.005)
            .with_group_lifecycle(0, LifecycleSchedule::empty().with_event(degrade));
        let arrivals = TraceArrivals::new(vec![1.0, 2.0]);
        let mut sim = Sim::new(Inputs {
            spec: &spec,
            arrivals: &arrivals,
            policy: &Fifo,
            router: &RoundRobin,
            num_queries: 2,
            seed: 1,
        });
        sim.enable_lifecycle(&LifecycleConfig::new().with_window(1.0), None);
        let popped: Vec<_> = std::iter::from_fn(|| sim.queue.pop())
            .map(|e| (e.time(), e.kind()))
            .collect();
        let kinds = [
            EventKind::Arrive,
            EventKind::Lifecycle,
            EventKind::WindowTick,
        ];
        assert_eq!(popped, kinds.map(|kind| (1.0, kind)));
    }

    /// A schedule replayed as it is. `TraceArrivals`' stream adds its
    /// tiling offset to every time, and `-0.0 + 0.0` is `+0.0`; this one
    /// hands a `-0.0` to the simulator, as a custom process may.
    #[derive(Debug)]
    struct Verbatim(Vec<f64>);

    impl ArrivalProcess for Verbatim {
        fn name(&self) -> String {
            "verbatim".into()
        }

        fn mean_rate(&self) -> f64 {
            self.0.len() as f64 / self.0[self.0.len() - 1]
        }

        fn stream(&self, _seed: u64) -> Box<dyn Iterator<Item = f64> + Send + '_> {
            let last = self.0[self.0.len() - 1];
            Box::new(self.0.iter().copied().chain(std::iter::repeat(last)))
        }
    }

    #[test]
    fn a_trace_starting_at_negative_zero_replays_the_one_at_zero() {
        // `-0.0 == 0.0`, so the order key canonicalizes `-0.0`: events at
        // the two tie, and their seqs decide. The schedule's zeros
        // alternate in sign, so arrival 2 (at `-0.0`) is staged after
        // arrival 1 (at `+0.0`) popped; a key built from the raw bits
        // would order it first, and the queue's debug check that every
        // pop is strictly after the last would fail. A degrade sits at
        // `+0.0` too.
        use recpipe_data::TraceArrivals;
        let degrade = LifecycleEvent::degrade(0.0, 0, 0.5);
        let spec = replicated(2, 0.005)
            .with_group_lifecycle(0, LifecycleSchedule::empty().with_event(degrade));
        let run = |arrivals: &dyn ArrivalProcess| {
            Scenario::new(&spec, arrivals, 303, 3)
                .lifecycle(&LifecycleConfig::new().with_window(0.1))
                .run()
                .unwrap()
        };
        let schedule = |zeros: [f64; 4]| {
            let rest = (1..300).map(|i| f64::from(i) * 0.002);
            zeros.into_iter().chain(rest).collect::<Vec<_>>()
        };
        let (signed, zero) = (schedule([-0.0, 0.0, -0.0, 0.0]), schedule([0.0; 4]));
        let at_zero = run(&TraceArrivals::new(zero));
        assert_eq!(at_zero.completed, 303);
        assert_eq!(run(&TraceArrivals::new(signed.clone())), at_zero);
        assert_eq!(run(&Verbatim(signed)), at_zero);
    }

    #[test]
    fn a_negative_or_non_finite_first_arrival_is_a_typed_error() {
        // Two stages on two groups, so `workers(2)` takes the sharded path.
        let two_groups =
            PipelineSpec::new(vec![ReplicaGroup::new("a", 1), ReplicaGroup::new("b", 1)])
                .with_stage(StageSpec::new("s0", 0, 1, 0.001))
                .and_then(|spec| spec.with_stage(StageSpec::new("s1", 1, 1, 0.001)))
                .unwrap();
        for start in [-10.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let arrivals = Verbatim((0..100).map(|i| start + 0.01 * f64::from(i)).collect());
            let serial = Scenario::new(&single_stage(1, 0.001), &arrivals, 100, 1).run();
            let sharded = Scenario::new(&two_groups, &arrivals, 100, 1)
                .workers(2)
                .run();
            for run in [serial, sharded] {
                let Err(SimError::FirstArrival(t)) = run else {
                    panic!("start {start}: {run:?}");
                };
                assert_eq!(t.to_bits(), start.to_bits());
            }
        }
    }

    /// Test controller: always demands a fixed replica count.
    #[derive(Debug)]
    struct FixedTarget(usize);

    impl FleetController for FixedTarget {
        fn name(&self) -> String {
            format!("fixed({})", self.0)
        }

        fn desired_replicas(&mut self, _window: &WindowStats, _live: usize) -> usize {
            self.0
        }
    }

    #[test]
    fn autoscaler_provisions_up_to_the_controller_target() {
        // Start at 1 replica with a controller demanding 4: the fleet
        // grows at the first window boundary and the series records the
        // ramp.
        let spec = replicated(4, 0.004);
        let cfg = AutoscaleConfig::new(0, 1, 4, 0.2).with_initial_replicas(1);
        let out = Scenario::new(&spec, &PoissonArrivals::new(500.0), 4_000, 6)
            .router(&JoinShortestQueue)
            .autoscale(&cfg, &mut FixedTarget(4))
            .run()
            .unwrap();
        assert_eq!(out.completed, 4_000);
        let first = out.windows.first().expect("windows recorded");
        let last = out.windows.last().expect("windows recorded");
        assert_eq!(first.live_replicas, 1);
        assert_eq!(last.live_replicas, 4);
    }

    #[test]
    fn autoscaler_drains_down_without_losing_queries() {
        // Start at 4 replicas with a controller demanding 1: the extra
        // replicas drain (finishing their queues) and every query still
        // completes.
        let spec = replicated(4, 0.004);
        let cfg = AutoscaleConfig::new(0, 1, 4, 0.2).with_initial_replicas(4);
        let out = Scenario::new(&spec, &PoissonArrivals::new(200.0), 3_000, 8)
            .router(&JoinShortestQueue)
            .autoscale(&cfg, &mut FixedTarget(1))
            .run()
            .unwrap();
        assert_eq!(out.completed, 3_000);
        assert_eq!(out.shed + out.dropped, 0);
        assert_eq!(out.windows.last().expect("windows").live_replicas, 1);
        // Scale-down is visible in cost: the mean fleet cost sits
        // strictly between the 1-replica floor and the 4-replica start.
        let cost = out.mean_fleet_cost();
        assert!(cost > 1.0 && cost < 4.0, "mean cost {cost}");
    }

    #[test]
    fn autoscaled_group_parks_arrivals_while_scaled_to_zero_available() {
        // Warm-up makes the provisioned replica routable immediately
        // (warming replicas accept work), so even a cold start with the
        // whole group down at t=0 never fails: arrivals park until the
        // controller's first provision.
        let spec = replicated(2, 0.004);
        let cfg = AutoscaleConfig::new(0, 1, 2, 0.1)
            .with_initial_replicas(1)
            .with_warmup(0.05);
        let out = Scenario::new(&spec, &PoissonArrivals::new(300.0), 2_000, 12)
            .autoscale(&cfg, &mut FixedTarget(2))
            .run()
            .unwrap();
        assert_eq!(out.completed + out.shed + out.dropped, 2_000);
        assert_eq!(out.dropped, 0);
    }

    // ------------------------------------------------------------------
    // The event queue's in-order lanes
    // ------------------------------------------------------------------

    use crate::{
        FaultBurst, FaultKind, FaultPlan, Fifo, HedgePolicy, LoadAdaptive, RetryBudget, RetryPolicy,
    };

    /// The `perfbench` `gray` workload's fleet, traffic and resilience,
    /// with its limpware burst of two rank replicas at `limp_at` for
    /// `limp_s` and its fail-stop of one at `stop_at` for `stop_s`.
    fn gray_workload(
        limp_at: f64,
        limp_s: f64,
        stop_at: f64,
        stop_s: f64,
    ) -> (PipelineSpec, MmppArrivals, ResilienceConfig) {
        let plan = FaultPlan::new(1)
            .burst(FaultBurst {
                time: limp_at,
                kind: FaultKind::Degrade { speed: 0.3 },
                count: 2,
                recover_after_s: Some(limp_s),
            })
            .burst(FaultBurst {
                time: stop_at,
                kind: FaultKind::FailStop,
                count: 1,
                recover_after_s: Some(stop_s),
            });
        let batched = |name, group, service_s| {
            StageSpec::new(name, group, 1, service_s).with_batch(BatchModel::new(8, 0.25))
        };
        let spec = PipelineSpec::new(vec![
            ReplicaGroup::replicated("filter", 1, 4),
            ReplicaGroup::replicated("rank", 1, 4),
        ])
        .with_group_lifecycle(1, plan.expand(4))
        .with_stage(batched("filter", 0, 0.002))
        .unwrap()
        .with_stage(batched("rank", 1, 0.004))
        .unwrap();
        let capacity = spec.max_qps();
        let arrivals = MmppArrivals::new(0.6 * capacity, 1.4 * capacity, 2.0, 0.5);
        let resilience = ResilienceConfig::new()
            .with_timeout(0.060)
            .with_retry(RetryPolicy::new(3, 0.010, 2.0).with_budget(RetryBudget::new(100.0, 0.1)))
            .with_hedge(HedgePolicy::at_quantile(0.95));
        (spec, arrivals, resilience)
    }

    /// Steps `sim` until its queue drains, keeping it in hand to read
    /// its state afterwards.
    fn drain(mut sim: Sim<'_>) -> Sim<'_> {
        while let Some(event) = sim.queue.pop() {
            assert!(sim.step(event).is_continue());
        }
        sim
    }

    /// Serves `n` queries of a [`gray_workload`] at seed 1 with
    /// `Scenario::run`'s arming and a window every second.
    fn run_in_hand<'a>(
        spec: &'a PipelineSpec,
        arrivals: &'a MmppArrivals,
        resilience: &ResilienceConfig,
        n: usize,
    ) -> Sim<'a> {
        let mut sim = Sim::new(Inputs {
            spec,
            arrivals,
            policy: &Fifo,
            router: &RoundRobin,
            num_queries: n,
            seed: 1,
        });
        sim.enable_lifecycle(&LifecycleConfig::new().with_window(1.0), None);
        sim.enable_resilience(resilience, 1);
        drain(sim)
    }

    /// The share of pops that were not heap pops, of each kind of event
    /// a lane can hold: next-stage, requeued and parked-flush arrivals
    /// (every arrival but a schedule arrival), timers (timeouts and
    /// hedges), and completions.
    fn lane_shares(c: &queue::Counts) -> [f64; 3] {
        let [arrive, complete, timeout, hedge] = [
            EventKind::Arrive,
            EventKind::Complete,
            EventKind::Timeout,
            EventKind::Hedge,
        ]
        .map(|k| k as usize);
        let share = |off_heap: u64, heap: u64| off_heap as f64 / (off_heap + heap) as f64;
        [
            share(c.off_heap[arrive] - c.schedule, c.heap[arrive]),
            share(
                c.off_heap[timeout] + c.off_heap[hedge],
                c.heap[timeout] + c.heap[hedge],
            ),
            share(c.off_heap[complete], c.heap[complete]),
        ]
    }

    #[test]
    fn in_order_events_pop_from_the_lanes() {
        // The `perfbench` `gray` workload's fleet, traffic and resilience
        // at 50k queries (about 66 s), with its limpware and fail-stop
        // bursts moved inside the run and a quarter as long: next-stage
        // arrivals, requeues, first-attempt timeouts (mostly stale when
        // they fire), retries, p95 hedges, and batched and degraded
        // completions all flow through the queue. A retry's arrival and
        // timers fire after its backoff and go straight onto the heap,
        // so the in-order events created meanwhile keep their lanes.
        let (spec, arrivals, resilience) = gray_workload(10.0, 5.0, 30.0, 2.5);
        let n = 50_000;
        let sim = run_in_hand(&spec, &arrivals, &resilience, n);
        let stats = &sim.resil.as_ref().expect("resilience attached").stats;
        assert!(stats.timeouts > 0 && stats.total_retries() > 0 && stats.hedges_issued > 0);
        assert!(sim.completed < n, "the faults cost some queries");

        let c = sim.queue.counts;
        assert_eq!(c.pops(), c.pushes);
        // Every schedule arrival pops from its lane or the `next` slot:
        // none reaches the heap.
        assert_eq!(c.schedule, n as u64);
        let [onward, timers, completions] = lane_shares(&c);
        assert!(
            onward >= 0.99,
            "off-heap share of other arrivals {onward}: {c:?}"
        );
        assert!(timers >= 0.99, "off-heap share of timers {timers}: {c:?}");
        // Batches' and degraded slots' completions take the heap.
        assert!(
            (0.5..1.0).contains(&completions),
            "off-heap share of completions {completions}: {c:?}"
        );
    }

    #[test]
    fn a_shared_group_s_completions_pop_from_the_lanes() {
        // The `perfbench` `brownout` workload's shape: a three-path
        // ladder of five single-unit stages at constant service, all on
        // one 64-unit group, under `LoadAdaptive` through a diurnal ramp
        // to three times the primary's capacity. Up to 64 completions
        // of five stages are pending at once; each stage's completions
        // finish in launch order, so every one pops from its stage's
        // lane, and no event reaches the heap. A next-stage arrival at
        // `now` pops first, from the `next` slot.
        let stage = |name, service_s| StageSpec::new(name, 0, 1, service_s);
        let paths = PathSet::new(vec![ReplicaGroup::new("cpu", 64)])
            .with_path("full", 0.92, vec![stage("f0", 0.0103), stage("f1", 0.0151)])
            .unwrap()
            .with_path("mid", 0.90, vec![stage("m0", 0.0103), stage("m1", 0.0023)])
            .unwrap()
            .with_path("lite", 0.86, vec![stage("l0", 0.0039)])
            .unwrap();
        let capacity = 64.0 / (0.0103 + 0.0151);
        let arrivals = DiurnalArrivals::new(0.5 * capacity, 3.0 * capacity, 20.0);
        let admission = LoadAdaptive::new(1.5, 0.75);
        let n = 40_000;
        let mut sim = Sim::new(Inputs {
            spec: paths.spec(),
            arrivals: &arrivals,
            policy: &Fifo,
            router: &RoundRobin,
            num_queries: n,
            seed: 1,
        });
        sim.enable_lifecycle(&LifecycleConfig::new(), None);
        sim.enable_multipath(&paths, &admission, 1);
        let sim = drain(sim);
        assert!(sim.shed > 0, "the ramp sheds some queries");

        let c = sim.queue.counts;
        assert_eq!(c.pops(), c.pushes);
        assert_eq!(c.schedule, n as u64);
        assert_eq!(c.heap_pushes, 0, "{c:?}");
        let [onward, _, completions] = lane_shares(&c);
        assert!(onward == 1.0 && completions == 1.0, "{c:?}");
        let onward_arrivals = c.off_heap[EventKind::Arrive as usize] - c.schedule;
        assert!(c.next >= onward_arrivals, "{c:?}");
    }

    // ------------------------------------------------------------------
    // The in-flight query window
    // ------------------------------------------------------------------

    #[test]
    fn the_query_window_holds_only_the_in_flight_span() {
        // `gray` itself, faults at 200 s and 600 s, at 200k queries
        // (about 260 s of traffic: the limp burst falls inside the run,
        // the fail-stop after it). The window's capacity is the smallest
        // power of two holding the largest span it ever held, from the
        // oldest unresolved query to the newest created one, so bounding
        // it bounds that high-water span; per-query arrays would hold
        // all 200k queries.
        let (spec, arrivals, resilience) = gray_workload(200.0, 20.0, 600.0, 10.0);
        let n = 200_000;
        let sim = run_in_hand(&spec, &arrivals, &resilience, n);
        let capacity = sim.window.capacity();
        assert!(capacity <= 1024, "window capacity {capacity}");
        // `finish` asserts the resolution ledger.
        let out = sim.finish();
        assert!(out.completed < n, "the limp burst costs some queries");
    }
}
