use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::ControlFlow;
use std::time::Duration;

use recpipe_data::ArrivalProcess;
use recpipe_metrics::{LatencyStats, ThroughputMeter};

use crate::{
    Admission, AdmissionCtx, AdmissionPolicy, AdmissionState, AutoscaleConfig, FailurePolicy,
    FleetController, HedgeDelay, HedgePolicy, LifecycleAction, LifecycleConfig, LifecycleEvent,
    PathProfile, PathSet, PathStats, PipelineSpec, QueueEntry, Release, ReplicaLoads,
    ResilienceConfig, ResilienceStats, RetryPolicy, Router, RouterState, RoutingCtx,
    SchedulingPolicy, SimError, SimResult, StageSpec, WindowStats,
};

/// Per-query path marker: not yet admitted (no admission decision seen).
const MP_UNASSIGNED: u8 = 0xFF;
/// Per-query path marker: rejected at admission.
const MP_SHED: u8 = 0xFE;

/// Fraction of queries discarded from the front as warmup.
const WARMUP_FRACTION: f64 = 0.05;

/// Runs at or above this many queries record latency and throughput at
/// completion time (streaming into the histogram-backed
/// [`LatencyStats`]) instead of materializing a per-query finish-time
/// vector and replaying it in query order at the end. Both recordings
/// describe the same multiset of `(arrival, finish)` pairs — latency
/// percentiles sort lazily and the nanosecond sum is integer-exact, so
/// every accessor reports identical values — but the streaming form
/// keeps a 10M-query replay's resident memory flat instead of holding
/// an 80 MB finish vector plus an unbounded sample vector.
const SCALE_RECORDING_THRESHOLD: usize = 1 << 20;

/// A decoded heap event — the transient, register-allocated view the
/// run loops match on. The heap itself stores the packed 24-byte
/// [`Event`]; nothing persists this enum.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    /// Query `query` arrives at stage `stage` and joins its queue.
    Arrive { query: usize, stage: usize },
    /// Batch `batch` finishes service, releasing its units. The event
    /// is live only while `gen` matches the batch table slot's
    /// generation (low 32 bits) — a fail-stop that kills the batch
    /// bumps the generation, cancelling the completion lazily at pop
    /// (always 0 on lifecycle-free runs).
    Complete { batch: usize, gen: u32 },
    /// A scheduling policy asked to re-examine replica slot `slot`.
    /// The event is live only while `gen` matches the slot's timer
    /// generation (low 32 bits) — superseded timers are cancelled
    /// lazily (skipped at pop) instead of scanned.
    Recheck { slot: usize, gen: u32 },
    /// Scheduled lifecycle event `idx` (index into the flattened
    /// per-run schedule) fires against its replica slot.
    Lifecycle { idx: usize },
    /// Replica slot `slot` finishes warming and reaches full speed;
    /// live only while `gen` matches the slot's lifecycle generation
    /// (low 32 bits; a drain or fail-stop during warm-up cancels it).
    WarmDone { slot: usize, gen: u32 },
    /// A telemetry window boundary: close the current window, consult
    /// the autoscaling controller, and re-arm the next tick.
    WindowTick,
    /// Query `query`'s per-attempt timeout fires; live only while `gen`
    /// matches the query's lane generation (a completion or an earlier
    /// timeout bumped it otherwise — the same lazy-cancellation
    /// discipline as `Complete`).
    Timeout { query: usize, gen: u32 },
    /// Query `query`'s hedge delay elapsed; if the attempt (`gen`) is
    /// still live and unhedged, a duplicate lane dispatches to a
    /// different replica.
    Hedge { query: usize, gen: u32 },
}

const TAG_ARRIVE: u64 = 0;
const TAG_COMPLETE: u64 = 1;
const TAG_RECHECK: u64 = 2;
const TAG_LIFECYCLE: u64 = 3;
const TAG_WARM_DONE: u64 = 4;
const TAG_WINDOW_TICK: u64 = 5;
const TAG_TIMEOUT: u64 = 6;
const TAG_HEDGE: u64 = 7;

/// The same-timestamp tie-order registry. Events that share a
/// timestamp fire in ascending `seq`, and seqs are assigned in this
/// grouping order: schedule arrivals first (seq = query index, fixed
/// before the loop starts), then lifecycle transitions (group-major,
/// preassigned past the schedule by `enable_lifecycle`), then the
/// telemetry window tick, then every dynamically created event —
/// completions, rechecks, warm-ups, timeouts, hedges — in creation
/// order from the running `Sim::seq` counter. `simlint`'s
/// `tag-registry` rule requires each `TAG_*` constant to appear here
/// exactly once and to have an explicit decode arm, so a new event
/// kind cannot land without a considered position in this order (see
/// ARCHITECTURE.md "Determinism discipline, mechanically enforced").
const TAG_TIE_ORDER: [u64; 8] = [
    TAG_ARRIVE,
    TAG_LIFECYCLE,
    TAG_WINDOW_TICK,
    TAG_COMPLETE,
    TAG_RECHECK,
    TAG_WARM_DONE,
    TAG_TIMEOUT,
    TAG_HEDGE,
];

// Compile-time proof that the tie-order table is a permutation of all
// eight tags: each value in 0..8, none repeated, none missing.
const _: () = {
    let mut seen = [false; 8];
    let mut i = 0;
    while i < TAG_TIE_ORDER.len() {
        let t = TAG_TIE_ORDER[i] as usize;
        assert!(t < 8, "tag out of range");
        assert!(!seen[t], "tag registered twice");
        seen[t] = true;
        i += 1;
    }
};

/// Stage bits in a resilience-packed arrive payload (`b`): the low 12
/// bits carry the stage, the next 19 the lane generation, the top bit
/// the lane (0 primary, 1 hedge). Gen 0 / lane 0 leave the payload
/// byte-identical to the plain `b = stage` encoding, which is what
/// keeps resilience-free runs bit-exact.
const RES_STAGE_BITS: u32 = 12;
/// Mask extracting the stage from a packed arrive payload.
const RES_STAGE_MASK: u32 = (1 << RES_STAGE_BITS) - 1;
/// Mask for the 19 generation bits carried in packed arrive payloads.
/// Full 32-bit generations live in `ResilienceRt::gen`; payload
/// comparisons mask both sides (a mis-match would need 2^19 same-query
/// bumps while one event sat in the heap — attempts are capped at 255
/// and each contributes at most two bumps).
const RES_GEN_MASK: u32 = 0x7_FFFF;
/// Low-32 mask extracting the bare query index from a packed lane id
/// (`query | gen << 32 | lane << 63`) as flows through queues and
/// batches on resilient runs.
const RES_Q_MASK: usize = 0xFFFF_FFFF;
/// Most stages a resilient run's packed arrive payload can name.
pub(crate) const MAX_RESILIENT_STAGES: usize = RES_STAGE_MASK as usize;
/// Most attempts per query a resilient run's attempt counter holds.
pub(crate) const MAX_ATTEMPTS: usize = u8::MAX as usize;

/// A packed heap event: 24 bytes instead of the 40 a
/// `(f64, u64, EventKind)` struct would occupy, so every sift in the
/// event heap moves 40% less memory — the heap is the hottest data
/// structure in the simulator, and pop/push cost is dominated by these
/// copies at 4 events per query-stage.
///
/// `key` packs `(seq << 3) | tag`. Heap seqs are globally unique
/// (schedule arrivals carry their query index, everything else draws
/// from the `Sim::seq` counter that resumes past them), so ordering by
/// `key` is ordering by `seq` — the tag bits can never influence the
/// total order. Payloads are two `u32`s: query/batch/slot indices are
/// bounded well below `u32::MAX` (validated by `Scenario::run`), and
/// generation counters compare on their low 32 bits (a stale event
/// would mis-match only after 2^32 same-slot generation bumps while it
/// sat in the heap, which cannot happen before the heap itself
/// exhausts memory).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    key: u64,
    a: u32,
    b: u32,
}

impl Event {
    #[inline]
    fn new(time: f64, seq: u64, tag: u64, a: usize, b: u32) -> Self {
        debug_assert!(a <= u32::MAX as usize);
        Self {
            time,
            key: (seq << 3) | tag,
            // simlint: allow(packing-cast) -- a is a query/batch/slot
            // index bounded far below u32::MAX at construction
            // (debug_assert above; scale asserts at spec build).
            a: a as u32,
            b,
        }
    }

    #[inline]
    fn arrive(time: f64, seq: u64, query: usize, stage: usize) -> Self {
        // simlint: allow(packing-cast) -- stage indexes a pipeline of
        // at most a handful of stages (< 2^12, validated by Scenario::run).
        Self::new(time, seq, TAG_ARRIVE, query, stage as u32)
    }

    #[inline]
    fn complete(time: f64, seq: u64, batch: usize, gen: u64) -> Self {
        // simlint: allow(packing-cast) -- generations compare on their
        // low 32 bits by design (see Event docs on wraparound).
        Self::new(time, seq, TAG_COMPLETE, batch, gen as u32)
    }

    #[inline]
    fn recheck(time: f64, seq: u64, slot: usize, gen: u64) -> Self {
        // simlint: allow(packing-cast) -- generations compare on their
        // low 32 bits by design (see Event docs on wraparound).
        Self::new(time, seq, TAG_RECHECK, slot, gen as u32)
    }

    #[inline]
    fn lifecycle(time: f64, seq: u64, idx: usize) -> Self {
        Self::new(time, seq, TAG_LIFECYCLE, idx, 0)
    }

    #[inline]
    fn warm_done(time: f64, seq: u64, slot: usize, gen: u64) -> Self {
        // simlint: allow(packing-cast) -- generations compare on their
        // low 32 bits by design (see Event docs on wraparound).
        Self::new(time, seq, TAG_WARM_DONE, slot, gen as u32)
    }

    #[inline]
    fn window_tick(time: f64, seq: u64) -> Self {
        Self::new(time, seq, TAG_WINDOW_TICK, 0, 0)
    }

    #[inline]
    fn timeout(time: f64, seq: u64, query: usize, gen: u32) -> Self {
        Self::new(time, seq, TAG_TIMEOUT, query, gen)
    }

    #[inline]
    fn hedge(time: f64, seq: u64, query: usize, gen: u32) -> Self {
        Self::new(time, seq, TAG_HEDGE, query, gen)
    }

    /// The event's heap sequence number.
    #[inline]
    fn seq(&self) -> u64 {
        self.key >> 3
    }

    /// Decodes the packed payload for matching.
    #[inline]
    fn kind(&self) -> EventKind {
        match self.key & 0b111 {
            TAG_ARRIVE => EventKind::Arrive {
                query: self.a as usize,
                stage: self.b as usize,
            },
            TAG_COMPLETE => EventKind::Complete {
                batch: self.a as usize,
                gen: self.b,
            },
            TAG_RECHECK => EventKind::Recheck {
                slot: self.a as usize,
                gen: self.b,
            },
            TAG_LIFECYCLE => EventKind::Lifecycle {
                idx: self.a as usize,
            },
            TAG_WARM_DONE => EventKind::WarmDone {
                slot: self.a as usize,
                gen: self.b,
            },
            TAG_WINDOW_TICK => EventKind::WindowTick,
            TAG_TIMEOUT => EventKind::Timeout {
                query: self.a as usize,
                gen: self.b,
            },
            TAG_HEDGE => EventKind::Hedge {
                query: self.a as usize,
                gen: self.b,
            },
            _ => unreachable!("tag masked to 3 bits; all eight values have arms"),
        }
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (time, seq): BinaryHeap is a max-heap, so
        // reverse. `key` orders exactly as `seq` (unique seqs; tag bits
        // below them never break a tie).
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.key.cmp(&self.key))
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

/// Availability state of one replica slot — the lifecycle state
/// machine `warming → up → draining → down` (fail-stop jumps from any
/// live state straight to `Down`). Lifecycle-free runs keep every slot
/// `Up` forever and never read the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Provisioned but still warming: serves at reduced speed, accepts
    /// routes.
    Warming,
    /// Fully available.
    Up,
    /// Finishing queued and in-flight work; accepts no new routes.
    Draining,
    /// Not serving; holds no units, no queue, accepts no routes.
    Down,
}

impl SlotState {
    /// Whether routers may send new work to a slot in this state.
    fn routable(self) -> bool {
        matches!(self, SlotState::Warming | SlotState::Up)
    }
}

/// Autoscaling runtime: the bounds of a validated, flattened
/// [`AutoscaleConfig`] and the controller every closing window
/// consults.
struct ScaleRt<'a> {
    group: usize,
    min: usize,
    max: usize,
    warmup_s: f64,
    controller: &'a mut dyn FleetController,
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

/// The simulator state. `#[repr(C)]` pins the declared field order in
/// memory: the per-event scalars and flags pack into the first cache
/// lines, the hot container headers follow, and the lifecycle /
/// telemetry / masking machinery — untouched on lifecycle-free runs —
/// sits at the cold tail. (repr(Rust) is free to shuffle fields, and a
/// struct this wide scatters the hot set across its full ~1.5 KB
/// otherwise.)
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
    /// Units currently in service across all slots — the utilization
    /// integrand.
    busy_units_now: usize,
    /// Waiting queries across all slots (queued plus parked) — the
    /// queue-depth integrand.
    total_queued_entries: usize,
    /// Cached `policy.admit_on_arrival()` (consulted on every arrival).
    work_conserving: bool,
    /// Whether the router reads the work/speed estimator signals
    /// ([`Router::uses_estimates`]); false keeps `queued_work`,
    /// `inflight_finish`, and `inflight_count` empty and their hot-path
    /// maintenance skipped.
    track_est: bool,
    /// Whether the router reads per-query routing history
    /// ([`Router::uses_history`]) on a multi-stage pipeline; false
    /// skips `chosen` entirely and routes with an empty history slice.
    track_hist: bool,
    /// Whether any lifecycle machinery is live (scheduled events or an
    /// autoscaling controller). False keeps every guarded branch cold
    /// and the run bit-identical to the lifecycle-free loop.
    lifecycle_active: bool,
    /// Whether time-weighted integrals accrue (any lifecycle activity,
    /// or an explicit telemetry window).
    telemetry_active: bool,
    /// Whether latency/throughput are recorded at completion time (see
    /// [`SCALE_RECORDING_THRESHOLD`]; always true for stage shards).
    record_at_completion: bool,
    /// Whether query-level resilience machinery (timeouts, retries,
    /// hedges) is live. An inert [`ResilienceConfig`] keeps this false
    /// and every guarded branch cold, so the run stays bit-identical to
    /// the resilience-free loop.
    resil_active: bool,
    /// One-shot routing exclusion for a hedge dispatch: the primary
    /// lane's slot, skipped by the masked router while the group has
    /// another routable replica. Always `None` outside a hedge
    /// dispatch.
    avoid_slot: Option<usize>,

    // --- Hot containers ---
    heap: BinaryHeap<Event>,
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
    /// Absolute stage-0 arrival time per query (NaN until injected).
    arrival_time: Vec<f64>,
    finish_time: Vec<f64>,
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
    /// scaled down while warming. Equal to `slot_speed` on
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

    // --- Estimator / history columns (empty unless tracked) ---
    /// Per-slot queued (not yet launched) work in baseline seconds —
    /// one of the two [`ExpectedWait`] estimator signals (see router.rs
    /// module docs). Empty (never maintained) unless the router reads
    /// estimates (`track_est`).
    ///
    /// [`ExpectedWait`]: crate::ExpectedWait
    queued_work: Vec<f64>,
    /// Per-slot sum of live batches' absolute finish times — with
    /// `inflight_count`, the decay-aware in-flight wait signal:
    /// `inflight_finish[s] - inflight_count[s] * now` is exactly the
    /// summed not-yet-elapsed service of the slot's running batches.
    /// Empty unless `track_est`.
    inflight_finish: Vec<f64>,
    /// Per-slot count of live batches (the decay term's multiplier).
    /// Empty unless `track_est`.
    inflight_count: Vec<usize>,
    /// Replica chosen (index within its group) per query per stage,
    /// laid out `query * num_stages + stage` — the routing history
    /// behind [`RoutingCtx`]. Empty (never written) unless the router
    /// reads history (`track_hist`), sparing a 10M-query run the
    /// `4 * queries * stages`-byte table.
    chosen: Vec<u32>,

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
    /// denominator), maintained at every `arrival_time` write so
    /// `finish` never rescans the vector.
    arrival_span: f64,
    /// Completion-time latency sink (used only when
    /// `record_at_completion`).
    live_latency: LatencyStats,
    /// Completion-time throughput sink (ditto).
    live_throughput: ThroughputMeter,
    /// Where a stage shard hands finished queries to the next stage's
    /// shard; the serial loop and the final stage's shard keep `None`
    /// and record completions locally (see shard.rs).
    shard_out: Option<&'a mut dyn ShardSink>,

    // --- Replica lifecycle (inert defaults; see `enable_lifecycle`) ---
    /// What happens to queries stranded by failures.
    failure_policy: FailurePolicy,
    /// Speed multiplier applied while a slot warms.
    warmup_speed: f64,
    /// Per-slot availability state.
    state: Vec<SlotState>,
    /// Per-slot gray-failure (limpware) speed fraction: 1.0 when
    /// healthy, `(0, 1)` while degraded. Multiplies into `cur_speed`
    /// alongside warm-up; a [`LifecycleAction::Recover`] on a live
    /// degraded slot restores it (and a provision of a down slot resets
    /// it — a fresh machine).
    degrade_frac: Vec<f64>,
    /// Per-slot lifecycle generation: bumped on every provision, drain,
    /// and fail-stop so in-flight `WarmDone` events cancel lazily.
    slot_gen: Vec<u64>,
    /// Routable (up or warming) replicas per group — the fast "is
    /// masking needed at all" check.
    group_available: Vec<usize>,
    /// Pending revival (provision/recover) events per group in the
    /// static schedule: while positive, unroutable queries park instead
    /// of failing the run.
    revivals_left: Vec<usize>,
    /// Per-group parked queries `(query, stage)` awaiting a revival.
    parked: Vec<Vec<(usize, usize)>>,
    /// Queries dropped without service (dead-group arrivals and dead
    /// queue residents under `FailurePolicy::Shed`).
    shed: usize,
    /// In-flight queries killed by fail-stops under
    /// `FailurePolicy::Shed`.
    dropped: usize,
    /// The typed all-replicas-down error, checked after every arrival.
    fatal: Option<SimError>,
    /// Flattened static schedule: `(slot, event)` per scheduled
    /// lifecycle event, indexed by `EventKind::Lifecycle`.
    sched: Vec<(usize, LifecycleEvent)>,
    /// Scratch arrays for availability-masked routing (original replica
    /// index per compacted position, plus compacted counter/estimator
    /// columns and remapped history).
    mask_idx: Vec<usize>,
    mask_queued: Vec<usize>,
    mask_inflight: Vec<usize>,
    mask_free: Vec<usize>,
    mask_work: Vec<f64>,
    mask_speed: Vec<f64>,
    mask_finish: Vec<f64>,
    mask_count: Vec<usize>,
    mask_hist: Vec<u32>,

    // --- Windowed telemetry (inert unless `telemetry_active`) ---
    /// Window width in seconds (0.0 = no windowed series).
    window_s: f64,
    /// Time the integrals were last advanced to.
    integral_t: f64,
    /// Unit capacity of non-down slots — the utilization denominator.
    live_capacity: usize,
    /// Summed profile speeds of non-down slots — the cost integrand.
    live_cost: f64,
    /// `∫ total_queued_entries dt`, `∫ busy_units_now dt`,
    /// `∫ live_capacity dt`, `∫ live_cost dt` since t = 0.
    queue_integral: f64,
    busy_integral: f64,
    cap_integral: f64,
    cost_integral: f64,
    /// Current window: start time, integral bases at the start, and
    /// event counters.
    win_start: f64,
    win_queue_base: f64,
    win_busy_base: f64,
    win_cap_base: f64,
    win_cost_base: f64,
    win_arrivals: usize,
    win_completed: usize,
    win_shed: usize,
    win_dropped: usize,
    win_timed_out: usize,
    win_latencies: Vec<f64>,
    /// Closed windows, in order.
    windows: Vec<WindowStats>,

    // --- Closed-loop autoscaling (None unless `enable_autoscale`) ---
    scale: Option<ScaleRt<'a>>,

    // --- Multi-path serving (None unless `enable_multipath`) ---
    mp: Option<MultipathRt<'a>>,

    // --- Query-level resilience (None unless `enable_resilience`) ---
    resil: Option<Box<ResilienceRt>>,
}

/// A query's resolution state on a resilient run.
const RQ_FRESH: u8 = 0;
/// The query has at least one live lane in flight.
const RQ_LIVE: u8 = 1;
/// The query resolved (completed, shed, or timed-out-final); any
/// surviving lanes are carcasses.
const RQ_DONE: u8 = 2;

/// Query-level resilience runtime (see [`Scenario::resilience`]): per-query
/// lane generations and attempt counts, the retry token bucket, the
/// completed-latency reservoir behind quantile hedge delays, and the
/// run's [`ResilienceStats`]. Boxed behind an `Option` at the
/// simulator's cold tail — resilience-free runs never touch it.
struct ResilienceRt {
    /// Per-attempt timeout, if configured.
    timeout_s: Option<f64>,
    retry: RetryPolicy,
    hedge: Option<HedgePolicy>,
    /// Flattened retry-budget bucket (`has_budget` false leaves retries
    /// unmetered).
    has_budget: bool,
    tokens: f64,
    bucket_cap: f64,
    refill: f64,
    /// Per-query resolution state (`RQ_*`).
    state: Vec<u8>,
    /// Per-query lane generation: bumped when the query resolves or an
    /// attempt times out, lazily cancelling every event and queue/batch
    /// resident of the superseded lanes.
    gen: Vec<u32>,
    /// Attempts started per query (1 on first dispatch).
    attempts: Vec<u8>,
    /// Whether the current attempt already dispatched its hedge.
    hedged: Vec<bool>,
    /// Slot the query's latest entry-stage lane was placed on — what a
    /// hedge dispatch routes away from (`u32::MAX` = none recorded).
    last_slot: Vec<u32>,
    /// Dedicated splitmix lane for backoff jitter (decorrelated from
    /// router and admission streams).
    rng: u64,
    /// Completed-latency reservoir feeding quantile hedge delays: a
    /// fixed ring overwritten round-robin past capacity, re-sorted into
    /// `sorted` at most every [`RESERVOIR_RESORT`] inserts.
    samples: Vec<f64>,
    sorted: Vec<f64>,
    sample_writes: usize,
    sample_dirty: usize,
    stats: ResilienceStats,
}

/// Completed-latency reservoir capacity for quantile hedge delays.
const RESERVOIR_CAP: usize = 512;
/// Inserts tolerated before the reservoir's sorted view refreshes.
const RESERVOIR_RESORT: usize = 64;

impl ResilienceRt {
    /// Next uniform draw in `[0, 1)` from the jitter lane.
    fn next_u01(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Records a completed query's latency into the hedge reservoir
    /// (no-op unless a quantile delay needs it).
    fn push_sample(&mut self, latency_s: f64) {
        if !matches!(
            self.hedge,
            Some(HedgePolicy {
                delay: HedgeDelay::Quantile(_)
            })
        ) {
            return;
        }
        if self.samples.len() < RESERVOIR_CAP {
            self.samples.push(latency_s);
        } else {
            self.samples[self.sample_writes % RESERVOIR_CAP] = latency_s;
        }
        self.sample_writes += 1;
        self.sample_dirty += 1;
    }

    /// The hedge delay for an attempt starting now: the fixed delay, or
    /// the reservoir's current quantile (None until
    /// [`HedgePolicy::MIN_QUANTILE_SAMPLES`] completions have been
    /// observed — early hedging off a handful of samples would be
    /// noise).
    fn hedge_delay(&mut self) -> Option<f64> {
        match self.hedge?.delay {
            HedgeDelay::Fixed(d) => Some(d),
            HedgeDelay::Quantile(q) => {
                if self.sample_writes < HedgePolicy::MIN_QUANTILE_SAMPLES {
                    return None;
                }
                if self.sample_dirty >= RESERVOIR_RESORT || self.sorted.len() != self.samples.len()
                {
                    self.sorted.clear();
                    self.sorted.extend_from_slice(&self.samples);
                    self.sorted
                        .sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
                    self.sample_dirty = 0;
                }
                let n = self.sorted.len();
                let idx = ((n as f64 * q).ceil() as usize).clamp(1, n) - 1;
                Some(self.sorted[idx])
            }
        }
    }
}

/// Multi-path runtime state (see [`Scenario::multipath`]): the admission
/// seam plus per-path accounting. Boxed behind an `Option` at the
/// simulator's cold tail — single-pipeline runs never touch it.
struct MultipathRt<'a> {
    admission: &'a dyn AdmissionPolicy,
    /// Per-path analytic profiles handed to the policy on every arrival.
    profiles: Vec<PathProfile>,
    /// First flat stage of each path.
    entry: Vec<usize>,
    /// Per flat stage: whether it is its path's final stage.
    last_of_path: Vec<bool>,
    /// Path names, carried through to [`PathStats`].
    names: Vec<String>,
    /// Per-query path assignment ([`MP_UNASSIGNED`] until the admission
    /// decision, [`MP_SHED`] when rejected).
    qpath: Vec<u8>,
    /// The policy's mutable state (degradation level, RNG stream).
    state: AdmissionState,
    /// Per-path admissions over the whole run.
    admitted: Vec<usize>,
    /// Per-path completions.
    completed: Vec<usize>,
    /// Per-path post-admission sheds (lifecycle losses, not admission
    /// rejections).
    shed: Vec<usize>,
    /// Per-path mid-service drops (fail-stops under `Shed`).
    dropped: Vec<usize>,
    /// Per-path post-warmup latency collectors.
    latency: Vec<LatencyStats>,
    /// Queries rejected at admission (before any path).
    admission_shed: usize,
    /// Admitted-but-unresolved queries — the concurrency signal
    /// admission policies threshold on.
    in_system: usize,
    /// Largest single-path fully-batched capacity — the saturation
    /// test's rate bound (the concatenated spec's own figure sums every
    /// path's load as if all were always taken, which is meaningless).
    max_full_batch_qps: f64,
    /// Per-path admissions in the current telemetry window.
    win_admitted: Vec<usize>,
    /// Per-path completions in the current telemetry window.
    win_completed: Vec<usize>,
}

/// Receives a stage shard's completions `(time, query, arrived)` for
/// hand-off to the next stage's shard. Emission order is the shard's
/// completion-processing order, which downstream must preserve — it is
/// the serial loop's tie-break order for equal-time arrivals.
pub(crate) trait ShardSink {
    fn emit(&mut self, time: f64, query: usize, arrived: f64);
}

/// Feeds a stage shard its incoming arrivals `(time, query, arrived)`
/// in upstream emission order (nondecreasing `time`). `None` means the
/// upstream shard finished and no more arrivals will come.
pub(crate) trait ShardSource {
    fn next_arrival(&mut self) -> Option<(f64, usize, f64)>;
}

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
        SimResult::new(
            self.latency,
            self.qps,
            self.completed,
            saturated,
            utilization,
        )
        .with_mean_batch(mean_batch)
        .with_replica_utilization(replica_utilization)
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
        let mut sim = Self::new_inner(inputs, false);
        sim.stage_schedule(inputs.seed);
        sim
    }

    /// Builds one stage's shard of a sharded run (see shard.rs): the
    /// full spec with globally-derived router-state seeds (so the
    /// shard's group RNG stream matches the serial loop's), history
    /// tracking off (shard eligibility requires pairwise-distinct
    /// stage groups, so a same-group affinity prior can never exist),
    /// completion-time recording, and — for the head shard only — the
    /// arrival schedule.
    pub(crate) fn new_shard(
        inputs: Inputs<'a>,
        stage: usize,
        out: Option<&'a mut dyn ShardSink>,
    ) -> Self {
        let mut sim = Self::new_inner(inputs, true);
        sim.shard_out = out;
        if stage == 0 {
            sim.stage_schedule(inputs.seed);
        }
        sim
    }

    fn new_inner(inputs: Inputs<'a>, shard: bool) -> Self {
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
        let cur_speed = slot_speed.clone();
        let live_capacity: usize = slot_capacity.iter().sum();
        let live_cost: f64 = slot_speed.iter().sum();
        let num_groups = resources.len();
        // Gate per-query bookkeeping on what the router actually reads:
        // oblivious and counter-only routers skip the estimator arrays'
        // maintenance entirely, and history-blind routers (every
        // builtin but Sticky) skip the per-query choice table. Stage
        // shards force history off — their eligibility (pairwise
        // distinct stage groups) means no same-group prior can exist.
        let track_est = router.uses_estimates();
        let track_hist = !shard && router.uses_history() && num_stages > 1;
        // Shards keep the serial recording mode so even the raw sample
        // *order* inside the unfolded collector matches the serial loop:
        // below the scale threshold the tail shard replays its
        // query-indexed finish vector, above it both loops stream into
        // the order-independent folded sinks.
        let record_at_completion = num_queries >= SCALE_RECORDING_THRESHOLD;
        let warmup_len = ((num_queries as f64) * WARMUP_FRACTION) as usize;
        let sim = Self {
            spec,
            stages: spec.stages(),
            policy,
            arrivals,
            router,
            num_queries,
            heap: BinaryHeap::new(),
            seq: 0,
            arrival_time: vec![f64::NAN; num_queries],
            slot_base,
            slot_group,
            group_replicas: group_replicas.clone(),
            slot_capacity,
            slot_speed,
            free,
            queued_work: if track_est {
                vec![0.0; num_slots]
            } else {
                Vec::new()
            },
            inflight_finish: if track_est {
                vec![0.0; num_slots]
            } else {
                Vec::new()
            },
            inflight_count: if track_est {
                vec![0; num_slots]
            } else {
                Vec::new()
            },
            stage_groups: spec.stages().iter().map(|s| s.resource).collect(),
            chosen: if track_hist {
                vec![u32::MAX; num_queries * num_stages]
            } else {
                Vec::new()
            },
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
            finish_time: if record_at_completion {
                Vec::new()
            } else {
                vec![f64::NAN; num_queries]
            },
            completed: 0,
            last_time: 0.0,
            launches: 0,
            served: 0,
            next_inject: 0,
            think_time_s: None,
            work_conserving: policy.admit_on_arrival(),
            schedule_len: 0,
            lifecycle_active: false,
            failure_policy: FailurePolicy::default(),
            warmup_speed: 0.5,
            state: vec![SlotState::Up; num_slots],
            degrade_frac: vec![1.0; num_slots],
            cur_speed,
            slot_gen: vec![0; num_slots],
            batch_gen: Vec::new(),
            group_available: group_replicas,
            revivals_left: vec![0; num_groups],
            parked: vec![Vec::new(); num_groups],
            shed: 0,
            dropped: 0,
            fatal: None,
            sched: Vec::new(),
            mask_idx: Vec::new(),
            mask_queued: Vec::new(),
            mask_inflight: Vec::new(),
            mask_free: Vec::new(),
            mask_work: Vec::new(),
            mask_speed: Vec::new(),
            mask_finish: Vec::new(),
            mask_count: Vec::new(),
            mask_hist: Vec::new(),
            telemetry_active: false,
            window_s: 0.0,
            integral_t: 0.0,
            total_queued_entries: 0,
            busy_units_now: 0,
            live_capacity,
            live_cost,
            queue_integral: 0.0,
            busy_integral: 0.0,
            cap_integral: 0.0,
            cost_integral: 0.0,
            win_start: 0.0,
            win_queue_base: 0.0,
            win_busy_base: 0.0,
            win_cap_base: 0.0,
            win_cost_base: 0.0,
            win_arrivals: 0,
            win_completed: 0,
            win_shed: 0,
            win_dropped: 0,
            win_timed_out: 0,
            win_latencies: Vec::new(),
            windows: Vec::new(),
            scale: None,
            mp: None,
            resil: None,
            resil_active: false,
            avoid_slot: None,
            arrival_stream: None,
            arrival_span: 0.0,
            record_at_completion,
            warmup_len,
            live_latency: LatencyStats::with_capacity(if record_at_completion {
                num_queries.saturating_sub(warmup_len)
            } else {
                0
            }),
            live_throughput: ThroughputMeter::new(),
            shard_out: None,
        };
        sim
    }

    /// Stages the arrival schedule lazily from
    /// [`ArrivalProcess::stream`] (a closed loop stages only its client
    /// population and derives the rest from resolved queries): one
    /// stage-0 event sits in the heap at a time, and each pop pulls its
    /// successor's timestamp ([`stage_next_arrival`]). The heap stays
    /// at the in-flight high-water mark instead of the query count, and
    /// a 10M-query replay never materializes the schedule. Schedule
    /// arrival `q` carries heap seq `q` (the counter resumes at
    /// `initial`), which fixes its tie order against every other event.
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
        self.arrival_time[0] = t0;
        self.arrival_span = self.arrival_span.max(t0);
        self.arrival_stream = Some(stream);
        self.heap.push(Event::arrive(t0, 0, 0, 0));
    }

    /// Arms the replica lifecycle: flattens every group's attached
    /// schedule into timed heap events, applies the failure policy and
    /// warm-up speed, and (when configured) starts the telemetry
    /// window clock.
    ///
    /// Determinism: lifecycle events are sequenced in group-major,
    /// schedule order *after* all schedule arrivals (their heap seqs
    /// start past `schedule_len`), so at equal timestamps an arrival is
    /// processed before the lifecycle event that would have masked its
    /// replica, and two same-time lifecycle events fire in schedule
    /// order.
    pub(crate) fn enable_lifecycle(&mut self, cfg: &LifecycleConfig) {
        self.failure_policy = cfg.failure_policy;
        self.warmup_speed = cfg.warmup_speed;
        let resources = self.spec.resources();
        for (g, r) in resources.iter().enumerate() {
            let base = self.slot_base[g];
            for &event in r.lifecycle().events() {
                let slot = base + event.replica;
                if event.revives() {
                    self.revivals_left[g] += 1;
                }
                let idx = self.sched.len();
                self.sched.push((slot, event));
                self.heap.push(Event::lifecycle(event.time, self.seq, idx));
                self.seq += 1;
            }
        }
        self.lifecycle_active = !self.sched.is_empty();
        if let Some(w) = cfg.window_s {
            self.telemetry_active = true;
            self.window_s = w;
            self.heap.push(Event::window_tick(w, self.seq));
            self.seq += 1;
        }
        if self.lifecycle_active {
            self.telemetry_active = true;
        }
    }

    /// Arms closed-loop autoscaling: replicas `initial_replicas..` of
    /// the scaled group start down, and every closing telemetry window
    /// consults `controller` (see [`Scenario::autoscale`]).
    ///
    /// [`Scenario::autoscale`]: crate::Scenario::autoscale
    pub(crate) fn enable_autoscale(
        &mut self,
        cfg: &AutoscaleConfig,
        controller: &'a mut dyn FleetController,
    ) {
        self.scale = Some(ScaleRt {
            group: cfg.group,
            min: cfg.min_replicas,
            max: cfg.max_replicas,
            warmup_s: cfg.warmup_s,
            controller,
        });
        self.lifecycle_active = true;
        self.telemetry_active = true;
        let base = self.slot_base[cfg.group];
        let replicas = self.group_replicas[cfg.group];
        for slot in base + cfg.initial_replicas..base + replicas {
            self.state[slot] = SlotState::Down;
            self.free[slot] = 0;
            self.live_capacity -= self.slot_capacity[slot];
            self.live_cost -= self.slot_speed[slot];
            self.group_available[cfg.group] -= 1;
        }
    }

    /// Arms multi-path serving: every stage-0 arrival first passes the
    /// admission policy, which assigns it a path (its stages sit at a
    /// fixed offset in the concatenated spec) or sheds it. Consumes no
    /// heap seqs and pushes no events, so an [`AlwaysPrimary`] run's
    /// event stream is identical to the plain routed loop.
    ///
    /// [`AlwaysPrimary`]: crate::AlwaysPrimary
    pub(crate) fn enable_multipath(
        &mut self,
        paths: &PathSet,
        admission: &'a dyn AdmissionPolicy,
        seed: u64,
    ) {
        debug_assert_eq!(paths.spec().stages().len(), self.stages.len());
        let n = paths.num_paths();
        let profiles = paths.profiles();
        let max_full_batch_qps = profiles
            .iter()
            .map(|p| p.max_qps_full_batch)
            .fold(0.0, f64::max);
        self.mp = Some(MultipathRt {
            admission,
            profiles,
            entry: (0..n).map(|p| paths.entry(p)).collect(),
            last_of_path: paths.last_of_path(),
            names: paths.names().to_vec(),
            qpath: vec![MP_UNASSIGNED; self.num_queries],
            // A distinct splitmix lane per run seed: decorrelated from
            // every router's per-group stream (those mix the group
            // index) while staying a pure function of the seed.
            state: AdmissionState::new(seed ^ 0xa076_1d64_78bd_642f),
            admitted: vec![0; n],
            completed: vec![0; n],
            shed: vec![0; n],
            dropped: vec![0; n],
            latency: (0..n).map(|_| LatencyStats::new()).collect(),
            admission_shed: 0,
            in_system: 0,
            max_full_batch_qps,
            win_admitted: vec![0; n],
            win_completed: vec![0; n],
        });
    }

    /// Arms query-level resilience: per-attempt timeouts, the retry
    /// policy, and hedged requests per `cfg`. Consumes no heap seqs and
    /// pushes no events; an inert config additionally leaves
    /// `resil_active` false, so the event stream — and therefore the
    /// whole run — is bit-identical to the plain routed loop (pinned by
    /// proptest).
    pub(crate) fn enable_resilience(&mut self, cfg: &ResilienceConfig, seed: u64) {
        // Packed lane payloads bound both (validated by `Scenario::run`).
        debug_assert!(self.stages.len() <= MAX_RESILIENT_STAGES);
        debug_assert!(cfg.retry.max_attempts <= MAX_ATTEMPTS);
        let active = !cfg.is_inert();
        let n = if active { self.num_queries } else { 0 };
        let (has_budget, bucket_cap, refill) = match cfg.retry.budget {
            Some(b) => (true, b.capacity, b.refill_per_success),
            None => (false, 0.0, 0.0),
        };
        self.resil = Some(Box::new(ResilienceRt {
            timeout_s: cfg.timeout_s,
            retry: cfg.retry.clone(),
            hedge: cfg.hedge,
            has_budget,
            tokens: bucket_cap,
            bucket_cap,
            refill,
            state: vec![RQ_FRESH; n],
            gen: vec![0; n],
            attempts: vec![0; n],
            hedged: vec![false; n],
            last_slot: vec![u32::MAX; n],
            // A distinct splitmix lane per run seed, decorrelated from
            // the router/admission streams by a different xor constant.
            rng: seed ^ 0xd6e8_feb8_6659_fd93,
            samples: Vec::new(),
            sorted: Vec::new(),
            sample_writes: 0,
            sample_dirty: 0,
            stats: ResilienceStats {
                retries: vec![0; cfg.retry.max_attempts.saturating_sub(1)],
                ..ResilienceStats::default()
            },
        }));
        self.resil_active = active;
    }

    /// The bare query index of a (possibly lane-packed) queue/batch id.
    #[inline]
    fn unq(&self, packed: usize) -> usize {
        if self.resil_active {
            packed & RES_Q_MASK
        } else {
            packed
        }
    }

    /// Pushes an arrive event carrying `packed`'s lane identity in its
    /// payload (`b = stage | gen << 12 | lane << 31`); on
    /// resilience-free runs `packed` is the bare query and the payload
    /// collapses to the plain `b = stage` encoding byte-for-byte.
    fn push_arrive(&mut self, t: f64, packed: usize, stage: usize) {
        let b = if self.resil_active {
            // simlint: allow(packing-cast) -- masked to the 19 payload bits at the cast
            let gen = (packed >> 32) as u32 & RES_GEN_MASK;
            // simlint: allow(packing-cast) -- a single bit survives the >> 63
            let lane = (packed >> 63) as u32;
            // simlint: allow(packing-cast) -- stage < 2^12 (pipeline depth, validated by Scenario::run)
            stage as u32 | (gen << RES_STAGE_BITS) | (lane << 31)
        } else {
            // simlint: allow(packing-cast) -- stage < 2^12 (pipeline depth, validated by Scenario::run)
            stage as u32
        };
        self.heap
            .push(Event::new(t, self.seq, TAG_ARRIVE, packed & RES_Q_MASK, b));
        self.seq += 1;
    }

    /// Whether a packed lane id still names a live lane of its query
    /// (generation matches and the query is unresolved); false means
    /// the lane is a carcass — cancelled lazily, to be discarded
    /// wherever it next surfaces.
    #[inline]
    fn lane_live(&self, packed: usize) -> bool {
        let rt = self.resil.as_ref().expect("resilience runtime attached");
        let q = packed & RES_Q_MASK;
        // simlint: allow(packing-cast) -- masked to the 19 payload bits at the cast
        let gen = ((packed >> 32) as u32) & RES_GEN_MASK;
        gen == (rt.gen[q] & RES_GEN_MASK) && rt.state[q] == RQ_LIVE
    }

    /// Arms the timeout and hedge events for an attempt of `q` starting
    /// at `start` under the query's current generation.
    fn res_arm_attempt(&mut self, start: f64, q: usize) {
        let rt = self.resil.as_mut().expect("resilience runtime attached");
        let gen = rt.gen[q];
        let timeout_s = rt.timeout_s;
        let hedge_delay = rt.hedge_delay();
        if let Some(t) = timeout_s {
            self.heap.push(Event::timeout(start + t, self.seq, q, gen));
            self.seq += 1;
        }
        if let Some(d) = hedge_delay {
            self.heap.push(Event::hedge(start + d, self.seq, q, gen));
            self.seq += 1;
        }
    }

    /// A live attempt's timeout fired: the attempt is abandoned (the
    /// generation bump lazily cancels both of its lanes wherever they
    /// sit — heap, queue, or in-flight batch) and the retry policy
    /// picks between a backed-off re-dispatch and resolving the query
    /// timed-out-final.
    fn on_timeout(&mut self, now: f64, q: usize) {
        self.last_time = now;
        let telemetry = self.telemetry_active;
        let mut retry_start = None;
        {
            let rt = self.resil.as_mut().expect("resilience runtime attached");
            rt.stats.timeouts += 1;
            rt.gen[q] = rt.gen[q].wrapping_add(1);
            let attempts = rt.attempts[q] as usize;
            let can_retry = attempts < rt.retry.max_attempts;
            let budget_ok = !rt.has_budget || rt.tokens >= 1.0;
            if can_retry && budget_ok {
                if rt.has_budget {
                    rt.tokens -= 1.0;
                }
                rt.attempts[q] += 1;
                rt.hedged[q] = false;
                let retry_index = attempts; // 1-based retry number
                rt.stats.retries[retry_index - 1] += 1;
                let mut delay = rt.retry.backoff_s(retry_index);
                if rt.retry.jitter_frac > 0.0 {
                    delay *= 1.0 + rt.retry.jitter_frac * rt.next_u01();
                }
                retry_start = Some(now + delay);
            } else {
                if can_retry {
                    rt.stats.retries_denied += 1;
                }
                rt.state[q] = RQ_DONE;
                rt.stats.timed_out += 1;
                if telemetry {
                    self.win_timed_out += 1;
                }
            }
        }
        match retry_start {
            Some(start) => {
                let gen = self.resil.as_ref().expect("attached").gen[q];
                let packed = q | ((gen & RES_GEN_MASK) as usize) << 32;
                self.push_arrive(start, packed, 0);
                self.res_arm_attempt(start, q);
            }
            None => self.release_client(now),
        }
    }

    /// Dispatches the hedge lane: a duplicate of the current attempt
    /// (same generation, lane bit set), routed away from the primary's
    /// entry slot whenever the group has another routable replica.
    /// Whichever lane completes first resolves the query; the loser is
    /// cancelled lazily and its service accounted wasted.
    fn on_hedge(&mut self, now: f64, q: usize, gen: u32) {
        self.last_time = now;
        let avoid = {
            let rt = self.resil.as_mut().expect("resilience runtime attached");
            rt.hedged[q] = true;
            rt.stats.hedges_issued += 1;
            rt.last_slot[q]
        };
        let packed = q | ((gen & RES_GEN_MASK) as usize) << 32 | 1usize << 63;
        self.avoid_slot = (avoid != u32::MAX).then_some(avoid as usize);
        self.on_arrive(now, packed, 0);
        self.avoid_slot = None;
    }

    /// Runs the admission decision for a stage-0 arrival: returns the
    /// admitted path's entry stage, or `None` when the query was shed.
    /// Re-arrivals of an already-admitted query (lifecycle requeues and
    /// parked flushes re-enter at their original stage — which is 0
    /// only on path 0) keep their path without a second decision.
    fn admit(&mut self, now: f64, query: usize) -> Option<usize> {
        let capacity = self.live_capacity;
        let queue_depth = self.total_queued_entries;
        let window = self.windows.last();
        let telemetry = self.telemetry_active;
        let mp = self.mp.as_mut().expect("multipath runtime attached");
        let prior = mp.qpath[query];
        if prior != MP_UNASSIGNED {
            debug_assert_eq!(prior, 0, "only path 0 starts at flat stage 0");
            return Some(0);
        }
        let decision = {
            let ctx = AdmissionCtx {
                now,
                query,
                in_system: mp.in_system,
                capacity,
                queue_depth,
                paths: &mp.profiles,
                window,
            };
            mp.admission.admit(&ctx, &mut mp.state)
        };
        match decision {
            Admission::Admit(p) => {
                assert!(
                    p < mp.entry.len(),
                    "admission chose path {p} of {}",
                    mp.entry.len()
                );
                mp.qpath[query] = p as u8;
                mp.admitted[p] += 1;
                mp.in_system += 1;
                if telemetry {
                    mp.win_admitted[p] += 1;
                }
                Some(mp.entry[p])
            }
            Admission::Shed => {
                mp.qpath[query] = MP_SHED;
                mp.admission_shed += 1;
                self.shed += 1;
                self.win_shed += 1;
                self.release_client(now);
                None
            }
        }
    }

    /// Counts a post-admission loss of `query` — shed without service,
    /// or dropped mid-service when `was_in_flight` — in the run, window,
    /// and (on multi-path runs) per-path counters.
    fn account_lost(&mut self, query: usize, was_in_flight: bool) {
        if was_in_flight {
            self.dropped += 1;
            self.win_dropped += 1;
        } else {
            self.shed += 1;
            self.win_shed += 1;
        }
        if let Some(mp) = self.mp.as_mut() {
            let p = mp.qpath[query] as usize;
            debug_assert!(p < mp.entry.len(), "lost query was never admitted");
            if was_in_flight {
                mp.dropped[p] += 1;
            } else {
                mp.shed[p] += 1;
            }
            mp.in_system -= 1;
        }
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
        self.arrival_time[query] = t;
        self.arrival_span = self.arrival_span.max(t);
        // Closed-loop arrivals are attributed to the window in which the
        // client issues them (skew vs first service at most the think
        // time).
        if self.telemetry_active {
            self.win_arrivals += 1;
        }
        self.heap.push(Event::arrive(t, self.seq, query, 0));
        self.seq += 1;
    }

    /// Routes `query` arriving at `stage_idx` to one replica slot of
    /// the stage's resource group, recording the choice in the query's
    /// routing history (the [`RoutingCtx`] affinity signal).
    ///
    /// Replicated groups go through [`Router::route`], probing the
    /// incrementally-maintained `queued`/`in_flight`/`free` counter
    /// arrays and the `remaining_work`/`slot_speed` estimator arrays
    /// directly.
    /// Returns `None` when lifecycle masking leaves the group with no
    /// routable (up or warming) replica — the caller sheds, parks, or
    /// fails the run per the [`FailurePolicy`].
    fn route(&mut self, now: f64, query: usize, stage_idx: usize) -> Option<usize> {
        let group = self.stages[stage_idx].resource;
        let base = self.slot_base[group];
        let replicas = self.group_replicas[group];
        // A hedge dispatch routes through the masked path to exclude
        // its primary's slot — but only while the group actually has
        // another replica to offer.
        let avoiding = self
            .avoid_slot
            .is_some_and(|s| (base..base + replicas).contains(&s) && replicas > 1);
        if (self.lifecycle_active && self.group_available[group] < replicas) || avoiding {
            if let Some(slot) = self.route_masked(now, query, stage_idx, group) {
                return Some(slot);
            }
            if self.avoid_slot.take().is_some() {
                // The avoided slot is the group's only routable replica:
                // hedge onto it rather than not at all.
                return self.route(now, query, stage_idx);
            }
            return None;
        }
        let num_stages = self.stages.len();
        let pick = if replicas == 1 {
            0
        } else {
            debug_assert!((base..base + replicas).all(|s| self.queued[s] == self.waiting[s].len()));
            debug_assert!(
                !self.track_est || (base..base + replicas).all(|s| self.estimator_mirrors_scan(s))
            );
            let mut loads = ReplicaLoads::new(
                &self.queued[base..base + replicas],
                &self.in_flight[base..base + replicas],
                &self.free[base..base + replicas],
            );
            if self.track_est {
                loads = loads
                    .with_estimates(
                        &self.queued_work[base..base + replicas],
                        &self.cur_speed[base..base + replicas],
                    )
                    .with_in_flight_decay(
                        &self.inflight_finish[base..base + replicas],
                        &self.inflight_count[base..base + replicas],
                        now,
                    );
            }
            let history = query * num_stages;
            let prior: &[u32] = if self.track_hist {
                &self.chosen[history..history + stage_idx]
            } else {
                &[]
            };
            let ctx = RoutingCtx::new(query, stage_idx, group, prior, &self.stage_groups);
            let pick = self
                .router
                .route(&loads, &ctx, &mut self.router_states[group]);
            assert!(
                pick < replicas,
                "router returned replica {pick} of {replicas}"
            );
            pick
        };
        if self.track_hist {
            self.chosen[query * num_stages + stage_idx] = pick as u32;
        }
        Some(base + pick)
    }

    /// Availability-masked routing: compacts the group's routable slots
    /// into the scratch columns, remaps the query's same-group routing
    /// history onto compacted positions (absent replicas become
    /// `u32::MAX`, which affinity routers treat as "no prior" and fall
    /// back), and routes over the compacted view. Routers never see a
    /// draining or down replica.
    fn route_masked(
        &mut self,
        now: f64,
        query: usize,
        stage_idx: usize,
        group: usize,
    ) -> Option<usize> {
        let base = self.slot_base[group];
        let replicas = self.group_replicas[group];
        let num_stages = self.stages.len();
        self.mask_idx.clear();
        self.mask_queued.clear();
        self.mask_inflight.clear();
        self.mask_free.clear();
        self.mask_work.clear();
        self.mask_speed.clear();
        self.mask_finish.clear();
        self.mask_count.clear();
        for r in 0..replicas {
            let slot = base + r;
            if self.state[slot].routable() && Some(slot) != self.avoid_slot {
                self.mask_idx.push(r);
                self.mask_queued.push(self.queued[slot]);
                self.mask_inflight.push(self.in_flight[slot]);
                self.mask_free.push(self.free[slot]);
                if self.track_est {
                    self.mask_work.push(self.queued_work[slot]);
                    self.mask_speed.push(self.cur_speed[slot]);
                    self.mask_finish.push(self.inflight_finish[slot]);
                    self.mask_count.push(self.inflight_count[slot]);
                }
            }
        }
        if self.mask_idx.is_empty() {
            return None;
        }
        let pick = if self.mask_idx.len() == 1 {
            0
        } else {
            let history = query * num_stages;
            self.mask_hist.clear();
            if self.track_hist {
                for s in 0..stage_idx {
                    let prior = self.chosen[history + s];
                    let remapped = if self.stage_groups[s] == group {
                        self.mask_idx
                            .iter()
                            .position(|&r| r == prior as usize)
                            .map_or(u32::MAX, |at| at as u32)
                    } else {
                        prior
                    };
                    self.mask_hist.push(remapped);
                }
            }
            let mut loads =
                ReplicaLoads::new(&self.mask_queued, &self.mask_inflight, &self.mask_free);
            if self.track_est {
                loads = loads
                    .with_estimates(&self.mask_work, &self.mask_speed)
                    .with_in_flight_decay(&self.mask_finish, &self.mask_count, now);
            }
            let ctx = RoutingCtx::new(query, stage_idx, group, &self.mask_hist, &self.stage_groups);
            let pick = self
                .router
                .route(&loads, &ctx, &mut self.router_states[group]);
            assert!(
                pick < self.mask_idx.len(),
                "router returned replica {pick} of {} available",
                self.mask_idx.len()
            );
            pick
        };
        let replica = self.mask_idx[pick];
        if self.track_hist {
            self.chosen[query * num_stages + stage_idx] = replica as u32;
        }
        Some(base + replica)
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
        self.busy_units_now += stage.units;
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
        self.heap.push(Event::complete(
            finish,
            self.seq,
            batch,
            self.batch_gen[batch],
        ));
        self.seq += 1;
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
        self.total_queued_entries += 1;
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
        self.total_queued_entries -= taken;
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
        self.total_queued_entries -= 1;
        if self.track_est {
            self.queued_work[slot] -= self.stages[stage].service_time;
        }
        taken
    }

    /// Pops a recycled batch-query buffer (or a fresh one on the cold
    /// path before the pool warms up).
    fn pooled_buffer(&mut self) -> Vec<usize> {
        self.query_pool.pop().unwrap_or_default()
    }

    /// The waiting entry with the lowest policy priority on `slot`.
    fn head_of(&self, slot: usize) -> Option<QueueEntry> {
        self.waiting[slot].front().copied()
    }

    /// Runs the scheduling loop for one replica slot: launch batches
    /// while the policy releases them and units are free. Head-of-line
    /// blocking matches the pre-batching simulator: only the
    /// priority-minimal entry is considered for launch.
    fn dispatch(&mut self, now: f64, slot: usize) {
        loop {
            let Some(head) = self.head_of(slot) else {
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
                Release::Now => {
                    let queries = self.take_batch(slot, head.stage, ready);
                    self.launch(now, head.stage, slot, queries);
                }
                Release::At(t) if t > now => {
                    // Arm at most one live recheck per slot: arming an
                    // earlier deadline bumps the generation, lazily
                    // cancelling the superseded event still in the heap.
                    if self.armed[slot].is_none_or(|armed| t < armed) {
                        self.armed[slot] = Some(t);
                        self.timer_gen[slot] += 1;
                        self.heap
                            .push(Event::recheck(t, self.seq, slot, self.timer_gen[slot]));
                        self.seq += 1;
                    }
                    return;
                }
                Release::At(_) => {
                    // A hold "until" a past instant is a launch.
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
            let mut buf = self.pooled_buffer();
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
        // Under resilience `query` is a packed lane id; routing,
        // history, and the arrival clock key off the bare index while
        // queue entries and batch members carry the packed form.
        let q = self.unq(query);
        let Some(slot) = self.route(now, q, stage_idx) else {
            self.handle_unroutable(now, query, stage_idx);
            return;
        };
        if self.resil_active && stage_idx == 0 {
            // What a later hedge dispatch of this query routes away
            // from (either lane may record; the last write wins and the
            // next reader is the next attempt, which rewrites it).
            self.resil
                .as_mut()
                .expect("resilience runtime attached")
                .last_slot[q] = slot as u32;
        }
        let stage = &self.stages[stage_idx];
        let entry = QueueEntry {
            query,
            stage: stage_idx,
            arrived: self.arrival_time[q],
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
                let mut buf = self.pooled_buffer();
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

    /// A query arrived at a group with no routable replica. Under
    /// [`FailurePolicy::Shed`] the query is shed (freeing its
    /// closed-loop client); under
    /// [`FailurePolicy::Requeue`] it parks awaiting a revival — but only
    /// while one is actually coming (a pending scheduled
    /// provision/recover, or an autoscaling controller that may yet
    /// provision). Otherwise the run fails with the typed
    /// [`SimError::NoAvailableReplica`] instead of waiting forever (or
    /// panicking inside a router).
    fn handle_unroutable(&mut self, now: f64, query: usize, stage_idx: usize) {
        let group = self.stages[stage_idx].resource;
        match self.failure_policy {
            FailurePolicy::Shed => {
                if self.resil_active {
                    // Only the lane evaporates; the *query* resolves
                    // through its timeout (or the end-of-run sweep), so
                    // a surviving hedge twin can still win — counting
                    // here would double-resolve.
                    return;
                }
                self.account_lost(query, false);
                self.release_client(now);
            }
            FailurePolicy::Requeue => {
                let revival_pending = self.revivals_left[group] > 0
                    || self.scale.as_ref().is_some_and(|s| s.group == group);
                if revival_pending {
                    self.parked[group].push((query, stage_idx));
                    self.total_queued_entries += 1;
                } else {
                    self.fatal = Some(SimError::NoAvailableReplica { group, time: now });
                }
            }
        }
    }

    /// Disposes of a query stranded by a fail-stop: re-enters it as a
    /// fresh arrival at the same stage (Requeue — its original arrival
    /// time is kept, so the lost work shows up as latency) or counts it
    /// shed/dropped and frees its closed-loop client (Shed).
    fn strand(&mut self, now: f64, query: usize, stage_idx: usize, was_in_flight: bool) {
        if self.resil_active {
            // A stranded carcass simply evaporates (its query already
            // resolved); a live lane re-enters under Requeue, and under
            // Shed the *lane* is lost but the query stays live — its
            // timeout (or the end-of-run sweep) resolves it, and a
            // hedge twin may still complete it.
            if !self.lane_live(query) {
                return;
            }
            if self.failure_policy == FailurePolicy::Requeue {
                self.push_arrive(now, query, stage_idx);
            }
            return;
        }
        match self.failure_policy {
            FailurePolicy::Requeue => {
                self.push_arrive(now, query, stage_idx);
            }
            FailurePolicy::Shed => {
                self.account_lost(query, was_in_flight);
                self.release_client(now);
            }
        }
    }

    /// Re-enters every query parked on `group` as a fresh arrival at
    /// `now` (a replica just revived), in parking order.
    fn flush_parked(&mut self, now: f64, group: usize) {
        let mut parked = std::mem::take(&mut self.parked[group]);
        self.total_queued_entries -= parked.len();
        for (query, stage_idx) in parked.drain(..) {
            self.push_arrive(now, query, stage_idx);
        }
        self.parked[group] = parked; // give the buffer back
    }

    /// Final transition to `Down`: the slot stops counting toward live
    /// capacity and cost. Only valid once the slot holds no work.
    fn slot_down(&mut self, slot: usize) {
        debug_assert_eq!(self.in_flight[slot], 0);
        debug_assert_eq!(self.queued[slot], 0);
        self.state[slot] = SlotState::Down;
        self.free[slot] = 0;
        self.live_capacity -= self.slot_capacity[slot];
        self.live_cost -= self.slot_speed[slot];
    }

    /// Brings a down slot up, through `warmup_s` of reduced-speed
    /// warm-up when positive. No-op on a slot that is not down (a
    /// schedule may provision an already-live replica). Parked queries
    /// of the group re-enter immediately.
    fn apply_provision(&mut self, now: f64, slot: usize, warmup_s: f64) {
        if self.state[slot] != SlotState::Down {
            return;
        }
        let group = self.slot_group[slot];
        self.degrade_frac[slot] = 1.0; // a provision is a fresh machine
        self.free[slot] = self.slot_capacity[slot];
        if self.track_est {
            self.queued_work[slot] = 0.0;
            self.inflight_finish[slot] = 0.0;
            self.inflight_count[slot] = 0;
        }
        self.slot_gen[slot] += 1;
        self.group_available[group] += 1;
        self.live_capacity += self.slot_capacity[slot];
        self.live_cost += self.slot_speed[slot];
        if warmup_s > 0.0 {
            self.state[slot] = SlotState::Warming;
            self.cur_speed[slot] = self.slot_speed[slot] * self.warmup_speed;
            self.heap.push(Event::warm_done(
                now + warmup_s,
                self.seq,
                slot,
                self.slot_gen[slot],
            ));
            self.seq += 1;
        } else {
            self.state[slot] = SlotState::Up;
            self.cur_speed[slot] = self.slot_speed[slot];
        }
        self.flush_parked(now, group);
    }

    /// Gray failure (limpware): the slot keeps serving — and keeps
    /// accepting routes, invisibly to availability masking — at
    /// `speed` of its profile rate. Applies to batches launched from
    /// now on (in-flight batches keep their booked finish; queued work,
    /// the bulk under load, is slowed). Estimator-reading routers see
    /// the limp through `cur_speed`. No-op on a down slot.
    fn apply_degrade(&mut self, slot: usize, speed: f64) {
        if self.state[slot] == SlotState::Down {
            return;
        }
        self.degrade_frac[slot] = speed;
        let base = if self.state[slot] == SlotState::Warming {
            self.slot_speed[slot] * self.warmup_speed
        } else {
            self.slot_speed[slot]
        };
        self.cur_speed[slot] = base * speed;
    }

    /// A scheduled recovery: provisions a down slot instantly, or —
    /// the limpware repair edge — restores a live degraded slot to its
    /// profile speed in place.
    fn apply_recover(&mut self, now: f64, slot: usize) {
        if self.state[slot] == SlotState::Down {
            self.apply_provision(now, slot, 0.0);
        } else if self.degrade_frac[slot] != 1.0 {
            self.apply_degrade(slot, 1.0);
        }
    }

    /// Takes a live slot out of rotation: no new routes, queued and
    /// in-flight work finishes, and the slot goes down once empty. A
    /// draining warming replica keeps its warm-up speed for the drain
    /// (it never finished warming). No-op unless the slot is up or
    /// warming.
    fn apply_drain(&mut self, slot: usize) {
        if !self.state[slot].routable() {
            return;
        }
        self.state[slot] = SlotState::Draining;
        self.slot_gen[slot] += 1; // cancels any pending WarmDone
        self.group_available[self.slot_group[slot]] -= 1;
        if self.in_flight[slot] == 0 && self.queued[slot] == 0 {
            self.slot_down(slot);
        }
    }

    /// Kills a slot instantly: in-flight batches are destroyed (their
    /// completions cancel via the batch generation, their unserved busy
    /// time is refunded) and both in-flight and queued queries are
    /// stranded per the failure policy — in-flight queries first (batch
    /// table order), then queued ones in queue order, all re-entering at
    /// `now` with fresh heap seqs. No-op on a slot already down.
    fn apply_fail_stop(&mut self, now: f64, slot: usize) {
        if self.state[slot] == SlotState::Down {
            return;
        }
        let was_routable = self.state[slot].routable();
        let stage_count = self.stages.len();
        debug_assert!(stage_count > 0);
        for idx in 0..self.batches.len() {
            if self.batches[idx].slot != slot || self.free_batches.contains(&idx) {
                continue;
            }
            let Batch {
                stage,
                queries,
                finish,
                ..
            } = self.retire_batch(idx);
            self.batch_gen[idx] += 1; // cancels the pending Complete
            let s = &self.stages[stage];
            self.busy_unit_seconds[slot] -= s.units as f64 * (finish - now).max(0.0);
            self.busy_units_now -= s.units;
            self.for_each_query(queries, |sim, query| sim.strand(now, query, stage, true));
        }
        let mut stranded = std::mem::take(&mut self.waiting[slot]);
        self.total_queued_entries -= stranded.len();
        for entry in stranded.drain(..) {
            self.strand(now, entry.query, entry.stage, false);
        }
        self.waiting[slot] = stranded; // give the buffer back
        self.queued[slot] = 0;
        self.in_flight[slot] = 0;
        self.free[slot] = 0;
        if self.track_est {
            self.queued_work[slot] = 0.0;
            self.inflight_finish[slot] = 0.0;
            self.inflight_count[slot] = 0;
        }
        self.armed[slot] = None;
        self.timer_gen[slot] += 1; // cancels pending rechecks
        self.slot_gen[slot] += 1; // cancels a pending WarmDone
        self.state[slot] = SlotState::Down;
        if was_routable {
            self.group_available[self.slot_group[slot]] -= 1;
        }
        self.live_capacity -= self.slot_capacity[slot];
        self.live_cost -= self.slot_speed[slot];
    }

    /// Advances the time-weighted telemetry integrals to `now`.
    fn tele_advance(&mut self, now: f64) {
        let dt = now - self.integral_t;
        if dt > 0.0 {
            self.queue_integral += self.total_queued_entries as f64 * dt;
            self.busy_integral += self.busy_units_now as f64 * dt;
            self.cap_integral += self.live_capacity as f64 * dt;
            self.cost_integral += self.live_cost * dt;
            self.integral_t = now;
        }
    }

    /// Closes the telemetry window ending at `now` (no-op on an empty
    /// span) and resets the per-window counters.
    fn close_window(&mut self, now: f64) {
        let duration = now - self.win_start;
        if duration <= 0.0 {
            return;
        }
        let mean_queue_depth = (self.queue_integral - self.win_queue_base) / duration;
        let cap_delta = self.cap_integral - self.win_cap_base;
        let utilization = if cap_delta > 0.0 {
            ((self.busy_integral - self.win_busy_base) / cap_delta).min(1.0)
        } else {
            0.0
        };
        let cost = (self.cost_integral - self.win_cost_base) / duration;
        let p99_s = if self.win_latencies.is_empty() {
            0.0
        } else {
            self.win_latencies
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
            let n = self.win_latencies.len();
            let idx = ((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1;
            self.win_latencies[idx]
        };
        // Live replicas: the scaled group's routable count when a
        // controller is attached (the number it steers), else the whole
        // fleet's.
        let live_replicas = match &self.scale {
            Some(scale) => {
                let base = self.slot_base[scale.group];
                let replicas = self.group_replicas[scale.group];
                (base..base + replicas)
                    .filter(|&s| self.state[s].routable())
                    .count()
            }
            None => self.state.iter().filter(|s| s.routable()).count(),
        };
        let (path_admitted, path_completed) = match self.mp.as_mut() {
            Some(mp) => {
                let n = mp.win_admitted.len();
                (
                    std::mem::replace(&mut mp.win_admitted, vec![0; n]),
                    std::mem::replace(&mut mp.win_completed, vec![0; n]),
                )
            }
            None => (Vec::new(), Vec::new()),
        };
        self.windows.push(WindowStats {
            start: self.win_start,
            end: now,
            arrivals: self.win_arrivals,
            completed: self.win_completed,
            shed: self.win_shed,
            dropped: self.win_dropped,
            timed_out: self.win_timed_out,
            p99_s,
            mean_queue_depth,
            utilization,
            live_replicas,
            cost,
            path_admitted,
            path_completed,
        });
        self.win_start = now;
        self.win_queue_base = self.queue_integral;
        self.win_busy_base = self.busy_integral;
        self.win_cap_base = self.cap_integral;
        self.win_cost_base = self.cost_integral;
        self.win_arrivals = 0;
        self.win_completed = 0;
        self.win_shed = 0;
        self.win_dropped = 0;
        self.win_timed_out = 0;
        self.win_latencies.clear();
    }

    /// Consults the autoscaling controller with the window that just
    /// closed and applies its decision: provision the lowest-index down
    /// slots to scale up, drain the highest-index routable ones to
    /// scale down (drains never kill live work).
    fn autoscale_tick(&mut self, now: f64) {
        let (Some(scale), Some(window)) = (self.scale.as_mut(), self.windows.last()) else {
            return;
        };
        let base = self.slot_base[scale.group];
        let replicas = self.group_replicas[scale.group];
        let live = (base..base + replicas)
            .filter(|&s| self.state[s].routable())
            .count();
        let desired = scale
            .controller
            .desired_replicas(window, live)
            .clamp(scale.min, scale.max);
        let warmup_s = scale.warmup_s;
        match desired.cmp(&live) {
            Ordering::Greater => {
                let mut need = desired - live;
                for slot in base..base + replicas {
                    if need == 0 {
                        break;
                    }
                    if self.state[slot] == SlotState::Down {
                        self.apply_provision(now, slot, warmup_s);
                        need -= 1;
                    }
                }
            }
            Ordering::Less => {
                let mut excess = live - desired;
                for slot in (base..base + replicas).rev() {
                    if excess == 0 {
                        break;
                    }
                    if self.state[slot].routable() {
                        self.apply_drain(slot);
                        excess -= 1;
                    }
                }
            }
            Ordering::Equal => {}
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
        self.busy_units_now -= s.units;
        // Conservation invariant (active under the test profile): a
        // release can never return more units than the replica owns.
        debug_assert!(self.free[slot] <= self.slot_capacity[slot]);

        self.for_each_query(queries, |sim, query| sim.route_onward(now, query, stage));
        self.dispatch(now, slot);
        // A draining slot that just emptied goes down.
        if self.lifecycle_active
            && self.state[slot] == SlotState::Draining
            && self.in_flight[slot] == 0
            && self.queued[slot] == 0
        {
            self.slot_down(slot);
        }
    }

    /// Sends a query that finished `stage` to the next stage (or, on a
    /// stage shard, to the next stage's shard), or records its
    /// completion (re-arming its closed-loop client).
    fn route_onward(&mut self, now: f64, query: usize, stage: usize) {
        if let Some(out) = self.shard_out.as_mut() {
            // Stage shard with a downstream: hand the query over at its
            // completion instant — the serial loop's same-time Arrive
            // push, minus the shared heap.
            out.emit(now, query, self.arrival_time[query]);
            return;
        }
        // A path's stages are contiguous in the concatenated spec, so
        // "advance to stage + 1" is correct within a path; the path's
        // final stage completes the query instead of entering the next
        // path's first stage.
        let last_stage = match self.mp.as_ref() {
            Some(mp) => mp.last_of_path[stage],
            None => stage + 1 == self.stages.len(),
        };
        // Resilience: a carcass (its query resolved or its attempt
        // timed out while it sat in service) is discarded here, its
        // baseline service charged to wasted work. A live lane
        // finishing its last stage resolves the query — the generation
        // bump cancels the twin lane wherever it is.
        let q = if self.resil_active {
            let bare = query & RES_Q_MASK;
            if !self.lane_live(query) {
                let service = self.stages[stage].service_time;
                let rt = self.resil.as_mut().expect("resilience runtime attached");
                rt.stats.wasted_service_s += service;
                return;
            }
            if last_stage {
                let latency_s = now - self.arrival_time[bare];
                let rt = self.resil.as_mut().expect("resilience runtime attached");
                rt.gen[bare] = rt.gen[bare].wrapping_add(1);
                rt.state[bare] = RQ_DONE;
                if query >> 63 == 1 {
                    rt.stats.hedges_won += 1;
                }
                if rt.has_budget {
                    rt.tokens = (rt.tokens + rt.refill).min(rt.bucket_cap);
                }
                rt.push_sample(latency_s);
            }
            bare
        } else {
            query
        };
        if !last_stage {
            self.push_arrive(now, query, stage + 1);
        } else {
            let query = q;
            self.completed += 1;
            if self.record_at_completion {
                // At-scale (and shard-tail) recording: stream the
                // latency and completion straight into the sinks; both
                // are order-independent, so this matches the
                // query-order replay in `finish` exactly.
                if query >= self.warmup_len {
                    self.live_latency
                        .record_secs(now - self.arrival_time[query]);
                }
                self.live_throughput
                    .record_completion(Duration::from_secs_f64(now));
            } else {
                self.finish_time[query] = now;
            }
            if self.telemetry_active {
                self.win_completed += 1;
                self.win_latencies.push(now - self.arrival_time[query]);
            }
            let latency_s = now - self.arrival_time[query];
            let warm = query >= self.warmup_len;
            let telemetry = self.telemetry_active;
            if let Some(mp) = self.mp.as_mut() {
                let p = mp.qpath[query] as usize;
                debug_assert!(p < mp.entry.len(), "completion of an unadmitted query");
                mp.completed[p] += 1;
                mp.in_system -= 1;
                if telemetry {
                    mp.win_completed[p] += 1;
                }
                if warm {
                    mp.latency[p].record_secs(latency_s);
                }
            }
            self.release_client(now);
        }
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
            t >= self.arrival_time[query],
            "streamed arrivals must be nondecreasing"
        );
        self.arrival_time[next] = t;
        self.arrival_span = self.arrival_span.max(t);
        self.heap.push(Event::arrive(t, next as u64, next, 0));
    }

    pub(crate) fn run(mut self) -> Result<SimResult, SimError> {
        while let Some(event) = self.heap.pop() {
            if self.step(event).is_break() {
                break;
            }
        }
        if let Some(err) = self.fatal.take() {
            return Err(err);
        }
        Ok(self.finish())
    }

    /// Processes one popped event — the one dispatch the serial loop
    /// and every stage shard share. Breaks once an arrival leaves the
    /// run failed ([`SimError::NoAvailableReplica`]).
    fn step(&mut self, event: Event) -> ControlFlow<()> {
        let now = event.time;
        if self.telemetry_active {
            self.tele_advance(now);
        }
        match event.kind() {
            EventKind::Arrive { query, stage } => {
                // Under resilience the payload packs the lane identity
                // around the stage; decode it and rebuild the packed id
                // that flows through queues/batches.
                let (stage, packed) = if self.resil_active {
                    let raw = stage as u32;
                    let gen = (raw >> RES_STAGE_BITS) & RES_GEN_MASK;
                    let lane = (raw >> 31) as usize;
                    (
                        (raw & RES_STAGE_MASK) as usize,
                        query | (gen as usize) << 32 | lane << 63,
                    )
                } else {
                    (stage, query)
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
                // arrivals only (their heap seq is their query index);
                // requeues and parked flushes re-use query indices but
                // carry later seqs, so they never double-count.
                // Closed-loop injections count at `inject`.
                if self.telemetry_active && scheduled && query < self.schedule_len {
                    self.win_arrivals += 1;
                }
                if self.resil_active {
                    let rt = self.resil.as_mut().expect("resilience runtime attached");
                    if rt.state[query] == RQ_FRESH && stage == 0 {
                        // First dispatch of the query: attempt 1 starts
                        // now, with its timeout and hedge.
                        rt.state[query] = RQ_LIVE;
                        rt.attempts[query] = 1;
                        self.res_arm_attempt(now, query);
                    } else if !self.lane_live(packed) {
                        // A cancelled lane's leftover arrival (requeue or
                        // parked flush of an attempt that has since
                        // resolved or timed out).
                        return ControlFlow::Continue(());
                    }
                }
                self.on_arrive(now, packed, stage);
                if self.fatal.is_some() {
                    return ControlFlow::Break(());
                }
            }
            EventKind::Complete { batch, gen } => {
                // A fail-stop that killed the batch bumped its
                // generation; the orphaned completion is a no-op.
                if gen == self.batch_gen[batch] as u32 {
                    self.last_time = now;
                    self.on_complete(now, batch);
                }
            }
            EventKind::Recheck { slot, gen } => {
                // Lazy cancellation: only the latest-armed timer of a
                // slot dispatches. A superseded timer can never launch
                // anything a live recheck, arrival, or completion would
                // not have launched first (the armed time is always at
                // or before the head entry's hold deadline), so skipping
                // it changes nothing but the wasted queue scan.
                if gen == self.timer_gen[slot] as u32 {
                    self.armed[slot] = None;
                    self.dispatch(now, slot);
                }
            }
            EventKind::Lifecycle { idx } => {
                let (slot, ev) = self.sched[idx];
                if ev.revives() {
                    self.revivals_left[self.slot_group[slot]] -= 1;
                }
                match ev.action {
                    LifecycleAction::Provision { warmup_s } => {
                        self.apply_provision(now, slot, warmup_s)
                    }
                    LifecycleAction::Drain => self.apply_drain(slot),
                    LifecycleAction::FailStop => self.apply_fail_stop(now, slot),
                    LifecycleAction::Recover => self.apply_recover(now, slot),
                    LifecycleAction::Degrade { speed } => self.apply_degrade(slot, speed),
                }
            }
            EventKind::WarmDone { slot, gen } => {
                if gen == self.slot_gen[slot] as u32 && self.state[slot] == SlotState::Warming {
                    self.state[slot] = SlotState::Up;
                    // `* 1.0` is exact, so healthy slots stay
                    // bit-identical to the degrade-free loop.
                    self.cur_speed[slot] = self.slot_speed[slot] * self.degrade_frac[slot];
                }
            }
            EventKind::WindowTick => {
                self.close_window(now);
                self.autoscale_tick(now);
                // Re-arm while the run is still going; the last
                // (partial) window closes in `finish`.
                let timed_out = self.resil.as_ref().map_or(0, |r| r.stats.timed_out);
                let done = self.completed + self.shed + self.dropped + timed_out;
                if done < self.num_queries && !self.heap.is_empty() {
                    self.heap
                        .push(Event::window_tick(now + self.window_s, self.seq));
                    self.seq += 1;
                }
            }
            EventKind::Timeout { query, gen } => {
                let rt = self.resil.as_mut().expect("resilience runtime attached");
                if gen == rt.gen[query] && rt.state[query] == RQ_LIVE {
                    self.on_timeout(now, query);
                }
            }
            EventKind::Hedge { query, gen } => {
                let rt = self.resil.as_mut().expect("resilience runtime attached");
                if gen == rt.gen[query] && rt.state[query] == RQ_LIVE && !rt.hedged[query] {
                    self.on_hedge(now, query, gen);
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Runs one stage's shard of a sharded (lifecycle-free) run through
    /// the serial loop's [`step`](Self::step).
    ///
    /// The head shard (`input` is `None`) replays the arrival schedule
    /// through the normal heap. Downstream shards merge their internal
    /// event heap with the incoming arrival stream: an incoming arrival
    /// at time `t` was *created* at `t` (the upstream completion's
    /// instant), while every internal event at `t` was created strictly
    /// earlier (launches precede completions because service times are
    /// positive, and rechecks only arm strictly-future deadlines) — so
    /// on equal timestamps internal events run first, exactly the
    /// serial loop's global-seq tie order. Relative order *within* the
    /// incoming stream is upstream completion order, again matching the
    /// serial loop by induction.
    pub(crate) fn run_shard(
        mut self,
        stage: usize,
        mut input: Option<&mut dyn ShardSource>,
    ) -> RunTotals {
        let mut pending = input.as_mut().and_then(|src| src.next_arrival());
        loop {
            let take_heap = match (self.heap.peek(), pending) {
                (Some(ev), Some((t, _, _))) => ev.time <= t,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_heap {
                let event = self.heap.pop().expect("peeked event exists");
                // Shards are lifecycle-free, so no arrival fails the run.
                let flow = self.step(event);
                debug_assert!(flow.is_continue());
            } else {
                let (t, query, arrived) = pending.take().expect("checked above");
                pending = input.as_mut().and_then(|src| src.next_arrival());
                // The query's end-to-end clock starts at its *original*
                // arrival (EDF deadlines and latency both key off it),
                // not the hand-off instant.
                self.arrival_time[query] = arrived;
                self.arrival_span = self.arrival_span.max(arrived);
                self.last_time = t;
                self.on_arrive(t, query, stage);
            }
        }
        self.totals()
    }

    /// Takes the run's raw totals (a stage shard's contribution to the
    /// merged result).
    fn totals(&mut self) -> RunTotals {
        let (latency, qps) = self.collect_latency();
        RunTotals {
            busy_unit_seconds: std::mem::take(&mut self.busy_unit_seconds),
            last_time: self.last_time,
            launches: self.launches,
            served: self.served,
            completed: self.completed,
            latency,
            qps,
            arrival_span: self.arrival_span,
        }
    }

    /// Collects post-warmup latency and throughput: already streamed
    /// into the completion-order sinks at scale, replayed in query
    /// order from the finish vector otherwise. The two modes report
    /// identical statistics (the sinks are order-independent); below
    /// the scale threshold even the raw sample order matches, keeping
    /// serial-vs-sharded results comparable as whole structs.
    fn collect_latency(&mut self) -> (LatencyStats, f64) {
        if self.record_at_completion {
            let latency = std::mem::replace(&mut self.live_latency, LatencyStats::with_capacity(0));
            (latency, self.live_throughput.qps())
        } else {
            let warmup = self.warmup_len;
            let mut latency = LatencyStats::with_capacity(self.num_queries.saturating_sub(warmup));
            let mut throughput = ThroughputMeter::new();
            for (query, (&arrive, &finish)) in self
                .arrival_time
                .iter()
                .zip(self.finish_time.iter())
                .enumerate()
            {
                if finish.is_nan() {
                    continue; // never completed (shed, dropped, or stranded)
                }
                throughput.record_completion(Duration::from_secs_f64(finish));
                if query >= warmup {
                    latency.record_secs(finish - arrive);
                }
            }
            (latency, throughput.qps())
        }
    }

    fn finish(mut self) -> SimResult {
        // Conservation safety net: queries still parked when the event
        // stream ran dry (a promised revival never came before the last
        // event) count as shed, so completed + shed + dropped always
        // accounts for every injected query.
        if self.resil_active {
            // Parked entries are lanes, not queries — drop them and
            // sweep the per-query states instead, so a query with a
            // parked lane *and* a live twin (or a silently-lost lane
            // under Shed) resolves exactly once.
            for group in 0..self.parked.len() {
                let leftover = std::mem::take(&mut self.parked[group]);
                self.total_queued_entries -= leftover.len();
            }
            let rt = self.resil.as_mut().expect("resilience runtime attached");
            let mut unresolved = 0usize;
            for state in rt.state.iter_mut() {
                if *state == RQ_LIVE {
                    *state = RQ_DONE;
                    unresolved += 1;
                }
            }
            self.shed += unresolved;
            self.win_shed += unresolved;
        } else {
            for group in 0..self.parked.len() {
                let leftover = std::mem::take(&mut self.parked[group]);
                self.total_queued_entries -= leftover.len();
                for (query, _) in leftover {
                    self.account_lost(query, false);
                }
            }
        }
        // Close the trailing partial window at the integral clock.
        if self.telemetry_active && self.window_s > 0.0 {
            let end = self.integral_t;
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
        result.cost_integral = self.cost_integral;
        result.windows = std::mem::take(&mut self.windows);
        if let Some(mp) = self.mp.take() {
            let MultipathRt {
                names,
                profiles,
                admitted,
                completed,
                shed,
                dropped,
                mut latency,
                admission_shed,
                ..
            } = mp;
            result.paths = names
                .into_iter()
                .enumerate()
                .map(|(p, name)| PathStats {
                    name,
                    quality: profiles[p].quality,
                    admitted: admitted[p],
                    completed: completed[p],
                    shed: shed[p],
                    dropped: dropped[p],
                    mean_latency_s: latency[p].mean().as_secs_f64(),
                    p99_s: latency[p].p99().as_secs_f64(),
                })
                .collect();
            result.admission_shed = admission_shed;
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
    fn zero_load_latency_equals_service_floor() {
        // At negligible load there is no queueing: every latency is the
        // service time.
        let spec = single_stage(8, 0.004);
        let mut out = spec.simulate(1.0, 500, 2);
        let p50 = out.latency.p50().as_secs_f64();
        assert!((p50 - 0.004).abs() < 1e-6, "p50 {p50}");
    }

    #[test]
    fn md1_mean_wait_matches_theory() {
        // M/D/1: E[wait] = rho * s / (2 (1 - rho)).
        let service = 0.01;
        let rho: f64 = 0.7;
        let qps = rho / service;
        let spec = single_stage(1, service);
        let out = spec.simulate(qps, 60_000, 3);
        let mean = out.latency.mean().as_secs_f64();
        let expected = service + rho * service / (2.0 * (1.0 - rho));
        assert!(
            (mean - expected).abs() / expected < 0.12,
            "mean {mean} vs theory {expected}"
        );
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
        assert_eq!(four.total_replicas(), 4);
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
        assert_eq!(mixed.total_replicas(), 4);
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
        let sticky = run(&Sticky::new());
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
        let routers: [&dyn Router; 3] = [&ExpectedWait, &Sticky::new(), &JoinShortestQueue];
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
        let routers: [&dyn Router; 2] = [&ExpectedWait, &Sticky::new()];
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
        let routers: [&dyn Router; 3] = [&RoundRobin, &JoinShortestQueue, &Sticky::new()];
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
}
