//! Sharded parallel execution of the lifecycle-free event loop.
//!
//! A chained pipeline whose stages use pairwise-distinct resource
//! groups only couples stages in one direction: a stage-`k` completion
//! at time `t` becomes a stage-`k+1` arrival at the same `t`. That
//! makes the serial event loop decomposable by stage: each stage runs
//! as its own shard (its own event queue, replica queues, batches, and
//! router state) and hands finished queries downstream through a
//! bounded channel, turning an `s`-stage replay into an `s`-deep
//! pipeline of threads.
//!
//! # Determinism
//!
//! A plain [`Scenario`](crate::Scenario) with a worker cap runs here
//! and produces the *same* [`SimResult`] as the serial loop for any
//! worker count, including 1 (the property tests pin this across the
//! router × policy × replica × batching matrix). Three invariants
//! carry the proof:
//!
//! * **Shard boundaries.** A stage's behavior depends only on the
//!   sequence of its own arrivals. Arrivals cross a boundary in
//!   upstream *completion-processing order*, which is nondecreasing in
//!   time, so the downstream shard sees them in the serial loop's
//!   order by induction (the head shard replays the same arrival
//!   schedule either way).
//! * **Merge order at equal timestamps.** In the serial loop ties
//!   break on the global event sequence number — creation order. An
//!   incoming arrival at time `t` was created at `t` (its upstream
//!   completion's instant); every internal shard event pending at `t`
//!   was created strictly earlier (service times are positive, and
//!   policy rechecks only arm strictly-future deadlines). So shards
//!   run internal events before same-time incoming arrivals, which is
//!   exactly the serial tie order. This is also why a zero service
//!   time disqualifies a spec: a zero-length batch would tie its own
//!   launch and break the strict inequality.
//! * **RNG stream splitting.** Router state is seeded per resource
//!   group (`seed ^ group * 0x9e37…`), never shared across groups, so
//!   each shard derives its group's generator from the *global* group
//!   index and draws the identical stream the serial loop would.
//!
//! Floating-point accumulation order is also preserved: every per-slot
//! quantity (busy seconds, estimator columns) is updated by the one
//! shard owning that slot in its serial order, and the merged latency
//! sums are integer nanoseconds.
//!
//! Specs the decomposition cannot handle fall back to the serial loop
//! (same results, one thread): single-stage pipelines, stages sharing
//! a resource group (one slot would need two owners), closed-loop
//! arrivals (completions feed back to admissions, coupling tail to
//! head), and non-positive service times. Scenarios with any optional
//! runtime (lifecycle, autoscaling, multi-path, resilience) are always
//! serial.

use std::sync::mpsc;

use recpipe_data::ArrivalProcess;

use crate::sim::{Inputs, RunTotals, ShardSink, ShardSource, Sim};
use crate::{PipelineSpec, SimResult};

/// Completion tuples per channel send: large enough to amortize the
/// channel's synchronization, small enough to keep the stage pipeline
/// primed.
const CHUNK: usize = 4096;
/// Bounded channel depth in chunks (~256k queries of slack per
/// boundary) — backpressure without unbounded buffering.
const CHANNEL_CHUNKS: usize = 64;

/// A query hand-off: completion time at the upstream stage (= arrival
/// time at the downstream stage), query index, original stage-0
/// arrival time.
type Tuple = (f64, usize, f64);

/// Collects every hand-off in memory — the sequential (workers ≤ 1)
/// executor's boundary.
#[derive(Default)]
struct VecSink {
    buf: Vec<Tuple>,
}

impl ShardSink for VecSink {
    fn emit(&mut self, time: f64, query: usize, arrived: f64) {
        self.buf.push((time, query, arrived));
    }
}

struct VecSource {
    iter: std::vec::IntoIter<Tuple>,
}

impl ShardSource for VecSource {
    fn next_arrival(&mut self) -> Option<Tuple> {
        self.iter.next()
    }
}

/// Chunk-batched sender over a bounded channel — the threaded
/// executor's boundary.
struct ChanSink {
    tx: mpsc::SyncSender<Vec<Tuple>>,
    buf: Vec<Tuple>,
}

impl ChanSink {
    fn new(tx: mpsc::SyncSender<Vec<Tuple>>) -> Self {
        Self {
            tx,
            buf: Vec::with_capacity(CHUNK),
        }
    }

    /// Flushes the trailing partial chunk and closes the channel
    /// (dropping the sender ends the downstream shard's input).
    fn finish(self) {
        if !self.buf.is_empty() {
            // A send can only fail if the downstream shard panicked;
            // its own join surfaces that, so the error is ignorable.
            let _ = self.tx.send(self.buf);
        }
    }
}

impl ShardSink for ChanSink {
    fn emit(&mut self, time: f64, query: usize, arrived: f64) {
        self.buf.push((time, query, arrived));
        if self.buf.len() == CHUNK {
            let full = std::mem::replace(&mut self.buf, Vec::with_capacity(CHUNK));
            let _ = self.tx.send(full);
        }
    }
}

struct ChanSource {
    rx: mpsc::Receiver<Vec<Tuple>>,
    cur: std::vec::IntoIter<Tuple>,
}

impl ChanSource {
    fn new(rx: mpsc::Receiver<Vec<Tuple>>) -> Self {
        Self {
            rx,
            cur: Vec::new().into_iter(),
        }
    }
}

impl ShardSource for ChanSource {
    fn next_arrival(&mut self) -> Option<Tuple> {
        loop {
            if let Some(t) = self.cur.next() {
                return Some(t);
            }
            match self.rx.recv() {
                Ok(chunk) => self.cur = chunk.into_iter(),
                Err(_) => return None, // upstream finished and closed
            }
        }
    }
}

/// Whether the per-stage decomposition applies (see the module docs
/// for why each condition is load-bearing).
pub(crate) fn shardable(spec: &PipelineSpec, arrivals: &dyn ArrivalProcess) -> bool {
    let stages = spec.stages();
    if stages.len() < 2 || arrivals.closed_loop().is_some() {
        return false;
    }
    if stages.iter().any(|s| s.service_time <= 0.0) {
        return false;
    }
    for (i, a) in stages.iter().enumerate() {
        if stages[..i].iter().any(|b| b.resource == a.resource) {
            return false;
        }
    }
    true
}

/// Runs a [`shardable`] spec sharded by pipeline stage: one shard
/// (and, with `workers > 1`, one thread) per stage, chained by bounded
/// hand-off channels, merged into a [`SimResult`] identical to the
/// serial loop's on the same inputs (see the module docs for the
/// determinism argument).
///
/// `workers` is a parallelism *cap*, not a shard count: `0` resolves
/// to the machine's available parallelism, `1` runs the shards
/// sequentially on the calling thread (buffering each boundary), and
/// anything higher runs one thread per stage. The result never depends
/// on `workers`.
pub(crate) fn run(inputs: Inputs<'_>, workers: usize) -> SimResult {
    // simlint: allow(shard-nondet) -- worker count only picks the execution strategy
    let workers = if workers == 0 {
        // simlint: allow(shard-nondet) -- sizes the thread pool only; per-shard
        // results are computed independently and merged in shard order, so the
        // merged output is invariant to how many workers ran (checked by the
        // sharded == serial proptest for every worker count).
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        workers
    };
    // simlint: allow(shard-nondet) -- sequential vs threaded produce identical
    // shard outcomes; the branch only avoids thread spawn overhead at 1 worker.
    let outcomes = if workers <= 1 {
        run_sequential(inputs)
    } else {
        run_threaded(inputs)
    };
    merge(inputs.spec, inputs.arrivals, outcomes)
}

fn run_sequential(inputs: Inputs<'_>) -> Vec<RunTotals> {
    let stages = inputs.spec.stages().len();
    let mut outcomes = Vec::with_capacity(stages);
    let mut carry: Option<Vec<Tuple>> = None;
    for stage in 0..stages {
        let last = stage + 1 == stages;
        let mut sink = VecSink::default();
        let out: Option<&mut dyn ShardSink> = if last { None } else { Some(&mut sink) };
        let sim = Sim::new_shard(inputs, stage, out);
        let outcome = match carry.take() {
            None => sim.run_shard(stage, None),
            Some(buf) => {
                let mut src = VecSource {
                    iter: buf.into_iter(),
                };
                sim.run_shard(stage, Some(&mut src))
            }
        };
        outcomes.push(outcome);
        if !last {
            carry = Some(sink.buf);
        }
    }
    outcomes
}

fn run_threaded(inputs: Inputs<'_>) -> Vec<RunTotals> {
    let stages = inputs.spec.stages().len();
    // One bounded channel per stage boundary, wired up front.
    let mut txs = Vec::with_capacity(stages - 1);
    let mut rxs = Vec::with_capacity(stages - 1);
    for _ in 0..stages - 1 {
        let (tx, rx) = mpsc::sync_channel(CHANNEL_CHUNKS);
        txs.push(tx);
        rxs.push(rx);
    }
    let mut txs = txs.into_iter();
    let mut rxs = rxs.into_iter();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(stages);
        for stage in 0..stages {
            let last = stage + 1 == stages;
            let tx = if last { None } else { txs.next() };
            let input_rx = if stage == 0 { None } else { rxs.next() };
            handles.push(scope.spawn(move || {
                let mut sink = tx.map(ChanSink::new);
                let out = sink.as_mut().map(|s| s as &mut dyn ShardSink);
                let sim = Sim::new_shard(inputs, stage, out);
                let outcome = match input_rx {
                    None => sim.run_shard(stage, None),
                    Some(rx) => {
                        let mut src = ChanSource::new(rx);
                        sim.run_shard(stage, Some(&mut src))
                    }
                };
                if let Some(sink) = sink {
                    sink.finish();
                }
                outcome
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("stage shard panicked"))
            .collect()
    })
}

/// Deterministic merge of the per-stage shard outcomes into the run's
/// totals, assembled exactly as the serial loop assembles its own.
fn merge(
    spec: &PipelineSpec,
    arrivals: &dyn ArrivalProcess,
    mut outcomes: Vec<RunTotals>,
) -> SimResult {
    let arrival_span = outcomes[0].arrival_span;
    let last_time = outcomes.iter().fold(0.0f64, |m, o| m.max(o.last_time));
    let launches: u64 = outcomes.iter().map(|o| o.launches).sum();
    let served: u64 = outcomes.iter().map(|o| o.served).sum();
    // Each replica slot is owned by exactly one shard (distinct stage
    // groups), so the element-wise sum recovers the serial loop's
    // per-slot busy integrals bit for bit.
    let num_slots = outcomes[0].busy_unit_seconds.len();
    let mut busy_unit_seconds = vec![0.0f64; num_slots];
    for o in &outcomes {
        for (total, &b) in busy_unit_seconds.iter_mut().zip(&o.busy_unit_seconds) {
            *total += b;
        }
    }
    let tail = outcomes.pop().expect("at least one shard ran");
    let totals = RunTotals {
        busy_unit_seconds,
        last_time,
        launches,
        served,
        arrival_span,
        ..tail
    };
    // Eligibility guarantees an open loop, so the rate-overload term
    // always applies.
    let rate_overload = arrivals.mean_rate() > spec.max_qps_at_full_batch();
    totals.into_result(spec, rate_overload)
}
