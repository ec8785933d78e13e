//! Sharded parallel execution of the lifecycle-free event loop.
//!
//! A chained pipeline whose stages use pairwise-distinct resource
//! groups only couples stages in one direction: a stage-`k` completion
//! at time `t` becomes a stage-`k+1` arrival at the same `t`. That
//! makes the serial event loop decomposable by stage: each stage runs
//! as its own shard (its own event queue, replica queues, batches, and
//! router state) and hands finished queries downstream in chunks.
//!
//! One driver ([`run`]) serves every worker count. A shard is
//! resumable: [`Sim::advance`] steps it until it finishes, runs out of
//! input, or holds a chunk of hand-offs in its outbox. Each of
//! `min(workers, stages)` threads owns a contiguous run of shards and
//! steps them in turn. Inside a thread an outbox becomes the next
//! shard's inbox; between threads chunks cross a bounded channel. The
//! last run steps on the calling thread, so one worker interleaves
//! every shard there and spawns nothing.
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
//!   launch and break the strict inequality. A shard whose inbox is
//!   empty but open runs an internal event only at or before the last
//!   hand-off it took in (the *inbox horizon*), since every later
//!   hand-off arrives no earlier; nothing it holds then is that early,
//!   so it waits for the next chunk.
//! * **RNG stream splitting.** Router state is seeded per resource
//!   group (`seed ^ group * 0x9e37…`), never shared across groups, so
//!   each shard derives its group's generator from the *global* group
//!   index and draws the identical stream the serial loop would.
//!
//! Floating-point accumulation order is also preserved: every per-slot
//! quantity (busy seconds, estimator columns) is updated by the one
//! shard owning that slot in its serial order. Only the last stage's
//! shard completes queries, so it records every latency and completion
//! time, and the merge takes its collector and counts whole.
//!
//! Specs the decomposition cannot handle fall back to the serial loop
//! (same results, one thread): single-stage pipelines, stages sharing
//! a resource group (one slot would need two owners), closed-loop
//! arrivals (completions feed back to admissions, coupling tail to
//! head), and non-positive service times. Scenarios with any optional
//! runtime (lifecycle, autoscaling, multi-path, resilience) are always
//! serial.
//!
//! # Memory
//!
//! A thread always steps its deepest shard that can move, so a
//! boundary inside a thread holds one chunk: the downstream shard takes
//! all of it in before its upstream steps again, and the two shards
//! swap buffers. A boundary between threads holds up to
//! [`CHANNEL_CHUNKS`] chunks in its channel, plus the chunk being filled
//! and the one being taken in. A chunk holds at most [`CHUNK`]
//! hand-offs plus one batch, 24 bytes each, in a buffer that never
//! regrows.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, SyncSender};

use recpipe_data::ArrivalProcess;

use crate::sim::{Handoff, Inputs, RunTotals, Sim};
use crate::{PipelineSpec, SimResult};

/// Hand-offs per chunk: large enough to amortize a channel send and a
/// switch between shards, small enough to keep the stage pipeline
/// primed.
const CHUNK: usize = 4096;
/// Bounded channel depth in chunks (~256k queries of slack per thread
/// boundary) — backpressure without unbounded buffering.
const CHANNEL_CHUNKS: usize = 64;

/// Hand-offs in upstream emission order (nondecreasing time).
type Chunk = VecDeque<Handoff>;

/// One stage shard on the thread that steps it.
struct Shard<'a> {
    stage: usize,
    sim: Sim<'a>,
    /// Hand-offs from the upstream shard not yet taken in.
    inbox: Chunk,
    /// The upstream shard finished: no hand-off will join `inbox`.
    closed: bool,
    /// Stepping the shard can move it: it has input it has not taken
    /// in, its input just closed, or it stopped on a full outbox.
    ready: bool,
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

/// Runs a [`shardable`] spec sharded by pipeline stage, one shard per
/// stage on at most `workers` threads (`0`: the machine's available
/// parallelism), merged into a [`SimResult`] identical to the serial
/// loop's on the same inputs (see the module docs for the determinism
/// argument). The result never depends on `workers`.
pub(crate) fn run(inputs: Inputs<'_>, workers: usize) -> SimResult {
    // simlint: allow(shard-nondet) -- worker count only sizes the thread pool
    let workers = if workers == 0 {
        // simlint: allow(shard-nondet) -- sizes the thread pool only; per-shard
        // results are computed independently and merged in shard order, so the
        // merged output is invariant to how many workers ran (checked by the
        // sharded == serial proptest for every worker count).
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        workers
    };
    drive(inputs, workers, CHUNK)
}

/// Steps the shards on `min(workers, stages)` threads, each owning a
/// contiguous run of stages: the calling thread steps the last run and
/// spawns one thread per other run, chained by bounded channels.
fn drive(inputs: Inputs<'_>, workers: usize, chunk: usize) -> SimResult {
    let stages = inputs.spec.stages().len();
    let threads = workers.clamp(1, stages);
    let run_of = |t: usize| t * stages / threads..(t + 1) * stages / threads;
    let outcomes = std::thread::scope(|scope| {
        let mut input = None;
        let mut spawned = Vec::with_capacity(threads - 1);
        for t in 0..threads - 1 {
            let (tx, rx) = mpsc::sync_channel(CHANNEL_CHUNKS);
            let (run, input) = (run_of(t), input.replace(rx));
            spawned.push(scope.spawn(move || step_run(inputs, run, input, Some(tx), chunk)));
        }
        let last = step_run(inputs, run_of(threads - 1), input, None, chunk);
        spawned
            .into_iter()
            .flat_map(|h| h.join().expect("stage shard panicked"))
            .chain(last)
            .collect()
    });
    merge(inputs.spec, inputs.arrivals, outcomes)
}

/// Steps the shards of `stages` on this thread until the last of them
/// finishes, and returns their totals in stage order. `input` brings
/// the first shard's hand-offs from the thread before (`None` for the
/// head shard, which stages its own arrivals); `output` takes the last
/// shard's hand-offs to the thread after (`None` for the final stage).
fn step_run(
    inputs: Inputs<'_>,
    stages: Range<usize>,
    input: Option<Receiver<Chunk>>,
    output: Option<SyncSender<Chunk>>,
    chunk: usize,
) -> Vec<RunTotals> {
    let mut shards: Vec<Shard<'_>> = stages
        .map(|stage| Shard {
            stage,
            sim: Sim::new_shard(inputs, stage),
            inbox: Chunk::new(),
            closed: stage == 0,
            ready: stage == 0,
        })
        .collect();
    loop {
        // Step the deepest shard that can move: every later one has
        // taken in all its input, so its inbox is free for this one's
        // outbox.
        let Some(i) = shards.iter().rposition(|s| s.ready) else {
            // Every shard here waits on the thread before.
            let first = &mut shards[0];
            match input.as_ref().and_then(|rx| rx.recv().ok()) {
                Some(hand_offs) => first.inbox = hand_offs,
                None => first.closed = true,
            }
            first.ready = true;
            continue;
        };
        let (upstream, downstream) = shards.split_at_mut(i + 1);
        let shard = &mut upstream[i];
        let finished = shard
            .sim
            .advance(shard.stage, &mut shard.inbox, shard.closed, chunk);
        // Unless it finished or ran out of input, the shard stopped on a
        // full outbox and moves again once that is taken.
        shard.ready = false;
        if let Some(out) = shard.sim.outbox() {
            shard.ready = !finished && out.len() >= chunk;
            if let Some(next) = downstream.first_mut() {
                if finished || !out.is_empty() {
                    debug_assert!(next.inbox.is_empty(), "a waiting shard took in its input");
                    std::mem::swap(out, &mut next.inbox);
                    next.closed = finished;
                    next.ready = true;
                }
            } else if let Some(tx) = output.as_ref() {
                if shard.ready || (finished && !out.is_empty()) {
                    // A send fails only if the downstream thread
                    // panicked; its join reports that.
                    let _ = tx.send(std::mem::take(out));
                }
            }
        }
        if finished && downstream.is_empty() {
            return shards.iter_mut().map(|s| s.sim.totals()).collect();
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchModel, Fifo, JoinShortestQueue, ReplicaGroup, RoundRobin, Router, StageSpec};
    use recpipe_data::MmppArrivals;

    #[test]
    fn every_thread_count_and_chunk_size_replays_the_serial_loop() {
        // 3,000 queries span many chunks, so shards stop mid-run and
        // resume, and a thread owning two shards (two threads, three
        // stages) interleaves them. Equal service times make same-time
        // ties between a shard's own completions and incoming hand-offs
        // common: a stage-k batch and a stage-(k+1) batch launched at
        // one instant finish at one instant.
        let mut spec = PipelineSpec::new(vec![
            ReplicaGroup::replicated("a", 1, 2),
            ReplicaGroup::replicated("b", 1, 2),
            ReplicaGroup::replicated("c", 1, 2),
        ]);
        for g in 0..3 {
            let stage = StageSpec::new(format!("s{g}"), g, 1, 0.002);
            spec = spec
                .with_stage(stage.with_batch(BatchModel::new(4, 0.25)))
                .unwrap();
        }
        let arrivals = MmppArrivals::new(300.0, 1500.0, 0.2, 0.1);
        let routers: [&dyn Router; 2] = [&RoundRobin, &JoinShortestQueue];
        for router in routers {
            for seed in 0..4 {
                let inputs = Inputs {
                    spec: &spec,
                    arrivals: &arrivals,
                    policy: &Fifo,
                    router,
                    num_queries: 3_000,
                    seed,
                };
                let serial = Sim::new(inputs).run().unwrap();
                for workers in 1..=3 {
                    for chunk in [1, 2, 7, CHUNK] {
                        assert_eq!(
                            drive(inputs, workers, chunk),
                            serial,
                            "{} seed {seed}, {workers} threads, chunk {chunk}",
                            router.name()
                        );
                    }
                }
            }
        }
    }
}
