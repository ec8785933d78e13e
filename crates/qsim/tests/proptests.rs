//! Property-based tests for the discrete-event queueing simulator:
//! conservation invariants across arrivals, policies, and batch models,
//! plus bit-for-bit equivalence with the pre-batching simulator.

use proptest::prelude::*;
use recpipe_data::{ClosedLoopArrivals, MmppArrivals, PoissonArrivals};
use recpipe_qsim::{
    serve_lifecycle, serve_resilient, serve_routed, serve_routed_sharded, AdmissionPolicy,
    AlwaysPrimary, AutoscaleConfig, BatchModel, BatchWindow, DeadlineAware, EarliestDeadlineFirst,
    ExpectedWait, FailurePolicy, FaultPlan, Fifo, FleetController, HedgePolicy, JoinShortestQueue,
    LeastWorkLeft, LifecycleConfig, LifecycleEvent, LifecycleSchedule, LoadAdaptive, PathSet,
    PipelineSpec, PowerOfTwoChoices, ReplicaGroup, ReplicaProfile, ResilienceConfig, RetryBudget,
    RetryPolicy, RoundRobin, Router, Scenario, SchedulingPolicy, StageSpec, Sticky, WindowStats,
};

fn pipeline(servers: usize, stages: Vec<f64>) -> PipelineSpec {
    let mut spec = PipelineSpec::new(vec![ReplicaGroup::new("pool", servers)]);
    for (i, s) in stages.into_iter().enumerate() {
        spec = spec
            .with_stage(StageSpec::new(format!("s{i}"), 0, 1, s))
            .unwrap();
    }
    spec
}

fn batched_pipeline(servers: usize, stages: Vec<f64>, max_batch: usize) -> PipelineSpec {
    let mut spec = PipelineSpec::new(vec![ReplicaGroup::new("pool", servers)]);
    for (i, s) in stages.into_iter().enumerate() {
        spec = spec
            .with_stage(
                StageSpec::new(format!("s{i}"), 0, 1, s)
                    .with_batch(BatchModel::new(max_batch, 0.25)),
            )
            .unwrap();
    }
    spec
}

fn policy_for(idx: usize) -> Box<dyn SchedulingPolicy> {
    match idx % 3 {
        0 => Box::new(Fifo),
        1 => Box::new(BatchWindow::new(0.002)),
        _ => Box::new(EarliestDeadlineFirst::new(0.05)),
    }
}

fn router_for(idx: usize) -> Box<dyn Router> {
    match idx % 4 {
        0 => Box::new(RoundRobin),
        1 => Box::new(JoinShortestQueue),
        2 => Box::new(PowerOfTwoChoices),
        _ => Box::new(LeastWorkLeft),
    }
}

/// The post-redesign router set: the PR-4 four plus the speed-aware
/// and affinity routers the heterogeneous-fleet properties rotate in.
fn router_for_v4(idx: usize) -> Box<dyn Router> {
    match idx % 6 {
        4 => Box::new(ExpectedWait),
        5 => Box::new(Sticky),
        other => router_for(other),
    }
}

fn replicated_pipeline(
    replicas: usize,
    capacity: usize,
    stages: Vec<f64>,
    max_batch: usize,
) -> PipelineSpec {
    let mut spec = PipelineSpec::new(vec![ReplicaGroup::replicated("fleet", capacity, replicas)]);
    for (i, s) in stages.into_iter().enumerate() {
        spec = spec
            .with_stage(
                StageSpec::new(format!("s{i}"), 0, 1, s)
                    .with_batch(BatchModel::new(max_batch, 0.25)),
            )
            .unwrap();
    }
    spec
}

/// The pre-refactor simulator, frozen verbatim (modulo the removed
/// warmup/stats code it shares with the new one): Poisson arrivals,
/// per-query service, FIFO admission with head-of-line blocking.
/// The equivalence property below pins plain scenarios to this behavior.
mod reference {
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, VecDeque};

    use recpipe_data::PoissonProcess;
    use recpipe_metrics::{LatencyStats, ThroughputMeter};
    use recpipe_qsim::{PipelineSpec, SimResult};
    use std::time::Duration;

    const WARMUP_FRACTION: f64 = 0.05;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum EventKind {
        Arrive { query: usize, stage: usize },
        Complete { query: usize, stage: usize },
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Event {
        time: f64,
        seq: u64,
        kind: EventKind,
    }

    impl Eq for Event {}

    impl Ord for Event {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .partial_cmp(&self.time)
                .unwrap_or(Ordering::Equal)
                .then(other.seq.cmp(&self.seq))
        }
    }

    impl PartialOrd for Event {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    pub fn simulate(spec: &PipelineSpec, qps: f64, num_queries: usize, seed: u64) -> SimResult {
        let stages = spec.stages();
        let resources = spec.resources();

        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq: u64 = 0;

        let arrivals: Vec<f64> = PoissonProcess::new(qps, seed).take(num_queries).collect();
        for (query, &t) in arrivals.iter().enumerate() {
            heap.push(Event {
                time: t,
                seq,
                kind: EventKind::Arrive { query, stage: 0 },
            });
            seq += 1;
        }

        let mut free: Vec<usize> = resources.iter().map(|r| r.capacity()).collect();
        let mut waiting: Vec<VecDeque<(usize, usize)>> =
            resources.iter().map(|_| VecDeque::new()).collect();
        let mut busy_unit_seconds: Vec<f64> = vec![0.0; resources.len()];

        let mut finish_time: Vec<f64> = vec![f64::NAN; num_queries];
        let mut completed = 0usize;
        let mut last_time = 0.0f64;

        let start_service = |query: usize,
                             stage_idx: usize,
                             now: f64,
                             free: &mut [usize],
                             heap: &mut BinaryHeap<Event>,
                             seq: &mut u64,
                             busy: &mut [f64]| {
            let stage = &stages[stage_idx];
            free[stage.resource] -= stage.units;
            busy[stage.resource] += stage.units as f64 * stage.service_time;
            heap.push(Event {
                time: now + stage.service_time,
                seq: *seq,
                kind: EventKind::Complete {
                    query,
                    stage: stage_idx,
                },
            });
            *seq += 1;
        };

        while let Some(event) = heap.pop() {
            let now = event.time;
            last_time = now;
            match event.kind {
                EventKind::Arrive { query, stage } => {
                    let s = &stages[stage];
                    if free[s.resource] >= s.units {
                        start_service(
                            query,
                            stage,
                            now,
                            &mut free,
                            &mut heap,
                            &mut seq,
                            &mut busy_unit_seconds,
                        );
                    } else {
                        waiting[s.resource].push_back((query, stage));
                    }
                }
                EventKind::Complete { query, stage } => {
                    let s = &stages[stage];
                    free[s.resource] += s.units;

                    if stage + 1 < stages.len() {
                        heap.push(Event {
                            time: now,
                            seq,
                            kind: EventKind::Arrive {
                                query,
                                stage: stage + 1,
                            },
                        });
                        seq += 1;
                    } else {
                        finish_time[query] = now;
                        completed += 1;
                    }

                    let queue = &mut waiting[s.resource];
                    let mut admitted = true;
                    while admitted {
                        admitted = false;
                        if let Some(&(q, st)) = queue.front() {
                            if free[stages[st].resource] >= stages[st].units {
                                queue.pop_front();
                                start_service(
                                    q,
                                    st,
                                    now,
                                    &mut free,
                                    &mut heap,
                                    &mut seq,
                                    &mut busy_unit_seconds,
                                );
                                admitted = true;
                            }
                        }
                    }
                }
            }
        }

        let warmup = ((num_queries as f64) * WARMUP_FRACTION) as usize;
        let mut latency = LatencyStats::with_capacity(num_queries.saturating_sub(warmup));
        let mut throughput = ThroughputMeter::new();
        for (query, (&arrive, &finish)) in arrivals.iter().zip(finish_time.iter()).enumerate() {
            if finish.is_nan() {
                continue;
            }
            throughput.record_completion(Duration::from_secs_f64(finish));
            if query >= warmup {
                latency.record_secs(finish - arrive);
            }
        }

        let span = last_time.max(f64::MIN_POSITIVE);
        let utilization: Vec<f64> = busy_unit_seconds
            .iter()
            .zip(resources.iter())
            .map(|(&busy, r)| (busy / (r.capacity() as f64 * span)).min(1.0))
            .collect();

        let arrival_span = arrivals.last().copied().unwrap_or(0.0);
        let saturated =
            qps > spec.max_qps() || last_time > arrival_span * 1.5 + spec.service_floor();

        SimResult::new(latency, throughput.qps(), completed, saturated, utilization)
    }
}

/// The PR-3 cluster-aware event loop, frozen verbatim before the PR-4
/// hot-loop rewrite (per-launch `Vec` allocations, snapshot-based
/// routing, stale timer events that still dispatch, an append-only
/// batch table). The equivalence property below pins the optimized
/// loop to this behavior bit-for-bit across every router x policy x
/// replica-count x batching combination.
mod reference_routed {
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, VecDeque};
    use std::time::Duration;

    use recpipe_data::ArrivalProcess;
    use recpipe_metrics::{LatencyStats, ThroughputMeter};
    use recpipe_qsim::{
        PipelineSpec, QueueEntry, Release, ReplicaLoads, Router, RouterState, RoutingCtx,
        SchedulingPolicy, SimResult, StageSpec,
    };

    const WARMUP_FRACTION: f64 = 0.05;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum EventKind {
        Arrive { query: usize, stage: usize },
        Complete { batch: usize },
        Recheck { slot: usize },
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Event {
        time: f64,
        seq: u64,
        kind: EventKind,
    }

    impl Eq for Event {}

    impl Ord for Event {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .partial_cmp(&self.time)
                .unwrap_or(Ordering::Equal)
                .then(other.seq.cmp(&self.seq))
        }
    }

    impl PartialOrd for Event {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    #[derive(Debug, Clone)]
    struct Batch {
        stage: usize,
        slot: usize,
        queries: BatchQueries,
    }

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

    pub fn serve_routed(
        spec: &PipelineSpec,
        arrivals: &dyn ArrivalProcess,
        policy: &dyn SchedulingPolicy,
        router: &dyn Router,
        num_queries: usize,
        seed: u64,
    ) -> SimResult {
        assert!(!spec.stages().is_empty(), "pipeline has no stages");
        assert!(num_queries > 0, "need at least one query");
        Sim::new(spec, arrivals, policy, router, num_queries, seed).run()
    }

    struct Sim<'a> {
        spec: &'a PipelineSpec,
        stages: &'a [StageSpec],
        policy: &'a dyn SchedulingPolicy,
        arrivals: &'a dyn ArrivalProcess,
        router: &'a dyn Router,
        num_queries: usize,
        heap: BinaryHeap<Event>,
        seq: u64,
        arrival_time: Vec<f64>,
        slot_base: Vec<usize>,
        group_replicas: Vec<usize>,
        free: Vec<usize>,
        waiting: Vec<VecDeque<QueueEntry>>,
        in_flight: Vec<usize>,
        armed: Vec<Option<f64>>,
        busy_unit_seconds: Vec<f64>,
        router_states: Vec<RouterState>,
        queued: Vec<usize>,
        batches: Vec<Batch>,
        finish_time: Vec<f64>,
        completed: usize,
        last_time: f64,
        launches: u64,
        served: u64,
        next_inject: usize,
        think_time_s: Option<f64>,
        work_conserving: bool,
    }

    impl<'a> Sim<'a> {
        fn new(
            spec: &'a PipelineSpec,
            arrivals: &'a dyn ArrivalProcess,
            policy: &'a dyn SchedulingPolicy,
            router: &'a dyn Router,
            num_queries: usize,
            seed: u64,
        ) -> Self {
            let resources = spec.resources();
            let mut slot_base = Vec::with_capacity(resources.len());
            let mut free = Vec::new();
            for r in resources.iter() {
                slot_base.push(free.len());
                for _ in 0..r.replicas() {
                    free.push(r.capacity());
                }
            }
            let num_slots = free.len();
            let mut sim = Self {
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
                group_replicas: resources.iter().map(|r| r.replicas()).collect(),
                free,
                waiting: vec![VecDeque::new(); num_slots],
                in_flight: vec![0; num_slots],
                armed: vec![None; num_slots],
                busy_unit_seconds: vec![0.0; num_slots],
                router_states: (0..resources.len() as u64)
                    .map(|g| RouterState::new(seed ^ g.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
                    .collect(),
                queued: Vec::new(),
                batches: Vec::new(),
                finish_time: vec![f64::NAN; num_queries],
                completed: 0,
                last_time: 0.0,
                launches: 0,
                served: 0,
                next_inject: 0,
                think_time_s: None,
                work_conserving: policy.admit_on_arrival(),
            };

            let initial = match arrivals.closed_loop() {
                Some(cl) => {
                    sim.think_time_s = Some(cl.think_time_s);
                    cl.clients.min(num_queries)
                }
                None => num_queries,
            };
            for (query, t) in arrivals.times(initial, seed).into_iter().enumerate() {
                sim.inject(query, t);
            }
            sim.next_inject = initial;
            sim
        }

        fn inject(&mut self, query: usize, t: f64) {
            self.arrival_time[query] = t;
            self.heap.push(Event {
                time: t,
                seq: self.seq,
                kind: EventKind::Arrive { query, stage: 0 },
            });
            self.seq += 1;
        }

        fn route(&mut self, query: usize, stage_idx: usize) -> usize {
            let group = self.stages[stage_idx].resource;
            let base = self.slot_base[group];
            let replicas = self.group_replicas[group];
            if replicas == 1 {
                return base;
            }
            self.queued.clear();
            for slot in base..base + replicas {
                self.queued.push(self.waiting[slot].len());
            }
            // Counter-only loads: no estimates, so remaining work reads
            // 0.0 and speed 1.0 — the PR-3 router view.
            let loads = ReplicaLoads::new(
                &self.queued,
                &self.in_flight[base..base + replicas],
                &self.free[base..base + replicas],
            );
            // The PR-3 router set never reads the routing context; a
            // history-free root context satisfies the new signature.
            let ctx = RoutingCtx::root(query, stage_idx, group);
            let pick = self
                .router
                .route(&loads, &ctx, &mut self.router_states[group]);
            assert!(
                pick < replicas,
                "router returned replica {pick} of {replicas}"
            );
            base + pick
        }

        fn launch(&mut self, now: f64, stage_idx: usize, slot: usize, queries: BatchQueries) {
            let stage = &self.stages[stage_idx];
            self.free[slot] -= stage.units;
            self.in_flight[slot] += queries.len();
            let service = stage.batch_service_time(queries.len());
            self.busy_unit_seconds[slot] += stage.units as f64 * service;
            self.launches += 1;
            self.served += queries.len() as u64;
            let batch = self.batches.len();
            self.batches.push(Batch {
                stage: stage_idx,
                slot,
                queries,
            });
            self.heap.push(Event {
                time: now + service,
                seq: self.seq,
                kind: EventKind::Complete { batch },
            });
            self.seq += 1;
        }

        fn enqueue(&mut self, slot: usize, entry: QueueEntry) {
            let p = self.policy.priority(&entry);
            let queue = &mut self.waiting[slot];
            let mut at = queue.len();
            while at > 0 {
                let prev = self.policy.priority(&queue[at - 1]);
                if prev.partial_cmp(&p) != Some(Ordering::Greater) {
                    break;
                }
                at -= 1;
            }
            queue.insert(at, entry);
        }

        fn take_same_stage(&mut self, slot: usize, stage: usize, limit: usize) -> Vec<usize> {
            let queue = &mut self.waiting[slot];
            let mut picks: Vec<usize> = Vec::with_capacity(limit.min(queue.len()));
            for i in 0..queue.len() {
                if queue[i].stage == stage {
                    picks.push(i);
                    if picks.len() == limit {
                        break;
                    }
                }
            }
            let queries: Vec<usize> = picks.iter().map(|&i| queue[i].query).collect();
            for &i in picks.iter().rev() {
                queue.remove(i);
            }
            queries
        }

        fn take_one_same_stage(&mut self, slot: usize, stage: usize) -> Option<usize> {
            let queue = &mut self.waiting[slot];
            let at = queue.iter().position(|e| e.stage == stage)?;
            queue.remove(at).map(|e| e.query)
        }

        fn head_of(&self, slot: usize) -> Option<QueueEntry> {
            self.waiting[slot].front().copied()
        }

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
                        if self.armed[slot].is_none_or(|armed| t < armed) {
                            self.armed[slot] = Some(t);
                            self.heap.push(Event {
                                time: t,
                                seq: self.seq,
                                kind: EventKind::Recheck { slot },
                            });
                            self.seq += 1;
                        }
                        return;
                    }
                    Release::At(_) => {
                        let queries = self.take_batch(slot, head.stage, ready);
                        self.launch(now, head.stage, slot, queries);
                    }
                }
            }
        }

        fn take_batch(&mut self, slot: usize, stage: usize, ready: usize) -> BatchQueries {
            if ready == 1 {
                BatchQueries::One(
                    self.take_one_same_stage(slot, stage)
                        .expect("ready entry exists"),
                )
            } else {
                BatchQueries::Many(self.take_same_stage(slot, stage, ready))
            }
        }

        fn on_arrive(&mut self, now: f64, query: usize, stage_idx: usize) {
            let slot = self.route(query, stage_idx);
            let stage = &self.stages[stage_idx];
            let entry = QueueEntry {
                query,
                stage: stage_idx,
                arrived: self.arrival_time[query],
                enqueued: now,
                seq: self.seq,
            };
            self.seq += 1;
            if self.work_conserving && self.free[slot] >= stage.units {
                let mut batch = Vec::new();
                if stage.batch.max_batch > 1 {
                    batch = self.take_same_stage(slot, stage_idx, stage.batch.max_batch - 1);
                }
                let queries = if batch.is_empty() {
                    BatchQueries::One(query)
                } else {
                    batch.insert(0, query);
                    BatchQueries::Many(batch)
                };
                self.launch(now, stage_idx, slot, queries);
            } else {
                self.enqueue(slot, entry);
                if !self.work_conserving {
                    self.dispatch(now, slot);
                }
            }
        }

        fn on_complete(&mut self, now: f64, batch: usize) {
            let Batch {
                stage,
                slot,
                queries,
            } = std::mem::replace(
                &mut self.batches[batch],
                Batch {
                    stage: 0,
                    slot: 0,
                    queries: BatchQueries::One(0),
                },
            );
            let s = &self.stages[stage];
            self.free[slot] += s.units;
            self.in_flight[slot] -= queries.len();

            match queries {
                BatchQueries::One(query) => self.route_onward(now, query, stage),
                BatchQueries::Many(queries) => {
                    for query in queries {
                        self.route_onward(now, query, stage);
                    }
                }
            }
            self.dispatch(now, slot);
        }

        fn route_onward(&mut self, now: f64, query: usize, stage: usize) {
            if stage + 1 < self.stages.len() {
                self.heap.push(Event {
                    time: now,
                    seq: self.seq,
                    kind: EventKind::Arrive {
                        query,
                        stage: stage + 1,
                    },
                });
                self.seq += 1;
            } else {
                self.finish_time[query] = now;
                self.completed += 1;
                if let Some(think) = self.think_time_s {
                    if self.next_inject < self.num_queries {
                        let q = self.next_inject;
                        self.next_inject += 1;
                        self.inject(q, now + think);
                    }
                }
            }
        }

        fn run(mut self) -> SimResult {
            while let Some(event) = self.heap.pop() {
                let now = event.time;
                match event.kind {
                    EventKind::Arrive { query, stage } => {
                        self.last_time = now;
                        self.on_arrive(now, query, stage);
                    }
                    EventKind::Complete { batch } => {
                        self.last_time = now;
                        self.on_complete(now, batch);
                    }
                    EventKind::Recheck { slot } => {
                        if self.armed[slot] == Some(now) {
                            self.armed[slot] = None;
                        }
                        self.dispatch(now, slot);
                    }
                }
            }
            self.finish()
        }

        fn finish(self) -> SimResult {
            let warmup = ((self.num_queries as f64) * WARMUP_FRACTION) as usize;
            let mut latency = LatencyStats::with_capacity(self.num_queries.saturating_sub(warmup));
            let mut throughput = ThroughputMeter::new();
            let mut arrival_span = 0.0f64;
            for (query, (&arrive, &finish)) in self
                .arrival_time
                .iter()
                .zip(self.finish_time.iter())
                .enumerate()
            {
                if arrive.is_finite() {
                    arrival_span = arrival_span.max(arrive);
                }
                if finish.is_nan() {
                    continue;
                }
                throughput.record_completion(Duration::from_secs_f64(finish));
                if query >= warmup {
                    latency.record_secs(finish - arrive);
                }
            }

            let span = self.last_time.max(f64::MIN_POSITIVE);
            let resources = self.spec.resources();
            let utilization: Vec<f64> = resources
                .iter()
                .enumerate()
                .map(|(g, r)| {
                    let base = self.slot_base[g];
                    let busy: f64 = self.busy_unit_seconds[base..base + r.replicas()]
                        .iter()
                        .sum();
                    (busy / (r.total_units() as f64 * span)).min(1.0)
                })
                .collect();
            let replica_utilization: Vec<Vec<f64>> = if self.spec.has_replication() {
                resources
                    .iter()
                    .enumerate()
                    .map(|(g, r)| {
                        let base = self.slot_base[g];
                        self.busy_unit_seconds[base..base + r.replicas()]
                            .iter()
                            .map(|&busy| (busy / (r.capacity() as f64 * span)).min(1.0))
                            .collect()
                    })
                    .collect()
            } else {
                Vec::new()
            };

            let offered = self.arrivals.mean_rate();
            let rate_overload =
                self.think_time_s.is_none() && offered > self.spec.max_qps_at_full_batch();
            let saturated =
                rate_overload || self.last_time > arrival_span * 1.5 + self.spec.service_floor();

            let mean_batch = if self.launches > 0 {
                self.served as f64 / self.launches as f64
            } else {
                1.0
            };
            SimResult::new(
                latency,
                throughput.qps(),
                self.completed,
                saturated,
                utilization,
            )
            .with_mean_batch(mean_batch)
            .with_replica_utilization(replica_utilization)
        }
    }
}

/// The PR-4 fast-path cluster loop, frozen verbatim before the
/// heterogeneous-fleet redesign (no per-replica speeds, no
/// remaining-work estimator arrays, no routing history), modulo the
/// accessor renames the redesign forced (`r.replicas()`/`r.capacity()`
/// for the old public fields) and the `RoutingCtx` parameter the
/// `Router` trait gained — this loop passes a history-free root
/// context, which the PR-4 router set never reads. The equivalence
/// property below pins the redesigned loop to this behavior bit-for-bit
/// on uniform (all speeds = 1.0) fleets across every PR-4 router x
/// policy x replica count x batching combination.
mod reference_pr4 {
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, VecDeque};
    use std::time::Duration;

    use recpipe_data::ArrivalProcess;
    use recpipe_metrics::{LatencyStats, ThroughputMeter};
    use recpipe_qsim::{
        PipelineSpec, QueueEntry, Release, ReplicaLoads, Router, RouterState, RoutingCtx,
        SchedulingPolicy, SimResult, StageSpec,
    };

    const WARMUP_FRACTION: f64 = 0.05;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum EventKind {
        /// Query `query` arrives at stage `stage` and joins its queue.
        Arrive { query: usize, stage: usize },
        /// Batch `batch` finishes service, releasing its units.
        Complete { batch: usize },
        /// A scheduling policy asked to re-examine replica slot `slot`.
        /// The event is live only while `gen` matches the slot's timer
        /// generation — superseded timers are cancelled lazily (skipped at
        /// pop) instead of scanned.
        Recheck { slot: usize, gen: u64 },
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Event {
        time: f64,
        seq: u64,
        kind: EventKind,
    }

    impl Eq for Event {}

    impl Ord for Event {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on (time, seq): BinaryHeap is a max-heap, so reverse.
            other
                .time
                .partial_cmp(&self.time)
                .unwrap_or(Ordering::Equal)
                .then(other.seq.cmp(&self.seq))
        }
    }

    impl PartialOrd for Event {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// An in-flight batch: the stage it runs, the replica slot holding its
    /// units, and the queries it carries.
    #[derive(Debug, Clone)]
    struct Batch {
        stage: usize,
        slot: usize,
        queries: BatchQueries,
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

    /// Runs the cluster-aware discrete-event simulation: `router` picks a
    /// replica per query at every stage, then `policy` schedules batches
    /// within each replica's private queue (batches never span replicas).
    ///
    /// # Panics
    ///
    /// Panics if the pipeline has no stages or `num_queries == 0`.
    pub fn serve_routed(
        spec: &PipelineSpec,
        arrivals: &dyn ArrivalProcess,
        policy: &dyn SchedulingPolicy,
        router: &dyn Router,
        num_queries: usize,
        seed: u64,
    ) -> SimResult {
        assert!(!spec.stages().is_empty(), "pipeline has no stages");
        assert!(num_queries > 0, "need at least one query");
        Sim::new(spec, arrivals, policy, router, num_queries, seed).run()
    }

    struct Sim<'a> {
        spec: &'a PipelineSpec,
        stages: &'a [StageSpec],
        policy: &'a dyn SchedulingPolicy,
        arrivals: &'a dyn ArrivalProcess,
        router: &'a dyn Router,
        num_queries: usize,
        heap: BinaryHeap<Event>,
        seq: u64,
        /// Absolute stage-0 arrival time per query (NaN until injected).
        arrival_time: Vec<f64>,
        /// First flattened replica slot of each resource group: replica `r`
        /// of group `g` lives at slot `slot_base[g] + r`. Single-replica
        /// pipelines flatten to one slot per group, reproducing the
        /// pre-cluster layout exactly.
        slot_base: Vec<usize>,
        /// Resource group owning each slot.
        slot_group: Vec<usize>,
        /// Replica count per group (cached off the spec for the hot path).
        group_replicas: Vec<usize>,
        /// Per-slot free units (router signal, maintained incrementally).
        free: Vec<usize>,
        /// Per-slot waiting entries, kept sorted by (policy priority,
        /// admission seq) — FIFO inserts are O(1) appends.
        waiting: Vec<VecDeque<QueueEntry>>,
        /// Per-slot waiting-entry counts, mirrored off `waiting` so router
        /// probes read one contiguous array (see [`ReplicaLoads`]).
        queued: Vec<usize>,
        /// Per-slot queries currently in service (the router's load signal).
        in_flight: Vec<usize>,
        /// Per-slot earliest armed policy recheck, if any.
        armed: Vec<Option<f64>>,
        /// Per-slot timer generation: bumped whenever a recheck is armed,
        /// so superseded `Recheck` events cancel lazily at pop.
        timer_gen: Vec<u64>,
        /// Busy unit-seconds per slot for utilization accounting.
        busy_unit_seconds: Vec<f64>,
        /// Per-group router state (round-robin cursors, probe RNG).
        router_states: Vec<RouterState>,
        /// In-flight batches, indexed by `Complete` events; completed slots
        /// are recycled through `free_batches` so the table stays at the
        /// concurrency high-water mark instead of growing per launch.
        batches: Vec<Batch>,
        /// Recyclable `batches` indices.
        free_batches: Vec<usize>,
        /// Spare query buffers recycled from completed multi-query batches.
        query_pool: Vec<Vec<usize>>,
        finish_time: Vec<f64>,
        completed: usize,
        last_time: f64,
        launches: u64,
        served: u64,
        /// Closed-loop state: next query index to inject, and think time.
        next_inject: usize,
        think_time_s: Option<f64>,
        /// Cached `policy.admit_on_arrival()` (consulted on every arrival).
        work_conserving: bool,
        /// Number of schedule-driven arrivals (the `times()` prefix; seqs
        /// `0..schedule_len` are reserved for them).
        schedule_len: usize,
        /// Whether the arrival schedule is staged lazily: one stage-0 event
        /// in the heap at a time, each pop staging its successor. Keeping
        /// the heap at the in-flight high-water mark instead of the full
        /// query count cuts every push/pop from `log(queries)` to
        /// `log(concurrency)`. Requires a nondecreasing schedule; unsorted
        /// traces fall back to eager staging, which is bit-identical
        /// because every schedule arrival's heap seq is preassigned to its
        /// query index either way.
        lazy_arrivals: bool,
    }

    impl<'a> Sim<'a> {
        fn new(
            spec: &'a PipelineSpec,
            arrivals: &'a dyn ArrivalProcess,
            policy: &'a dyn SchedulingPolicy,
            router: &'a dyn Router,
            num_queries: usize,
            seed: u64,
        ) -> Self {
            let resources = spec.resources();
            let mut slot_base = Vec::with_capacity(resources.len());
            let mut slot_group = Vec::new();
            let mut free = Vec::new();
            for (g, r) in resources.iter().enumerate() {
                slot_base.push(slot_group.len());
                for _ in 0..r.replicas() {
                    slot_group.push(g);
                    free.push(r.capacity());
                }
            }
            let num_slots = slot_group.len();
            let mut sim = Self {
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
                group_replicas: resources.iter().map(|r| r.replicas()).collect(),
                free,
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
                finish_time: vec![f64::NAN; num_queries],
                completed: 0,
                last_time: 0.0,
                launches: 0,
                served: 0,
                next_inject: 0,
                think_time_s: None,
                work_conserving: policy.admit_on_arrival(),
                schedule_len: 0,
                lazy_arrivals: false,
            };

            // Record the open-loop schedule up front; a closed loop starts
            // only its client population and derives the rest from
            // completions. Schedule arrival `q` always carries heap seq `q`
            // (the counter resumes at `initial`), so staging events lazily
            // or eagerly yields the same (time, seq) total order — the heap
            // just stays small in the lazy case.
            let initial = match arrivals.closed_loop() {
                Some(cl) => {
                    sim.think_time_s = Some(cl.think_time_s);
                    cl.clients.min(num_queries)
                }
                None => num_queries,
            };
            let times = arrivals.times(initial, seed);
            for (query, &t) in times.iter().enumerate() {
                sim.arrival_time[query] = t;
            }
            sim.seq = initial as u64;
            sim.schedule_len = initial;
            sim.lazy_arrivals = times.windows(2).all(|w| w[0] <= w[1]);
            if sim.lazy_arrivals {
                if let Some(&t0) = times.first() {
                    sim.heap.push(Event {
                        time: t0,
                        seq: 0,
                        kind: EventKind::Arrive { query: 0, stage: 0 },
                    });
                }
            } else {
                for (query, &t) in times.iter().enumerate() {
                    sim.heap.push(Event {
                        time: t,
                        seq: query as u64,
                        kind: EventKind::Arrive { query, stage: 0 },
                    });
                }
            }
            sim.next_inject = initial;
            sim
        }

        fn inject(&mut self, query: usize, t: f64) {
            self.arrival_time[query] = t;
            self.heap.push(Event {
                time: t,
                seq: self.seq,
                kind: EventKind::Arrive { query, stage: 0 },
            });
            self.seq += 1;
        }

        /// Routes a query arriving at `stage_idx` to one replica slot of
        /// the stage's resource group.
        ///
        /// Replicated groups go through [`Router::route`], probing
        /// the incrementally-maintained `queued`/`in_flight`/`free` counter
        /// arrays directly — no snapshot materialization per decision.
        fn route(&mut self, query: usize, stage_idx: usize) -> usize {
            let group = self.stages[stage_idx].resource;
            let base = self.slot_base[group];
            let replicas = self.group_replicas[group];
            if replicas == 1 {
                return base;
            }
            debug_assert!((base..base + replicas).all(|s| self.queued[s] == self.waiting[s].len()));
            let loads = ReplicaLoads::new(
                &self.queued[base..base + replicas],
                &self.in_flight[base..base + replicas],
                &self.free[base..base + replicas],
            );
            let ctx = RoutingCtx::root(query, stage_idx, group);
            let pick = self
                .router
                .route(&loads, &ctx, &mut self.router_states[group]);
            assert!(
                pick < replicas,
                "router returned replica {pick} of {replicas}"
            );
            base + pick
        }

        /// Launches a batch of same-stage entries on `slot` at `now`.
        fn launch(&mut self, now: f64, stage_idx: usize, slot: usize, queries: BatchQueries) {
            let stage = &self.stages[stage_idx];
            debug_assert_eq!(self.slot_group[slot], stage.resource);
            debug_assert!(self.free[slot] >= stage.units);
            debug_assert!(queries.len() >= 1 && queries.len() <= stage.batch.max_batch);
            self.free[slot] -= stage.units;
            self.in_flight[slot] += queries.len();
            let service = stage.batch_service_time(queries.len());
            self.busy_unit_seconds[slot] += stage.units as f64 * service;
            self.launches += 1;
            self.served += queries.len() as u64;
            let entry = Batch {
                stage: stage_idx,
                slot,
                queries,
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
                    self.batches.len() - 1
                }
            };
            self.heap.push(Event {
                time: now + service,
                seq: self.seq,
                kind: EventKind::Complete { batch },
            });
            self.seq += 1;
        }

        /// Inserts an entry into its slot queue at its (priority, seq)
        /// position. Priorities are static per entry, so the queue stays
        /// sorted; FIFO-ordered policies always append in O(1).
        fn enqueue(&mut self, slot: usize, entry: QueueEntry) {
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
        }

        /// Removes and returns the first waiting entry of `stage` — the
        /// single-query form of
        /// [`take_same_stage_into`](Self::take_same_stage_into).
        fn take_one_same_stage(&mut self, slot: usize, stage: usize) -> Option<usize> {
            let queue = &mut self.waiting[slot];
            let at = queue.iter().position(|e| e.stage == stage)?;
            let taken = queue.remove(at).map(|e| e.query);
            self.queued[slot] -= 1;
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
                            self.heap.push(Event {
                                time: t,
                                seq: self.seq,
                                kind: EventKind::Recheck {
                                    slot,
                                    gen: self.timer_gen[slot],
                                },
                            });
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
            let slot = self.route(query, stage_idx);
            let stage = &self.stages[stage_idx];
            let entry = QueueEntry {
                query,
                stage: stage_idx,
                arrived: self.arrival_time[query],
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

        fn on_complete(&mut self, now: f64, batch: usize) {
            let Batch {
                stage,
                slot,
                queries,
            } = std::mem::replace(
                &mut self.batches[batch],
                Batch {
                    stage: 0,
                    slot: 0,
                    queries: BatchQueries::One(0),
                },
            );
            self.free_batches.push(batch);
            let s = &self.stages[stage];
            self.free[slot] += s.units;
            self.in_flight[slot] -= queries.len();
            // Conservation invariant (active under the test profile): a
            // release can never return more units than the replica owns.
            debug_assert!(self.free[slot] <= self.spec.resources()[s.resource].capacity());

            match queries {
                BatchQueries::One(query) => self.route_onward(now, query, stage),
                BatchQueries::Many(mut queries) => {
                    for &query in queries.iter() {
                        self.route_onward(now, query, stage);
                    }
                    queries.clear();
                    self.query_pool.push(queries);
                }
            }
            self.dispatch(now, slot);
        }

        /// Sends a query that finished `stage` to the next stage, or
        /// records its completion (re-arming its closed-loop client).
        fn route_onward(&mut self, now: f64, query: usize, stage: usize) {
            if stage + 1 < self.stages.len() {
                self.heap.push(Event {
                    time: now,
                    seq: self.seq,
                    kind: EventKind::Arrive {
                        query,
                        stage: stage + 1,
                    },
                });
                self.seq += 1;
            } else {
                self.finish_time[query] = now;
                self.completed += 1;
                // Closed loop: this completion frees a client, which
                // thinks and then issues the next query.
                if let Some(think) = self.think_time_s {
                    if self.next_inject < self.num_queries {
                        let q = self.next_inject;
                        self.next_inject += 1;
                        self.inject(q, now + think);
                    }
                }
            }
        }

        fn run(mut self) -> SimResult {
            while let Some(event) = self.heap.pop() {
                let now = event.time;
                match event.kind {
                    EventKind::Arrive { query, stage } => {
                        self.last_time = now;
                        // A lazily-staged schedule arrival stages its
                        // successor (closed-loop re-injections sit past
                        // `schedule_len` and never match).
                        if self.lazy_arrivals && stage == 0 && query + 1 < self.schedule_len {
                            let next = query + 1;
                            self.heap.push(Event {
                                time: self.arrival_time[next],
                                seq: next as u64,
                                kind: EventKind::Arrive {
                                    query: next,
                                    stage: 0,
                                },
                            });
                        }
                        self.on_arrive(now, query, stage);
                    }
                    EventKind::Complete { batch } => {
                        self.last_time = now;
                        self.on_complete(now, batch);
                    }
                    EventKind::Recheck { slot, gen } => {
                        // Lazy cancellation: only the latest-armed timer of
                        // a slot dispatches. A superseded timer can never
                        // launch anything a live recheck, arrival, or
                        // completion would not have launched first (the
                        // armed time is always at or before the head
                        // entry's hold deadline), so skipping it changes
                        // nothing but the wasted queue scan.
                        if gen == self.timer_gen[slot] {
                            self.armed[slot] = None;
                            self.dispatch(now, slot);
                        }
                    }
                }
            }
            self.finish()
        }

        fn finish(self) -> SimResult {
            // Collect post-warmup latencies in query order.
            let warmup = ((self.num_queries as f64) * WARMUP_FRACTION) as usize;
            let mut latency = LatencyStats::with_capacity(self.num_queries.saturating_sub(warmup));
            let mut throughput = ThroughputMeter::new();
            let mut arrival_span = 0.0f64;
            for (query, (&arrive, &finish)) in self
                .arrival_time
                .iter()
                .zip(self.finish_time.iter())
                .enumerate()
            {
                if arrive.is_finite() {
                    arrival_span = arrival_span.max(arrive);
                }
                if finish.is_nan() {
                    continue; // never completed (cannot happen with unbounded queues)
                }
                throughput.record_completion(Duration::from_secs_f64(finish));
                if query >= warmup {
                    latency.record_secs(finish - arrive);
                }
            }

            let span = self.last_time.max(f64::MIN_POSITIVE);
            // Utilization per resource group aggregates across its replicas
            // (identical to the per-pool number when replicas = 1); the
            // per-replica breakdown is reported only for replicated
            // pipelines so single-replica results stay bit-identical to the
            // pre-cluster simulator.
            let resources = self.spec.resources();
            let utilization: Vec<f64> = resources
                .iter()
                .enumerate()
                .map(|(g, r)| {
                    let base = self.slot_base[g];
                    let busy: f64 = self.busy_unit_seconds[base..base + r.replicas()]
                        .iter()
                        .sum();
                    (busy / (r.total_units() as f64 * span)).min(1.0)
                })
                .collect();
            let replica_utilization: Vec<Vec<f64>> = if self.spec.has_replication() {
                resources
                    .iter()
                    .enumerate()
                    .map(|(g, r)| {
                        let base = self.slot_base[g];
                        self.busy_unit_seconds[base..base + r.replicas()]
                            .iter()
                            .map(|&busy| (busy / (r.capacity() as f64 * span)).min(1.0))
                            .collect()
                    })
                    .collect()
            } else {
                Vec::new()
            };

            // Saturation: open-loop offered load beyond the fully-batched
            // analytic capacity (identical to `max_qps()` for per-query
            // stages), or the drain time greatly exceeds the arrival span.
            // Closed loops self-regulate, so only the backlog test applies.
            let offered = self.arrivals.mean_rate();
            let rate_overload =
                self.think_time_s.is_none() && offered > self.spec.max_qps_at_full_batch();
            let saturated =
                rate_overload || self.last_time > arrival_span * 1.5 + self.spec.service_floor();

            let mean_batch = if self.launches > 0 {
                self.served as f64 / self.launches as f64
            } else {
                1.0
            };
            SimResult::new(
                latency,
                throughput.qps(),
                self.completed,
                saturated,
                utilization,
            )
            .with_mean_batch(mean_batch)
            .with_replica_utilization(replica_utilization)
        }
    }
}

/// The PR-5 heterogeneous-fleet cluster loop, frozen verbatim before
/// the replica-lifecycle + autoscaling subsystem landed (no slot
/// availability states, no masked routing, no windowed telemetry, no
/// shed/drop accounting), minus the `simulate`/`serve` convenience
/// wrappers. The equivalence properties below pin plain scenarios -- and
/// lifecycle scenarios over empty schedules -- to this loop
/// bit-for-bit across the full router x policy x fleet x batching
/// matrix.
mod reference_pr5 {
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, VecDeque};
    use std::time::Duration;

    use recpipe_data::ArrivalProcess;
    use recpipe_metrics::{LatencyStats, ThroughputMeter};

    use recpipe_qsim::{
        PipelineSpec, QueueEntry, Release, ReplicaLoads, Router, RouterState, RoutingCtx,
        SchedulingPolicy, SimResult, StageSpec,
    };

    /// Fraction of queries discarded from the front as warmup.
    const WARMUP_FRACTION: f64 = 0.05;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum EventKind {
        /// Query `query` arrives at stage `stage` and joins its queue.
        Arrive { query: usize, stage: usize },
        /// Batch `batch` finishes service, releasing its units.
        Complete { batch: usize },
        /// A scheduling policy asked to re-examine replica slot `slot`.
        /// The event is live only while `gen` matches the slot's timer
        /// generation — superseded timers are cancelled lazily (skipped at
        /// pop) instead of scanned.
        Recheck { slot: usize, gen: u64 },
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Event {
        time: f64,
        seq: u64,
        kind: EventKind,
    }

    impl Eq for Event {}

    impl Ord for Event {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on (time, seq): BinaryHeap is a max-heap, so reverse.
            other
                .time
                .partial_cmp(&self.time)
                .unwrap_or(Ordering::Equal)
                .then(other.seq.cmp(&self.seq))
        }
    }

    impl PartialOrd for Event {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// An in-flight batch: the stage it runs, the replica slot holding its
    /// units, and the queries it carries.
    #[derive(Debug, Clone)]
    struct Batch {
        stage: usize,
        slot: usize,
        queries: BatchQueries,
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

    /// Runs the cluster-aware discrete-event simulation: `router` picks a
    /// replica per query at every stage, then `policy` schedules batches
    /// within each replica's private queue (batches never span replicas).
    ///
    /// # Panics
    ///
    /// Panics if the pipeline has no stages or `num_queries == 0`.
    pub fn serve_routed(
        spec: &PipelineSpec,
        arrivals: &dyn ArrivalProcess,
        policy: &dyn SchedulingPolicy,
        router: &dyn Router,
        num_queries: usize,
        seed: u64,
    ) -> SimResult {
        assert!(!spec.stages().is_empty(), "pipeline has no stages");
        assert!(num_queries > 0, "need at least one query");
        Sim::new(spec, arrivals, policy, router, num_queries, seed).run()
    }

    struct Sim<'a> {
        spec: &'a PipelineSpec,
        stages: &'a [StageSpec],
        policy: &'a dyn SchedulingPolicy,
        arrivals: &'a dyn ArrivalProcess,
        router: &'a dyn Router,
        num_queries: usize,
        heap: BinaryHeap<Event>,
        seq: u64,
        /// Absolute stage-0 arrival time per query (NaN until injected).
        arrival_time: Vec<f64>,
        /// First flattened replica slot of each resource group: replica `r`
        /// of group `g` lives at slot `slot_base[g] + r`. Single-replica
        /// pipelines flatten to one slot per group, reproducing the
        /// pre-cluster layout exactly.
        slot_base: Vec<usize>,
        /// Resource group owning each slot.
        slot_group: Vec<usize>,
        /// Replica count per group (cached off the spec for the hot path).
        group_replicas: Vec<usize>,
        /// Per-slot unit capacity (per-replica, heterogeneous fleets may
        /// differ within a group).
        slot_capacity: Vec<usize>,
        /// Per-slot service-rate multiplier
        /// ([`ReplicaProfile::speed`](crate::ReplicaProfile::speed)): a
        /// batch's service time is its baseline time divided by this.
        slot_speed: Vec<f64>,
        /// Per-slot free units (router signal, maintained incrementally).
        free: Vec<usize>,
        /// Per-slot remaining expected work in baseline seconds: queued
        /// entries' per-query service plus in-flight batches' booked
        /// service, maintained incrementally (the [`ExpectedWait`]
        /// estimator; see router.rs module docs).
        ///
        /// [`ExpectedWait`]: crate::ExpectedWait
        remaining_work: Vec<f64>,
        /// Resource group of each pipeline stage (the static map routing
        /// contexts expose to affinity routers).
        stage_groups: Vec<usize>,
        /// Replica chosen (index within its group) per query per stage,
        /// laid out `query * num_stages + stage` — the routing history
        /// behind [`RoutingCtx`].
        chosen: Vec<u32>,
        /// Per-slot waiting entries, kept sorted by (policy priority,
        /// admission seq) — FIFO inserts are O(1) appends.
        waiting: Vec<VecDeque<QueueEntry>>,
        /// Per-slot waiting-entry counts, mirrored off `waiting` so router
        /// probes read one contiguous array (see [`ReplicaLoads`]).
        queued: Vec<usize>,
        /// Per-slot queries currently in service (the router's load signal).
        in_flight: Vec<usize>,
        /// Per-slot earliest armed policy recheck, if any.
        armed: Vec<Option<f64>>,
        /// Per-slot timer generation: bumped whenever a recheck is armed,
        /// so superseded `Recheck` events cancel lazily at pop.
        timer_gen: Vec<u64>,
        /// Busy unit-seconds per slot for utilization accounting.
        busy_unit_seconds: Vec<f64>,
        /// Per-group router state (round-robin cursors, probe RNG).
        router_states: Vec<RouterState>,
        /// In-flight batches, indexed by `Complete` events; completed slots
        /// are recycled through `free_batches` so the table stays at the
        /// concurrency high-water mark instead of growing per launch.
        batches: Vec<Batch>,
        /// Recyclable `batches` indices.
        free_batches: Vec<usize>,
        /// Spare query buffers recycled from completed multi-query batches.
        query_pool: Vec<Vec<usize>>,
        finish_time: Vec<f64>,
        completed: usize,
        last_time: f64,
        launches: u64,
        served: u64,
        /// Closed-loop state: next query index to inject, and think time.
        next_inject: usize,
        think_time_s: Option<f64>,
        /// Cached `policy.admit_on_arrival()` (consulted on every arrival).
        work_conserving: bool,
        /// Number of schedule-driven arrivals (the `times()` prefix; seqs
        /// `0..schedule_len` are reserved for them).
        schedule_len: usize,
        /// Whether the arrival schedule is staged lazily: one stage-0 event
        /// in the heap at a time, each pop staging its successor. Keeping
        /// the heap at the in-flight high-water mark instead of the full
        /// query count cuts every push/pop from `log(queries)` to
        /// `log(concurrency)`. Requires a nondecreasing schedule; unsorted
        /// traces fall back to eager staging, which is bit-identical
        /// because every schedule arrival's heap seq is preassigned to its
        /// query index either way.
        lazy_arrivals: bool,
    }

    impl<'a> Sim<'a> {
        fn new(
            spec: &'a PipelineSpec,
            arrivals: &'a dyn ArrivalProcess,
            policy: &'a dyn SchedulingPolicy,
            router: &'a dyn Router,
            num_queries: usize,
            seed: u64,
        ) -> Self {
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
            let mut sim = Self {
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
                group_replicas: resources.iter().map(|r| r.replicas()).collect(),
                slot_capacity,
                slot_speed,
                free,
                remaining_work: vec![0.0; num_slots],
                stage_groups: spec.stages().iter().map(|s| s.resource).collect(),
                chosen: vec![u32::MAX; num_queries * num_stages],
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
                finish_time: vec![f64::NAN; num_queries],
                completed: 0,
                last_time: 0.0,
                launches: 0,
                served: 0,
                next_inject: 0,
                think_time_s: None,
                work_conserving: policy.admit_on_arrival(),
                schedule_len: 0,
                lazy_arrivals: false,
            };

            // Record the open-loop schedule up front; a closed loop starts
            // only its client population and derives the rest from
            // completions. Schedule arrival `q` always carries heap seq `q`
            // (the counter resumes at `initial`), so staging events lazily
            // or eagerly yields the same (time, seq) total order — the heap
            // just stays small in the lazy case.
            let initial = match arrivals.closed_loop() {
                Some(cl) => {
                    sim.think_time_s = Some(cl.think_time_s);
                    cl.clients.min(num_queries)
                }
                None => num_queries,
            };
            let times = arrivals.times(initial, seed);
            for (query, &t) in times.iter().enumerate() {
                sim.arrival_time[query] = t;
            }
            sim.seq = initial as u64;
            sim.schedule_len = initial;
            sim.lazy_arrivals = times.windows(2).all(|w| w[0] <= w[1]);
            if sim.lazy_arrivals {
                if let Some(&t0) = times.first() {
                    sim.heap.push(Event {
                        time: t0,
                        seq: 0,
                        kind: EventKind::Arrive { query: 0, stage: 0 },
                    });
                }
            } else {
                for (query, &t) in times.iter().enumerate() {
                    sim.heap.push(Event {
                        time: t,
                        seq: query as u64,
                        kind: EventKind::Arrive { query, stage: 0 },
                    });
                }
            }
            sim.next_inject = initial;
            sim
        }

        fn inject(&mut self, query: usize, t: f64) {
            self.arrival_time[query] = t;
            self.heap.push(Event {
                time: t,
                seq: self.seq,
                kind: EventKind::Arrive { query, stage: 0 },
            });
            self.seq += 1;
        }

        /// Routes `query` arriving at `stage_idx` to one replica slot of
        /// the stage's resource group, recording the choice in the query's
        /// routing history (the [`RoutingCtx`] affinity signal).
        ///
        /// Replicated groups go through [`Router::route`], probing
        /// the incrementally-maintained `queued`/`in_flight`/`free` counter
        /// arrays and the `remaining_work`/`slot_speed` estimator arrays
        /// directly — no snapshot materialization per decision.
        fn route(&mut self, query: usize, stage_idx: usize) -> usize {
            let group = self.stages[stage_idx].resource;
            let base = self.slot_base[group];
            let replicas = self.group_replicas[group];
            let num_stages = self.stages.len();
            let pick = if replicas == 1 {
                0
            } else {
                debug_assert!(
                    (base..base + replicas).all(|s| self.queued[s] == self.waiting[s].len())
                );
                debug_assert!((base..base + replicas).all(|s| {
                    (self.remaining_work[s] - self.scan_remaining_work(s)).abs() < 1e-6
                }));
                let loads = ReplicaLoads::new(
                    &self.queued[base..base + replicas],
                    &self.in_flight[base..base + replicas],
                    &self.free[base..base + replicas],
                )
                .with_estimates(
                    &self.remaining_work[base..base + replicas],
                    &self.slot_speed[base..base + replicas],
                );
                let history = query * num_stages;
                let ctx = RoutingCtx::new(
                    query,
                    stage_idx,
                    group,
                    &self.chosen[history..history + stage_idx],
                    &self.stage_groups,
                );
                let pick = self
                    .router
                    .route(&loads, &ctx, &mut self.router_states[group]);
                assert!(
                    pick < replicas,
                    "router returned replica {pick} of {replicas}"
                );
                pick
            };
            self.chosen[query * num_stages + stage_idx] = pick as u32;
            base + pick
        }

        /// Recomputes one slot's remaining expected work from scratch by
        /// scanning its queue and the live batch table — the ground truth
        /// the incrementally-maintained `remaining_work` counter is checked
        /// against under the test profile (a drift beyond float noise means
        /// an update path was missed). Only `debug_assert!` calls it, so
        /// release builds compile it out with the assertion.
        fn scan_remaining_work(&self, slot: usize) -> f64 {
            let queued: f64 = self.waiting[slot]
                .iter()
                .map(|e| self.stages[e.stage].service_time)
                .sum();
            let in_service: f64 = self
                .batches
                .iter()
                .enumerate()
                .filter(|(idx, b)| b.slot == slot && !self.free_batches.contains(idx))
                .map(|(_, b)| self.stages[b.stage].batch_service_time(b.queries.len()))
                .sum();
            queued + in_service
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
            self.remaining_work[slot] += base_service;
            let service = base_service / self.slot_speed[slot];
            self.busy_unit_seconds[slot] += stage.units as f64 * service;
            self.launches += 1;
            self.served += queries.len() as u64;
            let entry = Batch {
                stage: stage_idx,
                slot,
                queries,
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
                    self.batches.len() - 1
                }
            };
            self.heap.push(Event {
                time: now + service,
                seq: self.seq,
                kind: EventKind::Complete { batch },
            });
            self.seq += 1;
        }

        /// Inserts an entry into its slot queue at its (priority, seq)
        /// position. Priorities are static per entry, so the queue stays
        /// sorted; FIFO-ordered policies always append in O(1).
        fn enqueue(&mut self, slot: usize, entry: QueueEntry) {
            self.remaining_work[slot] += self.stages[entry.stage].service_time;
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
            // Mirror enqueue's per-entry additions one by one so the
            // counter drifts no differently than the updates it reverses.
            for _ in 0..taken {
                self.remaining_work[slot] -= self.stages[stage].service_time;
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
            self.remaining_work[slot] -= self.stages[stage].service_time;
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
                            self.heap.push(Event {
                                time: t,
                                seq: self.seq,
                                kind: EventKind::Recheck {
                                    slot,
                                    gen: self.timer_gen[slot],
                                },
                            });
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
            let slot = self.route(query, stage_idx);
            let stage = &self.stages[stage_idx];
            let entry = QueueEntry {
                query,
                stage: stage_idx,
                arrived: self.arrival_time[query],
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

        fn on_complete(&mut self, now: f64, batch: usize) {
            let Batch {
                stage,
                slot,
                queries,
            } = std::mem::replace(
                &mut self.batches[batch],
                Batch {
                    stage: 0,
                    slot: 0,
                    queries: BatchQueries::One(0),
                },
            );
            self.free_batches.push(batch);
            let s = &self.stages[stage];
            self.free[slot] += s.units;
            self.in_flight[slot] -= queries.len();
            self.remaining_work[slot] -= s.batch_service_time(queries.len());
            // Conservation invariant (active under the test profile): a
            // release can never return more units than the replica owns.
            debug_assert!(self.free[slot] <= self.slot_capacity[slot]);

            match queries {
                BatchQueries::One(query) => self.route_onward(now, query, stage),
                BatchQueries::Many(mut queries) => {
                    for &query in queries.iter() {
                        self.route_onward(now, query, stage);
                    }
                    queries.clear();
                    self.query_pool.push(queries);
                }
            }
            self.dispatch(now, slot);
        }

        /// Sends a query that finished `stage` to the next stage, or
        /// records its completion (re-arming its closed-loop client).
        fn route_onward(&mut self, now: f64, query: usize, stage: usize) {
            if stage + 1 < self.stages.len() {
                self.heap.push(Event {
                    time: now,
                    seq: self.seq,
                    kind: EventKind::Arrive {
                        query,
                        stage: stage + 1,
                    },
                });
                self.seq += 1;
            } else {
                self.finish_time[query] = now;
                self.completed += 1;
                // Closed loop: this completion frees a client, which
                // thinks and then issues the next query.
                if let Some(think) = self.think_time_s {
                    if self.next_inject < self.num_queries {
                        let q = self.next_inject;
                        self.next_inject += 1;
                        self.inject(q, now + think);
                    }
                }
            }
        }

        fn run(mut self) -> SimResult {
            while let Some(event) = self.heap.pop() {
                let now = event.time;
                match event.kind {
                    EventKind::Arrive { query, stage } => {
                        self.last_time = now;
                        // A lazily-staged schedule arrival stages its
                        // successor (closed-loop re-injections sit past
                        // `schedule_len` and never match).
                        if self.lazy_arrivals && stage == 0 && query + 1 < self.schedule_len {
                            let next = query + 1;
                            self.heap.push(Event {
                                time: self.arrival_time[next],
                                seq: next as u64,
                                kind: EventKind::Arrive {
                                    query: next,
                                    stage: 0,
                                },
                            });
                        }
                        self.on_arrive(now, query, stage);
                    }
                    EventKind::Complete { batch } => {
                        self.last_time = now;
                        self.on_complete(now, batch);
                    }
                    EventKind::Recheck { slot, gen } => {
                        // Lazy cancellation: only the latest-armed timer of
                        // a slot dispatches. A superseded timer can never
                        // launch anything a live recheck, arrival, or
                        // completion would not have launched first (the
                        // armed time is always at or before the head
                        // entry's hold deadline), so skipping it changes
                        // nothing but the wasted queue scan.
                        if gen == self.timer_gen[slot] {
                            self.armed[slot] = None;
                            self.dispatch(now, slot);
                        }
                    }
                }
            }
            self.finish()
        }

        fn finish(self) -> SimResult {
            // Collect post-warmup latencies in query order.
            let warmup = ((self.num_queries as f64) * WARMUP_FRACTION) as usize;
            let mut latency = LatencyStats::with_capacity(self.num_queries.saturating_sub(warmup));
            let mut throughput = ThroughputMeter::new();
            let mut arrival_span = 0.0f64;
            for (query, (&arrive, &finish)) in self
                .arrival_time
                .iter()
                .zip(self.finish_time.iter())
                .enumerate()
            {
                if arrive.is_finite() {
                    arrival_span = arrival_span.max(arrive);
                }
                if finish.is_nan() {
                    continue; // never completed (cannot happen with unbounded queues)
                }
                throughput.record_completion(Duration::from_secs_f64(finish));
                if query >= warmup {
                    latency.record_secs(finish - arrive);
                }
            }

            let span = self.last_time.max(f64::MIN_POSITIVE);
            // Utilization per resource group aggregates across its replicas
            // (identical to the per-pool number when replicas = 1); the
            // per-replica breakdown is reported only for replicated
            // pipelines so single-replica results stay bit-identical to the
            // pre-cluster simulator.
            let resources = self.spec.resources();
            let utilization: Vec<f64> = resources
                .iter()
                .enumerate()
                .map(|(g, r)| {
                    let base = self.slot_base[g];
                    let busy: f64 = self.busy_unit_seconds[base..base + r.replicas()]
                        .iter()
                        .sum();
                    (busy / (r.total_units() as f64 * span)).min(1.0)
                })
                .collect();
            let replica_utilization: Vec<Vec<f64>> = if self.spec.has_replication() {
                resources
                    .iter()
                    .enumerate()
                    .map(|(g, r)| {
                        let base = self.slot_base[g];
                        self.busy_unit_seconds[base..base + r.replicas()]
                            .iter()
                            .zip(&self.slot_capacity[base..base + r.replicas()])
                            .map(|(&busy, &capacity)| (busy / (capacity as f64 * span)).min(1.0))
                            .collect()
                    })
                    .collect()
            } else {
                Vec::new()
            };

            // Saturation: open-loop offered load beyond the fully-batched
            // analytic capacity (identical to `max_qps()` for per-query
            // stages), or the drain time greatly exceeds the arrival span.
            // Closed loops self-regulate, so only the backlog test applies.
            let offered = self.arrivals.mean_rate();
            let rate_overload =
                self.think_time_s.is_none() && offered > self.spec.max_qps_at_full_batch();
            let saturated =
                rate_overload || self.last_time > arrival_span * 1.5 + self.spec.service_floor();

            let mean_batch = if self.launches > 0 {
                self.served as f64 / self.launches as f64
            } else {
                1.0
            };
            SimResult::new(
                latency,
                throughput.qps(),
                self.completed,
                saturated,
                utilization,
            )
            .with_mean_batch(mean_batch)
            .with_replica_utilization(replica_utilization)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_query_completes(
        servers in 1usize..16,
        service_ms in 1u64..20,
        queries in 100usize..800,
    ) {
        let spec = pipeline(servers, vec![service_ms as f64 / 1e3]);
        let out = spec.simulate(50.0, queries, 1);
        prop_assert_eq!(out.completed, queries);
    }

    #[test]
    fn latency_never_beats_service_floor(
        servers in 1usize..8,
        s1 in 1u64..10,
        s2 in 1u64..10,
        qps in 1.0f64..100.0,
    ) {
        let spec = pipeline(servers, vec![s1 as f64 / 1e3, s2 as f64 / 1e3]);
        let floor = spec.service_floor();
        let mut out = spec.simulate(qps, 500, 2);
        // Even the fastest query pays both service times.
        prop_assert!(out.latency.percentile(0.0).as_secs_f64() >= floor - 1e-9);
    }

    #[test]
    fn p99_is_monotone_in_load(servers in 2usize..8, service_ms in 2u64..10) {
        let spec = pipeline(servers, vec![service_ms as f64 / 1e3]);
        let cap = spec.max_qps();
        let mut lo = spec.simulate(cap * 0.2, 4_000, 3);
        let mut hi = spec.simulate(cap * 0.85, 4_000, 3);
        prop_assert!(hi.latency.p99() >= lo.latency.p99());
    }

    #[test]
    fn utilization_is_bounded(
        servers in 1usize..8,
        service_ms in 1u64..10,
        qps in 1.0f64..2000.0,
    ) {
        let spec = pipeline(servers, vec![service_ms as f64 / 1e3]);
        let out = spec.simulate(qps, 1_000, 4);
        for u in &out.utilization {
            prop_assert!((0.0..=1.0).contains(u), "utilization {u}");
        }
    }

    #[test]
    fn offered_beyond_capacity_is_always_flagged(
        servers in 1usize..4,
        service_ms in 5u64..20,
    ) {
        let spec = pipeline(servers, vec![service_ms as f64 / 1e3]);
        let out = spec.simulate(spec.max_qps() * 2.0, 1_500, 5);
        prop_assert!(out.saturated);
    }

    #[test]
    fn seeds_are_deterministic(seed in 0u64..1000) {
        let spec = pipeline(4, vec![0.004, 0.002]);
        let mut a = spec.simulate(200.0, 800, seed);
        let mut b = spec.simulate(200.0, 800, seed);
        prop_assert_eq!(a.latency.p99(), b.latency.p99());
        prop_assert_eq!(a.qps, b.qps);
    }

    // --------------------------------------------------------------
    // qsim v2 conservation invariants
    // --------------------------------------------------------------

    #[test]
    fn batch1_fifo_reproduces_the_pre_refactor_simulator_bit_for_bit(
        servers in 1usize..8,
        s1 in 1u64..10,
        s2 in 1u64..10,
        qps in 10.0f64..900.0,
        queries in 200usize..1200,
        seed in 0u64..500,
    ) {
        let spec = pipeline(servers, vec![s1 as f64 / 1e3, s2 as f64 / 1e3]);
        let old = reference::simulate(&spec, qps, queries, seed);
        let new = spec.simulate(qps, queries, seed);
        // Full struct equality: latency samples, throughput, completion
        // count, saturation flag, and utilization, all bit-for-bit.
        prop_assert_eq!(old, new);
    }

    #[test]
    fn every_arrival_completes_under_any_policy_and_batching(
        servers in 1usize..6,
        service_ms in 1u64..12,
        max_batch in 1usize..16,
        policy_idx in 0usize..3,
        queries in 100usize..600,
        seed in 0u64..100,
    ) {
        let spec = batched_pipeline(
            servers,
            vec![service_ms as f64 / 1e3, service_ms as f64 / 2e3],
            max_batch,
        );
        let policy = policy_for(policy_idx);
        let arrivals = PoissonArrivals::new(150.0);
        let out = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .run()
            .unwrap();
        prop_assert_eq!(out.completed, queries);
        prop_assert!(out.mean_batch >= 1.0 - 1e-12);
        prop_assert!(out.mean_batch <= max_batch as f64 + 1e-12);
    }

    #[test]
    fn resource_units_never_go_negative_under_batching(
        servers in 1usize..6,
        max_batch in 1usize..12,
        policy_idx in 0usize..3,
        seed in 0u64..100,
    ) {
        // The real invariant lives in the simulator's debug assertions
        // (units available before every launch, free <= capacity after
        // every release), which are ACTIVE in this test profile: any
        // double-booking panics the property. The completion count and
        // (clamped) utilization are the observable sanity checks.
        let spec = batched_pipeline(servers, vec![0.004, 0.002], max_batch);
        let policy = policy_for(policy_idx);
        let arrivals = MmppArrivals::new(100.0, 1_000.0, 0.2, 0.1);
        let out = Scenario::new(&spec, &arrivals, 800, seed).policy(policy.as_ref()).run().unwrap();
        prop_assert_eq!(out.completed, 800);
        for u in &out.utilization {
            prop_assert!((0.0..=1.0).contains(u), "utilization {u}");
        }
    }

    // --------------------------------------------------------------
    // qsim v3: replica groups and routers
    // --------------------------------------------------------------

    #[test]
    fn single_replica_routed_serving_reproduces_the_reference_for_every_router(
        servers in 1usize..8,
        s1 in 1u64..10,
        s2 in 1u64..10,
        qps in 10.0f64..900.0,
        queries in 200usize..1000,
        router_idx in 0usize..4,
        seed in 0u64..300,
    ) {
        // The cluster redesign's compatibility contract: on pipelines
        // whose groups are all single-replica, a plain scenario under ANY
        // router is bit-identical to the frozen pre-redesign simulator
        // (the router has no choices to make and must not perturb event
        // order, RNG state, or accounting).
        let spec = pipeline(servers, vec![s1 as f64 / 1e3, s2 as f64 / 1e3]);
        let old = reference::simulate(&spec, qps, queries, seed);
        let router = router_for(router_idx);
        let new = Scenario::new(&spec, &PoissonArrivals::new(qps), queries, seed)
            .router(router.as_ref())
            .run()
            .unwrap();
        prop_assert_eq!(old, new);
    }

    #[test]
    fn optimized_event_loop_matches_the_frozen_pr3_loop_bit_for_bit(
        replicas in 1usize..5,
        capacity in 1usize..3,
        s1 in 1u64..10,
        s2 in 1u64..10,
        max_batch in 1usize..12,
        policy_idx in 0usize..3,
        router_idx in 0usize..4,
        queries in 100usize..700,
        seed in 0u64..300,
    ) {
        // The PR-4 hot-loop rewrite (pooled batch buffers, batch-slot
        // freelist, counter-array router probes via `route`,
        // generation-counter timer cancellation) must not change a
        // single bit of any simulation: policies that arm timers,
        // routers that probe replica state, and batch formation all go
        // through the rewritten paths.
        let spec = replicated_pipeline(
            replicas,
            capacity,
            vec![s1 as f64 / 1e3, s2 as f64 / 2e3],
            max_batch,
        );
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let frozen = reference_routed::serve_routed(
            &spec,
            &arrivals,
            policy.as_ref(),
            router.as_ref(),
            queries,
            seed,
        );
        let optimized =
            Scenario::new(&spec, &arrivals, queries, seed)
                .policy(policy.as_ref())
                .router(router.as_ref())
                .run()
                .unwrap();
        prop_assert_eq!(frozen, optimized);
    }

    #[test]
    fn every_query_completes_on_replicated_clusters(
        replicas in 1usize..6,
        capacity in 1usize..4,
        max_batch in 1usize..12,
        policy_idx in 0usize..3,
        router_idx in 0usize..4,
        queries in 100usize..600,
        seed in 0u64..100,
    ) {
        // Conservation across the full cluster matrix: replicas x
        // policies x routers x batching. The simulator's debug
        // assertions (units available before every launch, free <=
        // per-replica capacity after every release) are active here,
        // so any cross-replica unit leak panics the property.
        let spec = replicated_pipeline(replicas, capacity, vec![0.004, 0.002], max_batch);
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let out = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        prop_assert_eq!(out.completed, queries);
        prop_assert!(out.mean_batch >= 1.0 - 1e-12);
        prop_assert!(out.mean_batch <= max_batch as f64 + 1e-12);
        for u in &out.utilization {
            prop_assert!((0.0..=1.0).contains(u), "utilization {u}");
        }
        if replicas > 1 {
            prop_assert_eq!(out.replica_utilization.len(), 1);
            prop_assert_eq!(out.replica_utilization[0].len(), replicas);
            for u in &out.replica_utilization[0] {
                prop_assert!((0.0..=1.0).contains(u), "replica utilization {u}");
            }
        } else {
            prop_assert!(out.replica_utilization.is_empty());
        }
    }

    #[test]
    fn routed_serving_is_deterministic(
        replicas in 2usize..6,
        router_idx in 0usize..4,
        seed in 0u64..200,
    ) {
        let spec = replicated_pipeline(replicas, 1, vec![0.003, 0.006], 4);
        let router = router_for(router_idx);
        let arrivals = PoissonArrivals::new(150.0);
        let a = Scenario::new(&spec, &arrivals, 500, seed).router(router.as_ref()).run().unwrap();
        let b = Scenario::new(&spec, &arrivals, 500, seed).router(router.as_ref()).run().unwrap();
        prop_assert_eq!(a, b);
    }

    // --------------------------------------------------------------
    // qsim v4: heterogeneous fleets, routing context, expected wait
    // --------------------------------------------------------------

    #[test]
    fn redesigned_loop_matches_the_frozen_pr4_loop_on_uniform_fleets(
        replicas in 1usize..6,
        capacity in 1usize..3,
        s1 in 1u64..10,
        s2 in 1u64..10,
        max_batch in 1usize..12,
        policy_idx in 0usize..3,
        router_idx in 0usize..4,
        queries in 100usize..700,
        seed in 0u64..300,
    ) {
        // The heterogeneous-fleet redesign (per-replica ReplicaProfile
        // speeds applied to every batch service time, incrementally
        // maintained remaining-work estimator arrays, per-query routing
        // history threaded through RoutingCtx) must be invisible on
        // uniform fleets: with every speed at 1.0, the frozen PR-4
        // loop's result is reproduced bit-for-bit across the full PR-4
        // router x policy x replica count x batching matrix.
        let spec = replicated_pipeline(
            replicas,
            capacity,
            vec![s1 as f64 / 1e3, s2 as f64 / 2e3],
            max_batch,
        );
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let frozen = reference_pr4::serve_routed(
            &spec,
            &arrivals,
            policy.as_ref(),
            router.as_ref(),
            queries,
            seed,
        );
        let redesigned =
            Scenario::new(&spec, &arrivals, queries, seed)
                .policy(policy.as_ref())
                .router(router.as_ref())
                .run()
                .unwrap();
        prop_assert_eq!(frozen, redesigned);
    }

    #[test]
    fn every_query_completes_on_heterogeneous_fleets(
        fast in 1usize..4,
        slow in 1usize..4,
        speed_pct in 20u64..100,
        capacity in 1usize..3,
        max_batch in 1usize..8,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        queries in 100usize..500,
        seed in 0u64..100,
    ) {
        // Conservation across the mixed-generation matrix, with the new
        // routers (ExpectedWait, Sticky) in rotation. The simulator's
        // debug assertions are active here, so a unit leak, a counter
        // drift beyond float noise in the incrementally-maintained
        // remaining-work arrays, or a queued-count mismatch panics the
        // property.
        let mut profiles = vec![ReplicaProfile::baseline(capacity); fast];
        profiles.extend(std::iter::repeat_n(
            ReplicaProfile::new(capacity, speed_pct as f64 / 100.0),
            slow,
        ));
        let replicas = profiles.len();
        let mut spec =
            PipelineSpec::new(vec![ReplicaGroup::heterogeneous("fleet", profiles)]);
        for (i, s) in [0.004f64, 0.002].into_iter().enumerate() {
            spec = spec
                .with_stage(
                    StageSpec::new(format!("s{i}"), 0, 1, s)
                        .with_batch(BatchModel::new(max_batch, 0.25)),
                )
                .unwrap();
        }
        let policy = policy_for(policy_idx);
        let router = router_for_v4(router_idx);
        let arrivals = MmppArrivals::new(60.0, 500.0, 0.2, 0.1);
        let out = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        prop_assert_eq!(out.completed, queries);
        prop_assert!(out.mean_batch >= 1.0 - 1e-12);
        prop_assert!(out.mean_batch <= max_batch as f64 + 1e-12);
        for u in &out.utilization {
            prop_assert!((0.0..=1.0).contains(u), "utilization {u}");
        }
        if replicas > 1 {
            prop_assert_eq!(out.replica_utilization.len(), 1);
            prop_assert_eq!(out.replica_utilization[0].len(), replicas);
            for u in &out.replica_utilization[0] {
                prop_assert!((0.0..=1.0).contains(u), "replica utilization {u}");
            }
        }
        // Heterogeneous routing is reproducible like everything else.
        let again = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        prop_assert_eq!(out, again);
    }

    #[test]
    fn closed_loop_completes_and_bounds_inflight(
        clients in 1usize..32,
        servers in 1usize..4,
        seed in 0u64..50,
    ) {
        let spec = pipeline(servers, vec![0.005]);
        let arrivals = ClosedLoopArrivals::new(clients, 0.01);
        let out = Scenario::new(&spec, &arrivals, 400, seed).run().unwrap();
        prop_assert_eq!(out.completed, 400);
        // At most `clients` queries are ever in flight, so the worst
        // wait is bounded by the population draining through servers.
        let bound = (clients as f64 / servers as f64).ceil() * 0.005 + 1e-9;
        prop_assert!(
            out.latency.max().as_secs_f64() <= bound,
            "max latency {} vs bound {bound}",
            out.latency.max().as_secs_f64()
        );
    }

    // --------------------------------------------------------------
    // qsim v6: replica lifecycle, failure injection, autoscaling
    // --------------------------------------------------------------

    #[test]
    fn lifecycle_free_loop_matches_the_frozen_pr5_loop(
        fast in 1usize..4,
        slow in 0usize..3,
        speed_pct in 20u64..100,
        capacity in 1usize..3,
        max_batch in 1usize..8,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        queries in 100usize..600,
        seed in 0u64..300,
    ) {
        // The lifecycle subsystem (slot availability states, masked
        // routing, windowed telemetry, shed/drop accounting) must be
        // invisible when no lifecycle events exist: plain scenarios and
        // ones with `lifecycle` set over empty schedules both reproduce the
        // frozen PR-5 loop bit-for-bit across the full router x policy
        // x fleet x batching matrix, heterogeneous fleets included.
        let mut profiles = vec![ReplicaProfile::baseline(capacity); fast];
        profiles.extend(std::iter::repeat_n(
            ReplicaProfile::new(capacity, speed_pct as f64 / 100.0),
            slow,
        ));
        let mut spec = PipelineSpec::new(vec![ReplicaGroup::heterogeneous("fleet", profiles)]);
        for (i, s) in [0.004f64, 0.002].into_iter().enumerate() {
            spec = spec
                .with_stage(
                    StageSpec::new(format!("s{i}"), 0, 1, s)
                        .with_batch(BatchModel::new(max_batch, 0.25)),
                )
                .unwrap();
        }
        let policy = policy_for(policy_idx);
        let router = router_for_v4(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let routed = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        // ExpectedWait intentionally left the frozen behavior in PR-7:
        // its in-flight term now decays as service elapses instead of
        // booking the full batch cost until completion, so the frozen
        // comparison covers the other five routers (the decay estimator
        // has its own never-worse regression test below).
        if router_idx % 6 != 4 {
            let frozen = reference_pr5::serve_routed(
                &spec,
                &arrivals,
                policy.as_ref(),
                router.as_ref(),
                queries,
                seed,
            );
            prop_assert_eq!(&frozen, &routed);
        }
        let lifecycle = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&LifecycleConfig::new())
            .run()
            .unwrap();
        prop_assert_eq!(&routed, &lifecycle);
    }

    #[test]
    fn lifecycle_failures_conserve_every_query(
        replicas in 2usize..5,
        capacity in 1usize..3,
        max_batch in 1usize..6,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        fail_ms in proptest::collection::vec(50u64..1500, 1..4),
        fail_targets in proptest::collection::vec(0usize..8, 1..4),
        shed_policy in proptest::prelude::any::<bool>(),
        closed_loop in proptest::prelude::any::<bool>(),
        clients in 1usize..5,
        queries in 100usize..400,
        seed in 0u64..100,
    ) {
        // Random fail-stop schedules (each failed replica revived after
        // the last failure, so Requeue always has a way forward): every
        // injected query is accounted for exactly once -- completed,
        // shed, or dropped -- and under Requeue nothing is ever lost.
        // Closed-loop clients must survive their queries' losses, or a
        // small population stops issuing before `queries` is reached.
        // The simulator's debug assertions (unit conservation, counter
        // drift) are live here too.
        let mut fails: Vec<(f64, usize)> = fail_ms
            .iter()
            .zip(fail_targets.iter().cycle())
            .map(|(&ms, &r)| (ms as f64 / 1e3, r % replicas))
            .collect();
        fails.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let last = fails.last().unwrap().0;
        let mut schedule = LifecycleSchedule::empty();
        for &(t, r) in &fails {
            schedule = schedule.with_event(LifecycleEvent::fail_stop(t, r));
        }
        let mut revived: Vec<usize> = fails.iter().map(|&(_, r)| r).collect();
        revived.sort_unstable();
        revived.dedup();
        for (i, &r) in revived.iter().enumerate() {
            schedule =
                schedule.with_event(LifecycleEvent::recover(last + 0.01 * (i as f64 + 1.0), r));
        }
        let spec = replicated_pipeline(replicas, capacity, vec![0.004, 0.002], max_batch)
            .with_group_lifecycle(0, schedule);
        let policy = policy_for(policy_idx);
        let router = router_for_v4(router_idx);
        let arrivals: Box<dyn recpipe_data::ArrivalProcess> = if closed_loop {
            Box::new(ClosedLoopArrivals::new(clients, 0.005))
        } else {
            Box::new(MmppArrivals::new(60.0, 500.0, 0.2, 0.1))
        };
        let cfg = if shed_policy {
            LifecycleConfig::new().with_failure_policy(FailurePolicy::Shed)
        } else {
            LifecycleConfig::new()
        };
        let out = Scenario::new(&spec, arrivals.as_ref(), queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&cfg)
            .run()
            .unwrap();
        prop_assert_eq!(out.completed + out.shed + out.dropped, queries);
        if !shed_policy {
            prop_assert_eq!(out.completed, queries);
            prop_assert_eq!(out.shed + out.dropped, 0);
        }
        // Failure replay is reproducible like everything else.
        let again = Scenario::new(&spec, arrivals.as_ref(), queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&cfg)
            .run()
            .unwrap();
        prop_assert_eq!(out, again);
    }
}

// ------------------------------------------------------------------
// qsim v7: sharded parallel loop + decay-aware ExpectedWait
// ------------------------------------------------------------------

/// Routers carrying `Sync` so they can cross shard-thread boundaries.
fn router_sync(idx: usize) -> Box<dyn Router + Sync> {
    match idx % 6 {
        0 => Box::new(RoundRobin),
        1 => Box::new(JoinShortestQueue),
        2 => Box::new(PowerOfTwoChoices),
        3 => Box::new(LeastWorkLeft),
        4 => Box::new(ExpectedWait),
        _ => Box::new(Sticky),
    }
}

fn policy_sync(idx: usize) -> Box<dyn SchedulingPolicy + Sync> {
    match idx % 3 {
        0 => Box::new(Fifo),
        1 => Box::new(BatchWindow::new(0.002)),
        _ => Box::new(EarliestDeadlineFirst::new(0.05)),
    }
}

/// A two-stage pipeline with per-stage backends (pairwise-distinct
/// resource groups) — the shape the per-stage shard decomposition
/// accepts. The first group mixes generations so the speed-aware
/// machinery is exercised too.
fn two_backend_pipeline(
    fast: usize,
    slow: usize,
    speed_pct: u64,
    capacity: usize,
    replicas2: usize,
    max_batch: usize,
) -> PipelineSpec {
    let mut profiles = vec![ReplicaProfile::baseline(capacity); fast];
    profiles.extend(std::iter::repeat_n(
        ReplicaProfile::new(capacity, speed_pct as f64 / 100.0),
        slow,
    ));
    let mut spec = PipelineSpec::new(vec![
        ReplicaGroup::heterogeneous("filter", profiles),
        ReplicaGroup::replicated("rank", capacity, replicas2),
    ]);
    for (i, (s, g)) in [(0.004f64, 0usize), (0.002, 1)].into_iter().enumerate() {
        spec = spec
            .with_stage(
                StageSpec::new(format!("s{i}"), g, 1, s)
                    .with_batch(BatchModel::new(max_batch, 0.25)),
            )
            .unwrap();
    }
    spec
}

proptest! {
    #[test]
    fn sharded_loop_matches_the_serial_loop_for_any_worker_count(
        fast in 1usize..3,
        slow in 0usize..3,
        speed_pct in 20u64..100,
        capacity in 1usize..3,
        replicas2 in 1usize..4,
        max_batch in 1usize..8,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        queries in 100usize..600,
        seed in 0u64..200,
    ) {
        // The per-stage shard decomposition must be invisible: on a
        // shardable spec the sequential (workers = 1) and threaded
        // executors both reproduce the serial loop bit-for-bit across
        // the router x policy x fleet x batching matrix. The worker
        // count is a wall-clock knob, never a results knob.
        let spec = two_backend_pipeline(fast, slow, speed_pct, capacity, replicas2, max_batch);
        let policy = policy_sync(policy_idx);
        let router = router_sync(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let serial = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        for workers in [1usize, 2, 0] {
            let sharded = Scenario::new(&spec, &arrivals, queries, seed)
                .policy(policy.as_ref())
                .router(router.as_ref())
                .workers(workers)
                .run()
                .unwrap();
            prop_assert_eq!(&serial, &sharded, "workers = {}", workers);
        }
    }

    #[test]
    fn ineligible_specs_fall_back_to_the_serial_loop(
        servers in 1usize..4,
        max_batch in 1usize..6,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        closed in proptest::prelude::any::<bool>(),
        queries in 100usize..400,
        seed in 0u64..100,
    ) {
        // Both stages share one resource group, so the decomposition
        // cannot split them; closed-loop arrivals are likewise out of
        // reach. The sharded entry point must detect this and produce
        // the serial result (not wrong answers, not a panic).
        let spec = batched_pipeline(servers, vec![0.004, 0.002], max_batch);
        let policy = policy_sync(policy_idx);
        let router = router_sync(router_idx);
        let (serial, sharded) = if closed {
            let arrivals = ClosedLoopArrivals::new(8, 0.01);
            (
                Scenario::new(&spec, &arrivals, queries, seed)
                    .policy(policy.as_ref())
                    .router(router.as_ref())
                    .run()
                    .unwrap(),
                Scenario::new(&spec, &arrivals, queries, seed)
                    .policy(policy.as_ref())
                    .router(router.as_ref())
                    .workers(0)
                    .run()
                    .unwrap(),
            )
        } else {
            let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
            (
                Scenario::new(&spec, &arrivals, queries, seed)
                    .policy(policy.as_ref())
                    .router(router.as_ref())
                    .run()
                    .unwrap(),
                Scenario::new(&spec, &arrivals, queries, seed)
                    .policy(policy.as_ref())
                    .router(router.as_ref())
                    .workers(0)
                    .run()
                    .unwrap(),
            )
        };
        prop_assert_eq!(serial, sharded);
    }
}

#[test]
fn decay_aware_expected_wait_never_worsens_the_two_generation_tail() {
    // The PR-5 ExpectedWait estimator booked every in-flight batch at
    // its full cost until completion, so a replica about to free up
    // looked as busy as one that just launched. The decay-aware
    // estimator subtracts elapsed service, which matters exactly where
    // generations mix: a slow replica's long batches dominate its
    // apparent backlog long after most of the work has drained. On a
    // two-generation fleet near saturation the decayed estimator's p99
    // must be no worse than the frozen PR-5 one's.
    let profiles = vec![
        ReplicaProfile::baseline(1),
        ReplicaProfile::baseline(1),
        ReplicaProfile::new(1, 0.4),
        ReplicaProfile::new(1, 0.4),
    ];
    let mut spec = PipelineSpec::new(vec![ReplicaGroup::heterogeneous("fleet", profiles)]);
    for (i, s) in [0.002f64, 0.010].into_iter().enumerate() {
        spec = spec
            .with_stage(StageSpec::new(format!("s{i}"), 0, 1, s))
            .unwrap();
    }
    let arrivals = PoissonArrivals::new(0.9 * spec.max_qps_at_full_batch());
    let mut frozen_worse = 0usize;
    for seed in [7u64, 11, 23, 42, 101] {
        let mut decayed = Scenario::new(&spec, &arrivals, 4_000, seed)
            .router(&ExpectedWait)
            .run()
            .unwrap();
        let mut frozen =
            reference_pr5::serve_routed(&spec, &arrivals, &Fifo, &ExpectedWait, 4_000, seed);
        assert!(
            decayed.p99_seconds() <= frozen.p99_seconds() + 1e-9,
            "seed {seed}: decayed p99 {} > frozen p99 {}",
            decayed.p99_seconds(),
            frozen.p99_seconds(),
        );
        if decayed.p99_seconds() + 1e-12 < frozen.p99_seconds() {
            frozen_worse += 1;
        }
    }
    // The improvement is real, not a wash: the tail strictly improves
    // on most seeds of this near-saturated mixed fleet.
    assert!(
        frozen_worse >= 3,
        "decay made a strict difference on only {frozen_worse}/5 seeds"
    );
}

// ------------------------------------------------------------------
// qsim v8: multi-path admission
// ------------------------------------------------------------------

/// The admission-policy rotation: the admit-everything baseline, a
/// deadline policy, and the load-adaptive pair (degrading and
/// shed-only ablation).
fn admission_for(idx: usize) -> Box<dyn AdmissionPolicy> {
    match idx % 4 {
        0 => Box::new(AlwaysPrimary),
        1 => Box::new(DeadlineAware::new(0.05)),
        2 => Box::new(LoadAdaptive::new(1.5, 0.75)),
        _ => Box::new(LoadAdaptive::new(0.8, 0.5).without_degradation()),
    }
}

/// A two-path ladder over one shared replicated fleet: the primary's
/// batched two-stage funnel plus a cheap single-stage alternate.
fn two_path_ladder(
    replicas: usize,
    capacity: usize,
    max_batch: usize,
    lite_quality: f64,
) -> PathSet {
    PathSet::new(vec![ReplicaGroup::replicated("fleet", capacity, replicas)])
        .with_path(
            "full",
            1.0,
            vec![
                StageSpec::new("filter", 0, 1, 0.004).with_batch(BatchModel::new(max_batch, 0.25)),
                StageSpec::new("rank", 0, 1, 0.002).with_batch(BatchModel::new(max_batch, 0.25)),
            ],
        )
        .unwrap()
        .with_path(
            "lite",
            lite_quality,
            vec![StageSpec::new("lite", 0, 1, 0.001)],
        )
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn single_path_always_primary_pins_the_routed_loop_bit_for_bit(
        replicas in 1usize..4,
        capacity in 1usize..3,
        max_batch in 1usize..8,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        quality in 0.0f64..1.0,
        queries in 100usize..600,
        seed in 0u64..200,
    ) {
        // The multi-path machinery must be invisible when unused: a
        // single-path set under the admit-everything policy and a
        // default lifecycle produces the PR-7 routed loop's result
        // bit-for-bit across the router x policy x fleet x batching
        // matrix -- AlwaysPrimary draws no randomness and schedules no
        // events, so the event streams are identical, not just the
        // summaries.
        let spec = replicated_pipeline(replicas, capacity, vec![0.004, 0.002], max_batch);
        let policy = policy_for(policy_idx);
        let router = router_for_v4(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let routed = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        let paths = PathSet::single(spec, quality);
        let mut multi = Scenario::multipath(&paths, &AlwaysPrimary, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&LifecycleConfig::new())
            .run()
            .unwrap();
        prop_assert_eq!(multi.paths.len(), 1);
        prop_assert_eq!(multi.paths[0].admitted, queries);
        prop_assert_eq!(multi.paths[0].completed, queries);
        prop_assert_eq!(multi.admission_shed, 0);
        // Strip the multipath-only accounting; everything else matches
        // the PR-7 loop exactly.
        multi.paths.clear();
        multi.admission_shed = 0;
        prop_assert_eq!(routed, multi);
    }

    #[test]
    fn admission_conserves_every_query_across_policies(
        replicas in 1usize..4,
        capacity in 1usize..3,
        max_batch in 1usize..6,
        admission_idx in 0usize..4,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        lite_quality_pct in 10u64..100,
        queries in 100usize..500,
        seed in 0u64..100,
    ) {
        // Whatever the admission policy decides, every injected query
        // is accounted for exactly once: admitted to some path or shed
        // at the door, and every admitted query completes, is shed by
        // lifecycle, or is dropped -- per path and in aggregate.
        let paths = two_path_ladder(
            replicas,
            capacity,
            max_batch,
            lite_quality_pct as f64 / 100.0,
        );
        let admission = admission_for(admission_idx);
        let policy = policy_for(policy_idx);
        let router = router_for_v4(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let out = Scenario::multipath(&paths, admission.as_ref(), &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&LifecycleConfig::new())
            .run()
            .unwrap();
        let admitted: usize = out.paths.iter().map(|p| p.admitted).sum();
        let completed: usize = out.paths.iter().map(|p| p.completed).sum();
        let path_shed: usize = out.paths.iter().map(|p| p.shed).sum();
        let path_dropped: usize = out.paths.iter().map(|p| p.dropped).sum();
        prop_assert_eq!(admitted + out.admission_shed, queries);
        prop_assert_eq!(completed, out.completed);
        prop_assert_eq!(out.shed, out.admission_shed + path_shed);
        prop_assert_eq!(out.dropped, path_dropped);
        for p in &out.paths {
            prop_assert_eq!(p.admitted, p.completed + p.shed + p.dropped);
        }
        prop_assert_eq!(out.completed + out.shed + out.dropped, queries);
        // Quality-weighted goodput is bounded by raw throughput times
        // the best path quality.
        prop_assert!(out.quality_goodput() <= out.qps * 1.0 + 1e-9);
        // Admission decisions replay deterministically.
        let again = Scenario::multipath(&paths, admission.as_ref(), &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&LifecycleConfig::new())
            .run()
            .unwrap();
        prop_assert_eq!(out, again);
    }
}

/// A replicated batched fleet with a lifecycle schedule attached — the
/// shape the resilience properties run against.
fn faulted_pipeline(
    replicas: usize,
    capacity: usize,
    stages: Vec<f64>,
    max_batch: usize,
    schedule: LifecycleSchedule,
) -> PipelineSpec {
    let group = ReplicaGroup::replicated("fleet", capacity, replicas).with_lifecycle(schedule);
    let mut spec = PipelineSpec::new(vec![group]);
    for (i, s) in stages.into_iter().enumerate() {
        spec = spec
            .with_stage(
                StageSpec::new(format!("s{i}"), 0, 1, s)
                    .with_batch(BatchModel::new(max_batch, 0.25)),
            )
            .unwrap();
    }
    spec
}

/// The retry rotation the conservation property walks: no retries,
/// plain exponential backoff, jittered backoff, and a budgeted policy.
fn retry_for(idx: usize) -> RetryPolicy {
    match idx % 4 {
        0 => RetryPolicy::none(),
        1 => RetryPolicy::new(3, 0.002, 2.0).with_backoff_cap(0.010),
        2 => RetryPolicy::new(4, 0.001, 2.0).with_jitter(0.5),
        _ => RetryPolicy::new(3, 0.002, 2.0).with_budget(RetryBudget::new(5.0, 0.1)),
    }
}

/// The hedge rotation: no hedging, fixed-delay, quantile-derived.
fn hedge_for(idx: usize) -> Option<HedgePolicy> {
    match idx % 3 {
        0 => None,
        1 => Some(HedgePolicy::after(0.004)),
        _ => Some(HedgePolicy::at_quantile(0.95)),
    }
}

/// The fault rotation: a healthy fleet, a correlated degrade burst, a
/// fail-stop burst that recovers (so Requeue stays legal even on a
/// single-replica fleet), and both at once.
fn faults_for(idx: usize, replicas: usize, seed: u64) -> LifecycleSchedule {
    let plan = FaultPlan::new(seed);
    let hit = replicas.div_ceil(2);
    let plan = match idx % 4 {
        0 => plan,
        1 => plan.degrade_burst(0.05, hit, 0.25),
        2 => plan.burst(recpipe_qsim::FaultBurst {
            time: 0.05,
            kind: recpipe_qsim::FaultKind::FailStop,
            count: hit,
            recover_after_s: Some(0.3),
        }),
        _ => plan
            .degrade_burst(0.05, hit, 0.4)
            .burst(recpipe_qsim::FaultBurst {
                time: 0.2,
                kind: recpipe_qsim::FaultKind::FailStop,
                count: 1,
                recover_after_s: Some(0.2),
            }),
    };
    plan.expand(replicas)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn inert_resilience_pins_the_routed_loop_bit_for_bit(
        replicas in 1usize..4,
        capacity in 1usize..3,
        max_batch in 1usize..8,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        retry_idx in 0usize..4,
        queries in 100usize..600,
        seed in 0u64..200,
    ) {
        // The resilience machinery must be invisible when unused: an
        // inert ResilienceConfig (no timeout, no hedge — a retry policy
        // alone arms nothing) under a default lifecycle produces the
        // PR-8 routed loop's result bit-for-bit across the router x
        // policy x fleet x batching matrix. The packed query ids stay
        // in the gen-0/lane-0 encoding, which is byte-identical to the
        // plain encoding, so the event streams match exactly — not
        // just the summaries.
        let spec = replicated_pipeline(replicas, capacity, vec![0.004, 0.002], max_batch);
        let policy = policy_for(policy_idx);
        let router = router_for_v4(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let inert = ResilienceConfig::new().with_retry(retry_for(retry_idx));
        let routed = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .run()
            .unwrap();
        let mut resilient = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&LifecycleConfig::new())
            .resilience(&inert)
            .run()
            .unwrap();
        let stats = resilient.resilience.take().expect("resilient runs report stats");
        prop_assert_eq!(&stats.retries, &vec![0; inert.retry.max_attempts - 1]);
        prop_assert_eq!(stats.timeouts, 0);
        prop_assert_eq!(stats.timed_out, 0);
        prop_assert_eq!(stats.total_retries(), 0);
        prop_assert_eq!(stats.hedges_issued, 0);
        prop_assert_eq!(routed, resilient);
    }

    #[test]
    fn resilience_conserves_every_query_under_fault_retry_hedge_rotation(
        replicas in 1usize..4,
        capacity in 1usize..3,
        max_batch in 1usize..6,
        policy_idx in 0usize..3,
        router_idx in 0usize..6,
        retry_idx in 0usize..4,
        hedge_idx in 0usize..3,
        fault_idx in 0usize..4,
        shed_on_failure in proptest::prelude::any::<bool>(),
        timeout_ms in 4u64..40,
        queries in 100usize..400,
        seed in 0u64..100,
    ) {
        // Whatever the fault x retry x hedge combination does to
        // individual attempts, every injected query resolves exactly
        // once: completed, shed (by lifecycle stranding or the
        // end-of-run sweep), dropped, or timed-out-final.
        let schedule = faults_for(fault_idx, replicas, seed ^ 0xfa157);
        let spec = faulted_pipeline(replicas, capacity, vec![0.004, 0.002], max_batch, schedule);
        let policy = policy_for(policy_idx);
        let router = router_for_v4(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let mut resilience = ResilienceConfig::new()
            .with_timeout(timeout_ms as f64 / 1e3)
            .with_retry(retry_for(retry_idx));
        if let Some(h) = hedge_for(hedge_idx) {
            resilience = resilience.with_hedge(h);
        }
        let cfg = LifecycleConfig::new().with_failure_policy(if shed_on_failure {
            FailurePolicy::Shed
        } else {
            FailurePolicy::Requeue
        });
        let out = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&cfg)
            .resilience(&resilience)
            .run()
            .unwrap();
        let stats = out.resilience.as_ref().expect("resilient runs report stats");
        prop_assert_eq!(
            out.completed + out.shed + out.dropped + stats.timed_out,
            queries
        );
        // Attempt-level sanity: hedges never outnumber issues, retries
        // respect the policy's attempt cap, and every fired timeout is
        // either retried or resolves its query.
        prop_assert!(stats.hedges_won <= stats.hedges_issued);
        let max_retries = retry_for(retry_idx).max_attempts - 1;
        prop_assert!(stats.total_retries() <= queries * max_retries);
        prop_assert_eq!(stats.timeouts, stats.total_retries() + stats.timed_out);
        prop_assert!(stats.retries_denied <= stats.timed_out);
        prop_assert!(stats.wasted_service_s >= 0.0);
        // The whole run replays deterministically from the same seed.
        let again = Scenario::new(&spec, &arrivals, queries, seed)
            .policy(policy.as_ref())
            .router(router.as_ref())
            .lifecycle(&cfg)
            .resilience(&resilience)
            .run()
            .unwrap();
        prop_assert_eq!(out, again);
    }
}

/// Test controller for the autoscale conservation property: demands
/// `hi` replicas while a window leaves queries waiting, `lo` once the
/// backlog clears — a deterministic closed loop driven only by the
/// windowed telemetry, so replays are bit-exact.
struct PressureController {
    lo: usize,
    hi: usize,
}

impl FleetController for PressureController {
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

proptest! {
    #[test]
    fn serve_autoscaled_conserves_queries_and_replays(
        replicas in 2usize..5,
        capacity in 1usize..3,
        max_batch in 1usize..4,
        policy_idx in 0usize..3,
        router_idx in 0usize..4,
        initial_pct in 0u64..=100,
        window_cs in 5u64..30,
        queries in 100usize..400,
        seed in 0u64..100,
    ) {
        // Closed-loop resizing may grow, drain, and re-grow the fleet
        // mid-run, but the accounting is conserved: every injected
        // query completes, is shed, or is dropped; the live fleet never
        // leaves the configured band; and the whole run -- controller
        // decisions included -- replays bit-for-bit from the seed.
        let spec = replicated_pipeline(replicas, capacity, vec![0.004, 0.002], max_batch);
        let policy = policy_for(policy_idx);
        let router = router_for(router_idx);
        let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
        let initial = (1 + initial_pct as usize * (replicas - 1) / 100).clamp(1, replicas);
        let cfg = AutoscaleConfig::new(0, 1, replicas, window_cs as f64 / 100.0)
            .with_initial_replicas(initial);
        let run = || {
            Scenario::new(&spec, &arrivals, queries, seed)
                .policy(policy.as_ref())
                .router(router.as_ref())
                .autoscale(&cfg, &mut PressureController { lo: 1, hi: replicas })
                .run()
                .unwrap()
        };
        let out = run();
        prop_assert_eq!(out.completed + out.shed + out.dropped, queries);
        prop_assert!(!out.windows.is_empty());
        for w in &out.windows {
            prop_assert!(
                w.live_replicas >= 1 && w.live_replicas <= replicas,
                "live fleet {} outside the [1, {}] band",
                w.live_replicas,
                replicas
            );
        }
        let again = run();
        prop_assert_eq!(out, again);
    }
}

// ---------------------------------------------------------------------------
// The pinned shorthands: each is one `Scenario` expression, so each
// must equal that expression bit for bit on a run that exercises it.
// ---------------------------------------------------------------------------

#[test]
fn shorthands_equal_their_scenario_expressions() {
    let spec = two_backend_pipeline(2, 1, 50, 2, 3, 4).with_group_lifecycle(
        1,
        LifecycleSchedule::empty()
            .with_event(LifecycleEvent::fail_stop(0.5, 0))
            .with_event(LifecycleEvent::recover(0.8, 0)),
    );
    let arrivals = MmppArrivals::new(100.0, 800.0, 0.2, 0.1);
    let policy = BatchWindow::new(0.002);
    let cfg = LifecycleConfig::new().with_window(0.25);
    let resilience = ResilienceConfig::new()
        .with_timeout(0.05)
        .with_retry(RetryPolicy::new(2, 0.005, 2.0));
    let (n, seed) = (1_500, 9);
    let base = || {
        Scenario::new(&spec, &arrivals, n, seed)
            .policy(&policy)
            .router(&JoinShortestQueue)
    };

    let routed = base().run().unwrap();
    assert_eq!(
        serve_routed(&spec, &arrivals, &policy, &JoinShortestQueue, n, seed),
        routed
    );
    for workers in [1, 0] {
        assert_eq!(
            serve_routed_sharded(
                &spec,
                &arrivals,
                &policy,
                &JoinShortestQueue,
                n,
                seed,
                workers
            ),
            routed
        );
    }
    assert_eq!(
        serve_lifecycle(&spec, &arrivals, &policy, &JoinShortestQueue, n, seed, &cfg),
        base().lifecycle(&cfg).run()
    );
    assert_eq!(
        serve_resilient(
            &spec,
            &arrivals,
            &policy,
            &JoinShortestQueue,
            n,
            seed,
            &cfg,
            &resilience
        ),
        base().lifecycle(&cfg).resilience(&resilience).run()
    );
    assert_eq!(
        spec.simulate(300.0, n, seed),
        Scenario::new(&spec, &PoissonArrivals::new(300.0), n, seed)
            .run()
            .unwrap()
    );
}
