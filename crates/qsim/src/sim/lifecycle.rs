//! The replica lifecycle: per-slot availability states, the five
//! scheduled transitions, parking while a group is fully down, and the
//! autoscaler that acts through the same transitions. Armed only when
//! some group's schedule has an event or an autoscaler is attached; a
//! run without it keeps every slot up at its profile speed.

use super::{Event, EventKind, Fate, Sim};
use crate::{
    AutoscaleConfig, FailurePolicy, FleetController, LifecycleAction, LifecycleConfig,
    LifecycleEvent, SimError,
};

/// Availability state of one replica slot — the lifecycle state
/// machine `warming → up → draining → down` (fail-stop jumps from any
/// live state straight to `Down`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Warming up: serves at reduced speed and accepts routes.
    Warming,
    /// Fully available.
    Up,
    /// Finishing queued and in-flight work; accepts no new routes.
    Draining,
    /// Not serving; holds no units, no queue, accepts no routes.
    Down,
}

/// Autoscaling runtime: a validated [`AutoscaleConfig`]'s band and
/// the controller every closing window consults.
struct ScaleRt<'a> {
    group: usize,
    min: usize,
    max: usize,
    warmup_s: f64,
    controller: &'a mut dyn FleetController,
}

/// The lifecycle runtime: per-slot states and speed factors, the
/// flattened schedule, parked queries, and the autoscaler.
pub(super) struct LifecycleRt<'a> {
    /// What happens to queries stranded by failures.
    failure_policy: FailurePolicy,
    /// Speed multiplier applied while a slot warms.
    warmup_speed: f64,
    state: Vec<SlotState>,
    /// Per-slot warm-up factor: `warmup_speed` from a provision with
    /// warm-up until warm (a drain cut short keeps it), else 1.0.
    warm: Vec<f64>,
    /// Per-slot gray-failure (limpware) speed fraction: 1.0 when
    /// healthy, `(0, 1)` while degraded.
    degrade: Vec<f64>,
    /// Per-slot generation: bumped on every provision, drain, and
    /// fail-stop so in-flight `WarmDone` events cancel lazily.
    slot_gen: Vec<u64>,
    /// Routable (up or warming) replicas per group — the fast "is
    /// masking needed at all" check.
    group_available: Vec<usize>,
    /// Pending scheduled revivals (provision/recover) per group: while
    /// positive, unroutable queries park instead of failing the run.
    revivals_left: Vec<usize>,
    /// Per-group parked queries `(query, stage)` awaiting a revival.
    parked: Vec<Vec<(usize, usize)>>,
    /// The typed all-replicas-down error, checked after every arrival.
    pub(super) fatal: Option<SimError>,
    /// Flattened static schedule: `(slot, event)` per scheduled
    /// lifecycle event, indexed by a `Lifecycle` event's payload.
    sched: Vec<(usize, LifecycleEvent)>,
    scale: Option<ScaleRt<'a>>,
}

impl LifecycleRt<'_> {
    /// Whether `group`, of `replicas` slots, has an unroutable one.
    pub(super) fn masks(&self, group: usize, replicas: usize) -> bool {
        self.group_available[group] < replicas
    }

    /// Whether routers may send new work to `slot`: up or warming.
    pub(super) fn routable(&self, slot: usize) -> bool {
        matches!(self.state[slot], SlotState::Warming | SlotState::Up)
    }
}

impl<'a> Sim<'a> {
    /// Attaches the lifecycle runtime when some group's schedule has an
    /// event or `scale` attaches an autoscaler: flattens every schedule
    /// into timed events (group-major, schedule order) and takes
    /// replicas `initial_replicas..` of the scaled group down.
    pub(super) fn arm_lifecycle(
        &mut self,
        cfg: &LifecycleConfig,
        scale: Option<(&AutoscaleConfig, &'a mut dyn FleetController)>,
    ) {
        let resources = self.spec.resources();
        if scale.is_none() && resources.iter().all(|r| r.lifecycle().is_empty()) {
            return;
        }
        let (slots, groups) = (self.slot_group.len(), resources.len());
        let mut life = LifecycleRt {
            failure_policy: cfg.failure_policy,
            warmup_speed: cfg.warmup_speed,
            state: vec![SlotState::Up; slots],
            warm: vec![1.0; slots],
            degrade: vec![1.0; slots],
            slot_gen: vec![0; slots],
            group_available: self.group_replicas.clone(),
            revivals_left: vec![0; groups],
            parked: vec![Vec::new(); groups],
            fatal: None,
            sched: Vec::new(),
            scale: None,
        };
        for (g, r) in resources.iter().enumerate() {
            for &event in r.lifecycle().events() {
                life.revivals_left[g] += usize::from(event.revives());
                self.push(event.time, EventKind::Lifecycle, life.sched.len(), 0);
                life.sched.push((self.slot_base[g] + event.replica, event));
            }
        }
        self.life = Some(Box::new(life));
        if let Some((cfg, controller)) = scale {
            for slot in self.group_slots(cfg.group).skip(cfg.initial_replicas) {
                self.slot_down(slot);
            }
            self.life_mut().scale = Some(ScaleRt {
                group: cfg.group,
                min: cfg.min_replicas,
                max: cfg.max_replicas,
                warmup_s: cfg.warmup_s,
                controller,
            });
        }
    }

    /// The attached runtime's state, for a transition to read and write.
    fn life_mut(&mut self) -> &mut LifecycleRt<'a> {
        self.life.as_mut().expect("lifecycle runtime attached")
    }

    /// A query arrived at a group with no routable replica. Under `Shed`
    /// it is lost like stranded queued work; under `Requeue` it parks
    /// while a revival is coming (a pending scheduled provision/recover,
    /// or an autoscaler that may yet provision), and otherwise the run
    /// fails with the typed [`SimError::NoAvailableReplica`] instead of
    /// waiting forever (or panicking inside a router).
    pub(super) fn handle_unroutable(&mut self, now: f64, query: usize, stage_idx: usize) {
        let group = self.stages[stage_idx].resource;
        let life = self.life.as_mut().expect("lifecycle runtime attached");
        if life.failure_policy == FailurePolicy::Shed {
            self.strand(now, query, stage_idx, Fate::Shed);
        } else if life.revivals_left[group] > 0
            || life.scale.as_ref().is_some_and(|s| s.group == group)
        {
            life.parked[group].push((query, stage_idx));
            self.gauges.queued += 1;
        } else {
            life.fatal = Some(SimError::NoAvailableReplica { group, time: now });
        }
    }

    /// Disposes of a query stranded by a fail-stop: re-enters it as a
    /// fresh arrival at the same stage (Requeue — its original arrival
    /// time is kept, so the lost work shows up as latency) or resolves
    /// it as `lost`, shed or dropped (Shed).
    fn strand(&mut self, now: f64, query: usize, stage_idx: usize, lost: Fate) {
        let requeue = self.life_mut().failure_policy == FailurePolicy::Requeue;
        if self.resil.is_some() {
            // A stranded carcass simply evaporates (its query already
            // resolved); a live lane re-enters under Requeue, and under
            // Shed the *lane* is lost but the query stays live — its
            // timeout (or the end-of-run sweep) resolves it, and a
            // hedge twin may still complete it.
            if requeue && self.lane_live(query) {
                self.push_arrive(now, query, stage_idx);
            }
        } else if requeue {
            self.push_arrive(now, query, stage_idx);
        } else {
            self.resolve(now, query, lost);
        }
    }

    /// Re-enters every query parked on `group` as a fresh arrival at
    /// `now` (a replica just revived), in parking order.
    fn flush_parked(&mut self, now: f64, group: usize) {
        let mut parked = std::mem::take(&mut self.life_mut().parked[group]);
        self.gauges.queued -= parked.len();
        for (query, stage_idx) in parked.drain(..) {
            self.push_arrive(now, query, stage_idx);
        }
        self.life_mut().parked[group] = parked; // give the buffer back
    }

    /// Takes `slot` down: it holds no work and no units, and stops
    /// counting toward its group's routable replicas and the live
    /// capacity and cost.
    fn slot_down(&mut self, slot: usize) {
        let group = self.slot_group[slot];
        let life = self.life_mut();
        if life.routable(slot) {
            life.group_available[group] -= 1;
        }
        life.state[slot] = SlotState::Down;
        (self.queued[slot], self.in_flight[slot], self.free[slot]) = (0, 0, 0);
        if self.track_est {
            self.queued_work[slot] = 0.0;
            self.inflight_finish[slot] = 0.0;
            self.inflight_count[slot] = 0;
        }
        self.gauges.capacity -= self.slot_capacity[slot];
        self.gauges.cost -= self.slot_speed[slot];
    }

    /// A draining slot that holds no more work goes down.
    pub(super) fn down_if_drained(&mut self, slot: usize) {
        let draining = self.life_mut().state[slot] == SlotState::Draining;
        if draining && self.in_flight[slot] == 0 && self.queued[slot] == 0 {
            self.slot_down(slot);
        }
    }

    /// Sets `slot`'s service rate: its profile speed times its warm-up
    /// factor times its degrade fraction. `x * 1.0` is exact, so a warm,
    /// healthy slot serves at exactly its profile speed.
    fn refresh_speed(&mut self, slot: usize) {
        let life = self.life.as_ref().expect("lifecycle runtime attached");
        self.cur_speed[slot] = self.slot_speed[slot] * life.warm[slot] * life.degrade[slot];
    }

    /// Scheduled lifecycle event `idx` fires against its slot. A
    /// recovery provisions a down slot instantly, or — the limpware
    /// repair edge — lifts a live slot's limp in place (a slot cut off
    /// mid-warm-up by a drain keeps its warm-up speed).
    pub(super) fn on_lifecycle(&mut self, now: f64, idx: usize) {
        let life = self.life.as_mut().expect("lifecycle runtime attached");
        let (slot, ev) = life.sched[idx];
        if ev.revives() {
            life.revivals_left[self.slot_group[slot]] -= 1;
        }
        let down = life.state[slot] == SlotState::Down;
        match ev.action {
            LifecycleAction::Provision { warmup_s } => self.apply_provision(now, slot, warmup_s),
            LifecycleAction::Recover if down => self.apply_provision(now, slot, 0.0),
            LifecycleAction::Recover => self.apply_degrade(slot, 1.0),
            LifecycleAction::Degrade { speed } => self.apply_degrade(slot, speed),
            LifecycleAction::Drain => self.apply_drain(slot),
            LifecycleAction::FailStop => self.apply_fail_stop(now, slot),
        }
    }

    /// `slot` finishes warming and sheds its warm-up factor, unless a
    /// drain or fail-stop since its provision bumped the generation.
    pub(super) fn on_warm_done(&mut self, slot: usize, gen: u32) {
        let life = self.life_mut();
        if gen == Event::gen32(life.slot_gen[slot]) && life.state[slot] == SlotState::Warming {
            life.state[slot] = SlotState::Up;
            life.warm[slot] = 1.0;
            self.refresh_speed(slot);
        }
    }

    /// Brings a down slot up, through `warmup_s` of reduced-speed
    /// warm-up when positive. No-op on a slot that is not down (a
    /// schedule may provision an already-live replica). Parked queries
    /// of the group re-enter immediately.
    fn apply_provision(&mut self, now: f64, slot: usize, warmup_s: f64) {
        let group = self.slot_group[slot];
        let life = self.life.as_mut().expect("lifecycle runtime attached");
        if life.state[slot] != SlotState::Down {
            return;
        }
        (life.state[slot], life.warm[slot]) = if warmup_s > 0.0 {
            (SlotState::Warming, life.warmup_speed)
        } else {
            (SlotState::Up, 1.0)
        };
        life.degrade[slot] = 1.0; // a provision is a fresh machine
        life.slot_gen[slot] += 1;
        life.group_available[group] += 1;
        let gen = Event::gen32(life.slot_gen[slot]);
        // The estimator columns stay zeroed from the slot going down.
        self.free[slot] = self.slot_capacity[slot];
        self.gauges.capacity += self.slot_capacity[slot];
        self.gauges.cost += self.slot_speed[slot];
        self.refresh_speed(slot);
        if warmup_s > 0.0 {
            self.push(now + warmup_s, EventKind::WarmDone, slot, gen);
        }
        self.flush_parked(now, group);
    }

    /// Gray failure (limpware): the slot keeps serving — and keeps
    /// accepting routes, invisibly to availability masking — at
    /// `speed` of its rate. Applies to batches launched from now on
    /// (in-flight batches keep their booked finish; queued work, the
    /// bulk under load, is slowed). Estimator-reading routers see the
    /// limp through `cur_speed`. No-op on a down slot.
    fn apply_degrade(&mut self, slot: usize, speed: f64) {
        let life = self.life_mut();
        if life.state[slot] != SlotState::Down {
            life.degrade[slot] = speed;
            self.refresh_speed(slot);
        }
    }

    /// Takes a live slot out of rotation: no new routes, queued and
    /// in-flight work finishes, and the slot goes down once empty. A
    /// draining warming replica keeps its warm-up speed for the drain
    /// (it never finished warming). No-op unless the slot is up or
    /// warming.
    fn apply_drain(&mut self, slot: usize) {
        let group = self.slot_group[slot];
        let life = self.life_mut();
        if !life.routable(slot) {
            return;
        }
        life.state[slot] = SlotState::Draining;
        life.slot_gen[slot] += 1; // cancels any pending WarmDone
        life.group_available[group] -= 1;
        self.down_if_drained(slot);
    }

    /// Kills a slot instantly: in-flight batches are destroyed (their
    /// completions cancel via the batch generation, their unserved busy
    /// time is refunded) and both in-flight and queued queries are
    /// stranded per the failure policy — in-flight queries first (batch
    /// table order), then queued ones in queue order, all re-entering at
    /// `now` with fresh seqs. No-op on a slot already down.
    fn apply_fail_stop(&mut self, now: f64, slot: usize) {
        if self.life_mut().state[slot] == SlotState::Down {
            return;
        }
        for idx in 0..self.batches.len() {
            if self.batches[idx].slot != slot || self.free_batches.contains(&idx) {
                continue;
            }
            let batch = self.retire_batch(idx);
            self.batch_gen[idx] += 1; // cancels the pending Complete
            let (stage, units) = (batch.stage, self.stages[batch.stage].units);
            self.busy_unit_seconds[slot] -= units as f64 * (batch.finish - now).max(0.0);
            self.gauges.busy -= units;
            self.for_each_query(batch.queries, |sim, query| {
                sim.strand(now, query, stage, Fate::Dropped)
            });
        }
        let mut stranded = std::mem::take(&mut self.waiting[slot]);
        self.gauges.queued -= stranded.len();
        for entry in stranded.drain(..) {
            self.strand(now, entry.query, entry.stage, Fate::Shed);
        }
        self.waiting[slot] = stranded; // give the buffer back
        self.armed[slot] = None;
        self.timer_gen[slot] += 1; // cancels pending rechecks
        self.life_mut().slot_gen[slot] += 1; // cancels a pending WarmDone
        self.slot_down(slot);
    }

    /// Routable replicas: of the scaled group when a controller is
    /// attached (the number it steers), else of the whole fleet.
    pub(super) fn live_replicas(&self) -> usize {
        let Some(life) = self.life.as_ref() else {
            return self.slot_group.len();
        };
        let scaled = life.scale.as_ref().map(|s| self.group_slots(s.group));
        let slots = scaled.unwrap_or(0..life.state.len());
        slots.filter(|&s| life.routable(s)).count()
    }

    /// Consults the autoscaling controller with the window that just
    /// closed and applies its decision: provision the lowest-index down
    /// slots to scale up, drain the highest-index routable ones to
    /// scale down (drains never kill live work).
    pub(super) fn autoscale_tick(&mut self, now: f64) {
        let live = self.live_replicas();
        let window = self.tele.as_ref().and_then(|t| t.windows.last());
        let scale = self.life.as_mut().and_then(|l| l.scale.as_mut());
        let (Some(scale), Some(window)) = (scale, window) else {
            return;
        };
        let desired = scale
            .controller
            .desired_replicas(window, live)
            .clamp(scale.min, scale.max);
        let (group, warmup_s) = (scale.group, scale.warmup_s);
        let slots = self.group_slots(group);
        // A transition changes only its own slot, so both picks can be
        // made up front.
        let life = self.life.as_ref().expect("lifecycle runtime attached");
        let up: Vec<_> = (slots.clone().filter(|&s| life.state[s] == SlotState::Down))
            .take(desired.saturating_sub(live))
            .collect();
        let drain: Vec<_> = (slots.rev().filter(|&s| life.routable(s)))
            .take(live.saturating_sub(desired))
            .collect();
        for slot in up {
            self.apply_provision(now, slot, warmup_s);
        }
        for slot in drain {
            self.apply_drain(slot);
        }
    }
}
