//! The event queue: a binary heap with in-order lanes beside it.
//!
//! Every event orders by one integer, its [`Event::order`] key: the
//! time's canonical IEEE total-order bits above its seq (see [`Event`]).
//! So a compare is one unsigned compare, not a float compare and a
//! tie-break. Most events are created in the order they fire, and those
//! skip the heap, each on its source's lane:
//! - Next-stage, requeued and parked-flush arrivals enter at `now`. A
//!   run has one timeout, so an attempt starting now times out at
//!   `now + timeout_s`. Hedges fire at `now + delay`, and a quantile
//!   delay moves at most every 64 completions. Each of these kinds has
//!   a lane, which [`push`](EventQueue::push) picks by kind. The timeout
//!   and hedge lanes exist only on runs that arm resilience
//!   ([`arm_timers`](EventQueue::arm_timers)).
//! - Only one schedule arrival is staged at a time, so it has a
//!   one-event lane ([`push_schedule`](EventQueue::push_schedule)).
//! - A stage's single-query launches at full speed all take the stage's
//!   one service time, so they finish in launch order. Each stage has a
//!   completion lane for them
//!   ([`push_completion`](EventQueue::push_completion)).
//!
//! An event joins its lane when it pops after the lane's back, and goes
//! on the heap otherwise, so every lane stays sorted. Events created out
//! of order go straight onto the heap ([`push_heap`](EventQueue::push_heap)):
//! batches' and slowed slots' completions, and a retry's arrival and
//! timers, which fire after its backoff, ahead of their lanes' backs. So
//! do rechecks, lifecycle events, warm-ups and window ticks.
//!
//! The least pending event is the least of the lane fronts and the heap
//! top. A winner tree over the sources' fronts names it. A pop replays
//! one leaf-to-root path, one integer compare a level, so a pipeline
//! with many stages pays `log2` of its sources per pop and never scans
//! the lanes. An event pushed before every pending one (a next-stage
//! arrival at `now`, often the staged schedule arrival) waits in a
//! one-event slot instead, and the pop that takes it touches no lane, no
//! heap and no tree.
//!
//! Keys are unique, so `Event`'s order is total, and the queue pops
//! exactly the sequence one heap holding every event would pop.

use std::collections::{BinaryHeap, VecDeque};

use super::{Event, EventKind};

/// The heap's source index. `lanes[HEAP]` stands in for it and stays
/// empty, so that lane `i` is source `i`.
const HEAP: usize = 0;
/// The arrive lane: next-stage, requeued and parked-flush arrivals.
const ARRIVE: usize = 1;
/// The staged schedule arrival's lane.
const SCHEDULE: usize = 2;
/// Stage `s`'s completion lane is lane `COMPLETE + s`; the timeout and
/// hedge lanes follow the completion lanes once a run arms them.
const COMPLETE: usize = 3;
/// An empty source's front, after every event: no event's time has the
/// order bits of a NaN.
const EMPTY: Front = Front {
    order: u128::MAX,
    source: HEAP,
};

/// A source and the order key of its first event: a winner-tree node.
#[derive(Clone, Copy)]
struct Front {
    order: u128,
    source: usize,
}

/// A run's pending events, popped in [`Event::order`].
pub(super) struct EventQueue {
    /// An event that was the least pending one when it was pushed, and
    /// still is: the next pop takes it without touching a lane, the heap
    /// or the tree. It keeps the source it would have joined, for when a
    /// lesser push displaces it.
    next: Option<(usize, Event)>,
    heap: BinaryHeap<Event>,
    /// The lanes, by source: the heap's empty stand-in, the arrive and
    /// schedule lanes, one completion lane per stage, and the timeout
    /// and hedge lanes once armed. Each is sorted by [`Event::order`].
    lanes: Vec<VecDeque<Event>>,
    /// The timeout and hedge lanes' sources: [`HEAP`] until
    /// [`arm_timers`](Self::arm_timers), so that a run without timers
    /// keeps two sources out of the tree.
    timers: [usize; 2],
    /// A winner tree over the sources' fronts, one [`Front`] per node:
    /// leaf node `leaves + i` holds source `i`'s front (the padding up
    /// to a power of two stays empty), and each node below `leaves`
    /// holds the lesser of its two children. Node 1, the root, names the
    /// least event on a source; node 0 is unused.
    tree: Vec<Front>,
    /// The last event popped; the next one must pop strictly after it.
    #[cfg(debug_assertions)]
    last: Option<Event>,
    #[cfg(test)]
    pub(super) counts: Counts,
}

impl EventQueue {
    /// An empty queue for a pipeline of `stages` stages.
    pub(super) fn new(stages: usize) -> Self {
        let mut queue = Self {
            next: None,
            heap: BinaryHeap::new(),
            lanes: vec![VecDeque::new(); COMPLETE + stages],
            timers: [HEAP; 2],
            tree: Vec::new(),
            #[cfg(debug_assertions)]
            last: None,
            #[cfg(test)]
            counts: Counts::default(),
        };
        queue.build_tree();
        queue
    }

    /// Adds the timeout and hedge lanes, for a run that arms resilience,
    /// rebuilding the tree when they need more leaves.
    pub(super) fn arm_timers(&mut self) {
        let timeout = self.lanes.len();
        self.timers = [timeout, timeout + 1];
        self.lanes.extend([VecDeque::new(), VecDeque::new()]);
        if self.lanes.len() > self.tree.len() / 2 {
            self.build_tree();
        }
    }

    /// Builds the winner tree over every source's front.
    fn build_tree(&mut self) {
        let leaves = self.lanes.len().next_power_of_two();
        let mut tree = vec![EMPTY; 2 * leaves];
        for source in 0..leaves {
            let front = match source {
                HEAP => self.heap.peek(),
                _ => self.lanes.get(source).and_then(VecDeque::front),
            };
            let order = front.map_or(EMPTY.order, Event::order);
            tree[leaves + source] = Front { order, source };
        }
        for node in (1..leaves).rev() {
            let (left, right) = (tree[2 * node], tree[2 * node + 1]);
            tree[node] = if right.order < left.order {
                right
            } else {
                left
            };
        }
        self.tree = tree;
    }

    /// Queues `event` on its kind's lane (arrive, timeout or hedge), or
    /// on the heap for any other kind. `Sim::push`'s seqs only grow, so
    /// an arrive, timeout or hedge event reaches the heap only when its
    /// time is earlier than its lane's back.
    #[inline]
    pub(super) fn push(&mut self, event: Event) {
        let source = match event.kind() {
            EventKind::Arrive => ARRIVE,
            EventKind::Timeout => self.timers[0],
            EventKind::Hedge => self.timers[1],
            _ => HEAP,
        };
        self.push_to(source, event);
    }

    /// Queues the staged schedule arrival on its lane. It is staged
    /// ahead of `now` with its query index as seq, so on the arrive lane
    /// it would send every next-stage arrival created before it fires to
    /// the heap.
    #[inline]
    pub(super) fn push_schedule(&mut self, event: Event) {
        debug_assert!(self.lanes[SCHEDULE].is_empty(), "one staged arrival");
        self.push_to(SCHEDULE, event);
    }

    /// Queues a single-query, full-speed completion of `stage` on the
    /// stage's completion lane.
    #[inline]
    pub(super) fn push_completion(&mut self, stage: usize, event: Event) {
        self.push_to(COMPLETE + stage, event);
    }

    /// Queues `event` on the heap, whatever its kind.
    #[inline]
    pub(super) fn push_heap(&mut self, event: Event) {
        self.push_to(HEAP, event);
    }

    /// Queues `event` for `source`: in `next` when it pops before every
    /// pending event, displacing the one there, and on `source`
    /// otherwise.
    #[inline]
    fn push_to(&mut self, source: usize, event: Event) {
        #[cfg(test)]
        {
            self.counts.pushes += 1;
        }
        let least = match &self.next {
            Some((_, next)) => next.order(),
            None => self.tree[1].order,
        };
        if event.order() < least {
            if let Some((source, event)) = self.next.replace((source, event)) {
                self.place(source, event);
            }
        } else {
            self.place(source, event);
        }
    }

    /// Puts `event` on `source`: at the back of a lane when it pops
    /// after the back, and on the heap otherwise.
    #[inline]
    fn place(&mut self, source: usize, event: Event) {
        let order = event.order();
        if source != HEAP {
            let lane = &mut self.lanes[source];
            match lane.back().map(Event::order) {
                Some(back) if back > order => {}
                back => {
                    lane.push_back(event);
                    if back.is_none() {
                        self.replay(source, order);
                    }
                    return;
                }
            }
        }
        #[cfg(test)]
        {
            self.counts.heap_pushes += 1;
        }
        self.heap.push(event);
        if order < self.tree[self.tree.len() / 2 + HEAP].order {
            self.replay(HEAP, order);
        }
    }

    /// Whether no event is pending.
    pub(super) fn is_empty(&self) -> bool {
        self.next.is_none() && self.tree[1].order == EMPTY.order
    }

    /// The event the next [`pop`](Self::pop) returns.
    pub(super) fn peek(&self) -> Option<&Event> {
        if let Some((_, next)) = &self.next {
            return Some(next);
        }
        match self.tree[1].source {
            HEAP => self.heap.peek(),
            source => self.lanes[source].front(),
        }
    }

    /// Removes and returns the least pending event.
    #[inline]
    pub(super) fn pop(&mut self) -> Option<Event> {
        #[cfg(test)]
        {
            self.counts.heap_len += self.heap.len() as u64;
        }
        let event = match self.next.take() {
            Some((_source, event)) => {
                #[cfg(test)]
                self.counts.popped(None, _source == SCHEDULE, &event);
                event
            }
            None => {
                let source = self.tree[1].source;
                let (event, front) = match source {
                    HEAP => (self.heap.pop()?, self.heap.peek()),
                    _ => {
                        let lane = &mut self.lanes[source];
                        (lane.pop_front()?, lane.front())
                    }
                };
                let front = front.map_or(EMPTY.order, Event::order);
                self.replay(source, front);
                #[cfg(test)]
                self.counts
                    .popped(Some(source == HEAP), source == SCHEDULE, &event);
                event
            }
        };
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.last.is_none_or(|last| last.order() < event.order()),
                "events must pop in strictly increasing order: {:?} after {:?}",
                event,
                self.last
            );
            self.last = Some(event);
        }
        Some(event)
    }

    /// Sets `source`'s front key to `order` and replays its path to the
    /// root: each node on it takes the lesser of the front rising from
    /// below and the node's sibling. Which of the two wins is as good as
    /// random, so the lesser is picked by its index, not by a branch.
    #[inline]
    fn replay(&mut self, source: usize, order: u128) {
        let mut node = self.tree.len() / 2 + source;
        self.tree[node] = Front { order, source };
        while node > 1 {
            let less = self.tree[node ^ 1].order < self.tree[node].order;
            let least = self.tree[node ^ usize::from(less)];
            node /= 2;
            self.tree[node] = least;
        }
    }
}

/// Test-only work counts: events pushed, heap pushes, events popped by
/// kind from the heap and from elsewhere, and the heap's length summed
/// over pops.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct Counts {
    pub(super) pushes: u64,
    pub(super) heap_pushes: u64,
    /// Heap pops by kind.
    pub(super) heap: [u64; 8],
    /// Pops by kind from a lane or the `next` slot: every pop that is
    /// not a heap pop.
    pub(super) off_heap: [u64; 8],
    /// Of those, pops from the `next` slot.
    pub(super) next: u64,
    /// Schedule arrivals popped: from the schedule lane or the `next`
    /// slot, never the heap.
    pub(super) schedule: u64,
    /// The heap's length at each pop, summed: over `pops()`, the mean
    /// heap length a pop sees.
    pub(super) heap_len: u64,
}

#[cfg(test)]
impl Counts {
    /// Counts `event`, popped from the heap or a lane (`Some(from_heap)`)
    /// or from the `next` slot (`None`); `schedule` when it is the
    /// schedule arrival.
    fn popped(&mut self, from_heap: Option<bool>, schedule: bool, event: &Event) {
        let kind = event.kind() as usize;
        match from_heap {
            Some(true) => self.heap[kind] += 1,
            Some(false) => self.off_heap[kind] += 1,
            None => {
                self.off_heap[kind] += 1;
                self.next += 1;
            }
        }
        self.schedule += u64::from(schedule);
    }

    /// Events popped from any source.
    pub(super) fn pops(&self) -> u64 {
        self.heap.iter().chain(&self.off_heap).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;

    use super::*;
    use crate::router::splitmix64;

    /// A uniform draw in `0..n` from a splitmix stream.
    fn below(rng: &mut u64, n: u64) -> u64 {
        splitmix64(rng) % n
    }

    /// The reference order the key must match: `(time, key)` with a
    /// float compare on the time, `-0.0` tying `+0.0`. Reversed, like
    /// `Event`'s `Ord`, for a max-heap.
    fn reference_cmp(a: (f64, u64), b: (f64, u64)) -> Ordering {
        b.0.partial_cmp(&a.0)
            .unwrap_or(Ordering::Equal)
            .then(b.1.cmp(&a.1))
    }

    /// An event in a reference heap ordered by [`reference_cmp`] on the
    /// time it was created with.
    #[derive(Debug, Clone, Copy)]
    struct Reference {
        time: f64,
        event: Event,
    }

    impl PartialEq for Reference {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }

    impl Eq for Reference {}

    impl Ord for Reference {
        fn cmp(&self, other: &Self) -> Ordering {
            reference_cmp((self.time, self.event.key), (other.time, other.event.key))
        }
    }

    impl PartialOrd for Reference {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    #[test]
    fn the_order_key_orders_like_the_float_comparator() {
        let tiny = f64::MIN_POSITIVE;
        let times = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            tiny / 4.0,
            -tiny / 4.0,
            tiny,
            -tiny,
            1e-300,
            -1e-300,
            0.25,
            1.0,
            -1.0,
            -2.5,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let kinds = [EventKind::Arrive, EventKind::Complete, EventKind::Hedge];
        let mut events = Vec::new();
        for &time in &times {
            for seq in [0, 1, 7, 1 << 40] {
                for kind in kinds {
                    events.push((time, Event::new(time, seq, kind, 3, 5)));
                }
            }
        }
        for &(ta, a) in &events {
            // The decoded time is the time, bit for bit, but for `-0.0`,
            // which canonicalizes to the `+0.0` it equals.
            let canonical = if ta == 0.0 { 0.0 } else { ta };
            assert_eq!(a.time().to_bits(), canonical.to_bits(), "{ta:e}");
            for &(tb, b) in &events {
                let want = reference_cmp((ta, a.key), (tb, b.key));
                assert_eq!(
                    a.cmp(&b),
                    want,
                    "{ta:e} seq {} vs {tb:e} seq {}",
                    a.seq(),
                    b.seq()
                );
                assert_eq!(b.order().cmp(&a.order()), want);
            }
        }
    }

    #[test]
    fn pops_exactly_the_sequence_one_heap_pops() {
        // The queue and a plain heap ordered by the float comparator
        // take the same interleaved pushes and pops. Times sit on a
        // coarse grid from below zero, so many events tie on time; while
        // the clock is below zero a third of the pushes land on zero, and
        // a zero time is `-0.0` half the time. Pushes go to every lane:
        // by kind (every tag occurs), the schedule lane while it is
        // empty, the completion lanes of four stages, and the heap
        // straight. Lane pushes often land below their lane's back and
        // must fall back to the heap; schedule pushes carry small keys,
        // like staged schedule arrivals. The timer lanes are armed
        // mid-run, with events pending, and their two extra sources
        // take the tree from 8 leaves to 16. As in the loop, nothing is
        // pushed before the last popped event: a dynamic push takes the
        // next (largest) seq at or after `now`, and a schedule push lands
        // strictly after `now`.
        let stages = 4;
        for seed in 0..16 {
            let mut rng = seed;
            let mut queue = EventQueue::new(stages);
            let mut heap = BinaryHeap::new();
            let (mut now, mut seq, mut scheduled) = (-2.0, 1u64 << 32, 0u64);
            let mut completion_high = 0;
            for op in 0..6_000 {
                if op == 300 {
                    queue.arm_timers();
                }
                let draw = below(&mut rng, 16);
                if draw >= 8 {
                    let popped = queue.pop();
                    assert_eq!(
                        popped,
                        heap.pop().map(|r: Reference| r.event),
                        "seed {seed}"
                    );
                    if let Some(event) = popped {
                        now = event.time();
                    }
                } else {
                    let step = u64::from(draw == 1) + below(&mut rng, 8);
                    let mut time = now + 0.25 * step as f64;
                    if now < 0.0 && below(&mut rng, 3) == 0 {
                        time = 0.0;
                    }
                    if time == 0.0 && below(&mut rng, 2) == 0 {
                        time = -0.0;
                    }
                    let event = if draw == 1 {
                        Event::new(time, scheduled, EventKind::Arrive, scheduled as usize, 0)
                    } else {
                        let tag = below(&mut rng, 8);
                        let event = Event::new(time, seq, EventKind::Arrive, 0, 0);
                        seq += 1;
                        Event {
                            key: event.key | tag,
                            a: below(&mut rng, 1 << 16) as u32,
                            ..event
                        }
                    };
                    match draw {
                        1 if queue.lanes[SCHEDULE].is_empty() => {
                            scheduled += 1;
                            queue.push_schedule(event);
                        }
                        1 => continue,
                        2 | 3 => {
                            let stage = below(&mut rng, stages as u64) as usize;
                            queue.push_completion(stage, event);
                        }
                        4 => queue.push_heap(event),
                        _ => queue.push(event),
                    }
                    heap.push(Reference { time, event });
                }
                assert_eq!(queue.peek(), heap.peek().map(|r| &r.event), "seed {seed}");
                assert_eq!(queue.is_empty(), heap.is_empty(), "seed {seed}");
                let completions = queue.lanes[COMPLETE..COMPLETE + stages].iter();
                let completions = completions.map(VecDeque::len);
                completion_high = completion_high.max(completions.max().unwrap_or(0));
            }
            while let Some(reference) = heap.pop() {
                assert_eq!(queue.pop(), Some(reference.event), "seed {seed}");
            }
            assert!(queue.is_empty() && queue.pop().is_none());
            // Every path ran: kind-lane events popped from off the heap
            // and, having landed below their lane's back, from the heap;
            // the completion lanes held events; and some pushes went to
            // the `next` slot.
            let c = queue.counts;
            for kind in [EventKind::Arrive, EventKind::Timeout, EventKind::Hedge] {
                let k = kind as usize;
                assert!(c.off_heap[k] > 0 && c.heap[k] > 0, "seed {seed}: {c:?}");
            }
            assert!(completion_high > 1, "seed {seed}");
            assert_eq!(queue.tree.len(), 2 * 16);
            assert!(c.schedule > 0 && c.next > 0, "seed {seed}: {c:?}");
            assert_eq!(c.pops(), c.pushes);
        }
    }
}
