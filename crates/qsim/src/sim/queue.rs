//! The event queue: a binary heap with three in-order FIFOs beside it.
//!
//! Three kinds of event are mostly created in the order they fire.
//! Next-stage, requeued and parked-flush arrivals enter at `now`. A
//! run has one timeout, so an attempt starting now times out at
//! `now + timeout_s`. Hedges fire at `now + delay`, and a quantile
//! delay moves at most every 64 completions. Each of these kinds has a
//! FIFO. An event joins its kind's FIFO when it pops after the FIFO's
//! back, and goes on the heap otherwise, so every FIFO stays sorted. The
//! least queued event is then the least of the heap top and the three
//! FIFO fronts. Keys are unique, so `Event`'s order is total, and the
//! queue pops exactly the sequence one heap holding every event would
//! pop, while an in-order event costs O(1) instead of two heap sifts.

use std::collections::{BinaryHeap, VecDeque};

use super::{Event, EventKind};

/// The heap's source index in [`EventQueue::least`], past the FIFOs;
/// FIFO `i` is source `i`.
const HEAP: usize = 3;

/// A run's pending events, popped in `(time, key)` order.
#[derive(Default)]
pub(super) struct EventQueue {
    heap: BinaryHeap<Event>,
    /// The arrive, timeout and hedge FIFOs, each sorted by `(time, key)`.
    fifos: [VecDeque<Event>; 3],
    /// The last event popped; the next one must pop strictly after it.
    #[cfg(debug_assertions)]
    last: Option<Event>,
    #[cfg(test)]
    pub(super) counts: Counts,
}

impl EventQueue {
    /// Queues `event`: at the back of its kind's FIFO when it pops after
    /// the FIFO's back, on the heap otherwise. `Sim::push`'s seqs only
    /// grow, so an arrive, timeout or hedge event reaches the heap only
    /// when its time is earlier than its FIFO's back.
    #[inline]
    pub(super) fn push(&mut self, event: Event) {
        #[cfg(test)]
        {
            self.counts.pushes += 1;
        }
        let fifo = match event.kind() {
            EventKind::Arrive => Some(&mut self.fifos[0]),
            EventKind::Timeout => Some(&mut self.fifos[1]),
            EventKind::Hedge => Some(&mut self.fifos[2]),
            _ => None,
        };
        // `Event`'s order is reversed for the max-heap: the greater
        // event pops first. A single heap push site keeps heap-only
        // traffic as cheap as a bare heap's.
        match fifo.filter(|fifo| fifo.back().is_none_or(|back| *back > event)) {
            Some(fifo) => fifo.push_back(event),
            None => self.heap.push(event),
        }
    }

    /// Queues `event` on the heap, whatever its kind. A schedule arrival
    /// takes this path: it is staged ahead of `now` with a small seq,
    /// and at the back of the arrive FIFO it would send every
    /// next-stage arrival created before it fires to the heap.
    #[inline]
    pub(super) fn push_heap(&mut self, event: Event) {
        #[cfg(test)]
        {
            self.counts.pushes += 1;
        }
        self.heap.push(event);
    }

    /// Whether no event is pending.
    pub(super) fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.fifos.iter().all(VecDeque::is_empty)
    }

    /// The event the next [`pop`](Self::pop) returns.
    pub(super) fn peek(&self) -> Option<&Event> {
        self.least().map(|(_, event)| event)
    }

    /// Removes and returns the least pending event.
    #[inline]
    pub(super) fn pop(&mut self) -> Option<Event> {
        let (source, _) = self.least()?;
        let event = match self.fifos.get_mut(source) {
            Some(fifo) => fifo.pop_front(),
            None => self.heap.pop(),
        }
        .expect("the least event's source holds it");
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.last.is_none_or(|last| last > event),
                "events must pop in strictly increasing (time, key): {:?} after {:?}",
                event,
                self.last
            );
            self.last = Some(event);
        }
        #[cfg(test)]
        self.counts.popped(source == HEAP, &event);
        Some(event)
    }

    /// The least pending event and its source: the greatest under
    /// `Event`'s order, which is reversed for the max-heap.
    #[inline]
    fn least(&self) -> Option<(usize, &Event)> {
        let mut least = self.heap.peek().map(|event| (HEAP, event));
        for (fifo, queue) in self.fifos.iter().enumerate() {
            if let Some(front) = queue.front() {
                if least.is_none_or(|(_, event)| front > event) {
                    least = Some((fifo, front));
                }
            }
        }
        least
    }
}

/// Test-only work counts: events pushed, and events popped from the
/// heap and from the FIFOs. Each FIFO holds one kind, so the FIFO pops
/// of a kind are that FIFO's pops.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct Counts {
    pub(super) pushes: u64,
    /// Heap pops by kind.
    pub(super) heap: [u64; 8],
    /// FIFO pops by kind.
    pub(super) fifo: [u64; 8],
    /// Schedule arrivals (an arrive event whose seq is its query index)
    /// popped from the heap.
    pub(super) schedule_heap: u64,
}

#[cfg(test)]
impl Counts {
    fn popped(&mut self, from_heap: bool, event: &Event) {
        let kind = event.kind();
        if from_heap {
            self.heap[kind as usize] += 1;
            let schedule = kind == EventKind::Arrive && event.seq() == u64::from(event.a);
            self.schedule_heap += u64::from(schedule);
        } else {
            self.fifo[kind as usize] += 1;
        }
    }

    /// Events popped from any source.
    pub(super) fn pops(&self) -> u64 {
        self.heap.iter().chain(&self.fifo).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::splitmix64;

    /// A uniform draw in `0..n` from a splitmix stream.
    fn below(rng: &mut u64, n: u64) -> u64 {
        splitmix64(rng) % n
    }

    #[test]
    fn pops_exactly_the_sequence_one_heap_pops() {
        // The queue and a plain heap take the same interleaved pushes and
        // pops. Times sit on a coarse grid, so many events tie on time;
        // every tag occurs; FIFO-tagged pushes often land below their
        // FIFO's back and must fall back to the heap; and direct heap
        // pushes carry small keys, like staged schedule arrivals. As in
        // the loop, nothing is pushed before the last popped event: a
        // dynamic push takes the next (largest) seq at or after `now`,
        // and a direct push lands strictly after `now`.
        for seed in 0..16 {
            let mut rng = seed;
            let mut queue = EventQueue::default();
            let mut heap = BinaryHeap::new();
            let (mut now, mut seq, mut scheduled) = (0.0, 1u64 << 32, 0u64);
            for _ in 0..4_000 {
                match below(&mut rng, 10) {
                    0..=4 => {
                        let tag = below(&mut rng, 8);
                        let time = now + 0.25 * below(&mut rng, 8) as f64;
                        let a = below(&mut rng, 1 << 16) as u32;
                        let event = Event {
                            time,
                            key: seq << 3 | tag,
                            a,
                            b: 0,
                        };
                        seq += 1;
                        queue.push(event);
                        heap.push(event);
                    }
                    5 => {
                        let time = now + 0.25 * (1 + below(&mut rng, 8)) as f64;
                        let q = scheduled as usize;
                        let event = Event::new(time, scheduled, EventKind::Arrive, q, 0);
                        scheduled += 1;
                        queue.push_heap(event);
                        heap.push(event);
                    }
                    _ => {
                        let popped = queue.pop();
                        assert_eq!(popped, heap.pop(), "seed {seed}");
                        if let Some(event) = popped {
                            now = event.time;
                        }
                    }
                }
                assert_eq!(queue.peek(), heap.peek(), "seed {seed}");
                assert_eq!(queue.is_empty(), heap.is_empty(), "seed {seed}");
            }
            while let Some(event) = heap.pop() {
                assert_eq!(queue.pop(), Some(event), "seed {seed}");
            }
            assert!(queue.is_empty() && queue.pop().is_none());
            // Both paths ran: FIFO-tagged events popped from the FIFOs
            // and, having landed below their FIFO's back, from the heap.
            let c = queue.counts;
            for kind in [EventKind::Arrive, EventKind::Timeout, EventKind::Hedge] {
                let k = kind as usize;
                assert!(c.fifo[k] > 0 && c.heap[k] > 0, "seed {seed}: {c:?}");
            }
            assert_eq!(c.pops(), c.pushes);
        }
    }
}
