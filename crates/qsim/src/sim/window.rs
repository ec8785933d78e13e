//! The in-flight query window: every per-query field the loop and its
//! runtimes keep, held only while the query is in flight.
//!
//! A query's record is created when the query is staged, injected or
//! handed to a stage shard, and retired when the query resolves: it
//! completes or leaves the shard, is shed, or times out for good.
//! Records sit in a ring indexed by query (`q & (capacity - 1)`), and
//! `base` advances over the retired prefix whenever a new record needs
//! the room, so the ring holds the span from the oldest unresolved
//! query to the newest created one rather than the run's query count.
//! The ring starts empty and doubles only when that span outgrows it.
//! A retired query has no record, which is how stale timers and carcass
//! lanes read it as resolved.

/// [`QueryRec::path`] of a query not yet admitted to a path.
pub(super) const UNASSIGNED: u8 = 0xFF;
/// [`QueryRec::last_slot`] before any entry-stage placement.
pub(super) const NO_SLOT: u32 = u32::MAX;

/// One in-flight query's state, 16 bytes. `Sim` writes the arrival
/// clock, `MultipathRt` the path, and `ResilienceRt` the lane fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct QueryRec {
    /// Absolute stage-0 arrival time: the end-to-end clock's start.
    pub(super) arrival: f64,
    /// Slot the latest entry-stage lane was placed on — what a hedge
    /// dispatch routes away from ([`NO_SLOT`] until one is).
    pub(super) last_slot: u32,
    /// Admitted path ([`UNASSIGNED`] until admission).
    pub(super) path: u8,
    /// Attempts started: 0 until the query's first dispatch. A retry
    /// starts the next attempt, cancelling the last one's lanes.
    pub(super) attempts: u8,
    /// Whether the current attempt already dispatched its hedge.
    pub(super) hedged: bool,
    /// The ring slot's standing, which only the window writes.
    occ: Occ,
}

impl QueryRec {
    /// A just-created record: arrived at `arrival`, not yet admitted or
    /// dispatched.
    fn new(arrival: f64) -> Self {
        Self {
            arrival,
            last_slot: NO_SLOT,
            path: UNASSIGNED,
            attempts: 0,
            hedged: false,
            occ: Occ::Live,
        }
    }
}

/// Where a query inside the span stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Occ {
    /// Not created yet: a downstream shard receives its queries in
    /// upstream completion order, not index order.
    Vacant,
    Live,
    Retired,
}

/// The ring of in-flight query records, with the Sticky routing
/// history's rows beside it (`stride` replica choices per ring slot).
pub(super) struct QueryWindow {
    /// `capacity` records (zero or a power of two); query `q` of the
    /// span `base..end` sits at `q & (capacity - 1)`.
    ring: Vec<QueryRec>,
    /// Replica chosen (index within its group) per stage, `stride` per
    /// ring slot: the routing history behind
    /// [`RoutingCtx`](crate::RoutingCtx). `u32::MAX` marks a stage not
    /// routed yet. Empty unless the router reads history.
    hist: Vec<u32>,
    stride: usize,
    /// Every query below `base` is retired.
    base: usize,
    /// One past the newest created query.
    end: usize,
}

impl QueryWindow {
    /// An empty window whose records carry `stride` history entries.
    pub(super) fn new(stride: usize) -> Self {
        Self {
            ring: Vec::new(),
            hist: Vec::new(),
            stride,
            base: 0,
            end: 0,
        }
    }

    /// Query `q`'s ring slot (the ring must hold at least one record).
    #[inline]
    fn slot(&self, q: usize) -> usize {
        q & (self.ring.len() - 1)
    }

    /// Where query `q` stands: every query below the span is retired,
    /// and none past it is created yet.
    #[inline]
    fn occ(&self, q: usize) -> Occ {
        if q < self.base {
            Occ::Retired
        } else if q >= self.end {
            Occ::Vacant
        } else {
            self.ring[self.slot(q)].occ
        }
    }

    /// Creates query `q`'s record, arrived at `arrival`, with an empty
    /// routing history.
    pub(super) fn create(&mut self, q: usize, arrival: f64) {
        debug_assert_eq!(self.occ(q), Occ::Vacant, "query {q} created twice");
        if q >= self.end {
            if q + 1 - self.base > self.ring.len() {
                self.advance_base();
            }
            let span = q + 1 - self.base;
            if span > self.ring.len() {
                self.grow(span);
            }
            for skipped in self.end..q {
                let s = self.slot(skipped);
                self.ring[s].occ = Occ::Vacant;
            }
            self.end = q + 1;
        }
        let s = self.slot(q);
        self.ring[s] = QueryRec::new(arrival);
        // Only a history-reading router pays for the row: filling the
        // empty row at every create made the plain two-stage loop about
        // a third slower (2-vCPU AVX-512 Xeon).
        if self.stride > 0 {
            self.hist[s * self.stride..][..self.stride].fill(u32::MAX);
        }
    }

    /// Re-lays the span into the smallest power-of-two ring holding
    /// `span` records.
    #[cold]
    fn grow(&mut self, span: usize) {
        let cap = span.next_power_of_two();
        let stride = self.stride;
        let vacant = QueryRec {
            occ: Occ::Vacant,
            ..QueryRec::new(f64::NAN)
        };
        let mut ring = vec![vacant; cap];
        let mut hist = vec![u32::MAX; cap * stride];
        for q in self.base..self.end {
            let (from, to) = (self.slot(q), q & (cap - 1));
            ring[to] = self.ring[from];
            hist[to * stride..][..stride].copy_from_slice(&self.hist[from * stride..][..stride]);
        }
        (self.ring, self.hist) = (ring, hist);
    }

    /// Retires query `q`'s record: the query resolved.
    pub(super) fn retire(&mut self, q: usize) {
        debug_assert_eq!(self.occ(q), Occ::Live, "query {q} retired without a record");
        let s = self.slot(q);
        self.ring[s].occ = Occ::Retired;
    }

    /// Moves `base` past the retired prefix. Only a create that would
    /// outgrow the ring needs the space, so `base` trails until then:
    /// the loop runs in bursts, not once per retirement.
    fn advance_base(&mut self) {
        while self.base < self.end && self.ring[self.slot(self.base)].occ == Occ::Retired {
            self.base += 1;
        }
    }

    /// Query `q`'s record, or `None` once it retired (or before it is
    /// created).
    #[inline]
    pub(super) fn get(&self, q: usize) -> Option<&QueryRec> {
        self.live_slot(q).map(|s| &self.ring[s])
    }

    /// The mutable form of [`get`](Self::get).
    #[inline]
    pub(super) fn get_mut(&mut self, q: usize) -> Option<&mut QueryRec> {
        self.live_slot(q).map(|s| &mut self.ring[s])
    }

    /// Query `q`'s ring slot while its record is live: one unsigned
    /// compare bounds the span from both sides.
    #[inline]
    fn live_slot(&self, q: usize) -> Option<usize> {
        if q.wrapping_sub(self.base) >= self.end - self.base {
            return None;
        }
        let s = self.slot(q);
        (self.ring[s].occ == Occ::Live).then_some(s)
    }

    /// In-flight query `q`'s record.
    #[inline]
    pub(super) fn rec(&self, q: usize) -> &QueryRec {
        debug_assert_eq!(self.occ(q), Occ::Live, "query {q} is not in flight");
        &self.ring[self.slot(q)]
    }

    /// The mutable form of [`rec`](Self::rec); a retired query is never
    /// written.
    #[inline]
    pub(super) fn rec_mut(&mut self, q: usize) -> &mut QueryRec {
        debug_assert_eq!(self.occ(q), Occ::Live, "query {q} is not in flight");
        let s = self.slot(q);
        &mut self.ring[s]
    }

    /// In-flight query `q`'s routing history, one entry per stage.
    #[inline]
    pub(super) fn hist(&self, q: usize) -> &[u32] {
        debug_assert_eq!(self.occ(q), Occ::Live, "query {q} is not in flight");
        &self.hist[self.slot(q) * self.stride..][..self.stride]
    }

    /// The mutable form of [`hist`](Self::hist).
    #[inline]
    pub(super) fn hist_mut(&mut self, q: usize) -> &mut [u32] {
        debug_assert_eq!(self.occ(q), Occ::Live, "query {q} is not in flight");
        let s = self.slot(q);
        &mut self.hist[s * self.stride..][..self.stride]
    }

    /// Every in-flight query, in index order.
    pub(super) fn live(&self) -> impl Iterator<Item = usize> + '_ {
        (self.base..self.end).filter(|&q| self.get(q).is_some())
    }

    /// Records the ring can hold: the smallest power of two at least
    /// the largest span it has held.
    #[cfg(test)]
    pub(super) fn capacity(&self) -> usize {
        self.ring.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::splitmix64;

    /// A uniform draw in `0..n` from a splitmix stream.
    fn below(rng: &mut u64, n: u64) -> usize {
        (splitmix64(rng) % n) as usize
    }

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Model {
        Vacant,
        Live(QueryRec, [u32; 3]),
        Retired,
    }

    #[test]
    fn a_record_is_16_bytes() {
        assert_eq!(std::mem::size_of::<QueryRec>(), 16);
    }

    #[test]
    fn window_matches_a_plain_vec_model() {
        // The window and a plain per-query `Vec` take the same creates,
        // writes and out-of-order retirements. Creates land up to a
        // lookahead past the newest query, as a downstream shard's do;
        // for part of every 500 steps one query is held live as a
        // straggler while the rest flow on, so the ring grows after
        // `base` has wrapped it. After each step every query of the
        // span, and the few just below it, is read back: retired ones
        // read `None`.
        let mut wrapped_growths = 0;
        for seed in 0..8u64 {
            let mut rng = seed;
            let mut window = QueryWindow::new(3);
            let mut model: Vec<Model> = Vec::new();
            let (mut base, mut largest_span) = (0, 0);
            let mut straggler: Option<usize> = None;
            for step in 0..4_000u32 {
                match step % 500 {
                    0 => straggler = None,
                    100 => straggler = (base..model.len()).find(|&q| is_live(&model[q])),
                    _ => {}
                }
                let live: Vec<usize> = (base..model.len())
                    .filter(|&q| is_live(&model[q]) && Some(q) != straggler)
                    .collect();
                match below(&mut rng, 10) {
                    0..=3 => {
                        let ahead = model.len() + below(&mut rng, 4);
                        let q = (base..=ahead)
                            .find(|&v| v >= model.len() || model[v] == Model::Vacant)
                            .expect("every query past the model's end is vacant");
                        if q >= model.len() {
                            model.resize(q + 1, Model::Vacant);
                        }
                        let (cap, arrival) = (window.capacity(), f64::from(step));
                        let wrapped = cap > 0 && window.base % cap != 0;
                        window.create(q, arrival);
                        if window.capacity() > cap && wrapped {
                            wrapped_growths += 1;
                        }
                        model[q] = Model::Live(QueryRec::new(arrival), [u32::MAX; 3]);
                        largest_span = largest_span.max(model.len() - base);
                    }
                    4..=6 if !live.is_empty() => {
                        let q = live[below(&mut rng, live.len() as u64)];
                        let Model::Live(rec, hist) = &mut model[q] else {
                            unreachable!("picked from the live set")
                        };
                        rec.last_slot = splitmix64(&mut rng) as u32;
                        rec.attempts = rec.attempts.wrapping_add(1);
                        hist[step as usize % 3] = step;
                        *window.rec_mut(q) = *rec;
                        window.hist_mut(q).copy_from_slice(hist);
                    }
                    7..=9 if !live.is_empty() => {
                        let q = live[below(&mut rng, live.len() as u64)];
                        window.retire(q);
                        model[q] = Model::Retired;
                        while base < model.len() && model[base] == Model::Retired {
                            base += 1;
                        }
                    }
                    _ => {}
                }
                for q in base.saturating_sub(8)..model.len() {
                    match &model[q] {
                        Model::Live(rec, hist) => {
                            assert_eq!(window.get(q), Some(rec), "seed {seed} query {q}");
                            assert_eq!(window.hist(q), hist, "seed {seed} query {q}");
                        }
                        _ => assert_eq!(window.get(q), None, "seed {seed} query {q}"),
                    }
                }
                let live_count = (base..model.len()).filter(|&q| is_live(&model[q]));
                assert_eq!(window.live().count(), live_count.count(), "seed {seed}");
                assert!(
                    window.capacity() <= 2 * largest_span,
                    "seed {seed}: capacity {} for a largest span of {largest_span}",
                    window.capacity()
                );
            }
        }
        assert!(wrapped_growths > 0, "no growth happened on a wrapped ring");
    }

    fn is_live(m: &Model) -> bool {
        matches!(m, Model::Live(..))
    }
}
