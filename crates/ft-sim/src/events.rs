//! The event queue: a monotone virtual clock over a 4-ary heap.
//!
//! Every state change in the simulation is an [`Event`] — call
//! arrivals, hangups, switch faults, repair completions, burst-phase
//! toggles — ordered by `(time, seq)` where `seq` is a monotone
//! insertion counter. The counter makes the ordering *total* even when
//! two events share a timestamp, which is what makes the processed
//! event stream (and hence every report) byte-reproducible per seed.
//!
//! Every simulated event pays one pop, so the heap compares a slot as
//! one packed integer rank (time bits above the sequence number), picks
//! the smallest of a full family of four with selects instead of
//! branches, and pops bottom-up (Floyd): the hole left at the root
//! walks to a leaf and the former last slot climbs back from there.

use ft_graph::ids::EdgeId;
use std::cmp::Ordering;
use std::hint::select_unpredictable;

/// What an event does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A new call arrives. `epoch` guards against stale scheduling: the
    /// arrival process is resampled (epoch bumped) when the arrival
    /// rate changes, and events from older epochs are ignored — exact
    /// for Poisson arrivals by memorylessness.
    Arrival {
        /// Arrival-process epoch the event was scheduled under.
        epoch: u32,
    },
    /// A live call completes naturally. `token` revalidates the slot:
    /// if the session was killed by a fault (and the slot possibly
    /// reused), the token mismatches and the hangup is a no-op.
    Hangup {
        /// Router session slot.
        slot: u32,
        /// Call token the slot held when the hangup was scheduled.
        /// Per-run counter: `u32` keeps the heap slot at 24 bytes and
        /// still allows 4 × 10⁹ calls per seed before wrapping.
        token: u32,
    },
    /// The next switch failure of the aggregate fault process. `epoch`
    /// guards staleness: the superposition rate changes whenever the
    /// healthy-switch count does, so the pending draw is invalidated
    /// and resampled (exact by memorylessness).
    Fault {
        /// Fault-process epoch the event was scheduled under.
        epoch: u32,
    },
    /// Repair of one failed switch completes (scheduled at fault time).
    Repair {
        /// The switch being restored to the normal state.
        edge: EdgeId,
    },
    /// The bursty traffic modulator flips between its on/off phases.
    BurstToggle,
    /// A scheduled reroute retry for a fault-killed call waiting under
    /// the backoff policy. `token` identifies the pending entry; if the
    /// call was already rerouted, expired, or shed, the token no longer
    /// matches anything and the event is a no-op.
    Retry {
        /// Per-run pending-call token the retry was scheduled for.
        token: u32,
    },
}

/// One scheduled event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Virtual time at which the event fires.
    pub time: f64,
    /// Monotone insertion counter breaking time ties deterministically.
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Earliest-first total order; the queue pops in this order.
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// The order-preserving `u64` key of a non-negative event time.
///
/// `+ 0.0` normalises -0.0 (admitted by the `>= 0.0` guard, and
/// producible by exponential draws at u = 1) to +0.0, whose bit pattern
/// would otherwise sort after every positive timestamp and break the
/// total order.
#[inline(always)]
fn time_key(time: f64) -> u64 {
    (time + 0.0).to_bits()
}

/// One heap slot: the timestamp pre-encoded by [`time_key`] (valid
/// because event times are non-negative), so a sift compares integers
/// instead of calling f64 `total_cmp`.
#[derive(Clone, Copy, Debug)]
struct Slot {
    key: u64,
    /// Narrow sequence: resets per seed; 4 × 10⁹ events per run.
    seq: u32,
    kind: EventKind,
}

impl Slot {
    /// The slot's place in the pop order as one integer: the time key
    /// above the 32-bit sequence number, so `(time, seq)` order is `<`.
    #[inline(always)]
    fn rank(&self) -> u128 {
        (u128::from(self.key) << 32) | u128::from(self.seq)
    }

    fn event(self) -> Event {
        Event {
            time: f64::from_bits(self.key),
            seq: self.seq.into(),
            kind: self.kind,
        }
    }
}

/// The index (0..4) of the lowest-ranked slot of a full family, picked
/// by selects rather than branches: which child wins is data the
/// branch predictor cannot learn.
#[inline(always)]
fn min_of_four(family: &[Slot; 4]) -> usize {
    let r = family.each_ref().map(Slot::rank);
    let low = select_unpredictable(r[1] < r[0], (1, r[1]), (0, r[0]));
    let high = select_unpredictable(r[3] < r[2], (3, r[3]), (2, r[2]));
    select_unpredictable(high.1 < low.1, high, low).0
}

/// Heap arity. A 4-ary heap has half the levels of a binary one, each
/// level's four children share one or two cache lines, and a full
/// family's minimum is a fixed select tree ([`min_of_four`]).
const D: usize = 4;

/// Min-heap of events keyed by `(time, seq)`.
///
/// The pop order — ascending `(time, seq)`, a *total* order — is the
/// determinism contract; the flat `D`-ary layout is an implementation
/// detail and cannot affect the event stream.
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    slots: Vec<Slot>,
    next_seq: u32,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at `time`.
    ///
    /// # Panics
    /// Panics on a non-finite or negative timestamp (a scheduling bug
    /// upstream; virtual time starts at 0).
    pub fn push(&mut self, time: f64, kind: EventKind) {
        assert!(time.is_finite(), "non-finite event time {time}");
        assert!(time >= 0.0, "negative event time {time}");
        let seq = self.next_seq;
        self.next_seq = self
            .next_seq
            .checked_add(1)
            .expect("event sequence overflow");
        let slot = Slot {
            key: time_key(time),
            seq,
            kind,
        };
        let hole = self.slots.len();
        self.slots.push(slot);
        self.sift_up(hole, slot);
    }

    /// Removes and returns the earliest event, if any.
    ///
    /// Floyd's bottom-up sift: the hole the root leaves walks down to a
    /// leaf along the smallest child, never comparing against the slot
    /// that must fill it, and the former last slot then sifts up from
    /// that leaf. The last slot usually sorts late, so the climb is
    /// short.
    pub fn pop(&mut self) -> Option<Event> {
        let last = self.slots.pop()?;
        let Some(&top) = self.slots.first() else {
            return Some(last.event());
        };
        let len = self.slots.len();
        let mut hole = 0;
        loop {
            let first = hole * D + 1;
            let min = if let Some(family) = self.slots.get(first..first + D) {
                first + min_of_four(family.try_into().expect("a family is D slots"))
            } else if first < len {
                // The one partial family, at the bottom of the heap.
                (first + 1..len).fold(first, |min, c| {
                    if self.slots[c].rank() < self.slots[min].rank() {
                        c
                    } else {
                        min
                    }
                })
            } else {
                break;
            };
            self.slots[hole] = self.slots[min];
            hole = min;
        }
        self.sift_up(hole, last);
        Some(top.event())
    }

    /// [`Self::pop`], but only if the earliest event comes before
    /// `(time, seq)`: one comparison decides between the heap and a
    /// caller-owned lane whose head has that key.
    pub(crate) fn pop_before(&mut self, time: f64, seq: u64) -> Option<Event> {
        let top = self.slots.first()?;
        if (top.key, u64::from(top.seq)) < (time_key(time), seq) {
            self.pop()
        } else {
            None
        }
    }

    /// Moves parents of `hole` down until `slot` can fill it.
    #[inline(always)]
    fn sift_up(&mut self, mut hole: usize, slot: Slot) {
        let rank = slot.rank();
        while hole > 0 {
            let parent = (hole - 1) / D;
            if self.slots[parent].rank() < rank {
                break;
            }
            self.slots[hole] = self.slots[parent];
            hole = parent;
        }
        self.slots[hole] = slot;
    }

    /// Earliest pending timestamp, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.slots.first().map(|s| f64::from_bits(s.key))
    }

    /// `(time, seq)` of the earliest pending event, if any — the key a
    /// caller-owned priority lane compares against (see
    /// [`Self::reserve_seq`]).
    pub fn peek_key(&self) -> Option<(f64, u64)> {
        self.slots
            .first()
            .map(|s| (f64::from_bits(s.key), s.seq as u64))
    }

    /// Allocates the next sequence number *without* enqueueing
    /// anything. A caller that keeps its own priority lane for one
    /// event class (the engine holds pending call arrivals in a tiny
    /// sorted side-list instead of the heap) must draw its sequence
    /// numbers from this same counter, so the `(time, seq)` total
    /// order — and with it the popped event stream — spans both
    /// structures unchanged.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq = self
            .next_seq
            .checked_add(1)
            .expect("event sequence overflow");
        seq as u64
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Clears pending events and resets the sequence counter (workspace
    /// reuse between seeds of a sweep).
    pub fn reset(&mut self) {
        self.slots.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, EventKind::BurstToggle);
        q.push(1.0, EventKind::Arrival { epoch: 0 });
        q.push(2.0, EventKind::Fault { epoch: 0 });
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|e| e.time)).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::Hangup { slot: 0, token: 0 });
        q.push(1.0, EventKind::Hangup { slot: 1, token: 0 });
        q.push(1.0, EventKind::Hangup { slot: 2, token: 0 });
        let slots: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|e| match e.kind {
                EventKind::Hangup { slot, .. } => slot,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(slots, vec![0, 1, 2]);
    }

    #[test]
    fn reset_clears_and_restarts_seq() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::BurstToggle);
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.push(5.0, EventKind::BurstToggle);
        assert_eq!(q.peek_time(), Some(5.0));
        assert_eq!(q.pop().unwrap().seq, 0);
    }

    #[test]
    #[should_panic(expected = "non-finite event time")]
    fn rejects_nan_time() {
        EventQueue::new().push(f64::NAN, EventKind::BurstToggle);
    }

    #[test]
    #[should_panic(expected = "negative event time")]
    fn rejects_negative_time() {
        EventQueue::new().push(-1.0, EventKind::BurstToggle);
    }

    #[test]
    fn negative_zero_sorts_first() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::BurstToggle);
        q.push(-0.0, EventKind::Arrival { epoch: 3 });
        let first = q.pop().unwrap();
        assert_eq!(first.time, 0.0);
        assert!(matches!(first.kind, EventKind::Arrival { epoch: 3 }));
        assert_eq!(q.pop().unwrap().time, 1.0);
    }

    /// One step of the queue oracle: `(op, time index)`.
    fn oracle_ops() -> impl Strategy<Value = Vec<(u8, usize)>> {
        proptest::collection::vec((0u8..8, 0usize..ORACLE_TIMES.len()), 1..=400)
    }

    /// Times with many ties, -0.0 beside 0.0, and magnitudes far apart.
    const ORACLE_TIMES: [f64; 8] = [0.0, -0.0, 0.0, 1.5, 1.5, 2.0, 1e-300, 7.0e9];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `EventQueue` against a `BinaryHeap<Reverse<(u64, u64)>>` of
        /// `(time bits, seq)` through random interleavings of `push`,
        /// `pop`, `pop_before`, `peek_key` and `reserve_seq`. Each case
        /// first grows the heap to `prefill` (1 ..= 4·D + 2, crossing
        /// every arity boundary), so pops begin from every shape of the
        /// partial last family.
        #[test]
        fn pops_match_a_binary_heap_oracle(
            prefill in 1usize..=4 * D + 2,
            ops in oracle_ops(),
        ) {
            let mut q = EventQueue::new();
            let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut next_seq = 0u64;
            let push = |q: &mut EventQueue, oracle: &mut BinaryHeap<_>, seq: &mut u64, t: f64| {
                q.push(t, EventKind::Retry { token: *seq as u32 });
                oracle.push(Reverse(((t + 0.0).to_bits(), *seq)));
                *seq += 1;
            };
            for i in 0..prefill {
                push(&mut q, &mut oracle, &mut next_seq, ORACLE_TIMES[i % ORACLE_TIMES.len()]);
            }
            let popped = |e: Event| {
                prop_assert!(matches!(e.kind, EventKind::Retry { token } if u64::from(token) == e.seq));
                (e.time.to_bits(), e.seq)
            };
            for (op, t) in ops {
                let t = ORACLE_TIMES[t];
                match op {
                    0..=2 => push(&mut q, &mut oracle, &mut next_seq, t),
                    3 | 4 => {
                        let want = oracle.pop().map(|Reverse(k)| k);
                        prop_assert_eq!(q.pop().map(popped), want);
                    }
                    5 => {
                        // A lane head between existing keys: `next_seq`
                        // is later than every pending event's.
                        let bound = ((t + 0.0).to_bits(), next_seq);
                        let want = match oracle.peek() {
                            Some(&Reverse(k)) if k < bound => oracle.pop().map(|Reverse(k)| k),
                            _ => None,
                        };
                        prop_assert_eq!(q.pop_before(t, next_seq).map(popped), want);
                    }
                    6 => {
                        let want = oracle.peek().map(|&Reverse((key, seq))| (f64::from_bits(key), seq));
                        prop_assert_eq!(q.peek_key(), want);
                    }
                    _ => {
                        prop_assert_eq!(q.reserve_seq(), next_seq);
                        next_seq += 1;
                    }
                }
                prop_assert_eq!(q.len(), oracle.len());
            }
            let drained: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop().map(popped)).collect();
            let want: Vec<(u64, u64)> =
                std::iter::from_fn(|| oracle.pop().map(|Reverse(k)| k)).collect();
            prop_assert_eq!(drained, want);
        }
    }

    /// The D-ary heap must pop the exact `(time, seq)` total order a
    /// sorted reference produces, under adversarial interleaving.
    #[test]
    fn random_interleaving_pops_in_total_order() {
        use ft_graph::gen::rng;
        use rand::Rng;
        let mut r = rng(99);
        let mut q = EventQueue::new();
        let mut reference: Vec<(f64, u64)> = Vec::new();
        let mut popped: Vec<(f64, u64)> = Vec::new();
        let mut seq = 0u64;
        for _ in 0..2000 {
            if q.is_empty() || r.random_bool(0.6) {
                // duplicate timestamps on purpose: ties must break by seq
                let t = (r.random_range(0..50) as f64) * 0.5;
                q.push(t, EventKind::BurstToggle);
                reference.push((t, seq));
                seq += 1;
            } else {
                let e = q.pop().unwrap();
                popped.push((e.time, e.seq));
            }
        }
        while let Some(e) = q.pop() {
            popped.push((e.time, e.seq));
        }
        // every element popped exactly once…
        let mut sorted = reference.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        assert_eq!(popped.len(), sorted.len());
        // …and each pop run (between pushes) is locally sorted; verify
        // global multiset equality plus the heap invariant via replay
        let mut replay = EventQueue::new();
        for &(t, _) in &reference {
            replay.push(t, EventKind::BurstToggle);
        }
        let drained: Vec<(f64, u64)> =
            std::iter::from_fn(|| replay.pop().map(|e| (e.time, e.seq))).collect();
        assert_eq!(drained, sorted);
    }
}
