//! A sampled failure instance and views of the stricken network.
//!
//! §3 of the paper defines the event space Ω as the set of graphs
//! obtained from the network by independently assigning each edge one of
//! the three states. [`FailureInstance`] is one point of Ω: it packs the
//! per-edge states and answers the queries the rest of the pipeline needs
//! (normal/usable filters, failure counts, faulty-vertex marks).
//!
//! The three states take two bits per switch (`00` normal, `01` open,
//! `10` closed; `11` never occurs), so:
//!
//! * clearing touches 1/4 of the memory of a byte per switch (and is a
//!   plain word memset);
//! * `counts` is two `popcount`s per 32 switches;
//! * iterating failed/closed switches skips whole all-normal words —
//!   at the paper's tiny ε almost every word is skipped, making
//!   fault-dependent passes (repair, contraction) O(failures), not O(m);
//! * the dense sampling regime can fill a whole word (32 switches) with
//!   one store.

use crate::model::{FailureModel, SwitchState};
use ft_graph::ids::EdgeId;
use ft_graph::Csr;
use rand::rngs::SmallRng;

/// Bit-plane of the `open` bits within one word (even positions).
const OPEN_PLANE: u64 = 0x5555_5555_5555_5555;
/// Bit-plane of the `closed` bits within one word (odd positions).
const CLOSED_PLANE: u64 = 0xAAAA_AAAA_AAAA_AAAA;
/// Switches per 64-bit word.
pub(crate) const PER_WORD: usize = 32;

/// One sampled assignment of a state to every switch of a network.
///
/// Word-packed at two bits per switch, so a trial's reset is a word
/// memset and every fault-dependent pass (repair, contraction,
/// shorting) iterates failures by skipping all-normal words instead of
/// scanning every switch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailureInstance {
    pub(crate) words: Vec<u64>,
    len: usize,
}

impl FailureInstance {
    /// Samples an instance for a network with `num_edges` switches.
    pub fn sample(model: &FailureModel, rng: &mut SmallRng, num_edges: usize) -> Self {
        let mut inst = FailureInstance::default();
        model.sample_into(rng, num_edges, &mut inst);
        inst
    }

    /// Re-samples in place, reusing the allocation (hot Monte Carlo path).
    pub fn resample(&mut self, model: &FailureModel, rng: &mut SmallRng, num_edges: usize) {
        model.sample_into(rng, num_edges, self);
    }

    /// Packs an explicit state vector (tests, adversarial instances).
    pub fn from_states(states: Vec<SwitchState>) -> Self {
        let mut inst = FailureInstance::perfect(states.len());
        for (i, &s) in states.iter().enumerate() {
            if s != SwitchState::Normal {
                inst.set(i, s);
            }
        }
        inst
    }

    /// An all-normal instance.
    pub fn perfect(num_edges: usize) -> Self {
        FailureInstance {
            words: vec![0; num_edges.div_ceil(PER_WORD)],
            len: num_edges,
        }
    }

    /// Resets to all-normal over `len` switches, reusing the allocation.
    pub(crate) fn reset(&mut self, len: usize) {
        let words = len.div_ceil(PER_WORD);
        self.words.clear();
        self.words.resize(words, 0);
        self.len = len;
    }

    /// Sets the state of switch `i`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, s: SwitchState) {
        debug_assert!(i < self.len);
        let shift = (i % PER_WORD) * 2;
        let w = &mut self.words[i / PER_WORD];
        *w = (*w & !(3 << shift)) | ((s as u64) << shift);
    }

    /// Overwrites the state of one switch — used by exhaustive
    /// enumeration, which walks the `3^m` assignments by incremental
    /// odometer updates instead of rebuilding an instance per state.
    pub fn set_state(&mut self, e: EdgeId, s: SwitchState) {
        self.set(e.index(), s);
    }

    /// Number of switches covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the instance covers zero switches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The two state bits of switch `i`.
    #[inline]
    fn code(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        (self.words[i / PER_WORD] >> ((i % PER_WORD) * 2)) & 3
    }

    /// State of switch `e`.
    #[inline]
    pub fn state(&self, e: EdgeId) -> SwitchState {
        match self.code(e.index()) {
            0 => SwitchState::Normal,
            1 => SwitchState::Open,
            2 => SwitchState::Closed,
            _ => unreachable!("11 code never written"),
        }
    }

    /// Whether switch `e` is in the normal state.
    #[inline]
    pub fn is_normal(&self, e: EdgeId) -> bool {
        self.code(e.index()) == 0
    }

    /// Whether switch `e` still *exists* as a conductor (normal or
    /// closed — an open-failed switch is gone).
    #[inline]
    pub(crate) fn is_usable(&self, e: EdgeId) -> bool {
        self.code(e.index()) & 1 == 0
    }

    /// Whether switch `e` is closed-failed (its endpoints contract).
    #[inline]
    pub fn is_closed(&self, e: EdgeId) -> bool {
        self.code(e.index()) & 2 != 0
    }

    /// `(open, closed, normal)` counts — two popcounts per word.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut open = 0usize;
        let mut closed = 0usize;
        for &w in &self.words {
            open += (w & OPEN_PLANE).count_ones() as usize;
            closed += (w & CLOSED_PLANE).count_ones() as usize;
        }
        (open, closed, self.len - open - closed)
    }

    /// Ids of all failed (non-normal) switches, ascending, skipping
    /// all-normal words — O(m/32 + failures).
    pub fn failed_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.iter_plane(OPEN_PLANE | CLOSED_PLANE)
    }

    /// Ids of all closed-failed switches, ascending, skipping all-normal
    /// words.
    pub(crate) fn closed_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.iter_plane(CLOSED_PLANE)
    }

    fn iter_plane(&self, plane: u64) -> impl Iterator<Item = EdgeId> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = w & plane;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(EdgeId::from(wi * PER_WORD + tz / 2))
            })
        })
    }

    /// Unpacks into a state vector (tests, debugging).
    pub fn to_states(&self) -> Vec<SwitchState> {
        (0..self.len).map(|i| self.state(EdgeId::from(i))).collect()
    }

    /// Marks every vertex incident with a failed switch — the paper's
    /// **faulty vertices** (§6: "say a vertex η of 𝒩 is faulty if an edge
    /// (ξ, η) or (η, ξ) is in open failure or closed failure state").
    pub fn faulty_vertices(&self, g: &Csr) -> Vec<bool> {
        let mut faulty = vec![false; g.num_vertices()];
        for e in self.failed_edges() {
            let (t, h) = g.endpoints(e);
            faulty[t.index()] = true;
            faulty[h.index()] = true;
        }
        faulty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen::rng;
    use ft_graph::ids::{e, v};

    fn chain3() -> Csr {
        Csr::from_edges(4, vec![(v(0), v(1)), (v(1), v(2)), (v(2), v(3))])
    }

    #[test]
    fn perfect_instance() {
        let inst = FailureInstance::perfect(5);
        assert_eq!(inst.len(), 5);
        assert!(!inst.is_empty());
        assert_eq!(inst.counts(), (0, 0, 5));
        assert!(inst.is_normal(e(0)));
        assert!(inst.is_usable(e(4)));
        assert_eq!(inst.failed_edges().count(), 0);
    }

    #[test]
    fn explicit_states() {
        let inst = FailureInstance::from_states(vec![
            SwitchState::Normal,
            SwitchState::Open,
            SwitchState::Closed,
        ]);
        assert!(inst.is_normal(e(0)));
        assert!(!inst.is_normal(e(1)));
        assert!(!inst.is_usable(e(1)));
        assert!(inst.is_usable(e(2)));
        assert!(inst.is_closed(e(2)));
        assert_eq!(inst.counts(), (1, 1, 1));
        let failed: Vec<_> = inst.failed_edges().collect();
        assert_eq!(failed, vec![e(1), e(2)]);
    }

    #[test]
    fn faulty_vertices_touch_failed_edges() {
        let g = chain3();
        // fail the middle edge e1 = (1, 2)
        let inst = FailureInstance::from_states(vec![
            SwitchState::Normal,
            SwitchState::Closed,
            SwitchState::Normal,
        ]);
        let faulty = inst.faulty_vertices(&g);
        assert_eq!(faulty, vec![false, true, true, false]);
    }

    #[test]
    fn resample_reuses_and_differs() {
        let model = FailureModel::symmetric(0.3);
        let mut r = rng(9);
        let mut inst = FailureInstance::sample(&model, &mut r, 100);
        let first = inst.counts();
        inst.resample(&model, &mut r, 100);
        assert_eq!(inst.len(), 100);
        // overwhelmingly likely to differ
        assert_ne!(first, inst.counts());
    }

    #[test]
    fn empty_instance() {
        let inst = FailureInstance::perfect(0);
        assert!(inst.is_empty());
        let g = Csr::from_edges(0, vec![]);
        assert!(inst.faulty_vertices(&g).is_empty());
    }
}
