//! A sampled failure instance and views of the stricken network.
//!
//! §3 of the paper defines the event space Ω as the set of graphs
//! obtained from the network by independently assigning each edge one of
//! the three states. [`FailureInstance`] is one point of Ω: it wraps the
//! per-edge state vector and answers the queries the rest of the pipeline
//! needs (normal/usable filters, failure counts, faulty-vertex marks).

use crate::mask::FailureMask;
use crate::model::{FailureModel, SwitchState};
use ft_graph::ids::{EdgeId, VertexId};
use ft_graph::Csr;
use rand::rngs::SmallRng;

/// One sampled assignment of a state to every switch of a network.
///
/// Backed by a word-packed [`FailureMask`] (two bits per switch), so a
/// trial's reset is a word memset and every fault-dependent pass
/// (repair, contraction, shorting) iterates failures by skipping
/// all-normal words instead of scanning every switch.
#[derive(Clone, Debug)]
pub struct FailureInstance {
    mask: FailureMask,
}

impl FailureInstance {
    /// Samples an instance for a network with `num_edges` switches.
    pub fn sample(model: &FailureModel, rng: &mut SmallRng, num_edges: usize) -> Self {
        FailureInstance {
            mask: model.sample_mask(rng, num_edges),
        }
    }

    /// Re-samples in place, reusing the allocation (hot Monte Carlo path).
    pub fn resample(&mut self, model: &FailureModel, rng: &mut SmallRng, num_edges: usize) {
        model.sample_into(rng, num_edges, &mut self.mask);
    }

    /// Packs an explicit state vector (tests, adversarial instances).
    pub fn from_states(states: Vec<SwitchState>) -> Self {
        FailureInstance {
            mask: FailureMask::from_states(&states),
        }
    }

    /// An all-normal instance.
    pub fn perfect(num_edges: usize) -> Self {
        FailureInstance {
            mask: FailureMask::new(num_edges),
        }
    }

    /// The underlying packed mask.
    pub fn mask(&self) -> &FailureMask {
        &self.mask
    }

    /// Mutable access to the packed mask — the sliced→scalar fallback
    /// path overwrites a reused instance in place via
    /// [`crate::sliced::SlicedFailureMask::extract_lane_into`].
    pub fn mask_mut(&mut self) -> &mut FailureMask {
        &mut self.mask
    }

    /// Overwrites the state of one switch — used by exhaustive
    /// enumeration, which walks the `3^m` assignments by incremental
    /// odometer updates instead of rebuilding an instance per state.
    pub fn set_state(&mut self, e: EdgeId, s: SwitchState) {
        self.mask.set(e.index(), s);
    }

    /// Number of switches covered.
    pub fn len(&self) -> usize {
        self.mask.len()
    }

    /// Whether the instance covers zero switches.
    pub fn is_empty(&self) -> bool {
        self.mask.is_empty()
    }

    /// State of switch `e`.
    #[inline]
    pub fn state(&self, e: EdgeId) -> SwitchState {
        self.mask.state(e.index())
    }

    /// Whether switch `e` is in the normal state.
    #[inline]
    pub fn is_normal(&self, e: EdgeId) -> bool {
        self.mask.is_normal(e.index())
    }

    /// Whether switch `e` still *exists* as a conductor (normal or
    /// closed — an open-failed switch is gone).
    #[inline]
    pub fn is_usable(&self, e: EdgeId) -> bool {
        self.mask.is_usable(e.index())
    }

    /// Whether switch `e` is closed-failed (its endpoints contract).
    #[inline]
    pub fn is_closed(&self, e: EdgeId) -> bool {
        self.mask.is_closed(e.index())
    }

    /// `(open, closed, normal)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        self.mask.counts()
    }

    /// Ids of all failed (non-normal) switches, skipping all-normal
    /// words — O(m/32 + failures).
    pub fn failed_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.mask.iter_failed().map(EdgeId::from)
    }

    /// Ids of all closed-failed switches, skipping all-normal words.
    pub fn closed_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.mask.iter_closed().map(EdgeId::from)
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

    /// The vertices marked faulty, as a list.
    pub fn faulty_vertex_list(&self, g: &Csr) -> Vec<VertexId> {
        self.faulty_vertices(g)
            .into_iter()
            .enumerate()
            .filter(|&(_, f)| f)
            .map(|(i, _)| VertexId::from(i))
            .collect()
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
        assert_eq!(inst.faulty_vertex_list(&g), vec![v(1), v(2)]);
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
        assert!(inst.faulty_vertex_list(&g).is_empty());
    }
}
