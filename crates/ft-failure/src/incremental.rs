//! Incremental maintenance of the §4 repair mask under fault/repair
//! churn.
//!
//! The temporal simulation's true hot path is the fault/repair/connect
//! loop: a switch fails, the repair discipline discards its faulty
//! endpoints, crossing circuits die and reroute; later the switch is
//! repaired and the endpoints may come back. Recomputing the routable
//! alive-mask from the cumulative [`FailureInstance`] on every event
//! costs O(V + E); but the §4 discipline is *local* — a vertex is
//! discarded iff it is internal (not an exempt terminal) **and** at
//! least one incident switch is failed — so a single switch transition
//! can only change the liveness of its two endpoints.
//!
//! [`AliveTracker`] exploits that: it keeps, per vertex, the number of
//! incident failed switches (`failed_deg`). Failing a switch increments
//! its endpoints' counters; the vertices whose counter went 0 → 1 are
//! exactly the newly-discarded ones. Repairing decrements; 1 → 0 means
//! revived. Each event is O(1), the "dirty region" is provably the
//! edge's ≤ 2 endpoints (no recompute-threshold fallback needed), and
//! the maintained mask is **bit-identical** to the from-scratch
//! computation at every step — pinned by the equivalence tests here, by
//! `ft-sim`'s interleaving proptests and by the engine's debug
//! assertions.

use crate::instance::FailureInstance;
use ft_graph::ids::VertexId;
use ft_graph::Csr;

/// Incrementally maintained §4 routable alive-mask.
///
/// Semantics (identical for every staged fabric, including the paper's
/// 𝒩 — see `Survivor::routable_alive` in `ft-core`): a vertex is alive
/// iff it is an exempt terminal, or no incident switch is failed.
#[derive(Clone, Debug, Default)]
pub struct AliveTracker {
    /// Number of failed switches incident to each vertex.
    failed_deg: Vec<u32>,
    /// Exempt (terminal) vertices: always alive, never discarded.
    exempt: Vec<bool>,
    /// The maintained mask: `alive[v] == exempt[v] || failed_deg[v] == 0`.
    alive: Vec<bool>,
}

impl AliveTracker {
    /// Builds a tracker for `g` synchronised to `inst`; `exempt[v]`
    /// flags the terminals (for a staged network,
    /// `StagedNetwork::terminal_mask()`). O(V + failed switches).
    pub fn new(g: &Csr, exempt: &[bool], inst: &FailureInstance) -> Self {
        let mut t = AliveTracker::default();
        t.reset_for(g, exempt, inst);
        t
    }

    /// Re-synchronises the tracker to `(g, exempt, inst)` reusing its
    /// buffers — the per-seed reset of a simulation workspace.
    pub fn reset_for(&mut self, g: &Csr, exempt: &[bool], inst: &FailureInstance) {
        assert_eq!(inst.len(), g.num_edges(), "instance/graph size mismatch");
        let n = g.num_vertices();
        assert_eq!(exempt.len(), n, "one exempt flag per vertex");
        self.failed_deg.clear();
        self.failed_deg.resize(n, 0);
        self.exempt.clear();
        self.exempt.extend_from_slice(exempt);
        self.alive.clear();
        self.alive.resize(n, true);
        let mut scratch = Vec::new();
        for e in inst.failed_edges() {
            let (t, h) = g.endpoints(e);
            self.count_failure(t, h, &mut scratch);
        }
    }

    /// The maintained routable alive-mask.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Whether `v` is currently alive.
    #[inline]
    pub fn is_alive(&self, v: VertexId) -> bool {
        self.alive[v.index()]
    }

    /// Registers the failure of the switch `(tail, head)` and appends
    /// the vertices it newly discarded (0, 1 or 2) to `newly_dead`.
    /// O(1). The caller transitions the switch state in its own
    /// [`FailureInstance`]; a switch must not be failed twice without an
    /// intervening repair.
    pub fn fail_edge(&mut self, tail: VertexId, head: VertexId, newly_dead: &mut Vec<VertexId>) {
        self.count_failure(tail, head, newly_dead);
    }

    /// Registers the repair of the switch `(tail, head)` and appends the
    /// vertices it revived (0, 1 or 2) to `newly_alive`. O(1).
    pub fn repair_edge(&mut self, tail: VertexId, head: VertexId, newly_alive: &mut Vec<VertexId>) {
        for v in Self::endpoints_once(tail, head) {
            let d = &mut self.failed_deg[v.index()];
            debug_assert!(*d > 0, "repairing a switch that was not failed");
            *d -= 1;
            if *d == 0 && !self.exempt[v.index()] {
                debug_assert!(!self.alive[v.index()]);
                self.alive[v.index()] = true;
                newly_alive.push(v);
            }
        }
    }

    fn count_failure(&mut self, tail: VertexId, head: VertexId, newly_dead: &mut Vec<VertexId>) {
        for v in Self::endpoints_once(tail, head) {
            let d = &mut self.failed_deg[v.index()];
            *d += 1;
            if *d == 1 && !self.exempt[v.index()] {
                debug_assert!(self.alive[v.index()]);
                self.alive[v.index()] = false;
                newly_dead.push(v);
            }
        }
    }

    /// The endpoint pair, deduplicated for self-loops.
    fn endpoints_once(tail: VertexId, head: VertexId) -> impl Iterator<Item = VertexId> {
        std::iter::once(tail).chain((head != tail).then_some(head))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FailureModel, SwitchState};
    use ft_graph::gen::rng;
    use ft_graph::ids::{v, EdgeId};
    use rand::Rng;

    fn diamond() -> Csr {
        Csr::from_edges(
            4,
            vec![
                (v(0), v(1)), // e0
                (v(0), v(2)), // e1
                (v(1), v(3)), // e2
                (v(2), v(3)), // e3
            ],
        )
    }

    /// Per-vertex flags of `g` with exactly `exempt` set.
    fn flags(g: &Csr, exempt: &[VertexId]) -> Vec<bool> {
        let mut mask = vec![false; g.num_vertices()];
        for &t in exempt {
            mask[t.index()] = true;
        }
        mask
    }

    /// Scratch reference: exempt ∨ no incident failed switch.
    fn scratch_alive(g: &Csr, exempt: &[VertexId], inst: &FailureInstance) -> Vec<bool> {
        let mut alive = vec![true; g.num_vertices()];
        for e in inst.failed_edges() {
            let (t, h) = g.endpoints(e);
            alive[t.index()] = false;
            alive[h.index()] = false;
        }
        for &t in exempt {
            alive[t.index()] = true;
        }
        alive
    }

    #[test]
    fn deltas_track_single_failure_and_repair() {
        let g = diamond();
        let exempt = [v(0), v(3)];
        let mut inst = FailureInstance::perfect(4);
        let mut tracker = AliveTracker::new(&g, &flags(&g, &exempt), &inst);
        assert!(tracker.alive().iter().all(|&a| a));

        let mut delta = Vec::new();
        inst.set_state(EdgeId::from(2usize), SwitchState::Open); // (1,3)
        tracker.fail_edge(v(1), v(3), &mut delta);
        assert_eq!(delta, vec![v(1)], "terminal 3 is exempt");
        assert_eq!(tracker.alive(), scratch_alive(&g, &exempt, &inst));

        // second incident failure keeps v1 dead, adds nothing
        delta.clear();
        inst.set_state(EdgeId::from(0usize), SwitchState::Closed); // (0,1)
        tracker.fail_edge(v(0), v(1), &mut delta);
        assert!(delta.is_empty());
        assert_eq!(tracker.alive(), scratch_alive(&g, &exempt, &inst));

        // repairing one of the two does NOT revive v1 yet
        delta.clear();
        inst.set_state(EdgeId::from(2usize), SwitchState::Normal);
        tracker.repair_edge(v(1), v(3), &mut delta);
        assert!(delta.is_empty());
        assert_eq!(tracker.alive(), scratch_alive(&g, &exempt, &inst));

        // the second repair does
        delta.clear();
        inst.set_state(EdgeId::from(0usize), SwitchState::Normal);
        tracker.repair_edge(v(0), v(1), &mut delta);
        assert_eq!(delta, vec![v(1)]);
        assert!(tracker.alive().iter().all(|&a| a));
    }

    #[test]
    fn random_churn_stays_equal_to_scratch() {
        let mut r = rng(17);
        let mut edges: Vec<_> = (0..30)
            .map(|_| {
                let a = r.random_range(0..12u32);
                let b = r.random_range(0..12u32);
                (v(a), v(b)) // self-loops included
            })
            .collect();
        edges.sort_by_key(|&(t, _)| t);
        let g = Csr::from_edges(12, edges);
        let m = g.num_edges();
        let exempt = [v(0), v(11)];
        let mut inst = FailureInstance::perfect(m);
        let mut tracker = AliveTracker::new(&g, &flags(&g, &exempt), &inst);
        let mut failed: Vec<usize> = Vec::new();
        let mut delta = Vec::new();
        for _ in 0..500 {
            delta.clear();
            let repair = !failed.is_empty() && r.random_bool(0.5);
            if repair {
                let e = failed.swap_remove(r.random_range(0..failed.len()));
                inst.set_state(EdgeId::from(e), SwitchState::Normal);
                let (t, h) = g.endpoints(EdgeId::from(e));
                tracker.repair_edge(t, h, &mut delta);
            } else {
                let healthy: Vec<usize> = (0..m)
                    .filter(|&e| inst.is_normal(EdgeId::from(e)))
                    .collect();
                if healthy.is_empty() {
                    continue;
                }
                let e = healthy[r.random_range(0..healthy.len())];
                inst.set_state(EdgeId::from(e), SwitchState::Open);
                failed.push(e);
                let (t, h) = g.endpoints(EdgeId::from(e));
                tracker.fail_edge(t, h, &mut delta);
            }
            assert_eq!(tracker.alive(), scratch_alive(&g, &exempt, &inst));
            // every delta vertex really flipped state
            for &d in &delta {
                assert!(!exempt.contains(&d));
            }
        }
    }

    #[test]
    fn reset_resynchronises_to_sampled_instance() {
        let g = diamond();
        let model = FailureModel::symmetric(0.3);
        let mut r = rng(5);
        let mut tracker = AliveTracker::default();
        for _ in 0..20 {
            let inst = FailureInstance::sample(&model, &mut r, 4);
            tracker.reset_for(&g, &flags(&g, &[v(0)]), &inst);
            assert_eq!(tracker.alive(), scratch_alive(&g, &[v(0)], &inst));
        }
    }
}
