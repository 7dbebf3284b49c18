//! Terminal-aware repair of 𝒩 (§4, observation 2; §6 definitions).
//!
//! §6 defines faultiness only for vertices "*that are not an input or
//! an output*": a vertex is faulty if any incident switch failed.
//! Repair discards faulty internal vertices (and with them every failed
//! switch — a failed switch marks both endpoints). Terminals are never
//! discarded: an input with one failed fan-out switch loses only the
//! grid row behind that switch and keeps its access through the
//! remaining `l − 1` rows. (Had terminals been repairable like internal
//! vertices, the `2εl ≈ 2ε·64·4^γ` chance of *some* fan-out switch
//! failing would sink the whole construction — this is why Lemma 3's
//! cut-set argument explicitly excludes the input from its cut sets.)
//!
//! The result is a [`Survivor`]: the network plus an alive mask, on
//! which every edge between alive vertices (except terminal-incident
//! failed ones, which are masked separately) is in the normal state.

use crate::network::FtNetwork;
use ft_failure::FailureInstance;
use ft_graph::ids::EdgeId;
use ft_graph::{Digraph, VertexId};

/// A repaired view of 𝒩 under one failure instance.
#[derive(Clone, Debug)]
pub struct Survivor<'a> {
    ftn: &'a FtNetwork,
    /// Alive (usable) vertices: internal non-faulty vertices plus all
    /// terminals.
    pub alive: Vec<bool>,
    /// Terminal-incident switches that failed: these edges have both
    /// endpoints alive (the terminal is exempt) but must not be used.
    pub dead_terminal_edges: Vec<EdgeId>,
    /// Number of internal vertices discarded by repair.
    pub discarded: usize,
}

impl<'a> Survivor<'a> {
    /// Applies the repair procedure.
    pub fn new(ftn: &'a FtNetwork, inst: &FailureInstance) -> Survivor<'a> {
        let g = ftn.net();
        assert_eq!(inst.len(), g.num_edges(), "instance/network size mismatch");
        let faulty = inst.faulty_vertices(g.graph());
        let mut alive: Vec<bool> = faulty.into_iter().map(|f| !f).collect();
        let mut discarded = alive.iter().filter(|&&a| !a).count();
        // exempt terminals
        for &t in g.inputs().iter().chain(g.outputs()) {
            if !alive[t.index()] {
                alive[t.index()] = true;
                discarded -= 1;
            }
        }
        // collect terminal-incident failed switches (the only failed
        // switches whose endpoints can both be alive)
        let mut dead_terminal_edges = Vec::new();
        for &t in g.inputs().iter().chain(g.outputs()) {
            let ins = g.graph().in_edges(t).iter().copied();
            for e in g.graph().out_edges(t).chain(ins) {
                if !inst.is_normal(e) {
                    dead_terminal_edges.push(e);
                }
            }
        }
        Survivor {
            ftn,
            alive,
            dead_terminal_edges,
            discarded,
        }
    }

    /// The repaired network.
    pub fn network(&self) -> &'a FtNetwork {
        self.ftn
    }

    /// Whether vertex `v` survived repair.
    #[inline]
    pub fn is_alive(&self, v: VertexId) -> bool {
        self.alive[v.index()]
    }

    /// Fraction of internal vertices discarded.
    pub fn discard_fraction(&self) -> f64 {
        let internal = self.ftn.net().num_vertices() - 2 * self.ftn.n();
        if internal == 0 {
            0.0
        } else {
            self.discarded as f64 / internal as f64
        }
    }

    /// An alive mask that additionally kills the *internal* endpoint of
    /// every failed terminal-incident switch, so that plain
    /// vertex-masked traversal (as used by the router and the access
    /// machinery) can never cross a failed switch.
    ///
    /// This is sound: discarding the internal endpoint only shrinks the
    /// survivor, and it is what the Lemma 3 analysis accounts for (a
    /// failed fan-out switch makes the stage-1 grid vertex faulty).
    pub fn routable_alive(&self) -> Vec<bool> {
        let g = self.ftn.net();
        let mut alive = self.alive.clone();
        let is_terminal = g.terminal_mask();
        for &e in &self.dead_terminal_edges {
            let (t, h) = g.graph().endpoints(e);
            if !is_terminal[t.index()] {
                alive[t.index()] = false;
            }
            if !is_terminal[h.index()] {
                alive[h.index()] = false;
            }
        }
        alive
    }

    /// Incremental form of [`Self::routable_alive`]: a tracker whose
    /// mask starts bit-identical to `routable_alive()` and stays so
    /// under `fail_edge`/`repair_edge` deltas, without restarting the
    /// repair procedure from zero per event.
    ///
    /// This works because the routable discipline is local: a vertex is
    /// routable-alive iff it is a terminal or has **no** incident failed
    /// switch. (`routable_alive` arrives at the same predicate in two
    /// steps — repair discards faulty internal vertices, then the
    /// internal endpoints of failed terminal-incident switches are
    /// additionally masked — but both steps only ever discard internal
    /// vertices with a failed incident switch, and together they
    /// discard all of them.) The equivalence is pinned by
    /// `tracker_matches_routable_alive` below.
    pub fn alive_tracker(ftn: &FtNetwork, inst: &FailureInstance) -> ft_failure::AliveTracker {
        let g = ftn.net();
        ft_failure::AliveTracker::new(g.graph(), g.terminal_mask(), inst)
    }

    /// Checks the repair invariant: every switch whose endpoints are
    /// both alive under [`Self::routable_alive`] is in the normal state.
    pub fn invariant_holds(&self, inst: &FailureInstance) -> bool {
        let g = self.ftn.net().graph();
        let alive = self.routable_alive();
        (0..g.num_edges()).all(|e| {
            let e = EdgeId::from(e);
            let (t, h) = g.endpoints(e);
            !(alive[t.index()] && alive[h.index()]) || inst.is_normal(e)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Side;
    use crate::params::Params;
    use ft_failure::{FailureModel, SwitchState};
    use ft_graph::gen::rng;

    fn tiny() -> FtNetwork {
        FtNetwork::build(Params::reduced(1, 8, 4, 1.0))
    }

    #[test]
    fn perfect_instance_keeps_everything() {
        let f = tiny();
        let inst = FailureInstance::perfect(f.net().num_edges());
        let s = Survivor::new(&f, &inst);
        assert_eq!(s.discarded, 0);
        assert!(s.dead_terminal_edges.is_empty());
        assert!(s.alive.iter().all(|&a| a));
        assert!(s.invariant_holds(&inst));
        assert_eq!(s.discard_fraction(), 0.0);
    }

    #[test]
    fn terminals_never_die() {
        let f = tiny();
        // fail EVERY switch: terminals must still be alive
        let inst = FailureInstance::from_states(vec![SwitchState::Open; f.net().num_edges()]);
        let s = Survivor::new(&f, &inst);
        for j in 0..f.n() {
            assert!(s.is_alive(f.input(j)));
            assert!(s.is_alive(f.output(j)));
        }
        // every internal vertex is gone
        assert_eq!(s.discarded, f.net().num_vertices() - 2 * f.n());
        assert!(s.invariant_holds(&inst));
    }

    #[test]
    fn failed_fanout_switch_kills_only_grid_vertex() {
        let f = tiny();
        let mut states = vec![SwitchState::Normal; f.net().num_edges()];
        // edge 0 is input 0 → grid 0 row 0 (first edge added)
        states[0] = SwitchState::Open;
        let inst = FailureInstance::from_states(states);
        let s = Survivor::new(&f, &inst);
        assert!(s.is_alive(f.input(0)));
        let grid_v = f.grid_vertex(Side::Input, 0, 0, 0);
        // the internal endpoint is faulty (incident failed switch)
        assert!(!s.is_alive(grid_v));
        assert_eq!(s.dead_terminal_edges.len(), 1);
        assert!(s.invariant_holds(&inst));
    }

    #[test]
    fn routable_alive_blocks_failed_terminal_edges() {
        let f = tiny();
        let mut states = vec![SwitchState::Normal; f.net().num_edges()];
        states[3] = SwitchState::Closed; // input 0 → grid row 3
        let inst = FailureInstance::from_states(states);
        let s = Survivor::new(&f, &inst);
        let alive = s.routable_alive();
        let grid_v = f.grid_vertex(Side::Input, 0, 3, 0);
        assert!(!alive[grid_v.index()]);
        assert!(alive[f.input(0).index()]);
        assert!(s.invariant_holds(&inst));
    }

    #[test]
    fn tracker_matches_routable_alive() {
        use ft_graph::ids::EdgeId;
        let f = tiny();
        let m = f.net().num_edges();
        let model = FailureModel::symmetric(0.02);
        let mut r = rng(9);
        // snapshot equivalence on sampled instances
        for _ in 0..10 {
            let inst = FailureInstance::sample(&model, &mut r, m);
            let s = Survivor::new(&f, &inst);
            let tracker = Survivor::alive_tracker(&f, &inst);
            assert_eq!(tracker.alive(), s.routable_alive());
        }
        // delta equivalence under fail/repair churn from a clean slate
        use rand::Rng;
        let mut inst = FailureInstance::perfect(m);
        let mut tracker = Survivor::alive_tracker(&f, &inst);
        let mut failed: Vec<usize> = Vec::new();
        let mut delta = Vec::new();
        for step in 0..200 {
            delta.clear();
            if !failed.is_empty() && r.random_bool(0.5) {
                let e = failed.swap_remove(r.random_range(0..failed.len()));
                inst.set_state(EdgeId::from(e), SwitchState::Normal);
                let (t, h) = f.net().graph().endpoints(EdgeId::from(e));
                tracker.repair_edge(t, h, &mut delta);
            } else {
                let e = loop {
                    let e = r.random_range(0..m);
                    if inst.is_normal(EdgeId::from(e)) {
                        break e;
                    }
                };
                inst.set_state(EdgeId::from(e), SwitchState::Open);
                failed.push(e);
                let (t, h) = f.net().graph().endpoints(EdgeId::from(e));
                tracker.fail_edge(t, h, &mut delta);
            }
            if step % 20 == 0 {
                let s = Survivor::new(&f, &inst);
                assert_eq!(tracker.alive(), s.routable_alive());
            }
        }
    }

    #[test]
    fn random_instances_keep_invariant() {
        let f = tiny();
        let model = FailureModel::symmetric(0.02);
        let mut r = rng(5);
        for _ in 0..20 {
            let inst = FailureInstance::sample(&model, &mut r, f.net().num_edges());
            let s = Survivor::new(&f, &inst);
            assert!(s.invariant_holds(&inst));
            // discard fraction should be loosely ~ 2ε · max degree
            assert!(s.discard_fraction() < 0.9);
        }
    }
}
