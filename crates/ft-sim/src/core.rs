//! The switching core: one fabric's routing state and the §4 online
//! repair discipline, shared by the `ftsim` engine and the `ftserve`
//! engine thread.
//!
//! A [`SwitchingCore`] owns the [`CircuitRouter`], the cumulative
//! [`FailureInstance`], the incrementally maintained §4 alive-mask
//! ([`AliveTracker`]) and the failed-switch count, and is the only
//! place that knows how a switch fault becomes circuit kills:
//!
//! 1. the tracker reports the (≤ 2) endpoints the fault discards;
//! 2. the circuits crossing them are collected, deduplicated and sorted
//!    **ascending by session slot** *before* any is released — the
//!    wholesale-mask recompute killed in slot order, and both the
//!    drivers' reroute order and the router's free list (slot reuse)
//!    follow from it, so the order is fingerprint-relevant;
//! 3. each is released;
//! 4. the discarded vertices are withdrawn from routing.
//!
//! A repair is the tracker delta plus a revive per returned vertex; it
//! kills nothing. What a driver does with the killed sessions — reroute
//! them, retry, shed, or just report the count — stays in the driver.

use crate::fabric::Fabric;
use ft_failure::{AliveTracker, FailureInstance, SwitchState};
use ft_graph::{Digraph, EdgeId, StagedNetwork, VertexId};
use ft_networks::{CircuitRouter, MincostBatch, RouteError, SessionId};

/// The fabric-sized and per-event buffers of a [`SwitchingCore`], kept
/// apart so a simulation workspace can lend them seed after seed: with
/// grown buffers a fault or repair event allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct CoreBuffers {
    tracker: AliveTracker,
    /// Vertices whose liveness the last event flipped (≤ 2).
    delta: Vec<VertexId>,
    /// Sessions the last fault killed, ascending slot.
    killed: Vec<SessionId>,
}

/// See the module docs.
#[derive(Debug)]
pub struct SwitchingCore<'a> {
    fabric: &'a Fabric,
    router: CircuitRouter<'a>,
    inst: FailureInstance,
    failed: usize,
    bufs: CoreBuffers,
}

impl<'a> SwitchingCore<'a> {
    /// A healthy, empty core over `fabric`, reusing `bufs`' allocations.
    pub fn new(fabric: &'a Fabric, mut bufs: CoreBuffers) -> Self {
        let net = fabric.net();
        let inst = FailureInstance::perfect(net.num_edges());
        bufs.tracker
            .reset_for(net.graph(), net.terminal_mask(), &inst);
        SwitchingCore {
            fabric,
            router: CircuitRouter::new(net),
            inst,
            failed: 0,
            bufs,
        }
    }

    /// Gives the buffers back for the next core.
    pub(crate) fn into_buffers(self) -> CoreBuffers {
        self.bufs
    }

    /// The fabric under the core.
    pub(crate) fn fabric(&self) -> &'a Fabric {
        self.fabric
    }

    /// The fabric's staged network.
    #[inline]
    pub fn net(&self) -> &'a StagedNetwork {
        self.fabric.net()
    }

    /// The router, read-only (paths, owner index, work counters).
    #[inline]
    pub fn router(&self) -> &CircuitRouter<'a> {
        &self.router
    }

    /// Cumulative switch failure states.
    pub fn instance(&self) -> &FailureInstance {
        &self.inst
    }

    /// The incrementally maintained §4 routable alive-mask.
    pub fn alive(&self) -> &[bool] {
        self.bufs.tracker.alive()
    }

    /// Number of currently failed switches.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Number of currently healthy switches.
    pub(crate) fn healthy(&self) -> usize {
        self.inst.len() - self.failed
    }

    /// Connects input terminal `src` to output terminal `dst` (terminal
    /// *indices*) by the greedy shortest-idle-path search.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    #[inline]
    pub fn admit(&mut self, src: usize, dst: usize) -> Result<SessionId, RouteError> {
        let net = self.net();
        self.router.connect(net.inputs()[src], net.outputs()[dst])
    }

    /// Like [`admit`](Self::admit), placing by one min-cost placement
    /// in `batch`'s wave — started by
    /// [`CircuitRouter::begin_mincost_batch`] since the idle set last
    /// changed outside such placements.
    pub(crate) fn admit_mincost(
        &mut self,
        batch: &mut MincostBatch,
        src: usize,
        dst: usize,
    ) -> Result<SessionId, RouteError> {
        let net = self.net();
        self.router
            .mincost_place(batch, net.inputs()[src], net.outputs()[dst])
    }

    /// Releases a session's circuit. `false` if the session is not live.
    #[inline]
    pub fn release(&mut self, id: SessionId) -> bool {
        self.router.disconnect(id)
    }

    /// Fails switch `edge` in mode `state` and runs the kill wave (see
    /// the module docs). Returns the killed sessions in ascending slot
    /// order, or `None` — and changes nothing — if the switch had
    /// already failed.
    pub fn fail(&mut self, edge: EdgeId, state: SwitchState) -> Option<&[SessionId]> {
        debug_assert_ne!(state, SwitchState::Normal, "a fault needs a failure mode");
        if !self.inst.is_normal(edge) {
            return None;
        }
        self.inst.set_state(edge, state);
        self.failed += 1;
        let (t, h) = self.net().graph().endpoints(edge);
        let CoreBuffers {
            tracker,
            delta,
            killed,
        } = &mut self.bufs;
        delta.clear();
        tracker.fail_edge(t, h, delta);
        killed.clear();
        for &v in delta.iter() {
            if let Some(id) = self.router.session_through(v) {
                if !killed.contains(&id) {
                    killed.push(id);
                }
            }
        }
        killed.sort_unstable_by_key(|id| id.0);
        for &id in killed.iter() {
            let torn_down = self.router.disconnect(id);
            debug_assert!(torn_down);
        }
        let victims = killed.len();
        for &v in delta.iter() {
            self.router.kill_vertex_into(v, killed);
        }
        debug_assert_eq!(killed.len(), victims, "kills after release");
        self.check_mask();
        Some(&self.bufs.killed)
    }

    /// Repairs switch `edge`, returning its endpoints to routing where
    /// no other failed switch still discards them. `false` — and no
    /// change — if the switch was not failed.
    pub fn repair(&mut self, edge: EdgeId) -> bool {
        if self.inst.is_normal(edge) {
            return false;
        }
        self.inst.set_state(edge, SwitchState::Normal);
        self.failed -= 1;
        let (t, h) = self.net().graph().endpoints(edge);
        self.bufs.delta.clear();
        self.bufs.tracker.repair_edge(t, h, &mut self.bufs.delta);
        for &v in &self.bufs.delta {
            self.router.revive_vertex(v);
        }
        self.check_mask();
        true
    }

    /// Tears down every live circuit, returning `(id, input, output)`
    /// in ascending slot order. Failed switches stay failed.
    pub fn drain(&mut self) -> Vec<(SessionId, VertexId, VertexId)> {
        self.router.drain()
    }

    /// Debug-build oracle: the incrementally maintained repair mask
    /// must be bit-identical to the from-scratch recompute after every
    /// fault and repair.
    fn check_mask(&self) {
        debug_assert_eq!(
            self.alive(),
            self.fabric.alive_mask(&self.inst),
            "incremental repair mask diverged from scratch recompute"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricSpec;

    #[test]
    fn fault_kills_the_crossing_circuit_once_and_repair_restores_routing() {
        let fabric = FabricSpec::ClosStrict(2, 2).build();
        let mut core = SwitchingCore::new(&fabric, CoreBuffers::default());
        let a = core.admit(0, 3).unwrap();
        let b = core.admit(1, 2).unwrap();
        // A switch leaving the second vertex of `a`'s path.
        let path = core.router().session_path(a).unwrap().to_vec();
        let e = core.net().graph().out_edges(path[1]).next().unwrap();
        let killed = core.fail(e, SwitchState::Open).unwrap();
        assert_eq!(killed, [a]);
        let r = core.router();
        assert!(
            path.iter().all(|&v| r.is_idle(v) == r.is_alive(v)),
            "every vertex freed"
        );
        assert_eq!(core.healthy(), core.instance().len() - 1);
        assert!(core.fail(e, SwitchState::Closed).is_none());
        assert_eq!(core.failed(), 1, "a double fault changes nothing");
        assert!(!core.release(a), "a killed session is gone");
        assert!(core.router().session_path(b).is_some());
        assert!(core.repair(e));
        assert!(!core.repair(e), "a double repair changes nothing");
        assert!(core.alive().iter().all(|&alive| alive));
        assert_eq!(core.admit(0, 3), Ok(a), "the freed slot is reused");
        assert_eq!(core.drain().len(), 2);
    }

    #[test]
    fn one_fault_under_two_circuits_kills_them_in_ascending_slot_order() {
        let fabric = FabricSpec::Benes(2).build();
        let mut core = SwitchingCore::new(&fabric, CoreBuffers::default());
        for i in 0..fabric.terminals() {
            core.admit(i, i).unwrap();
        }
        // An internal switch whose tail carries the higher slot: the
        // victims are collected tail first, so the sort is observable.
        let g = core.net().graph();
        let internal_owner = |v: VertexId| {
            let owner = core.router().session_through(v)?;
            (!core.net().terminal_mask()[v.index()]).then_some(owner)
        };
        let (e, lo, hi) = (0..g.num_edges())
            .map(EdgeId::from)
            .find_map(|e| {
                let (t, h) = g.endpoints(e);
                let (hi, lo) = (internal_owner(t)?, internal_owner(h)?);
                (hi.0 > lo.0).then_some((e, lo, hi))
            })
            .expect("some switch joins two circuits, higher slot at the tail");
        let killed = core.fail(e, SwitchState::Closed).unwrap();
        assert_eq!(killed, [lo, hi]);
    }
}
