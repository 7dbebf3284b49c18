//! A bare `CircuitRouter` + `AliveTracker` driven by circuit ids: the
//! calls `ft-serve`'s engine and `ft-sim`'s engine both make per
//! request, and nothing else. The traced run replays a workload on it
//! to price the layers *below* an engine; the engine's own cost is the
//! difference.

use std::collections::HashMap;

use ft_failure::{AliveTracker, FailureInstance};
use ft_graph::{Digraph, EdgeId, VertexId};
use ft_networks::{CircuitRouter, RouteError, SessionId};
use ft_sim::Fabric;

/// See the module docs. The fault path is split in two so the tracker
/// and the router can be timed apart: [`fail_edge`](Self::fail_edge)
/// then [`kill_wave`](Self::kill_wave), [`repair_edge`](Self::repair_edge)
/// then [`revive`](Self::revive).
pub struct Bare<'a> {
    fabric: &'a Fabric,
    pub router: CircuitRouter<'a>,
    tracker: AliveTracker,
    sessions: HashMap<u64, SessionId>,
    /// Circuit id holding each router slot.
    owner: Vec<u64>,
    /// Vertices the last tracker call flipped.
    delta: Vec<VertexId>,
    victims: Vec<SessionId>,
    already_dead: Vec<SessionId>,
}

impl<'a> Bare<'a> {
    /// A healthy, empty fabric.
    pub fn new(fabric: &'a Fabric) -> Self {
        let net = fabric.net();
        Bare {
            fabric,
            router: CircuitRouter::new(net),
            tracker: fabric.alive_tracker(&FailureInstance::perfect(net.num_edges())),
            sessions: HashMap::new(),
            owner: Vec::new(),
            delta: Vec::new(),
            victims: Vec::new(),
            already_dead: Vec::new(),
        }
    }

    /// The terminal vertices of input `src` and output `dst`.
    pub fn terminals(&self, src: u32, dst: u32) -> (VertexId, VertexId) {
        let net = self.fabric.net();
        (net.inputs()[src as usize], net.outputs()[dst as usize])
    }

    /// `connect` + `session_path` under circuit id `id`: what an engine
    /// does to admit a call.
    pub fn connect(&mut self, id: u64, src: u32, dst: u32) -> Result<usize, RouteError> {
        let (input, output) = self.terminals(src, dst);
        let sid = self.router.connect(input, output)?;
        let hops = self.router.session_path(sid).map_or(0, <[_]>::len);
        self.sessions.insert(id, sid);
        let slot = sid.0 as usize;
        if self.owner.len() <= slot {
            self.owner.resize(slot + 1, 0);
        }
        self.owner[slot] = id;
        Ok(hops)
    }

    /// Releases circuit `id`; `false` if it is not up (never connected,
    /// or killed by a fault).
    pub fn disconnect(&mut self, id: u64) -> bool {
        match self.sessions.remove(&id) {
            Some(sid) => self.router.disconnect(sid),
            None => false,
        }
    }

    /// Tracker half of a fault on `switch`.
    pub fn fail_edge(&mut self, switch: u32) {
        let (t, h) = self.fabric.net().graph().endpoints(EdgeId(switch));
        self.delta.clear();
        self.tracker.fail_edge(t, h, &mut self.delta);
    }

    /// Router half of a fault: kills the circuits crossing the vertices
    /// the tracker just discarded, in ascending slot order as both
    /// engines do, then withdraws the vertices. Returns the kill count.
    pub fn kill_wave(&mut self) -> usize {
        self.victims.clear();
        for &v in &self.delta {
            if let Some(sid) = self.router.session_through(v) {
                if !self.victims.contains(&sid) {
                    self.victims.push(sid);
                }
            }
        }
        self.victims.sort_unstable_by_key(|sid| sid.0);
        for &sid in &self.victims {
            self.router.disconnect(sid);
            self.sessions.remove(&self.owner[sid.0 as usize]);
        }
        for &v in &self.delta {
            self.router.kill_vertex_into(v, &mut self.already_dead);
        }
        self.victims.len()
    }

    /// Tracker half of a repair of `switch`.
    pub fn repair_edge(&mut self, switch: u32) {
        let (t, h) = self.fabric.net().graph().endpoints(EdgeId(switch));
        self.delta.clear();
        self.tracker.repair_edge(t, h, &mut self.delta);
    }

    /// Router half of a repair.
    pub fn revive(&mut self) {
        for &v in &self.delta {
            self.router.revive_vertex(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_sim::FabricSpec;

    #[test]
    fn a_fault_under_a_circuit_kills_it_and_repair_restores_the_path() {
        let fabric = FabricSpec::parse("clos-strict 2 2").unwrap().build();
        let mut bare = Bare::new(&fabric);
        assert!(bare.connect(1, 0, 3).unwrap() >= 2);
        // Fail a switch on circuit 1's path: the one leaving its second vertex.
        let sid = bare.sessions[&1];
        let second = bare.router.session_path(sid).unwrap()[1];
        let g = fabric.net().graph();
        let switch = (0..g.num_edges() as u32)
            .find(|&e| g.endpoints(EdgeId(e)).0 == second)
            .unwrap();
        bare.fail_edge(switch);
        assert_eq!(bare.kill_wave(), 1);
        assert!(!bare.disconnect(1), "a killed circuit is gone");
        bare.repair_edge(switch);
        bare.revive();
        assert!(bare.connect(2, 0, 3).is_ok());
        assert!(bare.disconnect(2));
    }
}
