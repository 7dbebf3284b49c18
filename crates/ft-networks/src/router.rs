//! Greedy circuit-switching router.
//!
//! §4's third observation: because the fault-tolerant construction
//! contains a *strictly* nonblocking network, "routing can be performed
//! by a greedy application of a standard path-finding algorithm" — plain
//! BFS over idle vertices, no rearrangement, no cleverness. The router
//! maintains busy marks for established circuits, supports an external
//! liveness mask (the repair procedure's surviving vertices), and serves
//! connect/disconnect churn.

use ft_graph::ids::VertexId;
use ft_graph::mincost::mincost_place_into;
use ft_graph::traversal::route_into;
use ft_graph::{MincostWorkspace, OutputReach, RouteWorkspace, StagedNetwork};

/// `owner` sentinel: the vertex carries no circuit.
const NO_OWNER: u32 = u32::MAX;

/// Why a connection attempt failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// The input terminal is already carrying a circuit (or dead).
    InputUnavailable(VertexId),
    /// The output terminal is already carrying a circuit (or dead).
    OutputUnavailable(VertexId),
    /// No idle path exists — the network is *blocked* for this pair.
    Blocked(VertexId, VertexId),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::InputUnavailable(v) => write!(f, "input {v} unavailable"),
            RouteError::OutputUnavailable(v) => write!(f, "output {v} unavailable"),
            RouteError::Blocked(a, b) => write!(f, "no idle path {a} -> {b}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Handle to an established circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SessionId(pub u32);

/// Greedy circuit router over a staged network.
///
/// The network must be unit-staged (all of the paper's constructions
/// and every fabric here are), and a circuit joins a stage-0 input to a
/// last-stage output, so it holds one vertex per stage. `connect` does
/// not flood: it runs the depth-first descent [`route_into`], in one
/// router-owned [`RouteWorkspace`], over vertices that are idle *and*
/// can reach the wanted output at all (the network's cached
/// [`OutputReach`] table), which costs about one scanned vertex per
/// stage — §4's "any idle greedy path will do" — yet returns the
/// *bit-identical* path a full forward BFS would; the deterministic
/// simulation depends on that. Session path buffers are pooled and
/// reused, so steady-state connect/disconnect churn allocates nothing.
///
/// Because circuits are vertex-disjoint, each vertex carries at most
/// one live session; the router maintains that vertex → session index
/// (`owner`), which makes a fault at vertex `v` an O(path) operation
/// ([`Self::kill_vertex_into`]) instead of a scan over every live
/// session.
///
/// Released session slots go on a free list and are reused by later
/// `connect`s, so `sessions` stays bounded by the *peak* number of
/// concurrent circuits under arbitrarily long churn. A [`SessionId`] is
/// therefore only meaningful while its session is live: holding a stale
/// id after `disconnect` (or a fault kill) and using it later may
/// address a different circuit that reused the slot — callers that
/// outlive their sessions (the simulation engine) must revalidate.
#[derive(Clone, Debug)]
pub struct CircuitRouter<'a> {
    net: &'a StagedNetwork,
    /// Cached per-vertex stage table, resolved once at construction so
    /// `connect` skips the per-call `OnceLock` load.
    stage_tab: &'a [u32],
    /// The network's output-reach table, pruning the route search.
    reach: &'a OutputReach,
    /// Vertices usable at all (repair mask); true = usable.
    alive: Vec<bool>,
    /// `alive[v] && !busy[v]`, maintained incrementally so the BFS
    /// filter reads one array instead of two.
    idle: Vec<bool>,
    /// Session slot whose circuit crosses each vertex ([`NO_OWNER`] if
    /// none). Live paths are vertex-disjoint, so one slot suffices.
    owner: Vec<u32>,
    sessions: Vec<Option<Vec<VertexId>>>,
    /// Released slots in `sessions`, reused before growing the table.
    free: Vec<u32>,
    /// Cleared path buffers recycled across sessions.
    spare: Vec<Vec<VertexId>>,
    ws: RouteWorkspace,
    /// Split nodes settled by this router's min-cost placements (the
    /// planner's workspace lives in the caller's [`MincostBatch`]).
    mincost_pops: u64,
}

impl<'a> CircuitRouter<'a> {
    /// Router over a fully healthy network.
    pub fn new(net: &'a StagedNetwork) -> Self {
        Self::with_alive_mask(net, vec![true; net.graph().num_vertices()])
    }

    /// Router restricted to `alive` vertices (the §4 repaired network).
    /// Panics unless `net` is unit-staged.
    pub fn with_alive_mask(net: &'a StagedNetwork, alive: Vec<bool>) -> Self {
        assert_eq!(alive.len(), net.graph().num_vertices());
        assert!(net.is_unit_staged(), "network is not unit-staged");
        CircuitRouter {
            idle: alive.clone(),
            owner: vec![NO_OWNER; alive.len()],
            stage_tab: net.stage_table(),
            reach: net.output_reach(),
            net,
            alive,
            sessions: Vec::new(),
            free: Vec::new(),
            spare: Vec::new(),
            ws: RouteWorkspace::new(),
            mincost_pops: 0,
        }
    }

    /// Whether `v` is idle (alive and not carrying a circuit).
    pub fn is_idle(&self, v: VertexId) -> bool {
        self.idle[v.index()]
    }

    /// Whether `v` is alive (usable under the current repair mask).
    pub fn is_alive(&self, v: VertexId) -> bool {
        self.alive[v.index()]
    }

    /// Number of live sessions.
    pub fn active_sessions(&self) -> usize {
        self.sessions.len() - self.free.len()
    }

    /// Capacity of the session table (live slots + free-listed slots).
    /// Bounded by the peak concurrent session count, not by the total
    /// number of connects ever served.
    pub fn session_slots(&self) -> usize {
        self.sessions.len()
    }

    /// The path held by a session.
    pub fn session_path(&self, id: SessionId) -> Option<&[VertexId]> {
        self.sessions.get(id.0 as usize).and_then(|s| s.as_deref())
    }

    /// Accumulated per-kernel work counters of the router's search
    /// workspace, plus the split nodes its [`Self::mincost_place`]
    /// calls settled (`mincost_pops`). Counters are deterministic
    /// functions of the connect/disconnect history, so they may feed
    /// byte-reproducible reports; deltas around a single `connect`
    /// measure that attempt's search effort.
    #[inline]
    pub fn kernel_stats(&self) -> ft_graph::KernelStats {
        ft_graph::KernelStats {
            mincost_pops: self.mincost_pops,
            ..self.ws.stats()
        }
    }

    /// Attempts to connect `input → output` greedily: the path taken is
    /// the one a BFS over idle vertices would return (a shortest idle
    /// path, ties broken by out-edge order). On success the path's
    /// vertices become busy.
    ///
    /// The search is [`route_into`], a depth-first descent in out-edge
    /// order over vertices that are idle and can structurally reach
    /// `output`; the first path it completes is that BFS path (see the
    /// kernel's "Exactness"), so routing decisions — and with them the
    /// simulation's pinned event fingerprints — do not depend on the
    /// kernel. The reach table only prunes: it is a superset of what is
    /// reachable through idle vertices. An idle fabric costs one scanned
    /// vertex per path edge; a blocked pair costs at most the idle part
    /// of the pair's static cone. `input` must lie in stage 0 and
    /// `output` in the last stage: debug builds assert that the circuit
    /// holds one vertex of every stage.
    pub fn connect(&mut self, input: VertexId, output: VertexId) -> Result<SessionId, RouteError> {
        if !self.is_idle(input) {
            return Err(RouteError::InputUnavailable(input));
        }
        if !self.is_idle(output) {
            return Err(RouteError::OutputUnavailable(output));
        }
        let csr = self.net.graph();
        let idle = &self.idle;
        let mut path = self.spare.pop().unwrap_or_default();
        let (reach, col) = (self.reach, self.reach.column(output));
        let reached = route_into(
            csr,
            input,
            output,
            self.stage_tab,
            |v| idle[v.index()] && reach.reaches(v, col),
            &mut self.ws,
            &mut path,
        );
        if !reached {
            // A fresh buffer holds nothing worth pooling.
            if path.capacity() > 0 {
                self.spare.push(path);
            }
            return Err(RouteError::Blocked(input, output));
        }
        Ok(self.commit_path(path))
    }

    /// Marks a found idle path busy and registers it as a session —
    /// the shared tail of [`Self::connect`] and [`Self::mincost_place`].
    /// Every fabric runs from stage-0 inputs to last-stage outputs, so a
    /// circuit holds one vertex per stage; the simulator's single
    /// occupancy count relies on it.
    fn commit_path(&mut self, path: Vec<VertexId>) -> SessionId {
        debug_assert_eq!(
            path.len(),
            self.net.num_stages(),
            "a circuit crosses every stage once"
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.sessions[slot as usize].is_none());
                slot
            }
            None => {
                self.sessions.push(None);
                (self.sessions.len() - 1) as u32
            }
        };
        for &v in &path {
            self.idle[v.index()] = false;
            self.owner[v.index()] = slot;
        }
        self.sessions[slot as usize] = Some(path);
        SessionId(slot)
    }

    /// Starts a min-cost placement wave on `batch`: the planner's
    /// potentials restart at zero. O(1) — the planner searches the live
    /// idle fabric, so nothing is copied. Start a new wave whenever the
    /// idle set changes other than by [`Self::mincost_place`].
    pub fn begin_mincost_batch(&self, batch: &mut MincostBatch) {
        batch.begin_wave();
    }

    /// Attempts to place `input → output` by one min-cost augmentation
    /// on the idle fabric (`ft_graph::mincost`): a cheapest idle path,
    /// every occupied vertex costing one, ties broken by the planner's
    /// potentials. On success the placement is *executed*: the circuit
    /// is committed exactly as [`Self::connect`] would (same slot, owner
    /// and idle bookkeeping), which also withdraws it from every later
    /// placement of the wave — placements never repack earlier ones. On
    /// failure nothing changes, neither the fabric nor the potentials.
    /// The endpoints obey [`Self::connect`]'s stage contract.
    pub fn mincost_place(
        &mut self,
        batch: &mut MincostBatch,
        input: VertexId,
        output: VertexId,
    ) -> Result<SessionId, RouteError> {
        if !self.is_idle(input) {
            return Err(RouteError::InputUnavailable(input));
        }
        if !self.is_idle(output) {
            return Err(RouteError::OutputUnavailable(output));
        }
        let mut path = self.spare.pop().unwrap_or_default();
        let idle = &self.idle;
        let before = batch.stats().mincost_pops;
        let placed = mincost_place_into(
            self.net.graph(),
            input,
            output,
            |v| idle[v.index()],
            batch,
            &mut path,
        );
        self.mincost_pops += batch.stats().mincost_pops - before;
        if !placed {
            self.spare.push(path);
            return Err(RouteError::Blocked(input, output));
        }
        Ok(self.commit_path(path))
    }

    /// Releases slot `slot`'s circuit, restoring idleness along its
    /// path and recycling the path buffer. Returns whether a live
    /// circuit was torn down.
    fn release_slot(&mut self, slot: usize) -> bool {
        let Some(entry) = self.sessions.get_mut(slot) else {
            return false;
        };
        let Some(mut path) = entry.take() else {
            return false;
        };
        for &v in &path {
            self.owner[v.index()] = NO_OWNER;
            self.idle[v.index()] = self.alive[v.index()];
        }
        path.clear();
        self.spare.push(path);
        self.free.push(slot as u32);
        true
    }

    /// Releases a session's circuit. Returns whether a live circuit was
    /// actually torn down: disconnecting an unknown or
    /// already-disconnected session is a checked no-op yielding `false`.
    pub fn disconnect(&mut self, id: SessionId) -> bool {
        self.release_slot(id.0 as usize)
    }

    /// The `(input, output)` terminal pair of a live session — the
    /// first and last vertices of its path. `None` for unknown or
    /// already-released sessions.
    pub fn session_endpoints(&self, id: SessionId) -> Option<(VertexId, VertexId)> {
        let path = self.session_path(id)?;
        Some((*path.first()?, *path.last()?))
    }

    /// Drains the router: tears down every live circuit and returns
    /// the released sessions as `(id, input, output)` triples in
    /// ascending slot order (deterministic regardless of connect
    /// history). This is the first half of a graceful topology swap —
    /// the caller re-establishes ("migrates") the returned endpoint
    /// pairs on a router over the replacement network and drops the
    /// pairs that no longer route there.
    pub fn drain(&mut self) -> Vec<(SessionId, VertexId, VertexId)> {
        let mut out = Vec::with_capacity(self.active_sessions());
        for slot in 0..self.sessions.len() {
            let id = SessionId(slot as u32);
            if let Some((input, output)) = self.session_endpoints(id) {
                out.push((id, input, output));
                let released = self.release_slot(slot);
                debug_assert!(released);
            }
        }
        out
    }

    /// The live session whose circuit crosses `v`, if any — O(1) via
    /// the vertex → session index.
    #[inline]
    pub fn session_through(&self, v: VertexId) -> Option<SessionId> {
        let ow = self.owner[v.index()];
        (ow != NO_OWNER).then_some(SessionId(ow))
    }

    /// Kills every live session whose path crosses vertex `v` (a switch
    /// endpoint that just failed). Freed vertices become idle again;
    /// the killed sessions' slots return to the free list. Returns the
    /// killed ids (at most one — circuits are vertex-disjoint).
    pub fn kill_sessions_through(&mut self, v: VertexId) -> Vec<SessionId> {
        let mut killed = Vec::new();
        if let Some(id) = self.session_through(v) {
            self.release_slot(id.0 as usize);
            killed.push(id);
        }
        killed
    }

    /// Marks `v` newly dead under the repair mask: kills the at most
    /// one circuit crossing it (appending the killed id to `killed`, a
    /// caller-owned reusable buffer) and withdraws `v` from routing.
    /// O(killed path length) — the incremental counterpart of
    /// [`Self::set_alive_mask`] for a single-vertex delta.
    pub fn kill_vertex_into(&mut self, v: VertexId, killed: &mut Vec<SessionId>) {
        if let Some(id) = self.session_through(v) {
            self.release_slot(id.0 as usize);
            killed.push(id);
        }
        self.alive[v.index()] = false;
        self.idle[v.index()] = false;
    }

    /// Marks `v` alive again after repair — the incremental counterpart
    /// of [`Self::set_alive_mask`] for a single-vertex delta. O(1).
    pub fn revive_vertex(&mut self, v: VertexId) {
        debug_assert_eq!(
            self.owner[v.index()],
            NO_OWNER,
            "a dead vertex cannot carry a circuit"
        );
        self.alive[v.index()] = true;
        self.idle[v.index()] = true;
    }

    /// Replaces the repair mask wholesale (the set of usable vertices
    /// changed arbitrarily), killing every live session that crosses a
    /// now-dead vertex and recomputing idleness. Returns the killed ids
    /// in ascending slot order. O(V + live sessions); event-driven
    /// callers with single-switch deltas should prefer
    /// [`Self::kill_vertex_into`] / [`Self::revive_vertex`], which keep
    /// identical state at O(1) per event.
    pub fn set_alive_mask(&mut self, alive: &[bool]) -> Vec<SessionId> {
        assert_eq!(alive.len(), self.alive.len(), "alive mask length mismatch");
        self.alive.copy_from_slice(alive);
        let mut killed = Vec::new();
        for slot in 0..self.sessions.len() {
            let crosses = self.sessions[slot]
                .as_ref()
                .is_some_and(|path| path.iter().any(|&u| !alive[u.index()]));
            if crosses {
                self.release_slot(slot);
                killed.push(SessionId(slot as u32));
            }
        }
        // Re-derive idleness for every vertex whose aliveness may have
        // flipped; the owner index makes this a single O(V) pass.
        for v in 0..self.alive.len() {
            self.idle[v] = self.alive[v] && self.owner[v] == NO_OWNER;
        }
        killed
    }

    /// The underlying network.
    pub fn network(&self) -> &StagedNetwork {
        self.net
    }
}

/// Reusable state of min-cost placement waves
/// ([`CircuitRouter::begin_mincost_batch`] /
/// [`CircuitRouter::mincost_place`]): the planner's workspace. Own one
/// per simulation worker; its buffers grow to the fabric size once.
pub type MincostBatch = MincostWorkspace;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clos::Clos;
    use crate::crossbar::crossbar;
    use ft_graph::gen::rng;
    use rand::Rng;

    #[test]
    fn crossbar_connects_all_pairs() {
        let net = crossbar(3);
        let mut router = CircuitRouter::new(&net);
        let mut ids = Vec::new();
        for i in 0..3 {
            let id = router
                .connect(net.inputs()[i], net.outputs()[(i + 1) % 3])
                .unwrap();
            ids.push(id);
        }
        assert_eq!(router.active_sessions(), 3);
        // everything busy now
        let err = router.connect(net.inputs()[0], net.outputs()[0]);
        assert_eq!(err, Err(RouteError::InputUnavailable(net.inputs()[0])));
        router.disconnect(ids[0]);
        assert_eq!(router.active_sessions(), 2);
        // freed pair reconnects
        router.connect(net.inputs()[0], net.outputs()[1]).unwrap();
    }

    #[test]
    fn strict_clos_never_blocks_under_churn() {
        // Clos' theorem: m = 2n−1 suffices for greedy routing. Hammer a
        // small strict Clos with random churn; a block is a bug (either
        // in the router or the construction).
        let c = Clos::strictly_nonblocking(2, 3); // m=3, 6 terminals
        let net = &c.net;
        let n = c.terminals();
        let mut router = CircuitRouter::new(net);
        let mut r = rng(42);
        // call state per input: Option<(session, output)>
        let mut call: Vec<Option<SessionId>> = vec![None; n];
        let mut out_busy = vec![false; n];
        let mut out_of: Vec<usize> = vec![usize::MAX; n];
        for _ in 0..2000 {
            let i = r.random_range(0..n);
            match call[i] {
                Some(id) => {
                    router.disconnect(id);
                    out_busy[out_of[i]] = false;
                    call[i] = None;
                }
                None => {
                    // pick a random idle output
                    let free: Vec<usize> = (0..n).filter(|&o| !out_busy[o]).collect();
                    if free.is_empty() {
                        continue;
                    }
                    let o = free[r.random_range(0..free.len())];
                    let id = router
                        .connect(net.inputs()[i], net.outputs()[o])
                        .unwrap_or_else(|e| panic!("strict Clos blocked: {e}"));
                    call[i] = Some(id);
                    out_busy[o] = true;
                    out_of[i] = o;
                }
            }
        }
    }

    #[test]
    fn rearrangeable_clos_blocks_eventually() {
        // m = n Clos is rearrangeable but NOT strictly nonblocking: the
        // greedy router must hit a Blocked error under adversarial churn.
        let c = Clos::rearrangeable(2, 2); // m=2, 4 terminals
        let net = &c.net;
        let n = c.terminals();
        let mut blocked_seen = false;
        let mut r = rng(7);
        'outer: for _ in 0..200 {
            let mut router = CircuitRouter::new(net);
            let mut live: Vec<(SessionId, usize, usize)> = Vec::new();
            for _step in 0..100 {
                let connect = live.is_empty() || r.random_bool(0.6);
                if connect {
                    let ins: Vec<usize> = (0..n)
                        .filter(|&i| router.is_idle(net.inputs()[i]))
                        .collect();
                    let outs: Vec<usize> = (0..n)
                        .filter(|&o| router.is_idle(net.outputs()[o]))
                        .collect();
                    if ins.is_empty() || outs.is_empty() {
                        continue;
                    }
                    let i = ins[r.random_range(0..ins.len())];
                    let o = outs[r.random_range(0..outs.len())];
                    match router.connect(net.inputs()[i], net.outputs()[o]) {
                        Ok(id) => live.push((id, i, o)),
                        Err(RouteError::Blocked(_, _)) => {
                            blocked_seen = true;
                            break 'outer;
                        }
                        Err(e) => panic!("unexpected error {e}"),
                    }
                } else {
                    let idx = r.random_range(0..live.len());
                    let (id, _, _) = live.swap_remove(idx);
                    router.disconnect(id);
                }
            }
        }
        assert!(
            blocked_seen,
            "rearrangeable Clos never blocked greedy routing — suspicious"
        );
    }

    #[test]
    fn alive_mask_restricts_routing() {
        let net = crossbar(2);
        // kill output 0
        let mut alive = vec![true; net.graph().num_vertices()];
        alive[net.outputs()[0].index()] = false;
        let mut router = CircuitRouter::with_alive_mask(&net, alive);
        let err = router.connect(net.inputs()[0], net.outputs()[0]);
        assert!(matches!(err, Err(RouteError::OutputUnavailable(_))));
        router.connect(net.inputs()[0], net.outputs()[1]).unwrap();
    }

    #[test]
    fn double_disconnect_is_checked_noop() {
        let net = crossbar(2);
        let mut router = CircuitRouter::new(&net);
        let id = router.connect(net.inputs()[0], net.outputs()[0]).unwrap();
        assert!(router.disconnect(id));
        // second teardown: no-op, reported as such
        assert!(!router.disconnect(id));
        // unknown session ids are also a checked no-op
        assert!(!router.disconnect(SessionId(999)));
        assert_eq!(router.active_sessions(), 0);
        // the network is fully released — the pair reconnects
        router.connect(net.inputs()[0], net.outputs()[0]).unwrap();
    }

    #[test]
    fn session_table_stays_bounded_under_long_churn() {
        // Regression for unbounded session growth: churn way more than
        // 2x the terminal count through the router; the slot table must
        // stay at the peak concurrency, not the total connect count.
        let c = Clos::strictly_nonblocking(2, 3); // 6 terminals
        let net = &c.net;
        let n = c.terminals();
        let mut router = CircuitRouter::new(net);
        let mut r = rng(17);
        let mut live: Vec<SessionId> = Vec::new();
        let mut connects = 0usize;
        while connects < 4 * n {
            if live.len() < n && (live.is_empty() || r.random_bool(0.5)) {
                let i = (0..n).find(|&i| router.is_idle(net.inputs()[i]));
                let o = (0..n).find(|&o| router.is_idle(net.outputs()[o]));
                if let (Some(i), Some(o)) = (i, o) {
                    live.push(router.connect(net.inputs()[i], net.outputs()[o]).unwrap());
                    connects += 1;
                }
            } else {
                let k = r.random_range(0..live.len());
                assert!(router.disconnect(live.swap_remove(k)));
            }
        }
        assert!(connects >= 2 * n);
        assert!(
            router.session_slots() <= n,
            "session table grew to {} slots for {} terminals ({} connects)",
            router.session_slots(),
            n,
            connects
        );
    }

    #[test]
    fn mincost_place_matches_connect_bookkeeping() {
        let c = Clos::strictly_nonblocking(2, 3);
        let net = &c.net;
        let mut greedy = CircuitRouter::new(net);
        let mut planned = CircuitRouter::new(net);
        let mut batch = MincostBatch::new();
        planned.begin_mincost_batch(&mut batch);
        for i in 0..c.terminals() {
            let (input, output) = (net.inputs()[i], net.outputs()[i]);
            let g = greedy.connect(input, output).unwrap();
            let m = planned.mincost_place(&mut batch, input, output).unwrap();
            let gp = greedy.session_path(g).unwrap();
            let mp = planned.session_path(m).unwrap();
            assert_eq!(mp.first(), Some(&input));
            assert_eq!(mp.last(), Some(&output));
            // unit-staged fabric: minimal vertex cost == shortest path
            assert_eq!(gp.len(), mp.len(), "pair {i}");
        }
        assert_eq!(planned.active_sessions(), greedy.active_sessions());
        // the committed circuits tear down through the normal path
        assert!(planned.disconnect(SessionId(0)));
        assert!(planned.is_idle(net.inputs()[0]));
        planned.connect(net.inputs()[0], net.outputs()[0]).unwrap();
    }

    #[test]
    fn mincost_blocked_probe_leaves_fabric_untouched() {
        // The butterfly is not a superconcentrator: some second pair
        // cannot be added vertex-disjointly. A failed mincost probe
        // must leave both fabric and snapshot exactly as they were.
        let b = crate::butterfly::Butterfly::new(2);
        let net = &b.net;
        let mut blocked_seen = false;
        for i1 in 0..4 {
            for i2 in 0..4 {
                for o1 in 0..4 {
                    for o2 in 0..4 {
                        if i1 == i2 || o1 == o2 {
                            continue;
                        }
                        let mut router = CircuitRouter::new(net);
                        let mut batch = MincostBatch::new();
                        router.begin_mincost_batch(&mut batch);
                        router
                            .mincost_place(&mut batch, net.inputs()[i1], net.outputs()[o1])
                            .unwrap();
                        match router.mincost_place(&mut batch, net.inputs()[i2], net.outputs()[o2])
                        {
                            Ok(_) => {}
                            Err(RouteError::Blocked(a, z)) => {
                                blocked_seen = true;
                                assert_eq!(router.active_sessions(), 1);
                                assert!(router.is_idle(a) && router.is_idle(z));
                                // fabric untouched: the pair that was
                                // placed still connects after a retry of
                                // the blocked pair through `connect`
                                assert!(matches!(
                                    router.connect(net.inputs()[i2], net.outputs()[o2]),
                                    Err(RouteError::Blocked(_, _))
                                ));
                            }
                            Err(e) => panic!("unexpected error {e}"),
                        }
                    }
                }
            }
        }
        assert!(blocked_seen, "butterfly unexpectedly superconcentrates");
    }

    /// Every idle simple `s → t` path of `net` (test fabrics are DAGs).
    fn idle_paths(
        net: &StagedNetwork,
        idle: &[bool],
        s: VertexId,
        t: VertexId,
    ) -> Vec<Vec<VertexId>> {
        fn walk(
            net: &StagedNetwork,
            idle: &[bool],
            t: VertexId,
            path: &mut Vec<VertexId>,
            out: &mut Vec<Vec<VertexId>>,
        ) {
            let v = *path.last().unwrap();
            if v == t {
                out.push(path.clone());
                return;
            }
            for &h in net.graph().out_heads(v) {
                if idle[h.index()] {
                    path.push(h);
                    walk(net, idle, t, path, out);
                    path.pop();
                }
            }
        }
        let mut out = Vec::new();
        if idle[s.index()] {
            walk(net, idle, t, &mut vec![s], &mut out);
        }
        out
    }

    #[test]
    fn mincost_wave_can_block_a_jointly_placeable_pair() {
        // Beneš(2) carrying one circuit 2 → 0; a kill wave then places
        // 1 → 1 and 0 → 3. The planner puts the first victim on a
        // cheapest path without looking ahead, and that path cuts every
        // idle route of the second victim — yet brute force finds a
        // vertex-disjoint placement of both on the wave's idle fabric.
        let b = crate::benes::Benes::new(2);
        let net = &b.net;
        let (ins, outs) = (net.inputs(), net.outputs());
        let mut router = CircuitRouter::new(net);
        router.connect(ins[2], outs[0]).unwrap();
        let n = net.graph().num_vertices();
        let idle: Vec<bool> = (0..n).map(|v| router.is_idle(VertexId::from(v))).collect();
        let mut batch = MincostBatch::new();
        router.begin_mincost_batch(&mut batch);
        router.mincost_place(&mut batch, ins[1], outs[1]).unwrap();
        assert_eq!(
            router.mincost_place(&mut batch, ins[0], outs[3]),
            Err(RouteError::Blocked(ins[0], outs[3]))
        );
        let firsts = idle_paths(net, &idle, ins[1], outs[1]);
        let seconds = idle_paths(net, &idle, ins[0], outs[3]);
        let joint = firsts
            .iter()
            .any(|p| seconds.iter().any(|q| p.iter().all(|v| !q.contains(v))));
        assert!(joint, "no joint placement of {firsts:?} and {seconds:?}");
    }

    #[test]
    fn mincost_place_is_the_planner_on_the_bare_idle_mask() {
        // The router must hand the planner its idle mask and nothing
        // less: a node pruned from a search (say by the output-reach
        // table) misses its potential update, and later placements of
        // the wave break ties differently. Waves of 1–6 placements on
        // churning fabrics, through the router and through the planner
        // on a copy of the router's idle mask, must agree exactly.
        use ft_graph::mincost::mincost_place_into;
        let fabrics = [
            crate::benes::Benes::new(3).net,
            Clos::rearrangeable(2, 3).net,
            crate::multibutterfly::Multibutterfly::seeded(3, 2, 7).net,
        ];
        for net in &fabrics {
            let (ins, outs) = (net.inputs(), net.outputs());
            let n = net.graph().num_vertices();
            let mut r = rng(23);
            let mut router = CircuitRouter::new(net);
            let (mut batch, mut ws) = (MincostBatch::new(), MincostWorkspace::new());
            let mut path = Vec::new();
            let mut carried = 0;
            for _ in 0..300 {
                for _ in 0..2 {
                    let (i, o) = (r.random_range(0..ins.len()), r.random_range(0..outs.len()));
                    let _ = router.connect(ins[i], outs[o]);
                }
                let mut idle: Vec<bool> =
                    (0..n).map(|v| router.is_idle(VertexId::from(v))).collect();
                router.begin_mincost_batch(&mut batch);
                ws.begin_wave();
                let mut placed = 0;
                for _ in 0..r.random_range(1..=6) {
                    let (i, o) = (
                        ins[r.random_range(0..ins.len())],
                        outs[r.random_range(0..outs.len())],
                    );
                    if !idle[i.index()] || !idle[o.index()] {
                        continue;
                    }
                    let pops = router.kernel_stats().mincost_pops;
                    let got = router.mincost_place(&mut batch, i, o);
                    let got = got.map(|id| router.session_path(id).unwrap().to_vec()).ok();
                    let want_pops = ws.stats().mincost_pops;
                    let found = mincost_place_into(
                        net.graph(),
                        i,
                        o,
                        |v| idle[v.index()],
                        &mut ws,
                        &mut path,
                    );
                    assert_eq!(got, found.then(|| path.clone()), "{i:?} → {o:?}");
                    assert_eq!(
                        router.kernel_stats().mincost_pops - pops,
                        ws.stats().mincost_pops - want_pops
                    );
                    if found {
                        path.iter().for_each(|v| idle[v.index()] = false);
                        carried += usize::from(placed > 0);
                        placed += 1;
                    }
                }
                for slot in 0..router.session_slots() {
                    if r.random_bool(0.6) {
                        router.disconnect(SessionId(slot as u32));
                    }
                }
            }
            assert!(
                carried > 50,
                "only {carried} placements on carried potentials"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unit-staged")]
    fn stage_skipping_networks_are_refused() {
        let mut b = ft_graph::StagedBuilder::new();
        let (s0, _, s2) = (b.add_stage(1), b.add_stage(1), b.add_stage(1));
        b.add_edge(VertexId(s0.start), VertexId(s2.start));
        b.set_inputs(vec![VertexId(s0.start)]);
        b.set_outputs(vec![VertexId(s2.start)]);
        CircuitRouter::new(&b.finish());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "every stage once")]
    fn a_circuit_must_run_from_stage_0_to_the_last_stage() {
        let c = Clos::strictly_nonblocking(2, 3);
        let middle = c.net.stage_vertices(1).next().unwrap();
        let mut router = CircuitRouter::new(&c.net);
        let _ = router.connect(middle, c.net.outputs()[0]);
    }

    #[test]
    fn kill_sessions_through_vertex_frees_path() {
        let net = crossbar(3);
        let mut router = CircuitRouter::new(&net);
        let a = router.connect(net.inputs()[0], net.outputs()[0]).unwrap();
        let b = router.connect(net.inputs()[1], net.outputs()[1]).unwrap();
        let killed = router.kill_sessions_through(net.inputs()[0]);
        assert_eq!(killed, vec![a]);
        assert_eq!(router.active_sessions(), 1);
        assert!(router.session_path(a).is_none());
        assert!(router.session_path(b).is_some());
        // the killed path's vertices are idle again
        assert!(router.is_idle(net.inputs()[0]));
        assert!(router.is_idle(net.outputs()[0]));
        router.connect(net.inputs()[0], net.outputs()[0]).unwrap();
    }

    #[test]
    fn set_alive_mask_kills_crossing_sessions_and_restores() {
        let c = Clos::strictly_nonblocking(2, 2); // 4 terminals
        let net = &c.net;
        let mut router = CircuitRouter::new(net);
        let mut ids = Vec::new();
        for i in 0..4 {
            ids.push(router.connect(net.inputs()[i], net.outputs()[i]).unwrap());
        }
        // kill the internal vertices of session 0's path
        let path: Vec<_> = router.session_path(ids[0]).unwrap().to_vec();
        let mut alive = vec![true; net.graph().num_vertices()];
        for &v in &path[1..path.len() - 1] {
            alive[v.index()] = false;
        }
        let killed = router.set_alive_mask(&alive);
        assert_eq!(killed, vec![ids[0]]);
        assert_eq!(router.active_sessions(), 3);
        // endpoints idle again, dead internals are not idle
        assert!(router.is_idle(net.inputs()[0]));
        assert!(!router.is_idle(path[1]));
        assert!(!router.is_alive(path[1]));
        // full repair: revive everything; the pair reconnects
        let revived = router.set_alive_mask(&vec![true; net.graph().num_vertices()]);
        assert!(revived.is_empty());
        router.connect(net.inputs()[0], net.outputs()[0]).unwrap();
    }

    #[test]
    fn session_endpoints_are_the_connected_pair() {
        let c = Clos::strictly_nonblocking(2, 2);
        let net = &c.net;
        let mut router = CircuitRouter::new(net);
        let id = router.connect(net.inputs()[1], net.outputs()[0]).unwrap();
        assert_eq!(
            router.session_endpoints(id),
            Some((net.inputs()[1], net.outputs()[0]))
        );
        router.disconnect(id);
        assert_eq!(router.session_endpoints(id), None);
    }

    #[test]
    fn drain_releases_everything_in_slot_order_and_migrates() {
        let c = Clos::strictly_nonblocking(2, 2); // 4 terminals
        let net = &c.net;
        let mut router = CircuitRouter::new(net);
        let mut ids = Vec::new();
        // connect out of terminal order so slot order != connect order
        for i in [2usize, 0, 3, 1] {
            ids.push(router.connect(net.inputs()[i], net.outputs()[i]).unwrap());
        }
        router.disconnect(ids[1]); // free a slot (and the 0→0 pair)
        let reconnected = router.connect(net.inputs()[0], net.outputs()[0]).unwrap();
        assert_eq!(reconnected, ids[1], "free list must reuse the slot");
        let drained = router.drain();
        assert_eq!(router.active_sessions(), 0);
        assert_eq!(drained.len(), 4);
        // ascending slot order, each triple carrying its endpoint pair
        for w in drained.windows(2) {
            assert!(w[0].0 .0 < w[1].0 .0);
        }
        assert_eq!(drained[1], (ids[1], net.inputs()[0], net.outputs()[0]));
        // the second half of a topology swap: re-establish every pair
        // on a fresh router (here over the same network)
        let mut next = CircuitRouter::new(net);
        for &(_, input, output) in &drained {
            next.connect(input, output).unwrap();
        }
        assert_eq!(next.active_sessions(), 4);
    }
}
