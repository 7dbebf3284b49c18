//! Staged networks: digraphs with terminals and stage (level) structure.
//!
//! Every network in the paper is *staged*: vertices are arranged in
//! stages 0..w, inputs live on stage 0, outputs on the last stage, and
//! edges point from a stage to a strictly later one (in the constructions,
//! always the adjacent one). [`StagedNetwork`] carries that structure and
//! the input/output terminal lists; it is the common currency between the
//! classical networks (Beneš, Clos, grids) and the fault-tolerant
//! construction 𝒩 of §6.

use crate::csr::Csr;
use crate::digraph::DiGraph;
use crate::ids::{EdgeId, VertexId};
use crate::traversal;
use crate::Digraph;
use std::ops::Range;
use std::sync::OnceLock;

/// A directed, staged network with distinguished input/output terminals.
#[derive(Clone, Debug)]
pub struct StagedNetwork {
    graph: DiGraph,
    /// Contiguous vertex-id range of each stage.
    stages: Vec<Range<u32>>,
    inputs: Vec<VertexId>,
    outputs: Vec<VertexId>,
    /// Lazily built CSR snapshot shared by all traversal-heavy callers.
    csr: OnceLock<Csr>,
    /// Lazily built per-vertex stage table + unit-staged flag.
    staging: OnceLock<(Vec<u32>, bool)>,
    /// Lazily built per-vertex terminal flags (see [`Self::terminal_mask`]).
    terminal_mask: OnceLock<Vec<bool>>,
}

impl StagedNetwork {
    /// The underlying digraph.
    #[inline]
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// A frozen [`Csr`] snapshot of the graph, built on first use and
    /// cached. Monte Carlo hot paths (routing, access, certification)
    /// traverse this instead of the cache-hostile `Vec<Vec>` builder
    /// adjacency; ids are identical to [`Self::graph`].
    pub fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| Csr::from_digraph(&self.graph))
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The vertex-id range of stage `i`.
    pub fn stage_range(&self, i: usize) -> Range<u32> {
        self.stages[i].clone()
    }

    /// Vertices of stage `i`.
    pub fn stage_vertices(&self, i: usize) -> impl ExactSizeIterator<Item = VertexId> + '_ {
        self.stages[i].clone().map(VertexId)
    }

    /// The stage containing vertex `u`.
    ///
    /// Stage ranges are contiguous but — after [`Self::mirror`] — not
    /// necessarily in ascending id order, so this binary-searches a
    /// sorted view built on the fly from the (at most two) monotone runs.
    ///
    /// # Panics
    /// Panics if `u` lies outside every stage range. The stages of a
    /// built network partition `0..size()`, so this can only happen
    /// with a vertex id from a *different* network — a caller bug, not
    /// a recoverable condition, which is why it stays a panic rather
    /// than a `Result`.
    pub fn stage_of(&self, u: VertexId) -> usize {
        let cmp = |r: &Range<u32>| {
            if u.0 < r.start {
                std::cmp::Ordering::Greater
            } else if u.0 >= r.end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        };
        // Ascending order (fresh networks) or descending (mirrors).
        let ascending = self.stages.len() < 2 || self.stages[0].start <= self.stages[1].start;
        let found = if ascending {
            self.stages.binary_search_by(cmp)
        } else {
            self.stages.binary_search_by(|r| cmp(r).reverse())
        };
        match found {
            Ok(i) => i,
            Err(_) => panic!("vertex {u:?} not in any stage"),
        }
    }

    /// Flat per-vertex stage table: `stage_table()[v.index()]` equals
    /// [`Self::stage_of`]`(v)` as a `u32`. Built on first use and
    /// cached; hot paths (the router's bidirectional search, the
    /// simulation engine's per-stage occupancy accounting) index this
    /// instead of binary-searching the stage ranges per vertex.
    pub fn stage_table(&self) -> &[u32] {
        &self.staging().0
    }

    /// Flat per-vertex terminal flags: `terminal_mask()[v.index()]` is
    /// true iff `v` is an input or an output. Built on first use and
    /// cached, like [`Self::stage_table`]; the §4 repair discipline
    /// (terminals are exempt from discarding) reads it once per failed
    /// switch, so per-trial and per-block repair passes allocate nothing.
    pub fn terminal_mask(&self) -> &[bool] {
        self.terminal_mask.get_or_init(|| {
            let mut mask = vec![false; self.graph.num_vertices()];
            for &t in self.inputs.iter().chain(&self.outputs) {
                mask[t.index()] = true;
            }
            mask
        })
    }

    /// Whether every switch joins *adjacent* stages
    /// (`stage(head) == stage(tail) + 1` for every edge). All of the
    /// paper's constructions are unit-staged; [`StagedBuilder`] also
    /// admits stage-skipping edges, for which this returns `false`.
    ///
    /// Unit-stagedness is what licenses the stage-aware bidirectional
    /// path search ([`crate::traversal::bibfs_into`]): in a unit-staged
    /// network a vertex at stage `s` can reach a last-stage target only
    /// through exactly `L − s` hops, so a backward cone computed level
    /// by level is *complete* per stage and can prune the forward
    /// search without changing which path it finds.
    pub fn is_unit_staged(&self) -> bool {
        self.staging().1
    }

    /// Backward-level budget the bidirectional point-to-point search
    /// ([`crate::traversal::bibfs_into`]) should run with on this
    /// topology: how many levels its backward cone may grow.
    ///
    /// The search floods only until its two frontiers are adjacent and
    /// then reads the path off the cone (a scan that stops at the first
    /// hit plus one vertex per remaining stage), so its cost is the two
    /// floods, and its own "grow the smaller frontier" rule already
    /// splits those by the frontier sizes of the search at hand —
    /// busy state and dead vertices included, which no static analysis
    /// of the idle topology sees. A cap can only override that rule, and
    /// none measured better on a committed fabric (crossbar, Clos, Beneš,
    /// multibutterfly, 𝒩 at ν = 1 and 2, idle to 90 % loaded), so there is
    /// none: the budget is `u32::MAX` everywhere. It cannot change search
    /// results in any case — exactness holds for every budget.
    pub fn backward_budget(&self) -> u32 {
        u32::MAX
    }

    fn staging(&self) -> &(Vec<u32>, bool) {
        self.staging.get_or_init(|| {
            let mut table = vec![0u32; self.graph.num_vertices()];
            for (s, range) in self.stages.iter().enumerate() {
                for v in range.clone() {
                    table[v as usize] = s as u32;
                }
            }
            let unit = self
                .graph
                .edges()
                .all(|(_, t, h)| table[h.index()] == table[t.index()] + 1);
            (table, unit)
        })
    }

    /// Input terminals (on stage 0).
    pub fn inputs(&self) -> &[VertexId] {
        &self.inputs
    }

    /// Output terminals (on the last stage).
    pub fn outputs(&self) -> &[VertexId] {
        &self.outputs
    }

    /// Network **size** in the paper's sense: the number of switches
    /// (edges).
    pub fn size(&self) -> usize {
        self.graph.num_edges()
    }

    /// Network **depth** in the paper's sense: the largest number of edges
    /// on any input → output path.
    pub fn depth(&self) -> u32 {
        traversal::dag_depth_between(&self.graph, &self.inputs, &self.outputs).unwrap_or(0)
    }

    /// The **mirror image** of the network (§6): inputs and outputs
    /// exchanged and every edge reversed. Stage `i` becomes stage
    /// `w−1−i`; vertex ids are preserved.
    pub fn mirror(&self) -> StagedNetwork {
        let mut stages = self.stages.clone();
        stages.reverse();
        StagedNetwork {
            graph: self.graph.reversed(),
            stages,
            inputs: self.outputs.clone(),
            outputs: self.inputs.clone(),
            csr: OnceLock::new(),
            staging: OnceLock::new(),
            terminal_mask: OnceLock::new(),
        }
    }

    /// Validates staging invariants: every edge goes from some stage to a
    /// strictly later one; inputs are in stage 0; outputs in the last
    /// stage. Returns a human-readable violation if any.
    pub fn validate(&self) -> Result<(), String> {
        let total: u32 = self.stages.iter().map(|r| r.end - r.start).sum();
        if total as usize != self.graph.num_vertices() {
            return Err(format!(
                "stages cover {total} vertices, graph has {}",
                self.graph.num_vertices()
            ));
        }
        for w in self.stages.windows(2) {
            if w[0].end != w[1].start && w[1].end != w[0].start {
                return Err("stages not contiguous".into());
            }
        }
        for (e, t, h) in self.graph.edges() {
            let (st, sh) = (self.stage_of(t), self.stage_of(h));
            if st >= sh {
                return Err(format!("edge {e:?} goes {st} -> {sh} (not forward)"));
            }
        }
        for &i in &self.inputs {
            if self.stage_of(i) != 0 {
                return Err(format!("input {i:?} not in stage 0"));
            }
        }
        for &o in &self.outputs {
            if self.stage_of(o) != self.num_stages() - 1 {
                return Err(format!("output {o:?} not in last stage"));
            }
        }
        Ok(())
    }
}

impl Digraph for StagedNetwork {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }
    #[inline]
    fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }
    #[inline]
    fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.graph.endpoints(e)
    }
    #[inline]
    fn out_edge_slice(&self, v: VertexId) -> &[EdgeId] {
        self.graph.out_edges(v)
    }
    #[inline]
    fn in_edge_slice(&self, v: VertexId) -> &[EdgeId] {
        self.graph.in_edges(v)
    }
}

/// Builder for [`StagedNetwork`].
#[derive(Clone, Debug, Default)]
pub struct StagedBuilder {
    graph: DiGraph,
    stages: Vec<Range<u32>>,
    inputs: Vec<VertexId>,
    outputs: Vec<VertexId>,
}

impl StagedBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage of `count` vertices; returns its vertex-id range.
    pub fn add_stage(&mut self, count: usize) -> Range<u32> {
        let first = self.graph.add_vertices(count);
        let range = first.0..(first.0 + count as u32);
        self.stages.push(range.clone());
        range
    }

    /// Adds a switch `tail → head`.
    ///
    /// Stage ordering is validated at [`Self::finish`] time, not here.
    pub fn add_edge(&mut self, tail: VertexId, head: VertexId) -> EdgeId {
        self.graph.add_edge(tail, head)
    }

    /// Declares the input terminals (must be stage-0 vertices).
    pub fn set_inputs(&mut self, inputs: Vec<VertexId>) {
        self.inputs = inputs;
    }

    /// Declares the output terminals (must be last-stage vertices).
    pub fn set_outputs(&mut self, outputs: Vec<VertexId>) {
        self.outputs = outputs;
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Finalizes and validates the network.
    ///
    /// # Panics
    /// Panics if the staging invariants are violated (this is a
    /// construction bug, not an input condition).
    pub fn finish(self) -> StagedNetwork {
        let net = self.finish_unvalidated();
        if let Err(e) = net.validate() {
            panic!("invalid staged network: {e}");
        }
        net
    }

    /// Finalizes without validation (for very large paper-exact networks
    /// where the O(E) validation pass is separately covered by tests).
    pub fn finish_unvalidated(self) -> StagedNetwork {
        StagedNetwork {
            graph: self.graph,
            stages: self.stages,
            inputs: self.inputs,
            outputs: self.outputs,
            csr: OnceLock::new(),
            staging: OnceLock::new(),
            terminal_mask: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::v;

    /// Two-stage complete bipartite (crossbar) 2×2.
    fn crossbar() -> StagedNetwork {
        let mut b = StagedBuilder::new();
        let ins = b.add_stage(2);
        let outs = b.add_stage(2);
        for i in ins.clone() {
            for o in outs.clone() {
                b.add_edge(VertexId(i), VertexId(o));
            }
        }
        b.set_inputs(ins.map(VertexId).collect());
        b.set_outputs(outs.map(VertexId).collect());
        b.finish()
    }

    #[test]
    fn crossbar_shape() {
        let net = crossbar();
        assert_eq!(net.num_stages(), 2);
        assert_eq!(net.size(), 4);
        assert_eq!(net.depth(), 1);
        assert_eq!(net.inputs().len(), 2);
        assert_eq!(net.outputs().len(), 2);
        assert_eq!(net.stage_of(v(0)), 0);
        assert_eq!(net.stage_of(v(3)), 1);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn cached_csr_matches_graph() {
        let net = crossbar();
        let c = net.csr();
        assert_eq!(c.num_vertices(), net.graph().num_vertices());
        assert_eq!(c.num_edges(), net.graph().num_edges());
        // second call returns the same cached snapshot
        assert!(std::ptr::eq(c, net.csr()));
        for e in net.graph().edge_ids() {
            assert_eq!(c.endpoints(e), net.graph().endpoints(e));
        }
    }

    #[test]
    fn stage_vertices_iterate() {
        let net = crossbar();
        let s0: Vec<_> = net.stage_vertices(0).collect();
        assert_eq!(s0, vec![v(0), v(1)]);
        let s1: Vec<_> = net.stage_vertices(1).collect();
        assert_eq!(s1, vec![v(2), v(3)]);
    }

    #[test]
    fn mirror_swaps_terminals() {
        let net = crossbar();
        let m = net.mirror();
        assert_eq!(m.inputs(), net.outputs());
        assert_eq!(m.outputs(), net.inputs());
        assert_eq!(m.size(), net.size());
        assert_eq!(m.depth(), 1);
        assert!(m.validate().is_ok());
        // edge direction reversed
        assert!(m.graph().has_edge(v(2), v(0)));
        assert!(!m.graph().has_edge(v(0), v(2)));
    }

    #[test]
    #[should_panic(expected = "not forward")]
    fn backward_edge_rejected() {
        let mut b = StagedBuilder::new();
        let s0 = b.add_stage(1);
        let s1 = b.add_stage(1);
        b.add_edge(VertexId(s1.start), VertexId(s0.start));
        b.set_inputs(vec![VertexId(s0.start)]);
        b.set_outputs(vec![VertexId(s1.start)]);
        b.finish();
    }

    #[test]
    #[should_panic(expected = "not in stage 0")]
    fn misplaced_input_rejected() {
        let mut b = StagedBuilder::new();
        let _s0 = b.add_stage(1);
        let s1 = b.add_stage(1);
        b.set_inputs(vec![VertexId(s1.start)]);
        b.set_outputs(vec![VertexId(s1.start)]);
        b.finish();
    }

    #[test]
    fn stage_table_matches_stage_of_and_unit_flag() {
        let net = crossbar();
        for (u, &s) in net.stage_table().iter().enumerate() {
            assert_eq!(s as usize, net.stage_of(v(u as u32)));
        }
        assert!(net.is_unit_staged());
        // mirrors keep both properties (stage ranges reversed)
        let m = net.mirror();
        for (u, &s) in m.stage_table().iter().enumerate() {
            assert_eq!(s as usize, m.stage_of(v(u as u32)));
        }
        assert!(m.is_unit_staged());
    }

    #[test]
    fn terminal_mask_flags_exactly_inputs_and_outputs() {
        // input 0 → internal 1 → output 2
        let mut b = StagedBuilder::new();
        for _ in 0..3 {
            b.add_stage(1);
        }
        b.add_edge(v(0), v(1));
        b.add_edge(v(1), v(2));
        b.set_inputs(vec![v(0)]);
        b.set_outputs(vec![v(2)]);
        let net = b.finish();
        assert_eq!(net.terminal_mask(), [true, false, true]);
        assert_eq!(net.mirror().terminal_mask(), [true, false, true]);
        assert!(crossbar().terminal_mask().iter().all(|&t| t));
    }

    #[test]
    fn skip_stage_edges_allowed() {
        // an edge jumping over a stage is still "forward"
        let mut b = StagedBuilder::new();
        let s0 = b.add_stage(1);
        let _s1 = b.add_stage(1);
        let s2 = b.add_stage(1);
        b.add_edge(VertexId(s0.start), VertexId(s2.start));
        b.set_inputs(vec![VertexId(s0.start)]);
        b.set_outputs(vec![VertexId(s2.start)]);
        let net = b.finish();
        assert_eq!(net.depth(), 1);
        assert_eq!(net.num_stages(), 3);
        assert!(!net.is_unit_staged(), "skip edge breaks unit staging");
    }

    #[test]
    fn depth_between_terminals_only() {
        // long chain off to the side should not count: depth is measured
        // input → output
        let mut b = StagedBuilder::new();
        let s0 = b.add_stage(2);
        let s1 = b.add_stage(2);
        let s2 = b.add_stage(2);
        // terminal path: v0 -> v2 -> v4 (depth 2)
        b.add_edge(VertexId(s0.start), VertexId(s1.start));
        b.add_edge(VertexId(s1.start), VertexId(s2.start));
        // side path among non-terminals: v1 -> v3, v3 -> v5
        b.add_edge(VertexId(s0.start + 1), VertexId(s1.start + 1));
        b.add_edge(VertexId(s1.start + 1), VertexId(s2.start + 1));
        b.set_inputs(vec![VertexId(s0.start)]);
        b.set_outputs(vec![VertexId(s2.start)]);
        let net = b.finish();
        assert_eq!(net.depth(), 2);
    }
}
