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
use crate::ids::{EdgeId, VertexId};
use crate::traversal;
use crate::Digraph;
use std::ops::Range;
use std::sync::OnceLock;

/// A directed, staged network with distinguished input/output terminals.
/// Its switch ids are in tail order (see [`StagedBuilder::add_edge`]).
#[derive(Clone, Debug)]
pub struct StagedNetwork {
    /// The graph, in the one form every kernel reads.
    graph: Csr,
    /// Contiguous vertex-id range of each stage.
    stages: Vec<Range<u32>>,
    inputs: Vec<VertexId>,
    outputs: Vec<VertexId>,
    /// Lazily built per-vertex stage table + unit-staged flag.
    staging: OnceLock<(Vec<u32>, bool)>,
    /// Lazily built per-vertex terminal flags (see [`Self::terminal_mask`]).
    terminal_mask: OnceLock<Vec<bool>>,
    /// Lazily built output-reach table (see [`Self::output_reach`]).
    output_reach: OnceLock<OutputReach>,
}

/// Which outputs each vertex of a [`StagedNetwork`] can reach at all:
/// row `v` has bit `i` set iff a directed path leads from `v` to
/// `outputs()[i]` (an output reaches itself).
///
/// This is a property of the topology alone — busy marks and faults
/// only ever shrink real reachability below it — so a route search that
/// consults it never steps onto a vertex from which its target cannot
/// be reached even on an idle, healthy fabric. On 𝒩 that is most of the
/// second half of the network: the expanders fan every input out to
/// every vertex of the middle stages, but an output's backward cone
/// narrows to a few dozen vertices per stage towards the output side.
///
/// Rows are `ceil(outputs / 64)` words (at least one) — a single `u64`
/// for every 𝒩 up to ν = 3 — so the table costs 8 bytes per vertex
/// there, and `outputs / 8` bytes per vertex on a fabric with many
/// terminals (2.7 MB on `benes 10`).
#[derive(Clone, Debug)]
pub struct OutputReach {
    words: usize,
    /// Row-major: row `v` is `bits[v * words..][..words]`.
    bits: Vec<u64>,
    outputs: Vec<VertexId>,
}

/// One column of an [`OutputReach`] table — "can reach this output" —
/// resolved once per search by [`OutputReach::column`] and tested per
/// vertex by [`OutputReach::reaches`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReachColumn {
    word: usize,
    /// The output's bit, or 0 for the column every vertex passes.
    mask: u64,
}

impl OutputReach {
    /// One reverse-stage pass: heads lie in strictly later stages than
    /// their tails, so by the time a vertex ORs its heads' rows together
    /// those rows are final.
    fn build(net: &StagedNetwork) -> OutputReach {
        let csr = net.csr();
        let words = net.outputs.len().div_ceil(64).max(1);
        let mut bits = vec![0u64; csr.num_vertices() * words];
        for (i, o) in net.outputs.iter().enumerate() {
            bits[o.index() * words + i / 64] |= 1 << (i % 64);
        }
        for stage in net.stages.iter().rev() {
            for v in stage.clone() {
                let v = VertexId(v);
                for h in csr.out_heads(v) {
                    for w in 0..words {
                        bits[v.index() * words + w] |= bits[h.index() * words + w];
                    }
                }
            }
        }
        OutputReach {
            words,
            bits,
            outputs: net.outputs.clone(),
        }
    }

    /// Words per row.
    #[inline]
    pub fn words_per_vertex(&self) -> usize {
        self.words
    }

    /// Row of `v`: bit `i % 64` of word `i / 64` is set iff `v` reaches
    /// `outputs()[i]`.
    #[inline]
    fn row(&self, v: VertexId) -> &[u64] {
        &self.bits[v.index() * self.words..][..self.words]
    }

    /// The column of `target` if it is an output terminal. For any
    /// other vertex (the table knows nothing about reaching it) the
    /// column that every vertex passes, so that a search filtered by
    /// [`Self::reaches`] stays correct for arbitrary targets — it just
    /// is not pruned.
    pub fn column(&self, target: VertexId) -> ReachColumn {
        // An output has no out-edges, so its row is its own bit(s).
        let row = self.row(target);
        if let Some(word) = row.iter().position(|&w| w != 0) {
            let bit = row[word].trailing_zeros();
            if self.outputs.get(word * 64 + bit as usize) == Some(&target) {
                return ReachColumn {
                    word,
                    mask: 1 << bit,
                };
            }
        }
        ReachColumn { word: 0, mask: 0 }
    }

    /// Whether `v` can reach the output `col` stands for (always true
    /// for the pass-all column).
    #[inline(always)]
    pub fn reaches(&self, v: VertexId, col: ReachColumn) -> bool {
        self.bits[v.index() * self.words + col.word] & col.mask == col.mask
    }
}

impl StagedNetwork {
    /// The underlying digraph.
    #[inline]
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// The same reference as [`Self::graph`]: a network is built
    /// straight into its [`Csr`] by [`StagedBuilder::finish`], so this
    /// costs nothing. Hot paths (routing, access, certification) take
    /// the concrete type for its parallel head/tail slices.
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.graph
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

    /// The stage containing vertex `u`: a read of [`Self::stage_table`].
    ///
    /// # Panics
    /// Panics if `u` is not a vertex of this network — a vertex id from
    /// a *different* network is a caller bug, not a recoverable
    /// condition, which is why it stays a panic rather than a `Result`.
    pub fn stage_of(&self, u: VertexId) -> usize {
        self.stage_table()[u.index()] as usize
    }

    /// Flat per-vertex stage table: `stage_table()[v.index()]` is the
    /// stage of `v`. Built on first use and cached; the router's route
    /// search indexes it per vertex.
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

    /// The network's [`OutputReach`] table, built on first use by one
    /// reverse-stage pass and cached like [`Self::stage_table`]: every router
    /// over this network shares it.
    pub fn output_reach(&self) -> &OutputReach {
        self.output_reach.get_or_init(|| OutputReach::build(self))
    }

    /// Whether every switch joins *adjacent* stages
    /// (`stage(head) == stage(tail) + 1` for every edge). All of the
    /// paper's constructions are unit-staged; [`StagedBuilder`] also
    /// admits stage-skipping edges, for which this returns `false`.
    ///
    /// Unit-stagedness is what licenses the router's depth-first route
    /// search ([`crate::traversal::route_into`]): every input → output
    /// path then has the same length, so the path a full BFS returns is
    /// the lexicographically smallest one by out-edge position — the
    /// first path a descent in out-edge order completes.
    pub fn is_unit_staged(&self) -> bool {
        self.staging().1
    }

    /// Backward-level budget for the flooding search
    /// ([`crate::traversal::bibfs_into`]); always `u32::MAX`, i.e. "let
    /// the search's own grow-the-smaller-frontier rule decide".
    ///
    /// Nothing in this workspace calls it outside tests: the router no
    /// longer floods, and `bibfs_into` is kept as the oracle the route
    /// search is checked against. The method survives only because the
    /// out-of-tree benchmark package (`benchmark/src/serve.rs`) calls
    /// it; it goes once that package stops.
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

    /// Validates staging invariants: every edge goes from some stage to a
    /// strictly later one; inputs are in stage 0; outputs in the last
    /// stage. Returns a human-readable violation if any.
    ///
    /// One walk over the stage ranges and the CSR's out-heads, O(1) per
    /// switch: stages `0..=s` cover the id interval `0..hi`, and the
    /// out-lists of stage `s` are one slice of heads, each of which must
    /// lie at or past `hi`. A stage is computed only on the error path.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.graph.num_vertices() as u32;
        let mut hi = 0;
        for r in &self.stages {
            if r.start != hi || r.end > n {
                return Err("stages not contiguous".into());
            }
            hi = r.end;
            // `fold`, not `any`: a scan without an early exit vectorises
            let heads = self.graph.out_heads_of(r.clone());
            if heads.iter().fold(false, |bad, h| bad | (h.0 < hi)) {
                let table = self.stage_table();
                let (e, t, h) = self
                    .graph
                    .edges()
                    .find(|(_, t, h)| table[t.index()] >= table[h.index()])
                    .expect("a head inside its tail's stage interval");
                let (st, sh) = (table[t.index()], table[h.index()]);
                return Err(format!("edge {e:?} goes {st} -> {sh} (not forward)"));
            }
        }
        if hi != n {
            return Err(format!("stages cover {hi} vertices, graph has {n}"));
        }
        let none = 0..0;
        let first = self.stages.first().unwrap_or(&none);
        if let Some(i) = self.inputs.iter().find(|i| !first.contains(&i.0)) {
            return Err(format!("input {i:?} not in stage 0"));
        }
        let last = self.stages.last().unwrap_or(&none);
        if let Some(o) = self.outputs.iter().find(|o| !last.contains(&o.0)) {
            return Err(format!("output {o:?} not in last stage"));
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
}

/// Builder for [`StagedNetwork`]: collects stages and the switches, tail
/// by tail, as two columns that [`Self::finish`] hands to the network's
/// [`Csr`] as they are.
#[derive(Clone, Debug, Default)]
pub struct StagedBuilder {
    num_vertices: usize,
    /// Switch `e` is `tails[e] → heads[e]`.
    tails: Vec<VertexId>,
    heads: Vec<VertexId>,
    stages: Vec<Range<u32>>,
    inputs: Vec<VertexId>,
    outputs: Vec<VertexId>,
    /// The `(vertices, edges)` census promised to [`Self::with_capacity`].
    census: Option<(usize, usize)>,
}

impl StagedBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder for a network of exactly `vertices` vertices and
    /// `edges` switches, as its family's closed-form census gives them:
    /// the two columns are allocated once, and [`Self::finish`] checks
    /// (in debug builds) that the census was exact.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        StagedBuilder {
            tails: Vec::with_capacity(edges),
            heads: Vec::with_capacity(edges),
            census: Some((vertices, edges)),
            ..Self::default()
        }
    }

    /// Appends a stage of `count` vertices; returns its vertex-id range.
    pub fn add_stage(&mut self, count: usize) -> Range<u32> {
        let first = self.num_vertices as u32;
        self.num_vertices += count;
        let range = first..self.num_vertices as u32;
        self.stages.push(range.clone());
        range
    }

    /// Adds a switch `tail → head`. Switches must be added in tail
    /// order (tails non-decreasing): a vertex's switches take
    /// consecutive ids, in the order they are added.
    ///
    /// Tail order and stage ordering are checked at [`Self::finish`]
    /// time, not here.
    ///
    /// # Panics
    /// Panics if either endpoint is not a vertex of a stage added so far.
    pub fn add_edge(&mut self, tail: VertexId, head: VertexId) -> EdgeId {
        assert!(
            tail.index().max(head.index()) < self.num_vertices,
            "edge endpoint out of range: {tail:?} -> {head:?}"
        );
        let id = EdgeId::from(self.tails.len());
        self.tails.push(tail);
        self.heads.push(head);
        id
    }

    /// Adds the union of the matchings `tail0 + i → head0 + p[i]`, one per
    /// permutation `p` of `perms` (each of the same length `t`), tail by
    /// tail: for each `i` in turn, one switch per permutation, in the
    /// order of `perms`. This is how a block of an expander gap made of
    /// random permutations is wired.
    pub fn add_matchings(&mut self, tail0: VertexId, head0: VertexId, perms: &[Vec<u32>]) {
        let t = perms.first().map_or(0, Vec::len);
        for i in 0..t {
            for p in perms {
                self.add_edge(VertexId(tail0.0 + i as u32), VertexId(head0.0 + p[i]));
            }
        }
    }

    /// Declares the input terminals (must be stage-0 vertices).
    pub fn set_inputs(&mut self, inputs: Vec<VertexId>) {
        self.inputs = inputs;
    }

    /// Declares the output terminals (must be last-stage vertices).
    pub fn set_outputs(&mut self, outputs: Vec<VertexId>) {
        self.outputs = outputs;
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.tails.len()
    }

    /// Finalizes and validates the network.
    ///
    /// # Panics
    /// Panics if the switches were not added in tail order, or if the
    /// staging invariants are violated (either is a construction bug,
    /// not an input condition).
    pub fn finish(self) -> StagedNetwork {
        debug_assert!(
            self.census
                .is_none_or(|c| c == (self.num_vertices, self.tails.len())),
            "the census passed to with_capacity was not exact"
        );
        let net = StagedNetwork {
            graph: Csr::from_columns(self.num_vertices, self.tails, self.heads),
            stages: self.stages,
            inputs: self.inputs,
            outputs: self.outputs,
            staging: OnceLock::new(),
            terminal_mask: OnceLock::new(),
            output_reach: OnceLock::new(),
        };
        if let Err(e) = net.validate() {
            panic!("invalid staged network: {e}");
        }
        net
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

    /// Empty stages at both ends and one in the middle: stages of
    /// sizes 0, 2, 0, 2, 0 and edges 0→2, 0→3, 1→3.
    fn with_empty_stages() -> StagedNetwork {
        let mut b = StagedBuilder::new();
        for count in [0, 2, 0, 2, 0] {
            b.add_stage(count);
        }
        for (t, h) in [(0, 2), (0, 3), (1, 3)] {
            b.add_edge(v(t), v(h));
        }
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
        // one representation: both accessors hand out the same `Csr`
        assert!(std::ptr::eq(net.csr(), net.graph()));
        assert_eq!((net.csr().num_vertices(), net.csr().num_edges()), (4, 4));
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
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics_at_add_edge() {
        let mut b = StagedBuilder::new();
        b.add_stage(2);
        // never reaches `finish`: the panic must come from here
        b.add_edge(v(0), v(2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "census")]
    fn inexact_census_fails_at_finish() {
        let mut b = StagedBuilder::with_capacity(2, 2);
        let s0 = b.add_stage(1);
        let s1 = b.add_stage(1);
        b.add_edge(v(s0.start), v(s1.start));
        b.finish();
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
    #[should_panic(expected = "edge e1 goes 1 -> 1 (not forward)")]
    fn edge_within_a_stage_rejected() {
        // ids ascend along the edge, but head and tail share stage 1
        let mut b = StagedBuilder::new();
        b.add_stage(1);
        b.add_stage(2);
        b.add_edge(v(0), v(1));
        b.add_edge(v(1), v(2));
        b.finish();
    }

    #[test]
    #[should_panic(expected = "edge e1 goes 1 -> 0 (not forward)")]
    fn the_first_bad_edge_by_id_is_reported() {
        // the walk meets stage 1, which holds both bad edges; the message
        // names e1, the first by id, as a scan in id order would
        let mut b = StagedBuilder::new();
        b.add_stage(2);
        b.add_stage(2);
        b.add_stage(1);
        b.add_edge(v(2), v(4));
        b.add_edge(v(2), v(1));
        b.add_edge(v(3), v(0));
        b.finish();
    }

    #[test]
    #[should_panic(expected = "edge e2 leaves v0 after an edge leaving v1: \
                               the edges are not in tail order")]
    fn switches_out_of_tail_order_rejected() {
        // a valid staged network, but v0's second switch is added after
        // v1's: its out-edges would not be one id range
        let mut b = StagedBuilder::new();
        b.add_stage(2);
        b.add_stage(2);
        for (t, h) in [(0, 2), (1, 3), (0, 3)] {
            b.add_edge(v(t), v(h));
        }
        b.finish();
    }

    #[test]
    #[should_panic(expected = "output v0 not in last stage")]
    fn misplaced_output_rejected() {
        let mut b = StagedBuilder::new();
        let s0 = b.add_stage(1);
        let s1 = b.add_stage(1);
        b.add_edge(v(s0.start), v(s1.start));
        b.set_outputs(vec![v(s0.start)]);
        b.finish();
    }

    #[test]
    fn validate_walks_mirrors_and_empty_stages() {
        let net = with_empty_stages();
        assert_eq!(net.validate(), Ok(()));
        assert_eq!((net.stage_of(v(1)), net.stage_of(v(2))), (1, 3));
        // a mirror's stages run down the ids; no builder makes one, and
        // the walk refuses it
        let mut mirrored = crossbar();
        mirrored.stages.reverse();
        assert_eq!(mirrored.validate(), Err("stages not contiguous".into()));
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
        // the table against the stage ranges it is derived from, across
        // empty stages too
        fn assert_table_matches_ranges(net: &StagedNetwork) {
            assert_eq!(net.stage_table().len(), net.graph().num_vertices());
            for i in 0..net.num_stages() {
                for u in net.stage_range(i) {
                    assert_eq!(net.stage_table()[u as usize], i as u32);
                    assert_eq!(net.stage_of(v(u)), i);
                }
            }
        }
        let net = crossbar();
        assert_table_matches_ranges(&net);
        assert!(net.is_unit_staged());
        assert_table_matches_ranges(&with_empty_stages());
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
        assert!(crossbar().terminal_mask().iter().all(|&t| t));
    }

    #[test]
    fn output_reach_is_cached_and_matches_backward_cones() {
        // input 0 → {1, 2}; 1 → output 3 only, 2 → outputs 3 and 4;
        // 5 is a last-stage vertex that is not an output.
        let mut b = StagedBuilder::new();
        b.add_stage(1);
        b.add_stage(2);
        b.add_stage(3);
        for (t, h) in [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (2, 5)] {
            b.add_edge(v(t), v(h));
        }
        b.set_inputs(vec![v(0)]);
        b.set_outputs(vec![v(3), v(4)]);
        let net = b.finish();
        let reach = net.output_reach();
        // built once per network: the second call returns the same table
        assert!(std::ptr::eq(reach, net.output_reach()));
        assert_eq!(reach.words_per_vertex(), 1);
        let rows: Vec<u64> = (0..6).map(|u| reach.row(v(u))[0]).collect();
        assert_eq!(rows, [0b11, 0b01, 0b11, 0b01, 0b10, 0]);
        let col = reach.column(v(4));
        let cone: Vec<bool> = (0..6).map(|u| reach.reaches(v(u), col)).collect();
        assert_eq!(cone, [true, false, true, false, true, false]);
        // not an output (inner vertex, non-terminal last-stage vertex):
        // the column every vertex passes
        for target in [v(1), v(5)] {
            let all = reach.column(target);
            assert!((0..6).all(|u| reach.reaches(v(u), all)), "{target:?}");
        }
    }

    #[test]
    fn output_reach_rows_span_words_past_64_outputs() {
        // 2 inputs × 70 outputs; input 0 feeds the even outputs, input 1
        // the outputs from 64 up — bits land in both words of a row.
        let mut b = StagedBuilder::new();
        let ins = b.add_stage(2);
        let outs = b.add_stage(70);
        for i in (0..70).step_by(2) {
            b.add_edge(v(ins.start), v(outs.start + i));
        }
        for i in 64..70 {
            b.add_edge(v(ins.start + 1), v(outs.start + i));
        }
        b.set_inputs(ins.map(VertexId).collect());
        b.set_outputs(outs.clone().map(VertexId).collect());
        let net = b.finish();
        let reach = net.output_reach();
        assert_eq!(reach.words_per_vertex(), 2);
        for i in 0..70 {
            let col = reach.column(v(outs.start + i));
            assert_eq!(reach.reaches(v(0), col), i % 2 == 0, "input 0, output {i}");
            assert_eq!(reach.reaches(v(1), col), i >= 64, "input 1, output {i}");
            assert!(reach.reaches(v(outs.start + i), col));
        }
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
        // terminal path: v0 -> v2 -> v4 (depth 2); side path among
        // non-terminals: v1 -> v3 -> v5
        b.add_edge(VertexId(s0.start), VertexId(s1.start));
        b.add_edge(VertexId(s0.start + 1), VertexId(s1.start + 1));
        b.add_edge(VertexId(s1.start), VertexId(s2.start));
        b.add_edge(VertexId(s1.start + 1), VertexId(s2.start + 1));
        b.set_inputs(vec![VertexId(s0.start)]);
        b.set_outputs(vec![VertexId(s2.start)]);
        let net = b.finish();
        assert_eq!(net.depth(), 2);
    }
}
