//! Compressed-sparse-row (CSR) digraph: the one representation of a
//! built network.
//!
//! Monte Carlo experiments traverse the same topology millions of times
//! with different failure instances; [`Csr`] stores adjacency in flat
//! arrays so BFS over a 10⁷-edge network touches contiguous memory
//! instead of chasing one heap allocation per vertex.
//!
//! Edge ids are in **tail order**: the edges leaving `v` are the id range
//! `out_start[v]..out_start[v + 1]`, so an out-list is a range, not a
//! stored list, and its heads are one slice of the `heads` column. The
//! CSR holds that column, the `tails` column and the offsets: 8 bytes
//! per edge and 4 per vertex. A [`crate::StagedBuilder`] emits every
//! network's switches tail by tail and hands its two columns over as
//! they are; every free-standing graph (a tree, a forest, a contraction
//! quotient, a test graph) lists its edges in tail order too, stably
//! sorting its own list where it grows out of order.
//! [`Csr::from_edges`] refuses a list that is not in tail order.
//!
//! The in-lists are built on their first read ([`Csr::in_edges`],
//! [`Csr::in_tails`]), by a stable counting sort of the edge ids by head,
//! and kept. Only backward and undirected searches (the `bibfs_into`
//! oracle's backward cone among them), `topo_order`, the §4 repair
//! oracle, the §5 helpers and the burst injector's cluster walk read
//! them, so a network that none of those touches never pays their sort,
//! nor their 8 bytes per edge and 4 per vertex.

use crate::ids::{EdgeId, VertexId};
use crate::Digraph;
use std::ops::Range;
use std::sync::OnceLock;

/// Immutable CSR adjacency (both directions) of a directed multigraph
/// whose edge ids are in tail order. Every per-vertex list is in edge-id
/// (= insertion) order.
///
/// Two `Csr`s are equal when they have the same vertex count and the
/// same edge list, whether or not either has built its in-lists: every
/// list is a function of those two.
#[derive(Clone, Debug)]
pub struct Csr {
    /// `out_start[v]..out_start[v+1]` is the id range of the edges
    /// leaving `v`.
    out_start: Vec<u32>,
    /// Tail of each edge, by edge id: non-decreasing.
    tails: Vec<VertexId>,
    /// Head of each edge, by edge id: the heads of consecutive vertices'
    /// out-lists, adjacent.
    heads: Vec<VertexId>,
    /// The in-lists, sorted on the first read.
    in_lists: OnceLock<InLists>,
    /// Every edge goes from a lower vertex id to a higher one (see
    /// [`Csr::ids_ascend`]).
    ascending: bool,
}

/// The in-lists of a [`Csr`].
#[derive(Clone, Debug)]
struct InLists {
    /// `start[v]..start[v+1]` indexes `list`.
    start: Vec<u32>,
    /// Edge ids entering each vertex, grouped by head.
    list: Vec<EdgeId>,
    /// Tails of the edges in `list`, parallel to it.
    tail: Vec<VertexId>,
}

impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.num_vertices() == other.num_vertices()
            && self.tails == other.tails
            && self.heads == other.heads
    }
}

impl Eq for Csr {}

impl Csr {
    /// Builds the CSR of the graph on vertices `0..n` whose edge `e` is
    /// `edges[e]` (`(tail, head)`). The list must be in tail order (tails
    /// non-decreasing), so that each vertex's out-edges are an id range;
    /// a caller whose list grows in another order sorts it by tail first,
    /// stably, to keep each tail's heads in the order it listed them.
    /// Parallel edges and self-loops are kept.
    ///
    /// # Panics
    /// Panics if the list is not in tail order (naming the first edge
    /// out of order), if an endpoint is not below `n`, or if the graph
    /// has `u32::MAX` or more edges or vertices: the CSR offsets are
    /// `u32`, and a larger graph would silently truncate (the id
    /// sentinels [`EdgeId::NONE`]/[`VertexId::NONE`] also reserve
    /// `u32::MAX`).
    pub fn from_edges(n: usize, edges: Vec<(VertexId, VertexId)>) -> Self {
        let (tails, heads) = edges.into_iter().unzip();
        Csr::from_columns(n, tails, heads)
    }

    /// [`Self::from_edges`] on a list in any order, each edge carrying a
    /// tag (the edge of another graph it stands for, say): the list is
    /// stably sorted by tail, and the tags come back in the graph's edge
    /// id order.
    pub fn from_tagged_edges<T>(
        n: usize,
        mut edges: Vec<(VertexId, VertexId, T)>,
    ) -> (Self, Vec<T>) {
        edges.sort_by_key(|&(t, _, _)| t);
        let (edges, tags) = edges.into_iter().map(|(t, h, tag)| ((t, h), tag)).unzip();
        (Csr::from_edges(n, edges), tags)
    }

    /// [`Self::from_edges`] on the list split into its tail and head
    /// columns, which the CSR keeps as they are.
    pub(crate) fn from_columns(n: usize, tails: Vec<VertexId>, heads: Vec<VertexId>) -> Self {
        let m = tails.len();
        debug_assert_eq!(m, heads.len());
        assert!(
            n.max(m) < u32::MAX as usize,
            "Csr: {n} vertices, {m} edges overflow the u32 ids and offsets"
        );
        // `fold`, not `all`/`any`: a scan without an early exit vectorises
        let (ascending, top, in_order, _) = tails.iter().zip(&heads).fold(
            (true, 0, true, VertexId(0)),
            |(up, top, in_order, prev), (&t, &h)| {
                (
                    up & (t < h),
                    top.max(t.0).max(h.0),
                    in_order & (prev <= t),
                    t,
                )
            },
        );
        assert!(
            m == 0 || (top as usize) < n,
            "Csr: endpoint {top} is not below n = {n}"
        );
        if !in_order {
            let e = tails.windows(2).position(|w| w[0] > w[1]).expect("a fall") + 1;
            panic!(
                "Csr: edge e{e} leaves {:?} after an edge leaving {:?}: \
                 the edges are not in tail order",
                tails[e],
                tails[e - 1]
            );
        }
        // One scan: vertex `v`'s range starts at the first edge whose
        // tail is `v` or later (at `m` if there is none).
        let mut out_start = vec![m as u32; n + 1];
        let mut v = 0;
        for (e, t) in tails.iter().enumerate() {
            while v <= t.index() {
                out_start[v] = e as u32;
                v += 1;
            }
        }
        Csr {
            out_start,
            tails,
            heads,
            in_lists: OnceLock::new(),
            ascending,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_start.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.heads.len()
    }

    /// `(tail, head)` of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        (self.tails[e.index()], self.heads[e.index()])
    }

    /// Tail of edge `e`.
    #[inline]
    pub fn tail(&self, e: EdgeId) -> VertexId {
        self.tails[e.index()]
    }

    /// Head of edge `e`.
    #[inline]
    pub fn head(&self, e: EdgeId) -> VertexId {
        self.heads[e.index()]
    }

    /// Edges leaving `v`: an id range, in id order.
    #[inline]
    pub fn out_edges(
        &self,
        v: VertexId,
    ) -> impl ExactSizeIterator<Item = EdgeId> + DoubleEndedIterator + Clone {
        let lo = self.out_start[v.index()];
        let hi = self.out_start[v.index() + 1];
        (lo..hi).map(EdgeId)
    }

    /// Edges entering `v`. The first in-list read sorts every in-list.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> &[EdgeId] {
        let lists = self.in_lists();
        &lists.list[lists.range(v)]
    }

    /// Heads of the edges leaving `v`, parallel to [`Self::out_edges`].
    #[inline]
    pub fn out_heads(&self, v: VertexId) -> &[VertexId] {
        self.out_heads_of(v.0..v.0 + 1)
    }

    /// Heads of the edges leaving the vertices `vs`, in one slice: the
    /// out-lists of consecutive vertices are adjacent.
    #[inline]
    pub fn out_heads_of(&self, vs: Range<u32>) -> &[VertexId] {
        let lo = self.out_start[vs.start as usize] as usize;
        let hi = self.out_start[vs.end as usize] as usize;
        &self.heads[lo..hi]
    }

    /// Tails of the edges entering `v`, parallel to [`Self::in_edges`].
    #[inline]
    pub fn in_tails(&self, v: VertexId) -> &[VertexId] {
        let lists = self.in_lists();
        &lists.tail[lists.range(v)]
    }

    /// Whether the in-lists have been built, i.e. whether anything has
    /// read an in-list of this graph (or of the one it was cloned from).
    /// A diagnostic: no result depends on it.
    pub fn in_lists_built(&self) -> bool {
        self.in_lists.get().is_some()
    }

    /// The in-lists, sorted by head on the first call. Threads that call
    /// it at once wait for one sort.
    #[inline]
    fn in_lists(&self) -> &InLists {
        self.in_lists.get_or_init(|| {
            let (start, list) = bucket_sort(self.num_vertices(), &self.heads);
            let tail = list.iter().map(|e| self.tails[e.index()]).collect();
            InLists { start, list, tail }
        })
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.out_start[v.index() + 1] - self.out_start[v.index()]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_edges(v).len()
    }

    /// Total (undirected) degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> + '_ {
        (0..self.num_vertices()).map(VertexId::from)
    }

    /// Iterator over `(EdgeId, tail, head)` triples, in id (= tail) order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.tails
            .iter()
            .zip(&self.heads)
            .enumerate()
            .map(|(i, (&t, &h))| (EdgeId::from(i), t, h))
    }

    /// Returns `true` if there is at least one edge `tail → head`.
    pub fn has_edge(&self, tail: VertexId, head: VertexId) -> bool {
        self.out_heads(tail).contains(&head)
    }

    /// The endpoint of `e` that is not `v` (for undirected walks); if `e`
    /// is a self-loop this returns `v` itself.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: VertexId) -> VertexId {
        let (t, h) = self.endpoints(e);
        if t == v {
            h
        } else {
            t
        }
    }

    /// Whether every edge goes from a lower vertex id to a higher one,
    /// so ascending id order is a topological order. Every network a
    /// [`crate::StagedBuilder`] builds is numbered this way (its stages
    /// take ascending id ranges); [`crate::sliced::sliced_reach_into`]
    /// then sweeps forward in one pass.
    #[inline]
    pub fn ids_ascend(&self) -> bool {
        self.ascending
    }
}

impl InLists {
    /// Where `v`'s in-list lies in `list` and `tail`.
    #[inline]
    fn range(&self, v: VertexId) -> Range<usize> {
        self.start[v.index()] as usize..self.start[v.index() + 1] as usize
    }
}

/// One stable counting sort of the edge ids by `keys[e]`: returns the
/// list offsets per vertex and the edge ids grouped by key, in id order
/// within a group.
fn bucket_sort(n: usize, keys: &[VertexId]) -> (Vec<u32>, Vec<EdgeId>) {
    let mut start = vec![0u32; n + 1];
    for k in keys {
        start[k.index() + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut list = vec![EdgeId::NONE; keys.len()];
    // `start[v]` doubles as v's fill cursor; edges arrive in id order,
    // so each list fills in id order (the sort is stable). A run of
    // edges on one vertex keeps its cursor in `cur`, not in memory.
    let (mut v, mut cur) = (0, start[0]);
    for (e, k) in keys.iter().enumerate() {
        let k = k.index();
        if k != v {
            start[v] = cur;
            v = k;
            cur = start[v];
        }
        list[cur as usize] = EdgeId::from(e);
        cur += 1;
    }
    start[v] = cur;
    // Each cursor now sits at the end of its list, which is where the
    // next vertex's begins: shift right by one to rewind.
    start.copy_within(0..n, 1);
    start[0] = 0;
    (start, list)
}

impl Digraph for Csr {
    #[inline]
    fn num_vertices(&self) -> usize {
        Csr::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        Csr::num_edges(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::rng;
    use crate::ids::{e, v};
    use rand::Rng;

    const DIAMOND: [(VertexId, VertexId); 4] = [
        (VertexId(0), VertexId(1)),
        (VertexId(0), VertexId(2)),
        (VertexId(1), VertexId(3)),
        (VertexId(2), VertexId(3)),
    ];

    fn diamond() -> Csr {
        Csr::from_edges(4, DIAMOND.to_vec())
    }

    /// The brute-force adjacency oracle: for each vertex `u` of `0..n`,
    /// the ids of the edges whose `end` is `u`, in ascending order.
    fn lists_by(
        n: usize,
        edges: &[(VertexId, VertexId)],
        end: impl Fn(&(VertexId, VertexId)) -> VertexId,
    ) -> Vec<Vec<EdgeId>> {
        (0..n)
            .map(|u| {
                let ids = edges.iter().enumerate();
                let ids = ids.filter(|(_, edge)| end(edge).index() == u);
                ids.map(|(e, _)| EdgeId::from(e)).collect()
            })
            .collect()
    }

    /// Out-lists by tail, in-lists by head.
    fn oracle(n: usize, edges: &[(VertexId, VertexId)]) -> (Vec<Vec<EdgeId>>, Vec<Vec<EdgeId>>) {
        (
            lists_by(n, edges, |&(t, _)| t),
            lists_by(n, edges, |&(_, h)| h),
        )
    }

    /// `n` vertices and `m` uniformly random edges, so parallel edges
    /// and self-loops occur, stably sorted by tail.
    fn random_edges(r: &mut impl Rng, n: usize, m: usize) -> Vec<(VertexId, VertexId)> {
        let mut end = || VertexId::from(r.random_range(0..n));
        let mut edges: Vec<_> = (0..m).map(|_| (end(), end())).collect();
        edges.sort_by_key(|&(t, _)| t);
        edges
    }

    #[test]
    fn csr_matches_digraph_on_diamond() {
        let c = diamond();
        assert_eq!((c.num_vertices(), c.num_edges()), (4, 4));
        let (outs, ins) = oracle(4, &DIAMOND);
        for u in c.vertices() {
            assert!(
                c.out_edges(u).eq(outs[u.index()].clone()),
                "out edges of {u:?}"
            );
            assert_eq!(c.in_edges(u), ins[u.index()], "in edges of {u:?}");
        }
        for (e, &ends) in DIAMOND.iter().enumerate() {
            assert_eq!(c.endpoints(EdgeId::from(e)), ends);
        }
        assert_eq!(
            (c.out_degree(v(0)), c.in_degree(v(3)), c.degree(v(1))),
            (2, 2, 2)
        );
        assert!(c.has_edge(v(0), v(2)) && !c.has_edge(v(2), v(0)));
    }

    #[test]
    fn csr_matches_digraph_on_random_graphs() {
        let mut r = rng(0xC5A0);
        for _ in 0..20 {
            let n = r.random_range(1..40usize);
            let m = r.random_range(0..120usize);
            let edges = random_edges(&mut r, n, m);
            let (outs, ins) = oracle(n, &edges);
            let c = Csr::from_edges(n, edges);
            for u in c.vertices() {
                assert_eq!(c.out_degree(u), outs[u.index()].len());
                assert_eq!(c.in_degree(u), ins[u.index()].len());
            }
            let deg_sum: usize = c.vertices().map(|u| c.out_degree(u)).sum();
            assert_eq!(deg_sum, m);
        }
    }

    /// `from_edges` against the brute-force oracle, list for list and
    /// position for position — an unstable sort (which would reorder a
    /// vertex's parallel edges, and with them the router's
    /// lexicographically smallest path) fails. The lists are in tail
    /// order, so the out-lists laid end to end are the identity, and
    /// their heads the list's head column.
    #[test]
    fn from_edges_keeps_insertion_order_on_random_multigraphs() {
        let mut r = rng(0x57AB1E);
        for round in 0..72usize {
            // n cycles through 0..24 (the empty graph included): few
            // vertices under many edges force parallel edges and
            // self-loops, many under few leave isolated vertices
            let n = round % 24;
            let m = r.random_range(0..96usize) * n.min(1);
            let list = random_edges(&mut r, n, m);
            let (outs, ins) = oracle(n, &list);
            let c = Csr::from_edges(n, list.clone());
            assert_eq!((c.num_vertices(), c.num_edges()), (n, m));
            for u in c.vertices() {
                let (outs, ins) = (&outs[u.index()], &ins[u.index()]);
                assert!(
                    c.out_edges(u).eq(outs.iter().copied()),
                    "out-edges of {u:?}"
                );
                assert_eq!(c.in_edges(u), ins, "in-edges of {u:?}");
                let heads: Vec<_> = outs.iter().map(|&e| list[e.index()].1).collect();
                assert_eq!(c.out_heads(u), heads, "heads out of {u:?}");
                let tails: Vec<_> = ins.iter().map(|&e| list[e.index()].0).collect();
                assert_eq!(c.in_tails(u), tails, "tails into {u:?}");
            }
            let triples = list
                .iter()
                .enumerate()
                .map(|(e, &(t, h))| (EdgeId::from(e), t, h));
            assert!(c.edges().eq(triples), "edge triples");
            for (e, &(t, h)) in list.iter().enumerate() {
                assert_eq!(c.endpoints(EdgeId::from(e)), (t, h));
                assert!(c.has_edge(t, h));
            }
            let ids = c.vertices().flat_map(|u| c.out_edges(u));
            assert!(
                ids.eq((0..m).map(EdgeId::from)),
                "out-lists are the identity"
            );
            let heads: Vec<_> = list.iter().map(|&(_, h)| h).collect();
            assert_eq!(c.out_heads_of(0..n as u32), heads, "the head column");
        }
    }

    /// An edge listed after an edge with a larger tail is named in the
    /// message, with both tails.
    #[test]
    #[should_panic(expected = "edge e3 leaves v1 after an edge leaving v2: \
                               the edges are not in tail order")]
    fn from_edges_rejects_a_list_out_of_tail_order() {
        Csr::from_edges(
            3,
            vec![(v(0), v(1)), (v(1), v(2)), (v(2), v(0)), (v(1), v(0))],
        );
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let c = Csr::from_edges(2, vec![(v(0), v(1)), (v(0), v(1)), (v(1), v(1))]);
        assert!(c.out_edges(v(0)).eq([e(0), e(1)]));
        assert_eq!(c.in_edges(v(1)), [e(0), e(1), e(2)]);
        assert_eq!(c.endpoints(e(2)), (v(1), v(1)));
        // a self-loop's other endpoint is its one vertex
        assert_eq!(c.other_endpoint(e(2), v(1)), v(1));
        assert_eq!(c.other_endpoint(e(0), v(1)), v(0));
    }

    /// Tails and heads past `n` are caught, each named in the message;
    /// the last case, a head past `n`, is left to panic.
    #[test]
    #[should_panic(expected = "endpoint 2 is not below n = 2")]
    fn from_edges_rejects_an_endpoint_past_n() {
        for edge in [(v(2), v(0)), (v(7), v(1)), (v(1), v(7))] {
            let top = edge.0 .0.max(edge.1 .0);
            let err = std::panic::catch_unwind(|| Csr::from_edges(2, vec![(v(0), v(1)), edge]))
                .expect_err("an endpoint past n must panic");
            let msg = err.downcast_ref::<String>().expect("a formatted message");
            assert!(
                msg.contains(&format!("endpoint {top} is not below n = 2")),
                "{edge:?}: {msg}"
            );
        }
        Csr::from_edges(2, vec![(v(0), v(1)), (v(0), v(2))]);
    }

    /// Equality is vertex count plus edge list: whether either side has
    /// sorted its in-lists does not matter, and a clone keeps the state
    /// of its source.
    #[test]
    fn equality_ignores_whether_the_in_lists_are_built() {
        let read = diamond();
        let fresh = diamond();
        assert!(!read.in_lists_built() && !fresh.in_lists_built());
        assert_eq!(read.in_edges(v(3)), [EdgeId(2), EdgeId(3)]);
        assert!(read.in_lists_built() && !fresh.in_lists_built());
        assert_eq!(read, fresh);
        assert_eq!(fresh, read);
        assert!(read.clone().in_lists_built() && !fresh.clone().in_lists_built());
        // same edges, one more (isolated) vertex
        let wider = Csr::from_edges(5, read.edges().map(|(_, t, h)| (t, h)).collect());
        assert_ne!(read, wider);
        // same vertices and tails, one head moved
        let mut moved = DIAMOND.to_vec();
        moved[1].1 = v(3);
        assert_ne!(read, Csr::from_edges(4, moved));
    }

    /// Four threads read the in-lists of one fresh `Csr` at once, as the
    /// workers of a sweep share one fabric: one of them sorts, and every
    /// one sees the in-lists of the brute-force oracle.
    #[test]
    fn concurrent_first_reads_see_the_same_in_lists() {
        let mut r = rng(0x1A2E);
        let n = 300;
        let edges = random_edges(&mut r, n, 2000);
        let ins = lists_by(n, &edges, |&(_, h)| h);
        let shared = Csr::from_edges(n, edges.clone());
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    barrier.wait();
                    for (u, want) in ins.iter().enumerate() {
                        let u = VertexId::from(u);
                        assert_eq!(shared.in_edges(u), want);
                        let tails: Vec<_> = want.iter().map(|&e| edges[e.index()].0).collect();
                        assert_eq!(shared.in_tails(u), tails);
                    }
                });
            }
        });
        assert!(shared.in_lists_built());
    }

    #[test]
    fn ids_ascend_only_when_every_edge_climbs() {
        // vacuously true without edges
        assert!(Csr::from_edges(0, vec![]).ids_ascend());
        assert!(Csr::from_edges(3, vec![]).ids_ascend());
        let c = diamond();
        assert!(c.ids_ascend());
        // a self-loop does not climb, nor does one falling edge
        assert!(!Csr::from_edges(2, vec![(v(0), v(1)), (v(1), v(1))]).ids_ascend());
        assert!(!Csr::from_edges(3, vec![(v(0), v(1)), (v(1), v(2)), (v(2), v(0))]).ids_ascend());
    }

    #[test]
    fn empty_and_isolated() {
        let c = Csr::from_edges(0, vec![]);
        assert_eq!(c.num_vertices(), 0);
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.vertices().count(), 0);

        let c = Csr::from_edges(3, vec![]);
        assert_eq!(c.num_vertices(), 3);
        assert_eq!(c.out_edges(v(1)).len(), 0);
        assert!(c.in_edges(v(1)).is_empty());
    }
}
