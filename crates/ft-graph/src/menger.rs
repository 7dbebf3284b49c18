//! Menger-style vertex-disjoint connectivity queries.
//!
//! Thin layer over [`crate::maxflow`] phrased in the vocabulary of §2:
//! a digraph with `n` inputs and `n` outputs is an *n-superconcentrator*
//! iff for every `r ≤ n` and every pair of `r`-subsets `(S, T)` there are
//! `r` vertex-disjoint `S → T` paths. Menger converts the quantifier over
//! subsets into a single max-flow fact: it suffices that **the whole
//! input set** flows to **the whole output set** at value `n` minus any
//! adversarial removals — in practice we check subsets directly, because
//! the failure experiments sample subsets anyway.

use crate::ids::{EdgeId, VertexId};
use crate::maxflow::{vertex_disjoint_paths_into, DisjointOptions, FlowWorkspace};
use crate::Csr;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

/// Maximum number of vertex-disjoint paths from `sources` to `sinks`.
pub fn max_disjoint_paths(g: &Csr, sources: &[VertexId], sinks: &[VertexId]) -> u32 {
    max_disjoint_paths_into(g, sources, sinks, &mut FlowWorkspace::new())
}

/// [`max_disjoint_paths`] with a caller-owned [`FlowWorkspace`] — use in
/// trial loops so repeated queries allocate nothing.
pub(crate) fn max_disjoint_paths_into(
    g: &Csr,
    sources: &[VertexId],
    sinks: &[VertexId],
    fw: &mut FlowWorkspace,
) -> u32 {
    vertex_disjoint_paths_into(
        g,
        sources,
        sinks,
        |_| true,
        |_| true,
        DisjointOptions {
            count_only: true,
            ..Default::default()
        },
        fw,
    )
    .count
}

/// Whether `r = |S| = |T|` vertex-disjoint paths join `S` to `T`, with
/// a caller-owned [`FlowWorkspace`] so repeated queries allocate nothing.
pub(crate) fn fully_linkable_into(
    g: &Csr,
    s: &[VertexId],
    t: &[VertexId],
    fw: &mut FlowWorkspace,
) -> bool {
    assert_eq!(s.len(), t.len(), "subset sizes differ");
    let r = s.len() as u32;
    vertex_disjoint_paths_into(
        g,
        s,
        t,
        |_| true,
        |_| true,
        DisjointOptions {
            count_only: true,
            limit: Some(r),
        },
        fw,
    )
    .count
        == r
}

/// Exhaustively verifies the superconcentrator property for **every**
/// `r ≤ n` and every pair of `r`-subsets. Exponential in `n`; intended
/// for `n ≤ ~8` in tests. Returns the first violated `(S, T)` pair if any.
pub fn verify_superconcentrator_exhaustive(
    g: &Csr,
    inputs: &[VertexId],
    outputs: &[VertexId],
) -> Option<(Vec<VertexId>, Vec<VertexId>)> {
    assert_eq!(inputs.len(), outputs.len());
    let n = inputs.len();
    let mut fw = FlowWorkspace::new();
    for r in 1..=n {
        let mut s_sel = subsets_of_size(n, r);
        let t_sel = subsets_of_size(n, r);
        for s_mask in s_sel.drain(..) {
            let s: Vec<VertexId> = pick(inputs, s_mask);
            for &t_mask in &t_sel {
                let t: Vec<VertexId> = pick(outputs, t_mask);
                if !fully_linkable_into(g, &s, &t, &mut fw) {
                    return Some((s, t));
                }
            }
        }
    }
    None
}

/// Randomized superconcentrator check: samples `trials` random `(r, S, T)`
/// combinations. Returns the first violation found.
pub fn verify_superconcentrator_sampled(
    g: &Csr,
    inputs: &[VertexId],
    outputs: &[VertexId],
    trials: usize,
    rng: &mut SmallRng,
) -> Option<(Vec<VertexId>, Vec<VertexId>)> {
    use rand::Rng;
    assert_eq!(inputs.len(), outputs.len());
    let n = inputs.len();
    if n == 0 {
        return None;
    }
    let mut src = inputs.to_vec();
    let mut dst = outputs.to_vec();
    let mut fw = FlowWorkspace::new();
    for _ in 0..trials {
        let r = rng.random_range(1..=n);
        src.shuffle(rng);
        dst.shuffle(rng);
        let s = &src[..r];
        let t = &dst[..r];
        if !fully_linkable_into(g, s, t, &mut fw) {
            return Some((s.to_vec(), t.to_vec()));
        }
    }
    None
}

/// A minimum vertex cut separating `sources` from `sinks`: a set of
/// vertices (never including a source — matching Lemma 3, where the idle
/// input ι itself is not in any cut set considered; sinks may be cut)
/// whose removal destroys every directed source → sink path. Returns the
/// cut vertices, or an empty vector when sources and sinks are already
/// disconnected.
///
/// # Panics
/// Panics (inside the flow kernel) if some source reaches some sink through an
/// uncuttable corridor — impossible here since every non-source vertex is
/// cuttable; a direct source → sink edge is cut at the sink.
pub fn min_vertex_cut(
    g: &Csr,
    sources: &[VertexId],
    sinks: &[VertexId],
    vertex_ok: impl FnMut(VertexId) -> bool,
) -> Vec<VertexId> {
    // Run flow with split nodes and read the cut from the residual:
    // a split arc (v_in → v_out) crossing the cut corresponds to cut vertex v.
    use crate::maxflow::FlowNetwork;
    const INF: u32 = u32::MAX / 4;
    let n = g.num_vertices();
    let mut vertex_ok = vertex_ok;
    let mut is_source = vec![false; n];
    for &s in sources {
        is_source[s.index()] = true;
    }
    assert!(
        sinks.iter().all(|t| !is_source[t.index()]),
        "min_vertex_cut: a vertex cannot be both source and sink"
    );
    let mut fnet = FlowNetwork::new(2 * n + 2);
    let (ss, tt) = ((2 * n) as u32, (2 * n + 1) as u32);
    let mut split_arc = vec![u32::MAX; n];
    for vid in 0..n {
        if vertex_ok(VertexId::from(vid)) {
            let cap = if is_source[vid] { INF } else { 1 };
            let arc = fnet.add_arc(2 * vid as u32, 2 * vid as u32 + 1, cap);
            if !is_source[vid] {
                split_arc[vid] = arc;
            }
        }
    }
    for &t in sinks {
        fnet.add_arc(2 * t.index() as u32 + 1, tt, INF);
    }
    for &s in sources {
        fnet.add_arc(ss, 2 * s.index() as u32, INF);
    }
    for eid in 0..g.num_edges() {
        let (t, h) = g.endpoints(EdgeId::from(eid));
        fnet.add_arc(2 * t.index() as u32 + 1, 2 * h.index() as u32, INF);
    }
    fnet.max_flow(ss, tt, None);
    let side = fnet.min_cut_source_side(ss);
    let mut cut = Vec::new();
    for vid in 0..n {
        if split_arc[vid] != u32::MAX && side[2 * vid] && !side[2 * vid + 1] {
            cut.push(VertexId::from(vid));
        }
    }
    cut
}

fn subsets_of_size(n: usize, r: usize) -> Vec<u64> {
    assert!(n <= 20, "exhaustive verification limited to n ≤ 20");
    let mut out = Vec::new();
    for mask in 0..(1u64 << n) {
        if mask.count_ones() as usize == r {
            out.push(mask);
        }
    }
    out
}

fn pick(items: &[VertexId], mask: u64) -> Vec<VertexId> {
    items
        .iter()
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, &v)| v)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::rng;
    use crate::ids::v;

    /// Complete bipartite K_{2,2} with 2 inputs, 2 outputs: a crossbar,
    /// trivially a 2-superconcentrator.
    fn crossbar2() -> (Csr, Vec<VertexId>, Vec<VertexId>) {
        let edges = (0..2).flat_map(|i| (2..4).map(move |o| (v(i), v(o))));
        (
            Csr::from_edges(4, edges.collect()),
            vec![v(0), v(1)],
            vec![v(2), v(3)],
        )
    }

    #[test]
    fn crossbar_is_superconcentrator() {
        let (g, ins, outs) = crossbar2();
        assert_eq!(max_disjoint_paths(&g, &ins, &outs), 2);
        assert!(verify_superconcentrator_exhaustive(&g, &ins, &outs).is_none());
    }

    #[test]
    fn broken_crossbar_fails() {
        // remove one edge: input 0 can only reach output 2
        let g = Csr::from_edges(4, vec![(v(0), v(2)), (v(1), v(2)), (v(1), v(3))]);
        let ins = vec![v(0), v(1)];
        let outs = vec![v(2), v(3)];
        let viol = verify_superconcentrator_exhaustive(&g, &ins, &outs);
        assert!(viol.is_some());
        let (s, t) = viol.unwrap();
        // the violation is S={0}, T={3}
        assert_eq!(s, vec![v(0)]);
        assert_eq!(t, vec![v(3)]);
    }

    #[test]
    fn sampled_check_agrees() {
        let (g, ins, outs) = crossbar2();
        let mut r = rng(7);
        assert!(verify_superconcentrator_sampled(&g, &ins, &outs, 50, &mut r).is_none());
    }

    #[test]
    fn sampled_check_finds_violation_eventually() {
        let g = Csr::from_edges(
            4,
            vec![
                (v(0), v(2)), // only edge; inputs {0,1}, outputs {2,3}
            ],
        );
        let ins = vec![v(0), v(1)];
        let outs = vec![v(2), v(3)];
        let mut r = rng(8);
        assert!(verify_superconcentrator_sampled(&g, &ins, &outs, 200, &mut r).is_some());
    }

    #[test]
    fn min_cut_is_the_bottleneck() {
        // 0 -> 2 -> 3, 1 -> 2: vertex 2 is the bottleneck
        let g = Csr::from_edges(4, vec![(v(0), v(2)), (v(1), v(2)), (v(2), v(3))]);
        let cut = min_vertex_cut(&g, &[v(0), v(1)], &[v(3)], |_| true);
        assert_eq!(cut, vec![v(2)]);
    }

    #[test]
    fn min_cut_respects_vertex_filter() {
        // two parallel middles 1 and 2; if 1 is already dead the cut is {2}
        let g = Csr::from_edges(
            4,
            vec![(v(0), v(1)), (v(0), v(2)), (v(1), v(3)), (v(2), v(3))],
        );
        let cut = min_vertex_cut(&g, &[v(0)], &[v(3)], |x| x != v(1));
        assert_eq!(cut, vec![v(2)]);
    }

    #[test]
    fn empty_terminal_sets() {
        let (g, _, _) = crossbar2();
        assert_eq!(max_disjoint_paths(&g, &[], &[]), 0);
        assert!(verify_superconcentrator_exhaustive(&g, &[], &[]).is_none());
    }
}
