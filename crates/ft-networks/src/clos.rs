//! Three-stage Clos networks `C(m, n, r)`.
//!
//! Clos \[Cl\] 1953 — the paper's opening citation for nonblocking
//! networks. `C(m, n, r)` has `r` input crossbars (`n × m`), `m` middle
//! crossbars (`r × r`) and `r` output crossbars (`m × n`), serving
//! `N = n·r` terminals with `2nmr + mr²` switches and depth 3.
//!
//! * `m ≥ 2n − 1` ⇒ **strictly nonblocking** (Clos' theorem): greedy
//!   routing never blocks;
//! * `m ≥ n` ⇒ **rearrangeable** (Slepian–Duguid): every permutation is
//!   routable, via edge colouring of the middle-stage demand multigraph.

use ft_graph::matching::regular_bipartite_edge_coloring;
use ft_graph::{StagedBuilder, StagedNetwork, VertexId};

/// A three-stage Clos network with its parameters.
#[derive(Clone, Debug)]
pub struct Clos {
    /// Middle-stage crossbar count.
    pub m: usize,
    /// Inputs per input crossbar.
    pub n: usize,
    /// Number of input (and output) crossbars.
    pub r: usize,
    /// The staged network (4 link stages, depth 3).
    pub net: StagedNetwork,
}

impl Clos {
    /// `(vertices, switches)` of `C(m, n, r)` — `2r(n + m)` links and
    /// `mr(2n + r)` switches — or `None` if a count overflows `usize`.
    pub fn census(m: usize, n: usize, r: usize) -> Option<(usize, usize)> {
        let links = n.checked_add(m)?.checked_mul(2)?.checked_mul(r)?;
        let switches = n
            .checked_mul(2)?
            .checked_add(r)?
            .checked_mul(m)?
            .checked_mul(r)?;
        Some((links, switches))
    }

    /// Builds `C(m, n, r)`.
    pub(crate) fn new(m: usize, n: usize, r: usize) -> Self {
        assert!(m >= 1 && n >= 1 && r >= 1);
        let (vertices, switches) = Clos::census(m, n, r).expect("Clos census overflows usize");
        let mut b = StagedBuilder::with_capacity(vertices, switches);
        let s0 = b.add_stage(n * r); // input terminals
        let s1 = b.add_stage(r * m); // links input-crossbar -> middle
        let s2 = b.add_stage(m * r); // links middle -> output-crossbar
        let s3 = b.add_stage(n * r); // output terminals
                                     // input crossbars: crossbar i joins inputs i*n..(i+1)*n to links (i, j)
        let l1 = |i: usize, j: usize| VertexId(s1.start + (i * m + j) as u32);
        let l2 = |j: usize, k: usize| VertexId(s2.start + (j * r + k) as u32);
        for i in 0..r {
            for a in 0..n {
                let inp = VertexId(s0.start + (i * n + a) as u32);
                for j in 0..m {
                    b.add_edge(inp, l1(i, j));
                }
            }
        }
        // middle crossbars: crossbar j joins links (i, j) to links (j, k);
        // emitted i-major, so the tails l1(i, j) ascend
        for i in 0..r {
            for j in 0..m {
                for k in 0..r {
                    b.add_edge(l1(i, j), l2(j, k));
                }
            }
        }
        // output crossbars: crossbar k joins links (j, k) to outputs
        // k*n..(k+1)*n; emitted j-major, so the tails l2(j, k) ascend
        for j in 0..m {
            for k in 0..r {
                for a in 0..n {
                    let out = VertexId(s3.start + (k * n + a) as u32);
                    b.add_edge(l2(j, k), out);
                }
            }
        }
        b.set_inputs(s0.map(VertexId).collect());
        b.set_outputs(s3.map(VertexId).collect());
        Clos {
            m,
            n,
            r,
            net: b.finish(),
        }
    }

    /// Strictly nonblocking Clos for `N = n·r` terminals: `m = 2n − 1`.
    pub fn strictly_nonblocking(n: usize, r: usize) -> Self {
        Clos::new(2 * n - 1, n, r)
    }

    /// Rearrangeable Clos: `m = n`.
    pub fn rearrangeable(n: usize, r: usize) -> Self {
        Clos::new(n, n, r)
    }

    /// Number of terminals per side.
    pub fn terminals(&self) -> usize {
        self.n * self.r
    }

    /// Whether Clos' strict nonblocking condition `m ≥ 2n − 1` holds.
    pub fn is_strict_by_theorem(&self) -> bool {
        self.m >= 2 * self.n - 1
    }

    /// Routes a permutation by Slepian–Duguid middle-stage assignment
    /// (edge colouring). Requires `m ≥ n`. Returns, for each input
    /// terminal `x`, its path `[input, l1, l2, output]` as vertex ids.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n·r` or `m < n`.
    pub fn route_permutation(&self, perm: &[u32]) -> Vec<Vec<VertexId>> {
        let nn = self.terminals();
        assert_eq!(perm.len(), nn, "permutation length mismatch");
        assert!(self.m >= self.n, "rearrangeability needs m ≥ n");
        let mut seen = vec![false; nn];
        for &y in perm {
            assert!(!seen[y as usize], "not a permutation");
            seen[y as usize] = true;
        }
        // demand multigraph: input crossbar i -> output crossbar k, one
        // edge per call; n-regular bipartite on r + r vertices
        let mut demand: Vec<Vec<u32>> = vec![Vec::with_capacity(self.n); self.r];
        // remember which call each demand edge position corresponds to
        let mut call_of: Vec<Vec<u32>> = vec![Vec::with_capacity(self.n); self.r];
        for x in 0..nn as u32 {
            let i = x as usize / self.n;
            let k = perm[x as usize] as usize / self.n;
            demand[i].push(k as u32);
            call_of[i].push(x);
        }
        // pad to m-regular with dummy edges when m > n: add m-n dummy
        // edges per crossbar forming permutations (i -> i shifted)
        let extra = self.m - self.n;
        for i in 0..self.r {
            for s in 0..extra {
                demand[i].push(((i + s) % self.r) as u32);
                call_of[i].push(u32::MAX); // dummy
            }
        }
        let colors = regular_bipartite_edge_coloring(&demand, self.r);
        // colors[i][c] = output crossbar matched to input crossbar i in
        // round c; align rounds back to concrete calls: for each i, the
        // colouring consumed demand[i] as a multiset — rebuild assignment
        // by matching multiset entries round by round.
        let mut paths: Vec<Vec<VertexId>> = vec![Vec::new(); nn];
        let s1 = self.net.stage_range(1);
        let s2 = self.net.stage_range(2);
        let s3 = self.net.stage_range(3);
        for i in 0..self.r {
            // for round c, colors[i][c] is some k; pick an unused call
            // (i -> k) to ride middle crossbar c
            let mut remaining: Vec<(u32, u32)> = demand[i]
                .iter()
                .copied()
                .zip(call_of[i].iter().copied())
                .collect();
            for (c, &k) in colors[i].iter().enumerate() {
                let pos = remaining
                    .iter()
                    .position(|&(kk, _)| kk == k)
                    .expect("colour must match a demand edge");
                let (_, call) = remaining.swap_remove(pos);
                if call == u32::MAX {
                    continue; // dummy edge
                }
                let x = call as usize;
                let y = perm[x] as usize;
                let l1v = VertexId(s1.start + (i * self.m + c) as u32);
                let l2v = VertexId(s2.start + (c * self.r + y / self.n) as u32);
                paths[x] = vec![
                    self.net.inputs()[x],
                    l1v,
                    l2v,
                    VertexId(s3.start + y as u32),
                ];
            }
        }
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen::{random_permutation, rng};
    use ft_graph::paths::are_vertex_disjoint;

    #[test]
    fn size_and_depth() {
        let c = Clos::new(3, 2, 4);
        // the switch-count formula 2nmr + mr² at m = 3, n = 2, r = 4
        assert_eq!(c.net.size(), 2 * 2 * 3 * 4 + 3 * 4 * 4);
        assert_eq!(c.net.depth(), 3);
        assert_eq!(c.terminals(), 8);
        assert_eq!(c.net.inputs().len(), 8);
    }

    #[test]
    fn strict_constructor() {
        let c = Clos::strictly_nonblocking(3, 4);
        assert_eq!(c.m, 5);
        assert!(c.is_strict_by_theorem());
        let c = Clos::rearrangeable(3, 4);
        assert_eq!(c.m, 3);
        assert!(!c.is_strict_by_theorem());
    }

    fn check_perm_routing(c: &Clos, perm: &[u32]) {
        let paths = c.route_permutation(perm);
        assert_eq!(paths.len(), c.terminals());
        for (x, path) in paths.iter().enumerate() {
            assert_eq!(path.len(), 4, "input {x} path wrong length");
            assert_eq!(path[0], c.net.inputs()[x]);
            assert_eq!(path[3], c.net.outputs()[perm[x] as usize]);
            // consecutive edges exist
            for w in path.windows(2) {
                assert!(
                    c.net.graph().has_edge(w[0], w[1]),
                    "missing edge {:?} -> {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        assert!(
            are_vertex_disjoint(paths.iter().map(|p| p.as_slice())),
            "paths collide"
        );
    }

    #[test]
    fn routes_identity_and_reverse() {
        let c = Clos::rearrangeable(2, 3);
        let n = c.terminals();
        let ident: Vec<u32> = (0..n as u32).collect();
        check_perm_routing(&c, &ident);
        let rev: Vec<u32> = (0..n as u32).rev().collect();
        check_perm_routing(&c, &rev);
    }

    #[test]
    fn routes_random_permutations_rearrangeable() {
        let mut r = rng(10);
        for _ in 0..20 {
            let c = Clos::rearrangeable(3, 4);
            let perm = random_permutation(&mut r, c.terminals());
            check_perm_routing(&c, &perm);
        }
    }

    #[test]
    fn routes_with_extra_middles() {
        // m > n exercises the dummy-edge padding
        let mut r = rng(11);
        let c = Clos::new(5, 3, 3);
        for _ in 0..10 {
            let perm = random_permutation(&mut r, c.terminals());
            check_perm_routing(&c, &perm);
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_non_permutation() {
        let c = Clos::rearrangeable(2, 2);
        c.route_permutation(&[0, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "m ≥ n")]
    fn rejects_underprovisioned() {
        let c = Clos::new(1, 2, 2);
        let ident: Vec<u32> = (0..4).collect();
        c.route_permutation(&ident);
    }
}
