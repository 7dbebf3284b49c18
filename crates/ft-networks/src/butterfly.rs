//! The butterfly network.
//!
//! `k`-dimensional butterfly: `k+1` link stages of `N = 2^k` links;
//! column `c` exchanges bit `k−1−c`. The unique-path property (exactly
//! one input→output path per pair) makes it the textbook interconnect —
//! and maximally fragile: one open failure on a path's switch severs
//! every pair using it, which is why Leighton & Maggs \[LM\] moved to
//! *multi*butterflies for fault tolerance. Here it serves as a baseline
//! in the fault experiments.

use ft_graph::{StagedBuilder, StagedNetwork, VertexId};

/// A `k`-dimensional butterfly on `N = 2^k` terminals.
#[derive(Clone, Debug)]
pub struct Butterfly {
    /// Dimension.
    pub(crate) k: u32,
    /// The staged network (`k+1` link stages).
    pub net: StagedNetwork,
}

impl Butterfly {
    /// Builds the butterfly.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1);
        let n = 1usize << k;
        let mut b = StagedBuilder::with_capacity((k as usize + 1) * n, 2 * n * k as usize);
        let mut ranges = Vec::with_capacity(k as usize + 1);
        for _ in 0..=k {
            ranges.push(b.add_stage(n));
        }
        for c in 0..k {
            let bit = 1u32 << (k - 1 - c);
            for x in 0..n as u32 {
                let from = VertexId(ranges[c as usize].start + x);
                b.add_edge(from, VertexId(ranges[c as usize + 1].start + x));
                b.add_edge(from, VertexId(ranges[c as usize + 1].start + (x ^ bit)));
            }
        }
        b.set_inputs(ranges[0].clone().map(VertexId).collect());
        b.set_outputs(ranges[k as usize].clone().map(VertexId).collect());
        Butterfly { k, net: b.finish() }
    }

    /// The unique path from input `x` to output `y` (greedy bit fixing).
    pub fn unique_path(&self, x: u32, y: u32) -> Vec<VertexId> {
        let k = self.k;
        let n = 1u32 << k;
        assert!(x < n && y < n);
        let mut path = Vec::with_capacity(k as usize + 1);
        let mut cur = x;
        path.push(VertexId(self.net.stage_range(0).start + cur));
        for c in 0..k {
            let bit = 1u32 << (k - 1 - c);
            // after column c the bit k-1-c must match y
            if (cur ^ y) & bit != 0 {
                cur ^= bit;
            }
            path.push(VertexId(self.net.stage_range(c as usize + 1).start + cur));
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::maxflow::{vertex_disjoint_paths, DisjointOptions};

    #[test]
    fn shape() {
        for k in 1..=5 {
            let b = Butterfly::new(k);
            // the switch-count formula 2Nk with N = 2^k
            assert_eq!(b.net.size(), 2 * (1 << k) * k as usize);
            assert_eq!(b.net.depth(), k);
            assert_eq!(b.net.num_stages(), k as usize + 1);
        }
    }

    #[test]
    fn unique_paths_are_valid() {
        let b = Butterfly::new(3);
        for x in 0..8u32 {
            for y in 0..8u32 {
                let p = b.unique_path(x, y);
                assert_eq!(p.len(), 4);
                assert_eq!(p[0], b.net.inputs()[x as usize]);
                assert_eq!(p[3], b.net.outputs()[y as usize]);
                for w in p.windows(2) {
                    assert!(b.net.graph().has_edge(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn butterfly_is_not_a_superconcentrator() {
        // two inputs that collide in the first column cannot both reach
        // certain output pairs disjointly: find some violation with flow
        let b = Butterfly::new(2);
        // inputs 0 and 2 merge toward outputs {0, 2}? try all 2-subsets
        let ins = b.net.inputs();
        let outs = b.net.outputs();
        let mut found_violation = false;
        for i1 in 0..4 {
            for i2 in i1 + 1..4 {
                for o1 in 0..4 {
                    for o2 in o1 + 1..4 {
                        let r = vertex_disjoint_paths(
                            b.net.graph(),
                            &[ins[i1], ins[i2]],
                            &[outs[o1], outs[o2]],
                            |_| true,
                            |_| true,
                            DisjointOptions {
                                count_only: true,
                                ..DisjointOptions::default()
                            },
                        );
                        if r.count < 2 {
                            found_violation = true;
                        }
                    }
                }
            }
        }
        assert!(
            found_violation,
            "butterfly unexpectedly superconcentrates at N=4"
        );
    }
}
