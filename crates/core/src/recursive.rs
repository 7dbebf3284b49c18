//! The full recursive nonblocking network of Pippenger [P82, §9] —
//! the construction that §6 scales up by `4^γ` and truncates into 𝓜.
//!
//! For `m = 4^h` terminals the network has `2h + 1` stages: `m` inputs
//! on stage 0, `m` outputs on stage `2h`, and `F·m` vertices on every
//! internal stage (the paper's `F = 64`). The subgraph between the
//! inputs and stage 1 consists of `m/4` disjoint complete bipartite
//! graphs, each joining four inputs to a block of `4F` vertices (the
//! paper's "four inputs … and 256 vertices"). Between internal stages
//! `i` and `i+1` every vertex has `d` out-edges into its parent block
//! of size `F·4^{i+1}` (union of `d` random permutations per block) —
//! the `(32·4^i, 33.07·4^i, 64·4^i)`-expanding-graph layer at `F = 64`,
//! `d = 10`. The right half mirrors the left.
//!
//! 𝒩 of §6 (see [`crate::network`]) is exactly this network built for
//! `h = ν + γ`, with the first and last `γ` stages cut off and directed
//! grids glued onto the cut; [`RecursiveNet`] exists as the
//! un-truncated object: the fault-free baseline of the experiments and
//! the reference point for the structural tests that pin the
//! truncation geometry.

use ft_graph::gen::random_permutation;
use ft_graph::{StagedBuilder, StagedNetwork, VertexId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Parameters of the recursive construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecursiveParams {
    /// `h`: the network serves `m = 4^h` terminals.
    pub h: u32,
    /// Width factor `F` (the paper's 64).
    pub width: usize,
    /// Out-degree `d` per internal vertex (the paper's 10).
    pub degree: usize,
    /// Expander sampling seed.
    pub seed: u64,
}

impl RecursiveParams {
    /// The paper's constants at height `h`.
    pub fn paper_exact(h: u32) -> Self {
        RecursiveParams {
            h,
            width: 64,
            degree: 10,
            seed: 0x9EC0_4D5E,
        }
    }

    /// A reduced profile.
    pub fn reduced(h: u32, width: usize, degree: usize) -> Self {
        assert!(h >= 1 && width >= 2 && degree >= 1);
        RecursiveParams {
            h,
            width,
            degree,
            seed: 0x9EC0_4D5E,
        }
    }

    /// Number of terminals `m = 4^h`.
    pub fn m(&self) -> usize {
        1usize << (2 * self.h)
    }

    /// Predicted switch count: `2·m·4F` terminal-bipartite switches
    /// plus `(2h − 2)·d·F·m` expander switches.
    pub fn predicted_size(&self) -> usize {
        let m = self.m();
        8 * self.width * m + (2 * self.h as usize - 2) * self.degree * self.width * m
    }
}

/// The built recursive network.
#[derive(Clone, Debug)]
pub struct RecursiveNet {
    /// Construction parameters.
    pub params: RecursiveParams,
    /// The staged network (inputs stage 0, outputs stage `2h`).
    pub net: StagedNetwork,
}

impl RecursiveNet {
    /// Builds the network.
    pub fn build(params: RecursiveParams) -> RecursiveNet {
        let h = params.h as usize;
        let m = params.m();
        let f = params.width;
        let w = f * m;
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let mut b = StagedBuilder::with_capacity(2 * m + (2 * h - 1) * w, params.predicted_size());
        let mut bases = Vec::with_capacity(2 * h + 1);
        bases.push(b.add_stage(m).start);
        for _ in 1..2 * h {
            bases.push(b.add_stage(w).start);
        }
        bases.push(b.add_stage(m).start);
        let v = |s: usize, i: usize| VertexId(bases[s] + i as u32);

        // inputs → stage 1: complete bipartite 4 × 4F per block
        for q in 0..m / 4 {
            for i in 0..4 {
                for t in 0..4 * f {
                    b.add_edge(v(0, 4 * q + i), v(1, q * 4 * f + t));
                }
            }
        }
        // left expander gaps: block size F·4^{i+1}
        for s in 1..h {
            let t = f << (2 * (s + 1));
            for blk in 0..w / t {
                let perms: Vec<_> = (0..params.degree)
                    .map(|_| random_permutation(&mut rng, t))
                    .collect();
                b.add_matchings(v(s, blk * t), v(s + 1, blk * t), &perms);
            }
        }
        // right expander gaps (mirror): block size F·4^{2h−s}
        for s in h..2 * h - 1 {
            let t = f << (2 * (2 * h - s));
            for blk in 0..w / t {
                let perms: Vec<_> = (0..params.degree)
                    .map(|_| random_permutation(&mut rng, t))
                    .collect();
                b.add_matchings(v(s, blk * t), v(s + 1, blk * t), &perms);
            }
        }
        // stage 2h−1 → outputs: complete bipartite 4F × 4 per block
        for q in 0..m / 4 {
            for t in 0..4 * f {
                for i in 0..4 {
                    b.add_edge(v(2 * h - 1, q * 4 * f + t), v(2 * h, 4 * q + i));
                }
            }
        }
        b.set_inputs((0..m).map(|i| v(0, i)).collect());
        b.set_outputs((0..m).map(|i| v(2 * h, i)).collect());
        let net = b.finish();
        RecursiveNet { params, net }
    }

    /// Group size at internal stage `s` (`1 ≤ s ≤ 2h−1`): `F·4^i` with
    /// `i = min(s, 2h − s)`.
    pub fn group_size(&self, s: usize) -> usize {
        let h = self.params.h as usize;
        debug_assert!(s >= 1 && s < 2 * h);
        let i = s.min(2 * h - s);
        self.params.width << (2 * i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::FtNetwork;
    use crate::params::Params;
    use ft_graph::gen::rng;
    use ft_networks::CircuitRouter;

    fn small() -> RecursiveNet {
        RecursiveNet::build(RecursiveParams::reduced(2, 4, 8))
    }

    #[test]
    fn shape_and_census() {
        let r = small(); // h=2, m=16, F=4, W=64
        assert_eq!(r.net.num_stages(), 5);
        assert_eq!(r.net.inputs().len(), 16);
        assert_eq!(r.net.depth(), 4);
        assert_eq!(r.net.size(), r.params.predicted_size());
        // terminal blocks: every input has out-degree 4F = 16
        for &i in r.net.inputs() {
            assert_eq!(r.net.graph().out_degree(i), 16);
        }
    }

    #[test]
    fn group_sizes_mirror() {
        let r = small();
        assert_eq!(r.group_size(1), 16); // F·4
        assert_eq!(r.group_size(2), 64); // F·16 (middle)
        assert_eq!(r.group_size(3), 16); // mirrored
    }

    #[test]
    fn h1_is_a_clos_like_three_stage() {
        let r = RecursiveNet::build(RecursiveParams::reduced(1, 4, 8));
        // 3 stages: 4 inputs, 16 middle, 4 outputs; complete bipartite
        // both gaps ⇒ trivially strictly nonblocking (m = 16 ≥ 2·4−1)
        assert_eq!(r.net.num_stages(), 3);
        let mut router = CircuitRouter::new(&r.net);
        for (i, o) in [(0, 2), (1, 3), (2, 0), (3, 1)] {
            router
                .connect(r.net.inputs()[i], r.net.outputs()[o])
                .expect("h=1 recursive network must route any permutation");
        }
    }

    #[test]
    fn routes_random_permutations_greedily() {
        let r = small();
        let mut rr = rng(21);
        for _ in 0..10 {
            let perm = ft_graph::gen::random_permutation(&mut rr, 16);
            let mut router = CircuitRouter::new(&r.net);
            for (i, &o) in perm.iter().enumerate() {
                router
                    .connect(r.net.inputs()[i], r.net.outputs()[o as usize])
                    .expect("greedy routing blocked on recursive network");
            }
        }
    }

    #[test]
    fn truncation_geometry_matches_ft_network() {
        // The middle 2ν+1 stages of the recursive network at h = ν+γ
        // must have the same group sizes as 𝓜 inside 𝒩.
        let p = Params::reduced(2, 8, 4, 1.0); // ν=2, γ=1
        let f = FtNetwork::build(p);
        let r = RecursiveNet::build(RecursiveParams::reduced(p.nu + p.gamma, p.width, p.degree));
        let nu = p.nu as usize;
        let gamma = p.gamma as usize;
        for k in 0..=2 * nu {
            // 𝒩 middle stage ν+k ↔ N stage γ+k
            let (_, size) = f.middle_groups(nu + k);
            assert_eq!(size, r.group_size(gamma + k), "stage offset {k}");
        }
        // and the stage widths agree
        assert_eq!(f.width(), r.params.width * r.params.m());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = RecursiveNet::build(RecursiveParams::reduced(1, 4, 4));
        let b = RecursiveNet::build(RecursiveParams::reduced(1, 4, 4));
        let ea: Vec<_> = a.net.graph().edges().collect();
        let eb: Vec<_> = b.net.graph().edges().collect();
        assert_eq!(ea, eb);
    }
}
