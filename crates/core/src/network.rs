//! The fault-tolerant nonblocking network 𝒩 of §6 (Fig. 5).
//!
//! For `n = 4^ν` terminals the paper assembles 𝒩 from three layers:
//!
//! 1. **Input grids** Φ₁ … Φₙ: one `(l, ν)`-directed grid per input
//!    (`l = 64·4^γ` rows, ν stages), with the input fanned out to every
//!    row of the grid's first stage. Grids are Moore–Shannon hammocks:
//!    they preserve *access* to a majority of their last stage under
//!    faults (Lemma 3).
//! 2. **The truncated recursive network 𝓜**: the middle `2ν + 1` stages
//!    of a `[P82]`-style recursive nonblocking network scaled up by
//!    `4^γ`. Stage `ν+k` is partitioned into `4^{ν−k}` groups of
//!    `64·4^{γ+k}` vertices; between consecutive stages every vertex has
//!    ten out-edges into its parent group (a union of ten random
//!    permutations per parent block), giving ten in-edges per vertex —
//!    the paper's census `1280·ν·4^{ν+γ}` middle switches. The right
//!    half mirrors the left.
//! 3. **Output grids** Ψ₁ … Ψₙ: mirror images of the input grids,
//!    collecting each grid's last stage into the output terminal.
//!
//! The result has `4ν + 1` stages (depth `4ν` switches), inputs on
//! stage 0, outputs on stage `4ν`, and every internal stage of width
//! `64·4^{ν+γ}`.
//!
//! ## Reconciling the paper's expander description
//!
//! §6 describes the middle gaps as disjoint
//! `(32·4^i, 33.07·4^i, 64·4^i)`-expanding graphs "with each vertex on
//! stage i having ten out-edges", while Lemma 6 routes through "four
//! expanding graphs" from each child group into the four quarters of its
//! parent group. Ten out-edges per vertex **and** four degree-10 graphs
//! per child cannot both hold; the paper's own edge census
//! (`1280ν·4^{ν+γ}` = 10 out-edges per middle vertex) settles the
//! degree. We therefore wire each parent block as a union of
//! `degree` random permutations over the whole block — every vertex
//! gets exactly `degree` out- and in-edges spread across all four
//! quarters, which is exactly what Lemma 6's induction consumes (an
//! accessed majority of one child reaches well over half of the parent
//! group; see [`crate::access`]). The per-(child, quarter) induced
//! subgraphs are then sparse expanders in the paper's `(c, c′, t)`
//! family, verified empirically in `ft-expander`.

use crate::params::Params;
use ft_graph::gen::random_permutation;
use ft_graph::{StagedBuilder, StagedNetwork, VertexId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Which side of the network a grid belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Input grids Φⱼ (stages `1 ..= ν`).
    Input,
    /// Output grids Ψⱼ (stages `3ν ..= 4ν−1`).
    Output,
}

/// Classification of a stage of 𝒩.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// Stage 0: the `n` input terminals.
    Inputs,
    /// Stages `1 .. ν`: interior of the input grids.
    InputGrid,
    /// Stages `ν ..= 3ν`: the truncated recursive middle 𝓜 (stage `ν`
    /// doubles as the input grids' last stage, `3ν` as the output
    /// grids' first stage).
    Middle,
    /// Stages `3ν+1 .. 4ν`: interior of the output grids.
    OutputGrid,
    /// Stage `4ν`: the `n` output terminals.
    Outputs,
}

/// Edge census of a built network, split by layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Census {
    /// Switches adjacent to input/output terminals (`2·n·l`).
    pub terminal: usize,
    /// Switches inside the 2n directed grids (`2n·(2l−1)(ν−1)`).
    pub grid: usize,
    /// Switches in 𝓜 (`2ν · d · F·4^{ν+γ}`).
    pub middle: usize,
}

impl Census {
    /// Total number of switches.
    pub fn total(&self) -> usize {
        self.terminal + self.grid + self.middle
    }
}

/// The assembled fault-tolerant network 𝒩 with its geometry bookkeeping.
#[derive(Clone, Debug)]
pub struct FtNetwork {
    params: Params,
    net: StagedNetwork,
    /// Internal stage width `W = F·4^{ν+γ}`.
    width: usize,
    /// Grid rows `l = F·4^γ`.
    rows: usize,
    census: Census,
}

impl FtNetwork {
    /// Builds 𝒩 for the given parameters.
    ///
    /// Deterministic for a fixed [`Params`] (including its seed).
    pub fn build(params: Params) -> FtNetwork {
        Builder::new(params).build()
    }

    /// Construction parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The underlying staged network.
    pub fn net(&self) -> &StagedNetwork {
        &self.net
    }

    /// The network's graph, [`StagedNetwork::csr`] — the representation
    /// every Monte Carlo hot path traverses.
    pub fn csr(&self) -> &ft_graph::Csr {
        self.net.csr()
    }

    /// Number of terminals per side, `n = 4^ν`.
    pub fn n(&self) -> usize {
        self.params.n()
    }

    /// Internal stage width `W = F·4^{ν+γ}`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid rows `l = F·4^γ`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Measured edge census by layer.
    pub fn census(&self) -> Census {
        self.census
    }

    /// Total number of stages, `4ν + 1`.
    pub fn num_stages(&self) -> usize {
        self.params.num_stages()
    }

    /// The `j`-th input terminal.
    pub fn input(&self, j: usize) -> VertexId {
        self.net.inputs()[j]
    }

    /// The `j`-th output terminal.
    pub fn output(&self, j: usize) -> VertexId {
        self.net.outputs()[j]
    }

    /// First vertex id of internal stage `s` (`1 ≤ s ≤ 4ν−1`).
    pub fn stage_base(&self, s: usize) -> u32 {
        debug_assert!(s >= 1 && s < self.num_stages() - 1);
        self.net.stage_range(s).start
    }

    /// Vertex `idx` of internal stage `s`.
    pub(crate) fn internal(&self, s: usize, idx: usize) -> VertexId {
        debug_assert!(idx < self.width);
        VertexId(self.stage_base(s) + idx as u32)
    }

    /// Classification of stage `s`.
    pub fn stage_kind(&self, s: usize) -> StageKind {
        let nu = self.params.nu as usize;
        match s {
            0 => StageKind::Inputs,
            s if s < nu => StageKind::InputGrid,
            s if s <= 3 * nu => StageKind::Middle,
            s if s < 4 * nu => StageKind::OutputGrid,
            _ => StageKind::Outputs,
        }
    }

    /// Grid vertex `(row r, grid stage g)` of grid `j` on the given
    /// side. Grid stages run `0 ..= ν−1` in grid-local coordinates;
    /// stage `ν−1` of an input grid is the shared middle stage `ν`, and
    /// stage `0` of an output grid is the shared middle stage `3ν`.
    pub fn grid_vertex(&self, side: Side, j: usize, r: usize, g: usize) -> VertexId {
        let nu = self.params.nu as usize;
        debug_assert!(j < self.n() && r < self.rows && g < nu);
        let s = match side {
            Side::Input => 1 + g,
            Side::Output => 3 * nu + g,
        };
        self.internal(s, j * self.rows + r)
    }

    /// Group structure of middle stage `s` (`ν ≤ s ≤ 3ν`): returns
    /// `(group_count, group_size)`. Group `g` occupies contiguous
    /// indices `[g·size, (g+1)·size)` of the stage.
    pub(crate) fn middle_groups(&self, s: usize) -> (usize, usize) {
        let nu = self.params.nu as usize;
        debug_assert!((nu..=3 * nu).contains(&s), "stage {s} not in 𝓜");
        let level = if s <= 2 * nu {
            s - nu // k: group size F·4^{γ+k}
        } else {
            3 * nu - s // mirrored
        };
        let size = self.params.group_size(self.params.gamma + level as u32);
        (self.width / size, size)
    }

    /// Vertex-id range of group `g` at middle stage `s`.
    pub fn middle_group_range(&self, s: usize, g: usize) -> std::ops::Range<u32> {
        let (count, size) = self.middle_groups(s);
        debug_assert!(g < count);
        let base = self.stage_base(s) + (g * size) as u32;
        base..base + size as u32
    }
}

/// Internal builder walking the stages left to right.
struct Builder {
    params: Params,
    b: StagedBuilder,
    /// Stage bases, filled as stages are added.
    bases: Vec<u32>,
    rng: SmallRng,
}

impl Builder {
    fn new(params: Params) -> Builder {
        Builder {
            params,
            b: {
                let (vertices, switches) =
                    params.checked_counts().expect("𝒩's size overflows usize");
                StagedBuilder::with_capacity(vertices, switches)
            },
            bases: Vec::new(),
            rng: SmallRng::seed_from_u64(params.seed),
        }
    }

    fn v(&self, s: usize, idx: usize) -> VertexId {
        VertexId(self.bases[s] + idx as u32)
    }

    fn build(mut self) -> FtNetwork {
        let p = self.params;
        let nu = p.nu as usize;
        let n = p.n();
        let l = p.grid_rows();
        let w = p.stage_width();
        debug_assert_eq!(w, n * l);

        // Stages: 0 = inputs, 1..=4ν−1 internal (width W), 4ν = outputs.
        self.bases.push(self.b.add_stage(n).start);
        for _ in 1..4 * nu {
            let r = self.b.add_stage(w);
            self.bases.push(r.start);
        }
        self.bases.push(self.b.add_stage(n).start);

        let mut census = Census {
            terminal: 0,
            grid: 0,
            middle: 0,
        };

        // 1. Input fan-out: input j → every row of Φⱼ's first stage.
        for j in 0..n {
            for r in 0..l {
                self.b.add_edge(self.v(0, j), self.v(1, j * l + r));
                census.terminal += 1;
            }
        }

        // 2. Input grid gaps (straight + down-diagonal), stages 1..ν.
        for s in 1..nu {
            for j in 0..n {
                for r in 0..l {
                    let from = self.v(s, j * l + r);
                    self.b.add_edge(from, self.v(s + 1, j * l + r));
                    census.grid += 1;
                    if r + 1 < l {
                        self.b.add_edge(from, self.v(s + 1, j * l + r + 1));
                        census.grid += 1;
                    }
                }
            }
        }

        // 3. Middle expander gaps, stages ν..3ν: per coarse block, a
        //    union of `degree` random permutations, drawn first and then
        //    emitted tail by tail.
        for s in nu..3 * nu {
            let t = gap_block_size(&p, s);
            let blocks = w / t;
            for blk in 0..blocks {
                let base = blk * t;
                let perms: Vec<_> = (0..p.degree)
                    .map(|_| random_permutation(&mut self.rng, t))
                    .collect();
                self.b
                    .add_matchings(self.v(s, base), self.v(s + 1, base), &perms);
                census.middle += p.degree * t;
            }
        }

        // 4. Output grid gaps (straight + up-diagonal), stages 3ν..4ν−1.
        for s in 3 * nu..4 * nu - 1 {
            for j in 0..n {
                for r in 0..l {
                    let from = self.v(s, j * l + r);
                    self.b.add_edge(from, self.v(s + 1, j * l + r));
                    census.grid += 1;
                    if r >= 1 {
                        self.b.add_edge(from, self.v(s + 1, j * l + r - 1));
                        census.grid += 1;
                    }
                }
            }
        }

        // 5. Output fan-in: every row of Ψⱼ's last stage → output j.
        for j in 0..n {
            for r in 0..l {
                self.b
                    .add_edge(self.v(4 * nu - 1, j * l + r), self.v(4 * nu, j));
                census.terminal += 1;
            }
        }

        self.b.set_inputs((0..n).map(|j| self.v(0, j)).collect());
        self.b
            .set_outputs((0..n).map(|j| self.v(4 * nu, j)).collect());

        let net = self.b.finish();
        FtNetwork {
            params: p,
            net,
            width: w,
            rows: l,
            census,
        }
    }
}

/// Block size of the expander gap `s → s+1` (`ν ≤ s < 3ν`): the size of
/// the coarser side's groups; permutations are sampled per block.
fn gap_block_size(p: &Params, s: usize) -> usize {
    let nu = p.nu as usize;
    let level = if s < 2 * nu { s - nu + 1 } else { 3 * nu - s };
    p.group_size(p.gamma + level as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FtNetwork {
        // ν = 1, F = 8, d = 4, γ = 1: n = 4, l = 32, W = 128.
        FtNetwork::build(Params::reduced(1, 8, 4, 1.0))
    }

    fn small() -> FtNetwork {
        // ν = 2, F = 8, d = 4, γ = 1: n = 16, l = 32, W = 512.
        FtNetwork::build(Params::reduced(2, 8, 4, 1.0))
    }

    #[test]
    fn tiny_shape() {
        let f = tiny();
        assert_eq!(f.n(), 4);
        assert_eq!(f.rows(), 32);
        assert_eq!(f.width(), 128);
        assert_eq!(f.num_stages(), 5);
        assert_eq!(f.net().inputs().len(), 4);
        assert_eq!(f.net().outputs().len(), 4);
        assert_eq!(f.net().depth(), 4);
        assert!(f.net().validate().is_ok());
    }

    #[test]
    fn census_matches_prediction() {
        for f in [tiny(), small()] {
            let p = f.params();
            let (n, l, nu) = (p.n(), p.grid_rows(), p.nu as usize);
            let pred = Census {
                terminal: 2 * n * l,
                grid: 2 * n * (2 * l - 1) * (nu - 1),
                middle: 2 * nu * p.degree * p.stage_width(),
            };
            assert_eq!(f.census(), pred);
            assert_eq!(f.net().size(), pred.total());
            assert_eq!(f.net().size(), f.params().predicted_size());
        }
    }

    #[test]
    fn small_depth_is_4nu() {
        let f = small();
        assert_eq!(f.net().depth(), 8);
        assert_eq!(f.num_stages(), 9);
    }

    #[test]
    fn stage_kinds() {
        let f = small(); // ν = 2
        assert_eq!(f.stage_kind(0), StageKind::Inputs);
        assert_eq!(f.stage_kind(1), StageKind::InputGrid);
        assert_eq!(f.stage_kind(2), StageKind::Middle); // = ν
        assert_eq!(f.stage_kind(4), StageKind::Middle); // = 2ν
        assert_eq!(f.stage_kind(6), StageKind::Middle); // = 3ν
        assert_eq!(f.stage_kind(7), StageKind::OutputGrid);
        assert_eq!(f.stage_kind(8), StageKind::Outputs);
    }

    #[test]
    fn input_fanout_degree_is_l() {
        let f = small();
        for j in 0..f.n() {
            assert_eq!(f.net().graph().out_degree(f.input(j)), f.rows());
            assert_eq!(f.net().graph().in_degree(f.output(j)), f.rows());
        }
    }

    #[test]
    fn middle_degrees_are_d() {
        let f = small();
        let nu = 2;
        // every vertex of stage 2ν has in-degree d and out-degree d
        for idx in 0..f.width() {
            let v = f.internal(2 * nu, idx);
            assert_eq!(f.net().graph().out_degree(v), 4);
            assert_eq!(f.net().graph().in_degree(v), 4);
        }
    }

    #[test]
    fn grid_vertices_have_grid_degrees() {
        let f = small(); // ν=2: grid interior stage 1
                         // stage-1 vertex: in-degree 1 (from input), out-degree ≤ 2
        let v = f.grid_vertex(Side::Input, 0, 5, 0);
        assert_eq!(f.net().graph().in_degree(v), 1);
        assert_eq!(f.net().graph().out_degree(v), 2);
        // bottom row has no down-diagonal
        let bottom = f.grid_vertex(Side::Input, 0, f.rows() - 1, 0);
        assert_eq!(f.net().graph().out_degree(bottom), 1);
    }

    #[test]
    fn group_structure() {
        let f = small(); // ν=2, γ=1, F=8
                         // stage ν=2: 4^ν−0 = 16 groups of F·4^γ = 32
        assert_eq!(f.middle_groups(2), (16, 32));
        // stage 3: 4 groups of 128
        assert_eq!(f.middle_groups(3), (4, 128));
        // middle stage 2ν=4: 1 group of 512
        assert_eq!(f.middle_groups(4), (1, 512));
        // mirrored: stage 5 like stage 3
        assert_eq!(f.middle_groups(5), (4, 128));
        assert_eq!(f.middle_groups(6), (16, 32));
    }

    #[test]
    fn gap_blocks() {
        let f = small();
        // left gaps: coarser side is the parent
        assert_eq!(gap_block_size(f.params(), 2), 128);
        assert_eq!(gap_block_size(f.params(), 3), 512);
        // right gaps: coarser side is the source
        assert_eq!(gap_block_size(f.params(), 4), 512);
        assert_eq!(gap_block_size(f.params(), 5), 128);
    }

    #[test]
    fn middle_edges_stay_in_block() {
        let f = small();
        let nu = 2;
        for s in nu..3 * nu {
            let t = gap_block_size(f.params(), s);
            let base_s = f.stage_base(s);
            let base_n = f.stage_base(s + 1);
            for (_, tail, head) in f.net().graph().edges() {
                if tail.0 >= base_s
                    && tail.0 < base_s + f.width() as u32
                    && head.0 >= base_n
                    && head.0 < base_n + f.width() as u32
                {
                    let bt = (tail.0 - base_s) as usize / t;
                    let bh = (head.0 - base_n) as usize / t;
                    assert_eq!(bt, bh, "edge crosses block at gap {s}");
                }
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = FtNetwork::build(Params::reduced(1, 8, 4, 1.0));
        let b = FtNetwork::build(Params::reduced(1, 8, 4, 1.0));
        assert_eq!(a.net().size(), b.net().size());
        let ea: Vec<_> = a.net().graph().edges().collect();
        let eb: Vec<_> = b.net().graph().edges().collect();
        assert_eq!(ea, eb);
        let c = FtNetwork::build(Params::reduced(1, 8, 4, 1.0).with_seed(9));
        let ec: Vec<_> = c.net().graph().edges().collect();
        assert_ne!(ea, ec, "different seed should change expander wiring");
    }

    #[test]
    fn grid_vertex_coordinates() {
        let f = small();
        // input grid j=1, row 3, grid stage 0 lives at stage 1, idx l+3
        assert_eq!(
            f.grid_vertex(Side::Input, 1, 3, 0),
            f.internal(1, f.rows() + 3)
        );
        // output grid stage 0 is the shared middle stage 3ν
        assert_eq!(f.grid_vertex(Side::Output, 0, 0, 0), f.internal(6, 0));
    }

    #[test]
    fn paper_exact_nu1_census() {
        // ν=1 paper-exact: γ=3, l = 64·64 = 4096, W = 64·4^4 = 16384,
        // middle 2·1·10·16384, grids none (ν−1 = 0), terminals 2·4·4096.
        let p = Params::paper_exact(1);
        let f = FtNetwork::build(p);
        assert_eq!(f.census().middle, 20 * 16384);
        assert_eq!(f.census().grid, 0);
        assert_eq!(f.census().terminal, 8 * 4096);
        // Built straight into the CSR from `Params::checked_counts`,
        // whose switch count is `predicted_size` (the builder's debug
        // assertion fails this test if either count is off by one), at
        // Theorem 2's size and depth.
        assert_eq!(f.net().size(), 360_448);
        assert_eq!(f.net().size(), p.predicted_size());
        assert_eq!(f.net().graph().num_vertices(), 2 * 4 + 3 * 16384);
        assert_eq!(f.net().validate(), Ok(()));
        assert_eq!(f.net().depth(), p.depth());
        assert_eq!(p.depth(), 4);
    }
}
