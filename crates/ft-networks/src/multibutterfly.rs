//! Multibutterfly networks (Upfal; Leighton & Maggs).
//!
//! The paper cites Leighton & Maggs \[LM\] — "expanders might be
//! practical: fast algorithms for routing around faults on
//! multibutterflies" — as the routing-around-faults tradition its
//! construction descends from, and the reproduction notes flag the
//! absence of any open-source multibutterfly router. A `d`-multibutterfly
//! replaces each butterfly column's deterministic exchange with
//! *splitters*: in stage `j`, each block of `M = N/2^j` links feeds the
//! upper and lower half-blocks of the next stage through degree-`d`
//! expanders, so every link has `d` choices per direction instead of 1.
//!
//! Routing is greedy: a circuit heading for output `y` must exit stage
//! `j` in the half-block matching bit `j` of `y`; any idle neighbour in
//! that half works. Expansion guarantees (Leighton–Maggs) that faults
//! or congestion cannot block more than a small fraction of circuits.

use ft_graph::gen::random_bipartite_adjacency;
use ft_graph::{StagedBuilder, StagedNetwork, VertexId};
use rand::rngs::SmallRng;

/// A multibutterfly on `N = 2^k` terminals with splitter degree `d`.
#[derive(Clone, Debug)]
pub struct Multibutterfly {
    /// Dimension (stages − 1).
    pub(crate) k: u32,
    /// The staged network (`k+1` link stages).
    pub net: StagedNetwork,
}

impl Multibutterfly {
    /// Builds a random `d`-multibutterfly (splitters are random
    /// left-regular bipartite graphs — the expander-based construction
    /// of Upfal/Leighton–Maggs with sampled expanders).
    pub fn new(k: u32, d: usize, rng: &mut SmallRng) -> Self {
        assert!(k >= 1 && d >= 1);
        let n = 1usize << k;
        let (vertices, switches) =
            Multibutterfly::census(k, d).expect("multibutterfly census overflows usize");
        let mut b = StagedBuilder::with_capacity(vertices, switches);
        let mut ranges = Vec::with_capacity(k as usize + 1);
        for _ in 0..=k {
            ranges.push(b.add_stage(n));
        }
        for j in 0..k as usize {
            let block = n >> j; // links per block at stage j
            let half = block / 2;
            let deg = d.min(half);
            for blk in 0..(1usize << j) {
                // the block's links keep their index range at the next
                // stage; two splitters, to the upper half [0, half) and the
                // lower [half, block), drawn first, then emitted per source
                let base = blk * block;
                let upper = random_bipartite_adjacency(rng, block, half, deg);
                let lower = random_bipartite_adjacency(rng, block, half, deg);
                for (src, (up, low)) in upper.iter().zip(&lower).enumerate() {
                    let from = VertexId(ranges[j].start + (base + src) as u32);
                    let heads = up.iter().map(|&t| t as usize);
                    for h in heads.chain(low.iter().map(|&t| half + t as usize)) {
                        b.add_edge(from, VertexId(ranges[j + 1].start + (base + h) as u32));
                    }
                }
            }
        }
        b.set_inputs(ranges[0].clone().map(VertexId).collect());
        b.set_outputs(ranges[k as usize].clone().map(VertexId).collect());
        Multibutterfly { k, net: b.finish() }
    }

    /// Builds a random `d`-multibutterfly from a bare seed — the
    /// sweep-friendly constructor: a `(k, d, seed)` triple names the
    /// fabric completely, so parameter grids (the `ftexp` runner) can
    /// rebuild the identical splitter wiring in every cell and cache
    /// results under a content hash of the spec alone.
    pub fn seeded(k: u32, d: usize, seed: u64) -> Self {
        Multibutterfly::new(k, d, &mut ft_graph::gen::rng(seed))
    }

    /// `(vertices, switches)` of a `d`-multibutterfly on `N = 2^k`
    /// terminals — `k + 1` link stages of `N`; two splitters per block,
    /// each of degree `min(d, half the block)` — or `None` if a count
    /// overflows `usize`.
    pub fn census(k: u32, d: usize) -> Option<(usize, usize)> {
        let n = 1usize.checked_shl(k)?;
        let vertices = (k as usize + 1).checked_mul(n)?;
        (0..k)
            .try_fold(0usize, |sum, j| {
                let splitters = n.checked_mul(2)?.checked_mul(d.min(n >> (j + 1)))?;
                sum.checked_add(splitters)
            })
            .map(|switches| (vertices, switches))
    }

    /// Terminal count.
    pub fn terminals(&self) -> usize {
        1usize << self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen::rng;
    use ft_graph::traversal::{bfs, Direction};

    impl Multibutterfly {
        /// Whether `link` (an index within stage `j+1`) lies in the
        /// correct half-block for output `y` given the block structure at
        /// stage `j+1`.
        fn on_route(&self, y: u32, stage: u32, link: u32) -> bool {
            // after `stage` hops the top `stage` bits of the link index
            // must agree with y's top bits
            if stage == 0 {
                return true;
            }
            let shift = self.k - stage;
            (link >> shift) == (y >> shift)
        }
    }

    #[test]
    fn shape() {
        let mut r = rng(1);
        let mb = Multibutterfly::new(3, 2, &mut r);
        assert_eq!(mb.net.num_stages(), 4);
        assert_eq!(mb.terminals(), 8);
        // each link has up to 2d out-edges (d per half)
        for v in mb.net.stage_vertices(0) {
            assert!(mb.net.graph().out_degree(v) <= 4);
            assert!(mb.net.graph().out_degree(v) >= 2);
        }
    }

    #[test]
    fn splitters_respect_halves() {
        let mut r = rng(2);
        let mb = Multibutterfly::new(3, 2, &mut r);
        // stage-0 edges from link x land in [0,4) (upper) or [4,8) (lower)
        // — both reachable; stage structure: top bit of stage-1 link is
        // the half selector
        let g = mb.net.graph();
        for x in 0..8u32 {
            let from = mb.net.inputs()[x as usize];
            let mut upper = 0;
            let mut lower = 0;
            for e in g.out_edges(from) {
                let to = g.head(e);
                let link = to.0 - mb.net.stage_range(1).start;
                if link < 4 {
                    upper += 1;
                } else {
                    lower += 1;
                }
            }
            assert_eq!(upper, 2, "input {x}");
            assert_eq!(lower, 2, "input {x}");
        }
    }

    #[test]
    fn every_output_reachable_through_correct_halves() {
        let mut r = rng(3);
        let mb = Multibutterfly::new(4, 2, &mut r);
        let g = mb.net.graph();
        // on-route reachability: restrict BFS to links on route for y
        for y in [0u32, 5, 15] {
            for x in [0u32, 7, 12] {
                let b = bfs(
                    g,
                    &[mb.net.inputs()[x as usize]],
                    Direction::Forward,
                    |_| true,
                    |v| {
                        let stage = mb.net.stage_of(v) as u32;
                        let link = v.0 - mb.net.stage_range(stage as usize).start;
                        mb.on_route(y, stage, link)
                    },
                );
                assert!(
                    b.reached(mb.net.outputs()[y as usize]),
                    "x={x} cannot reach y={y} on-route"
                );
            }
        }
    }
}
