//! Beneš rearrangeable networks and the looping algorithm.
//!
//! Beneš \[B\] 1964 — the paper's citation for rearrangeable networks of
//! size O(n log n) and depth O(log n), the fault-free optimum that
//! Theorem 1 proves *cannot* be made fault-tolerant without a log² n
//! size factor. For `N = 2^k` terminals the network has `2k` link
//! stages; switch column `c` pairs links differing in bit `b(c)`
//! (`b(c) = k−1−c` for `c < k`, `b(c) = c−k+1` for `c ≥ k`), giving
//! `2N(2k−1)` switches and depth `2k − 1`… in the link model each column
//! contributes `2N` single-pole switches.
//!
//! [`Benes::route_permutation`] implements the classical **looping
//! algorithm**: 2-colour the cycles of the input/output pairing
//! multigraph to split the permutation across the two middle
//! subnetworks, and recurse.

use ft_graph::{StagedBuilder, StagedNetwork, VertexId};

/// A Beneš network on `N = 2^k` terminals.
#[derive(Clone, Debug)]
pub struct Benes {
    /// log₂ of the terminal count.
    pub(crate) k: u32,
    /// The staged network (`2k` link stages for k ≥ 1).
    pub net: StagedNetwork,
}

/// The bit exchanged by switch column `c` of a `2^k`-terminal Beneš.
pub(crate) fn column_bit(k: u32, c: u32) -> u32 {
    assert!(c < 2 * k - 1);
    if c < k {
        k - 1 - c
    } else {
        c - k + 1
    }
}

impl Benes {
    /// `(vertices, switches)` of the Beneš network on `N = 2^k`
    /// terminals, `k ≥ 1` — `2k` link stages of `N` and `2N(2k − 1)`
    /// switches — or `None` if a count overflows `usize` (or `k = 0`).
    pub fn census(k: u32) -> Option<(usize, usize)> {
        let n = 1usize.checked_shl(k)?;
        let stages = 2 * k as usize;
        let switches = n.checked_mul(2)?.checked_mul(stages.checked_sub(1)?)?;
        Some((stages.checked_mul(n)?, switches))
    }

    /// Builds the Beneš network for `N = 2^k`, `k ≥ 1`.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1, "Beneš needs at least 2 terminals");
        let n = 1usize << k;
        let stages = 2 * k as usize; // link stages
        let (vertices, switches) = Benes::census(k).expect("Beneš census overflows usize");
        let mut b = StagedBuilder::with_capacity(vertices, switches);
        let mut ranges = Vec::with_capacity(stages);
        for _ in 0..stages {
            ranges.push(b.add_stage(n));
        }
        for c in 0..(2 * k - 1) as usize {
            let bit = 1u32 << column_bit(k, c as u32);
            for x in 0..n as u32 {
                let from = VertexId(ranges[c].start + x);
                b.add_edge(from, VertexId(ranges[c + 1].start + x));
                b.add_edge(from, VertexId(ranges[c + 1].start + (x ^ bit)));
            }
        }
        b.set_inputs(ranges[0].clone().map(VertexId).collect());
        b.set_outputs(ranges[stages - 1].clone().map(VertexId).collect());
        Benes { k, net: b.finish() }
    }

    /// Number of terminals `N = 2^k`.
    pub fn terminals(&self) -> usize {
        1usize << self.k
    }

    /// Routes `perm` with the looping algorithm. Returns, for each input
    /// `x`, the vertex path (one link per stage) from input `x` to
    /// output `perm[x]`. Paths are vertex-disjoint.
    pub fn route_permutation(&self, perm: &[u32]) -> Vec<Vec<VertexId>> {
        let n = self.terminals();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut seen = vec![false; n];
        for &y in perm {
            assert!(!seen[y as usize], "not a permutation");
            seen[y as usize] = true;
        }
        // recursive looping on link indices
        let link_paths = loop_route(self.k, perm);
        // convert to global vertex ids
        link_paths
            .into_iter()
            .map(|links| {
                links
                    .into_iter()
                    .enumerate()
                    .map(|(stage, link)| VertexId(self.net.stage_range(stage).start + link))
                    .collect()
            })
            .collect()
    }
}

/// Looping recursion: returns, for each input `x` of a `2^k` Beneš, the
/// link index used at each of the `2k` link stages.
fn loop_route(k: u32, perm: &[u32]) -> Vec<Vec<u32>> {
    let n = 1usize << k;
    if k == 1 {
        // single 2×2 column, stages 0 and 1: direct links
        return (0..n).map(|x| vec![x as u32, perm[x]]).collect();
    }
    let half = n / 2;
    // 2-colour the pairing multigraph: vertices = input switches (x mod
    // half) and output switches (y mod half); edges = calls.
    // Walk cycles, alternating colours.
    let mut color = vec![u8::MAX; n]; // colour per call (indexed by input x)
                                      // in_calls[i] = the two inputs on input switch i; out_call[j] = the two
                                      // inputs whose outputs land on output switch j
    let mut out_calls = vec![[u32::MAX; 2]; half];
    for x in 0..n as u32 {
        let j = (perm[x as usize] as usize) % half;
        if out_calls[j][0] == u32::MAX {
            out_calls[j][0] = x;
        } else {
            out_calls[j][1] = x;
        }
    }
    for start in 0..n as u32 {
        if color[start as usize] != u8::MAX {
            continue;
        }
        // walk the cycle: colour call, hop to sibling on the output
        // switch (must differ), then to sibling on the input switch.
        let mut x = start;
        let mut c = 0u8;
        loop {
            color[x as usize] = c;
            // sibling on output switch gets the other colour
            let j = (perm[x as usize] as usize) % half;
            let sib_out = if out_calls[j][0] == x {
                out_calls[j][1]
            } else {
                out_calls[j][0]
            };
            if sib_out == u32::MAX {
                break; // unreachable for full permutations (degree 2)
            }
            if color[sib_out as usize] == u8::MAX {
                color[sib_out as usize] = 1 - c;
            }
            // sibling on input switch of sib_out continues with colour c… wait:
            // alternate: that sibling must take the colour opposite to sib_out.
            let sib_in = sib_out ^ half as u32;
            if color[sib_in as usize] != u8::MAX {
                break; // cycle closed
            }
            x = sib_in;
            c = 1 - color[sib_out as usize];
        }
    }
    // build sub-permutations
    let mut sub_perm = [vec![0u32; half], vec![0u32; half]];
    for x in 0..n as u32 {
        let u = color[x as usize] as usize;
        let i = (x as usize) % half;
        let j = (perm[x as usize] as usize) % half;
        sub_perm[u][i] = j as u32;
    }
    let sub_paths = [
        loop_route(k - 1, &sub_perm[0]),
        loop_route(k - 1, &sub_perm[1]),
    ];
    // assemble: input x uses subnetwork u at sub-input x mod half, whose
    // sub-path gives links at stages 1..2k-1 (sub stage s ↦ stage s+1,
    // link = u*half + sub_link)
    (0..n)
        .map(|x| {
            let u = color[x] as usize;
            let i = x % half;
            let y = perm[x];
            let mut path = Vec::with_capacity(2 * k as usize);
            path.push(x as u32);
            for &sub_link in &sub_paths[u][i] {
                path.push((u * half) as u32 + sub_link);
            }
            path.push(y);
            path
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen::{random_permutation, rng};
    use ft_graph::paths::are_vertex_disjoint;

    #[test]
    fn shape() {
        for k in 1..=4 {
            let b = Benes::new(k);
            // the switch-count formula 2N(2k − 1)
            assert_eq!(b.net.size(), 2 * b.terminals() * (2 * k as usize - 1));
            assert_eq!(b.net.depth(), 2 * k - 1, "k={k}");
            assert_eq!(b.terminals(), 1 << k);
        }
    }

    #[test]
    fn column_bits_classic_4x4() {
        // N=4: columns exchange bits 1, 0, 1
        assert_eq!(column_bit(2, 0), 1);
        assert_eq!(column_bit(2, 1), 0);
        assert_eq!(column_bit(2, 2), 1);
    }

    fn check_routing(b: &Benes, perm: &[u32]) {
        let paths = b.route_permutation(perm);
        assert_eq!(paths.len(), b.terminals());
        for (x, path) in paths.iter().enumerate() {
            assert_eq!(path.len(), 2 * b.k as usize, "path length");
            assert_eq!(path[0], b.net.inputs()[x]);
            assert_eq!(*path.last().unwrap(), b.net.outputs()[perm[x] as usize]);
            for w in path.windows(2) {
                assert!(
                    b.net.graph().has_edge(w[0], w[1]),
                    "x={x}: no edge {:?}->{:?} (perm {perm:?})",
                    w[0],
                    w[1]
                );
            }
        }
        assert!(
            are_vertex_disjoint(paths.iter().map(|p| p.as_slice())),
            "paths collide for {perm:?}"
        );
    }

    #[test]
    fn routes_all_permutations_of_4() {
        // exhaustive rearrangeability check at N=4
        let b = Benes::new(2);
        let mut perm = [0u32, 1, 2, 3];
        permute_all(&mut perm, 0, &mut |p| check_routing(&b, p));
    }

    fn permute_all(arr: &mut [u32], i: usize, f: &mut impl FnMut(&[u32])) {
        if i == arr.len() {
            f(arr);
            return;
        }
        for j in i..arr.len() {
            arr.swap(i, j);
            permute_all(arr, i + 1, f);
            arr.swap(i, j);
        }
    }

    #[test]
    fn routes_all_permutations_of_2() {
        let b = Benes::new(1);
        check_routing(&b, &[0, 1]);
        check_routing(&b, &[1, 0]);
    }

    #[test]
    fn routes_random_permutations_large() {
        let mut r = rng(21);
        for k in 3..=6 {
            let b = Benes::new(k);
            for _ in 0..10 {
                let perm = random_permutation(&mut r, b.terminals());
                check_routing(&b, &perm);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_non_permutation() {
        let b = Benes::new(2);
        b.route_permutation(&[0, 0, 1, 2]);
    }
}
