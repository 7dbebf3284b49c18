//! Verifying the §2 network properties on arbitrary staged networks.
//!
//! * **rearrangeable**: every permutation routes as vertex-disjoint
//!   paths. Checking one permutation on an arbitrary DAG is already
//!   NP-hard in general, so the generic checker is a backtracking search
//!   with a node budget — exact for the small networks in tests, while
//!   Beneš/Clos have polynomial special-case routers in their modules.
//! * **strictly nonblocking**: *any* greedy-reachable call pattern can
//!   always be extended. Verified exhaustively for tiny networks by
//!   exploring the full game tree, and refuted probabilistically by
//!   randomized churn adversaries elsewhere.
//! * **superconcentrator**: delegated to `ft_graph::menger`.

use ft_graph::ids::VertexId;
use ft_graph::StagedNetwork;

/// Attempts to route the permutation `perm` (inputs\[i\] → outputs[perm\[i\]])
/// as vertex-disjoint paths by backtracking over BFS-shortest choices.
/// `budget` bounds the number of search nodes; `None` on exhaustion or
/// genuine unroutability.
pub(crate) fn route_permutation_backtracking(
    net: &StagedNetwork,
    perm: &[u32],
    budget: &mut u64,
) -> Option<Vec<Vec<VertexId>>> {
    let n = net.inputs().len();
    assert_eq!(perm.len(), n);
    let mut used = vec![false; net.graph().num_vertices()];
    let mut paths: Vec<Vec<VertexId>> = Vec::with_capacity(n);
    if backtrack(net, perm, 0, &mut used, &mut paths, budget) {
        Some(paths)
    } else {
        None
    }
}

fn backtrack(
    net: &StagedNetwork,
    perm: &[u32],
    i: usize,
    used: &mut Vec<bool>,
    paths: &mut Vec<Vec<VertexId>>,
    budget: &mut u64,
) -> bool {
    if i == perm.len() {
        return true;
    }
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    let input = net.inputs()[i];
    let output = net.outputs()[perm[i] as usize];
    // enumerate candidate paths lazily: DFS over stages, preferring
    // lexicographic order; to bound work we enumerate up to 64 distinct
    // paths per level via iterative deepening on the first branch.
    let mut candidates = Vec::new();
    collect_paths(
        net,
        input,
        output,
        used,
        &mut vec![input],
        &mut candidates,
        64,
    );
    for path in candidates {
        for &v in &path {
            used[v.index()] = true;
        }
        paths.push(path.clone());
        if backtrack(net, perm, i + 1, used, paths, budget) {
            return true;
        }
        paths.pop();
        for &v in &path {
            used[v.index()] = false;
        }
        if *budget == 0 {
            return false;
        }
    }
    false
}

fn collect_paths(
    net: &StagedNetwork,
    cur: VertexId,
    target: VertexId,
    used: &[bool],
    prefix: &mut Vec<VertexId>,
    out: &mut Vec<Vec<VertexId>>,
    limit: usize,
) {
    if out.len() >= limit {
        return;
    }
    if cur == target {
        out.push(prefix.clone());
        return;
    }
    for e in net.graph().out_edges(cur) {
        let w = net.graph().head(e);
        if used[w.index()] && w != target {
            continue;
        }
        if used[w.index()] {
            continue;
        }
        prefix.push(w);
        collect_paths(net, w, target, used, prefix, out, limit);
        prefix.pop();
        if out.len() >= limit {
            return;
        }
    }
}

/// Exhaustively verifies rearrangeability by routing **every**
/// permutation. Factorial: keep `n ≤ 6`.
pub fn verify_rearrangeable_exhaustive(net: &StagedNetwork) -> Result<(), Vec<u32>> {
    let n = net.inputs().len();
    assert!(n <= 6, "exhaustive rearrangeability limited to n ≤ 6");
    let mut perm: Vec<u32> = (0..n as u32).collect();
    fn rec(net: &StagedNetwork, perm: &mut Vec<u32>, i: usize) -> Result<(), Vec<u32>> {
        if i == perm.len() {
            let mut budget = 1_000_000u64;
            return if route_permutation_backtracking(net, perm, &mut budget).is_some() {
                Ok(())
            } else {
                Err(perm.clone())
            };
        }
        for j in i..perm.len() {
            perm.swap(i, j);
            rec(net, perm, i + 1)?;
            perm.swap(i, j);
        }
        Ok(())
    }
    rec(net, &mut perm, 0)
}

/// Witness of a blocking configuration: the established `(input, output)`
/// calls plus the idle pair that could not be connected.
pub(crate) type BlockingWitness = (Vec<(usize, usize)>, usize, usize);

/// State of the exhaustive nonblocking game: which inputs are connected
/// to which outputs.
///
/// Explores every reachable configuration of calls where each call was
/// established while vertex-disjoint from the others; at each state,
/// every idle (input, output) pair must admit an idle path. Returns a
/// witness `(calls, input, output)` on violation. Exponential: tiny
/// networks only.
pub fn verify_strictly_nonblocking_exhaustive(
    net: &StagedNetwork,
    max_states: usize,
) -> Result<(), BlockingWitness> {
    use std::collections::HashSet;
    let n_in = net.inputs().len();
    let n_out = net.outputs().len();
    // state = sorted list of (input, output) pairs currently connected;
    // the adversary may realise ANY vertex-disjoint routing of them, so a
    // state is "safe" only if for every routing realisation... The paper's
    // strict nonblocking definition quantifies over the established
    // vertex-disjoint path set. We must therefore track path sets, not
    // just pairs. To stay finite we enumerate path-set states.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct State(Vec<Vec<u32>>); // sorted set of paths (vertex id lists)

    let mut seen: HashSet<State> = HashSet::new();
    let mut stack = vec![State(Vec::new())];
    let mut states = 0usize;
    while let Some(state) = stack.pop() {
        if !seen.insert(state.clone()) {
            continue;
        }
        states += 1;
        assert!(
            states <= max_states,
            "nonblocking game exceeded {max_states} states"
        );
        let mut used = vec![false; net.graph().num_vertices()];
        let mut busy_in = vec![false; n_in];
        let mut busy_out = vec![false; n_out];
        for p in &state.0 {
            for &v in p {
                used[v as usize] = true;
            }
        }
        for (i, &vin) in net.inputs().iter().enumerate() {
            busy_in[i] = used[vin.index()];
        }
        for (o, &vout) in net.outputs().iter().enumerate() {
            busy_out[o] = used[vout.index()];
        }
        // every idle pair must be connectable; and each successful
        // connection (every minimal idle path, to cover adversarial
        // routing) spawns successor states
        for (i, _) in busy_in.iter().enumerate().filter(|(_, &b)| !b) {
            for (o, _) in busy_out.iter().enumerate().filter(|(_, &b)| !b) {
                // find all idle paths (bounded) — adversary may pick any
                let mut cands = Vec::new();
                let mut prefix = vec![net.inputs()[i]];
                collect_paths(
                    net,
                    net.inputs()[i],
                    net.outputs()[o],
                    &used,
                    &mut prefix,
                    &mut cands,
                    16,
                );
                if cands.is_empty() {
                    let calls: Vec<(usize, usize)> = state
                        .0
                        .iter()
                        .map(|p| {
                            let first = VertexId(p[0]);
                            let last = VertexId(*p.last().unwrap());
                            (
                                net.inputs().iter().position(|&v| v == first).unwrap(),
                                net.outputs().iter().position(|&v| v == last).unwrap(),
                            )
                        })
                        .collect();
                    return Err((calls, i, o));
                }
                for cand in cands {
                    let mut next = state.0.clone();
                    next.push(cand.iter().map(|v| v.0).collect());
                    next.sort();
                    stack.push(State(next));
                }
            }
        }
    }
    Ok(())
}

/// Blocked-pair search by randomized churn: returns true if a greedy
/// router ever failed to connect an idle pair (evidence the network is
/// not strictly nonblocking; for strictly nonblocking networks this
/// never returns true).
pub fn churn_finds_blocking(
    net: &StagedNetwork,
    rounds: usize,
    steps_per_round: usize,
    rng: &mut rand::rngs::SmallRng,
) -> bool {
    use crate::router::{CircuitRouter, RouteError};
    use rand::Rng;
    let n_in = net.inputs().len();
    let n_out = net.outputs().len();
    for _ in 0..rounds {
        let mut router = CircuitRouter::new(net);
        let mut live = Vec::new();
        for _ in 0..steps_per_round {
            let connect = live.is_empty() || rng.random_bool(0.6);
            if connect {
                let ins: Vec<usize> = (0..n_in)
                    .filter(|&i| router.is_idle(net.inputs()[i]))
                    .collect();
                let outs: Vec<usize> = (0..n_out)
                    .filter(|&o| router.is_idle(net.outputs()[o]))
                    .collect();
                if ins.is_empty() || outs.is_empty() {
                    continue;
                }
                let i = ins[rng.random_range(0..ins.len())];
                let o = outs[rng.random_range(0..outs.len())];
                match router.connect(net.inputs()[i], net.outputs()[o]) {
                    Ok(id) => live.push(id),
                    Err(RouteError::Blocked(_, _)) => return true,
                    Err(e) => panic!("unexpected routing error: {e}"),
                }
            } else {
                let idx = rng.random_range(0..live.len());
                let id = live.swap_remove(idx);
                router.disconnect(id);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benes::Benes;
    use crate::clos::Clos;
    use crate::crossbar::crossbar;
    use ft_graph::gen::rng;

    #[test]
    fn crossbar_routes_any_permutation() {
        let net = crossbar(4);
        let mut budget = 10_000u64;
        let paths =
            route_permutation_backtracking(&net, &[2, 0, 3, 1], &mut budget).expect("routable");
        assert_eq!(paths.len(), 4);
        assert!(ft_graph::paths::are_vertex_disjoint(
            paths.iter().map(|p| p.as_slice())
        ));
    }

    #[test]
    fn crossbar_exhaustively_rearrangeable() {
        let net = crossbar(4);
        assert!(verify_rearrangeable_exhaustive(&net).is_ok());
    }

    #[test]
    fn benes4_exhaustively_rearrangeable_via_backtracking() {
        let b = Benes::new(2);
        assert!(verify_rearrangeable_exhaustive(&b.net).is_ok());
    }

    #[test]
    fn broken_network_fails_rearrangeability() {
        // 2 inputs, 1 shared middle, 2 outputs: identity unroutable
        let mut builder = ft_graph::StagedBuilder::new();
        let s0 = builder.add_stage(2);
        let s1 = builder.add_stage(1);
        let s2 = builder.add_stage(2);
        for i in s0.clone() {
            builder.add_edge(VertexId(i), VertexId(s1.start));
        }
        for o in s2.clone() {
            builder.add_edge(VertexId(s1.start), VertexId(o));
        }
        builder.set_inputs(s0.map(VertexId).collect());
        builder.set_outputs(s2.map(VertexId).collect());
        let net = builder.finish();
        let viol = verify_rearrangeable_exhaustive(&net);
        assert!(viol.is_err());
    }

    #[test]
    fn crossbar_is_strictly_nonblocking_exhaustive() {
        let net = crossbar(2);
        assert!(verify_strictly_nonblocking_exhaustive(&net, 100_000).is_ok());
        let net = crossbar(3);
        assert!(verify_strictly_nonblocking_exhaustive(&net, 2_000_000).is_ok());
    }

    #[test]
    fn benes_is_not_strictly_nonblocking() {
        // Beneš N=4 is rearrangeable but not strictly nonblocking: the
        // exhaustive game must find a blocking witness
        let b = Benes::new(2);
        let res = verify_strictly_nonblocking_exhaustive(&b.net, 5_000_000);
        assert!(res.is_err(), "Beneš should have a blocking state");
        let (calls, i, o) = res.unwrap_err();
        assert!(!calls.is_empty());
        assert!(i < 4 && o < 4);
    }

    #[test]
    fn churn_blocks_benes_but_not_crossbar() {
        let mut r = rng(31);
        let b = Benes::new(2);
        assert!(churn_finds_blocking(&b.net, 100, 60, &mut r));
        let x = crossbar(4);
        assert!(!churn_finds_blocking(&x, 50, 60, &mut r));
    }

    #[test]
    fn strict_clos_survives_churn() {
        let c = Clos::strictly_nonblocking(2, 2);
        let mut r = rng(32);
        assert!(!churn_finds_blocking(&c.net, 50, 80, &mut r));
    }

    #[test]
    fn sampled_superconcentrator_checks() {
        let mut r = rng(33);
        let sampled = |net: &StagedNetwork, trials, r: &mut _| {
            ft_graph::menger::verify_superconcentrator_sampled(
                net.graph(),
                net.inputs(),
                net.outputs(),
                trials,
                r,
            )
        };
        let x = crossbar(4);
        assert!(sampled(&x, 100, &mut r).is_none());
        let b = Benes::new(2);
        assert!(
            sampled(&b.net, 200, &mut r).is_none(),
            "Beneš is rearrangeable hence a superconcentrator"
        );
    }
}
