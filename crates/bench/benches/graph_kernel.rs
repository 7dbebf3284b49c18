//! Graph-kernel microbenchmarks: BFS, the 64-lane sliced reach, Dinic
//! max-flow (vertex-disjoint paths), Hopcroft–Karp matching — the
//! engines behind verification and the Monte Carlo estimators.

use criterion::{criterion_group, criterion_main, Criterion};
use ft_core::network::FtNetwork;
use ft_core::params::Params;
use ft_failure::{FailureModel, SlicedFailureMask};
use ft_graph::gen::{random_bipartite_adjacency, random_dag, rng};
use ft_graph::matching::hopcroft_karp;
use ft_graph::maxflow::{vertex_disjoint_paths_into, DisjointOptions, FlowWorkspace};
use ft_graph::menger::max_disjoint_paths;
use ft_graph::sliced::{sliced_reach_into, SlicedWorkspace};
use ft_graph::traversal::{bfs_into, Direction};
use ft_graph::{Digraph, TraversalWorkspace, VertexId, LANES};
use ft_sim::FabricSpec;
use rand::Rng;
use std::hint::black_box;

/// The zero-allocation BFS over the cached CSR snapshot with a reused
/// workspace. (Its allocating predecessor `bfs_forward_ftn_nu2` was
/// retired in PR 5: the `Vec<Vec>` builder-graph path it measured left
/// every hot caller in PR 2 and the bench had started drifting on pure
/// codegen/layout noise.)
fn bench_bfs_reused(c: &mut Criterion) {
    let ftn = FtNetwork::build(Params::reduced(2, 8, 8, 1.0));
    let csr = ftn.csr();
    let src = ftn.input(0);
    let mut ws = TraversalWorkspace::new();
    c.bench_function("bfs_forward_ftn_nu2_reused", |b| {
        b.iter(|| {
            bfs_into(csr, &[src], Direction::Forward, |_| true, |_| true, &mut ws);
            black_box(ws.num_reached())
        })
    });
}

/// The reach step of one `pair_blocking_estimate` block on its own: one
/// 64-source forward sweep (lane i starts at a seeded random input)
/// through a fixed alive-word vector — one seeded ε = 0.02 sliced
/// sample, repaired by `alive_words_into`.
fn bench_sliced_reach_pairs(c: &mut Criterion) {
    for (name, fabric) in [
        ("sliced_reach_pairs_benes10", FabricSpec::Benes(10).build()),
        (
            "sliced_reach_pairs_ftn_nu2",
            FabricSpec::Ftn(2, 8, 8, 1.0).build(),
        ),
    ] {
        let net = fabric.net();
        let mut r = rng(12);
        let mut sliced = SlicedFailureMask::new();
        FailureModel::symmetric(0.02).sample_sliced_into(&mut r, net.num_edges(), &mut sliced);
        let mut alive = Vec::new();
        fabric.alive_words_into(&sliced, &mut alive);
        let mut sources: Vec<(VertexId, u64)> = Vec::with_capacity(LANES);
        for lane in 0..LANES {
            let src = net.inputs()[r.random_range(0..fabric.terminals())];
            match sources.iter_mut().find(|(v, _)| *v == src) {
                Some((_, lanes)) => *lanes |= 1 << lane,
                None => sources.push((src, 1 << lane)),
            }
        }
        let mut sws = SlicedWorkspace::new();
        c.bench_function(name, |b| {
            b.iter(|| {
                sliced_reach_into(
                    net.csr(),
                    &sources,
                    Direction::Forward,
                    |_| !0,
                    |v| alive[v.index()],
                    &mut sws,
                );
                black_box(sws.reached_lanes(net.outputs()[0]))
            })
        });
    }
}

fn bench_disjoint_paths(c: &mut Criterion) {
    let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
    let inputs = ftn.net().inputs().to_vec();
    let outputs = ftn.net().outputs().to_vec();
    c.bench_function("menger_ftn_nu1_full", |b| {
        b.iter(|| black_box(max_disjoint_paths(ftn.net().graph(), &inputs, &outputs)))
    });
}

fn bench_dinic_random_dag(c: &mut Criterion) {
    let mut r = rng(7);
    let g = random_dag(&mut r, 2000, 10_000);
    let sources: Vec<_> = g.vertices().take(20).collect();
    let nv = g.num_vertices();
    let sinks: Vec<_> = g.vertices().skip(nv - 20).collect();
    c.bench_function("menger_random_dag_2k_10k", |b| {
        b.iter(|| black_box(max_disjoint_paths(&g, &sources, &sinks)))
    });
}

/// The §4 repair-check workload — a full input→output vertex-disjoint
/// path count on the ν = 2 fault-tolerant network under a deterministic
/// ~10% switch outage.
fn bench_repair_dinic(c: &mut Criterion) {
    let ftn = FtNetwork::build(Params::reduced(2, 8, 8, 1.0));
    let net = ftn.net();
    let inputs = net.inputs().to_vec();
    let outputs = net.outputs().to_vec();
    let mut r = rng(11);
    let alive: Vec<bool> = (0..net.graph().num_vertices())
        .map(|_| r.random_bool(0.9))
        .collect();
    let mut fw = FlowWorkspace::new();
    c.bench_function("dinic_repair_nu2", |b| {
        b.iter(|| {
            black_box(
                vertex_disjoint_paths_into(
                    net.graph(),
                    &inputs,
                    &outputs,
                    |_| true,
                    |v| alive[v.index()],
                    DisjointOptions {
                        count_only: true,
                        ..DisjointOptions::default()
                    },
                    &mut fw,
                )
                .count,
            )
        })
    });
}

fn bench_matching(c: &mut Criterion) {
    let mut r = rng(8);
    let adj = random_bipartite_adjacency(&mut r, 1000, 1000, 8);
    c.bench_function("hopcroft_karp_1000x1000_d8", |b| {
        b.iter(|| black_box(hopcroft_karp(&adj, 1000)))
    });
}

criterion_group!(
    benches,
    bench_bfs_reused,
    bench_sliced_reach_pairs,
    bench_disjoint_paths,
    bench_dinic_random_dag,
    bench_repair_dinic,
    bench_matching
);
criterion_main!(benches);
