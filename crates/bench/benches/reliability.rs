//! Reliability kernels: exact series-parallel failure calculus vs
//! Monte Carlo, 1-network construction, hammock bounds.

use criterion::{criterion_group, criterion_main, Criterion};
use ft_failure::onenet::construct_onenet;
use ft_failure::reliability::{bridge, Connectivity};
use ft_failure::sp::SpNetwork;
use ft_failure::{FailureModel, Hammock};
use std::hint::black_box;

fn bench_sp_exact(c: &mut Criterion) {
    let model = FailureModel::symmetric(0.05);
    let net = SpNetwork::ladder(8, 32);
    c.bench_function("sp_exact_ladder_8x32", |b| {
        b.iter(|| black_box(net.failure_probs(&model)))
    });
}

fn bench_exact_enumeration(c: &mut Criterion) {
    let model = FailureModel::symmetric(0.1);
    let net = bridge();
    c.bench_function("exact_enum_bridge", |b| {
        b.iter(|| black_box(net.exact_failure_probs(&model, Connectivity::Undirected)))
    });
}

fn bench_mc_reliability(c: &mut Criterion) {
    let model = FailureModel::symmetric(0.1);
    let net = bridge();
    // scalar reference path: per-trial sampling + BFS/UnionFind, the
    // pre-bit-slicing pipeline kept as the equivalence baseline
    c.bench_function("mc_bridge_10k", |b| {
        b.iter(|| {
            black_box(net.mc_failure_probs_scalar(&model, Connectivity::Undirected, 10_000, 5))
        })
    });
    // bit-sliced successor at the identical trial count and seed: 64
    // trials per word through the lane-parallel reachability kernel
    c.bench_function("mc_bridge_10k_sliced", |b| {
        b.iter(|| black_box(net.mc_failure_probs(&model, Connectivity::Undirected, 10_000, 5)))
    });
}

fn bench_onenet_construction(c: &mut Criterion) {
    c.bench_function("construct_onenet_0.1_1e-4", |b| {
        b.iter(|| black_box(construct_onenet(0.1, 1e-4)))
    });
}

fn bench_hammock_bounds(c: &mut Criterion) {
    let model = FailureModel::symmetric(0.01);
    let h = Hammock::new(64, 16);
    // Both inputs go through `black_box`: the bounds are a closed form,
    // so with constant inputs the optimiser folds them away and the row
    // times nothing.
    c.bench_function("hammock_bounds_64x16", |b| {
        b.iter(|| black_box(black_box(&h).bounds(black_box(&model))))
    });
}

criterion_group!(
    benches,
    bench_sp_exact,
    bench_exact_enumeration,
    bench_mc_reliability,
    bench_onenet_construction,
    bench_hammock_bounds
);
criterion_main!(benches);
