//! Failure-model kernels: instance sampling (sparse geometric-gap vs
//! dense), repair, the sliced pair-blocking estimator, contraction, and
//! certification throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ft_core::certify::certify_with_budget;
use ft_core::network::FtNetwork;
use ft_core::params::Params;
use ft_core::repair::Survivor;
use ft_failure::contraction::contract;
use ft_failure::{FailureInstance, FailureModel, SlicedFailureMask};
use ft_graph::gen::rng;
use ft_graph::Digraph;
use ft_sim::{pair_blocking_estimate, FabricSpec};
use std::hint::black_box;

fn bench_sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("sample_instance_1M_edges");
    let mut r = rng(1);
    for &eps in &[1e-6, 1e-3, 0.2] {
        let model = FailureModel::symmetric(eps);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("eps{eps}")),
            &model,
            |b, m| {
                let mut inst = FailureInstance::perfect(1_000_000);
                b.iter(|| {
                    inst.resample(m, &mut r, 1_000_000);
                    black_box(inst.len())
                })
            },
        );
    }
    g.finish();
}

fn bench_sliced_sampling(c: &mut Criterion) {
    // one 64-lane block over 1M switches per iteration — divide by 64
    // to compare per-trial against sample_instance_1M_edges
    let mut g = c.benchmark_group("sample_sliced_1M_edges");
    let mut r = rng(1);
    for &eps in &[1e-6, 1e-3, 0.2] {
        let model = FailureModel::symmetric(eps);
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("eps{eps}")),
            &model,
            |b, m| {
                let mut sliced = SlicedFailureMask::new();
                b.iter(|| {
                    m.sample_sliced_into(&mut r, 1_000_000, &mut sliced);
                    black_box(sliced.len())
                })
            },
        );
    }
    g.finish();
}

fn bench_repair(c: &mut Criterion) {
    let ftn = FtNetwork::build(Params::reduced(2, 8, 8, 1.0));
    let model = FailureModel::symmetric(1e-3);
    let mut r = rng(2);
    let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
    c.bench_function("repair_nu2", |b| {
        b.iter(|| black_box(Survivor::new(&ftn, &inst).discarded))
    });
}

fn bench_pair_blocking(c: &mut Criterion) {
    // 32 sliced blocks of sample → §4 repair → reach on 𝒩 ν = 2: the
    // estimator behind every ftexp cell's `static_p` column
    let fabric = FabricSpec::Ftn(2, 8, 8, 1.0).build();
    let model = FailureModel::symmetric(0.02);
    c.bench_function("pair_blocking_ftn_nu2", |b| {
        b.iter(|| black_box(pair_blocking_estimate(&fabric, &model, 2048, 7)))
    });
}

fn bench_certify(c: &mut Criterion) {
    let ftn = FtNetwork::build(Params::reduced(2, 8, 8, 1.0));
    let model = FailureModel::symmetric(1e-3);
    let mut r = rng(3);
    let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
    c.bench_function("certify_nu2", |b| {
        b.iter(|| black_box(certify_with_budget(&ftn, &inst, 0.1)))
    });
}

fn bench_contraction(c: &mut Criterion) {
    let ftn = FtNetwork::build(Params::reduced(2, 8, 8, 1.0));
    let model = FailureModel::symmetric(0.05);
    let mut r = rng(4);
    let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
    c.bench_function("contract_nu2_eps5e-2", |b| {
        b.iter(|| black_box(contract(ftn.net().graph(), &inst).graph.num_edges()))
    });
}

criterion_group!(
    benches,
    bench_sampling,
    bench_sliced_sampling,
    bench_repair,
    bench_pair_blocking,
    bench_certify,
    bench_contraction
);
criterion_main!(benches);
