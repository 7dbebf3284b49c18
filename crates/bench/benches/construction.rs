//! Construction throughput: building 𝒩 (reduced profiles and the
//! paper's own ν = 1 constants), the recursive network, and the classical
//! baselines. Every iteration ends with `net.csr()`, so what is timed is
//! a network a kernel can traverse — at a parent that froze the CSR
//! lazily the same bench includes the freeze.
//!
//! Two rungs take `build_ftn/nu2` apart: `csr_from_edges/ftn_nu2` is
//! the CSR's checking fold and offsets scan over its tail-ordered edge
//! list (the clone of the list it consumes, a 155 KB copy, and its split
//! into two columns are inside the timing; `StagedBuilder::finish` hands
//! its columns over with neither), and `validate/ftn_nu2` is the staging
//! check `finish` runs on it. What is left of `build_ftn/nu2` is the
//! wiring itself.
//!
//! `csr_in_lists/ftn_nu2` times what the build does not do: the first
//! in-list read on a `Csr` that has not sorted its in-lists, which sorts
//! them all. Each iteration reads a fresh clone of the built `Csr`; the
//! clone (its two edge columns and offsets, ≈ 0.17 MB copied) and its
//! drop are inside the timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ft_core::network::FtNetwork;
use ft_core::params::Params;
use ft_core::recursive::{RecursiveNet, RecursiveParams};
use ft_graph::{Csr, VertexId};
use ft_networks::{Benes, Clos};
use std::hint::black_box;

fn bench_build_ftn(c: &mut Criterion) {
    let mut g = c.benchmark_group("build_ftn");
    let reduced = [1u32, 2, 3].map(|nu| (format!("nu{nu}"), Params::reduced(nu, 8, 8, 1.0)));
    let paper = [("paper_nu1".to_string(), Params::paper_exact(1))];
    for (name, p) in reduced.into_iter().chain(paper) {
        g.bench_with_input(BenchmarkId::from_parameter(name), &p, |b, p| {
            b.iter(|| {
                let f = FtNetwork::build(*p);
                black_box(f.csr().num_edges());
                f
            })
        });
    }
    g.finish();
}

fn bench_build_parts(c: &mut Criterion) {
    let f = FtNetwork::build(Params::reduced(2, 8, 8, 1.0));
    let csr = f.csr();
    let n = csr.num_vertices();
    let edges: Vec<(VertexId, VertexId)> = csr.edges().map(|(_, t, h)| (t, h)).collect();
    c.bench_function("csr_from_edges/ftn_nu2", |b| {
        b.iter(|| Csr::from_edges(n, black_box(edges.clone())))
    });
    c.bench_function("validate/ftn_nu2", |b| {
        b.iter(|| black_box(f.net()).validate())
    });
    assert!(!csr.in_lists_built(), "the build sorted the in-lists");
    c.bench_function("csr_in_lists/ftn_nu2", |b| {
        b.iter(|| {
            let fresh = csr.clone();
            black_box(fresh.in_edges(VertexId(0)).len());
            fresh
        })
    });
}

fn bench_build_recursive(c: &mut Criterion) {
    let mut g = c.benchmark_group("build_recursive");
    for h in [2u32, 3] {
        let p = RecursiveParams::reduced(h, 4, 8);
        g.bench_with_input(BenchmarkId::from_parameter(format!("h{h}")), &p, |b, p| {
            b.iter(|| {
                let r = RecursiveNet::build(*p);
                black_box(r.net.csr().num_edges());
                r
            })
        });
    }
    g.finish();
}

fn bench_build_baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("build_baselines");
    for k in [6u32, 10] {
        g.bench_function(format!("benes_k{k}"), |b| {
            b.iter(|| {
                let net = Benes::new(k).net;
                black_box(net.csr().num_edges());
                net
            })
        });
    }
    g.bench_function("clos_8x8", |b| {
        b.iter(|| {
            let net = Clos::strictly_nonblocking(8, 8).net;
            black_box(net.csr().num_edges());
            net
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_build_ftn,
    bench_build_parts,
    bench_build_recursive,
    bench_build_baselines
);
criterion_main!(benches);
