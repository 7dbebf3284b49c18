//! Routing kernels behind §4's "routing is cheap": greedy permutation
//! routing on 𝒩, the looping algorithm on Beneš, and churn steps.

use criterion::{criterion_group, criterion_main, Criterion};
use ft_core::network::FtNetwork;
use ft_core::params::Params;
use ft_core::repair::Survivor;
use ft_core::routing;
use ft_failure::{FailureInstance, FailureModel};
use ft_graph::gen::{random_permutation, rng};
use ft_graph::Digraph;
use ft_networks::{Benes, CircuitRouter};
use rand::Rng;
use std::hint::black_box;

fn bench_greedy_perm(c: &mut Criterion) {
    let ftn = FtNetwork::build(Params::reduced(2, 8, 8, 1.0));
    let mut r = rng(1);
    c.bench_function("greedy_perm_ftn_nu2", |b| {
        b.iter(|| {
            let perm = random_permutation(&mut r, ftn.n());
            let mut router = CircuitRouter::new(ftn.net());
            black_box(routing::route_permutation(&mut router, &ftn, &perm))
        })
    });
}

fn bench_greedy_perm_on_survivor(c: &mut Criterion) {
    let ftn = FtNetwork::build(Params::reduced(2, 8, 8, 1.0));
    let model = FailureModel::symmetric(1e-3);
    let mut r = rng(2);
    let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
    let survivor = Survivor::new(&ftn, &inst);
    c.bench_function("greedy_perm_survivor_nu2_eps1e-3", |b| {
        b.iter(|| {
            let perm = random_permutation(&mut r, ftn.n());
            let mut router = routing::survivor_router(&survivor);
            black_box(routing::route_permutation(&mut router, &ftn, &perm))
        })
    });
}

fn bench_looping(c: &mut Criterion) {
    let benes = Benes::new(6); // 64 terminals
    let mut r = rng(3);
    c.bench_function("benes_looping_n64", |b| {
        b.iter(|| {
            let perm = random_permutation(&mut r, 64);
            black_box(benes.route_permutation(&perm))
        })
    });
}

/// Pure `connect`/`disconnect` cost: one router reused, alternating
/// terminal pairs — isolates the route search (plus path claim/release)
/// from the simulation engine around it. Once on the benchmark's ν = 2
/// network (19,424 switches, paths of 8) and once on the paper's own
/// ν = 1 network (360,448 switches, paths of 4), where a flooding
/// search scanned 4,101 vertices per connect.
fn bench_connect_only(c: &mut Criterion) {
    for (name, params) in [
        ("router_connect_pair_ftn_nu2", Params::reduced(2, 8, 8, 1.0)),
        ("router_connect_pair_ftn_paper_nu1", Params::paper_exact(1)),
    ] {
        let ftn = FtNetwork::build(params);
        let mut router = CircuitRouter::new(ftn.net());
        let n = ftn.n();
        let mut k = 0usize;
        c.bench_function(name, |b| {
            b.iter(|| {
                k = (k + 1) % n;
                let id = router
                    .connect(ftn.input(k), ftn.output((k + 1) % n))
                    .expect("idle fabric cannot block");
                black_box(&id);
                router.disconnect(id)
            })
        });
    }
}

/// The same pair loop with a seeded 30 % of the inner vertices taken
/// out (dead and busy look alike to the search): the regime where the
/// descent has to step over unusable successors and back out of dead
/// ends.
fn bench_connect_half_busy(c: &mut Criterion) {
    let ftn = FtNetwork::build(Params::reduced(2, 8, 8, 1.0));
    let net = ftn.net();
    let mut r = rng(5);
    let usable: Vec<bool> = net
        .terminal_mask()
        .iter()
        .map(|&terminal| terminal || !r.random_bool(0.3))
        .collect();
    let mut router = CircuitRouter::with_alive_mask(net, usable);
    let n = ftn.n();
    let mut k = 0usize;
    c.bench_function("router_connect_pair_ftn_nu2_half_busy", |b| {
        b.iter(|| {
            k = (k + 1) % n;
            // a blocked pair is a search too: it exhausts the source's side
            match black_box(router.connect(ftn.input(k), ftn.output((k + 1) % n))) {
                Ok(id) => router.disconnect(id),
                Err(_) => false,
            }
        })
    });
}

fn bench_churn(c: &mut Criterion) {
    let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
    let mut r = rng(4);
    c.bench_function("churn_100_steps_nu1", |b| {
        b.iter(|| {
            let mut router = CircuitRouter::new(ftn.net());
            black_box(routing::churn(&mut router, &ftn, 100, 0.6, &mut r))
        })
    });
}

criterion_group!(
    benches,
    bench_greedy_perm,
    bench_greedy_perm_on_survivor,
    bench_looping,
    bench_connect_only,
    bench_connect_half_busy,
    bench_churn
);
criterion_main!(benches);
