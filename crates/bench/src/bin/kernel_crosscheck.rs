//! CI smoke: flow-kernel portfolio cross-check.
//!
//! Two guarantees, checked over the committed fabric families:
//!
//! 1. **Kernel agreement** — Dinic and FIFO push-relabel return the same
//!    vertex-disjoint-path count on every fabric, on the full
//!    input→output cut and under deterministic random idle masks. The
//!    portfolio is the oracle: both kernels must agree.
//! 2. **Mincost-reroute determinism** — a storm scenario with
//!    `reroute = mincost` produces byte-identical per-seed event
//!    streams (event counts and FNV fingerprints) on 1 and 4 worker
//!    threads, same as the greedy path the determinism goldens pin.
//!
//! Exits nonzero (assert) on any mismatch.

use ft_graph::maxflow::{vertex_disjoint_paths_into, DisjointOptions, FlowKernel, FlowWorkspace};
use ft_sim::{
    run_sweep, Fabric, FaultSpec, HoldingTime, RerouteMode, RetryPolicy, SimConfig, TrafficPattern,
};
use rand::Rng;

fn fabrics() -> Vec<Fabric> {
    vec![
        Fabric::crossbar(4),
        Fabric::clos_strict(2, 3),
        Fabric::clos_rearrangeable(2, 2),
        Fabric::benes(3),
        Fabric::multibutterfly(3, 2, 7),
        Fabric::ftn_reduced(1, 8, 4, 1.0),
    ]
}

fn main() {
    // 1. kernel agreement per fabric family
    let mut fw = FlowWorkspace::new();
    for fabric in fabrics() {
        let net = fabric.net();
        let mut rng = ft_graph::gen::rng(41);
        // full cut first, then deterministic random idle masks
        let masks: Vec<Vec<bool>> = std::iter::once(vec![true; net.graph().num_vertices()])
            .chain((0..8).map(|_| {
                (0..net.graph().num_vertices())
                    .map(|_| rng.random_bool(0.8))
                    .collect()
            }))
            .collect();
        for (i, idle) in masks.iter().enumerate() {
            let count = |kernel: FlowKernel, fw: &mut FlowWorkspace| {
                vertex_disjoint_paths_into(
                    net.graph(),
                    net.inputs(),
                    net.outputs(),
                    |_| true,
                    |v| idle[v.index()],
                    DisjointOptions {
                        count_only: true,
                        limit: None,
                        kernel,
                    },
                    fw,
                )
                .count
            };
            let dinic = count(FlowKernel::Dinic, &mut fw);
            let pr = count(FlowKernel::PushRelabel, &mut fw);
            assert_eq!(
                dinic,
                pr,
                "{}: Dinic {dinic} != push-relabel {pr} (mask {i})",
                fabric.label()
            );
        }
        println!("kernel agreement {}: {} masks", fabric.label(), masks.len());
    }

    // 2. mincost reroute streams are thread-count invariant
    let cfg = SimConfig {
        arrival_rate: 4.0,
        holding: HoldingTime::Exponential { mean: 0.8 },
        pattern: TrafficPattern::Uniform,
        fault_rate: 0.0,
        fault_open_share: 0.5,
        faults: FaultSpec::Storm {
            rate: 0.06,
            window: 2.0,
            stage: None,
        },
        retry: RetryPolicy::OnRepair,
        reroute: RerouteMode::Mincost,
        mttr: 8.0,
        duration: 120.0,
        warmup: 0.0,
        buckets: 4,
    };
    let seeds: Vec<u64> = (1..=6).collect();
    for fabric in [Fabric::clos_strict(2, 3), Fabric::benes(3)] {
        let one = run_sweep(&fabric, &cfg, &seeds, 1);
        let four = run_sweep(&fabric, &cfg, &seeds, 4);
        assert_eq!(one.len(), four.len());
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(
                (a.events, a.fingerprint),
                (b.events, b.fingerprint),
                "{} seed {}: mincost stream diverged across thread counts",
                fabric.label(),
                a.seed
            );
        }
        let moved: u64 = one.iter().map(|o| o.metrics.moved).sum();
        let rerouted: u64 = one.iter().map(|o| o.metrics.rerouted).sum();
        assert!(
            rerouted > 0,
            "{}: storm scenario produced no reroutes — smoke has no teeth",
            fabric.label()
        );
        println!(
            "mincost determinism {}: {} seeds, {} rerouted / {} moved, 1 == 4 threads",
            fabric.label(),
            seeds.len(),
            rerouted,
            moved
        );
    }

    println!("kernel_crosscheck: portfolio agreement and mincost determinism hold");
}
