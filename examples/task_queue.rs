//! Task queue on a faulty superconcentrator.
//!
//! §2 notes that "superconcentrators provide support for the task
//! queue scheme [Co] in parallel computing": any r idle workers must
//! be connectable to any r pending task slots by vertex-disjoint
//! circuits — exactly the n-superconcentrator property, which 𝒩
//! retains under switch failures (an (ε, δ)-nonblocking network is an
//! (ε, δ)-superconcentrator).
//!
//! This example verifies the superconcentrator property of the
//! repaired survivor by max-flow (Menger), for every r and for random
//! subsets, then runs a task-queue simulation: tasks arrive, idle
//! workers claim them through the fabric, circuits tear down on
//! completion.
//!
//! Run with: `cargo run --release --example task_queue`

use fault_tolerant_switching::core::network::FtNetwork;
use fault_tolerant_switching::core::params::Params;
use fault_tolerant_switching::core::repair::Survivor;
use fault_tolerant_switching::core::routing;
use fault_tolerant_switching::failure::{FailureInstance, FailureModel};
use fault_tolerant_switching::graph::gen::rng;
use fault_tolerant_switching::graph::menger::max_disjoint_paths;
use fault_tolerant_switching::graph::{Csr, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

/// The survivor as a standalone graph (dead links dropped) for the
/// max-flow verification.
fn survivor_graph(ftn: &FtNetwork, alive: &[bool]) -> Csr {
    let g = ftn.net().graph();
    let kept = g
        .edges()
        .filter(|&(_, t, h)| alive[t.index()] && alive[h.index()]);
    Csr::from_edges(g.num_vertices(), kept.map(|(_, t, h)| (t, h)).collect())
}

fn main() {
    let ftn = FtNetwork::build(Params::reduced(2, 16, 10, 4.0));
    let n = ftn.n();
    let eps = 1e-3;
    let model = FailureModel::symmetric(eps);
    let mut r = rng(2024);
    let inst = FailureInstance::sample(&model, &mut r, ftn.net().size());
    let survivor = Survivor::new(&ftn, &inst);
    let alive = survivor.routable_alive();
    println!(
        "fabric: {} workers x {} task slots, {} switches, eps = {eps}, {} links discarded",
        n,
        n,
        ftn.net().size(),
        survivor.discarded
    );

    // 1. Superconcentrator verification on the survivor: every set of
    //    r workers can reach every set of r slots disjointly. Exact
    //    max-flow for the full terminal sets, sampled subsets for each r.
    let sg = survivor_graph(&ftn, &alive);
    let inputs: Vec<VertexId> = ftn.net().inputs().to_vec();
    let outputs: Vec<VertexId> = ftn.net().outputs().to_vec();
    let full = max_disjoint_paths(&sg, &inputs, &outputs);
    println!("\nmax vertex-disjoint worker->slot paths on survivor: {full}/{n}");
    let mut all_ok = true;
    for r_size in 1..=n {
        for _ in 0..10 {
            let mut ins = inputs.clone();
            let mut outs = outputs.clone();
            ins.shuffle(&mut r);
            outs.shuffle(&mut r);
            let flow = max_disjoint_paths(&sg, &ins[..r_size], &outs[..r_size]);
            if flow as usize != r_size {
                all_ok = false;
                println!("  r = {r_size}: only {flow} disjoint paths!");
            }
        }
    }
    println!(
        "superconcentrator property over sampled subsets (10 per r): {}",
        if all_ok { "HOLDS" } else { "VIOLATED" }
    );

    // 2. Task-queue simulation: Poisson-ish arrivals, workers claim
    //    tasks through the fabric, circuits complete after a few steps.
    let mut router = routing::survivor_router(&survivor);
    let mut queue: Vec<usize> = Vec::new(); // pending task slots
    let mut running: Vec<(fault_tolerant_switching::networks::SessionId, usize)> = Vec::new();
    let mut next_slot = 0usize;
    let mut claimed = 0usize;
    let mut stalled = 0usize;
    for _step in 0..2000 {
        // arrivals
        if r.random_bool(0.5) {
            queue.push(next_slot % n);
            next_slot += 1;
        }
        // completions
        if !running.is_empty() && r.random_bool(0.4) {
            let k = r.random_range(0..running.len());
            let (id, _) = running.swap_remove(k);
            router.disconnect(id);
        }
        // idle workers claim pending tasks
        while let Some(&slot) = queue.first() {
            let out = ftn.output(slot);
            if !router.is_idle(out) {
                break; // slot busy — task waits
            }
            let worker = (0..n).find(|&w| router.is_idle(ftn.input(w)));
            let Some(w) = worker else { break };
            match router.connect(ftn.input(w), out) {
                Ok(id) => {
                    queue.remove(0);
                    running.push((id, slot));
                    claimed += 1;
                }
                Err(_) => {
                    stalled += 1;
                    break;
                }
            }
        }
    }
    println!(
        "\ntask-queue simulation: {claimed} tasks claimed, {stalled} fabric stalls, {} still running, {} queued",
        running.len(),
        queue.len()
    );
    println!(
        "\na fabric stall (idle worker + pending slot but no idle path)\n\
         would contradict the nonblocking containment of Theorem 2;\n\
         the superconcentrator check above is the [AHU]/[Co] property\n\
         the paper's Section 2 defines, verified by Menger max-flow."
    );
}
