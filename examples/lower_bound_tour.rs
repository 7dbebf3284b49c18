//! A tour of the §5 lower-bound machinery: why Θ(n log n) networks
//! cannot be fault-tolerant.
//!
//! Theorem 1's proof is constructive, and this library implements each
//! step as a runnable algorithm. The tour executes them on a Beneš
//! network (the optimal fault-free rearrangeable network) and on 𝒩,
//! showing the structural dichotomy the theorem formalizes:
//!
//! 1. Lemma 1 — extract edge-disjoint short leaf paths from a tree;
//! 2. Lemma 2 — build the proximity forest over a network's inputs and
//!    pull out short input-to-input paths (shorting targets);
//! 3. Theorem 1 — audit good inputs and their distance zones `B_h(v)`.
//!
//! Run with: `cargo run --release --example lower_bound_tour`

use fault_tolerant_switching::core::lowerbound::{
    lemma1_short_paths, short_terminal_paths, zone_audit_with,
};
use fault_tolerant_switching::core::network::FtNetwork;
use fault_tolerant_switching::core::params::Params;
use fault_tolerant_switching::core::theory;
use fault_tolerant_switching::failure::contraction::terminals_shorted;
use fault_tolerant_switching::failure::{FailureInstance, FailureModel};
use fault_tolerant_switching::graph::gen::{random_lemma1_tree, rng};
use fault_tolerant_switching::networks::Benes;

fn main() {
    // ── Step 1: Lemma 1 on a random tree ─────────────────────────────
    println!("Step 1 — Lemma 1: short edge-disjoint leaf paths\n");
    let mut r = rng(0x70);
    let tree = random_lemma1_tree(&mut r, 200);
    let l1 = lemma1_short_paths(&tree);
    println!(
        "  random tree: {} leaves, {} good, {} paths (ratio {:.3}; paper guarantees {:.4})",
        l1.num_leaves,
        l1.good_leaves,
        l1.paths.len(),
        l1.ratio(),
        1.0 / 42.0
    );
    assert!(l1.meets_l_over_42());

    // ── Step 2: Lemma 2 on a Beneš ───────────────────────────────────
    println!("\nStep 2 — Lemma 2: the Benes' inputs are dangerously close\n");
    let benes = Benes::new(5); // 32 terminals
    let n = benes.terminals();
    let l2 = short_terminal_paths(benes.net.graph(), benes.net.inputs(), 4);
    println!(
        "  benes({n}): {} edge-disjoint input-to-input paths, longest {} switches",
        l2.paths.len(),
        l2.max_len
    );
    println!("  if any path closes entirely, two inputs short; at eps2 = 1/4:");
    let bound = theory::lemma2_no_short_probability(l2.paths.len(), l2.max_len.max(1), 0.25);
    println!("    P[no short via these paths] <= {bound:.4}");
    // measure it
    let model = FailureModel::new(0.0, 0.25);
    let m = benes.net.graph().num_edges();
    let mut shorted = 0;
    for _ in 0..400 {
        let inst = FailureInstance::sample(&model, &mut r, m);
        if terminals_shorted(benes.net.graph(), &inst, benes.net.inputs()) {
            shorted += 1;
        }
    }
    println!(
        "    measured P[short] = {:.3} over 400 trials (Lemma 2 needs >= 1/2)",
        shorted as f64 / 400.0
    );

    // ── Step 3: Theorem 1 zone audit ─────────────────────────────────
    println!("\nStep 3 — Theorem 1: the zone audit\n");
    let ftn = FtNetwork::build(Params::reduced(2, 8, 8, 1.0));
    for (name, net) in [("benes(32)", &benes.net), ("N (nu=2 reduced)", ftn.net())] {
        let audit = zone_audit_with(net.graph(), net.inputs(), 4, 2);
        println!(
            "  {name}: {} switches, {} of {} inputs good, min zone {:?}, disjoint balls {} switches",
            net.size(),
            audit.good_terminals,
            audit.n,
            audit.min_zone_edges,
            audit.ball_edges_total
        );
    }
    println!(
        "\n  the Benes has NO good inputs -- no input is more than 2 switches\n\
         from another -- so Theorem 1's zone argument shows it cannot be a\n\
         (1/4, 1/2)-superconcentrator. N pays Theta(log n) switches per zone\n\
         around every input (its grids) and Theta(log n) zones deep: the\n\
         n log^2 n switches Theorem 1 proves are NECESSARY, and Theorem 2's\n\
         construction shows are SUFFICIENT."
    );
    println!(
        "\n  theorem 1 lower bounds at n = 1024: size >= {:.0}, depth >= {:.1}",
        theory::theorem1_size_lower_bound(1024),
        theory::theorem1_depth_lower_bound(1024)
    );
}
