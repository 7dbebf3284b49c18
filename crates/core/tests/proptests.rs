//! Property-based tests for the ft-core invariants.

use ft_core::access::{access_set, grid_access_count, AccessDir};
use ft_core::certify::{certify_with_budget, expander_fault_audit};
use ft_core::lowerbound::lemma1_short_paths;
use ft_core::network::{FtNetwork, Side};
use ft_core::params::Params;
use ft_core::repair::Survivor;
use ft_core::routing;
use ft_core::theory;
use ft_failure::{FailureInstance, FailureModel};
use ft_graph::gen::{random_lemma1_tree, rng};
use ft_graph::tree::leaves;
use ft_graph::Digraph;
use ft_networks::CircuitRouter;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lemma 1's guarantee on arbitrary random trees: ≥ l/42 paths,
    /// all edge-disjoint, all of length ≤ 3.
    #[test]
    fn lemma1_bound_and_disjointness(seed in 0u64..5000, target in 4usize..200) {
        let mut r = rng(seed);
        let tree = random_lemma1_tree(&mut r, target);
        let l = leaves(&tree).len();
        let res = lemma1_short_paths(&tree);
        prop_assert_eq!(res.num_leaves, l);
        prop_assert!(res.meets_l_over_42());
        let mut used = std::collections::HashSet::new();
        for p in &res.paths {
            prop_assert!(!p.edges.is_empty() && p.edges.len() <= 3);
            prop_assert_ne!(p.ends.0, p.ends.1);
            for &e in &p.edges {
                prop_assert!(used.insert(e), "edge reused");
            }
        }
    }

    /// The census formulas predict the built size exactly, for any
    /// profile in the supported range.
    #[test]
    fn census_formula_exact(nu in 1u32..3, width_exp in 1u32..4, degree in 1usize..7) {
        let width = 2usize << width_exp; // 4..16, even
        let p = Params::reduced(nu, width, degree, 1.0);
        let ftn = FtNetwork::build(p);
        prop_assert_eq!(ftn.net().size(), p.predicted_size());
        prop_assert_eq!(ftn.census().total(), p.predicted_size());
        prop_assert_eq!(ftn.net().depth(), 4 * nu);
        prop_assert!(ftn.net().validate().is_ok());
    }

    /// Repair invariant: every switch between routable-alive vertices
    /// is in the normal state, for arbitrary ε and seed.
    #[test]
    fn repair_invariant(seed in 0u64..10_000, eps_mil in 0u32..300_000) {
        let eps = eps_mil as f64 / 1_000_000.0; // 0 .. 0.3
        let ftn = FtNetwork::build(Params::reduced(1, 8, 4, 1.0));
        let model = FailureModel::symmetric(eps);
        let mut r = rng(seed);
        let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
        let s = Survivor::new(&ftn, &inst);
        prop_assert!(s.invariant_holds(&inst));
        // terminals always alive
        for j in 0..ftn.n() {
            prop_assert!(s.is_alive(ftn.input(j)));
            prop_assert!(s.is_alive(ftn.output(j)));
        }
    }

    /// Access is monotone: killing extra vertices never increases the
    /// grid access count.
    #[test]
    fn grid_access_monotone(seed in 0u64..5000, kills in 1usize..30) {
        let ftn = FtNetwork::build(Params::reduced(1, 8, 4, 1.0));
        let mut r = rng(seed);
        let model = FailureModel::symmetric(0.01);
        let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
        let s = Survivor::new(&ftn, &inst);
        let mut alive = s.routable_alive();
        let before = grid_access_count(&ftn, &alive, Side::Input, 0);
        // kill `kills` random grid vertices of grid 0
        use rand::Rng;
        for _ in 0..kills {
            let row = r.random_range(0..ftn.rows());
            alive[ftn.grid_vertex(Side::Input, 0, row, 0).index()] = false;
        }
        let after = grid_access_count(&ftn, &alive, Side::Input, 0);
        prop_assert!(after <= before, "access grew: {before} -> {after}");
    }

    /// Certification budgets are monotone: passing a tight budget
    /// implies passing any looser one.
    #[test]
    fn budget_monotonicity(seed in 0u64..5000) {
        let ftn = FtNetwork::build(Params::reduced(1, 8, 4, 1.0));
        let model = FailureModel::symmetric(0.005);
        let mut r = rng(seed);
        let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
        let tight = certify_with_budget(&ftn, &inst, 0.02);
        let loose = certify_with_budget(&ftn, &inst, 0.2);
        if tight.expander_budget_ok {
            prop_assert!(loose.expander_budget_ok);
        }
        // non-budget fields agree (they don't depend on the budget)
        prop_assert_eq!(tight.terminals_distinct, loose.terminals_distinct);
        prop_assert_eq!(tight.grids_majority, loose.grids_majority);
    }

    /// The fault-free network routes every random permutation greedily.
    #[test]
    fn fault_free_routes_all_perms(seed in 0u64..10_000) {
        let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
        let mut r = rng(seed);
        let perm = routing::random_perm(&mut r, ftn.n());
        let mut router = CircuitRouter::new(ftn.net());
        let (stats, sessions) = routing::route_permutation(&mut router, &ftn, &perm);
        prop_assert!(stats.all_connected(), "{:?}", stats);
        prop_assert!(routing::sessions_disjoint(&router, &sessions));
        // disconnect everything: the network must be reusable
        for id in sessions {
            router.disconnect(id);
        }
        let perm2 = routing::random_perm(&mut r, ftn.n());
        let (stats2, _) = routing::route_permutation(&mut router, &ftn, &perm2);
        prop_assert!(stats2.all_connected());
    }

    /// Theory bounds are probabilities, and monotone in ε.
    #[test]
    fn theory_bounds_sane(nu in 1u32..5, eps_a in 1u32..1000u32, eps_b in 1u32..1000u32) {
        let p = Params::paper_exact(nu);
        let (lo, hi) = if eps_a <= eps_b { (eps_a, eps_b) } else { (eps_b, eps_a) };
        let (lo, hi) = (lo as f64 * 1e-6, hi as f64 * 1e-6);
        for f in [theory::lemma3_grid_failure_bound,
                  theory::lemma5_family_bound,
                  theory::lemma6_majority_failure_bound,
                  theory::lemma7_shorting_bound,
                  theory::theorem2_failure_bound] {
            let a = f(&p, lo);
            let b = f(&p, hi);
            prop_assert!((0.0..=1.0).contains(&a));
            prop_assert!((0.0..=1.0).contains(&b));
            prop_assert!(a <= b + 1e-12, "bound not monotone: {a} > {b}");
        }
    }

    /// The fault audit counts what it is told to count.
    #[test]
    fn fault_audit_counts(dead in 0usize..32) {
        let ftn = FtNetwork::build(Params::reduced(1, 8, 4, 1.0));
        let mut alive = vec![true; ftn.net().num_vertices()];
        let range = ftn.middle_group_range(1, 0);
        let size = range.len();
        for i in range.clone().take(dead) {
            alive[i as usize] = false;
        }
        let frac = dead as f64 / size as f64;
        let (ok_tight, max_frac) = expander_fault_audit(&ftn, &alive, frac - 1e-9);
        let (ok_loose, _) = expander_fault_audit(&ftn, &alive, frac + 1e-9);
        prop_assert!((max_frac - frac).abs() < 1e-9);
        prop_assert!(ok_loose);
        if dead > 0 {
            prop_assert!(!ok_tight);
        }
    }

    /// Forward and backward access are symmetric on the mirror
    /// structure: output j's backward reach into the middle equals in
    /// distribution input j's forward reach (structural check: both
    /// reach a nonempty subset bounded by the stage width).
    #[test]
    fn access_direction_sanity(seed in 0u64..2000) {
        let ftn = FtNetwork::build(Params::reduced(1, 8, 8, 1.0));
        let model = FailureModel::symmetric(0.002);
        let mut r = rng(seed);
        let inst = FailureInstance::sample(&model, &mut r, ftn.net().num_edges());
        let s = Survivor::new(&ftn, &inst);
        let alive = s.routable_alive();
        let fwd = access_set(ftn.net().graph(), ftn.input(0), AccessDir::Forward,
                             |v| alive[v.index()]);
        let bwd = access_set(ftn.net().graph(), ftn.output(0), AccessDir::Backward,
                             |v| alive[v.index()]);
        let mid = ftn.stage_base(2)..ftn.stage_base(2) + ftn.width() as u32;
        let cf = mid.clone().filter(|&i| fwd[i as usize]).count();
        let cb = mid.clone().filter(|&i| bwd[i as usize]).count();
        prop_assert!(cf <= ftn.width() && cb <= ftn.width());
        // fault-free both reach > 0; with eps=0.002 the grid survives
        // essentially always at l=32
        prop_assert!(cf > 0 && cb > 0);
    }
}
