//! Structural certification that a failure instance leaves 𝒩
//! containing a nonblocking network (Lemmas 3–7, Theorem 2).
//!
//! The paper's argument that the repaired network still contains a
//! strictly nonblocking n-network rests on three *structural* events,
//! each checkable in linear time from the failure instance alone (no
//! quantification over request patterns):
//!
//! * **Terminals distinct** (Lemma 7): no two terminals are contracted
//!   into one electrical node by a path of closed-failed switches.
//! * **Grid access** (Lemma 3): every terminal keeps access to strictly
//!   more than half of its grid's boundary stage through non-faulty
//!   grid vertices. Grids are private to their terminal, so no busy
//!   path can interfere — the event depends on faults only.
//! * **Expander fault budget** (Lemmas 4–5): every middle group has at
//!   most a `0.07/64` fraction of faulty vertices, so the Lemma 6
//!   induction (majority access through the expander stages, for
//!   *every* pattern of busy paths) goes through.
//!
//! When all three hold, §4's observations apply: repair is discarding,
//! routing on the survivor is greedy path-finding, and every idle
//! input/output pair shares an idle middle vertex (two strict majorities
//! must intersect). [`certify`] evaluates the three events;
//! [`Certificate::implies_nonblocking`] is their conjunction.

use crate::access::all_grids_majority;
use crate::network::FtNetwork;
use crate::repair::Survivor;
use ft_failure::contraction;
use ft_failure::instance::FailureInstance;

/// The paper's per-group faulty-vertex budget as a fraction of group
/// size: `0.07·4^μ` faulty outlets allowed out of `64·4^μ`.
pub const PAPER_FAULT_BUDGET_FRAC: f64 = 0.07 / 64.0;

/// Outcome of the structural certification.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Lemma 7: no two terminals shorted by closed failures.
    pub terminals_distinct: bool,
    /// Lemma 3: every grid keeps strict-majority access.
    pub grids_majority: bool,
    /// Minimum grid access fraction observed (over all 2n grids).
    pub min_grid_access: f64,
    /// Lemmas 4–5: every middle group within the faulty budget.
    pub expander_budget_ok: bool,
    /// Maximum faulty fraction observed over middle groups.
    pub max_group_faulty: f64,
    /// Fraction of internal vertices discarded by repair.
    pub discard_fraction: f64,
}

impl Certificate {
    /// The §6 guarantee: when all three structural events hold, the
    /// survivor contains a strictly nonblocking n-network and greedy
    /// routing cannot block.
    pub fn implies_nonblocking(&self) -> bool {
        self.terminals_distinct && self.grids_majority && self.expander_budget_ok
    }
}

/// Counts faulty vertices per group of every middle stage and compares
/// against `budget_frac` of the group size. Returns
/// `(all_within_budget, max_faulty_fraction)`.
pub fn expander_fault_audit(ftn: &FtNetwork, alive: &[bool], budget_frac: f64) -> (bool, f64) {
    let nu = ftn.params().nu as usize;
    let mut ok = true;
    let mut max_frac = 0.0_f64;
    for s in nu..=3 * nu {
        let (count, size) = ftn.middle_groups(s);
        let budget = (budget_frac * size as f64).floor() as usize;
        for g in 0..count {
            let range = ftn.middle_group_range(s, g);
            let faulty = range.filter(|&i| !alive[i as usize]).count();
            let frac = faulty as f64 / size as f64;
            max_frac = max_frac.max(frac);
            if faulty > budget {
                ok = false;
            }
        }
    }
    (ok, max_frac)
}

/// Runs the full structural certification of `ftn` under `inst`, using
/// the paper's fault budget.
pub fn certify(ftn: &FtNetwork, inst: &FailureInstance) -> Certificate {
    certify_with_budget(ftn, inst, PAPER_FAULT_BUDGET_FRAC)
}

/// [`certify`] with an explicit per-group fault budget fraction
/// (reduced profiles at stress ε need looser budgets; the γ-ablation
/// sweeps this).
pub fn certify_with_budget(
    ftn: &FtNetwork,
    inst: &FailureInstance,
    budget_frac: f64,
) -> Certificate {
    let survivor = Survivor::new(ftn, inst);
    let alive = survivor.routable_alive();
    let (grids_majority, min_grid_access) = all_grids_majority(ftn, &alive);
    let (expander_budget_ok, max_group_faulty) = expander_fault_audit(ftn, &alive, budget_frac);
    let net = ftn.net();
    let terminals_distinct =
        !contraction::flagged_terminals_shorted(net.graph(), inst, net.terminal_mask());
    Certificate {
        terminals_distinct,
        grids_majority,
        min_grid_access,
        expander_budget_ok,
        max_group_faulty,
        discard_fraction: survivor.discard_fraction(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use ft_failure::{FailureModel, SwitchState};
    use ft_graph::gen::rng;
    use ft_graph::Digraph;

    fn tiny() -> FtNetwork {
        FtNetwork::build(Params::reduced(1, 8, 4, 1.0))
    }

    #[test]
    fn perfect_instance_certifies() {
        let f = tiny();
        let inst = FailureInstance::perfect(f.net().num_edges());
        let c = certify(&f, &inst);
        assert!(c.terminals_distinct);
        assert!(c.grids_majority);
        assert!(c.expander_budget_ok);
        assert!(c.implies_nonblocking());
        assert_eq!(c.min_grid_access, 1.0);
        assert_eq!(c.max_group_faulty, 0.0);
        assert_eq!(c.discard_fraction, 0.0);
    }

    #[test]
    fn single_internal_fault_fails_paper_budget_at_tiny_scale() {
        // at F = 8, γ = 1: smallest group is 32 vertices; the paper
        // budget floor(0.07/64·32) = 0 — a single faulty vertex in a
        // boundary group must fail the audit, while a looser budget
        // passes.
        let f = tiny();
        let mut states = vec![SwitchState::Normal; f.net().num_edges()];
        // fail one middle switch (the first middle edge follows the
        // n·l terminal edges; ν=1 means no grid gap edges)
        let first_middle = f.census().terminal / 2; // input fanout edges
        states[first_middle] = SwitchState::Open;
        let inst = FailureInstance::from_states(states);
        let c = certify(&f, &inst);
        assert!(!c.expander_budget_ok);
        let loose = certify_with_budget(&f, &inst, 0.25);
        assert!(loose.expander_budget_ok);
        assert!(loose.terminals_distinct);
    }

    #[test]
    fn shorted_terminals_detected() {
        let f = tiny();
        // close every switch: all terminals contract together
        let inst = FailureInstance::from_states(vec![SwitchState::Closed; f.net().num_edges()]);
        let c = certify(&f, &inst);
        assert!(!c.terminals_distinct);
        assert!(!c.implies_nonblocking());
    }

    #[test]
    fn grid_wipeout_fails_majority() {
        let f = tiny();
        let mut states = vec![SwitchState::Normal; f.net().num_edges()];
        // open every fan-out switch of input 0: its whole grid column
        // dies, access drops to zero
        for s in states.iter_mut().take(f.rows()) {
            *s = SwitchState::Open;
        }
        let inst = FailureInstance::from_states(states);
        let c = certify_with_budget(&f, &inst, 1.0);
        assert!(!c.grids_majority);
        assert_eq!(c.min_grid_access, 0.0);
        assert!(!c.implies_nonblocking());
    }

    #[test]
    fn low_eps_usually_certifies_with_loose_budget() {
        let f = tiny();
        let model = FailureModel::symmetric(1e-4);
        let mut r = rng(7);
        let mut passes = 0;
        for _ in 0..30 {
            let inst = FailureInstance::sample(&model, &mut r, f.net().num_edges());
            let c = certify_with_budget(&f, &inst, 0.1);
            if c.implies_nonblocking() {
                passes += 1;
            }
        }
        assert!(passes >= 25, "only {passes}/30 certified at ε = 1e-4");
    }

    #[test]
    fn audit_counts_dead_vertices() {
        let f = tiny();
        let mut alive = vec![true; f.net().num_vertices()];
        // kill 8 of 32 vertices in the first boundary group
        let range = f.middle_group_range(1, 0);
        for i in range.clone().take(8) {
            alive[i as usize] = false;
        }
        let (ok, max_frac) = expander_fault_audit(&f, &alive, 0.3);
        assert!(ok);
        assert!((max_frac - 0.25).abs() < 1e-9);
        let (ok, _) = expander_fault_audit(&f, &alive, 0.2);
        assert!(!ok);
    }
}
