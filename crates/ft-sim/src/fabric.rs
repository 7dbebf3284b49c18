//! Switch fabrics the engine can drive, and the repair discipline that
//! turns a cumulative failure instance into a router alive-mask.
//!
//! The discipline is §4's: a failed switch makes both its endpoints
//! faulty; repair discards faulty *internal* vertices (terminals are
//! exempt, per §6's definition of faultiness); a failed switch incident
//! to a terminal is masked by discarding its internal endpoint instead.
//! That is one local predicate — a vertex survives iff it is a terminal
//! or no incident switch failed — and every fabric, the fault-tolerant
//! network 𝒩 included, takes the same implementation of it
//! ([`generic_routable_alive_into`] and its lane-parallel form);
//! `ft_core`'s `Survivor::routable_alive` is the test oracle that pins
//! the equality on 𝒩. A fabric where some switch joins two terminals
//! directly cannot express that switch's failure as a vertex discard,
//! so such fabrics only support fault-free scenarios — the scenario
//! validator enforces this. Every fabric here is unit-staged with its
//! inputs in stage 0 and its outputs in the last stage (a test below
//! pins it per family, `run_seed_obs` asserts it per seed and the
//! router refuses anything else), so a switch can join two terminals
//! only when the network has exactly two stages: that is the crossbar,
//! `benes 1` and a one-dimensional multibutterfly. Fault support is
//! therefore a stage count ([`Fabric::supports_faults`]), not a scan.

use ft_core::network::FtNetwork;
use ft_core::params::Params;
use ft_failure::{AliveTracker, FailureInstance, SlicedFailureMask};
use ft_graph::{Digraph, EdgeId, StagedNetwork};
use ft_networks::{crossbar, Benes, Clos, Multibutterfly};

/// A switch fabric under simulation.
#[derive(Debug)]
pub enum Fabric {
    /// The n² crossbar (trivially strictly nonblocking, fault-free only).
    Crossbar(StagedNetwork),
    /// A three-stage Clos network.
    Clos(Clos),
    /// A Beneš network (rearrangeable; greedy routing may block).
    Benes(Benes),
    /// A multibutterfly (splitters over sampled expanders).
    Multibutterfly(Multibutterfly),
    /// The paper's fault-tolerant network 𝒩.
    Ftn(Box<FtNetwork>),
}

impl Fabric {
    /// Builds an `n × n` crossbar fabric.
    pub fn crossbar(n: usize) -> Fabric {
        Fabric::Crossbar(crossbar(n))
    }

    /// Builds a strictly nonblocking Clos `C(2n−1, n, r)` fabric.
    pub fn clos_strict(n: usize, r: usize) -> Fabric {
        Fabric::Clos(Clos::strictly_nonblocking(n, r))
    }

    /// Builds a rearrangeable Clos `C(n, n, r)` fabric.
    pub fn clos_rearrangeable(n: usize, r: usize) -> Fabric {
        Fabric::Clos(Clos::rearrangeable(n, r))
    }

    /// Builds a Beneš fabric on `2^k` terminals.
    pub fn benes(k: u32) -> Fabric {
        Fabric::Benes(Benes::new(k))
    }

    /// Builds a `d`-multibutterfly fabric on `2^k` terminals whose
    /// splitter wiring is fully determined by `seed` — the same
    /// `(k, d, seed)` triple always names the identical fabric, which
    /// is what lets `ftexp` sweeps cache cells by spec content alone.
    pub fn multibutterfly(k: u32, d: usize, seed: u64) -> Fabric {
        Fabric::Multibutterfly(Multibutterfly::seeded(k, d, seed))
    }

    /// Builds a reduced-profile fault-tolerant network 𝒩.
    pub fn ftn_reduced(nu: u32, width: usize, degree: usize, gamma_factor: f64) -> Fabric {
        Fabric::Ftn(Box::new(FtNetwork::build(Params::reduced(
            nu,
            width,
            degree,
            gamma_factor,
        ))))
    }

    /// The underlying staged network.
    pub fn net(&self) -> &StagedNetwork {
        match self {
            Fabric::Crossbar(net) => net,
            Fabric::Clos(c) => &c.net,
            Fabric::Benes(b) => &b.net,
            Fabric::Multibutterfly(m) => &m.net,
            Fabric::Ftn(f) => f.net(),
        }
    }

    /// Number of input terminals (= output terminals).
    pub fn terminals(&self) -> usize {
        self.net().inputs().len()
    }

    /// A short human/JSON label for reports.
    pub fn label(&self) -> String {
        match self {
            Fabric::Crossbar(net) => format!("crossbar {}", net.inputs().len()),
            Fabric::Clos(c) => format!("clos m={} n={} r={}", c.m, c.n, c.r),
            Fabric::Benes(b) => format!("benes n={}", b.terminals()),
            Fabric::Multibutterfly(m) => format!("multibutterfly n={} d={}", m.terminals(), m.d),
            Fabric::Ftn(f) => format!("ftn nu={} n={}", f.params().nu, f.n()),
        }
    }

    /// Whether the §4 vertex-discard discipline can express every
    /// switch failure: true iff no switch joins two terminals directly.
    ///
    /// O(1). Every fabric is unit-staged with its inputs in stage 0 and
    /// its outputs in the last stage, so a switch's tail is never an
    /// output (it sits before the last stage) and its head never an
    /// input (it sits after stage 0). A switch therefore joins two
    /// terminals only if it runs from stage 0 straight to the last
    /// stage, which takes a two-stage network; and every two-stage
    /// fabric here (`crossbar N`, `benes 1`, `multibutterfly 1 D S`)
    /// has only terminals, so each of its switches joins two. The
    /// edge scan this replaces is the test oracle.
    pub fn supports_faults(&self) -> bool {
        self.net().num_stages() > 2
    }

    /// The routable alive-mask for the current cumulative failure
    /// instance, under the §4 repair discipline.
    pub fn alive_mask(&self, inst: &FailureInstance) -> Vec<bool> {
        let mut out = Vec::new();
        self.alive_mask_into(inst, &mut out);
        out
    }

    /// Like [`alive_mask`](Fabric::alive_mask), writing into a
    /// caller-held buffer: Monte Carlo trial loops reuse one allocation
    /// and the call itself allocates nothing, on every fabric.
    pub fn alive_mask_into(&self, inst: &FailureInstance, out: &mut Vec<bool>) {
        generic_routable_alive_into(self.net(), inst, out);
    }

    /// Lane-parallel form of [`alive_mask_into`](Fabric::alive_mask_into)
    /// for a 64-trial block: writes one lane word per vertex (bit *i*
    /// set ⇔ alive in lane *i*). The §4 discipline is computed directly
    /// on the failed-switch word planes — O(switches failed in any
    /// lane), all 64 lanes at once, no allocation once `out` has grown —
    /// on every fabric. Lane *i* is bit-identical to
    /// [`alive_mask`](Fabric::alive_mask) of the unpacked instance
    /// (pinned by the transpose-equivalence tests, and against the
    /// `Survivor` oracle on 𝒩).
    pub fn alive_words_into(&self, sliced: &SlicedFailureMask, out: &mut Vec<u64>) {
        generic_routable_alive_words_into(self.net(), sliced, out);
    }

    /// Incremental counterpart of [`alive_mask`](Fabric::alive_mask): a
    /// tracker synchronised to `inst` whose mask starts — and stays,
    /// under `fail_edge`/`repair_edge` deltas — bit-identical to the
    /// from-scratch computation. The discipline is the same local
    /// predicate for every fabric (a vertex is alive iff it is a
    /// terminal or has no incident failed switch; for 𝒩 this equals
    /// `Survivor::routable_alive` — see `Survivor::alive_tracker`),
    /// which is what makes a fault/repair event O(1) instead of
    /// O(V + E). The engine's debug assertions and the interleaving
    /// proptests pin the equivalence.
    pub fn alive_tracker(&self, inst: &FailureInstance) -> AliveTracker {
        let g = self.net();
        AliveTracker::new(g.graph(), g.terminal_mask(), inst)
    }
}

/// The generic §4 repair discipline on a staged network: faulty
/// internal vertices (any incident failed switch) are discarded,
/// terminals are exempt, and a failed terminal-incident switch is
/// masked by discarding its internal endpoint. Writes into a
/// caller-held buffer and allocates nothing once it has grown.
pub(crate) fn generic_routable_alive_into(
    g: &StagedNetwork,
    inst: &FailureInstance,
    out: &mut Vec<bool>,
) {
    assert_eq!(inst.len(), g.num_edges(), "instance/network size mismatch");
    let is_terminal = g.terminal_mask();
    out.clear();
    out.resize(g.num_vertices(), true);
    for e in inst.failed_edges() {
        let (t, h) = g.graph().endpoints(e);
        if !is_terminal[t.index()] {
            out[t.index()] = false;
        }
        if !is_terminal[h.index()] {
            out[h.index()] = false;
        }
    }
}

/// Lane-parallel generic §4 repair: per lane identical to
/// [`generic_routable_alive_into`], computed for all 64 lanes from the
/// failed-switch word planes in one pass over the failed switches.
pub(crate) fn generic_routable_alive_words_into(
    g: &StagedNetwork,
    sliced: &SlicedFailureMask,
    out: &mut Vec<u64>,
) {
    assert_eq!(
        sliced.len(),
        g.num_edges(),
        "instance/network size mismatch"
    );
    let is_terminal = g.terminal_mask();
    out.clear();
    out.resize(g.num_vertices(), !0u64);
    for s in sliced.iter_failed_switches() {
        let keep = !sliced.failed_word(s);
        let (t, h) = g.graph().endpoints(EdgeId::from(s));
        if !is_terminal[t.index()] {
            out[t.index()] &= keep;
        }
        if !is_terminal[h.index()] {
            out[h.index()] &= keep;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_failure::SwitchState;

    /// One or two members of every fabric family, the two-stage ones
    /// and paper-exact ν = 1 included.
    fn families() -> Vec<Fabric> {
        vec![
            Fabric::crossbar(1),
            Fabric::crossbar(3),
            Fabric::clos_strict(1, 1),
            Fabric::clos_strict(2, 3),
            Fabric::clos_rearrangeable(2, 2),
            Fabric::benes(1),
            Fabric::benes(3),
            Fabric::multibutterfly(1, 2, 7),
            Fabric::multibutterfly(3, 2, 7),
            Fabric::ftn_reduced(1, 8, 4, 1.0),
            Fabric::Ftn(Box::new(FtNetwork::build(Params::paper_exact(1)))),
        ]
    }

    #[test]
    fn crossbar_rejects_faults_clos_supports_them() {
        assert!(!Fabric::crossbar(3).supports_faults());
        assert!(Fabric::clos_strict(2, 2).supports_faults());
        assert!(Fabric::benes(2).supports_faults());
        assert!(Fabric::ftn_reduced(1, 8, 4, 1.0).supports_faults());
        // The stage count answers what the edge scan over every switch
        // answers: no switch joins two terminals.
        for f in families() {
            let g = f.net();
            let is_terminal = g.terminal_mask();
            let no_terminal_to_terminal_switch = (0..g.num_edges()).all(|e| {
                let (t, h) = g.graph().endpoints(EdgeId::from(e));
                !is_terminal[t.index()] || !is_terminal[h.index()]
            });
            assert_eq!(
                f.supports_faults(),
                no_terminal_to_terminal_switch,
                "{}",
                f.label()
            );
        }
        for two_stage in [Fabric::benes(1), Fabric::multibutterfly(1, 2, 7)] {
            assert!(!two_stage.supports_faults(), "{}", two_stage.label());
        }
        assert!(Fabric::clos_strict(1, 1).supports_faults());
    }

    #[test]
    fn generic_mask_exempts_terminals_and_kills_internal_endpoint() {
        let f = Fabric::clos_strict(2, 2);
        let g = f.net();
        // fail switch 0: input 0 -> first stage-1 link
        let mut states = vec![SwitchState::Normal; g.num_edges()];
        states[0] = SwitchState::Open;
        let inst = FailureInstance::from_states(states);
        let alive = f.alive_mask(&inst);
        let (t, h) = g.graph().endpoints(ft_graph::EdgeId::from(0usize));
        assert_eq!(t, g.inputs()[0]);
        assert!(alive[t.index()], "terminal must stay alive");
        assert!(!alive[h.index()], "internal endpoint must be discarded");
    }

    #[test]
    fn perfect_instance_keeps_everything_alive() {
        let f = Fabric::clos_strict(2, 3);
        let inst = FailureInstance::perfect(f.net().num_edges());
        assert!(f.alive_mask(&inst).iter().all(|&a| a));
    }

    /// The engine's one occupancy count needs every circuit to hold one
    /// vertex per stage, on every fabric family.
    #[test]
    fn every_family_runs_unit_staged_from_stage_0_to_the_last_stage() {
        for f in families() {
            let (net, label) = (f.net(), f.label());
            let (tab, last) = (net.stage_table(), net.num_stages() as u32 - 1);
            assert!(net.is_unit_staged(), "{label}");
            assert!(net.inputs().iter().all(|v| tab[v.index()] == 0), "{label}");
            assert!(
                net.outputs().iter().all(|v| tab[v.index()] == last),
                "{label}"
            );
        }
    }

    #[test]
    fn labels_and_terminals() {
        assert_eq!(Fabric::crossbar(4).terminals(), 4);
        assert_eq!(Fabric::clos_strict(2, 3).terminals(), 6);
        assert_eq!(Fabric::benes(3).terminals(), 8);
        assert!(Fabric::clos_strict(2, 3).label().starts_with("clos"));
    }
}
