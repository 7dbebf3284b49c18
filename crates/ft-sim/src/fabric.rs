//! The fabric families the engine can drive, one row per family, and
//! the repair discipline that turns a cumulative failure instance into
//! a router alive-mask.
//!
//! [`FabricSpec`] is the one closed list of families, and every
//! per-family answer is a `match` on it here: grammar, census, build,
//! label and fault support. A built [`Fabric`] is its spec plus its
//! `StagedNetwork`, so nothing downstream asks which family it holds.
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
//! so it only supports fault-free scenarios. That rule is the spec's
//! ([`FabricSpec::fault_support`]), so the validator decides it without
//! building. The tests check it against an edge scan and the stage
//! count: every fabric is unit-staged with its inputs in stage 0 and
//! its outputs in the last stage (a test below pins it per family,
//! `run_seed_obs` asserts it per seed and the router refuses anything
//! else), so a switch can join two terminals only when the network has
//! exactly two stages.

use crate::scenario::{parse_int, parse_num};
use ft_core::network::FtNetwork;
use ft_core::params::Params;
use ft_failure::{AliveTracker, FailureInstance, SlicedFailureMask};
use ft_graph::{Digraph, EdgeId, StagedNetwork};
use ft_networks::{crossbar, crossbar_census, Benes, Clos, Multibutterfly};
use std::ops::RangeInclusive;

/// Which fabric a scenario builds (kept symbolic so reports can echo
/// it): the one closed list of fabric families.
#[derive(Clone, Debug, PartialEq)]
pub enum FabricSpec {
    /// `crossbar N`: the n² crossbar (fault-free only)
    Crossbar(usize),
    /// `clos-strict N R`: the strictly nonblocking Clos `C(2N−1, N, R)`
    ClosStrict(usize, usize),
    /// `clos-rearr N R`: the rearrangeable Clos `C(N, N, R)`
    ClosRearrangeable(usize, usize),
    /// `benes K`: Beneš on `2^K` terminals
    Benes(u32),
    /// `multibutterfly K D SEED`: the splitters are drawn from `SEED`,
    /// so the triple names the fabric (and an `ftexp` cache cell)
    Multibutterfly(u32, usize, u64),
    /// `ftn NU WIDTH DEGREE GAMMA`: 𝒩 on `Params::reduced`
    Ftn(u32, usize, usize, f64),
}

impl FabricSpec {
    /// Parses a bare fabric spec (the value side of a `network =`
    /// directive, e.g. `clos-strict 4 4`) — the inverse of
    /// [`FabricSpec::to_spec_string`]. The `ftserve` reload request
    /// carries specs in this form. Every out-of-range argument, and
    /// every census past the `u32` ids, is refused with a message
    /// naming the accepted range.
    pub fn parse(spec: &str) -> Result<FabricSpec, String> {
        let words: Vec<&str> = spec.split_whitespace().collect();
        let usage = "network = crossbar N | clos-strict N R | clos-rearr N R | benes K \
                     | multibutterfly K D SEED | ftn NU WIDTH DEGREE GAMMA";
        // An integer argument `name` of `family`, rejected outside `range`.
        let arg = |family: &str, name: &str, s: &str, range: RangeInclusive<usize>| {
            let x = parse_int(s)?;
            if range.contains(&x) {
                return Ok(x);
            }
            let accepted = match range.end() {
                &usize::MAX => format!("{name} ≥ {}", range.start()),
                end => format!("{name} in {}..={end}", range.start()),
            };
            Err(format!("`{family}` takes {accepted}, got {x}"))
        };
        const ANY: RangeInclusive<usize> = 1..=usize::MAX;
        let spec = match words[..] {
            ["crossbar", n] => FabricSpec::Crossbar(arg("crossbar N", "N", n, ANY)?),
            ["clos-strict", n, r] => {
                let family = "clos-strict N R";
                FabricSpec::ClosStrict(arg(family, "N", n, ANY)?, arg(family, "R", r, ANY)?)
            }
            ["clos-rearr", n, r] => {
                let family = "clos-rearr N R";
                FabricSpec::ClosRearrangeable(arg(family, "N", n, ANY)?, arg(family, "R", r, ANY)?)
            }
            ["benes", k] => FabricSpec::Benes(arg("benes K", "K", k, 1..=16)? as u32),
            ["multibutterfly", k, d, seed] => {
                let family = "multibutterfly K D SEED";
                FabricSpec::Multibutterfly(
                    arg(family, "K", k, 1..=16)? as u32,
                    arg(family, "D", d, ANY)?,
                    parse_int(seed)? as u64,
                )
            }
            ["ftn", nu, w, d, g] => {
                let family = "ftn NU WIDTH DEGREE GAMMA";
                let nu = arg(family, "NU", nu, 1..=8)? as u32;
                let w = arg(family, "WIDTH", w, 2..=usize::MAX)?;
                if w % 2 != 0 {
                    return Err(format!("`{family}` takes an even WIDTH, got {w}"));
                }
                let d = arg(family, "DEGREE", d, ANY)?;
                // γ is the least γ ≥ 1 with 4^γ ≥ GAMMA·NU; Params allows γ ≤ 16
                let g = parse_num(g)?;
                if g * nu as f64 > 4f64.powi(16) {
                    return Err(format!("`{family}` takes GAMMA·NU ≤ 4^16, got GAMMA = {g}"));
                }
                FabricSpec::Ftn(nu, w, d, g)
            }
            _ => {
                return Err(format!(
                    "unrecognised network `{}`; {usage}",
                    words.join(" ")
                ))
            }
        };
        let too_big = |count: String| {
            format!(
                "`{}` has {count}, but switch and vertex ids are u32: each count must stay below {}",
                spec.to_spec_string(),
                u32::MAX
            )
        };
        match spec.census() {
            Some((v, e)) if v.max(e) < u32::MAX as usize => Ok(spec),
            Some((v, e)) => Err(too_big(format!("{e} switches on {v} vertices"))),
            None => Err(too_big(
                "more switches or vertices than a usize counts".into(),
            )),
        }
    }

    /// The spec as it appeared in the scenario text.
    pub fn to_spec_string(&self) -> String {
        match *self {
            FabricSpec::Crossbar(n) => format!("crossbar {n}"),
            FabricSpec::ClosStrict(n, r) => format!("clos-strict {n} {r}"),
            FabricSpec::ClosRearrangeable(n, r) => format!("clos-rearr {n} {r}"),
            FabricSpec::Benes(k) => format!("benes {k}"),
            FabricSpec::Multibutterfly(k, d, seed) => format!("multibutterfly {k} {d} {seed}"),
            FabricSpec::Ftn(nu, w, d, g) => format!("ftn {nu} {w} {d} {g}"),
        }
    }

    /// `(vertices, switches)` of the fabric this spec builds, from its
    /// family's closed-form census (the one its builder allocates from),
    /// or `None` if a count overflows `usize`. Only for specs whose
    /// arguments [`FabricSpec::parse`] has range-checked.
    fn census(&self) -> Option<(usize, usize)> {
        match *self {
            FabricSpec::Crossbar(n) => crossbar_census(n),
            FabricSpec::ClosStrict(n, r) => Clos::census(n.checked_mul(2)? - 1, n, r),
            FabricSpec::ClosRearrangeable(n, r) => Clos::census(n, n, r),
            FabricSpec::Benes(k) => Benes::census(k),
            FabricSpec::Multibutterfly(k, d, _) => Multibutterfly::census(k, d),
            FabricSpec::Ftn(nu, w, d, g) => Params::reduced(nu, w, d, g).checked_counts(),
        }
    }

    /// Builds the fabric (deterministically).
    pub fn build(&self) -> Fabric {
        let net = match *self {
            FabricSpec::Crossbar(n) => crossbar(n),
            FabricSpec::ClosStrict(n, r) => Clos::strictly_nonblocking(n, r).net,
            FabricSpec::ClosRearrangeable(n, r) => Clos::rearrangeable(n, r).net,
            FabricSpec::Benes(k) => Benes::new(k).net,
            FabricSpec::Multibutterfly(k, d, seed) => Multibutterfly::seeded(k, d, seed).net,
            FabricSpec::Ftn(nu, w, d, g) => {
                FtNetwork::build(Params::reduced(nu, w, d, g)).into_net()
            }
        };
        Fabric {
            spec: self.clone(),
            net,
        }
    }

    /// `Ok` iff the §4 discipline can express every switch failure,
    /// i.e. no switch joins two terminals, which fails exactly on the
    /// two-stage specs. The error is the validator's refusal.
    pub fn fault_support(&self) -> Result<(), String> {
        match *self {
            // Study tables carry the crossbar's message as a skip
            // reason, so its wording stays as it was.
            FabricSpec::Crossbar(_) => Err("crossbar switches join two terminals: the \
                 vertex-discard repair discipline cannot express their failures — use \
                 a staged fabric (clos/benes/multibutterfly/ftn) or disable faults"
                .into()),
            FabricSpec::Benes(1) | FabricSpec::Multibutterfly(1, ..) => Err(format!(
                "`{}` has two stages, so its switches join two terminals: the \
                 vertex-discard repair discipline cannot express their failures — use \
                 K >= 2 or disable faults",
                self.to_spec_string()
            )),
            _ => Ok(()),
        }
    }
}

/// A switch fabric under simulation: the spec it was built from and
/// the network that spec built.
#[derive(Debug)]
pub struct Fabric {
    spec: FabricSpec,
    net: StagedNetwork,
}

impl Fabric {
    /// The spec this fabric was built from.
    pub fn spec(&self) -> &FabricSpec {
        &self.spec
    }

    /// The underlying staged network.
    pub fn net(&self) -> &StagedNetwork {
        &self.net
    }

    /// Number of input terminals (= output terminals).
    pub fn terminals(&self) -> usize {
        self.net.inputs().len()
    }

    /// A short human/JSON label for reports.
    pub fn label(&self) -> String {
        let terminals = self.terminals();
        match self.spec {
            FabricSpec::Crossbar(n) => format!("crossbar {n}"),
            FabricSpec::ClosStrict(n, r) => format!("clos m={} n={n} r={r}", 2 * n - 1),
            FabricSpec::ClosRearrangeable(n, r) => format!("clos m={n} n={n} r={r}"),
            FabricSpec::Benes(_) => format!("benes n={terminals}"),
            FabricSpec::Multibutterfly(_, d, _) => format!("multibutterfly n={terminals} d={d}"),
            FabricSpec::Ftn(nu, ..) => format!("ftn nu={nu} n={terminals}"),
        }
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

    /// One or more members of every fabric family, the two-stage ones
    /// and paper-exact ν = 1 (`Params::paper_exact(1)` is
    /// `Params::reduced(1, 64, 10, 34.0)`) included.
    fn families() -> Vec<Fabric> {
        [
            FabricSpec::Crossbar(1),
            FabricSpec::Crossbar(3),
            FabricSpec::ClosStrict(1, 1),
            FabricSpec::ClosStrict(2, 3),
            FabricSpec::ClosRearrangeable(2, 2),
            FabricSpec::ClosRearrangeable(2, 3),
            FabricSpec::Benes(1),
            FabricSpec::Benes(2),
            FabricSpec::Benes(3),
            FabricSpec::Multibutterfly(1, 2, 7),
            FabricSpec::Multibutterfly(2, 2, 7),
            FabricSpec::Multibutterfly(3, 2, 7),
            FabricSpec::Ftn(1, 8, 4, 1.0),
            FabricSpec::Ftn(1, 64, 10, 34.0),
        ]
        .iter()
        .map(FabricSpec::build)
        .collect()
    }

    #[test]
    fn crossbar_rejects_faults_clos_supports_them() {
        let supports = |spec: FabricSpec| spec.fault_support().is_ok();
        assert!(!supports(FabricSpec::Crossbar(3)));
        assert!(supports(FabricSpec::ClosStrict(2, 2)));
        assert!(supports(FabricSpec::Benes(2)));
        assert!(supports(FabricSpec::Ftn(1, 8, 4, 1.0)));
        // The spec's rule answers what two oracles on the built network
        // answer: the edge scan for a switch that joins two terminals,
        // and the stage count (a unit-staged fabric can have such a
        // switch only when it has exactly two stages).
        for f in families() {
            let g = f.net();
            let is_terminal = g.terminal_mask();
            let no_terminal_to_terminal_switch = (0..g.num_edges()).all(|e| {
                let (t, h) = g.graph().endpoints(EdgeId::from(e));
                !is_terminal[t.index()] || !is_terminal[h.index()]
            });
            let ok = f.spec().fault_support().is_ok();
            assert_eq!(ok, no_terminal_to_terminal_switch, "{}", f.label());
            assert_eq!(ok, g.num_stages() > 2, "{}", f.label());
        }
        assert!(!supports(FabricSpec::Benes(1)));
        assert!(!supports(FabricSpec::Multibutterfly(1, 2, 7)));
        assert!(supports(FabricSpec::ClosStrict(1, 1)));
    }

    #[test]
    fn generic_mask_exempts_terminals_and_kills_internal_endpoint() {
        let f = FabricSpec::ClosStrict(2, 2).build();
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
        let f = FabricSpec::ClosStrict(2, 3).build();
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

    /// Every family's report label, terminal count, switch count and
    /// spec round trip. Labels are written into reports and `ftexp`
    /// cache files, so their bytes are pinned here.
    #[test]
    fn labels_and_terminals() {
        for (text, label, terminals, switches) in [
            ("crossbar 4", "crossbar 4", 4, 16),
            ("clos-strict 2 3", "clos m=3 n=2 r=3", 6, 63),
            ("clos-rearr 2 2", "clos m=2 n=2 r=2", 4, 24),
            ("benes 1", "benes n=2", 2, 4),
            ("benes 3", "benes n=8", 8, 80),
            ("multibutterfly 1 2 7", "multibutterfly n=2 d=2", 2, 4),
            ("multibutterfly 3 2 7", "multibutterfly n=8 d=2", 8, 80),
            ("ftn 1 8 4 1.0", "ftn nu=1 n=4", 4, 1280),
            ("ftn 1 64 10 34", "ftn nu=1 n=4", 4, 360_448),
        ] {
            let spec = FabricSpec::parse(text).unwrap();
            let f = spec.build();
            assert_eq!(f.label(), label, "{text}");
            assert_eq!(f.terminals(), terminals, "{text}");
            assert_eq!(f.net().num_edges(), switches, "{text}");
            assert_eq!(
                FabricSpec::parse(&spec.to_spec_string()),
                Ok(spec),
                "{text}"
            );
        }
    }
}
