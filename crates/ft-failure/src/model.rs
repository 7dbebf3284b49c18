//! The random switch failure model (§1, §3).
//!
//! Every switch (edge) is independently in one of three states:
//!
//! * **open failure** with probability ε₁ — the switch is permanently off;
//!   the edge *ceases to exist*;
//! * **closed failure** with probability ε₂ — the switch is permanently
//!   on; the edge's endpoints *contract to one vertex*;
//! * **normal** otherwise — the switch functions correctly.
//!
//! The paper takes ε₁ = ε₂ = ε for notational simplicity; the model here
//! keeps them separate (the invariance arguments of §3 need asymmetric
//! instances).

use crate::instance::{FailureInstance, PER_WORD};
use rand::rngs::SmallRng;
use rand::Rng;

/// State of a single switch in a failure instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SwitchState {
    /// Functioning correctly: conducts when on, isolates when off.
    Normal = 0,
    /// Open failure: permanently off (edge removed).
    Open = 1,
    /// Closed failure: permanently on (endpoints contracted).
    Closed = 2,
}

/// Failure probabilities of the model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailureModel {
    /// Open-failure probability ε₁ ∈ [0, ½).
    pub eps_open: f64,
    /// Closed-failure probability ε₂ ∈ [0, ½).
    pub eps_close: f64,
}

impl FailureModel {
    /// Symmetric model ε₁ = ε₂ = ε, the paper's default.
    pub fn symmetric(eps: f64) -> Self {
        FailureModel {
            eps_open: eps,
            eps_close: eps,
        }
    }

    /// Creates a model, validating the probability ranges.
    ///
    /// # Panics
    /// Panics unless `0 ≤ ε₁, ε₂` and `ε₁ + ε₂ ≤ 1`.
    pub fn new(eps_open: f64, eps_close: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&eps_open)
                && (0.0..=1.0).contains(&eps_close)
                && eps_open + eps_close <= 1.0,
            "invalid failure probabilities ({eps_open}, {eps_close})"
        );
        FailureModel {
            eps_open,
            eps_close,
        }
    }

    /// A fault-free model (every switch normal) — useful as a baseline.
    pub fn perfect() -> Self {
        FailureModel {
            eps_open: 0.0,
            eps_close: 0.0,
        }
    }

    /// The static snapshot of a temporal fault process: a switch that
    /// fails at rate `fault_rate` and is repaired at rate `1/mttr` is a
    /// two-state Markov chain whose stationary unavailability is
    /// `u = λ / (λ + 1/mttr) = λ·mttr / (1 + λ·mttr)`; by PASTA an
    /// arrival in the process's steady state observes each switch
    /// failed independently with probability `u`. `open_share` splits
    /// `u` between open and closed failures, mirroring the simulator's
    /// `fault_open_share`.
    ///
    /// This is the cross-validation hook the `ftexp` study runner and
    /// `ft-sim`'s `sim_validation` tests use to compare a discrete-event
    /// blocking estimate against this crate's snapshot machinery.
    ///
    /// # Panics
    /// Panics if `fault_rate < 0`, `mttr <= 0`, or `open_share ∉ [0, 1]`.
    pub fn stationary(fault_rate: f64, mttr: f64, open_share: f64) -> Self {
        assert!(
            fault_rate >= 0.0 && mttr > 0.0 && (0.0..=1.0).contains(&open_share),
            "invalid stationary parameters (λ = {fault_rate}, mttr = {mttr}, \
             open_share = {open_share})"
        );
        let a = fault_rate * mttr;
        let u = a / (1.0 + a);
        FailureModel::new(u * open_share, u * (1.0 - open_share))
    }

    /// Total failure probability ε₁ + ε₂ (the paper's `2ε`).
    pub fn total(&self) -> f64 {
        self.eps_open + self.eps_close
    }

    /// Samples the state of one switch.
    #[inline]
    pub(crate) fn sample_one(&self, rng: &mut SmallRng) -> SwitchState {
        let u: f64 = rng.random();
        if u < self.eps_open {
            SwitchState::Open
        } else if u < self.eps_open + self.eps_close {
            SwitchState::Closed
        } else {
            SwitchState::Normal
        }
    }

    /// Total failure probability below which geometric gap sampling
    /// beats the dense word-fill.
    ///
    /// Word-fill costs ~½ an RNG draw plus a few integer ops per switch;
    /// a geometric gap costs two `f64` draws, a `ln` and a division per
    /// *failure*, i.e. ~15–20× a word-fill switch. The breakeven is
    /// therefore around p ≈ 1/16. The previous cutoff of 0.25 sent
    /// ε ≈ 0.1 instances (total p = 0.2) down a per-switch `f64` path
    /// that cost 2.6 ms per 10⁶-edge trial.
    ///
    /// The bit-sliced sampler
    /// ([`sample_sliced_into`](Self::sample_sliced_into)) keys off the
    /// **same constant**: below it one switch-major alias-table walk
    /// visits only the block's failed lanes, at or above it the block
    /// switches to the MSB-first lane-comparator fill. Keeping one
    /// cutoff means "which regime am I in" has a single answer for a
    /// given model, whichever sampler runs.
    pub const DENSE_CUTOFF: f64 = 1.0 / 16.0;

    /// Samples states for `m` switches into the packed instance `out`
    /// (reset to `m` switches).
    ///
    /// This is the **scalar** path: one instance per call, used by the
    /// per-trial drivers ([`FailureInstance::sample`] and `resample`).
    /// The **bit-sliced** path
    /// ([`sample_sliced_into`](Self::sample_sliced_into)) samples 64
    /// instances at once into a `SlicedFailureMask` from its own stream;
    /// the sliced Monte Carlo drivers, their scalar references and their
    /// `trials % 64` tails all take their instances from its lanes, not
    /// from this function.
    ///
    /// Two regimes:
    ///
    /// * **sparse** (`total < DENSE_CUTOFF`): geometric gap sampling —
    ///   only the failed positions are visited, so a trial on a
    ///   10⁷-edge network with ε = 10⁻⁶ costs ~tens of RNG draws, not
    ///   10⁷. The draw sequence is bit-identical to the
    ///   [`Self::sample_states`] reference, which is what pins the
    ///   golden fingerprints in `tests/determinism.rs`.
    /// * **dense**: whole-word fill — each `u64` draw decides two
    ///   switches by 32-bit threshold comparison (quantisation bias
    ///   < 2⁻³², far below Monte Carlo resolution) and 32 switches land
    ///   in one packed store. The sliced sampler uses different (also
    ///   pinned) streams in both regimes — equivalence between the two
    ///   samplers is distributional, not bitwise.
    pub(crate) fn sample_into(&self, rng: &mut SmallRng, m: usize, out: &mut FailureInstance) {
        out.reset(m);
        let p = self.total();
        if p <= 0.0 {
            return;
        }
        if p >= Self::DENSE_CUTOFF {
            // Dense word-fill. Thresholds on a 2³² lattice: u < t_open ⇒
            // open, t_open ≤ u < t_fail ⇒ closed, else normal (the same
            // ordering as `sample_one`). Each u64 draw decides two
            // switches branch-free; a full word of 32 switches is 16
            // draws and one store.
            let scale = 4294967296.0; // 2^32
            let t_open = (self.eps_open * scale) as u64;
            let t_fail = (p * scale).min(scale) as u64;
            // branchless code for one lane: open = 01, closed = 10,
            // normal = 00 (b ≥ a always since t_open ≤ t_fail)
            let code = |u: u64| -> u64 {
                let a = (u < t_open) as u64;
                let b = (u < t_fail) as u64;
                2 * b - a
            };
            let full_words = m / PER_WORD;
            for w_out in out.words.iter_mut().take(full_words) {
                let mut w = 0u64;
                for k in 0..PER_WORD as u64 / 2 {
                    let r64 = rng.random::<u64>();
                    let pair = code(r64 & 0xFFFF_FFFF) | (code(r64 >> 32) << 2);
                    w |= pair << (4 * k);
                }
                *w_out = w;
            }
            // tail word (m not a multiple of 32)
            let rem = m - full_words * PER_WORD;
            if rem > 0 {
                let mut w = 0u64;
                let mut r64 = 0u64;
                for j in 0..rem {
                    let u = if j & 1 == 0 {
                        r64 = rng.random::<u64>();
                        r64 & 0xFFFF_FFFF
                    } else {
                        r64 >> 32
                    };
                    w |= code(u) << (2 * j);
                }
                out.words[full_words] = w;
            }
            return;
        }
        // geometric gaps: position of next failure
        let open_share = self.eps_open / p;
        let ln_q = (1.0 - p).ln();
        let mut i = 0usize;
        loop {
            let u: f64 = rng.random();
            // skip ~ Geometric(p): number of non-failures before the next failure
            let skip = (u.ln() / ln_q).floor();
            if skip >= (m - i) as f64 {
                break;
            }
            i += skip as usize;
            let s = if rng.random::<f64>() < open_share {
                SwitchState::Open
            } else {
                SwitchState::Closed
            };
            out.set(i, s);
            i += 1;
            if i >= m {
                break;
            }
        }
    }

    /// Reference sampler producing an unpacked state vector.
    ///
    /// Kept as the slow-but-obvious implementation that the packed
    /// [`Self::sample_into`] is differentially tested against: for
    /// `total() < DENSE_CUTOFF` the two consume the RNG identically and
    /// produce the same states. (In the dense regime the streams differ —
    /// the reference draws one `f64` per switch — but the distributions
    /// agree.)
    pub(crate) fn sample_states_into(
        &self,
        rng: &mut SmallRng,
        m: usize,
        out: &mut Vec<SwitchState>,
    ) {
        out.clear();
        out.resize(m, SwitchState::Normal);
        let p = self.total();
        if p <= 0.0 {
            return;
        }
        if p >= Self::DENSE_CUTOFF {
            // dense regime: per-edge draw is cheaper than the log() calls
            for s in out.iter_mut() {
                *s = self.sample_one(rng);
            }
            return;
        }
        // geometric gaps: position of next failure
        let open_share = self.eps_open / p;
        let ln_q = (1.0 - p).ln();
        let mut i = 0usize;
        loop {
            let u: f64 = rng.random();
            // skip ~ Geometric(p): number of non-failures before the next failure
            let skip = (u.ln() / ln_q).floor();
            if skip >= (m - i) as f64 {
                break;
            }
            i += skip as usize;
            out[i] = if rng.random::<f64>() < open_share {
                SwitchState::Open
            } else {
                SwitchState::Closed
            };
            i += 1;
            if i >= m {
                break;
            }
        }
    }

    /// Samples a fresh state vector for `m` switches: the unpacked
    /// reference sampler the packed [`FailureInstance::sample`] is pinned
    /// against.
    pub fn sample_states(&self, rng: &mut SmallRng, m: usize) -> Vec<SwitchState> {
        let mut out = Vec::new();
        self.sample_states_into(rng, m, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen::rng;
    use ft_graph::ids::e;

    #[test]
    fn symmetric_model() {
        let m = FailureModel::symmetric(0.1);
        assert_eq!(m.eps_open, 0.1);
        assert_eq!(m.eps_close, 0.1);
        assert!((m.total() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stationary_unavailability() {
        // λ = 0.02, mttr = 5 ⇒ u = 0.1/1.1 = 1/11
        let m = FailureModel::stationary(0.02, 5.0, 0.5);
        assert!((m.total() - 1.0 / 11.0).abs() < 1e-12);
        assert_eq!(m.eps_open, m.eps_close);
        // all failures open
        let m = FailureModel::stationary(0.02, 5.0, 1.0);
        assert_eq!(m.eps_close, 0.0);
        assert!((m.eps_open - 1.0 / 11.0).abs() < 1e-12);
        // no faults at all
        assert_eq!(FailureModel::stationary(0.0, 5.0, 0.5).total(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid stationary parameters")]
    fn stationary_rejects_zero_mttr() {
        FailureModel::stationary(0.1, 0.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "invalid failure probabilities")]
    fn invalid_model_rejected() {
        FailureModel::new(0.7, 0.7);
    }

    #[test]
    fn perfect_model_never_fails() {
        let m = FailureModel::perfect();
        let mut r = rng(1);
        let states = m.sample_states(&mut r, 1000);
        assert!(states.iter().all(|&s| s == SwitchState::Normal));
        let mask = FailureInstance::sample(&m, &mut r, 1000);
        assert_eq!(mask.counts(), (0, 0, 1000));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = FailureModel::symmetric(0.3);
        let a = FailureInstance::sample(&m, &mut rng(7), 500);
        let b = FailureInstance::sample(&m, &mut rng(7), 500);
        assert_eq!(a, b);
        let a = m.sample_states(&mut rng(7), 500);
        let b = m.sample_states(&mut rng(7), 500);
        assert_eq!(a, b);
    }

    #[test]
    fn mask_matches_reference_in_sparse_regime() {
        // below DENSE_CUTOFF both paths must consume the RNG identically
        for (e1, e2) in [(0.01, 0.02), (0.03, 0.0), (0.0, 0.0001), (0.02, 0.04)] {
            let m = FailureModel::new(e1, e2);
            assert!(m.total() < FailureModel::DENSE_CUTOFF);
            let states = m.sample_states(&mut rng(99), 10_000);
            let mask = FailureInstance::sample(&m, &mut rng(99), 10_000);
            assert_eq!(mask.to_states(), states, "({e1}, {e2})");
        }
    }

    #[test]
    fn dense_frequencies_match() {
        // dense word-fill regime (total ≥ DENSE_CUTOFF)
        let m = FailureModel::new(0.2, 0.15);
        let mut r = rng(42);
        let n = 200_000;
        let mask = FailureInstance::sample(&m, &mut r, n);
        let (open, closed, _) = mask.counts();
        let open = open as f64 / n as f64;
        let closed = closed as f64 / n as f64;
        assert!((open - 0.2).abs() < 0.01, "open rate {open}");
        assert!((closed - 0.15).abs() < 0.01, "closed rate {closed}");
    }

    #[test]
    fn dense_cutoff_band_uses_word_fill_and_calibrates() {
        // ε = 0.1 (total 0.2) previously fell in the slow per-f64 band;
        // it must now be dense AND keep its marginals
        let m = FailureModel::symmetric(0.1);
        assert!(m.total() >= FailureModel::DENSE_CUTOFF);
        let mask = FailureInstance::sample(&m, &mut rng(47), 500_000);
        let (open, closed, _) = mask.counts();
        assert!((open as f64 / 500_000.0 - 0.1).abs() < 0.005, "open {open}");
        assert!(
            (closed as f64 / 500_000.0 - 0.1).abs() < 0.005,
            "closed {closed}"
        );
    }

    #[test]
    fn sparse_frequencies_match() {
        // sparse regime (geometric skipping)
        let m = FailureModel::new(0.01, 0.02);
        let mut r = rng(43);
        let n = 1_000_000;
        let mask = FailureInstance::sample(&m, &mut r, n);
        let (open, closed, _) = mask.counts();
        let open = open as f64 / n as f64;
        let closed = closed as f64 / n as f64;
        assert!((open - 0.01).abs() < 0.002, "open rate {open}");
        assert!((closed - 0.02).abs() < 0.002, "closed rate {closed}");
    }

    #[test]
    fn sparse_positions_are_spread() {
        // guard against off-by-one in geometric skipping: failures must be
        // able to land on the first and last positions
        let m = FailureModel::symmetric(0.03);
        let mut first_hit = false;
        let mut last_hit = false;
        let mut r = rng(44);
        let mut mask = FailureInstance::default();
        for _ in 0..2000 {
            m.sample_into(&mut r, 10, &mut mask);
            if mask.state(e(0)) != SwitchState::Normal {
                first_hit = true;
            }
            if mask.state(e(9)) != SwitchState::Normal {
                last_hit = true;
            }
        }
        assert!(first_hit && last_hit);
    }

    #[test]
    fn asymmetric_split_in_both_regimes() {
        for eps in [0.03, 0.2] {
            let m = FailureModel::new(eps, 0.0);
            let mut r = rng(45);
            let mask = FailureInstance::sample(&m, &mut r, 100_000);
            assert_eq!(mask.counts().1, 0);
            let m = FailureModel::new(0.0, eps);
            let mask = FailureInstance::sample(&m, &mut r, 100_000);
            assert_eq!(mask.counts().0, 0);
        }
    }

    #[test]
    fn extreme_probabilities_fill_everything() {
        // ε₁ + ε₂ = 1: every switch fails (threshold clamping)
        let m = FailureModel::new(0.6, 0.4);
        let mask = FailureInstance::sample(&m, &mut rng(48), 10_000);
        let (open, closed, normal) = mask.counts();
        assert_eq!(normal, 0);
        assert_eq!(open + closed, 10_000);
    }

    #[test]
    fn zero_length_sample() {
        let m = FailureModel::symmetric(0.1);
        let mut r = rng(46);
        assert!(m.sample_states(&mut r, 0).is_empty());
        assert!(FailureInstance::sample(&m, &mut r, 0).is_empty());
    }
}
