//! # ft-failure — the random switch failure model and reliability theory
//!
//! Implements §1/§3 of Pippenger & Lin: each switch of a network is
//! independently **open-failed** (probability ε₁, edge removed),
//! **closed-failed** (probability ε₂, endpoints contracted) or **normal**.
//! On top of the model sit:
//!
//! * [`instance`] — sampled failure instances (points of the event
//!   space Ω) with geometric-gap sampling for the tiny ε the paper
//!   uses;
//! * [`contraction`] — the closed-failure quotient graph and terminal
//!   *shorting* detection (Lemmas 2 and 7);
//! * `incremental` ([`AliveTracker`]) — O(1)-per-event maintenance of
//!   the §4 routable alive-mask under temporal fault/repair churn;
//! * [`reliability`] — two-terminal failure probabilities, exact (state
//!   enumeration) and Monte Carlo; the Wheatstone bridge amplifier;
//! * [`sp`] — series-parallel networks with the exact Moore–Shannon
//!   composition calculus;
//! * `hammock` ([`Hammock`]) — `(l, w)`-directed-grid hammocks (the
//!   paper's Fig. 4) with certified analytic failure bounds;
//! * [`onenet`] — explicit `(ε, ε′)-1-networks` (Proposition 1) of size
//!   `O((log 1/ε′)²)` and depth `O(log 1/ε′)`;
//! * [`edge_replace`] — the §3 edge-substitution transformation;
//! * [`montecarlo`] — Bernoulli estimators with Wilson intervals.

#![warn(missing_docs)]

pub mod contraction;
pub mod edge_replace;
pub(crate) mod hammock;
pub(crate) mod incremental;
pub mod instance;
pub(crate) mod model;
pub mod montecarlo;
pub mod onenet;
pub mod reliability;
pub mod sliced;
pub mod sp;

pub use hammock::Hammock;
pub use incremental::AliveTracker;
pub use instance::FailureInstance;
pub use model::{FailureModel, SwitchState};
pub use montecarlo::Estimate;
pub use onenet::construct_onenet;
pub use reliability::Connectivity;
pub use sliced::{block_seed, SlicedFailureMask};

/// The packed two-bit switch states of [`FailureInstance`] (`00` normal,
/// `01` open, `10` closed, 32 switches per word): set/get round trips,
/// the state predicates and the failure iterators against the unpacked
/// states.
#[cfg(test)]
mod mask {
    mod tests {
        use crate::model::SwitchState;
        use crate::{FailureInstance, FailureModel};
        use ft_graph::gen::rng;
        use ft_graph::ids::{e, EdgeId};

        #[test]
        fn set_get_roundtrip() {
            let mut m = FailureInstance::perfect(100);
            assert_eq!(m.len(), 100);
            assert!(!m.is_empty());
            m.set_state(e(0), SwitchState::Open);
            m.set_state(e(31), SwitchState::Closed);
            m.set_state(e(32), SwitchState::Closed);
            m.set_state(e(99), SwitchState::Open);
            assert_eq!(m.state(e(0)), SwitchState::Open);
            assert_eq!(m.state(e(31)), SwitchState::Closed);
            assert_eq!(m.state(e(32)), SwitchState::Closed);
            assert_eq!(m.state(e(99)), SwitchState::Open);
            assert_eq!(m.state(e(50)), SwitchState::Normal);
            // overwrite back to normal
            m.set_state(e(31), SwitchState::Normal);
            assert_eq!(m.state(e(31)), SwitchState::Normal);
            assert_eq!(m.counts(), (2, 1, 97));
        }

        #[test]
        fn predicates_match_states() {
            let states = [
                SwitchState::Normal,
                SwitchState::Open,
                SwitchState::Closed,
                SwitchState::Normal,
            ];
            let m = FailureInstance::from_states(states.to_vec());
            for (i, &s) in states.iter().enumerate() {
                let i = EdgeId::from(i);
                assert_eq!(m.state(i), s);
                assert_eq!(m.is_normal(i), s == SwitchState::Normal);
                assert_eq!(m.is_usable(i), s != SwitchState::Open);
                assert_eq!(m.is_closed(i), s == SwitchState::Closed);
            }
            assert_eq!(m.to_states(), states);
        }

        #[test]
        fn iterators_skip_normal_words() {
            let mut m = FailureInstance::perfect(1000);
            m.set_state(e(3), SwitchState::Open);
            m.set_state(e(64), SwitchState::Closed);
            m.set_state(e(999), SwitchState::Closed);
            assert_eq!(m.failed_edges().collect::<Vec<_>>(), [e(3), e(64), e(999)]);
            assert_eq!(m.closed_edges().collect::<Vec<_>>(), [e(64), e(999)]);
        }

        #[test]
        fn reset_reuses_allocation() {
            let mut m = FailureInstance::perfect(64);
            m.set_state(e(10), SwitchState::Open);
            m.reset(32);
            assert_eq!(m.len(), 32);
            assert_eq!(m.counts(), (0, 0, 32));
            m.reset(128);
            assert_eq!(m.counts(), (0, 0, 128));
        }

        #[test]
        fn iterators_match_sampled_instances() {
            let model = FailureModel::new(0.05, 0.08);
            let mut r = rng(17);
            let mut inst = FailureInstance::default();
            for _ in 0..10 {
                inst.resample(&model, &mut r, 500);
                let states = inst.to_states();
                let ids = |keep: fn(SwitchState) -> bool| -> Vec<EdgeId> {
                    (0..states.len())
                        .filter(|&i| keep(states[i]))
                        .map(EdgeId::from)
                        .collect()
                };
                let failed = ids(|s| s != SwitchState::Normal);
                assert_eq!(inst.failed_edges().collect::<Vec<_>>(), failed);
                let closed = ids(|s| s == SwitchState::Closed);
                assert_eq!(inst.closed_edges().collect::<Vec<_>>(), closed);
            }
        }

        #[test]
        fn empty_mask() {
            let m = FailureInstance::perfect(0);
            assert!(m.is_empty());
            assert_eq!(m.counts(), (0, 0, 0));
            assert_eq!(m.failed_edges().count(), 0);
        }
    }
}
