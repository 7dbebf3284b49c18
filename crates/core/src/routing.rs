//! Routing workloads on the repaired network (§4, observation 3).
//!
//! Because the certified survivor *contains a strictly nonblocking
//! network*, routing needs no cleverness: a greedy shortest-idle-path
//! search serves any request sequence. This module packages the
//! workloads the experiments throw at the survivor:
//!
//! * [`route_permutation`] — connect a full one-to-one assignment,
//!   request by request (the rearrangeable task, served greedily);
//! * [`churn`] — the telephone-exchange adversary: random
//!   connect/disconnect traffic, counting blocked calls (the
//!   nonblocking task);
//! * [`RoutingStats`] — outcome summary (blocks, path lengths, cost).
//!
//! A *blocked* request against a certificate-passing survivor is a
//! counterexample to Theorem 2 — integration tests assert it never
//! happens; the simulator and the study runner count blocks on purpose
//! at stress ε where certification fails.

use crate::network::FtNetwork;
use crate::repair::Survivor;
use ft_graph::gen::random_permutation;
use ft_graph::VertexId;
use ft_networks::{CircuitRouter, RouteError, SessionId};
use rand::rngs::SmallRng;
use rand::Rng;

/// Summary of a routing workload run.
#[derive(Clone, Debug, Default)]
pub struct RoutingStats {
    /// Connection attempts made.
    pub attempts: usize,
    /// Connections established.
    pub connected: usize,
    /// Requests refused with [`RouteError::Blocked`].
    pub blocked: usize,
    /// Requests refused because a terminal was dead/busy.
    pub unavailable: usize,
    /// Total switches on established paths.
    pub total_path_len: usize,
    /// Longest established path (switches).
    pub max_path_len: usize,
}

impl RoutingStats {
    /// Mean path length over established circuits.
    pub fn mean_path_len(&self) -> f64 {
        if self.connected == 0 {
            0.0
        } else {
            self.total_path_len as f64 / self.connected as f64
        }
    }

    /// Whether every attempt succeeded.
    pub fn all_connected(&self) -> bool {
        self.connected == self.attempts
    }

    fn record(&mut self, result: &Result<usize, RouteError>) {
        self.attempts += 1;
        match result {
            Ok(len) => {
                self.connected += 1;
                self.total_path_len += len;
                self.max_path_len = self.max_path_len.max(*len);
            }
            Err(RouteError::Blocked(_, _)) => self.blocked += 1,
            Err(_) => self.unavailable += 1,
        }
    }
}

/// A router bound to a survivor's alive mask.
pub fn survivor_router<'a>(survivor: &Survivor<'a>) -> CircuitRouter<'a> {
    CircuitRouter::with_alive_mask(survivor.network().net(), survivor.routable_alive())
}

/// Greedily routes the permutation `perm` (`input j → output perm[j]`),
/// one request at a time in index order. Returns the stats and the
/// established sessions (for callers that keep routing afterwards).
pub fn route_permutation(
    router: &mut CircuitRouter<'_>,
    ftn: &FtNetwork,
    perm: &[u32],
) -> (RoutingStats, Vec<SessionId>) {
    assert_eq!(perm.len(), ftn.n(), "permutation arity mismatch");
    let mut stats = RoutingStats::default();
    let mut sessions = Vec::new();
    for (j, &o) in perm.iter().enumerate() {
        let res = router
            .connect(ftn.input(j), ftn.output(o as usize))
            .map(|id| {
                let len = router.session_path(id).map_or(0, |p| p.len() - 1);
                sessions.push(id);
                len
            });
        stats.record(&res);
    }
    (stats, sessions)
}

/// Runs `steps` of random connect/disconnect churn: each step flips a
/// biased coin (`p_connect`) between placing a call on a uniformly
/// random idle input/output pair and tearing down a uniformly random
/// live call. Returns the stats.
pub fn churn(
    router: &mut CircuitRouter<'_>,
    ftn: &FtNetwork,
    steps: usize,
    p_connect: f64,
    rng: &mut SmallRng,
) -> RoutingStats {
    let n = ftn.n();
    let mut stats = RoutingStats::default();
    let mut live: Vec<SessionId> = Vec::new();
    for _ in 0..steps {
        let connect = live.is_empty() || rng.random_bool(p_connect);
        if connect {
            let idle_in: Vec<usize> = (0..n).filter(|&j| router.is_idle(ftn.input(j))).collect();
            let idle_out: Vec<usize> = (0..n).filter(|&j| router.is_idle(ftn.output(j))).collect();
            if idle_in.is_empty() || idle_out.is_empty() {
                continue;
            }
            let i = idle_in[rng.random_range(0..idle_in.len())];
            let o = idle_out[rng.random_range(0..idle_out.len())];
            let res = router.connect(ftn.input(i), ftn.output(o)).map(|id| {
                let len = router.session_path(id).map_or(0, |p| p.len() - 1);
                live.push(id);
                len
            });
            stats.record(&res);
        } else {
            let k = rng.random_range(0..live.len());
            router.disconnect(live.swap_remove(k));
        }
    }
    stats
}

/// Samples a uniform permutation on `n` points.
pub fn random_perm(rng: &mut SmallRng, n: usize) -> Vec<u32> {
    random_permutation(rng, n)
}

/// Routes a random permutation on the *fault-free* network — the
/// baseline every fault experiment compares against.
pub fn route_random_perm_fault_free(ftn: &FtNetwork, rng: &mut SmallRng) -> RoutingStats {
    let mut router = CircuitRouter::new(ftn.net());
    let perm = random_perm(rng, ftn.n());
    route_permutation(&mut router, ftn, &perm).0
}

/// Verifies that the paths currently held by `sessions` are pairwise
/// vertex-disjoint (sanity check used by tests and experiments).
pub fn sessions_disjoint(router: &CircuitRouter<'_>, sessions: &[SessionId]) -> bool {
    let mut seen: Vec<VertexId> = Vec::new();
    for &id in sessions {
        if let Some(p) = router.session_path(id) {
            for &v in p {
                if seen.contains(&v) {
                    return false;
                }
                seen.push(v);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use ft_failure::{FailureInstance, FailureModel};
    use ft_graph::gen::rng;
    use ft_graph::Digraph;

    fn tiny() -> FtNetwork {
        FtNetwork::build(Params::reduced(1, 8, 4, 1.0))
    }

    #[test]
    fn fault_free_routes_identity_and_reverse() {
        let f = tiny();
        for perm in [vec![0u32, 1, 2, 3], vec![3u32, 2, 1, 0]] {
            let mut router = CircuitRouter::new(f.net());
            let (stats, sessions) = route_permutation(&mut router, &f, &perm);
            assert!(stats.all_connected(), "{stats:?}");
            assert_eq!(stats.connected, 4);
            // every path spans the full depth 4ν
            assert_eq!(stats.max_path_len, 4);
            assert!(sessions_disjoint(&router, &sessions));
        }
    }

    #[test]
    fn fault_free_routes_many_random_perms() {
        let f = tiny();
        let mut r = rng(11);
        for _ in 0..25 {
            let stats = route_random_perm_fault_free(&f, &mut r);
            assert!(stats.all_connected(), "{stats:?}");
        }
    }

    #[test]
    fn churn_on_fault_free_never_blocks() {
        let f = tiny();
        let mut router = CircuitRouter::new(f.net());
        let mut r = rng(12);
        let stats = churn(&mut router, &f, 500, 0.6, &mut r);
        assert_eq!(stats.blocked, 0, "{stats:?}");
        assert!(stats.connected > 0);
    }

    #[test]
    fn survivor_router_respects_faults() {
        let f = tiny();
        let model = FailureModel::symmetric(0.001);
        let mut r = rng(13);
        let mut routed = 0;
        for _ in 0..10 {
            let inst = FailureInstance::sample(&model, &mut r, f.net().num_edges());
            let survivor = Survivor::new(&f, &inst);
            let mut router = survivor_router(&survivor);
            let perm = random_perm(&mut r, f.n());
            let (stats, _) = route_permutation(&mut router, &f, &perm);
            if stats.all_connected() {
                routed += 1;
            }
        }
        // at ε = 1e-3 on a tiny instance most trials should route
        assert!(routed >= 5, "only {routed}/10 random perms routed");
    }

    #[test]
    fn total_wipeout_blocks_everything() {
        let f = tiny();
        let inst =
            FailureInstance::from_states(vec![ft_failure::SwitchState::Open; f.net().num_edges()]);
        let survivor = Survivor::new(&f, &inst);
        let mut router = survivor_router(&survivor);
        let (stats, _) = route_permutation(&mut router, &f, &[0, 1, 2, 3]);
        assert_eq!(stats.connected, 0);
        assert_eq!(stats.blocked, 4);
    }

    #[test]
    fn stats_mean_path_len() {
        let mut s = RoutingStats::default();
        s.record(&Ok(4));
        s.record(&Ok(6));
        s.record(&Err(RouteError::Blocked(VertexId(0), VertexId(1))));
        assert_eq!(s.attempts, 3);
        assert_eq!(s.connected, 2);
        assert_eq!(s.blocked, 1);
        assert!((s.mean_path_len() - 5.0).abs() < 1e-12);
        assert!(!s.all_connected());
    }
}
