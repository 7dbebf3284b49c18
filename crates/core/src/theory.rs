//! Closed-form bounds from the paper, as executable formulas.
//!
//! Every probabilistic lemma of §5/§6 comes with an explicit numeric
//! bound; the claim tests (`tests/paper_claims.rs` at the repository
//! root) hold Monte-Carlo estimates against them. Functions are parameterized exactly as the
//! paper states them (width factor 64, degree 10) unless noted;
//! generalizations to reduced profiles take the profile explicitly.
//!
//! ### Transcription notes (documented deviations)
//!
//! * Theorem 2's headline constant is printed in the article as
//!   "49 n (log₄ n)²"; the paper's own census `1408ν·4^{ν+γ}` together
//!   with `4^γ ≤ 136ν` gives `1408·136 ≈ 1.9·10⁵` as the constant, so
//!   the "49" cannot be reproduced from the stated census (it appears
//!   to be a typesetting casualty). [`theorem2_size_bound`] uses the
//!   census-derived constant and [`theorem2_size_paper_constant`]
//!   records the printed one.
//! * Lemma 6's failure bound is used per input; the union over the
//!   `4^ν` inputs is absorbed into the exponentially small factor in
//!   the paper. We carry the explicit `n` factor.

use crate::params::Params;

/// Lemma 3: probability that an idle input fails to keep majority
/// access to its grid's boundary, `c₁·ν·(144ε)^{64·4^γ}` with
/// `c₁ = 1/(1 − 72ε)` — generalized to grid rows `l = F·4^γ`.
///
/// Returns 1.0 when the bound is vacuous (ε too large for the
/// geometric series to converge).
pub fn lemma3_grid_failure_bound(params: &Params, eps: f64) -> f64 {
    let l = params.grid_rows() as f64;
    let nu = params.nu as f64;
    if 72.0 * eps >= 1.0 {
        return 1.0;
    }
    let c1 = 1.0 / (1.0 - 72.0 * eps);
    (c1 * nu * (144.0 * eps).powf(l)).min(1.0)
}

/// Lemma 4: Markov/Chernoff tail for the number of faulty outlets of
/// one expanding graph: `P[T > budget] ≤ exp(M·ln(1 + 2ε(e−1)) − budget)`
/// where `M` is the number of switches incident with the outlet set.
pub fn lemma4_outlet_tail(incident_switches: usize, eps: f64, budget: f64) -> f64 {
    let m = incident_switches as f64;
    (m * (1.0 + 2.0 * eps * (std::f64::consts::E - 1.0)).ln() - budget)
        .exp()
        .min(1.0)
}

/// The paper's instantiation of Lemma 4 at scale `μ`: a graph with
/// `64·4^μ` outlets, 20 incident switches each, budget `0.07·4^μ` —
/// yielding `≤ e^{−0.06·4^μ}` at `ε = 10⁻⁶`.
pub fn lemma4_paper_tail(mu: u32, eps: f64) -> f64 {
    let t = 64.0 * 4f64.powi(mu as i32);
    lemma4_outlet_tail((20.0 * t) as usize, eps, 0.07 * 4f64.powi(mu as i32))
}

/// Lemma 5: union bound over every expanding graph of 𝓜ₗ — the sum
/// `Σ_{μ=γ}^{ν+γ−1} 4^{ν+γ−μ}·P_μ` evaluated numerically with the
/// Lemma 4 tail (no closed-form approximation).
pub fn lemma5_family_bound(params: &Params, eps: f64) -> f64 {
    let nu = params.nu;
    let gamma = params.gamma;
    let mut sum = 0.0;
    for mu in gamma..nu + gamma {
        let graphs = 4f64.powi((nu + gamma - mu) as i32);
        sum += graphs * lemma4_paper_tail(mu, eps);
    }
    sum.min(1.0)
}

/// Lemma 6: probability that 𝒩ₗ fails to be a majority-access
/// network — Lemma 3 over all `n` inputs plus Lemma 5.
pub fn lemma6_majority_failure_bound(params: &Params, eps: f64) -> f64 {
    let n = params.n() as f64;
    (n * lemma3_grid_failure_bound(params, eps) + lemma5_family_bound(params, eps)).min(1.0)
}

/// Lemma 7: probability that some input/output pair contracts to one
/// vertex: `c₂·ν²·(160ε)^{2ν}` with `c₂ = 4^{15}/(1 − 40ε)`.
pub fn lemma7_shorting_bound(params: &Params, eps: f64) -> f64 {
    let nu = params.nu as f64;
    if 40.0 * eps >= 1.0 {
        return 1.0;
    }
    let c2 = 4f64.powi(15) / (1.0 - 40.0 * eps);
    (c2 * nu * nu * (160.0 * eps).powf(2.0 * nu)).min(1.0)
}

/// Theorem 2: probability that 𝒩 fails to contain a nonblocking
/// n-network of normal switches:
/// `2·(Lemma 6) + (Lemma 7)` (left half, mirror, shorting).
pub fn theorem2_failure_bound(params: &Params, eps: f64) -> f64 {
    (2.0 * lemma6_majority_failure_bound(params, eps) + lemma7_shorting_bound(params, eps)).min(1.0)
}

/// Theorem 2's size bound derived from the census: `1408·ν·4^{ν+γ}`
/// with `4^γ ≤ 136ν` gives `size ≤ 1408·136·n·(log₄ n)²`.
pub fn theorem2_size_bound(n: usize) -> f64 {
    let nu = (n as f64).log(4.0);
    1408.0 * 136.0 * n as f64 * nu * nu
}

/// The constant printed in the article's Theorem 2 ("49") — kept for
/// the record; see the module docs for why it cannot follow from the
/// paper's own census.
pub fn theorem2_size_paper_constant() -> f64 {
    49.0
}

/// Theorem 2's depth: `4ν` switches on every input→output path
/// (`4ν + 1` stages), bounded by `5·log₄ n`.
pub fn theorem2_depth_bound(n: usize) -> f64 {
    5.0 * (n as f64).log(4.0)
}

/// Theorem 1's size lower bound for a `(¼, ½)`-n-superconcentrator:
/// `n·(log₂ n)²/2688`.
pub fn theorem1_size_lower_bound(n: usize) -> f64 {
    let lg = (n as f64).log2();
    n as f64 * lg * lg / 2688.0
}

/// Theorem 1's depth lower bound: `(log₂ n)/16`.
pub fn theorem1_depth_lower_bound(n: usize) -> f64 {
    (n as f64).log2() / 16.0
}

/// Lemma 2's closeness threshold: pairwise input distance below
/// `(1/8)·log₂ n` (for ≥ n/2 inputs) contradicts being a
/// `(¼, ½)`-superconcentrator.
pub fn lemma2_distance_threshold(n: usize) -> f64 {
    (n as f64).log2() / 8.0
}

/// Lemma 2's shorting estimate: `k` edge-disjoint paths of length
/// ≤ `len` each short with probability ≥ `ε₂^len`; the probability
/// that none shorts is `(1 − ε₂^len)^k`.
pub fn lemma2_no_short_probability(k: usize, len: usize, eps_close: f64) -> f64 {
    (1.0 - eps_close.powi(len as i32)).powi(k as i32)
}

/// Moore–Shannon Proposition 1: size `c_ε·(log₂ 1/ε′)²` and depth
/// `d_ε·log₂ 1/ε′` of an `(ε, ε′)`-1-network. Returns the pair of
/// scale factors measured against a given construction size/depth.
pub fn prop1_constants(size: usize, depth: u32, eps_prime: f64) -> (f64, f64) {
    let lg = (1.0 / eps_prime).log2();
    (size as f64 / (lg * lg), depth as f64 / lg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper2() -> Params {
        Params::paper_exact(2)
    }

    #[test]
    fn lemma3_tiny_at_paper_eps() {
        // ε = 10⁻⁶, ν = 2, γ = 4 ⇒ l = 16384; (144ε)^l is astronomically
        // small
        let b = lemma3_grid_failure_bound(&paper2(), 1e-6);
        assert!(b < 1e-300, "bound {b}");
    }

    #[test]
    fn lemma3_vacuous_at_huge_eps() {
        assert_eq!(lemma3_grid_failure_bound(&paper2(), 0.02), 1.0);
    }

    #[test]
    fn lemma4_matches_paper_arithmetic() {
        // ε = 10⁻⁶, μ = 3: ln(1+2ε(e−1)) ≈ 2ε(e−1) ≈ 3.44·10⁻⁶;
        // M = 20·64·64 = 81920 ⇒ exponent ≈ 0.28 − 0.07·64 = −4.2
        let t = lemma4_paper_tail(3, 1e-6);
        let expected = (20.0 * 64.0 * 64.0 * (1.0 + 2e-6 * (std::f64::consts::E - 1.0)).ln()
            - 0.07 * 64.0)
            .exp();
        assert!((t - expected).abs() < 1e-12);
        assert!(t < 0.02, "tail {t}");
        // and the paper's e^{−0.06·4^μ} envelope holds
        assert!(t <= (-0.06f64 * 64.0).exp() * 1.05);
    }

    #[test]
    fn lemma4_monotone_in_eps() {
        for mu in 1..4 {
            assert!(lemma4_paper_tail(mu, 1e-6) <= lemma4_paper_tail(mu, 1e-4));
        }
    }

    #[test]
    fn lemma5_sums_family() {
        let b = lemma5_family_bound(&paper2(), 1e-6);
        // dominated by the smallest scale μ = γ = 4: 4^2 graphs at
        // e^{−0.06·256} ≈ 2·10⁻⁷… the sum is well under 1
        assert!(b < 1e-4, "bound {b}");
        assert!(b > 0.0);
    }

    #[test]
    fn theorem2_failure_vanishes_at_paper_eps() {
        let b = theorem2_failure_bound(&paper2(), 1e-6);
        assert!(b < 1e-3, "bound {b}");
        // and grows with ε
        assert!(theorem2_failure_bound(&paper2(), 1e-3) >= b);
    }

    #[test]
    fn lemma7_scaling() {
        let p = paper2();
        let b6 = lemma7_shorting_bound(&p, 1e-6);
        let b3 = lemma7_shorting_bound(&p, 1e-3);
        assert!(b6 < b3);
        // (160·10⁻⁶)^4 ≈ 6.6·10⁻¹⁶ times c₂·4 ≈ 4.3·10⁹ ⇒ ~3·10⁻⁶
        assert!(b6 < 1e-4, "bound {b6}");
    }

    #[test]
    fn theorem1_bounds_positive_and_growing() {
        assert!(theorem1_size_lower_bound(1024) > theorem1_size_lower_bound(256));
        assert!(theorem1_depth_lower_bound(1 << 16) == 1.0);
        assert!((lemma2_distance_threshold(256) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lemma2_no_short_prob() {
        // 84 paths of length 3, ε₂ = ¼: (1 − 1/64)^84 ≈ 0.27 < ½
        let p = lemma2_no_short_probability(84, 3, 0.25);
        assert!(p < 0.5, "p = {p}");
        assert!(lemma2_no_short_probability(0, 3, 0.25) == 1.0);
    }

    #[test]
    fn theorem2_size_census_constant() {
        // the census-derived constant, not the printed "49"
        let b = theorem2_size_bound(256);
        assert!((b - 1408.0 * 136.0 * 256.0 * 16.0).abs() < 1.0);
        assert_eq!(theorem2_size_paper_constant(), 49.0);
    }

    #[test]
    fn prop1_constants_shape() {
        let (cs, cd) = prop1_constants(400, 20, 1e-3);
        let lg = 1000f64.log2();
        assert!((cs - 400.0 / (lg * lg)).abs() < 1e-9);
        assert!((cd - 20.0 / lg).abs() < 1e-9);
    }
}
