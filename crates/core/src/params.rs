//! Construction parameters for the fault-tolerant network 𝒩 (§6).
//!
//! The paper builds, for `n = 4^ν` terminals, a recursive nonblocking
//! network *scaled up* by a factor `4^γ` with `4^γ ≥ 34ν` (so that
//! `136ν ≥ 4^γ ≥ 34ν`), stage width `64·4^{ν+γ}`, and degree-10
//! expanding graphs; the recursion is truncated after γ levels and
//! `(64·4^γ) × ν` directed grids interface the terminals.
//!
//! Those constants make even ν = 2 cost ~10⁷ switches, so the library
//! parameterises them: [`Params::paper_exact`] reproduces the paper's
//! numbers for the size/depth census, while [`Params::reduced`] scales
//! the width/degree/γ-factor down for Monte Carlo experiments that need
//! thousands of trials. Every experiment records which profile it ran.

/// Parameters of the §6 construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// `ν`: the network serves `n = 4^ν` inputs and outputs.
    pub nu: u32,
    /// `γ`: recursion scale-up; the paper picks the least γ with
    /// `4^γ ≥ gamma_factor·ν` (and requires γ ≥ 1).
    pub gamma: u32,
    /// Stage width factor `F` (the paper's 64): internal stages have
    /// `F·4^{ν+γ}` vertices, groups at recursion level `i` have `F·4^i`.
    pub width: usize,
    /// Expander degree `d` (the paper's 10).
    pub degree: usize,
    /// Seed for sampling the expanding graphs.
    pub seed: u64,
}

impl Params {
    /// The paper's exact constants: `F = 64`, `d = 10`,
    /// `γ = ⌈log₄(34ν)⌉`.
    pub fn paper_exact(nu: u32) -> Params {
        assert!(nu >= 1);
        Params {
            nu,
            gamma: gamma_for(34.0, nu),
            width: 64,
            degree: 10,
            seed: 0x5EED_CAFE,
        }
    }

    /// A reduced profile for laptop-scale Monte Carlo: caller chooses the
    /// width factor and degree; γ comes from `gamma_factor` (min 1).
    pub fn reduced(nu: u32, width: usize, degree: usize, gamma_factor: f64) -> Params {
        assert!(nu >= 1);
        assert!(
            width >= 2 && width.is_multiple_of(2),
            "width must be even ≥ 2"
        );
        assert!(degree >= 1);
        Params {
            nu,
            gamma: gamma_for(gamma_factor, nu),
            width,
            degree,
            seed: 0x5EED_CAFE,
        }
    }

    /// Overrides the expander-sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Params {
        self.seed = seed;
        self
    }

    /// Number of terminals `n = 4^ν`.
    pub fn n(&self) -> usize {
        1usize << (2 * self.nu)
    }

    /// `4^γ`.
    pub fn four_gamma(&self) -> usize {
        1usize << (2 * self.gamma)
    }

    /// Group size at recursion level `i`: `F·4^i`.
    pub fn group_size(&self, i: u32) -> usize {
        self.width << (2 * i)
    }

    /// Internal stage width `F·4^{ν+γ}`.
    pub fn stage_width(&self) -> usize {
        self.group_size(self.nu + self.gamma)
    }

    /// Grid rows `l = F·4^γ` (the paper's `64·4^γ`).
    pub fn grid_rows(&self) -> usize {
        self.group_size(self.gamma)
    }

    /// Number of stages of 𝒩: `4ν + 1` (inputs on stage 0, outputs on
    /// stage 4ν).
    pub fn num_stages(&self) -> usize {
        4 * self.nu as usize + 1
    }

    /// The middle stage index `2ν` — the boundary between the left-hand
    /// network `𝓜_l` and its mirror image `𝓜_r`; Lemma 6's
    /// majority-access is counted against this stage.
    pub fn middle_stage(&self) -> usize {
        2 * self.nu as usize
    }

    /// Depth of 𝒩 (edges on an input→output path): `4ν`.
    pub fn depth(&self) -> u32 {
        4 * self.nu
    }

    /// Predicted number of switches in the truncated middle 𝓜
    /// (the paper's `1280ν·4^{ν+γ}` at `F = 64`, `d = 10`): `2ν` stage
    /// gaps, each `F·4^{ν+γ}·d` edges.
    pub fn middle_edges(&self) -> usize {
        2 * self.nu as usize * self.stage_width() * self.degree
    }

    /// Predicted number of switches in all `2·4^ν` directed grids:
    /// `2·4^ν·(2l−1)(ν−1)` (the paper counts grids at `l` per gap, i.e.
    /// `128(ν−1)4^{ν+γ}` total; our grids carry their diagonals, matching
    /// Fig. 4, so the count is `(2l−1)` per gap per grid).
    pub fn grid_edges(&self) -> usize {
        let l = self.grid_rows();
        2 * self.n() * (2 * l - 1) * (self.nu as usize - 1)
    }

    /// Predicted number of terminal switches: `2·4^ν·l`
    /// (the paper's `128·4^{ν+γ}` at `F = 64`).
    pub fn terminal_edges(&self) -> usize {
        2 * self.n() * self.grid_rows()
    }

    /// Total predicted size of 𝒩.
    pub fn predicted_size(&self) -> usize {
        self.middle_edges() + self.grid_edges() + self.terminal_edges()
    }

    /// `(vertices, switches)` of 𝒩 — two terminal stages of `n` and
    /// `4ν − 1` internal stages of width `W = F·4^{ν+γ}`, and
    /// [`Self::predicted_size`] switches — or `None` if they overflow
    /// `usize`. Both counts are below `W·2ν(d + 2)`, so that product is
    /// the one checked. The builder allocates from it, and a spec parser
    /// can check it against the `u32` ids before building.
    pub fn checked_counts(&self) -> Option<(usize, usize)> {
        let nu = self.nu as usize;
        let w = 1usize
            .checked_shl(2 * (self.nu + self.gamma))?
            .checked_mul(self.width)?;
        w.checked_mul(self.degree.checked_add(2)?.checked_mul(2 * nu)?)?;
        let vertices = (4 * nu - 1) * w + 2 * self.n();
        Some((vertices, self.predicted_size()))
    }

    /// The paper's own census `1408·ν·4^{ν+γ}` (valid at `F = 64`,
    /// `d = 10`, counting each grid at `l` edges per gap).
    pub fn paper_census(&self) -> usize {
        1408 * self.nu as usize * (self.n() * self.four_gamma())
    }

    /// Theorem 2's headline bound re-expressed per terminal:
    /// size `≤ C·n·(log₄ n)²` for the constant achieved by this profile.
    pub fn size_constant(&self) -> f64 {
        self.predicted_size() as f64 / (self.n() as f64 * (self.nu as f64).powi(2))
    }
}

/// Least `γ ≥ 1` with `4^γ ≥ factor·ν`.
pub fn gamma_for(factor: f64, nu: u32) -> u32 {
    let target = factor * nu as f64;
    let mut g = 1u32;
    while ((1usize << (2 * g)) as f64) < target {
        g += 1;
        assert!(g <= 16, "γ out of range (factor {factor}, ν {nu})");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_matches_paper_examples() {
        // ⌈log₄(34ν)⌉: ν=1 → 34 ⇒ γ=3 (64 ≥ 34); ν=2 → 68 ⇒ γ=4? 4³=64<68
        assert_eq!(gamma_for(34.0, 1), 3);
        assert_eq!(gamma_for(34.0, 2), 4);
        assert_eq!(gamma_for(34.0, 4), 4); // 136 ≤ 256
                                           // paper sandwich: 136ν ≥ 4^γ ≥ 34ν
        for nu in 1..=6 {
            let g = gamma_for(34.0, nu);
            let fg = 1usize << (2 * g);
            assert!(fg as f64 >= 34.0 * nu as f64);
            assert!(fg as f64 <= 136.0 * nu as f64, "4^γ = {fg} > 136ν");
        }
    }

    #[test]
    fn paper_exact_quantities() {
        let p = Params::paper_exact(2);
        assert_eq!(p.n(), 16);
        assert_eq!(p.gamma, 4);
        assert_eq!(p.stage_width(), 64 * 4usize.pow(6));
        assert_eq!(p.grid_rows(), 64 * 256);
        assert_eq!(p.num_stages(), 9);
        assert_eq!(p.depth(), 8);
        assert_eq!(p.middle_stage(), 4);
        // middle census matches the paper's 1280ν4^{ν+γ}
        assert_eq!(p.middle_edges(), 1280 * 2 * 4usize.pow(6));
        // terminal census matches 128·4^{ν+γ}
        assert_eq!(p.terminal_edges(), 128 * 4usize.pow(6));
    }

    #[test]
    fn reduced_profile_shrinks() {
        let p = Params::reduced(2, 8, 4, 1.0);
        assert_eq!(p.gamma, 1);
        assert!(p.predicted_size() < Params::paper_exact(2).predicted_size() / 100);
        assert_eq!(p.num_stages(), 9, "stage structure independent of width");
    }

    #[test]
    fn size_grows_like_n_log2n() {
        // fixed profile: size/(n ν²) should stay bounded as ν grows
        let c2 = Params::reduced(2, 8, 4, 1.0).size_constant();
        let c5 = Params::reduced(5, 8, 4, 1.0).size_constant();
        // γ grows with log ν, so the ratio drifts slowly; assert sane band
        assert!(c5 < 20.0 * c2, "size not Θ(n log² n): c2={c2}, c5={c5}");
    }

    #[test]
    #[should_panic(expected = "width must be even")]
    fn rejects_odd_width() {
        Params::reduced(2, 7, 3, 1.0);
    }

    #[test]
    fn seed_override() {
        let p = Params::paper_exact(1).with_seed(99);
        assert_eq!(p.seed, 99);
    }
}
