//! Bit-sliced failure instances: 64 Monte Carlo trials per word.
//!
//! [`crate::mask::FailureMask`] packs one instance at 2 bits per
//! switch; this module transposes the layout. A [`SlicedFailureMask`]
//! holds **64 independent instances** ("lanes") with one `u64` per
//! switch per bit-plane — bit *i* of `open_word(s)` says "switch `s`
//! open-failed in lane *i*". Downstream word algebra then evaluates all
//! 64 trials at once: `usable_word(s)` feeds the lane-parallel
//! reachability kernel (`ft_graph::sliced`), `closed_word(s)` drives
//! lane-parallel shorting checks.
//!
//! ## Per-lane seeding discipline
//!
//! Trials are grouped in blocks of [`LANES`] and each block owns one
//! RNG: [`block_seed`]`(seed, b)` derives the block's seed with the
//! same golden-ratio multiply the thread-pool workers use, and
//! [`FailureModel::sample_sliced_into`] consumes that single xoshiro
//! stream. The discipline per regime (cutoff
//! [`FailureModel::DENSE_CUTOFF`], as in the scalar sampler):
//!
//! * **sparse** (`total < DENSE_CUTOFF`): lanes are filled
//!   *lane-major* — lane 0's geometric-gap pass first, then lane 1's,
//!   … — replicating the scalar [`FailureModel::sample_into`] loop
//!   draw for draw. Lane *i* of a sliced block is therefore
//!   **bit-identical** to the *i*-th consecutive scalar `sample_into`
//!   from the same block RNG, which is what lets the sliced and scalar
//!   Monte Carlo drivers produce *exactly* equal estimates (pinned by
//!   the CI cross-check).
//! * **dense**: a bit-sliced two-threshold comparator. For each switch
//!   the lanes' 32-bit uniforms are generated *bitwise*, MSB first —
//!   one `u64` draw yields bit *j* of all 64 lanes — and compared
//!   against the same `2³²`-lattice thresholds as the scalar dense
//!   word-fill. Lanes decide (strictly below / at-or-above a
//!   threshold) after ~2 bits on average, so a switch costs ~8 draws
//!   for 64 lanes (~¼ of the scalar dense path's 32) while sampling the
//!   *exact* same quantised trichotomy per lane. The dense stream is
//!   its own pinned sequence (golden fingerprints in
//!   `tests/determinism.rs`), *not* the scalar one — scalar≡sliced in
//!   the dense regime is distributional plus kernel-level transpose
//!   equivalence, not stream equality.
//!
//! ## Why the mask tracks its own dirty set
//!
//! At the paper's tiny ε a 10⁶-switch sliced block has a few hundred
//! failed switches but 16 MB of planes; a `fill(0)` per block would
//! dominate the whole pipeline (it already dominated the *scalar*
//! 2-bit path at ε = 10⁻⁶). Sparse fills therefore log every switch
//! whose planes become nonzero and [`reset`](SlicedFailureMask::reset)
//! re-zeroes exactly those, making a sparse block O(failures) end to
//! end. Dense fills mark the mask dense and reset by memset.
//!
//! A sparse fill is a stream of writes to random switches, so its cost
//! is memory and branch behaviour, not drawing. The two planes are
//! therefore stored interleaved (`[open, closed]` per switch: one cache
//! line per touch, and the first-touch test reads what the write needs
//! anyway), and the write itself has no branch on the data — the plane
//! is picked by index, and the log slot is written unconditionally with
//! only the log *length* depending on whether the touch was the first.

use crate::mask::FailureMask;
use crate::model::{FailureModel, SwitchState};
use rand::rngs::SmallRng;
use rand::Rng;

/// Trials per sliced block — one per bit of the plane words. Re-export
/// of [`ft_graph::sliced::LANES`] so `ft-failure` users need not depend
/// on the kernel module directly.
pub const LANES: usize = ft_graph::sliced::LANES;

/// Derives the RNG seed of sliced block `block` from the caller's
/// master `seed`.
///
/// Same golden-ratio multiply as the Monte Carlo thread-pool worker
/// seeds, keyed by block index instead of worker index — so a block's
/// trials depend only on `(seed, block)`, never on which worker or how
/// many threads ran it. That is what makes sliced estimates
/// byte-identical across thread counts.
#[inline]
pub fn block_seed(seed: u64, block: u64) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(block.wrapping_add(1)))
}

/// 64 packed failure instances: per switch, one `u64` of open bits and
/// one of closed bits (bit *i* = lane *i*).
#[derive(Clone, Debug, Default)]
pub struct SlicedFailureMask {
    /// `[open, closed]` per switch, interleaved: a sparse fill lands on
    /// a random switch, and both of its words share one cache line.
    planes: Vec<[u64; 2]>,
    /// First-touch log: `dirty[..dirty_len]` are the switches with a
    /// nonzero `open | closed` word, each exactly once. Ascending after
    /// a dense fill, unordered after a sparse one (lane-major filling
    /// revisits positions). Kept one slot longer than `planes` (once
    /// sized), so a fill can always write slot `dirty_len` and advance
    /// only on a first touch — no branch on the data.
    dirty: Vec<u32>,
    dirty_len: usize,
    /// Whether the last fill was dense (reset by memset) or sparse
    /// (reset via `dirty`).
    dense: bool,
}

impl SlicedFailureMask {
    /// An empty mask; buffers grow on first sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to all-normal in every lane over `m` switches, reusing
    /// allocations. After a sparse fill this is O(failed switches), not
    /// O(m) — the point of the dirty list.
    pub fn reset(&mut self, m: usize) {
        if self.dirty.len() != m + 1 {
            self.planes.clear();
            self.planes.resize(m, [0; 2]);
            self.dirty.clear();
            self.dirty.resize(m + 1, 0);
        } else if self.dense {
            self.planes.fill([0; 2]);
        } else {
            for &i in &self.dirty[..self.dirty_len] {
                self.planes[i as usize] = [0; 2];
            }
        }
        self.dirty_len = 0;
        self.dense = false;
    }

    /// Number of switches covered (per lane).
    #[inline]
    pub fn len(&self) -> usize {
        self.planes.len()
    }

    /// Whether the mask covers zero switches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.planes.is_empty()
    }

    /// Lanes in which switch `i` open-failed.
    #[inline]
    pub fn open_word(&self, i: usize) -> u64 {
        self.planes[i][0]
    }

    /// Lanes in which switch `i` closed-failed.
    #[inline]
    pub fn closed_word(&self, i: usize) -> u64 {
        self.planes[i][1]
    }

    /// Lanes in which switch `i` failed either way.
    #[inline]
    pub fn failed_word(&self, i: usize) -> u64 {
        let [open, closed] = self.planes[i];
        open | closed
    }

    /// Lanes in which switch `i` still conducts (normal or closed) —
    /// the edge-traversability word for the reachability kernel.
    #[inline]
    pub fn usable_word(&self, i: usize) -> u64 {
        !self.planes[i][0]
    }

    /// State of switch `i` in lane `lane`.
    #[inline]
    pub fn lane_state(&self, i: usize, lane: usize) -> SwitchState {
        debug_assert!(lane < LANES);
        let [open, closed] = self.planes[i];
        if (open >> lane) & 1 != 0 {
            SwitchState::Open
        } else if (closed >> lane) & 1 != 0 {
            SwitchState::Closed
        } else {
            SwitchState::Normal
        }
    }

    /// Switches that failed in *some* lane, each exactly once,
    /// unordered. O(that count) after a sparse fill — fault-dependent
    /// passes (repair masks, contraction) iterate this instead of all
    /// `m` switches.
    pub fn iter_failed_switches(&self) -> impl Iterator<Item = usize> + '_ {
        self.dirty[..self.dirty_len].iter().map(|&i| i as usize)
    }

    /// Unpacks lane `lane` into a scalar [`FailureMask`] — the bridge
    /// to every per-instance scalar kernel (the fallback contract: a
    /// lane that needs a full answer is extracted and replayed
    /// scalar-side). O(failed switches).
    pub fn extract_lane_into(&self, lane: usize, out: &mut FailureMask) {
        debug_assert!(lane < LANES);
        out.reset(self.len());
        let bit = 1u64 << lane;
        for i in self.iter_failed_switches() {
            let [open, closed] = self.planes[i];
            if open & bit != 0 {
                out.set(i, SwitchState::Open);
            } else if closed & bit != 0 {
                out.set(i, SwitchState::Closed);
            }
        }
    }

    /// Sets lane `lane` of switch `i` (sparse fills; keeps the dirty
    /// invariant). Branch-free on the data: which plane and whether the
    /// touch is the switch's first are coin flips to a branch predictor,
    /// so the plane is picked by index and the log by [`Self::log_touch`].
    #[inline]
    fn set_lane(&mut self, i: usize, lane_bit: u64, open: bool) {
        let words = &mut self.planes[i];
        let fresh = words[0] | words[1] == 0;
        words[usize::from(!open)] |= lane_bit;
        self.log_touch(i, fresh);
    }

    /// Appends `i` to the first-touch log iff `fresh`: the slot is
    /// written either way and only the length depends on `fresh`.
    #[inline]
    fn log_touch(&mut self, i: usize, fresh: bool) {
        self.dirty[self.dirty_len] = i as u32;
        self.dirty_len += usize::from(fresh);
    }
}

impl FailureModel {
    /// Samples one block of [`LANES`] independent failure instances
    /// into `out` (reset to `m` switches) from `rng` — normally a fresh
    /// [`block_seed`]-derived stream.
    ///
    /// See the [module docs](self) for the per-lane seeding discipline:
    /// below [`Self::DENSE_CUTOFF`] the stream is consumed lane-major
    /// and each lane is bit-identical to a consecutive scalar
    /// [`Self::sample_into`]; at or above it a bit-sliced MSB-first
    /// comparator shares draws across lanes and pins its own stream.
    pub fn sample_sliced_into(&self, rng: &mut SmallRng, m: usize, out: &mut SlicedFailureMask) {
        out.reset(m);
        let p = self.total();
        if p <= 0.0 || m == 0 {
            return;
        }
        if p >= Self::DENSE_CUTOFF {
            self.sample_sliced_dense(rng, m, out);
        } else {
            // Lane-major replication of the scalar geometric-gap loop.
            let open_share = self.eps_open / p;
            let ln_q = (1.0 - p).ln();
            for lane in 0..LANES {
                let bit = 1u64 << lane;
                let mut i = 0usize;
                loop {
                    let u: f64 = rng.random();
                    // ⌊skip⌋ ~ Geometric(p): non-failures before the next
                    // failure. The scalar loop floors the quotient; here
                    // the comparison and the cast do it (for an integer k,
                    // x ≥ k ⟺ ⌊x⌋ ≥ k, and `as usize` truncates a
                    // quotient that is never negative) — same values, no
                    // libm `floor` call per failure.
                    let skip = u.ln() / ln_q;
                    if skip >= (m - i) as f64 {
                        break;
                    }
                    i += skip as usize;
                    let open = rng.random::<f64>() < open_share;
                    out.set_lane(i, bit, open);
                    i += 1;
                    if i >= m {
                        break;
                    }
                }
            }
        }
    }

    /// Dense regime: per switch, compare the lanes' 32-bit uniforms —
    /// generated one bit-plane per `u64` draw, MSB first — against the
    /// scalar dense word-fill's thresholds. A lane leaves the
    /// undecided set once its uniform's prefix differs from the
    /// threshold's, so the loop usually stops after ~8 of the 32
    /// planes.
    fn sample_sliced_dense(&self, rng: &mut SmallRng, m: usize, out: &mut SlicedFailureMask) {
        let scale = 4294967296.0; // 2^32
        let t_open = (self.eps_open * scale) as u64;
        let t_fail = (self.total() * scale).min(scale) as u64;
        // comparator start state: lt = lanes already known below the
        // threshold, und = lanes still matching the threshold's prefix
        let start = |t: u64| -> (u64, u64) {
            if t == 0 {
                (0, 0) // nothing is < 0
            } else if t >= 1 << 32 {
                (!0, 0) // everything is < 2^32
            } else {
                (0, !0)
            }
        };
        let (lt_o0, und_o0) = start(t_open);
        let (lt_f0, und_f0) = start(t_fail);
        for i in 0..m {
            let (mut lt_o, mut und_o) = (lt_o0, und_o0);
            let (mut lt_f, mut und_f) = (lt_f0, und_f0);
            let mut j = 32u32;
            while und_o | und_f != 0 {
                j -= 1;
                // bit j of all 64 lane uniforms, one per word bit
                let r = rng.random::<u64>();
                if (t_open >> j) & 1 != 0 {
                    lt_o |= und_o & !r;
                    und_o &= r;
                } else {
                    und_o &= !r;
                }
                if (t_fail >> j) & 1 != 0 {
                    lt_f |= und_f & !r;
                    und_f &= r;
                } else {
                    und_f &= !r;
                }
                if j == 0 {
                    break; // exhausted: U == t exactly ⇒ not below
                }
            }
            let (open, closed) = (lt_o, lt_f & !lt_o);
            out.planes[i] = [open, closed];
            out.log_touch(i, open | closed != 0);
        }
        out.dense = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen::rng;

    fn brute_dirty(m: &SlicedFailureMask) -> Vec<usize> {
        (0..m.len()).filter(|&i| m.failed_word(i) != 0).collect()
    }

    #[test]
    fn sparse_lanes_bit_identical_to_consecutive_scalar_samples() {
        let model = FailureModel::new(0.01, 0.02);
        assert!(model.total() < FailureModel::DENSE_CUTOFF);
        let m = 3000;
        let mut sliced = SlicedFailureMask::new();
        model.sample_sliced_into(&mut rng(123), m, &mut sliced);
        // the scalar side consumes the *same* stream lane-major
        let mut scalar_rng = rng(123);
        let mut scalar = FailureMask::new(0);
        let mut lane = FailureMask::new(0);
        for l in 0..LANES {
            model.sample_into(&mut scalar_rng, m, &mut scalar);
            sliced.extract_lane_into(l, &mut lane);
            assert_eq!(lane, scalar, "lane {l}");
        }
    }

    #[test]
    fn dense_marginals_match_model_per_lane() {
        let model = FailureModel::new(0.2, 0.15);
        let m = 20_000;
        let mut sliced = SlicedFailureMask::new();
        model.sample_sliced_into(&mut rng(7), m, &mut sliced);
        for lane in [0, 31, 63] {
            let mut open = 0usize;
            let mut closed = 0usize;
            for i in 0..m {
                match sliced.lane_state(i, lane) {
                    SwitchState::Open => open += 1,
                    SwitchState::Closed => closed += 1,
                    SwitchState::Normal => {}
                }
            }
            let open = open as f64 / m as f64;
            let closed = closed as f64 / m as f64;
            assert!((open - 0.2).abs() < 0.02, "lane {lane} open {open}");
            assert!((closed - 0.15).abs() < 0.02, "lane {lane} closed {closed}");
        }
    }

    #[test]
    fn dense_lanes_are_not_identical() {
        // shared bit-plane draws must still decorrelate lanes
        let model = FailureModel::symmetric(0.1);
        let mut sliced = SlicedFailureMask::new();
        model.sample_sliced_into(&mut rng(9), 2000, &mut sliced);
        let mut a = FailureMask::new(0);
        let mut b = FailureMask::new(0);
        sliced.extract_lane_into(0, &mut a);
        sliced.extract_lane_into(1, &mut b);
        assert_ne!(a, b);
        let (open_a, ..) = a.counts();
        assert!(open_a > 0);
    }

    #[test]
    fn extreme_thresholds_fill_or_clear_all_lanes() {
        // ε₁ + ε₂ = 1: everything fails in every lane, no draws needed
        let model = FailureModel::new(1.0, 0.0);
        let mut sliced = SlicedFailureMask::new();
        model.sample_sliced_into(&mut rng(1), 100, &mut sliced);
        for i in 0..100 {
            assert_eq!(sliced.open_word(i), !0);
            assert_eq!(sliced.closed_word(i), 0);
        }
        let model = FailureModel::perfect();
        model.sample_sliced_into(&mut rng(1), 100, &mut sliced);
        for i in 0..100 {
            assert_eq!(sliced.failed_word(i), 0);
            assert_eq!(sliced.usable_word(i), !0);
        }
        assert_eq!(sliced.iter_failed_switches().count(), 0);
    }

    /// The first-touch log lists exactly the switches with a nonzero
    /// word, each once.
    fn assert_dirty_exact(sliced: &SlicedFailureMask, what: &str) {
        let logged = sliced.iter_failed_switches().count();
        let mut dirty: Vec<usize> = sliced.iter_failed_switches().collect();
        dirty.sort_unstable();
        dirty.dedup();
        assert_eq!(dirty.len(), logged, "{what}: dupes");
        assert_eq!(dirty, brute_dirty(sliced), "{what}");
    }

    #[test]
    fn dirty_list_matches_brute_force_in_both_regimes() {
        let mut sliced = SlicedFailureMask::new();
        for eps in [0.001, 0.02, 0.1, 0.3] {
            let model = FailureModel::symmetric(eps);
            model.sample_sliced_into(&mut rng(17), 700, &mut sliced);
            assert_dirty_exact(&sliced, &format!("eps {eps}"));
        }
    }

    #[test]
    fn first_touch_log_survives_its_edge_cases() {
        // sparse right under the cutoff: over 64 lanes every one of a
        // few switches is touched, most of them many times — the log
        // fills to its last slot and repeat touches must not advance it
        let saturating = FailureModel::new(0.03, FailureModel::DENSE_CUTOFF - 0.03 - 1e-9);
        assert!(saturating.total() < FailureModel::DENSE_CUTOFF);
        let sparse = FailureModel::symmetric(0.005);
        let dense = FailureModel::symmetric(0.2);
        let mut sliced = SlicedFailureMask::new();
        // one mask reused throughout: m = 0 and m = 1, every switch
        // dirty, shrink and regrow, dense → sparse → dense
        let steps = [
            (&saturating, 0),
            (&saturating, 1),
            (&saturating, 12),
            (&dense, 12),
            (&sparse, 12),
            (&dense, 900),
            (&sparse, 900),
            (&saturating, 5),
            (&dense, 0),
            (&sparse, 300),
        ];
        for (step, (model, m)) in steps.into_iter().enumerate() {
            model.sample_sliced_into(&mut rng(40 + step as u64), m, &mut sliced);
            assert_eq!(sliced.len(), m, "step {step}");
            assert_dirty_exact(&sliced, &format!("step {step} (m = {m})"));
            if std::ptr::eq(model, &saturating) {
                assert_eq!(sliced.iter_failed_switches().count(), m, "step {step}");
            }
        }
    }

    #[test]
    fn reset_clears_after_sparse_and_dense_fills() {
        let mut sliced = SlicedFailureMask::new();
        let dense = FailureModel::symmetric(0.2);
        let sparse = FailureModel::symmetric(0.005);
        for model in [&dense, &sparse, &dense, &sparse] {
            model.sample_sliced_into(&mut rng(3), 500, &mut sliced);
        }
        sliced.reset(500);
        assert!((0..500).all(|i| sliced.failed_word(i) == 0));
        assert_eq!(sliced.iter_failed_switches().count(), 0);
        // shrink and regrow across resets
        sliced.reset(100);
        assert_eq!(sliced.len(), 100);
        sparse.sample_sliced_into(&mut rng(4), 900, &mut sliced);
        assert_eq!(sliced.len(), 900);
        assert_dirty_exact(&sliced, "regrown");
    }

    #[test]
    fn block_seed_matches_worker_derivation() {
        assert_eq!(block_seed(5, 0), 5u64.wrapping_add(0x9E37_79B9_7F4A_7C15));
        assert_ne!(block_seed(5, 0), block_seed(5, 1));
        assert_ne!(block_seed(5, 1), block_seed(6, 1));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let model = FailureModel::symmetric(0.08);
        let mut a = SlicedFailureMask::new();
        let mut b = SlicedFailureMask::new();
        model.sample_sliced_into(&mut rng(11), 1000, &mut a);
        model.sample_sliced_into(&mut rng(11), 1000, &mut b);
        for i in 0..1000 {
            assert_eq!(a.open_word(i), b.open_word(i));
            assert_eq!(a.closed_word(i), b.closed_word(i));
        }
    }

    #[test]
    fn extract_lane_roundtrips_lane_state() {
        let model = FailureModel::new(0.04, 0.01);
        let mut sliced = SlicedFailureMask::new();
        model.sample_sliced_into(&mut rng(21), 400, &mut sliced);
        let mut lane = FailureMask::new(0);
        for l in [0, 17, 63] {
            sliced.extract_lane_into(l, &mut lane);
            for i in 0..400 {
                assert_eq!(
                    lane.state(i),
                    sliced.lane_state(i, l),
                    "lane {l} switch {i}"
                );
            }
        }
    }
}
