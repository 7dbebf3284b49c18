//! Bit-sliced failure instances: 64 Monte Carlo trials per word.
//!
//! [`FailureInstance`] packs one instance at 2 bits per switch; this
//! module transposes the layout. A [`SlicedFailureMask`]
//! holds **64 independent instances** ("lanes") with one `u64` per
//! switch per bit-plane — bit *i* of `open_word(s)` says "switch `s`
//! open-failed in lane *i*". Downstream word algebra then evaluates all
//! 64 trials at once: `usable_word(s)` feeds the lane-parallel
//! reachability kernel (`ft_graph::sliced`), `closed_word(s)` drives
//! lane-parallel shorting checks.
//!
//! ## Block streams and the trial = lane contract
//!
//! Trials are grouped in blocks of [`LANES`] and each block owns one
//! RNG: [`block_seed`]`(seed, b)` derives the block's seed with the
//! same golden-ratio multiply the thread-pool workers use, and
//! [`FailureModel::sample_sliced_into`] consumes that single xoshiro
//! stream. Trial *t* of every Monte Carlo driver is **lane `t % 64` of
//! block `t / 64`** — the sliced drivers read it from the planes, the
//! scalar references and the `trials % 64` tails unpack it with
//! [`SlicedFailureMask::extract_lane_into`]. A sliced estimate and its
//! scalar twin therefore see the same instances in every regime, so
//! they are exactly equal; what that equality checks is the
//! lane-parallel repair and reach kernels, not the sampler. The
//! sampler's law has its own tests (below, and end to end against the
//! exact failure polynomials in [`crate::reliability`]). Two regimes
//! (cutoff
//! [`FailureModel::DENSE_CUTOFF`], as in the scalar sampler):
//!
//! * **sparse** (`total < DENSE_CUTOFF`): **one ascending pass over the
//!   flattened index `j = 64·switch + lane`**. The positions are i.i.d.,
//!   so the walk draws the gap to the next failed position and that
//!   failure's state jointly: one `u64` goes through a 512-bucket
//!   Walker/Vose alias table on the `2³²` lattice whose events are
//!   (gap `k < 255`, open | closed) and (gap ≥ 255, open | closed).
//!   A tail gap is resolved by memorylessness — `255 + ⌊ln u / ln q⌋`,
//!   one more draw — so ε = 10⁻⁶ stays O(failures), while at
//!   ε₁ = ε₂ = 0.02 the tail has probability `0.96²⁵⁵ ≈ 3·10⁻⁵` and a
//!   failed lane costs one draw. The table is built at the first
//!   sparse fill of a model and cached in the mask.
//! * **dense**: a bit-sliced two-threshold comparator. For each switch
//!   the lanes' 32-bit uniforms are generated *bitwise*, MSB first —
//!   one `u64` draw yields bit *j* of all 64 lanes — and compared
//!   against the same `2³²`-lattice thresholds as the scalar dense
//!   word-fill. Lanes decide (strictly below / at-or-above a
//!   threshold) after ~2 bits on average, so a switch costs ~8 draws
//!   for 64 lanes (~¼ of the scalar dense path's 32) while sampling the
//!   *exact* same quantised trichotomy per lane.
//!
//! Both streams are their own pinned sequences (golden fingerprints in
//! `tests/determinism.rs`), not the scalar [`FailureInstance::sample`]
//! one.
//!
//! ## Why the mask tracks its own dirty set
//!
//! At the paper's tiny ε a 10⁶-switch sliced block has a few hundred
//! failed switches but 16 MB of planes; a `fill(0)` per block would
//! dominate the whole pipeline (it already dominated the *scalar*
//! 2-bit path at ε = 10⁻⁶). Sparse fills therefore log every switch
//! whose planes become nonzero and `reset`
//! re-zeroes exactly those, making a sparse block O(failures) end to
//! end. Dense fills mark the mask dense and reset by memset.
//!
//! A sparse fill is a stream of writes in ascending switch order, one
//! per failed lane. The two planes are stored interleaved (`[open,
//! closed]` per switch: one cache line per touch, and the first-touch
//! test reads what the write needs anyway), and the write itself has no
//! branch on the data — the plane is picked by index, and the log slot
//! is written unconditionally with only the log *length* depending on
//! whether the touch was the first.

use crate::instance::FailureInstance;
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
    /// `[open, closed]` per switch, interleaved: a sparse fill touches
    /// both words of a switch, and they share one cache line.
    planes: Vec<[u64; 2]>,
    /// First-touch log: `dirty[..dirty_len]` are the switches with a
    /// nonzero `open | closed` word, each exactly once, ascending (both
    /// fills walk the switches in order). Kept one slot longer than
    /// `planes` (once sized), so a fill can always write slot
    /// `dirty_len` and advance only on a first touch — no branch on the
    /// data.
    dirty: Vec<u32>,
    dirty_len: usize,
    /// Whether the last fill was dense (reset by memset) or sparse
    /// (reset via `dirty`).
    dense: bool,
    /// The sparse fill's alias table, for the model of the last sparse
    /// fill. Inline, so a mask costs no allocation beyond its planes.
    gaps: GapTable,
}

/// Gap classes of the sparse walk: a gap of `k < TAIL_GAP` normal
/// positions before the next failed one is its own class, `TAIL_GAP`
/// stands for every gap ≥ `TAIL_GAP`.
const TAIL_GAP: usize = 255;

/// Events of the sparse walk: event `c` is gap class `c >> 1` followed
/// by a failure that is open (`c & 1 == 0`) or closed (`c & 1 == 1`).
/// Also the number of alias buckets, one per event, so bucket `b`
/// keeps event `b`.
const EVENTS: usize = 2 * (TAIL_GAP + 1);

/// One bucket's share of the `2³²` lattice.
const UNIT: u64 = 1 << 32;

/// Walker/Vose alias table over the sparse walk's [`EVENTS`], on the
/// `2³²` lattice: a `u64` draw picks bucket `b` with its top 9 bits and
/// yields event `b` if its low 32 bits are below `thresh[b]`, else
/// `alias[b]`. Each event's lattice mass is within one unit of
/// `P(event) · 2⁴¹`, and the masses fill `EVENTS · 2³²` exactly.
#[derive(Clone, Debug, PartialEq)]
struct GapTable {
    /// Bit patterns of the `(ε₁, ε₂)` the table was built for; `None`
    /// before the first build.
    key: Option<[u64; 2]>,
    thresh: [u32; EVENTS],
    alias: [u16; EVENTS],
}

impl Default for GapTable {
    fn default() -> Self {
        GapTable {
            key: None,
            thresh: [0; EVENTS],
            alias: [0; EVENTS],
        }
    }
}

impl GapTable {
    /// Rebuilds the table for `model` unless it is already built for it.
    fn ensure(&mut self, model: &FailureModel) {
        let key = [model.eps_open.to_bits(), model.eps_close.to_bits()];
        if self.key != Some(key) {
            self.build(model);
            self.key = Some(key);
        }
    }

    /// `P(gap = k, state) = qᵏ·ε_state` for `k < TAIL_GAP` and
    /// `P(gap ≥ TAIL_GAP, state) = q^TAIL_GAP·ε_state / p`, rounded to
    /// integer masses through the running sum (so each is within one
    /// unit of its target and they add up to `EVENTS · 2³²` exactly),
    /// then paired into buckets by Vose's method in integer arithmetic.
    fn build(&mut self, model: &FailureModel) {
        let p = model.total();
        let ln_q = (-p).ln_1p();
        let total = EVENTS as u64 * UNIT;
        let mut mass = [0u64; EVENTS];
        let (mut acc, mut below) = (0.0f64, 0u64);
        for (c, w) in mass.iter_mut().enumerate() {
            let k = c >> 1;
            let eps = [model.eps_open, model.eps_close][c & 1];
            let share = if k == TAIL_GAP { eps / p } else { eps };
            acc += total as f64 * (k as f64 * ln_q).exp() * share;
            let upto = if c + 1 == EVENTS {
                total
            } else {
                (acc.round() as u64).min(total)
            };
            *w = upto - below;
            below = upto;
        }
        let (mut small, mut large) = ([0u16; EVENTS], [0u16; EVENTS]);
        let (mut ns, mut nl) = (0, 0);
        for (c, &w) in mass.iter().enumerate() {
            if w < UNIT {
                small[ns] = c as u16;
                ns += 1;
            } else {
                large[nl] = c as u16;
                nl += 1;
            }
        }
        while ns > 0 && nl > 0 {
            ns -= 1;
            let (s, l) = (usize::from(small[ns]), usize::from(large[nl - 1]));
            self.thresh[s] = mass[s] as u32;
            self.alias[s] = l as u16;
            mass[l] -= UNIT - mass[s];
            if mass[l] < UNIT {
                nl -= 1;
                small[ns] = l as u16;
                ns += 1;
            }
        }
        // The masses sum to EVENTS units, so the small buckets run out
        // first and every large one left holds exactly one unit.
        debug_assert_eq!(ns, 0);
        for &l in &large[..nl] {
            let l = usize::from(l);
            debug_assert_eq!(mass[l], UNIT);
            self.thresh[l] = u32::MAX;
            self.alias[l] = l as u16;
        }
    }

    /// The event of draw `r`. Own event or alias is a coin flip to a
    /// branch predictor, so both are loaded and one is picked by mask.
    #[inline]
    fn event(&self, r: u64) -> usize {
        let b = (r >> 55) as usize;
        let alias = usize::from(self.alias[b]);
        let keep = usize::from((r as u32) < self.thresh[b]).wrapping_neg();
        alias ^ ((alias ^ b) & keep)
    }
}

impl SlicedFailureMask {
    /// An empty mask; buffers grow on first sample.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to all-normal in every lane over `m` switches, reusing
    /// allocations. After a sparse fill this is O(failed switches), not
    /// O(m) — the point of the dirty list.
    pub(crate) fn reset(&mut self, m: usize) {
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
    pub(crate) fn usable_word(&self, i: usize) -> u64 {
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

    /// Switches that failed in *some* lane, each exactly once, in
    /// ascending order. O(that count) after a sparse fill —
    /// fault-dependent passes (repair masks, contraction) iterate this
    /// instead of all `m` switches.
    pub fn iter_failed_switches(&self) -> impl Iterator<Item = usize> + '_ {
        self.dirty[..self.dirty_len].iter().map(|&i| i as usize)
    }

    /// Unpacks lane `lane` into a scalar [`FailureInstance`] — the bridge
    /// to every per-instance scalar kernel (the fallback contract: a
    /// lane that needs a full answer is extracted and replayed
    /// scalar-side). O(failed switches).
    pub fn extract_lane_into(&self, lane: usize, out: &mut FailureInstance) {
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
    /// See the [module docs](self): below [`Self::DENSE_CUTOFF`] one
    /// ascending alias-table walk over `j = 64·switch + lane` visits
    /// only the failed lanes; at or above it a bit-sliced MSB-first
    /// comparator shares draws across lanes. Lane *i* is not the *i*-th
    /// scalar [`FailureInstance::sample`]: scalar references take their
    /// trials from the lanes instead.
    pub fn sample_sliced_into(&self, rng: &mut SmallRng, m: usize, out: &mut SlicedFailureMask) {
        out.reset(m);
        let p = self.total();
        if p <= 0.0 || m == 0 {
            return;
        }
        if p >= Self::DENSE_CUTOFF {
            self.sample_sliced_dense(rng, m, out);
        } else {
            self.sample_sliced_sparse(rng, m, out);
        }
    }

    /// Sparse regime: walk the flattened positions `j = 64·switch +
    /// lane` in ascending order, one alias-table draw per failed lane
    /// (plus one `f64` for a gap ≥ [`TAIL_GAP`]).
    fn sample_sliced_sparse(&self, rng: &mut SmallRng, m: usize, out: &mut SlicedFailureMask) {
        out.gaps.ensure(self);
        let ln_q = (-self.total()).ln_1p();
        let end = m * LANES;
        let mut j = 0usize;
        while j < end {
            let c = out.gaps.event(rng.random::<u64>());
            let mut gap = c >> 1;
            if gap == TAIL_GAP {
                // Memoryless: past TAIL_GAP normal positions the gap
                // starts afresh, ⌊ln u / ln q⌋ ~ Geometric(p). As in the
                // scalar loop, the compare and the cast do the floor.
                let skip = rng.random::<f64>().ln() / ln_q;
                if skip >= (end - j) as f64 - TAIL_GAP as f64 {
                    break;
                }
                gap += skip as usize;
            }
            j += gap;
            if j >= end {
                break;
            }
            out.set_lane(j / LANES, 1 << (j % LANES), c & 1 == 0);
            j += 1;
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
    use ft_graph::ids::EdgeId;

    fn brute_dirty(m: &SlicedFailureMask) -> Vec<usize> {
        (0..m.len()).filter(|&i| m.failed_word(i) != 0).collect()
    }

    /// Lattice mass of every event: its own bucket's threshold plus
    /// the remainders of the buckets aliased to it, and how many
    /// buckets contribute.
    fn table_masses(table: &GapTable) -> ([u64; EVENTS], [u64; EVENTS]) {
        let (mut mass, mut buckets) = ([0u64; EVENTS], [0u64; EVENTS]);
        for b in 0..EVENTS {
            let (own, alias) = (u64::from(table.thresh[b]), usize::from(table.alias[b]));
            mass[b] += own;
            mass[alias] += UNIT - own;
            buckets[b] += 1;
            buckets[alias] += u64::from(alias != b);
        }
        (mass, buckets)
    }

    #[test]
    fn alias_table_masses_match_the_lattice_targets() {
        let mut table = GapTable::default();
        for (e1, e2) in [(1e-6, 1e-6), (1e-3, 4e-3), (0.02, 0.02), (0.05, 0.01)] {
            let model = FailureModel::new(e1, e2);
            assert!(model.total() < FailureModel::DENSE_CUTOFF);
            table.ensure(&model);
            let (mass, buckets) = table_masses(&table);
            assert_eq!(mass.iter().sum::<u64>(), UNIT * EVENTS as u64);
            let q = 1.0 - model.total();
            for c in 0..EVENTS {
                let k = c >> 1;
                let eps = if c & 1 == 0 { e1 } else { e2 };
                let prob = if k < TAIL_GAP {
                    q.powi(k as i32) * eps
                } else {
                    q.powi(TAIL_GAP as i32) * eps / model.total()
                };
                let target = prob * (UNIT * EVENTS as u64) as f64;
                assert!(
                    (mass[c] as f64 - target).abs() <= buckets[c] as f64,
                    "({e1}, {e2}) event {c}: mass {} vs target {target}",
                    mass[c]
                );
            }
        }
    }

    #[test]
    fn alias_table_follows_the_last_sparse_model() {
        let built = |model: &FailureModel| {
            let mut table = GapTable::default();
            table.ensure(model);
            table
        };
        let (a, b) = (FailureModel::symmetric(0.02), FailureModel::new(0.05, 0.01));
        let dense = FailureModel::symmetric(0.2);
        let mut sliced = SlicedFailureMask::new();
        // a dense fill leaves the table alone; a new model rebuilds it
        for (model, table_for) in [(&a, &a), (&dense, &a), (&b, &b), (&a, &a)] {
            model.sample_sliced_into(&mut rng(1), 50, &mut sliced);
            assert_eq!(sliced.gaps, built(table_for), "{model:?}");
        }
    }

    /// The sparse walk written the slow way: visit every (switch,
    /// lane) position in switch-major order, count the pending gap down
    /// one position at a time, and draw the next event from the same
    /// RNG and table when the previous failure has been placed.
    fn replay_sparse(model: &FailureModel, seed: u64, m: usize) -> Vec<FailureInstance> {
        let mut table = GapTable::default();
        table.ensure(model);
        let mut r = rng(seed);
        let mut lanes = vec![FailureInstance::perfect(m); LANES];
        let mut pending: Option<(u64, SwitchState)> = None;
        for switch in 0..m {
            for lane in lanes.iter_mut() {
                let (left, state) = *pending.get_or_insert_with(|| {
                    let draw = r.random::<u64>();
                    let bucket = (draw >> 55) as usize;
                    let c = if (draw as u32) < table.thresh[bucket] {
                        bucket
                    } else {
                        usize::from(table.alias[bucket])
                    };
                    let mut gap = (c >> 1) as u64;
                    if gap == TAIL_GAP as u64 {
                        let u: f64 = r.random();
                        gap = gap.saturating_add((u.ln() / (-model.total()).ln_1p()) as u64);
                    }
                    let state = [SwitchState::Open, SwitchState::Closed][c & 1];
                    (gap, state)
                });
                if left == 0 {
                    lane.set(switch, state);
                    pending = None;
                } else {
                    pending = Some((left - 1, state));
                }
            }
        }
        lanes
    }

    #[test]
    fn sparse_lanes_equal_the_position_by_position_replay() {
        // tail-heavy: most gaps ≥ TAIL_GAP; table-heavy: almost none
        let tail_heavy = FailureModel::new(5e-4, 1e-3);
        let table_heavy = FailureModel::new(0.03, 0.02);
        let mut sliced = SlicedFailureMask::new();
        let mut lane = FailureInstance::default();
        for model in [tail_heavy, table_heavy] {
            for m in [0, 1, 63, 700] {
                for seed in [3, 4] {
                    model.sample_sliced_into(&mut rng(seed), m, &mut sliced);
                    let want = replay_sparse(&model, seed, m);
                    for (l, want) in want.iter().enumerate() {
                        sliced.extract_lane_into(l, &mut lane);
                        assert_eq!(&lane, want, "{model:?} m = {m} seed {seed} lane {l}");
                    }
                    assert_dirty_exact(&sliced, &format!("{model:?} m = {m}"));
                }
            }
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
        let mut a = FailureInstance::default();
        let mut b = FailureInstance::default();
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
    /// word, each once, in ascending order (as both fills write it).
    fn assert_dirty_exact(sliced: &SlicedFailureMask, what: &str) {
        let logged: Vec<usize> = sliced.iter_failed_switches().collect();
        assert_eq!(logged, brute_dirty(sliced), "{what}");
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
    fn first_touch_log_fills_to_its_last_slot() {
        // every switch touched, in every lane and both planes, three
        // times over: the log fills to its last slot on the first round
        // and repeat touches never advance it
        let mut sliced = SlicedFailureMask::new();
        for m in [0, 1, 12] {
            sliced.reset(m);
            for round in 0..3 {
                for lane in 0..LANES {
                    for i in (0..m).rev() {
                        sliced.set_lane(i, 1 << lane, (i + lane + round) % 2 == 0);
                        let first = round == 0 && lane == 0;
                        assert_eq!(sliced.dirty_len, if first { m - i } else { m });
                    }
                }
            }
            // logged once each, in first-touch order
            let logged: Vec<usize> = sliced.iter_failed_switches().collect();
            assert_eq!(logged, (0..m).rev().collect::<Vec<_>>(), "m = {m}");
            assert!((0..m).all(|i| sliced.failed_word(i) == !0));
            sliced.reset(m);
            assert!((0..m).all(|i| sliced.failed_word(i) == 0));
            assert_eq!(sliced.iter_failed_switches().count(), 0);
        }
    }

    #[test]
    fn first_touch_log_survives_its_edge_cases() {
        let near_cutoff = FailureModel::new(0.03, FailureModel::DENSE_CUTOFF - 0.03 - 1e-9);
        assert!(near_cutoff.total() < FailureModel::DENSE_CUTOFF);
        let sparse = FailureModel::symmetric(0.005);
        let dense = FailureModel::symmetric(0.2);
        let mut sliced = SlicedFailureMask::new();
        // one mask reused throughout: m = 0 and m = 1, shrink and
        // regrow, dense → sparse → dense
        let steps = [
            (&near_cutoff, 0),
            (&near_cutoff, 1),
            (&near_cutoff, 12),
            (&dense, 12),
            (&sparse, 12),
            (&dense, 900),
            (&sparse, 900),
            (&near_cutoff, 5),
            (&dense, 0),
            (&sparse, 300),
        ];
        for (step, (model, m)) in steps.into_iter().enumerate() {
            model.sample_sliced_into(&mut rng(40 + step as u64), m, &mut sliced);
            assert_eq!(sliced.len(), m, "step {step}");
            assert_dirty_exact(&sliced, &format!("step {step} (m = {m})"));
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
        let mut lane = FailureInstance::default();
        for l in [0, 17, 63] {
            sliced.extract_lane_into(l, &mut lane);
            for i in 0..400 {
                assert_eq!(
                    lane.state(EdgeId::from(i)),
                    sliced.lane_state(i, l),
                    "lane {l} switch {i}"
                );
            }
        }
    }
}
