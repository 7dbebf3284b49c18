//! Deterministic log-bucketed streaming histogram.
//!
//! `Hist` replaces full per-sample vectors for latency/occupancy style
//! distributions: memory is O(occupied buckets) instead of O(samples),
//! and two histograms merge by summing counts bucket-by-bucket — an
//! associative, commutative operation on exact `u64` counters, so the
//! merged result (and every quantile read from it) is byte-identical
//! regardless of how samples were partitioned across seeds, threads, or
//! cache generations.
//!
//! # Bucket layout
//!
//! Buckets are derived from the IEEE-754 bit pattern of the sample, so
//! indexing is exact integer arithmetic (no `log()` calls, no
//! platform-dependent rounding):
//!
//! * bucket `0` — values `<= 0` (and `-0.0`),
//! * bucket `1` — underflow: positive values below `2^-32`,
//! * buckets `2 ..= 2049` — one octave per power of two in
//!   `[2^-32, 2^32)`, each split into 32 linear sub-buckets keyed by the
//!   top 5 mantissa bits (relative width `2^-5`, i.e. ≤ 3.125% error at
//!   the bucket's lower edge),
//! * bucket `2050` — overflow: values `>= 2^32` (including `+inf`).
//!
//! Every non-negative integer `0 ..= 63` lands exactly on a bucket lower
//! edge, so quantiles over small-integer samples (event-count latencies,
//! path lengths, occupancies) are *exact*; continuous samples report the
//! lower edge of their bucket.

/// Bucket for values `<= 0`.
const ZERO: u32 = 0;
/// Bucket for positive values below `2^MIN_EXP`.
const UNDERFLOW: u32 = 1;
/// First octave bucket.
const FIRST_NORMAL: u32 = 2;
/// Number of octaves covered exactly: unbiased exponents `-32 ..= 31`.
const OCTAVES: u32 = 64;
/// Linear sub-buckets per octave (top 5 mantissa bits).
const SUBBUCKETS: u32 = 32;
/// Bucket for values `>= 2^(MAX_EXP+1)` (including `+inf`).
const OVERFLOW: u32 = FIRST_NORMAL + OCTAVES * SUBBUCKETS;
const MIN_EXP: i32 = -32;
const MAX_EXP: i32 = 31;

/// Map a sample to its bucket index. Total ordering of buckets matches
/// the ordering of the values they cover.
#[inline]
pub fn bucket_index(v: f64) -> u32 {
    if v.is_nan() {
        // NaN has no place on the value axis; park it deterministically
        // in the overflow bucket rather than poisoning the histogram.
        return OVERFLOW;
    }
    if v <= 0.0 {
        return ZERO;
    }
    let bits = v.to_bits();
    let biased = (bits >> 52) as i32; // sign bit is clear: v > 0
    if biased == 0 {
        return UNDERFLOW; // subnormal
    }
    let e = biased - 1023;
    if e < MIN_EXP {
        return UNDERFLOW;
    }
    if e > MAX_EXP {
        return OVERFLOW; // includes +inf (biased exponent 2047)
    }
    let sub = ((bits >> 47) & 0x1f) as u32;
    FIRST_NORMAL + (e - MIN_EXP) as u32 * SUBBUCKETS + sub
}

/// Total number of buckets: the length of dense bucket-indexed scratch
/// arrays that hot recording loops accumulate into before folding them
/// in via [`Hist::record_bucket_n`].
pub const NUM_BUCKETS: usize = OVERFLOW as usize + 1;

/// Lower edge of a bucket: the smallest value that maps into it (0.0 for
/// the zero and underflow buckets, `2^32` for overflow). Quantiles
/// report this edge, which keeps them exact for integer samples below 64.
#[inline]
pub fn bucket_lower_edge(idx: u32) -> f64 {
    if idx <= UNDERFLOW {
        return 0.0;
    }
    if idx >= OVERFLOW {
        return 4_294_967_296.0; // 2^32
    }
    let k = (idx - FIRST_NORMAL) as u64;
    let octave = k / SUBBUCKETS as u64;
    let sub = k % SUBBUCKETS as u64;
    // biased exponent = (octave + MIN_EXP) + 1023 = octave + 991
    f64::from_bits((octave + 991) << 52 | sub << 47)
}

/// Sparse streaming histogram over log-spaced buckets.
///
/// Occupied buckets are kept as a `(index, count)` vector sorted by
/// index, so equality, hashing of the rendered form, and the cache text
/// encoding are all canonical: two histograms built from the same
/// multiset of samples — in any order, across any partition — are equal
/// and render to identical bytes.
#[derive(Clone, Debug, Default)]
pub struct Hist {
    buckets: Vec<(u32, u64)>,
    /// Cursor to the bucket the last `record*` touched — a pure lookup
    /// cache (excluded from equality) that makes streams of repeating
    /// or slowly drifting values (occupancies, path lengths, setup
    /// costs) O(1) per sample instead of a binary search.
    cursor: usize,
}

/// Equality is over the recorded distribution only; the record cursor
/// is a lookup cache and never observable.
impl PartialEq for Hist {
    fn eq(&self, other: &Self) -> bool {
        self.buckets == other.buckets
    }
}

impl Eq for Hist {}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of the same value.
    #[inline]
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(v);
        if let Some(&mut (i, ref mut c)) = self.buckets.get_mut(self.cursor) {
            if i == idx {
                *c += n;
                return;
            }
        }
        self.record_slow(idx, n);
    }

    /// Record `n` samples directly into bucket `idx` (as produced by
    /// [`bucket_index`]): the fold side of dense-scratch accumulation,
    /// equivalent to `record_n` of any value mapping to `idx`.
    pub fn record_bucket_n(&mut self, idx: u32, n: u64) {
        assert!(idx <= OVERFLOW, "bucket index {idx} out of range");
        if n > 0 {
            self.record_slow(idx, n);
        }
    }

    /// Binary-search fallback when the cursor misses; keeps the hot
    /// `record_n` body small enough to inline at every call site.
    fn record_slow(&mut self, idx: u32, n: u64) {
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => {
                self.buckets[pos].1 += n;
                self.cursor = pos;
            }
            Err(pos) => {
                self.buckets.insert(pos, (idx, n));
                self.cursor = pos;
            }
        }
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|&(_, c)| c).sum()
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Number of occupied buckets (the memory bound).
    pub fn occupied(&self) -> usize {
        self.buckets.len()
    }

    /// Fold another histogram into this one: a sorted merge summing
    /// counts per bucket. Associative and commutative, and therefore
    /// byte-identical no matter how the sample stream was partitioned.
    pub fn merge(&mut self, other: &Hist) {
        if other.buckets.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (0, 0);
        while a < self.buckets.len() && b < other.buckets.len() {
            let (ia, ca) = self.buckets[a];
            let (ib, cb) = other.buckets[b];
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => {
                    merged.push((ia, ca));
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push((ib, cb));
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((ia, ca + cb));
                    a += 1;
                    b += 1;
                }
            }
        }
        merged.extend_from_slice(&self.buckets[a..]);
        merged.extend_from_slice(&other.buckets[b..]);
        self.buckets = merged;
        self.cursor = 0;
    }

    /// Nearest-rank quantile: the lower edge of the bucket holding the
    /// `ceil(p/100 * count)`-th smallest sample. Returns 0.0 on an empty
    /// histogram. Exact for integer samples in `0 ..= 63`; otherwise the
    /// reported edge is within 3.125% below the true sample.
    pub fn quantile(&self, p: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * total as f64).ceil() as u64;
        let rank = rank.clamp(1, total);
        let mut seen = 0u64;
        for &(idx, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return bucket_lower_edge(idx);
            }
        }
        // Unreachable: seen == total >= rank by the clamp above.
        bucket_lower_edge(self.buckets[self.buckets.len() - 1].0)
    }

    /// Iterate occupied `(bucket index, count)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets.iter().copied()
    }

    /// Canonical text form for the flat cell-cache format:
    /// `idx:count,idx:count,...` in index order, or `-` when empty.
    pub fn to_compact_string(&self) -> String {
        if self.buckets.is_empty() {
            return "-".to_string();
        }
        let mut out = String::with_capacity(self.buckets.len() * 8);
        for (k, &(idx, c)) in self.buckets.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!("{idx}:{c}"));
        }
        out
    }

    /// Parse the `to_compact_string` form. Rejects malformed pairs,
    /// zero counts, and out-of-order or duplicate indices, so a cache
    /// round-trip is exact or a clean miss.
    pub fn from_compact_str(s: &str) -> Option<Hist> {
        if s == "-" {
            return Some(Hist::new());
        }
        let mut buckets = Vec::new();
        let mut last: Option<u32> = None;
        for pair in s.split(',') {
            let (idx, count) = pair.split_once(':')?;
            let idx: u32 = idx.parse().ok()?;
            let count: u64 = count.parse().ok()?;
            if count == 0 || idx > OVERFLOW || last.is_some_and(|l| l >= idx) {
                return None;
            }
            last = Some(idx);
            buckets.push((idx, count));
        }
        Some(Hist { buckets, cursor: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank quantile over a sorted slice — the reference
    /// the streaming histogram is checked against.
    fn exact_quantile(sorted: &[f64], p: f64) -> f64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn integers_below_64_are_exact_edges() {
        for k in 0..64u32 {
            let idx = bucket_index(k as f64);
            assert_eq!(bucket_lower_edge(idx), k as f64, "integer {k}");
        }
    }

    #[test]
    fn edges_are_monotone_and_indexing_is_consistent() {
        let mut prev = -1.0f64;
        for idx in 0..=OVERFLOW {
            let edge = bucket_lower_edge(idx);
            assert!(edge >= prev, "edge order at {idx}");
            prev = edge;
            if (FIRST_NORMAL..OVERFLOW).contains(&idx) {
                // A bucket's lower edge maps back to the same bucket.
                assert_eq!(bucket_index(edge), idx, "round trip at {idx}");
            }
        }
    }

    #[test]
    fn special_values_bucket_deterministically() {
        assert_eq!(bucket_index(0.0), ZERO);
        assert_eq!(bucket_index(-3.5), ZERO);
        assert_eq!(bucket_index(1e-300), UNDERFLOW);
        assert_eq!(bucket_index(f64::MIN_POSITIVE / 2.0), UNDERFLOW);
        assert_eq!(bucket_index(1e300), OVERFLOW);
        assert_eq!(bucket_index(f64::INFINITY), OVERFLOW);
        assert_eq!(bucket_index(f64::NAN), OVERFLOW);
        assert_eq!(bucket_index(4_294_967_296.0), OVERFLOW);
        assert_eq!(bucket_index(4_294_967_295.0), OVERFLOW - 1);
    }

    #[test]
    fn quantiles_exact_for_small_integer_samples() {
        // The recovery-metrics shape from the sim: small event counts.
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        let mut h = Hist::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples;
        sorted.sort_by(f64::total_cmp);
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            assert_eq!(h.quantile(p), exact_quantile(&sorted, p), "p={p}");
        }
    }

    #[test]
    fn quantiles_within_relative_bound_for_floats() {
        let mut h = Hist::new();
        let mut samples = Vec::new();
        let mut x = 0.37f64;
        for _ in 0..500 {
            x = (x * 997.0 + 0.123).fract() * 40.0 + 1e-3;
            samples.push(x);
            h.record(x);
        }
        samples.sort_by(f64::total_cmp);
        for p in [1.0, 25.0, 50.0, 75.0, 99.0, 99.9] {
            let exact = exact_quantile(&samples, p);
            let est = h.quantile(p);
            assert!(est <= exact, "edge must not exceed sample (p={p})");
            assert!(
                est >= exact * (1.0 - 1.0 / 32.0) - 1e-12,
                "p={p}: {est} vs {exact}"
            );
        }
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Hist::new().quantile(99.0), 0.0);
        assert_eq!(Hist::new().count(), 0);
    }

    #[test]
    fn merge_matches_single_stream() {
        let vals: Vec<f64> = (0..200)
            .map(|i| (i as f64 * 0.713).sin().abs() * 17.0)
            .collect();
        let mut whole = Hist::new();
        for &v in &vals {
            whole.record(v);
        }
        for split in [1, 3, 7, 50] {
            let mut acc = Hist::new();
            for chunk in vals.chunks(split) {
                let mut part = Hist::new();
                for &v in chunk {
                    part.record(v);
                }
                acc.merge(&part);
            }
            assert_eq!(acc, whole, "split={split}");
        }
    }

    #[test]
    fn compact_string_round_trips() {
        let mut h = Hist::new();
        for v in [0.0, 0.5, 1.0, 1.0, 3.25, 1e9, -2.0] {
            h.record(v);
        }
        let s = h.to_compact_string();
        assert_eq!(Hist::from_compact_str(&s), Some(h));
        assert_eq!(Hist::from_compact_str("-"), Some(Hist::new()));
        assert_eq!(Hist::new().to_compact_string(), "-");
        // Malformed inputs are clean misses, not panics.
        for bad in ["", "1", "1:0", "5:2,3:1", "2:1,2:1", "x:1", "9999999:1"] {
            assert_eq!(Hist::from_compact_str(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn dense_bucket_fold_equals_direct_records() {
        // Accumulate into a dense bucket-indexed scratch, fold it in,
        // and compare against direct recording — the hot-loop pattern
        // the sim uses for occupancy sampling.
        let vals = [0.0, 1.0, 1.0, 2.0, 7.0, 7.0, 7.0, 123.456];
        let mut dense = vec![0u64; NUM_BUCKETS];
        let mut direct = Hist::new();
        for &v in &vals {
            dense[bucket_index(v) as usize] += 1;
            direct.record(v);
        }
        let mut folded = Hist::new();
        for (idx, &n) in dense.iter().enumerate() {
            folded.record_bucket_n(idx as u32, n);
        }
        assert_eq!(folded, direct);
        assert_eq!(folded.to_compact_string(), direct.to_compact_string());
    }

    #[test]
    fn cursor_fast_path_respects_bucket_boundaries() {
        // Walk a value across an octave boundary one bucket-edge at a
        // time. Each exact lower edge must land in its own bucket: a
        // cursor fast path that matched on "close enough" instead of
        // exact index equality would fold neighbouring edges together.
        let edges: Vec<f64> = (FIRST_NORMAL..FIRST_NORMAL + 3 * SUBBUCKETS)
            .map(bucket_lower_edge)
            .collect();
        let mut h = Hist::new();
        for &e in &edges {
            h.record(e); // cursor points at the previous bucket: miss
            h.record(e); // same bucket: fast-path hit
        }
        assert_eq!(h.count(), 2 * edges.len() as u64);
        assert_eq!(h.occupied(), edges.len());
        for (idx, c) in h.iter() {
            assert_eq!(c, 2, "bucket {idx} must hold exactly its two edges");
        }
        // The value just below an edge belongs to the previous bucket
        // even when the cursor sits on the edge's own bucket.
        let edge = bucket_lower_edge(FIRST_NORMAL + SUBBUCKETS);
        let below = f64::from_bits(edge.to_bits() - 1);
        let mut h = Hist::new();
        h.record(edge);
        h.record(below);
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            vec![
                (FIRST_NORMAL + SUBBUCKETS - 1, 1),
                (FIRST_NORMAL + SUBBUCKETS, 1)
            ]
        );
    }

    #[test]
    fn cursor_survives_merge_and_insertion_shifts() {
        // merge() resets the cursor to 0; the next record must still
        // route through the correct bucket rather than trusting a
        // stale position into the rebuilt vector.
        let mut a = Hist::new();
        a.record(7.0);
        a.record(7.0); // cursor on 7.0's bucket
        let mut b = Hist::new();
        b.record(1.0);
        b.record(100.0);
        a.merge(&b);
        a.record(7.0); // cursor points at 1.0's bucket after the merge
        let mut expect = Hist::new();
        for v in [7.0, 7.0, 1.0, 100.0, 7.0] {
            expect.record(v);
        }
        assert_eq!(a, expect);

        // Inserting a bucket *before* the cursor shifts the vector; a
        // follow-up record of the old value must not double-count into
        // the newcomer's slot.
        let mut h = Hist::new();
        h.record(50.0); // cursor = 0 (only bucket)
        h.record(2.0); // inserts before it, cursor = 0 (new bucket)
        h.record(50.0); // cursor miss: must find 50.0's shifted slot
        let mut expect = Hist::new();
        for v in [2.0, 50.0, 50.0] {
            expect.record(v);
        }
        assert_eq!(h, expect);
        assert_eq!(h.to_compact_string(), expect.to_compact_string());
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = Hist::new();
        a.record_n(2.5, 4);
        let mut b = Hist::new();
        for _ in 0..4 {
            b.record(2.5);
        }
        assert_eq!(a, b);
        a.record_n(1.0, 0); // no-op
        assert_eq!(a, b);
    }
}
