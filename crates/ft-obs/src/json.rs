//! Byte-level JSON: the number renderers of the NDJSON trace and
//! [`JsonWriter`], the writer every other JSON artifact goes through.
//!
//! `push_u64` and `push_f64` append straight to a `Vec<u8>` and produce
//! exactly the bytes `format!("{n}")` and `format!("{x}")` do. Integers
//! go through a two-digits-per-step table. Floats take an exact
//! shortest-round-trip fast path (`shortest_fixed`) and fall back to
//! `core::fmt` only outside its scope, so the trace's `t` and `span`
//! values, which almost all lie inside it, never touch the formatter.

use std::io::Write as _;

/// `"00" "01" … "99"`: two decimal digits per table step.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Writes `n` in decimal into the tail of `out`; returns where it starts.
fn decimal(mut n: u64, out: &mut [u8; 20]) -> usize {
    let mut at = out.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        out[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        out[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        out[at] = b'0' + n as u8;
    }
    at
}

/// Appends `n` in decimal, as `{n}` would.
pub(crate) fn push_u64(buf: &mut Vec<u8>, n: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let at = decimal(n, &mut digits);
    buf.extend_from_slice(&digits[at..]);
}

/// Appends `x` exactly as `{x}` (`Display`) would: the shortest decimal
/// that parses back to `x`, in positional notation.
pub(crate) fn push_f64(buf: &mut Vec<u8>, x: f64) {
    let Some((n, d)) = shortest_fixed(x) else {
        let _ = write!(buf, "{x}");
        return;
    };
    let mut digits = [0u8; 20];
    let at = decimal(n, &mut digits);
    let digits = &digits[at..];
    let d = d as usize;
    if d == 0 {
        buf.extend_from_slice(digits);
    } else if digits.len() > d {
        let (int, frac) = digits.split_at(digits.len() - d);
        buf.extend_from_slice(int);
        buf.push(b'.');
        buf.extend_from_slice(frac);
    } else {
        buf.extend_from_slice(b"0.");
        buf.resize(buf.len() + d - digits.len(), b'0');
        buf.extend_from_slice(digits);
    }
}

/// `10^0 ..= 10^20`: every digit count `shortest_fixed` can pick.
const POW10: [u128; 21] = {
    let mut t = [1u128; 21];
    let mut i = 1;
    while i < t.len() {
        t[i] = t[i - 1] * 10;
        i += 1;
    }
    t
};

/// `x` as `n / 10^d` with the fewest fractional digits `d` that parse
/// back to `x`, where `n` is the nearest such integer to `x·10^d` — the
/// answer `{x}` prints — or `None` where the fast path does not apply.
///
/// Scope: `x = m·2^-s` positive and normal, `m` its 53-bit significand
/// and not a power of two, `2 ≤ s ≤ 66`. Then the decimals that round
/// to `x` are those between the midpoints to its neighbours,
/// `(2m∓1)·2^-(s+1)`. Parsing rounds half to even, so the interval is
/// closed when `m` is even, but with `d ≤ s` digits its scaled ends
/// `(2m∓1)·10^d / 2^(s+1)` are never integers (the numerator has only
/// `d` factors of two), so open and closed admit the same candidates.
/// The scaled interval is `10^d/2^s` units wide: at most one unit at
/// `d0 = ⌊s·log₁₀2⌋ ≤ 19` and more than one, so never empty, at
/// `d0 + 1 ≤ 20`, which bounds `d` and keeps every quantity exact in
/// `u128` arithmetic (`(2m+1)·10^20 < 2^121`). Zero, subnormals,
/// non-finite and negative values, powers of two (whose lower neighbour
/// is half as far away), `s` outside its range, and a nearest integer
/// that is a tie or lies outside the interval all return `None`.
fn shortest_fixed(x: f64) -> Option<(u64, u32)> {
    let bits = x.to_bits();
    let exponent = (bits >> 52) as u32; // sign bit included: negatives are ≥ 2048
    let fraction = bits & ((1 << 52) - 1);
    if !(1..=2046).contains(&exponent) || fraction == 0 {
        return None;
    }
    let m = u128::from((1u64 << 52) | fraction);
    let s = 1075u32
        .checked_sub(exponent)
        .filter(|s| (2..=66).contains(s))?;
    // With `d` fractional digits, `x·10^d = v·2^-s` for `v = m·10^d`, and
    // the candidates are the integers k with 2v−10^d < k·unit < 2v+10^d.
    let unit = 1u128 << (s + 1);
    let scale = |d: u32| {
        let p = POW10[d as usize];
        let v = m * p;
        (v, 2 * v - p, 2 * v + p)
    };
    // There is a candidate iff the last multiple of `unit` below the
    // upper end lies above the lower one: a mask, not a shift.
    let holds = |&(_, low, high): &(u128, u128, u128)| (high - 1) & !(unit - 1) > low;
    // Once an integer fits, ten times it fits one digit later, so the
    // shortest `d` is d0 if d0 holds and d0 + 1 otherwise, and below
    // that only while the interval still holds an integer. d0 holds for
    // 55 % of the stamps of a `sim_clos_storm` trace and 33 % of a
    // `sim_ftn_hotspot` one, so the pick is a select; d0 − 1 holds for
    // 5.5 % and 3.2 %, so the walk down branches.
    let d0 = (s * 78_913) >> 18;
    let (at_d0, above) = (scale(d0), scale(d0 + 1));
    let (mut d, mut fit) =
        std::hint::select_unpredictable(holds(&at_d0), (d0, at_d0), (d0 + 1, above));
    while d > 0 {
        let shorter = scale(d - 1);
        if !holds(&shorter) {
            break;
        }
        (d, fit) = (d - 1, shorter);
    }
    let (v, low, high) = fit;
    let (rest, half) = (v & ((unit >> 1) - 1), unit >> 2);
    if rest == half {
        return None;
    }
    let n = (v >> s) + u128::from(rest > half);
    let at = n << (s + 1);
    if !(low < at && at < high) {
        return None;
    }
    Some((u64::try_from(n).ok()?, d))
}

/// Appends `s` as a JSON string literal: quotes, `\"`, `\\`, `\n`, and
/// `\u00XX` for the other control characters.
fn push_str(buf: &mut Vec<u8>, s: &str) {
    buf.push(b'"');
    for b in s.bytes() {
        match b {
            b'"' => buf.extend_from_slice(b"\\\""),
            b'\\' => buf.extend_from_slice(b"\\\\"),
            b'\n' => buf.extend_from_slice(b"\\n"),
            b if b < 0x20 => {
                let _ = write!(buf, "\\u{b:04x}");
            }
            b => buf.push(b),
        }
    }
    buf.push(b'"');
}

/// A value [`JsonWriter`] renders as one JSON scalar.
pub trait Scalar {
    /// Appends the JSON text of `self` to `buf`.
    fn write_json(&self, buf: &mut Vec<u8>);
}

/// A number with a fixed count of decimals: `Fixed(x, d)` renders as
/// `format!("{x:.d$}")` does.
#[derive(Clone, Copy, Debug)]
pub struct Fixed(pub f64, pub usize);

/// `impl Scalar for $t` with `$v: &$t` appended to `$buf` by `$write`.
macro_rules! scalars {
    ($($t:ty => |$v:ident, $buf:ident| $write:expr;)+) => {$(
        impl Scalar for $t {
            fn write_json(&self, $buf: &mut Vec<u8>) {
                let $v = self;
                $write;
            }
        }
    )+};
}

scalars! {
    u64 => |v, buf| push_u64(buf, *v);
    u32 => |v, buf| push_u64(buf, u64::from(*v));
    usize => |v, buf| push_u64(buf, *v as u64);
    f64 => |v, buf| push_f64(buf, *v);
    bool => |v, buf| buf.extend_from_slice(if *v { b"true" } else { b"false" });
    str => |v, buf| push_str(buf, v);
    String => |v, buf| push_str(buf, v);
    Fixed => |v, buf| write!(buf, "{:.*}", v.1, v.0).expect("writing to a Vec cannot fail");
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_json(&self, buf: &mut Vec<u8>) {
        (**self).write_json(buf);
    }
}

/// How a container lays out its members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented two spaces per open container; the
    /// closing bracket gets a line of its own.
    Block,
    /// All members on one line: `{"a": 1, "b": 2}`, `[1, 2]`.
    Inline,
}

/// The one JSON writer of the workspace: reports, study tables, the
/// service report and replay streams all go through it.
///
/// Containers open with [`object`](Self::object) or [`array`](Self::array)
/// and close with [`end`](Self::end); an object member is a
/// [`key`](Self::key) followed by its value, and [`field`](Self::field)
/// writes a key with a scalar. The writer places the `, ` or `,\n`
/// between members and the indentation itself, and ends every top-level
/// value with a newline — one value is a document, a run of inline
/// objects is NDJSON. Numbers render exactly as `{n}` and `{x}` print
/// them (through `push_u64`/`push_f64`), strings escaped.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: Vec<u8>,
    /// Open containers, innermost last: closing byte, layout, and
    /// whether a member has been written.
    stack: Vec<(u8, Layout, bool)>,
    /// A key was just written, so its value takes no separator.
    keyed: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens an object as the next value.
    pub fn object(&mut self, layout: Layout) -> &mut Self {
        self.open(b'{', b'}', layout)
    }

    /// Opens an array as the next value.
    pub fn array(&mut self, layout: Layout) -> &mut Self {
        self.open(b'[', b']', layout)
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) -> &mut Self {
        let (close, layout, _) = self.stack.pop().expect("end() without an open container");
        if layout == Layout::Block {
            self.newline();
        }
        self.buf.push(close);
        self.ended()
    }

    /// Starts the object member `key`; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        push_str(&mut self.buf, key);
        self.buf.extend_from_slice(b": ");
        self.keyed = true;
        self
    }

    /// Writes a scalar as the next value.
    pub fn value(&mut self, v: impl Scalar) -> &mut Self {
        self.separate();
        v.write_json(&mut self.buf);
        self.ended()
    }

    /// Writes the object member `key: v`.
    pub fn field(&mut self, key: &str, v: impl Scalar) -> &mut Self {
        self.key(key).value(v)
    }

    /// The text written; every container must be closed.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty(), "finish() with an open container");
        String::from_utf8(self.buf).expect("the writer emits UTF-8 only")
    }

    fn open(&mut self, open: u8, close: u8, layout: Layout) -> &mut Self {
        self.separate();
        self.buf.push(open);
        self.stack.push((close, layout, false));
        self
    }

    /// Writes what goes before the next value: nothing after a key or at
    /// the top level, else the innermost container's separator.
    fn separate(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        let Some((_, layout, started)) = self.stack.last_mut() else {
            return;
        };
        let (layout, first) = (*layout, !std::mem::replace(started, true));
        match layout {
            Layout::Block => {
                if !first {
                    self.buf.push(b',');
                }
                self.newline();
            }
            Layout::Inline if !first => self.buf.extend_from_slice(b", "),
            Layout::Inline => {}
        }
    }

    /// A line break indented to the depth of the open containers.
    fn newline(&mut self) {
        self.buf.push(b'\n');
        let indent = self.buf.len() + 2 * self.stack.len();
        self.buf.resize(indent, b' ');
    }

    /// Ends a top-level value with its newline.
    fn ended(&mut self) -> &mut Self {
        if self.stack.is_empty() {
            self.buf.push(b'\n');
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escaping() {
        let lit = |s: &str| {
            let mut buf = Vec::new();
            push_str(&mut buf, s);
            String::from_utf8(buf).unwrap()
        };
        assert_eq!(lit("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(lit("\u{1}"), "\"\\u0001\"");
        assert_eq!(lit("𝒩 ν=1"), "\"𝒩 ν=1\"");
    }

    #[test]
    fn writer_places_separators_and_indentation() {
        let mut j = JsonWriter::new();
        j.object(Layout::Block)
            .field("name", "a\"b")
            .key("empty")
            .array(Layout::Block)
            .end()
            .key("list")
            .array(Layout::Inline)
            .value(1u64)
            .value(2.5)
            .end()
            .key("nested")
            .object(Layout::Block)
            .key("row")
            .object(Layout::Inline)
            .field("ok", true)
            .field("x", Fixed(1.0, 3))
            .end()
            .end()
            .end();
        j.object(Layout::Inline).end();
        assert_eq!(
            j.finish(),
            "{\n  \"name\": \"a\\\"b\",\n  \"empty\": [\n  ],\n  \"list\": [1, 2.5],\n  \
             \"nested\": {\n    \"row\": {\"ok\": true, \"x\": 1.000}\n  }\n}\n{}\n"
        );
    }

    /// splitmix64: a seeded stream for the differential tests.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in [0, 1) on the 53-bit grid.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Renders `x` through [`push_f64`] and checks it against `{x}`;
    /// returns whether the fast path answered.
    fn check(x: f64, buf: &mut Vec<u8>) -> bool {
        buf.clear();
        push_f64(buf, x);
        let want = format!("{x}");
        assert_eq!(
            std::str::from_utf8(buf).unwrap(),
            want,
            "bits {:#018x}",
            x.to_bits()
        );
        shortest_fixed(x).is_some()
    }

    /// The regimes the differential tests draw from, `per` values each.
    fn regimes(seed: u64, per: usize) -> [(&'static str, usize); 5] {
        let (mut r, mut buf) = (Stream(seed), Vec::new());
        let mut run = |draw: &mut dyn FnMut(&mut Stream) -> f64| {
            (0..per).filter(|_| check(draw(&mut r), &mut buf)).count()
        };
        // Event times as the engine makes them: running sums of
        // exponential steps, a thousandth of the clock on average, so
        // the clock sweeps 1e-3 ..= 1e5 log-uniformly and starts over.
        let mut clock = 1e-3;
        let mut event_time = move |r: &mut Stream| {
            clock += clock * 1e-3 * -(1.0 - r.unit()).ln();
            if clock > 1e5 {
                clock = 1e-3;
            }
            clock
        };
        [
            ("sim times in [0, 1e4)", run(&mut |r| r.unit() * 1e4)),
            ("[0, 1)", run(&mut |r| r.unit())),
            (
                "positive bit patterns",
                run(&mut |r| f64::from_bits(r.next() >> 1)),
            ),
            (
                "short decimals k/10^j",
                run(&mut |r| {
                    let k = r.next() % 10_000_000;
                    k as f64 / 10f64.powi((r.next() % 9) as i32)
                }),
            ),
            ("event times 1e-3..=1e5", run(&mut event_time)),
        ]
    }

    #[test]
    fn push_u64_matches_format() {
        let mut buf = Vec::new();
        let mut r = Stream(1);
        let mut values = vec![0, 9, 10, 99, 100, 101, 999, 1000, u64::MAX];
        values.extend((0..20).map(|i| 10u64.pow(i)));
        values.extend((0..10_000).map(|_| r.next() >> (r.next() % 64)));
        for n in values {
            buf.clear();
            push_u64(&mut buf, n);
            assert_eq!(buf, n.to_string().as_bytes());
        }
    }

    #[test]
    fn push_f64_matches_format_on_edges() {
        let mut buf = Vec::new();
        let mut edges = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -1.5,
            1e21,
            1e-7,
            0.1,
            0.3,
            2.5,
            7.75,
            (1u64 << 52) as f64 + 1.0,
            (1u64 << 52) as f64 - 1.0,
            (1u64 << 53) as f64,
            (1u64 << 53) as f64 + 2.0,
            1e300,
        ];
        edges.extend((-1074..=1023).map(|e| 2f64.powi(e)));
        // s = 1, 2, 66, 67: the significand 2^52 + 1 at each scale
        for s in [1, 2, 66, 67] {
            edges.push(((1u64 << 52) + 1) as f64 * 2f64.powi(-s));
            edges.push(((1u64 << 53) - 1) as f64 * 2f64.powi(-s));
        }
        for x in edges {
            check(x, &mut buf);
        }
        // The digit count `shortest_fixed` starts from is ⌊s·log₁₀2⌋,
        // so one digit more always holds an integer.
        for s in 2..=66u32 {
            let d0 = (s * 78_913) >> 18;
            assert!(POW10[d0 as usize] <= 1 << s && 1 << s < POW10[d0 as usize + 1]);
        }
        assert_eq!(shortest_fixed(7.75), Some((775, 2)));
        assert_eq!(shortest_fixed(0.5), None, "powers of two fall back");
        assert_eq!(shortest_fixed(-2.5), None, "negatives fall back");
        assert_eq!(shortest_fixed(1e21), None, "s < 2 falls back");
    }

    /// 2.5·10⁵ seeded values against `format!`, and the fast path must
    /// answer at least 99 % of both sim-time regimes, so an
    /// implementation that always falls back fails here.
    #[test]
    fn push_f64_matches_format_on_seeded_values() {
        let per = 50_000;
        let fast = regimes(0x5EED, per);
        assert!(fast[0].1 * 100 >= per * 99, "{fast:?}");
        assert!(fast[4].1 * 100 >= per * 99, "{fast:?}");
    }

    /// The soak: 1.25·10⁸ values over the same regimes.
    ///
    /// `cargo test --release -p ft-obs push_f64_soak -- --ignored --nocapture`
    #[test]
    #[ignore]
    fn push_f64_soak() {
        let per = 25_000_000;
        let fast = regimes(0x50A6, per);
        println!("fast-path answers per {per} values: {fast:?}");
    }
}
