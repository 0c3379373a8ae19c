//! Statistics used by the paper's methodology: Student-t confidence
//! intervals over workload-mix populations (§4.1), Spearman rank
//! correlation for comparing design-space rankings (§5), and streaming
//! accumulators for campaign-scale mix populations that are aggregated
//! shard by shard without ever holding the full sample in memory.
//!
//! Both accumulators are *mergeable monoids* — built for the
//! distributed campaign aggregator, whose per-worker partials must
//! tree-reduce to byte-identical results for any worker count and any
//! merge shape: [`StreamingMoments`] (exact fixed-point sums, so its
//! merge is exactly associative) and [`QuantileSketch`] (log-bucket
//! counts, integer-additive merge).

/// Total order over `f64` for sorts, merges and maxima.
///
/// Wraps [`f64::total_cmp`] (IEEE 754 `totalOrder`): identical to
/// `partial_cmp` on the finite values the model produces, but still a
/// total order if a NaN ever slips in (ordered after +∞), so a poisoned
/// input degrades one statistic instead of making sort output — and
/// everything downstream of it — depend on element order. Every float
/// comparator in the workspace routes through here or `f64::total_cmp`
/// directly; the `float-partial-order` lint enforces it.
///
/// # Example
///
/// ```
/// use mppm::stats::total_cmp;
///
/// let mut xs = vec![2.5, f64::NAN, 1.0];
/// xs.sort_by(|a, b| total_cmp(*a, *b));
/// assert_eq!(xs[0], 1.0);
/// assert_eq!(xs[1], 2.5);
/// assert!(xs[2].is_nan());
/// ```
#[must_use]
pub fn total_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    a.total_cmp(&b)
}

/// Number of 32-bit limbs in an [`ExactSum`]. The fixed-point window
/// spans bit positions `EMIN .. EMIN + 32·LIMBS`, wide enough for the
/// square of any finite `f64` (down to `2^-2148`, up past `2^2048`)
/// plus headroom for `2^31` accumulated terms and one carry guard.
const LIMBS: usize = 140;

/// Weight of bit 0 of limb 0: `2^EMIN`. A multiple of 32 below the
/// smallest square of a subnormal (`2^-2148`).
const EMIN: i32 = -2176;

/// Exact fixed-point accumulator for sums of `f64` values (and their
/// squares): a superaccumulator in carry-save form.
///
/// Every finite `f64` is an integer multiple of `2^-1074`, so a wide
/// enough fixed-point integer can hold any sum of them *exactly*.
/// Addition of integers is associative and commutative, which is the
/// whole point: two accumulators can be [`merged`](ExactSum::merge) in
/// any tree shape and any order and represent the same exact value —
/// the property the distributed campaign aggregator's byte-identity
/// guarantee rests on.
///
/// Limbs are signed and lazily carried: each `push` adds at most a few
/// 32-bit chunks, and carries are only propagated when a limb could
/// otherwise overflow (or on read). [`value`](ExactSum::value) rounds
/// the exact total to the nearest `f64` (ties to even), including
/// subnormal and overflow handling.
#[derive(Debug, Clone, PartialEq)]
struct ExactSum {
    /// Limb `i` weighs `2^(EMIN + 32·i)`; signed carry-save digits.
    limbs: [i64; LIMBS],
    /// Contributions since the last carry propagation.
    pending: u32,
}

impl Default for ExactSum {
    fn default() -> Self {
        Self { limbs: [0; LIMBS], pending: 0 }
    }
}

impl ExactSum {
    /// Adds `±m·2^e` (`m < 2^64`) into the limbs. `sign` is `±1`.
    fn add_scaled(&mut self, m: u64, e: i32, sign: i64) {
        if m == 0 {
            return;
        }
        self.reserve(1);
        let p = e - EMIN;
        debug_assert!(p >= 0, "exponent below the accumulator window");
        let mut limb = (p >> 5) as usize;
        // Up to 64 + 31 = 95 significant bits: three or four chunks.
        let mut wide = (m as u128) << (p & 31);
        while wide != 0 {
            self.limbs[limb] += sign * ((wide & 0xFFFF_FFFF) as i64);
            wide >>= 32;
            limb += 1;
        }
    }

    /// Adds the finite value `x` exactly.
    fn add(&mut self, x: f64) {
        let (m, e, sign) = decompose(x);
        self.add_scaled(m, e, sign);
    }

    /// Adds `x²` exactly (always non-negative).
    fn add_square(&mut self, x: f64) {
        let (m, e, _) = decompose(x);
        let sq = (m as u128) * (m as u128);
        self.add_scaled(sq as u64, 2 * e, 1);
        self.add_scaled((sq >> 64) as u64, 2 * e + 64, 1);
    }

    /// Propagates carries if `extra` more contributions could overflow
    /// a limb. After propagation every limb is in `[-2^31, 2^31)`.
    fn reserve(&mut self, extra: u32) {
        if self.pending >= (1 << 30) - extra {
            self.normalize();
        }
        self.pending += extra;
    }

    /// Carry propagation into balanced signed digits.
    fn normalize(&mut self) {
        let mut carry: i64 = 0;
        for l in &mut self.limbs {
            let v = *l + carry;
            let mut r = v & 0xFFFF_FFFF;
            carry = v >> 32;
            if r >= 1 << 31 {
                r -= 1 << 32;
                carry += 1;
            }
            *l = r;
        }
        debug_assert_eq!(carry, 0, "accumulator window exhausted");
        self.pending = 1;
    }

    /// Adds another accumulator; the represented exact value becomes
    /// the sum of both. Associative and commutative by construction.
    fn merge(&mut self, other: &Self) {
        let mut rhs;
        let other = if self.pending as u64 + other.pending as u64 >= 1 << 30 {
            self.normalize();
            rhs = other.clone();
            rhs.normalize();
            &rhs
        } else {
            other
        };
        self.pending += other.pending;
        for (a, b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a += b;
        }
    }

    /// The exact total, rounded to the nearest `f64` (ties to even).
    fn value(&self) -> f64 {
        // Normalize a copy, then convert to sign-magnitude digits.
        let mut acc = self.clone();
        acc.normalize();
        let mut digits = acc.limbs;
        // Balanced digits: the most significant non-zero digit carries
        // the sign of the whole value.
        let Some(top) = digits.iter().rposition(|&d| d != 0) else {
            return 0.0;
        };
        let sign = if digits[top] < 0 { -1.0 } else { 1.0 };
        if digits[top] < 0 {
            for d in &mut digits {
                *d = -*d;
            }
        }
        // Magnitude carry propagation into [0, 2^32).
        let mut carry: i64 = 0;
        for d in &mut digits {
            let v = *d + carry;
            let r = v & 0xFFFF_FFFF;
            carry = v >> 32;
            *d = r;
        }
        debug_assert_eq!(carry, 0);
        let Some(h) = digits.iter().rposition(|&d| d != 0) else {
            return 0.0;
        };
        // mppm-lint: allow(lossy-counter-cast): leading_zeros ≤ 64 and limb index ≤ 67 — bit positions, not counters
        let top_bit = 63 - (digits[h] as u64).leading_zeros() as i32;
        // Absolute exponent of the most significant set bit.
        // mppm-lint: allow(lossy-counter-cast): leading_zeros ≤ 64 and limb index ≤ 67 — bit positions, not counters
        let msb = EMIN + 32 * h as i32 + top_bit;
        // Unit in the last place of the rounding target: 53 bits for
        // normal results, fewer when the value lands in the subnormals.
        let ulp_exp = (msb - 52).max(-1074);
        let ulp_pos = (ulp_exp - EMIN) as usize;
        let (limb0, off) = (ulp_pos >> 5, ulp_pos & 31);
        let mut window: u128 = 0;
        for i in (0..4).rev() {
            let d = digits.get(limb0 + i).copied().unwrap_or(0) as u128;
            window = (window << 32) | d;
        }
        let mut mant = (window >> off) as u64;
        // Round to nearest, ties to even: guard bit plus sticky tail.
        let guard_pos = ulp_pos.wrapping_sub(1);
        let guard = ulp_pos > 0
            && digits[guard_pos >> 5] >> (guard_pos & 31) & 1 == 1;
        let sticky = guard
            && (digits[guard_pos >> 5] & ((1i64 << (guard_pos & 31)) - 1) != 0
                || digits[..guard_pos >> 5].iter().any(|&d| d != 0));
        let mut exp = ulp_exp;
        if guard && (sticky || mant & 1 == 1) {
            mant += 1;
            if mant == 1 << 53 {
                mant = 1 << 52;
                exp += 1;
            }
        }
        if mant == 0 {
            return sign * 0.0;
        }
        if exp > 1023 {
            // Even a 1-bit mantissa at this exponent exceeds f64 range.
            return sign * f64::INFINITY;
        }
        // mant·2^exp is representable (or overflows to ∞): reconstruct
        // with exact power-of-two scaling, split once for subnormals so
        // every intermediate product is exact.
        let pow2 = |e: i32| f64::from_bits(((e + 1023) as u64) << 52);
        let x = if exp >= -1022 {
            mant as f64 * pow2(exp)
        } else {
            (mant as f64 * pow2(exp + 537)) * pow2(-537)
        };
        sign * x
    }
}

/// Splits a finite `f64` into `(mantissa, exponent, sign)` with
/// `|x| = m·2^e`, `m < 2^53`.
fn decompose(x: f64) -> (u64, i32, i64) {
    let bits = x.to_bits();
    let sign = if bits >> 63 == 1 { -1 } else { 1 };
    // mppm-lint: allow(lossy-counter-cast): masked to 11 bits — an IEEE-754 exponent field, not a counter
    let exp_bits = ((bits >> 52) & 0x7FF) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    debug_assert_ne!(exp_bits, 0x7FF, "decompose needs a finite value");
    if exp_bits == 0 {
        (frac, -1074, sign)
    } else {
        (frac | (1 << 52), exp_bits - 1075, sign)
    }
}

/// Streaming mean/variance/min/max accumulator with an *exactly*
/// associative merge.
///
/// Internally keeps the exact sum and sum of squares of all finite
/// observations in fixed-point superaccumulators ([`ExactSum`]), so the
/// derived statistics are a pure function of the observation multiset:
/// pushing in any order, or [`merging`](StreamingMoments::merge)
/// partial accumulators in any tree shape, yields bit-identical
/// `mean()`/`sample_std()`/`min()`/`max()`. That is what lets the
/// campaign aggregator tree-reduce per-shard partials from any number
/// of workers and still reproduce the single-process scan byte for
/// byte.
///
/// Non-finite observations are tracked by kind (they cannot enter an
/// exact sum): any NaN — or both +∞ and −∞ — poisons the mean to NaN,
/// a single infinity sign saturates it, and `sample_std` follows suit.
///
/// # Example
///
/// ```
/// use mppm::stats::StreamingMoments;
///
/// let mut acc = StreamingMoments::new();
/// for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.mean(), Some(3.0));
/// assert_eq!(acc.min(), Some(1.0));
/// assert_eq!(acc.max(), Some(5.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamingMoments {
    count: u64,
    sum: ExactSum,
    sum_sq: ExactSum,
    min: f64,
    max: f64,
    has_nan: bool,
    has_pos_inf: bool,
    has_neg_inf: bool,
}

impl StreamingMoments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: ExactSum::default(),
            sum_sq: ExactSum::default(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            has_nan: false,
            has_pos_inf: false,
            has_neg_inf: false,
        }
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if x.is_nan() {
            self.has_nan = true;
            return;
        }
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x.is_infinite() {
            if x > 0.0 {
                self.has_pos_inf = true;
            } else {
                self.has_neg_inf = true;
            }
            return;
        }
        self.sum.add(x);
        self.sum_sq.add_square(x);
    }

    /// Absorbs another accumulator, as if every observation fed to
    /// `other` had been fed to `self`.
    ///
    /// The merge is associative and commutative *exactly* (not just up
    /// to rounding): the derived statistics depend only on the combined
    /// observation multiset, never on the merge tree. The campaign
    /// merge-invariance property test pins this.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.has_nan |= other.has_nan;
        self.has_pos_inf |= other.has_pos_inf;
        self.has_neg_inf |= other.has_neg_inf;
        self.sum.merge(&other.sum);
        self.sum_sq.merge(&other.sum_sq);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all observations, from the exact sum; `None` before the
    /// first observation.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.has_nan || (self.has_pos_inf && self.has_neg_inf) {
            return Some(f64::NAN);
        }
        if self.has_pos_inf {
            return Some(f64::INFINITY);
        }
        if self.has_neg_inf {
            return Some(f64::NEG_INFINITY);
        }
        Some(self.sum.value() / self.count as f64)
    }

    /// Sample standard deviation (n−1); `None` below two observations.
    ///
    /// Computed from the exact sum and sum of squares. The final
    /// subtraction happens in `f64`, so extreme mean-to-spread ratios
    /// (∼10⁸) lose precision there — but the result is still a pure
    /// function of the observation multiset, so merge invariance holds
    /// regardless.
    pub fn sample_std(&self) -> Option<f64> {
        if self.count < 2 {
            return None;
        }
        if self.has_nan || self.has_pos_inf || self.has_neg_inf {
            return Some(f64::NAN);
        }
        let n = self.count as f64;
        let s = self.sum.value();
        let var = ((self.sum_sq.value() - s * s / n) / (n - 1.0)).max(0.0);
        Some(var.sqrt())
    }

    /// Smallest non-NaN observation; `None` before the first.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest non-NaN observation; `None` before the first.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// A mergeable streaming quantile sketch over base-2 log buckets.
///
/// Observations are bucketed by the top bits of their IEEE-754
/// representation (sign, exponent, and the 8 leading mantissa bits), so
/// each bucket spans a relative width of 2⁻⁸ ≈ 0.4%. Counts live in
/// ordered maps; [`merge`](QuantileSketch::merge) adds counts per
/// bucket, which makes it **exactly associative and commutative** — the
/// sketch state (and every quantile read from it) is a pure function of
/// the observation multiset, independent of push order or merge tree.
/// That is the property the distributed campaign aggregator needs for
/// byte-identical CSV bundles at any worker count.
///
/// Quantiles are nearest-rank over bucket midpoints, clamped into the
/// exactly-tracked `[min, max]`, so relative error is bounded by the
/// bucket width. NaN observations are counted separately and ordered
/// after +∞ (the [`total_cmp`] convention).
///
/// # Example
///
/// ```
/// use mppm::stats::QuantileSketch;
///
/// let mut s = QuantileSketch::new();
/// for i in 1..=1000 {
///     s.push(i as f64);
/// }
/// let median = s.quantile(0.5).unwrap();
/// assert!((median - 500.0).abs() / 500.0 < 0.005, "got {median}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Counts for negative observations, keyed by the bits of `|x|`.
    neg: std::collections::BTreeMap<u32, u64>,
    /// Observations equal to ±0.0.
    zero: u64,
    /// Counts for positive observations.
    pos: std::collections::BTreeMap<u32, u64>,
    /// NaN observations (sorted after +∞).
    nan: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Mantissa bits kept in the bucket key (with sign + exponent).
    const SHIFT: u32 = 44;

    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            neg: std::collections::BTreeMap::new(),
            zero: 0,
            pos: std::collections::BTreeMap::new(),
            nan: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket key for a strictly positive value (finite or +∞).
    fn bucket(x: f64) -> u32 {
        // mppm-lint: allow(lossy-counter-cast): SHIFT ≥ 32 leaves at most 32 significant bits — a bucket key, not a counter
        (x.to_bits() >> Self::SHIFT) as u32
    }

    /// Deterministic representative of a bucket: its midpoint.
    fn representative(key: u32) -> f64 {
        let lo = f64::from_bits(u64::from(key) << Self::SHIFT);
        if lo.is_infinite() {
            return lo;
        }
        let hi = f64::from_bits(u64::from(key + 1) << Self::SHIFT);
        lo + (hi - lo) / 2.0
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if x.is_nan() {
            self.nan += 1;
            return;
        }
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x == 0.0 {
            self.zero += 1;
        } else if x > 0.0 {
            *self.pos.entry(Self::bucket(x)).or_insert(0) += 1;
        } else {
            *self.neg.entry(Self::bucket(-x)).or_insert(0) += 1;
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest non-NaN observation; `None` before the first.
    pub fn min(&self) -> Option<f64> {
        (self.count > self.nan).then_some(self.min)
    }

    /// Largest non-NaN observation; `None` before the first.
    pub fn max(&self) -> Option<f64> {
        (self.count > self.nan).then_some(self.max)
    }

    /// Absorbs another sketch: per-bucket count addition. Exactly
    /// associative and commutative, so any merge tree over any
    /// partition of the observations yields an identical sketch.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.zero += other.zero;
        self.nan += other.nan;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (&k, &c) in &other.neg {
            *self.neg.entry(k).or_insert(0) += c;
        }
        for (&k, &c) in &other.pos {
            *self.pos.entry(k).or_insert(0) += c;
        }
    }

    /// Nearest-rank `q`-quantile estimate (`0 ≤ q ≤ 1`), clamped into
    /// the exact observed `[min, max]`. `None` before the first
    /// observation; NaN when the rank falls into the NaN tail.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are tracked exactly; buckets only matter
        // for the interior.
        let non_nan = self.count - self.nan;
        if rank > non_nan {
            return Some(f64::NAN);
        }
        if rank == 1 {
            return Some(self.min);
        }
        if rank == non_nan {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (&k, &c) in self.neg.iter().rev() {
            seen += c;
            if seen >= rank {
                return Some(self.clamp(-Self::representative(k)));
            }
        }
        seen += self.zero;
        if seen >= rank {
            return Some(self.clamp(0.0));
        }
        for (&k, &c) in &self.pos {
            seen += c;
            if seen >= rank {
                return Some(self.clamp(Self::representative(k)));
            }
        }
        Some(f64::NAN)
    }

    fn clamp(&self, x: f64) -> f64 {
        x.max(self.min).min(self.max)
    }
}

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Sample standard deviation (n−1 denominator). Returns `None` for fewer
/// than two samples.
pub fn sample_std(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs).expect("non-empty");
    let var = xs.iter().map(|&x| (x - m).powi(2)).sum::<f64>() / (xs.len() as f64 - 1.0);
    Some(var.sqrt())
}

/// Two-sided 97.5% Student-t quantile for `df` degrees of freedom (the
/// multiplier of a 95% confidence interval), by table lookup with
/// interpolation in `1/df`.
///
/// # Panics
///
/// Panics if `df` is zero.
pub fn t_quantile_975(df: usize) -> f64 {
    assert!(df > 0, "degrees of freedom must be positive");
    /// (df, t) pairs; beyond the last entry the normal quantile applies.
    const TABLE: &[(usize, f64)] = &[
        (1, 12.706),
        (2, 4.303),
        (3, 3.182),
        (4, 2.776),
        (5, 2.571),
        (6, 2.447),
        (7, 2.365),
        (8, 2.306),
        (9, 2.262),
        (10, 2.228),
        (11, 2.201),
        (12, 2.179),
        (13, 2.160),
        (14, 2.145),
        (15, 2.131),
        (16, 2.120),
        (17, 2.110),
        (18, 2.101),
        (19, 2.093),
        (20, 2.086),
        (21, 2.080),
        (22, 2.074),
        (23, 2.069),
        (24, 2.064),
        (25, 2.060),
        (26, 2.056),
        (27, 2.052),
        (28, 2.048),
        (29, 2.045),
        (30, 2.042),
        (40, 2.021),
        (50, 2.009),
        (60, 2.000),
        (80, 1.990),
        (100, 1.984),
        (120, 1.980),
    ];
    const NORMAL: f64 = 1.959964;
    if let Some(&(_, t)) = TABLE.iter().find(|&&(d, _)| d == df) {
        return t;
    }
    if df > 120 {
        // Interpolate between t(120) and the normal limit in 1/df.
        let w = (1.0 / df as f64) / (1.0 / 120.0);
        return NORMAL + w * (1.980 - NORMAL);
    }
    // df between table entries (31..=119, not a listed point): linear
    // interpolation in 1/df between the bracketing entries.
    let (lo, hi) = TABLE
        .windows(2)
        .find_map(|w| {
            let (d0, t0) = w[0];
            let (d1, t1) = w[1];
            (d0 < df && df < d1).then_some(((d0, t0), (d1, t1)))
        })
        .expect("df is bracketed by the table");
    let (d0, t0) = lo;
    let (d1, t1) = hi;
    let x = 1.0 / df as f64;
    let (x0, x1) = (1.0 / d0 as f64, 1.0 / d1 as f64);
    t1 + (t0 - t1) * (x - x1) / (x0 - x1)
}

/// A 95% confidence interval on a population mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the interval (`t × s / √n`).
    pub half_width: f64,
    /// Number of samples.
    pub n: usize,
}

impl ConfidenceInterval {
    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Half-width relative to the mean (the "x% confidence interval" the
    /// paper quotes, e.g. 10% for 10 mixes).
    pub fn relative(&self) -> f64 {
        self.half_width / self.mean.abs()
    }
}

/// 95% Student-t confidence interval of the mean. Returns `None` for fewer
/// than two samples.
///
/// # Example
///
/// ```
/// let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let ci = mppm::stats::ci95(&xs).unwrap();
/// assert_eq!(ci.mean, 3.0);
/// assert!(ci.lo() < 3.0 && ci.hi() > 3.0);
/// ```
pub fn ci95(xs: &[f64]) -> Option<ConfidenceInterval> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let m = mean(xs)?;
    let s = sample_std(xs)?;
    let t = t_quantile_975(n - 1);
    Some(ConfidenceInterval { mean: m, half_width: t * s / (n as f64).sqrt(), n })
}

/// Fractional ranks (1-based, ties averaged).
pub fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| total_cmp(xs[a], xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

/// Pearson correlation coefficient. Returns `None` if either input has
/// zero variance or fewer than two points.
pub fn pearson(a: &[f64], b: &[f64]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "inputs must have equal length");
    if a.len() < 2 {
        return None;
    }
    let ma = mean(a)?;
    let mb = mean(b)?;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va == 0.0 || vb == 0.0 {
        return None;
    }
    Some(cov / (va.sqrt() * vb.sqrt()))
}

/// Kendall's τ-b rank correlation (tie-adjusted). Returns `None` if
/// either input is constant or shorter than two elements.
///
/// Provided alongside [`spearman`] as a robustness check for the
/// design-space ranking experiments: the two statistics agree on
/// direction but weight disagreements differently.
///
/// # Panics
///
/// Panics if the slices differ in length.
///
/// # Example
///
/// ```
/// let a = [1.0, 2.0, 3.0];
/// let b = [10.0, 30.0, 20.0]; // one discordant pair of three
/// let tau = mppm::stats::kendall_tau(&a, &b).unwrap();
/// assert!((tau - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn kendall_tau(a: &[f64], b: &[f64]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "inputs must have equal length");
    let n = a.len();
    if n < 2 {
        return None;
    }
    let mut concordant = 0.0;
    let mut discordant = 0.0;
    let mut ties_a = 0.0;
    let mut ties_b = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a[i] - a[j];
            let db = b[i] - b[j];
            match (da == 0.0, db == 0.0) {
                (true, true) => {}
                (true, false) => ties_a += 1.0,
                (false, true) => ties_b += 1.0,
                (false, false) => {
                    if (da > 0.0) == (db > 0.0) {
                        concordant += 1.0;
                    } else {
                        discordant += 1.0;
                    }
                }
            }
        }
    }
    let denom = f64::sqrt(
        (concordant + discordant + ties_a) * (concordant + discordant + ties_b),
    );
    if denom == 0.0 {
        return None;
    }
    Some((concordant - discordant) / denom)
}

/// Spearman rank correlation coefficient (tie-aware: Pearson over
/// fractional ranks). Returns `None` if either ranking is constant.
///
/// A value of 1.0 means the two rankings agree exactly — the paper's
/// criterion for a workload-selection method ranking design options
/// correctly (§5, Figure 7).
///
/// # Example
///
/// ```
/// let measured = [3.1, 2.9, 3.6, 3.3];
/// let predicted = [3.0, 2.8, 3.7, 3.2]; // same ordering
/// let rho = mppm::stats::spearman(&measured, &predicted).unwrap();
/// assert!((rho - 1.0).abs() < 1e-12);
/// ```
pub fn spearman(a: &[f64], b: &[f64]) -> Option<f64> {
    pearson(&ranks(a), &ranks(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn total_cmp_matches_partial_cmp_on_finite_values() {
        let xs = [-1.5, 0.0, 3.25, f64::MIN, f64::MAX, 1e-300, -1e300];
        for &a in &xs {
            for &b in &xs {
                // mppm-lint: allow(float-partial-order): this test asserts total_cmp agrees with partial_cmp on finite values
                assert_eq!(Some(total_cmp(a, b)), a.partial_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn total_cmp_orders_nan_and_infinities_deterministically() {
        use std::cmp::Ordering;
        // NaN sorts after +inf: a poisoned value lands at the tail of a
        // sort instead of leaving the order dependent on input position.
        assert_eq!(total_cmp(f64::NAN, f64::INFINITY), Ordering::Greater);
        assert_eq!(total_cmp(f64::NEG_INFINITY, f64::MIN), Ordering::Less);
        assert_eq!(total_cmp(f64::NAN, f64::NAN), Ordering::Equal);
        // The one divergence from `==`: IEEE totalOrder separates signed
        // zeros. Documented so a future "simplification" to partial_cmp
        // has to confront this case.
        assert_eq!(total_cmp(-0.0, 0.0), Ordering::Less);

        let mut xs = vec![f64::NAN, 2.0, f64::NEG_INFINITY, 1.0, f64::INFINITY];
        xs.sort_by(|a, b| total_cmp(*a, *b));
        assert_eq!(xs[0], f64::NEG_INFINITY);
        assert_eq!(&xs[1..3], &[1.0, 2.0]);
        assert_eq!(xs[3], f64::INFINITY);
        assert!(xs[4].is_nan());
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(sample_std(&[1.0]), None);
        assert!((sample_std(&[2.0, 4.0]).unwrap() - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn t_table_known_values() {
        assert!((t_quantile_975(1) - 12.706).abs() < 1e-9);
        assert!((t_quantile_975(10) - 2.228).abs() < 1e-9);
        assert!((t_quantile_975(30) - 2.042).abs() < 1e-9);
        assert!((t_quantile_975(120) - 1.980).abs() < 1e-9);
    }

    #[test]
    fn t_table_interpolates_sensibly() {
        // 35 is between 30 (2.042) and 40 (2.021).
        let t = t_quantile_975(35);
        assert!(t < 2.042 && t > 2.021, "got {t}");
        // Very large df approaches the normal quantile.
        assert!((t_quantile_975(100_000) - 1.959964).abs() < 1e-3);
        // Monotone decreasing overall.
        let mut prev = t_quantile_975(1);
        for df in 2..300 {
            let t = t_quantile_975(df);
            assert!(t <= prev + 1e-9, "df {df}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn ci95_shrinks_with_samples() {
        // Same spread, more samples -> tighter interval.
        let small: Vec<f64> = (0..10).map(|i| (i % 2) as f64).collect();
        let large: Vec<f64> = (0..100).map(|i| (i % 2) as f64).collect();
        let ci_s = ci95(&small).unwrap();
        let ci_l = ci95(&large).unwrap();
        assert!(ci_l.half_width < ci_s.half_width);
        assert!((ci_s.mean - 0.5).abs() < 1e-12);
        assert!(ci_s.lo() < 0.5 && ci_s.hi() > 0.5);
    }

    #[test]
    fn ci95_needs_two_samples() {
        assert!(ci95(&[1.0]).is_none());
        assert!(ci95(&[]).is_none());
    }

    #[test]
    fn ranks_handle_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
        assert_eq!(ranks(&[5.0, 5.0, 5.0]), vec![2.0, 2.0, 2.0]);
        assert_eq!(ranks(&[3.0, 1.0, 2.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn spearman_perfect_and_inverse() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let up = [10.0, 20.0, 30.0, 40.0];
        let down = [40.0, 30.0, 20.0, 10.0];
        assert!((spearman(&a, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman(&a, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_ignores_monotone_transform() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b: Vec<f64> = a.iter().map(|&x: &f64| x.exp()).collect();
        assert!((spearman(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_constant_input_is_none() {
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn kendall_known_values() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let up = [1.0, 2.0, 3.0, 4.0];
        let down = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(kendall_tau(&a, &up), Some(1.0));
        assert_eq!(kendall_tau(&a, &down), Some(-1.0));
        assert_eq!(kendall_tau(&[1.0, 1.0], &[1.0, 2.0]), None, "constant input");
    }

    #[test]
    fn kendall_handles_ties() {
        // a has a tie; tau-b normalizes it away symmetrically.
        let a = [1.0, 1.0, 2.0];
        let b = [1.0, 2.0, 3.0];
        let tau = kendall_tau(&a, &b).unwrap();
        assert!(tau > 0.0 && tau < 1.0, "got {tau}");
    }

    #[test]
    fn streaming_moments_match_batch() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37) % 113) as f64 / 7.0 - 3.0).collect();
        let mut acc = StreamingMoments::new();
        for &x in &xs {
            acc.push(x);
        }
        assert_eq!(acc.count(), xs.len() as u64);
        assert!((acc.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-9);
        assert!((acc.sample_std().unwrap() - sample_std(&xs).unwrap()).abs() < 1e-9);
        let batch_min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let batch_max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(acc.min(), Some(batch_min));
        assert_eq!(acc.max(), Some(batch_max));
    }

    #[test]
    fn streaming_moments_empty_and_single() {
        let mut acc = StreamingMoments::new();
        assert_eq!(acc.mean(), None);
        assert_eq!(acc.min(), None);
        acc.push(2.5);
        assert_eq!(acc.mean(), Some(2.5));
        assert_eq!(acc.sample_std(), None, "std needs two samples");
        assert_eq!((acc.min(), acc.max()), (Some(2.5), Some(2.5)));
    }

    proptest! {
        #[test]
        fn kendall_and_spearman_agree_on_direction(
            a in proptest::collection::vec(-100.0f64..100.0, 4..16),
            b in proptest::collection::vec(-100.0f64..100.0, 4..16),
        ) {
            let n = a.len().min(b.len());
            if let (Some(rho), Some(tau)) =
                (spearman(&a[..n], &b[..n]), kendall_tau(&a[..n], &b[..n]))
            {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&tau));
                // Strong correlations agree in sign.
                if rho.abs() > 0.5 && tau.abs() > 1e-9 {
                    prop_assert_eq!(rho > 0.0, tau > 0.0, "rho {} tau {}", rho, tau);
                }
            }
        }

        #[test]
        fn spearman_in_unit_range(
            a in proptest::collection::vec(-100.0f64..100.0, 3..20),
            b in proptest::collection::vec(-100.0f64..100.0, 3..20),
        ) {
            let n = a.len().min(b.len());
            if let Some(r) = spearman(&a[..n], &b[..n]) {
                prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            }
        }

        #[test]
        fn ci_contains_mean(xs in proptest::collection::vec(-50.0f64..50.0, 2..40)) {
            if let Some(ci) = ci95(&xs) {
                prop_assert!(ci.lo() <= ci.mean + 1e-9);
                prop_assert!(ci.hi() >= ci.mean - 1e-9);
            }
        }

        #[test]
        fn ranks_are_a_permutation_sum(xs in proptest::collection::vec(-50.0f64..50.0, 1..30)) {
            let r = ranks(&xs);
            let sum: f64 = r.iter().sum();
            let n = xs.len() as f64;
            prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
        }
    }

    /// Outputs of a moments accumulator as raw bits, for byte-identity
    /// assertions across merge shapes.
    fn moments_bits(acc: &StreamingMoments) -> [u64; 5] {
        [
            acc.count(),
            acc.mean().unwrap_or(f64::NAN).to_bits(),
            acc.sample_std().unwrap_or(f64::NAN).to_bits(),
            acc.min().unwrap_or(f64::NAN).to_bits(),
            acc.max().unwrap_or(f64::NAN).to_bits(),
        ]
    }

    fn moments_of(xs: &[f64]) -> StreamingMoments {
        let mut acc = StreamingMoments::new();
        for &x in xs {
            acc.push(x);
        }
        acc
    }

    #[test]
    fn exact_sum_survives_catastrophic_cancellation() {
        // Welford (and naive f64 summation) lose the 1.0 entirely; the
        // exact accumulator rounds the true sum once at the end.
        let acc = moments_of(&[1e16, 1.0, -1e16]);
        assert_eq!(acc.mean(), Some(1.0 / 3.0));
        let acc = moments_of(&[1e308, 1e308, -1e308, -1e308, 5.0]);
        assert_eq!(acc.mean(), Some(1.0));
    }

    #[test]
    fn exact_sum_handles_extreme_magnitudes() {
        // Sum transiently exceeds f64 range, then cancels back.
        let acc = moments_of(&[f64::MAX, f64::MAX, -f64::MAX, -f64::MAX]);
        assert_eq!(acc.mean(), Some(0.0));
        // Overflowing sum saturates like IEEE addition would.
        let acc = moments_of(&[f64::MAX, f64::MAX, f64::MAX]);
        assert_eq!(acc.mean(), Some(f64::INFINITY));
        // Subnormals accumulate exactly.
        let tiny = f64::from_bits(1); // smallest positive subnormal
        let acc = moments_of(&[tiny; 7]);
        assert_eq!(acc.mean(), Some(tiny * 7.0 / 7.0));
        let acc = moments_of(&[tiny, -tiny, tiny]);
        assert_eq!(acc.mean(), Some(tiny / 3.0));
    }

    #[test]
    fn moments_track_nonfinite_observations() {
        let acc = moments_of(&[1.0, f64::INFINITY, 2.0]);
        assert_eq!(acc.mean(), Some(f64::INFINITY));
        assert_eq!(acc.max(), Some(f64::INFINITY));
        let acc = moments_of(&[f64::INFINITY, f64::NEG_INFINITY]);
        assert!(acc.mean().unwrap().is_nan());
        let acc = moments_of(&[1.0, f64::NAN]);
        assert!(acc.mean().unwrap().is_nan());
        assert_eq!(acc.min(), Some(1.0), "NaN never claims min/max");
    }

    #[test]
    fn moments_merge_is_exact_across_shapes() {
        let xs: Vec<f64> = (0..2000)
            .map(|i| {
                let m = ((i * 2654435761u64 as usize) % 9973) as f64 - 4986.0;
                m * (2.0f64).powi((i % 61) as i32 - 30)
            })
            .collect();
        let whole = moments_of(&xs);
        // Linear left fold over 7 uneven chunks.
        let chunks: Vec<&[f64]> = xs.chunks(317).collect();
        let mut linear = StreamingMoments::new();
        for c in &chunks {
            linear.merge(&moments_of(c));
        }
        // Right-to-left fold (different association AND order).
        let mut reversed = StreamingMoments::new();
        for c in chunks.iter().rev() {
            reversed.merge(&moments_of(c));
        }
        // Balanced tree reduce.
        let mut layer: Vec<StreamingMoments> =
            chunks.iter().map(|c| moments_of(c)).collect();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| {
                    let mut m = pair[0].clone();
                    if let Some(r) = pair.get(1) {
                        m.merge(r);
                    }
                    m
                })
                .collect();
        }
        assert_eq!(moments_bits(&whole), moments_bits(&linear));
        assert_eq!(moments_bits(&whole), moments_bits(&reversed));
        assert_eq!(moments_bits(&whole), moments_bits(&layer[0]));
    }

    #[test]
    fn sketch_tracks_known_quantiles() {
        let mut s = QuantileSketch::new();
        for i in 0..10_000 {
            s.push(((i * 7919) % 10_000) as f64 / 100.0);
        }
        for (q, want) in [(0.1, 10.0), (0.5, 50.0), (0.9, 90.0)] {
            let got = s.quantile(q).unwrap();
            assert!((got - want).abs() < 0.5, "q={q}: got {got}");
        }
        assert_eq!(s.quantile(0.0), Some(s.min().unwrap()));
        assert_eq!(s.quantile(1.0), Some(s.max().unwrap()));
        assert_eq!(s.count(), 10_000);
    }

    #[test]
    fn sketch_handles_signs_zeros_and_nan() {
        let mut s = QuantileSketch::new();
        for x in [-4.0, -2.0, 0.0, 0.0, 3.0, f64::NAN] {
            s.push(x);
        }
        assert_eq!(s.count(), 6);
        assert_eq!(s.min(), Some(-4.0));
        assert_eq!(s.max(), Some(3.0));
        let med = s.quantile(0.5).unwrap();
        assert!((-2.0..=0.0).contains(&med), "got {med}");
        // The NaN tail is reachable but ordered last.
        assert!(s.quantile(1.0).unwrap().is_nan());
        assert!(QuantileSketch::new().quantile(0.5).is_none());
    }

    proptest! {
        #[test]
        fn moments_merge_invariant_under_chunking(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..120),
            split in 1usize..40,
        ) {
            let whole = moments_of(&xs);
            let size = split.min(xs.len());
            let mut folded = StreamingMoments::new();
            for c in xs.chunks(size) {
                folded.merge(&moments_of(c));
            }
            let mut reversed = StreamingMoments::new();
            for c in xs.chunks(size).rev() {
                reversed.merge(&moments_of(c));
            }
            prop_assert_eq!(moments_bits(&whole), moments_bits(&folded));
            prop_assert_eq!(moments_bits(&whole), moments_bits(&reversed));
        }

        #[test]
        fn sketch_merge_invariant_under_chunking(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..120),
            split in 1usize..40,
        ) {
            let mut whole = QuantileSketch::new();
            for &x in &xs {
                whole.push(x);
            }
            let size = split.min(xs.len());
            let mut folded = QuantileSketch::new();
            for c in xs.chunks(size) {
                let mut part = QuantileSketch::new();
                for &x in c {
                    part.push(x);
                }
                folded.merge(&part);
            }
            let mut reversed = QuantileSketch::new();
            for c in xs.chunks(size).rev() {
                let mut part = QuantileSketch::new();
                for &x in c {
                    part.push(x);
                }
                reversed.merge(&part);
            }
            // Associative + commutative merge: the full *state* matches,
            // so every quantile read matches bit for bit.
            prop_assert_eq!(&whole, &folded);
            prop_assert_eq!(&whole, &reversed);
        }

        #[test]
        fn exact_mean_matches_i128_reference(
            xs in proptest::collection::vec(-1_000_000i64..1_000_000, 1..60),
        ) {
            // Integer-valued observations: the exact sum must agree
            // with 128-bit integer arithmetic to the last bit.
            let acc = moments_of(&xs.iter().map(|&v| v as f64).collect::<Vec<_>>());
            let total: i128 = xs.iter().map(|&v| v as i128).sum();
            let want = total as f64 / xs.len() as f64;
            prop_assert_eq!(acc.mean().unwrap().to_bits(), want.to_bits());
        }

        #[test]
        fn sketch_quantiles_stay_in_range(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
            q in 0.0f64..=1.0,
        ) {
            let mut s = QuantileSketch::new();
            for &x in &xs {
                s.push(x);
            }
            let est = s.quantile(q).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(est >= lo && est <= hi, "{} not in [{}, {}]", est, lo, hi);
        }
    }
}
