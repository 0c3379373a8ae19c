use serde::{Deserialize, Serialize};

/// Stack-distance counters for an A-way set-associative LRU cache.
///
/// Following Mattson et al. (1970) and the paper's §2.1: an access that
/// hits position `i` of its set's LRU stack (1-based) increments `C_i`; a
/// miss increments `C_{>A}`. Internally the counters are `f64` because the
/// model sums *fractionally scaled* per-interval SDCs when a model window
/// covers part of an interval.
///
/// The key derived quantity is [`Sdc::misses_at`]: the number of misses the
/// same access stream would see with a smaller *effective* associativity
/// `a ≤ A`, linearly interpolated for fractional `a`. The FOA contention
/// model evaluates it at each program's effective cache share, and
/// [`Sdc::fold_to`] uses it to derive reduced-associativity profiles
/// without re-simulation.
///
/// # Example
///
/// ```
/// use mppm_cache::Sdc;
///
/// let mut sdc = Sdc::new(4);
/// sdc.record(Some(0)); // hit at MRU (C_1)
/// sdc.record(Some(3)); // hit at LRU (C_4)
/// sdc.record(None);    // miss (C_>4)
/// assert_eq!(sdc.accesses(), 3.0);
/// assert_eq!(sdc.misses(), 1.0);
/// // With only 2 effective ways the depth-3 hit becomes a miss:
/// assert_eq!(sdc.misses_at(2.0), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sdc {
    /// `counters[d]` for `d < assoc` counts hits at 0-based depth `d`
    /// (the paper's `C_{d+1}`); `counters[assoc]` counts misses (`C_{>A}`).
    counters: Vec<f64>,
}

impl Sdc {
    /// Creates zeroed counters for an `assoc`-way cache.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is zero.
    pub fn new(assoc: u32) -> Self {
        assert!(assoc > 0, "associativity must be positive");
        Self { counters: vec![0.0; assoc as usize + 1] }
    }

    /// Zeroes the counters in place for an `assoc`-way cache — the state
    /// of a fresh [`Sdc::new`], but reusing the existing allocation when
    /// the associativity is unchanged. The solver's per-window scratch
    /// (`mppm::SolverScratch`) resets windows this way instead of
    /// allocating a new `Sdc` every model step.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is zero.
    pub fn reset(&mut self, assoc: u32) {
        assert!(assoc > 0, "associativity must be positive");
        self.counters.clear();
        self.counters.resize(assoc as usize + 1, 0.0);
    }

    /// The associativity these counters were measured at.
    pub fn assoc(&self) -> u32 {
        u32::try_from(self.counters.len() - 1).expect("constructed from a u32 assoc")
    }

    /// Records one access: `depth` is the 0-based LRU hit depth, or `None`
    /// for a miss (as reported by
    /// [`AccessResult::depth`](crate::AccessResult)).
    ///
    /// # Panics
    ///
    /// Panics if `depth >= assoc`.
    pub fn record(&mut self, depth: Option<u32>) {
        match depth {
            Some(d) => {
                assert!(d < self.assoc(), "hit depth {d} out of range for {}-way", self.assoc());
                self.counters[d as usize] += 1.0;
            }
            None => *self.counters.last_mut().expect("counters are non-empty") += 1.0,
        }
    }

    /// Raw counter values: `C_1..C_A` followed by `C_{>A}`.
    pub fn counters(&self) -> &[f64] {
        &self.counters
    }

    /// Total accesses.
    pub fn accesses(&self) -> f64 {
        self.counters.iter().sum()
    }

    /// Misses at the full measured associativity (`C_{>A}`).
    pub fn misses(&self) -> f64 {
        *self.counters.last().expect("counters are non-empty")
    }

    /// Hits at the full measured associativity.
    pub fn hits(&self) -> f64 {
        self.accesses() - self.misses()
    }

    /// Hits the stream would see with effective associativity `a` (may be
    /// fractional; clamped to `[0, A]`). Linearly interpolates the counter
    /// that `a` cuts through.
    pub fn hits_at(&self, a: f64) -> f64 {
        let a = a.clamp(0.0, f64::from(self.assoc()));
        // `a ≥ 0` after the clamp, so truncation is `floor` without the
        // libm call; a NaN `a` casts to 0 and its NaN `frac` adds nothing.
        let full = a as usize;
        let frac = a - full as f64;
        let mut hits: f64 = self.counters[..full].iter().sum();
        if frac > 0.0 && full < self.assoc() as usize {
            hits += frac * self.counters[full];
        }
        hits
    }

    /// Misses the stream would see with effective associativity `a`:
    /// `accesses − hits_at(a)`. Monotonically non-increasing in `a`, and
    /// `misses_at(A) == misses()` exactly.
    pub fn misses_at(&self, a: f64) -> f64 {
        self.accesses() - self.hits_at(a)
    }

    /// Derives the counters the same stream would produce on a cache of
    /// associativity `new_assoc ≤ A` (with proportionally more sets, i.e.
    /// constant capacity — the paper's reduced-associativity derivation).
    ///
    /// Hits deeper than the new associativity become misses. This is exact
    /// for the paper's setup of halving associativity at constant capacity
    /// when set-index bits are nested.
    ///
    /// # Panics
    ///
    /// Panics if `new_assoc` is zero or exceeds the measured associativity.
    pub fn fold_to(&self, new_assoc: u32) -> Sdc {
        assert!(new_assoc > 0, "associativity must be positive");
        assert!(
            new_assoc <= self.assoc(),
            "cannot fold {}-way counters up to {new_assoc}-way",
            self.assoc()
        );
        let mut counters = self.counters[..new_assoc as usize].to_vec();
        counters.push(self.counters[new_assoc as usize..].iter().sum());
        Sdc { counters }
    }

    /// Derives the counters for a cache with `new_assoc < A` ways but the
    /// *same capacity* (proportionally more sets) — the configuration
    /// change between the paper's Table 2 rows #2 → #1.
    ///
    /// When the set count multiplies by `r = A / new_assoc`, the `d`
    /// distinct blocks ahead of a depth-`d` hit scatter binomially over
    /// the `r` sets, so the access lands at depth `Binomial(d, 1/r)` of
    /// its new set. This redistributes each counter accordingly; it is
    /// exact under uniform set indexing of the interleaved blocks.
    ///
    /// # Panics
    ///
    /// Panics if `new_assoc` is zero, does not divide the measured
    /// associativity, or exceeds it.
    pub fn derive_capacity_preserving(&self, new_assoc: u32) -> Sdc {
        assert!(new_assoc > 0, "associativity must be positive");
        assert!(new_assoc <= self.assoc(), "cannot derive a larger associativity");
        assert_eq!(
            self.assoc() % new_assoc,
            0,
            "set count must scale by an integer factor"
        );
        if new_assoc == self.assoc() {
            return self.clone();
        }
        let r = f64::from(self.assoc() / new_assoc);
        let p = 1.0 / r;
        let mut counters = vec![0.0; new_assoc as usize + 1];
        for (d, &count) in self.counters()[..self.assoc() as usize].iter().enumerate() {
            if count == 0.0 {
                continue;
            }
            // P(Binomial(d, p) = j), computed iteratively.
            let mut prob =
                (1.0 - p).powi(i32::try_from(d).expect("depth is bounded by assoc")); // j = 0
            for j in 0..=d {
                let target = if j < new_assoc as usize { j } else { new_assoc as usize };
                counters[target] += count * prob;
                // advance to j+1
                if j < d {
                    prob *= ((d - j) as f64 / (j as f64 + 1.0)) * (p / (1.0 - p));
                }
            }
        }
        counters[new_assoc as usize] += self.misses();
        Sdc { counters }
    }

    /// Adds `w × other` into `self` (used to sum per-interval SDCs over a
    /// model window, with fractional coverage at the window edges).
    ///
    /// # Panics
    ///
    /// Panics if the associativities differ or `w` is negative.
    pub fn add_scaled(&mut self, other: &Sdc, w: f64) {
        assert_eq!(self.assoc(), other.assoc(), "associativity mismatch");
        assert!(w >= 0.0, "scale must be non-negative");
        for (dst, src) in self.counters.iter_mut().zip(&other.counters) {
            *dst += w * src;
        }
    }

    /// Adds the raw `counters` of another SDC (as [`Sdc::counters`]
    /// returns them) into `self`: [`Sdc::add_scaled`] at `w = 1` without
    /// the multiplications, bit-identical to it since `1.0 * x == x`.
    ///
    /// # Panics
    ///
    /// Panics if the associativities differ.
    pub fn add_counters(&mut self, counters: &[f64]) {
        assert_eq!(self.counters.len(), counters.len(), "associativity mismatch");
        for (dst, src) in self.counters.iter_mut().zip(counters) {
            *dst += src;
        }
    }

    /// Returns `w × self` as a new value.
    pub fn scaled(&self, w: f64) -> Sdc {
        let mut out = Sdc::new(self.assoc());
        out.add_scaled(self, w);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Sdc {
        // C_1..C_8 = 80,40,20,10,8,6,4,2 and C_>8 = 30
        let mut sdc = Sdc::new(8);
        let hits = [80, 40, 20, 10, 8, 6, 4, 2];
        for (d, &n) in hits.iter().enumerate() {
            for _ in 0..n {
                sdc.record(Some(d as u32));
            }
        }
        for _ in 0..30 {
            sdc.record(None);
        }
        sdc
    }

    #[test]
    fn totals() {
        let sdc = sample();
        assert_eq!(sdc.accesses(), 200.0);
        assert_eq!(sdc.hits(), 170.0);
        assert_eq!(sdc.misses(), 30.0);
    }

    #[test]
    fn reset_matches_fresh() {
        let mut sdc = sample();
        sdc.reset(8);
        assert_eq!(sdc, Sdc::new(8), "same-assoc reset zeroes in place");
        sdc.record(Some(2));
        sdc.reset(4);
        assert_eq!(sdc, Sdc::new(4), "reset may change the associativity");
    }

    #[test]
    fn misses_at_full_assoc_equals_misses() {
        let sdc = sample();
        assert_eq!(sdc.misses_at(8.0), sdc.misses());
    }

    #[test]
    fn misses_at_zero_is_everything() {
        let sdc = sample();
        assert_eq!(sdc.misses_at(0.0), sdc.accesses());
    }

    #[test]
    fn misses_at_interpolates() {
        let sdc = sample();
        // a=1: only C_1 hits → misses = 200-80 = 120
        assert_eq!(sdc.misses_at(1.0), 120.0);
        // a=1.5: C_1 + half of C_2 → hits 100 → misses 100
        assert_eq!(sdc.misses_at(1.5), 100.0);
    }

    #[test]
    fn hits_at_sums_whole_counters_and_interpolates_the_cut_one() {
        let sdc = sample();
        assert_eq!(sdc.hits_at(0.0), 0.0);
        assert_eq!(sdc.hits_at(3.0), 140.0, "C_1 + C_2 + C_3");
        assert_eq!(sdc.hits_at(2.25), 125.0, "C_1 + C_2 + a quarter of C_3");
        assert_eq!(sdc.hits_at(8.0), sdc.hits());
        assert_eq!(sdc.hits_at(f64::NAN), 0.0);
    }

    #[test]
    fn misses_at_clamps_out_of_range() {
        let sdc = sample();
        assert_eq!(sdc.misses_at(-3.0), sdc.accesses());
        assert_eq!(sdc.misses_at(100.0), sdc.misses());
    }

    #[test]
    fn fold_matches_misses_at_integer_points() {
        let sdc = sample();
        for a in 1..=8u32 {
            let folded = sdc.fold_to(a);
            assert_eq!(folded.assoc(), a);
            assert!(
                (folded.misses() - sdc.misses_at(f64::from(a))).abs() < 1e-9,
                "assoc {a}"
            );
            assert!((folded.accesses() - sdc.accesses()).abs() < 1e-9);
        }
    }

    #[test]
    fn add_scaled_accumulates() {
        let sdc = sample();
        let mut acc = Sdc::new(8);
        acc.add_scaled(&sdc, 0.5);
        acc.add_scaled(&sdc, 0.25);
        assert!((acc.accesses() - 150.0).abs() < 1e-9);
        assert!((acc.misses() - 22.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "associativity mismatch")]
    fn add_scaled_rejects_mismatch() {
        let mut a = Sdc::new(4);
        a.add_scaled(&Sdc::new(8), 1.0);
    }

    #[test]
    #[should_panic(expected = "hit depth")]
    fn record_rejects_deep_hit() {
        let mut a = Sdc::new(4);
        a.record(Some(4));
    }

    #[test]
    fn capacity_preserving_derivation_conserves_accesses() {
        let sdc = sample();
        let derived = sdc.derive_capacity_preserving(4);
        assert_eq!(derived.assoc(), 4);
        assert!((derived.accesses() - sdc.accesses()).abs() < 1e-9);
        // Misses can only grow (a coarser cache cannot hit more).
        assert!(derived.misses() + 1e-9 >= sdc.misses());
    }

    #[test]
    fn capacity_preserving_is_identity_at_same_assoc() {
        let sdc = sample();
        assert_eq!(sdc.derive_capacity_preserving(8), sdc);
    }

    #[test]
    fn capacity_preserving_beats_naive_fold() {
        // Halving associativity at constant capacity hurts much less than
        // halving associativity at constant sets (half the capacity): the
        // binomial split sends roughly half of each depth's blocks to the
        // other set.
        let sdc = sample();
        let derived = sdc.derive_capacity_preserving(4);
        let folded = sdc.fold_to(4);
        assert!(
            derived.misses() < folded.misses(),
            "constant capacity ({}) vs half capacity ({})",
            derived.misses(),
            folded.misses()
        );
        // Shallow hits survive a capacity-preserving halving almost
        // entirely: depth-0 hits stay depth-0.
        assert!(derived.counters()[0] >= sdc.counters()[0] - 1e-9);
    }

    #[test]
    fn capacity_preserving_shifts_depths_down() {
        // A pure depth-7 profile on 8 ways: with 4 ways and twice the
        // sets, the 7 blocks ahead split Binomial(7, 1/2), so the mean
        // new depth is 3.5 and roughly half the accesses still hit.
        let mut sdc = Sdc::new(8);
        for _ in 0..1000 {
            sdc.record(Some(7));
        }
        let derived = sdc.derive_capacity_preserving(4);
        let hit_rate = derived.hits() / derived.accesses();
        assert!(
            (0.4..0.7).contains(&hit_rate),
            "expected roughly half to survive, got {hit_rate}"
        );
    }

    #[test]
    #[should_panic(expected = "integer factor")]
    fn capacity_preserving_rejects_ragged_ratio() {
        sample().derive_capacity_preserving(3);
    }

    #[test]
    fn serde_round_trip() {
        let sdc = sample();
        let json = serde_json::to_string(&sdc).unwrap();
        let back: Sdc = serde_json::from_str(&json).unwrap();
        assert_eq!(sdc, back);
    }

    proptest! {
        #[test]
        fn misses_monotone_in_assoc(
            counts in proptest::collection::vec(0u32..1000, 9),
            a1 in 0.0f64..8.0,
            a2 in 0.0f64..8.0,
        ) {
            let mut sdc = Sdc::new(8);
            for (d, &n) in counts.iter().enumerate() {
                for _ in 0..n {
                    if d < 8 { sdc.record(Some(d as u32)); } else { sdc.record(None); }
                }
            }
            let (lo, hi) = if a1 <= a2 { (a1, a2) } else { (a2, a1) };
            prop_assert!(sdc.misses_at(lo) + 1e-9 >= sdc.misses_at(hi));
        }

        #[test]
        fn fold_preserves_accesses_and_prefix(
            counts in proptest::collection::vec(0u32..1000, 9),
            new_assoc in 1u32..=8,
        ) {
            let mut sdc = Sdc::new(8);
            for (d, &n) in counts.iter().enumerate() {
                for _ in 0..n {
                    if d < 8 { sdc.record(Some(d as u32)); } else { sdc.record(None); }
                }
            }
            let folded = sdc.fold_to(new_assoc);
            prop_assert!((folded.accesses() - sdc.accesses()).abs() < 1e-6);
            for d in 0..new_assoc as usize {
                prop_assert_eq!(folded.counters()[d], sdc.counters()[d]);
            }
            // Folding can only increase misses.
            prop_assert!(folded.misses() + 1e-9 >= sdc.misses());
        }

        #[test]
        fn hits_at_bounded_by_totals(
            counts in proptest::collection::vec(0u32..1000, 9),
            a in 0.0f64..10.0,
        ) {
            let mut sdc = Sdc::new(8);
            for (d, &n) in counts.iter().enumerate() {
                for _ in 0..n {
                    if d < 8 { sdc.record(Some(d as u32)); } else { sdc.record(None); }
                }
            }
            let h = sdc.hits_at(a);
            prop_assert!(h >= -1e-9 && h <= sdc.hits() + 1e-9);
        }
    }
}
