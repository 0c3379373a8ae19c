use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::CacheConfig;

/// Victim-selection policy of a [`SetAssocCache`].
///
/// MPPM's stack-distance mathematics assumes LRU (the paper's machine uses
/// LRU at every level); the other policies exist for extension studies and
/// to exercise the simulator's independence from the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// Evict the least-recently-used line.
    Lru,
    /// Evict the oldest-inserted line.
    Fifo,
    /// Evict a uniformly random line (deterministic via the given seed).
    Random {
        /// Seed for the victim-picking RNG.
        seed: u64,
    },
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// 0-based LRU-stack depth of the hit within its set (`0` = MRU);
    /// `None` on a miss. Feed this to [`crate::Sdc::record`].
    pub depth: Option<u32>,
    /// Block evicted to make room, if the access missed in a full set.
    pub evicted: Option<u64>,
}

/// Most ways a [`SetAssocCache`] set can have: one byte lane per way in
/// a `u128` rank word.
pub const MAX_ASSOC: u32 = 16;

/// The value of the byte lanes past a set's associativity. It is above
/// every rank, so [`LaneWord::promote`] never moves it and
/// [`LaneWord::way_of`] never finds it, and at most `0x7F`, so no lane
/// operation carries or borrows into its neighbour.
const PAD_RANK: u8 = 0x7F;

/// A word of byte lanes, one per way of a set: `u64` for up to 8 ways,
/// `u128` for up to 16. Each set has two — its rank word, where lane `w`
/// holds way `w`'s 0-based LRU-stack depth (its *rank*), and its
/// signature word, where lane `w` holds [`signature`] of way `w`'s tag.
/// Every operation is a handful of SWAR ("SIMD within a register") steps
/// instead of a loop over ways.
trait LaneWord: Copy + Default {
    /// Byte lanes: the most ways a set of this width can have, and the
    /// stride of its tag slots.
    const LANES: usize;
    /// Ranks `0, 1, …, assoc − 1` in lanes `0..assoc`, [`PAD_RANK`]
    /// above.
    fn identity(assoc: usize) -> Self;
    /// Way `way`'s rank.
    fn rank(self, way: usize) -> u32;
    /// The way whose rank is `rank` (`rank < assoc`; ranks are a
    /// permutation, so exactly one lane matches).
    fn way_of(self, rank: u32) -> usize;
    /// Moves way `way`, whose rank is `depth`, to rank 0: every rank
    /// below `depth` goes up by one, the others stay.
    fn promote(self, way: usize, depth: u32) -> Self;
    /// The word with lane `way` replaced by `byte`.
    fn with_lane(self, way: usize, byte: u8) -> Self;
    /// The lanes equal to `byte`, as a mask with bit `w` for lane `w`.
    fn lanes_equal(self, byte: u8) -> u32;
    /// The set words of `words`, which must be of this width.
    fn sets(words: &Words) -> &[SetWords<Self>];
    /// [`Self::sets`], mutably.
    fn sets_mut(words: &mut Words) -> &mut [SetWords<Self>];
}

/// Bit `w` for each lane `w` of an 8-lane word whose top bit is set
/// (the other bits must be clear): the multiply moves bit `8w + 7` to
/// bit `56 + w`, and no two partial products meet.
#[inline(always)]
fn lane_bits(high: u64) -> u32 {
    // mppm-lint: allow(lossy-counter-cast): the product's top byte
    ((high >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
}

macro_rules! lane_word {
    ($word:ty, $variant:ident) => {
        impl LaneWord for $word {
            const LANES: usize = std::mem::size_of::<$word>();

            fn identity(assoc: usize) -> Self {
                (0..Self::LANES).fold(0, |word, lane| {
                    // mppm-lint: allow(lossy-counter-cast): lane < assoc <= 16 fits a byte
                    let rank = if lane < assoc { lane as u8 } else { PAD_RANK };
                    word | Self::from(rank) << (8 * lane)
                })
            }

            #[inline(always)]
            fn rank(self, way: usize) -> u32 {
                // mppm-lint: allow(lossy-counter-cast): one byte lane, masked
                ((self >> (8 * way)) & 0xFF) as u32
            }

            #[inline(always)]
            fn way_of(self, rank: u32) -> usize {
                const ONES: $word = <$word>::MAX / 0xFF;
                const LOW7: $word = ONES * 0x7F;
                // Zero exactly in the matching lane. Every lane is at most
                // 0x7F, so adding 0x7F sets a lane's top bit iff the lane
                // is non-zero, with no carry into the next lane.
                let diff = self ^ (ONES * Self::from(rank));
                let zero = !(diff + LOW7) & (ONES << 7);
                zero.trailing_zeros() as usize / 8
            }

            #[inline(always)]
            fn promote(self, way: usize, depth: u32) -> Self {
                const ONES: $word = <$word>::MAX / 0xFF;
                const HIGH: $word = ONES << 7;
                // `0x80 | rank − depth` keeps a lane's top bit iff
                // rank >= depth; ranks are at most 0x7F and depths below
                // 16, so no lane borrows from its neighbour.
                let below = !((self | HIGH) - ONES * Self::from(depth)) & HIGH;
                (self + (below >> 7)) & !(0xFF << (8 * way))
            }

            #[inline(always)]
            fn with_lane(self, way: usize, byte: u8) -> Self {
                (self & !(0xFF << (8 * way))) | Self::from(byte) << (8 * way)
            }

            #[inline(always)]
            fn lanes_equal(self, byte: u8) -> u32 {
                const ONES: $word = <$word>::MAX / 0xFF;
                const LOW7: $word = ONES * 0x7F;
                // Zero exactly in the matching lanes. Signatures use all
                // eight bits, so the low seven are summed apart: `+ 0x7F`
                // sets a lane's top bit iff its low seven bits are
                // non-zero and never carries out of the lane; or-ing the
                // lane itself adds its own top bit.
                let diff = self ^ (ONES * Self::from(byte));
                let zero = !(((diff & LOW7) + LOW7) | diff) & (ONES << 7);
                // Eight lanes per 64-bit half.
                (0..Self::LANES / 8).fold(0, |mask, half| {
                    mask | lane_bits((zero >> (64 * half)) as u64) << (8 * half)
                })
            }

            #[inline(always)]
            fn sets(words: &Words) -> &[SetWords<Self>] {
                match words {
                    Words::$variant(sets) => sets,
                    _ => unreachable!("the word width follows the associativity"),
                }
            }

            #[inline(always)]
            fn sets_mut(words: &mut Words) -> &mut [SetWords<Self>] {
                match words {
                    Words::$variant(sets) => sets,
                    _ => unreachable!("the word width follows the associativity"),
                }
            }
        }
    };
}

lane_word!(u64, Narrow);
lane_word!(u128, Wide);

/// One set's two lane words, side by side so a probe reads both from
/// one cache line.
#[derive(Debug, Clone, Copy)]
struct SetWords<W> {
    /// Lane `w`: way `w`'s rank.
    rank: W,
    /// Lane `w`: [`signature`] of the tag in slot `w`, resident or not.
    sig: W,
}

/// The per-set words, as narrow as the associativity allows.
#[derive(Debug, Clone)]
enum Words {
    /// Up to 8 ways.
    Narrow(Box<[SetWords<u64>]>),
    /// 9 to 16 ways.
    Wide(Box<[SetWords<u128>]>),
}

impl Words {
    /// Identity rank words, and signature words mirroring `tags` (one
    /// slot per lane, set-major) under `set_bits` set-index bits.
    fn new(assoc: usize, tags: &[u64], set_bits: u32) -> Self {
        fn build<W: LaneWord>(assoc: usize, tags: &[u64], set_bits: u32) -> Box<[SetWords<W>]> {
            tags.chunks_exact(W::LANES)
                .map(|slots| SetWords {
                    rank: W::identity(assoc),
                    sig: slots.iter().enumerate().fold(W::default(), |sig, (way, &tag)| {
                        sig.with_lane(way, signature(tag, set_bits))
                    }),
                })
                .collect()
        }
        if assoc <= 8 {
            Self::Narrow(build(assoc, tags, set_bits))
        } else {
            Self::Wide(build(assoc, tags, set_bits))
        }
    }

    /// Tag slots per set.
    fn lanes(assoc: usize) -> usize {
        if assoc <= 8 {
            u64::LANES
        } else {
            u128::LANES
        }
    }

    fn way_of(&self, set: usize, rank: u32) -> usize {
        match self {
            Self::Narrow(sets) => sets[set].rank.way_of(rank),
            Self::Wide(sets) => sets[set].rank.way_of(rank),
        }
    }
}

/// A tag's signature byte: the top byte of a multiplicative hash of its
/// bits above the set index (a block's bits below it are its set, the
/// same for every block a probe of that set looks for).
#[inline(always)]
fn signature(tag: u64, set_bits: u32) -> u8 {
    // mppm-lint: allow(lossy-counter-cast): the product's top byte
    ((tag >> set_bits).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

/// A set-associative cache over 64-bit block identifiers.
///
/// The cache stores whole block ids (callers index by block, not byte
/// address) and tracks each set's recency order, so every hit reports
/// its LRU-stack depth — the quantity stack-distance counter profiles
/// are built from.
///
/// # Layout
///
/// Each set has two packed words of a byte per way, in a `u64` for up to
/// 8 ways and a `u128` for up to 16: the rank word holds each way's
/// LRU-stack depth, and the signature word a one-byte hash of each
/// way's tag. Tags live in one flat slab (no per-set `Vec`s) with one
/// slot per lane of the word: set `s` owns slots
/// `[s * lanes, s * lanes + assoc)`, the slots past `assoc` are padding,
/// and a line never moves once filled. A lookup finds the ways whose
/// signature matches the block's with one SWAR zero-byte test, masks off
/// the padding, and verifies each against its full tag. The signature
/// word always mirrors the tag slab, stale tags included. The ways of
/// set `s` whose rank is below `lens[s]` are resident; the others hold
/// stale tags that can never hit. A hit is a tag match plus three SWAR
/// steps on the rank word: the depth is the way's rank, every lower rank
/// goes up by one, and the way's rank becomes 0. A miss picks a victim rank —
/// the first non-resident one while the set fills, then `assoc − 1`
/// under LRU, a random draw under Random, or the oldest fill's under
/// FIFO (whose fill stamps are the only per-way slab beyond the tags) —
/// and applies the same update. The set count must be a power of two so
/// set selection is a mask instead of a division. The original
/// per-set-`Vec` implementation survives as
/// [`crate::reference::NaiveCache`], and a property-test oracle
/// (`tests/differential.rs`) proves the two bit-identical access by
/// access under every replacement policy at 1 to 16 ways.
///
/// # Example
///
/// ```
/// use mppm_cache::{CacheConfig, Replacement, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheConfig::new(4096, 4, 64, 1), Replacement::Lru);
/// assert!(!c.access(7).hit);
/// assert_eq!(c.access(7).depth, Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `sets × lanes` block tags, set-major. The tags of one set's ways
    /// are pairwise distinct, resident or not, so a tag match is unique.
    tags: Box<[u64]>,
    /// One rank word and one signature word per set.
    words: Words,
    /// Resident-line count per set: the ways ranked below it.
    lens: Box<[u32]>,
    /// Fill stamp per tag slot under FIFO; empty under the other
    /// policies.
    inserted: Box<[u64]>,
    /// `sets - 1`; valid because the set count is a power of two.
    set_mask: u64,
    /// `log2(sets)`: the tag bits [`signature`] skips.
    set_bits: u32,
    assoc: usize,
    /// Bits `0..assoc`: the slots of a set that are ways, not padding.
    way_mask: u32,
    replacement: Replacement,
    rng: Option<SmallRng>,
    /// Fills so far; stamps FIFO fills.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's set count is not a power of two (the
    /// kernel indexes sets with a mask; every machine configuration in
    /// this reproduction has power-of-two sets), or if it has more than
    /// 16 ways.
    pub fn new(config: CacheConfig, replacement: Replacement) -> Self {
        let sets = config.sets();
        assert!(
            sets.is_power_of_two(),
            "SetAssocCache requires a power-of-two set count, got {sets}"
        );
        assert!(
            config.assoc <= MAX_ASSOC,
            "SetAssocCache supports at most {MAX_ASSOC} ways, got {}",
            config.assoc
        );
        let assoc = config.assoc as usize;
        let lanes = Words::lanes(assoc);
        // Any pairwise-distinct values do for a never-filled set.
        let tags: Box<[u64]> =
            (0..sets as usize * lanes).map(|slot| (slot % lanes) as u64).collect();
        let set_bits = sets.trailing_zeros();
        let mut cache = Self {
            config,
            words: Words::new(assoc, &tags, set_bits),
            tags,
            lens: vec![0u32; sets as usize].into_boxed_slice(),
            inserted: Box::default(),
            set_mask: sets - 1,
            set_bits,
            assoc,
            way_mask: (1 << assoc) - 1,
            replacement,
            rng: None,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        cache.clear(replacement);
        cache
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Total hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total evictions observed (misses that displaced a resident line).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Accesses `block`, filling it on a miss.
    ///
    /// On a hit the block moves to the MRU position of its set; on a miss
    /// it is inserted at MRU, evicting a victim chosen by the replacement
    /// policy if the set is full.
    #[inline]
    pub fn access(&mut self, block: u64) -> AccessResult {
        match self.words {
            Words::Narrow(_) => self.access_with::<u64>(block),
            Words::Wide(_) => self.access_with::<u128>(block),
        }
    }

    /// [`Self::access`] over lane words of type `W`.
    #[inline(always)]
    fn access_with<W: LaneWord>(&mut self, block: u64) -> AccessResult {
        let set = (block & self.set_mask) as usize;
        let base = set * W::LANES;
        let len = self.lens[set];
        let SetWords { rank: word, sig } = W::sets(&self.words)[set];
        let block_sig = signature(block, self.set_bits);
        let matched = self.find_way(sig.lanes_equal(block_sig), base, block);
        let (way, result) = match matched {
            Some(way) if word.rank(way) < len => {
                self.hits += 1;
                (way, AccessResult { hit: true, depth: Some(word.rank(way)), evicted: None })
            }
            _ => {
                self.misses += 1;
                self.tick += 1;
                let (way, evicted) = match matched {
                    // A non-resident way still holding the block is
                    // refilled in place, which keeps the set's tags
                    // distinct.
                    Some(way) => (way, None),
                    None if (len as usize) < self.assoc => (word.way_of(len), None),
                    None => {
                        let way = self.victim(word, base);
                        self.evictions += 1;
                        (way, Some(self.tags[base + way]))
                    }
                };
                if evicted.is_none() {
                    self.lens[set] = len + 1;
                }
                self.tags[base + way] = block;
                W::sets_mut(&mut self.words)[set].sig = sig.with_lane(way, block_sig);
                if let Some(stamp) = self.inserted.get_mut(base + way) {
                    *stamp = self.tick;
                }
                (way, AccessResult { hit: false, depth: None, evicted })
            }
        };
        W::sets_mut(&mut self.words)[set].rank = word.promote(way, word.rank(way));
        result
    }

    /// The way of the set at slot `base` holding `block`, resident or
    /// not, given the set's signature matches (`lanes_equal` of its
    /// signature word). Padding lanes are masked off and each candidate
    /// is verified against its full tag; a set's tags are pairwise
    /// distinct, so at most one verifies.
    #[inline(always)]
    fn find_way(&self, sig_matches: u32, base: usize, block: u64) -> Option<usize> {
        let mut candidates = sig_matches & self.way_mask;
        while candidates != 0 {
            let way = candidates.trailing_zeros() as usize;
            if self.tags[base + way] == block {
                return Some(way);
            }
            candidates &= candidates - 1;
        }
        None
    }

    /// The way a miss in the full set at slot `base`, ranked by `word`,
    /// evicts under the replacement policy.
    #[inline(always)]
    fn victim<W: LaneWord>(&mut self, word: W, base: usize) -> usize {
        match self.replacement {
            // mppm-lint: allow(lossy-counter-cast): assoc <= 16
            Replacement::Lru => word.way_of(self.assoc as u32 - 1),
            Replacement::Fifo => {
                let stamps = &self.inserted[base..base + self.assoc];
                let (way, _) =
                    stamps.iter().enumerate().min_by_key(|&(_, &t)| t).expect("set is non-empty");
                way
            }
            Replacement::Random { .. } => {
                let rng = self.rng.as_mut().expect("random policy has an rng");
                // mppm-lint: allow(lossy-counter-cast): a rank below assoc <= 16
                word.way_of(rng.gen_range(0..self.assoc) as u32)
            }
        }
    }

    /// The signature byte a probe for `block` compares before the full
    /// tag: a hash of the block's bits above the set index. Blocks of one
    /// set that share it are told apart only by the full-tag check, which
    /// is what the differential oracle's collision test searches for.
    pub fn signature_of(&self, block: u64) -> u8 {
        signature(block, self.set_bits)
    }

    /// Whether `block` is currently resident (does not touch recency).
    pub fn contains(&self, block: u64) -> bool {
        match self.words {
            Words::Narrow(_) => self.contains_with::<u64>(block),
            Words::Wide(_) => self.contains_with::<u128>(block),
        }
    }

    /// [`Self::contains`] over lane words of type `W`.
    fn contains_with<W: LaneWord>(&self, block: u64) -> bool {
        let set = (block & self.set_mask) as usize;
        let SetWords { rank, sig } = W::sets(&self.words)[set];
        let sig_matches = sig.lanes_equal(signature(block, self.set_bits));
        self.find_way(sig_matches, set * W::LANES, block)
            .is_some_and(|way| rank.rank(way) < self.lens[set])
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> u64 {
        self.lens.iter().map(|&l| u64::from(l)).sum()
    }

    /// Every resident block, set by set, most recently used first: the
    /// cache's logical state. Under LRU two caches that yield the same
    /// sequence hit and miss alike on every later access, whichever ways
    /// their lines sit in (a block's set follows from the block, so the
    /// flat sequence fixes each set's contents and order).
    pub fn resident_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        let lanes = Words::lanes(self.assoc);
        self.lens.iter().enumerate().flat_map(move |(set, &len)| {
            (0..len).map(move |rank| self.tags[set * lanes + self.words.way_of(set, rank)])
        })
    }

    /// Invalidates everything and clears statistics.
    pub fn reset(&mut self) {
        self.clear(self.replacement);
    }

    /// Reconfigures the cache in place, equivalent in every observable
    /// way to `*self = Self::new(config, replacement)` but reusing the
    /// existing slabs when the `sets × assoc` shape is unchanged — the
    /// object-pool path `mppm_sim`'s `SimArena` resets between mixes.
    /// Only the resident counts are cleared: a way ranked at or past its
    /// set's count never hits, whatever tag it still holds, and the
    /// signature words still mirror those tags (the set count, and so
    /// the signature's set-index shift, is unchanged).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::new`] (only reachable on the
    /// reallocation path; a matching shape was already validated when
    /// the slabs were first built).
    pub fn reinit(&mut self, config: CacheConfig, replacement: Replacement) {
        let sets = config.sets();
        if sets as usize != self.lens.len() || config.assoc as usize != self.assoc {
            *self = Self::new(config, replacement);
            return;
        }
        self.config = config;
        self.set_mask = sets - 1;
        self.clear(replacement);
    }

    /// Empties every set, zeroes the statistics and (re)arms
    /// `replacement`'s state: a fresh RNG for Random, fill stamps for
    /// FIFO.
    fn clear(&mut self, replacement: Replacement) {
        self.replacement = replacement;
        self.rng = match replacement {
            Replacement::Random { seed } => Some(SmallRng::seed_from_u64(seed)),
            _ => None,
        };
        let stamps = if replacement == Replacement::Fifo { self.tags.len() } else { 0 };
        if self.inserted.len() != stamps {
            self.inserted = vec![0; stamps].into_boxed_slice();
        }
        self.lens.fill(0);
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: u32) -> SetAssocCache {
        // 4 sets of `assoc` ways, 64B lines.
        let size = u64::from(assoc) * 4 * 64;
        SetAssocCache::new(CacheConfig::new(size, assoc, 64, 1), Replacement::Lru)
    }

    #[test]
    fn miss_then_hit_at_mru() {
        let mut c = tiny(4);
        let r = c.access(10);
        assert!(!r.hit);
        assert_eq!(r.depth, None);
        let r = c.access(10);
        assert!(r.hit);
        assert_eq!(r.depth, Some(0));
    }

    #[test]
    fn depth_reflects_recency() {
        let mut c = tiny(4);
        // Same set: blocks 0, 4, 8 (4 sets).
        c.access(0);
        c.access(4);
        c.access(8);
        // 0 is now at depth 2.
        assert_eq!(c.access(0).depth, Some(2));
        // 0 moved to MRU; 8 is at depth 1; 4 at depth 2.
        assert_eq!(c.access(8).depth, Some(1));
        assert_eq!(c.access(4).depth, Some(2));
    }

    #[test]
    fn resident_blocks_list_each_set_most_recent_first() {
        let mut c = tiny(2);
        assert_eq!(c.resident_blocks().count(), 0);
        for block in [0, 4, 1, 8, 4, 13] {
            c.access(block);
        }
        // Set 0 saw 0, 4, 8, 4 (0 evicted); set 1 saw 1, 13.
        assert_eq!(c.resident_blocks().collect::<Vec<_>>(), vec![4, 8, 13, 1]);
        // The same contents and order filled into other ways read the
        // same.
        let mut other = tiny(2);
        for block in [4, 8, 13, 4, 1] {
            other.access(block);
        }
        let mut refill = tiny(2);
        for block in [8, 1, 4, 13, 1] {
            refill.access(block);
        }
        assert!(other.resident_blocks().eq(refill.resident_blocks()));
        c.reset();
        assert_eq!(c.resident_blocks().count(), 0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2);
        c.access(0);
        c.access(4);
        assert_eq!(c.evictions(), 0);
        let r = c.access(8); // evicts 0
        assert_eq!(r.evicted, Some(0));
        assert_eq!(c.evictions(), 1);
        assert!(!c.contains(0));
        assert!(c.contains(4));
        assert!(c.contains(8));
    }

    #[test]
    fn fifo_evicts_first_inserted_even_if_recent() {
        let mut c = SetAssocCache::new(CacheConfig::new(2 * 4 * 64, 2, 64, 1), Replacement::Fifo);
        c.access(0);
        c.access(4);
        c.access(0); // touch 0; LRU would evict 4 next, FIFO still evicts 0
        let r = c.access(8);
        assert_eq!(r.evicted, Some(0));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mk = || {
            SetAssocCache::new(
                CacheConfig::new(4 * 4 * 64, 4, 64, 1),
                Replacement::Random { seed: 9 },
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for i in 0..200u64 {
            assert_eq!(a.access(i * 4), b.access(i * 4));
        }
    }

    #[test]
    fn occupancy_saturates_at_capacity() {
        let mut c = tiny(4);
        for i in 0..1000 {
            c.access(i);
        }
        assert_eq!(c.occupancy(), 16);
        assert_eq!(c.hits() + c.misses(), 1000);
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = tiny(8); // 32 lines
        for round in 0..10 {
            for b in 0..32u64 {
                let r = c.access(b);
                if round > 0 {
                    assert!(r.hit, "block {b} should hit after warmup");
                }
            }
        }
        assert_eq!(c.misses(), 32);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = tiny(2);
        c.access(1);
        c.access(2);
        c.access(5);
        c.access(9); // third line in set 1 of a 2-way: forces an eviction
        assert_eq!(c.evictions(), 1);
        c.reset();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.evictions(), 0);
        assert!(!c.contains(1));
    }

    #[test]
    fn reinit_with_matching_shape_behaves_like_fresh() {
        // Warm a cache, then reinit it to the same shape but a different
        // latency/policy: every subsequent access must match a fresh
        // cache bit for bit (the SimArena pool path).
        let cfg = CacheConfig::new(4 * 4 * 64, 4, 64, 1);
        let recfg = CacheConfig::new(4 * 4 * 64, 4, 64, 9);
        for policy in [Replacement::Lru, Replacement::Fifo, Replacement::Random { seed: 3 }] {
            let mut pooled = SetAssocCache::new(cfg, Replacement::Lru);
            for b in 0..200u64 {
                pooled.access(b * 3);
            }
            pooled.reinit(recfg, policy);
            let mut fresh = SetAssocCache::new(recfg, policy);
            assert_eq!(pooled.config(), fresh.config());
            for b in 0..400u64 {
                assert_eq!(pooled.access(b % 37), fresh.access(b % 37), "{policy:?}");
            }
            assert_eq!(pooled.hits(), fresh.hits());
            assert_eq!(pooled.misses(), fresh.misses());
            assert_eq!(pooled.evictions(), fresh.evictions());
        }
    }

    #[test]
    fn reinit_with_new_shape_reallocates_correctly() {
        let mut c = tiny(2);
        c.access(1);
        // 8 sets of 4 ways: a different slab shape entirely.
        let cfg = CacheConfig::new(8 * 4 * 64, 4, 64, 2);
        c.reinit(cfg, Replacement::Lru);
        assert_eq!(c.config(), cfg);
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains(1));
        let mut fresh = SetAssocCache::new(cfg, Replacement::Lru);
        for b in 0..300u64 {
            assert_eq!(c.access(b % 61), fresh.access(b % 61));
        }
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = tiny(1); // direct-mapped, 4 sets
        c.access(0);
        c.access(1);
        c.access(2);
        c.access(3);
        assert!(c.access(0).hit);
        assert!(c.access(1).hit);
    }

    #[test]
    #[should_panic(expected = "power-of-two set count")]
    fn non_power_of_two_sets_panics() {
        // 3 sets of 2 ways.
        SetAssocCache::new(CacheConfig::new(3 * 2 * 64, 2, 64, 1), Replacement::Lru);
    }

    #[test]
    #[should_panic(expected = "at most 16 ways")]
    fn more_than_sixteen_ways_panics() {
        SetAssocCache::new(CacheConfig::new(32 * 64, 32, 64, 1), Replacement::Lru);
    }

    #[test]
    fn high_tag_bits_do_not_alias_sets() {
        // Blocks differing only above the set-index bits (e.g. the core
        // tags the simulator ORs in at bit 44) map to the same set but
        // stay distinct lines.
        let mut c = tiny(2);
        let tagged = |core: u64, block: u64| ((core + 1) << 44) | block;
        assert!(!c.access(tagged(0, 4)).hit);
        assert!(!c.access(tagged(1, 4)).hit);
        assert!(c.access(tagged(0, 4)).hit);
        assert!(c.access(tagged(1, 4)).hit);
        // Both live in set 0; a third same-set line evicts the LRU one.
        let r = c.access(tagged(2, 4));
        assert_eq!(r.evicted, Some(tagged(0, 4)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn policies() -> Vec<Replacement> {
            vec![Replacement::Lru, Replacement::Fifo, Replacement::Random { seed: 1 }]
        }

        proptest! {
            /// Under any policy: hit+miss counts add up, occupancy never
            /// exceeds capacity, and an access to a just-accessed block
            /// always hits.
            #[test]
            fn bookkeeping_invariants(
                blocks in proptest::collection::vec(0u64..200, 1..300),
                assoc in 1u32..=16,
            ) {
                for policy in policies() {
                    let sets = 4u64;
                    let cfg = CacheConfig::new(
                        sets * u64::from(assoc) * 64, assoc, 64, 1,
                    );
                    let mut cache = SetAssocCache::new(cfg, policy);
                    for &b in &blocks {
                        let r = cache.access(b);
                        if r.hit {
                            prop_assert!(r.evicted.is_none());
                            prop_assert!(r.depth.expect("hits have depth") < assoc);
                        }
                        prop_assert!(cache.contains(b), "just-inserted block resident");
                        prop_assert!(cache.access(b).hit, "immediate re-access hits");
                    }
                    prop_assert!(cache.occupancy() <= cfg.lines());
                    prop_assert_eq!(
                        cache.hits() + cache.misses(),
                        2 * blocks.len() as u64
                    );
                }
            }

            /// An LRU cache's miss count equals the SDC-predicted misses
            /// when the SDC is measured on the same stream — the identity
            /// the whole profiling methodology rests on.
            #[test]
            fn lru_misses_match_sdc(
                blocks in proptest::collection::vec(0u64..100, 1..400),
            ) {
                let cfg = CacheConfig::new(4 * 4 * 64, 4, 64, 1);
                let mut cache = SetAssocCache::new(cfg, Replacement::Lru);
                let mut sdc = crate::Sdc::new(4);
                for &b in &blocks {
                    sdc.record(cache.access(b).depth);
                }
                prop_assert_eq!(sdc.misses() as u64, cache.misses());
                prop_assert_eq!(sdc.accesses() as u64, blocks.len() as u64);
                // And folding to a smaller associativity can only add
                // misses.
                prop_assert!(sdc.fold_to(2).misses() >= sdc.misses());
            }

            /// A working set within one set's capacity never misses after
            /// the cold pass, under LRU and FIFO alike.
            #[test]
            fn resident_set_stops_missing(assoc in 2u32..8, rounds in 2u32..6) {
                for policy in [Replacement::Lru, Replacement::Fifo] {
                    let cfg = CacheConfig::new(u64::from(assoc) * 64, assoc, 64, 1);
                    let mut cache = SetAssocCache::new(cfg, policy);
                    for _ in 0..rounds {
                        for b in 0..u64::from(assoc) {
                            cache.access(b);
                        }
                    }
                    prop_assert_eq!(cache.misses(), u64::from(assoc), "{:?}", policy);
                }
            }
        }
    }
}
