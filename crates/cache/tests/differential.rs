//! Differential oracle: the flat [`SetAssocCache`] kernel against the
//! naive per-set-`Vec` reference implementation it replaced.
//!
//! The two must be **bit-identical** observationally: every access
//! returns the same [`mppm_cache::AccessResult`] (hit flag, LRU-stack
//! depth, evicted block), and hit/miss counters, occupancy and residency
//! agree at every point — under LRU, FIFO and seeded-Random replacement,
//! across random geometries and access streams, including `reset()` in
//! the middle of a stream and after `reinit` of a used cache. Random
//! replacement is the strictest case: both implementations must consume
//! their RNG in exactly the same call order or the streams diverge
//! immediately. Associativities run from 1 to 16, covering both widths
//! of the flat kernel's packed rank and signature words (up to 8 ways in
//! a `u64`, up to 16 in a `u128`). Sets filled with blocks that share one
//! signature byte, found by search, make every probe rely on the
//! full-tag check.
//!
//! Case counts scale with `MPPM_ORACLE_CASES` (default 48):
//!
//! ```text
//! MPPM_ORACLE_CASES=512 cargo test --release -p mppm-cache --test differential
//! ```

use mppm_cache::reference::NaiveCache;
use mppm_cache::{CacheConfig, Replacement, SetAssocCache};
use proptest::prelude::*;

fn oracle_cases() -> u32 {
    std::env::var("MPPM_ORACLE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
}

/// One step of a differential run.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    Reset,
}

/// Decodes the raw generated stream: selector 0 (1-in-32) resets
/// mid-stream, everything else accesses `block % span`.
fn decode(raw: &[(u8, u64)], span: u64) -> Vec<Op> {
    raw.iter()
        .map(|&(sel, block)| if sel == 0 { Op::Reset } else { Op::Access(block % span) })
        .collect()
}

/// Runs `ops` against `flat` and a fresh oracle of its configuration
/// under `policy`, asserting bit-identical observable behavior at every
/// step and residency over `domain` at the end.
fn assert_bit_identical(
    flat: &mut SetAssocCache,
    policy: Replacement,
    ops: &[Op],
    domain: impl IntoIterator<Item = u64>,
) {
    let mut naive = NaiveCache::new(flat.config(), policy);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Access(block) => {
                let a = flat.access(block);
                let b = naive.access(block);
                assert_eq!(a, b, "step {step}: access({block}) diverged under {policy:?}");
            }
            Op::Reset => {
                flat.reset();
                naive.reset();
            }
        }
        assert_eq!(flat.hits(), naive.hits(), "step {step}: hit counters");
        assert_eq!(flat.misses(), naive.misses(), "step {step}: miss counters");
        assert_eq!(flat.occupancy(), naive.occupancy(), "step {step}: occupancy");
    }
    // Residency agrees over the whole block domain, not just touched
    // blocks.
    for block in domain {
        assert_eq!(
            flat.contains(block),
            naive.contains(block),
            "contains({block}) diverged under {policy:?}"
        );
    }
}

fn spans() -> [u64; 3] {
    // Hit-heavy, mixed, and miss-heavy regimes.
    [24, 300, 4096]
}

/// `count` blocks of set `set` (of `sets`) sharing one signature byte
/// under `cache`, found by search: the set's blocks in order, half of
/// them tagged above bit 44 the way the simulator tags cores, bucketed
/// by signature until a bucket holds `count`.
fn colliding_blocks(cache: &SetAssocCache, sets: u64, set: u64, count: usize) -> Vec<u64> {
    let mut buckets = vec![Vec::new(); 256];
    for i in 0u64.. {
        let block = ((i % 2) << 44) | (i / 2 * sets + set);
        let bucket = &mut buckets[usize::from(cache.signature_of(block))];
        bucket.push(block);
        if bucket.len() == count {
            return std::mem::take(bucket);
        }
    }
    unreachable!("the search runs until a bucket fills")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    /// LRU and FIFO: bit-identical over random geometries and streams
    /// with mid-stream resets.
    #[test]
    fn deterministic_policies_match_oracle(
        raw in proptest::collection::vec((0u8..32, 0u64..1 << 48), 1..350),
        assoc in 1u32..=16,
        sets_pow in 0u32..5,
        span_sel in 0usize..3,
        line_sel in 0usize..3,
    ) {
        let sets = 1u64 << sets_pow;
        let line = [32u32, 64, 128][line_sel];
        let cfg =
            CacheConfig::new(sets * u64::from(assoc) * u64::from(line), assoc, line, 1);
        let span = spans()[span_sel];
        let ops = decode(&raw, span);
        for policy in [Replacement::Lru, Replacement::Fifo] {
            assert_bit_identical(&mut SetAssocCache::new(cfg, policy), policy, &ops, 0..span);
        }
    }

    /// Seeded-Random replacement: both sides must draw victims in the
    /// identical RNG call order, stream after stream, reset after reset.
    #[test]
    fn random_policy_matches_oracle(
        raw in proptest::collection::vec((0u8..32, 0u64..1 << 48), 1..350),
        assoc in 1u32..=16,
        sets_pow in 0u32..5,
        span_sel in 0usize..3,
        line_sel in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let sets = 1u64 << sets_pow;
        let line = [32u32, 64, 128][line_sel];
        let cfg =
            CacheConfig::new(sets * u64::from(assoc) * u64::from(line), assoc, line, 1);
        let span = spans()[span_sel];
        let ops = decode(&raw, span);
        let policy = Replacement::Random { seed };
        assert_bit_identical(&mut SetAssocCache::new(cfg, policy), policy, &ops, 0..span);
    }

    /// A used cache `reinit` to its own shape must behave as a fresh
    /// one under any policy pair. The replayed stream draws from the
    /// warm-up's blocks, so a tag left behind in a slot would surface as
    /// a hit (or a depth, or an eviction) the oracle does not have.
    #[test]
    fn reinit_to_the_same_shape_matches_oracle(
        warm in proptest::collection::vec(0u64..1 << 48, 1..350),
        raw in proptest::collection::vec((0u8..32, 0u64..1 << 48), 1..350),
        assoc in 1u32..=16,
        sets_pow in 0u32..5,
        span_sel in 0usize..3,
        policy_sel in (0usize..3, 0usize..3),
        seed in 0u64..1_000_000,
    ) {
        let policies = [Replacement::Lru, Replacement::Fifo, Replacement::Random { seed }];
        let sets = 1u64 << sets_pow;
        let cfg = CacheConfig::new(sets * u64::from(assoc) * 64, assoc, 64, 1);
        let span = spans()[span_sel];
        let mut used = SetAssocCache::new(cfg, policies[policy_sel.0]);
        for &block in &warm {
            used.access(block % span);
        }
        let policy = policies[policy_sel.1];
        used.reinit(CacheConfig { latency: 9, ..cfg }, policy);
        assert_bit_identical(&mut used, policy, &decode(&raw, span), 0..span);
    }

    /// The simulator's core-tagging pattern (ids ORed in above bit 44)
    /// must not perturb equivalence.
    #[test]
    fn tagged_blocks_match_oracle(
        raw in proptest::collection::vec((0u8..32, 0u64..256), 1..200),
        cores in 1u64..5,
    ) {
        // The baseline L1D: 64 sets, 8 ways.
        let cfg = CacheConfig::new(32 * 1024, 8, 64, 4);
        let ops: Vec<Op> = raw
            .iter()
            .map(|&(sel, block)| {
                if sel == 0 {
                    Op::Reset
                } else {
                    let core = sel as u64 % cores;
                    Op::Access(((core + 1) << 44) | block)
                }
            })
            .collect();
        for policy in [Replacement::Lru, Replacement::Fifo, Replacement::Random { seed: 7 }] {
            let mut flat = SetAssocCache::new(cfg, policy);
            let mut naive = NaiveCache::new(cfg, policy);
            for op in &ops {
                match *op {
                    Op::Access(b) => prop_assert_eq!(flat.access(b), naive.access(b)),
                    Op::Reset => {
                        flat.reset();
                        naive.reset();
                    }
                }
            }
            prop_assert_eq!(flat.hits(), naive.hits());
            prop_assert_eq!(flat.misses(), naive.misses());
        }
    }

    /// Sets full of tags that share a signature byte, so every probe
    /// finds several candidate ways and only the full-tag check tells
    /// them apart: bit-identical to the oracle at 8 and 16 ways under
    /// every policy, with mid-stream resets, and again after a `reinit`
    /// that leaves those tags behind as stale ones.
    #[test]
    fn signature_collisions_match_oracle(
        raw in proptest::collection::vec((0u8..32, 0usize..1 << 16), 1..400),
        replay in proptest::collection::vec((0u8..32, 0usize..1 << 16), 1..400),
        wide_sel in 0u8..2,
        sets_pow in 0u32..3,
        policy_sel in (0usize..3, 0usize..3),
        seed in 0u64..1_000_000,
    ) {
        let assoc = if wide_sel == 1 { 16 } else { 8 };
        let sets = 1u64 << sets_pow;
        let cfg = CacheConfig::new(sets * u64::from(assoc) * 64, assoc, 64, 1);
        let policies = [Replacement::Lru, Replacement::Fifo, Replacement::Random { seed }];
        let probe = SetAssocCache::new(cfg, Replacement::Lru);
        // Per set, one signature shared by more blocks than the set has
        // ways, plus one block of another signature.
        let pool: Vec<u64> = (0..sets)
            .flat_map(|set| {
                let mut blocks = colliding_blocks(&probe, sets, set, assoc as usize + 4);
                let sig = probe.signature_of(blocks[0]);
                let other = (0..).map(|i| set + i * sets).find(|&b| probe.signature_of(b) != sig);
                blocks.extend(other);
                blocks
            })
            .collect();
        let ops = |raw: &[(u8, usize)]| -> Vec<Op> {
            raw.iter()
                .map(|&(sel, i)| if sel == 0 { Op::Reset } else { Op::Access(pool[i % pool.len()]) })
                .collect()
        };
        let mut flat = SetAssocCache::new(cfg, policies[policy_sel.0]);
        assert_bit_identical(&mut flat, policies[policy_sel.0], &ops(&raw), pool.clone());
        flat.reinit(CacheConfig { latency: 9, ..cfg }, policies[policy_sel.1]);
        assert_bit_identical(&mut flat, policies[policy_sel.1], &ops(&replay), pool);
    }
}

/// A long deterministic soak at the baseline LLC geometry — the exact
/// cache the multi-core simulator contends on.
#[test]
fn llc_geometry_soak() {
    // LLC config #1: 512KB, 8-way, 64B lines (1024 sets).
    let cfg = CacheConfig::new(512 * 1024, 8, 64, 16);
    for policy in [Replacement::Lru, Replacement::Fifo, Replacement::Random { seed: 2011 }] {
        let mut flat = SetAssocCache::new(cfg, policy);
        let mut naive = NaiveCache::new(cfg, policy);
        // LCG walk over a footprint ~2x the cache, with periodic resets.
        let mut block = 1u64;
        for step in 0..200_000u64 {
            if step % 70_001 == 70_000 {
                flat.reset();
                naive.reset();
            }
            block = block.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let b = block % 16_384;
            assert_eq!(flat.access(b), naive.access(b), "step {step} under {policy:?}");
        }
        assert_eq!(flat.hits(), naive.hits());
        assert_eq!(flat.misses(), naive.misses());
        assert_eq!(flat.occupancy(), naive.occupancy());
    }
}
