//! The original per-set-`Vec` cache implementation, kept as a
//! differential-testing oracle.
//!
//! [`NaiveCache`] is the pre-optimization [`crate::SetAssocCache`]: each
//! set is its own `Vec<Way>` in recency order, set selection divides by
//! the (not necessarily power-of-two) set count, and recency updates are
//! `Vec::remove` + `Vec::insert` memmoves. It is deliberately simple —
//! every operation is the textbook definition — so it serves as the
//! executable specification the flat kernel is property-tested against
//! (`tests/differential.rs` asserts bit-identical [`AccessResult`]s,
//! counters and occupancy over random configurations and access streams,
//! including mid-stream [`NaiveCache::reset`]).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{AccessResult, CacheConfig, Replacement};

#[derive(Debug, Clone, Copy)]
struct Way {
    block: u64,
    inserted: u64,
}

/// The textbook set-associative cache: per-set `Vec`s, modulo set
/// indexing, memmove-based recency. Observationally identical to
/// [`crate::SetAssocCache`] (which additionally requires power-of-two
/// set counts); kept as the oracle for differential tests and as the
/// baseline for kernel benchmarks.
#[derive(Debug, Clone)]
pub struct NaiveCache {
    config: CacheConfig,
    /// Per-set ways in recency order (MRU first).
    sets: Vec<Vec<Way>>,
    replacement: Replacement,
    rng: Option<SmallRng>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl NaiveCache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig, replacement: Replacement) -> Self {
        let sets = vec![Vec::with_capacity(config.assoc as usize); config.sets() as usize];
        let rng = match replacement {
            Replacement::Random { seed } => Some(SmallRng::seed_from_u64(seed)),
            _ => None,
        };
        Self { config, sets, replacement, rng, tick: 0, hits: 0, misses: 0 }
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

    /// Accesses `block`, filling it on a miss. Same contract as
    /// [`crate::SetAssocCache::access`].
    pub fn access(&mut self, block: u64) -> AccessResult {
        self.tick += 1;
        let set_idx = (block % self.config.sets()) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|w| w.block == block) {
            let way = set.remove(pos);
            set.insert(0, way);
            self.hits += 1;
            // mppm-lint: allow(lossy-counter-cast): pos < assoc <= u32::MAX; hot kernel path stays branch-free
            return AccessResult { hit: true, depth: Some(pos as u32), evicted: None };
        }
        self.misses += 1;
        let evicted = if set.len() == self.config.assoc as usize {
            let victim_pos = match self.replacement {
                Replacement::Lru => set.len() - 1,
                Replacement::Fifo => {
                    let (pos, _) = set
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.inserted)
                        .expect("set is non-empty");
                    pos
                }
                Replacement::Random { .. } => {
                    let rng = self.rng.as_mut().expect("random policy has an rng");
                    rng.gen_range(0..set.len())
                }
            };
            Some(set.remove(victim_pos).block)
        } else {
            None
        };
        set.insert(0, Way { block, inserted: self.tick });
        AccessResult { hit: false, depth: None, evicted }
    }

    /// Whether `block` is currently resident (does not touch recency).
    pub fn contains(&self, block: u64) -> bool {
        let set_idx = (block % self.config.sets()) as usize;
        self.sets[set_idx].iter().any(|w| w.block == block)
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> u64 {
        self.sets.iter().map(|s| s.len() as u64).sum()
    }

    /// Invalidates everything and clears statistics.
    pub fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
        if let Replacement::Random { seed } = self.replacement {
            self.rng = Some(SmallRng::seed_from_u64(seed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_cache_still_behaves_like_a_cache() {
        // Smoke coverage; the real examination is tests/differential.rs.
        let mut c = NaiveCache::new(CacheConfig::new(4 * 4 * 64, 4, 64, 1), Replacement::Lru);
        assert!(!c.access(3).hit);
        assert_eq!(c.access(3).depth, Some(0));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.occupancy(), 1);
        c.reset();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn naive_cache_supports_non_power_of_two_sets() {
        // The oracle keeps the fully general modulo path the flat kernel
        // gave up.
        let mut c = NaiveCache::new(CacheConfig::new(3 * 2 * 64, 2, 64, 1), Replacement::Lru);
        assert_eq!(c.config().sets(), 3);
        for b in 0..12u64 {
            c.access(b);
        }
        assert_eq!(c.occupancy(), 6);
    }
}
