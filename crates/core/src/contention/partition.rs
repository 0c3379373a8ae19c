use mppm_cache::Sdc;

use super::ContentionModel;

/// Contention model for a statically way-partitioned shared cache.
///
/// The paper's §2.3 notes that MPPM is independent of the cache
/// replacement/partitioning strategy as long as the contention model
/// supports it. With way partitioning there is no competition at all:
/// program `p` simply runs on `ways[p]` of the `A` ways (with the full
/// set count), so its extra misses are exactly the isolated-profile hits
/// deeper than its allocation — no iteration, no interference between
/// programs.
///
/// # Example
///
/// ```
/// use mppm::{ContentionModel, PartitionModel};
/// use mppm_cache::Sdc;
///
/// let mut sdc = Sdc::new(8);
/// for d in 0..8 { for _ in 0..10 { sdc.record(Some(d)); } }
/// let model = PartitionModel::new(vec![6, 2]);
/// let mut extra = Vec::new();
/// model.extra_misses(&[sdc.clone(), sdc], 8, &mut extra);
/// assert_eq!(extra[0], 20.0); // depths 6,7 lost
/// assert_eq!(extra[1], 60.0); // depths 2..8 lost
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionModel {
    ways: Vec<u32>,
}

impl PartitionModel {
    /// Creates the model for a fixed per-program way allocation.
    ///
    /// # Panics
    ///
    /// Panics if any allocation is zero.
    pub fn new(ways: Vec<u32>) -> Self {
        assert!(!ways.is_empty(), "need at least one partition");
        assert!(ways.iter().all(|&w| w > 0), "every program needs at least one way");
        Self { ways }
    }

    /// The per-program way allocation.
    pub fn ways(&self) -> &[u32] {
        &self.ways
    }
}

impl ContentionModel for PartitionModel {
    /// # Panics
    ///
    /// Panics if the number of windows does not match the allocation, or
    /// the allocation does not sum to `assoc`.
    fn extra_misses(&self, windows: &[Sdc], assoc: u32, extra: &mut Vec<f64>) {
        assert_eq!(windows.len(), self.ways.len(), "one way count per program");
        assert_eq!(
            self.ways.iter().sum::<u32>(),
            assoc,
            "partition must sum to the cache associativity"
        );
        extra.clear();
        extra.extend(
            windows
                .iter()
                .zip(&self.ways)
                .map(|(sdc, &w)| (sdc.misses_at(f64::from(w)) - sdc.misses()).max(0.0)),
        );
    }

    fn name(&self) -> &'static str {
        "static-partition"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{extra_of, sdc};
    use super::*;

    #[test]
    fn full_allocation_means_no_extra() {
        let w = vec![sdc(&[10.0; 8], 5.0)];
        let extra = extra_of(&PartitionModel::new(vec![8]), &w, 8);
        assert!(extra[0].abs() < 1e-9);
    }

    #[test]
    fn allocation_is_independent_of_corunner_traffic() {
        // Unlike FOA, a partitioned victim is immune to a streamer's
        // frequency.
        let victim = sdc(&[10.0; 8], 0.0);
        let light = vec![victim.clone(), sdc(&[0.0; 8], 10.0)];
        let heavy = vec![victim, sdc(&[0.0; 8], 100_000.0)];
        let model = PartitionModel::new(vec![4, 4]);
        let e_light = extra_of(&model, &light, 8);
        let e_heavy = extra_of(&model, &heavy, 8);
        assert_eq!(e_light[0], e_heavy[0], "partitioning isolates the victim");
    }

    #[test]
    #[should_panic(expected = "sum to the cache associativity")]
    fn rejects_mismatched_total() {
        let w = sdc(&[1.0; 8], 0.0);
        extra_of(&PartitionModel::new(vec![3, 3]), &[w.clone(), w], 8);
    }

    #[test]
    #[should_panic(expected = "one way count per program")]
    fn rejects_wrong_arity() {
        extra_of(&PartitionModel::new(vec![4, 4]), &[sdc(&[1.0; 8], 0.0)], 8);
    }
}
