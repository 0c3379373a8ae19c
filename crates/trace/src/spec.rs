use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{Fnv1a, Phase, RegionKind, TraceGeometry};

/// Error returned when a [`BenchmarkSpec`] violates its invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    benchmark: String,
    detail: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid benchmark spec `{}`: {}", self.benchmark, self.detail)
    }
}

impl std::error::Error for SpecError {}

/// A complete synthetic benchmark: named phases plus a schedule that lays
/// the phases out over the trace.
///
/// The schedule is resolution-independent: it is a pattern of phase indices
/// that is stretched over however many intervals the [`TraceGeometry`] in
/// use defines, so the same spec works at test scale and full scale.
///
/// # Example
///
/// ```
/// use mppm_trace::{BenchmarkSpec, Phase, Region, TraceGeometry};
///
/// let spec = BenchmarkSpec::new(
///     "toy",
///     42,
///     vec![Phase {
///         mem_ratio: 0.25,
///         store_ratio: 0.3,
///         base_cpi: 0.5,
///         mlp: 2.0,
///         regions: vec![Region::uniform(0, 512, 1.0)],
///     }],
///     vec![0],
/// )?;
/// let g = TraceGeometry::default();
/// assert_eq!(spec.phase_for_interval(0, g.intervals), 0);
/// # Ok::<(), mppm_trace::SpecError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSpec {
    name: String,
    seed: u64,
    phases: Vec<Phase>,
    schedule: Vec<usize>,
}

impl BenchmarkSpec {
    /// Creates and validates a spec.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the spec has no phases, the schedule is
    /// empty or references a phase that does not exist, or any phase fails
    /// its own validation.
    pub fn new(
        name: impl Into<String>,
        seed: u64,
        phases: Vec<Phase>,
        schedule: Vec<usize>,
    ) -> Result<Self, SpecError> {
        let name = name.into();
        let err = |detail: String| SpecError { benchmark: name.clone(), detail };
        if phases.is_empty() {
            return Err(err("no phases".into()));
        }
        if schedule.is_empty() {
            return Err(err("empty schedule".into()));
        }
        for (i, p) in phases.iter().enumerate() {
            p.validate().map_err(|e| err(format!("phase {i}: {e}")))?;
        }
        for &s in &schedule {
            if s >= phases.len() {
                return Err(err(format!(
                    "schedule references phase {s} but there are only {} phases",
                    phases.len()
                )));
            }
        }
        Ok(Self { name, seed, phases, schedule })
    }

    /// Benchmark name (unique within a suite).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// RNG seed making the generated stream deterministic.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The benchmark's phases.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The schedule pattern (phase index per pattern slot).
    pub fn schedule(&self) -> &[usize] {
        &self.schedule
    }

    /// Phase index active during `interval` when the trace is divided into
    /// `total_intervals` intervals. The schedule pattern is stretched
    /// proportionally over the trace.
    ///
    /// # Panics
    ///
    /// Panics if `interval >= total_intervals` or `total_intervals == 0`.
    pub fn phase_for_interval(&self, interval: u32, total_intervals: u32) -> usize {
        assert!(total_intervals > 0, "total_intervals must be positive");
        assert!(interval < total_intervals, "interval out of range");
        let slot =
            (u64::from(interval) * self.schedule.len() as u64) / u64::from(total_intervals);
        self.schedule[slot as usize]
    }

    /// The phase active during `interval` of `geometry`.
    pub fn phase_at(&self, interval: u32, geometry: TraceGeometry) -> &Phase {
        &self.phases[self.phase_for_interval(interval, geometry.intervals)]
    }

    /// FNV-1a over every parameter: the name, seed, phases and schedule.
    /// Recordings carry it in their header, and the experiment store keys
    /// its caches with it, so any retuned parameter changes it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.name.as_bytes());
        for word in [self.name.len() as u64, self.seed, self.phases.len() as u64] {
            h.write_u64(word);
        }
        for p in &self.phases {
            for x in [p.mem_ratio, p.store_ratio, p.base_cpi, p.mlp] {
                h.write_u64(x.to_bits());
            }
            h.write_u64(p.regions.len() as u64);
            for r in &p.regions {
                let stream = u64::from(r.kind == RegionKind::Stream);
                for word in [u64::from(r.id), stream, r.blocks, r.weight.to_bits()] {
                    h.write_u64(word);
                }
            }
        }
        h.write_u64(self.schedule.len() as u64);
        for &s in &self.schedule {
            h.write_u64(s as u64);
        }
        h.finish()
    }

    /// Largest footprint over all phases, in blocks: an upper bound on the
    /// program's instantaneous working-set size.
    pub fn max_footprint_blocks(&self) -> u64 {
        self.phases.iter().map(Phase::footprint_blocks).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Region;

    fn phase(blocks: u64) -> Phase {
        Phase {
            mem_ratio: 0.3,
            store_ratio: 0.2,
            base_cpi: 0.5,
            mlp: 1.5,
            regions: vec![Region::uniform(0, blocks, 1.0)],
        }
    }

    #[test]
    fn schedule_stretches_over_intervals() {
        let spec =
            BenchmarkSpec::new("s", 1, vec![phase(10), phase(20)], vec![0, 1]).unwrap();
        // 10 intervals: first 5 use phase 0, last 5 phase 1.
        for i in 0..5 {
            assert_eq!(spec.phase_for_interval(i, 10), 0, "interval {i}");
        }
        for i in 5..10 {
            assert_eq!(spec.phase_for_interval(i, 10), 1, "interval {i}");
        }
    }

    #[test]
    fn schedule_with_uneven_stretch() {
        let spec =
            BenchmarkSpec::new("s", 1, vec![phase(10), phase(20)], vec![0, 1, 0]).unwrap();
        let picks: Vec<usize> = (0..7).map(|i| spec.phase_for_interval(i, 7)).collect();
        // pattern [0,1,0] over 7 intervals: slots 0..3->0, 3..5->1, 5..7->0
        assert_eq!(picks, vec![0, 0, 0, 1, 1, 0, 0]);
    }

    #[test]
    fn rejects_bad_schedule_reference() {
        let e = BenchmarkSpec::new("s", 1, vec![phase(10)], vec![0, 1]).unwrap_err();
        assert!(e.to_string().contains("references phase 1"));
    }

    #[test]
    fn rejects_empty() {
        assert!(BenchmarkSpec::new("s", 1, vec![], vec![0]).is_err());
        assert!(BenchmarkSpec::new("s", 1, vec![phase(10)], vec![]).is_err());
    }

    #[test]
    fn max_footprint_takes_max_over_phases() {
        let spec =
            BenchmarkSpec::new("s", 1, vec![phase(10), phase(20)], vec![0, 1]).unwrap();
        assert_eq!(spec.max_footprint_blocks(), 20);
    }

    #[test]
    fn fingerprints_stay_those_in_existing_recordings() {
        let fingerprint = |name| crate::suite::benchmark(name).unwrap().fingerprint();
        assert_eq!(fingerprint("astar"), 0xe991_97fd_7ee8_cce1);
        assert_eq!(fingerprint("bwaves"), 0xd15f_48e7_7fd1_57c1);
        assert_eq!(fingerprint("GemsFDTD"), 0x1919_8763_48be_f54c);
    }

    #[test]
    fn serde_round_trip() {
        let spec = BenchmarkSpec::new("s", 7, vec![phase(10)], vec![0]).unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back: BenchmarkSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
