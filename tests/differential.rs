//! Golden-snapshot differential test for the full detailed simulator.
//!
//! The snapshot under `tests/golden/` was generated with the original
//! naive per-set `Vec` cache kernel; the current (flat, memmove-free)
//! kernel must reproduce every field of the [`MixResult`]s **bit-exactly**
//! — names, per-core CPIs, completion cycles and LLC traffic counters.
//! Any observable behavior change in the cache kernel, the core engine or
//! the uncore shows up here as a float-level diff.
//!
//! Regenerate (only when an *intentional* behavior change is made) with:
//!
//! ```text
//! MPPM_REGEN_GOLDEN=1 cargo test -p mppm-integration --test differential
//! ```

use mppm_sim::reference::{self, Oracle};
use mppm_sim::{MachineConfig, MixResult, MixSim, TraceCache};
use mppm_trace::{suite, TraceGeometry};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Everything pinned by the golden file: a unified-LLC mix and a
/// way-partitioned mix, both at the Quick experiment geometry.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenSnapshot {
    unified: MixResult,
    partitioned: MixResult,
}

/// Scale::Quick's geometry (kept in sync with
/// `mppm_experiments::Scale::Quick`, asserted in `golden_geometry_matches_
/// quick_scale` below).
fn quick_geometry() -> TraceGeometry {
    TraceGeometry::new(20_000, 10)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/mix_result_quick.json")
}

/// The snapshot from production runs, or down `oracle`.
fn compute_snapshot_with(oracle: Option<Oracle>) -> GoldenSnapshot {
    let run = |sim: MixSim<'_>| match oracle {
        Some(oracle) => reference::run(sim, oracle),
        None => sim.run(),
    };
    let machine = MachineConfig::baseline();
    let g = quick_geometry();
    let mix: Vec<_> = ["gamess", "soplex", "lbm", "hmmer"]
        .iter()
        .map(|n| suite::benchmark(n).expect("suite benchmark"))
        .collect();
    let unified = run(MixSim::new(&mix, &machine, g));
    let pair: Vec<_> = ["gamess", "lbm"]
        .iter()
        .map(|n| suite::benchmark(n).expect("suite benchmark"))
        .collect();
    let partitioned = run(MixSim::new(&pair, &machine, g).partitioned(&[6, 2]));
    GoldenSnapshot { unified, partitioned }
}

/// The production default (streamed chunks replayed through the compiled
/// burst kernel; the snapshot bytes predate the phase compiler and were
/// *not* regenerated — reproducing them is part of the batched paths'
/// proof).
fn compute_snapshot() -> GoldenSnapshot {
    compute_snapshot_with(None)
}

#[test]
fn golden_geometry_matches_quick_scale() {
    assert_eq!(
        quick_geometry(),
        mppm_experiments::Scale::Quick.geometry(),
        "golden snapshot geometry must track Scale::Quick"
    );
}

#[test]
fn simulate_mix_matches_golden_snapshot() {
    let path = golden_path();
    let fresh = compute_snapshot();

    if std::env::var_os("MPPM_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).unwrap();
        mppm_experiments::atomic_write_bytes(
            &path,
            serde_json::to_string_pretty(&fresh).unwrap().as_bytes(),
        )
        .unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }

    let pinned: GoldenSnapshot = serde_json::from_str(
        &std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {} ({e}); regenerate with \
                 MPPM_REGEN_GOLDEN=1 cargo test -p mppm-integration --test differential",
                path.display()
            )
        }),
    )
    .expect("golden snapshot parses");

    // Field-by-field first, so a diff names the quantity that moved
    // instead of dumping two full structs.
    for (which, got, want) in
        [("unified", &fresh.unified, &pinned.unified),
         ("partitioned", &fresh.partitioned, &pinned.partitioned)]
    {
        assert_eq!(got.names, want.names, "{which}: mix names");
        assert_eq!(got.trace_insns, want.trace_insns, "{which}: trace_insns");
        assert_eq!(got.llc_accesses, want.llc_accesses, "{which}: llc_accesses");
        assert_eq!(got.llc_misses, want.llc_misses, "{which}: llc_misses");
        for (core, (a, b)) in got.cpi_mc.iter().zip(&want.cpi_mc).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{which}: cpi_mc[{core}] {a} vs {b}");
        }
        for (core, (a, b)) in
            got.completion_cycles.iter().zip(&want.completion_cycles).enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{which}: completion_cycles[{core}] {a} vs {b}"
            );
        }
    }
    assert_eq!(fresh, pinned, "full MixResult equality");
}

#[test]
fn arena_runs_pin_to_the_same_golden_bytes() {
    // A warm `SimArena` must reproduce the pinned snapshot exactly:
    // both golden mixes are run twice through one arena (unified warms
    // the pools, partitioned re-shapes the LLC into slices, then both
    // repeat on fully warm pools) and every run must match the
    // fresh-allocation snapshot. Run under MPPM_THREADS=1 and 4 in CI —
    // results are thread-count-invariant by construction (each worker
    // owns its arena), and this pins the single-arena sequence itself.
    let fresh = compute_snapshot();
    let machine = MachineConfig::baseline();
    let g = quick_geometry();
    let mix: Vec<_> = ["gamess", "soplex", "lbm", "hmmer"]
        .iter()
        .map(|n| suite::benchmark(n).expect("suite benchmark"))
        .collect();
    let pair: Vec<_> = ["gamess", "lbm"]
        .iter()
        .map(|n| suite::benchmark(n).expect("suite benchmark"))
        .collect();
    let mut arena = mppm_sim::SimArena::new();
    for pass in 0..2 {
        let unified = MixSim::new(&mix, &machine, g).arena(&mut arena).run();
        let partitioned =
            MixSim::new(&pair, &machine, g).partitioned(&[6, 2]).arena(&mut arena).run();
        assert_eq!(fresh.unified, unified, "pass {pass}: arena unified run diverged");
        assert_eq!(fresh.partitioned, partitioned, "pass {pass}: arena partitioned run diverged");
    }
}

#[test]
fn both_execution_substrates_pin_to_the_same_golden_bytes() {
    // The golden file was generated by the per-item reference stream
    // before the phase compiler existed. The production path (streamed,
    // checked against the file in `simulate_mix_matches_golden_snapshot`),
    // its cached form and the retained reference path must all still
    // reproduce it, so every substrate is pinned to one set of bytes —
    // no silent fork.
    let streamed = compute_snapshot_with(None);
    let reference = compute_snapshot_with(Some(Oracle::LiveStream));
    assert_eq!(streamed, reference, "execution substrates diverged");
    let machine = MachineConfig::baseline();
    let g = quick_geometry();
    let mix: Vec<_> = ["gamess", "soplex", "lbm", "hmmer"]
        .iter()
        .map(|n| suite::benchmark(n).expect("suite benchmark"))
        .collect();
    let pair = [mix[0], mix[2]];
    let cache = TraceCache::new();
    let cached = GoldenSnapshot {
        unified: MixSim::new(&mix, &machine, g).trace_cache(&cache).run(),
        partitioned: MixSim::new(&pair, &machine, g)
            .partitioned(&[6, 2])
            .trace_cache(&cache)
            .run(),
    };
    assert_eq!(streamed, cached, "the cached substrate diverged");
}

#[test]
fn snapshot_round_trips_through_json() {
    // The pinning mechanism itself must be lossless, or the golden test
    // would measure serialization noise instead of kernel behavior.
    let fresh = compute_snapshot();
    let json = serde_json::to_string(&fresh).unwrap();
    let back: GoldenSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(fresh, back);
}
