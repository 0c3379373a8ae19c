//! Counting-allocator proof that a warm solve allocates only its output.
//!
//! This binary installs a `#[global_allocator]` that reports every heap
//! allocation to `mppm_obs::alloc` (the library side is `forbid(unsafe)`,
//! so the unsafe `GlobalAlloc` shim lives here; it follows
//! `crates/cmpsim/tests/alloc_steady.rs`). It then solves a mix that
//! converges in a few dozen steps and one that takes hundreds over one
//! warm [`SolverScratch`], and asserts both allocate the same blocks: the
//! returned [`mppm::Prediction`]'s, and nothing per step.
//!
//! Kept to a single `#[test]` so no concurrent test's allocations can
//! pollute the measured windows.

use mppm::{
    ContentionModel, FoaModel, Mppm, MppmConfig, PartitionModel, ProbModel, SdcCompetitionModel,
    SingleCoreProfile, SolverProfile, SolverScratch,
};
use mppm_obs::Span;
use std::alloc::{GlobalAlloc, Layout, System};

struct CountingAllocator;

// SAFETY: delegates every operation to `System` unchanged; the added
// tally is a relaxed atomic add, which never allocates and so cannot
// re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        mppm_obs::alloc::note_alloc(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        mppm_obs::alloc::note_alloc(layout.size() as u64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        mppm_obs::alloc::note_alloc(new_size as u64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A victim and a streamer over `intervals` intervals each: the solver
/// runs about half as many steps as there are intervals.
fn mix(intervals: usize) -> Vec<SolverProfile> {
    [
        SingleCoreProfile::synthetic("victim", 8, intervals, 10_000, 0.5, 0.02, 2_000.0, 20.0),
        SingleCoreProfile::synthetic("streamer", 8, intervals, 10_000, 2.0, 1.2, 4_000.0, 3_600.0),
    ]
    .iter()
    .map(|p| SolverProfile::new(p).expect("synthetic profiles are valid"))
    .collect()
}

/// Solves `profiles` over the warm `scratch`, returning the solver's
/// step count and the allocations the call made.
fn solve_counted<M: ContentionModel>(
    mppm: &Mppm<M>,
    profiles: &[SolverProfile],
    scratch: &mut SolverScratch,
) -> (usize, u64) {
    let refs: Vec<&SolverProfile> = profiles.iter().collect();
    let span = Span::disabled();
    let before = mppm_obs::alloc::snapshot();
    let pred = mppm.solve(&refs, &span, scratch).expect("valid mix");
    let allocs = mppm_obs::alloc::snapshot().since(before).allocs;
    (pred.steps(), allocs)
}

fn check<M: ContentionModel>(contention: M) {
    let name = contention.name();
    let mppm = Mppm::new(MppmConfig::default(), contention);
    let (short, long) = (mix(50), mix(500));
    let mut scratch = SolverScratch::new();
    // The first, longest solve sizes every pool, the history included.
    solve_counted(&mppm, &long, &mut scratch);
    let (few, few_allocs) = solve_counted(&mppm, &short, &mut scratch);
    let (many, many_allocs) = solve_counted(&mppm, &long, &mut scratch);
    assert!(many >= 5 * few, "{name}: {few} vs {many} steps");
    // The prediction's names vector and one string per program, its
    // slowdowns, CPI vectors and history copy.
    let output = 5 + short.len() as u64;
    assert_eq!(few_allocs, output, "{name}: {few}-step solve");
    assert_eq!(many_allocs, output, "{name}: {many}-step solve");
}

#[test]
fn warm_solves_allocate_only_their_prediction() {
    check(FoaModel);
    check(ProbModel);
    check(SdcCompetitionModel);
    check(PartitionModel::new(vec![5, 3]));
}
