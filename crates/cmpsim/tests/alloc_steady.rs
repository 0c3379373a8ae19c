//! Counting-allocator proof of the allocation-free steady state.
//!
//! This binary installs a `#[global_allocator]` that reports every heap
//! allocation to `mppm_obs::alloc` (the library side is `forbid(unsafe)`,
//! so the unsafe `GlobalAlloc` shim lives here), then drives warm
//! [`SimArena`] runs that resolve their traces through a warm
//! [`TraceCache`] — the `Store` worker path — and asserts the per-mix
//! allocation delta is exactly zero. Combined with the bit-exactness
//! oracle this rules out cross-mix state leaks: a run that allocates
//! nothing and matches a fresh run byte-for-byte cannot have been
//! influenced by stale arena state.
//!
//! A streamed run (no cache) spawns a generator thread and allocates its
//! streams, channels and chunk buffers, so it is held to a weaker bound:
//! its allocations are a constant per run, the same at any trace length,
//! and the generator thread allocates only a few blocks however many
//! chunks it fills. The pipelined profiler's generator is held to the
//! same bound.
//!
//! Kept to a single `#[test]` so no concurrent test's allocations can
//! pollute the measured windows.

use mppm_sim::{profile_single_core, MachineConfig, MixResult, MixSim, SimArena, TraceCache};
use mppm_trace::{suite, TraceGeometry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

thread_local! {
    /// Set on the test thread; every other thread's allocations are
    /// tallied in `OFF_THREAD_ALLOCS`. Const-initialized with no
    /// destructor, so reading it never allocates.
    static ON_TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Allocations made on threads other than the test thread.
static OFF_THREAD_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note_off_thread() {
    if !ON_TEST_THREAD.with(Cell::get) {
        OFF_THREAD_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System` unchanged; the added
// tallies are relaxed atomic adds and a const thread-local read, which
// never allocate and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        mppm_obs::alloc::note_alloc(layout.size() as u64);
        note_off_thread();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        mppm_obs::alloc::note_alloc(layout.size() as u64);
        note_off_thread();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        mppm_obs::alloc::note_alloc(new_size as u64);
        note_off_thread();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `mixes` through the warm arena and returns the allocation count
/// observed across them.
fn allocs_for<F: FnMut()>(mut mixes: F) -> u64 {
    let before = mppm_obs::alloc::snapshot();
    mixes();
    mppm_obs::alloc::snapshot().since(before).allocs
}

#[test]
fn warm_arena_mixes_allocate_nothing() {
    let m = MachineConfig::baseline();
    let g = TraceGeometry::tiny();
    let gamess = suite::benchmark("gamess").unwrap();
    let lbm = suite::benchmark("lbm").unwrap();
    let mcf = suite::benchmark("mcf").unwrap();
    let specs = [gamess, lbm, mcf];

    let fresh = MixSim::new(&specs, &m, g).run();

    let traces = TraceCache::new();
    let mut arena = SimArena::new();
    let mut out = MixResult::default();
    // Mix 1 of the "shard" warms the arena and the cache (compiles
    // traces, sizes every pool); it is expected — and measured — to
    // allocate.
    let warmup_allocs = allocs_for(|| {
        MixSim::new(&specs, &m, g).trace_cache(&traces).arena(&mut arena).run_into(&mut out)
    });
    assert!(warmup_allocs > 0, "the cold first mix must size the pools");
    assert_eq!(fresh, out, "arena warm-up run must match the fresh run");

    // Every later same-shape mix must be allocation-free, end to end.
    for i in 0..4 {
        let steady = allocs_for(|| {
            MixSim::new(&specs, &m, g).trace_cache(&traces).arena(&mut arena).run_into(&mut out)
        });
        assert_eq!(steady, 0, "steady-state mix {i} allocated {steady} times");
        assert_eq!(fresh, out, "steady-state mix {i} diverged");
    }

    // A partitioned shard re-shapes the LLC into per-core slices: one
    // warm-up, then allocation-free again.
    let pair = [gamess, lbm];
    let fresh_part = MixSim::new(&pair, &m, g).partitioned(&[6, 2]).run();
    let partitioned = || MixSim::new(&pair, &m, g).partitioned(&[6, 2]).trace_cache(&traces);
    let reshape = allocs_for(|| partitioned().arena(&mut arena).run_into(&mut out));
    assert!(reshape > 0, "re-shaping to partitioned slices sizes new slabs");
    assert_eq!(fresh_part, out);
    for i in 0..3 {
        let steady = allocs_for(|| partitioned().arena(&mut arena).run_into(&mut out));
        assert_eq!(steady, 0, "steady-state partitioned mix {i} allocated {steady} times");
        assert_eq!(fresh_part, out, "steady-state partitioned mix {i} diverged");
    }

    // The `sim.alloc.*` counters publish the same proof through the
    // observability layer: warm-arena mixes add zero. (The span's own
    // end-of-run event publishing allocates, but that happens after the
    // per-mix delta is captured, so the counter stays exact.)
    let observer = mppm_obs::Observer::new(Box::new(mppm_obs::NoopSink));
    {
        let root = observer.root("alloc-steady");
        for _ in 0..2 {
            partitioned().observer(&root).arena(&mut arena).run_into(&mut out);
        }
    }
    let snapshot = observer.counter_snapshot();
    let get = |name: &str| snapshot.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    assert_eq!(get("sim.alloc.count"), Some(0), "warm mixes publish a zero alloc count");
    assert_eq!(get("sim.alloc.bytes"), Some(0));
    assert_eq!(get("sim.mixes"), Some(2));

    // Generator threads: the calling thread allocates the chunk buffers
    // and the streams, so only std's thread and channel bookkeeping
    // allocates over there — a handful of small blocks, how many
    // depending on whether the thread ever blocked. A generator that
    // allocated per chunk would allocate hundreds of times on the longer
    // trace (~250 chunks per core).
    ON_TEST_THREAD.with(|t| t.set(true));
    let geometries = [TraceGeometry::tiny(), TraceGeometry::new(100_000, 10)];
    for g in geometries {
        let before = OFF_THREAD_ALLOCS.load(Ordering::Relaxed);
        profile_single_core(lbm, &m, g);
        let allocs = OFF_THREAD_ALLOCS.load(Ordering::Relaxed) - before;
        assert!(allocs < 8, "the profiler's generator allocated {allocs} times over {g:?}");
    }

    // Streamed mixes through a warm arena: the calling thread allocates
    // a constant per run (streams, channels, chunk buffers, the thread),
    // the same at both trace lengths. The bound leaves room for one
    // allocation per core's ring, since std's channel may register a
    // waiter the first time the calling thread blocks on it, and whether
    // it blocks depends on timing.
    let mut on_thread = Vec::new();
    for g in geometries {
        MixSim::new(&specs, &m, g).arena(&mut arena).run_into(&mut out);
        for _ in 0..3 {
            let off_before = OFF_THREAD_ALLOCS.load(Ordering::Relaxed);
            let total =
                allocs_for(|| MixSim::new(&specs, &m, g).arena(&mut arena).run_into(&mut out));
            let off = OFF_THREAD_ALLOCS.load(Ordering::Relaxed) - off_before;
            assert!(off < 8, "the mix generator allocated {off} times over {g:?}");
            on_thread.push(total - off);
        }
    }
    let (lo, hi) = (on_thread.iter().min().unwrap(), on_thread.iter().max().unwrap());
    assert!(hi - lo <= specs.len() as u64, "streamed runs allocated {on_thread:?} times");
}
