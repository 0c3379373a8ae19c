//! Throughput of the substrate layers: synthetic trace generation,
//! set-associative cache access, SDC window math, and single-core
//! simulation. These bound how fast the detailed side of the reproduction
//! can go.

use std::time::Duration;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mppm_bench::bench_geometry;
use mppm_cache::{CacheConfig, Replacement, Sdc, SetAssocCache};
use mppm_sim::{run_single_core, LlcMode, MachineConfig, MixSim};
use mppm_trace::{suite, TraceStream};

fn bench_trace_generation(c: &mut Criterion) {
    let spec = suite::benchmark("gcc").expect("in suite").clone();
    let mut group = c.benchmark_group("trace_generation");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("gcc_100k_insns", |b| {
        let mut stream = TraceStream::new(spec.clone(), bench_geometry());
        b.iter(|| {
            let start = stream.position();
            while stream.position() - start < 100_000 {
                // mppm-lint: allow(uncompiled-hot-loop): this bench measures raw per-item generator throughput itself
                std::hint::black_box(stream.next_item());
            }
        });
    });
    group.finish();
}

fn bench_cache_access(c: &mut Criterion) {
    let cfg = CacheConfig::new(512 * 1024, 8, 64, 16);
    let mut group = c.benchmark_group("cache_access");
    group.throughput(Throughput::Elements(10_000));
    for (name, span) in [("hits", 4_000u64), ("misses", 1_000_000u64)] {
        group.bench_function(name, |b| {
            let mut cache = SetAssocCache::new(cfg, Replacement::Lru);
            let mut block = 0u64;
            b.iter(|| {
                for _ in 0..10_000 {
                    block = (block.wrapping_mul(6364136223846793005).wrapping_add(1)) % span;
                    std::hint::black_box(cache.access(block));
                }
            });
        });
    }
    group.finish();
}

fn bench_sdc_math(c: &mut Criterion) {
    let mut sdc = Sdc::new(8);
    for d in 0..8 {
        for _ in 0..100 {
            sdc.record(Some(d));
        }
    }
    let mut group = c.benchmark_group("sdc_math");
    group.bench_function("misses_at_fractional", |b| {
        b.iter(|| std::hint::black_box(sdc.misses_at(3.7)));
    });
    group.bench_function("add_scaled", |b| {
        let mut acc = Sdc::new(8);
        b.iter(|| acc.add_scaled(&sdc, 0.5));
    });
    group.finish();
}

fn bench_single_core_sim(c: &mut Criterion) {
    let machine = MachineConfig::baseline();
    let mut group = c.benchmark_group("single_core_sim");
    group.throughput(Throughput::Elements(bench_geometry().trace_insns()));
    for name in ["hmmer", "lbm"] {
        let spec = suite::benchmark(name).expect("in suite");
        group.bench_function(name, |b| {
            b.iter(|| run_single_core(spec, &machine, bench_geometry(), 1, LlcMode::Real));
        });
    }
    group.finish();
}

fn bench_sim_interleave(c: &mut Criterion) {
    let machine = MachineConfig::baseline();
    // Memory-heavy programs round-robined onto the cores, so the shared
    // LLC sees real cross-core contention at every width.
    let pool = ["lbm", "mcf", "soplex", "gamess"];
    let mut group = c.benchmark_group("sim_interleave");
    group.throughput(Throughput::Elements(bench_geometry().trace_insns()));
    for cores in [2usize, 4, 8, 16] {
        let specs: Vec<_> = (0..cores)
            .map(|i| suite::benchmark(pool[i % pool.len()]).expect("in suite"))
            .collect();
        group.bench_function(format!("{cores}core"), |b| {
            b.iter(|| MixSim::new(&specs, &machine, bench_geometry()).run());
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Short windows: these benches regenerate paper artifacts, they are
    // not micro-optimizing; wall-clock budget matters more than 1% CIs.
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    targets = bench_trace_generation, bench_cache_access, bench_sdc_math,
        bench_single_core_sim, bench_sim_interleave
}
criterion_main!(benches);
