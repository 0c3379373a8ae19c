//! Define your own synthetic benchmark, record its trace, and predict how
//! it co-runs with the built-in suite — the "bring your own workload"
//! flow.
//!
//! Run with:
//! ```text
//! cargo run --release -p mppm-examples --example custom_benchmark
//! ```

use mppm::{FoaModel, Mppm, MppmConfig};
use mppm_sim::{profile_compiled, profile_single_core, MachineConfig};
use mppm_trace::{suite, BenchmarkSpec, CompiledTrace, Phase, Region, TraceGeometry};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::baseline();
    let geometry = TraceGeometry::new(50_000, 20);

    // A database-like workload: a hot index, a buffer pool that fits the
    // LLC but not the private L2, and a table scan phase.
    let oltp = Phase {
        mem_ratio: 0.30,
        store_ratio: 0.35,
        base_cpi: 0.6,
        mlp: 1.5,
        regions: vec![
            Region::uniform(0, 800, 0.90),    // index: L1/L2 resident
            Region::uniform(1, 6000, 0.10),   // buffer pool: LLC resident
        ],
    };
    let scan = Phase {
        mem_ratio: 0.35,
        store_ratio: 0.05,
        base_cpi: 0.45,
        mlp: 6.0,
        regions: vec![
            Region::uniform(1, 6000, 0.15),      // still touching the pool
            Region::stream(2, 2_000_000, 0.85),  // sequential table scan
        ],
    };
    let spec = BenchmarkSpec::new("mydb", 0xDB, vec![oltp, scan], vec![0, 0, 0, 1])?;
    println!("defined `{}`: {} phases over {} schedule slots", spec.name(), spec.phases().len(), spec.schedule().len());

    // Freeze the trace to a binary recording (shareable, stable across
    // generator versions), then load it back as a replayable trace.
    let bytes = CompiledTrace::compile(spec.clone(), geometry).to_bytes();
    let recorded = CompiledTrace::from_bytes(spec.clone(), &bytes)?;
    println!(
        "recorded one pass: {} instructions, {} ops, {} KiB",
        geometry.trace_insns(),
        recorded.ops(),
        bytes.len() / 1024
    );

    // Profile the recording once, alone (the same profile the generator
    // gives).
    let profile = profile_compiled(&recorded, &machine, 1);
    println!(
        "isolated: CPI {:.3}, memory CPI {:.3}, {:.1} LLC accesses/kinsn\n",
        profile.cpi_sc(),
        profile.cpi_mem(),
        profile.apki()
    );

    // How badly would each suite benchmark hurt it?
    let model = Mppm::new(MppmConfig::default(), FoaModel);
    let mut results: Vec<(&str, f64)> = Vec::new();
    for corunner in suite::spec_suite() {
        let co_profile = profile_single_core(corunner, &machine, geometry);
        let pred = model.predict(&[&profile, &co_profile])?;
        results.push((corunner.name(), pred.slowdowns()[0]));
    }
    results.sort_by(|a, b| mppm::stats::total_cmp(b.1, a.1));
    println!("worst co-runners for mydb (predicted slowdown of mydb):");
    for (name, slowdown) in results.iter().take(5) {
        println!("  {name:<12} {slowdown:.3}x");
    }
    println!("\nfriendliest co-runners:");
    for (name, slowdown) in results.iter().rev().take(3) {
        println!("  {name:<12} {slowdown:.3}x");
    }
    Ok(())
}
