//! Thread-count invariance of the *batched* (compiled-trace) simulation
//! path.
//!
//! `tests/determinism.rs` proves the experiment harness thread-count
//! invariant end to end; this test pins the property directly on the
//! compiled execution substrate: a batch of compiled-path mixes
//! distributed over 1 worker and over 4 workers must serialize to
//! byte-identical JSON. Compiled traces are built per `MixSim::run` call
//! inside the workers, so this also checks that compilation itself is
//! insensitive to scheduling (no hidden shared state between the
//! per-spec compilations).
//!
//! This test owns its process (its own `[[test]]` target) because it
//! sets `MPPM_THREADS`.

use mppm_experiments::{parallel_map, worker_threads};
use mppm_sim::{MachineConfig, MixResult, MixSim};
use mppm_trace::{suite, TraceGeometry};

fn run_batch(threads: usize) -> Vec<String> {
    std::env::set_var("MPPM_THREADS", threads.to_string());
    assert_eq!(worker_threads(), threads, "override must take effect");
    let machine = MachineConfig::baseline();
    let g = TraceGeometry::tiny();
    let mixes: Vec<[&str; 4]> = vec![
        ["gamess", "soplex", "lbm", "hmmer"],
        ["mcf", "milc", "gcc", "astar"],
        ["lbm", "lbm", "libquantum", "wrf"],
        ["gamess", "gamess", "gamess", "gamess"],
        ["bzip2", "povray", "sjeng", "tonto"],
        ["leslie3d", "namd", "dealII", "calculix"],
    ];
    let results: Vec<MixResult> = parallel_map("batch-invariance", &mixes, |names| {
        let specs: Vec<_> =
            names.iter().map(|n| suite::benchmark(n).expect("suite benchmark")).collect();
        MixSim::new(&specs, &machine, g).run()
    });
    std::env::remove_var("MPPM_THREADS");
    results
        .iter()
        .map(|r| serde_json::to_string(r).expect("MixResult serializes"))
        .collect()
}

#[test]
fn batched_simulation_is_thread_count_invariant() {
    let serial = run_batch(1);
    let parallel = run_batch(4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "mix {i}: compiled-path results differ across thread counts");
    }
}
