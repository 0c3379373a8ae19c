//! `simulate`: detailed simulation plus model prediction of seed-chosen
//! 4- and 8-program mixes at paper geometry on LLC config #1, each a
//! fresh `MixSim::run` with no store sim cache. Every mix pairs
//! memory-bound programs (mcf, lbm, libquantum) with compute-bound ones
//! (povray, namd), so the shared LLC is contended. This is where trace
//! compilation, the cache kernel and the interleaver do their work;
//! the other workloads barely touch them.

use std::collections::BTreeMap;

use mppm::SingleCoreProfile;
use mppm_experiments::{Context, Scale, Store};
use mppm_sim::MachineConfig;
use mppm_trace::BenchmarkSpec;

use crate::layers::{self, Simulated, Tr};
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::stats::summarize;
use crate::{host, serve, Run};

/// The mixes every pass simulates: two 4-program mixes and one
/// 8-program mix, each pairing memory-bound with compute-bound programs.
/// The composition is fixed so every seed does the same work; the seed
/// chooses where each program sits: a rotation of the mix over the
/// cores, which changes how contention ties break.
const MIXES: [&[&str]; 3] = [
    &["mcf", "lbm", "povray", "namd"],
    &["libquantum", "lbm", "namd", "povray"],
    &[
        "mcf",
        "lbm",
        "libquantum",
        "mcf",
        "povray",
        "namd",
        "povray",
        "namd",
    ],
];

/// Per-mix digests of every simulated statistic, recorded from this
/// workspace's simulator: `<comma-separated mix> <hex digest>` lines.
const DIGESTS: &str = include_str!("../expected/simulate_digests.txt");

/// Repetitions of the solver over the workload's mixes in a traced run.
const SOLVE_REPS: usize = 200;

/// `mix` rotated left by `by` cores.
fn rotated(mix: &[&'static str], by: usize) -> Vec<&'static str> {
    let mut m = mix.to_vec();
    m.rotate_left(by % mix.len());
    m
}

/// The seed's mixes: each of [`MIXES`] at a seeded rotation. Their
/// order is fixed, since it moves the process's peak memory.
fn mixes(seed: u64) -> Vec<Vec<&'static str>> {
    let mut rng = Rng::new(seed);
    MIXES
        .iter()
        .map(|m| rotated(m, rng.below(m.len())))
        .collect()
}

/// Every rotation of every mix, for recording digests.
#[cfg(test)]
fn pool() -> Vec<Vec<&'static str>> {
    MIXES
        .iter()
        .flat_map(|m| (0..m.len()).map(move |r| rotated(m, r)))
        .collect()
}

fn expected_digests() -> BTreeMap<String, u64> {
    DIGESTS
        .lines()
        .filter_map(|l| {
            let (mix, hex) = l.split_once(' ')?;
            Some((mix.to_string(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

/// Counts one simulated mix, failed unless its digest matches the
/// recorded one.
fn gate(report: &mut Report, expected: &BTreeMap<String, u64>, names: &[&str], sim: &Simulated) {
    let key = names.join(",");
    let digest = sim.digest();
    println!(
        "digest {key} {digest:016x} stp sim {:.6} model {:.6}",
        sim.stp_sim, sim.stp_model
    );
    report.op(expected.get(&key) == Some(&digest), || {
        format!(
            "simulated statistics of {key} digest to {digest:016x}, recorded {:?}",
            expected.get(&key)
        )
    });
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let expected = expected_digests();
    let mixes = mixes(run.seed);
    let store = Store::open(run.dir.join("store")).map_err(|e| format!("opening store: {e}"))?;
    let ctx = Context::with_store(Scale::Full, store);
    let machine = ctx.machine_with_config(0);
    let geometry = ctx.geometry();
    let mut programs: Vec<&str> = mixes.iter().flatten().copied().collect();
    programs.sort_unstable();
    programs.dedup();
    let keys: Vec<(&BenchmarkSpec, MachineConfig)> = programs
        .iter()
        .map(|n| layers::spec(n).map(|s| (s, machine)))
        .collect::<Result<_, _>>()?;
    let profiles_of = |names: &[&str]| -> Vec<SingleCoreProfile> {
        names
            .iter()
            .map(|n| {
                ctx.store()
                    .profile(layers::spec(n).expect("pool names"), &machine, geometry)
            })
            .collect()
    };

    if !run.trace {
        layers::profile_all(None, ctx.store(), &keys, geometry);
        report.set("setup_s", run.started.elapsed().as_secs_f64());
        let (mut latencies, mut errors) = (Vec::new(), Vec::new());
        let (mut insns, mut busy) = (0u64, 0.0);
        let window = host::now();
        while latencies.is_empty() || window.elapsed().as_secs_f64() < run.seconds {
            for names in &mixes {
                let sim = layers::simulate(None, names, &machine, geometry, &profiles_of(names))?;
                gate(report, &expected, names, &sim);
                latencies.push(sim.run_s * 1e3);
                errors.push(sim.stp_err_pct());
                insns += sim.insns;
                busy += sim.run_s;
            }
        }
        let latency = summarize(&latencies);
        let rate = insns as f64 / 1e6 / busy;
        println!("sim_minsn_per_s = {rate:.3} Minsn/s ({insns} simulated instructions)");
        println!("mix latency {}", latency.describe("ms"));
        println!(
            "stp_err_pct = {:.4} % (mean over {} simulated mixes)",
            errors.iter().sum::<f64>() / errors.len() as f64,
            errors.len()
        );
        report.set("work_per_s", rate);
        report.set(
            "peak_rss_mb",
            host::peak_rss_mb(None).ok_or("reading VmHWM")?,
        );
        return Ok(());
    }

    let tracer = Tracer::new(&run.dir.join("trace.jsonl"));
    ctx.store().attach_counters(tracer.observer());
    let root = tracer.root();
    let tr: Tr = Some((&tracer, &root));
    layers::profile_all(tr, ctx.store(), &keys, geometry);
    // One untraced pass first, as the baseline for the overhead.
    let mut untraced_s = 0.0;
    for names in &mixes {
        untraced_s += layers::simulate(None, names, &machine, geometry, &profiles_of(names))?.run_s;
    }
    let mut sims = Vec::new();
    for names in &mixes {
        let sim = layers::simulate(tr, names, &machine, geometry, &profiles_of(names))?;
        gate(report, &expected, names, &sim);
        sims.push(sim);
    }
    let all: Vec<Vec<SingleCoreProfile>> = mixes.iter().map(|m| profiles_of(m)).collect();
    let refs: Vec<Vec<&SingleCoreProfile>> = (0..SOLVE_REPS)
        .flat_map(|_| all.iter().map(|ps| ps.iter().collect()))
        .collect();
    layers::solve(tr, report, &refs)?;
    let hits = layers::profile_hits(tr, ctx.store(), &keys, geometry, 200);
    let lines: Vec<String> = (0..300)
        .map(|i| layers::request_line(i as u64 + 1, &mixes[i % mixes.len()], 0, false))
        .collect();
    let value = layers::result_value(
        &layers::model()
            .predict(&refs[0])
            .map_err(|e| e.to_string())?,
    );
    layers::protocol(tr, report, &lines, &value);
    let journal_bytes = layers::campaign_probe(tr, report, &run.dir)?;
    drop(root);
    report.set(
        "store.profile_load",
        layers::counter(&tracer, "store.profile_load") as f64,
    );
    let calls = tracer.fold()?;
    layers::record_profiles(report, &calls, geometry);
    layers::record_sims(report, &calls, &sims);
    layers::record_solve(report, &calls, refs.len());
    layers::record_profile_hits(report, &calls, hits);
    layers::record_protocol(report, &calls, lines.len());
    layers::record_campaign(report, &calls, journal_bytes);
    let traced_s =
        layers::call(&calls, "trace:compile").self_s + layers::call(&calls, "cmpsim:run").self_s;
    report.set(
        "obs.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    println!("traced simulation {traced_s:.3} s vs untraced {untraced_s:.3} s");
    serve::probe(run, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_deterministic_per_seed_and_drawn_from_the_pool() {
        assert_eq!(mixes(3), mixes(3));
        let pool = pool();
        assert_eq!(pool.len(), 16);
        for seed in 0..20 {
            let m = mixes(seed);
            assert_eq!(m.iter().filter(|x| x.len() == 4).count(), 2);
            assert_eq!(m.iter().filter(|x| x.len() == 8).count(), 1);
            assert!(m.iter().all(|x| pool.contains(x)));
            let mut sorted: Vec<Vec<&str>> = m
                .iter()
                .map(|x| {
                    let mut x = x.clone();
                    x.sort();
                    x
                })
                .collect();
            sorted.sort();
            let mut fixed: Vec<Vec<&str>> = MIXES
                .iter()
                .map(|x| {
                    let mut x = x.to_vec();
                    x.sort();
                    x
                })
                .collect();
            fixed.sort();
            assert_eq!(sorted, fixed, "every seed simulates the same programs");
        }
        assert!(
            (0..20).any(|s| mixes(s) != mixes(0)),
            "seeds choose different mixes"
        );
    }

    #[test]
    fn every_pool_mix_has_a_recorded_digest() {
        let expected = expected_digests();
        for mix in pool() {
            assert!(expected.contains_key(&mix.join(",")), "{mix:?}");
        }
    }

    /// Prints the digest file for the pool (`cargo test --release --
    /// --ignored --nocapture print_pool_digests`). Re-record only when a
    /// change to the simulator is meant to change its statistics.
    #[test]
    #[ignore]
    fn print_pool_digests() {
        let dir = std::env::temp_dir().join(format!("perfbench-digests-{}", std::process::id()));
        let ctx = Context::with_store(Scale::Full, Store::open(&dir).unwrap());
        let machine = ctx.machine_with_config(0);
        for names in pool() {
            let profiles: Vec<SingleCoreProfile> = names
                .iter()
                .map(|n| {
                    ctx.store()
                        .profile(layers::spec(n).unwrap(), &machine, ctx.geometry())
                })
                .collect();
            let sim = layers::simulate(None, &names, &machine, ctx.geometry(), &profiles).unwrap();
            println!("{} {:016x}", names.join(","), sim.digest());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
