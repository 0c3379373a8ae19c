//! On-disk caches for single-core profiles and detailed-simulation
//! results.
//!
//! Detailed simulation is the expensive side of this reproduction (as it
//! is the paper's motivating problem), so every simulated mix and every
//! single-core profile is cached as JSON. Each file is named by a
//! [`content_key`]: FNV-1a over everything that produces its contents —
//! the programs' specs, every machine parameter, the trace geometry —
//! and `CODE_SALT`. Retuning a program, a machine or a geometry
//! therefore names new files; files under old keys are never read again.
//! A profile is `profiles/{name}_{key:016x}.json`; the simulations of one
//! (machine, geometry, core count) share `sims/{key:016x}.json`.

use mppm::{ModelError, SingleCoreProfile, SolverProfile};
use mppm_cache::CacheConfig;
use mppm_obs::{Counter, Observer};
use mppm_sim::{CoreConfig, MachineConfig, MixResult, MixSim, SimArena, TraceCache};
use mppm_trace::{suite, BenchmarkSpec, Fnv1a, TraceGeometry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Mixed into every [`content_key`]. Change it only when code changes
/// the bytes of a stored profile or simulation (the profiler's or the
/// simulator's arithmetic, or the stored format); suite, machine and
/// geometry changes are already in the key and need no change here.
const CODE_SALT: u64 = 6;

/// The key of what `specs` measure on `machines` at `geometry` with
/// `cores` cores: FNV-1a over each spec's [`BenchmarkSpec::fingerprint`],
/// every field of each machine, the geometry, the core count and
/// `CODE_SALT`, the store's code version. A profile is keyed by its one
/// spec and machine on one core, a simulation file by the whole suite,
/// and a campaign plan by its programs and its designs' machines.
pub fn content_key<'a>(
    specs: impl IntoIterator<Item = &'a BenchmarkSpec>,
    machines: impl IntoIterator<Item = MachineConfig>,
    geometry: TraceGeometry,
    cores: usize,
) -> u64 {
    let mut h = Fnv1a::new();
    let mut n = 0u64;
    for spec in specs {
        h.write_u64(spec.fingerprint());
        n += 1;
    }
    h.write_u64(n);
    n = 0;
    for machine in machines {
        hash_machine(&mut h, &machine);
        n += 1;
    }
    h.write_u64(n);
    let TraceGeometry { interval_insns, intervals } = geometry;
    for word in [interval_insns, u64::from(intervals), cores as u64, CODE_SALT] {
        h.write_u64(word);
    }
    h.finish()
}

/// Feeds every field of `machine` to `h`. The patterns name each field,
/// so a field added to the machine does not compile here until it is
/// keyed.
fn hash_machine(h: &mut Fnv1a, machine: &MachineConfig) {
    let MachineConfig {
        core: CoreConfig { width, rob, hide_cycles },
        l1d,
        l2,
        llc,
        mem_latency,
        mem_bandwidth,
    } = *machine;
    for word in [width, rob, hide_cycles, mem_latency] {
        h.write_u64(u64::from(word));
    }
    for CacheConfig { size_bytes, assoc, line_bytes, latency } in [l1d, l2, llc] {
        h.write_u64(size_bytes);
        for word in [assoc, line_bytes, latency] {
            h.write_u64(u64::from(word));
        }
    }
    match mem_bandwidth {
        None => h.write_u64(0),
        Some(cap) => {
            h.write_u64(1);
            h.write_u64(cap.to_bits());
        }
    }
}

/// Locks `mutex`, recovering the data from a panicked holder: every
/// value behind the store's locks stays consistent between statements.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One memoized profile, as measured and solve-ready.
#[derive(Debug)]
struct Memo {
    profile: SingleCoreProfile,
    /// Validated and tabulated once, on the first
    /// [`Store::solver_profile`] call. Built on demand rather than at
    /// load, so callers that only read profiles never hold it.
    solver: OnceLock<Result<Arc<SolverProfile>, ModelError>>,
}

impl Memo {
    fn new(profile: SingleCoreProfile) -> Self {
        Self { profile, solver: OnceLock::new() }
    }
}

/// Key identifying one simulated mix measurement.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MixKey {
    /// Benchmark names in canonical (sorted) order.
    pub names: Vec<String>,
}

impl MixKey {
    /// Builds the canonical key for a set of benchmark names.
    pub fn new(mut names: Vec<String>) -> Self {
        names.sort();
        Self { names }
    }

    fn as_string(&self) -> String {
        self.names.join("+")
    }
}

/// One cached detailed-simulation measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MixRecord {
    /// Benchmark names in the simulated (canonical) order.
    pub names: Vec<String>,
    /// Isolated CPI per program (from the matching profiles).
    pub cpi_sc: Vec<f64>,
    /// Measured multi-core CPI per program.
    pub cpi_mc: Vec<f64>,
    /// Wall-clock seconds the detailed simulation took.
    pub sim_seconds: f64,
}

impl MixRecord {
    /// Measured system throughput.
    pub fn stp(&self) -> f64 {
        mppm::metrics::stp(&self.cpi_sc, &self.cpi_mc)
    }

    /// Measured average normalized turnaround time.
    pub fn antt(&self) -> f64 {
        mppm::metrics::antt(&self.cpi_sc, &self.cpi_mc)
    }

    /// Measured per-program slowdowns.
    pub fn slowdowns(&self) -> Vec<f64> {
        mppm::metrics::slowdowns(&self.cpi_sc, &self.cpi_mc)
    }
}

/// Warm-cache effectiveness counters, published into an attached
/// observer's registry (inert until [`Store::attach_counters`]).
#[derive(Debug, Default)]
struct StoreCounters {
    /// `store.sim_cache_hit`: simulate() served from the sim cache.
    sim_cache_hit: Counter,
    /// `store.sim_cache_miss`: simulate() had to run the simulator.
    sim_cache_miss: Counter,
    /// `store.profile_load`: profile() missed the in-memory memo and
    /// went to disk (or recomputed). A warm process stops incrementing.
    profile_load: Counter,
}

/// Disk-backed store of profiles and mix measurements.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    /// Cached mix measurements per simulation file, by its key, loaded
    /// lazily.
    mixes: Mutex<BTreeMap<u64, BTreeMap<String, MixRecord>>>,
    /// In-memory memo of loaded profiles, by the key that names their
    /// files, so a long-lived process (the `mppmd` daemon) parses,
    /// validates and tabulates each profile once.
    profiles: Mutex<BTreeMap<u64, Arc<Memo>>>,
    /// Compiled traces shared across every simulation this store runs.
    traces: TraceCache,
    /// Pool of warm simulator arenas. A simulation checks one out for its
    /// duration and returns it afterwards, so concurrent callers (the
    /// `mppmd` request path, parallel figure runners) each hold a private
    /// arena while idle ones keep their pools sized for the next mix.
    arenas: Mutex<Vec<SimArena>>,
    counters: Mutex<StoreCounters>,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(root.join("profiles"))?;
        std::fs::create_dir_all(root.join("sims"))?;
        Ok(Self {
            root,
            mixes: Mutex::new(BTreeMap::new()),
            profiles: Mutex::new(BTreeMap::new()),
            traces: TraceCache::new(),
            arenas: Mutex::new(Vec::new()),
            counters: Mutex::new(StoreCounters::default()),
        })
    }

    /// Registers the `store.*` counters with `observer` so warm-cache
    /// effectiveness is observable (`store.sim_cache_hit`/`miss`,
    /// `store.profile_load`). Counters stay inert until this is called.
    pub fn attach_counters(&self, observer: &Observer) {
        let mut counters = lock(&self.counters);
        counters.sim_cache_hit = observer.counter("store.sim_cache_hit");
        counters.sim_cache_miss = observer.counter("store.sim_cache_miss");
        counters.profile_load = observer.counter("store.profile_load");
    }

    /// `(hits, compiles)` of the shared compiled-trace cache.
    pub fn trace_cache_stats(&self) -> (u64, u64) {
        self.traces.stats()
    }

    /// Number of idle warm simulator arenas in the pool. Its high-water
    /// mark equals the store's peak simulation concurrency: sequential
    /// callers keep reusing one arena.
    pub fn warm_arenas(&self) -> usize {
        lock(&self.arenas).len()
    }

    /// Opens the workspace-default store under `target/mppm-store`.
    pub fn open_default() -> std::io::Result<Self> {
        Self::open(default_root())
    }

    /// The directory this store lives in. Subsystems that persist their
    /// own artifacts next to the caches (e.g. campaign journals) root
    /// them here.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn profile_key(spec: &BenchmarkSpec, machine: &MachineConfig, geometry: TraceGeometry) -> u64 {
        content_key([spec], [*machine], geometry, 1)
    }

    fn profile_path(&self, name: &str, key: u64) -> PathBuf {
        self.root.join("profiles").join(format!("{name}_{key:016x}.json"))
    }

    /// The memo entry of `spec`'s profile, loaded or (re)computed on
    /// first use. A hit hashes the spec and machine, takes one lock and
    /// clones one `Arc`.
    fn memo(
        &self,
        spec: &BenchmarkSpec,
        machine: &MachineConfig,
        geometry: TraceGeometry,
    ) -> Arc<Memo> {
        let key = Self::profile_key(spec, machine, geometry);
        if let Some(memo) = lock(&self.profiles).get(&key) {
            return Arc::clone(memo);
        }
        lock(&self.counters).profile_load.incr();
        let path = self.profile_path(spec.name(), key);
        let profile = match read_json::<SingleCoreProfile>(&path) {
            Some(profile) if profile.validate().is_ok() => profile,
            _ => {
                let profile = mppm_sim::profile_single_core(spec, machine, geometry);
                write_json(&path, &profile);
                profile
            }
        };
        let memo = Arc::new(Memo::new(profile));
        lock(&self.profiles).insert(key, Arc::clone(&memo));
        memo
    }

    /// Loads or (re)computes the single-core profile of `spec`.
    pub fn profile(
        &self,
        spec: &BenchmarkSpec,
        machine: &MachineConfig,
        geometry: TraceGeometry,
    ) -> SingleCoreProfile {
        self.memo(spec, machine, geometry).profile.clone()
    }

    /// [`Store::profile`], solve-ready: validated and tabulated once per
    /// store, on the first call, and shared from then on. A repeat takes
    /// one lock and clones one `Arc`.
    ///
    /// # Errors
    ///
    /// The [`ModelError`] of [`SolverProfile::new`] when the profile
    /// fails validation.
    pub fn solver_profile(
        &self,
        spec: &BenchmarkSpec,
        machine: &MachineConfig,
        geometry: TraceGeometry,
    ) -> Result<Arc<SolverProfile>, ModelError> {
        let memo = self.memo(spec, machine, geometry);
        memo.solver.get_or_init(|| SolverProfile::new(&memo.profile).map(Arc::new)).clone()
    }

    /// Number of memoized solve-ready profiles.
    pub fn solve_ready_profiles(&self) -> usize {
        lock(&self.profiles)
            .values()
            .filter(|m| m.solver.get().is_some_and(Result::is_ok))
            .count()
    }

    /// Loads or computes the profiles of the whole suite, in suite order.
    pub fn suite_profiles(
        &self,
        machine: &MachineConfig,
        geometry: TraceGeometry,
    ) -> Vec<SingleCoreProfile> {
        suite::spec_suite().iter().map(|s| self.profile(s, machine, geometry)).collect()
    }

    /// The key of the simulation file of `cores`-program mixes. It
    /// covers the whole suite, since [`Store::simulate`] resolves every
    /// program by name from it: retuning any program renames every file.
    fn sims_key(
        suite: &[BenchmarkSpec],
        machine: &MachineConfig,
        geometry: TraceGeometry,
        cores: usize,
    ) -> u64 {
        content_key(suite, [*machine], geometry, cores)
    }

    fn sim_path(&self, key: u64) -> PathBuf {
        self.root.join("sims").join(format!("{key:016x}.json"))
    }

    /// Loads or runs the detailed simulation of `mix` (benchmark names).
    ///
    /// `cpi_sc` must be the isolated CPIs matching the mix order; they are
    /// stored alongside the measurement so downstream figures need not
    /// recompute profiles.
    pub fn simulate(
        &self,
        mix_names: &[&str],
        cpi_sc: &[f64],
        machine: &MachineConfig,
        geometry: TraceGeometry,
    ) -> MixRecord {
        let key = MixKey::new(mix_names.iter().map(|s| s.to_string()).collect());
        let file_key = Self::sims_key(suite::spec_suite(), machine, geometry, mix_names.len());
        // Fast path: cached.
        {
            let mut files = lock(&self.mixes);
            let file = files
                .entry(file_key)
                .or_insert_with(|| read_json(&self.sim_path(file_key)).unwrap_or_default());
            if let Some(rec) = file.get(&key.as_string()) {
                lock(&self.counters).sim_cache_hit.incr();
                return rec.clone();
            }
        }
        lock(&self.counters).sim_cache_miss.incr();
        // Simulate outside the lock (these take seconds to minutes).
        let specs: Vec<&BenchmarkSpec> = key
            .names
            .iter()
            .map(|n| suite::benchmark(n).expect("mix references a suite benchmark"))
            .collect();
        // mppm-lint: allow(wallclock-in-sim, taint-nondet-to-result): records how long the sim took (sim_seconds telemetry); excluded from golden comparisons and cache keys
        let started = Instant::now();
        // Check a warm arena out of the pool for the duration of the run
        // (never holding the pool lock while simulating), and return it
        // warmer than we found it.
        let mut arena = lock(&self.arenas).pop().unwrap_or_default();
        let result: MixResult = MixSim::new(&specs, machine, geometry)
            .trace_cache(&self.traces)
            .arena(&mut arena)
            .run();
        lock(&self.arenas).push(arena);
        // `cpi_sc` arrives in caller order; rebuild it in canonical order.
        let mut sc_by_name: BTreeMap<&str, f64> = BTreeMap::new();
        for (n, &sc) in mix_names.iter().zip(cpi_sc) {
            sc_by_name.insert(n, sc);
        }
        let record = MixRecord {
            names: key.names.clone(),
            cpi_sc: key.names.iter().map(|n| sc_by_name[n.as_str()]).collect(),
            cpi_mc: result.cpi_mc,
            sim_seconds: started.elapsed().as_secs_f64(),
        };
        let mut files = lock(&self.mixes);
        let file = files.entry(file_key).or_default();
        file.insert(key.as_string(), record.clone());
        write_json(&self.sim_path(file_key), file);
        record
    }

    /// Number of cached simulations for a (machine, geometry, cores)
    /// combination.
    pub fn cached_sims(
        &self,
        machine: &MachineConfig,
        geometry: TraceGeometry,
        cores: usize,
    ) -> usize {
        let file_key = Self::sims_key(suite::spec_suite(), machine, geometry, cores);
        lock(&self.mixes)
            .entry(file_key)
            .or_insert_with(|| read_json(&self.sim_path(file_key)).unwrap_or_default())
            .len()
    }
}

/// Workspace-default store root: `<workspace>/target/mppm-store`.
pub fn default_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/experiments; the workspace root is two
    // levels up.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/mppm-store")
}

fn read_json<T: serde::de::DeserializeOwned>(path: &Path) -> Option<T> {
    let bytes = std::fs::read(path).ok()?;
    serde_json::from_slice(&bytes).ok()
}

/// Atomic byte-level writes, re-exported from the observability crate
/// (the implementation moved to `mppm_obs` so the JSONL trace sink can
/// use the same primitive without depending on this crate).
///
/// Every result-file write in the workspace routes through this function
/// or [`atomic_write_json`]; the `non-atomic-write` lint enforces it.
pub use mppm_obs::atomic_write_bytes;

/// Serializes `value` as JSON to `path` via [`atomic_write_bytes`].
///
/// # Errors
///
/// Any I/O error from writing the temp file or renaming it.
pub fn atomic_write_json<T: Serialize>(path: &Path, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_vec(value).expect("serialization cannot fail");
    atomic_write_bytes(path, &json)
}

fn write_json<T: Serialize>(path: &Path, value: &T) {
    // Cache writes are best-effort: a failure costs recomputation, not
    // correctness.
    let _ = atomic_write_json(path, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tmp_store() -> (tempdir::TempDir, Store) {
        let dir = tempdir::TempDir::new();
        let store = Store::open(dir.path.clone()).unwrap();
        (dir, store)
    }

    /// Minimal self-made tempdir (avoids an extra dependency).
    mod tempdir {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static NEXT: AtomicU64 = AtomicU64::new(0);

        pub struct TempDir {
            pub path: PathBuf,
        }

        impl TempDir {
            pub fn new() -> Self {
                let path = std::env::temp_dir().join(format!(
                    "mppm-store-test-{}-{}",
                    std::process::id(),
                    NEXT.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&path).unwrap();
                Self { path }
            }
        }

        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.path);
            }
        }
    }

    #[test]
    fn profile_round_trips_through_cache() {
        let (_dir, store) = tmp_store();
        let machine = MachineConfig::baseline();
        let geometry = TraceGeometry::tiny();
        let spec = suite::benchmark("hmmer").unwrap();
        let first = store.profile(spec, &machine, geometry);
        let second = store.profile(spec, &machine, geometry);
        assert_eq!(first, second, "cache hit returns the identical profile");
    }

    #[test]
    fn solver_profiles_are_built_once_and_shared() {
        let (dir, store) = tmp_store();
        let observer = Observer::with_sinks(Vec::new());
        store.attach_counters(&observer);
        let loads = || {
            observer
                .counter_snapshot()
                .into_iter()
                .find(|(n, _)| n == "store.profile_load")
                .map_or(0, |(_, v)| v)
        };
        let machine = MachineConfig::baseline();
        let geometry = TraceGeometry::tiny();
        let spec = suite::benchmark("hmmer").unwrap();
        assert_eq!(store.solve_ready_profiles(), 0);
        let first = store.solver_profile(spec, &machine, geometry).unwrap();
        assert_eq!(loads(), 1);
        let again = store.solver_profile(spec, &machine, geometry).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "a repeat shares the memoized profile");
        assert_eq!(*first, SolverProfile::new(&store.profile(spec, &machine, geometry)).unwrap());
        assert_eq!(loads(), 1, "repeats and `profile` read the memo");
        assert_eq!(store.solve_ready_profiles(), 1);
        // A profile loaded from disk by a fresh store is the same.
        let reopened = Store::open(dir.path.clone()).unwrap();
        assert_eq!(*reopened.solver_profile(spec, &machine, geometry).unwrap(), *first);
        // Another design point is another entry.
        let other = MachineConfig::baseline().with_mem_bandwidth(0.04);
        let limited = store.solver_profile(spec, &other, geometry).unwrap();
        assert!(!Arc::ptr_eq(&first, &limited));
        assert_eq!((loads(), store.solve_ready_profiles()), (2, 2));
    }

    #[test]
    fn sim_cache_hits_after_first_run() {
        let (_dir, store) = tmp_store();
        let machine = MachineConfig::baseline();
        let geometry = TraceGeometry::tiny();
        let names = ["hmmer", "povray"];
        let sc: Vec<f64> = names
            .iter()
            .map(|n| store.profile(suite::benchmark(n).unwrap(), &machine, geometry).cpi_sc())
            .collect();
        assert_eq!(store.cached_sims(&machine, geometry, 2), 0);
        let a = store.simulate(&names, &sc, &machine, geometry);
        assert_eq!(store.cached_sims(&machine, geometry, 2), 1);
        let b = store.simulate(&names, &sc, &machine, geometry);
        assert_eq!(a.cpi_mc, b.cpi_mc);
        assert!(a.stp() > 0.0 && a.antt() >= 1.0 - 1e-9);
    }

    /// `spec` retuned four ways, one parameter each: its first phase's
    /// `mem_ratio`, its first region's `blocks`, its seed, its schedule.
    fn retunings(spec: &BenchmarkSpec) -> Vec<BenchmarkSpec> {
        let rebuild = |seed, phases, schedule| {
            BenchmarkSpec::new(spec.name(), seed, phases, schedule).unwrap()
        };
        let (phases, schedule) = (spec.phases().to_vec(), spec.schedule().to_vec());
        let mut mem_ratio = phases.clone();
        mem_ratio[0].mem_ratio *= 0.5;
        let mut blocks = phases.clone();
        blocks[0].regions[0].blocks += 1;
        let mut longer = schedule.clone();
        longer.push(0);
        vec![
            rebuild(spec.seed(), mem_ratio, schedule.clone()),
            rebuild(spec.seed(), blocks, schedule.clone()),
            rebuild(spec.seed() ^ 1, phases.clone(), schedule),
            rebuild(spec.seed(), phases, longer),
        ]
    }

    /// The baseline machine and one copy per field changed, each
    /// bandwidth cap and each Table 2 LLC.
    fn machines() -> Vec<MachineConfig> {
        let base = MachineConfig::baseline();
        let edits: [fn(&mut MachineConfig); 16] = [
            |m| m.core.width = 2,
            |m| m.core.rob = 64,
            |m| m.core.hide_cycles = 8,
            |m| m.l1d.size_bytes *= 2,
            |m| m.l1d.assoc = 4,
            |m| m.l1d.line_bytes = 128,
            |m| m.l1d.latency = 2,
            |m| m.l2.size_bytes *= 2,
            |m| m.l2.assoc = 16,
            |m| m.l2.line_bytes = 128,
            |m| m.l2.latency = 12,
            |m| m.llc.line_bytes = 128,
            |m| m.mem_latency = 300,
            |m| m.mem_bandwidth = Some(0.04),
            |m| m.mem_bandwidth = Some(0.08),
            |m| m.mem_bandwidth = Some(0.0),
        ];
        let edited = edits.iter().map(|edit| {
            let mut m = base;
            edit(&mut m);
            m
        });
        let llcs = mppm_sim::llc_configs().into_iter().map(|llc| base.with_llc(llc));
        std::iter::once(base).chain(edited).chain(llcs.skip(1)).collect()
    }

    /// The profile key of one program on `machine`: what a machine
    /// contributes to the file names in `profiles/`.
    fn machine_key(machine: &MachineConfig) -> u64 {
        Store::profile_key(&suite::spec_suite()[0], machine, TraceGeometry::tiny())
    }

    #[test]
    fn machine_tags_distinguish_bandwidth() {
        let base = MachineConfig::baseline();
        let limited = MachineConfig::baseline().with_mem_bandwidth(0.04);
        assert_ne!(machine_key(&base), machine_key(&limited));
        let other = MachineConfig::baseline().with_mem_bandwidth(0.08);
        assert_ne!(machine_key(&limited), machine_key(&other));
    }

    #[test]
    fn machine_tags_distinguish_llc_configs() {
        let keys: Vec<u64> = mppm_sim::llc_configs()
            .iter()
            .map(|llc| machine_key(&MachineConfig::baseline().with_llc(*llc)))
            .collect();
        let unique: HashSet<_> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "all six configs get distinct keys");
    }

    #[test]
    fn keys_change_with_exactly_the_inputs_they_cover() {
        let geometry = TraceGeometry::tiny();
        let suite = suite::spec_suite();
        let base = MachineConfig::baseline();
        let profile_keys = |specs: &[BenchmarkSpec], m: &MachineConfig, g| -> Vec<u64> {
            specs.iter().map(|s| Store::profile_key(s, m, g)).collect()
        };
        let sims_keys = |specs: &[BenchmarkSpec], m: &MachineConfig, g| -> Vec<u64> {
            (1..=8).map(|cores| Store::sims_key(specs, m, g, cores)).collect()
        };
        let profiles = profile_keys(suite, &base, geometry);
        let sims = sims_keys(suite, &base, geometry);
        let unique: HashSet<_> = profiles.iter().chain(&sims).collect();
        assert_eq!(unique.len(), profiles.len() + sims.len(), "every program and core count apart");

        // Retuning one program changes its profile key and every sims
        // key, and no other program's profile key.
        for k in [0, 13, suite.len() - 1] {
            for retuned in retunings(&suite[k]) {
                let mut specs = suite.to_vec();
                specs[k] = retuned;
                let keys = profile_keys(&specs, &base, geometry);
                for (i, (new, old)) in keys.iter().zip(&profiles).enumerate() {
                    assert_eq!(new == old, i != k, "{}: program {i}", suite[k].name());
                }
                let resims = sims_keys(&specs, &base, geometry);
                assert!(resims.iter().zip(&sims).all(|(new, old)| new != old));
            }
        }

        // Every machine field and the geometry are keyed, for the
        // profile and the sims file alike.
        let mut seen = HashSet::new();
        for machine in machines() {
            assert!(seen.insert(Store::profile_key(&suite[0], &machine, geometry)), "{machine:?}");
            assert!(seen.insert(Store::sims_key(suite, &machine, geometry, 4)), "{machine:?}");
        }
        let longer = TraceGeometry::new(geometry.interval_insns, geometry.intervals + 1);
        assert!(profile_keys(suite, &base, longer).iter().all(|k| !profiles.contains(k)));
        assert!(sims_keys(suite, &base, longer).iter().all(|k| !sims.contains(k)));
    }

    #[test]
    fn mix_key_is_order_insensitive() {
        let a = MixKey::new(vec!["b".into(), "a".into()]);
        let b = MixKey::new(vec!["a".into(), "b".into()]);
        assert_eq!(a, b);
        assert_eq!(a.as_string(), "a+b");
    }

    #[test]
    fn partial_and_truncated_files_are_ignored_on_reload() {
        let (dir, store) = tmp_store();
        let machine = MachineConfig::baseline();
        let geometry = TraceGeometry::tiny();
        let spec = suite::benchmark("hmmer").unwrap();
        let reference = store.profile(spec, &machine, geometry);
        let path = store.profile_path(spec.name(), Store::profile_key(spec, &machine, geometry));
        assert!(path.exists(), "profile was cached");

        // A stray staging file from a killed writer must never be read.
        let tmp = path.with_file_name(format!(
            "{}.tmp-999-0",
            path.file_name().unwrap().to_str().unwrap()
        ));
        // mppm-lint: allow(non-atomic-write): fabricates the stray staging file this test is about
        std::fs::write(&tmp, b"{\"name\": \"hmm").unwrap();

        // Truncate the real cache entry, simulating a non-atomic torn
        // write (exactly what atomic_write_json makes impossible).
        let bytes = std::fs::read(&path).unwrap();
        // mppm-lint: allow(non-atomic-write): deliberately tears the cache entry to prove reload survives it
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let reopened = Store::open(dir.path.clone()).unwrap();
        let recomputed = reopened.profile(spec, &machine, geometry);
        assert_eq!(recomputed, reference, "corrupt entry is recomputed, not trusted");
        let healed = std::fs::read(&path).unwrap();
        assert_eq!(healed, bytes, "recomputation rewrites the full entry");
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let (dir, _store) = tmp_store();
        let path = dir.path.join("value.json");
        atomic_write_json(&path, &vec![1u32, 2, 3]).unwrap();
        atomic_write_json(&path, &vec![4u32, 5]).unwrap();
        let entries: Vec<String> = std::fs::read_dir(&dir.path)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("tmp"))
            .collect();
        assert!(entries.is_empty(), "staging files linger: {entries:?}");
        let back: Vec<u32> = serde_json::from_slice(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back, vec![4, 5]);
    }

    #[test]
    fn store_counters_track_cache_warmth() {
        let (_dir, store) = tmp_store();
        let observer = Observer::with_sinks(Vec::new());
        store.attach_counters(&observer);
        let machine = MachineConfig::baseline();
        let geometry = TraceGeometry::tiny();
        let names = ["hmmer", "povray"];
        let sc: Vec<f64> = names
            .iter()
            .map(|n| store.profile(suite::benchmark(n).unwrap(), &machine, geometry).cpi_sc())
            .collect();
        let counter = |name: &str| {
            observer
                .counter_snapshot()
                .into_iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| v)
        };
        assert_eq!(counter("store.profile_load"), 2, "one load per distinct profile");
        store.simulate(&names, &sc, &machine, geometry);
        assert_eq!(counter("store.sim_cache_miss"), 1);
        assert_eq!(counter("store.sim_cache_hit"), 0);
        store.simulate(&names, &sc, &machine, geometry);
        assert_eq!(counter("store.sim_cache_hit"), 1, "repeat request hits");
        // Profiles now come from the in-memory memo: no further loads.
        store.profile(suite::benchmark("hmmer").unwrap(), &machine, geometry);
        assert_eq!(counter("store.profile_load"), 2);
        // The shared trace cache compiled each program once.
        let (_, compiles) = store.trace_cache_stats();
        assert_eq!(compiles, 2);
    }

    #[test]
    fn sequential_simulations_share_one_warm_arena() {
        let (_dir, store) = tmp_store();
        let machine = MachineConfig::baseline();
        let geometry = TraceGeometry::tiny();
        assert_eq!(store.warm_arenas(), 0, "pool starts empty");
        for names in [["hmmer", "povray"], ["hmmer", "lbm"], ["mcf", "lbm"]] {
            let sc: Vec<f64> = names
                .iter()
                .map(|n| {
                    store.profile(suite::benchmark(n).unwrap(), &machine, geometry).cpi_sc()
                })
                .collect();
            store.simulate(&names, &sc, &machine, geometry);
            assert_eq!(store.warm_arenas(), 1, "one caller at a time reuses one arena");
        }
        // Cache hits never touch the pool.
        let sc = [1.0, 1.0];
        store.simulate(&["hmmer", "povray"], &sc, &machine, geometry);
        assert_eq!(store.warm_arenas(), 1);
    }

    #[test]
    fn cache_survives_reopen() {
        let (dir, store) = tmp_store();
        let machine = MachineConfig::baseline();
        let geometry = TraceGeometry::tiny();
        let names = ["hmmer", "hmmer"];
        let sc: Vec<f64> = names
            .iter()
            .map(|n| store.profile(suite::benchmark(n).unwrap(), &machine, geometry).cpi_sc())
            .collect();
        let a = store.simulate(&names, &sc, &machine, geometry);
        drop(store);
        let reopened = Store::open(dir.path.clone()).unwrap();
        assert_eq!(reopened.cached_sims(&machine, geometry, 2), 1);
        let b = reopened.simulate(&names, &sc, &machine, geometry);
        assert_eq!(a.cpi_mc, b.cpi_mc);
    }
}
