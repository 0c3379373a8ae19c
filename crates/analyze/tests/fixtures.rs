//! Fixture corpus: every rule must fire on a seeded violation and stay
//! silent on the fixed form, and the suppression machinery must demand
//! justifications and flag rot.
//!
//! Fixtures are in-memory sources handed straight to the engine, with
//! paths chosen to satisfy each rule's scope policy (`crates/*/src/` for
//! library rules). They live inside string literals here, which the
//! analyzer's own lexer strips when it scans *this* file — the corpus
//! cannot trip the self-test.

use mppm_analyze::{analyze_sources, Analysis, RuleFilter};

const LIB: &str = "crates/fixture/src/lib.rs";

fn analyze_one(path: &str, src: &str) -> Analysis {
    analyze_sources(&[(path, src)], &RuleFilter::default())
}

fn rules_fired(analysis: &Analysis) -> Vec<(String, usize)> {
    analysis.violations.iter().map(|v| (v.rule.clone(), v.line)).collect()
}

/// Asserts `bad` produces exactly one `rule` violation (and nothing else)
/// and `good` produces none.
fn fires_and_fixes(rule: &str, bad: &str, good: &str) {
    let bad_result = analyze_one(LIB, bad);
    assert_eq!(
        bad_result.violations.len(),
        1,
        "{rule}: seeded violation must fire exactly once, got {:?}",
        rules_fired(&bad_result)
    );
    assert_eq!(bad_result.violations[0].rule, rule);
    let good_result = analyze_one(LIB, good);
    assert!(
        good_result.is_clean(),
        "{rule}: fixed form must be silent, got {:?}",
        rules_fired(&good_result)
    );
}

#[test]
fn float_partial_order() {
    fires_and_fixes(
        "float-partial-order",
        r#"
fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs
}
"#,
        r#"
fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs
}
"#,
    );
}

#[test]
fn float_partial_order_ignores_trait_definitions() {
    // `fn partial_cmp` inside a PartialOrd impl is the *definition* of a
    // total order over a newtype — only call sites are flagged.
    let src = r#"
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
"#;
    assert!(analyze_one(LIB, src).is_clean());
}

#[test]
fn nondet_map_iteration() {
    fires_and_fixes(
        "nondet-map-iteration",
        r#"
use std::collections::HashMap;
fn tally(xs: &[u64]) -> Vec<(u64, u64)> {
    let mut m = HashMap::new();
    for &x in xs { *m.entry(x).or_insert(0) += 1; }
    m.into_iter().collect()
}
"#
        // Keep the fixture to a single firing line: the `use` line.
        .replacen("let mut m = HashMap::new();", "let mut m = std::collections::BTreeMap::new();", 1)
        .as_str(),
        r#"
use std::collections::BTreeMap;
fn tally(xs: &[u64]) -> Vec<(u64, u64)> {
    let mut m = BTreeMap::new();
    for &x in xs { *m.entry(x).or_insert(0) += 1; }
    m.into_iter().collect()
}
"#,
    );
}

#[test]
fn nondet_map_is_fine_in_tests() {
    let src = r#"
#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    fn distinct(xs: &[u64]) -> usize {
        xs.iter().collect::<HashSet<_>>().len()
    }
}
"#;
    assert!(analyze_one(LIB, src).is_clean(), "order-insensitive test helpers are exempt");
}

#[test]
fn non_atomic_write() {
    fires_and_fixes(
        "non-atomic-write",
        r#"
fn save(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, bytes)
}
"#,
        r#"
fn save(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    atomic_write_bytes(path, bytes)
}
"#,
    );
}

#[test]
fn non_atomic_write_applies_inside_tests_too() {
    // Torn-file *fabrication* in tests is legal only via a justified
    // allow — the rule itself must fire there.
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn tears() { std::fs::write("x", b"half").unwrap(); }
}
"#;
    let analysis = analyze_one(LIB, src);
    assert_eq!(rules_fired(&analysis).len(), 1);
    assert_eq!(analysis.violations[0].rule, "non-atomic-write");
}

#[test]
fn wallclock_in_sim() {
    fires_and_fixes(
        "wallclock-in-sim",
        r#"
fn stamp() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}
"#,
        r#"
fn stamp(clock: u64) -> u64 {
    clock
}
"#,
    );
}

#[test]
fn wallclock_allowed_in_bench_paths() {
    let src = "fn t() { let x = std::time::Instant::now(); }";
    assert!(analyze_one("crates/experiments/src/speed.rs", src).is_clean());
    assert!(!analyze_one("crates/experiments/src/fig3.rs", src).is_clean());
}

#[test]
fn unwrap_in_lib() {
    fires_and_fixes(
        "unwrap-in-lib",
        r#"
fn head(xs: &[u64]) -> u64 {
    *xs.first().unwrap()
}
"#,
        r#"
fn head(xs: &[u64]) -> u64 {
    *xs.first().expect("caller guarantees a non-empty slice")
}
"#,
    );
}

#[test]
fn unwrap_in_lib_flags_messageless_expect() {
    let empty = "fn f(x: Option<u64>) -> u64 { x.expect(\"\") }";
    let dynamic = "fn f(x: Option<u64>, m: &str) -> u64 { x.expect(m) }";
    for src in [empty, dynamic] {
        let analysis = analyze_one(LIB, src);
        assert_eq!(analysis.violations.len(), 1, "{src}");
        assert_eq!(analysis.violations[0].rule, "unwrap-in-lib");
    }
}

#[test]
fn unwrap_is_fine_in_tests_bins_and_examples() {
    let src = "fn f(x: Option<u64>) -> u64 { x.unwrap() }";
    assert!(analyze_one("crates/fixture/src/bin/tool.rs", src).is_clean());
    assert!(analyze_one("crates/fixture/src/main.rs", src).is_clean());
    assert!(analyze_one("examples/quickstart.rs", src).is_clean());
    assert!(analyze_one("tests/end_to_end.rs", src).is_clean());
    let test_mod = "#[cfg(test)] mod tests { fn f(x: Option<u64>) -> u64 { x.unwrap() } }";
    assert!(analyze_one(LIB, test_mod).is_clean());
}

#[test]
fn lossy_counter_cast() {
    fires_and_fixes(
        "lossy-counter-cast",
        r#"
fn depth(counter: u64) -> u32 {
    counter as u32
}
"#,
        r#"
fn depth(counter: u64) -> u32 {
    u32::try_from(counter).expect("depth is bounded by associativity")
}
"#,
    );
}

#[test]
fn widening_and_float_casts_are_fine() {
    let src = r#"
fn f(x: u32, y: u64) -> (u64, usize, f64) {
    (x as u64, x as usize, y as f64)
}
"#;
    assert!(analyze_one(LIB, src).is_clean());
}

#[test]
fn justified_allow_suppresses_and_counts() {
    let src = r#"
fn fast_path(pos: usize) -> u32 {
    pos as u32 // mppm-lint: allow(lossy-counter-cast): pos < assoc <= 2^32 by construction
}
"#;
    let analysis = analyze_one(LIB, src);
    assert!(analysis.is_clean(), "got {:?}", rules_fired(&analysis));
    assert_eq!(analysis.suppressed, 1);
}

#[test]
fn allow_on_the_line_above_suppresses() {
    let src = r#"
fn fast_path(pos: usize) -> u32 {
    // mppm-lint: allow(lossy-counter-cast): pos < assoc <= 2^32 by construction
    pos as u32
}
"#;
    let analysis = analyze_one(LIB, src);
    assert!(analysis.is_clean(), "got {:?}", rules_fired(&analysis));
    assert_eq!(analysis.suppressed, 1);
}

#[test]
fn unjustified_allow_is_a_violation() {
    let src = r#"
fn fast_path(pos: usize) -> u32 {
    pos as u32 // mppm-lint: allow(lossy-counter-cast)
}
"#;
    let fired = rules_fired(&analyze_one(LIB, src));
    // The naked allow is invalid AND the cast still fires.
    assert!(
        fired.iter().any(|(r, _)| r == "invalid-suppression"),
        "missing justification must be flagged: {fired:?}"
    );
    assert!(fired.iter().any(|(r, _)| r == "lossy-counter-cast"));
}

#[test]
fn uncompiled_hot_loop() {
    fires_and_fixes(
        "uncompiled-hot-loop",
        r#"
fn drive(stream: &mut TraceStream) -> u64 {
    let mut insns = 0;
    while insns < 1000 { insns += stream.next_item().insns(); }
    insns
}
"#,
        r#"
fn reference_drive(stream: &mut TraceStream) -> u64 {
    let mut insns = 0;
    while insns < 1000 { insns += stream.next_item().insns(); }
    insns
}
"#,
    );
}

#[test]
fn uncompiled_hot_loop_exempts_the_trace_crate_and_tests() {
    // The generator crate defines `next_item` (and the compiler is its
    // blessed bulk consumer); tests drive items deliberately.
    let src = "fn f(s: &mut TraceStream) { let _ = s.next_item(); }\n";
    assert!(analyze_one("crates/trace/src/compile.rs", src).is_clean());
    assert!(analyze_one("tests/determinism.rs", src).is_clean());
    assert!(!analyze_one("crates/cmpsim/src/engine.rs", src).is_clean());
}

#[test]
fn blocking_in_handler() {
    let bad = r#"
fn drain(conn: &mut UnixStream) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    conn.read_to_end(&mut buf)?;
    Ok(buf)
}
"#;
    let good = r#"
fn drain(conn: UnixStream) -> std::io::Result<Frame> {
    let mut reader = FrameReader::new(conn);
    reader.next_frame()
}
"#;
    let handler = "crates/server/src/daemon.rs";
    let analysis = analyze_one(handler, bad);
    assert_eq!(rules_fired(&analysis), vec![("blocking-in-handler".to_string(), 4)]);
    assert!(analyze_one(handler, good).is_clean());
}

#[test]
fn blocking_in_handler_covers_server_tests_but_not_other_crates() {
    // `.read_to_string(` fires too, and test code in the server crate is
    // covered (a blocked test hangs CI just as effectively)...
    let in_test = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn drains() {
        let mut s = String::new();
        conn.read_to_string(&mut s).expect("reads");
    }
}
"#;
    let fired = rules_fired(&analyze_one("crates/server/tests/wire.rs", in_test));
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert_eq!(fired[0].0, "blocking-in-handler");
    // ...but outside `crates/server/` the same code is not this rule's
    // business (file reads to EOF are fine in figure harnesses).
    let src = "fn f(r: &mut impl Read) { let mut b = Vec::new(); r.read_to_end(&mut b); }";
    assert!(analyze_one(LIB, src).is_clean());
    assert!(analyze_one("crates/experiments/src/fig3.rs", src).is_clean());
}

#[test]
fn alloc_in_steady_loop() {
    fires_and_fixes(
        "alloc-in-steady-loop",
        r#"
fn event_interleave_into(engines: &mut [Engine]) {
    let mut pending = Vec::new();
    for e in engines { pending.push(e.next()); }
}
"#,
        r#"
fn event_interleave_into(engines: &mut [Engine], pending: &mut Vec<Event>) {
    pending.clear();
    for e in engines { pending.push(e.next()); }
}
"#,
    );
}

#[test]
fn alloc_in_steady_loop_covers_the_solver_step_kernel() {
    fires_and_fixes(
        "alloc-in-steady-loop",
        r#"
fn lockstep_windows(profiles: &[&Profile], lanes: &mut [Lane]) {
    let mut windows = Vec::new();
    for lane in lanes { windows.push(lane.walk(profiles)); }
}
"#,
        r#"
fn lockstep_windows(profiles: &[&Profile], lanes: &mut [Lane], windows: &mut [Sdc]) {
    for (lane, window) in lanes.iter_mut().zip(windows) { lane.walk_into(profiles, window); }
}
"#,
    );
    // The other two walks are covered too.
    for kernel in ["lockstep_window_cycles", "lockstep_advance"] {
        let src = format!("fn {kernel}(lanes: &mut [Lane]) {{ let v = vec![0.0; lanes.len()]; }}");
        let fired = rules_fired(&analyze_one(LIB, &src));
        assert!(fired.iter().any(|(r, _)| r == "alloc-in-steady-loop"), "{kernel}: {fired:?}");
    }
}

#[test]
fn alloc_in_steady_loop_covers_the_profiler_chunk_fill() {
    // The fill runs on the profiler's generator thread; an allocation
    // there would give that thread a malloc arena of its own.
    fires_and_fixes(
        "alloc-in-steady-loop",
        r#"
fn refill(&mut self, stream: &mut TraceStream, end: u64, max_ops: usize) {
    let mut counts = Vec::new();
    stream.generate_items(end, |item| { counts.push(item.insns()); counts.len() < max_ops });
}
"#,
        r#"
fn refill(&mut self, stream: &mut TraceStream, end: u64, max_ops: usize) {
    stream.generate_items(end, |item| {
        self.counts.push(item.insns());
        self.counts.len() < max_ops
    });
}
"#,
    );
    // The chunk cuts, the generator loop and the fed burst loops are
    // covered too.
    for kernel in ["cut", "copy_from", "generate_items", "walk_ops", "run_fed_until_llc", "burst"] {
        let src = format!("fn {kernel}(ops: &mut Ops) {{ let v = Vec::new(); }}");
        let fired = rules_fired(&analyze_one(LIB, &src));
        assert!(fired.iter().any(|(r, _)| r == "alloc-in-steady-loop"), "{kernel}: {fired:?}");
    }
}

#[test]
fn alloc_in_steady_loop_covers_every_pattern_and_exempts_reference_fns() {
    // All three allocation forms fire inside a steady-loop body...
    let hot = r#"
fn run_fed_until_llc(x: u64) -> u64 {
    let a = Vec::new();
    let b = vec![0u64; 4];
    let c = Box::new(x);
    a.len() as u64 + b[0] + *c
}
"#;
    let fired = rules_fired(&analyze_one(LIB, hot));
    let allocs: Vec<_> =
        fired.iter().filter(|(r, _)| r == "alloc-in-steady-loop").collect();
    assert_eq!(allocs.len(), 3, "{fired:?}");
    // ...but the same code outside the steady loops, in `reference_*`
    // substrates, or in tests is not this rule's business.
    let cold = "fn setup() { let v = vec![1, 2, 3]; }";
    let reference = "fn reference_interleave_into() { let v = Vec::new(); }";
    let in_test =
        "#[cfg(test)] mod tests { fn commit_llc() { let v = Vec::new(); } }";
    for src in [cold, reference, in_test] {
        let fired = rules_fired(&analyze_one(LIB, src));
        assert!(
            !fired.iter().any(|(r, _)| r == "alloc-in-steady-loop"),
            "{src}: {fired:?}"
        );
    }
}

#[test]
fn unknown_rule_in_allow_is_a_violation() {
    let src = "fn f() {} // mppm-lint: allow(no-such-rule): because\n";
    let fired = rules_fired(&analyze_one(LIB, src));
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].0, "invalid-suppression");
}

#[test]
fn unused_allow_is_a_violation() {
    let src = r#"
fn clean(pos: u64) -> u64 {
    pos + 1 // mppm-lint: allow(lossy-counter-cast): stale justification
}
"#;
    let fired = rules_fired(&analyze_one(LIB, src));
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert_eq!(fired[0].0, "unused-suppression");
}

#[test]
fn allow_only_covers_its_own_rule() {
    let src = r#"
fn f(counter: u64) -> u32 {
    let _ = std::time::Instant::now(); // mppm-lint: allow(lossy-counter-cast): wrong rule
    counter as u32
}
"#;
    let fired = rules_fired(&analyze_one(LIB, src));
    // Wallclock still fires; the cast on the *next* line is covered by
    // the allow's line+1 reach; nothing marks the allow unused.
    assert!(fired.iter().any(|(r, _)| r == "wallclock-in-sim"), "{fired:?}");
    assert!(!fired.iter().any(|(r, _)| r == "unused-suppression"), "{fired:?}");
}

#[test]
fn violations_inside_literals_never_fire() {
    let src = r###"
fn docs() -> &'static str {
    // The lexer must keep rule patterns inside literals out of reach:
    r#"call .partial_cmp( and .unwrap() and fs::write and Instant::now"#
}
"###;
    assert!(analyze_one(LIB, src).is_clean());
}

#[test]
fn multi_rule_allow_suppresses_each_listed_rule() {
    // One line trips both wallclock-in-sim and lossy-counter-cast; a
    // single comma-listed allow must cover both findings.
    let src = r#"
fn stamp(counter: u64) -> u32 {
    let _ = std::time::Instant::now(); let d = counter as u32; d // mppm-lint: allow(wallclock-in-sim, lossy-counter-cast): fixture exercising a two-rule directive
}
"#;
    let analysis = analyze_one(LIB, src);
    assert!(analysis.is_clean(), "got {:?}", rules_fired(&analysis));
    assert_eq!(analysis.suppressed, 2, "both rules suppressed by one directive");
}

#[test]
fn multi_rule_allow_tracks_unused_rules_individually() {
    // Only the cast fires; the wallclock half of the directive is rot
    // and must be flagged without disturbing the used half.
    let src = r#"
fn fast_path(pos: usize) -> u32 {
    // mppm-lint: allow(wallclock-in-sim, lossy-counter-cast): only half of this is real
    pos as u32
}
"#;
    let analysis = analyze_one(LIB, src);
    let fired = rules_fired(&analysis);
    assert_eq!(fired, vec![("unused-suppression".to_string(), 3)], "{fired:?}");
    assert!(
        analysis.violations[0].message.contains("allow(wallclock-in-sim)"),
        "names the stale rule: {}",
        analysis.violations[0].message
    );
    assert_eq!(analysis.suppressed, 1, "the cast half still suppresses");
}

#[test]
fn multi_rule_allow_rejects_duplicates_and_empty_entries() {
    let dup = "fn f(c: u64) -> u32 { c as u32 } // mppm-lint: allow(lossy-counter-cast, lossy-counter-cast): twice\n";
    let fired = rules_fired(&analyze_one(LIB, dup));
    assert!(
        fired.iter().any(|(r, _)| r == "invalid-suppression"),
        "duplicate rule must be invalid: {fired:?}"
    );
    assert!(fired.iter().any(|(r, _)| r == "lossy-counter-cast"), "broken allow covers nothing");
    let empty = "fn f(c: u64) -> u32 { c as u32 } // mppm-lint: allow(lossy-counter-cast,): oops\n";
    let fired = rules_fired(&analyze_one(LIB, empty));
    assert!(
        fired.iter().any(|(r, _)| r == "invalid-suppression"),
        "empty rule entry must be invalid: {fired:?}"
    );
}

#[test]
fn taint_two_hops_from_source_to_sink_reports_the_full_chain() {
    // The headline inter-procedural case: an ambient env read buried two
    // helpers below the join, flowing into an annotated sink.
    let src = r#"
fn read_seed() -> String {
    std::env::var("MPPM_SEED").unwrap_or_default()
}
fn configure() -> String {
    read_seed()
}
fn top() {
    let cfg = configure();
    emit(cfg);
}
// mppm-taint: sink
fn emit(cfg: String) {
    let _ = cfg;
}
"#;
    let analysis = analyze_one(LIB, src);
    assert_eq!(
        rules_fired(&analysis),
        vec![("taint-nondet-to-result".to_string(), 3)],
        "fires once, anchored at the env::var site"
    );
    let v = &analysis.violations[0];
    assert!(v.message.contains("env::var"), "{}", v.message);
    let funcs: Vec<&str> = v.chain.iter().map(|h| h.func.as_str()).collect();
    assert_eq!(funcs, ["read_seed", "configure", "top", "emit"], "full source→sink chain");
    assert_eq!(v.chain[0].line, 3, "first hop pinpoints the source site");
    assert_eq!(v.chain.last().expect("non-empty chain").func, "emit");
}

#[test]
fn taint_allow_at_the_source_site_suppresses() {
    let src = r#"
fn read_seed() -> String {
    // mppm-lint: allow(taint-nondet-to-result): seed only labels the log line; results never read it
    std::env::var("MPPM_SEED").unwrap_or_default()
}
fn top() {
    emit(read_seed());
}
// mppm-taint: sink
fn emit(cfg: String) {
    let _ = cfg;
}
"#;
    let analysis = analyze_one(LIB, src);
    assert!(analysis.is_clean(), "got {:?}", rules_fired(&analysis));
    assert_eq!(analysis.suppressed, 1);
}

#[test]
fn panic_three_calls_below_handler_is_flagged_with_its_chain() {
    let src = r#"
// mppm-taint: handler
fn accept_request() {
    step_one();
}
fn step_one() {
    step_two();
}
fn step_two() {
    finish(None);
}
fn finish(x: Option<u64>) -> u64 {
    x.unwrap()
}
"#;
    let analysis = analyze_one(LIB, src);
    let fired = rules_fired(&analysis);
    // The graph rule and the token rule each flag the unwrap.
    assert_eq!(
        fired,
        vec![
            ("panic-reaches-handler".to_string(), 13),
            ("unwrap-in-lib".to_string(), 13)
        ],
        "{fired:?}"
    );
    let v = &analysis.violations[0];
    assert!(v.message.contains("3 call(s) below"), "{}", v.message);
    let funcs: Vec<&str> = v.chain.iter().map(|h| h.func.as_str()).collect();
    assert_eq!(funcs, ["accept_request", "step_one", "step_two", "finish"]);
    assert_eq!(v.chain.last().expect("non-empty chain").line, 13, "last hop is the unwrap site");
}

#[test]
fn panic_and_unwrap_share_one_multi_rule_allow() {
    let src = r#"
// mppm-taint: handler
fn accept_request() {
    finish(None);
}
fn finish(x: Option<u64>) -> u64 {
    x.unwrap() // mppm-lint: allow(unwrap-in-lib, panic-reaches-handler): fixture invariant documented at the call site
}
"#;
    let analysis = analyze_one(LIB, src);
    assert!(analysis.is_clean(), "got {:?}", rules_fired(&analysis));
    assert_eq!(analysis.suppressed, 2);
}

#[test]
fn blocking_read_two_hops_below_handler_crosses_crates() {
    // The token rule only polices literal sites inside crates/server;
    // the graph rule chases the helper into another crate.
    let handler = (
        "crates/server/src/routes.rs",
        r#"
// mppm-taint: handler
fn accept(conn: &mut std::os::unix::net::UnixStream) {
    let bytes = slurp::drain_all(conn);
    let _ = bytes;
}
"#,
    );
    let helper = (
        "crates/campaign/src/slurp.rs",
        r#"
pub fn drain_all(conn: &mut impl std::io::Read) -> Vec<u8> {
    let mut buf = Vec::new();
    conn.read_to_end(&mut buf).ok();
    buf
}
"#,
    );
    let analysis = analyze_sources(&[handler, helper], &RuleFilter::default());
    let fired = rules_fired(&analysis);
    assert_eq!(fired, vec![("blocking-in-handler".to_string(), 4)], "{fired:?}");
    let v = &analysis.violations[0];
    assert_eq!(v.file, "crates/campaign/src/slurp.rs");
    let funcs: Vec<&str> = v.chain.iter().map(|h| h.func.as_str()).collect();
    assert_eq!(funcs, ["accept", "drain_all"]);

    let suppressed_helper = (
        "crates/campaign/src/slurp.rs",
        r#"
pub fn drain_all(conn: &mut impl std::io::Read) -> Vec<u8> {
    let mut buf = Vec::new();
    // mppm-lint: allow(blocking-in-handler): fixture peer is trusted and frames are length-prefixed upstream
    conn.read_to_end(&mut buf).ok();
    buf
}
"#,
    );
    let analysis = analyze_sources(&[handler, suppressed_helper], &RuleFilter::default());
    assert!(analysis.is_clean(), "got {:?}", rules_fired(&analysis));
    assert_eq!(analysis.suppressed, 1);
}

#[test]
fn parser_path_keeps_good_forms_clean_for_every_token_rule() {
    // Regression net for the item parser: each token rule's compliant
    // form, rewrapped in the structures the parser now walks (impl
    // blocks, generics, nested fns, aliases), must stay silent.
    let cases: &[(&str, &str)] = &[
        (
            "float-partial-order",
            "impl Ord for Key {\n    fn cmp(&self, other: &Self) -> Ordering { self.0.total_cmp(&other.0) }\n}\n",
        ),
        (
            "nondet-map-iteration",
            "use std::collections::BTreeMap as Index;\nfn build<K: Ord, V>() -> Index<K, V> { Index::new() }\n",
        ),
        (
            "non-atomic-write",
            "impl Store {\n    fn persist(&self, path: &std::path::Path) -> std::io::Result<()> {\n        atomic_write_bytes(path, &self.bytes)\n    }\n}\n",
        ),
        (
            "wallclock-in-sim",
            "fn advance<C: Clock>(clock: &mut C, cycles: u64) -> u64 { clock.tick(cycles) }\n",
        ),
        (
            "unwrap-in-lib",
            "fn outer() -> u64 {\n    fn inner(x: Option<u64>) -> u64 { x.expect(\"caller checked\") }\n    inner(Some(1))\n}\n",
        ),
        (
            "lossy-counter-cast",
            "impl<T> Wide<T> {\n    fn up(&self, x: u32) -> (u64, f64) { (x as u64, x as f64) }\n}\n",
        ),
        (
            "uncompiled-hot-loop",
            "fn reference_drive(stream: &mut TraceStream) -> u64 {\n    let mut n = 0;\n    while n < 100 { n += stream.next_item().insns(); }\n    n\n}\n",
        ),
        (
            "blocking-in-handler",
            "fn load(r: &mut impl std::io::Read) -> std::io::Result<Vec<u8>> {\n    let mut b = Vec::new();\n    r.read_to_end(&mut b)?;\n    Ok(b)\n}\n",
        ),
        (
            "alloc-in-steady-loop",
            "impl Pool {\n    fn warm(&mut self) { self.slabs = vec![Vec::new(); 4]; }\n}\n",
        ),
    ];
    for (rule, src) in cases {
        let analysis = analyze_one(LIB, src);
        assert!(analysis.is_clean(), "{rule}: {:?}", rules_fired(&analysis));
    }
}

#[test]
fn report_lines_carry_file_and_line() {
    let src = "\n\nfn f(x: Option<u64>) -> u64 { x.unwrap() }\n";
    let analysis = analyze_one(LIB, src);
    assert_eq!(analysis.violations.len(), 1);
    let v = &analysis.violations[0];
    assert_eq!((v.file.as_str(), v.line), (LIB, 3));
    let human = mppm_analyze::report::human(&analysis);
    assert!(human.contains("crates/fixture/src/lib.rs:3: [unwrap-in-lib]"), "{human}");
}
