//! The analyzer must hold its own codebase — and the whole workspace —
//! to the determinism invariants it enforces. This is the same scan the
//! CI `--deny` gate runs, expressed as a test so `cargo test` alone
//! catches regressions.

#[test]
fn workspace_is_lint_clean() {
    let root = mppm_analyze::find_workspace_root(
        &std::env::current_dir().expect("cwd exists in a test run"),
    )
    .expect("test runs inside the workspace");
    let analysis = mppm_analyze::analyze_workspace(&root, &mppm_analyze::RuleFilter::default())
        .expect("workspace sources are readable");
    assert!(analysis.files > 30, "walker found only {} files — scan is broken", analysis.files);
    assert!(
        analysis.is_clean(),
        "workspace has lint violations:\n{}",
        mppm_analyze::report::human(&analysis)
    );
}

#[test]
fn analyzer_sources_are_lint_clean() {
    // Narrower variant pinned to this crate so a violation in mppm-analyze
    // itself names the offender even if the workspace-wide test is skipped.
    let root = mppm_analyze::find_workspace_root(
        &std::env::current_dir().expect("cwd exists in a test run"),
    )
    .expect("test runs inside the workspace");
    let sources = mppm_analyze::workspace_sources(&root).expect("workspace is readable");
    let own: Vec<_> = sources
        .into_iter()
        .filter(|(path, _)| path.starts_with("crates/analyze/"))
        .collect();
    assert!(own.len() >= 5, "expected the analyzer's own sources, got {}", own.len());
    let analysis = mppm_analyze::analyze_sources(&own, &mppm_analyze::RuleFilter::default());
    assert!(
        analysis.is_clean(),
        "mppm-analyze does not pass its own lints:\n{}",
        mppm_analyze::report::human(&analysis)
    );
}
