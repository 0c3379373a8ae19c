//! Report determinism and docs-catalog guarantees.
//!
//! The analyzer polices byte-reproducibility, so its own report must be
//! byte-reproducible: identical across repeated runs and indifferent to
//! `MPPM_THREADS`. The docs catalog test keeps README.md and DESIGN.md
//! honest the same way `unused-suppression` keeps allows honest: every
//! rule the engine knows must be documented, and the inter-procedural
//! design section must describe the machinery.

use mppm_analyze::{analyze_workspace, find_workspace_root, RuleFilter};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    find_workspace_root(&std::env::current_dir().expect("cwd exists in a test run"))
        .expect("test runs inside the workspace")
}

fn json_scan(root: &std::path::Path) -> String {
    let analysis =
        analyze_workspace(root, &RuleFilter::default()).expect("workspace sources are readable");
    mppm_analyze::report::json(&analysis)
}

#[test]
fn json_report_is_byte_identical_across_runs_and_threads() {
    let root = workspace_root();
    let baseline = json_scan(&root);
    assert!(!baseline.is_empty());

    // Repeated runs: byte-for-byte stable.
    assert_eq!(baseline, json_scan(&root), "second run differs");

    // Worker-count override: the report must not care.
    std::env::set_var("MPPM_THREADS", "1");
    let one = json_scan(&root);
    std::env::set_var("MPPM_THREADS", "4");
    let four = json_scan(&root);
    std::env::remove_var("MPPM_THREADS");
    assert_eq!(baseline, one, "MPPM_THREADS=1 changed the report");
    assert_eq!(baseline, four, "MPPM_THREADS=4 changed the report");
}

#[test]
fn docs_catalog_covers_every_rule() {
    let root = workspace_root();
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md is readable");
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    // Every rule the engine knows — checkable rules and the suppression
    // meta rules — must appear, backticked, in both documents.
    for rule in mppm_analyze::known_rule_names() {
        let name = format!("`{rule}`");
        assert!(design.contains(&name), "DESIGN.md does not document rule {name}");
        assert!(readme.contains(&name), "README.md does not list rule {name}");
    }
    // The inter-procedural section must describe the machinery by name.
    for term in ["call graph", "taint lattice", "sink manifest"] {
        assert!(design.contains(term), "DESIGN.md must describe the {term}");
    }
    // Reverse direction: every catalogued rule must still exist, so rows
    // for a deleted rule cannot linger in the docs.
    let known = mppm_analyze::known_rule_names();
    for (doc, catalog) in [
        ("README.md", catalogued_rules(&readme, "## Static analysis", "- `")),
        ("DESIGN.md", catalogued_rules(&design, "## 10. ", "| `")),
    ] {
        assert!(!catalog.is_empty(), "{doc}: lint catalog not found");
        for rule in &catalog {
            assert!(known.contains(&rule.as_str()), "{doc} catalogs unknown rule `{rule}`");
        }
    }
}

/// The backticked rule names that open the catalog rows (lines starting
/// with `row_prefix`) in the section headed `heading`, up to the next
/// `## ` heading.
fn catalogued_rules(doc: &str, heading: &str, row_prefix: &str) -> Vec<String> {
    let Some(start) = doc.find(heading) else { return Vec::new() };
    let body = &doc[start + heading.len()..];
    let section = body.find("\n## ").map_or(body, |end| &body[..end]);
    section
        .lines()
        .filter_map(|line| line.strip_prefix(row_prefix))
        .filter_map(|rest| rest.split('`').next())
        .map(str::to_string)
        .collect()
}
