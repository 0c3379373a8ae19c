//! The offline stand-ins under `crates/compat` are exactly the ones the
//! workspace uses. Every stand-in is reached from a
//! `[workspace.dependencies]` entry, directly or as a path dependency of
//! a stand-in that is; and every `[workspace.dependencies]` entry is named
//! by some member's manifest. A stand-in nothing needs, or a member's
//! `[[bench]]` target (benches are `speed` suites), fails the test.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ sits in the workspace").into()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(key, value)` of each `key = value` line in the sections of `toml`
/// whose header satisfies `section`.
fn entries(toml: &str, section: impl Fn(&str) -> bool) -> Vec<(&str, &str)> {
    let mut inside = false;
    let mut out = Vec::new();
    for line in toml.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = section(line.trim_matches(|c| c == '[' || c == ']'));
        } else if inside && !line.starts_with('#') {
            if let Some((key, value)) = line.split_once('=') {
                out.push((key.trim(), value.trim()));
            }
        }
    }
    out
}

/// The `path = "..."` of an inline dependency table, if it has one.
fn path_of(value: &str) -> Option<&str> {
    let rest = value.split_once("path")?.1.trim_start().strip_prefix('=')?.trim_start();
    rest.strip_prefix('"')?.split('"').next()
}

/// The names of `dir`'s subdirectories holding a `Cargo.toml`.
fn crates_in(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(|p| p.file_name().expect("named").to_string_lossy().into_owned())
        .collect()
}

#[test]
fn compat_stand_ins_are_all_used() {
    let root = root();
    let manifest = read(&root.join("Cargo.toml"));
    let workspace_deps = entries(&manifest, |s| s == "workspace.dependencies");
    assert!(!workspace_deps.is_empty(), "no [workspace.dependencies] in the root manifest");

    // Every workspace dependency is named by a member.
    let members: Vec<PathBuf> = entries(&manifest, |s| s == "workspace")
        .into_iter()
        .find(|(key, _)| *key == "members")
        .expect("workspace members")
        .1
        .trim_matches(|c| c == '[' || c == ']')
        .split(',')
        .map(|m| m.trim().trim_matches('"'))
        .filter(|m| !m.is_empty())
        .flat_map(|m| match m.strip_suffix("/*") {
            Some(dir) => {
                crates_in(&root.join(dir)).iter().map(|c| root.join(dir).join(c)).collect()
            }
            None => vec![root.join(m)],
        })
        .collect();
    let mut named = BTreeSet::new();
    for member in &members {
        let text = read(&member.join("Cargo.toml"));
        assert!(!text.lines().any(|l| l.trim() == "[[bench]]"), "{}: [[bench]]", member.display());
        for (key, _) in entries(&text, |s| s.ends_with("dependencies")) {
            named.insert(key.split('.').next().expect("a key").to_string());
        }
    }
    let unused: Vec<&str> =
        workspace_deps.iter().map(|(name, _)| *name).filter(|n| !named.contains(*n)).collect();
    assert!(unused.is_empty(), "workspace dependencies no member names: {unused:?}");

    // Every stand-in is reached from a workspace dependency.
    let compat = root.join("crates/compat");
    let mut reached: BTreeSet<String> = workspace_deps
        .iter()
        .filter_map(|(_, value)| path_of(value)?.strip_prefix("crates/compat/"))
        .map(str::to_string)
        .collect();
    let mut frontier: Vec<String> = reached.iter().cloned().collect();
    while let Some(stand_in) = frontier.pop() {
        let text = read(&compat.join(&stand_in).join("Cargo.toml"));
        for (_, value) in entries(&text, |s| s.ends_with("dependencies")) {
            if let Some(dep) = path_of(value).and_then(|p| p.strip_prefix("../")) {
                if reached.insert(dep.to_string()) {
                    frontier.push(dep.to_string());
                }
            }
        }
    }
    let unreached: Vec<String> = crates_in(&compat).difference(&reached).cloned().collect();
    assert!(unreached.is_empty(), "stand-ins no workspace dependency reaches: {unreached:?}");
}
