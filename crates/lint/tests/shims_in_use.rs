//! Every offline shim in the workspace must be used: a `crates/shims/*` member
//! that no non-shim member reaches through its `[dependencies]` or
//! `[dev-dependencies]` (directly, or through another shim) still compiles on
//! every build for nothing.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// The quoted strings of the root manifest's `members = [...]` list.
fn workspace_members(manifest: &str) -> Vec<String> {
    let start = manifest.find("members = [").expect("a members list") + "members = [".len();
    let end = start + manifest[start..].find(']').expect("a closed members list");
    manifest[start..end]
        .split(',')
        .map(|entry| entry.trim().trim_matches('"').to_string())
        .filter(|entry| !entry.is_empty())
        .collect()
}

/// The `[package]` name of a member manifest and the dependency names listed
/// under its `[dependencies]` and `[dev-dependencies]` tables.
fn package_and_dependencies(manifest: &str) -> (String, Vec<String>) {
    let mut name = None;
    let mut deps = Vec::new();
    let mut section = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section {
            "[package]" if key == "name" => name = Some(value.trim().trim_matches('"').to_string()),
            "[dependencies]" | "[dev-dependencies]" => deps.push(key.to_string()),
            _ => {}
        }
    }
    (name.expect("a [package] name"), deps)
}

#[test]
fn every_shim_member_is_reached_from_a_non_shim_member() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: &Path| fs::read_to_string(path).expect("read manifest");
    // Package name -> (is a shim, dependency names).
    let mut packages = BTreeMap::new();
    for member in workspace_members(&read(&root.join("Cargo.toml"))) {
        let (name, deps) = package_and_dependencies(&read(&root.join(&member).join("Cargo.toml")));
        packages.insert(name, (member.starts_with("crates/shims/"), deps));
    }
    let mut stack: Vec<&str> = packages
        .iter()
        .filter(|(_, (shim, _))| !shim)
        .flat_map(|(_, (_, deps))| deps.iter().map(String::as_str))
        .collect();
    let mut reached = BTreeSet::new();
    while let Some(name) = stack.pop() {
        if let Some((_, deps)) = packages.get(name) {
            if reached.insert(name) {
                stack.extend(deps.iter().map(String::as_str));
            }
        }
    }
    let unused: Vec<&str> = packages
        .iter()
        .filter(|&(name, &(shim, _))| shim && !reached.contains(name.as_str()))
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        unused.is_empty(),
        "shim members no non-shim member depends on: {unused:?}"
    );
}
