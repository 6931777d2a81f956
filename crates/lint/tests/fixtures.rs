//! Fixture tests for every `cyclone-lint` rule family: one snippet that must
//! fire, one allow-annotated (or idiomatically sound) snippet that must not,
//! plus the self-run test asserting the live workspace stays lint-clean.

use lint::{lint_sources, Report};

/// Lints a single in-memory file at `path` with no README.
fn lint_one(path: &str, source: &str) -> Report {
    lint_sources(&[(path.to_string(), source.to_string())], None)
}

fn rules_fired(report: &Report) -> Vec<&str> {
    report.findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- unordered-iter

#[test]
fn unordered_iter_fires_on_hashmap_for_loop() {
    let src = "
use std::collections::HashMap;
pub fn f(m: &HashMap<u32, u32>) {
    for (k, v) in m.iter() {
        println!(\"{k} {v}\");
    }
}
";
    let report = lint_one("crates/qec/src/lib.rs", src);
    assert_eq!(rules_fired(&report), vec!["unordered-iter"]);
    assert_eq!(report.findings[0].line, 4);
}

#[test]
fn unordered_iter_fires_on_drain_and_values() {
    let src = "
use std::collections::HashMap;
pub fn f(m: &mut HashMap<u32, u32>) -> Vec<u32> {
    let mut out: Vec<u32> = m.values().copied().collect();
    out.extend(m.drain().map(|(_, v)| v));
    out
}
";
    let report = lint_one("crates/qec/src/lib.rs", src);
    assert_eq!(
        rules_fired(&report),
        vec!["unordered-iter", "unordered-iter"]
    );
}

#[test]
fn unordered_iter_suppressed_by_allow_annotation() {
    let src = "
use std::collections::HashMap;
pub fn f(m: &HashMap<u32, u32>) -> u64 {
    // cyclone-lint: allow(unordered-iter) -- summed into a commutative total
    m.values().map(|&v| u64::from(v)).sum()
}
";
    let report = lint_one("crates/qec/src/lib.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
    assert_eq!(report.suppressions_used, 1);
}

#[test]
fn unordered_iter_not_flagged_when_sorted_or_order_free() {
    let src = "
use std::collections::{HashMap, HashSet};
pub fn f(m: &HashMap<u32, u32>, s: &HashSet<u32>) -> usize {
    let mut keys: Vec<u32> = m.keys().copied().collect();
    keys.sort_unstable();
    let ordered: std::collections::BTreeMap<u32, u32> =
        m.iter().map(|(&k, &v)| (k, v)).collect();
    keys.len() + ordered.len() + s.len() + usize::from(s.contains(&3))
}
";
    let report = lint_one("crates/qec/src/lib.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
}

#[test]
fn unordered_iter_exempt_in_test_code() {
    let src = "
use std::collections::HashMap;
#[cfg(test)]
mod tests {
    pub fn f(m: &super::HashMap<u32, u32>) {
        for (k, v) in m.iter() {
            println!(\"{k} {v}\");
        }
    }
}
";
    let report = lint_one("crates/qec/src/lib.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
}

// -------------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_fires_in_decoder_modules() {
    let src = "
pub fn f() -> u64 {
    let started = std::time::Instant::now();
    started.elapsed().as_nanos() as u64
}
";
    let report = lint_one("crates/decoder/src/bp.rs", src);
    assert_eq!(rules_fired(&report), vec!["wall-clock"]);
    assert_eq!(report.findings[0].line, 3);
}

#[test]
fn wall_clock_suppressed_by_allow_annotation() {
    let src = "
pub fn f() -> u64 {
    // cyclone-lint: allow(wall-clock) -- telemetry only, never feeds results
    let started = std::time::Instant::now();
    started.elapsed().as_nanos() as u64
}
";
    let report = lint_one("crates/decoder/src/memory.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
    assert_eq!(report.suppressions_used, 1);
}

#[test]
fn wall_clock_ignored_outside_banned_modules() {
    let src = "
pub fn f() -> std::time::Instant {
    std::time::Instant::now()
}
";
    let report = lint_one("crates/qccd/src/topology.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
}

// ---------------------------------------------------------------- hot-path-alloc

#[test]
fn hot_path_alloc_fires_inside_marked_region() {
    let src = "
// cyclone-lint: hot-path
pub fn f(xs: &[u32]) -> Vec<u32> {
    let copy = xs.to_vec();
    let label = format!(\"{}\", copy.len());
    drop(label);
    copy
}
// cyclone-lint: end-hot-path
";
    let report = lint_one("crates/decoder/src/lib.rs", src);
    assert_eq!(
        rules_fired(&report),
        vec!["hot-path-alloc", "hot-path-alloc"]
    );
}

#[test]
fn hot_path_alloc_suppressed_by_allow_annotation() {
    let src = "
// cyclone-lint: hot-path
pub fn f(r: std::ops::Range<usize>) -> std::ops::Range<usize> {
    // cyclone-lint: allow(hot-path-alloc) -- Range clone is a stack copy
    r.clone()
}
// cyclone-lint: end-hot-path
";
    let report = lint_one("crates/decoder/src/lib.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
    assert_eq!(report.suppressions_used, 1);
}

#[test]
fn hot_path_alloc_ignores_code_outside_region_and_resize_idiom() {
    let src = "
pub fn outside() -> Vec<u32> {
    vec![1, 2, 3]
}
// cyclone-lint: hot-path
pub fn inside(buf: &mut Vec<u32>, n: usize) {
    buf.clear();
    buf.resize(n, 0);
    buf.extend(0..4u32);
}
// cyclone-lint: end-hot-path
";
    let report = lint_one("crates/decoder/src/lib.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
}

// --------------------------------------------------------------- config-registry

const FAKE_README: &str = "
# Fixture

| variable | default | effect |
| -------- | ------- | ------ |
| `CYCLONE_DOCUMENTED` | unset | documented and used |
| `CYCLONE_STALE` | unset | documented but no longer read by code |
";

#[test]
fn config_registry_flags_undocumented_and_stale_vars() {
    let src = "
pub fn f() -> bool {
    std::env::var(\"CYCLONE_DOCUMENTED\").is_ok() && std::env::var(\"CYCLONE_SECRET\").is_ok()
}
";
    let report = lint_sources(
        &[("crates/qec/src/lib.rs".to_string(), src.to_string())],
        Some(("README.md", FAKE_README)),
    );
    let mut fired = rules_fired(&report);
    fired.sort_unstable();
    assert_eq!(fired, vec!["config-registry", "config-registry"]);
    let messages: String = report
        .findings
        .iter()
        .map(|f| f.message.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(messages.contains("CYCLONE_SECRET"), "{messages}");
    assert!(messages.contains("CYCLONE_STALE"), "{messages}");
}

#[test]
fn config_registry_clean_when_table_matches_code() {
    let src = "
pub fn f() -> bool {
    std::env::var(\"CYCLONE_DOCUMENTED\").is_ok()
}
#[cfg(test)]
mod tests {
    pub fn test_only() -> bool {
        std::env::var(\"CYCLONE_TEST_ONLY\").is_ok()
    }
}
";
    let readme = "
| variable | default | effect |
| -------- | ------- | ------ |
| `CYCLONE_DOCUMENTED` | unset | documented and used |
";
    let report = lint_sources(
        &[("crates/qec/src/lib.rs".to_string(), src.to_string())],
        Some(("README.md", readme)),
    );
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
}

// --------------------------------------------------------------------- io-unwrap

#[test]
fn io_unwrap_fires_on_bare_fs_expect() {
    let src = "
pub fn f(path: &std::path::Path) -> String {
    std::fs::read_to_string(path).expect(\"read config\")
}
";
    let report = lint_one("crates/cyclone/src/lib.rs", src);
    assert_eq!(rules_fired(&report), vec!["io-unwrap"]);
}

#[test]
fn io_unwrap_suppressed_by_allow_annotation() {
    let src = "
pub fn f(path: &std::path::Path) -> String {
    // cyclone-lint: allow(io-unwrap) -- fixture file is checked in; absence is a build bug
    std::fs::read_to_string(path).expect(\"read config\")
}
";
    let report = lint_one("crates/cyclone/src/lib.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
    assert_eq!(report.suppressions_used, 1);
}

#[test]
fn io_unwrap_ignores_propagation_and_non_io_unwraps() {
    let src = "
pub fn f(path: &std::path::Path) -> std::io::Result<String> {
    std::fs::read_to_string(path)
}
pub fn g(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}
";
    let report = lint_one("crates/cyclone/src/lib.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
}

#[test]
fn io_unwrap_exempt_in_test_code() {
    let src = "
pub fn f(path: &std::path::Path) -> String {
    std::fs::read_to_string(path).unwrap()
}
";
    let report = lint_one("crates/cyclone/tests/roundtrip.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
}

// ----------------------------------------------------------------- unsafe-safety

#[test]
fn unsafe_safety_fires_on_bare_unsafe_block_and_fn() {
    let src = "
pub fn f(xs: &[f64]) -> f64 {
    unsafe { *xs.get_unchecked(0) }
}
pub unsafe fn g(p: *const f64) -> f64 {
    *p
}
";
    let report = lint_one("crates/decoder/src/lib.rs", src);
    assert_eq!(rules_fired(&report), vec!["unsafe-safety", "unsafe-safety"]);
    assert_eq!(report.findings[0].line, 3);
    assert_eq!(report.findings[1].line, 5);
}

#[test]
fn unsafe_safety_satisfied_by_adjacent_comment_or_doc_section() {
    let src = "
pub fn f(xs: &[f64]) -> f64 {
    // SAFETY: caller guarantees xs is non-empty (checked at construction).
    unsafe { *xs.get_unchecked(0) }
}
/// Reads through a raw pointer.
///
/// # Safety
///
/// `p` must be valid for reads and properly aligned.
#[inline]
pub unsafe fn g(p: *const f64) -> f64 {
    *p
}
pub fn h(p: *const f64) -> f64 {
    let v = unsafe { *p }; // SAFETY: p validated by the dispatch above
    v
}
";
    let report = lint_one("crates/decoder/src/lib.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
}

#[test]
fn unsafe_safety_suppressed_by_allow_annotation() {
    let src = "
pub fn f(xs: &[f64]) -> f64 {
    // cyclone-lint: allow(unsafe-safety) -- soundness argued in the module docs
    unsafe { *xs.get_unchecked(0) }
}
";
    let report = lint_one("crates/decoder/src/lib.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
    assert_eq!(report.suppressions_used, 1);
}

#[test]
fn unsafe_safety_exempt_in_tests_and_benches() {
    let src = "
pub fn f(p: *const f64) -> f64 {
    unsafe { *p }
}
";
    let report = lint_one("crates/bench/benches/decoder_hotpath.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
    let src_test = "
#[cfg(test)]
mod tests {
    pub fn f(p: *const f64) -> f64 {
        unsafe { *p }
    }
}
";
    let report = lint_one("crates/decoder/src/lib.rs", src_test);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
}

#[test]
fn unsafe_safety_comment_does_not_leak_past_code_lines() {
    // A SAFETY comment separated from the unsafe block by a real code line does
    // not cover it.
    let src = "
pub fn f(xs: &[f64]) -> f64 {
    // SAFETY: this comment belongs to the length check, not the unsafe block.
    let n = xs.len();
    assert!(n > 0);
    unsafe { *xs.get_unchecked(0) }
}
";
    let report = lint_one("crates/decoder/src/lib.rs", src);
    assert_eq!(rules_fired(&report), vec!["unsafe-safety"]);
}

// -------------------------------------------------------------------- annotation

#[test]
fn annotation_fires_on_reasonless_allow_unknown_rule_and_unclosed_region() {
    let src = "
// cyclone-lint: allow(io-unwrap)
pub fn a() {}
// cyclone-lint: allow(made-up-rule) -- not a rule
pub fn b() {}
// cyclone-lint: hot-path
pub fn c() {}
";
    let report = lint_one("crates/qec/src/lib.rs", src);
    assert_eq!(
        rules_fired(&report),
        vec!["annotation", "annotation", "annotation"]
    );
}

#[test]
fn annotation_accepts_well_formed_directives() {
    let src = "
// cyclone-lint: hot-path
pub fn f(x: u32) -> u32 {
    x + 1
}
// cyclone-lint: end-hot-path
// cyclone-lint: allow(io-unwrap) -- reason present, nothing to suppress
pub fn g() {}
";
    let report = lint_one("crates/qec/src/lib.rs", src);
    assert!(report.clean(), "unexpected findings: {:?}", report.findings);
}

// ---------------------------------------------------------------------- self-run

/// The live workspace must stay lint-clean: this is the same check CI runs via
/// `cargo run -p lint`, pinned here so `cargo test` alone catches regressions.
#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint::lint_workspace(&root).expect("scan workspace");
    assert!(
        report.clean(),
        "workspace has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "scan looks truncated");
}

#[test]
fn report_json_is_machine_readable() {
    let src = "
pub fn f(path: &std::path::Path) -> String {
    std::fs::read_to_string(path).expect(\"quote \\\" and backslash \\\\\")
}
";
    let report = lint_one("crates/cyclone/src/lib.rs", src);
    let json = report.to_json();
    assert!(json.starts_with("{\"schema\":1,"));
    assert!(json.contains("\"rule\":\"io-unwrap\""));
    assert!(json.contains("\"files_scanned\":1"));
    assert!(json.contains("\"library_lines\":{\"total\":4,\"qec\":0,"));
    assert!(json.contains("\"cyclone\":4,\"bench\":0}}"));
}

// ------------------------------------------------------------- library size

#[test]
fn library_size_skips_test_modules_only() {
    let src = "\
//! Docs count.
pub fn f() -> &'static str {
    \"#[cfg(test)] { in a string }\"
}

#[cfg(test)]
mod tests {
    #[test]
    fn braces_in_strings_do_not_end_it() {
        let _ = \"}}}\";
    }
}
#[cfg(test)]
fn helper() {}
";
    // Everything but the seven-line `mod tests` block, `#[cfg(test)]`
    // attribute included; a test-only item outside `mod tests` still counts.
    let report = lint_one("crates/decoder/src/bp.rs", src);
    assert_eq!(report.library_total(), 7);
    assert_eq!(report.library_lines[2], ("decoder", 7));
    // Files outside a library crate's `src/` do not count.
    assert_eq!(
        lint_one("crates/decoder/tests/oracle/bp.rs", src).library_total(),
        0
    );
    assert_eq!(lint_one("crates/lint/src/lib.rs", src).library_total(), 0);
}
