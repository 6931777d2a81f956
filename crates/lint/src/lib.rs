//! `cyclone-lint`: offline workspace static analysis for the Cyclone repo's
//! three load-bearing invariants — bit-identical results at any thread count,
//! zero steady-state allocations in decode hot paths, and a complete
//! `CYCLONE_*` configuration registry — plus the I/O unwrap policy that keeps
//! cache corruption from panicking sweeps.
//!
//! Rule families (names are what `allow(...)` takes):
//!
//! * `unordered-iter` — iterating, draining, or collecting a `HashMap`/`HashSet`
//!   in non-test library code, unless the site visibly sorts the result (or
//!   collects into a `BTreeMap`/`BTreeSet`, or only asks an order-insensitive
//!   question like `.len()`/`.contains()`). This is the PR 3 bug class: the
//!   baseline/dynamic compilers once drained ancilla maps in randomized order
//!   and perturbed figure tables in the last bit.
//! * `wall-clock` — `Instant::now`/`SystemTime`/`RandomState`/`thread_rng`
//!   inside the decode/sample modules (`decoder::{bp,osd,bposd,memory,cache}`,
//!   `cyclone::sweep`), where any wall-clock or randomized-hash input breaks
//!   replayable, seed-deterministic results.
//! * `hot-path-alloc` — allocation constructors (`Vec::new`, `vec!`,
//!   `.to_vec()`, `.collect()`, `format!`, `String::from`, `.clone()`, ...)
//!   inside a `// cyclone-lint: hot-path` ... `// cyclone-lint: end-hot-path`
//!   region. The counting-allocator bench enforces zero steady-state allocation
//!   at runtime; this rule catches the regression at review time. Length-ensure
//!   idioms (`clear`/`resize`/`extend` on reused buffers) are deliberately not
//!   flagged — they are the sanctioned way to size scratch space.
//! * `config-registry` — every `CYCLONE_*` env var referenced by non-test code
//!   must have a row in the README options table, and every documented row must
//!   still be referenced by code.
//! * `io-unwrap` — bare `.unwrap()`/`.expect(...)` on a statement that performs
//!   file I/O, in non-test code. Cache and sweep files are throwaway inputs;
//!   corrupt ones must degrade to recompute, not panic.
//! * `unsafe-safety` — an `unsafe` block, fn, or impl in non-test library code
//!   without an adjacent safety argument: a `// SAFETY:` comment on or directly
//!   above the line, or a `/// # Safety` doc section on the item. Every
//!   `unsafe` entry (the AVX2 kernel calls in `decoder::simd`, the aligned
//!   arena views in `decoder::scratch`) must carry its soundness argument.
//! * `annotation` — malformed suppressions: `allow` without a reason, unknown
//!   rule names, unbalanced hot-path markers. Suppressions are part of the
//!   contract, so their syntax is linted too.
//!
//! Suppression: `// cyclone-lint: allow(<rule>[, <rule>...]) -- <reason>` on
//! the offending line or the line above it. The reason is mandatory.
//!
//! Alongside the findings, the report carries the library size: physical
//! lines outside `#[cfg(test)] mod tests` blocks in the `src/` trees of the
//! [`LIBRARY_CRATES`], in total and per crate. It is a tracked metric, not a
//! gate.

pub mod rules;
pub mod scan;

use scan::{parse_directive, Directive, Line, Token, MARKER};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// The rule families, by `allow(...)` name.
pub const RULE_NAMES: &[&str] = &[
    "unordered-iter",
    "wall-clock",
    "hot-path-alloc",
    "config-registry",
    "io-unwrap",
    "unsafe-safety",
    "annotation",
];

/// The crates whose `src/` trees count toward the library size, in report
/// order.
pub const LIBRARY_CRATES: &[&str] = &["qec", "noise", "decoder", "qccd", "cyclone", "bench"];

/// What kind of source a file is; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/` — every rule applies.
    Lib,
    /// A binary under `src/bin/` — treated like library code.
    Bin,
    /// A bench target — artifact writers; `io-unwrap` applies, iteration rules
    /// do not (benches are not shipped library surface).
    Bench,
    /// Example code — exempt from everything but hot-path markers it opts into.
    Example,
    /// Integration-test code — exempt like `#[cfg(test)]` modules.
    Test,
}

impl FileKind {
    /// Classifies a workspace-relative path (slash-separated).
    pub fn of(path: &str) -> Self {
        if path.contains("/tests/") {
            FileKind::Test
        } else if path.contains("/benches/") {
            FileKind::Bench
        } else if path.contains("/examples/") || path.starts_with("examples/") {
            FileKind::Example
        } else if path.contains("/src/bin/") || path.ends_with("/main.rs") {
            FileKind::Bin
        } else {
            FileKind::Lib
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule family name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Result of linting a set of sources.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// `allow` annotations that actually suppressed at least one finding.
    pub suppressions_used: usize,
    /// Library lines per crate, in [`LIBRARY_CRATES`] order (see
    /// [`library_lines`]).
    pub library_lines: Vec<(&'static str, usize)>,
}

impl Report {
    /// Whether the workspace is lint-clean.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Library lines summed over every crate.
    pub fn library_total(&self) -> usize {
        self.library_lines.iter().map(|&(_, lines)| lines).sum()
    }

    /// Serializes the report as machine-readable JSON (schema 1).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut json = String::from("{\"schema\":1,\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                esc(f.rule),
                esc(&f.path),
                f.line,
                esc(&f.message)
            ));
        }
        json.push_str(&format!(
            "],\"files_scanned\":{},\"suppressions_used\":{},\"library_lines\":{{\"total\":{}",
            self.files_scanned,
            self.suppressions_used,
            self.library_total()
        ));
        for (krate, lines) in &self.library_lines {
            json.push_str(&format!(",\"{krate}\":{lines}"));
        }
        json.push_str("}}\n");
        json
    }
}

/// A scanned, classified source file — the input to every per-file rule.
pub struct SourceFile {
    /// Workspace-relative, slash-separated path.
    pub path: String,
    /// What kind of target the file belongs to.
    pub kind: FileKind,
    /// Lexed lines (1-based access via `lines[line - 1]`).
    pub lines: Vec<Line>,
    /// Flat token stream over the code text.
    pub tokens: Vec<Token>,
    /// Per line: inside `#[cfg(test)]` / `#[test]` code (or a `tests/` file).
    pub is_test: Vec<bool>,
    /// Per line: inside a `hot-path` region.
    pub is_hot: Vec<bool>,
    /// Per line: rules suppressed by an `allow` directive covering it.
    pub allows: Vec<BTreeSet<String>>,
}

impl SourceFile {
    /// Lexes and classifies `source`; annotation problems become findings.
    pub fn parse(path: &str, source: &str) -> (Self, Vec<Finding>) {
        let lines = scan::split_lines(source);
        let tokens = scan::tokenize(&lines);
        let kind = FileKind::of(path);
        let n = lines.len();
        let mut findings = Vec::new();

        // Test regions: an attribute line arms the tracker; the first `{` that
        // follows opens a region closed when brace depth returns to its level.
        // Files under tests/ are test code wholesale.
        let mut is_test = vec![kind == FileKind::Test; n];
        let mut depth: i64 = 0;
        let mut armed = false;
        let mut region_floor: Option<i64> = None;
        for (idx, line) in lines.iter().enumerate() {
            if region_floor.is_some() || armed {
                is_test[idx] = true;
            }
            if line.code.contains("#[cfg(test)]") || line.code.contains("#[test]") {
                // An attribute inside an already-open test region is redundant
                // for classification; arming there would leak past the region.
                armed = region_floor.is_none();
                is_test[idx] = true;
            }
            for c in line.code.chars() {
                match c {
                    // A `;` before any `{` means the attribute gated a braceless
                    // item (`#[cfg(test)] use ...;`) — nothing to track.
                    ';' if armed && region_floor.is_none() => armed = false,
                    '{' => {
                        if armed && region_floor.is_none() {
                            region_floor = Some(depth);
                            armed = false;
                        }
                        depth += 1;
                    }
                    '}' => {
                        depth -= 1;
                        if region_floor == Some(depth) {
                            region_floor = None;
                        }
                    }
                    _ => {}
                }
            }
        }

        // Directives: hot-path regions and allow coverage.
        let mut is_hot = vec![false; n];
        let mut allows: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
        let mut hot_open: Option<usize> = None;
        for (idx, line) in lines.iter().enumerate() {
            if let Some(open) = hot_open {
                if open < idx {
                    is_hot[idx] = true;
                }
            }
            let Some(parsed) = parse_directive(&line.comment) else {
                continue;
            };
            match parsed {
                Err(reason) => findings.push(Finding {
                    rule: "annotation",
                    path: path.to_string(),
                    line: idx + 1,
                    message: reason,
                }),
                Ok(Directive::HotPath) => {
                    if hot_open.is_some() {
                        findings.push(Finding {
                            rule: "annotation",
                            path: path.to_string(),
                            line: idx + 1,
                            message: "nested `hot-path` marker (close the previous region first)"
                                .to_string(),
                        });
                    } else {
                        hot_open = Some(idx);
                    }
                }
                Ok(Directive::EndHotPath) => {
                    if hot_open.take().is_none() {
                        findings.push(Finding {
                            rule: "annotation",
                            path: path.to_string(),
                            line: idx + 1,
                            message: "`end-hot-path` without an open `hot-path` region".to_string(),
                        });
                    }
                    is_hot[idx] = false;
                }
                Ok(Directive::Allow { rules, reason: _ }) => {
                    for rule in rules {
                        if !RULE_NAMES.contains(&rule.as_str()) {
                            findings.push(Finding {
                                rule: "annotation",
                                path: path.to_string(),
                                line: idx + 1,
                                message: format!(
                                    "`allow({rule})` names an unknown rule (known: {})",
                                    RULE_NAMES.join(", ")
                                ),
                            });
                            continue;
                        }
                        // Covers the directive's own line and the next line
                        // that contains code (for standalone comment lines).
                        allows[idx].insert(rule.clone());
                        let mut next = idx + 1;
                        while next < n && lines[next].code.trim().is_empty() {
                            next += 1;
                        }
                        if next < n {
                            allows[next].insert(rule);
                        }
                    }
                }
            }
        }
        if let Some(open) = hot_open {
            findings.push(Finding {
                rule: "annotation",
                path: path.to_string(),
                line: open + 1,
                message: "`hot-path` region is never closed (add `end-hot-path`)".to_string(),
            });
        }

        (
            SourceFile {
                path: path.to_string(),
                kind,
                lines,
                tokens,
                is_test,
                is_hot,
                allows,
            },
            findings,
        )
    }

    /// Whether 1-based `line` sits in test code.
    pub fn test_line(&self, line: usize) -> bool {
        self.is_test.get(line - 1).copied().unwrap_or(false)
    }

    /// Whether `rule` is suppressed on 1-based `line`.
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .get(line - 1)
            .is_some_and(|set| set.contains(rule))
    }
}

/// Lints in-memory sources plus an optional README. `files` are
/// `(workspace-relative path, contents)` pairs; the README is
/// `(path, contents)`. This is the core the CLI, the fixture tests, and the
/// self-run test all share.
pub fn lint_sources(files: &[(String, String)], readme: Option<(&str, &str)>) -> Report {
    let mut report = Report::default();
    let mut parsed = Vec::new();
    let mut suppressed_total = 0usize;
    for (path, text) in files {
        let (file, annotation_findings) = SourceFile::parse(path, text);
        report.findings.extend(annotation_findings);
        parsed.push(file);
    }
    report.files_scanned = parsed.len();
    report.library_lines = LIBRARY_CRATES
        .iter()
        .map(|&krate| {
            let prefix = format!("crates/{krate}/src/");
            let lines = parsed
                .iter()
                .filter(|file| file.path.starts_with(&prefix))
                .map(|file| library_lines(&file.lines))
                .sum();
            (krate, lines)
        })
        .collect();
    for file in &parsed {
        for (finding, was_suppressed) in rules::lint_file(file) {
            if was_suppressed {
                suppressed_total += 1;
            } else {
                report.findings.push(finding);
            }
        }
    }
    if let Some((readme_path, readme_text)) = readme {
        report
            .findings
            .extend(rules::config_registry(&parsed, readme_path, readme_text));
    }
    report.suppressions_used = suppressed_total;
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
}

/// Physical lines of a lexed file outside its `#[cfg(test)] mod tests`
/// blocks (the attribute line through the module's closing brace).
pub fn library_lines(lines: &[Line]) -> usize {
    let mut count = 0;
    let mut idx = 0;
    while idx < lines.len() {
        let opens_tests = lines[idx].code.trim() == "#[cfg(test)]"
            && lines
                .get(idx + 1)
                .is_some_and(|next| next.code.trim_start().starts_with("mod tests"));
        if !opens_tests {
            count += 1;
            idx += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut opened = false;
        idx += 1;
        while idx < lines.len() && !(opened && depth == 0) {
            for c in lines[idx].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            idx += 1;
        }
    }
    count
}

/// Walks `root` (a workspace checkout) and lints every non-shim `.rs` file
/// under `crates/` and `examples/`, plus the root `README.md` registry table.
///
/// # Errors
///
/// Returns any I/O error from walking directories or reading files. A missing
/// `README.md` is an error: the config-registry rule has nothing to check
/// against, and silently skipping it would report a false "clean".
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for top in ["crates", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(root, &dir, &mut files)?;
        }
    }
    files.sort();
    let mut sources = Vec::new();
    for rel in files {
        let text = std::fs::read_to_string(root.join(&rel))?;
        sources.push((rel, text));
    }
    let readme_path = root.join("README.md");
    let readme = std::fs::read_to_string(&readme_path)?;
    Ok(lint_sources(&sources, Some(("README.md", &readme))))
}

/// Recursively collects workspace-relative `.rs` paths, skipping the vendored
/// shims and build output. Directory entries are sorted so the scan order — and
/// therefore the report — is deterministic across filesystems (the linter holds
/// itself to the invariant it enforces).
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "shims" || name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// The directive marker, re-exported for diagnostics.
pub fn marker() -> &'static str {
    MARKER
}
