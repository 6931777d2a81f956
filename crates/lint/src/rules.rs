//! The rule families of `cyclone-lint`, as token-stream scans over
//! [`crate::SourceFile`]s. Every per-file check returns `(Finding, suppressed)`
//! pairs so the caller can count honored suppressions instead of dropping them
//! silently — the JSON report records how much of the workspace is annotated.

use crate::scan::Token;
use crate::{FileKind, Finding, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Methods that observe a hash container in iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Sort calls that impose a deterministic order on an iterated result. The
/// rule trusts any of these within the statement or the three lines after the
/// iteration site; whether the comparator is a *total* order is on the author
/// (a stable sort on a partial key still leaks hash order between ties).
const SORT_METHODS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Order-insensitive terminal questions a hash container may answer directly.
const ORDER_FREE_METHODS: &[&str] = &["len", "is_empty", "count", "all", "any", "contains"];

/// Wall-clock / randomized-hash identifiers banned in the decode/sample
/// modules, where every result must be a pure function of the seed.
const WALL_CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "RandomState", "thread_rng"];

/// Files where `wall-clock` applies (workspace-relative suffixes).
const WALL_CLOCK_MODULES: &[&str] = &[
    "crates/decoder/src/bp.rs",
    "crates/decoder/src/osd.rs",
    "crates/decoder/src/bposd.rs",
    "crates/decoder/src/memory.rs",
    "crates/decoder/src/cache.rs",
    "crates/cyclone/src/sweep.rs",
];

/// Allocation-constructor methods flagged inside `hot-path` regions.
const HOT_ALLOC_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "clone", "collect"];

/// `Type::ctor` pairs flagged inside `hot-path` regions.
const HOT_ALLOC_TYPES: &[&str] = &[
    "Vec", "String", "Box", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque",
];
const HOT_ALLOC_CTORS: &[&str] = &["new", "from", "with_capacity"];

/// Macros flagged inside `hot-path` regions.
const HOT_ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Identifiers that mark a statement as file I/O for the `io-unwrap` rule.
const IO_MARKERS: &[&str] = &[
    "fs",
    "File",
    "OpenOptions",
    "read_to_string",
    "read_dir",
    "create_dir",
    "create_dir_all",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "write_all",
    "read_exact",
    "read_line",
    "flush",
    "BufReader",
    "BufWriter",
    "current_exe",
];

/// Runs every per-file rule. Returns `(finding, suppressed)` pairs.
pub fn lint_file(file: &SourceFile) -> Vec<(Finding, bool)> {
    let mut out = Vec::new();
    unordered_iter(file, &mut out);
    wall_clock(file, &mut out);
    hot_path_alloc(file, &mut out);
    io_unwrap(file, &mut out);
    unsafe_safety(file, &mut out);
    out
}

fn push(
    out: &mut Vec<(Finding, bool)>,
    file: &SourceFile,
    rule: &'static str,
    line: usize,
    message: String,
) {
    let suppressed = file.allowed(rule, line);
    out.push((
        Finding {
            rule,
            path: file.path.clone(),
            line,
            message,
        },
        suppressed,
    ));
}

/// Indices of the tokens bounding the statement containing token `at`:
/// backwards and forwards to the nearest `;`, `{`, or `}` (exclusive).
fn statement_bounds(tokens: &[Token], at: usize) -> (usize, usize) {
    let is_boundary = |t: &Token| !t.ident && matches!(t.text.as_str(), ";" | "{" | "}");
    let mut start = at;
    while start > 0 && !is_boundary(&tokens[start - 1]) {
        start -= 1;
    }
    let mut end = at;
    while end + 1 < tokens.len() && !is_boundary(&tokens[end + 1]) {
        end += 1;
    }
    (start, end)
}

/// Collects identifiers bound to `HashMap`/`HashSet` in this file: `let`
/// bindings (typed or via `HashMap::new()`-style initializers) and
/// `name: ...HashMap<...>` type ascriptions (struct fields, fn params).
fn hash_idents(file: &SourceFile) -> BTreeSet<String> {
    let tokens = &file.tokens;
    let mut idents = BTreeSet::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.ident || (tok.text != "HashMap" && tok.text != "HashSet") {
            continue;
        }
        let (start, _) = statement_bounds(tokens, i);
        // Walk back from the container name looking for who it is bound to.
        let mut j = i;
        while j > start {
            j -= 1;
            let t = &tokens[j];
            if t.ident && t.text == "let" {
                // `let [mut] NAME ...`
                let mut k = j + 1;
                if k < tokens.len() && tokens[k].text == "mut" {
                    k += 1;
                }
                if k < tokens.len() && tokens[k].ident {
                    idents.insert(tokens[k].text.clone());
                }
                break;
            }
            // `NAME : ...HashMap` — a single colon (not `::`) directly after an
            // identifier is a type ascription for that identifier.
            if !t.ident && t.text == ":" {
                let double = (j > start && tokens[j - 1].text == ":")
                    || (j + 1 < tokens.len() && tokens[j + 1].text == ":");
                if !double && j > start && tokens[j - 1].ident {
                    idents.insert(tokens[j - 1].text.clone());
                    // Keep walking: a `let` earlier in the statement wins, but
                    // recording the ascribed name too is harmless.
                }
            }
        }
    }
    idents
}

/// Rule `unordered-iter`: see the crate docs. Applies to non-test lines of
/// library/binary code.
fn unordered_iter(file: &SourceFile, out: &mut Vec<(Finding, bool)>) {
    if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    let names = hash_idents(file);
    if names.is_empty() {
        return;
    }
    let tokens = &file.tokens;
    let mut sites: Vec<(usize, String, String)> = Vec::new(); // (token idx, ident, how)
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.ident {
            continue;
        }
        // `name.method(` with method in ITER_METHODS.
        if ITER_METHODS.contains(&tok.text.as_str())
            && i >= 2
            && tokens[i - 1].text == "."
            && tokens[i - 2].ident
            && names.contains(&tokens[i - 2].text)
            && tokens.get(i + 1).is_some_and(|t| t.text == "(")
        {
            sites.push((i, tokens[i - 2].text.clone(), format!(".{}()", tok.text)));
        }
        // `for PAT in [&][mut] [path.]name {` — direct iteration.
        if tok.text == "in" {
            let mut j = i + 1;
            let mut last_ident: Option<usize> = None;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.ident {
                    last_ident = Some(j);
                    j += 1;
                    continue;
                }
                match t.text.as_str() {
                    "&" | "." => {
                        j += 1;
                        continue;
                    }
                    "{" => break,
                    _ => {
                        last_ident = None;
                        break;
                    }
                }
            }
            if let Some(k) = last_ident {
                if names.contains(&tokens[k].text) {
                    sites.push((k, tokens[k].text.clone(), "for-loop iteration".to_string()));
                }
            }
        }
    }
    for (idx, name, how) in sites {
        let line = tokens[idx].line;
        if file.test_line(line) {
            continue;
        }
        let (start, end) = statement_bounds(tokens, idx);
        let stmt = &tokens[start..=end];
        // Collecting into an ordered container fixes the order.
        if stmt
            .iter()
            .any(|t| t.ident && (t.text == "BTreeMap" || t.text == "BTreeSet"))
        {
            continue;
        }
        // An order-insensitive terminal on the same statement is fine.
        if stmt
            .iter()
            .skip_while(|t| t.line < line)
            .any(|t| t.ident && ORDER_FREE_METHODS.contains(&t.text.as_str()))
        {
            continue;
        }
        // A sort within the statement or the next three lines imposes order.
        let sorted_nearby = tokens
            .iter()
            .skip(start)
            .take_while(|t| t.line <= line + 3)
            .any(|t| t.ident && SORT_METHODS.contains(&t.text.as_str()));
        if sorted_nearby {
            continue;
        }
        push(
            out,
            file,
            "unordered-iter",
            line,
            format!(
                "{how} over hash container `{name}` leaks randomized iteration order; \
                 sort the result, use a BTreeMap/BTreeSet, or annotate why order cannot matter"
            ),
        );
    }
}

/// Rule `wall-clock`: bans wall-clock and randomized-hash sources in the
/// decode/sample modules.
fn wall_clock(file: &SourceFile, out: &mut Vec<(Finding, bool)>) {
    if !WALL_CLOCK_MODULES
        .iter()
        .any(|m| file.path.ends_with(m) || file.path == *m)
    {
        return;
    }
    for tok in &file.tokens {
        if tok.ident && WALL_CLOCK_IDENTS.contains(&tok.text.as_str()) && !file.test_line(tok.line)
        {
            push(
                out,
                file,
                "wall-clock",
                tok.line,
                format!(
                    "`{}` in a decode/sample module breaks seed-determinism \
                     (results must be pure functions of the configured seed)",
                    tok.text
                ),
            );
        }
    }
}

/// Rule `hot-path-alloc`: flags allocation constructors inside
/// `// cyclone-lint: hot-path` regions.
fn hot_path_alloc(file: &SourceFile, out: &mut Vec<(Finding, bool)>) {
    if !file.is_hot.iter().any(|&h| h) {
        return;
    }
    let tokens = &file.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.ident || !file.is_hot.get(tok.line - 1).copied().unwrap_or(false) {
            continue;
        }
        let text = tok.text.as_str();
        // `.method(` allocation constructors.
        if HOT_ALLOC_METHODS.contains(&text)
            && i >= 1
            && tokens[i - 1].text == "."
            && tokens.get(i + 1).is_some_and(|t| t.text == "(")
        {
            push(
                out,
                file,
                "hot-path-alloc",
                tok.line,
                format!(".{text}() allocates inside a hot-path region"),
            );
            continue;
        }
        // `Type::ctor` pairs.
        if HOT_ALLOC_TYPES.contains(&text)
            && tokens.get(i + 1).is_some_and(|t| t.text == ":")
            && tokens.get(i + 2).is_some_and(|t| t.text == ":")
            && tokens
                .get(i + 3)
                .is_some_and(|t| t.ident && HOT_ALLOC_CTORS.contains(&t.text.as_str()))
        {
            push(
                out,
                file,
                "hot-path-alloc",
                tok.line,
                format!(
                    "{}::{} allocates inside a hot-path region",
                    text,
                    tokens[i + 3].text
                ),
            );
            continue;
        }
        // `vec![...]` / `format!(...)`.
        if HOT_ALLOC_MACROS.contains(&text) && tokens.get(i + 1).is_some_and(|t| t.text == "!") {
            push(
                out,
                file,
                "hot-path-alloc",
                tok.line,
                format!("{text}! allocates inside a hot-path region"),
            );
        }
    }
}

/// Rule `io-unwrap`: bare `.unwrap()` / `.expect(...)` on statements that
/// perform file I/O, outside tests and examples.
fn io_unwrap(file: &SourceFile, out: &mut Vec<(Finding, bool)>) {
    if !matches!(file.kind, FileKind::Lib | FileKind::Bin | FileKind::Bench) {
        return;
    }
    let tokens = &file.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.ident || (tok.text != "unwrap" && tok.text != "expect") {
            continue;
        }
        if i == 0 || tokens[i - 1].text != "." || tokens.get(i + 1).is_none_or(|t| t.text != "(") {
            continue;
        }
        if file.test_line(tok.line) {
            continue;
        }
        let (start, end) = statement_bounds(tokens, i);
        let touches_io = tokens[start..=end]
            .iter()
            .any(|t| t.ident && IO_MARKERS.contains(&t.text.as_str()));
        if !touches_io {
            continue;
        }
        push(
            out,
            file,
            "io-unwrap",
            tok.line,
            format!(
                ".{}() on a file-I/O result panics on corrupt or missing input; \
                 propagate the error (cache files must degrade to recompute) or annotate why \
                 failing fast is the contract",
                tok.text
            ),
        );
    }
}

/// Whether a line's comment text argues safety: a `SAFETY:` tag (block-level
/// convention) or a `# Safety` doc section (the rustdoc convention for
/// `unsafe fn`).
fn comment_argues_safety(comment: &str) -> bool {
    comment.contains("SAFETY") || comment.contains("# Safety")
}

/// Whether 1-based `line` has an adjacent safety argument: a qualifying comment
/// on the line itself, or on the unbroken run of comment-only, blank, and
/// attribute lines directly above it (so `/// # Safety` doc sections and
/// `// SAFETY:` comments above `#[target_feature]` attributes both count).
fn has_adjacent_safety(file: &SourceFile, line: usize) -> bool {
    if file
        .lines
        .get(line - 1)
        .is_some_and(|l| comment_argues_safety(&l.comment))
    {
        return true;
    }
    let mut idx = line - 1; // 0-based index of the `unsafe` line itself
    while idx > 0 {
        idx -= 1;
        let l = &file.lines[idx];
        if comment_argues_safety(&l.comment) {
            return true;
        }
        let code = l.code.trim();
        if !(code.is_empty() || code.starts_with('#')) {
            return false;
        }
    }
    false
}

/// Rule `unsafe-safety`: every `unsafe` occurrence (block, fn, impl) in
/// non-test library/binary code needs an adjacent safety argument — a
/// `// SAFETY:` comment on the same line or directly above it, or a
/// `/// # Safety` doc section on the item. Benches and tests are exempt
/// (matching the other code-shape rules); the vector kernel calls in
/// `decoder::simd` model the expected form.
fn unsafe_safety(file: &SourceFile, out: &mut Vec<(Finding, bool)>) {
    if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    let mut last_line = 0usize;
    for tok in &file.tokens {
        if !tok.ident || tok.text != "unsafe" || tok.line == last_line {
            continue;
        }
        if file.test_line(tok.line) {
            continue;
        }
        last_line = tok.line;
        if has_adjacent_safety(file, tok.line) {
            continue;
        }
        push(
            out,
            file,
            "unsafe-safety",
            tok.line,
            "`unsafe` without an adjacent safety argument; add a `// SAFETY:` comment \
             (or a `/// # Safety` doc section) stating the invariant that makes this sound"
                .to_string(),
        );
    }
}

/// Rule `config-registry`: every `CYCLONE_*` env var referenced by non-test
/// code must appear in the README options table, and vice versa.
///
/// Code references are collected from string literals only (env vars are
/// always read via string names; prose in comments does not count as a
/// reference). Documented vars are cells of any markdown table that hold
/// exactly a backticked `CYCLONE_*` name.
pub fn config_registry(files: &[SourceFile], readme_path: &str, readme_text: &str) -> Vec<Finding> {
    let mut referenced: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for file in files {
        for (idx, line) in file.lines.iter().enumerate() {
            if file.test_line(idx + 1) {
                continue;
            }
            for s in &line.strings {
                for var in extract_vars(s) {
                    referenced
                        .entry(var)
                        .or_insert_with(|| (file.path.clone(), idx + 1));
                }
            }
        }
    }
    let mut documented: BTreeMap<String, usize> = BTreeMap::new();
    for (idx, line) in readme_text.lines().enumerate() {
        let Some(row) = line.trim_start().strip_prefix('|') else {
            continue;
        };
        for cell in row.split('|') {
            let Some(name) = cell
                .trim()
                .strip_prefix('`')
                .and_then(|c| c.strip_suffix('`'))
            else {
                continue;
            };
            if name.starts_with("CYCLONE_") && name.len() > "CYCLONE_".len() {
                documented.entry(name.to_string()).or_insert(idx + 1);
            }
        }
    }
    let mut findings = Vec::new();
    for (var, (path, line)) in &referenced {
        if !documented.contains_key(var) {
            findings.push(Finding {
                rule: "config-registry",
                path: path.clone(),
                line: *line,
                message: format!(
                    "`{var}` is read by code but has no row in the {readme_path} options table"
                ),
            });
        }
    }
    for (var, line) in &documented {
        if !referenced.contains_key(var) {
            findings.push(Finding {
                rule: "config-registry",
                path: readme_path.to_string(),
                line: *line,
                message: format!(
                    "`{var}` is documented in the options table but no non-test code references it"
                ),
            });
        }
    }
    findings
}

/// Extracts complete `CYCLONE_[A-Z0-9_]+` names from a string literal.
fn extract_vars(s: &str) -> Vec<String> {
    let mut vars = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while let Some(pos) = s[i..].find("CYCLONE_") {
        let start = i + pos;
        // Must not be the tail of a longer identifier.
        if start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
            i = start + "CYCLONE_".len();
            continue;
        }
        let mut end = start + "CYCLONE_".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        if end > start + "CYCLONE_".len() {
            vars.push(s[start..end].trim_end_matches('_').to_string());
        }
        i = end;
    }
    vars
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_vars_finds_complete_names() {
        assert_eq!(
            extract_vars("set CYCLONE_SHOTS or CYCLONE_THREADS"),
            vec!["CYCLONE_SHOTS".to_string(), "CYCLONE_THREADS".to_string()]
        );
        // Bare prefix and identifier tails do not count.
        assert!(extract_vars("the CYCLONE_ prefix").is_empty());
        assert!(extract_vars("NOT_CYCLONE_SHOTS").is_empty());
        // Trailing underscores are not part of a name.
        assert_eq!(extract_vars("CYCLONE_SHOTS_"), vec!["CYCLONE_SHOTS"]);
    }
}
