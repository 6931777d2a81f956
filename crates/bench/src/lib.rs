//! Shared infrastructure for the benchmark harness that regenerates every table and
//! figure of the paper.
//!
//! Each figure has its own `harness = false` bench target under `benches/`; all of
//! them are thin frontends over [`runner`], which handles argument parsing,
//! Monte-Carlo configuration, sweep-cache control, and aligned-table / CSV / JSON
//! output. The helpers here cover code selection and table formatting. Every
//! run option — flag, `CYCLONE_*` variable, default, effect — is listed in the
//! README's options table.

pub mod runner;

use qec::codes::{self, CatalogEntry};
use qec::CssCode;

/// The physical-error-rate grid used by the LER sweeps (Figs. 14 and 15).
pub fn error_rate_grid() -> Vec<f64> {
    vec![1e-4, 2e-4, 5e-4, 1e-3, 2e-3]
}

/// HGP codes used by the benches: `[[100,4,4]]` and `[[225,9,6]]`, or with `full`
/// the whole catalog (adding `[[400,16,6]]` and `[[625,25,8]]`).
///
/// # Panics
///
/// Panics if the deterministic code constructions fail (they do not).
pub fn hgp_codes(full: bool) -> Vec<CssCode> {
    if full {
        codes::hgp_catalog()
            .expect("catalog construction")
            .into_iter()
            .map(|e| e.code)
            .collect()
    } else {
        vec![
            codes::hgp_100().expect("construction"),
            codes::hgp_225_9_6().expect("construction"),
        ]
    }
}

/// BB codes used by the benches: `[[72,12,6]]` and `[[90,8,10]]`, or with `full`
/// the whole catalog (adding `[[108,8,10]]` and `[[144,12,12]]`).
///
/// # Panics
///
/// Panics if the deterministic code constructions fail (they do not).
pub fn bb_codes(full: bool) -> Vec<CssCode> {
    if full {
        codes::bb_catalog()
            .expect("catalog construction")
            .into_iter()
            .map(|e| e.code)
            .collect()
    } else {
        vec![
            codes::bb_72_12_6().expect("construction"),
            codes::bb_90_8_10().expect("construction"),
        ]
    }
}

/// The labelled catalog of both families: [`hgp_codes`] then [`bb_codes`], or
/// with `full` the whole catalog.
///
/// # Panics
///
/// Panics if the deterministic code constructions fail (they do not).
pub fn catalog(full: bool) -> Vec<CatalogEntry> {
    if full {
        codes::full_catalog().expect("catalog construction")
    } else {
        let mut entries = Vec::new();
        for code in hgp_codes(false) {
            entries.push(CatalogEntry {
                family: codes::CodeFamily::Hgp,
                label: code.descriptor(),
                code,
            });
        }
        for code in bb_codes(false) {
            entries.push(CatalogEntry {
                family: codes::CodeFamily::Bb,
                label: code.descriptor(),
                code,
            });
        }
        entries
    }
}

/// The `[[225,9,6]]` code used by most single-code sensitivity studies.
///
/// # Panics
///
/// Panics if the deterministic construction fails (it does not).
pub fn sensitivity_code() -> CssCode {
    codes::hgp_225_9_6().expect("construction")
}

/// A simple column-aligned (or CSV) table printer.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must have the same arity as the headers).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The appended rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as aligned columns, or as CSV with `csv`.
    pub fn render(&self, csv: bool) -> String {
        if csv {
            let mut out = self.headers.join(",");
            out.push('\n');
            for row in &self.rows {
                out.push_str(&row.join(","));
                out.push('\n');
            }
            return out;
        }
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout with a title line.
    pub fn print(&self, title: &str, csv: bool) {
        println!("\n== {title} ==");
        print!("{}", self.render(csv));
    }
}

/// Formats a duration in seconds as milliseconds with two decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

/// Formats a probability in scientific notation.
pub fn sci(p: f64) -> String {
    format!("{p:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use runner::RunContext;

    /// Resolves a context with no arguments and `name=value` as the only
    /// environment variable.
    fn with_var(name: &str, value: &str) -> Result<RunContext, String> {
        RunContext::from_args(&[], |n| (n == name).then(|| value.to_string()))
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render(false);
        assert!(s.contains("long header"));
        assert!(s.lines().count() >= 3);
        assert_eq!(t.render(true), "a,long header\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_bad_row() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn defaults_are_reasonable() {
        let ctx = RunContext::from_args(&[], |_| None).expect("defaults parse");
        assert_eq!(ctx.config.shots, 400);
        assert_eq!(error_rate_grid().len(), 5);
        assert_eq!(catalog(ctx.full).len(), 4);
    }

    #[test]
    fn env_parse_is_generic_over_fromstr() {
        // usize / f64 / switch variables share the trim + empty-is-unset rule.
        assert_eq!(with_var("CYCLONE_SHOTS", " 42 ").unwrap().config.shots, 42);
        assert_eq!(with_var("CYCLONE_SHOTS", "").unwrap().config.shots, 400);
        assert!(with_var("CYCLONE_CSV", "1").unwrap().csv);
        let ctx = with_var("CYCLONE_TARGET_RSE", " 2.5 ").unwrap();
        assert_eq!(ctx.sweep.precision.map(|t| t.target_rse), Some(2.5));
        assert!(with_var("CYCLONE_TARGET_RSE", "")
            .unwrap()
            .sweep
            .precision
            .is_none());
        for (name, bad) in [("CYCLONE_SHOTS", "nope"), ("CYCLONE_TARGET_RSE", "x")] {
            let err = with_var(name, bad).unwrap_err();
            assert!(err.contains(name) && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn shots_parsing_defaults_and_overrides() {
        assert_eq!(with_var("CYCLONE_SHOTS", "50").unwrap().config.shots, 50);
        assert_eq!(
            with_var("CYCLONE_SHOTS", " 1250 ").unwrap().config.shots,
            1250
        );
        // Empty is unset.
        assert_eq!(with_var("CYCLONE_SHOTS", "").unwrap().config.shots, 400);
        // Zero shots would panic the LER estimator, so it is malformed too.
        for bad in ["abc", "-3", "1e3", "0", "2k"] {
            let err = with_var("CYCLONE_SHOTS", bad).unwrap_err();
            assert!(err.contains("CYCLONE_SHOTS") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn threads_parsing_defaults_and_overrides() {
        assert_eq!(with_var("CYCLONE_THREADS", "").unwrap().config.threads, 0);
        assert_eq!(
            with_var("CYCLONE_THREADS", " 12 ").unwrap().config.threads,
            12
        );
        // "0" is an explicit auto-detect request, not a malformed value.
        assert_eq!(with_var("CYCLONE_THREADS", "0").unwrap().config.threads, 0);
        for bad in ["abc", "-2", "2.5"] {
            let err = with_var("CYCLONE_THREADS", bad).unwrap_err();
            assert!(
                err.contains("CYCLONE_THREADS") && err.contains(bad),
                "{err}"
            );
        }
    }

    #[test]
    fn flag_parsing_accepts_only_literal_one() {
        assert!(with_var("CYCLONE_CSV", " 1").unwrap().csv);
        assert!(!with_var("CYCLONE_CSV", "0").unwrap().csv);
        assert!(!with_var("CYCLONE_CSV", "").unwrap().csv);
        for bad in ["true", "yes", "2"] {
            let err = with_var("CYCLONE_CSV", bad).unwrap_err();
            assert!(err.contains("CYCLONE_CSV") && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn undeclared_variables_are_named() {
        use runner::check_variable_names;
        // Every declared variable, and names outside the prefix, pass.
        let declared = [
            "CYCLONE_SHOTS",
            "CYCLONE_THREADS",
            "CYCLONE_SIMD",
            "CYCLONE_ENFORCE",
            "HOME",
            "CARGO_TARGET_DIR",
            "NOT_CYCLONE_SHOTS",
        ];
        assert_eq!(check_variable_names(declared), Ok(()));
        // Retired options and a typo are named.
        for unknown in ["CYCLONE_SHARDS", "CYCLONE_DECODE_CACHE_DIR", "CYCLONE_SHOT"] {
            let err = check_variable_names(["HOME", "CYCLONE_SHOTS", unknown]).unwrap_err();
            assert!(err.contains(unknown), "{err}");
        }
    }

    #[test]
    fn format_helpers() {
        assert_eq!(ms(0.001), "1.00");
        assert!(sci(1.5e-3).contains('e'));
    }
}
