//! The shared figure runner every bench binary fronts.
//!
//! A figure binary is three lines: pick codes, call its `cyclone::experiments`
//! declaration, format rows into a [`Table`]. Everything else — the run
//! configuration, sweep-cache control, and table/CSV/JSON emission — lives
//! here, so the binaries share one frontend instead of one copy of the loop
//! each.
//!
//! # Configuration
//!
//! Every option is one row of `OPTIONS`: its flag, its `CYCLONE_*` variable,
//! its default and its parser. The options table in the README lists the same
//! rows with their effects, and a test keeps the two in step. Flags go after
//! `--` (`cargo bench -p bench --bench figNN -- --shots 2000`) and beat their
//! variables; an empty value counts as unset. Any other value parses or is an
//! error naming the option and the value, and so is an unknown argument
//! (except the `--bench` that cargo appends) or a `CYCLONE_*` variable no
//! row declares (a retired option or a typo would otherwise change nothing).

use crate::Table;
use cyclone::sweep::SweepOptions;
use decoder::cache::atomic_write;
use decoder::memory::{MemoryConfig, PrecisionTarget};
use noise::ChannelSpec;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Default relative-standard-error target of adaptive runs (`rse ≈ 1/√failures`,
/// so this pairs naturally with [`DEFAULT_MIN_FAILURES`]).
pub const DEFAULT_TARGET_RSE: f64 = 0.1;

/// Default failure floor of adaptive runs (the classic stop-at-100-failures rule;
/// the `--min-failures` row of the option table parses to it).
pub const DEFAULT_MIN_FAILURES: usize = 100;

/// Default per-point shot cap of adaptive runs, as a multiple of the fixed budget:
/// high-LER points stop orders of magnitude earlier, low-LER points may go this
/// much deeper to reach the target precision.
pub const MAX_SHOTS_FACTOR: usize = 20;

/// The resolved `--noise` / `CYCLONE_NOISE` channel mode.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum NoiseFlag {
    /// The historical scalar model (the default).
    #[default]
    Uniform,
    /// Measurement flips at this ratio of the effective data rate on every point.
    Biased(f64),
}

impl NoiseFlag {
    /// Parses `uniform` or `biased:<ratio>` (finite, non-negative ratio);
    /// anything else is malformed (`None`).
    pub fn parse(raw: &str) -> Option<Self> {
        let raw = raw.trim();
        match raw {
            "uniform" => Some(NoiseFlag::Uniform),
            _ => raw.strip_prefix("biased:").and_then(|ratio| {
                ratio
                    .trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r >= 0.0)
                    .map(NoiseFlag::Biased)
            }),
        }
    }
}

/// Everything a figure closure needs: the Monte-Carlo configuration and the sweep
/// options (pool size + cache location) resolved from flags and environment.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Monte-Carlo configuration for LER points.
    pub config: MemoryConfig,
    /// Sweep execution options (pass to the `*_with` experiment runners; carries
    /// the resolved precision target in `sweep.precision` when adaptive mode is
    /// active, `None` = fixed shot budget, and the default channel spec in
    /// `sweep.channel` when `--noise biased:<ratio>` is active).
    pub sweep: SweepOptions,
    /// CSV output requested (`--csv`).
    pub csv: bool,
    /// Full code catalog requested (`--full`).
    pub full: bool,
    /// The requested channel mode (`--noise`). `Biased` is already threaded
    /// into [`RunContext::sweep`].
    pub noise: NoiseFlag,
    /// Recorded bench thresholds are hard failures (`CYCLONE_ENFORCE`).
    pub enforce: bool,
}

/// The option values as parsed, before [`RunContext::from_args`] assembles them.
#[derive(Debug, Default)]
struct Settings {
    shots: usize,
    threads: usize,
    full: bool,
    csv: bool,
    no_cache: bool,
    cache_dir: Option<PathBuf>,
    target_rse: Option<f64>,
    min_failures: usize,
    max_shots: Option<usize>,
    fixed: bool,
    noise: NoiseFlag,
    enforce: bool,
}

/// One run option.
struct Opt {
    /// The flag with its value placeholder (`"--shots N"`); a flag without one
    /// is a switch. Empty: no flag.
    flag: &'static str,
    /// The environment variable. Empty: no variable.
    env: &'static str,
    /// The default, parsed before the variable and the flag. Empty: unset.
    default: &'static str,
    /// Stores a trimmed, non-empty value (a switch flag stores `"1"`), or says
    /// what was expected instead.
    set: fn(&mut Settings, &str) -> Result<(), &'static str>,
}

impl Opt {
    /// The flag without its placeholder.
    fn flag_name(&self) -> &'static str {
        self.flag.split(' ').next().unwrap_or_default()
    }
}

/// Every run option, in the order of the README options table.
const OPTIONS: &[Opt] = &[
    Opt {
        flag: "--shots N",
        env: "CYCLONE_SHOTS",
        default: "400",
        set: |s, v| positive(v).map(|v| s.shots = v),
    },
    Opt {
        flag: "--threads N",
        env: "CYCLONE_THREADS",
        default: "0",
        set: |s, v| count(v).map(|v| s.threads = v),
    },
    Opt {
        flag: "--quick",
        env: "",
        default: "",
        set: |s, _| {
            s.shots = 50;
            Ok(())
        },
    },
    Opt {
        flag: "--full",
        env: "CYCLONE_FULL",
        default: "0",
        set: |s, v| switch(v).map(|v| s.full = v),
    },
    Opt {
        flag: "--csv",
        env: "CYCLONE_CSV",
        default: "0",
        set: |s, v| switch(v).map(|v| s.csv = v),
    },
    Opt {
        flag: "--no-cache",
        env: "CYCLONE_NO_CACHE",
        default: "0",
        set: |s, v| switch(v).map(|v| s.no_cache = v),
    },
    Opt {
        flag: "--cache-dir DIR",
        env: "CYCLONE_SWEEP_DIR",
        default: "",
        set: |s, v| path(v).map(|v| s.cache_dir = Some(v)),
    },
    Opt {
        flag: "--target-rse X",
        env: "CYCLONE_TARGET_RSE",
        default: "",
        set: |s, v| positive_real(v).map(|v| s.target_rse = Some(v)),
    },
    Opt {
        flag: "--min-failures N",
        env: "CYCLONE_MIN_FAILURES",
        default: "100",
        set: |s, v| count(v).map(|v| s.min_failures = v),
    },
    Opt {
        flag: "--max-shots N",
        env: "CYCLONE_MAX_SHOTS",
        default: "",
        set: |s, v| positive(v).map(|v| s.max_shots = Some(v)),
    },
    Opt {
        flag: "--fixed",
        env: "CYCLONE_FIXED",
        default: "0",
        set: |s, v| switch(v).map(|v| s.fixed = v),
    },
    Opt {
        flag: "--noise MODE",
        env: "CYCLONE_NOISE",
        default: "uniform",
        set: |s, v| {
            let noise = NoiseFlag::parse(v).map(|noise| s.noise = noise);
            noise.ok_or("expected uniform or biased:<ratio>")
        },
    },
    Opt {
        flag: "",
        env: "CYCLONE_ENFORCE",
        default: "0",
        set: |s, v| switch(v).map(|v| s.enforce = v),
    },
    // Read by the decoder itself when it is built; checked here with the
    // decoder's own parser so a malformed value fails before anything is.
    Opt {
        flag: "",
        env: "CYCLONE_SIMD",
        default: "auto",
        set: |_, v| decoder::simd::Simd::parse(v).map(|_| ()),
    },
];

fn positive(raw: &str) -> Result<usize, &'static str> {
    let n = raw.parse::<usize>().ok().filter(|&n| n > 0);
    n.ok_or("expected a positive integer")
}

fn positive_real(raw: &str) -> Result<f64, &'static str> {
    let x = raw
        .parse::<f64>()
        .ok()
        .filter(|x| x.is_finite() && *x > 0.0);
    x.ok_or("expected a finite number > 0")
}

fn count(raw: &str) -> Result<usize, &'static str> {
    raw.parse().map_err(|_| "expected a non-negative integer")
}

fn switch(raw: &str) -> Result<bool, &'static str> {
    match raw {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err("expected 0 or 1"),
    }
}

fn path(raw: &str) -> Result<PathBuf, &'static str> {
    Ok(raw.into())
}

/// Stores `raw` through `opt`'s parser; `name` is how the error names the option.
fn apply(settings: &mut Settings, opt: &Opt, name: &str, raw: &str) -> Result<(), String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Ok(());
    }
    (opt.set)(settings, raw).map_err(|expected| format!("{name} {raw:?}: {expected}"))
}

/// Checks the names of the environment's variables: every `CYCLONE_*` name
/// must be the variable of an option row.
///
/// # Errors
///
/// The first undeclared `CYCLONE_*` name, in the order given.
pub fn check_variable_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Result<(), String> {
    let mut names = names.into_iter();
    match names.find(|name| name.starts_with("CYCLONE_") && !OPTIONS.iter().any(|o| o.env == *name))
    {
        Some(name) => Err(format!("unknown variable {name}: no option reads it")),
        None => Ok(()),
    }
}

impl RunContext {
    /// Resolves the context from the process arguments and environment. A
    /// malformed value, an unknown argument or an unknown `CYCLONE_*`
    /// variable is printed and exits the process with status 2, before
    /// anything is built.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let names: Vec<String> = std::env::vars_os()
            .map(|(name, _)| name.to_string_lossy().into_owned())
            .collect();
        check_variable_names(names.iter().map(String::as_str))
            .and_then(|()| Self::from_args(&args, |name| std::env::var(name).ok()))
            .unwrap_or_else(|err| {
                eprintln!("error: {err}");
                std::process::exit(2)
            })
    }

    /// Resolves the context from explicit arguments and an environment lookup
    /// (tests pass a fixed one): defaults, then variables, then flags.
    ///
    /// # Errors
    ///
    /// A value its option does not parse, naming the option and the value; an
    /// unknown argument; a flag missing its value.
    pub fn from_args(
        args: &[String],
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<Self, String> {
        let mut s = Settings::default();
        for opt in OPTIONS {
            let name = if opt.env.is_empty() {
                opt.flag_name()
            } else {
                opt.env
            };
            apply(&mut s, opt, name, opt.default)?;
            if !opt.env.is_empty() {
                apply(&mut s, opt, opt.env, &env(opt.env).unwrap_or_default())?;
            }
        }
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--bench" {
                continue;
            }
            let opt = OPTIONS
                .iter()
                .find(|opt| !opt.flag.is_empty() && opt.flag_name() == arg)
                .ok_or_else(|| format!("unknown argument {arg:?}"))?;
            let value = if opt.flag.contains(' ') {
                args.next().ok_or_else(|| format!("{arg}: missing value"))?
            } else {
                "1"
            };
            apply(&mut s, opt, arg, value)?;
        }

        let config = MemoryConfig {
            shots: s.shots,
            bp_iterations: 30,
            threads: s.threads,
            seed: 0xC1C1_0DE5,
        };
        let cache_dir = s.cache_dir.unwrap_or_else(default_sweep_dir);
        let mut sweep = if s.no_cache {
            SweepOptions::ephemeral(config)
        } else {
            SweepOptions::cached(config, cache_dir)
        };
        // Adaptive when --target-rse is set, or by default with --full;
        // --fixed pins the fixed budget, bit-identical to the pre-adaptive
        // engine.
        let target_rse = s.target_rse.or(s.full.then_some(DEFAULT_TARGET_RSE));
        if let Some(target_rse) = target_rse.filter(|_| !s.fixed) {
            sweep = sweep.with_precision(PrecisionTarget {
                target_rse,
                min_failures: s.min_failures,
                max_shots: s
                    .max_shots
                    .unwrap_or_else(|| s.shots.saturating_mul(MAX_SHOTS_FACTOR)),
            });
        }
        if let NoiseFlag::Biased(ratio) = s.noise {
            sweep = sweep.with_channel(ChannelSpec::Biased { meas_ratio: ratio });
        }
        Ok(RunContext {
            config,
            sweep,
            csv: s.csv,
            full: s.full,
            noise: s.noise,
            enforce: s.enforce,
        })
    }

    /// The cache directory, when caching is enabled.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.sweep.cache_dir.as_deref()
    }
}

/// The default cache directory: `sweeps/` at the repository root.
pub fn default_sweep_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../sweeps"))
}

/// A figure's printable result: the table plus optional trailing note lines
/// (crossover points, best configurations, headline ratios).
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// The figure's table.
    pub table: Table,
    /// Free-form lines printed after the table, each preceded by a blank line.
    pub notes: Vec<String>,
}

impl FigureReport {
    /// A report with trailing notes.
    pub fn with_notes(table: Table, notes: Vec<String>) -> Self {
        FigureReport { table, notes }
    }
}

impl From<Table> for FigureReport {
    fn from(table: Table) -> Self {
        FigureReport {
            table,
            notes: Vec::new(),
        }
    }
}

/// Runs one figure: resolves the context, builds the report, prints it, and (when
/// caching is enabled) records the rendered rows as `sweeps/<name>.table.json` so
/// every figure leaves a machine-readable artifact next to the sweep cache.
pub fn figure<R: Into<FigureReport>>(
    name: &str,
    title: &str,
    build: impl FnOnce(&RunContext) -> R,
) {
    let context = RunContext::from_env();
    let report: FigureReport = build(&context).into();
    report.table.print(title, context.csv);
    if let Some(target) = &context.sweep.precision {
        println!(
            "(adaptive sampling: target rse {}, >={} failures, <={} shots/point)",
            target.target_rse, target.min_failures, target.max_shots
        );
    }
    if let NoiseFlag::Biased(ratio) = context.noise {
        println!("(noise channel: measurement flips at {ratio}x the data rate on every point)");
    }
    for note in &report.notes {
        println!("\n{note}");
    }
    if let Some(dir) = context.cache_dir() {
        if let Err(err) = write_table_json(dir, name, title, &report.table) {
            eprintln!("warning: could not write {name}.table.json: {err}");
        }
    }
}

/// Writes a rendered table as `<dir>/<name>.table.json`, atomically (a killed
/// run leaves the previous file or none, never a torn one).
fn write_table_json(dir: &Path, name: &str, title: &str, table: &Table) -> std::io::Result<()> {
    let mut root = BTreeMap::new();
    root.insert("figure".to_string(), Value::from(name));
    root.insert("title".to_string(), Value::from(title));
    root.insert(
        "headers".to_string(),
        Value::Array(
            table
                .headers()
                .iter()
                .map(|h| Value::from(h.as_str()))
                .collect(),
        ),
    );
    root.insert(
        "rows".to_string(),
        Value::Array(
            table
                .rows()
                .iter()
                .map(|row| Value::Array(row.iter().map(|c| Value::from(c.as_str())).collect()))
                .collect(),
        ),
    );
    let mut text = serde_json::to_string(&Value::Object(root));
    text.push('\n');
    atomic_write(&dir.join(format!("{name}.table.json")), &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Resolves `list` against a fixed environment (tests never read or write
    /// the process environment).
    fn parse(list: &[&str], vars: &[(&str, &str)]) -> Result<RunContext, String> {
        RunContext::from_args(&args(list), |name| {
            vars.iter()
                .find(|(var, _)| *var == name)
                .map(|(_, value)| value.to_string())
        })
    }

    fn resolve(list: &[&str]) -> RunContext {
        parse(list, &[]).expect("well-formed arguments")
    }

    /// Per option, in `OPTIONS` order (keyed by flag, or by variable when there
    /// is no flag): a well-formed value and values its parser rejects.
    const CASES: &[(&str, &str, &[&str])] = &[
        ("--shots", "77", &["2k", "0", "abc"]),
        ("--threads", "3", &["-1", "x"]),
        ("--quick", "", &[]),
        ("--full", "1", &["true"]),
        ("--csv", "1", &["yes"]),
        ("--no-cache", "1", &["2"]),
        ("--cache-dir", "/tmp/sweep-test", &[]),
        ("--target-rse", "0.25", &["nan", "inf", "0", "-0.1", "O.1"]),
        ("--min-failures", "30", &["4OO", "-1"]),
        ("--max-shots", "9000", &["x", "0"]),
        ("--fixed", "1", &["on"]),
        (
            "--noise",
            "biased:2",
            &["biased:-1", "gaussian", "schedule"],
        ),
        ("CYCLONE_ENFORCE", "1", &["true"]),
        ("CYCLONE_SIMD", "off", &["sse2", "AVX2"]),
    ];

    #[test]
    fn every_option_parses_or_names_the_malformed_value() {
        assert_eq!(CASES.len(), OPTIONS.len());
        for (opt, &(key, good, bad)) in OPTIONS.iter().zip(CASES) {
            let flag = opt.flag_name();
            assert_eq!(key, if flag.is_empty() { opt.env } else { flag });
            let takes_value = opt.flag.contains(' ');
            // A well-formed value resolves alike through the flag and the
            // variable.
            let by_flag = (!flag.is_empty()).then(|| {
                let list = if takes_value {
                    vec![flag, good]
                } else {
                    vec![flag]
                };
                format!("{:?}", parse(&list, &[]).expect(key))
            });
            if !opt.env.is_empty() {
                let by_env = format!("{:?}", parse(&[], &[(opt.env, good)]).expect(key));
                if let Some(by_flag) = by_flag {
                    assert_eq!(by_flag, by_env, "{key}");
                }
            }
            for value in bad {
                if takes_value {
                    let err = parse(&[flag, value], &[]).unwrap_err();
                    assert!(err.contains(flag) && err.contains(value), "{err}");
                }
                if !opt.env.is_empty() {
                    let err = parse(&[], &[(opt.env, value)]).unwrap_err();
                    assert!(err.contains(opt.env) && err.contains(value), "{err}");
                }
            }
        }
    }

    #[test]
    fn flags_beat_their_variables() {
        let vars = [
            ("CYCLONE_SHOTS", "900"),
            ("CYCLONE_NOISE", "biased:2"),
            ("CYCLONE_CSV", "0"),
        ];
        let ctx = parse(&["--shots", "77", "--noise", "uniform", "--csv"], &vars).unwrap();
        assert_eq!(ctx.config.shots, 77);
        assert_eq!(ctx.noise, NoiseFlag::Uniform);
        assert!(ctx.csv);
        // Without the flags the variables apply; an empty one is unset.
        let ctx = parse(&[], &vars).unwrap();
        assert_eq!(ctx.config.shots, 900);
        assert_eq!(ctx.noise, NoiseFlag::Biased(2.0));
        assert_eq!(
            parse(&[], &[("CYCLONE_SHOTS", " ")]).unwrap().config.shots,
            400
        );
    }

    #[test]
    fn unknown_arguments_are_errors_except_cargo_bench() {
        let err = parse(&["--shot", "50"], &[]).unwrap_err();
        assert!(err.contains("--shot"), "{err}");
        let err = parse(&["--shots"], &[]).unwrap_err();
        assert!(err.contains("--shots") && err.contains("missing"), "{err}");
        assert_eq!(resolve(&["--quick", "--bench"]).config.shots, 50);
    }

    #[test]
    fn full_flag_alone_selects_the_full_catalog() {
        let ctx = resolve(&["--full"]);
        let full = crate::catalog(ctx.full);
        assert!(full.len() > crate::catalog(false).len());
        assert!(full.iter().any(|entry| entry.label == "[[625,25,8]]"));
    }

    #[test]
    fn readme_options_table_matches_the_option_table() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<Vec<&str>> = readme
            .lines()
            .skip_while(|line| !line.starts_with("| flag | env | default | effect |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .map(|line| line.split('|').skip(1).take(3).map(str::trim).collect())
            .collect();
        let cell = |s: &str| {
            if s.is_empty() {
                "—".to_string()
            } else {
                format!("`{s}`")
            }
        };
        let expected: Vec<Vec<String>> = OPTIONS
            .iter()
            .map(|opt| vec![cell(opt.flag), cell(opt.env), cell(opt.default)])
            .collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn flags_override_defaults() {
        let ctx = resolve(&["--shots", "77", "--threads", "3", "--no-cache"]);
        assert_eq!(ctx.config.shots, 77);
        assert_eq!(ctx.config.threads, 3);
        assert!(ctx.cache_dir().is_none());
        assert_eq!(ctx.config.seed, 0xC1C1_0DE5);
        assert!(!ctx.enforce);
    }

    #[test]
    fn quick_flag_sets_ci_shot_count() {
        assert_eq!(resolve(&["--quick"]).config.shots, 50);
    }

    #[test]
    fn cache_dir_flag_redirects_the_cache() {
        let ctx = resolve(&["--cache-dir", "/tmp/sweep-test"]);
        assert_eq!(ctx.cache_dir(), Some(Path::new("/tmp/sweep-test")));
        assert_eq!(
            resolve(&[]).cache_dir(),
            Some(default_sweep_dir().as_path())
        );
    }

    #[test]
    fn malformed_flag_values_fall_back() {
        // Only an empty value falls back (to the default or the variable); a
        // malformed one is an error naming the flag, never a silent default.
        assert_eq!(resolve(&["--shots", ""]).config.shots, 400);
        assert_eq!(resolve(&["--threads", " "]).config.threads, 0);
        let ctx = parse(&["--shots", ""], &[("CYCLONE_SHOTS", "90")]).unwrap();
        assert_eq!(ctx.config.shots, 90);
        for (flag, bad) in [("--shots", "abc"), ("--threads", "x")] {
            let err = parse(&[flag, bad], &[]).unwrap_err();
            assert!(err.contains(flag) && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn default_runs_stay_on_the_fixed_path() {
        // No adaptive flags, no --full → precision target absent, so sweeps are
        // bit-identical to the pre-adaptive engine.
        assert!(resolve(&["--shots", "200"]).sweep.precision.is_none());
    }

    #[test]
    fn malformed_target_rse_defers_to_the_mode_default() {
        // An empty value is unset, never a disable: with --full the adaptive
        // default applies, without it the run stays fixed.
        let ctx = resolve(&["--full", "--target-rse", ""]);
        let target = ctx.sweep.precision.expect("--full samples adaptively");
        assert_eq!(target.target_rse, DEFAULT_TARGET_RSE);
        assert!(resolve(&["--target-rse", ""]).sweep.precision.is_none());
        let ctx = parse(&["--full"], &[("CYCLONE_TARGET_RSE", " ")]).unwrap();
        assert_eq!(
            ctx.sweep.precision.map(|t| t.target_rse),
            Some(DEFAULT_TARGET_RSE)
        );
        // A typo or a non-finite value is an error in either mode: NaN must not
        // reach a stop rule that can never fire.
        for mode in [&["--full"][..], &[]] {
            for bad in ["O.1", "abc", "nan", "inf"] {
                let list = [mode, &["--target-rse", bad][..]].concat();
                let err = parse(&list, &[]).unwrap_err();
                assert!(err.contains("--target-rse") && err.contains(bad), "{err}");
            }
        }
    }

    #[test]
    fn malformed_adaptive_flag_values_keep_earlier_settings() {
        // An empty --min-failures/--max-shots keeps what the variables set; a
        // malformed one is an error rather than a silent discard of them.
        let vars = [
            ("CYCLONE_MIN_FAILURES", "40"),
            ("CYCLONE_MAX_SHOTS", "5000"),
        ];
        let list = [
            "--target-rse",
            "0.2",
            "--min-failures",
            "",
            "--max-shots",
            "",
        ];
        let target = parse(&list, &vars)
            .unwrap()
            .sweep
            .precision
            .expect("adaptive");
        assert_eq!(target.min_failures, 40);
        assert_eq!(target.max_shots, 5000);
        for (flag, bad) in [("--min-failures", "4OO"), ("--max-shots", "x")] {
            let err = parse(&["--target-rse", "0.2", flag, bad], &vars).unwrap_err();
            assert!(err.contains(flag) && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn full_runs_sample_adaptively_by_default() {
        let ctx = resolve(&["--shots", "1000", "--full"]);
        let target = ctx
            .sweep
            .precision
            .expect("--full enables adaptive sampling");
        assert_eq!(target.target_rse, DEFAULT_TARGET_RSE);
        assert_eq!(target.min_failures, DEFAULT_MIN_FAILURES);
        assert_eq!(target.max_shots, 1000 * MAX_SHOTS_FACTOR);
    }

    #[test]
    fn fixed_flag_pins_the_fixed_path_even_in_full_mode() {
        let ctx = resolve(&["--full", "--fixed"]);
        assert!(ctx.full);
        assert!(
            ctx.sweep.precision.is_none(),
            "--fixed must win over the --full default"
        );
        let ctx = resolve(&["--target-rse", "0.2", "--fixed"]);
        assert!(ctx.sweep.precision.is_none());
    }

    #[test]
    fn noise_flag_parses_uniform_and_biased() {
        assert_eq!(NoiseFlag::parse(" uniform "), Some(NoiseFlag::Uniform));
        assert_eq!(NoiseFlag::parse("biased:2.5"), Some(NoiseFlag::Biased(2.5)));
        assert_eq!(NoiseFlag::parse("biased: 0 "), Some(NoiseFlag::Biased(0.0)));
        assert_eq!(NoiseFlag::parse("biased:-1"), None);
        assert_eq!(NoiseFlag::parse("biased:nan"), None);
        assert_eq!(NoiseFlag::parse("biased:"), None);
        assert_eq!(NoiseFlag::parse("gaussian"), None);
    }

    #[test]
    fn noise_flag_threads_the_channel_into_sweep_options() {
        // Default: uniform, no channel on the sweep — bit-identical engine.
        let ctx = resolve(&["--shots", "100"]);
        assert_eq!(ctx.noise, NoiseFlag::Uniform);
        assert!(ctx.sweep.channel.is_none());

        // biased:<ratio> becomes the engine-wide default channel.
        let ctx = resolve(&["--noise", "biased:3"]);
        assert_eq!(ctx.noise, NoiseFlag::Biased(3.0));
        assert_eq!(
            ctx.sweep.channel,
            Some(ChannelSpec::Biased { meas_ratio: 3.0 })
        );

        // A malformed value is an error even after a valid one.
        assert!(parse(&["--noise", "biased:3", "--noise", "bogus"], &[]).is_err());
    }

    #[test]
    fn adaptive_flags_resolve_a_precision_target() {
        let ctx = resolve(&[
            "--shots",
            "400",
            "--target-rse",
            "0.25",
            "--min-failures",
            "30",
            "--max-shots",
            "9000",
        ]);
        let target = ctx
            .sweep
            .precision
            .expect("--target-rse enables adaptive sampling");
        assert_eq!(target.target_rse, 0.25);
        assert_eq!(target.min_failures, 30);
        assert_eq!(target.max_shots, 9000);
    }

    #[test]
    fn table_json_lands_whole_in_a_missing_directory() {
        let dir = std::env::temp_dir()
            .join(format!("cyclone-table-json-{}", std::process::id()))
            .join("nested");
        let _ = std::fs::remove_dir_all(dir.parent().expect("has a parent"));
        let mut table = Table::new(&["code", "ler"]);
        table.row(vec!["[[72,12,6]]".into(), "1e-3".into()]);
        write_table_json(&dir, "figx", "A title", &table).expect("table written");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("directory created")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            ["figx.table.json"],
            "no temp file may be left behind"
        );
        let text = std::fs::read_to_string(dir.join("figx.table.json")).expect("read back");
        assert_eq!(
            text,
            "{\"figure\":\"figx\",\"headers\":[\"code\",\"ler\"],\"rows\":[[\"[[72,12,6]]\",\"1e-3\"]],\"title\":\"A title\"}\n"
        );
        let _ = std::fs::remove_dir_all(dir.parent().expect("has a parent"));
    }
}
