//! The run configuration every bench target shares.
//!
//! A run resolves its [`RunContext`] here: the Monte-Carlo configuration, the
//! sweep options and the cache location. The figure suite
//! ([`crate::figures`]) also writes each table's `*.table.json` through
//! this module.
//!
//! # Configuration
//!
//! Every option is one row of `OPTIONS`: its flag, its default and its parser.
//! The options table in the README lists the same rows with their effects, and
//! a test keeps the two in step. Flags go after `--`, and after the figure
//! names if any (`cargo bench -p bench --bench figures -- fig14_bb_ler --shots
//! 2000`). Every value parses or is an error naming the flag and the value,
//! and so is an unknown argument (except the `--bench` that cargo appends).
//! The one environment variable is `CYCLONE_SIMD`, which the decoder reads
//! when it is built; any other `CYCLONE_*` variable is an error (a retired
//! option or a typo would otherwise change nothing).

use crate::Table;
use cyclone::experiments::HETERO_DEFAULT_RATIOS;
use cyclone::sweep::SweepOptions;
use decoder::cache::atomic_write;
use decoder::memory::{MemoryConfig, PrecisionTarget};
use decoder::simd::Simd;
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

/// The resolved `--noise` channel mode.
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
/// options (pool size + cache location) resolved from the flags.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Monte-Carlo configuration for LER points.
    pub config: MemoryConfig,
    /// Sweep execution options (pass to the `*_with` experiment runners; carries
    /// the resolved precision target in `sweep.precision` when adaptive mode is
    /// active, `None` = fixed shot budget, and the default channel spec in
    /// `sweep.channel` when `--noise biased:<ratio>` is active).
    pub sweep: SweepOptions,
    /// Full code catalog requested (`--full`).
    pub full: bool,
    /// The requested channel mode (`--noise`). `Biased` is already threaded
    /// into [`RunContext::sweep`].
    pub noise: NoiseFlag,
    /// Recorded bench thresholds are hard failures (`--enforce`).
    pub enforce: bool,
}

/// The option values as parsed, before [`RunContext::from_args`] assembles them.
#[derive(Debug, Default)]
struct Settings {
    shots: usize,
    threads: usize,
    full: bool,
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
    /// is a switch.
    flag: &'static str,
    /// The default, parsed before the flags. Empty: unset.
    default: &'static str,
    /// Stores a value (a switch flag stores `"1"`), or says what was expected
    /// instead.
    set: fn(&mut Settings, &str) -> Result<(), &'static str>,
}

impl Opt {
    /// The flag without its placeholder.
    fn name(&self) -> &'static str {
        self.flag.split(' ').next().unwrap_or_default()
    }
}

/// Every run option, in the order of the README options table.
const OPTIONS: &[Opt] = &[
    Opt {
        flag: "--shots N",
        default: "400",
        set: |s, v| positive(v).map(|v| s.shots = v),
    },
    Opt {
        flag: "--threads N",
        default: "0",
        set: |s, v| count(v).map(|v| s.threads = v),
    },
    Opt {
        flag: "--full",
        default: "0",
        set: |s, v| switch(v).map(|v| s.full = v),
    },
    Opt {
        flag: "--no-cache",
        default: "0",
        set: |s, v| switch(v).map(|v| s.no_cache = v),
    },
    Opt {
        flag: "--cache-dir DIR",
        default: "",
        set: |s, v| path(v).map(|v| s.cache_dir = Some(v)),
    },
    Opt {
        flag: "--target-rse X",
        default: "",
        set: |s, v| positive_real(v).map(|v| s.target_rse = Some(v)),
    },
    Opt {
        flag: "--min-failures N",
        default: "100",
        set: |s, v| count(v).map(|v| s.min_failures = v),
    },
    Opt {
        flag: "--max-shots N",
        default: "",
        set: |s, v| positive(v).map(|v| s.max_shots = Some(v)),
    },
    Opt {
        flag: "--fixed",
        default: "0",
        set: |s, v| switch(v).map(|v| s.fixed = v),
    },
    Opt {
        flag: "--noise MODE",
        default: "uniform",
        set: |s, v| {
            let noise = NoiseFlag::parse(v).map(|noise| s.noise = noise);
            noise.ok_or("expected uniform or biased:<ratio>")
        },
    },
    Opt {
        flag: "--enforce",
        default: "0",
        set: |s, v| switch(v).map(|v| s.enforce = v),
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
    if raw.is_empty() {
        return Err("expected a directory");
    }
    Ok(raw.into())
}

/// Stores `raw` through `opt`'s parser, or names the flag and the value.
fn apply(settings: &mut Settings, opt: &Opt, raw: &str) -> Result<(), String> {
    (opt.set)(settings, raw).map_err(|expected| format!("{} {raw:?}: {expected}", opt.name()))
}

/// Checks the environment's variables: `CYCLONE_SIMD`, the one variable a run
/// reads, must parse, and no other `CYCLONE_*` name may be set.
///
/// # Errors
///
/// The first malformed `CYCLONE_SIMD` value or other `CYCLONE_*` name, in the
/// order given.
pub(crate) fn check_environment<'a>(
    vars: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<(), String> {
    for (name, value) in vars {
        if name == "CYCLONE_SIMD" {
            Simd::parse(value).map_err(|expected| format!("{name} {value:?}: {expected}"))?;
        } else if name.starts_with("CYCLONE_") {
            return Err(format!(
                "unknown variable {name}: CYCLONE_SIMD is the only variable; \
                 set run options by flag, after `--`"
            ));
        }
    }
    Ok(())
}

/// Checks the environment, then parses the process arguments with `parse`. A
/// malformed value, an unknown argument or a `CYCLONE_*` variable other than a
/// well-formed `CYCLONE_SIMD` is printed and exits the process with status 2,
/// before anything is built.
pub fn args_or_exit<T>(parse: impl FnOnce(&[String]) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let vars: Vec<(String, String)> = std::env::vars_os()
        .map(|(name, value)| {
            (
                name.to_string_lossy().into(),
                value.to_string_lossy().into(),
            )
        })
        .collect();
    check_environment(
        vars.iter()
            .map(|(name, value)| (name.as_str(), value.as_str())),
    )
    .and_then(|()| parse(&args))
    .unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(2)
    })
}

impl RunContext {
    /// Resolves the context from the process arguments, through
    /// [`args_or_exit`].
    pub fn from_env() -> Self {
        args_or_exit(Self::from_args)
    }

    /// Resolves the context from explicit arguments: defaults, then flags.
    ///
    /// # Errors
    ///
    /// A value its option does not parse, naming the flag and the value; an
    /// unknown argument; a flag missing its value.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut s = Settings::default();
        for opt in OPTIONS.iter().filter(|opt| !opt.default.is_empty()) {
            apply(&mut s, opt, opt.default)?;
        }
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--bench" {
                continue;
            }
            let opt = OPTIONS
                .iter()
                .find(|opt| opt.name() == arg)
                .ok_or_else(|| format!("unknown argument {arg:?}"))?;
            let value = if opt.flag.contains(' ') {
                args.next().ok_or_else(|| format!("{arg}: missing value"))?
            } else {
                "1"
            };
            apply(&mut s, opt, value)?;
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
            full: s.full,
            noise: s.noise,
            enforce: s.enforce,
        })
    }

    /// `fig_hetero`'s measurement-bias ratios: the defaults, then the
    /// `--noise biased:<ratio>` ratio when it is not one of them.
    pub fn hetero_ratios(&self) -> Vec<f64> {
        let mut ratios = HETERO_DEFAULT_RATIOS.to_vec();
        match self.noise {
            NoiseFlag::Biased(extra) if !ratios.contains(&extra) => ratios.push(extra),
            _ => {}
        }
        ratios
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

/// Writes a rendered table as `<dir>/<name>.table.json`, atomically (a killed
/// run leaves the previous file or none, never a torn one).
pub(crate) fn write_table_json(
    dir: &Path,
    name: &str,
    title: &str,
    table: &Table,
) -> std::io::Result<()> {
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

    fn parse(list: &[&str]) -> Result<RunContext, String> {
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        RunContext::from_args(&args)
    }

    fn resolve(list: &[&str]) -> RunContext {
        parse(list).expect("well-formed arguments")
    }

    /// Per option, in `OPTIONS` order: its flag, a well-formed value (empty
    /// for a switch) and values its parser rejects.
    const CASES: &[(&str, &str, &[&str])] = &[
        ("--shots", "77", &["2k", "0", "abc", "-3", "1e3", " 50"]),
        ("--threads", "3", &["-1", "x", "2.5"]),
        ("--full", "", &[]),
        ("--no-cache", "", &[]),
        ("--cache-dir", "/tmp/sweep-test", &[]),
        ("--target-rse", "0.25", &["nan", "inf", "0", "-0.1", "O.1"]),
        ("--min-failures", "30", &["4OO", "-1"]),
        ("--max-shots", "9000", &["x", "0"]),
        ("--fixed", "", &[]),
        (
            "--noise",
            "biased:2",
            &["biased:-1", "gaussian", "schedule"],
        ),
        ("--enforce", "", &[]),
    ];

    #[test]
    fn every_option_parses_or_names_the_malformed_value() {
        assert_eq!(CASES.len(), OPTIONS.len());
        for (opt, &(flag, good, bad)) in OPTIONS.iter().zip(CASES) {
            assert_eq!(flag, opt.name());
            if !opt.flag.contains(' ') {
                assert!(good.is_empty() && bad.is_empty(), "{flag} is a switch");
                resolve(&[flag]);
                continue;
            }
            resolve(&[flag, good]);
            // An empty value is malformed like any other.
            for value in bad.iter().chain(&[""]) {
                let err = parse(&[flag, value]).unwrap_err();
                assert!(err.contains(&format!("{flag} {value:?}")), "{err}");
            }
        }
    }

    #[test]
    fn unknown_arguments_are_errors_except_cargo_bench() {
        for unknown in ["--shot", "--quick", "50"] {
            let err = parse(&[unknown]).unwrap_err();
            assert!(err.contains(&format!("{unknown:?}")), "{err}");
        }
        let err = parse(&["--shots"]).unwrap_err();
        assert!(err.contains("--shots") && err.contains("missing"), "{err}");
        assert_eq!(resolve(&["--shots", "50", "--bench"]).config.shots, 50);
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
            .skip_while(|line| !line.starts_with("| flag | default | effect |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .map(|line| line.split('|').skip(1).take(2).map(str::trim).collect())
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
            .map(|opt| vec![cell(opt.flag), cell(opt.default)])
            .collect();
        assert_eq!(rows, expected);
    }

    #[test]
    fn flags_override_defaults() {
        let ctx = resolve(&[]);
        assert_eq!(ctx.config.seed, 0xC1C1_0DE5);
        assert!(!ctx.enforce);
        // A later flag beats an earlier one.
        let list = ["--shots", "10", "--shots", "77", "--threads", "3"];
        let ctx = resolve(&[&list[..], &["--no-cache", "--enforce"]].concat());
        assert_eq!(ctx.config.shots, 77);
        assert_eq!(ctx.config.threads, 3);
        assert!(ctx.cache_dir().is_none());
        assert!(ctx.enforce);
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
    fn default_runs_stay_on_the_fixed_path() {
        // No adaptive flags, no --full → precision target absent, so sweeps are
        // bit-identical to the pre-adaptive engine.
        assert!(resolve(&["--shots", "200"]).sweep.precision.is_none());
    }

    #[test]
    fn malformed_target_rse_is_an_error_in_either_mode() {
        // A typo, a non-finite or an empty value is an error with or without
        // --full's adaptive default: NaN must not reach a stop rule that can
        // never fire, and an empty value must not silently pick the mode's
        // default.
        for mode in [&["--full"][..], &[]] {
            for bad in ["O.1", "abc", "nan", "inf", ""] {
                let list = [mode, &["--target-rse", bad][..]].concat();
                let err = parse(&list).unwrap_err();
                assert!(err.contains(&format!("--target-rse {bad:?}")), "{err}");
            }
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
        assert!(parse(&["--noise", "biased:3", "--noise", "bogus"]).is_err());
    }

    #[test]
    fn hetero_ratios_add_a_new_noise_ratio_once() {
        assert_eq!(resolve(&[]).hetero_ratios(), HETERO_DEFAULT_RATIOS);
        let ratios = resolve(&["--noise", "biased:4"]).hetero_ratios();
        assert_eq!(ratios, [0.5, 2.0, 8.0, 4.0]);
        let ratios = resolve(&["--noise", "biased:2"]).hetero_ratios();
        assert_eq!(ratios, HETERO_DEFAULT_RATIOS);
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
