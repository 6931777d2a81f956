//! Figure-sweep benchmark: the Fig. 14, Fig. 15 and `fig_hetero` sweeps,
//! measured end to end and, in a separate traced run, layer by layer.
//!
//! ```text
//! figbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! figbench --write-reference
//! ```
//!
//! A run repeats the workload's figure (code construction, the
//! `cyclone::experiments` spec function, then `run_sweep` on `nproc` workers
//! with a fresh sweep-cache directory) until `--seconds` have passed, checks
//! every point of every repetition (see [`gate`]), and prints the metrics one
//! per line with their units, then one JSON result line. `--trace 0` reports
//! the end-to-end metrics (medians over the repetitions, each repetition's
//! times scaled to a reference host speed measured around it, see
//! [`calib`]); `--trace 1`
//! alternates untraced and traced repetitions, runs the per-layer probes (see
//! [`probe`]), writes the spans as JSON lines under `.figbench_out/`, and
//! reports the per-layer metrics. `--smoke` shrinks every budget for the
//! benchmark's own tests; `--write-reference` regenerates `reference.tsv`.

mod calib;
mod gate;
mod probe;
mod trace;
mod workload;

use cyclone::sweep::{run_sweep, ScenarioSpec, SweepOptions, SweepResult};
use decoder::memory::{MemoryConfig, PrecisionTarget};
use decoder::simd::Simd;
use gate::{Expectation, Gate, RefPoint};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{json_string, Open, Tracer};
use workload::{Workload, DEFAULT_SEED};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("wall_s", "s"),
    ("shots_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 30] = [
    ("qec.build_s", "s"),
    ("qccd.compile_s", "s"),
    ("qccd.rounds", "count"),
    ("noise.channel_s", "s"),
    ("sampler.build_s", "s"),
    ("sampler.shots_per_s", "1/s"),
    ("sampler.batch_p50_us", "us"),
    ("sampler.batch_p99_us", "us"),
    ("sampler.active_frac", "fraction"),
    ("w1.hit_frac", "fraction"),
    ("cache.hit_frac", "fraction"),
    ("cache.evictions", "count"),
    ("osd.fallback_frac", "fraction"),
    ("bp.decode_us", "us"),
    ("bp.converged_frac", "fraction"),
    ("bp.iterations_mean", "count"),
    ("osd.decode_us", "us"),
    ("bp.scalar_decode_us", "us"),
    ("sweep.pool_efficiency", "fraction"),
    ("sweep.max_point_frac", "fraction"),
    ("sweep.cache_store_s", "s"),
    ("sweep.cache_hit_run_s", "s"),
    ("sweep.cache_bytes", "bytes"),
    ("persist.load_s", "s"),
    ("persist.store_s", "s"),
    ("persist.bytes", "bytes"),
    ("persist.warm_speedup", "ratio"),
    ("trace.unexplained_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("failed_frac", "fraction"),
];

const USAGE: &str = "usage: figbench --workload <bb-uniform-fixed|hgp-uniform-adaptive|\
hetero-structured-fixed> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       \
figbench --write-reference";

/// Where runs write their temporary sweep caches and trace files.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../.figbench_out")
}

/// Median of `values` (sorted in place); 0 for an empty slice.
pub(crate) fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of `values` (sorted in place).
pub(crate) fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    write_reference: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            smoke: false,
            write_reference: false,
        };
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    out.workload =
                        Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
                }
                "--seed" => {
                    out.seed = value()?.parse().map_err(|_| "--seed takes an integer")?;
                }
                "--seconds" => {
                    out.seconds = value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds takes a non-negative number")?;
                }
                "--trace" => {
                    out.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    };
                }
                "--smoke" => out.smoke = true,
                "--write-reference" => out.write_reference = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if out.workload.is_none() && !out.write_reference {
            return Err("--workload is required".to_string());
        }
        Ok(out)
    }
}

/// The host and build every result was measured on. `CYCLONE_*` variables
/// change the measured program (kernel dispatch, thread count, cache size),
/// so they are recorded, and a run refuses to start when one is set.
struct Host {
    nproc: usize,
    simd: &'static str,
    cyclone_env: Vec<(String, String)>,
}

impl Host {
    fn capture() -> Self {
        let mut cyclone_env: Vec<(String, String)> = std::env::vars_os()
            .filter_map(|(k, v)| {
                let k = k.to_string_lossy().into_owned();
                k.starts_with("CYCLONE_")
                    .then(|| (k, v.to_string_lossy().into_owned()))
            })
            .collect();
        cyclone_env.sort();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: Simd::from_env().isa_name(),
            cyclone_env,
        }
    }

    fn to_json(&self) -> String {
        let env: Vec<String> = self
            .cyclone_env
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        format!(
            "{{\"nproc\": {}, \"simd\": {}, \"rustc\": {}, \"profile\": {}, \"opt_level\": {}, \
             \"target_features\": {}, \"cyclone_env\": {{{}}}}}",
            self.nproc,
            json_string(self.simd),
            json_string(env!("FIGBENCH_RUSTC")),
            json_string(env!("FIGBENCH_PROFILE")),
            json_string(env!("FIGBENCH_OPT_LEVEL")),
            json_string(env!("FIGBENCH_TARGET_FEATURES")),
            env.join(", ")
        )
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One repetition of the figure.
struct Rep {
    codes_s: f64,
    spec_s: f64,
    sweep_s: f64,
    spec: ScenarioSpec,
    result: SweepResult,
    options: SweepOptions,
}

/// The timings of one repetition.
#[derive(Clone, Copy)]
struct RepTimes {
    codes_s: f64,
    setup_s: f64,
    sweep_s: f64,
    wall_s: f64,
    shots_per_s: f64,
}

impl Rep {
    fn times(&self) -> RepTimes {
        let setup_s = self.codes_s + self.spec_s;
        RepTimes {
            codes_s: self.codes_s,
            setup_s,
            sweep_s: self.sweep_s,
            wall_s: setup_s + self.sweep_s,
            shots_per_s: self.result.total_shots() as f64 / self.sweep_s,
        }
    }
}

/// An untraced repetition's timings and the calibration times just before
/// and just after it.
#[derive(Clone, Copy)]
struct Calibrated {
    times: RepTimes,
    before_s: f64,
    after_s: f64,
}

impl Calibrated {
    /// The factor that scales this repetition's times to the reference host.
    fn scale(&self) -> f64 {
        2.0 * calib::REFERENCE_S / (self.before_s + self.after_s)
    }
}

/// Median of one field over repetitions.
fn median_of(reps: &[RepTimes], field: impl Fn(&RepTimes) -> f64) -> f64 {
    median(&mut reps.iter().map(field).collect::<Vec<_>>())
}

/// Times `work`, as a span when a tracer is given.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    id: &str,
    layer: &'static str,
    parent: Option<Open>,
    work: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer {
        Some(t) => t.time(id, layer, parent, work),
        None => {
            let start = Instant::now();
            let out = work();
            (out, start.elapsed().as_secs_f64())
        }
    }
}

struct Runner<'a> {
    workload: Workload,
    config: MemoryConfig,
    precision: Option<PrecisionTarget>,
    smoke: bool,
    reference: &'a BTreeMap<(String, String), RefPoint>,
    tmp: PathBuf,
    reps: usize,
    first: Option<SweepResult>,
    gate: Gate,
}

impl<'a> Runner<'a> {
    fn new(
        workload: Workload,
        seed: u64,
        smoke: bool,
        threads: usize,
        reference: &'a BTreeMap<(String, String), RefPoint>,
    ) -> Self {
        let config = workload.config(seed, threads, smoke);
        Runner {
            workload,
            config,
            precision: workload.precision(config.shots),
            smoke,
            reference,
            tmp: out_dir()
                .join("tmp")
                .join(format!("{}-{}", workload.name(), std::process::id())),
            reps: 0,
            first: None,
            gate: Gate::default(),
        }
    }

    /// Builds the figure and runs its sweep once against a fresh cache
    /// directory, then checks every point.
    fn rep(&mut self, mut tracer: Option<&mut Tracer>) -> Rep {
        let k = self.reps;
        self.reps += 1;
        let w = self.workload;
        let root = tracer
            .as_deref_mut()
            .map(|t| t.open(format!("figure#{k}"), "figure", None));
        let (codes, codes_s) = timed(&mut tracer, "setup", "qec.build", root, || w.codes());
        let (spec, spec_s) = timed(&mut tracer, "setup", "experiments.spec", root, || {
            w.spec(&codes)
        });
        let mut options = SweepOptions::cached(self.config, self.tmp.join(format!("rep{k}")));
        if let Some(target) = self.precision {
            options = options.with_precision(target);
        }
        let (result, sweep_s) = timed(&mut tracer, "sweep", "sweep.run_sweep", root, || {
            run_sweep(&spec, &options)
        });
        if let (Some(t), Some(root)) = (tracer, root) {
            t.close(root);
        }
        let expect = Expectation {
            workload: w,
            seed: self.config.seed,
            budget: self.precision.is_none().then_some(self.config.shots),
            precision: self.precision,
            standard: !self.smoke,
            reference: self.reference,
        };
        self.gate
            .check_sweep(&expect, &spec, &result, self.first.as_ref());
        if self.first.is_none() {
            self.first = Some(result.clone());
        }
        Rep {
            codes_s,
            spec_s,
            sweep_s,
            spec,
            result,
            options,
        }
    }

    /// An untraced repetition followed by a calibration; `before_s` is the
    /// calibration that ran just before it.
    fn calibrated_rep(&mut self, before_s: f64) -> Calibrated {
        let times = self.rep(None).times();
        let after_s = calib::run(self.config.threads);
        Calibrated {
            times,
            before_s,
            after_s,
        }
    }
}

impl Drop for Runner<'_> {
    fn drop(&mut self) {
        // Temporary sweep caches only; a failed removal leaves files inside
        // the ignored output directory.
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// `--trace 0`: repeat until `seconds` have passed, calibrating between
/// repetitions; medians of every timing.
fn run_untraced(runner: &mut Runner<'_>, seconds: f64) -> BTreeMap<&'static str, f64> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut before_s = calib::run(runner.config.threads);
    loop {
        let rep = runner.calibrated_rep(before_s);
        before_s = rep.after_s;
        println!(
            "# rep {}: setup_s {} sweep_s {} shots_per_s {} (wall clock), scale {}",
            reps.len(),
            rep.times.setup_s,
            rep.times.sweep_s,
            rep.times.shots_per_s,
            rep.scale()
        );
        reps.push(rep);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    end_to_end(&reps)
}

/// Medians over the repetitions of their times scaled to the reference host
/// (see [`calib`]). The wall-clock medians are kept as `raw.*`, and the
/// calibration's as `calib_s`, for the text report and the probes.
fn end_to_end(reps: &[Calibrated]) -> BTreeMap<&'static str, f64> {
    let med = |f: &dyn Fn(&Calibrated) -> f64| median(&mut reps.iter().map(f).collect::<Vec<_>>());
    let mut m = BTreeMap::new();
    m.insert("setup_s", med(&|r| r.times.setup_s * r.scale()));
    m.insert("sweep_s", med(&|r| r.times.sweep_s * r.scale()));
    m.insert("wall_s", med(&|r| r.times.wall_s * r.scale()));
    m.insert("shots_per_s", med(&|r| r.times.shots_per_s / r.scale()));
    m.insert("raw.setup_s", med(&|r| r.times.setup_s));
    m.insert("raw.sweep_s", med(&|r| r.times.sweep_s));
    m.insert("raw.wall_s", med(&|r| r.times.wall_s));
    m.insert("raw.shots_per_s", med(&|r| r.times.shots_per_s));
    m.insert("calib_s", med(&|r| 0.5 * (r.before_s + r.after_s)));
    if let Some(rss) = peak_rss_mb() {
        m.insert("peak_rss_mb", rss);
    }
    m
}

/// `--trace 1`: alternate untraced and traced repetitions until `seconds`
/// have passed, then probe every layer on the last traced repetition.
/// Returns the per-layer metrics and the end-to-end ones of the untraced
/// repetitions.
fn run_traced(
    runner: &mut Runner<'_>,
    seconds: f64,
    host: &Host,
) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let last = loop {
        let before_s = calib::run(runner.config.threads);
        untraced.push(runner.calibrated_rep(before_s));
        let rep = runner.rep(Some(&mut tracer));
        traced.push(rep.times());
        if start.elapsed().as_secs_f64() >= seconds {
            break rep;
        }
    };
    let e2e = end_to_end(&untraced);
    let work = runner.tmp.join("probes");
    let input = probe::Input {
        workload: runner.workload,
        spec: &last.spec,
        result: &last.result,
        options: &last.options,
        work_dir: &work,
        sweep_s: e2e["raw.sweep_s"],
        workers: runner.config.worker_count().min(last.spec.points.len()),
    };
    let mut layers = probe::run(&input, &mut tracer, &mut runner.gate);
    layers.insert("qec.build_s", median_of(&traced, |r| r.codes_s));
    let untraced_wall = e2e["raw.wall_s"];
    layers.insert(
        "trace.overhead_frac",
        (median_of(&traced, |r| r.wall_s) - untraced_wall) / untraced_wall,
    );
    // Root spans are the traced figures and the probe phase; their self time
    // is wall time no layer span accounts for.
    let self_times = tracer.self_times();
    let (mut unexplained, mut wall) = (0.0, 0.0);
    for (span, self_s) in tracer.spans().iter().zip(&self_times) {
        if span.parent.is_none() {
            unexplained += self_s;
            wall += span.duration();
        }
    }
    layers.insert("trace.unexplained_frac", unexplained / wall);
    layers.insert("failed_frac", runner.gate.failed_frac());
    let path = out_dir().join(format!(
        "trace-{}-seed{}.jsonl",
        runner.workload.name(),
        runner.config.seed
    ));
    let header = format!(
        "{{\"host\": {}, \"workload\": {}, \"seed\": {}, \"shots\": {}, \"threads\": {}}}",
        host.to_json(),
        json_string(runner.workload.name()),
        runner.config.seed,
        runner.config.shots,
        runner.config.threads
    );
    if let Err(err) = tracer.write_jsonl(&path, &header) {
        runner
            .gate
            .record("trace file", vec![format!("{}: {err}", path.display())]);
    } else {
        println!("# trace: {}", path.display());
    }
    (layers, e2e)
}

/// Prints the wall-clock medians behind the scaled end-to-end metrics.
fn print_raw(e2e: &BTreeMap<&'static str, f64>) {
    let get = |k: &str| e2e.get(k).copied().unwrap_or(f64::NAN);
    println!(
        "# wall clock, not scaled: setup_s {} sweep_s {} wall_s {} shots_per_s {}; \
         calibration {} s (reference {} s)",
        get("raw.setup_s"),
        get("raw.sweep_s"),
        get("raw.wall_s"),
        get("raw.shots_per_s"),
        get("calib_s"),
        calib::REFERENCE_S
    );
}

/// Prints `table`'s metrics one per line and returns them as JSON members; a
/// metric that was not measured, or is not finite, fails the gate.
fn render(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
    gate: &mut Gate,
) -> Vec<String> {
    let mut members = Vec::new();
    for &(name, unit) in table {
        match values.get(name) {
            Some(v) if v.is_finite() => {
                println!("{name} = {v} {unit}");
                members.push(format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_string(name),
                    json_string(unit)
                ));
            }
            other => gate.record(name, vec![format!("not measured ({other:?})")]),
        }
    }
    members
}

fn write_reference(threads: usize) -> std::io::Result<()> {
    let empty = BTreeMap::new();
    let mut text = String::from(
        "# figbench reference: workload, point id, compiled latency (s), shots, failures\n\
         # at the default seed and standard budgets; regenerate with --write-reference.\n",
    );
    for w in Workload::ALL {
        let mut runner = Runner::new(w, DEFAULT_SEED, false, threads, &empty);
        let rep = runner.rep(None);
        text.push_str(&gate::reference_lines(w, &rep.spec, &rep.result));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.tsv");
    std::fs::write(&path, text)?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("figbench: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = Host::capture();
    if !host.cyclone_env.is_empty() {
        let names: Vec<&str> = host.cyclone_env.iter().map(|(k, _)| k.as_str()).collect();
        eprintln!(
            "figbench: refusing to run with {} set: these variables change the measured program",
            names.join(", ")
        );
        std::process::exit(2);
    }
    let threads = host.nproc;
    if args.write_reference {
        if let Err(err) = write_reference(threads) {
            eprintln!("figbench: could not write the reference: {err}");
            std::process::exit(1);
        }
        return;
    }
    let reference = match gate::parse_reference(gate::REFERENCE) {
        Ok(reference) => reference,
        Err(err) => {
            eprintln!("figbench: {err}");
            std::process::exit(1);
        }
    };
    let workload = args.workload.expect("checked by Args::parse");
    let mut runner = Runner::new(workload, args.seed, args.smoke, threads, &reference);
    println!("# host: {}", host.to_json());
    println!(
        "# workload {} seed {} shots/point {} threads {}{}",
        workload.name(),
        args.seed,
        runner.config.shots,
        threads,
        if args.smoke { " (smoke)" } else { "" }
    );
    let members = if args.trace {
        let (layers, e2e) = run_traced(&mut runner, args.seconds, &host);
        // Every metric is printed; the result line carries the per-layer ones.
        render(&END_TO_END, &e2e, &mut runner.gate);
        print_raw(&e2e);
        render(&PER_LAYER, &layers, &mut runner.gate)
    } else {
        let e2e = run_untraced(&mut runner, args.seconds);
        print_raw(&e2e);
        render(&END_TO_END, &e2e, &mut runner.gate)
    };
    println!("# repetitions: {}", runner.reps);
    for msg in &runner.gate.messages {
        println!("# gate violation: {msg}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        runner.gate.failed == 0,
        runner.gate.attempted,
        runner.gate.failed,
        members.join(", ")
    );
}
