//! The scenario sweep engine: declarative figure specifications executed on one
//! shared chunk scheduler, with a JSON result cache.
//!
//! A [`ScenarioSpec`] names a figure and enumerates its Monte-Carlo operating points
//! (`code × physical error rate × round latency`, each with a unique id). The engine
//! ([`run_sweep`]):
//!
//! * executes every point on [`decoder::memory::estimate_points`]' scheduler of
//!   (point, 64-shot chunk) work items — each worker starts the next point and
//!   runs its chunks, and once every point has started, idle workers share the
//!   unfinished points' remaining chunks, so the slowest point never runs alone;
//! * is deterministic at any thread count: every point is evaluated with the same
//!   per-shot RNG streams derived from [`MemoryConfig::seed`] (the workspace's
//!   `0xC1C1_0DE5` convention, shared with `decoder::memory`), so results are
//!   bit-identical whether `--threads` is 1 or 64. The scheduler exploits this:
//!   each shot is drawn once per code to find the uniform-channel points at which
//!   it is error-free (given two or more), and those points skip it;
//! * serializes results to `sweeps/<figure>.json` and reuses them as a cache on
//!   re-runs: a point is recomputed only when its id, operating point, or Monte-Carlo
//!   configuration changed, so quick-mode CI runs and full-shot local runs compose
//!   without poisoning each other. The file format belongs to
//!   [`crate::sweep_cache`], whose one validating reader this engine uses: a
//!   missing file, or one that `sweep-cache verify` rejects, serves no point and
//!   every point is recomputed. Cache files are written atomically (temp file +
//!   rename in the same directory), so a crash or two figure runs sharing a
//!   cache directory can never leave or observe a torn file;
//! * optionally samples **adaptively**: a [`PrecisionTarget`] on the options (or on
//!   an individual point) stops each point at a target relative standard error /
//!   failure count instead of a fixed shot budget, and the cache records the shots
//!   actually spent so a cached point is reused whenever it meets-or-exceeds the
//!   requested precision.

use crate::sweep_cache::{CacheEntry, CacheFile};
use decoder::memory::{estimate_points, LerEstimate, LerPoint, MemoryConfig, PrecisionTarget};
use noise::ChannelSpec;
use qec::CssCode;
use std::path::PathBuf;

/// One Monte-Carlo operating point of a scenario sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Unique id within the spec (cache key and diagnostic label), e.g.
    /// `"cyclone/[[72,12,6]]/p=1e-3"`.
    pub id: String,
    /// Index into [`ScenarioSpec::codes`].
    pub code: usize,
    /// Physical error rate.
    pub p: f64,
    /// Round latency in seconds.
    pub latency: f64,
    /// Per-point precision override: `Some` samples this point adaptively with its
    /// own target, `None` defers to [`SweepOptions::precision`] (and to the fixed
    /// shot budget when that is `None` too).
    pub precision: Option<PrecisionTarget>,
    /// Per-point error-channel override: `Some` samples this point under its own
    /// channel spec, `None` defers to [`SweepOptions::channel`] (and to the
    /// uniform channel when that is `None` too). The effective spec participates
    /// in cache-point identity via [`ChannelSpec::cache_id`].
    pub channel: Option<ChannelSpec>,
}

/// A declarative scenario sweep: the codes of one figure and every operating point
/// to estimate.
#[derive(Debug, Default)]
pub struct ScenarioSpec {
    /// Figure name; the cache file is `sweeps/<figure>.json`.
    pub figure: String,
    /// The codes referenced by the points.
    pub codes: Vec<CssCode>,
    /// The operating points, in output order.
    pub points: Vec<OperatingPoint>,
}

impl ScenarioSpec {
    /// An empty spec for the given figure.
    pub fn new(figure: impl Into<String>) -> Self {
        ScenarioSpec {
            figure: figure.into(),
            codes: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Adds a code and returns its index for use in [`ScenarioSpec::point`].
    pub fn code(&mut self, code: CssCode) -> usize {
        self.codes.push(code);
        self.codes.len() - 1
    }

    /// Adds one operating point (sampled per [`SweepOptions::precision`] under the
    /// sweep's default channel).
    ///
    /// # Panics
    ///
    /// Panics if `code` is out of range or the id duplicates an earlier point's.
    pub fn point(&mut self, id: impl Into<String>, code: usize, p: f64, latency: f64) -> &mut Self {
        self.push_point(id.into(), code, p, latency, None, None)
    }

    /// Adds one operating point with its own [`PrecisionTarget`], overriding the
    /// sweep-level default for just this point.
    ///
    /// # Panics
    ///
    /// Panics if `code` is out of range or the id duplicates an earlier point's.
    pub fn point_precise(
        &mut self,
        id: impl Into<String>,
        code: usize,
        p: f64,
        latency: f64,
        target: PrecisionTarget,
    ) -> &mut Self {
        self.push_point(id.into(), code, p, latency, Some(target), None)
    }

    /// Adds one operating point with its own [`ChannelSpec`], overriding the
    /// sweep-level default channel for just this point.
    ///
    /// # Panics
    ///
    /// Panics if `code` is out of range or the id duplicates an earlier point's.
    pub fn point_channel(
        &mut self,
        id: impl Into<String>,
        code: usize,
        p: f64,
        latency: f64,
        channel: ChannelSpec,
    ) -> &mut Self {
        self.push_point(id.into(), code, p, latency, None, Some(channel))
    }

    fn push_point(
        &mut self,
        id: String,
        code: usize,
        p: f64,
        latency: f64,
        precision: Option<PrecisionTarget>,
        channel: Option<ChannelSpec>,
    ) -> &mut Self {
        assert!(code < self.codes.len(), "code index {code} out of range");
        assert!(
            self.points.iter().all(|pt| pt.id != id),
            "duplicate point id `{id}`"
        );
        self.points.push(OperatingPoint {
            id,
            code,
            p,
            latency,
            precision,
            channel,
        });
        self
    }
}

/// How [`run_sweep`] executes a spec.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Monte-Carlo configuration applied to every point (`threads` sizes the
    /// scheduler's worker pool; the estimate itself is thread-count invariant).
    /// `config.shots` is the fixed budget of points without a precision target.
    pub config: MemoryConfig,
    /// Cache directory (`sweeps/` by convention). `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Default precision target: `Some` switches every point (without its own
    /// [`OperatingPoint::precision`] override) to adaptive stop-at-precision
    /// sampling; `None` keeps the fixed `config.shots` budget, bit-identical to the
    /// engine before adaptive sampling existed.
    pub precision: Option<PrecisionTarget>,
    /// Default error channel: `Some` samples every point (without its own
    /// [`OperatingPoint::channel`] override) under this spec; `None` keeps the
    /// uniform channel, bit-identical to the engine before channels existed.
    pub channel: Option<ChannelSpec>,
    /// Checkpoint granularity: with `checkpoint = k > 0` the cache file is
    /// rewritten whenever another `k` freshly computed points have finished,
    /// so a killed run loses only the points in flight and those finished
    /// since. `0` (the default) keeps the single final write. Checkpointing
    /// never changes estimates — only how often the same entries are published.
    pub checkpoint: usize,
}

impl SweepOptions {
    /// Runs entirely in memory — no cache reads or writes (the default for unit
    /// tests and library callers).
    pub fn ephemeral(config: MemoryConfig) -> Self {
        SweepOptions {
            config,
            cache_dir: None,
            precision: None,
            channel: None,
            checkpoint: 0,
        }
    }

    /// Reads and writes `<dir>/<figure>.json` around the run.
    pub fn cached(config: MemoryConfig, dir: impl Into<PathBuf>) -> Self {
        SweepOptions {
            cache_dir: Some(dir.into()),
            ..SweepOptions::ephemeral(config)
        }
    }

    /// Switches the sweep to adaptive sampling with `target` as the default
    /// per-point precision (builder style).
    pub fn with_precision(mut self, target: PrecisionTarget) -> Self {
        self.precision = Some(target);
        self
    }

    /// Samples every point (without its own override) under `channel`
    /// (builder style).
    pub fn with_channel(mut self, channel: ChannelSpec) -> Self {
        self.channel = Some(channel);
        self
    }

    /// Rewrites the cache file after every `every` freshly computed points
    /// (builder style); `0` restores the single final write.
    pub fn with_checkpoint(mut self, every: usize) -> Self {
        self.checkpoint = every;
        self
    }

    /// The effective sampling target of one spec point (its override, else the
    /// sweep default; `None` = fixed shot budget).
    fn target_for(&self, point: &OperatingPoint) -> Option<PrecisionTarget> {
        point.precision.or(self.precision)
    }

    /// The effective channel spec of one spec point (its override, else the sweep
    /// default; `None` = uniform).
    fn channel_for<'a>(&'a self, point: &'a OperatingPoint) -> Option<&'a ChannelSpec> {
        point.channel.as_ref().or(self.channel.as_ref())
    }

    /// The cache identity of one spec point's effective channel.
    fn channel_id_for(&self, point: &OperatingPoint) -> String {
        self.channel_for(point)
            .map_or_else(|| ChannelSpec::Uniform.cache_id(), ChannelSpec::cache_id)
    }
}

/// One executed operating point.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The spec's point id.
    pub id: String,
    /// Physical error rate of the point.
    pub p: f64,
    /// Round latency of the point, seconds.
    pub latency: f64,
    /// The logical-error-rate estimate.
    pub ler: LerEstimate,
    /// Whether the estimate was served from the cache.
    pub cached: bool,
    /// Always `false`: every point is served from the cache or estimated.
    /// Kept only because the figure benchmark's gate still reads it; it goes
    /// when that benchmark is next revised.
    pub skipped: bool,
}

/// The result of one sweep, points in spec order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The spec's figure name.
    pub figure: String,
    /// One outcome per spec point, in order.
    pub points: Vec<PointOutcome>,
    /// How many points were served from the cache.
    pub cache_hits: usize,
    /// How many points were recomputed.
    pub computed: usize,
}

impl SweepResult {
    /// The estimates alone, in spec order (the shape most figure assemblers want).
    pub fn estimates(&self) -> Vec<LerEstimate> {
        self.points.iter().map(|p| p.ler).collect()
    }

    /// Total Monte-Carlo shots recorded across all points (cached and computed) —
    /// the cost metric adaptive sampling optimizes.
    pub fn total_shots(&self) -> usize {
        self.points.iter().map(|p| p.ler.shots).sum()
    }

    /// The largest relative standard error across all points ([`f64::INFINITY`]
    /// when any point has no positive estimate) — the precision metric adaptive
    /// sampling equalizes.
    pub fn max_relative_std_err(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.ler.relative_std_err())
            .fold(0.0, f64::max)
    }
}

/// Executes a scenario sweep: cache lookup, parallel estimation of the misses on
/// the chunk scheduler (with checkpoints as points finish), cache write-back.
///
/// # Panics
///
/// Panics if the spec references an out-of-range code index (point construction via
/// [`ScenarioSpec::point`] already prevents this).
pub fn run_sweep(spec: &ScenarioSpec, options: &SweepOptions) -> SweepResult {
    for point in &spec.points {
        assert!(
            point.code < spec.codes.len(),
            "point `{}` references code {} but the spec has {}",
            point.id,
            point.code,
            spec.codes.len()
        );
    }

    let cache_path = options
        .cache_dir
        .as_ref()
        .map(|dir| dir.join(format!("{}.json", spec.figure)));
    let identity = CacheFile::new(&spec.figure, &options.config, options.precision.as_ref());
    // A file that does not parse, or belongs to another figure, seed or BP cap,
    // serves nothing.
    let file = cache_path
        .as_deref()
        .and_then(|path| CacheFile::read(path).ok())
        .filter(|file| identity.identity_mismatch(file).is_none());
    let entries: &[CacheEntry] = file.as_ref().map_or(&[], |file| &file.entries);

    // `resolved`: per spec index, (estimate, served-from-cache); `None` until
    // the point is served or estimated. Workers fill the slots without
    // allocating: map inserts on worker threads raised peak RSS ~10%.
    let mut resolved: Vec<Option<(LerEstimate, bool)>> = spec
        .points
        .iter()
        .map(|point| {
            let entry = entries.iter().find(|entry| entry.id == point.id)?;
            reuse(entry, point, options)
                .then(|| (LerEstimate::from_counts(entry.shots, entry.failures), true))
        })
        .collect();

    // Estimate every miss; every `checkpoint`-th point to finish publishes
    // everything resolved so far.
    let misses: Vec<usize> = (0..spec.points.len())
        .filter(|&i| resolved[i].is_none())
        .collect();
    let jobs: Vec<LerPoint<'_>> = misses
        .iter()
        .map(|&i| {
            let point = &spec.points[i];
            LerPoint {
                code: &spec.codes[point.code],
                p: point.p,
                latency: point.latency,
                channel: options.channel_for(point),
                precision: options.target_for(point),
            }
        })
        .collect();
    // Publishing is best-effort: an unwritable cache must not fail the sweep.
    // Entries land in spec order; points not resolved yet are left out.
    let publish = |resolved: &[Option<(LerEstimate, bool)>], what: &str| {
        let Some(path) = cache_path.as_deref() else {
            return;
        };
        let mut file = identity.clone();
        file.entries = spec
            .points
            .iter()
            .zip(resolved)
            .filter_map(|(point, slot)| {
                let (ler, _) = (*slot)?;
                Some(CacheEntry {
                    id: point.id.clone(),
                    p: point.p,
                    latency: point.latency,
                    channel: options.channel_id_for(point),
                    shots: ler.shots,
                    failures: ler.failures,
                })
            })
            .collect();
        if let Err(err) = file.write(path) {
            eprintln!(
                "warning: could not {what} sweep cache {}: {err}",
                path.display()
            );
        }
    };
    let mut finished = 0;
    estimate_points(&jobs, &options.config, |job, est| {
        resolved[misses[job]] = Some((est, false));
        finished += 1;
        if options.checkpoint != 0 && finished % options.checkpoint == 0 {
            publish(&resolved, "checkpoint");
        }
    });

    publish(&resolved, "write");

    let points: Vec<PointOutcome> = spec
        .points
        .iter()
        .zip(resolved)
        .map(|(point, slot)| {
            let (ler, cached) = slot.expect("the scheduler estimates every miss");
            PointOutcome {
                id: point.id.clone(),
                p: point.p,
                latency: point.latency,
                ler,
                cached,
                skipped: false,
            }
        })
        .collect();

    let cache_hits = points.iter().filter(|p| p.cached).count();
    SweepResult {
        figure: spec.figure.clone(),
        computed: points.len() - cache_hits,
        cache_hits,
        points,
    }
}

/// Whether a cached entry may stand in for `point`: the same operating point
/// and channel bit-for-bit, at least one shot, and the *requested* sampling
/// mode — the exact `config.shots` for a fixed budget, and for a precision
/// target any entry that meets-or-exceeds it (adaptive or fixed-run alike).
fn reuse(entry: &CacheEntry, point: &OperatingPoint, options: &SweepOptions) -> bool {
    if entry.p != point.p
        || entry.latency != point.latency
        || entry.channel != options.channel_id_for(point)
        || entry.shots == 0
    {
        return false;
    }
    match options.target_for(point) {
        None => entry.shots == options.config.shots,
        Some(target) => {
            target.met_by(entry.shots, entry.failures) || entry.shots >= target.max_shots
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec::codes::bb_72_12_6;

    fn quick_config() -> MemoryConfig {
        MemoryConfig {
            shots: 60,
            bp_iterations: 12,
            threads: 2,
            seed: 0xC1C1_0DE5,
        }
    }

    fn tiny_spec(figure: &str) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(figure);
        let code = spec.code(bb_72_12_6().expect("valid"));
        spec.point("a", code, 3e-3, 0.0);
        spec.point("b", code, 3e-3, 0.05);
        spec.point("c", code, 8e-3, 0.01);
        spec
    }

    #[test]
    fn sweep_matches_direct_estimates() {
        let spec = tiny_spec("unit-direct");
        let config = quick_config();
        let result = run_sweep(&spec, &SweepOptions::ephemeral(config));
        assert_eq!(result.figure, "unit-direct");
        assert_eq!(result.computed, 3);
        assert_eq!(result.cache_hits, 0);
        for (point, outcome) in spec.points.iter().zip(&result.points) {
            let direct = decoder::memory::logical_error_rate(
                &spec.codes[point.code],
                point.p,
                point.latency,
                &config,
            );
            assert_eq!(
                outcome.ler.failures, direct.failures,
                "{} diverged",
                point.id
            );
            assert_eq!(outcome.ler.ler, direct.ler);
            assert!(!outcome.cached);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate point id")]
    fn spec_rejects_duplicate_ids() {
        let mut spec = ScenarioSpec::new("dup");
        let code = spec.code(bb_72_12_6().expect("valid"));
        spec.point("same", code, 1e-3, 0.0);
        spec.point("same", code, 2e-3, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spec_rejects_bad_code_index() {
        let mut spec = ScenarioSpec::new("bad");
        spec.point("a", 0, 1e-3, 0.0);
    }
}
