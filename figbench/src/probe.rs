//! Per-layer probes of the traced run.
//!
//! After the traced repetitions, the probes call into each layer again, from
//! outside, on the last repetition's spec and result, with one trace id per
//! operating point:
//!
//! * `qccd` — every codesign compile of the spec, checked against the spec's
//!   latencies;
//! * `noise` — the schedule-derived channel builds and each point's channel;
//! * sampler — `MemoryExperiment` builds (one per code, re-bound per point,
//!   as the sweep does) and a single-threaded replay of each point's exact
//!   shots through `sample_batch_with`, timed per 64-shot batch, with the
//!   `BatchStats` / decode-cache counters; the replayed failures must equal
//!   the sweep's;
//! * persisted decode caches — cold replay, `store_decode_caches`,
//!   `load_decode_caches`, warm replay (structured points; all points when
//!   the workload has none);
//! * decoder — `decode_with_priors_keyed_into` on a seeded corpus of
//!   syndromes the benchmark samples from each point's channel, split by
//!   `DecodeStatus::method`, plus the same BP decodes on the scalar kernel;
//! * sweep cache — a re-run over the warm cache and a re-publish of the file.

use crate::gate::Gate;
use crate::trace::{Open, Tracer};
use crate::workload::{Workload, BP_ITERATIONS, HETERO_P};
use crate::{median, percentile};
use cyclone::standard_registry;
use cyclone::sweep::{run_sweep, ScenarioSpec, SweepOptions, SweepResult};
use cyclone::sweep_cache::merge_files;
use decoder::bp::priors_digest;
use decoder::bposd::{BpOsdDecoder, DecodeMethod};
use decoder::memory::{BatchScratch, BatchStats, MemoryConfig, MemoryExperiment};
use decoder::scratch::DecoderScratch;
use decoder::simd::Simd;
use noise::{ErrorChannel, HardwareNoiseModel, NoiseParameters};
use qccd::compiler::IdleExposure;
use qccd::timing::OperationTimes;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Nonzero sector syndromes sampled per point for the decoder corpus.
const CORPUS_PER_POINT: usize = 48;
/// Shots drawn per point before giving up on filling its corpus.
const CORPUS_MAX_SHOTS: usize = 4096;
/// Timed passes over the corpus; the median pass is reported.
const CORPUS_PASSES: usize = 3;

/// Everything the probes work from.
pub struct Input<'a> {
    pub workload: Workload,
    pub spec: &'a ScenarioSpec,
    pub result: &'a SweepResult,
    pub options: &'a SweepOptions,
    /// Directory the probes may write into (persisted caches, cache copies).
    pub work_dir: &'a Path,
    /// Median untraced `run_sweep` time of this run.
    pub sweep_s: f64,
    pub workers: usize,
}

/// Runs every probe under one root span and returns the per-layer values.
pub fn run(input: &Input<'_>, tracer: &mut Tracer, gate: &mut Gate) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let root = tracer.open("probes", "bench.probes", None);
    let exposures = compile(input, tracer, root, gate, &mut m);
    let channels = channels(input, &exposures, tracer, root, &mut m);
    sampler(input, &channels, tracer, root, gate, &mut m);
    decoder_corpus(input, &channels, tracer, root, &mut m);
    sweep_cache(input, tracer, root, gate, &mut m);
    tracer.close(root);
    m
}

fn model_of(p: f64, latency: f64) -> HardwareNoiseModel {
    HardwareNoiseModel::new(NoiseParameters::new(p), latency)
}

/// `(label, latency, exposure)` of every profiled compile (hetero only).
type Exposures = Vec<(String, f64, Option<IdleExposure>)>;

fn compile(
    input: &Input<'_>,
    tracer: &mut Tracer,
    root: Open,
    gate: &mut Gate,
    m: &mut BTreeMap<&'static str, f64>,
) -> Exposures {
    let spec = input.spec;
    let (labels, profiled) = input.workload.codesigns();
    let registry = standard_registry();
    let times = OperationTimes::default();
    let mut exposures = Vec::new();
    let mut rounds = 0usize;
    for (ci, code) in spec.codes.iter().enumerate() {
        for label in &labels {
            let design = registry.get(label).expect("spec codesigns are registered");
            let id = format!("{label}/{}", code.descriptor());
            let ((round, exposure), _) =
                tracer.time(id.clone(), "qccd.compile", Some(root), || {
                    if profiled {
                        design.compile_profiled(code, &times)
                    } else {
                        (design.compile(code, &times), None)
                    }
                });
            rounds += 1;
            let prefix = format!("{label}/");
            let mismatched = spec
                .points
                .iter()
                .filter(|p| p.code == ci && p.id.starts_with(&prefix))
                .filter(|p| p.latency.to_bits() != round.execution_time.to_bits())
                .map(|p| {
                    format!(
                        "{} latency {} != compiled {}",
                        p.id, p.latency, round.execution_time
                    )
                })
                .collect();
            gate.record(&format!("compile {id}"), mismatched);
            if profiled {
                exposures.push((label.clone(), round.execution_time, exposure));
            }
        }
    }
    m.insert("qccd.compile_s", tracer.total("qccd.compile"));
    m.insert("qccd.rounds", rounds as f64);
    exposures
}

/// Builds every point's effective channel (and, for `fig_hetero`, the
/// schedule-derived channels from the profiled compiles).
fn channels(
    input: &Input<'_>,
    exposures: &Exposures,
    tracer: &mut Tracer,
    root: Open,
    m: &mut BTreeMap<&'static str, f64>,
) -> Vec<ErrorChannel> {
    let spec = input.spec;
    for (label, latency, exposure) in exposures {
        let code = &spec.codes[0];
        let exposure = exposure.clone().unwrap_or_else(|| {
            IdleExposure::uniform(
                *latency,
                code.num_qubits(),
                code.num_x_stabilizers(),
                code.num_z_stabilizers(),
            )
        });
        let model = model_of(HETERO_P, *latency);
        let measurement = exposure.measurement_order();
        tracer.time(
            format!("{label}/schedule"),
            "noise.channel",
            Some(root),
            || ErrorChannel::from_schedule(&model, &exposure.data, &measurement),
        );
    }
    let channels = spec
        .points
        .iter()
        .map(|point| {
            let code = &spec.codes[point.code];
            let model = model_of(point.p, point.latency);
            let recipe = point.channel.as_ref().or(input.options.channel.as_ref());
            tracer
                .time(
                    point.id.clone(),
                    "noise.channel",
                    Some(root),
                    || match recipe {
                        Some(recipe) => {
                            recipe.instantiate(&model, code.num_qubits(), code.num_stabilizers())
                        }
                        None => {
                            ErrorChannel::uniform(code.num_qubits(), model.effective_error_rate())
                        }
                    },
                )
                .0
        })
        .collect();
    m.insert("noise.channel_s", tracer.total("noise.channel"));
    channels
}

/// Samples `shots` shots from shot 0 in 64-shot batches (the Monte-Carlo run's chunking),
/// appending each batch's duration in microseconds; returns the failures.
fn replay(
    exp: &MemoryExperiment<'_>,
    config: &MemoryConfig,
    shots: usize,
    batch: &mut BatchScratch,
    batch_us: &mut Vec<f64>,
) -> usize {
    let mut failures = 0;
    let mut start = 0;
    while start < shots {
        let count = 64.min(shots - start);
        let t = Instant::now();
        let mask = exp.sample_batch_with(config, start, count, batch);
        batch_us.push(t.elapsed().as_secs_f64() * 1e6);
        failures += mask.count_ones() as usize;
        start += count;
    }
    failures
}

fn sampler(
    input: &Input<'_>,
    channels: &[ErrorChannel],
    tracer: &mut Tracer,
    root: Open,
    gate: &mut Gate,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let spec = input.spec;
    let config = &input.options.config;
    let structured: Vec<bool> = channels
        .iter()
        .map(|c| c.uniform_rate().is_none())
        .collect();
    let persist_all = !structured.contains(&true);
    let persist_dir = input.work_dir.join("decode-caches");
    let mut exps: Vec<Option<MemoryExperiment<'_>>> = spec.codes.iter().map(|_| None).collect();
    let mut batch_us = Vec::new();
    let mut sink = Vec::new();
    let mut stats = BatchStats::default();
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    let (mut shots_total, mut replay_s) = (0usize, 0.0);
    let (mut cold_s, mut warm_s, mut store_s, mut load_s) = (0.0, 0.0, 0.0, 0.0);
    let mut point_s = Vec::with_capacity(spec.points.len());
    for (i, (point, outcome)) in spec.points.iter().zip(&input.result.points).enumerate() {
        let code = &spec.codes[point.code];
        let model = model_of(point.p, point.latency);
        let mut build_s = 0.0;
        if exps[point.code].is_none() {
            let (exp, secs) = tracer.time(code.descriptor(), "sampler.build", Some(root), || {
                MemoryExperiment::new(code, model, BP_ITERATIONS)
            });
            exps[point.code] = Some(exp);
            build_s += secs;
        }
        let exp = exps[point.code].as_mut().expect("built above");
        let channel = structured[i].then(|| channels[i].clone());
        build_s += tracer
            .time(point.id.clone(), "sampler.build", Some(root), || {
                exp.set_model(model);
                if let Some(channel) = channel {
                    exp.set_channel(channel);
                }
            })
            .1;
        let shots = outcome.ler.shots;
        let mut batch = BatchScratch::new();
        let (failures, secs) = tracer.time(point.id.clone(), "sampler.replay", Some(root), || {
            replay(exp, config, shots, &mut batch, &mut batch_us)
        });
        gate.record(
            &format!("replay {}", point.id),
            (failures != outcome.ler.failures)
                .then(|| {
                    format!(
                        "replayed {failures} failures, sweep {}",
                        outcome.ler.failures
                    )
                })
                .into_iter()
                .collect(),
        );
        let s = batch.stats();
        stats.active_lanes += s.active_lanes;
        stats.weight1_hits += s.weight1_hits;
        stats.osd_fallbacks += s.osd_fallbacks;
        let (h, mi) = batch.cache_stats();
        hits += h;
        misses += mi;
        evictions += batch.cache_evictions();
        shots_total += shots;
        replay_s += secs;
        point_s.push(build_s + secs);

        if structured[i] || persist_all {
            let (stored, secs_store) =
                tracer.time(point.id.clone(), "persist.store", Some(root), || {
                    exp.store_decode_caches(&persist_dir, &batch)
                });
            let mut warm = BatchScratch::new();
            let (_, secs_load) = tracer.time(point.id.clone(), "persist.load", Some(root), || {
                exp.load_decode_caches(&persist_dir, &mut warm)
            });
            let (warm_failures, secs_warm) =
                tracer.time(point.id.clone(), "sampler.warm_replay", Some(root), || {
                    replay(exp, config, shots, &mut warm, &mut sink)
                });
            sink.clear();
            let mut v = Vec::new();
            if let Err(err) = stored {
                v.push(format!("store_decode_caches failed: {err}"));
            }
            if warm_failures != failures {
                v.push(format!(
                    "warm replay {warm_failures} failures, cold {failures}"
                ));
            }
            gate.record(&format!("persist {}", point.id), v);
            cold_s += secs;
            warm_s += secs_warm;
            store_s += secs_store;
            load_s += secs_load;
        }
    }
    let active = stats.active_lanes.max(1) as f64;
    let point_sum: f64 = point_s.iter().sum();
    m.insert("sampler.build_s", tracer.total("sampler.build"));
    m.insert("sampler.shots_per_s", shots_total as f64 / replay_s);
    m.insert("sampler.batch_p50_us", percentile(&mut batch_us, 0.50));
    m.insert("sampler.batch_p99_us", percentile(&mut batch_us, 0.99));
    m.insert(
        "sampler.active_frac",
        stats.active_lanes as f64 / (2 * shots_total) as f64,
    );
    m.insert("w1.hit_frac", stats.weight1_hits as f64 / active);
    m.insert("osd.fallback_frac", stats.osd_fallbacks as f64 / active);
    m.insert(
        "cache.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.insert("cache.evictions", evictions as f64);
    m.insert("persist.store_s", store_s);
    m.insert("persist.load_s", load_s);
    m.insert("persist.bytes", dir_bytes(&persist_dir) as f64);
    m.insert("persist.warm_speedup", cold_s / warm_s);
    m.insert(
        "sweep.pool_efficiency",
        point_sum / (input.workers as f64 * input.sweep_s),
    );
    m.insert(
        "sweep.max_point_frac",
        point_s.iter().copied().fold(0.0, f64::max) / point_sum,
    );
}

/// Total size of the regular files directly inside `dir` (0 when absent).
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|md| md.is_file())
                .map(|md| md.len())
                .sum()
        })
        .unwrap_or(0)
}

/// SplitMix64: the benchmark's own generator for the decoder corpus, so the
/// corpus depends only on the workload seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The sector decoders of one code: index 0 corrects X errors (checks of
/// `Hz`), index 1 corrects Z errors (checks of `Hx`).
struct CodeDecoders {
    dispatched: [BpOsdDecoder; 2],
    scalar: [BpOsdDecoder; 2],
    scratch: [DecoderScratch; 2],
    scalar_scratch: [DecoderScratch; 2],
}

/// Samples up to [`CORPUS_PER_POINT`] nonzero sector syndromes from
/// `channel`: depolarizing data errors (X, Y, Z each a third of the rate),
/// then measurement flips on the extracted syndrome bits.
fn sample_corpus(
    code: &qec::CssCode,
    channel: &ErrorChannel,
    decoders: &CodeDecoders,
    rng: &mut SplitMix,
) -> Vec<(usize, Vec<bool>)> {
    let n = code.num_qubits();
    let split = code.num_x_stabilizers();
    let meas = channel.measurement();
    // The X-sector decoder reads the Z checks (tail of the layout), and the
    // Z-sector decoder the X checks (head).
    let flips: [&[f64]; 2] = if meas.is_empty() {
        [&[], &[]]
    } else {
        [&meas[split..], &meas[..split]]
    };
    let mut errors = [vec![false; n], vec![false; n]];
    let mut corpus = Vec::new();
    let mut syndrome = Vec::new();
    for _ in 0..CORPUS_MAX_SHOTS {
        if corpus.len() >= CORPUS_PER_POINT {
            break;
        }
        for e in &mut errors {
            e.fill(false);
        }
        for (q, &p) in channel.data().iter().enumerate() {
            if rng.unit() < p {
                match rng.next() % 3 {
                    0 => errors[0][q] = true,
                    1 => errors[1][q] = true,
                    _ => {
                        errors[0][q] = true;
                        errors[1][q] = true;
                    }
                }
            }
        }
        for sector in 0..2 {
            decoders.dispatched[sector]
                .check_matrix()
                .syndrome_into(&errors[sector], &mut syndrome);
            for (bit, &p) in syndrome.iter_mut().zip(flips[sector]) {
                if rng.unit() < p {
                    *bit = !*bit;
                }
            }
            if syndrome.contains(&true) {
                corpus.push((sector, syndrome.clone()));
            }
        }
    }
    corpus
}

fn decoder_corpus(
    input: &Input<'_>,
    channels: &[ErrorChannel],
    tracer: &mut Tracer,
    root: Open,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let spec = input.spec;
    let mut decoders: Vec<CodeDecoders> = spec
        .codes
        .iter()
        .map(|code| {
            let x = BpOsdDecoder::new(code.hz(), BP_ITERATIONS);
            let z = BpOsdDecoder::new(code.hx(), BP_ITERATIONS);
            CodeDecoders {
                scalar: [
                    x.clone().with_simd(Simd::scalar()),
                    z.clone().with_simd(Simd::scalar()),
                ],
                dispatched: [x, z],
                scratch: Default::default(),
                scalar_scratch: Default::default(),
            }
        })
        .collect();
    // Per pass: (BP seconds, OSD seconds, scalar-BP seconds).
    let mut pass_s = [[0.0f64; 3]; CORPUS_PASSES];
    let (mut bp_n, mut osd_n, mut iterations) = (0usize, 0usize, 0usize);
    for (i, (point, channel)) in spec.points.iter().zip(channels).enumerate() {
        let code = &spec.codes[point.code];
        let dec = &mut decoders[point.code];
        let mut rng = SplitMix(
            input.options.config.seed ^ (i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let (corpus, _) = tracer.time(point.id.clone(), "bench.corpus", Some(root), || {
            sample_corpus(code, channel, dec, &mut rng)
        });
        let priors: Vec<f64> = channel
            .data()
            .iter()
            .map(|&p| p.clamp(1e-9, 0.45))
            .collect();
        let key = priors_digest(&priors);
        let mut methods = Vec::with_capacity(corpus.len());
        let span = tracer.open(point.id.clone(), "decoder.decode", Some(root));
        for (pass, acc) in pass_s.iter_mut().enumerate() {
            for (sector, syndrome) in &corpus {
                let t = Instant::now();
                let status = dec.dispatched[*sector].decode_with_priors_keyed_into(
                    syndrome,
                    &priors,
                    key,
                    &mut dec.scratch[*sector],
                );
                let secs = t.elapsed().as_secs_f64();
                let slot = usize::from(status.method == DecodeMethod::OrderedStatistics);
                acc[slot] += secs;
                if pass == 0 {
                    methods.push(status.method);
                    iterations += status.iterations;
                    match status.method {
                        DecodeMethod::BeliefPropagation => bp_n += 1,
                        DecodeMethod::OrderedStatistics => osd_n += 1,
                    }
                }
            }
        }
        tracer.close(span);
        let span = tracer.open(point.id.clone(), "decoder.scalar_decode", Some(root));
        for acc in &mut pass_s {
            for ((sector, syndrome), method) in corpus.iter().zip(&methods) {
                if *method != DecodeMethod::BeliefPropagation {
                    continue;
                }
                let t = Instant::now();
                dec.scalar[*sector].decode_with_priors_keyed_into(
                    syndrome,
                    &priors,
                    key,
                    &mut dec.scalar_scratch[*sector],
                );
                acc[2] += t.elapsed().as_secs_f64();
            }
        }
        tracer.close(span);
    }
    let per_us = |slot: usize, n: usize| {
        if n == 0 {
            return 0.0;
        }
        let mut per_pass: Vec<f64> = pass_s.iter().map(|p| p[slot] / n as f64 * 1e6).collect();
        median(&mut per_pass)
    };
    let decodes = (bp_n + osd_n).max(1) as f64;
    m.insert("bp.decode_us", per_us(0, bp_n));
    m.insert("osd.decode_us", per_us(1, osd_n));
    m.insert("bp.scalar_decode_us", per_us(2, bp_n));
    m.insert("bp.converged_frac", bp_n as f64 / decodes);
    m.insert("bp.iterations_mean", iterations as f64 / decodes);
}

fn sweep_cache(
    input: &Input<'_>,
    tracer: &mut Tracer,
    root: Open,
    gate: &mut Gate,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let spec = input.spec;
    let file_name = format!("{}.json", spec.figure);
    let cache_file = input
        .options
        .cache_dir
        .as_ref()
        .expect("the figure runs cache-backed")
        .join(&file_name);
    let (warm, hit_s) = tracer.time("sweep", "sweep.cache_hit_run", Some(root), || {
        run_sweep(spec, input.options)
    });
    let mut v = Vec::new();
    if warm.cache_hits != spec.points.len() {
        v.push(format!(
            "{} of {} points hit the warm cache",
            warm.cache_hits,
            spec.points.len()
        ));
    }
    if warm.estimates() != input.result.estimates() {
        v.push("warm-cache estimates differ from the computed ones".to_string());
    }
    gate.record("sweep cache re-run", v);
    let copy = input.work_dir.join("cache-copy").join(&file_name);
    let (published, store_s) = tracer.time("sweep", "sweep.cache_store", Some(root), || {
        merge_files(&copy, std::slice::from_ref(&cache_file))
    });
    gate.record(
        "sweep cache publish",
        published.err().map(|e| e.to_string()).into_iter().collect(),
    );
    let bytes = std::fs::metadata(&cache_file).map_or(0, |md| md.len());
    m.insert("sweep.cache_hit_run_s", hit_s);
    m.insert("sweep.cache_store_s", store_s);
    m.insert("sweep.cache_bytes", bytes as f64);
}
