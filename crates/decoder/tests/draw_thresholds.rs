//! The batch sampler's integer-threshold Bernoulli draw
//! (`decoder::memory::bernoulli_threshold`) against the `rand` shim's
//! `gen_bool`, on every data and measurement rate of the channels the three
//! benchmark workloads sample: Fig. 14 (`[[72,12,6]]`, `[[90,8,10]]`),
//! Fig. 15 (`[[100,4,4]]`, `[[225,9,6]]`) and `fig_hetero` (`[[72,12,6]]`
//! under uniform, biased and schedule-derived channels). Each rate is drawn
//! on random 64-bit words and on the words whose 53-bit draw sits at, just
//! below and just above the threshold and at both ends of the range.

use cyclone::experiments::{fig_hetero_spec, ler_comparison_spec, HETERO_DEFAULT_RATIOS};
use cyclone::sweep::ScenarioSpec;
use decoder::memory::bernoulli_threshold;
use noise::{ErrorChannel, HardwareNoiseModel, NoiseParameters};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A generator that returns one fixed word, so `gen_bool` on it is the
/// reference outcome of drawing that word.
struct Word(u64);

impl RngCore for Word {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// Every point's channel, built the way a sweep builds it.
fn channels(spec: &ScenarioSpec) -> Vec<ErrorChannel> {
    spec.points
        .iter()
        .map(|point| {
            let code = &spec.codes[point.code];
            let model = HardwareNoiseModel::new(NoiseParameters::new(point.p), point.latency);
            match &point.channel {
                Some(recipe) => {
                    recipe.instantiate(&model, code.num_qubits(), code.num_stabilizers())
                }
                None => ErrorChannel::uniform(code.num_qubits(), model.effective_error_rate()),
            }
        })
        .collect()
}

#[test]
fn threshold_draws_match_gen_bool_on_every_benchmark_rate() {
    let grid = [1e-4, 2e-4, 5e-4, 1e-3, 2e-3];
    let build = |codes: [Result<qec::CssCode, qec::QecError>; 2]| {
        codes.map(|c| c.expect("catalog code")).to_vec()
    };
    let bb = build([qec::codes::bb_72_12_6(), qec::codes::bb_90_8_10()]);
    let hgp = build([qec::codes::hgp_100(), qec::codes::hgp_225_9_6()]);
    let specs = [
        ler_comparison_spec("fig14_bb_ler", &bb, &grid).0,
        ler_comparison_spec("fig15_hgp_ler", &hgp, &grid).0,
        fig_hetero_spec(&bb[0], 2e-3, &HETERO_DEFAULT_RATIOS).0,
    ];
    let mut rates: Vec<f64> = specs
        .iter()
        .flat_map(channels)
        .flat_map(|c| {
            c.data()
                .iter()
                .chain(c.measurement())
                .copied()
                .collect::<Vec<_>>()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates.dedup();
    assert!(rates.len() > 100, "only {} distinct rates", rates.len());
    let top = (1u64 << 53) - 1;
    let mut rng = StdRng::seed_from_u64(0xD4A3);
    for p in rates {
        let t = bernoulli_threshold(p);
        let edges = [0, 1, top, t.saturating_sub(1), t, (t + 1).min(top)];
        let mut words: Vec<u64> = edges.iter().map(|&k| k << 11).collect();
        for word in &mut words {
            *word |= rng.next_u64() >> 53;
        }
        words.extend((0..64).map(|_| rng.next_u64()));
        for word in words {
            assert_eq!(
                word >> 11 < t,
                Word(word).gen_bool(p),
                "p = {p:e}, word {word:#x}"
            );
        }
    }
}
