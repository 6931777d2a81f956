//! The three figure-shaped workloads and their shot budgets.
//!
//! Each workload is built exactly as its figure binary builds it: the codes,
//! then the `cyclone::experiments::*_spec` declaration, then one `run_sweep`.
//! They were chosen so that every layer carries most of the time in one
//! workload and little in another:
//!
//! * `bb-uniform-fixed` (Fig. 14) — uniform channel, fixed budget: nearly every
//!   lane is a zero syndrome or a BP-converged decode, so the bit-sliced
//!   sampler, the RNG and word-level syndrome extraction dominate; set-up is a
//!   few percent of the wall time.
//! * `hgp-uniform-adaptive` (Fig. 15 as `--full` runs it) — the only workload
//!   with a large set-up (HGP construction plus the 225-qubit grid compile)
//!   and the only one sampled adaptively, where cap-bound points dominate.
//! * `hetero-structured-fixed` (`fig_hetero`) — per-qubit priors, measurement
//!   flips, the weight-1 table, the decode cache and frequent OSD fallbacks,
//!   plus ten profiled compiles.

use bench::runner::{DEFAULT_MIN_FAILURES, DEFAULT_TARGET_RSE, MAX_SHOTS_FACTOR};
use cyclone::experiments::{fig_hetero_spec, ler_comparison_spec, HETERO_DEFAULT_RATIOS};
use cyclone::standard_registry;
use cyclone::sweep::ScenarioSpec;
use decoder::memory::{MemoryConfig, PrecisionTarget};
use qec::codes;
use qec::CssCode;

/// The workspace's default Monte-Carlo seed; the reference file holds the
/// exact `(shots, failures)` of every point at this seed.
pub const DEFAULT_SEED: u64 = 0xC1C1_0DE5;

/// BP iteration cap of every figure run.
pub const BP_ITERATIONS: usize = 30;

/// Physical error rate of the `fig_hetero` scenario (as its binary runs it).
pub const HETERO_P: f64 = 2e-3;

/// Per-point budget of the smoke mode (all workloads).
const SMOKE_SHOTS: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BbUniformFixed,
    HgpUniformAdaptive,
    HeteroStructuredFixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BbUniformFixed,
        Workload::HgpUniformAdaptive,
        Workload::HeteroStructuredFixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BbUniformFixed => "bb-uniform-fixed",
            Workload::HgpUniformAdaptive => "hgp-uniform-adaptive",
            Workload::HeteroStructuredFixed => "hetero-structured-fixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `MemoryConfig::shots`: the fixed budget per point, and the adaptive
    /// workload's reference for its shot cap (`MAX_SHOTS_FACTOR ×` this).
    /// Sized so one set-up plus sweep takes about 1 to 2 s on a 2-core x86-64
    /// host, and a run repeats it many times.
    pub fn shots(self, smoke: bool) -> usize {
        if smoke {
            return SMOKE_SHOTS;
        }
        match self {
            Workload::BbUniformFixed => 100_000,
            Workload::HgpUniformAdaptive => 10_000,
            Workload::HeteroStructuredFixed => 1_000,
        }
    }

    /// The Monte-Carlo configuration of one run at `seed` on `threads` workers.
    pub fn config(self, seed: u64, threads: usize, smoke: bool) -> MemoryConfig {
        MemoryConfig {
            shots: self.shots(smoke),
            bp_iterations: BP_ITERATIONS,
            threads,
            seed,
        }
    }

    /// The adaptive stop rule, with the figure runner's defaults.
    pub fn precision(self, shots: usize) -> Option<PrecisionTarget> {
        (self == Workload::HgpUniformAdaptive).then(|| {
            PrecisionTarget::new(
                DEFAULT_TARGET_RSE,
                DEFAULT_MIN_FAILURES,
                shots * MAX_SHOTS_FACTOR,
            )
        })
    }

    /// Code construction (the `qec` layer).
    pub fn codes(self) -> Vec<CssCode> {
        let built = match self {
            Workload::BbUniformFixed => vec![codes::bb_72_12_6(), codes::bb_90_8_10()],
            Workload::HgpUniformAdaptive => vec![codes::hgp_100(), codes::hgp_225_9_6()],
            Workload::HeteroStructuredFixed => vec![codes::bb_72_12_6()],
        };
        built
            .into_iter()
            .map(|code| code.expect("catalog codes construct"))
            .collect()
    }

    /// The figure's scenario declaration (compiles every codesign and, for
    /// `fig_hetero`, builds the schedule-derived channels).
    pub fn spec(self, codes: &[CssCode]) -> ScenarioSpec {
        match self {
            Workload::BbUniformFixed => {
                ler_comparison_spec("fig14_bb_ler", codes, &bench::error_rate_grid()).0
            }
            Workload::HgpUniformAdaptive => {
                ler_comparison_spec("fig15_hgp_ler", codes, &bench::error_rate_grid()).0
            }
            Workload::HeteroStructuredFixed => {
                fig_hetero_spec(&codes[0], HETERO_P, &HETERO_DEFAULT_RATIOS).0
            }
        }
    }

    /// Registry labels of the codesigns the spec compiles, and whether it
    /// compiles them profiled (per-qubit idle exposure for the schedule channel).
    pub fn codesigns(self) -> (Vec<String>, bool) {
        match self {
            Workload::HeteroStructuredFixed => (
                standard_registry()
                    .labels()
                    .into_iter()
                    .map(str::to_string)
                    .collect(),
                true,
            ),
            _ => (vec!["baseline".to_string(), "cyclone".to_string()], false),
        }
    }
}
