//! The codesigns the evaluation compares, as one enum.
//!
//! A codesign is a (topology, schedule, policy) triple: the grid/mesh/ring
//! baselines pair a `qccd` topology and a `qec` schedule with one of `qccd`'s four
//! policy functions, and the Cyclone codesigns pair the ring with its lockstep
//! rotation ([`CycloneCodesign`]). [`Codesign::compile_profiled`] spells every
//! triple out in one `match`, so adding a codesign to the whole evaluation is one
//! variant plus one match arm (and its label and [`Codesign::ALL`] entry).
//! [`standard_registry`] is a label view over [`Codesign::ALL`].

use crate::codesign::{CycloneCodesign, CycloneConfig};
use qccd::compiler::baseline::compile_baseline;
use qccd::compiler::dynamic::compile_dynamic;
use qccd::compiler::variants::{compile_baseline2, compile_baseline3};
use qccd::compiler::{CompiledRound, IdleExposure};
use qccd::timing::OperationTimes;
use qccd::topology::{alternate_grid, baseline_grid, mesh_junction_network, ring};
use qec::schedule::{max_parallel_schedule, serial_schedule};
use qec::CssCode;

/// Per-trap ion capacity of the paper's baseline grid.
pub(crate) const BASELINE_CAPACITY: usize = 5;

/// One hardware topology + compile policy of the evaluation, instantiated per code
/// at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codesign {
    /// The paper's baseline: a 2D grid of 5-ion traps, greedy cluster mapping, and
    /// static earliest-job-first scheduling of the serial schedule.
    Baseline,
    /// Baseline 2: the grid with stabilizer-batched gate ordering ("muzzle the
    /// shuttle").
    Baseline2,
    /// Baseline 3: the grid with destination-trap-batched gate ordering
    /// ("MoveLess"-style).
    Baseline3,
    /// The dynamic timeslice policy of §III-A on the baseline grid (Fig. 4a / Fig. 6:
    /// releasing whole timeslices onto a grid roadblocks heavily).
    DynamicGrid,
    /// The dynamic timeslice policy on the mesh junction network of §III-C (one data
    /// qubit per trap; waiting concentrates on junctions, Fig. 9).
    DynamicMesh,
    /// The alternate grid (L-junction serpentine) with the static baseline policy
    /// (Fig. 19's third configuration).
    AlternateGrid,
    /// A Cyclone-shaped ring driven by the uncoordinated static baseline policy: the
    /// Fig. 6 confusion matrix's "circle hardware + static software" cell, worse than
    /// the grid because every shuttle goes the long way around and serializes.
    RingStatic,
    /// Base Cyclone: one ancilla per trap, tight capacity.
    Cyclone,
    /// Condensed Cyclone with 4 traps (§IV-A: fewer traps, denser chains).
    CycloneX4,
    /// Condensed Cyclone with 16 traps.
    CycloneX16,
}

impl Codesign {
    /// Every codesign, in label order.
    pub const ALL: [Codesign; 10] = [
        Codesign::Baseline,
        Codesign::Baseline2,
        Codesign::Baseline3,
        Codesign::DynamicGrid,
        Codesign::DynamicMesh,
        Codesign::AlternateGrid,
        Codesign::RingStatic,
        Codesign::Cyclone,
        Codesign::CycloneX4,
        Codesign::CycloneX16,
    ];

    /// Stable label, e.g. `"baseline"` or `"dynamic-mesh"`.
    pub fn name(self) -> &'static str {
        match self {
            Codesign::Baseline => "baseline",
            Codesign::Baseline2 => "baseline2",
            Codesign::Baseline3 => "baseline3",
            Codesign::DynamicGrid => "dynamic-grid",
            Codesign::DynamicMesh => "dynamic-mesh",
            Codesign::AlternateGrid => "alternate-grid",
            Codesign::RingStatic => "ring-static",
            Codesign::Cyclone => "cyclone",
            Codesign::CycloneX4 => "cyclone-x4",
            Codesign::CycloneX16 => "cyclone-x16",
        }
    }

    /// Compiles one syndrome-extraction round of `code` under `times` on the
    /// topology and schedule this codesign prescribes, and returns the round with
    /// its per-qubit [`IdleExposure`]. The exposure is always `Some`; the `Option`
    /// stays for callers that pair [`Codesign::compile`] with `None`.
    pub fn compile_profiled(
        self,
        code: &CssCode,
        times: &OperationTimes,
    ) -> (CompiledRound, Option<IdleExposure>) {
        let n = code.num_qubits();
        let cap = BASELINE_CAPACITY;
        let (round, exposure) = match self {
            Codesign::Baseline => {
                compile_baseline(code, &baseline_grid(n, cap), times, &serial_schedule(code))
            }
            Codesign::Baseline2 => {
                compile_baseline2(code, &baseline_grid(n, cap), times, &serial_schedule(code))
            }
            Codesign::Baseline3 => {
                compile_baseline3(code, &baseline_grid(n, cap), times, &serial_schedule(code))
            }
            Codesign::DynamicGrid => compile_dynamic(
                code,
                &baseline_grid(n, cap),
                times,
                &max_parallel_schedule(code),
            ),
            Codesign::DynamicMesh => compile_dynamic(
                code,
                &mesh_junction_network(n, cap),
                times,
                &max_parallel_schedule(code),
            ),
            Codesign::AlternateGrid => {
                compile_baseline(code, &alternate_grid(n, cap), times, &serial_schedule(code))
            }
            Codesign::RingStatic => {
                let a = code.num_x_stabilizers().max(code.num_z_stabilizers());
                let topology = ring(a, n.div_ceil(a) + 2);
                compile_baseline(code, &topology, times, &serial_schedule(code))
            }
            Codesign::Cyclone => CycloneCodesign::new(code, CycloneConfig::base()).compile(times),
            Codesign::CycloneX4 => {
                CycloneCodesign::new(code, CycloneConfig::with_traps(4)).compile(times)
            }
            Codesign::CycloneX16 => {
                CycloneCodesign::new(code, CycloneConfig::with_traps(16)).compile(times)
            }
        };
        (round, Some(exposure))
    }

    /// [`Codesign::compile_profiled`] without the idle profile.
    pub fn compile(self, code: &CssCode, times: &OperationTimes) -> CompiledRound {
        self.compile_profiled(code, times).0
    }
}

/// A label view over [`Codesign::ALL`], for callers that name codesigns by string.
#[derive(Debug, Clone, Copy)]
pub struct StandardRegistry;

/// The label view over every codesign the evaluation compares. Labels, in order:
/// `baseline`, `baseline2`, `baseline3`, `dynamic-grid`, `dynamic-mesh`,
/// `alternate-grid`, `ring-static`, `cyclone`, `cyclone-x4`, `cyclone-x16`.
pub fn standard_registry() -> StandardRegistry {
    StandardRegistry
}

impl StandardRegistry {
    /// The codesign labelled `label`.
    pub fn get(self, label: &str) -> Option<Codesign> {
        self.iter().find(|d| d.name() == label)
    }

    /// Compiles one round of `code` with the codesign labelled `label`.
    ///
    /// # Panics
    ///
    /// Panics, naming the label, if no codesign has it.
    pub fn compile(self, label: &str, code: &CssCode, times: &OperationTimes) -> CompiledRound {
        self.get(label)
            .unwrap_or_else(|| panic!("codesign `{label}` not registered"))
            .compile(code, times)
    }

    /// Every label, in [`Codesign::ALL`] order.
    pub fn labels(self) -> Vec<&'static str> {
        self.iter().map(Codesign::name).collect()
    }

    /// Every codesign, in [`Codesign::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = Codesign> {
        Codesign::ALL.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec::classical::ClassicalCode;
    use qec::codes::bb_72_12_6;
    use qec::hgp::square_hypergraph_product;
    use std::collections::BTreeSet;

    #[test]
    fn standard_registry_has_all_labels() {
        assert_eq!(
            standard_registry().labels(),
            [
                "baseline",
                "baseline2",
                "baseline3",
                "dynamic-grid",
                "dynamic-mesh",
                "alternate-grid",
                "ring-static",
                "cyclone",
                "cyclone-x4",
                "cyclone-x16",
            ]
        );
    }

    #[test]
    fn registry_lookup_by_label() {
        let registry = standard_registry();
        for design in Codesign::ALL {
            assert_eq!(registry.get(design.name()), Some(design));
        }
        assert_eq!(registry.get("baseline"), Some(Codesign::Baseline));
        assert_eq!(registry.get("dynamic-mesh"), Some(Codesign::DynamicMesh));
        assert_eq!(registry.get("nonexistent"), None);
    }

    #[test]
    fn labels_are_distinct() {
        // The enum is closed, so distinct labels are checked here once rather
        // than on every registration.
        let labels = standard_registry().labels();
        let distinct: BTreeSet<&str> = labels.iter().copied().collect();
        assert_eq!(distinct.len(), labels.len(), "duplicate codesign label");
    }

    #[test]
    fn variant_compile_matches_free_functions() {
        let code = square_hypergraph_product(&ClassicalCode::repetition(3)).expect("valid");
        let times = OperationTimes::default();
        let topo = baseline_grid(code.num_qubits(), BASELINE_CAPACITY);
        let direct = compile_baseline(&code, &topo, &times, &serial_schedule(&code)).0;
        assert_eq!(direct, Codesign::Baseline.compile(&code, &times));

        let direct_dyn = compile_dynamic(&code, &topo, &times, &max_parallel_schedule(&code)).0;
        assert_eq!(direct_dyn, Codesign::DynamicGrid.compile(&code, &times));
        assert_eq!(
            direct_dyn,
            standard_registry().compile("dynamic-grid", &code, &times)
        );
    }

    #[test]
    fn cyclone_trait_matches_direct_compiler() {
        let code = bb_72_12_6().expect("valid");
        let times = OperationTimes::default();
        let (direct, _) = CycloneCodesign::new(&code, CycloneConfig::base()).compile(&times);
        assert_eq!(direct, Codesign::Cyclone.compile(&code, &times));
        assert_eq!(
            direct,
            standard_registry().compile("cyclone", &code, &times)
        );
    }

    #[test]
    fn condensed_wrapper_sets_trap_count() {
        let code = bb_72_12_6().expect("valid");
        let times = OperationTimes::default();
        for (design, x) in [(Codesign::CycloneX4, 4), (Codesign::CycloneX16, 16)] {
            assert_eq!(design.name(), format!("cyclone-x{x}"));
            let direct = CycloneCodesign::new(&code, CycloneConfig::with_traps(x));
            assert_eq!(direct.num_traps(), x);
            assert_eq!(direct.compile(&times).0, design.compile(&code, &times));
        }
    }

    #[test]
    #[should_panic(expected = "codesign `nonexistent` not registered")]
    fn compile_names_an_unknown_label() {
        let code = square_hypergraph_product(&ClassicalCode::repetition(3)).expect("valid");
        standard_registry().compile("nonexistent", &code, &OperationTimes::default());
    }

    #[test]
    fn every_codesign_profiles_its_round() {
        // Every codesign exports a real profile whose exposures fit inside the
        // round; the horizon is the round's execution time, bit for bit.
        let code = square_hypergraph_product(&ClassicalCode::repetition(3)).expect("valid");
        let times = OperationTimes::default();
        for design in Codesign::ALL {
            let (round, exposure) = design.compile_profiled(&code, &times);
            let exposure = exposure.expect("every codesign profiles its idle exposure");
            let name = design.name();
            assert_eq!(
                exposure.horizon.to_bits(),
                round.execution_time.to_bits(),
                "{name}"
            );
            assert_eq!(exposure.data.len(), code.num_qubits());
            assert_eq!(exposure.x_ancilla.len(), code.num_x_stabilizers());
            assert_eq!(exposure.z_ancilla.len(), code.num_z_stabilizers());
            for &t in exposure
                .data
                .iter()
                .chain(&exposure.x_ancilla)
                .chain(&exposure.z_ancilla)
            {
                assert!(
                    (0.0..=exposure.horizon).contains(&t),
                    "{name}: exposure {t} outside [0, horizon]"
                );
            }
            // Gates must have made at least one qubit busy.
            assert!(
                exposure.data.iter().any(|&t| t < exposure.horizon),
                "{name}: no data qubit was ever busy"
            );
            assert_eq!(round, design.compile(&code, &times), "{name}");
        }
    }
}
