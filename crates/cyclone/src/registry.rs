//! [`Codesign`] impls for the Cyclone compilers and the standard registry of every
//! codesign the evaluation compares.
//!
//! The `qccd` crate defines the trait and the grid/mesh/ring baselines; this module
//! layers the ring-rotation Cyclone codesigns on top and assembles the full
//! [`CodesignRegistry`]. Adding a topology or policy to the whole evaluation is one
//! impl plus one `register` call here.

use crate::codesign::{CycloneCodesign, CycloneConfig};
use qccd::compiler::codesign::qccd_codesigns;
use qccd::compiler::{Codesign, CodesignRegistry, CompiledRound, IdleExposure};
use qccd::timing::OperationTimes;
use qec::CssCode;

/// The Cyclone codesign as a code-independent [`Codesign`]: the ring topology and
/// lockstep rotation schedule are instantiated per code at compile time.
#[derive(Debug, Clone)]
pub struct Cyclone {
    config: CycloneConfig,
    name: String,
}

impl Cyclone {
    /// The base form (one ancilla per trap, tight capacity), labelled `"cyclone"`.
    pub fn base() -> Self {
        Cyclone {
            config: CycloneConfig::base(),
            name: "cyclone".to_string(),
        }
    }

    /// A condensed ("tight") variant with exactly `x` traps, labelled
    /// `"cyclone-x{x}"` (§IV-A / Fig. 13: fewer traps, denser chains).
    pub fn condensed(x: usize) -> Self {
        Cyclone {
            config: CycloneConfig::with_traps(x),
            name: format!("cyclone-x{x}"),
        }
    }

    /// The underlying per-code compiler (exposes trap/ancilla counts and the
    /// closed-form bound beyond what [`Codesign::compile`] returns).
    pub fn instantiate(&self, code: &CssCode) -> CycloneCodesign {
        CycloneCodesign::new(code, self.config)
    }

    /// The configuration this wrapper instantiates per code.
    pub fn config(&self) -> CycloneConfig {
        self.config
    }
}

impl Codesign for Cyclone {
    fn name(&self) -> &str {
        &self.name
    }

    fn compile_profiled(
        &self,
        code: &CssCode,
        times: &OperationTimes,
    ) -> (CompiledRound, Option<IdleExposure>) {
        let (round, exposure) = self.instantiate(code).compile(times);
        (round, Some(exposure))
    }
}

/// Trap counts of the condensed Cyclone variants registered by default. These are
/// code-independent labels; per-code "tight" sweeps (Fig. 13) enumerate their own
/// counts via [`crate::condensed::default_trap_counts`].
pub const CONDENSED_TRAPS: [usize; 2] = [4, 16];

/// The full registry the evaluation compares: the grid/mesh/ring baselines from
/// `qccd` plus base Cyclone and the default condensed variants.
///
/// Labels: `baseline`, `baseline2`, `baseline3`, `dynamic-grid`, `dynamic-mesh`,
/// `alternate-grid`, `ring-static`, `cyclone`, `cyclone-x4`, `cyclone-x16`.
pub fn standard_registry() -> CodesignRegistry {
    let mut registry = CodesignRegistry::new();
    for design in qccd_codesigns() {
        registry.register(design);
    }
    registry.register(Box::new(Cyclone::base()));
    for x in CONDENSED_TRAPS {
        registry.register(Box::new(Cyclone::condensed(x)));
    }
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec::codes::bb_72_12_6;

    #[test]
    fn standard_registry_has_all_labels() {
        let reg = standard_registry();
        for label in [
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
        ] {
            assert!(reg.get(label).is_some(), "missing codesign `{label}`");
        }
        assert_eq!(reg.len(), 10);
    }

    #[test]
    fn cyclone_trait_matches_direct_compiler() {
        let code = bb_72_12_6().expect("valid");
        let times = OperationTimes::default();
        let (direct, _) = CycloneCodesign::new(&code, CycloneConfig::base()).compile(&times);
        let via_trait = standard_registry().compile("cyclone", &code, &times);
        assert_eq!(direct, via_trait);
    }

    #[test]
    fn condensed_wrapper_sets_trap_count() {
        let code = bb_72_12_6().expect("valid");
        let design = Cyclone::condensed(9);
        assert_eq!(design.name(), "cyclone-x9");
        assert_eq!(design.instantiate(&code).num_traps(), 9);
    }
}
