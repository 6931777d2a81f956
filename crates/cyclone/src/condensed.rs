//! Condensed ("tight") Cyclone variants: trading trap count for trap density.
//!
//! §IV-A and Fig. 13 of the paper explore Cyclone instances with `x < m/2` traps where
//! the per-trap capacity is the minimum needed to fit the code
//! (`⌈n/x⌉ + ⌈a/x⌉` ions). Fewer traps mean fewer rotation steps (less shuttling) but
//! more ancillas and data per trap, so gates serialize within traps and FM gate times
//! degrade with chain length — producing the sweet spot the paper reports.

use crate::codesign::{CycloneCodesign, CycloneConfig};
use qccd::timing::OperationTimes;
use qec::CssCode;

/// One point of the trap-count / capacity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TrapSweepPoint {
    /// Number of traps `x`.
    pub num_traps: usize,
    /// Tight per-trap ion capacity used for this point.
    pub trap_capacity: usize,
    /// Simulated execution time of one syndrome-extraction round, seconds.
    pub execution_time: f64,
}

/// Sweeps Cyclone over the given trap counts using tight capacities and the default
/// operation times, returning one point per value of `x`.
pub fn trap_capacity_sweep(code: &CssCode, trap_counts: &[usize]) -> Vec<TrapSweepPoint> {
    trap_counts
        .iter()
        .map(|&x| {
            let design = CycloneCodesign::new(code, CycloneConfig::with_traps(x));
            let (round, _) = design.compile(&OperationTimes::default());
            TrapSweepPoint {
                num_traps: design.num_traps(),
                trap_capacity: design.trap_capacity(),
                execution_time: round.execution_time,
            }
        })
        .collect()
}

/// The default sweep of trap counts used for a code: divisors-ish spread between one
/// trap and the base form `a = max(|X|,|Z|)`.
pub fn default_trap_counts(code: &CssCode) -> Vec<usize> {
    let a = code.num_x_stabilizers().max(code.num_z_stabilizers());
    let mut counts = vec![1, 2, 4, 9, 16, 25, 36, 49, 64, 81, 100];
    counts.retain(|&x| x < a);
    counts.push(a);
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Returns the sweep point with the lowest execution time (the "ideal" Cyclone);
/// of a tie, the first.
pub fn best_configuration<'a>(
    points: impl IntoIterator<Item = &'a TrapSweepPoint>,
) -> Option<&'a TrapSweepPoint> {
    let points = points.into_iter();
    points.min_by(|a, b| a.execution_time.total_cmp(&b.execution_time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec::codes::hgp_225_9_6;

    #[test]
    fn sweep_covers_requested_counts() {
        let code = hgp_225_9_6().expect("valid");
        let points = trap_capacity_sweep(&code, &[9, 27, 54, 108]);
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| p.execution_time > 0.0));
    }

    #[test]
    fn single_trap_is_terrible() {
        let code = hgp_225_9_6().expect("valid");
        let points = trap_capacity_sweep(&code, &[1, 108]);
        assert!(
            points[0].execution_time > 10.0 * points[1].execution_time,
            "one giant trap ({:.3}s) must be far slower than the base form ({:.3}s)",
            points[0].execution_time,
            points[1].execution_time
        );
    }

    #[test]
    fn best_configuration_is_minimum() {
        let code = hgp_225_9_6().expect("valid");
        let points = trap_capacity_sweep(&code, &default_trap_counts(&code));
        let best = best_configuration(&points).expect("nonempty sweep");
        assert!(points
            .iter()
            .all(|p| best.execution_time <= p.execution_time));
    }

    #[test]
    fn default_counts_end_at_base_form() {
        let code = hgp_225_9_6().expect("valid");
        let counts = default_trap_counts(&code);
        assert_eq!(*counts.last().unwrap(), 108);
        assert!(counts.contains(&1));
    }
}
