//! The correctness gate: every point of every repetition is checked, and each
//! point with a violation counts once toward `failed`.
//!
//! For any seed:
//! * the compiled latency of every point (the simulated QCCD `execution_time`
//!   the paper reports; it does not depend on the seed) equals the reference;
//! * failures never exceed shots, and no point is empty or skipped;
//! * fixed-budget points spend exactly the budget, and adaptive points either
//!   meet the precision target or stop at the cap;
//! * every repetition of a run reproduces the first one bit for bit.
//!
//! At the default seed with the standard budgets, every point's
//! `(shots, failures)` must also equal the reference.

use crate::workload::{Workload, DEFAULT_SEED};
use cyclone::sweep::{ScenarioSpec, SweepResult};
use decoder::memory::PrecisionTarget;
use std::collections::BTreeMap;

/// The reference file kept with the benchmark (tab-separated: workload, point
/// id, latency, shots, failures; `#` starts a comment line).
pub const REFERENCE: &str = include_str!("../reference.tsv");

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefPoint {
    pub latency: f64,
    pub shots: usize,
    pub failures: usize,
}

/// Reference points keyed by `(workload, point id)`.
pub fn parse_reference(text: &str) -> Result<BTreeMap<(String, String), RefPoint>, String> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let bad = || format!("reference line {}: malformed `{line}`", lineno + 1);
        let [workload, id, latency, shots, failures] = fields[..] else {
            return Err(bad());
        };
        let point = RefPoint {
            latency: latency.parse().map_err(|_| bad())?,
            shots: shots.parse().map_err(|_| bad())?,
            failures: failures.parse().map_err(|_| bad())?,
        };
        if out
            .insert((workload.to_string(), id.to_string()), point)
            .is_some()
        {
            return Err(format!("reference line {}: duplicate point", lineno + 1));
        }
    }
    Ok(out)
}

/// Renders one workload's points as reference lines.
pub fn reference_lines(workload: Workload, spec: &ScenarioSpec, result: &SweepResult) -> String {
    spec.points
        .iter()
        .zip(&result.points)
        .map(|(point, outcome)| {
            format!(
                "{}\t{}\t{}\t{}\t{}\n",
                workload.name(),
                point.id,
                point.latency,
                outcome.ler.shots,
                outcome.ler.failures
            )
        })
        .collect()
}

/// What a point is checked against.
pub struct Expectation<'a> {
    pub workload: Workload,
    pub seed: u64,
    /// Fixed budget (`None` for adaptive points).
    pub budget: Option<usize>,
    pub precision: Option<PrecisionTarget>,
    /// Whether the budgets are the standard ones the reference counts hold for.
    pub standard: bool,
    pub reference: &'a BTreeMap<(String, String), RefPoint>,
}

#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: usize,
    pub failed: usize,
    /// The first few violations, for the report.
    pub messages: Vec<String>,
}

impl Gate {
    /// Records one checked item; `violations` empty means it passed.
    pub fn record(&mut self, what: &str, violations: Vec<String>) {
        self.attempted += 1;
        if !violations.is_empty() {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages
                    .push(format!("{what}: {}", violations.join("; ")));
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Checks every point of one repetition (`first` is the run's first
    /// repetition, which later ones must reproduce).
    pub fn check_sweep(
        &mut self,
        expect: &Expectation<'_>,
        spec: &ScenarioSpec,
        result: &SweepResult,
        first: Option<&SweepResult>,
    ) {
        if result.points.len() != spec.points.len() {
            self.record(
                "sweep",
                vec![format!(
                    "{} outcomes for {} points",
                    result.points.len(),
                    spec.points.len()
                )],
            );
            return;
        }
        for (i, (point, outcome)) in spec.points.iter().zip(&result.points).enumerate() {
            let (shots, failures) = (outcome.ler.shots, outcome.ler.failures);
            let mut v = Vec::new();
            if outcome.skipped || shots == 0 {
                v.push("no estimate".to_string());
            }
            if failures > shots {
                v.push(format!("{failures} failures > {shots} shots"));
            }
            if let Some(budget) = expect.budget {
                if shots != budget {
                    v.push(format!("spent {shots} shots, budget {budget}"));
                }
            }
            if let Some(target) = expect.precision {
                if shots > target.max_shots {
                    v.push(format!(
                        "spent {shots} shots past the cap {}",
                        target.max_shots
                    ));
                } else if !target.met_by(shots, failures) && shots != target.max_shots {
                    v.push(format!(
                        "stopped at {shots} shots ({failures} failures) without meeting the target"
                    ));
                }
            }
            let key = (expect.workload.name().to_string(), point.id.clone());
            match expect.reference.get(&key) {
                None => v.push("missing from the reference".to_string()),
                Some(r) => {
                    if r.latency.to_bits() != point.latency.to_bits() {
                        v.push(format!(
                            "latency {} != reference {}",
                            point.latency, r.latency
                        ));
                    }
                    if expect.standard
                        && expect.seed == DEFAULT_SEED
                        && (r.shots, r.failures) != (shots, failures)
                    {
                        v.push(format!(
                            "({shots}, {failures}) != reference ({}, {})",
                            r.shots, r.failures
                        ));
                    }
                }
            }
            if let Some(first) = first {
                let f = &first.points[i].ler;
                if (f.shots, f.failures) != (shots, failures) {
                    v.push(format!(
                        "({shots}, {failures}) differs from the first repetition ({}, {})",
                        f.shots, f.failures
                    ));
                }
            }
            self.record(&point.id, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_file_parses() {
        let reference = parse_reference(REFERENCE).expect("valid reference");
        for w in Workload::ALL {
            assert!(
                reference.keys().any(|(name, _)| name == w.name()),
                "{} has no reference points",
                w.name()
            );
        }
    }

    #[test]
    fn malformed_reference_lines_are_rejected() {
        assert!(parse_reference("w\tid\t0.1\t10\n").is_err());
        assert!(parse_reference("w\tid\tx\t10\t1\n").is_err());
        assert!(parse_reference("w\tid\t0.1\t10\t1\nw\tid\t0.1\t10\t1\n").is_err());
        assert!(parse_reference("# comment\n\nw\tid\t0.1\t10\t1\n").is_ok());
    }
}
