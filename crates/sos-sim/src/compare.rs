//! Side-by-side comparison of the analytical evaluators and the Monte
//! Carlo ground truth — the data behind the `ablation-evaluator`
//! experiment and the validation tables in `EXPERIMENTS.md`.

use crate::engine::SimulationConfig;
use sos_analysis::{OneBurstAnalysis, SuccessiveAnalysis};
use sos_core::{AttackConfig, ConfigError, PathEvaluator, Scenario};

/// One comparison: a labelled configuration priced three ways.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Configuration label.
    pub label: String,
    /// Equation (1) with the paper's hypergeometric form on the
    /// *predicted* average-case compromise state.
    pub analytic_hypergeometric: f64,
    /// Equation (1) with the binomial relaxation on the predicted state.
    pub analytic_binomial: f64,
    /// Monte Carlo empirical `P_S`.
    pub simulated: f64,
    /// Lower bound of the 95% Wilson interval on the simulated value.
    pub simulated_lo: f64,
    /// Upper bound of the 95% Wilson interval.
    pub simulated_hi: f64,
    /// Trials behind the simulated value.
    pub trials: u64,
}

impl ComparisonRow {
    /// CSV header matching [`std::fmt::Display`] output.
    pub const CSV_HEADER: &'static str =
        "label,analytic_hypergeometric,analytic_binomial,simulated,sim_lo,sim_hi,trials";

    /// Absolute gap between the binomial prediction and the simulation.
    pub fn binomial_gap(&self) -> f64 {
        (self.analytic_binomial - self.simulated).abs()
    }

    /// Absolute gap between the hypergeometric prediction and the
    /// simulation.
    pub fn hypergeometric_gap(&self) -> f64 {
        (self.analytic_hypergeometric - self.simulated).abs()
    }
}

impl std::fmt::Display for ComparisonRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{},{:.6},{:.6},{:.6},{:.6},{:.6},{}",
            self.label,
            self.analytic_hypergeometric,
            self.analytic_binomial,
            self.simulated,
            self.simulated_lo,
            self.simulated_hi,
            self.trials
        )
    }
}

/// Prices one `(scenario, attack)` configuration with both analytical
/// evaluators and a Monte Carlo run.
///
/// # Errors
///
/// Propagates [`ConfigError`] from the analytical models (invalid
/// budgets etc.).
pub fn compare_models(
    label: impl Into<String>,
    scenario: &Scenario,
    attack: AttackConfig,
    trials: u64,
    routes_per_trial: u64,
    seed: u64,
) -> Result<ComparisonRow, ConfigError> {
    let (hyper, binom) = match attack {
        AttackConfig::OneBurst { budget } => {
            let report = OneBurstAnalysis::new(scenario, budget)?.run();
            (
                report
                    .success_probability(PathEvaluator::Hypergeometric)
                    .value(),
                report.success_probability(PathEvaluator::Binomial).value(),
            )
        }
        AttackConfig::Successive { budget, params } => {
            let report = SuccessiveAnalysis::new(scenario, budget, params)?.run();
            (
                report
                    .success_probability(PathEvaluator::Hypergeometric)
                    .value(),
                report.success_probability(PathEvaluator::Binomial).value(),
            )
        }
    };
    // Through the sweep executor rather than a one-off run_parallel:
    // evaluator-ablation grids call this once per cell, and the shared
    // cache turns repeated cells (across figure families or warm CLI
    // runs) into lookups.
    let sim = crate::sweep::run_sweep(&[SimulationConfig::new(scenario.clone(), attack)
        .trials(trials)
        .routes_per_trial(routes_per_trial)
        .seed(seed)])
    .remove(0);
    let ci = sim.confidence_interval(0.95);
    Ok(ComparisonRow {
        label: label.into(),
        analytic_hypergeometric: hyper,
        analytic_binomial: binom,
        simulated: sim.success_rate(),
        simulated_lo: ci.lower,
        simulated_hi: ci.upper,
        trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_core::{AttackBudget, MappingDegree, SystemParams};

    fn scenario(mapping: MappingDegree) -> Scenario {
        Scenario::builder()
            .system(SystemParams::new(1_000, 60, 0.5).unwrap())
            .layers(3)
            .mapping(mapping)
            .filters(10)
            .build()
            .unwrap()
    }

    #[test]
    fn row_formats_as_csv() {
        let row = ComparisonRow {
            label: "demo".into(),
            analytic_hypergeometric: 1.0,
            analytic_binomial: 0.9,
            simulated: 0.85,
            simulated_lo: 0.8,
            simulated_hi: 0.9,
            trials: 10,
        };
        let csv = row.to_string();
        assert!(csv.starts_with("demo,1.000000,0.900000,0.850000"));
        assert_eq!(
            ComparisonRow::CSV_HEADER.split(',').count(),
            csv.split(',').count()
        );
        assert!((row.binomial_gap() - 0.05).abs() < 1e-12);
        assert!((row.hypergeometric_gap() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn compare_runs_end_to_end() {
        let row = compare_models(
            "one-to-one congestion",
            &scenario(MappingDegree::ONE_TO_ONE),
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 200),
            },
            60,
            60,
            3,
        )
        .unwrap();
        // For one-to-one pure congestion all three agree closely.
        assert!(row.binomial_gap() < 0.06, "{row}");
        assert!(row.hypergeometric_gap() < 0.06, "{row}");
        assert!(row.simulated_lo <= row.simulated && row.simulated <= row.simulated_hi);
    }

    #[test]
    fn hypergeometric_saturation_is_visible() {
        // One-to-half pure congestion with s_i < m_i (30% congested,
        // 50% neighbors): the paper's evaluator says P_S = 1 exactly,
        // the simulation says slightly less — the gap the design docs
        // call out.
        let row = compare_models(
            "one-to-half congestion",
            &scenario(MappingDegree::OneToHalf),
            AttackConfig::OneBurst {
                budget: AttackBudget::new(0, 300),
            },
            40,
            40,
            4,
        )
        .unwrap();
        assert_eq!(row.analytic_hypergeometric, 1.0);
        assert!(row.simulated <= 1.0);
    }
}
