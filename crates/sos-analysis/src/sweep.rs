//! Parameter-sweep machinery for regenerating the paper's figures.
//!
//! Every figure in the evaluation is a family of `P_S` curves over a
//! design or attack parameter. [`SweepSeries`] holds one curve,
//! [`SweepTable`] a figure's worth of curves with CSV `Display` output
//! (the format `sos figure` and `full_report` print and the integration
//! tests parse).

use crate::one_burst::OneBurstAnalysis;
use crate::successive::SuccessiveAnalysis;
use serde::{Deserialize, Serialize};
use sos_core::{
    AttackBudget, ConfigError, MappingDegree, NodeDistribution, PathEvaluator, Scenario,
    SuccessiveParams, SystemParams,
};

/// A single `(x, y)` sample of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Swept parameter value.
    pub x: f64,
    /// Observed `P_S` (or other metric).
    pub y: f64,
}

/// One labelled curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSeries {
    /// Legend label, e.g. `"one-to-five, N_C=2000"`.
    pub label: String,
    /// Samples in sweep order.
    pub points: Vec<SweepPoint>,
}

impl SweepSeries {
    /// Creates a series from parallel x/y slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_xy(label: impl Into<String>, xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
        SweepSeries {
            label: label.into(),
            points: xs
                .iter()
                .zip(ys)
                .map(|(&x, &y)| SweepPoint { x, y })
                .collect(),
        }
    }

    /// The x values.
    pub fn xs(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.x).collect()
    }

    /// The y values.
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.y).collect()
    }
}

/// A full figure: several curves over a common x-axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepTable {
    /// Figure title (e.g. `"fig4a"`).
    pub title: String,
    /// Name of the x-axis parameter (e.g. `"L"`).
    pub x_name: String,
    /// Name of the y-axis metric (normally `"P_S"`).
    pub y_name: String,
    /// The curves.
    pub series: Vec<SweepSeries>,
}

impl SweepTable {
    /// Creates an empty table.
    pub fn new(
        title: impl Into<String>,
        x_name: impl Into<String>,
        y_name: impl Into<String>,
    ) -> Self {
        SweepTable {
            title: title.into(),
            x_name: x_name.into(),
            y_name: y_name.into(),
            series: Vec::new(),
        }
    }

    /// Appends a curve.
    pub fn push(&mut self, series: SweepSeries) {
        self.series.push(series);
    }

    /// Looks up a curve by label.
    pub fn series_by_label(&self, label: &str) -> Option<&SweepSeries> {
        self.series.iter().find(|s| s.label == label)
    }
}

impl std::fmt::Display for SweepTable {
    /// CSV with a comment header:
    ///
    /// ```text
    /// # fig4a
    /// series,L,P_S
    /// one-to-one N_C=2000,1,0.800000
    /// ...
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "# {}", self.title)?;
        writeln!(f, "series,{},{}", self.x_name, self.y_name)?;
        for s in &self.series {
            for p in &s.points {
                writeln!(f, "{},{},{:.6}", s.label, p.x, p.y)?;
            }
        }
        Ok(())
    }
}

/// Shared inputs for the sweep helpers below.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// System-side parameters.
    pub system: SystemParams,
    /// Node distribution policy.
    pub distribution: NodeDistribution,
    /// Mapping-degree policy.
    pub mapping: MappingDegree,
    /// Filter count.
    pub filters: u64,
    /// Evaluator used to turn compromise states into `P_S`.
    pub evaluator: PathEvaluator,
}

impl SweepConfig {
    /// Paper defaults with the given mapping.
    pub fn paper_default(mapping: MappingDegree) -> Self {
        SweepConfig {
            system: SystemParams::paper_default(),
            distribution: NodeDistribution::Even,
            mapping,
            filters: 10,
            evaluator: PathEvaluator::Binomial,
        }
    }

    fn scenario(&self, layers: usize) -> Result<Scenario, ConfigError> {
        Scenario::builder()
            .system(self.system)
            .layers(layers)
            .distribution(self.distribution.clone())
            .mapping(self.mapping.clone())
            .filters(self.filters)
            .build()
    }
}

/// `P_S` versus the layer count `L` under the one-burst model
/// (Figs 4(a)/4(b)).
///
/// # Errors
///
/// Propagates configuration errors (e.g. a layer count that leaves a
/// layer empty).
pub fn sweep_layers_one_burst(
    config: &SweepConfig,
    budget: AttackBudget,
    layer_range: impl IntoIterator<Item = usize>,
    label: impl Into<String>,
) -> Result<SweepSeries, ConfigError> {
    let mut points = Vec::new();
    for l in layer_range {
        let scenario = config.scenario(l)?;
        let ps = OneBurstAnalysis::new(&scenario, budget)?
            .run()
            .success_probability(config.evaluator);
        points.push(SweepPoint {
            x: l as f64,
            y: ps.value(),
        });
    }
    Ok(SweepSeries {
        label: label.into(),
        points,
    })
}

/// `P_S` versus the layer count `L` under the successive model
/// (Figs 6(a)/6(b)).
///
/// # Errors
///
/// Propagates configuration errors.
pub fn sweep_layers_successive(
    config: &SweepConfig,
    budget: AttackBudget,
    params: SuccessiveParams,
    layer_range: impl IntoIterator<Item = usize>,
    label: impl Into<String>,
) -> Result<SweepSeries, ConfigError> {
    let mut points = Vec::new();
    for l in layer_range {
        let scenario = config.scenario(l)?;
        let ps = SuccessiveAnalysis::new(&scenario, budget, params)?
            .run()
            .success_probability(config.evaluator);
        points.push(SweepPoint {
            x: l as f64,
            y: ps.value(),
        });
    }
    Ok(SweepSeries {
        label: label.into(),
        points,
    })
}

/// `P_S` versus the round count `R` (Fig. 7).
///
/// # Errors
///
/// Propagates configuration errors.
pub fn sweep_rounds(
    config: &SweepConfig,
    budget: AttackBudget,
    prior_knowledge: f64,
    layers: usize,
    round_range: impl IntoIterator<Item = u32>,
    label: impl Into<String>,
) -> Result<SweepSeries, ConfigError> {
    let scenario = config.scenario(layers)?;
    let mut points = Vec::new();
    for r in round_range {
        let params = SuccessiveParams::new(r, prior_knowledge)?;
        let ps = SuccessiveAnalysis::new(&scenario, budget, params)?
            .run()
            .success_probability(config.evaluator);
        points.push(SweepPoint {
            x: r as f64,
            y: ps.value(),
        });
    }
    Ok(SweepSeries {
        label: label.into(),
        points,
    })
}

/// `P_S` versus the break-in budget `N_T` (Figs 8(a)/8(b)).
///
/// # Errors
///
/// Propagates configuration errors.
pub fn sweep_break_in(
    config: &SweepConfig,
    congestion_capacity: u64,
    params: SuccessiveParams,
    layers: usize,
    break_in_range: impl IntoIterator<Item = u64>,
    label: impl Into<String>,
) -> Result<SweepSeries, ConfigError> {
    let scenario = config.scenario(layers)?;
    let mut points = Vec::new();
    for n_t in break_in_range {
        let budget = AttackBudget::new(n_t, congestion_capacity);
        let ps = SuccessiveAnalysis::new(&scenario, budget, params)?
            .run()
            .success_probability(config.evaluator);
        points.push(SweepPoint {
            x: n_t as f64,
            y: ps.value(),
        });
    }
    Ok(SweepSeries {
        label: label.into(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_math::series::{trend, Trend};

    #[test]
    fn series_from_xy() {
        let s = SweepSeries::from_xy("demo", &[1.0, 2.0], &[0.9, 0.8]);
        assert_eq!(s.xs(), vec![1.0, 2.0]);
        assert_eq!(s.ys(), vec![0.9, 0.8]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn series_from_xy_mismatch_panics() {
        SweepSeries::from_xy("demo", &[1.0], &[0.9, 0.8]);
    }

    #[test]
    fn table_csv_format() {
        let mut t = SweepTable::new("fig-demo", "L", "P_S");
        t.push(SweepSeries::from_xy("a", &[1.0], &[0.5]));
        let csv = t.to_string();
        assert!(csv.starts_with("# fig-demo\nseries,L,P_S\n"));
        assert!(csv.contains("a,1,0.500000"));
        assert!(t.series_by_label("a").is_some());
        assert!(t.series_by_label("b").is_none());
    }

    #[test]
    fn layer_sweep_pure_congestion_declines() {
        // Fig. 4(a) shape: under pure congestion, P_S declines with L.
        let config = SweepConfig::paper_default(MappingDegree::ONE_TO_ONE);
        let series = sweep_layers_one_burst(
            &config,
            AttackBudget::congestion_only(2_000),
            1..=8,
            "one-to-one",
        )
        .unwrap();
        assert_eq!(series.points.len(), 8);
        assert_eq!(trend(&series.ys(), 1e-9), Trend::NonIncreasing);
        // L = 1 is exactly 0.8 under one-to-one.
        assert!((series.points[0].y - 0.8).abs() < 1e-9);
    }

    #[test]
    fn round_sweep_declines() {
        let config = SweepConfig::paper_default(MappingDegree::OneTo(5));
        let series = sweep_rounds(
            &config,
            AttackBudget::paper_default(),
            0.2,
            3,
            1..=8,
            "L=3",
        )
        .unwrap();
        assert_eq!(trend(&series.ys(), 1e-6), Trend::NonIncreasing);
    }

    #[test]
    fn break_in_sweep_declines() {
        let config = SweepConfig::paper_default(MappingDegree::OneTo(5));
        let series = sweep_break_in(
            &config,
            2_000,
            SuccessiveParams::paper_default(),
            3,
            [0u64, 200, 500, 1_000, 2_000, 5_000],
            "L=3",
        )
        .unwrap();
        assert_eq!(trend(&series.ys(), 1e-6), Trend::NonIncreasing);
    }

    #[test]
    fn invalid_layer_count_surfaces_error() {
        let config = SweepConfig::paper_default(MappingDegree::ONE_TO_ONE);
        // 100 SOS nodes over 101 layers cannot work.
        let res = sweep_layers_one_burst(
            &config,
            AttackBudget::congestion_only(100),
            [101usize],
            "bad",
        );
        assert!(res.is_err());
    }
}
