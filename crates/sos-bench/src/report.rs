//! The report catalogue: every file of the full report, listed once.
//!
//! [`SECTIONS`] holds, in the order `full_report` writes them, each
//! report file with the function that renders its exact bytes.
//! `full_report` writes every row into one directory; `sos figure
//! <name>` prints one row. A section's name is its file stem
//! (`fig4a`, `ext-faults`, `trace-paper-intelligent`, …).

use crate::ablations::{self, AblationOptions};
use crate::figures;
use sos_analysis::{tornado, OperatingPoint};
use sos_core::PathEvaluator;
use sos_sim::ComparisonRow;
use std::fmt::{Display, Write};

/// One file of the report and the function that renders it.
#[derive(Debug)]
pub struct Section {
    /// File name in the report directory; its stem is the section's name.
    pub file: &'static str,
    /// The sizing fields the file's bytes depend on.
    pub reads: Reads,
    /// The file's exact bytes at a Monte Carlo sizing. Only the fields
    /// named by `reads` are looked at.
    pub render: fn(AblationOptions) -> String,
}

/// The [`AblationOptions`] fields a section reads. `sos figure`
/// refuses a sizing flag that its section would ignore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reads {
    /// `trials`.
    pub trials: bool,
    /// `routes_per_trial`.
    pub routes: bool,
    /// `seed`.
    pub seed: bool,
}

impl Reads {
    /// Analytic and protocol sections: their inputs are fixed.
    pub const NOTHING: Reads = Reads {
        trials: false,
        routes: false,
        seed: false,
    };
    /// Monte Carlo sweeps: the whole sizing.
    pub const SIZING: Reads = Reads {
        trials: true,
        routes: true,
        seed: true,
    };
    /// The traced paper run: five trials, whatever the sizing says.
    pub const ROUTES_AND_SEED: Reads = Reads {
        trials: false,
        routes: true,
        seed: true,
    };
}

impl Section {
    /// The section's name: its file name without the extension.
    pub fn name(&self) -> &'static str {
        self.file
            .rsplit_once('.')
            .map_or(self.file, |(stem, _)| stem)
    }
}

/// A row whose bytes read no sizing: analytic and protocol sections.
const fn fixed(file: &'static str, render: fn(AblationOptions) -> String) -> Section {
    Section {
        file,
        reads: Reads::NOTHING,
        render,
    }
}

/// A Monte Carlo row: reads the whole sizing.
const fn sized(file: &'static str, render: fn(AblationOptions) -> String) -> Section {
    Section {
        file,
        reads: Reads::SIZING,
        render,
    }
}

/// A row of the traced paper run: reads routes and seed.
const fn traced(file: &'static str, render: fn(AblationOptions) -> String) -> Section {
    Section {
        file,
        reads: Reads::ROUTES_AND_SEED,
        render,
    }
}

/// Every section of the report, in the order `full_report` writes them.
pub static SECTIONS: &[Section] = &[
    fixed("fig4a.csv", |_| figures::fig4a().to_string()),
    fixed("fig4b.csv", |_| figures::fig4b().to_string()),
    fixed("fig6a.csv", |_| figures::fig6a().to_string()),
    fixed("fig6b.csv", |_| figures::fig6b().to_string()),
    fixed("fig7.csv", |_| figures::fig7().to_string()),
    fixed("fig8a.csv", |_| figures::fig8a().to_string()),
    fixed("fig8b.csv", |_| figures::fig8b().to_string()),
    fixed("fig4a-exact.csv", |_| figures::fig4a_exact().to_string()),
    fixed("fig-nc.csv", |_| figures::supplemental_nc().to_string()),
    fixed("figures.json", |_| figures_json()),
    sized("ablation-evaluator.csv", |o| {
        let head = format!("# ablation-evaluator\n{}\n", ComparisonRow::CSV_HEADER);
        lines(head, ablations::evaluator_ablation(o))
    }),
    sized("ablation-routing.csv", |o| {
        ablations::routing_ablation(o).to_string()
    }),
    sized("ablation-chord.csv", |o| {
        ablations::chord_ablation(o).to_string()
    }),
    fixed("ablation-multirole.csv", |_| {
        ablations::multirole_ablation().to_string()
    }),
    sized("ext-repair.csv", |o| {
        ablations::repair_extension(o).to_string()
    }),
    sized("ext-monitoring.csv", |o| {
        ablations::monitoring_extension(o).to_string()
    }),
    sized("ext-faults.csv", |o| ablations::fault_sweep(o).to_string()),
    sized("ext-flow.csv", |o| ablations::flow_extension(o).to_string()),
    fixed("ext-stabilization.csv", |_| {
        ablations::stabilization_extension().to_string()
    }),
    fixed("ext-staleness.csv", |_| {
        ablations::staleness_extension().to_string()
    }),
    fixed("ext-protocol-churn.csv", |_| {
        ablations::protocol_churn_extension().to_string()
    }),
    fixed("ext-latency.csv", |_| {
        let head = "# ext-latency\ndesign,P_S,latency,pareto\n".to_string();
        lines(head, ablations::latency_frontier())
    }),
    fixed("sensitivity.csv", |_| sensitivity()),
    traced("trace-paper-intelligent.jsonl", |o| {
        let (recorder, _) = paper_intelligent_trace(o);
        sos_observe::write_jsonl(&recorder.take_events())
    }),
    traced("metrics-paper-intelligent.csv", |o| {
        paper_intelligent_trace(o).1.to_csv()
    }),
];

/// The section named `name`, if the catalogue has one.
pub fn section(name: &str) -> Option<&'static Section> {
    SECTIONS.iter().find(|s| s.name() == name)
}

/// `head` followed by one line per row.
fn lines<T: Display>(mut head: String, rows: impl IntoIterator<Item = T>) -> String {
    for row in rows {
        writeln!(head, "{row}").expect("writing to a String cannot fail");
    }
    head
}

/// Every paper figure plus `fig4a-exact` as one JSON array (the same
/// data as their CSV files).
fn figures_json() -> String {
    let mut tables = figures::all();
    tables.push(figures::fig4a_exact());
    serde_json::to_string_pretty(&tables).expect("sweep tables serialize")
}

/// The tornado sensitivity analysis at the paper's operating point.
fn sensitivity() -> String {
    let point = OperatingPoint::paper_default();
    let base = point
        .price(PathEvaluator::Binomial)
        .expect("the paper's operating point is valid");
    let entries = tornado(&point, 0.25, PathEvaluator::Binomial)
        .expect("the paper's operating point is valid");
    let head = format!("# sensitivity\n# base P_S: {base:.6}\nparameter,ps_low,ps_high,swing\n");
    lines(head, entries)
}

/// A traced run of the paper's intelligent attacker (5 trials at the
/// paper's scale), so the report carries a replayable event log next
/// to the aggregates.
fn paper_intelligent_trace(
    opts: AblationOptions,
) -> (sos_observe::MemoryRecorder, sos_observe::MetricsRegistry) {
    use sos_core::{MappingDegree, Scenario, SystemParams, ThreatPreset};
    use sos_sim::engine::{Simulation, SimulationConfig};
    let system = SystemParams::new(10_000, 100, 0.5).expect("valid system");
    let scenario = Scenario::builder()
        .system(system)
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(10)
        .build()
        .expect("valid scenario");
    let cfg = SimulationConfig::new(scenario, ThreatPreset::PaperIntelligent.attack(&system))
        .trials(5)
        .routes_per_trial(opts.routes_per_trial)
        .seed(opts.seed);
    let recorder = sos_observe::MemoryRecorder::new();
    let (_, metrics) = Simulation::new(cfg).run_traced(&recorder);
    (recorder, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_traced_run_reads_routes_and_seed_but_not_trials() {
        let base = AblationOptions {
            trials: 1,
            routes_per_trial: 2,
            seed: 3,
        };
        for name in ["trace-paper-intelligent", "metrics-paper-intelligent"] {
            let s = section(name).unwrap();
            assert_eq!(s.reads, Reads::ROUTES_AND_SEED, "{name}");
            let render = |opts| (s.render)(opts);
            let more_trials = AblationOptions { trials: 9, ..base };
            assert_eq!(render(base), render(more_trials), "{name} read trials");
            let more_routes = AblationOptions {
                routes_per_trial: 3,
                ..base
            };
            assert_ne!(render(base), render(more_routes), "{name} ignored routes");
            let other_seed = AblationOptions { seed: 4, ..base };
            assert_ne!(render(base), render(other_seed), "{name} ignored the seed");
        }
    }
}
