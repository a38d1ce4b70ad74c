//! `sosbench compare PARENT.json CHANGE.json`: judges two
//! `bench/out/latest.json` files, row by row. Run `i` of one side is
//! paired with run `i` of the other (alternate which side runs first
//! when collecting them);
//! a gain needs the change to win at least nine tenths of the pairs and
//! the medians to differ by more than the parent's IQR; a regression is
//! a median worse than the parent's by more than the metric's bound in
//! `BENCHMARK.json`; a row whose spread exceeds its bound is unresolved.

use crate::catalog::END_TO_END;
use crate::read_json as read;
use crate::stats::{iqr, median};
use serde_json::Value;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Win,
    NoRegression,
    Regression,
    Unresolved,
}

/// Judges one (workload, metric) row from paired runs.
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (pm, cm) = (median(parent), median(change));
    let spread = (iqr(parent) / pm).max(iqr(change) / cm);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let worse_by = if lower_is_better {
        (cm - pm) / pm
    } else {
        (pm - cm) / pm
    };
    if pairs > 0 && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > iqr(parent) {
        Verdict::Win
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::NoRegression
    }
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc["workloads"]
        .as_array()?
        .iter()
        .find(|w| w["name"].as_str() == Some(name))
}

fn runs(workload: &Value) -> impl Iterator<Item = &Value> {
    workload["runs"].as_array().into_iter().flatten()
}

fn values(workload: &Value, metric: &str) -> Vec<f64> {
    runs(workload)
        .filter_map(|r| r["metrics"][metric]["value"].as_f64())
        .collect()
}

fn failure_share(workload: &Value) -> (u64, u64) {
    runs(workload).fold((0, 0), |(f, a), r| {
        (
            f + r["failed"].as_u64().unwrap_or(0),
            a + r["attempted"].as_u64().unwrap_or(0),
        )
    })
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [parent_path, change_path] = args else {
        return Err("usage: sosbench compare PARENT.json CHANGE.json".into());
    };
    let (parent, change) = (read(parent_path)?, read(change_path)?);
    let benchmark = read("BENCHMARK.json")?;
    let bounds = benchmark["end_to_end"]
        .as_array()
        .cloned()
        .unwrap_or_default();
    let mut bad = false;
    println!("workload metric parent_median change_median parent_iqr wins/pairs verdict");
    for w in parent["workloads"].as_array().cloned().unwrap_or_default() {
        let name = w["name"].as_str().unwrap_or("");
        let Some(c) = workload(&change, name) else {
            println!("{name}: missing from {change_path}");
            bad = true;
            continue;
        };
        for metric in END_TO_END {
            let spec = bounds
                .iter()
                .find(|m| m["name"].as_str() == Some(metric.name));
            let bound = spec.and_then(|m| m["bound"].as_f64()).unwrap_or(0.0);
            let lower = spec.and_then(|m| m["better"].as_str()) != Some("higher");
            let (p, ch) = (values(&w, metric.name), values(c, metric.name));
            if p.is_empty() || ch.is_empty() {
                println!("{name} {}: no values", metric.name);
                bad = true;
                continue;
            }
            let verdict = judge(&p, &ch, lower, bound);
            let pairs = p.len().min(ch.len());
            let wins = (0..pairs)
                .filter(|&i| if lower { ch[i] < p[i] } else { ch[i] > p[i] })
                .count();
            println!(
                "{name} {} {:.6} {:.6} {:.6} {wins}/{pairs} {verdict:?}",
                metric.name,
                median(&p),
                median(&ch),
                iqr(&p)
            );
            bad |= verdict == Verdict::Regression;
        }
        let ((pf, pa), (cf, ca)) = (failure_share(&w), failure_share(c));
        let share = |f: u64, a: u64| f as f64 / a.max(1) as f64;
        println!("{name} failed/attempted: parent {pf}/{pa}, change {cf}/{ca}");
        bad |= share(cf, ca) > share(pf, pa);
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 10] = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];

    #[test]
    fn a_clear_gain_wins() {
        let change = PARENT.map(|v| v * 0.8);
        assert_eq!(judge(&PARENT, &change, true, 0.1), Verdict::Win);
        // Higher-is-better metrics mirror the rule.
        assert_eq!(judge(&change, &PARENT, false, 0.1), Verdict::Win);
    }

    #[test]
    fn a_small_gain_inside_the_noise_is_no_win() {
        let change = PARENT.map(|v| v - 0.05);
        assert_eq!(judge(&PARENT, &change, true, 0.1), Verdict::NoRegression);
    }

    #[test]
    fn a_slowdown_past_the_bound_regresses() {
        let change = PARENT.map(|v| v * 1.2);
        assert_eq!(judge(&PARENT, &change, true, 0.1), Verdict::Regression);
        assert_eq!(judge(&PARENT, &change, true, 0.25), Verdict::NoRegression);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(judge(&PARENT, &noisy, true, 0.1), Verdict::Unresolved);
    }
}
