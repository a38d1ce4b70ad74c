//! One generator per paper figure, with the paper's exact parameters.
//!
//! Shared defaults (§3.1.2 / §3.2.3): `N = 10000`, `n = 100`,
//! `P_B = 0.5`, 10 filters, SOS nodes evenly distributed; successive
//! model additionally `N_T = 200`, `N_C = 2000`, `R = 3`, `P_E = 0.2`.
//!
//! All `P_S` values use the binomial evaluator by default — the smooth
//! relaxation whose shapes match the paper's plotted curves (see
//! `DESIGN.md` §1); each generator also has a `*_with` variant taking an
//! explicit [`PathEvaluator`] so the evaluator gap itself can be
//! plotted.

use sos_analysis::sweep::{
    sweep_break_in, sweep_layers_one_burst, sweep_layers_successive, sweep_rounds, SweepConfig,
};
use sos_analysis::SweepTable;
use sos_core::{
    AttackBudget, MappingDegree, NodeDistribution, PathEvaluator, SuccessiveParams, SystemParams,
};

/// Layer grid used by the layer-sweep figures.
pub const LAYER_GRID: std::ops::RangeInclusive<usize> = 1..=10;

fn config(mapping: MappingDegree, evaluator: PathEvaluator) -> SweepConfig {
    let mut c = SweepConfig::paper_default(mapping);
    c.evaluator = evaluator;
    c
}

/// Fig. 4(a): one-burst, pure congestion (`N_T = 0`), `P_S` vs `L` for
/// mappings {one-to-one, one-to-half, one-to-all} × `N_C ∈ {2000, 6000}`.
pub fn fig4a() -> SweepTable {
    fig4a_with(PathEvaluator::Binomial)
}

/// [`fig4a`] with an explicit evaluator.
pub fn fig4a_with(evaluator: PathEvaluator) -> SweepTable {
    let mut table = SweepTable::new("fig4a", "L", "P_S");
    for n_c in [2_000u64, 6_000] {
        for mapping in [
            MappingDegree::ONE_TO_ONE,
            MappingDegree::OneToHalf,
            MappingDegree::OneToAll,
        ] {
            let label = format!("{mapping} N_C={n_c}");
            let series = sweep_layers_one_burst(
                &config(mapping, evaluator),
                AttackBudget::congestion_only(n_c),
                LAYER_GRID,
                label,
            )
            .expect("paper-grid configurations are valid");
            table.push(series);
        }
    }
    table
}

/// Fig. 4(a) recomputed with the *exact* distribution-level analysis
/// (`sos_analysis::exact`) instead of the average-case model — the
/// variant that reproduces the paper's declining one-to-half and
/// one-to-all curves, which the average-case hypergeometric form cannot
/// (see `EXPERIMENTS.md`, "Evaluator choice").
pub fn fig4a_exact() -> SweepTable {
    use sos_analysis::ExactCongestionAnalysis;
    use sos_core::Scenario;
    let mut table = SweepTable::new("fig4a-exact", "L", "P_S");
    for n_c in [2_000u64, 6_000] {
        for mapping in [
            MappingDegree::ONE_TO_ONE,
            MappingDegree::OneToHalf,
            MappingDegree::OneToAll,
        ] {
            let mut points = Vec::new();
            for l in LAYER_GRID {
                let scenario = Scenario::builder()
                    .system(SystemParams::paper_default())
                    .layers(l)
                    .mapping(mapping.clone())
                    .filters(10)
                    .build()
                    .expect("paper-grid configurations are valid");
                let ps = ExactCongestionAnalysis::new(&scenario, n_c)
                    .expect("budget within overlay")
                    .success_probability()
                    .value();
                points.push(sos_analysis::SweepPoint { x: l as f64, y: ps });
            }
            table.push(sos_analysis::SweepSeries {
                label: format!("{mapping} N_C={n_c}"),
                points,
            });
        }
    }
    table
}

/// Fig. 4(b): one-burst with break-in, `N_C = 2000`,
/// `N_T ∈ {200, 2000}`, same mapping set as Fig. 4(a).
pub fn fig4b() -> SweepTable {
    fig4b_with(PathEvaluator::Binomial)
}

/// [`fig4b`] with an explicit evaluator.
pub fn fig4b_with(evaluator: PathEvaluator) -> SweepTable {
    let mut table = SweepTable::new("fig4b", "L", "P_S");
    for n_t in [200u64, 2_000] {
        for mapping in [
            MappingDegree::ONE_TO_ONE,
            MappingDegree::OneToHalf,
            MappingDegree::OneToAll,
        ] {
            let label = format!("{mapping} N_T={n_t}");
            let series = sweep_layers_one_burst(
                &config(mapping, evaluator),
                AttackBudget::new(n_t, 2_000),
                LAYER_GRID,
                label,
            )
            .expect("paper-grid configurations are valid");
            table.push(series);
        }
    }
    table
}

/// Fig. 6(a): successive attack, `P_S` vs `L` for the five named
/// mappings (one-to-one, one-to-two, one-to-five, one-to-half,
/// one-to-all).
pub fn fig6a() -> SweepTable {
    fig6a_with(PathEvaluator::Binomial)
}

/// [`fig6a`] with an explicit evaluator.
pub fn fig6a_with(evaluator: PathEvaluator) -> SweepTable {
    let mut table = SweepTable::new("fig6a", "L", "P_S");
    for mapping in MappingDegree::paper_named_set() {
        let label = mapping.to_string();
        let series = sweep_layers_successive(
            &config(mapping, evaluator),
            AttackBudget::paper_default(),
            SuccessiveParams::paper_default(),
            LAYER_GRID,
            label,
        )
        .expect("paper-grid configurations are valid");
        table.push(series);
    }
    table
}

/// Fig. 6(b): successive attack, sensitivity to node distribution
/// {even, increasing, decreasing} × mappings {one-to-two, one-to-five},
/// vs `L`.
pub fn fig6b() -> SweepTable {
    fig6b_with(PathEvaluator::Binomial)
}

/// [`fig6b`] with an explicit evaluator.
pub fn fig6b_with(evaluator: PathEvaluator) -> SweepTable {
    let mut table = SweepTable::new("fig6b", "L", "P_S");
    for mapping in [MappingDegree::OneTo(2), MappingDegree::OneTo(5)] {
        for dist in [
            NodeDistribution::Even,
            NodeDistribution::Increasing,
            NodeDistribution::Decreasing,
        ] {
            let mut c = config(mapping.clone(), evaluator);
            c.distribution = dist.clone();
            let label = format!("{mapping} {dist}");
            // L = 1 admits only one distribution; start at 2.
            let series = sweep_layers_successive(
                &c,
                AttackBudget::paper_default(),
                SuccessiveParams::paper_default(),
                2..=8,
                label,
            )
            .expect("paper-grid configurations are valid");
            table.push(series);
        }
    }
    table
}

/// Fig. 7: successive attack, `P_S` vs round count `R ∈ 1..=10` for
/// `L ∈ {3, 5, 7}`, mapping one-to-five, even distribution.
pub fn fig7() -> SweepTable {
    fig7_with(PathEvaluator::Binomial)
}

/// [`fig7`] with an explicit evaluator.
pub fn fig7_with(evaluator: PathEvaluator) -> SweepTable {
    let mut table = SweepTable::new("fig7", "R", "P_S");
    for l in [3usize, 5, 7] {
        let series = sweep_rounds(
            &config(MappingDegree::OneTo(5), evaluator),
            AttackBudget::paper_default(),
            0.2,
            l,
            1..=10,
            format!("L={l}"),
        )
        .expect("paper-grid configurations are valid");
        table.push(series);
    }
    table
}

/// Break-in budget grid used by the Fig. 8 panels.
pub fn break_in_grid() -> Vec<u64> {
    (0..=10).map(|i| i * 500).collect()
}

/// Fig. 8(a): successive attack, `P_S` vs `N_T` for overlay sizes
/// `N ∈ {10000, 20000}` × mappings {one-to-two, one-to-five}, `L = 3`.
pub fn fig8a() -> SweepTable {
    fig8a_with(PathEvaluator::Binomial)
}

/// [`fig8a`] with an explicit evaluator.
pub fn fig8a_with(evaluator: PathEvaluator) -> SweepTable {
    let mut table = SweepTable::new("fig8a", "N_T", "P_S");
    for big_n in [10_000u64, 20_000] {
        for mapping in [MappingDegree::OneTo(2), MappingDegree::OneTo(5)] {
            let mut c = config(mapping.clone(), evaluator);
            c.system = SystemParams::new(big_n, 100, 0.5).expect("valid system");
            let label = format!("{mapping} N={big_n}");
            let series = sweep_break_in(
                &c,
                2_000,
                SuccessiveParams::paper_default(),
                3,
                break_in_grid(),
                label,
            )
            .expect("paper-grid configurations are valid");
            table.push(series);
        }
    }
    table
}

/// Fig. 8(b): successive attack, `P_S` vs `N_T` for `L ∈ {3, 5}` ×
/// mappings {one-to-two, one-to-five}, `N = 10000`.
pub fn fig8b() -> SweepTable {
    fig8b_with(PathEvaluator::Binomial)
}

/// [`fig8b`] with an explicit evaluator.
pub fn fig8b_with(evaluator: PathEvaluator) -> SweepTable {
    let mut table = SweepTable::new("fig8b", "N_T", "P_S");
    for l in [3usize, 5] {
        for mapping in [MappingDegree::OneTo(2), MappingDegree::OneTo(5)] {
            let label = format!("{mapping} L={l}");
            let series = sweep_break_in(
                &config(mapping.clone(), evaluator),
                2_000,
                SuccessiveParams::paper_default(),
                l,
                break_in_grid(),
                label,
            )
            .expect("paper-grid configurations are valid");
            table.push(series);
        }
    }
    table
}

/// The analysis the paper omits for space ("we do not report our
/// analysis on the sensitivity of P_S to N_C; interested readers can
/// refer \[3\]" — the technical report): `P_S` vs the congestion budget
/// `N_C` under the successive model for `L ∈ {3, 5}` × mappings
/// {one-to-two, one-to-five}, other parameters at the paper's defaults.
pub fn supplemental_nc() -> SweepTable {
    supplemental_nc_with(PathEvaluator::Binomial)
}

/// [`supplemental_nc`] with an explicit evaluator.
pub fn supplemental_nc_with(evaluator: PathEvaluator) -> SweepTable {
    use sos_analysis::SuccessiveAnalysis;
    use sos_core::Scenario;
    let mut table = SweepTable::new("fig-nc", "N_C", "P_S");
    let grid: Vec<u64> = (0..=10).map(|i| i * 600).collect();
    for l in [3usize, 5] {
        for mapping in [MappingDegree::OneTo(2), MappingDegree::OneTo(5)] {
            let scenario = Scenario::builder()
                .system(SystemParams::paper_default())
                .layers(l)
                .mapping(mapping.clone())
                .filters(10)
                .build()
                .expect("paper-grid configurations are valid");
            let points = grid
                .iter()
                .map(|&n_c| {
                    let ps = SuccessiveAnalysis::new(
                        &scenario,
                        AttackBudget::new(200, n_c),
                        SuccessiveParams::paper_default(),
                    )
                    .expect("budget within overlay")
                    .run()
                    .success_probability(evaluator)
                    .value();
                    sos_analysis::SweepPoint {
                        x: n_c as f64,
                        y: ps,
                    }
                })
                .collect();
            table.push(sos_analysis::SweepSeries {
                label: format!("{mapping} L={l}"),
                points,
            });
        }
    }
    table
}

/// Every paper figure in order — used by `sos figure all` and the
/// completeness test.
pub fn all() -> Vec<SweepTable> {
    vec![fig4a(), fig4b(), fig6a(), fig6b(), fig7(), fig8a(), fig8b()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_math::series::{trend, Trend};

    #[test]
    fn fig4a_has_six_series_over_ten_layers() {
        let t = fig4a();
        assert_eq!(t.series.len(), 6);
        for s in &t.series {
            assert_eq!(s.points.len(), 10);
        }
    }

    #[test]
    fn fig4a_shapes_match_paper() {
        let t = fig4a();
        // P_S decreases with L for every mapping/intensity.
        for s in &t.series {
            assert_eq!(
                trend(&s.ys(), 1e-9),
                Trend::NonIncreasing,
                "series {} is not declining",
                s.label
            );
        }
        // Higher mapping degree is better under pure congestion.
        let one = t.series_by_label("one-to-one N_C=2000").unwrap();
        let all = t.series_by_label("one-to-all N_C=2000").unwrap();
        for (p1, pa) in one.points.iter().zip(&all.points) {
            assert!(
                pa.y >= p1.y - 1e-9,
                "one-to-all must dominate at L={}",
                p1.x
            );
        }
        // Heavier congestion is worse.
        let light = t.series_by_label("one-to-one N_C=2000").unwrap();
        let heavy = t.series_by_label("one-to-one N_C=6000").unwrap();
        for (pl, ph) in light.points.iter().zip(&heavy.points) {
            assert!(ph.y <= pl.y + 1e-9);
        }
    }

    #[test]
    fn fig4a_exact_one_to_all_declines() {
        // The distribution-level analysis reproduces the paper's
        // declining high-mapping curves that the average-case
        // hypergeometric form flattens to 1.
        let t = fig4a_exact();
        let s = t.series_by_label("one-to-all N_C=6000").unwrap();
        let ys = s.ys();
        assert_eq!(trend(&ys, 1e-12), Trend::NonIncreasing);
        assert!(ys[0] > 0.999, "L=1 should be near-perfect: {}", ys[0]);
        assert!(ys[9] < 0.95, "L=10 must visibly decline: {}", ys[9]);
        // One-to-one agrees with the average-case model exactly.
        let exact_one = t.series_by_label("one-to-one N_C=2000").unwrap();
        let avg = fig4a_with(PathEvaluator::Hypergeometric);
        let avg_one = avg.series_by_label("one-to-one N_C=2000").unwrap();
        for (e, a) in exact_one.points.iter().zip(&avg_one.points) {
            assert!((e.y - a.y).abs() < 1e-6, "L={}: {} vs {}", e.x, e.y, a.y);
        }
    }

    #[test]
    fn fig4b_one_to_all_collapses() {
        let t = fig4b();
        let s = t.series_by_label("one-to-all N_T=2000").unwrap();
        for p in &s.points {
            assert!(
                p.y < 0.05,
                "one-to-all should collapse at L={}: {}",
                p.x,
                p.y
            );
        }
    }

    #[test]
    fn fig6a_has_five_series() {
        let t = fig6a();
        assert_eq!(t.series.len(), 5);
    }

    #[test]
    fn fig6b_distribution_sensitivity_grows_with_mapping_degree() {
        // Paper: "the sensitivity of P_S to the node distribution seems
        // more pronounced for higher mapping degrees".
        let t = fig6b();
        let spread = |mapping: &str| -> f64 {
            let series: Vec<_> = ["even", "increasing", "decreasing"]
                .iter()
                .map(|d| t.series_by_label(&format!("{mapping} {d}")).unwrap().ys())
                .collect();
            // Max over L of the max-min spread across distributions.
            (0..series[0].len())
                .map(|i| {
                    let vals: Vec<f64> = series.iter().map(|s| s[i]).collect();
                    let max = vals.iter().cloned().fold(f64::MIN, f64::max);
                    let min = vals.iter().cloned().fold(f64::MAX, f64::min);
                    max - min
                })
                .fold(0.0, f64::max)
        };
        assert!(
            spread("one-to-5") > spread("one-to-2"),
            "one-to-5 spread {} should exceed one-to-2 spread {}",
            spread("one-to-5"),
            spread("one-to-2")
        );
    }

    #[test]
    fn fig6b_increasing_best_where_disclosure_cascade_dominates() {
        // Paper: "increasing node distributions performs best" — in our
        // reproduction this holds in the moderate-L, high-mapping region
        // where the disclosure cascade concentrates damage near the
        // target (see EXPERIMENTS.md for the full discussion).
        let t = fig6b();
        let at = |label: &str, l: f64| -> f64 {
            t.series_by_label(label)
                .unwrap()
                .points
                .iter()
                .find(|p| p.x == l)
                .unwrap()
                .y
        };
        let inc = at("one-to-5 increasing", 4.0);
        let even = at("one-to-5 even", 4.0);
        let dec = at("one-to-5 decreasing", 4.0);
        assert!(
            inc > even && even > dec,
            "expected increasing > even > decreasing at L=4/one-to-5: {inc} {even} {dec}"
        );
    }

    #[test]
    fn fig7_rounds_hurt_less_with_more_layers() {
        let t = fig7();
        for s in &t.series {
            assert_eq!(
                trend(&s.ys(), 1e-6),
                Trend::NonIncreasing,
                "P_S must fall with R for {}",
                s.label
            );
        }
    }

    #[test]
    fn fig8a_larger_overlay_helps() {
        let t = fig8a();
        let small = t.series_by_label("one-to-5 N=10000").unwrap();
        let large = t.series_by_label("one-to-5 N=20000").unwrap();
        // For positive N_T, diluting the attacker's random trials raises
        // P_S.
        for (ps, pl) in small.points.iter().zip(&large.points).skip(1) {
            assert!(
                pl.y >= ps.y - 1e-9,
                "N=20000 should dominate at N_T={}",
                ps.x
            );
        }
    }

    #[test]
    fn fig8b_declines_in_break_in_budget() {
        let t = fig8b();
        for s in &t.series {
            assert_eq!(trend(&s.ys(), 1e-6), Trend::NonIncreasing, "{}", s.label);
        }
    }

    #[test]
    fn supplemental_nc_declines_and_ranks_mappings() {
        let t = supplemental_nc();
        assert_eq!(t.series.len(), 4);
        for s in &t.series {
            assert_eq!(
                trend(&s.ys(), 1e-6),
                Trend::NonIncreasing,
                "P_S must fall with N_C for {}",
                s.label
            );
            // Zero congestion budget: break-in alone leaves some service.
            assert!(s.points[0].y > 0.0);
        }
        // Crossover: with no congestion budget the break-ins alone barely
        // matter, so the redundancy of one-to-five wins; as soon as the
        // attacker can congest what it disclosed, one-to-two dominates.
        let two = t.series_by_label("one-to-2 L=3").unwrap();
        let five = t.series_by_label("one-to-5 L=3").unwrap();
        assert!(
            five.points[0].y > two.points[0].y,
            "redundancy wins at N_C=0"
        );
        for (a, b) in two.points.iter().zip(&five.points).skip(1) {
            assert!(a.y >= b.y - 1e-9, "at N_C={}", a.x);
        }
        let cross = sos_math::series::crossover_index(&five.ys(), &two.ys());
        assert_eq!(cross, Some(1), "crossover at the first non-zero budget");
    }

    #[test]
    fn all_returns_the_seven_panels() {
        let titles: Vec<String> = all().into_iter().map(|t| t.title).collect();
        assert_eq!(
            titles,
            vec!["fig4a", "fig4b", "fig6a", "fig6b", "fig7", "fig8a", "fig8b"]
        );
    }
}
