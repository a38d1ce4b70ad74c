//! The sweep executor serializes each thing once and must say the same
//! bytes it would have said serializing it every time:
//!
//! - the fingerprints of a run, whose scenario, attack and policy JSON
//!   is written once per distinct value, equal `config_fingerprint` of
//!   each config point by point;
//! - the result JSON it keeps with a cached result (and serves through
//!   `run_json`) equals `serde_json::to_string` of the result, whether
//!   the point was just executed, answered from memory, recovered from
//!   the journal or loaded from the cache file;
//! - each journal line is the `CacheEntry` encoding of its point.

use proptest::prelude::*;
use serde_json::Value;
use sos::core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SuccessiveParams, SystemParams};
use sos::sim::engine::{SimulationConfig, TransportKind};
use sos::sim::routing::RoutingPolicy;
use sos::sim::{config_fingerprint, SweepExecutor};
use sos_faults::{FaultConfig, RetryPolicy};
use std::path::PathBuf;

/// Break-in probabilities of the grids' scenarios. `0.0` and `-0.0` are
/// `==` but print differently, so they must fingerprint apart.
const PBS: [f64; 3] = [0.5, 0.0, -0.0];

fn scenario(pb: f64, layers: usize) -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(400, 40, pb).unwrap())
        .layers(layers)
        .mapping(MappingDegree::OneTo(2))
        .filters(10)
        .build()
        .unwrap()
}

/// Strategy: one grid point. Every knob takes a few values, so a grid
/// repeats some and varies others; there are more congestion budgets
/// than the fingerprint memo holds.
fn grid_point() -> impl Strategy<Value = SimulationConfig> {
    (
        (0usize..3, 2usize..4), // scenario: break-in probability, layers
        0u64..24,               // congestion budget, in tens
        0usize..4,              // attack model and prior knowledge
        0usize..3,              // routing policy
        0usize..2,              // transport
        0usize..3,              // faults and retry
        0usize..3,              // monitoring tap
    )
        .prop_map(|((pb, layers), n_c, model, policy, transport, faults, tap)| {
            let budget = AttackBudget::new(5, 10 * n_c);
            let successive = |pe| AttackConfig::Successive {
                budget,
                params: SuccessiveParams::new(2, pe).unwrap(),
            };
            let attack = match model {
                0 => AttackConfig::OneBurst { budget },
                1 => successive(0.2),
                2 => successive(0.0),
                _ => successive(-0.0),
            };
            let mut config = SimulationConfig::new(scenario(PBS[pb], layers), attack)
                .policy(
                    [
                        RoutingPolicy::RandomGood,
                        RoutingPolicy::FirstGood,
                        RoutingPolicy::Backtracking,
                    ][policy],
                )
                .transport([TransportKind::Direct, TransportKind::Chord][transport])
                .trials(1)
                .routes_per_trial(4)
                .seed(3);
            if faults > 0 {
                config = config.faults(FaultConfig::none().loss(0.2).seed(7));
            }
            if faults > 1 {
                config = config.retry(RetryPolicy::new(2, 1, 16));
            }
            if model > 0 && tap > 0 {
                config = config.monitoring_tap([0.3, -0.0][tap - 1]);
            }
            config
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn run_fingerprints_equal_config_fingerprint_point_by_point(
        grid in proptest::collection::vec(grid_point(), 1..40),
    ) {
        let (fingerprints, _) = SweepExecutor::with_threads(1).run_json(&grid);
        for (point, (config, fp)) in grid.iter().zip(&fingerprints).enumerate() {
            prop_assert_eq!(*fp, config_fingerprint(config), "point {}", point);
        }
    }
}

/// A temporary cache path unique to this test.
fn cache_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sos-executor-identity");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(journal(&path));
    path
}

fn journal(path: &std::path::Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".journal");
    PathBuf::from(os)
}

/// A small grid with a repeated point and a zero-probability twin pair.
fn small_grid() -> Vec<SimulationConfig> {
    let point = |pb: f64, n_c: u64| {
        SimulationConfig::new(
            scenario(pb, 3),
            AttackConfig::OneBurst {
                budget: AttackBudget::new(5, n_c),
            },
        )
        .trials(2)
        .routes_per_trial(6)
        .seed(11)
    };
    vec![
        point(0.5, 40),
        point(0.5, 80),
        point(0.5, 40),
        point(0.0, 40),
        point(-0.0, 40),
    ]
}

/// `run_json` of `grid` on `exec`, checked against `serde_json::to_string`
/// of the results `run` gives for the same points.
fn assert_json_is_to_string(exec: &mut SweepExecutor, grid: &[SimulationConfig], when: &str) {
    let (fingerprints, json) = exec.run_json(grid);
    let results = exec.run(grid);
    for (point, (config, (fp, (json, result)))) in grid
        .iter()
        .zip(fingerprints.iter().zip(json.iter().zip(&results)))
        .enumerate()
    {
        assert_eq!(*fp, config_fingerprint(config), "{when}: point {point}");
        assert_eq!(
            *json,
            serde_json::to_string(result).unwrap(),
            "{when}: point {point}"
        );
    }
}

#[test]
fn kept_result_json_is_to_string_of_the_result_from_every_source() {
    let grid = small_grid();
    // Fresh points, with no cache attached (nothing journals them) and
    // with one (the journal writes their JSON first).
    assert_json_is_to_string(&mut SweepExecutor::with_threads(1), &grid, "fresh, no cache");
    let path = cache_path("sources");
    let mut exec = SweepExecutor::with_threads(1);
    exec.attach_cache(&path).unwrap();
    assert_json_is_to_string(&mut exec, &grid, "fresh");
    assert_eq!(exec.stats().points_executed, 4);
    assert_json_is_to_string(&mut exec, &grid, "memory hit");
    assert_eq!(exec.stats().points_executed, 4, "the repeats are cache hits");
    drop(exec);

    // The journal alone carries the points: recover from it.
    let mut recovered = SweepExecutor::with_threads(1);
    let report = recovered.attach_cache_report(&path).unwrap();
    assert_eq!((report.journal_recovered, report.skipped), (4, 0));
    assert_json_is_to_string(&mut recovered, &grid, "journal-recovered");
    assert_eq!(recovered.stats().points_executed, 0);
    recovered.persist();
    drop(recovered);

    // The compacted file alone carries them: load it.
    assert!(!journal(&path).exists(), "persist absorbs the journal");
    let mut loaded = SweepExecutor::with_threads(1);
    let report = loaded.attach_cache_report(&path).unwrap();
    assert_eq!((report.loaded, report.skipped), (4, 0));
    assert_json_is_to_string(&mut loaded, &grid, "file-loaded");
    assert_eq!(loaded.stats().points_executed, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journal_lines_are_the_cache_entry_encoding() {
    let grid = small_grid();
    let path = cache_path("journal-lines");
    let mut exec = SweepExecutor::with_threads(1);
    exec.attach_cache(&path).unwrap();
    let (fingerprints, _) = exec.run_json(&grid);
    let results = exec.run(&grid);
    drop(exec);

    let text = std::fs::read_to_string(journal(&path)).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // One line per executed point, in first-occurrence order.
    let executed = [0usize, 1, 3, 4];
    assert_eq!(lines.len(), executed.len());
    for (line, &point) in lines.iter().zip(&executed) {
        let parsed: Value = serde_json::from_str(line).unwrap();
        // `CacheEntry { fingerprint, checksum, result }` through the
        // derived encoding; the checksum is taken from the line and
        // checked by loading it below.
        let entry = serde_json::json!({
            "fingerprint": format!("{:016x}", fingerprints[point]),
            "checksum": parsed["checksum"],
            "result": results[point],
        });
        assert_eq!(*line, serde_json::to_string(&entry).unwrap(), "point {point}");
    }
    let report = SweepExecutor::with_threads(1)
        .attach_cache_report(&path)
        .unwrap();
    assert_eq!((report.journal_recovered, report.skipped), (4, 0));
    let _ = std::fs::remove_file(journal(&path));
}
