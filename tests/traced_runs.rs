//! Traced runs on the worker pool. `run_parallel_traced` gives every
//! trial batch its own metrics registry and event buffer and folds them
//! in trial order, so at any thread count the recorder receives exactly
//! the events `run_traced` emits, in the same order, and the integer
//! metrics match. Histogram sums fold per batch, so only the parallel
//! runs agree with each other on them.

use sos::core::{
    AttackBudget, AttackConfig, MappingDegree, Scenario, SuccessiveParams, SystemParams,
};
use sos::sim::engine::{Simulation, SimulationConfig, TransportKind};
use sos_faults::FaultConfig;
use sos_observe::{Event, MemoryRecorder};

/// Successive attack over Chord with benign faults, so attack, lookup,
/// routing and fault events all appear; 130 trials make 65 batches of
/// two trials each.
fn config() -> SimulationConfig {
    let scenario = Scenario::builder()
        .system(SystemParams::new(600, 50, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(10)
        .build()
        .unwrap();
    SimulationConfig::new(
        scenario,
        AttackConfig::Successive {
            budget: AttackBudget::new(30, 120),
            params: SuccessiveParams::new(3, 0.2).unwrap(),
        },
    )
    .transport(TransportKind::Chord)
    .faults(FaultConfig::none().loss(0.05).misroute(0.05))
    .trials(130)
    .routes_per_trial(8)
    .seed(21)
}

/// The integer rows of a metrics CSV: counters, histogram counts and
/// bucket counts, without the float sums and means.
fn integer_rows(csv: &str) -> Vec<&str> {
    csv.lines()
        .filter(|row| !row.contains(",histogram,sum,") && !row.contains(",histogram,mean,"))
        .collect()
}

/// Index of the first event where `got` and `want` differ, if any.
fn first_difference(got: &[Event], want: &[Event]) -> Option<usize> {
    (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i))
}

#[test]
fn parallel_traced_runs_replay_the_serial_event_stream() {
    let sim = Simulation::new(config());
    let recorder = MemoryRecorder::new();
    let (serial, serial_metrics) = sim.run_traced(&recorder);
    let serial_events = recorder.take_events();
    assert!(
        serial_events.len() > 1_000,
        "{} events",
        serial_events.len()
    );
    let serial_csv = serial_metrics.to_csv();

    let mut csvs = Vec::new();
    for threads in [1, 2, 3, 8] {
        let recorder = MemoryRecorder::new();
        let (result, metrics) = sim.run_parallel_traced(threads, &recorder);
        let events = recorder.take_events();
        // No sorting: the recorder must see the serial order itself.
        assert_eq!(
            first_difference(&events, &serial_events),
            None,
            "{threads} threads: {} events vs {} serial",
            events.len(),
            serial_events.len()
        );
        assert_eq!(result.successes, serial.successes, "{threads} threads");
        assert_eq!(result.attempts, serial.attempts, "{threads} threads");
        assert_eq!(
            result.failure_depths, serial.failure_depths,
            "{threads} threads"
        );
        let csv = metrics.to_csv();
        assert_eq!(
            integer_rows(&csv),
            integer_rows(&serial_csv),
            "{threads} threads"
        );
        csvs.push((threads, csv));
    }
    for (threads, csv) in &csvs[1..] {
        assert_eq!(csv, &csvs[0].1, "metrics at {threads} threads vs 1 thread");
    }
}
