//! Criterion micro-benches for the simulation substrate: overlay
//! construction, Chord ring construction and lookup, attack execution,
//! message routing, and full Monte Carlo trials.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_attack::{OneBurstAttacker, SuccessiveAttacker};
use sos_core::{
    AttackBudget, AttackConfig, MappingDegree, Scenario, SuccessiveParams, SystemParams,
};
use sos_overlay::{ChordRing, NodeId, Overlay, Transport};
use sos_sim::engine::{Simulation, SimulationConfig};
use sos_sim::routing::{route, RouteCtx, RouteScratch, RoutingPolicy};
use std::hint::black_box;

fn scenario(big_n: u64, sos: u64) -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(big_n, sos, 0.5).expect("valid"))
        .layers(3)
        .mapping(MappingDegree::OneTo(5))
        .filters(10)
        .build()
        .expect("valid")
}

fn bench_overlay_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay-build");
    for big_n in [1_000u64, 10_000] {
        let s = scenario(big_n, 100);
        group.bench_with_input(BenchmarkId::from_parameter(big_n), &s, |b, s| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| black_box(Overlay::build(s, &mut rng)))
        });
    }
    group.finish();
}

fn bench_chord(c: &mut Criterion) {
    let mut group = c.benchmark_group("chord");
    group.sample_size(20);
    for n in [1_000u32, 10_000] {
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        group.bench_with_input(BenchmarkId::new("build", n), &members, |b, m| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| black_box(ChordRing::build(&mut rng, m)))
        });
        let mut rng = StdRng::seed_from_u64(3);
        let ring = ChordRing::build(&mut rng, &members);
        group.bench_with_input(BenchmarkId::new("lookup", n), &ring, |b, ring| {
            let mut rng = StdRng::seed_from_u64(4);
            b.iter(|| {
                let from = NodeId(rng.gen_range(0..n));
                let key = rng.gen::<u64>();
                black_box(ring.lookup(from, key))
            })
        });
    }
    group.finish();
}

fn bench_attacks(c: &mut Criterion) {
    let mut group = c.benchmark_group("attack");
    group.sample_size(20);
    let s = scenario(10_000, 100);
    group.bench_function("one-burst", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        let overlay = Overlay::build(&s, &mut rng);
        b.iter(|| {
            let mut o = overlay.clone();
            black_box(
                OneBurstAttacker::new(AttackBudget::new(200, 2_000))
                    .execute(&mut o, &mut rng),
            )
        })
    });
    group.bench_function("successive", |b| {
        let mut rng = StdRng::seed_from_u64(6);
        let overlay = Overlay::build(&s, &mut rng);
        b.iter(|| {
            let mut o = overlay.clone();
            black_box(
                SuccessiveAttacker::new(
                    AttackBudget::new(200, 2_000),
                    SuccessiveParams::paper_default(),
                )
                .execute(&mut o, &mut rng),
            )
        })
    });
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    let s = scenario(10_000, 100);
    let mut rng = StdRng::seed_from_u64(7);
    let mut overlay = Overlay::build(&s, &mut rng);
    OneBurstAttacker::new(AttackBudget::new(200, 2_000)).execute(&mut overlay, &mut rng);
    for policy in [
        RoutingPolicy::RandomGood,
        RoutingPolicy::FirstGood,
        RoutingPolicy::Backtracking,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy),
            &policy,
            |b, &policy| {
                let mut rng = StdRng::seed_from_u64(8);
                let mut scratch = RouteScratch::new();
                let ctx = RouteCtx::new(&overlay, &Transport::Direct, policy);
                b.iter(|| {
                    let result = route(&ctx, &mut rng, &mut scratch);
                    black_box((result.delivered, result.underlay_hops))
                })
            },
        );
    }
    group.finish();
}

fn bench_monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("monte-carlo");
    group.sample_size(10);
    let cfg = SimulationConfig::new(
        scenario(1_000, 100),
        AttackConfig::OneBurst {
            budget: AttackBudget::new(20, 200),
        },
    )
    .trials(20)
    .routes_per_trial(50)
    .seed(9);
    group.bench_function("20x50-direct", |b| {
        b.iter(|| black_box(Simulation::new(cfg.clone()).run()))
    });
    group.finish();
}

/// Recorder overhead. `untraced` is the production path (no recorder
/// attached — zero observability cost by construction, same code as
/// `monte-carlo/20x50-direct`). `null-recorder` runs the traced runner
/// with the no-op recorder: the `enabled()` guard skips event
/// construction but per-trial metrics are still aggregated, which is
/// the cost of `--metrics-out` alone. `memory-recorder` adds full event
/// capture.
fn bench_recorder_overhead(c: &mut Criterion) {
    use sos_observe::{MemoryRecorder, NullRecorder};
    let mut group = c.benchmark_group("recorder-overhead");
    group.sample_size(10);
    let cfg = SimulationConfig::new(
        scenario(1_000, 100),
        AttackConfig::OneBurst {
            budget: AttackBudget::new(20, 200),
        },
    )
    .trials(20)
    .routes_per_trial(50)
    .seed(9);
    group.bench_function("untraced", |b| {
        b.iter(|| black_box(Simulation::new(cfg.clone()).run()))
    });
    group.bench_function("null-recorder", |b| {
        b.iter(|| black_box(Simulation::new(cfg.clone()).run_traced(&NullRecorder)))
    });
    group.bench_function("memory-recorder", |b| {
        b.iter(|| {
            let recorder = MemoryRecorder::new();
            let out = black_box(Simulation::new(cfg.clone()).run_traced(&recorder));
            black_box(recorder.take_events());
            out
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_overlay_build,
    bench_chord,
    bench_attacks,
    bench_routing,
    bench_monte_carlo,
    bench_recorder_overhead
);
criterion_main!(benches);
