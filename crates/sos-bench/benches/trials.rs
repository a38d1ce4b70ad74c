//! Trial-throughput benches for the zero-rebuild engine: full Monte
//! Carlo trials (overlay build, attack, routing) per transport and
//! overlay size. The repository's benchmark, with repeated runs and
//! committed medians, is `bench/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sos_core::{AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams};
use sos_sim::engine::{Simulation, SimulationConfig, TransportKind};
use std::hint::black_box;

fn scenario(big_n: u64) -> Scenario {
    Scenario::builder()
        .system(SystemParams::new(big_n, 100, 0.5).expect("valid"))
        .layers(3)
        .mapping(MappingDegree::OneTo(5))
        .filters(10)
        .build()
        .expect("valid")
}

fn bench_trial_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("trial-throughput");
    group.sample_size(10);
    for (label, kind) in [
        ("direct", TransportKind::Direct),
        ("chord", TransportKind::Chord),
    ] {
        for big_n in [1_000u64, 10_000, 100_000] {
            let cfg = SimulationConfig::new(
                scenario(big_n),
                AttackConfig::OneBurst {
                    budget: AttackBudget::new(100, 1_000),
                },
            )
            .trials(2)
            .routes_per_trial(20)
            .seed(13)
            .transport(kind);
            group.bench_with_input(BenchmarkId::new(label, big_n), &cfg, |b, cfg| {
                b.iter(|| black_box(Simulation::new(cfg.clone()).run()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_trial_throughput);
criterion_main!(benches);
