//! Criterion benches for the deeper substrates: the exact congestion
//! analysis, the design optimizer, the Chord maintenance protocol, the
//! flow model, and the index sampler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_analysis::{
    AttackProfile, DesignSpace, ExactCongestionAnalysis, Optimizer,
};
use sos_core::{
    AttackBudget, AttackConfig, MappingDegree, Scenario, SuccessiveParams, SystemParams,
};
use sos_des::Scheduler;
use sos_math::sampling::IndexSampler;
use sos_overlay::protocol::{run_maintenance, ChordProtocol, ProtocolConfig};
use sos_overlay::NodeId;
use sos_sim::{FlowModel, FlowSimulation};
use std::collections::HashSet;
use std::hint::black_box;

fn scenario(mapping: MappingDegree) -> Scenario {
    Scenario::builder()
        .system(SystemParams::paper_default())
        .layers(3)
        .mapping(mapping)
        .filters(10)
        .build()
        .expect("valid")
}

fn bench_exact_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact-congestion");
    for mapping in [MappingDegree::ONE_TO_ONE, MappingDegree::OneToAll] {
        let s = scenario(mapping.clone());
        group.bench_with_input(
            BenchmarkId::from_parameter(mapping.label()),
            &s,
            |b, s| {
                b.iter(|| {
                    black_box(
                        ExactCongestionAnalysis::new(s, 2_000)
                            .unwrap()
                            .success_probability(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer");
    group.sample_size(10);
    let profiles = vec![
        AttackProfile::new(
            "flooder",
            AttackConfig::OneBurst {
                budget: AttackBudget::congestion_only(6_000),
            },
        ),
        AttackProfile::new(
            "intruder",
            AttackConfig::Successive {
                budget: AttackBudget::new(2_000, 1_000),
                params: SuccessiveParams::new(5, 0.2).unwrap(),
            },
        ),
    ];
    group.bench_function("paper-grid-2-profiles", |b| {
        b.iter(|| {
            black_box(
                Optimizer::new(
                    SystemParams::paper_default(),
                    DesignSpace::paper_grid(),
                    profiles.clone(),
                )
                .run()
                .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_chord_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("chord-protocol");
    group.sample_size(10);
    group.bench_function("build-128-ring", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut proto = ChordProtocol::new(ProtocolConfig::default());
            let mut sched = Scheduler::new();
            let mut ids: Vec<u64> = Vec::new();
            for i in 0..128u32 {
                let id = loop {
                    let id = rng.gen::<u64>();
                    if !ids.contains(&id) {
                        break id;
                    }
                };
                ids.push(id);
                if i == 0 {
                    proto.bootstrap(id, NodeId(i), &mut sched);
                } else {
                    let via = ids[rng.gen_range(0..i as usize)];
                    proto.join(id, NodeId(i), via, &mut sched);
                    let now = sched.now();
                    run_maintenance(&mut proto, &mut sched, now + 30);
                }
            }
            black_box(proto.convergence_fraction())
        })
    });
    group.bench_function("converge-400-ring", |b| {
        b.iter(|| black_box(staleness_sized_ring().0.convergence_fraction()))
    });
    // The attack kills 45% of the converged ring and no maintenance has
    // run yet: pointers are stale, and some lookups circle a loop of
    // them until the hop budget runs out.
    let (mut proto, ids) = staleness_sized_ring();
    let mut rng = StdRng::seed_from_u64(8);
    let mut killed = HashSet::new();
    while killed.len() < ids.len() * 45 / 100 {
        let victim = ids[rng.gen_range(0..ids.len())];
        if killed.insert(victim) {
            proto.kill(victim);
        }
    }
    let alive = proto.alive_ids();
    let lookups: Vec<(u64, u64)> = (0..1_000)
        .map(|_| (alive[rng.gen_range(0..alive.len())], rng.gen()))
        .collect();
    group.bench_function("lookups-after-mass-kill", |b| {
        b.iter(|| {
            black_box(
                lookups
                    .iter()
                    .filter(|&&(from, key)| proto.lookup_with_hops(from, key, None).is_some())
                    .count(),
            )
        })
    });
    group.finish();
}

/// `ext-staleness` sizing: 400 nodes with a short successor list,
/// maintenance for 25 ticks after every 8th join, then 3,000 ticks of
/// settling. Returns the ring and its ids in join order.
fn staleness_sized_ring() -> (ChordProtocol, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = ProtocolConfig {
        successor_list_len: 3,
        ..ProtocolConfig::default()
    };
    let mut proto = ChordProtocol::new(cfg);
    let mut sched = Scheduler::new();
    let mut ids = Vec::with_capacity(400);
    let mut used = HashSet::with_capacity(400);
    for i in 0..400u32 {
        let mut id = rng.gen::<u64>();
        while !used.insert(id) {
            id = rng.gen::<u64>();
        }
        ids.push(id);
        if i == 0 {
            proto.bootstrap(id, NodeId(i), &mut sched);
        } else {
            let via = ids[rng.gen_range(0..i as usize)];
            proto.join(id, NodeId(i), via, &mut sched);
            if i % 8 == 0 {
                let now = sched.now();
                run_maintenance(&mut proto, &mut sched, now + 25);
            }
        }
    }
    let now = sched.now();
    run_maintenance(&mut proto, &mut sched, now + 3_000);
    (proto, ids)
}

fn bench_flow_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow-model");
    group.sample_size(10);
    let s = Scenario::builder()
        .system(SystemParams::new(1_000, 100, 0.5).unwrap())
        .layers(3)
        .mapping(MappingDegree::OneTo(2))
        .filters(10)
        .build()
        .unwrap();
    group.bench_function("20x50", |b| {
        b.iter(|| {
            black_box(
                FlowSimulation::new(
                    s.clone(),
                    AttackConfig::OneBurst {
                        budget: AttackBudget::new(50, 300),
                    },
                    FlowModel::new(100.0, 300.0),
                    20,
                    50,
                    3,
                )
                .run(),
            )
        })
    });
    group.finish();
}

/// One reused `IndexSampler` draw per iteration, `(n, k)` shaped like
/// its callers: a one-to-5 entry sample and a one-to-all neighbour
/// table over a ~33-node layer, and the SOS membership draw at
/// N = 10,000.
fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    for (n, k) in [(33usize, 5usize), (33, 33), (10_000, 100)] {
        group.bench_function(BenchmarkId::new("draw", format!("{n}-choose-{k}")), |b| {
            let mut rng = StdRng::seed_from_u64(11);
            let mut sampler = IndexSampler::new();
            let mut out = Vec::with_capacity(k);
            b.iter(|| {
                sampler.sample_indices_into(&mut rng, black_box(n), black_box(k), &mut out);
                black_box(out[0])
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_exact_analysis,
    bench_optimizer,
    bench_chord_protocol,
    bench_flow_model,
    bench_sampling
);
criterion_main!(benches);
