//! The traced run: a replay of the engine's trial loop from the
//! library's public functions, with a timer around each layer.
//!
//! The replay derives every per-trial RNG stream exactly as
//! `Simulation` does (`trial_stream_seed` and the `stream` tags, lane
//! seeds inside `RouteBatchScratch::evaluate`), so it delivers exactly
//! the routes the engine delivers; the run checks that for every spec.
//! It rebuilds every trial's overlay, so its `build` layer is what the
//! engine pays when its build memo misses. Spans and per-layer times
//! come only from here: end-to-end numbers come from untraced runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use sos_attack::{OneBurstAttacker, SuccessiveAttacker};
use sos_core::{AttackConfig, PathEvaluator};
use sos_faults::{FaultConfig, FaultPlan, RetryPolicy};
use sos_overlay::{ChordRing, NodeBitSet, NodeId, Overlay, Transport};
use sos_serve::spec::{parse_faults, parse_policy, parse_retry, parse_transport};
use sos_serve::SimSpec;
use sos_sim::routing::RouteScratch;
use sos_sim::{stream, trial_stream_seed, RouteBatchScratch, Simulation, TransportKind};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Route lanes per `evaluate` call: the engine's default batch width.
const LANES: u64 = 64;

/// Layer self times, summed over every replayed trial.
#[derive(Debug, Default)]
pub struct Layers {
    /// `Overlay::build_into` (+ member collection and
    /// `ChordRing::build_into` on Chord).
    pub build: Duration,
    /// The attacker's `execute` plus `Transport::sync_damage`.
    pub attack: Duration,
    /// `compromise_state` plus both evaluators' `success_probability`.
    pub price: Duration,
    /// `refresh_alive_positions` plus every `evaluate` chunk.
    pub route: Duration,
    /// Whole replayed trials (the layers plus the replay's own glue).
    pub total: Duration,
    /// `Simulation::run` on the same specs, untraced: the engine's own
    /// time for the trials the replay reproduces.
    pub engine: Duration,
    /// Trials replayed.
    pub trials: u64,
    /// Routes attempted.
    pub routes: u64,
    /// Routes delivered.
    pub delivered: u64,
}

impl Layers {
    fn per_trial_us(&self, d: Duration) -> f64 {
        d.as_secs_f64() * 1e6 / self.trials.max(1) as f64
    }

    /// The replayed trials' time outside the four layers (seed
    /// derivation, fault plans, counting deliveries), so that the
    /// layers and it sum to [`Layers::total`].
    fn unattributed(&self) -> Duration {
        self.total
            .saturating_sub(self.build + self.attack + self.price + self.route)
    }

    /// Unattributed time as a share of the replayed trials' time.
    pub fn unattributed_share(&self) -> f64 {
        self.unattributed().as_secs_f64() / self.total.as_secs_f64().max(1e-12)
    }

    /// The per-layer metrics, in catalogue order: self time per
    /// replayed trial.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("build_us", self.per_trial_us(self.build)),
            ("attack_us", self.per_trial_us(self.attack)),
            ("price_us", self.per_trial_us(self.price)),
            ("route_us", self.per_trial_us(self.route)),
            ("unattributed_us", self.per_trial_us(self.unattributed())),
        ]
    }

    /// The layer table of `layers.json`: the metrics, their total, and
    /// the figures that say whether the replay is faithful (replayed
    /// over engine time is the tracing overhead; deliveries and trial
    /// counts are checks, not metrics).
    pub fn doc(&self) -> Value {
        json!({
            "self_us_per_trial": Value::Map(
                self.metrics()
                    .into_iter()
                    .map(|(name, us)| (name.trim_end_matches("_us").to_string(), json!(us)))
                    .collect(),
            ),
            "total_us_per_trial": self.per_trial_us(self.total),
            "unattributed_share": self.unattributed_share(),
            "engine_us_per_trial": self.per_trial_us(self.engine),
            "replay_over_engine": self.total.as_secs_f64() / self.engine.as_secs_f64().max(1e-12),
            "delivered_ratio": self.delivered as f64 / self.routes.max(1) as f64,
            "trials": self.trials,
        })
    }
}

/// One recorded span (Chrome trace "complete" event).
struct Span {
    name: &'static str,
    start: Duration,
    dur: Duration,
    id: u64,
    parent: u64,
}

/// Replays specs trial by trial, reusing its buffers across trials as
/// the engine's one-shot scratch does.
pub struct Replayer {
    epoch: Instant,
    overlay: Option<Overlay>,
    chord: Option<Transport>,
    direct: Transport,
    members: Vec<NodeId>,
    mask: NodeBitSet,
    batch: RouteBatchScratch,
    oracle: RouteScratch,
    /// Whether to keep spans (the first pass only, to bound memory).
    pub recording: bool,
    spans: Vec<Span>,
}

impl Replayer {
    /// A replayer whose span clock starts now.
    pub fn new() -> Self {
        Replayer {
            epoch: Instant::now(),
            overlay: None,
            chord: None,
            direct: Transport::Direct,
            members: Vec::new(),
            mask: NodeBitSet::new(),
            batch: RouteBatchScratch::new(),
            oracle: RouteScratch::new(),
            recording: true,
            spans: Vec::new(),
        }
    }

    /// Runs `spec` through the engine, then replays it with layer
    /// timers; fails when the replay delivers a different count.
    pub fn replay(&mut self, spec: &SimSpec, layers: &mut Layers) -> Result<(), String> {
        let err = |e: sos_serve::SpecError| e.to_string();
        let config = spec.sim_config().map_err(err)?;
        let started = Instant::now();
        let engine = black_box(Simulation::new(config).run());
        layers.engine += started.elapsed();

        let scenario = spec.scenario().map_err(err)?;
        let attack = spec.attack().map_err(err)?;
        let policy = parse_policy(&spec.policy).map_err(err)?;
        let chord = parse_transport(&spec.transport).map_err(err)? == TransportKind::Chord;
        let faults = match &spec.faults {
            Some(raw) => parse_faults(raw).map_err(err)?,
            None => FaultConfig::none(),
        };
        let retry = match &spec.retry {
            Some(raw) => parse_retry(raw).map_err(err)?,
            None => RetryPolicy::none(),
        };
        let mut delivered = 0u64;
        for trial in 0..spec.trials {
            let trial_start = Instant::now();
            let seed = |tag| trial_stream_seed(spec.seed, tag, trial);
            let mut rng = StdRng::seed_from_u64(seed(stream::ATTACK));
            let plan = (!faults.is_none()).then(|| FaultPlan::new(&faults, trial));
            let Replayer {
                overlay,
                chord: ring_slot,
                direct,
                members,
                mask,
                batch,
                oracle,
                ..
            } = self;

            let t_build = Instant::now();
            let mut build_rng = StdRng::seed_from_u64(seed(stream::OVERLAY_BUILD));
            let overlay = match overlay {
                Some(o) => {
                    o.build_into(&scenario, &mut build_rng);
                    o
                }
                None => overlay.insert(Overlay::build(&scenario, &mut build_rng)),
            };
            let transport = if chord {
                members.clear();
                members.extend(overlay.overlay_ids());
                let mut ring_rng = StdRng::seed_from_u64(seed(stream::RING_BUILD));
                match ring_slot {
                    Some(Transport::Chord(ring)) => ring.build_into(&mut ring_rng, members),
                    _ => {
                        *ring_slot =
                            Some(Transport::Chord(ChordRing::build(&mut ring_rng, members)))
                    }
                }
                ring_slot.as_mut().expect("ring just built")
            } else {
                direct
            };

            let t_attack = Instant::now();
            match attack {
                AttackConfig::OneBurst { budget } => {
                    black_box(OneBurstAttacker::new(budget).execute(overlay, &mut rng));
                }
                AttackConfig::Successive { budget, params } => {
                    black_box(SuccessiveAttacker::new(budget, params).execute(overlay, &mut rng));
                }
            }
            transport.sync_damage(overlay);

            let t_price = Instant::now();
            let state = overlay.compromise_state();
            for evaluator in [PathEvaluator::Hypergeometric, PathEvaluator::Binomial] {
                black_box(evaluator.success_probability(scenario.topology(), &state));
            }

            let t_route = Instant::now();
            let alive = transport
                .refresh_alive_positions(overlay, plan.as_ref(), mask)
                .then_some(&*mask);
            let route_master = seed(stream::ROUTE);
            batch.begin_trial();
            let mut first = 0u64;
            while first < spec.routes {
                let count = (spec.routes - first).min(LANES) as usize;
                batch.evaluate(
                    overlay,
                    transport,
                    policy,
                    plan.as_ref(),
                    &retry,
                    route_master,
                    first,
                    count,
                    alive,
                    oracle,
                    true,
                );
                delivered += (0..count)
                    .filter(|&lane| batch.result(lane).delivered)
                    .count() as u64;
                first += count as u64;
            }
            let t_end = Instant::now();

            layers.build += t_attack - t_build;
            layers.attack += t_price - t_attack;
            layers.price += t_route - t_price;
            layers.route += t_end - t_route;
            layers.total += t_end - trial_start;
            if self.recording {
                let id = self.spans.len() as u64 + 1;
                self.span("trial", trial_start, t_end, id, 0);
                self.span("build", t_build, t_attack, id + 1, id);
                self.span("attack", t_attack, t_price, id + 2, id);
                self.span("price", t_price, t_route, id + 3, id);
                self.span("route", t_route, t_end, id + 4, id);
            }
        }
        layers.trials += spec.trials;
        layers.routes += spec.trials * spec.routes;
        layers.delivered += delivered;
        if delivered == engine.successes {
            Ok(())
        } else {
            Err(format!(
                "replay of seed {} delivered {delivered} routes, the engine {}",
                spec.seed, engine.successes
            ))
        }
    }

    fn span(&mut self, name: &'static str, start: Instant, end: Instant, id: u64, parent: u64) {
        self.spans.push(Span {
            name,
            start: start - self.epoch,
            dur: end - start,
            id,
            parent,
        });
    }

    /// The recorded spans as Chrome trace events tagged with `workload`.
    pub fn trace_events(&self, workload: &str) -> Vec<Value> {
        self.spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "cat": workload,
                    "ph": "X",
                    "ts": s.start.as_secs_f64() * 1e6,
                    "dur": s.dur.as_secs_f64() * 1e6,
                    "pid": 1u64,
                    "tid": 1u64,
                    "args": { "id": s.id, "parent": s.parent, "workload": workload },
                })
            })
            .collect()
    }
}
