//! Capacity-based congestion: what the binary "congested = dead"
//! assumption hides.
//!
//! The paper models a congested node as simply non-functional. In a
//! real deployment congestion is a *load* phenomenon: an attacked node
//! with capacity `C` msg/tick under attack load `a` still serves a
//! legitimate message with probability `C / (C + a)` (processor
//! sharing). This module re-runs the attack with the congestion budget
//! interpreted as load — each congestion slot carries
//! [`FlowModel::load_per_slot`] units, split evenly over the attacker's
//! chosen targets — and measures the resulting end-to-end delivery
//! probability.
//!
//! As `load_per_slot / node_capacity → ∞` the flow model converges to
//! the paper's binary model (verified by tests); at finite ratios the
//! architecture degrades gracefully, which shifts the design trade-offs
//! measurably (the `ext-flow` experiment).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_attack::{OneBurstAttacker, SuccessiveAttacker};
use sos_core::{AttackConfig, Scenario};
use sos_math::sampling::{shuffle, IndexSampler};
use sos_math::stats::{proportion_ci, ConfidenceInterval};
use sos_overlay::{NodeId, NodeStatus, Overlay};

/// Load-model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowModel {
    /// Useful work a node can do per tick (legitimate service capacity).
    pub node_capacity: f64,
    /// Attack load carried by one congestion slot.
    pub load_per_slot: f64,
}

impl FlowModel {
    /// Creates a flow model.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    pub fn new(node_capacity: f64, load_per_slot: f64) -> Self {
        assert!(
            node_capacity > 0.0 && node_capacity.is_finite(),
            "capacity must be positive and finite"
        );
        assert!(
            load_per_slot > 0.0 && load_per_slot.is_finite(),
            "load per slot must be positive and finite"
        );
        FlowModel {
            node_capacity,
            load_per_slot,
        }
    }

    /// Probability a node under `load` serves a legitimate message.
    pub fn service_probability(&self, load: f64) -> f64 {
        self.node_capacity / (self.node_capacity + load.max(0.0))
    }
}

/// Result of a flow-model Monte Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowResult {
    /// Delivered messages.
    pub successes: u64,
    /// Total messages routed.
    pub attempts: u64,
    /// Mean attack load per loaded node (diagnostic).
    pub mean_load_per_target: f64,
}

impl FlowResult {
    /// Empirical delivery probability.
    pub fn delivery_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }

    /// Wilson interval on the delivery rate.
    ///
    /// # Panics
    ///
    /// Panics with zero attempts.
    pub fn confidence_interval(&self, level: f64) -> ConfidenceInterval {
        proportion_ci(self.successes, self.attempts, level)
    }
}

/// Monte Carlo runner for the flow model.
#[derive(Debug, Clone)]
pub struct FlowSimulation {
    scenario: Scenario,
    attack: AttackConfig,
    flow: FlowModel,
    trials: u64,
    routes_per_trial: u64,
    seed: u64,
}

impl FlowSimulation {
    /// Creates the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or `routes_per_trial == 0`.
    pub fn new(
        scenario: Scenario,
        attack: AttackConfig,
        flow: FlowModel,
        trials: u64,
        routes_per_trial: u64,
        seed: u64,
    ) -> Self {
        assert!(trials > 0, "at least one trial");
        assert!(routes_per_trial > 0, "at least one route per trial");
        FlowSimulation {
            scenario,
            attack,
            flow,
            trials,
            routes_per_trial,
            seed,
        }
    }

    /// Runs all trials.
    pub fn run(&self) -> FlowResult {
        let mut successes = 0u64;
        let mut attempts = 0u64;
        let mut load_sum = 0.0f64;
        let mut load_count = 0u64;
        // Attack load per node index (0.0 = unloaded), the routing
        // scratch and the overlay, all reused across trials.
        let mut load: Vec<f64> = Vec::new();
        let mut sampler = IndexSampler::new();
        let mut candidates: Vec<NodeId> = Vec::new();
        let mut reused: Option<Overlay> = None;
        for trial in 0..self.trials {
            let mut rng =
                StdRng::seed_from_u64(self.seed ^ trial.wrapping_mul(0xA076_1D64_78BD_642F));
            // `build_into` draws exactly what `build` draws.
            let overlay = match &mut reused {
                Some(overlay) => {
                    overlay.build_into(&self.scenario, &mut rng);
                    overlay
                }
                None => reused.insert(Overlay::build(&self.scenario, &mut rng)),
            };
            // Execute the attack with binary semantics to obtain the
            // attacker's target choice, then reinterpret congestion as
            // load.
            let outcome = match self.attack {
                AttackConfig::OneBurst { budget } => {
                    OneBurstAttacker::new(budget).execute(overlay, &mut rng)
                }
                AttackConfig::Successive { budget, params } => {
                    SuccessiveAttacker::new(budget, params).execute(overlay, &mut rng)
                }
            };
            let budget = self.attack.budget();
            let total_load = budget.congestion_capacity as f64 * self.flow.load_per_slot;
            load.clear();
            load.resize(overlay.total_node_count(), 0.0);
            if !outcome.congested.is_empty() {
                let per_target = total_load / outcome.congested.len() as f64;
                for &t in &outcome.congested {
                    load[t.index()] = per_target;
                    load_sum += per_target;
                    load_count += 1;
                }
            }
            // Un-congest: in the flow model those nodes are loaded, not
            // dead (broken nodes stay dead).
            for &t in &outcome.congested {
                overlay.set_status(t, NodeStatus::Good);
            }

            for _ in 0..self.routes_per_trial {
                attempts += 1;
                if self.route_with_load(overlay, &load, &mut rng, &mut sampler, &mut candidates) {
                    successes += 1;
                }
            }
        }
        FlowResult {
            successes,
            attempts,
            mean_load_per_target: if load_count == 0 {
                0.0
            } else {
                load_sum / load_count as f64
            },
        }
    }

    /// One routing attempt. At every layer the sender tries its
    /// neighbors in random order, retransmitting to the next neighbor
    /// when a message is dropped — the flow-model analogue of the binary
    /// model's "fail only if *all* `m_i` neighbors are bad" semantics
    /// (and what makes the crushing-load limit converge to it). Broken
    /// nodes are hard-dead; loaded nodes drop probabilistically.
    fn route_with_load(
        &self,
        overlay: &Overlay,
        load: &[f64],
        rng: &mut StdRng,
        sampler: &mut IndexSampler,
        candidates: &mut Vec<NodeId>,
    ) -> bool {
        let last_layer = overlay.layer_count() + 1;
        overlay.sample_entry_points_into(rng, sampler, candidates);
        loop {
            shuffle(rng, candidates);
            let mut forwarded: Option<NodeId> = None;
            for &node in candidates.iter() {
                if overlay.status(node) == NodeStatus::Broken {
                    continue;
                }
                let service = self.flow.service_probability(load[node.index()]);
                if rng.gen::<f64>() < service {
                    forwarded = Some(node);
                    break;
                }
            }
            let Some(node) = forwarded else {
                return false; // every neighbor dead or dropping
            };
            let layer = overlay
                .layer_of(node)
                .expect("routed nodes are infrastructure");
            if layer == last_layer {
                return true;
            }
            candidates.clear();
            candidates.extend_from_slice(overlay.neighbors(node));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_core::{AttackBudget, MappingDegree, SystemParams};

    fn scenario(mapping: MappingDegree) -> Scenario {
        Scenario::builder()
            .system(SystemParams::new(1_000, 60, 0.5).unwrap())
            .layers(3)
            .mapping(mapping)
            .filters(10)
            .build()
            .unwrap()
    }

    fn sim(load_per_slot: f64, n_c: u64) -> FlowSimulation {
        FlowSimulation::new(
            scenario(MappingDegree::OneTo(2)),
            AttackConfig::OneBurst {
                budget: AttackBudget::new(50, n_c),
            },
            FlowModel::new(100.0, load_per_slot),
            50,
            60,
            13,
        )
    }

    #[test]
    fn service_probability_shape() {
        let m = FlowModel::new(100.0, 1.0);
        assert_eq!(m.service_probability(0.0), 1.0);
        assert!((m.service_probability(100.0) - 0.5).abs() < 1e-12);
        assert!(m.service_probability(1e9) < 1e-6);
        assert_eq!(m.service_probability(-5.0), 1.0, "negative load clamps");
    }

    #[test]
    fn no_attack_load_delivers_everything_not_broken() {
        // Zero congestion budget: only break-ins hurt.
        let result = sim(10.0, 0).run();
        assert!(result.delivery_rate() > 0.5);
        assert_eq!(result.mean_load_per_target, 0.0);
    }

    #[test]
    fn heavier_per_slot_load_hurts_more() {
        let light = sim(10.0, 300).run();
        let heavy = sim(10_000.0, 300).run();
        assert!(
            heavy.delivery_rate() < light.delivery_rate(),
            "heavy {} vs light {}",
            heavy.delivery_rate(),
            light.delivery_rate()
        );
    }

    #[test]
    fn infinite_load_limit_approaches_binary_model() {
        // With crushing per-slot load the flow model must match the
        // binary simulation on the same scenario/attack/seed closely.
        let flow = FlowSimulation::new(
            scenario(MappingDegree::OneTo(2)),
            AttackConfig::OneBurst {
                budget: AttackBudget::new(50, 300),
            },
            FlowModel::new(100.0, 1e12),
            80,
            60,
            17,
        )
        .run();
        let binary = crate::engine::Simulation::new(
            crate::engine::SimulationConfig::new(
                scenario(MappingDegree::OneTo(2)),
                AttackConfig::OneBurst {
                    budget: AttackBudget::new(50, 300),
                },
            )
            .trials(80)
            .routes_per_trial(60)
            .seed(17),
        )
        .run();
        assert!(
            (flow.delivery_rate() - binary.success_rate()).abs() < 0.06,
            "flow {} vs binary {}",
            flow.delivery_rate(),
            binary.success_rate()
        );
    }

    #[test]
    fn graceful_degradation_beats_binary_at_moderate_load() {
        // The binary model is pessimistic when attack load is spread
        // thin: loaded nodes still serve most traffic.
        let flow = sim(10.0, 300).run(); // 3000 load over ~targets, C=100
        let binary = crate::engine::Simulation::new(
            crate::engine::SimulationConfig::new(
                scenario(MappingDegree::OneTo(2)),
                AttackConfig::OneBurst {
                    budget: AttackBudget::new(50, 300),
                },
            )
            .trials(50)
            .routes_per_trial(60)
            .seed(13),
        )
        .run();
        assert!(
            flow.delivery_rate() > binary.success_rate(),
            "flow {} should exceed binary {}",
            flow.delivery_rate(),
            binary.success_rate()
        );
    }

    #[test]
    fn confidence_interval_brackets_rate() {
        let result = sim(100.0, 200).run();
        let ci = result.confidence_interval(0.95);
        assert!(ci.contains(result.delivery_rate()));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn invalid_capacity_rejected() {
        FlowModel::new(0.0, 1.0);
    }
}
