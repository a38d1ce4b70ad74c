//! Overlay membership dynamics (churn).
//!
//! The SOS papers treat the overlay membership as static during an
//! attack; real overlays churn. This module adds a churn process on top
//! of an [`Overlay`]: bystanders arrive and depart, and when an SOS
//! node departs (or is retired by the operator after a compromise) a
//! bystander is *promoted* into its layer — the role replacement the
//! original SOS paper sketches for healing the architecture. The Chord
//! ring can be kept in sync via its `join`/`leave` operations.
//!
//! Churn interacts with attacks in two ways the simulator can measure:
//!
//! * promotion heals layers (a promoted node is fresh: unknown to the
//!   attacker, with a new neighbor table);
//! * departure of *good* SOS nodes is damage the attacker gets for
//!   free.

use crate::node::{NodeId, NodeStatus, Role};
use crate::overlay::Overlay;
use rand::Rng;
use sos_math::sampling::{sample_from, stochastic_round};

/// A single churn event applied to the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A bystander left the overlay (no effect on the architecture).
    BystanderDeparted(NodeId),
    /// An SOS node left; a bystander was promoted into its layer.
    SosReplaced {
        /// The departed SOS node.
        departed: NodeId,
        /// The promoted replacement.
        promoted: NodeId,
        /// 1-based layer affected.
        layer: usize,
    },
    /// An SOS node left and no bystander was available to promote; the
    /// layer shrank by one.
    SosLost {
        /// The departed SOS node.
        departed: NodeId,
        /// 1-based layer affected.
        layer: usize,
    },
}

/// Churn process parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Expected fraction of overlay nodes departing per step.
    pub departure_rate: f64,
    /// Whether departed SOS nodes are replaced by promoted bystanders.
    pub promote_replacements: bool,
}

impl ChurnModel {
    /// Creates a churn model.
    ///
    /// # Panics
    ///
    /// Panics if `departure_rate` is outside `[0, 1]`.
    pub fn new(departure_rate: f64, promote_replacements: bool) -> Self {
        assert!(
            (0.0..=1.0).contains(&departure_rate),
            "departure rate out of range: {departure_rate}"
        );
        ChurnModel {
            departure_rate,
            promote_replacements,
        }
    }

    /// Applies one churn step to `overlay`, returning the events.
    ///
    /// Departing nodes are chosen uniformly among overlay nodes
    /// (filters never churn). A departing SOS node is replaced — if the
    /// model promotes and a good bystander exists — by a uniformly
    /// chosen good bystander, which inherits the layer and draws a
    /// fresh neighbor table of the same size; all neighbor tables
    /// pointing at the departed node are repaired to point at the
    /// replacement.
    pub fn step<R: Rng + ?Sized>(&self, overlay: &mut Overlay, rng: &mut R) -> Vec<ChurnEvent> {
        let n = overlay.overlay_node_count();
        let departures =
            stochastic_round(rng, n as f64 * self.departure_rate).min(n as u64) as usize;
        let all: Vec<NodeId> = overlay.overlay_ids().collect();
        let departing = sample_from(rng, &all, departures);
        let mut events = Vec::with_capacity(departing.len());
        for node in departing {
            match overlay.role(node) {
                Role::Bystander => {
                    // Departure of a bystander only matters if it was
                    // congested (the attacker's slot frees) — status is
                    // reset either way.
                    overlay.set_status(node, NodeStatus::Good);
                    events.push(ChurnEvent::BystanderDeparted(node));
                }
                Role::Filter => unreachable!("filters are not overlay nodes"),
                Role::Sos { layer } => {
                    let layer = layer as usize;
                    let replacement = if self.promote_replacements {
                        self.pick_bystander(overlay, rng)
                    } else {
                        None
                    };
                    match replacement {
                        Some(promoted) => {
                            overlay.replace_sos_node(node, promoted, rng);
                            events.push(ChurnEvent::SosReplaced {
                                departed: node,
                                promoted,
                                layer,
                            });
                        }
                        None => {
                            overlay.retire_sos_node(node);
                            events.push(ChurnEvent::SosLost {
                                departed: node,
                                layer,
                            });
                        }
                    }
                }
            }
        }
        events
    }

    fn pick_bystander<R: Rng + ?Sized>(&self, overlay: &Overlay, rng: &mut R) -> Option<NodeId> {
        let candidates: Vec<NodeId> = overlay
            .overlay_ids()
            .filter(|&id| overlay.role(id) == Role::Bystander && overlay.is_good(id))
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(sample_from(rng, &candidates, 1)[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sos_core::{MappingDegree, Scenario, SystemParams};

    fn overlay(seed: u64) -> Overlay {
        let scenario = Scenario::builder()
            .system(SystemParams::new(500, 60, 0.5).unwrap())
            .layers(3)
            .mapping(MappingDegree::OneTo(2))
            .filters(10)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Overlay::build(&scenario, &mut rng)
    }

    #[test]
    fn churn_preserves_sos_population_with_promotion() {
        let mut o = overlay(1);
        let mut rng = StdRng::seed_from_u64(2);
        let model = ChurnModel::new(0.10, true);
        for _ in 0..10 {
            model.step(&mut o, &mut rng);
        }
        let total: usize = (1..=3)
            .map(|l| o.layer_members(l).len())
            .collect::<Vec<_>>()
            .iter()
            .sum();
        assert_eq!(total, 60, "promotion must conserve SOS membership");
        // Layer membership and roles stay consistent.
        for layer in 1..=3usize {
            for &m in o.layer_members(layer) {
                assert_eq!(o.layer_of(m), Some(layer));
            }
        }
    }

    #[test]
    fn churn_without_promotion_shrinks_layers() {
        let mut o = overlay(3);
        let mut rng = StdRng::seed_from_u64(4);
        let model = ChurnModel::new(0.10, false);
        let mut lost = 0;
        for _ in 0..10 {
            for e in model.step(&mut o, &mut rng) {
                if matches!(e, ChurnEvent::SosLost { .. }) {
                    lost += 1;
                }
            }
        }
        let total: usize = (1..=3).map(|l| o.layer_members(l).len()).sum();
        assert_eq!(total, 60 - lost);
        assert!(lost > 0, "10% churn for 10 steps should hit SOS nodes");
    }

    #[test]
    fn promoted_nodes_have_fresh_tables_and_inbound_repairs() {
        let mut o = overlay(5);
        let mut rng = StdRng::seed_from_u64(6);
        // Deterministic single replacement via the Overlay API (a step
        // with many events can re-churn the same node, so assert on one
        // isolated swap).
        let departed = o.layer_members(2)[0];
        let promoted = o
            .overlay_ids()
            .find(|&id| o.role(id) == Role::Bystander)
            .unwrap();
        o.replace_sos_node(departed, promoted, &mut rng);
        assert_eq!(o.layer_of(promoted), Some(2));
        assert_eq!(o.role(departed), Role::Bystander);
        // Fresh table of the mapping degree into layer 3.
        assert_eq!(o.neighbors(promoted).len(), 2);
        for &nb in o.neighbors(promoted) {
            assert_eq!(o.layer_of(nb), Some(3));
        }
        // No neighbor table still points at the departed node.
        for id in o.overlay_ids() {
            assert!(
                !o.neighbors(id).contains(&departed),
                "{id} still points at departed {departed}"
            );
        }
        // Churn steps with promotion keep producing replacement events.
        let model = ChurnModel::new(0.2, true);
        let mut replaced = 0;
        for _ in 0..10 {
            for e in model.step(&mut o, &mut rng) {
                if matches!(e, ChurnEvent::SosReplaced { .. }) {
                    replaced += 1;
                }
            }
        }
        assert!(replaced > 0, "no replacement in 10 steps at 20% churn");
    }

    #[test]
    fn zero_churn_is_identity() {
        let mut o = overlay(7);
        let before_l1 = o.layer_members(1).to_vec();
        let mut rng = StdRng::seed_from_u64(8);
        let events = ChurnModel::new(0.0, true).step(&mut o, &mut rng);
        assert!(events.is_empty());
        assert_eq!(o.layer_members(1), &before_l1[..]);
    }

    #[test]
    #[should_panic(expected = "departure rate out of range")]
    fn invalid_rate_rejected() {
        ChurnModel::new(1.5, true);
    }
}
