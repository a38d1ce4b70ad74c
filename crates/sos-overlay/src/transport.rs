//! How one logical overlay hop (layer `i−1` node → layer `i` neighbor)
//! is realized.
//!
//! The ICDCS analysis treats a hop as a direct message: it succeeds iff
//! the destination is good. The original SOS system actually routes each
//! hop over Chord, so a hop can *also* fail because every Chord route to
//! the destination is blocked by compromised intermediate nodes. The
//! difference between the two transports is measured by the
//! `ablation-chord` experiment.

use crate::bitset::NodeBitSet;
use crate::chord::ChordRing;
use crate::node::{NodeId, Role};
use crate::overlay::Overlay;
use crate::protocol::ChordProtocol;
use sos_faults::{FaultPlan, HopIncident, RetryPolicy};

/// Outcome of delivering one logical hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The message reached the destination in `hops` underlay hops.
    Delivered {
        /// Underlay hops traversed (1 for direct transport).
        hops: usize,
    },
    /// No usable route: the destination is bad, or (Chord transport)
    /// every route is blocked by bad intermediate nodes.
    Blocked,
}

impl DeliveryOutcome {
    /// Whether the hop succeeded.
    pub fn is_delivered(&self) -> bool {
        matches!(self, DeliveryOutcome::Delivered { .. })
    }
}

/// Result of one hop delivery ([`Transport::deliver`]): the outcome
/// plus what the fault plane and the retry loop did along the way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopDelivery {
    /// Final outcome after all attempts.
    pub outcome: DeliveryOutcome,
    /// Delivery attempts made (1 when no fault plan is active).
    pub attempts: u32,
    /// Simulated ticks spent on backoff, delays and slow-downs.
    pub ticks: u64,
    /// Everything the fault plane injected, in order.
    pub incidents: Vec<HopIncident>,
}

impl HopDelivery {
    /// Whether the hop ultimately succeeded.
    pub fn is_delivered(&self) -> bool {
        self.outcome.is_delivered()
    }
}

/// Everything a hop delivery reads besides the transport and the hop's
/// endpoints.
#[derive(Debug, Clone, Copy)]
pub struct HopCtx<'a> {
    /// The (possibly damaged) overlay the hop runs on.
    pub overlay: &'a Overlay,
    /// The trial's fault plane; `None` delivers fault-free in one
    /// attempt and zero ticks.
    pub faults: Option<&'a FaultPlan>,
    /// How failed attempts are retried (only consulted with a plan).
    pub retry: &'a RetryPolicy,
    /// Precomputed ring-position liveness mask of the Chord substrate
    /// (see [`Transport::refresh_alive_positions`]); `None` derives
    /// liveness per node through the overlay. The mask must encode the
    /// predicate the per-node path evaluates — the node is good and,
    /// with a plan, not benignly crashed — in which case the routing
    /// decisions are bit-identical.
    pub alive: Option<&'a NodeBitSet>,
}

/// The single-attempt, fault-free retry policy [`HopCtx::new`] uses.
const NO_RETRY: RetryPolicy = RetryPolicy::none();

impl<'a> HopCtx<'a> {
    /// A fault-free, unmasked hop context on `overlay`.
    pub fn new(overlay: &'a Overlay) -> Self {
        HopCtx {
            overlay,
            faults: None,
            retry: &NO_RETRY,
            alive: None,
        }
    }
}

/// Transport used between overlay nodes.
#[derive(Debug, Clone)]
pub enum Transport {
    /// Hops are direct messages — the paper's abstraction.
    Direct,
    /// Hops traverse the Chord ring; intermediate nodes must be good.
    /// Filters are infrastructure off the ring, so the final
    /// servlet→filter hop is always direct.
    Chord(ChordRing),
    /// Hops resolve through the *protocol* state (possibly stale
    /// fingers and successor lists) — the transport for measuring what
    /// an attack costs while the ring is still converging. A hop fails
    /// when the protocol's lookup misroutes (stale owner) or dead
    /// pointers exhaust the successor lists. After damaging the
    /// overlay, call [`Transport::sync_damage`] to mirror the damage
    /// onto the protocol ring (it no-ops for the other variants, so it
    /// is always safe to call unconditionally).
    Protocol(ChordProtocol),
}

impl Transport {
    /// Delivers one logical hop from `from` to `to`.
    ///
    /// The sender `from` is assumed functional (it is the node currently
    /// holding the message); the destination must be good; under
    /// [`Transport::Chord`] every intermediate node must be good as well.
    ///
    /// Without a fault plan (`hop.faults == None`) this is one attempt
    /// in zero ticks with no incidents, the paper's fault-unaware hop.
    /// With a plan every attempt consults the fault plane, benignly
    /// crashed nodes are excluded from substrate routing, and failed
    /// attempts are retried per `hop.retry` (exponential backoff in
    /// simulated ticks, bounded by the per-route deadline budget):
    ///
    /// - **Compromised destination** — blocked, no incident (that is the
    ///   attack, not a fault, and no amount of retrying helps).
    /// - **Crashed destination / crashed-out route** — blocked; benign
    ///   but persistent for the trial, so retries are not attempted
    ///   (resp. only attempted when misrouting makes reattempts vary).
    /// - **Loss** — transient: the attempt dies, the retry loop backs
    ///   off and tries again. This is the fault class retries recover.
    /// - **Delay / slow destination** — the hop succeeds with added
    ///   simulated ticks.
    /// - **Misroute** (Protocol transport) — the lookup wastes steps;
    ///   an exhausted hop budget fails the attempt, and a fresh attempt
    ///   redraws the misroute schedule.
    ///
    /// When `substrate` is `Some`, each attempt's routability check
    /// calls it instead of the built-in substrate walk. The caller owns
    /// the equivalence contract: it must return *exactly* what the
    /// built-in attempt would (the trial engine plugs a per-trial hop
    /// memo in here — sound for Chord with a trial-stable liveness
    /// mask, where an attempt is a pure function of `(from, to, mask)`),
    /// so it must not be used for substrates whose attempts draw
    /// randomness (Protocol misrouting re-rolls per attempt).
    ///
    /// # Panics
    ///
    /// Panics (Chord transport) if either endpoint is an overlay node
    /// missing from the ring — the ring must cover all overlay nodes.
    pub fn deliver(
        &self,
        hop: &HopCtx<'_>,
        from: NodeId,
        to: NodeId,
        mut substrate: Option<&mut dyn FnMut(NodeId, NodeId) -> DeliveryOutcome>,
    ) -> HopDelivery {
        let mut attempt = || match substrate.as_mut() {
            Some(price) => price(from, to),
            None => self.route_substrate(hop, from, to, false),
        };
        let mut incidents = Vec::new();
        let blocked = |incidents| HopDelivery {
            outcome: DeliveryOutcome::Blocked,
            attempts: 1,
            ticks: 0,
            incidents,
        };
        if !hop.overlay.is_good(to) {
            // Compromised: not a fault, not retryable.
            return blocked(incidents);
        }
        let Some(plan) = hop.faults else {
            return HopDelivery {
                outcome: attempt(),
                attempts: 1,
                ticks: 0,
                incidents,
            };
        };
        if plan.is_crashed(to.0) {
            incidents.push(HopIncident::CrashedDestination);
            return blocked(incidents);
        }
        // A blocked substrate route only varies between attempts when
        // misrouting re-rolls the lookup; otherwise it is deterministic
        // for the trial and retrying it is pointless.
        let substrate_retryable =
            matches!(self, Transport::Protocol(_)) && plan.config().misroute_rate > 0.0;
        let retry = hop.retry;
        let mut ticks = 0u64;
        let mut attempts = 0u32;
        while attempts < retry.max_attempts {
            attempts += 1;
            if attempts > 1 {
                let backoff = retry.backoff_before(attempts);
                if ticks.saturating_add(backoff) > retry.deadline {
                    incidents.push(HopIncident::DeadlineExhausted { ticks });
                    break;
                }
                ticks += backoff;
                incidents.push(HopIncident::Retry {
                    attempt: attempts,
                    backoff,
                });
            }
            let drawn = plan.draw_hop();
            if drawn.delay_ticks > 0 {
                ticks += drawn.delay_ticks;
                incidents.push(HopIncident::Delay {
                    ticks: drawn.delay_ticks,
                });
            }
            if drawn.lost {
                incidents.push(HopIncident::Loss { attempt: attempts });
                continue;
            }
            match attempt() {
                DeliveryOutcome::Delivered { hops } => {
                    let slow = plan.slow_penalty(to.0);
                    if slow > 0 {
                        ticks += slow;
                        incidents.push(HopIncident::Slow { ticks: slow });
                    }
                    return HopDelivery {
                        outcome: DeliveryOutcome::Delivered { hops },
                        attempts,
                        ticks,
                        incidents,
                    };
                }
                DeliveryOutcome::Blocked => {
                    if !substrate_retryable {
                        incidents.push(HopIncident::CrashedRoute);
                        break;
                    }
                    incidents.push(HopIncident::Misroute { attempt: attempts });
                }
            }
        }
        HopDelivery {
            outcome: DeliveryOutcome::Blocked,
            attempts,
            ticks,
            incidents,
        }
    }

    /// Degraded-mode delivery: abandon finger-table routing and walk
    /// successor lists toward the destination — the first
    /// graceful-degradation stage after [`deliver`](Self::deliver)
    /// exhausts its retries. Slower (O(n) simulated underlay hops) but
    /// immune to stale or Byzantine fingers. With a liveness mask the
    /// walk is computed in closed form over O(n/64) mask words (see
    /// [`ChordRing::successor_walk_hops_masked`]).
    /// [`Transport::Direct`] has no alternate substrate path, so it is
    /// always `Blocked` there; filter destinations use a direct final
    /// hop and likewise cannot be walked to. Draws nothing from the
    /// fault plane; `hop.retry` is not consulted.
    pub fn deliver_degraded(&self, hop: &HopCtx<'_>, from: NodeId, to: NodeId) -> DeliveryOutcome {
        if !hop.overlay.is_good(to) || hop.faults.is_some_and(|p| p.is_crashed(to.0)) {
            return DeliveryOutcome::Blocked;
        }
        self.route_substrate(hop, from, to, true)
    }

    /// One substrate attempt toward a good, uncrashed destination:
    /// finger routing, or with `walk` the successor-list walk. Usable
    /// nodes are good and (with a plan) not crashed, the sender counts
    /// as usable, and the Protocol lookup draws its per-step misroutes
    /// from the plan. The hop succeeds iff the walk ends at `to`.
    fn route_substrate(
        &self,
        hop: &HopCtx<'_>,
        from: NodeId,
        to: NodeId,
        walk: bool,
    ) -> DeliveryOutcome {
        let overlay = hop.overlay;
        let reached = match self {
            // Filters are not ring members; the final hop is direct.
            Transport::Direct => return direct_or_blocked(walk),
            _ if overlay.role(to) == Role::Filter => return direct_or_blocked(walk),
            Transport::Chord(ring) => {
                let key = ring
                    .id_of(to)
                    .unwrap_or_else(|| panic!("{to} is not on the Chord ring"));
                let usable = |n: NodeId| {
                    n == from
                        || (overlay.is_good(n) && hop.faults.is_none_or(|p| !p.is_crashed(n.0)))
                };
                let outcome = match (hop.alive, walk) {
                    (Some(mask), false) => ring.lookup_masked(from, key, mask, None),
                    (None, false) => ring.lookup_avoiding(from, key, usable, None),
                    (Some(mask), true) => ring.successor_walk_hops_masked(from, key, mask),
                    (None, true) => ring.successor_walk_hops(from, key, usable),
                };
                outcome.map(|(owner, hops)| (owner == to, hops))
            }
            Transport::Protocol(proto) => {
                let (Some(from_id), Some(to_id)) = (proto.chord_id_of(from), proto.chord_id_of(to))
                else {
                    return DeliveryOutcome::Blocked;
                };
                let outcome = if walk {
                    proto.successor_walk(from_id, to_id, hop.faults)
                } else {
                    proto.lookup_with_hops(from_id, to_id, hop.faults)
                };
                outcome.map(|(owner, hops)| (owner == to_id, hops))
            }
        };
        match reached {
            Some((true, hops)) => DeliveryOutcome::Delivered { hops: hops.max(1) },
            _ => DeliveryOutcome::Blocked,
        }
    }

    /// Mirrors overlay damage onto the transport substrate. For
    /// [`Transport::Protocol`] this kills every non-good overlay node on
    /// the protocol ring (the former per-call-site manual
    /// [`ChordProtocol::kill`] loop); for the other variants it is a
    /// no-op — their routing reads `Overlay` liveness directly. Always
    /// safe to call after applying attack or churn damage.
    pub fn sync_damage(&mut self, overlay: &Overlay) {
        if let Transport::Protocol(proto) = self {
            proto.sync_overlay_damage(overlay);
        }
        debug_assert!(self.damage_synced(overlay));
    }

    /// Whether substrate liveness is consistent with overlay damage
    /// (trivially true for [`Transport::Direct`] and
    /// [`Transport::Chord`], which consult the overlay directly).
    pub fn damage_synced(&self, overlay: &Overlay) -> bool {
        match self {
            Transport::Protocol(proto) => proto.damage_synced(overlay),
            _ => true,
        }
    }

    /// Refreshes a caller-owned ring-position liveness mask for this
    /// transport's substrate, encoding exactly the predicate the
    /// closure-based lookups would evaluate per candidate: the node is
    /// good and, when a fault plan is active, not benignly crashed.
    /// Returns `true` when the transport has a masked fast path
    /// ([`Transport::Chord`]); for the other variants the mask is
    /// unused and left untouched.
    ///
    /// Call once per trial after attack damage and fault-plan creation,
    /// then pass the mask as [`HopCtx::alive`] for the trial's whole
    /// route batch.
    pub fn refresh_alive_positions(
        &self,
        overlay: &Overlay,
        faults: Option<&FaultPlan>,
        mask: &mut NodeBitSet,
    ) -> bool {
        match self {
            Transport::Chord(ring) => {
                match faults {
                    Some(plan) => ring.fill_alive_positions(
                        |n| overlay.is_good(n) && !plan.is_crashed(n.0),
                        mask,
                    ),
                    None => ring.fill_alive_positions(|n| overlay.is_good(n), mask),
                }
                true
            }
            _ => false,
        }
    }

    /// Stable label for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            Transport::Direct => "direct",
            Transport::Chord(_) => "chord",
            Transport::Protocol(_) => "protocol",
        }
    }
}

/// A hop that bypasses the substrate: one direct hop, or no successor
/// walk at all.
fn direct_or_blocked(walk: bool) -> DeliveryOutcome {
    if walk {
        DeliveryOutcome::Blocked
    } else {
        DeliveryOutcome::Delivered { hops: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeStatus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sos_core::{MappingDegree, Scenario, SystemParams};

    /// A fault-free, unmasked delivery's outcome.
    fn plain(t: &Transport, overlay: &Overlay, from: NodeId, to: NodeId) -> DeliveryOutcome {
        t.deliver(&HopCtx::new(overlay), from, to, None).outcome
    }

    fn setup(seed: u64) -> (Overlay, ChordRing) {
        let scenario = Scenario::builder()
            .system(SystemParams::new(400, 40, 0.5).unwrap())
            .layers(2)
            .mapping(MappingDegree::OneTo(3))
            .filters(10)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let overlay = Overlay::build(&scenario, &mut rng);
        let members: Vec<NodeId> = overlay.overlay_ids().collect();
        let ring = ChordRing::build(&mut rng, &members);
        (overlay, ring)
    }

    #[test]
    fn direct_delivery_depends_only_on_destination() {
        let (mut overlay, _) = setup(1);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        assert!(plain(&Transport::Direct, &overlay, from, to).is_delivered());
        overlay.set_status(to, NodeStatus::Congested);
        assert_eq!(
            plain(&Transport::Direct, &overlay, from, to),
            DeliveryOutcome::Blocked
        );
    }

    #[test]
    fn chord_delivery_works_on_clean_overlay() {
        let (overlay, ring) = setup(2);
        let transport = Transport::Chord(ring);
        let from = overlay.layer_members(1)[0];
        for &to in overlay.neighbors(from) {
            let out = plain(&transport, &overlay, from, to);
            assert!(out.is_delivered(), "{from} -> {to}: {out:?}");
        }
    }

    #[test]
    fn chord_delivery_blocked_by_intermediates() {
        let (mut overlay, ring) = setup(3);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        // Find the clean-path intermediates and kill them plus everyone
        // else except the endpoints: routing must fail.
        for id in overlay.overlay_ids().collect::<Vec<_>>() {
            if id != from && id != to {
                overlay.set_status(id, NodeStatus::Congested);
            }
        }
        let transport = Transport::Chord(ring);
        let out = plain(&transport, &overlay, from, to);
        // Either the ring happens to connect them directly (fingers), or
        // the hop is blocked; both are legal, but with 400 nodes a direct
        // finger to an arbitrary neighbor is rare.
        if let DeliveryOutcome::Delivered { hops } = out {
            assert_eq!(hops, 1, "only a direct finger could survive");
        }
    }

    #[test]
    fn filters_use_direct_final_hop() {
        let (overlay, ring) = setup(4);
        let transport = Transport::Chord(ring);
        let last_layer = overlay.layer_count();
        let servlet = overlay.layer_members(last_layer)[0];
        let filter = overlay.neighbors(servlet)[0];
        let out = plain(&transport, &overlay, servlet, filter);
        assert_eq!(out, DeliveryOutcome::Delivered { hops: 1 });
    }

    #[test]
    fn labels_stable() {
        let (_, ring) = setup(5);
        assert_eq!(Transport::Direct.label(), "direct");
        assert_eq!(Transport::Chord(ring).label(), "chord");
    }

    fn protocol_over(overlay: &Overlay, seed: u64) -> crate::protocol::ChordProtocol {
        use crate::protocol::{run_maintenance, ChordProtocol, ProtocolConfig};
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut proto = ChordProtocol::new(ProtocolConfig::default());
        let mut sched = sos_des::Scheduler::new();
        let members: Vec<NodeId> = overlay.overlay_ids().collect();
        let mut ids: Vec<u64> = Vec::new();
        for (i, &m) in members.iter().enumerate() {
            let mut id = rng.gen::<u64>();
            while ids.contains(&id) {
                id = rng.gen::<u64>();
            }
            ids.push(id);
            if i == 0 {
                proto.bootstrap(id, m, &mut sched);
            } else {
                let via = ids[rng.gen_range(0..i)];
                proto.join(id, m, via, &mut sched);
                let now = sched.now();
                run_maintenance(&mut proto, &mut sched, now + 25);
            }
        }
        let now = sched.now();
        run_maintenance(&mut proto, &mut sched, now + 3_000);
        assert!(proto.is_converged(), "test ring must converge");
        proto
    }

    #[test]
    fn protocol_transport_delivers_on_converged_ring() {
        let (overlay, _) = setup(6);
        let proto = protocol_over(&overlay, 60);
        let transport = Transport::Protocol(proto);
        assert_eq!(transport.label(), "protocol");
        let from = overlay.layer_members(1)[0];
        for &to in overlay.neighbors(from) {
            let out = plain(&transport, &overlay, from, to);
            assert!(out.is_delivered(), "{from} -> {to}: {out:?}");
        }
        // Servlet → filter hop stays direct.
        let servlet = overlay.layer_members(overlay.layer_count())[0];
        let filter = overlay.neighbors(servlet)[0];
        assert_eq!(
            plain(&transport, &overlay, servlet, filter),
            DeliveryOutcome::Delivered { hops: 1 }
        );
    }

    #[test]
    fn deliver_with_no_plan_matches_deliver_exactly() {
        let (mut overlay, ring) = setup(8);
        let transport = Transport::Chord(ring);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        for retry in [RetryPolicy::none(), RetryPolicy::new(5, 2, 100)] {
            let hop = HopCtx {
                retry: &retry,
                ..HopCtx::new(&overlay)
            };
            let d = transport.deliver(&hop, from, to, None);
            assert_eq!(d.outcome, plain(&transport, &overlay, from, to));
            assert_eq!(d.attempts, 1);
            assert_eq!(d.ticks, 0);
            assert!(d.incidents.is_empty());
        }
        overlay.set_status(to, NodeStatus::Congested);
        let retry = RetryPolicy::new(5, 2, 100);
        let hop = HopCtx {
            retry: &retry,
            ..HopCtx::new(&overlay)
        };
        let d = transport.deliver(&hop, from, to, None);
        assert_eq!(d.outcome, DeliveryOutcome::Blocked);
        assert!(d.incidents.is_empty(), "compromise is not a fault");
    }

    #[test]
    fn retries_recover_transient_loss() {
        use sos_faults::FaultConfig;
        let (overlay, _) = setup(9);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        let cfg = FaultConfig::none().loss(0.6).seed(17);
        // Find a trial whose first draw is a loss, so the single-attempt
        // policy fails where the retrying one succeeds.
        let transport = Transport::Direct;
        let mut saw_recovery = false;
        for trial in 0..64 {
            let plan = sos_faults::FaultPlan::new(&cfg, trial);
            let once = transport.deliver(
                &HopCtx {
                    faults: Some(&plan),
                    ..HopCtx::new(&overlay)
                },
                from,
                to,
                None,
            );
            let plan = sos_faults::FaultPlan::new(&cfg, trial);
            let retry = RetryPolicy::new(8, 1, 10_000);
            let many = transport.deliver(
                &HopCtx {
                    faults: Some(&plan),
                    retry: &retry,
                    ..HopCtx::new(&overlay)
                },
                from,
                to,
                None,
            );
            if !once.is_delivered() && many.is_delivered() {
                assert!(many.attempts > 1);
                assert!(many
                    .incidents
                    .iter()
                    .any(|i| matches!(i, HopIncident::Loss { .. })));
                assert!(many
                    .incidents
                    .iter()
                    .any(|i| matches!(i, HopIncident::Retry { .. })));
                assert!(many.ticks > 0, "backoff must cost simulated ticks");
                saw_recovery = true;
                break;
            }
        }
        assert!(saw_recovery, "60% loss must show a recovered trial in 64");
    }

    #[test]
    fn crashed_destination_is_not_retried() {
        use sos_faults::{FaultConfig, FaultPlan};
        let (overlay, _) = setup(10);
        let from = overlay.layer_members(1)[0];
        let cfg = FaultConfig::none().crash(0.5).seed(3);
        let plan = FaultPlan::new(&cfg, 0);
        let to = *overlay
            .neighbors(from)
            .iter()
            .find(|n| plan.is_crashed(n.0))
            .expect("50% crash rate must hit a neighbor");
        let retry = RetryPolicy::new(6, 2, 10_000);
        let d = Transport::Direct.deliver(
            &HopCtx {
                faults: Some(&plan),
                retry: &retry,
                ..HopCtx::new(&overlay)
            },
            from,
            to,
            None,
        );
        assert_eq!(d.outcome, DeliveryOutcome::Blocked);
        assert_eq!(d.attempts, 1, "persistent fault: retrying is pointless");
        assert_eq!(d.incidents, vec![HopIncident::CrashedDestination]);
    }

    #[test]
    fn deadline_budget_caps_retries() {
        use sos_faults::{FaultConfig, FaultPlan};
        let (overlay, _) = setup(11);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        let cfg = FaultConfig::none().loss(1.0).seed(1);
        let plan = FaultPlan::new(&cfg, 0);
        // Unlimited attempts but a tiny deadline: the budget must stop
        // the loop long before 1000 attempts.
        let retry = RetryPolicy::new(1000, 4, 20);
        let d = Transport::Direct.deliver(
            &HopCtx {
                faults: Some(&plan),
                retry: &retry,
                ..HopCtx::new(&overlay)
            },
            from,
            to,
            None,
        );
        assert_eq!(d.outcome, DeliveryOutcome::Blocked);
        assert!(
            d.attempts < 10,
            "deadline must cap attempts, got {}",
            d.attempts
        );
        assert!(d
            .incidents
            .iter()
            .any(|i| matches!(i, HopIncident::DeadlineExhausted { .. })));
        assert!(d.ticks <= 20);
    }

    #[test]
    fn degraded_walk_survives_finger_blockade() {
        use sos_faults::{FaultConfig, FaultPlan};
        let (overlay, ring) = setup(12);
        let transport = Transport::Chord(ring.clone());
        let from = overlay.layer_members(1)[0];
        // A non-filter destination the greedy lookup reaches cleanly.
        let to = *overlay
            .neighbors(from)
            .iter()
            .find(|&&n| overlay.role(n) != crate::node::Role::Filter)
            .unwrap();
        let cfg = FaultConfig::none().loss(0.01).seed(2);
        let plan = FaultPlan::new(&cfg, 0);
        let hop = HopCtx {
            faults: Some(&plan),
            ..HopCtx::new(&overlay)
        };
        let walked = transport.deliver_degraded(&hop, from, to);
        assert!(
            walked.is_delivered(),
            "successor walk on a clean overlay must reach {to}"
        );
        // Direct transport has no degraded mode.
        assert_eq!(
            Transport::Direct.deliver_degraded(&hop, from, to),
            DeliveryOutcome::Blocked
        );
    }

    #[test]
    fn sync_damage_mirrors_overlay_onto_protocol() {
        let (mut overlay, _) = setup(13);
        let proto = protocol_over(&overlay, 130);
        let mut transport = Transport::Protocol(proto);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        overlay.set_status(to, NodeStatus::Broken);
        assert!(!transport.damage_synced(&overlay));
        transport.sync_damage(&overlay);
        assert!(transport.damage_synced(&overlay));
        let Transport::Protocol(proto) = &transport else {
            unreachable!()
        };
        assert!(!proto.is_alive(proto.chord_id_of(to).unwrap()));
        // No-op (but still consistent) for the oracle transports.
        let mut direct = Transport::Direct;
        direct.sync_damage(&overlay);
        assert!(direct.damage_synced(&overlay));
    }

    #[test]
    fn protocol_transport_blocks_when_destination_dead_on_ring() {
        let (overlay, _) = setup(7);
        let mut proto = protocol_over(&overlay, 70);
        let from = overlay.layer_members(1)[0];
        let to = overlay.neighbors(from)[0];
        let to_id = proto.chord_id_of(to).unwrap();
        proto.kill(to_id);
        let transport = Transport::Protocol(proto);
        // Overlay status is still Good, but the ring lost the node: the
        // stale-infrastructure failure mode.
        assert_eq!(
            plain(&transport, &overlay, from, to),
            DeliveryOutcome::Blocked
        );
    }
}
