//! Routing a message from a client to the target through the layered
//! overlay.
//!
//! A route starts at the client's entry set (`m_1` first-layer nodes),
//! passes through one node per layer, crosses the filter ring, and — if
//! every hop finds a usable next node — reaches the target.
//!
//! The paper's equation (1) treats the per-layer failure events as
//! independent: a message at layer `i−1` fails iff *all* `m_i` of the
//! current node's neighbors are bad. That corresponds to
//! [`RoutingPolicy::RandomGood`] (pick any good neighbor, never revisit
//! an earlier choice). [`RoutingPolicy::Backtracking`] instead searches
//! the whole reachable DAG and succeeds iff *some* fully-good path
//! exists — an upper bound that quantifies how much the independence
//! assumption costs.

use crate::route_batch::ChordMemoPricer;
use rand::Rng;
use serde::{Deserialize, Serialize};
use sos_faults::{Fallback, FaultPlan, HopIncident, RetryPolicy};
use sos_math::sampling::{shuffle, IndexSampler};
use sos_overlay::transport::DeliveryOutcome;
use sos_overlay::{HopCtx, NodeBitSet, NodeId, Overlay, Transport};

/// How a forwarding node chooses among its next-layer neighbors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Pick a uniformly random usable neighbor; give up at a node with
    /// none. Matches the analytical model's independence assumption.
    #[default]
    RandomGood,
    /// Pick the first usable neighbor in table order. A deterministic
    /// variant that concentrates traffic (worst for load, identical
    /// success probability under exchangeable tables).
    FirstGood,
    /// Depth-first search with backtracking over the layered DAG;
    /// succeeds iff any all-good path exists. Upper-bounds both other
    /// policies.
    Backtracking,
}

impl RoutingPolicy {
    /// Stable label for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::RandomGood => "random-good",
            RoutingPolicy::FirstGood => "first-good",
            RoutingPolicy::Backtracking => "backtracking",
        }
    }
}

impl std::fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One fault-plane or degradation incident on a route, with the hop it
/// struck (raw `u32` node ids, matching `sos-observe`'s convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteIncident {
    /// Hop sender.
    pub from: u32,
    /// Hop destination.
    pub to: u32,
    /// What happened.
    pub kind: RouteIncidentKind,
}

/// The incident payload: a hop-level fault/retry event or a
/// graceful-degradation downgrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteIncidentKind {
    /// A fault-plane or retry-loop incident on a delivery attempt.
    Hop(HopIncident),
    /// Routing fell back to a degraded mode for this hop.
    Downgrade {
        /// Which degradation stage was taken.
        fallback: Fallback,
        /// Whether the degraded mode delivered the hop.
        recovered: bool,
    },
}

/// Outcome of one routing attempt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteResult {
    /// Whether the message reached the target (crossed the filter ring).
    pub delivered: bool,
    /// Overlay-level path actually taken (entry node … filter); for
    /// backtracking, the successful path if any, otherwise the deepest
    /// prefix explored.
    pub path: Vec<NodeId>,
    /// Underlay hops consumed (equals `path.len()` segments under direct
    /// transport; more under Chord transport).
    pub underlay_hops: usize,
    /// Deepest 1-based layer from which a usable next hop was found
    /// (`L+1` means the filter ring was reached).
    pub deepest_layer: usize,
    /// Extra delivery attempts spent by hop retries (0 without faults).
    pub retries: u64,
    /// Graceful-degradation downgrades taken (0 without faults).
    pub downgrades: u64,
    /// Simulated ticks spent on backoff, delays and slow-downs.
    pub fault_ticks: u64,
    /// Every fault/retry/downgrade incident, in hop order (empty — and
    /// unallocated — without faults).
    pub incidents: Vec<RouteIncident>,
}

impl RouteResult {
    /// Resets to the empty (undelivered) state while keeping the `path`
    /// and `incidents` allocations for reuse.
    pub(crate) fn reset(&mut self) {
        self.delivered = false;
        self.path.clear();
        self.underlay_hops = 0;
        self.deepest_layer = 0;
        self.retries = 0;
        self.downgrades = 0;
        self.fault_ticks = 0;
        self.incidents.clear();
    }
}

/// Reusable routing buffers: entry/candidate lists, the visited set for
/// backtracking, the sampling scratch, and the [`RouteResult`] itself.
///
/// One `RouteScratch` per worker lets the steady-state route loop run
/// without heap allocation under the greedy policies
/// ([`RoutingPolicy::RandomGood`] / [`RoutingPolicy::FirstGood`]);
/// backtracking still allocates its DFS frames, which is inherent to
/// reporting full exploration paths.
#[derive(Debug, Default)]
pub struct RouteScratch {
    sampler: IndexSampler,
    candidates: Vec<NodeId>,
    neighbors_buf: Vec<NodeId>,
    visited: NodeBitSet,
    result: RouteResult,
}

impl RouteScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Everything one route reads: the damaged overlay, how hops travel,
/// how the next node is chosen, and the trial's fault and liveness
/// state.
///
/// [`RouteCtx::new`] is the paper's fault-free setting; the fault
/// plane, the retry policy and the Chord liveness mask are set on top
/// of it with struct-update syntax (`RouteCtx { faults: Some(&plan),
/// ..RouteCtx::new(overlay, transport, policy) }`).
#[derive(Debug, Clone, Copy)]
pub struct RouteCtx<'a> {
    /// The (possibly damaged) overlay.
    pub overlay: &'a Overlay,
    /// How one overlay hop is delivered.
    pub transport: &'a Transport,
    /// How a forwarding node picks among its next-layer neighbors.
    pub policy: RoutingPolicy,
    /// The trial's fault plane. With `None` no fault draws, degradation
    /// paths or incident allocations happen — the bit-for-bit
    /// zero-fault guarantee.
    pub faults: Option<&'a FaultPlan>,
    /// How failed hop attempts are retried (only consulted with a plan).
    pub retry: &'a RetryPolicy,
    /// The Chord ring's position-indexed liveness mask (see
    /// [`Transport::refresh_alive_positions`]): the trial runner
    /// computes it once per attacked overlay and every substrate lookup
    /// on every route of that trial probes the shared `u64` words
    /// instead of re-deriving per-node status through the overlay. With
    /// `None` (or a non-Chord transport) results and RNG consumption
    /// are the same.
    pub alive: Option<&'a NodeBitSet>,
}

/// The single-attempt retry policy of [`RouteCtx::new`].
const NO_RETRY: RetryPolicy = RetryPolicy::none();

impl<'a> RouteCtx<'a> {
    /// Fault-free routing over `overlay` with `transport` and `policy`:
    /// no fault plan, no retries, no liveness mask.
    pub fn new(overlay: &'a Overlay, transport: &'a Transport, policy: RoutingPolicy) -> Self {
        RouteCtx {
            overlay,
            transport,
            policy,
            faults: None,
            retry: &NO_RETRY,
            alive: None,
        }
    }

    /// The per-hop view of this context.
    fn hop(&self) -> HopCtx<'a> {
        HopCtx {
            overlay: self.overlay,
            faults: self.faults,
            retry: self.retry,
            alive: self.alive,
        }
    }
}

/// Attempts to route one message from a fresh client through
/// `ctx.overlay`.
///
/// The client draws `m_1` first-layer contacts, then `ctx.policy` walks
/// the layers. A hop from node `v` to neighbor `w` is usable when
/// `ctx.transport` can deliver it (destination good; for Chord transport
/// all intermediate hops good too).
///
/// With a fault plan every hop is delivered through the fault plane with
/// `ctx.retry`, and fault-caused hop failures degrade gracefully — first
/// to successor-list walking on the substrate, then to an alternate
/// next-layer neighbor — with every incident recorded in
/// [`RouteResult::incidents`].
///
/// All buffers (entry sampling, candidate lists, visited set, the result
/// itself) live in the caller-owned [`RouteScratch`]; a reused scratch
/// gives results and RNG consumption identical to a fresh one. The
/// returned reference points into the scratch and is valid until the
/// next call.
pub fn route<'s, R: Rng + ?Sized>(
    ctx: &RouteCtx<'_>,
    rng: &mut R,
    scratch: &'s mut RouteScratch,
) -> &'s RouteResult {
    route_priced(ctx, rng, scratch, None)
}

/// [`route`] with an optional memo-backed Chord substrate pricer (see
/// [`ChordMemoPricer`]): identical semantics and RNG/fault draw
/// consumption — pricing is pure, so memoizing it cannot shift the
/// plan's counted streams — used by the batched kernel's faulted oracle
/// path to share the per-trial hop memo across lanes.
pub(crate) fn route_priced<'s, R: Rng + ?Sized>(
    ctx: &RouteCtx<'_>,
    rng: &mut R,
    scratch: &'s mut RouteScratch,
    pricer: Option<&mut ChordMemoPricer<'_>>,
) -> &'s RouteResult {
    ctx.overlay
        .sample_entry_points_into(rng, &mut scratch.sampler, &mut scratch.candidates);
    scratch.result.reset();
    match ctx.policy {
        RoutingPolicy::RandomGood | RoutingPolicy::FirstGood => {
            greedy_route(ctx, rng, scratch, pricer)
        }
        RoutingPolicy::Backtracking => backtracking_route(ctx, rng, scratch, pricer),
    }
    &scratch.result
}

/// One fault-ladder hop delivery, routed through the memo-backed pricer
/// when one is installed (Chord + trial-stable mask only; see
/// [`Transport::deliver`] for the contract). Its retries, ticks and
/// incidents are added to `result`.
fn deliver_hop(
    ctx: &RouteCtx<'_>,
    from: NodeId,
    to: NodeId,
    result: &mut RouteResult,
    pricer: Option<&mut ChordMemoPricer<'_>>,
) -> DeliveryOutcome {
    let hop = match pricer {
        Some(p) => ctx.transport.deliver(
            &ctx.hop(),
            from,
            to,
            Some(&mut |f, t| p.price(ctx.overlay, f, t)),
        ),
        None => ctx.transport.deliver(&ctx.hop(), from, to, None),
    };
    result.retries += u64::from(hop.attempts.saturating_sub(1));
    result.fault_ticks += hop.ticks;
    for incident in &hop.incidents {
        result.incidents.push(RouteIncident {
            from: from.0,
            to: to.0,
            kind: RouteIncidentKind::Hop(*incident),
        });
    }
    hop.outcome
}

fn greedy_route<R: Rng + ?Sized>(
    ctx: &RouteCtx<'_>,
    rng: &mut R,
    scratch: &mut RouteScratch,
    mut pricer: Option<&mut ChordMemoPricer<'_>>,
) {
    let RouteCtx {
        overlay, faults, ..
    } = *ctx;
    let last_layer = overlay.layer_count() + 1; // filters
    let RouteScratch {
        candidates, result, ..
    } = scratch;
    // `candidates` are the potential nodes at the next layer (initially
    // the client's entry set); the "client hop" into layer 1 is a plain
    // reachability check (clients talk to SOAPs directly).
    let mut current: Option<NodeId> = None;
    loop {
        if ctx.policy == RoutingPolicy::RandomGood {
            shuffle(rng, candidates);
        }
        let mut next = None;
        // Set when the previous candidate at this layer failed for a
        // *fault* (not a compromise): trying the next candidate is the
        // alternate-neighbor degradation stage and is recorded as such.
        let mut fault_failed_prev = false;
        for &cand in candidates.iter() {
            match current {
                None => {
                    // Client → first layer: direct contact. Benign
                    // crashes make the contact unreachable; loss/delay
                    // are modelled only on overlay hops.
                    if overlay.is_good(cand) && faults.is_none_or(|p| !p.is_crashed(cand.0)) {
                        next = Some((cand, 1usize));
                        break;
                    }
                }
                Some(v) => {
                    let outcome = deliver_hop(ctx, v, cand, result, pricer.as_deref_mut());
                    if let DeliveryOutcome::Delivered { hops } = outcome {
                        if fault_failed_prev {
                            result.downgrades += 1;
                            result.incidents.push(RouteIncident {
                                from: v.0,
                                to: cand.0,
                                kind: RouteIncidentKind::Downgrade {
                                    fallback: Fallback::AlternateNeighbor,
                                    recovered: true,
                                },
                            });
                        }
                        next = Some((cand, hops));
                        break;
                    }
                    // Hop failed. Degradation only applies to *fault*
                    // failures (destination good and not crashed) and
                    // only when the fault plane is active at all.
                    let fault_failure =
                        faults.is_some_and(|p| overlay.is_good(cand) && !p.is_crashed(cand.0));
                    if fault_failure {
                        // Stage 1: successor-list walking.
                        let walked = ctx.transport.deliver_degraded(&ctx.hop(), v, cand);
                        let recovered = walked.is_delivered();
                        result.downgrades += 1;
                        result.incidents.push(RouteIncident {
                            from: v.0,
                            to: cand.0,
                            kind: RouteIncidentKind::Downgrade {
                                fallback: Fallback::SuccessorWalk,
                                recovered,
                            },
                        });
                        if let DeliveryOutcome::Delivered { hops } = walked {
                            next = Some((cand, hops));
                            break;
                        }
                        // Stage 2: the loop's next candidate is the
                        // alternate next-layer neighbor.
                        fault_failed_prev = true;
                    }
                }
            }
        }
        if next.is_none() && fault_failed_prev {
            // Every alternate neighbor was exhausted too.
            result.downgrades += 1;
            if let Some(v) = current {
                result.incidents.push(RouteIncident {
                    from: v.0,
                    to: v.0,
                    kind: RouteIncidentKind::Downgrade {
                        fallback: Fallback::AlternateNeighbor,
                        recovered: false,
                    },
                });
            }
        }
        let Some((node, hops)) = next else {
            return;
        };
        result.underlay_hops += hops;
        result.path.push(node);
        let layer = overlay
            .layer_of(node)
            .expect("routed nodes are always infrastructure");
        result.deepest_layer = layer;
        if layer == last_layer {
            result.delivered = true;
            return;
        }
        candidates.clear();
        candidates.extend_from_slice(overlay.neighbors(node));
        current = Some(node);
    }
}

fn backtracking_route<R: Rng + ?Sized>(
    ctx: &RouteCtx<'_>,
    rng: &mut R,
    scratch: &mut RouteScratch,
    mut pricer: Option<&mut ChordMemoPricer<'_>>,
) {
    let RouteCtx {
        overlay, faults, ..
    } = *ctx;
    let last_layer = overlay.layer_count() + 1; // filters
    let RouteScratch {
        candidates: entries,
        neighbors_buf,
        visited,
        result,
        ..
    } = scratch;
    shuffle(rng, entries);
    visited.clear();
    let mut best_prefix_hops = 0usize;

    // Explicit DFS stack; each frame carries the path and its underlay
    // cost so the delivered result reports the *path's* hops, not the
    // total exploration cost. The DFS explores alternate neighbors by
    // construction, so no explicit degradation stages apply here —
    // retries still do, per edge.
    struct Frame {
        node: NodeId,
        path: Vec<NodeId>,
        hops: usize,
    }
    let mut stack: Vec<Frame> = entries
        .drain(..)
        .filter(|&e| overlay.is_good(e) && faults.is_none_or(|p| !p.is_crashed(e.0)))
        .map(|e| Frame {
            node: e,
            path: vec![e],
            hops: 1, // client → entry contact
        })
        .collect();

    while let Some(Frame { node, path, hops }) = stack.pop() {
        if !visited.insert(node) {
            continue;
        }
        let layer = overlay
            .layer_of(node)
            .expect("routed nodes are always infrastructure");
        if layer > result.deepest_layer {
            result.deepest_layer = layer;
            result.path.clear();
            result.path.extend_from_slice(&path);
            best_prefix_hops = hops;
        }
        if layer == last_layer {
            result.delivered = true;
            result.underlay_hops = hops;
            result.path.clear();
            result.path.extend_from_slice(&path);
            return;
        }
        neighbors_buf.clear();
        neighbors_buf.extend_from_slice(overlay.neighbors(node));
        shuffle(rng, neighbors_buf);
        for &next in neighbors_buf.iter() {
            if visited.contains(next) {
                continue;
            }
            let outcome = deliver_hop(ctx, node, next, result, pricer.as_deref_mut());
            if let DeliveryOutcome::Delivered { hops: edge } = outcome {
                let mut next_path = path.clone();
                next_path.push(next);
                stack.push(Frame {
                    node: next,
                    path: next_path,
                    hops: hops + edge,
                });
            }
        }
    }
    result.underlay_hops = best_prefix_hops;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sos_core::{MappingDegree, Scenario, SystemParams};
    use sos_faults::FaultConfig;
    use sos_overlay::NodeStatus;

    /// One route through a fresh scratch, cloned out.
    fn fresh<R: Rng>(ctx: &RouteCtx<'_>, rng: &mut R) -> RouteResult {
        route(ctx, rng, &mut RouteScratch::new()).clone()
    }

    fn overlay(mapping: MappingDegree, seed: u64) -> Overlay {
        let scenario = Scenario::builder()
            .system(SystemParams::new(500, 45, 0.5).unwrap())
            .layers(3)
            .mapping(mapping)
            .filters(10)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Overlay::build(&scenario, &mut rng)
    }

    #[test]
    fn clean_overlay_always_delivers() {
        let o = overlay(MappingDegree::OneTo(2), 1);
        let mut rng = StdRng::seed_from_u64(2);
        for policy in [
            RoutingPolicy::RandomGood,
            RoutingPolicy::FirstGood,
            RoutingPolicy::Backtracking,
        ] {
            for _ in 0..50 {
                let r = fresh(&RouteCtx::new(&o, &Transport::Direct, policy), &mut rng);
                assert!(r.delivered, "{policy} failed on a clean overlay");
                // Path: layer1, layer2, layer3, filter.
                assert_eq!(r.path.len(), 4);
                assert_eq!(r.deepest_layer, 4);
                assert_eq!(r.underlay_hops, 4);
            }
        }
    }

    #[test]
    fn fully_congested_layer_blocks_everything() {
        let mut o = overlay(MappingDegree::OneTo(2), 3);
        for &n in o.layer_members(2).to_vec().iter() {
            o.set_status(n, NodeStatus::Congested);
        }
        let mut rng = StdRng::seed_from_u64(4);
        for policy in [
            RoutingPolicy::RandomGood,
            RoutingPolicy::FirstGood,
            RoutingPolicy::Backtracking,
        ] {
            for _ in 0..20 {
                let r = fresh(&RouteCtx::new(&o, &Transport::Direct, policy), &mut rng);
                assert!(!r.delivered, "{policy} slipped through a dead layer");
                assert!(r.deepest_layer <= 1);
            }
        }
    }

    #[test]
    fn backtracking_dominates_greedy() {
        // Damage the overlay heavily; backtracking must succeed at least
        // as often as random-good on the same damage pattern.
        let mut rng = StdRng::seed_from_u64(5);
        let mut greedy_wins = 0u32;
        let mut backtrack_wins = 0u32;
        for seed in 0..30 {
            let mut o = overlay(MappingDegree::OneTo(3), 100 + seed);
            // Congest 40% of each SOS layer.
            for layer in 1..=3 {
                let members = o.layer_members(layer).to_vec();
                let k = members.len() * 2 / 5;
                for &m in &members[..k] {
                    o.set_status(m, NodeStatus::Congested);
                }
            }
            let greedy = RouteCtx::new(&o, &Transport::Direct, RoutingPolicy::RandomGood);
            let backtracking = RouteCtx::new(&o, &Transport::Direct, RoutingPolicy::Backtracking);
            let mut g = 0u32;
            let mut b = 0u32;
            for _ in 0..40 {
                if fresh(&greedy, &mut rng).delivered {
                    g += 1;
                }
                if fresh(&backtracking, &mut rng).delivered {
                    b += 1;
                }
            }
            greedy_wins += g;
            backtrack_wins += b;
        }
        assert!(
            backtrack_wins >= greedy_wins,
            "backtracking {backtrack_wins} < greedy {greedy_wins}"
        );
    }

    #[test]
    fn random_good_failure_rate_matches_analytic_one_to_one() {
        // One-to-one mapping, exactly one path per client: P_S per hop is
        // exactly the good fraction *in ensemble average*; a single
        // realized overlay deviates (its neighbor assignment is random),
        // so average over many overlays.
        let mut rng = StdRng::seed_from_u64(7);
        let mut hits = 0u32;
        let mut trials = 0u32;
        for seed in 0..40 {
            let mut o = overlay(MappingDegree::ONE_TO_ONE, 600 + seed);
            let members = o.layer_members(2).to_vec();
            for &m in &members[..5] {
                o.set_status(m, NodeStatus::Congested);
            }
            let ctx = RouteCtx::new(&o, &Transport::Direct, RoutingPolicy::RandomGood);
            for _ in 0..200 {
                trials += 1;
                if fresh(&ctx, &mut rng).delivered {
                    hits += 1;
                }
            }
        }
        let empirical = hits as f64 / trials as f64;
        let expected = 1.0 - 5.0 / 15.0; // 15 nodes in layer 2, 5 bad
        assert!(
            (empirical - expected).abs() < 0.03,
            "empirical {empirical} vs expected {expected}"
        );
    }

    #[test]
    fn deepest_layer_reported() {
        let mut o = overlay(MappingDegree::OneTo(2), 8);
        // Kill layer 3 entirely: routes should die at depth 2.
        for &n in o.layer_members(3).to_vec().iter() {
            o.set_status(n, NodeStatus::Congested);
        }
        let mut rng = StdRng::seed_from_u64(9);
        let ctx = RouteCtx::new(&o, &Transport::Direct, RoutingPolicy::RandomGood);
        let r = fresh(&ctx, &mut rng);
        assert!(!r.delivered);
        assert_eq!(r.deepest_layer, 2);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(RoutingPolicy::RandomGood.to_string(), "random-good");
        assert_eq!(RoutingPolicy::FirstGood.to_string(), "first-good");
        assert_eq!(RoutingPolicy::Backtracking.to_string(), "backtracking");
        assert_eq!(RoutingPolicy::default(), RoutingPolicy::RandomGood);
    }

    #[test]
    fn no_plan_is_exactly_the_clean_path() {
        // Without a fault plan a retry policy must change nothing: same
        // rng consumption, same result, zero fault bookkeeping — even
        // with an aggressive policy.
        let o = overlay(MappingDegree::OneTo(2), 21);
        for policy in [
            RoutingPolicy::RandomGood,
            RoutingPolicy::FirstGood,
            RoutingPolicy::Backtracking,
        ] {
            let mut a = StdRng::seed_from_u64(22);
            let mut b = StdRng::seed_from_u64(22);
            for _ in 0..30 {
                let plain = fresh(&RouteCtx::new(&o, &Transport::Direct, policy), &mut a);
                let retry = RetryPolicy::new(8, 2, 1_000);
                let clean = RouteCtx::new(&o, &Transport::Direct, policy);
                let faulted = fresh(
                    &RouteCtx {
                        retry: &retry,
                        ..clean
                    },
                    &mut b,
                );
                assert_eq!(plain, faulted);
                assert_eq!(faulted.retries, 0);
                assert_eq!(faulted.downgrades, 0);
                assert_eq!(faulted.fault_ticks, 0);
                assert!(faulted.incidents.is_empty());
            }
        }
    }

    #[test]
    fn loss_faults_hurt_and_retries_recover() {
        // On a clean overlay every failure is fault-caused, so delivery
        // under loss without retries must drop below 1, and retries at
        // the same seeds must strictly recover deliveries.
        let o = overlay(MappingDegree::OneTo(2), 23);
        let cfg = FaultConfig::none().loss(0.4).seed(7);
        let count = |retry: RetryPolicy| {
            let mut rng = StdRng::seed_from_u64(24);
            let mut delivered = 0u32;
            let mut retries = 0u64;
            for trial in 0..120u64 {
                let plan = FaultPlan::new(&cfg, trial);
                let clean = RouteCtx::new(&o, &Transport::Direct, RoutingPolicy::FirstGood);
                let ctx = RouteCtx {
                    faults: Some(&plan),
                    retry: &retry,
                    ..clean
                };
                let r = fresh(&ctx, &mut rng);
                delivered += u32::from(r.delivered);
                retries += r.retries;
            }
            (delivered, retries)
        };
        let (bare, r0) = count(RetryPolicy::none());
        let (retried, r1) = count(RetryPolicy::new(6, 1, 256));
        assert_eq!(r0, 0);
        assert!(r1 > 0, "retry policy should spend retries under loss");
        assert!(bare < 120, "40% loss must fail some routes: {bare}");
        assert!(
            retried > bare,
            "retries must recover transient losses: {retried} vs {bare}"
        );
    }

    #[test]
    fn fault_incidents_and_downgrades_are_recorded() {
        let o = overlay(MappingDegree::OneTo(3), 25);
        let cfg = FaultConfig::none().loss(0.5).delay(0.5, 3).seed(11);
        let mut rng = StdRng::seed_from_u64(26);
        let mut saw_loss = false;
        let mut saw_delay = false;
        let mut saw_downgrade = false;
        for trial in 0..60u64 {
            let plan = FaultPlan::new(&cfg, trial);
            let clean = RouteCtx::new(&o, &Transport::Direct, RoutingPolicy::RandomGood);
            let r = fresh(
                &RouteCtx {
                    faults: Some(&plan),
                    ..clean
                },
                &mut rng,
            );
            for i in &r.incidents {
                match i.kind {
                    RouteIncidentKind::Hop(HopIncident::Loss { .. }) => saw_loss = true,
                    RouteIncidentKind::Hop(HopIncident::Delay { ticks }) => {
                        saw_delay = true;
                        assert_eq!(ticks, 3);
                    }
                    RouteIncidentKind::Downgrade { .. } => saw_downgrade = true,
                    _ => {}
                }
            }
            assert_eq!(
                r.downgrades,
                r.incidents
                    .iter()
                    .filter(|i| matches!(i.kind, RouteIncidentKind::Downgrade { .. }))
                    .count() as u64,
            );
            if r.fault_ticks > 0 {
                saw_delay = true;
            }
        }
        assert!(saw_loss, "50% loss should surface Loss incidents");
        assert!(saw_delay, "50% delay should surface Delay incidents");
        // Direct transport has no successor lists, so a lost hop walks
        // the degradation ladder to the alternate-neighbor stage.
        assert!(saw_downgrade, "losses without retries should downgrade");
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_routing() {
        // One reused RouteScratch across many routes, policies, damage
        // patterns and fault plans must consume the RNG and produce
        // results exactly like the allocating entry point.
        let mut o = overlay(MappingDegree::OneTo(2), 31);
        for &n in o.layer_members(2).to_vec()[..5].iter() {
            o.set_status(n, NodeStatus::Congested);
        }
        let cfg = FaultConfig::none().loss(0.3).delay(0.2, 2).seed(5);
        let mut scratch = RouteScratch::new();
        for policy in [
            RoutingPolicy::RandomGood,
            RoutingPolicy::FirstGood,
            RoutingPolicy::Backtracking,
        ] {
            let mut a = StdRng::seed_from_u64(32);
            let mut b = StdRng::seed_from_u64(32);
            for trial in 0..40u64 {
                // The plan's draw counters are stateful (interior
                // mutability), so each side gets its own copy.
                let plan_a = (trial % 2 == 0).then(|| FaultPlan::new(&cfg, trial));
                let plan_b = (trial % 2 == 0).then(|| FaultPlan::new(&cfg, trial));
                let retry = RetryPolicy::new(3, 1, 128);
                let clean = RouteCtx::new(&o, &Transport::Direct, policy);
                let fresh = fresh(
                    &RouteCtx {
                        faults: plan_a.as_ref(),
                        retry: &retry,
                        ..clean
                    },
                    &mut a,
                );
                let ctx_b = RouteCtx {
                    faults: plan_b.as_ref(),
                    retry: &retry,
                    ..clean
                };
                let reused = route(&ctx_b, &mut b, &mut scratch);
                assert_eq!(&fresh, reused, "{policy} trial {trial}");
                assert_eq!(a.gen::<u64>(), b.gen::<u64>());
            }
        }
    }

    #[test]
    fn crashed_entry_points_are_avoided() {
        // Crash faults make nodes unreachable for routing; with every
        // entry crashed no route can start.
        let o = overlay(MappingDegree::OneTo(2), 27);
        let cfg = FaultConfig::none().crash(1.0).seed(13);
        let plan = FaultPlan::new(&cfg, 0);
        let mut rng = StdRng::seed_from_u64(28);
        for policy in [RoutingPolicy::RandomGood, RoutingPolicy::Backtracking] {
            let retry = RetryPolicy::new(4, 1, 64);
            let clean = RouteCtx::new(&o, &Transport::Direct, policy);
            let r = fresh(
                &RouteCtx {
                    faults: Some(&plan),
                    retry: &retry,
                    ..clean
                },
                &mut rng,
            );
            assert!(!r.delivered);
            assert_eq!(r.deepest_layer, 0);
            assert_eq!(r.retries, 0, "crashes are permanent, never retried");
        }
    }
}
