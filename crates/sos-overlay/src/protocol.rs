//! The Chord *protocol*: join, stabilize, notify, fix-fingers and
//! failure recovery, simulated message by message.
//!
//! [`crate::chord::ChordRing`] is an oracle: a ring built with global
//! knowledge, correct by construction. Real Chord nodes converge to
//! that state through periodic maintenance — and while they are
//! converging (after churn or failures) their pointers are stale, which
//! is exactly the regime a DDoS attacker exploits. This module
//! implements the SIGCOMM 2001 maintenance protocol over the
//! deterministic event engine in `sos-des`:
//!
//! * **join** — a node asks any bootstrap node to find its successor
//!   and splices itself in;
//! * **stabilize** (periodic) — ask your successor for its predecessor,
//!   adopt it if it sits between you, refresh the successor list, and
//!   `notify` the successor of yourself;
//! * **fix-fingers** (periodic) — round-robin re-lookup of one finger
//!   per firing;
//! * **failure recovery** — dead successors are skipped via the
//!   successor list; dead fingers are skipped during routing and
//!   eventually repaired by fix-fingers.
//!
//! Lookups route iteratively through whatever (possibly stale) state
//! nodes currently hold, so convergence can be *measured*: see
//! [`ChordProtocol::is_converged`] and the tests, which compare against
//! the oracle ring after every scenario. A lookup without a fault plan
//! that circles a loop of stale pointers is detected and ended in closed
//! form, with the owner and hop count that stepping out its hop budget
//! gives.
//!
//! Once every successor list and predecessor equals the oracle ring's,
//! the links are a fixed point of maintenance and each fix-fingers
//! firing writes the oracle owner of its finger. [`run_maintenance`]
//! then jumps the clock over whole timer periods instead of stepping
//! them, writes those fingers in closed form, and ends with the same
//! result as [`sos_des::run_until`].

use crate::node::NodeId;
use crate::overlay::Overlay;
use sos_des::{run_until, Scheduler, SimTime, Simulation, StepOutcome};
use sos_faults::FaultPlan;
use std::cell::Cell;
use std::collections::HashMap;

/// Protocol timing parameters, in simulated ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Interval between stabilize firings per node.
    pub stabilize_interval: u64,
    /// Interval between fix-fingers firings per node.
    pub fix_fingers_interval: u64,
    /// Successor-list length (fault tolerance).
    pub successor_list_len: usize,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            stabilize_interval: 10,
            fix_fingers_interval: 15,
            successor_list_len: 8,
        }
    }
}

/// Identifier-space size (bits).
const ID_BITS: usize = 64;

/// How far [`run_maintenance`] trusts the pointers to stay put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settle {
    /// A join, kill or overlay sync since maintenance last ran.
    Disturbed,
    /// The last link change (or disturbance) was at this tick.
    QuietSince(SimTime),
    /// Checked during this quiet stretch: the links are not settled.
    Unsettled,
    /// Link-settled, a fixed point of maintenance; a jump is tried no
    /// earlier than this tick.
    Settled(SimTime),
}

/// A participant's index in [`ChordProtocol`]'s node table, in join
/// order. Slots are never reused: dead nodes keep theirs.
type Slot = u32;

/// One protocol participant's local state. Every pointer is a slot.
#[derive(Debug, Clone)]
struct ProtoNode {
    id: u64,
    overlay: NodeId,
    alive: bool,
    predecessor: Option<Slot>,
    /// Successor list, nearest first. Invariant: non-empty for alive
    /// nodes that have joined.
    successors: Vec<Slot>,
    next_finger: usize,
}

/// The participant a maintenance timer belongs to: its slot, so
/// [`ChordProtocol`] reaches its state without an id lookup, and its
/// Chord id, so a timer is honoured only by the protocol that armed it.
/// Opaque outside this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Participant {
    slot: Slot,
    id: u64,
}

/// Maintenance events: periodic timers, each re-armed after it fires.
///
/// A timer fires only if its [`Participant`] names a live node of the
/// protocol that handles it (same slot, same Chord id); otherwise it is
/// dropped and not re-armed. So a dead node's timers stop, and a timer
/// armed by another protocol never runs here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceEvent {
    /// Periodic stabilize at this participant.
    Stabilize(Participant),
    /// Periodic fix-fingers at this participant.
    FixFingers(Participant),
}

/// The protocol simulator: all participants plus their timers.
///
/// Chord ids appear only at the public API; inside, nodes live in an
/// append-only table and point at each other by slot, so a routing
/// step reads pointers without a map lookup. `ring` is the one ordered
/// id → slot index (sorted by id, binary-searched), for the API
/// boundary and the ring-order queries.
#[derive(Debug, Clone)]
pub struct ChordProtocol {
    cfg: ProtocolConfig,
    nodes: Vec<ProtoNode>,
    /// `fingers[s * ID_BITS + k] ≈ successor(id(s) + 2^k)`; entries may
    /// be stale.
    fingers: Vec<Slot>,
    ring: Vec<(u64, Slot)>,
    slot_of_overlay: HashMap<NodeId, Slot>,
    /// Spare successor-list buffer that `stabilize` swaps in.
    spare: Vec<Slot>,
    lookups_issued: Cell<u64>,
    settle: Settle,
}

impl ChordProtocol {
    /// Creates an empty network.
    ///
    /// # Panics
    ///
    /// Panics if either timer interval is zero (the timer would re-arm
    /// at the tick it fired, forever) or the successor list is empty.
    pub fn new(cfg: ProtocolConfig) -> Self {
        assert!(
            cfg.stabilize_interval > 0 && cfg.fix_fingers_interval > 0,
            "maintenance intervals must be at least one tick: {cfg:?}"
        );
        assert!(
            cfg.successor_list_len > 0,
            "the successor list must hold at least one entry: {cfg:?}"
        );
        ChordProtocol {
            cfg,
            nodes: Vec::new(),
            fingers: Vec::new(),
            ring: Vec::new(),
            slot_of_overlay: HashMap::new(),
            spare: Vec::new(),
            lookups_issued: Cell::new(0),
            settle: Settle::Disturbed,
        }
    }

    /// Number of alive participants.
    pub fn alive_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Total lookups routed so far (join + fix-finger + client).
    pub fn lookups_issued(&self) -> u64 {
        self.lookups_issued.get()
    }

    /// Bootstraps the very first node (it is its own successor) and
    /// schedules its timers.
    ///
    /// # Panics
    ///
    /// Panics if the network is non-empty or the id collides.
    pub fn bootstrap(&mut self, id: u64, overlay: NodeId, sched: &mut Scheduler<MaintenanceEvent>) {
        assert!(self.nodes.is_empty(), "bootstrap requires an empty network");
        self.insert(id, overlay, 0, sched);
    }

    /// Joins a new node via an alive bootstrap contact and schedules its
    /// timers. The successor is found by routing through current state.
    ///
    /// # Panics
    ///
    /// Panics on id collision or a dead/unknown bootstrap.
    pub fn join(
        &mut self,
        id: u64,
        overlay: NodeId,
        via: u64,
        sched: &mut Scheduler<MaintenanceEvent>,
    ) {
        assert!(self.slot(id).is_none(), "chord id {id} already joined");
        let via = self
            .slot(via)
            .filter(|&s| self.node(s).alive)
            .unwrap_or_else(|| panic!("bootstrap {via} is not an alive member"));
        // Under heavy churn the join lookup can dead-end in stale
        // state; join with the bootstrap itself as the approximate
        // successor in that case — stabilization corrects the position
        // within a few periods (weakly consistent join, as in Chord's
        // handling of concurrent operations).
        let succ = self.route(via, id, None).map_or(via, |(owner, _)| owner);
        self.insert(id, overlay, succ, sched);
    }

    /// Appends a node whose successor list and fingers all point at
    /// `succ` (its own slot for the bootstrap node).
    fn insert(
        &mut self,
        id: u64,
        overlay: NodeId,
        succ: Slot,
        sched: &mut Scheduler<MaintenanceEvent>,
    ) {
        let slot = Slot::try_from(self.nodes.len()).expect("fewer than 2^32 participants");
        self.nodes.push(ProtoNode {
            id,
            overlay,
            alive: true,
            predecessor: None,
            successors: vec![succ],
            next_finger: 0,
        });
        self.fingers.extend([succ; ID_BITS]);
        let pos = self.ring.partition_point(|&(x, _)| x < id);
        self.ring.insert(pos, (id, slot));
        self.slot_of_overlay.insert(overlay, slot);
        self.settle = Settle::Disturbed;
        let who = Participant { slot, id };
        sched.schedule_in(
            self.cfg.stabilize_interval,
            MaintenanceEvent::Stabilize(who),
        );
        sched.schedule_in(
            self.cfg.fix_fingers_interval,
            MaintenanceEvent::FixFingers(who),
        );
    }

    /// Marks a node dead. Its state freezes; peers discover the failure
    /// through timeouts (modelled as skipping dead entries).
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn kill(&mut self, id: u64) {
        let slot = self
            .slot(id)
            .unwrap_or_else(|| panic!("unknown chord id {id}"));
        self.nodes[slot as usize].alive = false;
        self.settle = Settle::Disturbed;
    }

    /// Whether the node with this Chord id is alive on the ring.
    pub fn is_alive(&self, id: u64) -> bool {
        self.slot(id).is_some_and(|s| self.node(s).alive)
    }

    /// The current successor list of `id`, nearest first (alive nodes
    /// only have meaningful lists; dead nodes' state is frozen).
    pub fn successor_list_of(&self, id: u64) -> Option<Vec<u64>> {
        let node = self.node(self.slot(id)?);
        Some(node.successors.iter().map(|&s| self.id_of(s)).collect())
    }

    /// The current finger table of `id`: entry `k` is the node it holds
    /// for `id + 2^k`, possibly stale.
    pub fn finger_table_of(&self, id: u64) -> Option<Vec<u64>> {
        let fingers = self.fingers_of(self.slot(id)?);
        Some(fingers.iter().map(|&s| self.id_of(s)).collect())
    }

    /// Chord ids of all alive participants, in ring order.
    pub fn alive_ids(&self) -> Vec<u64> {
        self.alive_in_ring_order().map(|(id, _)| id).collect()
    }

    /// Mirrors overlay damage onto the ring: every overlay node that is
    /// no longer good is killed here (if it joined and is still marked
    /// alive). Ring damage is one-way — `Overlay::reset_statuses` does
    /// not resurrect ring nodes, matching real infrastructure where a
    /// crashed Chord participant must re-join.
    pub fn sync_overlay_damage(&mut self, overlay: &Overlay) {
        self.settle = Settle::Disturbed;
        for node in overlay.overlay_ids() {
            if !overlay.is_good(node) {
                if let Some(&slot) = self.slot_of_overlay.get(&node) {
                    self.nodes[slot as usize].alive = false;
                }
            }
        }
        debug_assert!(self.damage_synced(overlay));
    }

    /// Whether ring liveness is consistent with overlay damage: no
    /// overlay node that is not good is still alive on the ring.
    pub fn damage_synced(&self, overlay: &Overlay) -> bool {
        overlay.overlay_ids().all(|node| {
            overlay.is_good(node)
                || self
                    .slot_of_overlay
                    .get(&node)
                    .is_none_or(|&s| !self.node(s).alive)
        })
    }

    /// The overlay node behind a Chord id, if alive.
    pub fn overlay_of(&self, id: u64) -> Option<NodeId> {
        let node = self.node(self.slot(id)?);
        node.alive.then_some(node.overlay)
    }

    /// The Chord id of an overlay node, if it ever joined (dead nodes
    /// keep their id; check liveness separately).
    pub fn chord_id_of(&self, overlay: NodeId) -> Option<u64> {
        self.slot_of_overlay.get(&overlay).map(|&s| self.id_of(s))
    }

    /// Ground truth: the alive successor of `key` by global knowledge.
    pub fn oracle_successor(&self, key: u64) -> Option<u64> {
        let (below, from_key) = self
            .ring
            .split_at(self.ring.partition_point(|&(x, _)| x < key));
        from_key
            .iter()
            .chain(below)
            .find(|&&(_, s)| self.node(s).alive)
            .map(|&(id, _)| id)
    }

    /// Routes a lookup for `key` starting at alive node `from`, using
    /// only local state (fingers + successor lists), skipping dead
    /// nodes. Returns the id the protocol currently believes owns the
    /// key — equal to [`oracle_successor`](Self::oracle_successor) once
    /// converged.
    pub fn lookup(&self, from: u64, key: u64) -> Option<u64> {
        self.lookup_with_hops(from, key, None)
            .map(|(owner, _)| owner)
    }

    /// Like [`lookup`](Self::lookup) but also reports the hop count the
    /// iterative routing took.
    ///
    /// With a fault plan the fault plane is consulted on every routing
    /// step: benignly crashed nodes (per [`FaultPlan::is_crashed`]) are
    /// treated as dead in addition to ring liveness, and each step draws
    /// a Byzantine-misroute decision — a misrouted step wastes a hop
    /// without making progress (the query went to the wrong node and
    /// must be reissued), so heavy misrouting can exhaust the hop budget
    /// and fail the lookup. With `plan = None` it draws nothing.
    pub fn lookup_with_hops(
        &self,
        from: u64,
        key: u64,
        plan: Option<&FaultPlan>,
    ) -> Option<(u64, usize)> {
        let Some(from) = self.slot(from) else {
            // An unknown node holds no pointers: its first step that is
            // not misrouted dead-ends.
            self.lookups_issued.set(self.lookups_issued.get() + 1);
            if let Some(p) = plan {
                for _ in 0..self.max_hops() {
                    if !p.draw_misroute() {
                        break;
                    }
                }
            }
            return None;
        };
        self.route(from, key, plan)
            .map(|(owner, hops)| (self.id_of(owner), hops))
    }

    /// The iterative lookup behind [`lookup_with_hops`](Self::lookup_with_hops),
    /// from a known slot. Every step costs one hop, so `hops` counts
    /// the steps taken.
    ///
    /// Without a fault plan a step is a pure function of `current` (the
    /// key and the protocol state are fixed for the lookup), so a lookup
    /// that revisits a slot has entered a cycle it never leaves. Brent's
    /// method finds the cycle with one anchor, moved to `current` at
    /// each power-of-two step: when `current` meets the anchor, the gap
    /// is a period. Skipping whole periods lands on the slot that
    /// stepping would reach after them, so the lookup jumps to the last
    /// period before `max_hops` and steps the rest. With a plan every
    /// step draws a misroute, so the lookup steps every hop.
    fn route(&self, from: Slot, key: u64, plan: Option<&FaultPlan>) -> Option<(Slot, usize)> {
        self.lookups_issued.set(self.lookups_issued.get() + 1);
        let max_hops = self.max_hops();
        let mut current = from;
        let mut hops = 0usize;
        let (mut anchor, mut anchor_hops) = (from, 0usize);
        while hops < max_hops {
            if let Some(p) = plan {
                // Byzantine misroute: the step went to the wrong node and
                // has to be reissued — a wasted hop, no progress.
                if p.draw_misroute() {
                    hops += 1;
                    continue;
                }
            } else if hops > 0 {
                // Brent's check (at step 0 `current` is the anchor).
                if current == anchor {
                    // Skip whole periods, short of the budget so that
                    // this step still runs.
                    let period = hops - anchor_hops;
                    hops += (max_hops - 1 - hops) / period * period;
                } else if hops.is_power_of_two() {
                    (anchor, anchor_hops) = (current, hops);
                }
            }
            match self.first_usable_successor(current, plan) {
                Some(succ) => {
                    if succ == current
                        || in_half_open_interval(self.id_of(current), self.id_of(succ), key)
                    {
                        return Some((succ, hops + 1));
                    }
                    // No finger makes progress: fall through the
                    // successor.
                    current = self
                        .closest_preceding_usable(current, key, plan)
                        .unwrap_or(succ);
                }
                None => {
                    // The node's successor list died entirely; detour via
                    // any alive finger (no ownership claim possible from
                    // a blind node). Progress-toward-key fingers first.
                    current = self
                        .closest_preceding_usable(current, key, plan)
                        .or_else(|| self.closest_usable_finger(current, plan))?;
                }
            }
            hops += 1;
        }
        // Out of hops. Without a plan the lookup took more steps than
        // there are slots, so it is circling a loop of stale pointers;
        // report the best guess from where the budget ran out.
        self.first_usable_successor(current, plan)
            .map(|o| (o, hops))
    }

    /// The hop budget, over n slots (dead ones included). Greedy
    /// progress needs fewer than n hops. By pigeonhole, a plan-free
    /// lookup that spends more than n hops has revisited a slot, so it
    /// is in a cycle and [`route`](Self::route) ends it in closed form.
    /// With a plan, misrouted steps also spend hops, hence the slack.
    fn max_hops(&self) -> usize {
        2 * self.nodes.len() + ID_BITS
    }

    /// Degraded-mode delivery: abandon finger-table routing and walk
    /// successor lists hop by hop until reaching the node that owns
    /// `key`. Slower (O(n) hops) but immune to stale or Byzantine
    /// fingers — the graceful-degradation fallback after retries on the
    /// normal lookup are exhausted. Crashed nodes (fault plane) are
    /// skipped like dead ones.
    pub fn successor_walk(
        &self,
        from: u64,
        key: u64,
        plan: Option<&FaultPlan>,
    ) -> Option<(u64, usize)> {
        let mut current = self.slot(from)?;
        let mut hops = 0usize;
        // Walking strictly clockwise visits each alive node at most once.
        for _ in 0..=self.nodes.len() {
            let succ = self.first_usable_successor(current, plan)?;
            hops += 1;
            if succ == current || in_half_open_interval(self.id_of(current), self.id_of(succ), key)
            {
                return Some((self.id_of(succ), hops));
            }
            current = succ;
        }
        None
    }

    /// Whether every alive node's *immediate* successor pointer
    /// (`successors[0]`, not the fault-tolerant fallback through the
    /// list) matches the oracle ring — the strict Chord convergence
    /// criterion. Routing stays correct through the successor list even
    /// while this is false; stabilization is what repairs the pointer.
    pub fn is_converged(&self) -> bool {
        self.convergence_fraction() == 1.0
    }

    /// Fraction of alive nodes whose immediate successor pointer is
    /// correct.
    pub fn convergence_fraction(&self) -> f64 {
        let alive: Vec<Slot> = self.alive_in_ring_order().map(|(_, s)| s).collect();
        if alive.len() <= 1 {
            return 1.0;
        }
        let correct = alive
            .iter()
            .enumerate()
            .filter(|&(i, &s)| {
                self.node(s).successors.first() == Some(&alive[(i + 1) % alive.len()])
            })
            .count();
        correct as f64 / alive.len() as f64
    }

    fn alive_in_ring_order(&self) -> impl Iterator<Item = (u64, Slot)> + '_ {
        self.ring
            .iter()
            .copied()
            .filter(|&(_, s)| self.node(s).alive)
    }

    fn slot(&self, id: u64) -> Option<Slot> {
        let i = self.ring.binary_search_by_key(&id, |&(x, _)| x).ok()?;
        Some(self.ring[i].1)
    }

    fn node(&self, slot: Slot) -> &ProtoNode {
        &self.nodes[slot as usize]
    }

    fn id_of(&self, slot: Slot) -> u64 {
        self.node(slot).id
    }

    fn fingers_of(&self, slot: Slot) -> &[Slot] {
        let start = slot as usize * ID_BITS;
        &self.fingers[start..start + ID_BITS]
    }

    /// Ring liveness plus (when a fault plan is active) benign-crash
    /// state: the node must be alive *and* not crashed by the fault
    /// plane to be used for routing.
    fn usable(&self, slot: Slot, plan: Option<&FaultPlan>) -> bool {
        let n = self.node(slot);
        n.alive && plan.is_none_or(|p| !p.is_crashed(n.overlay.0))
    }

    fn first_usable_successor(&self, slot: Slot, plan: Option<&FaultPlan>) -> Option<Slot> {
        self.node(slot)
            .successors
            .iter()
            .copied()
            .find(|&s| self.usable(s, plan))
    }

    /// Emergency repair source when a node's whole successor list has
    /// died: the alive finger closest clockwise from `slot` (the best
    /// local guess at the new immediate successor). Real Chord recovers
    /// the same way — successor lists bound the *instant* tolerance,
    /// fingers rebuild beyond it.
    ///
    /// Distinct slots have distinct ids, so the minimum distance names
    /// one candidate and the scan order cannot matter; liveness is
    /// checked only for a candidate that would improve on the best.
    /// The answer depends only on the *set* of fingers and `usable` is
    /// pure, so an entry equal to the one before it is skipped unread:
    /// in a converged ring most low fingers repeat the successor.
    fn closest_usable_finger(&self, slot: Slot, plan: Option<&FaultPlan>) -> Option<Slot> {
        let id = self.id_of(slot);
        let mut best: Option<(u64, Slot)> = None; // (clockwise distance from id, candidate)
        let mut prev = slot;
        for &cand in self.fingers_of(slot) {
            if cand == prev {
                continue;
            }
            prev = cand;
            if cand == slot {
                continue;
            }
            let d = self.id_of(cand).wrapping_sub(id);
            if best.is_none_or(|(bd, _)| d < bd) && self.usable(cand, plan) {
                best = Some((d, cand));
            }
        }
        best.map(|(_, c)| c)
    }

    /// The usable finger or successor-list entry strictly between `at`
    /// and `key` that is closest to `key` (same order and repeated-entry
    /// arguments as
    /// [`closest_usable_finger`](Self::closest_usable_finger)).
    fn closest_preceding_usable(
        &self,
        at: Slot,
        key: u64,
        plan: Option<&FaultPlan>,
    ) -> Option<Slot> {
        let at_id = self.id_of(at);
        let mut best: Option<(u64, Slot)> = None; // (distance to key, candidate)
        let mut prev = at;
        let candidates = self.fingers_of(at).iter().chain(&self.node(at).successors);
        for &cand in candidates {
            if cand == prev {
                continue;
            }
            prev = cand;
            if cand == at {
                continue;
            }
            // Candidate must lie strictly between at and key (clockwise).
            let cand_id = self.id_of(cand);
            if !in_open_interval(at_id, key, cand_id) {
                continue;
            }
            let d = key.wrapping_sub(cand_id);
            if best.is_none_or(|(bd, _)| d < bd) && self.usable(cand, plan) {
                best = Some((d, cand));
            }
        }
        best.map(|(_, c)| c)
    }

    /// One stabilize round at `slot`; returns whether it changed a
    /// successor list or a predecessor.
    fn stabilize(&mut self, slot: Slot) -> bool {
        let id = self.id_of(slot);
        let mut changed = false;
        let succ = match self.first_usable_successor(slot, None) {
            Some(succ) => succ,
            None => {
                // Whole successor list dead: re-seed it from the closest
                // alive finger; the normal mechanism takes over next
                // round.
                let Some(rescue) = self.closest_usable_finger(slot, None) else {
                    return false; // fully isolated node
                };
                let list = &mut self.nodes[slot as usize].successors;
                list.clear();
                list.push(rescue);
                changed = true;
                rescue
            }
        };
        // Adopt the successor's predecessor if it sits between us.
        let mut new_succ = succ;
        if let Some(x) = self.node(succ).predecessor {
            if x != slot
                && self.node(x).alive
                && in_open_interval(id, self.id_of(succ), self.id_of(x))
            {
                new_succ = x;
            }
        }
        // Refresh the successor list from the (new) successor, dropping
        // entries known dead — copying them forward would keep zombie
        // pointers circulating between lists long after the failure
        // (the check is free here; a real node learns the same from its
        // own timeout cache).
        let mut list = std::mem::take(&mut self.spare);
        list.clear();
        list.push(new_succ);
        for &entry in &self.node(new_succ).successors {
            if list.len() >= self.cfg.successor_list_len {
                break;
            }
            if entry != slot && !list.contains(&entry) && self.node(entry).alive {
                list.push(entry);
            }
        }
        changed |= list != self.node(slot).successors;
        std::mem::swap(&mut self.nodes[slot as usize].successors, &mut list);
        self.spare = list;
        // Notify: tell the successor about ourselves.
        let adopt = match self.node(new_succ).predecessor {
            None => true,
            Some(p) => {
                !self.node(p).alive || in_open_interval(self.id_of(p), self.id_of(new_succ), id)
            }
        };
        if adopt && new_succ != slot {
            let predecessor = &mut self.nodes[new_succ as usize].predecessor;
            changed |= *predecessor != Some(slot);
            *predecessor = Some(slot);
        }
        changed
    }

    /// Re-looks-up the finger under `slot`'s cursor and moves the cursor
    /// on.
    fn fix_fingers(&mut self, slot: Slot) {
        let k = self.node(slot).next_finger;
        let target = self.id_of(slot).wrapping_add(1u64 << k);
        if let Some((owner, _)) = self.route(slot, target, None) {
            self.fingers[slot as usize * ID_BITS + k] = owner;
        }
        self.nodes[slot as usize].next_finger = (k + 1) % ID_BITS;
    }

    /// Whether the links equal the oracle ring's (the ring is
    /// *link-settled*): every participant is alive, every successor list
    /// holds the next `min(L, n - 1)` members (a lone node lists itself)
    /// and every predecessor is the ring predecessor. Fingers may be
    /// stale.
    ///
    /// This state is a fixed point of maintenance. With every member
    /// alive and every `successors[0]` right, `route` reaches the oracle
    /// owner whatever the fingers hold: each hop moves strictly
    /// clockwise toward the key, well within `max_hops`. So `stabilize`,
    /// which reads fingers only on its rescue path, rebuilds the same
    /// list and notifies a successor that already names it, and each
    /// `fix_fingers` writes `oracle_successor(id + 2^k)` into the finger
    /// under its cursor.
    ///
    /// O(L · n).
    fn links_settled(&self) -> bool {
        let n = self.ring.len();
        if n == 0 || self.nodes.iter().any(|node| !node.alive) {
            return false;
        }
        let list_len = self.cfg.successor_list_len.min(n - 1).max(1);
        self.ring.iter().enumerate().all(|(i, &(_, slot))| {
            let node = self.node(slot);
            let expected = (1..=list_len).map(|k| self.ring[(i + k) % n].1);
            let predecessor = (n > 1).then(|| self.ring[(i + n - 1) % n].1);
            node.successors.iter().copied().eq(expected) && node.predecessor == predecessor
        })
    }

    /// Writes what `rounds` fix-fingers firings at `slot` write on a
    /// link-settled ring: from the cursor on, wrapping modulo `ID_BITS`,
    /// `min(rounds, ID_BITS)` fingers each set to the oracle owner of
    /// its target. A target before the successor is taken without a
    /// search. The cursor is left alone.
    fn write_settled_fingers(&mut self, slot: Slot, rounds: u64) {
        let n = self.ring.len();
        let id = self.id_of(slot);
        let i = self
            .ring
            .binary_search_by_key(&id, |&(x, _)| x)
            .expect("every participant is on the ring");
        let (succ_id, succ) = self.ring[(i + 1) % n];
        let cursor = self.node(slot).next_finger;
        let writes = rounds.min(ID_BITS as u64) as usize;
        for k in (cursor..cursor + writes).map(|k| k % ID_BITS) {
            let target = id.wrapping_add(1u64 << k);
            let owner = if in_half_open_interval(id, succ_id, target) {
                succ
            } else {
                self.ring[self.ring.partition_point(|&(x, _)| x < target) % n].1
            };
            self.fingers[slot as usize * ID_BITS + k] = owner;
        }
    }

    /// Jumps `sched` over maintenance whose effect is known in advance,
    /// exactly as if every skipped timer had fired.
    ///
    /// After `fix_fingers_interval` ticks with no link change the ring
    /// is checked once against [`links_settled`](Self::links_settled).
    /// Link-settled, the clock jumps by the largest whole multiple of
    /// `lcm(stabilize_interval, fix_fingers_interval)` that stays within
    /// `deadline`, provided the ring is at a tick boundary (nothing
    /// pending at `now`) and the pending queue is in phase
    /// ([`timers_in_phase`](Self::timers_in_phase)). Every timer would
    /// then have fired a whole number of times and be back at its own
    /// phase, in its own queue position. The jump adds exactly those
    /// firings to `processed`; for each fix-fingers timer it writes the
    /// fingers its skipped firings would have written
    /// ([`write_settled_fingers`](Self::write_settled_fingers)), and adds
    /// one lookup per firing to `lookups_issued` and one step to its
    /// node's finger cursor.
    fn skip_settled(&mut self, sched: &mut Scheduler<MaintenanceEvent>, deadline: SimTime) {
        let now = sched.now();
        let (stabilize, fix) = (self.cfg.stabilize_interval, self.cfg.fix_fingers_interval);
        match self.settle {
            Settle::Disturbed => {
                self.settle = Settle::QuietSince(now);
                return;
            }
            Settle::QuietSince(since) if now.since(since) >= fix => {}
            Settle::Settled(from) if now >= from => {}
            _ => return,
        }
        if sched.next_time().is_none_or(|next| next <= now) {
            return; // empty, or mid-tick
        }
        if let Settle::QuietSince(_) = self.settle {
            if !self.links_settled() {
                self.settle = Settle::Unsettled;
                return;
            }
            self.settle = Settle::Settled(now);
        }
        let Some(period) = (stabilize / gcd(stabilize, fix)).checked_mul(fix) else {
            return;
        };
        let jump = deadline.since(now) / period * period;
        if jump == 0 {
            return;
        }
        if !self.timers_in_phase(sched) {
            // Within the longer interval every pending event fires once
            // and re-arms (or drops) itself in order.
            self.settle = Settle::Settled(now + stabilize.max(fix));
            return;
        }
        let fix_rounds = jump / fix;
        let cursor_step = (fix_rounds % ID_BITS as u64) as usize;
        let mut skipped = 0;
        for (_, &event) in sched.iter_pending() {
            skipped += match event {
                MaintenanceEvent::Stabilize(_) => jump / stabilize,
                MaintenanceEvent::FixFingers(who) => {
                    self.write_settled_fingers(who.slot, fix_rounds);
                    let node = &mut self.nodes[who.slot as usize];
                    node.next_finger = (node.next_finger + cursor_step) % ID_BITS;
                    self.lookups_issued
                        .set(self.lookups_issued.get() + fix_rounds);
                    fix_rounds
                }
            };
        }
        sched.fast_forward(jump, skipped);
    }

    /// Whether the pending queue is what stepping would leave one whole
    /// period later: every event is a live timer of this protocol; the
    /// latest arming time (due time less interval) is `now` exactly, so
    /// no timer is due more than one interval out and the clock stands
    /// where the last firing re-armed; and no tick's queue holds a
    /// shorter-period timer ahead of a longer-period one (re-arming
    /// queues the timer that fired earlier first).
    fn timers_in_phase(&self, sched: &Scheduler<MaintenanceEvent>) -> bool {
        let mut latest_armed = None;
        let mut prev: Option<(SimTime, u64)> = None;
        for (at, &event) in sched.iter_pending() {
            let Some((_, interval)) = self.live_timer(event) else {
                return false;
            };
            if prev.is_some_and(|(t, p)| t == at && p < interval) {
                return false;
            }
            prev = Some((at, interval));
            latest_armed = latest_armed.max(at.ticks().checked_sub(interval));
        }
        latest_armed == Some(sched.now().ticks())
    }

    /// The slot and interval of a timer that names a live node of this
    /// protocol (same slot, same Chord id); `None` for one to drop.
    fn live_timer(&self, event: MaintenanceEvent) -> Option<(Slot, u64)> {
        let (Participant { slot, id }, interval) = match event {
            MaintenanceEvent::Stabilize(who) => (who, self.cfg.stabilize_interval),
            MaintenanceEvent::FixFingers(who) => (who, self.cfg.fix_fingers_interval),
        };
        let named = self.nodes.get(slot as usize);
        named
            .is_some_and(|n| n.id == id && n.alive)
            .then_some((slot, interval))
    }
}

impl Simulation for ChordProtocol {
    type Event = MaintenanceEvent;

    fn handle(
        &mut self,
        at: SimTime,
        event: MaintenanceEvent,
        sched: &mut Scheduler<MaintenanceEvent>,
    ) {
        let Some((slot, interval)) = self.live_timer(event) else {
            return;
        };
        match event {
            MaintenanceEvent::Stabilize(_) => {
                if self.stabilize(slot) {
                    debug_assert!(
                        !matches!(self.settle, Settle::Settled(_)),
                        "a link changed on a link-settled ring"
                    );
                    self.settle = Settle::QuietSince(at);
                }
            }
            MaintenanceEvent::FixFingers(_) => self.fix_fingers(slot),
        }
        sched.schedule_in(interval, event);
    }
}

/// Runs maintenance until `deadline`; returns the step outcome and the
/// number of maintenance events processed.
///
/// The result equals [`sos_des::run_until`]'s, event counts included.
/// Once every successor list and predecessor equals the oracle ring's,
/// whole periods of `lcm(stabilize_interval, fix_fingers_interval)`
/// ticks are skipped rather than stepped: every timer would fire a whole
/// number of times and be back at its phase and queue position, no link
/// would change, and the fingers the skipped fix-fingers would have
/// written are written directly.
pub fn run_maintenance(
    protocol: &mut ChordProtocol,
    sched: &mut Scheduler<MaintenanceEvent>,
    deadline: SimTime,
) -> (StepOutcome, u64) {
    let start = sched.processed();
    loop {
        protocol.skip_settled(sched, deadline);
        // One tick at a time, so that every check sees a tick boundary.
        let Some(tick) = sched.next_time().filter(|&at| at <= deadline) else {
            break;
        };
        run_until(protocol, sched, tick);
    }
    let outcome = if sched.is_empty() {
        StepOutcome::Quiescent
    } else {
        StepOutcome::DeadlineReached
    };
    (outcome, sched.processed() - start)
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `x ∈ (a, b)` on the ring (exclusive both ends).
fn in_open_interval(a: u64, b: u64, x: u64) -> bool {
    x.wrapping_sub(a).wrapping_sub(1) < b.wrapping_sub(a).wrapping_sub(1)
}

/// `x ∈ (a, b]` on the ring.
fn in_half_open_interval(a: u64, b: u64, x: u64) -> bool {
    x.wrapping_sub(a).wrapping_sub(1) <= b.wrapping_sub(a).wrapping_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn build_network(
        n: usize,
        seed: u64,
    ) -> (ChordProtocol, Scheduler<MaintenanceEvent>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut proto = ChordProtocol::new(ProtocolConfig::default());
        let mut sched = Scheduler::new();
        let mut ids: Vec<u64> = Vec::new();
        let mut used = HashSet::new();
        for i in 0..n {
            let mut id = rng.gen::<u64>();
            while !used.insert(id) {
                id = rng.gen::<u64>();
            }
            ids.push(id);
            if i == 0 {
                proto.bootstrap(id, NodeId(i as u32), &mut sched);
            } else {
                let via = ids[rng.gen_range(0..i)];
                proto.join(id, NodeId(i as u32), via, &mut sched);
                // Let maintenance interleave with joins, as in a real
                // deployment.
                let now = sched.now();
                run_maintenance(&mut proto, &mut sched, now + 30);
            }
        }
        (proto, sched, ids)
    }

    #[test]
    fn sequential_joins_converge() {
        let (mut proto, mut sched, _) = build_network(64, 1);
        let now = sched.now();
        run_maintenance(&mut proto, &mut sched, now + 2_000);
        assert!(proto.is_converged(), "ring did not converge after joins");
        assert_eq!(proto.alive_count(), 64);
    }

    #[test]
    fn converged_lookups_match_oracle() {
        let (mut proto, mut sched, ids) = build_network(48, 2);
        let now = sched.now();
        run_maintenance(&mut proto, &mut sched, now + 2_000);
        assert!(proto.is_converged());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..300 {
            let key = rng.gen::<u64>();
            let from = ids[rng.gen_range(0..ids.len())];
            let found = proto.lookup(from, key).unwrap();
            assert_eq!(
                found,
                proto.oracle_successor(key).unwrap(),
                "lookup({key}) from {from}"
            );
        }
    }

    #[test]
    fn ring_recovers_from_mass_failure() {
        let (mut proto, mut sched, ids) = build_network(60, 4);
        let now = sched.now();
        run_maintenance(&mut proto, &mut sched, now + 2_000);
        assert!(proto.is_converged());
        // Kill 25% (below the successor-list tolerance).
        let mut rng = StdRng::seed_from_u64(5);
        let mut killed = HashSet::new();
        while killed.len() < 15 {
            let victim = ids[rng.gen_range(0..ids.len())];
            if killed.insert(victim) {
                proto.kill(victim);
            }
        }
        assert!(!proto.is_converged(), "failures must break convergence");
        let now = sched.now();
        run_maintenance(&mut proto, &mut sched, now + 5_000);
        assert!(
            proto.is_converged(),
            "stabilization must repair the ring (fraction {})",
            proto.convergence_fraction()
        );
        assert_eq!(proto.alive_count(), 45);
        // Lookups are correct again among survivors.
        for _ in 0..100 {
            let key = rng.gen::<u64>();
            let from = *ids.iter().find(|id| !killed.contains(id)).unwrap();
            assert_eq!(proto.lookup(from, key), proto.oracle_successor(key));
        }
    }

    #[test]
    fn convergence_fraction_tracks_recovery() {
        let (mut proto, mut sched, ids) = build_network(40, 6);
        let now = sched.now();
        run_maintenance(&mut proto, &mut sched, now + 2_000);
        let before = proto.convergence_fraction();
        assert_eq!(before, 1.0);
        for &v in ids.iter().take(8) {
            proto.kill(v);
        }
        let broken = proto.convergence_fraction();
        assert!(broken < 1.0);
        let now = sched.now();
        run_maintenance(&mut proto, &mut sched, now + 5_000);
        assert!(proto.convergence_fraction() > broken);
        assert_eq!(proto.convergence_fraction(), 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let (mut proto, mut sched, ids) = build_network(32, seed);
            let now = sched.now();
            run_maintenance(&mut proto, &mut sched, now + 1_000);
            (
                proto.convergence_fraction(),
                proto.lookups_issued(),
                ids,
                sched.processed(),
            )
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn interval_predicates() {
        assert!(in_open_interval(10, 20, 15));
        assert!(!in_open_interval(10, 20, 10));
        assert!(!in_open_interval(10, 20, 20));
        // Wraparound.
        assert!(in_open_interval(u64::MAX - 5, 5, 0));
        assert!(in_half_open_interval(10, 20, 20));
        assert!(!in_half_open_interval(10, 20, 10));
    }

    #[test]
    fn single_node_network_is_converged() {
        let mut proto = ChordProtocol::new(ProtocolConfig::default());
        let mut sched = Scheduler::new();
        proto.bootstrap(42, NodeId(0), &mut sched);
        assert!(proto.is_converged());
        assert_eq!(proto.lookup(42, 7), Some(42));
        assert_eq!(proto.oracle_successor(7), Some(42));
        assert_eq!(proto.overlay_of(42), Some(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "already joined")]
    fn duplicate_join_panics() {
        let mut proto = ChordProtocol::new(ProtocolConfig::default());
        let mut sched = Scheduler::new();
        proto.bootstrap(1, NodeId(0), &mut sched);
        proto.join(1, NodeId(1), 1, &mut sched);
    }
}
