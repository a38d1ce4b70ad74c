//! The layered overlay: a concrete instantiation of a
//! [`sos_core::Scenario`].
//!
//! An overlay holds `N` overlay nodes (indices `0..N`) of which `n` are
//! secretly SOS nodes assigned to layers `1..=L`, plus `F` filters
//! (indices `N..N+F`, layer `L+1`). Every SOS node carries a concrete
//! neighbor table into the next layer, sized by the scenario's mapping
//! degree (fractional degrees are realized by unbiased stochastic
//! rounding so ensemble averages match the analytical model).

use crate::bitset::NodeBitSet;
use crate::node::{NodeId, NodeStatus, Role};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sos_core::{CompromiseState, Scenario};
use sos_math::sampling::{sample_from, stochastic_round, IndexSampler};

/// A concrete overlay instance. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct Overlay {
    scenario: Scenario,
    roles: Vec<Role>,
    statuses: Vec<NodeStatus>,
    /// Dense index of bad (broken/congested) nodes, kept in lockstep
    /// with `statuses` so the routing hot path tests liveness with one
    /// bit probe and trial resets cost O(words).
    bad: NodeBitSet,
    neighbors: Vec<Vec<NodeId>>,
    /// `layers[0]` = layer 1, …, `layers[L]` = filter layer.
    layers: Vec<Vec<NodeId>>,
    /// Sampling scratch reused by [`Overlay::build_into`]. The SOS
    /// membership draw spans every node, so it holds one word per node.
    sampler: IndexSampler,
    picks: Vec<usize>,
}

impl Overlay {
    /// Instantiates an overlay for `scenario` using `rng` for all random
    /// choices (SOS membership, layer assignment, neighbor tables).
    ///
    /// Rebuilding with the same seed yields the identical overlay.
    pub fn build<R: Rng + ?Sized>(scenario: &Scenario, rng: &mut R) -> Self {
        let mut overlay = Overlay {
            scenario: scenario.clone(),
            roles: Vec::new(),
            statuses: Vec::new(),
            bad: NodeBitSet::new(),
            neighbors: Vec::new(),
            layers: Vec::new(),
            sampler: IndexSampler::new(),
            picks: Vec::new(),
        };
        overlay.build_into(scenario, rng);
        overlay
    }

    /// Rebuilds this overlay in place for `scenario`, reusing every
    /// existing allocation (role/status tables, layer lists, neighbor
    /// tables, sampling scratch).
    ///
    /// Consumes the RNG identically to [`Overlay::build`], so
    /// `a.build_into(s, rng)` on any prior overlay yields a result
    /// indistinguishable from `Overlay::build(s, rng)` at the same RNG
    /// state — the zero-rebuild trial engine relies on this.
    ///
    /// Internally the build is split into two dedicated sub-streams:
    /// exactly two `u64` seeds are drawn from `rng` (membership, then
    /// neighbor tables), and each build stage runs on its own
    /// [`StdRng`] forked from its seed. The split is part of the
    /// result: changing it would move every committed overlay.
    pub fn build_into<R: Rng + ?Sized>(&mut self, scenario: &Scenario, rng: &mut R) {
        let membership_seed = rng.gen::<u64>();
        let neighbor_seed = rng.gen::<u64>();
        self.build_membership(scenario, membership_seed);
        self.build_neighbors(neighbor_seed);
    }

    /// Membership stage: clears all tables and deals SOS nodes and
    /// filters into layers from the membership sub-stream.
    fn build_membership(&mut self, scenario: &Scenario, membership_seed: u64) {
        let rng = &mut StdRng::seed_from_u64(membership_seed);
        self.scenario.clone_from(scenario);
        let big_n = scenario.system().overlay_nodes() as usize;
        let topo = scenario.topology();
        let l = topo.layer_count();
        let filter_count = topo.filter_count() as usize;
        let total = big_n + filter_count;

        self.roles.clear();
        self.roles.resize(total, Role::Bystander);
        self.statuses.clear();
        self.statuses.resize(total, NodeStatus::Good);
        self.bad.clear();
        for layer in &mut self.layers {
            layer.clear();
        }
        self.layers.resize_with(l + 1, Vec::new);
        for table in &mut self.neighbors {
            table.clear();
        }
        self.neighbors.resize_with(total, Vec::new);

        // Pick the SOS nodes uniformly from the overlay population and
        // deal them into layers.
        let sos_total = scenario.system().sos_nodes() as usize;
        self.sampler
            .sample_indices_into(rng, big_n, sos_total, &mut self.picks);
        let mut cursor = 0usize;
        for (layer_idx, &size) in topo.layer_sizes().iter().enumerate() {
            for _ in 0..size {
                let node = self.picks[cursor];
                cursor += 1;
                self.roles[node] = Role::Sos {
                    layer: (layer_idx + 1) as u16,
                };
                self.layers[layer_idx].push(NodeId(node as u32));
            }
        }
        for f in 0..filter_count {
            self.roles[big_n + f] = Role::Filter;
            self.layers[l].push(NodeId((big_n + f) as u32));
        }
    }

    /// Neighbor-table stage: re-deals every SOS node's next-layer table
    /// from the neighbor sub-stream. Membership must already be laid
    /// out for `self.scenario`.
    fn build_neighbors(&mut self, neighbor_seed: u64) {
        let rng = &mut StdRng::seed_from_u64(neighbor_seed);
        let topo = self.scenario.topology();
        let l = topo.layer_count();
        // Neighbor tables: layer i → layer i+1 (servlets → filters).
        let layers = &self.layers;
        let neighbors = &mut self.neighbors;
        let sampler = &mut self.sampler;
        for layer_idx in 0..l {
            let next: &[NodeId] = &layers[layer_idx + 1];
            let boundary = layer_idx + 2; // mapping degree m_{i+1}
            let degree = topo.degree(boundary);
            for &node in &layers[layer_idx] {
                let k = stochastic_round(rng, degree).clamp(1, next.len() as u64) as usize;
                sampler.sample_from_into(rng, next, k, &mut neighbors[node.index()]);
            }
        }
    }

    /// The scenario this overlay realizes.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Number of overlay nodes `N` (excluding filters).
    pub fn overlay_node_count(&self) -> usize {
        self.scenario.system().overlay_nodes() as usize
    }

    /// Number of filters `F`.
    pub fn filter_count(&self) -> usize {
        self.scenario.topology().filter_count() as usize
    }

    /// Total addressable nodes (`N + F`).
    pub fn total_node_count(&self) -> usize {
        self.roles.len()
    }

    /// Number of SOS layers `L` (excluding the filter layer).
    pub fn layer_count(&self) -> usize {
        self.layers.len() - 1
    }

    /// The role of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn role(&self, id: NodeId) -> Role {
        self.roles[id.index()]
    }

    /// The 1-based layer of a node (`L+1` for filters), if it is part of
    /// the architecture.
    pub fn layer_of(&self, id: NodeId) -> Option<usize> {
        match self.roles[id.index()] {
            Role::Sos { layer } => Some(layer as usize),
            Role::Filter => Some(self.layer_count() + 1),
            Role::Bystander => None,
        }
    }

    /// Current health of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn status(&self, id: NodeId) -> NodeStatus {
        self.statuses[id.index()]
    }

    /// Sets the health of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_status(&mut self, id: NodeId, status: NodeStatus) {
        self.statuses[id.index()] = status;
        if status.is_bad() {
            self.bad.insert(id);
        } else {
            self.bad.remove(id);
        }
    }

    /// Restores every node to [`NodeStatus::Good`] (new attack trial on
    /// the same topology).
    pub fn reset_statuses(&mut self) {
        self.statuses.fill(NodeStatus::Good);
        self.bad.clear();
    }

    /// The next-layer neighbor table of a node (empty for bystanders and
    /// filters).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.neighbors[id.index()]
    }

    /// Members of a 1-based layer (`L+1` = filters).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_members(&self, layer: usize) -> &[NodeId] {
        assert!(
            (1..=self.layers.len()).contains(&layer),
            "layer {layer} out of range"
        );
        &self.layers[layer - 1]
    }

    /// Draws a client's entry set into `out`: `round(m_1)` distinct
    /// first-layer nodes (a fresh draw per client, like the analytical
    /// model's average over routing tables), using the caller's
    /// sampling scratch.
    pub fn sample_entry_points_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sampler: &mut IndexSampler,
        out: &mut Vec<NodeId>,
    ) {
        let first = self.layer_members(1);
        let degree = self.scenario.topology().degree(1);
        let k = stochastic_round(rng, degree).clamp(1, first.len() as u64) as usize;
        sampler.sample_from_into(rng, first, k, out);
    }

    /// Whether the node is a good (routable) node.
    #[inline]
    pub fn is_good(&self, id: NodeId) -> bool {
        debug_assert!(id.index() < self.statuses.len(), "{id} out of range");
        !self.bad.contains(id)
    }

    /// The set of bad (broken or congested) node ids, kept in lockstep
    /// with [`Overlay::set_status`]. Word-at-a-time consumers (the
    /// batched congestion sampler) read good nodes as the complement of
    /// these words masked to the id range they care about, instead of
    /// probing `status()` per node.
    #[inline]
    pub fn bad_set(&self) -> &NodeBitSet {
        &self.bad
    }

    /// Snapshot of per-layer broken/congested counts as a
    /// [`CompromiseState`] — lets the analytical evaluator price an
    /// empirically attacked overlay.
    pub fn compromise_state(&self) -> CompromiseState {
        let layers = self.layers.len();
        let mut broken = vec![0.0; layers];
        let mut congested = vec![0.0; layers];
        for (layer_idx, members) in self.layers.iter().enumerate() {
            for id in members {
                match self.statuses[id.index()] {
                    NodeStatus::Broken => broken[layer_idx] += 1.0,
                    NodeStatus::Congested => congested[layer_idx] += 1.0,
                    NodeStatus::Good => {}
                }
            }
        }
        CompromiseState::from_counts(self.scenario.topology(), broken, congested)
    }

    /// Count of bad nodes among all overlay nodes and filters.
    pub fn total_bad(&self) -> usize {
        self.bad.len()
    }

    /// Iterator over all overlay-node ids (`0..N`, filters excluded) —
    /// the population the attacker samples from.
    pub fn overlay_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.overlay_node_count() as u32).map(NodeId)
    }

    /// Removes an SOS node from the architecture without replacement
    /// (churn without promotion): it becomes a good bystander, its
    /// neighbor table is dropped, and inbound neighbor-table entries
    /// pointing at it are removed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an SOS node.
    pub fn retire_sos_node(&mut self, node: NodeId) {
        let Role::Sos { layer } = self.roles[node.index()] else {
            panic!("{node} is not an SOS node");
        };
        let layer = layer as usize;
        self.roles[node.index()] = Role::Bystander;
        self.statuses[node.index()] = NodeStatus::Good;
        self.bad.remove(node);
        self.neighbors[node.index()].clear();
        self.layers[layer - 1].retain(|&m| m != node);
        for table in &mut self.neighbors {
            table.retain(|&m| m != node);
        }
    }

    /// Replaces a departing SOS node with a promoted bystander: the
    /// promotion inherits the layer, draws a *fresh* neighbor table of
    /// the scenario's mapping degree, and inbound tables that pointed at
    /// the departed node are rewritten to point at the replacement. The
    /// departed node becomes a good bystander.
    ///
    /// # Panics
    ///
    /// Panics if `departed` is not an SOS node or `promoted` is not a
    /// bystander.
    pub fn replace_sos_node<R: Rng + ?Sized>(
        &mut self,
        departed: NodeId,
        promoted: NodeId,
        rng: &mut R,
    ) {
        let Role::Sos { layer } = self.roles[departed.index()] else {
            panic!("{departed} is not an SOS node");
        };
        assert_eq!(
            self.roles[promoted.index()],
            Role::Bystander,
            "{promoted} is not a bystander"
        );
        let layer = layer as usize;

        // Swap membership.
        self.roles[departed.index()] = Role::Bystander;
        self.statuses[departed.index()] = NodeStatus::Good;
        self.bad.remove(departed);
        self.neighbors[departed.index()].clear();
        self.roles[promoted.index()] = Role::Sos {
            layer: layer as u16,
        };
        self.statuses[promoted.index()] = NodeStatus::Good;
        self.bad.remove(promoted);
        let members = &mut self.layers[layer - 1];
        let pos = members
            .iter()
            .position(|&m| m == departed)
            .expect("departed node is a member of its layer");
        members[pos] = promoted;

        // Fresh outgoing table for the promotion.
        let next: Vec<NodeId> = self.layers[layer].clone();
        let degree = self.scenario.topology().degree(layer + 1);
        let k = stochastic_round(rng, degree).clamp(1, next.len() as u64) as usize;
        self.neighbors[promoted.index()] = sample_from(rng, &next, k);

        // Inbound repairs: everyone who knew the departed node learns
        // the replacement instead (the operator hands out the update).
        for table in &mut self.neighbors {
            for entry in table.iter_mut() {
                if *entry == departed {
                    *entry = promoted;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sos_core::{MappingDegree, NodeDistribution, SystemParams};

    fn scenario(mapping: MappingDegree) -> Scenario {
        Scenario::builder()
            .system(SystemParams::new(1_000, 60, 0.5).unwrap())
            .layers(3)
            .distribution(NodeDistribution::Even)
            .mapping(mapping)
            .filters(10)
            .build()
            .unwrap()
    }

    fn overlay(mapping: MappingDegree, seed: u64) -> Overlay {
        let mut rng = StdRng::seed_from_u64(seed);
        Overlay::build(&scenario(mapping), &mut rng)
    }

    #[test]
    fn build_respects_layer_sizes() {
        let o = overlay(MappingDegree::OneTo(2), 1);
        assert_eq!(o.layer_members(1).len(), 20);
        assert_eq!(o.layer_members(2).len(), 20);
        assert_eq!(o.layer_members(3).len(), 20);
        assert_eq!(o.layer_members(4).len(), 10);
        assert_eq!(o.total_node_count(), 1_010);
        assert_eq!(o.layer_count(), 3);
    }

    #[test]
    fn roles_are_consistent_with_layers() {
        let o = overlay(MappingDegree::OneTo(2), 2);
        let mut sos_count = 0;
        let mut bystanders = 0;
        for i in 0..o.overlay_node_count() {
            match o.role(NodeId(i as u32)) {
                Role::Sos { layer } => {
                    sos_count += 1;
                    assert!(o.layer_members(layer as usize).contains(&NodeId(i as u32)));
                }
                Role::Bystander => bystanders += 1,
                Role::Filter => panic!("filters live above N"),
            }
        }
        assert_eq!(sos_count, 60);
        assert_eq!(bystanders, 940);
        for f in 0..10 {
            let id = NodeId((1_000 + f) as u32);
            assert_eq!(o.role(id), Role::Filter);
            assert_eq!(o.layer_of(id), Some(4));
        }
    }

    #[test]
    fn neighbor_tables_point_to_next_layer() {
        let o = overlay(MappingDegree::OneTo(3), 3);
        for layer in 1..=3usize {
            for &id in o.layer_members(layer) {
                let neigh = o.neighbors(id);
                assert_eq!(neigh.len(), 3, "node {id} in layer {layer}");
                // Distinct.
                let mut sorted = neigh.to_vec();
                sorted.sort();
                sorted.dedup();
                assert_eq!(sorted.len(), neigh.len());
                for &nb in neigh {
                    assert_eq!(o.layer_of(nb), Some(layer + 1), "{id} -> {nb}");
                }
            }
        }
        // Bystanders and filters have no outgoing tables.
        for i in 0..o.total_node_count() {
            let id = NodeId(i as u32);
            if o.layer_of(id).is_none() || o.role(id) == Role::Filter {
                assert!(o.neighbors(id).is_empty());
            }
        }
    }

    #[test]
    fn one_to_all_tables_cover_next_layer() {
        let o = overlay(MappingDegree::OneToAll, 4);
        for &id in o.layer_members(1) {
            assert_eq!(o.neighbors(id).len(), 20);
        }
        for &id in o.layer_members(3) {
            assert_eq!(o.neighbors(id).len(), 10, "servlets know all filters");
        }
    }

    #[test]
    fn fractional_degree_realized_stochastically() {
        // one-to-half of a 20-node layer = 10 exactly (integer), so use a
        // custom fractional degree.
        let scenario = Scenario::builder()
            .system(SystemParams::new(1_000, 60, 0.5).unwrap())
            .layers(3)
            .mapping(MappingDegree::Custom(vec![1.0, 2.5, 2.5, 2.5]))
            .filters(10)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let o = Overlay::build(&scenario, &mut rng);
        let sizes: Vec<usize> = o
            .layer_members(1)
            .iter()
            .map(|&id| o.neighbors(id).len())
            .collect();
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
        let mean: f64 = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(mean > 2.0 && mean < 3.0);
    }

    #[test]
    fn statuses_and_reset() {
        let mut o = overlay(MappingDegree::OneTo(2), 5);
        let id = o.layer_members(2)[0];
        o.set_status(id, NodeStatus::Broken);
        assert!(!o.is_good(id));
        assert_eq!(o.total_bad(), 1);
        let state = o.compromise_state();
        assert_eq!(state.broken(2), 1.0);
        assert_eq!(state.bad(2), 1.0);
        o.reset_statuses();
        assert_eq!(o.total_bad(), 0);
        assert_eq!(o.compromise_state().total_bad(), 0.0);
    }

    #[test]
    fn entry_points_come_from_layer_one() {
        let o = overlay(MappingDegree::OneTo(2), 6);
        let mut rng = StdRng::seed_from_u64(10);
        let mut sampler = IndexSampler::new();
        let mut entries = Vec::new();
        for _ in 0..20 {
            o.sample_entry_points_into(&mut rng, &mut sampler, &mut entries);
            assert_eq!(entries.len(), 2);
            for &e in &entries {
                assert_eq!(o.layer_of(e), Some(1));
            }
        }
    }

    #[test]
    fn same_seed_same_overlay() {
        let a = overlay(MappingDegree::OneTo(2), 77);
        let b = overlay(MappingDegree::OneTo(2), 77);
        for layer in 1..=4usize {
            assert_eq!(a.layer_members(layer), b.layer_members(layer));
        }
        for i in 0..a.total_node_count() {
            assert_eq!(a.neighbors(NodeId(i as u32)), b.neighbors(NodeId(i as u32)));
        }
    }

    #[test]
    fn different_seed_different_overlay() {
        let a = overlay(MappingDegree::OneTo(2), 1);
        let b = overlay(MappingDegree::OneTo(2), 2);
        assert_ne!(a.layer_members(1), b.layer_members(1));
    }

    fn assert_same_overlay(a: &Overlay, b: &Overlay) {
        assert_eq!(a.total_node_count(), b.total_node_count());
        assert_eq!(a.layer_count(), b.layer_count());
        for layer in 1..=a.layer_count() + 1 {
            assert_eq!(a.layer_members(layer), b.layer_members(layer));
        }
        for i in 0..a.total_node_count() {
            let id = NodeId(i as u32);
            assert_eq!(a.role(id), b.role(id));
            assert_eq!(a.status(id), b.status(id));
            assert_eq!(a.neighbors(id), b.neighbors(id));
        }
    }

    #[test]
    fn build_into_reuse_matches_fresh_build() {
        let s = scenario(MappingDegree::OneTo(3));
        // Dirty the reused overlay first: different mapping, plus damage.
        let mut reused = overlay(MappingDegree::OneTo(2), 99);
        let victim = reused.layer_members(2)[3];
        reused.set_status(victim, NodeStatus::Congested);
        for trial_seed in [0u64, 5, 81] {
            let mut rng_a = StdRng::seed_from_u64(trial_seed);
            let mut rng_b = StdRng::seed_from_u64(trial_seed);
            let fresh = Overlay::build(&s, &mut rng_a);
            reused.build_into(&s, &mut rng_b);
            assert_same_overlay(&fresh, &reused);
            // Both RNGs consumed the same number of draws.
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
            assert_eq!(reused.total_bad(), 0, "rebuild clears damage");
        }
    }

    #[test]
    fn build_into_shrinks_to_smaller_scenario() {
        let big = scenario(MappingDegree::OneTo(2));
        let small = Scenario::builder()
            .system(SystemParams::new(200, 12, 0.5).unwrap())
            .layers(2)
            .mapping(MappingDegree::OneTo(2))
            .filters(4)
            .build()
            .unwrap();
        let mut reused = overlay(MappingDegree::OneTo(2), 1);
        assert_eq!(reused.total_node_count(), 1_010);
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        reused.build_into(&small, &mut rng_a);
        let fresh = Overlay::build(&small, &mut rng_b);
        assert_same_overlay(&fresh, &reused);
        assert_eq!(reused.total_node_count(), 204);
        // And back up to the larger scenario again.
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut rng_b = StdRng::seed_from_u64(4);
        reused.build_into(&big, &mut rng_a);
        assert_same_overlay(&Overlay::build(&big, &mut rng_b), &reused);
    }

    #[test]
    fn bad_bitset_tracks_statuses() {
        let mut o = overlay(MappingDegree::OneTo(2), 8);
        let a = o.layer_members(1)[0];
        let b = o.layer_members(2)[1];
        o.set_status(a, NodeStatus::Broken);
        o.set_status(b, NodeStatus::Congested);
        assert!(!o.is_good(a));
        assert!(!o.is_good(b));
        assert_eq!(o.total_bad(), 2);
        o.set_status(b, NodeStatus::Good);
        assert!(o.is_good(b));
        assert_eq!(o.total_bad(), 1);
        o.reset_statuses();
        assert!(o.is_good(a));
        assert_eq!(o.total_bad(), 0);
    }

    #[test]
    fn entry_points_with_a_reused_sampler_match_a_fresh_draw() {
        let o = overlay(MappingDegree::OneTo(2), 6);
        let mut sampler = IndexSampler::new();
        let mut buf = Vec::new();
        for seed in 0..20u64 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let first = o.layer_members(1);
            let degree = o.scenario().topology().degree(1);
            let k = stochastic_round(&mut rng_a, degree).clamp(1, first.len() as u64) as usize;
            let fresh = sample_from(&mut rng_a, first, k);
            o.sample_entry_points_into(&mut rng_b, &mut sampler, &mut buf);
            assert_eq!(fresh, buf);
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
        }
    }
}
