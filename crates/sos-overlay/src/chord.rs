//! A Chord distributed hash table (Stoica et al., SIGCOMM 2001).
//!
//! The original SOS architecture routes between overlay layers over
//! Chord: a beacon is "the node whose Chord identifier owns the hash of
//! the target's name", and every inter-layer message traverses `O(log N)`
//! Chord hops. The ICDCS analysis abstracts each traversal into a single
//! logical hop; this module restores the substrate so the simulator can
//! also measure what the abstraction hides (compromised *intermediate*
//! hops — the `ablation-chord` experiment).
//!
//! The implementation is a faithful, simulation-grade Chord:
//!
//! * 64-bit circular identifier space,
//! * per-node finger tables (`finger[k] = successor(id + 2^k)`),
//! * successor lists for fault tolerance,
//! * iterative greedy lookup via closest-preceding-finger,
//! * failure-aware lookup that routes around dead nodes using fingers
//!   and successor lists,
//! * `join` / `leave` membership changes.
//!
//! Lookups are performed centrally over the ring state (this is a
//! simulator, not a networked implementation), but only ever use the
//! state a real Chord node would have: its own fingers and successor
//! list. Neither is stored: both are functions of the sorted id array,
//! so each hop derives just the entries its greedy step looks at (see
//! `ChordRing::greedy_step`). A ring is its ids, members and position
//! map, and building one costs an id draw and two counting passes over
//! the ids' top bits (see `IdDraw::draw`): the ids are uniform, so a
//! comparison sort would spend most of a paper-scale build ordering them.

use crate::bitset::NodeBitSet;
use crate::node::NodeId;
use rand::Rng;

/// Bits in the identifier space (and maximum finger-table size).
pub const ID_BITS: usize = 64;

/// Successor-list length (Chord recommends `Ω(log N)`; 16 covers the
/// simulation scales used here).
pub const SUCCESSOR_LIST_LEN: usize = 16;

/// Result of a successful lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupOutcome {
    /// The node owning the key (the key's successor on the ring).
    pub owner: NodeId,
    /// Nodes visited, starting with the querying node and ending with
    /// `owner`.
    pub path: Vec<NodeId>,
}

impl LookupOutcome {
    /// Number of hops taken (edges, i.e. `path.len() - 1`).
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// A Chord ring over a set of overlay nodes.
#[derive(Debug, Clone)]
pub struct ChordRing {
    /// Identifier of each ring position, strictly ascending. Also the
    /// ring's whole routing state: every node's fingers and successor
    /// list are functions of this array (see `greedy_step`).
    ids: Vec<u64>,
    /// `members[pos]` is the overlay node at ring position `pos`.
    members: Vec<NodeId>,
    /// `position_of[node.index()]` = ring position, `u32::MAX` when the
    /// node is not on the ring (dense map: members are overlay ids).
    position_of: Vec<u32>,
    /// Identifier-draw buffers reused by [`ChordRing::build_into`].
    draw: IdDraw,
}

/// The buffers of one identifier draw, kept so that a rebuild at the
/// same size allocates nothing.
#[derive(Debug, Clone, Default)]
struct IdDraw {
    /// `(id, member)` pairs, sorted ascending by id after a draw.
    pairs: Vec<(u64, NodeId)>,
    /// The counting sort's second buffer.
    scratch: Vec<(u64, NodeId)>,
    /// The counting sort's two histograms, one per digit.
    counts: Vec<u32>,
}

impl IdDraw {
    /// Draws one distinct uniformly random 64-bit identifier per member
    /// into `pairs`, sorted ascending by identifier.
    ///
    /// One draw per member, then [`IdDraw::sort_by_id`]; identifier
    /// collisions among `n` uniform `u64` draws have probability ≈
    /// `n²/2⁶⁵` (≈ 5·10⁻¹² at n = 10⁴), but determinism demands a defined
    /// resolution: within each run of equal ids, ordered by [`NodeId`],
    /// every member after the first is re-rolled in that order, and the
    /// sort repeated until all are distinct. The order is by member, not
    /// by where a sort left equal keys, so the ring does not depend on
    /// the order of `members`. Distinct ids have one sorted order, so the
    /// ring is the one any sort would give; the unit tests'
    /// `ChordRing::reference_ids` orders its ids with a comparison sort
    /// and must consume the RNG draw for draw alike.
    fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R, members: &[NodeId]) {
        self.pairs.clear();
        self.pairs.reserve(members.len());
        for &m in members {
            self.pairs.push((rng.gen::<u64>(), m));
        }
        self.sort_by_id();
        let pairs = &mut self.pairs;
        while pairs.windows(2).any(|w| w[0].0 == w[1].0) {
            pairs.sort_unstable();
            let mut prev = pairs[0].0;
            for pair in &mut pairs[1..] {
                let id = pair.0;
                if id == prev {
                    pair.0 = rng.gen::<u64>();
                }
                prev = id;
            }
            pairs.sort_unstable_by_key(|&(id, _)| id);
        }
    }

    /// Sorts `pairs` ascending by id (equal ids in no defined order).
    ///
    /// Two stable counting passes, least significant digit first, order
    /// the pairs by the top `2d` bits of their ids, with `d =
    /// ⌈bitlen(n)/2⌉ + 1` capped at 11: below the cap that is more than
    /// `4n` buckets, so uniform ids share their top `2d` bits in short,
    /// rare runs, which an insertion pass then orders. Linear for
    /// uniform ids, where `sort_unstable_by_key` spends `O(n log n)`
    /// comparisons; the insertion pass is quadratic only in ids that
    /// crowd into a few buckets, which a uniform draw does not produce.
    fn sort_by_id(&mut self) {
        let n = self.pairs.len();
        let bitlen = (usize::BITS - n.leading_zeros()) as usize;
        let d = (bitlen.div_ceil(2) + 1).min(11);
        let buckets = 1usize << d;
        let hi = |id: u64| (id >> (64 - d)) as usize;
        let lo = |id: u64| (id >> (64 - 2 * d)) as usize & (buckets - 1);

        self.counts.clear();
        self.counts.resize(2 * buckets, 0);
        let (lo_at, hi_at) = self.counts.split_at_mut(buckets);
        for &(id, _) in &self.pairs {
            lo_at[lo(id)] += 1;
            hi_at[hi(id)] += 1;
        }
        for at in [&mut *lo_at, &mut *hi_at] {
            let mut sum = 0;
            for c in at {
                (*c, sum) = (sum, sum + *c);
            }
        }

        // Every slot is written by the first pass: only the length matters.
        self.scratch.resize(n, (0, NodeId(0)));
        for &pair in &self.pairs {
            let at = &mut lo_at[lo(pair.0)];
            self.scratch[*at as usize] = pair;
            *at += 1;
        }
        for &pair in &self.scratch {
            let at = &mut hi_at[hi(pair.0)];
            self.pairs[*at as usize] = pair;
            *at += 1;
        }

        let pairs = &mut self.pairs[..];
        for i in 1..n {
            let pair = pairs[i];
            if pairs[i - 1].0 <= pair.0 {
                continue;
            }
            let mut j = i;
            while j > 0 && pairs[j - 1].0 > pair.0 {
                pairs[j] = pairs[j - 1];
                j -= 1;
            }
            pairs[j] = pair;
        }
    }
}

impl ChordRing {
    /// Builds a ring over `members`, assigning each a distinct uniformly
    /// random 64-bit identifier drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or contains duplicates.
    pub fn build<R: Rng + ?Sized>(rng: &mut R, members: &[NodeId]) -> Self {
        let mut ring = ChordRing {
            ids: Vec::new(),
            members: Vec::new(),
            position_of: Vec::new(),
            draw: IdDraw::default(),
        };
        ring.build_into(rng, members);
        ring
    }

    /// Rebuilds this ring in place over `members`, reusing every existing
    /// allocation (identifier table, members, position map, draw
    /// buffers).
    ///
    /// Consumes the RNG identically to [`ChordRing::build`], so a reused
    /// ring is indistinguishable from a freshly built one at the same RNG
    /// state — the zero-rebuild trial engine relies on this.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or contains duplicates.
    pub fn build_into<R: Rng + ?Sized>(&mut self, rng: &mut R, members: &[NodeId]) {
        assert!(!members.is_empty(), "a Chord ring needs at least one node");

        self.draw.draw(rng, members);

        let pairs = &self.draw.pairs;
        self.ids.clear();
        self.ids.extend(pairs.iter().map(|&(id, _)| id));
        self.members.clear();
        self.members.extend(pairs.iter().map(|&(_, m)| m));
        self.rebuild_positions();
    }

    /// Number of nodes on the ring.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the ring is empty (never true for a built ring, but part
    /// of the conventional pair with [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Ring position of `node`, if it is on the ring.
    #[inline]
    fn position(&self, node: NodeId) -> Option<usize> {
        self.position_of
            .get(node.index())
            .and_then(|&p| (p != u32::MAX).then_some(p as usize))
    }

    /// The Chord identifier of a member.
    pub fn id_of(&self, node: NodeId) -> Option<u64> {
        self.position(node).map(|p| self.ids[p])
    }

    /// Whether `node` is on the ring.
    pub fn contains(&self, node: NodeId) -> bool {
        self.position(node).is_some()
    }

    /// The node owning `key` — the first node whose identifier is `>=
    /// key` (wrapping), found by direct successor scan. This is the
    /// correctness oracle for [`lookup`](Self::lookup).
    pub fn owner_of(&self, key: u64) -> NodeId {
        self.members[self.successor_position(key)]
    }

    /// The immediate ring successor of a member node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on the ring.
    pub fn successor(&self, node: NodeId) -> NodeId {
        let pos = self
            .position(node)
            .unwrap_or_else(|| panic!("{node} is not on the ring"));
        self.members[(pos + 1) % self.len()]
    }

    /// Iterative Chord lookup of `key` starting at `from`, assuming all
    /// nodes are alive.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not on the ring.
    pub fn lookup(&self, from: NodeId, key: u64) -> LookupOutcome {
        let mut path = Vec::new();
        let (owner, _) = self
            .lookup_avoiding(from, key, |_| true, Some(&mut path))
            .expect("lookup with all nodes alive cannot fail");
        LookupOutcome { owner, path }
    }

    /// Failure-aware lookup: only routes through nodes for which
    /// `is_alive` returns `true` (the starting node is assumed alive —
    /// it is the one querying). Returns `(owner, hops)`, or `None` when
    /// every remaining route is blocked or the key's owner itself is
    /// dead. With `path`, the visited nodes are recorded into it
    /// (cleared first): the querying node, then one node per hop,
    /// ending with the owner on success.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not on the ring.
    pub fn lookup_avoiding<F>(
        &self,
        from: NodeId,
        key: u64,
        is_alive: F,
        mut path: Option<&mut Vec<NodeId>>,
    ) -> Option<(NodeId, usize)>
    where
        F: Fn(NodeId) -> bool,
    {
        let mut pos = self
            .position(from)
            .unwrap_or_else(|| panic!("{from} is not on the ring"));
        if let Some(p) = path.as_deref_mut() {
            p.clear();
            p.push(from);
        }
        let owner_pos = self.successor_position(key);
        let owner = self.members[owner_pos];
        if !is_alive(owner) {
            return None;
        }
        // Greedy routing strictly shrinks clockwise distance to the key,
        // so n hops is a hard upper bound; the explicit cap also guards
        // the degenerate everything-dead cases.
        let max_hops = self.len() + SUCCESSOR_LIST_LEN + 1;
        for hops in 0..max_hops {
            if pos == owner_pos {
                return Some((owner, hops));
            }
            let next = self.greedy_step(pos, owner_pos, |c| is_alive(self.members[c]))?;
            debug_assert_ne!(next, pos, "routing must make progress");
            pos = next;
            if let Some(p) = path.as_deref_mut() {
                p.push(self.members[pos]);
            }
        }
        None
    }

    /// Degraded-mode lookup: ignore finger tables entirely and walk
    /// successor lists clockwise from `from` until the key's owner is
    /// reached. O(n) hops instead of O(log n), but each step needs only
    /// one alive entry in the local successor list — the
    /// graceful-degradation fallback when greedy finger routing is
    /// blocked. Returns `(owner, hops)`, or `None` when the owner is
    /// dead or a gap of `SUCCESSOR_LIST_LEN` consecutive dead nodes
    /// severs the walk.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not on the ring.
    pub fn successor_walk_hops<F>(
        &self,
        from: NodeId,
        key: u64,
        is_alive: F,
    ) -> Option<(NodeId, usize)>
    where
        F: Fn(NodeId) -> bool,
    {
        let mut pos = self
            .position(from)
            .unwrap_or_else(|| panic!("{from} is not on the ring"));
        let owner_pos = self.successor_position(key);
        let owner = self.members[owner_pos];
        if !is_alive(owner) {
            return None;
        }
        for hops in 0..self.len() {
            if pos == owner_pos {
                return Some((owner, hops));
            }
            // The nearest entry of `pos`'s successor list that is the
            // owner or alive.
            pos = (1..=SUCCESSOR_LIST_LEN.min(self.len() - 1))
                .map(|k| self.advance(pos, k))
                .find(|&s| s == owner_pos || is_alive(self.members[s]))?;
        }
        None
    }

    /// Adds a node with a fresh random identifier (the simulation-grade
    /// equivalent of join + stabilization: routing state is derived from
    /// the ids, so it is current at once).
    ///
    /// # Panics
    ///
    /// Panics if `node` is already on the ring.
    pub fn join<R: Rng + ?Sized>(&mut self, rng: &mut R, node: NodeId) {
        assert!(!self.contains(node), "{node} already joined");
        let mut id = rng.gen::<u64>();
        while self.ids.binary_search(&id).is_ok() {
            id = rng.gen::<u64>();
        }
        let insert_at = self.ids.partition_point(|&x| x < id);
        self.ids.insert(insert_at, id);
        self.members.insert(insert_at, node);
        self.rebuild_positions();
    }

    /// Removes a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on the ring or is the last node.
    pub fn leave(&mut self, node: NodeId) {
        let pos = self
            .position(node)
            .unwrap_or_else(|| panic!("{node} is not on the ring"));
        assert!(self.len() > 1, "cannot remove the last ring node");
        self.ids.remove(pos);
        self.members.remove(pos);
        self.rebuild_positions();
    }

    /// Position of the first node with identifier `>= key` (wrapping).
    fn successor_position(&self, key: u64) -> usize {
        successor_position_in(&self.ids, key)
    }

    /// Position `off` steps clockwise of `pos` (`off < n`).
    #[inline]
    fn advance(&self, pos: usize, off: usize) -> usize {
        let p = pos + off;
        if p >= self.len() {
            p - self.len()
        } else {
            p
        }
    }

    /// The greedy next hop from `pos` toward a key whose owner is at
    /// `owner_pos` (`!= pos`): Chord's closest preceding alive node among
    /// `pos`'s fingers and successor list, or the owner itself when it
    /// is one of them and `alive` accepts it. Every candidate is strictly
    /// closer to the key than `pos`, so each step makes progress and a
    /// lookup terminates.
    ///
    /// Ids ascend with ring position, so the candidates in the arc
    /// `(pos, owner_pos]` are exactly those strictly closer to the key
    /// (the owner by fiat), and the distance to the key falls as the
    /// clockwise offset from `pos` grows: the distance-argmin over alive
    /// candidates is the first alive one in descending offset order.
    /// That order is produced without tables. Finger `k` is the first
    /// node at clockwise id distance `>= 2^k`, so the fingers in the arc
    /// are the levels `k <= floor(log2(dist))`, with `dist` the id
    /// distance to the owner, and their offsets do not increase as `k`
    /// falls. Each is one binary search over offsets, bounded above by
    /// the previous finger. The successor list covers every offset in
    /// `1..=min(SUCCESSOR_LIST_LEN, owner offset)`, so the finger walk
    /// stops at the first finger inside that range and the successors
    /// follow in descending order.
    fn greedy_step(
        &self,
        pos: usize,
        owner_pos: usize,
        alive: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let n = self.len();
        let owner_off = (owner_pos + n - pos) % n;
        let succ_top = SUCCESSOR_LIST_LEN.min(owner_off);
        let dist = self.ids[owner_pos].wrapping_sub(self.ids[pos]);
        let mut last = owner_off + 1;
        for level in (0..=dist.ilog2()).rev() {
            let off = self.first_offset_reaching(pos, 1 << level, succ_top, last.min(owner_off));
            if off == succ_top {
                break;
            }
            if off < last {
                last = off;
                let cand = self.advance(pos, off);
                if alive(cand) {
                    return Some(cand);
                }
            }
        }
        (1..=succ_top)
            .rev()
            .map(|off| self.advance(pos, off))
            .find(|&c| alive(c))
    }

    /// The smallest offset `o` in `lo..=hi` whose node lies at clockwise
    /// id distance `>= span` from `pos`, given that the node at `hi`
    /// does (or `lo` when every node in the range does).
    fn first_offset_reaching(&self, pos: usize, span: u64, mut lo: usize, mut hi: usize) -> usize {
        let base = self.ids[pos];
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.ids[self.advance(pos, mid)].wrapping_sub(base) < span {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Refills the dense position map (`u32::MAX` = absent) from
    /// `members`; the map is sized to the largest member id.
    ///
    /// # Panics
    ///
    /// Panics if `members` contains duplicates.
    fn rebuild_positions(&mut self) {
        let max_index = self.members.iter().map(|m| m.index()).max().unwrap_or(0);
        self.position_of.clear();
        self.position_of.resize(max_index + 1, u32::MAX);
        for (p, &m) in self.members.iter().enumerate() {
            let slot = &mut self.position_of[m.index()];
            assert_eq!(*slot, u32::MAX, "duplicate members");
            *slot = p as u32;
        }
    }

    /// The `(id, member)` pairs of [`ChordRing::build`] at the same RNG
    /// state, drawn and re-rolled as `IdDraw::draw` does but ordered by
    /// a comparison sort: the test oracle for the counting sort.
    #[cfg(test)]
    fn reference_ids<R: Rng + ?Sized>(rng: &mut R, members: &[NodeId]) -> Vec<(u64, NodeId)> {
        let mut pairs: Vec<(u64, NodeId)> =
            members.iter().map(|&m| (rng.gen::<u64>(), m)).collect();
        pairs.sort_unstable_by_key(|&(id, _)| id);
        while pairs.windows(2).any(|w| w[0].0 == w[1].0) {
            pairs.sort_unstable();
            let mut prev = pairs[0].0;
            for pair in &mut pairs[1..] {
                let id = pair.0;
                if id == prev {
                    pair.0 = rng.gen::<u64>();
                }
                prev = id;
            }
            pairs.sort_unstable_by_key(|&(id, _)| id);
        }
        pairs
    }

    /// Exhaustive reference construction, the test oracle for the
    /// derived routing state: the ring [`ChordRing::build`] would return
    /// for the same RNG state (draw for draw), plus the classic tables
    /// built the original way, freshly allocated. `fingers[pos]` holds
    /// the position of `successor(ids[pos] + 2^k)` for every `k`
    /// (consecutive repeats removed) and `successors[pos]` the next
    /// `min(SUCCESSOR_LIST_LEN, n - 1)` positions.
    #[cfg(test)]
    fn build_reference<R: Rng + ?Sized>(
        rng: &mut R,
        members: &[NodeId],
    ) -> (Self, Vec<Vec<usize>>, Vec<Vec<usize>>) {
        assert!(!members.is_empty(), "a Chord ring needs at least one node");
        let unique: std::collections::HashSet<_> = members.iter().collect();
        assert_eq!(unique.len(), members.len(), "duplicate members");

        let pairs = Self::reference_ids(rng, members);
        let ids: Vec<u64> = pairs.iter().map(|&(id, _)| id).collect();
        let members: Vec<NodeId> = pairs.iter().map(|&(_, m)| m).collect();
        let n = ids.len();
        // The pre-optimization implementation kept a hash position map.
        let position_map: std::collections::HashMap<NodeId, usize> =
            members.iter().enumerate().map(|(p, &m)| (m, p)).collect();
        let max_index = members.iter().map(|m| m.index()).max().unwrap_or(0);
        let mut position_of = vec![u32::MAX; max_index + 1];
        for (&m, &p) in &position_map {
            position_of[m.index()] = p as u32;
        }
        let successors: Vec<Vec<usize>> = (0..n)
            .map(|p| {
                (1..=SUCCESSOR_LIST_LEN.min(n.saturating_sub(1)))
                    .map(|k| (p + k) % n)
                    .collect()
            })
            .collect();
        let fingers: Vec<Vec<usize>> = (0..n)
            .map(|p| {
                let base = ids[p];
                let mut table = Vec::with_capacity(ID_BITS);
                for k in 0..ID_BITS {
                    let target = base.wrapping_add(1u64 << k);
                    table.push(successor_position_in(&ids, target));
                }
                table.dedup();
                table
            })
            .collect();

        let ring = ChordRing {
            ids,
            members,
            position_of,
            draw: IdDraw::default(),
        };
        (ring, fingers, successors)
    }

    /// Fills `mask` with the ring *positions* whose member satisfies
    /// `is_alive` — the structure-of-arrays liveness form the masked
    /// lookups consume. Word-at-a-time reset, then one probe per
    /// position; the mask is `n` bits (cache-resident even at 10⁴
    /// nodes), so the per-candidate hot-path probe replaces a
    /// `members[cand]` gather plus an overlay status lookup with a
    /// single bit test.
    pub fn fill_alive_positions<F>(&self, is_alive: F, mask: &mut NodeBitSet)
    where
        F: Fn(NodeId) -> bool,
    {
        mask.fill_first(self.len());
        for (pos, &m) in self.members.iter().enumerate() {
            if !is_alive(m) {
                mask.remove_index(pos);
            }
        }
    }

    /// Masked counterpart of [`ChordRing::lookup_avoiding`]: liveness
    /// comes from a position-indexed bit mask (see
    /// [`ChordRing::fill_alive_positions`]) instead of a per-node
    /// closure, with the querying node treated as alive exactly like
    /// the closure form's `n == from` clause. Takes identical routing
    /// decisions, so for a mask filled from the same predicate the
    /// result is bit-identical.
    ///
    /// With `trace`, the walk's *intermediate* members (the nodes
    /// strictly between `from` and the owner, in walk order) are
    /// recorded into it (cleared first). The greedy step is memoryless
    /// — the choice at a position depends only on `(position, key,
    /// alive)`, with `from` exempted from the mask — so when `from`
    /// itself is alive in the mask, the walk's suffix from any
    /// intermediate `m` (at `h - i` of the walk's `h` hops) is exactly
    /// what a fresh lookup from `m` would take: callers can cache one
    /// traced walk as `h - i` hop answers for every intermediate, and
    /// (on a stuck walk) a blocked answer for each. When `from` is
    /// *not* alive the exemption breaks that suffix property, so the
    /// trace is left empty and only the `from` answer may be cached.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not on the ring.
    pub fn lookup_masked(
        &self,
        from: NodeId,
        key: u64,
        alive: &NodeBitSet,
        mut trace: Option<&mut Vec<NodeId>>,
    ) -> Option<(NodeId, usize)> {
        let from_pos = self
            .position(from)
            .unwrap_or_else(|| panic!("{from} is not on the ring"));
        if let Some(t) = trace.as_deref_mut() {
            t.clear();
        }
        if trace.is_some() && !alive.contains_index(from_pos) {
            // Suffix caching is only sound when the `n == from` liveness
            // exemption is vacuous (see above).
            trace = None;
        }
        let mut pos = from_pos;
        let owner_pos = self.successor_position(key);
        if !(owner_pos == from_pos || alive.contains_index(owner_pos)) {
            return None;
        }
        let owner = self.members[owner_pos];
        let max_hops = self.len() + SUCCESSOR_LIST_LEN + 1;
        for hops in 0..max_hops {
            if pos == owner_pos {
                return Some((owner, hops));
            }
            let next =
                self.greedy_step(pos, owner_pos, |c| c == from_pos || alive.contains_index(c))?;
            debug_assert_ne!(next, pos, "routing must make progress");
            pos = next;
            if let Some(t) = trace.as_deref_mut() {
                if pos != owner_pos {
                    t.push(self.members[pos]);
                }
            }
        }
        None
    }

    /// Masked counterpart of [`ChordRing::successor_walk_hops`] (see
    /// [`ChordRing::lookup_masked`] for the mask contract), in closed
    /// form. The walk it stands for is still O(n) simulated hops; the
    /// computation reads O(n/64) mask words.
    ///
    /// Each step takes the nearest alive entry of the successor list,
    /// and the owner is always acceptable, so the walk visits every
    /// alive position of the open arc `(from, owner)` in ring order and
    /// then the owner: `1 + popcount(arc)` hops. A step fails only when
    /// all `min(SUCCESSOR_LIST_LEN, n − 1)` successors are dead, so the
    /// walk fails iff the arc holds that many dead positions in a row.
    /// Both are read off the mask's words.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not on the ring.
    pub fn successor_walk_hops_masked(
        &self,
        from: NodeId,
        key: u64,
        alive: &NodeBitSet,
    ) -> Option<(NodeId, usize)> {
        let from_pos = self
            .position(from)
            .unwrap_or_else(|| panic!("{from} is not on the ring"));
        let owner_pos = self.successor_position(key);
        let owner = self.members[owner_pos];
        if owner_pos == from_pos {
            return Some((owner, 0));
        }
        if !alive.contains_index(owner_pos) {
            return None;
        }
        let n = self.len();
        // The open arc (from_pos, owner_pos), split where it wraps.
        let (head, tail) = if from_pos < owner_pos {
            (from_pos + 1..owner_pos, 0..0)
        } else {
            (from_pos + 1..n, 0..owner_pos)
        };
        // Read the arc a mask word at a time: a popcount for the hops,
        // and the dead run the read ends in, carried across words and
        // the wrap, for the cut.
        let limit = SUCCESSOR_LIST_LEN.min(n - 1);
        let (mut between, mut dead_run) = (0, 0);
        for arc in [head, tail] {
            let mut pos = arc.start;
            while pos < arc.end {
                let shift = pos % 64;
                let len = (64 - shift).min(arc.end - pos);
                let in_range = u64::MAX >> (64 - len);
                let dead = !(alive.word(pos / 64) >> shift) & in_range;
                between += len - dead.count_ones() as usize;
                if dead == in_range {
                    dead_run += len;
                } else {
                    // The run carried in ends at the first alive bit;
                    // `holds_run` finds the runs inside the chunk, and
                    // the one reaching its top end is carried on.
                    if dead_run + dead.trailing_ones() as usize >= limit || holds_run(dead, limit) {
                        return None;
                    }
                    dead_run = (dead << (64 - len)).leading_ones() as usize;
                }
                if dead_run >= limit {
                    return None;
                }
                pos += len;
            }
        }
        Some((owner, 1 + between))
    }
}

/// Whether `bits` holds `len` set bits in a row (`1 <= len <= 64`).
/// Bit `i` of `starts` stays set while bits `i..i + covered` of `bits`
/// all are; each step at most doubles `covered`, up to `len`.
fn holds_run(bits: u64, len: usize) -> bool {
    let (mut starts, mut covered) = (bits, 1);
    while covered < len {
        let step = covered.min(len - covered);
        starts &= starts >> step;
        covered += step;
    }
    starts != 0
}

/// Position of the first id `>= key` in the sorted `ids` (wrapping).
fn successor_position_in(ids: &[u64], key: u64) -> usize {
    let p = ids.partition_point(|&x| x < key);
    if p == ids.len() {
        0
    } else {
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn ring(n: u32, seed: u64) -> ChordRing {
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        ChordRing::build(&mut rng, &members)
    }

    /// Clockwise distance from `a` to `b` on the 2^64 ring.
    fn clockwise_distance(a: u64, b: u64) -> u64 {
        b.wrapping_sub(a)
    }

    /// A ring of `n` nodes plus its reference finger tables and
    /// successor lists (see [`ChordRing::build_reference`]).
    fn reference(n: u32, seed: u64) -> (ChordRing, Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        ChordRing::build_reference(&mut StdRng::seed_from_u64(seed), &members)
    }

    /// The greedy step as the table-based implementation computed it:
    /// scan every finger and successor-list entry, take the owner
    /// outright if present and alive, else the distance-argmin among
    /// alive candidates strictly closer to the key. Oracle for
    /// `greedy_step`.
    #[allow(clippy::too_many_arguments)]
    fn distance_scan_step(
        r: &ChordRing,
        fingers: &[Vec<usize>],
        successors: &[Vec<usize>],
        pos: usize,
        owner_pos: usize,
        key: u64,
        from_pos: usize,
        alive: &NodeBitSet,
    ) -> Option<usize> {
        let my_dist = clockwise_distance(r.ids[pos], key);
        let mut best: Option<(u64, usize)> = None;
        for &cand in fingers[pos].iter().chain(successors[pos].iter()) {
            if cand == pos {
                continue;
            }
            if !(cand == from_pos || alive.contains_index(cand)) {
                continue;
            }
            if cand == owner_pos {
                return Some(cand);
            }
            let d = clockwise_distance(r.ids[cand], key);
            if d < my_dist {
                match best {
                    Some((bd, _)) if bd <= d => {}
                    _ => best = Some((d, cand)),
                }
            }
        }
        best.map(|(_, p)| p)
    }

    #[test]
    fn offset_scan_step_matches_distance_scan() {
        for (n, seed) in [
            (2u32, 10u64),
            (3, 11),
            (17, 15),
            (40, 12),
            (100, 13),
            (333, 14),
            (1_000, 16),
        ] {
            let (r, fingers, successors) = reference(n, seed);
            let n = n as usize;
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
            let mut alive = NodeBitSet::new();
            for _ in 0..400 {
                let key = rng.gen::<u64>();
                let owner_pos = r.successor_position(key);
                let pos = rng.gen_range(0..n);
                if pos == owner_pos {
                    continue;
                }
                let from_pos = rng.gen_range(0..n);
                // A random 70%-alive mask, then the adversarial ones:
                // everything dead but `from`, only the owner alive, and
                // every other position alive.
                let salt = rng.gen::<u64>();
                for mask in 0..4 {
                    match mask {
                        0 => r.fill_alive_positions(
                            |m| (m.0 as u64).wrapping_mul(salt) % 10 < 7,
                            &mut alive,
                        ),
                        1 => alive.clear(),
                        2 => {
                            alive.clear();
                            alive.insert_index(owner_pos);
                        }
                        _ => {
                            alive.fill_first(n);
                            for p in (1..n).step_by(2) {
                                alive.remove_index(p);
                            }
                        }
                    }
                    assert_eq!(
                        r.greedy_step(pos, owner_pos, |c| c == from_pos || alive.contains_index(c)),
                        distance_scan_step(
                            &r,
                            &fingers,
                            &successors,
                            pos,
                            owner_pos,
                            key,
                            from_pos,
                            &alive
                        ),
                        "n {n} pos {pos} owner {owner_pos} from {from_pos} key {key} mask {mask}"
                    );
                }
            }
        }
    }

    #[test]
    fn build_basics() {
        let r = ring(100, 1);
        assert_eq!(r.len(), 100);
        assert!(!r.is_empty());
        assert!(r.contains(NodeId(5)));
        assert!(!r.contains(NodeId(100)));
        assert!(r.id_of(NodeId(5)).is_some());
        assert!(r.id_of(NodeId(100)).is_none());
    }

    #[test]
    fn ids_are_sorted_and_unique() {
        let r = ring(500, 2);
        assert!(r.ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn lookup_matches_naive_owner() {
        let r = ring(200, 3);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..500 {
            let key = rng.gen::<u64>();
            let from = NodeId(rng.gen_range(0..200));
            let out = r.lookup(from, key);
            assert_eq!(out.owner, r.owner_of(key), "key {key}");
            assert_eq!(*out.path.first().unwrap(), from);
            assert_eq!(*out.path.last().unwrap(), out.owner);
        }
    }

    #[test]
    fn lookup_is_logarithmic() {
        let r = ring(1_024, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut max_hops = 0;
        for _ in 0..300 {
            let key = rng.gen::<u64>();
            let from = NodeId(rng.gen_range(0..1_024));
            max_hops = max_hops.max(r.lookup(from, key).hops());
        }
        // Chord bound: O(log n) w.h.p.; allow generous slack.
        assert!(max_hops <= 2 * 10, "max hops = {max_hops}");
        assert!(max_hops >= 2, "suspiciously short paths");
    }

    #[test]
    fn lookup_from_owner_is_trivial() {
        let r = ring(50, 6);
        let owner = r.owner_of(12345);
        let key_id = r.id_of(owner).unwrap();
        let out = r.lookup(owner, key_id);
        assert_eq!(out.owner, owner);
        assert_eq!(out.hops(), 0);
    }

    #[test]
    fn lookup_avoiding_routes_around_failures() {
        let r = ring(300, 7);
        let mut rng = StdRng::seed_from_u64(8);
        // Kill 30% of nodes (but never the queried owner or source).
        for trial in 0..100 {
            let key = rng.gen::<u64>();
            let owner = r.owner_of(key);
            let from = NodeId(rng.gen_range(0..300));
            if from == owner {
                continue;
            }
            let dead: HashSet<NodeId> = (0..300u32)
                .map(NodeId)
                .filter(|&n| n != owner && n != from && rng.gen::<f64>() < 0.3)
                .collect();
            let mut path = Vec::new();
            let out = r.lookup_avoiding(from, key, |n| !dead.contains(&n), Some(&mut path));
            let (found, _) = out.unwrap_or_else(|| panic!("trial {trial} found no route"));
            assert_eq!(found, owner);
            assert!(path.iter().all(|n| !dead.contains(n)));
        }
    }

    #[test]
    fn lookup_avoiding_fails_when_owner_dead() {
        let r = ring(50, 9);
        let key = 42u64;
        let owner = r.owner_of(key);
        let from = r.members.iter().find(|&&m| m != owner).copied().unwrap();
        assert!(r.lookup_avoiding(from, key, |n| n != owner, None).is_none());
    }

    #[test]
    fn join_inserts_and_keeps_lookups_correct() {
        let mut r = ring(64, 10);
        let mut rng = StdRng::seed_from_u64(11);
        for new in 64..96u32 {
            r.join(&mut rng, NodeId(new));
        }
        assert_eq!(r.len(), 96);
        for _ in 0..200 {
            let key = rng.gen::<u64>();
            let from = NodeId(rng.gen_range(0..96));
            assert_eq!(r.lookup(from, key).owner, r.owner_of(key));
        }
    }

    #[test]
    fn leave_removes_and_keeps_lookups_correct() {
        let mut r = ring(64, 12);
        let mut rng = StdRng::seed_from_u64(13);
        for gone in 0..32u32 {
            r.leave(NodeId(gone));
        }
        assert_eq!(r.len(), 32);
        for _ in 0..200 {
            let key = rng.gen::<u64>();
            let from = NodeId(rng.gen_range(32..64));
            let out = r.lookup(from, key);
            assert_eq!(out.owner, r.owner_of(key));
            assert!(out.path.iter().all(|n| n.0 >= 32));
        }
    }

    #[test]
    fn single_node_ring() {
        let members = [NodeId(7)];
        let mut rng = StdRng::seed_from_u64(14);
        let r = ChordRing::build(&mut rng, &members);
        assert_eq!(r.owner_of(0), NodeId(7));
        let out = r.lookup(NodeId(7), u64::MAX);
        assert_eq!(out.owner, NodeId(7));
        assert_eq!(out.hops(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate members")]
    fn duplicate_members_rejected() {
        let mut rng = StdRng::seed_from_u64(15);
        ChordRing::build(&mut rng, &[NodeId(1), NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "already joined")]
    fn double_join_rejected() {
        let mut r = ring(4, 16);
        let mut rng = StdRng::seed_from_u64(17);
        r.join(&mut rng, NodeId(0));
    }

    fn assert_same_ring(a: &ChordRing, b: &ChordRing) {
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.members, b.members);
        assert_eq!(a.position_of, b.position_of);
    }

    #[test]
    fn build_matches_reference_construction() {
        // Both sides of every bit-length boundary of the counting sort's
        // digit width, the paper's N, and a size where its cap binds.
        let mut sizes: Vec<u32> = vec![1, 2, 3, 10_000, (1 << 20) + 1];
        for k in 4..=14 {
            sizes.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        for n in sizes {
            let members: Vec<NodeId> = (0..n).map(NodeId).collect();
            let seed = u64::from(n);
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let fast = ChordRing::build(&mut rng_a, &members);
            let pairs = ChordRing::reference_ids(&mut rng_b, &members);
            let ids: Vec<u64> = pairs.iter().map(|&(id, _)| id).collect();
            let order: Vec<NodeId> = pairs.iter().map(|&(_, m)| m).collect();
            assert_eq!(fast.ids, ids, "n = {n}");
            assert_eq!(fast.members, order, "n = {n}");
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "n = {n}");
        }
        for (n, seed) in [(1u32, 0u64), (2, 1), (3, 2), (17, 3), (64, 4), (500, 5)] {
            let members: Vec<NodeId> = (0..n).map(NodeId).collect();
            let fast = ChordRing::build(&mut StdRng::seed_from_u64(seed), &members);
            let (reference, _, _) =
                ChordRing::build_reference(&mut StdRng::seed_from_u64(seed), &members);
            assert_same_ring(&fast, &reference);
        }
    }

    #[test]
    fn build_into_reuse_matches_fresh_build() {
        // Dirty the reused ring with a different membership first.
        let mut reused = ring(300, 42);
        for (n, seed) in [(1u32, 6u64), (64, 7), (200, 8), (512, 9), (10_000, 10)] {
            let members: Vec<NodeId> = (0..n).map(NodeId).collect();
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let fresh = ChordRing::build(&mut rng_a, &members);
            reused.build_into(&mut rng_b, &members);
            assert_same_ring(&fresh, &reused);
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());

            // A second rebuild at the same n allocates nothing.
            let buffers = |r: &ChordRing| {
                [
                    r.ids.as_ptr() as usize,
                    r.members.as_ptr() as usize,
                    r.position_of.as_ptr() as usize,
                    r.draw.pairs.as_ptr() as usize,
                    r.draw.scratch.as_ptr() as usize,
                    r.draw.counts.as_ptr() as usize,
                ]
            };
            let before = buffers(&reused);
            reused.build_into(&mut rng_b, &members);
            assert_eq!(buffers(&reused), before, "n = {n}");
        }
    }

    #[test]
    fn masked_lookups_match_closure_lookups() {
        let r = ring(300, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let mut mask = NodeBitSet::new();
        let mut path = Vec::new();
        for _ in 0..200 {
            let key = rng.gen::<u64>();
            let from = NodeId(rng.gen_range(0..300));
            // Kill 30% — sometimes including `from` itself, which the
            // closure form treats as alive via the `n == from` clause.
            let dead: HashSet<NodeId> = (0..300u32)
                .map(NodeId)
                .filter(|_| rng.gen::<f64>() < 0.3)
                .collect();
            let alive = |n: NodeId| n == from || !dead.contains(&n);
            r.fill_alive_positions(|n| !dead.contains(&n), &mut mask);
            let closure = r.lookup_avoiding(from, key, alive, Some(&mut path));
            assert_eq!(closure, r.lookup_masked(from, key, &mask, None));
            assert_eq!(closure, r.lookup_avoiding(from, key, alive, None));
            if let Some((owner, hops)) = closure {
                // The recorded path is the querying node plus one node
                // per hop, ending at the owner.
                assert_eq!(path.len(), hops + 1);
                assert_eq!(path.last(), Some(&owner));
            }
            assert_eq!(
                r.successor_walk_hops(from, key, alive),
                r.successor_walk_hops_masked(from, key, &mask)
            );
        }
    }

    #[test]
    fn traced_lookup_suffixes_match_fresh_lookups() {
        // The suffix-splice contract: a traced walk's intermediate `i`
        // must answer a fresh lookup with the walk's remaining hops
        // (delivered) or a blocked walk of its own (stuck) — and an
        // origin dead in the mask must leave the trace empty.
        let r = ring(300, 51);
        let mut rng = StdRng::seed_from_u64(52);
        let mut mask = NodeBitSet::new();
        let mut trace = Vec::new();
        let mut spliced = 0u32;
        for _ in 0..200 {
            let key = rng.gen::<u64>();
            let from = NodeId(rng.gen_range(0..300));
            let dead: HashSet<NodeId> = (0..300u32)
                .map(NodeId)
                .filter(|_| rng.gen::<f64>() < 0.3)
                .collect();
            r.fill_alive_positions(|n| !dead.contains(&n), &mut mask);
            let out = r.lookup_masked(from, key, &mask, Some(&mut trace));
            assert_eq!(out, r.lookup_masked(from, key, &mask, None));
            if dead.contains(&from) {
                assert!(trace.is_empty(), "dead origin must not trace");
                continue;
            }
            for (i, &mid) in trace.iter().enumerate() {
                spliced += 1;
                let fresh = r.lookup_masked(mid, key, &mask, None);
                match out {
                    Some((owner, hops)) => {
                        assert!(!trace.contains(&owner), "trace holds intermediates only");
                        assert_eq!(fresh, Some((owner, hops - (i + 1))));
                    }
                    None => assert_eq!(fresh, None),
                }
            }
        }
        assert!(spliced > 100, "walks should yield intermediates: {spliced}");
    }

    /// The successor walk over the reference successor lists (`from`
    /// counts as alive, as in the masked walk).
    fn reference_successor_walk(
        successors: &[Vec<usize>],
        from_pos: usize,
        owner_pos: usize,
        alive: &NodeBitSet,
    ) -> Option<usize> {
        if !(owner_pos == from_pos || alive.contains_index(owner_pos)) {
            return None;
        }
        let mut pos = from_pos;
        for hops in 0..successors.len() {
            if pos == owner_pos {
                return Some(hops);
            }
            pos = successors[pos]
                .iter()
                .copied()
                .find(|&s| s == owner_pos || s == from_pos || alive.contains_index(s))?;
        }
        None
    }

    #[test]
    fn successor_walks_match_reference_lists_across_sizes() {
        // One reused ring cycled through sizes (n, other n, back), each
        // checked against the reference lists of a fresh build.
        let mut r = ring(64, 40);
        let mut alive = NodeBitSet::new();
        for n in [64u32, 64, 200, 17, 17, 2, 1, 3, 64] {
            let members: Vec<NodeId> = (0..n).map(NodeId).collect();
            let seed = u64::from(n) + 1000;
            r.build_into(&mut StdRng::seed_from_u64(seed), &members);
            let (_, _, successors) = reference(n, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFACE);
            for (p, list) in successors.iter().enumerate() {
                let succ = list.first().copied().unwrap_or(p);
                assert_eq!(
                    r.successor(r.members[p]),
                    r.members[succ],
                    "position {p} of {n}"
                );
            }
            for _ in 0..200 {
                let dead = rng.gen_range(0..10u64);
                let salt = rng.gen::<u64>();
                r.fill_alive_positions(
                    |m| (m.0 as u64).wrapping_mul(salt) % 10 >= dead,
                    &mut alive,
                );
                let key = rng.gen::<u64>();
                let from = NodeId(rng.gen_range(0..n));
                let (from_pos, owner_pos) = (r.position(from).unwrap(), r.successor_position(key));
                let expect = reference_successor_walk(&successors, from_pos, owner_pos, &alive);
                let walked = r.successor_walk_hops_masked(from, key, &alive);
                assert_eq!(walked, expect.map(|h| (r.members[owner_pos], h)), "n {n}");
                if alive.contains_index(from_pos) {
                    let by_closure = r.successor_walk_hops(from, key, |m| {
                        alive.contains_index(r.position(m).unwrap())
                    });
                    assert_eq!(by_closure, walked, "n {n}");
                }
            }
        }
    }

    #[test]
    fn successor_wraps_around() {
        let r = ring(16, 18);
        // The owner of a key greater than the max id is the smallest id.
        let max_id = *r.ids.last().unwrap();
        if max_id < u64::MAX {
            assert_eq!(r.owner_of(max_id.wrapping_add(1)), r.members[0]);
        }
        // successor(last) = first member.
        let last_member = *r.members.last().unwrap();
        assert_eq!(r.successor(last_member), r.members[0]);
    }
}
