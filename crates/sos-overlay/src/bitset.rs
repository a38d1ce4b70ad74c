//! Compact per-node membership set.
//!
//! The attacker, transport, and routing fallback paths all track
//! per-node state (attempted / broken / known / visited). The naive
//! representation — `HashSet<NodeId>` — allocates on insert, hashes on
//! every membership probe, and costs O(len) to clear between trials.
//! [`NodeBitSet`] packs the same information into `u64` words: O(1)
//! branch-free membership tests, O(words) clear, and zero steady-state
//! allocation once the backing vector has grown to the overlay size.
//!
//! Iteration order is ascending [`NodeId`], which matches the
//! `pending_sorted()` / `congestion_targets()` ordering contract the
//! attack models rely on for reproducibility.

use crate::node::NodeId;

const WORD_BITS: usize = 64;

/// A set of [`NodeId`]s backed by a dense bit vector.
///
/// Grows automatically on insert; `clear` keeps the allocation so a
/// per-worker scratch set reaches a zero-allocation steady state after
/// the first trial.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeBitSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeBitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set pre-sized for ids `0..capacity` so inserts
    /// within that range never allocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            len: 0,
        }
    }

    #[inline]
    fn slot_index(idx: usize) -> (usize, u64) {
        (idx / WORD_BITS, 1u64 << (idx % WORD_BITS))
    }

    #[inline]
    fn slot(id: NodeId) -> (usize, u64) {
        Self::slot_index(id.index())
    }

    /// Inserts `id`; returns `true` if it was not already present
    /// (mirroring `HashSet::insert`).
    #[inline]
    pub fn insert(&mut self, id: NodeId) -> bool {
        let (word, mask) = Self::slot(id);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Removes `id`; returns `true` if it was present (mirroring
    /// `HashSet::remove`).
    #[inline]
    pub fn remove(&mut self, id: NodeId) -> bool {
        let (word, mask) = Self::slot(id);
        match self.words.get_mut(word) {
            Some(w) if *w & mask != 0 => {
                *w &= !mask;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        let (word, mask) = Self::slot(id);
        self.words.get(word).is_some_and(|w| w & mask != 0)
    }

    /// Number of ids in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the set in O(words) while keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Resets the set to exactly indices `0..n` (all present) in
    /// O(words) — the word-at-a-time way to start a dense liveness mask
    /// before punching out the (few) dead entries.
    pub fn fill_first(&mut self, n: usize) {
        let full_words = n / WORD_BITS;
        let tail = n % WORD_BITS;
        self.words.clear();
        self.words.resize(full_words + usize::from(tail > 0), !0u64);
        if tail > 0 {
            *self.words.last_mut().expect("tail word exists") = (1u64 << tail) - 1;
        }
        self.len = n;
    }

    /// Raw-index membership probe. SoA kernels index masks by *ring
    /// position* rather than node id; this is [`contains`] without the
    /// [`NodeId`] wrapper.
    ///
    /// [`contains`]: Self::contains
    #[inline]
    pub fn contains_index(&self, idx: usize) -> bool {
        let (word, mask) = Self::slot_index(idx);
        self.words.get(word).is_some_and(|w| w & mask != 0)
    }

    /// Raw-index insert; returns `true` if the index was absent.
    #[inline]
    pub fn insert_index(&mut self, idx: usize) -> bool {
        let (word, mask) = Self::slot_index(idx);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Raw-index remove; returns `true` if the index was present.
    #[inline]
    pub fn remove_index(&mut self, idx: usize) -> bool {
        let (word, mask) = Self::slot_index(idx);
        match self.words.get_mut(word) {
            Some(w) if *w & mask != 0 => {
                *w &= !mask;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// The backing `u64` words (64 indices per word, LSB-first) — the
    /// raw form word-at-a-time consumers iterate instead of per-bit
    /// probes.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// One backing word by index, with out-of-range words reading as
    /// zero. The backing vector only grows to cover the highest id ever
    /// inserted, so word-at-a-time consumers combining two sets (e.g.
    /// `known & !broken`) must tolerate length mismatches; this probe
    /// makes a short set behave as if padded with empty words.
    #[inline]
    pub fn word(&self, wi: usize) -> u64 {
        self.words.get(wi).copied().unwrap_or(0)
    }

    /// Iterates `self \ other` (members of `self` absent from `other`)
    /// in ascending id order, one `u64` word at a time — the batched
    /// form of `iter().filter(|id| !other.contains(*id))` that the
    /// congestion sampler uses instead of per-member probes.
    pub fn difference_iter<'a>(
        &'a self,
        other: &'a NodeBitSet,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = (wi * WORD_BITS) as u32;
            BitIter {
                word: w & !other.word(wi),
                base,
            }
        })
    }

    /// Counts `|self \ other|` by word-wise popcount, without iterating
    /// individual bits.
    pub fn difference_len(&self, other: &NodeBitSet) -> usize {
        self.words
            .iter()
            .enumerate()
            .map(|(wi, &w)| (w & !other.word(wi)).count_ones() as usize)
            .sum()
    }
}

/// Rank/select directory over a sequence of bit words.
///
/// Snapshots an arbitrary word stream (e.g. `known & !broken`, or the
/// complement of an overlay's bad-set masked to the overlay ids) and
/// answers `select(rank)` — the index of the `rank`-th set bit — in
/// O(log words). Batched samplers use this to resolve Fisher–Yates
/// *ranks* into node ids without ever materializing the candidate set
/// as a `Vec<NodeId>`: ascending bit index equals ascending rank, which
/// is exactly the ordering contract of the `Vec`-based samplers it
/// replaces.
#[derive(Debug, Clone)]
pub struct WordSelect {
    words: Vec<u64>,
    /// `prefix[i]` = number of set bits in `words[..i]`.
    prefix: Vec<u32>,
    count: usize,
}

impl WordSelect {
    /// Builds the directory from a word stream (64 indices per word,
    /// LSB-first, same layout as [`NodeBitSet::words`]).
    pub fn from_words(words: impl Iterator<Item = u64>) -> Self {
        let words: Vec<u64> = words.collect();
        let mut prefix = Vec::with_capacity(words.len());
        let mut running = 0u32;
        for &w in &words {
            prefix.push(running);
            running += w.count_ones();
        }
        Self {
            words,
            prefix,
            count: running as usize,
        }
    }

    /// Total number of set bits.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The bit index of the `rank`-th set bit (0-based, ascending).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= count()`.
    pub fn select(&self, rank: usize) -> usize {
        assert!(
            rank < self.count,
            "select rank {rank} out of {}",
            self.count
        );
        // Last word whose prefix popcount is <= rank.
        let wi = self.prefix.partition_point(|&p| p as usize <= rank) - 1;
        // In-word select by popcount bisection: six halving steps
        // instead of clearing up to 63 low bits one at a time.
        let mut w = self.words[wi];
        let mut j = (rank - self.prefix[wi] as usize) as u32;
        let mut pos = 0usize;
        let mut shift = 32u32;
        while shift > 0 {
            let low = (w & ((1u64 << shift) - 1)).count_ones();
            if j >= low {
                j -= low;
                w >>= shift;
                pos += shift as usize;
            }
            shift >>= 1;
        }
        wi * WORD_BITS + pos
    }

    /// All member bit indices, ascending — `indices()[r]` equals
    /// `select(r)`. Cheaper than per-rank [`select`](Self::select) when
    /// a caller resolves a large fraction of the ranks, at the cost of
    /// materializing the whole membership once.
    pub fn indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count);
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push((wi * WORD_BITS) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
        out
    }
}

impl NodeBitSet {
    /// Iterates the members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = (wi * WORD_BITS) as u32;
            BitIter { word: w, base }
        })
    }

    /// Collects the members into a sorted `Vec` (ascending id).
    pub fn to_sorted_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

impl FromIterator<NodeId> for NodeBitSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut set = Self::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl Extend<NodeId> for NodeBitSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

/// Iterator over the set bits of one word.
struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(NodeId(self.base + bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut set = NodeBitSet::new();
        assert!(set.is_empty());
        assert!(set.insert(NodeId(3)));
        assert!(!set.insert(NodeId(3)), "double insert reports stale");
        assert!(set.insert(NodeId(200)));
        assert_eq!(set.len(), 2);
        assert!(set.contains(NodeId(3)));
        assert!(set.contains(NodeId(200)));
        assert!(!set.contains(NodeId(4)));
        assert!(set.remove(NodeId(3)));
        assert!(!set.remove(NodeId(3)), "double remove reports absent");
        assert!(!set.remove(NodeId(5)), "removing a non-member is a no-op");
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn iteration_is_sorted_ascending() {
        let ids = [7u32, 0, 511, 64, 63, 65, 130];
        let set: NodeBitSet = ids.iter().map(|&i| NodeId(i)).collect();
        let mut expect: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        expect.sort_unstable();
        assert_eq!(set.to_sorted_vec(), expect);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut set = NodeBitSet::with_capacity(1000);
        let words_before = set.words.len();
        for i in 0..1000 {
            set.insert(NodeId(i));
        }
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.words.len(), words_before);
        assert!(!set.contains(NodeId(500)));
    }

    #[test]
    fn word_boundaries() {
        let mut set = NodeBitSet::new();
        for i in [63u32, 64, 127, 128] {
            assert!(set.insert(NodeId(i)));
            assert!(set.contains(NodeId(i)));
        }
        assert_eq!(set.len(), 4);
        assert_eq!(
            set.to_sorted_vec(),
            vec![NodeId(63), NodeId(64), NodeId(127), NodeId(128)]
        );
    }

    #[test]
    fn fill_first_and_raw_index_ops() {
        let mut set = NodeBitSet::new();
        for n in [0usize, 1, 63, 64, 65, 130] {
            set.fill_first(n);
            assert_eq!(set.len(), n);
            for i in 0..n {
                assert!(set.contains_index(i), "n={n} i={i}");
            }
            assert!(!set.contains_index(n));
            assert_eq!(
                set.words()
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum::<usize>(),
                n
            );
        }
        set.fill_first(70);
        assert!(set.remove_index(69));
        assert!(!set.remove_index(69));
        assert_eq!(set.len(), 69);
        assert!(set.insert_index(69));
        assert!(!set.insert_index(69));
        // Raw-index ops agree with the NodeId ops bit for bit.
        assert!(set.contains(NodeId(69)));
        set.remove(NodeId(69));
        assert!(!set.contains_index(69));
    }

    #[test]
    fn word_probe_pads_short_sets_with_zero() {
        let mut set = NodeBitSet::new();
        set.insert(NodeId(3));
        assert_eq!(set.word(0), 0b1000);
        assert_eq!(set.word(1), 0, "unallocated words read as empty");
        assert_eq!(set.word(100), 0);
    }

    #[test]
    fn difference_matches_per_bit_filter() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..50 {
            let a: NodeBitSet = (0..rng.gen_range(0..300u32))
                .filter(|_| rng.gen_range(0..3u8) == 0)
                .map(NodeId)
                .collect();
            // Deliberately differently-sized backing vectors.
            let b: NodeBitSet = (0..rng.gen_range(0..600u32))
                .filter(|_| rng.gen_range(0..3u8) == 0)
                .map(NodeId)
                .collect();
            let expect: Vec<NodeId> = a.iter().filter(|id| !b.contains(*id)).collect();
            let got: Vec<NodeId> = a.difference_iter(&b).collect();
            assert_eq!(got, expect);
            assert_eq!(a.difference_len(&b), expect.len());
        }
    }

    #[test]
    fn word_select_matches_linear_scan() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..50 {
            let n = rng.gen_range(1..400usize);
            let set: NodeBitSet = (0..n as u32)
                .filter(|_| rng.gen_range(0..4u8) != 0)
                .map(NodeId)
                .collect();
            let sel = WordSelect::from_words(set.words().iter().copied());
            let members = set.to_sorted_vec();
            assert_eq!(sel.count(), members.len());
            for (rank, id) in members.iter().enumerate() {
                assert_eq!(sel.select(rank), id.index());
            }
            let ids: Vec<u32> = members.iter().map(|id| id.index() as u32).collect();
            assert_eq!(sel.indices(), ids);
        }
    }

    #[test]
    #[should_panic(expected = "select rank")]
    fn word_select_panics_out_of_range() {
        let sel = WordSelect::from_words([0b101u64].into_iter());
        sel.select(2);
    }

    #[test]
    fn matches_reference_hashset_under_churn() {
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut set = NodeBitSet::new();
        let mut reference: HashSet<NodeId> = HashSet::new();
        for _ in 0..5_000 {
            let id = NodeId(rng.gen_range(0..700u32));
            match rng.gen_range(0..3u8) {
                0 => assert_eq!(set.insert(id), reference.insert(id)),
                1 => assert_eq!(set.remove(id), reference.remove(&id)),
                _ => assert_eq!(set.contains(id), reference.contains(&id)),
            }
            assert_eq!(set.len(), reference.len());
        }
        let mut expect: Vec<NodeId> = reference.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(set.to_sorted_vec(), expect);
    }
}
