//! A single private cache with true LRU replacement.
//!
//! The paper assumes an optimal replacement policy but notes "LRU suffices
//! for our algorithms" (§1). We implement exact LRU over block frames:
//! `M / B` frames, each holding one block.
//!
//! Every operation is `O(1)`: the frames form a slab of slots linked into
//! one doubly linked recency list (head = most recently used, tail =
//! least), slots released by [`LruCache::invalidate`] wait on a free list,
//! and a `BlockMap` finds a block's slot. The simulator calls
//! [`LruCache::touch`] on every access, so a hit costs one hash lookup and
//! a few link updates — none when the block is already the MRU.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::BlockId;

/// Multiplicative hashing for [`BlockId`] keys (the integer-keyed maps of
/// the cache model and the coherence directory).
///
/// The hash is a pure function of the key — no per-process random seed —
/// so it is deterministic across runs; the simulator never iterates these
/// maps, so their order cannot reach any output anyway. Keys are block
/// addresses of the recorded computation, not untrusted input, so the
/// flooding resistance of the default SipHash buys nothing here. The
/// product's high bits depend on every key bit; the rotation moves them
/// to the low bits the table indexes by, so strided block ids (column
/// walks, padded frames) still spread over the buckets.
#[derive(Debug, Default)]
pub(crate) struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A map keyed by [`BlockId`], hashed with [`BlockHasher`].
pub(crate) type BlockMap<V> = HashMap<BlockId, V, BuildHasherDefault<BlockHasher>>;

/// "No slot": the link of a list end, and the head/tail of an empty list.
const NIL: u32 = u32::MAX;

/// One frame: the resident block and its neighbours in recency order.
#[derive(Debug, Clone, Copy)]
struct Slot {
    block: BlockId,
    /// Next more recently used slot.
    prev: u32,
    /// Next less recently used slot.
    next: u32,
}

/// A fully-associative LRU cache of block frames (see the module docs).
#[derive(Debug, Clone)]
pub struct LruCache {
    frames: usize,
    /// Resident block -> its slot in `slots`.
    slot_of: BlockMap<u32>,
    /// Frames in use or on the free list; grows up to `frames`.
    slots: Vec<Slot>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot (the next victim).
    tail: u32,
    /// Slots released by `invalidate`, reused before `slots` grows.
    free: Vec<u32>,
}

impl LruCache {
    /// A cache with capacity for `frames` blocks (`frames >= 1`).
    pub fn new(frames: usize) -> Self {
        assert!(frames >= 1, "cache must have at least one frame");
        assert!(frames < NIL as usize, "too many frames: {frames}");
        Self {
            frames,
            slot_of: BlockMap::with_capacity_and_hasher(frames, Default::default()),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Number of block frames.
    pub fn capacity(&self) -> usize {
        self.frames
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Whether the cache holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Whether `block` is resident.
    pub fn contains(&self, block: BlockId) -> bool {
        self.slot_of.contains_key(&block)
    }

    /// Mark `block` as most recently used. Returns `false` if not resident.
    pub fn touch(&mut self, block: BlockId) -> bool {
        let Some(&s) = self.slot_of.get(&block) else {
            return false;
        };
        if s != self.head {
            self.unlink(s);
            self.push_front(s);
        }
        true
    }

    /// Bring `block` in as most recently used, evicting the LRU block if the
    /// cache is full. Returns the evicted block, if any.
    ///
    /// Panics if `block` is already resident (callers must `touch` instead).
    pub fn insert(&mut self, block: BlockId) -> Option<BlockId> {
        assert!(
            !self.contains(block),
            "insert of resident block {block}; use touch"
        );
        let (s, evicted) = if self.slot_of.len() == self.frames {
            let s = self.tail;
            let victim = self.slots[s as usize].block;
            self.unlink(s);
            self.slot_of.remove(&victim);
            (s, Some(victim))
        } else if let Some(s) = self.free.pop() {
            (s, None)
        } else {
            self.slots.push(Slot {
                block,
                prev: NIL,
                next: NIL,
            });
            ((self.slots.len() - 1) as u32, None)
        };
        self.slots[s as usize].block = block;
        self.push_front(s);
        self.slot_of.insert(block, s);
        evicted
    }

    /// Remove `block` (a coherence invalidation). Returns whether it was
    /// resident.
    pub fn invalidate(&mut self, block: BlockId) -> bool {
        match self.slot_of.remove(&block) {
            Some(s) => {
                self.unlink(s);
                self.free.push(s);
                true
            }
            None => false,
        }
    }

    /// Drop every resident block (used when resetting the machine).
    pub fn clear(&mut self) {
        self.slot_of.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Detach slot `s` from the recency list.
    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Link the detached slot `s` in as the most recently used.
    fn push_front(&mut self, s: u32) {
        let old = self.head;
        self.slots[s as usize].prev = NIL;
        self.slots[s as usize].next = old;
        match old {
            NIL => self.tail = s,
            h => self.slots[h as usize].prev = s,
        }
        self.head = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), None);
        assert!(c.touch(1)); // order now: 2 (LRU), 1 (MRU)
        assert_eq!(c.insert(3), Some(2));
        assert!(c.contains(1));
        assert!(c.contains(3));
        assert!(!c.contains(2));
    }

    #[test]
    fn invalidate_frees_a_frame() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.invalidate(1));
        assert!(!c.invalidate(1));
        assert_eq!(c.insert(3), None); // no eviction needed
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn touch_missing_is_noop() {
        let mut c = LruCache::new(1);
        assert!(!c.touch(42));
        c.insert(42);
        assert!(c.touch(42));
    }

    #[test]
    fn single_frame_cache_thrashes() {
        let mut c = LruCache::new(1);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), Some(1));
        assert_eq!(c.insert(3), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut c = LruCache::new(4);
        for b in 0..4 {
            c.insert(b);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.insert(9), None);
    }

    #[test]
    fn touching_the_mru_block_keeps_the_order() {
        let mut c = LruCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        assert!(c.touch(3));
        assert!(c.touch(3));
        assert_eq!(c.insert(4), Some(1));
        assert_eq!(c.insert(5), Some(2));
        assert_eq!(c.insert(6), Some(3));
    }

    #[test]
    fn freed_slot_is_reused_in_lru_order() {
        // Recency before the invalidation: 1 (LRU), 2, 3, 4 (MRU).
        let mut c = LruCache::new(4);
        for b in 1..=4 {
            c.insert(b);
        }
        assert!(c.invalidate(2)); // frees a slot in the middle of the list
        assert_eq!(c.insert(5), None); // reuses it: 1, 3, 4, 5
        assert!(c.touch(1)); // 3, 4, 5, 1
        assert!(c.invalidate(4)); // 3, 5, 1
        assert_eq!(c.insert(6), None); // 3, 5, 1, 6
        for (block, victim) in [(7, 3), (8, 5), (9, 1), (10, 6), (11, 7)] {
            assert_eq!(c.insert(block), Some(victim));
        }
        assert_eq!(c.len(), 4);
    }

    /// Differential test against a naive Vec-based LRU model over
    /// `frames` frames and a pool of `blocks` distinct blocks.
    fn check_against_reference(frames: usize, blocks: u64) {
        use std::collections::VecDeque;
        let mut c = LruCache::new(frames);
        // Reference: VecDeque front = LRU, back = MRU.
        let mut model: VecDeque<BlockId> = VecDeque::new();
        // Deterministic pseudo-random access stream.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let block = (x >> 33) % blocks;
            let op = (x >> 20) % 3;
            match op {
                0 | 1 => {
                    // access: touch or insert
                    if let Some(pos) = model.iter().position(|&b| b == block) {
                        model.remove(pos);
                        model.push_back(block);
                        assert!(c.touch(block), "model has {block}, cache must too");
                    } else {
                        let expect_evict = if model.len() == frames {
                            model.pop_front()
                        } else {
                            None
                        };
                        model.push_back(block);
                        assert_eq!(c.insert(block), expect_evict);
                    }
                }
                _ => {
                    let in_model = model.iter().position(|&b| b == block);
                    if let Some(pos) = in_model {
                        model.remove(pos);
                    }
                    assert_eq!(c.invalidate(block), in_model.is_some());
                }
            }
            assert_eq!(c.len(), model.len());
        }
    }

    #[test]
    fn matches_reference_model() {
        for frames in [1, 4, 64] {
            for blocks in [2 * frames as u64 + 1, 3 * frames as u64] {
                check_against_reference(frames, blocks);
            }
        }
    }
}
