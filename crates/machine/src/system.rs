//! The multicore memory system: p private caches + write-invalidate
//! coherence directory + miss classification.
//!
//! The directory is a `BlockMap`: a block's state is created on its
//! first fetch and lives until [`MemSystem::reset`]. A read hit therefore
//! needs no directory lookup at all — the block is resident, so its state
//! exists and nothing in it changes — and costs one L1 `touch`. Writes
//! and misses look the state up. The map's hasher is a fixed function of
//! the block id (see `cache::BlockHasher`), and the directory is
//! only ever probed by key, never iterated, so no output depends on its
//! layout.

use crate::cache::BlockMap;
use crate::{
    AccessOutcome, BlockId, CoreStats, LruCache, MachineConfig, MachineStats, MissKind, Word,
};

/// Per-block coherence/bookkeeping state, packed into core bitmasks
/// (`p <= 64`).
#[derive(Debug, Clone, Copy, Default)]
struct BlockState {
    /// Cores currently holding a valid copy.
    holders: u64,
    /// Cores whose last loss of the block was a coherence invalidation
    /// (so their next miss on it is a *block miss*).
    invalidated: u64,
    /// Cores that have ever held the block (cold- vs capacity-miss split).
    ever: u64,
    /// Total times the block was fetched into some cache.
    transfers: u64,
}

/// The simulated memory system (paper §1–§2.2), optionally with a
/// second-level cache (paper §5.2).
///
/// Drive it with [`MemSystem::access`] (or [`MemSystem::access_costed`] to
/// get the time cost); read results from [`MemSystem::stats`] and
/// [`MemSystem::block_transfers`].
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: MachineConfig,
    caches: Vec<LruCache>,
    /// One cache if the L2 is shared, `p` segment caches if partitioned.
    l2: Vec<LruCache>,
    blocks: BlockMap<BlockState>,
    stats: Vec<CoreStats>,
    total_transfers: u64,
}

impl MemSystem {
    /// A fresh machine with all caches empty.
    pub fn new(cfg: MachineConfig) -> Self {
        let frames = cfg.frames();
        let l2 = match cfg.l2 {
            None => Vec::new(),
            Some(l2c) if l2c.partitioned => {
                let seg = ((l2c.words / cfg.p as u64) / cfg.block_words).max(1) as usize;
                (0..cfg.p).map(|_| LruCache::new(seg)).collect()
            }
            Some(l2c) => vec![LruCache::new((l2c.words / cfg.block_words).max(1) as usize)],
        };
        Self {
            cfg,
            caches: (0..cfg.p).map(|_| LruCache::new(frames)).collect(),
            l2,
            blocks: BlockMap::default(),
            stats: vec![CoreStats::default(); cfg.p],
            total_transfers: 0,
        }
    }

    /// Index of `core`'s L2 cache (its segment, or the single shared one).
    fn l2_idx(&self, core: usize) -> usize {
        match self.cfg.l2 {
            Some(l2c) if l2c.partitioned => core,
            _ => 0,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Perform one access by `core` to word `addr`. Returns the outcome;
    /// callers that need the time cost should use
    /// [`MemSystem::access_costed`] (the cost depends on the L2).
    pub fn access(&mut self, core: usize, addr: Word, write: bool) -> AccessOutcome {
        self.access_costed(core, addr, write).0
    }

    /// Perform one access and return `(outcome, time cost)`:
    /// hit = 1; L1 miss served by the L2 = `1 + hit_cost`; miss to
    /// memory = `1 + b`.
    pub fn access_costed(&mut self, core: usize, addr: Word, write: bool) -> (AccessOutcome, u64) {
        debug_assert!(core < self.cfg.p);
        let block = self.cfg.block_of(addr);
        let bit = 1u64 << core;

        let (outcome, cost) = if self.caches[core].touch(block) {
            self.stats[core].hits += 1;
            if !write {
                // A read hit leaves the directory as it is.
                return (AccessOutcome::Hit, 1);
            }
            (AccessOutcome::Hit, 1)
        } else {
            // L1 miss: classify, then fetch through the hierarchy.
            let st = self.blocks.entry(block).or_default();
            let kind = if st.invalidated & bit != 0 {
                st.invalidated &= !bit;
                MissKind::Coherence
            } else if st.ever & bit != 0 {
                MissKind::Capacity
            } else {
                MissKind::Cold
            };
            match kind {
                MissKind::Cold => self.stats[core].cold += 1,
                MissKind::Capacity => self.stats[core].capacity += 1,
                MissKind::Coherence => self.stats[core].coherence += 1,
            }
            st.ever |= bit;
            st.holders |= bit;
            st.transfers += 1;
            self.total_transfers += 1;
            // L2 lookup (non-inclusive: an L2 eviction leaves L1s alone).
            let cost = match self.cfg.l2 {
                None => 1 + self.cfg.miss_cost,
                Some(l2c) => {
                    let idx = self.l2_idx(core);
                    if self.l2[idx].touch(block) {
                        self.stats[core].l2_hits += 1;
                        1 + l2c.hit_cost
                    } else {
                        self.stats[core].l2_misses += 1;
                        self.l2[idx].insert(block);
                        1 + self.cfg.miss_cost
                    }
                }
            };
            if let Some(evicted) = self.caches[core].insert(block) {
                self.stats[core].evictions += 1;
                // Silent capacity eviction: drop from holders; the next miss
                // on it by this core is a capacity miss (not coherence).
                let est = self
                    .blocks
                    .get_mut(&evicted)
                    .expect("evicted block has state");
                est.holders &= !bit;
                est.invalidated &= !bit;
            }
            (AccessOutcome::Miss(kind), cost)
        };

        if write {
            // Invalidate every other holder (write-invalidate coherence).
            let st = self
                .blocks
                .get_mut(&block)
                .expect("resident block has state");
            let others = st.holders & !bit;
            if others != 0 {
                let partitioned = matches!(self.cfg.l2, Some(l2c) if l2c.partitioned);
                let mut mask = others;
                while mask != 0 {
                    let victim = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let removed = self.caches[victim].invalidate(block);
                    debug_assert!(removed, "holder bitmask out of sync");
                    // Partitioned L2 segments act as private second levels:
                    // the victim's segment copy dies too. A shared L2 keeps
                    // its (written-through) copy valid.
                    if partitioned {
                        self.l2[victim].invalidate(block);
                    }
                    self.stats[victim].invalidations_received += 1;
                }
                let n = others.count_ones() as u64;
                self.stats[core].invalidations_sent += n;
                st.holders = bit;
                st.invalidated |= others;
            }
        }
        (outcome, cost)
    }

    /// How many times `block` has been fetched into some cache so far
    /// (the paper's block delay over the whole execution, Def 2.2).
    pub fn block_transfers(&self, block: BlockId) -> u64 {
        self.blocks.get(&block).map_or(0, |s| s.transfers)
    }

    /// The maximum per-block transfer count over all blocks in the given
    /// address range (used to verify Lemma 3.1-style per-block bounds).
    pub fn max_transfers_in(&self, lo: Word, hi: Word) -> u64 {
        let b0 = self.cfg.block_of(lo);
        let b1 = self.cfg.block_of(hi.saturating_sub(1).max(lo));
        (b0..=b1)
            .map(|b| self.block_transfers(b))
            .max()
            .unwrap_or(0)
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            per_core: self.stats.clone(),
            block_transfers: self.total_transfers,
        }
    }

    /// Reset caches and counters, keeping the configuration.
    pub fn reset(&mut self) {
        for c in &mut self.caches {
            c.clear();
        }
        for c in &mut self.l2 {
            c.clear();
        }
        self.blocks.clear();
        self.stats = vec![CoreStats::default(); self.cfg.p];
        self.total_transfers = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(p: usize, m: u64, b: u64) -> MemSystem {
        MemSystem::new(MachineConfig::new(p, m, b))
    }

    #[test]
    fn cold_then_hit() {
        let mut ms = machine(1, 1024, 32);
        assert_eq!(ms.access(0, 0, false), AccessOutcome::Miss(MissKind::Cold));
        assert_eq!(ms.access(0, 1, false), AccessOutcome::Hit); // same block
        assert_eq!(ms.access(0, 31, false), AccessOutcome::Hit);
        assert_eq!(ms.access(0, 32, false), AccessOutcome::Miss(MissKind::Cold));
    }

    #[test]
    fn capacity_miss_after_eviction() {
        // 2 frames: touching 3 blocks evicts the first.
        let mut ms = machine(1, 64, 32);
        ms.access(0, 0, false);
        ms.access(0, 32, false);
        ms.access(0, 64, false); // evicts block 0
        assert_eq!(
            ms.access(0, 0, false),
            AccessOutcome::Miss(MissKind::Capacity)
        );
        let t = ms.stats().total();
        assert_eq!(t.cold, 3);
        assert_eq!(t.capacity, 1);
        assert_eq!(t.coherence, 0);
        assert_eq!(t.evictions, 2);
    }

    #[test]
    fn false_sharing_ping_pong() {
        // Two cores writing into the same block alternate coherence misses —
        // the motivating Θ(B) ping-pong of §1.
        let mut ms = machine(2, 1024, 32);
        assert!(ms.access(0, 0, true).is_miss()); // cold
        assert!(ms.access(1, 1, true).is_miss()); // cold, invalidates core 0
        for i in 0..10u64 {
            let o0 = ms.access(0, 2 + (i % 8), true);
            assert_eq!(o0, AccessOutcome::Miss(MissKind::Coherence));
            let o1 = ms.access(1, 10 + (i % 8), true);
            assert_eq!(o1, AccessOutcome::Miss(MissKind::Coherence));
        }
        let t = ms.stats().total();
        assert_eq!(t.coherence, 20);
        assert_eq!(t.cold, 2);
        assert!(ms.block_transfers(0) >= 20);
    }

    #[test]
    fn read_sharing_is_free() {
        // Many cores reading one block: one cold miss each, no coherence.
        let mut ms = machine(8, 1024, 32);
        for c in 0..8 {
            assert_eq!(ms.access(c, 5, false), AccessOutcome::Miss(MissKind::Cold));
            assert_eq!(ms.access(c, 6, false), AccessOutcome::Hit);
        }
        assert_eq!(ms.stats().total().coherence, 0);
    }

    #[test]
    fn write_invalidates_readers() {
        let mut ms = machine(3, 1024, 32);
        ms.access(0, 0, false);
        ms.access(1, 0, false);
        ms.access(2, 0, true); // invalidates cores 0 and 1
        assert_eq!(ms.stats().per_core[2].invalidations_sent, 2);
        assert!(ms.access(0, 0, false).is_block_miss());
        assert!(ms.access(1, 0, false).is_block_miss());
        // core 2 still holds it? No: cores 0/1 re-reading did not invalidate.
        assert_eq!(ms.access(2, 0, false), AccessOutcome::Hit);
    }

    #[test]
    fn eviction_then_remote_write_is_capacity_not_coherence() {
        // If the core lost the block to capacity before the remote write,
        // its re-miss is a capacity miss, not a block miss.
        let mut ms = machine(2, 64, 32);
        ms.access(0, 0, false); // block 0
        ms.access(0, 32, false);
        ms.access(0, 64, false); // evicts block 0 from core 0
        ms.access(1, 0, true); // core 1 writes block 0; core 0 has no copy
        assert_eq!(
            ms.access(0, 0, false),
            AccessOutcome::Miss(MissKind::Capacity)
        );
    }

    #[test]
    fn invalidated_block_does_not_occupy_frame() {
        // After invalidation the frame is free: inserting a new block must
        // not evict anything.
        let mut ms = machine(2, 64, 32);
        ms.access(0, 0, false);
        ms.access(0, 32, false); // cache of core 0 full
        ms.access(1, 0, true); // invalidates block 0 in core 0
        ms.access(0, 64, false); // should use the freed frame
        assert_eq!(ms.stats().per_core[0].evictions, 0);
        // block 32 must still be resident:
        assert_eq!(ms.access(0, 33, false), AccessOutcome::Hit);
    }

    #[test]
    fn reset_clears_everything() {
        let mut ms = machine(2, 64, 32);
        ms.access(0, 0, true);
        ms.access(1, 0, true);
        ms.reset();
        let t = ms.stats().total();
        assert_eq!(t.accesses(), 0);
        assert_eq!(ms.block_transfers(0), 0);
        assert_eq!(ms.access(0, 0, false), AccessOutcome::Miss(MissKind::Cold));
    }

    #[test]
    fn shared_l2_serves_invalidated_refills_cheaply() {
        // Shared L2: after a coherence invalidation, the victim refills
        // from L2 at the cheap cost (1 + b), not the memory cost.
        let cfg = MachineConfig::new(2, 64, 32).with_l2(1 << 10, false);
        let mut ms = MemSystem::new(cfg);
        let (_, c0) = ms.access_costed(0, 0, false); // L1+L2 miss -> memory
        assert_eq!(c0, 1 + cfg.miss_cost);
        ms.access(1, 0, true); // invalidates core 0's L1 copy
        let (o, c1) = ms.access_costed(0, 0, false); // block miss, L2 hit
        assert!(o.is_block_miss());
        assert_eq!(c1, 1 + cfg.l2.unwrap().hit_cost);
        assert_eq!(ms.stats().per_core[0].l2_hits, 1);
    }

    #[test]
    fn partitioned_l2_segments_are_invalidated_too() {
        let cfg = MachineConfig::new(2, 64, 32).with_l2(1 << 10, true);
        let mut ms = MemSystem::new(cfg);
        ms.access(0, 0, false);
        ms.access(1, 0, true); // kills core 0's L1 AND its L2 segment copy
        let (o, c) = ms.access_costed(0, 0, false);
        assert!(o.is_block_miss());
        assert_eq!(c, 1 + cfg.miss_cost); // segment copy was invalidated
        assert_eq!(ms.stats().per_core[0].l2_misses, 2);
    }

    #[test]
    fn l2_captures_capacity_spill() {
        // Working set bigger than L1 but within L2: repeated sweeps hit L2.
        let cfg = MachineConfig::new(1, 64, 32).with_l2(1 << 10, false);
        let mut ms = MemSystem::new(cfg);
        for pass in 0..2 {
            for blk in 0..4u64 {
                let (_, cost) = ms.access_costed(0, blk * 32, false);
                if pass == 1 {
                    assert_eq!(cost, 1 + cfg.l2.unwrap().hit_cost, "second pass hits L2");
                }
            }
        }
        let s = ms.stats().per_core[0];
        assert_eq!(s.l2_misses, 4);
        assert_eq!(s.l2_hits, 4);
    }

    #[test]
    fn flat_machine_costs_unchanged() {
        let cfg = MachineConfig::new(1, 64, 32);
        let mut ms = MemSystem::new(cfg);
        let (_, miss) = ms.access_costed(0, 0, false);
        let (_, hit) = ms.access_costed(0, 1, false);
        assert_eq!(miss, 1 + cfg.miss_cost);
        assert_eq!(hit, 1);
    }

    #[test]
    fn transfers_count_every_fetch() {
        let mut ms = machine(2, 64, 32);
        ms.access(0, 0, false); // 1
        ms.access(1, 0, false); // 2
        ms.access(1, 0, true); // hit, no transfer, invalidates core 0
        ms.access(0, 0, false); // 3 (block miss)
        assert_eq!(ms.block_transfers(0), 3);
        assert_eq!(ms.stats().block_transfers, 3);
    }
}
