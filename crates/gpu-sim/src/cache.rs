//! A set-associative, LRU, per-SM L1 data cache for global loads.
//!
//! Disabled by default: the paper's configuration (and the GPUs the
//! baseline attack was demonstrated on) bypasses L1 for global memory.
//! Enabling it is an ablation lever — a 1 KiB lookup table that fits in
//! L1 serves every lookup from the cache after warm-up, flattening the
//! coalescing timing channel (see `ablation_l1_with` in `rcoal-experiments`).

/// Set-associative cache state over block-aligned addresses.
#[derive(Debug, Clone)]
pub(crate) struct L1Cache {
    /// `sets[s]` holds up to `ways` entries of `(block_addr, last_use)`.
    sets: Vec<Vec<(u64, u64)>>,
    ways: usize,
    use_counter: u64,
}

impl L1Cache {
    /// Creates a cache with `sets` sets of `ways` lines each.
    pub fn new(sets: usize, ways: usize) -> Self {
        L1Cache {
            sets: vec![Vec::new(); sets.max(1)],
            ways: ways.max(1),
            use_counter: 0,
        }
    }

    fn set_of(&self, block_addr: u64) -> usize {
        ((block_addr >> 6) % self.sets.len() as u64) as usize
    }

    /// Looks up a block, updating LRU on a hit (the simulator's `SimStats`
    /// carries the hit/miss accounting).
    pub fn probe(&mut self, block_addr: u64) -> bool {
        self.use_counter += 1;
        let counter = self.use_counter;
        let set = self.set_of(block_addr);
        match self.sets[set].iter_mut().find(|(b, _)| *b == block_addr) {
            Some(entry) => {
                entry.1 = counter;
                true
            }
            None => false,
        }
    }

    /// Installs a block, evicting the LRU line of its set if full.
    pub fn fill(&mut self, block_addr: u64) {
        self.use_counter += 1;
        let counter = self.use_counter;
        let ways = self.ways;
        let set = self.set_of(block_addr);
        let lines = &mut self.sets[set];
        if let Some(entry) = lines.iter_mut().find(|(b, _)| *b == block_addr) {
            entry.1 = counter;
            return;
        }
        if lines.len() >= ways {
            if let Some(lru) = lines
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(i, _)| i)
            {
                lines.swap_remove(lru);
            }
        }
        lines.push((block_addr, counter));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_probe_misses_then_hits_after_fill() {
        let mut c = L1Cache::new(16, 4);
        assert!(!c.probe(0x1000));
        c.fill(0x1000);
        assert!(c.probe(0x1000));
    }

    #[test]
    fn distinct_blocks_occupy_distinct_sets() {
        let mut c = L1Cache::new(16, 1);
        // 16 consecutive 64-byte blocks — exactly one per set.
        for b in 0..16u64 {
            c.fill(b * 64);
        }
        for b in 0..16u64 {
            assert!(c.probe(b * 64), "block {b} evicted unexpectedly");
        }
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        let mut c = L1Cache::new(1, 2);
        c.fill(0); // set 0
        c.fill(64); // same set: sets=1 -> everything set 0
        assert!(c.probe(0)); // touch 0 so 64 is LRU
        c.fill(64 * 2); // evicts 64
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn refill_of_resident_block_updates_lru_without_duplicates() {
        let mut c = L1Cache::new(1, 2);
        c.fill(0);
        c.fill(0);
        c.fill(64);
        c.fill(128); // must evict 0 or 64, never hold duplicates
        let resident = [0u64, 64, 128].iter().filter(|&&b| c.probe(b)).count();
        assert_eq!(resident, 2);
    }
}
