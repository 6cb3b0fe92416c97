use crate::{PolicyError, SubwarpAssignment, MAX_LANES};

/// One coalesced memory access produced by the coalescing unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Block-aligned byte address of the access.
    pub block_addr: u64,
    /// Subwarp that generated the access.
    pub sid: u8,
    /// Bitmask of the lanes whose requests were merged into this access.
    pub lane_mask: u64,
}

impl MemAccess {
    /// Number of lane requests satisfied by this access.
    pub fn num_lanes(&self) -> u32 {
        self.lane_mask.count_ones()
    }
}

/// The result of coalescing one warp-wide memory instruction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoalesceResult {
    accesses: Vec<MemAccess>,
}

impl CoalesceResult {
    /// The coalesced accesses in issue order (subwarp-major, then first
    /// appearance within the subwarp).
    pub fn accesses(&self) -> &[MemAccess] {
        &self.accesses
    }

    /// Total number of coalesced accesses — the quantity the timing channel
    /// leaks.
    pub fn num_accesses(&self) -> usize {
        self.accesses.len()
    }

    /// Number of accesses issued by subwarp `sid`.
    pub fn accesses_for_subwarp(&self, sid: u8) -> usize {
        self.accesses.iter().filter(|a| a.sid == sid).count()
    }
}

impl IntoIterator for CoalesceResult {
    type Item = MemAccess;
    type IntoIter = std::vec::IntoIter<MemAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

/// The memory coalescing unit (MCU) of an SM's LD/ST pipeline, extended
/// with the subwarp-id field of paper §IV-D.
///
/// Requests from lanes that share a subwarp id and fall in the same
/// `block_size`-aligned memory block are merged into a single access;
/// requests in different subwarps are never merged, even to the same block.
///
/// ```
/// use rcoal_core::{Coalescer, SubwarpAssignment};
///
/// let c = Coalescer::with_block_size(64)?;
/// let warp = SubwarpAssignment::single(4)?;
/// // All four lanes hit the same 64-byte block: one access.
/// let r = c.coalesce(&warp, &[Some(0), Some(16), Some(32), Some(63)]);
/// assert_eq!(r.num_accesses(), 1);
/// assert_eq!(r.accesses()[0].num_lanes(), 4);
/// # Ok::<(), rcoal_core::PolicyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coalescer {
    block_size: u64,
}

impl Default for Coalescer {
    fn default() -> Self {
        Coalescer {
            block_size: crate::DEFAULT_BLOCK_SIZE,
        }
    }
}

impl Coalescer {
    /// Creates a coalescer with the default 64-byte block granularity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a coalescer with an explicit block granularity.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidBlockSize`] unless `block_size` is a
    /// positive power of two.
    pub fn with_block_size(block_size: u64) -> Result<Self, PolicyError> {
        if block_size == 0 || !block_size.is_power_of_two() {
            return Err(PolicyError::InvalidBlockSize { block_size });
        }
        Ok(Coalescer { block_size })
    }

    /// Coalescing block granularity in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Merges one warp-wide set of lane requests.
    ///
    /// `lane_addrs[lane]` is the byte address requested by `lane`, or
    /// `None` if the lane is inactive (branch divergence). Lanes beyond
    /// `assignment.warp_size()` are ignored; missing lanes are treated as
    /// inactive.
    ///
    /// The returned accesses are ordered subwarp-major and, within a
    /// subwarp, by first requesting lane — deterministic for a given
    /// assignment, as in hardware.
    pub fn coalesce(
        &self,
        assignment: &SubwarpAssignment,
        lane_addrs: &[Option<u64>],
    ) -> CoalesceResult {
        // Each subwarp's active lanes as a bitmask; walking a mask from
        // its lowest set bit visits the lanes in lane order.
        let mut lanes_of = [0u64; MAX_LANES];
        let mut active = 0;
        for (lane, sid) in assignment.iter() {
            if lane_addrs.get(lane).is_some_and(Option::is_some) {
                lanes_of[usize::from(sid)] |= 1 << lane;
                active += 1;
            }
        }
        let mut accesses: Vec<MemAccess> = Vec::with_capacity(active);
        for (sid, &lanes) in lanes_of[..assignment.num_subwarps()].iter().enumerate() {
            let start = accesses.len();
            let mut rest = lanes;
            while rest != 0 {
                let lane = rest.trailing_zeros() as usize;
                let bit = 1u64 << lane;
                rest ^= bit;
                let Some(addr) = lane_addrs[lane] else {
                    continue;
                };
                let block_addr = addr & !(self.block_size - 1);
                match accesses[start..]
                    .iter_mut()
                    .find(|a| a.block_addr == block_addr)
                {
                    Some(existing) => existing.lane_mask |= bit,
                    None => accesses.push(MemAccess {
                        block_addr,
                        sid: sid as u8,
                        lane_mask: bit,
                    }),
                }
            }
        }
        CoalesceResult { accesses }
    }

    /// Counts coalesced accesses without materializing them — the fast path
    /// used by the functional (timing-free) experiment mode. Same lane
    /// conventions as [`Coalescer::coalesce`]; allocation-free (see
    /// [`count_block_accesses`]).
    pub fn count_accesses(
        &self,
        assignment: &SubwarpAssignment,
        lane_addrs: &[Option<u64>],
    ) -> usize {
        let shift = self.block_size.trailing_zeros();
        count_block_accesses(assignment, |lane| {
            lane_addrs.get(lane).copied().flatten().map(|a| a >> shift)
        })
    }
}

/// Widest block window the bitmask count handles.
const MASK_BITS: usize = u64::BITS as usize;

/// Counts the distinct `(subwarp, block)` pairs among a warp's active
/// lanes — the coalesced-access count — given each lane's block index.
///
/// `block_of(lane)` is the block lane `lane` touches, or `None` when the
/// lane is inactive; it is called for `lane < assignment.warp_size()`
/// only. This is the one counting kernel behind both
/// [`Coalescer::count_accesses`] (the victim) and the attacker's
/// predictions, and it allocates nothing:
///
/// * one pass over `(lane, sid)` ORs bit `block % 64` into the lane's
///   subwarp mask (an assignment has at most [`MAX_LANES`] subwarps)
///   while tracking the lowest and highest block. When they lie within
///   64 consecutive indices, distinct blocks have distinct bits and the
///   count is the sum of the masks' popcounts;
/// * otherwise a lane counts iff no earlier active lane of its subwarp
///   touched the same block.
///
/// ```
/// use rcoal_core::{count_block_accesses, SubwarpAssignment};
///
/// let warp = SubwarpAssignment::in_order(&[2, 2])?;
/// let blocks = [Some(7), Some(7), Some(7), None];
/// // Both subwarps touch block 7: two accesses; lane 3 is inactive.
/// assert_eq!(count_block_accesses(&warp, |lane| blocks[lane]), 2);
/// # Ok::<(), rcoal_core::PolicyError>(())
/// ```
pub fn count_block_accesses(
    assignment: &SubwarpAssignment,
    block_of: impl Fn(usize) -> Option<u64>,
) -> usize {
    let subwarps = assignment.num_subwarps();
    let (mut lo, mut hi) = (u64::MAX, 0);
    let mut bit_of = |block: u64| {
        lo = lo.min(block);
        hi = hi.max(block);
        1u64 << (block % MASK_BITS as u64)
    };
    let count = if subwarps == 1 {
        // One subwarp (the baseline) keeps its mask in a register;
        // OR-ing into `masks[0]` would chain every lane through a
        // store-to-load round trip.
        let mask = (0..assignment.warp_size())
            .filter_map(&block_of)
            .fold(0, |mask, block| mask | bit_of(block));
        mask.count_ones() as usize
    } else {
        let mut masks = [0u64; MAX_LANES];
        for (lane, sid) in assignment.iter() {
            if let Some(block) = block_of(lane) {
                masks[usize::from(sid)] |= bit_of(block);
            }
        }
        masks[..subwarps]
            .iter()
            .map(|m| m.count_ones() as usize)
            .sum()
    };
    if lo > hi || hi - lo < MASK_BITS as u64 {
        return count;
    }
    (0..assignment.warp_size())
        .filter(|&lane| {
            block_of(lane).is_some_and(|block| {
                let sid = assignment.sid(lane);
                !(0..lane).any(|prev| assignment.sid(prev) == sid && block_of(prev) == Some(block))
            })
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoalescingPolicy;
    use rcoal_rng::SeedableRng;
    use rcoal_rng::StdRng;

    fn addrs_fig2() -> [Option<u64>; 4] {
        // Figure 2: threads 1 and 2 share a block; threads 0 and 3 have
        // their own blocks.
        [Some(0), Some(64), Some(96), Some(128)]
    }

    #[test]
    fn figure_2_case_1_single_subwarp_three_accesses() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::single(4).unwrap();
        let r = c.coalesce(&a, &addrs_fig2());
        assert_eq!(r.num_accesses(), 3);
        assert_eq!(r.accesses()[1].lane_mask, 0b0110, "lanes 1 and 2 merged");
    }

    #[test]
    fn figure_2_case_2_two_subwarps_four_accesses() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::in_order(&[2, 2]).unwrap();
        let r = c.coalesce(&a, &addrs_fig2());
        assert_eq!(r.num_accesses(), 4);
        assert_eq!(r.accesses_for_subwarp(0), 2);
        assert_eq!(r.accesses_for_subwarp(1), 2);
    }

    #[test]
    fn figure_10a_fss_rts_four_accesses() {
        // FSS+RTS with subwarps {0,2} and {1,3}: lane 1's and lane 2's
        // shared block lands in different subwarps, so nothing merges.
        let c = Coalescer::new();
        let a = SubwarpAssignment::permuted(&[2, 2], &[0, 2, 1, 3]).unwrap();
        let r = c.coalesce(&a, &addrs_fig2());
        assert_eq!(r.num_accesses(), 4);
    }

    #[test]
    fn figure_10b_rss_rts_three_accesses() {
        // RSS+RTS with sizes (1, 3): the size-3 subwarp recovers the merge
        // of lanes 1 and 2, so only three accesses are generated.
        let c = Coalescer::new();
        let a = SubwarpAssignment::permuted(&[1, 3], &[3, 0, 1, 2]).unwrap();
        assert_eq!(a.lanes_by_subwarp(), vec![vec![3], vec![0, 1, 2]]);
        let r = c.coalesce(&a, &addrs_fig2());
        assert_eq!(r.num_accesses(), 3);
    }

    #[test]
    fn perfectly_coalesced_warp_is_one_access() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::single(32).unwrap();
        let addrs: Vec<Option<u64>> = (0..32).map(|i| Some(i as u64 * 2)).collect();
        assert_eq!(c.coalesce(&a, &addrs).num_accesses(), 1);
    }

    #[test]
    fn disabled_coalescing_is_one_access_per_active_lane() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::fully_split(32).unwrap();
        let addrs: Vec<Option<u64>> = (0..32).map(|_| Some(0)).collect();
        assert_eq!(c.coalesce(&a, &addrs).num_accesses(), 32);
    }

    #[test]
    fn inactive_lanes_are_skipped() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::single(4).unwrap();
        let r = c.coalesce(&a, &[Some(0), None, None, Some(1024)]);
        assert_eq!(r.num_accesses(), 2);
        // Short address slices are treated as all-inactive beyond the end.
        let r = c.coalesce(&a, &[Some(0)]);
        assert_eq!(r.num_accesses(), 1);
    }

    #[test]
    fn different_subwarps_never_merge_same_block() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::in_order(&[2, 2]).unwrap();
        let r = c.coalesce(&a, &[Some(0), Some(0), Some(0), Some(0)]);
        assert_eq!(r.num_accesses(), 2);
    }

    #[test]
    fn block_alignment_respected() {
        let c = Coalescer::with_block_size(128).unwrap();
        let a = SubwarpAssignment::single(2).unwrap();
        // 100 and 127 share the first 128-byte block; 128 does not.
        assert_eq!(c.coalesce(&a, &[Some(100), Some(127)]).num_accesses(), 1);
        assert_eq!(c.coalesce(&a, &[Some(100), Some(128)]).num_accesses(), 2);
        let acc = c.coalesce(&a, &[Some(100), Some(128)]);
        assert_eq!(acc.accesses()[0].block_addr, 0);
        assert_eq!(acc.accesses()[1].block_addr, 128);
    }

    #[test]
    fn invalid_block_sizes_rejected() {
        assert!(Coalescer::with_block_size(0).is_err());
        assert!(Coalescer::with_block_size(48).is_err());
        assert!(Coalescer::with_block_size(64).is_ok());
    }

    #[test]
    fn count_matches_full_coalesce() {
        let c = Coalescer::new();
        let mut rng = StdRng::seed_from_u64(21);
        use rcoal_rng::Rng;
        for _ in 0..100 {
            let policy = CoalescingPolicy::rss_rts(4).unwrap();
            let a = policy.assignment(32, &mut rng).unwrap();
            let addrs: Vec<Option<u64>> = (0..32)
                .map(|_| {
                    if rng.gen_bool(0.9) {
                        Some(rng.gen_range(0u64..1024))
                    } else {
                        None
                    }
                })
                .collect();
            assert_eq!(
                c.count_accesses(&a, &addrs),
                c.coalesce(&a, &addrs).num_accesses()
            );
        }
    }

    #[test]
    fn count_is_exact_at_the_window_edge_and_past_64_subwarps() {
        let one = SubwarpAssignment::single(2).unwrap();
        // Blocks 5 and 68 span 64 indices (mask path); 5 and 69 span 65
        // and share residue 5 mod 64 (scan path). Both are two accesses.
        assert_eq!(count_block_accesses(&one, |l| [Some(5), Some(68)][l]), 2);
        assert_eq!(count_block_accesses(&one, |l| [Some(5), Some(69)][l]), 2);
        assert_eq!(count_block_accesses(&one, |l| [Some(69), Some(69)][l]), 1);
        assert_eq!(count_block_accesses(&one, |_| None), 0);
        // 64 single-lane subwarps over 10 blocks: one access per lane.
        let split = SubwarpAssignment::fully_split(64).unwrap();
        assert_eq!(count_block_accesses(&split, |l| Some(l as u64 % 10)), 64);
        // The same lanes over 100 blocks (past the 64-block window).
        assert_eq!(count_block_accesses(&split, |l| Some(l as u64 * 100)), 64);
        // 64 lanes in 2 subwarps over 10 blocks: 10 accesses each.
        let halves = SubwarpAssignment::in_order(&[32, 32]).unwrap();
        assert_eq!(count_block_accesses(&halves, |l| Some(l as u64 % 10)), 20);
    }

    #[test]
    fn assignments_wider_than_64_lanes_are_rejected() {
        // A 65th lane has no bit in a `u64` lane mask.
        assert!(matches!(
            SubwarpAssignment::fully_split(65),
            Err(PolicyError::OutOfRange { .. })
        ));
        assert!(SubwarpAssignment::single(65).is_err());
        assert!(SubwarpAssignment::in_order(&[32, 33]).is_err());
        let c = Coalescer::new();
        let split = SubwarpAssignment::fully_split(64).unwrap();
        let addrs: Vec<Option<u64>> = (0..64).map(|l| Some(l * 64)).collect();
        let r = c.coalesce(&split, &addrs);
        assert_eq!(r.num_accesses(), 64);
        assert_eq!(r.accesses()[63].lane_mask, 1 << 63);
        assert_eq!(r.accesses()[63].sid, 63);
    }

    #[test]
    fn lane_masks_partition_active_lanes() {
        let c = Coalescer::new();
        let a = SubwarpAssignment::in_order(&[16, 16]).unwrap();
        let addrs: Vec<Option<u64>> = (0..32).map(|i| Some((i as u64 % 5) * 64)).collect();
        let r = c.coalesce(&a, &addrs);
        let combined: u64 = r.accesses().iter().fold(0, |m, a| {
            assert_eq!(m & a.lane_mask, 0, "lane covered twice");
            m | a.lane_mask
        });
        assert_eq!(combined, (1u64 << 32) - 1);
    }
}
