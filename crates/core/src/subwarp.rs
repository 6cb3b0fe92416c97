use crate::PolicyError;

/// A validated number of subwarps for fixed-sized subwarping.
///
/// For FSS the warp is split into equal groups, so the count must divide the
/// warp size. `NumSubwarps` carries that invariant in the type
/// (the paper sweeps `M ∈ {1, 2, 4, 8, 16, 32}` for a 32-thread warp).
///
/// ```
/// use rcoal_core::NumSubwarps;
/// let m = NumSubwarps::new(8, 32)?;
/// assert_eq!(m.get(), 8);
/// assert!(NumSubwarps::new(3, 32).is_err());
/// # Ok::<(), rcoal_core::PolicyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NumSubwarps(usize);

impl NumSubwarps {
    /// Creates a subwarp count that evenly divides `warp_size`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::OutOfRange`] if `num_subwarps` is zero or
    /// exceeds `warp_size`, and [`PolicyError::NotADivisor`] if it does not
    /// divide `warp_size`.
    pub fn new(num_subwarps: usize, warp_size: usize) -> Result<Self, PolicyError> {
        if num_subwarps == 0 || num_subwarps > warp_size {
            return Err(PolicyError::OutOfRange {
                num_subwarps,
                warp_size,
            });
        }
        if !warp_size.is_multiple_of(num_subwarps) {
            return Err(PolicyError::NotADivisor {
                num_subwarps,
                warp_size,
            });
        }
        Ok(NumSubwarps(num_subwarps))
    }

    /// Creates a subwarp count bounded by `warp_size` without requiring
    /// divisibility (valid for RSS, where sizes are drawn at random).
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::OutOfRange`] if `num_subwarps` is zero or
    /// exceeds `warp_size`.
    pub fn new_unaligned(num_subwarps: usize, warp_size: usize) -> Result<Self, PolicyError> {
        if num_subwarps == 0 || num_subwarps > warp_size {
            return Err(PolicyError::OutOfRange {
                num_subwarps,
                warp_size,
            });
        }
        Ok(NumSubwarps(num_subwarps))
    }

    /// Returns the raw count.
    pub fn get(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NumSubwarps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Most lanes one [`SubwarpAssignment`] holds.
///
/// Lane masks are `u64` ([`crate::MemAccess::lane_mask`]), so a warp
/// wider than 64 lanes cannot be coalesced correctly; the simulator's
/// `GpuConfig` caps its warps at the same width. Real warps have 32.
pub const MAX_LANES: usize = 64;

/// An assignment of every lane of a warp to a subwarp.
///
/// This is the `sid` (subwarp-id) mapping held in the modified coalescing
/// unit's pending request table (paper §IV-D, Figure 11). Invariants upheld
/// by construction:
///
/// * the warp has at most [`MAX_LANES`] lanes;
/// * every lane has a subwarp id `< num_subwarps()`;
/// * every subwarp owns at least one lane (no subwarp is empty, as required
///   by the paper's skewed RSS distribution, §IV-B).
///
/// The ids are stored inline, so building, drawing and cloning an
/// assignment never touches the heap.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SubwarpAssignment {
    /// `sid[lane]` is the subwarp id of `lane`; slots from `lanes` on
    /// stay zero so the derived `Eq` and `Hash` see only the warp.
    sid: [u8; MAX_LANES],
    lanes: u8,
    num_subwarps: u8,
}

impl std::fmt::Debug for SubwarpAssignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubwarpAssignment")
            .field("sid", &self.sids())
            .field("num_subwarps", &self.num_subwarps)
            .finish()
    }
}

impl SubwarpAssignment {
    /// Builds an assignment from per-subwarp sizes with lanes mapped
    /// *in order*: the first `sizes[0]` lanes get sid 0, the next
    /// `sizes[1]` get sid 1, and so on. This is how FSS and RSS (without
    /// RTS) allot subwarp ids (§IV-D: "the subwarp-ids are allotted in
    /// order").
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidSizes`] if any size is zero or the
    /// sizes are empty, and [`PolicyError::OutOfRange`] if they cover
    /// more than [`MAX_LANES`] lanes.
    pub fn in_order(sizes: &[usize]) -> Result<Self, PolicyError> {
        let mut a = Self::empty(sizes)?;
        let mut lane = 0;
        for (s, &size) in sizes.iter().enumerate() {
            a.sid[lane..lane + size].fill(s as u8);
            lane += size;
        }
        Ok(a)
    }

    /// Builds an assignment from per-subwarp sizes and an explicit lane
    /// permutation: `perm[i]` is the lane that occupies slot `i` of the
    /// in-order layout. This realizes RTS on top of FSS or RSS.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::InvalidSizes`] if the sizes are invalid or if
    /// `perm` is not a permutation of `0..sizes.iter().sum()`, and
    /// [`PolicyError::OutOfRange`] beyond [`MAX_LANES`] lanes.
    pub fn permuted(sizes: &[usize], perm: &[usize]) -> Result<Self, PolicyError> {
        let mut a = Self::empty(sizes)?;
        if perm.len() != a.warp_size() || !is_permutation(perm) {
            return Err(PolicyError::InvalidSizes {
                sizes: sizes.to_vec(),
            });
        }
        let mut slot = 0;
        for (s, &size) in sizes.iter().enumerate() {
            for &lane in &perm[slot..slot + size] {
                a.sid[lane] = s as u8;
            }
            slot += size;
        }
        Ok(a)
    }

    /// Places all lanes of a `warp_size`-thread warp in a single subwarp —
    /// the deterministic baseline the attack of Jiang et al. assumes.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::EmptyWarp`] if `warp_size` is zero and
    /// [`PolicyError::OutOfRange`] if it exceeds [`MAX_LANES`].
    pub fn single(warp_size: usize) -> Result<Self, PolicyError> {
        if warp_size == 0 {
            return Err(PolicyError::EmptyWarp);
        }
        Self::in_order(&[warp_size])
    }

    /// Places every lane in its own subwarp, i.e. coalescing disabled.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::EmptyWarp`] if `warp_size` is zero and
    /// [`PolicyError::OutOfRange`] if it exceeds [`MAX_LANES`].
    pub fn fully_split(warp_size: usize) -> Result<Self, PolicyError> {
        if warp_size == 0 {
            return Err(PolicyError::EmptyWarp);
        }
        if warp_size > MAX_LANES {
            return Err(PolicyError::OutOfRange {
                num_subwarps: warp_size,
                warp_size,
            });
        }
        Self::in_order(&[1; MAX_LANES][..warp_size])
    }

    /// An all-zero assignment shaped by validated `sizes`, for the
    /// constructors to fill in.
    fn empty(sizes: &[usize]) -> Result<Self, PolicyError> {
        if sizes.is_empty() || sizes.contains(&0) {
            return Err(PolicyError::InvalidSizes {
                sizes: sizes.to_vec(),
            });
        }
        let lanes = sizes
            .iter()
            .fold(0usize, |total, &size| total.saturating_add(size));
        if lanes > MAX_LANES {
            return Err(PolicyError::OutOfRange {
                num_subwarps: sizes.len(),
                warp_size: lanes,
            });
        }
        // Every size is at least one, so `sizes.len() <= lanes <= 64`.
        Ok(SubwarpAssignment {
            sid: [0; MAX_LANES],
            lanes: lanes as u8,
            num_subwarps: sizes.len() as u8,
        })
    }

    /// The subwarp ids of the warp's lanes, in lane order.
    fn sids(&self) -> &[u8] {
        &self.sid[..usize::from(self.lanes)]
    }

    /// Subwarp id of `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.warp_size()`.
    pub fn sid(&self, lane: usize) -> u8 {
        self.sids()[lane]
    }

    /// Number of lanes covered by this assignment.
    pub fn warp_size(&self) -> usize {
        usize::from(self.lanes)
    }

    /// Number of subwarps.
    pub fn num_subwarps(&self) -> usize {
        usize::from(self.num_subwarps)
    }

    /// Iterates over `(lane, sid)` pairs in lane order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.sids().iter().copied().enumerate()
    }

    /// Returns the lanes of each subwarp, indexed by sid.
    pub fn lanes_by_subwarp(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.num_subwarps()];
        for (lane, s) in self.iter() {
            groups[s as usize].push(lane);
        }
        groups
    }

    /// Returns the size of each subwarp, indexed by sid.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_subwarps()];
        for &s in self.sids() {
            sizes[s as usize] += 1;
        }
        sizes
    }
}

/// Whether `perm` (at most [`MAX_LANES`] long) holds each of
/// `0..perm.len()` exactly once.
fn is_permutation(perm: &[usize]) -> bool {
    let mut seen = [false; MAX_LANES];
    for &p in perm {
        if p >= perm.len() || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_subwarps_accepts_divisors_of_32() {
        for m in [1, 2, 4, 8, 16, 32] {
            assert_eq!(NumSubwarps::new(m, 32).unwrap().get(), m);
        }
    }

    #[test]
    fn num_subwarps_rejects_non_divisors_and_bounds() {
        assert!(matches!(
            NumSubwarps::new(3, 32),
            Err(PolicyError::NotADivisor { .. })
        ));
        assert!(matches!(
            NumSubwarps::new(0, 32),
            Err(PolicyError::OutOfRange { .. })
        ));
        assert!(matches!(
            NumSubwarps::new(64, 32),
            Err(PolicyError::OutOfRange { .. })
        ));
        // Unaligned accepts non-divisors but keeps the range check.
        assert_eq!(NumSubwarps::new_unaligned(3, 32).unwrap().get(), 3);
        assert!(NumSubwarps::new_unaligned(33, 32).is_err());
    }

    #[test]
    fn in_order_assignment_maps_contiguous_groups() {
        let a = SubwarpAssignment::in_order(&[2, 2]).unwrap();
        assert_eq!(a.warp_size(), 4);
        assert_eq!(a.num_subwarps(), 2);
        assert_eq!(
            (0..4).map(|l| a.sid(l)).collect::<Vec<_>>(),
            vec![0, 0, 1, 1]
        );
        assert_eq!(a.sizes(), vec![2, 2]);
    }

    #[test]
    fn in_order_rejects_empty_subwarps() {
        assert!(SubwarpAssignment::in_order(&[2, 0, 2]).is_err());
        assert!(SubwarpAssignment::in_order(&[]).is_err());
    }

    #[test]
    fn permuted_assignment_matches_figure_10a() {
        // Figure 10a: FSS+RTS, 4 threads, 2 subwarps of size 2,
        // subwarp 0 owns lanes {0, 2}, subwarp 1 owns lanes {1, 3}.
        let a = SubwarpAssignment::permuted(&[2, 2], &[0, 2, 1, 3]).unwrap();
        assert_eq!(a.lanes_by_subwarp(), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn permuted_rejects_non_permutations() {
        assert!(SubwarpAssignment::permuted(&[2, 2], &[0, 0, 1, 3]).is_err());
        assert!(SubwarpAssignment::permuted(&[2, 2], &[0, 1, 2]).is_err());
        assert!(SubwarpAssignment::permuted(&[2, 2], &[0, 1, 2, 4]).is_err());
    }

    #[test]
    fn single_and_fully_split() {
        let one = SubwarpAssignment::single(32).unwrap();
        assert_eq!(one.num_subwarps(), 1);
        assert_eq!(one.sizes(), vec![32]);

        let split = SubwarpAssignment::fully_split(32).unwrap();
        assert_eq!(split.num_subwarps(), 32);
        assert!(split.sizes().iter().all(|&s| s == 1));

        assert!(SubwarpAssignment::single(0).is_err());
        assert!(SubwarpAssignment::fully_split(0).is_err());
    }

    #[test]
    fn lanes_by_subwarp_partitions_all_lanes() {
        let a = SubwarpAssignment::in_order(&[1, 3, 4]).unwrap();
        let groups = a.lanes_by_subwarp();
        let mut all: Vec<usize> = groups.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }
}
