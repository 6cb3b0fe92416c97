use crate::{NumSubwarps, ParsePolicyError, PolicyError, SubwarpAssignment, MAX_LANES};

use rcoal_rng::seq::SliceRandom;
use rcoal_rng::Rng;

/// Divisor applied to the mean subwarp size to obtain the standard
/// deviation of the [`SizeDistribution::Normal`] sampler (σ = mean / 4).
pub const NORMAL_SIGMA_DIVISOR: f64 = 4.0;

/// Distribution from which RSS draws subwarp sizes (paper §IV-B, Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SizeDistribution {
    /// Sizes clustered around the FSS mean `warp_size / num_subwarps`.
    /// The paper finds this empirically equivalent to FSS and discards it.
    Normal,
    /// Uniform over all compositions of the warp into `num_subwarps`
    /// non-empty parts ("all possible subwarp size combinations equally
    /// likely and no subwarp is empty"). Heavily skewed toward one large
    /// subwarp, which both hinders the attacker and recovers coalescing
    /// opportunity. This is the distribution RCoal adopts.
    #[default]
    Skewed,
}

impl std::fmt::Display for SizeDistribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SizeDistribution::Normal => f.write_str("normal"),
            SizeDistribution::Skewed => f.write_str("skewed"),
        }
    }
}

impl std::str::FromStr for SizeDistribution {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "normal" => Ok(SizeDistribution::Normal),
            "skewed" => Ok(SizeDistribution::Skewed),
            _ => Err(ParsePolicyError::new(format!(
                "unknown size distribution {s:?} (expected normal or skewed)"
            ))),
        }
    }
}

/// A coalescing policy: how the warp is split into subwarps for memory
/// access coalescing, and with how much randomness.
///
/// The policy is consulted once per kernel launch (per encryption, in the
/// AES setting) to produce a [`SubwarpAssignment`]; the assignment then
/// stays fixed for the whole launch, matching the hardware description in
/// paper §IV-D ("set ... at the beginning of the application execution and
/// does not change during the execution").
///
/// ```
/// use rcoal_core::{CoalescingPolicy, NumSubwarps, SizeDistribution};
/// use rcoal_rng::SeedableRng;
///
/// let m = NumSubwarps::new(4, 32)?;
/// let policy = CoalescingPolicy::RssRts { num_subwarps: m, dist: SizeDistribution::Skewed };
/// let mut rng = rcoal_rng::StdRng::seed_from_u64(42);
/// let a = policy.assignment(32, &mut rng)?;
/// assert_eq!(a.num_subwarps(), 4);
/// assert_eq!(a.sizes().iter().sum::<usize>(), 32);
/// # Ok::<(), rcoal_core::PolicyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoalescingPolicy {
    /// One subwarp per warp — the vulnerable stock configuration
    /// (equivalent to FSS with `num_subwarps = 1`).
    Baseline,
    /// No coalescing at all: every lane issues its own access. Secure but
    /// pays the full bandwidth cost (§III: up to 178 % slowdown, 2.7×
    /// accesses for AES).
    Disabled,
    /// Fixed-sized subwarps: `num_subwarps` equal, in-order groups.
    Fss {
        /// How many equal subwarps the warp is split into.
        num_subwarps: NumSubwarps,
    },
    /// Random-sized subwarps: group sizes redrawn per launch from `dist`,
    /// lanes assigned in order.
    Rss {
        /// How many subwarps the warp is split into.
        num_subwarps: NumSubwarps,
        /// Distribution of the subwarp sizes.
        dist: SizeDistribution,
    },
    /// Fixed sizes with random lane-to-subwarp allocation (FSS + RTS).
    FssRts {
        /// How many equal subwarps the warp is split into.
        num_subwarps: NumSubwarps,
    },
    /// Random sizes *and* random lane allocation (RSS + RTS) — the paper's
    /// strongest combination for small subwarp counts.
    RssRts {
        /// How many subwarps the warp is split into.
        num_subwarps: NumSubwarps,
        /// Distribution of the subwarp sizes.
        dist: SizeDistribution,
    },
}

impl CoalescingPolicy {
    /// Convenience constructor for FSS over a 32-thread warp.
    ///
    /// # Errors
    ///
    /// Propagates [`NumSubwarps::new`] validation errors.
    pub fn fss(num_subwarps: usize) -> Result<Self, PolicyError> {
        Ok(CoalescingPolicy::Fss {
            num_subwarps: NumSubwarps::new(num_subwarps, crate::WARP_SIZE)?,
        })
    }

    /// Convenience constructor for skewed RSS over a 32-thread warp.
    ///
    /// # Errors
    ///
    /// Propagates [`NumSubwarps::new_unaligned`] validation errors.
    pub fn rss(num_subwarps: usize) -> Result<Self, PolicyError> {
        Ok(CoalescingPolicy::Rss {
            num_subwarps: NumSubwarps::new_unaligned(num_subwarps, crate::WARP_SIZE)?,
            dist: SizeDistribution::Skewed,
        })
    }

    /// Convenience constructor for FSS+RTS over a 32-thread warp.
    ///
    /// # Errors
    ///
    /// Propagates [`NumSubwarps::new`] validation errors.
    pub fn fss_rts(num_subwarps: usize) -> Result<Self, PolicyError> {
        Ok(CoalescingPolicy::FssRts {
            num_subwarps: NumSubwarps::new(num_subwarps, crate::WARP_SIZE)?,
        })
    }

    /// Convenience constructor for skewed RSS+RTS over a 32-thread warp.
    ///
    /// # Errors
    ///
    /// Propagates [`NumSubwarps::new_unaligned`] validation errors.
    pub fn rss_rts(num_subwarps: usize) -> Result<Self, PolicyError> {
        Ok(CoalescingPolicy::RssRts {
            num_subwarps: NumSubwarps::new_unaligned(num_subwarps, crate::WARP_SIZE)?,
            dist: SizeDistribution::Skewed,
        })
    }

    /// Draws the subwarp assignment used for one kernel launch.
    ///
    /// Deterministic policies ignore `rng`. The same `rng` state always
    /// yields the same assignment, so experiments are reproducible from a
    /// seed.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::EmptyWarp`] for a zero-sized warp, and
    /// [`PolicyError::OutOfRange`] if the configured subwarp count exceeds
    /// `warp_size` (e.g. an FSS-of-32 policy applied to a 4-thread warp).
    pub fn assignment<R: Rng + ?Sized>(
        &self,
        warp_size: usize,
        rng: &mut R,
    ) -> Result<SubwarpAssignment, PolicyError> {
        if warp_size == 0 {
            return Err(PolicyError::EmptyWarp);
        }
        if warp_size > MAX_LANES {
            // Rejected before any draw: the stack buffers below hold one
            // slot per lane.
            return Err(PolicyError::OutOfRange {
                num_subwarps: self.num_subwarps(warp_size),
                warp_size,
            });
        }
        let mut buf = [0usize; MAX_LANES];
        let mut perm = [0usize; MAX_LANES];
        match *self {
            CoalescingPolicy::Baseline => SubwarpAssignment::single(warp_size),
            CoalescingPolicy::Disabled => SubwarpAssignment::fully_split(warp_size),
            CoalescingPolicy::Fss { num_subwarps } => {
                let sizes = fixed_sizes(warp_size, num_subwarps.get(), &mut buf)?;
                SubwarpAssignment::in_order(sizes)
            }
            CoalescingPolicy::Rss { num_subwarps, dist } => {
                let sizes = random_sizes(warp_size, num_subwarps.get(), dist, rng, &mut buf)?;
                SubwarpAssignment::in_order(sizes)
            }
            CoalescingPolicy::FssRts { num_subwarps } => {
                let sizes = fixed_sizes(warp_size, num_subwarps.get(), &mut buf)?;
                SubwarpAssignment::permuted(sizes, random_permutation(warp_size, rng, &mut perm))
            }
            CoalescingPolicy::RssRts { num_subwarps, dist } => {
                let sizes = random_sizes(warp_size, num_subwarps.get(), dist, rng, &mut buf)?;
                SubwarpAssignment::permuted(sizes, random_permutation(warp_size, rng, &mut perm))
            }
        }
    }

    /// Number of subwarps this policy splits a `warp_size`-thread warp
    /// into.
    pub fn num_subwarps(&self, warp_size: usize) -> usize {
        match *self {
            CoalescingPolicy::Baseline => 1,
            CoalescingPolicy::Disabled => warp_size,
            CoalescingPolicy::Fss { num_subwarps }
            | CoalescingPolicy::FssRts { num_subwarps }
            | CoalescingPolicy::Rss { num_subwarps, .. }
            | CoalescingPolicy::RssRts { num_subwarps, .. } => num_subwarps.get(),
        }
    }

    /// Whether the assignment varies between launches.
    pub fn is_randomized(&self) -> bool {
        matches!(
            self,
            CoalescingPolicy::Rss { .. }
                | CoalescingPolicy::FssRts { .. }
                | CoalescingPolicy::RssRts { .. }
        )
    }

    /// Short display name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            CoalescingPolicy::Baseline => "baseline",
            CoalescingPolicy::Disabled => "no-coalescing",
            CoalescingPolicy::Fss { .. } => "FSS",
            CoalescingPolicy::Rss { .. } => "RSS",
            CoalescingPolicy::FssRts { .. } => "FSS+RTS",
            CoalescingPolicy::RssRts { .. } => "RSS+RTS",
        }
    }
}

impl std::fmt::Display for CoalescingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoalescingPolicy::Baseline | CoalescingPolicy::Disabled => f.write_str(self.name()),
            CoalescingPolicy::Fss { num_subwarps } | CoalescingPolicy::FssRts { num_subwarps } => {
                write!(f, "{}(M={})", self.name(), num_subwarps)
            }
            CoalescingPolicy::Rss { num_subwarps, dist }
            | CoalescingPolicy::RssRts { num_subwarps, dist } => {
                write!(f, "{}(M={}, {})", self.name(), num_subwarps, dist)
            }
        }
    }
}

impl std::str::FromStr for CoalescingPolicy {
    type Err = ParsePolicyError;

    /// Parses a policy spec, accepting both the CLI grammar and the
    /// [`Display`](std::fmt::Display) form (so `parse ∘ to_string = id`):
    ///
    /// * `baseline`; `disabled`, `off`, `no-coalescing`
    /// * `fss:M`, `rss:M`, `fss-rts:M`, `rss-rts:M` (also `fss+rts:M`,
    ///   `rss+rts:M`) with `M` the subwarp count; RSS forms take an
    ///   optional trailing `:normal` / `:skewed`
    /// * `FSS(M=8)`, `FSS+RTS(M=8)`, `RSS(M=4, skewed)`,
    ///   `RSS+RTS(M=4, normal)`
    ///
    /// Matching is case-insensitive and whitespace-tolerant.
    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let lower = spec.trim().to_ascii_lowercase();
        let (name, m, dist) = if let Some((name, rest)) = lower.split_once('(') {
            // Display form: NAME(M=count[, dist])
            let inner = rest.trim_end().strip_suffix(')').ok_or_else(|| {
                ParsePolicyError::new(format!("invalid policy {spec:?}: missing ')'"))
            })?;
            let (m_part, dist_part) = match inner.split_once(',') {
                Some((m_part, dist_part)) => (m_part, Some(dist_part)),
                None => (inner, None),
            };
            let m_str = m_part.trim().strip_prefix("m=").ok_or_else(|| {
                ParsePolicyError::new(format!("invalid policy {spec:?}: expected M=<count>"))
            })?;
            let m = parse_subwarp_count(m_str.trim(), spec)?;
            let dist = dist_part.map(str::parse::<SizeDistribution>).transpose()?;
            (name.trim().to_string(), Some(m), dist)
        } else {
            // CLI form: name[:count[:dist]]
            let mut parts = lower.splitn(3, ':');
            let name = parts.next().unwrap_or_default().to_string();
            let m = parts
                .next()
                .map(|m_str| parse_subwarp_count(m_str, spec))
                .transpose()?;
            let dist = parts
                .next()
                .map(str::parse::<SizeDistribution>)
                .transpose()?;
            (name, m, dist)
        };
        let fail = |e: PolicyError| ParsePolicyError::new(format!("{spec:?}: {e}"));
        let no_dist = |p: Result<CoalescingPolicy, PolicyError>| {
            if dist.is_some() {
                return Err(ParsePolicyError::new(format!(
                    "policy {spec:?} does not take a size distribution"
                )));
            }
            p.map_err(fail)
        };
        match (name.as_str(), m) {
            ("baseline", None) => no_dist(Ok(CoalescingPolicy::Baseline)),
            ("disabled" | "off" | "no-coalescing", None) => no_dist(Ok(CoalescingPolicy::Disabled)),
            ("fss", Some(m)) => no_dist(CoalescingPolicy::fss(m)),
            ("fss-rts" | "fss+rts", Some(m)) => no_dist(CoalescingPolicy::fss_rts(m)),
            ("rss", Some(m)) => Ok(CoalescingPolicy::Rss {
                num_subwarps: NumSubwarps::new_unaligned(m, crate::WARP_SIZE).map_err(fail)?,
                dist: dist.unwrap_or_default(),
            }),
            ("rss-rts" | "rss+rts", Some(m)) => Ok(CoalescingPolicy::RssRts {
                num_subwarps: NumSubwarps::new_unaligned(m, crate::WARP_SIZE).map_err(fail)?,
                dist: dist.unwrap_or_default(),
            }),
            ("fss" | "rss" | "fss-rts" | "fss+rts" | "rss-rts" | "rss+rts", None) => {
                Err(ParsePolicyError::new(format!(
                    "policy {spec:?} needs a subwarp count, e.g. {name}:4"
                )))
            }
            _ => Err(ParsePolicyError::new(format!(
                "unknown policy {spec:?} (expected baseline, disabled, fss:M, rss:M, fss-rts:M, rss-rts:M)"
            ))),
        }
    }
}

fn parse_subwarp_count(m_str: &str, spec: &str) -> Result<usize, ParsePolicyError> {
    m_str
        .parse()
        .map_err(|_| ParsePolicyError::new(format!("invalid subwarp count {m_str:?} in {spec:?}")))
}

/// `m` equal sizes for a `warp_size`-lane warp, written to `buf[..m]`.
fn fixed_sizes(
    warp_size: usize,
    m: usize,
    buf: &mut [usize; MAX_LANES],
) -> Result<&[usize], PolicyError> {
    if m > warp_size {
        return Err(PolicyError::OutOfRange {
            num_subwarps: m,
            warp_size,
        });
    }
    if !warp_size.is_multiple_of(m) {
        return Err(PolicyError::NotADivisor {
            num_subwarps: m,
            warp_size,
        });
    }
    let sizes = &mut buf[..m];
    sizes.fill(warp_size / m);
    Ok(sizes)
}

/// Draws subwarp sizes for RSS into `buf[..m]` (`n <= MAX_LANES`).
pub(crate) fn random_sizes<'a, R: Rng + ?Sized>(
    warp_size: usize,
    m: usize,
    dist: SizeDistribution,
    rng: &mut R,
    buf: &'a mut [usize; MAX_LANES],
) -> Result<&'a [usize], PolicyError> {
    if m == 0 || m > warp_size {
        return Err(PolicyError::OutOfRange {
            num_subwarps: m,
            warp_size,
        });
    }
    let sizes = &mut buf[..m];
    match dist {
        SizeDistribution::Skewed => skewed_sizes(warp_size, sizes, rng),
        SizeDistribution::Normal => normal_sizes(warp_size, sizes, rng),
    }
    Ok(sizes)
}

/// Uniform over compositions of `n` into `sizes.len()` positive parts,
/// via the stars-and-bars bijection: choose `m - 1` distinct cut points
/// among the `n - 1` gaps between the `n` threads.
fn skewed_sizes<R: Rng + ?Sized>(n: usize, sizes: &mut [usize], rng: &mut R) {
    let m = sizes.len();
    debug_assert!(m >= 1 && m <= n && n <= MAX_LANES);
    if m == 1 {
        sizes[0] = n;
        return;
    }
    let mut buf = [0usize; MAX_LANES];
    let gaps = &mut buf[..n - 1];
    for (gap, cut) in gaps.iter_mut().zip(1..) {
        *gap = cut;
    }
    gaps.shuffle(rng);
    let cuts = &mut gaps[..m - 1];
    cuts.sort_unstable();
    let mut prev = 0;
    for (size, &cut) in sizes.iter_mut().zip(cuts.iter()) {
        *size = cut - prev;
        prev = cut;
    }
    sizes[m - 1] = n - prev;
}

/// Sizes drawn iid from a normal centred on the FSS mean, rounded, clamped
/// to at least 1, then repaired so the total is exactly `n`.
fn normal_sizes<R: Rng + ?Sized>(n: usize, sizes: &mut [usize], rng: &mut R) {
    let m = sizes.len();
    debug_assert!(m >= 1 && m <= n && n <= MAX_LANES);
    if m == 1 {
        sizes[0] = n;
        return;
    }
    let mean = n as f64 / m as f64;
    let sigma = (mean / NORMAL_SIGMA_DIVISOR).max(0.25);
    for size in sizes.iter_mut() {
        // Box–Muller from two uniforms keeps the draw on the
        // workspace's own `rcoal-rng` generator.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0f64..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        *size = ((mean + sigma * z).round() as i64).max(1) as usize;
    }
    // Repair pass: add/remove one thread at a time, never emptying a
    // subwarp, until the sizes sum to the warp size.
    loop {
        let total: usize = sizes.iter().sum();
        match total.cmp(&n) {
            std::cmp::Ordering::Equal => break,
            std::cmp::Ordering::Less => {
                let i = rng.gen_range(0..m);
                sizes[i] += 1;
            }
            std::cmp::Ordering::Greater => {
                let mut candidates = [0usize; MAX_LANES];
                let mut count = 0;
                for (i, &size) in sizes.iter().enumerate() {
                    if size > 1 {
                        candidates[count] = i;
                        count += 1;
                    }
                }
                let i = candidates[rng.gen_range(0..count)];
                sizes[i] -= 1;
            }
        }
    }
}

/// A uniformly random permutation of `0..n`, drawn into `buf[..n]`.
fn random_permutation<'a, R: Rng + ?Sized>(
    n: usize,
    rng: &mut R,
    buf: &'a mut [usize; MAX_LANES],
) -> &'a [usize] {
    let perm = &mut buf[..n];
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    perm.shuffle(rng);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_rng::StdRng;
    use rcoal_rng::{RngCore, SeedableRng};
    use std::collections::HashMap;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn baseline_is_single_subwarp() {
        let a = CoalescingPolicy::Baseline
            .assignment(32, &mut rng(0))
            .unwrap();
        assert_eq!(a.num_subwarps(), 1);
        assert_eq!(a.warp_size(), 32);
    }

    #[test]
    fn disabled_is_one_lane_per_subwarp() {
        let a = CoalescingPolicy::Disabled
            .assignment(32, &mut rng(0))
            .unwrap();
        assert_eq!(a.num_subwarps(), 32);
        assert!(a.sizes().iter().all(|&s| s == 1));
    }

    #[test]
    fn fss_splits_equally_in_order() {
        let p = CoalescingPolicy::fss(4).unwrap();
        let a = p.assignment(32, &mut rng(0)).unwrap();
        assert_eq!(a.sizes(), vec![8; 4]);
        // In-order allocation: lane 7 in sid 0, lane 8 in sid 1.
        assert_eq!(a.sid(7), 0);
        assert_eq!(a.sid(8), 1);
    }

    #[test]
    fn fss_with_m1_equals_baseline() {
        let p = CoalescingPolicy::fss(1).unwrap();
        let base = CoalescingPolicy::Baseline
            .assignment(32, &mut rng(0))
            .unwrap();
        assert_eq!(p.assignment(32, &mut rng(1)).unwrap(), base);
    }

    #[test]
    fn fss_rejects_mismatched_warp() {
        let p = CoalescingPolicy::fss(8).unwrap();
        assert!(p.assignment(4, &mut rng(0)).is_err());
        assert!(p.assignment(0, &mut rng(0)).is_err());
    }

    #[test]
    fn rss_sizes_sum_and_are_nonempty() {
        let p = CoalescingPolicy::rss(4).unwrap();
        for seed in 0..200 {
            let a = p.assignment(32, &mut rng(seed)).unwrap();
            let sizes = a.sizes();
            assert_eq!(sizes.len(), 4);
            assert_eq!(sizes.iter().sum::<usize>(), 32);
            assert!(sizes.iter().all(|&s| s >= 1));
        }
    }

    #[test]
    fn rss_skewed_is_uniform_over_compositions_small_case() {
        // n = 4, m = 2 has compositions (1,3), (2,2), (3,1) — each should
        // appear about a third of the time.
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        let mut r = rng(7);
        for _ in 0..3000 {
            let mut sizes = [0; 2];
            skewed_sizes(4, &mut sizes, &mut r);
            *counts.entry(sizes.to_vec()).or_default() += 1;
        }
        assert_eq!(counts.len(), 3);
        for &c in counts.values() {
            assert!(
                (800..1200).contains(&c),
                "non-uniform composition count {c}"
            );
        }
    }

    #[test]
    fn rss_skewed_has_higher_size_variance_than_normal() {
        let mut r = rng(11);
        let spread = |dist: SizeDistribution, r: &mut StdRng| {
            let mut var_sum = 0.0;
            for _ in 0..500 {
                let mut buf = [0; MAX_LANES];
                let sizes = random_sizes(32, 4, dist, r, &mut buf).unwrap();
                let mean = 8.0;
                var_sum += sizes
                    .iter()
                    .map(|&s| (s as f64 - mean).powi(2))
                    .sum::<f64>()
                    / 4.0;
            }
            var_sum / 500.0
        };
        let skewed = spread(SizeDistribution::Skewed, &mut r);
        let normal = spread(SizeDistribution::Normal, &mut r);
        assert!(
            skewed > 2.0 * normal,
            "skewed variance {skewed} should far exceed normal variance {normal}"
        );
    }

    #[test]
    fn rts_produces_varying_permutations() {
        let p = CoalescingPolicy::fss_rts(4).unwrap();
        let mut r = rng(3);
        let a = p.assignment(32, &mut r).unwrap();
        let b = p.assignment(32, &mut r).unwrap();
        assert_ne!(
            a, b,
            "two RTS draws should differ with overwhelming probability"
        );
        // Still a valid partition into 4 groups of 8.
        assert_eq!(a.sizes(), vec![8; 4]);
        let mut lanes: Vec<usize> = a.lanes_by_subwarp().into_iter().flatten().collect();
        lanes.sort_unstable();
        assert_eq!(lanes, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn warps_wider_than_64_lanes_are_rejected_before_any_draw() {
        for policy in [
            CoalescingPolicy::Baseline,
            CoalescingPolicy::Disabled,
            CoalescingPolicy::rss_rts(8).unwrap(),
        ] {
            let mut r = rng(4);
            assert!(matches!(
                policy.assignment(MAX_LANES + 1, &mut r),
                Err(PolicyError::OutOfRange { .. })
            ));
            assert_eq!(r.next_u64(), rng(4).next_u64(), "{policy}: no draw");
            assert_eq!(
                policy.assignment(MAX_LANES, &mut r).unwrap().warp_size(),
                MAX_LANES
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = CoalescingPolicy::rss_rts(8).unwrap();
        let a = p.assignment(32, &mut rng(99)).unwrap();
        let b = p.assignment(32, &mut rng(99)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn normal_sizes_respect_invariants() {
        let mut r = rng(5);
        for _ in 0..200 {
            let mut sizes = [0; 8];
            normal_sizes(32, &mut sizes, &mut r);
            assert_eq!(sizes.iter().sum::<usize>(), 32);
            assert!(sizes.iter().all(|&s| s >= 1));
        }
    }

    #[test]
    fn policy_metadata() {
        assert!(!CoalescingPolicy::Baseline.is_randomized());
        assert!(!CoalescingPolicy::fss(4).unwrap().is_randomized());
        assert!(CoalescingPolicy::rss(4).unwrap().is_randomized());
        assert!(CoalescingPolicy::fss_rts(4).unwrap().is_randomized());
        assert_eq!(CoalescingPolicy::rss_rts(4).unwrap().name(), "RSS+RTS");
        assert_eq!(CoalescingPolicy::Baseline.num_subwarps(32), 1);
        assert_eq!(CoalescingPolicy::Disabled.num_subwarps(32), 32);
        assert_eq!(CoalescingPolicy::fss(16).unwrap().num_subwarps(32), 16);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CoalescingPolicy::Baseline.to_string(), "baseline");
        assert_eq!(CoalescingPolicy::fss(8).unwrap().to_string(), "FSS(M=8)");
        assert_eq!(
            CoalescingPolicy::rss(4).unwrap().to_string(),
            "RSS(M=4, skewed)"
        );
    }

    #[test]
    fn parses_cli_grammar() {
        assert_eq!("baseline".parse(), Ok(CoalescingPolicy::Baseline));
        assert_eq!("BASELINE".parse(), Ok(CoalescingPolicy::Baseline));
        assert_eq!("disabled".parse(), Ok(CoalescingPolicy::Disabled));
        assert_eq!("off".parse(), Ok(CoalescingPolicy::Disabled));
        assert_eq!("no-coalescing".parse(), Ok(CoalescingPolicy::Disabled));
        assert_eq!("fss:8".parse(), Ok(CoalescingPolicy::fss(8).unwrap()));
        assert_eq!("rss:4".parse(), Ok(CoalescingPolicy::rss(4).unwrap()));
        assert_eq!(
            "fss+rts:16".parse(),
            Ok(CoalescingPolicy::fss_rts(16).unwrap())
        );
        assert_eq!(
            "rss-rts:4".parse(),
            Ok(CoalescingPolicy::rss_rts(4).unwrap())
        );
        assert_eq!(
            "rss:4:normal".parse(),
            Ok(CoalescingPolicy::Rss {
                num_subwarps: NumSubwarps::new_unaligned(4, 32).unwrap(),
                dist: SizeDistribution::Normal,
            })
        );
    }

    #[test]
    fn parses_display_grammar() {
        assert_eq!("FSS(M=8)".parse(), Ok(CoalescingPolicy::fss(8).unwrap()));
        assert_eq!(
            "FSS+RTS(M=2)".parse(),
            Ok(CoalescingPolicy::fss_rts(2).unwrap())
        );
        assert_eq!(
            "RSS(M=4, skewed)".parse(),
            Ok(CoalescingPolicy::rss(4).unwrap())
        );
        assert_eq!(
            "RSS+RTS(M=3, normal)".parse(),
            Ok(CoalescingPolicy::RssRts {
                num_subwarps: NumSubwarps::new_unaligned(3, 32).unwrap(),
                dist: SizeDistribution::Normal,
            })
        );
    }

    #[test]
    fn parse_rejects_bad_specs() {
        let err = |s: &str| s.parse::<CoalescingPolicy>().unwrap_err().to_string();
        assert!(err("fss").contains("subwarp count"));
        assert!(err("fss:3").contains("divide"));
        assert!(err("fss:x").contains("invalid"));
        assert!(err("magic").contains("unknown"));
        assert!(err("fss:8:skewed").contains("distribution"));
        assert!(err("FSS(M=8").contains("')'"));
        assert!(err("FSS(8)").contains("M=<count>"));
        assert!(err("RSS(M=4, diagonal)").contains("unknown size distribution"));
        assert!("rss:0".parse::<CoalescingPolicy>().is_err());
        assert!("rss:33".parse::<CoalescingPolicy>().is_err());
    }

    #[test]
    fn display_round_trips_through_from_str() {
        let mut pool = vec![CoalescingPolicy::Baseline, CoalescingPolicy::Disabled];
        for m in [1, 2, 4, 8, 16, 32] {
            pool.push(CoalescingPolicy::fss(m).unwrap());
            pool.push(CoalescingPolicy::fss_rts(m).unwrap());
        }
        for m in 1..=32 {
            for dist in [SizeDistribution::Skewed, SizeDistribution::Normal] {
                pool.push(CoalescingPolicy::Rss {
                    num_subwarps: NumSubwarps::new_unaligned(m, 32).unwrap(),
                    dist,
                });
                pool.push(CoalescingPolicy::RssRts {
                    num_subwarps: NumSubwarps::new_unaligned(m, 32).unwrap(),
                    dist,
                });
            }
        }
        for p in pool {
            assert_eq!(p.to_string().parse::<CoalescingPolicy>(), Ok(p), "{p}");
        }
    }

    #[test]
    fn size_distribution_round_trips() {
        for d in [SizeDistribution::Normal, SizeDistribution::Skewed] {
            assert_eq!(d.to_string().parse::<SizeDistribution>(), Ok(d));
        }
        assert!("diagonal".parse::<SizeDistribution>().is_err());
    }
}
