use rcoal_core::{CoalescingPolicy, PolicyError, SubwarpAssignment};
use rcoal_rng::Rng;

/// How a kernel launch maps coalescing policies onto its loads.
///
/// `Uniform` is the paper's deployed design: one policy for the whole
/// kernel. `Selective` implements the hardware/software co-design the
/// paper sketches as future work (§VII): randomized coalescing is applied
/// only to the *vulnerable* loads (identified by their statistics tag,
/// e.g. the AES last-round T4 lookups), while every other load keeps a
/// cheaper default policy. This recovers most of the performance of the
/// baseline while keeping the secret-dependent loads randomized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaunchPolicy {
    /// One policy for every load of the kernel.
    Uniform(CoalescingPolicy),
    /// Split policies: loads whose tag falls in
    /// `vulnerable_tags.0..vulnerable_tags.1` use `vulnerable`; all other
    /// loads use `default`.
    Selective {
        /// Policy for the protected (secret-dependent) loads.
        vulnerable: CoalescingPolicy,
        /// Policy for everything else (typically `Baseline`).
        default: CoalescingPolicy,
        /// Half-open tag range `[start, end)` marking protected loads.
        vulnerable_tags: (u16, u16),
    },
}

impl LaunchPolicy {
    /// The policy applied to a load carrying `tag`.
    pub fn policy_for_tag(&self, tag: u16) -> CoalescingPolicy {
        match *self {
            LaunchPolicy::Uniform(p) => p,
            LaunchPolicy::Selective {
                vulnerable,
                default,
                vulnerable_tags: (lo, hi),
            } => {
                if (lo..hi).contains(&tag) {
                    vulnerable
                } else {
                    default
                }
            }
        }
    }

    /// Draws one warp's `(default, vulnerable)` subwarp assignments.
    ///
    /// This is the launch stage's one draw order, shared by the
    /// simulator and functional counting so seeded runs of either see
    /// the same assignments: `Selective` draws the default assignment
    /// first and the vulnerable one second; `Uniform` draws once and
    /// uses that assignment for both.
    ///
    /// # Errors
    ///
    /// Propagates [`CoalescingPolicy::assignment`]'s validation.
    pub fn draw_assignments<R: Rng + ?Sized>(
        &self,
        width: usize,
        rng: &mut R,
    ) -> Result<(SubwarpAssignment, SubwarpAssignment), PolicyError> {
        match *self {
            LaunchPolicy::Uniform(p) => {
                let assignment = p.assignment(width, rng)?;
                Ok((assignment.clone(), assignment))
            }
            LaunchPolicy::Selective {
                vulnerable,
                default,
                ..
            } => {
                let default_assignment = default.assignment(width, rng)?;
                Ok((default_assignment, vulnerable.assignment(width, rng)?))
            }
        }
    }

    /// Whether `tag` falls in the protected range.
    pub fn is_vulnerable_tag(&self, tag: u16) -> bool {
        match *self {
            LaunchPolicy::Uniform(_) => false,
            LaunchPolicy::Selective {
                vulnerable_tags: (lo, hi),
                ..
            } => (lo..hi).contains(&tag),
        }
    }
}

impl From<CoalescingPolicy> for LaunchPolicy {
    fn from(p: CoalescingPolicy) -> Self {
        LaunchPolicy::Uniform(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_rng::{SeedableRng, StdRng};

    #[test]
    fn uniform_applies_everywhere() {
        let lp = LaunchPolicy::Uniform(CoalescingPolicy::Baseline);
        assert_eq!(lp.policy_for_tag(0), CoalescingPolicy::Baseline);
        assert_eq!(lp.policy_for_tag(31), CoalescingPolicy::Baseline);
        assert!(!lp.is_vulnerable_tag(20));
    }

    #[test]
    fn draw_order_is_one_draw_uniform_and_default_first_selective() {
        let (default, vulnerable) = (
            CoalescingPolicy::rss(4).unwrap(),
            CoalescingPolicy::rss_rts(8).unwrap(),
        );
        let mut expect = StdRng::seed_from_u64(3);
        let first = default.assignment(32, &mut expect).unwrap();
        let second = vulnerable.assignment(32, &mut expect).unwrap();

        let mut rng = StdRng::seed_from_u64(3);
        let (d, v) = LaunchPolicy::Uniform(default)
            .draw_assignments(32, &mut rng)
            .unwrap();
        assert_eq!((&d, &v), (&first, &first));
        assert_eq!(vulnerable.assignment(32, &mut rng).unwrap(), second);

        let selective = LaunchPolicy::Selective {
            vulnerable,
            default,
            vulnerable_tags: (16, 32),
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            selective.draw_assignments(32, &mut rng).unwrap(),
            (first, second)
        );
    }

    #[test]
    fn selective_splits_on_tag_range() {
        let rts = CoalescingPolicy::fss_rts(8).unwrap();
        let lp = LaunchPolicy::Selective {
            vulnerable: rts,
            default: CoalescingPolicy::Baseline,
            vulnerable_tags: (16, 32),
        };
        assert_eq!(lp.policy_for_tag(5), CoalescingPolicy::Baseline);
        assert_eq!(lp.policy_for_tag(16), rts);
        assert_eq!(lp.policy_for_tag(31), rts);
        assert_eq!(lp.policy_for_tag(32), CoalescingPolicy::Baseline);
        assert!(lp.is_vulnerable_tag(16));
        assert!(!lp.is_vulnerable_tag(15));
    }

    #[test]
    fn from_policy_is_uniform() {
        let lp: LaunchPolicy = CoalescingPolicy::Disabled.into();
        assert_eq!(lp, LaunchPolicy::Uniform(CoalescingPolicy::Disabled));
    }
}
