//! The coalescer differential oracle.
//!
//! [`reference_coalesce`] is a straight-line, queueing-free
//! reimplementation of the paper's subwarp coalescing semantics: within
//! each subwarp, active lanes touching the same `block_size`-aligned
//! block merge into one access; nothing merges across subwarps. It is
//! deliberately structured nothing like `rcoal_core::Coalescer` (a
//! set-keyed map instead of an ordered scan-and-merge) so the two can
//! only agree by computing the same function.
//!
//! Two differential surfaces:
//!
//! * **unit** — oracle vs. `Coalescer::coalesce`/`count_accesses` on
//!   random assignments and address vectors;
//! * **simulator** — oracle vs. the cycle-level sim: replay the launch's
//!   per-warp assignment draws from the seed, predict every load's
//!   access count, and compare against `SimStats` totals, per-tag
//!   accounting, *and* the per-load `coalescer.load` telemetry events.

use crate::report::SectionReport;
use crate::strategies::{
    arb_addrs, policy_pool, sim_corpus, variant_key, SimScenario, ALL_VARIANTS,
};
use rcoal_core::{Coalescer, SubwarpAssignment};
use rcoal_gpu_sim::{FaultPlan, GpuSimulator, LaunchPolicy, SimTelemetry, TraceInstr};
use rcoal_rng::{SeedableRng, StdRng};
use std::collections::BTreeMap;

/// One reference access: a `(subwarp, block)` pair touched by at least
/// one active lane, with the set of lanes it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefAccess {
    /// Subwarp that issued the access.
    pub sid: u8,
    /// Block-aligned address.
    pub block_addr: u64,
    /// Bit `i` set iff lane `i` is served by this access.
    pub lane_mask: u64,
}

/// Straight-line reference coalescing: the unique `(subwarp, block)`
/// pairs among active lanes, returned sorted by `(sid, block_addr)`.
pub fn reference_coalesce(
    assignment: &SubwarpAssignment,
    addrs: &[Option<u64>],
    block_size: u64,
) -> Vec<RefAccess> {
    let mut merged: BTreeMap<(u8, u64), u64> = BTreeMap::new();
    for (lane, addr) in addrs.iter().enumerate().take(assignment.warp_size()) {
        if let Some(addr) = addr {
            // `addr - addr % bs` rather than the bitmask the production
            // coalescer uses: same function, different derivation.
            let block = addr - addr % block_size;
            *merged.entry((assignment.sid(lane), block)).or_insert(0) |= 1u64 << lane;
        }
    }
    merged
        .into_iter()
        .map(|((sid, block_addr), lane_mask)| RefAccess {
            sid,
            block_addr,
            lane_mask,
        })
        .collect()
}

/// Compares the oracle against the production coalescer on one case.
/// Returns human-readable mismatches (empty = agreement).
pub fn check_coalescer_case(
    coalescer: &Coalescer,
    assignment: &SubwarpAssignment,
    addrs: &[Option<u64>],
) -> Vec<String> {
    let mut failures = Vec::new();
    let expected = reference_coalesce(assignment, addrs, coalescer.block_size());
    let result = coalescer.coalesce(assignment, addrs);
    let mut got: Vec<RefAccess> = result
        .accesses()
        .iter()
        .map(|a| RefAccess {
            sid: a.sid,
            block_addr: a.block_addr,
            lane_mask: a.lane_mask,
        })
        .collect();
    got.sort_by_key(|a| (a.sid, a.block_addr));
    if got != expected {
        failures.push(format!(
            "coalesce() disagrees with oracle: got {} access(es), expected {}",
            got.len(),
            expected.len()
        ));
    }
    let counted = coalescer.count_accesses(assignment, addrs);
    if counted != expected.len() {
        failures.push(format!(
            "count_accesses() = {counted} but oracle found {}",
            expected.len()
        ));
    }
    failures
}

/// Unit differential: oracle vs. `Coalescer` over the policy pool with
/// random assignments and address vectors.
pub fn unit_section(seed: u64) -> SectionReport {
    let mut section = SectionReport::new("coalescer oracle (unit)");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0041);
    let coalescer = Coalescer::new();
    for policy in policy_pool() {
        for case in 0..8 {
            section.cases += 1;
            let addrs = arb_addrs(&mut rng, 32, 4096);
            match policy.assignment(32, &mut rng) {
                Ok(assignment) => {
                    for f in check_coalescer_case(&coalescer, &assignment, &addrs) {
                        section.failures.push(format!("{policy} case {case}: {f}"));
                    }
                }
                Err(e) => section
                    .failures
                    .push(format!("{policy} case {case}: assignment failed: {e}")),
            }
        }
    }
    // Both paths of the count: address spaces on either side of its
    // 64-block bitmask window (exactly 64 blocks; 4160 bytes from a
    // non-aligned base, 65–66 blocks; 256 blocks), then lane vectors
    // shorter and longer than the assignment.
    let shapes = [
        (32, 0, 4096),
        (32, 0x3028, 4160),
        (32, 0, 1 << 14),
        (20, 0, 4096),
        (44, 0x3028, 4160),
    ];
    for (lanes, base, space) in shapes {
        for policy in policy_pool() {
            for case in 0..4 {
                section.cases += 1;
                let addrs: Vec<Option<u64>> = arb_addrs(&mut rng, lanes, space)
                    .into_iter()
                    .map(|a| a.map(|a| base + a))
                    .collect();
                let label =
                    format!("{policy} {lanes} lanes over {space} B at {base:#x}, case {case}");
                match policy.assignment(32, &mut rng) {
                    Ok(assignment) => {
                        for f in check_coalescer_case(&coalescer, &assignment, &addrs) {
                            section.failures.push(format!("{label}: {f}"));
                        }
                    }
                    Err(e) => section
                        .failures
                        .push(format!("{label}: assignment failed: {e}")),
                }
            }
        }
    }
    section
}

/// What the oracle predicts for one simulated launch.
struct SimPrediction {
    /// `(num_subwarps, accesses)` per executed load, unordered.
    per_load: Vec<(u64, u64)>,
    total_accesses: u64,
    total_requests: u64,
    by_tag: Vec<u64>,
}

/// Replays the launch's per-warp assignment draws (one draw per warp,
/// warp order — the simulator's §IV-D contract) and predicts every
/// load with the reference coalescer.
fn predict(s: &SimScenario) -> Result<SimPrediction, String> {
    let mut rng = StdRng::seed_from_u64(s.seed);
    let mut p = SimPrediction {
        per_load: Vec::new(),
        total_accesses: 0,
        total_requests: 0,
        by_tag: vec![0; 8],
    };
    for trace in &s.traces {
        let width = s.gpu.warp_size;
        let assignment = s
            .policy
            .assignment(width, &mut rng)
            .map_err(|e| format!("assignment replay failed: {e}"))?;
        for instr in trace.instrs() {
            if let TraceInstr::Load { addrs, tag } = instr {
                let accesses = reference_coalesce(&assignment, addrs, s.gpu.block_size);
                let n = accesses.len() as u64;
                p.per_load.push((assignment.num_subwarps() as u64, n));
                p.total_accesses += n;
                p.total_requests += addrs.iter().filter(|a| a.is_some()).count() as u64;
                if let Some(slot) = p.by_tag.get_mut(usize::from(*tag)) {
                    *slot += n;
                }
            }
        }
    }
    Ok(p)
}

/// Full differential for one scenario: run the cycle-level simulator
/// instrumented and compare totals, per-tag accounting, and the
/// per-load event stream against the oracle's prediction.
pub fn check_sim_case(s: &SimScenario) -> Vec<String> {
    let mut failures = Vec::new();
    let p = match predict(s) {
        Ok(p) => p,
        Err(e) => return vec![format!("scenario {}: {e}", s.id)],
    };
    let instrs: usize = s.traces.iter().map(|t| t.instrs().len()).sum();
    // Size the ring so nothing is evicted: one event per load + reply +
    // round mark + warp finish, plus launch/done/backpressure slack.
    let capacity = instrs * 2 + p.total_accesses as usize + s.traces.len() + 64;
    let mut tel = SimTelemetry::with_event_capacity(capacity);
    let kernel = s.kernel();
    let stats = match GpuSimulator::new(s.gpu.clone()).run_instrumented(
        &kernel,
        LaunchPolicy::Uniform(s.policy),
        s.seed,
        &FaultPlan::none(),
        &mut tel,
    ) {
        Ok(stats) => stats,
        Err(e) => return vec![format!("scenario {} ({}): sim failed: {e}", s.id, s.policy)],
    };
    if tel.events.dropped() > 0 {
        failures.push(format!(
            "scenario {}: event ring dropped {} event(s); capacity estimate too small",
            s.id,
            tel.events.dropped()
        ));
    }
    if stats.total_accesses != p.total_accesses {
        failures.push(format!(
            "scenario {} ({}): total_accesses {} != oracle {}",
            s.id, s.policy, stats.total_accesses, p.total_accesses
        ));
    }
    if stats.total_requests != p.total_requests {
        failures.push(format!(
            "scenario {} ({}): total_requests {} != oracle {}",
            s.id, s.policy, stats.total_requests, p.total_requests
        ));
    }
    for (tag, &expected) in p.by_tag.iter().enumerate() {
        let got = stats.accesses_for_tag(tag as u16);
        if got != expected {
            failures.push(format!(
                "scenario {} ({}): tag {tag} accesses {got} != oracle {expected}",
                s.id, s.policy
            ));
        }
    }
    // Request-for-request: every executed load's (num_subwarps, count)
    // must match the oracle's prediction for that load. Issue order
    // across SMs is scheduler-dependent, so compare as multisets.
    let mut got: Vec<(u64, u64)> = tel
        .events
        .events()
        .filter(|e| e.component == "coalescer" && e.code == "load")
        .map(|e| (e.a, e.b))
        .collect();
    let mut expected = p.per_load.clone();
    got.sort_unstable();
    expected.sort_unstable();
    if got != expected {
        failures.push(format!(
            "scenario {} ({}): per-load events diverge from oracle ({} vs {} loads)",
            s.id,
            s.policy,
            got.len(),
            expected.len()
        ));
    }
    failures
}

/// Simulator differential over the seeded corpus, with variant-coverage
/// enforcement (every `CoalescingPolicy` variant must appear).
pub fn sim_section(seed: u64, cases: usize) -> Result<SectionReport, crate::ConformanceError> {
    let mut section = SectionReport::new("coalescer oracle (simulator)");
    let corpus = sim_corpus(seed ^ 0x51ca, cases);
    let mut covered: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for s in &corpus {
        section.cases += 1;
        covered.insert(variant_key(&s.policy));
        section.failures.extend(check_sim_case(s));
    }
    if cases >= crate::strategies::FULL_COVERAGE_CASES {
        for v in ALL_VARIANTS {
            if !covered.contains(v) {
                section
                    .failures
                    .push(format!("corpus never exercised policy variant {v:?}"));
            }
        }
    }
    Ok(section)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_core::CoalescingPolicy;

    #[test]
    fn oracle_matches_figure_2_example() {
        // Paper Figure 2: four lanes, middle two sharing a block.
        let addrs = [Some(0u64), Some(64), Some(96), Some(128)];
        let one = SubwarpAssignment::single(4).unwrap();
        assert_eq!(reference_coalesce(&one, &addrs, 64).len(), 3);
        let two = SubwarpAssignment::in_order(&[2, 2]).unwrap();
        assert_eq!(reference_coalesce(&two, &addrs, 64).len(), 4);
    }

    #[test]
    fn oracle_lane_masks_partition_active_lanes() {
        let mut rng = StdRng::seed_from_u64(5);
        let policy = CoalescingPolicy::rss_rts(4).unwrap();
        for _ in 0..50 {
            let addrs = arb_addrs(&mut rng, 32, 4096);
            let a = policy.assignment(32, &mut rng).unwrap();
            let refs = reference_coalesce(&a, &addrs, 64);
            let mut covered = 0u64;
            for r in &refs {
                assert_eq!(covered & r.lane_mask, 0);
                covered |= r.lane_mask;
            }
            let active: u64 = addrs
                .iter()
                .enumerate()
                .filter(|(_, a)| a.is_some())
                .map(|(i, _)| 1u64 << i)
                .sum();
            assert_eq!(covered, active);
        }
    }

    #[test]
    fn unit_section_is_clean() {
        let s = unit_section(77);
        assert!(s.cases >= 100);
        assert!(s.passed(), "{:?}", s.failures);
    }

    #[test]
    fn empty_loads_predict_zero_accesses() {
        let a = SubwarpAssignment::single(8).unwrap();
        let addrs = vec![None; 8];
        assert!(reference_coalesce(&a, &addrs, 64).is_empty());
    }
}
