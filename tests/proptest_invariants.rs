//! Property-style tests over the core data structures and invariants.
//!
//! Formerly driven by `proptest`; rewritten as seeded exhaustive/random
//! sweeps over the same input spaces so the suite builds with no
//! external dependencies. Each case draws its inputs from
//! `rcoal_rng::StdRng`, so failures are reproducible from the seeds
//! hard-wired below.

use rcoal::prelude::*;
use rcoal_aes::last_round_index;
use rcoal_attack::pearson;
use rcoal_rng::{Rng, SeedableRng, StdRng};
use rcoal_theory::{stirling2_exact, Occupancy};

/// Deterministic pool of policies covering all six mechanisms with a
/// spread of subwarp counts valid for a 32-thread warp.
fn policy_pool() -> Vec<CoalescingPolicy> {
    let mut pool = vec![CoalescingPolicy::Baseline, CoalescingPolicy::Disabled];
    for k in 0..6 {
        pool.push(CoalescingPolicy::fss(1 << k).expect("divisor"));
        pool.push(CoalescingPolicy::fss_rts(1 << k).expect("divisor"));
    }
    for m in [1, 2, 3, 5, 8, 13, 17, 27, 32] {
        pool.push(CoalescingPolicy::rss(m).expect("in range"));
        pool.push(CoalescingPolicy::rss_rts(m).expect("in range"));
    }
    pool
}

/// 32 optional addresses in `[0, 4096)`, ~1/5 lanes inactive.
fn arb_addrs(rng: &mut StdRng) -> Vec<Option<u64>> {
    (0..32)
        .map(|_| rng.gen_bool(0.8).then(|| rng.gen_range(0u64..4096)))
        .collect()
}

// ---------------------------------------------------------------- policies

#[test]
fn assignment_always_partitions_the_warp() {
    let mut rng = StdRng::seed_from_u64(0xa551);
    for policy in policy_pool() {
        for _ in 0..16 {
            let seed = rng.gen_range(0u64..u64::MAX);
            let mut draw = StdRng::seed_from_u64(seed);
            let a = policy.assignment(32, &mut draw).expect("32-thread warp");
            assert_eq!(a.warp_size(), 32);
            let sizes = a.sizes();
            assert_eq!(
                sizes.len(),
                policy.num_subwarps(32),
                "{policy:?} seed {seed}"
            );
            assert_eq!(sizes.iter().sum::<usize>(), 32);
            assert!(sizes.iter().all(|&s| s >= 1), "no empty subwarp");
            // lanes_by_subwarp is a partition of 0..32.
            let mut lanes: Vec<usize> = a.lanes_by_subwarp().into_iter().flatten().collect();
            lanes.sort_unstable();
            assert_eq!(lanes, (0..32).collect::<Vec<_>>());
        }
    }
}

#[test]
fn deterministic_policies_ignore_the_rng() {
    let mut rng = StdRng::seed_from_u64(0xde7e);
    for k in 0..6 {
        let policy = CoalescingPolicy::fss(1 << k).expect("divisor");
        for _ in 0..8 {
            let (s1, s2) = (rng.gen_range(0u64..u64::MAX), rng.gen_range(0u64..u64::MAX));
            let a = policy
                .assignment(32, &mut StdRng::seed_from_u64(s1))
                .expect("valid");
            let b = policy
                .assignment(32, &mut StdRng::seed_from_u64(s2))
                .expect("valid");
            assert_eq!(a, b, "FSS({}) must not consult the rng", 1 << k);
        }
    }
}

#[test]
fn policy_display_from_str_round_trip() {
    // parse ∘ to_string = id over the whole policy pool, and the parsed
    // policy renders back to the identical string.
    for policy in policy_pool() {
        let shown = policy.to_string();
        let parsed: CoalescingPolicy = shown.parse().expect("display form parses");
        assert_eq!(parsed, policy, "{shown}");
        assert_eq!(parsed.to_string(), shown);
    }
}

// --------------------------------------------------------------- coalescer

#[test]
fn coalesced_count_is_bounded() {
    let mut rng = StdRng::seed_from_u64(0xc0a1);
    let coalescer = Coalescer::new();
    for policy in policy_pool() {
        for _ in 0..8 {
            let raw_addrs = arb_addrs(&mut rng);
            let a = policy.assignment(32, &mut rng).expect("valid");
            let n = coalescer.count_accesses(&a, &raw_addrs);
            let active = raw_addrs.iter().filter(|x| x.is_some()).count();
            // Distinct blocks over the whole warp is a lower bound; active
            // lanes an upper bound.
            let mut blocks: Vec<u64> = raw_addrs.iter().flatten().map(|x| x / 64).collect();
            blocks.sort_unstable();
            blocks.dedup();
            assert!(n >= blocks.len());
            assert!(n <= active);
        }
    }
}

#[test]
fn splitting_subwarps_never_reduces_accesses() {
    // FSS(M) counts are monotone in M for nested splits (1 | 2 | 4 ...).
    let coalescer = Coalescer::new();
    let mut rng = StdRng::seed_from_u64(0x5b11);
    for _ in 0..32 {
        let raw_addrs = arb_addrs(&mut rng);
        let mut prev = 0usize;
        for k in 0..6 {
            let policy = CoalescingPolicy::fss(1 << k).expect("divisor");
            let a = policy.assignment(32, &mut rng).expect("valid");
            let n = coalescer.count_accesses(&a, &raw_addrs);
            assert!(n >= prev, "FSS({}) gave {n} < {prev}", 1 << k);
            prev = n;
        }
    }
}

#[test]
fn lane_masks_cover_exactly_the_active_lanes() {
    let mut rng = StdRng::seed_from_u64(0x1a2e);
    for policy in policy_pool() {
        for _ in 0..8 {
            let raw_addrs = arb_addrs(&mut rng);
            let a = policy.assignment(32, &mut rng).expect("valid");
            let result = Coalescer::new().coalesce(&a, &raw_addrs);
            let mut covered = 0u64;
            for acc in result.accesses() {
                assert_eq!(covered & acc.lane_mask, 0, "each lane served once");
                covered |= acc.lane_mask;
                assert_eq!(acc.block_addr % 64, 0, "block aligned");
            }
            let expected: u64 = raw_addrs
                .iter()
                .enumerate()
                .filter(|(_, x)| x.is_some())
                .map(|(i, _)| 1u64 << i)
                .sum();
            assert_eq!(covered, expected);
        }
    }
}

// --------------------------------------------------------------------- AES

fn arb_block(rng: &mut StdRng) -> [u8; 16] {
    let mut b = [0u8; 16];
    rng.fill(&mut b);
    b
}

#[test]
fn aes_decrypt_inverts_encrypt() {
    let mut rng = StdRng::seed_from_u64(0xae5);
    for _ in 0..64 {
        let (key, pt) = (arb_block(&mut rng), arb_block(&mut rng));
        let aes = Aes128::new(&key);
        assert_eq!(aes.decrypt_block(aes.encrypt_block(pt)), pt);
    }
}

#[test]
fn aes_equation_3_invariant() {
    // t_j == INV_SBOX[c_j ^ k_j] — the relation the attack exploits.
    let mut rng = StdRng::seed_from_u64(0xe93);
    for _ in 0..64 {
        let (key, pt) = (arb_block(&mut rng), arb_block(&mut rng));
        let aes = Aes128::new(&key);
        let (ct, trace) = aes.encrypt_block_traced(pt);
        let k10 = aes.last_round_key();
        let t = trace.last_round_indices().unwrap();
        for j in 0..16 {
            assert_eq!(t[j], last_round_index(ct[j], k10[j]));
        }
    }
}

#[test]
fn aes_is_injective_per_key() {
    let mut rng = StdRng::seed_from_u64(0x171);
    for _ in 0..64 {
        let key = arb_block(&mut rng);
        let (a, b) = (arb_block(&mut rng), arb_block(&mut rng));
        let aes = Aes128::new(&key);
        if a != b {
            assert_ne!(aes.encrypt_block(a), aes.encrypt_block(b));
        }
    }
}

// --------------------------------------------------------------- statistics

#[test]
fn pearson_is_bounded_and_affine_invariant() {
    let mut rng = StdRng::seed_from_u64(0x9ea5);
    for _ in 0..64 {
        let n = rng.gen_range(3usize..40);
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3f64..1e3)).collect();
        let scale = rng.gen_range(0.1f64..100.0);
        let shift = rng.gen_range(-1e3f64..1e3);
        let ys: Vec<f64> = xs.iter().map(|x| x * 2.0 + 1.0).collect();
        let r = pearson(&xs, &ys);
        assert!((-1.0001..=1.0001).contains(&r));
        let xs_t: Vec<f64> = xs.iter().map(|x| x * scale + shift).collect();
        let r_t = pearson(&xs_t, &ys);
        assert!((r - r_t).abs() < 1e-6);
    }
}

// ------------------------------------------------------------------- theory

#[test]
fn occupancy_dp_equals_stirling_form() {
    for m in 1usize..20 {
        for n in 1usize..20 {
            let dp = Occupancy::new(m, n);
            let st = Occupancy::from_stirling(m, n);
            for i in 0..=m {
                assert!((dp.p(i) - st.p(i)).abs() < 1e-9, "m={m} n={n} i={i}");
            }
        }
    }
}

#[test]
fn stirling_recurrence() {
    for n in 1usize..25 {
        for k in 1usize..=n {
            let lhs = stirling2_exact(n, k);
            let rhs = (k as u128) * stirling2_exact(n - 1, k) + stirling2_exact(n - 1, k - 1);
            assert_eq!(lhs, rhs, "n={n} k={k}");
        }
    }
}

// -------------------------------------------------------------- experiments

#[test]
fn functional_runs_are_seed_deterministic() {
    let mut rng = StdRng::seed_from_u64(0xf2a7);
    for _ in 0..4 {
        let seed = rng.gen_range(0u64..u64::MAX);
        let policy = CoalescingPolicy::rss_rts(4).expect("valid");
        let run = || {
            ExperimentConfig::new(policy, 2, 32)
                .with_seed(seed)
                .functional_only()
                .run()
                .expect("experiment")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.last_round_accesses, b.last_round_accesses);
        assert_eq!(a.ciphertexts, b.ciphertexts);
    }
}

// Non-random helpers exercised once: the facade's prelude should expose
// everything a downstream user needs.
#[test]
fn prelude_exposes_the_public_api() {
    let _ = CoalescingPolicy::Baseline;
    let _ = Coalescer::new();
    let _ = GpuConfig::default();
    let _: Vec<rcoal_theory::Table2Row> = table2();
    let _ = RCoalScore::security_oriented();
    let _ = NumSubwarps::new(4, 32).expect("valid");
    let _ = SizeDistribution::Skewed;
}

// ---------------------------------------------------------------------
// Cross-component property: for arbitrary kernels, the cycle simulator's
// access accounting equals direct coalescer counting with the same
// per-warp assignments.

use rcoal_gpu_sim::{GpuSimulator, TraceInstr, TraceKernel, WarpTrace};

fn arb_trace(rng: &mut StdRng) -> WarpTrace {
    let n = rng.gen_range(0usize..12);
    let instrs = (0..n)
        .map(|_| match rng.gen_range(0u32..3) {
            0 => TraceInstr::compute(rng.gen_range(1u32..20)),
            1 => {
                let addrs: Vec<Option<u64>> = (0..8)
                    .map(|_| rng.gen_bool(0.75).then(|| rng.gen_range(0u64..16384)))
                    .collect();
                TraceInstr::load_tagged(addrs, rng.gen_range(0u16..4))
            }
            _ => TraceInstr::RoundMark {
                round: rng.gen_range(1u16..4),
            },
        })
        .collect();
    WarpTrace::from_instrs(instrs)
}

#[test]
fn simulator_access_counts_match_direct_coalescing() {
    let mut rng = StdRng::seed_from_u64(0x51ca);
    for case in 0..32 {
        let traces: Vec<WarpTrace> = (0..rng.gen_range(1usize..4))
            .map(|_| arb_trace(&mut rng))
            .collect();
        let seed = rng.gen_range(0u64..u64::MAX);
        // fss_rts over an 8-thread warp requires m | 8, which every
        // power of two up to 8 satisfies.
        let m = 1usize << rng.gen_range(0u32..4);
        let mut gpu = GpuConfig::tiny();
        gpu.warp_size = 8;
        let policy = CoalescingPolicy::fss_rts(m).expect("divisor");
        let kernel = TraceKernel::new(traces.clone(), 8);
        let stats = GpuSimulator::new(gpu.clone())
            .run(&kernel, policy, seed)
            .expect("simulation");

        // Reproduce the launch's assignments: one draw per warp in order.
        let mut draw = StdRng::seed_from_u64(seed);
        let coalescer = Coalescer::new();
        let mut expected_total = 0u64;
        for trace in &traces {
            let a = policy.assignment(8, &mut draw).expect("valid");
            for instr in trace.instrs() {
                if let TraceInstr::Load { addrs, .. } = instr {
                    expected_total += coalescer.count_accesses(&a, addrs) as u64;
                }
            }
        }
        assert_eq!(stats.total_accesses, expected_total, "case {case}");
        // Tag accounting sums to the total.
        assert_eq!(
            stats.accesses_by_tag.iter().sum::<u64>(),
            stats.total_accesses
        );
        // Every warp finished within the measured kernel time.
        for &f in &stats.warp_finish_cycle {
            assert!(f <= stats.total_cycles);
        }
    }
}

#[test]
fn drawn_assignments_are_clone_equal_and_debug_stable() {
    let mut rng = StdRng::seed_from_u64(0xc10e);
    for policy in policy_pool() {
        let debug = format!("{policy:?}");
        assert!(!debug.is_empty());
        let a = policy.assignment(32, &mut rng).expect("valid");
        let b = a.clone();
        assert_eq!(a, b);
    }
}
