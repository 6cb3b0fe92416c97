//! Conformance for functional access counting.
//!
//! A functional launch writes no trace: it counts coalesced accesses
//! from the kernel's [`TableProgram`] ([`count_launch`]), mapping each
//! lane's table entry straight to its block. The oracle here is the
//! trace-based count that path replaced ([`trace_counts`]): walk every
//! load of a [`KernelWorkload::build_kernel`] kernel's warp traces and
//! count its addresses with [`Coalescer::count_accesses`], drawing the
//! same assignments (same launch seed, one `draw_assignments` per warp
//! in warp order, the vulnerable one for vulnerable tags).
//!
//! 1. **Launch matrix.** Every registered workload × every
//!    [`policy_pool`] policy and one selective launch × 1, 31, 32, 40
//!    and 64 lines × 32-, 64- and 128-byte blocks at 32 lanes and
//!    64-byte blocks at 16 lanes. The library counts on one kernel per
//!    workload and geometry, loaded per case as a launch worker loads
//!    it; the oracle on a fresh build of the same lines. Counting every
//!    load must give the oracle's by-byte counts, total accesses and
//!    total requests (or its error); counting the per-byte loads only
//!    must give its by-byte counts and zero totals.
//! 2. **End to end.** Per workload, a functional [`ExperimentConfig::run`]
//!    (uniform and selective) and two [`SimulatorSource`] streams must
//!    record, launch by launch, what the oracle counts on the same
//!    plaintexts and launch seeds.

use crate::report::SectionReport;
use crate::strategies::policy_pool;
use rcoal_aes::{Block, TableProgram, LAST_ROUND_TAG_BASE};
use rcoal_core::{Coalescer, CoalescingPolicy};
use rcoal_experiments::{
    count_launch, random_lines, CountedLoads, ExperimentConfig, ExperimentError, LaunchCounts,
    SimulatorSource, TimingSource,
};
use rcoal_gpu_sim::{GpuConfig, Kernel, LaunchPolicy, TraceInstr};
use rcoal_rng::{Rng, RngCore, SeedableRng, StdRng};
use rcoal_workload::KernelWorkload;

/// Line counts each kernel is loaded with, in order: one lane, a partial
/// warp, a full warp, a full and a partial warp, two full warps.
const LINES: [usize; 5] = [1, 31, 32, 40, 64];

/// `(block_size, warp_size)` of the checked GPU geometries.
const GEOMETRIES: [(u64, usize); 4] = [(32, 32), (64, 32), (128, 32), (64, 16)];

/// Launches of each end-to-end run.
const E2E_LAUNCHES: usize = 3;

/// A functional counter in the library's signature.
pub type Counter = fn(
    &TableProgram,
    LaunchPolicy,
    u64,
    &GpuConfig,
    CountedLoads,
) -> Result<LaunchCounts, ExperimentError>;

/// The oracle: one launch of `kernel` counted from its warp traces.
///
/// # Errors
///
/// [`ExperimentError::Policy`] when the policy cannot split a warp.
pub fn trace_counts(
    kernel: &dyn Kernel,
    launch: LaunchPolicy,
    launch_seed: u64,
    gpu: &GpuConfig,
) -> Result<LaunchCounts, ExperimentError> {
    let coalescer = Coalescer::with_block_size(gpu.block_size)?;
    let mut rng = StdRng::seed_from_u64(launch_seed);
    let mut counts = LaunchCounts::default();
    for w in 0..kernel.num_warps() {
        let width = kernel.warp_width(w).min(gpu.warp_size);
        let (assignment, vulnerable_assignment) = launch.draw_assignments(width, &mut rng)?;
        for instr in kernel.trace(w).instrs() {
            if let TraceInstr::Load { addrs, tag } = instr {
                let a = if launch.is_vulnerable_tag(*tag) {
                    &vulnerable_assignment
                } else {
                    &assignment
                };
                let n = coalescer.count_accesses(a, addrs) as u64;
                counts.total_accesses += n;
                counts.total_requests += addrs.iter().filter(|a| a.is_some()).count() as u64;
                if *tag >= LAST_ROUND_TAG_BASE {
                    counts.by_byte[usize::from(tag - LAST_ROUND_TAG_BASE)] += n;
                }
            }
        }
    }
    Ok(counts)
}

/// The launches of the matrix: every pool policy uniformly, and the
/// selective launch.
fn launches() -> Vec<LaunchPolicy> {
    policy_pool()
        .into_iter()
        .map(LaunchPolicy::Uniform)
        .chain(selective())
        .collect()
}

/// A selective launch with a randomized default, which draws twice per
/// warp, so a swapped draw order shows.
fn selective() -> Option<LaunchPolicy> {
    Some(LaunchPolicy::Selective {
        vulnerable: CoalescingPolicy::rss_rts(8).ok()?,
        default: CoalescingPolicy::rss(4).ok()?,
        vulnerable_tags: (LAST_ROUND_TAG_BASE, LAST_ROUND_TAG_BASE + 16),
    })
}

fn gpu(block_size: u64, warp_size: usize) -> GpuConfig {
    GpuConfig {
        block_size,
        warp_size,
        ..GpuConfig::paper()
    }
}

/// Lines `0..n` of a fresh random input.
fn random_input(rng: &mut StdRng, n: usize) -> Vec<Block> {
    (0..n)
        .map(|_| {
            let mut b = [0u8; 16];
            rng.fill(&mut b);
            b
        })
        .collect()
}

/// The by-byte-only view of a full count.
fn by_byte_only(counts: LaunchCounts) -> LaunchCounts {
    LaunchCounts {
        by_byte: counts.by_byte,
        ..LaunchCounts::default()
    }
}

/// Checks `count` against the oracle for one workload and geometry over
/// every line count and launch; returns the cases checked.
fn check_workload(
    count: Counter,
    workload: &dyn KernelWorkload,
    gpu: &GpuConfig,
    key: &[u8; 16],
    rng: &mut StdRng,
    failures: &mut Vec<String>,
) -> usize {
    let launches = launches();
    let mut reused = workload.build_kernel(key, Vec::new(), gpu.warp_size);
    let mut cases = 0;
    for n in LINES {
        let lines = random_input(rng, n);
        reused.load(&lines);
        let fresh = workload.build_kernel(key, lines, gpu.warp_size);
        let at = |what: &str| {
            format!(
                "{} at {n} lines, {}-byte blocks, {}-lane warps: {what}",
                workload.name(),
                gpu.block_size,
                gpu.warp_size
            )
        };
        if reused.attack_text() != fresh.attack_text() {
            failures.push(at("loaded attack text differs from a fresh build"));
        }
        for &launch in &launches {
            cases += 1;
            let seed = rng.next_u64();
            let want = trace_counts(&fresh, launch, seed, gpu);
            let all = count(reused.program(), launch, seed, gpu, CountedLoads::All);
            if all != want {
                failures.push(at(&format!(
                    "{launch:?} seed {seed:#x}: every load counts {all:?}, oracle {want:?}"
                )));
            }
            let by_byte = count(reused.program(), launch, seed, gpu, CountedLoads::ByByte);
            if by_byte != want.clone().map(by_byte_only) {
                failures.push(at(&format!(
                    "{launch:?} seed {seed:#x}: per-byte loads count {by_byte:?}, oracle {want:?}"
                )));
            }
        }
    }
    cases
}

/// The oracle's counts for launches `0..E2E_LAUNCHES` of `cfg`.
fn oracle_run(
    cfg: &ExperimentConfig,
    workload: &dyn KernelWorkload,
) -> Result<Vec<LaunchCounts>, ExperimentError> {
    let launch = cfg.launch.unwrap_or(LaunchPolicy::Uniform(cfg.policy));
    random_lines(E2E_LAUNCHES, cfg.lines, cfg.seed)
        .into_iter()
        .enumerate()
        .map(|(i, lines)| {
            let kernel = workload.build_kernel(&cfg.key, lines, cfg.gpu.warp_size);
            // Launch `i` of a run draws from seed `seed + 1 + i`.
            let seed = cfg.seed.wrapping_add(1 + i as u64);
            trace_counts(&kernel, launch, seed, &cfg.gpu)
        })
        .collect()
}

/// The streamed times of `source` over the run's launches.
fn stream_times(cfg: &ExperimentConfig, source: TimingSource) -> Result<Vec<f64>, String> {
    let mut stream = SimulatorSource::new(cfg.clone(), source).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    stream
        .next_batch(E2E_LAUNCHES, &mut out)
        .map_err(|e| e.to_string())?;
    Ok(out.iter().map(|s| s.time).collect())
}

/// Checks one functional configuration end to end; returns the cases.
fn check_end_to_end(
    cfg: &ExperimentConfig,
    workload: &dyn KernelWorkload,
    failures: &mut Vec<String>,
) -> usize {
    let name = format!("{} {:?} end to end", workload.name(), cfg.launch);
    let want = match oracle_run(cfg, workload) {
        Ok(want) => want,
        Err(e) => {
            failures.push(format!("{name}: oracle failed: {e}"));
            return 1;
        }
    };
    match cfg.run() {
        Ok(data) => {
            for (i, w) in want.iter().enumerate() {
                let got = LaunchCounts {
                    by_byte: data.last_round_accesses_by_byte[i],
                    total_accesses: data.total_accesses[i],
                    total_requests: data.total_requests[i],
                };
                if got != *w {
                    failures.push(format!("{name}: run() launch {i} {got:?}, oracle {w:?}"));
                }
            }
        }
        Err(e) => failures.push(format!("{name}: run() failed: {e}")),
    }
    let sums: Vec<f64> = want
        .iter()
        .map(|c| c.by_byte.iter().sum::<u64>() as f64)
        .collect();
    let byte1: Vec<f64> = want.iter().map(|c| c.by_byte[1] as f64).collect();
    for (source, expect) in [
        (TimingSource::LastRoundAccesses, sums),
        (TimingSource::ByteAccesses(1), byte1),
    ] {
        match stream_times(cfg, source) {
            Ok(got) if got == expect => {}
            Ok(got) => failures.push(format!(
                "{name}: {source:?} streams {got:?}, oracle {expect:?}"
            )),
            Err(e) => failures.push(format!("{name}: {source:?} stream failed: {e}")),
        }
    }
    E2E_LAUNCHES + 2
}

/// Runs the matrix with `count` as the library counter.
fn run_section(seed: u64, count: Counter) -> SectionReport {
    let mut section = SectionReport::new("functional counts");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf0_c0);
    let key: [u8; 16] = std::array::from_fn(|_| rng.next_u64() as u8);
    for (block_size, warp_size) in GEOMETRIES {
        let gpu = gpu(block_size, warp_size);
        for workload in rcoal_workload::registry() {
            section.cases += check_workload(
                count,
                *workload,
                &gpu,
                &key,
                &mut rng,
                &mut section.failures,
            );
        }
    }
    let end_to_end = [
        Some(LaunchPolicy::Uniform(CoalescingPolicy::Baseline)),
        CoalescingPolicy::rss_rts(8).ok().map(LaunchPolicy::Uniform),
        selective(),
    ];
    for workload in rcoal_workload::registry() {
        for &launch in end_to_end.iter().flatten() {
            let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, E2E_LAUNCHES, 40)
                .with_workload(workload.name())
                .with_launch(launch)
                .with_key(key)
                .with_seed(rng.next_u64())
                .with_threads(2)
                .functional_only();
            section.cases += check_end_to_end(&cfg, *workload, &mut section.failures);
        }
    }
    section
}

/// The functional-counts section: the library's description-based
/// counter against the trace-based oracle.
pub fn section(seed: u64) -> SectionReport {
    run_section(seed, count_launch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_counts_section_is_clean() {
        let s = section(0x5eed);
        let matrix = GEOMETRIES.len()
            * rcoal_workload::registry().len()
            * LINES.len()
            * (policy_pool().len() + 1);
        let end_to_end = rcoal_workload::registry().len() * 3 * (E2E_LAUNCHES + 2);
        assert_eq!(s.cases, matrix + end_to_end);
        assert!(s.passed(), "{:?}", s.failures);
    }

    #[test]
    fn a_counter_shifting_one_bit_too_far_fails() {
        // The check has teeth: blocks of twice the configured size merge
        // lanes the coalescer keeps apart.
        let coarse: Counter = |program, launch, seed, gpu, counted| {
            let wide = GpuConfig {
                block_size: gpu.block_size * 2,
                ..gpu.clone()
            };
            count_launch(program, launch, seed, &wide, counted)
        };
        let aes = rcoal_workload::registry()[0];
        let key = [7u8; 16];
        let mut failures = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        check_workload(coarse, aes, &gpu(64, 32), &key, &mut rng, &mut failures);
        assert!(!failures.is_empty());
        failures.clear();
        let mut rng = StdRng::seed_from_u64(3);
        check_workload(
            count_launch,
            aes,
            &gpu(64, 32),
            &key,
            &mut rng,
            &mut failures,
        );
        assert!(failures.is_empty(), "{failures:?}");
    }
}
