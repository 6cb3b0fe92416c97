//! Conformance for allocation-free sample generation.
//!
//! Streamed generation keeps one kernel per launch worker and reloads it
//! for every launch, and subwarp assignments are drawn into fixed-size
//! stack buffers. Neither may change a single output bit, so this
//! section pins both to what they replaced:
//!
//! 1. **Kernel reuse.** For every registered workload, one kernel built
//!    empty (as a launch worker builds it) is reloaded through line
//!    counts 32 → 40 → 32 → 64 (full warps, a partial second warp, and
//!    back). After each reload it must equal a fresh
//!    [`rcoal_workload::KernelWorkload::build_kernel`] on the same lines: the same
//!    warps, the same trace instruction for instruction, and the same
//!    attack text.
//! 2. **Subwarp draws.** [`reference_assignment`] keeps the heap-based
//!    draws (`Vec` gaps, cuts, sizes and permutation) as the oracle.
//!    For every [`policy_pool`] policy × warp widths `1..=64` × several
//!    seeds, [`CoalescingPolicy::assignment`] must give the same subwarp
//!    ids (or the same error) over consecutive draws, and leave the RNG
//!    in the same state: the next `next_u64()` must agree.
//! 3. **The victim cipher.** Kernel reuse compares the kernel only with
//!    itself, so a wrong per-line fill would pass it. For several seeded
//!    keys × line counts 1, 31, 32, 40 and 64, a fresh
//!    [`TableKernel::aes`] must show the ciphertext
//!    [`Aes128::encrypt_block_traced`] (the T-table reference) computes
//!    for every line, and its program row must hold the 160 indices of
//!    that line's traced lookups, round by round. The kernel runs
//!    whichever fill the CPU selects (AES-NI or T-table).

use crate::report::SectionReport;
use crate::strategies::policy_pool;
use rcoal_aes::{Aes128, Block, TableKernel, TableProgram};
use rcoal_core::{CoalescingPolicy, PolicyError, SizeDistribution, MAX_LANES};
use rcoal_gpu_sim::Kernel;
use rcoal_rng::seq::SliceRandom;
use rcoal_rng::{Rng, RngCore, SeedableRng, StdRng};

/// Line counts one reused kernel is reloaded through, in order.
const RELOAD_LINES: [usize; 4] = [32, 40, 32, 64];

/// Line counts of the victim-cipher cases: one line, a short warp, a
/// full warp, a partial second warp and two full warps.
const CIPHER_LINES: [usize; 5] = [1, 31, 32, 40, 64];

/// Seeded keys of the victim-cipher cases.
const CIPHER_KEYS: usize = 4;

/// Consecutive draws per (policy, width, seed) case.
const DRAWS_PER_CASE: usize = 4;

/// Seeds per (policy, width) pair.
const SEEDS: u64 = 3;

/// One drawn assignment as `(sid per lane, subwarp count)`.
pub type Sids = (Vec<u8>, usize);

/// The reference draw of `policy` over a `width`-lane warp: the sizes
/// and the lane permutation are drawn into heap `Vec`s (the simplest
/// form of each draw), and the subwarp ids are laid out from them
/// directly rather than through `SubwarpAssignment`'s constructors.
///
/// # Errors
///
/// The [`PolicyError`] the policy returns for this width.
pub fn reference_assignment(
    policy: CoalescingPolicy,
    width: usize,
    rng: &mut StdRng,
) -> Result<Sids, PolicyError> {
    if width == 0 {
        return Err(PolicyError::EmptyWarp);
    }
    let (sizes, perm) = match policy {
        CoalescingPolicy::Baseline => (vec![width], None),
        CoalescingPolicy::Disabled => (vec![1; width], None),
        CoalescingPolicy::Fss { num_subwarps } => (fixed_sizes(width, num_subwarps.get())?, None),
        CoalescingPolicy::Rss { num_subwarps, dist } => {
            (random_sizes(width, num_subwarps.get(), dist, rng)?, None)
        }
        CoalescingPolicy::FssRts { num_subwarps } => {
            let sizes = fixed_sizes(width, num_subwarps.get())?;
            (sizes, Some(random_permutation(width, rng)))
        }
        CoalescingPolicy::RssRts { num_subwarps, dist } => {
            let sizes = random_sizes(width, num_subwarps.get(), dist, rng)?;
            (sizes, Some(random_permutation(width, rng)))
        }
    };
    let mut sid = vec![0u8; width];
    let mut slot = 0;
    for (s, &size) in sizes.iter().enumerate() {
        for _ in 0..size {
            let lane = perm.as_ref().map_or(slot, |p| p[slot]);
            sid[lane] = s as u8;
            slot += 1;
        }
    }
    Ok((sid, sizes.len()))
}

fn fixed_sizes(width: usize, m: usize) -> Result<Vec<usize>, PolicyError> {
    if m > width {
        return Err(PolicyError::OutOfRange {
            num_subwarps: m,
            warp_size: width,
        });
    }
    if !width.is_multiple_of(m) {
        return Err(PolicyError::NotADivisor {
            num_subwarps: m,
            warp_size: width,
        });
    }
    Ok(vec![width / m; m])
}

fn random_sizes(
    width: usize,
    m: usize,
    dist: SizeDistribution,
    rng: &mut StdRng,
) -> Result<Vec<usize>, PolicyError> {
    if m == 0 || m > width {
        return Err(PolicyError::OutOfRange {
            num_subwarps: m,
            warp_size: width,
        });
    }
    Ok(match dist {
        SizeDistribution::Skewed => skewed_sizes(width, m, rng),
        SizeDistribution::Normal => normal_sizes(width, m, rng),
    })
}

/// Stars and bars: shuffle the `n - 1` gaps, cut at the first `m - 1`.
fn skewed_sizes(n: usize, m: usize, rng: &mut StdRng) -> Vec<usize> {
    if m == 1 {
        return vec![n];
    }
    let mut gaps: Vec<usize> = (1..n).collect();
    gaps.shuffle(rng);
    let mut cuts: Vec<usize> = gaps[..m - 1].to_vec();
    cuts.sort_unstable();
    let mut sizes = Vec::with_capacity(m);
    let mut prev = 0;
    for c in cuts {
        sizes.push(c - prev);
        prev = c;
    }
    sizes.push(n - prev);
    sizes
}

/// Box–Muller sizes around the mean, then a one-thread-at-a-time repair.
fn normal_sizes(n: usize, m: usize, rng: &mut StdRng) -> Vec<usize> {
    if m == 1 {
        return vec![n];
    }
    let mean = n as f64 / m as f64;
    let sigma = (mean / rcoal_core::NORMAL_SIGMA_DIVISOR).max(0.25);
    let mut sizes: Vec<usize> = (0..m)
        .map(|_| {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0f64..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            ((mean + sigma * z).round() as i64).max(1) as usize
        })
        .collect();
    loop {
        let total: usize = sizes.iter().sum();
        match total.cmp(&n) {
            std::cmp::Ordering::Equal => break,
            std::cmp::Ordering::Less => {
                let i = rng.gen_range(0..m);
                sizes[i] += 1;
            }
            std::cmp::Ordering::Greater => {
                let candidates: Vec<usize> = (0..m).filter(|&i| sizes[i] > 1).collect();
                let i = candidates[rng.gen_range(0..candidates.len())];
                sizes[i] -= 1;
            }
        }
    }
    sizes
}

fn random_permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    perm
}

/// The library draw in the oracle's terms.
fn library_assignment(
    policy: CoalescingPolicy,
    width: usize,
    rng: &mut StdRng,
) -> Result<Sids, PolicyError> {
    policy
        .assignment(width, rng)
        .map(|a| (a.iter().map(|(_, sid)| sid).collect(), a.num_subwarps()))
}

/// Compares `draw` against [`reference_assignment`] for one policy,
/// width and seed over [`DRAWS_PER_CASE`] consecutive draws, then on the
/// next `next_u64()`. Returns the first mismatch.
fn check_draws(
    draw: impl Fn(CoalescingPolicy, usize, &mut StdRng) -> Result<Sids, PolicyError>,
    policy: CoalescingPolicy,
    width: usize,
    seed: u64,
) -> Option<String> {
    let mut got_rng = StdRng::seed_from_u64(seed);
    let mut want_rng = StdRng::seed_from_u64(seed);
    for k in 0..DRAWS_PER_CASE {
        let got = draw(policy, width, &mut got_rng);
        let want = reference_assignment(policy, width, &mut want_rng);
        if got != want {
            return Some(format!("draw {k}: got {got:?}, reference {want:?}"));
        }
    }
    let (got, want) = (got_rng.next_u64(), want_rng.next_u64());
    (got != want).then(|| format!("RNG state differs after the draws: {got:#x} vs {want:#x}"))
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

/// Where `reused` differs from `fresh`, if anywhere.
fn kernel_difference(reused: &TableKernel, fresh: &TableKernel) -> Option<String> {
    if reused.num_warps() != fresh.num_warps() {
        return Some(format!(
            "{} warps, fresh build has {}",
            reused.num_warps(),
            fresh.num_warps()
        ));
    }
    if reused.attack_text() != fresh.attack_text() {
        return Some("attack text differs".into());
    }
    for w in 0..fresh.num_warps() {
        if reused.warp_width(w) != fresh.warp_width(w) {
            return Some(format!("warp {w} width differs"));
        }
        let (got, want) = (reused.trace(w).instrs(), fresh.trace(w).instrs());
        if got.len() != want.len() {
            return Some(format!(
                "warp {w}: {} instructions, fresh build has {}",
                got.len(),
                want.len()
            ));
        }
        if let Some(k) = got.iter().zip(want).position(|(a, b)| a != b) {
            return Some(format!(
                "warp {w} instruction {k}: {:?} vs {:?}",
                got[k], want[k]
            ));
        }
    }
    None
}

/// Where an AES kernel's `program` rows or `attack_text` differ from
/// the T-table reference `aes` on `lines`, if anywhere.
fn cipher_difference(
    program: &TableProgram,
    attack_text: &[Block],
    aes: &Aes128,
    lines: &[Block],
) -> Option<String> {
    if attack_text.len() != lines.len() {
        return Some(format!(
            "{} attack lines for {} input lines",
            attack_text.len(),
            lines.len()
        ));
    }
    for (l, (line, text)) in lines.iter().zip(attack_text).enumerate() {
        let (ct, trace) = aes.encrypt_block_traced(*line);
        if *text != ct {
            return Some(format!(
                "line {l}: ciphertext {text:02x?}, reference {ct:02x?}"
            ));
        }
        let lookups = trace.rounds.iter().flatten();
        if let Some((k, lookup)) = lookups
            .enumerate()
            .find(|&(k, lookup)| program.index(l, k) != lookup.index)
        {
            return Some(format!(
                "line {l} round {} lookup {}: index {}, reference {}",
                k / 16 + 1,
                k % 16,
                program.index(l, k),
                lookup.index
            ));
        }
    }
    None
}

/// The generation-reuse section: kernel reloads against fresh builds,
/// inline subwarp draws against the heap-based oracle, and the AES
/// kernel's fill against the T-table reference.
pub fn section(seed: u64) -> SectionReport {
    let mut section = SectionReport::new("generation reuse");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e1f);
    let key: [u8; 16] = std::array::from_fn(|_| rng.next_u64() as u8);
    for workload in rcoal_workload::registry() {
        let mut reused = workload.build_kernel(&key, Vec::new(), 32);
        for n in RELOAD_LINES {
            section.cases += 1;
            let lines = random_input(&mut rng, n);
            reused.reload(&lines);
            let fresh = workload.build_kernel(&key, lines, 32);
            if let Some(diff) = kernel_difference(&reused, &fresh) {
                section
                    .failures
                    .push(format!("{} reloaded to {n} lines: {diff}", workload.name()));
            }
        }
    }
    for policy in policy_pool() {
        for width in 1..=MAX_LANES {
            for _ in 0..SEEDS {
                section.cases += 1;
                let case_seed = rng.next_u64();
                if let Some(f) = check_draws(library_assignment, policy, width, case_seed) {
                    section.failures.push(format!(
                        "{policy} at width {width}, seed {case_seed:#x}: {f}"
                    ));
                }
            }
        }
    }
    for _ in 0..CIPHER_KEYS {
        let key: [u8; 16] = std::array::from_fn(|_| rng.next_u64() as u8);
        let aes = Aes128::new(&key);
        for n in CIPHER_LINES {
            section.cases += 1;
            let lines = random_input(&mut rng, n);
            let kernel = TableKernel::aes(&key, &lines, 32);
            if let Some(diff) =
                cipher_difference(kernel.program(), kernel.attack_text(), &aes, &lines)
            {
                section
                    .failures
                    .push(format!("aes kernel on {n} lines, key {key:02x?}: {diff}"));
            }
        }
    }
    section
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_section_is_clean() {
        let s = section(0x5eed);
        let draws = policy_pool().len() * MAX_LANES * SEEDS as usize;
        let reloads = rcoal_workload::registry().len() * RELOAD_LINES.len();
        let ciphers = CIPHER_KEYS * CIPHER_LINES.len();
        assert_eq!(s.cases, reloads + ciphers + draws);
        assert!(s.passed(), "{:?}", s.failures);
    }

    #[test]
    fn cipher_check_flags_a_wrong_index_and_a_wrong_ciphertext() {
        let key = *b"rcoal-test-key!!";
        let lines = random_input(&mut StdRng::seed_from_u64(3), 40);
        let kernel = TableKernel::aes(&key, &lines, 32);
        let aes = Aes128::new(&key);
        let (program, text) = (kernel.program(), kernel.attack_text());
        assert_eq!(cipher_difference(program, text, &aes, &lines), None);

        let mut wrong_index = program.clone();
        wrong_index.rows_mut(40).nth(33).unwrap()[150] ^= 1;
        let diff = cipher_difference(&wrong_index, text, &aes, &lines).unwrap();
        assert!(diff.starts_with("line 33 round 10 lookup 6"), "{diff}");

        let mut wrong_text = text.to_vec();
        wrong_text[5][0] ^= 1;
        let diff = cipher_difference(program, &wrong_text, &aes, &lines).unwrap();
        assert!(diff.starts_with("line 5: ciphertext"), "{diff}");
    }

    #[test]
    fn draw_check_flags_a_shuffle_over_all_n_gaps() {
        // The check has teeth: drawing the cuts from a shuffle of n
        // (not n - 1) slots consumes one more RNG word per draw.
        let mutated = |policy: CoalescingPolicy, width: usize, rng: &mut StdRng| {
            let CoalescingPolicy::Rss { num_subwarps, .. } = policy else {
                return library_assignment(policy, width, rng);
            };
            let m = num_subwarps.get();
            let mut slots: Vec<usize> = (1..=width).collect();
            slots.shuffle(rng);
            let mut cuts = slots[..m - 1].to_vec();
            cuts.sort_unstable();
            let mut sid = vec![0u8; width];
            for (lane, s) in sid.iter_mut().enumerate() {
                *s = cuts.iter().filter(|&&c| c <= lane).count() as u8;
            }
            Ok((sid, m))
        };
        let rss = CoalescingPolicy::rss(4).unwrap();
        assert!(check_draws(mutated, rss, 32, 9).is_some());
        assert!(check_draws(library_assignment, rss, 32, 9).is_none());
    }

    #[test]
    fn reference_rejects_what_the_library_rejects() {
        let mut rng = StdRng::seed_from_u64(1);
        let fss8 = CoalescingPolicy::fss(8).unwrap();
        assert_eq!(
            reference_assignment(fss8, 12, &mut rng),
            library_assignment(fss8, 12, &mut StdRng::seed_from_u64(1))
        );
        assert!(reference_assignment(fss8, 12, &mut rng).is_err());
    }
}
