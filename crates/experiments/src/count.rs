//! Functional (cycle-free) access counting from a kernel's
//! [`TableProgram`].
//!
//! A functional launch never builds an address: each lane's table entry
//! maps to its coalescing block by
//! `(table_base + index × entry_size) >> log2(block_size)`, each line
//! load's lane by its line address, and [`count_block_accesses`] counts
//! the distinct `(subwarp, block)` pairs. The indices come from the
//! cipher's own lookups (see [`rcoal_aes::TableKernel::load`]),
//! never from the attacker's oracle, so a bug in one cannot hide in the
//! other.

use crate::error::ExperimentError;
use rcoal_aes::{TableProgram, LAST_ROUND_TAG_BASE};
use rcoal_core::count_block_accesses;
use rcoal_gpu_sim::{GpuConfig, LaunchPolicy};
use rcoal_rng::{SeedableRng, StdRng};

/// Which loads a functional launch counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountedLoads {
    /// Every load: the per-byte counts and the launch totals, as
    /// [`crate::ExperimentConfig::run`] records them.
    All,
    /// Only the per-byte loads (tags `LAST_ROUND_TAG_BASE..+16`): all a
    /// streamed [`crate::TimingSource`] reads. The totals stay 0.
    ByByte,
}

/// The coalesced-access counts of one launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaunchCounts {
    /// Accesses of the load tagged `LAST_ROUND_TAG_BASE + j`, at `[j]`.
    pub by_byte: [u64; 16],
    /// Coalesced accesses of every load.
    pub total_accesses: u64,
    /// Pre-coalescing lane requests of every load.
    pub total_requests: u64,
}

/// Counts one launch of `program` without the cycle model.
///
/// Draws the per-warp subwarp assignments exactly as the simulator
/// does: one [`LaunchPolicy::draw_assignments`] per warp, in warp order,
/// from a generator seeded with `launch_seed`, whatever `counted`
/// skips; each load takes the vulnerable assignment when
/// [`LaunchPolicy::is_vulnerable_tag`] holds for its tag. Blocks are
/// `gpu.block_size` bytes and warps at most `gpu.warp_size` lanes.
///
/// # Errors
///
/// [`ExperimentError::Policy`] when the policy cannot split a warp.
pub fn count_launch(
    program: &TableProgram,
    launch: LaunchPolicy,
    launch_seed: u64,
    gpu: &GpuConfig,
    counted: CountedLoads,
) -> Result<LaunchCounts, ExperimentError> {
    let shift = gpu.block_size.trailing_zeros();
    let all = counted == CountedLoads::All;
    let mut rng = StdRng::seed_from_u64(launch_seed);
    let mut counts = LaunchCounts::default();
    for w in 0..program.num_warps() {
        let first = program.warp_lines(w).start;
        let width = program.warp_lines(w).len().min(gpu.warp_size);
        let (assignment, vulnerable) = launch.draw_assignments(width, &mut rng)?;
        let assignment_for = |tag| {
            if launch.is_vulnerable_tag(tag) {
                &vulnerable
            } else {
                &assignment
            }
        };
        for (k, load) in program.loads().iter().enumerate() {
            let byte = usize::from(load.tag)
                .checked_sub(usize::from(LAST_ROUND_TAG_BASE))
                .filter(|&j| j < counts.by_byte.len());
            if !all && byte.is_none() {
                continue;
            }
            let n = count_block_accesses(assignment_for(load.tag), |lane| {
                Some(load.addr(program.index(first + lane, k)) >> shift)
            }) as u64;
            if let Some(j) = byte {
                counts.by_byte[j] += n;
            }
            if all {
                counts.total_accesses += n;
            }
        }
        if all {
            for line_load in [program.input(), program.output()] {
                counts.total_accesses +=
                    count_block_accesses(assignment_for(line_load.tag), |lane| {
                        Some(line_load.addr(first + lane) >> shift)
                    }) as u64;
            }
            counts.total_requests += (program.loads().len() as u64 + 2) * width as u64;
        }
    }
    Ok(counts)
}
