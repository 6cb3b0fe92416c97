//! A generic GPU trace model for table-based block-cipher kernels.
//!
//! Mirrors the AES kernel's instruction-stream shape (`rcoal-aes`):
//! one thread per line, lock-step SIMT, an input load, `rounds` rounds
//! of [`LOADS_PER_ROUND`] table lookups with interleaved ALU work, and
//! an output store. The *vulnerable* round — the one whose table
//! indices are a byte-local function of attacker-observable text — is
//! round 1, tagged with the same per-byte tags
//! (`LAST_ROUND_TAG_BASE + j`) the AES kernel gives its last round, so
//! every downstream consumer (per-byte access stats, selective
//! policies, the audit) works unchanged.

use crate::WorkloadKernel;
use rcoal_aes::{Block, LAST_ROUND_TAG_BASE, OUTPUT_TAG};
use rcoal_gpu_sim::{Kernel, TraceInstr, WarpTrace};

/// Table lookups per round: one per state byte of a 64-bit block.
pub const LOADS_PER_ROUND: usize = 8;

/// Base address of table 0; tables `0..8` follow at
/// `256 × entry_size` strides (matching the AES layout's table region).
pub const TABLE_BASE: u64 = 0x1_0000;

/// Base address of the input (plaintext) buffer.
pub const INPUT_BASE: u64 = 0x10_0000;

/// Base address of the output (ciphertext) buffer.
pub const OUTPUT_BASE: u64 = 0x20_0000;

/// ALU cycles between dependent lookups (same as the AES kernel).
const COMPUTE_PER_LOOKUP: u32 = 2;

/// ALU cycles of key-XOR / bookkeeping per round (same as AES).
const ROUND_OVERHEAD: u32 = 8;

/// Per-line, per-round table indices of a cipher model (see
/// [`TableKernel`]).
type IndexFn = Box<dyn Fn(&Block) -> Vec<[u8; 8]> + Send + Sync>;

/// A [`Kernel`] whose per-warp traces are generated from per-line,
/// per-round table-index bytes supplied by a cipher model.
///
/// Each line's first 8 bytes form its 64-bit block; `index_fn` maps
/// that line to one `[u8; 8]` of table indices per round (entry `r`
/// indexes round `r+1`'s lookups, one per state byte `j`, into table
/// `j`). Round 1 carries the per-byte vulnerable tags; rounds `2..`
/// cycle through the AES kernel's inner-round tags `1..=9` so
/// selective-policy tag ranges keep their meaning.
pub struct TableKernel {
    lines: Vec<Block>,
    warp_size: usize,
    entry_size: u64,
    index_fn: IndexFn,
    warp_traces: Vec<WarpTrace>,
}

impl std::fmt::Debug for TableKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableKernel")
            .field("lines", &self.lines.len())
            .field("warp_size", &self.warp_size)
            .field("entry_size", &self.entry_size)
            .finish_non_exhaustive()
    }
}

impl TableKernel {
    /// Builds the kernel: `entry_size` bytes per table entry, and
    /// `index_fn(line)` returning one 8-byte index array per round.
    pub fn new(
        lines: Vec<Block>,
        warp_size: usize,
        entry_size: u64,
        index_fn: impl Fn(&Block) -> Vec<[u8; 8]> + Send + Sync + 'static,
    ) -> Self {
        let mut kernel = TableKernel {
            lines: Vec::new(),
            warp_size: warp_size.max(1),
            entry_size,
            index_fn: Box::new(index_fn),
            warp_traces: Vec::new(),
        };
        kernel.reload(&lines);
        kernel
    }

    /// Rebuilds the kernel in place for new input `lines`, rewriting the
    /// warp traces over the old ones; the result equals a fresh build.
    pub fn reload(&mut self, lines: &[Block]) {
        self.lines.clear();
        self.lines.extend_from_slice(lines);
        let round_indices: Vec<Vec<[u8; 8]>> = lines.iter().map(&self.index_fn).collect();
        let num_warps = self.num_warps();
        self.warp_traces.resize_with(num_warps, WarpTrace::default);
        for (w, trace) in self.warp_traces.iter_mut().enumerate() {
            let range = w * self.warp_size..(w * self.warp_size + self.warp_size).min(lines.len());
            write_trace(trace, range, self.entry_size, &round_indices);
        }
    }

    /// The input lines (what the attacker observes for this kernel
    /// family: a known-plaintext first-round attack).
    pub fn lines(&self) -> &[Block] {
        &self.lines
    }
}

/// The one trace writer: the warp over `lines`, written over `trace`.
fn write_trace(
    trace: &mut WarpTrace,
    lines: std::ops::Range<usize>,
    entry_size: u64,
    round_indices: &[Vec<[u8; 8]>],
) {
    let rounds = lines
        .clone()
        .next()
        .map(|l| round_indices[l].len())
        .unwrap_or(0);
    let mut w = trace.rewrite();

    // Input load: 16 B per thread, consecutive lines.
    w.load(0, lines.clone().map(|l| INPUT_BASE + l as u64 * 16));
    w.push(TraceInstr::compute(ROUND_OVERHEAD));

    let table_stride = 256 * entry_size;
    for r in 1..=rounds {
        for j in 0..LOADS_PER_ROUND {
            // Round 1 is the vulnerable (whitened) round: per-byte tags,
            // exactly like the AES last round. Inner rounds reuse the
            // AES kernel's 1..=9 tag cycle.
            let tag = if r == 1 {
                LAST_ROUND_TAG_BASE + j as u16
            } else {
                1 + ((r as u16 - 2) % 9)
            };
            w.load(
                tag,
                round_indices[lines.clone()].iter().map(|indices| {
                    let idx = u64::from(indices[r - 1][j]);
                    TABLE_BASE + j as u64 * table_stride + idx * entry_size
                }),
            );
            w.push(TraceInstr::compute(COMPUTE_PER_LOOKUP));
        }
        w.push(TraceInstr::compute(ROUND_OVERHEAD));
        w.push(TraceInstr::RoundMark { round: r as u16 });
    }

    // Output store.
    w.load(OUTPUT_TAG, lines.map(|l| OUTPUT_BASE + l as u64 * 16));
}

impl Kernel for TableKernel {
    fn num_warps(&self) -> usize {
        self.lines.len().div_ceil(self.warp_size)
    }

    fn warp_width(&self, warp_id: usize) -> usize {
        let start = warp_id * self.warp_size;
        (start + self.warp_size).min(self.lines.len()) - start.min(self.lines.len())
    }

    fn trace(&self, warp_id: usize) -> &WarpTrace {
        &self.warp_traces[warp_id]
    }
}

impl WorkloadKernel for TableKernel {
    fn attack_text(&self) -> &[Block] {
        &self.lines
    }

    fn reload(&mut self, lines: &[Block]) {
        TableKernel::reload(self, lines);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_indices(rounds: usize) -> impl Fn(&Block) -> Vec<[u8; 8]> + Send + Sync {
        move |line: &Block| {
            let mut block = [0u8; 8];
            block.copy_from_slice(&line[..8]);
            vec![block; rounds]
        }
    }

    fn lines(n: usize) -> Vec<Block> {
        (0..n)
            .map(|i| {
                let mut b = [0u8; 16];
                for (k, x) in b.iter_mut().enumerate() {
                    *x = (i * 31 + k * 7) as u8;
                }
                b
            })
            .collect()
    }

    #[test]
    fn trace_shape_mirrors_aes() {
        let f = identity_indices(31);
        let k = TableKernel::new(lines(32), 32, 8, f);
        let t = k.trace(0);
        let loads = t
            .instrs()
            .iter()
            .filter(|i| matches!(i, TraceInstr::Load { .. }))
            .count();
        // 1 input + 31 × 8 lookups + 1 output.
        assert_eq!(loads, 250);
        let marks: Vec<u16> = t
            .instrs()
            .iter()
            .filter_map(|i| match i {
                TraceInstr::RoundMark { round } => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(marks, (1..=31).collect::<Vec<_>>());
    }

    #[test]
    fn round_one_carries_per_byte_vulnerable_tags() {
        let f = identity_indices(25);
        let k = TableKernel::new(lines(32), 32, 2, f);
        let tags: Vec<u16> = k
            .trace(0)
            .instrs()
            .iter()
            .filter_map(|i| match i {
                TraceInstr::Load { tag, .. } if *tag >= LAST_ROUND_TAG_BASE => Some(*tag),
                _ => None,
            })
            .collect();
        let expect: Vec<u16> = (0..8).map(|j| LAST_ROUND_TAG_BASE + j).collect();
        assert_eq!(tags, expect, "only round 1 is vulnerable");
    }

    #[test]
    fn inner_round_tags_stay_in_the_aes_cycle() {
        let f = identity_indices(31);
        let k = TableKernel::new(lines(32), 32, 8, f);
        for instr in k.trace(0).instrs() {
            if let TraceInstr::Load { tag, .. } = instr {
                assert!(
                    *tag == 0
                        || *tag == OUTPUT_TAG
                        || (1..=9).contains(tag)
                        || (LAST_ROUND_TAG_BASE..LAST_ROUND_TAG_BASE + 8).contains(tag),
                    "tag {tag} outside the AES tag vocabulary"
                );
            }
        }
    }

    #[test]
    fn addresses_land_in_per_byte_tables() {
        let f = identity_indices(3);
        let k = TableKernel::new(lines(32), 32, 8, f);
        for instr in k.trace(0).instrs() {
            if let TraceInstr::Load { addrs, tag } = instr {
                if *tag >= LAST_ROUND_TAG_BASE {
                    let j = u64::from(tag - LAST_ROUND_TAG_BASE);
                    let lo = TABLE_BASE + j * 2048;
                    for a in addrs.iter().flatten() {
                        assert!((lo..lo + 2048).contains(a), "addr {a:#x} outside table {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn partial_warps_partition_like_aes() {
        let f = identity_indices(2);
        let k = TableKernel::new(lines(40), 32, 4, f);
        assert_eq!(k.num_warps(), 2);
        assert_eq!(k.warp_width(0), 32);
        assert_eq!(k.warp_width(1), 8);
        if let TraceInstr::Load { addrs, .. } = &k.trace(1).instrs()[0] {
            assert_eq!(addrs.len(), 8);
        } else {
            panic!("first instruction should be the input load");
        }
    }

    #[test]
    fn attack_text_is_the_plaintext_lines() {
        let f = identity_indices(2);
        let l = lines(8);
        let k = TableKernel::new(l.clone(), 32, 4, f);
        assert_eq!(k.attack_text(), &l[..]);
        assert_eq!(k.lines(), &l[..]);
    }
}
