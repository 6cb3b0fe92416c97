//! A generic warp-program model for table-based block-cipher kernels.
//!
//! Describes the AES kernel's program shape with the same
//! [`TableProgram`] (`rcoal-aes`): one thread per line, lock-step SIMT,
//! an input load, `rounds` rounds
//! of [`LOADS_PER_ROUND`] table lookups with interleaved ALU work, and
//! an output store. The *vulnerable* round — the one whose table
//! indices are a byte-local function of attacker-observable text — is
//! round 1, tagged with the same per-byte tags
//! (`LAST_ROUND_TAG_BASE + j`) the AES kernel gives its last round, so
//! every downstream consumer (per-byte access stats, selective
//! policies, the audit) works unchanged.

use crate::WorkloadKernel;
use rcoal_aes::{Block, LineLoad, TableLoad, TableProgram, LAST_ROUND_TAG_BASE, OUTPUT_TAG};
use rcoal_gpu_sim::{Kernel, WarpTrace};

/// Table lookups per round: one per state byte of a 64-bit block.
pub const LOADS_PER_ROUND: usize = 8;

/// Base address of table 0; tables `0..8` follow at
/// `256 × entry_size` strides (matching the AES layout's table region).
pub const TABLE_BASE: u64 = 0x1_0000;

/// Base address of the input (plaintext) buffer.
pub const INPUT_BASE: u64 = 0x10_0000;

/// Base address of the output (ciphertext) buffer.
pub const OUTPUT_BASE: u64 = 0x20_0000;

/// Per-line, per-round table indices of a cipher model (see
/// [`TableKernel`]), written into the caller's one-entry-per-round
/// buffer.
type IndexFn = Box<dyn Fn(&Block, &mut [[u8; LOADS_PER_ROUND]]) + Send + Sync>;

/// A [`Kernel`] whose warp program is described from per-line,
/// per-round table-index bytes supplied by a cipher model.
///
/// Each line's first 8 bytes form its 64-bit block; `index_fn(line,
/// out)` fills `out[r]` with round `r+1`'s indices, one per state byte
/// `j`, into table `j`. Round 1 carries the per-byte vulnerable tags;
/// rounds `2..` cycle through the AES kernel's inner-round tags `1..=9`
/// so selective-policy tag ranges keep their meaning. The indices are
/// written straight into the [`TableProgram`]'s reused rows, so a
/// reload of a line count seen before allocates nothing.
pub struct TableKernel {
    lines: Vec<Block>,
    index_fn: IndexFn,
    program: TableProgram,
    warp_traces: Vec<WarpTrace>,
}

impl std::fmt::Debug for TableKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableKernel")
            .field("lines", &self.lines.len())
            .field("warp_size", &self.program.warp_size())
            .field("loads", &self.program.loads().len())
            .finish_non_exhaustive()
    }
}

impl TableKernel {
    /// Builds the kernel: `rounds` rounds of [`LOADS_PER_ROUND`] lookups
    /// into tables of `entry_size`-byte entries, and `index_fn(line,
    /// out)` filling one 8-byte index array per round.
    pub fn new(
        lines: Vec<Block>,
        warp_size: usize,
        entry_size: u64,
        rounds: usize,
        index_fn: impl Fn(&Block, &mut [[u8; LOADS_PER_ROUND]]) + Send + Sync + 'static,
    ) -> Self {
        let table_stride = 256 * entry_size;
        let loads = (1..=rounds)
            .flat_map(|r| {
                (0..LOADS_PER_ROUND).map(move |j| TableLoad {
                    // Round 1 is the vulnerable (whitened) round: per-byte
                    // tags, exactly like the AES last round. Inner rounds
                    // reuse the AES kernel's 1..=9 tag cycle.
                    tag: if r == 1 {
                        LAST_ROUND_TAG_BASE + j as u16
                    } else {
                        1 + ((r as u16 - 2) % 9)
                    },
                    table_base: TABLE_BASE + j as u64 * table_stride,
                    entry_size,
                })
            })
            .collect();
        let program = TableProgram::new(
            LineLoad {
                tag: 0,
                base: INPUT_BASE,
            },
            loads,
            LOADS_PER_ROUND,
            LineLoad {
                tag: OUTPUT_TAG,
                base: OUTPUT_BASE,
            },
            warp_size,
        );
        let mut kernel = TableKernel {
            lines: Vec::new(),
            index_fn: Box::new(index_fn),
            program,
            warp_traces: Vec::new(),
        };
        kernel.reload(&lines);
        kernel
    }

    /// Rebuilds the kernel in place for new input `lines`, rewriting the
    /// warp traces over the old ones; the result equals a fresh build.
    pub fn reload(&mut self, lines: &[Block]) {
        self.describe(lines);
        self.program.write_traces(&mut self.warp_traces);
    }

    fn describe(&mut self, lines: &[Block]) {
        self.lines.clear();
        self.lines.extend_from_slice(lines);
        for (row, line) in self.program.rows_mut(lines.len()).zip(lines) {
            (self.index_fn)(line, row.as_chunks_mut().0);
        }
    }

    /// The input lines (what the attacker observes for this kernel
    /// family: a known-plaintext first-round attack).
    pub fn lines(&self) -> &[Block] {
        &self.lines
    }
}

impl Kernel for TableKernel {
    fn num_warps(&self) -> usize {
        self.warp_traces.len()
    }

    fn warp_width(&self, warp_id: usize) -> usize {
        self.program.warp_lines(warp_id).len()
    }

    fn trace(&self, warp_id: usize) -> &WarpTrace {
        &self.warp_traces[warp_id]
    }
}

impl WorkloadKernel for TableKernel {
    fn attack_text(&self) -> &[Block] {
        &self.lines
    }

    fn load(&mut self, lines: &[Block]) {
        self.describe(lines);
        self.warp_traces.clear();
    }

    fn reload(&mut self, lines: &[Block]) {
        TableKernel::reload(self, lines);
    }

    fn program(&self) -> &TableProgram {
        &self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_gpu_sim::TraceInstr;

    fn identity_indices(line: &Block, out: &mut [[u8; 8]]) {
        for round in out {
            round.copy_from_slice(&line[..8]);
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
        let k = TableKernel::new(lines(32), 32, 8, 31, identity_indices);
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
        let k = TableKernel::new(lines(32), 32, 2, 25, identity_indices);
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
        let k = TableKernel::new(lines(32), 32, 8, 31, identity_indices);
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
        let k = TableKernel::new(lines(32), 32, 8, 3, identity_indices);
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
        let k = TableKernel::new(lines(40), 32, 4, 2, identity_indices);
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
        let l = lines(8);
        let k = TableKernel::new(l.clone(), 32, 4, 2, identity_indices);
        assert_eq!(k.attack_text(), &l[..]);
        assert_eq!(k.lines(), &l[..]);
    }
}
