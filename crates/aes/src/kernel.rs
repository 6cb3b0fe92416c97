use crate::cipher::{Aes128, Block};
use crate::program::{LineLoad, TableLoad, TableProgram};
use rcoal_gpu_sim::{Kernel, WarpTrace};

/// Memory layout of the AES kernel's tables and buffers in the simulated
/// global address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableLayout {
    /// Base address of T0; T1–T4 follow at 1 KiB strides.
    pub table_base: u64,
    /// Bytes per table entry (4 for `u32` T-tables).
    pub entry_size: u64,
    /// Base address of the plaintext buffer.
    pub input_base: u64,
    /// Base address of the ciphertext buffer.
    pub output_base: u64,
}

impl Default for TableLayout {
    fn default() -> Self {
        TableLayout {
            // 256-aligned so each 1 KiB table occupies whole interleave
            // chunks, matching how cudaMalloc'd constants land.
            table_base: 0x1_0000,
            entry_size: 4,
            input_base: 0x10_0000,
            output_base: 0x20_0000,
        }
    }
}

impl TableLayout {
    /// Address of entry `index` of table `table` (0–3 = T-tables, 4 = T4).
    pub fn lookup_addr(&self, table: u8, index: u8) -> u64 {
        self.table_base + u64::from(table) * 1024 + u64::from(index) * self.entry_size
    }
}

/// Statistics tag carried by last-round (T4) loads: `ROUND_TAG_BASE + j`
/// tags the load for ciphertext byte `j`; rounds 1–9 use tags 1–9 and the
/// input load uses tag 0.
pub const LAST_ROUND_TAG_BASE: u16 = 16;

/// Tag of the ciphertext store at the very end of the kernel.
pub const OUTPUT_TAG: u16 = 15;

/// Statistics tag of round `r`'s loads (`r ∈ 1..=9`), or of the 16
/// per-byte last-round loads for `r = 10`.
pub fn round_tags(r: u16) -> std::ops::Range<u16> {
    if r == 10 {
        LAST_ROUND_TAG_BASE..LAST_ROUND_TAG_BASE + 16
    } else {
        r..r + 1
    }
}

/// The GPU AES-128 encryption kernel model.
///
/// Mirrors the CUDA implementation the paper attacks (§II-B): the
/// plaintext is split into 16-byte *lines*, one line per thread, 32
/// threads per warp, line-to-thread mapping sequential. All threads of a
/// warp run in lock step, so lookup `j` of round `r` across the warp forms
/// one warp-wide load that the coalescing unit merges.
///
/// The kernel describes its warp program once per set of lines as a
/// [`TableProgram`], whose entry indices are the cipher's own
/// [`TableLookup`](crate::TableLookup)s: [`AesGpuKernel::reload`]
/// expands it into warp traces for the cycle-level simulator, and
/// [`AesGpuKernel::load`] stops at the description for functional
/// counting.
///
/// ```
/// use rcoal_aes::AesGpuKernel;
/// use rcoal_gpu_sim::Kernel;
///
/// let kernel = AesGpuKernel::new(&[0u8; 16], vec![[0u8; 16]; 64], 32);
/// assert_eq!(kernel.num_warps(), 2);
/// assert_eq!(kernel.ciphertexts().len(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct AesGpuKernel {
    aes: Aes128,
    lines: Vec<Block>,
    ciphertexts: Vec<Block>,
    /// Rounds 1–10 of 16 lookups each: round `r < 10` reads T`j mod 4`
    /// with tag `r`, round 10 reads T4 with tag
    /// `LAST_ROUND_TAG_BASE + j`.
    program: TableProgram,
    /// Per-warp instruction traces, expanded from `program` by
    /// [`AesGpuKernel::reload`]; [`Kernel::trace`] hands out borrows so
    /// each of the hundreds of launches per experiment copies nothing.
    warp_traces: Vec<WarpTrace>,
    layout: TableLayout,
}

impl AesGpuKernel {
    /// Builds the kernel for `lines` of plaintext under `key`, encrypting
    /// each line eagerly so ciphertexts and memory traces are available
    /// up front.
    pub fn new(key: &[u8; 16], lines: Vec<Block>, warp_size: usize) -> Self {
        Self::with_layout(key, lines, warp_size, TableLayout::default())
    }

    /// Like [`AesGpuKernel::new`] with an explicit memory layout.
    pub fn with_layout(
        key: &[u8; 16],
        lines: Vec<Block>,
        warp_size: usize,
        layout: TableLayout,
    ) -> Self {
        let loads = (1..=10u16)
            .flat_map(|r| {
                (0..16u16).map(move |j| {
                    let (tag, table) = if r == 10 {
                        (LAST_ROUND_TAG_BASE + j, 4)
                    } else {
                        (r, (j % 4) as u8)
                    };
                    TableLoad {
                        tag,
                        table_base: layout.lookup_addr(table, 0),
                        entry_size: layout.entry_size,
                    }
                })
            })
            .collect();
        let program = TableProgram::new(
            LineLoad {
                tag: 0,
                base: layout.input_base,
            },
            loads,
            16,
            LineLoad {
                tag: OUTPUT_TAG,
                base: layout.output_base,
            },
            warp_size,
        );
        let mut kernel = AesGpuKernel {
            aes: Aes128::new(key),
            lines: Vec::new(),
            ciphertexts: Vec::new(),
            program,
            warp_traces: Vec::new(),
            layout,
        };
        kernel.reload(&lines);
        kernel
    }

    /// Loads new plaintext `lines` under the same key and layout into
    /// the kernel's [`TableProgram`] only: re-encrypts every line,
    /// recording its 160 lookups as the program's entry indices, and
    /// writes no warp trace. The [`Kernel`] view has no warps until the
    /// next [`AesGpuKernel::reload`]. With a line count seen before, it
    /// allocates nothing.
    pub fn load(&mut self, lines: &[Block]) {
        self.describe(lines);
        self.warp_traces.clear();
    }

    /// Rebuilds the kernel in place for new plaintext `lines` under the
    /// same key and layout: [`AesGpuKernel::load`], then the program
    /// expanded into warp traces over the old ones. The result equals a
    /// freshly built kernel; with the same line count as before, it
    /// allocates nothing.
    pub fn reload(&mut self, lines: &[Block]) {
        self.describe(lines);
        self.program.write_traces(&mut self.warp_traces);
    }

    /// Encrypts `lines` into the ciphertexts and the program's indices.
    fn describe(&mut self, lines: &[Block]) {
        self.lines.clear();
        self.lines.extend_from_slice(lines);
        self.ciphertexts.resize(lines.len(), [0; 16]);
        let rows = self.program.rows_mut(lines.len());
        for ((row, &line), ct) in rows.zip(lines).zip(&mut self.ciphertexts) {
            let mut rounds = row.as_chunks_mut::<16>().0.iter_mut();
            *ct = self.aes.encrypt_block_with(line, |lookups| {
                if let Some(round) = rounds.next() {
                    *round = lookups.map(|lookup| lookup.index);
                }
            });
        }
    }

    /// The expanded key schedule in use.
    pub fn aes(&self) -> &Aes128 {
        &self.aes
    }

    /// Ciphertext of every line, in line order.
    pub fn ciphertexts(&self) -> &[Block] {
        &self.ciphertexts
    }

    /// Plaintext lines.
    pub fn lines(&self) -> &[Block] {
        &self.lines
    }

    /// The memory layout.
    pub fn layout(&self) -> &TableLayout {
        &self.layout
    }

    /// The warp program over the current lines.
    pub fn program(&self) -> &TableProgram {
        &self.program
    }

    /// Number of threads per warp.
    pub fn warp_size(&self) -> usize {
        self.program.warp_size()
    }

    /// Global line indices handled by warp `warp_id`.
    pub fn warp_lines(&self, warp_id: usize) -> std::ops::Range<usize> {
        self.program.warp_lines(warp_id)
    }
}

impl Kernel for AesGpuKernel {
    fn num_warps(&self) -> usize {
        self.warp_traces.len()
    }

    fn warp_width(&self, warp_id: usize) -> usize {
        self.warp_lines(warp_id).len()
    }

    fn trace(&self, warp_id: usize) -> &WarpTrace {
        &self.warp_traces[warp_id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_gpu_sim::TraceInstr;

    fn kernel(n_lines: usize) -> AesGpuKernel {
        let lines: Vec<Block> = (0..n_lines)
            .map(|i| {
                let mut b = [0u8; 16];
                for (k, x) in b.iter_mut().enumerate() {
                    *x = (i * 31 + k * 7) as u8;
                }
                b
            })
            .collect();
        AesGpuKernel::new(b"rcoal-test-key!!", lines, 32)
    }

    #[test]
    fn warp_partitioning() {
        let k = kernel(100);
        assert_eq!(k.num_warps(), 4);
        assert_eq!(k.warp_width(0), 32);
        assert_eq!(k.warp_width(3), 4, "partial last warp");
        assert_eq!(k.warp_lines(3), 96..100);
    }

    #[test]
    fn ciphertexts_match_direct_encryption() {
        let k = kernel(8);
        let aes = Aes128::new(b"rcoal-test-key!!");
        for (line, ct) in k.lines().iter().zip(k.ciphertexts()) {
            assert_eq!(aes.encrypt_block(*line), *ct);
        }
    }

    #[test]
    fn trace_has_161_loads_per_warp() {
        let k = kernel(32);
        let t = k.trace(0);
        let loads = t
            .instrs()
            .iter()
            .filter(|i| matches!(i, TraceInstr::Load { .. }))
            .count();
        // 1 input + 160 table lookups + 1 output store.
        assert_eq!(loads, 162);
        let marks = t
            .instrs()
            .iter()
            .filter(|i| matches!(i, TraceInstr::RoundMark { .. }))
            .count();
        assert_eq!(marks, 10);
    }

    #[test]
    fn last_round_loads_hit_t4_with_per_byte_tags() {
        let k = kernel(32);
        let t = k.trace(0);
        let t4_lo = k.layout().lookup_addr(4, 0);
        let t4_hi = k.layout().lookup_addr(4, 255);
        let mut seen_tags = Vec::new();
        for instr in t.instrs() {
            if let TraceInstr::Load { addrs, tag } = instr {
                if *tag >= LAST_ROUND_TAG_BASE {
                    seen_tags.push(*tag);
                    for a in addrs.iter().flatten() {
                        assert!(
                            (t4_lo..=t4_hi).contains(a),
                            "last-round load outside T4: {a:#x}"
                        );
                    }
                }
            }
        }
        let expect: Vec<u16> = (0..16).map(|j| LAST_ROUND_TAG_BASE + j).collect();
        assert_eq!(seen_tags, expect);
    }

    #[test]
    fn trace_addresses_are_the_ciphers_own_lookups() {
        // Every table load of every lane addresses the entry its
        // thread's traced encryption looked up, table and index: the
        // description's static tables agree with the cipher's lookups.
        let k = kernel(40);
        for w in 0..k.num_warps() {
            let traces: Vec<_> = k.lines()[k.warp_lines(w)]
                .iter()
                .map(|&line| k.aes().encrypt_block_traced(line).1)
                .collect();
            let loads = k.trace(w).instrs().iter().filter_map(|i| match i {
                TraceInstr::Load { addrs, tag } => Some((addrs, *tag)),
                _ => None,
            });
            let table_loads: Vec<_> = loads.skip(1).take(160).collect();
            assert_eq!(table_loads.len(), 160);
            for (k_load, (addrs, tag)) in table_loads.into_iter().enumerate() {
                let (round, j) = (k_load / 16, k_load % 16);
                let want_tag = if round == 9 {
                    LAST_ROUND_TAG_BASE + j as u16
                } else {
                    round as u16 + 1
                };
                assert_eq!(tag, want_tag, "load {k_load}");
                for (lane, (addr, trace)) in addrs.iter().zip(&traces).enumerate() {
                    let lk = trace.rounds[round][j];
                    assert_eq!(
                        *addr,
                        Some(k.layout().lookup_addr(lk.table, lk.index)),
                        "warp {w} load {k_load} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn last_round_addresses_encode_t_j() {
        let k = kernel(32);
        for instr in k.trace(0).instrs() {
            if let TraceInstr::Load { addrs, tag } = instr {
                if *tag >= LAST_ROUND_TAG_BASE {
                    let j = usize::from(tag - LAST_ROUND_TAG_BASE);
                    for (lane, a) in addrs.iter().enumerate() {
                        let idx = ((a.unwrap() - k.layout().lookup_addr(4, 0)) / 4) as u8;
                        let ct = k.ciphertexts()[lane][j];
                        let key = k.aes().last_round_key()[j];
                        assert_eq!(idx, crate::last_round_index(ct, key));
                    }
                }
            }
        }
    }

    #[test]
    fn load_describes_the_lines_without_traces() {
        let mut k = kernel(64);
        let fresh = kernel(40);
        k.load(fresh.lines());
        assert_eq!(k.num_warps(), 0, "no trace is written");
        assert_eq!(k.program(), fresh.program());
        assert_eq!(k.ciphertexts(), fresh.ciphertexts());
        k.reload(fresh.lines());
        assert_eq!(k.num_warps(), 2);
        for w in 0..2 {
            assert_eq!(k.warp_width(w), fresh.warp_width(w));
            assert_eq!(k.trace(w), fresh.trace(w));
        }
    }

    #[test]
    fn round_tags_helper() {
        assert_eq!(round_tags(3), 3..4);
        assert_eq!(round_tags(10), 16..32);
    }

    #[test]
    fn partial_warp_trace_has_partial_lanes() {
        let k = kernel(40);
        let t = k.trace(1);
        if let TraceInstr::Load { addrs, .. } = &t.instrs()[0] {
            assert_eq!(addrs.len(), 8);
        } else {
            panic!("first instruction should be the input load");
        }
    }
}
