use crate::cipher::{Aes128, Block};
use crate::program::{LineLoad, TableLoad, TableProgram};
use rcoal_gpu_sim::{Kernel, WarpTrace};

/// Base address of table 0; table `t` of `e`-byte entries starts at
/// `TABLE_BASE + 256 · e · t`. 256-aligned so each table occupies whole
/// interleave chunks, matching how cudaMalloc'd constants land.
const TABLE_BASE: u64 = 0x1_0000;

/// Base address of the input buffer.
const INPUT_BASE: u64 = 0x10_0000;

/// Base address of the output buffer.
const OUTPUT_BASE: u64 = 0x20_0000;

/// Statistics tag carried by the per-byte loads: `LAST_ROUND_TAG_BASE + j`
/// tags the load of byte `j` in the vulnerable round (AES's last, a
/// first-round kernel's first); the other rounds use tags 1–9 and the
/// input load uses tag 0.
pub const LAST_ROUND_TAG_BASE: u16 = 16;

/// Tag of the output store at the very end of the kernel.
pub const OUTPUT_TAG: u16 = 15;

/// Writes a line's entry indices into its program row and returns the
/// line the attacker sees.
type Fill = Box<dyn Fn(&Block, &mut [u8]) -> Block + Send + Sync>;

/// The table-based GPU kernel the paper attacks (§II-B), for every
/// registered workload.
///
/// One thread per 16-byte line, warps in lock step, so lookup `j` of
/// round `r` across a warp forms one warp-wide load that the coalescing
/// unit merges. The kernel holds its [`TableProgram`], the warp traces
/// the program expands to, the attack text, and one per-line fill that
/// writes the line's entry indices from the cipher's own state and
/// returns the line the attacker sees. [`TableKernel::reload`] expands
/// the program into traces for the cycle-level simulator;
/// [`TableKernel::load`] stops at the description for functional
/// counting.
///
/// ```
/// use rcoal_aes::TableKernel;
/// use rcoal_gpu_sim::Kernel;
///
/// let kernel = TableKernel::aes(&[0u8; 16], &[[0u8; 16]; 64], 32);
/// assert_eq!(kernel.num_warps(), 2);
/// assert_eq!(kernel.attack_text().len(), 64);
/// ```
pub struct TableKernel {
    program: TableProgram,
    /// Expanded from `program` by [`TableKernel::reload`];
    /// [`Kernel::trace`] hands out borrows so each of the hundreds of
    /// launches per experiment copies nothing.
    warp_traces: Vec<WarpTrace>,
    attack_text: Vec<Block>,
    fill: Fill,
}

impl std::fmt::Debug for TableKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableKernel")
            .field("lines", &self.attack_text.len())
            .field("warp_size", &self.program.warp_size())
            .field("loads", &self.program.loads().len())
            .finish_non_exhaustive()
    }
}

impl TableKernel {
    /// The AES-128 encryption kernel for `lines` of plaintext under
    /// `key`: rounds 1–9 read T`j mod 4` with tag `r`, round 10 reads T4
    /// with tag `LAST_ROUND_TAG_BASE + j`, and the attack text is the
    /// ciphertext.
    ///
    /// The fill is chosen once, here: AES-NI when the CPU reports `aes`
    /// and `ssse3`, the T-table core otherwise. Both write the same
    /// indices, because round `r`'s row is `ShiftRows` of the state
    /// entering round `r`.
    pub fn aes(key: &[u8; 16], lines: &[Block], warp_size: usize) -> Self {
        let loads = (1..=10u16).flat_map(|r| {
            (0..16u16).map(move |j| {
                if r == 10 {
                    (LAST_ROUND_TAG_BASE + j, 4)
                } else {
                    (r, j % 4)
                }
            })
        });
        Self::build(loads, 16, 4, warp_size, lines, aes_fill(Aes128::new(key)))
    }

    /// A 64-bit-block kernel attacked in its first round: `rounds`
    /// rounds of eight lookups, lookup `j` into table `j` of
    /// `entry_size`-byte entries, and `fill(line, out)` writing round
    /// `r + 1`'s indices to `out[r]`. Round 1 carries the per-byte tags;
    /// rounds `2..` cycle through the AES inner-round tags `1..=9` so
    /// selective-policy tag ranges keep their meaning. The attack text is
    /// the input line (a known-plaintext attack).
    pub fn first_round(
        lines: &[Block],
        warp_size: usize,
        entry_size: u64,
        rounds: usize,
        fill: impl Fn(&Block, &mut [[u8; 8]]) + Send + Sync + 'static,
    ) -> Self {
        let loads = (1..=rounds).flat_map(|r| {
            (0..8u16).map(move |j| {
                let tag = if r == 1 {
                    LAST_ROUND_TAG_BASE + j
                } else {
                    1 + ((r - 2) % 9) as u16
                };
                (tag, j)
            })
        });
        let fill = move |line: &Block, row: &mut [u8]| {
            fill(line, row.as_chunks_mut().0);
            *line
        };
        Self::build(loads, 8, entry_size, warp_size, lines, Box::new(fill))
    }

    /// The kernel of `(tag, table)` loads in rounds of
    /// `loads_per_round`, described for `lines`.
    fn build(
        loads: impl Iterator<Item = (u16, u16)>,
        loads_per_round: usize,
        entry_size: u64,
        warp_size: usize,
        lines: &[Block],
        fill: Fill,
    ) -> Self {
        let loads = loads
            .map(|(tag, table)| TableLoad {
                tag,
                table_base: TABLE_BASE + u64::from(table) * 256 * entry_size,
                entry_size,
            })
            .collect();
        let program = TableProgram::new(
            LineLoad {
                tag: 0,
                base: INPUT_BASE,
            },
            loads,
            loads_per_round,
            LineLoad {
                tag: OUTPUT_TAG,
                base: OUTPUT_BASE,
            },
            warp_size,
        );
        let mut kernel = TableKernel {
            program,
            warp_traces: Vec::new(),
            attack_text: Vec::new(),
            fill,
        };
        kernel.reload(lines);
        kernel
    }

    /// Loads new input `lines` under the same key and warp size into the
    /// kernel's [`TableProgram`] only: the attack text and every lane's
    /// entry indices. No warp trace is written, and the [`Kernel`] view
    /// has no warps until the next [`TableKernel::reload`]; a functional
    /// launch counts from [`TableKernel::program`] alone. With a line
    /// count seen before, it allocates nothing.
    pub fn load(&mut self, lines: &[Block]) {
        self.describe(lines);
        self.warp_traces.clear();
    }

    /// Rebuilds the kernel in place for new input `lines`:
    /// [`TableKernel::load`], then the program expanded into warp traces
    /// over the old ones. The result equals a fresh build on `lines` at
    /// any line count; with the same count as before, it allocates
    /// nothing.
    pub fn reload(&mut self, lines: &[Block]) {
        self.describe(lines);
        self.program.write_traces(&mut self.warp_traces);
    }

    fn describe(&mut self, lines: &[Block]) {
        self.attack_text.resize(lines.len(), [0; 16]);
        let rows = self.program.rows_mut(lines.len());
        for ((row, line), text) in rows.zip(lines).zip(&mut self.attack_text) {
            *text = (self.fill)(line, row);
        }
    }

    /// Attacker-observable lines, one per thread: ciphertexts for AES's
    /// last-round attack, the input lines for a first-round kernel.
    pub fn attack_text(&self) -> &[Block] {
        &self.attack_text
    }

    /// The warp program over the current lines.
    pub fn program(&self) -> &TableProgram {
        &self.program
    }
}

/// The AES kernel's per-line fill: AES-NI when the CPU has it, the
/// T-table core otherwise.
fn aes_fill(aes: Aes128) -> Fill {
    #[cfg(target_arch = "x86_64")]
    if let Some(aes_ni) = aes.aes_ni() {
        return Box::new(move |line, row| aes_ni.encrypt_indexed(line, row.as_chunks_mut().0));
    }
    Box::new(move |line, row| aes.encrypt_indexed(line, row.as_chunks_mut().0))
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

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_gpu_sim::TraceInstr;

    const KEY: &[u8; 16] = b"rcoal-test-key!!";

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

    fn aes(n: usize) -> TableKernel {
        TableKernel::aes(KEY, &lines(n), 32)
    }

    fn identity_indices(line: &Block, out: &mut [[u8; 8]]) {
        for round in out {
            round.copy_from_slice(&line[..8]);
        }
    }

    /// Address of entry `index` of AES table `table` (0–3 = T-tables,
    /// 4 = T4).
    fn aes_addr(table: u8, index: u8) -> u64 {
        TABLE_BASE + u64::from(table) * 1024 + u64::from(index) * 4
    }

    fn loads(trace: &WarpTrace) -> impl Iterator<Item = (&Vec<Option<u64>>, u16)> {
        trace.instrs().iter().filter_map(|i| match i {
            TraceInstr::Load { addrs, tag } => Some((addrs, *tag)),
            _ => None,
        })
    }

    fn round_marks(trace: &WarpTrace) -> Vec<u16> {
        trace
            .instrs()
            .iter()
            .filter_map(|i| match i {
                TraceInstr::RoundMark { round } => Some(*round),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn warps_partition_the_lines() {
        for k in [
            aes(100),
            TableKernel::first_round(&lines(100), 32, 4, 2, identity_indices),
        ] {
            assert_eq!(k.num_warps(), 4);
            assert_eq!(k.warp_width(0), 32);
            assert_eq!(k.warp_width(3), 4, "partial last warp");
            assert_eq!(k.program().warp_lines(3), 96..100);
            let (input, _) = loads(k.trace(3)).next().unwrap();
            assert_eq!(input.len(), 4);
        }
    }

    #[test]
    fn aes_attack_text_is_the_ciphertext() {
        let k = aes(8);
        let aes = Aes128::new(KEY);
        for (line, ct) in lines(8).iter().zip(k.attack_text()) {
            assert_eq!(aes.encrypt_block(*line), *ct);
        }
    }

    #[test]
    fn aes_trace_has_162_loads_and_10_rounds_per_warp() {
        let k = aes(32);
        // 1 input + 160 table lookups + 1 output store.
        assert_eq!(loads(k.trace(0)).count(), 162);
        assert_eq!(round_marks(k.trace(0)), (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn aes_last_round_loads_hit_t4_with_per_byte_tags() {
        let k = aes(32);
        let t4 = aes_addr(4, 0)..=aes_addr(4, 255);
        let mut seen_tags = Vec::new();
        for (addrs, tag) in loads(k.trace(0)).filter(|&(_, t)| t >= LAST_ROUND_TAG_BASE) {
            seen_tags.push(tag);
            for a in addrs.iter().flatten() {
                assert!(t4.contains(a), "last-round load outside T4: {a:#x}");
            }
        }
        let expect: Vec<u16> = (0..16).map(|j| LAST_ROUND_TAG_BASE + j).collect();
        assert_eq!(seen_tags, expect);
    }

    #[test]
    fn aes_trace_addresses_are_the_ciphers_own_lookups() {
        // Every table load of every lane addresses the entry its
        // thread's traced encryption looked up, table and index: the
        // description's static tables agree with the cipher's lookups.
        let (l, k) = (lines(40), aes(40));
        let aes = Aes128::new(KEY);
        for w in 0..k.num_warps() {
            let traces: Vec<_> = l[k.program().warp_lines(w)]
                .iter()
                .map(|&line| aes.encrypt_block_traced(line).1)
                .collect();
            let table_loads: Vec<_> = loads(k.trace(w)).skip(1).take(160).collect();
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
                        Some(aes_addr(lk.table, lk.index)),
                        "warp {w} load {k_load} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn aes_last_round_addresses_encode_t_j() {
        let k = aes(32);
        let key = Aes128::new(KEY).last_round_key();
        for (addrs, tag) in loads(k.trace(0)).filter(|&(_, t)| t >= LAST_ROUND_TAG_BASE) {
            let j = usize::from(tag - LAST_ROUND_TAG_BASE);
            for (lane, a) in addrs.iter().enumerate() {
                let idx = ((a.unwrap() - aes_addr(4, 0)) / 4) as u8;
                let ct = k.attack_text()[lane][j];
                assert_eq!(idx, crate::last_round_index(ct, key[j]));
            }
        }
    }

    #[test]
    fn load_describes_the_lines_without_traces() {
        let mut k = aes(64);
        let fresh = aes(40);
        k.load(&lines(40));
        assert_eq!(k.num_warps(), 0, "no trace is written");
        assert_eq!(k.program(), fresh.program());
        assert_eq!(k.attack_text(), fresh.attack_text());
        k.reload(&lines(40));
        assert_eq!(k.num_warps(), 2);
        for w in 0..2 {
            assert_eq!(k.warp_width(w), fresh.warp_width(w));
            assert_eq!(k.trace(w), fresh.trace(w));
        }
    }

    #[test]
    fn first_round_trace_shape_mirrors_aes() {
        let k = TableKernel::first_round(&lines(32), 32, 8, 31, identity_indices);
        // 1 input + 31 × 8 lookups + 1 output.
        assert_eq!(loads(k.trace(0)).count(), 250);
        assert_eq!(round_marks(k.trace(0)), (1..=31).collect::<Vec<_>>());
    }

    #[test]
    fn first_round_carries_the_only_per_byte_tags() {
        let k = TableKernel::first_round(&lines(32), 32, 2, 25, identity_indices);
        let tags: Vec<u16> = loads(k.trace(0))
            .map(|(_, tag)| tag)
            .filter(|&tag| tag >= LAST_ROUND_TAG_BASE)
            .collect();
        let expect: Vec<u16> = (0..8).map(|j| LAST_ROUND_TAG_BASE + j).collect();
        assert_eq!(tags, expect, "only round 1 is vulnerable");
    }

    #[test]
    fn first_round_inner_tags_stay_in_the_aes_cycle() {
        let k = TableKernel::first_round(&lines(32), 32, 8, 31, identity_indices);
        for (_, tag) in loads(k.trace(0)) {
            assert!(
                tag == 0
                    || tag == OUTPUT_TAG
                    || (1..=9).contains(&tag)
                    || (LAST_ROUND_TAG_BASE..LAST_ROUND_TAG_BASE + 8).contains(&tag),
                "tag {tag} outside the AES tag vocabulary"
            );
        }
    }

    #[test]
    fn first_round_addresses_land_in_per_byte_tables() {
        let k = TableKernel::first_round(&lines(32), 32, 8, 3, identity_indices);
        for (addrs, tag) in loads(k.trace(0)).filter(|&(_, t)| t >= LAST_ROUND_TAG_BASE) {
            let j = u64::from(tag - LAST_ROUND_TAG_BASE);
            let lo = TABLE_BASE + j * 2048;
            for a in addrs.iter().flatten() {
                assert!((lo..lo + 2048).contains(a), "addr {a:#x} outside table {j}");
            }
        }
    }

    #[test]
    fn first_round_attack_text_is_the_input() {
        let l = lines(8);
        let k = TableKernel::first_round(&l, 32, 4, 2, identity_indices);
        assert_eq!(k.attack_text(), &l[..]);
    }
}
