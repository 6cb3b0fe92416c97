//! The warp program of a table-based GPU kernel, described once per
//! input.
//!
//! A table-based kernel ([`crate::TableKernel`], for AES and every
//! workload of `rcoal-workload`) runs one thread per 16-byte line, warps
//! in lock step: an input load, rounds of table lookups with interleaved ALU
//! work, and an output store. [`TableProgram`] holds that program as
//! data: each table load's tag, table base and entry size, and, for
//! the current input, every lane's entry index, taken from the cipher's
//! own state. Two consumers read it:
//!
//! * [`TableProgram::write_traces`], the one trace writer, expands every
//!   warp into the [`TraceInstr`]s the cycle-level simulator runs;
//! * the functional counter of `rcoal-experiments` maps each entry to
//!   its coalescing block and counts, without building an address.

use rcoal_gpu_sim::{TraceInstr, WarpTrace};
use std::ops::Range;

/// Bytes one thread reads from the input buffer and writes to the
/// output buffer: its line.
const LINE_BYTES: u64 = 16;

/// ALU cycles between dependent lookups.
const COMPUTE_PER_LOOKUP: u32 = 2;

/// ALU cycles of key-XOR / bookkeeping per round (and after the input
/// load).
const ROUND_OVERHEAD: u32 = 8;

/// A load in which every thread reads or writes its own line of a
/// buffer: thread `l` touches `base + LINE_BYTES · l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineLoad {
    /// Statistics tag of the load.
    pub tag: u16,
    /// Byte address of line 0.
    pub base: u64,
}

impl LineLoad {
    /// Byte address of line `line`.
    pub fn addr(&self, line: usize) -> u64 {
        self.base + line as u64 * LINE_BYTES
    }
}

/// A load in which every thread reads one entry of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableLoad {
    /// Statistics tag of the load.
    pub tag: u16,
    /// Byte address of entry 0.
    pub table_base: u64,
    /// Bytes per entry.
    pub entry_size: u64,
}

impl TableLoad {
    /// Byte address of entry `index`.
    pub fn addr(&self, index: u8) -> u64 {
        self.table_base + u64::from(index) * self.entry_size
    }
}

/// The warp program of a table-based kernel over its current lines.
///
/// In program order: the input load and `ROUND_OVERHEAD` ALU cycles;
/// then the table loads in rounds of `loads_per_round`, each load
/// followed by `COMPUTE_PER_LOOKUP` cycles and each round by
/// `ROUND_OVERHEAD` cycles and a [`TraceInstr::RoundMark`]; last the
/// output store. Lines map to threads in order, `warp_size` per warp,
/// so the last warp may be partial.
///
/// ```
/// use rcoal_aes::{LineLoad, TableLoad, TableProgram};
///
/// let load = TableLoad { tag: 16, table_base: 0x1000, entry_size: 4 };
/// let mut program = TableProgram::new(
///     LineLoad { tag: 0, base: 0x10_0000 },
///     vec![load],
///     1,
///     LineLoad { tag: 15, base: 0x20_0000 },
///     32,
/// );
/// for (line, row) in program.rows_mut(40).enumerate() {
///     row[0] = line as u8;
/// }
/// assert_eq!(program.num_warps(), 2);
/// assert_eq!(program.warp_lines(1), 32..40);
/// assert_eq!(load.addr(program.index(33, 0)), 0x1000 + 33 * 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableProgram {
    input: LineLoad,
    output: LineLoad,
    /// The table loads in program order, round-major.
    loads: Vec<TableLoad>,
    loads_per_round: usize,
    warp_size: usize,
    lines: usize,
    /// Entry indices, line-major: line `l` reads entry
    /// `indices[l · loads.len() + k]` at table load `k`.
    indices: Vec<u8>,
}

impl TableProgram {
    /// The program of `loads` (in rounds of `loads_per_round`) between
    /// an `input` load and an `output` store, for `warp_size`-thread
    /// warps. It describes no lines until [`TableProgram::rows_mut`].
    pub fn new(
        input: LineLoad,
        loads: Vec<TableLoad>,
        loads_per_round: usize,
        output: LineLoad,
        warp_size: usize,
    ) -> Self {
        TableProgram {
            input,
            output,
            loads,
            loads_per_round: loads_per_round.max(1),
            warp_size: warp_size.max(1),
            lines: 0,
            indices: Vec::new(),
        }
    }

    /// The input load.
    pub fn input(&self) -> LineLoad {
        self.input
    }

    /// The output store.
    pub fn output(&self) -> LineLoad {
        self.output
    }

    /// The table loads in program order.
    pub fn loads(&self) -> &[TableLoad] {
        &self.loads
    }

    /// Threads per warp.
    pub fn warp_size(&self) -> usize {
        self.warp_size
    }

    /// Number of warps over the described lines.
    pub fn num_warps(&self) -> usize {
        self.lines.div_ceil(self.warp_size)
    }

    /// Lines handled by warp `warp`.
    pub fn warp_lines(&self, warp: usize) -> Range<usize> {
        let start = warp * self.warp_size;
        start..(start + self.warp_size).min(self.lines)
    }

    /// The entry line `line` reads at table load `k`.
    pub fn index(&self, line: usize, k: usize) -> u8 {
        self.indices[line * self.loads.len() + k]
    }

    /// Describes `lines` lines and returns their index rows in line
    /// order, for the cipher to fill: entry `k` of row `l` is the entry
    /// line `l` reads at table load `k`. The buffer is reused, so a
    /// line count seen before allocates nothing.
    pub fn rows_mut(&mut self, lines: usize) -> std::slice::ChunksExactMut<'_, u8> {
        self.lines = lines;
        let stride = self.loads.len();
        self.indices.resize(lines * stride, 0);
        self.indices.chunks_exact_mut(stride.max(1))
    }

    /// Warp `warp`'s instruction stream, written over `trace`.
    fn write_trace(&self, warp: usize, trace: &mut WarpTrace) {
        let lines = self.warp_lines(warp);
        let mut w = trace.rewrite();
        w.load(self.input.tag, lines.clone().map(|l| self.input.addr(l)));
        w.push(TraceInstr::compute(ROUND_OVERHEAD));
        for (r, round) in self.loads.chunks(self.loads_per_round).enumerate() {
            for (j, load) in round.iter().enumerate() {
                let k = r * self.loads_per_round + j;
                w.load(load.tag, lines.clone().map(|l| load.addr(self.index(l, k))));
                w.push(TraceInstr::compute(COMPUTE_PER_LOOKUP));
            }
            w.push(TraceInstr::compute(ROUND_OVERHEAD));
            w.push(TraceInstr::RoundMark {
                round: r as u16 + 1,
            });
        }
        w.load(self.output.tag, lines.map(|l| self.output.addr(l)));
    }

    /// The one trace writer: expands every warp into `traces`, rewriting
    /// the old traces in place (so the same shape allocates nothing) and
    /// dropping any past the last warp.
    pub fn write_traces(&self, traces: &mut Vec<WarpTrace>) {
        traces.resize_with(self.num_warps(), WarpTrace::default);
        for (w, trace) in traces.iter_mut().enumerate() {
            self.write_trace(w, trace);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(loads_per_round: usize, rounds: usize) -> TableProgram {
        let loads = (0..loads_per_round * rounds)
            .map(|k| TableLoad {
                tag: k as u16,
                table_base: 0x1000 * (k as u64 + 1),
                entry_size: 2,
            })
            .collect();
        TableProgram::new(
            LineLoad {
                tag: 0,
                base: 0x10_0000,
            },
            loads,
            loads_per_round,
            LineLoad {
                tag: 15,
                base: 0x20_0000,
            },
            4,
        )
    }

    fn fill(p: &mut TableProgram, lines: usize) {
        for (l, row) in p.rows_mut(lines).enumerate() {
            for (k, slot) in row.iter_mut().enumerate() {
                *slot = (l * 7 + k) as u8;
            }
        }
    }

    #[test]
    fn trace_expands_every_lane_of_every_load_in_program_order() {
        let mut p = program(2, 3);
        fill(&mut p, 6);
        let mut trace = WarpTrace::default();
        p.write_trace(1, &mut trace);
        let instrs = trace.instrs();
        // input + compute + 3 × (2 × (load + compute) + compute + mark)
        // + output.
        assert_eq!(instrs.len(), 2 + 3 * 6 + 1);
        assert_eq!(
            instrs[0],
            TraceInstr::load_tagged(vec![Some(0x10_0040), Some(0x10_0050)], 0)
        );
        let third = p.loads()[2];
        assert_eq!(
            instrs[8],
            TraceInstr::load_tagged(
                vec![Some(third.addr((4 * 7 + 2) as u8)), Some(third.addr(37))],
                2
            )
        );
        assert_eq!(instrs[13], TraceInstr::RoundMark { round: 2 });
        assert_eq!(
            instrs.last(),
            Some(&TraceInstr::load_tagged(
                vec![Some(0x20_0040), Some(0x20_0050)],
                15
            ))
        );
    }

    #[test]
    fn reusing_the_buffers_equals_building_fresh() {
        let mut reused = program(3, 2);
        let mut traces = Vec::new();
        for lines in [4, 6, 0, 9, 4] {
            fill(&mut reused, lines);
            reused.write_traces(&mut traces);
            let mut fresh = program(3, 2);
            fill(&mut fresh, lines);
            let mut fresh_traces = Vec::new();
            fresh.write_traces(&mut fresh_traces);
            assert_eq!(reused, fresh, "{lines} lines");
            assert_eq!(traces, fresh_traces, "{lines} lines");
            assert_eq!(traces.len(), lines.div_ceil(4));
        }
    }
}
