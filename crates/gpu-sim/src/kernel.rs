/// One instruction of a warp's dynamic trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceInstr {
    /// `cycles` of ALU work with no memory traffic.
    Compute {
        /// Core cycles the warp is busy.
        cycles: u32,
    },
    /// A warp-wide global load; `addrs[lane]` is the byte address lane
    /// `lane` requests, or `None` when the lane is inactive.
    Load {
        /// Per-lane request addresses.
        addrs: Vec<Option<u64>>,
        /// Statistics tag: accesses from this load are accumulated into
        /// [`crate::SimStats::accesses_by_tag`] under this index. The AES
        /// kernel tags loads with their round number.
        tag: u16,
    },
    /// Marks that the warp has finished logical phase `round` (e.g. one
    /// AES round). Zero-cost; recorded in the statistics.
    RoundMark {
        /// Phase index that just completed.
        round: u16,
    },
}

impl TraceInstr {
    /// Convenience constructor for an untagged load (tag 0).
    pub fn load(addrs: Vec<Option<u64>>) -> Self {
        TraceInstr::Load { addrs, tag: 0 }
    }

    /// Convenience constructor for a tagged load.
    pub fn load_tagged(addrs: Vec<Option<u64>>, tag: u16) -> Self {
        TraceInstr::Load { addrs, tag }
    }

    /// Convenience constructor for compute work.
    pub fn compute(cycles: u32) -> Self {
        TraceInstr::Compute { cycles }
    }
}

/// The dynamic instruction trace of a single warp.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WarpTrace {
    instrs: Vec<TraceInstr>,
}

impl WarpTrace {
    /// Creates a trace from a list of instructions.
    pub fn from_instrs(instrs: Vec<TraceInstr>) -> Self {
        WarpTrace { instrs }
    }

    /// The instructions in program order.
    pub fn instrs(&self) -> &[TraceInstr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Appends an instruction.
    pub fn push(&mut self, instr: TraceInstr) {
        self.instrs.push(instr);
    }

    /// Rewrites the trace from its first instruction, in place: see
    /// [`TraceWriter`].
    pub fn rewrite(&mut self) -> TraceWriter<'_> {
        TraceWriter {
            instrs: &mut self.instrs,
            at: 0,
        }
    }
}

/// Writes a [`WarpTrace`] in program order over its previous contents.
///
/// Instruction `k` overwrites the old instruction `k`; a load written
/// over a load refills its address vector, so rewriting a trace of the
/// same shape allocates nothing. Writing into an empty trace builds it
/// from scratch, which lets a kernel use one writer for both. Dropping
/// the writer cuts off any old instructions past the last one written.
#[derive(Debug)]
pub struct TraceWriter<'a> {
    instrs: &'a mut Vec<TraceInstr>,
    at: usize,
}

impl TraceWriter<'_> {
    /// Writes a tagged load on which every lane is active, lane `l`
    /// requesting `addrs[l]`.
    pub fn load(&mut self, tag: u16, addrs: impl Iterator<Item = u64>) {
        let addrs = addrs.map(Some);
        match self.instrs.get_mut(self.at) {
            Some(TraceInstr::Load {
                addrs: old,
                tag: old_tag,
            }) => {
                old.clear();
                old.extend(addrs);
                *old_tag = tag;
                self.at += 1;
            }
            _ => self.push(TraceInstr::load_tagged(addrs.collect(), tag)),
        }
    }

    /// Writes any instruction.
    pub fn push(&mut self, instr: TraceInstr) {
        match self.instrs.get_mut(self.at) {
            Some(old) => *old = instr,
            None => self.instrs.push(instr),
        }
        self.at += 1;
    }
}

impl Drop for TraceWriter<'_> {
    fn drop(&mut self) {
        self.instrs.truncate(self.at);
    }
}

impl FromIterator<TraceInstr> for WarpTrace {
    fn from_iter<I: IntoIterator<Item = TraceInstr>>(iter: I) -> Self {
        WarpTrace {
            instrs: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceInstr> for WarpTrace {
    fn extend<I: IntoIterator<Item = TraceInstr>>(&mut self, iter: I) {
        self.instrs.extend(iter);
    }
}

/// A workload the simulator can execute: a set of warps, each with an
/// instruction trace.
///
/// Traces must be *timing-independent* (addresses fixed by the input data,
/// not by execution interleaving), which holds for the lock-step SIMT
/// kernels the paper studies.
pub trait Kernel {
    /// Number of warps launched by the kernel grid.
    fn num_warps(&self) -> usize;

    /// Number of active threads in warp `warp_id` (≤ the machine warp
    /// size; partial warps occur when the workload is not a multiple of
    /// 32 lines).
    fn warp_width(&self, warp_id: usize) -> usize;

    /// The dynamic trace of warp `warp_id`, borrowed from the kernel.
    ///
    /// Implementations build every trace once (at construction) and
    /// hand out references, so the simulator's launch and issue stages
    /// never copy instruction streams — with 32-lane loads every 2–3
    /// instructions, per-launch trace cloning used to dominate small
    /// kernels' simulation time.
    fn trace(&self, warp_id: usize) -> &WarpTrace;
}

impl<K: Kernel + ?Sized> Kernel for &K {
    fn num_warps(&self) -> usize {
        (**self).num_warps()
    }

    fn warp_width(&self, warp_id: usize) -> usize {
        (**self).warp_width(warp_id)
    }

    fn trace(&self, warp_id: usize) -> &WarpTrace {
        (**self).trace(warp_id)
    }
}

/// A trivial [`Kernel`] built directly from traces; used by tests and
/// microbenchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceKernel {
    traces: Vec<WarpTrace>,
    warp_width: usize,
}

impl TraceKernel {
    /// Wraps explicit traces; every warp reports `warp_width` active
    /// threads.
    pub fn new(traces: Vec<WarpTrace>, warp_width: usize) -> Self {
        TraceKernel { traces, warp_width }
    }
}

impl Kernel for TraceKernel {
    fn num_warps(&self) -> usize {
        self.traces.len()
    }

    fn warp_width(&self, _warp_id: usize) -> usize {
        self.warp_width
    }

    fn trace(&self, warp_id: usize) -> &WarpTrace {
        &self.traces[warp_id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_collects_from_iterator() {
        let t: WarpTrace = (0..3).map(|_| TraceInstr::compute(1)).collect();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        let mut t2 = WarpTrace::default();
        t2.extend(t.instrs().iter().cloned());
        assert_eq!(t, t2);
    }

    #[test]
    fn trace_kernel_round_trips() {
        let t = WarpTrace::from_instrs(vec![TraceInstr::load(vec![Some(0)])]);
        let k = TraceKernel::new(vec![t.clone(), t.clone()], 1);
        assert_eq!(k.num_warps(), 2);
        assert_eq!(k.warp_width(0), 1);
        assert_eq!(*k.trace(1), t);
    }

    #[test]
    fn rewriting_equals_writing_fresh_and_cuts_the_tail() {
        fn write(trace: &mut WarpTrace, lanes: u64, loads: u16) {
            let mut w = trace.rewrite();
            w.push(TraceInstr::compute(3));
            for tag in 0..loads {
                w.load(tag, (0..lanes).map(|l| l * 4 + u64::from(tag)));
                w.push(TraceInstr::RoundMark { round: tag });
            }
        }
        let fresh = |lanes, loads| {
            let mut t = WarpTrace::default();
            write(&mut t, lanes, loads);
            t
        };
        let mut reused = WarpTrace::default();
        for (lanes, loads) in [(4, 3), (2, 5), (4, 3), (3, 1), (0, 2)] {
            write(&mut reused, lanes, loads);
            assert_eq!(reused, fresh(lanes, loads), "{lanes} lanes, {loads} loads");
        }
        assert_eq!(
            fresh(2, 1).instrs()[1],
            TraceInstr::load_tagged(vec![Some(0), Some(4)], 0)
        );
    }

    #[test]
    fn instr_constructors() {
        assert_eq!(TraceInstr::compute(4), TraceInstr::Compute { cycles: 4 });
        assert_eq!(
            TraceInstr::load_tagged(vec![None], 10),
            TraceInstr::Load {
                addrs: vec![None],
                tag: 10
            }
        );
    }
}
