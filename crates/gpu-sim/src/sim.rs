use crate::cache::L1Cache;
use crate::dram::MemRequest;
use crate::fault::{FaultPlan, FaultState, ReplyFate};
use crate::sm::Sm;
use crate::telemetry::SimTelemetry;
use crate::{
    AddressMapper, Crossbar, GpuConfig, Kernel, LaunchPolicy, MemoryController, PhysLoc, SimStats,
    TraceInstr,
};
use rcoal_core::{Coalescer, CoalescingPolicy, PolicyError};
use rcoal_rng::SeedableRng;
use rcoal_rng::StdRng;
use rcoal_telemetry::Severity;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::error::Error;
use std::fmt;

/// Errors reported by [`GpuSimulator::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The configuration failed validation.
    Config(String),
    /// The coalescing policy could not produce a subwarp assignment.
    Policy(PolicyError),
    /// The simulation exceeded `GpuConfig::max_cycles`.
    CycleLimit {
        /// The configured limit that was hit.
        limit: u64,
    },
    /// The forward-progress watchdog found the machine wedged: unfinished
    /// warps exist but no instruction can ever issue and no reply will
    /// ever arrive (for example after a faulted memory controller
    /// permanently lost a reply).
    Stalled {
        /// Core cycle at which the stall was diagnosed.
        cycle: u64,
        /// Memory replies warps are still waiting for.
        outstanding: u64,
        /// Human-readable description naming the stuck components.
        diagnostic: String,
        /// The last few telemetry events before the stall, rendered as
        /// one line each (empty when the run used the no-op sink).
        trail: Vec<String>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(msg) => write!(f, "invalid gpu configuration: {msg}"),
            SimError::Policy(e) => write!(f, "coalescing policy failed: {e}"),
            SimError::CycleLimit { limit } => {
                write!(f, "simulation exceeded the cycle limit of {limit}")
            }
            SimError::Stalled {
                cycle,
                outstanding,
                diagnostic,
                trail,
            } => {
                write!(
                    f,
                    "simulation stalled at cycle {cycle} with {outstanding} replies outstanding: {diagnostic}"
                )?;
                if !trail.is_empty() {
                    write!(f, "; recent events:")?;
                    for line in trail {
                        write!(f, "\n  {line}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Policy(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PolicyError> for SimError {
    fn from(e: PolicyError) -> Self {
        SimError::Policy(e)
    }
}

/// How many trailing telemetry events a stall diagnostic carries.
const STALL_TRAIL_EVENTS: usize = 16;

#[derive(Debug, Clone, Copy)]
struct ReqMeta {
    sm: usize,
    warp: usize,
    loc: PhysLoc,
    block_addr: u64,
    issued_at: u64,
}

/// The complete mutable state of one launch: SMs, both crossbars, the
/// memory controllers, caches, MSHRs, in-flight request metadata, the
/// reply-release queue, and the fault machinery.
///
/// Both simulator loops — the event-driven skip-ahead core and the
/// cycle-accurate reference — drive the *same* machine through the
/// *same* stage methods below; only the loop skeletons differ. That
/// makes the bit-identity argument local to the loops: any divergence
/// must come from *when* a stage runs, never from *what* it does.
struct Machine<'k> {
    stats: SimStats,
    sms: Vec<Sm<'k>>,
    req_net: Crossbar,
    reply_net: Crossbar,
    mcs: Vec<MemoryController>,
    req_meta: Vec<ReqMeta>,
    /// Per-SM MSHR: in-flight block -> (primary request id, waiting
    /// warp entries to release on the primary's reply).
    mshrs: Vec<HashMap<u64, (u64, Vec<usize>)>>,
    /// Optional per-SM L1 data caches.
    l1s: Vec<Option<L1Cache>>,
    /// Replies waiting for their core-clock release time, as
    /// (release cycle, mc, id).
    pending_replies: BinaryHeap<Reverse<(u64, usize, u64)>>,
    /// Requests alive anywhere in the memory system (injected into the
    /// request network and neither absorbed nor lost yet). Every live
    /// request sits in exactly one stage — request crossbar, controller,
    /// release queue, reply crossbar — so this single counter makes the
    /// per-cycle quiescence test O(1).
    in_system: usize,
    /// Memoized [`MemoryController::next_event_raw`] per controller
    /// (`u64::MAX` = idle). Everything that can change a controller's
    /// schedule (ticking it, enqueueing a request or retransmit) calls
    /// [`Machine::note_mc`] for that controller alone, so the entries
    /// are always current.
    mc_cache: Vec<u64>,
    /// Minimum of `mc_cache`; `None` after a write until
    /// [`Machine::mc_next`] recomputes it.
    mc_min: Option<u64>,
    mapper: AddressMapper,
    coalescer: Coalescer,
    fault: FaultState,
}

impl Machine<'_> {
    /// Issues instructions from picked warp `widx` on SM `s`: consumes
    /// round marks for free, then stops after one compute or load (or at
    /// the end of the trace). Exactly the per-warp body of the issue
    /// stage; the caller owns scheduling and finish bookkeeping.
    fn issue_warp(
        &mut self,
        cfg: &GpuConfig,
        launch: &LaunchPolicy,
        s: usize,
        widx: usize,
        now: u64,
        tel: &mut SimTelemetry,
    ) {
        loop {
            // `current_instr` borrows the *kernel's* trace, so the
            // instruction (and its 32-lane address vector) is read in
            // place while warp state mutates — no per-issue clone.
            match self.sms[s].current_instr(widx) {
                None => break,
                Some(&TraceInstr::RoundMark { round }) => {
                    self.sms[s].pc[widx] += 1;
                    self.stats.record_round_mark(round, now);
                    tel.event(
                        now,
                        Severity::Debug,
                        "sm",
                        "round_mark",
                        u64::from(round),
                        (widx * cfg.num_sms + s) as u64,
                    );
                    // Marks are free: keep consuming.
                }
                Some(&TraceInstr::Compute { cycles }) => {
                    self.sms[s].pc[widx] += 1;
                    self.sms[s].busy_until[widx] =
                        now + u64::from(cycles) + u64::from(cfg.issue_cycles);
                    break;
                }
                Some(&TraceInstr::Load { ref addrs, tag }) => {
                    self.sms[s].pc[widx] += 1;
                    let (result, num_subwarps) = {
                        let assignment = if launch.is_vulnerable_tag(tag) {
                            self.sms[s].vulnerable_assignment(widx)
                        } else {
                            self.sms[s].assignment(widx)
                        };
                        (
                            self.coalescer.coalesce(assignment, addrs),
                            assignment.num_subwarps(),
                        )
                    };
                    let n = result.num_accesses() as u64;
                    let active = addrs.iter().filter(|a| a.is_some()).count() as u64;
                    self.stats.total_requests += active;
                    self.stats.record_tagged_accesses(tag, n);
                    if tel.is_enabled() {
                        tel.record_load(now, num_subwarps, &result);
                    }
                    if n == 0 {
                        continue; // all lanes inactive
                    }
                    self.sms[s].outstanding[widx] = n as u32;
                    for access in result.accesses() {
                        // L1 probe: hits are served without a memory
                        // transaction.
                        if let Some(l1) = self.l1s[s].as_mut() {
                            if l1.probe(access.block_addr) {
                                self.stats.l1_hits += 1;
                                self.sms[s].outstanding[widx] -= 1;
                                continue;
                            }
                        }
                        // MSHR merge: piggyback on an in-flight request
                        // to the same block from this SM.
                        if cfg.mshr_entries > 0 {
                            if let Some((_, waiters)) = self.mshrs[s].get_mut(&access.block_addr) {
                                waiters.push(widx);
                                self.stats.mshr_merged += 1;
                                continue;
                            }
                        }
                        let id = self.req_meta.len() as u64;
                        let loc = self.mapper.decode(access.block_addr);
                        self.req_meta.push(ReqMeta {
                            sm: s,
                            warp: widx,
                            loc,
                            block_addr: access.block_addr,
                            issued_at: now,
                        });
                        if cfg.mshr_entries > 0 && self.mshrs[s].len() < cfg.mshr_entries {
                            self.mshrs[s].insert(access.block_addr, (id, Vec::new()));
                        }
                        self.req_net.inject(s, loc.mc, id);
                        self.in_system += 1;
                    }
                    break;
                }
            }
        }
    }

    /// Hands request packets delivered by the request network to their
    /// memory controllers.
    fn deliver_requests(
        &mut self,
        mem_now: u64,
        delivered: &[(usize, u64)],
        tel: &mut SimTelemetry,
    ) {
        for &(mc, id) in delivered {
            let loc = self.req_meta[id as usize].loc;
            self.mcs[mc].enqueue(MemRequest {
                id,
                loc,
                arrival: mem_now,
            });
            self.note_mc(mc);
            if tel.is_enabled() {
                tel.profile.mcs[mc]
                    .queue_depth
                    .record(self.mcs[mc].queue_len() as u64);
            }
        }
    }

    /// Re-reads controller `mc`'s next event after a tick or enqueue
    /// touched it.
    fn note_mc(&mut self, mc: usize) {
        self.mc_cache[mc] = self.mcs[mc].next_event_raw().unwrap_or(u64::MAX);
        self.mc_min = None;
    }

    /// The earliest raw next event over all controllers (`u64::MAX` when
    /// every controller is idle).
    fn mc_next(&mut self) -> u64 {
        *self
            .mc_min
            .get_or_insert_with(|| self.mc_cache.iter().copied().min().unwrap_or(u64::MAX))
    }

    /// Advances the memory clock to keep pace with core cycle `now`,
    /// queueing completed DRAM reads (plus any fault jitter) for
    /// release. With `fast_forward`, mem ticks no controller can act on
    /// — exact no-ops in the reference — are crossed in one step.
    fn dram_advance(
        &mut self,
        cfg: &GpuConfig,
        now: u64,
        mem_ticks: &mut u64,
        fast_forward: bool,
        dram_done: &mut Vec<(u64, u64)>,
    ) {
        let target_mem = (now + 1) * u64::from(cfg.mem_clock_mhz) / u64::from(cfg.core_clock_mhz);
        while *mem_ticks < target_mem {
            if fast_forward {
                let active = self.mc_next();
                if active > *mem_ticks {
                    // No controller can act before `active` (clamped to
                    // the window): cross the idle span in one step.
                    *mem_ticks = active.min(target_mem);
                    continue;
                }
            }
            for mc_idx in 0..self.mcs.len() {
                // Ticking a controller strictly before its next event is
                // a no-op (`MemoryController::next_event` contract), so
                // the skip-ahead path leaves idle controllers untouched.
                if fast_forward && self.mc_cache[mc_idx] > *mem_ticks {
                    continue;
                }
                dram_done.clear();
                self.mcs[mc_idx].tick(*mem_ticks, dram_done);
                self.note_mc(mc_idx);
                for &(id, done_mem) in dram_done.iter() {
                    let done_core = cfg.mem_to_core_cycles(done_mem).max(now + 1)
                        + self.fault.reply_delay(mc_idx);
                    self.pending_replies.push(Reverse((done_core, mc_idx, id)));
                }
            }
            *mem_ticks += 1;
        }
    }

    /// Releases replies whose DRAM data is ready at `now`. A faulted
    /// controller may drop the reply here: the request either
    /// retransmits (rejoining the controller queue) or, with the retry
    /// budget spent, is lost for good and the warp wedges.
    fn release_replies(&mut self, now: u64, mem_ticks: u64, tel: &mut SimTelemetry) {
        while let Some(&Reverse((t, mc, id))) = self.pending_replies.peek() {
            if t > now {
                break;
            }
            self.pending_replies.pop();
            match self.fault.reply_fate(mc, id) {
                ReplyFate::Deliver => {
                    let sm = self.req_meta[id as usize].sm;
                    self.reply_net.inject(mc, sm, id);
                }
                ReplyFate::Retransmit => {
                    self.stats.dropped_replies += 1;
                    self.stats.fault_retries += 1;
                    tel.event(
                        now,
                        Severity::Warn,
                        "fault",
                        "reply_retransmit",
                        mc as u64,
                        id,
                    );
                    self.mcs[mc].enqueue(MemRequest {
                        id,
                        loc: self.req_meta[id as usize].loc,
                        arrival: mem_ticks,
                    });
                    self.note_mc(mc);
                }
                ReplyFate::Lost => {
                    self.in_system -= 1;
                    self.stats.dropped_replies += 1;
                    self.stats.replies_lost += 1;
                    tel.event(now, Severity::Error, "fault", "reply_lost", mc as u64, id);
                }
            }
        }
    }

    /// Absorbs one reply delivered by the reply network: latency
    /// accounting, L1 fill, outstanding decrements (including MSHR
    /// waiters piggybacked on this request). Warps whose outstanding
    /// count reaches zero here are appended to `unblocked`.
    fn absorb_reply(
        &mut self,
        cfg: &GpuConfig,
        id: u64,
        now: u64,
        tel: &mut SimTelemetry,
        unblocked: &mut Vec<(usize, usize)>,
    ) {
        let meta = self.req_meta[id as usize];
        self.in_system -= 1;
        let latency = now - meta.issued_at;
        self.stats.mem_latency_sum += latency;
        if tel.is_enabled() {
            tel.profile.mem_latency.record(latency);
            tel.event(now, Severity::Debug, "mem", "reply", id, latency);
        }
        if let Some(l1) = self.l1s[meta.sm].as_mut() {
            l1.fill(meta.block_addr);
        }
        debug_assert!(self.sms[meta.sm].outstanding[meta.warp] > 0);
        self.sms[meta.sm].outstanding[meta.warp] -= 1;
        if self.sms[meta.sm].outstanding[meta.warp] == 0 {
            unblocked.push((meta.sm, meta.warp));
        }
        // Release MSHR waiters piggybacked on this request. The MSHR is
        // keyed by block address, and this request's block is in its
        // metadata, so the release is one hash lookup — not a scan over
        // every in-flight entry on the SM.
        if cfg.mshr_entries > 0
            && self.mshrs[meta.sm]
                .get(&meta.block_addr)
                .is_some_and(|(pid, _)| *pid == id)
        {
            if let Some((_, waiters)) = self.mshrs[meta.sm].remove(&meta.block_addr) {
                for w in waiters {
                    debug_assert!(self.sms[meta.sm].outstanding[w] > 0);
                    self.sms[meta.sm].outstanding[w] -= 1;
                    if self.sms[meta.sm].outstanding[w] == 0 {
                        unblocked.push((meta.sm, w));
                    }
                }
            }
        }
    }

    /// Whether the whole memory system is empty: nothing buffered or in
    /// flight on either crossbar, no reply awaiting release, and no
    /// request inside any controller.
    fn quiescent(&self) -> bool {
        debug_assert_eq!(
            self.in_system == 0,
            self.req_net.pending() == 0
                && self.reply_net.pending() == 0
                && self.pending_replies.is_empty()
                && self.mcs.iter().all(|m| m.pending() == 0)
        );
        self.in_system == 0
    }

    /// Builds the [`SimError::Stalled`] diagnostic naming the stuck
    /// components at the moment the watchdog fired, carrying the last
    /// few telemetry events as the `trail`.
    fn stall_report(&self, cycle: u64, tel: &mut SimTelemetry) -> SimError {
        let mut outstanding: u64 = 0;
        let mut stuck: Option<(usize, usize, u32, usize)> = None;
        for (s, sm) in self.sms.iter().enumerate() {
            for w in 0..sm.num_warps() {
                outstanding += u64::from(sm.outstanding[w]);
                if stuck.is_none() && !sm.done(w, cycle) {
                    stuck = Some((s, w, sm.outstanding[w], sm.pc[w]));
                }
            }
        }
        let mut diagnostic = match stuck {
            Some((s, w, out, pc)) => {
                format!("sm {s} warp {w} is stuck at pc {pc} waiting on {out} replies")
            }
            None => "no warp is runnable".to_string(),
        };
        if self.stats.replies_lost > 0 {
            diagnostic.push_str(&format!(
                "; {} replies were lost to fault injection",
                self.stats.replies_lost
            ));
        }
        let mc_pending: usize = self.mcs.iter().map(MemoryController::pending).sum();
        diagnostic.push_str(&format!(
            "; in flight: req_net {} reply_net {} dram {} pending replies {}",
            self.req_net.pending(),
            self.reply_net.pending(),
            mc_pending,
            self.pending_replies.len()
        ));
        tel.event(
            cycle,
            Severity::Error,
            "sim",
            "stalled",
            outstanding,
            self.pending_replies.len() as u64,
        );
        let trail = tel
            .events
            .tail(STALL_TRAIL_EVENTS)
            .iter()
            .map(rcoal_telemetry::Event::to_line)
            .collect();
        SimError::Stalled {
            cycle,
            outstanding,
            diagnostic,
            trail,
        }
    }

    /// Final statistics: fold controller row-buffer counters into the
    /// profile and the aggregate row-hit rate into the stats.
    fn into_stats(mut self, tel: &mut SimTelemetry) -> SimStats {
        if tel.is_enabled() {
            tel.profile.ensure_mcs(self.mcs.len());
            for (i, mc) in self.mcs.iter().enumerate() {
                let p = &mut tel.profile.mcs[i];
                p.row_hits += mc.row_hits();
                p.row_misses += mc.row_misses();
                p.serviced += mc.serviced();
            }
            tel.profile.icnt_req_deferred += self.req_net.deferred_total();
            tel.profile.icnt_reply_deferred += self.reply_net.deferred_total();
            let max = self
                .stats
                .warp_finish_cycle
                .iter()
                .max()
                .copied()
                .unwrap_or(0);
            let min = self
                .stats
                .warp_finish_cycle
                .iter()
                .min()
                .copied()
                .unwrap_or(0);
            tel.profile.warp_finish_spread = tel.profile.warp_finish_spread.max(max - min);
            tel.event(
                self.stats.total_cycles,
                Severity::Info,
                "sim",
                "done",
                self.stats.total_cycles,
                self.stats.total_accesses,
            );
        }
        let (hits, serviced) = self.mcs.iter().fold((0.0, 0u64), |(h, n), mc| {
            (
                h + mc.row_hit_rate() * mc.serviced() as f64,
                n + mc.serviced(),
            )
        });
        self.stats.row_hit_rate = if serviced == 0 {
            0.0
        } else {
            hits / serviced as f64
        };
        debug_assert_eq!(
            serviced,
            self.stats.total_accesses - self.stats.mshr_merged - self.stats.l1_hits
                + self.stats.fault_retries
        );
        self.stats
    }
}

/// The cycle-level GPU simulator.
///
/// Construct once from a [`GpuConfig`] and call [`GpuSimulator::run`] per
/// kernel launch; the simulator itself is stateless between runs, so one
/// instance can serve many launches (and many threads, behind `&self`).
///
/// Internally the simulator is event-driven: each component advertises
/// the next cycle at which its state can change (warp wake-ups via
/// `busy_until`, crossbar packet arrivals, DRAM arrivals and
/// completions, pending reply releases) and the main loop jumps the
/// clock straight to the minimum, falling back to single-stepping in
/// contended windows. Every *visited* cycle executes the exact
/// cycle-accurate machine step, so results — statistics, telemetry
/// traces, stall diagnostics — are bit-identical to the reference loop
/// retained as [`GpuSimulator::run_instrumented_reference`].
#[derive(Debug, Clone)]
pub struct GpuSimulator {
    config: GpuConfig,
}

impl GpuSimulator {
    /// Creates a simulator for the given configuration.
    pub fn new(config: GpuConfig) -> Self {
        GpuSimulator { config }
    }

    /// The configuration this simulator models.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Executes `kernel` under `policy` and returns timing and access
    /// statistics.
    ///
    /// `seed` drives every random draw (subwarp sizes for RSS, lane
    /// permutations for RTS); a fixed seed reproduces the launch exactly.
    /// Each warp draws its own assignment at launch, which then stays
    /// fixed for the whole run (paper §IV-D).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for invalid configurations,
    /// [`SimError::Policy`] if the policy cannot split this warp size, and
    /// [`SimError::CycleLimit`] if the run exceeds the configured bound.
    pub fn run(
        &self,
        kernel: &dyn Kernel,
        policy: CoalescingPolicy,
        seed: u64,
    ) -> Result<SimStats, SimError> {
        self.run_launch(kernel, LaunchPolicy::Uniform(policy), seed)
    }

    /// Executes `kernel` under a [`LaunchPolicy`], which may protect only
    /// the vulnerable (tagged) loads with a randomized policy — the
    /// selective-randomization extension sketched in the paper's §VII.
    ///
    /// # Errors
    ///
    /// Same as [`GpuSimulator::run`].
    pub fn run_launch(
        &self,
        kernel: &dyn Kernel,
        launch: LaunchPolicy,
        seed: u64,
    ) -> Result<SimStats, SimError> {
        self.run_launch_faulted(kernel, launch, seed, &FaultPlan::none())
    }

    /// Executes `kernel` under `policy` with hardware faults injected
    /// from `plan`: per-controller reply jitter, dropped replies with a
    /// bounded retransmit budget, and interconnect stall bursts.
    ///
    /// Faults perturb timing only; coalesced-access statistics stay
    /// identical to the fault-free run with the same `seed`.
    ///
    /// # Errors
    ///
    /// Same as [`GpuSimulator::run`], plus [`SimError::Stalled`] when a
    /// lost reply (or any other forward-progress failure) permanently
    /// wedges a warp.
    pub fn run_faulted(
        &self,
        kernel: &dyn Kernel,
        policy: CoalescingPolicy,
        seed: u64,
        plan: &FaultPlan,
    ) -> Result<SimStats, SimError> {
        self.run_launch_faulted(kernel, LaunchPolicy::Uniform(policy), seed, plan)
    }

    /// Executes `kernel` under a [`LaunchPolicy`] with faults injected
    /// from `plan`. See [`GpuSimulator::run_faulted`].
    ///
    /// # Errors
    ///
    /// Same as [`GpuSimulator::run_faulted`].
    pub fn run_launch_faulted(
        &self,
        kernel: &dyn Kernel,
        launch: LaunchPolicy,
        seed: u64,
        plan: &FaultPlan,
    ) -> Result<SimStats, SimError> {
        self.run_instrumented(kernel, launch, seed, plan, &mut SimTelemetry::off())
    }

    /// Executes `kernel` like [`GpuSimulator::run_launch_faulted`] while
    /// recording structured events and a leakage-channel profile into
    /// `tel`.
    ///
    /// Timing and statistics are identical to the uninstrumented run:
    /// telemetry observes the machine, it never perturbs it. With
    /// [`SimTelemetry::off`] every hook reduces to one predictable
    /// branch, which is exactly what the plain entry points pass.
    ///
    /// This entry point uses the event-driven skip-ahead core. Fault
    /// plans that draw randomness every cycle (interconnect
    /// backpressure) automatically fall back to cycle-accurate
    /// stepping, so results are bit-identical to
    /// [`GpuSimulator::run_instrumented_reference`] for *every* plan.
    ///
    /// # Errors
    ///
    /// Same as [`GpuSimulator::run_launch_faulted`]; on
    /// [`SimError::Stalled`] the error carries the last few telemetry
    /// events as its `trail` (empty with the no-op sink).
    pub fn run_instrumented(
        &self,
        kernel: &dyn Kernel,
        launch: LaunchPolicy,
        seed: u64,
        plan: &FaultPlan,
        tel: &mut SimTelemetry,
    ) -> Result<SimStats, SimError> {
        let mut m = self.launch_machine(kernel, &launch, seed, plan, tel)?;
        // Backpressure draws fault randomness per cycle, so its RNG
        // stream (and the stall process itself) only replays under
        // cycle-accurate stepping. All other plans are skip-safe.
        if plan.perturbs_per_cycle() {
            self.reference_loop(&mut m, &launch, tel)?;
        } else {
            self.event_loop(&mut m, &launch, tel)?;
        }
        Ok(m.into_stats(tel))
    }

    /// The retained cycle-accurate reference: identical machine model,
    /// but the clock advances one cycle at a time and every component
    /// is ticked on every cycle.
    ///
    /// This is the loop the event-driven core must match bit-for-bit —
    /// the conformance lockstep tests diff complete [`SimStats`],
    /// telemetry event streams, and profiles between the two, and the
    /// `sim_throughput` bench records the speedup against it. It is not
    /// meant for production use: it produces the same results as
    /// [`GpuSimulator::run_instrumented`], only slower.
    ///
    /// # Errors
    ///
    /// Same as [`GpuSimulator::run_instrumented`].
    pub fn run_instrumented_reference(
        &self,
        kernel: &dyn Kernel,
        launch: LaunchPolicy,
        seed: u64,
        plan: &FaultPlan,
        tel: &mut SimTelemetry,
    ) -> Result<SimStats, SimError> {
        let mut m = self.launch_machine(kernel, &launch, seed, plan, tel)?;
        self.reference_loop(&mut m, &launch, tel)?;
        Ok(m.into_stats(tel))
    }

    /// Validates the configuration and fault plan, then builds the
    /// launch-time machine state: warps distributed round-robin over
    /// SMs, each drawing its subwarp assignment from the seeded stream.
    /// Warp contexts borrow their traces from the kernel, so launching
    /// copies no instructions.
    fn launch_machine<'k>(
        &self,
        kernel: &'k dyn Kernel,
        launch: &LaunchPolicy,
        seed: u64,
        plan: &FaultPlan,
        tel: &mut SimTelemetry,
    ) -> Result<Machine<'k>, SimError> {
        self.config.validate().map_err(SimError::Config)?;
        plan.validate()
            .map_err(|msg| SimError::Config(format!("invalid fault plan: {msg}")))?;
        let cfg = &self.config;
        let mapper = AddressMapper::new(cfg);
        let coalescer = Coalescer::with_block_size(cfg.block_size).map_err(SimError::Policy)?;
        let mut rng = StdRng::seed_from_u64(seed);

        let mut sms: Vec<Sm<'k>> = (0..cfg.num_sms)
            .map(|_| Sm::with_policy(cfg.warp_schedulers, cfg.scheduler))
            .collect();
        for w in 0..kernel.num_warps() {
            let width = kernel.warp_width(w).min(cfg.warp_size);
            let (assignment, vulnerable_assignment) = launch.draw_assignments(width, &mut rng)?;
            sms[w % cfg.num_sms].push_warp(kernel.trace(w), assignment, vulnerable_assignment);
        }

        let stats = SimStats {
            num_warps: kernel.num_warps(),
            warp_finish_cycle: vec![0; kernel.num_warps()],
            ..SimStats::default()
        };
        if tel.is_enabled() {
            tel.profile.ensure_mcs(cfg.num_mem_controllers);
            tel.event(
                0,
                Severity::Info,
                "sim",
                "launch",
                kernel.num_warps() as u64,
                cfg.warp_size as u64,
            );
        }
        let req_net = Crossbar::new(
            cfg.num_sms,
            cfg.icnt_latency,
            cfg.icnt_injection_rate,
            cfg.icnt_ejection_rate,
        );
        let reply_net = Crossbar::new(
            cfg.num_mem_controllers,
            cfg.icnt_latency,
            cfg.icnt_injection_rate,
            cfg.icnt_ejection_rate,
        );
        let mcs: Vec<MemoryController> = (0..cfg.num_mem_controllers)
            .map(|_| MemoryController::new(cfg))
            .collect();
        let l1s: Vec<Option<L1Cache>> = (0..cfg.num_sms)
            .map(|_| (cfg.l1_sets > 0).then(|| L1Cache::new(cfg.l1_sets, cfg.l1_ways)))
            .collect();
        Ok(Machine {
            stats,
            sms,
            req_net,
            reply_net,
            mcs,
            req_meta: Vec::new(),
            mshrs: vec![HashMap::new(); cfg.num_sms],
            l1s,
            pending_replies: BinaryHeap::new(),
            in_system: 0,
            mc_cache: vec![u64::MAX; cfg.num_mem_controllers],
            mc_min: Some(u64::MAX),
            mapper,
            coalescer,
            fault: plan.state(),
        })
    }

    /// The cycle-accurate loop body: every component is ticked on every
    /// cycle and every per-cycle scan is done the plain way. This is
    /// the semantics the event loop must reproduce exactly.
    fn reference_loop(
        &self,
        m: &mut Machine<'_>,
        launch: &LaunchPolicy,
        tel: &mut SimTelemetry,
    ) -> Result<(), SimError> {
        let cfg = &self.config;
        let mut mem_ticks: u64 = 0;
        let mut dram_done: Vec<(u64, u64)> = Vec::new();
        // Per-cycle scratch, hoisted out of the simulation loop so the
        // steady state allocates nothing.
        let mut ready_scratch: Vec<usize> = Vec::with_capacity(cfg.warp_schedulers);
        let mut net_scratch: Vec<(usize, u64)> = Vec::new();
        let mut unblocked: Vec<(usize, usize)> = Vec::new();
        // Forward-progress watchdog: last cycle at which the machine
        // demonstrably moved (an instruction issued, a reply drained, a
        // warp was executing, or a reply was waiting for release).
        let mut progress_at: u64 = 0;
        // Previous cycle's interconnect-freeze state, for edge-triggered
        // backpressure events.
        let mut prev_frozen = false;

        let mut now: u64 = 0;
        loop {
            let mut progressed = false;
            // --- Issue stage: each SM issues up to `warp_schedulers`
            // instructions from distinct ready warps.
            for s in 0..m.sms.len() {
                m.sms[s].select_ready_into(now, &mut ready_scratch);
                for &widx in &ready_scratch {
                    progressed = true;
                    m.issue_warp(cfg, launch, s, widx, now, tel);
                }
                // Issue-stall accounting: this SM still has unfinished
                // warps but found none ready to issue this cycle.
                if tel.is_enabled() && ready_scratch.is_empty() && !m.sms[s].all_done(now) {
                    tel.profile.issue_stall_cycles += 1;
                }
            }

            // --- Interconnect: transient backpressure bursts freeze both
            // crossbars for this cycle; packets keep their places.
            let icnt_frozen = m.fault.icnt_stalled(now);
            if tel.is_enabled() && icnt_frozen != prev_frozen {
                tel.event(
                    now,
                    Severity::Warn,
                    "icnt",
                    if icnt_frozen {
                        "backpressure_start"
                    } else {
                        "backpressure_end"
                    },
                    m.req_net.pending() as u64,
                    m.reply_net.pending() as u64,
                );
            }
            prev_frozen = icnt_frozen;

            // --- Request network (icnt clock == core clock in Table I).
            let mem_now = now * u64::from(cfg.mem_clock_mhz) / u64::from(cfg.core_clock_mhz);
            if icnt_frozen {
                // The crossbars virtualize their injection stage, so a
                // frozen cycle must be marked as passed — otherwise the
                // next tick would replay its injection.
                m.req_net.freeze(now);
                m.reply_net.freeze(now);
            } else {
                m.req_net.tick_into(now, &mut net_scratch);
                m.deliver_requests(mem_now, &net_scratch, tel);
            }

            // --- DRAM: advance memory clock to keep pace with core clock.
            m.dram_advance(cfg, now, &mut mem_ticks, false, &mut dram_done);

            // --- Release replies whose DRAM data is ready.
            m.release_replies(now, mem_ticks, tel);

            // --- Reply network: returning data unblocks warps.
            if !icnt_frozen {
                m.reply_net.tick_into(now, &mut net_scratch);
                unblocked.clear();
                for &(_sm, id) in &net_scratch {
                    progressed = true;
                    m.absorb_reply(cfg, id, now, tel, &mut unblocked);
                }
            }

            // --- Termination.
            let quiescent = m.quiescent();
            // Record per-warp completion as warps drain (0 = not yet),
            // noting executing warps for the watchdog on the same pass.
            let mut any_busy = false;
            for s in 0..m.sms.len() {
                for l in 0..m.sms[s].num_warps() {
                    let gid = l * cfg.num_sms + s;
                    if m.stats.warp_finish_cycle[gid] == 0 && m.sms[s].done(l, now) {
                        m.stats.warp_finish_cycle[gid] = now + 1;
                        tel.event(
                            now,
                            Severity::Info,
                            "sm",
                            "warp_finished",
                            gid as u64,
                            s as u64,
                        );
                    }
                    any_busy |= m.sms[s].busy_until[l] > now;
                }
            }
            let all_done = m.sms.iter().all(|sm| sm.all_done(now));
            if quiescent && all_done {
                m.stats.total_cycles = now + 1;
                return Ok(());
            }

            // --- Forward-progress watchdog. Fast path: the machine is
            // quiescent, nothing issued, no warp is executing, yet warps
            // remain unfinished — no event can ever wake them, so report
            // the stall immediately instead of burning to `max_cycles`.
            // Windowed backstop: `watchdog_window` cycles without any
            // progress event (catches e.g. a permanently frozen icnt,
            // where packets stay pending but never move).
            let wedged = quiescent && !progressed && !any_busy;
            let window = cfg.watchdog_window;
            let starved =
                window > 0 && !progressed && !any_busy && now.saturating_sub(progress_at) >= window;
            if wedged || starved {
                return Err(m.stall_report(now, tel));
            }
            if progressed || any_busy || !m.pending_replies.is_empty() {
                progress_at = now;
            }

            now += 1;
            if now >= cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: cfg.max_cycles,
                });
            }
        }
    }

    /// The event-driven skip-ahead loop. Beyond jumping the clock to
    /// the next advertised event, it replaces the reference's per-cycle
    /// whole-machine scans with incremental bookkeeping (DESIGN.md §12):
    ///
    /// - `ready_at[s]`: conservative lower bound on the next cycle SM
    ///   `s` can issue, recomputed from `Sm::next_warp_event` after each
    ///   issue pass and lowered to `now + 1` when a reply unblocks a
    ///   warp. SMs with `ready_at > now` skip scheduler selection
    ///   entirely — safe because an empty pick never mutates scheduler
    ///   state, so the reference's call on such cycles is a no-op.
    /// - `unfinished[s]` / `live_warps`: counts of warps whose finish
    ///   has not been recorded, replacing the reference's `all_done`
    ///   scans (equal to them at each phase by construction).
    /// - `max_busy`: running max of every assigned `busy_until` —
    ///   exact, because per-warp `busy_until` is monotone — replacing
    ///   the `any_busy` scan.
    /// - `finish_heap`: (cycle, sm, warp) min-heap of compute-tail
    ///   retirements (and zero-length traces, seeded at cycle 0), so
    ///   warp-finish cycles are observed without scanning warps.
    ///
    /// Finish events detected in a cycle are emitted in the reference's
    /// scan order (SM-major, then warp) during the termination phase.
    fn event_loop(
        &self,
        m: &mut Machine<'_>,
        launch: &LaunchPolicy,
        tel: &mut SimTelemetry,
    ) -> Result<(), SimError> {
        let cfg = &self.config;
        let core = u64::from(cfg.core_clock_mhz);
        let mem = u64::from(cfg.mem_clock_mhz);
        let num_sms = m.sms.len();
        let mut mem_ticks: u64 = 0;
        let mut dram_done: Vec<(u64, u64)> = Vec::new();
        let mut ready_scratch: Vec<usize> = Vec::with_capacity(cfg.warp_schedulers);
        let mut net_scratch: Vec<(usize, u64)> = Vec::new();
        let mut unblocked: Vec<(usize, usize)> = Vec::new();
        let mut progress_at: u64 = 0;
        let mut prev_frozen = false;

        let mut ready_at: Vec<u64> = vec![0; num_sms];
        let mut unfinished: Vec<usize> = m.sms.iter().map(Sm::num_warps).collect();
        let mut live_warps: usize = unfinished.iter().sum();
        // SMs that still have unfinished warps, ascending (issue order
        // matters: packet sequence numbers follow SM order). SMs with no
        // warps never issue, never stall-account, and keep
        // `ready_at == MAX`, so the loop skips them from the start.
        let mut active_sms: Vec<usize> = (0..num_sms).filter(|&s| unfinished[s] > 0).collect();
        let mut max_busy: u64 = 0;
        let mut finish_heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
        let mut finishers: Vec<(usize, usize)> = Vec::new();
        // Zero-length traces are done at cycle 0 without ever issuing;
        // seed their finish events so the heap sees them.
        for (s, sm) in m.sms.iter().enumerate() {
            for l in 0..sm.num_warps() {
                if sm.done(l, 0) {
                    finish_heap.push(Reverse((0, s, l)));
                }
            }
        }

        let mut now: u64 = 0;
        loop {
            let mut progressed = false;
            finishers.clear();
            // --- Replay the crossbars' skipped injection cycles before
            // anything can queue new packets at `now`: packets issued
            // this cycle must not appear in the catch-up of the span.
            m.req_net.sync(now);
            m.reply_net.sync(now);
            // --- Compute-tail retirements due exactly now. Popped before
            // the issue stage: the reference's `all_done` sees these
            // warps as done at issue time (their `busy_until <= now`).
            while let Some(&Reverse((c, s, l))) = finish_heap.peek() {
                if c > now {
                    break;
                }
                debug_assert_eq!(c, now, "finish events are never skipped");
                finish_heap.pop();
                debug_assert!(m.sms[s].done(l, now));
                unfinished[s] -= 1;
                live_warps -= 1;
                finishers.push((s, l));
            }

            // --- Issue stage with per-SM gating.
            for &s in &active_sms {
                if ready_at[s] > now {
                    // No warp on this SM can be ready: the reference
                    // would run an empty (state-preserving) selection
                    // and account one issue stall if warps remain.
                    if tel.is_enabled() && unfinished[s] > 0 {
                        tel.profile.issue_stall_cycles += 1;
                    }
                    continue;
                }
                m.sms[s].select_ready_into(now, &mut ready_scratch);
                if ready_scratch.is_empty() {
                    if tel.is_enabled() && unfinished[s] > 0 {
                        tel.profile.issue_stall_cycles += 1;
                    }
                } else {
                    progressed = true;
                    for &widx in &ready_scratch {
                        m.issue_warp(cfg, launch, s, widx, now, tel);
                        let b = m.sms[s].busy_until[widx];
                        max_busy = max_busy.max(b);
                        // A warp that consumed its whole trace retires
                        // here (marks, an empty/all-hit load) or at the
                        // end of its final compute burst.
                        if m.sms[s].retired(widx) && m.sms[s].outstanding[widx] == 0 {
                            if b <= now {
                                unfinished[s] -= 1;
                                live_warps -= 1;
                                finishers.push((s, widx));
                            } else {
                                finish_heap.push(Reverse((b, s, widx)));
                            }
                        }
                    }
                }
                ready_at[s] = m.sms[s].next_warp_event(now);
            }

            // --- Interconnect. Plans routed to this loop never draw
            // per-cycle randomness, so `icnt_stalled` is false without
            // touching the fault RNG; the freeze branch is kept so the
            // loop stays correct if that routing ever changes.
            let icnt_frozen = m.fault.icnt_stalled(now);
            if tel.is_enabled() && icnt_frozen != prev_frozen {
                tel.event(
                    now,
                    Severity::Warn,
                    "icnt",
                    if icnt_frozen {
                        "backpressure_start"
                    } else {
                        "backpressure_end"
                    },
                    m.req_net.pending() as u64,
                    m.reply_net.pending() as u64,
                );
            }
            prev_frozen = icnt_frozen;

            let mem_now = now * mem / core;
            if icnt_frozen {
                m.req_net.freeze(now);
                m.reply_net.freeze(now);
            } else if m.req_net.pending() > 0 {
                // An empty crossbar's tick is a pure no-op (the deferred
                // injection bookkeeping fast-forwards through drained
                // spans), so skip it entirely.
                m.req_net.tick_into(now, &mut net_scratch);
                m.deliver_requests(mem_now, &net_scratch, tel);
            }

            m.dram_advance(cfg, now, &mut mem_ticks, true, &mut dram_done);
            m.release_replies(now, mem_ticks, tel);

            if !icnt_frozen && m.reply_net.pending() > 0 {
                m.reply_net.tick_into(now, &mut net_scratch);
                unblocked.clear();
                for &(_sm, id) in &net_scratch {
                    progressed = true;
                    m.absorb_reply(cfg, id, now, tel, &mut unblocked);
                }
                for &(us, uw) in &unblocked {
                    if m.sms[us].retired(uw) {
                        // A warp waiting on replies issued its load while
                        // ready, so its compute clock cannot be ahead.
                        debug_assert!(m.sms[us].busy_until[uw] <= now);
                        unfinished[us] -= 1;
                        live_warps -= 1;
                        finishers.push((us, uw));
                    } else {
                        ready_at[us] = ready_at[us].min(now + 1);
                    }
                }
            }
            if !finishers.is_empty() {
                active_sms.retain(|&s| unfinished[s] > 0);
            }

            // --- Termination: emit this cycle's finish events in the
            // reference's scan order (SM-major, then warp index).
            let quiescent = m.quiescent();
            if !finishers.is_empty() {
                finishers.sort_unstable();
                for &(s, l) in &finishers {
                    let gid = l * cfg.num_sms + s;
                    debug_assert_eq!(m.stats.warp_finish_cycle[gid], 0);
                    m.stats.warp_finish_cycle[gid] = now + 1;
                    tel.event(
                        now,
                        Severity::Info,
                        "sm",
                        "warp_finished",
                        gid as u64,
                        s as u64,
                    );
                }
            }
            let any_busy = max_busy > now;
            if quiescent && live_warps == 0 {
                m.stats.total_cycles = now + 1;
                return Ok(());
            }

            // --- Forward-progress watchdog, identical to the reference.
            let wedged = quiescent && !progressed && !any_busy;
            let window = cfg.watchdog_window;
            let starved =
                window > 0 && !progressed && !any_busy && now.saturating_sub(progress_at) >= window;
            if wedged || starved {
                return Err(m.stall_report(now, tel));
            }
            if progressed || any_busy || !m.pending_replies.is_empty() {
                progress_at = now;
            }

            // --- Clock advance: jump straight to the next cycle at
            // which any component can change state.
            let mut next = u64::MAX;
            for &s in &active_sms {
                next = next.min(ready_at[s]);
            }
            if let Some(&Reverse((c, _, _))) = finish_heap.peek() {
                next = next.min(c);
            }
            if let Some(t) = m.req_net.next_event(now) {
                next = next.min(t);
            }
            if let Some(t) = m.reply_net.next_event(now) {
                next = next.min(t);
            }
            if let Some(&Reverse((t, _, _))) = m.pending_replies.peek() {
                next = next.min(t.max(now + 1));
            }
            let min_mt = m.mc_next();
            if min_mt != u64::MAX {
                // The cache stores raw (unclamped) ticks; the reference
                // bound is `next_event(mem_ticks)`, whose clamp
                // distributes over the minimum.
                let min_mt = min_mt.max(mem_ticks);
                // Mem tick `mt` executes in the body of the first
                // core cycle c with (c+1)*mem/core > mt, i.e.
                // c = ceil((mt+1)*core/mem) - 1 — landing there
                // (not earlier, not later) is what keeps the
                // reply-release clamp `max(now + 1)` and the
                // retransmit arrival stamps bit-identical to the
                // reference. The tick-to-cycle map is monotone, so
                // converting the minimum tick is the minimum cycle.
                let c = (min_mt + 1).saturating_mul(core).div_ceil(mem) - 1;
                next = next.min(c.max(now + 1));
            }
            if next <= now || next == u64::MAX {
                // No component advertises an event: the machine is
                // either wedged (the watchdog must run next cycle to
                // see it) or about to be diagnosed. Stepping once is
                // always safe.
                next = now + 1;
            }
            if any_busy || !m.pending_replies.is_empty() {
                // The reference loop refreshes `progress_at` on every
                // cycle of this span; land just behind the jump target
                // so the windowed backstop measures the same distance
                // afterwards.
                if next > now + 1 {
                    progress_at = next - 1;
                }
            } else if window > 0 {
                // Nothing refreshes progress across the gap: never skip
                // past the cycle where the windowed backstop would have
                // fired.
                next = next.min(progress_at.saturating_add(window).max(now + 1));
            }
            // The skipped cycles are exact no-ops, but the reference
            // loop still accounts one issue-stall per SM with
            // unfinished warps on each of them. Done-ness cannot flip
            // inside the span: any finish event in it would have
            // bounded `next`.
            if tel.is_enabled() && next > now + 1 {
                let skipped = next - now - 1;
                tel.profile.issue_stall_cycles += skipped * active_sms.len() as u64;
            }
            now = next;
            if now >= cfg.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: cfg.max_cycles,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceKernel, WarpTrace};

    fn one_warp_kernel(instrs: Vec<TraceInstr>, width: usize) -> TraceKernel {
        TraceKernel::new(vec![WarpTrace::from_instrs(instrs)], width)
    }

    fn sim() -> GpuSimulator {
        GpuSimulator::new(GpuConfig::tiny())
    }

    #[test]
    fn empty_kernel_finishes_immediately() {
        let k = TraceKernel::new(vec![], 4);
        let stats = sim().run(&k, CoalescingPolicy::Baseline, 0).unwrap();
        assert_eq!(stats.total_accesses, 0);
        assert_eq!(stats.num_warps, 0);
        assert!(stats.total_cycles <= 2);
    }

    #[test]
    fn compute_only_kernel_time_matches_trace() {
        let k = one_warp_kernel(vec![TraceInstr::compute(10), TraceInstr::compute(10)], 4);
        let stats = sim().run(&k, CoalescingPolicy::Baseline, 0).unwrap();
        assert!(stats.total_cycles >= 20);
        assert!(stats.total_cycles < 40);
        assert_eq!(stats.total_accesses, 0);
    }

    #[test]
    fn single_load_counts_accesses_and_costs_memory_latency() {
        let k = one_warp_kernel(
            vec![TraceInstr::load(vec![
                Some(0),
                Some(16),
                Some(4096),
                Some(8192),
            ])],
            4,
        );
        let stats = sim().run(&k, CoalescingPolicy::Baseline, 0).unwrap();
        assert_eq!(stats.total_accesses, 3, "lanes 0 and 1 share a block");
        assert_eq!(stats.total_requests, 4);
        // Must include interconnect (2×8) and DRAM (≥ 26 mem cycles ≈ 40 core).
        assert!(stats.total_cycles > 50, "got {}", stats.total_cycles);
    }

    #[test]
    fn disabled_coalescing_issues_more_accesses_and_is_slower() {
        let addrs: Vec<Option<u64>> = (0..4).map(|i| Some(i * 8)).collect();
        let k = one_warp_kernel(vec![TraceInstr::load(addrs)], 4);
        let base = sim().run(&k, CoalescingPolicy::Baseline, 0).unwrap();
        let off = sim().run(&k, CoalescingPolicy::Disabled, 0).unwrap();
        assert_eq!(base.total_accesses, 1);
        assert_eq!(off.total_accesses, 4);
        assert!(off.total_cycles > base.total_cycles);
    }

    #[test]
    fn round_marks_split_time() {
        let k = one_warp_kernel(
            vec![
                TraceInstr::compute(50),
                TraceInstr::RoundMark { round: 1 },
                TraceInstr::compute(100),
                TraceInstr::RoundMark { round: 2 },
            ],
            4,
        );
        let stats = sim().run(&k, CoalescingPolicy::Baseline, 0).unwrap();
        let after1 = stats.cycles_after_round(1);
        let after2 = stats.cycles_after_round(2);
        assert!(
            after1 > 100 && after1 < 120,
            "round 2 takes ~100 cycles, got {after1}"
        );
        assert!(after2 <= 2);
    }

    #[test]
    fn tags_split_access_counts() {
        let k = one_warp_kernel(
            vec![
                TraceInstr::load_tagged(vec![Some(0), Some(4096), None, None], 1),
                TraceInstr::load_tagged(vec![Some(0), Some(1), Some(2), Some(3)], 2),
            ],
            4,
        );
        let stats = sim().run(&k, CoalescingPolicy::Baseline, 0).unwrap();
        assert_eq!(stats.accesses_for_tag(1), 2);
        assert_eq!(stats.accesses_for_tag(2), 1);
        assert_eq!(stats.total_accesses, 3);
    }

    #[test]
    fn more_memory_traffic_takes_more_time() {
        let spread: Vec<Option<u64>> = (0..4).map(|i| Some(i * 4096)).collect();
        let k_light = one_warp_kernel(vec![TraceInstr::load(spread.clone())], 4);
        let heavy: Vec<TraceInstr> = (0..8).map(|_| TraceInstr::load(spread.clone())).collect();
        let k_heavy = one_warp_kernel(heavy, 4);
        let light = sim().run(&k_light, CoalescingPolicy::Baseline, 0).unwrap();
        let heavy = sim().run(&k_heavy, CoalescingPolicy::Baseline, 0).unwrap();
        assert!(heavy.total_cycles > light.total_cycles);
        assert_eq!(heavy.total_accesses, 8 * light.total_accesses);
    }

    #[test]
    fn multi_warp_multi_sm_completes() {
        let cfg = GpuConfig {
            num_sms: 3,
            ..GpuConfig::tiny()
        };
        let trace = WarpTrace::from_instrs(vec![
            TraceInstr::load((0..4).map(|i| Some(i * 256)).collect()),
            TraceInstr::compute(5),
            TraceInstr::load((0..4).map(|i| Some(i * 512)).collect()),
        ]);
        let k = TraceKernel::new(vec![trace; 7], 4);
        let stats = GpuSimulator::new(cfg)
            .run(&k, CoalescingPolicy::Baseline, 0)
            .unwrap();
        assert_eq!(stats.num_warps, 7);
        assert_eq!(stats.total_accesses, 7 * 8);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = WarpTrace::from_instrs(vec![TraceInstr::load(
            (0..4).map(|i| Some(i * 64)).collect(),
        )]);
        let k = TraceKernel::new(vec![trace; 4], 4);
        let p = CoalescingPolicy::rss_rts(2).unwrap();
        let a = sim().run(&k, p, 9).unwrap();
        let b = sim().run(&k, p, 9).unwrap();
        assert_eq!(a, b);
        let c = sim().run(&k, p, 10).unwrap();
        // A different seed draws different subwarps; access counts may
        // differ (not guaranteed, but cycles rarely coincide — allow equality
        // of either one, require equality of totals only for same seed).
        assert_eq!(a.num_warps, c.num_warps);
    }

    #[test]
    fn latency_and_finish_stats_are_recorded() {
        let k = one_warp_kernel(
            vec![TraceInstr::load(vec![Some(0), Some(4096), None, None])],
            4,
        );
        let stats = sim().run(&k, CoalescingPolicy::Baseline, 0).unwrap();
        assert_eq!(stats.warp_finish_cycle.len(), 1);
        assert!(stats.warp_finish_cycle[0] > 0);
        assert!(stats.warp_finish_cycle[0] <= stats.total_cycles);
        // Two accesses, each with a full round trip through icnt + DRAM.
        assert!(
            stats.avg_mem_latency() > 2.0 * 8.0,
            "at least the crossbar latency"
        );
        assert!(stats.mem_latency_sum > 0);
    }

    #[test]
    fn warps_finish_no_later_than_the_kernel() {
        let trace = WarpTrace::from_instrs(vec![
            TraceInstr::load((0..4).map(|i| Some(i * 256)).collect()),
            TraceInstr::compute(20),
        ]);
        let k = TraceKernel::new(vec![trace; 5], 4);
        let cfg = GpuConfig {
            num_sms: 2,
            ..GpuConfig::tiny()
        };
        let stats = GpuSimulator::new(cfg)
            .run(&k, CoalescingPolicy::Baseline, 0)
            .unwrap();
        assert_eq!(stats.warp_finish_cycle.len(), 5);
        for &f in &stats.warp_finish_cycle {
            assert!(f > 0 && f <= stats.total_cycles);
        }
        assert_eq!(
            *stats.warp_finish_cycle.iter().max().unwrap(),
            stats.total_cycles,
            "the last warp defines the kernel end"
        );
    }

    #[test]
    fn mshrs_merge_cross_warp_requests_to_the_same_block() {
        // Two warps on one SM loading the same block back to back.
        let trace = WarpTrace::from_instrs(vec![TraceInstr::load(vec![
            Some(0),
            Some(8),
            Some(16),
            Some(24),
        ])]);
        let k = TraceKernel::new(vec![trace; 2], 4);
        let off = GpuConfig::tiny();
        let on = GpuConfig {
            mshr_entries: 64,
            ..GpuConfig::tiny()
        };
        let stats_off = GpuSimulator::new(off)
            .run(&k, CoalescingPolicy::Baseline, 0)
            .unwrap();
        let stats_on = GpuSimulator::new(on)
            .run(&k, CoalescingPolicy::Baseline, 0)
            .unwrap();
        assert_eq!(stats_off.mshr_merged, 0);
        assert_eq!(stats_on.mshr_merged, 1, "second warp's access piggybacks");
        // Coalesced-access accounting is unchanged (it is pre-MSHR).
        assert_eq!(stats_on.total_accesses, stats_off.total_accesses);
        assert!(stats_on.total_cycles <= stats_off.total_cycles);
    }

    #[test]
    fn mshr_capacity_zero_never_merges() {
        let trace = WarpTrace::from_instrs(vec![TraceInstr::load(vec![Some(0); 4])]);
        let k = TraceKernel::new(vec![trace; 4], 4);
        let stats = sim().run(&k, CoalescingPolicy::Baseline, 0).unwrap();
        assert_eq!(stats.mshr_merged, 0);
    }

    #[test]
    fn mshr_capacity_limits_tracked_blocks() {
        // Capacity 1: only the first in-flight block can absorb merges;
        // requests to other blocks go to memory unmerged.
        let trace = WarpTrace::from_instrs(vec![TraceInstr::load(vec![
            Some(0),
            Some(4096),
            None,
            None,
        ])]);
        let k = TraceKernel::new(vec![trace; 3], 4);
        let cfg = GpuConfig {
            mshr_entries: 1,
            ..GpuConfig::tiny()
        };
        let stats = GpuSimulator::new(cfg)
            .run(&k, CoalescingPolicy::Baseline, 0)
            .unwrap();
        // 3 warps x 2 blocks = 6 accesses; block 0 is tracked, so up to 2
        // of the 4 same-block repeats merge (while in flight).
        assert!(
            stats.mshr_merged >= 1 && stats.mshr_merged <= 3,
            "merged {}",
            stats.mshr_merged
        );
    }

    #[test]
    fn l1_hits_skip_the_memory_system() {
        // Same block loaded twice by the same warp: second load hits.
        let k = one_warp_kernel(
            vec![
                TraceInstr::load(vec![Some(0), None, None, None]),
                TraceInstr::load(vec![Some(8), None, None, None]),
            ],
            4,
        );
        let cfg = GpuConfig {
            l1_sets: 16,
            ..GpuConfig::tiny()
        };
        let stats = GpuSimulator::new(cfg)
            .run(&k, CoalescingPolicy::Baseline, 0)
            .unwrap();
        assert_eq!(stats.l1_hits, 1);
        assert_eq!(stats.total_accesses, 2, "coalescer accounting is pre-L1");

        let stats_off = sim().run(&k, CoalescingPolicy::Baseline, 0).unwrap();
        assert_eq!(stats_off.l1_hits, 0);
        assert!(stats.total_cycles < stats_off.total_cycles);
    }

    #[test]
    fn cached_table_flattens_timing() {
        // Repeatedly load random-ish blocks from a 16-block table; once
        // resident, every load hits and the per-load time is constant.
        let blocks: Vec<u64> = (0..16).map(|i| i * 64).collect();
        let mut instrs = Vec::new();
        for r in 0..8u64 {
            for i in 0..4u64 {
                let b = blocks[((r * 7 + i * 3) % 16) as usize];
                instrs.push(TraceInstr::load(vec![Some(b), None, None, None]));
            }
        }
        let k = one_warp_kernel(instrs, 4);
        let cfg = GpuConfig {
            l1_sets: 16,
            l1_ways: 4,
            ..GpuConfig::tiny()
        };
        let stats = GpuSimulator::new(cfg)
            .run(&k, CoalescingPolicy::Baseline, 0)
            .unwrap();
        // 16 compulsory misses, everything else hits.
        assert_eq!(stats.l1_hits, 32 - 16);
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let cfg = GpuConfig {
            max_cycles: 10,
            ..GpuConfig::tiny()
        };
        let k = one_warp_kernel(vec![TraceInstr::compute(1000)], 4);
        let err = GpuSimulator::new(cfg)
            .run(&k, CoalescingPolicy::Baseline, 0)
            .unwrap_err();
        assert_eq!(err, SimError::CycleLimit { limit: 10 });
        assert!(err.to_string().contains("cycle limit"));
    }

    #[test]
    fn invalid_config_is_reported() {
        let cfg = GpuConfig {
            num_sms: 0,
            ..GpuConfig::tiny()
        };
        let k = one_warp_kernel(vec![], 4);
        assert!(matches!(
            GpuSimulator::new(cfg).run(&k, CoalescingPolicy::Baseline, 0),
            Err(SimError::Config(_))
        ));
    }

    #[test]
    fn policy_mismatch_is_reported() {
        // FSS with 8 subwarps cannot split a 4-thread warp.
        let k = one_warp_kernel(vec![TraceInstr::compute(1)], 4);
        let p = CoalescingPolicy::fss(8).unwrap();
        assert!(matches!(sim().run(&k, p, 0), Err(SimError::Policy(_))));
    }

    fn memory_kernel() -> TraceKernel {
        let trace = WarpTrace::from_instrs(vec![
            TraceInstr::load((0..4).map(|i| Some(i * 4096)).collect()),
            TraceInstr::compute(5),
            TraceInstr::load((0..4).map(|i| Some(i * 256)).collect()),
        ]);
        TraceKernel::new(vec![trace; 3], 4)
    }

    #[test]
    fn inactive_fault_plan_changes_nothing() {
        let k = memory_kernel();
        let clean = sim().run(&k, CoalescingPolicy::Baseline, 1).unwrap();
        let faulted = sim()
            .run_faulted(&k, CoalescingPolicy::Baseline, 1, &crate::FaultPlan::none())
            .unwrap();
        assert_eq!(clean, faulted);
    }

    #[test]
    fn invalid_fault_plan_is_a_config_error() {
        let k = memory_kernel();
        let plan = crate::FaultPlan::seeded(0).with_drop(2.0, 0);
        let err = sim()
            .run_faulted(&k, CoalescingPolicy::Baseline, 1, &plan)
            .unwrap_err();
        match err {
            SimError::Config(msg) => assert!(msg.contains("fault plan"), "{msg}"),
            other => panic!("expected Config, got {other:?}"),
        }
    }

    #[test]
    fn lost_replies_stall_in_bounded_time_with_a_diagnostic() {
        // Drop 100% of the only controller's replies with no retries:
        // every memory warp wedges. The exact livelock detector must fire
        // long before the 500M-cycle limit.
        let k = memory_kernel();
        let plan = crate::FaultPlan::seeded(5).with_mc_drop(0, 1.0, 0);
        let err = sim()
            .run_faulted(&k, CoalescingPolicy::Baseline, 1, &plan)
            .unwrap_err();
        match err {
            SimError::Stalled {
                cycle,
                outstanding,
                diagnostic,
                ..
            } => {
                assert!(cycle < 100_000, "detected at cycle {cycle}");
                assert!(outstanding > 0);
                assert!(diagnostic.contains("sm 0 warp"), "{diagnostic}");
                assert!(diagnostic.contains("replies were lost"), "{diagnostic}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn retransmits_recover_dropped_replies() {
        // Every reply is dropped once, then retransmitted successfully:
        // the run completes, slower, with identical access accounting.
        let k = memory_kernel();
        let clean = sim().run(&k, CoalescingPolicy::Baseline, 1).unwrap();
        let plan = crate::FaultPlan::seeded(6).with_drop(0.5, 8);
        let faulted = sim()
            .run_faulted(&k, CoalescingPolicy::Baseline, 1, &plan)
            .unwrap();
        assert!(faulted.fault_retries > 0, "a drop must have fired");
        assert_eq!(faulted.replies_lost, 0);
        assert_eq!(faulted.dropped_replies, faulted.fault_retries);
        assert_eq!(faulted.total_accesses, clean.total_accesses);
        assert_eq!(faulted.total_requests, clean.total_requests);
        assert!(faulted.total_cycles > clean.total_cycles);
    }

    #[test]
    fn reply_jitter_slows_the_run_but_not_the_access_counts() {
        let k = memory_kernel();
        let clean = sim().run(&k, CoalescingPolicy::Baseline, 1).unwrap();
        let plan = crate::FaultPlan::seeded(7)
            .with_jitter(crate::ReplyJitter::Uniform { min: 200, max: 400 });
        let faulted = sim()
            .run_faulted(&k, CoalescingPolicy::Baseline, 1, &plan)
            .unwrap();
        assert!(faulted.total_cycles > clean.total_cycles + 100);
        assert_eq!(faulted.total_accesses, clean.total_accesses);
        assert_eq!(faulted.accesses_by_tag, clean.accesses_by_tag);
    }

    #[test]
    fn backpressure_bursts_slow_the_run() {
        let k = memory_kernel();
        let clean = sim().run(&k, CoalescingPolicy::Baseline, 1).unwrap();
        let plan = crate::FaultPlan::seeded(8).with_backpressure(0.05, 32);
        let faulted = sim()
            .run_faulted(&k, CoalescingPolicy::Baseline, 1, &plan)
            .unwrap();
        assert!(faulted.total_cycles > clean.total_cycles);
        assert_eq!(faulted.total_accesses, clean.total_accesses);
    }

    #[test]
    fn permanent_backpressure_trips_the_windowed_watchdog() {
        // The interconnect freezes forever while packets are pending:
        // the machine is never quiescent, so only the windowed backstop
        // can catch it.
        let cfg = GpuConfig {
            watchdog_window: 2_000,
            ..GpuConfig::tiny()
        };
        let k = memory_kernel();
        let plan = crate::FaultPlan::seeded(9).with_backpressure(1.0, u64::MAX / 2);
        let err = GpuSimulator::new(cfg)
            .run_faulted(&k, CoalescingPolicy::Baseline, 1, &plan)
            .unwrap_err();
        match err {
            SimError::Stalled {
                cycle, diagnostic, ..
            } => {
                assert!(cycle < 100_000, "detected at cycle {cycle}");
                assert!(diagnostic.contains("req_net"), "{diagnostic}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_window_zero_disables_the_backstop() {
        let cfg = GpuConfig {
            watchdog_window: 0,
            max_cycles: 5_000,
            ..GpuConfig::tiny()
        };
        let k = memory_kernel();
        let plan = crate::FaultPlan::seeded(9).with_backpressure(1.0, u64::MAX / 2);
        let err = GpuSimulator::new(cfg)
            .run_faulted(&k, CoalescingPolicy::Baseline, 1, &plan)
            .unwrap_err();
        assert_eq!(err, SimError::CycleLimit { limit: 5_000 });
    }

    #[test]
    fn stalled_display_names_the_details() {
        let err = SimError::Stalled {
            cycle: 42,
            outstanding: 3,
            diagnostic: "sm 0 warp 1".into(),
            trail: vec![],
        };
        let s = err.to_string();
        assert!(s.contains("42") && s.contains("3 replies") && s.contains("sm 0 warp 1"));
        assert!(!s.contains("recent events"), "no trail section when empty");

        let err = SimError::Stalled {
            cycle: 42,
            outstanding: 3,
            diagnostic: "sm 0 warp 1".into(),
            trail: vec!["[error @42] fault.reply_lost a=0 b=7".into()],
        };
        let s = err.to_string();
        assert!(s.contains("recent events"), "{s}");
        assert!(s.contains("fault.reply_lost"), "{s}");
    }

    #[test]
    fn instrumentation_does_not_perturb_timing() {
        let k = memory_kernel();
        let plain = sim().run(&k, CoalescingPolicy::Baseline, 1).unwrap();
        let mut tel = crate::SimTelemetry::new();
        let instrumented = sim()
            .run_instrumented(
                &k,
                LaunchPolicy::Uniform(CoalescingPolicy::Baseline),
                1,
                &FaultPlan::none(),
                &mut tel,
            )
            .unwrap();
        assert_eq!(plain, instrumented);
        // The profile saw every load and every reply.
        assert_eq!(tel.profile.accesses_per_load.count(), 2 * 3);
        assert_eq!(tel.profile.mem_latency.count(), plain.total_accesses);
        assert_eq!(
            tel.profile.mcs.iter().map(|m| m.serviced).sum::<u64>(),
            plain.total_accesses
        );
        // Lifecycle events are present with cycle timestamps.
        assert!(tel.events.events().any(|e| e.code == "launch"));
        assert!(tel.events.events().any(|e| e.code == "done"));
        assert!(
            tel.events
                .events()
                .filter(|e| e.code == "warp_finished")
                .count()
                == 3
        );
    }

    #[test]
    fn instrumented_runs_are_deterministic() {
        let k = memory_kernel();
        let p = LaunchPolicy::Uniform(CoalescingPolicy::rss_rts(2).unwrap());
        let mut ta = crate::SimTelemetry::new();
        let mut tb = crate::SimTelemetry::new();
        let a = sim()
            .run_instrumented(&k, p, 9, &FaultPlan::none(), &mut ta)
            .unwrap();
        let b = sim()
            .run_instrumented(&k, p, 9, &FaultPlan::none(), &mut tb)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(ta.profile, tb.profile);
        assert_eq!(
            ta.events.events().collect::<Vec<_>>(),
            tb.events.events().collect::<Vec<_>>()
        );
    }

    #[test]
    fn instrumented_stall_carries_an_event_trail() {
        let k = memory_kernel();
        let plan = crate::FaultPlan::seeded(5).with_mc_drop(0, 1.0, 0);
        let mut tel = crate::SimTelemetry::new();
        let err = sim()
            .run_instrumented(
                &k,
                LaunchPolicy::Uniform(CoalescingPolicy::Baseline),
                1,
                &plan,
                &mut tel,
            )
            .unwrap_err();
        match err {
            SimError::Stalled { trail, .. } => {
                assert!(!trail.is_empty());
                assert!(trail.len() <= STALL_TRAIL_EVENTS);
                assert!(
                    trail.iter().any(|l| l.contains("reply_lost")),
                    "the lost reply must appear in the trail: {trail:?}"
                );
                assert!(
                    trail.last().is_some_and(|l| l.contains("sim.stalled")),
                    "the stall event itself closes the trail: {trail:?}"
                );
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    /// Runs one (kernel, launch, seed, plan) through both cores with
    /// full telemetry and asserts bit-identical stats, profiles, and
    /// event streams.
    fn assert_cores_agree(
        sim: &GpuSimulator,
        k: &dyn Kernel,
        launch: LaunchPolicy,
        seed: u64,
        plan: &FaultPlan,
    ) {
        let mut te = crate::SimTelemetry::new();
        let mut tr = crate::SimTelemetry::new();
        let event = sim.run_instrumented(k, launch, seed, plan, &mut te);
        let reference = sim.run_instrumented_reference(k, launch, seed, plan, &mut tr);
        assert_eq!(event, reference);
        assert_eq!(te.profile, tr.profile);
        assert_eq!(
            te.events.events().collect::<Vec<_>>(),
            tr.events.events().collect::<Vec<_>>()
        );
    }

    #[test]
    fn event_core_matches_the_reference_loop() {
        let sim = sim();
        let mem = memory_kernel();
        let compute = one_warp_kernel(
            vec![
                TraceInstr::compute(100),
                TraceInstr::load((0..4).map(|i| Some(i * 4096)).collect()),
                TraceInstr::compute(3),
            ],
            4,
        );
        for seed in [0, 1, 9] {
            for policy in [
                CoalescingPolicy::Baseline,
                CoalescingPolicy::Disabled,
                CoalescingPolicy::rss_rts(2).unwrap(),
            ] {
                let launch = LaunchPolicy::Uniform(policy);
                assert_cores_agree(&sim, &mem, launch, seed, &FaultPlan::none());
                assert_cores_agree(&sim, &compute, launch, seed, &FaultPlan::none());
            }
        }
    }

    #[test]
    fn event_core_matches_the_reference_under_skip_safe_faults() {
        // Jitter and drop/retransmit plans draw randomness per memory
        // event, so the skip-ahead core must replay their streams
        // exactly; only backpressure forces single-stepping.
        let sim = sim();
        let k = memory_kernel();
        let jitter = crate::FaultPlan::seeded(7)
            .with_jitter(crate::ReplyJitter::Uniform { min: 200, max: 400 });
        let drops = crate::FaultPlan::seeded(6).with_drop(0.5, 8);
        let launch = LaunchPolicy::Uniform(CoalescingPolicy::Baseline);
        assert!(!jitter.perturbs_per_cycle());
        assert!(!drops.perturbs_per_cycle());
        assert_cores_agree(&sim, &k, launch, 1, &jitter);
        assert_cores_agree(&sim, &k, launch, 1, &drops);
    }

    #[test]
    fn event_core_matches_the_reference_on_idle_heavy_configs() {
        // Huge interconnect latency: almost every cycle is a dead tick,
        // maximizing skip distance.
        let cfg = GpuConfig {
            icnt_latency: 700,
            ..GpuConfig::tiny()
        };
        let sim = GpuSimulator::new(cfg);
        let k = memory_kernel();
        assert_cores_agree(
            &sim,
            &k,
            LaunchPolicy::Uniform(CoalescingPolicy::Baseline),
            3,
            &FaultPlan::none(),
        );
    }

    #[test]
    fn event_core_reproduces_reference_stalls() {
        // A lost reply must produce the same Stalled error (cycle,
        // diagnostic, trail) from both cores.
        let k = memory_kernel();
        let plan = crate::FaultPlan::seeded(5).with_mc_drop(0, 1.0, 0);
        let launch = LaunchPolicy::Uniform(CoalescingPolicy::Baseline);
        let mut te = crate::SimTelemetry::new();
        let mut tr = crate::SimTelemetry::new();
        let event = sim()
            .run_instrumented(&k, launch, 1, &plan, &mut te)
            .unwrap_err();
        let reference = sim()
            .run_instrumented_reference(&k, launch, 1, &plan, &mut tr)
            .unwrap_err();
        assert_eq!(event, reference);
    }

    #[test]
    fn event_core_reproduces_the_cycle_limit() {
        let cfg = GpuConfig {
            max_cycles: 10,
            ..GpuConfig::tiny()
        };
        let k = one_warp_kernel(vec![TraceInstr::compute(1000)], 4);
        let err = GpuSimulator::new(cfg.clone())
            .run(&k, CoalescingPolicy::Baseline, 0)
            .unwrap_err();
        let ref_err = GpuSimulator::new(cfg)
            .run_instrumented_reference(
                &k,
                LaunchPolicy::Uniform(CoalescingPolicy::Baseline),
                0,
                &FaultPlan::none(),
                &mut crate::SimTelemetry::off(),
            )
            .unwrap_err();
        assert_eq!(err, SimError::CycleLimit { limit: 10 });
        assert_eq!(err, ref_err);
    }

    #[test]
    fn event_core_skips_while_visiting_fewer_cycles_is_invisible() {
        // The windowed backstop must fire at the same cycle whether the
        // span to starvation was walked or skipped: shrink the window
        // below the (huge) interconnect latency so the starve cycle
        // falls inside a skippable gap.
        let cfg = GpuConfig {
            watchdog_window: 50,
            icnt_latency: 10_000,
            ..GpuConfig::tiny()
        };
        let k = memory_kernel();
        let launch = LaunchPolicy::Uniform(CoalescingPolicy::Baseline);
        let sim = GpuSimulator::new(cfg);
        let event = sim
            .run_instrumented(
                &k,
                launch,
                1,
                &FaultPlan::none(),
                &mut crate::SimTelemetry::off(),
            )
            .map(|s| s.total_cycles);
        let reference = sim
            .run_instrumented_reference(
                &k,
                launch,
                1,
                &FaultPlan::none(),
                &mut crate::SimTelemetry::off(),
            )
            .map(|s| s.total_cycles);
        assert_eq!(event, reference);
    }

    #[test]
    fn zero_length_traces_finish_at_cycle_zero_in_both_cores() {
        // Empty-trace warps never issue; their finish events come from
        // the event core's seeded heap and must match the reference.
        let k = TraceKernel::new(
            vec![
                WarpTrace::from_instrs(vec![]),
                WarpTrace::from_instrs(vec![TraceInstr::load(
                    (0..4).map(|i| Some(i * 4096)).collect(),
                )]),
                WarpTrace::from_instrs(vec![]),
            ],
            4,
        );
        let launch = LaunchPolicy::Uniform(CoalescingPolicy::Baseline);
        let sim = sim();
        assert_cores_agree(&sim, &k, launch, 2, &FaultPlan::none());
        let stats = sim.run(&k, CoalescingPolicy::Baseline, 2).unwrap();
        assert_eq!(stats.warp_finish_cycle[0], 1, "empty warp is done at once");
        assert_eq!(stats.warp_finish_cycle[2], 1);
        assert!(stats.warp_finish_cycle[1] > 1);
    }

    #[test]
    fn event_core_matches_the_reference_with_many_warps_per_scheduler() {
        // LRR with far more warps than issue slots: the round-robin
        // cursor must evolve identically even though the event core
        // skips scheduler selection on gated SMs.
        let cfg = GpuConfig {
            scheduler: crate::SchedulerPolicy::Lrr,
            ..GpuConfig::tiny()
        };
        let trace = WarpTrace::from_instrs(vec![
            TraceInstr::load((0..4).map(|i| Some(i * 4096)).collect()),
            TraceInstr::compute(7),
            TraceInstr::load((0..4).map(|i| Some(i * 256)).collect()),
        ]);
        let k = TraceKernel::new(vec![trace; 9], 4);
        let sim = GpuSimulator::new(cfg);
        for seed in [0, 5] {
            assert_cores_agree(
                &sim,
                &k,
                LaunchPolicy::Uniform(CoalescingPolicy::Baseline),
                seed,
                &FaultPlan::none(),
            );
        }
    }
}
