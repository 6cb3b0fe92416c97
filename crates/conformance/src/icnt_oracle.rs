//! The crossbar differential oracle.
//!
//! `rcoal_gpu_sim::Crossbar` keeps its packets in flight in two FIFOs:
//! one in injection order, one for packets a busy destination port
//! deferred. The ejection stage merges their heads by
//! `(arrival, sequence)`. That is exact only because injection runs in
//! cycle order with a fixed latency, and because every deferred packet
//! is due at the next tick. [`ReferenceCrossbar`] is the heap-based
//! crossbar the FIFOs replaced, kept verbatim: one min-heap over every
//! packet in flight, which needs neither argument.
//!
//! [`check_crossbar_case`] drives both through the same seeded schedule
//! and diffs every `(cycle, dst, id)` delivery, `pending()`,
//! `deferred_total()` and `next_event` after each visited cycle. The
//! corpus covers 1–15 sources (plus a few past 64, the second word of
//! the source mask), 1–6 destinations, injection and ejection rates
//! 1–3, latencies 0–20, several sources flooding one port, frozen
//! spans, and skip-ahead visits that land only on advertised events
//! and call `sync` before injecting, as the event-driven core does.

use crate::report::SectionReport;
use rcoal_gpu_sim::Crossbar;
use rcoal_rng::{Rng, SeedableRng, StdRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A packet traversing the crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packet {
    dst: usize,
    id: u64,
}

/// The heap-based crossbar, kept verbatim from the simulator as the
/// oracle for `rcoal_gpu_sim::Crossbar`: packets in flight, including
/// those a busy port defers, share one min-heap on
/// `(arrival, sequence)`.
///
/// One direction of the on-chip crossbar interconnect (Table I: one
/// crossbar per direction).
///
/// Each source may inject a bounded number of packets per cycle, packets
/// take a fixed pipeline latency, and each destination port drains a
/// bounded number of packets per cycle — enough structure to make many
/// memory accesses *cost time*, which is what the timing channel measures.
///
/// The injection stage is virtualized for the skip-ahead simulator core:
/// the crossbar remembers the next cycle whose injection has not run
/// (`next_tick`), and [`ReferenceCrossbar::tick_into`] replays the injection of
/// any missed cycles — identical pops, arrival stamps, and sequence
/// numbers to a caller that ticked every cycle — before processing the
/// current one. Buffered packets therefore never pin the clock: the
/// earliest a queued packet can matter is its head-of-line arrival,
/// `now + 1 + latency`.
#[derive(Debug, Clone)]
pub struct ReferenceCrossbar {
    latency: u32,
    injection_rate: usize,
    ejection_rate: usize,
    src_queues: Vec<VecDeque<Packet>>,
    /// Packets buffered across all source queues (kept so the injection
    /// catch-up can skip drained spans and `next_event` is O(1)).
    queued: usize,
    /// Buffered + in-flight packets (constant-time [`ReferenceCrossbar::pending`]).
    pending_count: usize,
    /// The next cycle whose injection stage has not run yet.
    next_tick: u64,
    /// Packets in flight: (arrival cycle, sequence, packet), drained in
    /// arrival order per destination port.
    in_flight: BinaryHeap<Reverse<(u64, u64, usize, u64)>>,
    seq: u64,
    /// Per-tick scratch: packets delivered per destination port this
    /// cycle. Kept on the struct so ticking allocates nothing.
    port_count: Vec<(usize, usize)>,
    /// Per-tick scratch: packets deferred by port contention.
    deferred: Vec<Reverse<(u64, u64, usize, u64)>>,
    /// Running count of deferrals — each is one cycle a packet lost to
    /// ejection-port contention (the interconnect-serialization signal).
    deferred_total: u64,
}

impl ReferenceCrossbar {
    /// Creates a crossbar with `num_src` source ports.
    pub fn new(num_src: usize, latency: u32, injection_rate: usize, ejection_rate: usize) -> Self {
        ReferenceCrossbar {
            latency,
            injection_rate: injection_rate.max(1),
            ejection_rate: ejection_rate.max(1),
            src_queues: vec![VecDeque::new(); num_src],
            queued: 0,
            pending_count: 0,
            next_tick: 0,
            in_flight: BinaryHeap::new(),
            seq: 0,
            port_count: Vec::new(),
            deferred: Vec::new(),
            deferred_total: 0,
        }
    }

    /// Queues packet `id` for delivery from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a valid source port.
    pub fn inject(&mut self, src: usize, dst: usize, id: u64) {
        self.src_queues[src].push_back(Packet { dst, id });
        self.queued += 1;
        self.pending_count += 1;
    }

    /// Number of packets buffered or in flight.
    pub fn pending(&self) -> usize {
        self.pending_count
    }

    /// Total packet-cycles lost to ejection-port contention since
    /// construction (each deferral delays one packet by one cycle).
    pub fn deferred_total(&self) -> u64 {
        self.deferred_total
    }

    /// The injection stage of cycle `now`: each source port moves up to
    /// `injection_rate` packets into the pipeline.
    fn inject_stage(&mut self, now: u64) {
        if self.queued == 0 {
            return;
        }
        for q in &mut self.src_queues {
            for _ in 0..self.injection_rate {
                let Some(p) = q.pop_front() else { break };
                self.queued -= 1;
                self.in_flight.push(Reverse((
                    now + u64::from(self.latency),
                    self.seq,
                    p.dst,
                    p.id,
                )));
                self.seq += 1;
            }
        }
    }

    /// Replays the injection stage of every unfrozen cycle before `now`
    /// that the caller skipped. Once the source queues drain, the rest
    /// of the span is a no-op and is crossed in one step.
    fn catch_up(&mut self, now: u64) {
        while self.next_tick < now {
            if self.queued == 0 {
                self.next_tick = now;
                break;
            }
            let t = self.next_tick;
            self.inject_stage(t);
            self.next_tick = t + 1;
        }
    }

    /// Advances the crossbar to cycle `now`, appending packets that
    /// complete delivery this cycle to `delivered` as `(dst, id)` pairs.
    ///
    /// The clock may have jumped since the last tick: missed injection
    /// cycles are replayed first (see the type docs), so results are
    /// bit-identical to ticking every cycle.
    ///
    /// The output buffer comes from the caller (cleared here) so the
    /// per-cycle network stage reuses one scratch vector for the whole
    /// run instead of allocating a fresh `Vec` every tick.
    pub fn tick_into(&mut self, now: u64, delivered: &mut Vec<(usize, u64)>) {
        delivered.clear();
        self.catch_up(now);
        self.inject_stage(now);
        self.next_tick = now + 1;
        // Ejection stage: each destination port drains up to
        // `ejection_rate` arrived packets; the rest wait at the port.
        self.port_count.clear();
        self.deferred.clear();
        while let Some(&Reverse((arrive, seq, dst, id))) = self.in_flight.peek() {
            if arrive > now {
                break;
            }
            self.in_flight.pop();
            let count = match self.port_count.iter_mut().find(|(p, _)| *p == dst) {
                Some((_, c)) => {
                    *c += 1;
                    *c
                }
                None => {
                    self.port_count.push((dst, 1));
                    1
                }
            };
            if count <= self.ejection_rate {
                delivered.push((dst, id));
                self.pending_count -= 1;
            } else {
                // Port contention: retry next cycle.
                self.deferred_total += 1;
                self.deferred.push(Reverse((arrive + 1, seq, dst, id)));
            }
        }
        self.in_flight.extend(self.deferred.drain(..));
    }

    /// Replays the injection stages of all skipped cycles before `now`
    /// without running cycle `now` itself.
    ///
    /// A skip-ahead caller must invoke this at the start of each visited
    /// cycle, *before* queueing that cycle's packets: otherwise the
    /// catch-up replay of the skipped span would see packets that did
    /// not exist yet and inject them cycles too early.
    pub fn sync(&mut self, now: u64) {
        self.catch_up(now);
    }

    /// Marks cycle `now` as frozen (interconnect backpressure): the
    /// injection stage of `now` never runs and nothing is ejected, but
    /// packets keep their queue positions. Unfrozen cycles the caller
    /// skipped before `now` are replayed first.
    pub fn freeze(&mut self, now: u64) {
        self.catch_up(now);
        self.next_tick = now + 1;
    }

    /// The next cycle (> `now`) at which ticking this crossbar can
    /// deliver or defer a packet, or `None` if it is empty.
    ///
    /// In-flight packets matter at their arrival cycles (deferred
    /// packets re-enter with `arrive = now + 1`, covered by the same
    /// bound). A buffered packet cannot reach a port before it is
    /// injected — at the earliest next cycle — and has traversed the
    /// pipeline; injection itself needs no visit, because
    /// [`ReferenceCrossbar::tick_into`] replays missed injection cycles exactly.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut next = u64::MAX;
        if let Some(&Reverse((arrive, _, _, _))) = self.in_flight.peek() {
            next = arrive.max(now + 1);
        }
        if self.queued > 0 {
            next = next.min(now + 1 + u64::from(self.latency));
        }
        (next != u64::MAX).then_some(next)
    }
}

/// One seeded crossbar schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XbarCase {
    /// Source ports.
    pub num_src: usize,
    /// Destination ports packets are addressed to.
    pub num_dst: usize,
    /// Pipeline latency in cycles.
    pub latency: u32,
    /// Packets each source injects per cycle.
    pub injection_rate: usize,
    /// Packets each destination port drains per cycle.
    pub ejection_rate: usize,
    /// Packets as `(cycle queued, src, dst)`, sorted by cycle; a
    /// packet's id is its index.
    pub packets: Vec<(u64, usize, usize)>,
    /// Frozen cycles (interconnect backpressure), sorted.
    pub frozen: Vec<u64>,
    /// Visit only the cycles `next_event` advertises, plus those that
    /// queue a packet or are frozen, calling `sync` before queueing.
    /// Otherwise every cycle is ticked.
    pub skip_ahead: bool,
}

/// Drives the library crossbar and [`ReferenceCrossbar`] through `case`
/// in lockstep. Returns human-readable mismatches (empty = exact
/// agreement); the first divergence ends the case.
pub fn check_crossbar_case(case: &XbarCase) -> Vec<String> {
    let (src, lat, inj, ej) = (
        case.num_src,
        case.latency,
        case.injection_rate,
        case.ejection_rate,
    );
    let mut lib = Crossbar::new(src, lat, inj, ej);
    let mut oracle = ReferenceCrossbar::new(src, lat, inj, ej);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    // Every packet drains within its queueing cycle, the frozen span,
    // one pipeline traversal, and one ejection slot per packet ahead.
    let last = case.packets.last().map_or(0, |p| p.0);
    let horizon = last
        + case.frozen.len() as u64
        + u64::from(case.latency)
        + 2 * case.packets.len() as u64
        + 2;
    let mut next_packet = 0;
    let mut now = 0u64;
    loop {
        if case.skip_ahead {
            lib.sync(now);
            oracle.sync(now);
        }
        while let Some(&(_, src, dst)) = case.packets.get(next_packet).filter(|p| p.0 == now) {
            lib.inject(src, dst, next_packet as u64);
            oracle.inject(src, dst, next_packet as u64);
            next_packet += 1;
        }
        if case.frozen.binary_search(&now).is_ok() {
            lib.freeze(now);
            oracle.freeze(now);
        } else {
            lib.tick_into(now, &mut got);
            oracle.tick_into(now, &mut want);
            if got != want {
                return vec![format!(
                    "cycle {now}: delivered (dst, id) {got:?}, reference {want:?}"
                )];
            }
        }
        let (lib_state, oracle_state) = (
            (lib.pending(), lib.deferred_total(), lib.next_event(now)),
            (
                oracle.pending(),
                oracle.deferred_total(),
                oracle.next_event(now),
            ),
        );
        if lib_state != oracle_state {
            return vec![format!(
                "cycle {now}: (pending, deferred_total, next_event) {lib_state:?}, \
                 reference {oracle_state:?}"
            )];
        }
        if next_packet == case.packets.len() && oracle.pending() == 0 {
            return Vec::new();
        }
        now = if case.skip_ahead {
            let queued = case.packets.get(next_packet).map_or(u64::MAX, |p| p.0);
            let frozen = case
                .frozen
                .iter()
                .find(|&&f| f > now)
                .copied()
                .unwrap_or(u64::MAX);
            oracle_state.2.unwrap_or(u64::MAX).min(queued).min(frozen)
        } else {
            now + 1
        };
        if now > horizon {
            return vec![format!(
                "{} packet(s) still pending past cycle {horizon}",
                oracle.pending()
            )];
        }
    }
}

/// The seeded schedule for case `case`. Cycling through case indices
/// covers every combination of flooding one port, frozen spans and
/// skip-ahead visits within twelve consecutive cases.
pub fn arb_crossbar_case(rng: &mut StdRng, case: usize) -> XbarCase {
    let num_src = if case % 16 == 15 {
        rng.gen_range(65usize..131)
    } else {
        rng.gen_range(1usize..16)
    };
    let num_dst = rng.gen_range(1usize..7);
    let flood = case.is_multiple_of(3);
    let span = rng.gen_range(1u64..61);
    let n = rng.gen_range(1usize..121);
    let mut packets: Vec<(u64, usize, usize)> = (0..n)
        .map(|_| {
            let dst = if flood { 0 } else { rng.gen_range(0..num_dst) };
            (rng.gen_range(0..span), rng.gen_range(0..num_src), dst)
        })
        .collect();
    packets.sort_by_key(|p| p.0);
    let mut frozen = Vec::new();
    if case % 4 >= 2 {
        for _ in 0..rng.gen_range(1usize..4) {
            let start = rng.gen_range(0..span + 20);
            frozen.extend(start..start + rng.gen_range(1u64..9));
        }
        frozen.sort_unstable();
        frozen.dedup();
    }
    XbarCase {
        num_src,
        num_dst,
        latency: rng.gen_range(0u32..21),
        injection_rate: rng.gen_range(1usize..4),
        ejection_rate: rng.gen_range(1usize..4),
        packets,
        frozen,
        skip_ahead: case % 2 == 1,
    }
}

/// Crossbar differential section: `n` seeded schedules.
pub fn section(seed: u64, n: usize) -> SectionReport {
    let mut section = SectionReport::new("crossbar oracle");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1c47);
    for case in 0..n {
        section.cases += 1;
        let xc = arb_crossbar_case(&mut rng, case);
        for f in check_crossbar_case(&xc) {
            section.failures.push(format!(
                "case {case} ({} src, {} dst, latency {}, rates {}/{}, {} packet(s), \
                 {} frozen, skip-ahead {}): {f}",
                xc.num_src,
                xc.num_dst,
                xc.latency,
                xc.injection_rate,
                xc.ejection_rate,
                xc.packets.len(),
                xc.frozen.len(),
                xc.skip_ahead
            ));
        }
    }
    section
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_every_mode() {
        let mut rng = StdRng::seed_from_u64(3);
        let cases: Vec<XbarCase> = (0..12).map(|i| arb_crossbar_case(&mut rng, i)).collect();
        for frozen in [false, true] {
            for skip_ahead in [false, true] {
                assert!(
                    cases
                        .iter()
                        .any(|c| c.frozen.is_empty() != frozen && c.skip_ahead == skip_ahead),
                    "no case with frozen={frozen} skip_ahead={skip_ahead}"
                );
            }
        }
        // Every third case floods port 0.
        assert!(cases
            .iter()
            .step_by(3)
            .all(|c| c.packets.iter().all(|p| p.2 == 0)));
    }

    #[test]
    fn contended_port_schedules_agree() {
        // Fifteen sources flood one port at ejection rate 1: deferred
        // packets and fresh arrivals compete for the port on every
        // cycle, which is where the merge order decides delivery.
        let packets = (0..45).map(|i| (i / 15, (i % 15) as usize, 0)).collect();
        for skip_ahead in [false, true] {
            let case = XbarCase {
                num_src: 15,
                num_dst: 1,
                latency: 3,
                injection_rate: 2,
                ejection_rate: 1,
                packets: Vec::clone(&packets),
                frozen: vec![4, 5, 9],
                skip_ahead,
            };
            assert_eq!(check_crossbar_case(&case), Vec::<String>::new());
        }
    }

    #[test]
    fn section_passes() {
        let s = section(1, 48);
        assert_eq!(s.cases, 48);
        assert!(s.passed(), "{:?}", s.failures);
    }
}
