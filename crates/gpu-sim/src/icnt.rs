use std::collections::VecDeque;

/// A packet traversing the crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packet {
    dst: usize,
    id: u64,
}

/// A packet in the pipeline, stamped with the cycle it reaches its
/// destination port and its injection sequence number.
#[derive(Debug, Clone, Copy)]
struct Flit {
    arrive: u64,
    seq: u64,
    packet: Packet,
}

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
/// (`next_tick`), and [`Crossbar::tick_into`] replays the injection of
/// any missed cycles — identical pops, arrival stamps, and sequence
/// numbers to a caller that ticked every cycle — before processing the
/// current one. Buffered packets therefore never pin the clock: the
/// earliest a queued packet can matter is its head-of-line arrival,
/// `now + 1 + latency`.
///
/// Packets in flight need no priority queue. Injection runs in cycle
/// order and the latency is fixed, so every new packet lands at the
/// back of `in_flight` already sorted by `(arrive, seq)`. Packets a busy
/// port defers go to a second FIFO, `retry`, which is sorted the same
/// way; the ejection stage merges the two heads, which is exactly the
/// order a min-heap over both would pop.
#[derive(Debug, Clone)]
pub struct Crossbar {
    latency: u32,
    injection_rate: usize,
    ejection_rate: usize,
    src_queues: Vec<VecDeque<Packet>>,
    /// Bit `s % 64` of word `s / 64` is set while source queue `s`
    /// holds packets, so the injection stage visits only those queues.
    src_mask: Vec<u64>,
    /// Packets buffered across all source queues (kept so the injection
    /// catch-up can skip drained spans and `next_event` is O(1)).
    queued: usize,
    /// Buffered + in-flight packets (constant-time [`Crossbar::pending`]).
    pending_count: usize,
    /// The next cycle whose injection stage has not run yet.
    next_tick: u64,
    /// Injected packets in injection order, hence sorted by
    /// `(arrive, seq)`.
    in_flight: VecDeque<Flit>,
    /// Packets deferred by port contention, re-stamped `arrive + 1`, in
    /// deferral order (also sorted by `(arrive, seq)`).
    retry: VecDeque<Flit>,
    seq: u64,
    /// Per-tick scratch: packets delivered per destination port this
    /// cycle. Kept on the struct so ticking allocates nothing.
    port_count: Vec<(usize, usize)>,
    /// Running count of deferrals — each is one cycle a packet lost to
    /// ejection-port contention (the interconnect-serialization signal).
    deferred_total: u64,
}

impl Crossbar {
    /// Creates a crossbar with `num_src` source ports. Rates below 1
    /// are raised to 1 (`GpuConfig::validate` rejects them before a
    /// simulator builds one).
    pub fn new(num_src: usize, latency: u32, injection_rate: usize, ejection_rate: usize) -> Self {
        Crossbar {
            latency,
            injection_rate: injection_rate.max(1),
            ejection_rate: ejection_rate.max(1),
            src_queues: vec![VecDeque::new(); num_src],
            src_mask: vec![0; num_src.div_ceil(64)],
            queued: 0,
            pending_count: 0,
            next_tick: 0,
            in_flight: VecDeque::new(),
            retry: VecDeque::new(),
            seq: 0,
            port_count: Vec::new(),
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
        self.src_mask[src / 64] |= 1 << (src % 64);
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
    /// `injection_rate` packets into the pipeline. Non-empty queues are
    /// visited in ascending port order, so sequence numbers are those
    /// of a walk over every port.
    fn inject_stage(&mut self, now: u64) {
        if self.queued == 0 {
            return;
        }
        let arrive = now + u64::from(self.latency);
        for word in 0..self.src_mask.len() {
            let mut bits = self.src_mask[word];
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let q = &mut self.src_queues[word * 64 + bit];
                for _ in 0..self.injection_rate {
                    let Some(packet) = q.pop_front() else { break };
                    self.queued -= 1;
                    self.in_flight.push_back(Flit {
                        arrive,
                        seq: self.seq,
                        packet,
                    });
                    self.seq += 1;
                }
                if q.is_empty() {
                    self.src_mask[word] &= !(1 << bit);
                }
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
        // A packet deferred at an earlier tick `t` was stamped at most
        // `t + 1 <= now` (ticks come at strictly increasing cycles), so
        // every retry entry is due now. Packets deferred during this
        // tick queue behind them and wait for the next one.
        debug_assert!(self.retry.back().is_none_or(|f| f.arrive <= now));
        let mut retries = self.retry.len();
        self.port_count.clear();
        while let Some(flit) = self.pop_due(now, &mut retries) {
            let dst = flit.packet.dst;
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
                delivered.push((dst, flit.packet.id));
                self.pending_count -= 1;
            } else {
                // Port contention: retry next cycle.
                self.deferred_total += 1;
                self.retry.push_back(Flit {
                    arrive: flit.arrive + 1,
                    ..flit
                });
            }
        }
    }

    /// Pops the next packet the ejection stage serves at `now`: the
    /// earlier by `(arrive, seq)` of the in-flight head, if it has
    /// arrived, and the retry head, if it is one of the `retries`
    /// entries deferred before this tick.
    fn pop_due(&mut self, now: u64, retries: &mut usize) -> Option<Flit> {
        let fresh = self.in_flight.front().filter(|f| f.arrive <= now);
        let retry = self.retry.front().filter(|_| *retries > 0);
        match (fresh, retry) {
            (Some(f), Some(r)) if (f.arrive, f.seq) < (r.arrive, r.seq) => {
                self.in_flight.pop_front()
            }
            (Some(_), None) => self.in_flight.pop_front(),
            (_, Some(_)) => {
                *retries -= 1;
                self.retry.pop_front()
            }
            (None, None) => None,
        }
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
    /// packets re-enter with `arrive + 1 <= now + 1`, covered by the same
    /// bound). A buffered packet cannot reach a port before it is
    /// injected — at the earliest next cycle — and has traversed the
    /// pipeline; injection itself needs no visit, because
    /// [`Crossbar::tick_into`] replays missed injection cycles exactly.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut next = u64::MAX;
        for head in [self.in_flight.front(), self.retry.front()]
            .into_iter()
            .flatten()
        {
            next = next.min(head.arrive.max(now + 1));
        }
        if self.queued > 0 {
            next = next.min(now + 1 + u64::from(self.latency));
        }
        (next != u64::MAX).then_some(next)
    }

    /// Allocating wrapper around [`Crossbar::tick_into`] for tests.
    #[cfg(test)]
    pub fn tick(&mut self, now: u64) -> Vec<(usize, u64)> {
        let mut delivered = Vec::new();
        self.tick_into(now, &mut delivered);
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_after_latency() {
        let mut xb = Crossbar::new(2, 8, 1, 1);
        xb.inject(0, 3, 42);
        assert_eq!(xb.pending(), 1);
        for now in 0..8 {
            assert!(xb.tick(now).is_empty(), "too early at {now}");
        }
        assert_eq!(xb.tick(8), vec![(3, 42)]);
        assert_eq!(xb.pending(), 0);
    }

    #[test]
    fn injection_rate_limits_throughput() {
        let mut xb = Crossbar::new(1, 0, 1, 100);
        for i in 0..5 {
            xb.inject(0, 0, i);
        }
        // One packet leaves the source queue per cycle.
        assert_eq!(xb.tick(0).len(), 1);
        assert_eq!(xb.tick(1).len(), 1);
        assert_eq!(xb.tick(2).len(), 1);
    }

    #[test]
    fn ejection_port_contention_defers_packets() {
        // Two sources flood one destination with ejection rate 1.
        let mut xb = Crossbar::new(2, 0, 4, 1);
        xb.inject(0, 0, 1);
        xb.inject(1, 0, 2);
        let first = xb.tick(0);
        assert_eq!(first.len(), 1);
        let second = xb.tick(1);
        assert_eq!(second.len(), 1);
        assert_ne!(first[0].1, second[0].1);
    }

    #[test]
    fn distinct_ports_drain_in_parallel() {
        let mut xb = Crossbar::new(2, 0, 4, 1);
        xb.inject(0, 0, 1);
        xb.inject(1, 1, 2);
        let out = xb.tick(0);
        assert_eq!(out.len(), 2, "different destination ports do not contend");
    }

    #[test]
    fn fifo_order_per_source() {
        let mut xb = Crossbar::new(1, 2, 1, 1);
        xb.inject(0, 0, 10);
        xb.inject(0, 0, 11);
        let mut got = Vec::new();
        for now in 0..10 {
            got.extend(xb.tick(now).into_iter().map(|(_, id)| id));
        }
        assert_eq!(got, vec![10, 11]);
    }

    /// Ticks `xb` on every cycle in `0..horizon` and returns the
    /// timestamped deliveries.
    fn drain_every_cycle(xb: &mut Crossbar, horizon: u64) -> Vec<(u64, usize, u64)> {
        let mut got = Vec::new();
        for now in 0..horizon {
            for (dst, id) in xb.tick(now) {
                got.push((now, dst, id));
            }
        }
        got
    }

    #[test]
    fn skipping_to_next_event_matches_ticking_every_cycle() {
        // The skip-ahead contract: only visiting the cycles `next_event`
        // advertises yields the same deliveries, at the same cycles, in
        // the same order, as ticking every cycle.
        let build = || {
            let mut xb = Crossbar::new(3, 7, 1, 1);
            for i in 0..9u64 {
                xb.inject((i % 3) as usize, (i % 2) as usize, i);
            }
            xb
        };
        let dense = drain_every_cycle(&mut build(), 64);
        let mut xb = build();
        let mut sparse = Vec::new();
        let mut now = 0;
        while now < 64 {
            for (dst, id) in xb.tick(now) {
                sparse.push((now, dst, id));
            }
            match xb.next_event(now) {
                Some(t) => now = t,
                None => break,
            }
        }
        assert_eq!(dense, sparse);
        assert_eq!(xb.pending(), 0);
    }

    #[test]
    fn late_injection_after_a_skip_replays_missed_cycles() {
        // Queue two packets, skip straight past their injection cycles:
        // arrival stamps must match the every-cycle schedule (inject at
        // 0 and 1, arrive at 5 and 6), not the tick cycle.
        let mut xb = Crossbar::new(1, 5, 1, 4);
        xb.inject(0, 0, 1);
        xb.inject(0, 0, 2);
        assert!(xb.tick(0).is_empty());
        assert_eq!(xb.next_event(0), Some(5));
        assert_eq!(xb.tick(5), vec![(0, 1)]);
        assert_eq!(xb.next_event(5), Some(6));
        assert_eq!(xb.tick(6), vec![(0, 2)]);
    }

    #[test]
    fn frozen_cycles_inject_nothing() {
        // Freeze the injection cycle: the packet holds its place and the
        // pipeline entry shifts by exactly the frozen span.
        let mut xb = Crossbar::new(1, 3, 1, 1);
        xb.inject(0, 0, 7);
        xb.freeze(0);
        xb.freeze(1);
        assert_eq!(xb.pending(), 1);
        assert!(xb.tick(2).is_empty(), "injected at 2, arrives at 5");
        assert!(xb.tick(3).is_empty());
        assert!(xb.tick(4).is_empty());
        assert_eq!(xb.tick(5), vec![(0, 7)]);
    }

    #[test]
    fn next_event_bounds_queued_packets_by_pipeline_entry() {
        let mut xb = Crossbar::new(1, 8, 1, 1);
        assert_eq!(xb.next_event(0), None);
        xb.inject(0, 0, 1);
        // Head packet injects next cycle at the earliest.
        assert_eq!(xb.next_event(3), Some(3 + 1 + 8));
    }
}
