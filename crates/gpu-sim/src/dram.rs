use crate::{DramTiming, GpuConfig, PhysLoc};
use std::collections::VecDeque;

/// A memory request at a controller, in memory-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemRequest {
    /// Simulator-wide unique id used to route the reply.
    pub id: u64,
    /// Decoded DRAM coordinates.
    pub loc: PhysLoc,
    /// Memory cycle at which the request reached the controller queue.
    pub arrival: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
    /// Memory cycle at which the bank can accept its next command.
    ready_at: u64,
    /// Memory cycle of the bank's last ACTIVATE (for tRC / tRAS), `None`
    /// until the first activate.
    last_activate: Option<u64>,
}

/// One GDDR5 memory controller with a First-Ready, First-Come-First-Served
/// (FR-FCFS) scheduler.
///
/// Each memory cycle the controller issues at most one transaction,
/// preferring the oldest *row-hit* request (open-row match) and falling
/// back to the oldest request overall, for which it pays
/// precharge/activate latency. Bank state honors `tRP`, `tRC`, `tRAS`,
/// `tRCD`, `tRRD`; the shared data bus serializes bursts at `tCCD`
/// granularity.
#[derive(Debug, Clone)]
pub struct MemoryController {
    timing: DramTiming,
    burst_cycles: u32,
    queue: VecDeque<MemRequest>,
    banks: Vec<BankState>,
    /// Data bus occupancy frontier.
    bus_free_at: u64,
    /// Controller-wide last ACTIVATE (for tRRD), `None` until the first.
    last_activate: Option<u64>,
    /// Completions not yet drained as `(finish mem-cycle, id)`, sorted.
    completions: VecDeque<(u64, u64)>,
    /// Row-buffer hit/access counters for locality statistics.
    row_hits: u64,
    accesses: u64,
}

impl MemoryController {
    /// Creates an idle controller from the GPU configuration.
    pub fn new(config: &GpuConfig) -> Self {
        MemoryController {
            timing: config.dram_timing,
            burst_cycles: config.burst_cycles,
            queue: VecDeque::new(),
            banks: vec![BankState::default(); config.banks_per_mc],
            bus_free_at: 0,
            last_activate: None,
            completions: VecDeque::new(),
            row_hits: 0,
            accesses: 0,
        }
    }

    pub(crate) fn enqueue(&mut self, req: MemRequest) {
        debug_assert!(req.loc.bank < self.banks.len());
        self.queue.push_back(req);
    }

    /// Conformance hook: enqueues a request by its raw coordinates.
    ///
    /// Exposes the controller to external differential testing (the
    /// `rcoal-conformance` DRAM oracle replays request streams through
    /// this entry point); the simulator itself uses the internal queue
    /// path. `arrival` is in memory cycles, and requests must arrive in
    /// non-decreasing queue order just as the simulator delivers them.
    pub fn inject(&mut self, id: u64, loc: PhysLoc, arrival: u64) {
        self.enqueue(MemRequest { id, loc, arrival });
    }

    /// Conformance hook: advances the controller to memory cycle `now`,
    /// draining finished requests into `completed` as
    /// `(request id, finish mem-cycle)` pairs.
    ///
    /// Public mirror of the simulator's per-cycle tick so oracles can
    /// drive a controller in isolation.
    pub fn advance(&mut self, now: u64, completed: &mut Vec<(u64, u64)>) {
        self.tick(now, completed);
    }

    /// Number of requests waiting or in flight.
    pub fn pending(&self) -> usize {
        self.queue.len() + self.completions.len()
    }

    /// Total requests this controller has serviced.
    pub fn serviced(&self) -> u64 {
        self.accesses
    }

    /// Serviced requests that hit an already-open row.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Serviced requests that paid a precharge/activate.
    pub fn row_misses(&self) -> u64 {
        self.accesses - self.row_hits
    }

    /// Requests currently waiting in the controller queue (excluding
    /// completions not yet drained).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Fraction of serviced requests that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }

    /// The next memory cycle (>= `now`) at which ticking this
    /// controller can do anything, or `None` if it is idle.
    ///
    /// A queued request becomes issuable at its arrival cycle (FR-FCFS
    /// always picks *something* once any request has arrived, so the
    /// earliest arrival is exact, and with the queue non-empty each
    /// subsequent tick keeps issuing — hence the clamp to `now`); a
    /// completion drains at its finish cycle. Every tick strictly
    /// before the reported cycle is a no-op: `issue` returns without
    /// touching bank state and the completion queue stays undrained.
    /// Callers enqueue in non-decreasing arrival order (the simulator's
    /// delivery and retransmit stamps are monotone) and FR-FCFS removal
    /// from the middle preserves that order, so the front of the queue
    /// holds the earliest arrival and this is O(1).
    pub fn next_event(&self, now: u64) -> Option<u64> {
        // min(max(a, now), max(b, now)) == max(min(a, b), now), so the
        // clamp distributes over the raw minimum.
        self.next_event_raw().map(|t| t.max(now))
    }

    /// [`MemoryController::next_event`] without the `now` clamp: the raw
    /// earliest of the head-of-queue arrival and the earliest completion.
    /// Pure in the controller's state, so callers may memoize it and
    /// clamp at the point of use.
    pub fn next_event_raw(&self) -> Option<u64> {
        let mut next = u64::MAX;
        if let Some(front) = self.queue.front() {
            debug_assert!(self.queue.iter().all(|r| r.arrival >= front.arrival));
            next = next.min(front.arrival);
        }
        if let Some(&(done, _)) = self.completions.front() {
            next = next.min(done);
        }
        (next != u64::MAX).then_some(next)
    }

    /// Advances the controller to memory cycle `now`: possibly issues one
    /// transaction and drains finished requests into `completed` as
    /// `(request id, finish mem-cycle)` pairs.
    pub(crate) fn tick(&mut self, now: u64, completed: &mut Vec<(u64, u64)>) {
        self.issue(now);
        while let Some(&(done, id)) = self.completions.front() {
            if done > now {
                break;
            }
            self.completions.pop_front();
            completed.push((id, done));
        }
    }

    fn issue(&mut self, now: u64) {
        // FR-FCFS: oldest *ready* row hit first (a hit whose bank is
        // still busy does not stall the controller — fall back to the
        // oldest request overall, which may activate another bank).
        let t = self.timing;
        let ready_hit = self.queue.iter().position(|r| {
            r.arrival <= now
                && self.banks[r.loc.bank].open_row == Some(r.loc.row)
                && self.banks[r.loc.bank].ready_at <= now + u64::from(t.t_ccd)
        });
        let pick = ready_hit.or_else(|| self.queue.iter().position(|r| r.arrival <= now));
        let Some(idx) = pick else { return };
        let req = self.queue[idx];
        let bank = self.banks[req.loc.bank];
        let t = &self.timing;

        let is_hit = bank.open_row == Some(req.loc.row);
        let read_cmd = if is_hit {
            bank.ready_at.max(now)
        } else {
            // Closed bank or row conflict: (precharge +) activate + tRCD.
            let mut start = bank.ready_at.max(now);
            if bank.open_row.is_some() {
                // Precharge must respect tRAS since the last activate.
                if let Some(last) = bank.last_activate {
                    start = start.max(last + u64::from(t.t_ras));
                }
                start += u64::from(t.t_rp);
            }
            // Activate respects tRC (same bank) and tRRD (same controller).
            let activate = start
                .max(
                    bank.last_activate
                        .map_or(0, |last| last + u64::from(t.t_rc)),
                )
                .max(
                    self.last_activate
                        .map_or(0, |last| last + u64::from(t.t_rrd)),
                );
            activate + u64::from(t.t_rcd)
        };

        let data_start = (read_cmd + u64::from(t.t_cl)).max(self.bus_free_at);
        let done = data_start + u64::from(self.burst_cycles);

        // Commit.
        self.queue.remove(idx);
        self.bus_free_at = data_start + u64::from(t.t_ccd.max(self.burst_cycles));
        let bank = &mut self.banks[req.loc.bank];
        if !is_hit {
            let activate = read_cmd - u64::from(t.t_rcd);
            bank.last_activate = Some(activate);
            self.last_activate = Some(activate);
            bank.open_row = Some(req.loc.row);
        } else {
            self.row_hits += 1;
        }
        bank.ready_at = read_cmd + u64::from(t.t_ccd);
        self.accesses += 1;
        // Each burst starts at least max(tCCD, burst) after the previous
        // one, so whenever that gap is >= 1 (every shipped timing) finish
        // times strictly increase in issue order and this insert is a
        // push_back. The scan from the back keeps `(done, id)` order for
        // any other timing.
        let entry = (done, req.id);
        let at = self
            .completions
            .iter()
            .rposition(|&c| c < entry)
            .map_or(0, |i| i + 1);
        self.completions.insert(at, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(bank: usize, row: u64) -> PhysLoc {
        PhysLoc {
            mc: 0,
            bank,
            bank_group: bank % 4,
            row,
            col: 0,
        }
    }

    fn drain_until_done(mc: &mut MemoryController, limit: u64) -> Vec<(u64, u64)> {
        let mut done = Vec::new();
        let mut now = 0;
        while mc.pending() > 0 {
            mc.tick(now, &mut done);
            now += 1;
            assert!(now < limit, "controller stalled");
        }
        done.sort_by_key(|&(id, t)| (t, id));
        done
    }

    #[test]
    fn single_request_latency_is_activate_plus_cas() {
        let mut mc = MemoryController::new(&GpuConfig::default());
        mc.enqueue(MemRequest {
            id: 0,
            loc: loc(0, 5),
            arrival: 0,
        });
        let done = drain_until_done(&mut mc, 1000);
        // Cold bank: tRCD + tCL + burst = 12 + 12 + 2 = 26.
        assert_eq!(done, vec![(0, 26)]);
    }

    #[test]
    fn row_hit_is_faster_than_row_conflict() {
        // Two requests to the same row: the second is a row hit.
        let mut mc = MemoryController::new(&GpuConfig::default());
        mc.enqueue(MemRequest {
            id: 0,
            loc: loc(0, 5),
            arrival: 0,
        });
        mc.enqueue(MemRequest {
            id: 1,
            loc: loc(0, 5),
            arrival: 0,
        });
        let hit_done = drain_until_done(&mut mc, 1000)[1].1;

        // Two requests to different rows of the same bank: conflict.
        let mut mc = MemoryController::new(&GpuConfig::default());
        mc.enqueue(MemRequest {
            id: 0,
            loc: loc(0, 5),
            arrival: 0,
        });
        mc.enqueue(MemRequest {
            id: 1,
            loc: loc(0, 9),
            arrival: 0,
        });
        let conflict_done = drain_until_done(&mut mc, 1000)[1].1;

        assert!(
            hit_done + 10 < conflict_done,
            "row hit at {hit_done} should beat conflict at {conflict_done}"
        );
    }

    #[test]
    fn fr_fcfs_prefers_row_hits_over_older_conflicts() {
        let mut mc = MemoryController::new(&GpuConfig::default());
        // Open row 5 on bank 0.
        mc.enqueue(MemRequest {
            id: 0,
            loc: loc(0, 5),
            arrival: 0,
        });
        // A conflicting request to row 9 queued *ahead of* a hit to row 5,
        // both arriving once the bank is ready again (after id 0's
        // read + tCCD), so the hit is first-ready and must win.
        mc.enqueue(MemRequest {
            id: 1,
            loc: loc(0, 9),
            arrival: 20,
        });
        mc.enqueue(MemRequest {
            id: 2,
            loc: loc(0, 5),
            arrival: 20,
        });
        let done = drain_until_done(&mut mc, 2000);
        let pos = |id| done.iter().position(|&(i, _)| i == id).unwrap();
        assert!(
            pos(2) < pos(1),
            "row hit (id 2) should be served before conflict (id 1)"
        );
        assert!(mc.row_hit_rate() > 0.3);
    }

    #[test]
    fn bank_parallelism_beats_single_bank() {
        // Same number of row-miss requests, spread over 8 banks vs 1 bank.
        let mut spread = MemoryController::new(&GpuConfig::default());
        for i in 0..8 {
            spread.enqueue(MemRequest {
                id: i,
                loc: loc(i as usize, 1 + i),
                arrival: 0,
            });
        }
        let t_spread = drain_until_done(&mut spread, 5000).last().unwrap().1;

        let mut serial = MemoryController::new(&GpuConfig::default());
        for i in 0..8 {
            serial.enqueue(MemRequest {
                id: i,
                loc: loc(0, 1 + i),
                arrival: 0,
            });
        }
        let t_serial = drain_until_done(&mut serial, 5000).last().unwrap().1;
        assert!(
            t_spread * 2 < t_serial,
            "banked {t_spread} vs serial {t_serial}"
        );
    }

    #[test]
    fn bus_serializes_row_hits_at_tccd() {
        let mut mc = MemoryController::new(&GpuConfig::default());
        for i in 0..10 {
            mc.enqueue(MemRequest {
                id: i,
                loc: loc(0, 5),
                arrival: 0,
            });
        }
        let done = drain_until_done(&mut mc, 5000);
        // After the first access, row hits stream one per tCCD (=2).
        for w in done.windows(2) {
            assert!(w[1].1 - w[0].1 >= 2);
        }
        let total = done.last().unwrap().1 - done.first().unwrap().1;
        assert_eq!(total, 9 * 2, "streaming hits pipeline at tCCD");
    }

    #[test]
    fn service_time_scales_with_request_count() {
        let run = |n: u64| {
            let mut mc = MemoryController::new(&GpuConfig::default());
            for i in 0..n {
                // Scatter over banks and rows like a random workload.
                mc.enqueue(MemRequest {
                    id: i,
                    loc: loc((i % 16) as usize, i / 16 % 7),
                    arrival: 0,
                });
            }
            drain_until_done(&mut mc, 100_000).last().unwrap().1
        };
        assert!(run(64) > run(16));
        assert!(run(16) > run(4));
    }

    #[test]
    fn requests_do_not_start_before_arrival() {
        let mut mc = MemoryController::new(&GpuConfig::default());
        mc.enqueue(MemRequest {
            id: 0,
            loc: loc(0, 5),
            arrival: 100,
        });
        let done = drain_until_done(&mut mc, 1000);
        assert!(
            done[0].1 >= 126,
            "cold access takes 26 cycles after arrival at 100"
        );
    }
}
