//! The DRAM service-time differential oracle.
//!
//! [`reference_dram_service`] recomputes FR-FCFS scheduling from first
//! principles: a flat array of requests with served-flags, scanned once
//! per memory cycle, with every timing constraint (`tRP`, `tRC`, `tRAS`,
//! `tRCD`, `tRRD`, `tCL`, `tCCD`, burst serialization) applied as an
//! explicit max over command frontiers. It shares no code or data
//! structures with `rcoal_gpu_sim::MemoryController` (which keeps a
//! request queue and a completion queue sorted by `(finish, id)`) —
//! agreement on both the completion schedule and the row-hit ledger
//! therefore cross-checks the timing model itself, not its plumbing.
//!
//! The schedule is compared in the order the controller drains it, not
//! sorted: the simulator draws reply jitter and fills its reply-release
//! queue in that order, so a controller that finished the right
//! requests at the right cycles but drained same-cycle completions out
//! of `(finish, id)` order would still change every faulted run.

use crate::report::SectionReport;
use rcoal_gpu_sim::{AddressMapper, GpuConfig, MemoryController, PhysLoc};
use rcoal_rng::{Rng, SeedableRng, StdRng};

/// What the reference scheduler computed for one request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramOracleResult {
    /// `(request id, finish mem-cycle)` sorted by `(finish, id)`.
    pub completions: Vec<(u64, u64)>,
    /// Requests served from an already-open row.
    pub row_hits: u64,
    /// Requests that paid a precharge and/or activate.
    pub row_misses: u64,
}

impl DramOracleResult {
    /// Finish time of the last request, or 0 for an empty stream — the
    /// quantity the timing side-channel leaks.
    pub fn total_service_cycles(&self) -> u64 {
        self.completions.iter().map(|&(_, t)| t).max().unwrap_or(0)
    }
}

#[derive(Clone, Copy, Default)]
struct RefBank {
    open_row: Option<u64>,
    ready_at: u64,
    last_activate: Option<u64>,
}

/// First-principles FR-FCFS service-time computation.
///
/// `reqs` is the controller's queue in arrival order: `(id, loc,
/// arrival)` with non-decreasing arrivals, exactly as the simulator
/// delivers them. One transaction may issue per memory cycle; the
/// oldest *ready* row hit wins, else the oldest arrived request.
pub fn reference_dram_service(cfg: &GpuConfig, reqs: &[(u64, PhysLoc, u64)]) -> DramOracleResult {
    let t = cfg.dram_timing;
    let (t_cl, t_rp, t_rc, t_ras, t_ccd, t_rcd, t_rrd) = (
        u64::from(t.t_cl),
        u64::from(t.t_rp),
        u64::from(t.t_rc),
        u64::from(t.t_ras),
        u64::from(t.t_ccd),
        u64::from(t.t_rcd),
        u64::from(t.t_rrd),
    );
    let burst = u64::from(cfg.burst_cycles);

    let mut banks = vec![RefBank::default(); cfg.banks_per_mc];
    let mut served = vec![false; reqs.len()];
    let mut completions: Vec<(u64, u64)> = Vec::with_capacity(reqs.len());
    let mut bus_free_at = 0u64;
    let mut ctrl_last_activate: Option<u64> = None;
    let mut row_hits = 0u64;
    let mut remaining = reqs.len();
    let mut now = 0u64;

    while remaining > 0 {
        // Candidate selection, in queue (arrival) order over the
        // not-yet-served requests.
        let mut first_arrived: Option<usize> = None;
        let mut ready_hit: Option<usize> = None;
        for (i, &(_, loc, arrival)) in reqs.iter().enumerate() {
            if served[i] || arrival > now {
                continue;
            }
            if first_arrived.is_none() {
                first_arrived = Some(i);
            }
            let bank = &banks[loc.bank];
            if ready_hit.is_none() && bank.open_row == Some(loc.row) && bank.ready_at <= now + t_ccd
            {
                ready_hit = Some(i);
            }
        }
        let Some(idx) = ready_hit.or(first_arrived) else {
            // Nothing has arrived yet: jump straight to the next arrival.
            now = reqs
                .iter()
                .enumerate()
                .filter(|&(i, _)| !served[i])
                .map(|(_, &(_, _, a))| a)
                .min()
                .unwrap_or(now + 1);
            continue;
        };

        let (id, loc, _) = reqs[idx];
        let bank = banks[loc.bank];
        let is_hit = bank.open_row == Some(loc.row);
        let read_cmd = if is_hit {
            bank.ready_at.max(now)
        } else {
            let mut start = bank.ready_at.max(now);
            if bank.open_row.is_some() {
                if let Some(last) = bank.last_activate {
                    start = start.max(last + t_ras);
                }
                start += t_rp;
            }
            let activate = start
                .max(bank.last_activate.map_or(0, |last| last + t_rc))
                .max(ctrl_last_activate.map_or(0, |last| last + t_rrd));
            activate + t_rcd
        };
        let data_start = (read_cmd + t_cl).max(bus_free_at);
        let done = data_start + burst;

        served[idx] = true;
        remaining -= 1;
        bus_free_at = data_start + t_ccd.max(burst);
        let bank = &mut banks[loc.bank];
        if is_hit {
            row_hits += 1;
        } else {
            let activate = read_cmd - t_rcd;
            bank.last_activate = Some(activate);
            ctrl_last_activate = Some(activate);
            bank.open_row = Some(loc.row);
        }
        bank.ready_at = read_cmd + t_ccd;
        completions.push((id, done));
        now += 1;
    }

    completions.sort_unstable_by_key(|&(id, done)| (done, id));
    DramOracleResult {
        completions,
        row_hits,
        row_misses: reqs.len() as u64 - row_hits,
    }
}

/// Drives a real [`MemoryController`] over `reqs` via the conformance
/// hooks, advancing it every memory cycle, and diffs the sequence it
/// drains — unsorted — against [`reference_dram_service`]'s
/// `(finish, id)` order. Returns human-readable mismatches (empty =
/// exact agreement).
pub fn check_dram_case(cfg: &GpuConfig, reqs: &[(u64, PhysLoc, u64)]) -> Vec<String> {
    let mut failures = Vec::new();
    let expected = reference_dram_service(cfg, reqs);

    let mut mc = MemoryController::new(cfg);
    for &(id, loc, arrival) in reqs {
        mc.inject(id, loc, arrival);
    }
    let mut got: Vec<(u64, u64)> = Vec::with_capacity(reqs.len());
    let mut now = 0u64;
    // Generous stall bound: every request is served within its own
    // worst-case conflict window once it has arrived.
    let horizon =
        reqs.iter().map(|&(_, _, a)| a).max().unwrap_or(0) + 200 * (reqs.len() as u64 + 1) + 100;
    while mc.pending() > 0 {
        mc.advance(now, &mut got);
        now += 1;
        if now > horizon {
            failures.push(format!(
                "controller stalled: {} request(s) still pending at cycle {now}",
                mc.pending()
            ));
            return failures;
        }
    }
    if got != expected.completions {
        let diverge = got
            .iter()
            .zip(&expected.completions)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(expected.completions.len()));
        failures.push(format!(
            "drained completions diverge at position {diverge}: sim {:?} vs oracle {:?}",
            got.get(diverge),
            expected.completions.get(diverge)
        ));
    }
    if mc.serviced() != reqs.len() as u64 {
        failures.push(format!(
            "controller serviced {} of {} request(s)",
            mc.serviced(),
            reqs.len()
        ));
    }
    if mc.row_hits() != expected.row_hits {
        failures.push(format!(
            "row hits: sim {} vs oracle {}",
            mc.row_hits(),
            expected.row_hits
        ));
    }
    if mc.row_misses() != expected.row_misses {
        failures.push(format!(
            "row misses: sim {} vs oracle {}",
            mc.row_misses(),
            expected.row_misses
        ));
    }
    failures
}

/// Random request stream: `k` requests with locations decoded from
/// random physical addresses and sorted, staggered arrivals.
fn arb_stream(rng: &mut StdRng, cfg: &GpuConfig, k: usize) -> Vec<(u64, PhysLoc, u64)> {
    let mapper = AddressMapper::new(cfg);
    let mut arrivals: Vec<u64> = (0..k).map(|_| rng.gen_range(0u64..60)).collect();
    arrivals.sort_unstable();
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, arrival)| {
            // Bias toward a few hot rows so row hits, conflicts, and bank
            // parallelism all occur in the same stream.
            let addr = if rng.gen_bool(0.5) {
                rng.gen_range(0u64..1 << 13)
            } else {
                rng.gen_range(0u64..1 << 22)
            };
            let mut loc = mapper.decode(addr);
            loc.mc = 0;
            (i as u64, loc, arrival)
        })
        .collect()
}

/// DRAM differential section: one closed-form streaming anchor plus `n`
/// random request streams on both the paper and tiny machine models.
pub fn section(seed: u64, n: usize) -> SectionReport {
    let mut section = SectionReport::new("dram oracle");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd4a1);

    // Closed-form anchor, independent of both implementations: with the
    // GDDR5 defaults, 10 same-row requests arriving at 0 finish at
    // tRCD + tCL + burst = 26 and then stream one per tCCD = 2.
    section.cases += 1;
    let cfg = GpuConfig::default();
    let stream: Vec<(u64, PhysLoc, u64)> = (0..10)
        .map(|i| {
            (
                i,
                PhysLoc {
                    mc: 0,
                    bank: 0,
                    bank_group: 0,
                    row: 5,
                    col: 0,
                },
                0,
            )
        })
        .collect();
    let anchored = reference_dram_service(&cfg, &stream);
    let expected: Vec<(u64, u64)> = (0..10).map(|k| (k, 26 + 2 * k)).collect();
    if anchored.completions != expected {
        section.failures.push(format!(
            "oracle violates the closed-form streaming schedule: {:?}",
            anchored.completions
        ));
    }
    if anchored.row_hits != 9 || anchored.row_misses != 1 {
        section.failures.push(format!(
            "oracle row ledger wrong on the anchor: {} hit(s), {} miss(es)",
            anchored.row_hits, anchored.row_misses
        ));
    }
    for f in check_dram_case(&cfg, &stream) {
        section.failures.push(format!("anchor: {f}"));
    }

    for case in 0..n {
        section.cases += 1;
        let cfg = if case % 2 == 0 {
            GpuConfig::paper()
        } else {
            GpuConfig::tiny()
        };
        let k = rng.gen_range(1usize..40);
        let stream = arb_stream(&mut rng, &cfg, k);
        for f in check_dram_case(&cfg, &stream) {
            section.failures.push(format!("case {case} (k={k}): {f}"));
        }
    }

    // Zero-gap timing (tCCD = burst = 0): finish times then only
    // non-decrease in issue order, so a request issued later can finish
    // on the same cycle as, and ahead of, an earlier one with a larger
    // id. The drained order must still be `(finish, id)`.
    let mut cfg = GpuConfig::paper();
    cfg.dram_timing.t_ccd = 0;
    cfg.burst_cycles = 0;
    // Anchor: cold misses 0 and 1 leave the bus busy until cycle 30. At
    // cycle 13 the younger id 3 is a ready row hit while id 2 waits for
    // its bank, so id 3 issues first; both then queue behind the bus and
    // finish at 30 with id 1, which must drain as ids 1, 2, 3.
    section.cases += 1;
    let at = |id, bank, row, arrival| {
        let loc = PhysLoc {
            mc: 0,
            bank,
            bank_group: bank % cfg.bank_groups_per_mc,
            row,
            col: 0,
        };
        (id, loc, arrival)
    };
    let stream = [
        at(0, 0, 1, 0),
        at(1, 1, 2, 0),
        at(2, 1, 2, 13),
        at(3, 0, 1, 13),
    ];
    let anchored = reference_dram_service(&cfg, &stream);
    if anchored.completions != [(0, 24), (1, 30), (2, 30), (3, 30)] {
        section.failures.push(format!(
            "oracle violates the zero-gap anchor schedule: {:?}",
            anchored.completions
        ));
    }
    for f in check_dram_case(&cfg, &stream) {
        section.failures.push(format!("zero-gap anchor: {f}"));
    }
    for case in 0..(n / 4).max(4) {
        section.cases += 1;
        let k = rng.gen_range(1usize..40);
        let stream = arb_stream(&mut rng, &cfg, k);
        for f in check_dram_case(&cfg, &stream) {
            section
                .failures
                .push(format!("zero-gap case {case} (k={k}): {f}"));
        }
    }
    section
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

    #[test]
    fn oracle_single_cold_access_is_26_cycles() {
        let cfg = GpuConfig::default();
        let r = reference_dram_service(&cfg, &[(0, loc(0, 5), 0)]);
        assert_eq!(r.completions, vec![(0, 26)]);
        assert_eq!(r.row_hits, 0);
        assert_eq!(r.row_misses, 1);
        assert_eq!(r.total_service_cycles(), 26);
    }

    #[test]
    fn oracle_prefers_ready_row_hits() {
        // Mirror of the controller's own FR-FCFS ordering test, decided
        // by the oracle alone.
        let cfg = GpuConfig::default();
        let r = reference_dram_service(
            &cfg,
            &[(0, loc(0, 5), 0), (1, loc(0, 9), 20), (2, loc(0, 5), 20)],
        );
        let pos = |id| r.completions.iter().position(|&(i, _)| i == id);
        assert!(pos(2) < pos(1), "{:?}", r.completions);
    }

    #[test]
    fn oracle_respects_arrival_times() {
        let cfg = GpuConfig::default();
        let r = reference_dram_service(&cfg, &[(0, loc(0, 5), 100)]);
        assert_eq!(r.completions, vec![(0, 126)]);
    }

    #[test]
    fn random_streams_agree_with_the_controller() {
        let mut rng = StdRng::seed_from_u64(0xbeef);
        let cfg = GpuConfig::paper();
        for _ in 0..25 {
            let stream = arb_stream(&mut rng, &cfg, 24);
            let failures = check_dram_case(&cfg, &stream);
            assert!(failures.is_empty(), "{failures:?}");
        }
    }

    #[test]
    fn section_passes() {
        let s = section(1, 16);
        assert_eq!(s.cases, 1 + 16 + 1 + 4);
        assert!(s.passed(), "{:?}", s.failures);
    }
}
