//! Single-thread throughput of the event-driven simulator core.
//!
//! Two legs, each run through both simulator cores — the event-driven
//! skip-ahead loop behind `run_instrumented` and the retained
//! cycle-accurate reference behind `run_instrumented_reference` — with
//! a bit-identity check on the `SimStats`:
//!
//! * **paper-config AES** (32-line plaintexts on the Table I machine):
//!   the attack workload. Dense — the interconnect serializes ~13
//!   packets per load at injection rate 1, so most cycles carry a
//!   genuine event and the skip-ahead win is bounded by event density,
//!   not by loop overhead.
//! * **idle-heavy trace** (long compute bursts between strided loads):
//!   the regime skip-ahead is built for — the event core jumps each
//!   compute gap in one step while the reference walks it cycle by
//!   cycle.
//!
//! Each pass over a leg's launches is timed on its own, and a leg
//! reports the median of [`PASSES`] passes with their min and max: one
//! pass slowed by host load moves the spread, not the recorded figure.
//! Results (median simulated-cycles/sec, kernels/sec, speedup per leg)
//! are recorded to `BENCH_sim.json` at the repository root so the
//! speedup is a tracked artifact.
//!
//! With `RCOAL_MIN_CYCLES_PER_SEC` set (the CI throughput smoke), the
//! bench fails if the event core's median simulated-cycles/sec on the
//! AES leg drops below that floor.

use rcoal_aes::TableKernel;
use rcoal_bench::{record, write_record, BENCH_SEED};
use rcoal_core::CoalescingPolicy;
use rcoal_gpu_sim::{
    FaultPlan, GpuConfig, GpuSimulator, Kernel, LaunchPolicy, SimStats, SimTelemetry, TraceInstr,
    TraceKernel, WarpTrace,
};
use rcoal_rng::{Rng, SeedableRng, StdRng};
use rcoal_scenario::json::{ObjBuilder, Value};
use std::time::Instant;

/// Plaintexts per leg: enough kernels for stable wall-clock numbers on
/// the slow reference leg while keeping the bench under a minute.
const PLAINTEXTS: usize = 8;
/// Lines per plaintext — one full warp, the paper's attack workload.
const LINES: usize = 32;
/// Timed passes per leg (after one warmup pass); odd, so the median is
/// one measured pass.
const PASSES: usize = 7;
/// Idle-heavy leg: core cycles of ALU work between successive loads.
/// Long enough that the reference's O(cycles) walk dominates its cost
/// while the event core's O(events) cost stays flat.
const IDLE_BURST: u32 = 20_000;
/// Idle-heavy leg: loads per warp.
const IDLE_LOADS: usize = 12;

struct Leg {
    stats: Vec<SimStats>,
    /// Simulated cycles in one pass.
    pass_cycles: u64,
    /// Kernel launches in one pass.
    pass_kernels: usize,
    /// Wall-clock seconds of each timed pass, ascending.
    seconds: Vec<f64>,
}

impl Leg {
    fn median(&self) -> f64 {
        self.seconds[self.seconds.len() / 2]
    }

    fn cycles_per_sec(&self) -> f64 {
        self.pass_cycles as f64 / self.median()
    }

    fn kernels_per_sec(&self) -> f64 {
        self.pass_kernels as f64 / self.median()
    }

    /// Appends this leg's `BENCH_sim.json` fields, each prefixed with
    /// `name`.
    fn fields(&self, name: &str, mut record: ObjBuilder) -> ObjBuilder {
        let (min, max) = (self.seconds[0], self.seconds[self.seconds.len() - 1]);
        for (field, x) in [
            ("seconds_median", self.median()),
            ("seconds_min", min),
            ("seconds_max", max),
            ("cycles_per_sec", self.cycles_per_sec()),
            ("kernels_per_sec", self.kernels_per_sec()),
        ] {
            record = record.field(&format!("{name}_{field}"), Value::f64(x));
        }
        record
    }
}

/// Runs every (kernel, policy) pair once untimed, then `PASSES` timed
/// passes through one core, and returns the warmup's stats plus the
/// per-pass timings.
fn run_leg<K: Kernel>(
    sim: &GpuSimulator,
    kernels: &[K],
    policies: &[CoalescingPolicy],
    reference: bool,
) -> Result<Leg, String> {
    let faults = FaultPlan::none();
    let pass = || -> Result<Vec<SimStats>, String> {
        let mut stats = Vec::with_capacity(kernels.len() * policies.len());
        for (i, kernel) in kernels.iter().enumerate() {
            for (p, &policy) in policies.iter().enumerate() {
                let seed = BENCH_SEED.wrapping_add((i * policies.len() + p) as u64);
                let launch = LaunchPolicy::Uniform(policy);
                let mut tel = SimTelemetry::off();
                let run = if reference {
                    sim.run_instrumented_reference(kernel, launch, seed, &faults, &mut tel)
                } else {
                    sim.run_instrumented(kernel, launch, seed, &faults, &mut tel)
                };
                stats.push(run.map_err(|e| e.to_string())?);
            }
        }
        Ok(stats)
    };
    // Warmup pass (untimed), also collects the stats used for the
    // bit-identity check — every pass of a (kernel, policy, seed) triple
    // produces the same result, so which pass is recorded is arbitrary.
    let stats = pass()?;
    let pass_cycles: u64 = stats.iter().map(|s| s.total_cycles).sum();
    let mut seconds = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let start = Instant::now();
        pass()?;
        seconds.push(start.elapsed().as_secs_f64());
    }
    seconds.sort_by(f64::total_cmp);
    Ok(Leg {
        stats,
        pass_cycles,
        pass_kernels: kernels.len() * policies.len(),
        seconds,
    })
}

fn print_leg(label: &str, core: &str, leg: &Leg) {
    let (min, max) = (leg.seconds[0], leg.seconds[leg.seconds.len() - 1]);
    println!(
        "  {label} {core} : {:.4} s/pass [{min:.4}-{max:.4}]  ({:.3e} simulated cycles/sec, {:.1} kernels/sec)",
        leg.median(),
        leg.cycles_per_sec(),
        leg.kernels_per_sec()
    );
}

/// Times one workload through both cores, checks bit-identity, and
/// returns `(event, reference, speedup)`.
fn both_cores<K: Kernel>(
    sim: &GpuSimulator,
    kernels: &[K],
    policies: &[CoalescingPolicy],
    label: &str,
) -> Result<(Leg, Leg, f64), String> {
    let event = run_leg(sim, kernels, policies, false)?;
    print_leg(label, "event core", &event);
    let reference = run_leg(sim, kernels, policies, true)?;
    print_leg(label, "reference ", &reference);
    if event.stats != reference.stats {
        return Err(format!(
            "{label}: SimStats differ between the event core and the reference loop"
        ));
    }
    let speedup = reference.median() / event.median();
    println!("  {label} speedup    : {speedup:.1}x of medians (stats bit-identical)");
    Ok((event, reference, speedup))
}

/// Builds the idle-heavy trace kernels: one warp per SM, each
/// alternating a strided 32-lane load with a long compute burst.
fn idle_kernels(gpu: &GpuConfig, count: usize) -> Vec<TraceKernel> {
    (0..count)
        .map(|k| {
            let traces = (0..gpu.num_sms)
                .map(|w| {
                    let mut instrs = Vec::new();
                    for l in 0..IDLE_LOADS {
                        let base = ((k * gpu.num_sms + w) * IDLE_LOADS + l) as u64 * 0x1_0000;
                        let addrs = (0..gpu.warp_size)
                            .map(|lane| Some(base + lane as u64 * 128))
                            .collect();
                        instrs.push(TraceInstr::Load { addrs, tag: 0 });
                        instrs.push(TraceInstr::Compute { cycles: IDLE_BURST });
                    }
                    WarpTrace::from_instrs(instrs)
                })
                .collect();
            TraceKernel::new(traces, gpu.warp_size)
        })
        .collect()
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("sim_throughput bench failed: {msg}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let gpu = GpuConfig::paper();
    let sim = GpuSimulator::new(gpu.clone());
    let policies = [
        CoalescingPolicy::Baseline,
        CoalescingPolicy::rss_rts(8).map_err(|e| e.to_string())?,
    ];
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let key = *b"sim-throughput-k";
    let kernels: Vec<TableKernel> = (0..PLAINTEXTS)
        .map(|_| {
            let lines: Vec<_> = (0..LINES)
                .map(|_| {
                    let mut pt = [0u8; 16];
                    rng.fill(&mut pt);
                    pt
                })
                .collect();
            TableKernel::aes(&key, &lines, gpu.warp_size)
        })
        .collect();
    println!(
        "sim_throughput: paper-config AES, {PLAINTEXTS} plaintexts x {} policies per pass, \
         median of {PASSES} passes, event core vs cycle-accurate reference",
        policies.len()
    );
    let (event, reference, speedup) = both_cores(&sim, &kernels, &policies, "aes ")?;

    println!(
        "sim_throughput: idle-heavy trace, {} kernels x {} warps, {IDLE_LOADS} loads with \
         {IDLE_BURST}-cycle compute bursts",
        2, gpu.num_sms
    );
    let idle = idle_kernels(&gpu, 2);
    let (idle_event, idle_ref, idle_speedup) = both_cores(&sim, &idle, &policies, "idle")?;

    if let Ok(floor) = std::env::var("RCOAL_MIN_CYCLES_PER_SEC") {
        let floor: f64 = floor
            .parse()
            .map_err(|e| format!("RCOAL_MIN_CYCLES_PER_SEC: {e}"))?;
        let event_cps = event.cycles_per_sec();
        if event_cps < floor {
            return Err(format!(
                "event core at {event_cps:.3e} simulated cycles/sec (median), below the floor \
                 {floor:.3e}"
            ));
        }
        println!("  floor      : {floor:.3e} cycles/sec ok");
    }

    let workload = format!(
        "paper-config AES, {PLAINTEXTS} plaintexts x {} policies per pass, single thread",
        policies.len()
    );
    let idle_workload = format!(
        "idle-heavy trace, 2 kernels x {} warps, {IDLE_LOADS} loads with {IDLE_BURST}-cycle \
         compute bursts",
        gpu.num_sms
    );
    let mut json = record("sim_throughput")
        .field("passes", Value::usize(PASSES))
        .field("workload", Value::str(workload))
        .field("simulated_cycles", Value::u64(event.pass_cycles));
    json = reference
        .fields("reference", event.fields("event", json))
        .field("speedup", Value::f64(speedup))
        .field("idle_workload", Value::str(idle_workload));
    json = idle_ref
        .fields("idle_reference", idle_event.fields("idle_event", json))
        .field("idle_speedup", Value::f64(idle_speedup))
        .field("stats_identical", Value::Bool(true));
    write_record("sim", json)
}
