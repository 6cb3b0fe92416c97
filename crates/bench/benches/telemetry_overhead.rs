//! Cost of the telemetry layer on the experiment hot path.
//!
//! Runs the same timing workload three ways — uninstrumented (twice, to
//! establish the machine's noise floor), profile-only telemetry, and
//! full event tracing — verifies the scientific observations are
//! bit-identical in all legs, and records the wall-clock ratios to
//! `BENCH_telemetry.json` at the repository root.
//!
//! The acceptance bar for the *disabled* path is that instrumentation is
//! invisible: `GpuSimulator::run_launch_faulted` now routes through the
//! instrumented loop with a no-op sink, so the `off` legs ARE the
//! disabled-hook cost, and their spread is the noise floor the enabled
//! overheads should be read against.

use rcoal_bench::{record, write_record, BENCH_SEED};
use rcoal_core::CoalescingPolicy;
use rcoal_experiments::{ExperimentConfig, ExperimentData, TelemetrySpec};
use rcoal_scenario::json::Value;
use std::time::Instant;

/// Plaintexts per leg: enough simulated launches for stable timings
/// while keeping the whole bench under a minute.
const PLAINTEXTS: usize = 24;
/// Repetitions per leg; the minimum is recorded (standard practice for
/// wall-clock microbenchmarks — the minimum is the least-noise sample).
const REPS: usize = 3;

fn run_leg(telemetry: Option<TelemetrySpec>) -> Result<(f64, ExperimentData), String> {
    let mut best = f64::INFINITY;
    let mut data = None;
    for _ in 0..REPS {
        let mut cfg = ExperimentConfig::new(
            CoalescingPolicy::rss_rts(8).map_err(|e| e.to_string())?,
            PLAINTEXTS,
            32,
        )
        .with_seed(BENCH_SEED)
        .with_threads(1);
        if let Some(spec) = telemetry {
            cfg = cfg.with_telemetry(spec);
        }
        let start = Instant::now();
        let d = cfg.run().map_err(|e| e.to_string())?;
        best = best.min(start.elapsed().as_secs_f64());
        data = Some(d);
    }
    data.map(|d| (best, d)).ok_or_else(|| "no reps ran".into())
}

/// Strips the telemetry payload so legs compare on observations only.
fn observations(mut data: ExperimentData) -> ExperimentData {
    data.telemetry = None;
    data
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("telemetry_overhead bench failed: {msg}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    println!(
        "telemetry_overhead: {PLAINTEXTS}-plaintext RSS+RTS(8) timing workload, best of {REPS}"
    );

    let (off_a, data_off) = run_leg(None)?;
    let (off_b, data_off_repeat) = run_leg(None)?;
    let (profile_secs, data_profile) = run_leg(Some(TelemetrySpec::profile_only()))?;
    let (full_secs, data_full) = run_leg(Some(TelemetrySpec::full()))?;

    let data_off = observations(data_off);
    if data_off != observations(data_off_repeat) {
        return Err("repeated uninstrumented runs disagree (nondeterminism!)".into());
    }
    if data_off != observations(data_profile.clone()) || data_off != observations(data_full.clone())
    {
        return Err("telemetry changed the scientific observations".into());
    }
    let events = data_full
        .telemetry
        .as_ref()
        .map_or(0, rcoal_experiments::ExperimentTelemetry::num_events);

    let noise_floor = (off_a - off_b).abs() / off_a.max(off_b);
    let profile_overhead = profile_secs / off_a.min(off_b) - 1.0;
    let full_overhead = full_secs / off_a.min(off_b) - 1.0;
    println!(
        "  off        : {off_a:.4} s / {off_b:.4} s (noise {:.1}%)",
        noise_floor * 100.0
    );
    println!(
        "  profile    : {profile_secs:.4} s ({:+.1}%)",
        profile_overhead * 100.0
    );
    println!(
        "  full trace : {full_secs:.4} s ({:+.1}%, {events} events)",
        full_overhead * 100.0
    );

    let workload = format!(
        "RSS+RTS(8) timing experiment x {PLAINTEXTS} plaintexts, threads=1, best of {REPS}"
    );
    let json = record("telemetry_overhead")
        .field("workload", Value::str(workload))
        .field("off_seconds", Value::f64(off_a))
        .field("off_repeat_seconds", Value::f64(off_b))
        .field("noise_floor", Value::f64(noise_floor))
        .field("profile_only_seconds", Value::f64(profile_secs))
        .field("profile_only_overhead", Value::f64(profile_overhead))
        .field("full_trace_seconds", Value::f64(full_secs))
        .field("full_trace_overhead", Value::f64(full_overhead))
        .field("events_collected", Value::usize(events))
        .field("observations_identical", Value::Bool(true));
    write_record("telemetry", json)
}
