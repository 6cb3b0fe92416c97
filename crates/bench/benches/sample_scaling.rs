//! Peak-heap scaling of the streaming attack engine with sample count.
//!
//! The streaming engine's contract is that a correlation attack over
//! N samples needs O(1) memory: a chunk buffer plus 256 six-word
//! Pearson accumulators, never the N-sample set itself. This bench
//! makes that claim falsifiable with a counting allocator:
//!
//! 1. Stream a single-byte recovery over the paper AES config
//!    (functional simulator, exact per-byte access channel — the same
//!    channel the Fig. 17 sample-cost sweep attacks) at N samples,
//!    recording wall clock and peak live-heap transient.
//! 2. Repeat at 10N samples. The peak heap must grow by < 1.1x
//!    (plus a 1 MiB absolute slack for allocator jitter) — the CI
//!    floor. A rewrite that quietly materializes the stream fails here
//!    by ~100x, not by a rounding error.
//! 3. Cross-check: materialize the identical 10N-sample set (the
//!    simulator source is bit-deterministic, chunked or not) and replay
//!    it as one slice through `Attack::recover_byte`; argmax and the
//!    true byte's rank must match the generator-fed stream's verdict.
//! 4. The 10N leg must stream at least `SAMPLES_PER_SEC_FLOOR`
//!    samples/s — the CI throughput floor.
//!
//! `RCOAL_SAMPLES` overrides the large-leg budget (default 1,000,000;
//! CI uses a small value — the heap *ratio* is scale-free). Results
//! land in `BENCH_attack.json` at the repo root.

use rcoal_attack::{
    stream_recover_byte, Attack, AttackSample, EarlyStop, SampleSource, StreamOptions,
};
use rcoal_bench::{record, write_record, PeakAlloc, BENCH_SEED};
use rcoal_core::CoalescingPolicy;
use rcoal_experiments::{ExperimentConfig, SimulatorSource, TimingSource};
use rcoal_scenario::json::Value;
use std::time::Instant;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Large-leg sample budget when `RCOAL_SAMPLES` is unset. The
/// acceptance point: one million samples, single byte, paper config.
const DEFAULT_SAMPLES: usize = 1_000_000;
/// Attacked key byte (the channel is its exact access count).
const BYTE: usize = 0;
/// Streaming chunk ceiling. Peak heap is O(chunk) — the in-flight
/// plaintexts, launch results, and sample buffer — so both legs must
/// stream in identical chunks for the ratio to isolate the
/// sample-count dependence; the actual chunk is capped at the small
/// leg's budget.
const CHUNK_CEILING: usize = 512;
/// Peak-heap growth allowed between the two legs (CI floor).
const HEAP_RATIO_FLOOR: f64 = 1.1;
/// Streamed samples/s the large leg must sustain (CI floor). Sized like
/// the `sim_throughput` floor, ~4x under a 2-vCPU dev VM, which streams
/// ~10,500 samples/s at the CI budget: it catches an
/// order-of-magnitude regression — the allocating coalesced-access
/// count runs ~2,200 samples/s there — not scheduler noise.
const SAMPLES_PER_SEC_FLOOR: f64 = 2_500.0;
/// Absolute slack for allocator jitter on tiny CI budgets.
const HEAP_SLACK_BYTES: usize = 1 << 20;

struct StreamLeg {
    samples: usize,
    seconds: f64,
    peak_heap_bytes: usize,
    best_guess: u8,
    rank_of_true: usize,
    checkpoints: usize,
    terminated_early: bool,
}

fn source_for(budget: usize) -> Result<(SimulatorSource, [u8; 16]), String> {
    let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, budget, 32)
        .with_seed(BENCH_SEED)
        .with_threads(1)
        .functional_only();
    let source = SimulatorSource::new(cfg, TimingSource::ByteAccesses(BYTE as u8))
        .map_err(|e| e.to_string())?;
    let subkey = source.attacked_subkey();
    Ok((source, subkey))
}

/// One streamed recovery leg, heap-profiled end to end (simulator
/// source included — the claim covers the whole pipeline).
fn stream_leg(
    budget: usize,
    chunk: usize,
    early_stop: Option<EarlyStop>,
) -> Result<StreamLeg, String> {
    let (mut source, subkey) = source_for(budget)?;
    let attack = Attack::baseline(32).with_seed(BENCH_SEED ^ 0x5eed);
    let mut opts = StreamOptions::new(budget).with_chunk(chunk);
    if let Some(rule) = early_stop {
        opts = opts.with_early_stop(rule);
    }

    let heap_floor = PeakAlloc::current_bytes();
    PeakAlloc::reset_peak();
    let start = Instant::now();
    let rec = stream_recover_byte(&attack, &mut source, BYTE, &opts).map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    let peak_heap_bytes = PeakAlloc::peak_bytes().saturating_sub(heap_floor);

    Ok(StreamLeg {
        samples: rec.samples,
        seconds,
        peak_heap_bytes,
        best_guess: rec.recovery.best_guess,
        rank_of_true: rec.recovery.rank_of(subkey[BYTE]),
        checkpoints: rec.checkpoints.len(),
        terminated_early: rec.terminated_early,
    })
}

/// Materializes the identical sample set the streaming legs consumed
/// and replays it as one slice through `Attack::recover_byte`.
fn materialized_verdict(budget: usize) -> Result<(u8, usize, f64), String> {
    let (mut source, subkey) = source_for(budget)?;
    // The simulator source is endless by design (the budget lives in
    // `StreamOptions`), so drain exactly `budget` samples.
    let mut samples: Vec<AttackSample> = Vec::with_capacity(budget);
    let mut chunk = Vec::new();
    while samples.len() < budget {
        let want = (budget - samples.len()).min(8192);
        let got = source
            .next_chunk(want, &mut chunk)
            .map_err(|e| e.to_string())?;
        if got == 0 {
            break;
        }
        samples.append(&mut chunk);
    }
    let attack = Attack::baseline(32).with_seed(BENCH_SEED ^ 0x5eed);
    let start = Instant::now();
    let rec = attack
        .recover_byte(&samples, BYTE)
        .map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    Ok((rec.best_guess, rec.rank_of(subkey[BYTE]), seconds))
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("sample_scaling bench failed: {msg}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let large = std::env::var("RCOAL_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 100)
        .unwrap_or(DEFAULT_SAMPLES);
    let small = large / 10;
    println!("sample_scaling: streamed byte-{BYTE} recovery, {small} vs {large} samples");

    let chunk = CHUNK_CEILING.min(small).max(1);
    let lo = stream_leg(small, chunk, None)?;
    println!(
        "  n={:<8}: {:.3} s, peak heap {:.2} MiB, best {:#04x} (rank {})",
        lo.samples,
        lo.seconds,
        mib(lo.peak_heap_bytes),
        lo.best_guess,
        lo.rank_of_true
    );
    let hi = stream_leg(large, chunk, None)?;
    println!(
        "  n={:<8}: {:.3} s, peak heap {:.2} MiB, best {:#04x} (rank {})",
        hi.samples,
        hi.seconds,
        mib(hi.peak_heap_bytes),
        hi.best_guess,
        hi.rank_of_true
    );

    // The CI floor: 10x the samples, < 1.1x the memory.
    let heap_ratio = hi.peak_heap_bytes as f64 / lo.peak_heap_bytes.max(1) as f64;
    let heap_independent = hi.peak_heap_bytes
        <= (lo.peak_heap_bytes as f64 * HEAP_RATIO_FLOOR) as usize + HEAP_SLACK_BYTES;
    println!(
        "  heap ratio: {heap_ratio:.3}x for 10x samples (floor {HEAP_RATIO_FLOOR}x \
         + {HEAP_SLACK_BYTES} B slack) -> {}",
        if heap_independent { "ok" } else { "FAIL" }
    );

    // The CI throughput floor.
    let samples_per_second = hi.samples as f64 / hi.seconds.max(1e-9);
    let fast_enough = samples_per_second >= SAMPLES_PER_SEC_FLOOR;
    println!(
        "  throughput: {samples_per_second:.0} samples/s (floor {SAMPLES_PER_SEC_FLOOR:.0}) -> {}",
        if fast_enough { "ok" } else { "FAIL" }
    );

    // Cross-check the generator-fed stream against a slice replay of
    // the same samples.
    let (mat_guess, mat_rank, mat_seconds) = materialized_verdict(large)?;
    let verdicts_match = mat_guess == hi.best_guess && mat_rank == hi.rank_of_true;
    println!(
        "  materialized: best {mat_guess:#04x} (rank {mat_rank}), attack {mat_seconds:.3} s -> {}",
        if verdicts_match { "match" } else { "MISMATCH" }
    );

    // Early termination at the large budget, for the record.
    let stop = stream_leg(large, chunk, Some(EarlyStop::default()))?;
    println!(
        "  early stop: {} of {large} samples, {} checkpoint(s), terminated={}",
        stop.samples, stop.checkpoints, stop.terminated_early
    );

    let json = record("sample_scaling")
        .field(
            "workload",
            Value::str("streamed single-byte recovery, paper AES config, exact access channel"),
        )
        .field("byte", Value::usize(BYTE))
        .field("chunk", Value::usize(chunk))
        .field("samples_small", Value::usize(lo.samples))
        .field("samples_large", Value::usize(hi.samples))
        .field("small_seconds", Value::f64(lo.seconds))
        .field("small_peak_heap_bytes", Value::usize(lo.peak_heap_bytes))
        .field("large_seconds", Value::f64(hi.seconds))
        .field("large_peak_heap_bytes", Value::usize(hi.peak_heap_bytes))
        .field("heap_ratio", Value::f64(heap_ratio))
        .field("heap_ratio_floor", Value::f64(HEAP_RATIO_FLOOR))
        .field("heap_slack_bytes", Value::usize(HEAP_SLACK_BYTES))
        .field("heap_independent", Value::Bool(heap_independent))
        .field("samples_per_second", Value::f64(samples_per_second))
        .field(
            "samples_per_second_floor",
            Value::f64(SAMPLES_PER_SEC_FLOOR),
        )
        .field("best_guess", Value::u64(hi.best_guess.into()))
        .field("rank_of_true", Value::usize(hi.rank_of_true))
        .field("materialized_best_guess", Value::u64(mat_guess.into()))
        .field("materialized_rank_of_true", Value::usize(mat_rank))
        .field("materialized_attack_seconds", Value::f64(mat_seconds))
        .field("verdicts_match", Value::Bool(verdicts_match))
        .field("early_stop_samples", Value::usize(stop.samples))
        .field("early_stop_checkpoints", Value::usize(stop.checkpoints))
        .field("early_stop_terminated", Value::Bool(stop.terminated_early));
    write_record("attack", json)?;

    if !heap_independent {
        return Err(format!(
            "peak heap grew {heap_ratio:.2}x for 10x samples — the streaming engine is \
             materializing"
        ));
    }
    if !verdicts_match {
        return Err("streamed and materialized verdicts diverged".into());
    }
    if !fast_enough {
        return Err(format!(
            "streamed {samples_per_second:.0} samples/s, below the floor \
             {SAMPLES_PER_SEC_FLOOR:.0}"
        ));
    }
    Ok(())
}
