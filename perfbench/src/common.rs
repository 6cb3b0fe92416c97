//! Pieces the three workloads share: the run context, the pass loop,
//! timing and heap helpers, the run record, and the inner-layer probes
//! of the streamed workloads.

use crate::report::{digest_words, median, Metrics, Tally};
use crate::trace::Tracer;
use rcoal_attack::{Attack, AttackSample, PearsonAccumulator, SampleSource, StreamingByteRecovery};
use rcoal_bench::PeakAlloc;
use rcoal_experiments::{ExperimentConfig, SimulatorSource};
use rcoal_scenario::json::Value;
use rcoal_workload::KernelWorkload;
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: &[&str] = &["attack-stream", "audit-stream", "sweep-timed"];

/// Fewest passes a run makes, however long each takes.
const MIN_PASSES: usize = 1;

/// Extra set-ups each run times before its passes: set-up is short, so
/// its median needs more values than the passes give.
const SETUP_REPS: usize = 41;

/// Samples replayed through the single-thread guess-lane and kernel
/// probes.
const PROBE_SAMPLES: usize = 256;

/// Warp width of the paper configuration.
pub const WARP: usize = 32;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Worker threads every layer is given (`RCOAL_THREADS`, else the
    /// host's available parallelism).
    pub threads: usize,
    /// Scratch directory for stores and span dumps.
    pub work_dir: PathBuf,
}

/// Run-record fields a workload adds (budget, passes, output digests).
#[derive(Debug, Default)]
pub struct Record(Vec<(&'static str, Value)>);

impl Record {
    pub fn set(&mut self, key: &'static str, value: Value) {
        self.0.retain(|(k, _)| *k != key);
        self.0.push((key, value));
    }

    /// Appends the workload's fields to the host fields in `host`.
    pub fn finish(self, host: Value) -> Value {
        let mut members = match host {
            Value::Obj(members) => members,
            _ => Vec::new(),
        };
        members.extend(self.0.into_iter().map(|(k, v)| (k.to_string(), v)));
        Value::Obj(members)
    }
}

/// Runs `pass(i)` until `ctx.seconds` have elapsed (and at least
/// [`MIN_PASSES`] times); returns the number of passes.
pub fn repeat(
    ctx: &Ctx,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        pass(n)?;
        n += 1;
    }
    Ok(n)
}

/// What one untraced pass of a streamed workload measured.
#[derive(Debug, Clone, Copy)]
pub struct StreamPass {
    pub setup_s: f64,
    pub stream_s: f64,
    pub replay_s: f64,
    pub heap_mib: f64,
}

/// The untraced run of a streamed workload: repeats `pass` and sets the
/// end-to-end metrics from the medians. A pass streams `budget` samples
/// (one scenario) and then replays one stored prefix (one replay).
pub fn stream_untraced(
    ctx: &Ctx,
    metrics: &mut Metrics,
    record: &mut Record,
    mut setups: Vec<f64>,
    budget: usize,
    mut pass: impl FnMut() -> Result<StreamPass, String>,
) -> Result<(), String> {
    let (mut stream, mut replay, mut wall, mut heap) = (vec![], vec![], vec![], vec![]);
    let passes = repeat(ctx, |_| {
        let p = pass()?;
        setups.push(p.setup_s);
        stream.push(p.stream_s);
        replay.push(p.replay_s);
        wall.push(p.stream_s + p.replay_s);
        heap.push(p.heap_mib);
        Ok(())
    })?;
    record.set("passes", Value::usize(passes));
    metrics.set("samples_per_s", budget as f64 / median(&stream));
    metrics.set("scenarios_per_s", 1.0 / median(&stream));
    metrics.set("replay_per_s", 1.0 / median(&replay));
    metrics.set("wall_s", median(&wall));
    metrics.set("setup_s", median(&setups));
    metrics.set("peak_heap_mib", median(&heap));
    Ok(())
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Times [`SETUP_REPS`] set-ups whose products are dropped.
pub fn setup_times<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<Vec<f64>, String> {
    (0..SETUP_REPS)
        .map(|_| {
            let (built, secs) = timed(&mut setup);
            built.map(|_| secs)
        })
        .collect()
}

/// Restarts the peak-heap window at the current live heap.
pub fn reset_heap() {
    PeakAlloc::reset_peak();
}

/// Peak live heap since the last [`reset_heap`], in MiB.
pub fn peak_heap_mib() -> f64 {
    PeakAlloc::peak_bytes() as f64 / (1024.0 * 1024.0)
}

/// The first `n` samples of `source`, materialized.
pub fn take_samples(source: &mut dyn SampleSource, n: usize) -> Result<Vec<AttackSample>, String> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let got = source
            .next_chunk(n - out.len(), &mut out)
            .map_err(|e| e.to_string())?;
        if got == 0 {
            return Err(format!("source ended after {} of {n} samples", out.len()));
        }
    }
    Ok(out)
}

/// Digest of all 256 guess lanes' accumulator state.
pub fn state_digest(engine: &StreamingByteRecovery) -> String {
    digest_words((0..=255u8).flat_map(|m| engine.accumulator(m).state_bits()))
}

/// Per-launch cost of `KernelWorkload::build_kernel`, replayed on the
/// plaintexts behind `samples` (the prefix of the stream `cfg` makes).
/// Returns microseconds per launch and whether every rebuilt kernel
/// shows the attacker the same text the stream carried.
fn build_kernel_probe(
    tracer: &mut Tracer,
    workload: &dyn KernelWorkload,
    cfg: &ExperimentConfig,
    samples: &[AttackSample],
) -> (f64, bool) {
    let plaintexts = rcoal_experiments::random_plaintexts(samples.len(), cfg.lines, cfg.seed);
    let mut secs = 0.0;
    let mut same = true;
    let probe = tracer.enter("probe.workload.build_kernel");
    for (lines, sample) in plaintexts.into_iter().zip(samples) {
        let (kernel, t) = timed(|| workload.build_kernel(&cfg.key, lines, cfg.gpu.warp_size));
        secs += t;
        same &= kernel.attack_text() == &sample.ciphertexts[..];
    }
    tracer.exit(probe);
    (secs * 1e6 / samples.len().max(1) as f64, same)
}

/// Single-thread replay of the 256-guess inner loop on `samples`:
/// `AccessPredictor::predict_bytes` then `PearsonAccumulator::push` for
/// every (sample, guess) pair, timed separately.
#[derive(Debug)]
struct LaneProbe {
    predict_ns: f64,
    accumulate_ns: f64,
    /// Whether the replayed accumulators equal, bit for bit, those of a
    /// `StreamingByteRecovery` fed the same samples.
    matches_engine: bool,
}

/// The generation and guess-lane probes of the streamed workloads, run
/// once on the first [`PROBE_SAMPLES`] samples of `source`.
pub fn stream_probes(
    tracer: &mut Tracer,
    tally: &mut Tally,
    metrics: &mut Metrics,
    cfg: &ExperimentConfig,
    mut source: SimulatorSource,
    model: &Attack,
    byte: usize,
) -> Result<(), String> {
    let samples = take_samples(&mut source, PROBE_SAMPLES)?;
    let (build_us, same_text) = build_kernel_probe(tracer, source.workload_def(), cfg, &samples);
    tally.check(same_text, || {
        "rebuilt kernels show different text than the stream carried".into()
    });
    let lanes = lane_probe(tracer, model, &samples, byte)?;
    tally.check(lanes.matches_engine, || {
        "the guess-lane probe's accumulators differ from the engine's".into()
    });
    metrics.set("workload.build_kernel_us", build_us);
    metrics.set("attack.predict_ns", lanes.predict_ns);
    metrics.set("attack.accumulate_ns", lanes.accumulate_ns);
    Ok(())
}

fn lane_probe(
    tracer: &mut Tracer,
    attack: &Attack,
    samples: &[AttackSample],
    byte: usize,
) -> Result<LaneProbe, String> {
    let n = samples.len();
    let columns: Vec<Vec<u8>> = samples
        .iter()
        .map(|s| s.ciphertexts.iter().map(|ct| ct[byte]).collect())
        .collect();
    let mut predictors: Vec<_> = (0..=255u8).map(|m| attack.predictor_for_guess(m)).collect();
    let mut xs = vec![0.0f64; 256 * n];
    let probe = tracer.enter("probe.attack.predict_bytes");
    let ((), predict_s) = timed(|| {
        for (m, (predictor, row)) in predictors
            .iter_mut()
            .zip(xs.chunks_mut(n.max(1)))
            .enumerate()
        {
            for (x, col) in row.iter_mut().zip(&columns) {
                *x = predictor.predict_bytes(col, m as u8);
            }
        }
    });
    tracer.exit(probe);

    let mut accs = vec![PearsonAccumulator::new(); 256];
    let probe = tracer.enter("probe.attack.accumulate");
    let ((), accumulate_s) = timed(|| {
        for (acc, row) in accs.iter_mut().zip(xs.chunks(n.max(1))) {
            for (&x, s) in row.iter().zip(samples) {
                acc.push(x, s.time);
            }
        }
    });
    tracer.exit(probe);
    std::hint::black_box(&accs);

    let mut engine = StreamingByteRecovery::new(attack, byte).map_err(|e| e.to_string())?;
    engine.push_chunk(samples);
    let matches_engine = (0..=255u8)
        .all(|m| engine.accumulator(m).state_bits() == accs[usize::from(m)].state_bits());
    let pairs = (256 * n).max(1) as f64;
    Ok(LaneProbe {
        predict_ns: predict_s * 1e9 / pairs,
        accumulate_ns: accumulate_s * 1e9 / pairs,
        matches_engine,
    })
}
