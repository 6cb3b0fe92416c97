//! `attack-stream`: the streamed single-byte key recovery of the timing
//! side-channel study.
//!
//! Paper-config AES, functional-only victim under stock (baseline)
//! coalescing; `stream_recover_byte` over a `SimulatorSource` on the
//! `ByteAccesses(0)` channel with the baseline model, a fixed budget,
//! and early stop off. Deterministic-policy prediction and functional
//! generation do almost all the work; the cycle simulator and the run
//! store are never touched. Each pass also replays the stream's first
//! [`PREFIX`] samples, already materialized, through the two-pass
//! `Attack::recover_byte` (the replay leg).

use crate::common::{self, Ctx, Record, WARP};
use crate::report::{digest_words, median, Metrics, Tally, COVERAGE_BOUND};
use crate::trace::Tracer;
use rcoal_attack::{
    stream_recover_byte, Attack, AttackSample, SampleSource, StreamOptions, StreamingByteRecovery,
};
use rcoal_core::CoalescingPolicy;
use rcoal_experiments::{ExperimentConfig, SimulatorSource, TimingSource};
use rcoal_scenario::json::Value;

/// Samples per pass.
const BUDGET: usize = 8192;
/// Samples pulled from the source per chunk.
const CHUNK: usize = 1024;
/// Key byte under study.
const BYTE: usize = 0;
/// Samples the replay leg re-analyses; a checkpoint of the stream (a
/// multiple of `BUDGET / 16`), so the streamed leader there is the
/// reference.
const PREFIX: usize = BUDGET / 4;

fn config(ctx: &Ctx) -> ExperimentConfig {
    ExperimentConfig::new(CoalescingPolicy::Baseline, BUDGET, WARP)
        .with_seed(ctx.seed)
        .with_threads(ctx.threads)
        .functional_only()
}

fn options() -> StreamOptions {
    StreamOptions::new(BUDGET).with_chunk(CHUNK)
}

/// Everything a pass needs before its clock starts.
struct Setup {
    source: SimulatorSource,
    model: Attack,
    engine: StreamingByteRecovery,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let source = SimulatorSource::new(config(ctx), TimingSource::ByteAccesses(BYTE as u8))
        .map_err(|e| e.to_string())?;
    let model = Attack::baseline(WARP).with_threads(Some(ctx.threads));
    let engine = StreamingByteRecovery::new(&model, BYTE).map_err(|e| e.to_string())?;
    Ok(Setup {
        source,
        model,
        engine,
    })
}

/// A pass's outputs in the form both chunk loops share.
struct PassOut {
    samples: usize,
    correlations: Vec<f64>,
    /// `(samples, leader, leader_corr, runner_up_corr)` per checkpoint.
    checkpoints: Vec<(usize, u8, f64, f64)>,
    rank_of_true: usize,
}

impl PassOut {
    fn digest(&self) -> String {
        let correlations = self.correlations.iter().map(|r| r.to_bits());
        let checkpoints = self.checkpoints.iter().flat_map(|&(n, leader, r1, r2)| {
            [n as u64, u64::from(leader), r1.to_bits(), r2.to_bits()]
        });
        digest_words(
            std::iter::once(self.samples as u64)
                .chain(correlations)
                .chain(checkpoints),
        )
    }
}

/// The measured program: the library's `stream_recover_byte`.
fn library_pass(mut s: Setup, true_byte: u8) -> Result<PassOut, String> {
    let rec = stream_recover_byte(&s.model, &mut s.source, BYTE, &options())
        .map_err(|e| e.to_string())?;
    Ok(PassOut {
        samples: rec.samples,
        rank_of_true: rec.recovery.rank_of(true_byte),
        correlations: rec.recovery.correlations,
        checkpoints: rec
            .checkpoints
            .iter()
            .map(|c| (c.samples, c.leader, c.leader_corr, c.runner_up_corr))
            .collect(),
    })
}

/// The same stream driven by the benchmark's own chunk loop, with a span
/// around every `next_chunk`, `push_chunk`, and checkpoint. It splits
/// chunks at checkpoint boundaries exactly like `stream_recover_byte`, so
/// its outputs must match [`library_pass`] bit for bit.
fn traced_pass(
    mut s: Setup,
    true_byte: u8,
    tracer: &mut Tracer,
) -> Result<(PassOut, String, Option<usize>), String> {
    let every = BUDGET / 16;
    let mut checkpoints = Vec::new();
    let mut buf: Vec<AttackSample> = Vec::with_capacity(CHUNK);
    let mut consumed = 0;
    let root = tracer.enter("pass");
    while consumed < BUDGET {
        buf.clear();
        let want = CHUNK.min(BUDGET - consumed);
        let got = tracer
            .span("experiments.next_chunk", || {
                s.source.next_chunk(want, &mut buf)
            })
            .map_err(|e| e.to_string())?;
        if got == 0 {
            break;
        }
        let mut off = 0;
        while off < got {
            let take = (every - consumed % every).min(got - off);
            tracer.span("attack.push_chunk", || {
                s.engine.push_chunk(&buf[off..off + take])
            });
            consumed += take;
            off += take;
            if consumed % every == 0 {
                let (leader, r1, r2) = tracer.span("attack.checkpoint", || s.engine.leader());
                checkpoints.push((consumed, leader, r1, r2));
            }
        }
    }
    if checkpoints.last().map(|c| c.0) != Some(consumed) {
        let (leader, r1, r2) = tracer.span("attack.checkpoint", || s.engine.leader());
        checkpoints.push((consumed, leader, r1, r2));
    }
    let snapshot = tracer.span("attack.checkpoint", || s.engine.snapshot());
    tracer.exit(root);
    let out = PassOut {
        samples: s.engine.len(),
        rank_of_true: snapshot.rank_of(true_byte),
        correlations: snapshot.correlations,
        checkpoints,
    };
    Ok((out, common::state_digest(&s.engine), root))
}

/// Per-pass checks shared by both chunk loops.
fn check_pass(out: &PassOut, first_digest: &mut Option<String>, tally: &mut Tally) {
    tally.check(out.samples == BUDGET, || {
        format!("stream consumed {} of {BUDGET} samples", out.samples)
    });
    tally.check(out.rank_of_true == 0, || {
        format!(
            "correct byte ranks {} at the budget, not first",
            out.rank_of_true
        )
    });
    let digest = out.digest();
    let first = first_digest.get_or_insert_with(|| digest.clone());
    tally.check(*first == digest, || {
        format!("pass outputs differ from the first pass ({digest} vs {first})")
    });
}

/// The replay leg: the two-pass engine over the materialized prefix must
/// agree with the stream's checkpoint at [`PREFIX`].
fn replay(
    model: &Attack,
    prefix: &[AttackSample],
    out: &PassOut,
    tally: &mut Tally,
) -> Result<f64, String> {
    let (batch, secs) = common::timed(|| model.recover_byte(prefix, BYTE));
    let batch = batch.map_err(|e| e.to_string())?;
    let streamed = out.checkpoints.iter().find(|c| c.0 == PREFIX).copied();
    tally.check(
        streamed.is_some_and(|(_, leader, r1, _)| {
            batch.best_guess == leader && (batch.correlation_of(leader) - r1).abs() <= 1e-9
        }),
        || {
            format!(
                "two-pass result on the {PREFIX}-sample prefix (best {:#04x}) disagrees \
                 with the stream's checkpoint {streamed:?}",
                batch.best_guess
            )
        },
    );
    Ok(secs)
}

pub fn run(
    ctx: &Ctx,
    tally: &mut Tally,
    metrics: &mut Metrics,
    record: &mut Record,
    tracer: &mut Tracer,
) -> Result<(), String> {
    record.set("budget", Value::usize(BUDGET));
    record.set("chunk", Value::usize(CHUNK));
    record.set("replay_prefix", Value::usize(PREFIX));
    let setups = common::setup_times(|| setup(ctx))?;
    let mut first_digest = None;
    if ctx.traced {
        traced_run(ctx, tally, metrics, record, tracer, &mut first_digest)?;
    } else {
        untraced_run(ctx, tally, metrics, record, setups, &mut first_digest)?;
    }
    record.set(
        "digest",
        Value::str(first_digest.unwrap_or_else(|| "none".into())),
    );
    Ok(())
}

/// The correct byte and the materialized prefix the replay leg reads.
fn reference(ctx: &Ctx) -> Result<(u8, Vec<AttackSample>), String> {
    let mut source = setup(ctx)?.source;
    let expected = source.attacked_subkey()[BYTE];
    Ok((expected, common::take_samples(&mut source, PREFIX)?))
}

fn untraced_run(
    ctx: &Ctx,
    tally: &mut Tally,
    metrics: &mut Metrics,
    record: &mut Record,
    setups: Vec<f64>,
    first_digest: &mut Option<String>,
) -> Result<(), String> {
    let (expected, prefix) = reference(ctx)?;
    let model = Attack::baseline(WARP).with_threads(Some(ctx.threads));
    common::stream_untraced(ctx, metrics, record, setups, BUDGET, || {
        let (s, setup_s) = common::timed(|| setup(ctx));
        let s = s?;
        common::reset_heap();
        let (out, stream_s) = common::timed(|| library_pass(s, expected));
        let out = out?;
        tally.ok(BUDGET.div_ceil(CHUNK) as u64);
        let replay_s = replay(&model, &prefix, &out, tally)?;
        let heap_mib = common::peak_heap_mib();
        check_pass(&out, first_digest, tally);
        Ok(common::StreamPass {
            setup_s,
            stream_s,
            replay_s,
            heap_mib,
        })
    })
}

/// Alternates a library pass (the untraced reference for the guard and
/// the overhead ratio) with a traced pass, then runs the probes once.
fn traced_run(
    ctx: &Ctx,
    tally: &mut Tally,
    metrics: &mut Metrics,
    record: &mut Record,
    tracer: &mut Tracer,
    first_digest: &mut Option<String>,
) -> Result<(), String> {
    let (expected, _) = reference(ctx)?;
    let (mut gen, mut push, mut cp, mut coverage, mut overhead) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut state = String::new();
    let passes = common::repeat(ctx, |_| {
        let (lib, lib_s) = common::timed(|| library_pass(setup(ctx)?, expected));
        let lib = lib?;
        check_pass(&lib, first_digest, tally);
        let (out, state_digest, root) = traced_pass(setup(ctx)?, expected, tracer)?;
        tally.ok(2 * BUDGET.div_ceil(CHUNK) as u64);
        tally.check(out.digest() == lib.digest(), || {
            "the traced chunk loop's outputs differ from stream_recover_byte's".into()
        });
        state = state_digest;
        let times = tracer.self_times(root);
        let wall = tracer.wall_without_probes(root);
        let layer = |name| times.get(name).copied().unwrap_or(0.0);
        let (g, p, c) = (
            layer("experiments.next_chunk"),
            layer("attack.push_chunk"),
            layer("attack.checkpoint"),
        );
        gen.push(g);
        push.push(p);
        cp.push(c);
        coverage.push((g + p + c) / wall);
        overhead.push(wall / lib_s);
        Ok(())
    })?;
    record.set("passes", Value::usize(passes));
    record.set("state_digest", Value::str(state));
    let model = Attack::baseline(WARP).with_threads(Some(ctx.threads));
    common::stream_probes(
        tracer,
        tally,
        metrics,
        &config(ctx),
        setup(ctx)?.source,
        &model,
        BYTE,
    )?;

    let push_s = median(&push);
    let pairs = (BUDGET * 256) as f64;
    let cov = median(&coverage);
    tally.check((1.0 - cov).abs() <= COVERAGE_BOUND, || {
        format!("layer spans cover {cov:.4} of the traced wall time")
    });
    metrics.set("experiments.gen_s", median(&gen));
    metrics.set(
        "experiments.gen_us_per_sample",
        median(&gen) * 1e6 / BUDGET as f64,
    );
    metrics.set("attack.push_s", push_s);
    metrics.set("attack.pairs", pairs);
    metrics.set("attack.checkpoint_s", median(&cp));
    let per_pair = metrics.get("attack.predict_ns") + metrics.get("attack.accumulate_ns");
    metrics.set(
        "attack.parallel_eff",
        per_pair * 1e-9 * pairs / (ctx.threads as f64 * push_s),
    );
    metrics.set("trace.overhead_ratio", median(&overhead));
    metrics.set("trace.coverage", cov);
    Ok(())
}
