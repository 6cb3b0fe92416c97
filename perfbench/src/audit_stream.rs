//! `audit-stream`: the streamed leakage audit of a randomized defense.
//!
//! Victim under RSS(8)+RTS, functional-only; `StreamingAudit` (with its
//! corresponding randomized model) fed chunks from a `SimulatorSource`
//! for a fixed budget. Same generation and guess-lane layers as
//! `attack-stream`, but on the randomized path, where every guess
//! replays its own RNG stream, plus the audit instruments. Each pass
//! also replays the stream's first [`PREFIX`] samples, already
//! materialized, through the batch `audit_samples` (the replay leg).

use crate::common::{self, Ctx, Record, WARP};
use crate::report::{digest, median, Metrics, Tally, COVERAGE_BOUND};
use crate::trace::Tracer;
use rcoal_attack::{even_checkpoints, Attack, AttackSample, SampleSource, StreamingByteRecovery};
use rcoal_audit::{audit_samples, AuditSpec, AuditTarget, LeakageReport, StreamingAudit};
use rcoal_core::CoalescingPolicy;
use rcoal_experiments::{ExperimentConfig, SimulatorSource, TimingSource};
use rcoal_scenario::json::Value;

/// Samples per pass.
const BUDGET: usize = 4096;
/// Samples pulled from the source per chunk.
const CHUNK: usize = 1024;
/// Samples the replay leg re-audits.
const PREFIX: usize = 1024;

fn policy() -> Result<CoalescingPolicy, String> {
    CoalescingPolicy::rss_rts(8).map_err(|e| e.to_string())
}

fn config(ctx: &Ctx) -> Result<ExperimentConfig, String> {
    Ok(ExperimentConfig::new(policy()?, BUDGET, WARP)
        .with_seed(ctx.seed)
        .with_threads(ctx.threads)
        .functional_only())
}

fn spec() -> AuditSpec {
    AuditSpec::new()
}

struct Setup {
    source: SimulatorSource,
    audit: StreamingAudit,
    /// The correct byte at the audited position.
    expected: u8,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let source = SimulatorSource::new(config(ctx)?, TimingSource::ByteAccesses(spec().byte as u8))
        .map_err(|e| e.to_string())?;
    let expected = source.attacked_subkey()[spec().byte];
    let target = AuditTarget::aes(policy()?, WARP, expected);
    let audit = StreamingAudit::new(target, spec(), BUDGET).map_err(|e| e.to_string())?;
    Ok(Setup {
        source,
        audit,
        expected,
    })
}

fn report_digest(report: &LeakageReport) -> String {
    digest(report.to_json().as_bytes())
}

/// Feeds `chunk` to the probe engine split where `StreamingAudit` splits
/// it (at its planned checkpoints), so both see identical sub-chunks.
fn push_split(engine: &mut StreamingByteRecovery, planned: &[usize], chunk: &[AttackSample]) {
    let mut off = 0;
    while off < chunk.len() {
        let consumed = engine.len();
        let remaining = chunk.len() - off;
        let take = planned
            .iter()
            .find(|&&b| b > consumed)
            .map_or(remaining, |&b| remaining.min(b - consumed));
        engine.push_chunk(&chunk[off..off + take]);
        off += take;
    }
}

/// One pass of the benchmark's chunk loop. With a probe engine, every
/// chunk is also replayed through it under a `probe.` span.
fn pass(
    mut s: Setup,
    tracer: &mut Tracer,
    mut probe: Option<&mut StreamingByteRecovery>,
) -> Result<(LeakageReport, Option<usize>), String> {
    let planned = even_checkpoints(BUDGET, spec().checkpoints);
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
        tracer.span("audit.push_chunk", || s.audit.push_chunk(&buf));
        if let Some(engine) = probe.as_deref_mut() {
            tracer.span("probe.attack.push_chunk", || {
                push_split(engine, &planned, &buf)
            });
        }
        consumed += got;
    }
    let report = tracer
        .span("audit.finish", || s.audit.finish())
        .map_err(|e| e.to_string())?;
    tracer.exit(root);
    Ok((report, root))
}

fn check_pass(report: &LeakageReport, first_digest: &mut Option<String>, tally: &mut Tally) {
    tally.check(report.samples == BUDGET, || {
        format!("audit saw {} of {BUDGET} samples", report.samples)
    });
    let d = report_digest(report);
    let first = first_digest.get_or_insert_with(|| d.clone());
    tally.check(*first == d, || {
        format!("pass report differs from the first pass ({d} vs {first})")
    });
}

/// The first [`PREFIX`] samples, materialized, and their streamed audit:
/// the input and the reference of the replay leg.
fn reference(ctx: &Ctx) -> Result<(Vec<AttackSample>, LeakageReport, u8), String> {
    let mut s = setup(ctx)?;
    let prefix = common::take_samples(&mut s.source, PREFIX)?;
    let target = AuditTarget::aes(policy()?, WARP, s.expected);
    let mut audit = StreamingAudit::new(target, spec(), PREFIX).map_err(|e| e.to_string())?;
    for chunk in prefix.chunks(CHUNK) {
        audit.push_chunk(chunk);
    }
    let streamed = audit.finish().map_err(|e| e.to_string())?;
    Ok((prefix, streamed, s.expected))
}

/// The replay leg: batch `audit_samples` over the materialized prefix.
/// MI must match the streamed report bit for bit and Welch t within 1e-9.
fn replay(
    prefix: &[AttackSample],
    expected: u8,
    streamed: &LeakageReport,
    tally: &mut Tally,
) -> Result<f64, String> {
    let policy = policy()?;
    let (batch, secs) = common::timed(|| audit_samples(policy, WARP, prefix, expected, &spec()));
    let batch = batch.map_err(|e| e.to_string())?;
    tally.check(batch.timing.mi == streamed.timing.mi, || {
        "batch and streamed MI differ on the prefix".into()
    });
    tally.check(
        (batch.timing.welch.t - streamed.timing.welch.t).abs() <= 1e-9,
        || {
            format!(
                "batch Welch t {} vs streamed {} on the prefix",
                batch.timing.welch.t, streamed.timing.welch.t
            )
        },
    );
    tally.check(
        batch.trajectory == streamed.trajectory && batch.leaky == streamed.leaky,
        || "batch and streamed trajectories or verdicts differ on the prefix".into(),
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

fn untraced_run(
    ctx: &Ctx,
    tally: &mut Tally,
    metrics: &mut Metrics,
    record: &mut Record,
    setups: Vec<f64>,
    first_digest: &mut Option<String>,
) -> Result<(), String> {
    let (prefix, streamed, expected) = reference(ctx)?;
    let mut off = Tracer::new(false);
    common::stream_untraced(ctx, metrics, record, setups, BUDGET, || {
        let (s, setup_s) = common::timed(|| setup(ctx));
        let s = s?;
        common::reset_heap();
        let (out, stream_s) = common::timed(|| pass(s, &mut off, None));
        let (report, _) = out?;
        tally.ok(BUDGET.div_ceil(CHUNK) as u64);
        let replay_s = replay(&prefix, expected, &streamed, tally)?;
        let heap_mib = common::peak_heap_mib();
        check_pass(&report, first_digest, tally);
        Ok(common::StreamPass {
            setup_s,
            stream_s,
            replay_s,
            heap_mib,
        })
    })
}

/// Alternates an untraced pass with a traced pass whose chunks are also
/// replayed through a standalone recovery engine (the probe that splits
/// `audit.push_s` into recovery and audit self time).
fn traced_run(
    ctx: &Ctx,
    tally: &mut Tally,
    metrics: &mut Metrics,
    record: &mut Record,
    tracer: &mut Tracer,
    first_digest: &mut Option<String>,
) -> Result<(), String> {
    // The engine `StreamingAudit` runs inside: the corresponding model
    // with the audit's seed and default thread count.
    let model = Attack::against(policy()?, WARP).with_seed(spec().attack_seed);
    let mut off = Tracer::new(false);
    let (mut gen, mut push, mut inner, mut finish, mut coverage, mut overhead) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let passes = common::repeat(ctx, |_| {
        let (plain, plain_s) = common::timed(|| pass(setup(ctx)?, &mut off, None));
        let (plain, _) = plain?;
        check_pass(&plain, first_digest, tally);
        let s = setup(ctx)?;
        let expected = s.expected;
        let mut engine =
            StreamingByteRecovery::new(&model, spec().byte).map_err(|e| e.to_string())?;
        let (report, root) = pass(s, tracer, Some(&mut engine))?;
        tally.ok(2 * BUDGET.div_ceil(CHUNK) as u64);
        tally.check(report_digest(&report) == report_digest(&plain), || {
            "the traced pass's report differs from the untraced pass's".into()
        });
        let probe_corr = engine.correlation_of(expected).to_bits();
        tally.check(
            report
                .trajectory
                .last()
                .is_some_and(|p| p.corr_true.to_bits() == probe_corr),
            || "the standalone recovery probe diverges from the audit's trajectory".into(),
        );
        let times = tracer.self_times(root);
        let wall = tracer.wall_without_probes(root);
        let layer = |name| times.get(name).copied().unwrap_or(0.0);
        let (g, p, f) = (
            layer("experiments.next_chunk"),
            layer("audit.push_chunk"),
            layer("audit.finish"),
        );
        gen.push(g);
        push.push(p);
        inner.push(layer("probe.attack.push_chunk"));
        finish.push(f);
        coverage.push((g + p + f) / wall);
        overhead.push(wall / plain_s);
        Ok(())
    })?;
    record.set("passes", Value::usize(passes));
    let source = setup(ctx)?.source;
    common::stream_probes(
        tracer,
        tally,
        metrics,
        &config(ctx)?,
        source,
        &model,
        spec().byte,
    )?;

    let (push_s, recovery_s) = (median(&push), median(&inner));
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
    metrics.set("attack.push_s", recovery_s);
    metrics.set("attack.pairs", pairs);
    let per_pair = metrics.get("attack.predict_ns") + metrics.get("attack.accumulate_ns");
    metrics.set(
        "attack.parallel_eff",
        per_pair * 1e-9 * pairs / (ctx.threads as f64 * recovery_s),
    );
    metrics.set("audit.push_s", push_s);
    metrics.set("audit.self_s", push_s - recovery_s);
    metrics.set("audit.finish_s", median(&finish));
    metrics.set("trace.overhead_ratio", median(&overhead));
    metrics.set("trace.coverage", cov);
    Ok(())
}
