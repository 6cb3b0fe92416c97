//! `sweep-timed`: a cycle-level sweep through the on-disk run store.
//!
//! Paper-config AES over the paper's mechanisms (baseline, FSS(8),
//! RSS(8), RSS(8)+RTS) at the audit gate's calibrated budget. A cold leg
//! runs `SweepRunner::run_scenarios` through `with_disk_cache` into a
//! fresh store (simulate and write); after the last of a pass's cold
//! legs, the warm leg opens a second runner over the same store and calls
//! `audit_one` on every row (read, decode, audit). The event-driven simulator dominates the cold
//! leg; store reads, decoding, and the batch audit dominate the warm one.

use crate::common::{self, Ctx, Record, WARP};
use crate::report::{digest, median, Metrics, Tally, COVERAGE_BOUND};
use crate::trace::Tracer;
use rcoal_audit::{evaluate_gate, AuditSpec, Expectation, LeakageReport};
use rcoal_core::CoalescingPolicy;
use rcoal_experiments::{
    audit_data, decode_run, encode_run, scenario_config, ExperimentData, SweepRunner,
};
use rcoal_gpu_sim::{GpuSimulator, LaunchPolicy};
use rcoal_scenario::json::Value;
use rcoal_scenario::Scenario;
use std::path::{Path, PathBuf};

/// Plaintexts per scenario: the audit gate's calibrated budget.
const SAMPLES: usize = 512;
/// Kernels of one scenario replayed through the simulator probe.
const SIM_PROBE_KERNELS: usize = 64;
/// Repetitions of the content-hash probe (one hash is sub-microsecond).
const HASH_REPS: usize = 1000;
/// Row whose kernels the simulator probe replays (RSS(8)+RTS).
const SIM_PROBE_ROW: usize = 3;
/// Cold legs per pass, each into a fresh store; only the last is
/// followed by the warm leg. A pass takes half a minute, so a run holds
/// one, and the median of several cold legs keeps store-write hiccups
/// out of `scenarios_per_s`.
const COLD_LEGS: usize = 3;

/// The swept scenarios, each with the gate its audit must pass.
fn scenarios(seed: u64) -> Result<Vec<(Scenario, Option<Expectation>)>, String> {
    let e = |err: rcoal_core::PolicyError| err.to_string();
    let rows = [
        (CoalescingPolicy::Baseline, Some(Expectation::Leaky)),
        (CoalescingPolicy::fss(8).map_err(e)?, None),
        (CoalescingPolicy::rss(8).map_err(e)?, None),
        (
            CoalescingPolicy::rss_rts(8).map_err(e)?,
            Some(Expectation::Secure),
        ),
    ];
    Ok(rows
        .into_iter()
        .map(|(policy, gate)| (Scenario::new(policy, SAMPLES, WARP).with_seed(seed), gate))
        .collect())
}

struct Setup {
    dir: PathBuf,
    cold: SweepRunner,
    warm: SweepRunner,
}

fn remove_store(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// A fresh store directory and the two runners over it.
fn setup(ctx: &Ctx, pass: usize) -> Result<Setup, String> {
    let dir = ctx
        .work_dir
        .join(format!("store-{}-{pass}", std::process::id()));
    remove_store(&dir)?;
    let open = || {
        SweepRunner::with_disk_cache(&dir)
            .map(|r| r.with_threads(ctx.threads))
            .map_err(|e| e.to_string())
    };
    let (cold, warm) = (open()?, open()?);
    Ok(Setup { dir, cold, warm })
}

struct PassOut {
    cold: Vec<ExperimentData>,
    warm: Vec<(ExperimentData, LeakageReport)>,
    cold_s: f64,
    warm_s: f64,
    root: Option<usize>,
}

fn pass(
    s: &Setup,
    scenarios: &[Scenario],
    spec: &AuditSpec,
    tracer: &mut Tracer,
) -> Result<PassOut, String> {
    let root = tracer.enter("pass");
    let (cold, cold_s) = common::timed(|| {
        tracer.span("experiments.run_scenarios", || {
            s.cold.run_scenarios(scenarios)
        })
    });
    let cold = cold.map_err(|e| e.to_string())?;
    let (warm, warm_s) = common::timed(|| {
        scenarios
            .iter()
            .map(|sc| tracer.span("experiments.audit_one", || s.warm.audit_one(sc, spec)))
            .collect::<Result<Vec<_>, _>>()
    });
    let warm = warm.map_err(|e| e.to_string())?;
    tracer.exit(root);
    Ok(PassOut {
        cold,
        warm,
        cold_s,
        warm_s,
        root,
    })
}

/// Digest of the encoded rows and the audit reports.
fn pass_digest(out: &PassOut) -> String {
    let mut bytes = Vec::new();
    for row in &out.cold {
        bytes.extend(encode_run(row).unwrap_or_default().into_bytes());
    }
    for (_, report) in &out.warm {
        bytes.extend(report.to_json().into_bytes());
    }
    digest(&bytes)
}

fn check_pass(
    s: &Setup,
    out: &PassOut,
    gates: &[Option<Expectation>],
    first_digest: &mut Option<String>,
    tally: &mut Tally,
) -> Result<(), String> {
    let n = gates.len() as u64;
    tally.ok(2 * n);
    let (cold, warm) = (s.cold.report(), s.warm.report());
    tally.check(cold.launched == n, || {
        format!("cold leg simulated {} of {n} scenarios", cold.launched)
    });
    tally.check(warm.launched == 0, || {
        format!("warm leg re-simulated {} scenarios", warm.launched)
    });
    for (i, (row, (replayed, report))) in out.cold.iter().zip(&out.warm).enumerate() {
        let stored = encode_run(row);
        tally.check(stored.is_some() && stored == encode_run(replayed), || {
            format!("row {i} read back from the store differs from the simulated row")
        });
        if let Some(expectation) = gates[i] {
            let gate = evaluate_gate(report, expectation);
            tally.check(gate.pass, || {
                format!("row {i} fails the {expectation} gate: {:?}", gate.failures)
            });
        }
    }
    let audit = s.warm.verify_store().map_err(|e| e.to_string())?;
    tally.check(audit.is_clean() && audit.entries == n, || {
        format!("store verification: {audit:?}")
    });
    let failures = s.cold.cache_stats().write_failures;
    tally.check(failures == 0, || format!("{failures} store writes failed"));
    let d = pass_digest(out);
    let first = first_digest.get_or_insert_with(|| d.clone());
    tally.check(*first == d, || {
        format!("pass outputs differ from the first pass ({d} vs {first})")
    });
    Ok(())
}

pub fn run(
    ctx: &Ctx,
    tally: &mut Tally,
    metrics: &mut Metrics,
    record: &mut Record,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let (scenarios, gates): (Vec<Scenario>, Vec<Option<Expectation>>) =
        scenarios(ctx.seed)?.into_iter().unzip();
    let n = scenarios.len();
    record.set("budget", Value::usize(SAMPLES));
    record.set("scenarios", Value::usize(n));
    let spec = AuditSpec::new();
    let mut setups = common::setup_times(|| {
        let s = setup(ctx, usize::MAX)?;
        remove_store(&s.dir)
    })?;
    let mut first_digest = None;
    let mut off = Tracer::new(false);
    let (mut cold, mut warm, mut wall, mut heap) = (vec![], vec![], vec![], vec![]);
    let (mut layer_cold, mut layer_warm, mut coverage, mut overhead) =
        (vec![], vec![], vec![], vec![]);
    let mut last: Option<(Setup, PassOut)> = None;
    let passes = common::repeat(ctx, |i| {
        for _ in 1..COLD_LEGS {
            let (s, setup_s) = common::timed(|| setup(ctx, i));
            let s = s?;
            setups.push(setup_s);
            let (rows, cold_s) = common::timed(|| s.cold.run_scenarios(&scenarios));
            let rows = rows.map_err(|e| e.to_string())?;
            tally.ok(rows.len() as u64);
            let launched = s.cold.report().launched;
            tally.check(launched == n as u64, || {
                format!("extra cold leg simulated {launched} of {n} scenarios")
            });
            remove_store(&s.dir)?;
            cold.push(cold_s);
        }
        let (s, setup_s) = common::timed(|| setup(ctx, i));
        let s = s?;
        setups.push(setup_s);
        common::reset_heap();
        let out = pass(&s, &scenarios, &spec, &mut off)?;
        heap.push(common::peak_heap_mib());
        check_pass(&s, &out, &gates, &mut first_digest, tally)?;
        remove_store(&s.dir)?;
        cold.push(out.cold_s);
        warm.push(out.warm_s);
        wall.push(out.cold_s + out.warm_s);
        if ctx.traced {
            let t = setup(ctx, i)?;
            let traced = pass(&t, &scenarios, &spec, tracer)?;
            check_pass(&t, &traced, &gates, &mut first_digest, tally)?;
            let times = tracer.self_times(traced.root);
            let traced_wall = tracer.wall_without_probes(traced.root);
            let layer = |name| times.get(name).copied().unwrap_or(0.0);
            let (c, w) = (
                layer("experiments.run_scenarios"),
                layer("experiments.audit_one"),
            );
            layer_cold.push(c);
            layer_warm.push(w);
            coverage.push((c + w) / traced_wall);
            overhead.push(traced_wall / (out.cold_s + out.warm_s));
            if let Some((prev, _)) = last.replace((t, traced)) {
                remove_store(&prev.dir)?;
            }
        }
        Ok(())
    })?;
    record.set("passes", Value::usize(passes));
    record.set(
        "digest",
        Value::str(first_digest.unwrap_or_else(|| "none".into())),
    );
    if !ctx.traced {
        metrics.set("samples_per_s", (n * SAMPLES) as f64 / median(&cold));
        metrics.set("scenarios_per_s", n as f64 / median(&cold));
        metrics.set("replay_per_s", n as f64 / median(&warm));
        metrics.set("wall_s", median(&wall));
        metrics.set("setup_s", median(&setups));
        metrics.set("peak_heap_mib", median(&heap));
        return Ok(());
    }

    let Some((s, out)) = last else {
        return Err("no traced pass ran".into());
    };
    let cov = median(&coverage);
    tally.check((1.0 - cov).abs() <= COVERAGE_BOUND, || {
        format!("layer spans cover {cov:.4} of the traced wall time")
    });
    metrics.set("experiments.sweep_cold_s", median(&layer_cold));
    metrics.set("experiments.sweep_warm_s", median(&layer_warm));
    metrics.set("trace.overhead_ratio", median(&overhead));
    metrics.set("trace.coverage", cov);
    store_metrics(&s, metrics)?;
    let probed = probes(&scenarios, &spec, &out, tracer, tally, metrics);
    remove_store(&s.dir)?;
    probed
}

/// Runner and cache counters of the last traced pass, and its store size.
fn store_metrics(s: &Setup, metrics: &mut Metrics) -> Result<(), String> {
    let (cold, warm) = (s.cold.report(), s.warm.report());
    let (cold_cache, warm_cache) = (s.cold.cache_stats(), s.warm.cache_stats());
    metrics.set(
        "experiments.launched",
        (cold.launched + warm.launched) as f64,
    );
    metrics.set("experiments.served", (cold.served + warm.served) as f64);
    metrics.set("scenario.cache_hit_ratio", warm_cache.hit_rate());
    metrics.set(
        "scenario.disk_stores",
        (cold_cache.disk_stores + warm_cache.disk_stores) as f64,
    );
    metrics.set(
        "scenario.write_failures",
        (cold_cache.write_failures + warm_cache.write_failures) as f64,
    );
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(&s.dir).map_err(|e| e.to_string())? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        bytes += meta.len();
    }
    metrics.set("scenario.store_bytes", bytes as f64);
    Ok(())
}

/// Inner-layer probes on the last traced pass: the run codec, the
/// content hash, the batch audit, and the cycle simulator.
fn probes(
    scenarios: &[Scenario],
    spec: &AuditSpec,
    out: &PassOut,
    tracer: &mut Tracer,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    // One row: decoding a row costs seconds at the parent commit.
    let row = &out.cold[0];
    let probe = tracer.enter("probe.experiments.encode_run");
    let (encoded, encode_s) = common::timed(|| encode_run(row));
    tracer.exit(probe);
    let encoded = encoded.ok_or("a cold row has no store encoding")?;
    let probe = tracer.enter("probe.experiments.decode_run");
    let (decoded, decode_s) = common::timed(|| decode_run(&encoded));
    tracer.exit(probe);
    let decoded = decoded.map_err(|e| e.to_string())?;
    tally.check(decoded == *row, || {
        "the decoded row differs from the encoded one".into()
    });
    metrics.set("experiments.encode_us", encode_s * 1e6);
    metrics.set("experiments.decode_us", decode_s * 1e6);

    let probe = tracer.enter("probe.scenario.content_hash");
    let ((), hash_s) = common::timed(|| {
        for _ in 0..HASH_REPS {
            for s in scenarios {
                std::hint::black_box(std::hint::black_box(s).content_hash());
            }
        }
    });
    tracer.exit(probe);
    metrics.set(
        "scenario.hash_us",
        hash_s * 1e6 / (HASH_REPS * scenarios.len()) as f64,
    );

    let probe = tracer.enter("probe.audit.audit_data");
    let (reports, batch_s) = common::timed(|| {
        out.warm
            .iter()
            .map(|(data, _)| audit_data(data, WARP, spec))
            .collect::<Result<Vec<_>, _>>()
    });
    tracer.exit(probe);
    let reports = reports.map_err(|e| e.to_string())?;
    tally.check(
        reports
            .iter()
            .zip(&out.warm)
            .all(|(a, (_, b))| a.to_json() == b.to_json()),
        || "audit_data over the warm rows disagrees with audit_one".into(),
    );
    metrics.set("audit.batch_s", batch_s);

    sim_probe(
        &scenarios[SIM_PROBE_ROW],
        &out.cold[SIM_PROBE_ROW],
        tracer,
        tally,
        metrics,
    )
}

/// Replays the first [`SIM_PROBE_KERNELS`] launches of one scenario
/// through `GpuSimulator::run_launch_faulted`, single-threaded, and
/// totals their `SimStats`. The launch seeds follow the experiment's
/// per-launch rule; the check that every replayed launch reproduces the
/// stored row's cycle count pins that.
fn sim_probe(
    scenario: &Scenario,
    row: &ExperimentData,
    tracer: &mut Tracer,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let cfg = scenario_config(scenario);
    let workload = rcoal_workload::find(&cfg.workload)
        .ok_or_else(|| format!("unknown workload {}", cfg.workload))?;
    let sim = GpuSimulator::new(cfg.gpu.clone());
    let launch = cfg.launch.unwrap_or(LaunchPolicy::Uniform(cfg.policy));
    let kernels: Vec<_> =
        rcoal_experiments::random_plaintexts(SIM_PROBE_KERNELS, cfg.lines, cfg.seed)
            .into_iter()
            .map(|lines| workload.build_kernel(&cfg.key, lines, cfg.gpu.warp_size))
            .collect();
    let probe = tracer.enter("probe.gpu-sim.run_launch_faulted");
    let (stats, secs) = common::timed(|| {
        kernels
            .iter()
            .enumerate()
            .map(|(i, k)| {
                sim.run_launch_faulted(k, launch, cfg.seed.wrapping_add(1 + i as u64), &cfg.faults)
            })
            .collect::<Result<Vec<_>, _>>()
    });
    tracer.exit(probe);
    let stats = stats.map_err(|e| e.to_string())?;
    tally.check(
        row.total_cycles
            .as_deref()
            .is_some_and(|tc| stats.iter().zip(tc).all(|(s, &c)| s.total_cycles == c)),
        || "the simulator probe does not reproduce the stored row's cycles".into(),
    );
    let cycles: u64 = stats.iter().map(|s| s.total_cycles).sum();
    let accesses: u64 = stats.iter().map(|s| s.total_accesses).sum();
    let latency: u64 = stats.iter().map(|s| s.mem_latency_sum).sum();
    let k = stats.len().max(1) as f64;
    metrics.set("gpu-sim.kernel_ms", secs * 1e3 / k);
    metrics.set("gpu-sim.cycles_per_s", cycles as f64 / secs);
    metrics.set("gpu-sim.sim_cycles", cycles as f64);
    metrics.set(
        "gpu-sim.row_hit_rate",
        stats.iter().map(|s| s.row_hit_rate).sum::<f64>() / k,
    );
    metrics.set(
        "gpu-sim.mshr_merged",
        stats.iter().map(|s| s.mshr_merged).sum::<u64>() as f64,
    );
    metrics.set(
        "gpu-sim.mem_latency_mean",
        latency as f64 / accesses.max(1) as f64,
    );
    Ok(())
}
