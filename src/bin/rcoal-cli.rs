//! `rcoal-cli` — command-line front end to the RCoal reproduction.
//!
//! ```text
//! rcoal-cli table2
//! rcoal-cli workloads
//! rcoal-cli simulate --policy rss-rts:4 [--workload W] [--plaintexts 20] [--lines 32] [--seed 7] [--selective true] [--threads N] [--trace-out F] [--metrics-out F] [--progress true]
//! rcoal-cli attack   --policy baseline  [--workload W] [--max-samples 400] [--chunk 4096] [--early-stop true] [--byte all|J] [--seed 7] [--threads N] [--metrics-out F]
//! rcoal-cli score    [--samples 100] [--seed 7] [--threads N]
//! ```

use rcoal::cli::{parse_policy, parse_threads, write_artifact, ParsedArgs};
use rcoal::prelude::*;
use rcoal_experiments::engine::{decode_run, encode_run, SweepRunner};
use rcoal_experiments::figures::{fig15_16_comparison_with, fig17_rcoal_score};
use rcoal_scenario::json::{ObjBuilder, Value};
use rcoal_scenario::{parse_spec, ChaosPlan, RunCache};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
rcoal-cli — randomized GPU coalescing vs. correlation timing attacks

USAGE:
  rcoal-cli table2
      Print the analytical security model (paper Table II).

  rcoal-cli workloads
      List the registered table-based kernels (AES plus the PRESENT,
      GIFT, and RECTANGLE ciphers and the key-free gather control):
      table geometry, the subkey the attack sweeps, and the analytical
      model's predicted normalized sample counts S = 1/rho^2 at the
      workload's (N, R).

  rcoal-cli simulate --policy <POLICY> [--workload W] [--plaintexts N] [--lines L] [--seed S]
                     [--selective true] [--threads T]
                     [--trace-out FILE] [--metrics-out FILE] [--progress true]
      Encrypt N plaintexts of L lines on the simulated GPU and report
      cycles and coalesced accesses. With --selective true, only the
      last-round loads use the (randomized) policy.

  rcoal-cli attack --policy <POLICY> [--workload W] [--max-samples N] [--chunk C]
                   [--early-stop true|false] [--byte J|all] [--seed S] [--threads T]
                   [--metrics-out FILE]
      Deploy POLICY on the victim, stream up to N last-round timing
      samples (default 400) into the corresponding correlation attack,
      and grade the subkey recovery (AES's 16-byte last-round key by
      default; see `workloads` for the other kernels' attacked
      subkeys). Samples are generated chunk by chunk (--chunk, default
      4096) and fed to online per-guess correlators in a single pass,
      so peak memory is independent of N and million-sample budgets
      are practical. --early-stop (default true) stops drawing samples
      once the leading guess has been stable across consecutive
      checkpoints with a margin above the 1/sqrt(n) sampling-error
      band; with --byte J the checkpoint trajectory (leader,
      correlation, margin) is printed too.

  rcoal-cli score [--samples N] [--seed S] [--threads T]
      Sweep all mechanisms and print RCoal_Score rankings (Figure 17).

  rcoal-cli sweep --spec FILE --out DIR [--threads T] [--cache false]
                  [--chaos-seed S] [--chaos-panic-period N] [--chaos-abort-after N]
      Expand a declarative rcoal-sweep/v1 (or single rcoal-scenario/v1)
      JSON spec, run every scenario through the content-addressed run
      cache (persisted under DIR/cache), write each run result to
      DIR/results/<hash>.json, and emit DIR/index.json tying scenarios
      to results. Every completed run is fsync'd into the store as it
      finishes, so re-running the same spec serves everything from
      cache and a killed sweep resumes without redoing completed work.
      The `store` line counts the runs written to DIR/cache, the
      writes that failed, and the corrupt entries moved aside to
      .corrupt files (their runs simulate again). A scenario that
      fails is quarantined: reported on stderr and in index.json, its
      row skipped, while the other scenarios run to completion and are
      saved; the sweep then exits 1.
      --cache false simulates everything afresh and keeps no store.
      The --chaos-* flags arm seeded fault injection (worker panics /
      process abort once N runs are stored) for crash testing; they
      need the cache.

  rcoal-cli audit --policy <POLICY> [--workload W] [--samples N] [--lines L] [--seed S] [--byte J]
                  [--channel CH] [--threads T] [--cache DIR] [--out FILE]
                  [--gate leaky|secure] [--t-threshold X] [--mi-floor BITS]
      Run (or fetch from --cache DIR) a POLICY experiment of N samples
      (default 512) and compute its leakage verdict: a TVLA-style Welch
      t-test and a bias-corrected mutual-information estimate over the
      audited channel, the streaming attack's correlation trajectory
      with the empirical normalized sample count S = 1/rho^2, and a
      cross-check against the analytical model's prediction. CH is one
      of byte-accesses (default; the clean per-byte channel Table II
      models), last-round-accesses, last-round-cycles, total-cycles
      (cycle channels simulate timing and cost more). --out FILE writes
      the full rcoal-audit/v1 JSON report. With --gate the exit code
      becomes the verdict: --gate leaky fails (exit 1) unless the
      config is flagged leaky by BOTH instruments, --gate secure fails
      if EITHER instrument flags it — and both directions also fail on
      theory disagreement, so a blind audit cannot pass the baseline.

  rcoal-cli cache verify DIR
      Audit every rcoal-cache-entry/v1 file under DIR (checksums, hash
      and length checks) without modifying anything. Exits 1 if any
      entry is corrupt.

  rcoal-cli cache repair DIR
      Same audit, but move corrupt entries aside to .corrupt sidecar
      files so future sweeps re-simulate them cleanly.

  rcoal-cli scenario validate FILE
      Parse a scenario or sweep spec, validate every expanded scenario,
      and print their content hashes.

  rcoal-cli scenario print FILE
      Print each expanded scenario in canonical JSON (one per line) —
      the exact bytes its content hash is computed over.

  rcoal-cli conformance [--cases N] [--seed S] [--goldens DIR] [--update-goldens true]
      Run the conformance suite: differential oracles for the coalescer
      and the FR-FCFS DRAM scheduler over N random scenarios (default
      240), telemetry invariant checks, scenario round-trips, and the
      golden-master fixtures under tests/goldens/. With
      --update-goldens true (or RCOAL_UPDATE_GOLDENS=1) drifted
      fixtures are rewritten instead of failing.

OPTIONS: every command rejects an option it does not read, naming it
        (attack's budget is --max-samples, so it rejects --samples).

POLICY: baseline | disabled | fss:M | rss:M | fss-rts:M | rss-rts:M
        (M = number of subwarps, a divisor of 32 for fss variants)

WORKLOAD: a registered kernel name — aes (default), present80, gift64,
        rectangle, or gather; `rcoal-cli workloads` prints the registry.
        Sweep specs select workloads per scenario via the \"workload\"
        field / \"workloads\" axis instead of a flag.

THREADS: worker threads for launch sweeps and attack guess sweeps.
        Results are bit-identical for every T. Defaults to the
        RCOAL_THREADS environment variable, then the machine's
        available parallelism; --threads T overrides both (1 = run
        sequentially, 0 is rejected).

TELEMETRY:
  --trace-out FILE    (simulate) instrument every launch of the policy
                      under test and write its cycle-stamped event stream
                      as JSONL (one {\"launch\":i,\"cycle\":c,...} object
                      per line; deterministic for a fixed seed at any T).
  --metrics-out FILE  write an rcoal-metrics/v1 JSON snapshot: for
                      simulate, the aggregate sim.* leakage profile plus
                      host-domain span.*/pool.* wall-clock metrics; for
                      attack, the online attacker's attack.stream.*
                      checkpoints, attack.samples_correlated and its
                      span.attack.stream_* spans.
  --progress true     (simulate) print a pool utilization summary to
                      stderr.";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = ParsedArgs::parse(std::env::args().skip(1))?;
    match args.positional.first().map(String::as_str) {
        Some("table2") => cmd_table2(&args),
        Some("workloads") => cmd_workloads(&args),
        Some("simulate") => cmd_simulate(&args),
        Some("attack") => cmd_attack(&args),
        Some("audit") => cmd_audit(&args),
        Some("score") => cmd_score(&args),
        Some("sweep") => cmd_sweep(&args),
        Some("cache") => cmd_cache(&args),
        Some("scenario") => cmd_scenario(&args),
        Some("conformance") => cmd_conformance(&args),
        Some(other) => Err(format!("unknown command {other:?}")),
        None => {
            println!("{USAGE}");
            Ok(())
        }
    }
}

fn cmd_table2(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unread()?;
    println!("Table II (N = 32 threads, R = 16 memory blocks)");
    println!(
        "{:>3} | {:>7} {:>8} {:>8} | {:>6} {:>10} {:>10}",
        "M", "rho FSS", "FSS+RTS", "RSS+RTS", "S FSS", "S FSS+RTS", "S RSS+RTS"
    );
    for r in table2() {
        println!(
            "{:>3} | {:>7.2} {:>8.2} {:>8.2} | {:>6.0} {:>10.0} {:>10.0}",
            r.m, r.rho_fss, r.rho_fss_rts, r.rho_rss_rts, r.s_fss, r.s_fss_rts, r.s_rss_rts
        );
    }
    Ok(())
}

fn policy_from(args: &ParsedArgs) -> Result<CoalescingPolicy, String> {
    parse_policy(args.get("policy").unwrap_or("baseline"))
}

/// Resolves `--workload` against the registry (default `aes`).
fn workload_from(args: &ParsedArgs) -> Result<&'static dyn KernelWorkload, String> {
    let name = args.get("workload").unwrap_or("aes");
    rcoal::workload::find(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (registered: {})",
            rcoal::workload::names()
        )
    })
}

fn cmd_workloads(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unread()?;
    println!("registered workloads (N = 32 threads per warp):");
    for workload in rcoal::workload::registry() {
        let g = workload.geometry();
        println!("\n{} — {}", workload.name(), workload.description());
        println!(
            "  geometry : R = {} blocks/table x {} table(s), {}-byte entries; \
             {} loads/round x {} rounds",
            g.table_size_r, g.tables, g.entry_bytes, g.loads_per_round, g.rounds
        );
        println!(
            "  attack   : {}-byte key, sweeps {} subkey byte(s); timing boundary after round {}",
            g.key_bytes,
            g.attack_bytes,
            workload.timing_boundary_round()
        );
        if workload.theory_comparable() {
            let model = SecurityModel::new(g.threads_per_warp, g.table_size_r);
            let fmt_s = |mech: Mechanism| -> String {
                [2usize, 4, 8, 16]
                    .iter()
                    .map(|&m| {
                        let s = model.normalized_samples(mech, m);
                        if s.is_finite() {
                            format!("{s:.0}")
                        } else {
                            "inf".to_string()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" / ")
            };
            println!(
                "  predicted S at M=2/4/8/16: FSS {} | FSS+RTS {} | RSS+RTS {}",
                fmt_s(Mechanism::Fss),
                fmt_s(Mechanism::FssRts),
                fmt_s(Mechanism::RssRts)
            );
        } else {
            println!(
                "  theory   : key-independent control — no (N, R) prediction; \
                 audits must gate secure"
            );
        }
    }
    Ok(())
}

/// Writes the `--metrics-out` snapshot, if requested.
fn write_metrics(path: Option<&str>, registry: &MetricsRegistry) -> Result<(), String> {
    if let Some(path) = path {
        let mut json = registry.snapshot().to_json();
        json.push('\n');
        write_artifact(path, &json)?;
        println!("metrics written  : {path}");
    }
    Ok(())
}

/// Prints the launch pool's utilization summary to stderr.
fn report_pool(registry: &MetricsRegistry) {
    let snap = registry.snapshot();
    let workers = snap.gauges.get("pool.launches.workers").copied();
    let permille = snap
        .gauges
        .get("pool.launches.utilization_permille")
        .copied();
    let wall = snap.counters.get("pool.launches.wall_micros").copied();
    if let (Some(w), Some(u), Some(micros)) = (workers, permille, wall) {
        eprintln!(
            "[progress] launches: {w} workers, {:.1}% busy, {:.1} ms wall",
            u as f64 / 10.0,
            micros as f64 / 1000.0
        );
    }
}

fn cmd_simulate(args: &ParsedArgs) -> Result<(), String> {
    let policy = policy_from(args)?;
    let workload = workload_from(args)?;
    let plaintexts: usize = args.get_or("plaintexts", 20)?;
    let lines: usize = args.get_or("lines", 32)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let selective: bool = args.get_or("selective", false)?;
    let threads = parse_threads(args)?;
    let trace_out = args.get("trace-out");
    let metrics_out = args.get("metrics-out");
    let progress: bool = args.get_or("progress", false)?;
    args.reject_unread()?;

    let mut cfg = if selective {
        ExperimentConfig::selective(policy, plaintexts, lines)
    } else {
        ExperimentConfig::new(policy, plaintexts, lines)
    };
    cfg = cfg.with_workload(workload.name());
    let mut base = ExperimentConfig::new(CoalescingPolicy::Baseline, plaintexts, lines)
        .with_workload(workload.name());
    if let Some(t) = threads {
        cfg = cfg.with_threads(t);
        base = base.with_threads(t);
    }
    // Only the policy under test is instrumented; the baseline reference
    // run stays plain.
    let registry = MetricsRegistry::new();
    let instrumented = trace_out.is_some() || metrics_out.is_some();
    if instrumented || progress {
        cfg = cfg.with_host_metrics(&registry);
    }
    if instrumented {
        cfg = cfg.with_telemetry(TelemetrySpec::full());
    }
    let data = cfg.with_seed(seed).run().map_err(|e| e.to_string())?;
    if progress {
        report_pool(&registry);
    }
    let base = base.with_seed(seed).run().map_err(|e| e.to_string())?;

    println!(
        "policy           : {policy}{}",
        if selective {
            " (selective, last round only)"
        } else {
            ""
        }
    );
    println!("workload         : {}", workload.name());
    println!("plaintexts       : {plaintexts} x {lines} lines");
    let cycles = data.mean_total_cycles().map_err(|e| e.to_string())?;
    let base_cycles = base.mean_total_cycles().map_err(|e| e.to_string())?;
    println!(
        "mean cycles      : {:.0} ({:.3}x baseline)",
        cycles,
        cycles / base_cycles
    );
    println!(
        "mean accesses    : {:.0} ({:.3}x baseline)",
        data.mean_total_accesses(),
        data.mean_total_accesses() / base.mean_total_accesses()
    );
    println!(
        "last-round mean  : {:.0} cycles / {:.0} accesses",
        data.mean_last_round_cycles().map_err(|e| e.to_string())?,
        data.mean_last_round_accesses()
    );
    if let Some(tel) = &data.telemetry {
        let p = &tel.profile;
        println!(
            "leakage profile  : {:.2} accesses/subwarp mean; {:.0} issue-stall cycles; finish spread {}",
            p.accesses_per_subwarp.mean(),
            p.issue_stall_cycles,
            p.warp_finish_spread
        );
        let hits: u64 = p.mcs.iter().map(|m| m.row_hits).sum();
        let serviced: u64 = p.mcs.iter().map(|m| m.serviced).sum();
        if serviced > 0 {
            println!(
                "dram row locality: {:.1}% hits over {serviced} serviced reads",
                100.0 * hits as f64 / serviced as f64
            );
        }
    }
    if let Some(path) = trace_out {
        let tel = data
            .telemetry
            .as_ref()
            .ok_or("internal: --trace-out run collected no telemetry")?;
        write_artifact(path, &tel.trace_jsonl())?;
        println!("trace written    : {path} ({} events)", tel.num_events());
    }
    write_metrics(metrics_out, &registry)
}

/// The attack: a single pass of the streaming engine over
/// simulator-backed generation, with online per-guess correlators and
/// optional early termination. Peak memory is independent of the
/// sample budget.
fn cmd_attack(args: &ParsedArgs) -> Result<(), String> {
    let policy = policy_from(args)?;
    let workload = workload_from(args)?;
    let budget: usize = args.get_or("max-samples", 400)?;
    let chunk: usize = args.get_or("chunk", 4096)?;
    let early_stop: bool = args.get_or("early-stop", true)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let byte_spec = args.get("byte").unwrap_or("all").to_string();
    let threads = parse_threads(args)?;
    let metrics_out = args.get("metrics-out");
    args.reject_unread()?;
    let key_bytes = workload.oracle().key_bytes().min(16);

    println!("victim policy : {policy}");
    println!("workload      : {}", workload.name());
    println!(
        "streaming     : up to {budget} samples in chunks of {chunk}, early stop {}",
        if early_stop { "on" } else { "off" }
    );
    let registry = MetricsRegistry::new();
    let mut cfg = ExperimentConfig::new(policy, 0, 32)
        .with_workload(workload.name())
        .with_seed(seed);
    if let Some(t) = threads {
        cfg = cfg.with_threads(t);
    }
    let mut source =
        SimulatorSource::new(cfg, TimingSource::LastRoundCycles).map_err(|e| e.to_string())?;
    let k10 = source.attacked_subkey();
    let mut attack = Attack::against(policy, 32)
        .with_oracle(workload.oracle())
        .with_seed(seed ^ 0xa77ac)
        .with_threads(threads);
    if metrics_out.is_some() {
        attack = attack.with_metrics(&registry);
    }
    let mut opts = StreamOptions::new(budget).with_chunk(chunk);
    if early_stop {
        opts = opts.with_early_stop(EarlyStop::default());
    }

    if byte_spec == "all" {
        let rec = stream_recover_key(&attack, &mut source, &opts).map_err(|e| e.to_string())?;
        let out = rec.recovery.outcome(&k10);
        for (j, b) in rec.recovery.bytes.iter().enumerate() {
            let hit = if b.best_guess == k10[j] {
                "HIT "
            } else {
                "miss"
            };
            println!(
                "byte {j:2}: guess 0x{:02x} actual 0x{:02x} [{hit}] corr {:+.3} rank {}",
                b.best_guess,
                k10[j],
                b.correlation_of(k10[j]),
                b.rank_of(k10[j])
            );
        }
        println!(
            "\nrecovered {}/{key_bytes} bytes; avg corr(correct) = {:+.3}; avg rank = {:.1}",
            out.num_correct, out.avg_correct_correlation, out.avg_rank_of_correct
        );
        println!(
            "remaining key security: ~2^{:.1} candidate keys to enumerate",
            rcoal_attack::log2_key_rank(&rec.recovery, &k10)
        );
        print_stream_outcome(rec.samples, budget, rec.terminated_early, rec.checkpoints);
    } else {
        let j: usize = byte_spec.parse().map_err(|_| {
            format!(
                "--byte must be 0..={} or 'all', got {byte_spec:?}",
                key_bytes - 1
            )
        })?;
        if j >= key_bytes {
            return Err(format!("--byte must be 0..={} or 'all'", key_bytes - 1));
        }
        let rec = stream_recover_byte(&attack, &mut source, j, &opts).map_err(|e| e.to_string())?;
        println!("online trajectory (byte {j}):");
        for cp in &rec.checkpoints {
            println!(
                "  n={:>9} leader 0x{:02x} corr {:+.4} runner-up {:+.4} margin {:+.4} stable x{}",
                cp.samples, cp.leader, cp.leader_corr, cp.runner_up_corr, cp.margin, cp.stable_for
            );
        }
        println!(
            "byte {j}: guess 0x{:02x} actual 0x{:02x} corr {:+.3} rank {}",
            rec.recovery.best_guess,
            k10[j],
            rec.recovery.correlation_of(k10[j]),
            rec.recovery.rank_of(k10[j])
        );
        print_stream_outcome(
            rec.samples,
            budget,
            rec.terminated_early,
            rec.checkpoints.len(),
        );
    }
    write_metrics(metrics_out, &registry)
}

fn print_stream_outcome(samples: usize, budget: usize, terminated_early: bool, checkpoints: usize) {
    if terminated_early {
        println!(
            "early stop    : terminated after {samples} of {budget} samples \
             ({checkpoints} checkpoint(s); leader stable)"
        );
    } else {
        println!(
            "early stop    : budget exhausted at {samples} samples ({checkpoints} checkpoint(s))"
        );
    }
}

fn cmd_audit(args: &ParsedArgs) -> Result<(), String> {
    let policy = policy_from(args)?;
    let workload = workload_from(args)?;
    let samples: usize = args.get_or("samples", 512)?;
    let lines: usize = args.get_or("lines", 32)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let byte: usize = args.get_or("byte", 0)?;
    let channel: AuditChannel = args
        .get("channel")
        .unwrap_or("byte-accesses")
        .parse()
        .map_err(|e: String| e)?;
    let threads = parse_threads(args)?;
    let gate = args
        .get("gate")
        .map(str::parse::<Expectation>)
        .transpose()?;
    let cache_dir = args.get("cache");
    let out_path = args.get("out");

    let mut spec = AuditSpec::new().with_byte(byte).with_channel(channel);
    if let Some(t) = args.get("t-threshold") {
        spec = spec.with_t_threshold(
            t.parse()
                .map_err(|_| format!("--t-threshold must be a number, got {t:?}"))?,
        );
    }
    if let Some(floor) = args.get("mi-floor") {
        spec = spec.with_mi_floor_bits(
            floor
                .parse()
                .map_err(|_| format!("--mi-floor must be a number, got {floor:?}"))?,
        );
    }
    args.reject_unread()?;

    let mut scenario = Scenario::new(policy, samples, lines)
        .with_workload(workload.name())
        .with_seed(seed);
    if !channel.needs_cycles() {
        // Access-count channels don't need the cycle simulator; the
        // functional run is orders of magnitude cheaper and identical
        // on the audited channel.
        scenario = scenario.functional_only();
    }

    let mut runner = match cache_dir {
        Some(dir) => SweepRunner::with_disk_cache(dir).map_err(|e| e.to_string())?,
        None => SweepRunner::new(),
    };
    if let Some(t) = threads {
        runner = runner.with_threads(t);
    }
    let (_, report) = runner
        .audit_one(&scenario, &spec)
        .map_err(|e| e.to_string())?;
    let hits = runner.report().hits();
    println!(
        "leakage audit    : {policy}, workload {}, byte {byte}, channel {channel}, {samples} samples{}",
        workload.name(),
        if hits > 0 { " (served from cache)" } else { "" }
    );

    let t = &report.timing;
    println!(
        "tvla t-test      : |t| = {:.2} vs threshold {} -> {} (classes {}/{})",
        t.welch.t.abs(),
        spec.t_threshold,
        if t.welch.exceeds(spec.t_threshold) {
            "LEAK"
        } else {
            "quiet"
        },
        t.welch.n_low,
        t.welch.n_high,
    );
    println!(
        "mutual info      : {:.4} bits corrected (plug-in {:.4}, bias {:.4}) vs floor {} -> {}",
        t.mi.corrected_bits,
        t.mi.bits,
        t.mi.bias_bits,
        spec.mi_floor_bits,
        if t.mi.corrected_bits > spec.mi_floor_bits {
            "LEAK"
        } else {
            "quiet"
        },
    );
    let s = if report.empirical_s.is_finite() {
        format!("{:.0}", report.empirical_s)
    } else {
        "unbounded".to_string()
    };
    println!(
        "empirical        : rho = {:+.4}, S = 1/rho^2 ~ {s} samples (true-guess rank {})",
        report.empirical_rho,
        report.trajectory.last().map_or(255, |p| p.rank),
    );
    match &report.theory {
        Some(th) => {
            let pred = if th.predicted_s.is_finite() {
                format!("{:.0}", th.predicted_s)
            } else {
                "unbounded".to_string()
            };
            println!(
                "theory           : {}(m={}) predicts rho = {:.4}, S ~ {pred} -> {}",
                th.mechanism,
                th.m,
                th.predicted_rho,
                if th.ok { "agrees" } else { "DISAGREES" },
            );
        }
        None => println!("theory           : no closed form for this policy/channel"),
    }
    for stage in &report.stages {
        println!(
            "stage {:18}: |t| = {:.2}, MI = {:.4} bits -> {}",
            stage.name,
            stage.welch.t.abs(),
            stage.mi.corrected_bits,
            if stage.leaky { "LEAK" } else { "quiet" },
        );
    }
    println!(
        "channel quantiles: p50 {} / p95 {} / p99 {} (mean {:.1})",
        report.quantiles.p50, report.quantiles.p95, report.quantiles.p99, report.quantiles.mean,
    );
    println!(
        "verdict          : {}",
        if report.leaky { "LEAKY" } else { "not leaky" }
    );

    if let Some(path) = out_path {
        write_artifact(path, &(report.to_json() + "\n"))?;
        println!("report           : wrote {path}");
    }

    if let Some(expectation) = gate {
        let outcome = evaluate_gate(&report, expectation);
        if outcome.pass {
            println!("gate             : PASS (expected {expectation})");
        } else {
            println!("gate             : FAIL (expected {expectation})");
            for failure in &outcome.failures {
                println!("  - {failure}");
            }
            std::process::exit(1);
        }
    }
    Ok(())
}

fn cmd_score(args: &ParsedArgs) -> Result<(), String> {
    let samples: usize = args.get_or("samples", 100)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let threads = parse_threads(args)?;
    args.reject_unread()?;
    if let Some(t) = threads {
        // The figure generators size their worker pools from the
        // environment; exporting here lets --threads govern the whole
        // sweep without threading a parameter through every generator.
        std::env::set_var(rcoal_parallel::THREADS_ENV, t.to_string());
    }
    println!("sweeping 4 mechanisms x M in {{2,4,8,16}} with {samples} plaintexts each ...");
    let cmp =
        fig15_16_comparison_with(&SweepRunner::new(), samples, seed).map_err(|e| e.to_string())?;
    let mut scores = fig17_rcoal_score(&cmp).map_err(|e| e.to_string())?;
    scores.sort_by(|a, b| b.security_oriented.total_cmp(&a.security_oriented));
    println!("\nby security-oriented score (a = b = 1):");
    for s in scores.iter().take(5) {
        println!(
            "  {:>8} M={:<2} score {:.1}",
            s.mechanism, s.m, s.security_oriented
        );
    }
    scores.sort_by(|a, b| b.performance_oriented.total_cmp(&a.performance_oriented));
    println!("by performance-oriented score (a = 1, b = 20):");
    for s in scores.iter().take(5) {
        println!(
            "  {:>8} M={:<2} score {:.4}",
            s.mechanism, s.m, s.performance_oriented
        );
    }
    Ok(())
}

fn cmd_conformance(args: &ParsedArgs) -> Result<(), String> {
    let mut opts = SuiteOptions::default();
    opts.cases = args.get_or("cases", opts.cases)?;
    opts.seed = args.get_or("seed", opts.seed)?;
    if let Some(dir) = args.get("goldens") {
        opts.goldens_dir = PathBuf::from(dir);
    }
    if args.get_or("update-goldens", false)? {
        opts.update_goldens = true;
    }
    args.reject_unread()?;
    println!(
        "conformance suite: {} simulator scenario(s), seed {:#x}, goldens at {}{}",
        opts.cases,
        opts.seed,
        opts.goldens_dir.display(),
        if opts.update_goldens {
            " (update mode)"
        } else {
            ""
        }
    );
    let report = run_suite(&opts).map_err(|e| e.to_string())?;
    println!("{report}");
    if report.passed() {
        Ok(())
    } else {
        // Violations were already printed in full; skip the usage text.
        std::process::exit(1);
    }
}

/// Reads and expands a scenario/sweep spec file.
fn load_spec(path: &str) -> Result<Vec<rcoal_scenario::Scenario>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let spec = parse_spec(&text).map_err(|e| format!("{path}: {e}"))?;
    spec.expand().map_err(|e| format!("{path}: {e}"))
}

fn cmd_scenario(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unread()?;
    let action = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("scenario needs an action: validate or print")?;
    let path = args
        .positional
        .get(2)
        .map(String::as_str)
        .ok_or("scenario needs a FILE")?;
    let scenarios = load_spec(path)?;
    match action {
        "validate" => {
            println!("ok: {} scenario(s)", scenarios.len());
            for s in &scenarios {
                println!(
                    "  {}  {}  n={} lines={}",
                    s.hash_hex(),
                    s.policy,
                    s.num_plaintexts,
                    s.lines
                );
            }
            Ok(())
        }
        "print" => {
            for s in &scenarios {
                println!("{}", s.to_json());
            }
            Ok(())
        }
        other => Err(format!(
            "unknown scenario action {other:?} (expected validate or print)"
        )),
    }
}

/// Parses an optional `--name N` u64 flag.
fn opt_u64(args: &ParsedArgs, name: &str) -> Result<Option<u64>, String> {
    match args.get(name) {
        None => Ok(None),
        Some(s) => s
            .parse()
            .map(Some)
            .map_err(|_| format!("--{name} must be a non-negative integer, got {s:?}")),
    }
}

fn cmd_sweep(args: &ParsedArgs) -> Result<(), String> {
    let spec_path = args.get("spec").ok_or("sweep needs --spec FILE")?;
    let out = PathBuf::from(args.get("out").ok_or("sweep needs --out DIR")?);
    let caching: bool = args.get_or("cache", true)?;
    let threads = parse_threads(args)?;
    let chaos_seed: u64 = args.get_or("chaos-seed", 0)?;
    let panic_period = opt_u64(args, "chaos-panic-period")?;
    let abort_after = opt_u64(args, "chaos-abort-after")?;
    args.reject_unread()?;
    let chaos = panic_period.is_some() || abort_after.is_some();
    if chaos && !caching {
        return Err("--chaos-* need the cache (drop --cache false)".into());
    }

    let scenarios = load_spec(spec_path)?;
    println!("expanded {} scenario(s) from {spec_path}", scenarios.len());

    let mut runner = if caching {
        SweepRunner::with_disk_cache(out.join("cache")).map_err(|e| e.to_string())?
    } else {
        SweepRunner::uncached()
    };
    if let Some(t) = threads {
        runner = runner.with_threads(t);
    }
    if chaos {
        let mut plan = ChaosPlan::seeded(chaos_seed);
        if let Some(p) = panic_period {
            plan = plan.with_panics(p);
        }
        if let Some(n) = abort_after {
            plan = plan.with_abort_after(n);
        }
        runner = runner.with_chaos(plan);
    }

    // A broken scenario is quarantined (row = None); the rest complete.
    let outcome = runner.run_scenarios_supervised(&scenarios);

    let results_dir = out.join("results");
    std::fs::create_dir_all(&results_dir)
        .map_err(|e| format!("cannot create {}: {e}", results_dir.display()))?;
    let mut entries = Vec::with_capacity(scenarios.len());
    for (s, row) in scenarios.iter().zip(&outcome.rows) {
        let hash = s.hash_hex();
        let mut entry = ObjBuilder::new()
            .field("hash", Value::str(&hash))
            .field("scenario", s.to_value());
        match row {
            Some(d) => {
                // Scenarios run uninstrumented, so every row encodes.
                let json = encode_run(d)
                    .ok_or_else(|| format!("internal: run {hash} has no store encoding"))?;
                let file = results_dir.join(format!("{hash}.json"));
                std::fs::write(&file, json)
                    .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
                entry = entry
                    .field("result", Value::str(format!("results/{hash}.json")))
                    .field("mean_total_accesses", Value::f64(d.mean_total_accesses()));
                if let Ok(cycles) = d.mean_total_cycles() {
                    entry = entry.field("mean_total_cycles", Value::f64(cycles));
                }
            }
            None => {
                entry = entry
                    .field("result", Value::Null)
                    .field("quarantined", Value::Bool(true));
            }
        }
        entries.push(entry.build());
    }
    let index = ObjBuilder::new()
        .field("schema", Value::str("rcoal-sweep-results/v1"))
        .field("spec", Value::str(spec_path))
        .field("runs", Value::Arr(entries))
        .build();
    let index_path = out.join("index.json");
    let mut index_json = index.to_json();
    index_json.push('\n');
    std::fs::write(&index_path, index_json)
        .map_err(|e| format!("cannot write {}: {e}", index_path.display()))?;

    let report = runner.report();
    let stats = runner.cache_stats();
    println!(
        "served {} run(s): {} simulated, {} from cache ({:.0}% hit rate; {} disk hits)",
        report.served,
        report.launched,
        report.hits(),
        100.0 * report.hit_rate(),
        stats.disk_hits
    );
    if caching {
        println!(
            "store            : {} written, {} write failure(s), {} corrupt entr{} quarantined",
            stats.disk_stores,
            stats.write_failures,
            stats.quarantined,
            if stats.quarantined == 1 { "y" } else { "ies" }
        );
    }
    let quarantined = &outcome.quarantined;
    if !quarantined.is_empty() {
        eprintln!("warning: {} scenario(s) quarantined:", quarantined.len());
        for q in quarantined {
            eprintln!("  {:016x}: {}", q.hash, q.reason);
        }
    }
    println!("index written    : {}", index_path.display());
    if !outcome.is_complete() {
        // The finished rows are saved; the exit code still reports the
        // failure to scripts and CI.
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_cache(args: &ParsedArgs) -> Result<(), String> {
    args.reject_unread()?;
    let action = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("cache needs an action: verify or repair")?;
    let dir = args
        .positional
        .get(2)
        .map(String::as_str)
        .ok_or("cache needs a DIR")?;
    // Opening a store creates its directory; an audit must not
    // conjure an empty-but-clean store out of a typo'd path.
    if !std::path::Path::new(dir).is_dir() {
        return Err(format!("cache directory {dir:?} does not exist"));
    }
    let cache: RunCache<ExperimentData> =
        RunCache::with_disk(dir, encode_run, decode_run).map_err(|e| e.to_string())?;
    let (audit, repaired) = match action {
        "verify" => (cache.verify().map_err(|e| e.to_string())?, false),
        "repair" => (cache.repair().map_err(|e| e.to_string())?, true),
        other => {
            return Err(format!(
                "unknown cache action {other:?} (expected verify or repair)"
            ))
        }
    };
    println!(
        "{dir}: {} entr{} checked, {} ok, {} corrupt{}",
        audit.entries,
        if audit.entries == 1 { "y" } else { "ies" },
        audit.ok,
        audit.corrupt,
        if repaired {
            format!(", {} moved to .corrupt", audit.repaired)
        } else {
            String::new()
        }
    );
    for path in &audit.corrupt_paths {
        println!("  corrupt: {}", path.display());
    }
    if !repaired && !audit.is_clean() {
        // Verification failures must be visible to scripts/CI.
        std::process::exit(1);
    }
    Ok(())
}
