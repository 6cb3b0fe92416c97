//! Audit the leakage channels side by side: run the same workload on
//! the vulnerable baseline coalescer and under RSS(8)+RTS, and print the
//! full [`LeakageReport`] for each — TVLA t-statistics, bias-corrected
//! mutual information, the empirical normalized sample count, and the
//! cross-check against `rcoal-theory`'s closed form — plus the per-stage
//! channels (DRAM row locality, interconnect serialization, warp finish
//! spread) the RCoal paper names as secondary timing-signal sources.
//!
//! Run with: `cargo run --release --example profile_leakage`

use rcoal::prelude::*;

fn audited(
    policy: CoalescingPolicy,
    n: usize,
) -> Result<(ExperimentData, LeakageReport), ExperimentError> {
    let cfg = ExperimentConfig::new(policy, n, 32)
        .with_seed(23)
        .with_telemetry(TelemetrySpec::profile_only());
    let data = cfg.run()?;
    let report = audit_data(&data, cfg.gpu.warp_size, &AuditSpec::new())?;
    Ok((data, report))
}

fn verdict(leaky: bool) -> &'static str {
    if leaky {
        "LEAKY"
    } else {
        "quiet"
    }
}

fn describe(data: &ExperimentData, report: &LeakageReport) {
    println!("{} ({} samples):", report.policy, report.samples);
    println!(
        "  tvla t-test     |t| = {:>6.2} vs threshold {}  -> {}",
        report.timing.welch.t.abs(),
        report.spec.t_threshold,
        verdict(report.timing.welch.exceeds(report.spec.t_threshold)),
    );
    println!(
        "  mutual info     {:.4} bits corrected ({:.4} raw - {:.4} bias), floor {}",
        report.timing.mi.corrected_bits,
        report.timing.mi.bits,
        report.timing.mi.bias_bits,
        report.spec.mi_floor_bits,
    );
    println!(
        "  empirical       rho = {:+.4}, S ~ {:.0} samples/byte",
        report.empirical_rho, report.empirical_s
    );
    match &report.theory {
        Some(t) => println!(
            "  theory          {}(m={}) predicts rho = {:.4} (S ~ {:.0}) -> {}",
            t.mechanism,
            t.m,
            t.predicted_rho,
            t.predicted_s,
            if t.ok { "agrees" } else { "DISAGREES" }
        ),
        None => println!("  theory          no closed form for this policy/channel"),
    }
    let q = &report.quantiles;
    println!(
        "  channel         mean {:.2}, p50 {}, p95 {}, p99 {} accesses (n = {})",
        q.mean, q.p50, q.p95, q.p99, q.count
    );
    // The same quantile accessors work on any telemetry histogram; the
    // memory-latency tail is the paper's canonical secondary channel.
    if let Some(tel) = &data.telemetry {
        let lat = &tel.profile.mem_latency;
        println!(
            "  mem latency     p50 {} / p95 {} / p99 {} cycles over {} loads",
            lat.p50().unwrap_or(0),
            lat.p95().unwrap_or(0),
            lat.p99().unwrap_or(0),
            lat.count()
        );
    }
    for stage in &report.stages {
        println!(
            "  stage {:<18} |t| = {:>6.2}, mi {:.4} bits -> {}",
            stage.name,
            stage.welch.t.abs(),
            stage.mi.corrected_bits,
            verdict(stage.leaky)
        );
    }
    println!("  verdict         {}\n", verdict(report.leaky));
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 160;
    println!("leakage audit, {n} plaintexts x 32 lines (seed 23)\n");

    let (base_data, base) = audited(CoalescingPolicy::Baseline, n)?;
    let (rss_data, rss) = audited(CoalescingPolicy::rss_rts(8)?, n)?;
    describe(&base_data, &base);
    describe(&rss_data, &rss);

    println!(
        "what RCoal changes: the attacker's access-count predictions decorrelate\n\
         from the clock. the baseline channel shows |t| = {:.1} with {:.2} bits of\n\
         key information; RSS(8)+RTS drives the t-statistic under the TVLA\n\
         threshold and multiplies the attacker's sample cost by ~{:.0}x\n\
         (empirical S {:.0} vs {:.0}).",
        base.timing.welch.t.abs(),
        base.timing.mi.corrected_bits,
        rss.empirical_s / base.empirical_s.max(1.0),
        rss.empirical_s,
        base.empirical_s,
    );
    println!(
        "\nthe per-stage lines show why the security argument needs the full\n\
         memory system: row locality, queueing, and warp finish spread all\n\
         shift with the randomized access stream, and the audit runs the same\n\
         two-class test on each of those secondary channels."
    );
    Ok(())
}
