//! Regenerates every table and figure of the paper in one run and prints
//! a markdown report (the source of EXPERIMENTS.md).
//!
//! Run with: `cargo run --release --example reproduce_all [-- --quick]`
//! Full mode takes 35–40 s on a 2-vCPU host; `--quick` runs a third of
//! the samples in about 15 s.

use rcoal::attack::samples_needed;
use rcoal::prelude::*;
use rcoal::sim::{AccessPattern, SchedulerPolicy, SyntheticKernel};
use rcoal_experiments::figures::*;
use rcoal_experiments::SweepRunner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 1usize } else { 3 };
    let seed = 0xbe_c4;
    // One run cache for the whole report: every generator describes its
    // simulations as scenarios, so configurations shared across figures
    // (the baseline timing run, most prominently) simulate exactly once.
    let runner = SweepRunner::new();

    println!("# RCoal reproduction report\n");
    println!(
        "Generated by `cargo run --release --example reproduce_all{}`; all numbers are",
        if quick { " -- --quick" } else { "" }
    );
    println!("deterministic for the built-in seed.\n");

    // ------------------------------------------------------- Table II
    println!("## Table II — analytical security model\n");
    println!("| M | rho FSS | rho FSS+RTS | rho RSS+RTS | S FSS | S FSS+RTS | S RSS+RTS |");
    println!("|---|---------|-------------|-------------|-------|-----------|-----------|");
    for r in table2() {
        println!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.0} | {:.0} | {:.0} |",
            r.m, r.rho_fss, r.rho_fss_rts, r.rho_rss_rts, r.s_fss, r.s_fss_rts, r.s_rss_rts
        );
    }
    println!("\nPaper: rho FSS+RTS = 1.00/0.41/0.20/0.09/0.03/0 (S = 1/6/24/115/961/inf),");
    println!("rho RSS+RTS = 1.00/0.20/0.15/0.11/0.05/0 (S = 1/25/42/78/349/inf).\n");

    // -------------------------------------------------------- Figure 5
    let f5 = fig05_last_vs_total_with(&runner, 50 * scale, seed)?;
    println!("## Figure 5 — last-round vs total execution time\n");
    println!(
        "corr(last_round_cycles, total_cycles) = **{:.3}** over {} plaintexts.\n",
        f5.correlation,
        f5.points.len()
    );

    // -------------------------------------------------------- Figure 6
    let f6 = fig06_coalescing_onoff_with(&runner, 150 * scale, seed)?;
    let correct = f6.correct_byte as usize;
    println!("## Figure 6 — recovery of key byte 0, coalescing on/off\n");
    println!("| configuration | corr(correct) | rank of correct | verdict |");
    println!("|---|---|---|---|");
    println!(
        "| coalescing enabled | {:+.3} | {} | {} |",
        f6.enabled[correct],
        f6.rank_enabled,
        if f6.rank_enabled == 0 {
            "recovered"
        } else {
            "not recovered"
        }
    );
    println!(
        "| coalescing disabled | {:+.3} | {} | {} |\n",
        f6.disabled[correct],
        f6.rank_disabled,
        if f6.rank_disabled == 0 {
            "recovered"
        } else {
            "channel closed"
        }
    );

    // ------------------------------------------------------ Motivation
    let m = motivation_disable_coalescing_with(&runner, 3, 1024, seed)?;
    println!("## §III motivation — cost of disabling coalescing (1024 lines)\n");
    println!(
        "slowdown = **{:.0}%** (paper: up to 178%), data movement = **{:.2}x** (paper: 2.7x)\n",
        m.slowdown_pct, m.access_factor
    );

    // -------------------------------------------------------- Figure 7
    let f7 = fig07_fss_performance_with(&runner, 50 * scale, seed)?;
    println!("## Figure 7 — FSS vs num-subwarp (naive baseline attack)\n");
    println!("| M | exec cycles | mem accesses | naive-attack avg corr |");
    println!("|---|---|---|---|");
    for r in &f7 {
        println!(
            "| {} | {:.0} | {:.0} | {:.3} |",
            r.m, r.mean_total_cycles, r.mean_total_accesses, r.avg_corr_naive_attack
        );
    }
    println!();

    // ------------------------------------------- Figures 8, 12, 13, 14
    for (name, panels) in [
        (
            "Figure 8 — FSS vs FSS attack",
            fig08_fss_attack_with(&runner, 200 * scale, seed)?,
        ),
        (
            "Figure 12 — FSS+RTS vs FSS+RTS attack",
            fig12_fss_rts_with(&runner, 200 * scale, seed)?,
        ),
        (
            "Figure 13 — RSS vs RSS attack",
            fig13_rss_with(&runner, 200 * scale, seed)?,
        ),
        (
            "Figure 14 — RSS+RTS vs RSS+RTS attack",
            fig14_rss_rts_with(&runner, 200 * scale, seed)?,
        ),
    ] {
        println!("## {name}\n");
        println!("| M | corr(correct) | max corr (wrong) | rank | verdict |");
        println!("|---|---|---|---|---|");
        for p in &panels {
            let correct = p.correlations[p.correct_byte as usize];
            let max_wrong = p
                .correlations
                .iter()
                .enumerate()
                .filter(|(g, _)| *g != p.correct_byte as usize)
                .map(|(_, &c)| c)
                .fold(f64::MIN, f64::max);
            println!(
                "| {} | {:+.3} | {:+.3} | {} | {} |",
                p.m,
                correct,
                max_wrong,
                p.rank_of_correct,
                if p.rank_of_correct == 0 {
                    "recovered"
                } else {
                    "defeated"
                }
            );
        }
        println!();
    }

    // -------------------------------------------------------- Figure 9
    let f9 = fig09_rss_distributions(1000, 4, seed)?;
    println!("## Figure 9 — RSS subwarp-size distributions (M=4, 1000 draws)\n");
    println!("| size | normal | skewed |");
    println!("|---|---|---|");
    for s in 1..=29usize {
        if f9.normal[s] + f9.skewed[s] > 0 {
            println!("| {s} | {} | {} |", f9.normal[s], f9.skewed[s]);
        }
    }
    println!();

    // ---------------------------------------------- Figures 15, 16, 17
    let cmp = fig15_16_comparison_with(&runner, 100 * scale, seed)?;
    println!("## Figure 15 — security comparison (avg corr of correct guesses)\n");
    println!("| mechanism | M=2 | M=4 | M=8 | M=16 |");
    println!("|---|---|---|---|---|");
    for mech in ["FSS", "FSS+RTS", "RSS", "RSS+RTS"] {
        let cell = |m: usize| {
            cmp.security
                .iter()
                .find(|s| s.mechanism == mech && s.m == m)
                .map(|s| format!("{:+.3}", s.avg_correct_corr))
                .expect("row")
        };
        println!(
            "| {mech} | {} | {} | {} | {} |",
            cell(2),
            cell(4),
            cell(8),
            cell(16)
        );
    }
    println!("\n## Figure 16 — performance and data movement\n");
    println!("| mechanism | M | mem accesses | exec cycles | normalized time |");
    println!("|---|---|---|---|---|");
    for p in &cmp.performance {
        println!(
            "| {} | {} | {:.0} | {:.0} | {:.3} |",
            p.mechanism, p.m, p.mean_total_accesses, p.mean_total_cycles, p.normalized_time
        );
    }
    let scores = fig17_rcoal_score(&cmp)?;
    println!("\n## Figure 17 — RCoal_Score\n");
    println!("| mechanism | M | security-oriented (a=b=1) | performance-oriented (b=20) |");
    println!("|---|---|---|---|");
    for s in &scores {
        println!(
            "| {} | {} | {:.1} | {:.4} |",
            s.mechanism, s.m, s.security_oriented, s.performance_oriented
        );
    }
    let winner = |score: fn(&ScoreRow) -> f64| {
        scores
            .iter()
            .max_by(|a, b| score(a).total_cmp(&score(b)))
            .map(|s| format!("**{} M={}** ({:.1})", s.mechanism, s.m, score(s)))
            .ok_or("empty score table")
    };
    println!(
        "\nWinners: security-oriented {}, performance-oriented {}.",
        winner(|s| s.security_oriented)?,
        winner(|s| s.performance_oriented)?
    );
    println!();

    // -------------------------------------------------------- Figure 18
    let f18 = fig18_scalability_with(&runner, 30 * scale, 4, seed)?;
    println!("## Figure 18 — 1024-line case study\n");
    println!("| mechanism | M | avg corr (access channel) | normalized time |");
    println!("|---|---|---|---|");
    for r in &f18 {
        println!(
            "| {} | {} | {:+.3} | {:.3} |",
            r.mechanism, r.m, r.avg_correct_corr, r.normalized_time
        );
    }
    println!();

    // ------------------------------------------------------- Extensions
    let sel = ablation_selective_with(&runner, 70 * scale, 10 * scale, 8, seed)?;
    println!("## Extension — selective randomization (paper §VII future work)\n");
    println!("| configuration | avg corr | normalized time | mem accesses |");
    println!("|---|---|---|---|");
    for r in &sel {
        println!(
            "| {} | {:+.3} | {:.3} | {:.0} |",
            r.config, r.avg_correct_corr, r.normalized_time, r.mean_total_accesses
        );
    }
    println!();

    let policies = vec![
        ("baseline".to_string(), CoalescingPolicy::Baseline),
        ("FSS+RTS".to_string(), CoalescingPolicy::fss_rts(2)?),
        ("FSS+RTS".to_string(), CoalescingPolicy::fss_rts(4)?),
        ("RSS+RTS".to_string(), CoalescingPolicy::rss_rts(2)?),
        ("RSS+RTS".to_string(), CoalescingPolicy::rss_rts(4)?),
    ];
    let sn = ablation_samples_needed_with(&runner, &policies, 1200 * scale, seed)?;
    let model = SecurityModel::default();
    println!("## Extension — empirical samples-to-recovery (byte-0 channel)\n");
    println!("| mechanism | M | measured N to recover | corr at budget | Eq. 4 at analytic rho |");
    println!("|---|---|---|---|---|");
    for r in &sn {
        let rho = match r.mechanism.as_str() {
            "FSS+RTS" => model.rho(Mechanism::FssRts, r.m),
            "RSS+RTS" => model.rho(Mechanism::RssRts, r.m),
            _ => 1.0,
        };
        // Eq. 4 tends to 3 samples as rho -> 1.
        let eq4 = if rho >= 1.0 {
            3.0
        } else {
            samples_needed(rho, 0.99)?
        };
        println!(
            "| {} | {} | {} | {:+.3} | {eq4:.0} |",
            r.mechanism,
            r.m,
            r.samples_to_recover
                .map(|n| n.to_string())
                .unwrap_or_else(|| "> budget".into()),
            r.corr_at_budget
        );
    }
    println!();
    let noise_rows = ablation_noise_with(&runner, 300 * scale, &[0.0, 1.0, 2.0, 4.0, 8.0], seed)?;
    println!("## Extension — measurement-noise sensitivity (baseline attack, byte-0 channel)\n");
    println!("| sigma / signal | measured corr | predicted corr | Eq. 4 samples |");
    println!("|---|---|---|---|");
    for r in &noise_rows {
        println!(
            "| {:.1} | {:+.3} | {:+.3} | {:.0} |",
            r.sigma_over_signal, r.measured_corr, r.predicted_corr, r.samples_needed
        );
    }
    println!();

    println!("## Extension — Monte-Carlo rho for standalone RSS (Table II's missing column)\n");
    println!("| M | rho RSS (MC) | rho FSS+RTS (analytic) | rho RSS+RTS (analytic) |");
    println!("|---|---|---|---|");
    for m in [2usize, 4, 8, 16] {
        let rss = rho_monte_carlo(CoalescingPolicy::rss(m)?, 40_000, seed)?;
        println!(
            "| {} | {:.3} | {:.3} | {:.3} |",
            m,
            rss,
            model.rho(Mechanism::FssRts, m),
            model.rho(Mechanism::RssRts, m)
        );
    }
    println!();

    let mshr_rows = ablation_mshr_with(&runner, 150 * scale, seed)?;
    println!("## Extension — MSHR interaction (why §VII disables MSHRs)\n");
    println!("| configuration | corr(correct) | rank | exec cycles |");
    println!("|---|---|---|---|");
    for r in &mshr_rows {
        println!(
            "| {} | {:+.3} | {} | {:.0} |",
            r.config, r.corr_correct, r.rank, r.mean_total_cycles
        );
    }

    let l1_rows = ablation_l1_with(&runner, 150 * scale, seed)?;
    println!("\n## Extension — L1-cache interaction (the other §VII lever)\n");
    println!("| configuration | corr(correct) | rank | L1 hits | exec cycles |");
    println!("|---|---|---|---|---|");
    for r in &l1_rows {
        println!(
            "| {} | {:+.3} | {} | {:.0} | {:.0} |",
            r.config, r.corr_correct, r.rank, r.l1_hits_per_plaintext, r.mean_total_cycles
        );
    }

    // The scheduler reorders issue, never the loads: a run whose access
    // counts differ between GTO and LRR is a simulator bug.
    let scheduler_configs = [
        ("baseline, 32 lines", CoalescingPolicy::Baseline, 32),
        ("RSS+RTS(8), 32 lines", CoalescingPolicy::rss_rts(8)?, 32),
        ("baseline, 1024 lines", CoalescingPolicy::Baseline, 1024),
    ];
    let mut scenarios = Vec::new();
    for &(_, policy, lines) in &scheduler_configs {
        for scheduler in [SchedulerPolicy::Gto, SchedulerPolicy::Lrr] {
            scenarios.push(Scenario::new(policy, 5, lines).with_seed(seed).with_gpu(
                GpuOverrides {
                    scheduler: Some(scheduler),
                    ..GpuOverrides::default()
                },
            ));
        }
    }
    let runs = runner.run_sweep(&SweepSpec::list(scenarios))?;
    println!("\n## Extension — warp scheduler (GTO vs LRR, 5 plaintexts each)\n");
    println!("| configuration | GTO cycles | LRR cycles | mem accesses (both) |");
    println!("|---|---|---|---|");
    for (&(label, _, _), pair) in scheduler_configs.iter().zip(runs.chunks_exact(2)) {
        let (gto, lrr) = (&pair[0], &pair[1]);
        if gto.total_accesses != lrr.total_accesses {
            return Err(format!("{label}: access counts depend on the warp scheduler").into());
        }
        println!(
            "| {label} | {:.0} | {:.0} | {:.0} |",
            gto.mean_total_cycles()?,
            lrr.mean_total_cycles()?,
            gto.mean_total_accesses()
        );
    }

    let sim = GpuSimulator::new(GpuConfig::paper());
    let costed = [
        CoalescingPolicy::fss(8)?,
        CoalescingPolicy::rss_rts(8)?,
        CoalescingPolicy::Disabled,
    ];
    println!("\n## Extension — RCoal cost on synthetic workloads (30 warps x 32 loads)\n");
    println!("Execution cycles normalized to baseline coalescing.\n");
    println!("| pattern | FSS(8) | RSS+RTS(8) | disabled |");
    println!("|---|---|---|---|");
    for pattern in [
        AccessPattern::Streaming,
        AccessPattern::Broadcast,
        AccessPattern::Random { range: 4096 },
        AccessPattern::Strided { stride: 128 },
    ] {
        let kernel = SyntheticKernel::new(pattern, 30, 32, 32).with_seed(seed);
        let cycles = |policy| sim.run(&kernel, policy, 1).map(|s| s.total_cycles as f64);
        let base = cycles(CoalescingPolicy::Baseline)?;
        let mut row = format!("| {pattern} |");
        for &policy in &costed {
            row += &format!(" {:.3} |", cycles(policy)? / base);
        }
        println!("{row}");
    }

    // ------------------------------------------------------ Cache report
    let report = runner.report();
    println!(
        "\nRun cache: {} scenario runs served, {} simulated, {} cache hits ({:.0}% end-to-end hit rate).",
        report.served,
        report.launched,
        report.hits(),
        100.0 * report.hit_rate()
    );

    println!("\n(done)");
    Ok(())
}
