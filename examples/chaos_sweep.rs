//! Crash-safe sweeps under host-level chaos: supervised workers,
//! per-run persistence, and kill-and-resume.
//!
//! ```text
//! cargo run --release --example chaos_sweep
//! ```
//!
//! `fault_tolerance` injects faults into the *simulated* GPU; this demo
//! injects them into the *host* that runs it: worker panics and failed
//! disk writes, both from one seeded [`ChaosPlan`]. The sweep runner
//! quarantines each scenario whose worker panicked, counts every lost
//! disk write in its `CacheStats`, and stores each completed run as it
//! finishes — so re-running the sweep simulates only what is missing
//! and serves finished work bit-identically from the store.

use rcoal::prelude::*;
use rcoal_experiments::SweepRunner;
use rcoal_scenario::{ChaosPlan, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = std::env::temp_dir().join(format!("rcoal-chaos-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);

    // A small grid: 3 policies x 4 seeds, functional-only for speed.
    let mut scenarios = Vec::new();
    for policy in [
        CoalescingPolicy::Baseline,
        CoalescingPolicy::fss(8)?,
        CoalescingPolicy::rss_rts(4)?,
    ] {
        for seed in 0..4u64 {
            scenarios.push(
                Scenario::new(policy, 4, 32)
                    .with_seed(0xc0de + seed)
                    .functional_only(),
            );
        }
    }

    // Phase 1: a hostile host. Roughly every 3rd task panics and every
    // 4th disk write fails; the supervisor quarantines each panicking
    // task and the store counts every loss.
    println!("phase 1: sweep under chaos (panic period 3, io-failure period 4)");
    let chaos = ChaosPlan::seeded(0xbad).with_panics(3).with_io_failures(4);
    let runner = SweepRunner::with_disk_cache(&store)?.with_chaos(chaos);
    // The injected panics are the point of the demo; keep their
    // default-hook spew out of the output (the supervisor still sees
    // and reports every one).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = runner.run_scenarios_supervised(&scenarios);
    std::panic::set_hook(default_hook);
    let stats = runner.cache_stats();
    println!(
        "  {} of {} runs completed, {} quarantined",
        outcome.completed(),
        scenarios.len(),
        outcome.quarantined.len(),
    );
    println!(
        "  store: {} persisted, {} writes failed (counted, not swallowed)",
        stats.disk_stores, stats.write_failures
    );
    for q in &outcome.quarantined {
        println!("  quarantined {:016x}: {}", q.hash, q.reason);
    }
    drop(runner);

    // Phase 2: the "next process" — same store, no chaos. The store
    // serves what phase 1 completed; only lost or quarantined work
    // re-simulates, and every served row is bit-identical.
    println!("\nphase 2: resume from the store, chaos disarmed");
    let runner = SweepRunner::with_disk_cache(&store)?;
    let resumed = runner.run_scenarios_supervised(&scenarios);
    assert!(resumed.is_complete(), "clean host, complete sweep");
    println!(
        "  {} runs served: {} from the store, {} re-simulated",
        resumed.rows.len(),
        runner.cache_stats().disk_hits,
        resumed.report.launched,
    );
    for (row, prev) in resumed.rows.iter().zip(&outcome.rows) {
        if let (Some(now), Some(before)) = (row.as_ref(), prev.as_ref()) {
            assert_eq!(now, before, "stored results are bit-identical");
        }
    }
    println!("  stored rows verified bit-identical to phase 1");

    // Phase 3: audit the store like CI does (`rcoal-cli cache verify`).
    let audit = runner.verify_store()?;
    println!(
        "\nphase 3: store audit — {} entries, {} ok, {} corrupt",
        audit.entries, audit.ok, audit.corrupt
    );

    std::fs::remove_dir_all(&store)?;
    Ok(())
}
