//! Golden equivalence for the scenario/sweep refactor: the declarative
//! generators must reproduce the pre-refactor hand-rolled generators
//! byte for byte.
//!
//! Each `legacy_*` function below is an inline copy of the generator as
//! it existed before `figures.rs` was rewritten on top of
//! [`SweepRunner`] — direct `ExperimentConfig` construction with
//! hand-rolled policy loops. They are the golden reference: if a sweep
//! expansion reorders scenarios, a cache hit returns a stale payload, or
//! the scenario→config translation drifts, these comparisons fail with
//! a bit-level diff instead of a silent change in the report.

use rcoal_attack::{pearson, Attack};
use rcoal_core::CoalescingPolicy;
use rcoal_experiments::figures::{
    ablation_l1_with, ablation_mshr_with, avg_correct_correlation, fig05_last_vs_total_with,
    fig06_coalescing_onoff_with, fig07_fss_performance_with, Fig5Data, Fig6Data, Fig7Row, MshrRow,
};
use rcoal_experiments::{ExperimentConfig, ExperimentError, SweepRunner, TimingSource};
use rcoal_gpu_sim::GpuConfig;
use rcoal_parallel::try_parallel_map;

// The pinned operating point: small enough for debug-mode CI, large
// enough that correlations and ranks are non-degenerate.
const PLAINTEXTS: usize = 10;
const SEED: u64 = 0x90_1d;

// Pinned worker count for the legacy generators: the comparison must
// not depend on the host's core count.
const LEGACY_THREADS: usize = 4;

fn legacy_fig05(num_plaintexts: usize, seed: u64) -> Result<Fig5Data, ExperimentError> {
    let data = ExperimentConfig::new(CoalescingPolicy::Baseline, num_plaintexts, 32)
        .with_seed(seed)
        .run()?;
    let last = data
        .last_round_cycles
        .as_ref()
        .ok_or(ExperimentError::TimingUnavailable {
            what: "legacy_fig05",
        })?;
    let total = data
        .total_cycles
        .as_ref()
        .ok_or(ExperimentError::TimingUnavailable {
            what: "legacy_fig05",
        })?;
    let points: Vec<(u64, u64)> = last.iter().copied().zip(total.iter().copied()).collect();
    let xf: Vec<f64> = last.iter().map(|&v| v as f64).collect();
    let yf: Vec<f64> = total.iter().map(|&v| v as f64).collect();
    Ok(Fig5Data {
        points,
        correlation: pearson(&xf, &yf),
    })
}

fn legacy_fig06(num_plaintexts: usize, seed: u64) -> Result<Fig6Data, ExperimentError> {
    let attack = Attack::baseline(32);

    let on = ExperimentConfig::new(CoalescingPolicy::Baseline, num_plaintexts, 32)
        .with_seed(seed)
        .run()?;
    let k10 = on.true_last_round_key();
    let rec_on = attack.recover_byte(&on.attack_samples(TimingSource::LastRoundCycles)?, 0)?;

    let off = ExperimentConfig::new(CoalescingPolicy::Disabled, num_plaintexts, 32)
        .with_seed(seed)
        .run()?;
    let rec_off = attack.recover_byte(&off.attack_samples(TimingSource::LastRoundCycles)?, 0)?;

    Ok(Fig6Data {
        rank_enabled: rec_on.rank_of(k10[0]),
        rank_disabled: rec_off.rank_of(k10[0]),
        enabled: rec_on.correlations,
        disabled: rec_off.correlations,
        correct_byte: k10[0],
    })
}

fn legacy_fig07(num_plaintexts: usize, seed: u64) -> Result<Vec<Fig7Row>, ExperimentError> {
    let ms = [1usize, 2, 4, 8, 16, 32];
    try_parallel_map(LEGACY_THREADS, &ms, |_, &m| {
        let policy = CoalescingPolicy::fss(m)?;
        let data = ExperimentConfig::new(policy, num_plaintexts, 32)
            .with_seed(seed)
            .with_threads(1)
            .run()?;
        let avg =
            avg_correct_correlation(&data, Attack::baseline(32), TimingSource::LastRoundCycles)?;
        Ok(Fig7Row {
            m,
            mean_total_cycles: data.mean_total_cycles()?,
            mean_total_accesses: data.mean_total_accesses(),
            avg_corr_naive_attack: avg,
        })
    })
}

fn legacy_ablation_mshr(num_plaintexts: usize, seed: u64) -> Result<Vec<MshrRow>, ExperimentError> {
    let configs = [
        (
            "baseline coalescing, no MSHR",
            CoalescingPolicy::Baseline,
            0usize,
        ),
        (
            "coalescing disabled, no MSHR",
            CoalescingPolicy::Disabled,
            0,
        ),
        (
            "coalescing disabled, 64 MSHRs",
            CoalescingPolicy::Disabled,
            64,
        ),
    ];
    try_parallel_map(
        LEGACY_THREADS,
        &configs,
        |_, &(label, policy, mshr_entries)| {
            let gpu = GpuConfig {
                mshr_entries,
                ..GpuConfig::paper()
            };
            let data = ExperimentConfig::new(policy, num_plaintexts, 32)
                .with_seed(seed)
                .with_gpu(gpu)
                .with_threads(1)
                .run()?;
            let k10 = data.true_last_round_key();
            let attack = Attack::baseline(32).with_threads(Some(1));
            let rec =
                attack.recover_byte(&data.attack_samples(TimingSource::LastRoundCycles)?, 0)?;
            Ok(MshrRow {
                config: label.into(),
                corr_correct: rec.correlation_of(k10[0]),
                rank: rec.rank_of(k10[0]),
                mean_total_cycles: data.mean_total_cycles()?,
            })
        },
    )
}

#[test]
fn fig05_matches_legacy_generator() {
    let legacy = legacy_fig05(PLAINTEXTS, SEED).expect("legacy fig05");
    let new = fig05_last_vs_total_with(&SweepRunner::new(), PLAINTEXTS, SEED).expect("sweep fig05");
    assert_eq!(legacy, new);
}

#[test]
fn fig06_matches_legacy_generator() {
    let legacy = legacy_fig06(PLAINTEXTS, SEED).expect("legacy fig06");
    let new =
        fig06_coalescing_onoff_with(&SweepRunner::new(), PLAINTEXTS, SEED).expect("sweep fig06");
    assert_eq!(legacy, new);
}

#[test]
fn fig07_matches_legacy_generator() {
    let legacy = legacy_fig07(PLAINTEXTS, SEED).expect("legacy fig07");
    let new =
        fig07_fss_performance_with(&SweepRunner::new(), PLAINTEXTS, SEED).expect("sweep fig07");
    assert_eq!(legacy, new);
}

#[test]
fn ablation_mshr_matches_legacy_generator() {
    let legacy = legacy_ablation_mshr(PLAINTEXTS, SEED).expect("legacy ablation_mshr");
    let new =
        ablation_mshr_with(&SweepRunner::new(), PLAINTEXTS, SEED).expect("sweep ablation_mshr");
    assert_eq!(legacy, new);
}

/// A cache hit must be indistinguishable from a fresh simulation: the
/// same generator served from a warm cache returns the same rows it
/// returned cold, and the runner's accounting shows the suite actually
/// exercised the cache.
#[test]
fn figure_suite_shares_runs_through_the_cache() {
    let runner = SweepRunner::new();
    let fig06_cold = fig06_coalescing_onoff_with(&runner, PLAINTEXTS, SEED).expect("fig06 cold");
    // fig06's two scenarios are now cached; the MSHR ablation re-uses the
    // paper-default baseline and disabled runs, the L1 ablation the
    // baseline run again.
    let mshr = ablation_mshr_with(&runner, PLAINTEXTS, SEED).expect("mshr");
    let l1 = ablation_l1_with(&runner, PLAINTEXTS, SEED).expect("l1");
    let fig06_warm = fig06_coalescing_onoff_with(&runner, PLAINTEXTS, SEED).expect("fig06 warm");

    assert_eq!(fig06_cold, fig06_warm, "cache hit changed figure rows");
    assert_eq!(mshr.len(), 3);
    assert_eq!(l1.len(), 2);
    // Rows served partly from the shared cache equal the same
    // generators simulated afresh.
    let fresh = SweepRunner::uncached();
    assert_eq!(
        mshr,
        ablation_mshr_with(&fresh, PLAINTEXTS, SEED).expect("mshr uncached"),
        "cache hit changed MSHR rows"
    );
    assert_eq!(
        l1,
        ablation_l1_with(&fresh, PLAINTEXTS, SEED).expect("l1 uncached"),
        "cache hit changed L1 rows"
    );

    let report = runner.report();
    assert!(
        report.hits() > 0,
        "figure suite never hit the run cache: {} served, {} launched",
        report.served,
        report.launched
    );
    // fig06 warm (2 hits) + MSHR rows 1-2 (2 hits) + L1 row 1 (1 hit):
    // only the 64-MSHR and 16-set-L1 scenarios still simulate.
    assert_eq!(report.served, 9);
    assert_eq!(report.launched, 4);
}
