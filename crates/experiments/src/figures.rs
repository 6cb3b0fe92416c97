//! One generator per table/figure of the paper's evaluation. Each
//! function returns typed rows; `examples/reproduce_all.rs` prints them
//! and EXPERIMENTS.md records paper-vs-measured.

//! Every generator is a *declarative sweep plus a typed fold*: it
//! describes its simulations as a [`SweepSpec`] (a policy grid or an
//! explicit scenario list) and executes them through a
//! [`SweepRunner`], which deduplicates scenarios by content hash,
//! consults the run cache, and fans distinct misses out across worker
//! threads (one worker per configuration, each experiment pinned to one
//! inner thread — results are collected in scenario order and are
//! bit-identical to a sequential run). The fold then turns raw
//! [`ExperimentData`] into figure rows, parallelizing only the
//! attack-side post-processing.
//!
//! Each simulating generator is a `*_with` function taking the runner —
//! pass the same runner to several generators and configurations they
//! have in common (the baseline timing run, most prominently) simulate
//! exactly once; pass `&SweepRunner::new()` for a one-off run.

use crate::engine::SweepRunner;
use crate::error::ExperimentError;
use crate::run::{ExperimentData, TimingSource};
use rcoal_attack::{pearson, Attack};
use rcoal_core::{CoalescingPolicy, PolicyError, SizeDistribution};
use rcoal_parallel::{resolve_threads, try_parallel_map};
use rcoal_rng::SeedableRng;
use rcoal_rng::StdRng;
use rcoal_scenario::{GpuOverrides, Scenario, SweepSpec};
use rcoal_theory::RCoalScore;

/// Subwarp counts the paper sweeps in its defense evaluations.
pub const SUBWARP_SWEEP: [usize; 4] = [2, 4, 8, 16];

/// The four defense mechanisms of §VI, constructed for `m` subwarps.
///
/// # Errors
///
/// Propagates the policy constructors' validation ([`PolicyError`]) when
/// `m` does not divide the warp size (FSS) or exceeds it (RSS).
pub fn mechanisms(m: usize) -> Result<Vec<(&'static str, CoalescingPolicy)>, PolicyError> {
    Ok(vec![
        ("FSS", CoalescingPolicy::fss(m)?),
        ("FSS+RTS", CoalescingPolicy::fss_rts(m)?),
        ("RSS", CoalescingPolicy::rss(m)?),
        ("RSS+RTS", CoalescingPolicy::rss_rts(m)?),
    ])
}

/// A timing scenario on the paper's GPU — the base most figures sweep
/// around.
fn timed(policy: CoalescingPolicy, num_plaintexts: usize, lines: usize, seed: u64) -> Scenario {
    Scenario::new(policy, num_plaintexts, lines).with_seed(seed)
}

// ---------------------------------------------------------------- Fig. 5

/// Figure 5: one point per plaintext relating last-round and total time.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Data {
    /// `(last_round_cycles, total_cycles)` per plaintext.
    pub points: Vec<(u64, u64)>,
    /// Pearson correlation of the two series.
    pub correlation: f64,
}

/// Figure 5: the total execution time is proportional to the last-round
/// time (both are driven by coalesced accesses), which is why an attacker
/// observing only total time still sees the last-round channel.
///
/// # Errors
///
/// Propagates simulation failures; [`ExperimentError::TimingUnavailable`]
/// cannot occur (the scenario is a timing run).
pub fn fig05_last_vs_total_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    seed: u64,
) -> Result<Fig5Data, ExperimentError> {
    let data = runner.run_one(&timed(CoalescingPolicy::Baseline, num_plaintexts, 32, seed))?;
    let last = data
        .last_round_cycles
        .as_ref()
        .ok_or(ExperimentError::TimingUnavailable {
            what: "fig05_last_vs_total",
        })?;
    let total = data
        .total_cycles
        .as_ref()
        .ok_or(ExperimentError::TimingUnavailable {
            what: "fig05_last_vs_total",
        })?;
    let points: Vec<(u64, u64)> = last.iter().copied().zip(total.iter().copied()).collect();
    let xf: Vec<f64> = last.iter().map(|&v| v as f64).collect();
    let yf: Vec<f64> = total.iter().map(|&v| v as f64).collect();
    Ok(Fig5Data {
        points,
        correlation: pearson(&xf, &yf),
    })
}

// ---------------------------------------------------------------- Fig. 6

/// Figure 6: per-guess correlations for key byte 0, coalescing on vs off.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Data {
    /// Correlations of all 256 guesses with coalescing enabled.
    pub enabled: Vec<f64>,
    /// Correlations with coalescing disabled.
    pub disabled: Vec<f64>,
    /// The true value of key byte 0.
    pub correct_byte: u8,
    /// Rank of the correct byte with coalescing enabled (0 = recovered).
    pub rank_enabled: usize,
    /// Rank of the correct byte with coalescing disabled.
    pub rank_disabled: usize,
}

/// Figure 6: the baseline attack succeeds against stock coalescing and
/// collapses when coalescing is disabled (every count is the constant 32).
///
/// # Errors
///
/// Propagates simulation and attack failures.
pub fn fig06_coalescing_onoff_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    seed: u64,
) -> Result<Fig6Data, ExperimentError> {
    let sweep = SweepSpec::grid(timed(CoalescingPolicy::Baseline, num_plaintexts, 32, seed))
        .with_policies(vec![CoalescingPolicy::Baseline, CoalescingPolicy::Disabled]);
    let results = runner.run_sweep(&sweep)?;
    let (on, off) = match results.as_slice() {
        [on, off] => (on, off),
        _ => {
            return Err(ExperimentError::MissingData(
                "fig06 sweep must expand to exactly two runs".into(),
            ))
        }
    };
    let attack = Attack::baseline(32);
    let k10 = on.true_last_round_key();
    let rec_on = attack.recover_byte(&on.attack_samples(TimingSource::LastRoundCycles)?, 0)?;
    let rec_off = attack.recover_byte(&off.attack_samples(TimingSource::LastRoundCycles)?, 0)?;
    Ok(Fig6Data {
        rank_enabled: rec_on.rank_of(k10[0]),
        rank_disabled: rec_off.rank_of(k10[0]),
        enabled: rec_on.correlations,
        disabled: rec_off.correlations,
        correct_byte: k10[0],
    })
}

// ------------------------------------------------------------ Motivation

/// §III motivation numbers: the cost of disabling coalescing outright.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotivationData {
    /// Execution-time increase of no-coalescing over baseline, percent.
    pub slowdown_pct: f64,
    /// Memory-access multiplication factor (paper: 2.7×).
    pub access_factor: f64,
}

/// §III: disabling coalescing for a 1024-line plaintext costs far more
/// than any RCoal configuration.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn motivation_disable_coalescing_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    lines: usize,
    seed: u64,
) -> Result<MotivationData, ExperimentError> {
    let sweep = SweepSpec::grid(timed(
        CoalescingPolicy::Baseline,
        num_plaintexts,
        lines,
        seed,
    ))
    .with_policies(vec![CoalescingPolicy::Baseline, CoalescingPolicy::Disabled]);
    let results = runner.run_sweep(&sweep)?;
    let (base, off) = match results.as_slice() {
        [base, off] => (base, off),
        _ => {
            return Err(ExperimentError::MissingData(
                "motivation sweep must expand to exactly two runs".into(),
            ))
        }
    };
    Ok(MotivationData {
        slowdown_pct: 100.0 * (off.mean_total_cycles()? / base.mean_total_cycles()? - 1.0),
        access_factor: off.mean_total_accesses() / base.mean_total_accesses(),
    })
}

// ---------------------------------------------------------------- Fig. 7

/// One Figure 7 row: FSS at a given subwarp count under the *naive*
/// baseline attack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// Number of subwarps.
    pub m: usize,
    /// Mean execution cycles per plaintext.
    pub mean_total_cycles: f64,
    /// Mean total coalesced accesses per plaintext.
    pub mean_total_accesses: f64,
    /// Average over the 16 key bytes of the correct guess's correlation
    /// under the baseline (num-subwarp = 1) attack.
    pub avg_corr_naive_attack: f64,
}

/// Figure 7: FSS costs performance as `M` grows (a) and degrades the
/// naive attack's correlation (b).
///
/// # Errors
///
/// Propagates policy construction and simulation failures.
pub fn fig07_fss_performance_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    seed: u64,
) -> Result<Vec<Fig7Row>, ExperimentError> {
    let ms = [1usize, 2, 4, 8, 16, 32];
    let mut policies = Vec::with_capacity(ms.len());
    for &m in &ms {
        policies.push(CoalescingPolicy::fss(m)?);
    }
    let sweep = SweepSpec::grid(timed(CoalescingPolicy::Baseline, num_plaintexts, 32, seed))
        .with_policies(policies);
    let results = runner.run_sweep(&sweep)?;
    let pairs: Vec<(usize, ExperimentData)> = ms.iter().copied().zip(results).collect();
    try_parallel_map(resolve_threads(None), &pairs, |_, (m, data)| {
        let avg =
            avg_correct_correlation(data, Attack::baseline(32), TimingSource::LastRoundCycles)?;
        Ok(Fig7Row {
            m: *m,
            mean_total_cycles: data.mean_total_cycles()?,
            mean_total_accesses: data.mean_total_accesses(),
            avg_corr_naive_attack: avg,
        })
    })
}

// ---------------------------------------- Figs. 8 and 12–14 (scatters)

/// One correlation scatter (a panel of Figures 8, 12, 13, 14): all 256
/// guess correlations for key byte 0 at a given subwarp count.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterData {
    /// Number of subwarps.
    pub m: usize,
    /// Correlations of all 256 guesses for key byte 0.
    pub correlations: Vec<f64>,
    /// The true value of key byte 0.
    pub correct_byte: u8,
    /// Rank of the correct byte (0 = attack recovers it).
    pub rank_of_correct: usize,
}

fn defense_scatter(
    runner: &SweepRunner,
    defense: impl Fn(usize) -> Result<CoalescingPolicy, PolicyError>,
    num_plaintexts: usize,
    seed: u64,
) -> Result<Vec<ScatterData>, ExperimentError> {
    let mut policies = Vec::with_capacity(SUBWARP_SWEEP.len());
    for &m in &SUBWARP_SWEEP {
        policies.push(defense(m)?);
    }
    let sweep = SweepSpec::grid(timed(CoalescingPolicy::Baseline, num_plaintexts, 32, seed))
        .with_policies(policies);
    let results = runner.run_sweep(&sweep)?;
    let pairs: Vec<(usize, ExperimentData)> = SUBWARP_SWEEP.iter().copied().zip(results).collect();
    try_parallel_map(resolve_threads(None), &pairs, |_, (m, data)| {
        let k10 = data.true_last_round_key();
        // Corresponding attack (§IV-E): the attacker mirrors the defense.
        let attack = Attack::against(data.policy, 32)
            .with_seed(seed ^ 0xa77ac)
            .with_threads(Some(1));
        let rec = attack.recover_byte(&data.attack_samples(TimingSource::LastRoundCycles)?, 0)?;
        Ok(ScatterData {
            m: *m,
            rank_of_correct: rec.rank_of(k10[0]),
            correlations: rec.correlations,
            correct_byte: k10[0],
        })
    })
}

/// Figure 8: FSS-enabled GPU under the FSS attack (Algorithm 1) — the
/// attack re-establishes the correlation, FSS alone is insufficient.
///
/// # Errors
///
/// Propagates simulation and attack failures.
pub fn fig08_fss_attack_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    seed: u64,
) -> Result<Vec<ScatterData>, ExperimentError> {
    defense_scatter(runner, CoalescingPolicy::fss, num_plaintexts, seed)
}

/// Figure 12: FSS+RTS under the FSS+RTS attack.
///
/// # Errors
///
/// Propagates simulation and attack failures.
pub fn fig12_fss_rts_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    seed: u64,
) -> Result<Vec<ScatterData>, ExperimentError> {
    defense_scatter(runner, CoalescingPolicy::fss_rts, num_plaintexts, seed)
}

/// Figure 13: RSS under the RSS attack.
///
/// # Errors
///
/// Propagates simulation and attack failures.
pub fn fig13_rss_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    seed: u64,
) -> Result<Vec<ScatterData>, ExperimentError> {
    defense_scatter(runner, CoalescingPolicy::rss, num_plaintexts, seed)
}

/// Figure 14: RSS+RTS under the RSS+RTS attack.
///
/// # Errors
///
/// Propagates simulation and attack failures.
pub fn fig14_rss_rts_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    seed: u64,
) -> Result<Vec<ScatterData>, ExperimentError> {
    defense_scatter(runner, CoalescingPolicy::rss_rts, num_plaintexts, seed)
}

// ---------------------------------------------------------------- Fig. 9

/// Figure 9: subwarp-size histograms for the two RSS distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Data {
    /// `normal[s]` = how often size `s` was drawn under the normal
    /// distribution.
    pub normal: Vec<u64>,
    /// Same for the skewed (uniform-composition) distribution.
    pub skewed: Vec<u64>,
}

/// Figure 9: the skewed distribution spreads subwarp sizes over the whole
/// 1..=29 range while the normal distribution stays near 32/M.
///
/// # Errors
///
/// [`ExperimentError::Policy`] when `m` exceeds the warp size.
pub fn fig09_rss_distributions(
    draws: usize,
    m: usize,
    seed: u64,
) -> Result<Fig9Data, ExperimentError> {
    let mut normal = vec![0u64; 33];
    let mut skewed = vec![0u64; 33];
    let mut rng = StdRng::seed_from_u64(seed);
    for (dist, hist) in [
        (SizeDistribution::Normal, &mut normal),
        (SizeDistribution::Skewed, &mut skewed),
    ] {
        let policy = CoalescingPolicy::Rss {
            num_subwarps: rcoal_core::NumSubwarps::new_unaligned(m, 32)?,
            dist,
        };
        for _ in 0..draws {
            let a = policy.assignment(32, &mut rng)?;
            for s in a.sizes() {
                hist[s] += 1;
            }
        }
    }
    Ok(Fig9Data { normal, skewed })
}

// ----------------------------------------------------- Figs. 15, 16, 17

/// One security row (Figure 15): the average correct-guess correlation
/// under the corresponding attack.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityRow {
    /// Mechanism name ("FSS", "FSS+RTS", "RSS", "RSS+RTS").
    pub mechanism: String,
    /// Number of subwarps.
    pub m: usize,
    /// Average over the 16 key bytes of the correct guess's correlation.
    pub avg_correct_corr: f64,
}

/// One performance row (Figure 16): execution time and data movement.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRow {
    /// Mechanism name.
    pub mechanism: String,
    /// Number of subwarps.
    pub m: usize,
    /// Mean total coalesced accesses per plaintext.
    pub mean_total_accesses: f64,
    /// Mean execution cycles per plaintext.
    pub mean_total_cycles: f64,
    /// Execution time normalized to the baseline (num-subwarp = 1).
    pub normalized_time: f64,
}

/// One RCoal_Score row (Figure 17).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRow {
    /// Mechanism name.
    pub mechanism: String,
    /// Number of subwarps.
    pub m: usize,
    /// Eq. 7 with a = 1, b = 1 (security-oriented).
    pub security_oriented: f64,
    /// Eq. 7 with a = 1, b = 20 (performance-oriented).
    pub performance_oriented: f64,
}

/// Average over the attacked key bytes of the correct guess's
/// correlation, dispatched through the run's workload oracle (AES's
/// 16-byte last-round subkey for legacy runs).
///
/// Each byte replays only the correct guess, with the predictor
/// `attack` uses for it, so the value equals
/// `attack.recover_key(..)?.outcome(..).avg_correct_correlation` for the
/// same samples without sweeping the other 255 guesses.
///
/// # Errors
///
/// [`ExperimentError::TimingUnavailable`] when `source` needs cycle data
/// the experiment did not record.
pub fn avg_correct_correlation(
    data: &ExperimentData,
    attack: Attack,
    source: TimingSource,
) -> Result<f64, ExperimentError> {
    let samples = data.attack_samples(source)?;
    let attack = attack.with_oracle(data.workload_def().oracle());
    let subkey = data.attacked_subkey();
    let bytes = attack.key_bytes().min(16);
    let times: Vec<f64> = samples.iter().map(|s| s.time).collect();
    let mut sum = 0.0;
    for (j, &kj) in subkey.iter().take(bytes).enumerate() {
        let mut predictor = attack.predictor_for_guess(kj);
        let predicted: Vec<f64> = samples
            .iter()
            .map(|s| predictor.predict(&s.ciphertexts, j, kj))
            .collect();
        sum += pearson(&predicted, &times);
    }
    Ok(sum / bytes as f64)
}

/// Figures 15 and 16 share their simulations; this bundle carries both.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonData {
    /// Security rows (Figure 15).
    pub security: Vec<SecurityRow>,
    /// Performance rows (Figure 16), including the baseline row (`m = 1`).
    pub performance: Vec<PerfRow>,
}

/// Figures 15 + 16: sweep the four mechanisms over `M ∈ {2,4,8,16}`,
/// collecting the corresponding-attack correlation and the performance
/// cost from the same runs.
///
/// # Errors
///
/// Propagates policy construction, simulation, and attack failures.
pub fn fig15_16_comparison_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    seed: u64,
) -> Result<ComparisonData, ExperimentError> {
    // One grid: the baseline plus mechanism × subwarp-count; the labels
    // vector carries the (name, m) annotation the policy axis drops.
    let mut labels: Vec<(&'static str, usize)> = vec![("baseline", 1)];
    let mut policies = vec![CoalescingPolicy::Baseline];
    for m in SUBWARP_SWEEP {
        for (name, policy) in mechanisms(m)? {
            labels.push((name, m));
            policies.push(policy);
        }
    }
    let sweep = SweepSpec::grid(timed(CoalescingPolicy::Baseline, num_plaintexts, 32, seed))
        .with_policies(policies);
    let results = runner.run_sweep(&sweep)?;
    let base = results
        .first()
        .ok_or_else(|| ExperimentError::MissingData("empty fig15/16 sweep".into()))?;
    let base_cycles = base.mean_total_cycles()?;
    let pairs: Vec<(&str, usize, &ExperimentData)> = labels[1..]
        .iter()
        .zip(&results[1..])
        .map(|(&(name, m), data)| (name, m, data))
        .collect();
    let measured = try_parallel_map(resolve_threads(None), &pairs, |_, &(name, m, data)| {
        let attack = Attack::against(data.policy, 32).with_seed(seed ^ 0xa77ac);
        let avg = avg_correct_correlation(data, attack, TimingSource::LastRoundCycles)?;
        Ok::<_, ExperimentError>((
            name,
            m,
            avg,
            data.mean_total_accesses(),
            data.mean_total_cycles()?,
        ))
    })?;

    let mut security = Vec::new();
    let mut performance = vec![PerfRow {
        mechanism: "baseline".into(),
        m: 1,
        mean_total_accesses: base.mean_total_accesses(),
        mean_total_cycles: base_cycles,
        normalized_time: 1.0,
    }];
    for (name, m, avg, accesses, cycles) in measured {
        security.push(SecurityRow {
            mechanism: name.into(),
            m,
            avg_correct_corr: avg,
        });
        performance.push(PerfRow {
            mechanism: name.into(),
            m,
            mean_total_accesses: accesses,
            mean_total_cycles: cycles,
            normalized_time: cycles / base_cycles,
        });
    }
    Ok(ComparisonData {
        security,
        performance,
    })
}

/// Floor on |ρ̄| in the Figure 17 score: about the sampling noise of an
/// average correlation over 16 bytes × ~150 plaintexts (`1/√(16·N)`).
const SCORE_CORR_FLOOR: f64 = 0.02;

/// Figure 17: RCoal_Score from the Figure 15/16 data.
///
/// A measured average correlation below the sampling noise floor
/// (≈ `1/√(16·N)` for N plaintexts × 16 bytes) carries no information
/// about the true correlation, so the score computation floors |ρ̄| there;
/// otherwise a lucky near-zero estimate produces an unbounded score.
///
/// # Errors
///
/// [`ExperimentError::MissingData`] when a security row has no matching
/// performance row.
pub fn fig17_rcoal_score(comparison: &ComparisonData) -> Result<Vec<ScoreRow>, ExperimentError> {
    let sec_cfg = RCoalScore::security_oriented();
    let perf_cfg = RCoalScore::performance_oriented();
    comparison
        .security
        .iter()
        .map(|s| {
            let perf = comparison
                .performance
                .iter()
                .find(|p| p.mechanism == s.mechanism && p.m == s.m)
                .ok_or_else(|| {
                    ExperimentError::MissingData(format!(
                        "no performance row for {} at M={}",
                        s.mechanism, s.m
                    ))
                })?;
            let corr = s.avg_correct_corr.abs().max(SCORE_CORR_FLOOR);
            Ok(ScoreRow {
                mechanism: s.mechanism.clone(),
                m: s.m,
                security_oriented: sec_cfg.score(corr, perf.normalized_time),
                performance_oriented: perf_cfg.score(corr, perf.normalized_time),
            })
        })
        .collect()
}

// --------------------------------------------------------------- Fig. 18

/// One Figure 18 row: the 1024-line case study.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig18Row {
    /// Mechanism name.
    pub mechanism: String,
    /// Number of subwarps.
    pub m: usize,
    /// Average correct-guess correlation, computed against the *observed
    /// last-round accesses* (the paper's §VI-D noise-cancelling metric).
    pub avg_correct_corr: f64,
    /// Execution time normalized to the baseline.
    pub normalized_time: f64,
}

/// Figure 18: scalability to 1024-line plaintexts (32 warps). Security
/// uses functional access counts (fast, exact); timing uses a smaller
/// number of simulated launches (`timing_plaintexts`).
///
/// # Errors
///
/// Propagates policy construction, simulation, and attack failures.
pub fn fig18_scalability_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    timing_plaintexts: usize,
    seed: u64,
) -> Result<Vec<Fig18Row>, ExperimentError> {
    let mut configs = Vec::new();
    for m in [2usize, 4, 8] {
        for (name, policy) in mechanisms(m)? {
            configs.push((name, m, policy));
        }
    }
    // One batch: the baseline timing run, then per mechanism one
    // functional security run and one (smaller) timing run.
    let mut scenarios = vec![timed(
        CoalescingPolicy::Baseline,
        timing_plaintexts,
        1024,
        seed,
    )];
    for &(_, _, policy) in &configs {
        scenarios.push(timed(policy, num_plaintexts, 1024, seed).functional_only());
        scenarios.push(timed(policy, timing_plaintexts, 1024, seed));
    }
    let results = runner.run_sweep(&SweepSpec::list(scenarios))?;
    let base_time = results
        .first()
        .ok_or_else(|| ExperimentError::MissingData("empty fig18 sweep".into()))?
        .mean_total_cycles()?;
    let jobs: Vec<(&str, usize, &ExperimentData, &ExperimentData)> = configs
        .iter()
        .enumerate()
        .map(|(i, &(name, m, _))| (name, m, &results[1 + 2 * i], &results[2 + 2 * i]))
        .collect();
    try_parallel_map(resolve_threads(None), &jobs, |_, &(name, m, sec, time)| {
        let attack = Attack::against(sec.policy, 32).with_seed(seed ^ 0xa77ac);
        let avg = avg_correct_correlation(sec, attack, TimingSource::LastRoundAccesses)?;
        Ok(Fig18Row {
            mechanism: name.into(),
            m,
            avg_correct_corr: avg,
            normalized_time: time.mean_total_cycles()? / base_time,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Figure generators are exercised end-to-end (with small sample
    // counts) by the integration tests in `tests/`; here we keep fast
    // sanity checks of the pure pieces.

    /// The figures' correct-guess correlation is the one the attack's
    /// own key recovery reports, bit for bit, for deterministic and
    /// randomized attacker models alike.
    #[test]
    fn avg_correct_correlation_matches_the_key_recovery() {
        for policy in [
            CoalescingPolicy::rss_rts(8).unwrap(),
            CoalescingPolicy::fss(8).unwrap(),
        ] {
            let data = crate::ExperimentConfig::new(policy, 24, 32)
                .with_seed(5)
                .functional_only()
                .run()
                .unwrap();
            let attack = Attack::against(policy, 32).with_seed(0xa77ac);
            let samples = data
                .attack_samples(TimingSource::LastRoundAccesses)
                .unwrap();
            let expected = attack
                .recover_key(&samples)
                .unwrap()
                .outcome(&data.attacked_subkey())
                .avg_correct_correlation;
            let avg =
                avg_correct_correlation(&data, attack, TimingSource::LastRoundAccesses).unwrap();
            assert_eq!(
                avg.to_bits(),
                expected.to_bits(),
                "{policy}: {avg} vs {expected}"
            );
        }
    }

    #[test]
    fn mechanisms_cover_the_paper_set() {
        let ms = mechanisms(4).unwrap();
        let names: Vec<&str> = ms.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["FSS", "FSS+RTS", "RSS", "RSS+RTS"]);
        for (_, p) in ms {
            assert_eq!(p.num_subwarps(32), 4);
        }
    }

    #[test]
    fn fig09_histograms_have_expected_mass() {
        let d = fig09_rss_distributions(500, 4, 3).unwrap();
        assert_eq!(d.normal.iter().sum::<u64>(), 500 * 4);
        assert_eq!(d.skewed.iter().sum::<u64>(), 500 * 4);
        // Normal concentrates near 8; skewed reaches far beyond.
        let spread = |h: &[u64]| {
            h.iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(s, _)| s)
                .max()
                .unwrap()
        };
        assert!(spread(&d.skewed) > spread(&d.normal));
        assert!(d.normal[7] + d.normal[8] + d.normal[9] > d.skewed[7] + d.skewed[8] + d.skewed[9]);
    }

    #[test]
    fn score_rows_align_with_security_rows() {
        let comparison = ComparisonData {
            security: vec![SecurityRow {
                mechanism: "FSS".into(),
                m: 2,
                avg_correct_corr: 0.5,
            }],
            performance: vec![PerfRow {
                mechanism: "FSS".into(),
                m: 2,
                mean_total_accesses: 100.0,
                mean_total_cycles: 1100.0,
                normalized_time: 1.1,
            }],
        };
        let scores = fig17_rcoal_score(&comparison).unwrap();
        assert_eq!(scores.len(), 1);
        // S = 1/0.25 = 4; security-oriented = 4 / 1.1.
        assert!((scores[0].security_oriented - 4.0 / 1.1).abs() < 1e-9);
        assert!(scores[0].performance_oriented < scores[0].security_oriented);
    }

    #[test]
    fn workload_matrix_audits_every_cell() {
        let rows = workload_matrix_with(
            &SweepRunner::new(),
            &["aes", "present80", "gather"],
            vec![CoalescingPolicy::Baseline, CoalescingPolicy::Disabled],
            96,
            17,
        )
        .unwrap();
        assert_eq!(rows.len(), 6);
        // Workloads expand outermost, policies within.
        assert_eq!(rows[0].workload, "aes");
        assert_eq!(rows[2].workload, "present80");
        assert_eq!(rows[4].workload, "gather");
        for pair in rows.chunks(2) {
            // Ciphers leak under stock coalescing; the key-independent
            // gather control must stay clean even there.
            let expect_baseline_leak = pair[0].workload != "gather";
            assert_eq!(
                pair[0].leaky, expect_baseline_leak,
                "{} under Baseline",
                pair[0].workload
            );
            assert!(
                !pair[1].leaky,
                "{} must not leak with coalescing disabled",
                pair[1].workload
            );
        }
        // Only the gather control opts out of the theory cross-check.
        for row in &rows {
            assert_eq!(row.theory_ok.is_none(), row.workload == "gather");
        }
    }

    #[test]
    fn streaming_sample_cost_recovers_the_leaky_baseline() {
        let policies = vec![
            ("Baseline".to_string(), CoalescingPolicy::Baseline),
            ("RSS+RTS".to_string(), CoalescingPolicy::rss_rts(8).unwrap()),
        ];
        let points = sample_cost_streaming(&policies, &[60, 160], 7).unwrap();
        assert_eq!(points.len(), 4, "policies expand outermost, budgets within");
        assert_eq!(points[0].mechanism, "Baseline");
        assert_eq!(points[2].mechanism, "RSS+RTS");
        for p in &points {
            assert!(p.samples_used <= p.budget);
            assert!(p.checkpoints >= 1);
            assert_eq!(p.terminated_early, p.samples_used < p.budget);
        }
        // The deterministic baseline on the exact access channel is
        // Table II's S=1 row: the true byte wins outright and the
        // online attacker notices well before the budget.
        let base = &points[1];
        assert_eq!(base.rank_of_true, 0);
        assert!(base.corr_true > 0.9, "corr {}", base.corr_true);
        assert!(base.terminated_early, "used {}", base.samples_used);
        // Randomized subwarps need more than this budget (Table II:
        // S grows ~49x at m=8), so the stream must run to exhaustion.
        let defended = &points[3];
        assert!(!defended.terminated_early);
    }

    #[test]
    fn shared_runner_reuses_common_configurations() {
        // fig05 and fig06 both need the baseline timing run at (n, seed);
        // through one runner it simulates exactly once.
        let runner = SweepRunner::new();
        fig05_last_vs_total_with(&runner, 6, 11).unwrap();
        fig06_coalescing_onoff_with(&runner, 6, 11).unwrap();
        let report = runner.report();
        assert_eq!(report.served, 3);
        assert_eq!(report.launched, 2, "the baseline run must be shared");
        assert_eq!(report.hits(), 1);
    }
}

// ------------------------------------------------ Extension: selective

/// One row of the selective-randomization ablation (the paper's §VII
/// future-work design, implemented here).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectiveRow {
    /// Configuration label.
    pub config: String,
    /// Average correct-guess correlation under the corresponding attack
    /// (last-round access counts as the timing source — the cleanest
    /// channel, so this is a *conservative* security estimate).
    pub avg_correct_corr: f64,
    /// Execution time normalized to the baseline.
    pub normalized_time: f64,
    /// Mean total coalesced accesses per plaintext.
    pub mean_total_accesses: f64,
}

/// Ablation: protecting only the last-round loads (selective) retains the
/// uniform defense's last-round security at a fraction of its
/// performance cost.
///
/// # Errors
///
/// Propagates policy construction, simulation, and attack failures.
pub fn ablation_selective_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    timing_plaintexts: usize,
    m: usize,
    seed: u64,
) -> Result<Vec<SelectiveRow>, ExperimentError> {
    let vulnerable = CoalescingPolicy::rss_rts(m)?;
    let configs: Vec<(String, bool, CoalescingPolicy)> = vec![
        (
            "baseline (no defense)".into(),
            false,
            CoalescingPolicy::Baseline,
        ),
        (format!("uniform RSS+RTS(M={m})"), false, vulnerable),
        (
            format!("selective RSS+RTS(M={m}) on last round only"),
            true,
            vulnerable,
        ),
    ];
    let mk = |selective: bool, policy, n| {
        let s = if selective {
            Scenario::selective(policy, n, 32)
        } else {
            Scenario::new(policy, n, 32)
        };
        s.with_seed(seed)
    };
    // The baseline timing scenario doubles as the normalization run —
    // the cache makes the old duplicate simulation free.
    let mut scenarios = vec![timed(
        CoalescingPolicy::Baseline,
        timing_plaintexts,
        32,
        seed,
    )];
    for &(_, selective, policy) in &configs {
        scenarios.push(mk(selective, policy, num_plaintexts).functional_only());
        scenarios.push(mk(selective, policy, timing_plaintexts));
    }
    let results = runner.run_sweep(&SweepSpec::list(scenarios))?;
    let base_time = results
        .first()
        .ok_or_else(|| ExperimentError::MissingData("empty selective sweep".into()))?
        .mean_total_cycles()?;
    let jobs: Vec<(&String, &ExperimentData, &ExperimentData)> = configs
        .iter()
        .enumerate()
        .map(|(i, (label, _, _))| (label, &results[1 + 2 * i], &results[2 + 2 * i]))
        .collect();
    try_parallel_map(resolve_threads(None), &jobs, |_, &(label, sec, time)| {
        // The attacker knows the deployed (possibly selective) policy;
        // for the last round the effective policy is `sec.policy`.
        let attack = Attack::against(sec.policy, 32).with_seed(seed ^ 0xa77ac);
        let avg = avg_correct_correlation(sec, attack, TimingSource::LastRoundAccesses)?;
        Ok(SelectiveRow {
            config: label.clone(),
            avg_correct_corr: avg,
            normalized_time: time.mean_total_cycles()? / base_time,
            mean_total_accesses: sec.mean_total_accesses(),
        })
    })
}

// ----------------------------------------- Extension: noise sensitivity

/// One row of the measurement-noise sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseRow {
    /// Injected noise standard deviation, in units of the clean signal's
    /// standard deviation.
    pub sigma_over_signal: f64,
    /// Measured correlation of the correct guess.
    pub measured_corr: f64,
    /// Correlation predicted by the attenuation law
    /// `rho' = rho · sqrt(v/(v+sigma^2))`.
    pub predicted_corr: f64,
    /// Eq. 4 sample estimate at the measured correlation.
    pub samples_needed: f64,
}

/// Sweeps Gaussian measurement noise over the baseline attack's byte-0
/// channel, validating the attenuation law the paper's Eq. 4 builds on
/// (and quantifying why the real-hardware attack of Jiang et al. needed
/// ~10^6 samples while the clean simulator needs ~10^2).
///
/// # Errors
///
/// Propagates simulation and attack failures.
pub fn ablation_noise_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    sigmas_rel: &[f64],
    seed: u64,
) -> Result<Vec<NoiseRow>, ExperimentError> {
    use rcoal_attack::{attenuated_correlation, samples_needed, GaussianNoise};

    let data = runner
        .run_one(&timed(CoalescingPolicy::Baseline, num_plaintexts, 32, seed).functional_only())?;
    let k10 = data.true_last_round_key();
    let clean = data.attack_samples(TimingSource::ByteAccesses(0))?;
    let times: Vec<f64> = clean.iter().map(|s| s.time).collect();
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64;
    let attack = Attack::baseline(32);
    let clean_corr = attack.recover_byte(&clean, 0)?.correlation_of(k10[0]);

    let mut rows = Vec::new();
    for &rel in sigmas_rel {
        let sigma = rel * var.sqrt();
        let noisy = GaussianNoise::new(sigma, seed ^ 0x4015e)?.applied(&clean);
        let measured = attack.recover_byte(&noisy, 0)?.correlation_of(k10[0]);
        let predicted = attenuated_correlation(clean_corr, var, sigma)?;
        rows.push(NoiseRow {
            sigma_over_signal: rel,
            measured_corr: measured,
            predicted_corr: predicted,
            samples_needed: if measured.abs() < 1e-9 {
                f64::INFINITY
            } else if measured.abs() >= 1.0 {
                3.0 // Eq. 4's floor: a perfect correlation needs ~no samples
            } else {
                samples_needed(measured.abs(), 0.99)?
            },
        });
    }
    Ok(rows)
}

// ------------------------------ Extension: standalone-RSS rho (Table II)

/// Monte-Carlo estimate of the attacker correlation ρ(U, Û) for a
/// randomized policy under uniformly random block accesses — the
/// quantity Table II tabulates analytically for FSS+RTS and RSS+RTS. The
/// paper skips standalone RSS because its cross-moment needs the full
/// mapping enumeration; this estimator fills that column empirically.
///
/// # Errors
///
/// [`ExperimentError::Policy`] when the policy cannot produce a
/// 32-thread assignment.
pub fn rho_monte_carlo(
    policy: CoalescingPolicy,
    trials: usize,
    seed: u64,
) -> Result<f64, ExperimentError> {
    use rcoal_rng::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let coalescer = rcoal_core::Coalescer::new();
    let mut u = Vec::with_capacity(trials);
    let mut u_hat = Vec::with_capacity(trials);
    for _ in 0..trials {
        let addrs: Vec<Option<u64>> = (0..32)
            .map(|_| Some(rng.gen_range(0u64..16) * 64))
            .collect();
        let defense = policy.assignment(32, &mut rng)?;
        let attacker = policy.assignment(32, &mut rng)?;
        u.push(coalescer.count_accesses(&defense, &addrs) as f64);
        u_hat.push(coalescer.count_accesses(&attacker, &addrs) as f64);
    }
    Ok(pearson(&u, &u_hat))
}

// ------------------------------------- Extension: empirical sample cost

/// One row of the empirical samples-to-recovery sweep, the measured
/// counterpart of Table II's normalized `S`.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplesNeededRow {
    /// Mechanism name.
    pub mechanism: String,
    /// Number of subwarps.
    pub m: usize,
    /// Smallest sample count (from the probed grid) at which the correct
    /// byte-0 guess wins and keeps winning; `None` if it never does
    /// within the budget.
    pub samples_to_recover: Option<usize>,
    /// Correlation of the correct guess at the full sample budget.
    pub corr_at_budget: f64,
}

/// Measures how many samples the corresponding attack needs to pin key
/// byte 0, per mechanism — the empirical counterpart of Eq. 4 / Table II.
/// Uses the per-byte access channel so the measurement is exact rather
/// than scheduler-noise-limited.
///
/// # Errors
///
/// Propagates simulation and attack failures;
/// [`ExperimentError::MissingData`] if the probe grid comes out empty.
pub fn ablation_samples_needed_with(
    runner: &SweepRunner,
    policies: &[(String, CoalescingPolicy)],
    max_samples: usize,
    seed: u64,
) -> Result<Vec<SamplesNeededRow>, ExperimentError> {
    let scenarios: Vec<Scenario> = policies
        .iter()
        .map(|&(_, policy)| timed(policy, max_samples, 32, seed).functional_only())
        .collect();
    let results = runner.run_sweep(&SweepSpec::list(scenarios))?;
    let jobs: Vec<(&String, CoalescingPolicy, &ExperimentData)> = policies
        .iter()
        .zip(&results)
        .map(|((name, policy), data)| (name, *policy, data))
        .collect();
    try_parallel_map(resolve_threads(None), &jobs, |_, &(name, policy, data)| {
        let k10 = data.true_last_round_key();
        let samples = data.attack_samples(TimingSource::ByteAccesses(0))?;
        let attack = Attack::against(policy, 32)
            .with_seed(seed ^ 0x5eed)
            .with_threads(Some(1));

        // Probe a geometric grid of prefix sizes with the streaming
        // attack (each prediction is computed once); recovery must hold
        // from the probed size onward to count, which guards against
        // lucky argmax ties at tiny n.
        let mut grid = Vec::new();
        let mut n = 25;
        while n < max_samples {
            grid.push(n);
            n = n * 3 / 2;
        }
        grid.push(max_samples);
        let curve = rcoal_attack::recovery_curve(&attack, &samples, 0, &grid)?;
        let wins: Vec<bool> = curve
            .iter()
            .map(|(_, rec)| rec.rank_of(k10[0]) == 0)
            .collect();
        let samples_to_recover = (0..grid.len())
            .find(|&i| wins[i..].iter().all(|&w| w))
            .map(|i| grid[i]);
        let corr_at_budget = curve
            .last()
            .ok_or_else(|| ExperimentError::MissingData(format!("empty recovery grid for {name}")))?
            .1
            .correlation_of(k10[0]);
        Ok(SamplesNeededRow {
            mechanism: name.clone(),
            m: policy.num_subwarps(32),
            samples_to_recover,
            corr_at_budget,
        })
    })
}

// -------------------------- Extension: streaming sample cost at scale

/// One point of the streaming sample-cost sweep: a mechanism × budget
/// cell attacked online through a [`crate::SimulatorSource`].
#[derive(Debug, Clone, PartialEq)]
pub struct SampleCostPoint {
    /// Mechanism name.
    pub mechanism: String,
    /// Number of subwarps.
    pub m: usize,
    /// Sample budget offered to the streaming attacker.
    pub budget: usize,
    /// Samples actually consumed (equals `budget` when the early-stop
    /// rule never fired).
    pub samples_used: usize,
    /// Whether the attacker stopped before exhausting the budget.
    pub terminated_early: bool,
    /// Rank of the true byte-0 subkey at the end of the stream
    /// (0 = recovered).
    pub rank_of_true: usize,
    /// Correlation of the true guess at the end of the stream.
    pub corr_true: f64,
    /// Checkpoints recorded along the way — the length of the
    /// online-attacker trajectory.
    pub checkpoints: usize,
}

/// The Fig. 17 / Table II sample-cost territory at streaming scale: for
/// each mechanism × budget cell, samples are generated on the simulated
/// GPU *chunk by chunk* ([`crate::SimulatorSource`]) and fed to the
/// online corresponding attack ([`rcoal_attack::stream_recover_byte`])
/// with the default early-stop rule, so nothing is materialized and a
/// million-sample budget runs with peak heap independent of the budget.
/// Like [`ablation_samples_needed_with`], the sweep reads the exact per-byte
/// access channel (byte 0) so the measurement is not
/// scheduler-noise-limited; unlike it, the attacker itself decides when
/// the leader is stable and stops drawing samples.
///
/// # Errors
///
/// Propagates simulation, policy, and attack failures.
pub fn sample_cost_streaming(
    policies: &[(String, CoalescingPolicy)],
    budgets: &[usize],
    seed: u64,
) -> Result<Vec<SampleCostPoint>, ExperimentError> {
    let jobs: Vec<(&String, CoalescingPolicy, usize)> = policies
        .iter()
        .flat_map(|(name, policy)| budgets.iter().map(move |&b| (name, *policy, b)))
        .collect();
    try_parallel_map(
        resolve_threads(None),
        &jobs,
        |_, &(name, policy, budget)| {
            // Streams regenerate instead of hitting the run cache, so keep
            // each cell's inner simulation single-threaded and parallelize
            // across cells; the stream itself is thread-count-invariant.
            let cfg = crate::run::ExperimentConfig::new(policy, 0, 32)
                .with_seed(seed)
                .with_threads(1)
                .functional_only();
            let mut source = crate::SimulatorSource::new(cfg, TimingSource::ByteAccesses(0))?;
            let true_byte = source.attacked_subkey()[0];
            let attack = Attack::against(policy, 32).with_seed(seed ^ 0x5eed);
            let opts = rcoal_attack::StreamOptions::new(budget)
                .with_early_stop(rcoal_attack::EarlyStop::default());
            let rec = rcoal_attack::stream_recover_byte(&attack, &mut source, 0, &opts)?;
            Ok(SampleCostPoint {
                mechanism: name.clone(),
                m: policy.num_subwarps(32),
                budget,
                samples_used: rec.samples,
                terminated_early: rec.terminated_early,
                rank_of_true: rec.recovery.rank_of(true_byte),
                corr_true: rec.recovery.correlation_of(true_byte),
                checkpoints: rec.checkpoints.len(),
            })
        },
    )
}

// ---------------------------------------------- Extension: MSHR hazard

/// One row of the MSHR-interaction ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct MshrRow {
    /// Configuration label.
    pub config: String,
    /// Correlation of the correct byte-0 guess under the baseline attack.
    pub corr_correct: f64,
    /// Rank of the correct guess (0 = recovered).
    pub rank: usize,
    /// Mean execution cycles.
    pub mean_total_cycles: f64,
}

/// Shows why the paper disables MSHRs (§VII): with coalescing *disabled*,
/// MSHR merging collapses a warp's duplicate same-block requests back
/// into one memory transaction per distinct block — quietly rebuilding
/// the very channel that disabling coalescing was meant to close.
///
/// # Errors
///
/// Propagates simulation and attack failures.
pub fn ablation_mshr_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    seed: u64,
) -> Result<Vec<MshrRow>, ExperimentError> {
    let paper_mshr = rcoal_gpu_sim::GpuConfig::paper().mshr_entries;
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
    // Only deviations from the paper config become overrides, so the
    // paper-default rows share cache entries with the other figures.
    let scenarios: Vec<Scenario> = configs
        .iter()
        .map(|&(_, policy, mshr_entries)| {
            let mut s = timed(policy, num_plaintexts, 32, seed);
            if mshr_entries != paper_mshr {
                s = s.with_gpu(GpuOverrides {
                    mshr_entries: Some(mshr_entries),
                    ..GpuOverrides::default()
                });
            }
            s
        })
        .collect();
    let results = runner.run_sweep(&SweepSpec::list(scenarios))?;
    let jobs: Vec<(&'static str, &ExperimentData)> = configs
        .iter()
        .zip(&results)
        .map(|(&(label, _, _), data)| (label, data))
        .collect();
    try_parallel_map(resolve_threads(None), &jobs, |_, &(label, data)| {
        let k10 = data.true_last_round_key();
        let attack = Attack::baseline(32).with_threads(Some(1));
        let rec = attack.recover_byte(&data.attack_samples(TimingSource::LastRoundCycles)?, 0)?;
        Ok(MshrRow {
            config: label.into(),
            corr_correct: rec.correlation_of(k10[0]),
            rank: rec.rank_of(k10[0]),
            mean_total_cycles: data.mean_total_cycles()?,
        })
    })
}

// ------------------------------------------------ Extension: L1 hazard

/// One row of the L1-cache ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct L1Row {
    /// Configuration label.
    pub config: String,
    /// Correlation of the correct byte-0 guess under the baseline attack.
    pub corr_correct: f64,
    /// Rank of the correct guess (0 = recovered).
    pub rank: usize,
    /// L1 hits per plaintext (0 with the cache disabled).
    pub l1_hits_per_plaintext: f64,
    /// Mean execution cycles.
    pub mean_total_cycles: f64,
}

/// The other §VII lever: with an L1 that caches global loads, the 1 KiB
/// T4 table becomes resident, the coalescing channel disappears — and a
/// *cache-miss* channel appears in its place, with inverted sign
/// (concentrated compulsory misses overlap in the memory system, spread
/// misses each pay full latency). The stock argmax attacker fails, but
/// the leak has moved, not vanished: randomization is needed at every
/// level of the hierarchy (§VII).
///
/// # Errors
///
/// Propagates simulation and attack failures.
pub fn ablation_l1_with(
    runner: &SweepRunner,
    num_plaintexts: usize,
    seed: u64,
) -> Result<Vec<L1Row>, ExperimentError> {
    let paper_l1 = rcoal_gpu_sim::GpuConfig::paper().l1_sets;
    let configs = [("no L1 (globals bypass)", 0usize), ("16-set, 4-way L1", 16)];
    let scenarios: Vec<Scenario> = configs
        .iter()
        .map(|&(_, l1_sets)| {
            let mut s = timed(CoalescingPolicy::Baseline, num_plaintexts, 32, seed);
            if l1_sets != paper_l1 {
                s = s.with_gpu(GpuOverrides {
                    l1_sets: Some(l1_sets),
                    ..GpuOverrides::default()
                });
            }
            s
        })
        .collect();
    let results = runner.run_sweep(&SweepSpec::list(scenarios.clone()))?;
    let jobs: Vec<(&'static str, &Scenario, &ExperimentData)> = configs
        .iter()
        .zip(&scenarios)
        .zip(&results)
        .map(|((&(label, _), scenario), data)| (label, scenario, data))
        .collect();
    try_parallel_map(
        resolve_threads(None),
        &jobs,
        |_, &(label, scenario, data)| {
            let k10 = data.true_last_round_key();
            let attack = Attack::baseline(32).with_threads(Some(1));
            let rec =
                attack.recover_byte(&data.attack_samples(TimingSource::LastRoundCycles)?, 0)?;
            // Count hits via one representative launch.
            let kernel = rcoal_aes::TableKernel::aes(
                &data.key,
                &crate::random_plaintexts(1, 32, seed).remove(0),
                32,
            );
            let stats = rcoal_gpu_sim::GpuSimulator::new(scenario.gpu_config()).run(
                &kernel,
                CoalescingPolicy::Baseline,
                seed,
            )?;
            Ok(L1Row {
                config: label.into(),
                corr_correct: rec.correlation_of(k10[0]),
                rank: rec.rank_of(k10[0]),
                l1_hits_per_plaintext: stats.l1_hits as f64,
                mean_total_cycles: data.mean_total_cycles()?,
            })
        },
    )
}

// ----------------------------------- Extension: workload leakage matrix

/// One cell of the cross-workload leakage matrix: a `(workload, policy)`
/// pair audited on the per-byte access channel.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMatrixRow {
    /// Registered workload name.
    pub workload: String,
    /// Policy under audit.
    pub policy: CoalescingPolicy,
    /// Welch t of the primary channel.
    pub tvla_t: f64,
    /// Bias-corrected mutual information (bits) of the primary channel.
    pub mi_bits: f64,
    /// Signed correlation of the true subkey guess.
    pub empirical_rho: f64,
    /// Theory cross-check verdict (`None` when the workload opts out of
    /// the closed form, e.g. the gather control).
    pub theory_ok: Option<bool>,
    /// Headline audit verdict.
    pub leaky: bool,
}

/// Cross-workload leakage matrix: every registered (or requested)
/// workload under every requested policy, audited on the functional
/// per-byte access channel. Demonstrates that the coalescing channel —
/// and the RCoal defenses — are properties of *table-indexed loads*,
/// not of AES specifically.
///
/// AES rows hash identically to legacy (pre-registry) scenarios, so a
/// warm cache replays them for free.
///
/// # Errors
///
/// Propagates sweep expansion, simulation, and audit failures.
pub fn workload_matrix_with(
    runner: &SweepRunner,
    workloads: &[&str],
    policies: Vec<CoalescingPolicy>,
    num_plaintexts: usize,
    seed: u64,
) -> Result<Vec<WorkloadMatrixRow>, ExperimentError> {
    let base = Scenario::new(CoalescingPolicy::Baseline, num_plaintexts, 32)
        .with_seed(seed)
        .functional_only();
    let sweep = SweepSpec::grid(base)
        .with_workloads(workloads.iter().map(|w| (*w).to_string()).collect())
        .with_policies(policies);
    // Rows audit one after another: each audit already fans its 256
    // guesses out across the worker pool.
    runner
        .run_sweep(&sweep)?
        .iter()
        .map(|data| {
            let report = crate::audit_data(data, 32, &rcoal_audit::AuditSpec::new())?;
            Ok(WorkloadMatrixRow {
                workload: data.workload.clone(),
                policy: data.policy,
                tvla_t: report.timing.welch.t,
                mi_bits: report.timing.mi.corrected_bits,
                empirical_rho: report.empirical_rho,
                theory_ok: report.theory.map(|t| t.ok),
                leaky: report.leaky,
            })
        })
        .collect()
}
