//! Differential conformance for the streaming attack engine.
//!
//! Every correlation in the workspace comes from `rcoal-attack::stream`
//! (`Attack::recover_key` and `recovery_curve` are adapters over it),
//! so this section checks the engine against independent references on
//! paper-configuration AES samples:
//!
//! 1. **Engine vs oracle** — [`stream_recover_key`] over a chunked
//!    [`SliceSource`] must reproduce a straight-line oracle sweep byte
//!    for byte: every guess's `predictor_for_guess(m).predict_bytes`
//!    over the byte column, correlated against time by
//!    [`two_pass_pearson`] (means first, then centered sums). Each
//!    guess's correlation must agree within 1e-9 (Welford and two-pass
//!    differ only in summation order), and the argmax, the true
//!    subkey byte's rank, and the recovered key must match exactly.
//! 2. **Bit-identical accumulators** — the engine's guess-major state
//!    must equal, for all 256 guesses and bit for bit (six words of
//!    [`PearsonAccumulator::state_bits`]), the per-guess loop it
//!    replaced: guess `m`'s own `predictor_for_guess(m).predict_bytes`
//!    folded into one [`PearsonAccumulator`] by `push`. On the paper's
//!    AES samples this holds for every chunk size and thread count; over
//!    a corpus of random samples it holds for every policy of
//!    [`policy_pool`] × every oracle of the `attack predictor oracle`
//!    section (the five workloads plus the 256-block whitening oracle
//!    the row kernel leaves to per-guess predictors) × 32- and 36-line
//!    samples, pushed one sample per chunk on three worker threads.
//! 3. **Early-stop falsifiability** — the default stopping rule must
//!    terminate on the leaky baseline channel *with the same best
//!    guess the full stream produces*, must never terminate on an
//!    RSS+RTS-randomized stream at the same budget, and an inverted
//!    rule (one checkpoint, zero margin) must stop immediately on the
//!    randomized stream — proving the rule, not luck, is load-bearing.
//!
//! [`stream_recover_key`]: rcoal_attack::stream_recover_key
//! [`SliceSource`]: rcoal_attack::SliceSource
//! [`PearsonAccumulator`]: rcoal_attack::PearsonAccumulator

use crate::predictor::oracles;
use crate::report::SectionReport;
use crate::strategies::policy_pool;
use crate::ConformanceError;
use rcoal_attack::{
    stream_recover_byte, stream_recover_key, Attack, AttackSample, EarlyStop, PearsonAccumulator,
    SliceSource, StreamOptions, StreamingByteRecovery,
};
use rcoal_core::CoalescingPolicy;
use rcoal_experiments::{ExperimentConfig, TimingSource};
use rcoal_rng::{Rng, RngCore, SeedableRng, StdRng};
use std::sync::Arc;

/// Warp size of the paper's attacked AES kernel.
const WARP_SIZE: usize = 32;

/// Seed offset so the attack's mirrored-predictor RNG never aliases
/// the experiment RNG.
const ATTACK_SEED_XOR: u64 = 0x5eed;

/// Samples per corpus case of contract 2: two pushes of
/// [`CORPUS_CHUNK`], few enough to keep the debug-mode unit test short.
const CORPUS_SAMPLES: usize = 2;

/// Chunk size the corpus cases are pushed in (not the whole stream).
const CORPUS_CHUNK: usize = 1;

/// Worker threads the corpus engines fan their guess blocks over.
const CORPUS_THREADS: usize = 3;

/// Budget for the early-stop runs. The leaky baseline stabilizes well
/// before this on its exact per-byte channel; the randomized stream
/// must not.
const STOP_BUDGET: usize = 240;

/// Generates `n` paper-config AES attack samples under `policy` and
/// returns them with the true attacked subkey.
pub(crate) fn paper_samples(
    policy: CoalescingPolicy,
    n: usize,
    seed: u64,
    source: TimingSource,
) -> Result<(Vec<AttackSample>, [u8; 16]), ConformanceError> {
    let cfg = ExperimentConfig::new(policy, n, WARP_SIZE)
        .with_seed(seed)
        .with_threads(1)
        .functional_only();
    let data = cfg
        .run()
        .map_err(|e| ConformanceError::new(format!("streaming sample generation: {e}")))?;
    let samples = data
        .attack_samples(source)
        .map_err(|e| ConformanceError::new(format!("streaming sample packaging: {e}")))?;
    Ok((samples, data.attacked_subkey()))
}

/// Two-pass Pearson correlation: the means first, then the centered
/// sums. Degenerate inputs (mismatched lengths, fewer than two
/// elements, a zero-variance or non-finite series) read 0.0, and finite
/// results are clamped to `[-1, 1]` — the contract of
/// [`rcoal_attack::pearson`], computed independently of its Welford
/// accumulator.
pub fn two_pass_pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    if n != y.len() || n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mx = x.iter().sum::<f64>() / nf;
    let my = y.iter().sum::<f64>() / nf;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if !(vx > 0.0 && vy > 0.0 && vx.is_finite() && vy.is_finite()) {
        return 0.0;
    }
    let r = cov / (vx.sqrt() * vy.sqrt());
    if r.is_finite() {
        r.clamp(-1.0, 1.0)
    } else {
        0.0
    }
}

/// The straight-line oracle sweep for key byte `byte`: for each guess,
/// a fresh `attack.predictor_for_guess(m)` predicts every sample's byte
/// column in order, and [`two_pass_pearson`] correlates the predictions
/// with the sample times. Returns the 256 correlations.
pub(crate) fn oracle_correlations(
    attack: &Attack,
    samples: &[AttackSample],
    byte: usize,
) -> Vec<f64> {
    let times: Vec<f64> = samples.iter().map(|s| s.time).collect();
    let columns: Vec<Vec<u8>> = samples
        .iter()
        .map(|s| s.ciphertexts.iter().map(|ct| ct[byte]).collect())
        .collect();
    (0..=u8::MAX)
        .map(|m| {
            let mut predictor = attack.predictor_for_guess(m);
            let predicted: Vec<f64> = columns
                .iter()
                .map(|col| predictor.predict_bytes(col, m))
                .collect();
            two_pass_pearson(&predicted, &times)
        })
        .collect()
}

/// The first guess with the largest correlation.
pub(crate) fn oracle_argmax(correlations: &[f64]) -> u8 {
    let mut best = (0, f64::NEG_INFINITY);
    for (m, &r) in correlations.iter().enumerate() {
        if r > best.1 {
            best = (m, r);
        }
    }
    best.0 as u8
}

/// Rank of guess `m`: how many guesses correlate strictly better.
pub(crate) fn oracle_rank(correlations: &[f64], m: u8) -> usize {
    correlations.get(usize::from(m)).map_or(0, |&mine| {
        correlations.iter().filter(|&&r| r > mine).count()
    })
}

/// Contract 1: streamed key recovery matches the oracle sweep byte for
/// byte. Counts one case per subkey byte plus one for the key.
fn key_equivalence(
    report: &mut SectionReport,
    samples: &[AttackSample],
    subkey: [u8; 16],
    seed: u64,
) -> Result<(), ConformanceError> {
    let attack =
        Attack::against(CoalescingPolicy::Baseline, WARP_SIZE).with_seed(seed ^ ATTACK_SEED_XOR);
    // A deliberately awkward chunk size: not a divisor of the sample
    // count, so the last chunk is ragged.
    let opts = StreamOptions::new(samples.len()).with_chunk(17);
    let mut source = SliceSource::new(samples);
    let streamed = stream_recover_key(&attack, &mut source, &opts)
        .map_err(|e| ConformanceError::new(format!("streamed recover_key: {e}")))?;

    let mut oracle_key = [0u8; 16];
    for ((j, st), slot) in streamed
        .recovery
        .bytes
        .iter()
        .enumerate()
        .zip(&mut oracle_key)
    {
        report.cases += 1;
        let oracle = oracle_correlations(&attack, samples, j);
        *slot = oracle_argmax(&oracle);
        if st.best_guess != *slot {
            report.failures.push(format!(
                "byte {j}: streamed argmax {:#04x} != oracle {:#04x}",
                st.best_guess, *slot
            ));
        }
        let true_byte = subkey[j];
        let (or, sr) = (oracle_rank(&oracle, true_byte), st.rank_of(true_byte));
        if or != sr {
            report.failures.push(format!(
                "byte {j}: streamed rank of true byte {sr} != oracle {or}"
            ));
        }
        if let Some((m, (s, o))) = st
            .correlations
            .iter()
            .zip(&oracle)
            .enumerate()
            .find(|(_, (s, o))| (*s - *o).abs() > 1e-9)
        {
            report.failures.push(format!(
                "byte {j}, guess {m:#04x}: streamed r {s} vs two-pass oracle {o}"
            ));
        }
    }
    report.cases += 1;
    if streamed.recovery.recovered_key() != oracle_key {
        report
            .failures
            .push("streamed recovered_key differs from the oracle sweep".into());
    }
    Ok(())
}

/// The per-guess loop the guess-major engine replaced: guess `m`'s own
/// `attack.predictor_for_guess(m)` predicts every sample's byte column
/// in order under guess `guess_of(m)`, and one [`PearsonAccumulator`]
/// folds the predictions in with `push`. Returns the 256 states.
fn per_guess_states(
    attack: &Attack,
    samples: &[AttackSample],
    byte: usize,
    guess_of: impl Fn(u8) -> u8,
) -> Vec<[u64; 6]> {
    let columns: Vec<Vec<u8>> = samples
        .iter()
        .map(|s| s.ciphertexts.iter().map(|ct| ct[byte]).collect())
        .collect();
    (0..=u8::MAX)
        .map(|m| {
            let mut predictor = attack.predictor_for_guess(m);
            let mut acc = PearsonAccumulator::new();
            for (column, sample) in columns.iter().zip(samples) {
                acc.push(predictor.predict_bytes(column, guess_of(m)), sample.time);
            }
            acc.state_bits()
        })
        .collect()
}

/// Pushes `samples` through a fresh engine in `chunk`-sized pieces and
/// names the first guess whose state differs from `reference`.
fn engine_divergence(
    attack: &Attack,
    samples: &[AttackSample],
    byte: usize,
    chunk: usize,
    reference: &[[u64; 6]],
) -> Result<Option<u8>, ConformanceError> {
    let mut engine = StreamingByteRecovery::new(attack, byte)
        .map_err(|e| ConformanceError::new(format!("streaming engine: {e}")))?;
    for piece in samples.chunks(chunk.max(1)) {
        engine.push_chunk(piece);
    }
    Ok((0..=u8::MAX)
        .find(|&m| Some(&engine.accumulator(m).state_bits()) != reference.get(usize::from(m))))
}

/// Contract 2a: on the paper's AES samples the engine equals the
/// per-guess reference at every chunk size and thread count. One case
/// per (chunk, threads) combo.
fn accumulator_bit_identity(
    report: &mut SectionReport,
    samples: &[AttackSample],
    seed: u64,
) -> Result<(), ConformanceError> {
    let attack =
        Attack::against(CoalescingPolicy::Baseline, WARP_SIZE).with_seed(seed ^ ATTACK_SEED_XOR);
    let reference = per_guess_states(&attack, samples, 0, |m| m);
    for &threads in &[1usize, 3] {
        for &chunk in &[1usize, 7, 64, samples.len()] {
            report.cases += 1;
            let attack = attack.clone().with_threads(Some(threads));
            if let Some(m) = engine_divergence(&attack, samples, 0, chunk, &reference)? {
                report.failures.push(format!(
                    "chunk {chunk} x threads {threads}: guess {m:#04x} accumulator \
                     state diverged from the per-guess reference"
                ));
            }
        }
    }
    Ok(())
}

/// `n` samples of `lines` random ciphertext lines and random times.
fn random_samples(rng: &mut StdRng, n: usize, lines: usize) -> Vec<AttackSample> {
    (0..n)
        .map(|_| {
            let ciphertexts = (0..lines)
                .map(|_| {
                    let mut line = [0u8; 16];
                    rng.fill(&mut line);
                    line
                })
                .collect();
            AttackSample {
                ciphertexts: Arc::new(ciphertexts),
                time: rng.gen_range(0.0..64.0),
            }
        })
        .collect()
}

/// Contract 2b: the engine equals the per-guess reference for every
/// pool policy × oracle × line count. One case per combination.
fn guess_major_corpus(report: &mut SectionReport, seed: u64) -> Result<(), ConformanceError> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e55);
    for (name, oracle) in oracles() {
        for policy in policy_pool() {
            for lines in [32, 36] {
                report.cases += 1;
                let byte = rng.next_u64() as usize % oracle.key_bytes();
                let samples = random_samples(&mut rng, CORPUS_SAMPLES, lines);
                let attack = Attack::against(policy, WARP_SIZE)
                    .with_oracle(Arc::clone(&oracle))
                    .with_seed(rng.next_u64())
                    .with_threads(Some(CORPUS_THREADS));
                let reference = per_guess_states(&attack, &samples, byte, |m| m);
                if let Some(m) =
                    engine_divergence(&attack, &samples, byte, CORPUS_CHUNK, &reference)?
                {
                    report.failures.push(format!(
                        "{policy} x {name}, {lines} lines, byte {byte}: guess {m:#04x} \
                         accumulator state diverged from the per-guess reference"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Contract 3: the stopping rule is falsifiable in both directions.
fn early_stop_falsifiability(
    report: &mut SectionReport,
    seed: u64,
) -> Result<(), ConformanceError> {
    // Leaky: the baseline's exact per-byte access channel.
    let (leaky, subkey) = paper_samples(
        CoalescingPolicy::Baseline,
        STOP_BUDGET,
        seed ^ 0x1eaf,
        TimingSource::ByteAccesses(0),
    )?;
    let attack =
        Attack::against(CoalescingPolicy::Baseline, WARP_SIZE).with_seed(seed ^ ATTACK_SEED_XOR);

    let stopped = StreamOptions::new(STOP_BUDGET).with_early_stop(EarlyStop::default());
    let full = StreamOptions::new(STOP_BUDGET);
    let terminated = stream_recover_byte(&attack, &mut SliceSource::new(&leaky), 0, &stopped)
        .map_err(|e| ConformanceError::new(format!("leaky early-stop run: {e}")))?;
    let exhaustive = stream_recover_byte(&attack, &mut SliceSource::new(&leaky), 0, &full)
        .map_err(|e| ConformanceError::new(format!("leaky full-stream run: {e}")))?;

    report.cases += 1;
    if !terminated.terminated_early {
        report.failures.push(format!(
            "leaky baseline channel did not terminate within {STOP_BUDGET} samples"
        ));
    }
    report.cases += 1;
    if terminated.recovery.best_guess != exhaustive.recovery.best_guess {
        report.failures.push(format!(
            "terminated best guess {:#04x} != full-stream best guess {:#04x}",
            terminated.recovery.best_guess, exhaustive.recovery.best_guess
        ));
    }
    report.cases += 1;
    if terminated.recovery.best_guess != subkey[0] {
        report.failures.push(format!(
            "leaky terminated recovery missed the true byte {:#04x}",
            subkey[0]
        ));
    }

    // Secure: RSS+RTS randomizes the same channel; the default rule
    // must never report a confidently stable (and thus wrong) leader.
    let rss_rts = CoalescingPolicy::rss_rts(8)
        .map_err(|e| ConformanceError::new(format!("rss_rts policy: {e}")))?;
    let (secure, _) = paper_samples(
        rss_rts,
        STOP_BUDGET,
        seed ^ 0x5afe,
        TimingSource::ByteAccesses(0),
    )?;
    let defended = Attack::against(rss_rts, WARP_SIZE).with_seed(seed ^ ATTACK_SEED_XOR);
    let held = stream_recover_byte(&defended, &mut SliceSource::new(&secure), 0, &stopped)
        .map_err(|e| ConformanceError::new(format!("secure early-stop run: {e}")))?;
    report.cases += 1;
    if held.terminated_early {
        report.failures.push(format!(
            "RSS+RTS stream terminated early at {} samples with leader {:#04x}",
            held.samples, held.recovery.best_guess
        ));
    }

    // Inverted rule: one checkpoint, zero margin. If this did NOT stop
    // on the randomized stream, the stopping predicate would be inert
    // and the two checks above would be vacuous.
    let inverted = StreamOptions::new(STOP_BUDGET).with_early_stop(EarlyStop {
        stable_checkpoints: 1,
        margin_k: 0.0,
    });
    let trigger = stream_recover_byte(&defended, &mut SliceSource::new(&secure), 0, &inverted)
        .map_err(|e| ConformanceError::new(format!("inverted-rule run: {e}")))?;
    report.cases += 1;
    if !trigger.terminated_early {
        report
            .failures
            .push("inverted stopping rule (1 checkpoint, zero margin) failed to stop".into());
    }
    report.cases += 1;
    if trigger.samples >= held.samples {
        report.failures.push(format!(
            "inverted rule consumed {} samples, not fewer than the default rule's {}",
            trigger.samples, held.samples
        ));
    }
    Ok(())
}

/// Runs the streaming-attack conformance section.
///
/// `cases` scales the sample budget of the engine-equivalence corpus;
/// the early-stop budget is fixed at `STOP_BUDGET`.
///
/// # Errors
///
/// [`ConformanceError`] when sample generation or the attack engines
/// fail outright (conformance *violations* are collected in the
/// report, not returned as errors).
pub fn section(seed: u64, cases: usize) -> Result<SectionReport, ConformanceError> {
    let mut report = SectionReport::new("streaming attack");
    let n = cases.clamp(48, 256);
    let (samples, subkey) = paper_samples(
        CoalescingPolicy::Baseline,
        n,
        seed,
        TimingSource::LastRoundAccesses,
    )?;
    key_equivalence(&mut report, &samples, subkey, seed)?;
    accumulator_bit_identity(&mut report, &samples, seed)?;
    guess_major_corpus(&mut report, seed)?;
    early_stop_falsifiability(&mut report, seed)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cases of the guess-major corpus: oracle × policy × 2 line
    /// counts.
    fn corpus_cases() -> usize {
        oracles().len() * policy_pool().len() * 2
    }

    #[test]
    fn streaming_section_passes_clean() {
        let report = section(0xc0f0_24a1, 64).expect("section runs");
        assert!(
            report.passed(),
            "streaming conformance violations: {:?}",
            report.failures
        );
        // 16 bytes + key + 8 combos + the corpus + 6 early-stop checks.
        assert_eq!(report.cases, 16 + 1 + 8 + corpus_cases() + 6);
    }

    #[test]
    fn a_reference_fed_a_neighbouring_guess_is_flagged() {
        // The check has teeth: one lane of the reference predicting
        // under guess m ^ 1 disagrees with the engine on that lane only.
        let mut rng = StdRng::seed_from_u64(11);
        let samples = random_samples(&mut rng, 6, 32);
        let attack = Attack::baseline(WARP_SIZE).with_threads(Some(CORPUS_THREADS));
        let honest = per_guess_states(&attack, &samples, 0, |m| m);
        let tampered =
            per_guess_states(&attack, &samples, 0, |m| if m == 0x42 { m ^ 1 } else { m });
        assert_eq!(
            engine_divergence(&attack, &samples, 0, CORPUS_CHUNK, &honest).unwrap(),
            None
        );
        assert_eq!(
            engine_divergence(&attack, &samples, 0, CORPUS_CHUNK, &tampered).unwrap(),
            Some(0x42)
        );
    }

    // ---- The Welford accumulator against the two-pass oracle ----

    /// The raw-sum correlation `(Σxy − ΣxΣy/n) / …` with an absolute
    /// variance guard — the cancellation strawman.
    fn raw_sum_pearson(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len() as f64;
        if xs.len() < 2 {
            return 0.0;
        }
        let (mut sx, mut sx2, mut sy, mut sy2, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for (&x, &y) in xs.iter().zip(ys) {
            sx += x;
            sx2 += x * x;
            sy += y;
            sy2 += y * y;
            sxy += x * y;
        }
        let cov = sxy - sx * sy / n;
        let vx = sx2 - sx * sx / n;
        let vy = sy2 - sy * sy / n;
        if vx <= 1e-12 || vy <= 1e-12 {
            return 0.0;
        }
        cov / (vx * vy).sqrt()
    }

    fn accumulate(xs: &[f64], ys: &[f64]) -> PearsonAccumulator {
        let mut acc = PearsonAccumulator::new();
        for (&x, &y) in xs.iter().zip(ys) {
            acc.push(x, y);
        }
        acc
    }

    #[test]
    fn streaming_pearson_matches_two_pass_on_seeded_corpora() {
        let mut rng = StdRng::seed_from_u64(0x57_3a41);
        for case in 0..50 {
            let n = 2 + (case * 37) % 400;
            let scale = 10f64.powi((case % 7) - 3);
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0) * scale).collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|x| 0.4 * x + rng.gen_range(0.0..1.0) * scale)
                .collect();
            let acc = accumulate(&xs, &ys);
            let two_pass = two_pass_pearson(&xs, &ys);
            assert!(
                (acc.correlation() - two_pass).abs() < 1e-9,
                "case {case}: streaming {} vs two-pass {two_pass}",
                acc.correlation()
            );
            assert_eq!(
                rcoal_attack::pearson(&xs, &ys).to_bits(),
                acc.correlation().to_bits(),
                "pearson is the accumulator fold"
            );
        }
    }

    #[test]
    fn degenerate_streams_report_zero_like_pearson() {
        // n < 2.
        assert_eq!(PearsonAccumulator::new().correlation(), 0.0);
        assert_eq!(accumulate(&[1.0], &[2.0]).correlation(), 0.0);
        assert_eq!(two_pass_pearson(&[1.0], &[2.0]), 0.0);
        // Constant x.
        let ys: Vec<f64> = (0..20).map(f64::from).collect();
        let xs = vec![5.0; 20];
        assert_eq!(accumulate(&xs, &ys).correlation(), 0.0);
        assert_eq!(two_pass_pearson(&xs, &ys), 0.0);
        // Constant y.
        assert_eq!(accumulate(&ys, &xs).correlation(), 0.0);
        // Non-finite contamination.
        let bad = [1.0, f64::NAN, 3.0];
        let good = [1.0, 2.0, 3.0];
        assert_eq!(accumulate(&bad, &good).correlation(), 0.0);
        assert_eq!(accumulate(&good, &bad).correlation(), 0.0);
        assert_eq!(two_pass_pearson(&bad, &good), 0.0);
        let inf = [1.0, f64::INFINITY, 3.0];
        assert_eq!(accumulate(&inf, &good).correlation(), 0.0);
        // Mismatched lengths.
        assert_eq!(two_pass_pearson(&good, &good[..2]), 0.0);
        // Clamped to [-1, 1].
        let x: Vec<f64> = (0..50).map(|i| f64::from(i) * 1e-9 + 1e9).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        let r = accumulate(&x, &y).correlation();
        assert!((-1.0..=1.0).contains(&r), "r = {r}");
    }

    #[test]
    fn adversarial_magnitudes_break_raw_sums_but_not_welford() {
        let mut rng = StdRng::seed_from_u64(0xbad_cafe);
        let n = 4000;
        let small: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let ys: Vec<f64> = small
            .iter()
            .map(|s| 0.8 * s + 0.2 * rng.gen_range(0.0..1.0))
            .collect();

        // (a) Large mean: x = 1e4 + s. Σx² ≈ n·1e8 quantizes away the
        // O(1) variance bits, so the raw-sum subtraction loses orders of
        // magnitude of precision; the centered recurrences never form
        // the large intermediates.
        let xs: Vec<f64> = small.iter().map(|s| 1e4 + s).collect();
        let two_pass = two_pass_pearson(&xs, &ys);
        assert!(two_pass > 0.9, "the channel is strongly correlated");
        let welford_dev = (accumulate(&xs, &ys).correlation() - two_pass).abs();
        let raw_dev = (raw_sum_pearson(&xs, &ys) - two_pass).abs();
        assert!(welford_dev < 1e-9, "welford deviates {welford_dev}");
        assert!(
            raw_dev > 1e-9 && raw_dev > 100.0 * welford_dev.max(1e-16),
            "raw sums must lose precision here: raw_dev {raw_dev}, welford_dev {welford_dev}"
        );

        // (b) Tiny variance under a dominating mean: the same correlated
        // channel attenuated to amplitude 1e-8 on a 1e-3 pedestal. The
        // true correlation is unchanged, but the raw path's absolute
        // 1e-12 variance guard zeroes the channel entirely.
        let xs: Vec<f64> = small.iter().map(|s| 1e-3 + s * 1e-8).collect();
        let two_pass = two_pass_pearson(&xs, &ys);
        assert!(
            two_pass > 0.9,
            "attenuation does not change the correlation"
        );
        let welford = accumulate(&xs, &ys).correlation();
        assert!(
            (welford - two_pass).abs() < 1e-9,
            "welford {welford} vs two-pass {two_pass}"
        );
        assert_eq!(
            raw_sum_pearson(&xs, &ys),
            0.0,
            "the raw path's absolute variance guard swallows the channel"
        );
    }

    #[test]
    fn oracle_argmax_and_rank_follow_the_first_maximum() {
        let r = [1.0, 5.0, 5.0, 2.0];
        assert_eq!(oracle_argmax(&r), 1);
        assert_eq!(oracle_argmax(&[-3.0, -1.0, -2.0]), 1);
        assert_eq!(oracle_rank(&r, 2), 0, "ties don't worsen rank");
        assert_eq!(oracle_rank(&r, 0), 3);
    }
}
