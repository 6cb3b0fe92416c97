//! Differential conformance for the leakage audit's estimators.
//!
//! `rcoal-audit` computes every verdict from a [`StreamingChannelTest`]
//! count ledger: the lower median of the grouped predictions, class
//! moments weighted by pair multiplicity, and histograms binned once per
//! distinct value. This section pins that arithmetic to slice
//! estimators written from the textbook formulas — sort the predictions
//! for the median, split the samples, two-pass moments per class, bin
//! every sample:
//!
//! * On seeded discrete streams, MI must match bit for bit (the same
//!   histograms folded in the same cell order), the class sizes
//!   `n_low`/`n_high` exactly, and Welch t within 1e-9 (the class
//!   moments are summed in a different order). The corpus includes a
//!   saturated median (the ties-go-high fallback), a constant channel,
//!   and a one-member class.
//! * Per policy, one full report from [`audit_target_with_stages`] with
//!   two stage channels is diffed against a slice-oracle report: every
//!   channel test as above, and every trajectory point against the
//!   two-pass oracle sweep of the streaming section.

use crate::report::SectionReport;
use crate::streaming::{oracle_correlations, oracle_rank, paper_samples};
use crate::ConformanceError;
use rcoal_attack::{even_checkpoints, Attack, AttackSample};
use rcoal_audit::{
    audit_target_with_stages, AuditSpec, AuditTarget, ChannelTest, LeakageReport, MiEstimate,
    StageChannel, StreamingChannelTest, WelchT, T_CLAMP,
};
use rcoal_core::CoalescingPolicy;
use rcoal_experiments::TimingSource;
use rcoal_rng::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

/// Warp size of the paper's attacked AES kernel.
const WARP_SIZE: usize = 32;

/// Samples per full-report diff.
const REPORT_SAMPLES: usize = 160;

/// Mean and unbiased sample variance, two passes.
fn moments(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, 0.0);
    }
    let ss = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>();
    (mean, ss / (n - 1) as f64)
}

/// Welch's two-sample t-test (unequal variances, unequal sizes) over
/// two slices, `mean_high - mean_low` over the pooled standard error.
///
/// A class with fewer than two observations yields `t = 0`, and two
/// zero-variance classes with distinct means clamp to [`T_CLAMP`].
pub fn welch_t_test(low: &[f64], high: &[f64]) -> WelchT {
    let (n_low, n_high) = (low.len(), high.len());
    let (mean_low, var_low) = moments(low);
    let (mean_high, var_high) = moments(high);
    let mut out = WelchT {
        t: 0.0,
        dof: 0.0,
        n_low,
        n_high,
        mean_low,
        mean_high,
    };
    if n_low < 2 || n_high < 2 {
        return out;
    }
    let se_low = var_low / n_low as f64;
    let se_high = var_high / n_high as f64;
    let se2 = se_low + se_high;
    let diff = mean_high - mean_low;
    if se2 <= 0.0 {
        out.t = if diff == 0.0 {
            0.0
        } else {
            T_CLAMP * diff.signum()
        };
        return out;
    }
    out.t = (diff / se2.sqrt()).clamp(-T_CLAMP, T_CLAMP);
    let denom = se_low * se_low / (n_low - 1) as f64 + se_high * se_high / (n_high - 1) as f64;
    out.dof = if denom > 0.0 { se2 * se2 / denom } else { 0.0 };
    out
}

/// Equal-width bin index of `x` in `[min, max]` split into `bins` bins.
fn bin_of(x: f64, min: f64, max: f64, bins: usize) -> usize {
    if max <= min || bins <= 1 {
        return 0;
    }
    let f = (x - min) / (max - min);
    ((f * bins as f64) as usize).min(bins - 1)
}

fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// Binned mutual information between two paired slices, in bits, with
/// Miller–Madow bias correction.
///
/// Both axes are split into at most `max_bins` equal-width bins over
/// their observed ranges (a single-valued axis collapses to one bin);
/// `corrected_bits = max(0, bits - (occupied_joint - occupied_x -
/// occupied_y + 1) / (2 n ln 2))`.
pub fn binned_mi(xs: &[f64], ys: &[f64], max_bins: usize) -> MiEstimate {
    let n = xs.len().min(ys.len());
    let bins = max_bins.max(1);
    if n == 0 {
        return MiEstimate {
            bits: 0.0,
            bias_bits: 0.0,
            corrected_bits: 0.0,
            x_bins: 0,
            y_bins: 0,
            n,
        };
    }
    let (x_min, x_max) = min_max(&xs[..n]);
    let (y_min, y_max) = min_max(&ys[..n]);
    let x_bins = if x_max > x_min { bins } else { 1 };
    let y_bins = if y_max > y_min { bins } else { 1 };
    let mut joint = vec![0u64; x_bins * y_bins];
    let mut mx = vec![0u64; x_bins];
    let mut my = vec![0u64; y_bins];
    for (&x, &y) in xs[..n].iter().zip(&ys[..n]) {
        let bx = bin_of(x, x_min, x_max, x_bins);
        let by = bin_of(y, y_min, y_max, y_bins);
        joint[bx * y_bins + by] += 1;
        mx[bx] += 1;
        my[by] += 1;
    }
    let nf = n as f64;
    let mut bits = 0.0;
    let mut occupied_joint = 0usize;
    for bx in 0..x_bins {
        for by in 0..y_bins {
            let c = joint[bx * y_bins + by];
            if c == 0 {
                continue;
            }
            occupied_joint += 1;
            let p_xy = c as f64 / nf;
            let p_x = mx[bx] as f64 / nf;
            let p_y = my[by] as f64 / nf;
            bits += p_xy * (p_xy / (p_x * p_y)).log2();
        }
    }
    let occ_x = mx.iter().filter(|&&c| c > 0).count();
    let occ_y = my.iter().filter(|&&c| c > 0).count();
    let bias_bits = ((occupied_joint as f64 - occ_x as f64 - occ_y as f64 + 1.0)
        / (2.0 * nf * std::f64::consts::LN_2))
        .max(0.0);
    MiEstimate {
        bits: bits.max(0.0),
        bias_bits,
        corrected_bits: (bits - bias_bits).max(0.0),
        x_bins: occ_x,
        y_bins: occ_y,
        n,
    }
}

/// The TVLA "specific" partition of a prediction slice; `true` marks
/// the high class. Low `<=` lower median `<` high, except that when
/// fewer than two predictions sit strictly above the median (a
/// saturated median), ties go high.
pub(crate) fn median_split(predictions: &[f64]) -> Vec<bool> {
    let mut sorted = predictions.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(&median) = sorted.get(predictions.len().saturating_sub(1) / 2) else {
        return Vec::new();
    };
    let strict: Vec<bool> = predictions.iter().map(|&p| p > median).collect();
    if strict.iter().filter(|&&h| h).count() >= 2 {
        strict
    } else {
        predictions.iter().map(|&p| p >= median).collect()
    }
}

/// One channel's verdict from the slice estimators under the partition
/// `high`.
pub(crate) fn oracle_channel_test(
    name: &str,
    predictions: &[f64],
    values: &[f64],
    high: &[bool],
    spec: &AuditSpec,
) -> ChannelTest {
    let class = |want: bool| -> Vec<f64> {
        values
            .iter()
            .zip(high)
            .filter(|(_, &h)| h == want)
            .map(|(&v, _)| v)
            .collect()
    };
    let welch = welch_t_test(&class(false), &class(true));
    let mi = binned_mi(predictions, values, spec.mi_bins);
    let leaky = welch.exceeds(spec.t_threshold) && mi.corrected_bits > spec.mi_floor_bits;
    ChannelTest {
        name: name.to_string(),
        welch,
        mi,
        leaky,
    }
}

fn mi_bitwise_equal(a: &MiEstimate, b: &MiEstimate) -> bool {
    a.bits.to_bits() == b.bits.to_bits()
        && a.bias_bits.to_bits() == b.bias_bits.to_bits()
        && a.corrected_bits.to_bits() == b.corrected_bits.to_bits()
        && (a.x_bins, a.y_bins, a.n) == (b.x_bins, b.y_bins, b.n)
}

/// Differences between a channel test and its slice oracle.
fn channel_diffs(got: &ChannelTest, want: &ChannelTest) -> Vec<String> {
    let mut out = Vec::new();
    if !mi_bitwise_equal(&got.mi, &want.mi) {
        out.push(format!(
            "{}: MI {:?} != oracle {:?}",
            want.name, got.mi, want.mi
        ));
    }
    let (g, w) = (&got.welch, &want.welch);
    if (g.n_low, g.n_high) != (w.n_low, w.n_high) {
        out.push(format!(
            "{}: classes {}/{} != oracle {}/{}",
            want.name, g.n_low, g.n_high, w.n_low, w.n_high
        ));
    }
    if (g.t - w.t).abs() > 1e-9 {
        out.push(format!("{}: t {} vs oracle {}", want.name, g.t, w.t));
    }
    if got.leaky != want.leaky {
        out.push(format!(
            "{}: leaky {} != oracle {}",
            want.name, got.leaky, want.leaky
        ));
    }
    out
}

/// Diffs `got` — a report over `samples` with `stages` under `spec` —
/// against the slice-oracle report: each channel test (timing first,
/// then the stages in order) and each trajectory point. Returns
/// `(checks, violations)`.
pub(crate) fn report_diffs(
    got: &LeakageReport,
    target: &AuditTarget,
    samples: &[AttackSample],
    stages: &[StageChannel],
    spec: &AuditSpec,
) -> (usize, Vec<String>) {
    let attack = Attack::against(target.policy, target.warp_size)
        .with_seed(spec.attack_seed)
        .with_oracle(Arc::clone(&target.oracle));
    let mut predictor = attack.predictor_for_guess(target.true_key_byte);
    let predictions: Vec<f64> = samples
        .iter()
        .map(|s| predictor.predict(&s.ciphertexts, spec.byte, target.true_key_byte))
        .collect();
    let high = median_split(&predictions);
    let times: Vec<f64> = samples.iter().map(|s| s.time).collect();
    let mut checks = 0;
    let mut failures = Vec::new();

    let got_channels = std::iter::once(&got.timing).chain(&got.stages);
    let want_channels = std::iter::once(("timing", times.as_slice())).chain(
        stages
            .iter()
            .map(|s| (s.name.as_str(), s.values.as_slice())),
    );
    if got.stages.len() != stages.len() {
        failures.push(format!(
            "{} stage tests for {} stage channels",
            got.stages.len(),
            stages.len()
        ));
    }
    for (g, (name, values)) in got_channels.zip(want_channels) {
        checks += 1;
        let want = oracle_channel_test(name, &predictions, values, &high, spec);
        failures.extend(channel_diffs(g, &want));
    }

    let planned = even_checkpoints(samples.len(), spec.checkpoints);
    if got.trajectory.len() != planned.len() {
        failures.push(format!(
            "{} trajectory points for {} checkpoints",
            got.trajectory.len(),
            planned.len()
        ));
    }
    for (point, &n) in got.trajectory.iter().zip(&planned) {
        checks += 1;
        let corr = oracle_correlations(&attack, &samples[..n], spec.byte);
        let want_r = corr
            .get(usize::from(target.true_key_byte))
            .copied()
            .unwrap_or(0.0);
        let want_rank = oracle_rank(&corr, target.true_key_byte);
        if point.samples != n || (point.corr_true - want_r).abs() > 1e-9 || point.rank != want_rank
        {
            failures.push(format!(
                "trajectory at {n}: ({}, r {}, rank {}) vs oracle r {want_r}, rank {want_rank}",
                point.samples, point.corr_true, point.rank
            ));
        }
    }
    (checks, failures)
}

/// A seeded discrete stream of `(prediction, value)` pairs.
struct Stream {
    label: String,
    predictions: Vec<f64>,
    values: Vec<f64>,
}

/// The estimator corpus: random discrete streams (small integer
/// prediction grids with negatives and repeats, values a noisy linear
/// image), plus the edge cases the partition and estimators special-case.
fn corpus(seed: u64) -> Vec<Stream> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa0d1);
    let mut out = Vec::new();
    for k in 0..24usize {
        let n = 2 + rng.gen_range(0..400usize);
        let levels = 1 + k % 9;
        let slope = [0.0, 0.5, 2.0][k % 3];
        let predictions: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(0..levels) as f64 - 3.0)
            .collect();
        let values = predictions
            .iter()
            .map(|p| slope * p + rng.gen_range(0..5u32) as f64 * 0.5)
            .collect();
        out.push(Stream {
            label: format!("random {k} ({n} samples, {levels} levels)"),
            predictions,
            values,
        });
    }
    // Saturated median: most predictions at the maximum, so fewer than
    // two sit strictly above the median and ties go high.
    let predictions: Vec<f64> = (0..200)
        .map(|i| if i % 25 == 0 { 6.0 } else { 8.0 })
        .collect();
    let values = predictions
        .iter()
        .map(|p| p * 10.0 + rng.gen_range(0..3u32) as f64)
        .collect();
    out.push(Stream {
        label: "saturated median".into(),
        predictions,
        values,
    });
    // One-member class: a single prediction below the saturated maximum.
    let predictions: Vec<f64> = (0..60).map(|i| if i == 17 { 2.0 } else { 5.0 }).collect();
    let values = (0..60).map(|i| f64::from(i % 4)).collect();
    out.push(Stream {
        label: "one-member class".into(),
        predictions,
        values,
    });
    // Constant channel under a varying prediction.
    out.push(Stream {
        label: "constant channel".into(),
        predictions: (0..120).map(|i| f64::from(i % 6)).collect(),
        values: vec![42.0; 120],
    });
    // The smallest streams.
    out.push(Stream {
        label: "one sample".into(),
        predictions: vec![3.0],
        values: vec![1.0],
    });
    out.push(Stream {
        label: "two samples".into(),
        predictions: vec![1.0, 2.0],
        values: vec![5.0, 7.0],
    });
    out
}

/// The ledger's verdict on `stream` under `spec`.
fn ledger_test(stream: &Stream, spec: &AuditSpec) -> ChannelTest {
    let mut ledger = StreamingChannelTest::new(&stream.label);
    for (&p, &v) in stream.predictions.iter().zip(&stream.values) {
        ledger.push(p, v);
    }
    ledger.finish(spec)
}

/// The estimator diff over the corpus × three bin counts, plus the
/// full-report diff for a leaky and a defended policy.
///
/// # Errors
///
/// [`ConformanceError`] when sample generation or the audit fails
/// outright (violations are collected in the report).
pub fn section(seed: u64) -> Result<SectionReport, ConformanceError> {
    let mut report = SectionReport::new("audit estimator oracle");
    for stream in corpus(seed) {
        for bins in [2, 8, 16] {
            report.cases += 1;
            let spec = AuditSpec::new().with_mi_bins(bins);
            let high = median_split(&stream.predictions);
            let want = oracle_channel_test(
                &stream.label,
                &stream.predictions,
                &stream.values,
                &high,
                &spec,
            );
            for f in channel_diffs(&ledger_test(&stream, &spec), &want) {
                report.failures.push(format!("{bins} bins, {f}"));
            }
        }
    }

    let rss_rts = CoalescingPolicy::rss_rts(8)
        .map_err(|e| ConformanceError::new(format!("rss_rts policy: {e}")))?;
    for (policy, salt) in [(CoalescingPolicy::Baseline, 0xb45e), (rss_rts, 0x5afe)] {
        let (samples, subkey) = paper_samples(
            policy,
            REPORT_SAMPLES,
            seed ^ salt,
            TimingSource::ByteAccesses(0),
        )?;
        let spec = AuditSpec::new();
        let target = AuditTarget::aes(policy, WARP_SIZE, subkey[spec.byte]);
        let stages = [
            StageChannel {
                name: "mirror".into(),
                values: samples.iter().map(|s| 3.0 * s.time + 1.0).collect(),
            },
            StageChannel {
                name: "key-free".into(),
                values: (0..samples.len())
                    .map(|i| ((i as u64 * 7919) % 13) as f64)
                    .collect(),
            },
        ];
        let got = audit_target_with_stages(&target, &samples, &stages, &spec)
            .map_err(|e| ConformanceError::new(format!("{policy} audit: {e}")))?;
        let (checks, failures) = report_diffs(&got, &target, &samples, &stages, &spec);
        report.cases += checks;
        report.failures.extend(
            failures
                .into_iter()
                .map(|f| format!("{policy} report: {f}")),
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_audit::StreamingAudit;

    #[test]
    fn audit_oracle_section_is_clean() {
        let report = section(0xc0f0_24a1).expect("section runs");
        assert!(report.passed(), "{:?}", report.failures);
        // 29 streams x 3 bin counts, then per report 3 channels and 8
        // trajectory points.
        assert_eq!(report.cases, 29 * 3 + 2 * (3 + 8));
    }

    #[test]
    fn a_strict_only_split_is_caught_on_the_saturated_median() {
        // The check has teeth: partitioning strictly above the median
        // leaves no high class here, which the ledger must not match.
        let stream = corpus(1)
            .into_iter()
            .find(|s| s.label == "saturated median")
            .unwrap();
        let strict: Vec<bool> = stream.predictions.iter().map(|&p| p > 8.0).collect();
        let spec = AuditSpec::new();
        let strict_test = oracle_channel_test(
            "strict",
            &stream.predictions,
            &stream.values,
            &strict,
            &spec,
        );
        assert_eq!(strict_test.welch.n_high, 0);
        let got = ledger_test(&stream, &spec);
        assert_eq!(got.welch.n_low, 8, "the 8 low outliers form the low class");
        assert!(!channel_diffs(&got, &strict_test).is_empty());
        assert!(got.welch.t > 4.5, "ties-go-high keeps the channel visible");
    }

    #[test]
    fn ledger_mi_is_bit_identical_to_batch() {
        // Discrete values including negatives and repeats.
        let preds: Vec<f64> = (0..500).map(|i| f64::from(i % 7) - 3.0).collect();
        let vals: Vec<f64> = (0..500).map(|i| f64::from((i * i) % 11) * 0.5).collect();
        let mut ledger = StreamingChannelTest::new("synthetic");
        for (&p, &v) in preds.iter().zip(&vals) {
            ledger.push(p, v);
        }
        for bins in [2, 8, 16] {
            let streamed = ledger.finish(&AuditSpec::new().with_mi_bins(bins)).mi;
            let batch = binned_mi(&preds, &vals, bins);
            assert_eq!(streamed, batch, "bins {bins}");
        }
    }

    #[test]
    fn ledger_welch_matches_batch_partition() {
        let preds: Vec<f64> = (0..300).map(|i| f64::from(i % 9)).collect();
        let vals: Vec<f64> = (0..300)
            .map(|i| f64::from(i % 9) * 2.0 + f64::from(i % 5))
            .collect();
        let mut ledger = StreamingChannelTest::new("synthetic");
        for (&p, &v) in preds.iter().zip(&vals) {
            ledger.push(p, v);
        }
        // Replicate the partition by hand.
        let mut sorted = preds.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[(sorted.len() - 1) / 2];
        let (mut low, mut high) = (Vec::new(), Vec::new());
        for (&p, &v) in preds.iter().zip(&vals) {
            if p > median {
                high.push(v);
            } else {
                low.push(v);
            }
        }
        let batch = welch_t_test(&low, &high);
        let streamed = ledger.finish(&AuditSpec::new()).welch;
        assert_eq!(streamed.n_low, batch.n_low);
        assert_eq!(streamed.n_high, batch.n_high);
        assert!(
            (streamed.t - batch.t).abs() < 1e-9,
            "streamed {} vs batch {}",
            streamed.t,
            batch.t
        );
        assert!((streamed.mean_low - batch.mean_low).abs() < 1e-12);
        assert!((streamed.mean_high - batch.mean_high).abs() < 1e-12);
        assert!((streamed.dof - batch.dof).abs() < 1e-6);
    }

    #[test]
    fn streamed_audit_matches_batch_report() {
        let (samples, subkey) = paper_samples(
            CoalescingPolicy::Baseline,
            200,
            11,
            TimingSource::ByteAccesses(0),
        )
        .unwrap();
        let spec = AuditSpec::new();
        let target = AuditTarget::aes(CoalescingPolicy::Baseline, WARP_SIZE, subkey[0]);
        for chunk in [7usize, 64, 200] {
            let mut audit =
                StreamingAudit::new(target.clone(), spec.clone(), samples.len()).unwrap();
            for c in samples.chunks(chunk) {
                audit.push_chunk(c);
            }
            let streamed = audit.finish().unwrap();
            assert!(streamed.leaky, "the baseline byte channel leaks");
            let (checks, failures) = report_diffs(&streamed, &target, &samples, &[], &spec);
            assert_eq!(checks, 1 + spec.checkpoints);
            assert!(failures.is_empty(), "chunk {chunk}: {failures:?}");
        }
    }

    // ---- The slice estimators themselves ----

    #[test]
    fn identical_classes_score_zero_t() {
        let a: Vec<f64> = (0..200).map(|i| f64::from(i % 17)).collect();
        let w = welch_t_test(&a, &a);
        assert_eq!(w.t, 0.0);
        assert!(!w.exceeds(4.5));
        assert_eq!(w.n_low, 200);
        assert_eq!(w.n_high, 200);
    }

    #[test]
    fn shifted_classes_are_detected() {
        // Same shape, mean shifted by one within-class standard
        // deviation: t ≈ shift / (sd * sqrt(2/n)) ≈ 10 at n = 200.
        let a: Vec<f64> = (0..200).map(|i| f64::from(i % 17)).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 5.0).collect();
        let w = welch_t_test(&a, &b);
        assert!(w.exceeds(4.5), "t = {}", w.t);
        assert!(w.t > 0.0, "high class has the larger mean");
        assert!(w.dof > 100.0, "equal shapes keep dof near n_a + n_b - 2");
        let flipped = welch_t_test(&b, &a);
        assert!((flipped.t + w.t).abs() < 1e-12, "antisymmetric in classes");
    }

    #[test]
    fn degenerate_classes_clamp_instead_of_nan() {
        let w = welch_t_test(&[1.0], &[2.0, 3.0]);
        assert_eq!(w.t, 0.0, "singleton class carries no evidence");
        let w = welch_t_test(&[1.0, 1.0], &[1.0, 1.0]);
        assert_eq!(w.t, 0.0);
        let w = welch_t_test(&[1.0, 1.0], &[2.0, 2.0]);
        assert_eq!(w.t, T_CLAMP, "distinct constants clamp");
        assert!(w.t.is_finite());
    }

    #[test]
    fn mi_of_identical_streams_is_entropy() {
        // X uniform over {0,1,2,3}, Y = X: I(X;Y) = H(X) = 2 bits.
        let xs: Vec<f64> = (0..400).map(|i| f64::from(i % 4)).collect();
        let mi = binned_mi(&xs, &xs, 4);
        assert!((mi.bits - 2.0).abs() < 1e-9, "plug-in = {}", mi.bits);
        assert!(
            (mi.corrected_bits - 2.0).abs() < 0.05,
            "corrected = {}",
            mi.corrected_bits
        );
        assert_eq!(mi.x_bins, 4);
        assert_eq!(mi.y_bins, 4);
    }

    #[test]
    fn mi_of_independent_streams_is_near_zero_after_correction() {
        // Coprime periods (7, 5) make the joint distribution uniform
        // over a full 35-cycle: exactly independent in the limit, and
        // 2100 samples is an integer number of cycles so the plug-in
        // MI is exactly zero up to float error.
        let xs: Vec<f64> = (0..2100).map(|i| f64::from(i % 7)).collect();
        let ys: Vec<f64> = (0..2100).map(|i| f64::from((i * 3) % 5)).collect();
        let mi = binned_mi(&xs, &ys, 16);
        assert!(mi.bits < 0.01, "plug-in = {}", mi.bits);
        assert!(
            mi.corrected_bits < 0.01,
            "corrected = {}",
            mi.corrected_bits
        );
    }

    #[test]
    fn mi_bias_correction_beats_plug_in_on_sparse_noise() {
        // A short independent sample: the plug-in estimate is visibly
        // positive purely from binning noise; Miller–Madow pulls the
        // corrected estimate at least halfway back toward zero.
        let xs: Vec<f64> = (0..64).map(|i| f64::from((i * 7) % 13)).collect();
        let ys: Vec<f64> = (0..64).map(|i| f64::from((i * 11) % 9)).collect();
        let mi = binned_mi(&xs, &ys, 16);
        assert!(mi.bits > 0.1, "sparse plug-in is biased up: {}", mi.bits);
        assert!(
            mi.bias_bits > 0.1,
            "bias term is material: {}",
            mi.bias_bits
        );
        assert!(
            mi.corrected_bits < mi.bits - 0.1,
            "correction removes a chunk of the bias: {} vs {}",
            mi.corrected_bits,
            mi.bits
        );
    }

    #[test]
    fn mi_degenerate_inputs() {
        assert_eq!(binned_mi(&[], &[], 8).corrected_bits, 0.0);
        // Constant X carries no information regardless of Y.
        let xs = vec![3.0; 100];
        let ys: Vec<f64> = (0..100).map(f64::from).collect();
        let mi = binned_mi(&xs, &ys, 8);
        assert_eq!(mi.bits, 0.0);
        assert_eq!(mi.x_bins, 1);
    }
}
