//! The audit's one implementation: the TVLA/MI estimators and the full
//! leakage audit over a chunked observation stream.
//!
//! Streams store only sufficient statistics, so peak heap does not grow
//! with the sample count; an already-collected slice
//! ([`crate::audit_samples`], [`crate::audit_target_with_stages`]) is
//! simply pushed as one chunk.
//!
//! * [`StreamingChannelTest`] groups `(prediction, value)` pairs by
//!   exact value into a count ledger. The simulated channels are
//!   discrete (coalesced-access and cycle counts), so the ledger's
//!   size is the number of *distinct* pairs — independent of how many
//!   samples stream through it. From the ledger it computes the
//!   median-split Welch t-test and the binned mutual information.
//! * [`StreamingAudit`] wires one ledger per channel (timing plus any
//!   stage channels), a [`StreamingByteRecovery`] trajectory, and the
//!   channel histogram into a full [`LeakageReport`]. The report is
//!   bit-identical whatever the chunking.

use crate::report::{
    normalized_s, stage_length_error, theory_check, AuditError, AuditTarget, ChannelQuantiles,
    ChannelTest, LeakageReport, TrajectoryPoint,
};
use crate::spec::AuditSpec;
use crate::stats::{bin_of, mi_from_histograms, min_max, welch_from_moments, MiEstimate};
use rcoal_attack::{
    even_checkpoints, AccessPredictor, Attack, AttackError, AttackSample, StreamingByteRecovery,
};
use rcoal_telemetry::Hist64;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One channel's TVLA verdict over a stream: feed `(prediction, value)`
/// pairs in, get the [`ChannelTest`] of the concatenated stream.
///
/// Observations are grouped by exact `(f64::to_bits)` pair, so memory
/// is proportional to the number of *distinct* pairs rather than the
/// stream length — constant for the simulator's integer-valued
/// channels no matter how many samples stream through.
#[derive(Debug, Clone)]
pub struct StreamingChannelTest {
    name: String,
    /// (prediction bits, value bits) → multiplicity.
    pairs: BTreeMap<(u64, u64), u64>,
    n: usize,
}

impl StreamingChannelTest {
    /// An empty ledger for the channel called `name`.
    pub fn new(name: &str) -> Self {
        StreamingChannelTest {
            name: name.to_string(),
            pairs: BTreeMap::new(),
            n: 0,
        }
    }

    /// Records one observation: the attacker-model prediction and the
    /// observed channel value.
    pub fn push(&mut self, prediction: f64, value: f64) {
        *self
            .pairs
            .entry((prediction.to_bits(), value.to_bits()))
            .or_insert(0) += 1;
        self.n += 1;
    }

    /// Observations recorded so far.
    pub fn observations(&self) -> usize {
        self.n
    }

    /// Whether no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distinct `(prediction, value)` pairs held — the ledger's actual
    /// memory footprint, which stays flat on discrete channels.
    pub fn distinct_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Distinct prediction values with their total multiplicities,
    /// sorted ascending by `f64::total_cmp` — the grouped image of the
    /// sorted prediction vector.
    fn grouped_predictions(&self) -> Vec<(f64, u64)> {
        let mut by_pred: BTreeMap<u64, u64> = BTreeMap::new();
        for (&(p, _), &c) in &self.pairs {
            *by_pred.entry(p).or_insert(0) += c;
        }
        let mut out: Vec<(f64, u64)> = by_pred
            .into_iter()
            .map(|(bits, c)| (f64::from_bits(bits), c))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// The lower median: element `(n - 1) / 2` of the predictions
    /// sorted by `total_cmp`.
    fn median_prediction(&self, grouped: &[(f64, u64)]) -> f64 {
        let target = (self.n as u64 - 1) / 2;
        let mut cumulative = 0u64;
        for &(p, c) in grouped {
            cumulative += c;
            if cumulative > target {
                return p;
            }
        }
        grouped.last().map_or(0.0, |&(p, _)| p)
    }

    /// Computes the channel verdict against `spec`'s thresholds.
    ///
    /// The t-test partition classes each observation by its prediction:
    /// low `<=` median `<` high. Saturated geometries (few table blocks
    /// under many threads, e.g. RECTANGLE's R = 8 under N = 32) can pin
    /// the median at the maximum prediction, emptying the high class
    /// and silencing the t-test on a channel that still leaks; when the
    /// strict high class would have fewer than two members, ties go
    /// high instead (`>=`), so the split separates the saturated mass
    /// from the rare low outliers.
    pub fn finish(&self, spec: &AuditSpec) -> ChannelTest {
        let welch = self.welch();
        let mi = self.mi(spec.mi_bins);
        let leaky = welch.exceeds(spec.t_threshold) && mi.corrected_bits > spec.mi_floor_bits;
        ChannelTest {
            name: self.name.clone(),
            welch,
            mi,
            leaky,
        }
    }

    fn welch(&self) -> crate::WelchT {
        if self.n == 0 {
            return welch_from_moments(0, 0.0, 0.0, 0, 0.0, 0.0);
        }
        let grouped = self.grouped_predictions();
        let median = self.median_prediction(&grouped);
        let strict_high: u64 = grouped
            .iter()
            .filter(|&&(p, _)| p > median)
            .map(|&(_, c)| c)
            .sum();
        let is_high: &dyn Fn(f64) -> bool = if strict_high >= 2 {
            &|p| p > median
        } else {
            &|p| p >= median
        };
        // Count-weighted two-pass moments per class (mean, then
        // unbiased variance), visiting pairs in ledger order.
        let mut acc = [(0u64, 0.0f64); 2]; // (count, sum) per class
        for (&(p, v), &c) in &self.pairs {
            let slot = &mut acc[usize::from(is_high(f64::from_bits(p)))];
            slot.0 += c;
            slot.1 += c as f64 * f64::from_bits(v);
        }
        let mean = |(count, sum): (u64, f64)| if count == 0 { 0.0 } else { sum / count as f64 };
        let (mean_low, mean_high) = (mean(acc[0]), mean(acc[1]));
        let mut ss = [0.0f64; 2];
        for (&(p, v), &c) in &self.pairs {
            let high = usize::from(is_high(f64::from_bits(p)));
            let d = f64::from_bits(v) - if high == 1 { mean_high } else { mean_low };
            ss[high] += c as f64 * d * d;
        }
        let var = |count: u64, ss: f64| {
            if count < 2 {
                0.0
            } else {
                ss / (count - 1) as f64
            }
        };
        welch_from_moments(
            acc[0].0 as usize,
            mean_low,
            var(acc[0].0, ss[0]),
            acc[1].0 as usize,
            mean_high,
            var(acc[1].0, ss[1]),
        )
    }

    fn mi(&self, max_bins: usize) -> MiEstimate {
        let n = self.n;
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
        let bins = max_bins.max(1);
        let xs: Vec<f64> = {
            let mut seen: Vec<u64> = self.pairs.keys().map(|&(p, _)| p).collect();
            seen.dedup();
            seen.into_iter().map(f64::from_bits).collect()
        };
        let ys: Vec<f64> = {
            let mut seen: Vec<u64> = self.pairs.keys().map(|&(_, v)| v).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.into_iter().map(f64::from_bits).collect()
        };
        // min/max over the distinct values equal min/max over the full
        // stream, so the bin edges — and therefore every per-value bin
        // index — match a slice estimator's over the same stream.
        let (x_min, x_max) = min_max(&xs);
        let (y_min, y_max) = min_max(&ys);
        let x_bins = if x_max > x_min { bins } else { 1 };
        let y_bins = if y_max > y_min { bins } else { 1 };
        let mut joint = vec![0u64; x_bins * y_bins];
        let mut mx = vec![0u64; x_bins];
        let mut my = vec![0u64; y_bins];
        for (&(p, v), &c) in &self.pairs {
            let bx = bin_of(f64::from_bits(p), x_min, x_max, x_bins);
            let by = bin_of(f64::from_bits(v), y_min, y_max, y_bins);
            joint[bx * y_bins + by] += c;
            mx[bx] += c;
            my[by] += c;
        }
        mi_from_histograms(&joint, &mx, &my, n)
    }
}

/// A full leakage audit over a chunked sample stream; on discrete
/// channels its peak heap does not depend on how many samples flow
/// through.
///
/// Create with a total `budget`, optionally declare stage channels with
/// [`StreamingAudit::with_stage_channels`], feed chunks of any size with
/// [`StreamingAudit::push_chunk`] (or
/// [`StreamingAudit::push_chunk_with_stages`]), and call
/// [`StreamingAudit::finish`]. The trajectory checkpoints land on the
/// [`even_checkpoints`] schedule of `budget` regardless of chunk
/// boundaries, and every instrument consumes the stream in order, so
/// the report does not depend on the chunking.
#[derive(Debug)]
pub struct StreamingAudit {
    target: AuditTarget,
    spec: AuditSpec,
    predictor: AccessPredictor,
    timing: StreamingChannelTest,
    stages: Vec<StreamingChannelTest>,
    recovery: StreamingByteRecovery,
    hist: Hist64,
    planned: Vec<usize>,
    next_checkpoint: usize,
    trajectory: Vec<TrajectoryPoint>,
}

impl StreamingAudit {
    /// Prepares an audit expecting up to `budget` samples.
    ///
    /// # Errors
    ///
    /// [`AuditError::Spec`] for an invalid spec or a zero budget;
    /// [`AuditError::Attack`] when the byte index is out of range for
    /// the target's oracle.
    pub fn new(target: AuditTarget, spec: AuditSpec, budget: usize) -> Result<Self, AuditError> {
        spec.validate().map_err(AuditError::Spec)?;
        if budget == 0 {
            return Err(AuditError::Spec(
                "streamed audit budget must be positive".to_string(),
            ));
        }
        let attack = Attack::against(target.policy, target.warp_size)
            .with_seed(spec.attack_seed)
            .with_oracle(Arc::clone(&target.oracle));
        let predictor = attack.predictor_for_guess(target.true_key_byte);
        let recovery = StreamingByteRecovery::new(&attack, spec.byte)?;
        let planned = even_checkpoints(budget, spec.checkpoints);
        Ok(StreamingAudit {
            target,
            spec,
            predictor,
            timing: StreamingChannelTest::new("timing"),
            stages: Vec::new(),
            recovery,
            hist: Hist64::new(),
            planned,
            next_checkpoint: 0,
            trajectory: Vec::new(),
        })
    }

    /// Adds one stage channel per name (e.g. per-launch telemetry
    /// scalars), each tested against the same per-sample prediction as
    /// the timing channel. Feed their values with
    /// [`StreamingAudit::push_chunk_with_stages`].
    pub fn with_stage_channels<'a>(mut self, names: impl IntoIterator<Item = &'a str>) -> Self {
        self.stages
            .extend(names.into_iter().map(StreamingChannelTest::new));
        self
    }

    /// Samples audited so far.
    pub fn len(&self) -> usize {
        self.recovery.len()
    }

    /// Whether no sample has been audited yet.
    pub fn is_empty(&self) -> bool {
        self.recovery.is_empty()
    }

    /// Feeds the next chunk of the stream (timing channel only).
    pub fn push_chunk(&mut self, samples: &[AttackSample]) {
        self.push_aligned(samples, &[]);
    }

    /// Feeds the next chunk together with each stage channel's values
    /// for it: `stage_values[k][i]` is stage `k`'s observation for
    /// `samples[i]`, stages in [`StreamingAudit::with_stage_channels`]
    /// order.
    ///
    /// # Errors
    ///
    /// [`AuditError::Spec`] when the value slices do not line up with
    /// the declared stage channels or with the chunk; nothing is
    /// recorded then.
    pub fn push_chunk_with_stages(
        &mut self,
        samples: &[AttackSample],
        stage_values: &[&[f64]],
    ) -> Result<(), AuditError> {
        if stage_values.len() != self.stages.len() {
            return Err(AuditError::Spec(format!(
                "{} stage value slices for {} stage channels",
                stage_values.len(),
                self.stages.len()
            )));
        }
        for (stage, values) in self.stages.iter().zip(stage_values) {
            if values.len() != samples.len() {
                return Err(stage_length_error(&stage.name, values.len(), samples.len()));
            }
        }
        self.push_aligned(samples, stage_values);
        Ok(())
    }

    /// Feeds a chunk, splitting it internally at checkpoint boundaries
    /// so the recorded trajectory is independent of how the stream is
    /// chunked. `stage_values` is empty or validated against `samples`.
    fn push_aligned(&mut self, samples: &[AttackSample], stage_values: &[&[f64]]) {
        let mut pos = 0;
        while pos < samples.len() {
            let consumed = self.recovery.len();
            let remaining = samples.len() - pos;
            let take = match self.planned.get(self.next_checkpoint) {
                Some(&boundary) if boundary > consumed => remaining.min(boundary - consumed),
                _ => remaining,
            };
            for (i, s) in samples.iter().enumerate().skip(pos).take(take) {
                let prediction = self.predictor.predict(
                    &s.ciphertexts,
                    self.spec.byte,
                    self.target.true_key_byte,
                );
                self.timing.push(prediction, s.time);
                for (stage, values) in self.stages.iter_mut().zip(stage_values) {
                    stage.push(prediction, values[i]);
                }
                self.hist.record(s.time.max(0.0).round() as u64);
            }
            self.recovery.push_chunk(&samples[pos..pos + take]);
            pos += take;
            if self.planned.get(self.next_checkpoint) == Some(&self.recovery.len()) {
                self.record_checkpoint();
                self.next_checkpoint += 1;
            }
        }
    }

    fn record_checkpoint(&mut self) {
        let true_byte = self.target.true_key_byte;
        self.trajectory.push(TrajectoryPoint {
            samples: self.recovery.len(),
            corr_true: self.recovery.correlation_of(true_byte),
            rank: self.recovery.snapshot().rank_of(true_byte),
        });
    }

    /// Closes the stream and produces the leakage verdict.
    ///
    /// # Errors
    ///
    /// [`AuditError::Attack`] ([`AttackError::NoSamples`]) when nothing
    /// was pushed; [`AuditError::Spec`] when a stage channel missed
    /// values (a chunk fed through [`StreamingAudit::push_chunk`]).
    pub fn finish(mut self) -> Result<LeakageReport, AuditError> {
        let n = self.recovery.len();
        if n == 0 {
            return Err(AuditError::Attack(AttackError::NoSamples));
        }
        if let Some(stage) = self.stages.iter().find(|s| s.observations() != n) {
            return Err(stage_length_error(&stage.name, stage.observations(), n));
        }
        // Streams that fall short of the budget still close their
        // trajectory with the full-stream point.
        if self.trajectory.last().map(|p| p.samples) != Some(n) {
            self.record_checkpoint();
        }
        let timing = self.timing.finish(&self.spec);
        let stages = self.stages.iter().map(|s| s.finish(&self.spec)).collect();
        let empirical_rho = self.trajectory.last().map_or(0.0, |p| p.corr_true);
        let empirical_s = normalized_s(empirical_rho);
        let theory = theory_check(
            self.target.policy,
            self.target.warp_size,
            &self.spec,
            empirical_rho,
            n,
            self.target.theory_r,
        );
        let quantiles = ChannelQuantiles {
            count: self.hist.count(),
            mean: self.hist.mean(),
            p50: self.hist.p50().unwrap_or(0),
            p95: self.hist.p95().unwrap_or(0),
            p99: self.hist.p99().unwrap_or(0),
        };
        let leaky = timing.leaky;
        Ok(LeakageReport {
            policy: self.target.policy,
            warp_size: self.target.warp_size,
            byte: self.spec.byte,
            channel: self.spec.channel,
            samples: n,
            spec: self.spec,
            timing,
            stages,
            trajectory: self.trajectory,
            empirical_rho,
            empirical_s,
            theory,
            quantiles,
            leaky,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_core::CoalescingPolicy;

    /// Synthetic stream where the channel value IS the baseline
    /// predictor's access count for the true byte (ρ̂ = 1); mirrors the
    /// report tests.
    fn perfect_leak_samples(n: usize) -> (Vec<AttackSample>, u8) {
        let true_byte = 0x3c;
        let attack =
            Attack::against(CoalescingPolicy::Baseline, 32).with_seed(AuditSpec::new().attack_seed);
        let mut predictor = attack.predictor_for_guess(true_byte);
        let samples = (0..n)
            .map(|i| {
                let ct: Vec<[u8; 16]> = (0..32usize)
                    .map(|lane| {
                        let mut b = [0u8; 16];
                        b.iter_mut().enumerate().for_each(|(k, x)| {
                            *x = (i * 31 + lane * 7 + k * 13) as u8;
                        });
                        b
                    })
                    .collect();
                let time = predictor.predict(&ct, 0, true_byte);
                AttackSample {
                    ciphertexts: Arc::new(ct),
                    time,
                }
            })
            .collect();
        (samples, true_byte)
    }

    #[test]
    fn ledger_memory_tracks_distinct_pairs_not_stream_length() {
        let mut ledger = StreamingChannelTest::new("discrete");
        for i in 0..10_000usize {
            ledger.push(f64::from(i as u32 % 8), f64::from(i as u32 % 5));
        }
        assert_eq!(ledger.observations(), 10_000);
        assert!(
            ledger.distinct_pairs() <= 40,
            "8 x 5 value grid, got {}",
            ledger.distinct_pairs()
        );
    }

    #[test]
    fn stage_channels_are_chunking_invariant() {
        let (samples, true_byte) = perfect_leak_samples(90);
        let mirror: Vec<f64> = samples.iter().map(|s| s.time * 3.0 + 1.0).collect();
        let noise: Vec<f64> = (0..samples.len())
            .map(|i| f64::from((i as u32 * 7919) % 13))
            .collect();
        let target = AuditTarget::aes(CoalescingPolicy::Baseline, 32, true_byte);
        let reports: Vec<LeakageReport> = [1usize, 7, samples.len()]
            .iter()
            .map(|&chunk| {
                let mut audit =
                    StreamingAudit::new(target.clone(), AuditSpec::new(), samples.len())
                        .unwrap()
                        .with_stage_channels(["mirror", "noise"]);
                for (k, c) in samples.chunks(chunk).enumerate() {
                    let at = k * chunk..k * chunk + c.len();
                    audit
                        .push_chunk_with_stages(c, &[&mirror[at.clone()], &noise[at]])
                        .unwrap();
                }
                audit.finish().unwrap()
            })
            .collect();
        assert_eq!(reports[0].stages.len(), 2);
        assert!(reports[0].stages[0].leaky, "the mirrored stage flags");
        assert!(!reports[0].stages[1].leaky, "the key-free stage is quiet");
        for r in &reports[1..] {
            assert_eq!(r.to_json(), reports[0].to_json());
        }
    }

    #[test]
    fn misaligned_stage_values_are_spec_errors() {
        let (samples, true_byte) = perfect_leak_samples(10);
        let target = AuditTarget::aes(CoalescingPolicy::Baseline, 32, true_byte);
        let staged = || {
            StreamingAudit::new(target.clone(), AuditSpec::new(), 10)
                .unwrap()
                .with_stage_channels(["lat"])
        };
        let mut audit = staged();
        let err = audit.push_chunk_with_stages(&samples, &[]).unwrap_err();
        assert!(matches!(err, AuditError::Spec(_)), "{err}");
        let err = audit
            .push_chunk_with_stages(&samples, &[&[1.0; 9]])
            .unwrap_err();
        assert!(err.to_string().contains("lat"), "{err}");
        assert!(audit.is_empty(), "a rejected chunk records nothing");
        // A timing-only push leaves the stage channel short.
        let mut audit = staged();
        audit.push_chunk(&samples);
        let err = audit.finish().unwrap_err();
        assert!(
            err.to_string().contains("'lat' has 0 values for 10"),
            "{err}"
        );
    }

    #[test]
    fn short_stream_closes_its_trajectory() {
        let (samples, true_byte) = perfect_leak_samples(30);
        let mut audit = StreamingAudit::new(
            AuditTarget::aes(CoalescingPolicy::Baseline, 32, true_byte),
            AuditSpec::new(),
            1000,
        )
        .unwrap();
        audit.push_chunk(&samples);
        let report = audit.finish().unwrap();
        assert_eq!(report.samples, 30);
        assert_eq!(report.trajectory.last().unwrap().samples, 30);
        assert!(report.leaky, "the perfect leak still flags at n = 30");
    }

    #[test]
    fn empty_and_invalid_streamed_audits_are_typed_errors() {
        let target = AuditTarget::aes(CoalescingPolicy::Baseline, 32, 1);
        let err = StreamingAudit::new(target.clone(), AuditSpec::new(), 0).unwrap_err();
        assert!(matches!(err, AuditError::Spec(_)), "{err}");
        let err =
            StreamingAudit::new(target.clone(), AuditSpec::new().with_byte(16), 10).unwrap_err();
        assert!(matches!(err, AuditError::Spec(_)), "{err}");
        let audit = StreamingAudit::new(target, AuditSpec::new(), 10).unwrap();
        assert!(audit.is_empty());
        let err = audit.finish().unwrap_err();
        assert!(matches!(err, AuditError::Attack(AttackError::NoSamples)));
    }
}
