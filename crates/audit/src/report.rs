//! The typed [`LeakageReport`] with its stable `rcoal-audit/v1`
//! encoding, the theory cross-check, and the slice entry points, which
//! run a [`StreamingAudit`] over the collected samples.

use crate::spec::{AuditChannel, AuditSpec};
use crate::stats::{MiEstimate, WelchT};
use crate::stream::StreamingAudit;
use rcoal_attack::{aes_oracle, AttackError, AttackSample, TableOracle};
use rcoal_core::CoalescingPolicy;
use rcoal_scenario::json::{ObjBuilder, Value};
use rcoal_theory::{Mechanism, SecurityModel};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Schema tag for serialized leakage reports.
pub const AUDIT_SCHEMA: &str = "rcoal-audit/v1";

/// Errors reported by the audit layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AuditError {
    /// The [`AuditSpec`] failed validation.
    Spec(String),
    /// The attack driver rejected its input (no samples, byte index).
    Attack(AttackError),
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Spec(msg) => write!(f, "invalid audit spec: {msg}"),
            AuditError::Attack(e) => write!(f, "audit attack driver failed: {e}"),
        }
    }
}

impl Error for AuditError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AuditError::Attack(e) => Some(e),
            AuditError::Spec(_) => None,
        }
    }
}

impl From<AttackError> for AuditError {
    fn from(e: AttackError) -> Self {
        AuditError::Attack(e)
    }
}

/// A named side-channel observable sampled once per attack sample —
/// e.g. a per-launch stage scalar (mean memory latency, DRAM row-hit
/// rate) pulled from telemetry. Values must be index-aligned with the
/// audited [`AttackSample`] stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StageChannel {
    /// Stable channel name (appears in the report JSON).
    pub name: String,
    /// One observation per attack sample.
    pub values: Vec<f64>,
}

/// One channel's TVLA-style verdict: the two-class Welch t-test plus
/// the binned mutual-information estimate against the same partition.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelTest {
    /// Channel name ("timing" for the primary channel).
    pub name: String,
    /// Welch's t-test between the low- and high-prediction classes.
    pub welch: WelchT,
    /// Mutual information between the true-key prediction and the
    /// channel value.
    pub mi: MiEstimate,
    /// Whether this channel flags: `|t|` at/above threshold AND
    /// corrected MI above the floor.
    pub leaky: bool,
}

/// One point on the streaming attack's correlation trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// Samples consumed at this checkpoint.
    pub samples: usize,
    /// Pearson correlation of the *true* key-byte guess.
    pub corr_true: f64,
    /// Rank of the true guess among all 256 (0 = recovered).
    pub rank: usize,
}

/// Cross-check of the measured correlation against `rcoal-theory`'s
/// closed-form prediction for the audited mechanism.
///
/// Agreement is judged on the ρ scale, where the sampling error of a
/// Pearson estimate is ≈ 1/√n: `ok` iff
/// `| |ρ̂| − ρ_pred | ≤ tolerance / √n`. The induced bound on S is
/// reported alongside (`s_low`/`s_high`); comparing S ratios directly
/// would blow up exactly where the defense works (ρ → 0 makes S = 1/ρ²
/// wildly dispersed), while the ρ-scale bound stays uniformly tight.
#[derive(Debug, Clone, PartialEq)]
pub struct TheoryCheck {
    /// Mechanism name as `rcoal-theory` spells it.
    pub mechanism: String,
    /// Number of subwarps.
    pub m: usize,
    /// Closed-form ρ from [`SecurityModel::rho`].
    pub predicted_rho: f64,
    /// Closed-form S = 1/ρ² (∞ when ρ = 0).
    pub predicted_s: f64,
    /// Per-mechanism tolerance `k` in the `k/√n` agreement bound.
    pub tolerance: f64,
    /// Acceptance interval for S induced by the ρ-scale bound.
    pub s_low: f64,
    /// Upper end of the S acceptance interval (∞ when the lower ρ
    /// bound reaches 0).
    pub s_high: f64,
    /// Whether the measured correlation agrees with the prediction.
    pub ok: bool,
}

/// Quantile summary of the audited channel's distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelQuantiles {
    /// Observations summarized.
    pub count: u64,
    /// Mean channel value.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// The full leakage verdict for one policy configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageReport {
    /// Policy under audit.
    pub policy: CoalescingPolicy,
    /// Warp size the audit modeled.
    pub warp_size: usize,
    /// Key byte audited.
    pub byte: usize,
    /// Channel audited.
    pub channel: AuditChannel,
    /// Attack samples consumed.
    pub samples: usize,
    /// Thresholds the verdict used (copied from the spec).
    pub spec: AuditSpec,
    /// Primary channel test (the audited timing channel).
    pub timing: ChannelTest,
    /// Per-stage channel tests (empty without telemetry).
    pub stages: Vec<ChannelTest>,
    /// Correlation trajectory of the streaming attack.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Final-checkpoint correlation of the true guess (signed).
    pub empirical_rho: f64,
    /// Empirical normalized sample count `1/ρ̂²` (∞ when ρ̂ = 0).
    pub empirical_s: f64,
    /// Theory cross-check; `None` off the per-byte access channel, for
    /// mechanisms the closed form does not cover (standalone RSS), or
    /// when `m` does not divide the warp size.
    pub theory: Option<TheoryCheck>,
    /// Quantile summary of the audited channel.
    pub quantiles: ChannelQuantiles,
    /// The headline verdict: the primary channel flags both tests.
    pub leaky: bool,
}

/// Per-mechanism tolerance `k` for the `k/√n` ρ-agreement bound.
///
/// FSS is deterministic (the attacker's predictor reproduces the count
/// exactly, ρ = 1 identically), so only float noise needs absorbing;
/// the randomized mechanisms carry genuine sampling dispersion in ρ̂
/// on top of the 1/√n Pearson error, hence the wider band.
pub fn tolerance_for(mechanism: Mechanism) -> f64 {
    match mechanism {
        Mechanism::Fss => 1.0,
        Mechanism::FssRts | Mechanism::RssRts => 4.0,
    }
}

/// Maps a coalescing policy onto the closed-form mechanism `rcoal-theory`
/// models, with its subwarp count. `None` for standalone RSS (the paper
/// evaluates it only empirically).
///
/// `Baseline` is FSS with one subwarp (ρ = 1); `Disabled` is FSS with
/// one thread per subwarp (constant access count, channel closed).
pub fn mechanism_of(policy: CoalescingPolicy, warp_size: usize) -> Option<(Mechanism, usize)> {
    let m = policy.num_subwarps(warp_size);
    match policy {
        CoalescingPolicy::Baseline | CoalescingPolicy::Disabled | CoalescingPolicy::Fss { .. } => {
            Some((Mechanism::Fss, m))
        }
        CoalescingPolicy::FssRts { .. } => Some((Mechanism::FssRts, m)),
        CoalescingPolicy::RssRts { .. } => Some((Mechanism::RssRts, m)),
        CoalescingPolicy::Rss { .. } => None,
    }
}

/// What the audit runs against: the deployed policy plus the workload's
/// attack model (its table oracle and, when comparable, its table size
/// `R` for the closed-form cross-check).
///
/// [`AuditTarget::aes`] is the paper's configuration; other workloads
/// build one from their registry entry.
#[derive(Debug, Clone)]
pub struct AuditTarget {
    /// Policy under audit.
    pub policy: CoalescingPolicy,
    /// Simulated warp width (the attacker models the same geometry).
    pub warp_size: usize,
    /// The true attacked-subkey byte at the spec's byte position.
    pub true_key_byte: u8,
    /// The workload's (observed byte, guess) → block-index oracle.
    pub oracle: Arc<dyn TableOracle>,
    /// Table size `R` for the theory cross-check; `None` disables it
    /// (workloads the closed-form `(N, R)` analysis does not cover,
    /// e.g. the key-free control).
    pub theory_r: Option<usize>,
}

impl AuditTarget {
    /// The paper's AES-128 target: last-round oracle, `R = 16`.
    pub fn aes(policy: CoalescingPolicy, warp_size: usize, true_key_byte: u8) -> Self {
        AuditTarget {
            policy,
            warp_size,
            true_key_byte,
            oracle: aes_oracle(),
            theory_r: Some(16),
        }
    }
}

/// Audits a sample stream with no auxiliary stage channels (the
/// paper's AES target).
///
/// # Errors
///
/// [`AuditError::Spec`] for an invalid spec; [`AuditError::Attack`]
/// when the stream is empty or the byte index is out of range.
pub fn audit_samples(
    policy: CoalescingPolicy,
    warp_size: usize,
    samples: &[AttackSample],
    true_key_byte: u8,
    spec: &AuditSpec,
) -> Result<LeakageReport, AuditError> {
    audit_target_with_stages(
        &AuditTarget::aes(policy, warp_size, true_key_byte),
        samples,
        &[],
        spec,
    )
}

/// Audits a sample stream for an arbitrary workload target (see
/// [`AuditTarget`]), plus index-aligned stage channels: a
/// [`StreamingAudit`] with a budget of `samples.len()`, fed the slice
/// as one chunk.
///
/// The partition for every t-test is the TVLA "specific" variant: each
/// sample is classed by the attacker's own access-count prediction for
/// the *true* key byte (above/below the median prediction, see
/// [`crate::StreamingChannelTest::finish`]), so the test asks exactly
/// "do samples the attacker expects to be slow actually run slow?".
/// Randomized policies decorrelate the prediction from the realized
/// count, collapsing the class separation — which is the defense
/// working, and the gate's passing condition.
///
/// # Errors
///
/// [`AuditError::Spec`] for an invalid spec or a stage channel whose
/// length differs from the stream's; [`AuditError::Attack`] when the
/// stream is empty or the byte index is out of range for the target's
/// oracle.
pub fn audit_target_with_stages(
    target: &AuditTarget,
    samples: &[AttackSample],
    stages: &[StageChannel],
    spec: &AuditSpec,
) -> Result<LeakageReport, AuditError> {
    spec.validate().map_err(AuditError::Spec)?;
    if samples.is_empty() {
        return Err(AuditError::Attack(AttackError::NoSamples));
    }
    if let Some(stage) = stages.iter().find(|s| s.values.len() != samples.len()) {
        return Err(stage_length_error(
            &stage.name,
            stage.values.len(),
            samples.len(),
        ));
    }
    let mut audit = StreamingAudit::new(target.clone(), spec.clone(), samples.len())?
        .with_stage_channels(stages.iter().map(|s| s.name.as_str()));
    let values: Vec<&[f64]> = stages.iter().map(|s| s.values.as_slice()).collect();
    audit.push_chunk_with_stages(samples, &values)?;
    audit.finish()
}

pub(crate) fn stage_length_error(name: &str, values: usize, samples: usize) -> AuditError {
    AuditError::Spec(format!(
        "stage channel '{name}' has {values} values for {samples} samples"
    ))
}

pub(crate) fn normalized_s(rho: f64) -> f64 {
    if rho == 0.0 {
        f64::INFINITY
    } else {
        1.0 / (rho * rho)
    }
}

pub(crate) fn theory_check(
    policy: CoalescingPolicy,
    warp_size: usize,
    spec: &AuditSpec,
    empirical_rho: f64,
    n: usize,
    table_size_r: Option<usize>,
) -> Option<TheoryCheck> {
    if !spec.channel.theory_comparable() || warp_size == 0 {
        return None;
    }
    // A workload the (N, R) analysis does not cover opts out entirely.
    let r = table_size_r.filter(|&r| r >= 1)?;
    let (mechanism, m) = mechanism_of(policy, warp_size)?;
    // SecurityModel::rho asserts m | n; never feed it a panic.
    if m == 0 || !warp_size.is_multiple_of(m) {
        return None;
    }
    let model = SecurityModel::new(warp_size, r);
    let predicted_rho = model.rho(mechanism, m);
    let predicted_s = model.normalized_samples(mechanism, m);
    let tolerance = tolerance_for(mechanism);
    let band = tolerance / (n as f64).sqrt();
    let rho_low = (predicted_rho - band).max(0.0);
    let rho_high = (predicted_rho + band).min(1.0);
    let ok = (empirical_rho.abs() - predicted_rho).abs() <= band;
    Some(TheoryCheck {
        mechanism: mechanism.to_string(),
        m,
        predicted_rho,
        predicted_s,
        tolerance,
        s_low: normalized_s(rho_high),
        s_high: normalized_s(rho_low),
        ok,
    })
}

impl ChannelTest {
    fn to_value(&self) -> Value {
        ObjBuilder::new()
            .field("name", Value::str(&self.name))
            .field("t", Value::f64(self.welch.t))
            .field("dof", Value::f64(self.welch.dof))
            .field("n_low", Value::usize(self.welch.n_low))
            .field("n_high", Value::usize(self.welch.n_high))
            .field("mean_low", Value::f64(self.welch.mean_low))
            .field("mean_high", Value::f64(self.welch.mean_high))
            .field("mi_bits", Value::f64(self.mi.bits))
            .field("mi_bias_bits", Value::f64(self.mi.bias_bits))
            .field("mi_corrected_bits", Value::f64(self.mi.corrected_bits))
            .field("leaky", Value::Bool(self.leaky))
            .build()
    }
}

impl LeakageReport {
    /// Encodes as a `rcoal-audit/v1` JSON value. Non-finite floats
    /// (an unbounded S) encode as `null`, per the shared JSON model.
    pub fn to_value(&self) -> Value {
        let theory = match &self.theory {
            None => Value::Null,
            Some(t) => ObjBuilder::new()
                .field("mechanism", Value::str(&t.mechanism))
                .field("m", Value::usize(t.m))
                .field("predicted_rho", Value::f64(t.predicted_rho))
                .field("predicted_s", Value::f64(t.predicted_s))
                .field("tolerance", Value::f64(t.tolerance))
                .field("s_low", Value::f64(t.s_low))
                .field("s_high", Value::f64(t.s_high))
                .field("ok", Value::Bool(t.ok))
                .build(),
        };
        ObjBuilder::new()
            .field("schema", Value::str(AUDIT_SCHEMA))
            .field("policy", Value::str(self.policy.to_string()))
            .field("warp_size", Value::usize(self.warp_size))
            .field("byte", Value::usize(self.byte))
            .field("channel", Value::str(self.channel.name()))
            .field("samples", Value::usize(self.samples))
            .field(
                "thresholds",
                ObjBuilder::new()
                    .field("t", Value::f64(self.spec.t_threshold))
                    .field("mi_floor_bits", Value::f64(self.spec.mi_floor_bits))
                    .field("mi_bins", Value::usize(self.spec.mi_bins))
                    .build(),
            )
            .field("timing", self.timing.to_value())
            .field(
                "stages",
                Value::Arr(self.stages.iter().map(ChannelTest::to_value).collect()),
            )
            .field(
                "trajectory",
                Value::Arr(
                    self.trajectory
                        .iter()
                        .map(|p| {
                            ObjBuilder::new()
                                .field("samples", Value::usize(p.samples))
                                .field("corr", Value::f64(p.corr_true))
                                .field("rank", Value::usize(p.rank))
                                .build()
                        })
                        .collect(),
                ),
            )
            .field(
                "empirical",
                ObjBuilder::new()
                    .field("rho", Value::f64(self.empirical_rho))
                    .field("s", Value::f64(self.empirical_s))
                    .build(),
            )
            .field("theory", theory)
            .field(
                "quantiles",
                ObjBuilder::new()
                    .field("count", Value::u64(self.quantiles.count))
                    .field("mean", Value::f64(self.quantiles.mean))
                    .field("p50", Value::u64(self.quantiles.p50))
                    .field("p95", Value::u64(self.quantiles.p95))
                    .field("p99", Value::u64(self.quantiles.p99))
                    .build(),
            )
            .field("leaky", Value::Bool(self.leaky))
            .build()
    }

    /// Compact `rcoal-audit/v1` JSON text.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_attack::Attack;
    use std::sync::Arc;

    /// Synthetic sample stream where the channel value IS the access
    /// count the baseline predictor computes for the true byte: the
    /// attacker's model matches reality exactly, so ρ̂ = 1.
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
    fn perfectly_leaky_stream_is_flagged() {
        let (samples, true_byte) = perfect_leak_samples(256);
        let report = audit_samples(
            CoalescingPolicy::Baseline,
            32,
            &samples,
            true_byte,
            &AuditSpec::new(),
        )
        .unwrap();
        assert!(report.leaky, "timing t = {}", report.timing.welch.t);
        assert!(report.timing.welch.exceeds(4.5));
        assert!(report.timing.mi.corrected_bits > 0.05);
        assert!(
            (report.empirical_rho - 1.0).abs() < 1e-9,
            "rho = {}",
            report.empirical_rho
        );
        let theory = report.theory.expect("baseline has a closed form");
        assert_eq!(theory.mechanism, "FSS");
        assert_eq!(theory.m, 1);
        assert!((theory.predicted_s - 1.0).abs() < 1e-12);
        assert!(theory.ok, "rho-hat 1.0 vs predicted 1.0");
    }

    #[test]
    fn constant_channel_is_not_flagged() {
        let (mut samples, true_byte) = perfect_leak_samples(128);
        for s in &mut samples {
            s.time = 42.0;
        }
        let report = audit_samples(
            CoalescingPolicy::Baseline,
            32,
            &samples,
            true_byte,
            &AuditSpec::new(),
        )
        .unwrap();
        assert!(!report.leaky);
        assert_eq!(report.timing.welch.t, 0.0);
        assert_eq!(report.timing.mi.corrected_bits, 0.0);
        assert_eq!(report.empirical_rho, 0.0, "constant channel, no signal");
        assert!(report.empirical_s.is_infinite());
        assert_eq!(report.quantiles.p50, 42);
        assert_eq!(report.quantiles.p99, 42);
    }

    #[test]
    fn empty_stream_and_bad_spec_error() {
        let err =
            audit_samples(CoalescingPolicy::Baseline, 32, &[], 0, &AuditSpec::new()).unwrap_err();
        assert!(matches!(err, AuditError::Attack(AttackError::NoSamples)));
        let (samples, tb) = perfect_leak_samples(8);
        let err = audit_samples(
            CoalescingPolicy::Baseline,
            32,
            &samples,
            tb,
            &AuditSpec::new().with_byte(16),
        )
        .unwrap_err();
        assert!(matches!(err, AuditError::Spec(_)), "{err}");
        let stage = StageChannel {
            name: "short".into(),
            values: vec![1.0; 3],
        };
        let err = audit_target_with_stages(
            &AuditTarget::aes(CoalescingPolicy::Baseline, 32, tb),
            &samples,
            &[stage],
            &AuditSpec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("short"), "{err}");
    }

    #[test]
    fn stage_channels_are_tested_alongside_timing() {
        let (samples, true_byte) = perfect_leak_samples(128);
        // One stage mirrors the leak, one is constant.
        let leak = StageChannel {
            name: "mirror".into(),
            values: samples.iter().map(|s| s.time * 3.0 + 1.0).collect(),
        };
        let flat = StageChannel {
            name: "flat".into(),
            values: vec![7.0; samples.len()],
        };
        let report = audit_target_with_stages(
            &AuditTarget::aes(CoalescingPolicy::Baseline, 32, true_byte),
            &samples,
            &[leak, flat],
            &AuditSpec::new(),
        )
        .unwrap();
        assert_eq!(report.stages.len(), 2);
        assert!(report.stages[0].leaky, "mirrored stage flags");
        assert!(!report.stages[1].leaky, "constant stage is silent");
    }

    #[test]
    fn mechanism_mapping_covers_every_policy() {
        use CoalescingPolicy as P;
        assert_eq!(mechanism_of(P::Baseline, 32), Some((Mechanism::Fss, 1)));
        assert_eq!(mechanism_of(P::Disabled, 32), Some((Mechanism::Fss, 32)));
        let fss = P::fss(4).unwrap();
        assert_eq!(mechanism_of(fss, 32), Some((Mechanism::Fss, 4)));
        let fss_rts = P::fss_rts(8).unwrap();
        assert_eq!(mechanism_of(fss_rts, 32), Some((Mechanism::FssRts, 8)));
        let rss_rts = P::rss_rts(8).unwrap();
        assert_eq!(mechanism_of(rss_rts, 32), Some((Mechanism::RssRts, 8)));
        let rss = P::rss(8).unwrap();
        assert_eq!(mechanism_of(rss, 32), None, "no closed form for RSS");
    }

    #[test]
    fn report_json_has_the_v1_shape() {
        let (samples, true_byte) = perfect_leak_samples(64);
        let report = audit_samples(
            CoalescingPolicy::Baseline,
            32,
            &samples,
            true_byte,
            &AuditSpec::new(),
        )
        .unwrap();
        let json = report.to_json();
        let v = Value::parse(&json).expect("report JSON parses");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(AUDIT_SCHEMA));
        assert_eq!(v.get("samples").and_then(Value::as_usize), Some(64));
        assert_eq!(
            v.get("channel").and_then(Value::as_str),
            Some("byte-accesses")
        );
        assert_eq!(v.get("leaky").and_then(Value::as_bool), Some(true));
        let timing = v.get("timing").expect("timing object");
        assert!(timing.get("t").and_then(Value::as_f64).is_some());
        assert!(timing.get("mi_corrected_bits").is_some());
        let theory = v.get("theory").expect("theory object");
        assert_eq!(theory.get("ok").and_then(Value::as_bool), Some(true));
        let q = v.get("quantiles").expect("quantiles");
        assert!(q.get("p99").and_then(Value::as_u64).is_some());
        let traj = v.get("trajectory").and_then(Value::as_arr).unwrap();
        assert!(!traj.is_empty());
        // Infinite empirical S encodes as null, not a bare `inf` token.
        let (mut flat, tb) = perfect_leak_samples(16);
        for s in &mut flat {
            s.time = 1.0;
        }
        let r =
            audit_samples(CoalescingPolicy::Baseline, 32, &flat, tb, &AuditSpec::new()).unwrap();
        let v = Value::parse(&r.to_json()).unwrap();
        assert_eq!(
            v.get("empirical").and_then(|e| e.get("s")),
            Some(&Value::Null)
        );
    }
}
