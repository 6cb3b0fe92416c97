//! What to audit and how strictly: [`AuditSpec`] and [`AuditChannel`].

use crate::stats::T_CLAMP;
use std::fmt;
use std::str::FromStr;

/// Which observable the audit treats as the attacker-visible channel.
///
/// The channel determines both the timing value attached to each
/// attack sample and how directly the report can be compared against
/// `rcoal-theory`: the closed-form model predicts the correlation of
/// the *per-byte coalesced access count*, so only
/// [`AuditChannel::ByteAccesses`] carries a theory cross-check; the
/// aggregated and cycle-level channels dilute the per-byte signal with
/// the other fifteen bytes and with pipeline noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuditChannel {
    /// Coalesced accesses for the audited key byte's last-round load —
    /// the clean channel Eq. 4 and Table II model.
    ByteAccesses,
    /// Total last-round coalesced accesses (all 16 bytes summed).
    LastRoundAccesses,
    /// Simulated cycles spent in the last AES round (needs a
    /// cycle-accurate run, not `functional_only`).
    LastRoundCycles,
    /// Total simulated kernel cycles (needs a cycle-accurate run).
    TotalCycles,
}

impl AuditChannel {
    /// Stable identifier used in `rcoal-audit/v1` JSON and on the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            AuditChannel::ByteAccesses => "byte-accesses",
            AuditChannel::LastRoundAccesses => "last-round-accesses",
            AuditChannel::LastRoundCycles => "last-round-cycles",
            AuditChannel::TotalCycles => "total-cycles",
        }
    }

    /// Whether this channel needs cycle timing (a non-functional run).
    pub fn needs_cycles(&self) -> bool {
        matches!(
            self,
            AuditChannel::LastRoundCycles | AuditChannel::TotalCycles
        )
    }

    /// Whether `rcoal-theory`'s normalized-S prediction applies to this
    /// channel directly.
    pub fn theory_comparable(&self) -> bool {
        matches!(self, AuditChannel::ByteAccesses)
    }
}

impl fmt::Display for AuditChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AuditChannel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "byte-accesses" => Ok(AuditChannel::ByteAccesses),
            "last-round-accesses" => Ok(AuditChannel::LastRoundAccesses),
            "last-round-cycles" => Ok(AuditChannel::LastRoundCycles),
            "total-cycles" => Ok(AuditChannel::TotalCycles),
            other => Err(format!(
                "unknown audit channel '{other}' (expected byte-accesses, \
                 last-round-accesses, last-round-cycles, or total-cycles)"
            )),
        }
    }
}

/// Defaults live here so the CLI, CI gate, and docs quote one source.
pub mod defaults {
    /// TVLA decision threshold on `|t|`. The conventional 4.5 from the
    /// TVLA methodology: under H0 the chance of |t| ≥ 4.5 is < 1e-5,
    /// so a pass is overwhelmingly unlikely to be a fluke.
    pub const T_THRESHOLD: f64 = 4.5;
    /// Bins per axis for the mutual-information estimate.
    pub const MI_BINS: usize = 16;
    /// Corrected-MI floor (bits) above which a channel counts as
    /// carrying key information. Calibrated to the gate's default
    /// budget (512 samples, 16 bins): the residual bias the
    /// Miller–Madow correction cannot remove from a few-hundred-cell
    /// joint histogram measures ≤ 0.14 bits across the paper's secure
    /// (RSS+RTS) configurations, while the vulnerable baseline channel
    /// carries > 2 bits — 0.25 splits that gap with 2x headroom on the
    /// quiet side. Audits at much larger sample counts can (and
    /// should) lower the floor: bias shrinks as 1/n.
    pub const MI_FLOOR_BITS: f64 = 0.25;
    /// Checkpoints along the correlation trajectory.
    pub const CHECKPOINTS: usize = 8;
    /// Attacker seed (decorrelated from the simulator's default seeds).
    pub const ATTACK_SEED: u64 = 0xa0d17;
}

/// Configuration for one leakage audit.
///
/// Construct with [`AuditSpec::new`] and refine with the builders; the
/// defaults (from [`defaults`]) are the ones the CI gate runs with,
/// calibrated for a 512-sample budget — see DESIGN.md §13 for why the
/// thresholds and the budget move together.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditSpec {
    /// Key byte under audit (0..16).
    pub byte: usize,
    /// Channel the attacker is assumed to observe.
    pub channel: AuditChannel,
    /// Seed for the audit's access predictors (independent of the
    /// simulation seed — the auditor models an external attacker).
    pub attack_seed: u64,
    /// `|t|` at or above this flags the TVLA test.
    pub t_threshold: f64,
    /// Bins per axis for the MI estimate.
    pub mi_bins: usize,
    /// Corrected MI (bits) above this flags the MI test.
    pub mi_floor_bits: f64,
    /// Number of evenly spaced correlation-trajectory checkpoints.
    pub checkpoints: usize,
}

impl Default for AuditSpec {
    fn default() -> Self {
        AuditSpec {
            byte: 0,
            channel: AuditChannel::ByteAccesses,
            attack_seed: defaults::ATTACK_SEED,
            t_threshold: defaults::T_THRESHOLD,
            mi_bins: defaults::MI_BINS,
            mi_floor_bits: defaults::MI_FLOOR_BITS,
            checkpoints: defaults::CHECKPOINTS,
        }
    }
}

impl AuditSpec {
    /// The default audit: byte 0 over the per-byte access channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Audits a different key byte.
    pub fn with_byte(mut self, byte: usize) -> Self {
        self.byte = byte;
        self
    }

    /// Audits a different channel.
    pub fn with_channel(mut self, channel: AuditChannel) -> Self {
        self.channel = channel;
        self
    }

    /// Reseeds the audit's attacker-side predictors.
    pub fn with_attack_seed(mut self, seed: u64) -> Self {
        self.attack_seed = seed;
        self
    }

    /// Overrides the TVLA `|t|` threshold.
    pub fn with_t_threshold(mut self, t: f64) -> Self {
        self.t_threshold = t;
        self
    }

    /// Overrides the MI bin count.
    pub fn with_mi_bins(mut self, bins: usize) -> Self {
        self.mi_bins = bins;
        self
    }

    /// Overrides the corrected-MI floor.
    pub fn with_mi_floor_bits(mut self, bits: f64) -> Self {
        self.mi_floor_bits = bits;
        self
    }

    /// Overrides the trajectory checkpoint count.
    pub fn with_checkpoints(mut self, n: usize) -> Self {
        self.checkpoints = n;
        self
    }

    /// Validates field ranges; audits call this before any work.
    pub fn validate(&self) -> Result<(), String> {
        if self.byte >= 16 {
            return Err(format!("byte index {} out of range 0..16", self.byte));
        }
        // `<=` would misread NaN as in-range: a NaN threshold must fail.
        if self.t_threshold.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(format!("t-threshold {} must be positive", self.t_threshold));
        }
        // |t| is clamped at T_CLAMP, so a larger threshold (or ∞) can
        // never flag and would silence the gate.
        if self.t_threshold > T_CLAMP {
            return Err(format!(
                "t-threshold {} must not exceed the t clamp {T_CLAMP:e}",
                self.t_threshold
            ));
        }
        if self.mi_bins < 2 {
            return Err(format!("mi bins {} must be at least 2", self.mi_bins));
        }
        if !matches!(
            self.mi_floor_bits.partial_cmp(&0.0),
            Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
        ) {
            return Err(format!(
                "mi floor {} must be non-negative",
                self.mi_floor_bits
            ));
        }
        // Corrected MI cannot exceed log2(bins), the entropy of a
        // uniform marginal over the bins: a floor there (or ∞) can never
        // be passed and would silence the gate.
        let mi_ceiling = (self.mi_bins as f64).log2();
        if self.mi_floor_bits >= mi_ceiling {
            return Err(format!(
                "mi floor {} bits must be below log2({}) = {mi_ceiling} bits",
                self.mi_floor_bits, self.mi_bins
            ));
        }
        if self.checkpoints == 0 {
            return Err("checkpoint count must be at least 1".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_names_round_trip() {
        for c in [
            AuditChannel::ByteAccesses,
            AuditChannel::LastRoundAccesses,
            AuditChannel::LastRoundCycles,
            AuditChannel::TotalCycles,
        ] {
            assert_eq!(c.name().parse::<AuditChannel>().unwrap(), c);
            assert_eq!(c.to_string(), c.name());
        }
        assert!("warp-vibes".parse::<AuditChannel>().is_err());
    }

    #[test]
    fn channel_capabilities() {
        assert!(AuditChannel::ByteAccesses.theory_comparable());
        assert!(!AuditChannel::TotalCycles.theory_comparable());
        assert!(!AuditChannel::ByteAccesses.needs_cycles());
        assert!(AuditChannel::LastRoundCycles.needs_cycles());
    }

    #[test]
    fn spec_builders_and_validation() {
        let spec = AuditSpec::new()
            .with_byte(5)
            .with_channel(AuditChannel::TotalCycles)
            .with_attack_seed(9)
            .with_t_threshold(3.0)
            .with_mi_bins(8)
            .with_mi_floor_bits(0.1)
            .with_checkpoints(4);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.byte, 5);
        assert_eq!(spec.mi_bins, 8);
        assert!(AuditSpec::new().with_byte(16).validate().is_err());
        assert!(AuditSpec::new().with_t_threshold(0.0).validate().is_err());
        assert!(AuditSpec::new().with_mi_bins(1).validate().is_err());
        assert!(AuditSpec::new()
            .with_mi_floor_bits(-1.0)
            .validate()
            .is_err());
        assert!(AuditSpec::new().with_checkpoints(0).validate().is_err());
        // Thresholds no report can reach would silence the gate.
        assert!(AuditSpec::new()
            .with_t_threshold(T_CLAMP)
            .validate()
            .is_ok());
        for t in [f64::INFINITY, f64::NAN, 2e6, T_CLAMP * (1.0 + f64::EPSILON)] {
            let err = AuditSpec::new().with_t_threshold(t).validate().unwrap_err();
            assert!(err.contains("t-threshold"), "{t}: {err}");
        }
        assert!(AuditSpec::new().with_mi_floor_bits(3.99).validate().is_ok());
        for floor in [f64::INFINITY, f64::NAN, 4.0, 5.0] {
            let err = AuditSpec::new()
                .with_mi_floor_bits(floor)
                .validate()
                .unwrap_err();
            assert!(err.contains("mi floor"), "{floor}: {err}");
        }
        assert!(AuditSpec::new()
            .with_mi_bins(2)
            .with_mi_floor_bits(1.0)
            .validate()
            .is_err());
    }
}
