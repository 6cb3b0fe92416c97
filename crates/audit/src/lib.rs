//! # rcoal-audit — leakage observability for randomized coalescing
//!
//! RCoal's security argument is quantitative: a defense is only as good
//! as the number of timing samples it forces the attacker to collect
//! (Eq. 4, Table II). This crate turns that argument into an
//! instrument. Given the attack-sample stream a simulated run already
//! produces — and optionally per-launch stage telemetry — it computes:
//!
//! * a TVLA-style **Welch t-test** between the samples the attacker's
//!   own model predicts slow and those it predicts fast (the
//!   "specific" TVLA partition, keyed by the true key byte),
//! * a binned **mutual-information** estimate I(prediction; channel)
//!   with Miller–Madow bias correction,
//! * the **empirical normalized sample count** Ŝ = 1/ρ̂² read off the
//!   streaming attack's correlation trajectory, and
//! * a **cross-check** of ρ̂ against `rcoal-theory`'s closed form, with
//!   per-mechanism tolerances.
//!
//! The result is a typed [`LeakageReport`] with a stable
//! `rcoal-audit/v1` JSON encoding, and a [`evaluate_gate`] CI gate
//! that is falsifiable in both directions: a config claimed secure
//! fails when it leaks, and the known-leaky baseline fails when the
//! instruments go blind.
//!
//! Everything here is deterministic — fixed seeds, no iteration-order
//! dependence — so reports inherit the workspace's bit-identical-
//! across-thread-counts contract from their inputs.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod gate;
mod report;
mod spec;
mod stats;
mod stream;

pub use gate::{evaluate_gate, Expectation, GateOutcome};
pub use report::{
    audit_samples, audit_target_with_stages, mechanism_of, tolerance_for, AuditError, AuditTarget,
    ChannelQuantiles, ChannelTest, LeakageReport, StageChannel, TheoryCheck, TrajectoryPoint,
    AUDIT_SCHEMA,
};
pub use spec::{defaults, AuditChannel, AuditSpec};
pub use stats::{MiEstimate, WelchT, T_CLAMP};
pub use stream::{StreamingAudit, StreamingChannelTest};
