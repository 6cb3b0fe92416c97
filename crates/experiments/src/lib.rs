//! # rcoal-experiments
//!
//! End-to-end experiment harness for the RCoal reproduction: encrypts
//! attacker-style plaintext streams on the simulated GPU under a chosen
//! coalescing policy, packages the observations for the attack suite, and
//! regenerates every table and figure of the paper's evaluation
//! (see [`figures`]).
//!
//! ```no_run
//! use rcoal_experiments::{ExperimentConfig, TimingSource};
//! use rcoal_core::CoalescingPolicy;
//! use rcoal_attack::Attack;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = ExperimentConfig::new(CoalescingPolicy::Baseline, 100, 32).run()?;
//! let attack = Attack::baseline(32);
//! let recovery = attack.recover_key(&data.attack_samples(TimingSource::LastRoundCycles)?)?;
//! println!("{:?}", recovery.outcome(&data.true_last_round_key()));
//! # Ok(())
//! # }
//! ```
//!
//! Every fallible step reports a typed [`ExperimentError`] whose
//! [`std::error::Error::source`] chain preserves the underlying
//! simulator, policy, or attack failure; experiments can also inject
//! hardware faults ([`ExperimentConfig::with_faults`]) to measure how
//! DRAM jitter and dropped replies degrade the attacker's channel.

// Library code must propagate failures as typed errors, never panic;
// test modules are exempt (the harness is the panic handler there).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod audit;
mod count;
pub mod engine;
mod error;
pub mod figures;
mod run;
mod source;
mod telemetry;
mod workload;

pub use audit::audit_data;
pub use count::{count_launch, CountedLoads, LaunchCounts};
pub use engine::{
    decode_run, encode_run, run_to_value, scenario_config, QuarantinedScenario, RunnerReport,
    SweepOutcome, SweepRunner, RUN_SCHEMA,
};
pub use error::ExperimentError;
pub use run::{ExperimentConfig, ExperimentData, TimingSource};
pub use source::SimulatorSource;
pub use telemetry::{ExperimentTelemetry, LaunchTrace, TelemetrySpec};
pub use workload::{demo_key_for, random_lines, random_plaintexts, DEMO_KEY};
