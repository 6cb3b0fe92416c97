//! # rcoal — randomized GPU memory-access coalescing against timing attacks
//!
//! A full-system Rust reproduction of *RCoal: Mitigating GPU Timing Attack
//! via Subwarp-Based Randomized Coalescing Techniques* (HPCA 2018).
//!
//! This facade crate re-exports the workspace's components:
//!
//! * [`core`] — the subwarp coalescing mechanisms (FSS, RSS, RTS) and the
//!   modified coalescing unit; the paper's primary contribution.
//! * [`sim`] — a cycle-level GPU timing simulator (SMs, warp scheduler,
//!   crossbar interconnect, GDDR5 memory controllers with FR-FCFS).
//! * [`aes`] — AES-128 with T-tables plus the GPU kernel model that turns
//!   encryptions into per-warp memory-access traces.
//! * [`attack`] — the correlation timing attacks (baseline, FSS, RSS, and
//!   the +RTS "corresponding attacks") used to evaluate each defense.
//! * [`theory`] — the analytical security model reproducing Table II.
//! * [`audit`] — the leakage-observability layer: TVLA-style t-tests,
//!   mutual-information estimates, empirical normalized-S, and theory
//!   cross-checks packaged as a typed [`LeakageReport`] with a CI gate.
//! * [`scenario`] — declarative run descriptions ([`Scenario`],
//!   [`SweepSpec`]) with stable content hashes and the content-addressed
//!   run cache behind the figure generators.
//! * [`experiments`] — end-to-end experiment harness regenerating every
//!   table and figure in the paper's evaluation, executed through the
//!   scenario/sweep engine ([`SweepRunner`]).
//! * [`conformance`] — the validation layer for all of the above:
//!   differential oracles for the coalescer and DRAM scheduler,
//!   golden-master fixtures, and telemetry-driven invariant checking.
//!
//! [`Scenario`]: prelude::Scenario
//! [`LeakageReport`]: prelude::LeakageReport
//! [`SweepSpec`]: prelude::SweepSpec
//! [`SweepRunner`]: prelude::SweepRunner
//!
//! # Quickstart
//!
//! ```
//! use rcoal::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Encrypt 100 random plaintexts (32 lines each) on the simulated GPU
//! // under the vulnerable baseline policy, then under RSS+RTS.
//! let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, 8, 32).with_seed(1);
//! let base = cfg.run()?;
//!
//! let rss_rts = ExperimentConfig::new(CoalescingPolicy::rss_rts(4)?, 8, 32)
//!     .with_seed(1)
//!     .run()?;
//!
//! // Randomization costs performance but raises security.
//! assert!(rss_rts.mean_total_accesses() > base.mean_total_accesses());
//! # Ok(())
//! # }
//! ```

pub mod cli;

/// Compiles the README's code blocks as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use rcoal_aes as aes;
pub use rcoal_attack as attack;
pub use rcoal_audit as audit;
pub use rcoal_conformance as conformance;
pub use rcoal_core as core;
pub use rcoal_experiments as experiments;
pub use rcoal_gpu_sim as sim;
pub use rcoal_parallel as parallel;
pub use rcoal_scenario as scenario;
pub use rcoal_telemetry as telemetry;
pub use rcoal_theory as theory;
pub use rcoal_workload as workload;

/// Commonly used items, importable with `use rcoal::prelude::*`.
pub mod prelude {
    pub use rcoal_aes::{Aes128, TableKernel};
    pub use rcoal_attack::{
        stream_recover_byte, stream_recover_key, Attack, AttackError, AttackSample, EarlyStop,
        KeyRecovery, RecoveryOutcome, SampleSource, SliceSource, StreamOptions,
    };
    pub use rcoal_audit::{
        evaluate_gate, AuditChannel, AuditSpec, Expectation, GateOutcome, LeakageReport,
        StreamingAudit,
    };
    pub use rcoal_conformance::{run_suite, SuiteOptions, SuiteReport};
    pub use rcoal_core::{
        Coalescer, CoalescingPolicy, NumSubwarps, SizeDistribution, SubwarpAssignment,
    };
    pub use rcoal_experiments::{
        audit_data, ExperimentConfig, ExperimentData, ExperimentError, ExperimentTelemetry,
        LaunchTrace, RunnerReport, SimulatorSource, SweepRunner, TelemetrySpec, TimingSource,
    };
    pub use rcoal_gpu_sim::{
        FaultPlan, GpuConfig, GpuSimulator, ReplyJitter, SimError, SimProfile, SimStats,
        SimTelemetry,
    };
    pub use rcoal_parallel::{parallel_map, resolve_threads, PoolReport};
    pub use rcoal_scenario::{
        parse_spec, GpuOverrides, RunCache, Scenario, ScenarioError, SweepSpec,
    };
    pub use rcoal_telemetry::{
        Event, EventRing, Hist64, MetricsRegistry, MetricsSnapshot, Severity,
    };
    pub use rcoal_theory::{table2, Mechanism, RCoalScore, SecurityModel};
    pub use rcoal_workload::{KernelWorkload, WorkloadGeometry};
}
