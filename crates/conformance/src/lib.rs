//! # rcoal-conformance — validating the validator
//!
//! RCoal's security argument rests on the simulator computing
//! coalesced-access counts and DRAM service times exactly as the paper's
//! model prescribes; a silent off-by-one in subwarp partitioning would
//! change every figure *and* the Table II validation without failing a
//! single behavioural test. This crate makes the evaluation harness
//! itself falsifiable, three independent ways:
//!
//! 1. **Differential oracles** ([`oracle`], [`dram_oracle`]) —
//!    straight-line, queueing-free reference implementations of the
//!    coalescer (subwarp partition → unique-block count) and of DRAM
//!    service timing (FR-FCFS row-hit/miss accounting from first
//!    principles), checked request-for-request against the cycle-level
//!    simulator across a seeded corpus of randomized scenarios; the
//!    FIFO crossbar is diffed delivery for delivery against the
//!    heap-based one it replaced ([`icnt_oracle`]). The
//!    attack and audit statistics get the same treatment: the streaming
//!    Pearson engine against a two-pass sweep ([`streaming`]), the
//!    audit's ledger estimators against slice Welch/MI ([`audit_oracle`]),
//!    the reused kernels and inline subwarp draws of sample
//!    generation against fresh builds and heap-based draws
//!    ([`generation`]), and the trace-free functional counts against
//!    trace-based counting ([`functional`]).
//! 2. **Golden-master fixtures** ([`golden`]) — content-hashed
//!    `SimStats` / run-result snapshots for paper-default configurations
//!    committed as JSON under `tests/goldens/`, with drift reported as a
//!    field-level diff and an explicit `RCOAL_UPDATE_GOLDENS=1`
//!    regeneration path.
//! 3. **Invariant checkers** ([`checker`]) — a [`SimChecker`] consuming
//!    the existing `SimTelemetry` event stream and asserting
//!    conservation (every issued memory request serviced exactly once),
//!    cycle monotonicity, subwarp-partition well-formedness under every
//!    policy, and RNG-stream isolation (timing-irrelevant code never
//!    advances the security RNG).
//!
//! The [`strategies`] module is the shared corpus: seeded,
//! proptest-style generators over policies, address streams, kernel
//! traces, and `rcoal-scenario` documents, so every crate's property
//! tests can draw from one input space. [`run_suite`] ties everything
//! into the report printed by `rcoal-cli conformance`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

pub mod audit_oracle;
pub mod checker;
pub mod dram_oracle;
pub mod functional;
pub mod generation;
pub mod golden;
pub mod icnt_oracle;
pub mod lockstep;
pub mod oracle;
pub mod predictor;
pub mod report;
pub mod strategies;
pub mod streaming;

pub use checker::{CheckedRun, CountingRng, SimChecker};
pub use dram_oracle::{check_dram_case, reference_dram_service, DramOracleResult};
pub use golden::{
    builtin_goldens, check_value, default_goldens_dir, update_requested, GoldenOutcome,
    GOLDEN_SCHEMA,
};
pub use lockstep::{check_lockstep_case, idle_corpus};
pub use oracle::{check_sim_case, reference_coalesce, RefAccess};
pub use report::{SectionReport, SuiteReport};
pub use strategies::{policy_pool, policy_pool_for, scenario_corpus, sim_corpus, SimScenario};

/// Failure of the conformance machinery itself (as opposed to a
/// conformance *violation*, which the suite reports and keeps running).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceError {
    msg: String,
}

impl ConformanceError {
    /// Wraps a message.
    pub fn new(msg: impl Into<String>) -> Self {
        ConformanceError { msg: msg.into() }
    }
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conformance error: {}", self.msg)
    }
}

impl std::error::Error for ConformanceError {}

/// Options for [`run_suite`].
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Number of simulator differential scenarios (the acceptance floor
    /// is 200; the default stays above it).
    pub cases: usize,
    /// Master seed for every generator in the suite.
    pub seed: u64,
    /// Directory holding the golden fixtures.
    pub goldens_dir: std::path::PathBuf,
    /// Rewrite goldens instead of diffing against them.
    pub update_goldens: bool,
}

impl Default for SuiteOptions {
    fn default() -> Self {
        SuiteOptions {
            cases: 240,
            seed: 0xc0f0_24a1,
            goldens_dir: golden::default_goldens_dir(),
            update_goldens: golden::update_requested(),
        }
    }
}

/// Runs the full conformance suite: both differential oracles over the
/// seeded corpus, the invariant checker, scenario-document round-trips,
/// and the golden masters.
///
/// Violations are collected into the returned [`SuiteReport`]; only
/// infrastructure failures (e.g. an unwritable goldens directory) abort.
///
/// # Errors
///
/// Returns [`ConformanceError`] when the suite cannot run at all.
pub fn run_suite(opts: &SuiteOptions) -> Result<SuiteReport, ConformanceError> {
    let sections = vec![
        oracle::unit_section(opts.seed),
        predictor::section(opts.seed),
        generation::section(opts.seed),
        functional::section(opts.seed),
        oracle::sim_section(opts.seed, opts.cases)?,
        dram_oracle::section(opts.seed, (opts.cases / 4).max(16)),
        icnt_oracle::section(opts.seed, (opts.cases / 2).max(24)),
        checker::section(opts.seed, (opts.cases / 10).max(12))?,
        strategies::scenario_section(opts.seed, 64),
        lockstep::section(opts.seed, (opts.cases / 4).max(24)),
        streaming::section(opts.seed, opts.cases / 2)?,
        audit_oracle::section(opts.seed)?,
        golden::section(&opts.goldens_dir, opts.update_goldens)?,
    ];
    Ok(SuiteReport { sections })
}
