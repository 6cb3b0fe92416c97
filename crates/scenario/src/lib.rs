//! # rcoal-scenario — declarative scenarios, sweeps, and the run cache
//!
//! The workspace's experiments used to be *code*: every figure generator
//! hand-rolled its own policy × subwarp × seed loops and re-simulated
//! configurations its siblings had already run. This crate turns a run
//! into *data*:
//!
//! * [`Scenario`] — a versioned (`rcoal-scenario/v1`), JSON
//!   round-trippable description of exactly one run: policy, workload
//!   size, seed, key, GPU-config overrides, fault plan. Everything that
//!   determines the run's results, and nothing that doesn't (thread
//!   counts, host metrics and instrumentation stay out — results are
//!   bit-identical across them).
//! * [`SweepSpec`] — cartesian grids over a base scenario plus explicit
//!   scenario lists (`rcoal-sweep/v1`), expanding deterministically to a
//!   `Vec<Scenario>`.
//! * [`RunCache`] — an in-memory + optional on-disk memo keyed by
//!   [`Scenario::content_hash`] (FNV-1a 64 over the canonical JSON), so
//!   shared configurations across generators simulate exactly once. The
//!   hash depends only on scenario *content*: equal scenarios hash
//!   equally in every process.
//!
//! The crate sits below `rcoal-experiments` in the dependency order; the
//! experiment layer supplies the scenario → `ExperimentConfig`
//! conversion, the `ExperimentData` disk codec, and the sweep runner
//! that executes expansions through `rcoal-parallel`.
//!
//! Serialization is pure std (no serde), following the hand-written
//! JSON conventions of `rcoal-telemetry` — with one addition: the
//! [`json::Value`] model stores number *literals*, so full-range `u64`
//! seeds survive parsing exactly instead of being rounded through `f64`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod json;

mod cache;
mod chaos;
mod scenario;
mod sweep;

pub use cache::{
    decode_entry, encode_entry, CacheStats, DecodeFn, EncodeFn, RunCache, StoreAudit, ENTRY_SCHEMA,
};
pub use chaos::ChaosPlan;
pub use scenario::{
    fault_plan_from_value, fault_plan_to_value, fnv1a_64, GpuOverrides, Scenario, ScenarioError,
    DEFAULT_SEED, SCENARIO_SCHEMA,
};
pub use sweep::{parse_spec, SweepSpec, SWEEP_SCHEMA};
