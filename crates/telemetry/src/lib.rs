//! # rcoal-telemetry — observability primitives for the RCoal workspace
//!
//! The paper's whole argument is about *where* timing signal comes from
//! (coalesced-access counts, DRAM row locality, interconnect
//! serialization), so the pipeline needs a profiling layer that can show
//! per-component behavior without perturbing it. This crate provides the
//! pure-`std` building blocks; the simulator, experiment harness, attack
//! suite, and CLI assemble them:
//!
//! * [`Hist64`] — a plain (non-atomic) fixed-bucket log2 histogram for
//!   single-threaded hot paths like the simulator's cycle loop. Cheap to
//!   record into, mergeable across launches, snapshotable to JSON.
//! * [`Event`] / [`EventRing`] / [`Severity`] — a ring-buffered,
//!   severity-leveled structured event stream. Inside the simulator every
//!   event carries a **cycle** timestamp (never wall-clock), so traces
//!   are bit-identical across worker-thread counts and compose with the
//!   `rcoal-parallel` determinism contract.
//! * [`MetricsRegistry`] / [`Counter`] / [`Gauge`] / [`AtomicHist`] — an
//!   `Arc`-shareable, thread-safe registry for the wall-clock
//!   (host-domain) edges: experiment sweeps, attack guess throughput,
//!   worker-pool utilization. Snapshots ([`MetricsSnapshot`]) serialize
//!   to a stable, sorted JSON form.
//! * [`Span`] — a wall-clock span that records its duration into the
//!   registry. Only ever used at the experiment/CLI edges; cycle-domain
//!   code must use cycle timestamps instead.
//!
//! The two domains are deliberately separate: **cycle-domain** telemetry
//! (events, simulator profiles) is deterministic and takes part in the
//! workspace's bit-identical-across-thread-counts guarantees;
//! **host-domain** metrics (spans, pool utilization, samples/sec) are
//! wall-clock truths about one run of one machine and are never compared
//! across runs.

// Library code must propagate failures as typed errors, never panic;
// test modules are exempt (the harness is the panic handler there).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod hist;
mod json;
mod metrics;
mod span;
mod trace;

pub use hist::{log2_bucket, Hist64, NUM_BUCKETS};
pub use json::json_escape;
pub use metrics::{AtomicHist, Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use span::Span;
pub use trace::{Event, EventRing, Severity};
