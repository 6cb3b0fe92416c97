//! # rcoal-gpu-sim
//!
//! A cycle-level GPU timing simulator modeling the architecture the RCoal
//! paper evaluates on (its Table I): 15 SMs with 32-wide SIMT and two warp
//! schedulers each, an LD/ST path whose memory coalescing unit applies an
//! [`rcoal_core::CoalescingPolicy`], a crossbar interconnect, and six GDDR5
//! memory controllers with FR-FCFS scheduling over 16 banks in 4 bank
//! groups, using Hynix GDDR5 timing parameters.
//!
//! The simulator is *workload-agnostic*: a [`Kernel`] supplies per-warp
//! instruction traces (compute delays, warp-wide loads, round markers) and
//! the simulator reports cycle counts and coalesced-access statistics. The
//! AES workload in `rcoal-aes` is one such kernel.
//!
//! Fidelity notes relative to GPGPU-Sim: the paper disables caches and
//! MSHRs (§VII) and so does the default configuration here, though both
//! exist as ablation levers (`l1_sets`, `mshr_entries`); what is always
//! on — issue, coalescing, interconnect serialization, DRAM bank timing
//! and row locality — is exactly the path that carries the coalescing
//! timing channel.
//!
//! For robustness experiments the simulator can also inject seeded
//! hardware faults ([`FaultPlan`]): per-controller DRAM reply jitter,
//! dropped replies with a bounded retransmit budget, and transient
//! interconnect backpressure. A forward-progress watchdog turns the
//! resulting livelocks into [`SimError::Stalled`] with a diagnostic
//! naming the stuck components.
//!
//! # Example
//!
//! ```
//! use rcoal_gpu_sim::{GpuConfig, GpuSimulator, TraceKernel, WarpTrace, TraceInstr};
//! use rcoal_core::CoalescingPolicy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One warp of 4 threads loading from scattered addresses.
//! let trace = WarpTrace::from_instrs(vec![
//!     TraceInstr::load((0..4).map(|i| Some(i * 4096)).collect()),
//! ]);
//! let kernel = TraceKernel::new(vec![trace], 4);
//! let sim = GpuSimulator::new(GpuConfig::default());
//! let stats = sim.run(&kernel, CoalescingPolicy::Baseline, 7)?;
//! assert_eq!(stats.total_accesses, 4); // four distinct blocks
//! assert!(stats.total_cycles > 0);
//! # Ok(())
//! # }
//! ```

// Library code must propagate failures as typed errors, never panic;
// test modules are exempt (the harness is the panic handler there).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod address;
mod cache;
mod config;
mod dram;
mod fault;
mod icnt;
mod kernel;
mod launch;
mod sim;
mod sm;
mod stats;
mod synthetic;
mod telemetry;

pub use address::{AddressMapper, PhysLoc};
pub use config::{DramTiming, GpuConfig, SchedulerPolicy};
pub use dram::MemoryController;
pub use fault::{FaultPlan, IcntBackpressure, McFault, ReplyJitter};
pub use icnt::Crossbar;
pub use kernel::{Kernel, TraceInstr, TraceKernel, TraceWriter, WarpTrace};
pub use launch::LaunchPolicy;
pub use sim::{GpuSimulator, SimError};
pub use stats::SimStats;
pub use synthetic::{AccessPattern, SyntheticKernel};
pub use telemetry::{McProfile, SimProfile, SimTelemetry, DEFAULT_EVENT_CAPACITY};
