//! Experiment-level telemetry: per-launch traces and the aggregated
//! leakage profile.
//!
//! A [`TelemetrySpec`] on an [`crate::ExperimentConfig`] turns every
//! simulated launch into an instrumented run; the collected
//! [`ExperimentTelemetry`] carries one [`LaunchTrace`] per plaintext plus
//! the launch-order merge of all [`SimProfile`]s. Everything here stays
//! in the cycle domain, so for a fixed seed the whole struct — and its
//! serialized forms — is bit-identical across worker-thread counts.

use rcoal_gpu_sim::{SimProfile, SimTelemetry, DEFAULT_EVENT_CAPACITY};
use rcoal_telemetry::{Event, MetricsRegistry, Severity};

/// What the experiment collects from each simulated launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Events retained per launch (newest win once full).
    pub event_capacity: usize,
    /// Events below this severity are never retained.
    pub min_severity: Severity,
}

impl TelemetrySpec {
    /// Full collection: the default per-launch event capacity at `Debug`.
    pub fn full() -> Self {
        TelemetrySpec {
            event_capacity: DEFAULT_EVENT_CAPACITY,
            min_severity: Severity::Debug,
        }
    }

    /// Profile-only collection: histograms and counters but no retained
    /// events (the cheapest instrumented configuration).
    pub fn profile_only() -> Self {
        TelemetrySpec {
            event_capacity: 0,
            min_severity: Severity::Error,
        }
    }

    /// Overrides the per-launch event capacity.
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity;
        self
    }

    /// Overrides the retained-severity floor.
    pub fn with_min_severity(mut self, min: Severity) -> Self {
        self.min_severity = min;
        self
    }

    /// Builds the per-launch sink this spec describes.
    pub(crate) fn sink(&self) -> SimTelemetry {
        SimTelemetry::with_event_capacity(self.event_capacity).with_min_severity(self.min_severity)
    }
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        Self::full()
    }
}

/// The trace one launch left behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchTrace {
    /// Plaintext / launch index within the experiment.
    pub index: usize,
    /// Retained cycle-stamped events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring (the trace is a suffix when > 0).
    pub dropped: u64,
    /// This launch's leakage profile.
    pub profile: SimProfile,
}

/// Everything an instrumented experiment collected.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExperimentTelemetry {
    /// Per-launch traces, in launch order.
    pub launches: Vec<LaunchTrace>,
    /// All launch profiles merged in launch order.
    pub profile: SimProfile,
}

impl ExperimentTelemetry {
    /// Absorbs one launch's sink. Callers feed launches in index order so
    /// the merged profile stays deterministic.
    pub(crate) fn push(&mut self, index: usize, mut sink: SimTelemetry) {
        self.profile.merge(&sink.profile);
        self.launches.push(LaunchTrace {
            index,
            events: sink.events.take_events(),
            dropped: sink.events.dropped(),
            profile: sink.profile,
        });
    }

    /// Total events retained across all launches.
    pub fn num_events(&self) -> usize {
        self.launches.iter().map(|l| l.events.len()).sum()
    }

    /// Serializes every retained event as JSONL, launch by launch. Each
    /// line is the event's JSON object prefixed with its launch index, so
    /// the interleaved cycle domains stay distinguishable:
    ///
    /// ```text
    /// {"launch":0,"cycle":12,"severity":"info",...}
    /// ```
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for launch in &self.launches {
            for e in &launch.events {
                // Splice the launch index into the event's own object.
                out.push_str(&format!("{{\"launch\":{},", launch.index));
                out.push_str(&e.to_json()[1..]);
                out.push('\n');
            }
        }
        out
    }

    /// Records the aggregate profile into `registry` under `sim.*`:
    /// histograms merged by name, stall/deferral counters, the finish
    /// spread as a gauge, and per-controller row locality under
    /// `sim.mc<i>.*`.
    pub fn record_into(&self, registry: &MetricsRegistry) {
        registry
            .counter("sim.launches")
            .add(self.launches.len() as u64);
        registry
            .counter("sim.trace.events")
            .add(self.num_events() as u64);
        registry
            .counter("sim.trace.dropped")
            .add(self.launches.iter().map(|l| l.dropped).sum());
        registry.merge_hist("sim.accesses_per_load", &self.profile.accesses_per_load);
        registry.merge_hist(
            "sim.accesses_per_subwarp",
            &self.profile.accesses_per_subwarp,
        );
        registry.merge_hist("sim.lanes_per_access", &self.profile.lanes_per_access);
        registry.merge_hist("sim.mem_latency", &self.profile.mem_latency);
        registry
            .counter("sim.issue_stall_cycles")
            .add(self.profile.issue_stall_cycles);
        registry
            .counter("sim.icnt.req_deferred")
            .add(self.profile.icnt_req_deferred);
        registry
            .counter("sim.icnt.reply_deferred")
            .add(self.profile.icnt_reply_deferred);
        registry
            .gauge("sim.warp_finish_spread")
            .raise_to(self.profile.warp_finish_spread);
        for (i, mc) in self.profile.mcs.iter().enumerate() {
            registry
                .counter(&format!("sim.mc{i}.row_hits"))
                .add(mc.row_hits);
            registry
                .counter(&format!("sim.mc{i}.row_misses"))
                .add(mc.row_misses);
            registry
                .counter(&format!("sim.mc{i}.serviced"))
                .add(mc.serviced);
            registry.merge_hist(&format!("sim.mc{i}.queue_depth"), &mc.queue_depth);
        }
    }

    /// The aggregate profile as one stable `rcoal-metrics/v1` JSON
    /// object (a fresh registry, filled by
    /// [`ExperimentTelemetry::record_into`], then snapshotted — so the
    /// string is deterministic for a fixed seed).
    pub fn metrics_json(&self) -> String {
        let registry = MetricsRegistry::new();
        self.record_into(&registry);
        registry.snapshot().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders_compose() {
        let spec = TelemetrySpec::full()
            .with_event_capacity(16)
            .with_min_severity(Severity::Warn);
        assert_eq!(spec.event_capacity, 16);
        assert_eq!(spec.min_severity, Severity::Warn);
        assert_eq!(TelemetrySpec::profile_only().event_capacity, 0);
        assert_eq!(TelemetrySpec::default(), TelemetrySpec::full());
    }

    #[test]
    fn trace_jsonl_prefixes_the_launch_index() {
        let mut tel = ExperimentTelemetry::default();
        let mut sink = SimTelemetry::new();
        sink.events.record(Event {
            cycle: 3,
            severity: Severity::Info,
            component: "sim",
            code: "launch",
            a: 1,
            b: 32,
        });
        tel.push(5, sink);
        let jsonl = tel.trace_jsonl();
        let line = jsonl.lines().next().unwrap();
        assert!(line.starts_with("{\"launch\":5,\"cycle\":3,"));
        assert!(line.ends_with('}'));
        assert_eq!(tel.num_events(), 1);
    }

    #[test]
    fn record_into_exposes_profile_and_mcs() {
        let mut tel = ExperimentTelemetry::default();
        let mut sink = SimTelemetry::new();
        sink.profile.issue_stall_cycles = 11;
        sink.profile.accesses_per_load.record(4);
        sink.profile.ensure_mcs(2);
        sink.profile.mcs[1].row_hits = 3;
        sink.profile.mcs[1].serviced = 4;
        tel.push(0, sink);
        let reg = MetricsRegistry::new();
        tel.record_into(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["sim.launches"], 1);
        assert_eq!(snap.counters["sim.issue_stall_cycles"], 11);
        assert_eq!(snap.counters["sim.mc1.row_hits"], 3);
        assert_eq!(snap.hists["sim.accesses_per_load"].count(), 1);
        assert!(tel
            .metrics_json()
            .starts_with("{\"schema\":\"rcoal-metrics/v1\""));
    }
}
