//! In-memory span recorder for the traced runs.
//!
//! Spans are opened around the benchmark's own calls into each layer's
//! public functions, carry a parent link, and stay in memory until the
//! run ends. A layer's self time is its span's duration minus the part
//! its child spans cover. A disabled tracer records nothing, so the
//! untraced and traced passes share one code path.

use rcoal_scenario::json::{ObjBuilder, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Span-name prefix of probes: inner-layer replays of a pass's inputs.
/// Probes are excluded from a pass's wall time and from coverage.
pub const PROBE: &str = "probe.";

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records nested spans when enabled; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost open span (which must be `id`).
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            debug_assert_eq!(self.open.last(), Some(&id), "spans must nest");
            self.open.pop();
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    fn seconds(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    fn is_probe(&self, id: usize) -> bool {
        self.spans[id].name.starts_with(PROBE)
    }

    fn descends_from(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Self time in seconds of every span name under `root` (inclusive),
    /// summed over that name's occurrences.
    pub fn self_times(&self, root: Option<usize>) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let Some(root) = root else {
            return out;
        };
        let mut child_time = vec![0.0f64; self.spans.len()];
        for id in root..self.spans.len() {
            if let Some(p) = self.spans[id].parent {
                if p >= root {
                    child_time[p] += self.seconds(id);
                }
            }
        }
        for (id, child) in child_time.iter().enumerate().skip(root) {
            if self.descends_from(id, root) {
                *out.entry(self.spans[id].name).or_insert(0.0) += self.seconds(id) - child;
            }
        }
        out
    }

    /// Wall time of `root` minus the probes directly under it.
    pub fn wall_without_probes(&self, root: Option<usize>) -> f64 {
        let Some(root) = root else {
            return 0.0;
        };
        let probes: f64 = (root + 1..self.spans.len())
            .filter(|&id| self.spans[id].parent == Some(root) && self.is_probe(id))
            .map(|id| self.seconds(id))
            .sum();
        self.seconds(root) - probes
    }

    /// Every recorded span as JSON: name, parent index, start and end in
    /// nanoseconds since the tracer was created.
    pub fn to_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                ObjBuilder::new()
                    .field("name", Value::str(s.name))
                    .field("parent", s.parent.map_or(Value::Null, Value::usize))
                    .field("start_ns", Value::u64(s.start_ns))
                    .field("end_ns", Value::u64(s.end_ns))
                    .build()
            })
            .collect();
        Value::Arr(spans).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_probes_leave_the_wall() {
        let mut t = Tracer::new(true);
        let root = t.enter("pass");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let probe = t.enter("probe.a");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(probe);
        t.exit(root);
        let times = t.self_times(root);
        let total: f64 = times.values().sum();
        assert!(
            (total - t.seconds(0)).abs() < 1e-6,
            "self times partition the root"
        );
        assert!(times["a"] >= 0.004);
        assert!(t.wall_without_probes(root) < t.seconds(0));
        assert!(Tracer::new(false).enter("x").is_none());
    }
}
