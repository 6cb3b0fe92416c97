//! The sweep engine: executes declarative scenarios through the
//! experiment pipeline with a content-addressed run cache.
//!
//! This is where the dependency layers meet: `rcoal-scenario` describes
//! runs as data ([`Scenario`], [`SweepSpec`], [`RunCache`]) without
//! knowing how to execute them; this module supplies the three missing
//! pieces —
//!
//! * [`scenario_config`]: scenario → [`ExperimentConfig`] conversion,
//! * the `rcoal-run/v1` disk codec for [`ExperimentData`]
//!   ([`encode_run`] / [`decode_run`]), and
//! * [`SweepRunner`]: deterministic, cache-aware execution of scenario
//!   lists through `rcoal-parallel`.
//!
//! ## Execution contract
//!
//! For a scenario list, the runner resolves each *distinct* scenario
//! (by content hash) exactly once — from the cache when possible,
//! otherwise by one fresh, supervised simulation — and assembles results
//! in input order. Because experiment results are a pure function of the
//! scenario (bit-identical at any thread count), a cache hit is
//! indistinguishable from a fresh run; the equivalence test pins this.
//! Every batch runs on [`SweepRunner::run_scenarios_supervised`]; a
//! failing scenario never discards the rows the others finished.
//!
//! ## Caching policy
//!
//! Every scenario run round-trips losslessly through JSON —
//! [`ExperimentData`] is integers and byte blocks, no floats — so disk
//! hits are exact. Only an instrumented run (built with
//! [`ExperimentConfig::with_telemetry`], never from a scenario) has no
//! disk form: traces are bulky and mostly write-once.

use crate::error::ExperimentError;
use crate::run::{ExperimentConfig, ExperimentData};
use rcoal_aes::Block;
use rcoal_core::CoalescingPolicy;
use rcoal_parallel::{resolve_threads, supervised_map, FailureKind};
use rcoal_scenario::json::{hex, unhex, ObjBuilder, Value};
use rcoal_scenario::{CacheStats, ChaosPlan, RunCache, Scenario, ScenarioError, SweepSpec};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Schema identifier of one serialized run result.
pub const RUN_SCHEMA: &str = "rcoal-run/v1";

/// Lowers a scenario onto the experiment layer. Thread counts are an
/// execution detail, so the returned config keeps `threads: None`; the
/// runner overrides it per batch.
pub fn scenario_config(scenario: &Scenario) -> ExperimentConfig {
    let mut cfg = if scenario.selective {
        ExperimentConfig::selective(scenario.policy, scenario.num_plaintexts, scenario.lines)
    } else {
        ExperimentConfig::new(scenario.policy, scenario.num_plaintexts, scenario.lines)
    };
    cfg.seed = scenario.seed;
    if let Some(workload) = &scenario.workload {
        cfg.workload = workload.clone();
    }
    if let Some(key) = scenario.key {
        cfg.key = key;
    }
    cfg.gpu = scenario.gpu_config();
    cfg.timing = scenario.timing;
    cfg.faults = scenario.faults.clone();
    cfg
}

/// Serializes a run result to its `rcoal-run/v1` JSON form.
///
/// Returns `None` for an instrumented run, which stays memory-only
/// (see the module docs); every other run encodes losslessly.
pub fn encode_run(data: &ExperimentData) -> Option<String> {
    run_to_value(data).map(|doc| doc.to_json())
}

/// Conformance hook: the `rcoal-run/v1` document of a run as a JSON
/// [`Value`] tree (the exact structure [`encode_run`] serializes).
///
/// Golden-master fixtures snapshot this value so drift diffs can point
/// at individual fields instead of one long JSON line. Returns `None`
/// for an instrumented run, like [`encode_run`].
pub fn run_to_value(data: &ExperimentData) -> Option<Value> {
    if data.telemetry.is_some() {
        return None;
    }
    let ciphertexts = Value::Arr(
        data.ciphertexts
            .iter()
            .map(|lines| Value::str(hex(lines.as_flattened())))
            .collect(),
    );
    let by_byte = Value::Arr(
        data.last_round_accesses_by_byte
            .iter()
            .map(|row| Value::Arr(row.iter().map(|&n| Value::u64(n)).collect()))
            .collect(),
    );
    let doc = ObjBuilder::new()
        .field("schema", Value::str(RUN_SCHEMA))
        .field("policy", Value::str(data.policy.to_string()))
        // Elided for AES so pre-registry cache entries stay valid (and
        // pre-registry readers keep decoding AES rows).
        .opt_field(
            "workload",
            (data.workload != "aes").then(|| Value::str(data.workload.clone())),
        )
        .field("key", Value::str(hex(&data.key)))
        .field("ciphertexts", ciphertexts)
        .field("last_round_accesses", u64_arr(&data.last_round_accesses))
        .field("last_round_accesses_by_byte", by_byte)
        .field("total_accesses", u64_arr(&data.total_accesses))
        .field("total_requests", u64_arr(&data.total_requests))
        .opt_field(
            "last_round_cycles",
            data.last_round_cycles.as_deref().map(u64_arr),
        )
        .opt_field("total_cycles", data.total_cycles.as_deref().map(u64_arr))
        .build();
    Some(doc)
}

/// Parses a run result back from its `rcoal-run/v1` form.
///
/// # Errors
///
/// Returns a [`ScenarioError`] for syntax errors, schema mismatches,
/// ill-formed fields, or a per-plaintext array whose length differs from
/// the number of ciphertexts.
pub fn decode_run(input: &str) -> Result<ExperimentData, ScenarioError> {
    let v = Value::parse(input).map_err(|e| ScenarioError::new(e.to_string()))?;
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or_default();
    if schema != RUN_SCHEMA {
        return Err(ScenarioError::new(format!(
            "unsupported run schema {schema:?} (expected {RUN_SCHEMA:?})"
        )));
    }
    let policy = v
        .get("policy")
        .and_then(Value::as_str)
        .ok_or_else(|| ScenarioError::new("run policy must be a string"))?
        .parse::<CoalescingPolicy>()
        .map_err(|e| ScenarioError::new(e.to_string()))?;
    let key_hex = v
        .get("key")
        .and_then(Value::as_str)
        .ok_or_else(|| ScenarioError::new("run key must be a hex string"))?;
    let key_bytes = unhex(key_hex).map_err(|e| ScenarioError::new(e.to_string()))?;
    let key: [u8; 16] = key_bytes
        .try_into()
        .map_err(|_| ScenarioError::new("run key must be 16 bytes"))?;
    let ciphertexts = v
        .get("ciphertexts")
        .and_then(Value::as_arr)
        .ok_or_else(|| ScenarioError::new("run ciphertexts must be an array"))?
        .iter()
        .map(|item| {
            let hex = item
                .as_str()
                .ok_or_else(|| ScenarioError::new("ciphertext entries must be hex strings"))?;
            Ok(Arc::new(unhex_blocks(hex)?))
        })
        .collect::<Result<Vec<Arc<Vec<Block>>>, ScenarioError>>()?;
    let last_round_accesses = parse_u64_arr(&v, "last_round_accesses")?;
    let by_byte = v
        .get("last_round_accesses_by_byte")
        .and_then(Value::as_arr)
        .ok_or_else(|| ScenarioError::new("last_round_accesses_by_byte must be an array"))?
        .iter()
        .map(|row| {
            let nums = row
                .as_arr()
                .ok_or_else(|| ScenarioError::new("by-byte rows must be arrays"))?
                .iter()
                .map(|n| {
                    n.as_u64()
                        .ok_or_else(|| ScenarioError::new("by-byte entries must be u64"))
                })
                .collect::<Result<Vec<u64>, ScenarioError>>()?;
            <[u64; 16]>::try_from(nums)
                .map_err(|_| ScenarioError::new("by-byte rows must have 16 entries"))
        })
        .collect::<Result<Vec<[u64; 16]>, ScenarioError>>()?;
    // AES rows leave the field out. An unregistered name must fail here:
    // `workload_def` would otherwise audit the row against AES.
    let workload = v.get("workload").and_then(Value::as_str).unwrap_or("aes");
    if rcoal_workload::find(workload).is_none() {
        return Err(ScenarioError::new(format!(
            "run names unregistered workload {workload:?} (registered: {})",
            rcoal_workload::names()
        )));
    }
    let workload = workload.to_string();
    let data = ExperimentData {
        policy,
        workload,
        key,
        ciphertexts,
        last_round_accesses,
        last_round_accesses_by_byte: by_byte,
        total_accesses: parse_u64_arr(&v, "total_accesses")?,
        total_requests: parse_u64_arr(&v, "total_requests")?,
        last_round_cycles: parse_opt_u64_arr(&v, "last_round_cycles")?,
        total_cycles: parse_opt_u64_arr(&v, "total_cycles")?,
        telemetry: None,
    };
    // One entry per plaintext in every array: a short array would feed
    // every consumer fewer samples than the row claims to hold.
    let n = data.ciphertexts.len();
    let optional = |arr: &Option<Vec<u64>>| arr.as_ref().map_or(n, Vec::len);
    let lengths = [
        ("last_round_accesses", data.last_round_accesses.len()),
        (
            "last_round_accesses_by_byte",
            data.last_round_accesses_by_byte.len(),
        ),
        ("total_accesses", data.total_accesses.len()),
        ("total_requests", data.total_requests.len()),
        ("last_round_cycles", optional(&data.last_round_cycles)),
        ("total_cycles", optional(&data.total_cycles)),
    ];
    if let Some((name, len)) = lengths.into_iter().find(|&(_, len)| len != n) {
        return Err(ScenarioError::new(format!(
            "run has {n} ciphertexts but {len} {name} entries"
        )));
    }
    Ok(data)
}

/// What a [`SweepRunner`] did so far: occurrences served, simulations
/// actually launched, and the hits that made up the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunnerReport {
    /// Scenario occurrences served (input-list entries, duplicates
    /// included).
    pub served: u64,
    /// Fresh simulations performed.
    pub launched: u64,
    /// Occurrences left without a row because their scenario was
    /// quarantined.
    pub unresolved: u64,
    /// Supervised tasks that panicked or failed and were quarantined
    /// (their rows are `None` in the [`SweepOutcome`]).
    pub quarantined: u64,
}

impl RunnerReport {
    /// Occurrences answered without a fresh simulation: served from
    /// the cache or deduplicated against a successful run. Occurrences
    /// of a quarantined scenario are not hits.
    pub fn hits(&self) -> u64 {
        self.served - self.launched - self.unresolved
    }

    /// Hit fraction in `[0, 1]`; `0` when nothing was served.
    pub fn hit_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.hits() as f64 / self.served as f64
        }
    }
}

/// A scenario the runner gave up on: its task panicked or failed. It
/// simulates again the next time the sweep runs.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedScenario {
    /// First index of this scenario in the input list.
    pub index: usize,
    /// The scenario's content hash.
    pub hash: u64,
    /// Human-readable failure description.
    pub reason: String,
    /// The typed failure.
    pub failure: FailureKind<ExperimentError>,
}

/// What a sweep produced: one row per input scenario (`None` where the
/// scenario was quarantined), the quarantine details, and the runner's
/// cumulative report.
///
/// A partially-failed sweep is a *result*, not an error — callers
/// decide whether `quarantined` is fatal. [`SweepRunner::run_scenarios`]
/// decides that it is: it returns the first quarantined scenario's
/// error, after the other rows have been cached.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Results in input order; `None` marks a quarantined scenario.
    pub rows: Vec<Option<ExperimentData>>,
    /// One entry per distinct quarantined scenario, in input order.
    pub quarantined: Vec<QuarantinedScenario>,
    /// The runner's cumulative report after this batch.
    pub report: RunnerReport,
}

impl SweepOutcome {
    /// Whether every input scenario produced a result.
    pub fn is_complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Rows that resolved to a result.
    pub fn completed(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }
}

/// Executes scenario lists deterministically with a content-addressed
/// run cache.
///
/// ```no_run
/// use rcoal_experiments::engine::SweepRunner;
/// use rcoal_scenario::{Scenario, SweepSpec};
/// use rcoal_core::CoalescingPolicy;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let runner = SweepRunner::new();
/// let sweep = SweepSpec::grid(Scenario::new(CoalescingPolicy::Baseline, 50, 32))
///     .with_policies(vec![CoalescingPolicy::Baseline, CoalescingPolicy::fss(8)?]);
/// let results = runner.run_sweep(&sweep)?;
/// assert_eq!(results.len(), 2);
/// # Ok(())
/// # }
/// ```
pub struct SweepRunner {
    cache: RunCache<ExperimentData>,
    caching: bool,
    threads: Option<usize>,
    chaos: ChaosPlan,
    served: AtomicU64,
    launched: AtomicU64,
    unresolved: AtomicU64,
    quarantined: AtomicU64,
    /// Runs completed and stored, counted for the chaos abort switch.
    completions: AtomicU64,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner with an in-memory cache.
    pub fn new() -> Self {
        SweepRunner {
            cache: RunCache::in_memory(),
            caching: true,
            threads: None,
            chaos: ChaosPlan::inert(),
            served: AtomicU64::new(0),
            launched: AtomicU64::new(0),
            unresolved: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            completions: AtomicU64::new(0),
        }
    }

    /// A runner that never caches — every occurrence simulates afresh
    /// (`rcoal-cli sweep --cache false`, and the fresh-run reference
    /// the cache-equivalence tests compare cached rows against).
    pub fn uncached() -> Self {
        let mut runner = Self::new();
        runner.caching = false;
        runner
    }

    /// A runner whose cache persists under `dir` across processes.
    ///
    /// The store is the sweep's crash record: every run is fsync'd into
    /// it as it completes, so a sweep killed mid-flight and re-run on
    /// the same `dir` serves the finished runs back bit-identically and
    /// re-simulates only the remainder.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Scenario`] if the directory cannot be
    /// created.
    pub fn with_disk_cache(dir: impl AsRef<Path>) -> Result<Self, ExperimentError> {
        let mut runner = Self::new();
        runner.cache = RunCache::with_disk(dir.as_ref(), encode_run, decode_run)?;
        Ok(runner)
    }

    /// Pins the worker-thread count for sweeps (`1` = sequential).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Arms seeded fault injection: worker panics and the abort switch
    /// fire in the sweep workers, write-path faults in the cache. The
    /// panic schedule is keyed by each task's index in its batch, so a
    /// seed quarantines the same scenarios at any thread count.
    /// Test-only by intent; the default plan is inert.
    #[must_use]
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = plan;
        self.cache.set_chaos(plan);
        self
    }

    /// Cache traffic counters, store failures included.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Occurrences served vs. simulations launched so far.
    pub fn report(&self) -> RunnerReport {
        RunnerReport {
            served: self.served.load(Ordering::Relaxed),
            launched: self.launched.load(Ordering::Relaxed),
            unresolved: self.unresolved.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Audits every on-disk store entry without modifying anything.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Scenario`] if the runner has no disk
    /// store or it cannot be listed.
    pub fn verify_store(&self) -> Result<rcoal_scenario::StoreAudit, ExperimentError> {
        Ok(self.cache.verify()?)
    }

    /// Expands `spec` and runs the expansion in order.
    ///
    /// # Errors
    ///
    /// Propagates expansion errors ([`ExperimentError::Scenario`]) and
    /// the first (lowest-index) execution failure.
    pub fn run_sweep(&self, spec: &SweepSpec) -> Result<Vec<ExperimentData>, ExperimentError> {
        let scenarios = spec.expand()?;
        self.run_scenarios(&scenarios)
    }

    /// Runs one scenario (through the cache).
    ///
    /// # Errors
    ///
    /// Propagates validation and execution failures.
    pub fn run_one(&self, scenario: &Scenario) -> Result<ExperimentData, ExperimentError> {
        let mut results = self.run_scenarios(std::slice::from_ref(scenario))?;
        results
            .pop()
            .ok_or_else(|| ExperimentError::MissingData("empty scenario batch".into()))
    }

    /// Resolves a scenario (cache first — a cached row is audited
    /// without re-simulating) and runs a leakage audit over its data.
    ///
    /// The audit spec is not part of the scenario's content hash: one
    /// cached row can be audited many times, under many specs, for the
    /// cost of the statistics alone.
    ///
    /// # Errors
    ///
    /// Everything [`SweepRunner::run_one`] can return, plus the audit
    /// failures of [`crate::audit_data`] (e.g. a cycle channel against
    /// a functional-only scenario).
    pub fn audit_one(
        &self,
        scenario: &Scenario,
        spec: &rcoal_audit::AuditSpec,
    ) -> Result<(ExperimentData, rcoal_audit::LeakageReport), ExperimentError> {
        let data = self.run_one(scenario)?;
        let warp_size = scenario_config(scenario).gpu.warp_size;
        let report = crate::audit::audit_data(&data, warp_size, spec)?;
        Ok((data, report))
    }

    /// Runs a scenario list and fails on the first broken scenario: an
    /// adapter over [`SweepRunner::run_scenarios_supervised`] whose
    /// result vector lines up index-for-index with the input —
    /// duplicates share one run.
    ///
    /// A failing scenario does not discard the others: every row that
    /// finished is already cached before the error returns.
    ///
    /// # Errors
    ///
    /// The lowest-index quarantined scenario's own error. A scenario
    /// that panicked re-raises its panic instead.
    pub fn run_scenarios(
        &self,
        scenarios: &[Scenario],
    ) -> Result<Vec<ExperimentData>, ExperimentError> {
        let outcome = self.run_scenarios_supervised(scenarios);
        if let Some(q) = outcome.quarantined.into_iter().next() {
            return Err(match q.failure {
                FailureKind::Errored(e) => e,
                FailureKind::Panicked(msg) => std::panic::resume_unwind(Box::new(msg)),
            });
        }
        outcome
            .rows
            .into_iter()
            .map(|row| {
                row.ok_or_else(|| ExperimentError::MissingData("unresolved scenario".into()))
            })
            .collect()
    }

    /// Runs a scenario list under worker supervision, with per-run
    /// persistence — the one way a sweep executes.
    ///
    /// Each distinct scenario (by content hash) resolves exactly once:
    /// from the cache first, otherwise by one fresh simulation. Distinct
    /// missing scenarios fan out across worker threads; each one then
    /// simulates its own launches sequentially (`threads = 1`) so the
    /// machine is not oversubscribed. A batch with a single missing
    /// scenario instead parallelizes *inside* that experiment. Either
    /// way the rows are bit-identical — the workspace's determinism
    /// contract.
    ///
    /// * **Isolation** — a panicking or failing task runs once (see
    ///   [`supervised_map`]) and is *quarantined*: its row comes back
    ///   `None` and the sweep keeps going. A scenario is a pure
    ///   function of its description, so it would fail the same way
    ///   again; it simulates afresh the next time the sweep runs.
    /// * **Per-completion persistence** — each fresh result is written
    ///   to the cache *as it completes*, inside the worker, not at batch
    ///   end, and a disk entry is fsync'd before the worker moves on. A
    ///   process killed mid-sweep has durably stored every finished run;
    ///   re-running on the same [`SweepRunner::with_disk_cache`] store
    ///   serves them back bit-identically.
    ///
    /// Supervision only decides *whether* a result exists, never
    /// *which* result wins.
    pub fn run_scenarios_supervised(&self, scenarios: &[Scenario]) -> SweepOutcome {
        let mut resolved: HashMap<u64, ExperimentData> = HashMap::new();
        let mut missing: Vec<&Scenario> = Vec::new();
        let mut missing_keys: HashSet<u64> = HashSet::new();
        let mut first_index: HashMap<u64, usize> = HashMap::new();
        for (i, scenario) in scenarios.iter().enumerate() {
            let key = scenario.content_hash();
            first_index.entry(key).or_insert(i);
            if resolved.contains_key(&key) || missing_keys.contains(&key) {
                continue;
            }
            if self.caching {
                if let Some(data) = self.cache.get(scenario) {
                    resolved.insert(key, data);
                    continue;
                }
            }
            missing.push(scenario);
            missing_keys.insert(key);
        }

        let inner_threads = if missing.len() > 1 { Some(1) } else { None };
        let results = supervised_map(
            resolve_threads(self.threads),
            &missing,
            |i, scenario| -> Result<ExperimentData, ExperimentError> {
                if self.chaos.panics_on(i as u64) {
                    panic!("injected chaos panic (task {i})");
                }
                let mut cfg = scenario_config(scenario);
                cfg.threads = inner_threads.or(self.threads);
                let data = cfg.run()?;
                // Persist *inside* the worker: a crash after this point
                // cannot lose the completed run.
                if self.caching {
                    self.cache.insert(scenario, data.clone());
                }
                if let Some(n) = self.chaos.abort_after {
                    if self.completions.fetch_add(1, Ordering::Relaxed) + 1 >= n {
                        // The honest crash: no unwinding, no
                        // destructors, nothing saved by a landing
                        // pad. What the store has is what survives.
                        std::process::abort();
                    }
                }
                Ok(data)
            },
        );

        let mut quarantined = Vec::new();
        let mut fresh = 0u64;
        for (scenario, result) in missing.iter().zip(results) {
            let key = scenario.content_hash();
            match result {
                Ok(data) => {
                    resolved.insert(key, data);
                    fresh += 1;
                }
                Err(failure) => quarantined.push(QuarantinedScenario {
                    index: first_index.get(&key).copied().unwrap_or(0),
                    hash: key,
                    reason: failure.to_string(),
                    failure,
                }),
            }
        }
        self.launched.fetch_add(fresh, Ordering::Relaxed);
        self.served
            .fetch_add(scenarios.len() as u64, Ordering::Relaxed);
        self.quarantined
            .fetch_add(quarantined.len() as u64, Ordering::Relaxed);

        let mut remaining = occurrence_counts(scenarios);
        let rows: Vec<Option<ExperimentData>> = scenarios
            .iter()
            .map(|s| take_or_clone(&mut resolved, &mut remaining, s.content_hash()))
            .collect();
        let unresolved = rows.iter().filter(|row| row.is_none()).count();
        self.unresolved
            .fetch_add(unresolved as u64, Ordering::Relaxed);
        SweepOutcome {
            rows,
            quarantined,
            report: self.report(),
        }
    }
}

/// Occurrences of each content hash in `scenarios`, so result assembly
/// knows when it is serving a hash for the last time.
fn occurrence_counts(scenarios: &[Scenario]) -> HashMap<u64, usize> {
    let mut counts: HashMap<u64, usize> = HashMap::with_capacity(scenarios.len());
    for s in scenarios {
        *counts.entry(s.content_hash()).or_insert(0) += 1;
    }
    counts
}

/// Serves one occurrence of `key` from `resolved`: the last occurrence
/// takes the entry by move, earlier ones clone. [`ExperimentData`]'s
/// per-plaintext vectors are the dominant per-run allocation, so for
/// the common all-distinct sweep this halves the assembly footprint —
/// every row is moved, never deep-copied.
fn take_or_clone(
    resolved: &mut HashMap<u64, ExperimentData>,
    remaining: &mut HashMap<u64, usize>,
    key: u64,
) -> Option<ExperimentData> {
    let n = remaining.get_mut(&key)?;
    *n -= 1;
    if *n == 0 {
        resolved.remove(&key)
    } else {
        resolved.get(&key).cloned()
    }
}

fn u64_arr(items: &[u64]) -> Value {
    Value::Arr(items.iter().map(|&n| Value::u64(n)).collect())
}

fn parse_u64_arr(v: &Value, key: &str) -> Result<Vec<u64>, ScenarioError> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| ScenarioError::new(format!("{key} must be an array")))?
        .iter()
        .map(|n| {
            n.as_u64()
                .ok_or_else(|| ScenarioError::new(format!("{key} entries must be u64")))
        })
        .collect()
}

fn parse_opt_u64_arr(v: &Value, key: &str) -> Result<Option<Vec<u64>>, ScenarioError> {
    match v.get(key) {
        None => Ok(None),
        Some(_) => Ok(Some(parse_u64_arr(v, key)?)),
    }
}

fn unhex_blocks(hex: &str) -> Result<Vec<Block>, ScenarioError> {
    let bytes = unhex(hex).map_err(|e| ScenarioError::new(e.to_string()))?;
    if bytes.len() % 16 != 0 {
        return Err(ScenarioError::new(
            "ciphertext hex must be a whole number of 16-byte blocks",
        ));
    }
    Ok(bytes
        .chunks(16)
        .map(|chunk| {
            let mut block = [0u8; 16];
            block.copy_from_slice(chunk);
            block
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetrySpec;
    use rcoal_scenario::GpuOverrides;

    fn tiny(policy: CoalescingPolicy, n: usize) -> Scenario {
        // A real timing scenario kept cheap: 4 plaintexts of one warp.
        Scenario::new(policy, n, 32).with_seed(0xbead)
    }

    #[test]
    fn scenario_config_mirrors_the_scenario() {
        let s = Scenario::selective(CoalescingPolicy::rss_rts(4).unwrap(), 7, 64)
            .with_seed(99)
            .with_key([3; 16])
            .with_gpu(GpuOverrides {
                mshr_entries: Some(8),
                ..GpuOverrides::default()
            });
        let cfg = scenario_config(&s);
        assert_eq!(cfg.policy, s.policy);
        assert_eq!(cfg.num_plaintexts, 7);
        assert_eq!(cfg.lines, 64);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.key, [3; 16]);
        assert_eq!(cfg.gpu.mshr_entries, 8);
        assert!(cfg.launch.is_some(), "selective sets a launch policy");
        assert!(cfg.telemetry.is_none(), "scenarios run uninstrumented");
        assert!(cfg.threads.is_none(), "threads stay an execution detail");

        let plain = scenario_config(&tiny(CoalescingPolicy::Baseline, 2).functional_only());
        assert!(plain.launch.is_none());
        assert!(!plain.timing);
    }

    #[test]
    fn run_codec_round_trips_bit_identically() {
        for scenario in [
            tiny(CoalescingPolicy::Baseline, 3),
            tiny(CoalescingPolicy::fss(8).unwrap(), 2),
            tiny(CoalescingPolicy::rss_rts(4).unwrap(), 2).functional_only(),
        ] {
            let data = scenario_config(&scenario).run().unwrap();
            let encoded = encode_run(&data).unwrap();
            let back = decode_run(&encoded).unwrap();
            assert_eq!(back, data, "{}", scenario.to_json());
            assert_eq!(encode_run(&back).unwrap(), encoded, "codec is a fixpoint");
        }
    }

    #[test]
    fn telemetry_runs_are_memory_only() {
        let cfg = scenario_config(&tiny(CoalescingPolicy::Baseline, 1))
            .with_telemetry(TelemetrySpec::full().with_event_capacity(4));
        let data = cfg.run().unwrap();
        assert!(data.telemetry.is_some());
        assert_eq!(encode_run(&data), None);
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        assert!(decode_run("{").is_err());
        assert!(decode_run(r#"{"schema":"rcoal-run/v9"}"#).is_err());
        let no_key = r#"{"schema":"rcoal-run/v1","policy":"baseline"}"#;
        assert!(decode_run(no_key).is_err());
        // A row whose per-plaintext arrays disagree in length with its
        // ciphertexts: consumers would silently audit fewer samples.
        let data = scenario_config(&tiny(CoalescingPolicy::Baseline, 3))
            .run()
            .unwrap();
        type Cut = fn(&mut ExperimentData);
        let cuts: [(&str, Cut); 6] = [
            ("last_round_accesses", |d| {
                d.last_round_accesses.pop();
            }),
            ("last_round_accesses_by_byte", |d| {
                d.last_round_accesses_by_byte.pop();
            }),
            ("total_accesses", |d| {
                d.total_accesses.pop();
            }),
            ("total_requests", |d| {
                d.total_requests.pop();
            }),
            ("last_round_cycles", |d| {
                d.last_round_cycles.as_mut().unwrap().pop();
            }),
            ("total_cycles", |d| {
                d.total_cycles.as_mut().unwrap().pop();
            }),
        ];
        for (name, cut) in cuts {
            let mut short = data.clone();
            cut(&mut short);
            let err = decode_run(&encode_run(&short).unwrap()).unwrap_err();
            assert!(
                err.to_string().contains(&format!(" {name} entries")),
                "{name}: {err}"
            );
        }
        // A workload the registry does not know would be audited against
        // the AES oracle and key.
        let mut unknown = data.clone();
        unknown.workload = "nosuch".into();
        let err = decode_run(&encode_run(&unknown).unwrap()).unwrap_err();
        assert!(err.to_string().contains("\"nosuch\""), "{err}");
        assert!(err.to_string().contains(&rcoal_workload::names()), "{err}");
    }

    #[test]
    fn cache_hit_is_bit_identical_to_a_fresh_run() {
        let runner = SweepRunner::new();
        let s = tiny(CoalescingPolicy::fss(4).unwrap(), 2);
        let first = runner.run_one(&s).unwrap();
        let second = runner.run_one(&s).unwrap();
        assert_eq!(first, second);
        let report = runner.report();
        assert_eq!((report.served, report.launched), (2, 1));
        assert_eq!(report.hits(), 1);
        // And identical to an uncached runner's result.
        let fresh = SweepRunner::uncached().run_one(&s).unwrap();
        assert_eq!(first, fresh);
    }

    #[test]
    fn duplicate_scenarios_in_one_batch_simulate_once() {
        let runner = SweepRunner::new().with_threads(2);
        let a = tiny(CoalescingPolicy::Baseline, 2);
        let b = tiny(CoalescingPolicy::Disabled, 2).functional_only();
        let batch = vec![a.clone(), b.clone(), a.clone(), a.clone()];
        let results = runner.run_scenarios(&batch).unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0], results[2]);
        assert_eq!(results[0], results[3]);
        assert_ne!(results[0], results[1]);
        let report = runner.report();
        assert_eq!(report.served, 4);
        assert_eq!(report.launched, 2, "two distinct scenarios");
        assert_eq!(report.hits(), 2);
        assert!((report.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn uncached_runner_always_simulates() {
        let runner = SweepRunner::uncached();
        let s = tiny(CoalescingPolicy::Baseline, 1).functional_only();
        runner.run_one(&s).unwrap();
        runner.run_one(&s).unwrap();
        let report = runner.report();
        assert_eq!(report.launched, 2);
        assert_eq!(report.hits(), 0);
        assert_eq!(runner.cache_stats().hits, 0);
    }

    #[test]
    fn disk_cache_round_trips_across_runners() {
        let dir =
            std::env::temp_dir().join(format!("rcoal-engine-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = tiny(CoalescingPolicy::rss(4).unwrap(), 2);
        let first = {
            let runner = SweepRunner::with_disk_cache(&dir).unwrap();
            runner.run_one(&s).unwrap()
        };
        let runner = SweepRunner::with_disk_cache(&dir).unwrap();
        let second = runner.run_one(&s).unwrap();
        assert_eq!(first, second, "disk hit is bit-identical");
        assert_eq!(runner.report().launched, 0);
        assert_eq!(runner.cache_stats().disk_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_sweep_expands_and_executes_in_order() {
        let runner = SweepRunner::new();
        let sweep = SweepSpec::grid(tiny(CoalescingPolicy::Baseline, 2).functional_only())
            .with_policies(vec![
                CoalescingPolicy::Baseline,
                CoalescingPolicy::fss(8).unwrap(),
            ]);
        let results = runner.run_sweep(&sweep).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].policy, CoalescingPolicy::Baseline);
        assert_eq!(results[1].policy, CoalescingPolicy::fss(8).unwrap());
        // Expansion errors surface as scenario errors.
        let bad = SweepSpec::default();
        assert!(matches!(
            runner.run_sweep(&bad),
            Err(ExperimentError::Scenario(_))
        ));
    }

    /// A scenario the simulator rejects (FSS subwarps not dividing the
    /// warp), for exercising failure paths.
    fn broken() -> Scenario {
        Scenario::new(CoalescingPolicy::fss(32).unwrap(), 1, 32)
            .with_gpu(GpuOverrides {
                warp_size: Some(8),
                ..GpuOverrides::default()
            })
            .functional_only()
    }

    #[test]
    fn supervised_sweep_quarantines_instead_of_failing() {
        let runner = SweepRunner::new();
        let good = tiny(CoalescingPolicy::Baseline, 1).functional_only();
        let batch = vec![good.clone(), broken(), good.clone()];
        let outcome = runner.run_scenarios_supervised(&batch);
        assert!(!outcome.is_complete());
        assert_eq!(outcome.rows.len(), 3);
        assert!(outcome.rows[0].is_some());
        assert!(outcome.rows[1].is_none(), "broken row is None, not fatal");
        assert_eq!(outcome.rows[0], outcome.rows[2], "dedup still applies");
        assert_eq!(outcome.completed(), 2);
        assert_eq!(outcome.quarantined.len(), 1);
        let q = &outcome.quarantined[0];
        assert_eq!((q.index, q.hash), (1, broken().content_hash()));
        assert_eq!(outcome.report.quarantined, 1);
        assert_eq!(
            outcome.report.hits(),
            1,
            "only the deduplicated good occurrence is a hit"
        );
        // The runner stays usable: the good scenario now serves from
        // cache and a fresh batch succeeds outright.
        let again = runner.run_scenarios_supervised(std::slice::from_ref(&good));
        assert!(again.is_complete());
        assert_eq!(again.report.launched, 1, "good run was cached");
    }

    #[test]
    fn supervised_rows_match_the_strict_path_bit_identically() {
        let scenarios = vec![
            tiny(CoalescingPolicy::Baseline, 2).functional_only(),
            tiny(CoalescingPolicy::fss(8).unwrap(), 2).functional_only(),
            tiny(CoalescingPolicy::rss(4).unwrap(), 2).functional_only(),
        ];
        let strict = SweepRunner::new().run_scenarios(&scenarios).unwrap();
        let supervised = SweepRunner::new()
            .with_threads(2)
            .run_scenarios_supervised(&scenarios);
        assert!(supervised.is_complete());
        let rows: Vec<ExperimentData> = supervised.rows.into_iter().flatten().collect();
        assert_eq!(rows, strict);
    }

    #[test]
    fn store_resume_serves_stored_runs_bit_identically() {
        let dir =
            std::env::temp_dir().join(format!("rcoal-engine-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scenarios = vec![
            tiny(CoalescingPolicy::Baseline, 1).functional_only(),
            tiny(CoalescingPolicy::Disabled, 1).functional_only(),
        ];
        let first = {
            let runner = SweepRunner::with_disk_cache(&dir).unwrap();
            let outcome = runner.run_scenarios_supervised(&scenarios);
            assert!(outcome.is_complete());
            assert_eq!(outcome.report.launched, 2);
            assert_eq!(outcome.report.hits(), 0);
            outcome.rows
        };
        // A second process (fresh runner, same store) re-simulates
        // nothing: the store serves the exact bytes.
        let runner = SweepRunner::with_disk_cache(&dir).unwrap();
        let outcome = runner.run_scenarios_supervised(&scenarios);
        assert!(outcome.is_complete());
        assert_eq!(outcome.report.launched, 0, "nothing re-simulated");
        assert_eq!(outcome.report.hits(), 2);
        assert_eq!(runner.cache_stats().disk_hits, 2, "served from disk");
        assert_eq!(outcome.rows, first, "resume is bit-identical");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_panics_never_lose_tasks() {
        use rcoal_scenario::ChaosPlan;
        // Aggressive panic injection: every input must end as a result
        // or an accounted quarantine, never silently vanish.
        let plan = ChaosPlan::seeded(11).with_panics(2);
        let scenarios: Vec<Scenario> = (0..6)
            .map(|i| {
                tiny(CoalescingPolicy::Baseline, 1)
                    .with_seed(0x1000 + i)
                    .functional_only()
            })
            .collect();
        let hashes = |outcome: &SweepOutcome| -> Vec<u64> {
            outcome.quarantined.iter().map(|q| q.hash).collect()
        };
        let dir =
            std::env::temp_dir().join(format!("rcoal-engine-chaos-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let chaotic = SweepRunner::with_disk_cache(&dir)
            .unwrap()
            .with_threads(1)
            .with_chaos(plan)
            .run_scenarios_supervised(&scenarios);
        // The schedule is keyed by task index, not by interleaving.
        let parallel = SweepRunner::new()
            .with_threads(4)
            .with_chaos(plan)
            .run_scenarios_supervised(&scenarios);
        assert_eq!(hashes(&chaotic), hashes(&parallel), "1 vs 4 threads");
        let report = chaotic.report;
        assert!(report.quarantined > 0, "period-2 injection must fire");
        assert_eq!(report.quarantined, chaotic.quarantined.len() as u64);
        assert_eq!(
            chaotic.completed() + chaotic.quarantined.len(),
            6,
            "every task accounted for"
        );
        for q in &chaotic.quarantined {
            assert!(q.reason.starts_with("panicked: injected"), "{}", q.reason);
        }
        // A chaos-free rerun over the same store simulates exactly the
        // quarantined scenarios and completes bit-identically.
        let runner = SweepRunner::with_disk_cache(&dir).unwrap();
        let rerun = runner.run_scenarios_supervised(&scenarios);
        assert!(rerun.is_complete());
        assert_eq!(rerun.report.launched, report.quarantined);
        let reference = SweepRunner::uncached().run_scenarios(&scenarios).unwrap();
        let rows: Vec<ExperimentData> = rerun.rows.into_iter().flatten().collect();
        assert_eq!(rows, reference);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn execution_failures_propagate() {
        // FSS over a warp the subwarp count does not divide fails in
        // the simulator; the runner must surface it, not cache it.
        let runner = SweepRunner::new();
        assert!(matches!(
            runner.run_one(&broken()),
            Err(ExperimentError::Policy(_))
        ));
        assert_eq!(runner.report().launched, 0, "failed runs are not counted");
    }

    #[test]
    fn failing_batch_keeps_the_rows_it_finished() {
        let dir =
            std::env::temp_dir().join(format!("rcoal-engine-partial-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runner = SweepRunner::with_disk_cache(&dir).unwrap();
        let batch = vec![
            tiny(CoalescingPolicy::Baseline, 1).functional_only(),
            broken(),
            tiny(CoalescingPolicy::Disabled, 1).functional_only(),
        ];
        assert!(matches!(
            runner.run_scenarios(&batch),
            Err(ExperimentError::Policy(_))
        ));
        let audit = runner.verify_store().unwrap();
        assert!(audit.is_clean(), "{audit:?}");
        assert_eq!(audit.entries, 2, "both good rows were stored");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
