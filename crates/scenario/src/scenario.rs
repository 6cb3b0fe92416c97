//! The declarative description of one experiment run.
//!
//! A [`Scenario`] is data, not code: everything that determines a run's
//! *results* — policy, workload size, seed, key, GPU overrides, fault
//! plan — and nothing that doesn't (worker-thread counts, host metrics
//! and instrumentation are execution details; results are bit-identical
//! across them, so they stay out of the scenario and out of its hash).
//!
//! Scenarios serialize to a versioned (`rcoal-scenario/v1`), canonical
//! JSON form: fixed field order, number literals written exactly, and
//! default-valued optional blocks omitted. The [`Scenario::content_hash`]
//! is FNV-1a 64 over that canonical form, so equal scenarios hash
//! equally in any process — the property the run cache keys on.

use crate::json::{hex, unhex, ObjBuilder, Value};
use rcoal_core::CoalescingPolicy;
use rcoal_gpu_sim::{FaultPlan, GpuConfig, McFault, ReplyJitter, SchedulerPolicy};
use std::fmt;

/// Schema identifier written into every serialized scenario.
pub const SCENARIO_SCHEMA: &str = "rcoal-scenario/v1";

/// Default master seed, matching `ExperimentConfig::new`.
pub const DEFAULT_SEED: u64 = 0x5C0A1;

/// Error raised when a scenario (or sweep) file fails to parse or
/// validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    msg: String,
}

impl ScenarioError {
    /// Wraps a message. Public so downstream codecs (e.g. the
    /// experiment layer's run serializer) can report their own failures
    /// through the same error type.
    pub fn new(msg: impl Into<String>) -> Self {
        ScenarioError { msg: msg.into() }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ScenarioError {}

/// Sparse overrides over the paper's [`GpuConfig`]. Only set fields are
/// serialized, applied, or hashed; an empty override block means "the
/// paper's Table I machine".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GpuOverrides {
    /// Streaming multiprocessors.
    pub num_sms: Option<usize>,
    /// Threads per warp.
    pub warp_size: Option<usize>,
    /// Memory controllers / partitions.
    pub num_mem_controllers: Option<usize>,
    /// DRAM banks per controller.
    pub banks_per_mc: Option<usize>,
    /// Bank groups per controller.
    pub bank_groups_per_mc: Option<usize>,
    /// Partition interleave chunk in bytes.
    pub interleave_bytes: Option<u64>,
    /// DRAM row size in bytes.
    pub row_size_bytes: Option<u64>,
    /// Coalescing block size in bytes.
    pub block_size: Option<u64>,
    /// Warp scheduling policy.
    pub scheduler: Option<SchedulerPolicy>,
    /// L1 sets per SM (0 disables the L1).
    pub l1_sets: Option<usize>,
    /// L1 ways per set.
    pub l1_ways: Option<usize>,
    /// MSHR entries per SM (0 disables merging).
    pub mshr_entries: Option<usize>,
    /// Cycle-limit backstop.
    pub max_cycles: Option<u64>,
    /// Forward-progress watchdog window.
    pub watchdog_window: Option<u64>,
}

impl GpuOverrides {
    /// No overrides: the paper's configuration.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any field is set.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Applies the overrides on top of `base`.
    pub fn apply(&self, mut base: GpuConfig) -> GpuConfig {
        if let Some(v) = self.num_sms {
            base.num_sms = v;
        }
        if let Some(v) = self.warp_size {
            base.warp_size = v;
        }
        if let Some(v) = self.num_mem_controllers {
            base.num_mem_controllers = v;
        }
        if let Some(v) = self.banks_per_mc {
            base.banks_per_mc = v;
        }
        if let Some(v) = self.bank_groups_per_mc {
            base.bank_groups_per_mc = v;
        }
        if let Some(v) = self.interleave_bytes {
            base.interleave_bytes = v;
        }
        if let Some(v) = self.row_size_bytes {
            base.row_size_bytes = v;
        }
        if let Some(v) = self.block_size {
            base.block_size = v;
        }
        if let Some(v) = self.scheduler {
            base.scheduler = v;
        }
        if let Some(v) = self.l1_sets {
            base.l1_sets = v;
        }
        if let Some(v) = self.l1_ways {
            base.l1_ways = v;
        }
        if let Some(v) = self.mshr_entries {
            base.mshr_entries = v;
        }
        if let Some(v) = self.max_cycles {
            base.max_cycles = v;
        }
        if let Some(v) = self.watchdog_window {
            base.watchdog_window = v;
        }
        base
    }

    fn to_value(&self) -> Value {
        ObjBuilder::new()
            .opt_field("num_sms", self.num_sms.map(Value::usize))
            .opt_field("warp_size", self.warp_size.map(Value::usize))
            .opt_field(
                "num_mem_controllers",
                self.num_mem_controllers.map(Value::usize),
            )
            .opt_field("banks_per_mc", self.banks_per_mc.map(Value::usize))
            .opt_field(
                "bank_groups_per_mc",
                self.bank_groups_per_mc.map(Value::usize),
            )
            .opt_field("interleave_bytes", self.interleave_bytes.map(Value::u64))
            .opt_field("row_size_bytes", self.row_size_bytes.map(Value::u64))
            .opt_field("block_size", self.block_size.map(Value::u64))
            .opt_field(
                "scheduler",
                self.scheduler.map(|s| {
                    Value::str(match s {
                        SchedulerPolicy::Gto => "gto",
                        SchedulerPolicy::Lrr => "lrr",
                    })
                }),
            )
            .opt_field("l1_sets", self.l1_sets.map(Value::usize))
            .opt_field("l1_ways", self.l1_ways.map(Value::usize))
            .opt_field("mshr_entries", self.mshr_entries.map(Value::usize))
            .opt_field("max_cycles", self.max_cycles.map(Value::u64))
            .opt_field("watchdog_window", self.watchdog_window.map(Value::u64))
            .build()
    }

    fn from_value(v: &Value) -> Result<Self, ScenarioError> {
        let mut out = GpuOverrides::default();
        let members = v
            .as_obj()
            .ok_or_else(|| ScenarioError::new("gpu overrides must be an object"))?;
        for (key, value) in members {
            match key.as_str() {
                "num_sms" => out.num_sms = Some(field_usize(value, key)?),
                "warp_size" => out.warp_size = Some(field_usize(value, key)?),
                "num_mem_controllers" => out.num_mem_controllers = Some(field_usize(value, key)?),
                "banks_per_mc" => out.banks_per_mc = Some(field_usize(value, key)?),
                "bank_groups_per_mc" => out.bank_groups_per_mc = Some(field_usize(value, key)?),
                "interleave_bytes" => out.interleave_bytes = Some(field_u64(value, key)?),
                "row_size_bytes" => out.row_size_bytes = Some(field_u64(value, key)?),
                "block_size" => out.block_size = Some(field_u64(value, key)?),
                "scheduler" => {
                    out.scheduler = Some(match value.as_str() {
                        Some("gto") => SchedulerPolicy::Gto,
                        Some("lrr") => SchedulerPolicy::Lrr,
                        _ => {
                            return Err(ScenarioError::new(format!(
                                "scheduler must be \"gto\" or \"lrr\", got {}",
                                value.to_json()
                            )))
                        }
                    })
                }
                "l1_sets" => out.l1_sets = Some(field_usize(value, key)?),
                "l1_ways" => out.l1_ways = Some(field_usize(value, key)?),
                "mshr_entries" => out.mshr_entries = Some(field_usize(value, key)?),
                "max_cycles" => out.max_cycles = Some(field_u64(value, key)?),
                "watchdog_window" => out.watchdog_window = Some(field_u64(value, key)?),
                other => {
                    return Err(ScenarioError::new(format!(
                        "unknown gpu override field {other:?}"
                    )))
                }
            }
        }
        Ok(out)
    }
}

/// A fully declarative, versioned description of one experiment run.
///
/// ```
/// use rcoal_scenario::Scenario;
/// use rcoal_core::CoalescingPolicy;
///
/// let s = Scenario::new(CoalescingPolicy::fss(8)?, 100, 32).with_seed(7);
/// let json = s.to_json();
/// let back = Scenario::from_json(&json)?;
/// assert_eq!(back, s);
/// assert_eq!(back.content_hash(), s.content_hash());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Coalescing policy the victim deploys.
    pub policy: CoalescingPolicy,
    /// Registered workload name; `None` means the default AES kernel.
    /// Kept optional (and elided from the canonical form when unset) so
    /// pre-registry scenario files — and their content hashes — stay
    /// valid. Registry membership is checked at execution time, not
    /// here: the scenario layer stays workload-agnostic.
    pub workload: Option<String>,
    /// Number of plaintexts (timing samples).
    pub num_plaintexts: usize,
    /// Lines per plaintext (32 = one warp).
    pub lines: usize,
    /// Master seed for plaintexts and per-launch policy randomness.
    pub seed: u64,
    /// Victim key; `None` means the workload's demo key.
    pub key: Option<[u8; 16]>,
    /// Whether the cycle simulator runs (`false` = functional only).
    pub timing: bool,
    /// Selective protection (§VII): only the vulnerable last-round loads
    /// use `policy`; all other loads keep baseline coalescing.
    pub selective: bool,
    /// Sparse GPU-configuration overrides over the paper's machine.
    pub gpu: GpuOverrides,
    /// Injected hardware faults (timing-only perturbation).
    pub faults: FaultPlan,
}

impl Scenario {
    /// A timing scenario on the paper's GPU with the default seed and
    /// workload key — the scenario-level mirror of
    /// `ExperimentConfig::new`.
    pub fn new(policy: CoalescingPolicy, num_plaintexts: usize, lines: usize) -> Self {
        Scenario {
            policy,
            workload: None,
            num_plaintexts,
            lines,
            seed: DEFAULT_SEED,
            key: None,
            timing: true,
            selective: false,
            gpu: GpuOverrides::none(),
            faults: FaultPlan::none(),
        }
    }

    /// A selective-protection scenario (`ExperimentConfig::selective`).
    pub fn selective(policy: CoalescingPolicy, num_plaintexts: usize, lines: usize) -> Self {
        let mut s = Self::new(policy, num_plaintexts, lines);
        s.selective = true;
        s
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects a registered workload by name (`"aes"`, `"present80"`,
    /// `"gift64"`, `"rectangle"`, `"gather"`, …). The default name
    /// `"aes"` normalizes to `None`, so `with_workload("aes")` and an
    /// untouched scenario are the same scenario — same canonical form,
    /// same content hash.
    #[must_use]
    pub fn with_workload(mut self, workload: impl Into<String>) -> Self {
        let w = workload.into();
        self.workload = (w != "aes").then_some(w);
        self
    }

    /// Sets an explicit victim key.
    #[must_use]
    pub fn with_key(mut self, key: [u8; 16]) -> Self {
        self.key = Some(key);
        self
    }

    /// Disables the cycle simulator (access counts only).
    #[must_use]
    pub fn functional_only(mut self) -> Self {
        self.timing = false;
        self
    }

    /// Sets GPU-configuration overrides.
    #[must_use]
    pub fn with_gpu(mut self, gpu: GpuOverrides) -> Self {
        self.gpu = gpu;
        self
    }

    /// Sets the fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The GPU configuration this scenario runs on.
    pub fn gpu_config(&self) -> GpuConfig {
        self.gpu.apply(GpuConfig::paper())
    }

    /// Validates the scenario without running anything.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.num_plaintexts == 0 {
            return Err(ScenarioError::new("num_plaintexts must be positive"));
        }
        if self.lines == 0 {
            return Err(ScenarioError::new("lines must be positive"));
        }
        self.gpu_config().validate().map_err(ScenarioError::new)?;
        self.faults.validate().map_err(ScenarioError::new)?;
        Ok(())
    }

    /// The canonical JSON document: schema first, fixed field order,
    /// default-valued optional blocks omitted.
    pub fn to_value(&self) -> Value {
        ObjBuilder::new()
            .field("schema", Value::str(SCENARIO_SCHEMA))
            .field("policy", Value::str(self.policy.to_string()))
            .opt_field(
                "workload",
                self.workload.as_ref().map(|w| Value::str(w.clone())),
            )
            .field("num_plaintexts", Value::usize(self.num_plaintexts))
            .field("lines", Value::usize(self.lines))
            .field("seed", Value::u64(self.seed))
            .opt_field("key", self.key.map(|k| Value::str(hex(&k))))
            .opt_field("timing", (!self.timing).then_some(Value::Bool(false)))
            .opt_field("selective", self.selective.then_some(Value::Bool(true)))
            .opt_field("gpu", (!self.gpu.is_empty()).then(|| self.gpu.to_value()))
            .opt_field(
                "faults",
                (self.faults != FaultPlan::none()).then(|| fault_plan_to_value(&self.faults)),
            )
            .build()
    }

    /// Canonical JSON text (`parse ∘ serialize = id`).
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parses a scenario from its JSON form. Field order is free;
    /// unknown fields are rejected so spec-file typos surface instead of
    /// silently running the default.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] for syntax errors, schema mismatches,
    /// unknown or ill-typed fields.
    pub fn from_json(input: &str) -> Result<Self, ScenarioError> {
        let v = Value::parse(input).map_err(|e| ScenarioError::new(e.to_string()))?;
        Self::from_value(&v)
    }

    /// Parses a scenario from an already-parsed JSON node.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::from_json`].
    pub fn from_value(v: &Value) -> Result<Self, ScenarioError> {
        expect_fields(
            v,
            "scenario",
            &[
                "schema",
                "policy",
                "workload",
                "num_plaintexts",
                "lines",
                "seed",
                "key",
                "timing",
                "selective",
                "gpu",
                "faults",
            ],
        )?;
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or_default();
        if schema != SCENARIO_SCHEMA {
            return Err(ScenarioError::new(format!(
                "unsupported scenario schema {schema:?} (expected {SCENARIO_SCHEMA:?})"
            )));
        }
        let policy_str = v
            .get("policy")
            .and_then(Value::as_str)
            .ok_or_else(|| ScenarioError::new("policy must be a string"))?;
        let policy = policy_str
            .parse::<CoalescingPolicy>()
            .map_err(|e| ScenarioError::new(e.to_string()))?;
        let workload = match v.get("workload") {
            None => None,
            Some(w) => {
                let name = w
                    .as_str()
                    .ok_or_else(|| ScenarioError::new("workload must be a string"))?;
                // Normalize the default so "workload":"aes" parses to the
                // same scenario (and hash) as a pre-registry document.
                (name != "aes").then(|| name.to_string())
            }
        };
        let num_plaintexts = v
            .get("num_plaintexts")
            .and_then(Value::as_usize)
            .ok_or_else(|| ScenarioError::new("num_plaintexts must be an integer"))?;
        let lines = v
            .get("lines")
            .and_then(Value::as_usize)
            .ok_or_else(|| ScenarioError::new("lines must be an integer"))?;
        let seed = match v.get("seed") {
            None => DEFAULT_SEED,
            Some(s) => s
                .as_u64()
                .ok_or_else(|| ScenarioError::new("seed must be a u64 integer"))?,
        };
        let key = match v.get("key") {
            None => None,
            Some(k) => {
                let hex = k
                    .as_str()
                    .ok_or_else(|| ScenarioError::new("key must be a hex string"))?;
                Some(hex_decode_key(hex)?)
            }
        };
        let timing = match v.get("timing") {
            None => true,
            Some(t) => t
                .as_bool()
                .ok_or_else(|| ScenarioError::new("timing must be a boolean"))?,
        };
        let selective = match v.get("selective") {
            None => false,
            Some(s) => s
                .as_bool()
                .ok_or_else(|| ScenarioError::new("selective must be a boolean"))?,
        };
        let gpu = match v.get("gpu") {
            None => GpuOverrides::none(),
            Some(g) => GpuOverrides::from_value(g)?,
        };
        let faults = match v.get("faults") {
            None => FaultPlan::none(),
            Some(f) => fault_plan_from_value(f)?,
        };
        Ok(Scenario {
            policy,
            workload,
            num_plaintexts,
            lines,
            seed,
            key,
            timing,
            selective,
            gpu,
            faults,
        })
    }

    /// Stable content hash: FNV-1a 64 over the canonical JSON bytes. No
    /// address- or process-dependent state enters the digest, so equal
    /// scenarios hash equally across processes and platforms.
    pub fn content_hash(&self) -> u64 {
        fnv1a_64(self.to_json().as_bytes())
    }

    /// The content hash as 16 lower-case hex digits (cache file names).
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash())
    }
}

/// FNV-1a 64-bit over a byte string.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn field_usize(v: &Value, key: &str) -> Result<usize, ScenarioError> {
    v.as_usize()
        .ok_or_else(|| ScenarioError::new(format!("{key} must be an integer")))
}

fn field_u64(v: &Value, key: &str) -> Result<u64, ScenarioError> {
    v.as_u64()
        .ok_or_else(|| ScenarioError::new(format!("{key} must be a u64 integer")))
}

fn field_f64(v: &Value, key: &str) -> Result<f64, ScenarioError> {
    v.as_f64()
        .ok_or_else(|| ScenarioError::new(format!("{key} must be a number")))
}

/// Rejects members of object `v` outside `allowed`.
pub(crate) fn expect_fields(v: &Value, what: &str, allowed: &[&str]) -> Result<(), ScenarioError> {
    let members = v
        .as_obj()
        .ok_or_else(|| ScenarioError::new(format!("{what} must be a JSON object")))?;
    for (key, _) in members {
        if !allowed.contains(&key.as_str()) {
            return Err(ScenarioError::new(format!(
                "unknown {what} field {key:?} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn hex_decode_key(hex: &str) -> Result<[u8; 16], ScenarioError> {
    unhex(hex)
        .ok()
        .and_then(|bytes| <[u8; 16]>::try_from(bytes).ok())
        .ok_or_else(|| ScenarioError::new(format!("key must be 32 hex digits, got {hex:?}")))
}

// ------------------------------------------------------------ fault plans

fn jitter_to_value(j: ReplyJitter) -> Value {
    match j {
        ReplyJitter::None => Value::str("none"),
        ReplyJitter::Uniform { min, max } => ObjBuilder::new()
            .field(
                "uniform",
                ObjBuilder::new()
                    .field("min", Value::u64(min))
                    .field("max", Value::u64(max))
                    .build(),
            )
            .build(),
        ReplyJitter::Gaussian { sigma } => ObjBuilder::new()
            .field(
                "gaussian",
                ObjBuilder::new().field("sigma", Value::f64(sigma)).build(),
            )
            .build(),
    }
}

fn jitter_from_value(v: &Value) -> Result<ReplyJitter, ScenarioError> {
    if v.as_str() == Some("none") {
        return Ok(ReplyJitter::None);
    }
    if let Some(u) = v.get("uniform") {
        expect_fields(v, "jitter", &["uniform"])?;
        expect_fields(u, "uniform jitter", &["min", "max"])?;
        let min = field_u64(u.get("min").unwrap_or(&Value::Null), "jitter uniform min")?;
        let max = field_u64(u.get("max").unwrap_or(&Value::Null), "jitter uniform max")?;
        return Ok(ReplyJitter::Uniform { min, max });
    }
    if let Some(g) = v.get("gaussian") {
        expect_fields(v, "jitter", &["gaussian"])?;
        expect_fields(g, "gaussian jitter", &["sigma"])?;
        let sigma = field_f64(
            g.get("sigma").unwrap_or(&Value::Null),
            "jitter gaussian sigma",
        )?;
        return Ok(ReplyJitter::Gaussian { sigma });
    }
    Err(ScenarioError::new(format!(
        "jitter must be \"none\", {{\"uniform\":…}} or {{\"gaussian\":…}}, got {}",
        v.to_json()
    )))
}

fn mc_fault_to_value(mc: &McFault) -> Value {
    ObjBuilder::new()
        .field("jitter", jitter_to_value(mc.jitter))
        .field("drop_rate", Value::f64(mc.drop_rate))
        .field("max_retries", Value::u64(u64::from(mc.max_retries)))
        .build()
}

fn mc_fault_from_value(v: &Value) -> Result<McFault, ScenarioError> {
    expect_fields(v, "mc fault", &["jitter", "drop_rate", "max_retries"])?;
    let mut out = McFault::default();
    if let Some(j) = v.get("jitter") {
        out.jitter = jitter_from_value(j)?;
    }
    if let Some(d) = v.get("drop_rate") {
        out.drop_rate = field_f64(d, "drop_rate")?;
    }
    if let Some(r) = v.get("max_retries") {
        out.max_retries = r
            .as_u32()
            .ok_or_else(|| ScenarioError::new("max_retries must be a u32 integer"))?;
    }
    Ok(out)
}

/// Serializes a fault plan (full structure; the scenario layer omits the
/// whole block when the plan is [`FaultPlan::none`]).
pub fn fault_plan_to_value(plan: &FaultPlan) -> Value {
    ObjBuilder::new()
        .field("seed", Value::u64(plan.seed))
        .field("default_mc", mc_fault_to_value(&plan.default_mc))
        .field(
            "per_mc",
            Value::Arr(
                plan.per_mc
                    .iter()
                    .map(|(mc, profile)| {
                        Value::Arr(vec![Value::usize(*mc), mc_fault_to_value(profile)])
                    })
                    .collect(),
            ),
        )
        .field(
            "backpressure",
            ObjBuilder::new()
                .field("stall_rate", Value::f64(plan.backpressure.stall_rate))
                .field("stall_cycles", Value::u64(plan.backpressure.stall_cycles))
                .build(),
        )
        .build()
}

/// Parses a fault plan from its JSON form. Absent fields default to the
/// corresponding [`FaultPlan::none`] component.
///
/// # Errors
///
/// Returns a [`ScenarioError`] for unknown or ill-typed fields.
pub fn fault_plan_from_value(v: &Value) -> Result<FaultPlan, ScenarioError> {
    expect_fields(
        v,
        "fault plan",
        &["seed", "default_mc", "per_mc", "backpressure"],
    )?;
    let mut plan = FaultPlan::none();
    if let Some(s) = v.get("seed") {
        plan.seed = field_u64(s, "fault seed")?;
    }
    if let Some(mc) = v.get("default_mc") {
        plan.default_mc = mc_fault_from_value(mc)?;
    }
    if let Some(per) = v.get("per_mc") {
        let items = per
            .as_arr()
            .ok_or_else(|| ScenarioError::new("per_mc must be an array of [index, fault]"))?;
        for item in items {
            let pair = item
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| ScenarioError::new("per_mc entries must be [index, fault]"))?;
            let idx = field_usize(&pair[0], "per_mc index")?;
            plan.per_mc.push((idx, mc_fault_from_value(&pair[1])?));
        }
    }
    if let Some(bp) = v.get("backpressure") {
        expect_fields(bp, "backpressure", &["stall_rate", "stall_cycles"])?;
        if let Some(r) = bp.get("stall_rate") {
            plan.backpressure.stall_rate = field_f64(r, "stall_rate")?;
        }
        if let Some(c) = bp.get("stall_cycles") {
            plan.backpressure.stall_cycles = field_u64(c, "stall_cycles")?;
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scenarios() -> Vec<Scenario> {
        let mut out = vec![
            Scenario::new(CoalescingPolicy::Baseline, 100, 32),
            Scenario::new(CoalescingPolicy::Disabled, 10, 32).functional_only(),
            Scenario::new(CoalescingPolicy::fss(8).unwrap(), 50, 1024).with_seed(u64::MAX),
            Scenario::selective(CoalescingPolicy::rss_rts(4).unwrap(), 70, 32),
            Scenario::new(CoalescingPolicy::rss(3).unwrap(), 5, 32)
                .with_key([0xab; 16])
                .with_seed(0xdead_beef_dead_beef),
        ];
        out.push(
            Scenario::new(CoalescingPolicy::fss_rts(2).unwrap(), 20, 32).with_gpu(GpuOverrides {
                mshr_entries: Some(64),
                l1_sets: Some(16),
                ..GpuOverrides::default()
            }),
        );
        out.push(
            Scenario::new(CoalescingPolicy::Baseline, 8, 32).with_faults(
                FaultPlan::seeded(9)
                    .with_jitter(ReplyJitter::Uniform { min: 1, max: 40 })
                    .with_mc_drop(2, 0.05, 3)
                    .with_backpressure(0.001, 16),
            ),
        );
        out.push(
            Scenario::new(CoalescingPolicy::Baseline, 8, 32).with_faults(
                FaultPlan::seeded(3).with_jitter(ReplyJitter::Gaussian { sigma: 12.5 }),
            ),
        );
        out.push(
            Scenario::new(CoalescingPolicy::fss(8).unwrap(), 12, 32).with_workload("present80"),
        );
        out
    }

    #[test]
    fn json_round_trips_for_all_samples() {
        for s in sample_scenarios() {
            let json = s.to_json();
            let back = Scenario::from_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
            assert_eq!(back, s, "{json}");
            assert_eq!(back.to_json(), json, "canonical form is a fixpoint");
        }
    }

    #[test]
    fn hash_is_stable_and_content_derived() {
        // Pinned digest: catches accidental canonical-form changes, and
        // documents that the hash is process-independent.
        let s = Scenario::new(CoalescingPolicy::Baseline, 100, 32);
        assert_eq!(s.content_hash(), fnv1a_64(s.to_json().as_bytes()));
        let again = Scenario::new(CoalescingPolicy::Baseline, 100, 32);
        assert_eq!(s.content_hash(), again.content_hash());
        assert_eq!(s.hash_hex().len(), 16);
        // Any field change moves the hash.
        assert_ne!(
            s.content_hash(),
            s.clone().with_seed(DEFAULT_SEED + 1).content_hash()
        );
        assert_ne!(
            s.content_hash(),
            Scenario::new(CoalescingPolicy::Baseline, 101, 32).content_hash()
        );
    }

    #[test]
    fn non_canonical_field_order_parses_to_the_same_hash() {
        let s = Scenario::new(CoalescingPolicy::fss(8).unwrap(), 50, 32).with_seed(7);
        let scrambled = format!(
            r#"{{"seed":7,"lines":32,"policy":"fss:8","num_plaintexts":50,"schema":"{SCENARIO_SCHEMA}"}}"#
        );
        let parsed = Scenario::from_json(&scrambled).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.content_hash(), s.content_hash());
    }

    #[test]
    fn defaults_are_omitted_from_canonical_form() {
        let json = Scenario::new(CoalescingPolicy::Baseline, 1, 32).to_json();
        for absent in ["workload", "key", "timing", "selective", "gpu", "faults"] {
            assert!(
                !json.contains(&format!("\"{absent}\"")),
                "{absent} should be omitted: {json}"
            );
        }
    }

    #[test]
    fn workload_field_round_trips_and_moves_the_hash() {
        let aes = Scenario::new(CoalescingPolicy::Baseline, 10, 32);
        let present = aes.clone().with_workload("present80");
        assert_ne!(aes.content_hash(), present.content_hash());
        let back = Scenario::from_json(&present.to_json()).unwrap();
        assert_eq!(back.workload.as_deref(), Some("present80"));
        assert_eq!(back.content_hash(), present.content_hash());
        // "aes" is the default: explicit or absent, same scenario.
        assert_eq!(aes.clone().with_workload("aes"), aes);
        let explicit = format!(
            r#"{{"schema":"{SCENARIO_SCHEMA}","policy":"baseline","workload":"aes","num_plaintexts":10,"lines":32,"seed":{DEFAULT_SEED}}}"#
        );
        assert_eq!(Scenario::from_json(&explicit).unwrap(), aes);
        // A pre-registry document (no workload field) still parses and
        // hashes exactly as before.
        assert!(!aes.to_json().contains("workload"));
        assert_eq!(Scenario::from_json(&aes.to_json()).unwrap(), aes);
        let typed = format!(
            r#"{{"schema":"{SCENARIO_SCHEMA}","policy":"baseline","workload":7,"num_plaintexts":1,"lines":32,"seed":1}}"#
        );
        assert!(Scenario::from_json(&typed).is_err(), "non-string workload");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let json = format!(
            r#"{{"schema":"{SCENARIO_SCHEMA}","policy":"baseline","num_plaintexts":1,"lines":32,"seed":1,"warp_speed":9}}"#
        );
        let err = Scenario::from_json(&json).unwrap_err().to_string();
        assert!(err.contains("warp_speed"), "{err}");
        let gpu = format!(
            r#"{{"schema":"{SCENARIO_SCHEMA}","policy":"baseline","num_plaintexts":1,"lines":32,"seed":1,"gpu":{{"cores":3}}}}"#
        );
        assert!(Scenario::from_json(&gpu).is_err());
        // Instrumentation is an execution detail, not part of a scenario.
        let telemetry = format!(
            r#"{{"schema":"{SCENARIO_SCHEMA}","policy":"baseline","num_plaintexts":1,"lines":32,"seed":1,"telemetry":{{"event_capacity":4,"min_severity":"info"}}}}"#
        );
        let err = Scenario::from_json(&telemetry).unwrap_err().to_string();
        assert!(err.contains("telemetry"), "{err}");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let json = r#"{"schema":"rcoal-scenario/v9","policy":"baseline","num_plaintexts":1,"lines":32,"seed":1}"#;
        let err = Scenario::from_json(json).unwrap_err().to_string();
        assert!(err.contains("rcoal-scenario/v9"), "{err}");
        assert!(Scenario::from_json("{}").is_err(), "missing schema");
    }

    #[test]
    fn key_hex_round_trips_and_rejects_garbage() {
        let key: [u8; 16] = *b"rcoal demo key<>";
        let s = Scenario::new(CoalescingPolicy::Baseline, 1, 32).with_key(key);
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back.key, Some(key));
        for bad in ["\"key\":\"abc\"", "\"key\":\"zz\""] {
            let json = format!(
                r#"{{"schema":"{SCENARIO_SCHEMA}","policy":"baseline","num_plaintexts":1,"lines":32,"seed":1,{bad}}}"#
            );
            assert!(Scenario::from_json(&json).is_err(), "{json}");
        }
    }

    #[test]
    fn full_range_seeds_survive_the_round_trip() {
        for seed in [0, u64::MAX, (1 << 53) + 1, 0x5C0A1] {
            let s = Scenario::new(CoalescingPolicy::Baseline, 1, 32).with_seed(seed);
            assert_eq!(Scenario::from_json(&s.to_json()).unwrap().seed, seed);
        }
    }

    #[test]
    fn gpu_overrides_apply_sparsely() {
        let o = GpuOverrides {
            mshr_entries: Some(64),
            num_sms: Some(2),
            ..GpuOverrides::default()
        };
        let cfg = o.apply(GpuConfig::paper());
        assert_eq!(cfg.mshr_entries, 64);
        assert_eq!(cfg.num_sms, 2);
        assert_eq!(cfg.warp_size, GpuConfig::paper().warp_size);
        assert!(GpuOverrides::none().is_empty());
        assert!(!o.is_empty());
    }

    #[test]
    fn every_gpu_override_field_round_trips() {
        let o = GpuOverrides {
            num_sms: Some(1),
            warp_size: Some(8),
            num_mem_controllers: Some(2),
            banks_per_mc: Some(4),
            bank_groups_per_mc: Some(2),
            interleave_bytes: Some(128),
            row_size_bytes: Some(1024),
            block_size: Some(32),
            scheduler: Some(SchedulerPolicy::Lrr),
            l1_sets: Some(16),
            l1_ways: Some(2),
            mshr_entries: Some(8),
            max_cycles: Some(1_000_000),
            watchdog_window: Some(0),
        };
        let s = Scenario::new(CoalescingPolicy::Baseline, 1, 32).with_gpu(o.clone());
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back.gpu, o);
    }

    #[test]
    fn fault_plan_round_trips_including_f64_knobs() {
        let plan = FaultPlan::seeded(0xfeed)
            .with_jitter(ReplyJitter::Gaussian { sigma: 0.1 })
            .with_mc_jitter(1, ReplyJitter::Uniform { min: 2, max: 9 })
            .with_mc_drop(4, 0.333, 2)
            .with_backpressure(1e-4, 7);
        let v = fault_plan_to_value(&plan);
        let back = fault_plan_from_value(&Value::parse(&v.to_json()).unwrap()).unwrap();
        assert_eq!(back, plan, "{}", v.to_json());
    }

    #[test]
    fn validate_checks_workload_gpu_and_faults() {
        assert!(Scenario::new(CoalescingPolicy::Baseline, 0, 32)
            .validate()
            .is_err());
        assert!(Scenario::new(CoalescingPolicy::Baseline, 1, 0)
            .validate()
            .is_err());
        let bad_gpu = Scenario::new(CoalescingPolicy::Baseline, 1, 32).with_gpu(GpuOverrides {
            block_size: Some(48),
            ..GpuOverrides::default()
        });
        assert!(bad_gpu.validate().is_err());
        let bad_faults = Scenario::new(CoalescingPolicy::Baseline, 1, 32)
            .with_faults(FaultPlan::none().with_drop(1.5, 0));
        assert!(bad_faults.validate().is_err());
        Scenario::new(CoalescingPolicy::Baseline, 1, 32)
            .validate()
            .unwrap();
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }
}
