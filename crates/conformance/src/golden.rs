//! Golden-master fixtures: content-hashed result snapshots for
//! paper-default configurations, committed under `tests/goldens/`.
//!
//! Each fixture is a JSON document `{schema, name, hash, payload}` where
//! `hash` is the FNV-1a 64 of the payload's canonical JSON — so a
//! hand-edited or truncated fixture is detected independently of any
//! drift in the simulator. Drift is reported as a field-level diff, and
//! `RCOAL_UPDATE_GOLDENS=1` (or `--update-goldens` on the CLI) rewrites
//! the fixtures after an intentional behaviour change.

use crate::report::SectionReport;
use crate::ConformanceError;
use rcoal_aes::TableKernel;
use rcoal_core::CoalescingPolicy;
use rcoal_experiments::{run_to_value, ExperimentConfig, DEMO_KEY};
use rcoal_gpu_sim::{FaultPlan, GpuConfig, GpuSimulator, ReplyJitter, SimStats};
use rcoal_scenario::fnv1a_64;
use rcoal_scenario::json::{ObjBuilder, Value};
use rcoal_theory::table2;
use std::path::{Path, PathBuf};

/// Schema tag carried by every golden fixture.
pub const GOLDEN_SCHEMA: &str = "rcoal-golden/v1";

/// Seed for every golden workload (arbitrary but frozen: changing it
/// invalidates all fixtures).
const GOLDEN_SEED: u64 = 0x901d_5eed;

/// How one fixture check resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenOutcome {
    /// Fixture exists and the payload matches bit-for-bit.
    Matched,
    /// Fixture exists but the payload differs (diff accompanies this).
    Drifted,
    /// Fixture was missing and has been written (update mode).
    Created,
    /// Fixture differed and has been rewritten (update mode).
    Updated,
}

/// The committed goldens directory: `tests/goldens/` at the workspace
/// root, resolved relative to this crate so it works from any cwd.
pub fn default_goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

/// Whether the environment requests fixture regeneration
/// (`RCOAL_UPDATE_GOLDENS=1`).
pub fn update_requested() -> bool {
    std::env::var("RCOAL_UPDATE_GOLDENS").as_deref() == Ok("1")
}

fn fixture_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.json"))
}

fn write_fixture(dir: &Path, name: &str, payload: &Value) -> Result<(), ConformanceError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| ConformanceError::new(format!("creating {}: {e}", dir.display())))?;
    let doc = ObjBuilder::new()
        .field("schema", Value::str(GOLDEN_SCHEMA))
        .field("name", Value::str(name))
        .field(
            "hash",
            Value::str(format!("{:016x}", fnv1a_64(payload.to_json().as_bytes()))),
        )
        .field("payload", payload.clone())
        .build();
    let path = fixture_path(dir, name);
    std::fs::write(&path, doc.to_json() + "\n")
        .map_err(|e| ConformanceError::new(format!("writing {}: {e}", path.display())))
}

/// Recursive field-level diff; paths like `rows[3].rho_fss`.
fn diff_values(path: &str, expected: &Value, got: &Value, out: &mut Vec<String>) {
    match (expected, got) {
        (Value::Obj(a), Value::Obj(b)) => {
            for (k, va) in a {
                match b.iter().find(|(kb, _)| kb == k) {
                    Some((_, vb)) => diff_values(&format!("{path}.{k}"), va, vb, out),
                    None => out.push(format!("{path}.{k}: missing in current output")),
                }
            }
            for (k, _) in b {
                if !a.iter().any(|(ka, _)| ka == k) {
                    out.push(format!("{path}.{k}: not present in golden"));
                }
            }
        }
        (Value::Arr(a), Value::Arr(b)) => {
            if a.len() != b.len() {
                out.push(format!("{path}: length {} -> {}", a.len(), b.len()));
            }
            for (i, (va, vb)) in a.iter().zip(b).enumerate() {
                diff_values(&format!("{path}[{i}]"), va, vb, out);
            }
        }
        _ => {
            if expected != got {
                out.push(format!(
                    "{path}: golden {} -> current {}",
                    expected.to_json(),
                    got.to_json()
                ));
            }
        }
    }
}

/// Checks `payload` against the committed fixture `dir/name.json`.
///
/// Returns the outcome plus drift diffs (non-empty only for
/// [`GoldenOutcome::Drifted`]). In update mode, drift and missing
/// fixtures are resolved by rewriting.
///
/// # Errors
///
/// Returns [`ConformanceError`] on I/O failure or a corrupt fixture
/// (bad JSON, wrong schema, or a stored hash that does not match the
/// stored payload).
pub fn check_value(
    dir: &Path,
    name: &str,
    payload: &Value,
    update: bool,
) -> Result<(GoldenOutcome, Vec<String>), ConformanceError> {
    let path = fixture_path(dir, name);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            if update {
                write_fixture(dir, name, payload)?;
                return Ok((GoldenOutcome::Created, Vec::new()));
            }
            return Err(ConformanceError::new(format!(
                "golden {} is missing; regenerate with RCOAL_UPDATE_GOLDENS=1",
                path.display()
            )));
        }
        Err(e) => {
            return Err(ConformanceError::new(format!(
                "reading {}: {e}",
                path.display()
            )))
        }
    };
    let doc = Value::parse(&text)
        .map_err(|e| ConformanceError::new(format!("{}: {e}", path.display())))?;
    if doc.get("schema").and_then(Value::as_str) != Some(GOLDEN_SCHEMA) {
        return Err(ConformanceError::new(format!(
            "{}: not a {GOLDEN_SCHEMA} document",
            path.display()
        )));
    }
    let stored = doc
        .get("payload")
        .ok_or_else(|| ConformanceError::new(format!("{}: no payload", path.display())))?;
    let stored_hash = doc.get("hash").and_then(Value::as_str).unwrap_or("");
    if stored_hash != format!("{:016x}", fnv1a_64(stored.to_json().as_bytes())) {
        return Err(ConformanceError::new(format!(
            "{}: stored hash does not match stored payload (corrupt or hand-edited fixture)",
            path.display()
        )));
    }
    if stored == payload {
        return Ok((GoldenOutcome::Matched, Vec::new()));
    }
    if update {
        write_fixture(dir, name, payload)?;
        return Ok((GoldenOutcome::Updated, Vec::new()));
    }
    let mut diffs = Vec::new();
    diff_values(name, stored, payload, &mut diffs);
    if diffs.is_empty() {
        // Same tree, different key order — canonical emitters never do this.
        diffs.push(format!("{name}: payload differs structurally"));
    }
    Ok((GoldenOutcome::Drifted, diffs))
}

fn stats_to_value(stats: &SimStats) -> Value {
    stats_fields(stats).build()
}

/// The fault-free `SimStats` fields of a fixture, open for extension.
fn stats_fields(stats: &SimStats) -> ObjBuilder {
    ObjBuilder::new()
        .field("total_cycles", Value::u64(stats.total_cycles))
        .field("total_accesses", Value::u64(stats.total_accesses))
        .field("total_requests", Value::u64(stats.total_requests))
        .field(
            "accesses_by_tag",
            Value::Arr(
                stats
                    .accesses_by_tag
                    .iter()
                    .map(|&n| Value::u64(n))
                    .collect(),
            ),
        )
        .field(
            "round_complete_cycle",
            Value::Arr(
                stats
                    .round_complete_cycle
                    .iter()
                    .map(|&n| Value::u64(n))
                    .collect(),
            ),
        )
        .field("num_warps", Value::usize(stats.num_warps))
        .field("row_hit_rate", Value::f64(stats.row_hit_rate))
        .field("mem_latency_sum", Value::u64(stats.mem_latency_sum))
        .field("mshr_merged", Value::u64(stats.mshr_merged))
        .field("l1_hits", Value::u64(stats.l1_hits))
        .field(
            "warp_finish_cycle",
            Value::Arr(
                stats
                    .warp_finish_cycle
                    .iter()
                    .map(|&n| Value::u64(n))
                    .collect(),
            ),
        )
}

/// The golden policy set: the paper's headline configurations.
fn golden_policies() -> Result<Vec<(&'static str, CoalescingPolicy)>, ConformanceError> {
    let err = |e| ConformanceError::new(format!("golden policy: {e}"));
    Ok(vec![
        ("baseline", CoalescingPolicy::Baseline),
        ("disabled", CoalescingPolicy::Disabled),
        ("fss_m4", CoalescingPolicy::fss(4).map_err(err)?),
        ("fss_rts_m8", CoalescingPolicy::fss_rts(8).map_err(err)?),
        ("rss_m4", CoalescingPolicy::rss(4).map_err(err)?),
        ("rss_rts_m8", CoalescingPolicy::rss_rts(8).map_err(err)?),
    ])
}

/// Computes every built-in golden payload from the current code.
///
/// Three layers of the result pipeline are pinned: the analytic Table II
/// (`rcoal-theory`), raw `SimStats` of AES launches on the paper machine
/// (`rcoal-gpu-sim`), and full experiment run documents
/// (`rcoal-experiments`, the `rcoal-run/v1` encoding).
///
/// # Errors
///
/// Returns [`ConformanceError`] when a golden workload fails to run.
pub fn builtin_goldens() -> Result<Vec<(String, Value)>, ConformanceError> {
    let mut goldens = Vec::new();

    // 1. Table II from the analytic model.
    let rows: Vec<Value> = table2()
        .iter()
        .map(|r| {
            ObjBuilder::new()
                .field("m", Value::usize(r.m))
                .field("rho_fss", Value::f64(r.rho_fss))
                .field("rho_fss_rts", Value::f64(r.rho_fss_rts))
                .field("rho_rss_rts", Value::f64(r.rho_rss_rts))
                .field("s_fss", Value::f64(r.s_fss))
                .field("s_fss_rts", Value::f64(r.s_fss_rts))
                .field("s_rss_rts", Value::f64(r.s_rss_rts))
                .build()
        })
        .collect();
    goldens.push((
        "theory_table2".to_string(),
        ObjBuilder::new().field("rows", Value::Arr(rows)).build(),
    ));

    // 2. Cycle-level SimStats for AES launches on the paper machine.
    let lines = rcoal_experiments::random_plaintexts(1, 128, GOLDEN_SEED)
        .pop()
        .ok_or_else(|| ConformanceError::new("plaintext generation returned nothing"))?;
    let sim = GpuSimulator::new(GpuConfig::paper());
    let mut per_policy = ObjBuilder::new();
    for (name, policy) in golden_policies()? {
        let kernel = TableKernel::aes(&DEMO_KEY, &lines, GpuConfig::paper().warp_size);
        let stats = sim
            .run(&kernel, policy, GOLDEN_SEED)
            .map_err(|e| ConformanceError::new(format!("golden sim {name}: {e}")))?;
        per_policy = per_policy.field(name, stats_to_value(&stats));
    }
    goldens.push(("sim_stats_paper_aes".to_string(), per_policy.build()));

    // 2b. The same launch under a seeded fault plan: reply jitter on
    // every controller, drops with retransmits on controller 0. Jitter
    // makes the reply-release order differ from the DRAM completion
    // order, and retransmits re-enter a controller queue mid-run, so
    // this fixture pins paths a fault-free launch never takes. The plan
    // has no backpressure, so the event-driven loop runs it.
    let plan = FaultPlan::seeded(7)
        .with_jitter(ReplyJitter::Uniform { min: 0, max: 40 })
        .with_mc_drop(0, 0.05, 8);
    let mut per_policy = ObjBuilder::new();
    for (name, policy) in [
        ("baseline", CoalescingPolicy::Baseline),
        (
            "rss_rts_m8",
            CoalescingPolicy::rss_rts(8)
                .map_err(|e| ConformanceError::new(format!("golden policy: {e}")))?,
        ),
    ] {
        let kernel = TableKernel::aes(&DEMO_KEY, &lines, GpuConfig::paper().warp_size);
        let stats = sim
            .run_faulted(&kernel, policy, GOLDEN_SEED, &plan)
            .map_err(|e| ConformanceError::new(format!("golden faulted sim {name}: {e}")))?;
        let fields = stats_fields(&stats)
            .field("dropped_replies", Value::u64(stats.dropped_replies))
            .field("fault_retries", Value::u64(stats.fault_retries))
            .field("replies_lost", Value::u64(stats.replies_lost));
        per_policy = per_policy.field(name, fields.build());
    }
    goldens.push((
        "sim_stats_paper_aes_faulted".to_string(),
        per_policy.build(),
    ));

    // 3. Cycle-level SimStats for every non-AES registry workload under
    // the subwarp defenses (AES is already pinned by golden 2). One
    // fixture per workload keeps diffs local to the kernel that drifted.
    for workload in rcoal_workload::registry() {
        if workload.name() == "aes" {
            continue;
        }
        let key = rcoal_experiments::demo_key_for(*workload);
        let mut per_policy = ObjBuilder::new();
        for (name, policy) in [
            (
                "fss_m8",
                CoalescingPolicy::fss(8)
                    .map_err(|e| ConformanceError::new(format!("golden policy: {e}")))?,
            ),
            (
                "rss_m8",
                CoalescingPolicy::rss(8)
                    .map_err(|e| ConformanceError::new(format!("golden policy: {e}")))?,
            ),
        ] {
            let kernel = workload.build_kernel(&key, lines.clone(), GpuConfig::paper().warp_size);
            let stats = sim.run(&kernel, policy, GOLDEN_SEED).map_err(|e| {
                ConformanceError::new(format!("golden sim {}/{name}: {e}", workload.name()))
            })?;
            per_policy = per_policy.field(name, stats_to_value(&stats));
        }
        goldens.push((
            format!("sim_stats_paper_{}", workload.name()),
            per_policy.build(),
        ));
    }

    // 4. Full experiment run documents (the figure-row inputs).
    let mut runs = ObjBuilder::new();
    for (name, policy) in [
        ("baseline", CoalescingPolicy::Baseline),
        (
            "rss_rts_m8",
            CoalescingPolicy::rss_rts(8)
                .map_err(|e| ConformanceError::new(format!("golden policy: {e}")))?,
        ),
    ] {
        let mut cfg = ExperimentConfig::new(policy, 3, 32);
        cfg.seed = GOLDEN_SEED;
        cfg.timing = true;
        let data = cfg
            .run()
            .map_err(|e| ConformanceError::new(format!("golden experiment {name}: {e}")))?;
        let doc =
            run_to_value(&data).ok_or_else(|| ConformanceError::new("run document unavailable"))?;
        runs = runs.field(name, doc);
    }
    goldens.push(("experiment_runs".to_string(), runs.build()));

    Ok(goldens)
}

/// Golden section: every built-in golden checked (or rewritten) against
/// `dir`.
///
/// # Errors
///
/// Returns [`ConformanceError`] on I/O failure, corrupt fixtures, or a
/// missing fixture outside update mode.
pub fn section(dir: &Path, update: bool) -> Result<SectionReport, ConformanceError> {
    let mut section = SectionReport::new("golden masters");
    for (name, payload) in builtin_goldens()? {
        section.cases += 1;
        let (outcome, diffs) = check_value(dir, &name, &payload, update)?;
        if outcome == GoldenOutcome::Drifted {
            section.failures.push(format!(
                "golden {name} drifted ({} field(s)); rerun with RCOAL_UPDATE_GOLDENS=1 \
                 if the change is intentional",
                diffs.len()
            ));
            section.failures.extend(diffs.into_iter().take(6));
        }
    }
    Ok(section)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rcoal-golden-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> Value {
        ObjBuilder::new()
            .field("x", Value::u64(7))
            .field("rows", Value::Arr(vec![Value::u64(1), Value::u64(2)]))
            .build()
    }

    #[test]
    fn create_match_drift_update_cycle() {
        let dir = scratch_dir("cycle");
        let v = sample();
        // Missing without update mode is an error, not silent drift.
        assert!(check_value(&dir, "t", &v, false).is_err());
        assert_eq!(
            check_value(&dir, "t", &v, true).unwrap().0,
            GoldenOutcome::Created
        );
        assert_eq!(
            check_value(&dir, "t", &v, false).unwrap().0,
            GoldenOutcome::Matched
        );
        let changed = ObjBuilder::new()
            .field("x", Value::u64(8))
            .field("rows", Value::Arr(vec![Value::u64(1)]))
            .build();
        let (outcome, diffs) = check_value(&dir, "t", &changed, false).unwrap();
        assert_eq!(outcome, GoldenOutcome::Drifted);
        assert!(diffs.iter().any(|d| d.contains("t.x")), "{diffs:?}");
        assert!(diffs.iter().any(|d| d.contains("length")), "{diffs:?}");
        assert_eq!(
            check_value(&dir, "t", &changed, true).unwrap().0,
            GoldenOutcome::Updated
        );
        assert_eq!(
            check_value(&dir, "t", &changed, false).unwrap().0,
            GoldenOutcome::Matched
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_fixture_is_rejected() {
        let dir = scratch_dir("corrupt");
        let v = sample();
        check_value(&dir, "t", &v, true).unwrap();
        let path = dir.join("t.json");
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"x\":7", "\"x\":9");
        std::fs::write(&path, tampered).unwrap();
        let err = check_value(&dir, "t", &v, false).unwrap_err();
        assert!(err.to_string().contains("hash"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builtin_goldens_are_deterministic() {
        let a = builtin_goldens().unwrap();
        let b = builtin_goldens().unwrap();
        // table2 + AES sim stats (fault-free and faulted) + one fixture
        // per non-AES workload + experiment runs.
        assert_eq!(a.len(), 4 + rcoal_workload::registry().len() - 1);
        for ((na, va), (nb, vb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(va.to_json(), vb.to_json(), "golden {na} not deterministic");
        }
    }

    #[test]
    fn table2_golden_has_six_rows() {
        let goldens = builtin_goldens().unwrap();
        let (_, table) = &goldens[0];
        assert_eq!(table.get("rows").and_then(Value::as_arr).unwrap().len(), 6);
    }
}
