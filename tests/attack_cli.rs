//! End-to-end tests of `rcoal-cli attack`, the one attack path.
//!
//! Drives the real binary as a subprocess. A streamed attack that runs
//! to its budget must print the per-byte table `Attack::recover_key`
//! computes on a materialized run of the same samples, and
//! `--samples`, `--trace-out` and `--progress`, which only a
//! materialized run could serve, must fail by name.

use rcoal::prelude::*;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rcoal-cli"))
        .args(args)
        .output()
        .expect("failed to launch rcoal-cli")
}

/// The lines of `text` that carry the recovery: the per-byte table,
/// the summary, and the remaining key security.
fn recovery_lines(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| {
            l.starts_with("byte ") || l.starts_with("recovered ") || l.starts_with("remaining ")
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn streamed_attack_prints_the_materialized_recovery() {
    // RSS(8)+RTS predictions draw from the attack seed, so the CLI's
    // `seed ^ 0xa77ac` is pinned too; the baseline's are seed-free.
    for policy in ["baseline", "rss-rts:8"] {
        assert_streamed_equals_materialized(policy);
    }
}

/// `attack --policy POLICY --max-samples N --early-stop false` prints
/// the per-byte table of `Attack::recover_key` over a materialized run
/// of the same N samples with the CLI's attack seed.
fn assert_streamed_equals_materialized(policy_spec: &str) {
    const SAMPLES: usize = 12;
    const SEED: u64 = 7;
    let out = cli(&[
        "attack",
        "--policy",
        policy_spec,
        "--max-samples",
        &SAMPLES.to_string(),
        "--early-stop",
        "false",
        "--seed",
        &SEED.to_string(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "attack failed:\n{stdout}");
    assert!(
        stdout.contains(&format!("budget exhausted at {SAMPLES} samples")),
        "{stdout}"
    );

    let policy: CoalescingPolicy = policy_spec.parse().unwrap();
    let data = ExperimentConfig::new(policy, SAMPLES, 32)
        .with_seed(SEED)
        .run()
        .unwrap();
    let samples = data.attack_samples(TimingSource::LastRoundCycles).unwrap();
    let rec = Attack::against(policy, 32)
        .with_seed(SEED ^ 0xa77ac)
        .recover_key(&samples)
        .unwrap();
    let k10 = data.attacked_subkey();
    let mut want: Vec<String> = rec
        .bytes
        .iter()
        .enumerate()
        .map(|(j, b)| {
            let hit = if b.best_guess == k10[j] {
                "HIT "
            } else {
                "miss"
            };
            format!(
                "byte {j:2}: guess 0x{:02x} actual 0x{:02x} [{hit}] corr {:+.3} rank {}",
                b.best_guess,
                k10[j],
                b.correlation_of(k10[j]),
                b.rank_of(k10[j])
            )
        })
        .collect();
    let o = rec.outcome(&k10);
    want.push(format!(
        "recovered {}/16 bytes; avg corr(correct) = {:+.3}; avg rank = {:.1}",
        o.num_correct, o.avg_correct_correlation, o.avg_rank_of_correct
    ));
    want.push(format!(
        "remaining key security: ~2^{:.1} candidate keys to enumerate",
        rcoal::attack::log2_key_rank(&rec, &k10)
    ));
    assert_eq!(recovery_lines(&stdout), want, "{policy_spec}");
}

/// `attack` with `extra` must exit 1 and name the option it rejects.
fn assert_rejected(extra: &[&str]) {
    let mut args = vec!["attack", "--policy", "baseline"];
    args.extend_from_slice(extra);
    let out = cli(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}\n{stderr}");
    assert!(
        stderr.contains(&format!("unknown option {}", extra[0])),
        "{args:?}\n{stderr}"
    );
}

#[test]
fn attack_rejects_the_sample_count_of_a_materialized_run() {
    assert_rejected(&["--samples", "10"]);
}

#[test]
fn attack_rejects_trace_out() {
    let path = std::env::temp_dir().join(format!("rcoal-attack-trace-{}", std::process::id()));
    assert_rejected(&["--trace-out", path.to_str().unwrap()]);
    assert!(!path.exists(), "a rejected command writes nothing");
}

#[test]
fn attack_rejects_progress() {
    assert_rejected(&["--progress", "true"]);
}
