//! End-to-end kill-and-resume test of `rcoal-cli sweep`.
//!
//! Drives the real binary as a subprocess: an uninterrupted reference
//! sweep establishes the expected result bytes; a chaos sweep is then
//! aborted mid-flight (`--chaos-abort-after`, a `std::process::abort`
//! with no unwinding) and resumed. The resumed sweep must serve every
//! stored run without re-simulating it and produce result files
//! byte-identical to the reference — the acceptance criterion for the
//! crash-safe store. A store entry damaged on disk must likewise be
//! set aside, re-simulated, and reported on the sweep's `store` line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rcoal-cli"))
}

fn spec_path() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/sweep_smoke.json"
    )
    .to_string()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcoal-cli-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("failed to launch rcoal-cli");
    assert!(
        out.status.success(),
        "rcoal-cli failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Result files by name, as raw bytes.
fn result_files(out_dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let dir = out_dir.join("results");
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        files.insert(
            path.file_name().unwrap().to_string_lossy().into_owned(),
            std::fs::read(&path).unwrap(),
        );
    }
    files
}

#[test]
fn killed_sweep_resumes_bit_identically() {
    let reference_dir = temp_dir("reference");
    let chaos_dir = temp_dir("interrupted");
    let spec = spec_path();

    // Reference: the sweep uninterrupted.
    run_ok(cli().args([
        "sweep",
        "--spec",
        &spec,
        "--out",
        reference_dir.to_str().unwrap(),
        "--threads",
        "1",
    ]));
    let reference = result_files(&reference_dir);
    assert_eq!(reference.len(), 3, "smoke spec expands to 3 scenarios");

    // Interrupted: abort the process after one stored completion.
    let killed = cli()
        .args([
            "sweep",
            "--spec",
            &spec,
            "--out",
            chaos_dir.to_str().unwrap(),
            "--threads",
            "1",
            "--chaos-abort-after",
            "1",
        ])
        .output()
        .expect("failed to launch rcoal-cli");
    assert!(
        !killed.status.success(),
        "the chaos abort must kill the process"
    );
    let store = chaos_dir.join("cache");
    let stored = std::fs::read_dir(&store)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "json")
        })
        .count();
    assert!(
        stored >= 1,
        "at least the aborting run's entry was persisted"
    );

    // The store must audit clean even after a hard abort.
    run_ok(cli().args(["cache", "verify", store.to_str().unwrap()]));

    // Resume: completes the sweep, re-simulating only the remainder.
    let resumed = run_ok(cli().args([
        "sweep",
        "--spec",
        &spec,
        "--out",
        chaos_dir.to_str().unwrap(),
        "--threads",
        "1",
    ]));
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        stdout.contains("1 from cache"),
        "the resume must serve the stored run without redoing it:\n{stdout}"
    );
    assert!(
        stdout.contains("served 3 run(s): 2 simulated"),
        "only the unstored remainder simulates:\n{stdout}"
    );

    // The acceptance bar: resumed results byte-identical to reference.
    let resumed_files = result_files(&chaos_dir);
    assert_eq!(
        resumed_files.keys().collect::<Vec<_>>(),
        reference.keys().collect::<Vec<_>>(),
        "same result set"
    );
    for (name, bytes) in &reference {
        assert_eq!(
            &resumed_files[name], bytes,
            "{name} differs between reference and resumed sweep"
        );
    }

    // A second resume is a pure replay: zero simulations.
    let replay = run_ok(cli().args([
        "sweep",
        "--spec",
        &spec,
        "--out",
        chaos_dir.to_str().unwrap(),
    ]));
    let stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(
        stdout.contains("served 3 run(s): 0 simulated"),
        "fully-stored sweep must not simulate:\n{stdout}"
    );

    std::fs::remove_dir_all(&reference_dir).unwrap();
    std::fs::remove_dir_all(&chaos_dir).unwrap();
}

#[test]
fn chaos_panic_sweep_never_loses_runs() {
    let reference_dir = temp_dir("panic-reference");
    let out_dir = temp_dir("panics");
    let spec = spec_path();
    let sweep = |dir: &Path, chaos: &[&str]| {
        cli()
            .args(["sweep", "--spec", &spec, "--out", dir.to_str().unwrap()])
            .args(["--threads", "1"])
            .args(chaos)
            .output()
            .expect("failed to launch rcoal-cli")
    };

    // Panic injection at period 2: each panicking task is quarantined,
    // the others complete, and the sweep reports the quarantine in its
    // exit code. Every scenario is either resolved or explicitly
    // quarantined in the index — nothing missing.
    let out = sweep(
        &out_dir,
        &["--chaos-seed", "11", "--chaos-panic-period", "2"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("served 3 run(s)"), "{stdout}");
    let index = std::fs::read_to_string(out_dir.join("index.json")).unwrap();
    let runs = index.matches("\"hash\"").count();
    assert_eq!(runs, 3, "every scenario appears in the index:\n{index}");
    let quarantined = index.matches("\"quarantined\":true").count();
    let with_result = index.matches("\"result\":\"results/").count();
    assert_eq!(
        with_result + quarantined,
        3,
        "each run resolved or quarantined, none lost:\n{index}"
    );
    assert!(quarantined > 0, "period-2 injection must fire:\n{index}");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a quarantine must fail the sweep:\n{stdout}"
    );

    // Re-running without chaos simulates the quarantined scenarios and
    // completes byte-identically to an uninterrupted sweep.
    let rerun = sweep(&out_dir, &[]);
    assert!(
        rerun.status.success(),
        "{}",
        String::from_utf8_lossy(&rerun.stderr)
    );
    let stdout = String::from_utf8_lossy(&rerun.stdout);
    assert!(
        stdout.contains(&format!("served 3 run(s): {quarantined} simulated")),
        "only the quarantined runs simulate again:\n{stdout}"
    );
    assert!(sweep(&reference_dir, &[]).status.success());
    assert_eq!(result_files(&out_dir), result_files(&reference_dir));

    std::fs::remove_dir_all(&reference_dir).unwrap();
    std::fs::remove_dir_all(&out_dir).unwrap();
}

#[test]
fn corrupted_store_entry_is_quarantined_and_reported() {
    let out_dir = temp_dir("corrupt");
    let spec = spec_path();
    let sweep =
        || run_ok(cli().args(["sweep", "--spec", &spec, "--out", out_dir.to_str().unwrap()]));
    let first = sweep();
    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(
        stdout.contains(
            "store            : 3 written, 0 write failure(s), 0 corrupt entries quarantined"
        ),
        "{stdout}"
    );
    let reference = result_files(&out_dir);

    // Tear one stored run in half, as a failing disk might.
    let store = out_dir.join("cache");
    let victim = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .min()
        .unwrap();
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();

    // The rerun re-simulates exactly the damaged run and says why.
    let rerun = sweep();
    let stdout = String::from_utf8_lossy(&rerun.stdout);
    assert!(stdout.contains("1 simulated, 2 from cache"), "{stdout}");
    assert!(
        stdout.contains(
            "store            : 1 written, 0 write failure(s), 1 corrupt entry quarantined"
        ),
        "the quarantine must be reported:\n{stdout}"
    );
    assert_eq!(result_files(&out_dir), reference, "results unchanged");
    run_ok(cli().args(["cache", "verify", store.to_str().unwrap()]));

    std::fs::remove_dir_all(&out_dir).unwrap();
}
