//! Host-level chaos suite for the run store, the sweep's one crash
//! record.
//!
//! Every test follows the same contract the sweep runner relies on:
//! under any injected fault — failed writes, corrupted payloads, torn
//! writes, temp files left by a crash — the store either *recovers* (the
//! value still serves, from memory or a clean re-read) or *quarantines*
//! (the bad entry moves aside and the lookup misses cleanly), and
//! completed work recorded before a crash is never lost or silently
//! altered. The fault schedules are seeded, so a failure here is
//! reproducible bit-for-bit.

use rcoal_core::CoalescingPolicy;
use rcoal_scenario::{
    encode_entry, ChaosPlan, DecodeFn, EncodeFn, RunCache, Scenario, ScenarioError,
};
use std::path::PathBuf;

fn scenario(seed: u64) -> Scenario {
    Scenario::new(CoalescingPolicy::Baseline, 4, 32).with_seed(seed)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcoal-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn codec() -> (EncodeFn<u64>, DecodeFn<u64>) {
    let encode: EncodeFn<u64> = |v| Some(v.to_string());
    let decode: DecodeFn<u64> = |s| {
        s.trim()
            .parse()
            .map_err(|e| ScenarioError::new(format!("{e}")))
    };
    (encode, decode)
}

/// The central chaos invariant: a storm of every write-path fault class
/// at once, and afterwards each value either serves *correctly* or
/// misses cleanly after quarantine — never a wrong value, never an
/// uncounted loss.
#[test]
fn fault_storm_recovers_or_quarantines_every_entry() {
    let dir = temp_dir("storm");
    let (encode, decode) = codec();
    let plan = ChaosPlan::seeded(0xc4a05)
        .with_io_failures(5)
        .with_corruption(7)
        .with_torn_writes(6);
    let writer = RunCache::with_disk(&dir, encode, decode)
        .unwrap()
        .with_chaos(plan);

    const N: u64 = 60;
    for i in 0..N {
        writer.insert(&scenario(i), i * 1000 + 7);
    }
    let wstats = writer.stats();
    assert_eq!(
        wstats.disk_stores + wstats.write_failures,
        N,
        "every write accounted: stored or counted-failed"
    );
    assert!(
        wstats.write_failures > 0,
        "io-failure class must have fired"
    );
    // Whatever the disk did, memory still serves everything.
    for i in 0..N {
        assert_eq!(writer.get(&scenario(i)), Some(i * 1000 + 7));
    }
    drop(writer);

    // A fresh process reads the battlefield with no chaos of its own.
    let reader = RunCache::with_disk(&dir, encode, decode).unwrap();
    let mut recovered = 0u64;
    let mut missed = 0u64;
    for i in 0..N {
        match reader.get(&scenario(i)) {
            Some(v) => {
                assert_eq!(v, i * 1000 + 7, "a served value is never wrong");
                recovered += 1;
            }
            None => missed += 1,
        }
    }
    let rstats = reader.stats();
    assert_eq!(recovered + missed, N);
    assert!(recovered > 0, "clean writes must survive");
    assert!(
        rstats.quarantined > 0,
        "corruption/torn classes must have fired and been quarantined"
    );
    // Every miss is explained: the entry was never stored (io failure)
    // or was quarantined on read. Nothing vanished without a counter.
    assert_eq!(missed, wstats.write_failures + rstats.quarantined);
    // Quarantine left evidence behind.
    let sidecars = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .to_string_lossy()
                .ends_with(".corrupt")
        })
        .count() as u64;
    assert_eq!(sidecars, rstats.quarantined);
    // After the quarantines, the store audits clean.
    let audit = reader.verify().unwrap();
    assert!(audit.is_clean(), "{audit:?}");
    assert_eq!(audit.entries, recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Repair quarantines exactly the corrupt entries and leaves clean ones
/// serving the same bytes as before.
#[test]
fn repair_is_surgical() {
    let dir = temp_dir("surgical");
    let (encode, decode) = codec();
    let cache = RunCache::with_disk(&dir, encode, decode).unwrap();
    for i in 0..8 {
        cache.insert(&scenario(i), i + 100);
    }
    // Vandalize three entries three different ways.
    let tear = dir.join(format!("{}.json", scenario(1).hash_hex()));
    let full = std::fs::read_to_string(&tear).unwrap();
    std::fs::write(&tear, &full[..full.len() / 2]).unwrap();
    let rot = dir.join(format!("{}.json", scenario(3).hash_hex()));
    let mut bytes = std::fs::read(&rot).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&rot, &bytes).unwrap();
    let garbage = dir.join(format!("{}.json", scenario(5).hash_hex()));
    std::fs::write(&garbage, "}{ total nonsense").unwrap();

    let audit = cache.repair().unwrap();
    assert_eq!(
        (audit.entries, audit.ok, audit.corrupt, audit.repaired),
        (8, 5, 3, 3)
    );

    // Untouched entries still serve identically from a fresh cache.
    let reader = RunCache::with_disk(&dir, encode, decode).unwrap();
    for i in [0u64, 2, 4, 6, 7] {
        assert_eq!(reader.get(&scenario(i)), Some(i + 100));
    }
    for i in [1u64, 3, 5] {
        assert_eq!(reader.get(&scenario(i)), None);
    }
    assert_eq!(reader.stats().quarantined, 0, "repair already moved them");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A simulated kill-and-resume sweep over the store alone: process 1
/// stores part of the work and dies between writing and renaming the
/// next entry; process 2 serves the stored work bit-identically, redoes
/// only the remainder, and leaves a store that audits clean.
#[test]
fn killed_sweep_resumes_without_losing_completed_work() {
    let dir = temp_dir("resume");
    let (encode, decode) = codec();
    const TOTAL: u64 = 10;
    const CRASH_AT: u64 = 6;

    // Process 1: store CRASH_AT scenarios, then die mid-write.
    {
        let cache = RunCache::with_disk(&dir, encode, decode).unwrap();
        for i in 0..CRASH_AT {
            cache.insert(&scenario(i), i * 11);
        }
    }
    // The crash tears the in-flight write for scenario CRASH_AT: half
    // an envelope under its temp name, never renamed into place.
    let torn = encode_entry(scenario(CRASH_AT).content_hash(), "66");
    let tmp = dir.join(format!("{}.12345.6.tmp", scenario(CRASH_AT).hash_hex()));
    std::fs::write(tmp, &torn[..torn.len() / 2]).unwrap();

    // Process 2: resume.
    let cache = RunCache::with_disk(&dir, encode, decode).unwrap();
    let mut served = 0u64;
    let mut redone = 0u64;
    for i in 0..TOTAL {
        let s = scenario(i);
        match cache.get(&s) {
            Some(v) => {
                assert_eq!(v, i * 11, "stored run served bit-identically");
                served += 1;
            }
            None => {
                cache.insert(&s, i * 11);
                redone += 1;
            }
        }
    }
    assert_eq!((served, redone), (CRASH_AT, TOTAL - CRASH_AT));
    assert_eq!(cache.stats().quarantined, 0, "nothing torn was visible");
    let audit = cache.verify().unwrap();
    assert!(audit.is_clean(), "{audit:?}");
    assert_eq!(audit.entries, TOTAL);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Concurrent writers under io-failure chaos: the shared cache stays
/// consistent and the books still balance.
#[test]
fn concurrent_chaos_writes_keep_consistent_accounting() {
    let dir = temp_dir("concurrent");
    let (encode, decode) = codec();
    let cache = std::sync::Arc::new(
        RunCache::with_disk(&dir, encode, decode)
            .unwrap()
            .with_chaos(ChaosPlan::seeded(99).with_io_failures(3)),
    );
    let handles: Vec<_> = (0u64..4)
        .map(|t| {
            let cache = std::sync::Arc::clone(&cache);
            std::thread::spawn(move || {
                for i in 0..16 {
                    let s = scenario(t * 100 + i);
                    cache.insert(&s, t * 100 + i);
                    assert_eq!(cache.get(&s), Some(t * 100 + i), "memory always serves");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = cache.stats();
    assert_eq!(stats.disk_stores + stats.write_failures, 64);
    assert!(stats.write_failures > 0);
    assert_eq!(cache.len(), 64);
    // Everything on disk is a clean envelope (failed writes left
    // nothing behind, not torn files).
    assert!(cache.verify().unwrap().is_clean());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A mid-write crash between tmp-write and rename leaves a stale `.tmp`
/// file, and stores written by older builds still hold a
/// `sweep-journal.jsonl`; neither may shadow anything, and audits must
/// ignore both.
#[test]
fn leftover_tmp_files_are_harmless() {
    let dir = temp_dir("tmpfile");
    let (encode, decode) = codec();
    let cache = RunCache::with_disk(&dir, encode, decode).unwrap();
    let s = scenario(0);
    cache.insert(&s, 5);
    // A crashed sibling process died between write and rename.
    std::fs::write(
        dir.join(format!("{}.12345.9.tmp", scenario(1).hash_hex())),
        encode_entry(scenario(1).content_hash(), "999"),
    )
    .unwrap();
    std::fs::write(
        dir.join("sweep-journal.jsonl"),
        format!(
            "{{\"schema\":\"rcoal-journal/v1\",\"event\":\"completed\",\"hash\":\"{}\"}}\n",
            scenario(1).hash_hex()
        ),
    )
    .unwrap();
    let reader = RunCache::with_disk(&dir, encode, decode).unwrap();
    assert_eq!(reader.get(&s), Some(5));
    assert_eq!(reader.get(&scenario(1)), None, "tmp files are invisible");
    let audit = reader.verify().unwrap();
    assert_eq!(audit.entries, 1, "audits skip non-entry files");
    assert_eq!(reader.stats().quarantined, 0);
    assert!(audit.is_clean());
    std::fs::remove_dir_all(&dir).unwrap();
}
