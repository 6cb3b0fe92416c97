//! Content-addressed run store.
//!
//! A [`RunCache`] memoizes run results keyed by
//! [`Scenario::content_hash`]: an in-memory map always, plus an optional
//! on-disk layer (one file per scenario, named by the 16-hex-digit
//! hash). Because the key is derived from the *canonical serialized
//! scenario* — never from addresses or process state — a cache written
//! by one process is valid in any other, and a hit must be bit-identical
//! to a fresh run by the workspace's determinism contract (results are a
//! pure function of the scenario).
//!
//! The cache is value-generic. Disk persistence needs a codec — a pair
//! of plain functions so the value type's crate (not this one) owns its
//! serialization. A codec may decline to encode a particular value
//! (e.g. runs carrying bulky telemetry) by returning `None`; such values
//! stay memory-only.
//!
//! # Crash safety (`rcoal-cache-entry/v1`)
//!
//! On disk each value is wrapped in a checksummed envelope: a header
//! line naming the schema, the scenario hash, the payload length, and an
//! FNV-1a 64 checksum of the payload, followed by the payload itself.
//! Entries are written to a unique temp file, fsync'd, renamed into
//! place, and the directory fsync'd — so a crash at any point leaves
//! either the old state or the complete new entry, never a torn one
//! visible under the final name. Every read re-verifies the envelope;
//! anything torn, bit-rotted, or undecodable is **quarantined** — moved
//! aside to a `.corrupt` sidecar (preserved as evidence, never retried)
//! — and the lookup reports a miss so the runner simply re-simulates.
//! Write failures are counted in [`CacheStats::write_failures`], never
//! silently swallowed: a lost write only costs a future re-run, but an
//! *uncounted* lost write hides a failing disk. [`RunCache::stats`] is
//! the one report of both counts; `rcoal-cli sweep` prints it.
//!
//! [`RunCache::verify`] and [`RunCache::repair`] audit the whole
//! directory offline (repair additionally performs the quarantine), and
//! a [`ChaosPlan`] can be attached to inject seeded write-path faults
//! for the chaos test-suite.

use crate::chaos::ChaosPlan;
use crate::json::{ObjBuilder, Value};
use crate::scenario::{fnv1a_64, Scenario, ScenarioError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Schema identifier of the on-disk entry envelope.
pub const ENTRY_SCHEMA: &str = "rcoal-cache-entry/v1";

/// Serializes a cached value to its on-disk JSON form; `None` keeps the
/// value memory-only.
pub type EncodeFn<V> = fn(&V) -> Option<String>;

/// Parses a value back from its on-disk form.
pub type DecodeFn<V> = fn(&str) -> Result<V, ScenarioError>;

/// Cache traffic counters (monotonic since construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// The subset of `hits` served by reading a disk file.
    pub disk_hits: u64,
    /// Values written to disk.
    pub disk_stores: u64,
    /// Disk writes that failed (write, fsync, or rename error — or an
    /// injected chaos fault). The value still lands in memory.
    pub write_failures: u64,
    /// On-disk entries found torn/corrupt/undecodable and moved to a
    /// `.corrupt` sidecar.
    pub quarantined: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` when there was no traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Result of a [`RunCache::verify`] or [`RunCache::repair`] pass over
/// the cache directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreAudit {
    /// Entry files examined (`*.json`).
    pub entries: u64,
    /// Entries whose envelope verified clean.
    pub ok: u64,
    /// Entries that failed verification (torn, checksum mismatch, wrong
    /// hash, or missing/unknown envelope).
    pub corrupt: u64,
    /// Corrupt entries moved to `.corrupt` sidecars (repair only;
    /// always `0` for verify).
    pub repaired: u64,
    /// Paths of the corrupt entries, as found (before any rename).
    pub corrupt_paths: Vec<PathBuf>,
}

impl StoreAudit {
    /// Whether every examined entry verified clean.
    pub fn is_clean(&self) -> bool {
        self.corrupt == 0
    }
}

/// In-memory + optional on-disk memo keyed by scenario content hash.
///
/// All methods take `&self`; the cache is safe to share across the
/// worker threads of a sweep.
pub struct RunCache<V> {
    mem: Mutex<HashMap<u64, V>>,
    dir: Option<PathBuf>,
    encode: EncodeFn<V>,
    decode: Option<DecodeFn<V>>,
    chaos: ChaosPlan,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_stores: AtomicU64,
    write_failures: AtomicU64,
    quarantined: AtomicU64,
    write_ops: AtomicU64,
}

impl<V> std::fmt::Debug for RunCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCache")
            .field("len", &self.len())
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<V: Clone> Default for RunCache<V> {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl<V: Clone> RunCache<V> {
    /// A memory-only cache.
    pub fn in_memory() -> Self {
        RunCache {
            mem: Mutex::new(HashMap::new()),
            dir: None,
            encode: |_| None,
            decode: None,
            chaos: ChaosPlan::inert(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_stores: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
        }
    }

    /// A cache backed by directory `dir` (created if absent): values a
    /// codec encodes persist as enveloped `<hash>.json` files and are
    /// readable by later processes.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the directory cannot be created.
    pub fn with_disk(
        dir: impl Into<PathBuf>,
        encode: EncodeFn<V>,
        decode: DecodeFn<V>,
    ) -> Result<Self, ScenarioError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            ScenarioError::new(format!("cannot create cache dir {}: {e}", dir.display()))
        })?;
        let mut cache = Self::in_memory();
        cache.dir = Some(dir);
        cache.encode = encode;
        cache.decode = Some(decode);
        Ok(cache)
    }

    /// Attaches a chaos plan; its write-path faults (io failure,
    /// corruption, torn writes) fire on this cache's disk writes.
    #[must_use]
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// In-place form of [`RunCache::with_chaos`], for caches owned by a
    /// larger builder.
    pub fn set_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = plan;
    }

    /// Looks `scenario` up, consulting memory first, then disk. A disk
    /// hit is promoted into memory. Counted in [`RunCache::stats`].
    pub fn get(&self, scenario: &Scenario) -> Option<V> {
        let key = scenario.content_hash();
        if let Some(v) = self.lock().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        if let Some(v) = self.read_disk(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores `value` under `scenario`'s hash: into memory always, and
    /// to disk when a directory is attached and the codec encodes it.
    ///
    /// Disk failures never lose the in-memory value and never panic —
    /// they increment [`CacheStats::write_failures`], because a cache
    /// that silently drops writes turns a failing disk into mystery
    /// cache misses.
    pub fn insert(&self, scenario: &Scenario, value: V) {
        let key = scenario.content_hash();
        if let Some(dir) = &self.dir {
            if let Some(payload) = (self.encode)(&value) {
                match self.write_entry(dir, key, &payload) {
                    Ok(()) => self.disk_stores.fetch_add(1, Ordering::Relaxed),
                    Err(_) => self.write_failures.fetch_add(1, Ordering::Relaxed),
                };
            }
        }
        self.lock().insert(key, value);
    }

    /// Writes one enveloped entry with write-then-rename + fsync,
    /// applying any armed chaos faults for this write op.
    fn write_entry(&self, dir: &Path, key: u64, payload: &str) -> std::io::Result<()> {
        use std::io::Write;

        let op = self.write_ops.fetch_add(1, Ordering::Relaxed);
        if self.chaos.io_fails_on(op) {
            return Err(std::io::Error::other("injected io failure"));
        }
        let mut bytes = encode_entry(key, payload).into_bytes();
        if self.chaos.corrupts_on(op) {
            // Flip a payload byte *after* checksumming, simulating bit
            // rot the envelope must catch on read.
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
        }
        if self.chaos.tears_on(op) {
            // Simulate a torn write reaching the final name (a crashed
            // writer on a filesystem without rename atomicity): half an
            // envelope under the real file name.
            bytes.truncate(bytes.len() / 2);
        }
        let path = dir.join(file_name(key));
        // Unique temp name: concurrent writers of the same hash (or a
        // leftover from a crashed process) can never collide.
        let tmp = dir.join(format!("{key:016x}.{}.{op}.tmp", std::process::id()));
        let mut file = std::fs::File::create(&tmp)?;
        let written = file.write_all(&bytes).and_then(|()| file.sync_all());
        drop(file);
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        std::fs::rename(&tmp, &path)?;
        // Persist the rename itself; best-effort (not all platforms
        // support directory fsync).
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn read_disk(&self, key: u64) -> Option<V> {
        let dir = self.dir.as_ref()?;
        let decode = self.decode?;
        let path = dir.join(file_name(key));
        let text = std::fs::read_to_string(&path).ok()?;
        let value = decode_entry(key, &text)
            .and_then(decode)
            .map_err(|_| self.quarantine(&path))
            .ok()?;
        self.lock().insert(key, value.clone());
        Some(value)
    }
}

impl<V> RunCache<V> {
    /// Number of values held in memory.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the in-memory layer is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Drops every in-memory value (disk files are left alone).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_stores: self.disk_stores.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Audits every on-disk entry without modifying anything. An entry
    /// is ok when its envelope verifies *and* the cache's codec decodes
    /// its payload — exactly what a lookup accepts.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the cache has no disk directory or
    /// the directory cannot be listed.
    pub fn verify(&self) -> Result<StoreAudit, ScenarioError> {
        self.audit(false)
    }

    /// Audits every on-disk entry, moving corrupt ones to `.corrupt`
    /// sidecars so subsequent sweeps re-run them cleanly.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the cache has no disk directory or
    /// the directory cannot be listed.
    pub fn repair(&self) -> Result<StoreAudit, ScenarioError> {
        self.audit(true)
    }

    fn audit(&self, repair: bool) -> Result<StoreAudit, ScenarioError> {
        let dir = self
            .dir
            .as_ref()
            .ok_or_else(|| ScenarioError::new("cache has no disk directory to audit"))?;
        let mut audit = StoreAudit::default();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| ScenarioError::new(format!("cannot list {}: {e}", dir.display())))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        for path in paths {
            audit.entries += 1;
            match verify_entry(&path, self.decode) {
                Ok(()) => audit.ok += 1,
                Err(_) => {
                    audit.corrupt += 1;
                    audit.corrupt_paths.push(path.clone());
                    if repair {
                        self.quarantine(&path);
                        audit.repaired += 1;
                    }
                }
            }
        }
        Ok(audit)
    }

    /// Moves a corrupt entry to its `.corrupt` sidecar and counts it.
    /// Quarantining is one-shot by construction: the entry leaves the
    /// `*.json` namespace, so later lookups miss cheaply instead of
    /// re-parsing (and re-failing on) the same bytes.
    fn quarantine(&self, path: &Path) {
        let sidecar = path.with_extension("json.corrupt");
        if sidecar.exists() {
            // Keep the first evidence file; just clear the bad entry.
            let _ = std::fs::remove_file(path);
        } else if std::fs::rename(path, &sidecar).is_err() {
            // Rename failed (e.g. raced with another quarantine): make
            // sure the bad entry at least stops shadowing lookups.
            let _ = std::fs::remove_file(path);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, V>> {
        self.mem.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn file_name(key: u64) -> String {
    format!("{key:016x}.json")
}

/// Parses the `<hash16>` out of an entry file name.
fn key_from_file_name(path: &Path) -> Option<u64> {
    let stem = path.file_stem()?.to_str()?;
    u64::from_str_radix(stem, 16).ok()
}

/// Wraps `payload` in the `rcoal-cache-entry/v1` envelope: a header
/// line (schema, scenario hash, payload length, FNV-1a 64 checksum)
/// followed by the payload. Header + payload is valid JSONL, so the
/// file keeps its `.json` extension.
pub fn encode_entry(key: u64, payload: &str) -> String {
    let checksum = fnv1a_64(payload.as_bytes());
    let mut entry = ObjBuilder::new()
        .field("schema", Value::str(ENTRY_SCHEMA))
        .field("hash", Value::str(format!("{key:016x}")))
        .field("len", Value::usize(payload.len()))
        .field("checksum", Value::str(format!("{checksum:016x}")))
        .build()
        .to_json();
    entry.push('\n');
    entry.push_str(payload);
    entry
}

/// Unwraps and verifies an envelope produced by [`encode_entry`],
/// returning the payload slice.
///
/// # Errors
///
/// Returns a [`ScenarioError`] naming the first integrity violation:
/// missing header, wrong schema, hash mismatch against `expected_key`,
/// truncated payload, or checksum mismatch.
pub fn decode_entry(expected_key: u64, text: &str) -> Result<&str, ScenarioError> {
    let (header, payload) = text
        .split_once('\n')
        .ok_or_else(|| ScenarioError::new("cache entry has no envelope header"))?;
    let v = Value::parse(header)
        .map_err(|e| ScenarioError::new(format!("cache entry header is not JSON: {e}")))?;
    let field = |name: &str| {
        v.get(name)
            .and_then(Value::as_str)
            .ok_or_else(|| ScenarioError::new(format!("cache entry header missing `{name}`")))
    };
    if field("schema")? != ENTRY_SCHEMA {
        return Err(ScenarioError::new(format!(
            "cache entry schema is not {ENTRY_SCHEMA}"
        )));
    }
    let hash = u64::from_str_radix(field("hash")?, 16)
        .map_err(|e| ScenarioError::new(format!("cache entry hash is not hex: {e}")))?;
    if hash != expected_key {
        return Err(ScenarioError::new(format!(
            "cache entry hash {hash:016x} does not match key {expected_key:016x}"
        )));
    }
    let len = v
        .get("len")
        .and_then(Value::as_u64)
        .ok_or_else(|| ScenarioError::new("cache entry header missing `len`"))?;
    if payload.len() as u64 != len {
        return Err(ScenarioError::new(format!(
            "cache entry payload is {} bytes, header says {len} (torn write?)",
            payload.len()
        )));
    }
    let checksum = u64::from_str_radix(field("checksum")?, 16)
        .map_err(|e| ScenarioError::new(format!("cache entry checksum is not hex: {e}")))?;
    let actual = fnv1a_64(payload.as_bytes());
    if actual != checksum {
        return Err(ScenarioError::new(format!(
            "cache entry checksum mismatch: stored {checksum:016x}, computed {actual:016x}"
        )));
    }
    Ok(payload)
}

/// Verifies one on-disk entry file as a lookup would read it: its
/// envelope (hash taken from the file name), then its payload through
/// `decode` when the cache has one.
fn verify_entry<V>(path: &Path, decode: Option<DecodeFn<V>>) -> Result<(), ScenarioError> {
    let key = key_from_file_name(path)
        .ok_or_else(|| ScenarioError::new("entry file name is not a 16-hex-digit hash"))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::new(format!("cannot read {}: {e}", path.display())))?;
    let payload = decode_entry(key, &text)?;
    match decode {
        Some(decode) => decode(payload).map(drop),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_core::CoalescingPolicy;

    fn scenario(seed: u64) -> Scenario {
        Scenario::new(CoalescingPolicy::Baseline, 4, 32).with_seed(seed)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rcoal-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn u64_codec() -> (EncodeFn<u64>, DecodeFn<u64>) {
        let encode: EncodeFn<u64> = |v| Some(v.to_string());
        let decode: DecodeFn<u64> = |s| {
            s.trim()
                .parse()
                .map_err(|e| ScenarioError::new(format!("{e}")))
        };
        (encode, decode)
    }

    #[test]
    fn memory_cache_hits_after_insert() {
        let cache: RunCache<u64> = RunCache::in_memory();
        let s = scenario(1);
        assert_eq!(cache.get(&s), None);
        assert!(cache.is_empty());
        cache.insert(&s, 99);
        assert_eq!(cache.get(&s), Some(99));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.disk_hits, 0);
        assert_eq!((stats.write_failures, stats.quarantined), (0, 0));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_scenarios_do_not_collide() {
        let cache: RunCache<u64> = RunCache::in_memory();
        cache.insert(&scenario(1), 10);
        cache.insert(&scenario(2), 20);
        assert_eq!(cache.get(&scenario(1)), Some(10));
        assert_eq!(cache.get(&scenario(2)), Some(20));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn disk_layer_survives_a_fresh_cache() {
        let dir = temp_dir("disk");
        let (encode, decode) = u64_codec();
        let s = scenario(7);
        {
            let cache = RunCache::with_disk(&dir, encode, decode).unwrap();
            cache.insert(&s, 1234);
            assert_eq!(cache.stats().disk_stores, 1);
        }
        // A brand-new cache (empty memory) reads the file back.
        let cache = RunCache::with_disk(&dir, encode, decode).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&s), Some(1234));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.disk_hits), (1, 1));
        // Promoted to memory: a second get is a memory hit.
        assert_eq!(cache.get(&s), Some(1234));
        assert_eq!(cache.stats().disk_hits, 1);
        let file = dir.join(format!("{}.json", s.hash_hex()));
        assert!(file.exists(), "{file:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_are_enveloped_and_round_trip() {
        let payload = "{\"x\":1}";
        let encoded = encode_entry(0xabcd, payload);
        assert!(encoded.starts_with(&format!("{{\"schema\":\"{ENTRY_SCHEMA}\"")));
        assert_eq!(decode_entry(0xabcd, &encoded).unwrap(), payload);
        // Wrong key: the entry was stored under a different scenario.
        assert!(decode_entry(0xabce, &encoded).is_err());
        // Truncation (torn write) is detected via `len`.
        let torn = &encoded[..encoded.len() - 2];
        assert!(decode_entry(0xabcd, torn)
            .unwrap_err()
            .to_string()
            .contains("torn"));
        // Bit rot is detected via the checksum.
        let mut rotted = encoded.clone();
        let last = rotted.len() - 1;
        // Payload "{\"x\":1}" ends in '}'; replace with ']' keeps len.
        rotted.replace_range(last..last + 1, "]");
        assert!(decode_entry(0xabcd, &rotted)
            .unwrap_err()
            .to_string()
            .contains("checksum"));
    }

    #[test]
    fn memory_only_values_are_not_persisted() {
        let dir = temp_dir("memonly");
        let encode: EncodeFn<u64> = |_| None;
        let decode: DecodeFn<u64> = |_| Err(ScenarioError::new("never"));
        let cache = RunCache::with_disk(&dir, encode, decode).unwrap();
        let s = scenario(3);
        cache.insert(&s, 5);
        assert_eq!(cache.get(&s), Some(5));
        assert_eq!(cache.stats().disk_stores, 0);
        assert!(!dir.join(format!("{}.json", s.hash_hex())).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_disk_files_are_quarantined_once() {
        let dir = temp_dir("corrupt");
        let (encode, decode) = u64_codec();
        let cache = RunCache::with_disk(&dir, encode, decode).unwrap();
        let s = scenario(8);
        let entry = dir.join(format!("{}.json", s.hash_hex()));
        std::fs::write(&entry, "not an envelope").unwrap();
        assert_eq!(cache.get(&s), None);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.quarantined), (1, 1));
        // The bad entry moved aside: evidence preserved, lookups clean.
        assert!(!entry.exists());
        assert!(dir.join(format!("{}.json.corrupt", s.hash_hex())).exists());
        // Second lookup is a plain miss — no re-quarantine.
        assert_eq!(cache.get(&s), None);
        assert_eq!(cache.stats().quarantined, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undecodable_payload_is_quarantined_despite_clean_envelope() {
        let dir = temp_dir("undecodable");
        let (encode, decode) = u64_codec();
        let cache = RunCache::with_disk(&dir, encode, decode).unwrap();
        let s = scenario(9);
        // Valid envelope, payload the codec rejects.
        let entry = dir.join(format!("{}.json", s.hash_hex()));
        std::fs::write(&entry, encode_entry(s.content_hash(), "not a number")).unwrap();
        assert_eq!(cache.get(&s), None);
        assert_eq!(cache.stats().quarantined, 1);
        assert!(!entry.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_write_failures_are_counted_not_swallowed() {
        let dir = temp_dir("iofail");
        let (encode, decode) = u64_codec();
        // Period 1: every write op faults.
        let cache = RunCache::with_disk(&dir, encode, decode)
            .unwrap()
            .with_chaos(ChaosPlan::seeded(3).with_io_failures(1));
        let s = scenario(4);
        cache.insert(&s, 77);
        // The value still serves from memory; the loss is counted.
        assert_eq!(cache.get(&s), Some(77));
        let stats = cache.stats();
        assert_eq!((stats.disk_stores, stats.write_failures), (0, 1));
        assert!(!dir.join(format!("{}.json", s.hash_hex())).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_corruption_is_caught_on_read() {
        let dir = temp_dir("chaoscorrupt");
        let (encode, decode) = u64_codec();
        let writer = RunCache::with_disk(&dir, encode, decode)
            .unwrap()
            .with_chaos(ChaosPlan::seeded(5).with_corruption(1));
        let s = scenario(6);
        writer.insert(&s, 42);
        assert_eq!(writer.stats().disk_stores, 1, "writer believed the write");
        drop(writer);
        // A clean reader detects the corruption and quarantines.
        let reader = RunCache::with_disk(&dir, encode, decode).unwrap();
        assert_eq!(reader.get(&s), None);
        assert_eq!(reader.stats().quarantined, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_and_repair_audit_the_directory() {
        let dir = temp_dir("audit");
        let (encode, decode) = u64_codec();
        let cache = RunCache::with_disk(&dir, encode, decode).unwrap();
        cache.insert(&scenario(1), 1);
        cache.insert(&scenario(2), 2);
        // Plant one torn entry by hand...
        let s = scenario(3);
        let full = encode_entry(s.content_hash(), "333");
        std::fs::write(
            dir.join(format!("{}.json", s.hash_hex())),
            &full[..full.len() - 1],
        )
        .unwrap();
        // ...and one whose clean envelope holds a payload the codec
        // rejects, which a lookup would quarantine.
        let s = scenario(4);
        std::fs::write(
            dir.join(format!("{}.json", s.hash_hex())),
            encode_entry(s.content_hash(), "not a number"),
        )
        .unwrap();

        let audit = cache.verify().unwrap();
        assert_eq!((audit.entries, audit.ok, audit.corrupt), (4, 2, 2));
        assert_eq!(audit.repaired, 0, "verify is read-only");
        assert!(!audit.is_clean());
        assert_eq!(audit.corrupt_paths.len(), 2);
        // The bad entries are still in place after verify...
        assert!(audit.corrupt_paths.iter().all(|p| p.exists()));

        let repaired = cache.repair().unwrap();
        assert_eq!((repaired.corrupt, repaired.repaired), (2, 2));
        // ...and gone (quarantined) after repair.
        assert!(audit.corrupt_paths.iter().all(|p| !p.exists()));
        let clean = cache.verify().unwrap();
        assert_eq!((clean.entries, clean.corrupt), (2, 0));
        assert!(clean.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache: std::sync::Arc<RunCache<u64>> = std::sync::Arc::new(RunCache::in_memory());
        let handles: Vec<_> = (0u64..4)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..16 {
                        cache.insert(&scenario(i), i * 100 + t);
                        assert!(cache.get(&scenario(i)).is_some());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 16);
    }
}
