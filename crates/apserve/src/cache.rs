//! Content-addressed result cache: in-memory LRU front, optional
//! persistent disk tier.
//!
//! Keys are FNV-1a hashes of canonical request text ([`crate::request`]);
//! values are complete report documents as bytes. Because reports are
//! byte-reproducible, a hit at either tier is *exactly* the bytes a cold
//! run would produce — callers never need to distinguish tiers for
//! correctness, only for the `X-Cache` diagnostic header.
//!
//! Disk entries are one file per key, `<key-hex>.json`, holding a
//! versioned envelope that records the canonical request alongside the
//! report (so a cache directory is auditable on its own). Files are
//! written via [`aputil::write_atomic`]; a crash mid-write leaves either
//! the old entry or none, and any corrupt or truncated file is treated
//! as a miss and overwritten on the next store.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::SystemTime;

use aputil::{key_hex, parse_key_hex, Json};

/// Where a lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTier {
    Memory,
    Disk,
}

/// Schema tag for on-disk entries; bump `DISK_VERSION` on layout change
/// and old entries become misses (recomputed, then overwritten).
const DISK_SCHEMA: &str = "ap1000plus.cached";
const DISK_VERSION: u64 = 1;

/// LRU of complete report bodies, with optional write-through to disk.
pub struct ResultCache {
    /// key -> report bytes.
    map: HashMap<u64, Vec<u8>>,
    /// Keys in recency order, most recent last. Small (≤ capacity), so
    /// the O(n) reposition on hit is noise next to a simulation run.
    order: Vec<u64>,
    capacity: usize,
    dir: Option<PathBuf>,
    /// Evictions performed since construction (memory tier only).
    pub evictions: u64,
    /// Total bytes held by the memory tier.
    bytes: usize,
    /// Byte budget for the disk tier; `None` means unbounded (the
    /// pre-budget behaviour).
    disk_budget: Option<u64>,
    /// Disk keys in recency order, most recent last. Seeded from the
    /// directory scan (mtime order) so the budget holds across restarts.
    disk_order: Vec<u64>,
    /// key -> on-disk envelope size in bytes.
    disk_sizes: HashMap<u64, u64>,
    /// Disk-tier entries deleted to hold `disk_budget`.
    pub disk_evictions: u64,
}

impl ResultCache {
    /// `capacity` is the memory-tier entry cap (≥ 1); `dir`, when given,
    /// enables the persistent tier (created on first store);
    /// `disk_budget` bounds the disk tier's total bytes with LRU
    /// eviction (existing entries are inventoried, oldest-mtime first,
    /// so a restart over a full directory trims it immediately).
    pub fn new(capacity: usize, dir: Option<PathBuf>, disk_budget: Option<u64>) -> ResultCache {
        let mut cache = ResultCache {
            map: HashMap::new(),
            order: Vec::new(),
            capacity: capacity.max(1),
            dir,
            evictions: 0,
            bytes: 0,
            disk_budget,
            disk_order: Vec::new(),
            disk_sizes: HashMap::new(),
            disk_evictions: 0,
        };
        cache.scan_disk();
        cache.enforce_disk_budget();
        cache
    }

    /// Inventories the disk tier: every `<key-hex>.json` file, ordered
    /// oldest-mtime first so pre-existing entries evict before anything
    /// written this run. Unparseable filenames are ignored (they are
    /// not cache entries and are never deleted).
    fn scan_disk(&mut self) {
        let Some(dir) = self.dir.as_ref() else { return };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut found: Vec<(SystemTime, u64, u64)> = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                continue;
            };
            let Some(key) = parse_key_hex(stem) else {
                continue;
            };
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            found.push((mtime, key, meta.len()));
        }
        found.sort();
        for (_, key, len) in found {
            self.disk_order.push(key);
            self.disk_sizes.insert(key, len);
        }
    }

    /// Deletes oldest disk entries until the tier fits the budget. The
    /// most recently used entry is never evicted, however small the
    /// budget — a cache that immediately forgets its only entry is
    /// worse than one slightly over budget.
    fn enforce_disk_budget(&mut self) {
        let Some(budget) = self.disk_budget else {
            return;
        };
        while self.disk_order.len() > 1 && self.disk_bytes() > budget {
            let victim = self.disk_order.remove(0);
            self.disk_sizes.remove(&victim);
            if let Some(path) = self.disk_path(victim) {
                let _ = std::fs::remove_file(path);
            }
            self.disk_evictions += 1;
        }
    }

    fn touch_disk(&mut self, key: u64) {
        if let Some(pos) = self.disk_order.iter().position(|&k| k == key) {
            self.disk_order.remove(pos);
            self.disk_order.push(key);
        }
    }

    /// Disk-tier entry count (0 when no disk tier is configured).
    pub fn disk_entries(&self) -> usize {
        self.disk_sizes.len()
    }

    /// Total bytes of on-disk envelopes.
    pub fn disk_bytes(&self) -> u64 {
        self.disk_sizes.values().sum()
    }

    pub fn entries(&self) -> usize {
        self.map.len()
    }

    pub fn bytes(&self) -> usize {
        self.bytes
    }

    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
        self.order.push(key);
    }

    fn disk_path(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.json", key_hex(key))))
    }

    /// Looks `key` up in memory, then on disk. A disk hit is promoted
    /// into the memory tier.
    pub fn get(&mut self, key: u64) -> Option<(Vec<u8>, CacheTier)> {
        if let Some(body) = self.map.get(&key) {
            let body = body.clone();
            self.touch(key);
            return Some((body, CacheTier::Memory));
        }
        let path = self.disk_path(key)?;
        let raw = std::fs::read(&path).ok()?;
        let body = decode_disk_entry(&raw, key)?;
        self.insert_memory(key, body.clone());
        self.touch_disk(key);
        Some((body, CacheTier::Disk))
    }

    fn insert_memory(&mut self, key: u64, body: Vec<u8>) {
        if let Some(old) = self.map.insert(key, body) {
            self.bytes -= old.len();
        }
        self.bytes += self.map[&key].len();
        self.touch(key);
        while self.map.len() > self.capacity {
            let victim = self.order.remove(0);
            if let Some(old) = self.map.remove(&victim) {
                self.bytes -= old.len();
            }
            self.evictions += 1;
        }
    }

    /// Stores a freshly computed report under `key`, writing through to
    /// the disk tier if one is configured. Disk write failures are
    /// returned for logging but do not poison the memory entry.
    pub fn put(&mut self, key: u64, canonical_request: &str, body: &[u8]) -> Result<(), String> {
        self.insert_memory(key, body.to_vec());
        let Some(path) = self.disk_path(key) else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let report = std::str::from_utf8(body)
            .map_err(|_| "report is not UTF-8; disk tier skipped".to_string())?;
        let request = Json::parse(canonical_request)
            .map_err(|e| format!("canonical request does not reparse: {e}"))?;
        let envelope = Json::obj([
            ("schema", Json::from(DISK_SCHEMA)),
            ("version", Json::from(DISK_VERSION)),
            ("key", Json::from(key_hex(key))),
            ("request", request),
            ("report", Json::from(report)),
        ]);
        let encoded = envelope.to_string();
        aputil::write_atomic(&path, encoded.as_bytes())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        if self.disk_sizes.insert(key, encoded.len() as u64).is_none() {
            self.disk_order.push(key);
        }
        self.touch_disk(key);
        self.enforce_disk_budget();
        Ok(())
    }
}

/// Validates and unwraps one on-disk envelope; `None` means "treat as
/// miss" (corrupt, truncated, wrong schema, or key mismatch).
fn decode_disk_entry(raw: &[u8], key: u64) -> Option<Vec<u8>> {
    let text = std::str::from_utf8(raw).ok()?;
    let doc = Json::parse(text).ok()?;
    if doc.get("schema")?.as_str()? != DISK_SCHEMA {
        return None;
    }
    if doc.get("version")?.as_u64()? != DISK_VERSION {
        return None;
    }
    if doc.get("key")?.as_str()? != key_hex(key) {
        return None;
    }
    Some(doc.get("report")?.as_str()?.as_bytes().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("apserve-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ResultCache::new(2, None, None);
        c.put(1, "{}", b"one").unwrap();
        c.put(2, "{}", b"two").unwrap();
        assert!(c.get(1).is_some()); // 1 now most recent
        c.put(3, "{}", b"three").unwrap(); // evicts 2
        assert_eq!(c.evictions, 1);
        assert!(c.get(2).is_none());
        assert_eq!(c.get(1).unwrap().0, b"one");
        assert_eq!(c.get(3).unwrap().0, b"three");
        assert_eq!(c.bytes(), "one".len() + "three".len());
    }

    #[test]
    fn disk_tier_survives_a_new_cache_and_promotes() {
        let dir = tmpdir("disk");
        let mut c = ResultCache::new(4, Some(dir.clone()), None);
        c.put(7, r#"{"kind":"sleep","ms":1}"#, b"report-bytes")
            .unwrap();

        // Fresh cache over the same directory: memory is cold, disk hits.
        let mut c2 = ResultCache::new(4, Some(dir.clone()), None);
        let (body, tier) = c2.get(7).unwrap();
        assert_eq!(body, b"report-bytes");
        assert_eq!(tier, CacheTier::Disk);
        // Promoted: second lookup is a memory hit.
        assert_eq!(c2.get(7).unwrap().1, CacheTier::Memory);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_disk_entries_are_misses() {
        let dir = tmpdir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        for garbage in [
            &b"not json at all"[..],
            br#"{"schema":"wrong","version":1,"key":"0000000000000009","report":"x"}"#,
            br#"{"schema":"ap1000plus.cached","version":99,"key":"0000000000000009","report":"x"}"#,
            br#"{"schema":"ap1000plus.cached","version":1,"key":"ffffffffffffffff","report":"x"}"#,
            br#"{"schema":"ap1000plus.cached","version":1,"key":"0000000000000009""#,
        ] {
            std::fs::write(dir.join(format!("{}.json", key_hex(9))), garbage).unwrap();
            let mut c = ResultCache::new(4, Some(dir.clone()), None);
            assert!(c.get(9).is_none(), "{garbage:?} should be a miss");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_only_cache_recomputes_after_eviction() {
        let mut c = ResultCache::new(1, None, None);
        c.put(1, "{}", b"a").unwrap();
        c.put(2, "{}", b"b").unwrap();
        assert!(c.get(1).is_none(), "no disk tier: eviction means miss");
    }

    /// A 1000-byte body: envelope overhead (~100 bytes) is noise next
    /// to it, so "budget holds N entries" arithmetic below is robust.
    fn big(fill: char) -> Vec<u8> {
        fill.to_string().repeat(1000).into_bytes()
    }

    #[test]
    fn disk_budget_evicts_oldest_but_never_newest() {
        let dir = tmpdir("budget");
        // ~1.1 KB per envelope; a 2.5 KB budget holds two entries.
        let mut c = ResultCache::new(8, Some(dir.clone()), Some(2500));
        c.put(1, "{}", &big('a')).unwrap();
        c.put(2, "{}", &big('b')).unwrap();
        assert_eq!(c.disk_entries(), 2);
        assert_eq!(c.disk_evictions, 0);
        c.put(3, "{}", &big('c')).unwrap(); // over budget: key 1 goes
        assert_eq!(c.disk_evictions, 1);
        assert_eq!(c.disk_entries(), 2);
        assert!(!dir.join(format!("{}.json", key_hex(1))).exists());
        assert!(dir.join(format!("{}.json", key_hex(3))).exists());
        assert!(c.disk_bytes() <= 2500);

        // A budget smaller than one entry still keeps the newest entry.
        let tiny_dir = tmpdir("tiny");
        let mut tiny = ResultCache::new(8, Some(tiny_dir.clone()), Some(1));
        tiny.put(9, "{}", b"only").unwrap();
        assert_eq!(tiny.disk_entries(), 1, "most-recent entry is immortal");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&tiny_dir).unwrap();
    }

    #[test]
    fn restart_scan_enforces_the_budget_by_mtime() {
        let dir = tmpdir("rescan");
        {
            let mut c = ResultCache::new(8, Some(dir.clone()), None);
            for key in 1..=4u64 {
                c.put(key, "{}", &big('x')).unwrap();
                // Distinct mtimes so the scan's LRU order is deterministic.
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            assert_eq!(c.disk_entries(), 4);
        }
        // Reopen with a budget that fits two entries: the two oldest are
        // trimmed at construction, the two newest survive.
        let c = ResultCache::new(8, Some(dir.clone()), Some(2500));
        assert_eq!(c.disk_evictions, 2);
        assert!(!dir.join(format!("{}.json", key_hex(1))).exists());
        assert!(!dir.join(format!("{}.json", key_hex(2))).exists());
        assert!(dir.join(format!("{}.json", key_hex(3))).exists());
        assert!(dir.join(format!("{}.json", key_hex(4))).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_hits_refresh_recency() {
        let dir = tmpdir("touch");
        let mut c = ResultCache::new(1, Some(dir.clone()), Some(2500));
        c.put(1, "{}", &big('a')).unwrap();
        c.put(2, "{}", &big('b')).unwrap();
        // Touch 1 via a disk hit (memory tier only holds one entry, so
        // key 1 was evicted from memory and must come from disk).
        assert_eq!(c.get(1).unwrap().1, CacheTier::Disk);
        c.put(3, "{}", &big('c')).unwrap(); // evicts 2, not the touched 1
        assert!(dir.join(format!("{}.json", key_hex(1))).exists());
        assert!(!dir.join(format!("{}.json", key_hex(2))).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
