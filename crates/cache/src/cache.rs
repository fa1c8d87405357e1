//! The epoch-versioned, least-recently-used cache.

use muve_obs::{lock_recover, metrics, Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Fixed per-entry bookkeeping overhead charged against the byte budget in
/// addition to the caller's estimate, so zero-byte estimates cannot grow
/// the map without bound.
const ENTRY_OVERHEAD: usize = 64;

struct Entry<V> {
    value: V,
    epoch: u64,
    bytes: usize,
    last_tick: u64,
}

/// The map with its resident bytes and its use clock, all under one lock:
/// every lookup and insert takes the next tick, so the eviction order is
/// the order of the calls.
struct Map<K, V> {
    entries: HashMap<K, Entry<V>>,
    bytes: usize,
    tick: u64,
}

/// Point-in-time statistics for one [`Cache`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups (`hits + misses`, flow conservation by construction).
    pub lookups: u64,
    /// Lookups that returned a value.
    pub hits: u64,
    /// Lookups that returned nothing (including stale drops).
    pub misses: u64,
    /// Entries inserted (replacements included).
    pub inserts: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Entries dropped because their epoch no longer matched.
    pub stale: u64,
    /// Resident bytes (estimates plus per-entry overhead).
    pub bytes: u64,
    /// Resident entries.
    pub entries: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (zero when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits {}/{} ({:.0}%)  inserts {}  evictions {}  stale {}  {} entries / {} bytes",
            self.hits,
            self.lookups,
            self.hit_rate() * 100.0,
            self.inserts,
            self.evictions,
            self.stale,
            self.entries,
            self.bytes,
        )
    }
}

/// Pre-resolved metric handles (aggregate + per-layer) so hot-path
/// recording is a few relaxed atomic adds, never a registry lock.
struct LayerMetrics {
    lookups: [std::sync::Arc<Counter>; 2],
    hit: [std::sync::Arc<Counter>; 2],
    miss: [std::sync::Arc<Counter>; 2],
    insert: [std::sync::Arc<Counter>; 2],
    evict: [std::sync::Arc<Counter>; 2],
    stale: [std::sync::Arc<Counter>; 2],
    bytes: [std::sync::Arc<Gauge>; 2],
    lookup_us: std::sync::Arc<Histogram>,
}

impl LayerMetrics {
    fn new(layer: &str) -> LayerMetrics {
        let m = metrics();
        let pair = |op: &str| {
            [
                m.counter(&format!("cache.{op}")),
                m.counter(&format!("cache.{layer}.{op}")),
            ]
        };
        LayerMetrics {
            lookups: pair("lookups"),
            hit: pair("hit"),
            miss: pair("miss"),
            insert: pair("insert"),
            evict: pair("evict"),
            stale: pair("stale"),
            bytes: [
                m.gauge("cache.bytes"),
                m.gauge(&format!("cache.{layer}.bytes")),
            ],
            lookup_us: m.histogram("cache.lookup_us"),
        }
    }
}

fn bump(pair: &[std::sync::Arc<Counter>; 2]) {
    pair[0].incr();
    pair[1].incr();
}

/// A memory-bounded, epoch-versioned, least-recently-used cache.
///
/// One mutex-guarded map holds every entry; the whole `max_bytes` budget
/// bounds it. A cache built with `max_bytes == 0` is *disabled*: lookups
/// miss without recording metrics and inserts are dropped, which is how
/// `--cache-mb 0` guarantees bit-identical uncached behaviour.
pub struct Cache<K, V> {
    layer: String,
    map: Mutex<Map<K, V>>,
    max_bytes: usize,
    epoch: AtomicU64,
    metrics: LayerMetrics,
    stats: StatCells,
}

#[derive(Default)]
struct StatCells {
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    stale: AtomicU64,
}

impl<K, V> fmt::Debug for Cache<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("layer", &self.layer)
            .field("max_bytes", &self.max_bytes)
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Cache<K, V> {
    /// A cache named `layer` (used as the `cache.<layer>.*` metric prefix)
    /// holding at most `max_bytes`.
    pub fn new(layer: &str, max_bytes: usize) -> Cache<K, V> {
        Cache {
            layer: layer.to_owned(),
            map: Mutex::new(Map {
                entries: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            max_bytes,
            epoch: AtomicU64::new(0),
            metrics: LayerMetrics::new(layer),
            stats: StatCells::default(),
        }
    }

    /// Whether the byte budget is zero (the cache is a no-op).
    pub fn is_disabled(&self) -> bool {
        self.max_bytes == 0
    }

    /// The current epoch new entries are stamped with.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Bump the epoch (e.g. on table reload). Entries stamped with an
    /// older epoch are dropped lazily the next time a lookup touches them;
    /// until then they age out through normal LRU eviction.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Look `key` up, dropping it first if its epoch is stale.
    pub fn get(&self, key: &K) -> Option<V> {
        if self.is_disabled() {
            return None;
        }
        let start = Instant::now();
        let epoch = self.epoch();
        let mut guard = lock_recover(&self.map, "cache.lock_poisoned");
        let map = &mut *guard;
        map.tick += 1;
        self.stats.lookups.fetch_add(1, Ordering::Relaxed);
        bump(&self.metrics.lookups);
        let out = match map.entries.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                entry.last_tick = map.tick;
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                bump(&self.metrics.hit);
                Some(entry.value.clone())
            }
            Some(_) => {
                // Stale: the table this entry was computed against is gone.
                let entry = map.entries.remove(key).expect("entry just matched");
                map.bytes -= entry.bytes;
                self.add_bytes(-(entry.bytes as i64));
                self.stats.stale.fetch_add(1, Ordering::Relaxed);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                bump(&self.metrics.stale);
                bump(&self.metrics.miss);
                None
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                bump(&self.metrics.miss);
                None
            }
        };
        drop(guard);
        self.metrics.lookup_us.record_duration(start.elapsed());
        out
    }

    /// Insert `value` under `key`, charging `bytes` (the caller's size
    /// estimate) plus fixed overhead against the byte budget, then evict
    /// least-recently-used entries until the layer fits its budget again.
    /// An entry larger than the whole budget is silently not cached.
    pub fn insert(&self, key: K, value: V, bytes: usize) {
        if self.is_disabled() {
            return;
        }
        let charged = bytes + ENTRY_OVERHEAD;
        if charged > self.max_bytes {
            return;
        }
        let epoch = self.epoch();
        let mut guard = lock_recover(&self.map, "cache.lock_poisoned");
        let map = &mut *guard;
        map.tick += 1;
        let entry = Entry {
            value,
            epoch,
            bytes: charged,
            last_tick: map.tick,
        };
        if let Some(old) = map.entries.insert(key, entry) {
            map.bytes -= old.bytes;
            self.add_bytes(-(old.bytes as i64));
        }
        map.bytes += charged;
        self.add_bytes(charged as i64);
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        bump(&self.metrics.insert);
        while map.bytes > self.max_bytes {
            // A linear scan for the oldest tick. Ticks are unique, so the
            // victim does not depend on the map's iteration order; the
            // just-inserted entry is the newest and fits the budget alone,
            // so it always survives.
            let Some(victim) = map
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_tick)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let evicted = map.entries.remove(&victim).expect("victim is resident");
            map.bytes -= evicted.bytes;
            self.add_bytes(-(evicted.bytes as i64));
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            bump(&self.metrics.evict);
        }
    }

    fn add_bytes(&self, delta: i64) {
        self.metrics.bytes[0].add(delta);
        self.metrics.bytes[1].add(delta);
    }

    /// Drop every entry.
    pub fn clear(&self) {
        let mut map = lock_recover(&self.map, "cache.lock_poisoned");
        let freed = map.bytes;
        map.entries.clear();
        map.bytes = 0;
        self.add_bytes(-(freed as i64));
    }

    /// Local statistics for this instance.
    pub fn stats(&self) -> CacheStats {
        let map = lock_recover(&self.map, "cache.lock_poisoned");
        CacheStats {
            lookups: self.stats.lookups.load(Ordering::Relaxed),
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            inserts: self.stats.inserts.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            stale: self.stats.stale.load(Ordering::Relaxed),
            bytes: map.bytes as u64,
            entries: map.entries.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_flow_conservation() {
        let c: Cache<u64, String> = Cache::new("test_basic", 1 << 20);
        assert_eq!(c.get(&1), None);
        c.insert(1, "one".to_owned(), 16);
        assert_eq!(c.get(&1).as_deref(), Some("one"));
        assert_eq!(c.get(&2), None);
        let s = c.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.hits + s.misses, s.lookups, "flow conservation");
        assert_eq!(s.inserts, 1);
        assert_eq!(s.entries, 1);
        assert!(s.bytes >= 16);
    }

    #[test]
    fn epoch_bump_drops_entries_lazily() {
        let c: Cache<u64, u64> = Cache::new("test_epoch", 1 << 20);
        c.insert(1, 11, 8);
        assert_eq!(c.get(&1), Some(11));
        c.set_epoch(7);
        // Stale entry is dropped on the lookup that touches it.
        assert_eq!(c.get(&1), None);
        let s = c.stats();
        assert_eq!(s.stale, 1);
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
        // A fresh insert under the new epoch works.
        c.insert(1, 22, 8);
        assert_eq!(c.get(&1), Some(22));
    }

    #[test]
    fn eviction_drops_the_least_recently_used() {
        // The budget fits two entries (each charged bytes + overhead).
        let budget = 2 * (200 + ENTRY_OVERHEAD) + 10;
        let c: Cache<u64, u64> = Cache::new("test_evict", budget);
        c.insert(1, 1, 200);
        c.insert(2, 2, 200);
        assert_eq!(c.get(&1), Some(1)); // 2 is now the least recently used
        c.insert(3, 3, 200); // forces one eviction
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= budget as u64);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(1));
        assert_eq!(c.get(&3), Some(3));
    }

    #[test]
    fn entries_up_to_the_layer_budget_are_cached() {
        let c: Cache<u64, Vec<u8>> = Cache::new("test_whole_budget", 1_000);
        c.insert(1, vec![0; 200], 200);
        assert_eq!(c.get(&1).map(|v| v.len()), Some(200));
        assert_eq!(c.stats().inserts, 1);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let c: Cache<u64, Vec<u8>> = Cache::new("test_oversize", 256);
        c.insert(1, vec![0; 4096], 4096);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.stats().inserts, 0);
    }

    #[test]
    fn zero_budget_disables_everything() {
        let c: Cache<u64, u64> = Cache::new("test_disabled", 0);
        assert!(c.is_disabled());
        c.insert(1, 1, 8);
        assert_eq!(c.get(&1), None);
        let s = c.stats();
        assert_eq!(s.lookups, 0, "disabled caches record nothing");
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn clear_frees_bytes() {
        let c: Cache<u64, u64> = Cache::new("test_clear", 1 << 20);
        for i in 0..10 {
            c.insert(i, i, 64);
        }
        assert_eq!(c.stats().entries, 10);
        c.clear();
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
    }
}
