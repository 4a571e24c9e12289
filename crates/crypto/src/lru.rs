//! The one bounded least-recently-used map behind every memoization
//! cache in the workspace (verify cache, RAR memo, PDP decisions, reply
//! cache — DESIGN.md §D17).
//!
//! Recency is a tick stamped on an entry whenever it is inserted or a
//! lookup accepts it; the victim of an insert into a full map is the
//! entry with the smallest stamp. An ordered index from stamp to key
//! finds that victim in `O(log n)` — the caches used to find it by
//! scanning every entry.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Hit, miss and eviction counts of one cache, in cells a metrics
/// registry can share (`cache_{hits,misses,evictions}_total`). Clones
/// count into the same cells.
#[derive(Debug, Clone, Default)]
pub struct CacheCounters {
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
    evictions: Arc<AtomicU64>,
}

impl CacheCounters {
    /// `(hits, misses, evictions)` so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        let read = |cell: &AtomicU64| cell.load(Relaxed);
        (read(&self.hits), read(&self.misses), read(&self.evictions))
    }

    /// The cells themselves, for registering with a metrics registry.
    pub fn cells(&self) -> (Arc<AtomicU64>, Arc<AtomicU64>, Arc<AtomicU64>) {
        (
            Arc::clone(&self.hits),
            Arc::clone(&self.misses),
            Arc::clone(&self.evictions),
        )
    }

    /// Count an entry dropped to make room or because it went stale.
    pub fn evicted(&self) {
        self.evictions.fetch_add(1, Relaxed);
    }
}

/// A map that remembers in which order its entries were last used, and
/// counts its lookups and evictions.
#[derive(Debug)]
pub struct LruMap<K, V> {
    map: HashMap<K, (u64, V)>,
    /// Stamp → key, for every entry of `map`.
    order: BTreeMap<u64, K>,
    tick: u64,
    cap: usize,
    counters: CacheCounters,
}

impl<K, V> LruMap<K, V> {
    /// An empty map holding up to `cap` entries and counting into
    /// `counters`.
    pub fn new(cap: usize, counters: CacheCounters) -> Self {
        Self {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            cap,
            counters,
        }
    }

    /// The bound on entries held.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Rebound the map. `0` turns it off: lookups find nothing and are
    /// not counted, inserts are dropped. Shrinking below the current
    /// population drops all entries.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap;
        if self.map.len() > cap {
            self.clear();
        }
    }

    /// What this map counts into.
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every entry (counts are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

impl<K: Hash + Eq + Clone, V> LruMap<K, V> {
    /// The value under `key` if `accept` takes it — a hit, which also
    /// makes it the most recently used entry. A refused or absent entry
    /// is a miss and leaves the order alone.
    pub fn get_if(&mut self, key: &K, accept: impl FnOnce(&V) -> bool) -> Option<&V> {
        if self.cap == 0 {
            return None;
        }
        let Some((stamp, value)) = self.map.get_mut(key).filter(|(_, v)| accept(v)) else {
            self.counters.misses.fetch_add(1, Relaxed);
            return None;
        };
        self.counters.hits.fetch_add(1, Relaxed);
        self.tick += 1;
        let k = self.order.remove(stamp).expect("every entry is indexed");
        self.order.insert(self.tick, k);
        *stamp = self.tick;
        Some(value)
    }

    /// Insert or overwrite `key` as the most recently used entry. A new
    /// key arriving at a full map first evicts the least recently used
    /// one, which is returned.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.cap == 0 {
            return None;
        }
        self.tick += 1;
        let mut evicted = None;
        match self.map.get_mut(&key) {
            Some((stamp, slot)) => {
                self.order.remove(stamp);
                *stamp = self.tick;
                *slot = value;
            }
            None => {
                if self.map.len() >= self.cap {
                    if let Some((_, victim)) = self.order.pop_first() {
                        evicted = self.map.remove(&victim).map(|(_, v)| (victim, v));
                        self.counters.evicted();
                    }
                }
                self.map.insert(key.clone(), (self.tick, value));
            }
        }
        self.order.insert(self.tick, key);
        evicted
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (stamp, value) = self.map.remove(key)?;
        self.order.remove(&stamp);
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_least_recently_accepted_entry() {
        let mut lru = LruMap::new(2, CacheCounters::default());
        assert_eq!(lru.insert("a", 1), None);
        assert_eq!(lru.insert("b", 2), None);
        // A refused lookup does not refresh "a"; an accepted one does.
        assert_eq!(lru.get_if(&"a", |_| false), None);
        assert_eq!(lru.insert("c", 3), Some(("a", 1)));
        assert_eq!(lru.get_if(&"b", |_| true), Some(&2));
        assert_eq!(lru.insert("d", 4), Some(("c", 3)));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn overwriting_refreshes_without_evicting() {
        let mut lru = LruMap::new(2, CacheCounters::default());
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.insert("a", 10), None);
        assert_eq!(lru.insert("c", 3), Some(("b", 2)));
        assert_eq!(lru.remove(&"a"), Some(10));
        assert_eq!(lru.remove(&"a"), None);
        lru.clear();
        assert!(lru.is_empty());
    }
}
