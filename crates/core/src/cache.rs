//! A small least-recently-used cache, optionally byte-budgeted.
//!
//! The proof cache of `poneglyph-service`, and the verifier session's key
//! cache (mutation-driven digest churn would otherwise grow it without
//! bound). Entries are cheap to keep next to what they guard (kilobytes of
//! proof vs. seconds of proving; a verifying key vs. its keygen), so
//! capacities are small and recency bookkeeping uses an
//! O(capacity) eviction scan rather than an intrusive list — simpler, and
//! invisible next to the work a miss costs.
//!
//! Two independent bounds:
//!
//! * **entry capacity** — the classic LRU bound; `0` disables caching
//!   entirely (every `get` misses).
//! * **byte budget** — an approximate size charge per entry
//!   ([`LruCache::insert_weighted`]); when the running total exceeds the
//!   budget, least-recently-used entries are evicted until it fits. `0`
//!   means unbudgeted. An entry whose own weight exceeds the whole budget
//!   is not retained.

use std::collections::HashMap;
use std::hash::Hash;

/// A bounded map evicting the least-recently-*used* entry on overflow.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    byte_budget: usize,
    bytes: usize,
    map: HashMap<K, Entry<V>>,
    tick: u64,
    evictions: u64,
}

#[derive(Debug)]
struct Entry<V> {
    stamp: u64,
    weight: usize,
    value: V,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// A cache holding at most `capacity` entries, with no byte budget. A
    /// zero capacity disables caching entirely (every `get` misses).
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_budget(capacity, 0)
    }

    /// A cache bounded by both an entry count and an approximate byte
    /// budget (`0` = unbudgeted). Weights are attached at
    /// [`insert_weighted`](Self::insert_weighted) time.
    pub fn with_byte_budget(capacity: usize, byte_budget: usize) -> Self {
        Self {
            capacity,
            byte_budget,
            bytes: 0,
            map: HashMap::new(),
            tick: 0,
            evictions: 0,
        }
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|e| {
            e.stamp = tick;
            e.value.clone()
        })
    }

    /// Look up a key *without* refreshing its recency (stats paths that
    /// must not perturb eviction order).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|e| &e.value)
    }

    /// Insert a value with zero weight, evicting the least-recently-used
    /// entry when the entry capacity overflows.
    pub fn insert(&mut self, key: K, value: V) {
        self.insert_weighted(key, value, 0);
    }

    /// Insert a value charged `weight` approximate bytes against the byte
    /// budget. Evicts least-recently-used entries until both bounds hold —
    /// including, for an over-budget weight, the entry just inserted.
    pub fn insert_weighted(&mut self, key: K, value: V, weight: usize) {
        if self.capacity == 0 {
            return;
        }
        if self.byte_budget > 0 && weight > self.byte_budget {
            // The entry can never fit; admitting it would only evict
            // every smaller entry before self-evicting.
            self.remove(&key);
            return;
        }
        self.tick += 1;
        if let Some(old) = self.map.insert(
            key,
            Entry {
                stamp: self.tick,
                weight,
                value,
            },
        ) {
            self.bytes -= old.weight;
        }
        self.bytes += weight;
        while self.map.len() > self.capacity
            || (self.byte_budget > 0 && self.bytes > self.byte_budget)
        {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.remove(&oldest);
            self.evictions += 1;
        }
    }

    /// Fetch the value for `key`, inserting `make()` (at zero weight) on a
    /// miss. The whole operation happens under one `&mut self`, so callers
    /// holding the cache's lock get the usual get-or-insert atomicity.
    pub fn get_or_insert_with(&mut self, key: &K, make: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let v = make();
        self.insert(key.clone(), v.clone());
        v
    }

    /// Remove one entry, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|e| {
            self.bytes -= e.weight;
            e.value
        })
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sum of the weights of the cached entries (approximate bytes held).
    pub fn total_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of entries evicted by the capacity or byte-budget bounds
    /// over the cache's lifetime (explicit [`remove`](Self::remove)/
    /// [`retain`](Self::retain) calls do not count).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Iterate the cached keys (no recency refresh).
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }

    /// Keep only the entries whose key/value satisfy the predicate
    /// (detaching or mutating a database purges its proofs this way).
    pub fn retain(&mut self, mut f: impl FnMut(&K, &V) -> bool) {
        let bytes = &mut self.bytes;
        self.map.retain(|k, e| {
            let keep = f(k, &e.value);
            if !keep {
                *bytes -= e.weight;
            }
            keep
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(1)); // refresh a: b is now oldest
        c.insert("c", 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"c"), Some(3));
        assert_eq!(c.evictions(), 1);
        c.remove(&"a");
        assert_eq!(c.evictions(), 1, "explicit removal is not an eviction");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_updates_value() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("a", 9);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"a"), Some(9));
    }

    #[test]
    fn byte_budget_evicts_by_weight() {
        let mut c = LruCache::with_byte_budget(10, 100);
        c.insert_weighted("a", 1, 40);
        c.insert_weighted("b", 2, 40);
        assert_eq!(c.total_bytes(), 80);
        assert_eq!(c.get(&"a"), Some(1)); // refresh a: b is now oldest
        c.insert_weighted("c", 3, 40); // 120 > 100: b evicted
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.total_bytes(), 80);
    }

    #[test]
    fn over_budget_entry_is_not_retained() {
        let mut c = LruCache::with_byte_budget(10, 100);
        c.insert_weighted("a", 1, 40);
        c.insert_weighted("big", 2, 500); // exceeds the whole budget
        assert_eq!(c.get(&"big"), None, "over-budget entry is rejected");
        assert_eq!(c.total_bytes(), 40, "existing entries are untouched");
        assert_eq!(c.get(&"a"), Some(1));
        // Re-inserting an existing key at an over-budget weight drops it.
        c.insert_weighted("a", 1, 500);
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.total_bytes(), 0);
    }

    #[test]
    fn reinsert_adjusts_weight_accounting() {
        let mut c = LruCache::with_byte_budget(10, 100);
        c.insert_weighted("a", 1, 90);
        c.insert_weighted("a", 2, 30);
        assert_eq!(c.total_bytes(), 30);
        c.insert_weighted("b", 3, 60);
        assert_eq!(c.len(), 2, "re-weighted entry leaves room");
    }

    #[test]
    fn retain_and_remove_release_bytes() {
        let mut c = LruCache::with_byte_budget(10, 0);
        c.insert_weighted("a", 1, 10);
        c.insert_weighted("b", 2, 20);
        c.insert_weighted("c", 3, 30);
        c.retain(|k, _| *k != "b");
        assert_eq!(c.total_bytes(), 40);
        assert_eq!(c.remove(&"c"), Some(3));
        assert_eq!(c.total_bytes(), 10);
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut c = LruCache::new(4);
        let mut calls = 0;
        let v = c.get_or_insert_with(&"k", || {
            calls += 1;
            7
        });
        assert_eq!(v, 7);
        let v = c.get_or_insert_with(&"k", || {
            calls += 1;
            8
        });
        assert_eq!(v, 7, "existing value wins");
        assert_eq!(calls, 1);
    }
}
