//! A small, deterministic least-recently-used map.
//!
//! The vendored-deps policy keeps external crates out of the build, so the
//! long-running layers (the process-wide profile memo, the `hpf-serve`
//! session caches) share this ~100-line implementation instead of pulling
//! in `lru`. Recency is tracked with a monotonically increasing logical
//! tick per access; eviction removes the minimum-tick entry. Ticks are
//! unique, so for a fixed operation sequence the evicted key is a pure
//! function of that sequence — cache behaviour never depends on hash
//! iteration order or wall-clock time.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A bounded map with least-recently-used eviction.
#[derive(Debug)]
pub struct LruMap<K, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// An LRU holding at most `cap` entries (`cap` ≥ 1 is enforced).
    pub fn new(cap: usize) -> Self {
        LruMap {
            cap: cap.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Look up `key`, marking it most recently used on a hit. Any borrowed
    /// form of the key works, so a `String`-keyed map is read with a `&str`.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.0 = tick;
                Some(&entry.1)
            }
            None => None,
        }
    }

    /// Insert `key → value`, marking it most recently used. Returns the
    /// evicted least-recently-used entry when the insert pushed the map
    /// over capacity (never the key just inserted).
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.tick += 1;
        self.map.insert(key, (self.tick, value));
        if self.map.len() <= self.cap {
            return None;
        }
        let victim = self
            .map
            .iter()
            .min_by_key(|(_, (tick, _))| *tick)
            .map(|(k, _)| k.clone())
            .expect("over-capacity map is non-empty");
        self.map.remove_entry(&victim).map(|(k, (_, v))| (k, v))
    }

    /// Fetch-or-compute: on a miss, insert `make()`. Returns a clone of the
    /// cached value, whether the call hit, and the evicted entry (if any).
    pub fn get_or_insert_with(
        &mut self,
        key: &K,
        make: impl FnOnce() -> V,
    ) -> (V, bool, Option<(K, V)>)
    where
        V: Clone,
    {
        if let Some(v) = self.get(key) {
            return (v.clone(), true, None);
        }
        let v = make();
        let evicted = self.insert(key.clone(), v.clone());
        (v, false, evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = LruMap::new(2);
        assert!(lru.insert("a", 1).is_none());
        assert!(lru.insert("b", 2).is_none());
        // Touch `a` so `b` becomes the LRU entry.
        assert_eq!(lru.get(&"a"), Some(&1));
        let evicted = lru.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&"a").is_some());
        assert!(lru.get(&"c").is_some());
        assert!(lru.get(&"b").is_none());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut lru = LruMap::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert!(lru.insert("a", 10).is_none(), "no eviction on re-insert");
        assert_eq!(lru.get(&"a"), Some(&10));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut lru = LruMap::new(0);
        assert_eq!(lru.capacity(), 1);
        assert!(lru.insert("a", 1).is_none());
        assert_eq!(lru.insert("b", 2), Some(("a", 1)));
    }

    #[test]
    fn get_or_insert_reports_hits_and_evictions() {
        let mut lru = LruMap::new(1);
        let (v, hit, evicted) = lru.get_or_insert_with(&"a", || 1);
        assert_eq!((v, hit), (1, false));
        assert!(evicted.is_none());
        let (v, hit, evicted) = lru.get_or_insert_with(&"a", || unreachable!());
        assert_eq!((v, hit), (1, true));
        assert!(evicted.is_none());
        let (v, hit, evicted) = lru.get_or_insert_with(&"b", || 2);
        assert_eq!((v, hit), (2, false));
        assert_eq!(evicted, Some(("a", 1)));
    }

    #[test]
    fn eviction_order_is_deterministic() {
        // Same operation sequence → same eviction sequence, every time.
        let run = || {
            let mut lru = LruMap::new(3);
            let mut evicted = Vec::new();
            for i in 0..10u32 {
                if let Some((k, _)) = lru.insert(i % 5, i) {
                    evicted.push(k);
                }
                lru.get(&(i % 2));
            }
            evicted
        };
        assert_eq!(run(), run());
    }
}
