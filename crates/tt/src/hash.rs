//! A fast, non-cryptographic hasher for interior maps.
//!
//! The rewrite hot path hashes millions of tiny keys — 8-byte strash keys,
//! `u64` truth tables, dense `u32` node ids. The standard library's default
//! SipHash-1-3 is keyed and HashDoS-resistant, but on 8–16-byte keys the
//! per-hash setup dominates and the resistance buys nothing: every map it
//! feeds is interior to the optimizer, keyed by data we generate ourselves
//! (structural hashes, canonical truth tables), never by attacker-chosen
//! input. [`FxHasher`] is the rustc-style multiply-rotate hash — one rotate,
//! one xor, one multiply per word — which is the conventional replacement for
//! exactly this situation.
//!
//! # Examples
//!
//! ```
//! use xag_tt::hash::FxHashMap;
//!
//! let mut m: FxHashMap<u64, &str> = FxHashMap::default();
//! m.insert(0xe8, "maj3");
//! assert_eq!(m.get(&0xe8), Some(&"maj3"));
//! ```
//!
//! [`SharedMap`] layers such a map for memo tables that many workers read:
//! a frozen layer shared behind an [`Arc`] plus a small private delta.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Builder producing default-initialized [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Multiplicative constant: `2^64 / φ`, the classic Fibonacci-hashing seed.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc-style FxHash state.
///
/// Each ingested word updates the state as
/// `hash = (hash.rotate_left(5) ^ word) * SEED`. This is not collision- or
/// DoS-resistant; use it only for maps whose keys the program itself
/// produces.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A memo table in two layers: a read-only layer shared behind an [`Arc`]
/// and a private delta that shadows it.
///
/// Cloning shares the layer and copies only the delta, so handing a warm
/// table to a worker costs O(delta), not O(table). Writes go straight into
/// the shared layer while this map holds its only reference; otherwise
/// they land in the delta, which is folded into the layer in place (never
/// by copying the layer) as soon as the map is the sole owner again.
/// [`SharedMap::absorb`] brings a clone's new entries back.
///
/// A map may carry a capacity: past it, inserts are dropped, so a memo
/// stays bounded while its callers keep computing what it no longer
/// stores.
///
/// # Examples
///
/// ```
/// use xag_tt::hash::SharedMap;
///
/// let mut parent: SharedMap<u64, &str> = SharedMap::new();
/// parent.insert(0xe8, "maj3");
/// let mut worker = parent.clone(); // shares the layer
/// assert!(worker.shares_layer_with(&parent));
/// worker.insert(0x88, "and3");
/// parent.absorb(worker);
/// assert_eq!(parent.len(), 2);
/// assert_eq!(parent.get(&0x88), Some(&"and3"));
/// ```
#[derive(Debug, Clone)]
pub struct SharedMap<K, V> {
    shared: Arc<FxHashMap<K, V>>,
    delta: FxHashMap<K, V>,
    /// Delta keys that shadow a shared entry (counted once by `len`).
    shadowed: usize,
    capacity: usize,
}

impl<K, V> Default for SharedMap<K, V> {
    fn default() -> Self {
        Self::bounded(usize::MAX)
    }
}

impl<K, V> SharedMap<K, V> {
    /// An empty, unbounded map.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map that stores at most `capacity` entries.
    pub fn bounded(capacity: usize) -> Self {
        Self {
            shared: Arc::default(),
            delta: FxHashMap::default(),
            shadowed: 0,
            capacity,
        }
    }

    /// True iff both maps read the same shared layer.
    pub fn shares_layer_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }
}

impl<K: Eq + Hash, V> SharedMap<K, V> {
    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.shared.len() + self.delta.len() - self.shadowed
    }

    /// True iff the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of `k`; a delta entry shadows a shared one.
    #[inline]
    pub fn get(&self, k: &K) -> Option<&V> {
        if !self.delta.is_empty() {
            if let Some(v) = self.delta.get(k) {
                return Some(v);
            }
        }
        self.shared.get(k)
    }

    /// True iff `k` has a value.
    pub fn contains_key(&self, k: &K) -> bool {
        self.get(k).is_some()
    }

    /// Sets the value of `k`, overwriting an existing one. A new key past
    /// the capacity is dropped; returns whether the map holds `v` now.
    pub fn insert(&mut self, k: K, v: V) -> bool {
        if self.len() >= self.capacity && !self.contains_key(&k) {
            return false;
        }
        self.fold();
        if let Some(shared) = Arc::get_mut(&mut self.shared) {
            shared.insert(k, v);
        } else {
            if self.shared.contains_key(&k) && !self.delta.contains_key(&k) {
                self.shadowed += 1;
            }
            self.delta.insert(k, v);
        }
        true
    }

    /// Merges back the entries a clone added: keys this map lacks are
    /// inserted (up to the capacity), keys it has keep their value.
    pub fn absorb(&mut self, other: SharedMap<K, V>) {
        // Release the clone's hold on the layer first, so this map may
        // write into it in place.
        let SharedMap { shared, delta, .. } = other;
        drop(shared);
        for (k, v) in delta {
            if !self.contains_key(&k) && !self.insert(k, v) {
                break;
            }
        }
        self.fold();
    }

    /// All entries, each key once (delta values win), in no fixed order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.delta.iter().chain(
            self.shared
                .iter()
                .filter(|(k, _)| !self.delta.contains_key(*k)),
        )
    }

    /// Folds the delta into the shared layer when this map is its only
    /// owner; a no-op otherwise.
    fn fold(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        if let Some(shared) = Arc::get_mut(&mut self.shared) {
            shared.extend(self.delta.drain());
            self.shadowed = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&(1u32, 2u32)), hash_of(&(1u32, 2u32)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Dense node ids are the common key shape; neighbours must not
        // collide wholesale.
        let hashes: Vec<u64> = (0u32..1000).map(|i| hash_of(&i)).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), hashes.len());
    }

    #[test]
    fn byte_writes_cover_remainder() {
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        let full = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]);
        assert_ne!(full, h2.finish());
    }

    #[test]
    fn map_and_set_roundtrip() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        let mut s: FxHashSet<u32> = FxHashSet::default();
        for i in 0..100 {
            m.insert(i, i * 2);
            s.insert(i);
        }
        assert_eq!(m.len(), 100);
        assert!((0..100).all(|i| m[&i] == i * 2 && s.contains(&i)));
    }

    #[test]
    fn clones_share_the_layer_until_absorbed() {
        let mut parent: SharedMap<u32, u32> = SharedMap::new();
        for i in 0..10 {
            parent.insert(i, i);
        }
        let mut fork = parent.clone();
        assert!(fork.shares_layer_with(&parent));
        // The parent is no longer the sole owner: writes go to its delta.
        parent.insert(100, 100);
        for i in 5..15 {
            if !fork.contains_key(&i) {
                fork.insert(i, i * 10);
            }
        }
        assert_eq!(fork.len(), 15);
        assert_eq!(fork.get(&100), None);
        parent.absorb(fork);
        assert_eq!(parent.len(), 16);
        assert_eq!(parent.get(&4), Some(&4));
        assert_eq!(parent.get(&12), Some(&120));
        // Sole owner again: the delta was folded in place.
        assert!(parent.delta.is_empty());
    }

    #[test]
    fn delta_shadows_and_len_counts_keys_once() {
        let mut a: SharedMap<u32, u32> = SharedMap::new();
        a.insert(1, 1);
        let b = a.clone();
        a.insert(1, 2);
        assert_eq!(a.get(&1), Some(&2));
        assert_eq!(a.len(), 1);
        assert_eq!(a.iter().count(), 1);
        drop(b);
        a.insert(3, 3);
        assert_eq!(a.get(&1), Some(&2));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn capacity_bounds_inserts_and_absorb() {
        let mut a: SharedMap<u32, u32> = SharedMap::bounded(3);
        for i in 0..5 {
            a.insert(i, i);
        }
        assert_eq!(a.len(), 3);
        assert!(a.insert(0, 7), "existing keys may still change");
        let mut b: SharedMap<u32, u32> = SharedMap::bounded(5);
        for i in 10..15 {
            b.insert(i, i);
        }
        a.absorb(b);
        assert_eq!(a.len(), 3);
    }
}
