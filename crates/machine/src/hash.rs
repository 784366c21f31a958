//! A fast, deterministic hasher for the executor hot paths.
//!
//! The separator executors (`exec1`, `execd`, `multi1`/`multi2`) key
//! their liveness and placement maps by small lattice points and
//! integer ids.  `std`'s default SipHash is DoS-resistant but costs a
//! full keyed permutation per lookup; these maps never see untrusted
//! keys, so a multiply-xor hash in the FxHash family is the right
//! trade.  **Determinism discipline**: map iteration order is never
//! allowed to reach the cost meters — every charging path sorts its
//! key set first (see DESIGN.md §15) — so swapping the hasher cannot
//! perturb model outputs.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher (FxHash family): one rotate, one xor, one
/// multiply per word of input.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

/// Odd multiplier with high bit dispersion (2^64 / φ, forced odd).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.mix(i as u64);
    }
}

/// `HashMap` keyed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed by [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip_with_tuple_keys() {
        let mut m: FxHashMap<(i64, i64), usize> = FxHashMap::default();
        for i in -50i64..50 {
            m.insert((i, -i), i.unsigned_abs() as usize);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(7, -7)), Some(&7));
        assert_eq!(m.get(&(-7, 7)), Some(&7));
        assert_eq!(m.get(&(51, -51)), None);
    }

    #[test]
    fn hashes_are_deterministic_across_instances() {
        let h = |x: u64| {
            let mut f = FxHasher::default();
            f.write_u64(x);
            f.finish()
        };
        assert_eq!(h(12345), h(12345));
        assert_ne!(h(12345), h(12346));
    }

    #[test]
    fn set_behaves_like_std() {
        let mut s: FxHashSet<i64> = FxHashSet::default();
        for x in [3i64, 1, 4, 1, 5, 9, 2, 6, 5, 3] {
            s.insert(x);
        }
        let mut v: Vec<i64> = s.into_iter().collect();
        v.sort();
        assert_eq!(v, [1, 2, 3, 4, 5, 6, 9]);
    }
}
