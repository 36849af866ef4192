//! Fast, deterministic hashing for simulation-internal maps.
//!
//! `std::collections::HashMap`'s default SipHash costs tens of
//! nanoseconds per lookup — material when a discrete-event loop does five
//! to ten map probes per event. Simulation keys are small trusted
//! integers (node ids, cell ids, addresses, sequence numbers), so a
//! multiply–rotate hash in the FxHash family is collision-adequate and an
//! order of magnitude cheaper. It is also *deterministic across
//! processes* (no per-process `RandomState`), which suits the replication
//! engine's reproducibility contract: nothing observable may depend on
//! map iteration order, and a fixed hasher makes any accidental
//! dependence show up as a stable, testable wrong answer instead of a
//! heisenbug.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An FxHash-style multiply–rotate hasher for small trusted keys.
///
/// Not DoS-resistant — never expose it to attacker-controlled keys. Every
/// write folds the input word into the state with a rotate + xor +
/// multiply by a 64-bit odd constant (the golden-ratio-derived constant
/// used by the rustc hasher family).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.fold(i as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.fold(i as u64);
    }
}

/// `HashMap` with the deterministic [`FxHasher`] — the default map type
/// for simulation hot paths.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of((3u32, 4u32)), hash_of((3u32, 4u32)));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of((0i32, 1i32)), hash_of((1i32, 0i32)));
        assert_ne!(
            hash_of([1u8, 2, 3].as_slice()),
            hash_of([3u8, 2, 1].as_slice())
        );
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: HashSet<u32, BuildHasherDefault<FxHasher>> = HashSet::default();
        assert!(s.insert(9));
        assert!(s.contains(&9));
    }

    #[test]
    fn nearby_small_keys_spread() {
        // Dense integer ids must not collide in bulk.
        let hashes: HashSet<u64> = (0u32..10_000).map(hash_of).collect();
        assert_eq!(hashes.len(), 10_000);
    }
}
