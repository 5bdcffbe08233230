//! FNV-1a hashing for content addressing.
//!
//! The serving layer addresses cached simulation reports by the hash of
//! the canonicalized request document, and needs that key to be stable
//! across processes, hosts, and releases — which rules out
//! [`std::collections::hash_map::DefaultHasher`] (its seed is
//! deliberately unstable). FNV-1a over the canonical bytes is tiny,
//! fully specified, and already the checksum the fault-recovery envelope
//! layer uses, so keys computed by a client, the server, and a test all
//! agree forever.
//!
//! [`IntMap`] is the other hashing need: in-process tables keyed by
//! integers, where the default SipHash is the cost of the lookup.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] over small integer keys (transfer ids, cell pairs, flag
/// addresses) hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Multiplicative hasher for the simulator's own integer keys.
///
/// The per-message tables (in-flight transfers, per-pair FIFO state, flag
/// counts) are keyed by integers the program itself generates, so SipHash's
/// flood resistance buys nothing there and costs most of a lookup. Each
/// written word is folded with one rotate, xor and multiply. The hasher is
/// unseeded: a table's bucket order is the same in every process, although
/// every reader of these tables still sorts or folds commutatively, so
/// no output depends on it. Not for keys that arrive from outside the
/// program.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    /// 2^64 / φ, odd: consecutive keys land far apart.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply pushes entropy up; hashbrown indexes by the low bits.
        self.0.rotate_left(26)
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
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }
}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with 64-bit FNV-1a.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Renders a 64-bit key the way cache files and `X-Key` headers spell it:
/// 16 lowercase hex digits, zero-padded.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// Parses [`key_hex`]'s output back to the key. `None` on anything that
/// is not exactly 16 hex digits.
pub fn parse_key_hex(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Reference vectors from the FNV specification.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn int_hasher_is_unseeded_and_spreads_dense_keys() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<IntHasher>::default();
        assert_eq!(build.hash_one(7u64), build.hash_one(7u64));
        assert_ne!(build.hash_one((1u32, 2u32)), build.hash_one((2u32, 1u32)));
        // Dense ids and page-aligned addresses must not pile into a few
        // low-bit buckets.
        for stride in [1u64, 8, 4096] {
            let mut low = std::collections::HashSet::new();
            for i in 0..1024u64 {
                low.insert(build.hash_one(i * stride) & 1023);
            }
            assert!(low.len() > 512, "stride {stride}: {} buckets", low.len());
        }
        // Byte-slice keys fold every byte, including a ragged tail.
        assert_ne!(
            build.hash_one(&b"abcdefghi"[..]),
            build.hash_one(&b"abcdefghj"[..])
        );
    }

    #[test]
    fn key_hex_round_trips() {
        for k in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_key_hex(&key_hex(k)), Some(k));
        }
        assert_eq!(key_hex(1).len(), 16);
        assert_eq!(parse_key_hex("xyz"), None);
        assert_eq!(parse_key_hex("00"), None);
    }
}
