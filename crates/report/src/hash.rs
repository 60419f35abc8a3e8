//! The workspace's one hash: 64-bit FNV-1a for byte strings and the
//! splitmix64 finalizer for seeded streams.
//!
//! Both are fixed, portable functions of their input, so everything keyed
//! or checksummed with them — cache shard selection, loadgen and chaos
//! checksums, the advisor's tie-break order — is stable across runs,
//! platforms and thread counts.

/// FNV-1a offset basis: the starting state of a fresh hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold `bytes` into the FNV-1a state `hash` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The splitmix64 finalizer: a bijective, well-mixed map of `x`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_checksum_is_order_sensitive() {
        let a = fnv1a(fnv1a(FNV_OFFSET, b"one"), b"two");
        let b = fnv1a(fnv1a(FNV_OFFSET, b"two"), b"one");
        assert_ne!(a, b);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }
}
