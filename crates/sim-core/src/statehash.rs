//! The house hash: 64-bit FNV-1a.
//!
//! One function, [`fnv1a_64`], serves every digest in the repository: the
//! world's state hash (the digest of its snapshot's canonical JSON), the
//! snapshot file's scenario fingerprint and payload check, and — through
//! the same constants — RNG lane derivation ([`crate::SimRng::derive`]).
//!
//! FNV is not collision-resistant — it is a *drift detector*, not an
//! integrity seal: a divergence flags the first tick where two executions
//! stopped being bit-identical, and the file fingerprints guard against
//! torn writes, not adversaries.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a (64-bit) digest of a byte slice.
///
/// ```
/// use vdtn_sim_core::statehash::fnv1a_64;
///
/// assert_eq!(fnv1a_64(b"foobar"), fnv1a_64(b"foobar"));
/// assert_ne!(fnv1a_64(b"0.0"), fnv1a_64(b"-0.0"));
/// ```
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hash_is_offset_basis() {
        assert_eq!(fnv1a_64(b""), FNV_OFFSET);
    }

    #[test]
    fn matches_reference_fnv1a() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn write_order_matters() {
        assert_ne!(fnv1a_64(b"[1,2]"), fnv1a_64(b"[2,1]"));
    }
}
