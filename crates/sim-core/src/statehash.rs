//! Deterministic streaming state hashing.
//!
//! [`StateHash`] is a 64-bit FNV-1a stream folded over a *canonical*
//! serialisation of simulation state: every contributor writes its fields in
//! a fixed, documented order, collections are visited in their semantic
//! order (reception order for buffers, sorted order for sets, ordered
//! pair-key order for links), and floating-point values contribute their IEEE
//! bit patterns. Two worlds hash equal **iff** every canonical field is
//! bit-identical — which is exactly the property the engine-mode and
//! thread-count equivalence guarantees promise, so a hash stream emitted once
//! per tick turns "the final reports matched" into a per-tick invariant that
//! CI can `cmp` in O(1) per sample.
//!
//! The constants match the FNV-1a variant already used for RNG lane
//! derivation ([`crate::SimRng::derive`]), keeping the repo on a single house
//! hash. FNV is not collision-resistant — it is a *drift detector*, not an
//! integrity seal: a divergence flags the first tick where two executions
//! stopped being bit-identical, and the snapshot fingerprint it feeds guards
//! against torn writes, not adversaries.
//!
//! # Domain separation
//!
//! Writers tag each logical section with [`StateHash::write_tag`] so that a
//! field accidentally migrating between sections (or an empty section
//! adjacent to a non-empty one) cannot alias another encoding. Length
//! prefixes on variable-size collections serve the same purpose.

/// Streaming FNV-1a (64-bit) over canonical state.
///
/// ```
/// use vdtn_sim_core::statehash::StateHash;
///
/// let mut a = StateHash::new();
/// a.write_u64(7);
/// a.write_f64(1.5);
/// let mut b = StateHash::new();
/// b.write_u64(7);
/// b.write_f64(1.5);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateHash {
    state: u64,
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl Default for StateHash {
    fn default() -> Self {
        Self::new()
    }
}

impl StateHash {
    /// Fresh hasher at the FNV offset basis.
    pub const fn new() -> Self {
        StateHash { state: FNV_OFFSET }
    }

    /// Fold one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.state ^= b as u64;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Fold a byte slice (no implicit length — callers prefix with
    /// [`write_len`](Self::write_len) when the slice is variable-sized).
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Fold a `u32` as 4 little-endian bytes.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Fold a `u64` as 8 little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Fold a length prefix (domain-separates adjacent collections).
    #[inline]
    pub fn write_len(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Fold an `f64` through its IEEE-754 bit pattern. Bit equality is the
    /// point: `-0.0` and `0.0` hash differently, as do differently-rounded
    /// results of "the same" computation — which is what drift detection needs.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Fold a bool as one byte.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Fold a UTF-8 string, length-prefixed.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_len(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Fold a section tag. Tags are short static strings ("nodes", "links",
    /// …) that keep independently-written sections from aliasing.
    #[inline]
    pub fn write_tag(&mut self, tag: &str) {
        self.write_str(tag);
    }

    /// The digest so far. Does not consume the hasher: callers may emit a
    /// running digest per tick and keep folding.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Hash a byte slice in one shot (used for file fingerprints).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = StateHash::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hash_is_offset_basis() {
        assert_eq!(StateHash::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn matches_reference_fnv1a() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn write_order_matters() {
        let mut a = StateHash::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StateHash::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn f64_uses_bit_pattern() {
        let mut a = StateHash::new();
        a.write_f64(0.0);
        let mut b = StateHash::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());

        let mut c = StateHash::new();
        c.write_f64(1.0 / 3.0);
        let mut d = StateHash::new();
        d.write_f64(1.0 / 3.0);
        assert_eq!(c.finish(), d.finish());
    }

    #[test]
    fn length_prefix_separates_collections() {
        // ([1], []) must not alias ([], [1]).
        let mut a = StateHash::new();
        a.write_len(1);
        a.write_u64(1);
        a.write_len(0);
        let mut b = StateHash::new();
        b.write_len(0);
        b.write_len(1);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn tags_separate_sections() {
        let mut a = StateHash::new();
        a.write_tag("nodes");
        let mut b = StateHash::new();
        b.write_tag("links");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut a = StateHash::new();
        a.write_bytes(b"hello ");
        a.write_bytes(b"world");
        assert_eq!(a.finish(), fnv1a_64(b"hello world"));
    }

    #[test]
    fn running_digest_does_not_consume() {
        let mut h = StateHash::new();
        h.write_u64(1);
        let first = h.finish();
        h.write_u64(2);
        let second = h.finish();
        assert_ne!(first, second);
        // Continuing after finish folds on top of the same stream.
        let mut ref_h = StateHash::new();
        ref_h.write_u64(1);
        ref_h.write_u64(2);
        assert_eq!(second, ref_h.finish());
    }
}
