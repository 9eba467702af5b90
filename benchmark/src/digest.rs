//! Order-independent digests of per-op results.
//!
//! Each op hashes its canonical result fields with the runtime's 64-bit
//! FNV-1a; the workload digest is the wrapping sum of the op hashes.
//! The sum is the same in any op order (so every `--seed` yields the
//! same digest) and, unlike XOR, two identical ops do not cancel.

use t3_runtime::Fnv1a;

/// One op's result fields, hashed as they are fed.
#[derive(Debug, Clone)]
pub struct OpHash(Fnv1a);

impl OpHash {
    /// A hasher seeded with the op's name.
    pub fn new(op: &str) -> Self {
        OpHash(Fnv1a::new()).str(op)
    }

    /// Feeds a length-prefixed string, so adjacent fields cannot run
    /// into each other.
    pub fn str(self, s: &str) -> Self {
        let mut h = self.u64(s.len() as u64);
        h.0.write(s.as_bytes());
        h
    }

    /// Feeds an integer.
    pub fn u64(mut self, v: u64) -> Self {
        self.0.write_u64(v);
        self
    }

    /// The hash.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Combines op hashes into a workload digest, independent of order.
pub fn combine(op_hashes: impl IntoIterator<Item = u64>) -> u64 {
    op_hashes.into_iter().fold(0, u64::wrapping_add)
}

/// The digest as the 16-digit hex string the pins use.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_op_order_but_not_content() {
        let ops: Vec<u64> = (0..5u64)
            .map(|i| OpHash::new("op").u64(i).finish())
            .collect();
        let mut shuffled = ops.clone();
        shuffled.reverse();
        shuffled.swap(0, 2);
        assert_eq!(combine(ops.clone()), combine(shuffled));
        let mut edited = ops.clone();
        edited[3] = OpHash::new("op").u64(99).finish();
        assert_ne!(combine(ops.clone()), combine(edited));
        // Duplicated ops add up rather than cancelling.
        assert_ne!(combine([ops[0], ops[0]]), 0);
    }

    #[test]
    fn strings_are_length_prefixed() {
        let a = OpHash::new("x").str("ab").str("c").finish();
        let b = OpHash::new("x").str("a").str("bc").finish();
        assert_ne!(a, b);
        assert_eq!(hex(0xab), "00000000000000ab");
    }
}
