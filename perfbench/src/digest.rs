//! FNV-1a digests of simulated outputs.
//!
//! Hand-rolled so the digest of a trial depends on nothing but its bytes:
//! the same outputs give the same digest on every host and build.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// Fold `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
        self
    }

    /// Fold a string and a separator, so `("ab","c")` and `("a","bc")`
    /// hash apart.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    /// Fold a number.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash so far.
    pub fn get(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(Fnv::default().get(), 0xcbf29ce484222325);
        assert_eq!(Fnv::default().bytes(b"a").get(), 0xaf63dc4c8601ec8c);
        assert_eq!(Fnv::default().bytes(b"foobar").get(), 0x85944171f73967e8);
    }

    #[test]
    fn separators_keep_fields_apart() {
        let a = Fnv::default().str("ab").str("c").get();
        let b = Fnv::default().str("a").str("bc").get();
        assert_ne!(a, b);
    }
}
