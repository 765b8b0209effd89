//! Block-level primitives: identifiers, payload buffers and content hashing.

use std::fmt;

use bytes::Bytes;

/// Size of one logical block, in bytes. Matches the database page size so a
/// page write is exactly one block write, as on the paper's testbed (Oracle
/// 4 KiB blocks on VSP LDEVs).
pub const BLOCK_SIZE: usize = 4096;

/// Identifier of a storage array (one per site in the demonstration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// Identifier of a volume within an array (an LDEV number, in Hitachi terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VolumeId(pub u64);

/// A fully qualified volume reference: which array, which volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VolRef {
    /// The owning array.
    pub array: ArrayId,
    /// The volume within that array.
    pub volume: VolumeId,
}

impl VolRef {
    /// Convenience constructor.
    pub fn new(array: ArrayId, volume: VolumeId) -> Self {
        VolRef { array, volume }
    }
}

impl fmt::Display for VolRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}/v{}", self.array.0, self.volume.0)
    }
}

/// Identifier of a journal volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JournalId(pub u32);

/// Identifier of a replication pair (one primary volume + one secondary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairId(pub u32);

/// Identifier of a replication group (the consistency-group unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// Identifier of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SnapshotId(pub u64);

/// The payload of one block write. `Bytes` gives cheap reference-counted
/// clones, which matters because a block travels host → volume → journal →
/// link → remote journal → secondary volume without copying.
pub type BlockBuf = Bytes;

/// FNV-1a 64-bit hash of a byte slice.
///
/// Used for content fingerprints in the ack log and write-order-fidelity
/// checker; not cryptographic, but collisions are irrelevant at the scales
/// simulated (≪ 2^32 samples).
///
/// The result is exactly byte-serial FNV-1a, computed faster on zero
/// runs. A zero byte leaves `h ^ 0 == h`, so its step is a bare multiply
/// by the prime, and 64 zero bytes are one multiply by `PRIME^64`
/// (mod 2^64). The data is walked in 64-byte chunks; an all-zero chunk
/// (found by an OR-fold) takes that one multiply, and every other chunk
/// and the tail take the byte loop. Simulated blocks are a short payload
/// padded with zeros to [`BLOCK_SIZE`], so most of a block is folded.
pub fn content_hash(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const CHUNK: usize = 64;
    const PRIME_POW_64: u64 = {
        let mut p = 1u64;
        let mut i = 0;
        while i < CHUNK {
            p = p.wrapping_mul(PRIME);
            i += 1;
        }
        p
    };
    fn bytes(mut h: u64, data: &[u8]) -> u64 {
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }
    let mut h = OFFSET;
    let mut chunks = data.chunks_exact(CHUNK);
    for chunk in &mut chunks {
        h = if chunk.iter().fold(0, |acc, &b| acc | b) == 0 {
            h.wrapping_mul(PRIME_POW_64)
        } else {
            bytes(h, chunk)
        };
    }
    bytes(h, chunks.remainder())
}

/// Build a block-sized buffer from a possibly shorter payload, zero-padded.
/// Panics if `data` exceeds [`BLOCK_SIZE`].
pub fn block_from(data: &[u8]) -> BlockBuf {
    assert!(
        data.len() <= BLOCK_SIZE,
        "payload of {} bytes exceeds block size {BLOCK_SIZE}",
        data.len()
    );
    if data.len() == BLOCK_SIZE {
        return Bytes::copy_from_slice(data);
    }
    let mut buf = Vec::with_capacity(BLOCK_SIZE);
    buf.extend_from_slice(data);
    buf.resize(BLOCK_SIZE, 0);
    Bytes::from(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hash_is_stable_and_discriminating() {
        let a = content_hash(b"hello");
        let b = content_hash(b"hello");
        let c = content_hash(b"hellp");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
    }

    /// Byte-serial FNV-1a: the definition `content_hash` must match.
    fn fnv1a_reference(data: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn hash_matches_pinned_fingerprints() {
        assert_eq!(
            content_hash(&block_from(&[0x40; 64])),
            0xdd93_bd3a_0705_e325
        );
        assert_eq!(
            content_hash(&block_from(&[0x43; 64])),
            0x5f90_11bd_67f8_32e5
        );
        assert_eq!(content_hash(&[0u8; BLOCK_SIZE]), 0xb93a_0c83_ce3b_6325);
        assert_eq!(content_hash(b"hello"), 0xa430_d846_80aa_bd0b);
    }

    /// A zero-based or random buffer of `len` bytes with zero runs cut into
    /// it at arbitrary offsets (so they start and end mid-chunk and span
    /// chunk boundaries) and single non-zero bytes poked at the first,
    /// second, second-to-last or last byte of a 64-byte chunk.
    fn hash_input() -> impl Strategy<Value = Vec<u8>> {
        (
            0usize..=9000,
            any::<bool>(),
            any::<u64>(),
            prop::collection::vec((0usize..9000, 0usize..600), 0..4),
            prop::collection::vec((0usize..141, 0usize..4, 1u8..=255), 0..6),
        )
            .prop_map(|(len, random, seed, zero_runs, pokes)| {
                let mut data = vec![0u8; len];
                if random {
                    let mut x = seed;
                    for b in &mut data {
                        x = x
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        *b = (x >> 56) as u8;
                    }
                }
                for (start, run) in zero_runs {
                    let start = start.min(len);
                    let end = (start + run).min(len);
                    data[start..end].fill(0);
                }
                for (chunk, edge, byte) in pokes {
                    let at = chunk * 64 + [0, 1, 62, 63][edge];
                    if let Some(b) = data.get_mut(at) {
                        *b = byte;
                    }
                }
                data
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn hash_equals_byte_serial_fnv1a(data in hash_input()) {
            prop_assert_eq!(content_hash(&data), fnv1a_reference(&data));
        }
    }

    #[test]
    fn block_from_pads_to_block_size() {
        let b = block_from(b"abc");
        assert_eq!(b.len(), BLOCK_SIZE);
        assert_eq!(&b[..3], b"abc");
        assert!(b[3..].iter().all(|&x| x == 0));
    }

    #[test]
    fn block_from_full_block_is_copied_verbatim() {
        let data = vec![7u8; BLOCK_SIZE];
        let b = block_from(&data);
        assert_eq!(&b[..], &data[..]);
    }

    #[test]
    #[should_panic(expected = "exceeds block size")]
    fn block_from_rejects_oversize() {
        let data = vec![0u8; BLOCK_SIZE + 1];
        let _ = block_from(&data);
    }

    #[test]
    fn volref_display() {
        let v = VolRef::new(ArrayId(1), VolumeId(42));
        assert_eq!(v.to_string(), "a1/v42");
    }
}
