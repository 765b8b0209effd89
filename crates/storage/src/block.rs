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
pub fn content_hash(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
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

    #[test]
    fn hash_is_stable_and_discriminating() {
        let a = content_hash(b"hello");
        let b = content_hash(b"hello");
        let c = content_hash(b"hellp");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
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
