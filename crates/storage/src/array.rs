//! The storage array: volumes, snapshots, service-time model, failure state.
//!
//! One [`StorageArray`] stands in for a Hitachi VSP G370 in the paper's
//! testbed. The control plane (volume/snapshot lifecycle) is synchronous;
//! the data plane charges service time through per-volume FIFO stations and
//! is driven by the replication engine and host-port functions in
//! [`crate::engine`].

use std::collections::BTreeMap;

use tsuru_sim::{ServiceStation, SimDuration, SimTime};


use crate::block::{ArrayId, BlockBuf, SnapshotId, VolumeId};
use crate::pool::{Pool, PoolId};
use crate::snapshot::Snapshot;
use crate::volume::{Volume, VolumeRole};

/// Capacity of the default pool: effectively unbounded, so deployments
/// that do not model capacity pressure are unaffected.
pub const DEFAULT_POOL_CAPACITY: u64 = 1 << 40;

/// Service-time profile of an array's data path.
#[derive(Debug, Clone)]
pub struct ArrayPerf {
    /// Cache-hit write service time (host write → ack-ready).
    pub write_service: SimDuration,
    /// Read service time.
    pub read_service: SimDuration,
    /// Applying one replicated journal entry at the secondary.
    pub apply_service: SimDuration,
    /// Extra cost of a copy-on-write block preservation.
    pub cow_penalty: SimDuration,
}

impl Default for ArrayPerf {
    fn default() -> Self {
        ArrayPerf {
            write_service: SimDuration::from_micros(100),
            read_service: SimDuration::from_micros(200),
            apply_service: SimDuration::from_micros(50),
            cow_penalty: SimDuration::from_micros(30),
        }
    }
}

/// Why a write was rejected by the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteError {
    /// The whole array is failed (site disaster).
    ArrayFailed,
    /// The volume is a replication secondary and fenced against host writes.
    VolumeFenced,
    /// The volume does not exist (deleted under I/O).
    NoSuchVolume,
    /// The volume's thin-provisioning pool has no capacity for a new block.
    PoolExhausted,
}

/// A virtualized block-storage array.
#[derive(Debug)]
pub struct StorageArray {
    id: ArrayId,
    name: String,
    perf: ArrayPerf,
    volumes: BTreeMap<VolumeId, Volume>,
    /// Active snapshots, and which base volume each belongs to.
    snapshots: BTreeMap<SnapshotId, Snapshot>,
    by_base: BTreeMap<VolumeId, Vec<SnapshotId>>,
    stations: BTreeMap<VolumeId, ServiceStation>,
    pools: Vec<Pool>,
    vol_pool: BTreeMap<VolumeId, PoolId>,
    next_volume: u64,
    next_snapshot: u64,
    next_snap_group: u64,
    failed_at: Option<SimTime>,
    cow_saves: u64,
}

impl StorageArray {
    /// A new, empty array.
    pub fn new(id: ArrayId, name: impl Into<String>, perf: ArrayPerf) -> Self {
        StorageArray {
            id,
            name: name.into(),
            perf,
            volumes: BTreeMap::new(),
            snapshots: BTreeMap::new(),
            by_base: BTreeMap::new(),
            stations: BTreeMap::new(),
            pools: vec![Pool::new(PoolId(0), "default", DEFAULT_POOL_CAPACITY)],
            vol_pool: BTreeMap::new(),
            next_volume: 0,
            next_snapshot: 0,
            next_snap_group: 0,
            failed_at: None,
            cow_saves: 0,
        }
    }

    /// Array id.
    pub fn id(&self) -> ArrayId {
        self.id
    }

    /// Array name (e.g. `vsp-main`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The service-time profile.
    pub fn perf(&self) -> &ArrayPerf {
        &self.perf
    }

    /// Change the service-time profile mid-run (models component
    /// degradation — a failing disk shelf, cache pressure).
    pub fn set_perf(&mut self, perf: ArrayPerf) {
        self.perf = perf;
    }

    /// Has this array suffered a site failure?
    pub fn is_failed(&self) -> bool {
        self.failed_at.is_some()
    }

    /// When the array failed, if it did.
    pub fn failed_at(&self) -> Option<SimTime> {
        self.failed_at
    }

    /// Mark the array failed (site disaster) as of `now`: all subsequent
    /// host and replication I/O is rejected, and replication frames that
    /// had not finished leaving the site by `now` are discarded by the
    /// receiving engine.
    pub fn fail(&mut self, now: SimTime) {
        self.failed_at.get_or_insert(now);
    }

    /// Bring a failed array back (used by recovery drills).
    pub fn recover(&mut self) {
        self.failed_at = None;
    }

    /// Total copy-on-write preservations performed (E4 metric).
    pub fn cow_saves(&self) -> u64 {
        self.cow_saves
    }

    // ----- pools -------------------------------------------------------------

    /// Create a thin-provisioning pool.
    pub fn create_pool(&mut self, name: impl Into<String>, capacity_blocks: u64) -> PoolId {
        let id = PoolId(self.pools.len() as u32);
        self.pools.push(Pool::new(id, name, capacity_blocks));
        id
    }

    /// Borrow a pool.
    pub fn pool(&self, id: PoolId) -> &Pool {
        &self.pools[id.0 as usize]
    }

    /// All pools, in id order.
    pub fn pools(&self) -> &[Pool] {
        &self.pools
    }

    /// The pool backing a volume.
    pub fn pool_of(&self, vol: VolumeId) -> PoolId {
        self.vol_pool.get(&vol).copied().unwrap_or(PoolId(0))
    }

    // ----- volume lifecycle ------------------------------------------------

    /// Create a volume of `size_blocks` blocks in the default pool.
    pub fn create_volume(&mut self, name: impl Into<String>, size_blocks: u64) -> VolumeId {
        self.create_volume_in_pool(name, size_blocks, PoolId(0))
    }

    /// Create a thin volume backed by a specific pool.
    pub fn create_volume_in_pool(
        &mut self,
        name: impl Into<String>,
        size_blocks: u64,
        pool: PoolId,
    ) -> VolumeId {
        assert!((pool.0 as usize) < self.pools.len(), "unknown pool");
        let id = VolumeId(self.next_volume);
        self.next_volume += 1;
        self.volumes.insert(id, Volume::new(id, name, size_blocks));
        self.stations.insert(id, ServiceStation::new());
        self.vol_pool.insert(id, pool);
        id
    }

    /// Delete a volume and any snapshots based on it, releasing the pool
    /// capacity both held.
    pub fn delete_volume(&mut self, id: VolumeId) {
        let pool = self.pool_of(id);
        if let Some(v) = self.volumes.remove(&id) {
            self.pools[pool.0 as usize].release(v.allocated_blocks() as u64);
        }
        self.stations.remove(&id);
        self.vol_pool.remove(&id);
        if let Some(snaps) = self.by_base.remove(&id) {
            for s in snaps {
                if let Some(snap) = self.snapshots.remove(&s) {
                    self.pools[pool.0 as usize].release(snap.saved_blocks() as u64);
                }
            }
        }
    }

    /// Borrow a volume.
    ///
    /// # Panics
    /// Panics on an unknown id; ids come from [`StorageArray::create_volume`].
    pub fn volume(&self, id: VolumeId) -> &Volume {
        self.volumes
            .get(&id)
            .expect("invariant: VolumeId is only minted by create_volume")
    }

    /// Mutably borrow a volume (control-plane use; data-plane writes must go
    /// through [`StorageArray::write_block`] for COW bookkeeping).
    pub fn volume_mut(&mut self, id: VolumeId) -> &mut Volume {
        self.volumes
            .get_mut(&id)
            .expect("invariant: VolumeId is only minted by create_volume")
    }

    /// Does the volume exist?
    pub fn has_volume(&self, id: VolumeId) -> bool {
        self.volumes.contains_key(&id)
    }

    /// Ids of all volumes, sorted.
    pub fn volume_ids(&self) -> Vec<VolumeId> {
        let mut v: Vec<_> = self.volumes.keys().copied().collect();
        v.sort_unstable();
        v
    }

    // ----- data plane ------------------------------------------------------

    /// Admit an operation of `service` duration on `vol`'s FIFO station at
    /// `now`, returning the completion instant.
    pub fn admit(&mut self, vol: VolumeId, now: SimTime, service: SimDuration) -> SimTime {
        self.stations
            .get_mut(&vol)
            .expect("invariant: every volume gets a station at create_volume")
            .admit(now, service)
    }

    /// Validate that a host write to `vol` at `lba` is currently allowed.
    /// A write that would allocate a new thin block is refused when the
    /// backing pool is exhausted.
    pub fn check_host_write(&mut self, vol: VolumeId, lba: u64) -> Result<(), WriteError> {
        if self.is_failed() {
            return Err(WriteError::ArrayFailed);
        }
        match self.volumes.get(&vol) {
            None => Err(WriteError::NoSuchVolume),
            Some(v) if v.role() == VolumeRole::Secondary => Err(WriteError::VolumeFenced),
            Some(v) => {
                let allocates = lba < v.size_blocks() && v.read(lba).is_none();
                let pool = self.pool_of(vol);
                let p = self
                    .pools
                    .get_mut(pool.0 as usize)
                    .expect("invariant: PoolId is only minted by add_pool");
                if allocates && !p.has_room(1) {
                    p.count_rejection();
                    return Err(WriteError::PoolExhausted);
                }
                Ok(())
            }
        }
    }

    /// How many active snapshots would need a copy-on-write preservation if
    /// `lba` on `vol` were overwritten now (pre-charge for service time).
    pub fn cow_would_save(&self, vol: VolumeId, lba: u64) -> u32 {
        self.by_base
            .get(&vol)
            .map(|snaps| {
                snaps
                    .iter()
                    .filter(|sid| {
                        self.snapshots
                            .get(sid)
                            .expect("invariant: by_base ids always exist in the snapshot table")
                            .needs_preserve(lba)
                    })
                    .count() as u32
            })
            .unwrap_or(0)
    }

    /// Persist a block write, performing copy-on-write preservation for any
    /// active snapshots of the volume first. Returns how many snapshots
    /// required a COW save (each costs [`ArrayPerf::cow_penalty`]). New
    /// thin-block allocations and data-bearing COW saves charge the pool.
    pub fn write_block(&mut self, vol: VolumeId, lba: u64, data: BlockBuf) -> u32 {
        let mut cow = 0u32;
        let mut cow_with_data = 0u64;
        if let Some(snaps) = self.by_base.get(&vol) {
            if !snaps.is_empty() {
                // Preserve old content before the overwrite lands.
                let old = self
                    .volumes
                    .get(&vol)
                    .expect("invariant: VolumeId is only minted by create_volume")
                    .read(lba)
                    .cloned();
                for sid in snaps {
                    let snap = self.snapshots.get_mut(sid).expect("invariant: by_base ids always exist in the snapshot table");
                    if snap.preserve(lba, old.as_ref()) {
                        cow += 1;
                        if old.is_some() {
                            cow_with_data += 1;
                        }
                    }
                }
            }
        }
        self.cow_saves += cow as u64;
        let previous = self
            .volumes
            .get_mut(&vol)
            .expect("invariant: VolumeId is only minted by create_volume")
            .write(lba, data);
        let newly_allocated = u64::from(previous.is_none());
        let pool = self.pool_of(vol);
        self.pools
            .get_mut(pool.0 as usize)
            .expect("invariant: PoolId is only minted by add_pool")
            .force_charge(newly_allocated + cow_with_data);
        cow
    }

    /// Read a block's current content.
    pub fn read_block(&self, vol: VolumeId, lba: u64) -> Option<&BlockBuf> {
        self.volume(vol).read(lba)
    }

    // ----- snapshots -------------------------------------------------------

    /// Take a copy-on-write snapshot of one volume at `now`.
    pub fn create_snapshot(
        &mut self,
        vol: VolumeId,
        name: impl Into<String>,
        now: SimTime,
    ) -> SnapshotId {
        self.snapshot_internal(vol, name.into(), now, None)
    }

    /// Take snapshots of several volumes atomically (a snapshot group): all
    /// images are of the same instant, so the set is crash-consistent.
    pub fn create_snapshot_group(
        &mut self,
        vols: &[VolumeId],
        name_prefix: &str,
        now: SimTime,
    ) -> Vec<SnapshotId> {
        assert!(!vols.is_empty(), "snapshot group needs at least one volume");
        let group = self.next_snap_group;
        self.next_snap_group += 1;
        vols.iter()
            .map(|&v| {
                let vol_name = self.volume(v).name().to_owned();
                self.snapshot_internal(v, format!("{name_prefix}-{vol_name}"), now, Some(group))
            })
            .collect()
    }

    fn snapshot_internal(
        &mut self,
        vol: VolumeId,
        name: String,
        now: SimTime,
        group: Option<u64>,
    ) -> SnapshotId {
        assert!(self.volumes.contains_key(&vol), "snapshot of unknown volume");
        let id = SnapshotId(self.next_snapshot);
        self.next_snapshot += 1;
        self.snapshots
            .insert(id, Snapshot::new(id, name, vol, now, group));
        self.by_base.entry(vol).or_default().push(id);
        id
    }

    /// Borrow a snapshot.
    pub fn snapshot(&self, id: SnapshotId) -> &Snapshot {
        self.snapshots
            .get(&id)
            .expect("invariant: SnapshotId is only minted by create_snapshot")
    }

    /// Delete a snapshot, releasing its preserved blocks back to the pool.
    pub fn delete_snapshot(&mut self, id: SnapshotId) {
        if let Some(s) = self.snapshots.remove(&id) {
            let pool = self.pool_of(s.base_volume());
            self.pools[pool.0 as usize].release(s.saved_blocks() as u64);
            if let Some(list) = self.by_base.get_mut(&s.base_volume()) {
                list.retain(|&x| x != id);
            }
        }
    }

    /// All snapshot ids, sorted.
    pub fn snapshot_ids(&self) -> Vec<SnapshotId> {
        let mut v: Vec<_> = self.snapshots.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Materialize a snapshot as a new, writable volume (restore/clone).
    pub fn create_volume_from_snapshot(
        &mut self,
        snap: SnapshotId,
        name: impl Into<String>,
    ) -> VolumeId {
        let base = self.snapshot(snap).base_volume();
        let size = self.volume(base).size_blocks();
        let lbas: Vec<u64> = (0..size).collect();
        let blocks: Vec<(u64, BlockBuf)> = lbas
            .into_iter()
            .filter_map(|lba| self.read_snapshot_block(snap, lba).cloned().map(|b| (lba, b)))
            .collect();
        let id = self.create_volume(name, size);
        let vol = self.volume_mut(id);
        for (lba, b) in blocks {
            vol.write(lba, b);
        }
        id
    }

    /// Read a block as of snapshot time.
    pub fn read_snapshot_block(&self, snap: SnapshotId, lba: u64) -> Option<&BlockBuf> {
        let s = self.snapshot(snap);
        let base = s.base_volume();
        s.read_with(lba, |l| self.volume(base).read(l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::block_from;

    fn array() -> StorageArray {
        StorageArray::new(ArrayId(0), "test-array", ArrayPerf::default())
    }

    #[test]
    fn volume_lifecycle() {
        let mut a = array();
        let v1 = a.create_volume("one", 10);
        let v2 = a.create_volume("two", 20);
        assert_ne!(v1, v2);
        assert_eq!(a.volume_ids(), vec![v1, v2]);
        assert_eq!(a.volume(v2).size_blocks(), 20);
        a.delete_volume(v1);
        assert!(!a.has_volume(v1));
        assert_eq!(a.volume_ids(), vec![v2]);
    }

    #[test]
    fn write_gating() {
        let mut a = array();
        let v = a.create_volume("v", 10);
        assert_eq!(a.check_host_write(v, 0), Ok(()));
        a.volume_mut(v).set_role(VolumeRole::Secondary);
        assert_eq!(a.check_host_write(v, 0), Err(WriteError::VolumeFenced));
        a.volume_mut(v).set_role(VolumeRole::Primary);
        a.fail(SimTime::ZERO);
        assert_eq!(a.check_host_write(v, 0), Err(WriteError::ArrayFailed));
        a.recover();
        assert_eq!(
            a.check_host_write(VolumeId(99), 0),
            Err(WriteError::NoSuchVolume)
        );
    }

    #[test]
    fn stations_serialize_per_volume() {
        let mut a = array();
        let v1 = a.create_volume("v1", 10);
        let v2 = a.create_volume("v2", 10);
        let t0 = SimTime::ZERO;
        let d = SimDuration::from_micros(100);
        let a1 = a.admit(v1, t0, d);
        let a2 = a.admit(v1, t0, d);
        let b1 = a.admit(v2, t0, d);
        assert_eq!(a1, t0 + d);
        assert_eq!(a2, t0 + d * 2); // queued behind a1
        assert_eq!(b1, t0 + d); // independent volume, no queueing
    }

    #[test]
    fn snapshot_sees_point_in_time_image() {
        let mut a = array();
        let v = a.create_volume("v", 10);
        a.write_block(v, 0, block_from(b"before"));
        let snap = a.create_snapshot(v, "snap", SimTime::from_secs(1));
        let cow = a.write_block(v, 0, block_from(b"after"));
        assert_eq!(cow, 1);
        let cow2 = a.write_block(v, 0, block_from(b"later"));
        assert_eq!(cow2, 0); // already preserved
        assert_eq!(
            &a.read_snapshot_block(snap, 0).expect("invariant: snapshot exists")[..6],
            b"before"
        );
        assert_eq!(&a.read_block(v, 0).expect("invariant: volume exists")[..5], b"later");
        assert_eq!(a.cow_saves(), 1);
    }

    #[test]
    fn snapshot_of_unwritten_block_reads_through_until_written() {
        let mut a = array();
        let v = a.create_volume("v", 10);
        let snap = a.create_snapshot(v, "s", SimTime::ZERO);
        assert!(a.read_snapshot_block(snap, 3).is_none());
        a.write_block(v, 3, block_from(b"new"));
        // Block was unwritten at snapshot time, so the snapshot still reads
        // as unwritten.
        assert!(a.read_snapshot_block(snap, 3).is_none());
    }

    #[test]
    fn snapshot_group_is_atomic_and_tagged() {
        let mut a = array();
        let v1 = a.create_volume("d1", 10);
        let v2 = a.create_volume("d2", 10);
        a.write_block(v1, 0, block_from(b"x1"));
        a.write_block(v2, 0, block_from(b"x2"));
        let snaps = a.create_snapshot_group(&[v1, v2], "grp", SimTime::from_secs(2));
        assert_eq!(snaps.len(), 2);
        let g0 = a.snapshot(snaps[0]).group();
        let g1 = a.snapshot(snaps[1]).group();
        assert!(g0.is_some());
        assert_eq!(g0, g1);
        // Another group gets a fresh group id.
        let snaps2 = a.create_snapshot_group(&[v1], "grp2", SimTime::from_secs(3));
        assert_ne!(a.snapshot(snaps2[0]).group(), g0);
    }

    #[test]
    fn multiple_snapshots_each_preserve_independently() {
        let mut a = array();
        let v = a.create_volume("v", 10);
        a.write_block(v, 0, block_from(b"gen0"));
        let s0 = a.create_snapshot(v, "s0", SimTime::ZERO);
        a.write_block(v, 0, block_from(b"gen1"));
        let s1 = a.create_snapshot(v, "s1", SimTime::from_secs(1));
        let cow = a.write_block(v, 0, block_from(b"gen2"));
        assert_eq!(cow, 1, "only s1 needs preservation; s0 already saved");
        assert_eq!(&a.read_snapshot_block(s0, 0).expect("invariant: snapshot exists")[..4], b"gen0");
        assert_eq!(&a.read_snapshot_block(s1, 0).expect("invariant: snapshot exists")[..4], b"gen1");
        assert_eq!(&a.read_block(v, 0).expect("invariant: volume exists")[..4], b"gen2");
    }

    #[test]
    fn delete_snapshot_stops_cow() {
        let mut a = array();
        let v = a.create_volume("v", 10);
        a.write_block(v, 0, block_from(b"a"));
        let s = a.create_snapshot(v, "s", SimTime::ZERO);
        a.delete_snapshot(s);
        let cow = a.write_block(v, 0, block_from(b"b"));
        assert_eq!(cow, 0);
        assert_eq!(a.snapshot_ids().len(), 0);
    }

    #[test]
    fn deleting_volume_removes_its_snapshots() {
        let mut a = array();
        let v = a.create_volume("v", 10);
        a.create_snapshot(v, "s", SimTime::ZERO);
        a.delete_volume(v);
        assert!(a.snapshot_ids().is_empty());
    }
}
