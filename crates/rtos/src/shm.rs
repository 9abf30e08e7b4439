//! Named shared-memory segments (the simulated `RTAI.SHM` interface).
//!
//! Real-time components in the paper exchange periodic data through RTAI
//! shared memory identified by short names (the underlying OS limits task
//! and IPC object names to six characters — the descriptor format inherits
//! that restriction). A segment has a fixed element type and element count;
//! reads and writes are whole-buffer and bounds-checked.

use crate::error::{IpcError, NameError};
use crate::task::ObjName;
use std::collections::HashMap;

/// Element type carried by a segment or mailbox (`type` attribute of a
/// descriptor port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 4-byte little-endian signed integers.
    Integer,
    /// Raw bytes.
    Byte,
}

impl DataType {
    /// Size of one element in bytes.
    pub const fn element_size(self) -> usize {
        match self {
            DataType::Integer => 4,
            DataType::Byte => 1,
        }
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataType::Integer => write!(f, "Integer"),
            DataType::Byte => write!(f, "Byte"),
        }
    }
}

impl std::str::FromStr for DataType {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "integer" | "int" => Ok(DataType::Integer),
            "byte" | "bytes" => Ok(DataType::Byte),
            other => Err(format!("unknown data type `{other}`")),
        }
    }
}

/// One named shared-memory segment.
#[derive(Debug, Clone)]
pub struct ShmSegment {
    name: ObjName,
    data_type: DataType,
    elements: usize,
    data: Vec<u8>,
    writes: u64,
    reads: u64,
    /// Reference count of attached tasks; the segment is reclaimed when it
    /// drops to zero (RTAI `rt_shm_alloc`/`rt_shm_free` semantics).
    attached: usize,
}

impl ShmSegment {
    fn new(name: ObjName, data_type: DataType, elements: usize) -> Self {
        let bytes = data_type.element_size() * elements;
        ShmSegment {
            name,
            data_type,
            elements,
            data: vec![0; bytes],
            writes: 0,
            reads: 0,
            attached: 1,
        }
    }

    /// The segment name.
    pub fn name(&self) -> &ObjName {
        &self.name
    }

    /// Element type of the segment.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }

    /// Number of elements.
    pub fn elements(&self) -> usize {
        self.elements
    }

    /// Total size in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Number of completed writes.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Number of completed reads.
    pub fn read_count(&self) -> u64 {
        self.reads
    }
}

/// Registry of all live segments inside a kernel.
#[derive(Debug, Default)]
pub struct ShmRegistry {
    segments: HashMap<ObjName, ShmSegment>,
}

impl ShmRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a segment, or attaches to an existing one.
    ///
    /// Mirrors `rt_shm_alloc`: allocating an existing name attaches to the
    /// same memory, but only if type and size agree — a mismatch is a wiring
    /// bug the kernel refuses.
    ///
    /// # Errors
    ///
    /// [`IpcError::Incompatible`] if a segment with the same name but a
    /// different shape already exists; [`IpcError::ZeroSize`] for an empty
    /// segment request.
    pub fn alloc(
        &mut self,
        name: &str,
        data_type: DataType,
        elements: usize,
    ) -> Result<(), IpcError> {
        let name = ObjName::new(name).map_err(IpcError::BadName)?;
        if elements == 0 {
            return Err(IpcError::ZeroSize(name));
        }
        match self.segments.get_mut(&name) {
            Some(seg) => {
                if seg.data_type != data_type || seg.elements != elements {
                    return Err(IpcError::Incompatible {
                        name,
                        expected: format!("{} x{}", seg.data_type, seg.elements),
                        found: format!("{data_type} x{elements}"),
                    });
                }
                seg.attached += 1;
                Ok(())
            }
            None => {
                self.segments
                    .insert(name, ShmSegment::new(name, data_type, elements));
                Ok(())
            }
        }
    }

    /// Detaches from a segment, freeing it when the last user leaves.
    ///
    /// # Errors
    ///
    /// [`IpcError::NotFound`] if no such segment exists.
    pub fn free(&mut self, name: &str) -> Result<(), IpcError> {
        let name = ObjName::new(name).map_err(IpcError::BadName)?;
        let seg = self
            .segments
            .get_mut(&name)
            .ok_or(IpcError::NotFound(name))?;
        seg.attached -= 1;
        if seg.attached == 0 {
            self.segments.remove(&name);
        }
        Ok(())
    }

    /// Writes the whole buffer into the segment.
    ///
    /// # Errors
    ///
    /// [`IpcError::NotFound`] if the segment does not exist;
    /// [`IpcError::SizeMismatch`] if `buf` is not exactly the segment size.
    pub fn write(&mut self, name: &str, buf: &[u8]) -> Result<(), IpcError> {
        self.write_obj(ObjName::new(name)?, buf)
    }

    /// [`ShmRegistry::write`] for an already validated name.
    pub(crate) fn write_obj(&mut self, name: ObjName, buf: &[u8]) -> Result<(), IpcError> {
        let seg = self
            .segments
            .get_mut(&name)
            .ok_or(IpcError::NotFound(name))?;
        if buf.len() != seg.data.len() {
            return Err(IpcError::SizeMismatch {
                name,
                expected: seg.data.len(),
                found: buf.len(),
            });
        }
        seg.data.copy_from_slice(buf);
        seg.writes += 1;
        Ok(())
    }

    /// Reads the whole segment into a fresh buffer.
    ///
    /// # Errors
    ///
    /// [`IpcError::NotFound`] if the segment does not exist.
    pub fn read(&mut self, name: &str) -> Result<Vec<u8>, IpcError> {
        self.read_obj(ObjName::new(name)?)
    }

    /// [`ShmRegistry::read`] for an already validated name.
    pub(crate) fn read_obj(&mut self, name: ObjName) -> Result<Vec<u8>, IpcError> {
        let seg = self
            .segments
            .get_mut(&name)
            .ok_or(IpcError::NotFound(name))?;
        seg.reads += 1;
        Ok(seg.data.clone())
    }

    /// Clones a segment's current bytes without counting a read. Used by
    /// the kernel's fault-containment journal to snapshot the pre-write
    /// image before a body write goes through.
    pub(crate) fn peek(&self, name: &ObjName) -> Option<Vec<u8>> {
        self.segments.get(name).map(|seg| seg.data.clone())
    }

    /// Reverses one successful [`ShmRegistry::write`]: restores the
    /// snapshot taken by [`ShmRegistry::peek`] and un-counts the write.
    /// Only called by the kernel when rolling back a faulted cycle.
    pub(crate) fn undo_write(&mut self, name: &ObjName, prior: &[u8]) {
        if let Some(seg) = self.segments.get_mut(name) {
            if seg.data.len() == prior.len() {
                seg.data.copy_from_slice(prior);
                seg.writes = seg.writes.saturating_sub(1);
            }
        }
    }

    /// Replaces a segment's bytes without counting a write or a read.
    ///
    /// This is a management-plane operation for the parallel executor's
    /// barrier exchange: when a [`SeqlockCell`] publication from another
    /// worker wins, the local replica is overwritten with the converged
    /// image. Task-visible write counters stay untouched so per-shard
    /// publication detection (`write_count` deltas) keeps working.
    /// Length mismatches are ignored (the replicas were allocated from the
    /// same declaration, so they cannot differ in a well-formed workload).
    pub fn overwrite(&mut self, name: &str, bytes: &[u8]) {
        let Ok(name) = ObjName::new(name) else {
            return;
        };
        if let Some(seg) = self.segments.get_mut(&name) {
            if seg.data.len() == bytes.len() {
                seg.data.copy_from_slice(bytes);
            }
        }
    }

    /// Looks up a segment by name.
    pub fn get(&self, name: &str) -> Option<&ShmSegment> {
        let name = ObjName::new(name).ok()?;
        self.segments.get(&name)
    }

    /// Number of live segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when no segments are allocated.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Iterates over live segments.
    pub fn iter(&self) -> impl Iterator<Item = &ShmSegment> {
        self.segments.values()
    }
}

/// Validates a port/segment/task name against the 6-character OS limit.
///
/// Exposed for descriptor validation in higher layers.
pub fn validate_obj_name(name: &str) -> Result<(), NameError> {
    ObjName::new(name).map(|_| ())
}

/// A lock-free single-slot publication cell for cross-thread SHM exchange.
///
/// The parallel executor gives every worker thread its own [`ShmRegistry`]
/// replica; at each epoch barrier a worker that wrote a shared segment
/// publishes the segment image through one of these cells, and every other
/// worker reads the winning image back into its replica (via
/// [`ShmRegistry::overwrite`]).
///
/// The cell is a classic seqlock over a byte payload:
///
/// * `seq` is odd while a writer is mid-copy; readers retry until they
///   observe the same even value before and after copying the payload out.
/// * `version` orders competing publications deterministically. The
///   executor packs it as `(epoch << 32) | (writer_rank + 1)` (see
///   [`SeqlockCell::pack_version`]), so within one epoch the
///   highest-ranked writer wins no matter which thread reaches the cell
///   first — the converged value never depends on OS scheduling.
/// * The payload lives in `Box<[AtomicU8]>` and is copied byte-atomically,
///   so the whole cell is safe code: a torn read is *detected* (seq
///   mismatch) rather than being undefined behaviour.
///
/// Version `0` means "never published".
#[derive(Debug)]
pub struct SeqlockCell {
    seq: std::sync::atomic::AtomicU64,
    version: std::sync::atomic::AtomicU64,
    len: std::sync::atomic::AtomicUsize,
    data: Box<[std::sync::atomic::AtomicU8]>,
}

impl SeqlockCell {
    /// Creates a cell able to hold payloads up to `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize};
        let data: Box<[AtomicU8]> = (0..capacity).map(|_| AtomicU8::new(0)).collect();
        SeqlockCell {
            seq: AtomicU64::new(0),
            version: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            data,
        }
    }

    /// Packs a deterministic publication version: epochs dominate, and
    /// within an epoch the higher writer rank wins. `rank` is offset by 1
    /// so version `0` stays reserved for "never published".
    pub fn pack_version(epoch: u64, writer_rank: u32) -> u64 {
        (epoch << 32) | (u64::from(writer_rank) + 1)
    }

    /// Maximum payload size in bytes.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Publishes `bytes` under `version` if it is newer than what the cell
    /// holds. Returns `true` if this call's payload became the cell value.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the cell capacity.
    pub fn publish(&self, version: u64, bytes: &[u8]) -> bool {
        use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
        assert!(
            bytes.len() <= self.data.len(),
            "SeqlockCell payload {} exceeds capacity {}",
            bytes.len(),
            self.data.len()
        );
        loop {
            if self.version.load(Acquire) >= version {
                return false;
            }
            let seq = self.seq.load(Acquire);
            if seq & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            if self
                .seq
                .compare_exchange(seq, seq + 1, AcqRel, Acquire)
                .is_err()
            {
                continue;
            }
            // Write lock held (seq is odd). A competing writer may have
            // published a higher version before we took the lock.
            if self.version.load(Acquire) >= version {
                self.seq.store(seq + 2, Release);
                return false;
            }
            for (slot, byte) in self.data.iter().zip(bytes) {
                slot.store(*byte, Relaxed);
            }
            self.len.store(bytes.len(), Relaxed);
            self.version.store(version, Release);
            self.seq.store(seq + 2, Release);
            return true;
        }
    }

    /// Reads the current payload, retrying across concurrent writers.
    /// Returns `None` if nothing was ever published.
    pub fn read(&self) -> Option<(u64, Vec<u8>)> {
        use std::sync::atomic::Ordering::{Acquire, Relaxed};
        loop {
            let before = self.seq.load(Acquire);
            if before & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let version = self.version.load(Acquire);
            if version == 0 {
                return None;
            }
            let len = self.len.load(Relaxed).min(self.data.len());
            let mut out = vec![0u8; len];
            for (byte, slot) in out.iter_mut().zip(self.data.iter()) {
                *byte = slot.load(Relaxed);
            }
            if self.seq.load(Acquire) == before {
                return Some((version, out));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_char_names_are_accepted() {
        let mut reg = ShmRegistry::new();
        reg.alloc("images", DataType::Byte, 4).unwrap();
        reg.write("images", &[1, 2, 3, 4]).unwrap();
        assert_eq!(reg.read("images").unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(reg.get("images").unwrap().write_count(), 1);
        assert_eq!(reg.get("images").unwrap().read_count(), 1);
    }

    #[test]
    fn long_names_are_rejected() {
        let mut reg = ShmRegistry::new();
        let err = reg.alloc("toolongname", DataType::Byte, 1).unwrap_err();
        assert!(matches!(err, IpcError::BadName(_)));
    }

    #[test]
    fn integer_segment_size_is_element_scaled() {
        let mut reg = ShmRegistry::new();
        reg.alloc("xysize", DataType::Integer, 3).unwrap();
        assert_eq!(reg.get("xysize").unwrap().byte_len(), 12);
        let err = reg.write("xysize", &[0u8; 4]).unwrap_err();
        assert!(matches!(err, IpcError::SizeMismatch { .. }));
    }

    #[test]
    fn double_alloc_attaches_when_compatible() {
        let mut reg = ShmRegistry::new();
        reg.alloc("data", DataType::Byte, 8).unwrap();
        reg.alloc("data", DataType::Byte, 8).unwrap();
        assert_eq!(reg.len(), 1);
        // First free keeps it alive, second reclaims.
        reg.free("data").unwrap();
        assert_eq!(reg.len(), 1);
        reg.free("data").unwrap();
        assert!(reg.is_empty());
    }

    #[test]
    fn incompatible_realloc_is_refused() {
        let mut reg = ShmRegistry::new();
        reg.alloc("data", DataType::Byte, 8).unwrap();
        let err = reg.alloc("data", DataType::Integer, 8).unwrap_err();
        assert!(matches!(err, IpcError::Incompatible { .. }));
        let err = reg.alloc("data", DataType::Byte, 9).unwrap_err();
        assert!(matches!(err, IpcError::Incompatible { .. }));
    }

    #[test]
    fn zero_size_is_refused() {
        let mut reg = ShmRegistry::new();
        assert!(matches!(
            reg.alloc("data", DataType::Byte, 0),
            Err(IpcError::ZeroSize(_))
        ));
    }

    #[test]
    fn missing_segment_errors() {
        let mut reg = ShmRegistry::new();
        assert!(matches!(reg.read("nosuch"), Err(IpcError::NotFound(_))));
        assert!(matches!(
            reg.write("nosuch", &[]),
            Err(IpcError::NotFound(_))
        ));
        assert!(matches!(reg.free("nosuch"), Err(IpcError::NotFound(_))));
    }

    #[test]
    fn data_type_parsing() {
        assert_eq!("Integer".parse::<DataType>().unwrap(), DataType::Integer);
        assert_eq!("byte".parse::<DataType>().unwrap(), DataType::Byte);
        assert!("float".parse::<DataType>().is_err());
    }

    #[test]
    fn overwrite_replaces_bytes_without_counting() {
        let mut reg = ShmRegistry::new();
        reg.alloc("seg", DataType::Byte, 4).unwrap();
        reg.write("seg", &[1, 2, 3, 4]).unwrap();
        reg.overwrite("seg", &[9, 9, 9, 9]);
        let seg = reg.get("seg").unwrap();
        assert_eq!(seg.write_count(), 1);
        assert_eq!(reg.read("seg").unwrap(), vec![9, 9, 9, 9]);
        // Length mismatches and unknown names are silently ignored.
        reg.overwrite("seg", &[1]);
        reg.overwrite("nosuch", &[1, 2, 3, 4]);
        assert_eq!(reg.read("seg").unwrap(), vec![9, 9, 9, 9]);
    }

    #[test]
    fn seqlock_empty_then_publish_then_read() {
        let cell = SeqlockCell::new(8);
        assert_eq!(cell.read(), None);
        let v1 = SeqlockCell::pack_version(1, 0);
        assert!(cell.publish(v1, &[1, 2, 3]));
        assert_eq!(cell.read(), Some((v1, vec![1, 2, 3])));
    }

    #[test]
    fn seqlock_highest_version_wins_regardless_of_order() {
        let cell = SeqlockCell::new(4);
        let low = SeqlockCell::pack_version(1, 0);
        let high = SeqlockCell::pack_version(1, 3);
        assert!(cell.publish(high, &[7]));
        // A lower version arriving later is rejected.
        assert!(!cell.publish(low, &[1]));
        assert_eq!(cell.read(), Some((high, vec![7])));
        // A later epoch beats any rank from an earlier one.
        let next = SeqlockCell::pack_version(2, 0);
        assert!(cell.publish(next, &[2, 2]));
        assert_eq!(cell.read(), Some((next, vec![2, 2])));
    }

    #[test]
    fn seqlock_concurrent_publishers_converge_deterministically() {
        use std::sync::Arc;
        let cell = Arc::new(SeqlockCell::new(8));
        std::thread::scope(|scope| {
            for rank in 0..4u32 {
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    let payload = [rank as u8; 8];
                    cell.publish(SeqlockCell::pack_version(1, rank), &payload);
                });
            }
        });
        // Whatever the interleaving, rank 3 holds the cell afterwards.
        let (version, bytes) = cell.read().unwrap();
        assert_eq!(version, SeqlockCell::pack_version(1, 3));
        assert_eq!(bytes, vec![3u8; 8]);
    }

    #[test]
    fn seqlock_reader_never_observes_torn_payloads() {
        use std::sync::Arc;
        let cell = Arc::new(SeqlockCell::new(16));
        std::thread::scope(|scope| {
            let writer = Arc::clone(&cell);
            scope.spawn(move || {
                for epoch in 1..200u64 {
                    let byte = (epoch % 251) as u8;
                    writer.publish(SeqlockCell::pack_version(epoch, 0), &[byte; 16]);
                }
            });
            let reader = Arc::clone(&cell);
            scope.spawn(move || {
                for _ in 0..2000 {
                    if let Some((_, bytes)) = reader.read() {
                        // Every published payload is uniform; a torn read
                        // would mix bytes from two epochs.
                        assert!(bytes.iter().all(|b| *b == bytes[0]));
                    }
                }
            });
        });
    }
}
