//! Named shared-memory segments (the simulated `RTAI.SHM` interface).
//!
//! Real-time components in the paper exchange periodic data through RTAI
//! shared memory identified by short names (the underlying OS limits task
//! and IPC object names to six characters — the descriptor format inherits
//! that restriction). A segment has a fixed element type and element count;
//! reads and writes are whole-buffer and bounds-checked.

use crate::error::{IpcError, NameError};
use crate::task::{NameMap, ObjName};

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
    segments: NameMap<ShmSegment>,
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
        self.write_obj(ObjName::new(name)?, buf, None)
    }

    /// [`ShmRegistry::write`] for an already validated name. When the
    /// write goes through and `prior` is given, the segment's pre-write
    /// bytes are appended to it (the kernel's fault-containment journal).
    pub(crate) fn write_obj(
        &mut self,
        name: ObjName,
        buf: &[u8],
        prior: Option<&mut Vec<u8>>,
    ) -> Result<(), IpcError> {
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
        if let Some(prior) = prior {
            prior.extend_from_slice(&seg.data);
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

    /// Reverses one successful [`ShmRegistry::write`]: restores the
    /// pre-write bytes saved by `write_obj` and un-counts the write.
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
    /// barrier exchange: when another worker's outbox holds the winning
    /// image of a segment, the local replica is overwritten with it.
    /// Task-visible write counters stay untouched so per-shard write
    /// detection (`write_count` deltas) keeps working.
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
}
