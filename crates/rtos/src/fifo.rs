//! Byte-stream FIFOs (the simulated `RTAI.FIFO` interface).
//!
//! RTAI's third IPC primitive next to shared memory and mailboxes:
//! a named, bounded byte stream (`rtf_create` / `rtf_put` / `rtf_get`).
//! Where SHM carries *state* (last value wins) and mailboxes carry
//! *messages* (whole or not at all), a FIFO carries a *stream*: writes
//! append as many bytes as fit, reads drain up to a requested count —
//! both strictly non-blocking, both possibly partial. The paper's
//! prototype supports only SHM and mailboxes; FIFOs are provided as the
//! documented extension the future work asks for ("limited communication
//! support between real-time tasks").

use crate::error::IpcError;
use crate::task::{NameMap, ObjName};
use std::collections::VecDeque;

/// One named byte-stream FIFO.
#[derive(Debug, Clone)]
pub struct Fifo {
    name: ObjName,
    capacity: usize,
    buffer: VecDeque<u8>,
    written: u64,
    read: u64,
    truncated_writes: u64,
}

impl Fifo {
    fn new(name: ObjName, capacity: usize) -> Self {
        Fifo {
            name,
            capacity,
            buffer: VecDeque::new(),
            written: 0,
            read: 0,
            truncated_writes: 0,
        }
    }

    /// The FIFO name.
    pub fn name(&self) -> &ObjName {
        &self.name
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Total bytes accepted.
    pub fn written_bytes(&self) -> u64 {
        self.written
    }

    /// Total bytes drained.
    pub fn read_bytes(&self) -> u64 {
        self.read
    }

    /// Writes that could not be accepted in full.
    pub fn truncated_writes(&self) -> u64 {
        self.truncated_writes
    }
}

/// Registry of all FIFOs inside a kernel.
#[derive(Debug, Default)]
pub struct FifoRegistry {
    fifos: NameMap<Fifo>,
}

impl FifoRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a FIFO (`rtf_create`); attaching to an existing one with the
    /// same capacity is idempotent.
    ///
    /// # Errors
    ///
    /// [`IpcError::Incompatible`] on capacity mismatch,
    /// [`IpcError::ZeroSize`] for capacity 0.
    pub fn create(&mut self, name: &str, capacity: usize) -> Result<(), IpcError> {
        let name = ObjName::new(name).map_err(IpcError::BadName)?;
        if capacity == 0 {
            return Err(IpcError::ZeroSize(name));
        }
        match self.fifos.get(&name) {
            Some(f) if f.capacity != capacity => Err(IpcError::Incompatible {
                name,
                expected: format!("capacity {}", f.capacity),
                found: format!("capacity {capacity}"),
            }),
            Some(_) => Ok(()),
            None => {
                self.fifos.insert(name, Fifo::new(name, capacity));
                Ok(())
            }
        }
    }

    /// Destroys a FIFO, dropping buffered bytes (`rtf_destroy`).
    ///
    /// # Errors
    ///
    /// [`IpcError::NotFound`] if no such FIFO exists.
    pub fn destroy(&mut self, name: &str) -> Result<(), IpcError> {
        let name = ObjName::new(name).map_err(IpcError::BadName)?;
        self.fifos
            .remove(&name)
            .map(|_| ())
            .ok_or(IpcError::NotFound(name))
    }

    /// Non-blocking append (`rtf_put`): accepts as many bytes as fit,
    /// returning how many were taken.
    ///
    /// # Errors
    ///
    /// [`IpcError::NotFound`] if no such FIFO exists.
    pub fn put(&mut self, name: &str, data: &[u8]) -> Result<usize, IpcError> {
        self.put_obj(ObjName::new(name)?, data)
    }

    /// [`FifoRegistry::put`] for an already validated name.
    pub(crate) fn put_obj(&mut self, name: ObjName, data: &[u8]) -> Result<usize, IpcError> {
        let fifo = self.fifos.get_mut(&name).ok_or(IpcError::NotFound(name))?;
        let room = fifo.capacity - fifo.buffer.len();
        let taken = room.min(data.len());
        fifo.buffer.extend(&data[..taken]);
        fifo.written += taken as u64;
        if taken < data.len() {
            fifo.truncated_writes += 1;
        }
        Ok(taken)
    }

    /// Non-blocking drain (`rtf_get`): returns up to `max` bytes.
    ///
    /// # Errors
    ///
    /// [`IpcError::NotFound`] if no such FIFO exists.
    pub fn get(&mut self, name: &str, max: usize) -> Result<Vec<u8>, IpcError> {
        self.get_obj(ObjName::new(name)?, max)
    }

    /// [`FifoRegistry::get`] for an already validated name.
    pub(crate) fn get_obj(&mut self, name: ObjName, max: usize) -> Result<Vec<u8>, IpcError> {
        let fifo = self.fifos.get_mut(&name).ok_or(IpcError::NotFound(name))?;
        let take = max.min(fifo.buffer.len());
        let (front, back) = fifo.buffer.as_slices();
        let from_front = take.min(front.len());
        let mut out = Vec::with_capacity(take);
        out.extend_from_slice(&front[..from_front]);
        out.extend_from_slice(&back[..take - from_front]);
        fifo.buffer.drain(..take);
        fifo.read += take as u64;
        Ok(out)
    }

    /// Reverses one [`FifoRegistry::put`]: truncates the accepted bytes off
    /// the tail and un-counts them (and the truncation, if the write was
    /// partial). Only called by the kernel when rolling back a faulted
    /// cycle; the tail bytes are necessarily the journaled ones because
    /// body execution is atomic at the dispatch instant.
    pub(crate) fn undo_put(&mut self, name: &ObjName, accepted: usize, truncated: bool) {
        if let Some(fifo) = self.fifos.get_mut(name) {
            let keep = fifo.buffer.len().saturating_sub(accepted);
            fifo.buffer.truncate(keep);
            fifo.written = fifo.written.saturating_sub(accepted as u64);
            if truncated {
                fifo.truncated_writes = fifo.truncated_writes.saturating_sub(1);
            }
        }
    }

    /// Looks up a FIFO by name.
    pub fn lookup(&self, name: &str) -> Option<&Fifo> {
        let name = ObjName::new(name).ok()?;
        self.fifos.get(&name)
    }

    /// Number of live FIFOs.
    pub fn len(&self) -> usize {
        self.fifos.len()
    }

    /// True when no FIFOs exist.
    pub fn is_empty(&self) -> bool {
        self.fifos.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_semantics_roundtrip() {
        let mut reg = FifoRegistry::new();
        reg.create("stream", 8).unwrap();
        assert_eq!(reg.put("stream", b"hello").unwrap(), 5);
        assert_eq!(reg.put("stream", b"world").unwrap(), 3); // only 3 fit
        let fifo = reg.lookup("stream").unwrap();
        assert_eq!(fifo.len(), 8);
        assert_eq!(fifo.truncated_writes(), 1);
        // Reads drain in order, possibly partially.
        assert_eq!(reg.get("stream", 6).unwrap(), b"hellow");
        assert_eq!(reg.get("stream", 100).unwrap(), b"or");
        assert!(reg.get("stream", 10).unwrap().is_empty());
    }

    #[test]
    fn create_is_idempotent_with_matching_capacity() {
        let mut reg = FifoRegistry::new();
        reg.create("f", 16).unwrap();
        reg.create("f", 16).unwrap();
        assert_eq!(reg.len(), 1);
        assert!(matches!(
            reg.create("f", 32),
            Err(IpcError::Incompatible { .. })
        ));
        assert!(matches!(reg.create("g", 0), Err(IpcError::ZeroSize(_))));
    }

    #[test]
    fn destroy_and_missing_errors() {
        let mut reg = FifoRegistry::new();
        reg.create("f", 4).unwrap();
        reg.put("f", b"ab").unwrap();
        reg.destroy("f").unwrap();
        assert!(reg.is_empty());
        assert!(matches!(reg.put("f", b"x"), Err(IpcError::NotFound(_))));
        assert!(matches!(reg.get("f", 1), Err(IpcError::NotFound(_))));
        assert!(matches!(reg.destroy("f"), Err(IpcError::NotFound(_))));
    }

    #[test]
    fn counters_track_traffic() {
        let mut reg = FifoRegistry::new();
        reg.create("f", 100).unwrap();
        reg.put("f", &[1; 30]).unwrap();
        reg.get("f", 10).unwrap();
        let f = reg.lookup("f").unwrap();
        assert_eq!(f.written_bytes(), 30);
        assert_eq!(f.read_bytes(), 10);
        assert_eq!(f.len(), 20);
    }
}
