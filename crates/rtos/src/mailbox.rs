//! Bounded message mailboxes (the simulated `RTAI.Mailbox` interface).
//!
//! Mailboxes carry discrete messages between tasks and — crucially for the
//! paper's hybrid component model — between the non-real-time management
//! part and the real-time task. All operations are **non-blocking**: a full
//! mailbox rejects the send, an empty one returns `None`. That is the §3.2
//! asynchrony discipline: the RT side must never wait on management traffic.

use crate::error::IpcError;
use crate::task::{NameMap, ObjName};
use std::collections::VecDeque;

/// One bounded mailbox.
#[derive(Debug, Clone)]
pub struct Mailbox {
    name: ObjName,
    capacity: usize,
    queue: VecDeque<Vec<u8>>,
    sent: u64,
    received: u64,
    rejected: u64,
}

impl Mailbox {
    fn new(name: ObjName, capacity: usize) -> Self {
        Mailbox {
            name,
            capacity,
            queue: VecDeque::new(),
            sent: 0,
            received: 0,
            rejected: 0,
        }
    }

    /// The mailbox name.
    pub fn name(&self) -> &ObjName {
        &self.name
    }

    /// Maximum number of queued messages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued messages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Messages accepted so far.
    pub fn sent_count(&self) -> u64 {
        self.sent
    }

    /// Messages delivered so far.
    pub fn received_count(&self) -> u64 {
        self.received
    }

    /// Sends rejected because the mailbox was full.
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }
}

/// Registry of all mailboxes inside a kernel.
#[derive(Debug, Default)]
pub struct MailboxRegistry {
    boxes: NameMap<Mailbox>,
}

impl MailboxRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a mailbox with the given capacity.
    ///
    /// # Errors
    ///
    /// [`IpcError::Incompatible`] if a mailbox with the same name but a
    /// different capacity exists; [`IpcError::ZeroSize`] for capacity 0.
    pub fn create(&mut self, name: &str, capacity: usize) -> Result<(), IpcError> {
        let name = ObjName::new(name).map_err(IpcError::BadName)?;
        if capacity == 0 {
            return Err(IpcError::ZeroSize(name));
        }
        match self.boxes.get(&name) {
            Some(mb) if mb.capacity != capacity => Err(IpcError::Incompatible {
                name,
                expected: format!("capacity {}", mb.capacity),
                found: format!("capacity {capacity}"),
            }),
            Some(_) => Ok(()), // idempotent attach
            None => {
                self.boxes.insert(name, Mailbox::new(name, capacity));
                Ok(())
            }
        }
    }

    /// Deletes a mailbox, dropping any queued messages.
    ///
    /// # Errors
    ///
    /// [`IpcError::NotFound`] if no such mailbox exists.
    pub fn delete(&mut self, name: &str) -> Result<(), IpcError> {
        let name = ObjName::new(name).map_err(IpcError::BadName)?;
        self.boxes
            .remove(&name)
            .map(|_| ())
            .ok_or(IpcError::NotFound(name))
    }

    /// Non-blocking send. Returns `Ok(true)` if the message was queued,
    /// `Ok(false)` if the mailbox was full (message dropped, counted).
    ///
    /// # Errors
    ///
    /// [`IpcError::NotFound`] if no such mailbox exists.
    pub fn send(&mut self, name: &str, msg: &[u8]) -> Result<bool, IpcError> {
        self.send_obj(ObjName::new(name)?, msg)
    }

    /// [`MailboxRegistry::send`] for an already validated name.
    pub(crate) fn send_obj(&mut self, name: ObjName, msg: &[u8]) -> Result<bool, IpcError> {
        let mb = self.boxes.get_mut(&name).ok_or(IpcError::NotFound(name))?;
        if mb.queue.len() >= mb.capacity {
            mb.rejected += 1;
            return Ok(false);
        }
        mb.queue.push_back(msg.to_vec());
        mb.sent += 1;
        Ok(true)
    }

    /// Non-blocking receive. Returns `None` when the mailbox is empty.
    ///
    /// # Errors
    ///
    /// [`IpcError::NotFound`] if no such mailbox exists.
    pub fn recv(&mut self, name: &str) -> Result<Option<Vec<u8>>, IpcError> {
        self.recv_obj(ObjName::new(name)?)
    }

    /// [`MailboxRegistry::recv`] for an already validated name.
    pub(crate) fn recv_obj(&mut self, name: ObjName) -> Result<Option<Vec<u8>>, IpcError> {
        let mb = self.boxes.get_mut(&name).ok_or(IpcError::NotFound(name))?;
        let msg = mb.queue.pop_front();
        if msg.is_some() {
            mb.received += 1;
        }
        Ok(msg)
    }

    /// Reverses one [`MailboxRegistry::send`] outcome: pops the newest
    /// queued message when the send was accepted, or un-counts the
    /// rejection otherwise. Only called by the kernel when rolling back a
    /// faulted cycle; the newest message is necessarily the journaled one
    /// because body execution is atomic at the dispatch instant.
    pub(crate) fn undo_send(&mut self, name: &ObjName, accepted: bool) {
        if let Some(mb) = self.boxes.get_mut(name) {
            if accepted {
                if mb.queue.pop_back().is_some() {
                    mb.sent = mb.sent.saturating_sub(1);
                }
            } else {
                mb.rejected = mb.rejected.saturating_sub(1);
            }
        }
    }

    /// Looks up a mailbox by name.
    pub fn get(&self, name: &str) -> Option<&Mailbox> {
        self.get_obj(&ObjName::new(name).ok()?)
    }

    /// [`MailboxRegistry::get`] for an already validated name.
    pub(crate) fn get_obj(&self, name: &ObjName) -> Option<&Mailbox> {
        self.boxes.get(name)
    }

    /// Number of live mailboxes.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// True when no mailboxes exist.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Iterates over live mailboxes.
    pub fn iter(&self) -> impl Iterator<Item = &Mailbox> {
        self.boxes.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_fifo_order() {
        let mut reg = MailboxRegistry::new();
        reg.create("cmd", 4).unwrap();
        assert!(reg.send("cmd", b"one").unwrap());
        assert!(reg.send("cmd", b"two").unwrap());
        assert_eq!(reg.recv("cmd").unwrap().unwrap(), b"one");
        assert_eq!(reg.recv("cmd").unwrap().unwrap(), b"two");
        assert_eq!(reg.recv("cmd").unwrap(), None);
    }

    #[test]
    fn full_mailbox_rejects_without_blocking() {
        let mut reg = MailboxRegistry::new();
        reg.create("cmd", 2).unwrap();
        assert!(reg.send("cmd", b"a").unwrap());
        assert!(reg.send("cmd", b"b").unwrap());
        assert!(!reg.send("cmd", b"c").unwrap());
        let mb = reg.get("cmd").unwrap();
        assert_eq!(mb.sent_count(), 2);
        assert_eq!(mb.rejected_count(), 1);
        assert_eq!(mb.len(), 2);
    }

    #[test]
    fn create_is_idempotent_for_same_capacity() {
        let mut reg = MailboxRegistry::new();
        reg.create("cmd", 4).unwrap();
        reg.create("cmd", 4).unwrap();
        assert_eq!(reg.len(), 1);
        assert!(matches!(
            reg.create("cmd", 8),
            Err(IpcError::Incompatible { .. })
        ));
    }

    #[test]
    fn zero_capacity_is_refused() {
        let mut reg = MailboxRegistry::new();
        assert!(matches!(reg.create("cmd", 0), Err(IpcError::ZeroSize(_))));
    }

    #[test]
    fn delete_drops_messages() {
        let mut reg = MailboxRegistry::new();
        reg.create("cmd", 4).unwrap();
        reg.send("cmd", b"x").unwrap();
        reg.delete("cmd").unwrap();
        assert!(reg.is_empty());
        assert!(matches!(reg.recv("cmd"), Err(IpcError::NotFound(_))));
        assert!(matches!(reg.delete("cmd"), Err(IpcError::NotFound(_))));
    }

    #[test]
    fn bad_names_are_rejected() {
        let mut reg = MailboxRegistry::new();
        assert!(matches!(
            reg.create("way-too-long", 1),
            Err(IpcError::BadName(_))
        ));
    }
}
