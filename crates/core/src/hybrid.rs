//! The Hybrid Real-time Component (HRC) implementation model (§3 of the
//! paper).
//!
//! An HRC is split in two: a small real-time task running on the RT kernel,
//! and a management part living in the OSGi world. The two halves meet at a
//! **strictly asynchronous** command channel (§3.2): the management side
//! posts [`Command`]s into a mailbox; the RT side drains them *at the end of
//! each functional cycle* and posts [`Reply`]s back. The RT path never
//! blocks on management traffic — "otherwise, the real-time task's
//! performance may be breached".
//!
//! Component authors implement [`RtLogic`]; [`HybridRtBody`] adapts it to
//! the kernel's task interface, wiring descriptor ports to SHM segments and
//! mailboxes and running the command pump. [`BridgeMode`] exists to
//! *quantify* the paper's design choice: the `SyncBlocking` variant models
//! the rejected synchronous design and is used by the ablation bench.

use crate::model::{PortDirection, PortInterface, PortSpec, PropertyValue};
use rtos::kernel::TaskCtx;
use rtos::task::{ObjName, TaskBody};
use rtos::time::{SimDuration, SimTime};
use std::fmt;

/// A management command sent from the non-RT side to the RT task.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Replace a configuration property; the RT side applies it between
    /// cycles and notifies the logic.
    SetProperty {
        /// Property name.
        name: String,
        /// New value.
        value: PropertyValue,
    },
    /// Ask for a property's current value.
    GetProperty {
        /// Correlation token echoed in the reply.
        token: u32,
        /// Property name.
        name: String,
    },
    /// Ask for task status.
    QueryStatus {
        /// Correlation token echoed in the reply.
        token: u32,
    },
    /// Liveness probe.
    Ping {
        /// Correlation token echoed in the reply.
        token: u32,
    },
}

/// A reply from the RT task to the management side.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Command::GetProperty`].
    Property {
        /// The request's token.
        token: u32,
        /// Property name.
        name: String,
        /// The value, or `None` if no such property.
        value: Option<PropertyValue>,
    },
    /// Answer to [`Command::QueryStatus`].
    Status {
        /// The request's token.
        token: u32,
        /// Completed cycles at reply time.
        cycles: u64,
        /// Virtual time of the replying cycle, in nanoseconds.
        at_ns: u64,
    },
    /// Answer to [`Command::Ping`].
    Pong {
        /// The request's token.
        token: u32,
    },
}

/// A wire-format failure when decoding commands or replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), ProtoError> {
    // The length prefix is a u16; a longer string must be rejected here, not
    // truncated — `s.len() as u16` would wrap and emit a frame whose prefix
    // disagrees with its payload.
    let len = u16::try_from(s.len()).map_err(|_| {
        ProtoError(format!(
            "string of {} bytes exceeds the {}-byte wire limit",
            s.len(),
            u16::MAX
        ))
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_value(out: &mut Vec<u8>, v: &PropertyValue) -> Result<(), ProtoError> {
    match v {
        PropertyValue::Integer(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        PropertyValue::Float(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_le_bytes());
        }
        PropertyValue::Text(s) => {
            out.push(3);
            put_str(out, s)?;
        }
        PropertyValue::Boolean(b) => {
            out.push(4);
            out.push(u8::from(*b));
        }
    }
    Ok(())
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.pos + n > self.buf.len() {
            return Err(ProtoError(format!(
                "truncated message: wanted {n} bytes at {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, ProtoError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError("non-UTF8 string".into()))
    }

    fn value(&mut self) -> Result<PropertyValue, ProtoError> {
        match self.u8()? {
            1 => Ok(PropertyValue::Integer(self.i64()?)),
            2 => Ok(PropertyValue::Float(self.f64()?)),
            3 => Ok(PropertyValue::Text(self.string()?)),
            4 => Ok(PropertyValue::Boolean(self.u8()? != 0)),
            t => Err(ProtoError(format!("unknown value tag {t}"))),
        }
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

impl Command {
    /// Encodes the command for the mailbox.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] when a string field exceeds the u16 length prefix.
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        let mut out = Vec::new();
        match self {
            Command::SetProperty { name, value } => {
                out.push(3);
                put_str(&mut out, name)?;
                put_value(&mut out, value)?;
            }
            Command::GetProperty { token, name } => {
                out.push(4);
                out.extend_from_slice(&token.to_le_bytes());
                put_str(&mut out, name)?;
            }
            Command::QueryStatus { token } => {
                out.push(5);
                out.extend_from_slice(&token.to_le_bytes());
            }
            Command::Ping { token } => {
                out.push(6);
                out.extend_from_slice(&token.to_le_bytes());
            }
        }
        Ok(out)
    }

    /// Decodes a command from the mailbox.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] for unknown tags, truncation or trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(buf);
        let cmd = match r.u8()? {
            3 => Command::SetProperty {
                name: r.string()?,
                value: r.value()?,
            },
            4 => Command::GetProperty {
                token: r.u32()?,
                name: r.string()?,
            },
            5 => Command::QueryStatus { token: r.u32()? },
            6 => Command::Ping { token: r.u32()? },
            t => return Err(ProtoError(format!("unknown command tag {t}"))),
        };
        r.finish()?;
        Ok(cmd)
    }
}

impl Reply {
    /// Encodes the reply for the mailbox.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] when a string field exceeds the u16 length prefix.
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        let mut out = Vec::new();
        match self {
            Reply::Property { token, name, value } => {
                out.push(1);
                out.extend_from_slice(&token.to_le_bytes());
                put_str(&mut out, name)?;
                match value {
                    Some(v) => {
                        out.push(1);
                        put_value(&mut out, v)?;
                    }
                    None => out.push(0),
                }
            }
            Reply::Status {
                token,
                cycles,
                at_ns,
            } => {
                out.push(2);
                out.extend_from_slice(&token.to_le_bytes());
                out.extend_from_slice(&cycles.to_le_bytes());
                out.extend_from_slice(&at_ns.to_le_bytes());
            }
            Reply::Pong { token } => {
                out.push(3);
                out.extend_from_slice(&token.to_le_bytes());
            }
        }
        Ok(out)
    }

    /// Decodes a reply from the mailbox.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] for unknown tags, truncation or trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(buf);
        let reply = match r.u8()? {
            1 => {
                let token = r.u32()?;
                let name = r.string()?;
                let value = match r.u8()? {
                    0 => None,
                    1 => Some(r.value()?),
                    t => return Err(ProtoError(format!("bad option tag {t}"))),
                };
                Reply::Property { token, name, value }
            }
            2 => Reply::Status {
                token: r.u32()?,
                cycles: r.u64()?,
                at_ns: r.u64()?,
            },
            3 => Reply::Pong { token: r.u32()? },
            t => return Err(ProtoError(format!("unknown reply tag {t}"))),
        };
        r.finish()?;
        Ok(reply)
    }

    /// The correlation token of this reply.
    pub fn token(&self) -> u32 {
        match self {
            Reply::Property { token, .. } | Reply::Status { token, .. } | Reply::Pong { token } => {
                *token
            }
        }
    }
}

// ---------------------------------------------------------------------
// RT-side behaviour
// ---------------------------------------------------------------------

/// The functional behaviour of a component's real-time part.
///
/// Implementations see the world through [`RtIo`]: descriptor ports, typed
/// properties, virtual time, and explicit CPU-cost charging. They must not
/// block — every operation offered is non-blocking by construction.
pub trait RtLogic {
    /// Called once before the first cycle.
    fn on_init(&mut self, _io: &mut RtIo<'_, '_>) {}

    /// Called at every release of the task.
    fn on_cycle(&mut self, io: &mut RtIo<'_, '_>);

    /// Called (between cycles) when the management side replaced a
    /// property.
    fn on_property_changed(&mut self, _name: &str, _value: &PropertyValue) {}
}

/// A cycle-only [`RtLogic`] from a closure.
pub struct FnLogic<F>(pub F);

impl<F: FnMut(&mut RtIo<'_, '_>)> RtLogic for FnLogic<F> {
    fn on_cycle(&mut self, io: &mut RtIo<'_, '_>) {
        (self.0)(io)
    }
}

/// How the RT side services the management channel — the paper's design
/// choice (async, §3.2) plus the rejected alternative for the ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeMode {
    /// Drain pending commands non-blockingly at end of cycle (the paper's
    /// design).
    AsyncPoll,
    /// Block waiting for a command every cycle, up to the given timeout —
    /// the design the paper rejects; modelled by charging the timeout as
    /// CPU time whenever no command is pending.
    SyncBlocking(SimDuration),
    /// No management channel at all (pure-RTAI baseline tasks).
    Disconnected,
}

/// One port with its direction, as bound at activation.
#[derive(Debug, Clone, Copy)]
pub struct PortBinding {
    /// The port's declared shape.
    pub spec: PortSpec,
    /// Direction from this component's point of view.
    pub direction: PortDirection,
}

/// Adapter from [`RtLogic`] + descriptor metadata to the kernel's
/// [`TaskBody`]. Created by the DRCR at activation.
pub struct HybridRtBody {
    logic: Box<dyn RtLogic>,
    bindings: Vec<PortBinding>,
    properties: Vec<(String, PropertyValue)>,
    cmd_mbx: Option<ObjName>,
    reply_mbx: Option<ObjName>,
    bridge: BridgeMode,
}

impl fmt::Debug for HybridRtBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HybridRtBody")
            .field("ports", &self.bindings.len())
            .field("bridge", &self.bridge)
            .finish()
    }
}

impl HybridRtBody {
    /// Builds the RT-side body.
    pub fn new(
        logic: Box<dyn RtLogic>,
        bindings: Vec<PortBinding>,
        properties: Vec<(String, PropertyValue)>,
        cmd_mbx: Option<ObjName>,
        reply_mbx: Option<ObjName>,
        bridge: BridgeMode,
    ) -> Self {
        HybridRtBody {
            logic,
            bindings,
            properties,
            cmd_mbx,
            reply_mbx,
            bridge,
        }
    }

    fn pump_commands(&mut self, ctx: &mut TaskCtx<'_>) {
        let Some(cmd_mbx) = self.cmd_mbx else {
            return;
        };
        let mut served = 0u32;
        loop {
            let msg = match ctx.mailbox_recv(cmd_mbx) {
                Ok(Some(m)) => m,
                Ok(None) => break,
                Err(_) => break, // channel torn down mid-flight
            };
            served += 1;
            let Ok(cmd) = Command::decode(&msg) else {
                ctx.log("dropped malformed management command");
                continue;
            };
            // Handling a command costs a little CPU beyond the mailbox op.
            ctx.compute(SimDuration::from_nanos(250));
            let reply = match cmd {
                Command::SetProperty { name, value } => {
                    match self.properties.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, slot)) => *slot = value.clone(),
                        None => self.properties.push((name.clone(), value.clone())),
                    }
                    self.logic.on_property_changed(&name, &value);
                    None
                }
                Command::GetProperty { token, name } => {
                    let value = self
                        .properties
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, v)| v.clone());
                    Some(Reply::Property { token, name, value })
                }
                Command::QueryStatus { token } => Some(Reply::Status {
                    token,
                    cycles: ctx.cycle(),
                    at_ns: ctx.now().as_nanos(),
                }),
                Command::Ping { token } => Some(Reply::Pong { token }),
            };
            if let (Some(reply), Some(rmbx)) = (reply, self.reply_mbx) {
                match reply.encode() {
                    // Non-blocking: a full reply mailbox drops the reply;
                    // the manager will re-poll.
                    Ok(bytes) => {
                        let _ = ctx.mailbox_send(rmbx, &bytes);
                    }
                    // A reply can carry an oversized descriptor-installed
                    // Text property; dropping it (manager times out) beats
                    // posting a corrupt frame.
                    Err(_) => ctx.log("dropped unencodable management reply"),
                }
            }
        }
        if let BridgeMode::SyncBlocking(timeout) = self.bridge {
            if served == 0 {
                // The rejected synchronous design: the RT task sits in a
                // blocking receive until the timeout expires.
                ctx.compute(timeout);
            }
        }
    }
}

impl TaskBody for HybridRtBody {
    fn on_start(&mut self, ctx: &mut TaskCtx<'_>) {
        let HybridRtBody {
            logic,
            bindings,
            properties,
            ..
        } = self;
        let mut io = RtIo {
            ctx,
            bindings,
            properties,
        };
        logic.on_init(&mut io);
    }

    fn on_cycle(&mut self, ctx: &mut TaskCtx<'_>) {
        // The port-table indirection the declarative container adds over a
        // hand-coded RTAI task: a few hundred nanoseconds per cycle, with
        // the cache-dependent spread real indirection has.
        ctx.compute_about(SimDuration::from_nanos(350));
        {
            let HybridRtBody {
                logic,
                bindings,
                properties,
                ..
            } = self;
            let mut io = RtIo {
                ctx,
                bindings,
                properties,
            };
            logic.on_cycle(&mut io);
        }
        // §3.2: management traffic strictly after the functional routine.
        if self.bridge != BridgeMode::Disconnected {
            self.pump_commands(ctx);
        }
    }
}

/// Port/property/time access handed to [`RtLogic`] each cycle.
pub struct RtIo<'a, 'b> {
    ctx: &'a mut TaskCtx<'b>,
    bindings: &'a [PortBinding],
    properties: &'a mut Vec<(String, PropertyValue)>,
}

impl fmt::Debug for RtIo<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RtIo")
            .field("task", &self.ctx.task_name())
            .field("cycle", &self.ctx.cycle())
            .finish()
    }
}

/// A port access failure reported to the logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortError {
    /// No port with that name in that direction.
    NoSuchPort {
        /// Requested name.
        name: String,
        /// Requested direction.
        direction: PortDirection,
    },
    /// The underlying channel failed (torn down, size mismatch).
    Channel(String),
}

impl fmt::Display for PortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortError::NoSuchPort { name, direction } => {
                write!(f, "no {direction} named `{name}`")
            }
            PortError::Channel(msg) => write!(f, "port channel error: {msg}"),
        }
    }
}

impl std::error::Error for PortError {}

impl RtIo<'_, '_> {
    fn binding(&self, name: &str, direction: PortDirection) -> Result<&PortBinding, PortError> {
        self.bindings
            .iter()
            .find(|b| b.spec.name == *name && b.direction == direction)
            .ok_or_else(|| PortError::NoSuchPort {
                name: name.to_string(),
                direction,
            })
    }

    /// Reads an inport. SHM ports return the last written buffer; mailbox
    /// ports return the next queued message, or `None` when empty.
    ///
    /// # Errors
    ///
    /// [`PortError`] for unknown ports or channel failures.
    pub fn read(&mut self, port: &str) -> Result<Option<Vec<u8>>, PortError> {
        let spec = self.binding(port, PortDirection::In)?.spec;
        match spec.interface {
            PortInterface::Shm => self
                .ctx
                .shm_read(spec.name)
                .map(Some)
                .map_err(|e| PortError::Channel(e.to_string())),
            PortInterface::Mailbox => self
                .ctx
                .mailbox_recv(spec.name)
                .map_err(|e| PortError::Channel(e.to_string())),
            PortInterface::Fifo => self
                .ctx
                .fifo_get(spec.name, spec.byte_len())
                .map(|bytes| if bytes.is_empty() { None } else { Some(bytes) })
                .map_err(|e| PortError::Channel(e.to_string())),
        }
    }

    /// Writes an outport. SHM ports overwrite the segment (buffer must be
    /// exactly the declared size); mailbox ports enqueue, returning `false`
    /// without blocking when the box is full.
    ///
    /// # Errors
    ///
    /// [`PortError`] for unknown ports or channel failures.
    pub fn write(&mut self, port: &str, data: &[u8]) -> Result<bool, PortError> {
        let spec = self.binding(port, PortDirection::Out)?.spec;
        match spec.interface {
            PortInterface::Shm => self
                .ctx
                .shm_write(spec.name, data)
                .map(|()| true)
                .map_err(|e| PortError::Channel(e.to_string())),
            PortInterface::Mailbox => self
                .ctx
                .mailbox_send(spec.name, data)
                .map_err(|e| PortError::Channel(e.to_string())),
            PortInterface::Fifo => self
                .ctx
                .fifo_put(spec.name, data)
                .map(|taken| taken == data.len())
                .map_err(|e| PortError::Channel(e.to_string())),
        }
    }

    /// Charges CPU time for computation.
    pub fn compute(&mut self, span: SimDuration) {
        self.ctx.compute(span);
    }

    /// Charges a randomized computation around `mean`.
    pub fn compute_about(&mut self, mean: SimDuration) {
        self.ctx.compute_about(mean);
    }

    /// Virtual time at dispatch.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Zero-based cycle index.
    pub fn cycle(&self) -> u64 {
        self.ctx.cycle()
    }

    /// The current value of a configuration property.
    pub fn property(&self, name: &str) -> Option<&PropertyValue> {
        self.properties
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Appends a line to the kernel trace.
    pub fn log(&mut self, message: impl Into<String>) {
        self.ctx.log(message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_roundtrips() {
        let cmds = vec![
            Command::SetProperty {
                name: "gain".into(),
                value: PropertyValue::Float(1.5),
            },
            Command::GetProperty {
                token: 7,
                name: "gain".into(),
            },
            Command::QueryStatus { token: 8 },
            Command::Ping { token: 9 },
            Command::SetProperty {
                name: "label".into(),
                value: PropertyValue::Text("héllo".into()),
            },
            Command::SetProperty {
                name: "on".into(),
                value: PropertyValue::Boolean(true),
            },
            Command::SetProperty {
                name: "n".into(),
                value: PropertyValue::Integer(-42),
            },
        ];
        for cmd in cmds {
            let bytes = cmd.encode().unwrap();
            assert_eq!(Command::decode(&bytes).unwrap(), cmd);
        }
    }

    #[test]
    fn reply_roundtrips() {
        let replies = vec![
            Reply::Property {
                token: 1,
                name: "gain".into(),
                value: Some(PropertyValue::Float(1.5)),
            },
            Reply::Property {
                token: 2,
                name: "missing".into(),
                value: None,
            },
            Reply::Status {
                token: 3,
                cycles: 12345,
                at_ns: 999,
            },
            Reply::Pong { token: 4 },
        ];
        for reply in replies {
            let bytes = reply.encode().unwrap();
            let decoded = Reply::decode(&bytes).unwrap();
            assert_eq!(decoded, reply);
            assert_eq!(decoded.token(), reply.token());
        }
    }

    #[test]
    fn malformed_messages_rejected() {
        assert!(Command::decode(&[]).is_err());
        assert!(Command::decode(&[99]).is_err());
        assert!(Command::decode(&[5, 1]).is_err()); // truncated token
        let mut ok = Command::Ping { token: 1 }.encode().unwrap();
        ok.push(0); // trailing byte
        assert!(Command::decode(&ok).is_err());
        assert!(Reply::decode(&[77]).is_err());
        // Bad value tag inside SetProperty.
        let mut bad = vec![3];
        put_str(&mut bad, "x").unwrap();
        bad.push(9);
        assert!(Command::decode(&bad).is_err());
    }

    #[test]
    fn oversized_strings_rejected_at_encode() {
        // 65535 bytes is the largest encodable string; 65536 must fail
        // rather than wrap the u16 length prefix to 0.
        let at_limit = "x".repeat(usize::from(u16::MAX));
        let over = "x".repeat(usize::from(u16::MAX) + 1);

        let cmd = Command::GetProperty {
            token: 1,
            name: at_limit.clone(),
        };
        let bytes = cmd.encode().unwrap();
        assert_eq!(Command::decode(&bytes).unwrap(), cmd);

        let cmd = Command::GetProperty {
            token: 1,
            name: over.clone(),
        };
        assert!(cmd.encode().is_err());

        // Oversized payloads nested inside a value are caught too.
        let cmd = Command::SetProperty {
            name: "blob".into(),
            value: PropertyValue::Text(over.clone()),
        };
        let err = cmd.encode().unwrap_err();
        assert!(err.to_string().contains("65536"), "{err}");

        let reply = Reply::Property {
            token: 2,
            name: "blob".into(),
            value: Some(PropertyValue::Text(at_limit)),
        };
        let bytes = reply.encode().unwrap();
        assert_eq!(Reply::decode(&bytes).unwrap(), reply);

        let reply = Reply::Property {
            token: 2,
            name: over,
            value: None,
        };
        assert!(reply.encode().is_err());
    }

    #[test]
    fn non_utf8_strings_rejected() {
        let mut bad = vec![4, 0, 0, 0, 0]; // GetProperty, token 0
        bad.extend_from_slice(&2u16.to_le_bytes());
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(Command::decode(&bad).is_err());
    }
}
