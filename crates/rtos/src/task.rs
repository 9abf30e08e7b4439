//! Real-time task model: names, priorities, configuration, state and the
//! [`TaskBody`] behaviour trait.

use crate::error::NameError;
use crate::time::SimDuration;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Maximum length of a kernel object name (RTAI heritage; see the paper's
/// descriptor section: "the underlying real time OS use the six character
/// name to refer to the real time tasks").
pub const MAX_OBJ_NAME: usize = 6;

/// A validated kernel object name: 1–6 ASCII alphanumeric characters.
///
/// Stored inline and zero-padded, so a name is a `Copy` value that never
/// touches the heap: the dispatch path hands names around by value. Names
/// contain no NUL bytes, so comparing the padded byte arrays orders names
/// exactly as comparing the strings does (a prefix sorts first).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObjName([u8; MAX_OBJ_NAME]);

impl ObjName {
    /// Validates and wraps a name.
    ///
    /// # Errors
    ///
    /// Returns [`NameError`] when the name is empty, longer than
    /// [`MAX_OBJ_NAME`], or contains non-alphanumeric ASCII.
    pub fn new(name: impl AsRef<str>) -> Result<Self, NameError> {
        let name = name.as_ref();
        if name.is_empty() {
            return Err(NameError::new(name, "name is empty"));
        }
        if name.len() > MAX_OBJ_NAME {
            return Err(NameError::new(name, "name exceeds 6 characters"));
        }
        if !name.bytes().all(|b| b.is_ascii_alphanumeric()) {
            return Err(NameError::new(name, "name must be ASCII alphanumeric"));
        }
        let mut bytes = [0; MAX_OBJ_NAME];
        bytes[..name.len()].copy_from_slice(name.as_bytes());
        Ok(ObjName(bytes))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        let len = self.0.iter().position(|&b| b == 0).unwrap_or(MAX_OBJ_NAME);
        std::str::from_utf8(&self.0[..len]).expect("validated names are ASCII")
    }
}

/// A name hashes as one word, so the kernel's registries mix it with one
/// multiply.
impl Hash for ObjName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c, d, e, f] = self.0;
        state.write_u64(u64::from_le_bytes([a, b, c, d, e, f, 0, 0]));
    }
}

/// Compares with a string without validating it: a string that is not a
/// valid name equals no name.
impl PartialEq<str> for ObjName {
    fn eq(&self, other: &str) -> bool {
        let other = other.as_bytes();
        other.len() <= MAX_OBJ_NAME
            && !other.contains(&0)
            && self.0[..other.len()] == *other
            && self.0.get(other.len()).is_none_or(|&b| b == 0)
    }
}

/// Fixed hasher for maps keyed by [`ObjName`]: a name hashes as one word
/// (see its `Hash` impl), which a multiply by the 64-bit golden ratio and
/// a fold of the high half into the low half spread over the table. The
/// kernel's object registries look names up on every port operation,
/// where SipHash costs more than the lookup; nothing iterates them in an
/// order that matters.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NameHasher(u64);

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A hash map keyed by kernel object names, hashed with [`NameHasher`].
pub(crate) type NameMap<V> = HashMap<ObjName, V, BuildHasherDefault<NameHasher>>;

/// A kernel object name as the port operations of
/// [`TaskCtx`](crate::kernel::TaskCtx) take it: an [`ObjName`] validated
/// once up front, or a string validated on every call.
pub trait IntoObjName {
    /// The validated name.
    ///
    /// # Errors
    ///
    /// [`NameError`] when a string is not a valid object name.
    fn into_obj_name(self) -> Result<ObjName, NameError>;
}

impl IntoObjName for ObjName {
    fn into_obj_name(self) -> Result<ObjName, NameError> {
        Ok(self)
    }
}

impl IntoObjName for &str {
    fn into_obj_name(self) -> Result<ObjName, NameError> {
        ObjName::new(self)
    }
}

impl IntoObjName for &String {
    fn into_obj_name(self) -> Result<ObjName, NameError> {
        ObjName::new(self)
    }
}

impl fmt::Debug for ObjName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ObjName").field(&self.as_str()).finish()
    }
}

impl fmt::Display for ObjName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl AsRef<str> for ObjName {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl std::str::FromStr for ObjName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ObjName::new(s)
    }
}

/// Low bits of a [`TaskId`] naming the kernel's task-table slot; the high
/// bits hold the task's creation serial.
const SLOT_BITS: u32 = 24;

/// Unique task identifier assigned by the kernel.
///
/// An id packs the task's creation serial (1, 2, 3, … per kernel, never
/// reused) above the index of its slot in the kernel's dense task table.
/// Slots are recycled after a task is deleted, serials are not, so a stale
/// id never aliases a newer task. Ids order by creation serial.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(u64);

impl TaskId {
    /// Most live tasks one kernel can hold (the slot index width).
    pub(crate) const MAX_SLOTS: usize = 1 << SLOT_BITS;

    pub(crate) fn new(serial: u64, slot: usize) -> Self {
        debug_assert!(slot < Self::MAX_SLOTS && serial < 1 << (64 - SLOT_BITS));
        TaskId(serial << SLOT_BITS | slot as u64)
    }

    /// The task's creation serial: 1 for the first task a kernel creates.
    pub fn raw(self) -> u64 {
        self.0 >> SLOT_BITS
    }

    /// Index of the task's slot in the kernel's task table.
    pub(crate) fn slot(self) -> usize {
        (self.0 & (Self::MAX_SLOTS as u64 - 1)) as usize
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TaskId").field(&self.raw()).finish()
    }
}

/// Fixed task priority. **Lower values are more urgent** (RTAI convention;
/// priority 0 is the most urgent RT priority).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Priority(pub u8);

impl Priority {
    /// The most urgent priority.
    pub const HIGHEST: Priority = Priority(0);
    /// The least urgent real-time priority.
    pub const LOWEST_RT: Priority = Priority(254);
    /// The pseudo-priority of Linux-domain work: always below any RT task.
    pub const LINUX: Priority = Priority(255);

    /// True if this priority preempts `other`.
    pub fn preempts(self, other: Priority) -> bool {
        self.0 < other.0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Which of the two kernels of the dual-kernel architecture a task belongs
/// to. RT tasks always preempt Linux-domain work on the same CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Scheduled by the RT kernel (RTAI side).
    RealTime,
    /// Ordinary Linux work; runs only when the CPU has no runnable RT task.
    Linux,
}

/// Release pattern of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReleasePolicy {
    /// Released on a fixed period by the hardware timer.
    Periodic {
        /// The task period.
        period: SimDuration,
    },
    /// Released only when explicitly triggered (event-driven).
    Aperiodic,
}

/// Lifecycle state of a task inside the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// Created but not yet started.
    Dormant,
    /// Waiting for its next release.
    Waiting,
    /// Released and queued for a CPU.
    Ready,
    /// Currently executing on a CPU.
    Running,
    /// Suspended by management action; releases are discarded.
    Suspended,
    /// The body panicked out of a hook; the task is parked until deleted.
    /// Releases are discarded and the scheduler never dispatches it again.
    Faulted,
    /// Deleted; the id is dead.
    Deleted,
}

/// Static configuration of a task, built with [`TaskConfig::periodic`] /
/// [`TaskConfig::aperiodic`] and refined with the builder-style setters.
#[derive(Debug, Clone)]
pub struct TaskConfig {
    /// Task name (unique per kernel).
    pub name: ObjName,
    /// Scheduling priority.
    pub priority: Priority,
    /// CPU the task is pinned to (`runoncpu` in the descriptor).
    pub cpu: u32,
    /// Release pattern.
    pub release: ReleasePolicy,
    /// Scheduling domain.
    pub domain: Domain,
    /// Fixed CPU cost charged per cycle *in addition to* whatever the body
    /// charges via [`TaskCtx::compute`](crate::kernel::TaskCtx::compute).
    pub base_cost: SimDuration,
    /// Whether the kernel records release→dispatch latency for this task.
    pub track_latency: bool,
    /// Whether the task re-releases itself immediately after every cycle
    /// (a `while (1)` worker — used to model Linux-domain CPU hogs).
    pub continuous: bool,
    /// Per-cycle execution budget. When set, a cycle that charges more CPU
    /// than this is clamped to the budget and counted as a budget overrun —
    /// the kernel-level half of enforceable contracts.
    pub exec_budget: Option<SimDuration>,
}

impl TaskConfig {
    /// Configuration for a periodic RT task.
    ///
    /// # Errors
    ///
    /// Returns [`NameError`] if the name is invalid.
    pub fn periodic(
        name: &str,
        priority: Priority,
        period: SimDuration,
    ) -> Result<Self, NameError> {
        Ok(TaskConfig {
            name: ObjName::new(name)?,
            priority,
            cpu: 0,
            release: ReleasePolicy::Periodic { period },
            domain: Domain::RealTime,
            base_cost: SimDuration::from_nanos(1_000),
            track_latency: false,
            continuous: false,
            exec_budget: None,
        })
    }

    /// Configuration for an aperiodic (event-triggered) RT task.
    ///
    /// # Errors
    ///
    /// Returns [`NameError`] if the name is invalid.
    pub fn aperiodic(name: &str, priority: Priority) -> Result<Self, NameError> {
        Ok(TaskConfig {
            name: ObjName::new(name)?,
            priority,
            cpu: 0,
            release: ReleasePolicy::Aperiodic,
            domain: Domain::RealTime,
            base_cost: SimDuration::from_nanos(1_000),
            track_latency: false,
            continuous: false,
            exec_budget: None,
        })
    }

    /// Pins the task to a CPU.
    pub fn on_cpu(mut self, cpu: u32) -> Self {
        self.cpu = cpu;
        self
    }

    /// Marks the task as Linux-domain background work.
    pub fn in_linux_domain(mut self) -> Self {
        self.domain = Domain::Linux;
        self.priority = Priority::LINUX;
        self
    }

    /// Sets the fixed per-cycle CPU cost.
    pub fn with_base_cost(mut self, cost: SimDuration) -> Self {
        self.base_cost = cost;
        self
    }

    /// Enables release→dispatch latency tracking.
    pub fn with_latency_tracking(mut self) -> Self {
        self.track_latency = true;
        self
    }

    /// Makes the task re-release itself immediately after every cycle.
    pub fn continuous(mut self) -> Self {
        self.continuous = true;
        self
    }

    /// Sets a per-cycle execution budget (kernel-enforced).
    pub fn with_exec_budget(mut self, budget: SimDuration) -> Self {
        self.exec_budget = Some(budget);
        self
    }

    /// The period, if periodic.
    pub fn period(&self) -> Option<SimDuration> {
        match self.release {
            ReleasePolicy::Periodic { period } => Some(period),
            ReleasePolicy::Aperiodic => None,
        }
    }
}

/// Behaviour of a task, invoked by the kernel on each release.
///
/// Implementations receive a [`TaskCtx`](crate::kernel::TaskCtx) giving
/// access to virtual time, IPC, and CPU-cost charging. The kernel calls
/// `on_start` once before the first cycle, `on_cycle` at every release, and
/// `on_stop` when the task is deleted.
pub trait TaskBody {
    /// Called once, at task start, in task context.
    fn on_start(&mut self, _ctx: &mut crate::kernel::TaskCtx<'_>) {}

    /// Called at every release, in task context.
    fn on_cycle(&mut self, ctx: &mut crate::kernel::TaskCtx<'_>);

    /// Called once when the task is deleted, in task context.
    fn on_stop(&mut self, _ctx: &mut crate::kernel::TaskCtx<'_>) {}
}

/// Adapter turning a closure into a [`TaskBody`] (cycle-only).
pub struct FnBody<F>(pub F);

impl<F: FnMut(&mut crate::kernel::TaskCtx<'_>)> TaskBody for FnBody<F> {
    fn on_cycle(&mut self, ctx: &mut crate::kernel::TaskCtx<'_>) {
        (self.0)(ctx)
    }
}

/// A body that does nothing but burn its configured base cost — used for
/// load generators and scheduler tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdleBody;

impl TaskBody for IdleBody {
    fn on_cycle(&mut self, _ctx: &mut crate::kernel::TaskCtx<'_>) {}
}

/// A body that burns *real* wall-clock CPU on every cycle, in addition to
/// the virtual-time base cost the kernel charges.
///
/// Virtual-time simulation makes simulated cycles nearly free in wall
/// time, so a throughput bench comparing the serial and parallel executors
/// on [`IdleBody`] tasks would measure event-loop bookkeeping rather than
/// cycle execution. `SpinBody` stands in for a real component body: each
/// cycle runs `iters` rounds of an xorshift mixer through
/// [`std::hint::black_box`], giving the worker threads genuine work to
/// execute concurrently. The mixed value feeds back into the next cycle,
/// so the loop cannot be hoisted or folded away — and the body stays fully
/// deterministic (no clock, no RNG draws, no shared state).
#[derive(Debug, Clone, Copy)]
pub struct SpinBody {
    iters: u32,
    acc: u64,
}

impl SpinBody {
    /// A body spinning `iters` mixer rounds per cycle.
    pub fn new(iters: u32) -> Self {
        SpinBody {
            iters,
            acc: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl TaskBody for SpinBody {
    fn on_cycle(&mut self, _ctx: &mut crate::kernel::TaskCtx<'_>) {
        let mut x = std::hint::black_box(self.acc);
        for _ in 0..self.iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = std::hint::black_box(x);
        }
        self.acc = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_name_accepts_valid() {
        for ok in ["a", "calc", "disp01", "ABC123"] {
            assert!(ObjName::new(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn obj_name_rejects_invalid() {
        for bad in ["", "toolong7", "has space", "dash-x", "日本"] {
            assert!(ObjName::new(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn obj_name_parses_from_str() {
        let n: ObjName = "camera".parse().unwrap();
        assert_eq!(n.as_str(), "camera");
        assert!("too_long".parse::<ObjName>().is_err());
    }

    #[test]
    fn obj_name_equals_exactly_its_own_string() {
        let n = ObjName::new("ab1").unwrap();
        assert!(n == *"ab1");
        for other in ["", "a", "ab", "ab1c", "ab1\0", "AB1", "ab1ab1x"] {
            assert!(n != *other, "{other:?}");
        }
        let full = ObjName::new("camera").unwrap();
        assert!(full == *"camera" && full != *"camer" && full != *"cameras");
    }

    #[test]
    fn priority_ordering_is_rtai_style() {
        assert!(Priority(0).preempts(Priority(1)));
        assert!(!Priority(5).preempts(Priority(5)));
        assert!(Priority::HIGHEST.preempts(Priority::LINUX));
        assert!(Priority::LOWEST_RT.preempts(Priority::LINUX));
    }

    #[test]
    fn periodic_config_builder() {
        let cfg = TaskConfig::periodic("calc", Priority(2), SimDuration::from_hz(1000))
            .unwrap()
            .on_cpu(0)
            .with_base_cost(SimDuration::from_micros(50))
            .with_latency_tracking();
        assert_eq!(cfg.period(), Some(SimDuration::from_millis(1)));
        assert_eq!(cfg.cpu, 0);
        assert!(cfg.track_latency);
        assert_eq!(cfg.domain, Domain::RealTime);
    }

    #[test]
    fn linux_domain_forces_linux_priority() {
        let cfg = TaskConfig::aperiodic("hog", Priority(1))
            .unwrap()
            .in_linux_domain();
        assert_eq!(cfg.priority, Priority::LINUX);
        assert_eq!(cfg.domain, Domain::Linux);
        assert_eq!(cfg.period(), None);
    }
}
