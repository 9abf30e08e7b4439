//! Typed kernel tracing: the event model, the bounded ring buffer that
//! carries it, and the subscriber trait for live taps.
//!
//! Everything the scheduler does that an observer could care about is
//! described by a [`KernelEvent`] value instead of a free-form string, so
//! benches, adaptation policies and tests can match on events structurally.
//! Events flow into an [`EventSink`]: a bounded drop-oldest ring
//! ([`TraceRing`]) plus any number of [`TraceSubscriber`] live taps.
//!
//! **Observer-effect freedom.** Emission never touches the kernel's random
//! stream and never schedules simulation events, so enabling or disabling
//! tracing cannot change a scheduling decision. The property test
//! `observer_effect.rs` (root test suite) checks this end to end.

use crate::latency::LoadMode;
use crate::task::{ObjName, Priority};
use crate::time::{LatencyNs, SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt;

/// A scheduling-relevant occurrence inside the kernel.
///
/// The `Display` rendering is the human-readable trace line (the strings
/// the pre-typed trace produced), so text logs migrate mechanically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelEvent {
    /// A task object was created (`Dormant`).
    TaskCreated {
        /// Task name.
        task: ObjName,
        /// CPU the task is pinned to.
        cpu: u32,
        /// Scheduling priority.
        priority: Priority,
    },
    /// A dormant task was started.
    TaskStarted {
        /// Task name.
        task: ObjName,
    },
    /// A task was suspended.
    TaskSuspended {
        /// Task name.
        task: ObjName,
        /// True when the task was running and the suspend takes effect at
        /// cycle end.
        deferred: bool,
    },
    /// A suspended task was resumed.
    TaskResumed {
        /// Task name.
        task: ObjName,
    },
    /// A task was deleted.
    TaskDeleted {
        /// Task name.
        task: ObjName,
    },
    /// A release arrived and the task was queued for its CPU.
    Release {
        /// Task name.
        task: ObjName,
        /// The ideal (jitter-free) release instant.
        ideal: SimTime,
    },
    /// A fresh cycle was dispatched onto a CPU.
    Dispatch {
        /// Task name.
        task: ObjName,
        /// The CPU it runs on.
        cpu: u32,
        /// Release→dispatch latency in nanoseconds.
        latency: LatencyNs,
    },
    /// A running task was displaced by a more urgent release.
    Preempt {
        /// The displaced task.
        task: ObjName,
        /// The CPU involved.
        cpu: u32,
    },
    /// Round-robin rotation among equal-priority peers.
    Timeslice {
        /// The rotated-out task.
        task: ObjName,
        /// The CPU involved.
        cpu: u32,
    },
    /// A release was discarded because the previous cycle had not finished.
    Overrun {
        /// Task name.
        task: ObjName,
    },
    /// A tracked cycle finished later than its implicit deadline (period).
    DeadlineMiss {
        /// Task name.
        task: ObjName,
        /// Release→finish response time in nanoseconds.
        response: LatencyNs,
    },
    /// A cycle demanded more CPU than its execution budget; the kernel
    /// clamped it (the enforcement half of contracts).
    BudgetClamp {
        /// Task name.
        task: ObjName,
        /// What the cycle asked for.
        demanded: SimDuration,
        /// The budget it was clamped to.
        budget: SimDuration,
    },
    /// A task body panicked out of a hook; the kernel contained the unwind,
    /// rolled back the cycle's partial port writes and parked the task in
    /// `Faulted`.
    TaskFault {
        /// Task name.
        task: ObjName,
        /// Zero-based cycle index of the faulting cycle.
        cycle: u64,
        /// The panic payload, rendered to text.
        cause: String,
    },
    /// A mailbox message released a wakeup-bound aperiodic task.
    MailboxWake {
        /// The mailbox that received the message.
        mailbox: ObjName,
        /// The released task.
        task: ObjName,
    },
    /// The background-load regime changed mid-run.
    LoadModeChanged {
        /// The new regime.
        mode: LoadMode,
    },
    /// A task body logged a free-form line via `TaskCtx::log`.
    UserLog {
        /// The logging task.
        task: ObjName,
        /// The message.
        message: String,
    },
}

impl fmt::Display for KernelEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelEvent::TaskCreated {
                task,
                cpu,
                priority,
            } => {
                write!(f, "create task `{task}` (cpu {cpu}, prio {priority})")
            }
            KernelEvent::TaskStarted { task } => write!(f, "start task `{task}`"),
            KernelEvent::TaskSuspended {
                task,
                deferred: false,
            } => {
                write!(f, "suspend task `{task}`")
            }
            KernelEvent::TaskSuspended {
                task,
                deferred: true,
            } => {
                write!(f, "suspend task `{task}` (running; effective at cycle end)")
            }
            KernelEvent::TaskResumed { task } => write!(f, "resume task `{task}`"),
            KernelEvent::TaskDeleted { task } => write!(f, "delete task `{task}`"),
            KernelEvent::Release { task, ideal } => {
                write!(f, "release `{task}` (ideal {} ns)", ideal.as_nanos())
            }
            KernelEvent::Dispatch { task, cpu, latency } => {
                write!(f, "dispatch `{task}` on cpu {cpu} (latency {latency} ns)")
            }
            KernelEvent::Preempt { task, cpu } => {
                write!(f, "preempt `{task}` on cpu {cpu}")
            }
            KernelEvent::Timeslice { task, cpu } => {
                write!(f, "timeslice `{task}` on cpu {cpu}")
            }
            KernelEvent::Overrun { task } => {
                write!(f, "overrun `{task}` (release discarded)")
            }
            KernelEvent::DeadlineMiss { task, response } => {
                write!(f, "deadline miss `{task}` (response {response} ns)")
            }
            KernelEvent::BudgetClamp {
                task,
                demanded,
                budget,
            } => write!(
                f,
                "budget clamp `{task}` ({} ns -> {} ns)",
                demanded.as_nanos(),
                budget.as_nanos()
            ),
            KernelEvent::TaskFault { task, cycle, cause } => {
                write!(f, "fault `{task}` at cycle {cycle}: {cause}")
            }
            KernelEvent::MailboxWake { mailbox, task } => {
                write!(f, "mailbox `{mailbox}` wakes `{task}`")
            }
            KernelEvent::LoadModeChanged { mode } => write!(f, "load mode -> {mode}"),
            KernelEvent::UserLog { task, message } => write!(f, "[{task}] {message}"),
        }
    }
}

/// An event paired with the virtual time it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timestamped<E> {
    /// When the event happened.
    pub time: SimTime,
    /// The event payload.
    pub event: E,
}

/// An event tagged with the CPU it belongs to and a per-stream sequence
/// number, used when merging the parallel executor's per-thread buffers
/// into one deterministic total order.
///
/// `seq` breaks ties among same-time same-CPU events and preserves each
/// source stream's internal order; its absolute value is executor-specific
/// (a global index in deterministic mode, a per-shard index in parallel
/// mode), so equivalence checks compare `(time, cpu, event)` and treat
/// `seq` as ordering metadata only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedEvent<E> {
    /// CPU the event is attributed to (`u32::MAX` = global/no CPU).
    pub cpu: u32,
    /// Position within the source stream.
    pub seq: u64,
    /// The event and its virtual timestamp.
    pub entry: Timestamped<E>,
}

/// Merges per-thread event streams into a single deterministic total
/// order, keyed by `(time, cpu, seq)`.
///
/// Each input stream must be internally ordered by `(time, seq)` (which
/// per-worker kernel buffers are by construction); the merge is a stable
/// sort, so the result is a linearization of the union that depends only
/// on the events themselves — never on which OS thread flushed first.
pub fn merge_tagged<E>(streams: Vec<Vec<TaggedEvent<E>>>) -> Vec<TaggedEvent<E>> {
    let mut all: Vec<TaggedEvent<E>> = streams.into_iter().flatten().collect();
    all.sort_by_key(|e| (e.entry.time, e.cpu, e.seq));
    all
}

/// A bounded drop-oldest ring buffer of timestamped events.
///
/// Capacity 0 records nothing (but still counts). When full, the oldest
/// entry is dropped and [`TraceRing::dropped`] is incremented, so a reader
/// always knows whether the window is complete.
#[derive(Debug, Clone)]
pub struct TraceRing<E> {
    capacity: usize,
    events: VecDeque<Timestamped<E>>,
    dropped: u64,
    total: u64,
}

impl<E> TraceRing<E> {
    /// An empty ring with the given capacity.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
            total: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events recorded over the ring's lifetime, including dropped ones.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Events evicted to make room (oldest-first eviction).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.total += 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Timestamped { time, event });
    }

    /// Iterates over held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Timestamped<E>> {
        self.events.iter()
    }

    /// Discards all held events (counters are preserved).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

/// A live tap on an event stream.
///
/// Subscribers see every event at emission time, before ring eviction, so
/// they observe the complete stream even when the ring is small.
/// Implementations must not have side effects on the system under
/// observation (they receive `&E` and no kernel handle, which enforces
/// this structurally).
pub trait TraceSubscriber<E> {
    /// Called for every emitted event.
    fn on_event(&mut self, time: SimTime, event: &E);
}

/// A subscriber that just counts events — useful as a cheap liveness tap.
#[derive(Debug, Default)]
pub struct CountingSubscriber {
    count: u64,
}

impl CountingSubscriber {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl<E> TraceSubscriber<E> for CountingSubscriber {
    fn on_event(&mut self, _time: SimTime, _event: &E) {
        self.count += 1;
    }
}

/// Ring buffer plus live subscribers: the full sink for one event stream.
pub struct EventSink<E> {
    ring: TraceRing<E>,
    subscribers: Vec<Box<dyn TraceSubscriber<E>>>,
}

impl<E: fmt::Debug> fmt::Debug for EventSink<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventSink")
            .field("ring", &self.ring)
            .field("subscribers", &self.subscribers.len())
            .finish()
    }
}

impl<E> EventSink<E> {
    /// A sink whose ring holds `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventSink {
            ring: TraceRing::new(capacity),
            subscribers: Vec::new(),
        }
    }

    /// True when emitting has any observable effect (ring or taps). Use to
    /// skip event construction entirely on the disabled path.
    pub fn is_enabled(&self) -> bool {
        self.ring.capacity() > 0 || !self.subscribers.is_empty()
    }

    /// Attaches a live tap.
    pub fn subscribe(&mut self, subscriber: Box<dyn TraceSubscriber<E>>) {
        self.subscribers.push(subscriber);
    }

    /// Emits an event to all subscribers and the ring.
    pub fn emit(&mut self, time: SimTime, event: E) {
        for sub in &mut self.subscribers {
            sub.on_event(time, &event);
        }
        self.ring.push(time, event);
    }

    /// Emits lazily: the event is only constructed when the sink is
    /// enabled. Call this on hot paths.
    pub fn emit_with(&mut self, time: SimTime, make: impl FnOnce() -> E) {
        if self.is_enabled() {
            self.emit(time, make());
        }
    }

    /// The underlying ring (read access).
    pub fn ring(&self) -> &TraceRing<E> {
        &self.ring
    }

    /// Iterates over held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Timestamped<E>> {
        self.ring.iter()
    }

    /// Discards held events (counters and subscribers are preserved).
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(ns)
    }

    #[test]
    fn merge_tagged_is_a_deterministic_linearization() {
        let tag = |cpu: u32, seq: u64, ns: u64, ev: u32| TaggedEvent {
            cpu,
            seq,
            entry: Timestamped {
                time: t(ns),
                event: ev,
            },
        };
        // Two per-worker streams, each internally time-ordered; the merge
        // must interleave by (time, cpu, seq) regardless of stream order.
        let cpu0 = vec![tag(0, 0, 10, 1), tag(0, 1, 10, 2), tag(0, 2, 30, 3)];
        let cpu1 = vec![tag(1, 0, 10, 4), tag(1, 1, 20, 5)];
        let ab = merge_tagged(vec![cpu0.clone(), cpu1.clone()]);
        let ba = merge_tagged(vec![cpu1, cpu0]);
        assert_eq!(ab, ba);
        let order: Vec<u32> = ab.iter().map(|e| e.entry.event).collect();
        assert_eq!(order, vec![1, 2, 4, 5, 3]);
    }

    #[test]
    fn ring_keeps_newest_and_counts_dropped() {
        let mut ring: TraceRing<u32> = TraceRing::new(3);
        for i in 0..10u32 {
            ring.push(t(i as u64), i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 7);
        assert_eq!(ring.total_recorded(), 10);
        let held: Vec<u32> = ring.iter().map(|e| e.event).collect();
        assert_eq!(held, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut ring: TraceRing<u32> = TraceRing::new(0);
        ring.push(t(1), 1);
        assert!(ring.is_empty());
        assert_eq!(ring.total_recorded(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn subscribers_see_events_before_eviction() {
        let mut sink: EventSink<u32> = EventSink::new(1);
        sink.subscribe(Box::new(CountingSubscriber::new()));
        assert!(sink.is_enabled());
        for i in 0..5u32 {
            sink.emit(t(i as u64), i);
        }
        assert_eq!(sink.ring().len(), 1);
        // The ring only holds the newest event, but the tap saw all five —
        // verified indirectly through total_recorded.
        assert_eq!(sink.ring().total_recorded(), 5);
    }

    #[test]
    fn disabled_sink_skips_event_construction() {
        let mut sink: EventSink<u32> = EventSink::new(0);
        let mut built = false;
        sink.emit_with(t(0), || {
            built = true;
            1
        });
        assert!(!built, "event constructed on the disabled path");
    }

    #[test]
    fn display_matches_legacy_trace_lines() {
        let task = ObjName::new("tick").unwrap();
        assert_eq!(
            KernelEvent::TaskStarted { task }.to_string(),
            "start task `tick`"
        );
        assert_eq!(
            KernelEvent::TaskSuspended {
                task,
                deferred: true
            }
            .to_string(),
            "suspend task `tick` (running; effective at cycle end)"
        );
        assert_eq!(
            KernelEvent::UserLog {
                task,
                message: "hello".into()
            }
            .to_string(),
            "[tick] hello"
        );
    }
}
