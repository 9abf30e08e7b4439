//! The discrete-event real-time kernel.
//!
//! [`Kernel`] simulates an RTAI-like dual-kernel machine in virtual time:
//! per-CPU fixed-priority preemptive scheduling with round-robin among equal
//! priorities, a periodic/oneshot hardware-timer model with calibrated error
//! (see [`crate::latency`]), named shared memory, bounded mailboxes, and a
//! Linux domain whose tasks run only when no real-time task is runnable.
//!
//! A `Kernel` instance is deterministic and runs on the calling thread:
//! all randomness comes from one seeded generator, so an experiment is
//! reproducible from its configuration alone. Multi-threaded execution is
//! layered *above* this type — [`crate::exec::ParallelExecutor`] runs one
//! kernel shard per worker thread and synchronizes them at epoch barriers,
//! while [`crate::exec::DeterministicExecutor`] drives a single kernel
//! exactly as the executive does.
//!
//! # Execution model
//!
//! Task behaviour is supplied as a [`TaskBody`]. When a release is
//! dispatched, the body runs *logically at the dispatch instant*; the CPU
//! time it charges (via [`TaskCtx::compute`] plus fixed per-operation IPC
//! costs) then occupies the CPU in virtual time, during which the task can
//! be preempted by more urgent releases. Release→dispatch latency — the
//! quantity in the paper's Table 1 — is recorded for tasks created with
//! latency tracking.

use crate::error::KernelError;
use crate::fifo::FifoRegistry;
use crate::latency::{LatencyStats, LoadMode, TimerJitterModel, TimerMode};
use crate::mailbox::MailboxRegistry;
use crate::rng::SimRng;
use crate::shm::ShmRegistry;
use crate::task::{
    Domain, IntoObjName, NameMap, ObjName, Priority, ReleasePolicy, TaskBody, TaskConfig, TaskId,
    TaskState,
};
use crate::time::{LatencyNs, SimDuration, SimTime};
use crate::trace::{EventSink, KernelEvent, TraceRing, TraceSubscriber};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

/// Static configuration of a [`Kernel`].
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Number of CPUs.
    pub cpus: u32,
    /// Seed for all stochastic models.
    pub seed: u64,
    /// Hardware-timer error model.
    pub timer: TimerJitterModel,
    /// Initial system load regime.
    pub load_mode: LoadMode,
    /// Round-robin quantum among equal-priority tasks.
    pub rr_quantum: SimDuration,
    /// CPU cost charged per shared-memory read/write.
    pub shm_op_cost: SimDuration,
    /// CPU cost charged per mailbox send/receive (including empty polls).
    pub mbx_op_cost: SimDuration,
    /// Capacity of the in-kernel trace ring buffer (0 disables tracing).
    pub trace_capacity: usize,
    /// Whether latency-tracked tasks also retain every raw sample (for
    /// AVEDEV, percentiles and histograms). Off by default: tracking then
    /// keeps only the constant-space streaming statistics.
    pub latency_samples: bool,
}

impl KernelConfig {
    /// A single-CPU kernel with the calibrated periodic-mode timer.
    pub fn new(seed: u64) -> Self {
        KernelConfig {
            cpus: 1,
            seed,
            timer: TimerJitterModel::calibrated(TimerMode::Periodic),
            load_mode: LoadMode::Light,
            rr_quantum: SimDuration::from_millis(1),
            shm_op_cost: SimDuration::from_nanos(120),
            mbx_op_cost: SimDuration::from_nanos(180),
            trace_capacity: 0,
            latency_samples: false,
        }
    }

    /// Sets the CPU count.
    pub fn with_cpus(mut self, cpus: u32) -> Self {
        assert!(cpus > 0, "need at least one CPU");
        self.cpus = cpus;
        self
    }

    /// Sets the timer model.
    pub fn with_timer(mut self, timer: TimerJitterModel) -> Self {
        self.timer = timer;
        self
    }

    /// Sets the load regime.
    pub fn with_load_mode(mut self, mode: LoadMode) -> Self {
        self.load_mode = mode;
        self
    }

    /// Enables the trace ring buffer.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Makes latency-tracked tasks retain their raw samples (see
    /// [`LatencyStats::with_samples`]).
    pub fn with_latency_samples(mut self) -> Self {
        self.latency_samples = true;
        self
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig::new(0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Hardware-timer interrupt releasing a task. The *ideal* release time is
    /// stored on the task; the event time includes the sampled timer error.
    Release { task: TaskId, ideal: SimTime },
    /// The running task's charged execution time is exhausted.
    Finish { task: TaskId, gen: u64 },
    /// Round-robin quantum expiry for the task dispatched with `gen`.
    Timeslice { task: TaskId, gen: u64 },
    /// Deferred scheduling decision for one CPU. Releases enqueue and then
    /// post this, so all releases at the same instant are queued before any
    /// dispatch happens — priority order is respected even among
    /// simultaneous releases.
    Dispatch { cpu: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EventEntry {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Task {
    /// This task's id; a slot lookup matches it to reject stale ids.
    id: TaskId,
    cfg: TaskConfig,
    state: TaskState,
    body: Option<Box<dyn TaskBody>>,
    /// Ideal release time of the cycle currently queued/running.
    pending_ideal: Option<SimTime>,
    /// A mailbox wakeup has queued a Release event that has not been
    /// processed yet. Stops same-instant cycle ends elsewhere from
    /// double-waking (and spuriously overrunning) the task for one message.
    wake_queued: bool,
    /// First ideal release of the periodic grid (set at start). Resuming
    /// re-anchors on `grid_anchor + k·period` so a suspend/resume pair
    /// never shifts the task's release phase.
    grid_anchor: SimTime,
    /// Remaining execution when preempted mid-cycle.
    remaining: SimDuration,
    /// Dispatch generation; cancels stale Finish/Timeslice events.
    run_gen: u64,
    /// Ready-queue generation: each heap entry is stamped with the value at
    /// push time, and invalidation (suspend/delete) just bumps it. Stale
    /// entries are skipped when they surface at the head — O(1) removal
    /// instead of a linear heap rebuild.
    ready_gen: u64,
    /// Whether a round-robin quantum is armed for the current slice.
    quantum_armed: bool,
    /// When the current execution slice started (valid while Running).
    slice_start: SimTime,
    /// Time at which the current cycle would finish if undisturbed.
    finish_at: SimTime,
    cycles: u64,
    overruns: u64,
    budget_overruns: u64,
    /// Hook panics contained by the kernel (lifetime count).
    faults: u64,
    /// Rendered payload of the most recent contained panic.
    fault_cause: Option<String>,
    cpu_time: SimDuration,
    stats: LatencyStats,
    /// Response time (release → finish) samples, when tracking is on.
    response_stats: LatencyStats,
    /// Cycles whose response time exceeded the period (implicit deadline).
    deadline_misses: u64,
    started: bool,
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("name", &self.cfg.name)
            .field("state", &self.state)
            .field("cycles", &self.cycles)
            .finish()
    }
}

/// The kernel's task table: a dense slab indexed by [`TaskId::slot`].
///
/// Deleting a task frees its slot (body, statistics and fault cause go
/// with it) and a later creation reuses it, so the table's size follows
/// the number of live tasks, not the number ever created. A stale id is
/// told apart from the slot's new occupant by the full id, which includes
/// a never-reused creation serial.
#[derive(Default)]
struct TaskSlab {
    slots: Vec<Option<Task>>,
    /// Vacant slot indices, reused last-freed first.
    free: Vec<usize>,
    /// Serial of the most recently created task (0 before the first).
    last_serial: u64,
    live: usize,
}

impl TaskSlab {
    fn insert(&mut self, make: impl FnOnce(TaskId) -> Task) -> TaskId {
        let slot = self.free.pop().unwrap_or(self.slots.len());
        assert!(slot < TaskId::MAX_SLOTS, "task table full");
        self.last_serial += 1;
        let id = TaskId::new(self.last_serial, slot);
        let task = Some(make(id));
        if slot == self.slots.len() {
            self.slots.push(task);
        } else {
            self.slots[slot] = task;
        }
        self.live += 1;
        id
    }

    fn get(&self, id: TaskId) -> Option<&Task> {
        self.slots
            .get(id.slot())
            .and_then(Option::as_ref)
            .filter(|t| t.id == id)
    }

    fn get_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        self.slots
            .get_mut(id.slot())
            .and_then(Option::as_mut)
            .filter(|t| t.id == id)
    }

    fn remove(&mut self, id: TaskId) -> Option<Task> {
        self.get(id)?;
        self.free.push(id.slot());
        self.live -= 1;
        self.slots[id.slot()].take()
    }

    /// True for an id this kernel issued whose task has been deleted.
    fn is_reaped(&self, id: TaskId) -> bool {
        id.raw() <= self.last_serial && id.slot() < self.slots.len() && self.get(id).is_none()
    }
}

impl std::ops::Index<TaskId> for TaskSlab {
    type Output = Task;

    fn index(&self, id: TaskId) -> &Task {
        self.get(id).expect("live task")
    }
}

#[derive(Debug, Default)]
struct Cpu {
    running: Option<TaskId>,
    /// Min-heap on (priority, enqueue seq): FIFO among equal priorities.
    /// The trailing field is the task's ready-queue generation at push time
    /// (lazy deletion; it never affects ordering — seq is unique).
    ready: BinaryHeap<Reverse<(Priority, u64, TaskId, u64)>>,
    busy_rt: SimDuration,
    busy_linux: SimDuration,
}

/// Aggregate scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Number of body dispatches (fresh cycles).
    pub dispatches: u64,
    /// Number of preemptions (a running task was displaced).
    pub preemptions: u64,
    /// Number of round-robin rotations.
    pub timeslices: u64,
    /// Releases discarded because the previous cycle had not finished.
    pub overruns: u64,
    /// Body panics contained by the kernel (tasks parked in `Faulted`).
    pub faults: u64,
    /// Cycles finishing past their implicit deadline (latency-tracked
    /// periodic tasks), across all tasks including deleted ones.
    pub deadline_misses: u64,
}

/// The simulated real-time kernel. See the [module docs](self).
pub struct Kernel {
    cfg: KernelConfig,
    now: SimTime,
    seq: u64,
    /// Events for a later instant: releases, finishes and quantum
    /// expiries.
    future: BinaryHeap<Reverse<EventEntry>>,
    /// Events posted for the current instant, in posting order.
    due: VecDeque<EventEntry>,
    tasks: TaskSlab,
    names: NameMap<TaskId>,
    cpus: Vec<Cpu>,
    shm: ShmRegistry,
    mailboxes: MailboxRegistry,
    fifos: FifoRegistry,
    rng: SimRng,
    trace: EventSink<KernelEvent>,
    counters: SchedCounters,
    /// Aperiodic tasks to release when a mailbox receives a message,
    /// indexed by mailbox name (bind/unbind are O(log + bindings-per-box)
    /// instead of a linear scan of every binding).
    wakeups: BTreeMap<ObjName, Vec<TaskId>>,
    /// Tasks currently parked in [`TaskState::Faulted`], so supervision
    /// layers can poll for faults without scanning every task.
    faulted: BTreeSet<TaskId>,
    /// Reused across hook dispatches so a cycle's undo journal, the prior
    /// segment images it points into and the wakeup service's due list do
    /// not allocate in steady state.
    journal: Vec<UndoEntry>,
    undo_bytes: Vec<u8>,
    due_wakeups: Vec<(ObjName, TaskId)>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("tasks", &self.tasks.live)
            .field("pending_events", &(self.future.len() + self.due.len()))
            .finish()
    }
}

impl Kernel {
    /// Boots a kernel from its configuration.
    pub fn new(cfg: KernelConfig) -> Self {
        let rng = SimRng::from_seed(cfg.seed);
        let cpus = (0..cfg.cpus).map(|_| Cpu::default()).collect();
        Kernel {
            trace: EventSink::new(cfg.trace_capacity),
            rng,
            cpus,
            cfg,
            now: SimTime::ZERO,
            seq: 0,
            future: BinaryHeap::new(),
            due: VecDeque::new(),
            tasks: TaskSlab::default(),
            names: NameMap::default(),
            shm: ShmRegistry::new(),
            mailboxes: MailboxRegistry::new(),
            fifos: FifoRegistry::new(),
            counters: SchedCounters::default(),
            wakeups: BTreeMap::new(),
            faulted: BTreeSet::new(),
            journal: Vec::new(),
            undo_bytes: Vec::new(),
            due_wakeups: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of CPUs on this kernel.
    pub fn cpu_count(&self) -> u32 {
        self.cpus.len() as u32
    }

    /// The active load regime.
    pub fn load_mode(&self) -> LoadMode {
        self.cfg.load_mode
    }

    /// Switches the load regime mid-run (scenario support).
    pub fn set_load_mode(&mut self, mode: LoadMode) {
        self.cfg.load_mode = mode;
        self.emit(KernelEvent::LoadModeChanged { mode });
    }

    /// Shared-memory registry (read access).
    pub fn shm(&self) -> &ShmRegistry {
        &self.shm
    }

    /// Shared-memory registry (management access from the non-RT side).
    pub fn shm_mut(&mut self) -> &mut ShmRegistry {
        &mut self.shm
    }

    /// Mailbox registry (read access).
    pub fn mailboxes(&self) -> &MailboxRegistry {
        &self.mailboxes
    }

    /// Mailbox registry (management access from the non-RT side).
    pub fn mailboxes_mut(&mut self) -> &mut MailboxRegistry {
        &mut self.mailboxes
    }

    /// FIFO registry (read access).
    pub fn fifos(&self) -> &FifoRegistry {
        &self.fifos
    }

    /// FIFO registry (management access from the non-RT side).
    pub fn fifos_mut(&mut self) -> &mut FifoRegistry {
        &mut self.fifos
    }

    /// Aggregate scheduler counters.
    pub fn counters(&self) -> SchedCounters {
        self.counters
    }

    /// The trace ring buffer: typed [`KernelEvent`]s, oldest first.
    pub fn trace(&self) -> &TraceRing<KernelEvent> {
        self.trace.ring()
    }

    /// Attaches a live tap that sees every kernel event at emission time,
    /// before ring eviction (and even with a zero-capacity ring).
    pub fn add_trace_subscriber(&mut self, subscriber: Box<dyn TraceSubscriber<KernelEvent>>) {
        self.trace.subscribe(subscriber);
    }

    fn emit(&mut self, event: KernelEvent) {
        self.trace.emit(self.now, event);
    }

    // ------------------------------------------------------------------
    // Task management
    // ------------------------------------------------------------------

    /// Creates a task in the `Dormant` state.
    ///
    /// # Errors
    ///
    /// [`KernelError::DuplicateTask`] if the name is taken,
    /// [`KernelError::NoSuchCpu`] if the pinned CPU does not exist.
    pub fn create_task(
        &mut self,
        cfg: TaskConfig,
        body: Box<dyn TaskBody>,
    ) -> Result<TaskId, KernelError> {
        if self.names.contains_key(&cfg.name) {
            return Err(KernelError::DuplicateTask(cfg.name));
        }
        if cfg.cpu as usize >= self.cpus.len() {
            return Err(KernelError::NoSuchCpu(cfg.cpu));
        }
        self.emit(KernelEvent::TaskCreated {
            task: cfg.name,
            cpu: cfg.cpu,
            priority: cfg.priority,
        });
        let name = cfg.name;
        let stats = if self.cfg.latency_samples {
            LatencyStats::with_samples
        } else {
            LatencyStats::new
        };
        let id = self.tasks.insert(|id| Task {
            id,
            cfg,
            state: TaskState::Dormant,
            body: Some(body),
            pending_ideal: None,
            wake_queued: false,
            grid_anchor: SimTime::ZERO,
            remaining: SimDuration::ZERO,
            run_gen: 0,
            ready_gen: 0,
            quantum_armed: false,
            slice_start: SimTime::ZERO,
            finish_at: SimTime::ZERO,
            cycles: 0,
            overruns: 0,
            budget_overruns: 0,
            faults: 0,
            fault_cause: None,
            cpu_time: SimDuration::ZERO,
            stats: stats(),
            response_stats: stats(),
            deadline_misses: 0,
            started: false,
        });
        self.names.insert(name, id);
        Ok(id)
    }

    /// Changes a dormant task's release policy (LXRT's
    /// `rt_task_make_periodic` path).
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] / [`KernelError::InvalidState`] if the
    /// task has already started.
    pub fn set_release_policy(
        &mut self,
        id: TaskId,
        policy: ReleasePolicy,
    ) -> Result<(), KernelError> {
        let task = self.tasks.get_mut(id).ok_or(KernelError::NoSuchTask(id))?;
        if task.state != TaskState::Dormant {
            return Err(KernelError::InvalidState {
                task: id,
                operation: "change release policy of",
                state: task.state,
            });
        }
        task.cfg.release = policy;
        Ok(())
    }

    /// Enables or disables latency tracking on an existing task.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] if the id is unknown.
    pub fn set_latency_tracking(&mut self, id: TaskId, on: bool) -> Result<(), KernelError> {
        let task = self.tasks.get_mut(id).ok_or(KernelError::NoSuchTask(id))?;
        task.cfg.track_latency = on;
        Ok(())
    }

    /// Starts a dormant task. Periodic tasks get their first release one
    /// period from now; aperiodic tasks wait for [`Kernel::trigger`].
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] / [`KernelError::InvalidState`].
    pub fn start_task(&mut self, id: TaskId) -> Result<(), KernelError> {
        let task = self.tasks.get_mut(id).ok_or(KernelError::NoSuchTask(id))?;
        if task.state != TaskState::Dormant {
            return Err(KernelError::InvalidState {
                task: id,
                operation: "start",
                state: task.state,
            });
        }
        task.state = TaskState::Waiting;
        let release = task.cfg.release;
        let name = task.cfg.name;
        let outcome = self.run_hook(id, Hook::Start);
        if outcome.faulted {
            // `on_start` panicked: the task is parked in `Faulted` and its
            // release chain is never begun.
            return Ok(());
        }
        self.emit(KernelEvent::TaskStarted { task: name });
        if let ReleasePolicy::Periodic { period } = release {
            let ideal = self.now + period;
            if let Some(task) = self.tasks.get_mut(id) {
                task.grid_anchor = ideal;
            }
            self.schedule_release(id, ideal);
        }
        Ok(())
    }

    /// Suspends a task: queued work completes its current cycle, further
    /// releases are discarded until [`Kernel::resume_task`].
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] / [`KernelError::InvalidState`].
    pub fn suspend_task(&mut self, id: TaskId) -> Result<(), KernelError> {
        let task = self.tasks.get_mut(id).ok_or(KernelError::NoSuchTask(id))?;
        match task.state {
            TaskState::Deleted | TaskState::Dormant | TaskState::Faulted => {
                Err(KernelError::InvalidState {
                    task: id,
                    operation: "suspend",
                    state: task.state,
                })
            }
            TaskState::Suspended => Ok(()),
            TaskState::Running => {
                // Takes effect at cycle end: the Finish handler checks state.
                task.state = TaskState::Suspended;
                let name = task.cfg.name;
                self.emit(KernelEvent::TaskSuspended {
                    task: name,
                    deferred: true,
                });
                Ok(())
            }
            TaskState::Ready => {
                task.state = TaskState::Suspended;
                task.pending_ideal = None;
                task.remaining = SimDuration::ZERO;
                let name = task.cfg.name;
                self.remove_from_ready(id);
                self.emit(KernelEvent::TaskSuspended {
                    task: name,
                    deferred: false,
                });
                Ok(())
            }
            TaskState::Waiting => {
                task.state = TaskState::Suspended;
                let name = task.cfg.name;
                self.emit(KernelEvent::TaskSuspended {
                    task: name,
                    deferred: false,
                });
                Ok(())
            }
        }
    }

    /// Resumes a suspended task. Periodic tasks rejoin their original
    /// release grid: the next release is the first grid point
    /// `start + k·period` strictly after now, so a suspend/resume pair (or
    /// a supervisor restart built on it) preserves the declared phase
    /// instead of shifting the grid to "now + period".
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] / [`KernelError::InvalidState`].
    pub fn resume_task(&mut self, id: TaskId) -> Result<(), KernelError> {
        let task = self.tasks.get_mut(id).ok_or(KernelError::NoSuchTask(id))?;
        if task.state != TaskState::Suspended {
            return Err(KernelError::InvalidState {
                task: id,
                operation: "resume",
                state: task.state,
            });
        }
        task.state = TaskState::Waiting;
        let release = task.cfg.release;
        let anchor = task.grid_anchor;
        let name = task.cfg.name;
        self.emit(KernelEvent::TaskResumed { task: name });
        if let ReleasePolicy::Periodic { period } = release {
            let ideal = next_grid_point(anchor, period, self.now);
            self.schedule_release(id, ideal);
        }
        Ok(())
    }

    /// Deletes a task, running its `on_stop` hook and freeing its name.
    ///
    /// The task is reaped: its body, statistics and fault cause are
    /// dropped and its table slot is recycled. Afterwards
    /// [`Kernel::task_state`] reports [`TaskState::Deleted`] for the id and
    /// every other per-task query returns `None`.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] if the id is unknown or already deleted.
    pub fn delete_task(&mut self, id: TaskId) -> Result<(), KernelError> {
        if self.tasks.get(id).is_none() {
            return Err(KernelError::NoSuchTask(id));
        }
        self.run_hook(id, Hook::Stop);
        let TaskConfig { name, cpu, .. } = self.tasks.remove(id).expect("checked above").cfg;
        self.names.remove(&name);
        self.faulted.remove(&id);
        self.drop_wakeup_bindings(id);
        // Queued ready entries and in-flight Release/Finish/Timeslice
        // events for the id find no task and are discarded.
        if self.cpus[cpu as usize].running == Some(id) {
            self.cpus[cpu as usize].running = None;
            self.try_dispatch(cpu);
        }
        self.emit(KernelEvent::TaskDeleted { task: name });
        Ok(())
    }

    /// Triggers one release of an aperiodic task.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] / [`KernelError::InvalidState`] (e.g.
    /// triggering a periodic or suspended task).
    pub fn trigger(&mut self, id: TaskId) -> Result<(), KernelError> {
        let task = self.tasks.get(id).ok_or(KernelError::NoSuchTask(id))?;
        if !matches!(task.cfg.release, ReleasePolicy::Aperiodic) {
            return Err(KernelError::InvalidState {
                task: id,
                operation: "trigger (periodic task)",
                state: task.state,
            });
        }
        match task.state {
            TaskState::Waiting => {
                let ideal = self.now;
                self.push_event(self.now, Event::Release { task: id, ideal });
                Ok(())
            }
            TaskState::Ready | TaskState::Running => {
                // Release while busy: counted as overrun, matching periodic
                // semantics.
                let t = self.tasks.get_mut(id).expect("present");
                t.overruns += 1;
                let name = t.cfg.name;
                self.counters.overruns += 1;
                self.emit(KernelEvent::Overrun { task: name });
                Ok(())
            }
            other => Err(KernelError::InvalidState {
                task: id,
                operation: "trigger",
                state: other,
            }),
        }
    }

    /// Arranges for `task` (aperiodic) to be released whenever the named
    /// mailbox receives a message — event-driven task semantics.
    ///
    /// # Errors
    ///
    /// [`KernelError::NoSuchTask`] / [`KernelError::BadName`].
    pub fn bind_mailbox_wakeup(&mut self, mailbox: &str, task: TaskId) -> Result<(), KernelError> {
        if self.tasks.get(task).is_none() {
            return Err(KernelError::NoSuchTask(task));
        }
        let name = ObjName::new(mailbox)?;
        let bound = self.wakeups.entry(name).or_default();
        if !bound.contains(&task) {
            bound.push(task);
        }
        Ok(())
    }

    /// Removes all mailbox wakeups bound to `task`.
    pub fn unbind_mailbox_wakeups(&mut self, task: TaskId) {
        self.drop_wakeup_bindings(task);
    }

    fn drop_wakeup_bindings(&mut self, task: TaskId) {
        self.wakeups.retain(|_, bound| {
            bound.retain(|t| *t != task);
            !bound.is_empty()
        });
    }

    /// Posts a message into a mailbox from the non-RT side, waking any
    /// bound aperiodic tasks. Returns `false` when the mailbox was full.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::error::IpcError`] as a kernel error.
    pub fn post(&mut self, mailbox: &str, msg: &[u8]) -> Result<bool, KernelError> {
        let queued = self.mailboxes.send(mailbox, msg)?;
        if queued {
            self.service_wakeups();
        }
        Ok(queued)
    }

    /// Releases every wakeup-bound waiting task whose mailbox has pending
    /// messages.
    fn service_wakeups(&mut self) {
        let mut due = std::mem::take(&mut self.due_wakeups);
        for (&mbx, bound) in &self.wakeups {
            // Skip mailboxes without pending messages wholesale.
            if self.mailboxes.get_obj(&mbx).is_none_or(|m| m.is_empty()) {
                continue;
            }
            due.extend(
                bound
                    .iter()
                    .filter(|&&t| {
                        self.tasks
                            .get(t)
                            .is_some_and(|t| t.state == TaskState::Waiting && !t.wake_queued)
                    })
                    .map(|&t| (mbx, t)),
            );
        }
        for &(mailbox, task) in &due {
            let Some(t) = self.tasks.get_mut(task) else {
                continue;
            };
            t.wake_queued = true;
            let name = t.cfg.name;
            if self.trace.is_enabled() {
                self.emit(KernelEvent::MailboxWake {
                    mailbox,
                    task: name,
                });
            }
            let ideal = self.now;
            self.push_event(self.now, Event::Release { task, ideal });
        }
        due.clear();
        self.due_wakeups = due;
    }

    /// Looks up a task by name.
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.names.get(&ObjName::new(name).ok()?).copied()
    }

    /// Current state of a task: [`TaskState::Deleted`] for a deleted
    /// task, `None` for an id this kernel never issued.
    pub fn task_state(&self, id: TaskId) -> Option<TaskState> {
        match self.tasks.get(id) {
            Some(t) => Some(t.state),
            None => self.tasks.is_reaped(id).then_some(TaskState::Deleted),
        }
    }

    /// Completed cycles of a task.
    pub fn task_cycles(&self, id: TaskId) -> Option<u64> {
        self.tasks.get(id).map(|t| t.cycles)
    }

    /// Releases discarded because the task was still busy.
    pub fn task_overruns(&self, id: TaskId) -> Option<u64> {
        self.tasks.get(id).map(|t| t.overruns)
    }

    /// Cycles whose execution was clamped to the configured budget.
    pub fn task_budget_overruns(&self, id: TaskId) -> Option<u64> {
        self.tasks.get(id).map(|t| t.budget_overruns)
    }

    /// Hook panics the kernel contained for this task.
    pub fn task_faults(&self, id: TaskId) -> Option<u64> {
        self.tasks.get(id).map(|t| t.faults)
    }

    /// Tasks currently parked in [`TaskState::Faulted`], ascending id.
    ///
    /// A task leaves the set only when deleted; supervision layers poll
    /// this instead of scanning every task for its state.
    pub fn faulted_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.faulted.iter().copied()
    }

    /// Rendered payload of the task's most recent contained panic, if any.
    pub fn task_fault_cause(&self, id: TaskId) -> Option<&str> {
        self.tasks.get(id).and_then(|t| t.fault_cause.as_deref())
    }

    /// Total CPU time the task has consumed.
    pub fn task_cpu_time(&self, id: TaskId) -> Option<SimDuration> {
        self.tasks.get(id).map(|t| t.cpu_time)
    }

    /// Latency statistics of a task (empty unless created with tracking).
    pub fn task_stats(&self, id: TaskId) -> Option<&LatencyStats> {
        self.tasks.get(id).map(|t| &t.stats)
    }

    /// Response-time (release → completion) statistics of a task (empty
    /// unless created with tracking).
    pub fn task_response_stats(&self, id: TaskId) -> Option<&LatencyStats> {
        self.tasks.get(id).map(|t| &t.response_stats)
    }

    /// Cycles whose response time exceeded the period (implicit-deadline
    /// misses), for tracked periodic tasks.
    pub fn task_deadline_misses(&self, id: TaskId) -> Option<u64> {
        self.tasks.get(id).map(|t| t.deadline_misses)
    }

    /// Name of a task.
    pub fn task_name(&self, id: TaskId) -> Option<&ObjName> {
        self.tasks.get(id).map(|t| &t.cfg.name)
    }

    /// Fraction of elapsed time CPU `cpu` spent running RT-domain work.
    pub fn cpu_rt_utilization(&self, cpu: u32) -> f64 {
        let elapsed = self.now.as_nanos();
        if elapsed == 0 {
            return 0.0;
        }
        self.cpus[cpu as usize].busy_rt.as_nanos() as f64 / elapsed as f64
    }

    /// Fraction of elapsed time CPU `cpu` spent running Linux-domain work.
    pub fn cpu_linux_utilization(&self, cpu: u32) -> f64 {
        let elapsed = self.now.as_nanos();
        if elapsed == 0 {
            return 0.0;
        }
        self.cpus[cpu as usize].busy_linux.as_nanos() as f64 / elapsed as f64
    }

    // ------------------------------------------------------------------
    // Event engine
    // ------------------------------------------------------------------

    /// Stamps an event with the next sequence number and files it: an
    /// event for the current instant joins the `due` FIFO, a later one the
    /// heap. Events are handled in `(time, seq)` order whichever queue
    /// holds them.
    fn push_event(&mut self, time: SimTime, event: Event) {
        let time = time.max(self.now);
        self.seq += 1;
        let entry = EventEntry {
            time,
            seq: self.seq,
            event,
        };
        if time == self.now {
            self.due.push_back(entry);
        } else {
            self.future.push(Reverse(entry));
        }
    }

    /// Removes and returns the earliest pending event by `(time, seq)`,
    /// if it is due by `deadline`.
    fn pop_event(&mut self, deadline: SimTime) -> Option<EventEntry> {
        let due = self.due.front().copied();
        let later = self.future.peek().map(|Reverse(e)| *e);
        let next = match (due, later) {
            (Some(d), Some(l)) => d.min(l),
            (d, l) => d.or(l)?,
        };
        if next.time > deadline {
            return None;
        }
        if due.is_some_and(|d| d.seq == next.seq) {
            self.due.pop_front()
        } else {
            self.future.pop().map(|Reverse(e)| e)
        }
    }

    fn schedule_release(&mut self, id: TaskId, ideal: SimTime) {
        let error: LatencyNs = self
            .cfg
            .timer
            .sample_error(&mut self.rng, self.cfg.load_mode);
        let actual = ideal.offset(error);
        self.push_event(actual, Event::Release { task: id, ideal });
    }

    /// Runs the simulation until `deadline` (inclusive of events at it).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(entry) = self.pop_event(deadline) {
            debug_assert!(entry.time >= self.now, "time went backwards");
            self.now = entry.time;
            self.handle(entry.event);
        }
        self.now = self.now.max(deadline);
    }

    /// Runs the simulation for a span of virtual time.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Release { task, ideal } => self.on_release(task, ideal),
            Event::Finish { task, gen } => self.on_finish(task, gen),
            Event::Timeslice { task, gen } => self.on_timeslice(task, gen),
            Event::Dispatch { cpu } => self.try_dispatch(cpu),
        }
    }

    fn on_release(&mut self, id: TaskId, ideal: SimTime) {
        let Some(task) = self.tasks.get_mut(id) else {
            return;
        };
        task.wake_queued = false;
        // Schedule the next periodic release first so the grid never stalls
        // (suspended/deleted tasks break the chain deliberately).
        let reschedule = match (task.state, task.cfg.release) {
            (
                TaskState::Deleted | TaskState::Suspended | TaskState::Dormant | TaskState::Faulted,
                _,
            ) => None,
            (_, ReleasePolicy::Periodic { period }) => Some(ideal + period),
            (_, ReleasePolicy::Aperiodic) => None,
        };
        match task.state {
            TaskState::Waiting => {
                task.state = TaskState::Ready;
                task.pending_ideal = Some(ideal);
                let cpu = task.cfg.cpu;
                let prio = task.cfg.priority;
                let gen = task.ready_gen;
                let name = self.trace.is_enabled().then_some(task.cfg.name);
                self.seq += 1;
                let seq = self.seq;
                self.cpus[cpu as usize]
                    .ready
                    .push(Reverse((prio, seq, id, gen)));
                if let Some(task) = name {
                    self.emit(KernelEvent::Release { task, ideal });
                }
                if let Some(next) = reschedule {
                    self.schedule_release(id, next);
                }
                self.push_event(self.now, Event::Dispatch { cpu });
            }
            TaskState::Ready | TaskState::Running => {
                task.overruns += 1;
                self.counters.overruns += 1;
                let name = self.trace.is_enabled().then_some(task.cfg.name);
                if let Some(task) = name {
                    self.emit(KernelEvent::Overrun { task });
                }
                if let Some(next) = reschedule {
                    self.schedule_release(id, next);
                }
            }
            TaskState::Suspended | TaskState::Dormant | TaskState::Deleted | TaskState::Faulted => {
                // Release discarded; chain intentionally broken.
            }
        }
    }

    fn on_finish(&mut self, id: TaskId, gen: u64) {
        let Some(task) = self.tasks.get_mut(id) else {
            return;
        };
        if task.run_gen != gen {
            return; // stale event from a cancelled slice
        }
        let cpu = task.cfg.cpu;
        let domain = task.cfg.domain;
        let slice = self.now.duration_since(task.slice_start);
        task.cpu_time += slice;
        task.cycles += 1;
        task.remaining = SimDuration::ZERO;
        task.run_gen += 1;
        let mut missed = false;
        let mut deadline_missed = None;
        if task.cfg.track_latency {
            if let Some(ideal) = task.pending_ideal {
                let response = self.now.signed_delta(ideal);
                task.response_stats.record(response);
                if let ReleasePolicy::Periodic { period } = task.cfg.release {
                    if response > period.as_nanos() as i64 {
                        task.deadline_misses += 1;
                        // The aggregate counter must tick regardless of
                        // tracing — admission validation reads it from
                        // `counters()` with the trace ring disabled.
                        missed = true;
                        if self.trace.is_enabled() {
                            deadline_missed = Some((task.cfg.name, response));
                        }
                    }
                }
            }
        }
        task.pending_ideal = None;
        let mut rerelease = false;
        if task.state == TaskState::Running {
            task.state = TaskState::Waiting;
            rerelease = task.cfg.continuous;
        }
        // If state is Suspended the suspend was requested mid-cycle and is
        // now effective: stay Suspended, no further releases are queued.
        self.account_busy(cpu, domain, slice);
        self.cpus[cpu as usize].running = None;
        if missed {
            self.counters.deadline_misses += 1;
        }
        if let Some((task, response)) = deadline_missed {
            self.emit(KernelEvent::DeadlineMiss { task, response });
        }
        if rerelease {
            let ideal = self.now;
            self.push_event(self.now, Event::Release { task: id, ideal });
        }
        self.try_dispatch(cpu);
    }

    fn on_timeslice(&mut self, id: TaskId, gen: u64) {
        let Some(task) = self.tasks.get(id) else {
            return;
        };
        if task.run_gen != gen || task.state != TaskState::Running {
            return;
        }
        let cpu = task.cfg.cpu;
        let prio = task.cfg.priority;
        let name = self.trace.is_enabled().then_some(task.cfg.name);
        // Rotate only if an equal-priority peer is waiting; more urgent peers
        // would already have preempted and less urgent ones must keep waiting.
        self.prune_ready_head(cpu);
        let head_prio = self.cpus[cpu as usize]
            .ready
            .peek()
            .map(|Reverse((p, _, _, _))| *p);
        if head_prio == Some(prio) {
            self.counters.timeslices += 1;
            if let Some(task) = name {
                self.emit(KernelEvent::Timeslice { task, cpu });
            }
            self.preempt_running(cpu);
            self.try_dispatch(cpu);
        }
    }

    /// Displaces the running task on `cpu` back into the ready queue,
    /// preserving its remaining execution time.
    fn preempt_running(&mut self, cpu: u32) {
        let Some(running_id) = self.cpus[cpu as usize].running.take() else {
            return;
        };
        let task = self.tasks.get_mut(running_id).expect("running task exists");
        let progressed = self.now.duration_since(task.slice_start);
        task.cpu_time += progressed;
        let domain = task.cfg.domain;
        task.remaining = task.finish_at.duration_since(self.now);
        task.run_gen += 1; // cancels its Finish/Timeslice events
        task.state = TaskState::Ready;
        let prio = task.cfg.priority;
        let gen = task.ready_gen;
        self.seq += 1;
        let seq = self.seq;
        self.cpus[cpu as usize]
            .ready
            .push(Reverse((prio, seq, running_id, gen)));
        self.account_busy(cpu, domain, progressed);
    }

    fn account_busy(&mut self, cpu: u32, domain: Domain, span: SimDuration) {
        match domain {
            Domain::RealTime => self.cpus[cpu as usize].busy_rt += span,
            Domain::Linux => self.cpus[cpu as usize].busy_linux += span,
        }
    }

    /// Invalidates any queued ready entry for `id` — O(1) lazy deletion.
    /// Bumping the task's ready generation orphans the heap entry, which is
    /// discarded when it surfaces at the head ([`Kernel::prune_ready_head`]).
    /// The supervisor's restart path suspends and deletes tasks routinely,
    /// so this must not be a linear heap rebuild.
    fn remove_from_ready(&mut self, id: TaskId) {
        if let Some(task) = self.tasks.get_mut(id) {
            task.ready_gen = task.ready_gen.wrapping_add(1);
        }
    }

    /// Pops stale entries (deleted/suspended/re-queued tasks) off the head
    /// of `cpu`'s ready queue so callers can trust `peek()`. Every heap
    /// entry is popped at most once across the run, so the amortized cost
    /// of lazy deletion is O(log n) per push, same as eager removal's pop.
    fn prune_ready_head(&mut self, cpu: u32) {
        while let Some(Reverse((_, _, id, gen))) = self.cpus[cpu as usize].ready.peek() {
            let live = self
                .tasks
                .get(*id)
                .is_some_and(|t| t.state == TaskState::Ready && t.ready_gen == *gen);
            if live {
                return;
            }
            self.cpus[cpu as usize].ready.pop();
        }
    }

    /// Core dispatch decision for one CPU.
    fn try_dispatch(&mut self, cpu: u32) {
        loop {
            self.prune_ready_head(cpu);
            let head = self.cpus[cpu as usize]
                .ready
                .peek()
                .map(|Reverse((p, s, t, _))| (*p, *s, *t));
            let Some((head_prio, _, head_id)) = head else {
                return;
            };
            if let Some(running_id) = self.cpus[cpu as usize].running {
                let running_prio = self.tasks[running_id].cfg.priority;
                if head_prio.preempts(running_prio) {
                    self.counters.preemptions += 1;
                    if self.trace.is_enabled() {
                        let task = self.tasks[running_id].cfg.name;
                        self.emit(KernelEvent::Preempt { task, cpu });
                    }
                    self.preempt_running(cpu);
                    continue; // re-evaluate with the CPU now free
                }
                // An equal-priority peer arrived while another runs: arm the
                // round-robin quantum if it is not already ticking.
                if head_prio == running_prio {
                    let running = self.tasks.get_mut(running_id).expect("running exists");
                    if !running.quantum_armed {
                        running.quantum_armed = true;
                        let gen = running.run_gen;
                        let slice_end = self.now + self.cfg.rr_quantum;
                        self.push_event(
                            slice_end,
                            Event::Timeslice {
                                task: running_id,
                                gen,
                            },
                        );
                    }
                }
                return;
            }
            // CPU idle: dispatch the head.
            self.cpus[cpu as usize].ready.pop();
            let task = self.tasks.get_mut(head_id).expect("queued task exists");
            if task.state != TaskState::Ready {
                continue; // stale entry (suspended/deleted after queuing)
            }
            task.state = TaskState::Running;
            task.slice_start = self.now;
            task.run_gen += 1;
            let gen = task.run_gen;
            self.cpus[cpu as usize].running = Some(head_id);

            let exec = if !task.remaining.is_zero() {
                // Resuming a preempted cycle: the body already ran.
                let rem = task.remaining;
                task.remaining = SimDuration::ZERO;
                rem
            } else {
                // Fresh cycle: record latency, run the body, charge its cost.
                self.counters.dispatches += 1;
                let latency = task
                    .pending_ideal
                    .map(|ideal| self.now.signed_delta(ideal))
                    .unwrap_or(0);
                if task.cfg.track_latency && task.pending_ideal.is_some() {
                    task.stats.record(latency);
                }
                let base = task.cfg.base_cost;
                let budget = task.cfg.exec_budget;
                if self.trace.is_enabled() {
                    let task = self.tasks[head_id].cfg.name;
                    self.emit(KernelEvent::Dispatch { task, cpu, latency });
                }
                let outcome = self.run_body_cycle(head_id);
                if outcome.faulted {
                    // The body panicked at the dispatch instant: the unwind
                    // was contained, partial port writes rolled back, and
                    // the task parked in `Faulted` by `run_hook`. The cycle
                    // never consumes virtual CPU time; free the CPU and
                    // look at the next ready task.
                    let task = self.tasks.get_mut(head_id).expect("still exists");
                    task.pending_ideal = None;
                    task.remaining = SimDuration::ZERO;
                    task.run_gen += 1;
                    task.quantum_armed = false;
                    self.cpus[cpu as usize].running = None;
                    continue;
                }
                let mut exec = base + outcome.charged;
                if let Some(budget) = budget {
                    if exec > budget {
                        let demanded = exec;
                        exec = budget;
                        let task = self.tasks.get_mut(head_id).expect("still exists");
                        task.budget_overruns += 1;
                        if self.trace.is_enabled() {
                            let task = self.tasks[head_id].cfg.name;
                            self.emit(KernelEvent::BudgetClamp {
                                task,
                                demanded,
                                budget,
                            });
                        }
                    }
                }
                exec
            };
            let exec = if exec.is_zero() {
                SimDuration::from_nanos(1)
            } else {
                exec
            };
            let task = self.tasks.get_mut(head_id).expect("still exists");
            task.finish_at = self.now + exec;
            let finish_at = task.finish_at;
            self.push_event(finish_at, Event::Finish { task: head_id, gen });

            // Round-robin: arm a quantum if an equal-priority peer waits.
            self.prune_ready_head(cpu);
            let peer_same_prio = self.cpus[cpu as usize]
                .ready
                .peek()
                .map(|Reverse((p, _, _, _))| *p == head_prio)
                .unwrap_or(false);
            let task = self.tasks.get_mut(head_id).expect("still exists");
            task.quantum_armed = peer_same_prio;
            if peer_same_prio {
                let slice_end = self.now + self.cfg.rr_quantum;
                self.push_event(slice_end, Event::Timeslice { task: head_id, gen });
            }
            return;
        }
    }

    /// Runs the task body's `on_cycle`, returning the CPU time it charged
    /// and whether the body panicked out of the hook.
    fn run_body_cycle(&mut self, id: TaskId) -> HookOutcome {
        let outcome = self.run_hook(id, Hook::Cycle);
        // The body may have sent into wakeup-bound mailboxes — but a
        // faulted cycle's sends were rolled back, so nothing to service.
        if !outcome.faulted && !self.wakeups.is_empty() {
            self.service_wakeups();
        }
        outcome
    }

    /// Dispatches one body hook under fault containment.
    ///
    /// The hook runs inside `catch_unwind`; every mutating port operation
    /// the body performs is journaled by [`TaskCtx`], and on a panic the
    /// journal is replayed in reverse so the faulting cycle's partial
    /// writes are never published (reads/receives are *not* undone —
    /// consumed input is at-most-once, like a crash after a real dequeue).
    /// The task is parked in [`TaskState::Faulted`] (except on the stop
    /// hook, where deletion proceeds regardless) and a
    /// [`KernelEvent::TaskFault`] is emitted.
    fn run_hook(&mut self, id: TaskId, hook: Hook) -> HookOutcome {
        let Some(task) = self.tasks.get_mut(id) else {
            return HookOutcome::default();
        };
        let Some(mut body) = task.body.take() else {
            return HookOutcome::default();
        };
        let name = task.cfg.name;
        let cycle = task.cycles;
        let started = task.started;
        if hook == Hook::Start || hook == Hook::Cycle {
            task.started = true;
        }
        let mut journal = std::mem::take(&mut self.journal);
        let mut undo_bytes = std::mem::take(&mut self.undo_bytes);
        let result = {
            let mut ctx = TaskCtx {
                now: self.now,
                task: id,
                name,
                cycle,
                charged: SimDuration::ZERO,
                journal: &mut journal,
                undo_bytes: &mut undo_bytes,
                shm: &mut self.shm,
                mailboxes: &mut self.mailboxes,
                fifos: &mut self.fifos,
                rng: &mut self.rng,
                trace: &mut self.trace,
                shm_op_cost: self.cfg.shm_op_cost,
                mbx_op_cost: self.cfg.mbx_op_cost,
            };
            catch_unwind_quietly(move || {
                match hook {
                    Hook::Start => body.on_start(&mut ctx),
                    Hook::Cycle => {
                        if !started {
                            body.on_start(&mut ctx);
                        }
                        body.on_cycle(&mut ctx)
                    }
                    Hook::Stop => body.on_stop(&mut ctx),
                }
                (body, ctx.charged)
            })
        };
        let outcome = match result {
            Ok((body, charged)) => {
                if let Some(task) = self.tasks.get_mut(id) {
                    task.body = Some(body);
                }
                journal.clear();
                HookOutcome {
                    charged,
                    faulted: false,
                }
            }
            Err(payload) => {
                // Reverse-replay the journal: later writes are undone first
                // so overlapping operations restore the pre-cycle image.
                for entry in journal.drain(..).rev() {
                    match entry {
                        UndoEntry::ShmWrite { name, at, len } => {
                            self.shm.undo_write(&name, &undo_bytes[at..at + len])
                        }
                        UndoEntry::MailboxSend { name, accepted } => {
                            self.mailboxes.undo_send(&name, accepted)
                        }
                        UndoEntry::FifoPut {
                            name,
                            accepted,
                            truncated,
                        } => self.fifos.undo_put(&name, accepted, truncated),
                    }
                }
                let cause = render_panic(payload.as_ref());
                if let Some(task) = self.tasks.get_mut(id) {
                    // The body went down with the unwind; the task can
                    // never run again, only be deleted.
                    task.faults += 1;
                    task.fault_cause = Some(cause.clone());
                    if hook != Hook::Stop {
                        task.state = TaskState::Faulted;
                        self.faulted.insert(id);
                    }
                }
                self.counters.faults += 1;
                self.emit(KernelEvent::TaskFault {
                    task: name,
                    cycle,
                    cause,
                });
                HookOutcome {
                    charged: SimDuration::ZERO,
                    faulted: true,
                }
            }
        };
        undo_bytes.clear();
        self.journal = journal;
        self.undo_bytes = undo_bytes;
        outcome
    }
}

/// First grid point `anchor + k·period` strictly after `now` (`k ≥ 0`).
fn next_grid_point(anchor: SimTime, period: SimDuration, now: SimTime) -> SimTime {
    if now < anchor {
        return anchor;
    }
    let p = period.as_nanos().max(1);
    let k = now.duration_since(anchor).as_nanos() / p + 1;
    anchor + SimDuration::from_nanos(k * p)
}

/// Renders a caught panic payload to readable text.
fn render_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

std::thread_local! {
    /// True while this thread is inside the kernel's contained hook call;
    /// the global panic hook stays silent so an *injected* fault does not
    /// spam stderr (real, uncontained panics still print).
    static SUPPRESS_PANIC_REPORT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: std::sync::Once = std::sync::Once::new();

/// `catch_unwind` with the default panic report suppressed for the
/// duration of the call. The replacement hook chains to the previous one
/// and is installed once per process; the suppression flag is thread-local
/// so parallel test threads never silence each other.
fn catch_unwind_quietly<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn std::any::Any + Send>> {
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_REPORT.with(std::cell::Cell::get) {
                previous(info);
            }
        }));
    });
    SUPPRESS_PANIC_REPORT.with(|flag| flag.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    SUPPRESS_PANIC_REPORT.with(|flag| flag.set(false));
    result
}

/// What one hook dispatch produced: the charged CPU time, and whether the
/// body panicked (in which case nothing was charged or published).
#[derive(Debug, Default, Clone, Copy)]
struct HookOutcome {
    charged: SimDuration,
    faulted: bool,
}

/// One reversible port mutation recorded while a body hook runs.
#[derive(Debug)]
enum UndoEntry {
    /// A successful SHM write; the pre-write segment image is
    /// `undo_bytes[at..at + len]`.
    ShmWrite {
        name: ObjName,
        at: usize,
        len: usize,
    },
    /// A mailbox send attempt (`accepted == false` counted a rejection).
    MailboxSend { name: ObjName, accepted: bool },
    /// A FIFO append that took `accepted` bytes.
    FifoPut {
        name: ObjName,
        accepted: usize,
        truncated: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hook {
    Start,
    Cycle,
    Stop,
}

/// Execution context handed to a [`TaskBody`] while it runs.
///
/// All IPC operations charge their fixed CPU cost automatically; additional
/// computation is charged explicitly with [`TaskCtx::compute`].
pub struct TaskCtx<'a> {
    now: SimTime,
    task: TaskId,
    name: ObjName,
    cycle: u64,
    charged: SimDuration,
    /// Reversible-mutation log for fault containment; replayed in reverse
    /// by [`Kernel::run_hook`] when the body panics.
    journal: &'a mut Vec<UndoEntry>,
    /// The prior segment images `journal`'s SHM writes point into.
    undo_bytes: &'a mut Vec<u8>,
    shm: &'a mut ShmRegistry,
    mailboxes: &'a mut MailboxRegistry,
    fifos: &'a mut FifoRegistry,
    rng: &'a mut SimRng,
    trace: &'a mut EventSink<KernelEvent>,
    shm_op_cost: SimDuration,
    mbx_op_cost: SimDuration,
}

impl std::fmt::Debug for TaskCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCtx")
            .field("task", &self.name)
            .field("now", &self.now)
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl TaskCtx<'_> {
    /// Virtual time at dispatch.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This task's id.
    pub fn task_id(&self) -> TaskId {
        self.task
    }

    /// This task's name.
    pub fn task_name(&self) -> &ObjName {
        &self.name
    }

    /// Zero-based index of the current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// CPU time charged so far this cycle.
    pub fn charged(&self) -> SimDuration {
        self.charged
    }

    /// Charges `span` of CPU time (the task's computation).
    pub fn compute(&mut self, span: SimDuration) {
        self.charged += span;
    }

    /// Charges a randomized computation in `[mean/2, mean*3/2)`.
    pub fn compute_about(&mut self, mean: SimDuration) {
        let ns = mean.as_nanos();
        if ns == 0 {
            return;
        }
        let sampled = self.rng.uniform_u64(ns / 2, ns + ns / 2 + 1);
        self.charged += SimDuration::from_nanos(sampled);
    }

    /// Writes a whole shared-memory segment; charges the SHM op cost.
    ///
    /// Like every port operation here, it takes the object's name as an
    /// [`ObjName`], validated once up front, or as a string validated on
    /// each call.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::error::IpcError`] from the registry.
    pub fn shm_write(
        &mut self,
        name: impl IntoObjName,
        buf: &[u8],
    ) -> Result<(), crate::error::IpcError> {
        self.charged += self.shm_op_cost;
        let name = name.into_obj_name()?;
        let at = self.undo_bytes.len();
        self.shm.write_obj(name, buf, Some(self.undo_bytes))?;
        self.journal.push(UndoEntry::ShmWrite {
            name,
            at,
            len: buf.len(),
        });
        Ok(())
    }

    /// Reads a whole shared-memory segment; charges the SHM op cost.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::error::IpcError`] from the registry.
    pub fn shm_read(&mut self, name: impl IntoObjName) -> Result<Vec<u8>, crate::error::IpcError> {
        self.charged += self.shm_op_cost;
        self.shm.read_obj(name.into_obj_name()?)
    }

    /// Non-blocking mailbox send; charges the mailbox op cost.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::error::IpcError`] from the registry.
    pub fn mailbox_send(
        &mut self,
        name: impl IntoObjName,
        msg: &[u8],
    ) -> Result<bool, crate::error::IpcError> {
        self.charged += self.mbx_op_cost;
        let name = name.into_obj_name()?;
        let accepted = self.mailboxes.send_obj(name, msg)?;
        self.journal.push(UndoEntry::MailboxSend { name, accepted });
        Ok(accepted)
    }

    /// Non-blocking mailbox receive; charges the mailbox op cost (polling an
    /// empty mailbox still costs — that is the price of the §3.2 poll).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::error::IpcError`] from the registry.
    pub fn mailbox_recv(
        &mut self,
        name: impl IntoObjName,
    ) -> Result<Option<Vec<u8>>, crate::error::IpcError> {
        self.charged += self.mbx_op_cost;
        self.mailboxes.recv_obj(name.into_obj_name()?)
    }

    /// Non-blocking FIFO append; charges the mailbox op cost. Returns how
    /// many bytes were accepted (the stream may be near-full).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::error::IpcError`] from the registry.
    pub fn fifo_put(
        &mut self,
        name: impl IntoObjName,
        data: &[u8],
    ) -> Result<usize, crate::error::IpcError> {
        self.charged += self.mbx_op_cost;
        let name = name.into_obj_name()?;
        let accepted = self.fifos.put_obj(name, data)?;
        self.journal.push(UndoEntry::FifoPut {
            name,
            accepted,
            truncated: accepted < data.len(),
        });
        Ok(accepted)
    }

    /// Non-blocking FIFO drain of up to `max` bytes; charges the mailbox
    /// op cost.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::error::IpcError`] from the registry.
    pub fn fifo_get(
        &mut self,
        name: impl IntoObjName,
        max: usize,
    ) -> Result<Vec<u8>, crate::error::IpcError> {
        self.charged += self.mbx_op_cost;
        self.fifos.get_obj(name.into_obj_name()?, max)
    }

    /// Appends a line to the kernel trace (a [`KernelEvent::UserLog`]).
    pub fn log(&mut self, what: impl Into<String>) {
        if self.trace.is_enabled() {
            let event = KernelEvent::UserLog {
                task: self.name,
                message: what.into(),
            };
            self.trace.emit(self.now, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shm::DataType;
    use crate::task::{FnBody, IdleBody};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn quiet_kernel(seed: u64) -> Kernel {
        Kernel::new(
            KernelConfig::new(seed)
                .with_timer(TimerJitterModel::ideal())
                .with_cpus(2),
        )
    }

    #[test]
    fn periodic_task_runs_on_its_grid() {
        let mut k = quiet_kernel(1);
        let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(10))
            .with_latency_tracking();
        let times: Rc<RefCell<Vec<u64>>> = Rc::default();
        let t2 = times.clone();
        let id = k
            .create_task(
                cfg,
                Box::new(FnBody(move |ctx: &mut TaskCtx<'_>| {
                    t2.borrow_mut().push(ctx.now().as_nanos());
                })),
            )
            .unwrap();
        k.start_task(id).unwrap();
        k.run_for(SimDuration::from_millis(10));
        let times = times.borrow();
        assert_eq!(times.len(), 10);
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(t, (i as u64 + 1) * 1_000_000, "cycle {i}");
        }
        let stats = k.task_stats(id).unwrap();
        assert_eq!(stats.count(), 10);
        assert_eq!(stats.average(), 0.0); // ideal timer, idle CPU
    }

    #[test]
    fn higher_priority_preempts_lower() {
        let mut k = quiet_kernel(2);
        // Low-priority task with a long cycle on CPU 0.
        let low_cfg = TaskConfig::periodic("low", Priority(10), SimDuration::from_millis(10))
            .unwrap()
            .with_base_cost(SimDuration::from_millis(5));
        let low = k.create_task(low_cfg, Box::new(IdleBody)).unwrap();
        // High-priority 1 kHz task with latency tracking.
        let high_cfg = TaskConfig::periodic("high", Priority(1), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(100))
            .with_latency_tracking();
        let high = k.create_task(high_cfg, Box::new(IdleBody)).unwrap();
        k.start_task(low).unwrap();
        k.start_task(high).unwrap();
        k.run_for(SimDuration::from_millis(50));
        let stats = k.task_stats(high).unwrap();
        assert!(stats.count() >= 45);
        // High-priority task is never delayed by the low one.
        assert_eq!(stats.max().unwrap(), 0);
        assert!(k.counters().preemptions > 0, "low task was never preempted");
        // Low task still makes progress despite preemption.
        assert!(k.task_cycles(low).unwrap() >= 4);
    }

    #[test]
    fn lower_priority_waits_for_higher() {
        let mut k = quiet_kernel(3);
        let high_cfg = TaskConfig::periodic("high", Priority(1), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(600));
        let low_cfg = TaskConfig::periodic("low", Priority(5), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(100))
            .with_latency_tracking();
        let high = k.create_task(high_cfg, Box::new(IdleBody)).unwrap();
        let low = k.create_task(low_cfg, Box::new(IdleBody)).unwrap();
        k.start_task(high).unwrap();
        k.start_task(low).unwrap();
        k.run_for(SimDuration::from_millis(20));
        let stats = k.task_stats(low).unwrap();
        // Low releases together with high, so it waits ~600 µs every cycle.
        assert!(stats.average() >= 590_000.0, "avg {}", stats.average());
    }

    #[test]
    fn equal_priority_round_robin_shares_cpu() {
        let mut k = Kernel::new(
            KernelConfig::new(4)
                .with_timer(TimerJitterModel::ideal())
                .with_cpus(1),
        );
        // Two CPU-hungry equal-priority tasks; each wants 8 ms every 10 ms.
        let mk = |name: &str| {
            TaskConfig::periodic(name, Priority(3), SimDuration::from_millis(10))
                .unwrap()
                .with_base_cost(SimDuration::from_millis(8))
        };
        let a = k.create_task(mk("taska"), Box::new(IdleBody)).unwrap();
        let b = k.create_task(mk("taskb"), Box::new(IdleBody)).unwrap();
        k.start_task(a).unwrap();
        k.start_task(b).unwrap();
        k.run_for(SimDuration::from_millis(100));
        // Demand is 160% of one CPU: both progress, neither starves.
        assert!(k.task_cycles(a).unwrap() >= 3, "a {:?}", k.task_cycles(a));
        assert!(k.task_cycles(b).unwrap() >= 3, "b {:?}", k.task_cycles(b));
        assert!(k.counters().timeslices > 0, "round robin never rotated");
    }

    #[test]
    fn linux_domain_runs_only_when_rt_idle() {
        let mut k = quiet_kernel(5);
        let hog_cfg = TaskConfig::aperiodic("hog", Priority(0))
            .unwrap()
            .in_linux_domain()
            .continuous()
            .with_base_cost(SimDuration::from_millis(1));
        let rt_cfg = TaskConfig::periodic("rt", Priority(2), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(200))
            .with_latency_tracking();
        let hog = k.create_task(hog_cfg, Box::new(IdleBody)).unwrap();
        let rt = k.create_task(rt_cfg, Box::new(IdleBody)).unwrap();
        k.start_task(hog).unwrap();
        k.trigger(hog).unwrap();
        k.start_task(rt).unwrap();
        k.run_for(SimDuration::from_millis(100));
        // The RT task is never delayed by the Linux hog.
        let stats = k.task_stats(rt).unwrap();
        assert_eq!(stats.max().unwrap(), 0, "RT delayed by Linux work");
        // The hog still consumed the leftover CPU.
        assert!(k.cpu_linux_utilization(0) > 0.5);
        assert!(k.cpu_rt_utilization(0) > 0.15);
    }

    #[test]
    fn suspend_discards_releases_and_resume_restarts() {
        let mut k = quiet_kernel(6);
        let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(10));
        let id = k.create_task(cfg, Box::new(IdleBody)).unwrap();
        k.start_task(id).unwrap();
        // Half-millisecond slack so the cycle released exactly at the window
        // edge also finishes.
        k.run_for(SimDuration::from_millis(5) + SimDuration::from_micros(500));
        let cycles_before = k.task_cycles(id).unwrap();
        assert_eq!(cycles_before, 5);
        k.suspend_task(id).unwrap();
        k.run_for(SimDuration::from_millis(10));
        assert_eq!(k.task_cycles(id).unwrap(), cycles_before);
        assert_eq!(k.task_state(id), Some(TaskState::Suspended));
        k.resume_task(id).unwrap();
        k.run_for(SimDuration::from_millis(5) + SimDuration::from_micros(500));
        assert_eq!(k.task_cycles(id).unwrap(), cycles_before + 5);
    }

    #[test]
    fn delete_frees_name_and_stops_cycles() {
        let mut k = quiet_kernel(7);
        let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_millis(1))
            .unwrap()
            .with_latency_tracking();
        let ran: Rc<RefCell<u64>> = Rc::default();
        let r = ran.clone();
        let id = k
            .create_task(
                cfg,
                Box::new(FnBody(move |_ctx: &mut TaskCtx<'_>| *r.borrow_mut() += 1)),
            )
            .unwrap();
        k.start_task(id).unwrap();
        k.run_for(SimDuration::from_millis(3));
        k.delete_task(id).unwrap();
        let cycles = *ran.borrow();
        assert_eq!(cycles, 3);
        k.run_for(SimDuration::from_millis(5));
        assert_eq!(*ran.borrow(), cycles);
        assert_eq!(k.task_state(id), Some(TaskState::Deleted));
        assert_eq!(k.task_by_name("tick"), None);
        // The task was reaped: its counters and statistics went with it.
        assert_eq!(k.task_cycles(id), None);
        assert!(k.task_stats(id).is_none());
        assert!(matches!(k.delete_task(id), Err(KernelError::NoSuchTask(_))));
        // The name can be reused, and the recycled slot does not make the
        // old id alias the new task.
        let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_millis(1)).unwrap();
        let again = k.create_task(cfg, Box::new(IdleBody)).unwrap();
        assert_ne!(again, id);
        assert!(again > id, "ids order by creation");
        assert_eq!(k.task_state(again), Some(TaskState::Dormant));
        assert_eq!(k.task_state(id), Some(TaskState::Deleted));
        assert!(matches!(k.start_task(id), Err(KernelError::NoSuchTask(_))));
    }

    #[test]
    fn ids_never_issued_have_no_state() {
        let k = quiet_kernel(8);
        let mut other = quiet_kernel(8);
        for name in ["tick", "tock"] {
            let cfg = TaskConfig::periodic(name, Priority(2), SimDuration::from_millis(1)).unwrap();
            other.create_task(cfg, Box::new(IdleBody)).unwrap();
        }
        let foreign = other.task_by_name("tock").unwrap();
        assert_eq!(k.task_state(foreign), None);
        // Ids print and report their creation serial.
        assert_eq!(foreign.raw(), 2);
        assert_eq!(format!("{foreign:?}"), "TaskId(2)");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut k = quiet_kernel(8);
        let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_millis(1)).unwrap();
        k.create_task(cfg.clone(), Box::new(IdleBody)).unwrap();
        assert!(matches!(
            k.create_task(cfg, Box::new(IdleBody)),
            Err(KernelError::DuplicateTask(_))
        ));
    }

    #[test]
    fn bad_cpu_rejected() {
        let mut k = quiet_kernel(9);
        let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_millis(1))
            .unwrap()
            .on_cpu(7);
        assert!(matches!(
            k.create_task(cfg, Box::new(IdleBody)),
            Err(KernelError::NoSuchCpu(7))
        ));
    }

    #[test]
    fn aperiodic_task_runs_on_trigger() {
        let mut k = quiet_kernel(10);
        let hits: Rc<RefCell<u32>> = Rc::default();
        let h = hits.clone();
        let cfg = TaskConfig::aperiodic("event", Priority(1)).unwrap();
        let id = k
            .create_task(
                cfg,
                Box::new(FnBody(move |_ctx: &mut TaskCtx<'_>| {
                    *h.borrow_mut() += 1;
                })),
            )
            .unwrap();
        k.start_task(id).unwrap();
        k.run_for(SimDuration::from_millis(5));
        assert_eq!(*hits.borrow(), 0);
        k.trigger(id).unwrap();
        k.run_for(SimDuration::from_millis(1));
        assert_eq!(*hits.borrow(), 1);
        k.trigger(id).unwrap();
        k.run_for(SimDuration::from_millis(1));
        assert_eq!(*hits.borrow(), 2);
    }

    #[test]
    fn tasks_communicate_through_shm() {
        let mut k = quiet_kernel(11);
        k.shm_mut()
            .alloc("data", crate::shm::DataType::Integer, 1)
            .unwrap();
        let prod_cfg =
            TaskConfig::periodic("prod", Priority(1), SimDuration::from_millis(1)).unwrap();
        let prod = k
            .create_task(
                prod_cfg,
                Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                    let v = (ctx.cycle() + 1) as i32;
                    ctx.shm_write("data", &v.to_le_bytes()).unwrap();
                })),
            )
            .unwrap();
        let seen: Rc<RefCell<Vec<i32>>> = Rc::default();
        let s = seen.clone();
        let cons_cfg =
            TaskConfig::periodic("cons", Priority(2), SimDuration::from_millis(4)).unwrap();
        let cons = k
            .create_task(
                cons_cfg,
                Box::new(FnBody(move |ctx: &mut TaskCtx<'_>| {
                    let buf = ctx.shm_read("data").unwrap();
                    s.borrow_mut()
                        .push(i32::from_le_bytes(buf.try_into().unwrap()));
                })),
            )
            .unwrap();
        k.start_task(prod).unwrap();
        k.start_task(cons).unwrap();
        k.run_for(SimDuration::from_millis(12) + SimDuration::from_micros(100));
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        // Consumer at the 4 ms grid runs after the higher-priority producer
        // released at the same instant: it sees the 4th, 8th, 12th values.
        assert_eq!(*seen, vec![4, 8, 12]);
    }

    #[test]
    fn overruns_are_counted_not_queued() {
        let mut k = quiet_kernel(12);
        // Demands 3 ms of CPU every 1 ms: must overrun.
        let cfg = TaskConfig::periodic("greedy", Priority(1), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_millis(3));
        let id = k.create_task(cfg, Box::new(IdleBody)).unwrap();
        k.start_task(id).unwrap();
        k.run_for(SimDuration::from_millis(30));
        assert!(k.task_overruns(id).unwrap() >= 15);
        assert!(k.task_cycles(id).unwrap() <= 11);
    }

    #[test]
    fn same_instant_cycle_ends_wake_a_bound_task_once() {
        // Two posters on different CPUs finish cycles at the same instants;
        // each cycle end runs the wakeup service. The bound consumer must be
        // woken once per instant — not once per same-instant cycle end,
        // which would spuriously overrun it.
        let mut k = Kernel::new(
            KernelConfig::new(31)
                .with_timer(TimerJitterModel::ideal())
                .with_cpus(2)
                .with_trace(512),
        );
        k.mailboxes_mut().create("inbox", 16).unwrap();
        for (name, cpu) in [("post0", 0), ("post1", 1)] {
            let cfg = TaskConfig::periodic(name, Priority(3), SimDuration::from_millis(1))
                .unwrap()
                .on_cpu(cpu);
            let id = k
                .create_task(
                    cfg,
                    Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                        let _ = ctx.mailbox_send("inbox", b"go");
                    })),
                )
                .unwrap();
            k.start_task(id).unwrap();
        }
        let consumer_cfg = TaskConfig::aperiodic("sink", Priority(2)).unwrap();
        let consumer = k
            .create_task(
                consumer_cfg,
                Box::new(FnBody(
                    |ctx: &mut TaskCtx<'_>| {
                        while let Ok(Some(_)) = ctx.mailbox_recv("inbox") {}
                    },
                )),
            )
            .unwrap();
        k.start_task(consumer).unwrap();
        k.bind_mailbox_wakeup("inbox", consumer).unwrap();
        k.run_for(SimDuration::from_millis(10));
        assert!(k.task_cycles(consumer).unwrap() >= 9);
        assert_eq!(k.task_overruns(consumer), Some(0));
        // Posting instants are the 10 cycle-end ticks: one wake each, even
        // though two cycle ends (one per CPU) land on every tick.
        let wakes = k
            .trace()
            .iter()
            .filter(|e| matches!(&e.event, KernelEvent::MailboxWake { task, .. } if task.as_str() == "sink"))
            .count();
        assert_eq!(wakes, 10);
    }

    #[test]
    fn trace_records_lifecycle() {
        let mut k = Kernel::new(
            KernelConfig::new(13)
                .with_timer(TimerJitterModel::ideal())
                .with_trace(64),
        );
        let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_millis(1)).unwrap();
        let id = k.create_task(cfg, Box::new(IdleBody)).unwrap();
        k.start_task(id).unwrap();
        k.run_for(SimDuration::from_millis(2));
        k.delete_task(id).unwrap();
        let text: Vec<String> = k.trace().iter().map(|e| e.event.to_string()).collect();
        assert!(text.iter().any(|s| s.contains("create task `tick`")));
        assert!(text.iter().any(|s| s.contains("start task `tick`")));
        assert!(text.iter().any(|s| s.contains("delete task `tick`")));
        // Typed events are also matchable structurally.
        assert!(k.trace().iter().any(
            |e| matches!(&e.event, KernelEvent::Dispatch { task, .. } if task.as_str() == "tick")
        ));
        assert!(k
            .trace()
            .iter()
            .any(|e| matches!(&e.event, KernelEvent::Release { .. })));
    }

    #[test]
    fn trace_subscriber_sees_all_events_despite_tiny_ring() {
        use crate::trace::CountingSubscriber;
        use std::cell::Cell;

        struct SharedCount(Rc<Cell<u64>>);
        impl TraceSubscriber<KernelEvent> for SharedCount {
            fn on_event(&mut self, _time: SimTime, _event: &KernelEvent) {
                self.0.set(self.0.get() + 1);
            }
        }

        let mut k = Kernel::new(
            KernelConfig::new(13)
                .with_timer(TimerJitterModel::ideal())
                .with_trace(2),
        );
        let count = Rc::new(Cell::new(0));
        k.add_trace_subscriber(Box::new(SharedCount(count.clone())));
        let _ = CountingSubscriber::new(); // exercised in trace unit tests
        let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_millis(1)).unwrap();
        let id = k.create_task(cfg, Box::new(IdleBody)).unwrap();
        k.start_task(id).unwrap();
        k.run_for(SimDuration::from_millis(5));
        k.delete_task(id).unwrap();
        // The ring held only 2 events but the tap saw the whole stream.
        assert_eq!(k.trace().len(), 2);
        assert_eq!(count.get(), k.trace().total_recorded());
        assert!(count.get() > 10);
        assert_eq!(
            k.trace().dropped(),
            k.trace().total_recorded() - k.trace().len() as u64
        );
    }

    #[test]
    fn response_times_and_deadline_misses_are_tracked() {
        let mut k = quiet_kernel(17);
        // 600 µs of work per 1 ms period: meets deadlines when alone.
        let cfg = TaskConfig::periodic("meets", Priority(2), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(600))
            .with_latency_tracking();
        let meets = k.create_task(cfg, Box::new(IdleBody)).unwrap();
        k.start_task(meets).unwrap();
        k.run_for(SimDuration::from_millis(20));
        let resp = k.task_response_stats(meets).unwrap();
        assert!(resp.count() >= 19);
        assert_eq!(resp.min().unwrap(), 600_000);
        assert_eq!(k.task_deadline_misses(meets), Some(0));
        // Add a higher-priority 700 µs task: the 600 µs task now needs
        // 1.3 ms per period and misses every deadline.
        let cfg = TaskConfig::periodic("bully", Priority(1), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(700));
        let bully = k.create_task(cfg, Box::new(IdleBody)).unwrap();
        k.start_task(bully).unwrap();
        k.run_for(SimDuration::from_millis(20));
        assert!(k.task_deadline_misses(meets).unwrap() > 5);
        assert!(k.task_response_stats(meets).unwrap().max().unwrap() > 1_000_000);
    }

    #[test]
    fn exec_budget_clamps_and_counts() {
        let mut k = quiet_kernel(15);
        // Demands 800 µs/cycle but is budgeted to 200 µs.
        let cfg = TaskConfig::periodic("greedy", Priority(1), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(800))
            .with_exec_budget(SimDuration::from_micros(200));
        let greedy = k.create_task(cfg, Box::new(IdleBody)).unwrap();
        // A lower-priority observer that would starve without the clamp.
        let cfg = TaskConfig::periodic("obs", Priority(5), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(100))
            .with_latency_tracking();
        let obs = k.create_task(cfg, Box::new(IdleBody)).unwrap();
        k.start_task(greedy).unwrap();
        k.start_task(obs).unwrap();
        k.run_for(SimDuration::from_millis(50));
        assert!(k.task_budget_overruns(greedy).unwrap() >= 48);
        // The observer sees only the clamped 200 µs of interference.
        let worst = k.task_stats(obs).unwrap().max().unwrap();
        assert!(worst <= 210_000, "worst {worst}");
        // And the greedy task's CPU time reflects the clamp.
        let cpu = k.task_cpu_time(greedy).unwrap().as_nanos();
        assert!(cpu <= 51 * 200_000, "cpu {cpu}");
    }

    #[test]
    fn cpu_time_accounts_across_preemption() {
        let mut k = quiet_kernel(16);
        let low_cfg = TaskConfig::periodic("low", Priority(10), SimDuration::from_millis(10))
            .unwrap()
            .with_base_cost(SimDuration::from_millis(4));
        let low = k.create_task(low_cfg, Box::new(IdleBody)).unwrap();
        let high_cfg = TaskConfig::periodic("high", Priority(1), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(300));
        let high = k.create_task(high_cfg, Box::new(IdleBody)).unwrap();
        k.start_task(low).unwrap();
        k.start_task(high).unwrap();
        k.run_for(SimDuration::from_millis(100));
        // Despite constant preemption, low's accumulated CPU time matches
        // its completed cycles × 4 ms within one in-flight cycle.
        let cycles = k.task_cycles(low).unwrap();
        let cpu_ms = k.task_cpu_time(low).unwrap().as_nanos() / 1_000_000;
        assert!(cpu_ms >= cycles * 4, "cpu {cpu_ms} cycles {cycles}");
        assert!(cpu_ms <= (cycles + 1) * 4, "cpu {cpu_ms} cycles {cycles}");
        assert!(k.counters().preemptions > 0);
    }

    #[test]
    fn cross_cpu_tasks_do_not_interfere() {
        let mut k = quiet_kernel(14);
        let cfg0 = TaskConfig::periodic("cpu0", Priority(1), SimDuration::from_millis(1))
            .unwrap()
            .on_cpu(0)
            .with_base_cost(SimDuration::from_micros(900));
        let cfg1 = TaskConfig::periodic("cpu1", Priority(5), SimDuration::from_millis(1))
            .unwrap()
            .on_cpu(1)
            .with_base_cost(SimDuration::from_micros(100))
            .with_latency_tracking();
        let a = k.create_task(cfg0, Box::new(IdleBody)).unwrap();
        let b = k.create_task(cfg1, Box::new(IdleBody)).unwrap();
        k.start_task(a).unwrap();
        k.start_task(b).unwrap();
        k.run_for(SimDuration::from_millis(20));
        // Task on CPU 1 never queues behind the busy CPU 0 task.
        assert_eq!(k.task_stats(b).unwrap().max().unwrap(), 0);
    }

    // ------------------------------------------------------------------
    // Fault containment
    // ------------------------------------------------------------------

    #[test]
    fn panicking_body_faults_task_without_disturbing_peers() {
        let mut k = Kernel::new(
            KernelConfig::new(21)
                .with_timer(TimerJitterModel::ideal())
                .with_trace(64),
        );
        let bad_cfg = TaskConfig::periodic("bad", Priority(2), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(10));
        let bad = k
            .create_task(
                bad_cfg,
                Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                    if ctx.cycle() == 3 {
                        panic!("injected fault");
                    }
                })),
            )
            .unwrap();
        let good_cfg = TaskConfig::periodic("good", Priority(5), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(10));
        let good = k.create_task(good_cfg, Box::new(IdleBody)).unwrap();
        k.start_task(bad).unwrap();
        k.start_task(good).unwrap();
        k.run_for(SimDuration::from_millis(10) + SimDuration::from_micros(500));
        assert_eq!(k.task_state(bad), Some(TaskState::Faulted));
        assert_eq!(k.task_cycles(bad), Some(3), "faulting cycle not counted");
        assert_eq!(k.task_faults(bad), Some(1));
        assert_eq!(k.task_fault_cause(bad), Some("injected fault"));
        assert_eq!(k.counters().faults, 1);
        // The peer on the same CPU kept its full grid.
        assert_eq!(k.task_cycles(good), Some(10));
        let fault_events: Vec<String> = k
            .trace()
            .iter()
            .filter(|e| matches!(e.event, KernelEvent::TaskFault { .. }))
            .map(|e| e.event.to_string())
            .collect();
        assert_eq!(fault_events, vec!["fault `bad` at cycle 3: injected fault"]);
    }

    #[test]
    fn faulted_cycle_rolls_back_partial_port_writes() {
        let mut k = quiet_kernel(22);
        k.shm_mut().alloc("seg", DataType::Integer, 1).unwrap();
        k.mailboxes_mut().create("outbox", 4).unwrap();
        k.fifos_mut().create("stream", 16).unwrap();
        let cfg = TaskConfig::periodic("wrt", Priority(2), SimDuration::from_millis(1)).unwrap();
        let id = k
            .create_task(
                cfg,
                Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                    let value = (ctx.cycle() as i32 + 1).to_le_bytes();
                    ctx.shm_write("seg", &value).unwrap();
                    ctx.mailbox_send("outbox", &value).unwrap();
                    ctx.fifo_put("stream", &value).unwrap();
                    if ctx.cycle() == 2 {
                        panic!("mid-cycle crash");
                    }
                })),
            )
            .unwrap();
        k.start_task(id).unwrap();
        k.run_for(SimDuration::from_millis(5));
        assert_eq!(k.task_state(id), Some(TaskState::Faulted));
        // Cycles 0 and 1 published; cycle 2's writes were rolled back.
        assert_eq!(k.shm().get("seg").unwrap().write_count(), 2);
        assert_eq!(k.shm_mut().read("seg").unwrap(), 2i32.to_le_bytes());
        let mbx = k.mailboxes().get("outbox").unwrap();
        assert_eq!(mbx.len(), 2);
        assert_eq!(mbx.sent_count(), 2);
        let fifo = k.fifos().lookup("stream").unwrap();
        assert_eq!(fifo.written_bytes(), 8);
        assert_eq!(fifo.len(), 8);
    }

    #[test]
    fn faulted_cycle_replays_several_writes_per_segment_in_reverse() {
        let mut k = quiet_kernel(26);
        k.shm_mut().alloc("pair", DataType::Integer, 2).unwrap();
        k.shm_mut().alloc("tag", DataType::Byte, 3).unwrap();
        let cfg = TaskConfig::periodic("wrt", Priority(2), SimDuration::from_millis(1)).unwrap();
        let pair = ObjName::new("pair").unwrap();
        let id = k
            .create_task(
                cfg,
                Box::new(FnBody(move |ctx: &mut TaskCtx<'_>| {
                    let c = ctx.cycle() as u8;
                    let image = |x: u8| [x, 0, 0, 0, x + 100, 0, 0, 0];
                    ctx.shm_write(pair, &image(10 * c + 1)).unwrap();
                    ctx.shm_write("tag", &[c, c, c]).unwrap();
                    ctx.shm_write(pair, &image(10 * c + 2)).unwrap();
                    if c == 2 {
                        panic!("crash after three writes");
                    }
                })),
            )
            .unwrap();
        k.start_task(id).unwrap();
        k.run_for(SimDuration::from_millis(5));
        assert_eq!(k.task_state(id), Some(TaskState::Faulted));
        // Cycle 1's images survive; each of cycle 2's writes was undone,
        // the doubly written segment back past both of its writes.
        assert_eq!(
            k.shm_mut().read("pair").unwrap(),
            [12, 0, 0, 0, 112, 0, 0, 0]
        );
        assert_eq!(k.shm_mut().read("tag").unwrap(), [1, 1, 1]);
        assert_eq!(k.shm().get("pair").unwrap().write_count(), 4);
        assert_eq!(k.shm().get("tag").unwrap().write_count(), 2);
    }

    #[test]
    fn panic_in_on_start_parks_the_task_before_any_release() {
        struct BadStart;
        impl TaskBody for BadStart {
            fn on_start(&mut self, _ctx: &mut TaskCtx<'_>) {
                panic!("bad start");
            }
            fn on_cycle(&mut self, _ctx: &mut TaskCtx<'_>) {}
        }
        let mut k = quiet_kernel(23);
        let cfg = TaskConfig::periodic("boom", Priority(2), SimDuration::from_millis(1)).unwrap();
        let id = k.create_task(cfg, Box::new(BadStart)).unwrap();
        k.start_task(id).unwrap();
        assert_eq!(k.task_state(id), Some(TaskState::Faulted));
        k.run_for(SimDuration::from_millis(5));
        assert_eq!(k.task_cycles(id), Some(0));
        assert_eq!(k.task_fault_cause(id), Some("bad start"));
    }

    #[test]
    fn faulted_task_rejects_suspend_but_deletes_cleanly() {
        let mut k = quiet_kernel(24);
        let cfg = TaskConfig::periodic("flaky", Priority(2), SimDuration::from_millis(1)).unwrap();
        let id = k
            .create_task(
                cfg,
                Box::new(FnBody(|_ctx: &mut TaskCtx<'_>| panic!("die"))),
            )
            .unwrap();
        k.start_task(id).unwrap();
        k.run_for(SimDuration::from_millis(3));
        assert_eq!(k.task_state(id), Some(TaskState::Faulted));
        assert!(matches!(
            k.suspend_task(id),
            Err(KernelError::InvalidState { .. })
        ));
        assert!(matches!(
            k.resume_task(id),
            Err(KernelError::InvalidState { .. })
        ));
        // Supervisors recover by deleting and re-creating the task.
        k.delete_task(id).unwrap();
        assert_eq!(k.task_state(id), Some(TaskState::Deleted));
        assert_eq!(k.task_by_name("flaky"), None);
        k.run_for(SimDuration::from_millis(3));
        assert_eq!(k.task_cycles(id), None, "reaped at delete");
        assert_eq!(k.task_fault_cause(id), None, "reaped at delete");
    }

    #[test]
    fn resume_rejoins_the_declared_release_grid() {
        let mut k = quiet_kernel(25);
        let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(10));
        let times: Rc<RefCell<Vec<u64>>> = Rc::default();
        let t2 = times.clone();
        let id = k
            .create_task(
                cfg,
                Box::new(FnBody(move |ctx: &mut TaskCtx<'_>| {
                    t2.borrow_mut().push(ctx.now().as_nanos());
                })),
            )
            .unwrap();
        k.start_task(id).unwrap();
        // Suspend off-grid at 2.3 ms, resume off-grid at 4.7 ms.
        k.run_for(SimDuration::from_micros(2300));
        k.suspend_task(id).unwrap();
        k.run_for(SimDuration::from_micros(2400));
        k.resume_task(id).unwrap();
        k.run_for(SimDuration::from_millis(5));
        let times = times.borrow();
        assert!(times.len() >= 6, "releases: {times:?}");
        for &t in times.iter() {
            assert_eq!(t % 1_000_000, 0, "off-grid release at {t} ns: {times:?}");
        }
        // First post-resume release is the next grid point after 4.7 ms.
        assert_eq!(times[2], 5_000_000, "{times:?}");
    }
}
