//! Executor abstraction: run one simulated task set either on the classic
//! single-threaded lockstep loop ([`DeterministicExecutor`]) or on real OS
//! worker threads, one per group of simulated CPUs ([`ParallelExecutor`]).
//!
//! # The model
//!
//! A [`Workload`] is a self-contained, thread-shippable description of a
//! machine: CPU count, seed, timer model, IPC port declarations and a list
//! of [`TaskSpec`]s whose bodies are built from `Send + Sync` *factories*
//! (the bodies themselves stay `!Send`; each executor constructs them on
//! the thread that will run them). An [`Executor`] turns a workload plus a
//! virtual-time horizon into an [`ExecOutcome`]: final task/port state,
//! aggregate scheduler counters and a merged, deterministically ordered
//! event trace.
//!
//! # Parallel execution
//!
//! [`ParallelExecutor`] shards the machine: CPUs are assigned round-robin
//! to `workers` OS threads, and each worker owns a private [`Kernel`]
//! holding only the tasks pinned to its CPUs (but configured with the full
//! CPU count, so global CPU ids appear unchanged in events). Workers run
//! in lockstep *epochs*: each advances its kernel to the epoch boundary
//! independently, then all meet at a [`std::sync::Barrier`] to exchange
//! cross-CPU traffic. Each worker owns one outbox. Before the barrier it
//! puts there the images of the SHM segments it wrote this epoch, and the
//! messages and bytes it sent to mailboxes and FIFOs homed on other
//! workers. After the barrier every worker reads all outboxes in rank
//! order:
//!
//! * SHM segments — the highest-rank writer of the epoch wins on every
//!   replica, never the first thread to arrive.
//! * Mailboxes and FIFOs — the *home* worker (the one owning the declared
//!   home CPU) appends the messages and bytes in rank order, each rank's
//!   in send order.
//!
//! The barrier orders every outbox access, so the lock around each outbox
//! is never contended across the two phases. Each worker tags its events
//! `(cpu, seq)`, and the per-worker traces are merged into one
//! deterministic total order at the end ([`merge_tagged`]).
//!
//! # The equivalence guarantee
//!
//! On a **quiescent** workload — ideal timer model, deterministic task
//! bodies (fixed [`TaskCtx::compute`](crate::kernel::TaskCtx::compute)
//! costs, no `compute_about`), and IPC that stays within one CPU — the
//! deterministic executor's event stream is a *linearization* of the
//! parallel executor's merged stream: projected onto any single CPU, the
//! two streams are identical event for event
//! ([`linearization_equivalent`]). The property test
//! `crates/rtos/tests/exec_equivalence.rs` enforces this across randomly
//! generated workloads; with one worker the parallel executor degenerates
//! to the serial schedule and the *full* streams match. Cross-CPU IPC is
//! still deterministic in parallel mode (same inputs → same merged trace),
//! but delivery lands at epoch barriers rather than mid-epoch, so the two
//! modes are then deliberately allowed to differ.

use crate::error::KernelError;
use crate::kernel::{Kernel, KernelConfig, SchedCounters};
use crate::latency::{LoadMode, TimerJitterModel};
use crate::shm::{DataType, ShmRegistry};
use crate::task::{ObjName, TaskBody, TaskConfig, TaskId, TaskState};
use crate::time::{SimDuration, SimTime};
use crate::trace::{merge_tagged, KernelEvent, TaggedEvent, Timestamped, TraceSubscriber};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, Barrier, RwLock};

/// Builds a task body on whichever thread will run it. Factories are the
/// `Send + Sync` half of a task; the produced [`TaskBody`] never crosses a
/// thread boundary.
pub type BodyFactory = Arc<dyn Fn() -> Box<dyn TaskBody> + Send + Sync>;

/// Wraps a plain closure-producing function as a [`BodyFactory`].
pub fn body_factory(f: impl Fn() -> Box<dyn TaskBody> + Send + Sync + 'static) -> BodyFactory {
    Arc::new(f)
}

/// One task in a [`Workload`]: its kernel configuration, the factory for
/// its body, and executor-level behaviour (autostart, mailbox wakeup
/// binding, scripted aperiodic triggers).
#[derive(Clone)]
pub struct TaskSpec {
    /// Kernel-level task configuration (name, CPU, priority, release...).
    pub config: TaskConfig,
    /// Builds the body on the executing thread.
    pub factory: BodyFactory,
    /// Start the task at time zero (before the first event).
    pub autostart: bool,
    /// Bind the task to wake on messages arriving at this mailbox.
    /// The mailbox's declared home CPU must equal the task's CPU.
    pub wake_on: Option<String>,
    /// Scripted external triggers (aperiodic releases) at these instants.
    pub triggers: Vec<SimTime>,
}

#[derive(Clone)]
struct ShmDecl {
    name: String,
    data_type: DataType,
    elements: usize,
}

#[derive(Clone)]
struct MailboxDecl {
    name: String,
    capacity: usize,
    home_cpu: u32,
}

#[derive(Clone)]
struct FifoDecl {
    name: String,
    capacity: usize,
    home_cpu: u32,
}

/// A self-contained, executor-independent description of a simulated
/// machine and its task set. `Send + Sync`, so the parallel executor can
/// hand it to worker threads.
#[derive(Clone)]
pub struct Workload {
    cpus: u32,
    seed: u64,
    timer: TimerJitterModel,
    load_mode: LoadMode,
    record_trace: bool,
    shms: Vec<ShmDecl>,
    mailboxes: Vec<MailboxDecl>,
    fifos: Vec<FifoDecl>,
    tasks: Vec<TaskSpec>,
}

impl Workload {
    /// A workload for a `cpus`-CPU machine with the ideal (zero-error)
    /// timer model — the quiescent baseline the equivalence guarantee is
    /// stated for. Install a calibrated model with [`Workload::timer`].
    pub fn new(cpus: u32, seed: u64) -> Self {
        Workload {
            cpus,
            seed,
            timer: TimerJitterModel::ideal(),
            load_mode: LoadMode::Light,
            record_trace: true,
            shms: Vec::new(),
            mailboxes: Vec::new(),
            fifos: Vec::new(),
            tasks: Vec::new(),
        }
    }

    /// Sets the hardware-timer error model.
    pub fn timer(mut self, timer: TimerJitterModel) -> Self {
        self.timer = timer;
        self
    }

    /// Sets the background-load regime.
    pub fn load_mode(mut self, mode: LoadMode) -> Self {
        self.load_mode = mode;
        self
    }

    /// Enables or disables event-trace recording (on by default). Disable
    /// for pure throughput runs; tracing is observer-effect-free either
    /// way, so this never changes scheduling.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Declares a shared-memory segment.
    pub fn shm(mut self, name: &str, data_type: DataType, elements: usize) -> Self {
        self.shms.push(ShmDecl {
            name: name.to_string(),
            data_type,
            elements,
        });
        self
    }

    /// Declares a mailbox whose consumers live on `home_cpu` (the CPU
    /// whose worker applies cross-CPU deliveries at barriers).
    pub fn mailbox(mut self, name: &str, capacity: usize, home_cpu: u32) -> Self {
        self.mailboxes.push(MailboxDecl {
            name: name.to_string(),
            capacity,
            home_cpu,
        });
        self
    }

    /// Declares a FIFO byte stream consumed on `home_cpu`.
    pub fn fifo(mut self, name: &str, capacity: usize, home_cpu: u32) -> Self {
        self.fifos.push(FifoDecl {
            name: name.to_string(),
            capacity,
            home_cpu,
        });
        self
    }

    /// Adds an autostarted task with no wakeup binding or triggers.
    pub fn task(
        self,
        config: TaskConfig,
        factory: impl Fn() -> Box<dyn TaskBody> + Send + Sync + 'static,
    ) -> Self {
        self.task_spec(TaskSpec {
            config,
            factory: Arc::new(factory),
            autostart: true,
            wake_on: None,
            triggers: Vec::new(),
        })
    }

    /// Adds a fully specified task.
    pub fn task_spec(mut self, spec: TaskSpec) -> Self {
        self.tasks.push(spec);
        self
    }

    /// Number of simulated CPUs.
    pub fn cpus(&self) -> u32 {
        self.cpus
    }

    /// Number of declared tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Checks executor-independent invariants: valid names, CPUs in
    /// range, unique task names, wakeup bindings pointing at declared
    /// mailboxes homed on the task's own CPU.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found. Executors
    /// validate before spawning threads, so a bad workload fails fast on
    /// the calling thread instead of wedging a barrier.
    pub fn validate(&self) -> Result<(), ExecError> {
        if self.cpus == 0 {
            return Err(ExecError::new("workload needs at least one CPU"));
        }
        let mut probe = ShmRegistry::new();
        for decl in &self.shms {
            probe
                .alloc(&decl.name, decl.data_type, decl.elements)
                .map_err(|e| ExecError::new(format!("shm '{}': {e}", decl.name)))?;
        }
        for decl in &self.mailboxes {
            ObjName::new(&decl.name)
                .map_err(|e| ExecError::new(format!("mailbox '{}': {e}", decl.name)))?;
            if decl.home_cpu >= self.cpus {
                return Err(ExecError::new(format!(
                    "mailbox '{}' homed on CPU {} of {}",
                    decl.name, decl.home_cpu, self.cpus
                )));
            }
        }
        for decl in &self.fifos {
            ObjName::new(&decl.name)
                .map_err(|e| ExecError::new(format!("fifo '{}': {e}", decl.name)))?;
            if decl.home_cpu >= self.cpus {
                return Err(ExecError::new(format!(
                    "fifo '{}' homed on CPU {} of {}",
                    decl.name, decl.home_cpu, self.cpus
                )));
            }
        }
        let mut names = std::collections::HashSet::new();
        for spec in &self.tasks {
            let name = spec.config.name.as_str();
            if !names.insert(name.to_string()) {
                return Err(ExecError::new(format!("duplicate task name '{name}'")));
            }
            if spec.config.cpu >= self.cpus {
                return Err(ExecError::new(format!(
                    "task '{name}' pinned to CPU {} of {}",
                    spec.config.cpu, self.cpus
                )));
            }
            if let Some(mbx) = &spec.wake_on {
                let Some(decl) = self.mailboxes.iter().find(|d| &d.name == mbx) else {
                    return Err(ExecError::new(format!(
                        "task '{name}' wakes on undeclared mailbox '{mbx}'"
                    )));
                };
                if decl.home_cpu != spec.config.cpu {
                    return Err(ExecError::new(format!(
                        "task '{name}' (CPU {}) wakes on mailbox '{mbx}' homed on CPU {}",
                        spec.config.cpu, decl.home_cpu
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Final state of one task after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskOutcome {
    /// Task name.
    pub name: String,
    /// CPU the task was pinned to.
    pub cpu: u32,
    /// Final lifecycle state.
    pub state: TaskState,
    /// Completed cycles.
    pub cycles: u64,
    /// Discarded releases.
    pub overruns: u64,
    /// Contained body panics.
    pub faults: u64,
    /// Late cycles (latency-tracked tasks).
    pub deadline_misses: u64,
}

/// Final state of one IPC port after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortOutcome {
    /// Port name.
    pub name: String,
    /// SHM: final image. Mailbox/FIFO: undelivered payload bytes
    /// (mailboxes concatenate queued messages).
    pub bytes: Vec<u8>,
}

/// Everything an executor run produces.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Executor that produced this outcome (`"deterministic"`/`"parallel"`).
    pub mode: &'static str,
    /// Worker threads used (1 for the deterministic executor).
    pub workers: usize,
    /// Simulated CPU count (bound for per-CPU trace projections).
    pub cpus: u32,
    /// Scheduler counters summed across all CPUs.
    pub counters: SchedCounters,
    /// Per-task final state, sorted by task name.
    pub tasks: Vec<TaskOutcome>,
    /// Final SHM images in declaration order.
    pub shm: Vec<PortOutcome>,
    /// Undelivered mailbox payloads in declaration order.
    pub mailboxes: Vec<PortOutcome>,
    /// Undelivered FIFO bytes in declaration order.
    pub fifos: Vec<PortOutcome>,
    /// The merged event trace in deterministic total order (empty when the
    /// workload disabled trace recording).
    pub trace: Vec<TaggedEvent<KernelEvent>>,
    /// Total completed cycles across all tasks.
    pub total_cycles: u64,
}

impl ExecOutcome {
    /// The trace projected onto one CPU: `(time, event)` pairs in stream
    /// order. `u32::MAX` selects CPU-less global events.
    pub fn events_on_cpu(&self, cpu: u32) -> Vec<&Timestamped<KernelEvent>> {
        self.trace
            .iter()
            .filter(|e| e.cpu == cpu)
            .map(|e| &e.entry)
            .collect()
    }

    /// Final state of a task by name.
    pub fn task(&self, name: &str) -> Option<&TaskOutcome> {
        self.tasks.iter().find(|t| t.name == name)
    }
}

/// An executor failure: workload validation or kernel setup went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(String);

impl ExecError {
    fn new(msg: impl Into<String>) -> Self {
        ExecError(msg.into())
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "executor error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

impl From<KernelError> for ExecError {
    fn from(e: KernelError) -> Self {
        ExecError::new(e.to_string())
    }
}

/// Runs a [`Workload`] for a span of virtual time.
pub trait Executor {
    /// Stable mode name (`"deterministic"` / `"parallel"`).
    fn name(&self) -> &'static str;

    /// Runs the workload from time zero to `horizon`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the workload fails validation or kernel
    /// setup.
    fn run(&self, workload: &Workload, horizon: SimDuration) -> Result<ExecOutcome, ExecError>;
}

// ---------------------------------------------------------------------------
// Shared machinery
// ---------------------------------------------------------------------------

/// Trace tap that copies every event out of the kernel.
struct Collector(Rc<RefCell<Vec<Timestamped<KernelEvent>>>>);

impl TraceSubscriber<KernelEvent> for Collector {
    fn on_event(&mut self, time: SimTime, event: &KernelEvent) {
        self.0.borrow_mut().push(Timestamped {
            time,
            event: event.clone(),
        });
    }
}

/// The CPU an event is attributed to in merged traces (`u32::MAX` for
/// machine-global events).
fn event_cpu(event: &KernelEvent, cpu_of: &HashMap<ObjName, u32>) -> u32 {
    let by_task = |task: &ObjName| cpu_of.get(task).copied().unwrap_or(u32::MAX);
    match event {
        KernelEvent::TaskCreated { cpu, .. }
        | KernelEvent::Dispatch { cpu, .. }
        | KernelEvent::Preempt { cpu, .. }
        | KernelEvent::Timeslice { cpu, .. } => *cpu,
        KernelEvent::TaskStarted { task }
        | KernelEvent::TaskSuspended { task, .. }
        | KernelEvent::TaskResumed { task }
        | KernelEvent::TaskDeleted { task }
        | KernelEvent::Release { task, .. }
        | KernelEvent::Overrun { task }
        | KernelEvent::DeadlineMiss { task, .. }
        | KernelEvent::BudgetClamp { task, .. }
        | KernelEvent::TaskFault { task, .. }
        | KernelEvent::MailboxWake { task, .. }
        | KernelEvent::UserLog { task, .. } => by_task(task),
        KernelEvent::LoadModeChanged { .. } => u32::MAX,
    }
}

/// A kernel plus the bookkeeping needed to drive it: which workload tasks
/// it hosts (by declaration index) and the scripted trigger tape.
struct Instance {
    kernel: Kernel,
    /// Task id per workload declaration index (`None` = hosted elsewhere).
    ids: Vec<Option<TaskId>>,
    /// `(time, declaration index)` sorted ascending; the index keeps
    /// same-instant triggers in declaration order on every executor.
    triggers: Vec<(SimTime, usize)>,
    cursor: usize,
    events: Rc<RefCell<Vec<Timestamped<KernelEvent>>>>,
    /// Task name → CPU for event attribution.
    cpu_of: HashMap<ObjName, u32>,
    /// Per-stream sequence counter for trace tagging.
    next_seq: u64,
}

impl Instance {
    /// Builds a kernel hosting the workload tasks selected by `hosts`.
    /// All port declarations exist in every instance (they are pure state,
    /// cheap to replicate); only tasks are sharded.
    fn build(w: &Workload, hosts: impl Fn(&TaskSpec) -> bool) -> Result<Instance, ExecError> {
        let cfg = KernelConfig::new(w.seed)
            .with_cpus(w.cpus)
            .with_timer(w.timer.clone())
            .with_load_mode(w.load_mode);
        let mut kernel = Kernel::new(cfg);
        let events = Rc::new(RefCell::new(Vec::new()));
        if w.record_trace {
            kernel.add_trace_subscriber(Box::new(Collector(Rc::clone(&events))));
        }
        for decl in &w.shms {
            kernel
                .shm_mut()
                .alloc(&decl.name, decl.data_type, decl.elements)
                .map_err(|e| ExecError::new(e.to_string()))?;
        }
        for decl in &w.mailboxes {
            kernel
                .mailboxes_mut()
                .create(&decl.name, decl.capacity)
                .map_err(|e| ExecError::new(e.to_string()))?;
        }
        for decl in &w.fifos {
            kernel
                .fifos_mut()
                .create(&decl.name, decl.capacity)
                .map_err(|e| ExecError::new(e.to_string()))?;
        }
        let mut ids = vec![None; w.tasks.len()];
        let mut cpu_of = HashMap::new();
        for (idx, spec) in w.tasks.iter().enumerate() {
            cpu_of.insert(spec.config.name, spec.config.cpu);
            if !hosts(spec) {
                continue;
            }
            let id = kernel.create_task(spec.config.clone(), (spec.factory)())?;
            if let Some(mbx) = &spec.wake_on {
                kernel.bind_mailbox_wakeup(mbx, id)?;
            }
            ids[idx] = Some(id);
        }
        for (idx, spec) in w.tasks.iter().enumerate() {
            if spec.autostart {
                if let Some(id) = ids[idx] {
                    kernel.start_task(id)?;
                }
            }
        }
        let mut triggers: Vec<(SimTime, usize)> = w
            .tasks
            .iter()
            .enumerate()
            .flat_map(|(idx, spec)| spec.triggers.iter().map(move |t| (*t, idx)))
            .collect();
        triggers.sort();
        Ok(Instance {
            kernel,
            ids,
            triggers,
            cursor: 0,
            events,
            cpu_of,
            next_seq: 0,
        })
    }

    /// Advances to `end`, firing scripted triggers on the way. Triggers on
    /// tasks hosted elsewhere are skipped; trigger errors (task deleted,
    /// wrong state) are deliberately ignored, matching external-interrupt
    /// semantics.
    fn run_to(&mut self, end: SimTime) {
        while self.cursor < self.triggers.len() && self.triggers[self.cursor].0 <= end {
            let (at, idx) = self.triggers[self.cursor];
            self.kernel.run_until(at);
            if let Some(id) = self.ids[idx] {
                let _ = self.kernel.trigger(id);
            }
            self.cursor += 1;
        }
        self.kernel.run_until(end);
    }

    /// Drains events collected since the last call, tagged for merging.
    fn drain_tagged(&mut self) -> Vec<TaggedEvent<KernelEvent>> {
        let mut out = Vec::new();
        for entry in self.events.borrow_mut().drain(..) {
            out.push(TaggedEvent {
                cpu: event_cpu(&entry.event, &self.cpu_of),
                seq: self.next_seq,
                entry,
            });
            self.next_seq += 1;
        }
        out
    }

    /// Final state of the hosted tasks, unsorted.
    fn task_outcomes(&self, w: &Workload) -> Vec<TaskOutcome> {
        let mut out = Vec::new();
        for (idx, spec) in w.tasks.iter().enumerate() {
            let Some(id) = self.ids[idx] else { continue };
            out.push(TaskOutcome {
                name: spec.config.name.as_str().to_string(),
                cpu: spec.config.cpu,
                state: self.kernel.task_state(id).unwrap_or(TaskState::Dormant),
                cycles: self.kernel.task_cycles(id).unwrap_or(0),
                overruns: self.kernel.task_overruns(id).unwrap_or(0),
                faults: self.kernel.task_faults(id).unwrap_or(0),
                deadline_misses: self.kernel.task_deadline_misses(id).unwrap_or(0),
            });
        }
        out
    }

    fn shm_outcomes(&mut self, w: &Workload) -> Vec<PortOutcome> {
        w.shms
            .iter()
            .map(|decl| PortOutcome {
                name: decl.name.clone(),
                bytes: self.kernel.shm_mut().read(&decl.name).unwrap_or_default(),
            })
            .collect()
    }

    fn mailbox_outcome(&mut self, name: &str) -> PortOutcome {
        let mut bytes = Vec::new();
        while let Ok(Some(msg)) = self.kernel.mailboxes_mut().recv(name) {
            bytes.extend(msg);
        }
        PortOutcome {
            name: name.to_string(),
            bytes,
        }
    }

    fn fifo_outcome(&mut self, name: &str) -> PortOutcome {
        PortOutcome {
            name: name.to_string(),
            bytes: self
                .kernel
                .fifos_mut()
                .get(name, usize::MAX)
                .unwrap_or_default(),
        }
    }

    /// Puts this epoch's outgoing traffic into `out`: the image of every
    /// segment written since the last barrier (`published` holds the write
    /// counts already sent), and everything sent to mailboxes and FIFOs
    /// not `homed` here.
    fn fill_outbox(
        &mut self,
        w: &Workload,
        out: &mut Outbox,
        published: &mut [u64],
        homed: impl Fn(u32) -> bool,
    ) {
        for (i, decl) in w.shms.iter().enumerate() {
            let writes = self
                .kernel
                .shm()
                .get(&decl.name)
                .map_or(0, |s| s.write_count());
            out.shm[i] = (writes > published[i]).then(|| {
                published[i] = writes;
                self.kernel.shm_mut().read(&decl.name).unwrap_or_default()
            });
        }
        for (i, decl) in w.mailboxes.iter().enumerate() {
            out.mailboxes[i].clear();
            if !homed(decl.home_cpu) {
                while let Ok(Some(msg)) = self.kernel.mailboxes_mut().recv(&decl.name) {
                    out.mailboxes[i].push(msg);
                }
            }
        }
        for (i, decl) in w.fifos.iter().enumerate() {
            out.fifos[i] = if homed(decl.home_cpu) {
                Vec::new()
            } else {
                self.kernel
                    .fifos_mut()
                    .get(&decl.name, usize::MAX)
                    .unwrap_or_default()
            };
        }
    }

    /// Applies every worker's outbox (indexed by rank) to this worker:
    /// each segment takes the image of its highest-rank writer, and
    /// mailboxes and FIFOs `homed` here receive the messages and bytes in
    /// rank order.
    fn take_deliveries(
        &mut self,
        w: &Workload,
        outboxes: &[RwLock<Outbox>],
        homed: impl Fn(u32) -> bool,
    ) {
        let slots: Vec<_> = outboxes.iter().map(|o| o.read().unwrap()).collect();
        for (i, decl) in w.shms.iter().enumerate() {
            if let Some(image) = slots.iter().rev().find_map(|slot| slot.shm[i].as_ref()) {
                self.kernel.shm_mut().overwrite(&decl.name, image);
            }
        }
        for (i, decl) in w.mailboxes.iter().enumerate() {
            if homed(decl.home_cpu) {
                for msg in slots.iter().flat_map(|slot| &slot.mailboxes[i]) {
                    let _ = self.kernel.post(&decl.name, msg);
                }
            }
        }
        for (i, decl) in w.fifos.iter().enumerate() {
            if homed(decl.home_cpu) {
                for slot in slots.iter().filter(|slot| !slot.fifos[i].is_empty()) {
                    let _ = self.kernel.fifos_mut().put(&decl.name, &slot.fifos[i]);
                }
            }
        }
    }

    /// Final state: the trace, the hosted tasks, the mailboxes and FIFOs
    /// `homed` here, and the SHM images if `with_shm`.
    fn into_shard(mut self, w: &Workload, homed: impl Fn(u32) -> bool, with_shm: bool) -> Shard {
        let trace = self.drain_tagged();
        let mailboxes = (w.mailboxes.iter().enumerate())
            .filter(|(_, d)| homed(d.home_cpu))
            .map(|(i, d)| (i, self.mailbox_outcome(&d.name)))
            .collect();
        let fifos = (w.fifos.iter().enumerate())
            .filter(|(_, d)| homed(d.home_cpu))
            .map(|(i, d)| (i, self.fifo_outcome(&d.name)))
            .collect();
        let shm = if with_shm {
            self.shm_outcomes(w)
        } else {
            Vec::new()
        };
        Shard {
            trace,
            counters: self.kernel.counters(),
            tasks: self.task_outcomes(w),
            mailboxes,
            fifos,
            shm,
        }
    }
}

/// One kernel's share of an [`ExecOutcome`].
struct Shard {
    trace: Vec<TaggedEvent<KernelEvent>>,
    counters: SchedCounters,
    tasks: Vec<TaskOutcome>,
    /// Homed mailboxes and FIFOs, by declaration index.
    mailboxes: Vec<(usize, PortOutcome)>,
    fifos: Vec<(usize, PortOutcome)>,
    /// SHM images; empty unless requested.
    shm: Vec<PortOutcome>,
}

/// Merges the shards of one run into its outcome.
fn assemble(mode: &'static str, workers: usize, w: &Workload, shards: Vec<Shard>) -> ExecOutcome {
    let mut counters = SchedCounters::default();
    let mut tasks = Vec::new();
    let mut mailboxes = vec![None; w.mailboxes.len()];
    let mut fifos = vec![None; w.fifos.len()];
    let mut shm = Vec::new();
    let mut traces = Vec::with_capacity(shards.len());
    for shard in shards {
        let c = shard.counters;
        counters.dispatches += c.dispatches;
        counters.preemptions += c.preemptions;
        counters.timeslices += c.timeslices;
        counters.overruns += c.overruns;
        counters.faults += c.faults;
        counters.deadline_misses += c.deadline_misses;
        tasks.extend(shard.tasks);
        for (i, outcome) in shard.mailboxes {
            mailboxes[i] = Some(outcome);
        }
        for (i, outcome) in shard.fifos {
            fifos[i] = Some(outcome);
        }
        shm.extend(shard.shm);
        traces.push(shard.trace);
    }
    tasks.sort_by(|a, b| a.name.cmp(&b.name));
    ExecOutcome {
        mode,
        workers,
        cpus: w.cpus,
        counters,
        total_cycles: tasks.iter().map(|t| t.cycles).sum(),
        tasks,
        shm,
        mailboxes: mailboxes.into_iter().flatten().collect(),
        fifos: fifos.into_iter().flatten().collect(),
        trace: merge_tagged(traces),
    }
}

// ---------------------------------------------------------------------------
// Deterministic executor
// ---------------------------------------------------------------------------

/// The classic mode: every simulated CPU is multiplexed through one
/// single-threaded event loop, exactly as the kernel has always run. All
/// seeded experiments, proptests and Table-1 benches use this mode; its
/// event stream defines the reference order the parallel mode is checked
/// against.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeterministicExecutor;

impl Executor for DeterministicExecutor {
    fn name(&self) -> &'static str {
        "deterministic"
    }

    fn run(&self, workload: &Workload, horizon: SimDuration) -> Result<ExecOutcome, ExecError> {
        workload.validate()?;
        let mut inst = Instance::build(workload, |_| true)?;
        inst.run_to(SimTime::ZERO + horizon);
        // `assemble` sorts the trace into the canonical (time, cpu, seq)
        // order of the parallel merge, so same-instant events on different
        // CPUs — whose serial interleaving is an implementation accident —
        // compare equal across modes.
        let shard = inst.into_shard(workload, |_| true, true);
        Ok(assemble("deterministic", 1, workload, vec![shard]))
    }
}

// ---------------------------------------------------------------------------
// Parallel executor
// ---------------------------------------------------------------------------

/// What one worker hands the others at an epoch barrier. A worker fills
/// only its own outbox, before the barrier; after it, every worker reads
/// all outboxes in rank order.
struct Outbox {
    /// Per SHM declaration: the segment image, if this worker wrote the
    /// segment this epoch.
    shm: Vec<Option<Vec<u8>>>,
    /// Per mailbox declaration: messages sent to a mailbox homed on
    /// another worker, in send order.
    mailboxes: Vec<Vec<Vec<u8>>>,
    /// Per FIFO declaration: bytes written to a FIFO homed on another
    /// worker.
    fifos: Vec<Vec<u8>>,
}

impl Outbox {
    fn new(w: &Workload) -> Self {
        Outbox {
            shm: vec![None; w.shms.len()],
            mailboxes: vec![Vec::new(); w.mailboxes.len()],
            fifos: vec![Vec::new(); w.fifos.len()],
        }
    }
}

/// Per-CPU worker threads in lockstep epochs. See the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    workers: usize,
    epoch: Option<SimDuration>,
}

impl ParallelExecutor {
    /// `workers` threads with the default 10 ms exchange epoch (cross-CPU
    /// IPC latency bound). Workers are clamped to the CPU count at run
    /// time; extra workers would own no tasks.
    pub fn new(workers: usize) -> Self {
        ParallelExecutor {
            workers: workers.max(1),
            epoch: Some(SimDuration::from_millis(10)),
        }
    }

    /// Sets the barrier epoch: cross-CPU SHM/mailbox/FIFO traffic becomes
    /// visible to other CPUs at multiples of this span.
    pub fn with_epoch(mut self, epoch: SimDuration) -> Self {
        assert!(!epoch.is_zero(), "epoch must be non-zero");
        self.epoch = Some(epoch);
        self
    }

    /// One epoch spanning the whole horizon — minimal synchronization, for
    /// workloads whose IPC stays within single CPUs.
    pub fn single_epoch(mut self) -> Self {
        self.epoch = None;
        self
    }

    /// The worker count this executor was built with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    fn epoch_ends(&self, horizon: SimDuration) -> Vec<SimTime> {
        let end = SimTime::ZERO + horizon;
        let Some(epoch) = self.epoch else {
            return vec![end];
        };
        let mut ends = Vec::new();
        let mut at = SimTime::ZERO;
        while at < end {
            at = (at + epoch).min(end);
            ends.push(at);
        }
        if ends.is_empty() {
            ends.push(end);
        }
        ends
    }
}

impl Executor for ParallelExecutor {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn run(&self, workload: &Workload, horizon: SimDuration) -> Result<ExecOutcome, ExecError> {
        workload.validate()?;
        let workers = self.workers.min(workload.cpus as usize).max(1);
        let shard_of = |cpu: u32| (cpu as usize) % workers;
        let epoch_ends = self.epoch_ends(horizon);
        let outboxes: Vec<RwLock<Outbox>> = (0..workers)
            .map(|_| RwLock::new(Outbox::new(workload)))
            .collect();
        let barrier = Barrier::new(workers);

        let shards: Result<Vec<Shard>, ExecError> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| {
                    let (barrier, outboxes, epoch_ends) = (&barrier, &outboxes, &epoch_ends);
                    scope.spawn(move || {
                        let homed = |cpu: u32| shard_of(cpu) == me;
                        let built = Instance::build(workload, |spec| homed(spec.config.cpu));
                        let mut inst = match built {
                            Ok(inst) => inst,
                            Err(e) => {
                                // Validation ran on the calling thread, so
                                // this is unreachable in practice; keep the
                                // other workers' barriers deadlock-free.
                                for _ in epoch_ends {
                                    barrier.wait();
                                    barrier.wait();
                                }
                                return Err(e);
                            }
                        };
                        let mut shm_published = vec![0u64; workload.shms.len()];
                        for end in epoch_ends {
                            inst.run_to(*end);
                            inst.fill_outbox(
                                workload,
                                &mut outboxes[me].write().unwrap(),
                                &mut shm_published,
                                homed,
                            );
                            barrier.wait();
                            inst.take_deliveries(workload, outboxes, homed);
                            barrier.wait();
                        }
                        Ok(inst.into_shard(workload, homed, me == 0))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });

        Ok(assemble("parallel", workers, workload, shards?))
    }
}

// ---------------------------------------------------------------------------
// Equivalence
// ---------------------------------------------------------------------------

/// Checks that `reference` (the deterministic stream) is a linearization
/// of `candidate` (the parallel merged stream): projected onto every CPU,
/// the `(time, event)` sequences must be identical. Also requires matching
/// per-task outcomes and aggregate counters, so "the same events" cannot
/// hide different final states.
///
/// # Errors
///
/// Returns a human-readable description of the first divergence.
pub fn linearization_equivalent(
    reference: &ExecOutcome,
    candidate: &ExecOutcome,
) -> Result<(), String> {
    if reference.cpus != candidate.cpus {
        return Err(format!(
            "cpu counts differ: {} vs {}",
            reference.cpus, candidate.cpus
        ));
    }
    let cpu_ids = (0..reference.cpus).chain(std::iter::once(u32::MAX));
    for cpu in cpu_ids {
        let a = reference.events_on_cpu(cpu);
        let b = candidate.events_on_cpu(cpu);
        if a.len() != b.len() {
            return Err(format!(
                "cpu {cpu}: {} events in {} mode vs {} in {} mode",
                a.len(),
                reference.mode,
                b.len(),
                candidate.mode
            ));
        }
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            if x != y {
                return Err(format!(
                    "cpu {cpu} diverges at projected index {i}:\n  {} mode: {:?} @ {:?}\n  {} mode: {:?} @ {:?}",
                    reference.mode, x.event, x.time, candidate.mode, y.event, y.time
                ));
            }
        }
    }
    if reference.tasks != candidate.tasks {
        return Err(format!(
            "task outcomes differ:\n  {:?}\nvs\n  {:?}",
            reference.tasks, candidate.tasks
        ));
    }
    if reference.counters != candidate.counters {
        return Err(format!(
            "scheduler counters differ: {:?} vs {:?}",
            reference.counters, candidate.counters
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Multi-kernel lockstep
// ---------------------------------------------------------------------------

/// Epoch coordinator for a *fleet of kernels* advancing in lockstep — the
/// multi-machine counterpart of the in-process epoch barrier the
/// [`ParallelExecutor`] runs its CPU shards on. Each participant (one
/// simulated node's [`Kernel`]) is advanced to a common barrier instant
/// per epoch via [`Kernel::run_until`]; the coordinator tracks who reached
/// the barrier, freezes dead participants at the instant they were killed,
/// and reports drift — a kernel already past the barrier means something
/// advanced it outside the coordinator, which would silently break the
/// determinism of any cross-kernel exchange layered on top.
///
/// The coordinator deliberately does not own the kernels: an orchestration
/// layer (e.g. a federation of DRCR shards) interleaves its own message
/// exchange between epochs, exactly as the parallel executor exchanges IPC
/// at its barriers.
#[derive(Debug, Default)]
pub struct Lockstep {
    barrier: SimTime,
    participants: Vec<LockstepSlot>,
}

#[derive(Debug)]
struct LockstepSlot {
    label: String,
    alive: bool,
    reached: SimTime,
    ran_this_epoch: bool,
}

impl Lockstep {
    /// A coordinator with the barrier at time zero and no participants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a participant; the returned id names it in every later
    /// call.
    pub fn register(&mut self, label: &str) -> usize {
        self.participants.push(LockstepSlot {
            label: label.to_string(),
            alive: true,
            reached: SimTime::ZERO,
            ran_this_epoch: false,
        });
        self.participants.len() - 1
    }

    /// The current barrier instant.
    pub fn barrier(&self) -> SimTime {
        self.barrier
    }

    /// Opens the next epoch: moves the barrier forward by `span` and
    /// clears the per-epoch progress flags. Returns the new barrier.
    pub fn begin_epoch(&mut self, span: SimDuration) -> SimTime {
        self.barrier += span;
        for slot in &mut self.participants {
            slot.ran_this_epoch = false;
        }
        self.barrier
    }

    /// Advances one participant's kernel to the barrier.
    ///
    /// # Errors
    ///
    /// [`ExecError`] when the participant is dead, unknown, or its kernel
    /// sits *past* the barrier already (drift: it was advanced outside the
    /// coordinator).
    pub fn run_to_barrier(&mut self, id: usize, kernel: &mut Kernel) -> Result<SimTime, ExecError> {
        let barrier = self.barrier;
        let slot = self
            .participants
            .get_mut(id)
            .ok_or_else(|| ExecError::new(format!("no lockstep participant {id}")))?;
        if !slot.alive {
            return Err(ExecError::new(format!(
                "participant '{}' is dead (frozen at {:?})",
                slot.label, slot.reached
            )));
        }
        if kernel.now() > barrier {
            return Err(ExecError::new(format!(
                "participant '{}' drifted past the barrier: kernel at {:?}, barrier {:?}",
                slot.label,
                kernel.now(),
                barrier
            )));
        }
        kernel.run_until(barrier);
        slot.reached = kernel.now();
        slot.ran_this_epoch = true;
        Ok(slot.reached)
    }

    /// Kills a participant: its kernel is frozen where it stands and every
    /// later [`Lockstep::run_to_barrier`] for it errors.
    pub fn mark_dead(&mut self, id: usize) {
        if let Some(slot) = self.participants.get_mut(id) {
            slot.alive = false;
            slot.ran_this_epoch = true;
        }
    }

    /// Whether a participant is still advancing.
    pub fn is_alive(&self, id: usize) -> bool {
        self.participants.get(id).is_some_and(|s| s.alive)
    }

    /// Number of live participants.
    pub fn alive_count(&self) -> usize {
        self.participants.iter().filter(|s| s.alive).count()
    }

    /// Closes the epoch: every live participant must have been advanced
    /// to the barrier since [`Lockstep::begin_epoch`].
    ///
    /// # Errors
    ///
    /// [`ExecError`] naming the first laggard or drifted participant.
    pub fn finish_epoch(&self) -> Result<(), ExecError> {
        for slot in &self.participants {
            if !slot.alive {
                continue;
            }
            if !slot.ran_this_epoch {
                return Err(ExecError::new(format!(
                    "participant '{}' never ran this epoch (barrier {:?})",
                    slot.label, self.barrier
                )));
            }
            if slot.reached != self.barrier {
                return Err(ExecError::new(format!(
                    "participant '{}' stopped at {:?}, barrier {:?}",
                    slot.label, slot.reached, self.barrier
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{FnBody, Priority, SpinBody, TaskConfig};

    fn two_cpu_workload() -> Workload {
        let mut w = Workload::new(2, 42);
        for cpu in 0..2u32 {
            for slot in 0..2u32 {
                let name = format!("t{cpu}{slot}");
                let cfg = TaskConfig::periodic(
                    &name,
                    Priority(2 + slot as u8),
                    SimDuration::from_millis(1 + slot as u64),
                )
                .unwrap()
                .on_cpu(cpu)
                .with_base_cost(SimDuration::from_micros(100))
                .with_latency_tracking();
                w = w.task(cfg, || Box::new(SpinBody::new(8)));
            }
        }
        w
    }

    #[test]
    fn deterministic_executor_matches_itself() {
        let w = two_cpu_workload();
        let a = DeterministicExecutor
            .run(&w, SimDuration::from_millis(50))
            .unwrap();
        let b = DeterministicExecutor
            .run(&w, SimDuration::from_millis(50))
            .unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.tasks, b.tasks);
        assert!(a.total_cycles > 0);
    }

    #[test]
    fn parallel_run_is_deterministic_across_runs() {
        let w = two_cpu_workload();
        let exec = ParallelExecutor::new(2);
        let a = exec.run(&w, SimDuration::from_millis(50)).unwrap();
        let b = exec.run(&w, SimDuration::from_millis(50)).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn parallel_matches_deterministic_on_quiescent_workload() {
        let w = two_cpu_workload();
        let det = DeterministicExecutor
            .run(&w, SimDuration::from_millis(50))
            .unwrap();
        for workers in [1, 2] {
            let par = ParallelExecutor::new(workers)
                .run(&w, SimDuration::from_millis(50))
                .unwrap();
            linearization_equivalent(&det, &par).unwrap();
        }
    }

    #[test]
    fn single_worker_parallel_reproduces_full_serial_order() {
        // With one worker the shard is the whole machine; even the total
        // (not just per-CPU) event order must match the serial loop.
        let w = two_cpu_workload();
        let det = DeterministicExecutor
            .run(&w, SimDuration::from_millis(20))
            .unwrap();
        let par = ParallelExecutor::new(1)
            .run(&w, SimDuration::from_millis(20))
            .unwrap();
        let a: Vec<_> = det.trace.iter().map(|e| &e.entry).collect();
        let b: Vec<_> = par.trace.iter().map(|e| &e.entry).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn cross_cpu_mailbox_delivers_at_barriers() {
        let producer_cfg = TaskConfig::periodic("prod", Priority(2), SimDuration::from_millis(1))
            .unwrap()
            .on_cpu(0)
            .with_base_cost(SimDuration::from_micros(50));
        let consumer_cfg = TaskConfig::aperiodic("cons", Priority(2))
            .unwrap()
            .on_cpu(1)
            .with_base_cost(SimDuration::from_micros(50));
        let w = Workload::new(2, 7)
            .mailbox("evtq", 64, 1)
            .task(producer_cfg, || {
                Box::new(FnBody(|ctx: &mut crate::kernel::TaskCtx<'_>| {
                    let cycle = ctx.cycle();
                    let _ = ctx.mailbox_send("evtq", &cycle.to_le_bytes());
                }))
            })
            .task_spec(TaskSpec {
                config: consumer_cfg,
                factory: Arc::new(|| {
                    Box::new(FnBody(
                        |ctx: &mut crate::kernel::TaskCtx<'_>| {
                            while let Ok(Some(_)) = ctx.mailbox_recv("evtq") {}
                        },
                    ))
                }),
                autostart: true,
                wake_on: Some("evtq".to_string()),
                triggers: Vec::new(),
            });
        let outcome = ParallelExecutor::new(2)
            .with_epoch(SimDuration::from_millis(5))
            .run(&w, SimDuration::from_millis(40))
            .unwrap();
        let consumer = outcome.task("cons").unwrap();
        assert!(
            consumer.cycles > 0,
            "cross-CPU mailbox wakeups should fire at barriers: {consumer:?}"
        );
        // The deterministic mode also delivers (immediately); both drain.
        let det = DeterministicExecutor
            .run(&w, SimDuration::from_millis(40))
            .unwrap();
        assert!(det.task("cons").unwrap().cycles > 0);
    }

    /// Epoch of the exchange tests' parallel runs.
    const EXCHANGE_EPOCH: SimDuration = SimDuration::from_millis(5);

    /// Three CPUs, one worker each. `src0`/`src1` on CPUs 0 and 1 write the
    /// SHM segment `state` in their first cycle only, and every cycle send
    /// `[cpu, cycle]` to the mailbox `evtq` and the FIFO `strm`, both homed
    /// on CPU 2. A reader on every CPU logs its replica of `state`; `mbx`
    /// and `ff` on CPU 2 log each message and byte pair they receive.
    fn exchange_workload() -> Workload {
        let mut w = Workload::new(3, 11)
            .shm("state", DataType::Byte, 4)
            .mailbox("evtq", 64, 2)
            .fifo("strm", 256, 2);
        let every_ms = |name: &str, cpu: u32, prio: u8| {
            TaskConfig::periodic(name, Priority(prio), SimDuration::from_millis(1))
                .unwrap()
                .on_cpu(cpu)
                .with_base_cost(SimDuration::from_micros(50))
        };
        for cpu in 0..2u8 {
            w = w.task(every_ms(&format!("src{cpu}"), cpu as u32, 2), move || {
                Box::new(FnBody(move |ctx: &mut crate::kernel::TaskCtx<'_>| {
                    let cycle = ctx.cycle() as u8;
                    if cycle == 0 {
                        ctx.shm_write("state", &[0xA0 + cpu; 4]).unwrap();
                    }
                    let _ = ctx.mailbox_send("evtq", &[cpu, cycle]);
                    let _ = ctx.fifo_put("strm", &[cpu, cycle]);
                }))
            });
        }
        for cpu in 0..3u32 {
            w = w.task(every_ms(&format!("rd{cpu}"), cpu, 3), || {
                Box::new(FnBody(|ctx: &mut crate::kernel::TaskCtx<'_>| {
                    let image = ctx.shm_read("state").unwrap();
                    ctx.log(format!("{image:?}"));
                }))
            });
        }
        w.task_spec(TaskSpec {
            config: TaskConfig::aperiodic("mbx", Priority(2))
                .unwrap()
                .on_cpu(2)
                .with_base_cost(SimDuration::from_micros(50)),
            factory: Arc::new(|| {
                Box::new(FnBody(|ctx: &mut crate::kernel::TaskCtx<'_>| {
                    while let Ok(Some(msg)) = ctx.mailbox_recv("evtq") {
                        ctx.log(format!("{} {}", msg[0], msg[1]));
                    }
                }))
            }),
            autostart: true,
            wake_on: Some("evtq".to_string()),
            triggers: Vec::new(),
        })
        .task(every_ms("ff", 2, 2), || {
            Box::new(FnBody(|ctx: &mut crate::kernel::TaskCtx<'_>| {
                let bytes = ctx.fifo_get("strm", usize::MAX).unwrap();
                for pair in bytes.chunks(2) {
                    ctx.log(format!("{} {}", pair[0], pair[1]));
                }
            }))
        })
    }

    fn run_exchange() -> ExecOutcome {
        ParallelExecutor::new(3)
            .with_epoch(EXCHANGE_EPOCH)
            .run(&exchange_workload(), SimDuration::from_millis(30))
            .unwrap()
    }

    /// `(time, message)` of every line `task` logged, in trace order.
    fn logs<'a>(outcome: &'a ExecOutcome, task: &str) -> Vec<(SimTime, &'a str)> {
        outcome
            .trace
            .iter()
            .filter_map(|e| match &e.entry.event {
                KernelEvent::UserLog { task: t, message } if t.as_str() == task => {
                    Some((e.entry.time, message.as_str()))
                }
                _ => None,
            })
            .collect()
    }

    /// A consumer's `[cpu, cycle]` receipts grouped by the instant it read
    /// them; each group is one barrier's delivery.
    fn deliveries(outcome: &ExecOutcome, task: &str) -> Vec<Vec<(u8, u8)>> {
        let mut groups: Vec<(SimTime, Vec<(u8, u8)>)> = Vec::new();
        for (at, line) in logs(outcome, task) {
            let (cpu, cycle) = line.split_once(' ').unwrap();
            let item = (cpu.parse().unwrap(), cycle.parse().unwrap());
            match groups.last_mut() {
                Some((t, group)) if *t == at => group.push(item),
                _ => groups.push((at, vec![item])),
            }
        }
        groups.into_iter().map(|(_, group)| group).collect()
    }

    /// Every delivery, and what the port still holds (`pending`), carries
    /// worker 0's items, then worker 1's, each in send order; no item is
    /// lost.
    fn assert_rank_ordered(outcome: &ExecOutcome, task: &str, pending: &[u8]) {
        let mut groups = deliveries(outcome, task);
        groups.push(pending.chunks(2).map(|p| (p[0], p[1])).collect());
        for group in &groups {
            let mut sorted = group.clone();
            sorted.sort();
            assert_eq!(group, &sorted, "{task}: delivery not in rank order");
        }
        assert!(
            groups.iter().any(|g| {
                let from0 = g.iter().filter(|(cpu, _)| *cpu == 0).count();
                from0 >= 2 && g.len() - from0 >= 2
            }),
            "{task}: no delivery carried several items from both producers: {groups:?}"
        );
        for cpu in 0..2u8 {
            let cycles: Vec<u8> = groups
                .iter()
                .flatten()
                .filter(|(from, _)| *from == cpu)
                .map(|(_, cycle)| *cycle)
                .collect();
            assert_eq!(cycles, (0..cycles.len() as u8).collect::<Vec<_>>());
            let completed = outcome.task(&format!("src{cpu}")).unwrap().cycles;
            assert!(cycles.len() as u64 >= completed, "{task}: items lost");
        }
    }

    #[test]
    fn exchange_shm_highest_rank_writer_wins_on_every_replica() {
        let outcome = run_exchange();
        let winner = format!("{:?}", [0xA1u8; 4]);
        let first_barrier = SimTime::ZERO + EXCHANGE_EPOCH;
        // Within the first epoch each writer sees its own write.
        assert_eq!(logs(&outcome, "rd0")[0].1, format!("{:?}", [0xA0u8; 4]));
        assert_eq!(logs(&outcome, "rd1")[0].1, winner);
        for cpu in 0..3 {
            let after: Vec<_> = logs(&outcome, &format!("rd{cpu}"))
                .into_iter()
                .filter(|(at, _)| *at > first_barrier)
                .collect();
            assert!(after.len() >= 20, "rd{cpu} logged {}", after.len());
            // Later epochs are quiet: the converged image never changes.
            for (at, image) in after {
                assert_eq!(image, winner, "rd{cpu} at {at:?}");
            }
        }
        assert_eq!(outcome.shm[0].bytes, vec![0xA1u8; 4]);
    }

    #[test]
    fn exchange_mailbox_appends_worker_outboxes_in_rank_order() {
        let outcome = run_exchange();
        assert_rank_ordered(&outcome, "mbx", &outcome.mailboxes[0].bytes);
    }

    #[test]
    fn exchange_fifo_appends_worker_bytes_in_rank_order() {
        let outcome = run_exchange();
        assert_rank_ordered(&outcome, "ff", &outcome.fifos[0].bytes);
    }

    #[test]
    fn exchange_replays_identically() {
        let runs: Vec<String> = (0..3).map(|_| format!("{:?}", run_exchange())).collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn workload_validation_rejects_bad_bindings() {
        let cfg = TaskConfig::aperiodic("a", Priority(2)).unwrap().on_cpu(1);
        let w = Workload::new(2, 0).mailbox("m", 4, 0).task_spec(TaskSpec {
            config: cfg,
            factory: Arc::new(|| Box::new(crate::task::IdleBody)),
            autostart: true,
            wake_on: Some("m".to_string()),
            triggers: Vec::new(),
        });
        let err = w.validate().unwrap_err();
        assert!(err.to_string().contains("homed on CPU"));
        assert!(ParallelExecutor::new(2)
            .run(&w, SimDuration::from_millis(1))
            .is_err());
    }

    fn ticking_kernel(seed: u64) -> Kernel {
        let mut kernel = Kernel::new(KernelConfig::new(seed).with_timer(TimerJitterModel::ideal()));
        let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_millis(1)).unwrap();
        let id = kernel
            .create_task(
                cfg,
                Box::new(FnBody(|_ctx: &mut crate::kernel::TaskCtx<'_>| {})),
            )
            .unwrap();
        kernel.start_task(id).unwrap();
        kernel
    }

    #[test]
    fn lockstep_advances_a_kernel_fleet_to_common_barriers() {
        let mut step = Lockstep::new();
        let mut kernels: Vec<Kernel> = (0..3).map(ticking_kernel).collect();
        let ids: Vec<usize> = (0..3).map(|i| step.register(&format!("n{i}"))).collect();
        for _ in 0..5 {
            let barrier = step.begin_epoch(SimDuration::from_millis(10));
            for (id, kernel) in ids.iter().zip(kernels.iter_mut()) {
                let reached = step.run_to_barrier(*id, kernel).unwrap();
                assert_eq!(reached, barrier);
            }
            step.finish_epoch().unwrap();
        }
        for kernel in &kernels {
            assert_eq!(kernel.now(), SimTime::ZERO + SimDuration::from_millis(50));
            // 50 ms at 1 kHz: the fleet really ran, it didn't just warp.
            assert!(kernel.counters().dispatches >= 49);
        }
    }

    #[test]
    fn lockstep_freezes_dead_participants_and_reports_drift() {
        let mut step = Lockstep::new();
        let mut a = ticking_kernel(1);
        let mut b = ticking_kernel(2);
        let ia = step.register("a");
        let ib = step.register("b");
        step.begin_epoch(SimDuration::from_millis(10));
        step.run_to_barrier(ia, &mut a).unwrap();
        step.run_to_barrier(ib, &mut b).unwrap();
        step.finish_epoch().unwrap();

        // Kill b: it freezes at the last barrier and later epochs reject it.
        step.mark_dead(ib);
        assert!(!step.is_alive(ib));
        assert_eq!(step.alive_count(), 1);
        step.begin_epoch(SimDuration::from_millis(10));
        step.run_to_barrier(ia, &mut a).unwrap();
        assert!(step.run_to_barrier(ib, &mut b).is_err());
        step.finish_epoch().unwrap();
        assert_eq!(b.now(), SimTime::ZERO + SimDuration::from_millis(10));

        // A kernel advanced outside the coordinator is drift, not silence.
        a.run_for(SimDuration::from_millis(25));
        step.begin_epoch(SimDuration::from_millis(10));
        let err = step.run_to_barrier(ia, &mut a).unwrap_err();
        assert!(err.to_string().contains("drifted"), "{err}");
    }

    #[test]
    fn lockstep_finish_epoch_catches_laggards() {
        let mut step = Lockstep::new();
        let mut a = ticking_kernel(3);
        let ia = step.register("a");
        let _ib = step.register("b");
        step.begin_epoch(SimDuration::from_millis(5));
        step.run_to_barrier(ia, &mut a).unwrap();
        let err = step.finish_epoch().unwrap_err();
        assert!(err.to_string().contains("'b'"), "{err}");
    }
}
