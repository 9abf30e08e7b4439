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
//! cross-CPU traffic through lock-free carriers:
//!
//! * SHM segments — published through [`SeqlockCell`]s; competing writers
//!   converge by highest `(epoch, worker rank)` version, never by OS
//!   scheduling order.
//! * Mailboxes — envelopes pushed into per-mailbox [`MpscChannel`]s and
//!   drained by the declared *home* worker, which re-sorts them by
//!   `(producer rank, sequence)` before posting, so delivery order is
//!   deterministic.
//! * FIFO byte streams — per-producer [`SpscRing`]s drained in worker-rank
//!   order at the home worker.
//!
//! Per-thread trace buffers are tagged `(cpu, seq)` and merged into one
//! deterministic total order at each barrier ([`merge_tagged`]).
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
use crate::fifo::SpscRing;
use crate::kernel::{Kernel, KernelConfig, SchedCounters};
use crate::latency::{LoadMode, TimerJitterModel};
use crate::mailbox::MpscChannel;
use crate::shm::{DataType, SeqlockCell, ShmRegistry};
use crate::task::{ObjName, TaskBody, TaskConfig, TaskId, TaskState};
use crate::time::{SimDuration, SimTime};
use crate::trace::{merge_tagged, KernelEvent, TaggedEvent, Timestamped, TraceSubscriber};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, Barrier, Mutex};

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

/// Selects an executor from the `RTOS_EXECUTOR` environment variable:
/// `parallel` (optionally `parallel:<workers>`) for [`ParallelExecutor`],
/// anything else — including unset — for [`DeterministicExecutor`].
pub fn executor_from_env() -> Box<dyn Executor> {
    match std::env::var("RTOS_EXECUTOR") {
        Ok(value) => {
            let value = value.trim().to_ascii_lowercase();
            if let Some(rest) = value.strip_prefix("parallel") {
                let workers = rest
                    .strip_prefix(':')
                    .and_then(|n| n.parse::<usize>().ok())
                    .unwrap_or_else(|| {
                        std::thread::available_parallelism()
                            .map(|n| n.get())
                            .unwrap_or(1)
                    });
                Box::new(ParallelExecutor::new(workers.max(1)))
            } else {
                Box::new(DeterministicExecutor)
            }
        }
        Err(_) => Box::new(DeterministicExecutor),
    }
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
}

fn finalize_tasks(mut tasks: Vec<TaskOutcome>) -> (Vec<TaskOutcome>, u64) {
    tasks.sort_by(|a, b| a.name.cmp(&b.name));
    let total = tasks.iter().map(|t| t.cycles).sum();
    (tasks, total)
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
        // Present the trace in the same canonical (time, cpu, seq) order
        // the parallel merge produces, so same-instant events on different
        // CPUs — whose serial interleaving is an implementation accident —
        // compare equal across modes.
        let trace = merge_tagged(vec![inst.drain_tagged()]);
        let counters = inst.kernel.counters();
        let (tasks, total_cycles) = finalize_tasks(inst.task_outcomes(workload));
        let shm = inst.shm_outcomes(workload);
        let mailboxes = workload
            .mailboxes
            .iter()
            .map(|d| inst.mailbox_outcome(&d.name))
            .collect();
        let fifos = workload
            .fifos
            .iter()
            .map(|d| inst.fifo_outcome(&d.name))
            .collect();
        Ok(ExecOutcome {
            mode: "deterministic",
            workers: 1,
            cpus: workload.cpus,
            counters,
            tasks,
            shm,
            mailboxes,
            fifos,
            trace,
            total_cycles,
        })
    }
}

// ---------------------------------------------------------------------------
// Parallel executor
// ---------------------------------------------------------------------------

/// Cross-worker mailbox envelope. Sorting by `(producer, seq)` restores a
/// deterministic delivery order out of the arbitrary interleaving the
/// lock-free channel permits.
struct Envelope {
    producer: u32,
    seq: u64,
    bytes: Vec<u8>,
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

        // Cross-worker carriers, one set per port declaration.
        let mut probe = ShmRegistry::new();
        let shm_cells: Vec<SeqlockCell> = workload
            .shms
            .iter()
            .map(|d| {
                probe
                    .alloc(&d.name, d.data_type, d.elements)
                    .map_err(|e| ExecError::new(e.to_string()))?;
                Ok(SeqlockCell::new(
                    probe.get(&d.name).map(|s| s.byte_len()).unwrap_or(0),
                ))
            })
            .collect::<Result<_, ExecError>>()?;
        let mbx_channels: Vec<MpscChannel<Envelope>> = workload
            .mailboxes
            .iter()
            .map(|_| MpscChannel::new())
            .collect();
        // One ring per (fifo, producing worker); generously sized so an
        // epoch's worth of traffic is not truncated before the home FIFO
        // gets to apply its own bounded-capacity policy.
        let fifo_rings: Vec<Vec<SpscRing>> = workload
            .fifos
            .iter()
            .map(|d| {
                (0..workers)
                    .map(|_| SpscRing::new(d.capacity.max(4096)))
                    .collect()
            })
            .collect();

        let barrier = Barrier::new(workers);
        let epoch_chunks: Mutex<Vec<Vec<TaggedEvent<KernelEvent>>>> = Mutex::new(Vec::new());
        let merged: Mutex<Vec<TaggedEvent<KernelEvent>>> = Mutex::new(Vec::new());
        type ShardReport = (
            SchedCounters,
            Vec<TaskOutcome>,
            Vec<(usize, PortOutcome)>, // mailboxes homed here (decl idx)
            Vec<(usize, PortOutcome)>, // fifos homed here (decl idx)
            Vec<PortOutcome>,          // SHM images (worker 0 only)
        );
        let reports: Mutex<Vec<Option<ShardReport>>> =
            Mutex::new((0..workers).map(|_| None).collect());
        let setup_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for me in 0..workers {
                let barrier = &barrier;
                let epoch_chunks = &epoch_chunks;
                let merged = &merged;
                let reports = &reports;
                let setup_errors = &setup_errors;
                let shm_cells = &shm_cells;
                let mbx_channels = &mbx_channels;
                let fifo_rings = &fifo_rings;
                let epoch_ends = &epoch_ends;
                scope.spawn(move || {
                    // Validation ran on the calling thread, so setup can
                    // only fail on kernel invariants already checked;
                    // record and bail through the barriers if it somehow
                    // does, keeping the other workers deadlock-free.
                    let built = Instance::build(workload, |spec| shard_of(spec.config.cpu) == me);
                    let mut inst = match built {
                        Ok(inst) => inst,
                        Err(e) => {
                            setup_errors.lock().unwrap().push(e.to_string());
                            for _ in epoch_ends.iter() {
                                barrier.wait();
                                barrier.wait();
                            }
                            return;
                        }
                    };
                    // Per-decl publication bookkeeping.
                    let mut shm_published: Vec<u64> = vec![0; workload.shms.len()];
                    let mut shm_seen: Vec<u64> = vec![0; workload.shms.len()];
                    let mut mbx_seq: u64 = 0;

                    for (epoch_idx, end) in epoch_ends.iter().enumerate() {
                        inst.run_to(*end);

                        // --- exchange out (lock-free, pre-barrier) ---
                        for (i, decl) in workload.shms.iter().enumerate() {
                            let seg = inst.kernel.shm().get(&decl.name);
                            let writes = seg.map(|s| s.write_count()).unwrap_or(0);
                            if writes > shm_published[i] {
                                shm_published[i] = writes;
                                let image =
                                    inst.kernel.shm_mut().read(&decl.name).unwrap_or_default();
                                let version =
                                    SeqlockCell::pack_version(epoch_idx as u64 + 1, me as u32);
                                if shm_cells[i].publish(version, &image) {
                                    shm_seen[i] = version;
                                }
                            }
                        }
                        for (i, decl) in workload.mailboxes.iter().enumerate() {
                            if shard_of(decl.home_cpu) == me {
                                continue; // local sends stay local
                            }
                            while let Ok(Some(bytes)) = inst.kernel.mailboxes_mut().recv(&decl.name)
                            {
                                mbx_channels[i].push(Envelope {
                                    producer: me as u32,
                                    seq: mbx_seq,
                                    bytes,
                                });
                                mbx_seq += 1;
                            }
                        }
                        for (i, decl) in workload.fifos.iter().enumerate() {
                            if shard_of(decl.home_cpu) == me {
                                continue;
                            }
                            let bytes = inst
                                .kernel
                                .fifos_mut()
                                .get(&decl.name, usize::MAX)
                                .unwrap_or_default();
                            if !bytes.is_empty() {
                                fifo_rings[i][me].push(&bytes);
                            }
                        }
                        let chunk = inst.drain_tagged();
                        if !chunk.is_empty() {
                            epoch_chunks.lock().unwrap().push(chunk);
                        }

                        barrier.wait();

                        // --- merge (worker 0) + exchange in ---
                        if me == 0 {
                            let chunks = std::mem::take(&mut *epoch_chunks.lock().unwrap());
                            if !chunks.is_empty() {
                                merged.lock().unwrap().extend(merge_tagged(chunks));
                            }
                        }
                        for (i, decl) in workload.shms.iter().enumerate() {
                            if let Some((version, bytes)) = shm_cells[i].read() {
                                if version > shm_seen[i] {
                                    shm_seen[i] = version;
                                    inst.kernel.shm_mut().overwrite(&decl.name, &bytes);
                                }
                            }
                        }
                        for (i, decl) in workload.mailboxes.iter().enumerate() {
                            if shard_of(decl.home_cpu) != me {
                                continue;
                            }
                            let mut envelopes = mbx_channels[i].drain();
                            envelopes.sort_by_key(|e| (e.producer, e.seq));
                            for envelope in envelopes {
                                let _ = inst.kernel.post(&decl.name, &envelope.bytes);
                            }
                        }
                        for (i, decl) in workload.fifos.iter().enumerate() {
                            if shard_of(decl.home_cpu) != me {
                                continue;
                            }
                            for ring in fifo_rings[i].iter() {
                                let bytes = ring.pop_all();
                                if !bytes.is_empty() {
                                    let _ = inst.kernel.fifos_mut().put(&decl.name, &bytes);
                                }
                            }
                        }

                        barrier.wait();
                    }

                    // Post-barrier deliveries may have emitted events
                    // (mailbox wakes); fold the tail chunk in via the
                    // shared merge path.
                    let tail = inst.drain_tagged();
                    if !tail.is_empty() {
                        merged.lock().unwrap().extend(merge_tagged(vec![tail]));
                    }

                    let counters = inst.kernel.counters();
                    let tasks = inst.task_outcomes(workload);
                    let mailboxes: Vec<(usize, PortOutcome)> = workload
                        .mailboxes
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| shard_of(d.home_cpu) == me)
                        .map(|(i, d)| (i, inst.mailbox_outcome(&d.name)))
                        .collect();
                    let fifos: Vec<(usize, PortOutcome)> = workload
                        .fifos
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| shard_of(d.home_cpu) == me)
                        .map(|(i, d)| (i, inst.fifo_outcome(&d.name)))
                        .collect();
                    let shm = if me == 0 {
                        inst.shm_outcomes(workload)
                    } else {
                        Vec::new()
                    };
                    reports.lock().unwrap()[me] = Some((counters, tasks, mailboxes, fifos, shm));
                });
            }
        });

        let errors = setup_errors.into_inner().unwrap();
        if let Some(e) = errors.into_iter().next() {
            return Err(ExecError::new(e));
        }

        // Merge the final-epoch tail chunks deterministically: the tails
        // were appended in whatever order workers finished, so re-sort the
        // whole stream (stable; keyed identically to merge_tagged).
        let mut trace = merged.into_inner().unwrap();
        trace = merge_tagged(vec![trace]);

        let mut counters = SchedCounters::default();
        let mut tasks = Vec::new();
        let mut mailbox_slots: Vec<Option<PortOutcome>> =
            (0..workload.mailboxes.len()).map(|_| None).collect();
        let mut fifo_slots: Vec<Option<PortOutcome>> =
            (0..workload.fifos.len()).map(|_| None).collect();
        let mut shm = Vec::new();
        for report in reports.into_inner().unwrap().into_iter().flatten() {
            let (c, t, mbx, ff, s) = report;
            counters.dispatches += c.dispatches;
            counters.preemptions += c.preemptions;
            counters.timeslices += c.timeslices;
            counters.overruns += c.overruns;
            counters.faults += c.faults;
            counters.deadline_misses += c.deadline_misses;
            tasks.extend(t);
            for (i, outcome) in mbx {
                mailbox_slots[i] = Some(outcome);
            }
            for (i, outcome) in ff {
                fifo_slots[i] = Some(outcome);
            }
            if !s.is_empty() {
                shm = s;
            }
        }
        let (tasks, total_cycles) = finalize_tasks(tasks);
        let mailboxes = mailbox_slots.into_iter().flatten().collect();
        let fifos = fifo_slots.into_iter().flatten().collect();
        Ok(ExecOutcome {
            mode: "parallel",
            workers,
            cpus: workload.cpus,
            counters,
            tasks,
            shm,
            mailboxes,
            fifos,
            trace,
            total_cycles,
        })
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

    #[test]
    fn executor_from_env_defaults_to_deterministic() {
        // Only checks the unset path (mutating the environment would race
        // with other tests); the parallel path is covered by parsing in CI
        // via the RTOS_EXECUTOR job step.
        if std::env::var("RTOS_EXECUTOR").is_err() {
            assert_eq!(executor_from_env().name(), "deterministic");
        }
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
