//! # rtos — a deterministic RTAI-like real-time kernel simulator
//!
//! This crate simulates the real-time substrate of the paper *"A framework
//! for adaptive real-time applications: the declarative real-time OSGi
//! component model"* (Gui et al., Middleware 2008): an RTAI-patched Linux
//! machine with a **dual-kernel** architecture where hard-real-time tasks
//! always preempt ordinary Linux work.
//!
//! Everything runs in virtual nanosecond time inside a discrete-event
//! engine, so experiments are fast and exactly reproducible from a seed.
//! Two execution modes share one task model (see [`exec`]): the classic
//! single-threaded lockstep loop ([`exec::DeterministicExecutor`]), and a
//! per-CPU worker-thread mode ([`exec::ParallelExecutor`]) whose merged
//! event stream is provably a linearization of the serial order on
//! quiescent workloads. The pieces:
//!
//! * [`kernel`] — the event engine: per-CPU fixed-priority preemptive
//!   scheduling with round-robin among equal priorities, task lifecycle,
//!   latency capture.
//! * [`exec`] — the executor layer: thread-shippable [`exec::Workload`]
//!   specs, the two executors, and the linearization-equivalence check.
//!   The parallel executor exchanges cross-CPU IPC through one outbox per
//!   worker at its epoch barriers.
//! * [`task`] — task names (6-character OS limit), priorities (lower is more
//!   urgent), configuration, and the [`task::TaskBody`] behaviour trait.
//! * [`shm`] / [`mailbox`] / [`fifo`] — the `RTAI.SHM`, `RTAI.Mailbox` and
//!   `RTAI.FIFO` IPC carriers used by component ports.
//! * [`lxrt`] — an RTAI-LXRT-shaped function façade (`rt_task_init`,
//!   `rt_task_make_periodic`, `rt_mbx_send_if`, ...).
//! * [`latency`] — Table-1 statistics (AVERAGE/AVEDEV/MIN/MAX) and the
//!   calibrated hardware-timer error model.
//! * [`hist`] — the one log-linear histogram every layer summarises a
//!   distribution with.
//! * [`load`] — the light/stress background-load regimes of the evaluation.
//!
//! ## Quick start
//!
//! ```
//! use rtos::kernel::{Kernel, KernelConfig, TaskCtx};
//! use rtos::task::{FnBody, Priority, TaskConfig};
//! use rtos::time::SimDuration;
//!
//! # fn main() -> Result<(), rtos::error::KernelError> {
//! let mut kernel = Kernel::new(KernelConfig::new(7));
//! let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_hz(1000))?
//!     .with_latency_tracking();
//! let task = kernel.create_task(
//!     cfg,
//!     Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
//!         ctx.compute(SimDuration::from_micros(50));
//!     })),
//! )?;
//! kernel.start_task(task)?;
//! kernel.run_for(SimDuration::from_secs(1));
//! let stats = kernel.task_stats(task).unwrap();
//! // Timer jitter may push the final release just past the horizon.
//! assert!((999..=1000).contains(&stats.count()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod exec;
pub mod fifo;
pub mod hist;
pub mod kernel;
pub mod latency;
pub mod load;
pub mod lxrt;
pub mod mailbox;
pub mod rng;
pub mod shm;
pub mod task;
pub mod time;
pub mod trace;

pub use error::{IpcError, KernelError, NameError};
pub use exec::{
    linearization_equivalent, DeterministicExecutor, ExecOutcome, Executor, Lockstep,
    ParallelExecutor, Workload,
};
pub use kernel::{Kernel, KernelConfig, TaskCtx};
pub use latency::{LatencyStats, LoadMode, TimerJitterModel, TimerMode};
pub use task::{ObjName, Priority, TaskBody, TaskConfig, TaskId, TaskState};
pub use time::{LatencyNs, SimDuration, SimTime};
pub use trace::{EventSink, KernelEvent, Timestamped, TraceRing, TraceSubscriber};
