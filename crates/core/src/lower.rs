//! The one descriptor→kernel lowering: the RT task and the channels a
//! component contract becomes in the simulated RTAI kernel.
//!
//! [`Drcr`](crate::Drcr) activation and
//! [`FleetBridge`](crate::FleetBridge) both build from [`lower`], so the
//! executive and the executor path cannot drift apart. Each keeps only
//! what is its own: the executive its rollback journal and §3.2 bridge
//! mailboxes, the bridge its port homing and fleet validation.

use crate::descriptor::ComponentDescriptor;
use crate::error::DrcrError;
use crate::model::{PortDirection, PortInterface, PortSpec};
use rtos::shm::DataType;
use rtos::task::TaskConfig;
use rtos::time::SimDuration;

/// The kernel channel behind one port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// A last-value segment of `elements` values of `data_type`.
    Shm {
        /// Element type.
        data_type: DataType,
        /// Element count.
        elements: usize,
    },
    /// A queue of `capacity` messages (at least one).
    Mailbox {
        /// Message capacity.
        capacity: usize,
    },
    /// A byte stream with four buffers' worth of slack.
    Fifo {
        /// Byte capacity.
        capacity: usize,
    },
}

impl Channel {
    fn of(port: &PortSpec) -> Channel {
        match port.interface {
            PortInterface::Shm => Channel::Shm {
                data_type: port.data_type,
                elements: port.size,
            },
            PortInterface::Mailbox => Channel::Mailbox {
                capacity: port.size.max(1),
            },
            PortInterface::Fifo => Channel::Fifo {
                capacity: port.byte_len().max(1) * 4,
            },
        }
    }
}

/// A component contract lowered to kernel objects.
pub struct Lowering<'a> {
    /// The RT task's configuration.
    pub task: TaskConfig,
    descriptor: &'a ComponentDescriptor,
}

impl<'a> Lowering<'a> {
    /// Every port with the channel backing it: outports, then inports,
    /// each in declaration order.
    pub fn channels(&self) -> impl Iterator<Item = (PortDirection, &'a PortSpec, Channel)> {
        let d = self.descriptor;
        let outs = d.outports.iter().map(|p| (PortDirection::Out, p));
        let ins = d.inports.iter().map(|p| (PortDirection::In, p));
        outs.chain(ins).map(|(dir, p)| (dir, p, Channel::of(p)))
    }
}

/// Lowers one component contract. The task is periodic or aperiodic as
/// declared, pinned to the declared CPU and latency-tracked. With a
/// `budget_overhead_ns`, a periodic task also gets a per-cycle execution
/// budget of `ceil(period × claimed fraction)` plus that overhead, floored
/// at 1 ns: the per-cycle cost response-time admission reserves for a task
/// charged that overhead ([`crate::rta::RtaParams::overhead_ns`]). The
/// executive passes [`crate::rta::CONTAINER_OVERHEAD_NS`], since its tasks
/// run in the hybrid container; fleet bodies run bare and pass 0.
///
/// # Errors
///
/// [`DrcrError::Kernel`] when the name is not a valid kernel task name.
pub fn lower(
    descriptor: &ComponentDescriptor,
    budget_overhead_ns: Option<u64>,
) -> Result<Lowering<'_>, DrcrError> {
    let name = descriptor.name.as_str();
    let priority = descriptor.task.priority();
    let period = descriptor.task.period();
    let task = match period {
        Some(period) => TaskConfig::periodic(name, priority, period),
        None => TaskConfig::aperiodic(name, priority),
    }
    .map_err(|e| DrcrError::Kernel(e.to_string()))?
    .on_cpu(descriptor.task.cpu())
    .with_latency_tracking();
    let task = match (period, budget_overhead_ns) {
        (Some(period), Some(overhead_ns)) => {
            let claim_ns =
                (period.as_nanos() as f64 * descriptor.cpu_usage.fraction()).ceil() as u64;
            let budget_ns = claim_ns.saturating_add(overhead_ns).max(1);
            task.with_exec_budget(SimDuration::from_nanos(budget_ns))
        }
        _ => task,
    };
    Ok(Lowering { task, descriptor })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> Option<SimDuration> {
        Some(SimDuration::from_nanos(v))
    }

    #[test]
    fn budget_is_the_ceiled_claim_plus_overhead_floored_at_one_nanosecond() {
        // 1000 Hz → 1 ms period; 0.25 of it is 250 µs.
        let d = ComponentDescriptor::builder("sensor")
            .periodic(1000, 1, 3)
            .cpu_usage(0.25)
            .build()
            .unwrap();
        let task = lower(&d, Some(0)).unwrap().task;
        assert_eq!(task.exec_budget, ns(250_000));
        // The executive's budget is what response-time admission reserves:
        // the claim plus the container overhead.
        let overhead = crate::rta::CONTAINER_OVERHEAD_NS;
        let task = lower(&d, Some(overhead)).unwrap().task;
        assert_eq!(task.exec_budget, ns(250_000 + overhead));
        assert_eq!(task.cpu, 1);
        assert!(task.track_latency);
        assert_eq!(task.period(), Some(SimDuration::from_millis(1)));
        // 3 Hz → 333_333_333 ns period; a third of it is 111_111_111.
        let d = ComponentDescriptor::builder("third")
            .periodic(3, 0, 3)
            .cpu_usage(1.0 / 3.0)
            .build()
            .unwrap();
        assert_eq!(
            lower(&d, Some(0)).unwrap().task.exec_budget,
            ns(111_111_111)
        );
        // A fractional nanosecond is charged whole, as admission does.
        let d = ComponentDescriptor::builder("odd")
            .periodic(3, 0, 3)
            .cpu_usage(0.1)
            .build()
            .unwrap();
        assert_eq!(lower(&d, Some(0)).unwrap().task.exec_budget, ns(33_333_334));
        // A claim too small for one nanosecond still gets one.
        let d = ComponentDescriptor::builder("tiny")
            .periodic(1000, 0, 3)
            .cpu_usage(1e-9)
            .build()
            .unwrap();
        assert_eq!(lower(&d, Some(0)).unwrap().task.exec_budget, ns(1));
        // Enforcement off: no budget, same placement.
        let task = lower(&d, None).unwrap().task;
        assert_eq!(task.exec_budget, None);
        assert!(task.track_latency);
    }

    #[test]
    fn aperiodic_tasks_get_no_budget() {
        let d = ComponentDescriptor::builder("sporad")
            .aperiodic(2, 4)
            .cpu_usage(0.5)
            .build()
            .unwrap();
        let task = lower(&d, Some(0)).unwrap().task;
        assert_eq!(task.exec_budget, None);
        assert_eq!(task.period(), None);
        assert_eq!(task.cpu, 2);
        assert!(task.track_latency);
    }

    #[test]
    fn channels_size_mailboxes_and_give_streams_four_buffers() {
        let d = ComponentDescriptor::builder("pipe")
            .periodic(100, 0, 2)
            .inport("img", PortInterface::Shm, DataType::Integer, 3)
            .outport("cmd", PortInterface::Mailbox, DataType::Byte, 0)
            .outport("strm", PortInterface::Fifo, DataType::Integer, 5)
            .outport("out", PortInterface::Mailbox, DataType::Byte, 7)
            .build()
            .unwrap();
        let lowered = lower(&d, None).unwrap();
        let channels: Vec<_> = lowered
            .channels()
            .map(|(dir, port, ch)| (dir, port.name.as_str(), ch))
            .collect();
        assert_eq!(
            channels,
            vec![
                (PortDirection::Out, "cmd", Channel::Mailbox { capacity: 1 }),
                (PortDirection::Out, "strm", Channel::Fifo { capacity: 80 }),
                (PortDirection::Out, "out", Channel::Mailbox { capacity: 7 }),
                (
                    PortDirection::In,
                    "img",
                    Channel::Shm {
                        data_type: DataType::Integer,
                        elements: 3
                    }
                ),
            ]
        );
    }
}
