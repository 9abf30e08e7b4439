//! Descriptor fleets on the two-executor kernel (§3 meets `rtos::exec`).
//!
//! The DRCR executive drives components through a single [`rtos::kernel::Kernel`]
//! it owns via `Rc<RefCell<..>>` — the right shape for lifecycle dynamics
//! (install/uninstall, cascades, re-resolution), but inherently serial. This
//! module is the complementary path for *steady-state* fleets: once a set of
//! component contracts is fixed, [`FleetBridge`] lowers the declarative
//! descriptors into an [`rtos::exec::Workload`] that runs unchanged under
//! [`rtos::exec::DeterministicExecutor`] (the executive's own semantics) or
//! [`rtos::exec::ParallelExecutor`] (one worker thread per simulated-CPU
//! group), with the linearization guarantee proven by the kernel's
//! equivalence suite.
//!
//! The task and channel shapes come from [`crate::lower::lower`], the
//! lowering `Drcr::activate` uses too:
//!
//! * task contracts become the executive's [`rtos::task::TaskConfig`]s
//!   (periodic/aperiodic, CPU placement, latency tracking, optional
//!   execution budgets derived from the claimed CPU fraction);
//! * SHM ports allocate last-value segments, mailbox outports create queues,
//!   stream outports create FIFOs with the same 4-buffer slack.
//!
//! What the bridge adds is its own homing, validation and start-up:
//!
//! * mailbox and FIFO state is homed on the *consuming* component's CPU, so
//!   cross-CPU traffic flows through the executor's barrier exchange and
//!   aperiodic mailbox-wakeup bindings stay CPU-local, as the kernel
//!   requires;
//! * disabled components (`enabled="false"`) are created but not started,
//!   matching their executive lifecycle state.
//!
//! What the bridge deliberately does *not* reproduce is the executive
//! itself: no admission ledger, no wiring resolution, no supervision. Feed
//! it fleets the executive has already admitted.

use std::collections::BTreeMap;

use crate::descriptor::ComponentDescriptor;
use crate::error::DrcrError;
use crate::lower::{lower, Channel};
use crate::model::{PortDirection, PortInterface};
use rtos::exec::{BodyFactory, TaskSpec as ExecTaskSpec, Workload};
use rtos::task::TaskBody;
use rtos::time::SimTime;

/// One component in a bridged fleet: its declarative contract plus the
/// factory that builds its body on whichever thread executes its CPU.
pub struct FleetMember {
    descriptor: ComponentDescriptor,
    factory: BodyFactory,
    triggers: Vec<SimTime>,
}

/// Lowers a fixed set of [`ComponentDescriptor`]s into an executor-ready
/// [`Workload`]. See the module docs for the exact mapping.
pub struct FleetBridge {
    cpus: u32,
    seed: u64,
    enforce_budgets: bool,
    members: Vec<FleetMember>,
}

impl FleetBridge {
    /// Starts a bridge for a machine with `cpus` simulated CPUs and a
    /// deterministic seed.
    pub fn new(cpus: u32, seed: u64) -> Self {
        FleetBridge {
            cpus,
            seed,
            enforce_budgets: false,
            members: Vec::new(),
        }
    }

    /// Derives per-cycle execution budgets from each periodic component's
    /// claimed CPU fraction, through the executive's own lowering
    /// (budget = ⌈period × fraction⌉, floored at 1 ns). Fleet bodies run
    /// without the hybrid container, so no container overhead is added.
    pub fn enforce_budgets(mut self, on: bool) -> Self {
        self.enforce_budgets = on;
        self
    }

    /// Adds a component with its body factory.
    pub fn component(
        self,
        descriptor: ComponentDescriptor,
        factory: impl Fn() -> Box<dyn TaskBody> + Send + Sync + 'static,
    ) -> Self {
        self.member(FleetMember {
            descriptor,
            factory: rtos::exec::body_factory(factory),
            triggers: Vec::new(),
        })
    }

    /// Adds an aperiodic component with scripted release instants (the
    /// bridge-level stand-in for sporadic external events).
    pub fn component_with_triggers(
        self,
        descriptor: ComponentDescriptor,
        factory: impl Fn() -> Box<dyn TaskBody> + Send + Sync + 'static,
        triggers: Vec<SimTime>,
    ) -> Self {
        self.member(FleetMember {
            descriptor,
            factory: rtos::exec::body_factory(factory),
            triggers,
        })
    }

    /// Adds a fully specified member.
    pub fn member(mut self, member: FleetMember) -> Self {
        self.members.push(member);
        self
    }

    /// Lowers the fleet into a [`Workload`].
    ///
    /// # Errors
    ///
    /// [`DrcrError::DuplicateComponent`] on a repeated component name,
    /// [`DrcrError::MissingChannel`] when a stream inport has no producing
    /// outport anywhere in the fleet, [`DrcrError::Kernel`] when a
    /// contract cannot be expressed on this machine (CPU out of range,
    /// invalid task name, cross-CPU wakeup binding).
    pub fn build(&self) -> Result<Workload, DrcrError> {
        let mut seen: Vec<&str> = Vec::new();
        for member in &self.members {
            let name = member.descriptor.name.as_str();
            if seen.contains(&name) {
                return Err(DrcrError::DuplicateComponent(name.to_string()));
            }
            seen.push(name);
            let cpu = member.descriptor.task.cpu();
            if cpu >= self.cpus {
                return Err(DrcrError::Kernel(format!(
                    "component `{name}` wants CPU {cpu} but the machine has {}",
                    self.cpus
                )));
            }
        }

        // Message-passing ports are homed where they are consumed: a
        // mailbox or FIFO inport pins the queue's state to that
        // component's CPU (first consumer wins, deterministically by
        // member order), so the executor can keep wakeup bindings local
        // and route cross-CPU sends through the barrier exchange.
        let mut consumer_cpu: BTreeMap<&str, u32> = BTreeMap::new();
        for member in &self.members {
            for port in &member.descriptor.inports {
                if port.interface != PortInterface::Shm {
                    consumer_cpu
                        .entry(port.name.as_str())
                        .or_insert(member.descriptor.task.cpu());
                }
            }
        }

        let lowered = self
            .members
            .iter()
            .map(|m| lower(&m.descriptor, self.enforce_budgets.then_some(0)))
            .collect::<Result<Vec<_>, _>>()?;
        let mut workload = Workload::new(self.cpus, self.seed);
        let mut declared: Vec<&str> = Vec::new();
        // Outports first; then SHM inports allocate their segment too (the
        // executive refcounts the shared allocation), and orphan mailbox
        // inports still need a queue to bind wakeups against.
        for outports in [true, false] {
            for (member, lowering) in self.members.iter().zip(&lowered) {
                for (dir, port, channel) in lowering.channels() {
                    let name = port.name.as_str();
                    let wanted = match dir {
                        PortDirection::Out => outports,
                        PortDirection::In => !outports && port.interface != PortInterface::Fifo,
                    };
                    if !wanted || declared.contains(&name) {
                        continue;
                    }
                    declared.push(name);
                    let owner_cpu = member.descriptor.task.cpu();
                    let home = consumer_cpu.get(name).copied().unwrap_or(owner_cpu);
                    workload = match channel {
                        Channel::Shm {
                            data_type,
                            elements,
                        } => workload.shm(name, data_type, elements),
                        Channel::Mailbox { capacity } => workload.mailbox(name, capacity, home),
                        Channel::Fifo { capacity } => workload.fifo(name, capacity, home),
                    };
                }
            }
        }

        // A stream consumer with no producer anywhere in the fleet would
        // run against a channel that was never created and fail only from
        // inside its body at run time. Reject the topology here, typed,
        // before an executor ever spins up.
        for member in &self.members {
            for port in &member.descriptor.inports {
                if port.interface == PortInterface::Fifo && !declared.contains(&port.name.as_str())
                {
                    return Err(DrcrError::MissingChannel {
                        component: member.descriptor.name.to_string(),
                        port: port.name.to_string(),
                    });
                }
            }
        }

        for (member, lowering) in self.members.iter().zip(lowered) {
            let descriptor = &member.descriptor;
            let name = descriptor.name.as_str();
            let wake_on = if descriptor.task.is_periodic() {
                None
            } else {
                match descriptor
                    .inports
                    .iter()
                    .find(|p| p.interface == PortInterface::Mailbox)
                {
                    Some(p) => {
                        // Wakeup bindings must stay CPU-local and the
                        // queue was homed on the fleet's *first* consumer;
                        // a second consumer on another CPU would otherwise
                        // surface only from `Workload::validate` at run
                        // time, without the component named.
                        let home = consumer_cpu
                            .get(p.name.as_str())
                            .copied()
                            .unwrap_or_else(|| descriptor.task.cpu());
                        if home != descriptor.task.cpu() {
                            return Err(DrcrError::Kernel(format!(
                                "component `{name}` wakes on mailbox `{}` homed on CPU {home}, not its CPU {}",
                                p.name,
                                descriptor.task.cpu()
                            )));
                        }
                        Some(p.name.to_string())
                    }
                    None => None,
                }
            };
            workload = workload.task_spec(ExecTaskSpec {
                config: lowering.task,
                factory: member.factory.clone(),
                autostart: descriptor.enabled,
                wake_on,
                triggers: member.triggers.clone(),
            });
        }
        Ok(workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::ComponentDescriptor;
    use rtos::exec::{linearization_equivalent, DeterministicExecutor, Executor, ParallelExecutor};
    use rtos::kernel::TaskCtx;
    use rtos::shm::DataType;
    use rtos::task::FnBody;
    use rtos::time::SimDuration;

    /// A quiescent two-CPU fleet: all IPC stays CPU-local, so the
    /// linearization guarantee applies at every worker count.
    fn pipeline_bridge() -> FleetBridge {
        let sensor = ComponentDescriptor::builder("sensor")
            .periodic(1000, 0, 3)
            .cpu_usage(0.2)
            .outport("img", PortInterface::Shm, DataType::Byte, 8)
            .outport("cmd", PortInterface::Mailbox, DataType::Byte, 8)
            .build()
            .unwrap();
        let filter = ComponentDescriptor::builder("filter")
            .periodic(500, 0, 2)
            .cpu_usage(0.1)
            .inport("img", PortInterface::Shm, DataType::Byte, 8)
            .build()
            .unwrap();
        let logger = ComponentDescriptor::builder("logger")
            .aperiodic(0, 4)
            .cpu_usage(0.05)
            .inport("cmd", PortInterface::Mailbox, DataType::Byte, 8)
            .build()
            .unwrap();
        let mixer = ComponentDescriptor::builder("mixer")
            .periodic(250, 1, 2)
            .cpu_usage(0.1)
            .outport("mix", PortInterface::Shm, DataType::Byte, 8)
            .build()
            .unwrap();
        FleetBridge::new(2, 42)
            .component(sensor, || {
                let mut cycle: u64 = 0;
                Box::new(FnBody(move |ctx: &mut TaskCtx<'_>| {
                    cycle += 1;
                    let _ = ctx.shm_write("img", &cycle.to_le_bytes());
                    if cycle.is_multiple_of(4) {
                        let _ = ctx.mailbox_send("cmd", &cycle.to_le_bytes());
                    }
                }))
            })
            .component(filter, || {
                Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                    let _ = ctx.shm_read("img");
                    ctx.compute(SimDuration::from_micros(120));
                }))
            })
            .component(logger, || {
                Box::new(FnBody(
                    |ctx: &mut TaskCtx<'_>| {
                        while let Ok(Some(_)) = ctx.mailbox_recv("cmd") {}
                    },
                ))
            })
            .component(mixer, || {
                let mut cycle: u64 = 0;
                Box::new(FnBody(move |ctx: &mut TaskCtx<'_>| {
                    cycle += 1;
                    let _ = ctx.shm_write("mix", &cycle.to_le_bytes());
                }))
            })
    }

    #[test]
    fn descriptor_fleet_is_equivalent_across_executors() {
        let workload = pipeline_bridge().build().unwrap();
        let horizon = SimDuration::from_millis(30);
        let reference = DeterministicExecutor.run(&workload, horizon).unwrap();
        for workers in [1, 2] {
            let parallel = ParallelExecutor::new(workers)
                .run(&workload, horizon)
                .unwrap();
            linearization_equivalent(&reference, &parallel)
                .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        }
        let sensor = reference.task("sensor").unwrap();
        assert!(sensor.cycles >= 29, "sensor ran {} cycles", sensor.cycles);
        // The logger woke on same-CPU mailbox posts, not scripted triggers.
        let logger = reference.task("logger").unwrap();
        assert!(logger.cycles > 0, "logger never woke on its mailbox");
        assert!(reference.task("mixer").unwrap().cycles > 0);
    }

    #[test]
    fn cross_cpu_mailbox_delivers_through_the_barrier_exchange() {
        // Producer on CPU 0, mailbox consumer homed on CPU 1: under the
        // parallel executor the posts cross worker threads at epoch
        // barriers. Delivery timing legitimately differs from the serial
        // schedule (the fleet is not quiescent), but every message must
        // still arrive and wake the consumer.
        let talker = ComponentDescriptor::builder("talker")
            .periodic(1000, 0, 3)
            .outport("cmd", PortInterface::Mailbox, DataType::Byte, 16)
            .build()
            .unwrap();
        let hearer = ComponentDescriptor::builder("hearer")
            .aperiodic(1, 4)
            .inport("cmd", PortInterface::Mailbox, DataType::Byte, 16)
            .build()
            .unwrap();
        let workload = FleetBridge::new(2, 7)
            .component(talker, || {
                let mut cycle: u64 = 0;
                Box::new(FnBody(move |ctx: &mut TaskCtx<'_>| {
                    cycle += 1;
                    if cycle.is_multiple_of(2) {
                        let _ = ctx.mailbox_send("cmd", &cycle.to_le_bytes());
                    }
                }))
            })
            .component(hearer, || {
                Box::new(FnBody(
                    |ctx: &mut TaskCtx<'_>| {
                        while let Ok(Some(_)) = ctx.mailbox_recv("cmd") {}
                    },
                ))
            })
            .build()
            .unwrap();
        let horizon = SimDuration::from_millis(40);
        for executor in [
            Box::new(DeterministicExecutor) as Box<dyn Executor>,
            Box::new(ParallelExecutor::new(2).with_epoch(SimDuration::from_millis(5))),
        ] {
            let outcome = executor.run(&workload, horizon).unwrap();
            let hearer = outcome.task("hearer").unwrap();
            assert!(
                hearer.cycles > 0,
                "{}: hearer never woke on cross-CPU posts",
                executor.name()
            );
        }
    }

    #[test]
    fn budgeted_fleet_validates_and_runs() {
        // The budget derivation itself is `crate::lower`'s, unit-tested
        // there and shared with `Drcr::activate`.
        let workload = pipeline_bridge().enforce_budgets(true).build().unwrap();
        workload.validate().unwrap();
        let outcome = DeterministicExecutor
            .run(&workload, SimDuration::from_millis(10))
            .unwrap();
        assert!(outcome.task("filter").unwrap().cycles > 0);
    }

    #[test]
    fn out_of_range_cpu_is_rejected() {
        let stray = ComponentDescriptor::builder("stray")
            .periodic(100, 7, 2)
            .build()
            .unwrap();
        let err = FleetBridge::new(2, 1)
            .component(stray, || Box::new(rtos::task::IdleBody))
            .build()
            .err()
            .expect("out-of-range CPU must be rejected");
        assert!(matches!(err, DrcrError::Kernel(_)), "got {err:?}");
    }

    #[test]
    fn duplicate_component_names_are_rejected() {
        let a = ComponentDescriptor::builder("twin")
            .periodic(100, 0, 2)
            .build()
            .unwrap();
        let b = ComponentDescriptor::builder("twin")
            .periodic(200, 0, 3)
            .build()
            .unwrap();
        let err = FleetBridge::new(1, 1)
            .component(a, || Box::new(rtos::task::IdleBody))
            .component(b, || Box::new(rtos::task::IdleBody))
            .build()
            .err()
            .expect("duplicate names must be rejected");
        assert!(
            matches!(err, DrcrError::DuplicateComponent(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn orphan_fifo_inport_is_a_typed_missing_channel() {
        // A stream consumer whose producing outport exists nowhere in the
        // fleet: before the guard this lowered cleanly and failed only
        // from inside the body at run time.
        let eater = ComponentDescriptor::builder("eater")
            .periodic(100, 0, 2)
            .inport("stream", PortInterface::Fifo, DataType::Byte, 8)
            .build()
            .unwrap();
        let err = FleetBridge::new(1, 1)
            .component(eater, || Box::new(rtos::task::IdleBody))
            .build()
            .err()
            .expect("orphan stream inport must be rejected");
        assert_eq!(
            err,
            DrcrError::MissingChannel {
                component: "eater".into(),
                port: "stream".into(),
            }
        );
        // The same inport with a producer lowers fine.
        let maker = ComponentDescriptor::builder("maker")
            .periodic(100, 0, 3)
            .outport("stream", PortInterface::Fifo, DataType::Byte, 8)
            .build()
            .unwrap();
        let eater = ComponentDescriptor::builder("eater")
            .periodic(100, 0, 2)
            .inport("stream", PortInterface::Fifo, DataType::Byte, 8)
            .build()
            .unwrap();
        FleetBridge::new(1, 1)
            .component(maker, || Box::new(rtos::task::IdleBody))
            .component(eater, || Box::new(rtos::task::IdleBody))
            .build()
            .expect("provided stream must lower");
    }

    #[test]
    fn cross_cpu_wakeup_binding_is_a_typed_error() {
        // Two aperiodic consumers of one mailbox on different CPUs: the
        // queue homes on the first (CPU 0), so the second's wakeup binding
        // cannot stay CPU-local. Must fail at build() with the component
        // named, not at executor validation.
        let first = ComponentDescriptor::builder("first")
            .aperiodic(0, 3)
            .inport("cmd", PortInterface::Mailbox, DataType::Byte, 8)
            .build()
            .unwrap();
        let second = ComponentDescriptor::builder("second")
            .aperiodic(1, 3)
            .inport("cmd", PortInterface::Mailbox, DataType::Byte, 8)
            .build()
            .unwrap();
        let err = FleetBridge::new(2, 1)
            .component(first, || Box::new(rtos::task::IdleBody))
            .component(second, || Box::new(rtos::task::IdleBody))
            .build()
            .err()
            .expect("cross-CPU wakeup binding must be rejected");
        match err {
            DrcrError::Kernel(msg) => {
                assert!(msg.contains("second"), "component not named: {msg}");
                assert!(msg.contains("cmd"), "mailbox not named: {msg}");
            }
            other => panic!("expected Kernel error, got {other:?}"),
        }
    }

    #[test]
    fn disabled_components_do_not_autostart() {
        let idle = ComponentDescriptor::builder("idle")
            .periodic(1000, 0, 2)
            .enabled(false)
            .build()
            .unwrap();
        let workload = FleetBridge::new(1, 9)
            .component(idle, || Box::new(rtos::task::IdleBody))
            .build()
            .unwrap();
        let outcome = DeterministicExecutor
            .run(&workload, SimDuration::from_millis(10))
            .unwrap();
        assert_eq!(outcome.task("idle").unwrap().cycles, 0);
    }
}
