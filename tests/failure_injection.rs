//! Failure injection: the system must degrade loudly and cleanly, never
//! silently or leakily, when components misbehave at deployment or run
//! time.

use drt::prelude::*;
use osgi::framework::{BundleActivator, BundleContext, FrameworkError};
use osgi::manifest::BundleManifest;
use osgi::version::Version;
use std::cell::Cell;
use std::rc::Rc;

fn runtime() -> DrtRuntime {
    DrtRuntime::new(KernelConfig::new(77).with_timer(TimerJitterModel::ideal()))
}

fn simple(name: &str, usage: f64) -> ComponentProvider {
    let d = ComponentDescriptor::builder(name)
        .periodic(100, 0, 3)
        .cpu_usage(usage)
        .build()
        .unwrap();
    ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
}

#[test]
fn malformed_descriptors_fail_before_deployment() {
    // A descriptor with a 7-character name, a bogus CPU claim, and a
    // dangling periodic declaration all fail at parse/validate time —
    // nothing ever reaches the framework or kernel.
    for bad_xml in [
        r#"<drt:component name="toolong7" type="aperiodic" cpuusage="0.1">
             <implementation bincode="a.B"/></drt:component>"#,
        r#"<drt:component name="x" type="periodic" cpuusage="0.1">
             <implementation bincode="a.B"/></drt:component>"#,
        r#"<drt:component name="x" type="aperiodic" cpuusage="7">
             <implementation bincode="a.B"/></drt:component>"#,
        "<not-even-xml",
    ] {
        assert!(
            ComponentProvider::from_xml(bad_xml, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
                .is_err(),
            "{bad_xml}"
        );
    }
}

struct PanickyActivator;

impl BundleActivator for PanickyActivator {
    fn start(&mut self, _ctx: &mut BundleContext<'_>) -> Result<(), String> {
        Err("refusing to start".into())
    }
}

#[test]
fn failed_activator_leaves_system_consistent() {
    let mut rt = runtime();
    rt.install_component("demo.good", simple("good", 0.1))
        .unwrap();
    let bad = rt
        .framework_mut()
        .install(
            BundleManifest::new("demo.bad", Version::new(1, 0, 0)),
            Box::new(PanickyActivator),
        )
        .unwrap();
    let err = rt.framework_mut().start(bad).unwrap_err();
    assert!(matches!(err, FrameworkError::ActivatorFailed { .. }));
    rt.process();
    // The failure is contained: the good component is untouched.
    assert_eq!(rt.component_state("good"), Some(ComponentState::Active));
    assert_eq!(rt.drcr().component_names(), vec!["good".to_string()]);
}

#[test]
fn duplicate_component_names_are_refused_loudly() {
    let mut rt = runtime();
    rt.install_component("demo.one", simple("calc", 0.1))
        .unwrap();
    // A second bundle shipping the same component name: the DRCR refuses
    // the registration (names are globally unique, §2.3) and logs it.
    rt.install_component("demo.two", simple("calc", 0.2))
        .unwrap();
    assert!(rt
        .drcr()
        .events()
        .iter()
        .any(|e| matches!(e.event, DrcrEvent::RegistrationRefused { .. })));
    // Exactly one `calc`, with the first bundle's claim.
    assert_eq!(rt.drcr().ledger().reservation("calc"), Some((0, 0.1)));
}

#[test]
fn channel_shape_conflicts_roll_back_cleanly() {
    let mut rt = runtime();
    // An unrelated kernel object already owns the channel name with a
    // different shape.
    rt.kernel_mut()
        .shm_mut()
        .alloc("chan", DataType::Byte, 99)
        .unwrap();
    let d = ComponentDescriptor::builder("prod")
        .periodic(100, 0, 3)
        .cpu_usage(0.1)
        .outport("chan", PortInterface::Shm, DataType::Integer, 1)
        .outport("chan2", PortInterface::Shm, DataType::Integer, 1)
        .build()
        .unwrap();
    rt.install_component(
        "demo.prod",
        ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))),
    )
    .unwrap();
    // Activation failed...
    assert_eq!(
        rt.component_state("prod"),
        Some(ComponentState::Unsatisfied)
    );
    assert!(rt.drcr().events_for("prod").any(|e| matches!(
        e.event,
        DrcrEvent::Rollback { .. } | DrcrEvent::ActivationFailed { .. }
    )));
    // ...and rolled back: no task, no stray chan2 segment, no reservation.
    assert!(rt.kernel().task_by_name("prod").is_none());
    assert!(rt.kernel().shm().get("chan2").is_none());
    assert!(rt.drcr().ledger().is_empty());
    // Freeing the conflicting object and re-resolving recovers.
    rt.kernel_mut().shm_mut().free("chan").unwrap();
    rt.install_component("demo.nudge", simple("nudge", 0.01))
        .unwrap();
    assert_eq!(rt.component_state("prod"), Some(ComponentState::Active));
}

#[test]
fn command_mailbox_overflow_is_reported_not_lost() {
    let mut rt = runtime();
    rt.install_component("demo.calc", simple("calc", 0.1))
        .unwrap();
    let mgmt = rt.management("calc").unwrap();
    // The command mailbox holds 16; the RT task never runs (we do not
    // advance time), so the 17th command must be rejected.
    let mut accepted = 0;
    let mut rejected = 0;
    for i in 0..20 {
        match mgmt.set_property("p", PropertyValue::Integer(i)) {
            Ok(()) => accepted += 1,
            Err(e) => {
                rejected += 1;
                assert!(e.to_string().contains("full"), "{e}");
            }
        }
    }
    assert_eq!(accepted, 16);
    assert_eq!(rejected, 4);
    // Once the task runs, the queue drains and commands flow again.
    rt.advance(SimDuration::from_millis(50));
    let mgmt = rt.management("calc").unwrap();
    mgmt.set_property("p", PropertyValue::Integer(99)).unwrap();
}

#[test]
fn management_calls_on_dead_components_error_cleanly() {
    let mut rt = runtime();
    let bundle = rt
        .install_component("demo.calc", simple("calc", 0.1))
        .unwrap();
    let mgmt = rt.management("calc").unwrap();
    rt.stop_bundle(bundle).unwrap();
    // The handle outlived its component: every operation fails with a
    // meaningful error instead of panicking or going to a wrong target.
    assert!(mgmt.suspend().is_err());
    assert!(mgmt.set_property("p", PropertyValue::Integer(1)).is_err());
    assert!(mgmt.request_status().is_err());
    assert_eq!(mgmt.state(), ComponentState::Destroyed);
}

#[test]
fn reply_mailbox_overflow_drops_replies_not_the_task() {
    let mut rt = runtime();
    rt.install_component("demo.calc", simple("calc", 0.1))
        .unwrap();
    let mgmt = rt.management("calc").unwrap();
    // 16 status requests fit the command box; the RT side answers all of
    // them in one cycle, overflowing the 16-slot reply box is impossible
    // here, but 2 rounds of 16 with no polling in between would overflow.
    let mut tokens = Vec::new();
    for _ in 0..16 {
        tokens.push(mgmt.request_status().unwrap());
    }
    rt.advance(SimDuration::from_millis(15));
    for _ in 0..16 {
        let _ = mgmt.request_status();
    }
    rt.advance(SimDuration::from_millis(15));
    // The task is alive and still answering.
    let task = rt.drcr().task_of("calc").unwrap();
    assert!(rt.kernel().task_cycles(task).unwrap() >= 2);
    // The first batch of replies is retrievable.
    let mgmt = rt.management("calc").unwrap();
    let got = tokens
        .iter()
        .filter(|t| matches!(mgmt.poll_reply(**t), Ok(Some(_))))
        .count();
    assert!(got >= 1, "at least the drained replies arrive");
}

#[test]
fn overload_admission_explains_every_rejection() {
    let mut rt = runtime();
    for i in 0..8 {
        rt.install_component(&format!("demo.c{i}"), simple(&format!("c{i}"), 0.3))
            .unwrap();
    }
    // 0.3 × 8 = 2.4: only 3 fit under the 1.0 internal cap.
    let active = (0..8)
        .filter(|i| rt.component_state(&format!("c{i}")) == Some(ComponentState::Active))
        .count();
    assert_eq!(active, 3);
    let rejections = rt
        .drcr()
        .admission_verdicts()
        .filter(|e| {
            matches!(
                e.event,
                DrcrEvent::AdmissionVerdict {
                    internal: true,
                    admitted: false,
                    ..
                }
            )
        })
        .count();
    assert!(rejections >= 5, "rejections {rejections}");
}

// ---------------------------------------------------------------------
// Runtime faults: panics out of RT cycle bodies must be contained the
// same cycle, reported through typed events, and answered by the
// supervision policy — quarantine by default, restart under Backoff,
// flap-detection quarantine for wedged components.
// ---------------------------------------------------------------------

/// A component whose logic panics at `panic_cycle` on every instance
/// (a *wedged* component: restarting it never helps).
fn wedged(name: &str, panic_cycle: u64) -> ComponentProvider {
    let d = ComponentDescriptor::builder(name)
        .periodic(100, 0, 3)
        .cpu_usage(0.1)
        .build()
        .unwrap();
    ComponentProvider::new(d, move || {
        Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
            if io.cycle() == panic_cycle {
                panic!("wedged at cycle {panic_cycle}");
            }
        }))
    })
}

#[test]
fn panicking_component_is_quarantined_by_default() {
    let mut rt = runtime();
    rt.install_component("demo.victim", wedged("victim", 2))
        .unwrap();
    rt.install_component("demo.good", simple("good", 0.1))
        .unwrap();
    assert_eq!(rt.component_state("victim"), Some(ComponentState::Active));
    rt.advance(SimDuration::from_millis(100));
    // Fail-stop default: the panicking component is quarantined…
    assert_eq!(rt.component_state("victim"), Some(ComponentState::Disabled));
    assert!(rt.drcr().is_quarantined("victim"));
    // …its task and reservation are gone, the neighbour is untouched.
    assert!(rt.drcr().task_of("victim").is_none());
    assert!(rt.drcr().ledger().reservation("victim").is_none());
    assert_eq!(rt.component_state("good"), Some(ComponentState::Active));
    // The whole story is in the typed event stream.
    assert!(rt.drcr().events_for("victim").any(|e| matches!(
        &e.event,
        DrcrEvent::ComponentFault { cause, .. } if cause.contains("wedged at cycle 2")
    )));
    assert!(rt
        .drcr()
        .events_for("victim")
        .any(|e| matches!(e.event, DrcrEvent::Quarantined { .. })));
    // Quarantine is not a death sentence: an operator re-enable grants a
    // fresh slate and the component re-admits (and will fault again —
    // it is wedged — but that is the operator's call).
    rt.enable_component("victim").unwrap();
    assert!(!rt.drcr().is_quarantined("victim"));
    assert_eq!(rt.component_state("victim"), Some(ComponentState::Active));
}

#[test]
fn transient_provider_fault_recovers_under_backoff_and_rewires() {
    let mut rt = runtime();
    // Provider of `chan` that panics once, on its first instance only: a
    // transient fault that a restart clears.
    let instances = Rc::new(Cell::new(0u32));
    let counter = instances.clone();
    let d = ComponentDescriptor::builder("src")
        .periodic(100, 0, 2)
        .cpu_usage(0.2)
        .outport("chan", PortInterface::Shm, DataType::Integer, 1)
        .build()
        .unwrap();
    let provider = ComponentProvider::new(d, move || {
        counter.set(counter.get() + 1);
        let first = counter.get() == 1;
        Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
            if first && io.cycle() == 2 {
                panic!("transient glitch");
            }
            let _ = io.write("chan", &7i32.to_le_bytes());
        }))
    });
    let sink = {
        let d = ComponentDescriptor::builder("snk")
            .periodic(50, 0, 4)
            .cpu_usage(0.1)
            .inport("chan", PortInterface::Shm, DataType::Integer, 1)
            .build()
            .unwrap();
        ComponentProvider::new(d, || {
            Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                let _ = io.read("chan");
            }))
        })
    };
    rt.set_supervision(
        "src",
        SupervisionConfig::backoff(
            SimDuration::from_millis(20),
            2,
            SimDuration::from_millis(80),
            3,
        ),
    );
    rt.install_component("demo.src", provider).unwrap();
    rt.install_component("demo.snk", sink).unwrap();
    assert_eq!(rt.component_state("snk"), Some(ComponentState::Active));
    // The provider panics at ~20 ms; detection happens at the next
    // management poll (the end of this advance).
    rt.advance(SimDuration::from_millis(50));
    assert_eq!(rt.component_state("src"), Some(ComponentState::Unsatisfied));
    // The consumer cascade-deactivated cleanly: no dangling wiring into a
    // dead provider, no leaked reservations.
    assert_eq!(rt.component_state("snk"), Some(ComponentState::Unsatisfied));
    assert!(rt.drcr().ledger().is_empty());
    assert!(rt.drcr().events_for("src").any(|e| matches!(
        e.event,
        DrcrEvent::RestartScheduled {
            attempt: 1,
            delay_ns: 20_000_000,
            ..
        }
    )));
    // Within the backoff window nothing restarts.
    rt.advance(SimDuration::from_millis(5));
    assert_eq!(rt.component_state("src"), Some(ComponentState::Unsatisfied));
    // Once the delay expires the supervisor releases the hold, the
    // resolver re-admits the fresh instance, and the consumer rewires.
    rt.advance(SimDuration::from_millis(30));
    assert!(rt
        .drcr()
        .events_for("src")
        .any(|e| matches!(e.event, DrcrEvent::RestartAttempt { attempt: 1, .. })));
    assert_eq!(rt.component_state("src"), Some(ComponentState::Active));
    assert_eq!(rt.component_state("snk"), Some(ComponentState::Active));
    assert_eq!(
        rt.drcr().providers_of("snk").unwrap(),
        &[("chan".to_string(), "src".to_string())]
    );
    assert_eq!(instances.get(), 2, "restart built a fresh logic instance");
    // And the recovered instance stays up.
    rt.advance(SimDuration::from_millis(100));
    assert_eq!(rt.component_state("src"), Some(ComponentState::Active));
    assert!(!rt.drcr().is_quarantined("src"));
}

#[test]
fn wedged_component_flaps_into_sliding_window_quarantine() {
    let mut rt = runtime();
    // The injector panics the body at cycle 0 of *every* instance; the
    // shared log survives restarts and counts what was injected.
    let plan = Rc::new(FaultPlan::new(11).at(0, FaultKind::Panic));
    let log = InjectionLog::shared();
    let d = ComponentDescriptor::builder("flappy")
        .periodic(100, 0, 3)
        .cpu_usage(0.1)
        .build()
        .unwrap();
    let provider = ComponentProvider::new(d, {
        let (plan, log) = (plan.clone(), log.clone());
        move || {
            FaultInjector::wrap(
                plan.clone(),
                log.clone(),
                Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})),
            )
        }
    });
    // A generous restart budget, but a flap detector that gives up after
    // 3 faults inside one second.
    rt.set_supervision(
        "flappy",
        SupervisionConfig::immediate(100).with_quarantine(SimDuration::from_secs(1), 3),
    );
    rt.install_component("demo.flappy", provider).unwrap();
    for _ in 0..6 {
        rt.advance(SimDuration::from_millis(50));
        if rt.drcr().is_quarantined("flappy") {
            break;
        }
    }
    // The window overrode the per-restart budget.
    assert!(rt.drcr().is_quarantined("flappy"));
    assert_eq!(rt.component_state("flappy"), Some(ComponentState::Disabled));
    assert!(rt.drcr().ledger().is_empty());
    assert!(rt.drcr().events_for("flappy").any(|e| matches!(
        &e.event,
        DrcrEvent::Quarantined { reason, .. } if reason.contains("within")
    )));
    // 3 instances ran, each injected exactly one panic.
    assert_eq!(log.borrow().instances, 3);
    assert_eq!(log.borrow().panics, 3);
    // 2 restarts were attempted before the window tripped.
    assert_eq!(
        rt.drcr()
            .events_for("flappy")
            .filter(|e| matches!(e.event, DrcrEvent::RestartAttempt { .. }))
            .count(),
        2
    );
}

struct Collector(Rc<std::cell::RefCell<Vec<(SimTime, DrcrEvent)>>>);

impl drt::drcom::obs::TraceSubscriber<DrcrEvent> for Collector {
    fn on_event(&mut self, time: SimTime, event: &DrcrEvent) {
        self.0.borrow_mut().push((time, event.clone()));
    }
}

#[test]
fn fault_reaction_is_resolution_strategy_independent() {
    // The same faulty scenario under the incremental resolver and the
    // naive reference must produce byte-identical DrcrEvent streams —
    // supervision is part of the executive's observable contract.
    let build = |naive: bool| {
        let mut rt = if naive {
            DrtRuntime::with_engine(
                KernelConfig::new(77).with_timer(TimerJitterModel::ideal()),
                Box::new(drt::drcom::NaiveResolver::new(Box::new(
                    drt::drcom::resolve::UtilizationResolver::default(),
                ))),
            )
        } else {
            runtime()
        };
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        rt.drcr_mut()
            .add_event_subscriber(Box::new(Collector(log.clone())));
        rt.set_supervision(
            "victim",
            SupervisionConfig::backoff(
                SimDuration::from_millis(10),
                2,
                SimDuration::from_millis(40),
                2,
            )
            .with_quarantine(SimDuration::from_secs(1), 4),
        );
        rt.install_component("demo.victim", wedged("victim", 1))
            .unwrap();
        rt.install_component("demo.good", simple("good", 0.1))
            .unwrap();
        for _ in 0..8 {
            rt.advance(SimDuration::from_millis(25));
        }
        (rt, log)
    };
    let (inc, inc_log) = build(false);
    let (naive, naive_log) = build(true);
    assert_eq!(
        inc.component_state("victim"),
        naive.component_state("victim")
    );
    assert!(!inc_log.borrow().is_empty());
    assert_eq!(*inc_log.borrow(), *naive_log.borrow());
    // The wedged victim exhausted its restart budget in both worlds.
    assert!(inc.drcr().is_quarantined("victim"));
    assert!(naive.drcr().is_quarantined("victim"));
    assert_eq!(inc.component_state("good"), Some(ComponentState::Active));
}

// ---------------------------------------------------------------------
// Sustained fault storms: Backoff × quarantine-window interaction. The
// backoff schedule must hold on *virtual time* across restarts — every
// attempt releases only after its exponentially grown delay — and a
// storm must always terminate in quarantine (via the sliding window or
// the restart budget), never in a silent retry loop.
// ---------------------------------------------------------------------

/// A component wedged on every instance: each restarted incarnation
/// faults again on its first cycle, sustaining the storm for as long as
/// the policy keeps granting restarts.
fn stormy(name: &str) -> ComponentProvider {
    let d = ComponentDescriptor::builder(name)
        .periodic(100, 0, 3)
        .cpu_usage(0.1)
        .build()
        .unwrap();
    ComponentProvider::new(d, || {
        Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
            if io.cycle() == 0 {
                panic!("storm");
            }
        }))
    })
}

#[test]
fn fault_storm_backoff_schedule_holds_on_virtual_time() {
    let mut rt = runtime();
    // Wide flap window (tolerating 4 faults) so the exponential schedule
    // gets three full rounds before the window rules.
    rt.set_supervision(
        "storm",
        SupervisionConfig::backoff(
            SimDuration::from_millis(20),
            2,
            SimDuration::from_millis(160),
            8,
        )
        .with_quarantine(SimDuration::from_secs(10), 4),
    );
    rt.install_component("demo.storm", stormy("storm")).unwrap();
    rt.install_component("demo.good", simple("good", 0.1))
        .unwrap();
    // Fine-grained advance: the 1 ms poll granularity bounds how far past
    // its virtual-time deadline a restart release can land.
    for _ in 0..600 {
        rt.advance(SimDuration::from_millis(1));
        if rt.drcr().is_quarantined("storm") {
            break;
        }
    }
    assert!(rt.drcr().is_quarantined("storm"), "storm never quarantined");

    // Three restarts were scheduled with exponentially growing delays.
    let scheduled: Vec<(SimTime, u32, u64)> = rt
        .drcr()
        .events_for("storm")
        .filter_map(|e| match e.event {
            DrcrEvent::RestartScheduled {
                attempt, delay_ns, ..
            } => Some((e.time, attempt, delay_ns)),
            _ => None,
        })
        .collect();
    assert_eq!(
        scheduled
            .iter()
            .map(|(_, a, d)| (*a, *d))
            .collect::<Vec<_>>(),
        vec![(1, 20_000_000), (2, 40_000_000), (3, 80_000_000)],
        "backoff schedule wrong: {scheduled:?}"
    );
    // And each attempt released on *virtual time*: no earlier than its
    // delay after the scheduling decision, no later than the delay plus
    // poll slack.
    let attempts: Vec<(SimTime, u32)> = rt
        .drcr()
        .events_for("storm")
        .filter_map(|e| match e.event {
            DrcrEvent::RestartAttempt { attempt, .. } => Some((e.time, attempt)),
            _ => None,
        })
        .collect();
    assert_eq!(attempts.len(), 3, "attempts: {attempts:?}");
    for (when, attempt) in &attempts {
        let (decided, _, delay_ns) = scheduled[(*attempt - 1) as usize];
        let gap = when.duration_since(decided).as_nanos();
        assert!(
            gap >= delay_ns,
            "attempt {attempt} released {gap} ns after decision, before its {delay_ns} ns backoff"
        );
        assert!(
            gap <= delay_ns + 5_000_000,
            "attempt {attempt} released {gap} ns after decision, way past its {delay_ns} ns backoff"
        );
    }
    // The 4th fault tripped the sliding window, with the window as the
    // typed reason.
    assert!(rt.drcr().events_for("storm").any(|e| matches!(
        &e.event,
        DrcrEvent::Quarantined { reason, .. } if reason.contains("faults within")
    )));
    // The storm never leaked: no reservation, no task, neighbour intact.
    assert!(rt.drcr().ledger().reservation("storm").is_none());
    assert!(rt.drcr().task_of("storm").is_none());
    assert_eq!(rt.component_state("good"), Some(ComponentState::Active));
}

#[test]
fn fault_storm_exhausts_restart_budget_into_quarantine() {
    let mut rt = runtime();
    // No flap window: the restart *budget* is the only terminator.
    rt.set_supervision(
        "storm",
        SupervisionConfig::backoff(
            SimDuration::from_millis(10),
            2,
            SimDuration::from_millis(40),
            2,
        ),
    );
    rt.install_component("demo.storm", stormy("storm")).unwrap();
    for _ in 0..400 {
        rt.advance(SimDuration::from_millis(1));
        if rt.drcr().is_quarantined("storm") {
            break;
        }
    }
    assert!(rt.drcr().is_quarantined("storm"));
    assert!(rt.drcr().events_for("storm").any(|e| matches!(
        &e.event,
        DrcrEvent::Quarantined { reason, .. } if reason.contains("restart budget exhausted (2)")
    )));
    // Exactly the budget's worth of attempts ran, then the storm went
    // quiet: quarantine holds through further virtual time.
    let count_attempts = |rt: &DrtRuntime| {
        rt.drcr()
            .events_for("storm")
            .filter(|e| matches!(e.event, DrcrEvent::RestartAttempt { .. }))
            .count()
    };
    assert_eq!(count_attempts(&rt), 2);
    rt.advance(SimDuration::from_millis(300));
    assert_eq!(count_attempts(&rt), 2, "quarantined storm restarted");
    assert!(rt.drcr().is_quarantined("storm"));
}

// ---------------------------------------------------------------------
// Executor-parameterized fault containment: the same fleet runs under
// the serial and the threaded executor, so panic containment and
// undo-journal rollback are exercised on the parallel path too.
// ---------------------------------------------------------------------

use drt::rtos::exec::{DeterministicExecutor, Executor, ParallelExecutor};
use drt::rtos::kernel::TaskCtx;
use drt::rtos::task::{FnBody, TaskState};

#[test]
fn panic_containment_holds_under_every_executor() {
    let build = || {
        let mut bridge = FleetBridge::new(2, 401);
        for cpu in 0..2u32 {
            let work = ComponentDescriptor::builder(&format!("work{cpu}"))
                .periodic(1000, cpu, 3)
                .cpu_usage(0.1)
                .build()
                .unwrap();
            let boom = ComponentDescriptor::builder(&format!("boom{cpu}"))
                .periodic(1000, cpu, 2)
                .cpu_usage(0.1)
                .build()
                .unwrap();
            bridge = bridge
                .component(work, || {
                    Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                        ctx.compute(SimDuration::from_micros(20));
                    }))
                })
                .component(boom, || {
                    Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                        if ctx.cycle() == 3 {
                            panic!("boom at cycle 3");
                        }
                    }))
                });
        }
        bridge.build().unwrap()
    };
    let executors: Vec<Box<dyn Executor>> = vec![
        Box::new(DeterministicExecutor),
        Box::new(ParallelExecutor::new(2)),
    ];
    for executor in executors {
        let outcome = executor
            .run(&build(), SimDuration::from_millis(20))
            .unwrap();
        for cpu in 0..2u32 {
            let boom = outcome.task(&format!("boom{cpu}")).unwrap();
            assert_eq!(boom.state, TaskState::Faulted, "{}", executor.name());
            assert_eq!(boom.faults, 1, "{}", executor.name());
            // Containment: the sibling on the same CPU never missed a
            // beat despite the panic in a higher-priority neighbour.
            let work = outcome.task(&format!("work{cpu}")).unwrap();
            assert!(
                work.cycles >= 19,
                "{}: work{cpu} starved at {} cycles",
                executor.name(),
                work.cycles
            );
            assert_eq!(work.faults, 0);
        }
        assert_eq!(outcome.counters.faults, 2, "{}", executor.name());
    }
}

#[test]
fn undo_journal_rolls_back_partial_writes_under_every_executor() {
    // The producer publishes its cycle number to SHM and a mailbox every
    // clean cycle; on cycle 5 it writes/sends poison and panics. The
    // undo journal must roll the poisoned cycle back on every executor:
    // the SHM cell still holds the last *clean* value and the consumer
    // tallies only clean messages.
    let build = || {
        let prod = ComponentDescriptor::builder("prod")
            .periodic(1000, 0, 2)
            .cpu_usage(0.2)
            .outport("cell", PortInterface::Shm, DataType::Byte, 8)
            .outport("post", PortInterface::Mailbox, DataType::Byte, 64)
            .build()
            .unwrap();
        let sink = ComponentDescriptor::builder("sink")
            .aperiodic(0, 3)
            .cpu_usage(0.1)
            .inport("post", PortInterface::Mailbox, DataType::Byte, 64)
            .outport("sum", PortInterface::Shm, DataType::Byte, 16)
            .build()
            .unwrap();
        FleetBridge::new(1, 402)
            .component(prod, || {
                Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                    let c = ctx.cycle();
                    if c == 5 {
                        ctx.shm_write("cell", &u64::MAX.to_le_bytes()).unwrap();
                        let _ = ctx.mailbox_send("post", &u64::MAX.to_le_bytes());
                        panic!("poisoned cycle");
                    }
                    ctx.shm_write("cell", &c.to_le_bytes()).unwrap();
                    let _ = ctx.mailbox_send("post", &c.to_le_bytes());
                }))
            })
            .component(sink, || {
                let mut total: u64 = 0;
                let mut count: u64 = 0;
                Box::new(FnBody(move |ctx: &mut TaskCtx<'_>| {
                    while let Ok(Some(msg)) = ctx.mailbox_recv("post") {
                        total += u64::from_le_bytes(msg[..8].try_into().unwrap());
                        count += 1;
                    }
                    let mut out = [0u8; 16];
                    out[..8].copy_from_slice(&total.to_le_bytes());
                    out[8..].copy_from_slice(&count.to_le_bytes());
                    ctx.shm_write("sum", &out).unwrap();
                }))
            })
            .build()
            .unwrap()
    };
    let executors: Vec<Box<dyn Executor>> = vec![
        Box::new(DeterministicExecutor),
        Box::new(ParallelExecutor::new(1)),
    ];
    for executor in executors {
        let outcome = executor
            .run(&build(), SimDuration::from_millis(20))
            .unwrap();
        let prod = outcome.task("prod").unwrap();
        assert_eq!(prod.state, TaskState::Faulted, "{}", executor.name());
        assert_eq!(prod.faults, 1, "{}", executor.name());
        let shm = |name: &str| {
            outcome
                .shm
                .iter()
                .find(|p| p.name == name)
                .unwrap_or_else(|| panic!("{}: no shm `{name}`", executor.name()))
                .bytes
                .clone()
        };
        // The poisoned write was rolled back: the cell holds the last
        // clean cycle number, not u64::MAX.
        let cell = u64::from_le_bytes(shm("cell")[..8].try_into().unwrap());
        assert_eq!(cell, 4, "{}: poisoned SHM write survived", executor.name());
        // The poisoned send was rolled back too: the consumer saw the 5
        // clean messages (0+1+2+3+4 = 10) and nothing else.
        let sum = shm("sum");
        let total = u64::from_le_bytes(sum[..8].try_into().unwrap());
        let count = u64::from_le_bytes(sum[8..16].try_into().unwrap());
        assert_eq!(count, 5, "{}: poisoned send delivered", executor.name());
        assert_eq!(total, 10, "{}: tally off", executor.name());
    }
}
