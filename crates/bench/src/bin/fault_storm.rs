//! Fault-storm benchmark: deterministic fault injection against the
//! supervised executive, measuring containment and recovery.
//!
//! Topology: `pairs` provider/consumer pairs (`s00`→`d00` over SHM channel
//! `k00`, …) plus `workers` standalone periodic components (`w00`, …) and
//! one deliberately *wedged* component (`zz`, panics every instance at
//! cycle 1). Every provider and worker runs under a [`FaultInjector`]
//! executing a per-component [`FaultPlan::storm`]: panics, execution-time
//! spikes, dropped cycles, corrupted outport payloads and bridge stalls,
//! all pure functions of the benchmark seed.
//!
//! Supervision: the fleet default is `Backoff`, so faulted components are
//! re-admitted after an escalating delay and their consumers rewire; the
//! wedged component runs under a sliding-window quarantine rule and must
//! end the run `Disabled` with its reservation released.
//!
//! Reported: faults injected (by kind), faults contained (typed
//! `ComponentFault` events — must equal injected panics: nothing escapes,
//! nothing is double-counted), restarts, quarantines, and recovery latency
//! in task cycles (ComponentFault → next Activated of the same component).
//!
//! Usage:
//!   cargo run --release -p bench --bin fault_storm            # full, writes BENCH_fault.json
//!   cargo run --release -p bench --bin fault_storm -- --smoke # small run, stdout only
//!   cargo run --release -p bench --bin fault_storm -- --check # assert ceilings + determinism
//!
//! `--smoke --check` is the CI configuration: it fails the build if a
//! panic escapes containment, a reservation leaks, recovery latency
//! regresses past the ceiling, or the run stops being deterministic.

use drcom::faults::{FaultInjector, FaultPlan, InjectionLog, StormRates};
use drcom::obs::{DrcrEvent, MetricsReport, TraceSubscriber};
use drcom::prelude::*;
use drcom::supervise::SupervisionConfig;
use rtos::kernel::{KernelConfig, SchedCounters};
use rtos::latency::TimerJitterModel;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Everything runs at 100 Hz: one task cycle is 10 ms of virtual time.
const PERIOD_NS: u64 = 10_000_000;

struct Params {
    pairs: usize,
    workers: usize,
    horizon_ms: u64,
    poll_ms: u64,
    seed: u64,
}

impl Params {
    fn full() -> Self {
        Params {
            pairs: 8,
            workers: 16,
            horizon_ms: 10_000,
            poll_ms: 10,
            seed: 0xF417,
        }
    }

    fn smoke() -> Self {
        Params {
            pairs: 3,
            workers: 6,
            horizon_ms: 2_000,
            poll_ms: 10,
            seed: 0xF417,
        }
    }

    fn components(&self) -> usize {
        self.pairs * 2 + self.workers + 1
    }
}

/// Ceilings asserted in `--check` mode, with headroom over the measured
/// values so legitimate scenario tweaks don't trip them. The recovery
/// ceiling is dominated by the backoff cap (200 ms = 20 cycles) plus one
/// management poll.
/// Measured (smoke): 20 panics contained, max recovery 16 cycles, mean 4.9.
/// Measured (full): 231 panics contained, max recovery 20 cycles, mean 15.0.
struct Ceilings {
    max_recovery_cycles: u64,
    min_panics: u64,
}

impl Ceilings {
    fn for_mode(smoke: bool) -> Self {
        if smoke {
            Ceilings {
                max_recovery_cycles: 22,
                min_panics: 10,
            }
        } else {
            Ceilings {
                max_recovery_cycles: 26,
                min_panics: 100,
            }
        }
    }
}

struct Collector(Rc<RefCell<Vec<(SimTime, DrcrEvent)>>>);

impl TraceSubscriber<DrcrEvent> for Collector {
    fn on_event(&mut self, time: SimTime, event: &DrcrEvent) {
        self.0.borrow_mut().push((time, event.clone()));
    }
}

/// Wraps a logic factory in a fault injector driven by `plan`.
fn injected(
    descriptor: ComponentDescriptor,
    plan: FaultPlan,
    log: Rc<RefCell<InjectionLog>>,
    logic: impl Fn() -> Box<dyn RtLogic> + 'static,
) -> ComponentProvider {
    let plan = Rc::new(plan);
    ComponentProvider::new(descriptor, move || {
        FaultInjector::wrap(plan.clone(), log.clone(), logic())
    })
}

fn storm_rates(outport: Option<(String, usize)>) -> StormRates {
    StormRates {
        panic: 0.004,
        spike: 0.02,
        drop: 0.01,
        corrupt: if outport.is_some() { 0.01 } else { 0.0 },
        corrupt_port: outport,
        stall: 0.005,
        ..StormRates::default()
    }
}

struct RunStats {
    events: Vec<(SimTime, DrcrEvent)>,
    injected: InjectionLog,
    contained: u64,
    restarts: u64,
    quarantines: u64,
    max_recovery_cycles: u64,
    mean_recovery_cycles: f64,
    recoveries: u64,
    leaked_reservations: u64,
    wedge_quarantined: bool,
    sched: SchedCounters,
}

fn counter(report: &MetricsReport, name: &str) -> u64 {
    report
        .counters()
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| *v)
}

fn run(params: &Params) -> RunStats {
    let mut rt =
        DrtRuntime::new(KernelConfig::new(params.seed).with_timer(TimerJitterModel::ideal()));
    let log = Rc::new(RefCell::new(Vec::new()));
    rt.drcr_mut()
        .add_event_subscriber(Box::new(Collector(log.clone())));
    // Fleet default: faulted components come back after an escalating
    // backoff; a generous budget keeps frequent-faulters flapping (and,
    // if they flap hard enough, exhausting the budget into quarantine —
    // also a legitimate, deterministic outcome).
    rt.set_default_supervision(SupervisionConfig::backoff(
        SimDuration::from_millis(20),
        2,
        SimDuration::from_millis(200),
        200,
    ));
    // The wedged component flaps into the sliding-window quarantine.
    rt.set_supervision(
        "zz",
        SupervisionConfig::immediate(u32::MAX).with_quarantine(SimDuration::from_millis(500), 3),
    );

    let horizon_cycles = params.horizon_ms / (PERIOD_NS / 1_000_000);
    let injection = InjectionLog::shared();

    for i in 0..params.pairs {
        let chan = format!("k{i:02}");
        let d = ComponentDescriptor::builder(&format!("s{i:02}"))
            .description("storm provider")
            .periodic(100, 0, 2)
            .cpu_usage(0.02)
            .outport(&chan, PortInterface::Shm, DataType::Integer, 1)
            .build()
            .expect("provider descriptor");
        let plan = FaultPlan::storm(
            params.seed.wrapping_add(i as u64),
            horizon_cycles,
            &storm_rates(Some((chan.clone(), 4))),
        );
        let logic_chan = chan.clone();
        rt.install_component(
            &format!("bundle.s{i:02}"),
            injected(d, plan, injection.clone(), move || {
                let chan = logic_chan.clone();
                Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
                    let _ = io.write(&chan, &7i32.to_le_bytes());
                }))
            }),
        )
        .expect("install provider");
        let d = ComponentDescriptor::builder(&format!("d{i:02}"))
            .description("storm consumer")
            .periodic(100, 0, 4)
            .cpu_usage(0.02)
            .inport(&chan, PortInterface::Shm, DataType::Integer, 1)
            .build()
            .expect("consumer descriptor");
        let logic_chan = chan.clone();
        rt.install_component(
            &format!("bundle.d{i:02}"),
            ComponentProvider::new(d, move || {
                let chan = logic_chan.clone();
                Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
                    let _ = io.read(&chan);
                }))
            }),
        )
        .expect("install consumer");
    }
    for i in 0..params.workers {
        let d = ComponentDescriptor::builder(&format!("w{i:02}"))
            .description("storm worker")
            .periodic(100, 0, 3)
            .cpu_usage(0.01)
            .build()
            .expect("worker descriptor");
        let plan = FaultPlan::storm(
            params.seed.wrapping_add(1_000 + i as u64),
            horizon_cycles,
            &storm_rates(None),
        );
        rt.install_component(
            &format!("bundle.w{i:02}"),
            injected(d, plan, injection.clone(), || {
                Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
            }),
        )
        .expect("install worker");
    }
    let d = ComponentDescriptor::builder("zz")
        .description("wedged component")
        .periodic(100, 0, 5)
        .cpu_usage(0.01)
        .build()
        .expect("wedge descriptor");
    rt.install_component(
        "bundle.zz",
        injected(
            d,
            FaultPlan::new(params.seed).at(1, drcom::faults::FaultKind::Panic),
            injection.clone(),
            || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})),
        ),
    )
    .expect("install wedge");

    // Drive the storm at the management-poll cadence: each `advance` is
    // one fault-reaction window.
    let steps = params.horizon_ms / params.poll_ms;
    for _ in 0..steps {
        rt.advance(SimDuration::from_millis(params.poll_ms));
    }

    // Recovery latency: ComponentFault → next transition of the same
    // component into Active, in task cycles.
    let events = log.borrow().clone();
    let mut open_fault: HashMap<String, SimTime> = HashMap::new();
    let mut max_recovery = 0u64;
    let mut total_recovery = 0u64;
    let mut recoveries = 0u64;
    for (t, e) in &events {
        match e {
            DrcrEvent::ComponentFault { component, .. } => {
                open_fault.entry(component.clone()).or_insert(*t);
            }
            DrcrEvent::Transition {
                component,
                to: ComponentState::Active,
                ..
            } => {
                if let Some(t0) = open_fault.remove(component) {
                    let cycles = t.duration_since(t0).as_nanos().div_ceil(PERIOD_NS);
                    max_recovery = max_recovery.max(cycles);
                    total_recovery += cycles;
                    recoveries += 1;
                }
            }
            _ => {}
        }
    }

    // Reservation consistency: a component holds a reservation iff its
    // state holds admission. Anything else is a leak.
    let drcr = rt.drcr();
    let leaked = drcr
        .component_names()
        .iter()
        .filter(|name| {
            let holds = drcr.state_of(name).is_some_and(|s| s.holds_admission());
            drcr.ledger().reservation(name).is_some() != holds
        })
        .count() as u64;
    let wedge_quarantined =
        drcr.is_quarantined("zz") && drcr.state_of("zz") == Some(ComponentState::Disabled);
    drop(drcr);

    let sched = rt.kernel().counters();
    let report = rt.metrics_report();
    let injected = injection.borrow().clone();
    RunStats {
        events,
        injected,
        contained: counter(&report, "drcr.supervision.faults"),
        restarts: counter(&report, "drcr.supervision.restarts"),
        quarantines: counter(&report, "drcr.supervision.quarantines"),
        max_recovery_cycles: max_recovery,
        mean_recovery_cycles: if recoveries == 0 {
            0.0
        } else {
            total_recovery as f64 / recoveries as f64
        },
        recoveries,
        leaked_reservations: leaked,
        wedge_quarantined,
        sched,
    }
}

/// Renders an event stream to one canonical string (used for the
/// determinism comparison).
fn render(events: &[(SimTime, DrcrEvent)]) -> String {
    let mut out = String::new();
    for (t, e) in events {
        out.push_str(&format!("[{}] {e}\n", t.as_nanos()));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let params = if smoke {
        Params::smoke()
    } else {
        Params::full()
    };

    println!(
        "fault_storm: {} components ({} pairs + {} workers + 1 wedged), {} ms horizon, mode={}",
        params.components(),
        params.pairs,
        params.workers,
        params.horizon_ms,
        if smoke { "smoke" } else { "full" },
    );

    let stats = run(&params);
    let escaped = stats.injected.panics.saturating_sub(stats.contained);

    println!();
    println!(
        "  injected: {} panics, {} spikes, {} drops, {} corruptions, {} stalls ({} logic instances)",
        stats.injected.panics,
        stats.injected.spikes,
        stats.injected.drops,
        stats.injected.corruptions,
        stats.injected.stalls,
        stats.injected.instances,
    );
    println!(
        "  contained: {} typed faults, {} restarts, {} quarantines, {} escaped",
        stats.contained, stats.restarts, stats.quarantines, escaped,
    );
    println!(
        "  recovery: {} recoveries, max {} cycles, mean {:.1} cycles",
        stats.recoveries, stats.max_recovery_cycles, stats.mean_recovery_cycles,
    );
    println!(
        "  hygiene: {} leaked reservations, wedge quarantined: {}",
        stats.leaked_reservations, stats.wedge_quarantined,
    );
    println!(
        "  kernel: {} dispatches, {} preemptions, {} overruns, {} faults, {} deadline misses",
        stats.sched.dispatches,
        stats.sched.preemptions,
        stats.sched.overruns,
        stats.sched.faults,
        stats.sched.deadline_misses,
    );

    if check {
        let ceilings = Ceilings::for_mode(smoke);
        assert!(
            stats.injected.panics >= ceilings.min_panics,
            "storm injected only {} panics (< {}): the bench lost its teeth",
            stats.injected.panics,
            ceilings.min_panics
        );
        assert_eq!(
            stats.contained, stats.injected.panics,
            "containment mismatch: {} faults contained vs {} panics injected",
            stats.contained, stats.injected.panics
        );
        assert_eq!(escaped, 0, "{escaped} panics escaped containment");
        assert_eq!(
            stats.leaked_reservations, 0,
            "{} components leaked reservations",
            stats.leaked_reservations
        );
        assert!(stats.wedge_quarantined, "wedged component not quarantined");
        assert!(stats.recoveries > 0, "no component ever recovered");
        assert!(
            stats.max_recovery_cycles <= ceilings.max_recovery_cycles,
            "max recovery latency {} cycles exceeds ceiling {}",
            stats.max_recovery_cycles,
            ceilings.max_recovery_cycles
        );
        // Same seed, same storm, same stream — byte for byte — and the
        // scheduler counters (including the lazily-pruned ready queue's
        // dispatch/preemption totals) must come out identical too.
        let again = run(&params);
        assert_eq!(
            render(&stats.events).as_bytes(),
            render(&again.events).as_bytes(),
            "fault storm is not deterministic"
        );
        assert_eq!(
            stats.sched, again.sched,
            "scheduler counters diverged between identical runs"
        );
        println!("  check: PASS");
    }

    if !smoke {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"fault_storm\",\n",
                "  \"components\": {},\n",
                "  \"horizon_ms\": {},\n",
                "  \"seed\": {},\n",
                "  \"injected\": {{\"panics\": {}, \"spikes\": {}, \"drops\": {}, ",
                "\"corruptions\": {}, \"stalls\": {}, \"instances\": {}}},\n",
                "  \"contained\": {},\n",
                "  \"escaped\": {},\n",
                "  \"restarts\": {},\n",
                "  \"quarantines\": {},\n",
                "  \"recoveries\": {},\n",
                "  \"max_recovery_cycles\": {},\n",
                "  \"mean_recovery_cycles\": {:.2},\n",
                "  \"leaked_reservations\": {},\n",
                "  \"wedge_quarantined\": {}\n",
                "}}\n"
            ),
            params.components(),
            params.horizon_ms,
            params.seed,
            stats.injected.panics,
            stats.injected.spikes,
            stats.injected.drops,
            stats.injected.corruptions,
            stats.injected.stalls,
            stats.injected.instances,
            stats.contained,
            escaped,
            stats.restarts,
            stats.quarantines,
            stats.recoveries,
            stats.max_recovery_cycles,
            stats.mean_recovery_cycles,
            stats.leaked_reservations,
            stats.wedge_quarantined,
        );
        std::fs::write("BENCH_fault.json", &json).expect("write BENCH_fault.json");
        println!("  wrote BENCH_fault.json");
    }
}
