//! Stateful property test of the DRCR executive: arbitrary interleavings
//! of deployment, departure, suspension, mode switches and time must never
//! break the executive's global invariants.
//!
//! Cases are generated from the in-repo seeded `SimRng` (no external
//! property-testing crate).
//!
//! The invariants checked after every operation:
//!
//! 1. **Ledger ↔ lifecycle**: a component holds a reservation iff its
//!    state holds admission (Active/Suspended), and the reserved claim
//!    equals its current contract's claim.
//! 2. **Kernel ↔ lifecycle**: admission-holding components have a live
//!    kernel task; others have none.
//! 3. **No overcommitment**: reserved utilization per CPU never exceeds
//!    the internal resolver's cap — cyclic groups included: the `cya` ⇄
//!    `cyb` pair fits one member at a time beside `src` and `snk` but not
//!    both, so it must not co-activate there.
//! 4. **Functional soundness**: every Active consumer has an Active
//!    provider for each inport.
//! 5. **No leaks**: with no components registered, the ledger holds no
//!    reservation and the kernel has no SHM segments, mailboxes or FIFOs.
//! 6. **One lifecycle history**: the `DrcrEvent::Transition` stream alone
//!    replays every component's lifecycle — each incarnation chains from
//!    `Installed`, every step is legal per Figure 1, and the last step
//!    lands on the state the executive reports.

use drt::prelude::*;
use rtos::rng::SimRng;
use rtos::task::TaskState;

#[derive(Debug, Clone)]
enum Op {
    InstallSource,
    InstallSink,
    InstallModed,
    StopSource,
    StopSink,
    StopModed,
    InstallCyclic(bool), // true = `cya`, false = `cyb`
    StopCyclic(bool),
    SuspendAny(u8),
    ResumeAny(u8),
    DisableAny(u8),
    EnableAny(u8),
    SwitchModed(bool), // true = cheap mode, false = base
    Advance(u8),
}

fn gen_op(rng: &mut SimRng) -> Op {
    match rng.uniform_u64(0, 14) {
        0 => Op::InstallSource,
        1 => Op::InstallSink,
        2 => Op::InstallModed,
        3 => Op::StopSource,
        4 => Op::StopSink,
        5 => Op::StopModed,
        6 => Op::SuspendAny(rng.next_u64() as u8),
        7 => Op::ResumeAny(rng.next_u64() as u8),
        8 => Op::SwitchModed(rng.chance(0.5)),
        9 => Op::DisableAny(rng.next_u64() as u8),
        10 => Op::EnableAny(rng.next_u64() as u8),
        11 => Op::InstallCyclic(rng.chance(0.5)),
        12 => Op::StopCyclic(rng.chance(0.5)),
        _ => Op::Advance(rng.uniform_u64(1, 20) as u8),
    }
}

fn source() -> ComponentProvider {
    let d = ComponentDescriptor::builder("src")
        .periodic(100, 0, 2)
        .cpu_usage(0.3)
        .outport("chan", PortInterface::Shm, DataType::Integer, 1)
        .build()
        .unwrap();
    ComponentProvider::new(d, || {
        Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
            let _ = io.write("chan", &1i32.to_le_bytes());
        }))
    })
}

fn sink() -> ComponentProvider {
    let d = ComponentDescriptor::builder("snk")
        .periodic(50, 0, 4)
        .cpu_usage(0.2)
        .inport("chan", PortInterface::Shm, DataType::Integer, 1)
        .build()
        .unwrap();
    ComponentProvider::new(d, || {
        Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
            let _ = io.read("chan");
        }))
    })
}

fn moded() -> ComponentProvider {
    let d = ComponentDescriptor::builder("mod")
        .periodic(200, 0, 3)
        .cpu_usage(0.4)
        .mode("cheap", 20, 0.05, 3)
        .build()
        .unwrap();
    ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
}

/// One member of the `cya` ⇄ `cyb` dependency cycle: each reads the
/// other's outport. One 0.3 member fits beside `src` and `snk` (0.5), the
/// pair does not.
fn cyclic(a: bool) -> ComponentProvider {
    let (name, reads, writes) = if a {
        ("cya", "ba", "ab")
    } else {
        ("cyb", "ab", "ba")
    };
    let d = ComponentDescriptor::builder(name)
        .periodic(100, 0, 3)
        .cpu_usage(0.3)
        .inport(reads, PortInterface::Shm, DataType::Integer, 1)
        .outport(writes, PortInterface::Shm, DataType::Integer, 1)
        .build()
        .unwrap();
    ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
}

fn check_invariants(rt: &DrtRuntime, case: usize) {
    let drcr = rt.drcr();
    let names = drcr.component_names();
    // 1 + 2: ledger and kernel agree with lifecycle states.
    for name in &names {
        let state = drcr.state_of(name).expect("registered");
        let reservation = drcr.ledger().reservation(name);
        let task = drcr.task_of(name);
        if state.holds_admission() {
            assert!(
                reservation.is_some(),
                "case {case}: `{name}` {state} without reservation"
            );
            let claim = drcr.descriptor_ref(name).unwrap().cpu_usage.fraction();
            let (_, reserved) = reservation.unwrap();
            assert!(
                (reserved - claim).abs() < 1e-9,
                "case {case}: `{name}` reserved {reserved} vs claim {claim}"
            );
            let task = task.expect("admitted components have tasks");
            let kstate = rt.kernel().task_state(task);
            assert!(
                matches!(
                    kstate,
                    Some(
                        TaskState::Waiting
                            | TaskState::Ready
                            | TaskState::Running
                            | TaskState::Suspended
                    )
                ),
                "case {case}: `{name}` task in {kstate:?}"
            );
        } else {
            assert!(
                reservation.is_none(),
                "case {case}: `{name}` {state} holds a reservation"
            );
            assert!(task.is_none(), "case {case}: `{name}` {state} holds a task");
        }
    }
    // 3: never overcommitted.
    assert!(
        drcr.ledger().utilization(0) <= 1.0 + 1e-9,
        "case {case}: CPU 0 overcommitted: {}",
        drcr.ledger().utilization(0)
    );
    // 4: active consumers are fed.
    if drcr.state_of("snk") == Some(ComponentState::Active) {
        assert_eq!(
            drcr.state_of("src"),
            Some(ComponentState::Active),
            "case {case}: sink active without an active source"
        );
    }
    for (member, partner) in [("cya", "cyb"), ("cyb", "cya")] {
        if drcr.state_of(member) == Some(ComponentState::Active) {
            assert_eq!(
                drcr.state_of(partner),
                Some(ComponentState::Active),
                "case {case}: `{member}` active without an active `{partner}`"
            );
        }
    }
    // 5: no leaks once everything is gone.
    if names.is_empty() {
        assert!(drcr.ledger().is_empty(), "case {case}: leaked reservation");
        assert!(rt.kernel().shm().is_empty(), "case {case}: leaked SHM");
        assert!(
            rt.kernel().mailboxes().is_empty(),
            "case {case}: leaked mailboxes"
        );
        assert!(rt.kernel().fifos().is_empty(), "case {case}: leaked FIFOs");
    }
}

/// Replays the transition stream: per component, each incarnation chains
/// from `Installed` through legal steps, and the last step's target is the
/// state the executive reports (a destroyed component is unregistered).
fn check_transition_history(rt: &DrtRuntime, log: &[(SimTime, DrcrEvent)], case: usize) {
    let mut current: std::collections::BTreeMap<&str, ComponentState> = Default::default();
    for (_, event) in log {
        let DrcrEvent::Transition {
            component,
            from,
            to,
            ..
        } = event
        else {
            continue;
        };
        let expected = current
            .get(component.as_str())
            .copied()
            .unwrap_or(ComponentState::Installed);
        assert_eq!(
            *from, expected,
            "case {case}: `{component}` transition does not chain"
        );
        assert!(
            from.can_transition(*to),
            "case {case}: `{component}` took the illegal step {from} -> {to}"
        );
        if *to == ComponentState::Destroyed {
            current.remove(component.as_str());
        } else {
            current.insert(component, *to);
        }
    }
    let drcr = rt.drcr();
    let names = drcr.component_names();
    assert_eq!(
        current.keys().copied().collect::<Vec<_>>(),
        names,
        "case {case}: the transition stream and the registry disagree on who exists"
    );
    for (name, state) in current {
        assert_eq!(
            drcr.state_of(name),
            Some(state),
            "case {case}: `{name}` last transition disagrees with its state"
        );
    }
}

// ---------------------------------------------------------------------
// Differential property: the incremental resolver (port index + dirty-set
// deactivation sweep + cached view) must be observationally identical to
// the naive reference re-resolver — same states, same chosen providers,
// same ledger, and a byte-identical DrcrEvent stream — under arbitrary
// deploy/undeploy/suspend/resume/mode-switch interleavings.
// ---------------------------------------------------------------------

struct Collector(std::rc::Rc<std::cell::RefCell<Vec<(SimTime, DrcrEvent)>>>);

impl drcom::obs::TraceSubscriber<DrcrEvent> for Collector {
    fn on_event(&mut self, time: SimTime, event: &DrcrEvent) {
        self.0.borrow_mut().push((time, event.clone()));
    }
}

fn tap(rt: &DrtRuntime) -> std::rc::Rc<std::cell::RefCell<Vec<(SimTime, DrcrEvent)>>> {
    let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    rt.drcr_mut()
        .add_event_subscriber(Box::new(Collector(log.clone())));
    log
}

/// A deeper topology than the invariant test, on two CPUs: `src`/`alt`
/// both provide `chan`; `rly` consumes `chan` and provides `chan2`; `fan`
/// consumes `chan2` (two-level cascades); `mod` is moded; `cya` and `cyb`
/// read each other's outport (a cycle only a group co-activates, across
/// both CPUs). `alt`, `fan` and `cyb` run on CPU 1, the rest on CPU 0.
/// Claims sum past the 1.0 cap so admission rejections (and their
/// view-derived reason strings) are exercised too, cyclic-group rulings
/// included.
fn diff_component(name: &str) -> ComponentProvider {
    let builder = ComponentDescriptor::builder(name);
    let d = match name {
        "src" => builder.periodic(100, 0, 2).cpu_usage(0.3).outport(
            "chan",
            PortInterface::Shm,
            DataType::Integer,
            1,
        ),
        "alt" => builder.periodic(100, 1, 3).cpu_usage(0.25).outport(
            "chan",
            PortInterface::Shm,
            DataType::Integer,
            1,
        ),
        "snk" => builder.periodic(50, 0, 4).cpu_usage(0.2).inport(
            "chan",
            PortInterface::Shm,
            DataType::Integer,
            1,
        ),
        "rly" => builder
            .periodic(50, 0, 4)
            .cpu_usage(0.15)
            .inport("chan", PortInterface::Shm, DataType::Integer, 1)
            .outport("chan2", PortInterface::Shm, DataType::Integer, 1),
        "fan" => builder.periodic(20, 1, 5).cpu_usage(0.45).inport(
            "chan2",
            PortInterface::Shm,
            DataType::Integer,
            1,
        ),
        "mod" => builder
            .periodic(200, 0, 3)
            .cpu_usage(0.4)
            .mode("cheap", 20, 0.05, 3),
        "cya" => builder
            .periodic(100, 0, 3)
            .cpu_usage(0.2)
            .inport("ba", PortInterface::Shm, DataType::Integer, 1)
            .outport("ab", PortInterface::Shm, DataType::Integer, 1),
        "cyb" => builder
            .periodic(50, 1, 4)
            .cpu_usage(0.4)
            .inport("ab", PortInterface::Shm, DataType::Integer, 1)
            .outport("ba", PortInterface::Shm, DataType::Integer, 1),
        other => panic!("unknown diff component {other}"),
    }
    .build()
    .unwrap();
    ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
}

const DIFF_NAMES: [&str; 8] = ["src", "alt", "snk", "rly", "fan", "mod", "cya", "cyb"];

fn assert_lockstep(
    case: usize,
    step: usize,
    inc: &DrtRuntime,
    naive: &DrtRuntime,
    inc_log: &std::cell::RefCell<Vec<(SimTime, DrcrEvent)>>,
    naive_log: &std::cell::RefCell<Vec<(SimTime, DrcrEvent)>>,
) {
    let (di, dn) = (inc.drcr(), naive.drcr());
    assert_eq!(
        di.component_names(),
        dn.component_names(),
        "case {case} step {step}: registered sets diverged"
    );
    for name in di.component_names() {
        assert_eq!(
            di.state_of(&name),
            dn.state_of(&name),
            "case {case} step {step}: `{name}` state diverged"
        );
        assert_eq!(
            di.providers_of(&name),
            dn.providers_of(&name),
            "case {case} step {step}: `{name}` providers diverged"
        );
        assert_eq!(
            di.current_mode_ref(&name),
            dn.current_mode_ref(&name),
            "case {case} step {step}: `{name}` mode diverged"
        );
    }
    for cpu in 0..di.ledger().cpu_count() {
        assert_eq!(
            di.ledger().utilization(cpu).to_bits(),
            dn.ledger().utilization(cpu).to_bits(),
            "case {case} step {step}: cpu {cpu} reservation diverged"
        );
    }
    assert_eq!(
        without_evidence(&inc_log.borrow()),
        without_evidence(&naive_log.borrow()),
        "case {case} step {step}: event streams diverged"
    );
}

/// An event stream with each `AdmissionAnalysis` evidence payload dropped.
/// The payload is the one thing a committed batch changes: every batched
/// candidate carries its CPU's whole-wave analysis, while the naive oracle
/// rules one candidate at a time. Policies without analysis emit no such
/// events, so for them this is the byte-identical stream.
fn without_evidence(log: &[(SimTime, DrcrEvent)]) -> Vec<(SimTime, String)> {
    log.iter()
        .map(|(t, e)| {
            let e = match e {
                DrcrEvent::AdmissionAnalysis { component, cpu, .. } => {
                    format!("analysis of `{component}` on CPU {cpu}")
                }
                other => format!("{other:?}"),
            };
            (*t, e)
        })
        .collect()
}

#[test]
fn incremental_resolver_matches_naive_reference() {
    let batches = lockstep_against_naive(0x1DC5, || {
        Box::new(drcom::resolve::UtilizationResolver::default())
    });
    assert_eq!(batches, 0, "a utilization cap never batches");
}

/// The same law under response-time admission, where the reactive engine
/// batches arrival waves and the naive oracle does not: states, providers,
/// ledger and event order stay in lockstep.
#[test]
fn batching_engine_matches_naive_reference_under_rta() {
    let batches = lockstep_against_naive(0x27A5, || Box::<drcom::RtaResolver>::default());
    assert!(batches > 0, "the sample never committed a batch");
}

/// A customized resolving service: a utilization cap of 0.6 per CPU.
fn capped() -> std::rc::Rc<dyn drcom::ResolvingService> {
    std::rc::Rc::new(drcom::resolve::UtilizationResolver::new(0.6))
}

/// Drives the reactive engine and the naive oracle, both ruling with
/// `policy`, through 48 random operation sequences in lockstep — deploys
/// and departures, suspend/resume, disable/enable, mode switches and claim
/// refinements of `mod`, a customized resolving service coming and going,
/// and time — and bounds the reactive engine's wiring checks by the
/// oracle's. Returns how many batches the reactive engine committed.
fn lockstep_against_naive(seed: u64, policy: fn() -> Box<dyn drcom::ResolvingService>) -> u64 {
    let mut rng = SimRng::from_seed(seed);
    let mut batches = 0;
    let mut groups = GroupOutcomes::default();
    for case in 0..48 {
        let config = || {
            KernelConfig::new(2)
                .with_cpus(2)
                .with_timer(TimerJitterModel::ideal())
        };
        let mut inc = DrtRuntime::with_resolver(config(), policy());
        let mut naive =
            DrtRuntime::with_engine(config(), Box::new(drcom::NaiveResolver::new(policy())));
        let inc_log = tap(&inc);
        let naive_log = tap(&naive);
        let mut inc_bundles: std::collections::HashMap<&str, osgi::event::BundleId> =
            Default::default();
        let mut naive_bundles: std::collections::HashMap<&str, osgi::event::BundleId> =
            Default::default();
        let mut services = None;
        let steps = rng.uniform_u64(4, 50);
        for step in 0..steps as usize {
            let pick = DIFF_NAMES[rng.uniform_u64(0, DIFF_NAMES.len() as u64) as usize];
            match rng.uniform_u64(0, 10) {
                0 | 1 => {
                    // Install or uninstall `pick`, whichever applies.
                    if let Some(b) = inc_bundles.remove(pick) {
                        inc.uninstall_bundle(b).unwrap();
                        naive
                            .uninstall_bundle(naive_bundles.remove(pick).unwrap())
                            .unwrap();
                    } else {
                        let bundle_id = format!("b.{pick}");
                        inc_bundles.insert(
                            pick,
                            inc.install_component(&bundle_id, diff_component(pick))
                                .unwrap(),
                        );
                        naive_bundles.insert(
                            pick,
                            naive
                                .install_component(&bundle_id, diff_component(pick))
                                .unwrap(),
                        );
                    }
                }
                2 => {
                    let a = inc.suspend_component(pick);
                    let b = naive.suspend_component(pick);
                    assert_eq!(a.is_ok(), b.is_ok(), "case {case} step {step}: suspend");
                }
                3 => {
                    let a = inc.resume_component(pick);
                    let b = naive.resume_component(pick);
                    assert_eq!(a.is_ok(), b.is_ok(), "case {case} step {step}: resume");
                }
                4 => {
                    if inc.component_state("mod").is_some() {
                        let mode = if rng.chance(0.5) {
                            "cheap"
                        } else {
                            drcom::BASE_MODE
                        };
                        inc.switch_mode("mod", mode).unwrap();
                        naive.switch_mode("mod", mode).unwrap();
                    }
                }
                5 => {
                    if inc.component_state("mod").is_some() {
                        let claim = [0.1, 0.35, 0.6][rng.uniform_u64(0, 3) as usize];
                        inc.refine_claim("mod", claim, 100).unwrap();
                        naive.refine_claim("mod", claim, 100).unwrap();
                    }
                }
                6 => match services.take() {
                    Some((a, b)) => {
                        inc.unregister_resolver(a);
                        naive.unregister_resolver(b);
                    }
                    None => {
                        services = Some((
                            inc.register_resolver(capped()),
                            naive.register_resolver(capped()),
                        ));
                    }
                },
                7 => {
                    let a = inc.disable_component(pick);
                    let b = naive.disable_component(pick);
                    assert_eq!(a.is_ok(), b.is_ok(), "case {case} step {step}: disable");
                }
                8 => {
                    let a = inc.enable_component(pick);
                    let b = naive.enable_component(pick);
                    assert_eq!(a.is_ok(), b.is_ok(), "case {case} step {step}: enable");
                }
                _ => {
                    let ms = rng.uniform_u64(1, 15);
                    inc.advance(SimDuration::from_millis(ms));
                    naive.advance(SimDuration::from_millis(ms));
                }
            }
            assert_lockstep(case, step, &inc, &naive, &inc_log, &naive_log);
        }
        // Teardown stays in lockstep too.
        for (name, b) in inc_bundles {
            inc.uninstall_bundle(b).unwrap();
            naive
                .uninstall_bundle(naive_bundles.remove(name).unwrap())
                .unwrap();
        }
        assert_lockstep(case, usize::MAX, &inc, &naive, &inc_log, &naive_log);
        // The whole point: the incremental run did no more wiring work
        // while producing the identical observable history.
        let inc_checks = inc.drcr().metrics().counter("drcr.wiring.checks");
        let naive_checks = naive.drcr().metrics().counter("drcr.wiring.checks");
        let inc_builds = inc.drcr().metrics().counter("drcr.wiring.graph_builds");
        assert_eq!(inc_builds, 0, "case {case}: incremental built a graph");
        assert!(
            inc_checks <= naive_checks,
            "case {case}: incremental wiring checks exceed the reference's ({inc_checks} > {naive_checks})"
        );
        batches += inc.drcr().metrics().counter("drcr.admission.batches");
        groups.tally(&inc_log.borrow());
    }
    groups.assert_both_seen("lockstep");
    batches
}

/// How often a sample's cyclic groups co-activated and were abandoned.
#[derive(Default)]
struct GroupOutcomes {
    co_activated: usize,
    abandoned: usize,
}

impl GroupOutcomes {
    fn tally(&mut self, log: &[(SimTime, DrcrEvent)]) {
        for (_, event) in log {
            match event {
                DrcrEvent::GroupCoActivation { .. } => self.co_activated += 1,
                DrcrEvent::GroupAbandoned { .. } => self.abandoned += 1,
                _ => {}
            }
        }
    }

    /// The sample covers the group path both ways.
    fn assert_both_seen(&self, what: &str) {
        assert!(
            self.co_activated > 0 && self.abandoned > 0,
            "{what}: the sample co-activated {} and abandoned {} cyclic groups",
            self.co_activated,
            self.abandoned
        );
    }
}

#[test]
fn drcr_invariants_hold_under_random_operations() {
    let mut rng = SimRng::from_seed(0xD6C6);
    let mut groups = GroupOutcomes::default();
    for case in 0..64 {
        let mut rt = DrtRuntime::new(KernelConfig::new(9).with_timer(TimerJitterModel::ideal()));
        let log = tap(&rt);
        let mut bundles: std::collections::HashMap<&str, osgi::event::BundleId> =
            Default::default();
        let ops: Vec<Op> = (0..rng.uniform_u64(1, 60))
            .map(|_| gen_op(&mut rng))
            .collect();
        for op in ops {
            match op {
                Op::InstallSource => {
                    if !bundles.contains_key("src") {
                        let b = rt.install_component("b.src", source()).unwrap();
                        bundles.insert("src", b);
                    }
                }
                Op::InstallSink => {
                    if !bundles.contains_key("snk") {
                        let b = rt.install_component("b.snk", sink()).unwrap();
                        bundles.insert("snk", b);
                    }
                }
                Op::InstallModed => {
                    if !bundles.contains_key("mod") {
                        let b = rt.install_component("b.mod", moded()).unwrap();
                        bundles.insert("mod", b);
                    }
                }
                Op::StopSource => {
                    if let Some(b) = bundles.remove("src") {
                        rt.uninstall_bundle(b).unwrap();
                    }
                }
                Op::StopSink => {
                    if let Some(b) = bundles.remove("snk") {
                        rt.uninstall_bundle(b).unwrap();
                    }
                }
                Op::StopModed => {
                    if let Some(b) = bundles.remove("mod") {
                        rt.uninstall_bundle(b).unwrap();
                    }
                }
                Op::InstallCyclic(a) => {
                    let name = if a { "cya" } else { "cyb" };
                    if !bundles.contains_key(name) {
                        let b = rt
                            .install_component(&format!("b.{name}"), cyclic(a))
                            .unwrap();
                        bundles.insert(name, b);
                    }
                }
                Op::StopCyclic(a) => {
                    if let Some(b) = bundles.remove(if a { "cya" } else { "cyb" }) {
                        rt.uninstall_bundle(b).unwrap();
                    }
                }
                Op::SuspendAny(pick) => {
                    let names = rt.drcr().component_names();
                    if !names.is_empty() {
                        let name = names[pick as usize % names.len()].clone();
                        // Only legal from Active; illegal attempts must
                        // error, not corrupt.
                        let was_active = rt.component_state(&name) == Some(ComponentState::Active);
                        let result = rt.suspend_component(&name);
                        assert_eq!(result.is_ok(), was_active, "case {case}");
                    }
                }
                Op::ResumeAny(pick) => {
                    let names = rt.drcr().component_names();
                    if !names.is_empty() {
                        let name = names[pick as usize % names.len()].clone();
                        let was_suspended =
                            rt.component_state(&name) == Some(ComponentState::Suspended);
                        let result = rt.resume_component(&name);
                        assert_eq!(result.is_ok(), was_suspended, "case {case}");
                    }
                }
                Op::DisableAny(pick) => {
                    let names = rt.drcr().component_names();
                    if !names.is_empty() {
                        let name = names[pick as usize % names.len()].clone();
                        let was_disabled =
                            rt.component_state(&name) == Some(ComponentState::Disabled);
                        let result = rt.disable_component(&name);
                        assert_eq!(result.is_ok(), !was_disabled, "case {case}");
                    }
                }
                Op::EnableAny(pick) => {
                    let names = rt.drcr().component_names();
                    if !names.is_empty() {
                        let name = names[pick as usize % names.len()].clone();
                        let was_disabled =
                            rt.component_state(&name) == Some(ComponentState::Disabled);
                        let result = rt.enable_component(&name);
                        assert_eq!(result.is_ok(), was_disabled, "case {case}");
                    }
                }
                Op::SwitchModed(cheap) => {
                    if rt.component_state("mod").is_some() {
                        let mode = if cheap { "cheap" } else { drcom::BASE_MODE };
                        rt.switch_mode("mod", mode).unwrap();
                    }
                }
                Op::Advance(ms) => {
                    rt.advance(SimDuration::from_millis(u64::from(ms)));
                }
            }
            check_invariants(&rt, case);
            check_transition_history(&rt, &log.borrow(), case);
        }
        // Teardown: everything uninstalls cleanly.
        for (_, b) in bundles {
            rt.uninstall_bundle(b).unwrap();
        }
        assert!(rt.drcr().component_names().is_empty());
        check_invariants(&rt, case);
        check_transition_history(&rt, &log.borrow(), case);
        groups.tally(&log.borrow());
    }
    groups.assert_both_seen("invariants");
}
