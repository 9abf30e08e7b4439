//! Contract enforcement end to end: the contract monitor's point verdict
//! at its boundaries, its learn/refine/convict loop, and kernel budget
//! clamping under both executors.

use drt::prelude::*;
use drt::rtos::exec::{DeterministicExecutor, Executor, ParallelExecutor};
use drt::rtos::kernel::TaskCtx;
use drt::rtos::task::FnBody;

fn runtime() -> DrtRuntime {
    DrtRuntime::new(KernelConfig::new(53).with_timer(TimerJitterModel::ideal()))
}

/// Claims `claim` of a 10 ms period, burns `burn` per cycle.
fn steady(name: &str, claim: f64, priority: u8, burn: SimDuration) -> ComponentProvider {
    let d = ComponentDescriptor::builder(name)
        .periodic(100, 0, priority)
        .cpu_usage(claim)
        .build()
        .unwrap();
    ComponentProvider::new(d, move || {
        Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
            io.compute(burn);
        }))
    })
}

/// The components a batch of outcomes convicted.
fn convicted(outcomes: &[ContractOutcome]) -> Vec<&str> {
    outcomes
        .iter()
        .filter_map(|o| match o {
            ContractOutcome::Violation { component, .. } => Some(component.as_str()),
            ContractOutcome::Refined { .. } => None,
        })
        .collect()
}

// ---------------------------------------------------------------------
// The point verdict: the one monitor set to p_max = 0, delta = 1 and no
// refinement judges each polled window's mean per-cycle cost against the
// claim.
// ---------------------------------------------------------------------

#[test]
fn point_verdict_boundary_is_exact() {
    // Against a 0.10 claim of a 10 ms period. Admission charges the
    // container's per-cycle work outside the claim, and the monitor judges
    // the cost net of it: burning exactly 1 ms is legal, burning one
    // microsecond more convicts on the first judged window.
    let mut rt = runtime();
    rt.install_component("b.at", steady("at", 0.10, 2, SimDuration::from_millis(1)))
        .unwrap();
    rt.install_component(
        "b.over",
        steady("over", 0.10, 3, SimDuration::from_micros(1_001)),
    )
    .unwrap();
    let mut monitor = StochasticMonitor::new(LearningConfig::point(false));
    assert!(monitor.poll(&mut rt).unwrap().is_empty(), "baselines only");
    for poll in 0..10 {
        rt.advance(SimDuration::from_millis(100));
        let fresh = monitor.poll(&mut rt).unwrap();
        let expected: &[&str] = if poll == 0 { &["over"] } else { &[] };
        assert_eq!(convicted(&fresh), expected, "poll {poll}");
    }
    let at = monitor.estimator("at").unwrap();
    assert!(at.samples() >= 90, "samples {}", at.samples());
    assert_eq!(at.over_rate(), 0.0);
    assert_eq!(monitor.estimator("over").unwrap().over_rate(), 1.0);
}

#[test]
fn monitor_judges_the_ceiling_inclusively_end_to_end() {
    // Both claim 0.12 of the period. A component burning 1.1 ms of every
    // 10 ms stays under it; one burning 1.35 ms does not. Without
    // quarantine the verdict is evidence only: the component keeps
    // running.
    let mut rt = runtime();
    rt.install_component(
        "b.under",
        steady("under", 0.12, 2, SimDuration::from_micros(1100)),
    )
    .unwrap();
    rt.install_component(
        "b.above",
        steady("above", 0.12, 3, SimDuration::from_micros(1350)),
    )
    .unwrap();
    let mut monitor = StochasticMonitor::new(LearningConfig::point(false));
    monitor.poll(&mut rt).unwrap();
    rt.advance(SimDuration::from_millis(505));
    let fresh = monitor.poll(&mut rt).unwrap();
    assert_eq!(convicted(&fresh), ["above"]);
    let ContractOutcome::Violation {
        claimed,
        observed_rate,
        rate_lower_bound,
        samples,
        ..
    } = fresh[0]
    else {
        unreachable!()
    };
    assert_eq!((claimed, observed_rate, rate_lower_bound), (0.12, 1.0, 1.0));
    assert!(samples >= 50, "samples {samples}");
    assert_eq!(rt.component_state("above"), Some(ComponentState::Active));
    assert!(rt
        .drcr()
        .events_for("above")
        .any(|e| matches!(e.event, DrcrEvent::StochasticViolation { .. })));
    // One conviction, not one per poll.
    rt.advance(SimDuration::from_millis(300));
    assert!(monitor.poll(&mut rt).unwrap().is_empty());
}

#[test]
fn point_verdict_skips_zero_width_polls() {
    // Claims 0.10 and burns 0.50.
    let mut rt = runtime();
    rt.install_component(
        "b.liar",
        steady("liar", 0.10, 2, SimDuration::from_millis(5)),
    )
    .unwrap();
    let mut monitor = StochasticMonitor::new(LearningConfig::point(false));
    monitor.poll(&mut rt).unwrap();
    rt.advance(SimDuration::from_millis(100));
    monitor.poll(&mut rt).unwrap();
    // Same instant again: no cycle completed, so the window is skipped
    // rather than judged on 0/0, and nothing is folded.
    let before = monitor.estimator("liar").unwrap().samples();
    assert!(monitor.poll(&mut rt).unwrap().is_empty());
    assert_eq!(monitor.estimator("liar").unwrap().samples(), before);
    // The skip did not poison the baseline: the next window is judged on
    // exactly its own cycles.
    rt.advance(SimDuration::from_millis(300));
    monitor.poll(&mut rt).unwrap();
    assert_eq!(monitor.estimator("liar").unwrap().samples(), before + 30);
    assert_eq!(convicted(monitor.outcomes()), ["liar"]);
}

#[test]
fn point_verdict_restart_resets_the_baseline() {
    use std::cell::Cell;
    use std::rc::Rc;
    // Claims 0.10. The first instance burns 0.01 and faults at cycle 31;
    // the restarted one burns an honest 0.09.
    let mut rt = runtime();
    let instances = Rc::new(Cell::new(0u32));
    let d = ComponentDescriptor::builder("flaky")
        .periodic(100, 0, 2)
        .cpu_usage(0.10)
        .build()
        .unwrap();
    let provider = ComponentProvider::new(d, {
        let instances = instances.clone();
        move || {
            instances.set(instances.get() + 1);
            let first = instances.get() == 1;
            Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
                if first {
                    io.compute(SimDuration::from_micros(100));
                    if io.cycle() == 31 {
                        panic!("transient fault");
                    }
                } else {
                    io.compute(SimDuration::from_micros(900));
                }
            }))
        }
    });
    rt.set_supervision("flaky", SupervisionConfig::immediate(3));
    rt.install_component("b.flaky", provider).unwrap();
    let mut monitor = StochasticMonitor::new(LearningConfig::point(false));
    rt.advance(SimDuration::from_millis(300));
    // Baseline against the first instance: many cycles, little CPU.
    monitor.poll(&mut rt).unwrap();
    // The first instance dies at ~310 ms and a fresh task, with fresh
    // accounting, restarts entirely between two polls.
    rt.advance(SimDuration::from_millis(50));
    assert_eq!(rt.component_state("flaky"), Some(ComponentState::Active));
    assert_eq!(instances.get(), 2);
    rt.advance(SimDuration::from_millis(450));
    // A window spanning both instances would divide the second one's CPU
    // by a cycle count short by the first one's cycles — about 0.25 of the
    // period, a false conviction. The monitor re-baselines instead.
    assert!(monitor.poll(&mut rt).unwrap().is_empty());
    assert_eq!(monitor.estimator("flaky").unwrap().samples(), 0);
    rt.advance(SimDuration::from_millis(500));
    // A clean single-instance window, judged undiluted.
    assert!(monitor.poll(&mut rt).unwrap().is_empty());
    let est = monitor.estimator("flaky").unwrap();
    assert_eq!((est.samples(), est.over_rate()), (50, 0.0));
}

#[test]
fn point_verdict_quarantine_evicts_and_enable_readmits() {
    let mut rt = runtime();
    rt.install_component(
        "b.liar",
        steady("liar", 0.10, 2, SimDuration::from_millis(5)),
    )
    .unwrap();
    let mut monitor = StochasticMonitor::new(LearningConfig::point(true));
    monitor.poll(&mut rt).unwrap();
    rt.advance(SimDuration::from_millis(300));
    assert_eq!(convicted(&monitor.poll(&mut rt).unwrap()), ["liar"]);
    // Evicted through the supervisor: disabled, reservation released.
    assert_eq!(rt.component_state("liar"), Some(ComponentState::Disabled));
    assert!(rt.drcr().ledger().is_empty());
    assert!(rt.drcr().is_quarantined("liar"));
    // Operator re-enable clears the quarantine and re-admits.
    rt.enable_component("liar").unwrap();
    assert!(!rt.drcr().is_quarantined("liar"));
    assert_eq!(rt.component_state("liar"), Some(ComponentState::Active));
}

#[test]
fn kernel_budgets_cap_the_liar_mechanically() {
    let mut rt = runtime();
    rt.drcr_mut().set_budget_enforcement(true);
    rt.install_component(
        "b.liar",
        steady("liar", 0.10, 2, SimDuration::from_millis(5)),
    )
    .unwrap();
    let mut monitor = StochasticMonitor::new(LearningConfig::point(true));
    monitor.poll(&mut rt).unwrap();
    rt.advance(SimDuration::from_secs(1));
    // Clamped to 10% of the 10 ms period = 1 ms per cycle plus the
    // container overhead admission charges outside the claim: net of that
    // overhead it is exactly the claim, so the monitor sees a clean system.
    let liar = rt.drcr().task_of("liar").unwrap();
    assert!(rt.kernel().task_budget_overruns(liar).unwrap() > 90);
    assert!(monitor.poll(&mut rt).unwrap().is_empty());
    let est = monitor.estimator("liar").unwrap();
    assert!(est.samples() >= 90, "samples {}", est.samples());
    assert_eq!(est.over_rate(), 0.0);
}

#[test]
fn budget_covers_the_claim_and_the_container_overhead() {
    // The kernel budget equals the per-cycle cost admission reserves: the
    // claim plus the container's work around the logic. A component burning
    // exactly its claim is never clamped; one burning a microsecond more is
    // clamped every cycle.
    let mut rt = runtime();
    rt.drcr_mut().set_budget_enforcement(true);
    rt.install_component("b.at", steady("at", 0.10, 2, SimDuration::from_millis(1)))
        .unwrap();
    rt.install_component(
        "b.over",
        steady("over", 0.10, 3, SimDuration::from_micros(1_001)),
    )
    .unwrap();
    rt.advance(SimDuration::from_secs(1));
    let at = rt.drcr().task_of("at").unwrap();
    let over = rt.drcr().task_of("over").unwrap();
    let kernel = rt.kernel();
    assert!(kernel.task_cycles(at).unwrap() >= 99);
    assert_eq!(kernel.task_budget_overruns(at), Some(0));
    let cycles = kernel.task_cycles(over).unwrap();
    assert!(cycles >= 99, "cycles {cycles}");
    assert_eq!(kernel.task_budget_overruns(over), Some(cycles));
}

// ---------------------------------------------------------------------
// Stochastic monitor: the refinement loop holds in the integration tier.
// ---------------------------------------------------------------------

#[test]
fn stochastic_refinement_reclaims_capacity_and_convicts_liars() {
    let mut rt = runtime();
    // Over-declarer: claims 60%, uses ~10%.
    rt.install_component("b.hog", steady("hog", 0.60, 2, SimDuration::from_millis(1)))
        .unwrap();
    // Under-declarer: claims 4%, really uses 12–18% via a lying plan.
    let plan = std::rc::Rc::new(FaultPlan::lying(0xD0C, 5_000, (1_200_000, 1_800_000)));
    let log = InjectionLog::shared();
    let d = ComponentDescriptor::builder("sneak")
        .periodic(100, 0, 3)
        .cpu_usage(0.04)
        .build()
        .unwrap();
    rt.install_component(
        "b.sneak",
        ComponentProvider::new(d, {
            let (plan, log) = (plan.clone(), log.clone());
            move || {
                FaultInjector::wrap(
                    plan.clone(),
                    log.clone(),
                    Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                        io.compute(SimDuration::from_micros(100));
                    })),
                )
            }
        }),
    )
    .unwrap();
    // Stranded peer: its 45% cannot sit next to a declared 60% + 4%.
    rt.install_component(
        "b.wait",
        steady("wait", 0.45, 4, SimDuration::from_millis(4)),
    )
    .unwrap();
    assert_eq!(
        rt.component_state("wait"),
        Some(ComponentState::Unsatisfied)
    );

    let mut monitor = StochasticMonitor::new(LearningConfig {
        min_samples: 50,
        ..LearningConfig::default()
    });
    for _ in 0..15 {
        rt.advance(SimDuration::from_millis(100));
        monitor.poll(&mut rt).unwrap();
    }
    // The hog's claim was refined down and the stranded peer re-admitted.
    assert!(monitor
        .outcomes()
        .iter()
        .any(|o| matches!(o, ContractOutcome::Refined { component, .. } if component == "hog")));
    assert_eq!(rt.component_state("hog"), Some(ComponentState::Active));
    assert_eq!(rt.component_state("wait"), Some(ComponentState::Active));
    // The under-declarer was convicted on stochastic evidence and
    // quarantined through the supervise path.
    assert!(monitor.outcomes().iter().any(
        |o| matches!(o, ContractOutcome::Violation { component, .. } if component == "sneak")
    ));
    assert_eq!(rt.component_state("sneak"), Some(ComponentState::Disabled));
    assert!(rt
        .drcr()
        .quarantine_reason("sneak")
        .is_some_and(|r| r.contains("stochastic contract violation")));
}

// ---------------------------------------------------------------------
// Kernel budget clamping, executor-parameterized: the same lying fleet
// runs under the serial and the threaded executor; budgets must clamp
// identically on both.
// ---------------------------------------------------------------------

#[test]
fn budget_clamping_is_identical_under_every_executor() {
    let build = || {
        let mut bridge = FleetBridge::new(2, 907).enforce_budgets(true);
        for cpu in 0..2u32 {
            // Claims 10% of a 1 ms period (budget 100 µs) but tries to
            // burn 500 µs per cycle; the kernel must clamp it.
            let liar = ComponentDescriptor::builder(&format!("liar{cpu}"))
                .periodic(1000, cpu, 2)
                .cpu_usage(0.10)
                .build()
                .unwrap();
            // Honest sibling on the same CPU; must never starve behind
            // the clamped liar.
            let work = ComponentDescriptor::builder(&format!("work{cpu}"))
                .periodic(1000, cpu, 3)
                .cpu_usage(0.10)
                .build()
                .unwrap();
            bridge = bridge
                .component(liar, || {
                    Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                        ctx.compute(SimDuration::from_micros(500));
                    }))
                })
                .component(work, || {
                    Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                        ctx.compute(SimDuration::from_micros(50));
                    }))
                });
        }
        bridge.build().unwrap()
    };
    let horizon = SimDuration::from_millis(50);
    let reference = DeterministicExecutor.run(&build(), horizon).unwrap();
    for cpu in 0..2u32 {
        let work = reference.task(&format!("work{cpu}")).unwrap();
        assert!(work.cycles >= 49, "work{cpu} starved at {}", work.cycles);
        assert_eq!(work.deadline_misses, 0);
        let liar = reference.task(&format!("liar{cpu}")).unwrap();
        assert!(liar.cycles >= 49, "clamping should not stall the liar");
    }
    let outcome = ParallelExecutor::new(2).run(&build(), horizon).unwrap();
    // The fleet is quiescent (no cross-CPU IPC), so the threaded executor
    // must reproduce the reference schedule exactly: same per-task
    // cycles/overruns/misses, same global counters.
    assert_eq!(reference.tasks, outcome.tasks, "parallel diverged");
    assert_eq!(
        reference.counters, outcome.counters,
        "parallel counters diverged"
    );
}
