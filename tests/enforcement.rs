//! Contract enforcement end to end: the deterministic monitor's boundary
//! behaviour, the stochastic monitor's learn/refine/convict loop, and
//! kernel budget clamping under both executors.

use drt::prelude::*;
use drt::rtos::exec::{DeterministicExecutor, Executor, ParallelExecutor};
use drt::rtos::kernel::TaskCtx;
use drt::rtos::task::FnBody;

fn runtime() -> DrtRuntime {
    DrtRuntime::new(KernelConfig::new(53).with_timer(TimerJitterModel::ideal()))
}

/// Claims `claim` of a 10 ms period, burns `burn_us` µs per cycle.
fn steady(name: &str, claim: f64, priority: u8, burn_us: u64) -> ComponentProvider {
    let d = ComponentDescriptor::builder(name)
        .periodic(100, 0, priority)
        .cpu_usage(claim)
        .build()
        .unwrap();
    ComponentProvider::new(d, move || {
        Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
            io.compute(SimDuration::from_micros(burn_us));
        }))
    })
}

// ---------------------------------------------------------------------
// Deterministic monitor: tolerance boundary, both sides.
// ---------------------------------------------------------------------

#[test]
fn enforcement_tolerance_boundary_is_exact() {
    // The pure predicate draws the line: at the ceiling is legal, one
    // epsilon above is not. 0.5 × 1.5 = 0.75 exactly in binary floating
    // point, so no rounding slop is involved.
    let policy = EnforcementPolicy {
        tolerance: 1.5,
        ..EnforcementPolicy::default()
    };
    assert!(!policy.violates(0.75, 0.5));
    assert!(policy.violates(0.75 + f64::EPSILON, 0.5));
}

#[test]
fn monitor_judges_the_ceiling_inclusively_end_to_end() {
    // Ceiling = 0.10 × 1.2 = 0.12 of the period. A component burning
    // 1.1 ms of every 10 ms stays under it; one burning 1.35 ms does not.
    let mut rt = runtime();
    rt.install_component("b.under", steady("under", 0.10, 2, 1100))
        .unwrap();
    rt.install_component("b.above", steady("above", 0.10, 3, 1350))
        .unwrap();
    let mut monitor = ContractMonitor::new(EnforcementPolicy::default());
    monitor.check(&mut rt).unwrap();
    rt.advance(SimDuration::from_millis(505));
    let violations = monitor.check(&mut rt).unwrap();
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].component, "above");
    assert!(violations[0].observed > 0.12 && violations[0].observed.is_finite());
}

// ---------------------------------------------------------------------
// Stochastic monitor: the refinement loop holds in the integration tier.
// ---------------------------------------------------------------------

#[test]
fn stochastic_refinement_reclaims_capacity_and_convicts_liars() {
    let mut rt = runtime();
    // Over-declarer: claims 60%, uses ~10%.
    rt.install_component("b.hog", steady("hog", 0.60, 2, 1000))
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
    rt.install_component("b.wait", steady("wait", 0.45, 4, 4000))
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
