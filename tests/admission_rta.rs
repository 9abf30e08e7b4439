//! Edge cases and lockstep laws for the response-time-analysis admission
//! path (`drcom::rta`, an `RtaResolver` handed to the runtime as its
//! internal policy).
//!
//! The analytical cases pin the recurrence against hand-computed response
//! times; the lockstep properties relate the exact test to the utilization
//! family (RM bound ⇒ RTA ⇒ EDF) and check that response-time admission
//! and the cap drive the executive identically whenever they admit the
//! same fleet.

use drcom::lifecycle::ComponentState;
use drcom::resolve::{EdfResolver, ResolvingService, RmBoundResolver, UtilizationResolver};
use drcom::rta::{RtaParams, RtaResolver};
use drcom::view::{ComponentInfo, SystemView};
use drt::prelude::*;
use rtos::rng::SimRng;

fn comp(name: &str, state: ComponentState, usage: f64, prio: u8, period_ms: u64) -> ComponentInfo {
    ComponentInfo {
        name: name.into(),
        state,
        cpu: 0,
        cpu_usage: usage,
        priority: prio,
        period_ns: Some(period_ms * 1_000_000),
    }
}

fn pinned(name: &str, freq: u32, prio: u8, usage: f64) -> ComponentProvider {
    let d = ComponentDescriptor::builder(name)
        .periodic(freq, 0, prio)
        .cpu_usage(usage)
        .build()
        .unwrap();
    ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
}

/// A single task claiming the whole CPU is exactly schedulable (R = C = T)
/// under the pure analysis, while any utilization cap below 1 rejects it.
#[test]
fn single_task_at_full_utilization() {
    let rta = RtaResolver::new(RtaParams::exact());
    let cap = UtilizationResolver::new(0.9);
    let candidate = comp("solo", ComponentState::Unsatisfied, 1.0, 3, 10);
    let view = SystemView::new(1, vec![candidate.clone()]);
    assert!(rta.admit(&candidate, &view).is_admit());
    assert_eq!(
        rta.analyze(&candidate, &view).wcrt_of("solo"),
        Some(10_000_000)
    );
    assert!(!cap.admit(&candidate, &view).is_admit());
    // Once per-cycle container overhead is charged the 100% claim no
    // longer fits — the default params are deliberately conservative.
    assert!(!RtaResolver::default().admit(&candidate, &view).is_admit());
}

/// Equal priorities: the kernel breaks ties FIFO and round-robins, so an
/// equal-priority peer counts as interference. A long-period candidate that
/// passes every utilization test can still starve a short-period peer of
/// the same priority past its deadline.
#[test]
fn equal_priority_interference_is_counted() {
    let incumbent = comp("short", ComponentState::Active, 0.5, 2, 10);
    // 49 ms of work every 100 ms at the same priority: U = 0.99, yet the
    // incumbent's window now contains up to one full candidate job.
    let candidate = comp("long", ComponentState::Unsatisfied, 0.49, 2, 100);
    let view = SystemView::new(1, vec![incumbent, candidate.clone()]);
    assert!(UtilizationResolver::default()
        .admit(&candidate, &view)
        .is_admit());
    let rta = RtaResolver::new(RtaParams::exact());
    let analysis = rta.analyze(&candidate, &view);
    assert!(!analysis.schedulable);
    // The victim is the *incumbent*: 5 ms own + 49 ms peer = 54 ms > 10 ms.
    assert_eq!(analysis.wcrt_of("short"), Some(54_000_000));
    assert!(analysis.reason.as_deref().unwrap().contains("`short`"));
    // The candidate itself converges: 49 + ceil(99/10)·5 = 99 <= 100.
    assert_eq!(analysis.wcrt_of("long"), Some(99_000_000));
}

/// A candidate below existing higher-priority tasks absorbs their
/// interference: admitted when the inflated response still fits, rejected
/// when preemption pushes it past the deadline the cap never sees.
#[test]
fn candidate_preempted_by_existing_higher_priority_tasks() {
    let hp = comp("hp", ComponentState::Active, 0.5, 1, 10);
    let rta = RtaResolver::new(RtaParams::exact());

    // 5 ms of work, 20 ms period: R = 5 + ceil(R/10)·5 -> 10 ms. Admitted,
    // and the analysis shows the preemption-inflated WCRT (2x the WCET).
    let ok = comp("below", ComponentState::Unsatisfied, 0.25, 3, 20);
    let view = SystemView::new(1, vec![hp.clone(), ok.clone()]);
    let analysis = rta.analyze(&ok, &view);
    assert!(analysis.schedulable);
    assert_eq!(analysis.wcrt_of("below"), Some(10_000_000));

    // 6 ms of work, 15 ms period: R -> 6 + 2·5 = 16 ms > 15 ms. Total
    // utilization is 0.9, so the cap (even at 0.9 + epsilon) admits what
    // fixed-priority scheduling cannot serve.
    let tight = comp("tight", ComponentState::Unsatisfied, 0.4, 3, 15);
    let view = SystemView::new(1, vec![hp, tight.clone()]);
    assert!(UtilizationResolver::new(0.9)
        .admit(&tight, &view)
        .is_admit());
    let analysis = rta.analyze(&tight, &view);
    assert!(!analysis.schedulable);
    assert_eq!(analysis.wcrt_of("tight"), Some(16_000_000));
}

/// Sufficiency ordering on random rate-monotonic fleets: whenever the
/// Liu–Layland RM bound admits, the exact analysis admits too; whenever the
/// exact analysis admits, total utilization is at most 1 (EDF admits).
#[test]
fn rta_sits_between_rm_bound_and_edf_on_random_fleets() {
    let mut rng = SimRng::from_seed(0x57A5);
    let rm = RmBoundResolver;
    let edf = EdfResolver;
    let rta = RtaResolver::new(RtaParams::exact());
    let (mut rm_admits, mut rta_admits) = (0u32, 0u32);
    for case in 0..400 {
        // 1-5 admitted tasks plus a candidate, rate-monotonic priorities.
        let n = rng.uniform_u64(1, 6) as usize;
        let mut periods: Vec<u64> = (0..=n)
            .map(|_| [1u64, 2, 4, 5, 8, 10, 20, 25, 40, 50][rng.uniform_u64(0, 10) as usize])
            .collect();
        periods.sort_unstable();
        let mut fleet: Vec<ComponentInfo> = periods
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let usage = 0.02 + rng.uniform() * 0.25;
                comp(&format!("t{i}"), ComponentState::Active, usage, i as u8, p)
            })
            .collect();
        let pick = rng.uniform_u64(0, fleet.len() as u64) as usize;
        fleet[pick].state = ComponentState::Unsatisfied;
        let candidate = fleet[pick].clone();
        let view = SystemView::new(1, fleet);

        let rm_ok = rm.admit(&candidate, &view).is_admit();
        let rta_ok = rta.admit(&candidate, &view).is_admit();
        let edf_ok = edf.admit(&candidate, &view).is_admit();
        if rm_ok {
            rm_admits += 1;
            assert!(
                rta_ok,
                "case {case}: RM bound admitted but exact analysis rejected"
            );
        }
        if rta_ok {
            rta_admits += 1;
            assert!(
                edf_ok,
                "case {case}: RTA admitted a fleet above utilization 1"
            );
        }
    }
    // The fuzz exercised real decisions, and the exact test is strictly
    // more permissive than the bound somewhere in the sample.
    assert!(rm_admits > 0 && rta_admits > rm_admits);
}

/// Lockstep law at the executive level: install a random fleet under the
/// cap policy and under `RtaResolver`. Whenever both policies admit
/// exactly the same components, their ledgers agree and their lifecycle
/// event streams (modulo the RTA evidence events and verdict resolver
/// names) are identical.
#[test]
fn response_time_strategy_agrees_with_cap_when_both_admit() {
    let mut rng = SimRng::from_seed(0xADA1);
    let mut agreements = 0u32;
    for case in 0..40 {
        let n = rng.uniform_u64(2, 7) as usize;
        let fleet: Vec<(String, u32, u8, f64)> = (0..n)
            .map(|i| {
                let freq = [50u32, 100, 200][rng.uniform_u64(0, 3) as usize];
                let prio = rng.uniform_u64(1, 5) as u8;
                let usage = 0.05 + rng.uniform() * 0.3;
                (format!("c{i}"), freq, prio, usage)
            })
            .collect();

        let run = |policy: Box<dyn ResolvingService>| {
            let mut rt = DrtRuntime::with_resolver(
                KernelConfig::new(1000 + case).with_timer(TimerJitterModel::ideal()),
                policy,
            );
            for (name, freq, prio, usage) in &fleet {
                rt.install_component(&format!("d.{name}"), pinned(name, *freq, *prio, *usage))
                    .unwrap();
            }
            rt.advance(SimDuration::from_millis(200));
            let admitted: Vec<String> = fleet
                .iter()
                .filter(|(name, ..)| rt.component_state(name) == Some(ComponentState::Active))
                .map(|(name, ..)| name.clone())
                .collect();
            let utilization = rt.drcr().ledger().utilization(0);
            let lifecycle: Vec<String> = rt
                .drcr()
                .events()
                .iter()
                .filter(|e| {
                    matches!(
                        e.event,
                        DrcrEvent::Transition { .. } | DrcrEvent::CascadeDeactivation { .. }
                    )
                })
                .map(|e| format!("{} {}", e.time.as_nanos(), e.event))
                .collect();
            (admitted, utilization, lifecycle)
        };

        let (cap_admitted, cap_util, cap_events) = run(Box::new(UtilizationResolver::new(0.9)));
        let (rta_admitted, rta_util, rta_events) = run(Box::<RtaResolver>::default());
        if cap_admitted == rta_admitted {
            agreements += 1;
            assert_eq!(
                cap_util.to_bits(),
                rta_util.to_bits(),
                "case {case}: ledgers diverged on an identical admitted set"
            );
            assert_eq!(
                cap_events, rta_events,
                "case {case}: lifecycle streams diverged on an identical admitted set"
            );
        }
    }
    assert!(agreements > 0, "policies never admitted the same fleet");
}
