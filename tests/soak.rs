//! Soak test: every subsystem on at once — stress load, budget
//! enforcement, contract monitoring, adaptation, mode switching and
//! component churn — over a sustained run. The system must stay consistent
//! and leak-free throughout.

use drcom::adapt::{AdaptationManager, GracefulDegradation};
use drt::prelude::*;
use rtos::kernel::Kernel;
use rtos::latency::LoadMode;
use rtos::load::apply_load;
use std::cell::RefCell;
use std::rc::Rc;

fn provider(name: &str, hz: u32, usage: f64, modes: bool) -> ComponentProvider {
    let mut b = ComponentDescriptor::builder(name)
        .periodic(hz, 0, 3)
        .cpu_usage(usage)
        .property("importance", PropertyValue::Integer((usage * 100.0) as i64));
    if modes {
        b = b.mode("cheap", hz.max(10) / 10, usage / 10.0, 3);
    }
    let d = b.build().unwrap();
    let period_ns = 1_000_000_000 / u64::from(hz);
    let cost = SimDuration::from_nanos((period_ns as f64 * usage * 0.9) as u64);
    ComponentProvider::new(d, move || {
        Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
            io.compute(cost);
        }))
    })
}

#[test]
fn everything_at_once_stays_consistent() {
    let mut rt = DrtRuntime::new(
        KernelConfig::new(101)
            .with_timer(TimerJitterModel::ideal())
            .with_load_mode(LoadMode::Stress),
    );
    rt.drcr_mut().set_budget_enforcement(true);
    apply_load(&mut rt.kernel_mut(), LoadMode::Stress, 2).unwrap();

    // The point verdict, recording only: every window is judged against
    // the claim in force, mode switches included.
    let mut monitor = StochasticMonitor::new(LearningConfig::point(false));
    let mut manager =
        AdaptationManager::new().with_policy(Box::new(GracefulDegradation::new(0, 0.2, 0.85)));

    let mut bundles = Vec::new();
    for round in 0..30u64 {
        // Churn: install a new component every round, retire the oldest
        // once five are live.
        let name = format!("s{round:03}");
        let moded = round % 3 == 0;
        let bundle = rt
            .install_component(
                &format!("soak.{name}"),
                provider(&name, 100 + (round as u32 % 5) * 100, 0.15, moded),
            )
            .unwrap();
        bundles.push(bundle);
        if bundles.len() > 5 {
            let oldest = bundles.remove(0);
            rt.uninstall_bundle(oldest).unwrap();
        }
        // Occasionally flip a moded component.
        if moded && rt.component_state(&name) == Some(ComponentState::Active) {
            rt.switch_mode(&name, "cheap").unwrap();
        }
        rt.advance(SimDuration::from_millis(100));
        monitor.poll(&mut rt).unwrap();
        manager.run_once(&mut rt).unwrap();

        // Invariants every round.
        let util = rt.drcr().ledger().utilization(0);
        assert!(util <= 1.0 + 1e-9, "round {round}: overcommitted {util}");
        let names = rt.drcr().component_names();
        assert!(
            names.len() <= 6,
            "round {round}: {} components",
            names.len()
        );
        for n in &names {
            let state = rt.component_state(n).unwrap();
            let has_task = rt.drcr().task_of(n).is_some();
            assert_eq!(
                state.holds_admission(),
                has_task,
                "round {round}: `{n}` {state}"
            );
        }
    }

    // Kernel budgets clamp every task to its claim, so the monitor judged
    // windows but never convicted.
    assert!(rt
        .drcr()
        .component_names()
        .iter()
        .any(|n| monitor.estimator(n).is_some_and(|e| e.samples() > 0)));
    assert!(monitor.outcomes().is_empty(), "{:?}", monitor.outcomes());
    // The 25 components uninstalled along the way left no estimator
    // behind.
    let removed = (0..25u64).map(|r| format!("s{r:03}"));
    for name in removed {
        assert!(rt.component_state(&name).is_none(), "{name}");
        assert!(monitor.estimator(&name).is_none(), "{name}");
    }
    // Drain everything; nothing leaks.
    for bundle in bundles {
        rt.uninstall_bundle(bundle).unwrap();
    }
    assert!(rt.drcr().component_names().is_empty());
    assert!(rt.drcr().ledger().is_empty());
    assert!(rt.kernel().shm().is_empty());
    assert!(rt.kernel().mailboxes().is_empty());
    assert!(rt.kernel().fifos().is_empty());
    // The Linux hogs kept the CPU saturated the whole time.
    assert!(rt.kernel().cpu_linux_utilization(0) > 0.3);
}

#[test]
fn drcr_works_embedded_without_the_bundle_path() {
    // The DRCR can be driven directly (embedded systems without the full
    // framework deployment story): register components programmatically,
    // resolve against a plain Framework.
    let kernel = Rc::new(RefCell::new(Kernel::new(
        KernelConfig::new(7).with_timer(TimerJitterModel::ideal()),
    )));
    let drcr = Drcr::new_shared(kernel.clone());
    let mut fw = osgi::framework::Framework::new();

    let d = ComponentDescriptor::builder("inline")
        .periodic(100, 0, 2)
        .cpu_usage(0.2)
        .build()
        .unwrap();
    drcr.borrow_mut()
        .register_component(
            Rc::new(d),
            Rc::new(|| {
                Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                    io.compute(SimDuration::from_micros(100));
                })) as Box<dyn RtLogic>
            }),
            None,
        )
        .unwrap();
    drcr.borrow_mut().process(&mut fw);
    assert_eq!(
        drcr.borrow().state_of("inline"),
        Some(ComponentState::Active)
    );
    kernel.borrow_mut().run_for(SimDuration::from_millis(100));
    let task = drcr.borrow().task_of("inline").unwrap();
    assert!(kernel.borrow().task_cycles(task).unwrap() >= 9);
    // Direct removal tears down cleanly.
    drcr.borrow_mut()
        .remove_component("inline", &mut fw)
        .unwrap();
    assert!(kernel.borrow().task_by_name("inline").is_none());
}
