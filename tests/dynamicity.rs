//! Integration test of the paper's §4.3 dynamicity scenario, asserting the
//! full event chain: arrival ordering, cascade on departure, automatic
//! re-activation, and the integrity of the DRCR's global view throughout.

use drt::prelude::*;

fn runtime() -> DrtRuntime {
    DrtRuntime::new(KernelConfig::new(11).with_timer(TimerJitterModel::ideal()))
}

fn calc() -> ComponentProvider {
    let d = ComponentDescriptor::builder("calc")
        .periodic(1000, 0, 2)
        .cpu_usage(0.15)
        .outport("latdat", PortInterface::Shm, DataType::Integer, 1)
        .build()
        .unwrap();
    ComponentProvider::new(d, || {
        Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
            io.compute(SimDuration::from_micros(100));
            let v = (io.cycle() as i32).to_le_bytes();
            io.write("latdat", &v).unwrap();
        }))
    })
}

fn disp() -> ComponentProvider {
    let d = ComponentDescriptor::builder("disp")
        .periodic(4, 0, 5)
        .cpu_usage(0.01)
        .inport("latdat", PortInterface::Shm, DataType::Integer, 1)
        .build()
        .unwrap();
    ComponentProvider::new(d, || {
        Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
            let _ = io.read("latdat").unwrap();
        }))
    })
}

#[test]
fn scenario_forward_consumer_first() {
    let mut rt = runtime();
    rt.install_component("demo.disp", disp()).unwrap();
    assert_eq!(
        rt.component_state("disp"),
        Some(ComponentState::Unsatisfied)
    );
    // The typed event log explains *why*.
    assert!(rt.drcr().events_for("disp").any(|e| matches!(
        &e.event,
        DrcrEvent::WiringUnsatisfied { missing, .. } if missing.contains("no provider")
    )));

    rt.install_component("demo.calc", calc()).unwrap();
    assert_eq!(rt.component_state("calc"), Some(ComponentState::Active));
    assert_eq!(rt.component_state("disp"), Some(ComponentState::Active));
}

#[test]
fn scenario_reverse_provider_departs_and_returns() {
    let mut rt = runtime();
    let calc_bundle = rt.install_component("demo.calc", calc()).unwrap();
    rt.install_component("demo.disp", disp()).unwrap();
    rt.advance(SimDuration::from_millis(20));

    // Departure: the DRCR gets notified and consults its resolving services
    // again; disp is found unsatisfied and disabled (paper §4.3).
    rt.stop_bundle(calc_bundle).unwrap();
    assert_eq!(
        rt.component_state("calc"),
        None,
        "calc removed with its bundle"
    );
    assert_eq!(
        rt.component_state("disp"),
        Some(ComponentState::Unsatisfied)
    );

    // The RT side is really gone: no tasks, no channels, no reservations.
    assert!(rt.kernel().task_by_name("calc").is_none());
    assert!(rt.kernel().task_by_name("disp").is_none());
    assert!(rt.kernel().shm().is_empty(), "SHM leaked");
    assert!(rt.drcr().ledger().is_empty(), "admission leaked");

    // Return: everything re-activates without operator involvement.
    rt.start_bundle(calc_bundle).unwrap();
    assert_eq!(rt.component_state("calc"), Some(ComponentState::Active));
    assert_eq!(rt.component_state("disp"), Some(ComponentState::Active));
    rt.advance(SimDuration::from_millis(20));
    let task = rt.drcr().task_of("disp").unwrap();
    assert!(rt.kernel().task_state(task).is_some());
}

#[test]
fn data_flows_across_components_through_rt_ipc() {
    let mut rt = runtime();
    rt.install_component("demo.calc", calc()).unwrap();
    rt.install_component("demo.disp", disp()).unwrap();
    rt.advance(SimDuration::from_secs(1));
    let shm = rt.kernel();
    let seg = shm.shm().get("latdat").unwrap();
    assert!(seg.write_count() >= 990, "calc wrote {}", seg.write_count());
    assert!(seg.read_count() >= 3, "disp read {}", seg.read_count());
}

#[test]
fn repeated_churn_never_leaks() {
    let mut rt = runtime();
    rt.install_component("demo.disp", disp()).unwrap();
    let calc_bundle = rt.install_component("demo.calc", calc()).unwrap();
    for _ in 0..10 {
        rt.advance(SimDuration::from_millis(10));
        rt.stop_bundle(calc_bundle).unwrap();
        assert_eq!(
            rt.component_state("disp"),
            Some(ComponentState::Unsatisfied)
        );
        rt.start_bundle(calc_bundle).unwrap();
        assert_eq!(rt.component_state("disp"), Some(ComponentState::Active));
    }
    // Exactly one live reservation pair and one SHM segment at the end.
    assert_eq!(rt.drcr().ledger().len(), 2);
    assert_eq!(rt.kernel().shm().len(), 1);
    // The event stream shows 11 activations of disp (1 initial + 10 churns).
    let disp_activations = rt
        .drcr()
        .events_for("disp")
        .filter(|e| {
            matches!(
                e.event,
                DrcrEvent::Transition {
                    to: ComponentState::Active,
                    ..
                }
            )
        })
        .count();
    assert_eq!(disp_activations, 11);
}

#[test]
fn uninstall_behaves_like_stop_for_the_drcr() {
    let mut rt = runtime();
    let calc_bundle = rt.install_component("demo.calc", calc()).unwrap();
    rt.install_component("demo.disp", disp()).unwrap();
    rt.uninstall_bundle(calc_bundle).unwrap();
    assert_eq!(rt.component_state("calc"), None);
    assert_eq!(
        rt.component_state("disp"),
        Some(ComponentState::Unsatisfied)
    );
    // A fresh bundle with the same component name can be installed again.
    rt.install_component("demo.calc2", calc()).unwrap();
    assert_eq!(rt.component_state("disp"), Some(ComponentState::Active));
}
