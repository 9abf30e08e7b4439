//! Integration tests for operating modes: alternate declared contracts
//! switched at run time under full DRCR admission control.

use drt::prelude::*;

fn runtime() -> DrtRuntime {
    DrtRuntime::new(KernelConfig::new(55).with_timer(TimerJitterModel::ideal()))
}

/// A camera with a full-rate and a degraded mode.
fn moded_camera() -> ComponentProvider {
    let d = ComponentDescriptor::builder("cam")
        .periodic(1000, 0, 2)
        .cpu_usage(0.50)
        .mode("degrad", 100, 0.05, 2)
        .mode("burst", 2000, 0.80, 1)
        .build()
        .unwrap();
    ComponentProvider::new(d, || {
        Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
            io.compute(SimDuration::from_micros(100));
        }))
    })
}

fn filler(name: &str, usage: f64) -> ComponentProvider {
    let d = ComponentDescriptor::builder(name)
        .periodic(100, 0, 4)
        .cpu_usage(usage)
        .build()
        .unwrap();
    ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
}

#[test]
fn descriptor_modes_parse_and_roundtrip() {
    let xml = r#"<drt:component name="cam" type="periodic" cpuusage="0.5">
      <implementation bincode="a.B"/>
      <periodictask frequence="1000" priority="2"/>
      <mode name="degrad" frequence="100" cpuusage="0.05" priority="2"/>
      <mode name="burst" frequence="2000" cpuusage="0.8" priority="1"/>
    </drt:component>"#;
    let d = ComponentDescriptor::parse_xml(xml).unwrap();
    assert_eq!(d.modes.len(), 2);
    assert_eq!(d.mode("degrad").unwrap().frequency_hz, 100);
    assert_eq!(d.mode(BASE_MODE).unwrap().frequency_hz, 1000);
    assert!(d.mode("nope").is_none());
    // to_xml keeps the modes.
    let reparsed = ComponentDescriptor::parse_xml(&d.to_xml()).unwrap();
    assert_eq!(reparsed.modes, d.modes);
}

#[test]
fn invalid_modes_are_rejected() {
    for (extra, why) in [
        (
            r#"<mode name="normal" frequence="10" cpuusage="0.1"/>"#,
            "reserved name",
        ),
        (
            r#"<mode name="a" frequence="10" cpuusage="0.1"/>
               <mode name="a" frequence="20" cpuusage="0.2"/>"#,
            "duplicate",
        ),
        (
            r#"<mode name="a" frequence="0" cpuusage="0.1"/>"#,
            "zero frequency",
        ),
        (
            r#"<mode name="a" frequence="10" cpuusage="2.0"/>"#,
            "bad usage",
        ),
    ] {
        let xml = format!(
            r#"<drt:component name="cam" type="periodic" cpuusage="0.5">
              <implementation bincode="a.B"/>
              <periodictask frequence="1000" priority="2"/>
              {extra}
            </drt:component>"#
        );
        assert!(ComponentDescriptor::parse_xml(&xml).is_err(), "{why}");
    }
    // Modes on aperiodic components are rejected.
    let xml = r#"<drt:component name="evt" type="aperiodic" cpuusage="0.1">
      <implementation bincode="a.B"/>
      <mode name="a" frequence="10" cpuusage="0.1"/>
    </drt:component>"#;
    assert!(ComponentDescriptor::parse_xml(xml).is_err());
}

#[test]
fn mode_switch_changes_rate_and_claim() {
    let mut rt = runtime();
    rt.install_component("demo.cam", moded_camera()).unwrap();
    assert_eq!(rt.drcr().current_mode_ref("cam").unwrap(), BASE_MODE);
    assert_eq!(rt.drcr().ledger().reservation("cam"), Some((0, 0.50)));

    rt.advance(SimDuration::from_millis(100));
    let task = rt.drcr().task_of("cam").unwrap();
    let full_rate_cycles = rt.kernel().task_cycles(task).unwrap();
    assert!(full_rate_cycles >= 98, "{full_rate_cycles}");

    // Degrade: 100 Hz, 5% claim.
    rt.switch_mode("cam", "degrad").unwrap();
    assert_eq!(rt.drcr().current_mode_ref("cam").unwrap(), "degrad");
    assert_eq!(rt.component_state("cam"), Some(ComponentState::Active));
    assert_eq!(rt.drcr().ledger().reservation("cam"), Some((0, 0.05)));
    let task = rt.drcr().task_of("cam").unwrap();
    let t0 = rt.kernel().task_cycles(task).unwrap();
    rt.advance(SimDuration::from_millis(500));
    let degraded_cycles = rt.kernel().task_cycles(task).unwrap() - t0;
    assert!((48..=52).contains(&degraded_cycles), "{degraded_cycles}");

    // And back to normal.
    rt.switch_mode("cam", BASE_MODE).unwrap();
    assert_eq!(rt.drcr().current_mode_ref("cam").unwrap(), BASE_MODE);
    assert_eq!(rt.drcr().ledger().reservation("cam"), Some((0, 0.50)));
}

#[test]
fn a_refinement_never_writes_through_the_shared_contract() {
    let mut rt = runtime();
    let bundle = rt.install_component("demo.cam", moded_camera()).unwrap();
    rt.refine_claim("cam", 0.2, 100).unwrap();
    assert_eq!(rt.drcr().ledger().reservation("cam"), Some((0, 0.2)));
    // The base mode is the registered contract, not the refined one.
    rt.switch_mode("cam", "degrad").unwrap();
    rt.switch_mode("cam", BASE_MODE).unwrap();
    assert_eq!(rt.drcr().ledger().reservation("cam"), Some((0, 0.50)));
    let registry = rt.framework().registry();
    let service = registry
        .find_one(drcom::drcr::COMPONENT_SERVICE, None)
        .unwrap();
    let provider = registry.get::<ComponentProvider>(service.id()).unwrap();
    assert_eq!(provider.descriptor().cpu_usage.fraction(), 0.50);
    // A restart registers the component again from the same provider.
    rt.stop_bundle(bundle).unwrap();
    assert_eq!(rt.component_state("cam"), None);
    rt.start_bundle(bundle).unwrap();
    assert_eq!(rt.component_state("cam"), Some(ComponentState::Active));
    assert_eq!(rt.drcr().ledger().reservation("cam"), Some((0, 0.50)));
}

#[test]
fn unaffordable_mode_switch_leaves_component_unsatisfied_not_overcommitted() {
    let mut rt = runtime();
    rt.install_component("demo.cam", moded_camera()).unwrap();
    let filler_bundle = rt
        .install_component("demo.fill", filler("fill", 0.40))
        .unwrap();
    // cam 0.5 + fill 0.4 = 0.9 fits. Burst mode wants 0.8: 0.8 + 0.4 > 1.
    rt.switch_mode("cam", "burst").unwrap();
    assert_eq!(rt.component_state("cam"), Some(ComponentState::Unsatisfied));
    assert!(rt.drcr().admission_verdicts().any(|e| matches!(
        e.event,
        DrcrEvent::AdmissionVerdict {
            internal: true,
            admitted: false,
            ..
        }
    )));
    // The CPU was never overcommitted.
    assert!(rt.drcr().ledger().utilization(0) <= 1.0);
    // Freeing capacity lets the burst mode in automatically.
    rt.stop_bundle(filler_bundle).unwrap();
    assert_eq!(rt.component_state("cam"), Some(ComponentState::Active));
    assert_eq!(rt.drcr().ledger().reservation("cam"), Some((0, 0.80)));
    assert_eq!(rt.drcr().current_mode_ref("cam").unwrap(), "burst");
}

#[test]
fn unknown_modes_error() {
    let mut rt = runtime();
    rt.install_component("demo.cam", moded_camera()).unwrap();
    let err = rt.switch_mode("cam", "warp").unwrap_err();
    assert!(err.to_string().contains("no mode `warp`"));
    assert!(rt.switch_mode("ghost", "degrad").is_err());
}

#[test]
fn mode_switch_from_suspended_resumes_under_the_new_contract() {
    let mut rt = runtime();
    rt.install_component("demo.cam", moded_camera()).unwrap();
    rt.suspend_component("cam").unwrap();
    assert_eq!(rt.component_state("cam"), Some(ComponentState::Suspended));
    rt.switch_mode("cam", "degrad").unwrap();
    // Reconfiguration epoch: the switch re-admits and activates fresh.
    assert_eq!(rt.component_state("cam"), Some(ComponentState::Active));
    assert_eq!(rt.drcr().current_mode_ref("cam").unwrap(), "degrad");
    assert_eq!(rt.drcr().ledger().reservation("cam"), Some((0, 0.05)));
}

#[test]
fn mode_switch_is_idempotent() {
    let mut rt = runtime();
    rt.install_component("demo.cam", moded_camera()).unwrap();
    rt.switch_mode("cam", "degrad").unwrap();
    let seq_before = rt.drcr().lifecycle_seq();
    let events_before = rt.drcr().events().len();
    rt.switch_mode("cam", "degrad").unwrap();
    assert_eq!(rt.drcr().lifecycle_seq(), seq_before);
    assert_eq!(rt.drcr().events().len(), events_before);
}

#[test]
fn consumers_follow_the_mode_switch_gap() {
    // A consumer of the camera's output rides through the switch: it drops
    // to Unsatisfied during the reconfiguration epoch and returns.
    let mut rt = runtime();
    let cam = {
        let d = ComponentDescriptor::builder("cam")
            .periodic(1000, 0, 2)
            .cpu_usage(0.30)
            .outport("frames", PortInterface::Shm, DataType::Byte, 4)
            .mode("degrad", 100, 0.05, 2)
            .build()
            .unwrap();
        ComponentProvider::new(d, || {
            Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                let _ = io.write("frames", &[0, 1, 2, 3]);
            }))
        })
    };
    let viewer = {
        let d = ComponentDescriptor::builder("view")
            .periodic(10, 0, 5)
            .cpu_usage(0.02)
            .inport("frames", PortInterface::Shm, DataType::Byte, 4)
            .build()
            .unwrap();
        ComponentProvider::new(d, || {
            Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                let _ = io.read("frames");
            }))
        })
    };
    rt.install_component("demo.cam", cam).unwrap();
    rt.install_component("demo.view", viewer).unwrap();
    assert_eq!(rt.component_state("view"), Some(ComponentState::Active));
    rt.switch_mode("cam", "degrad").unwrap();
    // After the single process() pass both are back.
    assert_eq!(rt.component_state("cam"), Some(ComponentState::Active));
    assert_eq!(rt.component_state("view"), Some(ComponentState::Active));
    // The viewer's provider is still the camera.
    assert_eq!(
        rt.drcr().providers_of("view").unwrap(),
        &[("frames".to_string(), "cam".to_string())]
    );
}
