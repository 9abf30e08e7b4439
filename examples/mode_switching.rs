//! Operating modes and graceful degradation: a camera with `normal`,
//! `degrad` and `burst` contracts, governed by an adaptation manager that
//! downgrades modes under pressure instead of suspending components.
//!
//! Run with: `cargo run --example mode_switching`

use drcom::adapt::{AdaptationManager, GracefulDegradation};
use drt::prelude::*;

const CAMERA_XML: &str = r#"<drt:component name="cam" desc="moded camera"
    type="periodic" cpuusage="0.55">
  <implementation bincode="demo.ModedCamera"/>
  <periodictask frequence="1000" priority="2"/>
  <mode name="degrad" frequence="100" cpuusage="0.06" priority="2"/>
  <mode name="burst" frequence="2000" cpuusage="0.85" priority="1"/>
  <property name="importance" type="Integer" value="1"/>
</drt:component>"#;

fn camera() -> ComponentProvider {
    ComponentProvider::from_xml(CAMERA_XML, || {
        Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
            io.compute(SimDuration::from_micros(300));
        }))
    })
    .expect("descriptor")
}

fn heavy(name: &str, usage: f64) -> ComponentProvider {
    let d = ComponentDescriptor::builder(name)
        .periodic(100, 0, 3)
        .cpu_usage(usage)
        .property("importance", PropertyValue::Integer(10))
        .build()
        .expect("descriptor");
    ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
}

fn report(rt: &DrtRuntime, step: &str) {
    println!(
        "{step:<46} cam mode={:<7} state={:<11} reserved CPU0={:.2}",
        rt.drcr().current_mode_ref("cam").unwrap_or_default(),
        rt.component_state("cam")
            .map(|s| s.to_string())
            .unwrap_or_default(),
        rt.drcr().ledger().utilization(0),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rt = DrtRuntime::new(KernelConfig::new(19).with_timer(TimerJitterModel::ideal()));
    rt.install_component("demo.cam", camera())?;
    report(&rt, "camera deployed (normal: 1 kHz, 55%)");

    // Manual mode switching through the DRCR — with full re-admission.
    rt.switch_mode("cam", "burst")?;
    report(&rt, "switched to burst (2 kHz, 85%)");
    rt.advance(SimDuration::from_millis(100));

    rt.switch_mode("cam", "normal")?;
    report(&rt, "back to normal");

    // An important heavy component arrives; the adaptation manager's
    // graceful-degradation policy downgrades the camera instead of
    // suspending it.
    let mut mgr =
        AdaptationManager::new().with_policy(Box::new(GracefulDegradation::new(0, 0.3, 0.8)));
    rt.install_component("demo.heavy", heavy("heavy", 0.40))?;
    report(&rt, "40% component arrives (pressure 0.95)");
    for cmd in mgr.run_once(&mut rt)? {
        println!("  adaptation: {cmd}");
    }
    report(&rt, "after adaptation");

    rt.advance(SimDuration::from_secs(1));

    // The heavy component leaves; the manager restores the base mode.
    let heavy_bundle = rt.drcr().bundle_of("heavy").expect("bundle");
    rt.stop_bundle(heavy_bundle)?;
    for cmd in mgr.run_once(&mut rt)? {
        println!("  adaptation: {cmd}");
    }
    report(&rt, "heavy left; after adaptation");

    println!("\nDRCR decision log:");
    for e in rt.drcr().events().iter() {
        println!("  {}", e.event);
    }
    Ok(())
}
