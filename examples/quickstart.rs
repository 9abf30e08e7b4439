//! Quickstart: deploy one declarative real-time component and watch the
//! DRCR manage it.
//!
//! Run with: `cargo run --example quickstart`

use drt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Boot the split container: an RTAI-like kernel underneath, an
    // OSGi-like framework on top, the DRCR in between.
    let mut rt = DrtRuntime::new(KernelConfig::new(42));

    // Declare the component's real-time contract. The XML form of this
    // descriptor is what a bundle would ship; the builder is the
    // Rust-native equivalent.
    let descriptor = ComponentDescriptor::builder("blink")
        .description("a 10 Hz periodic worker")
        .periodic(10, 0, 2) // 10 Hz, CPU 0, priority 2
        .cpu_usage(0.05) // claims 5% of the CPU
        .build()?;

    // Pair the contract with the real-time logic and deploy it as a bundle.
    rt.install_component(
        "demo.blink",
        ComponentProvider::new(descriptor, || {
            Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                io.compute(SimDuration::from_micros(500));
                if io.cycle().is_multiple_of(10) {
                    io.log(format!("blink #{}", io.cycle()));
                }
            }))
        }),
    )?;

    // The DRCR resolved the (trivial) constraints and activated it.
    println!("state after deployment: {:?}", rt.component_state("blink"));
    assert_eq!(rt.component_state("blink"), Some(ComponentState::Active));

    // Run one second of virtual time.
    rt.advance(SimDuration::from_secs(1));
    let task = rt.drcr().task_of("blink").expect("active component");
    println!(
        "cycles completed: {}",
        rt.kernel().task_cycles(task).unwrap()
    );

    // Use the management service like an external adaptation manager would.
    let mgmt = rt.management("blink").expect("management service");
    mgmt.suspend()?;
    rt.process();
    println!("state after suspend:    {:?}", rt.component_state("blink"));
    rt.advance(SimDuration::from_secs(1));
    mgmt.resume()?;
    rt.process();
    println!("state after resume:     {:?}", rt.component_state("blink"));

    // The DRCR logged everything it did; its lifecycle transitions are
    // typed events in the same stream as its decisions.
    println!("\nDRCR transitions:");
    for e in rt.drcr().events().iter() {
        if let DrcrEvent::Transition { .. } = e.event {
            println!("  {}", e.event);
        }
    }
    Ok(())
}
