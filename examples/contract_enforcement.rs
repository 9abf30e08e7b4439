//! Contract enforcement and adaptation: what happens when a component
//! *lies* about its CPU claim, and how the system defends itself.
//!
//! Three lines of defense, layered exactly as DESIGN.md describes:
//! 1. admission control keeps the *declared* budget feasible,
//! 2. kernel execution budgets make the declaration *binding*,
//! 3. the contract monitor delivers a verdict, and the operator (here,
//!    this program) decides what to do with it.
//!
//! Run with: `cargo run --example contract_enforcement`

use drt::prelude::*;

/// Claims 10% of the CPU, actually burns ~60%.
fn liar() -> ComponentProvider {
    let d = ComponentDescriptor::builder("liar")
        .description("claims 10%, burns 60%")
        .periodic(100, 0, 2)
        .cpu_usage(0.10)
        .build()
        .expect("descriptor");
    ComponentProvider::new(d, || {
        Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
            io.compute(SimDuration::from_millis(6));
        }))
    })
}

/// A well-behaved victim at lower priority, claiming and using 20%.
fn victim() -> ComponentProvider {
    let d = ComponentDescriptor::builder("victim")
        .description("honest 20% worker")
        .periodic(100, 0, 5)
        .cpu_usage(0.20)
        .build()
        .expect("descriptor");
    ComponentProvider::new(d, || {
        Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
            io.compute(SimDuration::from_millis(2));
        }))
    })
}

fn victim_latency(rt: &DrtRuntime) -> f64 {
    let task = rt.drcr().task_of("victim").expect("victim task");
    rt.kernel().task_stats(task).expect("stats").average()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== scenario 1: no enforcement — the liar starves its neighbour ===");
    let mut rt = DrtRuntime::new(KernelConfig::new(8).with_timer(TimerJitterModel::ideal()));
    rt.install_component("demo.liar", liar())?;
    rt.install_component("demo.victim", victim())?;
    rt.advance(SimDuration::from_secs(2));
    println!(
        "victim average scheduling latency: {:.1} µs (delayed by the liar's stolen cycles)",
        victim_latency(&rt) / 1_000.0
    );

    println!("\n=== scenario 2: kernel budgets — the claim becomes binding ===");
    let mut rt = DrtRuntime::new(KernelConfig::new(8).with_timer(TimerJitterModel::ideal()));
    rt.drcr_mut().set_budget_enforcement(true);
    rt.install_component("demo.liar", liar())?;
    rt.install_component("demo.victim", victim())?;
    rt.advance(SimDuration::from_secs(2));
    let liar_task = rt.drcr().task_of("liar").expect("liar task");
    let victim_task = rt.drcr().task_of("victim").expect("victim task");
    println!(
        "victim average scheduling latency: {:.1} µs (liar clamped to its 10%)",
        victim_latency(&rt) / 1_000.0
    );
    println!(
        "liar budget overruns counted by the kernel: {}",
        rt.kernel().task_budget_overruns(liar_task).unwrap()
    );
    // The budget is the claim plus the container overhead admission
    // charges, so the victim, burning exactly its claim, is never clamped.
    println!(
        "victim budget overruns counted by the kernel: {}",
        rt.kernel().task_budget_overruns(victim_task).unwrap()
    );

    println!("\n=== scenario 3: monitor + policy — the liar is suspended ===");
    let mut rt = DrtRuntime::new(KernelConfig::new(8).with_timer(TimerJitterModel::ideal()));
    rt.install_component("demo.liar", liar())?;
    rt.install_component("demo.victim", victim())?;
    // The point verdict: convict on the first polled window whose mean
    // per-cycle cost, net of the container overhead admission charges
    // outside the claim, exceeds the claim; record only, no quarantine.
    // The victim burns exactly its claim and is not convicted.
    let mut monitor = StochasticMonitor::new(LearningConfig::point(false));
    monitor.poll(&mut rt)?; // baseline
    rt.advance(SimDuration::from_millis(500));
    for outcome in monitor.poll(&mut rt)? {
        if let ContractOutcome::Violation {
            component,
            claimed,
            samples,
            ..
        } = outcome
        {
            println!(
                "detected: `{component}` over its {claimed:.3} claim in every one of {samples} cycles; suspending it"
            );
            rt.suspend_component(&component)?;
        }
    }
    println!(
        "liar state: {:?}; victim state: {:?}",
        rt.component_state("liar").unwrap(),
        rt.component_state("victim").unwrap()
    );

    println!("\nDRCR transitions (scenario 3):");
    for e in rt.drcr().events().iter() {
        if let DrcrEvent::Transition { .. } = e.event {
            println!("  {}", e.event);
        }
    }
    Ok(())
}
