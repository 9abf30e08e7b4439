//! Quality-metric ablations (the companion to `cargo bench -p bench
//! --bench ablation`, which measures wall-clock cost):
//!
//! * **A — admission policy**: deploy an overload burst under each policy
//!   and report how many components were admitted and how many deadline
//!   overruns the admitted set then suffered. No admission control admits
//!   everything and melts down; the bounds admit fewer and stay clean.
//! * **B — bridge discipline**: run the Table 1 workload with management
//!   traffic flowing, under the async poll (§3.2) vs the rejected
//!   synchronous design, and report latency and overruns.
//!
//! Usage: `cargo run --release -p bench --bin ablation`

use drcom::drcr::ComponentProvider;
use drcom::hybrid::BridgeMode;
use drcom::prelude::*;
use drcom::resolve::{
    AlwaysAdmit, EdfResolver, ResolvingService, RmBoundResolver, UtilizationResolver,
};
use rtos::kernel::KernelConfig;
use rtos::latency::TimerJitterModel;
use rtos::time::SimDuration;

fn admission_ablation() {
    println!("== Ablation A: admission policy under an overload burst ==");
    println!(
        "16 components, each periodic 100 Hz claiming 12% CPU; real demand matches the claim."
    );
    println!(
        "{:<14} {:>9} {:>10} {:>10} {:>12}",
        "policy", "admitted", "overruns", "misses", "cpu-reserved"
    );
    type ResolverFactory = Box<dyn Fn() -> Box<dyn ResolvingService>>;
    let policies: Vec<(&str, ResolverFactory)> = vec![
        ("none", Box::new(|| Box::new(AlwaysAdmit))),
        (
            "utilization",
            Box::new(|| Box::new(UtilizationResolver::default())),
        ),
        ("rm-bound", Box::new(|| Box::new(RmBoundResolver))),
        ("edf", Box::new(|| Box::new(EdfResolver))),
    ];
    for (label, make) in policies {
        let mut rt = DrtRuntime::with_resolver(
            KernelConfig::new(5).with_timer(TimerJitterModel::ideal()),
            make(),
        );
        for i in 0..16 {
            let name = format!("b{i:03}");
            let descriptor = ComponentDescriptor::builder(&name)
                .periodic(100, 0, 2)
                .cpu_usage(0.12)
                .build()
                .expect("descriptor");
            rt.install_component(
                &format!("bundle.{name}"),
                ComponentProvider::new(descriptor, || {
                    Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                        // Real demand = the claimed 12% of a 10 ms period.
                        io.compute(SimDuration::from_micros(1_200));
                    }))
                }),
            )
            .expect("install");
        }
        rt.advance(SimDuration::from_secs(2));
        let names = rt.drcr().component_names();
        let admitted = names
            .iter()
            .filter(|n| rt.component_state(n) == Some(ComponentState::Active))
            .count();
        let overruns: u64 = names
            .iter()
            .filter_map(|n| rt.drcr().task_of(n))
            .filter_map(|t| rt.kernel().task_overruns(t))
            .sum();
        let misses: u64 = names
            .iter()
            .filter_map(|n| rt.drcr().task_of(n))
            .filter_map(|t| rt.kernel().task_deadline_misses(t))
            .sum();
        let reserved: f64 = rt.drcr().ledger().iter().map(|(_, _, u)| u).sum();
        println!("{label:<14} {admitted:>9} {overruns:>10} {misses:>10} {reserved:>11.2}");
    }
    println!();
}

fn bridge_ablation() {
    println!("== Ablation B: intra-component bridge discipline (§3.2) ==");
    println!("1 kHz component with steady management traffic (a status query every 10 ms),");
    println!("plus a lower-priority 1 kHz victim component on the same CPU whose scheduling");
    println!("latency absorbs whatever CPU time the bridge burns.");
    println!(
        "{:<28} {:>14} {:>12} {:>10}",
        "bridge", "victim-lat(ns)", "avedev(ns)", "overruns"
    );
    for (label, bridge) in [
        ("async-poll (paper)", BridgeMode::AsyncPoll),
        (
            "sync-blocking 200us",
            BridgeMode::SyncBlocking(SimDuration::from_micros(200)),
        ),
        (
            "sync-blocking 900us",
            BridgeMode::SyncBlocking(SimDuration::from_micros(900)),
        ),
    ] {
        let mut rt = DrtRuntime::new(
            KernelConfig::new(17)
                .with_timer(TimerJitterModel::ideal())
                .with_latency_samples(),
        );
        rt.drcr_mut().set_bridge_mode(bridge);
        let descriptor = ComponentDescriptor::builder("calc")
            .periodic(1000, 0, 2)
            .cpu_usage(0.15)
            .build()
            .expect("descriptor");
        rt.install_component(
            "demo.calc",
            ComponentProvider::new(descriptor, || {
                Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                    io.compute(SimDuration::from_micros(100));
                }))
            }),
        )
        .expect("install");
        let victim = ComponentDescriptor::builder("audit")
            .periodic(1000, 0, 6)
            .cpu_usage(0.05)
            .build()
            .expect("descriptor");
        rt.install_component(
            "demo.audit",
            ComponentProvider::new(victim, || {
                Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                    io.compute(SimDuration::from_micros(30));
                }))
            }),
        )
        .expect("install");
        let mgmt = rt.management("calc").expect("management");
        // Drive management traffic while the tasks run: one status request
        // every 10 ms of virtual time.
        for _ in 0..200 {
            let _ = mgmt.request_status();
            rt.advance(SimDuration::from_millis(10));
        }
        let calc_task = rt.drcr().task_of("calc").expect("task");
        let victim_task = rt.drcr().task_of("audit").expect("task");
        let kernel = rt.kernel();
        let stats = kernel.task_stats(victim_task).expect("stats");
        println!(
            "{label:<28} {:>14.1} {:>12.1} {:>10}",
            stats.average(),
            stats.avedev().expect("the kernel retains samples"),
            kernel.task_overruns(calc_task).unwrap_or(0),
        );
    }
    println!();
    println!("The async poll keeps the RT path independent of management traffic;");
    println!("the synchronous design burns the timeout every quiet cycle, and at");
    println!("900 us it overruns its own 1 ms period — exactly the failure mode");
    println!("the paper's design rules out.");
}

fn timer_mode_ablation() {
    use bench::{run_table1_config, table1_avedev, ImplKind, Table1Config};
    use rtos::latency::{LoadMode, TimerMode};
    println!();
    println!("== Ablation C: hardware timer programming mode ==");
    println!("The paper runs the periodic timer and attributes the negative averages to");
    println!("its calibration drift; oneshot mode trades the drift for a per-shot");
    println!("programming cost (positive mean, no early dispatch).");
    println!(
        "{:<22} {:>12} {:>12} {:>10} {:>10}",
        "mode", "AVERAGE", "AVEDEV", "MIN", "MAX"
    );
    for (label, timer_mode, load) in [
        ("periodic (light)", TimerMode::Periodic, LoadMode::Light),
        ("oneshot  (light)", TimerMode::Oneshot, LoadMode::Light),
        ("periodic (stress)", TimerMode::Periodic, LoadMode::Stress),
        ("oneshot  (stress)", TimerMode::Oneshot, LoadMode::Stress),
    ] {
        let cfg = Table1Config {
            cycles: 10_000,
            timer_mode,
            ..Table1Config::paper(ImplKind::Hrc, load, 42)
        };
        let stats = run_table1_config(&cfg);
        println!(
            "{label:<22} {:>12.2} {:>12.2} {:>10} {:>10}",
            stats.average(),
            table1_avedev(&stats),
            stats.min().unwrap_or(0),
            stats.max().unwrap_or(0),
        );
    }
}

fn main() {
    admission_ablation();
    bridge_ablation();
    timer_mode_ablation();
}
