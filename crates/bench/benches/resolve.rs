//! DRCR resolve-loop scalability: cost of deployment (constraint
//! resolution + activation) and departure (cascade) as the number of
//! deployed components grows.

use bench::microbench::Runner;
use drcom::drcr::ComponentProvider;
use drcom::prelude::*;
use drcom::resolve::AlwaysAdmit;
use rtos::kernel::KernelConfig;
use rtos::latency::TimerJitterModel;
use std::hint::black_box;

/// Builds a runtime with a chain of `n` components, each consuming the
/// previous one's outport (the worst case for cascades).
fn chain_runtime(n: usize) -> DrtRuntime {
    let mut rt = DrtRuntime::with_resolver(
        KernelConfig::new(1).with_timer(TimerJitterModel::ideal()),
        Box::new(AlwaysAdmit),
    );
    for i in 0..n {
        let name = format!("c{i:03}");
        let mut builder = ComponentDescriptor::builder(&name)
            .periodic(100, 0, 2)
            .cpu_usage(0.001)
            .outport(&format!("d{i:03}"), PortInterface::Shm, DataType::Byte, 1);
        if i > 0 {
            builder = builder.inport(
                &format!("d{:03}", i - 1),
                PortInterface::Shm,
                DataType::Byte,
                1,
            );
        }
        let descriptor = builder.build().expect("descriptor");
        rt.install_component(
            &format!("bundle.{name}"),
            ComponentProvider::new(descriptor, || {
                Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
            }),
        )
        .expect("install");
    }
    rt
}

fn bench_deploy_chain() {
    let runner = Runner::new("resolve/deploy-chain").iterations(10);
    for n in [4usize, 16, 64] {
        runner.bench(&n.to_string(), || {
            let rt = chain_runtime(black_box(n));
            black_box(rt.component_state(&format!("c{:03}", n - 1)))
        });
    }
}

fn bench_departure_cascade() {
    let runner = Runner::new("resolve/cascade").iterations(10);
    for n in [4usize, 16, 64] {
        runner.bench(&n.to_string(), || {
            // Setup is included (no per-iteration setup hook): build the
            // chain, then measure its teardown.
            let mut rt = chain_runtime(n);
            // Stopping the root cascades the whole chain.
            let bundle = {
                let drcr = rt.drcr();
                drcr.bundle_of("c000").expect("bundle")
            };
            rt.stop_bundle(bundle).expect("stop");
            black_box(rt.component_state(&format!("c{:03}", n - 1)))
        });
    }
}

fn bench_independent_deploy() {
    // Independent (unwired) components: resolution without dependencies.
    let runner = Runner::new("resolve/deploy-independent").iterations(10);
    for n in [4usize, 16, 64] {
        runner.bench(&n.to_string(), || {
            let mut rt = DrtRuntime::with_resolver(
                KernelConfig::new(1).with_timer(TimerJitterModel::ideal()),
                Box::new(AlwaysAdmit),
            );
            for i in 0..black_box(n) {
                let name = format!("i{i:03}");
                let descriptor = ComponentDescriptor::builder(&name)
                    .periodic(100, 0, 2)
                    .cpu_usage(0.001)
                    .build()
                    .expect("descriptor");
                rt.install_component(
                    &format!("bundle.{name}"),
                    ComponentProvider::new(descriptor, || {
                        Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
                    }),
                )
                .expect("install");
            }
            let count = rt.drcr().component_names().len();
            black_box(count)
        });
    }
}

fn bench_mode_switch() {
    // Reconfiguration cost: a mode switch is deactivate + contract rewrite
    // + re-admission + reactivate, at varying registry population.
    let runner = Runner::new("resolve/mode-switch").iterations(10);
    for n in [1usize, 16, 64] {
        runner.bench(&n.to_string(), || {
            let mut rt = DrtRuntime::with_resolver(
                KernelConfig::new(2).with_timer(TimerJitterModel::ideal()),
                Box::new(AlwaysAdmit),
            );
            for i in 0..n {
                let name = format!("f{i:03}");
                let d = ComponentDescriptor::builder(&name)
                    .periodic(100, 0, 4)
                    .cpu_usage(0.001)
                    .build()
                    .expect("descriptor");
                rt.install_component(
                    &format!("bundle.{name}"),
                    ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))),
                )
                .expect("install");
            }
            let d = ComponentDescriptor::builder("moded")
                .periodic(1000, 0, 2)
                .cpu_usage(0.3)
                .mode("cheap", 10, 0.01, 2)
                .build()
                .expect("descriptor");
            rt.install_component(
                "bundle.moded",
                ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))),
            )
            .expect("install");
            rt.switch_mode("moded", "cheap").expect("switch");
            rt.switch_mode("moded", drcom::BASE_MODE)
                .expect("switch back");
            let mode = rt.drcr().current_mode_ref("moded").map(str::len);
            black_box(mode)
        });
    }
}

fn main() {
    bench_deploy_chain();
    bench_departure_cascade();
    bench_independent_deploy();
    bench_mode_switch();
}
