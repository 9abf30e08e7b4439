//! Replays the paper's §4.3 dynamicity scenario and prints the DRCR's
//! typed event log (lifecycle transitions and decisions) — the "figures of
//! the whole process" the paper could not include for page limits.
//!
//! Usage: `cargo run -p bench --bin dynamicity`

use drcom::drcr::ComponentProvider;
use drcom::prelude::*;
use rtos::kernel::KernelConfig;
use rtos::latency::TimerJitterModel;

fn calc_provider() -> ComponentProvider {
    let descriptor = ComponentDescriptor::builder("calc")
        .description("calculation task, 1 kHz")
        .periodic(1000, 0, 2)
        .cpu_usage(0.15)
        .outport("latdat", PortInterface::Shm, DataType::Integer, 1)
        .build()
        .expect("descriptor");
    ComponentProvider::new(descriptor, || {
        Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
            io.compute(SimDuration::from_micros(100));
            let v = (io.cycle() as i32).to_le_bytes();
            io.write("latdat", &v).expect("write");
        }))
    })
}

fn disp_provider() -> ComponentProvider {
    let descriptor = ComponentDescriptor::builder("disp")
        .description("display task, 4 Hz, depends on calc's outport")
        .periodic(4, 0, 5)
        .cpu_usage(0.01)
        .inport("latdat", PortInterface::Shm, DataType::Integer, 1)
        .build()
        .expect("descriptor");
    ComponentProvider::new(descriptor, || {
        Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
            let _ = io.read("latdat").expect("read");
        }))
    })
}

fn show_states(rt: &DrtRuntime, step: &str) {
    let calc = rt
        .component_state("calc")
        .map(|s| s.to_string())
        .unwrap_or_else(|| "(not deployed)".into());
    let disp = rt
        .component_state("disp")
        .map(|s| s.to_string())
        .unwrap_or_else(|| "(not deployed)".into());
    println!("{step:<55} calc={calc:<13} disp={disp}");
}

fn main() {
    let mut rt = DrtRuntime::new(KernelConfig::new(42).with_timer(TimerJitterModel::ideal()));
    println!("=== §4.3 dynamicity scenario ===\n");

    show_states(&rt, "boot");

    // 1. Display arrives first: functional constraint unsatisfied.
    rt.install_component("demo.disp", disp_provider())
        .expect("install disp");
    show_states(&rt, "install Display (needs Calculation's outport)");

    // 2. Calculation arrives: both resolve; DRCR activates Display too.
    let calc_bundle = rt
        .install_component("demo.calc", calc_provider())
        .expect("install calc");
    show_states(&rt, "install Calculation");

    rt.advance(SimDuration::from_millis(500));
    let calc_task = rt.drcr().task_of("calc").expect("task");
    println!(
        "{:<55} calc ran {} cycles",
        "run 500 ms",
        rt.kernel().task_cycles(calc_task).unwrap()
    );

    // 3. Calculation is stopped: DRCR cascades Display to Unsatisfied.
    rt.stop_bundle(calc_bundle).expect("stop calc");
    show_states(&rt, "stop Calculation bundle");

    // 4. Calculation returns: Display re-activates automatically.
    rt.start_bundle(calc_bundle).expect("restart calc");
    show_states(&rt, "restart Calculation bundle");

    rt.advance(SimDuration::from_millis(200));

    println!("\n=== DRCR event log ===");
    for e in rt.drcr().events().iter() {
        println!("  [{:>12} ns] {}", e.time.as_nanos(), e.event);
    }

    println!("\n=== metrics (text) ===");
    let report = rt.metrics_report();
    print!("{}", report.to_text());

    println!("\n=== metrics (json-lines) ===");
    print!("{}", report.to_json_lines());
}
