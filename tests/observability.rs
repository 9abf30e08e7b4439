//! Observability-layer guarantees: metrics snapshots are deterministic
//! (byte-identical across same-seed runs) and tracing is free of observer
//! effects (attaching rings and subscribers never perturbs scheduling).

use std::cell::Cell;
use std::rc::Rc;

use drt::prelude::*;
use rtos::time::SimTime;
use rtos::trace::TraceSubscriber;

/// Builds and exercises a full scenario: a producer/consumer pair, a moded
/// camera, an admission rejection, management traffic, and a mode switch.
fn run_scenario(seed: u64, trace_capacity: usize) -> DrtRuntime {
    replay_scenario(DrtRuntime::new(
        KernelConfig::new(seed)
            .with_timer(TimerJitterModel::calibrated(
                rtos::latency::TimerMode::Periodic,
            ))
            .with_trace(trace_capacity)
            // Retained samples let the fingerprint compare AVEDEV too.
            .with_latency_samples(),
    ))
}

/// A fingerprint of everything scheduling-relevant: component states, task
/// cycle counts, latency statistics, IPC traffic, and virtual time.
fn scheduling_fingerprint(rt: &DrtRuntime) -> String {
    let mut out = String::new();
    for name in rt.drcr().component_names() {
        let state = rt.component_state(&name);
        out.push_str(&format!("{name}: {state:?}\n"));
        if let Some(task) = rt.drcr().task_of(&name) {
            let kernel = rt.kernel();
            let cycles = kernel.task_cycles(task).unwrap_or(0);
            out.push_str(&format!("  cycles={cycles}\n"));
            if let Some(stats) = kernel.task_stats(task) {
                out.push_str(&format!(
                    "  lat: n={} avg={:.6} avedev={:?} min={:?} max={:?}\n",
                    stats.count(),
                    stats.average(),
                    stats.avedev(),
                    stats.min(),
                    stats.max(),
                ));
            }
        }
    }
    let kernel = rt.kernel();
    if let Some(seg) = kernel.shm().get("latdat") {
        out.push_str(&format!(
            "latdat: writes={} reads={}\n",
            seg.write_count(),
            seg.read_count()
        ));
    }
    out.push_str(&format!("now={}\n", kernel.now().as_nanos()));
    out
}

/// Drops the `kernel.trace.*` bookkeeping lines, which legitimately change
/// with the trace configuration itself.
fn without_trace_counters(report_text: &str) -> String {
    report_text
        .lines()
        .filter(|l| !l.contains("kernel.trace."))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn metrics_snapshot_is_byte_identical_across_same_seed_runs() {
    let a = run_scenario(2008, 0);
    let b = run_scenario(2008, 0);
    let ra = a.metrics_report();
    let rb = b.metrics_report();
    assert_eq!(ra.to_text(), rb.to_text());
    assert_eq!(ra.to_json_lines(), rb.to_json_lines());
    // The typed event logs agree too (timestamps and payloads).
    let da = a.drcr();
    let db = b.drcr();
    let ea: Vec<_> = da.events().iter().collect();
    let eb: Vec<_> = db.events().iter().collect();
    assert_eq!(ea, eb);
    // Sanity: the report actually has content from every layer.
    let text = ra.to_text();
    assert!(text.contains("drcr.activations"));
    assert!(text.contains("bridge.commands"));
    assert!(text.contains("drcr.mode_switches"));
    assert!(text.contains("sched.calc.cycles"));
}

#[test]
fn different_seeds_give_different_latencies_but_same_structure() {
    let a = run_scenario(2008, 0);
    let b = run_scenario(4242, 0);
    let ta = a.metrics_report().to_text();
    let tb = b.metrics_report().to_text();
    assert_ne!(ta, tb, "jitter must differ across seeds");
    // Same metric names in the same order, only values differ.
    let names = |t: &str| {
        t.lines()
            .filter_map(|l| l.split('=').next().map(str::to_string))
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&ta), names(&tb));
}

struct CountingTap(Rc<Cell<u64>>);

impl TraceSubscriber<KernelEvent> for CountingTap {
    fn on_event(&mut self, _time: SimTime, _event: &KernelEvent) {
        self.0.set(self.0.get() + 1);
    }
}

struct DrcrTap(Rc<Cell<u64>>);

impl TraceSubscriber<DrcrEvent> for DrcrTap {
    fn on_event(&mut self, _time: SimTime, _event: &DrcrEvent) {
        self.0.set(self.0.get() + 1);
    }
}

/// Property: for any seed, running the identical scenario untraced, with a
/// large kernel trace ring, or with a tiny ring plus live subscribers on
/// both layers produces the exact same scheduling outcome. Observability
/// never feeds back into the system under observation.
#[test]
fn tracing_is_observer_effect_free_across_seeds() {
    for seed in [3, 11, 42, 77, 1234, 99991] {
        let baseline = run_scenario(seed, 0);
        let expected = scheduling_fingerprint(&baseline);
        let expected_metrics = without_trace_counters(&baseline.metrics_report().to_text());

        // Variant 1: a generously sized kernel trace ring.
        let traced = run_scenario(seed, 4096);
        assert_eq!(
            scheduling_fingerprint(&traced),
            expected,
            "seed {seed}: trace ring perturbed scheduling"
        );
        assert_eq!(
            without_trace_counters(&traced.metrics_report().to_text()),
            expected_metrics,
            "seed {seed}: trace ring perturbed metrics"
        );
        assert!(!traced.kernel().trace().is_empty());

        // Variant 2: a tiny ring (constant eviction) plus live taps on the
        // kernel and the DRCR — the most intrusive configuration we offer.
        let kernel_events = Rc::new(Cell::new(0u64));
        let drcr_events = Rc::new(Cell::new(0u64));
        let tapped = DrtRuntime::new(
            KernelConfig::new(seed)
                .with_timer(TimerJitterModel::calibrated(
                    rtos::latency::TimerMode::Periodic,
                ))
                .with_trace(2)
                .with_latency_samples(),
        );
        tapped
            .kernel_mut()
            .add_trace_subscriber(Box::new(CountingTap(kernel_events.clone())));
        tapped
            .drcr_mut()
            .add_event_subscriber(Box::new(DrcrTap(drcr_events.clone())));
        // Replay the exact same scenario steps on the tapped runtime.
        let reference = run_scenario(seed, 0);
        let tapped = replay_scenario(tapped);
        assert_eq!(
            scheduling_fingerprint(&tapped),
            scheduling_fingerprint(&reference),
            "seed {seed}: live taps perturbed scheduling"
        );
        assert!(kernel_events.get() > 0, "kernel tap never fired");
        assert!(drcr_events.get() > 0, "drcr tap never fired");
    }
}

/// The scenario body applied to an already-constructed runtime, so tests
/// can attach subscribers before any activity happens.
fn replay_scenario(mut rt: DrtRuntime) -> DrtRuntime {
    let calc = {
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
    };
    let disp = {
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
    };
    let cam = {
        let d = ComponentDescriptor::builder("cam")
            .periodic(500, 0, 3)
            .cpu_usage(0.40)
            .mode("degrad", 50, 0.05, 3)
            .build()
            .unwrap();
        ComponentProvider::new(d, || {
            Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                io.compute(SimDuration::from_micros(50));
            }))
        })
    };
    let hog = {
        // 0.15 + 0.01 + 0.40 + 0.60 > 1.0: rejected by internal admission.
        let d = ComponentDescriptor::builder("hog")
            .periodic(100, 0, 4)
            .cpu_usage(0.60)
            .build()
            .unwrap();
        ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
    };
    rt.install_component("demo.calc", calc).unwrap();
    rt.install_component("demo.disp", disp).unwrap();
    rt.install_component("demo.cam", cam).unwrap();
    rt.install_component("demo.hog", hog).unwrap();
    rt.advance(SimDuration::from_millis(200));
    let mgmt = rt.management("calc").unwrap();
    mgmt.set_property("gain", PropertyValue::Integer(3))
        .unwrap();
    let token = mgmt.request_status().unwrap();
    rt.advance(SimDuration::from_millis(20));
    let mgmt = rt.management("calc").unwrap();
    assert!(matches!(mgmt.poll_reply(token), Ok(Some(_))));
    rt.switch_mode("cam", "degrad").unwrap();
    rt.advance(SimDuration::from_millis(50));
    rt.suspend_component("disp").unwrap();
    rt.advance(SimDuration::from_millis(20));
    rt.resume_component("disp").unwrap();
    rt.advance(SimDuration::from_millis(50));
    rt
}
