//! Heap accounting of the dispatch path, measured with a counting global
//! allocator.
//!
//! * A steady-state dispatch allocates nothing: neither for a compute-only
//!   [`FnBody`], nor for one that writes SHM segments and puts into a FIFO
//!   by [`ObjName`] (the fault-containment journal included), nor for a
//!   [`HybridRtBody`] whose command mailbox is empty (the container polls
//!   it every cycle).
//! * Latency tracking keeps constant-space statistics, so the live heap
//!   stays flat however long simulated time runs.
//! * Deleted tasks are reaped: creating and deleting 10,000 tasks leaves
//!   the live heap where one round of churn left it.
//! * Metrics updates on an existing key allocate nothing: the name is
//!   copied only when a series is first created.
//! * A steady-state contract-monitor poll allocates the same number of
//!   times whatever the fleet size: it borrows contracts and collects
//!   only shared name handles, in one allocation.
//! * A registered contract is held once: the provider, the executive's
//!   record and its engine share it, so registering a component costs the
//!   same whatever its contract declares, and a switch back to the base
//!   mode shares the registered contract again instead of copying it.
//!
//! The counters are per thread, so tests running in parallel threads of
//! this binary do not see each other's allocations. Everything measured
//! runs on the test's own thread.

use drcom::contracts::{LearningConfig, StochasticMonitor};
use drcom::hybrid::{BridgeMode, FnLogic, HybridRtBody, RtIo};
use drcom::obs::MetricsRegistry;
use drt::prelude::*;
use rtos::kernel::{Kernel, KernelConfig, TaskCtx};
use rtos::task::{FnBody, ObjName, Priority, TaskConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

std::thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note(allocations: u64, bytes: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + allocations));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// A two-CPU kernel with the calibrated timer: jitter, preemption and
/// round-robin all happen, as in a real fleet.
fn kernel() -> Kernel {
    Kernel::new(KernelConfig::new(7).with_cpus(2))
}

/// Heap allocations per dispatch over `span` of steady-state simulation,
/// after a warm-up long enough for every queue to reach its capacity.
fn allocations_per_dispatch(kernel: &mut Kernel, span: SimDuration) -> (u64, u64) {
    kernel.run_for(SimDuration::from_millis(200));
    let dispatches = kernel.counters().dispatches;
    let before = allocations();
    kernel.run_for(span);
    let allocated = allocations() - before;
    (allocated, kernel.counters().dispatches - dispatches)
}

fn periodic(name: &str, hz: u64, prio: u8, cpu: u32) -> TaskConfig {
    TaskConfig::periodic(name, Priority(prio), SimDuration::from_hz(hz))
        .expect("valid name")
        .on_cpu(cpu)
        .with_latency_tracking()
}

#[test]
fn compute_only_dispatch_allocates_nothing() {
    let mut k = kernel();
    for (i, hz) in [1000, 500, 250, 1000, 200, 100].into_iter().enumerate() {
        let cfg = periodic(&format!("fn{i}"), hz, 2 + (i % 3) as u8, (i % 2) as u32);
        let id = k
            .create_task(
                cfg,
                Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                    ctx.compute_about(SimDuration::from_micros(120));
                })),
            )
            .unwrap();
        k.start_task(id).unwrap();
    }
    let (allocated, dispatches) = allocations_per_dispatch(&mut k, SimDuration::from_secs(1));
    assert!(dispatches > 3_000, "only {dispatches} dispatches");
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over {dispatches} dispatches"
    );
}

/// Port writes through `TaskCtx` allocate nothing: the names are
/// validated once, and the undo journal and the prior segment images it
/// keeps live in buffers the kernel reuses. Mailbox sends and every read
/// still allocate, because their APIs hand out owned `Vec`s (a message
/// queued, a buffer returned); that is a separate change to the port API.
#[test]
fn shm_writes_and_fifo_puts_allocate_nothing() {
    let mut k = kernel();
    let fifo = ObjName::new("ff").unwrap();
    k.fifos_mut().create("ff", 4096).unwrap();
    for i in 0..4u32 {
        let seg = ObjName::new(format!("sh{i}")).unwrap();
        k.shm_mut()
            .alloc(seg.as_str(), DataType::Integer, 2)
            .unwrap();
        let cfg = periodic(&format!("w{i}"), 1000, 2 + i as u8, i % 2);
        let id = k
            .create_task(
                cfg,
                Box::new(FnBody(move |ctx: &mut TaskCtx<'_>| {
                    let v = (ctx.cycle() as u32).to_le_bytes();
                    ctx.compute(SimDuration::from_micros(40));
                    ctx.shm_write(seg, &[0; 8]).unwrap();
                    let [a, b, c, d] = v;
                    ctx.shm_write(seg, &[a, b, c, d, a, b, c, d]).unwrap();
                    assert_eq!(ctx.fifo_put(fifo, &v).unwrap(), 4);
                })),
            )
            .unwrap();
        k.start_task(id).unwrap();
    }
    // Drain the FIFO between 100 ms chunks, outside the measured spans,
    // so every put lands; the warm-up grows its ring to full size.
    let chunk = |k: &mut Kernel| {
        let before = allocations();
        k.run_for(SimDuration::from_millis(100));
        let allocated = allocations() - before;
        k.fifos_mut().get("ff", usize::MAX).unwrap();
        allocated
    };
    for _ in 0..3 {
        chunk(&mut k);
    }
    let dispatches = k.counters().dispatches;
    let allocated: u64 = (0..10).map(|_| chunk(&mut k)).sum();
    let dispatches = k.counters().dispatches - dispatches;
    assert!(dispatches > 3_000, "only {dispatches} dispatches");
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over {dispatches} dispatches"
    );
    let written = k.fifos().lookup("ff").unwrap().written_bytes();
    assert!(written >= 4 * dispatches, "{written} bytes put");
}

#[test]
fn hybrid_container_with_an_empty_command_mailbox_allocates_nothing() {
    let mut k = kernel();
    for i in 0..4u32 {
        let (cmd, reply) = (format!("c{i}"), format!("r{i}"));
        k.mailboxes_mut().create(&cmd, 16).unwrap();
        k.mailboxes_mut().create(&reply, 16).unwrap();
        let body = HybridRtBody::new(
            Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                io.compute(SimDuration::from_micros(80));
            })),
            Vec::new(),
            vec![("gain".into(), PropertyValue::Integer(1))],
            Some(ObjName::new(cmd).unwrap()),
            Some(ObjName::new(reply).unwrap()),
            BridgeMode::AsyncPoll,
        );
        let id = k
            .create_task(
                periodic(&format!("hrc{i}"), 1000, 2 + i as u8, i % 2),
                Box::new(body),
            )
            .unwrap();
        k.start_task(id).unwrap();
    }
    let (allocated, dispatches) = allocations_per_dispatch(&mut k, SimDuration::from_secs(1));
    assert!(dispatches > 3_000, "only {dispatches} dispatches");
    assert_eq!(
        allocated, 0,
        "{allocated} allocations over {dispatches} dispatches"
    );
}

/// The declarative path: a DRCR-managed fleet (latency tracking on for
/// every component) keeps a flat live heap while simulated time runs on.
#[test]
fn live_heap_stays_flat_as_simulated_time_grows() {
    let mut rt = DrtRuntime::new(KernelConfig::new(11).with_cpus(2));
    for i in 0..6u32 {
        let descriptor = ComponentDescriptor::builder(&format!("m{i}"))
            .periodic(1000 / (i + 1), i % 2, 2 + i as u8)
            .cpu_usage(0.05)
            .build()
            .expect("descriptor");
        rt.install_component(
            &format!("demo.m{i}"),
            ComponentProvider::new(descriptor, || {
                Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                    io.compute(SimDuration::from_micros(30));
                }))
            }),
        )
        .expect("install");
    }
    let span = SimDuration::from_millis(500);
    rt.advance(span);
    let warm = live_bytes();
    rt.advance(span);
    let after_1x = live_bytes();
    for _ in 0..4 {
        rt.advance(span);
    }
    let after_4x = live_bytes();
    let cycles = rt.kernel().counters().dispatches;
    assert!(cycles > 5_000, "only {cycles} dispatches");
    assert_eq!(after_1x, warm, "live heap grew over one span");
    assert_eq!(after_4x, warm, "live heap grew over four more spans");
}

#[test]
fn deleted_tasks_are_reaped() {
    let mut k = kernel();
    // One round: create 100 tracked tasks, run them, delete them all, and
    // let their in-flight events drain.
    let round = |k: &mut Kernel| {
        let ids: Vec<_> = (0..100)
            .map(|i| {
                let id = k
                    .create_task(
                        periodic(&format!("t{i}"), 1000, 2 + (i % 5) as u8, (i % 2) as u32),
                        Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                            ctx.compute(SimDuration::from_micros(5));
                        })),
                    )
                    .unwrap();
                k.start_task(id).unwrap();
                id
            })
            .collect();
        k.run_for(SimDuration::from_millis(5));
        for id in ids {
            k.delete_task(id).unwrap();
        }
        k.run_for(SimDuration::from_millis(5));
    };
    round(&mut k);
    let baseline = live_bytes();
    for _ in 1..100 {
        round(&mut k);
    }
    let growth = live_bytes() - baseline;
    assert!(k.counters().dispatches >= 10_000 * 4);
    assert!(
        growth.abs() <= 1_024,
        "live heap moved {growth} bytes over 9,900 created-and-deleted tasks"
    );
}

#[test]
fn metrics_updates_on_existing_keys_allocate_nothing() {
    let mut metrics = MetricsRegistry::new();
    metrics.count("drcr.wiring.evals", 1);
    metrics.gauge("drcr.admission.util", 0.5);
    metrics.observe("drcr.admission.wcrt_ns", 1_000_000);
    let before = allocations();
    for i in 0..1_000u64 {
        metrics.count("drcr.wiring.evals", 1);
        metrics.gauge("drcr.admission.util", i as f64);
        // At or below the largest value recorded: no bucket to grow.
        metrics.observe("drcr.admission.wcrt_ns", i * 1_000);
    }
    assert_eq!(allocations() - before, 0);
    assert_eq!(metrics.counter("drcr.wiring.evals"), 1_001);
    assert_eq!(
        metrics
            .histogram("drcr.admission.wcrt_ns")
            .map(|h| h.count()),
        Some(1_001)
    );
}

/// Allocations of one steady-state monitor poll over a fleet of `n`
/// honest periodic components (each burns half its claim; refinement is
/// off, so no poll acts).
fn monitor_poll_allocations(n: usize) -> u64 {
    let mut rt = DrtRuntime::new(KernelConfig::new(11).with_timer(TimerJitterModel::ideal()));
    for i in 0..n {
        let d = ComponentDescriptor::builder(&format!("c{i}"))
            .periodic(100, 0, 2)
            .cpu_usage(0.01)
            .build()
            .unwrap();
        rt.install_component(
            &format!("b.c{i}"),
            ComponentProvider::new(d, || {
                Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                    io.compute(SimDuration::from_micros(50));
                }))
            }),
        )
        .unwrap();
    }
    let mut monitor = StochasticMonitor::new(LearningConfig {
        refine_ratio: 0.0,
        ..LearningConfig::default()
    });
    // Warm-up: baselines, then estimators and histogram buckets.
    for _ in 0..3 {
        rt.advance(SimDuration::from_millis(50));
        assert!(monitor.poll(&mut rt).unwrap().is_empty());
    }
    rt.advance(SimDuration::from_millis(50));
    let before = allocations();
    let outcomes = monitor.poll(&mut rt).unwrap();
    let allocated = allocations() - before;
    assert!(outcomes.is_empty());
    assert!(monitor.estimator(&format!("c{}", n - 1)).unwrap().samples() >= 10);
    allocated
}

#[test]
fn monitor_poll_allocations_do_not_grow_with_the_fleet() {
    let small = monitor_poll_allocations(8);
    let large = monitor_poll_allocations(64);
    assert_eq!(
        small, large,
        "8 components: {small}, 64 components: {large}"
    );
}

/// A disabled periodic component declaring `properties` properties and
/// `modes` operating modes.
fn declaring(properties: usize, modes: usize) -> ComponentProvider {
    let mut builder = ComponentDescriptor::builder("cam")
        .periodic(100, 0, 2)
        .cpu_usage(0.1)
        .enabled(false);
    for i in 0..properties {
        builder = builder.property(&format!("prop{i:02}"), PropertyValue::Integer(i as i64));
    }
    for i in 0..modes {
        builder = builder.mode(&format!("mode{i}"), 10, 0.05, 2);
    }
    ComponentProvider::new(builder.build().unwrap(), || {
        Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
    })
}

fn runtime() -> DrtRuntime {
    DrtRuntime::new(KernelConfig::new(3).with_timer(TimerJitterModel::ideal()))
}

/// The allocations `step` makes and how far it moves the live heap.
fn cost(step: impl FnOnce()) -> (u64, i64) {
    let (allocated, live) = (allocations(), live_bytes());
    step();
    (allocations() - allocated, live_bytes() - live)
}

#[test]
fn registering_a_contract_costs_the_same_whatever_it_declares() {
    let costs: Vec<(u64, i64)> = [(0, 0), (8, 4), (32, 8)]
        .into_iter()
        .map(|(properties, modes)| {
            let mut rt = runtime();
            let provider = declaring(properties, modes);
            let cost = cost(|| {
                rt.install_component("b.cam", provider).unwrap();
                rt.process();
            });
            assert_eq!(rt.component_state("cam"), Some(ComponentState::Disabled));
            cost
        })
        .collect();
    assert_eq!(costs[0], costs[1], "0/0 vs 8/4 properties/modes");
    assert_eq!(costs[0], costs[2], "0/0 vs 32/8 properties/modes");
}

#[test]
fn switching_back_to_the_base_mode_copies_no_contract() {
    let allocated: Vec<u64> = [(8, 4), (32, 8)]
        .into_iter()
        .map(|(properties, modes)| {
            let mut rt = runtime();
            rt.install_component("b.cam", declaring(properties, modes))
                .unwrap();
            rt.switch_mode("cam", "mode0").unwrap();
            let (allocated, _) = cost(|| rt.switch_mode("cam", BASE_MODE).unwrap());
            assert_eq!(rt.drcr().current_mode_ref("cam"), Some(BASE_MODE));
            allocated
        })
        .collect();
    assert_eq!(allocated[0], allocated[1], "8/4 vs 32/8 properties/modes");
}
