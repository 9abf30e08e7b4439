//! Golden kernel trace: the full [`KernelEvent`] stream of a mixed
//! scenario, with virtual times, pinned by hash.
//!
//! The scenario exercises every source of simultaneous events the event
//! engine has to order: two CPUs in light and stress load, equal-priority
//! round robin, preemption, a `continuous` Linux-domain task, a
//! mailbox-woken aperiodic task, a budget clamp, suspending, resuming and
//! deleting a *running* task, and a panicking body. It runs twice: under
//! the calibrated timer, whose jitter spreads releases apart, and under
//! the ideal timer, where releases of harmonic periods land on the same
//! nanosecond and only the `(time, seq)` order breaks the tie. Any change
//! to the order in which same-instant events are handled, or to the timer
//! samples drawn, changes a rendered trace and so its hash.
//!
//! On a mismatch the test prints the whole rendered trace, one
//! `<time ns> <event>` line per event, so it can be diffed against the
//! trace of the previous kernel.

use rtos::kernel::{Kernel, KernelConfig, TaskCtx};
use rtos::latency::{LoadMode, TimerJitterModel, TimerMode};
use rtos::shm::DataType;
use rtos::task::{FnBody, Priority, TaskConfig, TaskId, TaskState};
use rtos::time::SimDuration;
use rtos::trace::KernelEvent;

/// Hash of the rendered trace under the calibrated timer, and the number
/// of events. Changing either needs a reason the kernel's observable
/// behaviour was meant to change.
const CALIBRATED: (u64, usize) = (0x3c0e_b60b_167c_d4e5, 687);
/// The same under the ideal timer.
const IDEAL: (u64, usize) = (0x708c_1ba4_1df1_68df, 673);

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn periodic(name: &str, prio: u8, period: SimDuration, cpu: u32) -> TaskConfig {
    TaskConfig::periodic(name, Priority(prio), period)
        .expect("valid name")
        .on_cpu(cpu)
}

/// Advances in 10 µs steps until `task` is running, then returns.
fn run_until_running(k: &mut Kernel, task: TaskId) {
    for _ in 0..10_000 {
        if k.task_state(task) == Some(TaskState::Running) {
            return;
        }
        k.run_for(us(10));
    }
    panic!("task {task:?} never ran");
}

fn scenario(timer: TimerJitterModel) -> Kernel {
    let mut k = Kernel::new(
        KernelConfig::new(2024)
            .with_cpus(2)
            .with_timer(timer)
            .with_trace(1 << 20),
    );
    k.shm_mut().alloc("state", DataType::Integer, 1).unwrap();
    k.mailboxes_mut().create("inbox", 8).unwrap();
    k.fifos_mut().create("stream", 64).unwrap();
    let mut start = Vec::new();

    // CPU 0: a fast top-priority writer, a faulting task, a producer and
    // an equal-priority round-robin pair.
    let fast = k
        .create_task(
            periodic("fast", 1, SimDuration::from_millis(1), 0).with_latency_tracking(),
            Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                ctx.compute_about(us(80));
                let v = (ctx.cycle() as i32).to_le_bytes();
                ctx.shm_write("state", &v).unwrap();
            })),
        )
        .unwrap();
    start.push(fast);
    let bad = k
        .create_task(
            periodic("bad", 2, SimDuration::from_millis(3), 0),
            Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                ctx.compute(us(40));
                let v = (-(ctx.cycle() as i32)).to_le_bytes();
                ctx.shm_write("state", &v).unwrap();
                ctx.fifo_put("stream", b"bad").unwrap();
                if ctx.cycle() == 5 {
                    panic!("injected fault");
                }
            })),
        )
        .unwrap();
    start.push(bad);
    let prod = k
        .create_task(
            periodic("prod", 3, SimDuration::from_millis(2), 0),
            Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                ctx.compute_about(us(120));
                let v = (ctx.cycle() as i32).to_le_bytes();
                let _ = ctx.mailbox_send("inbox", &v).unwrap();
                ctx.fifo_put("stream", &v).unwrap();
            })),
        )
        .unwrap();
    start.push(prod);
    let mut pair = Vec::new();
    for name in ["rra", "rrb"] {
        let id = k
            .create_task(
                periodic(name, 4, SimDuration::from_millis(7), 0).with_base_cost(us(2_500)),
                Box::new(FnBody(|ctx: &mut TaskCtx<'_>| ctx.compute_about(us(300)))),
            )
            .unwrap();
        pair.push(id);
        start.push(id);
    }

    // CPU 1: a mailbox-woken sink, a budget-clamped periodic task and a
    // continuous Linux-domain hog.
    let sink = k
        .create_task(
            TaskConfig::aperiodic("sink", Priority(2))
                .unwrap()
                .on_cpu(1)
                .with_latency_tracking(),
            Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
                while let Ok(Some(msg)) = ctx.mailbox_recv("inbox") {
                    ctx.compute(us(msg.len() as u64 * 5));
                }
                let drained = ctx.fifo_get("stream", 16).unwrap();
                ctx.compute(us(drained.len() as u64));
                let _ = ctx.shm_read("state").unwrap();
            })),
        )
        .unwrap();
    start.push(sink);
    let mid = k
        .create_task(
            periodic("mid", 3, SimDuration::from_micros(1_500), 1)
                .with_base_cost(us(300))
                .with_exec_budget(us(350))
                .with_latency_tracking(),
            Box::new(FnBody(|ctx: &mut TaskCtx<'_>| ctx.compute_about(us(100)))),
        )
        .unwrap();
    start.push(mid);
    let hog = k
        .create_task(
            TaskConfig::aperiodic("hog", Priority(0))
                .unwrap()
                .on_cpu(1)
                .in_linux_domain()
                .continuous()
                .with_base_cost(us(400)),
            Box::new(FnBody(|ctx: &mut TaskCtx<'_>| ctx.compute_about(us(100)))),
        )
        .unwrap();
    start.push(hog);

    for id in start {
        k.start_task(id).unwrap();
    }
    k.bind_mailbox_wakeup("inbox", sink).unwrap();
    k.trigger(hog).unwrap();

    k.run_for(SimDuration::from_millis(15));
    k.set_load_mode(LoadMode::Stress);
    k.run_for(SimDuration::from_millis(15));

    // Suspend the top-priority task mid-cycle (nothing can preempt it
    // before the suspension takes effect), resume it later.
    run_until_running(&mut k, fast);
    k.suspend_task(fast).unwrap();
    k.run_for(SimDuration::from_millis(5));
    k.resume_task(fast).unwrap();
    k.run_for(SimDuration::from_millis(10));

    // Delete one of the round-robin pair mid-cycle.
    let rrb = pair[1];
    run_until_running(&mut k, rrb);
    k.delete_task(rrb).unwrap();
    k.set_load_mode(LoadMode::Light);
    k.run_for(SimDuration::from_millis(10));
    k
}

/// One line per event, `<time ns> <event>`, then the aggregate counters.
fn render(k: &Kernel) -> String {
    let mut out = String::new();
    for e in k.trace().iter() {
        out.push_str(&format!("{} {}\n", e.time.as_nanos(), e.event));
    }
    out.push_str(&format!("{:?}\n", k.counters()));
    out
}

/// 64-bit FNV-1a: stable across toolchains, unlike the std hashers.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn count(k: &Kernel, pred: impl Fn(&KernelEvent) -> bool) -> usize {
    k.trace().iter().filter(|e| pred(&e.event)).count()
}

/// Runs the scenario under `timer`, checks that it reaches every path it
/// claims to, and compares its rendered trace with `(hash, events)`.
fn check_golden(timer: TimerJitterModel, (golden_hash, golden_events): (u64, usize)) {
    let k = scenario(timer);
    assert_eq!(k.trace().dropped(), 0, "ring too small for the scenario");

    assert!(count(&k, |e| matches!(e, KernelEvent::Timeslice { .. })) > 0);
    assert!(count(&k, |e| matches!(e, KernelEvent::Preempt { .. })) > 0);
    assert!(count(&k, |e| matches!(e, KernelEvent::MailboxWake { .. })) > 0);
    assert!(count(&k, |e| matches!(e, KernelEvent::BudgetClamp { .. })) > 0);
    assert_eq!(count(&k, |e| matches!(e, KernelEvent::TaskFault { .. })), 1);
    assert_eq!(
        count(&k, |e| matches!(
            e,
            KernelEvent::TaskSuspended { deferred: true, .. }
        )),
        1
    );
    assert_eq!(
        count(&k, |e| matches!(e, KernelEvent::TaskDeleted { .. })),
        1
    );
    assert_eq!(
        count(&k, |e| matches!(e, KernelEvent::LoadModeChanged { .. })),
        2
    );
    let hog = k.task_by_name("hog").unwrap();
    assert!(k.task_cycles(hog).unwrap() > 20, "continuous task starved");

    let text = render(&k);
    let events = k.trace().len();
    let hash = fnv1a(&text);
    if hash != golden_hash || events != golden_events {
        println!("{text}");
        panic!(
            "kernel trace changed: {events} events, hash {hash:#018x} \
             (golden: {golden_events} events, {golden_hash:#018x})"
        );
    }
}

#[test]
fn calibrated_timer_trace_matches_the_golden_hash() {
    check_golden(
        TimerJitterModel::calibrated(TimerMode::Periodic),
        CALIBRATED,
    );
}

#[test]
fn ideal_timer_trace_matches_the_golden_hash() {
    check_golden(TimerJitterModel::ideal(), IDEAL);
}

#[test]
fn mixed_scenario_replays_byte_identically() {
    let timer = TimerJitterModel::calibrated(TimerMode::Periodic);
    assert_eq!(render(&scenario(timer.clone())), render(&scenario(timer)));
}
