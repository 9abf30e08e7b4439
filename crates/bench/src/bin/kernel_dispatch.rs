//! Bare-kernel dispatch cost: host nanoseconds per dispatch of the
//! simulated kernel alone, with no DRCR or hybrid container above it.
//!
//! The task set mirrors drtbench's `steady_fleet`: four CPUs, each with a
//! 1 kHz producer and fifteen consumers at 25–1000 Hz (64 tasks), every
//! cycle charging 90% of its claim. It runs twice per repetition:
//!
//! * `compute_only`: every body only charges its work;
//! * `ports`: the producers write a shared-memory segment and a FIFO every
//!   cycle and a mailbox every tenth, and the consumers read them, each
//!   port named by a string as a hand-written RTAI task would.
//!
//! A run takes tens of milliseconds of host time, so a busy spell on a
//! shared host can spoil several in a row. Reported per variant: the
//! minimum over the repetitions of host time per dispatch (the least
//! disturbed run), the median, and the dispatch count, which is the same
//! in every run.
//!
//! Usage (25 runs of 2 s simulated per variant):
//!   cargo run --release -p bench --bin kernel_dispatch

use rtos::kernel::{Kernel, KernelConfig, TaskCtx};
use rtos::shm::DataType;
use rtos::task::{FnBody, Priority, TaskConfig};
use rtos::time::SimDuration;
use std::time::Instant;

const CPUS: u32 = 4;
/// Rates of the shared-memory consumers on each CPU.
const CONSUMER_HZ: [u32; 13] = [25, 40, 50, 50, 100, 100, 125, 200, 200, 250, 500, 500, 1000];

#[derive(Clone, Copy, PartialEq)]
enum Role {
    Producer,
    Shm,
    Mailbox,
    Fifo,
}

/// Priority by rate: the faster, the more urgent.
fn rm_priority(hz: u32) -> u8 {
    match hz {
        1000.. => 2,
        500.. => 3,
        250.. => 4,
        200.. => 5,
        125.. => 6,
        100.. => 7,
        50.. => 8,
        40.. => 9,
        _ => 10,
    }
}

fn members() -> Vec<(Role, u32, u32, u8, f64)> {
    let mut out = Vec::new();
    for cpu in 0..CPUS {
        out.push((Role::Producer, cpu, 1000, 1, 0.05));
        for hz in CONSUMER_HZ {
            out.push((Role::Shm, cpu, hz, rm_priority(hz), 0.02));
        }
        out.push((Role::Mailbox, cpu, 100, rm_priority(100), 0.02));
        out.push((Role::Fifo, cpu, 250, rm_priority(250), 0.02));
    }
    out
}

/// One cycle of port traffic, named by strings.
fn traffic(ctx: &mut TaskCtx<'_>, role: Role, names: &[String; 3]) {
    let [shm, mbx, fifo] = names;
    match role {
        Role::Producer => {
            let v = (ctx.cycle() as i32).to_le_bytes();
            ctx.shm_write(shm.as_str(), &v).expect("shm write");
            if ctx.cycle() % 10 == 0 {
                ctx.mailbox_send(mbx.as_str(), &v).expect("mailbox send");
            }
            ctx.fifo_put(fifo.as_str(), &v).expect("fifo put");
        }
        Role::Shm => {
            ctx.shm_read(shm.as_str()).expect("shm read");
        }
        Role::Fifo => {
            ctx.fifo_get(fifo.as_str(), 16).expect("fifo get");
        }
        Role::Mailbox => while ctx.mailbox_recv(mbx.as_str()).expect("recv").is_some() {},
    }
}

/// Builds the task set and runs it for `span`; returns host ns per
/// dispatch and the dispatch count.
fn run(ports: bool, span: SimDuration) -> (f64, u64) {
    let mut k = Kernel::new(KernelConfig::new(1).with_cpus(CPUS));
    for cpu in 0..CPUS {
        k.shm_mut()
            .alloc(&format!("sh{cpu}"), DataType::Integer, 1)
            .expect("shm");
        k.mailboxes_mut()
            .create(&format!("mb{cpu}"), 4)
            .expect("mailbox");
        k.fifos_mut().create(&format!("ff{cpu}"), 64).expect("fifo");
    }
    for (i, (role, cpu, hz, prio, claim)) in members().into_iter().enumerate() {
        let period_ns = 1e9 / f64::from(hz);
        let work = SimDuration::from_nanos((0.9 * claim * period_ns) as u64 - 1_700);
        let names = [format!("sh{cpu}"), format!("mb{cpu}"), format!("ff{cpu}")];
        let cfg = TaskConfig::periodic(
            &format!("t{i}"),
            Priority(prio),
            SimDuration::from_hz(hz.into()),
        )
        .expect("task name")
        .on_cpu(cpu)
        .with_latency_tracking();
        let body = FnBody(move |ctx: &mut TaskCtx<'_>| {
            ctx.compute(work);
            if ports {
                traffic(ctx, role, &names);
            }
        });
        let id = k.create_task(cfg, Box::new(body)).expect("create");
        k.start_task(id).expect("start");
    }
    let t = Instant::now();
    k.run_for(span);
    let secs = t.elapsed().as_secs_f64();
    let dispatches = k.counters().dispatches;
    (secs * 1e9 / dispatches as f64, dispatches)
}

fn main() {
    let (runs, span) = (25, SimDuration::from_secs(2));
    // The variants alternate run by run, so a busy spell on a shared host
    // spreads over both instead of landing on one.
    let variants = [("compute_only", false), ("ports", true)];
    let mut samples = [Vec::new(), Vec::new()];
    let mut dispatches = [0; 2];
    for _ in 0..runs {
        for (v, &(_, ports)) in variants.iter().enumerate() {
            let (per, n) = run(ports, span);
            samples[v].push(per);
            dispatches[v] = n;
        }
    }
    let mut fields = Vec::new();
    for (v, (name, _)) in variants.into_iter().enumerate() {
        let (ns, dispatches) = (&mut samples[v], dispatches[v]);
        ns.sort_by(f64::total_cmp);
        let (min, median) = (ns[0], ns[ns.len() / 2]);
        println!(
            "{name}: {min:.1} ns/dispatch (min of {runs}), median {median:.1}, {dispatches} dispatches"
        );
        fields.push(format!(
            "\"{name}\": {{\"ns_per_dispatch_min\": {min:.1}, \"ns_per_dispatch_median\": {median:.1}, \"dispatches\": {dispatches}}}"
        ));
    }
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"bench\": \"kernel_dispatch\", \"runs\": {runs}, \"sim_ms\": {}, \"host_parallelism\": {host}, {}}}",
        span.as_nanos() / 1_000_000,
        fields.join(", ")
    );
}
