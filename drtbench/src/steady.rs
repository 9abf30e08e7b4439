//! `steady_fleet`: the data plane.
//!
//! Four simulated CPUs, each with one 1 kHz producer publishing over
//! shared memory, a mailbox and a FIFO, and fifteen consumers at 25–1000 Hz
//! reading them; everything is admitted under response-time analysis. One
//! op advances the kernel by a 10 ms slice, issues one management command
//! (a property write or a status request whose reply is polled in later
//! slices) and runs the DRCR's resolve step; every tenth slice also runs
//! the stochastic contract monitor. Claims sit just above what the logic
//! burns, so the monitor neither refines nor convicts and the DRCR stays
//! idle: a management-plane change must not move this workload.
//!
//! The same task set also runs as pure-RTAI tasks on a bare kernel (the
//! paper's Table 1 method), and the difference in per-cycle cost is the
//! hybrid container's overhead.

use crate::harness::{ratio, shuffle, Plan, Report, Traced, Workload};
use crate::rt;
use crate::trace::Tracer;
use drcom::contracts::{LearningConfig, StochasticMonitor};
use drcom::descriptor::ComponentDescriptor;
use drcom::hybrid::{FnLogic, RtIo, RtLogic};
use drcom::lifecycle::ComponentState;
use drcom::manage::{ManagementReply, RequestToken};
use drcom::model::{PortInterface, PropertyValue};
use drcom::rta::{RtaParams, RtaResolver};
use drcom::runtime::DrtRuntime;
use rtos::kernel::{Kernel, KernelConfig, TaskCtx};
use rtos::lxrt;
use rtos::rng::SimRng;
use rtos::shm::DataType;
use rtos::task::{FnBody, Priority, TaskBody};
use rtos::time::SimDuration;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

const CPUS: u32 = 4;
const SLICE: SimDuration = SimDuration::from_millis(10);
/// A command not answered within this many slices counts as failed.
const REPLY_SLICES: u64 = 5;
/// Rates of the shared-memory consumers on each CPU; the seed decides
/// which consumer gets which rate, so the dispatch load is seed-invariant.
const CONSUMER_HZ: [u32; 13] = [25, 40, 50, 50, 100, 100, 125, 200, 200, 250, 500, 500, 1000];
/// Host-visible container cost a cycle pays beyond its logic (dispatch,
/// port-table indirection, command poll, one port op), subtracted so the
/// logic plus container lands just under 90% of the claim.
const CONTAINER_NS: u64 = 1_700;
/// Simulated time the pure-RTAI comparison run covers.
const PURE_SIM: SimDuration = SimDuration::from_secs(2);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    Producer,
    Shm,
    Mailbox,
    Fifo,
}

#[derive(Debug, Clone)]
struct Member {
    name: String,
    role: Role,
    cpu: u32,
    hz: u32,
    prio: u8,
    claim: f64,
    xml: String,
}

impl Member {
    /// Simulated logic work per cycle: 90% of the claim minus the container.
    fn work(&self) -> SimDuration {
        let period_ns = 1e9 / f64::from(self.hz);
        let ns = (0.9 * self.claim * period_ns) as u64;
        SimDuration::from_nanos(ns.saturating_sub(CONTAINER_NS))
    }
}

fn shm(cpu: u32) -> String {
    format!("sh{cpu}")
}
fn mbx(cpu: u32) -> String {
    format!("mb{cpu}")
}
fn fifo(cpu: u32) -> String {
    format!("ff{cpu}")
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

pub struct Inputs {
    seed: u64,
    members: Rc<Vec<Member>>,
    /// Command rotation over `members`.
    order: Vec<usize>,
    plan: Plan,
}

fn member(name: String, role: Role, cpu: u32, hz: u32, prio: u8, claim: f64) -> Member {
    let b = ComponentDescriptor::builder(&name)
        .description("steady fleet member")
        .implementation("drtbench.steady")
        .periodic(hz, cpu, prio)
        .cpu_usage(claim)
        .property("gain", PropertyValue::Integer(1));
    let b = match role {
        Role::Producer => b
            .outport(&shm(cpu), PortInterface::Shm, DataType::Integer, 1)
            .outport(&mbx(cpu), PortInterface::Mailbox, DataType::Integer, 4)
            .outport(&fifo(cpu), PortInterface::Fifo, DataType::Byte, 16),
        Role::Shm => b.inport(&shm(cpu), PortInterface::Shm, DataType::Integer, 1),
        Role::Mailbox => b.inport(&mbx(cpu), PortInterface::Mailbox, DataType::Integer, 4),
        Role::Fifo => b.inport(&fifo(cpu), PortInterface::Fifo, DataType::Byte, 16),
    };
    let xml = b.build().expect("generated descriptor is valid").to_xml();
    Member {
        name,
        role,
        cpu,
        hz,
        prio,
        claim,
        xml,
    }
}

/// The component's per-cycle port traffic, shared by the hybrid logic and
/// the pure-RTAI body so both runs do the same work.
trait Ports {
    fn compute(&mut self, span: SimDuration);
    fn cycle(&self) -> u64;
    fn write(&mut self, iface: PortInterface, port: &str, data: &[u8]) -> bool;
    /// Reads once; `None` when empty, `Some(false)` on a channel error.
    fn read(&mut self, iface: PortInterface, port: &str) -> Option<bool>;
}

fn read_outcome<E>(r: Result<Option<Vec<u8>>, E>) -> Option<bool> {
    match r {
        Ok(Some(_)) => Some(true),
        Ok(None) => None,
        Err(_) => Some(false),
    }
}

/// The hybrid container: ports resolve through the component's bindings.
impl Ports for RtIo<'_, '_> {
    fn compute(&mut self, span: SimDuration) {
        RtIo::compute(self, span);
    }
    fn cycle(&self) -> u64 {
        RtIo::cycle(self)
    }
    fn write(&mut self, _iface: PortInterface, port: &str, data: &[u8]) -> bool {
        RtIo::write(self, port, data).is_ok()
    }
    fn read(&mut self, _iface: PortInterface, port: &str) -> Option<bool> {
        read_outcome(RtIo::read(self, port))
    }
}

/// Pure RTAI: the task calls the kernel's IPC primitives directly.
impl Ports for TaskCtx<'_> {
    fn compute(&mut self, span: SimDuration) {
        TaskCtx::compute(self, span);
    }
    fn cycle(&self) -> u64 {
        TaskCtx::cycle(self)
    }
    fn write(&mut self, iface: PortInterface, port: &str, data: &[u8]) -> bool {
        match iface {
            PortInterface::Shm => self.shm_write(port, data).is_ok(),
            PortInterface::Mailbox => self.mailbox_send(port, data).is_ok(),
            PortInterface::Fifo => self.fifo_put(port, data).is_ok(),
        }
    }
    fn read(&mut self, iface: PortInterface, port: &str) -> Option<bool> {
        read_outcome(match iface {
            PortInterface::Shm => self.shm_read(port).map(Some),
            PortInterface::Mailbox => self.mailbox_recv(port),
            PortInterface::Fifo => self
                .fifo_get(port, 16)
                .map(|b| (!b.is_empty()).then_some(b)),
        })
    }
}

/// One cycle of a member's logic; port errors are counted, never hidden.
fn cycle(p: &mut impl Ports, role: Role, cpu: u32, work: SimDuration, errors: &Cell<u64>) {
    use PortInterface::{Fifo, Mailbox, Shm};
    p.compute(work);
    let mut ok = true;
    match role {
        Role::Producer => {
            let v = (p.cycle() as i32).to_le_bytes();
            ok &= p.write(Shm, &shm(cpu), &v);
            if p.cycle().is_multiple_of(10) {
                ok &= p.write(Mailbox, &mbx(cpu), &v);
            }
            ok &= p.write(Fifo, &fifo(cpu), &v);
        }
        Role::Shm => ok &= p.read(Shm, &shm(cpu)) != Some(false),
        Role::Fifo => ok &= p.read(Fifo, &fifo(cpu)) != Some(false),
        // Drain everything queued since the last cycle.
        Role::Mailbox => loop {
            match p.read(Mailbox, &mbx(cpu)) {
                Some(true) => {}
                Some(false) => {
                    ok = false;
                    break;
                }
                None => break,
            }
        },
    }
    if !ok {
        errors.set(errors.get() + 1);
    }
}

struct Pending {
    name: String,
    token: RequestToken,
    slice: u64,
    sent_ns: u64,
}

pub struct Steady {
    rt: DrtRuntime,
    members: Rc<Vec<Member>>,
    seed: u64,
    plan: Plan,
    order: Vec<usize>,
    cursor: usize,
    slice: u64,
    monitor: StochasticMonitor,
    pending: Vec<Pending>,
    /// Replies received by the last op, checked after it.
    answered: Vec<(Pending, ManagementReply)>,
    port_errors: Rc<Cell<u64>>,
    requests: u64,
    replies: u64,
    unanswered: u64,
    polls: u64,
    /// A contract verdict appeared in the last op.
    contract_outcomes: usize,
}

impl Steady {
    /// Polls every outstanding request once; returns the first error.
    fn poll_replies(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let mut first_err = Ok(());
        for p in std::mem::take(&mut self.pending) {
            let rt = &self.rt;
            let Some(mgmt) = tr.span("manage.lookup", || rt.management(&p.name)) else {
                first_err = first_err.and(Err(format!("no management service for `{}`", p.name)));
                continue;
            };
            match tr.span("manage.command", || mgmt.poll_reply(p.token)) {
                Ok(Some(reply)) => self.answered.push((p, reply)),
                Ok(None) => self.pending.push(p),
                Err(e) => first_err = first_err.and(Err(format!("poll `{}`: {e}", p.name))),
            }
        }
        first_err
    }

    /// Builds the same task set on a bare kernel through the LXRT façade
    /// and runs it for `span`; returns the kernel and the host seconds the
    /// run took.
    fn pure_run(&self, span: SimDuration) -> Result<(Kernel, f64), String> {
        let mut k = Kernel::new(KernelConfig::new(self.seed).with_cpus(CPUS));
        let err = |e: &dyn std::fmt::Display| format!("pure RTAI set-up: {e}");
        for m in self.members.iter().filter(|m| m.role == Role::Producer) {
            lxrt::rt_shm_alloc(&mut k, &shm(m.cpu), DataType::Integer, 1).map_err(|e| err(&e))?;
            lxrt::rt_mbx_init(&mut k, &mbx(m.cpu), 4).map_err(|e| err(&e))?;
            lxrt::rtf_create(&mut k, &fifo(m.cpu), 64).map_err(|e| err(&e))?;
        }
        for m in self.members.iter() {
            let (role, cpu, work) = (m.role, m.cpu, m.work());
            let errors = self.port_errors.clone();
            let body: Box<dyn TaskBody> = Box::new(FnBody(move |ctx: &mut TaskCtx<'_>| {
                cycle(ctx, role, cpu, work, &errors)
            }));
            let task = lxrt::rt_task_init(&mut k, &m.name, Priority(m.prio), m.cpu, body)
                .map_err(|e| err(&e))?;
            k.set_latency_tracking(task, true).map_err(|e| err(&e))?;
            lxrt::rt_task_make_periodic(&mut k, task, SimDuration::from_hz(u64::from(m.hz)))
                .map_err(|e| err(&e))?;
        }
        let t = Instant::now();
        k.run_for(span);
        Ok((k, t.elapsed().as_secs_f64()))
    }

    /// Mean simulated CPU time per cycle over every member's task.
    fn sim_ns_per_cycle(
        &self,
        kernel: &Kernel,
        task_of: impl Fn(&str) -> Option<rtos::task::TaskId>,
    ) -> f64 {
        let (mut ns, mut cycles) = (0u64, 0u64);
        for m in self.members.iter() {
            if let Some(t) = task_of(&m.name) {
                ns += kernel.task_cpu_time(t).map_or(0, |d| d.as_nanos());
                cycles += kernel.task_cycles(t).unwrap_or(0);
            }
        }
        ratio(ns as f64, cycles as f64)
    }
}

impl Workload for Steady {
    const NAME: &'static str = "steady_fleet";
    type Inputs = Inputs;

    fn inputs(seed: u64, smoke: bool) -> Inputs {
        let mut rng = SimRng::from_seed(seed);
        let consumers = if smoke { 2 } else { CONSUMER_HZ.len() };
        let mut members = Vec::new();
        for cpu in 0..CPUS {
            members.push(member(
                format!("pr{cpu}"),
                Role::Producer,
                cpu,
                1000,
                1,
                0.05,
            ));
            let mut rates = CONSUMER_HZ[CONSUMER_HZ.len() - consumers..].to_vec();
            shuffle(&mut rates, &mut rng);
            for (j, hz) in rates.into_iter().enumerate() {
                let claim = 0.02 * rng.uniform_range(0.8, 1.2);
                members.push(member(
                    format!("k{cpu}{j:02}"),
                    Role::Shm,
                    cpu,
                    hz,
                    rm_priority(hz),
                    claim,
                ));
            }
            let claim = 0.02 * rng.uniform_range(0.8, 1.2);
            members.push(member(
                format!("mx{cpu}"),
                Role::Mailbox,
                cpu,
                100,
                rm_priority(100),
                claim,
            ));
            let claim = 0.02 * rng.uniform_range(0.8, 1.2);
            members.push(member(
                format!("fx{cpu}"),
                Role::Fifo,
                cpu,
                250,
                rm_priority(250),
                claim,
            ));
        }
        let mut order: Vec<usize> = (0..members.len()).collect();
        shuffle(&mut order, &mut rng);
        let plan = if smoke {
            Plan {
                window_ops: 10,
                min_ops: 40,
                digest_at: 40,
            }
        } else {
            // A window of 100 slices repeats the command and poll cadence
            // and spans whole hyperperiods of the task set (200 ms).
            Plan {
                window_ops: 100,
                min_ops: 4000,
                digest_at: 1000,
            }
        };
        Inputs {
            seed,
            members: Rc::new(members),
            order,
            plan,
        }
    }

    fn build(inputs: &Inputs, tr: &mut Tracer) -> Result<Self, String> {
        let mut rt = DrtRuntime::with_resolver(
            KernelConfig::new(inputs.seed).with_cpus(CPUS),
            Box::new(RtaResolver::new(RtaParams::default())),
        );
        let port_errors = Rc::new(Cell::new(0));
        let mut wave = Vec::new();
        for m in inputs.members.iter() {
            let (role, cpu, work) = (m.role, m.cpu, m.work());
            let errors = port_errors.clone();
            let provider = rt::parse(tr, &m.xml, move || -> Box<dyn RtLogic> {
                let errors = errors.clone();
                Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
                    cycle(io, role, cpu, work, &errors)
                }))
            })?;
            wave.push((format!("steady.{}", m.name), provider));
        }
        rt::install(&mut rt, tr, wave)?;
        let inactive: Vec<&str> = inputs
            .members
            .iter()
            .filter(|m| rt.component_state(&m.name) != Some(ComponentState::Active))
            .map(|m| m.name.as_str())
            .collect();
        if !inactive.is_empty() {
            return Err(format!("not admitted under RTA: {inactive:?}"));
        }
        Ok(Steady {
            rt,
            members: inputs.members.clone(),
            seed: inputs.seed,
            plan: inputs.plan,
            order: inputs.order.clone(),
            cursor: 0,
            slice: 0,
            monitor: StochasticMonitor::new(LearningConfig::default()),
            pending: Vec::new(),
            answered: Vec::new(),
            port_errors,
            requests: 0,
            replies: 0,
            unanswered: 0,
            polls: 0,
            contract_outcomes: 0,
        })
    }

    fn plan(&self) -> Plan {
        self.plan
    }

    fn op(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.slice += 1;
        let mut result = self.poll_replies(tr);

        let name = self.members[self.order[self.cursor]].name.clone();
        self.cursor = (self.cursor + 1) % self.order.len();
        let rt = &self.rt;
        match tr.span("manage.lookup", || rt.management(&name)) {
            None => result = result.and(Err(format!("no management service for `{name}`"))),
            Some(mgmt) if self.slice.is_multiple_of(2) => {
                let value = PropertyValue::Integer(self.slice as i64);
                if let Err(e) = tr.span("manage.command", || mgmt.set_property("gain", value)) {
                    result = result.and(Err(format!("set_property `{name}`: {e}")));
                }
            }
            Some(mgmt) => match tr.span("manage.command", || mgmt.request_status()) {
                Ok(token) => {
                    self.requests += 1;
                    let sent_ns = rt.kernel().now().as_nanos();
                    self.pending.push(Pending {
                        name,
                        token,
                        slice: self.slice,
                        sent_ns,
                    });
                }
                Err(e) => result = result.and(Err(format!("request_status `{name}`: {e}"))),
            },
        }

        let rt = &mut self.rt;
        tr.span("kernel.run_for", || rt.kernel_mut().run_for(SLICE));
        tr.span("drcr.process", || rt.process());
        if self.slice.is_multiple_of(10) {
            self.polls += 1;
            let monitor = &mut self.monitor;
            match tr.span("contracts.poll", || monitor.poll(rt)) {
                Ok(outcomes) => self.contract_outcomes = outcomes.len(),
                Err(e) => result = result.and(Err(format!("contract poll: {e}"))),
            }
        }
        result
    }

    fn after_op(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        let mut result = Ok(());
        for (p, reply) in self.answered.drain(..) {
            self.replies += 1;
            match reply {
                ManagementReply::Status { at_ns, .. } if at_ns >= p.sent_ns => {}
                other => {
                    result = result.and(Err(format!("`{}`: unexpected reply {other:?}", p.name)));
                }
            }
        }
        let slice = self.slice;
        let late = self.pending.len();
        self.pending.retain(|p| slice - p.slice <= REPLY_SLICES);
        let late = (late - self.pending.len()) as u64;
        if late > 0 {
            self.unanswered += late;
            result = result.and(Err(format!(
                "{late} command(s) unanswered after {REPLY_SLICES} slices"
            )));
        }
        if self.contract_outcomes > 0 {
            self.contract_outcomes = 0;
            result = result.and(Err(
                "the contract monitor refined or convicted a member".into()
            ));
        }
        result
    }

    fn sim_now_ns(&self) -> u64 {
        self.rt.kernel().now().as_nanos()
    }

    fn digest(&self) -> u64 {
        rt::digest(&self.rt)
    }

    fn counters(&self) -> BTreeMap<&'static str, f64> {
        rt::counters(&self.rt)
    }

    fn finish(&mut self, _tr: &mut Tracer, traced: Option<&Traced>, rep: &mut Report) {
        // Let requests still in flight come back (untimed), so the check
        // covers every command sent.
        let mut drain = Tracer::new(false);
        while !self.pending.is_empty() && self.unanswered == 0 {
            self.slice += 1;
            self.rt.kernel_mut().run_for(SLICE);
            if let Err(e) = self
                .poll_replies(&mut drain)
                .and_then(|()| self.after_op(&mut drain))
            {
                rep.check("drain_replies", false, e);
                break;
            }
        }
        rep.check(
            "every_command_answered",
            self.unanswered == 0 && self.pending.is_empty(),
            format!(
                "{} requests, {} replies, {} unanswered",
                self.requests, self.replies, self.unanswered
            ),
        );
        let (misses, dispatches) = rt::deadline_misses(&self.rt);
        rep.metric(
            "deadline_miss_rate",
            ratio(misses as f64, dispatches as f64),
            "ratio",
            format!("{misses}/{dispatches}"),
        );
        rep.check(
            "no_deadline_misses",
            misses == 0,
            format!("{misses} misses under RTA"),
        );
        let inactive = self
            .members
            .iter()
            .filter(|m| self.rt.component_state(&m.name) != Some(ComponentState::Active))
            .count();
        rep.check(
            "fleet_stays_active",
            inactive == 0,
            format!("{inactive} members left Active"),
        );
        rep.check(
            "contracts_quiet",
            self.monitor.outcomes().is_empty(),
            format!(
                "{} refinements or violations",
                self.monitor.outcomes().len()
            ),
        );

        // Table 1 method: the container's per-cycle cost is HRC minus pure
        // RTAI, from the kernel's own accounting.
        let hrc_sim = {
            let drcr = self.rt.drcr();
            self.sim_ns_per_cycle(&self.rt.kernel(), |n| drcr.task_of(n))
        };
        match self.pure_run(PURE_SIM) {
            Ok((k, _)) => {
                let pure_sim = self.sim_ns_per_cycle(&k, |n| k.task_by_name(n));
                let overhead = hrc_sim - pure_sim;
                let bound = RtaParams::default().overhead_ns as f64;
                rep.metric(
                    "hybrid.container_sim_ns_per_cycle",
                    overhead,
                    "ns",
                    format!("hrc={hrc_sim:.1} pure={pure_sim:.1}"),
                );
                rep.metric("rta.overhead_ns", bound, "ns", "RtaParams::default()");
                rep.check(
                    "rta_overhead_bounds_container",
                    overhead <= bound,
                    format!("container {overhead:.1} ns/cycle vs RTA overhead {bound} ns"),
                );
            }
            Err(e) => rep.check("pure_rtai_run", false, e),
        }
        rep.check(
            "no_port_errors",
            self.port_errors.get() == 0,
            format!("{} cycles hit a port error", self.port_errors.get()),
        );

        let Some(t) = traced else { return };
        rep.metric(
            "manage.reply_ratio",
            ratio(self.replies as f64, self.requests as f64),
            "ratio",
            "replies / status requests",
        );
        rep.metric(
            "contracts.samples",
            self.polls as f64,
            "count",
            "monitor polls",
        );
        // Host cost per cycle: the traced HRC slices against the same task
        // set on a bare kernel over the same simulated span.
        let hrc_host = ratio(t.total_ns("kernel.run_for"), t.delta("kernel.dispatches"));
        let span = SimDuration::from_nanos(SLICE.as_nanos() * t.op_count);
        match self.pure_run(span) {
            Ok((k, secs)) => {
                let pure_host = ratio(secs * 1e9, k.counters().dispatches as f64);
                rep.metric(
                    "hybrid.container_host_ns_per_cycle",
                    hrc_host - pure_host,
                    "ns",
                    format!("hrc={hrc_host:.1} pure={pure_host:.1}"),
                );
            }
            Err(e) => rep.check("pure_rtai_host_run", false, e),
        }
    }
}
