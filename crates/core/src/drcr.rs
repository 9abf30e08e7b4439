//! The Declarative Real-time Component Runtime (DRCR) executive.
//!
//! The DRCR owns the **whole lifecycle** of every declarative real-time
//! component (§2.2): components are activated and deactivated only through
//! it, which is what keeps its global view — the [`SystemView`] handed to
//! resolving services — complete and accurate. It reacts to framework
//! events (component bundles arriving and departing, resolvers coming and
//! going) by re-running constraint resolution:
//!
//! 1. **Functional constraints** — every inport wired to a compatible
//!    outport of an *active* component ([`crate::wiring`]).
//! 2. **Non-functional constraints** — the internal resolving service *and
//!    all* customized resolving services found in the service registry must
//!    admit the candidate (§4.3: "when both services return positive
//!    results").
//!
//! On departure the DRCR cascades: consumers left without an active
//! provider are deactivated back to `Unsatisfied` (releasing their
//! admission), and re-activated automatically when a provider returns.
//! Every state change goes through one checked transition that emits a
//! typed [`DrcrEvent::Transition`], so the event stream is the audit log
//! (and the paper's dynamicity scenario).

use crate::admission::AdmissionLedger;
use crate::descriptor::ComponentDescriptor;
use crate::error::DrcrError;
use crate::hybrid::{BridgeMode, Command, HybridRtBody, PortBinding, Reply, RtLogic};
use crate::lifecycle::{ComponentState, Rejection, Stamps, WaitReport};
use crate::lower::{lower, Channel, Lowering};
use crate::manage::{
    ManagementHandle, ManagementReply, RequestToken, RtComponentManagement, MANAGEMENT_SERVICE,
};
use crate::model::{CpuUsage, PortDirection, PortInterface, PropertyValue};
use crate::obs::{
    BridgeEvent, DrcrEvent, EventSink, MetricsRegistry, MetricsReport, Timestamped, TraceRing,
    TraceSubscriber,
};
use crate::reactive::ReactiveResolver;
use crate::resolve::{
    Decision, Resolver, ResolverHandle, ResolvingService, UtilizationResolver, RESOLVER_SERVICE,
};
use crate::rta::{RtaAnalysis, CONTAINER_OVERHEAD_NS};
use crate::supervise::{FaultDecision, SupervisionConfig, Supervisor};
use crate::view::{ComponentInfo, SystemView};
use crate::wiring::WiringResult;
use osgi::event::{BundleId, FrameworkEvent, ServiceEventKind};
use osgi::framework::Framework;
use osgi::ldap::{PropValue, Properties};
use osgi::registry::ServiceId;
use rtos::kernel::Kernel;
use rtos::task::{ObjName, TaskId};
use rtos::time::SimDuration;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::rc::{Rc, Weak};

/// Service-registry interface name under which component bundles publish
/// their descriptor + implementation factory.
pub const COMPONENT_SERVICE: &str = "drt.component";

/// Property key carrying the component name on `drt.component` and
/// `drt.management` registrations.
pub const PROP_COMPONENT_NAME: &str = "drt.name";

/// Capacity of the executive's event ring; older events are dropped
/// (counted, and still delivered to live subscribers first). A waiter's
/// report is logged only when it changes, so an operation logs fewer
/// events than when every sweep logged it again: 6,000 events keep about
/// the history, and the memory, that 10,000 did then.
const EVENT_RING_CAPACITY: usize = 6_000;

/// Capacity of the management-bridge event ring.
const BRIDGE_RING_CAPACITY: usize = 10_000;

/// Shared factory producing a fresh [`RtLogic`] per activation.
pub type LogicFactory = Rc<dyn Fn() -> Box<dyn RtLogic>>;

/// A deployable component: validated descriptor plus the factory producing
/// its real-time logic.
///
/// This is the Rust-native equivalent of the paper's bundle payload (XML
/// descriptor + implementation class named by `bincode`).
pub struct ComponentProvider {
    pub(crate) descriptor: Rc<ComponentDescriptor>,
    pub(crate) factory: LogicFactory,
}

impl fmt::Debug for ComponentProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ComponentProvider({})", self.descriptor.name)
    }
}

impl ComponentProvider {
    /// Pairs a descriptor with its logic factory. The descriptor is held
    /// once: the executive's record shares it.
    pub fn new(
        descriptor: impl Into<Rc<ComponentDescriptor>>,
        factory: impl Fn() -> Box<dyn RtLogic> + 'static,
    ) -> Self {
        ComponentProvider {
            descriptor: descriptor.into(),
            factory: Rc::new(factory),
        }
    }

    /// Parses the descriptor from XML, then pairs it with the factory.
    ///
    /// # Errors
    ///
    /// Propagates descriptor parse/validation errors.
    pub fn from_xml(
        xml: &str,
        factory: impl Fn() -> Box<dyn RtLogic> + 'static,
    ) -> Result<Self, crate::error::DescriptorError> {
        Ok(Self::new(ComponentDescriptor::parse_xml(xml)?, factory))
    }

    /// The validated descriptor.
    pub fn descriptor(&self) -> &ComponentDescriptor {
        &self.descriptor
    }
}

/// A kernel object an activation created. The record keeps them in
/// creation order and teardown releases them in reverse (see [`release`]).
#[derive(Debug, Clone, Copy)]
enum KernelObject {
    Shm(ObjName),
    Mailbox(ObjName),
    Fifo(ObjName),
    Task(TaskId),
}

/// Releases kernel objects newest first: the task goes before the
/// channels its stop hook may still touch. A failed activation and a
/// deactivation both release through here.
fn release(kernel: &mut Kernel, objects: Vec<KernelObject>) {
    for object in objects.into_iter().rev() {
        match object {
            KernelObject::Shm(n) => {
                let _ = kernel.shm_mut().free(n.as_str());
            }
            KernelObject::Mailbox(n) => {
                let _ = kernel.mailboxes_mut().delete(n.as_str());
            }
            KernelObject::Fifo(n) => {
                let _ = kernel.fifos_mut().destroy(n.as_str());
            }
            KernelObject::Task(t) => {
                let _ = kernel.delete_task(t);
            }
        }
    }
}

/// One resolver's verdict on `component` (`reason` is empty on admission).
fn verdict(
    component: &str,
    resolver: &str,
    internal: bool,
    admitted: bool,
    reason: &str,
) -> DrcrEvent {
    DrcrEvent::AdmissionVerdict {
        component: component.to_string(),
        resolver: resolver.to_string(),
        internal,
        admitted,
        reason: reason.to_string(),
    }
}

/// The event that reports `report` for `component`.
fn report_event(report: &WaitReport, component: &str) -> DrcrEvent {
    match report {
        WaitReport::Rejected(r) => verdict(component, &r.resolver, r.internal, false, &r.reason),
        WaitReport::Unwired(_) => DrcrEvent::WiringUnsatisfied {
            component: component.to_string(),
            missing: report.to_string(),
        },
        WaitReport::GroupAbandoned { rejection: r, .. } => DrcrEvent::GroupAbandoned {
            component: component.to_string(),
            resolver: r.resolver.clone(),
            internal: r.internal,
            reason: r.reason.clone(),
        },
        WaitReport::ActivationFailed(reason) => DrcrEvent::ActivationFailed {
            component: component.to_string(),
            reason: reason.clone(),
        },
    }
}

/// A wave member's screen: its wiring, and whether the check counted an
/// earlier passer active.
type Screen = (Rc<str>, WiringResult, bool);

struct ComponentRecord {
    /// The contract in force: `registered` itself in the base mode until a
    /// refinement copies it, else the mode's substituted contract.
    descriptor: Rc<ComponentDescriptor>,
    /// The contract as registered, shared with its provider; modes derive
    /// from it and it is never written.
    registered: Rc<ComponentDescriptor>,
    /// The index of the declared mode in force; `None` is the base mode.
    mode: Option<usize>,
    factory: LogicFactory,
    state: ComponentState,
    stamps: Stamps,
    bundle: Option<BundleId>,
    /// What the current activation created, in creation order.
    objects: Vec<KernelObject>,
    task: Option<TaskId>,
    mgmt: Option<ServiceId>,
    cmd_mbx: Option<ObjName>,
    reply_mbx: Option<ObjName>,
    /// Chosen provider per inport at activation (for diagnostics).
    providers: Vec<(String, String)>,
    /// Replies already drained from the reply mailbox, by token.
    reply_buffer: HashMap<u32, ManagementReply>,
    /// Why it waits, while it waits and has been screened.
    report: Option<WaitReport>,
}

impl ComponentRecord {
    /// The name of the operating mode in force.
    fn mode_name(&self) -> &str {
        self.mode
            .map_or(crate::model::BASE_MODE, |i| &self.registered.modes[i].name)
    }

    /// The record's entry in the global view, under its interned `name`.
    fn info(&self, name: Rc<str>) -> ComponentInfo {
        ComponentInfo::from_contract_interned(
            name,
            self.state,
            &self.descriptor.task,
            self.descriptor.cpu_usage.fraction(),
        )
    }
}

/// The DRCR executive. Construct with [`Drcr::new_shared`]; the shared
/// handle is what management services capture. See the [module docs](self).
pub struct Drcr {
    kernel: Rc<RefCell<Kernel>>,
    components: BTreeMap<Rc<str>, ComponentRecord>,
    ledger: AdmissionLedger,
    bridge: BridgeMode,
    enforce_budgets: bool,
    /// Bumped by every lifecycle transition; records are stamped from it.
    lifecycle_seq: u64,
    events: EventSink<DrcrEvent>,
    bridge_events: EventSink<BridgeEvent>,
    metrics: MetricsRegistry,
    resolve_round: u64,
    /// Tokened requests in flight: token -> (component, enqueue time ns).
    pending_replies: HashMap<u32, (String, u64)>,
    next_chan: u32,
    next_token: u32,
    dirty: bool,
    /// The constraint-resolution engine: wiring index + sweep scopes +
    /// internal admission, behind one pluggable surface. Fixed at
    /// construction.
    resolver: Box<dyn Resolver>,
    /// Waiters whose report waits only on inactive providers: the
    /// candidates of a cyclic group.
    stalled: BTreeSet<Rc<str>>,
    /// Whether the stalled set, or what a stalled waiter waits on, changed
    /// since the last group attempt.
    group_due: bool,
    /// Events of the ruling in progress, held back until its outcome says
    /// whether they report anything new.
    held: Vec<DrcrEvent>,
    /// The global view, kept current by delta: registration and removal
    /// insert and remove one record, lifecycle flips and contract rewrites
    /// patch one in place. It is never rebuilt.
    view: SystemView,
    /// Restart/quarantine bookkeeping for faulted components.
    supervisor: Supervisor,
    /// Kernel task → owning component, for O(faulted) supervision scans.
    task_names: BTreeMap<TaskId, Rc<str>>,
    /// The per-CPU utilization gauge names, indexed by CPU.
    gauge_keys: Vec<String>,
    self_ref: Weak<RefCell<Drcr>>,
}

impl fmt::Debug for Drcr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Drcr")
            .field("components", &self.components.len())
            .field("reserved", &self.ledger.len())
            .finish()
    }
}

impl Drcr {
    /// Creates the executive with the default internal resolver
    /// (utilization cap 1.0).
    pub fn new_shared(kernel: Rc<RefCell<Kernel>>) -> Rc<RefCell<Drcr>> {
        Self::with_resolver(kernel, Box::new(UtilizationResolver::default()))
    }

    /// Creates the executive with a custom internal resolving service,
    /// ruled through the reactive engine. An
    /// [`RtaResolver`](crate::rta::RtaResolver) policy also records analysis
    /// evidence and admits arrival waves in one pass per CPU.
    pub fn with_resolver(
        kernel: Rc<RefCell<Kernel>>,
        internal: Box<dyn ResolvingService>,
    ) -> Rc<RefCell<Drcr>> {
        Self::with_engine(kernel, Box::new(ReactiveResolver::new(internal)))
    }

    /// Creates the executive around a constraint-resolution engine (the
    /// differential-testing hook: pass a
    /// [`NaiveResolver`](crate::reactive::NaiveResolver) for the sequential
    /// reference semantics). The engine cannot be swapped later.
    pub fn with_engine(
        kernel: Rc<RefCell<Kernel>>,
        resolver: Box<dyn Resolver>,
    ) -> Rc<RefCell<Drcr>> {
        let cpu_count = kernel.borrow().cpu_count();
        let drcr = Rc::new(RefCell::new(Drcr {
            kernel,
            components: BTreeMap::new(),
            ledger: AdmissionLedger::new(cpu_count),
            bridge: BridgeMode::AsyncPoll,
            enforce_budgets: false,
            lifecycle_seq: 0,
            events: EventSink::new(EVENT_RING_CAPACITY),
            bridge_events: EventSink::new(BRIDGE_RING_CAPACITY),
            metrics: MetricsRegistry::new(),
            resolve_round: 0,
            pending_replies: HashMap::new(),
            next_chan: 0,
            next_token: 0,
            dirty: false,
            resolver,
            stalled: BTreeSet::new(),
            group_due: false,
            held: Vec::new(),
            view: SystemView::new(cpu_count, Vec::new()),
            supervisor: Supervisor::new(),
            task_names: BTreeMap::new(),
            gauge_keys: (0..cpu_count)
                .map(|cpu| format!("admission.cpu{cpu}.utilization"))
                .collect(),
            self_ref: Weak::new(),
        }));
        drcr.borrow_mut().self_ref = Rc::downgrade(&drcr);
        drcr
    }

    /// Sets the intra-component bridge mode used for future activations
    /// (the ablation hook; default [`BridgeMode::AsyncPoll`]).
    pub fn set_bridge_mode(&mut self, bridge: BridgeMode) {
        self.bridge = bridge;
    }

    /// When enabled, future activations of periodic components get a
    /// kernel-enforced per-cycle execution budget of `cpuusage x period`
    /// plus the container overhead admission charges on top of the claim
    /// ([`CONTAINER_OVERHEAD_NS`]), making the declared claim binding (see
    /// [`crate::contracts`]).
    pub fn set_budget_enforcement(&mut self, on: bool) {
        self.enforce_budgets = on;
    }

    /// Sets the supervision config applied to components that have no
    /// per-component config (the default is fail-stop:
    /// [`crate::supervise::RestartPolicy::Never`]).
    pub fn set_default_supervision(&mut self, config: SupervisionConfig) {
        self.supervisor.set_default(config);
    }

    /// Sets one component's supervision config (restart policy plus
    /// optional flap-quarantine window). Takes effect at its next fault.
    pub fn set_supervision(&mut self, name: &str, config: SupervisionConfig) {
        self.supervisor.set_config(name, config);
    }

    /// Whether the supervisor has quarantined `name` (the component also
    /// shows as [`ComponentState::Disabled`]; re-enable clears it).
    pub fn is_quarantined(&self, name: &str) -> bool {
        self.supervisor.is_quarantined(name)
    }

    /// The recorded cause of a quarantine, while one is in force — the
    /// typed evidence behind the verdict (fault policy, enforcement action
    /// or stochastic-contract violation).
    pub fn quarantine_reason(&self, name: &str) -> Option<&str> {
        self.supervisor.quarantine_reason(name)
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Registers a component with the executive (normally driven by service
    /// events; callable directly for embedded use).
    ///
    /// # Errors
    ///
    /// [`DrcrError::DuplicateComponent`] — component names are globally
    /// unique (§2.3); [`DrcrError::NoSuchCpu`] when the task is pinned to
    /// a CPU the kernel does not have.
    pub fn register_component(
        &mut self,
        descriptor: Rc<ComponentDescriptor>,
        factory: LogicFactory,
        bundle: Option<BundleId>,
    ) -> Result<(), DrcrError> {
        let id: Rc<str> = Rc::from(descriptor.name.as_str());
        if self.components.contains_key(&*id) {
            return Err(DrcrError::DuplicateComponent(id.to_string()));
        }
        let (cpu, cpus) = (descriptor.task.cpu(), self.ledger.cpu_count());
        if cpu >= cpus {
            return Err(DrcrError::NoSuchCpu {
                component: id.to_string(),
                cpu,
                cpus,
            });
        }
        let initial = if descriptor.enabled {
            ComponentState::Unsatisfied
        } else {
            ComponentState::Disabled
        };
        // A fresh registration starts inactive in the engine; it cannot
        // break any running consumer (it only *adds* a provider), so no
        // dirty-set seeding happens — the engine just wakes the new
        // provider's waiting consumers, whose diagnoses it changes.
        self.resolver.on_registered(&id, &descriptor);
        let record = ComponentRecord {
            registered: descriptor.clone(),
            descriptor,
            mode: None,
            factory,
            state: ComponentState::Installed,
            stamps: Stamps::default(),
            bundle,
            objects: Vec::new(),
            task: None,
            mgmt: None,
            cmd_mbx: None,
            reply_mbx: None,
            providers: Vec::new(),
            reply_buffer: HashMap::new(),
            report: None,
        };
        self.components.insert(id.clone(), record);
        self.transition(&id, None, initial, "descriptor registered", |_| Ok(()))?;
        self.dirty = true;
        Ok(())
    }

    /// Removes a component: deactivates it if needed, destroys its record.
    ///
    /// # Errors
    ///
    /// [`DrcrError::NoSuchComponent`].
    pub fn remove_component(&mut self, name: &str, fw: &mut Framework) -> Result<(), DrcrError> {
        self.deactivate(name, fw, ComponentState::Destroyed, "component removed")?;
        if let Some(rec) = self.components.remove(name) {
            // Mode switches preserve ports, so either descriptor describes
            // the indexed entries.
            self.resolver.on_removed(name, &rec.descriptor);
        }
        self.supervisor.clear(name);
        self.view.remove(name);
        self.metrics.count("drcr.view.updates", 1);
        self.dirty = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Current lifecycle state of a component.
    pub fn state_of(&self, name: &str) -> Option<ComponentState> {
        self.components.get(name).map(|r| r.state)
    }

    /// Names of all registered components, sorted.
    pub fn component_names(&self) -> Vec<String> {
        self.components.keys().map(|k| k.to_string()).collect()
    }

    /// Names of all registered components, sorted, borrowed from the
    /// registry (no allocation).
    pub fn names(&self) -> impl Iterator<Item = &Rc<str>> + '_ {
        self.components.keys()
    }

    /// Names of the Active components, sorted, borrowed from the registry
    /// (no allocation).
    pub fn active_names(&self) -> impl Iterator<Item = &Rc<str>> + '_ {
        self.components
            .iter()
            .filter(|(_, r)| r.state == ComponentState::Active)
            .map(|(name, _)| name)
    }

    /// The providers chosen for a component's inports at activation.
    pub fn providers_of(&self, name: &str) -> Option<&[(String, String)]> {
        self.components.get(name).map(|r| r.providers.as_slice())
    }

    /// Why a waiting component is not running: its last report, once it
    /// has been screened. `None` for a component that is not waiting or
    /// has not been screened since it started waiting.
    pub fn report(&self, name: &str) -> Option<&WaitReport> {
        self.components.get(name).and_then(|r| r.report.as_ref())
    }

    /// The lifecycle sequence: bumped by every state transition, so an
    /// unchanged value means no component changed state in between.
    pub fn lifecycle_seq(&self) -> u64 {
        self.lifecycle_seq
    }

    /// A component's registration and latest-activation stamps.
    pub fn stamps(&self, name: &str) -> Option<Stamps> {
        self.components.get(name).map(|r| r.stamps)
    }

    /// The typed executive event log (lifecycle transitions, resolve
    /// rounds, admission verdicts, wiring diagnoses, cascades, mode
    /// switches, rollbacks), newest-bounded.
    pub fn events(&self) -> &TraceRing<DrcrEvent> {
        self.events.ring()
    }

    /// The management-bridge event log (command enqueues, reply drains and
    /// latencies).
    pub fn bridge_events(&self) -> &TraceRing<BridgeEvent> {
        self.bridge_events.ring()
    }

    /// Registers a live tap on executive events; it sees every event, even
    /// ones later evicted from the bounded ring.
    pub fn add_event_subscriber(&mut self, subscriber: Box<dyn TraceSubscriber<DrcrEvent>>) {
        self.events.subscribe(subscriber);
    }

    /// Registers a live tap on bridge events.
    pub fn add_bridge_subscriber(&mut self, subscriber: Box<dyn TraceSubscriber<BridgeEvent>>) {
        self.bridge_events.subscribe(subscriber);
    }

    /// Executive events concerning one component.
    pub fn events_for<'a>(
        &'a self,
        component: &'a str,
    ) -> impl Iterator<Item = &'a Timestamped<DrcrEvent>> + 'a {
        self.events
            .iter()
            .filter(move |e| e.event.component() == Some(component))
    }

    /// Admission verdicts only (both admissions and rejections), in order.
    pub fn admission_verdicts(&self) -> impl Iterator<Item = &Timestamped<DrcrEvent>> {
        use DrcrEvent::{AdmissionVerdict, GroupAbandoned};
        self.events
            .iter()
            .filter(|e| matches!(e.event, AdmissionVerdict { .. } | GroupAbandoned { .. }))
    }

    /// Departure-cascade deactivations only, in order.
    pub fn cascade_events(&self) -> impl Iterator<Item = &Timestamped<DrcrEvent>> {
        self.events
            .iter()
            .filter(|e| matches!(e.event, DrcrEvent::CascadeDeactivation { .. }))
    }

    /// The executive's metrics registry (counters, gauges, histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A deterministic snapshot of the executive's metrics.
    pub fn metrics_report(&self) -> MetricsReport {
        self.metrics.snapshot()
    }

    /// The admission ledger (reserved budgets).
    pub fn ledger(&self) -> &AdmissionLedger {
        &self.ledger
    }

    /// Snapshot of the global real-time context (a copy of the
    /// executive's view, which is always current).
    pub fn system_view(&self) -> SystemView {
        self.view.clone()
    }

    /// The one place a component's lifecycle state changes. Checks the
    /// step to `to` against Figure 1 — and, for a management step that
    /// names its edge (resume, enable), against that edge's `source` — and
    /// returns [`DrcrError::IllegalTransition`] with nothing changed when
    /// it is not allowed. Otherwise runs `effect` (the kernel side of the
    /// step), and when that succeeds commits: the record and its stamps
    /// (its report cleared), the engine's scopes, the view, the lifecycle
    /// sequence, and one [`DrcrEvent::Transition`]. An `effect` that fails
    /// must leave nothing behind; its error is returned.
    fn transition(
        &mut self,
        name: &str,
        source: Option<ComponentState>,
        to: ComponentState,
        reason: &str,
        effect: impl FnOnce(&mut Self) -> Result<(), DrcrError>,
    ) -> Result<(), DrcrError> {
        let from = self
            .components
            .get(name)
            .ok_or_else(|| DrcrError::NoSuchComponent(name.to_string()))?
            .state;
        if !(from.can_transition(to) && source.is_none_or(|s| s == from)) {
            return Err(DrcrError::IllegalTransition {
                component: name.to_string(),
                from,
                to,
            });
        }
        effect(self)?;
        self.lifecycle_seq += 1;
        let key = self
            .components
            .get_key_value(name)
            .expect("checked above")
            .0
            .clone();
        let rec = self.components.get_mut(name).expect("checked above");
        rec.state = to;
        if from == ComponentState::Installed {
            rec.stamps.registered = self.lifecycle_seq;
        }
        if to == ComponentState::Active {
            rec.stamps.activated = self.lifecycle_seq;
        }
        rec.report = None;
        if self.stalled.remove(name) {
            self.group_due = true;
        }
        self.resolver
            .on_state_changed(&key, &rec.descriptor, from, to);
        if from == ComponentState::Installed {
            let info = self.components[name].info(key);
            self.view.insert(info);
        } else {
            let idx = self
                .view
                .position(name)
                .expect("registered components are in the view");
            self.view.set_state_at(idx, to);
        }
        self.metrics.count("drcr.view.updates", 1);
        self.note(DrcrEvent::Transition {
            component: name.to_string(),
            from,
            to,
            reason: reason.to_string(),
        });
        Ok(())
    }

    /// The kernel task id behind an active component.
    pub fn task_of(&self, name: &str) -> Option<TaskId> {
        self.components.get(name).and_then(|r| r.task)
    }

    /// The bundle that deployed a component, when it came through one.
    pub fn bundle_of(&self, name: &str) -> Option<BundleId> {
        self.components.get(name).and_then(|r| r.bundle)
    }

    /// The contract currently in force (mode-substituted or refined).
    pub fn descriptor_ref(&self, name: &str) -> Option<&ComponentDescriptor> {
        self.components.get(name).map(|r| &*r.descriptor)
    }

    /// The name of the operating mode a component currently runs under.
    pub fn current_mode_ref(&self, name: &str) -> Option<&str> {
        self.components.get(name).map(ComponentRecord::mode_name)
    }

    /// Releases one cycle of an aperiodic component (the manual trigger;
    /// mailbox inports trigger automatically on arrival).
    ///
    /// # Errors
    ///
    /// [`DrcrError::NoSuchComponent`] / [`DrcrError::Management`] for
    /// periodic or inactive components.
    pub fn trigger_component(&mut self, name: &str) -> Result<(), DrcrError> {
        let rec = self
            .components
            .get(name)
            .ok_or_else(|| DrcrError::NoSuchComponent(name.to_string()))?;
        if rec.descriptor.task.is_periodic() {
            return Err(DrcrError::Management(format!(
                "component `{name}` is periodic; only aperiodic components are triggered"
            )));
        }
        let Some(task) = rec.task else {
            return Err(DrcrError::Management(format!(
                "component `{name}` is not active (state {:?})",
                rec.state
            )));
        };
        self.kernel.borrow_mut().trigger(task)?;
        Ok(())
    }

    /// Switches a component to one of its declared operating modes (or back
    /// to [`crate::model::BASE_MODE`]).
    ///
    /// An active component is deactivated, its contract re-written with the
    /// mode's frequency/claim/priority, and re-admitted on the next resolve
    /// pass — the mode switch goes through the same admission gate as a
    /// fresh deployment, so a switch the system cannot afford leaves the
    /// component `Unsatisfied` rather than overcommitting the CPU.
    ///
    /// Switching a *suspended* component implicitly resumes it (the switch
    /// is a reconfiguration epoch: the old instance is torn down and a
    /// fresh one admitted under the new contract).
    ///
    /// # Errors
    ///
    /// [`DrcrError::NoSuchComponent`] for unknown components,
    /// [`DrcrError::Management`] for unknown modes or aperiodic components.
    pub fn switch_mode(
        &mut self,
        name: &str,
        mode_name: &str,
        fw: &mut Framework,
    ) -> Result<(), DrcrError> {
        let rec = self
            .components
            .get(name)
            .ok_or_else(|| DrcrError::NoSuchComponent(name.to_string()))?;
        if rec.mode_name() == mode_name {
            return Ok(());
        }
        // Modes are alternatives to the *base* contract, not cumulative
        // rewrites, so lookup and substitution both run against the
        // registered contract.
        let mode = rec.registered.mode(mode_name).ok_or_else(|| {
            DrcrError::Management(format!("component `{name}` has no mode `{mode_name}`"))
        })?;
        let modes = &rec.registered.modes;
        let index = modes.iter().position(|m| m.name == mode_name);
        let event = DrcrEvent::ModeSwitch {
            component: name.to_string(),
            mode: mode_name.to_string(),
            frequency_hz: mode.frequency_hz,
            cpu_usage: mode.cpu_usage,
        };
        let why = format!("mode switch to `{mode_name}`");
        self.rewrite_contract(name, fw, &why, event, |rec| {
            // The base mode shares the registered contract again; a mode
            // substitutes frequency/priority/claim, never ports, so the
            // wiring index stays valid across the switch.
            rec.descriptor = match index {
                None => rec.registered.clone(),
                Some(_) => Rc::new(rec.registered.with_mode(&mode)),
            };
            rec.mode = index;
            debug_assert!(
                rec.descriptor.inports == rec.registered.inports
                    && rec.descriptor.outports == rec.registered.outports,
                "mode substitution must preserve ports"
            );
        })?;
        self.metrics.count("drcr.mode_switches", 1);
        Ok(())
    }

    /// Re-writes a component's CPU claim to a *measured* value — the
    /// stochastic-contract refinement loop (see [`crate::contracts`]).
    ///
    /// Like a mode switch, the rewrite is a reconfiguration epoch: a
    /// running component is deactivated and re-admitted on the next
    /// resolve pass against the refined claim, so the refinement goes
    /// through the same admission gate as a fresh deployment. Unlike a
    /// mode switch, only `cpuusage` changes; frequency, priority and ports
    /// stay as declared. The contract in force is copied on write when it
    /// is shared, so the registered contract and its provider are
    /// untouched: a later mode switch re-derives from the registered
    /// contract and overrides any refinement (the estimator simply
    /// re-learns under the new mode).
    ///
    /// `samples` is the evidence size recorded in the
    /// [`DrcrEvent::ClaimRefined`] event.
    ///
    /// # Errors
    ///
    /// [`DrcrError::NoSuchComponent`] for unknown components,
    /// [`DrcrError::Management`] for invalid claims.
    pub fn refine_claim(
        &mut self,
        name: &str,
        refined: f64,
        samples: u64,
        fw: &mut Framework,
    ) -> Result<(), DrcrError> {
        let rec = self
            .components
            .get(name)
            .ok_or_else(|| DrcrError::NoSuchComponent(name.to_string()))?;
        let refined_claim = CpuUsage::new(refined)
            .map_err(|e| DrcrError::Management(format!("refined claim for `{name}`: {e}")))?;
        let declared = rec.descriptor.cpu_usage.fraction();
        if declared == refined {
            return Ok(());
        }
        let event = DrcrEvent::ClaimRefined {
            component: name.to_string(),
            declared,
            refined,
            samples,
        };
        let why = format!("claim refinement to {refined:.3}");
        self.rewrite_contract(name, fw, &why, event, |rec| {
            Rc::make_mut(&mut rec.descriptor).cpu_usage = refined_claim;
        })?;
        self.metrics.count("drcr.contracts.refinements", 1);
        Ok(())
    }

    /// The reconfiguration epoch both contract rewrites share: a running
    /// holder is deactivated (`why` is the transition's reason),
    /// `rewrite` re-writes the record's contract, and the engine's nodes
    /// and the view take the new contract before `event` is emitted. The
    /// component is re-admitted on the next resolve pass, through the same
    /// admission gate as a fresh deployment.
    fn rewrite_contract(
        &mut self,
        name: &str,
        fw: &mut Framework,
        why: &str,
        event: DrcrEvent,
        rewrite: impl FnOnce(&mut ComponentRecord),
    ) -> Result<(), DrcrError> {
        if self.components[name].state.holds_admission() {
            self.deactivate(name, fw, ComponentState::Unsatisfied, why)?;
        }
        let (key, _) = self.components.get_key_value(name).expect("present");
        let key = key.clone();
        let rec = self.components.get_mut(name).expect("present");
        rewrite(rec);
        // The contract changed: a waiting component's ruling read the old
        // one, so the engine wakes it (its ports are unchanged, but its
        // claim, frequency or priority are not).
        self.resolver.on_contract_changed(name, &rec.descriptor);
        // The view takes the rewritten contract in place.
        let idx = self
            .view
            .position(name)
            .expect("registered components are in the view");
        self.view.replace_at(idx, rec.info(key));
        self.metrics.count("drcr.view.updates", 1);
        self.note(event);
        self.dirty = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // The event-driven resolve loop
    // ------------------------------------------------------------------

    /// Drains framework events and re-runs constraint resolution.
    ///
    /// This is the paper's "DRCR receives notifications from the OSGi
    /// framework for component state changes; these notifications can
    /// trigger re-configuration activities".
    pub fn process(&mut self, fw: &mut Framework) {
        self.supervise(fw);
        for event in fw.drain_events() {
            let FrameworkEvent::Service(e) = event else {
                continue;
            };
            let is_component = e.interfaces.iter().any(|i| i == COMPONENT_SERVICE);
            let is_resolver = e.interfaces.iter().any(|i| i == RESOLVER_SERVICE);
            match (e.kind, is_component, is_resolver) {
                (ServiceEventKind::Registered, true, _) => {
                    if let Some(provider) = fw.registry().get::<ComponentProvider>(e.service) {
                        let bundle = match e.properties.get(osgi::registry::SERVICE_BUNDLE) {
                            Some(PropValue::Int(i)) => fw.bundle_by_id(*i as u64),
                            _ => None,
                        };
                        let result = self.register_component(
                            provider.descriptor.clone(),
                            provider.factory.clone(),
                            bundle,
                        );
                        if let Err(err) = result {
                            self.note(DrcrEvent::RegistrationRefused {
                                reason: err.to_string(),
                            });
                        }
                    }
                }
                (ServiceEventKind::Unregistering, true, _) => {
                    if let Some(PropValue::Str(name)) = e.properties.get(PROP_COMPONENT_NAME) {
                        let name = name.clone();
                        let _ = self.remove_component(&name, fw);
                    }
                }
                (_, _, true) => {
                    // Resolver arrived or departed: re-resolve. A waiter the
                    // internal policy rejected never reaches the services,
                    // and one a service rejected is ruled every sweep, so
                    // only a cyclic group's outcome can change unwatched.
                    self.dirty = true;
                    self.group_due = true;
                }
                _ => {}
            }
        }
        if self.dirty {
            self.dirty = false;
            self.resolve_all(fw);
        }
    }

    /// Polls the kernel for component tasks parked in
    /// [`TaskState::Faulted`] and applies each component's restart policy:
    /// quarantine (→ `Disabled`, reservation released) or restart
    /// (→ `Unsatisfied`, re-admitted through normal resolution, after the
    /// backoff delay if any). Also releases backoff holds whose virtual-time
    /// deadline has passed. Runs at the top of every [`Drcr::process`], so
    /// fault reaction latency is one management-poll period.
    fn supervise(&mut self, fw: &mut Framework) {
        let now = self.kernel.borrow().now();
        // Collect first: `note` and `deactivate` need the kernel un-borrowed.
        // The kernel indexes its faulted tasks, so this poll is O(faulted),
        // not O(components); sorting by component name preserves the
        // reaction order of the old full-table scan.
        let faulted: Vec<(Rc<str>, String, u64)> = {
            let kernel = self.kernel.borrow();
            let mut list: Vec<(Rc<str>, String, u64)> = kernel
                .faulted_tasks()
                .filter_map(|task| {
                    let name = self.task_names.get(&task)?;
                    let cause = kernel
                        .task_fault_cause(task)
                        .unwrap_or("unknown cause")
                        .to_string();
                    let total = kernel.task_faults(task).unwrap_or(1);
                    Some((name.clone(), cause, total))
                })
                .collect();
            list.sort_by(|a, b| a.0.cmp(&b.0));
            list
        };
        for (name, cause, total) in faulted {
            self.note(DrcrEvent::ComponentFault {
                component: name.to_string(),
                cause: cause.clone(),
                total_faults: total,
            });
            self.metrics.count("drcr.supervision.faults", 1);
            match self.supervisor.on_fault(&name, now) {
                FaultDecision::Quarantine { reason } => {
                    // The recorded evidence includes the fault cause
                    // (on_fault stored only the policy verdict).
                    let reason = format!("fault ({cause}); {reason}");
                    let _ = self.quarantine_component(&name, fw, &reason);
                }
                FaultDecision::Restart { attempt, delay } => {
                    let _ = self.deactivate(
                        &name,
                        fw,
                        ComponentState::Unsatisfied,
                        &format!("fault ({cause}); restart #{attempt}"),
                    );
                    self.note(DrcrEvent::RestartScheduled {
                        component: name.to_string(),
                        attempt,
                        delay_ns: delay.as_nanos(),
                    });
                    self.metrics.count("drcr.supervision.restarts", 1);
                    if delay == SimDuration::ZERO {
                        // Deactivation marked the executive dirty; the next
                        // resolve pass re-admits the component.
                        self.note(DrcrEvent::RestartAttempt {
                            component: name.to_string(),
                            attempt,
                        });
                    } else {
                        self.metrics
                            .observe("drcr.supervision.backoff_ns", delay.as_nanos());
                        self.supervisor.hold(name.clone(), now + delay, attempt);
                    }
                }
            }
        }
        for (name, attempt) in self.supervisor.release_expired(now) {
            // The component may have been removed, disabled or manually
            // re-activated while the hold was pending.
            if self
                .components
                .get(&*name)
                .is_some_and(|r| r.state == ComponentState::Unsatisfied)
            {
                self.note(DrcrEvent::RestartAttempt {
                    component: name.to_string(),
                    attempt,
                });
                // A release makes no transition: the engine wakes the
                // waiter it parked behind the hold.
                self.resolver.wake(&name);
                self.dirty = true;
            }
        }
    }

    /// Runs deactivation cascades and activation attempts to a fixpoint.
    fn resolve_all(&mut self, fw: &mut Framework) {
        self.resolve_round += 1;
        let round = self.resolve_round;
        self.note(DrcrEvent::ResolveRoundStarted { round });
        // The customized resolving services every candidate must also pass
        // (§4.3). A round never registers or removes one.
        let found = fw.registry().find(RESOLVER_SERVICE, None);
        let services: Vec<Rc<ResolverHandle>> = found
            .iter()
            .filter_map(|s| fw.registry().get::<ResolverHandle>(s.id()))
            .collect();
        let mut activations: u32 = 0;
        let mut deactivations: u32 = 0;
        let mut sweeps: u64 = 0;
        loop {
            sweeps += 1;
            let mut changed = false;

            // Deactivation sweep: running components whose functional
            // constraints may have broken fall back to Unsatisfied. The
            // engine nominates the candidates — the reactive engine walks
            // its dirty scope (only consumers of departed providers can
            // have broken), the naive reference re-visits every component.
            //
            // The engine is driven with a strictly ascending cursor rather
            // than draining its scope up front. A cascade seeds the
            // consumers of the component it just deactivated; a full-scan
            // reference visits those *this* sweep when they sort after the
            // current position and *next* sweep when they sort before it.
            // The cursor reproduces that order exactly, keeping the two
            // engines' event streams byte-identical.
            let mut cursor: Option<Rc<str>> = None;
            while let Some(name) = self.resolver.sweep_next(cursor.as_deref()) {
                cursor = Some(name.clone());
                if !self
                    .components
                    .get(&*name)
                    .is_some_and(|r| r.state.holds_admission())
                {
                    continue;
                }
                if self.cascade_check(&name, fw) {
                    deactivations += 1;
                    changed = true;
                }
            }

            // Activation sweep over the woken waiters.
            let mut activated = self.activate_wave(&services, fw);
            // Cyclically dependent components cannot activate one at a time
            // (each waits for the other). When the sweep stalls, try
            // co-activating a mutually-consistent group of the waiters left
            // waiting on inactive providers.
            if activated == 0 && !changed {
                activated = self.activate_group(&services, fw);
            }
            if activated > 0 {
                activations += activated;
                changed = true;
            }

            if !changed {
                break;
            }
        }
        self.note(DrcrEvent::ResolveRoundEnded {
            round,
            activations,
            deactivations,
        });
        self.metrics.count("drcr.resolve.rounds", 1);
        self.metrics.observe("drcr.resolve.sweeps", sweeps);
        if deactivations > 0 {
            self.metrics
                .observe("drcr.cascade.width", deactivations as u64);
        }
        self.update_admission_gauges();
    }

    /// Checks one component's functional constraints through the resolution
    /// engine, counting the work in the `drcr.wiring.*` metrics: `checks`
    /// for every query, and `graph_builds` when the engine rebuilt a wiring
    /// graph from scratch (the naive reference does; the reactive engine
    /// never does).
    fn check_wiring(&mut self, name: &str, assume_active: &[Rc<str>]) -> WiringResult {
        self.metrics.count("drcr.wiring.checks", 1);
        if self.resolver.builds_graphs() {
            self.metrics.count("drcr.wiring.graph_builds", 1);
        }
        let rec = &self.components[name];
        self.resolver.check_wiring(&rec.descriptor, assume_active)
    }

    /// The response-time analysis behind `component`'s verdict as a
    /// [`DrcrEvent::AdmissionAnalysis`] evidence event, with its WCRT fed
    /// into the `drcr.admission.wcrt_ns` histogram.
    fn analysis_event(&mut self, component: &str, analysis: &RtaAnalysis) -> DrcrEvent {
        if let Some(wcrt) = analysis.wcrt_of(component) {
            self.metrics.observe("drcr.admission.wcrt_ns", wcrt);
        }
        DrcrEvent::AdmissionAnalysis {
            component: component.to_string(),
            cpu: analysis.cpu,
            schedulable: analysis.schedulable,
            wcrts: analysis.wcrts.clone(),
        }
    }

    /// Re-checks one running component during the deactivation sweep,
    /// cascading it back to `Unsatisfied` when its wiring broke. Returns
    /// `true` when it cascaded. The cascade's diagnosis becomes the
    /// waiter's report, so the activation sweep does not repeat it.
    fn cascade_check(&mut self, name: &Rc<str>, fw: &mut Framework) -> bool {
        if self.components[&**name].descriptor.inports.is_empty() {
            return false;
        }
        let Err(missing) = self.check_wiring(name, &[]) else {
            return false;
        };
        let report = WaitReport::Unwired(missing);
        let reason = report.to_string();
        self.note(DrcrEvent::CascadeDeactivation {
            component: name.to_string(),
            reason: reason.clone(),
        });
        self.metrics.count("drcr.cascades", 1);
        if self
            .deactivate(name, fw, ComponentState::Unsatisfied, &reason)
            .is_ok()
        {
            self.keep_report(name, report);
            self.resolver.park(name, &[]);
        }
        true
    }

    /// One activation sweep over the woken waiters ([`Resolver::wake_next`])
    /// in name order, through the one activation pipeline: each waiter is
    /// **screened** (its wiring checked), **ruled** ([`Drcr::rule`]) and
    /// **committed** ([`Drcr::activate`]); one that stays waiting is
    /// settled ([`Drcr::settle`]). A waiter the sweep's own changes wake
    /// after the cursor is screened in this sweep. Returns how many went
    /// active.
    ///
    /// A batching engine ([`Resolver::batches`]) with no customized
    /// `services` (they rule per candidate and must see the view grow
    /// member by member) screens the waiters woken when the sweep starts
    /// as one wave and rules its passers in one pass per CPU
    /// ([`Drcr::screen_wave`]); the events keep the per-waiter order and
    /// differ only in the evidence payload. A declined wave, and the rest
    /// of a wave once a passer fails to go active, is ruled member by
    /// member. A screen that counted an earlier passer active is then
    /// checked again at its turn; every other screen still holds, as only
    /// earlier passers change state before a waiter's turn — unless a
    /// waiter woken during the sweep goes active, which drops the rest of
    /// the wave's screens and its batch.
    fn activate_wave(&mut self, services: &[Rc<ResolverHandle>], fw: &mut Framework) -> u32 {
        let (screened, mut batch) = if self.resolver.batches() && services.is_empty() {
            self.screen_wave()
        } else {
            (Vec::new(), None)
        };
        let mut screened = screened.into_iter().peekable();
        // Every passer so far went active.
        let mut intact = true;
        let mut activated: u32 = 0;
        let mut cursor: Option<Rc<str>> = None;
        while let Some(name) = self.resolver.wake_next(cursor.as_deref()) {
            cursor = Some(name.clone());
            if self.supervisor.is_held(&name) {
                // Behind a backoff hold: the release wakes it.
                self.resolver.park(&name, &[]);
                continue;
            }
            let screen = screened.next_if(|(waiter, ..)| *waiter == name);
            let in_wave = screen.is_some();
            let wiring = match screen {
                Some((_, wiring, relied)) if intact || !relied => wiring,
                _ => self.check_wiring(&name, &[]),
            };
            let providers = match wiring {
                Ok(providers) => providers,
                Err(missing) => {
                    self.settle(&name, WaitReport::Unwired(missing));
                    continue;
                }
            };
            let admitted = match &batch {
                // Every passer's WCRT is in its CPU's one analysis (the
                // pass models them all admitted).
                Some(analyses) if intact && in_wave => {
                    self.metrics.count("drcr.admission.checks", 1);
                    self.metrics.count("drcr.admission.batched", 1);
                    let cpu = self.components[&*name].descriptor.task.cpu();
                    let analysis = analyses.iter().find(|a| a.cpu == cpu);
                    let evidence =
                        self.analysis_event(&name, analysis.expect("one analysis per CPU"));
                    self.note(evidence);
                    self.note(verdict(
                        &name,
                        self.resolver.policy().name(),
                        true,
                        true,
                        "",
                    ));
                    true
                }
                _ => {
                    let candidate = self.components[&*name].info(name.clone());
                    match self.rule(&candidate, None, services) {
                        Ok(()) => {
                            self.emit_held();
                            true
                        }
                        Err(rejection) => {
                            self.settle(&name, WaitReport::Rejected(rejection));
                            false
                        }
                    }
                }
            };
            if admitted && self.activate(&name, fw, providers) {
                activated += 1;
                if !in_wave {
                    screened = Vec::new().into_iter().peekable();
                    batch = None;
                }
            } else if in_wave {
                intact = false;
            }
        }
        activated
    }

    /// Screens the waiters woken when a sweep starts as one arrival wave,
    /// as the per-waiter sweep would see them: each waiter's wiring is
    /// checked with the passers before it counted active (they all
    /// activate if the wave commits). Returns each waiter with its wiring
    /// and whether its check counted a passer, plus — for two or more
    /// passers — the policy's one-pass-per-CPU admission of them all
    /// ([`ResolvingService::admit_batch`]: one analysis per touched CPU; see
    /// [`crate::rta::RtaResolver::analyze_batch`] for the soundness
    /// argument), or `None` when it declines (mixed task models, an
    /// unschedulable CPU; counted in `drcr.admission.batches_declined`).
    fn screen_wave(&mut self) -> (Vec<Screen>, Option<Vec<RtaAnalysis>>) {
        let mut screened = Vec::new();
        let mut passers: Vec<Rc<str>> = Vec::new();
        let mut provided: HashSet<ObjName> = HashSet::new();
        let mut cursor: Option<Rc<str>> = None;
        while let Some(name) = self.resolver.wake_next(cursor.as_deref()) {
            cursor = Some(name.clone());
            if self.supervisor.is_held(&name) {
                continue;
            }
            // Only a waiter reading a channel an earlier passer provides
            // can see a different wiring than the strict check.
            let descriptor = &self.components[&*name].descriptor;
            let relies = descriptor
                .inports
                .iter()
                .any(|p| provided.contains(&p.name));
            let wiring = self.check_wiring(&name, if relies { &passers } else { &[] });
            if wiring.is_ok() {
                passers.push(name.clone());
                let outports = &self.components[&*name].descriptor.outports;
                provided.extend(outports.iter().map(|p| p.name));
            }
            screened.push((name, wiring, relies));
        }
        if passers.len() < 2 {
            return (screened, None);
        }
        let candidates: Vec<ComponentInfo> = passers
            .iter()
            .map(|name| self.components[&**name].info(name.clone()))
            .collect();
        let batch = self.resolver.policy().admit_batch(&candidates, &self.view);
        match &batch {
            Some(analyses) => {
                self.metrics.count("drcr.admission.batches", 1);
                self.metrics
                    .count("drcr.admission.rta_passes", analyses.len() as u64);
            }
            None => self.metrics.count("drcr.admission.batches_declined", 1),
        }
        (screened, batch)
    }

    /// Co-activates a dependency cycle the sweep could not break, once
    /// something it waits on changed since the last attempt. Of the stalled
    /// waiters (those waiting only on inactive providers), the largest set
    /// whose wiring holds with each other counted active (the greatest
    /// fixpoint) is ruled all-or-nothing before any member activates: each
    /// member against the view with the members ruled before it counted
    /// admitted, so a cycle goes active only when its members fit
    /// together. A rejection abandons the group and parks its members on
    /// their channels and every CPU the group uses. A member that fails to
    /// activate rolls back the members before it, so no partly-active
    /// cycle is left. Returns the number of components activated.
    fn activate_group(&mut self, services: &[Rc<ResolverHandle>], fw: &mut Framework) -> u32 {
        if !std::mem::take(&mut self.group_due) {
            return 0;
        }
        let mut group: Vec<Rc<str>> = self.stalled.iter().cloned().collect();
        // Strike out members whose constraints fail even under the
        // assumption, until stable. A group of one would have activated in
        // the sweep already.
        let providers = loop {
            if group.len() < 2 {
                return 0;
            }
            let mut kept = Vec::with_capacity(group.len());
            let mut providers = Vec::with_capacity(group.len());
            for name in &group {
                if let Ok(p) = self.check_wiring(name, &group) {
                    kept.push(name.clone());
                    providers.push(p);
                }
            }
            if kept.len() == group.len() {
                break providers;
            }
            group = kept;
        };
        let mut cpus: Vec<u32> = group
            .iter()
            .map(|name| self.components[&**name].descriptor.task.cpu())
            .collect();
        cpus.sort_unstable();
        cpus.dedup();
        let mut hypothetical = self.view.clone();
        for name in &group {
            let candidate = self.components[&**name].info(name.clone());
            if let Err(rejection) = self.rule(&candidate, Some(&hypothetical), services) {
                let missing = match &self.components[&**name].report {
                    Some(
                        WaitReport::Unwired(m) | WaitReport::GroupAbandoned { missing: m, .. },
                    ) => m.clone(),
                    _ => unreachable!("a stalled waiter's report waits on its wiring"),
                };
                let internal = rejection.internal;
                self.settle(name, WaitReport::GroupAbandoned { missing, rejection });
                for member in &group {
                    if internal {
                        self.resolver.park(member, &cpus);
                    } else {
                        self.resolver.wake(member);
                    }
                }
                // Settling is no change to wait on.
                self.group_due = false;
                return 0;
            }
            let idx = hypothetical
                .position(name)
                .expect("registered components are in the view");
            hypothetical.set_state_at(idx, ComponentState::Active);
        }
        self.emit_held();
        self.note(DrcrEvent::GroupCoActivation {
            members: group.iter().map(|s| s.to_string()).collect(),
        });
        for (i, (name, providers)) in group.iter().zip(providers).enumerate() {
            if !self.activate(name, fw, providers) {
                // The rollback restores the state this round already
                // resolved, so it leaves no new work for the next one.
                let dirty = self.dirty;
                let reason = format!("group member `{name}` failed to activate");
                for member in group[..i].iter().rev() {
                    let _ = self.deactivate(member, fw, ComponentState::Unsatisfied, &reason);
                }
                self.dirty = dirty;
                return 0;
            }
        }
        group.len() as u32
    }

    /// The rule step: the engine's internal verdict on `candidate`, then
    /// each customized resolving service's (§4.3: all must admit),
    /// stopping at the first rejection, which is returned (and counted in
    /// `drcr.admission.rejections`). A cyclic group's member is ruled
    /// against the `hypothetical` view its group builds; every other
    /// candidate against the live view. The ruling's events are held back
    /// for its outcome: the analysis evidence of an RTA ruling and,
    /// outside a group, each admitting verdict.
    fn rule(
        &mut self,
        candidate: &ComponentInfo,
        hypothetical: Option<&SystemView>,
        services: &[Rc<ResolverHandle>],
    ) -> Result<(), Rejection> {
        let group = hypothetical.is_some();
        self.metrics.count("drcr.admission.checks", 1);
        self.metrics.count("drcr.admission.evals", 1);
        let policy = self.resolver.policy();
        let (decision, analysis) = policy.rule(candidate, hypothetical.unwrap_or(&self.view));
        let internal = policy.name().to_string();
        if let Some(analysis) = &analysis {
            self.metrics.count("drcr.admission.rta_passes", 1);
            let evidence = self.analysis_event(&candidate.name, analysis);
            self.held.push(evidence);
        }
        let (resolver, internal, reason) = 'ruled: {
            if let Decision::Reject(reason) = decision {
                break 'ruled (internal, true, reason);
            }
            if !group {
                self.held
                    .push(verdict(&candidate.name, &internal, true, true, ""));
            }
            for handle in services {
                let name = handle.0.name();
                match handle
                    .0
                    .admit(candidate, hypothetical.unwrap_or(&self.view))
                {
                    Decision::Admit if !group => {
                        self.held
                            .push(verdict(&candidate.name, name, false, true, ""))
                    }
                    Decision::Admit => {}
                    Decision::Reject(reason) => break 'ruled (name.to_string(), false, reason),
                }
            }
            return Ok(());
        };
        self.metrics.count("drcr.admission.rejections", 1);
        Err(Rejection {
            resolver,
            internal,
            reason,
            analysis,
        })
    }

    /// Emits the held-back events of an admitting ruling.
    fn emit_held(&mut self) {
        let mut held = std::mem::take(&mut self.held);
        for event in held.drain(..) {
            self.note(event);
        }
        self.held = held;
    }

    /// Makes `report` the last report of the waiter `name` and returns
    /// whether it differs from the one before. A wiring diagnosis equal to
    /// the one a group abandonment recorded keeps the abandonment.
    fn keep_report(&mut self, name: &Rc<str>, report: WaitReport) -> bool {
        if report.stalled() {
            self.stalled.insert(name.clone());
            self.group_due = true;
        } else if self.stalled.remove(&**name) {
            self.group_due = true;
        }
        let rec = self
            .components
            .get_mut(&**name)
            .expect("a waiter is registered");
        let unchanged = match (&rec.report, &report) {
            (
                Some(WaitReport::GroupAbandoned { missing: kept, .. }),
                WaitReport::Unwired(missing),
            ) => kept == missing,
            (kept, report) => kept.as_ref() == Some(report),
        };
        if !unchanged {
            rec.report = Some(report);
        }
        !unchanged
    }

    /// Settles why a screened waiter still waits: `report` becomes its last
    /// report ([`Drcr::keep_report`]), and its events — the held-back ones
    /// of the ruling behind it, then the report's own — are emitted only
    /// when it differs from the one before. The waiter is then parked on
    /// what the report depends on: its inport channels, and its CPU's
    /// admission holders when the internal policy rejected it. A
    /// customized service's rejection or an activation error may turn on
    /// anything, so that waiter is screened again next sweep.
    fn settle(&mut self, name: &Rc<str>, report: WaitReport) {
        let cpu = [self.components[&**name].descriptor.task.cpu()];
        let watch = match &report {
            WaitReport::Unwired(_) => Some(&[][..]),
            WaitReport::Rejected(r) | WaitReport::GroupAbandoned { rejection: r, .. } => {
                r.internal.then_some(&cpu[..])
            }
            WaitReport::ActivationFailed(_) => None,
        };
        if self.keep_report(name, report) {
            self.emit_held();
            let event = self.components[&**name].report.as_ref().expect("just kept");
            let event = report_event(event, name);
            self.note(event);
        } else {
            self.held.clear();
        }
        match watch {
            Some(cpus) => self.resolver.park(name, cpus),
            None => self.resolver.wake(name),
        }
    }

    /// The commit step: channels, RT task, admission, management service
    /// registration, lifecycle transition. True when `name` went active; a
    /// failure is settled as its report.
    fn activate(
        &mut self,
        name: &Rc<str>,
        fw: &mut Framework,
        providers: Vec<(String, String)>,
    ) -> bool {
        let activated = self.transition(
            name,
            Some(ComponentState::Unsatisfied),
            ComponentState::Active,
            "constraints satisfied; admitted",
            |drcr| drcr.build(name, fw, providers),
        );
        match activated {
            Ok(()) => {
                self.metrics.count("drcr.activations", 1);
                true
            }
            Err(err) => {
                self.settle(name, WaitReport::ActivationFailed(err.to_string()));
                false
            }
        }
    }

    /// The kernel side of an activation: kernel objects, reservation and
    /// management service. The objects are listed as they are created and
    /// the list kept on the record for teardown, so a failure part-way
    /// (e.g. a channel-shape conflict with an unrelated kernel object)
    /// releases them all and leaves nothing behind, with a
    /// [`DrcrEvent::Rollback`].
    fn build(
        &mut self,
        name: &str,
        fw: &mut Framework,
        providers: Vec<(String, String)>,
    ) -> Result<(), DrcrError> {
        // The record's contract and factory, shared rather than copied.
        let (descriptor, factory) = {
            let rec = &self.components[name];
            (rec.descriptor.clone(), rec.factory.clone())
        };
        let lowered = lower(
            &descriptor,
            self.enforce_budgets.then_some(CONTAINER_OVERHEAD_NS),
        )?;
        let mut objects = Vec::new();
        let built = self
            .create_objects(&descriptor, lowered, factory, &mut objects)
            .and_then(|bridge| {
                self.ledger
                    .reserve(name, descriptor.task.cpu(), descriptor.cpu_usage.fraction())
                    .map_err(|e| DrcrError::Kernel(e.to_string()))?;
                Ok(bridge)
            });
        let (task, cmd_mbx, reply_mbx) = match built {
            Ok(bridge) => bridge,
            Err(err) => {
                release(&mut self.kernel.borrow_mut(), objects);
                self.note(DrcrEvent::Rollback {
                    component: name.to_string(),
                    reason: err.to_string(),
                });
                self.metrics.count("drcr.rollbacks", 1);
                return Err(err);
            }
        };

        let mgmt = self.self_ref.upgrade().map(|drcr| {
            let service: Rc<dyn RtComponentManagement> = Rc::new(DrcrManagement {
                drcr,
                component: name.to_string(),
            });
            fw.registry_mut().register(
                &[MANAGEMENT_SERVICE],
                Rc::new(ManagementHandle(service)),
                Properties::new()
                    .with(PROP_COMPONENT_NAME, name)
                    .with("drt.cpu", descriptor.task.cpu() as i64)
                    .with("drt.cpuusage", descriptor.cpu_usage.fraction()),
            )
        });
        let key = self
            .components
            .get_key_value(name)
            .expect("present")
            .0
            .clone();
        let rec = self.components.get_mut(name).expect("present");
        rec.objects = objects;
        rec.task = Some(task);
        rec.mgmt = mgmt;
        rec.cmd_mbx = cmd_mbx;
        rec.reply_mbx = reply_mbx;
        rec.providers = providers;
        self.task_names.insert(task, key);
        Ok(())
    }

    /// Creates an activation's kernel objects in order — port channels,
    /// the §3.2 bridge mailboxes, the RT task — pushing each onto
    /// `objects` as it is made. Returns the task and bridge mailboxes.
    fn create_objects(
        &mut self,
        descriptor: &ComponentDescriptor,
        lowered: Lowering<'_>,
        factory: LogicFactory,
        objects: &mut Vec<KernelObject>,
    ) -> Result<(TaskId, Option<ObjName>, Option<ObjName>), DrcrError> {
        let mut kernel = self.kernel.borrow_mut();

        // 1. Port channels: providers own their outport channels; consumers
        //    attach to SHM (refcounted) and share mailboxes.
        for (direction, port, channel) in lowered.channels() {
            let name = port.name;
            match (direction, channel) {
                (
                    _,
                    Channel::Shm {
                        data_type,
                        elements,
                    },
                ) => {
                    kernel.shm_mut().alloc(name.as_str(), data_type, elements)?;
                    objects.push(KernelObject::Shm(name));
                }
                (PortDirection::In, _) => {}
                (PortDirection::Out, Channel::Mailbox { capacity }) => {
                    kernel.mailboxes_mut().create(name.as_str(), capacity)?;
                    objects.push(KernelObject::Mailbox(name));
                }
                (PortDirection::Out, Channel::Fifo { capacity }) => {
                    kernel.fifos_mut().create(name.as_str(), capacity)?;
                    objects.push(KernelObject::Fifo(name));
                }
            }
        }

        // 2. The §3.2 intra-component bridge. Channel names are allocated
        // from a wrap-around counter, skipping names still held by live
        // components so long-running systems never alias two bridges.
        // Kernel object names cap at 6 ASCII alphanumerics, so the counter
        // is rendered as 5 base-36 digits — a 60M-name space, far wider
        // than any realistic live-component count, so the skip loop
        // terminates on its first probe in practice.
        let (cmd_mbx, reply_mbx) = match self.bridge {
            BridgeMode::Disconnected => (None, None),
            _ => {
                const BASE36_SPACE: u32 = 36 * 36 * 36 * 36 * 36;
                fn base36(mut v: u32) -> [u8; 5] {
                    const DIGITS: &[u8; 36] = b"0123456789abcdefghijklmnopqrstuvwxyz";
                    let mut out = [b'0'; 5];
                    for slot in out.iter_mut().rev() {
                        *slot = DIGITS[(v % 36) as usize];
                        v /= 36;
                    }
                    out
                }
                let mut chosen = None;
                for _ in 0..100_000 {
                    self.next_chan = self.next_chan.wrapping_add(1);
                    let digits = base36(self.next_chan % BASE36_SPACE);
                    let tail = std::str::from_utf8(&digits).expect("base36 is ASCII");
                    let name = |prefix| {
                        ObjName::new(format!("{prefix}{tail}")).expect("bridge names are valid")
                    };
                    let (c, r) = (name('c'), name('r'));
                    if kernel.mailboxes().get(c.as_str()).is_none()
                        && kernel.mailboxes().get(r.as_str()).is_none()
                    {
                        chosen = Some((c, r));
                        break;
                    }
                }
                let (c, r) = chosen
                    .ok_or_else(|| DrcrError::Kernel("no free bridge channel names".into()))?;
                for mbx in [c, r] {
                    kernel.mailboxes_mut().create(mbx.as_str(), 16)?;
                    objects.push(KernelObject::Mailbox(mbx));
                }
                (Some(c), Some(r))
            }
        };

        // 3. The RT task.
        let bindings: Vec<PortBinding> = descriptor
            .ports()
            .map(|(direction, spec)| PortBinding {
                spec: *spec,
                direction,
            })
            .collect();
        let body = HybridRtBody::new(
            factory(),
            bindings,
            descriptor.properties.clone(),
            cmd_mbx,
            reply_mbx,
            self.bridge,
        );
        let task = kernel.create_task(lowered.task, Box::new(body))?;
        objects.push(KernelObject::Task(task));
        kernel.start_task(task)?;
        // Event-driven components: aperiodic tasks wake on arrivals at
        // their mailbox inports.
        if !descriptor.task.is_periodic() {
            for port in &descriptor.inports {
                if port.interface == PortInterface::Mailbox {
                    let _ = kernel.bind_mailbox_wakeup(port.name.as_str(), task);
                }
            }
        }
        Ok((task, cmd_mbx, reply_mbx))
    }

    /// Moves a component to `to` (Unsatisfied, Disabled or Destroyed),
    /// first releasing whatever its activation holds: kernel objects,
    /// reservation and management service.
    fn deactivate(
        &mut self,
        name: &str,
        fw: &mut Framework,
        to: ComponentState,
        reason: &str,
    ) -> Result<(), DrcrError> {
        // The engine seeds this component's consumers into its dirty scope
        // (a departed provider is the only way a satisfied check breaks)
        // and wakes the waiting ones.
        let held = self
            .state_of(name)
            .is_some_and(ComponentState::holds_admission);
        self.transition(name, None, to, reason, |drcr| {
            if held {
                drcr.teardown(name, fw);
            }
            Ok(())
        })?;
        if held {
            self.metrics.count("drcr.deactivations", 1);
        }
        self.dirty = true;
        Ok(())
    }

    /// Releases everything an admission-holding component's activation
    /// holds.
    fn teardown(&mut self, name: &str, fw: &mut Framework) {
        let rec = self.components.get_mut(name).expect("transition checked");
        let objects = std::mem::take(&mut rec.objects);
        let task = rec.task.take();
        let mgmt = rec.mgmt.take();
        rec.cmd_mbx = None;
        rec.reply_mbx = None;
        rec.providers.clear();
        rec.reply_buffer.clear();
        release(&mut self.kernel.borrow_mut(), objects);
        if let Some(task) = task {
            self.task_names.remove(&task);
        }
        // The ledger's NotReserved guard makes a double release loud
        // instead of silently skewing totals.
        let released = self.ledger.release(name);
        debug_assert!(
            released.is_ok(),
            "`{name}` held admission but no ledger reservation"
        );
        if let Some(svc) = mgmt {
            fw.registry_mut().unregister(svc);
        }
    }

    // ------------------------------------------------------------------
    // Management operations (called through DrcrManagement)
    // ------------------------------------------------------------------

    /// Suspends an active component, keeping its admission reservation.
    ///
    /// # Errors
    ///
    /// [`DrcrError::IllegalTransition`] unless the component is active.
    pub fn suspend_component(&mut self, name: &str) -> Result<(), DrcrError> {
        // A suspended provider stops feeding its consumers: the engine
        // seeds them into its dirty scope and the next pass re-resolves. A
        // component consuming its own outport seeds itself here, which is
        // required — it no longer provides its own input.
        self.transition(
            name,
            None,
            ComponentState::Suspended,
            "management suspend",
            |drcr| {
                let task = drcr.components[name]
                    .task
                    .expect("active component has a task");
                Ok(drcr.kernel.borrow_mut().suspend_task(task)?)
            },
        )?;
        self.dirty = true;
        Ok(())
    }

    /// Resumes a suspended component.
    ///
    /// # Errors
    ///
    /// [`DrcrError::IllegalTransition`] unless the component is suspended.
    pub fn resume_component(&mut self, name: &str) -> Result<(), DrcrError> {
        let source = Some(ComponentState::Suspended);
        self.transition(
            name,
            source,
            ComponentState::Active,
            "management resume",
            |drcr| {
                let task = drcr.components[name]
                    .task
                    .expect("suspended component keeps its task");
                Ok(drcr.kernel.borrow_mut().resume_task(task)?)
            },
        )?;
        self.dirty = true;
        Ok(())
    }

    /// Disables a component (deactivating it first if needed); it is
    /// ignored by resolution until re-enabled.
    ///
    /// # Errors
    ///
    /// [`DrcrError::NoSuchComponent`] / illegal transitions.
    pub fn disable_component(&mut self, name: &str, fw: &mut Framework) -> Result<(), DrcrError> {
        self.deactivate(name, fw, ComponentState::Disabled, "management disable")
    }

    /// Quarantines a component: a disable with a recorded cause. It falls
    /// to `Disabled` (reservation released, consumers cascaded) and is
    /// marked so [`Drcr::is_quarantined`] reports it, with a
    /// [`DrcrEvent::Quarantined`] event and the `supervision.quarantines`
    /// counter. Fault supervision and contract enforcement both quarantine
    /// through here.
    ///
    /// # Errors
    ///
    /// [`DrcrError::NoSuchComponent`] / illegal transitions.
    pub fn quarantine_component(
        &mut self,
        name: &str,
        fw: &mut Framework,
        reason: &str,
    ) -> Result<(), DrcrError> {
        self.deactivate(name, fw, ComponentState::Disabled, reason)?;
        self.supervisor.quarantine(name, reason);
        self.note(DrcrEvent::Quarantined {
            component: name.to_string(),
            reason: reason.to_string(),
        });
        self.metrics.count("drcr.supervision.quarantines", 1);
        Ok(())
    }

    /// Re-enables a disabled component (the descriptor's
    /// `enableRTComponent` method).
    ///
    /// # Errors
    ///
    /// [`DrcrError::IllegalTransition`] unless the component is disabled.
    pub fn enable_component(&mut self, name: &str) -> Result<(), DrcrError> {
        let source = Some(ComponentState::Disabled);
        let to = ComponentState::Unsatisfied;
        self.transition(name, source, to, "management enable", |drcr| {
            // Operator re-enable grants a fresh slate: quarantine flag,
            // restart budget and fault window all reset.
            drcr.supervisor.reset(name);
            Ok(())
        })?;
        self.dirty = true;
        Ok(())
    }

    fn send_command(&mut self, name: &str, command: Command) -> Result<(), DrcrError> {
        let rec = self
            .components
            .get(name)
            .ok_or_else(|| DrcrError::NoSuchComponent(name.to_string()))?;
        let Some(cmd_mbx) = rec.cmd_mbx else {
            return Err(DrcrError::Management(format!(
                "component `{name}` has no management channel (state {:?})",
                rec.state
            )));
        };
        let token = match &command {
            Command::SetProperty { .. } => None,
            Command::GetProperty { token, .. }
            | Command::QueryStatus { token }
            | Command::Ping { token } => Some(*token),
        };
        let frame = command
            .encode()
            .map_err(|e| DrcrError::Management(e.to_string()))?;
        let (queued, depth, now) = {
            let mut kernel = self.kernel.borrow_mut();
            let queued = kernel
                .mailboxes_mut()
                .send(cmd_mbx.as_str(), &frame)
                .map_err(|e| DrcrError::Management(e.to_string()))?;
            let depth = kernel
                .mailboxes()
                .get(cmd_mbx.as_str())
                .map_or(0, |m| m.len());
            (queued, depth, kernel.now())
        };
        if !queued {
            return Err(DrcrError::Management(format!(
                "command mailbox of `{name}` is full"
            )));
        }
        if let Some(token) = token {
            self.pending_replies
                .insert(token, (name.to_string(), now.as_nanos()));
        }
        self.bridge_events.emit(
            now,
            BridgeEvent::CommandEnqueued {
                component: name.to_string(),
                token,
                depth,
            },
        );
        self.metrics.count("bridge.commands", 1);
        self.metrics.observe("bridge.cmd_mbx.depth", depth as u64);
        Ok(())
    }

    fn fresh_token(&mut self) -> u32 {
        self.next_token += 1;
        self.next_token
    }

    fn drain_replies(&mut self, name: &str) -> Result<(), DrcrError> {
        let Some(rec) = self.components.get(name) else {
            return Err(DrcrError::NoSuchComponent(name.to_string()));
        };
        let Some(reply_mbx) = rec.reply_mbx else {
            return Ok(());
        };
        let mut drained: u32 = 0;
        loop {
            let msg = self
                .kernel
                .borrow_mut()
                .mailboxes_mut()
                .recv(reply_mbx.as_str())
                .map_err(|e| DrcrError::Management(e.to_string()))?;
            let Some(msg) = msg else { break };
            let Ok(reply) = Reply::decode(&msg) else {
                continue;
            };
            let token = reply.token();
            let decoded = match reply {
                Reply::Property { name, value, .. } => ManagementReply::Property { name, value },
                Reply::Status { cycles, at_ns, .. } => ManagementReply::Status { cycles, at_ns },
                Reply::Pong { .. } => ManagementReply::Pong,
            };
            drained += 1;
            let now = self.kernel.borrow().now();
            if let Some((component, sent_ns)) = self.pending_replies.remove(&token) {
                let latency_ns = now.as_nanos().saturating_sub(sent_ns);
                self.bridge_events.emit(
                    now,
                    BridgeEvent::ReplyLatency {
                        component,
                        token,
                        latency_ns,
                    },
                );
                self.metrics.observe("bridge.reply_latency_ns", latency_ns);
            }
            self.components
                .get_mut(name)
                .expect("checked above")
                .reply_buffer
                .insert(token, decoded);
        }
        if drained > 0 {
            self.metrics.count("bridge.replies", drained as u64);
            self.note_bridge(BridgeEvent::RepliesDrained {
                component: name.to_string(),
                count: drained,
            });
        }
        Ok(())
    }

    /// Emits an executive event stamped with current virtual time. Must not
    /// be called while the kernel is borrowed (use the sink directly there).
    pub(crate) fn note(&mut self, event: DrcrEvent) {
        let now = self.kernel.borrow().now();
        self.events.emit(now, event);
    }

    /// Emits a bridge event stamped with current virtual time.
    fn note_bridge(&mut self, event: BridgeEvent) {
        let now = self.kernel.borrow().now();
        self.bridge_events.emit(now, event);
    }

    /// Refreshes the per-CPU reserved-utilization gauges from the ledger's
    /// running totals — once per resolve round: every
    /// activation/deactivation happens inside, or is immediately followed
    /// by, a resolve round.
    fn update_admission_gauges(&mut self) {
        for (cpu, key) in (0..).zip(&self.gauge_keys) {
            self.metrics.gauge(key, self.ledger.utilization(cpu));
        }
    }
}

/// The management service the DRCR registers per active component.
///
/// Holds the shared executive, so every call goes through the DRCR and the
/// global view stays accurate.
pub struct DrcrManagement {
    drcr: Rc<RefCell<Drcr>>,
    component: String,
}

impl fmt::Debug for DrcrManagement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DrcrManagement({})", self.component)
    }
}

impl RtComponentManagement for DrcrManagement {
    fn component_name(&self) -> &str {
        &self.component
    }

    fn state(&self) -> ComponentState {
        self.drcr
            .borrow()
            .state_of(&self.component)
            .unwrap_or(ComponentState::Destroyed)
    }

    fn suspend(&self) -> Result<(), DrcrError> {
        self.drcr.borrow_mut().suspend_component(&self.component)
    }

    fn resume(&self) -> Result<(), DrcrError> {
        self.drcr.borrow_mut().resume_component(&self.component)
    }

    fn set_property(&self, name: &str, value: PropertyValue) -> Result<(), DrcrError> {
        self.drcr.borrow_mut().send_command(
            &self.component,
            Command::SetProperty {
                name: name.to_string(),
                value,
            },
        )
    }

    fn request_property(&self, name: &str) -> Result<RequestToken, DrcrError> {
        let mut drcr = self.drcr.borrow_mut();
        let token = drcr.fresh_token();
        drcr.send_command(
            &self.component,
            Command::GetProperty {
                token,
                name: name.to_string(),
            },
        )?;
        Ok(RequestToken(token))
    }

    fn request_status(&self) -> Result<RequestToken, DrcrError> {
        let mut drcr = self.drcr.borrow_mut();
        let token = drcr.fresh_token();
        drcr.send_command(&self.component, Command::QueryStatus { token })?;
        Ok(RequestToken(token))
    }

    fn poll_reply(&self, token: RequestToken) -> Result<Option<ManagementReply>, DrcrError> {
        let mut drcr = self.drcr.borrow_mut();
        drcr.drain_replies(&self.component)?;
        Ok(drcr
            .components
            .get_mut(self.component.as_str())
            .and_then(|r| r.reply_buffer.remove(&token.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::{FnLogic, RtIo};
    use crate::manage::ComponentControl;
    use crate::runtime::DrtRuntime;
    use rtos::kernel::KernelConfig;
    use rtos::latency::TimerJitterModel;
    use rtos::shm::DataType;
    use ComponentState::*;

    fn component(name: &str, enabled: bool, inport: bool) -> ComponentProvider {
        let mut builder = ComponentDescriptor::builder(name)
            .periodic(100, 0, 2)
            .cpu_usage(0.1)
            .enabled(enabled);
        if inport {
            builder = builder.inport("nochan", PortInterface::Shm, DataType::Integer, 1);
        }
        ComponentProvider::new(builder.build().unwrap(), || {
            Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
        })
    }

    /// One component in each reachable resting state: `act` Active, `sus`
    /// Suspended, `wait` Unsatisfied (its inport has no provider) and `off`
    /// Disabled.
    fn runtime() -> DrtRuntime {
        let mut rt = DrtRuntime::new(KernelConfig::new(5).with_timer(TimerJitterModel::ideal()));
        rt.install_component("b.act", component("act", true, false))
            .unwrap();
        rt.install_component("b.sus", component("sus", true, false))
            .unwrap();
        rt.install_component("b.wait", component("wait", true, true))
            .unwrap();
        rt.install_component("b.off", component("off", false, false))
            .unwrap();
        rt.suspend_component("sus").unwrap();
        rt.advance(SimDuration::from_millis(30));
        for (name, state) in [("act", Active), ("sus", Suspended), ("wait", Unsatisfied)] {
            assert_eq!(rt.component_state(name), Some(state), "{name}");
        }
        assert_eq!(rt.component_state("off"), Some(Disabled));
        rt
    }

    /// Everything a refused step must leave untouched: each component's
    /// state, task and stamps, the lifecycle sequence and the ledger.
    fn snapshot(rt: &DrtRuntime) -> String {
        let drcr = rt.drcr();
        let per_component: Vec<_> = ["act", "sus", "wait", "off"]
            .iter()
            .map(|n| (drcr.state_of(n), drcr.task_of(n), drcr.stamps(n)))
            .collect();
        format!(
            "{per_component:?} seq {} ledger {:?}",
            drcr.lifecycle_seq(),
            (0..drcr.ledger().cpu_count())
                .map(|cpu| drcr.ledger().utilization(cpu))
                .collect::<Vec<_>>()
        )
    }

    /// Runs `op` on `name` and checks it is refused as `from → to`, with
    /// no event, no state change and no kernel or ledger change.
    fn assert_refused(
        rt: &mut DrtRuntime,
        name: &str,
        (from, to): (ComponentState, ComponentState),
        op: impl FnOnce(&mut DrtRuntime, &str) -> Result<(), DrcrError>,
    ) {
        let before = snapshot(rt);
        let events = rt.drcr().events().len();
        let err = op(rt, name).expect_err("the step is illegal");
        assert_eq!(
            err,
            DrcrError::IllegalTransition {
                component: name.to_string(),
                from,
                to,
            }
        );
        assert_eq!(
            rt.drcr().events().len(),
            events,
            "`{name}` emitted an event"
        );
        assert_eq!(snapshot(rt), before, "`{name}` changed the executive");
    }

    #[test]
    fn suspend_from_an_illegal_state_changes_nothing() {
        let mut rt = runtime();
        let suspend = |rt: &mut DrtRuntime, n: &str| rt.suspend_component(n);
        assert_refused(&mut rt, "wait", (Unsatisfied, Suspended), suspend);
        assert_refused(&mut rt, "sus", (Suspended, Suspended), suspend);
        assert_refused(&mut rt, "off", (Disabled, Suspended), suspend);
    }

    #[test]
    fn resume_from_an_illegal_state_changes_nothing() {
        let mut rt = runtime();
        let resume = |rt: &mut DrtRuntime, n: &str| rt.resume_component(n);
        assert_refused(&mut rt, "act", (Active, Active), resume);
        // Unsatisfied → Active is resolution's step, not resume's.
        assert_refused(&mut rt, "wait", (Unsatisfied, Active), resume);
        assert_refused(&mut rt, "off", (Disabled, Active), resume);
    }

    #[test]
    fn enable_from_an_illegal_state_changes_nothing() {
        let mut rt = runtime();
        let enable = |rt: &mut DrtRuntime, n: &str| rt.enable_component(n);
        // Active → Unsatisfied is a deactivation, not an enable.
        assert_refused(&mut rt, "act", (Active, Unsatisfied), enable);
        assert_refused(&mut rt, "sus", (Suspended, Unsatisfied), enable);
        assert_refused(&mut rt, "wait", (Unsatisfied, Unsatisfied), enable);
    }

    #[test]
    fn disable_from_an_illegal_state_changes_nothing() {
        let mut rt = runtime();
        let disable = |rt: &mut DrtRuntime, n: &str| rt.disable_component(n);
        assert_refused(&mut rt, "off", (Disabled, Disabled), disable);
    }

    #[test]
    fn quarantine_from_an_illegal_state_changes_nothing() {
        let mut rt = runtime();
        let quarantine = |rt: &mut DrtRuntime, n: &str| rt.quarantine_component(n, "test");
        assert_refused(&mut rt, "off", (Disabled, Disabled), quarantine);
        assert!(!rt.drcr().is_quarantined("off"));
    }

    #[test]
    fn a_group_member_that_fails_to_activate_rolls_its_group_back() {
        // `ga` ⇄ `gb` over mailboxes; an unrelated mailbox already holds
        // `gb`'s outport name, so `gb`'s activation fails after `ga`'s.
        let member = |name: &str, reads: &str, writes: &str| {
            let d = ComponentDescriptor::builder(name)
                .periodic(100, 0, 2)
                .cpu_usage(0.1)
                .inport(reads, PortInterface::Mailbox, DataType::Integer, 1)
                .outport(writes, PortInterface::Mailbox, DataType::Integer, 1)
                .build()
                .unwrap();
            ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
        };
        let mut rt = DrtRuntime::new(KernelConfig::new(5).with_timer(TimerJitterModel::ideal()));
        rt.kernel_mut().mailboxes_mut().create("ba", 4).unwrap();
        rt.install_component("b.ga", member("ga", "ba", "ab"))
            .unwrap();
        rt.install_component("b.gb", member("gb", "ab", "ba"))
            .unwrap();
        assert_eq!(rt.component_state("ga"), Some(Unsatisfied));
        assert_eq!(rt.component_state("gb"), Some(Unsatisfied));
        assert_eq!(rt.drcr().ledger().utilization(0), 0.0);
        assert!(rt.kernel().mailboxes().get("ab").is_none(), "`ga` leaked");
        let drcr = rt.drcr();
        let steps: Vec<String> = drcr
            .events()
            .iter()
            .skip_while(|e| !matches!(e.event, DrcrEvent::GroupCoActivation { .. }))
            .filter(|e| matches!(e.event, DrcrEvent::Transition { .. }))
            .map(|e| e.event.to_string())
            .collect();
        assert_eq!(
            steps,
            [
                "ga: UNSATISFIED -> ACTIVE (constraints satisfied; admitted)",
                "ga: ACTIVE -> UNSATISFIED (group member `gb` failed to activate)",
            ]
        );
        assert!(drcr.events().iter().any(|e| matches!(
            &e.event,
            DrcrEvent::ActivationFailed { component, .. } if component == "gb"
        )));
    }

    #[test]
    fn legal_management_steps_each_emit_one_transition() {
        let mut rt = runtime();
        let seq = rt.drcr().lifecycle_seq();
        rt.resume_component("sus").unwrap();
        rt.enable_component("off").unwrap();
        rt.disable_component("wait").unwrap();
        let drcr = rt.drcr();
        let steps: Vec<String> = drcr
            .events()
            .iter()
            .filter(|e| matches!(e.event, DrcrEvent::Transition { .. }))
            .map(|e| e.event.to_string())
            .collect();
        let tail = &steps[steps.len() - 4..];
        assert_eq!(
            tail,
            [
                "sus: SUSPENDED -> ACTIVE (management resume)",
                "off: DISABLED -> UNSATISFIED (management enable)",
                "off: UNSATISFIED -> ACTIVE (constraints satisfied; admitted)",
                "wait: UNSATISFIED -> DISABLED (management disable)",
            ]
        );
        assert_eq!(drcr.lifecycle_seq(), seq + 4);
        let off = drcr.stamps("off").unwrap();
        assert_eq!(off.activated, seq + 3);
        assert!(off.registered < off.activated);
    }
}
