//! Federated DRCR: multi-node sharding with failure detection, cross-node
//! failover, and partition-tolerant degradation.
//!
//! A [`Federation`] runs N simulated nodes, each a full [`DrtRuntime`]
//! (its own kernel plus DRCR shard), joined by typed bridge channels to a
//! **hub** coordinator that holds the synced global view used for
//! placement. The paper's executive manages one box; this module takes
//! its "adaptation managers participate via the service registry" idea to
//! a fleet of boxes, and layers on the machinery that makes sharding
//! survivable:
//!
//! * **Lockstep virtual time** — every node kernel advances to a common
//!   barrier per federation tick through [`rtos::exec::Lockstep`], the
//!   multi-machine counterpart of the parallel executor's epoch barrier.
//!   All federation decisions key on the tick, so a run replays
//!   byte-identically from its seed.
//! * **Heartbeat failure detection** — each live node heartbeats the hub
//!   every tick with its active-component roster. The hub marks a node
//!   *Suspected* after [`FederationConfig::suspect_after`] silent ticks
//!   and *Failed* after [`FederationConfig::fail_after`]; failure
//!   displaces the node's last-reported roster.
//! * **Heartbeats by reference** — a roster is an immutable, name-ordered
//!   `Roster` snapshot shared by the node's cache, every heartbeat in
//!   flight and the hub's view. A node builds a new snapshot only when
//!   its active set changed; otherwise it re-sends the cached one. It
//!   compares the active set with the cache only when its executive's
//!   lifecycle sequence moved since the last look, since only a
//!   transition can change the set. The
//!   hub adopts a roster's names into its placement only when the
//!   roster is not the one it last reconciled (`Rc::ptr_eq`) or a
//!   placement was removed since (the hub's removal counter moved):
//!   after a reconcile every roster name is a placement key, and only a
//!   removal can break that, so skipping is exact and a quiet tick costs
//!   O(1) per node instead of O(roster).
//! * **Cross-node migration on failure** — displaced components are
//!   re-placed on the least-utilized surviving nodes and installed there
//!   as a *wave*, so the target shard admits them through
//!   [`ResolvingService::admit_batch`](crate::resolve::ResolvingService::admit_batch)
//!   (one response-time fixed point per CPU, all-or-nothing with
//!   sequential fallback). Rejected placements go to a failover
//!   supervisor reusing the [`crate::supervise`] restart policies:
//!   Backoff grants delayed retries on virtual time, exhaustion (or a
//!   flap window) quarantines the component with typed evidence.
//! * **At-least-once bridge delivery** — inter-node messages ride
//!   per-link sequence numbers with receiver dedup, acks, and bounded
//!   retry-with-backoff. Seeded drop/delay and partitions come from a
//!   [`NodeFaultPlan`] extending `drcom::faults` one layer up.
//! * **Graceful degradation** — a node cut off from the hub for
//!   [`FederationConfig::degrade_after`] ticks falls back to *local-only
//!   admission*: its fleets keep running and local arrivals are admitted
//!   by its own resolver instead of halting. On heal the hub adopts
//!   locally-admitted components and retires copies it re-placed
//!   elsewhere meanwhile (hub wins), so the global view reconverges.
//!
//! Everything is observable: federation decisions are
//! [`FedEvent`]s keyed on the tick, tallied into `fed.*` metrics.

pub use crate::drcr::LogicFactory;

use crate::descriptor::ComponentDescriptor;
use crate::drcr::ComponentProvider;
use crate::error::DrcrError;
use crate::faults::{NodeFaultKind, NodeFaultPlan};
use crate::hybrid::RtLogic;
use crate::lifecycle::ComponentState;
use crate::obs::{FedEndpoint, FedEvent, MetricsRegistry, MetricsReport};
use crate::rta::RtaResolver;
use crate::runtime::DrtRuntime;
use crate::supervise::{FaultDecision, SupervisionConfig, Supervisor};
use osgi::event::BundleId;
use rtos::exec::Lockstep;
use rtos::kernel::{KernelConfig, SchedCounters};
use rtos::latency::TimerJitterModel;
use rtos::rng::SimRng;
use rtos::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Longest resend backoff, in ticks.
const MAX_RESEND_BACKOFF_TICKS: u64 = 16;

/// Topology and robustness thresholds of a federation.
#[derive(Clone)]
pub struct FederationConfig {
    /// Number of simulated nodes.
    pub nodes: u32,
    /// CPUs per node kernel.
    pub cpus_per_node: u32,
    /// Master seed; node kernels and the bridge fabric derive from it.
    pub seed: u64,
    /// Virtual-time span of one federation tick (heartbeat + barrier
    /// interval).
    pub tick: SimDuration,
    /// Silent ticks before the detector marks a node Suspected.
    pub suspect_after: u32,
    /// Silent ticks before the detector marks a node Failed and displaces
    /// its components.
    pub fail_after: u32,
    /// Ticks without hub contact before a node degrades to local-only
    /// admission.
    pub degrade_after: u32,
    /// Restart policy for failover placement retries (Backoff/quarantine
    /// semantics identical to component supervision).
    pub failover: SupervisionConfig,
    /// Transmission budget per bridge message before the sender gives up.
    pub max_send_attempts: u32,
    /// Ticks before the first resend of an unacked message (doubles per
    /// attempt, capped).
    pub resend_after: u64,
}

impl FederationConfig {
    /// A config with conventional thresholds: 10 ms ticks, suspect after
    /// 3, fail after 5, degrade after 5, failover backoff of 2 ticks
    /// doubling to 8 with a 3-retry budget.
    pub fn new(nodes: u32, cpus_per_node: u32, seed: u64) -> Self {
        let tick = SimDuration::from_millis(10);
        FederationConfig {
            nodes,
            cpus_per_node,
            seed,
            tick,
            suspect_after: 3,
            fail_after: 5,
            degrade_after: 5,
            failover: SupervisionConfig::backoff(
                SimDuration::from_nanos(tick.as_nanos() * 2),
                2,
                SimDuration::from_nanos(tick.as_nanos() * 8),
                3,
            ),
            max_send_attempts: 5,
            resend_after: 2,
        }
    }
}

// ---------------------------------------------------------------------
// Bridge network
// ---------------------------------------------------------------------

/// A node's Active component names in name order: an immutable snapshot
/// shared by reference between the node, heartbeats and the hub.
type Roster = Rc<[Rc<str>]>;

/// A typed bridge message between a node and the hub.
#[derive(Debug, Clone, PartialEq)]
enum Payload {
    /// node -> hub, every tick: liveness plus the active roster.
    Heartbeat { node: u32, roster: Roster },
    /// hub -> node: install this failover wave (batched admission).
    Place { components: Vec<String>, epoch: u64 },
    /// node -> hub: per-component verdicts for one placement wave.
    PlaceAck {
        node: u32,
        epoch: u64,
        admitted: Vec<String>,
        rejected: Vec<(String, String)>,
    },
    /// hub -> node: uninstall these components (stale copies).
    Retire { components: Vec<String> },
    /// Link-level cumulative ack (fire-and-forget).
    Ack { seq: u64 },
}

struct InFlight {
    payload: Payload,
    attempts: u32,
    resend_at: u64,
}

#[derive(Default)]
struct Link {
    next_seq: u64,
    inflight: BTreeMap<u64, InFlight>,
    /// Transmissions of each seq still queued for delivery.
    queued: BTreeMap<u64, u32>,
    /// Receiver-side dedup watermark for this directed link: every seq
    /// below it was delivered or can no longer arrive.
    settled: u64,
    /// Receiver-side dedup above the watermark: seqs already delivered.
    seen: BTreeSet<u64>,
}

impl Link {
    /// Moves the dedup watermark up to the lowest seq that can still
    /// arrive (awaiting a resend, queued for delivery, or not yet sent),
    /// so the dedup state spans one resend window rather than the whole
    /// history of the link.
    fn settle(&mut self) {
        let low = [self.inflight.keys().next(), self.queued.keys().next()]
            .into_iter()
            .flatten()
            .fold(self.next_seq, |low, &seq| low.min(seq));
        self.settled = self.settled.max(low);
        while self.seen.first().is_some_and(|&seq| seq < self.settled) {
            self.seen.pop_first();
        }
    }
}

struct Delivery {
    from: FedEndpoint,
    to: FedEndpoint,
    seq: u64,
    payload: Payload,
}

/// The seeded, lossy, at-least-once message fabric between endpoints.
struct BridgeNet {
    rng: SimRng,
    drop: f64,
    delay: f64,
    delay_ticks: (u64, u64),
    max_attempts: u32,
    resend_after: u64,
    links: BTreeMap<(FedEndpoint, FedEndpoint), Link>,
    due: BTreeMap<u64, Vec<Delivery>>,
}

impl BridgeNet {
    fn new(plan: &NodeFaultPlan, config: &FederationConfig) -> Self {
        let rates = plan.rates().clone();
        BridgeNet {
            rng: SimRng::from_seed(plan.seed() ^ 0xB41D_6E00),
            drop: rates.drop,
            delay: rates.delay,
            delay_ticks: rates.delay_ticks,
            max_attempts: config.max_send_attempts.max(1),
            resend_after: config.resend_after.max(1),
            links: BTreeMap::new(),
            due: BTreeMap::new(),
        }
    }

    /// Sends a payload; `reliable` messages are tracked for resend until
    /// acked or out of budget.
    fn send(
        &mut self,
        from: FedEndpoint,
        to: FedEndpoint,
        payload: Payload,
        reliable: bool,
        tick: u64,
        sink: &mut Sink<'_>,
    ) {
        let link = self.links.entry((from, to)).or_default();
        let seq = link.next_seq;
        link.next_seq += 1;
        if reliable {
            link.inflight.insert(
                seq,
                InFlight {
                    payload: payload.clone(),
                    attempts: 1,
                    resend_at: tick + self.resend_after,
                },
            );
        }
        self.transmit(from, to, seq, payload, tick, sink);
    }

    /// One physical transmission attempt: may be dropped or delayed.
    fn transmit(
        &mut self,
        from: FedEndpoint,
        to: FedEndpoint,
        seq: u64,
        payload: Payload,
        tick: u64,
        sink: &mut Sink<'_>,
    ) {
        if self.drop > 0.0 && self.rng.chance(self.drop) {
            sink.event(tick, FedEvent::MessageDropped { from, to, seq });
            sink.metrics.count("fed.messages.dropped", 1);
            return;
        }
        let mut arrive = tick + 1;
        if self.delay > 0.0 && self.rng.chance(self.delay) {
            arrive += self
                .rng
                .uniform_u64(self.delay_ticks.0.max(1), self.delay_ticks.1.max(2));
        }
        let link = self.links.entry((from, to)).or_default();
        *link.queued.entry(seq).or_insert(0) += 1;
        self.due.entry(arrive).or_default().push(Delivery {
            from,
            to,
            seq,
            payload,
        });
    }

    /// Messages arriving this tick, in deterministic order. They leave
    /// the wire whether or not the receiver can take them; the dedup
    /// watermark moves only after the whole batch, in `retry_due`.
    fn due_now(&mut self, tick: u64) -> Vec<Delivery> {
        let deliveries = self.due.remove(&tick).unwrap_or_default();
        for d in &deliveries {
            let link = self.links.get_mut(&(d.from, d.to)).expect("sent on a link");
            let copies = link.queued.get_mut(&d.seq).expect("counted on transmit");
            *copies -= 1;
            if *copies == 0 {
                link.queued.remove(&d.seq);
            }
        }
        deliveries
    }

    /// Retransmits unacked messages whose resend deadline passed; expired
    /// budgets surface as [`FedEvent::MessageExpired`]. Runs after the
    /// tick's deliveries, so it also settles every link's dedup window.
    fn retry_due(&mut self, tick: u64, sink: &mut Sink<'_>) {
        let mut resend: Vec<(FedEndpoint, FedEndpoint, u64, Payload, u32)> = Vec::new();
        for ((from, to), link) in &mut self.links {
            let mut expired = Vec::new();
            for (&seq, inflight) in &mut link.inflight {
                if inflight.resend_at > tick {
                    continue;
                }
                if inflight.attempts >= self.max_attempts {
                    expired.push(seq);
                    continue;
                }
                inflight.attempts += 1;
                // Exponential backoff between retransmissions, capped.
                let backoff = (self.resend_after << (inflight.attempts - 1).min(8))
                    .min(MAX_RESEND_BACKOFF_TICKS);
                inflight.resend_at = tick + backoff;
                resend.push((*from, *to, seq, inflight.payload.clone(), inflight.attempts));
            }
            for seq in expired {
                link.inflight.remove(&seq);
                sink.event(
                    tick,
                    FedEvent::MessageExpired {
                        from: *from,
                        to: *to,
                        seq,
                    },
                );
                sink.metrics.count("fed.messages.expired", 1);
            }
            link.settle();
        }
        for (from, to, seq, payload, attempt) in resend {
            sink.event(
                tick,
                FedEvent::MessageRetried {
                    from,
                    to,
                    seq,
                    attempt,
                },
            );
            sink.metrics.count("fed.messages.retried", 1);
            self.transmit(from, to, seq, payload, tick, sink);
        }
    }

    /// Marks `seq` on the directed link as delivered at the receiver.
    /// Returns false for a duplicate (already seen).
    fn mark_seen(&mut self, from: FedEndpoint, to: FedEndpoint, seq: u64) -> bool {
        let link = self.links.entry((from, to)).or_default();
        seq >= link.settled && link.seen.insert(seq)
    }

    /// Handles an incoming link-level ack: the acked message stops being
    /// retransmitted.
    fn acked(&mut self, owner: FedEndpoint, peer: FedEndpoint, seq: u64) {
        if let Some(link) = self.links.get_mut(&(owner, peer)) {
            link.inflight.remove(&seq);
        }
    }
}

/// Event/metric sink threaded through the phases of one tick (separate
/// from the federation itself to keep field borrows disjoint).
struct Sink<'a> {
    events: &'a mut Vec<(u64, FedEvent)>,
    metrics: &'a mut MetricsRegistry,
}

impl Sink<'_> {
    fn event(&mut self, tick: u64, event: FedEvent) {
        self.events.push((tick, event));
    }
}

// ---------------------------------------------------------------------
// Hub (global view + placement)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Alive,
    Suspected,
    Failed,
}

struct NodeView {
    last_heard: u64,
    health: Health,
    roster: Roster,
    /// [`Hub::removals`] when `roster` was last adopted into placement.
    reconciled_at: u64,
}

struct PendingPlacement {
    target: u32,
    epoch: u64,
}

struct Hub {
    views: BTreeMap<u32, NodeView>,
    /// Authoritative component -> node placement.
    placement: BTreeMap<String, u32>,
    /// Placement removals so far. Keys only leave `placement` here, so a
    /// roster reconciled at the current count still names only keys.
    removals: u64,
    epoch: u64,
    pending: BTreeMap<String, PendingPlacement>,
    retry_at: BTreeMap<u64, Vec<String>>,
    displaced_from: BTreeMap<String, u32>,
    admitted_failovers: BTreeSet<String>,
    quarantined: BTreeMap<String, String>,
    supervisor: Supervisor,
}

impl Hub {
    fn new(config: &FederationConfig) -> Self {
        let mut supervisor = Supervisor::new();
        supervisor.set_default(config.failover);
        Hub {
            views: (0..config.nodes)
                .map(|id| {
                    (
                        id,
                        NodeView {
                            last_heard: 0,
                            health: Health::Alive,
                            roster: Roster::default(),
                            reconciled_at: 0,
                        },
                    )
                })
                .collect(),
            placement: BTreeMap::new(),
            removals: 0,
            epoch: 0,
            pending: BTreeMap::new(),
            retry_at: BTreeMap::new(),
            displaced_from: BTreeMap::new(),
            admitted_failovers: BTreeSet::new(),
            quarantined: BTreeMap::new(),
            supervisor,
        }
    }

    /// Estimated reserved fraction per CPU of every candidate node, from
    /// the hub's placement map plus in-flight placements (so one failover
    /// wave does not overcommit a target before acks return). One pass
    /// over each map; per node the claims add up in the same order as a
    /// per-node scan would add them, so the loads are bit-identical to it.
    fn estimated_loads(
        &self,
        candidates: impl IntoIterator<Item = u32>,
        catalog: &Catalog,
        cpus: u32,
    ) -> BTreeMap<u32, f64> {
        let mut totals: BTreeMap<u32, f64> = candidates.into_iter().map(|n| (n, 0.0)).collect();
        let placed = self.placement.iter().map(|(c, &on)| (c, on));
        let inbound = self.pending.iter().map(|(c, p)| (c, p.target));
        for (component, node) in placed.chain(inbound) {
            if let Some(total) = totals.get_mut(&node) {
                if let Some(entry) = catalog.get(component) {
                    *total += entry.descriptor.cpu_usage.fraction();
                }
            }
        }
        for total in totals.values_mut() {
            *total /= cpus.max(1) as f64;
        }
        totals
    }

    /// One node's estimated load by a full scan per node: the reference
    /// [`Hub::estimated_loads`] is tested against.
    #[cfg(test)]
    fn estimated_load(&self, node: u32, catalog: &Catalog, cpus: u32) -> f64 {
        let mut total = 0.0;
        for (component, &on) in &self.placement {
            if on == node {
                if let Some(entry) = catalog.get(component) {
                    total += entry.descriptor.cpu_usage.fraction();
                }
            }
        }
        for (component, pending) in &self.pending {
            if pending.target == node {
                if let Some(entry) = catalog.get(component) {
                    total += entry.descriptor.cpu_usage.fraction();
                }
            }
        }
        total / cpus.max(1) as f64
    }
}

// ---------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------

struct CatalogEntry {
    descriptor: Rc<ComponentDescriptor>,
    factory: LogicFactory,
}

impl CatalogEntry {
    /// A provider sharing this entry's contract and factory.
    fn provider(&self) -> ComponentProvider {
        ComponentProvider {
            descriptor: self.descriptor.clone(),
            factory: self.factory.clone(),
        }
    }
}

type Catalog = BTreeMap<String, CatalogEntry>;

struct NodeSlot {
    id: u32,
    rt: DrtRuntime,
    lockstep_id: usize,
    alive: bool,
    degraded: bool,
    last_hub_contact: u64,
    bundles: BTreeMap<String, BundleId>,
    /// The roster last heartbeated; re-sent by reference while the
    /// active set is unchanged.
    roster: Roster,
    /// The node executive's lifecycle sequence when `roster` was last
    /// compared with its active set.
    roster_seq: u64,
}

// ---------------------------------------------------------------------
// Federation
// ---------------------------------------------------------------------

/// Failover bookkeeping totals; see [`Federation::accounting`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverAccounting {
    /// Components displaced by node failures so far.
    pub displaced: usize,
    /// Displaced components re-admitted on a surviving node.
    pub admitted: usize,
    /// Displaced components quarantined with typed evidence.
    pub quarantined: usize,
    /// Displaced components still in flight (pending wave or retry).
    pub pending: usize,
}

/// N simulated nodes under one hub-synced global view. See the
/// [module docs](self).
pub struct Federation {
    config: FederationConfig,
    plan: NodeFaultPlan,
    catalog: Catalog,
    nodes: Vec<NodeSlot>,
    hub: Hub,
    net: BridgeNet,
    lockstep: Lockstep,
    tick: u64,
    partition: Option<BTreeSet<u32>>,
    events: Vec<(u64, FedEvent)>,
    metrics: MetricsRegistry,
}

impl Federation {
    /// Builds the federation: one kernel + DRCR shard per node, all ruling
    /// admission with response-time analysis (so failover waves go through
    /// `admit_batch`).
    pub fn new(config: FederationConfig, plan: NodeFaultPlan) -> Self {
        let mut lockstep = Lockstep::new();
        let nodes = (0..config.nodes)
            .map(|id| {
                let rt = DrtRuntime::with_resolver(
                    KernelConfig::new(config.seed.wrapping_add(id as u64).wrapping_mul(0x9E37))
                        .with_cpus(config.cpus_per_node)
                        .with_timer(TimerJitterModel::ideal()),
                    Box::new(RtaResolver::default()),
                );
                NodeSlot {
                    id,
                    rt,
                    lockstep_id: lockstep.register(&format!("node{id}")),
                    alive: true,
                    degraded: false,
                    last_hub_contact: 0,
                    bundles: BTreeMap::new(),
                    roster: Roster::default(),
                    roster_seq: 0,
                }
            })
            .collect();
        let net = BridgeNet::new(&plan, &config);
        let hub = Hub::new(&config);
        Federation {
            config,
            plan,
            catalog: BTreeMap::new(),
            nodes,
            hub,
            net,
            lockstep,
            tick: 0,
            partition: None,
            events: Vec::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Installs one component on a node. Routed through the hub's global
    /// view when the node is connected; admitted by the node's *local*
    /// resolver (and flagged as such) when it is degraded.
    ///
    /// # Errors
    ///
    /// [`DrcrError`] for duplicate names, dead nodes, or install
    /// failures.
    pub fn install(
        &mut self,
        node: u32,
        descriptor: ComponentDescriptor,
        factory: impl Fn() -> Box<dyn RtLogic> + 'static,
    ) -> Result<bool, DrcrError> {
        self.install_wave(node, vec![(descriptor, Rc::new(factory) as Rc<_>)])
            .map(|admitted| admitted == 1)
    }

    /// Installs a wave of components on one node in a single resolve
    /// round (one batched admission pass). Returns how many were
    /// admitted.
    ///
    /// # Errors
    ///
    /// [`DrcrError`] for duplicate names, dead nodes, or install
    /// failures.
    pub fn install_wave(
        &mut self,
        node: u32,
        wave: Vec<(ComponentDescriptor, LogicFactory)>,
    ) -> Result<usize, DrcrError> {
        let idx = node as usize;
        if idx >= self.nodes.len() {
            return Err(DrcrError::Kernel(format!("no node {node}")));
        }
        if !self.nodes[idx].alive {
            return Err(DrcrError::Kernel(format!("node {node} is dead")));
        }
        for (descriptor, _) in &wave {
            if self.catalog.contains_key(descriptor.name.as_str()) {
                return Err(DrcrError::DuplicateComponent(descriptor.name.to_string()));
            }
        }
        let names: Vec<String> = wave
            .iter()
            .map(|(d, _)| d.name.as_str().to_string())
            .collect();
        for (descriptor, factory) in wave {
            self.catalog.insert(
                descriptor.name.as_str().to_string(),
                CatalogEntry {
                    descriptor: Rc::new(descriptor),
                    factory,
                },
            );
        }
        let slot = &mut self.nodes[idx];
        let providers: Vec<(String, ComponentProvider)> = names
            .iter()
            .map(|name| {
                let entry = self.catalog.get(name).expect("just inserted");
                (format!("fed.{name}"), entry.provider())
            })
            .collect();
        let bundles = slot
            .rt
            .install_components(providers)
            .map_err(|e| DrcrError::Kernel(e.to_string()))?;
        for (name, bundle) in names.iter().zip(bundles) {
            slot.bundles.insert(name.clone(), bundle);
        }
        let degraded = slot.degraded;
        let mut admitted = 0;
        for name in &names {
            let ok = self.nodes[idx].rt.component_state(name) == Some(ComponentState::Active);
            if ok {
                admitted += 1;
            }
            if degraded {
                // Local-only admission: the hub learns about this
                // component from the roster after heal.
                self.events.push((
                    self.tick,
                    FedEvent::LocalAdmission {
                        node,
                        component: name.clone(),
                        admitted: ok,
                    },
                ));
                self.metrics.count("fed.local_admissions", 1);
            } else if ok {
                self.hub.placement.insert(name.clone(), node);
            }
        }
        Ok(admitted)
    }

    /// Runs `n` federation ticks.
    pub fn run_ticks(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// One federation tick: fault-plan events, a lockstep kernel epoch,
    /// message delivery, retries, heartbeats, failure detection and
    /// failover planning.
    pub fn step(&mut self) {
        let t = self.tick;
        self.apply_plan(t);
        self.advance_kernels();
        self.deliver_messages(t);
        let mut sink = Sink {
            events: &mut self.events,
            metrics: &mut self.metrics,
        };
        self.net.retry_due(t, &mut sink);
        self.send_heartbeats(t);
        self.detect_failures(t);
        self.retry_placements(t);
        self.tick = t + 1;
    }

    fn apply_plan(&mut self, t: u64) {
        for kind in self.plan.events_at(t).to_vec() {
            match kind {
                NodeFaultKind::Crash { node } => {
                    if let Some(slot) = self.nodes.get_mut(node as usize) {
                        if slot.alive {
                            slot.alive = false;
                            self.lockstep.mark_dead(slot.lockstep_id);
                            self.events.push((t, FedEvent::NodeCrashed { node }));
                            self.metrics.count("fed.nodes.crashed", 1);
                        }
                    }
                }
                NodeFaultKind::Partition { isolated } => {
                    let set: BTreeSet<u32> = isolated.iter().copied().collect();
                    self.events
                        .push((t, FedEvent::PartitionStarted { isolated }));
                    self.metrics.count("fed.partitions", 1);
                    self.partition = Some(set);
                }
                NodeFaultKind::Heal => {
                    if self.partition.take().is_some() {
                        self.events.push((t, FedEvent::PartitionHealed));
                    }
                }
            }
        }
    }

    fn advance_kernels(&mut self) {
        self.lockstep.begin_epoch(self.config.tick);
        for slot in &mut self.nodes {
            if !slot.alive {
                continue;
            }
            slot.rt.process();
            self.lockstep
                .run_to_barrier(slot.lockstep_id, &mut slot.rt.kernel_mut())
                .expect("lockstep drift");
            slot.rt.process();
        }
        self.lockstep.finish_epoch().expect("lockstep laggard");
    }

    /// True when the partition (or a dead endpoint) blocks the link.
    fn blocked(&self, from: FedEndpoint, to: FedEndpoint) -> bool {
        let endpoint_down = |e: FedEndpoint| match e {
            FedEndpoint::Hub => false,
            FedEndpoint::Node(id) => !self.nodes.get(id as usize).is_some_and(|s| s.alive),
        };
        if endpoint_down(from) || endpoint_down(to) {
            return true;
        }
        let Some(isolated) = &self.partition else {
            return false;
        };
        let side = |e: FedEndpoint| match e {
            // The hub sits with the majority.
            FedEndpoint::Hub => false,
            FedEndpoint::Node(id) => isolated.contains(&id),
        };
        side(from) != side(to)
    }

    fn deliver_messages(&mut self, t: u64) {
        let deliveries = self.net.due_now(t);
        for delivery in deliveries {
            // Partitions and dead endpoints block at delivery time too: a
            // message sent just before the cut does not tunnel through it.
            if self.blocked(delivery.from, delivery.to) {
                continue;
            }
            let fresh = self.net.mark_seen(delivery.from, delivery.to, delivery.seq);
            // Always (re-)ack data payloads: the original ack may itself
            // have been dropped, and the sender keeps resending until one
            // lands. Acks are fire-and-forget.
            if !matches!(delivery.payload, Payload::Ack { .. }) {
                let mut sink = Sink {
                    events: &mut self.events,
                    metrics: &mut self.metrics,
                };
                self.net.send(
                    delivery.to,
                    delivery.from,
                    Payload::Ack { seq: delivery.seq },
                    false,
                    t,
                    &mut sink,
                );
            }
            if !fresh {
                self.metrics.count("fed.messages.duplicates", 1);
                continue;
            }
            self.metrics.count("fed.messages.delivered", 1);
            match delivery.payload {
                Payload::Ack { seq } => {
                    // `to` owns the link being acked: (to, from).
                    self.net.acked(delivery.to, delivery.from, seq);
                }
                Payload::Heartbeat { node, roster } => {
                    self.hub_heartbeat(t, node, roster);
                }
                Payload::Place { components, epoch } => {
                    if let FedEndpoint::Node(node) = delivery.to {
                        self.node_place(t, node, components, epoch);
                    }
                }
                Payload::PlaceAck {
                    node,
                    epoch,
                    admitted,
                    rejected,
                } => {
                    self.hub_place_ack(t, node, epoch, admitted, rejected);
                }
                Payload::Retire { components } => {
                    if let FedEndpoint::Node(node) = delivery.to {
                        self.node_retire(t, node, components);
                    }
                }
            }
            // Any hub-originated delivery is hub contact for the node.
            if delivery.from == FedEndpoint::Hub {
                if let FedEndpoint::Node(node) = delivery.to {
                    self.note_hub_contact(t, node);
                }
            }
        }
    }

    fn note_hub_contact(&mut self, t: u64, node: u32) {
        if let Some(slot) = self.nodes.get_mut(node as usize) {
            slot.last_hub_contact = t;
            if slot.degraded {
                slot.degraded = false;
                self.events.push((t, FedEvent::NodeRejoined { node }));
                self.metrics.count("fed.nodes.rejoined", 1);
            }
        }
    }

    fn send_heartbeats(&mut self, t: u64) {
        // Roster snapshots first (immutable pass), then sends.
        let mut beats: Vec<(u32, Roster)> = Vec::new();
        for slot in &mut self.nodes {
            if !slot.alive {
                continue;
            }
            // Degradation check rides the heartbeat cadence.
            if !slot.degraded
                && t.saturating_sub(slot.last_hub_contact) >= self.config.degrade_after as u64
            {
                slot.degraded = true;
                let since = (t - slot.last_hub_contact) as u32;
                self.events.push((
                    t,
                    FedEvent::NodeDegraded {
                        node: slot.id,
                        since_ticks: since,
                    },
                ));
                self.metrics.count("fed.nodes.degraded", 1);
            }
            let drcr = slot.rt.drcr();
            if drcr.lifecycle_seq() != slot.roster_seq {
                slot.roster_seq = drcr.lifecycle_seq();
                if !drcr.active_names().eq(slot.roster.iter()) {
                    slot.roster = drcr.active_names().cloned().collect();
                }
            }
            drop(drcr);
            beats.push((slot.id, slot.roster.clone()));
        }
        for (node, roster) in beats {
            self.metrics.count("fed.heartbeats.sent", 1);
            if self.blocked(FedEndpoint::Node(node), FedEndpoint::Hub) {
                continue;
            }
            let mut sink = Sink {
                events: &mut self.events,
                metrics: &mut self.metrics,
            };
            self.net.send(
                FedEndpoint::Node(node),
                FedEndpoint::Hub,
                Payload::Heartbeat { node, roster },
                false,
                t,
                &mut sink,
            );
        }
    }

    fn hub_heartbeat(&mut self, t: u64, node: u32, roster: Roster) {
        self.metrics.count("fed.heartbeats.received", 1);
        let Some(view) = self.hub.views.get_mut(&node) else {
            return;
        };
        view.last_heard = t;
        let was = view.health;
        view.health = Health::Alive;
        let unchanged =
            Rc::ptr_eq(&view.roster, &roster) && view.reconciled_at == self.hub.removals;
        if was != Health::Failed && unchanged {
            // Reconciled already, and no key has left placement since.
            debug_assert!(
                roster.iter().all(|c| self.hub.placement.contains_key(&**c)),
                "node {node}: skipped a roster naming an unplaced component"
            );
            return;
        }
        self.metrics.count("fed.hub.roster_reconciles", 1);
        view.roster = roster.clone();
        view.reconciled_at = self.hub.removals;
        if was == Health::Failed {
            // A falsely-failed node (partitioned, not dead) came back:
            // reconcile its roster against the authoritative placement.
            self.events.push((t, FedEvent::NodeRejoined { node }));
            self.metrics.count("fed.nodes.rejoined", 1);
            let mut retire = Vec::new();
            for component in roster.iter() {
                match self.hub.placement.get(&**component) {
                    Some(&on) if on != node => {
                        // The hub re-placed it elsewhere meanwhile: the
                        // hub wins, the stale copy retires.
                        retire.push(component.to_string());
                    }
                    Some(_) => {}
                    None => {
                        // Locally admitted while degraded: adopt it.
                        self.hub.placement.insert(component.to_string(), node);
                    }
                }
            }
            if !retire.is_empty() {
                let mut sink = Sink {
                    events: &mut self.events,
                    metrics: &mut self.metrics,
                };
                self.net.send(
                    FedEndpoint::Hub,
                    FedEndpoint::Node(node),
                    Payload::Retire { components: retire },
                    true,
                    t,
                    &mut sink,
                );
            }
        } else {
            // Steady state: adopt locally-admitted components (degraded
            // spells shorter than the failure threshold still reconcile).
            for component in roster.iter() {
                if !self.hub.placement.contains_key(&**component) {
                    self.hub.placement.insert(component.to_string(), node);
                }
            }
        }
    }

    fn detect_failures(&mut self, t: u64) {
        let mut failed: Vec<u32> = Vec::new();
        for (&node, view) in &mut self.hub.views {
            if view.health == Health::Failed {
                continue;
            }
            let missed = t.saturating_sub(view.last_heard);
            if missed >= self.config.fail_after as u64 {
                view.health = Health::Failed;
                self.events.push((
                    t,
                    FedEvent::NodeFailed {
                        node,
                        missed: missed as u32,
                    },
                ));
                self.metrics.count("fed.nodes.failed", 1);
                failed.push(node);
            } else if missed >= self.config.suspect_after as u64 && view.health == Health::Alive {
                view.health = Health::Suspected;
                self.events.push((
                    t,
                    FedEvent::NodeSuspected {
                        node,
                        missed: missed as u32,
                    },
                ));
                self.metrics.count("fed.nodes.suspected", 1);
            }
        }
        for node in failed {
            self.fail_node(t, node);
        }
    }

    /// Displaces a failed node's roster and plans failover placement.
    fn fail_node(&mut self, t: u64, node: u32) {
        let roster = self
            .hub
            .views
            .get(&node)
            .map(|v| v.roster.clone())
            .unwrap_or_default();
        let mut displaced: Vec<String> = Vec::new();
        for component in roster.iter() {
            let component: &str = component;
            if self.hub.placement.get(component) == Some(&node) {
                self.hub.placement.remove(component);
                self.hub.removals += 1;
                self.hub.displaced_from.insert(component.to_string(), node);
                self.hub.admitted_failovers.remove(component);
                displaced.push(component.to_string());
            }
        }
        // Placements already in flight *toward* the failed node also need
        // a new home.
        let redirect: Vec<String> = self
            .hub
            .pending
            .iter()
            .filter(|(_, p)| p.target == node)
            .map(|(c, _)| c.clone())
            .collect();
        for component in redirect {
            self.hub.pending.remove(&component);
            displaced.push(component);
        }
        displaced.sort();
        displaced.dedup();
        self.place_wave(t, displaced);
    }

    /// Plans placement for a set of displaced components: groups them by
    /// least-utilized surviving target and sends one Place wave per
    /// target (so the target admits the group through `admit_batch`).
    fn place_wave(&mut self, t: u64, components: Vec<String>) {
        if components.is_empty() {
            return;
        }
        // Surviving = detector-alive. A partitioned-but-alive node is
        // (from the hub's view) failed and never a target. Loads are
        // computed once and updated greedily as the wave fills, so a
        // 10k-component federation plans failover in O(placements +
        // displaced × nodes).
        let candidates = self
            .hub
            .views
            .iter()
            .filter(|(_, view)| view.health != Health::Failed)
            .map(|(&candidate, _)| candidate);
        let mut loads =
            self.hub
                .estimated_loads(candidates, &self.catalog, self.config.cpus_per_node);
        let mut waves: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for component in components {
            let Some(entry) = self.catalog.get(&component) else {
                continue;
            };
            let usage = entry.descriptor.cpu_usage.fraction();
            let mut best: Option<(f64, u32)> = None;
            for (&candidate, &load) in &loads {
                let better = match best {
                    None => true,
                    Some((bl, _)) => load < bl - 1e-12,
                };
                if better {
                    best = Some((load, candidate));
                }
            }
            let Some((load, target)) = best else {
                self.quarantine_failover(t, component, "no surviving node".to_string());
                continue;
            };
            // A target already estimated past a full CPU cannot possibly
            // admit: short-circuit to the supervisor as a rejection.
            let added = usage / self.config.cpus_per_node.max(1) as f64;
            if load + added > 1.0 {
                self.failover_rejected(
                    t,
                    component,
                    target,
                    "estimated load exceeds capacity".to_string(),
                );
                continue;
            }
            *loads.entry(target).or_insert(0.0) += added;
            waves.entry(target).or_default().push(component);
        }
        for (target, wave) in waves {
            self.hub.epoch += 1;
            let epoch = self.hub.epoch;
            for component in &wave {
                let from = self
                    .hub
                    .displaced_from
                    .get(component)
                    .copied()
                    .unwrap_or(u32::MAX);
                self.events.push((
                    t,
                    FedEvent::MigrationPlanned {
                        component: component.clone(),
                        from,
                        to: target,
                        epoch,
                    },
                ));
                self.metrics.count("fed.migrations.planned", 1);
                self.hub
                    .pending
                    .insert(component.clone(), PendingPlacement { target, epoch });
            }
            let mut sink = Sink {
                events: &mut self.events,
                metrics: &mut self.metrics,
            };
            self.net.send(
                FedEndpoint::Hub,
                FedEndpoint::Node(target),
                Payload::Place {
                    components: wave,
                    epoch,
                },
                true,
                t,
                &mut sink,
            );
        }
    }

    /// A node received a placement wave: install it as one batch (one
    /// `admit_batch` pass) and report per-component verdicts.
    fn node_place(&mut self, t: u64, node: u32, components: Vec<String>, epoch: u64) {
        let idx = node as usize;
        if !self.nodes.get(idx).is_some_and(|s| s.alive) {
            return;
        }
        let mut providers: Vec<(String, ComponentProvider)> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        for name in components {
            if self.nodes[idx].bundles.contains_key(&name) {
                // Duplicate wave (retransmission raced the ack): the copy
                // is already here; report its current verdict below.
                names.push(name);
                continue;
            }
            let Some(entry) = self.catalog.get(&name) else {
                continue;
            };
            providers.push((format!("fed.{name}"), entry.provider()));
            names.push(name);
        }
        let installed: Vec<String> = providers.iter().map(|(b, _)| b[4..].to_string()).collect();
        if !providers.is_empty() {
            match self.nodes[idx].rt.install_components(providers) {
                Ok(bundles) => {
                    for (name, bundle) in installed.iter().zip(bundles) {
                        self.nodes[idx].bundles.insert(name.clone(), bundle);
                    }
                }
                Err(e) => {
                    // Name collision or framework failure: every
                    // component of the wave is rejected with the error.
                    let rejected: Vec<(String, String)> =
                        names.iter().map(|n| (n.clone(), e.to_string())).collect();
                    let mut sink = Sink {
                        events: &mut self.events,
                        metrics: &mut self.metrics,
                    };
                    self.net.send(
                        FedEndpoint::Node(node),
                        FedEndpoint::Hub,
                        Payload::PlaceAck {
                            node,
                            epoch,
                            admitted: Vec::new(),
                            rejected,
                        },
                        true,
                        t,
                        &mut sink,
                    );
                    return;
                }
            }
        }
        let mut admitted = Vec::new();
        let mut rejected = Vec::new();
        for name in names {
            if self.nodes[idx].rt.component_state(&name) == Some(ComponentState::Active) {
                admitted.push(name);
            } else {
                // The shard's own evidence: why the component still waits.
                let reason = self.nodes[idx]
                    .rt
                    .drcr()
                    .report(&name)
                    .map_or_else(|| "admission rejected".to_string(), |r| r.to_string());
                // Evict the rejected copy so the placement retry is owned
                // by the hub's failover supervisor, not this shard's
                // resolver.
                if let Some(bundle) = self.nodes[idx].bundles.remove(&name) {
                    let _ = self.nodes[idx].rt.uninstall_bundle(bundle);
                }
                rejected.push((name, reason));
            }
        }
        let mut sink = Sink {
            events: &mut self.events,
            metrics: &mut self.metrics,
        };
        self.net.send(
            FedEndpoint::Node(node),
            FedEndpoint::Hub,
            Payload::PlaceAck {
                node,
                epoch,
                admitted,
                rejected,
            },
            true,
            t,
            &mut sink,
        );
    }

    fn hub_place_ack(
        &mut self,
        t: u64,
        node: u32,
        epoch: u64,
        admitted: Vec<String>,
        rejected: Vec<(String, String)>,
    ) {
        let mut stale = Vec::new();
        for component in admitted {
            let current = self.hub.pending.get(&component);
            match current {
                Some(p) if p.epoch == epoch && p.target == node => {
                    self.hub.pending.remove(&component);
                    self.hub.placement.insert(component.clone(), node);
                    self.hub.admitted_failovers.insert(component.clone());
                    self.hub.supervisor.reset(&component);
                    self.events.push((
                        t,
                        FedEvent::MigrationAdmitted {
                            component,
                            node,
                            epoch,
                        },
                    ));
                    self.metrics.count("fed.migrations.admitted", 1);
                }
                _ => {
                    // Stale epoch: the hub re-planned meanwhile; this
                    // copy must not double-run.
                    stale.push(component);
                }
            }
        }
        for (component, reason) in rejected {
            let matches = self
                .hub
                .pending
                .get(&component)
                .is_some_and(|p| p.epoch == epoch && p.target == node);
            if !matches {
                continue;
            }
            self.hub.pending.remove(&component);
            self.failover_rejected(t, component, node, reason);
        }
        if !stale.is_empty() {
            let mut sink = Sink {
                events: &mut self.events,
                metrics: &mut self.metrics,
            };
            self.net.send(
                FedEndpoint::Hub,
                FedEndpoint::Node(node),
                Payload::Retire { components: stale },
                true,
                t,
                &mut sink,
            );
        }
    }

    /// A failover placement bounced: the supervisor rules retry-or-
    /// quarantine with the same policies component supervision uses.
    fn failover_rejected(&mut self, t: u64, component: String, node: u32, reason: String) {
        self.events.push((
            t,
            FedEvent::MigrationRejected {
                component: component.clone(),
                node,
                reason: reason.clone(),
            },
        ));
        self.metrics.count("fed.migrations.rejected", 1);
        let now = self.fed_time(t);
        let name: Rc<str> = Rc::from(component.as_str());
        match self.hub.supervisor.on_fault(&name, now) {
            FaultDecision::Restart { attempt, delay } => {
                let delay_ticks = delay
                    .as_nanos()
                    .div_ceil(self.config.tick.as_nanos().max(1))
                    .max(1);
                self.events.push((
                    t,
                    FedEvent::FailoverRetryScheduled {
                        component: component.clone(),
                        attempt,
                        delay_ticks,
                    },
                ));
                self.metrics.count("fed.failover.retries", 1);
                self.hub
                    .retry_at
                    .entry(t + delay_ticks)
                    .or_default()
                    .push(component);
            }
            FaultDecision::Quarantine { reason: why } => {
                self.quarantine_failover(t, component, format!("{why} (last: {reason})"));
            }
        }
    }

    fn quarantine_failover(&mut self, t: u64, component: String, reason: String) {
        self.events.push((
            t,
            FedEvent::FailoverQuarantined {
                component: component.clone(),
                reason: reason.clone(),
            },
        ));
        self.metrics.count("fed.failover.quarantines", 1);
        self.hub.quarantined.insert(component, reason);
    }

    fn retry_placements(&mut self, t: u64) {
        let Some(batch) = self.hub.retry_at.remove(&t) else {
            return;
        };
        let retriable: Vec<String> = batch
            .into_iter()
            .filter(|c| !self.hub.quarantined.contains_key(c))
            .collect();
        self.place_wave(t, retriable);
    }

    fn node_retire(&mut self, t: u64, node: u32, components: Vec<String>) {
        let idx = node as usize;
        if !self.nodes.get(idx).is_some_and(|s| s.alive) {
            return;
        }
        for component in components {
            let Some(bundle) = self.nodes[idx].bundles.remove(&component) else {
                continue;
            };
            let _ = self.nodes[idx].rt.uninstall_bundle(bundle);
            self.events
                .push((t, FedEvent::ReconcileRetired { node, component }));
            self.metrics.count("fed.reconcile.retired", 1);
        }
    }

    fn fed_time(&self, t: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_nanos(self.config.tick.as_nanos().saturating_mul(t))
    }

    // -----------------------------------------------------------------
    // Introspection
    // -----------------------------------------------------------------

    /// The current federation tick.
    pub fn current_tick(&self) -> u64 {
        self.tick
    }

    /// Whether a node's kernel is still advancing.
    pub fn is_alive(&self, node: u32) -> bool {
        self.nodes.get(node as usize).is_some_and(|s| s.alive)
    }

    /// Whether a node has degraded to local-only admission.
    pub fn is_degraded(&self, node: u32) -> bool {
        self.nodes.get(node as usize).is_some_and(|s| s.degraded)
    }

    /// A component's lifecycle state on a given node's shard.
    pub fn component_state_on(&self, node: u32, component: &str) -> Option<ComponentState> {
        self.nodes.get(node as usize)?.rt.component_state(component)
    }

    /// The hub's authoritative placement of a component.
    pub fn placement_of(&self, component: &str) -> Option<u32> {
        self.hub.placement.get(component).copied()
    }

    /// Failover bookkeeping totals. `displaced` counts every component
    /// ever displaced by a node failure; the other three partition the
    /// displaced set (admitted elsewhere / quarantined / still in
    /// flight). Stale entries superseded by reconciliation stay counted
    /// where they ended up.
    pub fn accounting(&self) -> FailoverAccounting {
        let displaced: BTreeSet<&String> = self.hub.displaced_from.keys().collect();
        let admitted = displaced
            .iter()
            .filter(|c| self.hub.admitted_failovers.contains(**c))
            .count();
        let quarantined = displaced
            .iter()
            .filter(|c| self.hub.quarantined.contains_key(**c))
            .count();
        let pending = displaced
            .iter()
            .filter(|c| {
                self.hub.pending.contains_key(**c)
                    || self.hub.retry_at.values().any(|batch| batch.contains(**c))
            })
            .count();
        FailoverAccounting {
            displaced: displaced.len(),
            admitted,
            quarantined,
            pending,
        }
    }

    /// Typed quarantine evidence: component -> reason.
    pub fn quarantine_evidence(&self) -> &BTreeMap<String, String> {
        &self.hub.quarantined
    }

    /// Reservation-consistency check over all *live* nodes: a component
    /// holds a ledger reservation iff its lifecycle state holds
    /// admission. Returns the number of violations (0 = clean).
    pub fn leaked_reservations(&self) -> u64 {
        let mut leaks = 0;
        for slot in &self.nodes {
            if !slot.alive {
                continue;
            }
            let drcr = slot.rt.drcr();
            for name in drcr.component_names() {
                let holds = drcr.state_of(&name).is_some_and(|s| s.holds_admission());
                if drcr.ledger().reservation(&name).is_some() != holds {
                    leaks += 1;
                }
            }
        }
        leaks
    }

    /// Scheduler counters of one node's kernel.
    pub fn node_counters(&self, node: u32) -> Option<SchedCounters> {
        self.nodes
            .get(node as usize)
            .map(|s| s.rt.kernel().counters())
    }

    /// Total deadline misses across live nodes.
    pub fn deadline_misses_on_survivors(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.rt.kernel().counters().deadline_misses)
            .sum()
    }

    /// Number of components Active on a node right now.
    pub fn active_on(&self, node: u32) -> usize {
        let Some(slot) = self.nodes.get(node as usize) else {
            return 0;
        };
        slot.rt.drcr().active_names().count()
    }

    /// The federation's typed event log, keyed on tick.
    pub fn events(&self) -> &[(u64, FedEvent)] {
        &self.events
    }

    /// Renders the event log to one canonical string (determinism
    /// comparisons byte-compare this).
    pub fn render_events(&self) -> String {
        let mut out = String::new();
        for (t, e) in &self.events {
            out.push_str(&format!("[{t}] {e}\n"));
        }
        out
    }

    /// A deterministic snapshot of the `fed.*` metrics.
    pub fn metrics_report(&self) -> MetricsReport {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::LinkRates;
    use crate::hybrid::{FnLogic, RtIo};

    fn descriptor(name: &str, usage: f64) -> ComponentDescriptor {
        ComponentDescriptor::builder(name)
            .periodic(100, 0, 3)
            .cpu_usage(usage)
            .build()
            .expect("descriptor")
    }

    fn quiet() -> LogicFactory {
        Rc::new(|| -> Box<dyn RtLogic> { Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})) })
    }

    /// Ticks after a message's first transmission by which every copy has
    /// been delivered or dropped and its resend budget has run out.
    fn resend_window(net: &BridgeNet) -> u64 {
        let mut last_send = 0;
        let mut gap = net.resend_after;
        for attempt in 2..=net.max_attempts {
            last_send += gap;
            gap = (net.resend_after << (attempt - 1).min(8)).min(MAX_RESEND_BACKOFF_TICKS);
        }
        last_send + gap.max(net.delay_ticks.1.max(2))
    }

    #[test]
    fn lossy_run_keeps_dedup_state_within_the_resend_window() {
        let config = FederationConfig::new(6, 1, 77);
        let plan = NodeFaultPlan::new(77)
            .with_link_rates(LinkRates {
                drop: 0.1,
                delay: 0.2,
                delay_ticks: (1, 3),
            })
            .at(100, NodeFaultKind::Crash { node: 5 })
            .at(300, NodeFaultKind::Partition { isolated: vec![0] })
            .at(400, NodeFaultKind::Heal);
        let mut fed = Federation::new(config, plan);
        for node in 0..6u32 {
            let wave = (0..4)
                .map(|i| (descriptor(&format!("d{node}x{i}"), 0.05), quiet()))
                .collect();
            fed.install_wave(node, wave).expect("install");
        }
        let window = resend_window(&fed.net);
        // Per link, `next_seq` at the end of every tick so far.
        let mut sent: BTreeMap<(FedEndpoint, FedEndpoint), Vec<u64>> = BTreeMap::new();
        let ticks: u64 = 2_000;
        for t in 0..ticks {
            fed.step();
            for (&key, link) in &fed.net.links {
                let history = sent.entry(key).or_default();
                history.resize(t as usize, 0);
                history.push(link.next_seq);
                // Every seq sent `window` or more ticks ago is settled, so
                // the dedup set holds at most one window of seqs.
                if let Some(old) = t.checked_sub(window) {
                    assert!(
                        link.settled >= history[old as usize],
                        "{key:?} at tick {t}: watermark {} lags seq {} sent at tick {old}",
                        link.settled,
                        history[old as usize],
                    );
                }
                assert!(link.seen.iter().all(|&seq| seq >= link.settled));
                assert!(link.seen.len() as u64 <= link.next_seq - link.settled);
            }
        }
        let heartbeats = &fed.net.links[&(FedEndpoint::Node(1), FedEndpoint::Hub)];
        assert!(heartbeats.next_seq >= ticks, "node 1 sent too little");
        let dups = fed
            .metrics_report()
            .counters()
            .iter()
            .find(|(k, _)| k == "fed.messages.duplicates")
            .map_or(0, |(_, v)| *v);
        assert!(dups > 0, "the lossy run never exercised dedup");
    }

    #[test]
    fn one_pass_loads_match_the_per_node_sums_bit_for_bit() {
        let config = FederationConfig::new(16, 2, 5);
        let mut hub = Hub::new(&config);
        let mut catalog = Catalog::new();
        let mut rng = SimRng::from_seed(5);
        for i in 0..2_000 {
            let name = format!("c{i:04}");
            let usage = rng.uniform_range(0.001, 0.05);
            // One in ten names has no catalog entry and must not count.
            if rng.uniform_u64(0, 10) > 0 {
                catalog.insert(
                    name.clone(),
                    CatalogEntry {
                        descriptor: Rc::new(descriptor(&name, usage)),
                        factory: quiet(),
                    },
                );
            }
            let node = rng.uniform_u64(0, 16) as u32;
            if rng.chance(0.8) {
                hub.placement.insert(name, node);
            } else {
                hub.pending.insert(
                    name,
                    PendingPlacement {
                        target: node,
                        epoch: 1,
                    },
                );
            }
        }
        // Odd nodes are not candidates (failed): their claims are skipped.
        let candidates: Vec<u32> = (0..16).filter(|n| n % 2 == 0).collect();
        let loads = hub.estimated_loads(candidates.iter().copied(), &catalog, 2);
        assert_eq!(loads.keys().copied().collect::<Vec<_>>(), candidates);
        for (&node, &load) in &loads {
            let reference = hub.estimated_load(node, &catalog, 2);
            assert!(load > 0.0);
            assert_eq!(load.to_bits(), reference.to_bits(), "node {node}");
        }
    }
}
