//! Observability for the DRCR executive: typed events and a metrics
//! registry, mirroring [`rtos::trace`] one layer up.
//!
//! The executive's decisions — lifecycle transitions, resolve rounds,
//! admission verdicts, wiring diagnoses, cascades, mode switches,
//! rollbacks — are [`DrcrEvent`]s;
//! management-bridge traffic (command enqueue, reply drain and latency) is
//! [`BridgeEvent`]s. Both flow through the same bounded-ring +
//! live-subscriber machinery as kernel events ([`rtos::trace::EventSink`]),
//! so one `TraceSubscriber` implementation can tap any layer.
//!
//! Alongside the event streams sits a [`MetricsRegistry`]: named counters,
//! gauges and log-linear [`Histogram`]s, snapshotable as a deterministic
//! [`MetricsReport`]. Everything is keyed on virtual time and event counts
//! only — two runs with the same seed produce byte-identical reports.

use crate::lifecycle::ComponentState;
use crate::rta::TaskWcrt;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

pub use rtos::hist::Histogram;
pub use rtos::trace::{EventSink, Timestamped, TraceRing, TraceSubscriber};

/// A decision or state change inside the DRCR executive.
///
/// The `Display` rendering matches the pre-typed decision-log strings
/// verbatim; render an event with `to_string()` where a human-readable
/// line is wanted — e.g. map `drcr.events()` through `to_string()` to
/// reconstruct the whole legacy decision log.
#[derive(Debug, Clone, PartialEq)]
pub enum DrcrEvent {
    /// A resolve pass (to fixpoint) began.
    ResolveRoundStarted {
        /// Monotonic resolve-round number.
        round: u64,
    },
    /// A resolve pass reached its fixpoint.
    ResolveRoundEnded {
        /// The round that ended.
        round: u64,
        /// Components activated during the round.
        activations: u32,
        /// Components deactivated during the round.
        deactivations: u32,
    },
    /// A component changed lifecycle state (Figure 1). Every state change
    /// the executive makes — registration, activation, deactivation,
    /// suspend, resume, enable, disable and removal — is one of these, so
    /// the stream is the component's whole lifecycle history.
    Transition {
        /// The component.
        component: String,
        /// State before.
        from: ComponentState,
        /// State after.
        to: ComponentState,
        /// Why the executive performed it.
        reason: String,
    },
    /// A registration was refused (duplicate name).
    RegistrationRefused {
        /// Why.
        reason: String,
    },
    /// One resolver's verdict on one candidate.
    AdmissionVerdict {
        /// The candidate component.
        component: String,
        /// The resolver that ruled (internal or customized).
        resolver: String,
        /// Whether the resolver was the internal one.
        internal: bool,
        /// The verdict.
        admitted: bool,
        /// Rejection reason (empty on admission).
        reason: String,
    },
    /// The response-time analysis behind an internal admission verdict:
    /// the computed worst-case response times of the hypothetical task set
    /// (candidate included). Emitted only when the internal policy's
    /// rulings carry that analysis
    /// ([`ResolvingService::rule`](crate::resolve::ResolvingService::rule)),
    /// immediately before the corresponding
    /// [`DrcrEvent::AdmissionVerdict`]. In a batched wave every candidate
    /// carries its CPU's whole-wave analysis: the hypothetical task set
    /// with every member of the wave admitted, so an earlier member's WCRT
    /// already counts the later members' interference. When a later member
    /// then fails to activate, the evidence emitted for the earlier ones
    /// still counts it: a superset of what joined the CPU. Their verdicts
    /// stay sound, since response times only grow with the task set.
    AdmissionAnalysis {
        /// The candidate component.
        component: String,
        /// The CPU analysed.
        cpu: u32,
        /// Whether every task met its implicit deadline.
        schedulable: bool,
        /// Per analysed task, priority order; empty when the aperiodic
        /// utilization fallback ruled. Shared with the analysis it reports.
        wcrts: Rc<[TaskWcrt]>,
    },
    /// Functional constraints unsatisfied: the component stays waiting.
    WiringUnsatisfied {
        /// The component.
        component: String,
        /// The unbound inports, rendered.
        missing: String,
    },
    /// A departure cascade deactivated a dependent component.
    CascadeDeactivation {
        /// The dependent being deactivated.
        component: String,
        /// The broken constraint.
        reason: String,
    },
    /// A dependency cycle is being co-activated as a group.
    GroupCoActivation {
        /// The members, sorted.
        members: Vec<String>,
    },
    /// Group activation abandoned: one member was rejected.
    GroupAbandoned {
        /// The rejected member.
        component: String,
        /// The resolver that rejected it.
        resolver: String,
        /// Whether the resolver was the internal one.
        internal: bool,
        /// The rejection reason.
        reason: String,
    },
    /// An activation attempt errored (not a constraint rejection).
    ActivationFailed {
        /// The component.
        component: String,
        /// The error.
        reason: String,
    },
    /// A mid-activation failure rolled back the kernel objects already
    /// created (channels, tasks).
    Rollback {
        /// The component whose activation unwound.
        component: String,
        /// What failed.
        reason: String,
    },
    /// A component's contract was re-written for an operating mode.
    ModeSwitch {
        /// The component.
        component: String,
        /// The mode substituted in.
        mode: String,
        /// The mode's frequency.
        frequency_hz: u32,
        /// The mode's CPU claim.
        cpu_usage: f64,
    },
    /// An active component's RT task panicked; the kernel contained it and
    /// the supervisor is about to rule.
    ComponentFault {
        /// The faulted component.
        component: String,
        /// The rendered panic payload.
        cause: String,
        /// Lifetime fault count of the task instance.
        total_faults: u64,
    },
    /// The supervisor granted a restart attempt (delay 0 for immediate
    /// policies; a backoff delay otherwise).
    RestartScheduled {
        /// The component.
        component: String,
        /// 1-based attempt number.
        attempt: u32,
        /// Virtual-time delay before the attempt runs.
        delay_ns: u64,
    },
    /// A scheduled restart attempt was released to constraint resolution.
    RestartAttempt {
        /// The component.
        component: String,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The supervisor quarantined the component: it falls to `Disabled`,
    /// its reservation is released, and resolution ignores it until an
    /// operator re-enables it.
    Quarantined {
        /// The component.
        component: String,
        /// Why (fail-stop, budget exhausted, flap window, enforcement).
        reason: String,
    },
    /// The stochastic contract estimator published a measured claim: the
    /// component's contract was re-written from its declared `cpuusage` to
    /// a quantile of its observed per-cycle demand, and the component is
    /// re-admitted against the refined claim on the next resolve pass.
    ClaimRefined {
        /// The component.
        component: String,
        /// The claim previously in force.
        declared: f64,
        /// The measured claim substituted in.
        refined: f64,
        /// Cycles of evidence behind the refinement.
        samples: u64,
    },
    /// A probabilistic contract violation: the lower confidence bound on
    /// the component's per-cycle over-budget rate exceeds the tolerated
    /// miss rate. This is the typed evidence behind a stochastic-monitor
    /// quarantine — a verdict over the whole observed distribution, not a
    /// single-window ratio.
    StochasticViolation {
        /// The component.
        component: String,
        /// Its declared CPU fraction.
        claimed: f64,
        /// Observed fraction of cycles over the per-cycle budget.
        observed_rate: f64,
        /// One-sided lower confidence bound on the true over-budget rate.
        rate_lower_bound: f64,
        /// Cycles of evidence behind the verdict.
        samples: u64,
    },
}

impl fmt::Display for DrcrEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrcrEvent::ResolveRoundStarted { round } => {
                write!(f, "resolve round {round} started")
            }
            DrcrEvent::ResolveRoundEnded {
                round,
                activations,
                deactivations,
            } => write!(
                f,
                "resolve round {round} ended ({activations} activated, {deactivations} deactivated)"
            ),
            DrcrEvent::Transition {
                component,
                from,
                to,
                reason,
            } => write!(f, "{component}: {from} -> {to} ({reason})"),
            DrcrEvent::RegistrationRefused { reason } => {
                write!(f, "registration refused: {reason}")
            }
            DrcrEvent::AdmissionVerdict {
                component,
                resolver,
                internal,
                admitted,
                reason,
            } => {
                let kind = if *internal { "internal" } else { "customized" };
                if *admitted {
                    write!(f, "`{component}` admitted by {kind} resolver ({resolver})")
                } else {
                    write!(
                        f,
                        "`{component}` rejected by {kind} resolver ({resolver}): {reason}"
                    )
                }
            }
            DrcrEvent::AdmissionAnalysis {
                component,
                cpu,
                schedulable,
                wcrts,
            } => {
                let verdict = if *schedulable {
                    "schedulable"
                } else {
                    "unschedulable"
                };
                write!(
                    f,
                    "RTA for `{component}` on CPU {cpu}: {verdict} ({} tasks",
                    wcrts.len()
                )?;
                if let Some(worst) = wcrts.iter().map(|w| w.wcrt_ns).max() {
                    write!(f, ", worst WCRT {worst} ns")?;
                }
                write!(f, ")")
            }
            DrcrEvent::WiringUnsatisfied { component, missing } => {
                write!(f, "`{component}` stays unsatisfied: {missing}")
            }
            DrcrEvent::CascadeDeactivation { component, reason } => {
                write!(f, "cascade: deactivating `{component}`: {reason}")
            }
            DrcrEvent::GroupCoActivation { members } => {
                write!(f, "co-activating dependency cycle: {}", members.join(", "))
            }
            DrcrEvent::GroupAbandoned {
                component,
                resolver,
                internal,
                reason,
            } => {
                if *internal {
                    write!(
                        f,
                        "group activation abandoned: `{component}` rejected by internal resolver: {reason}"
                    )
                } else {
                    write!(
                        f,
                        "group activation abandoned: `{component}` rejected by customized resolver ({resolver}): {reason}"
                    )
                }
            }
            DrcrEvent::ActivationFailed { component, reason } => {
                write!(f, "activation of `{component}` failed: {reason}")
            }
            DrcrEvent::Rollback { component, reason } => {
                write!(f, "activation of `{component}` rolled back: {reason}")
            }
            DrcrEvent::ModeSwitch {
                component,
                mode,
                frequency_hz,
                cpu_usage,
            } => write!(
                f,
                "`{component}` contract re-written for mode `{mode}` (freq {frequency_hz} Hz, claim {cpu_usage:.3})"
            ),
            DrcrEvent::ComponentFault {
                component,
                cause,
                total_faults,
            } => write!(
                f,
                "fault in `{component}`: {cause} (fault #{total_faults})"
            ),
            DrcrEvent::RestartScheduled {
                component,
                attempt,
                delay_ns,
            } => write!(
                f,
                "restart #{attempt} of `{component}` scheduled in {delay_ns} ns"
            ),
            DrcrEvent::RestartAttempt { component, attempt } => {
                write!(f, "restart #{attempt} of `{component}` released")
            }
            DrcrEvent::Quarantined { component, reason } => {
                write!(f, "quarantined `{component}`: {reason}")
            }
            DrcrEvent::ClaimRefined {
                component,
                declared,
                refined,
                samples,
            } => write!(
                f,
                "`{component}` claim refined {declared:.3} -> {refined:.3} ({samples} cycles observed)"
            ),
            DrcrEvent::StochasticViolation {
                component,
                claimed,
                observed_rate,
                rate_lower_bound,
                samples,
            } => write!(
                f,
                "stochastic violation in `{component}`: over-budget rate {observed_rate:.3} (lower bound {rate_lower_bound:.3}, {samples} cycles) against claim {claimed:.3}"
            ),
        }
    }
}

impl DrcrEvent {
    /// The component this event concerns, when it concerns exactly one.
    pub fn component(&self) -> Option<&str> {
        match self {
            DrcrEvent::Transition { component, .. }
            | DrcrEvent::AdmissionVerdict { component, .. }
            | DrcrEvent::AdmissionAnalysis { component, .. }
            | DrcrEvent::WiringUnsatisfied { component, .. }
            | DrcrEvent::CascadeDeactivation { component, .. }
            | DrcrEvent::GroupAbandoned { component, .. }
            | DrcrEvent::ActivationFailed { component, .. }
            | DrcrEvent::Rollback { component, .. }
            | DrcrEvent::ModeSwitch { component, .. }
            | DrcrEvent::ComponentFault { component, .. }
            | DrcrEvent::RestartScheduled { component, .. }
            | DrcrEvent::RestartAttempt { component, .. }
            | DrcrEvent::Quarantined { component, .. }
            | DrcrEvent::ClaimRefined { component, .. }
            | DrcrEvent::StochasticViolation { component, .. } => Some(component),
            _ => None,
        }
    }
}

/// Management-bridge traffic between the non-RT side and an RT task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeEvent {
    /// A command was posted into a component's command mailbox.
    CommandEnqueued {
        /// The target component.
        component: String,
        /// Correlation token, for commands that expect a reply.
        token: Option<u32>,
        /// Pending commands in the mailbox after the enqueue.
        depth: usize,
    },
    /// A reply-mailbox drain completed.
    RepliesDrained {
        /// The polled component.
        component: String,
        /// Replies pulled out in this drain.
        count: u32,
    },
    /// A tokened request completed its round trip.
    ReplyLatency {
        /// The component that answered.
        component: String,
        /// The request's token.
        token: u32,
        /// Enqueue → drain latency in virtual nanoseconds.
        latency_ns: u64,
    },
}

impl fmt::Display for BridgeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeEvent::CommandEnqueued {
                component,
                token,
                depth,
            } => match token {
                Some(t) => write!(f, "command -> `{component}` (token {t}, depth {depth})"),
                None => write!(f, "command -> `{component}` (depth {depth})"),
            },
            BridgeEvent::RepliesDrained { component, count } => {
                write!(f, "drained {count} replies from `{component}`")
            }
            BridgeEvent::ReplyLatency {
                component,
                token,
                latency_ns,
            } => write!(
                f,
                "reply from `{component}` (token {token}) after {latency_ns} ns"
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Federation events
// ---------------------------------------------------------------------

/// One end of an inter-node bridge link: the hub coordinator or a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FedEndpoint {
    /// The hub coordinator holding the synced global view.
    Hub,
    /// A federated node by id.
    Node(u32),
}

impl fmt::Display for FedEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedEndpoint::Hub => write!(f, "hub"),
            FedEndpoint::Node(id) => write!(f, "node {id}"),
        }
    }
}

/// A decision or state change inside a federation
/// ([`crate::federation::Federation`]): failure detection, cross-node
/// failover, partition degradation and bridge-link delivery, all keyed on
/// the federation tick they happened at.
#[derive(Debug, Clone, PartialEq)]
pub enum FedEvent {
    /// The failure detector moved a node to Suspected.
    NodeSuspected {
        /// The node.
        node: u32,
        /// Consecutive heartbeats missed.
        missed: u32,
    },
    /// The failure detector declared a node Failed; its components are
    /// displaced and failover placement begins.
    NodeFailed {
        /// The node.
        node: u32,
        /// Consecutive heartbeats missed.
        missed: u32,
    },
    /// The fault plan hard-killed a node (ground truth, distinct from the
    /// detector's verdict).
    NodeCrashed {
        /// The node.
        node: u32,
    },
    /// The fault plan cut a node set off from the hub.
    PartitionStarted {
        /// The isolated (minority) nodes.
        isolated: Vec<u32>,
    },
    /// The active partition healed.
    PartitionHealed,
    /// A node lost hub contact long enough to fall back to local-only
    /// admission.
    NodeDegraded {
        /// The node.
        node: u32,
        /// Ticks since the last hub contact.
        since_ticks: u32,
    },
    /// A degraded or falsely-failed node re-established hub contact.
    NodeRejoined {
        /// The node.
        node: u32,
    },
    /// The hub planned a failover placement for a displaced component.
    MigrationPlanned {
        /// The component.
        component: String,
        /// The node it was displaced from.
        from: u32,
        /// The target node.
        to: u32,
        /// The placement epoch (stale acks are ignored).
        epoch: u64,
    },
    /// A failover placement was admitted on its target node.
    MigrationAdmitted {
        /// The component.
        component: String,
        /// The target node.
        node: u32,
        /// The placement epoch.
        epoch: u64,
    },
    /// A failover placement was rejected by the target node's admission.
    MigrationRejected {
        /// The component.
        component: String,
        /// The target node.
        node: u32,
        /// The admission rejection reason.
        reason: String,
    },
    /// The failover supervisor granted a placement retry after backoff.
    FailoverRetryScheduled {
        /// The component.
        component: String,
        /// 1-based attempt number.
        attempt: u32,
        /// Federation ticks before the retry.
        delay_ticks: u64,
    },
    /// The failover supervisor exhausted the retry budget (or tripped its
    /// flap window): the component stays out with typed evidence.
    FailoverQuarantined {
        /// The component.
        component: String,
        /// Why.
        reason: String,
    },
    /// A degraded node admitted an arrival through its own local
    /// resolver instead of the hub.
    LocalAdmission {
        /// The node.
        node: u32,
        /// The component.
        component: String,
        /// The local admission verdict.
        admitted: bool,
    },
    /// Post-heal reconciliation retired a component copy the hub had
    /// re-placed elsewhere while the node was partitioned (hub wins).
    ReconcileRetired {
        /// The node retiring its copy.
        node: u32,
        /// The component.
        component: String,
    },
    /// A bridge message transmission was lost.
    MessageDropped {
        /// Sender.
        from: FedEndpoint,
        /// Receiver.
        to: FedEndpoint,
        /// Link-level sequence number.
        seq: u64,
    },
    /// An unacked bridge message was retransmitted.
    MessageRetried {
        /// Sender.
        from: FedEndpoint,
        /// Receiver.
        to: FedEndpoint,
        /// Link-level sequence number.
        seq: u64,
        /// 1-based transmission attempt.
        attempt: u32,
    },
    /// The bounded retry budget for a bridge message ran out.
    MessageExpired {
        /// Sender.
        from: FedEndpoint,
        /// Receiver.
        to: FedEndpoint,
        /// Link-level sequence number.
        seq: u64,
    },
}

impl fmt::Display for FedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedEvent::NodeSuspected { node, missed } => {
                write!(f, "node {node} suspected ({missed} heartbeats missed)")
            }
            FedEvent::NodeFailed { node, missed } => {
                write!(f, "node {node} failed ({missed} heartbeats missed)")
            }
            FedEvent::NodeCrashed { node } => write!(f, "node {node} crashed"),
            FedEvent::PartitionStarted { isolated } => {
                let ids: Vec<String> = isolated.iter().map(u32::to_string).collect();
                write!(
                    f,
                    "partition started: nodes {{{}}} isolated",
                    ids.join(", ")
                )
            }
            FedEvent::PartitionHealed => write!(f, "partition healed"),
            FedEvent::NodeDegraded { node, since_ticks } => {
                write!(
                    f,
                    "node {node} degraded to local admission ({since_ticks} ticks without hub)"
                )
            }
            FedEvent::NodeRejoined { node } => write!(f, "node {node} rejoined"),
            FedEvent::MigrationPlanned {
                component,
                from,
                to,
                epoch,
            } => write!(
                f,
                "migration of `{component}` planned: node {from} -> node {to} (epoch {epoch})"
            ),
            FedEvent::MigrationAdmitted {
                component,
                node,
                epoch,
            } => write!(
                f,
                "`{component}` re-admitted on node {node} (epoch {epoch})"
            ),
            FedEvent::MigrationRejected {
                component,
                node,
                reason,
            } => write!(
                f,
                "`{component}` rejected by node {node} admission: {reason}"
            ),
            FedEvent::FailoverRetryScheduled {
                component,
                attempt,
                delay_ticks,
            } => write!(
                f,
                "failover retry #{attempt} of `{component}` in {delay_ticks} ticks"
            ),
            FedEvent::FailoverQuarantined { component, reason } => {
                write!(f, "failover of `{component}` quarantined: {reason}")
            }
            FedEvent::LocalAdmission {
                node,
                component,
                admitted,
            } => {
                let verdict = if *admitted { "admitted" } else { "rejected" };
                write!(f, "node {node} locally {verdict} `{component}`")
            }
            FedEvent::ReconcileRetired { node, component } => {
                write!(f, "node {node} retired `{component}` on reconcile")
            }
            FedEvent::MessageDropped { from, to, seq } => {
                write!(f, "message {from} -> {to} #{seq} dropped")
            }
            FedEvent::MessageRetried {
                from,
                to,
                seq,
                attempt,
            } => write!(
                f,
                "message {from} -> {to} #{seq} retried (attempt {attempt})"
            ),
            FedEvent::MessageExpired { from, to, seq } => {
                write!(f, "message {from} -> {to} #{seq} gave up")
            }
        }
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/// Named counters, gauges and histograms. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a counter, creating it at zero. The name is copied
    /// only on a counter's first use.
    pub fn count(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets a gauge to the latest value.
    pub fn gauge(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records a sample into a histogram, creating it on first use.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// A deterministic snapshot (all series in lexicographic name order).
    pub fn snapshot(&self) -> MetricsReport {
        MetricsReport {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// A point-in-time snapshot of a [`MetricsRegistry`], ordered and
/// renderable. Two snapshots of identical registries render byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl MetricsReport {
    /// The counters, name-ordered.
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// The gauges, name-ordered.
    pub fn gauges(&self) -> &[(String, f64)] {
        &self.gauges
    }

    /// The histograms, name-ordered.
    pub fn histograms(&self) -> &[(String, Histogram)] {
        &self.histograms
    }

    /// Human-readable rendering: one aligned line per series.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter   {name} = {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge     {name} = {v:.6}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name} count={} sum={} min={} max={} mean={:.1}\n",
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                h.mean(),
            ));
        }
        out
    }

    /// Machine-readable rendering: one JSON object per line
    /// (`{"kind":"counter",...}` / `"gauge"` / `"histogram"`).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!(
                "{{\"kind\":\"counter\",\"name\":\"{}\",\"value\":{v}}}\n",
                json_escape(name)
            ));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!(
                "{{\"kind\":\"gauge\",\"name\":\"{}\",\"value\":{v:.6}}}\n",
                json_escape(name)
            ));
        }
        for (name, h) in &self.histograms {
            let buckets: Vec<String> = h
                .buckets()
                .map(|(le, count)| format!("{{\"le\":{le},\"count\":{count}}}"))
                .collect();
            out.push_str(&format!(
                "{{\"kind\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}\n",
                json_escape(name),
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                buckets.join(","),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_snapshot_is_deterministic() {
        let build = || {
            let mut m = MetricsRegistry::new();
            m.count("b.second", 2);
            m.count("a.first", 1);
            m.gauge("util", 0.25);
            m.observe("lat", 500);
            m.observe("lat", 2_000_000);
            m
        };
        let (r1, r2) = (build().snapshot(), build().snapshot());
        assert_eq!(r1, r2);
        assert_eq!(r1.to_text(), r2.to_text());
        assert_eq!(r1.to_json_lines(), r2.to_json_lines());
        // Name order is lexicographic regardless of insertion order.
        assert_eq!(r1.counters()[0].0, "a.first");
    }

    #[test]
    fn json_lines_shape() {
        let mut m = MetricsRegistry::new();
        m.count("x", 3);
        m.gauge("g", 1.5);
        m.observe("h", 7);
        m.observe("h", 7);
        m.observe("h", 1_000);
        let json = m.snapshot().to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"kind\":\"counter\",\"name\":\"x\",\"value\":3}"
        );
        assert_eq!(
            lines[1],
            "{\"kind\":\"gauge\",\"name\":\"g\",\"value\":1.500000}"
        );
        // Only non-empty buckets, each by its inclusive upper edge: 7 is
        // exact, 1 000 lands in the sub-bucket [992, 1007].
        assert_eq!(
            lines[2],
            "{\"kind\":\"histogram\",\"name\":\"h\",\"count\":3,\"sum\":1014,\"min\":7,\"max\":1000,\"buckets\":[{\"le\":7,\"count\":2},{\"le\":1007,\"count\":1}]}"
        );
    }

    #[test]
    fn event_display_matches_legacy_decision_lines() {
        let e = DrcrEvent::AdmissionVerdict {
            component: "calc".into(),
            resolver: "utilization".into(),
            internal: true,
            admitted: false,
            reason: "cap exceeded".into(),
        };
        assert_eq!(
            e.to_string(),
            "`calc` rejected by internal resolver (utilization): cap exceeded"
        );
        let e = DrcrEvent::CascadeDeactivation {
            component: "disp".into(),
            reason: "inport latdat unbound".into(),
        };
        assert_eq!(
            e.to_string(),
            "cascade: deactivating `disp`: inport latdat unbound"
        );
        let e = DrcrEvent::Transition {
            component: "disp".into(),
            from: ComponentState::Active,
            to: ComponentState::Unsatisfied,
            reason: "provider `calc` stopped".into(),
        };
        assert_eq!(
            e.to_string(),
            "disp: ACTIVE -> UNSATISFIED (provider `calc` stopped)"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
