//! The reactive incremental resolution engine (and its naive oracle).
//!
//! This module generalizes the persistent [`PortIndex`] and the dirty-set
//! deactivation sweep into a dependency-tracked constraint-node graph. Each
//! component owns up to four constraint nodes:
//!
//! * a **wiring node** — its memoized functional check
//!   ([`PortIndex::check_functional`] result);
//! * an **admission node** — its memoized internal verdict (policy decision
//!   plus, under response-time analysis, the full [`RtaAnalysis`] evidence);
//! * a **placement node** — the CPU its admission verdict is scoped to
//!   (tracked as a per-CPU epoch the admission memo is keyed on);
//! * a **mode node** — the contract revision; a mode switch invalidates the
//!   component's wiring and admission nodes wholesale.
//!
//! Invalidation is *scoped*: provider-side churn on a channel (a provider
//! registering, unregistering, or flipping its providing state) dirties
//! exactly the wiring nodes of that channel's consumers; an
//! admission-holding flip on a CPU bumps that CPU's epoch, lazily
//! invalidating only the admission nodes scoped to it. Everything else stays
//! memoized, so a resolve round after a localized change does O(changed)
//! node re-evaluations, not O(components).
//!
//! Batching: event storms coalesce naturally — N invalidations of the same
//! node before its next read cost one re-evaluation, and when the policy
//! batches ([`ResolvingService::batches`]: response-time analysis) a
//! K-component arrival batch is admitted in **one** fixed-point pass per CPU
//! ([`ResolvingService::admit_batch`]) instead of K.
//!
//! [`NaiveResolver`] is the differential oracle: the same [`Resolver`]
//! surface with no memos, no dirty scope (every component is swept every
//! round), a [`WiringGraph`] rebuilt per check, and one admission ruling
//! per candidate (it never batches). The lockstep proptests drive both
//! engines with identical notification sequences and require the
//! executive's event streams to stay byte-identical; the batch tests use it
//! as the sequential reference.

use crate::descriptor::ComponentDescriptor;
use crate::lifecycle::ComponentState;
use crate::resolve::{
    AdmissionRuling, BatchAdmission, Decision, Resolver, ResolvingService, WiringCheck,
};
use crate::rta::RtaAnalysis;
use crate::view::{ComponentInfo, SystemView};
use crate::wiring::{PortIndex, WiringGraph, WiringResult};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Bound;
use std::rc::Rc;

/// Rules on one candidate with `policy` (always a fresh evaluation).
fn rule(
    policy: &dyn ResolvingService,
    candidate: &ComponentInfo,
    view: &SystemView,
) -> AdmissionRuling {
    let (decision, analysis) = policy.rule(candidate, view);
    AdmissionRuling {
        resolver: policy.name().to_string(),
        decision,
        analysis,
        evaluated: true,
    }
}

/// One memoized admission node: the ruling plus the CPU epoch it was
/// computed under.
#[derive(Debug, Clone)]
struct AdmissionMemo {
    epoch: u64,
    resolver: String,
    decision: Decision,
    analysis: Option<RtaAnalysis>,
}

/// The reactive incremental engine. See the [module docs](self).
pub struct ReactiveResolver {
    /// Persistent port topology, maintained across every notification.
    port_index: PortIndex,
    /// Components whose wiring must be re-checked by the deactivation
    /// sweep: seeded with the consumers of every channel whose provider
    /// stopped providing.
    dirty: BTreeSet<Rc<str>>,
    /// Memoized wiring nodes: component → last strict functional result.
    wiring_memo: HashMap<String, WiringResult>,
    /// The internal admission policy.
    policy: Box<dyn ResolvingService>,
    /// Admission-scope epochs: bumped per CPU on every admission-holding
    /// flip, lazily invalidating that CPU's memoized verdicts.
    epochs: HashMap<u32, u64>,
    /// Memoized admission nodes.
    admission_memo: HashMap<String, AdmissionMemo>,
}

impl fmt::Debug for ReactiveResolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReactiveResolver")
            .field("dirty", &self.dirty.len())
            .field("policy", &self.policy.name())
            .finish()
    }
}

impl ReactiveResolver {
    /// A fresh engine ruling admission with `policy`.
    pub fn new(policy: Box<dyn ResolvingService>) -> Self {
        ReactiveResolver {
            port_index: PortIndex::new(),
            dirty: BTreeSet::new(),
            wiring_memo: HashMap::new(),
            policy,
            epochs: HashMap::new(),
            admission_memo: HashMap::new(),
        }
    }

    /// Drops the memoized wiring nodes of every consumer of `channel`.
    fn invalidate_consumers(&mut self, channel: &str) {
        for consumer in self.port_index.consumers_of(channel) {
            self.wiring_memo.remove(&**consumer);
        }
    }
}

impl Resolver for ReactiveResolver {
    fn name(&self) -> &str {
        "reactive"
    }

    fn on_registered(&mut self, name: &Rc<str>, descriptor: &ComponentDescriptor) {
        self.port_index.insert(name, descriptor);
        // A new provider — even an inactive one — can change a consumer's
        // diagnosis (`NoProvider` → `ProviderInactive`) or its provider
        // scan order, so the consumers' wiring nodes go stale. It cannot
        // break a satisfied component, so nothing is seeded for the sweep.
        for port in &descriptor.outports {
            self.invalidate_consumers(port.name.as_str());
        }
    }

    fn on_removed(&mut self, name: &str, descriptor: &ComponentDescriptor) {
        // Symmetric to registration: consumers' diagnoses go stale
        // (`ProviderInactive` → `NoProvider`). The executive deactivates a
        // running component before removing it, so the providing flip —
        // and the sweep seeding it implies — already happened.
        for port in &descriptor.outports {
            self.invalidate_consumers(port.name.as_str());
        }
        self.port_index.remove(name, descriptor);
        self.dirty.remove(name);
        self.wiring_memo.remove(name);
        self.admission_memo.remove(name);
    }

    fn on_state_changed(
        &mut self,
        name: &Rc<str>,
        cpu: u32,
        from: ComponentState,
        to: ComponentState,
    ) {
        if from.provides_outputs() != to.provides_outputs() {
            let now = to.provides_outputs();
            self.port_index.set_active(name, now);
            // Either direction invalidates the consumers' wiring nodes;
            // only providing → *false* can break a satisfied component, so
            // only that direction seeds the deactivation sweep.
            let mut affected: Vec<Rc<str>> = Vec::new();
            for channel in self.port_index.outports_of(name) {
                for consumer in self.port_index.consumers_of(channel) {
                    affected.push(consumer.clone());
                }
            }
            for consumer in &affected {
                self.wiring_memo.remove(&**consumer);
            }
            if !now {
                self.dirty.extend(affected);
            }
        }
        if from.holds_admission() != to.holds_admission() {
            *self.epochs.entry(cpu).or_insert(0) += 1;
            // The flip just staled this component's own ruling; drop it
            // rather than keep its evidence alive while it holds admission.
            self.admission_memo.remove(&**name);
        }
    }

    fn on_contract_changed(&mut self, name: &str, descriptor: &ComponentDescriptor) {
        // A mode or claim rewrite substitutes frequency/claim/priority,
        // never ports: the port index stays valid, but the component's own
        // nodes do not.
        self.wiring_memo.remove(name);
        self.admission_memo.remove(name);
        // Contract rewrites change the CPU's capacity picture even while
        // the component is inactive (a refined claim frees headroom a
        // waiting peer was rejected against), so the CPU's admission epoch
        // advances and peers' memoized rulings go stale. Conservative:
        // memo misses only re-run analyses, decisions and event streams
        // are unchanged.
        *self.epochs.entry(descriptor.task.cpu()).or_insert(0) += 1;
    }

    fn sweep_next(&mut self, cursor: Option<&str>) -> Option<Rc<str>> {
        let next = match cursor {
            None => self.dirty.iter().next().cloned(),
            Some(c) => self
                .dirty
                .range::<str, _>((Bound::Excluded(c), Bound::Unbounded))
                .next()
                .cloned(),
        }?;
        self.dirty.remove(&next);
        Some(next)
    }

    fn check_wiring(
        &mut self,
        candidate: &ComponentDescriptor,
        assume_active: &[Rc<str>],
    ) -> WiringCheck {
        if !assume_active.is_empty() {
            // Group-activation probes reason about hypothetical states and
            // must neither read nor populate the memo.
            return WiringCheck {
                result: self.port_index.check_functional(candidate, assume_active),
                evaluated: true,
                graph_built: false,
            };
        }
        if let Some(cached) = self.wiring_memo.get(candidate.name.as_str()) {
            return WiringCheck {
                result: cached.clone(),
                evaluated: false,
                graph_built: false,
            };
        }
        let result = self.port_index.check_functional(candidate, &[]);
        self.wiring_memo
            .insert(candidate.name.to_string(), result.clone());
        WiringCheck {
            result,
            evaluated: true,
            graph_built: false,
        }
    }

    fn admit(
        &mut self,
        candidate: &ComponentInfo,
        view: &SystemView,
        memoize: bool,
    ) -> AdmissionRuling {
        if !(memoize && self.policy.cacheable()) {
            return rule(&*self.policy, candidate, view);
        }
        let epoch = self.epochs.get(&candidate.cpu).copied().unwrap_or(0);
        if let Some(memo) = self.admission_memo.get(&*candidate.name) {
            if memo.epoch == epoch {
                return AdmissionRuling {
                    resolver: memo.resolver.clone(),
                    decision: memo.decision.clone(),
                    analysis: memo.analysis.clone(),
                    evaluated: false,
                };
            }
        }
        let ruling = rule(&*self.policy, candidate, view);
        self.admission_memo.insert(
            candidate.name.to_string(),
            AdmissionMemo {
                epoch,
                resolver: ruling.resolver.clone(),
                decision: ruling.decision.clone(),
                analysis: ruling.analysis.clone(),
            },
        );
        ruling
    }

    fn batches(&self) -> bool {
        self.policy.batches()
    }

    fn admit_batch(
        &mut self,
        candidates: &[ComponentInfo],
        view: &SystemView,
    ) -> Option<BatchAdmission> {
        // A candidate whose memoized rejection is still current stays
        // rejected however many peers join its CPU first (response times
        // only grow), so the policy would decline the wave: skip the
        // whole-wave pass, which clones the view and runs a fixed point per
        // CPU only to decline. Near saturation most declined waves end
        // here (about two thirds of the batch attempts on drtbench's
        // `admission_waves`, where the skip is worth 7% in throughput on a
        // 2-vCPU KVM guest).
        let rejected_now = candidates.iter().any(|c| {
            self.admission_memo.get(&*c.name).is_some_and(|memo| {
                !memo.decision.is_admit()
                    && memo.epoch == self.epochs.get(&c.cpu).copied().unwrap_or(0)
            })
        });
        if rejected_now {
            return None;
        }
        let analyses = self.policy.admit_batch(candidates, view)?;
        Some(BatchAdmission {
            resolver: self.policy.name().to_string(),
            analyses,
        })
    }
}

/// The pre-index reference engine: no memos, no dirty scope, a
/// [`WiringGraph`] rebuilt from scratch for every check, a sweep that
/// visits every known component every round, and one admission ruling per
/// candidate. Kept as the differential oracle and benchmark baseline.
pub struct NaiveResolver {
    mirror: BTreeMap<Rc<str>, (ComponentDescriptor, ComponentState)>,
    policy: Box<dyn ResolvingService>,
}

impl fmt::Debug for NaiveResolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NaiveResolver")
            .field("components", &self.mirror.len())
            .field("policy", &self.policy.name())
            .finish()
    }
}

impl NaiveResolver {
    /// A fresh oracle ruling admission with `policy`.
    pub fn new(policy: Box<dyn ResolvingService>) -> Self {
        NaiveResolver {
            mirror: BTreeMap::new(),
            policy,
        }
    }
}

impl Resolver for NaiveResolver {
    fn name(&self) -> &str {
        "naive-reference"
    }

    fn on_registered(&mut self, name: &Rc<str>, descriptor: &ComponentDescriptor) {
        self.mirror.insert(
            name.clone(),
            (descriptor.clone(), ComponentState::Installed),
        );
    }

    fn on_removed(&mut self, name: &str, _descriptor: &ComponentDescriptor) {
        self.mirror.remove(name);
    }

    fn on_state_changed(
        &mut self,
        name: &Rc<str>,
        _cpu: u32,
        _from: ComponentState,
        to: ComponentState,
    ) {
        if let Some((_, state)) = self.mirror.get_mut(&**name) {
            *state = to;
        }
    }

    fn on_contract_changed(&mut self, name: &str, descriptor: &ComponentDescriptor) {
        if let Some((desc, _)) = self.mirror.get_mut(name) {
            *desc = descriptor.clone();
        }
    }

    fn sweep_next(&mut self, cursor: Option<&str>) -> Option<Rc<str>> {
        match cursor {
            None => self.mirror.keys().next().cloned(),
            Some(c) => self
                .mirror
                .range::<str, _>((Bound::Excluded(c), Bound::Unbounded))
                .next()
                .map(|(k, _)| k.clone()),
        }
    }

    fn check_wiring(
        &mut self,
        candidate: &ComponentDescriptor,
        assume_active: &[Rc<str>],
    ) -> WiringCheck {
        let entries: Vec<_> = self.mirror.values().map(|(d, s)| (d, *s)).collect();
        let graph = WiringGraph::new(entries);
        WiringCheck {
            result: graph.check_functional(candidate, assume_active),
            evaluated: true,
            graph_built: true,
        }
    }

    fn admit(
        &mut self,
        candidate: &ComponentInfo,
        view: &SystemView,
        _memoize: bool,
    ) -> AdmissionRuling {
        rule(&*self.policy, candidate, view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PortInterface;
    use crate::resolve::{AlwaysAdmit, UtilizationResolver};
    use crate::rta::RtaResolver;
    use rtos::shm::DataType;

    fn provider(name: &str) -> ComponentDescriptor {
        ComponentDescriptor::builder(name)
            .periodic(1000, 0, 2)
            .cpu_usage(0.2)
            .outport("latdat", PortInterface::Shm, DataType::Integer, 4)
            .build()
            .unwrap()
    }

    fn consumer(name: &str) -> ComponentDescriptor {
        ComponentDescriptor::builder(name)
            .periodic(4, 0, 5)
            .cpu_usage(0.05)
            .inport("latdat", PortInterface::Shm, DataType::Integer, 4)
            .build()
            .unwrap()
    }

    fn info(name: &str, state: ComponentState, cpu: u32, usage: f64) -> ComponentInfo {
        ComponentInfo {
            name: name.into(),
            state,
            cpu,
            cpu_usage: usage,
            priority: 2,
            period_ns: Some(1_000_000),
        }
    }

    fn register(engine: &mut dyn Resolver, desc: &ComponentDescriptor) -> Rc<str> {
        let name: Rc<str> = Rc::from(desc.name.as_str());
        engine.on_registered(&name, desc);
        name
    }

    #[test]
    fn wiring_memo_hits_until_provider_churn() {
        let mut engine = ReactiveResolver::new(Box::new(AlwaysAdmit));
        let p = provider("calc");
        let c = consumer("disp");
        register(&mut engine, &p);
        register(&mut engine, &c);

        let first = engine.check_wiring(&c, &[]);
        assert!(first.evaluated && first.result.is_err());
        let second = engine.check_wiring(&c, &[]);
        assert!(!second.evaluated, "second strict check must hit the memo");
        assert_eq!(
            format!("{:?}", second.result),
            format!("{:?}", first.result)
        );

        // Provider activates: memo invalidated, fresh check succeeds.
        let calc: Rc<str> = Rc::from("calc");
        engine.on_state_changed(
            &calc,
            0,
            ComponentState::Unsatisfied,
            ComponentState::Active,
        );
        let third = engine.check_wiring(&c, &[]);
        assert!(third.evaluated && third.result.is_ok());
        // Activation-side churn invalidates but does not seed the sweep.
        assert_eq!(engine.sweep_next(None), None);

        // Provider stops: memo invalidated again AND the consumer is
        // seeded for the deactivation sweep.
        engine.on_state_changed(
            &calc,
            0,
            ComponentState::Active,
            ComponentState::Unsatisfied,
        );
        assert_eq!(engine.sweep_next(None).as_deref(), Some("disp"));
        assert_eq!(engine.sweep_next(Some("disp")), None);
        let fourth = engine.check_wiring(&c, &[]);
        assert!(fourth.evaluated && fourth.result.is_err());
    }

    #[test]
    fn registration_churn_refreshes_consumer_diagnosis() {
        let mut engine = ReactiveResolver::new(Box::new(AlwaysAdmit));
        let c = consumer("disp");
        register(&mut engine, &c);
        assert!(engine.check_wiring(&c, &[]).result.is_err()); // NoProvider
        let p = provider("calc");
        register(&mut engine, &p);
        let check = engine.check_wiring(&c, &[]);
        assert!(check.evaluated, "new provider must invalidate the memo");
        let missing = check.result.unwrap_err();
        assert!(missing[0].to_string().contains("not active"), "{missing:?}");
        engine.on_removed("calc", &p);
        let check = engine.check_wiring(&c, &[]);
        assert!(check.evaluated);
        assert!(
            check.result.unwrap_err()[0]
                .to_string()
                .contains("no provider"),
            "removal must fall back to NoProvider"
        );
    }

    #[test]
    fn probe_checks_bypass_the_memo() {
        let mut engine = ReactiveResolver::new(Box::new(AlwaysAdmit));
        let p = provider("calc");
        let c = consumer("disp");
        register(&mut engine, &p);
        register(&mut engine, &c);
        engine.check_wiring(&c, &[]); // populate the strict memo (Err)
        let assume: Vec<Rc<str>> = vec![Rc::from("calc")];
        let probe = engine.check_wiring(&c, &assume);
        assert!(probe.evaluated && probe.result.is_ok());
        // The probe must not have poisoned the strict memo.
        let strict = engine.check_wiring(&c, &[]);
        assert!(!strict.evaluated && strict.result.is_err());
    }

    #[test]
    fn admission_memo_keyed_on_cpu_epoch() {
        let mut engine = ReactiveResolver::new(Box::new(UtilizationResolver::default()));
        let cand = info("disp", ComponentState::Unsatisfied, 0, 0.3);
        let view = SystemView::new(2, vec![cand.clone()]);

        assert!(engine.admit(&cand, &view, true).evaluated);
        assert!(!engine.admit(&cand, &view, true).evaluated, "memo hit");

        // Suspend ↔ resume keeps admission: no epoch bump, memo survives.
        let other: Rc<str> = Rc::from("calc");
        engine.on_state_changed(&other, 0, ComponentState::Active, ComponentState::Suspended);
        assert!(!engine.admit(&cand, &view, true).evaluated);

        // An admission-holding flip on the same CPU invalidates...
        engine.on_state_changed(
            &other,
            0,
            ComponentState::Suspended,
            ComponentState::Unsatisfied,
        );
        assert!(engine.admit(&cand, &view, true).evaluated);
        // ...but a flip on another CPU does not.
        engine.on_state_changed(
            &other,
            1,
            ComponentState::Unsatisfied,
            ComponentState::Active,
        );
        assert!(!engine.admit(&cand, &view, true).evaluated);

        // Group probes never read nor populate the memo.
        assert!(engine.admit(&cand, &view, false).evaluated);
        assert!(!engine.admit(&cand, &view, true).evaluated);
    }

    #[test]
    fn mode_switch_clears_both_nodes() {
        let mut engine = ReactiveResolver::new(Box::new(UtilizationResolver::default()));
        let c = consumer("disp");
        register(&mut engine, &c);
        let cand = info("disp", ComponentState::Unsatisfied, 0, 0.3);
        let view = SystemView::new(1, vec![cand.clone()]);
        engine.check_wiring(&c, &[]);
        engine.admit(&cand, &view, true);
        engine.on_contract_changed("disp", &c);
        assert!(engine.check_wiring(&c, &[]).evaluated);
        assert!(engine.admit(&cand, &view, true).evaluated);
    }

    #[test]
    fn contract_change_bumps_the_cpu_admission_epoch_for_peers() {
        // A claim rewrite frees (or consumes) capacity a *different*
        // waiting component was last ruled against: its memoized ruling on
        // the same CPU must go stale, while other CPUs are untouched.
        let mut engine = ReactiveResolver::new(Box::new(UtilizationResolver::default()));
        let peer0 = info("peer0", ComponentState::Unsatisfied, 0, 0.3);
        let peer1 = info("peer1", ComponentState::Unsatisfied, 1, 0.3);
        let view = SystemView::new(2, vec![peer0.clone(), peer1.clone()]);
        engine.admit(&peer0, &view, true);
        engine.admit(&peer1, &view, true);
        assert!(!engine.admit(&peer0, &view, true).evaluated, "memo hit");
        assert!(!engine.admit(&peer1, &view, true).evaluated, "memo hit");

        // `hog` (CPU 0) gets its claim refined.
        let hog = provider("hog"); // cpu 0 descriptor
        engine.on_contract_changed("hog", &hog);
        assert!(
            engine.admit(&peer0, &view, true).evaluated,
            "same-CPU peer ruling must be re-evaluated"
        );
        assert!(
            !engine.admit(&peer1, &view, true).evaluated,
            "other-CPU peer ruling survives"
        );
    }

    #[test]
    fn naive_oracle_agrees_with_reactive_engine() {
        let mut reactive = ReactiveResolver::new(Box::new(UtilizationResolver::default()));
        let mut naive = NaiveResolver::new(Box::new(UtilizationResolver::default()));
        let engines: &mut [&mut dyn Resolver] = &mut [&mut reactive, &mut naive];
        let p = provider("calc");
        let c = consumer("disp");
        for engine in engines.iter_mut() {
            register(*engine, &p);
            register(*engine, &c);
        }
        let calc: Rc<str> = Rc::from("calc");
        let flips = [
            (ComponentState::Installed, ComponentState::Unsatisfied),
            (ComponentState::Unsatisfied, ComponentState::Active),
            (ComponentState::Active, ComponentState::Suspended),
            (ComponentState::Suspended, ComponentState::Active),
            (ComponentState::Active, ComponentState::Unsatisfied),
        ];
        for (from, to) in flips {
            let mut results = Vec::new();
            for engine in engines.iter_mut() {
                engine.on_state_changed(&calc, 0, from, to);
                // Strict check twice: a memo hit must replay equal values.
                let once = engine.check_wiring(&c, &[]);
                let twice = engine.check_wiring(&c, &[]);
                assert_eq!(format!("{:?}", once.result), format!("{:?}", twice.result));
                results.push(once.result);
            }
            assert_eq!(
                format!("{:?}", results[0]),
                format!("{:?}", results[1]),
                "engines diverged on {from:?} → {to:?}"
            );
        }
        // The naive sweep serves every component, the reactive sweep only
        // its dirty scope (seeded by the final providing → false flip).
        assert_eq!(naive.sweep_next(None).as_deref(), Some("calc"));
        assert_eq!(naive.sweep_next(Some("calc")).as_deref(), Some("disp"));
        assert_eq!(reactive.sweep_next(None).as_deref(), Some("disp"));
        assert_eq!(reactive.sweep_next(Some("disp")), None);
    }

    #[test]
    fn batch_admission_requires_response_time_policy() {
        let mut engine = ReactiveResolver::new(Box::new(AlwaysAdmit));
        let cand = info("a", ComponentState::Unsatisfied, 0, 0.1);
        let view = SystemView::new(1, vec![cand.clone()]);
        assert!(engine.admit_batch(&[cand], &view).is_none());
    }

    #[test]
    fn batch_admission_yields_one_analysis_per_cpu() {
        let mut engine = ReactiveResolver::new(Box::new(RtaResolver::default()));
        let a = info("a", ComponentState::Unsatisfied, 0, 0.2);
        let b = info("b", ComponentState::Unsatisfied, 0, 0.2);
        let c = info("c", ComponentState::Unsatisfied, 1, 0.2);
        let view = SystemView::new(2, vec![a.clone(), b.clone(), c.clone()]);
        let batch = engine
            .admit_batch(&[a, b, c], &view)
            .expect("schedulable batch admits in one pass");
        assert_eq!(batch.resolver, "response-time");
        assert_eq!(batch.analyses.len(), 2, "one analysis per touched CPU");
        assert_eq!(batch.analyses[0].cpu, 0);
        assert_eq!(batch.analyses[1].cpu, 1);
        assert!(batch.analyses.iter().all(|a| a.schedulable));
    }
}
