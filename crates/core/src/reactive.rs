//! The reactive incremental resolution engine (and its naive oracle).
//!
//! The engine keeps a persistent [`PortIndex`] and two scopes, filled only
//! by change notifications:
//!
//! * the **deactivation scope** ([`Resolver::sweep_next`]): the consumers of
//!   every channel whose provider stopped providing;
//! * the **activation scope** ([`Resolver::wake_next`]): the woken waiters.
//!   A component is woken when it starts waiting; once screened it is
//!   parked ([`Resolver::park`]) on its inport channels, and on the CPUs
//!   whose admission holders its ruling read.
//!
//! A provider registering, leaving or flipping its providing state wakes
//! that channel's parked consumers; an admission-holding flip on a CPU wakes
//! the waiters parked on it; a contract rewrite wakes the rewritten
//! component. A resolve round after a localized change thus screens
//! O(changed) waiters, and a waiter whose inputs did not change is never
//! screened again.
//!
//! [`NaiveResolver`] is the differential oracle: no scopes (every component
//! is swept and every waiter screened every sweep), a [`WiringGraph`]
//! rebuilt per check, and no batched admission. Since the executive emits a
//! waiter's report only when it changes, both engines must produce the same
//! event stream; the lockstep proptests drive them with identical
//! notification sequences and check that.

use crate::descriptor::ComponentDescriptor;
use crate::lifecycle::ComponentState;
use crate::resolve::{Resolver, ResolvingService};
use crate::wiring::{PortIndex, WiringGraph, WiringResult};
use rtos::task::ObjName;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Bound;
use std::rc::Rc;

/// The entry strictly after `cursor` in `set`, in name order.
fn next_after(set: &BTreeSet<Rc<str>>, cursor: Option<&str>) -> Option<Rc<str>> {
    let from = cursor.map_or(Bound::Unbounded, Bound::Excluded);
    set.range::<str, _>((from, Bound::Unbounded))
        .next()
        .cloned()
}

/// The reactive incremental engine. See the [module docs](self).
pub struct ReactiveResolver {
    /// Persistent port topology, maintained across every notification.
    port_index: PortIndex,
    /// Components whose wiring must be re-checked by the deactivation
    /// sweep: seeded with the consumers of every channel whose provider
    /// stopped providing.
    dirty: BTreeSet<Rc<str>>,
    /// The internal admission policy.
    policy: Box<dyn ResolvingService>,
    /// Waiters the next activation sweep screens.
    woken: BTreeSet<Rc<str>>,
    /// Screened waiters, each with the CPUs whose admission churn wakes it
    /// (a change on one of its inport channels always does).
    parked: HashMap<Rc<str>, Vec<u32>>,
    /// Per CPU, the waiters parked on it.
    on_cpu: HashMap<u32, BTreeSet<Rc<str>>>,
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
            policy,
            woken: BTreeSet::new(),
            parked: HashMap::new(),
            on_cpu: HashMap::new(),
        }
    }

    /// Takes `name` out of the parked scope, returning its interned key.
    fn unpark(&mut self, name: &str) -> Option<Rc<str>> {
        let (key, cpus) = self.parked.remove_entry(name)?;
        for cpu in cpus {
            if let Some(waiters) = self.on_cpu.get_mut(&cpu) {
                waiters.remove(name);
            }
        }
        Some(key)
    }

    /// Wakes every waiter parked on `cpu`.
    fn wake_cpu(&mut self, cpu: u32) {
        for name in self.on_cpu.remove(&cpu).unwrap_or_default() {
            self.wake(&name);
        }
    }

    /// Wakes the parked consumers of `channel`.
    fn wake_consumers(&mut self, channel: ObjName) {
        let parked: Vec<Rc<str>> = self
            .port_index
            .consumers_of(channel)
            .filter(|c| self.parked.contains_key(&***c))
            .cloned()
            .collect();
        for consumer in parked {
            self.wake(&consumer);
        }
    }
}

impl Resolver for ReactiveResolver {
    fn name(&self) -> &str {
        "reactive"
    }

    fn on_registered(&mut self, name: &Rc<str>, descriptor: &Rc<ComponentDescriptor>) {
        self.port_index.insert(name, descriptor);
        // A new provider — even an inactive one — can change a consumer's
        // diagnosis (`NoProvider` → `ProviderInactive`) or its provider
        // scan order, so the parked consumers wake. It cannot break a
        // satisfied component, so nothing is seeded for the sweep.
        for port in &descriptor.outports {
            self.wake_consumers(port.name);
        }
    }

    fn on_removed(&mut self, name: &str, descriptor: &ComponentDescriptor) {
        // Symmetric to registration: consumers' diagnoses go stale
        // (`ProviderInactive` → `NoProvider`). The executive deactivates a
        // running component before removing it, so the providing flip —
        // and the sweep seeding it implies — already happened.
        for port in &descriptor.outports {
            self.wake_consumers(port.name);
        }
        self.port_index.remove(name, descriptor);
        self.dirty.remove(name);
        self.unpark(name);
        self.woken.remove(name);
    }

    fn on_state_changed(
        &mut self,
        name: &Rc<str>,
        descriptor: &ComponentDescriptor,
        from: ComponentState,
        to: ComponentState,
    ) {
        if from.provides_outputs() != to.provides_outputs() {
            let now = to.provides_outputs();
            self.port_index.set_active(descriptor, now);
            // Either direction wakes the channels' parked consumers; only
            // providing → *false* can break a satisfied component, so only
            // that direction seeds the deactivation sweep.
            let mut affected: Vec<Rc<str>> = Vec::new();
            for port in &descriptor.outports {
                affected.extend(self.port_index.consumers_of(port.name).cloned());
            }
            for consumer in &affected {
                self.wake(consumer);
            }
            if !now {
                self.dirty.extend(affected);
            }
        }
        if from.holds_admission() != to.holds_admission() {
            self.wake_cpu(descriptor.task.cpu());
        }
        if to == ComponentState::Unsatisfied {
            self.unpark(name);
            self.woken.insert(name.clone());
        } else if from == ComponentState::Unsatisfied {
            self.unpark(name);
            self.woken.remove(&**name);
        }
    }

    fn on_contract_changed(&mut self, name: &str, _descriptor: &Rc<ComponentDescriptor>) {
        self.wake(name);
    }

    fn sweep_next(&mut self, cursor: Option<&str>) -> Option<Rc<str>> {
        let next = next_after(&self.dirty, cursor)?;
        self.dirty.remove(&next);
        Some(next)
    }

    fn wake_next(&self, cursor: Option<&str>) -> Option<Rc<str>> {
        next_after(&self.woken, cursor)
    }

    fn park(&mut self, name: &Rc<str>, cpus: &[u32]) {
        if !cpus.is_empty() && !self.policy.cacheable() {
            // Nothing here says when the policy would rule differently.
            self.wake(name);
            return;
        }
        self.unpark(name);
        self.woken.remove(&**name);
        for &cpu in cpus {
            self.on_cpu.entry(cpu).or_default().insert(name.clone());
        }
        self.parked.insert(name.clone(), cpus.to_vec());
    }

    fn wake(&mut self, name: &str) {
        if let Some(key) = self.unpark(name) {
            self.woken.insert(key);
        }
    }

    fn check_wiring(
        &mut self,
        candidate: &ComponentDescriptor,
        assume_active: &[Rc<str>],
    ) -> WiringResult {
        self.port_index.check_functional(candidate, assume_active)
    }

    fn policy(&self) -> &dyn ResolvingService {
        &*self.policy
    }
}

/// The pre-index reference engine: no scopes, a [`WiringGraph`] rebuilt
/// from scratch for every check, sweeps that visit every known component
/// and every waiter every time, and one admission ruling per candidate.
/// Kept as the differential oracle and benchmark baseline.
pub struct NaiveResolver {
    mirror: BTreeMap<Rc<str>, (Rc<ComponentDescriptor>, ComponentState)>,
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

    /// The first mirrored component strictly after `cursor` that `keep`
    /// selects.
    fn next_after(
        &self,
        cursor: Option<&str>,
        keep: impl Fn(ComponentState) -> bool,
    ) -> Option<Rc<str>> {
        let from = cursor.map_or(Bound::Unbounded, Bound::Excluded);
        self.mirror
            .range::<str, _>((from, Bound::Unbounded))
            .find(|(_, (_, state))| keep(*state))
            .map(|(name, _)| name.clone())
    }
}

impl Resolver for NaiveResolver {
    fn name(&self) -> &str {
        "naive-reference"
    }

    fn on_registered(&mut self, name: &Rc<str>, descriptor: &Rc<ComponentDescriptor>) {
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
        _descriptor: &ComponentDescriptor,
        _from: ComponentState,
        to: ComponentState,
    ) {
        if let Some((_, state)) = self.mirror.get_mut(&**name) {
            *state = to;
        }
    }

    fn on_contract_changed(&mut self, name: &str, descriptor: &Rc<ComponentDescriptor>) {
        if let Some((desc, _)) = self.mirror.get_mut(name) {
            *desc = descriptor.clone();
        }
    }

    fn sweep_next(&mut self, cursor: Option<&str>) -> Option<Rc<str>> {
        self.next_after(cursor, |_| true)
    }

    fn wake_next(&self, cursor: Option<&str>) -> Option<Rc<str>> {
        self.next_after(cursor, |state| state == ComponentState::Unsatisfied)
    }

    fn check_wiring(
        &mut self,
        candidate: &ComponentDescriptor,
        assume_active: &[Rc<str>],
    ) -> WiringResult {
        let entries: Vec<_> = self.mirror.values().map(|(d, s)| (&**d, *s)).collect();
        WiringGraph::new(entries).check_functional(candidate, assume_active)
    }

    fn builds_graphs(&self) -> bool {
        true
    }

    fn batches(&self) -> bool {
        false
    }

    fn policy(&self) -> &dyn ResolvingService {
        &*self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PortInterface;
    use crate::resolve::{AlwaysAdmit, Decision, UtilizationResolver};
    use crate::view::{ComponentInfo, SystemView};
    use rtos::shm::DataType;
    use ComponentState::*;

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

    /// A portless component on `cpu`.
    fn idle(name: &str, cpu: u32) -> ComponentDescriptor {
        ComponentDescriptor::builder(name)
            .periodic(100, cpu, 2)
            .cpu_usage(0.1)
            .build()
            .unwrap()
    }

    /// Registers `desc` and moves it to `state` (from `Installed`).
    fn register(engine: &mut dyn Resolver, desc: &ComponentDescriptor, state: ComponentState) {
        let name: Rc<str> = Rc::from(desc.name.as_str());
        engine.on_registered(&name, &Rc::new(desc.clone()));
        engine.on_state_changed(&name, desc, Installed, state);
    }

    /// Every woken waiter, in name order.
    fn woken(engine: &dyn Resolver) -> Vec<String> {
        let mut out = Vec::new();
        let mut cursor: Option<Rc<str>> = None;
        while let Some(name) = engine.wake_next(cursor.as_deref()) {
            out.push(name.to_string());
            cursor = Some(name);
        }
        out
    }

    fn flip(
        engine: &mut dyn Resolver,
        desc: &ComponentDescriptor,
        from: ComponentState,
        to: ComponentState,
    ) {
        engine.on_state_changed(&Rc::from(desc.name.as_str()), desc, from, to);
    }

    #[test]
    fn a_parked_consumer_wakes_only_on_provider_churn() {
        let mut engine = ReactiveResolver::new(Box::new(AlwaysAdmit));
        register(&mut engine, &provider("calc"), Disabled);
        register(&mut engine, &consumer("disp"), Unsatisfied);
        assert_eq!(woken(&engine), ["disp"], "a new waiter is woken");
        let disp: Rc<str> = Rc::from("disp");
        assert!(engine.check_wiring(&consumer("disp"), &[]).is_err());
        engine.park(&disp, &[]);
        assert!(woken(&engine).is_empty());

        // A provider step that does not flip its providing state wakes
        // only the provider, which starts waiting.
        flip(&mut engine, &provider("calc"), Disabled, Unsatisfied);
        assert_eq!(woken(&engine), ["calc"]);
        // Provider activates: the consumer wakes, and passes.
        flip(&mut engine, &provider("calc"), Unsatisfied, Active);
        assert_eq!(woken(&engine), ["disp"]);
        assert!(engine.check_wiring(&consumer("disp"), &[]).is_ok());
        // Activation-side churn does not seed the deactivation sweep.
        assert_eq!(engine.sweep_next(None), None);
        flip(&mut engine, &consumer("disp"), Unsatisfied, Active);
        assert!(
            woken(&engine).is_empty(),
            "a running component is no waiter"
        );

        // Provider stops: the consumer is seeded for the deactivation sweep.
        flip(&mut engine, &provider("calc"), Active, Unsatisfied);
        assert_eq!(engine.sweep_next(None).as_deref(), Some("disp"));
        assert_eq!(engine.sweep_next(Some("disp")), None);
    }

    #[test]
    fn registration_churn_wakes_parked_consumers() {
        let mut engine = ReactiveResolver::new(Box::new(AlwaysAdmit));
        let c = consumer("disp");
        register(&mut engine, &c, Unsatisfied);
        let disp: Rc<str> = Rc::from("disp");
        assert!(engine.check_wiring(&c, &[]).is_err()); // NoProvider
        engine.park(&disp, &[]);
        let p = provider("calc");
        register(&mut engine, &p, Disabled);
        assert_eq!(
            woken(&engine),
            ["disp"],
            "a new provider changes the diagnosis"
        );
        let missing = engine.check_wiring(&c, &[]).unwrap_err();
        assert!(missing[0].to_string().contains("not active"), "{missing:?}");
        engine.park(&disp, &[]);
        engine.on_removed("calc", &p);
        assert_eq!(woken(&engine), ["disp"], "so does its removal");
        assert!(engine.check_wiring(&c, &[]).unwrap_err()[0]
            .to_string()
            .contains("no provider"));
    }

    #[test]
    fn a_rejected_waiter_wakes_on_admission_churn_of_its_cpu() {
        let mut engine = ReactiveResolver::new(Box::new(UtilizationResolver::default()));
        let disp: Rc<str> = Rc::from("disp");
        flip(&mut engine, &consumer("disp"), Installed, Unsatisfied);
        engine.park(&disp, &[0]);
        // Suspend ↔ resume keeps admission: nothing wakes.
        flip(&mut engine, &provider("calc"), Active, Suspended);
        assert!(woken(&engine).is_empty());
        // An admission-holding flip on another CPU wakes nothing...
        flip(&mut engine, &idle("other", 1), Unsatisfied, Active);
        assert!(woken(&engine).is_empty());
        // ...one on its CPU wakes it.
        flip(&mut engine, &provider("calc"), Suspended, Unsatisfied);
        assert_eq!(woken(&engine), ["calc", "disp"]);
    }

    #[test]
    fn a_waiter_parked_on_several_cpus_wakes_once() {
        let mut engine = ReactiveResolver::new(Box::new(UtilizationResolver::default()));
        let cya: Rc<str> = Rc::from("cya");
        flip(&mut engine, &idle("cya", 0), Installed, Unsatisfied);
        engine.park(&cya, &[0, 1]);
        flip(&mut engine, &idle("hog", 1), Active, Unsatisfied);
        assert_eq!(woken(&engine), ["cya", "hog"]);
        engine.park(&cya, &[]);
        flip(&mut engine, &idle("big", 0), Active, Unsatisfied);
        assert_eq!(
            woken(&engine),
            ["big", "hog"],
            "the wake took `cya` off CPU 0 too"
        );
    }

    #[test]
    fn a_contract_rewrite_and_an_explicit_wake_wake_the_waiter() {
        let mut engine = ReactiveResolver::new(Box::new(UtilizationResolver::default()));
        let c = consumer("disp");
        register(&mut engine, &c, Unsatisfied);
        let disp: Rc<str> = Rc::from("disp");
        engine.park(&disp, &[0]);
        engine.on_contract_changed("disp", &Rc::new(c));
        assert_eq!(woken(&engine), ["disp"]);
        engine.park(&disp, &[]);
        engine.wake("disp");
        assert_eq!(woken(&engine), ["disp"]);
        // Waking a component that is not parked does nothing.
        engine.wake("calc");
        assert_eq!(woken(&engine), ["disp"]);
    }

    /// A policy that reads more than the holders of the candidate's CPU.
    struct Moody;

    impl ResolvingService for Moody {
        fn name(&self) -> &str {
            "moody"
        }

        fn admit(&self, _candidate: &ComponentInfo, _view: &SystemView) -> Decision {
            Decision::Reject("not today".into())
        }
    }

    #[test]
    fn an_uncacheable_policy_rules_its_rejected_waiters_every_sweep() {
        let mut engine = ReactiveResolver::new(Box::new(Moody));
        let disp: Rc<str> = Rc::from("disp");
        flip(&mut engine, &consumer("disp"), Installed, Unsatisfied);
        engine.park(&disp, &[0]);
        assert_eq!(woken(&engine), ["disp"], "nothing says when it would admit");
        engine.park(&disp, &[]);
        assert!(woken(&engine).is_empty(), "its wiring is still watched");
    }

    #[test]
    fn naive_oracle_agrees_with_reactive_engine() {
        let mut reactive = ReactiveResolver::new(Box::new(UtilizationResolver::default()));
        let mut naive = NaiveResolver::new(Box::new(UtilizationResolver::default()));
        let engines: &mut [&mut dyn Resolver] = &mut [&mut reactive, &mut naive];
        let c = consumer("disp");
        for engine in engines.iter_mut() {
            register(*engine, &provider("calc"), Installed);
            register(*engine, &c, Unsatisfied);
            engine.park(&Rc::from("disp"), &[]);
        }
        let flips = [
            (Installed, Unsatisfied),
            (Unsatisfied, Active),
            (Active, Suspended),
            (Suspended, Active),
            (Active, Unsatisfied),
        ];
        for (from, to) in flips {
            let mut results = Vec::new();
            for engine in engines.iter_mut() {
                flip(*engine, &provider("calc"), from, to);
                results.push(engine.check_wiring(&c, &[]));
            }
            assert_eq!(
                results[0], results[1],
                "engines diverged on {from:?} → {to:?}"
            );
        }
        // The naive sweeps serve every component and every waiter; the
        // reactive ones only their scopes.
        assert_eq!(naive.sweep_next(None).as_deref(), Some("calc"));
        assert_eq!(naive.sweep_next(Some("calc")).as_deref(), Some("disp"));
        assert_eq!(woken(&naive), ["calc", "disp"]);
        assert_eq!(reactive.sweep_next(None).as_deref(), Some("disp"));
        assert_eq!(reactive.sweep_next(Some("disp")), None);
        assert_eq!(woken(&reactive), ["calc", "disp"]);
    }
}
