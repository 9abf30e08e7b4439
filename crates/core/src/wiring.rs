//! Functional constraint solving: matching inports to outports.
//!
//! A component's *functional constraints* (paper §2.3/§4.3) are satisfied
//! when every one of its inports is fed by a **compatible** outport of an
//! **active** component. Compatibility requires name, interface, data type
//! and size to all agree — the port name doubles as the channel (SHM
//! segment / mailbox) name, so a name match with mismatched shape is a
//! deployment error worth surfacing, which is why the solver distinguishes
//! "no provider" from "provider exists but is incompatible" from "provider
//! exists but is not active".

use crate::descriptor::ComponentDescriptor;
use crate::lifecycle::ComponentState;
use crate::model::PortSpec;
use rtos::task::ObjName;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;

/// Why an inport is unsatisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MissingReason {
    /// No component declares a matching outport at all.
    NoProvider,
    /// A component declares an outport with the same name but an
    /// incompatible shape.
    IncompatibleProvider {
        /// The offending provider component.
        provider: String,
    },
    /// A compatible provider exists but is not active.
    ProviderInactive {
        /// The best candidate provider.
        provider: String,
    },
}

/// One unsatisfied inport of a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingPort {
    /// The consumer component.
    pub component: String,
    /// The unsatisfied inport name.
    pub port: String,
    /// Why.
    pub reason: MissingReason,
}

impl fmt::Display for MissingPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reason {
            MissingReason::NoProvider => {
                write!(f, "`{}`.{}: no provider", self.component, self.port)
            }
            MissingReason::IncompatibleProvider { provider } => write!(
                f,
                "`{}`.{}: provider `{provider}` has an incompatible port shape",
                self.component, self.port
            ),
            MissingReason::ProviderInactive { provider } => write!(
                f,
                "`{}`.{}: provider `{provider}` is not active",
                self.component, self.port
            ),
        }
    }
}

/// A functional-constraint verdict: the chosen `(inport, provider)`
/// bindings on success, the unsatisfied ports with reasons on failure.
pub type WiringResult = Result<Vec<(String, String)>, Vec<MissingPort>>;

/// The wiring solver over a set of registered components.
///
/// Built fresh from the DRCR's records on each resolution pass; holds
/// borrowed descriptors, so it is a short-lived analysis object.
#[derive(Debug)]
pub struct WiringGraph<'a> {
    entries: Vec<(&'a ComponentDescriptor, ComponentState)>,
}

impl<'a> WiringGraph<'a> {
    /// Builds the graph from `(descriptor, current state)` pairs.
    pub fn new(entries: Vec<(&'a ComponentDescriptor, ComponentState)>) -> Self {
        WiringGraph { entries }
    }

    /// Checks the functional constraints of `candidate` against the current
    /// states, returning the chosen provider per inport.
    ///
    /// A provider counts only while [`ComponentState::provides_outputs`]
    /// (i.e. `Active`) — the paper's Display "could not start if no active
    /// calculation task exists". When `assume_active` names the candidate
    /// set of a fixpoint pass, those components count as active too.
    ///
    /// # Errors
    ///
    /// The list of unsatisfied inports, each with its reason.
    pub fn check_functional(
        &self,
        candidate: &ComponentDescriptor,
        assume_active: &[Rc<str>],
    ) -> WiringResult {
        let mut providers = Vec::new();
        let mut missing = Vec::new();
        for inport in &candidate.inports {
            let mut best: Option<MissingReason> = Some(MissingReason::NoProvider);
            let mut chosen: Option<String> = None;
            for (desc, state) in &self.entries {
                if desc.name == candidate.name {
                    continue;
                }
                let Some(outport) = desc.outports.iter().find(|o| o.name == inport.name) else {
                    continue;
                };
                if !outport.compatible_with(inport) {
                    if matches!(best, Some(MissingReason::NoProvider)) {
                        best = Some(MissingReason::IncompatibleProvider {
                            provider: desc.name.to_string(),
                        });
                    }
                    continue;
                }
                let active = state.provides_outputs()
                    || assume_active.iter().any(|n| &**n == desc.name.as_str());
                if active {
                    chosen = Some(desc.name.to_string());
                    best = None;
                    break;
                }
                best = Some(MissingReason::ProviderInactive {
                    provider: desc.name.to_string(),
                });
            }
            match (chosen, best) {
                (Some(provider), _) => providers.push((inport.name.to_string(), provider)),
                (None, Some(reason)) => missing.push(MissingPort {
                    component: candidate.name.to_string(),
                    port: inport.name.to_string(),
                    reason,
                }),
                (None, None) => unreachable!("either chosen or a reason"),
            }
        }
        if missing.is_empty() {
            Ok(providers)
        } else {
            Err(missing)
        }
    }
}

/// One provider entry in the [`PortIndex`]: a component's outport under a
/// given channel name, plus whether that component currently provides
/// outputs (i.e. is `Active`).
#[derive(Debug, Clone)]
struct ProviderEntry {
    component: Rc<str>,
    port: PortSpec,
    active: bool,
}

/// A persistent index over the port topology, maintained incrementally by
/// the DRCR instead of rebuilding a [`WiringGraph`] per candidate per sweep.
///
/// Two maps, keyed by the contracts' own channel names ([`ObjName`]s):
///
/// * `providers`: outport (channel) name → provider entries, **sorted by
///   component name**. Port names are unique within a component (validated
///   by the descriptor), so there is at most one entry per component per
///   channel — the sorted entry list therefore reproduces exactly the
///   provider scan order of [`WiringGraph::check_functional`], which walks
///   all components in sorted-name order and takes the first outport whose
///   name matches the inport.
/// * `consumers`: inport name → components declaring that inport. This is
///   the dirty-*scope* relation of the reactive engine
///   ([`crate::reactive::ReactiveResolver`]): any provider-side churn on a
///   channel — a provider stopping (seeds the deactivation sweep), but also
///   a provider starting, registering or unregistering (wakes the parked
///   waiting consumers) — touches exactly the consumers of that channel.
///   The set is a superset of the truly-affected components
///   (shape-incompatible consumers are included); re-checking a
///   still-satisfied consumer is harmless and emits nothing.
///
/// The index keeps no copy of a component's ports beyond these entries:
/// every update is handed the contract and reads its ports from it.
///
/// Invalidation rules (all maintained by the DRCR):
///
/// * [`PortIndex::insert`] on component registration (entries start
///   inactive — freshly registered components are `Unsatisfied`/`Disabled`).
/// * [`PortIndex::remove`] on component removal.
/// * [`PortIndex::set_active`] on exactly the transitions that change
///   [`ComponentState::provides_outputs`]: activation and resume (→ true),
///   deactivation and suspension (→ false). Mode switches never touch the
///   index: a mode substitutes frequency/priority/claim, never ports.
#[derive(Debug, Default)]
pub struct PortIndex {
    providers: HashMap<ObjName, Vec<ProviderEntry>>,
    consumers: HashMap<ObjName, BTreeSet<Rc<str>>>,
}

impl PortIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes a newly registered component. Entries start inactive; flip
    /// them with [`PortIndex::set_active`] when the component activates.
    pub fn insert(&mut self, id: &Rc<str>, descriptor: &ComponentDescriptor) {
        debug_assert_eq!(&**id, descriptor.name.as_str());
        for port in &descriptor.outports {
            let entries = self.providers.entry(port.name).or_default();
            match entries.binary_search_by(|e| (*e.component).cmp(id)) {
                Ok(_) => debug_assert!(false, "component `{id}` indexed twice"),
                Err(pos) => entries.insert(
                    pos,
                    ProviderEntry {
                        component: id.clone(),
                        port: *port,
                        active: false,
                    },
                ),
            }
        }
        for port in &descriptor.inports {
            self.consumers
                .entry(port.name)
                .or_default()
                .insert(id.clone());
        }
    }

    /// Drops a removed component's entries.
    pub fn remove(&mut self, name: &str, descriptor: &ComponentDescriptor) {
        for port in &descriptor.outports {
            if let Some(entries) = self.providers.get_mut(&port.name) {
                entries.retain(|e| &*e.component != name);
                if entries.is_empty() {
                    self.providers.remove(&port.name);
                }
            }
        }
        for port in &descriptor.inports {
            if let Some(set) = self.consumers.get_mut(&port.name) {
                set.remove(name);
                if set.is_empty() {
                    self.consumers.remove(&port.name);
                }
            }
        }
    }

    /// Flips the providing flag of all of `descriptor`'s outports. Call on
    /// every transition that changes [`ComponentState::provides_outputs`].
    pub fn set_active(&mut self, descriptor: &ComponentDescriptor, active: bool) {
        let name = descriptor.name.as_str();
        for port in &descriptor.outports {
            if let Some(entries) = self.providers.get_mut(&port.name) {
                if let Ok(pos) = entries.binary_search_by(|e| (*e.component).cmp(name)) {
                    entries[pos].active = active;
                }
            }
        }
    }

    /// Components declaring an inport named `channel` — the candidates to
    /// re-check when a provider of `channel` stops providing. Sorted.
    pub fn consumers_of(&self, channel: ObjName) -> impl Iterator<Item = &Rc<str>> {
        self.consumers.get(&channel).into_iter().flatten()
    }

    /// Checks the functional constraints of `candidate` against the index.
    ///
    /// Exactly equivalent to [`WiringGraph::check_functional`] over the same
    /// components and states — same chosen providers, same diagnoses in the
    /// same order — but O(providers-per-port) per inport instead of
    /// O(components).
    ///
    /// # Errors
    ///
    /// The list of unsatisfied inports, each with its reason.
    pub fn check_functional(
        &self,
        candidate: &ComponentDescriptor,
        assume_active: &[Rc<str>],
    ) -> WiringResult {
        let mut providers = Vec::new();
        let mut missing = Vec::new();
        for inport in &candidate.inports {
            let mut best: Option<MissingReason> = Some(MissingReason::NoProvider);
            let mut chosen: Option<String> = None;
            let entries = self
                .providers
                .get(&inport.name)
                .map(Vec::as_slice)
                .unwrap_or_default();
            for entry in entries {
                if *entry.component == *candidate.name.as_str() {
                    continue;
                }
                if !entry.port.compatible_with(inport) {
                    if matches!(best, Some(MissingReason::NoProvider)) {
                        best = Some(MissingReason::IncompatibleProvider {
                            provider: entry.component.to_string(),
                        });
                    }
                    continue;
                }
                let active = entry.active || assume_active.iter().any(|n| **n == *entry.component);
                if active {
                    chosen = Some(entry.component.to_string());
                    best = None;
                    break;
                }
                best = Some(MissingReason::ProviderInactive {
                    provider: entry.component.to_string(),
                });
            }
            match (chosen, best) {
                (Some(provider), _) => providers.push((inport.name.to_string(), provider)),
                (None, Some(reason)) => missing.push(MissingPort {
                    component: candidate.name.to_string(),
                    port: inport.name.to_string(),
                    reason,
                }),
                (None, None) => unreachable!("either chosen or a reason"),
            }
        }
        if missing.is_empty() {
            Ok(providers)
        } else {
            Err(missing)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::ComponentDescriptor;
    use crate::model::PortInterface;
    use rtos::shm::DataType;

    fn calc() -> ComponentDescriptor {
        ComponentDescriptor::builder("calc")
            .periodic(1000, 0, 2)
            .cpu_usage(0.2)
            .outport("latdat", PortInterface::Shm, DataType::Integer, 4)
            .build()
            .unwrap()
    }

    fn disp() -> ComponentDescriptor {
        ComponentDescriptor::builder("disp")
            .periodic(4, 0, 5)
            .cpu_usage(0.05)
            .inport("latdat", PortInterface::Shm, DataType::Integer, 4)
            .build()
            .unwrap()
    }

    #[test]
    fn inport_satisfied_by_active_provider() {
        let c = calc();
        let d = disp();
        let g = WiringGraph::new(vec![
            (&c, ComponentState::Active),
            (&d, ComponentState::Unsatisfied),
        ]);
        let providers = g.check_functional(&d, &[]).unwrap();
        assert_eq!(providers, vec![("latdat".to_string(), "calc".to_string())]);
    }

    #[test]
    fn inactive_provider_reports_reason() {
        let c = calc();
        let d = disp();
        let g = WiringGraph::new(vec![
            (&c, ComponentState::Unsatisfied),
            (&d, ComponentState::Unsatisfied),
        ]);
        let missing = g.check_functional(&d, &[]).unwrap_err();
        assert_eq!(missing.len(), 1);
        assert_eq!(
            missing[0].reason,
            MissingReason::ProviderInactive {
                provider: "calc".into()
            }
        );
        // But an optimistic pass that assumes calc will activate succeeds.
        assert!(g.check_functional(&d, &["calc".into()]).is_ok());
    }

    #[test]
    fn no_provider_at_all() {
        let d = disp();
        let g = WiringGraph::new(vec![(&d, ComponentState::Unsatisfied)]);
        let missing = g.check_functional(&d, &[]).unwrap_err();
        assert_eq!(missing[0].reason, MissingReason::NoProvider);
        assert!(missing[0].to_string().contains("no provider"));
    }

    #[test]
    fn incompatible_shape_reports_provider() {
        let bad_calc = ComponentDescriptor::builder("calc")
            .periodic(1000, 0, 2)
            .outport("latdat", PortInterface::Shm, DataType::Byte, 4) // wrong type
            .build()
            .unwrap();
        let d = disp();
        let g = WiringGraph::new(vec![
            (&bad_calc, ComponentState::Active),
            (&d, ComponentState::Unsatisfied),
        ]);
        let missing = g.check_functional(&d, &[]).unwrap_err();
        assert_eq!(
            missing[0].reason,
            MissingReason::IncompatibleProvider {
                provider: "calc".into()
            }
        );
    }

    #[test]
    fn component_cannot_feed_itself() {
        let selfloop = ComponentDescriptor::builder("loop")
            .periodic(10, 0, 2)
            .outport("chan", PortInterface::Shm, DataType::Byte, 1)
            .inport("chan2", PortInterface::Shm, DataType::Byte, 1)
            .build()
            .unwrap();
        let g = WiringGraph::new(vec![(&selfloop, ComponentState::Active)]);
        assert!(g.check_functional(&selfloop, &[]).is_err());
    }

    #[test]
    fn an_alternative_active_provider_keeps_the_consumer_wired() {
        let c = calc();
        let backup = ComponentDescriptor::builder("calc2")
            .periodic(1000, 0, 3)
            .outport("latdat", PortInterface::Shm, DataType::Integer, 4)
            .build()
            .unwrap();
        let d = disp();
        let g = WiringGraph::new(vec![
            (&c, ComponentState::Unsatisfied),
            (&backup, ComponentState::Active),
            (&d, ComponentState::Active),
        ]);
        let providers = g.check_functional(&d, &[]).unwrap();
        assert_eq!(providers, vec![("latdat".to_string(), "calc2".to_string())]);
    }

    #[test]
    fn suspended_provider_does_not_satisfy() {
        let c = calc();
        let d = disp();
        let g = WiringGraph::new(vec![
            (&c, ComponentState::Suspended),
            (&d, ComponentState::Unsatisfied),
        ]);
        assert!(g.check_functional(&d, &[]).is_err());
    }

    fn index_of(entries: &[(&ComponentDescriptor, bool)]) -> PortIndex {
        let mut idx = PortIndex::new();
        for (desc, active) in entries {
            let id: Rc<str> = Rc::from(desc.name.as_str());
            idx.insert(&id, desc);
            idx.set_active(desc, *active);
        }
        idx
    }

    #[test]
    fn index_matches_graph_on_every_state_combination() {
        let c = calc();
        let backup = ComponentDescriptor::builder("calc2")
            .periodic(1000, 0, 3)
            .outport("latdat", PortInterface::Shm, DataType::Integer, 4)
            .build()
            .unwrap();
        let bad = ComponentDescriptor::builder("badpro")
            .periodic(10, 0, 2)
            .outport("latdat", PortInterface::Shm, DataType::Byte, 4)
            .build()
            .unwrap();
        let d = disp();
        let descs = [&bad, &c, &backup, &d];
        let assume: Vec<Rc<str>> = vec!["calc2".into()];
        // Exhaust all active/inactive combinations of the three providers
        // and assert index and graph agree on result AND diagnosis order.
        for mask in 0..8u32 {
            let act = |i: u32| mask & (1 << i) != 0;
            let states = [act(0), act(1), act(2), false];
            let graph = WiringGraph::new(
                descs
                    .iter()
                    .zip(states)
                    .map(|(desc, a)| {
                        (
                            *desc,
                            if a {
                                ComponentState::Active
                            } else {
                                ComponentState::Unsatisfied
                            },
                        )
                    })
                    .collect(),
            );
            let idx = index_of(&descs.iter().copied().zip(states).collect::<Vec<_>>());
            for assume_active in [&[][..], &assume[..]] {
                assert_eq!(
                    idx.check_functional(&d, assume_active),
                    graph.check_functional(&d, assume_active),
                    "mask {mask:03b}, assume {assume_active:?}"
                );
            }
        }
    }

    #[test]
    fn index_tracks_removal_and_reactivation() {
        let c = calc();
        let d = disp();
        let mut idx = index_of(&[(&c, true), (&d, false)]);
        assert_eq!(
            idx.check_functional(&d, &[]).unwrap(),
            vec![("latdat".to_string(), "calc".to_string())]
        );
        idx.set_active(&c, false);
        let missing = idx.check_functional(&d, &[]).unwrap_err();
        assert_eq!(
            missing[0].reason,
            MissingReason::ProviderInactive {
                provider: "calc".into()
            }
        );
        idx.remove("calc", &c);
        let missing = idx.check_functional(&d, &[]).unwrap_err();
        assert_eq!(missing[0].reason, MissingReason::NoProvider);
        // Consumers stay registered until removed themselves.
        let latdat = ObjName::new("latdat").unwrap();
        let consumers: Vec<_> = idx.consumers_of(latdat).collect();
        assert_eq!(consumers.len(), 1);
        assert_eq!(&**consumers[0], "disp");
        idx.remove("disp", &d);
        assert_eq!(idx.consumers_of(latdat).count(), 0);
    }

    #[test]
    fn index_ignores_self_feeding() {
        let selfloop = ComponentDescriptor::builder("loop")
            .periodic(10, 0, 2)
            .outport("chan", PortInterface::Shm, DataType::Byte, 1)
            .inport("chan2", PortInterface::Shm, DataType::Byte, 1)
            .build()
            .unwrap();
        let idx = index_of(&[(&selfloop, true)]);
        assert!(idx.check_functional(&selfloop, &[]).is_err());
    }
}
