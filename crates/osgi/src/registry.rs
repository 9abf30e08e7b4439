//! The OSGi service registry.
//!
//! Services are plain Rust objects registered under one or more interface
//! names together with a [`Properties`] dictionary; consumers discover them
//! by interface name plus an optional [`Filter`] and rank results by
//! `service.ranking` (descending) then `service.id` (ascending) — the OSGi
//! selection order.
//!
//! The registry is single-threaded by design: the whole reproduction runs
//! inside one deterministic simulation loop, so services are held as
//! `Rc<dyn Any>` and handed out as cheap clones.

use crate::event::{ServiceEvent, ServiceEventKind};
use crate::ldap::{Filter, PropValue, Properties};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

/// The property key holding the interface names of a registration.
pub const OBJECT_CLASS: &str = "objectclass";
/// The property key holding the unique service id.
pub const SERVICE_ID: &str = "service.id";
/// The property key holding the integer ranking used for selection.
pub const SERVICE_RANKING: &str = "service.ranking";
/// The property key holding the owning bundle id, when registered through a
/// bundle context.
pub const SERVICE_BUNDLE: &str = "service.bundleid";

/// Unique id of a service registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub(crate) u64);

impl ServiceId {
    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for ServiceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "service#{}", self.0)
    }
}

/// A reference to a registered service, as returned by queries.
///
/// Holds the id and a metadata snapshot; the service object itself is
/// fetched with [`ServiceRegistry::get`].
#[derive(Debug, Clone)]
pub struct ServiceRef {
    id: ServiceId,
    interfaces: Vec<String>,
    properties: Properties,
}

impl ServiceRef {
    /// The service id.
    pub fn id(&self) -> ServiceId {
        self.id
    }

    /// Interfaces the service was registered under.
    pub fn interfaces(&self) -> &[String] {
        &self.interfaces
    }

    /// Property snapshot taken at query time.
    pub fn properties(&self) -> &Properties {
        &self.properties
    }

    /// The service ranking (0 when unset).
    pub fn ranking(&self) -> i64 {
        ranking(&self.properties)
    }
}

fn ranking(properties: &Properties) -> i64 {
    match properties.get(SERVICE_RANKING) {
        Some(PropValue::Int(i)) => *i,
        _ => 0,
    }
}

struct Entry {
    interfaces: Vec<String>,
    properties: Properties,
    object: Rc<dyn Any>,
    owner: Option<u64>,
}

/// Exact-match index over one property key: interface → string value →
/// ascending ids of the registrations carrying that value.
struct PropertyIndex {
    key: String,
    ids: HashMap<String, HashMap<String, Vec<u64>>>,
}

impl PropertyIndex {
    fn add(&mut self, id: u64, entry: &Entry) {
        let Some(PropValue::Str(value)) = entry.properties.get(&self.key) else {
            return;
        };
        for interface in &entry.interfaces {
            let ids = self
                .ids
                .entry(interface.clone())
                .or_default()
                .entry(value.clone())
                .or_default();
            if let Err(pos) = ids.binary_search(&id) {
                ids.insert(pos, id);
            }
        }
    }

    fn remove(&mut self, id: u64, entry: &Entry) {
        let Some(PropValue::Str(value)) = entry.properties.get(&self.key) else {
            return;
        };
        for interface in &entry.interfaces {
            let Some(by_value) = self.ids.get_mut(interface) else {
                continue;
            };
            if let Some(ids) = by_value.get_mut(value) {
                ids.retain(|&i| i != id);
                if ids.is_empty() {
                    by_value.remove(value);
                }
            }
            if by_value.is_empty() {
                self.ids.remove(interface);
            }
        }
    }
}

/// The service registry. See the [module docs](self).
#[derive(Default)]
pub struct ServiceRegistry {
    next_id: u64,
    entries: BTreeMap<u64, Entry>,
    // Ascending service ids per interface name, so lookups touch only the
    // registrations under the queried interface instead of the whole table,
    // and an unregistration removes its id in O(log n).
    by_interface: HashMap<String, BTreeSet<u64>>,
    // Ascending ids of the services each bundle registered (ids are
    // allocated in ascending order, so pushes keep each list sorted), so a
    // bundle stop touches only that bundle's services.
    by_owner: HashMap<u64, Vec<u64>>,
    /// Exact-match indexes declared with [`ServiceRegistry::index_property`].
    indexes: Vec<PropertyIndex>,
    events: Vec<ServiceEvent>,
}

impl std::fmt::Debug for ServiceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceRegistry")
            .field("services", &self.entries.len())
            .finish()
    }
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `object` under the given interface names.
    ///
    /// The registry adds the standard `objectclass`, `service.id` and (if
    /// absent) `service.ranking` properties.
    ///
    /// # Panics
    ///
    /// Panics if `interfaces` is empty.
    pub fn register(
        &mut self,
        interfaces: &[&str],
        object: Rc<dyn Any>,
        mut properties: Properties,
    ) -> ServiceId {
        assert!(!interfaces.is_empty(), "a service needs an interface name");
        self.next_id += 1;
        let id = ServiceId(self.next_id);
        let names: Vec<String> = interfaces.iter().map(|s| s.to_string()).collect();
        properties.insert(
            OBJECT_CLASS,
            PropValue::List(names.iter().cloned().map(PropValue::Str).collect()),
        );
        properties.insert(SERVICE_ID, id.raw() as i64);
        if properties.get(SERVICE_RANKING).is_none() {
            properties.insert(SERVICE_RANKING, 0i64);
        }
        self.events.push(ServiceEvent {
            service: id,
            interfaces: names.clone(),
            properties: properties.clone(),
            kind: ServiceEventKind::Registered,
        });
        for name in &names {
            self.by_interface
                .entry(name.clone())
                .or_default()
                .insert(id.raw());
        }
        let entry = Entry {
            interfaces: names,
            properties,
            object,
            owner: None,
        };
        for index in &mut self.indexes {
            index.add(id.raw(), &entry);
        }
        self.entries.insert(id.raw(), entry);
        id
    }

    /// Registers a service on behalf of a bundle (auto-unregistered when the
    /// bundle stops).
    pub(crate) fn register_owned(
        &mut self,
        owner: u64,
        interfaces: &[&str],
        object: Rc<dyn Any>,
        mut properties: Properties,
    ) -> ServiceId {
        properties.insert(SERVICE_BUNDLE, owner as i64);
        let id = self.register(interfaces, object, properties);
        self.entries
            .get_mut(&id.raw())
            .expect("just inserted")
            .owner = Some(owner);
        self.by_owner.entry(owner).or_default().push(id.raw());
        id
    }

    /// Unregisters a service.
    ///
    /// Returns `true` if the service existed.
    pub fn unregister(&mut self, id: ServiceId) -> bool {
        match self.entries.remove(&id.raw()) {
            Some(entry) => {
                for index in &mut self.indexes {
                    index.remove(id.raw(), &entry);
                }
                for name in &entry.interfaces {
                    if let Some(ids) = self.by_interface.get_mut(name) {
                        ids.remove(&id.raw());
                        if ids.is_empty() {
                            self.by_interface.remove(name);
                        }
                    }
                }
                // Absent when `unregister_owned` already took the list.
                if let Some(owner) = entry.owner {
                    if let Some(ids) = self.by_owner.get_mut(&owner) {
                        if let Ok(pos) = ids.binary_search(&id.raw()) {
                            ids.remove(pos);
                        }
                        if ids.is_empty() {
                            self.by_owner.remove(&owner);
                        }
                    }
                }
                self.events.push(ServiceEvent {
                    service: id,
                    interfaces: entry.interfaces,
                    properties: entry.properties,
                    kind: ServiceEventKind::Unregistering,
                });
                true
            }
            None => false,
        }
    }

    /// Unregisters every service owned by `owner`, in ascending id order,
    /// returning how many.
    pub(crate) fn unregister_owned(&mut self, owner: u64) -> usize {
        let ids = self.by_owner.remove(&owner).unwrap_or_default();
        for &id in &ids {
            self.unregister(ServiceId(id));
        }
        ids.len()
    }

    /// Replaces the properties of a registration (standard keys are
    /// reasserted), emitting a `Modified` event.
    ///
    /// Returns `false` if the service does not exist.
    pub fn set_properties(&mut self, id: ServiceId, mut properties: Properties) -> bool {
        let Some(entry) = self.entries.get_mut(&id.raw()) else {
            return false;
        };
        properties.insert(
            OBJECT_CLASS,
            PropValue::List(
                entry
                    .interfaces
                    .iter()
                    .cloned()
                    .map(PropValue::Str)
                    .collect(),
            ),
        );
        properties.insert(SERVICE_ID, id.raw() as i64);
        if properties.get(SERVICE_RANKING).is_none() {
            properties.insert(SERVICE_RANKING, 0i64);
        }
        if let Some(owner) = entry.owner {
            properties.insert(SERVICE_BUNDLE, owner as i64);
        }
        for index in &mut self.indexes {
            index.remove(id.raw(), entry);
        }
        entry.properties = properties.clone();
        for index in &mut self.indexes {
            index.add(id.raw(), entry);
        }
        self.events.push(ServiceEvent {
            service: id,
            interfaces: entry.interfaces.clone(),
            properties,
            kind: ServiceEventKind::Modified,
        });
        true
    }

    /// Finds services registered under `interface`, optionally narrowed by
    /// an LDAP filter, ordered by descending ranking then ascending id.
    pub fn find(&self, interface: &str, filter: Option<&Filter>) -> Vec<ServiceRef> {
        let Some(ids) = self.by_interface.get(interface) else {
            return Vec::new();
        };
        let mut found: Vec<ServiceRef> = ids
            .iter()
            .map(|id| (*id, self.entries.get(id).expect("indexed id is live")))
            .filter(|(_, e)| filter.is_none_or(|f| f.matches(&e.properties)))
            .map(|(id, e)| ServiceRef {
                id: ServiceId(id),
                interfaces: e.interfaces.clone(),
                properties: e.properties.clone(),
            })
            .collect();
        found.sort_by(|a, b| {
            b.ranking()
                .cmp(&a.ranking())
                .then(a.id().raw().cmp(&b.id().raw()))
        });
        found
    }

    /// The best match for `interface` (highest ranking, lowest id).
    pub fn find_one(&self, interface: &str, filter: Option<&Filter>) -> Option<ServiceRef> {
        self.find(interface, filter).into_iter().next()
    }

    /// Maintains an exact-match index over the string values of property
    /// `key` from now on (existing registrations included), so
    /// [`ServiceRegistry::find_one_by`] answers without a scan. Idempotent.
    pub fn index_property(&mut self, key: &str) {
        let key = key.to_ascii_lowercase();
        if self.indexes.iter().any(|i| i.key == key) {
            return;
        }
        let mut index = PropertyIndex {
            key,
            ids: HashMap::new(),
        };
        for (id, entry) in &self.entries {
            index.add(*id, entry);
        }
        self.indexes.push(index);
    }

    /// The best service under `interface` whose property `key` is the
    /// string `value` (highest ranking, lowest id) — the same service
    /// [`ServiceRegistry::find_one`] picks for the filter `(key=value)`
    /// when the property holds strings — answered from the index.
    ///
    /// # Panics
    ///
    /// Panics if `key` was not declared with
    /// [`ServiceRegistry::index_property`].
    pub fn find_one_by(&self, interface: &str, key: &str, value: &str) -> Option<ServiceId> {
        let index = self
            .indexes
            .iter()
            .find(|i| i.key.eq_ignore_ascii_case(key))
            .unwrap_or_else(|| panic!("property `{key}` is not indexed"));
        index
            .ids
            .get(interface)?
            .get(value)?
            .iter()
            .map(|id| (*id, ranking(&self.entries[id].properties)))
            .max_by(|(a, ra), (b, rb)| ra.cmp(rb).then(b.cmp(a)))
            .map(|(id, _)| ServiceId(id))
    }

    /// Fetches the service object behind a reference, downcast to `T`.
    ///
    /// Returns `None` when the service is gone or is not a `T`.
    pub fn get<T: 'static>(&self, service: ServiceId) -> Option<Rc<T>> {
        let entry = self.entries.get(&service.raw())?;
        entry.object.clone().downcast::<T>().ok()
    }

    /// Fetches the service object without downcasting (for generic
    /// consumers such as the DS runtime's `bind` callbacks).
    pub fn get_any(&self, service: ServiceId) -> Option<Rc<dyn Any>> {
        self.entries.get(&service.raw()).map(|e| e.object.clone())
    }

    /// Current properties of a service.
    pub fn properties(&self, service: ServiceId) -> Option<&Properties> {
        self.entries.get(&service.raw()).map(|e| &e.properties)
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no services are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drains the pending service events, oldest first.
    pub fn drain_events(&mut self) -> Vec<ServiceEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Echo(String);

    fn reg() -> ServiceRegistry {
        ServiceRegistry::new()
    }

    #[test]
    #[should_panic(expected = "not indexed")]
    fn exact_lookup_needs_a_declared_index() {
        let mut r = reg();
        r.register(&["x"], Rc::new(()), Properties::new().with("name", "a"));
        r.find_one_by("x", "name", "a");
    }

    #[test]
    fn register_find_get_roundtrip() {
        let mut r = reg();
        let id = r.register(
            &["test.Echo"],
            Rc::new(Echo("hi".into())),
            Properties::new().with("name", "a"),
        );
        let found = r.find("test.Echo", None);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].id(), id);
        let svc = r.get::<Echo>(id).unwrap();
        assert_eq!(*svc, Echo("hi".into()));
    }

    #[test]
    fn standard_properties_are_set() {
        let mut r = reg();
        let id = r.register(&["a.B", "a.C"], Rc::new(()), Properties::new());
        let props = r.properties(id).unwrap();
        assert_eq!(
            props.get(SERVICE_ID),
            Some(&PropValue::Int(id.raw() as i64))
        );
        assert_eq!(props.get(SERVICE_RANKING), Some(&PropValue::Int(0)));
        let f = Filter::parse("(objectclass=a.C)").unwrap();
        assert!(f.matches(props));
    }

    #[test]
    fn filter_narrows_results() {
        let mut r = reg();
        r.register(&["x"], Rc::new(()), Properties::new().with("kind", "good"));
        r.register(&["x"], Rc::new(()), Properties::new().with("kind", "bad"));
        let f = Filter::parse("(kind=good)").unwrap();
        assert_eq!(r.find("x", Some(&f)).len(), 1);
        assert_eq!(r.find("x", None).len(), 2);
        assert_eq!(r.find("y", None).len(), 0);
    }

    #[test]
    fn ranking_orders_selection() {
        let mut r = reg();
        let low = r.register(
            &["x"],
            Rc::new(()),
            Properties::new().with(SERVICE_RANKING, 1),
        );
        let high = r.register(
            &["x"],
            Rc::new(()),
            Properties::new().with(SERVICE_RANKING, 10),
        );
        let tie = r.register(
            &["x"],
            Rc::new(()),
            Properties::new().with(SERVICE_RANKING, 10),
        );
        let found = r.find("x", None);
        assert_eq!(found[0].id(), high, "highest ranking first");
        assert_eq!(found[1].id(), tie, "ties broken by lower id — wait");
        assert_eq!(found[2].id(), low);
        // `high` has a lower id than `tie`, so it wins the tie.
        assert!(high.raw() < tie.raw());
        assert_eq!(r.find_one("x", None).unwrap().id(), high);
    }

    #[test]
    fn unregister_emits_event_and_removes() {
        let mut r = reg();
        let id = r.register(&["x"], Rc::new(()), Properties::new());
        r.drain_events();
        assert!(r.unregister(id));
        assert!(!r.unregister(id));
        assert!(r.get::<()>(id).is_none());
        let events = r.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, ServiceEventKind::Unregistering);
        assert_eq!(events[0].service, id);
    }

    #[test]
    fn set_properties_emits_modified() {
        let mut r = reg();
        let id = r.register(&["x"], Rc::new(()), Properties::new().with("v", 1));
        r.drain_events();
        assert!(r.set_properties(id, Properties::new().with("v", 2)));
        let events = r.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, ServiceEventKind::Modified);
        assert_eq!(r.properties(id).unwrap().get("v"), Some(&PropValue::Int(2)));
        // Standard keys survive the replacement.
        assert!(r.properties(id).unwrap().get(SERVICE_ID).is_some());
    }

    #[test]
    fn wrong_type_downcast_is_none() {
        let mut r = reg();
        let id = r.register(&["x"], Rc::new(Echo("hi".into())), Properties::new());
        assert!(r.get::<String>(id).is_none());
        assert!(r.get::<Echo>(id).is_some());
    }

    /// Randomized: `unregister_owned` removes exactly the services a full
    /// scan of the table by owner finds, in ascending id order, and `find`
    /// keeps its descending-ranking, ascending-id order throughout.
    #[test]
    fn owner_index_matches_a_full_scan() {
        let mut rng = rtos::rng::SimRng::from_seed(0x0511);
        const IFACES: [&str; 3] = ["x", "y", "z"];
        for case in 0..64 {
            let mut r = reg();
            for _ in 0..rng.uniform_u64(1, 120) {
                match rng.uniform_u64(0, 6) {
                    0..=2 => {
                        let ifaces: Vec<&str> =
                            IFACES.iter().copied().filter(|_| rng.chance(0.5)).collect();
                        let ifaces = if ifaces.is_empty() { vec!["x"] } else { ifaces };
                        let props =
                            Properties::new().with(SERVICE_RANKING, rng.uniform_u64(0, 3) as i64);
                        match rng.uniform_u64(0, 5) {
                            0 => r.register(&ifaces, Rc::new(()), props),
                            owner => r.register_owned(owner, &ifaces, Rc::new(()), props),
                        };
                    }
                    3 => {
                        let id = rng.uniform_u64(0, r.next_id + 2);
                        r.unregister(ServiceId(id));
                    }
                    4 => {
                        let id = ServiceId(rng.uniform_u64(0, r.next_id + 2));
                        let props =
                            Properties::new().with(SERVICE_RANKING, rng.uniform_u64(0, 3) as i64);
                        r.set_properties(id, props);
                    }
                    _ => {
                        let owner = rng.uniform_u64(1, 5);
                        let scanned: Vec<ServiceId> = r
                            .entries
                            .iter()
                            .filter(|(_, e)| e.owner == Some(owner))
                            .map(|(id, _)| ServiceId(*id))
                            .collect();
                        r.drain_events();
                        assert_eq!(r.unregister_owned(owner), scanned.len(), "case {case}");
                        let gone: Vec<ServiceId> =
                            r.drain_events().iter().map(|e| e.service).collect();
                        assert_eq!(gone, scanned, "case {case}");
                        assert!(
                            r.entries.values().all(|e| e.owner != Some(owner)),
                            "case {case}"
                        );
                    }
                }
                for iface in IFACES {
                    let mut expect: Vec<(i64, u64)> = r
                        .entries
                        .iter()
                        .filter(|(_, e)| e.interfaces.iter().any(|i| i == iface))
                        .map(|(id, e)| (ranking(&e.properties), *id))
                        .collect();
                    expect.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                    let found: Vec<(i64, u64)> = r
                        .find(iface, None)
                        .iter()
                        .map(|s| (s.ranking(), s.id().raw()))
                        .collect();
                    assert_eq!(found, expect, "case {case}: `{iface}` order");
                }
            }
        }
    }

    #[test]
    fn owned_services_unregister_together() {
        let mut r = reg();
        r.register_owned(7, &["x"], Rc::new(()), Properties::new());
        r.register_owned(7, &["y"], Rc::new(()), Properties::new());
        r.register_owned(8, &["z"], Rc::new(()), Properties::new());
        assert_eq!(r.unregister_owned(7), 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.find("z", None).len(), 1);
    }
}
