//! Property-based tests for the OSGi substrate: LDAP filter grammar
//! roundtrips, version ordering laws, and registry selection invariants.
//!
//! Cases are generated from the in-repo seeded [`SimRng`] (no external
//! property-testing crate).

use osgi::ldap::{Filter, PropValue, Properties};
use osgi::registry::ServiceRegistry;
use osgi::version::{Version, VersionRange};
use rtos::rng::SimRng;
use std::rc::Rc;

const CASES: usize = 128;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn string_from(rng: &mut SimRng, first: &[u8], rest: &[u8], min: usize, max: usize) -> String {
    let len = rng.uniform_u64(min as u64, max as u64 + 1) as usize;
    (0..len)
        .map(|i| {
            let set = if i == 0 { first } else { rest };
            set[rng.uniform_u64(0, set.len() as u64) as usize] as char
        })
        .collect()
}

const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
const ALNUM_EXT: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";

fn attr_name(rng: &mut SimRng) -> String {
    string_from(rng, ALPHA, ALNUM_EXT, 1, 13)
}

/// Values may contain filter metacharacters; Display must escape them.
fn attr_value(rng: &mut SimRng, min: usize, max: usize) -> String {
    let len = rng.uniform_u64(min as u64, max as u64 + 1) as usize;
    // All printable ASCII, including `(`, `)`, `*`, `\`.
    (0..len)
        .map(|_| rng.uniform_u64(0x20, 0x7F) as u8 as char)
        .collect()
}

fn nonempty_value(rng: &mut SimRng) -> String {
    attr_value(rng, 1, 8)
}

fn leaf_filter(rng: &mut SimRng) -> Filter {
    match rng.uniform_u64(0, 6) {
        0 => Filter::Equal(attr_name(rng), attr_value(rng, 0, 16)),
        1 => Filter::Approx(attr_name(rng), attr_value(rng, 0, 16)),
        2 => Filter::GreaterEq(attr_name(rng), attr_value(rng, 0, 16)),
        3 => Filter::LessEq(attr_name(rng), attr_value(rng, 0, 16)),
        4 => Filter::Present(attr_name(rng)),
        _ => {
            // A substring with at least one nonempty part (a fully-empty
            // substring canonicalizes to a presence test).
            loop {
                let initial = rng.chance(0.5).then(|| nonempty_value(rng));
                let any: Vec<String> = (0..rng.uniform_u64(0, 3))
                    .map(|_| nonempty_value(rng))
                    .collect();
                let final_ = rng.chance(0.5).then(|| nonempty_value(rng));
                if initial.is_some() || !any.is_empty() || final_.is_some() {
                    return Filter::Substring {
                        attr: attr_name(rng),
                        initial,
                        any,
                        final_,
                    };
                }
            }
        }
    }
}

fn filter_tree(rng: &mut SimRng, depth: usize) -> Filter {
    if depth == 0 || rng.chance(0.4) {
        return leaf_filter(rng);
    }
    match rng.uniform_u64(0, 3) {
        0 => Filter::And(
            (0..rng.uniform_u64(0, 4))
                .map(|_| filter_tree(rng, depth - 1))
                .collect(),
        ),
        1 => Filter::Or(
            (0..rng.uniform_u64(0, 4))
                .map(|_| filter_tree(rng, depth - 1))
                .collect(),
        ),
        _ => Filter::Not(Box::new(filter_tree(rng, depth - 1))),
    }
}

fn version(rng: &mut SimRng) -> Version {
    Version {
        major: rng.uniform_u64(0, 100) as u32,
        minor: rng.uniform_u64(0, 100) as u32,
        micro: rng.uniform_u64(0, 100) as u32,
        qualifier: string_from(
            rng,
            b"abcdefghijklmnopqrstuvwxyz0123456789",
            b"abcdefghijklmnopqrstuvwxyz0123456789",
            0,
            6,
        ),
    }
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

/// Every filter the AST can express prints to a string the parser reads
/// back to the identical AST.
#[test]
fn filter_display_parse_roundtrip() {
    let mut rng = SimRng::from_seed(0xF117);
    for case in 0..CASES {
        let f = filter_tree(&mut rng, 3);
        let printed = f.to_string();
        let reparsed = Filter::parse(&printed)
            .unwrap_or_else(|e| panic!("case {case}: reparse of `{printed}` failed: {e}"));
        assert_eq!(f, reparsed, "case {case}");
    }
}

/// Parsing never panics on arbitrary input.
#[test]
fn filter_parse_never_panics() {
    let mut rng = SimRng::from_seed(0x9A21C);
    for _ in 0..CASES {
        let s = attr_value(&mut rng, 0, 40);
        let _ = Filter::parse(&s);
    }
}

/// Semantic sanity: a generated filter evaluates identically before and
/// after a print/parse cycle, over arbitrary property sets.
#[test]
fn filter_semantics_survive_roundtrip() {
    let mut rng = SimRng::from_seed(0x5E3A);
    for case in 0..CASES {
        let f = filter_tree(&mut rng, 3);
        let dict: Properties = (0..rng.uniform_u64(0, 6))
            .map(|_| {
                (
                    string_from(
                        &mut rng,
                        b"abcdefghijklmnopqrstuvwxyz",
                        b"abcdefghijklmnopqrstuvwxyz",
                        1,
                        6,
                    ),
                    PropValue::Str(attr_value(&mut rng, 0, 8)),
                )
            })
            .collect();
        let reparsed = Filter::parse(&f.to_string()).expect("roundtrip parse");
        assert_eq!(f.matches(&dict), reparsed.matches(&dict), "case {case}");
    }
}

/// Version display/parse roundtrip.
#[test]
fn version_display_parse_roundtrip() {
    let mut rng = SimRng::from_seed(0x7E51);
    for case in 0..CASES {
        let v = version(&mut rng);
        let reparsed: Version = v.to_string().parse().expect("reparse");
        assert_eq!(v, reparsed, "case {case}");
    }
}

/// Version ordering is total and consistent with segment ordering.
#[test]
fn version_ordering_laws() {
    use std::cmp::Ordering;
    let mut rng = SimRng::from_seed(0x03D3);
    for case in 0..CASES {
        let a = version(&mut rng);
        let b = version(&mut rng);
        match a.cmp(&b) {
            Ordering::Less => assert_eq!(b.cmp(&a), Ordering::Greater, "case {case}"),
            Ordering::Greater => assert_eq!(b.cmp(&a), Ordering::Less, "case {case}"),
            Ordering::Equal => assert_eq!(&a, &b, "case {case}"),
        }
        if a.major != b.major {
            assert_eq!(a.major.cmp(&b.major), a.cmp(&b), "case {case}");
        }
    }
}

/// Range membership agrees with the endpoints' ordering.
#[test]
fn range_membership_consistent() {
    let mut rng = SimRng::from_seed(0x2A46E);
    let mut checked = 0;
    while checked < CASES {
        let lo = version(&mut rng);
        let hi = version(&mut rng);
        let probe = version(&mut rng);
        if lo > hi {
            continue;
        }
        checked += 1;
        let range = VersionRange {
            floor: lo.clone(),
            floor_inclusive: true,
            ceiling: Some(hi.clone()),
            ceiling_inclusive: true,
        };
        assert_eq!(range.includes(&probe), lo <= probe && probe <= hi);
        // Displayed form parses back to something with identical membership.
        let reparsed: VersionRange = range.to_string().parse().expect("range reparse");
        assert_eq!(reparsed.includes(&probe), range.includes(&probe));
    }
}

/// Registry ranking selection: find_one always returns the maximum by
/// (ranking desc, id asc) among matching services.
#[test]
fn registry_selection_order() {
    let mut rng = SimRng::from_seed(0x8E6);
    for case in 0..CASES {
        let rankings: Vec<i64> = (0..rng.uniform_u64(1, 12))
            .map(|_| rng.uniform_u64(0, 200) as i64 - 100)
            .collect();
        let mut reg = ServiceRegistry::new();
        let ids: Vec<_> = rankings
            .iter()
            .map(|&r| {
                reg.register(
                    &["svc"],
                    Rc::new(()),
                    Properties::new().with("service.ranking", r),
                )
            })
            .collect();
        let found = reg.find("svc", None);
        assert_eq!(found.len(), rankings.len(), "case {case}");
        // Verify the full sort order.
        for pair in found.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                a.ranking() > b.ranking()
                    || (a.ranking() == b.ranking() && a.id().raw() < b.id().raw()),
                "case {case}"
            );
        }
        // find_one is the head.
        let best = reg.find_one("svc", None).expect("nonempty");
        assert_eq!(best.id(), found[0].id(), "case {case}");
        // Unregister everything; registry drains.
        for id in ids {
            assert!(reg.unregister(id), "case {case}");
        }
        assert!(reg.is_empty(), "case {case}");
    }
}

/// The exact-match property index picks the same service as the LDAP
/// filter path `(key=value)`, through random registrations (some under a
/// second interface, some without the key, some with a non-string value),
/// ranking ties, property changes and unregistrations. An index declared
/// after registrations exist agrees too.
#[test]
fn property_index_matches_the_filter_path() {
    const NAMES: [&str; 4] = ["calc", "disp", "cam", "ctl"];
    let mut rng = SimRng::from_seed(0x1DE7);
    for case in 0..CASES {
        let mut indexed = ServiceRegistry::new();
        indexed.index_property("Drt.Name");
        let mut late = ServiceRegistry::new();
        let mut plain = ServiceRegistry::new();
        let mut live = Vec::new();
        let index_late_at = rng.uniform_u64(0, 40);
        for step in 0..40 {
            if step == index_late_at {
                late.index_property("drt.name");
            }
            let roll = rng.uniform_u64(0, 10);
            if roll < 5 || live.is_empty() {
                let mut props =
                    Properties::new().with("service.ranking", rng.uniform_u64(0, 3) as i64);
                match rng.uniform_u64(0, 6) {
                    0 => {}
                    1 => {
                        props.insert("drt.name", 7i64);
                    }
                    _ => {
                        props.insert("drt.name", NAMES[rng.uniform_u64(0, 4) as usize]);
                    }
                }
                let ifaces: &[&str] = if rng.chance(0.3) {
                    &["svc", "other"]
                } else {
                    &["svc"]
                };
                let id = indexed.register(ifaces, Rc::new(()), props.clone());
                assert_eq!(late.register(ifaces, Rc::new(()), props.clone()), id);
                assert_eq!(plain.register(ifaces, Rc::new(()), props), id);
                live.push(id);
            } else if roll < 8 {
                let id = live[rng.uniform_u64(0, live.len() as u64) as usize];
                let props = Properties::new()
                    .with("drt.name", NAMES[rng.uniform_u64(0, 4) as usize])
                    .with("service.ranking", rng.uniform_u64(0, 3) as i64);
                for reg in [&mut indexed, &mut late, &mut plain] {
                    assert!(reg.set_properties(id, props.clone()), "case {case}");
                }
            } else {
                let id = live.swap_remove(rng.uniform_u64(0, live.len() as u64) as usize);
                for reg in [&mut indexed, &mut late, &mut plain] {
                    assert!(reg.unregister(id), "case {case}");
                }
            }
            for iface in ["svc", "other", "none"] {
                for name in NAMES.iter().chain(&["7", "nope"]) {
                    let filter = Filter::parse(&format!("(drt.name={name})")).unwrap();
                    let expected = plain
                        .find(iface, Some(&filter))
                        .into_iter()
                        .find(|r| matches!(r.properties().get("drt.name"), Some(PropValue::Str(_))))
                        .map(|r| r.id());
                    let got = indexed.find_one_by(iface, "drt.name", name);
                    assert_eq!(got, expected, "case {case} step {step}: {iface} {name}");
                    if step >= index_late_at {
                        let got = late.find_one_by(iface, "drt.name", name);
                        assert_eq!(got, expected, "case {case} step {step}: late index");
                    }
                }
            }
        }
    }
}
