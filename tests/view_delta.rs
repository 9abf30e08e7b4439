//! The DRCR keeps its global view and its admission ledger current by
//! delta. These tests pin that bookkeeping to its definitions:
//!
//! * after every operation of a random register / remove / state-flip /
//!   mode-switch / refine sequence, the executive's view reads exactly
//!   what a fresh [`SystemView::new`] over the same components reads
//!   (utilization bits, periodic sums and counts, priority order), and
//!   mirrors the executive's own states and claims;
//! * each CPU's ledger total is the exact fold of its reservations, and
//!   equals the view's total bit for bit;
//! * totals are exact: ten `0.1` claims fill a CPU to exactly `1.0`;
//! * claims below 2⁻⁴⁸ are typed rejections wherever a claim enters.
//!
//! Cases are generated from the in-repo seeded `SimRng`.

use drcom::model::{ClaimSum, MIN_CPU_USAGE};
use drcom::view::SystemView;
use drcom::DescriptorError;
use drt::prelude::*;
use osgi::event::BundleId;
use rtos::rng::SimRng;
use std::collections::BTreeMap;

const CPUS: u32 = 2;

fn runtime() -> DrtRuntime {
    DrtRuntime::new(
        KernelConfig::new(7)
            .with_cpus(CPUS)
            .with_timer(TimerJitterModel::ideal()),
    )
}

fn idle() -> Box<dyn RtLogic> {
    Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
}

/// One of the pool's components. `src` provides `chan` on CPU 0; the `c*`
/// consumers read it (so stopping `src` cascades them); the `m*` are moded;
/// the `a*` are aperiodic. Claims mix drtbench-style jittered fractions
/// with coarse ones, so admission both succeeds and fails.
fn component(name: &str, rng: &mut SimRng) -> ComponentProvider {
    let cpu = rng.uniform_u64(0, u64::from(CPUS)) as u32;
    let claim = if rng.chance(0.5) {
        0.008 * rng.uniform_range(0.8, 1.2)
    } else {
        rng.uniform_range(0.05, 0.45)
    };
    let priority = rng.uniform_u64(1, 6) as u8;
    let builder = ComponentDescriptor::builder(name).cpu_usage(claim);
    let d = match &name[..1] {
        "s" => {
            builder
                .periodic(100, 0, 2)
                .outport("chan", PortInterface::Shm, DataType::Integer, 1)
        }
        "c" => builder.periodic(50, cpu, priority).inport(
            "chan",
            PortInterface::Shm,
            DataType::Integer,
            1,
        ),
        "m" => builder
            .periodic(200, cpu, priority)
            .mode("cheap", 20, claim / 4.0, priority),
        _ => builder.aperiodic(cpu, priority),
    }
    .build()
    .unwrap();
    ComponentProvider::new(d, idle)
}

const POOL: [&str; 8] = ["src", "c1", "c2", "c3", "m1", "m2", "a1", "a2"];

fn names(it: impl Iterator<Item = impl AsRef<str>>) -> Vec<String> {
    it.map(|s| s.as_ref().to_string()).collect()
}

fn check(rt: &DrtRuntime, case: usize, step: usize) {
    let drcr = rt.drcr();
    let view = drcr.system_view();
    let fresh = SystemView::new(view.cpu_count, view.components().to_vec());
    assert_eq!(view, fresh, "case {case} step {step}");
    for cpu in 0..CPUS {
        let at = format!("case {case} step {step} cpu {cpu}");
        assert_eq!(
            view.utilization(cpu).to_bits(),
            fresh.utilization(cpu).to_bits(),
            "{at}: utilization"
        );
        assert_eq!(
            view.periodic_utilization(cpu).to_bits(),
            fresh.periodic_utilization(cpu).to_bits(),
            "{at}: periodic utilization"
        );
        assert_eq!(
            view.periodic_count(cpu),
            fresh.periodic_count(cpu),
            "{at}: periodic count"
        );
        assert_eq!(
            names(view.admitted_sorted(cpu).map(|c| c.name.clone())),
            names(fresh.admitted_sorted(cpu).map(|c| c.name.clone())),
            "{at}: priority order"
        );
        let fold: ClaimSum = drcr
            .ledger()
            .iter()
            .filter(|(_, c, _)| *c == cpu)
            .map(|(_, _, usage)| usage)
            .collect();
        assert_eq!(
            drcr.ledger().utilization(cpu).to_bits(),
            fold.value().to_bits(),
            "{at}: ledger total vs the exact fold of its reservations"
        );
        assert_eq!(
            drcr.ledger().utilization(cpu).to_bits(),
            view.utilization(cpu).to_bits(),
            "{at}: ledger vs view"
        );
    }
    // The view mirrors the executive, in name order.
    assert_eq!(
        names(view.components().iter().map(|c| c.name.clone())),
        drcr.component_names(),
        "case {case} step {step}"
    );
    for c in view.components() {
        assert_eq!(
            Some(c.state),
            drcr.state_of(&c.name),
            "case {case} step {step}"
        );
        let claim = drcr.descriptor_ref(&c.name).unwrap().cpu_usage.fraction();
        assert_eq!(c.cpu_usage, claim, "case {case} step {step}: `{}`", c.name);
    }
}

#[test]
fn delta_view_matches_a_fresh_build_under_random_churn() {
    let mut rng = SimRng::from_seed(0xDE17A);
    for case in 0..32 {
        let mut rt = runtime();
        let mut bundles: BTreeMap<&str, (BundleId, bool)> = BTreeMap::new();
        for step in 0..rng.uniform_u64(10, 60) as usize {
            let pick = POOL[rng.uniform_u64(0, POOL.len() as u64) as usize];
            match rng.uniform_u64(0, 7) {
                // Register or remove `pick`.
                0 | 1 => match bundles.remove(pick) {
                    Some((b, _)) => rt.uninstall_bundle(b).unwrap(),
                    None => {
                        let b = rt
                            .install_component(&format!("b.{pick}"), component(pick, &mut rng))
                            .unwrap();
                        bundles.insert(pick, (b, true));
                    }
                },
                // Stop or restart its bundle (a departure cascade for `src`).
                2 => {
                    if let Some((b, started)) = bundles.get_mut(pick) {
                        if *started {
                            rt.stop_bundle(*b).unwrap();
                        } else {
                            rt.start_bundle(*b).unwrap();
                        }
                        *started = !*started;
                    }
                }
                3 => {
                    if rng.chance(0.5) {
                        let _ = rt.suspend_component(pick);
                    } else {
                        let _ = rt.resume_component(pick);
                    }
                }
                4 => {
                    let mode = if rng.chance(0.5) { "cheap" } else { BASE_MODE };
                    let _ = rt.switch_mode(pick, mode);
                }
                5 => {
                    let claim = rt
                        .drcr()
                        .descriptor_ref(pick)
                        .map(|d| d.cpu_usage.fraction());
                    if let Some(claim) = claim {
                        let refined = (claim * rng.uniform_range(0.5, 1.5)).min(1.0);
                        rt.refine_claim(pick, refined, 100).unwrap();
                    }
                }
                _ => rt.advance(SimDuration::from_millis(rng.uniform_u64(1, 10))),
            }
            check(&rt, case, step);
        }
    }
}

#[test]
fn ten_tenths_fill_a_cpu_exactly() {
    let mut rt = runtime();
    let wave = (0..10).map(|i| {
        let d = ComponentDescriptor::builder(&format!("t{i}"))
            .periodic(100, 0, 3)
            .cpu_usage(0.1)
            .build()
            .unwrap();
        (format!("b.t{i}"), ComponentProvider::new(d, idle))
    });
    rt.install_components(wave).unwrap();
    let drcr = rt.drcr();
    assert_eq!(drcr.ledger().len(), 10, "all ten admitted");
    // An in-order f64 fold of ten 0.1s reads 0.9999999999999999.
    assert_eq!(drcr.ledger().utilization(0), 1.0);
    assert_eq!(drcr.system_view().utilization(0), 1.0);
}

#[test]
fn claims_below_the_floor_are_typed_rejections() {
    let tiny = MIN_CPU_USAGE / 2.0;
    let err = ComponentDescriptor::builder("tiny")
        .periodic(100, 0, 3)
        .cpu_usage(tiny)
        .build()
        .unwrap_err();
    assert!(
        matches!(
            err,
            DescriptorError::BadValue {
                attribute: "cpuusage",
                ..
            }
        ),
        "{err:?}"
    );
    let xml = |base: &str, mode: &str| {
        format!(
            r#"<drt:component name="tiny" type="periodic" cpuusage="{base}">
              <implementation bincode="a.B"/>
              <periodictask frequence="100" priority="3"/>
              <mode name="low" frequence="10" cpuusage="{mode}" priority="3"/>
            </drt:component>"#
        )
    };
    assert!(ComponentDescriptor::parse_xml(&xml("0.1", "0.05")).is_ok());
    for (base, mode) in [("1e-16", "0.05"), ("0.1", "1e-16")] {
        let err = ComponentDescriptor::parse_xml(&xml(base, mode)).unwrap_err();
        assert!(
            matches!(
                err,
                DescriptorError::BadValue {
                    attribute: "cpuusage",
                    ..
                }
            ),
            "{base}/{mode}: {err:?}"
        );
    }
    // The floor itself is a legal claim; refining below it is rejected.
    let d = ComponentDescriptor::builder("floor")
        .periodic(100, 0, 3)
        .cpu_usage(MIN_CPU_USAGE)
        .build()
        .unwrap();
    let mut rt = runtime();
    rt.install_component("b.floor", ComponentProvider::new(d, idle))
        .unwrap();
    assert_eq!(rt.component_state("floor"), Some(ComponentState::Active));
    assert!(rt.refine_claim("floor", tiny, 10).is_err());
    assert_eq!(rt.drcr().ledger().utilization(0), MIN_CPU_USAGE);
}
