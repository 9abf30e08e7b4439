//! Cross-crate integration: descriptors parsed from XML, bundles wired by
//! the OSGi layer, components activated by the DRCR, data moving through
//! the RT kernel, and management reached through LDAP-filtered registry
//! lookups — the whole Figure 3 stack in one place.

use drcom::drcr::PROP_COMPONENT_NAME;
use drcom::manage::{ManagementHandle, MANAGEMENT_SERVICE};
use drcom::resolve::{ResolverHandle, RESOLVER_SERVICE};
use drt::prelude::*;
use osgi::framework::{BundleActivator, BundleContext, NoopActivator};
use osgi::ldap::{Filter, Properties};
use osgi::manifest::BundleManifest;
use osgi::version::{Version, VersionRange};
use std::rc::Rc;

fn runtime() -> DrtRuntime {
    DrtRuntime::new(KernelConfig::new(23).with_timer(TimerJitterModel::ideal()))
}

const PRODUCER_XML: &str = r#"<drt:component name="prod" type="periodic" cpuusage="0.1">
  <implementation bincode="demo.Producer"/>
  <periodictask frequence="200" priority="2"/>
  <outport name="stream" interface="RTAI.Mailbox" type="Byte" size="8"/>
</drt:component>"#;

const CONSUMER_XML: &str = r#"<drt:component name="cons" type="periodic" cpuusage="0.1">
  <implementation bincode="demo.Consumer"/>
  <periodictask frequence="100" priority="3"/>
  <inport name="stream" interface="RTAI.Mailbox" type="Byte" size="8"/>
</drt:component>"#;

#[test]
fn mailbox_ports_connect_components() {
    let mut rt = runtime();
    rt.install_component(
        "demo.prod",
        ComponentProvider::from_xml(PRODUCER_XML, || {
            Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                let msg = [io.cycle() as u8; 4];
                let _ = io.write("stream", &msg).unwrap();
            }))
        })
        .unwrap(),
    )
    .unwrap();
    rt.install_component(
        "demo.cons",
        ComponentProvider::from_xml(CONSUMER_XML, || {
            Box::new(FnLogic(
                |io: &mut RtIo<'_, '_>| {
                    while let Ok(Some(_msg)) = io.read("stream") {}
                },
            ))
        })
        .unwrap(),
    )
    .unwrap();
    assert_eq!(rt.component_state("prod"), Some(ComponentState::Active));
    assert_eq!(rt.component_state("cons"), Some(ComponentState::Active));
    rt.advance(SimDuration::from_secs(1));
    let kernel = rt.kernel();
    let mbx = kernel.mailboxes().get("stream").unwrap();
    assert!(mbx.sent_count() > 150, "sent {}", mbx.sent_count());
    assert!(
        mbx.received_count() > 150,
        "received {}",
        mbx.received_count()
    );
}

#[test]
fn management_services_are_ldap_discoverable() {
    let mut rt = runtime();
    for name in ["alpha", "beta", "gamma"] {
        let d = ComponentDescriptor::builder(name)
            .periodic(50, 0, 4)
            .cpu_usage(0.05)
            .build()
            .unwrap();
        rt.install_component(
            &format!("demo.{name}"),
            ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))),
        )
        .unwrap();
    }
    // Three management services, filterable by component name.
    let all = rt.framework().registry().find(MANAGEMENT_SERVICE, None);
    assert_eq!(all.len(), 3);
    let f = Filter::parse(&format!("({PROP_COMPONENT_NAME}=beta)")).unwrap();
    let found = rt.framework().registry().find(MANAGEMENT_SERVICE, Some(&f));
    assert_eq!(found.len(), 1);
    let handle = rt
        .framework()
        .registry()
        .get::<ManagementHandle>(found[0].id())
        .unwrap();
    assert_eq!(handle.0.component_name(), "beta");
    // Filter by declared CPU usage — resolvable because activation
    // publishes the contract as service properties.
    let f = Filter::parse("(drt.cpuusage<=0.05)").unwrap();
    assert_eq!(
        rt.framework()
            .registry()
            .find(MANAGEMENT_SERVICE, Some(&f))
            .len(),
        3
    );
}

#[test]
fn management_service_disappears_with_its_component() {
    let mut rt = runtime();
    let d = ComponentDescriptor::builder("tmp")
        .periodic(50, 0, 4)
        .cpu_usage(0.05)
        .build()
        .unwrap();
    let bundle = rt
        .install_component(
            "demo.tmp",
            ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))),
        )
        .unwrap();
    assert!(rt.management("tmp").is_some());
    rt.stop_bundle(bundle).unwrap();
    assert!(rt.management("tmp").is_none());
    assert!(rt
        .framework()
        .registry()
        .find(MANAGEMENT_SERVICE, None)
        .is_empty());
}

/// A bundle that registers a resolving service from its activator — the
/// paper's "customized resolving service plugged into the DRCR runtime by
/// using the OSGi service model", deployed as a real bundle.
struct VetoBundle;

impl BundleActivator for VetoBundle {
    fn start(&mut self, ctx: &mut BundleContext<'_>) -> Result<(), String> {
        ctx.register_service(
            &[RESOLVER_SERVICE],
            Rc::new(ResolverHandle(Rc::new(drcom::resolve::AlwaysReject(
                "site lockdown".into(),
            )))),
            Properties::new(),
        );
        Ok(())
    }
}

#[test]
fn resolver_bundle_lifecycle_gates_admissions() {
    let mut rt = runtime();
    let veto_bundle = rt
        .framework_mut()
        .install(
            BundleManifest::new("policy.veto", Version::new(1, 0, 0)),
            Box::new(VetoBundle),
        )
        .unwrap();
    rt.framework_mut().start(veto_bundle).unwrap();
    rt.process();

    let d = ComponentDescriptor::builder("calc")
        .periodic(100, 0, 2)
        .cpu_usage(0.1)
        .build()
        .unwrap();
    rt.install_component(
        "demo.calc",
        ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))),
    )
    .unwrap();
    assert_eq!(
        rt.component_state("calc"),
        Some(ComponentState::Unsatisfied)
    );

    // Stopping the policy bundle removes the veto; the DRCR re-resolves on
    // the Unregistering event.
    rt.framework_mut().stop(veto_bundle).unwrap();
    rt.process();
    assert_eq!(rt.component_state("calc"), Some(ComponentState::Active));
}

#[test]
fn plain_osgi_bundles_coexist_with_components() {
    let mut rt = runtime();
    // A library bundle exporting a package, and an app bundle importing it.
    let lib = rt
        .framework_mut()
        .install(
            BundleManifest::new("lib", Version::new(1, 2, 0))
                .exports("lib.api", Version::new(1, 2, 0)),
            Box::new(NoopActivator),
        )
        .unwrap();
    let app = rt
        .framework_mut()
        .install(
            BundleManifest::new("app", Version::new(1, 0, 0))
                .imports("lib.api", VersionRange::at_least(Version::new(1, 0, 0))),
            Box::new(NoopActivator),
        )
        .unwrap();
    rt.framework_mut().start(app).unwrap();
    rt.process();
    assert_eq!(
        rt.framework().bundle_state(app),
        Some(osgi::framework::BundleState::Active)
    );
    assert_eq!(
        rt.framework().bundle_state(lib),
        Some(osgi::framework::BundleState::Resolved)
    );
    // Components deploy fine alongside.
    let d = ComponentDescriptor::builder("calc")
        .periodic(100, 0, 2)
        .cpu_usage(0.1)
        .build()
        .unwrap();
    rt.install_component(
        "demo.calc",
        ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))),
    )
    .unwrap();
    assert_eq!(rt.component_state("calc"), Some(ComponentState::Active));
}

#[test]
fn cyclic_pipelines_co_activate() {
    // The smart-camera feedback loop: camera needs the tracker's ROI,
    // tracker needs the camera's frames.
    let mut rt = runtime();
    let cam = ComponentDescriptor::builder("cam")
        .periodic(100, 0, 2)
        .cpu_usage(0.1)
        .outport("frames", PortInterface::Shm, DataType::Byte, 16)
        .inport("roi", PortInterface::Shm, DataType::Integer, 1)
        .build()
        .unwrap();
    let trk = ComponentDescriptor::builder("trk")
        .periodic(50, 0, 3)
        .cpu_usage(0.1)
        .inport("frames", PortInterface::Shm, DataType::Byte, 16)
        .outport("roi", PortInterface::Shm, DataType::Integer, 1)
        .build()
        .unwrap();
    rt.install_component(
        "demo.cam",
        ComponentProvider::new(cam, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))),
    )
    .unwrap();
    assert_eq!(rt.component_state("cam"), Some(ComponentState::Unsatisfied));
    rt.install_component(
        "demo.trk",
        ComponentProvider::new(trk, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))),
    )
    .unwrap();
    assert_eq!(rt.component_state("cam"), Some(ComponentState::Active));
    assert_eq!(rt.component_state("trk"), Some(ComponentState::Active));
    // And the cycle tears down together when one leaves.
    let bundle = rt.drcr().bundle_of("trk").unwrap();
    rt.stop_bundle(bundle).unwrap();
    assert_eq!(rt.component_state("cam"), Some(ComponentState::Unsatisfied));
}

/// One member of the `cya` ⇄ `cyb` cycle on CPU 0: each reads the other's
/// outport.
fn cycle_member(name: &str, claim: f64) -> ComponentProvider {
    let (reads, writes) = if name == "cya" {
        ("ba", "ab")
    } else {
        ("ab", "ba")
    };
    periodic_on_cpu0(name, claim, &[reads], &[writes])
}

fn periodic_on_cpu0(name: &str, claim: f64, reads: &[&str], writes: &[&str]) -> ComponentProvider {
    periodic_on(0, name, claim, reads, writes)
}

fn periodic_on(
    cpu: u32,
    name: &str,
    claim: f64,
    reads: &[&str],
    writes: &[&str],
) -> ComponentProvider {
    let mut builder = ComponentDescriptor::builder(name)
        .periodic(100, cpu, 2)
        .cpu_usage(claim);
    for port in reads {
        builder = builder.inport(port, PortInterface::Shm, DataType::Integer, 1);
    }
    for port in writes {
        builder = builder.outport(port, PortInterface::Shm, DataType::Integer, 1);
    }
    ComponentProvider::new(builder.build().unwrap(), || {
        Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
    })
}

fn group_abandonments(rt: &DrtRuntime) -> usize {
    rt.drcr()
        .events()
        .iter()
        .filter(|e| matches!(e.event, DrcrEvent::GroupAbandoned { .. }))
        .count()
}

fn two_cpu_runtime() -> DrtRuntime {
    DrtRuntime::new(
        KernelConfig::new(23)
            .with_timer(TimerJitterModel::ideal())
            .with_cpus(2),
    )
}

/// One member of the `cya` ⇄ `cyb` cycle pinned to `cpu`.
fn cycle_member_on(cpu: u32, name: &str, claim: f64) -> ComponentProvider {
    let (reads, writes) = if name == "cya" {
        ("ba", "ab")
    } else {
        ("ab", "ba")
    };
    periodic_on(cpu, name, claim, &[reads], &[writes])
}

#[test]
fn cycle_that_does_not_fit_together_stays_unsatisfied() {
    // Each 0.6 member fits CPU 0 alone, the pair does not. The group is
    // ruled with the members before each one counted admitted, so the
    // second member's ruling sees 1.2 and abandons the group before
    // anything activates.
    let policies: [fn() -> DrtRuntime; 2] = [runtime, || {
        DrtRuntime::with_resolver(
            KernelConfig::new(23).with_timer(TimerJitterModel::ideal()),
            Box::<drcom::RtaResolver>::default(),
        )
    }];
    for boot in policies {
        let mut rt = boot();
        rt.install_component("demo.cya", cycle_member("cya", 0.6))
            .unwrap();
        rt.install_component("demo.cyb", cycle_member("cyb", 0.6))
            .unwrap();
        rt.advance(SimDuration::from_millis(20));
        assert_eq!(rt.component_state("cya"), Some(ComponentState::Unsatisfied));
        assert_eq!(rt.component_state("cyb"), Some(ComponentState::Unsatisfied));
        assert_eq!(rt.drcr().ledger().utilization(0), 0.0);
        assert_eq!(group_abandonments(&rt), 1);
    }
}

#[test]
fn cycle_that_fits_together_co_activates() {
    let mut rt = runtime();
    rt.install_component("demo.cya", cycle_member("cya", 0.4))
        .unwrap();
    rt.install_component("demo.cyb", cycle_member("cyb", 0.4))
        .unwrap();
    assert_eq!(rt.component_state("cya"), Some(ComponentState::Active));
    assert_eq!(rt.component_state("cyb"), Some(ComponentState::Active));
    assert!((rt.drcr().ledger().utilization(0) - 0.8).abs() < 1e-9);
    assert_eq!(group_abandonments(&rt), 0);
}

#[test]
fn rejected_waiters_are_never_ruled_as_a_group() {
    // `r1` and `r2` passed their wiring and were rejected by admission:
    // neither waits on the other, so no group is ever formed of them, and
    // each further arrival costs only the sweep's own rulings.
    let mut rt = runtime();
    rt.install_component("demo.big", periodic_on_cpu0("big", 0.7, &[], &[]))
        .unwrap();
    for name in ["r1", "r2"] {
        rt.install_component(
            &format!("demo.{name}"),
            periodic_on_cpu0(name, 0.4, &[], &[]),
        )
        .unwrap();
        assert_eq!(rt.component_state(name), Some(ComponentState::Unsatisfied));
    }
    for i in 0..5 {
        let name = format!("s{i}");
        rt.install_component(
            &format!("demo.{name}"),
            periodic_on_cpu0(&name, 0.01, &[], &[]),
        )
        .unwrap();
        assert_eq!(rt.component_state(&name), Some(ComponentState::Active));
    }
    assert_eq!(group_abandonments(&rt), 0);
    // One ruling each for `big`, `r1` and `r2`, and three per arrival: the
    // arrival, then `r1` and `r2` again, woken by the arrival's admission
    // on their CPU. An arrival wakes no one else.
    assert_eq!(rt.drcr().metrics().counter("drcr.admission.checks"), 18);
}

#[test]
fn a_cycle_that_does_not_fit_is_not_re_ruled_by_unrelated_arrivals() {
    // The 0.6 + 0.6 cycle is abandoned on CPU 0 once; arrivals on CPU 1
    // change nothing it waits on, so each costs only its own ruling and
    // the cycle is neither screened nor ruled again.
    let mut rt = two_cpu_runtime();
    rt.install_component("demo.cya", cycle_member_on(0, "cya", 0.6))
        .unwrap();
    rt.install_component("demo.cyb", cycle_member_on(0, "cyb", 0.6))
        .unwrap();
    for i in 0..3 {
        let name = format!("s{i}");
        rt.install_component(
            &format!("demo.{name}"),
            periodic_on(1, &name, 0.01, &[], &[]),
        )
        .unwrap();
        assert_eq!(rt.component_state(&name), Some(ComponentState::Active));
    }
    assert_eq!(rt.component_state("cya"), Some(ComponentState::Unsatisfied));
    assert_eq!(rt.component_state("cyb"), Some(ComponentState::Unsatisfied));
    let drcr = rt.drcr();
    assert_eq!(group_abandonments(&rt), 1);
    let diagnoses = drcr
        .events()
        .iter()
        .filter(|e| matches!(e.event, DrcrEvent::WiringUnsatisfied { .. }))
        .count();
    // `cya` with no provider, `cya` and `cyb` waiting on each other.
    assert_eq!(diagnoses, 3);
    // The group's two rulings, then one per arrival.
    assert_eq!(drcr.metrics().counter("drcr.admission.checks"), 5);
    assert!(matches!(
        drcr.report("cyb"),
        Some(drcom::WaitReport::GroupAbandoned { .. })
    ));
}

#[test]
fn a_cycle_across_cpus_co_activates_when_its_full_cpu_frees_room() {
    // `cya` fits CPU 0, `cyb` does not fit CPU 1 beside `hog`. When `hog`
    // leaves, the abandoned group is woken by CPU 1 and co-activates.
    let mut rt = two_cpu_runtime();
    let hog = rt
        .install_component("demo.hog", periodic_on(1, "hog", 0.9, &[], &[]))
        .unwrap();
    rt.install_component("demo.cya", cycle_member_on(0, "cya", 0.2))
        .unwrap();
    rt.install_component("demo.cyb", cycle_member_on(1, "cyb", 0.2))
        .unwrap();
    assert_eq!(rt.component_state("cya"), Some(ComponentState::Unsatisfied));
    assert_eq!(rt.component_state("cyb"), Some(ComponentState::Unsatisfied));
    assert_eq!(group_abandonments(&rt), 1);
    rt.stop_bundle(hog).unwrap();
    assert_eq!(rt.component_state("cya"), Some(ComponentState::Active));
    assert_eq!(rt.component_state("cyb"), Some(ComponentState::Active));
    assert!((rt.drcr().ledger().utilization(0) - 0.2).abs() < 1e-9);
    assert!((rt.drcr().ledger().utilization(1) - 0.2).abs() < 1e-9);
    assert_eq!(group_abandonments(&rt), 1);
}

#[test]
fn cycle_co_activates_beside_a_rejected_waiter() {
    let mut rt = runtime();
    rt.install_component("demo.big", periodic_on_cpu0("big", 0.7, &[], &[]))
        .unwrap();
    rt.install_component("demo.r1", periodic_on_cpu0("r1", 0.4, &[], &[]))
        .unwrap();
    assert_eq!(rt.component_state("r1"), Some(ComponentState::Unsatisfied));
    rt.install_component("demo.cya", cycle_member("cya", 0.1))
        .unwrap();
    rt.install_component("demo.cyb", cycle_member("cyb", 0.1))
        .unwrap();
    assert_eq!(rt.component_state("cya"), Some(ComponentState::Active));
    assert_eq!(rt.component_state("cyb"), Some(ComponentState::Active));
    assert_eq!(rt.component_state("r1"), Some(ComponentState::Unsatisfied));
    assert!((rt.drcr().ledger().utilization(0) - 0.9).abs() < 1e-9);
    assert_eq!(group_abandonments(&rt), 0);
}

#[test]
fn a_declined_wave_rechecks_the_consumer_of_a_rejected_provider() {
    // Under response-time admission `pa` and `pb` arrive in one wave, and
    // `pb`'s screen counts `pa` active. The wave does not fit beside `blk`,
    // so it is ruled member by member: `pa` is rejected, and `pb` must be
    // checked again rather than activated on its screen, which would leave
    // it active with no provider.
    let mut rt = DrtRuntime::with_resolver(
        KernelConfig::new(23).with_timer(TimerJitterModel::ideal()),
        Box::<drcom::RtaResolver>::default(),
    );
    rt.install_component("demo.blk", periodic_on_cpu0("blk", 0.7, &[], &[]))
        .unwrap();
    rt.install_components([
        ("demo.pa", periodic_on_cpu0("pa", 0.5, &[], &["pab"])),
        ("demo.pb", periodic_on_cpu0("pb", 0.1, &["pab"], &[])),
    ])
    .unwrap();
    let drcr = rt.drcr();
    assert_eq!(drcr.metrics().counter("drcr.admission.batches_declined"), 1);
    assert_eq!(drcr.state_of("pa"), Some(ComponentState::Unsatisfied));
    assert_eq!(drcr.state_of("pb"), Some(ComponentState::Unsatisfied));
    assert!(drcr.events().iter().any(|e| matches!(
        &e.event,
        DrcrEvent::WiringUnsatisfied { component, .. } if component == "pb"
    )));
}
