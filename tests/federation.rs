//! Federated DRCR: N kernel+shard nodes under a hub-synced global view.
//! Node failures must displace and re-admit (or quarantine, with typed
//! evidence) every affected component; partitioned minorities must keep
//! running under local admission and reconcile on heal; the whole thing
//! must replay byte-identically from its seed.

use drt::prelude::*;
use std::rc::Rc;

fn quiet() -> Box<dyn RtLogic> {
    Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
}

fn comp(name: &str, usage: f64) -> ComponentDescriptor {
    ComponentDescriptor::builder(name)
        .periodic(100, 0, 3)
        .cpu_usage(usage)
        .build()
        .unwrap()
}

#[test]
fn steady_state_federation_runs_all_shards_in_lockstep() {
    let config = FederationConfig::new(3, 1, 11);
    let mut fed = Federation::new(config, NodeFaultPlan::new(11));
    for node in 0..3u32 {
        for i in 0..3 {
            let name = format!("s{node}x{i}");
            assert!(fed.install(node, comp(&name, 0.1), quiet).unwrap());
            assert_eq!(fed.placement_of(&name), Some(node));
        }
    }
    fed.run_ticks(20);
    for node in 0..3 {
        assert!(fed.is_alive(node));
        assert!(!fed.is_degraded(node), "node {node} degraded spuriously");
        assert_eq!(fed.active_on(node), 3);
        let counters = fed.node_counters(node).unwrap();
        assert!(counters.dispatches > 0, "node {node} kernel never ran");
        assert_eq!(counters.deadline_misses, 0);
    }
    assert_eq!(fed.leaked_reservations(), 0);
    let report = fed.metrics_report();
    let sent = report
        .counters()
        .iter()
        .find(|(k, _)| k == "fed.heartbeats.sent")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(sent >= 3 * 20, "heartbeats undercounted: {sent}");
}

#[test]
fn node_crash_displaces_and_readmits_every_component() {
    let config = FederationConfig::new(4, 1, 42);
    let mut plan = NodeFaultPlan::new(42);
    plan = plan.at(10, NodeFaultKind::Crash { node: 2 });
    let mut fed = Federation::new(config, plan);
    let mut on_victim = Vec::new();
    for node in 0..4u32 {
        for i in 0..4 {
            let name = format!("n{node}c{i}");
            assert!(fed.install(node, comp(&name, 0.08), quiet).unwrap());
            if node == 2 {
                on_victim.push(name);
            }
        }
    }
    fed.run_ticks(40);

    assert!(!fed.is_alive(2));
    let acct = fed.accounting();
    assert_eq!(acct.displaced, 4, "all of node 2's roster displaced");
    assert_eq!(acct.admitted, 4, "every displaced component re-admitted");
    assert_eq!(acct.quarantined, 0);
    assert_eq!(acct.pending, 0);
    for name in &on_victim {
        let home = fed
            .placement_of(name)
            .unwrap_or_else(|| panic!("`{name}` lost its placement"));
        assert_ne!(home, 2);
        assert_eq!(
            fed.component_state_on(home, name),
            Some(ComponentState::Active),
            "`{name}` not active on its failover node {home}"
        );
    }
    // Robustness invariants on the survivors.
    assert_eq!(fed.leaked_reservations(), 0);
    assert_eq!(fed.deadline_misses_on_survivors(), 0);
    // The decision trail is typed: planned and admitted migrations exist.
    let planned = fed
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, FedEvent::MigrationPlanned { .. }))
        .count();
    let admitted = fed
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, FedEvent::MigrationAdmitted { .. }))
        .count();
    assert!(
        planned >= 4,
        "expected >=4 planned migrations, got {planned}"
    );
    assert_eq!(admitted, 4);
}

#[test]
fn unplaceable_failover_backs_off_then_quarantines_with_evidence() {
    // Two 1-CPU nodes. The survivor is already 70% reserved, so the
    // victim's 80% component can never fit: the failover supervisor must
    // grant backoff retries and then quarantine with a typed reason.
    let config = FederationConfig::new(2, 1, 7);
    let mut plan = NodeFaultPlan::new(7);
    plan = plan.at(8, NodeFaultKind::Crash { node: 1 });
    let mut fed = Federation::new(config, plan);
    assert!(fed.install(0, comp("busy", 0.7), quiet).unwrap());
    assert!(fed.install(1, comp("fat", 0.8), quiet).unwrap());
    fed.run_ticks(80);

    let acct = fed.accounting();
    assert_eq!(acct.displaced, 1);
    assert_eq!(acct.admitted, 0);
    assert_eq!(acct.quarantined, 1, "fat component must end quarantined");
    assert_eq!(acct.pending, 0);
    let evidence = fed.quarantine_evidence();
    assert!(
        evidence.contains_key("fat"),
        "quarantine evidence missing: {evidence:?}"
    );
    // The backoff schedule ran before quarantine.
    let retries = fed
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, FedEvent::FailoverRetryScheduled { .. }))
        .count();
    assert!(retries >= 1, "expected failover retries before quarantine");
    assert!(fed
        .events()
        .iter()
        .any(|(_, e)| matches!(e, FedEvent::FailoverQuarantined { .. })));
    // The survivor was never destabilised.
    assert_eq!(
        fed.component_state_on(0, "busy"),
        Some(ComponentState::Active)
    );
    assert_eq!(fed.deadline_misses_on_survivors(), 0);
    assert_eq!(fed.leaked_reservations(), 0);
}

#[test]
fn partitioned_minority_degrades_to_local_admission_and_reconciles_on_heal() {
    let config = FederationConfig::new(3, 1, 99);
    let mut plan = NodeFaultPlan::new(99);
    plan = plan.at(5, NodeFaultKind::Partition { isolated: vec![2] });
    plan = plan.at(40, NodeFaultKind::Heal);
    let mut fed = Federation::new(config, plan);
    for node in 0..3u32 {
        let name = format!("base{node}");
        assert!(fed.install(node, comp(&name, 0.1), quiet).unwrap());
    }
    // Run into the partition until the minority notices it lost the hub.
    fed.run_ticks(20);
    assert!(fed.is_degraded(2), "minority node must degrade, not halt");
    assert!(fed.is_alive(2));
    // Its fleet keeps running on local admission: a new arrival is
    // admitted by the local resolver, not the (unreachable) hub.
    assert!(fed.install(2, comp("locl", 0.1), quiet).unwrap());
    assert_eq!(
        fed.component_state_on(2, "locl"),
        Some(ComponentState::Active)
    );
    assert!(fed
        .events()
        .iter()
        .any(|(_, e)| matches!(e, FedEvent::LocalAdmission { node: 2, .. })));
    // The hub, meanwhile, declared node 2 failed and re-placed base2.
    fed.run_ticks(20); // heals at tick 40
    fed.run_ticks(20); // post-heal reconciliation
    assert!(!fed.is_degraded(2), "healed node must rejoin");
    assert!(fed
        .events()
        .iter()
        .any(|(_, e)| matches!(e, FedEvent::NodeRejoined { node: 2 })));
    // The locally-admitted arrival was adopted into the global view.
    assert_eq!(fed.placement_of("locl"), Some(2));
    // base2 has exactly one live copy, wherever the hub placed it.
    let home = fed.placement_of("base2").expect("base2 lost");
    assert_eq!(
        fed.component_state_on(home, "base2"),
        Some(ComponentState::Active)
    );
    if home != 2 {
        // The hub won: the stale copy on the rejoined minority retired.
        assert!(fed
            .events()
            .iter()
            .any(|(_, e)| matches!(e, FedEvent::ReconcileRetired { node: 2, .. })));
        assert_eq!(fed.component_state_on(2, "base2"), None);
    }
    assert_eq!(fed.leaked_reservations(), 0);
    assert_eq!(fed.deadline_misses_on_survivors(), 0);
}

#[test]
fn lossy_links_still_deliver_placements_at_least_once() {
    let config = FederationConfig::new(3, 1, 5);
    let mut plan = NodeFaultPlan::new(5).with_link_rates(LinkRates {
        drop: 0.25,
        delay: 0.3,
        delay_ticks: (1, 2),
    });
    plan = plan.at(12, NodeFaultKind::Crash { node: 1 });
    let mut fed = Federation::new(config, plan);
    for node in 0..3u32 {
        for i in 0..2 {
            let name = format!("l{node}x{i}");
            assert!(fed.install(node, comp(&name, 0.05), quiet).unwrap());
        }
    }
    fed.run_ticks(120);

    // Despite a 25% drop rate, the reliable placement protocol converged:
    // nothing stays in flight forever and nothing leaks.
    let acct = fed.accounting();
    assert_eq!(acct.pending, 0, "placements stuck in flight: {acct:?}");
    assert_eq!(acct.displaced, acct.admitted + acct.quarantined);
    assert!(acct.admitted >= 1, "lossy run admitted nothing: {acct:?}");
    assert_eq!(fed.leaked_reservations(), 0);
    let report = fed.metrics_report();
    let counter = |key: &str| {
        report
            .counters()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(counter("fed.messages.dropped") > 0, "drop rate never bit");
    assert!(
        counter("fed.messages.retried") > 0,
        "at-least-once layer never retransmitted"
    );
    assert!(counter("fed.messages.delivered") > 0);
}

#[test]
fn federation_runs_replay_byte_identically() {
    let run = || {
        let config = FederationConfig::new(4, 2, 1234);
        let mut plan = NodeFaultPlan::new(1234).with_link_rates(LinkRates {
            drop: 0.15,
            delay: 0.2,
            delay_ticks: (1, 3),
        });
        plan = plan.at(9, NodeFaultKind::Crash { node: 3 });
        plan = plan.at(15, NodeFaultKind::Partition { isolated: vec![0] });
        plan = plan.at(45, NodeFaultKind::Heal);
        let mut fed = Federation::new(config, plan);
        for node in 0..4u32 {
            let wave: Vec<_> = (0..3)
                .map(|i| {
                    let name = format!("r{node}x{i}");
                    (
                        comp(&name, 0.06),
                        Rc::new(quiet) as Rc<dyn Fn() -> Box<dyn RtLogic>>,
                    )
                })
                .collect();
            fed.install_wave(node, wave).unwrap();
        }
        fed.run_ticks(90);
        let counters: Vec<_> = (0..4).map(|n| fed.node_counters(n).unwrap()).collect();
        (
            fed.render_events(),
            fed.metrics_report().to_text(),
            counters,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "event logs diverged between identical runs");
    assert_eq!(a.1, b.1, "metrics diverged between identical runs");
    assert_eq!(a.2, b.2, "kernel counters diverged between identical runs");
}

fn counter(fed: &Federation, key: &str) -> u64 {
    fed.metrics_report()
        .counters()
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn placement_removal_between_identical_heartbeats_forces_a_reconcile() {
    // Node 2 is partitioned away and its component re-placed on node 1
    // (node 0 is busier); after the heal, node 1 is killed. The removal
    // of node 1's placements lands between two heartbeats whose rosters
    // are the same shared snapshot, so the hub must reconcile them again.
    let config = FederationConfig::new(3, 1, 21);
    let plan = NodeFaultPlan::new(21)
        .at(5, NodeFaultKind::Partition { isolated: vec![2] })
        .at(30, NodeFaultKind::Heal)
        .at(50, NodeFaultKind::Crash { node: 1 });
    let mut fed = Federation::new(config, plan);
    assert!(fed.install(0, comp("heavy", 0.5), quiet).unwrap());
    for node in 0..3u32 {
        assert!(fed
            .install(node, comp(&format!("base{node}"), 0.1), quiet)
            .unwrap());
    }
    fed.run_ticks(40);
    assert_eq!(fed.placement_of("base2"), Some(1), "node 1 took over base2");
    assert_eq!(
        fed.component_state_on(2, "base2"),
        None,
        "stale copy retired"
    );

    // Quiet ticks: every roster is the one already reconciled.
    let before = counter(&fed, "fed.hub.roster_reconciles");
    fed.run_ticks(10);
    assert_eq!(counter(&fed, "fed.hub.roster_reconciles"), before);

    // Step to the tick whose failure detection removes node 1's
    // placements, then deliver the next (unchanged) heartbeats.
    let failed = |fed: &Federation| {
        fed.events()
            .iter()
            .any(|(_, e)| matches!(e, FedEvent::NodeFailed { node: 1, .. }))
    };
    while !failed(&fed) {
        assert!(fed.current_tick() < 70, "node 1 never failed");
        fed.step();
    }
    let at_removal = counter(&fed, "fed.hub.roster_reconciles");
    fed.step();
    assert_eq!(
        counter(&fed, "fed.hub.roster_reconciles") - at_removal,
        2,
        "both survivors' unchanged rosters reconcile after the removal"
    );

    fed.run_ticks(40);
    let acct = fed.accounting();
    let lost = acct.displaced - acct.admitted - acct.quarantined - acct.pending;
    assert_eq!((lost, acct.pending), (0, 0), "{acct:?}");
    assert!(acct.displaced >= 2, "{acct:?}");
    for name in ["base1", "base2"] {
        let home = fed.placement_of(name).expect("placed");
        assert_ne!(home, 1);
        assert_eq!(
            fed.component_state_on(home, name),
            Some(ComponentState::Active)
        );
    }
    assert_eq!(fed.leaked_reservations(), 0);
}
