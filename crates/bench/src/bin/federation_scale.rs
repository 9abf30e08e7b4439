//! Federation-scale benchmark: a 100+-node federated DRCR carrying 10k+
//! components through node kills, a network partition, and lossy bridge
//! links — asserting that robustness holds at scale.
//!
//! Topology: `nodes` simulated nodes, each its own kernel + DRCR shard in
//! hub-synced lockstep. Every node hosts `comps_per_node` periodic
//! components; the last `kill` nodes additionally trade one normal
//! component for a *fat* one (CPU claim ~0.95) that fits at home but can
//! never be re-admitted anywhere else. Mid-run the fault plan kills those
//! `kill` nodes, then partitions a minority of survivors away from the
//! hub, then heals. All bridge traffic runs over seeded lossy links, so
//! the at-least-once retry layer is exercised throughout.
//!
//! Checked invariants (the ISSUE-9 acceptance bar):
//! * every displaced component is re-admitted on a surviving node or
//!   quarantined with typed evidence — nothing stays in flight;
//! * zero leaked reservations on any live shard;
//! * zero deadline misses on surviving nodes;
//! * the partitioned minority degrades to local-only admission (a probe
//!   component is admitted locally mid-partition) and reconciles on heal;
//! * the whole run replays byte-identically from its seed;
//! * on quiet ticks (rosters landed, no kill yet) the hub reconciles at
//!   most [`MAX_QUIET_RECONCILES_PER_TICK`] rosters per tick, whatever
//!   the node count: unchanged heartbeats skip the adoption loop.
//!
//! Usage:
//!   cargo run --release -p bench --bin federation_scale            # full, writes BENCH_federation.json
//!   cargo run --release -p bench --bin federation_scale -- --smoke # small run, stdout only
//!   cargo run --release -p bench --bin federation_scale -- --check # assert invariants + determinism
//!
//! `--smoke --check` is the CI configuration.

use drcom::descriptor::ComponentDescriptor;
use drcom::faults::{LinkRates, NodeFaultKind, NodeFaultPlan};
use drcom::federation::{FailoverAccounting, Federation, FederationConfig, LogicFactory};
use drcom::hybrid::{FnLogic, RtIo, RtLogic};
use drcom::obs::{FedEvent, MetricsReport};
use std::rc::Rc;

/// First tick of the quiet window: every node's first heartbeat has
/// landed (links delay by at most one extra tick).
const QUIET_FROM: u64 = 5;

/// Roster reconciles allowed per quiet tick. Without the hub's skip it
/// would be one per live node.
const MAX_QUIET_RECONCILES_PER_TICK: f64 = 1.0;

struct Params {
    nodes: u32,
    cpus_per_node: u32,
    comps_per_node: usize,
    usage: f64,
    kill: u32,
    isolate: u32,
    kill_tick: u64,
    partition_tick: u64,
    heal_tick: u64,
    probe_tick: u64,
    horizon_ticks: u64,
    seed: u64,
}

impl Params {
    fn full() -> Self {
        Params {
            nodes: 120,
            cpus_per_node: 2,
            comps_per_node: 84,
            usage: 0.011,
            kill: 10,
            isolate: 3,
            kill_tick: 15,
            partition_tick: 30,
            heal_tick: 45,
            probe_tick: 40,
            horizon_ticks: 80,
            seed: 0xFED5,
        }
    }

    fn smoke() -> Self {
        Params {
            nodes: 12,
            cpus_per_node: 2,
            comps_per_node: 8,
            usage: 0.05,
            kill: 2,
            isolate: 1,
            kill_tick: 15,
            partition_tick: 30,
            heal_tick: 45,
            probe_tick: 40,
            horizon_ticks: 80,
            seed: 0xFED5,
        }
    }

    fn components(&self) -> usize {
        self.nodes as usize * self.comps_per_node
    }

    fn killed(&self) -> Vec<u32> {
        (self.nodes - self.kill..self.nodes).collect()
    }

    fn isolated(&self) -> Vec<u32> {
        (0..self.isolate).collect()
    }
}

fn quiet() -> Box<dyn RtLogic> {
    Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
}

fn descriptor(name: &str, usage: f64, cpu: u32, prio: u8) -> ComponentDescriptor {
    ComponentDescriptor::builder(name)
        .periodic(100, cpu, prio)
        .cpu_usage(usage)
        .build()
        .expect("descriptor")
}

struct RunStats {
    accounting: FailoverAccounting,
    fat_quarantined: usize,
    minority_degraded: bool,
    probe_adopted: bool,
    local_admissions_seen: bool,
    rejoined: bool,
    leaked_reservations: u64,
    survivor_deadline_misses: u64,
    total_dispatches: u64,
    quiet_reconciles_per_tick: f64,
    events: String,
    report: MetricsReport,
}

fn counter(report: &MetricsReport, name: &str) -> u64 {
    report
        .counters()
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| *v)
}

fn run(params: &Params) -> RunStats {
    let config = FederationConfig::new(params.nodes, params.cpus_per_node, params.seed);
    let mut plan = NodeFaultPlan::new(params.seed).with_link_rates(LinkRates {
        drop: 0.05,
        delay: 0.1,
        delay_ticks: (1, 2),
    });
    for node in params.killed() {
        plan = plan.at(params.kill_tick, NodeFaultKind::Crash { node });
    }
    plan = plan.at(
        params.partition_tick,
        NodeFaultKind::Partition {
            isolated: params.isolated(),
        },
    );
    plan = plan.at(params.heal_tick, NodeFaultKind::Heal);
    let mut fed = Federation::new(config, plan);

    // Deploy the fleet: `comps_per_node` components per node, one wave
    // per node so each node admits its shard in a single batched pass.
    // Doomed (to-be-killed) nodes host a fat component alone on CPU 0 —
    // admitted at home, unplaceable anywhere else.
    let killed = params.killed();
    let mut index = 0usize;
    for node in 0..params.nodes {
        let doomed = killed.contains(&node);
        let mut wave: Vec<(ComponentDescriptor, LogicFactory)> = Vec::new();
        let normals = if doomed {
            params.comps_per_node - 1
        } else {
            params.comps_per_node
        };
        for i in 0..normals {
            let cpu = if doomed {
                // Keep the doomed node's CPU 0 clear for the fat tenant.
                1 % params.cpus_per_node
            } else {
                i as u32 % params.cpus_per_node
            };
            wave.push((
                descriptor(&format!("c{index:05}"), params.usage, cpu, 3),
                Rc::new(quiet),
            ));
            index += 1;
        }
        if doomed {
            wave.push((
                descriptor(&format!("f{node:04}"), 0.95, 0, 5),
                Rc::new(quiet),
            ));
        }
        let admitted = fed.install_wave(node, wave).expect("install wave");
        assert_eq!(
            admitted, params.comps_per_node,
            "node {node} admitted only {admitted}/{} at deploy",
            params.comps_per_node
        );
    }

    // Quiet window: from the first landed rosters up to the first kill.
    fed.run_ticks(QUIET_FROM);
    let reconciles = |fed: &Federation| counter(&fed.metrics_report(), "fed.hub.roster_reconciles");
    let quiet_start = reconciles(&fed);
    fed.run_ticks(params.kill_tick - QUIET_FROM);
    let quiet_reconciles_per_tick =
        (reconciles(&fed) - quiet_start) as f64 / (params.kill_tick - QUIET_FROM) as f64;

    // Run into the partition until the minority has noticed it lost the
    // hub, then probe local-only admission with a fresh component.
    fed.run_ticks(params.probe_tick - params.kill_tick);
    let isolated = params.isolated();
    let minority_degraded = isolated.iter().all(|&n| fed.is_degraded(n));
    let probe_node = isolated[0];
    let probe_admitted = fed
        .install(probe_node, descriptor("probe", params.usage, 0, 3), quiet)
        .expect("probe install");
    fed.run_ticks(params.horizon_ticks - params.probe_tick);

    let accounting = fed.accounting();
    let evidence = fed.quarantine_evidence();
    let fat_quarantined = killed
        .iter()
        .filter(|node| {
            evidence
                .get(&format!("f{node:04}"))
                .is_some_and(|reason| !reason.is_empty())
        })
        .count();
    let probe_adopted = probe_admitted && fed.placement_of("probe") == Some(probe_node);
    let local_admissions_seen = fed.events().iter().any(|(_, e)| {
        matches!(e, FedEvent::LocalAdmission { component, admitted: true, .. } if component == "probe")
    });
    let rejoined = isolated.iter().all(|&n| {
        !fed.is_degraded(n)
            && fed
                .events()
                .iter()
                .any(|(_, e)| matches!(e, FedEvent::NodeRejoined { node } if *node == n))
    });
    let total_dispatches: u64 = (0..params.nodes)
        .filter_map(|n| fed.node_counters(n))
        .map(|c| c.dispatches)
        .sum();
    RunStats {
        accounting,
        fat_quarantined,
        minority_degraded,
        probe_adopted,
        local_admissions_seen,
        rejoined,
        leaked_reservations: fed.leaked_reservations(),
        survivor_deadline_misses: fed.deadline_misses_on_survivors(),
        total_dispatches,
        quiet_reconciles_per_tick,
        events: fed.render_events(),
        report: fed.metrics_report(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let params = if smoke {
        Params::smoke()
    } else {
        Params::full()
    };

    println!(
        "federation_scale: {} nodes x {} components = {} total, kill {} @ tick {}, partition {:?} @ {}..{}, mode={}",
        params.nodes,
        params.comps_per_node,
        params.components(),
        params.kill,
        params.kill_tick,
        params.isolated(),
        params.partition_tick,
        params.heal_tick,
        if smoke { "smoke" } else { "full" },
    );

    let stats = run(&params);
    let acct = stats.accounting;

    println!();
    println!(
        "  displaced: {} ({} re-admitted, {} quarantined, {} pending)",
        acct.displaced, acct.admitted, acct.quarantined, acct.pending,
    );
    println!(
        "  failover: {} planned, {} admitted, {} rejected, {} retries, {} quarantines ({} fat with evidence)",
        counter(&stats.report, "fed.migrations.planned"),
        counter(&stats.report, "fed.migrations.admitted"),
        counter(&stats.report, "fed.migrations.rejected"),
        counter(&stats.report, "fed.failover.retries"),
        counter(&stats.report, "fed.failover.quarantines"),
        stats.fat_quarantined,
    );
    println!(
        "  bridge: {} delivered, {} dropped, {} retried, {} expired, {} duplicate",
        counter(&stats.report, "fed.messages.delivered"),
        counter(&stats.report, "fed.messages.dropped"),
        counter(&stats.report, "fed.messages.retried"),
        counter(&stats.report, "fed.messages.expired"),
        counter(&stats.report, "fed.messages.duplicates"),
    );
    println!(
        "  detector: {} suspected, {} failed, {} degraded, {} rejoined; minority degraded: {}, probe adopted: {}, rejoined: {}",
        counter(&stats.report, "fed.nodes.suspected"),
        counter(&stats.report, "fed.nodes.failed"),
        counter(&stats.report, "fed.nodes.degraded"),
        counter(&stats.report, "fed.nodes.rejoined"),
        stats.minority_degraded,
        stats.probe_adopted,
        stats.rejoined,
    );
    println!(
        "  hub: {} roster reconciles, {:.2} per quiet tick",
        counter(&stats.report, "fed.hub.roster_reconciles"),
        stats.quiet_reconciles_per_tick,
    );
    println!(
        "  hygiene: {} leaked reservations, {} deadline misses on survivors",
        stats.leaked_reservations, stats.survivor_deadline_misses,
    );

    if check {
        assert!(
            acct.displaced >= (params.kill as usize) * (params.comps_per_node - 1),
            "only {} components displaced by {} node kills",
            acct.displaced,
            params.kill
        );
        assert_eq!(acct.pending, 0, "placements still in flight at horizon");
        assert_eq!(
            acct.admitted + acct.quarantined,
            acct.displaced,
            "displaced components unaccounted for: {acct:?}"
        );
        assert_eq!(
            stats.fat_quarantined, params.kill as usize,
            "every fat component must end quarantined with typed evidence"
        );
        assert_eq!(
            stats.leaked_reservations, 0,
            "{} leaked reservations",
            stats.leaked_reservations
        );
        assert_eq!(
            stats.survivor_deadline_misses, 0,
            "{} deadline misses on surviving nodes",
            stats.survivor_deadline_misses
        );
        assert!(
            stats.minority_degraded,
            "partitioned minority never degraded to local admission"
        );
        assert!(
            stats.local_admissions_seen && stats.probe_adopted,
            "local-only admission or heal reconciliation failed \
             (local admission: {}, adopted: {})",
            stats.local_admissions_seen,
            stats.probe_adopted
        );
        assert!(stats.rejoined, "partitioned minority never rejoined");
        assert!(
            stats.quiet_reconciles_per_tick <= MAX_QUIET_RECONCILES_PER_TICK,
            "{:.2} roster reconciles per quiet tick over {} nodes (ceiling {})",
            stats.quiet_reconciles_per_tick,
            params.nodes,
            MAX_QUIET_RECONCILES_PER_TICK
        );
        // Same seed, same federation, same story — byte for byte.
        let again = run(&params);
        assert_eq!(
            stats.events.as_bytes(),
            again.events.as_bytes(),
            "federation run is not deterministic"
        );
        assert_eq!(
            stats.total_dispatches, again.total_dispatches,
            "kernel dispatch totals diverged between identical runs"
        );
        println!("  check: PASS");
    }

    if !smoke {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"federation_scale\",\n",
                "  \"nodes\": {},\n",
                "  \"cpus_per_node\": {},\n",
                "  \"components\": {},\n",
                "  \"killed\": {},\n",
                "  \"isolated\": {},\n",
                "  \"horizon_ticks\": {},\n",
                "  \"seed\": {},\n",
                "  \"displaced\": {},\n",
                "  \"readmitted\": {},\n",
                "  \"quarantined\": {},\n",
                "  \"pending\": {},\n",
                "  \"fat_quarantined\": {},\n",
                "  \"migrations\": {{\"planned\": {}, \"admitted\": {}, ",
                "\"rejected\": {}, \"retries\": {}}},\n",
                "  \"bridge\": {{\"delivered\": {}, \"dropped\": {}, ",
                "\"retried\": {}, \"expired\": {}, \"duplicates\": {}}},\n",
                "  \"minority_degraded\": {},\n",
                "  \"probe_adopted\": {},\n",
                "  \"rejoined\": {},\n",
                "  \"roster_reconciles\": {{\"total\": {}, \"per_quiet_tick\": {}}},\n",
                "  \"leaked_reservations\": {},\n",
                "  \"survivor_deadline_misses\": {}\n",
                "}}\n"
            ),
            params.nodes,
            params.cpus_per_node,
            params.components(),
            params.kill,
            params.isolate,
            params.horizon_ticks,
            params.seed,
            acct.displaced,
            acct.admitted,
            acct.quarantined,
            acct.pending,
            stats.fat_quarantined,
            counter(&stats.report, "fed.migrations.planned"),
            counter(&stats.report, "fed.migrations.admitted"),
            counter(&stats.report, "fed.migrations.rejected"),
            counter(&stats.report, "fed.failover.retries"),
            counter(&stats.report, "fed.messages.delivered"),
            counter(&stats.report, "fed.messages.dropped"),
            counter(&stats.report, "fed.messages.retried"),
            counter(&stats.report, "fed.messages.expired"),
            counter(&stats.report, "fed.messages.duplicates"),
            stats.minority_degraded,
            stats.probe_adopted,
            stats.rejoined,
            counter(&stats.report, "fed.hub.roster_reconciles"),
            stats.quiet_reconciles_per_tick,
            stats.leaked_reservations,
            stats.survivor_deadline_misses,
        );
        std::fs::write("BENCH_federation.json", &json).expect("write BENCH_federation.json");
        println!("  wrote BENCH_federation.json");
    }
}
