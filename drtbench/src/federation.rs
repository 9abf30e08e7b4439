//! `federation_failover`: the only workload for the federation layer.
//!
//! A federation of 64 nodes with 64 components each runs over lossy links
//! (2% drop, 5% delay). From tick 20 one node is killed every 10 ticks
//! until a tenth of the nodes are dead, and later two nodes are
//! partitioned away and healed. One op is one federation tick; an episode
//! is 250 ticks, long enough for every failover and the heal to settle,
//! and the run repeats the episode (rebuilt untimed) until its time is up.
//! Short episodes keep each one inside a single spell of host speed, which
//! the harness's fastest-windows statistic needs. Quiet ticks cost
//! heartbeats and bridge resends; failover ticks re-admit displaced
//! components on the survivors.

use crate::harness::{ratio, shuffle, Plan, Report, Traced, Workload};
use crate::stats::Digest;
use crate::trace::Tracer;
use drcom::descriptor::ComponentDescriptor;
use drcom::faults::{LinkRates, NodeFaultKind, NodeFaultPlan};
use drcom::federation::{Federation, FederationConfig, LogicFactory};
use drcom::hybrid::{FnLogic, RtIo, RtLogic};
use drcom::obs::FedEvent;
use rtos::rng::SimRng;
use rtos::time::SimDuration;
use std::collections::BTreeMap;
use std::rc::Rc;

const CPUS_PER_NODE: u32 = 2;
const RATES_HZ: [u32; 3] = [20, 50, 100];
const FED_COUNTERS: [(&str, &str); 4] = [
    ("fed.messages.delivered", "federation.delivered"),
    ("fed.messages.dropped", "federation.dropped"),
    ("fed.messages.retried", "federation.retried"),
    ("fed.messages.duplicates", "federation.duplicates"),
];

pub struct Inputs {
    plan: Plan,
    config: FederationConfig,
    horizon: u64,
    plan_faults: NodeFaultPlan,
    /// Per node: `(descriptor XML, simulated work per cycle)`.
    waves: Vec<Vec<(String, SimDuration)>>,
}

fn factory(work: SimDuration) -> LogicFactory {
    Rc::new(move || -> Box<dyn RtLogic> {
        Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| io.compute(work)))
    })
}

/// End-of-episode outcome, summed over episodes.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    displaced: u64,
    readmitted: u64,
    quarantined: u64,
    pending: u64,
    lost: u64,
    leaked: u64,
    survivor_misses: u64,
    survivor_dispatches: u64,
}

pub struct Fed {
    fed: Federation,
    inputs: Rc<Inputs>,
    events_seen: usize,
    tally: Tally,
    /// Counters of finished episodes, so totals survive the rebuild.
    carried: BTreeMap<&'static str, f64>,
    episode_digest: Option<u64>,
}

fn build_federation(inputs: &Inputs, tr: &mut Tracer) -> Result<Federation, String> {
    let mut fed = Federation::new(inputs.config.clone(), inputs.plan_faults.clone());
    for (node, wave) in inputs.waves.iter().enumerate() {
        let mut descriptors = Vec::with_capacity(wave.len());
        for (xml, work) in wave {
            let d = tr
                .span("descriptor.parse", || ComponentDescriptor::parse_xml(xml))
                .map_err(|e| format!("descriptor: {e}"))?;
            descriptors.push((d, factory(*work)));
        }
        let want = descriptors.len();
        let admitted = tr
            .span("federation.install_wave", || {
                fed.install_wave(node as u32, descriptors)
            })
            .map_err(|e| format!("node {node}: {e}"))?;
        if admitted != want {
            return Err(format!("node {node} admitted {admitted} of {want}"));
        }
    }
    Ok(fed)
}

impl Fed {
    fn is_failover(e: &FedEvent) -> bool {
        matches!(
            e,
            FedEvent::MigrationPlanned { .. }
                | FedEvent::MigrationAdmitted { .. }
                | FedEvent::MigrationRejected { .. }
                | FedEvent::FailoverRetryScheduled { .. }
                | FedEvent::FailoverQuarantined { .. }
        )
    }

    fn live_counters(&self) -> BTreeMap<&'static str, f64> {
        let report = self.fed.metrics_report();
        let mut out: BTreeMap<&'static str, f64> = FED_COUNTERS
            .iter()
            .map(|(key, name)| {
                let v = report
                    .counters()
                    .iter()
                    .find(|(k, _)| k == key)
                    .map_or(0, |(_, v)| *v);
                (*name, v as f64)
            })
            .collect();
        let dispatches: u64 = (0..self.inputs.config.nodes)
            .filter_map(|n| self.fed.node_counters(n))
            .map(|c| c.dispatches)
            .sum();
        out.insert("kernel.dispatches", dispatches as f64);
        let a = self.fed.accounting();
        out.insert("federation.displaced", a.displaced as f64);
        out.insert("federation.readmitted", a.admitted as f64);
        out
    }

    /// Checks and records a finished episode, then starts the next one.
    fn end_episode(&mut self) -> Result<(), String> {
        let a = self.fed.accounting();
        let leaked = self.fed.leaked_reservations();
        let lost = a
            .displaced
            .saturating_sub(a.admitted + a.quarantined + a.pending);
        let mut survivor_dispatches = 0;
        for n in (0..self.inputs.config.nodes).filter(|&n| self.fed.is_alive(n)) {
            survivor_dispatches += self.fed.node_counters(n).map_or(0, |c| c.dispatches);
        }
        let t = &mut self.tally;
        t.displaced += a.displaced as u64;
        t.readmitted += a.admitted as u64;
        t.quarantined += a.quarantined as u64;
        t.pending += a.pending as u64;
        t.lost += lost as u64;
        t.leaked += leaked;
        t.survivor_misses += self.fed.deadline_misses_on_survivors();
        t.survivor_dispatches += survivor_dispatches;

        if self.episode_digest.is_none() {
            let mut d = Digest::default();
            d.str(&self.fed.render_events());
            for v in [a.displaced, a.admitted, a.quarantined, a.pending] {
                d.u64(v as u64);
            }
            for n in 0..self.inputs.config.nodes {
                d.u64(self.fed.active_on(n) as u64);
                if let Some(c) = self.fed.node_counters(n) {
                    for v in [
                        c.dispatches,
                        c.preemptions,
                        c.timeslices,
                        c.overruns,
                        c.faults,
                        c.deadline_misses,
                    ] {
                        d.u64(v);
                    }
                }
            }
            self.episode_digest = Some(d.finish());
        }
        for (k, v) in self.live_counters() {
            *self.carried.entry(k).or_default() += v;
        }

        let ok =
            a.pending == 0 && lost == 0 && leaked == 0 && a.displaced == a.admitted + a.quarantined;
        let result = if ok {
            Ok(())
        } else {
            Err(format!(
                "episode ended with {a:?}, {lost} lost, {leaked} leaked reservations"
            ))
        };
        self.fed = build_federation(&self.inputs, &mut Tracer::new(false))?;
        self.events_seen = 0;
        result
    }
}

impl Workload for Fed {
    const NAME: &'static str = "federation_failover";
    type Inputs = Rc<Inputs>;

    fn inputs(seed: u64, smoke: bool) -> Rc<Inputs> {
        let (nodes, per_node, horizon, partition, episodes) = if smoke {
            (8, 8, 100, (50, 60), 2)
        } else {
            (64, 64, 250, (150, 180), 16)
        };
        let mut rng = SimRng::from_seed(seed);
        let mut order: Vec<u32> = (0..nodes).collect();
        shuffle(&mut order, &mut rng);
        let killed = (nodes as usize).div_ceil(10);
        let mut plan_faults = NodeFaultPlan::new(seed).with_link_rates(LinkRates {
            drop: 0.02,
            delay: 0.05,
            delay_ticks: (1, 3),
        });
        for (k, &node) in order[..killed].iter().enumerate() {
            plan_faults = plan_faults.at(20 + 10 * k as u64, NodeFaultKind::Crash { node });
        }
        let isolated = order[killed..killed + 2.min(nodes as usize - killed)].to_vec();
        plan_faults = plan_faults
            .at(partition.0, NodeFaultKind::Partition { isolated })
            .at(partition.1, NodeFaultKind::Heal);
        let waves = (0..nodes)
            .map(|node| {
                (0..per_node)
                    .map(|i| {
                        let hz = RATES_HZ[rng.uniform_u64(0, RATES_HZ.len() as u64) as usize];
                        let claim = 0.008 * rng.uniform_range(0.8, 1.2);
                        let xml = ComponentDescriptor::builder(&format!("n{node:02}{i:02}"))
                            .description("federated component")
                            .implementation("drtbench.federated")
                            .periodic(hz, i % CPUS_PER_NODE, 3)
                            .cpu_usage(claim)
                            .build()
                            .expect("generated descriptor is valid")
                            .to_xml();
                        let work =
                            SimDuration::from_nanos((0.8 * claim * 1e9 / f64::from(hz)) as u64);
                        (xml, work)
                    })
                    .collect()
            })
            .collect();
        Rc::new(Inputs {
            config: FederationConfig::new(nodes, CPUS_PER_NODE, seed),
            plan: Plan {
                window_ops: horizon,
                min_ops: episodes * horizon,
                digest_at: horizon,
            },
            horizon,
            plan_faults,
            waves,
        })
    }

    fn build(inputs: &Rc<Inputs>, tr: &mut Tracer) -> Result<Self, String> {
        Ok(Fed {
            fed: build_federation(inputs, tr)?,
            inputs: inputs.clone(),
            events_seen: 0,
            tally: Tally::default(),
            carried: BTreeMap::new(),
            episode_digest: None,
        })
    }

    fn plan(&self) -> Plan {
        self.inputs.plan
    }

    fn op(&mut self, tr: &mut Tracer) -> Result<(), String> {
        tr.begin("federation.step");
        self.fed.step();
        // Traced ticks are split by whether they emitted migration events.
        let mut name = "federation.step";
        if tr.is_on() {
            let events = self.fed.events();
            let failover = events[self.events_seen..]
                .iter()
                .any(|(_, e)| Self::is_failover(e));
            self.events_seen = events.len();
            name = if failover {
                "federation.failover_tick"
            } else {
                "federation.quiet_tick"
            };
        }
        tr.end_as(name);
        Ok(())
    }

    fn after_op(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        if self.fed.current_tick() == self.inputs.horizon {
            self.end_episode()
        } else {
            Ok(())
        }
    }

    fn sim_now_ns(&self) -> u64 {
        self.fed.current_tick() * self.inputs.config.tick.as_nanos()
    }

    fn digest(&self) -> u64 {
        self.episode_digest.unwrap_or(0)
    }

    fn counters(&self) -> BTreeMap<&'static str, f64> {
        let mut out = self.carried.clone();
        for (k, v) in self.live_counters() {
            *out.entry(k).or_default() += v;
        }
        out
    }

    fn finish(&mut self, _tr: &mut Tracer, traced: Option<&Traced>, rep: &mut Report) {
        let t = self.tally;
        rep.metric(
            "failover_error_rate",
            ratio((t.pending + t.lost + t.leaked) as f64, t.displaced as f64),
            "ratio",
            format!(
                "pending={} lost={} leaked={} displaced={}",
                t.pending, t.lost, t.leaked, t.displaced
            ),
        );
        rep.check(
            "failover_accounted",
            t.displaced > 0
                && t.displaced == t.readmitted + t.quarantined
                && t.pending == 0
                && t.leaked == 0,
            format!("{t:?}"),
        );
        rep.metric(
            "deadline_miss_rate",
            ratio(t.survivor_misses as f64, t.survivor_dispatches as f64),
            "ratio",
            format!(
                "{}/{} on survivors",
                t.survivor_misses, t.survivor_dispatches
            ),
        );
        rep.check(
            "no_survivor_deadline_misses",
            t.survivor_misses == 0,
            format!("{} misses", t.survivor_misses),
        );
        if let Some(tr) = traced {
            let msgs: f64 = FED_COUNTERS.iter().map(|(_, n)| tr.delta(n)).sum();
            rep.metric(
                "federation.messages_per_tick",
                msgs / tr.op_count as f64,
                "count",
                "delivered + dropped + retried + duplicates",
            );
            rep.metric(
                "federation.readmit_ratio",
                ratio(
                    tr.delta("federation.readmitted"),
                    tr.delta("federation.displaced"),
                ),
                "ratio",
                "re-admitted / displaced",
            );
        }
    }
}
