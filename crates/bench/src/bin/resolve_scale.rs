//! Resolver scale benchmark: the reactive incremental engine vs the
//! naive-reference oracle, in three phases.
//!
//! **Phase 1 — identity.** A ~1k-component hub/consumer topology with
//! churn, run under both engines. Consumers are installed *first*, so
//! they pile up Unsatisfied and every subsequent resolve round has a large
//! activation frontier — the worst case for the naive full-rescan
//! resolver. The phase asserts the two `DrcrEvent` streams are
//! byte-identical and reports the wiring-work counters side by side.
//!
//! **Phase 2 — churn at scale.** Two fleets of 999-consumer hub cohorts,
//! ~50k and ~100k components (reactive engine only; the naive oracle
//! would take hours), each installed in two arrival waves, then hub 0
//! flaps. Each flap touches only hub 0's cohort, so the per-churn-event
//! wiring checks and view updates must stay O(changed), not O(n): gated
//! by counter ceilings relative to the cohort, and by the doubled fleet
//! doing no more per-event work than the smaller one.
//!
//! **Phase 3 — batched arrivals.** K components arrive in one wave under
//! response-time admission. The reactive engine proves the whole wave
//! schedulable in **one** RTA fixed-point per CPU; the naive oracle, which
//! never batches, runs one pass per candidate. The phase asserts the batch
//! really collapsed K passes into `cpus` passes and that both paths admit
//! everything.
//!
//! Usage:
//!   cargo run --release -p bench --bin resolve_scale            # full, writes BENCH_resolve.json
//!   cargo run --release -p bench --bin resolve_scale -- --smoke # small phase 1, stdout only
//!   cargo run --release -p bench --bin resolve_scale -- --check # also assert ceilings
//!
//! `--smoke --check` is the CI configuration: fast, deterministic, and it
//! fails the build if the reactive engine regresses (extra graph builds,
//! extra sweeps, O(n) churn work, a diverging event stream, or a batch
//! that stopped batching). Phases 2 and 3 run at full scale in both
//! modes — their cost is dominated by the two arrival waves, not by the
//! per-install resolve rounds phase 1 exercises.

use drcom::drcr::ComponentProvider;
use drcom::obs::{DrcrEvent, MetricsReport, TraceSubscriber};
use drcom::prelude::*;
use drcom::reactive::{NaiveResolver, ReactiveResolver};
use drcom::resolve::{AlwaysAdmit, Resolver};
use drcom::rta::RtaResolver;
use rtos::kernel::KernelConfig;
use rtos::latency::TimerJitterModel;
use std::cell::RefCell;
use std::rc::Rc;

/// Phase 1 scenario shape. Full mode is the ISSUE's n=1000 configuration;
/// smoke mode is a scaled-down copy for CI.
struct Params {
    hubs: usize,
    consumers: usize,
    churn_cycles: usize,
}

impl Params {
    fn full() -> Self {
        Params {
            hubs: 10,
            consumers: 990,
            churn_cycles: 5,
        }
    }

    fn smoke() -> Self {
        Params {
            hubs: 8,
            consumers: 192,
            churn_cycles: 3,
        }
    }

    fn components(&self) -> usize {
        self.hubs + self.consumers
    }
}

/// Consumers per hub in phase 2 — the churn blast radius.
const CHURN_COHORT: usize = 999;
/// Phase 2's two fleet sizes, in hubs (~50k and ~100k components).
const CHURN_HUB_COUNTS: [usize; 2] = [50, 100];

/// Phase 2 scenario shape: both modes run the full fleets (the phase
/// avoids per-install resolve rounds, so scale is cheap).
struct ChurnParams {
    hubs: usize,
    consumers: usize,
    churn_cycles: usize,
}

impl ChurnParams {
    fn with_hubs(hubs: usize) -> Self {
        ChurnParams {
            hubs,
            consumers: hubs * CHURN_COHORT,
            churn_cycles: 5,
        }
    }

    fn components(&self) -> usize {
        self.hubs + self.consumers
    }

    /// Consumers fed by one hub — the churn blast radius.
    fn cohort(&self) -> usize {
        self.consumers / self.hubs
    }
}

/// Phase 3 scenario shape.
struct BatchParams {
    arrivals: usize,
    cpus: u32,
}

impl BatchParams {
    fn new() -> Self {
        BatchParams {
            arrivals: 64,
            cpus: 4,
        }
    }
}

/// Counter ceilings asserted in `--check` mode, set with ~25-50% headroom
/// over the values measured when waiting components were still screened
/// every sweep: phase 1 (smoke) incremental checks=21299, sweeps=231;
/// (full) checks=508380, sweeps=1045; phase 2, 2498 checks (2.5x cohort)
/// per churn event. Since a waiter is screened only when something it waits
/// on changed, phase 1 measures checks=803 (smoke) and 4470 (full), and
/// phase 2 1499 checks (1.5x) and 1001 view updates (1x) per churn event
/// at cohort=999, at both fleet sizes. Naive graph_builds=26099 (smoke) and
/// 545505 (full). The view is maintained by delta and never rebuilt, in
/// either engine.
struct Ceilings {
    incremental_checks: u64,
    incremental_sweeps: u64,
    view_rebuilds: u64,
    /// Phase 2: per-churn-event wiring checks, as a multiple of the churn
    /// cohort. O(changed) work is a small constant; O(n) work at
    /// hubs=100 would be ~100x the cohort and trips this immediately.
    churn_checks_per_cohort: u64,
    /// Phase 2: per-churn-event view updates, as a multiple of the cohort.
    churn_view_updates_per_cohort: u64,
}

impl Ceilings {
    fn for_mode(smoke: bool) -> Self {
        Ceilings {
            incremental_checks: if smoke { 60_000 } else { 1_300_000 },
            incremental_sweeps: if smoke { 300 } else { 1_300 },
            view_rebuilds: 0,
            churn_checks_per_cohort: 8,
            churn_view_updates_per_cohort: 2,
        }
    }
}

struct Collector(Rc<RefCell<Vec<(SimTime, DrcrEvent)>>>);

impl TraceSubscriber<DrcrEvent> for Collector {
    fn on_event(&mut self, time: SimTime, event: &DrcrEvent) {
        self.0.borrow_mut().push((time, event.clone()));
    }
}

fn hub_provider(j: usize) -> ComponentProvider {
    let descriptor = ComponentDescriptor::builder(&format!("h{j:03}"))
        .description("hub provider")
        .periodic(100, 0, 2)
        .cpu_usage(0.001)
        .outport(
            &format!("p{j:03}"),
            PortInterface::Shm,
            DataType::Integer,
            1,
        )
        .build()
        .expect("hub descriptor");
    ComponentProvider::new(descriptor, || {
        Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
    })
}

fn consumer_provider(i: usize, hubs: usize) -> ComponentProvider {
    let descriptor = ComponentDescriptor::builder(&format!("c{i:05}"))
        .description("fan-in consumer")
        .periodic(50, (i % 4) as u32, 5)
        .cpu_usage(0.0005)
        .inport(
            &format!("p{:03}", i % hubs),
            PortInterface::Shm,
            DataType::Integer,
            1,
        )
        .build()
        .expect("consumer descriptor");
    ComponentProvider::new(descriptor, || {
        Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
    })
}

/// Phase 3 candidate: no ports (wiring trivially satisfied), distinct
/// priority per CPU-local slot so the RTA fixed point is non-degenerate.
fn batch_provider(i: usize, cpus: u32) -> ComponentProvider {
    let descriptor = ComponentDescriptor::builder(&format!("b{i:03}"))
        .description("batched arrival")
        .periodic(100, (i as u32) % cpus, (2 + i / cpus as usize) as u8)
        .cpu_usage(0.004)
        .build()
        .expect("batch descriptor");
    ComponentProvider::new(descriptor, || {
        Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
    })
}

/// Per-engine outcome of phase 1: the full event stream plus the
/// wiring-work counters the comparison is about.
struct RunStats {
    events: Vec<(SimTime, DrcrEvent)>,
    wiring_checks: u64,
    graph_builds: u64,
    resolve_rounds: u64,
    deactivation_sweeps: u64,
    view_rebuilds: u64,
}

fn counter(report: &MetricsReport, name: &str) -> u64 {
    report
        .counters()
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| *v)
}

fn histogram_sum(report: &MetricsReport, name: &str) -> u64 {
    report
        .histograms()
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, h)| u64::try_from(h.sum()).expect("sum fits in u64"))
}

fn run(engine: Box<dyn Resolver>, params: &Params) -> RunStats {
    let mut rt = DrtRuntime::with_engine(
        KernelConfig::new(4)
            .with_cpus(4)
            .with_timer(TimerJitterModel::ideal()),
        engine,
    );
    let log = Rc::new(RefCell::new(Vec::new()));
    rt.drcr_mut()
        .add_event_subscriber(Box::new(Collector(log.clone())));

    // Consumers first: each install triggers a resolve round over an
    // ever-growing Unsatisfied population with no providers yet.
    for i in 0..params.consumers {
        rt.install_component(
            &format!("bundle.c{i:05}"),
            consumer_provider(i, params.hubs),
        )
        .expect("install consumer");
    }
    // Hubs next: each arrival activates its whole consumer cohort.
    let mut hub_bundles = Vec::with_capacity(params.hubs);
    for j in 0..params.hubs {
        let b = rt
            .install_component(&format!("bundle.h{j:03}"), hub_provider(j))
            .expect("install hub");
        hub_bundles.push(b);
    }
    // Churn: hub 0 flaps, cascading its cohort down and back up.
    for _ in 0..params.churn_cycles {
        rt.stop_bundle(hub_bundles[0]).expect("stop hub");
        rt.start_bundle(hub_bundles[0]).expect("restart hub");
    }

    let report = rt.metrics_report();
    let events = log.borrow().clone();
    RunStats {
        events,
        wiring_checks: counter(&report, "drcr.wiring.checks"),
        graph_builds: counter(&report, "drcr.wiring.graph_builds"),
        resolve_rounds: counter(&report, "drcr.resolve.rounds"),
        deactivation_sweeps: histogram_sum(&report, "drcr.resolve.sweeps"),
        view_rebuilds: counter(&report, "drcr.view.rebuilds"),
    }
}

/// Phase 2 outcome: per-churn-event work on the 100k fleet.
struct ChurnStats {
    components: usize,
    cohort: usize,
    churn_events: u64,
    checks_per_event: u64,
    view_updates_per_event: u64,
    graph_builds: u64,
    active_after: usize,
}

fn run_churn(params: &ChurnParams) -> ChurnStats {
    let mut rt = DrtRuntime::with_resolver(
        KernelConfig::new(4)
            .with_cpus(4)
            .with_timer(TimerJitterModel::ideal()),
        Box::new(AlwaysAdmit),
    );

    // Two arrival waves (one resolve round each), not n per-install
    // rounds: consumers pile up Unsatisfied, then the hub wave activates
    // the whole fleet.
    rt.install_components(
        (0..params.consumers)
            .map(|i| (format!("bundle.c{i:05}"), consumer_provider(i, params.hubs))),
    )
    .expect("install consumers");
    let hub_bundles = rt
        .install_components((0..params.hubs).map(|j| (format!("bundle.h{j:03}"), hub_provider(j))))
        .expect("install hubs");

    let before = rt.metrics_report();
    for _ in 0..params.churn_cycles {
        rt.stop_bundle(hub_bundles[0]).expect("stop hub");
        rt.start_bundle(hub_bundles[0]).expect("restart hub");
    }
    let after = rt.metrics_report();

    let churn_events = 2 * params.churn_cycles as u64;
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let active_after = (0..params.consumers)
        .filter(|i| rt.component_state(&format!("c{i:05}")) == Some(ComponentState::Active))
        .count();
    ChurnStats {
        components: params.components(),
        cohort: params.cohort(),
        churn_events,
        checks_per_event: delta("drcr.wiring.checks") / churn_events,
        view_updates_per_event: delta("drcr.view.updates") / churn_events,
        graph_builds: counter(&after, "drcr.wiring.graph_builds"),
        active_after,
    }
}

/// Phase 3 outcome of one run (batched or sequential admission).
struct BatchStats {
    rta_passes: u64,
    batches: u64,
    activations: u64,
    rejections: u64,
}

/// Admits the wave under response-time analysis: batched through the
/// reactive engine, or one candidate at a time through the naive oracle.
fn run_batch(params: &BatchParams, batched: bool) -> BatchStats {
    let policy = Box::new(RtaResolver::default());
    let engine: Box<dyn Resolver> = if batched {
        Box::new(ReactiveResolver::new(policy))
    } else {
        Box::new(NaiveResolver::new(policy))
    };
    let mut rt = DrtRuntime::with_engine(
        KernelConfig::new(4)
            .with_cpus(params.cpus)
            .with_timer(TimerJitterModel::ideal()),
        engine,
    );
    rt.install_components(
        (0..params.arrivals).map(|i| (format!("bundle.b{i:03}"), batch_provider(i, params.cpus))),
    )
    .expect("install batch");
    let report = rt.metrics_report();
    BatchStats {
        rta_passes: counter(&report, "drcr.admission.rta_passes"),
        batches: counter(&report, "drcr.admission.batches"),
        activations: counter(&report, "drcr.activations"),
        rejections: counter(&report, "drcr.admission.rejections"),
    }
}

/// Renders an event stream to one canonical string (used for the
/// byte-identity comparison and the event-count report).
fn render(events: &[(SimTime, DrcrEvent)]) -> String {
    let mut out = String::new();
    for (t, e) in events {
        out.push_str(&format!("[{}] {e}\n", t.as_nanos()));
    }
    out
}

fn stats_json(s: &RunStats) -> String {
    format!(
        concat!(
            "{{\"wiring_checks\": {}, \"graph_builds\": {}, ",
            "\"resolve_rounds\": {}, \"deactivation_sweeps\": {}, ",
            "\"view_rebuilds\": {}}}"
        ),
        s.wiring_checks, s.graph_builds, s.resolve_rounds, s.deactivation_sweeps, s.view_rebuilds
    )
}

fn churn_json(c: &ChurnStats) -> String {
    format!(
        concat!(
            "{{\"components\": {}, \"cohort\": {}, \"churn_events\": {}, ",
            "\"checks_per_event\": {}, ",
            "\"view_updates_per_event\": {}}}"
        ),
        c.components, c.cohort, c.churn_events, c.checks_per_event, c.view_updates_per_event
    )
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
    let ceilings = Ceilings::for_mode(smoke);

    // ---- Phase 1: identity ------------------------------------------
    println!(
        "resolve_scale phase 1 (identity): {} components ({} hubs x {} consumers), {} churn cycles, mode={}",
        params.components(),
        params.hubs,
        params.consumers,
        params.churn_cycles,
        if smoke { "smoke" } else { "full" },
    );

    let incremental = run(
        Box::new(ReactiveResolver::new(Box::new(AlwaysAdmit))),
        &params,
    );
    let naive = run(Box::new(NaiveResolver::new(Box::new(AlwaysAdmit))), &params);

    let inc_rendered = render(&incremental.events);
    let naive_rendered = render(&naive.events);
    let events_identical =
        incremental.events == naive.events && inc_rendered.as_bytes() == naive_rendered.as_bytes();

    // The naive resolver builds one WiringGraph per constraint check; the
    // reactive engine builds none, so compare builds against builds
    // (floored at 1) for the headline ratio.
    let ratio = naive.graph_builds as f64 / incremental.graph_builds.max(1) as f64;

    println!();
    println!("                         incremental      naive-reference");
    println!(
        "  wiring checks      {:>13} {:>20}",
        incremental.wiring_checks, naive.wiring_checks
    );
    println!(
        "  graph builds       {:>13} {:>20}",
        incremental.graph_builds, naive.graph_builds
    );
    println!(
        "  resolve rounds     {:>13} {:>20}",
        incremental.resolve_rounds, naive.resolve_rounds
    );
    println!(
        "  deactivation sweeps{:>13} {:>20}",
        incremental.deactivation_sweeps, naive.deactivation_sweeps
    );
    println!(
        "  view rebuilds      {:>13} {:>20}",
        incremental.view_rebuilds, naive.view_rebuilds
    );
    println!();
    println!(
        "  events: {} vs {} (identical: {})",
        incremental.events.len(),
        naive.events.len(),
        events_identical
    );
    println!("  graph-build reduction: {ratio:.1}x");

    if check {
        assert!(events_identical, "event streams diverged between engines");
        assert_eq!(
            incremental.graph_builds, 0,
            "incremental resolver built wiring graphs"
        );
        assert!(
            ratio >= 10.0,
            "graph-build reduction {ratio:.1}x below the 10x target"
        );
        assert!(
            incremental.wiring_checks <= ceilings.incremental_checks,
            "incremental wiring checks {} exceed ceiling {}",
            incremental.wiring_checks,
            ceilings.incremental_checks
        );
        assert!(
            incremental.deactivation_sweeps <= ceilings.incremental_sweeps,
            "deactivation sweeps {} exceed ceiling {}",
            incremental.deactivation_sweeps,
            ceilings.incremental_sweeps
        );
        assert!(
            incremental.view_rebuilds <= ceilings.view_rebuilds
                && naive.view_rebuilds <= ceilings.view_rebuilds,
            "view rebuilds {} / {} exceed ceiling {}",
            incremental.view_rebuilds,
            naive.view_rebuilds,
            ceilings.view_rebuilds
        );
        println!("  phase 1 check: PASS");
    }

    // ---- Phase 2: churn at scale ------------------------------------
    let mut churns = Vec::with_capacity(CHURN_HUB_COUNTS.len());
    for hubs in CHURN_HUB_COUNTS {
        let churn_params = ChurnParams::with_hubs(hubs);
        println!();
        println!(
            "resolve_scale phase 2 (churn @ scale): {} components ({} hubs x {} consumers), cohort {}, {} churn cycles",
            churn_params.components(),
            churn_params.hubs,
            churn_params.consumers,
            churn_params.cohort(),
            churn_params.churn_cycles,
        );
        let churn = run_churn(&churn_params);
        println!(
            "  per churn event: {} wiring checks, {} view updates, {:.4}x of n",
            churn.checks_per_event,
            churn.view_updates_per_event,
            churn.checks_per_event as f64 / churn.components as f64,
        );
        println!(
            "  graph builds: {}, consumers active after churn: {}",
            churn.graph_builds, churn.active_after
        );

        if check {
            let cohort = churn.cohort as u64;
            assert_eq!(churn.graph_builds, 0, "reactive engine built wiring graphs");
            assert_eq!(
                churn.active_after, churn_params.consumers,
                "fleet did not fully re-activate after churn"
            );
            assert!(
                churn.checks_per_event <= ceilings.churn_checks_per_cohort * cohort,
                "per-churn-event wiring checks {} exceed O(changed) ceiling {}x cohort",
                churn.checks_per_event,
                ceilings.churn_checks_per_cohort
            );
            assert!(
                churn.view_updates_per_event <= ceilings.churn_view_updates_per_cohort * cohort,
                "per-churn-event view updates {} exceed O(changed) ceiling {}x cohort",
                churn.view_updates_per_event,
                ceilings.churn_view_updates_per_cohort
            );
            // The O(changed) headline: churn work must be far below fleet size.
            assert!(
                churn.checks_per_event < (churn.components / 10) as u64,
                "per-churn-event work {} is within 10x of fleet size {}",
                churn.checks_per_event,
                churn.components
            );
        }
        churns.push(churn);
    }
    if check {
        // Same cohort, twice the fleet: per-event work must not grow.
        let (small, large) = (&churns[0], &churns[1]);
        assert!(
            large.checks_per_event <= small.checks_per_event
                && large.view_updates_per_event <= small.view_updates_per_event,
            "per-churn-event work grew with the fleet: {} -> {} checks, {} -> {} view updates \
             from {} to {} components",
            small.checks_per_event,
            large.checks_per_event,
            small.view_updates_per_event,
            large.view_updates_per_event,
            small.components,
            large.components
        );
        println!("  phase 2 check: PASS");
    }

    // ---- Phase 3: batched arrivals ----------------------------------
    let batch_params = BatchParams::new();
    println!();
    println!(
        "resolve_scale phase 3 (batched arrivals): {} arrivals on {} CPUs, response-time admission",
        batch_params.arrivals, batch_params.cpus,
    );
    let batched = run_batch(&batch_params, true);
    let sequential = run_batch(&batch_params, false);
    println!(
        "  batched:    {} RTA passes, {} batches, {} activations, {} rejections",
        batched.rta_passes, batched.batches, batched.activations, batched.rejections
    );
    println!(
        "  sequential: {} RTA passes, {} activations, {} rejections",
        sequential.rta_passes, sequential.activations, sequential.rejections
    );
    println!(
        "  RTA-pass reduction: {:.1}x",
        sequential.rta_passes as f64 / batched.rta_passes.max(1) as f64
    );

    if check {
        assert_eq!(batched.batches, 1, "arrival wave was not batch-admitted");
        assert_eq!(
            batched.rta_passes,
            u64::from(batch_params.cpus),
            "batched admission ran more than one RTA pass per CPU"
        );
        assert_eq!(
            sequential.rta_passes, batch_params.arrivals as u64,
            "sequential baseline should run one RTA pass per arrival"
        );
        assert_eq!(
            batched.activations, sequential.activations,
            "batched and sequential admission disagree on the admitted set"
        );
        assert_eq!(
            batched.activations, batch_params.arrivals as u64,
            "not every arrival was admitted"
        );
        assert_eq!(batched.rejections, 0);
        assert_eq!(sequential.rejections, 0);
        println!("  phase 3 check: PASS");
    }

    if !smoke {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"resolve_scale\",\n",
                "  \"components\": {},\n",
                "  \"hubs\": {},\n",
                "  \"consumers\": {},\n",
                "  \"churn_cycles\": {},\n",
                "  \"events_identical\": {},\n",
                "  \"event_count\": {},\n",
                "  \"graph_build_reduction\": {:.1},\n",
                "  \"incremental\": {},\n",
                "  \"naive_reference\": {},\n",
                "  \"churn_at_scale\": [{}],\n",
                "  \"batched_arrivals\": {{\"arrivals\": {}, \"cpus\": {}, ",
                "\"batched_rta_passes\": {}, \"sequential_rta_passes\": {}, ",
                "\"activations\": {}}}\n",
                "}}\n"
            ),
            params.components(),
            params.hubs,
            params.consumers,
            params.churn_cycles,
            events_identical,
            incremental.events.len(),
            ratio,
            stats_json(&incremental),
            stats_json(&naive),
            churns.iter().map(churn_json).collect::<Vec<_>>().join(", "),
            batch_params.arrivals,
            batch_params.cpus,
            batched.rta_passes,
            sequential.rta_passes,
            batched.activations,
        );
        std::fs::write("BENCH_resolve.json", &json).expect("write BENCH_resolve.json");
        println!("  wrote BENCH_resolve.json");
    }
}
