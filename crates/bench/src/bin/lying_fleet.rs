//! Lying-fleet benchmark: stochastic contract monitoring against a fleet
//! whose declared claims and real demands disagree in both directions.
//!
//! Topology (one CPU, everything at 100 Hz): `hogs` over-declarers that
//! claim far more than they use, honest components whose claims are
//! accurate, one under-declarer (`sneak`) whose real demand comes from a
//! seeded [`FaultPlan::lying`] spike plan, and `waiters` that are admitted
//! last and stranded behind the hogs' inflated claims.
//!
//! Two runs over the same fleet and seed:
//!
//! * **declared** — admission trusts the declared claims; no monitor. The
//!   waiters stay stranded and the under-declarer runs undetected.
//! * **refined** — a [`StochasticMonitor`] polls the kernel accounting,
//!   publishes measured claims for the hogs (re-admitting the waiters
//!   against the reclaimed capacity) and quarantines the under-declarer
//!   with typed stochastic evidence.
//!
//! Reported: stranded/active component counts, claimed-ledger utilization,
//! refinements, convictions, deadline misses (the refined run must add
//! none), and estimator-overhead counters.
//!
//! Usage:
//!   cargo run --release -p bench --bin lying_fleet            # full, writes BENCH_contracts.json
//!   cargo run --release -p bench --bin lying_fleet -- --smoke # small run, stdout only
//!   cargo run --release -p bench --bin lying_fleet -- --check # assert ceilings + determinism
//!
//! `--smoke --check` is the CI configuration: it fails the build if the
//! monitor stops reclaiming stranded capacity, stops convicting the
//! under-declarer, adds deadline misses, churns (refinement/conviction
//! counters past their ceilings), or stops being deterministic.

use drcom::contracts::{ContractOutcome, LearningConfig, StochasticMonitor};
use drcom::faults::{FaultInjector, FaultPlan, InjectionLog};
use drcom::obs::{DrcrEvent, MetricsReport, TraceSubscriber};
use drcom::prelude::*;
use rtos::kernel::{KernelConfig, SchedCounters};
use rtos::latency::TimerJitterModel;
use std::cell::RefCell;
use std::rc::Rc;

/// Everything runs at 100 Hz: one task cycle is 10 ms of virtual time.
const PERIOD_NS: u64 = 10_000_000;

struct Params {
    hogs: usize,
    honest: usize,
    waiters: usize,
    horizon_ms: u64,
    poll_ms: u64,
    min_samples: u64,
    seed: u64,
}

impl Params {
    fn full() -> Self {
        Params {
            hogs: 2,
            honest: 2,
            waiters: 3,
            horizon_ms: 12_000,
            poll_ms: 100,
            min_samples: 400,
            seed: 0x11E5,
        }
    }

    fn smoke() -> Self {
        Params {
            hogs: 2,
            honest: 2,
            waiters: 3,
            horizon_ms: 3_000,
            poll_ms: 100,
            min_samples: 100,
            seed: 0x11E5,
        }
    }

    fn components(&self) -> usize {
        self.hogs + self.honest + self.waiters + 1
    }
}

/// Ceilings asserted in `--check` mode. The overhead ceilings guard
/// against estimator churn: each hog refines exactly once (hysteresis),
/// the under-declarer is convicted exactly once, and the estimators never
/// fold more cycles than the fleet actually ran.
struct Ceilings {
    max_refinements: u64,
    max_convictions: u64,
    min_reclaimed_waiters: usize,
}

impl Ceilings {
    fn for_params(params: &Params) -> Self {
        Ceilings {
            max_refinements: params.hogs as u64,
            max_convictions: 1,
            min_reclaimed_waiters: params.waiters,
        }
    }
}

struct Collector(Rc<RefCell<Vec<(SimTime, DrcrEvent)>>>);

impl TraceSubscriber<DrcrEvent> for Collector {
    fn on_event(&mut self, time: SimTime, event: &DrcrEvent) {
        self.0.borrow_mut().push((time, event.clone()));
    }
}

fn counter(report: &MetricsReport, name: &str) -> u64 {
    report
        .counters()
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| *v)
}

/// Claims `claim` of the 10 ms period, burns `burn_us` µs per cycle.
fn steady(name: &str, claim: f64, priority: u8, burn_us: u64) -> ComponentProvider {
    let d = ComponentDescriptor::builder(name)
        .description("lying-fleet steady component")
        .periodic(100, 0, priority)
        .cpu_usage(claim)
        .build()
        .expect("steady descriptor");
    ComponentProvider::new(d, move || {
        Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
            io.compute(SimDuration::from_micros(burn_us));
        }))
    })
}

struct RunStats {
    events: Vec<(SimTime, DrcrEvent)>,
    active: usize,
    stranded_waiters: usize,
    claimed_util: f64,
    refinements: u64,
    convictions: u64,
    sneak_quarantined: bool,
    sneak_evidence: Option<String>,
    estimator_samples: u64,
    deadline_misses: u64,
    sched: SchedCounters,
}

fn run(params: &Params, monitored: bool) -> RunStats {
    let mut rt =
        DrtRuntime::new(KernelConfig::new(params.seed).with_timer(TimerJitterModel::ideal()));
    let log = Rc::new(RefCell::new(Vec::new()));
    rt.drcr_mut()
        .add_event_subscriber(Box::new(Collector(log.clone())));

    let horizon_cycles = params.horizon_ms / (PERIOD_NS / 1_000_000);
    // Over-declarers: claim 40%, really use ~5%.
    for i in 0..params.hogs {
        rt.install_component(
            &format!("bundle.h{i:02}"),
            steady(&format!("h{i:02}"), 0.40, 2, 500),
        )
        .expect("install hog");
    }
    // Honest components: claim 5%, use ~4.5%. That is 0.9 of the claim,
    // above the refinement threshold (refine_ratio / margin = 0.818), so
    // a conservative estimate never refines them whatever its bucket
    // edges; at 4% (0.80 of the claim) they would be over-declarers.
    for i in 0..params.honest {
        rt.install_component(
            &format!("bundle.o{i:02}"),
            steady(&format!("o{i:02}"), 0.05, 3, 450),
        )
        .expect("install honest");
    }
    // The under-declarer: claims 3%, but a seeded lying plan injects
    // 1.2–1.8 ms of real demand into every 10 ms cycle (~15%).
    let plan = Rc::new(FaultPlan::lying(
        params.seed,
        horizon_cycles,
        (1_200_000, 1_800_000),
    ));
    let injection = InjectionLog::shared();
    let d = ComponentDescriptor::builder("sneak")
        .description("under-declaring component")
        .periodic(100, 0, 4)
        .cpu_usage(0.03)
        .build()
        .expect("sneak descriptor");
    rt.install_component(
        "bundle.sneak",
        ComponentProvider::new(d, {
            let (plan, injection) = (plan.clone(), injection.clone());
            move || {
                FaultInjector::wrap(
                    plan.clone(),
                    injection.clone(),
                    Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                        io.compute(SimDuration::from_micros(100));
                    })),
                )
            }
        }),
    )
    .expect("install sneak");
    // Waiters arrive last: their 10% claims cannot be admitted next to
    // the hogs' declared 80%.
    for i in 0..params.waiters {
        rt.install_component(
            &format!("bundle.q{i:02}"),
            steady(&format!("q{i:02}"), 0.10, 5, 900),
        )
        .expect("install waiter");
    }

    let mut monitor = StochasticMonitor::new(LearningConfig {
        min_samples: params.min_samples,
        ..LearningConfig::default()
    });
    let steps = params.horizon_ms / params.poll_ms;
    for _ in 0..steps {
        rt.advance(SimDuration::from_millis(params.poll_ms));
        if monitored {
            monitor.poll(&mut rt).expect("monitor poll");
        }
    }

    let drcr = rt.drcr();
    let active = drcr
        .component_names()
        .iter()
        .filter(|n| drcr.state_of(n) == Some(ComponentState::Active))
        .count();
    let stranded_waiters = (0..params.waiters)
        .filter(|i| drcr.state_of(&format!("q{i:02}")) != Some(ComponentState::Active))
        .count();
    let claimed_util = drcr.ledger().utilization(0);
    let sneak_quarantined = drcr.is_quarantined("sneak");
    let sneak_evidence = drcr.quarantine_reason("sneak").map(str::to_string);
    drop(drcr);

    let estimator_samples: u64 = rt
        .drcr()
        .component_names()
        .iter()
        .filter_map(|n| monitor.estimator(n).map(|e| e.samples()))
        .sum();
    let refinements = monitor
        .outcomes()
        .iter()
        .filter(|o| matches!(o, ContractOutcome::Refined { .. }))
        .count() as u64;
    let convictions = monitor
        .outcomes()
        .iter()
        .filter(|o| matches!(o, ContractOutcome::Violation { .. }))
        .count() as u64;

    let sched = rt.kernel().counters();
    let report = rt.metrics_report();
    let events = log.borrow().clone();
    RunStats {
        events,
        active,
        stranded_waiters,
        claimed_util,
        refinements: refinements.max(counter(&report, "drcr.contracts.refinements")),
        convictions,
        sneak_quarantined,
        sneak_evidence,
        estimator_samples,
        deadline_misses: sched.deadline_misses,
        sched,
    }
}

/// Renders an event stream to one canonical string (used for the
/// determinism comparison).
fn render(events: &[(SimTime, DrcrEvent)]) -> String {
    let mut out = String::new();
    for (t, e) in events {
        out.push_str(&format!("[{}] {e}\n", t.as_nanos()));
    }
    out
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
        "lying_fleet: {} components ({} hogs + {} honest + 1 sneak + {} waiters), {} ms horizon, mode={}",
        params.components(),
        params.hogs,
        params.honest,
        params.waiters,
        params.horizon_ms,
        if smoke { "smoke" } else { "full" },
    );

    let declared = run(&params, false);
    let refined = run(&params, true);

    println!();
    println!(
        "  declared: {} active, {} waiters stranded, claimed util {:.3}, sneak quarantined: {}, {} misses",
        declared.active,
        declared.stranded_waiters,
        declared.claimed_util,
        declared.sneak_quarantined,
        declared.deadline_misses,
    );
    println!(
        "  refined:  {} active, {} waiters stranded, claimed util {:.3}, sneak quarantined: {}, {} misses",
        refined.active,
        refined.stranded_waiters,
        refined.claimed_util,
        refined.sneak_quarantined,
        refined.deadline_misses,
    );
    println!(
        "  monitor: {} refinements, {} convictions, {} estimator samples",
        refined.refinements, refined.convictions, refined.estimator_samples,
    );
    for (t, e) in &refined.events {
        if matches!(
            e,
            DrcrEvent::ClaimRefined { .. } | DrcrEvent::StochasticViolation { .. }
        ) {
            println!("  at {} ms: {e}", t.as_nanos() / 1_000_000);
        }
    }
    if let Some(reason) = &refined.sneak_evidence {
        println!("  evidence: {reason}");
    }

    if check {
        let ceilings = Ceilings::for_params(&params);
        // The declared run shows the problem: stranded waiters, an
        // undetected under-declarer.
        assert_eq!(
            declared.stranded_waiters, params.waiters,
            "declared-claim run no longer strands the waiters"
        );
        assert!(
            !declared.sneak_quarantined,
            "declared-claim run cannot detect the under-declarer"
        );
        // The refined run reclaims the stranded capacity…
        let reclaimed = declared.stranded_waiters - refined.stranded_waiters;
        assert!(
            reclaimed >= ceilings.min_reclaimed_waiters,
            "refinement reclaimed only {reclaimed} waiters (< {})",
            ceilings.min_reclaimed_waiters
        );
        assert!(
            refined.active > declared.active,
            "refined run should run more components ({} vs {})",
            refined.active,
            declared.active
        );
        assert!(
            refined.claimed_util < declared.claimed_util,
            "refined ledger ({:.3}) should claim less than the declared one ({:.3})",
            refined.claimed_util,
            declared.claimed_util
        );
        // …convicts the under-declarer with typed evidence…
        assert!(refined.sneak_quarantined, "under-declarer not quarantined");
        let evidence = refined.sneak_evidence.as_deref().unwrap_or("");
        assert!(
            evidence.contains("stochastic contract violation"),
            "quarantine evidence is untyped: {evidence:?}"
        );
        // …without costing any deadlines.
        assert!(
            refined.deadline_misses <= declared.deadline_misses,
            "monitoring added deadline misses: {} vs {}",
            refined.deadline_misses,
            declared.deadline_misses
        );
        // Overhead ceilings: no refinement/conviction churn, no phantom
        // estimator samples.
        assert!(
            refined.refinements <= ceilings.max_refinements,
            "{} refinements exceed ceiling {} (hysteresis broken?)",
            refined.refinements,
            ceilings.max_refinements
        );
        assert!(refined.refinements > 0, "no claim was ever refined");
        assert!(
            refined.convictions <= ceilings.max_convictions,
            "{} convictions exceed ceiling {}",
            refined.convictions,
            ceilings.max_convictions
        );
        let max_samples = params.components() as u64 * (params.horizon_ms / 10);
        assert!(
            refined.estimator_samples <= max_samples,
            "estimators folded {} cycles, more than the fleet ran ({max_samples})",
            refined.estimator_samples
        );
        // Same seed, same fleet, same stream — byte for byte.
        let again = run(&params, true);
        assert_eq!(
            render(&refined.events).as_bytes(),
            render(&again.events).as_bytes(),
            "monitored run is not deterministic"
        );
        assert_eq!(
            refined.sched, again.sched,
            "scheduler counters diverged between identical runs"
        );
        println!("  check: PASS");
    }

    if !smoke {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"lying_fleet\",\n",
                "  \"components\": {},\n",
                "  \"horizon_ms\": {},\n",
                "  \"seed\": {},\n",
                "  \"declared\": {{\"active\": {}, \"stranded_waiters\": {}, ",
                "\"claimed_util\": {:.4}, \"deadline_misses\": {}}},\n",
                "  \"refined\": {{\"active\": {}, \"stranded_waiters\": {}, ",
                "\"claimed_util\": {:.4}, \"deadline_misses\": {}}},\n",
                "  \"refinements\": {},\n",
                "  \"convictions\": {},\n",
                "  \"sneak_quarantined\": {},\n",
                "  \"estimator_samples\": {}\n",
                "}}\n"
            ),
            params.components(),
            params.horizon_ms,
            params.seed,
            declared.active,
            declared.stranded_waiters,
            declared.claimed_util,
            declared.deadline_misses,
            refined.active,
            refined.stranded_waiters,
            refined.claimed_util,
            refined.deadline_misses,
            refined.refinements,
            refined.convictions,
            refined.sneak_quarantined,
            refined.estimator_samples,
        );
        std::fs::write("BENCH_contracts.json", &json).expect("write BENCH_contracts.json");
        println!("  wrote BENCH_contracts.json");
    }
}
