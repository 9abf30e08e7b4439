//! Admission benchmark: utilization-cap vs response-time-analysis
//! admission, validating both halves of the RTA claim.
//!
//! **Capacity half** — a harmonic fleet (200/100/50 Hz bands, rate-monotonic
//! priorities, equal per-component claims summing to 0.96 of one CPU) is
//! installed under the 0.9-cap policy and under response-time analysis
//! ([`RtaResolver`]). The cap strands capacity: it
//! rejects the component that pushes the sum past 0.9. Exact analysis
//! proves every deadline is met and admits the full fleet; the simulation
//! then runs it with **zero** kernel deadline misses.
//!
//! **Correctness half** — a two-task counterexample (a 200 Hz hog claiming
//! 0.6 plus a 125 Hz victim claiming 0.275, total 0.875) sails under the
//! 0.9 cap, but fixed-priority scheduling cannot serve it: the victim's
//! response-time recurrence exceeds its 8 ms period. The cap admits both
//! and the kernel records real deadline misses; RTA rejects the victim up
//! front and the admitted remainder again runs miss-free.
//!
//! Both halves repeat across seeds, and the RTA run is re-executed to
//! assert the event stream and scheduler counters are byte-identical.
//!
//! Usage:
//!   cargo run --release -p bench --bin admission_scale            # full, writes BENCH_admission.json
//!   cargo run --release -p bench --bin admission_scale -- --smoke # small run, stdout only
//!   cargo run --release -p bench --bin admission_scale -- --check # assert both halves + determinism
//!
//! `--smoke --check` is the CI configuration: it fails the build if RTA
//! stops out-admitting the cap on the harmonic fleet, if an RTA-admitted
//! fleet ever misses a deadline, if the cap-admitted counterexample stops
//! missing (the bench lost its teeth), or if the run stops being
//! deterministic.

use drcom::drcr::ComponentProvider;
use drcom::obs::{DrcrEvent, TraceSubscriber};
use drcom::prelude::*;
use drcom::resolve::{ResolvingService, UtilizationResolver};
use drcom::rta::RtaResolver;
use rtos::kernel::{KernelConfig, SchedCounters};
use rtos::latency::TimerJitterModel;
use std::cell::RefCell;
use std::rc::Rc;

/// Per-cycle slack left inside each component's claimed budget so the
/// container's own overheads (bridge poll, dispatch cost) fit under the
/// contract. The analysis charges a conservative model of the same costs.
const MARGIN_NS: u64 = 20_000;

const CAP: f64 = 0.9;

/// One periodic component contract: name, frequency, priority, CPU claim.
#[derive(Clone)]
struct Spec {
    name: String,
    freq: u32,
    prio: u8,
    usage: f64,
}

impl Spec {
    fn period_ns(&self) -> u64 {
        1_000_000_000 / self.freq as u64
    }
}

struct Params {
    per_band: usize,
    claim: f64,
    horizon_ms: u64,
    seeds: &'static [u64],
}

impl Params {
    fn full() -> Self {
        Params {
            per_band: 4,
            claim: 0.08,
            horizon_ms: 2_000,
            seeds: &[0xAD01, 0xAD02, 0xAD03],
        }
    }

    fn smoke() -> Self {
        Params {
            per_band: 2,
            claim: 0.16,
            horizon_ms: 500,
            seeds: &[0xAD01, 0xAD02],
        }
    }

    /// The harmonic fleet: `per_band` components in each of three bands
    /// (200 Hz / 100 Hz / 50 Hz) with rate-monotonic priorities. Total
    /// claim is `3 * per_band * claim` = 0.96 on one CPU in both modes.
    fn harmonic_fleet(&self) -> Vec<Spec> {
        let bands: [(u32, u8); 3] = [(200, 1), (100, 2), (50, 3)];
        let mut fleet = Vec::new();
        for (b, (freq, prio)) in bands.iter().enumerate() {
            for i in 0..self.per_band {
                fleet.push(Spec {
                    name: format!("a{b}{i:02}"),
                    freq: *freq,
                    prio: *prio,
                    usage: self.claim,
                });
            }
        }
        fleet
    }

    /// The counterexample: U = 0.875 <= 0.9 yet unschedulable. The victim's
    /// recurrence is R = 2.2 + ceil(R/5)*3 -> 2.2, 5.2, 8.2 ms > 8 ms.
    fn counterexample_fleet(&self) -> Vec<Spec> {
        vec![
            Spec {
                name: "hog".to_string(),
                freq: 200,
                prio: 1,
                usage: 0.6,
            },
            Spec {
                name: "victim".to_string(),
                freq: 125,
                prio: 2,
                usage: 0.275,
            },
        ]
    }
}

struct Collector(Rc<RefCell<Vec<(SimTime, DrcrEvent)>>>);

impl TraceSubscriber<DrcrEvent> for Collector {
    fn on_event(&mut self, time: SimTime, event: &DrcrEvent) {
        self.0.borrow_mut().push((time, event.clone()));
    }
}

fn provider(spec: &Spec) -> ComponentProvider {
    let descriptor = ComponentDescriptor::builder(&spec.name)
        .description("admission bench task")
        .periodic(spec.freq, 0, spec.prio)
        .cpu_usage(spec.usage)
        .build()
        .expect("bench descriptor");
    let budget_ns = (spec.usage * spec.period_ns() as f64) as u64;
    let work = SimDuration::from_nanos(budget_ns.saturating_sub(MARGIN_NS));
    ComponentProvider::new(descriptor, move || {
        Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
            io.compute(work);
        }))
    })
}

/// The 0.9 utilization cap.
fn cap() -> Box<dyn ResolvingService> {
    Box::new(UtilizationResolver::new(CAP))
}

/// Exact response-time analysis with the default cost constants.
fn rta() -> Box<dyn ResolvingService> {
    Box::new(RtaResolver::default())
}

/// Outcome of installing `fleet` under `policy` and running the horizon.
struct RunStats {
    admitted: Vec<String>,
    utilization: f64,
    sched: SchedCounters,
    rendered: String,
}

fn run(policy: Box<dyn ResolvingService>, fleet: &[Spec], seed: u64, horizon_ms: u64) -> RunStats {
    let mut rt = DrtRuntime::with_resolver(
        KernelConfig::new(seed).with_timer(TimerJitterModel::ideal()),
        policy,
    );
    let log = Rc::new(RefCell::new(Vec::new()));
    rt.drcr_mut()
        .add_event_subscriber(Box::new(Collector(log.clone())));

    for spec in fleet {
        rt.install_component(&format!("bundle.{}", spec.name), provider(spec))
            .expect("install component");
    }
    rt.advance(SimDuration::from_millis(horizon_ms));

    let admitted: Vec<String> = fleet
        .iter()
        .filter(|s| rt.component_state(&s.name) == Some(ComponentState::Active))
        .map(|s| s.name.clone())
        .collect();
    let utilization = rt.drcr().ledger().utilization(0);
    let sched = rt.kernel().counters();
    let mut rendered = String::new();
    for (t, e) in log.borrow().iter() {
        rendered.push_str(&format!("[{}] {e}\n", t.as_nanos()));
    }
    RunStats {
        admitted,
        utilization,
        sched,
        rendered,
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

    let harmonic = params.harmonic_fleet();
    let counterexample = params.counterexample_fleet();
    println!(
        "admission_scale: harmonic fleet of {} (claim {} each, U = {:.2}), {} ms horizon, {} seeds, mode={}",
        harmonic.len(),
        params.claim,
        harmonic.len() as f64 * params.claim,
        params.horizon_ms,
        params.seeds.len(),
        if smoke { "smoke" } else { "full" },
    );

    // -- Capacity half: RTA admits the harmonic fleet the cap truncates. --
    let mut cap_a = None;
    let mut rta_a = None;
    let mut rta_a_misses = 0u64;
    for &seed in params.seeds {
        let cap = run(cap(), &harmonic, seed, params.horizon_ms);
        let rta = run(rta(), &harmonic, seed, params.horizon_ms);
        rta_a_misses += rta.sched.deadline_misses;
        println!(
            "  [seed {seed:#06x}] harmonic: cap admits {} (U = {:.2}), RTA admits {} (U = {:.2}), RTA misses = {}",
            cap.admitted.len(),
            cap.utilization,
            rta.admitted.len(),
            rta.utilization,
            rta.sched.deadline_misses,
        );
        cap_a.get_or_insert(cap);
        rta_a.get_or_insert(rta);
    }
    let (cap_a, rta_a) = (cap_a.unwrap(), rta_a.unwrap());
    let capacity_delta = rta_a.admitted.len() as i64 - cap_a.admitted.len() as i64;
    println!(
        "  capacity: RTA admits {capacity_delta} more component(s), reclaiming {:.2} CPU the cap strands",
        rta_a.utilization - cap_a.utilization,
    );

    // -- Correctness half: the cap admits a fleet that really misses. --
    let mut cap_b_misses = 0u64;
    let mut rta_b_misses = 0u64;
    let mut cap_b = None;
    let mut rta_b = None;
    for &seed in params.seeds {
        let cap = run(cap(), &counterexample, seed, params.horizon_ms);
        let rta = run(rta(), &counterexample, seed, params.horizon_ms);
        cap_b_misses += cap.sched.deadline_misses;
        rta_b_misses += rta.sched.deadline_misses;
        println!(
            "  [seed {seed:#06x}] counterexample: cap admits {:?} with {} misses, RTA admits {:?} with {} misses",
            cap.admitted, cap.sched.deadline_misses, rta.admitted, rta.sched.deadline_misses,
        );
        cap_b.get_or_insert(cap);
        rta_b.get_or_insert(rta);
    }
    let (cap_b, rta_b) = (cap_b.unwrap(), rta_b.unwrap());

    if check {
        assert!(
            rta_a.admitted.len() == harmonic.len(),
            "RTA admitted {}/{} of the harmonic fleet",
            rta_a.admitted.len(),
            harmonic.len()
        );
        assert!(
            cap_a.admitted.len() < rta_a.admitted.len(),
            "the cap admitted the whole harmonic fleet; no capacity win to show"
        );
        assert_eq!(
            rta_a_misses, 0,
            "RTA-admitted harmonic fleet missed {rta_a_misses} deadlines"
        );
        assert_eq!(
            cap_b.admitted.len(),
            2,
            "cap did not admit the full counterexample"
        );
        assert!(
            cap_b_misses > 0,
            "cap-admitted counterexample never missed a deadline: the bench lost its teeth"
        );
        assert_eq!(
            rta_b.admitted,
            vec!["hog".to_string()],
            "RTA should admit exactly the hog"
        );
        assert_eq!(
            rta_b_misses, 0,
            "RTA-admitted counterexample remainder missed {rta_b_misses} deadlines"
        );
        // Same seed, same fleet, same stream — byte for byte — and the
        // scheduler counters must match too.
        let again = run(rta(), &harmonic, params.seeds[0], params.horizon_ms);
        assert_eq!(
            rta_a.rendered.as_bytes(),
            again.rendered.as_bytes(),
            "admission run is not deterministic"
        );
        assert_eq!(
            rta_a.sched, again.sched,
            "scheduler counters diverged between identical runs"
        );
        println!("  check: PASS");
    }

    if !smoke {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"admission_scale\",\n",
                "  \"horizon_ms\": {},\n",
                "  \"seeds\": {},\n",
                "  \"capacity\": {{\n",
                "    \"fleet\": {}, \"fleet_utilization\": {:.2},\n",
                "    \"cap_admitted\": {}, \"cap_utilization\": {:.3},\n",
                "    \"rta_admitted\": {}, \"rta_utilization\": {:.3},\n",
                "    \"admitted_delta\": {}, \"rta_deadline_misses\": {}\n",
                "  }},\n",
                "  \"correctness\": {{\n",
                "    \"fleet_utilization\": 0.875, \"cap\": {:.2},\n",
                "    \"cap_admitted\": {}, \"cap_deadline_misses\": {},\n",
                "    \"rta_admitted\": {}, \"rta_deadline_misses\": {}\n",
                "  }}\n",
                "}}\n"
            ),
            params.horizon_ms,
            params.seeds.len(),
            harmonic.len(),
            harmonic.len() as f64 * params.claim,
            cap_a.admitted.len(),
            cap_a.utilization,
            rta_a.admitted.len(),
            rta_a.utilization,
            capacity_delta,
            rta_a_misses,
            CAP,
            cap_b.admitted.len(),
            cap_b_misses,
            rta_b.admitted.len(),
            rta_b_misses,
        );
        std::fs::write("BENCH_admission.json", &json).expect("write BENCH_admission.json");
        println!("  wrote BENCH_admission.json");
    }
}
