//! Batch-vs-sequential admission equivalence.
//!
//! Under response-time admission the reactive engine admits an arrival wave
//! in one analysis pass per CPU; the naive oracle rules one candidate at a
//! time and serves as the sequential reference. The outcome must be
//! indistinguishable from K individual passes: the same components end up
//! active, the ledger carries the same reservations, the events come in the
//! same order, and the analysis evidence for the final task set is the same
//! worst-case response times the last sequential pass would have produced.
//! When the batch cannot be admitted whole, the executive falls back to the
//! sequential path and the event streams are byte-identical.

use std::collections::BTreeMap;
use std::rc::Rc;

use drcom::lifecycle::ComponentState;
use drcom::obs::MetricsReport;
use drcom::reactive::{NaiveResolver, ReactiveResolver};
use drcom::rta::{RtaResolver, TaskWcrt};
use drt::prelude::*;
use rtos::rng::SimRng;

const CPUS: u32 = 3;

/// `(name, freq_hz, cpu, priority, cpu_usage)`.
type Spec = (String, u32, u32, u8, f64);

fn pinned(spec: &Spec) -> ComponentProvider {
    let (name, freq, cpu, prio, usage) = spec;
    let d = ComponentDescriptor::builder(name)
        .periodic(*freq, *cpu, *prio)
        .cpu_usage(*usage)
        .build()
        .unwrap();
    ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
}

fn counter(report: &MetricsReport, name: &str) -> u64 {
    report
        .counters()
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| *v)
}

/// One CPU's final `AdmissionAnalysis` evidence: `(schedulable, wcrts)`.
type CpuAnalysis = (bool, Rc<[TaskWcrt]>);

struct Outcome {
    /// Names that ended the install wave `Active`, in fleet order.
    active: Vec<String>,
    /// Per-CPU ledger utilization, bit-exact.
    utilization_bits: Vec<u64>,
    /// The last `AdmissionAnalysis` evidence emitted per CPU — the
    /// component that carried the event is deliberately excluded, since
    /// the batched pass attributes each CPU's analysis to the final
    /// candidate placed there.
    final_analysis: BTreeMap<u32, CpuAnalysis>,
    rejections: usize,
    batches: u64,
    rta_passes: u64,
    /// `drcr.admission.checks`, and the rulings that account for them:
    /// evaluations + batched admissions.
    checks: u64,
    ruled: u64,
    declined: u64,
    /// Sum of the `drcr.admission.wcrt_ns` observations.
    wcrt_sum: u128,
    events: Vec<(u64, String)>,
    /// The event stream with each `AdmissionAnalysis` payload dropped: the
    /// order of what happened, which batching must not change.
    order: Vec<String>,
}

/// Installs the whole fleet in one resolve round (one batch window) under
/// response-time admission — through the reactive engine when `batched`,
/// through the sequential naive oracle otherwise — and snapshots everything
/// the equivalence laws compare.
fn run(fleet: &[Spec], seed: u64, batched: bool) -> Outcome {
    let wave = fleet.iter().map(|spec| (spec.0.clone(), pinned(spec)));
    run_wave(wave.collect(), seed, batched, |_| {})
}

/// [`run`] over arbitrary providers, after `prepare` has touched the fresh
/// runtime.
fn run_wave(
    wave: Vec<(String, ComponentProvider)>,
    seed: u64,
    batched: bool,
    prepare: impl FnOnce(&DrtRuntime),
) -> Outcome {
    let config = KernelConfig::new(seed)
        .with_cpus(CPUS)
        .with_timer(TimerJitterModel::ideal());
    let policy = Box::new(RtaResolver::default());
    let mut rt = if batched {
        DrtRuntime::with_engine(config, Box::new(ReactiveResolver::new(policy)))
    } else {
        DrtRuntime::with_engine(config, Box::new(NaiveResolver::new(policy)))
    };
    prepare(&rt);
    let names: Vec<String> = wave.iter().map(|(name, _)| name.clone()).collect();
    rt.install_components(
        wave.into_iter()
            .map(|(name, provider)| (format!("fleet.{name}"), provider)),
    )
    .unwrap();

    let active = names
        .into_iter()
        .filter(|name| rt.component_state(name) == Some(ComponentState::Active))
        .collect();
    let drcr = rt.drcr();
    let utilization_bits = (0..CPUS)
        .map(|cpu| drcr.ledger().utilization(cpu).to_bits())
        .collect();
    let mut final_analysis = BTreeMap::new();
    let mut rejections = 0usize;
    let mut events = Vec::new();
    let mut order = Vec::new();
    for e in drcr.events().iter() {
        match &e.event {
            DrcrEvent::AdmissionAnalysis {
                cpu,
                schedulable,
                wcrts,
                ..
            } => {
                final_analysis.insert(*cpu, (*schedulable, wcrts.clone()));
            }
            DrcrEvent::AdmissionVerdict {
                admitted: false, ..
            } => rejections += 1,
            _ => {}
        }
        events.push((e.time.as_nanos(), e.event.to_string()));
        order.push(match &e.event {
            DrcrEvent::AdmissionAnalysis { component, cpu, .. } => {
                format!("analysis {component} cpu{cpu}")
            }
            other => other.to_string(),
        });
    }
    let report = drcr.metrics_report();
    Outcome {
        active,
        utilization_bits,
        final_analysis,
        rejections,
        batches: counter(&report, "drcr.admission.batches"),
        rta_passes: counter(&report, "drcr.admission.rta_passes"),
        checks: counter(&report, "drcr.admission.checks"),
        ruled: ["evals", "batched"]
            .iter()
            .map(|k| counter(&report, &format!("drcr.admission.{k}")))
            .sum(),
        declined: counter(&report, "drcr.admission.batches_declined"),
        wcrt_sum: report
            .histograms()
            .iter()
            .find(|(k, _)| k == "drcr.admission.wcrt_ns")
            .map_or(0, |(_, h)| h.sum()),
        events,
        order,
    }
}

/// A fully schedulable 9-arrival wave over 3 CPUs: the batched pass runs
/// exactly one RTA fixed point per CPU (versus one per candidate
/// sequentially) and lands on the same admitted set, ledger, and final
/// per-CPU response-time evidence.
#[test]
fn batched_wave_admits_like_sequential_with_one_pass_per_cpu() {
    let fleet: Vec<Spec> = (0..9)
        .map(|i| (format!("b{i}"), 100, i % CPUS, (2 + i / CPUS) as u8, 0.05))
        .collect();
    let seq = run(&fleet, 77, false);
    let bat = run(&fleet, 77, true);

    assert_eq!(seq.active.len(), 9, "sequential baseline must admit all");
    assert_eq!(bat.active, seq.active);
    assert_eq!(bat.utilization_bits, seq.utilization_bits);
    assert_eq!(bat.rejections, 0);
    assert_eq!(seq.rejections, 0);

    assert_eq!(bat.batches, 1, "one install wave, one batch");
    assert_eq!(bat.rta_passes, CPUS as u64, "one fixed point per CPU");
    assert_eq!(seq.batches, 0);
    assert_eq!(seq.rta_passes, 9, "one fixed point per candidate");

    // The batched evidence per CPU equals the evidence of the *last*
    // sequential pass on that CPU: both analyse the identical final task
    // set, so the WCRTs agree value for value.
    assert_eq!(bat.final_analysis, seq.final_analysis);
    assert_eq!(bat.final_analysis.len(), CPUS as usize);
    // One canonical event order: only the evidence payloads differ.
    assert_eq!(bat.order, seq.order);
    assert_ne!(
        bat.events, seq.events,
        "earlier candidates carry the wave's analysis"
    );
}

/// An overloaded wave the batch cannot admit whole: the batched executive
/// falls back to the sequential path inside the same round, so the two
/// runs are byte-identical — same events, same rejections, same ledger.
#[test]
fn unschedulable_batch_falls_back_to_sequential_byte_identically() {
    // CPU 0 receives 0.55 + 0.55: the second claim fails the analysis.
    let fleet: Vec<Spec> = vec![
        ("h0".into(), 100, 0, 2, 0.55),
        ("h1".into(), 100, 0, 3, 0.55),
        ("ok".into(), 100, 1, 2, 0.10),
    ];
    let seq = run(&fleet, 99, false);
    let bat = run(&fleet, 99, true);

    assert_eq!(bat.batches, 0, "an unschedulable batch never commits");
    assert!(seq.rejections > 0, "overload case must actually reject");
    assert_eq!(bat.active, seq.active);
    assert_eq!(bat.rejections, seq.rejections);
    assert_eq!(bat.utilization_bits, seq.utilization_bits);
    assert_eq!(bat.events, seq.events, "fallback must replay sequentially");
    // Parking rejected waiters can only save passes over the oracle.
    assert!(
        bat.rta_passes <= seq.rta_passes,
        "fallback ran more RTA passes ({} > {})",
        bat.rta_passes,
        seq.rta_passes
    );
}

/// Randomized fleets: for any mix of placements, priorities, and loads,
/// batched and sequential admission agree on the admit/reject set and the
/// ledger — and whenever the batch commits, its per-CPU evidence matches
/// the final sequential analysis. The sample must exercise both the
/// committed-batch and fallback paths.
#[test]
fn randomized_fleets_agree_between_batched_and_sequential() {
    let mut rng = SimRng::from_seed(0xBA7C);
    let (mut committed, mut fell_back) = (0u32, 0u32);
    for case in 0..30u64 {
        let n = rng.uniform_u64(3, 10) as usize;
        let fleet: Vec<Spec> = (0..n)
            .map(|i| {
                let freq = [50u32, 100, 200, 250][rng.uniform_u64(0, 4) as usize];
                let cpu = rng.uniform_u64(0, u64::from(CPUS)) as u32;
                let prio = rng.uniform_u64(1, 6) as u8;
                // A quarter of the candidates are heavy enough that small
                // clusters overload a CPU and force rejections.
                let usage = if rng.uniform_u64(0, 4) == 0 {
                    0.45 + rng.uniform() * 0.3
                } else {
                    0.03 + rng.uniform() * 0.2
                };
                (format!("c{i}"), freq, cpu, prio, usage)
            })
            .collect();

        let seq = run(&fleet, 500 + case, false);
        let bat = run(&fleet, 500 + case, true);

        assert_eq!(
            bat.active, seq.active,
            "case {case}: admit/reject sets diverged"
        );
        assert_eq!(
            bat.utilization_bits, seq.utilization_bits,
            "case {case}: ledgers diverged"
        );
        assert_eq!(
            bat.rejections, seq.rejections,
            "case {case}: rejection counts diverged"
        );
        if bat.batches > 0 {
            committed += 1;
            assert_eq!(
                bat.rejections, 0,
                "case {case}: a committed batch rejects nothing"
            );
            assert_eq!(
                bat.final_analysis, seq.final_analysis,
                "case {case}: batched evidence diverged from the final sequential analysis"
            );
            assert_eq!(bat.order, seq.order, "case {case}: event order diverged");
            let cpus_used: std::collections::BTreeSet<u32> =
                fleet.iter().map(|spec| spec.2).collect();
            assert_eq!(
                bat.rta_passes,
                cpus_used.len() as u64,
                "case {case}: committed batch must run one pass per occupied CPU"
            );
        } else {
            fell_back += 1;
            assert_eq!(
                bat.events, seq.events,
                "case {case}: fallback must be byte-identical to sequential"
            );
            assert!(
                bat.rta_passes <= seq.rta_passes,
                "case {case}: fallback ran more RTA passes ({} > {})",
                bat.rta_passes,
                seq.rta_passes
            );
        }
    }
    assert!(committed > 0, "sample never committed a batch");
    assert!(fell_back > 0, "sample never exercised the fallback");
}

/// Every admission check is counted as exactly one ruling — an evaluation,
/// or a batched admission — on the sequential path, in a
/// committed batch, and after a declined one.
#[test]
fn every_admission_check_counts_as_exactly_one_ruling() {
    let schedulable: Vec<Spec> = (0..6)
        .map(|i| (format!("s{i}"), 100, i % CPUS, (1 + i) as u8, 0.05))
        .collect();
    let overloaded: Vec<Spec> = vec![
        ("h0".into(), 100, 0, 2, 0.55),
        ("h1".into(), 100, 0, 3, 0.55),
    ];
    let committed = run(&schedulable, 3, true);
    let declined = run(&overloaded, 3, true);
    let sequential = run(&schedulable, 3, false);

    assert_eq!((committed.batches, committed.declined), (1, 0));
    assert_eq!((declined.batches, declined.declined), (0, 1));
    assert_eq!((sequential.batches, sequential.declined), (0, 0));
    for (path, o) in [
        ("committed", &committed),
        ("declined", &declined),
        ("sequential", &sequential),
    ] {
        assert!(o.checks > 0, "{path}: nothing was ruled");
        assert_eq!(o.checks, o.ruled, "{path}: checks != evals + batched");
    }
}

/// A later arrival that outranks an earlier one on the same CPU: the
/// batched wave records the earlier member's WCRT in the final task set,
/// with the later member's interference, where the sequential pass records
/// it before the later member joined. Both end on the same final analysis;
/// the `drcr.admission.wcrt_ns` observations differ.
#[test]
fn batched_wcrt_observations_are_final_set_response_times() {
    // Sweep order is name order: `late` (priority 5) is ruled before
    // `urgent` (priority 1).
    let fleet: Vec<Spec> = vec![
        ("late".into(), 100, 0, 5, 0.2),
        ("urgent".into(), 100, 0, 1, 0.2),
    ];
    let seq = run(&fleet, 8, false);
    let bat = run(&fleet, 8, true);

    assert_eq!(bat.batches, 1);
    assert_eq!(bat.active, seq.active);
    assert_eq!(bat.final_analysis, seq.final_analysis);
    let final_sum: u128 = bat.final_analysis[&0]
        .1
        .iter()
        .map(|w| u128::from(w.wcrt_ns))
        .sum();
    assert_eq!(
        bat.wcrt_sum, final_sum,
        "batched observations are the final analysis"
    );
    assert!(
        seq.wcrt_sum < bat.wcrt_sum,
        "sequential observes `late` before `urgent` interferes ({} vs {})",
        seq.wcrt_sum,
        bat.wcrt_sum
    );
}

/// A component on CPU 0 reading (`inport`) and/or writing (`outport`) one
/// shared-memory channel.
fn ported(name: &str, inport: Option<&str>, outport: Option<&str>) -> ComponentProvider {
    let mut b = ComponentDescriptor::builder(name)
        .periodic(100, 0, 3)
        .cpu_usage(0.05);
    if let Some(port) = inport {
        b = b.inport(port, PortInterface::Shm, DataType::Integer, 1);
    }
    if let Some(port) = outport {
        b = b.outport(port, PortInterface::Shm, DataType::Integer, 1);
    }
    ComponentProvider::new(b.build().unwrap(), || {
        Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
    })
}

/// A wave whose consumers read a channel another arrival provides. The
/// screen counts earlier passers active, so the committed batch activates
/// exactly what the sequential sweep does, in its order: `ncons` (after
/// its provider) joins the batch, `acons` (before it) waits for the next
/// sweep, as it would sequentially.
#[test]
fn wave_with_dependent_consumers_keeps_the_sequential_order() {
    let wave = || {
        vec![
            ("acons".to_string(), ported("acons", Some("feed"), None)),
            ("mprov".to_string(), ported("mprov", None, Some("feed"))),
            ("ncons".to_string(), ported("ncons", Some("feed"), None)),
            ("zsolo".to_string(), ported("zsolo", None, None)),
        ]
    };
    let seq = run_wave(wave(), 5, false, |_| {});
    let bat = run_wave(wave(), 5, true, |_| {});

    assert_eq!(seq.active.len(), 4, "every member activates sequentially");
    assert_eq!(bat.active, seq.active);
    assert_eq!(bat.utilization_bits, seq.utilization_bits);
    assert!(bat.batches >= 1, "the dependent wave still batches");
    assert_eq!(bat.order, seq.order, "batching reordered the events");
    assert_eq!(bat.final_analysis, seq.final_analysis);
}

/// A committed wave whose provider fails to activate (an unrelated kernel
/// object owns its channel with another shape): its consumer was screened
/// assuming the provider active, so the rest of the wave goes back to the
/// sequential path and the event order still matches the oracle's.
#[test]
fn activation_failure_inside_a_wave_hands_the_rest_to_the_sequential_path() {
    let wave = || {
        vec![
            ("mprov".to_string(), ported("mprov", None, Some("feed"))),
            ("ncons".to_string(), ported("ncons", Some("feed"), None)),
            ("zsolo".to_string(), ported("zsolo", None, None)),
        ]
    };
    let squat = |rt: &DrtRuntime| {
        rt.kernel_mut()
            .shm_mut()
            .alloc("feed", DataType::Byte, 99)
            .unwrap();
    };
    let seq = run_wave(wave(), 6, false, squat);
    let bat = run_wave(wave(), 6, true, squat);

    assert_eq!(seq.active, vec!["zsolo".to_string()]);
    assert_eq!(bat.active, seq.active);
    assert_eq!(bat.utilization_bits, seq.utilization_bits);
    assert!(bat.batches >= 1, "the wave committed before the failure");
    assert_eq!(
        bat.order, seq.order,
        "the failure path reordered the events"
    );
    assert!(bat
        .order
        .iter()
        .any(|e| e.contains("activation of `mprov` failed")));
}
