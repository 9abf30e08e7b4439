//! Response-time analysis (RTA): exact fixed-priority admission.
//!
//! The paper (§2.2) requires that "the resource budget should be enforced by
//! a central scheme", and §2.3 makes the admission *policy* pluggable via
//! customized resolving services. The built-in
//! [`UtilizationResolver`](crate::resolve::UtilizationResolver) is such a
//! policy, but a bare per-CPU utilization cap is the wrong shape for
//! fixed-priority scheduling: it **over-admits** (a low-priority task can
//! miss every deadline under a total utilization well below the cap) and
//! **under-admits** (harmonic task sets are schedulable right up to
//! utilization 1, far above any safe cap).
//!
//! [`RtaResolver`] replaces the cap with the exact test: per CPU, compute
//! every task's worst-case response time under preemptive fixed-priority
//! scheduling and admit only when each stays within its period (implicit
//! deadline). The WCET budget of a component is its declared claim,
//! `cpuusage × period`, inflated by the container's per-cycle overhead; the
//! standard recurrence
//!
//! ```text
//! R(i) = B + C(i) + Σ over j in hep(i) of ceil(R(i) / T(j)) · C(j)
//! ```
//!
//! iterates to a fixpoint, where `hep(i)` are the tasks on the same CPU with
//! higher **or equal** priority (the kernel breaks priority ties FIFO and
//! round-robins among peers, so an equal-priority job can be delayed by peer
//! jobs released inside its response window — counting them in the ceiling
//! interference term is the safe over-approximation), and `B` is a blocking
//! term covering the hybrid bridge's end-of-cycle command poll (§3.2): a
//! lower-priority task that has begun draining its command mailbox finishes
//! the pump before the scheduler runs anything else in a real RTAI
//! deployment, so one full pump of a bridge mailbox is charged to every
//! response time. See `DESIGN.md` for the constants' derivation.
//!
//! Aperiodic components carry no period, so the exact analysis is undefined
//! for them; like [`RmBoundResolver`](crate::resolve::RmBoundResolver), the
//! resolver falls back to the necessary condition (utilization ≤ 1) whenever
//! the CPU hosts any aperiodic claim.

use crate::lifecycle::ComponentState;
use crate::model::valid_claim;
use crate::resolve::{Decision, ResolvingService};
use crate::view::{ComponentInfo, SystemView};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;

/// Slack used for float comparisons, matching the built-in resolvers.
const EPS: f64 = 1e-9;

/// Fixpoint-iteration cap; the recurrence is strictly increasing until it
/// converges or exceeds the deadline, so this only guards pathological sets.
const MAX_ITERS: u32 = 100_000;

/// Cost-model constants for [`RtaParams::default`]. They mirror the
/// simulator's defaults (see `rtos::kernel::KernelConfig` and
/// `crate::hybrid::HybridRtBody`); a deployment with different kernel costs
/// should construct its own [`RtaParams`].
mod cost {
    /// Fixed per-cycle dispatch cost (`TaskConfig::base_cost` default).
    pub const BASE_NS: u64 = 1_000;
    /// Worst-case port-table indirection (`compute_about(350)` samples in
    /// `[175, 525)`).
    pub const INDIRECTION_NS: u64 = 525;
    /// One mailbox operation (`KernelConfig::mbx_op_cost` default) — the
    /// empty end-of-cycle command poll every bridged task pays.
    pub const MBX_OP_NS: u64 = 180;
    /// Handling one queued management command beyond the mailbox ops.
    pub const CMD_HANDLE_NS: u64 = 250;
    /// Bridge command-mailbox capacity (the DRCR creates them 16 deep).
    pub const CMD_MBX_DEPTH: u64 = 16;
}

/// Per-cycle container overhead of a bridged task in the default cost
/// model: base cost + worst-case indirection + one empty poll. Admission
/// charges it on top of the declared claim, and the contract monitor judges
/// a component's cost net of it (see [`crate::contracts`]).
pub const CONTAINER_OVERHEAD_NS: u64 = cost::BASE_NS + cost::INDIRECTION_NS + cost::MBX_OP_NS;

/// Tuning constants of the analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtaParams {
    /// Per-cycle container overhead added to every task's WCET budget, in
    /// nanoseconds: the declared claim covers the component's *logic*, not
    /// the dispatch cost, port-table indirection and empty command poll the
    /// container adds around it.
    pub overhead_ns: u64,
    /// Blocking term added to every response time, in nanoseconds: the
    /// longest end-of-cycle command pump a lower-priority task can be
    /// committed to when a higher-priority job is released.
    pub blocking_ns: u64,
}

impl Default for RtaParams {
    /// Conservative defaults derived from the simulator's cost model:
    /// overhead = [`CONTAINER_OVERHEAD_NS`];
    /// blocking = one full pump of a 16-deep command mailbox, each command
    /// costing a receive, its handling, and a reply send.
    fn default() -> Self {
        RtaParams {
            overhead_ns: CONTAINER_OVERHEAD_NS,
            blocking_ns: cost::CMD_MBX_DEPTH
                * (cost::MBX_OP_NS + cost::CMD_HANDLE_NS + cost::MBX_OP_NS),
        }
    }
}

impl RtaParams {
    /// The pure textbook analysis: no container overhead, no blocking term.
    /// Useful for boundary cases (a single task claiming exactly 100% is
    /// schedulable only when nothing is charged around it) and for
    /// comparing against hand-computed recurrences.
    pub fn exact() -> Self {
        RtaParams {
            overhead_ns: 0,
            blocking_ns: 0,
        }
    }
}

/// One task's computed worst-case response time, analysed with the WCET
/// budget `ceil(cpuusage × period) + overhead`. Kept to three fields: every
/// admission ruling under response-time analysis carries one row per task
/// on the CPU as evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskWcrt {
    /// Component name.
    pub name: Rc<str>,
    /// The computed response time. When [`TaskWcrt::ok`] is false this is
    /// the first recurrence value past the deadline (evidence, not a
    /// fixpoint).
    pub wcrt_ns: u64,
    /// Implicit deadline (the period).
    pub deadline_ns: u64,
}

impl TaskWcrt {
    /// Whether the task meets its deadline: `wcrt_ns <= deadline_ns`.
    pub fn ok(&self) -> bool {
        self.wcrt_ns <= self.deadline_ns
    }
}

/// Result of analysing one hypothetical task set (candidate included).
#[derive(Debug, Clone, PartialEq)]
pub struct RtaAnalysis {
    /// The CPU analysed.
    pub cpu: u32,
    /// Whether every task (existing and candidate) meets its deadline.
    pub schedulable: bool,
    /// Per-task response times, priority order (empty on the aperiodic
    /// utilization fallback). Shared, so the evidence events and the wait
    /// reports carrying them cost a reference count, not a copy.
    pub wcrts: Rc<[TaskWcrt]>,
    /// Why the set is unschedulable, when it is.
    pub reason: Option<String>,
}

impl RtaAnalysis {
    /// The computed WCRT of one task, when the exact analysis ran.
    pub fn wcrt_of(&self, name: &str) -> Option<u64> {
        self.wcrts
            .iter()
            .find(|w| &*w.name == name)
            .map(|w| w.wcrt_ns)
    }
}

/// The RTA resolving service. Handed to an engine as its internal policy
/// (`DrtRuntime::with_resolver(cfg, Box::new(RtaResolver::default()))`) it
/// also yields analysis evidence ([`ResolvingService::rule`]) and batched
/// wave admission ([`ResolvingService::admit_batch`]); registered as a
/// customized resolving service (paper §2.3) it vetoes like any other
/// policy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RtaResolver {
    params: RtaParams,
}

impl fmt::Display for RtaResolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "response-time (overhead {} ns, blocking {} ns)",
            self.params.overhead_ns, self.params.blocking_ns
        )
    }
}

/// Internal task model fed to the recurrence.
struct TaskModel {
    name: Rc<str>,
    priority: u8,
    period_ns: u64,
    wcet_ns: u64,
}

impl RtaResolver {
    /// A resolver with explicit parameters.
    pub fn new(params: RtaParams) -> Self {
        RtaResolver { params }
    }

    /// The parameters in force.
    pub fn params(&self) -> RtaParams {
        self.params
    }

    /// Runs the full analysis for the candidate's CPU: the hypothetical
    /// task set is every admission holder on that CPU plus the candidate.
    ///
    /// Existing tasks are re-analysed too — a candidate with a more urgent
    /// priority steals cycles from everything below it, so admitting it may
    /// break an already-admitted contract even when its own response time
    /// fits.
    pub fn analyze(&self, candidate: &ComponentInfo, view: &SystemView) -> RtaAnalysis {
        let cpu = candidate.cpu;
        if !valid_claim(candidate.cpu_usage) {
            return RtaAnalysis {
                cpu,
                schedulable: false,
                wcrts: Rc::from([]),
                reason: Some(format!(
                    "RTA: invalid cpuusage claim {} (must be in [2^-48, 1])",
                    candidate.cpu_usage
                )),
            };
        }

        // Aperiodic claims have no period: fall back to the necessary
        // utilization condition for the whole CPU.
        let aperiodic_present =
            !candidate.is_periodic() || view.admitted_sorted(cpu).any(|c| !c.is_periodic());
        if aperiodic_present {
            let u = view.utilization(cpu) + candidate.cpu_usage;
            let schedulable = u <= 1.0 + EPS;
            return RtaAnalysis {
                cpu,
                schedulable,
                wcrts: Rc::from([]),
                reason: (!schedulable).then(|| {
                    format!("RTA (aperiodic fallback): utilization {u:.3} > 1 on CPU {cpu}")
                }),
            };
        }

        // Hypothetical set: admission holders on the CPU (already sorted by
        // priority, list order within ties) plus the candidate, placed last
        // among its priority peers — it arrives last, FIFO. An existing
        // claim the model cannot represent makes the whole set
        // unanalysable: nothing is proven, so nothing is admitted.
        let mut models: Vec<TaskModel> = Vec::new();
        for c in view
            .admitted_sorted(cpu)
            .filter(|c| *c.name != *candidate.name)
        {
            match self.model_of(c) {
                Ok(m) => models.push(m),
                Err(why) => return inconclusive(cpu, why),
            }
        }
        let insert_at = models
            .iter()
            .position(|m| m.priority > candidate.priority)
            .unwrap_or(models.len());
        match self.model_of(candidate) {
            Ok(m) => models.insert(insert_at, m),
            Err(why) => return inconclusive(cpu, why),
        }

        let mut wcrts = Vec::with_capacity(models.len());
        let mut reason = None;
        for (i, task) in models.iter().enumerate() {
            let hep: Vec<(u64, u64)> = models
                .iter()
                .enumerate()
                .filter(|(j, other)| *j != i && other.priority <= task.priority)
                .map(|(_, other)| (other.period_ns, other.wcet_ns))
                .collect();
            let (wcrt_ns, ok) =
                match fixed_point(task.wcet_ns, self.params.blocking_ns, &hep, task.period_ns) {
                    Convergence::Converged(v) => (v, true),
                    Convergence::Miss(v) => (v, false),
                    Convergence::Inconclusive => {
                        return inconclusive(
                            cpu,
                            format!(
                            "response-time recurrence for `{}` on CPU {cpu} left the analysable \
                             range (overflow or iteration budget exhausted)",
                            task.name
                        ),
                        )
                    }
                };
            if !ok && reason.is_none() {
                reason = Some(format!(
                    "RTA: `{}` would miss its deadline on CPU {cpu}: response {} ns > period {} ns",
                    task.name, wcrt_ns, task.period_ns
                ));
            }
            wcrts.push(TaskWcrt {
                name: task.name.clone(),
                wcrt_ns,
                deadline_ns: task.period_ns,
            });
        }
        RtaAnalysis {
            cpu,
            schedulable: reason.is_none(),
            wcrts: wcrts.into(),
            reason,
        }
    }

    /// Admits a whole arrival batch in **one** fixed-point pass per CPU.
    ///
    /// Sequential admission of `K` candidates runs `K` analyses; this runs
    /// one per touched CPU, against the hypothetical view where all of that
    /// CPU's candidates except the last are already active, and analyses
    /// the last candidate — byte-identical to the `K`-th analysis the
    /// sequential path would produce. Returns `Some` only when that single
    /// pass provably implies every sequential prefix would also have been
    /// admitted:
    ///
    /// * **Exact mode** (all candidates on the CPU periodic, no admitted
    ///   aperiodic claim): adding a task never shortens another's response
    ///   time — interference terms only grow — so the full set being
    ///   schedulable implies every prefix is.
    /// * **Fallback mode** (an admitted aperiodic claim on the CPU, or all
    ///   candidates aperiodic): every sequential step uses the utilization
    ///   fallback, and claims are positive, so the full-set utilization
    ///   bounds every prefix.
    ///
    /// Mixed periodic/aperiodic candidates on a CPU with no admitted
    /// aperiodic claim switch analysis mode mid-sequence (order-dependent),
    /// and an unschedulable or invalid-claim batch may still admit a
    /// sequential prefix — both return `None`, and the caller falls back to
    /// per-candidate admission.
    pub fn analyze_batch(
        &self,
        candidates: &[ComponentInfo],
        view: &SystemView,
    ) -> Option<Vec<RtaAnalysis>> {
        if candidates.is_empty() {
            return None;
        }
        if candidates.iter().any(|c| !valid_claim(c.cpu_usage)) {
            return None;
        }
        // Group per CPU, preserving arrival (sweep) order within each group.
        let mut groups: BTreeMap<u32, Vec<&ComponentInfo>> = BTreeMap::new();
        for c in candidates {
            groups.entry(c.cpu).or_default().push(c);
        }
        for (&cpu, group) in &groups {
            let admitted_aperiodic = view.admitted_sorted(cpu).any(|c| !c.is_periodic());
            let all_periodic = group.iter().all(|c| c.is_periodic());
            let all_aperiodic = group.iter().all(|c| !c.is_periodic());
            if !(admitted_aperiodic || all_periodic || all_aperiodic) {
                return None;
            }
        }
        // One hypothetical view serves every CPU (cross-CPU components never
        // interact in the analysis): flip all candidates active except each
        // CPU's last, which stays the analysed candidate.
        let last_of: HashMap<u32, &str> = groups
            .iter()
            .map(|(cpu, group)| (*cpu, &*group[group.len() - 1].name))
            .collect();
        let mut hyp = view.clone();
        for c in candidates.iter().filter(|c| last_of[&c.cpu] != &*c.name) {
            if let Some(idx) = hyp.position(&c.name) {
                hyp.set_state_at(idx, ComponentState::Active);
            }
        }
        let mut analyses = Vec::with_capacity(groups.len());
        for group in groups.values() {
            let analysis = self.analyze(group[group.len() - 1], &hyp);
            if !analysis.schedulable {
                return None;
            }
            analyses.push(analysis);
        }
        Some(analyses)
    }

    /// Builds the recurrence model for one task, or explains why the task
    /// cannot be modelled. Existing components are validated too: a claim
    /// that slipped past admission (or was mutated afterwards) must poison
    /// the analysis as *inconclusive*, never silently saturate the `u64`
    /// cast and produce a plausible-looking WCET.
    fn model_of(&self, c: &ComponentInfo) -> Result<TaskModel, String> {
        let period_ns = c.period_ns.expect("periodic component");
        if !valid_claim(c.cpu_usage) {
            return Err(format!(
                "component `{}` carries an invalid cpuusage claim {} (must be in [2^-48, 1])",
                c.name, c.cpu_usage
            ));
        }
        let claim = (c.cpu_usage * period_ns as f64).ceil();
        if !claim.is_finite() || claim < 0.0 || claim >= u64::MAX as f64 {
            return Err(format!(
                "claim of `{}` ({claim}) does not fit the analysis range",
                c.name
            ));
        }
        let wcet_ns = (claim as u64)
            .checked_add(self.params.overhead_ns)
            .ok_or_else(|| {
                format!(
                    "WCET of `{}` overflows once container overhead is charged",
                    c.name
                )
            })?;
        Ok(TaskModel {
            name: c.name.clone(),
            priority: c.priority,
            period_ns,
            wcet_ns,
        })
    }
}

/// A typed "analysis inconclusive ⇒ inadmissible" rejection: the task set
/// could not be analysed (invalid claim, arithmetic overflow, iteration
/// budget), so schedulability is unproven and the candidate is rejected.
fn inconclusive(cpu: u32, why: String) -> RtaAnalysis {
    RtaAnalysis {
        cpu,
        schedulable: false,
        wcrts: Rc::from([]),
        reason: Some(format!("RTA: analysis inconclusive, rejecting: {why}")),
    }
}

impl ResolvingService for RtaResolver {
    fn name(&self) -> &str {
        "response-time"
    }

    fn admit(&self, candidate: &ComponentInfo, view: &SystemView) -> Decision {
        self.rule(candidate, view).0
    }

    /// The analysis reads only the admission holders of the candidate's
    /// CPU, so a verdict stays valid until that set or a claim on it
    /// changes.
    fn cacheable(&self) -> bool {
        true
    }

    fn rule(
        &self,
        candidate: &ComponentInfo,
        view: &SystemView,
    ) -> (Decision, Option<RtaAnalysis>) {
        let analysis = self.analyze(candidate, view);
        let decision = if analysis.schedulable {
            Decision::Admit
        } else {
            Decision::Reject(
                analysis
                    .reason
                    .clone()
                    .unwrap_or_else(|| "RTA: unschedulable".to_string()),
            )
        };
        (decision, Some(analysis))
    }

    fn batches(&self) -> bool {
        true
    }

    fn admit_batch(
        &self,
        candidates: &[ComponentInfo],
        view: &SystemView,
    ) -> Option<Vec<RtaAnalysis>> {
        self.analyze_batch(candidates, view)
    }
}

/// Outcome of the fixpoint iteration for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Convergence {
    /// The recurrence converged within the deadline (the fixpoint).
    Converged(u64),
    /// The first recurrence value past the deadline (evidence, not a
    /// fixpoint).
    Miss(u64),
    /// The recurrence left the range the analysis can reason about —
    /// interference arithmetic overflowed, a value no longer fits `u64`,
    /// or the iteration budget ran out before convergence. Nothing is
    /// proven either way; the caller must treat the set as inadmissible
    /// rather than report a clamped number as a response time.
    Inconclusive,
}

/// The fixpoint iteration for one task. All interference arithmetic is
/// checked: an overflow is an [`Convergence::Inconclusive`] verdict, never
/// a silently clamped response time.
fn fixed_point(wcet: u64, blocking: u64, hep: &[(u64, u64)], deadline: u64) -> Convergence {
    let base = blocking as u128 + wcet as u128;
    let mut r = base;
    for _ in 0..MAX_ITERS {
        if r > deadline as u128 {
            return match u64::try_from(r) {
                Ok(v) => Convergence::Miss(v),
                Err(_) => Convergence::Inconclusive,
            };
        }
        let mut next = base;
        for &(period, c) in hep {
            let jobs = r.div_ceil(period.max(1) as u128);
            let Some(term) = jobs.checked_mul(c as u128) else {
                return Convergence::Inconclusive;
            };
            let Some(sum) = next.checked_add(term) else {
                return Convergence::Inconclusive;
            };
            next = sum;
        }
        if next == r {
            // A fixpoint at or under the deadline always fits u64.
            return Convergence::Converged(r as u64);
        }
        r = next;
    }
    Convergence::Inconclusive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::ComponentState;

    fn comp(
        name: &str,
        state: ComponentState,
        usage: f64,
        prio: u8,
        period_ms: u64,
    ) -> ComponentInfo {
        ComponentInfo {
            name: name.into(),
            state,
            cpu: 0,
            cpu_usage: usage,
            priority: prio,
            period_ns: Some(period_ms * 1_000_000),
        }
    }

    fn aper(name: &str, state: ComponentState, usage: f64, prio: u8) -> ComponentInfo {
        ComponentInfo {
            name: name.into(),
            state,
            cpu: 0,
            cpu_usage: usage,
            priority: prio,
            period_ns: None,
        }
    }

    #[test]
    fn textbook_recurrence_matches_hand_computation() {
        // C=2.2ms T=8ms under a C=3ms T=5ms interferer:
        // R0 = 2.2 -> 2.2 + 1*3 = 5.2 -> 2.2 + 2*3 = 8.2 > 8: miss.
        let out = fixed_point(2_200_000, 0, &[(5_000_000, 3_000_000)], 8_000_000);
        assert_eq!(out, Convergence::Miss(8_200_000));
        // C=2ms fits: R = 2 + 1*3 = 5 -> fixpoint.
        let out = fixed_point(2_000_000, 0, &[(5_000_000, 3_000_000)], 8_000_000);
        assert_eq!(out, Convergence::Converged(5_000_000));
    }

    #[test]
    fn blocking_term_is_charged() {
        // Alone, C=5 fits a 10 deadline; with blocking 6 it does not.
        assert_eq!(fixed_point(5, 0, &[], 10), Convergence::Converged(5));
        assert_eq!(fixed_point(5, 6, &[], 10), Convergence::Miss(11));
    }

    #[test]
    fn recurrence_converges_exactly_at_the_deadline() {
        // R == deadline is schedulable (implicit deadline, inclusive).
        assert_eq!(fixed_point(10, 0, &[], 10), Convergence::Converged(10));
    }

    #[test]
    fn overflowing_recurrence_is_inconclusive_not_clamped() {
        // base = blocking + wcet ≈ 2^65 no longer fits u64: the old code
        // clamped this to u64::MAX and reported it as a miss "evidence"
        // value; now the verdict is typed as inconclusive.
        assert_eq!(
            fixed_point(u64::MAX, u64::MAX, &[], 10),
            Convergence::Inconclusive
        );
        // Interference product overflow inside the iteration.
        assert_eq!(
            fixed_point(u64::MAX, u64::MAX, &[(1, u64::MAX)], u64::MAX),
            Convergence::Inconclusive
        );
    }

    #[test]
    fn invalid_existing_claim_poisons_the_analysis_typed() {
        // The *candidate* is valid; an already-admitted component carries a
        // NaN claim (slipped in through a mutated view). The old model
        // builder saturated `NaN as u64` to 0 and analysed garbage; the
        // analysis must now reject as inconclusive with a typed reason.
        let mut sick = comp("sick", ComponentState::Active, 0.5, 1, 10);
        sick.cpu_usage = f64::NAN;
        let candidate = comp("ok", ComponentState::Unsatisfied, 0.1, 3, 10);
        let view = SystemView::new(1, vec![sick, candidate.clone()]);
        let rta = RtaResolver::default();
        let analysis = rta.analyze(&candidate, &view);
        assert!(!analysis.schedulable);
        assert!(analysis.wcrts.is_empty());
        let reason = analysis.reason.as_deref().unwrap();
        assert!(reason.contains("inconclusive"), "{reason}");
        assert!(reason.contains("`sick`"), "{reason}");
        let d = rta.admit(&candidate, &view);
        assert!(!d.is_admit());
        assert!(d.to_string().contains("inconclusive"), "{d}");
    }

    #[test]
    fn wcet_overhead_overflow_is_inconclusive() {
        // A full-period claim at a period near u64::MAX overflows once the
        // container overhead is added; the typed rejection names the task.
        let candidate = ComponentInfo {
            name: "huge".into(),
            state: ComponentState::Unsatisfied,
            cpu: 0,
            cpu_usage: 1.0,
            priority: 1,
            period_ns: Some(u64::MAX),
        };
        let view = SystemView::new(1, vec![candidate.clone()]);
        let rta = RtaResolver::default();
        let analysis = rta.analyze(&candidate, &view);
        assert!(!analysis.schedulable);
        assert!(
            analysis.reason.as_deref().unwrap().contains("inconclusive"),
            "{:?}",
            analysis.reason
        );
    }

    #[test]
    fn full_utilization_single_task_admitted_under_exact_params() {
        let rta = RtaResolver::new(RtaParams::exact());
        let candidate = comp("solo", ComponentState::Unsatisfied, 1.0, 3, 10);
        let view = SystemView::new(1, vec![candidate.clone()]);
        assert!(rta.admit(&candidate, &view).is_admit());
        let analysis = rta.analyze(&candidate, &view);
        assert_eq!(analysis.wcrt_of("solo"), Some(10_000_000));
    }

    #[test]
    fn full_utilization_single_task_rejected_once_overhead_counts() {
        // The claim covers only the logic; with container overhead added a
        // 100% claim no longer fits its period.
        let rta = RtaResolver::default();
        let candidate = comp("solo", ComponentState::Unsatisfied, 1.0, 3, 10);
        let view = SystemView::new(1, vec![candidate.clone()]);
        let analysis = rta.analyze(&candidate, &view);
        assert!(!analysis.schedulable);
        assert!(analysis.reason.as_deref().unwrap_or("").contains("solo"));
    }

    #[test]
    fn harmonic_set_admitted_beyond_any_safe_cap() {
        // 0.96 total utilization over harmonic periods: exact analysis
        // admits, any cap at or below 0.9 would reject the tail.
        let existing: Vec<ComponentInfo> = (0..4)
            .map(|i| comp(&format!("f{i}"), ComponentState::Active, 0.08, 1, 5))
            .chain((0..4).map(|i| comp(&format!("m{i}"), ComponentState::Active, 0.08, 2, 10)))
            .chain((0..3).map(|i| comp(&format!("s{i}"), ComponentState::Active, 0.08, 3, 20)))
            .collect();
        let candidate = comp("s3", ComponentState::Unsatisfied, 0.08, 3, 20);
        let mut all = existing;
        all.push(candidate.clone());
        let view = SystemView::new(1, all);
        let rta = RtaResolver::default();
        let analysis = rta.analyze(&candidate, &view);
        assert!(analysis.schedulable, "{:?}", analysis.reason);
        assert_eq!(analysis.wcrts.len(), 12);
        // The lowest-priority tasks see nearly the whole hyperperiod load.
        let worst = analysis.wcrts.iter().map(|w| w.wcrt_ns).max().unwrap();
        assert!(worst > 19_000_000 && worst <= 20_000_000, "worst {worst}");
    }

    #[test]
    fn candidate_breaking_an_existing_task_is_rejected() {
        // The candidate itself fits, but it preempts the incumbent below it
        // into a miss: admission must re-check the whole CPU.
        let incumbent = comp("low", ComponentState::Active, 0.4, 5, 10);
        let candidate = comp("hp", ComponentState::Unsatisfied, 0.65, 1, 10);
        let view = SystemView::new(1, vec![incumbent, candidate.clone()]);
        let rta = RtaResolver::new(RtaParams::exact());
        let analysis = rta.analyze(&candidate, &view);
        assert!(!analysis.schedulable);
        assert!(analysis.reason.as_deref().unwrap().contains("`low`"));
        // The candidate's own response time is fine.
        let own = analysis.wcrts.iter().find(|w| &*w.name == "hp").unwrap();
        assert!(own.ok());
    }

    #[test]
    fn aperiodic_candidate_falls_back_to_utilization() {
        let rta = RtaResolver::default();
        let existing = comp("p", ComponentState::Active, 0.5, 2, 10);
        let ok = aper("evt", ComponentState::Unsatisfied, 0.4, 4);
        let view = SystemView::new(1, vec![existing.clone(), ok.clone()]);
        assert!(rta.admit(&ok, &view).is_admit());
        let hog = aper("hog", ComponentState::Unsatisfied, 0.6, 4);
        let view = SystemView::new(1, vec![existing, hog.clone()]);
        let d = rta.admit(&hog, &view);
        assert!(!d.is_admit());
        assert!(d.to_string().contains("aperiodic fallback"), "{d}");
    }

    #[test]
    fn invalid_claims_rejected_not_propagated() {
        let rta = RtaResolver::default();
        let view = SystemView::new(1, vec![]);
        for bad in [f64::NAN, f64::INFINITY, -0.25, 0.0, 1.5] {
            let mut c = comp("bad", ComponentState::Unsatisfied, 0.5, 2, 10);
            c.cpu_usage = bad;
            assert!(!rta.admit(&c, &view).is_admit(), "claim {bad} admitted");
        }
    }

    #[test]
    fn analysis_is_deterministic_and_display_renders() {
        let candidate = comp("a", ComponentState::Unsatisfied, 0.3, 2, 10);
        let view = SystemView::new(1, vec![candidate.clone()]);
        let rta = RtaResolver::default();
        assert_eq!(
            rta.analyze(&candidate, &view),
            rta.analyze(&candidate, &view)
        );
        assert!(rta.to_string().contains("response-time"));
        assert_eq!(rta.name(), "response-time");
    }

    #[test]
    fn only_a_response_time_policy_admits_a_wave_whole() {
        let mut a = comp("a", ComponentState::Unsatisfied, 0.2, 2, 1);
        let mut b = comp("b", ComponentState::Unsatisfied, 0.2, 2, 1);
        let mut c = comp("c", ComponentState::Unsatisfied, 0.2, 2, 1);
        c.cpu = 1;
        let view = SystemView::new(2, vec![a.clone(), b.clone(), c.clone()]);
        let wave = [a.clone(), b.clone(), c.clone()];
        assert!(crate::resolve::AlwaysAdmit
            .admit_batch(&wave, &view)
            .is_none());
        let analyses = RtaResolver::default()
            .admit_batch(&wave, &view)
            .expect("schedulable batch admits in one pass");
        assert_eq!(analyses.len(), 2, "one analysis per touched CPU");
        assert_eq!(analyses[0].cpu, 0);
        assert_eq!(analyses[1].cpu, 1);
        assert!(analyses.iter().all(|a| a.schedulable));
        a.cpu_usage = 0.7;
        b.cpu_usage = 0.7;
        let view = SystemView::new(2, vec![a.clone(), b.clone()]);
        assert!(RtaResolver::default().admit_batch(&[a, b], &view).is_none());
    }
}
