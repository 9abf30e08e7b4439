//! Contract monitoring: making declared CPU claims binding, and learning
//! the real ones.
//!
//! The paper argues that "the resource budget should be 'enforced' by a
//! central scheme rather than by each single bundle" (§2.1). Admission
//! alone only checks claims at activation; two central mechanisms act on
//! a component whose real demand disagrees with its declared `cpuusage`:
//!
//! * **Kernel budgets** — [`crate::drcr::Drcr::set_budget_enforcement`]
//!   gives every periodic task a per-cycle execution budget of
//!   `cpuusage × period` plus the container overhead admission charges
//!   ([`CONTAINER_OVERHEAD_NS`]); the kernel clamps overruns.
//! * **The contract monitor** — [`StochasticMonitor`] keeps one
//!   [`UsageEstimator`] per component, fed from the kernel's per-task
//!   `(cycles, cpu_time)` accounting:
//!   * **Estimation** — each poll folds the window's mean per-cycle cost,
//!     as a fixed-point fraction of the period, into a log-linear
//!     [`Histogram`] weighted by the window's cycles. Every input is
//!     virtual-time/counter derived, so replay stays byte-identical.
//!   * **Verdicts** — the monitor tracks the *rate* of over-claim cycles
//!     and convicts only when a one-sided Hoeffding bound puts the true
//!     rate above `p_max` with confidence `1 − delta`:
//!     `p̂ − sqrt(ln(1/δ) / 2n) > p_max`. A pure function of counts — no
//!     clock, no randomness.
//!   * **Claim refinement** — once enough cycles are observed and the
//!     component is *not* in violation, a conservative quantile of the
//!     measured cost (upper bucket edge × safety margin) is published as a
//!     refined claim through [`crate::runtime::DrtRuntime::refine_claim`],
//!     which re-runs admission via [`crate::resolve::Resolver::on_contract_changed`].
//!     Over-declarers hand back their stranded capacity; peers that were
//!     rejected against the inflated claim re-admit.
//!
//! The point verdict — judge one polled window against the claim — is the
//! degenerate stochastic contract, not a second monitor:
//! [`LearningConfig::point`] sets `p_max = 0` and `delta = 1` (so the
//! Hoeffding slack is 0) and `refine_ratio = 0`, which convicts on the
//! first polled window whose mean per-cycle cost exceeds the claim.
//!
//! Admission charges the container's per-cycle work
//! ([`CONTAINER_OVERHEAD_NS`]) on top of the claim, so verdicts judge the
//! cost net of it: a component whose logic burns exactly its claim is
//! legal.
//!
//! Under-declarers are convicted: with `quarantine` on, a violation routes
//! through the supervise policy path ([`crate::drcr::Drcr::quarantine_reason`]
//! keeps the typed evidence) exactly like a fault-storm quarantine, so
//! enforcement and supervision stay one vocabulary.

use crate::error::DrcrError;
use crate::lifecycle::ComponentState;
use crate::obs::DrcrEvent;
use crate::rta::CONTAINER_OVERHEAD_NS;
use crate::runtime::DrtRuntime;
use rtos::hist::Histogram;
use rtos::time::SimDuration;
use std::collections::HashMap;
use std::rc::Rc;

/// Fixed-point scale of a recorded per-cycle cost: `1 << FRACTION_BITS`
/// is the whole period.
const FRACTION_BITS: u32 = 12;

/// Tuning for the estimator and the refinement loop.
#[derive(Debug, Clone)]
pub struct LearningConfig {
    /// Cost quantile published as the refined claim (upper bucket edge),
    /// in `(0, 1]`.
    pub quantile: f64,
    /// Safety multiplier applied on top of the quantile; finite and `> 0`.
    pub margin: f64,
    /// Cycles observed before a refinement may be published.
    pub min_samples: u64,
    /// Publish only when `refined < declared × refine_ratio` — hysteresis
    /// against churn from marginal improvements. In `[0, 1]`; 0 never
    /// refines.
    pub refine_ratio: f64,
    /// Tolerated true rate of over-claim cycles, in `[0, 1)`.
    pub p_max: f64,
    /// One-sided confidence parameter, in `(0, 1]`: convict only when the
    /// bound holds with probability ≥ `1 − delta`.
    pub delta: f64,
    /// Quarantine violators through the supervise path (else verdicts are
    /// only recorded and reported).
    pub quarantine: bool,
}

impl Default for LearningConfig {
    fn default() -> Self {
        LearningConfig {
            quantile: 0.99,
            margin: 1.10,
            min_samples: 256,
            refine_ratio: 0.90,
            p_max: 0.05,
            delta: 1e-9,
            quarantine: true,
        }
    }
}

impl LearningConfig {
    /// The point verdict: convict on the first polled window whose mean
    /// per-cycle cost exceeds the claim (a cost exactly at the claim is
    /// legal), never refine.
    pub fn point(quarantine: bool) -> Self {
        LearningConfig {
            p_max: 0.0,
            delta: 1.0,
            refine_ratio: 0.0,
            quarantine,
            ..LearningConfig::default()
        }
    }

    /// Checks every field against its domain. Outside it a verdict would be
    /// silently disabled (a `delta` above 1 makes the Hoeffding slack NaN,
    /// which never convicts) or a quantile silently clamped.
    ///
    /// # Errors
    ///
    /// [`DrcrError::BadLearningConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<(), DrcrError> {
        let checks: [(&'static str, f64, bool, &'static str); 5] = [
            (
                "delta",
                self.delta,
                self.delta > 0.0 && self.delta <= 1.0,
                "(0, 1]",
            ),
            (
                "p_max",
                self.p_max,
                (0.0..1.0).contains(&self.p_max),
                "[0, 1)",
            ),
            (
                "quantile",
                self.quantile,
                self.quantile > 0.0 && self.quantile <= 1.0,
                "(0, 1]",
            ),
            (
                "margin",
                self.margin,
                self.margin.is_finite() && self.margin > 0.0,
                "(0, ∞)",
            ),
            (
                "refine_ratio",
                self.refine_ratio,
                (0.0..=1.0).contains(&self.refine_ratio),
                "[0, 1]",
            ),
        ];
        match checks.into_iter().find(|&(_, _, ok, _)| !ok) {
            Some((field, value, _, domain)) => Err(DrcrError::BadLearningConfig {
                field,
                value,
                domain,
            }),
            None => Ok(()),
        }
    }
}

/// Online per-component execution-cost estimator: a histogram of per-cycle
/// cost fractions plus over-claim rate counters. All state advances on
/// kernel counters (virtual time), never the host clock.
#[derive(Debug, Clone)]
pub struct UsageEstimator {
    /// Mean per-cycle cost of each polled window as a fixed-point fraction
    /// of the period (`1 << FRACTION_BITS` = the whole period), rounded up
    /// and weighted by the window's cycles.
    costs: Histogram,
    /// Cycles judged against the current claim (rebased on claim change).
    checked: u64,
    /// Of those, cycles whose cost exceeded the claim.
    over: u64,
    /// Last `(task_cycles, task_cpu_time)` reading, or `None` after a
    /// lifecycle reset (fresh task ⇒ fresh accounting).
    baseline: Option<(u64, SimDuration)>,
    /// The claim the rate counters are judged against.
    claimed: f64,
}

impl UsageEstimator {
    fn new(claimed: f64) -> Self {
        UsageEstimator {
            costs: Histogram::new(),
            checked: 0,
            over: 0,
            baseline: None,
            claimed,
        }
    }

    /// Folds a window of `cycles` cycles that together used `cpu` of CPU
    /// time, each cycle `period_ns` long, into the histogram and the
    /// over-claim counters.
    ///
    /// The histogram records the whole cost, container included, so a
    /// refined claim also covers the container. The verdict judges the
    /// cost net of [`CONTAINER_OVERHEAD_NS`] per cycle, which admission
    /// charges outside the claim: the window's cycles count as over the
    /// claim when their mean net cost strictly exceeds it.
    pub fn observe(&mut self, cpu: SimDuration, cycles: u64, period_ns: u64) {
        if cycles == 0 || period_ns == 0 {
            return;
        }
        let cpu_ns = cpu.as_nanos();
        let fixed = cpu_ns
            .div_ceil(cycles)
            .saturating_mul(1 << FRACTION_BITS)
            .div_ceil(period_ns);
        self.costs.record_n(fixed, cycles);
        self.checked += cycles;
        let net_ns = cpu_ns.saturating_sub(cycles.saturating_mul(CONTAINER_OVERHEAD_NS));
        if net_ns as f64 / cycles as f64 / period_ns as f64 > self.claimed {
            self.over += cycles;
        }
    }

    /// Total cycles observed.
    pub fn samples(&self) -> u64 {
        self.costs.count()
    }

    /// Observed over-claim cycle rate `p̂` (0 when nothing was checked).
    pub fn over_rate(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            self.over as f64 / self.checked as f64
        }
    }

    /// One-sided Hoeffding lower confidence bound on the true over-claim
    /// rate: `max(0, p̂ − sqrt(ln(1/δ) / 2n))`. Deterministic in the
    /// counts; `delta` must lie in `(0, 1]` ([`LearningConfig::validate`]).
    pub fn rate_lower_bound(&self, delta: f64) -> f64 {
        if self.checked == 0 {
            return 0.0;
        }
        let slack = ((1.0 / delta).ln() / (2.0 * self.checked as f64)).sqrt();
        (self.over_rate() - slack).max(0.0)
    }

    /// Conservative cost quantile as a fraction of the period: the upper
    /// edge of the histogram bucket holding rank `⌈q·n⌉` (1.0 when nothing
    /// was observed). Never below the observed quantile, and at most one
    /// bucket (`2^-S` relative, or one fixed-point step) above it.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        self.costs
            .quantile(q)
            .map_or(1.0, |v| v as f64 / (1u64 << FRACTION_BITS) as f64)
    }

    /// Restarts over-claim accounting against a new claim (after a
    /// refinement or an operator contract change). The learned cost
    /// histogram is kept — the component's demand did not change, only
    /// the yardstick.
    fn rebase(&mut self, claimed: f64) {
        self.claimed = claimed;
        self.checked = 0;
        self.over = 0;
    }
}

/// One outcome from a [`StochasticMonitor::poll`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum ContractOutcome {
    /// A refined (measured) claim was published and re-admitted.
    Refined {
        /// The component whose claim was rewritten.
        component: String,
        /// The claim it declared before refinement.
        declared: f64,
        /// The published measured claim.
        refined: f64,
        /// Cycles the estimate is based on.
        samples: u64,
    },
    /// The over-claim rate is above `p_max` with high confidence.
    Violation {
        /// The convicted component.
        component: String,
        /// The claim it was judged against.
        claimed: f64,
        /// Observed over-claim cycle rate `p̂`.
        observed_rate: f64,
        /// Hoeffding lower bound on the true rate.
        rate_lower_bound: f64,
        /// Cycles the verdict is based on.
        samples: u64,
    },
}

/// Periodic stochastic contract checker. Create once, call
/// [`StochasticMonitor::poll`] from the management loop; it learns,
/// convicts, and refines as evidence accumulates.
#[derive(Debug)]
pub struct StochasticMonitor {
    config: LearningConfig,
    tracked: HashMap<Rc<str>, Tracked>,
    /// The executive's lifecycle sequence at the previous poll.
    scanned: u64,
    outcomes: Vec<ContractOutcome>,
}

/// One component's estimator and verdict, tied to one registration.
#[derive(Debug)]
struct Tracked {
    est: UsageEstimator,
    /// The registration stamp the estimator belongs to.
    registered: u64,
    /// Already convicted (no double conviction until rebased).
    flagged: bool,
}

impl StochasticMonitor {
    /// Creates a monitor with the given tuning.
    pub fn new(config: LearningConfig) -> Self {
        StochasticMonitor {
            config,
            tracked: HashMap::new(),
            scanned: 0,
            outcomes: Vec::new(),
        }
    }

    /// The tuning in force.
    pub fn config(&self) -> &LearningConfig {
        &self.config
    }

    /// Every refinement and violation produced so far, in order.
    pub fn outcomes(&self) -> &[ContractOutcome] {
        &self.outcomes
    }

    /// The estimator for one component, if any cycles were observed.
    pub fn estimator(&self, name: &str) -> Option<&UsageEstimator> {
        self.tracked.get(name).map(|t| &t.est)
    }

    /// Samples every active periodic component's kernel accounting,
    /// advances its estimator, and applies verdicts: quarantine for
    /// convicted under-declarers, claim refinement for measured
    /// over-declarers. Returns the outcomes produced this sweep.
    ///
    /// # Errors
    ///
    /// [`DrcrError::BadLearningConfig`] when the tuning lies outside its
    /// domain (nothing is sampled); otherwise propagates [`DrcrError`] from
    /// applied actions.
    pub fn poll(&mut self, rt: &mut DrtRuntime) -> Result<Vec<ContractOutcome>, DrcrError> {
        self.config.validate()?;
        // Compare each component's lifecycle stamps with the previous
        // poll. An entry into Active since then means a fresh task
        // instance (or a resumed one) with fresh CPU accounting: drop the
        // counter baseline (the learned histogram survives — it describes
        // the component, not the task). A component removed, or registered
        // anew, takes its estimator and verdict with it.
        let names: Vec<Rc<str>> = {
            let drcr = rt.drcr();
            let since = self.scanned;
            self.tracked.retain(|name, t| match drcr.stamps(name) {
                Some(s) if s.registered == t.registered => {
                    if s.activated > since {
                        t.est.baseline = None;
                    }
                    true
                }
                _ => false,
            });
            self.scanned = drcr.lifecycle_seq();
            drcr.names().cloned().collect()
        };
        let mut fresh = Vec::new();
        for name in &names {
            let (task, period_ns, claimed, registered) = {
                let drcr = rt.drcr();
                if drcr.state_of(name) != Some(ComponentState::Active) {
                    if let Some(t) = self.tracked.get_mut(name) {
                        t.est.baseline = None;
                    }
                    continue;
                }
                let (Some(task), Some(d), Some(stamps)) = (
                    drcr.task_of(name),
                    drcr.descriptor_ref(name),
                    drcr.stamps(name),
                ) else {
                    continue;
                };
                // Aperiodic components have no per-cycle cost model to learn.
                let Some(period_ns) = d.task.period().map(|p| p.as_nanos()).filter(|&p| p > 0)
                else {
                    continue;
                };
                (task, period_ns, d.cpu_usage.fraction(), stamps.registered)
            };
            let (cycles, cpu_time) = {
                let kernel = rt.kernel();
                match (kernel.task_cycles(task), kernel.task_cpu_time(task)) {
                    (Some(c), Some(t)) => (c, t),
                    _ => continue,
                }
            };
            let t = self.tracked.entry(name.clone()).or_insert_with(|| Tracked {
                est: UsageEstimator::new(claimed),
                registered,
                flagged: false,
            });
            let est = &mut t.est;
            if est.claimed != claimed {
                // The yardstick moved (refinement round-trip or operator
                // change): restart rate accounting and allow reconviction.
                est.rebase(claimed);
                t.flagged = false;
            }
            let Some((c0, t0)) = est.baseline else {
                est.baseline = Some((cycles, cpu_time));
                continue;
            };
            // A zero-width window (no cycle completed since the baseline)
            // is skipped, and the baseline kept.
            let dc = cycles.saturating_sub(c0);
            if dc == 0 {
                continue;
            }
            est.baseline = Some((cycles, cpu_time));
            est.observe(cpu_time.saturating_sub(t0), dc, period_ns);

            // Verdict first: a component convicted of under-declaring must
            // not also publish a refined (inflated) claim.
            let observed_rate = est.over_rate();
            let lower = est.rate_lower_bound(self.config.delta);
            let samples = est.checked;
            if lower > self.config.p_max && !t.flagged {
                t.flagged = true;
                rt.drcr_mut().note(DrcrEvent::StochasticViolation {
                    component: name.to_string(),
                    claimed,
                    observed_rate,
                    rate_lower_bound: lower,
                    samples,
                });
                let outcome = ContractOutcome::Violation {
                    component: name.to_string(),
                    claimed,
                    observed_rate,
                    rate_lower_bound: lower,
                    samples,
                };
                if self.config.quarantine {
                    rt.quarantine_component(
                        name,
                        &format!(
                            "stochastic contract violation: over-budget cycle rate \
                             {observed_rate:.3} (lower bound {lower:.3} > tolerated \
                             {:.3}, {samples} cycles) against claim {claimed:.3}",
                            self.config.p_max
                        ),
                    )?;
                }
                self.outcomes.push(outcome.clone());
                fresh.push(outcome);
                continue;
            }

            // Refinement: enough evidence, not in violation, and the
            // measured claim is meaningfully below the declared one.
            let total = est.samples();
            if total >= self.config.min_samples {
                let refined =
                    (est.quantile(self.config.quantile) * self.config.margin).clamp(0.001, 1.0);
                if refined < claimed * self.config.refine_ratio {
                    rt.refine_claim(name, refined, total)?;
                    let outcome = ContractOutcome::Refined {
                        component: name.to_string(),
                        declared: claimed,
                        refined,
                        samples: total,
                    };
                    self.outcomes.push(outcome.clone());
                    fresh.push(outcome);
                }
            }
        }
        Ok(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::ComponentDescriptor;
    use crate::drcr::ComponentProvider;
    use crate::faults::{FaultInjector, FaultPlan, InjectionLog};
    use crate::hybrid::{FnLogic, RtIo};
    use rtos::kernel::KernelConfig;
    use rtos::latency::TimerJitterModel;

    fn runtime() -> DrtRuntime {
        DrtRuntime::new(KernelConfig::new(31).with_timer(TimerJitterModel::ideal()))
    }

    /// Claims `claim` of a 10 ms period at `priority`, burns `burn_us` µs
    /// per cycle.
    fn steady(name: &str, claim: f64, priority: u8, burn_us: u64) -> ComponentProvider {
        let d = ComponentDescriptor::builder(name)
            .periodic(100, 0, priority)
            .cpu_usage(claim)
            .build()
            .unwrap();
        ComponentProvider::new(d, move || {
            Box::new(FnLogic(move |io: &mut RtIo<'_, '_>| {
                io.compute(SimDuration::from_micros(burn_us));
            }))
        })
    }

    fn fast_config() -> LearningConfig {
        LearningConfig {
            min_samples: 50,
            ..LearningConfig::default()
        }
    }

    const PERIOD_NS: u64 = 10_000_000;

    /// Folds `cycles` cycles at `fraction` of a 10 ms period.
    fn fold(est: &mut UsageEstimator, fraction: f64, cycles: u64) {
        let cpu = (fraction * PERIOD_NS as f64) as u64 * cycles;
        est.observe(SimDuration::from_nanos(cpu), cycles, PERIOD_NS);
    }

    #[test]
    fn quantiles_take_the_conservative_upper_edge() {
        let mut est = UsageEstimator::new(0.5);
        assert_eq!(est.quantile(0.99), 1.0, "no evidence, no claim below 1");
        // 90 cycles at 0.25, 10 cycles at 0.85.
        fold(&mut est, 0.25, 90);
        fold(&mut est, 0.85, 10);
        assert_eq!(est.samples(), 100);
        // Each quantile is the upper edge of its log-linear bucket: never
        // below the cost, at most 2^-S above it.
        let slack = 1.0 + 1.0 / f64::from(1u32 << rtos::hist::SUB_BUCKET_BITS);
        let p50 = est.quantile(0.5);
        assert!((0.25..=0.25 * slack).contains(&p50), "p50 {p50}");
        let p99 = est.quantile(0.99);
        assert!((0.85..=0.85 * slack).contains(&p99), "p99 {p99}");
        // Costs past the whole period are reported as measured, not pinned.
        fold(&mut est, 1.7, 1000);
        assert!(est.quantile(0.99) >= 1.7);
    }

    #[test]
    fn hoeffding_bound_needs_evidence_before_convicting() {
        let delta = 1e-9;
        let mut est = UsageEstimator::new(0.1);
        // One over-claim cycle: p̂ = 1 but the bound stays at 0 — a single
        // sample cannot convict at 1−δ confidence.
        fold(&mut est, 0.5, 1);
        assert_eq!(est.over_rate(), 1.0);
        assert_eq!(est.rate_lower_bound(delta), 0.0);
        // 1000 consistently-over cycles leave no doubt.
        fold(&mut est, 0.5, 999);
        assert!(est.rate_lower_bound(delta) > 0.85);
        // The bound is monotone in n for a fixed p̂.
        let at_1000 = est.rate_lower_bound(delta);
        fold(&mut est, 0.5, 9000);
        assert!(est.rate_lower_bound(delta) > at_1000);
    }

    #[test]
    fn point_setting_judges_the_claim_exactly() {
        // 1 ms of logic in a 10 ms period is exactly the 0.10 claim; the
        // container's per-cycle overhead on top of it is admitted outside
        // the claim, so the cycles are not over.
        let at_claim = 1_000_000 + CONTAINER_OVERHEAD_NS;
        let mut est = UsageEstimator::new(0.10);
        est.observe(SimDuration::from_nanos(10 * at_claim), 10, PERIOD_NS);
        assert_eq!(est.over_rate(), 0.0);
        // The histogram keeps the whole cost, container included.
        assert!(est.quantile(1.0) > 0.10);
        // With delta = 1 the Hoeffding slack vanishes, so the bound is the
        // observed rate itself: one window 1 ns per cycle over the claim
        // convicts against p_max = 0.
        est.observe(SimDuration::from_nanos(10 * (at_claim + 1)), 10, PERIOD_NS);
        assert_eq!(est.over_rate(), 0.5);
        let point = LearningConfig::point(false);
        assert_eq!(est.rate_lower_bound(point.delta), 0.5);
        assert!(est.rate_lower_bound(point.delta) > point.p_max);
        // A cost below the container overhead nets to zero, never negative.
        let mut idle = UsageEstimator::new(0.10);
        idle.observe(SimDuration::from_nanos(10), 10, PERIOD_NS);
        assert_eq!(idle.over_rate(), 0.0);
    }

    /// Polls a fresh runtime with `config` and returns the rejected field.
    fn rejected_field(config: LearningConfig) -> &'static str {
        let mut rt = runtime();
        rt.install_component("demo.ok", steady("ok", 0.10, 2, 500))
            .unwrap();
        let mut mon = StochasticMonitor::new(config);
        match mon.poll(&mut rt) {
            Err(DrcrError::BadLearningConfig { field, .. }) => {
                assert!(mon.estimator("ok").is_none(), "nothing is sampled");
                field
            }
            other => panic!("expected a typed config error, got {other:?}"),
        }
    }

    #[test]
    fn delta_outside_its_domain_is_a_typed_error() {
        // delta > 1 would make ln(1/δ) < 0 and the Hoeffding slack NaN,
        // which never convicts.
        for delta in [0.0, -1.0, 1.5, f64::NAN] {
            let config = LearningConfig {
                delta,
                ..LearningConfig::default()
            };
            assert_eq!(rejected_field(config), "delta", "delta {delta}");
        }
    }

    #[test]
    fn p_max_outside_its_domain_is_a_typed_error() {
        for p_max in [-0.1, 1.0, f64::NAN] {
            let config = LearningConfig {
                p_max,
                ..LearningConfig::default()
            };
            assert_eq!(rejected_field(config), "p_max", "p_max {p_max}");
        }
    }

    #[test]
    fn quantile_outside_its_domain_is_a_typed_error() {
        for quantile in [0.0, 1.01, f64::NAN] {
            let config = LearningConfig {
                quantile,
                ..LearningConfig::default()
            };
            assert_eq!(rejected_field(config), "quantile", "quantile {quantile}");
        }
    }

    #[test]
    fn margin_outside_its_domain_is_a_typed_error() {
        for margin in [0.0, -1.1, f64::INFINITY, f64::NAN] {
            let config = LearningConfig {
                margin,
                ..LearningConfig::default()
            };
            assert_eq!(rejected_field(config), "margin", "margin {margin}");
        }
    }

    #[test]
    fn refine_ratio_outside_its_domain_is_a_typed_error() {
        for refine_ratio in [-0.5, 1.5, f64::NAN] {
            let config = LearningConfig {
                refine_ratio,
                ..LearningConfig::default()
            };
            assert_eq!(
                rejected_field(config),
                "refine_ratio",
                "refine_ratio {refine_ratio}"
            );
        }
    }

    #[test]
    fn default_and_point_settings_are_accepted() {
        for config in [
            LearningConfig::default(),
            LearningConfig::point(false),
            LearningConfig::point(true),
        ] {
            assert_eq!(config.validate(), Ok(()), "{config:?}");
        }
        // The domain edges the point setting sits on are legal.
        let edges = LearningConfig {
            quantile: 1.0,
            refine_ratio: 1.0,
            ..LearningConfig::point(true)
        };
        assert_eq!(edges.validate(), Ok(()));
    }

    #[test]
    fn honest_components_are_neither_convicted_nor_refined() {
        let mut rt = runtime();
        // Claims 0.10, burns 0.095 — honest, and too close to the claim
        // for the hysteresis to bother republishing.
        rt.install_component("demo.ok", steady("ok", 0.10, 2, 950))
            .unwrap();
        let mut mon = StochasticMonitor::new(fast_config());
        for _ in 0..12 {
            rt.advance(SimDuration::from_millis(100));
            assert!(mon.poll(&mut rt).unwrap().is_empty());
        }
        assert_eq!(rt.component_state("ok"), Some(ComponentState::Active));
        assert_eq!(mon.estimator("ok").unwrap().over_rate(), 0.0);
        assert!(mon.estimator("ok").unwrap().samples() > 100);
    }

    #[test]
    fn over_declarer_gets_its_claim_refined_and_frees_peer_capacity() {
        let mut rt = runtime();
        // Claims 70% of the CPU, really uses ~10%.
        rt.install_component("demo.hog", steady("hog", 0.70, 2, 1000))
            .unwrap();
        // The peer's 35% cannot co-exist with a declared 70%: rejected.
        rt.install_component("demo.peer", steady("peer", 0.35, 3, 3000))
            .unwrap();
        assert_eq!(rt.component_state("hog"), Some(ComponentState::Active));
        assert_eq!(
            rt.component_state("peer"),
            Some(ComponentState::Unsatisfied),
            "peer must be stranded behind the inflated claim"
        );
        let mut mon = StochasticMonitor::new(fast_config());
        let mut refined = None;
        for _ in 0..12 {
            rt.advance(SimDuration::from_millis(100));
            for outcome in mon.poll(&mut rt).unwrap() {
                if let ContractOutcome::Refined {
                    component,
                    declared,
                    refined: r,
                    samples,
                } = outcome
                {
                    assert_eq!(component, "hog");
                    assert_eq!(declared, 0.70);
                    assert!(samples >= 50);
                    refined = Some(r);
                }
            }
            if refined.is_some() {
                break;
            }
        }
        let refined = refined.expect("no refinement published");
        // Quantile upper edge of the 0.10 bucket (×1.1 margin) — measured,
        // conservative, far below the declaration.
        assert!(refined > 0.10 && refined < 0.20, "refined {refined}");
        // The refinement round-trips through admission: the hog stays up
        // on its measured claim and the stranded peer re-admits.
        assert_eq!(rt.component_state("hog"), Some(ComponentState::Active));
        assert_eq!(rt.component_state("peer"), Some(ComponentState::Active));
        assert!(rt
            .drcr()
            .events_for("hog")
            .any(|e| matches!(e.event, DrcrEvent::ClaimRefined { .. })));
        // Refinement is one-shot under hysteresis: further polls stay
        // quiet.
        for _ in 0..5 {
            rt.advance(SimDuration::from_millis(100));
            assert!(mon.poll(&mut rt).unwrap().is_empty());
        }
    }

    #[test]
    fn under_declarer_is_quarantined_with_typed_evidence() {
        let mut rt = runtime();
        // Claims 5%, but a lying fault plan injects 1.5–2.5 ms of real
        // demand into every 10 ms cycle (~20%).
        let plan = std::rc::Rc::new(FaultPlan::lying(0xFEED, 10_000, (1_500_000, 2_500_000)));
        let log = InjectionLog::shared();
        let d = ComponentDescriptor::builder("sneak")
            .periodic(100, 0, 2)
            .cpu_usage(0.05)
            .build()
            .unwrap();
        let provider = ComponentProvider::new(d, {
            let (plan, log) = (plan.clone(), log.clone());
            move || {
                FaultInjector::wrap(
                    plan.clone(),
                    log.clone(),
                    Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                        io.compute(SimDuration::from_micros(100));
                    })),
                )
            }
        });
        rt.install_component("demo.sneak", provider).unwrap();
        rt.install_component("demo.ok", steady("ok", 0.10, 3, 900))
            .unwrap();
        let mut mon = StochasticMonitor::new(fast_config());
        let mut violation = None;
        for _ in 0..20 {
            rt.advance(SimDuration::from_millis(100));
            for outcome in mon.poll(&mut rt).unwrap() {
                if let ContractOutcome::Violation { component, .. } = &outcome {
                    assert_eq!(component, "sneak");
                    violation = Some(outcome.clone());
                }
            }
            if violation.is_some() {
                break;
            }
        }
        let Some(ContractOutcome::Violation {
            claimed,
            observed_rate,
            rate_lower_bound,
            samples,
            ..
        }) = violation
        else {
            panic!("under-declarer was never convicted");
        };
        assert_eq!(claimed, 0.05);
        assert!(observed_rate > 0.9, "rate {observed_rate}");
        assert!(rate_lower_bound > 0.05 && rate_lower_bound <= observed_rate);
        assert!(samples >= 10);
        // Quarantined through the supervise path, with the stochastic
        // evidence recorded, and the honest peer untouched.
        assert_eq!(rt.component_state("sneak"), Some(ComponentState::Disabled));
        assert!(rt.drcr().is_quarantined("sneak"));
        let reason = rt.drcr().quarantine_reason("sneak").unwrap().to_string();
        assert!(reason.contains("stochastic contract violation"), "{reason}");
        assert!(rt
            .drcr()
            .events_for("sneak")
            .any(|e| matches!(e.event, DrcrEvent::StochasticViolation { .. })));
        assert_eq!(rt.component_state("ok"), Some(ComponentState::Active));
        // One conviction, not one per poll.
        let convictions = mon
            .outcomes()
            .iter()
            .filter(|o| matches!(o, ContractOutcome::Violation { .. }))
            .count();
        assert_eq!(convictions, 1);
    }

    #[test]
    fn monitoring_and_refinement_replay_byte_identically() {
        let run = || {
            let mut rt = runtime();
            rt.install_component("demo.hog", steady("hog", 0.60, 2, 1200))
                .unwrap();
            let plan = std::rc::Rc::new(FaultPlan::lying(0xBEEF, 10_000, (1_200_000, 2_200_000)));
            let log = InjectionLog::shared();
            let d = ComponentDescriptor::builder("sneak")
                .periodic(100, 0, 3)
                .cpu_usage(0.04)
                .build()
                .unwrap();
            let provider = ComponentProvider::new(d, {
                let (plan, log) = (plan.clone(), log.clone());
                move || {
                    FaultInjector::wrap(
                        plan.clone(),
                        log.clone(),
                        Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                            io.compute(SimDuration::from_micros(50));
                        })),
                    )
                }
            });
            rt.install_component("demo.sneak", provider).unwrap();
            let mut mon = StochasticMonitor::new(fast_config());
            for _ in 0..15 {
                rt.advance(SimDuration::from_millis(100));
                mon.poll(&mut rt).unwrap();
            }
            let events: Vec<String> = rt
                .drcr()
                .events()
                .iter()
                .map(|e| format!("{} {}", e.time, e.event))
                .collect();
            (events, mon.outcomes().to_vec())
        };
        let (events_a, outcomes_a) = run();
        let (events_b, outcomes_b) = run();
        assert_eq!(events_a, events_b, "event streams diverged across runs");
        assert_eq!(outcomes_a, outcomes_b);
        assert!(
            outcomes_a
                .iter()
                .any(|o| matches!(o, ContractOutcome::Refined { .. })),
            "scenario should exercise refinement"
        );
        assert!(
            outcomes_a
                .iter()
                .any(|o| matches!(o, ContractOutcome::Violation { .. })),
            "scenario should exercise conviction"
        );
    }
}
