//! Resolving services: pluggable admission policy.
//!
//! The paper's DRCR consults an **internal resolving service** and any
//! **customized resolving services** registered in the OSGi service
//! registry; a component activates only "when both services return positive
//! results". [`ResolvingService`] is that contract: a pure function from a
//! candidate + the global [`SystemView`] to a [`Decision`].
//!
//! Built-in policies:
//!
//! * [`UtilizationResolver`] — admit while the per-CPU reserved budget stays
//!   under a cap (the internal resolver's default, cap 1.0).
//! * [`RmBoundResolver`] — Liu–Layland rate-monotonic bound
//!   `n(2^{1/n} − 1)` over periodic components per CPU.
//! * [`EdfResolver`] — EDF bound (utilization ≤ 1) per CPU.
//! * [`AlwaysAdmit`] / [`AlwaysReject`] — scenario and test plumbing.
//!
//! Customized resolvers are discovered under the service interface
//! [`RESOLVER_SERVICE`], wrapped in [`ResolverHandle`] so the registry can
//! hand back a concrete type.
//!
//! Above the per-candidate policy sits the [`Resolver`] trait: the unified
//! surface of a whole constraint-resolution *engine* (functional wiring
//! checks, the sweeps' scopes, internal admission, and batched admission).
//! The executive drives exactly one `Resolver`, fixed when it is built:
//! [`crate::reactive::ReactiveResolver`] in production,
//! [`crate::reactive::NaiveResolver`] as the sequential differential oracle.
//! Either is handed its internal admission policy as a value — any
//! `ResolvingService`. A policy whose rulings carry analysis evidence
//! ([`ResolvingService::rule`]) and that admits waves whole
//! ([`ResolvingService::batches`]) — response-time analysis — gets the
//! evidence events and batched admission of arrival waves from the engine;
//! nothing else switches them on.

use crate::descriptor::ComponentDescriptor;
use crate::lifecycle::ComponentState;
use crate::rta::RtaAnalysis;
use crate::view::{ComponentInfo, SystemView};
use crate::wiring::WiringResult;
use std::fmt;
use std::rc::Rc;

/// Service-registry interface name for customized resolving services.
pub const RESOLVER_SERVICE: &str = "drt.resolver";

/// Outcome of consulting a resolving service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// The candidate may activate.
    Admit,
    /// The candidate must stay unsatisfied, with a reason for the log.
    Reject(String),
}

impl Decision {
    /// True for [`Decision::Admit`].
    pub fn is_admit(&self) -> bool {
        matches!(self, Decision::Admit)
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Admit => write!(f, "admit"),
            Decision::Reject(reason) => write!(f, "reject: {reason}"),
        }
    }
}

/// An admission policy over the global view. See the [module docs](self).
pub trait ResolvingService {
    /// A short policy name for logs.
    fn name(&self) -> &str;

    /// Decides whether `candidate` may activate given the current view.
    ///
    /// The view includes the candidate itself (in its pre-activation state);
    /// implementations should reason about the hypothetical system where
    /// the candidate's claim is added to its CPU.
    fn admit(&self, candidate: &ComponentInfo, view: &SystemView) -> Decision;

    /// Whether a verdict stays valid until the candidate's contract or the
    /// *admission-holding* component set of its CPU changes.
    ///
    /// The reactive engine parks a waiter a cacheable policy rejected until
    /// one of those changes. All built-in policies qualify; the
    /// conservative default is `false` (a policy that inspects arbitrary
    /// view details re-rules its rejected waiters every sweep).
    fn cacheable(&self) -> bool {
        false
    }

    /// The verdict on `candidate` together with the analysis behind it.
    /// The default is [`ResolvingService::admit`] with no evidence;
    /// response-time analysis returns its per-task WCRTs, which the
    /// executive records as a [`crate::obs::DrcrEvent::AdmissionAnalysis`].
    fn rule(
        &self,
        candidate: &ComponentInfo,
        view: &SystemView,
    ) -> (Decision, Option<RtaAnalysis>) {
        (self.admit(candidate, view), None)
    }

    /// Whether [`ResolvingService::admit_batch`] can admit arrival waves.
    /// The executive screens a wave for batching only when this holds, so
    /// policies that rule one candidate at a time pay nothing.
    fn batches(&self) -> bool {
        false
    }

    /// Admits a whole arrival wave in one analysis pass per CPU, returning
    /// one analysis per touched CPU in ascending CPU order. `None` whenever
    /// that is not provably the outcome of admitting the candidates one by
    /// one — and always for a policy that does not batch (the default); the
    /// executive then rules each candidate on its own.
    fn admit_batch(
        &self,
        _candidates: &[ComponentInfo],
        _view: &SystemView,
    ) -> Option<Vec<RtaAnalysis>> {
        None
    }
}

/// A constraint-resolution engine: the single pluggable surface the DRCR
/// executive drives.
///
/// One engine owns the port topology, the internal admission policy
/// ([`Resolver::policy`]) and the two sweep scopes behind change
/// notifications (`on_*`): the deactivation sweep's
/// ([`Resolver::sweep_next`]) and the activation sweep's
/// ([`Resolver::wake_next`]), which a screened waiter leaves when the
/// executive parks it on what its report depends on ([`Resolver::park`]).
/// The executive emits a waiter's report only when it differs from the last
/// one, so an engine may leave a waiter unscreened exactly while nothing its
/// report depends on has changed; for identical notification sequences,
/// [`Resolver::check_wiring`] must return value-equal results across
/// engines (the lockstep proptests enforce both against
/// [`crate::reactive::NaiveResolver`], the differential oracle).
pub trait Resolver {
    /// A short engine name for logs and reports.
    fn name(&self) -> &str;

    /// A component registered (its provider entries start inactive).
    /// `descriptor` is its contract, shared with the executive's record.
    fn on_registered(&mut self, name: &Rc<str>, descriptor: &Rc<ComponentDescriptor>);

    /// A component was removed.
    fn on_removed(&mut self, name: &str, descriptor: &ComponentDescriptor);

    /// A component's lifecycle state changed; `descriptor` is its contract
    /// in force. The engine derives wiring-side churn (`provides_outputs`
    /// flips wake the parked consumers of its outport channels and, when a
    /// provider stops, seed the deactivation scope), admission-side churn
    /// (`holds_admission` flips wake the waiters parked on its CPU) and the
    /// waiting scope (a component that starts waiting is woken) from the
    /// transition.
    fn on_state_changed(
        &mut self,
        name: &Rc<str>,
        descriptor: &ComponentDescriptor,
        from: ComponentState,
        to: ComponentState,
    );

    /// A component's contract was re-written (mode switch, or a
    /// claim refinement published by [`crate::contracts::StochasticMonitor`];
    /// ports are preserved, frequency/claim/priority may change).
    /// `descriptor` is the rewritten contract. A waiting component's own
    /// ruling read the old contract, so the engine wakes it. Peers are
    /// unaffected: rulings read only admission holders' contracts, and the
    /// executive deactivates a holder before re-writing it.
    fn on_contract_changed(&mut self, name: &str, descriptor: &Rc<ComponentDescriptor>);

    /// The next component the deactivation sweep should re-check, strictly
    /// after `cursor` in name order; `None` ends the sweep. The engine
    /// decides scope: the reactive engine serves its dirty set (consuming
    /// entries as they are returned), the naive reference serves every
    /// known component.
    fn sweep_next(&mut self, cursor: Option<&str>) -> Option<Rc<str>>;

    /// The next waiting (`Unsatisfied`) component the activation sweep
    /// should screen, strictly after `cursor` in name order; `None` ends
    /// the sweep. The reactive engine serves its woken waiters, the naive
    /// reference every waiter. A waiter stays woken until it is parked
    /// ([`Resolver::park`]) or stops waiting, so one the executive leaves
    /// woken is screened again in the next sweep.
    fn wake_next(&self, cursor: Option<&str>) -> Option<Rc<str>>;

    /// Parks a screened waiter until one of its inport channels changes
    /// (a provider registering, leaving or flipping its providing state)
    /// or, for each of `cpus`, that CPU's set of admission holders changes.
    /// An engine whose admission policy is not cacheable
    /// ([`ResolvingService::cacheable`]) leaves a waiter that waits on a
    /// CPU woken. The default parks nothing: every waiter is screened every
    /// sweep.
    fn park(&mut self, _name: &Rc<str>, _cpus: &[u32]) {}

    /// Wakes a parked waiter: its report depends on something the engine
    /// does not watch (a backoff hold's release, a customized resolving
    /// service). The default does nothing.
    fn wake(&mut self, _name: &str) {}

    /// Checks `candidate`'s functional constraints, counting the components
    /// in `assume_active` as active.
    fn check_wiring(
        &mut self,
        candidate: &ComponentDescriptor,
        assume_active: &[Rc<str>],
    ) -> WiringResult;

    /// Whether every wiring check rebuilds a full wiring graph (the naive
    /// reference does; counted in `drcr.wiring.graph_builds`).
    fn builds_graphs(&self) -> bool {
        false
    }

    /// The internal admission policy, handed over at construction.
    fn policy(&self) -> &dyn ResolvingService;

    /// Whether the executive admits arrival waves whole, through the
    /// policy's [`ResolvingService::admit_batch`]. The naive reference
    /// never does: it is the sequential oracle.
    fn batches(&self) -> bool {
        self.policy().batches()
    }
}

/// Newtype wrapper so `Rc<dyn ResolvingService>` can live in the service
/// registry (which downcasts to concrete types).
pub struct ResolverHandle(pub Rc<dyn ResolvingService>);

impl fmt::Debug for ResolverHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ResolverHandle({})", self.0.name())
    }
}

/// Admits while `reserved + candidate ≤ cap` on the candidate's CPU.
///
/// ```
/// use drcom::resolve::{ResolvingService, UtilizationResolver};
/// use drcom::view::{ComponentInfo, SystemView};
/// use drcom::lifecycle::ComponentState;
///
/// let resolver = UtilizationResolver::new(0.8);
/// let candidate = ComponentInfo {
///     name: "calc".into(),
///     state: ComponentState::Unsatisfied,
///     cpu: 0,
///     cpu_usage: 0.5,
///     priority: 2,
///     period_ns: Some(1_000_000),
/// };
/// let view = SystemView::new(1, vec![candidate.clone()]);
/// assert!(resolver.admit(&candidate, &view).is_admit());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationResolver {
    cap: f64,
}

impl UtilizationResolver {
    /// A resolver with the given per-CPU cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not in `(0, 1]`.
    pub fn new(cap: f64) -> Self {
        assert!(cap > 0.0 && cap <= 1.0, "cap must be in (0, 1]");
        UtilizationResolver { cap }
    }

    /// The configured cap.
    pub fn cap(&self) -> f64 {
        self.cap
    }
}

impl Default for UtilizationResolver {
    fn default() -> Self {
        UtilizationResolver { cap: 1.0 }
    }
}

impl ResolvingService for UtilizationResolver {
    fn name(&self) -> &str {
        "utilization"
    }

    fn admit(&self, candidate: &ComponentInfo, view: &SystemView) -> Decision {
        let current = view.utilization(candidate.cpu);
        let hypothetical = current + candidate.cpu_usage;
        if hypothetical <= self.cap + 1e-9 {
            Decision::Admit
        } else {
            Decision::Reject(format!(
                "CPU {} budget: {current:.3} reserved + {:.3} claimed > cap {:.3}",
                candidate.cpu, candidate.cpu_usage, self.cap
            ))
        }
    }

    fn cacheable(&self) -> bool {
        true
    }
}

/// Liu–Layland rate-monotonic schedulability bound for periodic components.
///
/// With `n` periodic tasks on a CPU the bound is `n(2^{1/n} − 1)`;
/// aperiodic candidates fall back to a utilization cap of 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RmBoundResolver;

impl RmBoundResolver {
    /// The Liu–Layland bound for `n` tasks.
    pub fn bound(n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        let n = n as f64;
        n * (2f64.powf(1.0 / n) - 1.0)
    }
}

impl ResolvingService for RmBoundResolver {
    fn name(&self) -> &str {
        "rm-bound"
    }

    fn admit(&self, candidate: &ComponentInfo, view: &SystemView) -> Decision {
        if !candidate.is_periodic() {
            let u = view.utilization(candidate.cpu) + candidate.cpu_usage;
            return if u <= 1.0 + 1e-9 {
                Decision::Admit
            } else {
                Decision::Reject(format!("aperiodic over full budget: {u:.3} > 1"))
            };
        }
        let n = view.periodic_count(candidate.cpu) + 1;
        let bound = Self::bound(n);
        let u = view.periodic_utilization(candidate.cpu) + candidate.cpu_usage;
        if u <= bound + 1e-9 {
            Decision::Admit
        } else {
            Decision::Reject(format!(
                "RM bound: {u:.3} > n(2^(1/n)-1) = {bound:.3} for n = {n}"
            ))
        }
    }

    fn cacheable(&self) -> bool {
        true
    }
}

/// EDF schedulability: total utilization per CPU at most 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdfResolver;

impl ResolvingService for EdfResolver {
    fn name(&self) -> &str {
        "edf"
    }

    fn admit(&self, candidate: &ComponentInfo, view: &SystemView) -> Decision {
        let u = view.utilization(candidate.cpu) + candidate.cpu_usage;
        if u <= 1.0 + 1e-9 {
            Decision::Admit
        } else {
            Decision::Reject(format!("EDF: utilization {u:.3} > 1"))
        }
    }

    fn cacheable(&self) -> bool {
        true
    }
}

/// Admits everything (the "no admission control" ablation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysAdmit;

impl ResolvingService for AlwaysAdmit {
    fn name(&self) -> &str {
        "always-admit"
    }

    fn admit(&self, _candidate: &ComponentInfo, _view: &SystemView) -> Decision {
        Decision::Admit
    }

    fn cacheable(&self) -> bool {
        true
    }
}

/// Rejects everything, with a fixed reason (scenario plumbing).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AlwaysReject(pub String);

impl ResolvingService for AlwaysReject {
    fn name(&self) -> &str {
        "always-reject"
    }

    fn admit(&self, _candidate: &ComponentInfo, _view: &SystemView) -> Decision {
        Decision::Reject(self.0.clone())
    }

    fn cacheable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::ComponentState;

    fn info(
        name: &str,
        state: ComponentState,
        cpu: u32,
        usage: f64,
        periodic: bool,
    ) -> ComponentInfo {
        ComponentInfo {
            name: name.into(),
            state,
            cpu,
            cpu_usage: usage,
            priority: 2,
            period_ns: periodic.then_some(1_000_000),
        }
    }

    fn view(components: Vec<ComponentInfo>) -> SystemView {
        SystemView::new(2, components)
    }

    #[test]
    fn utilization_resolver_respects_cap() {
        let r = UtilizationResolver::new(0.8);
        let v = view(vec![info("a", ComponentState::Active, 0, 0.5, true)]);
        let ok = info("b", ComponentState::Unsatisfied, 0, 0.3, true);
        assert!(r.admit(&ok, &v).is_admit());
        let too_much = info("c", ComponentState::Unsatisfied, 0, 0.31, true);
        assert!(!r.admit(&too_much, &v).is_admit());
        // Other CPU is unaffected.
        let other_cpu = info("d", ComponentState::Unsatisfied, 1, 0.8, true);
        assert!(r.admit(&other_cpu, &v).is_admit());
    }

    #[test]
    fn utilization_resolver_counts_suspended_reservations() {
        let r = UtilizationResolver::default();
        let v = view(vec![info("a", ComponentState::Suspended, 0, 0.9, true)]);
        let candidate = info("b", ComponentState::Unsatisfied, 0, 0.2, true);
        assert!(!r.admit(&candidate, &v).is_admit());
    }

    #[test]
    #[should_panic(expected = "cap must be in (0, 1]")]
    fn utilization_cap_validated() {
        let _ = UtilizationResolver::new(0.0);
    }

    #[test]
    fn liu_layland_bounds() {
        assert!((RmBoundResolver::bound(1) - 1.0).abs() < 1e-9);
        assert!((RmBoundResolver::bound(2) - 0.8284).abs() < 1e-3);
        assert!((RmBoundResolver::bound(3) - 0.7798).abs() < 1e-3);
        // Monotone decreasing towards ln 2.
        assert!(RmBoundResolver::bound(100) > 0.69);
        assert!(RmBoundResolver::bound(100) < RmBoundResolver::bound(3));
    }

    #[test]
    fn rm_resolver_is_stricter_than_edf() {
        let rm = RmBoundResolver;
        let edf = EdfResolver;
        let v = view(vec![info("a", ComponentState::Active, 0, 0.5, true)]);
        // 0.5 + 0.4 = 0.9: fine for EDF, over the 2-task RM bound (0.828).
        let candidate = info("b", ComponentState::Unsatisfied, 0, 0.4, true);
        assert!(edf.admit(&candidate, &v).is_admit());
        assert!(!rm.admit(&candidate, &v).is_admit());
        // 0.5 + 0.3 = 0.8 < 0.828: both admit.
        let smaller = info("c", ComponentState::Unsatisfied, 0, 0.3, true);
        assert!(rm.admit(&smaller, &v).is_admit());
    }

    #[test]
    fn rm_resolver_handles_aperiodic_candidates() {
        let rm = RmBoundResolver;
        let v = view(vec![info("a", ComponentState::Active, 0, 0.5, true)]);
        let aperiodic = info("e", ComponentState::Unsatisfied, 0, 0.4, false);
        assert!(rm.admit(&aperiodic, &v).is_admit());
        let hog = info("f", ComponentState::Unsatisfied, 0, 0.6, false);
        assert!(!rm.admit(&hog, &v).is_admit());
    }

    #[test]
    fn an_invalid_admitted_claim_fails_every_policy_closed() {
        let v = view(vec![
            info("a", ComponentState::Active, 0, 0.1, true),
            info("sick", ComponentState::Active, 0, f64::NAN, true),
        ]);
        let candidate = info("b", ComponentState::Unsatisfied, 0, 0.1, true);
        let policies: [&dyn ResolvingService; 3] = [
            &UtilizationResolver::default(),
            &EdfResolver,
            &RmBoundResolver,
        ];
        for policy in policies {
            assert!(
                !policy.admit(&candidate, &v).is_admit(),
                "{} admitted against a NaN claim",
                policy.name()
            );
        }
        // The other CPU is unaffected.
        let elsewhere = info("c", ComponentState::Unsatisfied, 1, 0.1, true);
        assert!(UtilizationResolver::default()
            .admit(&elsewhere, &v)
            .is_admit());
    }

    #[test]
    fn always_variants() {
        let v = view(vec![]);
        let c = info("x", ComponentState::Unsatisfied, 0, 0.1, true);
        assert!(AlwaysAdmit.admit(&c, &v).is_admit());
        let rej = AlwaysReject("operator veto".into()).admit(&c, &v);
        assert_eq!(rej, Decision::Reject("operator veto".into()));
    }

    #[test]
    fn decisions_display() {
        assert_eq!(Decision::Admit.to_string(), "admit");
        assert!(Decision::Reject("x".into()).to_string().contains("x"));
    }
}
