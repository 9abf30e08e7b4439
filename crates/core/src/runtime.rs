//! `DrtRuntime`: the assembled split-container system (paper Figure 3).
//!
//! One object wiring the three layers together: the [`rtos`] kernel (the
//! RTAI side), the [`osgi`] framework (the Java side), and the shared
//! [`Drcr`] executive in between. This is the entry point examples and
//! benches use:
//!
//! ```
//! use drcom::prelude::*;
//! use rtos::kernel::KernelConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rt = DrtRuntime::new(KernelConfig::new(42));
//! let descriptor = ComponentDescriptor::builder("blink")
//!     .periodic(10, 0, 2)
//!     .cpu_usage(0.01)
//!     .build()?;
//! rt.install_component(
//!     "demo.blink",
//!     ComponentProvider::new(descriptor, || {
//!         Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
//!             io.compute(SimDuration::from_micros(100));
//!         }))
//!     }),
//! )?;
//! rt.advance(SimDuration::from_secs(1));
//! assert_eq!(rt.component_state("blink"), Some(ComponentState::Active));
//! # Ok(())
//! # }
//! ```
//!
//! The runtime executes on the kernel's serial event loop — the semantics
//! the [`rtos::exec::DeterministicExecutor`] reproduces. To run an
//! already-admitted fleet across worker threads (one per simulated-CPU
//! group) instead, lower its descriptors through
//! [`crate::parallel::FleetBridge`] and hand the resulting workload to
//! [`rtos::exec::ParallelExecutor`]. Both paths build tasks and channels
//! through the same [`crate::lower::lower`], and the kernel's
//! linearization guarantee makes them observably equivalent on quiescent
//! fleets.

use crate::drcr::{ComponentProvider, Drcr, COMPONENT_SERVICE, PROP_COMPONENT_NAME};
use crate::error::DrcrError;
use crate::lifecycle::ComponentState;
use crate::manage::{
    ComponentControl, ManagementHandle, RtComponentManagement, MANAGEMENT_SERVICE,
};
use crate::resolve::{Resolver, ResolverHandle, ResolvingService, RESOLVER_SERVICE};
use osgi::event::BundleId;
use osgi::framework::{BundleActivator, BundleContext, Framework, FrameworkError};
use osgi::ldap::Properties;
use osgi::manifest::BundleManifest;
use osgi::registry::ServiceId;
use osgi::version::Version;
use rtos::kernel::{Kernel, KernelConfig};
use rtos::time::SimDuration;
use std::cell::{Ref, RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

/// The bundle activator that publishes a [`ComponentProvider`] into the
/// service registry when its bundle starts — the DRCR picks it up from the
/// `Registered` service event, exactly as the paper's DRCR parses bundle
/// meta-data on deployment.
pub struct DrcomActivator {
    provider: Rc<ComponentProvider>,
}

impl fmt::Debug for DrcomActivator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DrcomActivator({})", self.provider.descriptor().name)
    }
}

impl DrcomActivator {
    /// Wraps a provider for deployment.
    pub fn new(provider: ComponentProvider) -> Self {
        DrcomActivator {
            provider: Rc::new(provider),
        }
    }
}

impl BundleActivator for DrcomActivator {
    fn start(&mut self, ctx: &mut BundleContext<'_>) -> Result<(), String> {
        let d = self.provider.descriptor();
        let props = Properties::new()
            .with(PROP_COMPONENT_NAME, d.name.as_str())
            .with(
                "drt.type",
                if d.task.is_periodic() {
                    "periodic"
                } else {
                    "aperiodic"
                },
            )
            .with("drt.cpuusage", d.cpu_usage.fraction())
            .with("drt.enabled", d.enabled);
        ctx.register_service(&[COMPONENT_SERVICE], self.provider.clone(), props);
        Ok(())
    }
    // stop: the framework unregisters the provider service, which the DRCR
    // observes as the component's departure.
}

/// The assembled system. See the [module docs](self).
pub struct DrtRuntime {
    framework: Framework,
    kernel: Rc<RefCell<Kernel>>,
    drcr: Rc<RefCell<Drcr>>,
}

impl fmt::Debug for DrtRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DrtRuntime")
            .field("framework", &self.framework)
            .field("drcr", &*self.drcr.borrow())
            .finish()
    }
}

impl DrtRuntime {
    /// Boots the split container with the default internal resolver.
    pub fn new(kernel_config: KernelConfig) -> Self {
        Self::boot(kernel_config, Drcr::new_shared)
    }

    /// Boots with a custom internal resolving service. Handing it an
    /// [`RtaResolver`](crate::rta::RtaResolver) selects response-time
    /// admission, with analysis evidence and one-pass wave admission.
    pub fn with_resolver(kernel_config: KernelConfig, internal: Box<dyn ResolvingService>) -> Self {
        Self::boot(kernel_config, |kernel| {
            Drcr::with_resolver(kernel, internal)
        })
    }

    /// Boots around a constraint-resolution engine, fixed for the
    /// runtime's life (the differential-testing hook; see
    /// [`Drcr::with_engine`]).
    pub fn with_engine(kernel_config: KernelConfig, engine: Box<dyn Resolver>) -> Self {
        Self::boot(kernel_config, |kernel| Drcr::with_engine(kernel, engine))
    }

    /// Boots the kernel, then the executive `drcr` builds on it.
    fn boot(
        kernel_config: KernelConfig,
        drcr: impl FnOnce(Rc<RefCell<Kernel>>) -> Rc<RefCell<Drcr>>,
    ) -> Self {
        let kernel = Rc::new(RefCell::new(Kernel::new(kernel_config)));
        let drcr = drcr(kernel.clone());
        let mut framework = Framework::new();
        // Management lookups by component name are exact matches.
        framework.registry_mut().index_property(PROP_COMPONENT_NAME);
        DrtRuntime {
            framework,
            kernel,
            drcr,
        }
    }

    /// The OSGi framework.
    pub fn framework(&self) -> &Framework {
        &self.framework
    }

    /// The OSGi framework, mutably (install your own bundles, query the
    /// registry). Call [`DrtRuntime::process`] afterwards so the DRCR sees
    /// the events.
    pub fn framework_mut(&mut self) -> &mut Framework {
        &mut self.framework
    }

    /// Immutable view of the kernel.
    pub fn kernel(&self) -> Ref<'_, Kernel> {
        self.kernel.borrow()
    }

    /// Mutable access to the kernel (e.g. to apply load).
    pub fn kernel_mut(&self) -> RefMut<'_, Kernel> {
        self.kernel.borrow_mut()
    }

    /// A shared handle to the kernel.
    pub fn kernel_handle(&self) -> Rc<RefCell<Kernel>> {
        self.kernel.clone()
    }

    /// The shared DRCR executive.
    pub fn drcr(&self) -> Ref<'_, Drcr> {
        self.drcr.borrow()
    }

    /// The shared DRCR executive, mutably.
    pub fn drcr_mut(&self) -> RefMut<'_, Drcr> {
        self.drcr.borrow_mut()
    }

    /// Sets one component's supervision config (restart policy plus
    /// optional flap-quarantine window); see [`crate::supervise`].
    pub fn set_supervision(&mut self, name: &str, config: crate::supervise::SupervisionConfig) {
        self.drcr.borrow_mut().set_supervision(name, config);
    }

    /// Sets the supervision config applied to components without their own.
    pub fn set_default_supervision(&mut self, config: crate::supervise::SupervisionConfig) {
        self.drcr.borrow_mut().set_default_supervision(config);
    }

    /// Quarantines a component through the supervisor (the shared reaction
    /// path of fault supervision and contract enforcement) and re-resolves.
    ///
    /// # Errors
    ///
    /// Propagates [`DrcrError`] from the underlying disable.
    pub fn quarantine_component(&mut self, name: &str, reason: &str) -> Result<(), DrcrError> {
        self.drcr
            .borrow_mut()
            .quarantine_component(name, &mut self.framework, reason)?;
        self.process();
        Ok(())
    }

    /// Re-writes a component's CPU claim to a measured value and
    /// re-resolves — the stochastic-contract refinement loop (see
    /// [`crate::contracts`] and [`crate::drcr::Drcr::refine_claim`]).
    ///
    /// # Errors
    ///
    /// Propagates [`DrcrError`] from the underlying contract rewrite.
    pub fn refine_claim(
        &mut self,
        name: &str,
        refined: f64,
        samples: u64,
    ) -> Result<(), DrcrError> {
        self.drcr
            .borrow_mut()
            .refine_claim(name, refined, samples, &mut self.framework)?;
        self.process();
        Ok(())
    }

    /// Installs and starts a bundle carrying one declarative component,
    /// then lets the DRCR resolve.
    ///
    /// # Errors
    ///
    /// Propagates framework install/start failures.
    pub fn install_component(
        &mut self,
        bundle_symbolic_name: &str,
        provider: ComponentProvider,
    ) -> Result<BundleId, FrameworkError> {
        let manifest = BundleManifest::new(bundle_symbolic_name, Version::new(1, 0, 0));
        let bundle = self
            .framework
            .install(manifest, Box::new(DrcomActivator::new(provider)))?;
        self.framework.start(bundle)?;
        self.process();
        Ok(bundle)
    }

    /// Installs and starts a wave of component bundles, then resolves
    /// **once**: all arrivals land in the same resolve round. Under
    /// response-time admission the whole wave is admitted in a single
    /// analysis pass per CPU whenever that provably equals admitting the
    /// arrivals one by one.
    ///
    /// # Errors
    ///
    /// Propagates framework install/start failures. Bundles installed
    /// before a failure stay installed; the next resolve picks them up.
    pub fn install_components<S: AsRef<str>>(
        &mut self,
        components: impl IntoIterator<Item = (S, ComponentProvider)>,
    ) -> Result<Vec<BundleId>, FrameworkError> {
        let mut bundles = Vec::new();
        for (name, provider) in components {
            let manifest = BundleManifest::new(name.as_ref(), Version::new(1, 0, 0));
            let bundle = self
                .framework
                .install(manifest, Box::new(DrcomActivator::new(provider)))?;
            self.framework.start(bundle)?;
            bundles.push(bundle);
        }
        self.process();
        Ok(bundles)
    }

    /// Stops a component bundle (the paper's "component Calculation is
    /// stopped" scenario step), then lets the DRCR cascade.
    ///
    /// # Errors
    ///
    /// Propagates framework stop failures.
    pub fn stop_bundle(&mut self, bundle: BundleId) -> Result<(), FrameworkError> {
        self.framework.stop(bundle)?;
        self.process();
        Ok(())
    }

    /// Restarts a stopped component bundle.
    ///
    /// # Errors
    ///
    /// Propagates framework start failures.
    pub fn start_bundle(&mut self, bundle: BundleId) -> Result<(), FrameworkError> {
        self.framework.start(bundle)?;
        self.process();
        Ok(())
    }

    /// Uninstalls a component bundle.
    ///
    /// # Errors
    ///
    /// Propagates framework uninstall failures.
    pub fn uninstall_bundle(&mut self, bundle: BundleId) -> Result<(), FrameworkError> {
        self.framework.uninstall(bundle)?;
        self.process();
        Ok(())
    }

    /// Registers a customized resolving service (§2.2's "resolving service
    /// … plugged into the DRCR runtime by using OSGi service model") and
    /// re-resolves.
    pub fn register_resolver(&mut self, resolver: Rc<dyn ResolvingService>) -> ServiceId {
        let name = resolver.name().to_string();
        let id = self.framework.registry_mut().register(
            &[RESOLVER_SERVICE],
            Rc::new(ResolverHandle(resolver)),
            Properties::new().with("drt.resolver.name", name.as_str()),
        );
        self.process();
        id
    }

    /// Removes a customized resolving service and re-resolves.
    pub fn unregister_resolver(&mut self, id: ServiceId) {
        self.framework.registry_mut().unregister(id);
        self.process();
    }

    /// Drains framework events into the DRCR and resolves to a fixpoint.
    pub fn process(&mut self) {
        self.drcr.borrow_mut().process(&mut self.framework);
    }

    /// Advances virtual time, processing DRCR work before and after.
    pub fn advance(&mut self, span: SimDuration) {
        self.process();
        self.kernel.borrow_mut().run_for(span);
        self.process();
    }

    /// Current lifecycle state of a component.
    pub fn component_state(&self, name: &str) -> Option<ComponentState> {
        self.drcr.borrow().state_of(name)
    }

    /// Looks up the management service of a component, the way an external
    /// adaptation manager would: through the service registry, by exact
    /// component name. The registry indexes that property, so this is the
    /// service the LDAP filter `(drt.name=<name>)` selects, without a scan.
    pub fn management(&self, name: &str) -> Option<Rc<dyn RtComponentManagement>> {
        let registry = self.framework.registry();
        let id = registry.find_one_by(MANAGEMENT_SERVICE, PROP_COMPONENT_NAME, name)?;
        Some(registry.get::<ManagementHandle>(id)?.0.clone())
    }

    /// A deterministic metrics snapshot covering all three layers: the
    /// executive's own series (resolve rounds, admission utilization,
    /// bridge latency) merged with kernel-derived series (per-component
    /// scheduling latency, per-CPU real-time utilization, trace volume).
    pub fn metrics_report(&self) -> crate::obs::MetricsReport {
        let drcr = self.drcr.borrow();
        let mut metrics = drcr.metrics().clone();
        let kernel = self.kernel.borrow();
        for name in drcr.component_names() {
            let Some(task) = drcr.task_of(&name) else {
                continue;
            };
            let Some(stats) = kernel.task_stats(task) else {
                continue;
            };
            if stats.is_empty() {
                continue;
            }
            metrics.gauge(&format!("sched.{name}.latency.avg_ns"), stats.average());
            metrics.gauge(
                &format!("sched.{name}.latency.min_ns"),
                stats.min().unwrap_or(0) as f64,
            );
            metrics.gauge(
                &format!("sched.{name}.latency.max_ns"),
                stats.max().unwrap_or(0) as f64,
            );
            metrics.count(&format!("sched.{name}.cycles"), stats.count() as u64);
        }
        for cpu in 0..kernel.cpu_count() {
            metrics.gauge(
                &format!("kernel.cpu{cpu}.rt_utilization"),
                kernel.cpu_rt_utilization(cpu),
            );
        }
        metrics.count("kernel.trace.recorded", kernel.trace().total_recorded());
        metrics.count("kernel.trace.dropped", kernel.trace().dropped());
        metrics.snapshot()
    }

    /// Posts a message into a named mailbox from outside the RT domain,
    /// waking any event-driven components bound to it. Returns `false`
    /// when the mailbox was full.
    ///
    /// # Errors
    ///
    /// Propagates [`DrcrError`] for unknown mailboxes.
    pub fn post(&mut self, mailbox: &str, msg: &[u8]) -> Result<bool, DrcrError> {
        self.kernel
            .borrow_mut()
            .post(mailbox, msg)
            .map_err(|e| DrcrError::Kernel(e.to_string()))
    }
}

/// The container's side of the unified control surface: every operation
/// delegates to the DRCR (which owns the mechanics and the global view),
/// then runs [`DrtRuntime::process`] so the system re-resolves immediately.
impl ComponentControl for DrtRuntime {
    fn suspend_component(&mut self, name: &str) -> Result<(), DrcrError> {
        self.drcr.borrow_mut().suspend_component(name)?;
        self.process();
        Ok(())
    }

    fn resume_component(&mut self, name: &str) -> Result<(), DrcrError> {
        self.drcr.borrow_mut().resume_component(name)?;
        self.process();
        Ok(())
    }

    fn disable_component(&mut self, name: &str) -> Result<(), DrcrError> {
        self.drcr
            .borrow_mut()
            .disable_component(name, &mut self.framework)?;
        self.process();
        Ok(())
    }

    fn enable_component(&mut self, name: &str) -> Result<(), DrcrError> {
        self.drcr.borrow_mut().enable_component(name)?;
        self.process();
        Ok(())
    }

    fn switch_mode(&mut self, name: &str, mode: &str) -> Result<(), DrcrError> {
        self.drcr
            .borrow_mut()
            .switch_mode(name, mode, &mut self.framework)?;
        self.process();
        Ok(())
    }

    fn trigger_component(&mut self, name: &str) -> Result<(), DrcrError> {
        self.drcr.borrow_mut().trigger_component(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::ComponentDescriptor;
    use crate::hybrid::{FnLogic, RtIo};
    use crate::model::{PortInterface, PropertyValue};
    use crate::resolve::AlwaysReject;
    use rtos::latency::TimerJitterModel;
    use rtos::shm::DataType;

    fn runtime() -> DrtRuntime {
        DrtRuntime::new(KernelConfig::new(99).with_timer(TimerJitterModel::ideal()))
    }

    fn calc_provider() -> ComponentProvider {
        let descriptor = ComponentDescriptor::builder("calc")
            .periodic(1000, 0, 2)
            .cpu_usage(0.2)
            .outport("latdat", PortInterface::Shm, DataType::Integer, 1)
            .build()
            .unwrap();
        ComponentProvider::new(descriptor, || {
            Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                let v = (io.cycle() as i32).to_le_bytes();
                io.compute(SimDuration::from_micros(50));
                io.write("latdat", &v).unwrap();
            }))
        })
    }

    fn disp_provider() -> ComponentProvider {
        let descriptor = ComponentDescriptor::builder("disp")
            .periodic(4, 0, 5)
            .cpu_usage(0.05)
            .inport("latdat", PortInterface::Shm, DataType::Integer, 1)
            .build()
            .unwrap();
        ComponentProvider::new(descriptor, || {
            Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                let _ = io.read("latdat").unwrap();
                io.compute(SimDuration::from_micros(20));
            }))
        })
    }

    #[test]
    fn standalone_component_activates_and_runs() {
        let mut rt = runtime();
        rt.install_component("demo.calc", calc_provider()).unwrap();
        assert_eq!(rt.component_state("calc"), Some(ComponentState::Active));
        rt.advance(SimDuration::from_millis(10));
        let task = rt.drcr().task_of("calc").unwrap();
        assert!(rt.kernel().task_cycles(task).unwrap() >= 9);
        // The outport exists as a SHM segment.
        assert!(rt.kernel().shm().get("latdat").is_some());
    }

    #[test]
    fn dependent_component_waits_for_provider() {
        // The §4.3 scenario, forward direction.
        let mut rt = runtime();
        rt.install_component("demo.disp", disp_provider()).unwrap();
        assert_eq!(
            rt.component_state("disp"),
            Some(ComponentState::Unsatisfied)
        );
        rt.install_component("demo.calc", calc_provider()).unwrap();
        assert_eq!(rt.component_state("disp"), Some(ComponentState::Active));
        assert_eq!(
            rt.drcr().providers_of("disp").unwrap(),
            &[("latdat".to_string(), "calc".to_string())]
        );
    }

    #[test]
    fn stopping_provider_cascades_to_consumer() {
        // The §4.3 scenario, reverse direction.
        let mut rt = runtime();
        let calc_bundle = rt.install_component("demo.calc", calc_provider()).unwrap();
        rt.install_component("demo.disp", disp_provider()).unwrap();
        rt.advance(SimDuration::from_millis(5));
        assert_eq!(rt.component_state("disp"), Some(ComponentState::Active));
        rt.stop_bundle(calc_bundle).unwrap();
        // calc's provider service vanished -> component destroyed -> disp
        // unsatisfied.
        assert_eq!(rt.component_state("calc"), None);
        assert_eq!(
            rt.component_state("disp"),
            Some(ComponentState::Unsatisfied)
        );
        // Admission released.
        assert!(rt.drcr().ledger().is_empty());
        // Restarting the provider re-activates the consumer automatically.
        rt.start_bundle(calc_bundle).unwrap();
        assert_eq!(rt.component_state("disp"), Some(ComponentState::Active));
    }

    #[test]
    fn customized_resolver_vetoes_activation() {
        let mut rt = runtime();
        let veto = rt.register_resolver(Rc::new(AlwaysReject("maintenance window".into())));
        rt.install_component("demo.calc", calc_provider()).unwrap();
        assert_eq!(
            rt.component_state("calc"),
            Some(ComponentState::Unsatisfied)
        );
        assert!(rt.drcr().admission_verdicts().any(|e| matches!(
            &e.event,
            crate::obs::DrcrEvent::AdmissionVerdict {
                internal: false,
                admitted: false,
                reason,
                ..
            } if reason.contains("maintenance window")
        )));
        // Removing the resolver re-resolves and admits.
        rt.unregister_resolver(veto);
        assert_eq!(rt.component_state("calc"), Some(ComponentState::Active));
    }

    #[test]
    fn utilization_admission_blocks_overload_and_recovers() {
        let mut rt = runtime();
        let mk = |name: &str, usage: f64| {
            let d = ComponentDescriptor::builder(name)
                .periodic(100, 0, 3)
                .cpu_usage(usage)
                .build()
                .unwrap();
            ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
        };
        let big = rt.install_component("demo.big", mk("big", 0.7)).unwrap();
        rt.install_component("demo.mid", mk("mid", 0.4)).unwrap();
        assert_eq!(rt.component_state("big"), Some(ComponentState::Active));
        // 0.7 + 0.4 > 1.0: mid must wait.
        assert_eq!(rt.component_state("mid"), Some(ComponentState::Unsatisfied));
        // When big leaves, mid gets in.
        rt.stop_bundle(big).unwrap();
        assert_eq!(rt.component_state("mid"), Some(ComponentState::Active));
    }

    #[test]
    fn management_suspend_resume_roundtrip() {
        let mut rt = runtime();
        rt.install_component("demo.calc", calc_provider()).unwrap();
        rt.advance(SimDuration::from_millis(5));
        let mgmt = rt.management("calc").unwrap();
        assert_eq!(mgmt.state(), ComponentState::Active);
        mgmt.suspend().unwrap();
        rt.process();
        assert_eq!(rt.component_state("calc"), Some(ComponentState::Suspended));
        // Reservation kept while suspended.
        assert_eq!(rt.drcr().ledger().reservation("calc"), Some((0, 0.2)));
        let task = rt.drcr().task_of("calc").unwrap();
        // A cycle in flight at suspend time completes (suspend takes effect
        // at cycle end, §3.2); after that the count freezes.
        rt.advance(SimDuration::from_millis(10));
        let frozen = rt.kernel().task_cycles(task).unwrap();
        rt.advance(SimDuration::from_millis(10));
        assert_eq!(rt.kernel().task_cycles(task).unwrap(), frozen);
        mgmt.resume().unwrap();
        rt.advance(SimDuration::from_millis(10));
        assert!(rt.kernel().task_cycles(task).unwrap() > frozen);
    }

    #[test]
    fn suspending_provider_unsatisfies_consumer() {
        let mut rt = runtime();
        rt.install_component("demo.calc", calc_provider()).unwrap();
        rt.install_component("demo.disp", disp_provider()).unwrap();
        rt.suspend_component("calc").unwrap();
        assert_eq!(
            rt.component_state("disp"),
            Some(ComponentState::Unsatisfied)
        );
        rt.resume_component("calc").unwrap();
        assert_eq!(rt.component_state("disp"), Some(ComponentState::Active));
    }

    #[test]
    fn async_property_roundtrip_over_the_bridge() {
        let mut rt = runtime();
        let descriptor = ComponentDescriptor::builder("gainer")
            .periodic(1000, 0, 2)
            .cpu_usage(0.1)
            .property("gain", PropertyValue::Integer(1))
            .build()
            .unwrap();
        rt.install_component(
            "demo.gainer",
            ComponentProvider::new(descriptor, || {
                Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
            }),
        )
        .unwrap();
        let mgmt = rt.management("gainer").unwrap();

        // Read the initial value asynchronously.
        let token = mgmt.request_property("gain").unwrap();
        // Not answered before the RT task has cycled.
        assert_eq!(mgmt.poll_reply(token).unwrap(), None);
        rt.advance(SimDuration::from_millis(2));
        let mgmt = rt.management("gainer").unwrap();
        assert_eq!(
            mgmt.poll_reply(token).unwrap(),
            Some(crate::manage::ManagementReply::Property {
                name: "gain".into(),
                value: Some(PropertyValue::Integer(1)),
            })
        );

        // Replace it, then read it back.
        mgmt.set_property("gain", PropertyValue::Integer(7))
            .unwrap();
        rt.advance(SimDuration::from_millis(2));
        let token = mgmt.request_property("gain").unwrap();
        rt.advance(SimDuration::from_millis(2));
        match mgmt.poll_reply(token).unwrap() {
            Some(crate::manage::ManagementReply::Property { value, .. }) => {
                assert_eq!(value, Some(PropertyValue::Integer(7)));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn status_query_reports_cycles() {
        let mut rt = runtime();
        rt.install_component("demo.calc", calc_provider()).unwrap();
        rt.advance(SimDuration::from_millis(10));
        let mgmt = rt.management("calc").unwrap();
        let token = mgmt.request_status().unwrap();
        rt.advance(SimDuration::from_millis(2));
        match mgmt.poll_reply(token).unwrap() {
            Some(crate::manage::ManagementReply::Status { cycles, .. }) => {
                assert!(cycles >= 10, "cycles {cycles}");
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn disabled_component_ignores_resolution_until_enabled() {
        let mut rt = runtime();
        let descriptor = ComponentDescriptor::builder("idle")
            .periodic(10, 0, 2)
            .cpu_usage(0.1)
            .enabled(false)
            .build()
            .unwrap();
        rt.install_component(
            "demo.idle",
            ComponentProvider::new(descriptor, || {
                Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {}))
            }),
        )
        .unwrap();
        assert_eq!(rt.component_state("idle"), Some(ComponentState::Disabled));
        rt.enable_component("idle").unwrap();
        assert_eq!(rt.component_state("idle"), Some(ComponentState::Active));
        // And back to disabled, tearing the task down.
        rt.disable_component("idle").unwrap();
        assert_eq!(rt.component_state("idle"), Some(ComponentState::Disabled));
        assert!(rt.drcr().ledger().is_empty());
    }

    #[test]
    fn transition_log_tells_the_story() {
        let mut rt = runtime();
        let calc_bundle = rt.install_component("demo.calc", calc_provider()).unwrap();
        rt.install_component("demo.disp", disp_provider()).unwrap();
        rt.stop_bundle(calc_bundle).unwrap();
        let log: Vec<String> = rt
            .drcr()
            .events()
            .iter()
            .filter(|e| matches!(e.event, crate::obs::DrcrEvent::Transition { .. }))
            .map(|e| e.event.to_string())
            .collect();
        assert!(log
            .iter()
            .any(|l| l.contains("calc: INSTALLED -> UNSATISFIED")));
        assert!(log
            .iter()
            .any(|l| l.contains("calc: UNSATISFIED -> ACTIVE")));
        assert!(log
            .iter()
            .any(|l| l.contains("disp: UNSATISFIED -> ACTIVE")));
        assert!(log
            .iter()
            .any(|l| l.contains("disp: ACTIVE -> UNSATISFIED")));
        assert!(log.iter().any(|l| l.contains("calc: ACTIVE -> DESTROYED")));
    }
}
