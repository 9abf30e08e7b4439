//! # drcom — the Declarative Real-time Component model and runtime
//!
//! A Rust reproduction of *"A framework for adaptive real-time
//! applications: the declarative real-time OSGi component model"* (Gui, De
//! Florio, Sun, Blondia — Middleware 2008).
//!
//! A **DRCom** is a component whose real-time contract — task type,
//! priority, frequency, CPU claim, communication ports — is *declared* in
//! meta-data rather than implemented in code. The **DRCR** executive owns
//! every component's lifecycle, keeps a global view of all deployed
//! contracts, and resolves functional (port wiring) and non-functional
//! (CPU admission) constraints whenever the system changes, so components
//! can arrive and depart at run time without breaking admitted contracts.
//!
//! The crate layers over two substrates: [`rtos`] (an RTAI-like real-time
//! kernel simulator — the "small real-time part") and [`osgi`] (a module
//! framework with an LDAP-filtered service registry — the "large
//! non-real-time part").
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`xml`] | §2.3 | descriptor document parser |
//! | [`descriptor`] | §2.3 (Fig. 2) | the component contract, parse + validate |
//! | [`model`] | §2.3 | task spec, ports, properties, CPU claims |
//! | [`lifecycle`] | §2.2 (Fig. 1) | the component state machine |
//! | [`wiring`] | §2.3/§4.3 | functional constraint solving |
//! | [`admission`] | §2.2 | per-CPU reserved-budget ledger |
//! | [`resolve`] | §2.2/§4.3 | pluggable resolving services (utilization, RM, EDF) |
//! | [`reactive`] | §4.3 | the incremental constraint-node engine + naive oracle |
//! | [`hybrid`] | §3.1/§3.2 (Fig. 3) | the hybrid RT/non-RT component + async bridge |
//! | [`manage`] | §2.4 | the component management interface |
//! | [`drcr`] | §2.2 | the executive: event-driven resolution, cascades |
//! | [`contracts`] | §2.1/§5 | the contract monitor: point and stochastic verdicts, learned claim refinement |
//! | [`adapt`] | §2.4 | adaptation managers (load shedding, retuning) |
//! | [`adl`] | §6 (future work) | validated assemblies with explicit connections |
//! | [`parallel`] | §3/§6 | descriptor fleets on the parallel executor |
//! | [`runtime`] | §3 (Fig. 3) | the assembled split container |
//! | [`federation`] | §6 (future work) | multi-node sharding, failover, degradation |
//!
//! ## Quick start
//!
//! ```
//! use drcom::prelude::*;
//! use rtos::kernel::KernelConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rt = DrtRuntime::new(KernelConfig::new(1));
//! let camera = ComponentDescriptor::builder("camera")
//!     .periodic(100, 0, 2)
//!     .cpu_usage(0.1)
//!     .build()?;
//! rt.install_component(
//!     "demo.camera",
//!     ComponentProvider::new(camera, || {
//!         Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
//!             io.compute(SimDuration::from_micros(200));
//!         }))
//!     }),
//! )?;
//! rt.advance(SimDuration::from_millis(100));
//! assert_eq!(rt.component_state("camera"), Some(ComponentState::Active));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod adapt;
pub mod adl;
pub mod admission;
pub mod contracts;
pub mod descriptor;
pub mod drcr;
pub mod error;
pub mod faults;
pub mod federation;
pub mod hybrid;
pub mod lifecycle;
pub mod lower;
pub mod manage;
pub mod model;
pub mod obs;
pub mod parallel;
pub mod reactive;
pub mod resolve;
pub mod rta;
pub mod runtime;
pub mod supervise;
pub mod view;
pub mod wiring;
pub mod xml;

pub use adapt::{
    AdaptationCommand, AdaptationManager, AdaptationPolicy, GracefulDegradation, LoadShedding,
};
pub use adl::{AdlError, Assembly, DeployedAssembly};
pub use contracts::{ContractOutcome, LearningConfig, StochasticMonitor, UsageEstimator};
pub use descriptor::{ComponentDescriptor, DescriptorBuilder};
pub use drcr::{ComponentProvider, Drcr, COMPONENT_SERVICE, PROP_COMPONENT_NAME};
pub use error::{DescriptorError, DrcrError};
pub use faults::{
    FaultInjector, FaultKind, FaultPlan, InjectionLog, LinkRates, NodeFaultKind, NodeFaultPlan,
    StormRates,
};
pub use federation::{FailoverAccounting, Federation, FederationConfig};
pub use hybrid::{BridgeMode, FnLogic, RtIo, RtLogic};
pub use lifecycle::{ComponentState, Rejection, WaitReport};
pub use manage::{
    ComponentControl, ManagementReply, RequestToken, RtComponentManagement, MANAGEMENT_SERVICE,
};
pub use model::{
    CpuUsage, OperatingMode, PortInterface, PortSpec, PropertyValue, TaskSpec, BASE_MODE,
};
pub use obs::{
    BridgeEvent, DrcrEvent, FedEndpoint, FedEvent, Histogram, MetricsRegistry, MetricsReport,
};
pub use parallel::{FleetBridge, FleetMember};
pub use reactive::{NaiveResolver, ReactiveResolver};
pub use resolve::{Decision, Resolver, ResolvingService, RESOLVER_SERVICE};
pub use rta::{RtaAnalysis, RtaParams, RtaResolver, TaskWcrt};
pub use runtime::{DrcomActivator, DrtRuntime};
pub use supervise::{FaultDecision, QuarantineRule, RestartPolicy, SupervisionConfig};
pub use view::{ComponentInfo, SystemView};

/// Convenience re-exports for examples and downstream code.
pub mod prelude {
    pub use crate::descriptor::ComponentDescriptor;
    pub use crate::drcr::ComponentProvider;
    pub use crate::hybrid::{FnLogic, RtIo, RtLogic};
    pub use crate::lifecycle::ComponentState;
    pub use crate::manage::{ComponentControl, ManagementReply, RtComponentManagement};
    pub use crate::model::{PortInterface, PropertyValue};
    pub use crate::obs::{BridgeEvent, DrcrEvent, MetricsReport};
    pub use crate::runtime::DrtRuntime;
    pub use crate::supervise::{RestartPolicy, SupervisionConfig};
    pub use rtos::shm::DataType;
    pub use rtos::time::{SimDuration, SimTime};
}
