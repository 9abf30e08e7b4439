//! # drt — the Declarative Real-Time OSGi Component Model, in Rust
//!
//! Umbrella crate re-exporting the whole reproduction of Gui et al.,
//! *"A framework for adaptive real-time applications: the declarative
//! real-time OSGi component model"* (Middleware 2008):
//!
//! * [`drcom`] — the paper's contribution: declarative component
//!   contracts, the DRCR executive, hybrid RT/non-RT components, plus the
//!   future-work extensions (modes, enforcement, adaptation, assemblies).
//! * [`osgi`] — the module-framework substrate: bundles, LDAP-filtered
//!   service registry, Declarative Services, service tracking.
//! * [`rtos`] — the real-time substrate: a deterministic discrete-event
//!   simulator of an RTAI-like dual-kernel machine.
//!
//! Start at [`drcom::runtime::DrtRuntime`], or run the examples:
//!
//! ```console
//! cargo run --example quickstart
//! cargo run --release -p bench --bin table1   # the paper's Table 1
//! ```
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.

pub use drcom;
pub use osgi;
pub use rtos;

/// One-stop re-exports for applications, examples and tests: the runtime
/// and its control surface, component building blocks, the typed
/// observability layer, and the kernel configuration types.
pub mod prelude {
    pub use drcom::contracts::{
        ContractOutcome, LearningConfig, StochasticMonitor, UsageEstimator,
    };
    pub use drcom::descriptor::ComponentDescriptor;
    pub use drcom::drcr::{ComponentProvider, Drcr};
    pub use drcom::faults::{
        FaultInjector, FaultKind, FaultPlan, InjectionLog, LinkRates, NodeFaultKind, NodeFaultPlan,
        StormRates,
    };
    pub use drcom::federation::{FailoverAccounting, Federation, FederationConfig};
    pub use drcom::hybrid::{FnLogic, RtIo, RtLogic};
    pub use drcom::lifecycle::ComponentState;
    pub use drcom::manage::{ComponentControl, ManagementReply, RtComponentManagement};
    pub use drcom::model::{PortInterface, PropertyValue, BASE_MODE};
    pub use drcom::obs::{BridgeEvent, DrcrEvent, FedEndpoint, FedEvent, MetricsReport};
    pub use drcom::parallel::FleetBridge;
    pub use drcom::runtime::DrtRuntime;
    pub use drcom::supervise::{QuarantineRule, RestartPolicy, SupervisionConfig};
    pub use rtos::kernel::KernelConfig;
    pub use rtos::latency::TimerJitterModel;
    pub use rtos::shm::DataType;
    pub use rtos::time::{SimDuration, SimTime};
    pub use rtos::trace::KernelEvent;
}
