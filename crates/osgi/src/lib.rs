//! # osgi — a minimal OSGi-like module framework
//!
//! The non-real-time substrate of the paper's split-container architecture:
//! a from-scratch reimplementation of the OSGi contracts the DRCom model
//! depends on.
//!
//! * [`framework`] — bundle lifecycle (install → resolve → start → stop →
//!   uninstall), package wiring with version ranges, activators, and the
//!   event queue driving the DRCR's reconfiguration loop.
//! * [`registry`] — the service registry with ranking-ordered discovery.
//! * [`ldap`] — full RFC 1960 LDAP filters over typed service properties.
//! * [`manifest`] / [`version`] — Import/Export-Package headers and OSGi
//!   version(-range) syntax.
//! * [`event`] — bundle and service events.
//! * [`ds`] — a Declarative Services runtime (the non-real-time component
//!   model the paper's DRCom extends).
//! * [`tracker`] — the `ServiceTracker` pattern over the drained event
//!   model.
//!
//! The framework is deliberately single-threaded: the whole reproduction is
//! a deterministic simulation, so services are `Rc<dyn Any>` and events are
//! drained synchronously rather than dispatched from worker threads.
//!
//! ```
//! use osgi::framework::{Framework, NoopActivator};
//! use osgi::manifest::BundleManifest;
//! use osgi::version::Version;
//!
//! # fn main() -> Result<(), osgi::framework::FrameworkError> {
//! let mut fw = Framework::new();
//! let bundle = fw.install(
//!     BundleManifest::new("demo.app", Version::new(1, 0, 0)),
//!     Box::new(NoopActivator),
//! )?;
//! fw.start(bundle)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod ds;
pub mod event;
pub mod framework;
pub mod ldap;
pub mod manifest;
pub mod registry;
pub mod tracker;
pub mod version;

pub use event::{
    BundleEvent, BundleEventKind, BundleId, FrameworkEvent, ServiceEvent, ServiceEventKind,
};
pub use framework::{
    BundleActivator, BundleContext, BundleState, Framework, FrameworkError, NoopActivator,
};
pub use ldap::{Filter, PropValue, Properties};
pub use manifest::BundleManifest;
pub use registry::{ServiceId, ServiceRef, ServiceRegistry};
pub use tracker::{ServiceTracker, TrackerEvent};
pub use version::{Version, VersionRange};
