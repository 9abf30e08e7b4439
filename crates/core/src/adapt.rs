//! Adaptation managers: closing the loop the paper's §2.4 opens.
//!
//! The management interface exists so that "general or application specific
//! adaptation managers can monitor the tasks status and adjust the
//! parameter or even change the application structure according to current
//! available resources and system requirements". This module provides that
//! manager as a reusable harness:
//!
//! * [`AdaptationPolicy`] — a pure decision function from the global
//!   [`SystemView`] + per-CPU pressure to [`AdaptationCommand`]s.
//! * [`AdaptationManager`] — discovers management services through the
//!   registry (exactly like an external bundle would), evaluates its
//!   policies, and applies the commands.
//! * [`LoadShedding`] — the classic built-in policy: when reserved CPU
//!   pressure exceeds a high watermark, suspend the least *important*
//!   active components (importance is the `importance` descriptor property,
//!   default 0) until below it; when pressure falls under the low
//!   watermark, resume the most important suspended ones.

use crate::error::DrcrError;
use crate::lifecycle::ComponentState;
use crate::manage::ComponentControl;
use crate::model::PropertyValue;
use crate::runtime::DrtRuntime;
use crate::view::SystemView;
use std::fmt;

/// A structural or parametric adjustment the manager can apply.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptationCommand {
    /// Suspend a component (reservation kept).
    Suspend(String),
    /// Resume a suspended component.
    Resume(String),
    /// Replace a configuration property over the async bridge.
    SetProperty {
        /// Target component.
        component: String,
        /// Property name.
        name: String,
        /// New value.
        value: PropertyValue,
    },
    /// Switch a component to another declared operating mode (graceful
    /// degradation without losing the component entirely).
    SwitchMode {
        /// Target component.
        component: String,
        /// Mode name ([`crate::model::BASE_MODE`] restores the base
        /// contract).
        mode: String,
    },
}

impl fmt::Display for AdaptationCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptationCommand::Suspend(c) => write!(f, "suspend `{c}`"),
            AdaptationCommand::Resume(c) => write!(f, "resume `{c}`"),
            AdaptationCommand::SetProperty {
                component,
                name,
                value,
            } => write!(f, "set `{component}`.{name} = {value}"),
            AdaptationCommand::SwitchMode { component, mode } => {
                write!(f, "switch `{component}` to mode `{mode}`")
            }
        }
    }
}

/// Inputs a policy sees on each evaluation.
#[derive(Debug, Clone)]
pub struct AdaptationContext {
    /// The DRCR's global view.
    pub view: SystemView,
    /// Importance of each component (`importance` property, default 0).
    pub importance: Vec<(String, i64)>,
    /// Per component: `(declared mode names, current mode)`.
    pub modes: Vec<(String, Vec<String>, String)>,
}

impl AdaptationContext {
    /// Importance of one component.
    pub fn importance_of(&self, name: &str) -> i64 {
        self.importance
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, i)| *i)
            .unwrap_or(0)
    }

    /// Declared alternate modes of one component.
    pub fn modes_of(&self, name: &str) -> &[String] {
        self.modes
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, m, _)| m.as_slice())
            .unwrap_or(&[])
    }

    /// The mode a component currently runs under.
    pub fn current_mode_of(&self, name: &str) -> &str {
        self.modes
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, c)| c.as_str())
            .unwrap_or(crate::model::BASE_MODE)
    }
}

/// A decision function evaluated by the [`AdaptationManager`].
pub trait AdaptationPolicy {
    /// Short policy name for logs.
    fn name(&self) -> &str;

    /// Decides the commands to apply for the current context.
    fn evaluate(&mut self, ctx: &AdaptationContext) -> Vec<AdaptationCommand>;
}

/// Watermark-based load shedding. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct LoadShedding {
    /// Reserved-utilization fraction above which shedding starts.
    pub high_watermark: f64,
    /// Fraction below which restoration starts.
    pub low_watermark: f64,
    /// CPU to govern.
    pub cpu: u32,
}

impl LoadShedding {
    /// A shedding policy for one CPU with the given watermarks.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < low < high <= 1`.
    pub fn new(cpu: u32, low_watermark: f64, high_watermark: f64) -> Self {
        assert!(
            0.0 < low_watermark && low_watermark < high_watermark && high_watermark <= 1.0,
            "watermarks must satisfy 0 < low < high <= 1"
        );
        LoadShedding {
            high_watermark,
            low_watermark,
            cpu,
        }
    }
}

impl AdaptationPolicy for LoadShedding {
    fn name(&self) -> &str {
        "load-shedding"
    }

    fn evaluate(&mut self, ctx: &AdaptationContext) -> Vec<AdaptationCommand> {
        let mut commands = Vec::new();
        let mut pressure = ctx.view.utilization(self.cpu);
        if pressure > self.high_watermark {
            // Shed least-important active components until under the mark.
            let mut active: Vec<_> = ctx
                .view
                .components()
                .iter()
                .filter(|c| c.cpu == self.cpu && c.state == ComponentState::Active)
                .collect();
            active.sort_by_key(|c| ctx.importance_of(&c.name));
            for c in active {
                if pressure <= self.high_watermark {
                    break;
                }
                // Suspension keeps the reservation, so shedding only helps
                // *runtime* pressure; we still track the reserved number so
                // the walk terminates deterministically.
                pressure -= c.cpu_usage;
                commands.push(AdaptationCommand::Suspend(c.name.to_string()));
            }
        } else if pressure < self.low_watermark {
            // Restore most-important suspended components while room lasts.
            let mut suspended: Vec<_> = ctx
                .view
                .components()
                .iter()
                .filter(|c| c.cpu == self.cpu && c.state == ComponentState::Suspended)
                .collect();
            suspended.sort_by_key(|c| std::cmp::Reverse(ctx.importance_of(&c.name)));
            for c in suspended {
                commands.push(AdaptationCommand::Resume(c.name.to_string()));
            }
        }
        commands
    }
}

/// Graceful degradation: under pressure, switch the least-important moded
/// components to their *cheapest* declared mode before anyone gets
/// suspended; on relief, restore the base mode for the most important
/// first.
#[derive(Debug, Clone)]
pub struct GracefulDegradation {
    /// Reserved-utilization fraction above which degradation starts.
    pub high_watermark: f64,
    /// Fraction below which restoration starts.
    pub low_watermark: f64,
    /// CPU to govern.
    pub cpu: u32,
}

impl GracefulDegradation {
    /// A degradation policy for one CPU with the given watermarks.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < low < high <= 1`.
    pub fn new(cpu: u32, low_watermark: f64, high_watermark: f64) -> Self {
        assert!(
            0.0 < low_watermark && low_watermark < high_watermark && high_watermark <= 1.0,
            "watermarks must satisfy 0 < low < high <= 1"
        );
        GracefulDegradation {
            high_watermark,
            low_watermark,
            cpu,
        }
    }
}

impl AdaptationPolicy for GracefulDegradation {
    fn name(&self) -> &str {
        "graceful-degradation"
    }

    fn evaluate(&mut self, ctx: &AdaptationContext) -> Vec<AdaptationCommand> {
        let pressure = ctx.view.utilization(self.cpu);
        let mut commands = Vec::new();
        if pressure > self.high_watermark {
            let mut candidates: Vec<_> = ctx
                .view
                .components()
                .iter()
                .filter(|c| {
                    c.cpu == self.cpu
                        && c.state == ComponentState::Active
                        && ctx.current_mode_of(&c.name) == crate::model::BASE_MODE
                        && !ctx.modes_of(&c.name).is_empty()
                })
                .collect();
            candidates.sort_by_key(|c| ctx.importance_of(&c.name));
            let mut relief = 0.0;
            for c in candidates {
                if pressure - relief <= self.high_watermark {
                    break;
                }
                // Cheapest declared mode by name order is a policy detail;
                // here: the first declared mode (descriptors list cheaper
                // modes first by convention).
                let mode = ctx.modes_of(&c.name)[0].clone();
                relief += c.cpu_usage; // upper bound on what the switch frees
                commands.push(AdaptationCommand::SwitchMode {
                    component: c.name.to_string(),
                    mode,
                });
            }
        } else if pressure < self.low_watermark {
            let mut degraded: Vec<_> = ctx
                .view
                .components()
                .iter()
                .filter(|c| {
                    c.cpu == self.cpu && ctx.current_mode_of(&c.name) != crate::model::BASE_MODE
                })
                .collect();
            degraded.sort_by_key(|c| std::cmp::Reverse(ctx.importance_of(&c.name)));
            for c in degraded {
                commands.push(AdaptationCommand::SwitchMode {
                    component: c.name.to_string(),
                    mode: crate::model::BASE_MODE.to_string(),
                });
            }
        }
        commands
    }
}

/// The manager: evaluates policies and applies their commands through the
/// DRCR-registered management services.
pub struct AdaptationManager {
    policies: Vec<Box<dyn AdaptationPolicy>>,
    log: Vec<String>,
}

impl fmt::Debug for AdaptationManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptationManager")
            .field("policies", &self.policies.len())
            .finish()
    }
}

impl AdaptationManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        AdaptationManager {
            policies: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Adds a policy (builder style).
    pub fn with_policy(mut self, policy: Box<dyn AdaptationPolicy>) -> Self {
        self.policies.push(policy);
        self
    }

    /// What the manager has done so far.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    /// Evaluates every policy once and applies the resulting commands.
    /// Returns the commands applied.
    ///
    /// # Errors
    ///
    /// Stops at the first command that fails, reporting it; commands
    /// already applied stay applied.
    pub fn run_once(&mut self, rt: &mut DrtRuntime) -> Result<Vec<AdaptationCommand>, DrcrError> {
        let ctx = {
            let drcr = rt.drcr();
            let names = drcr.component_names();
            AdaptationContext {
                view: drcr.system_view(),
                importance: names
                    .iter()
                    .map(|name| (name.clone(), component_importance(&drcr, name)))
                    .collect(),
                modes: names
                    .iter()
                    .map(|name| {
                        let declared = drcr
                            .descriptor_ref(name)
                            .map(|d| d.modes.iter().map(|m| m.name.clone()).collect())
                            .unwrap_or_default();
                        let current = drcr
                            .current_mode_ref(name)
                            .unwrap_or(crate::model::BASE_MODE)
                            .to_string();
                        (name.clone(), declared, current)
                    })
                    .collect(),
            }
        };
        let mut applied = Vec::new();
        for policy in &mut self.policies {
            for command in policy.evaluate(&ctx) {
                self.log.push(format!("{}: {command}", policy.name()));
                match &command {
                    AdaptationCommand::Suspend(name) => rt.suspend_component(name)?,
                    AdaptationCommand::Resume(name) => rt.resume_component(name)?,
                    AdaptationCommand::SetProperty {
                        component,
                        name,
                        value,
                    } => {
                        let mgmt = rt.management(component).ok_or_else(|| {
                            DrcrError::Management(format!(
                                "no management service for `{component}`"
                            ))
                        })?;
                        mgmt.set_property(name, value.clone())?;
                    }
                    AdaptationCommand::SwitchMode { component, mode } => {
                        rt.switch_mode(component, mode)?;
                    }
                }
                applied.push(command);
            }
        }
        Ok(applied)
    }
}

impl Default for AdaptationManager {
    fn default() -> Self {
        Self::new()
    }
}

/// Reads a component's `importance` descriptor property from the DRCR view
/// (0 when absent).
fn component_importance(drcr: &crate::drcr::Drcr, name: &str) -> i64 {
    // Importance is declared in the descriptor; the DRCR does not interpret
    // it — adaptation is deliberately outside the executive's core.
    drcr.descriptor_ref(name)
        .and_then(|d| match d.property("importance") {
            Some(PropertyValue::Integer(i)) => Some(*i),
            _ => None,
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::ComponentDescriptor;
    use crate::drcr::ComponentProvider;
    use crate::hybrid::{FnLogic, RtIo};
    use rtos::kernel::KernelConfig;
    use rtos::latency::TimerJitterModel;
    use rtos::time::SimDuration;

    fn component(name: &str, usage: f64, importance: i64) -> ComponentProvider {
        let d = ComponentDescriptor::builder(name)
            .periodic(100, 0, 3)
            .cpu_usage(usage)
            .property("importance", PropertyValue::Integer(importance))
            .build()
            .unwrap();
        ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
    }

    fn runtime() -> DrtRuntime {
        DrtRuntime::new(KernelConfig::new(41).with_timer(TimerJitterModel::ideal()))
    }

    #[test]
    fn sheds_least_important_first() {
        let mut rt = runtime();
        rt.install_component("a.crit", component("crit", 0.4, 10))
            .unwrap();
        rt.install_component("a.mid", component("mid", 0.3, 5))
            .unwrap();
        rt.install_component("a.low", component("low", 0.25, 1))
            .unwrap();
        // Reserved: 0.95 > 0.8 watermark.
        let mut mgr =
            AdaptationManager::new().with_policy(Box::new(LoadShedding::new(0, 0.3, 0.8)));
        let applied = mgr.run_once(&mut rt).unwrap();
        assert_eq!(applied, vec![AdaptationCommand::Suspend("low".into())]);
        assert_eq!(rt.component_state("low"), Some(ComponentState::Suspended));
        assert_eq!(rt.component_state("crit"), Some(ComponentState::Active));
        assert_eq!(rt.component_state("mid"), Some(ComponentState::Active));
    }

    #[test]
    fn restores_when_pressure_drops() {
        let mut rt = runtime();
        let heavy = rt
            .install_component("a.heavy", component("heavy", 0.6, 10))
            .unwrap();
        rt.install_component("a.low", component("low", 0.25, 1))
            .unwrap();
        let mut mgr =
            AdaptationManager::new().with_policy(Box::new(LoadShedding::new(0, 0.5, 0.8)));
        mgr.run_once(&mut rt).unwrap();
        assert_eq!(rt.component_state("low"), Some(ComponentState::Suspended));
        // Heavy leaves; reserved drops to low's 0.25 (kept) < 0.5.
        rt.stop_bundle(heavy).unwrap();
        let applied = mgr.run_once(&mut rt).unwrap();
        assert_eq!(applied, vec![AdaptationCommand::Resume("low".into())]);
        assert_eq!(rt.component_state("low"), Some(ComponentState::Active));
        assert!(mgr.log().len() >= 2);
    }

    #[test]
    fn steady_state_does_nothing() {
        let mut rt = runtime();
        rt.install_component("a.mid", component("mid", 0.6, 5))
            .unwrap();
        let mut mgr =
            AdaptationManager::new().with_policy(Box::new(LoadShedding::new(0, 0.3, 0.8)));
        assert!(mgr.run_once(&mut rt).unwrap().is_empty());
    }

    struct Retune;

    impl AdaptationPolicy for Retune {
        fn name(&self) -> &str {
            "retune"
        }
        fn evaluate(&mut self, ctx: &AdaptationContext) -> Vec<AdaptationCommand> {
            ctx.view
                .components()
                .iter()
                .filter(|c| c.state == ComponentState::Active)
                .map(|c| AdaptationCommand::SetProperty {
                    component: c.name.to_string(),
                    name: "gain".into(),
                    value: PropertyValue::Float(0.5),
                })
                .collect()
        }
    }

    #[test]
    fn parametric_adaptation_rides_the_async_bridge() {
        let mut rt = runtime();
        rt.install_component("a.mid", component("mid", 0.2, 5))
            .unwrap();
        let mut mgr = AdaptationManager::new().with_policy(Box::new(Retune));
        let applied = mgr.run_once(&mut rt).unwrap();
        assert_eq!(applied.len(), 1);
        // The property lands after the next RT cycle.
        rt.advance(SimDuration::from_millis(20));
        let mgmt = rt.management("mid").unwrap();
        let token = mgmt.request_property("gain").unwrap();
        rt.advance(SimDuration::from_millis(20));
        match mgmt.poll_reply(token).unwrap() {
            Some(crate::manage::ManagementReply::Property { value, .. }) => {
                assert_eq!(value, Some(PropertyValue::Float(0.5)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "watermarks")]
    fn watermarks_validated() {
        let _ = LoadShedding::new(0, 0.9, 0.5);
    }

    fn moded(name: &str, usage: f64, cheap: f64, importance: i64) -> ComponentProvider {
        let d = ComponentDescriptor::builder(name)
            .periodic(100, 0, 3)
            .cpu_usage(usage)
            .mode("cheap", 10, cheap, 3)
            .property("importance", PropertyValue::Integer(importance))
            .build()
            .unwrap();
        ComponentProvider::new(d, || Box::new(FnLogic(|_io: &mut RtIo<'_, '_>| {})))
    }

    #[test]
    fn degradation_downgrades_instead_of_suspending() {
        let mut rt = runtime();
        rt.install_component("a.crit", moded("crit", 0.5, 0.1, 10))
            .unwrap();
        rt.install_component("a.low", moded("low", 0.45, 0.05, 1))
            .unwrap();
        // 0.95 > 0.8: degrade the least important.
        let mut mgr =
            AdaptationManager::new().with_policy(Box::new(GracefulDegradation::new(0, 0.3, 0.8)));
        let applied = mgr.run_once(&mut rt).unwrap();
        assert_eq!(
            applied,
            vec![AdaptationCommand::SwitchMode {
                component: "low".into(),
                mode: "cheap".into()
            }]
        );
        // Still ACTIVE — just cheaper.
        assert_eq!(rt.component_state("low"), Some(ComponentState::Active));
        assert_eq!(rt.drcr().current_mode_ref("low").unwrap(), "cheap");
        assert_eq!(rt.drcr().ledger().reservation("low"), Some((0, 0.05)));
        // Pressure now 0.55; second evaluation is quiet.
        assert!(mgr.run_once(&mut rt).unwrap().is_empty());
    }

    #[test]
    fn degradation_restores_base_mode_on_relief() {
        let mut rt = runtime();
        let crit = rt
            .install_component("a.crit", moded("crit", 0.5, 0.1, 10))
            .unwrap();
        rt.install_component("a.low", moded("low", 0.45, 0.05, 1))
            .unwrap();
        let mut mgr =
            AdaptationManager::new().with_policy(Box::new(GracefulDegradation::new(0, 0.3, 0.8)));
        mgr.run_once(&mut rt).unwrap();
        assert_eq!(rt.drcr().current_mode_ref("low").unwrap(), "cheap");
        // The heavy one leaves: pressure 0.05 < 0.3 -> restore.
        rt.stop_bundle(crit).unwrap();
        let applied = mgr.run_once(&mut rt).unwrap();
        assert_eq!(
            applied,
            vec![AdaptationCommand::SwitchMode {
                component: "low".into(),
                mode: crate::model::BASE_MODE.into()
            }]
        );
        assert_eq!(
            rt.drcr().current_mode_ref("low").unwrap(),
            crate::model::BASE_MODE
        );
        assert_eq!(rt.drcr().ledger().reservation("low"), Some((0, 0.45)));
    }
}
