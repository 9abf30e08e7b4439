//! The declarative real-time component lifecycle (the paper's Figure 1).
//!
//! A DRCom's lifecycle is a *sub-lifecycle* of its OSGi bundle: once the
//! bundle is active and carries a valid descriptor, the DRCR takes over and
//! drives the component through these states:
//!
//! ```text
//!                    enable            constraints satisfied + admitted
//!   Installed ──► Unsatisfied ────────────────► Active ◄──┐
//!       │   ▲         ▲  ▲                        │  │    │ resume
//!       │   │ disable │  │ dependency lost /      │  └── Suspended
//!       ▼   │         │  │ admission revoked      │ suspend
//!   Disabled ◄────────┘  └────────────────────────┘
//!       │                                         │
//!       └────────────► Destroyed ◄────────────────┘  (bundle stopped)
//! ```
//!
//! * **Installed** — descriptor parsed and registered with the DRCR.
//! * **Disabled** — deployed with `enabled="false"` (or disabled by a
//!   manager); the DRCR ignores it during resolution.
//! * **Unsatisfied** — waiting for functional (port wiring) or
//!   non-functional (admission) constraints; its [`WaitReport`] says which.
//! * **Active** — RT task created and released; contracts guaranteed.
//! * **Suspended** — RT task parked by management action, resources still
//!   reserved (a suspended component keeps its admission so resuming can
//!   never fail).
//! * **Destroyed** — removed; terminal.
//!
//! Every transition the DRCR performs is checked against this table, which
//! is what makes the executive's global view trustworthy: a component can
//! never reach a state the model does not allow.

use crate::rta::RtaAnalysis;
use crate::wiring::{MissingPort, MissingReason};
use std::fmt;

/// Lifecycle state of a declarative real-time component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentState {
    /// Registered with the DRCR, not yet considered for resolution.
    Installed,
    /// Excluded from resolution until enabled.
    Disabled,
    /// Waiting for constraints (functional or non-functional).
    Unsatisfied,
    /// Running with guaranteed contracts.
    Active,
    /// Parked by management action; admission retained.
    Suspended,
    /// Removed. Terminal.
    Destroyed,
}

impl fmt::Display for ComponentState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComponentState::Installed => "INSTALLED",
            ComponentState::Disabled => "DISABLED",
            ComponentState::Unsatisfied => "UNSATISFIED",
            ComponentState::Active => "ACTIVE",
            ComponentState::Suspended => "SUSPENDED",
            ComponentState::Destroyed => "DESTROYED",
        };
        f.write_str(s)
    }
}

impl ComponentState {
    /// All states, for exhaustive tests.
    pub const ALL: [ComponentState; 6] = [
        ComponentState::Installed,
        ComponentState::Disabled,
        ComponentState::Unsatisfied,
        ComponentState::Active,
        ComponentState::Suspended,
        ComponentState::Destroyed,
    ];

    /// True when the transition `self → to` is legal per Figure 1.
    pub fn can_transition(self, to: ComponentState) -> bool {
        use ComponentState::*;
        matches!(
            (self, to),
            // Initial routing after registration.
            (Installed, Unsatisfied)   // enabled descriptor
                | (Installed, Disabled) // enabled="false"
                | (Installed, Destroyed)
                // Enable / disable.
                | (Disabled, Unsatisfied)
                | (Unsatisfied, Disabled)
                | (Disabled, Destroyed)
                // Resolution outcomes.
                | (Unsatisfied, Active)
                | (Unsatisfied, Destroyed)
                // Run-time changes.
                | (Active, Unsatisfied)  // dependency lost / admission revoked
                | (Active, Suspended)
                | (Active, Disabled)     // manager disables a running component
                | (Active, Destroyed)
                | (Suspended, Active)
                | (Suspended, Unsatisfied) // dependency lost while parked
                | (Suspended, Disabled)
                | (Suspended, Destroyed)
        )
    }

    /// True when the component holds an admission reservation in this state.
    pub fn holds_admission(self) -> bool {
        matches!(self, ComponentState::Active | ComponentState::Suspended)
    }

    /// True when the component's outports feed the wiring graph in this
    /// state (only running components satisfy their consumers).
    pub fn provides_outputs(self) -> bool {
        self == ComponentState::Active
    }

    /// True when no further transitions are possible.
    pub fn is_terminal(self) -> bool {
        self == ComponentState::Destroyed
    }
}

/// Where a component's lifecycle stands in the executive's history: the
/// values of the DRCR-wide lifecycle sequence at its registration and at
/// its latest entry into [`ComponentState::Active`]. A new registration or
/// a new activation is a new stamp, so an observer that keeps the stamps it
/// last saw can tell a fresh instance from the one it measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamps {
    /// Sequence value of the registration.
    pub registered: u64,
    /// Sequence value of the latest entry into Active (0: never active).
    pub activated: u64,
}

/// One resolver's rejection of a waiting component, with its evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// The resolver that rejected it (internal or customized).
    pub resolver: String,
    /// Whether that was the internal resolver.
    pub internal: bool,
    /// Why.
    pub reason: String,
    /// The internal ruling's response-time analysis, when its policy
    /// carries one.
    pub analysis: Option<RtaAnalysis>,
}

/// Why a waiting (`Unsatisfied`) component is not running: the executive's
/// last report on it ([`crate::drcr::Drcr::report`]).
///
/// A report is emitted as events only when it differs from the waiter's
/// last one, so a waiter screened again with the same outcome adds nothing
/// to the log. A departure cascade sets the report to the cascade's
/// diagnosis; every other transition clears it.
#[derive(Debug, Clone, PartialEq)]
pub enum WaitReport {
    /// Its wiring failed: the unsatisfied inports.
    Unwired(Vec<MissingPort>),
    /// A resolver rejected it.
    Rejected(Rejection),
    /// It waits in a dependency cycle whose group a resolver rejected it
    /// from. `missing` is its own wiring diagnosis, which waits only on
    /// inactive providers; screening it again with that diagnosis keeps
    /// this report.
    GroupAbandoned {
        /// Its unsatisfied inports, with no member counted active.
        missing: Vec<MissingPort>,
        /// The rejection that abandoned the group.
        rejection: Rejection,
    },
    /// Its activation errored (not a constraint rejection).
    ActivationFailed(String),
}

impl WaitReport {
    /// Whether the waiter waits only on inactive providers, so it may
    /// belong to a dependency cycle (a cyclic group's candidate).
    pub(crate) fn stalled(&self) -> bool {
        match self {
            WaitReport::Unwired(missing) | WaitReport::GroupAbandoned { missing, .. } => missing
                .iter()
                .all(|m| matches!(m.reason, MissingReason::ProviderInactive { .. })),
            _ => false,
        }
    }
}

/// The reason alone: the unsatisfied inports, the rejection or the error.
impl fmt::Display for WaitReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitReport::Unwired(missing) => {
                let ports: Vec<String> = missing.iter().map(|m| m.to_string()).collect();
                f.write_str(&ports.join("; "))
            }
            WaitReport::Rejected(r) | WaitReport::GroupAbandoned { rejection: r, .. } => {
                f.write_str(&r.reason)
            }
            WaitReport::ActivationFailed(reason) => f.write_str(reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ComponentState::*;

    #[test]
    fn happy_path_is_legal() {
        assert!(Installed.can_transition(Unsatisfied));
        assert!(Unsatisfied.can_transition(Active));
        assert!(Active.can_transition(Suspended));
        assert!(Suspended.can_transition(Active));
        assert!(Active.can_transition(Destroyed));
    }

    #[test]
    fn dependency_loss_paths() {
        assert!(Active.can_transition(Unsatisfied));
        assert!(Suspended.can_transition(Unsatisfied));
        assert!(Unsatisfied.can_transition(Active));
    }

    #[test]
    fn disable_enable_paths() {
        assert!(Installed.can_transition(Disabled));
        assert!(Disabled.can_transition(Unsatisfied));
        assert!(Active.can_transition(Disabled));
        assert!(Unsatisfied.can_transition(Disabled));
        assert!(!Disabled.can_transition(Active), "must re-resolve first");
    }

    #[test]
    fn destroyed_is_terminal() {
        for s in ComponentState::ALL {
            assert!(!Destroyed.can_transition(s), "{s}");
        }
        for s in ComponentState::ALL {
            if s != Destroyed {
                assert!(s.can_transition(Destroyed), "{s} must be destroyable");
            }
        }
    }

    #[test]
    fn no_self_transitions() {
        for s in ComponentState::ALL {
            assert!(!s.can_transition(s), "{s}");
        }
    }

    #[test]
    fn activation_requires_resolution() {
        // Nothing may jump straight to Active except Unsatisfied (resolution)
        // and Suspended (resume).
        for s in ComponentState::ALL {
            let expected = matches!(s, Unsatisfied | Suspended);
            assert_eq!(s.can_transition(Active), expected, "{s}");
        }
    }

    #[test]
    fn admission_held_exactly_when_running_or_parked() {
        assert!(Active.holds_admission());
        assert!(Suspended.holds_admission());
        for s in [Installed, Disabled, Unsatisfied, Destroyed] {
            assert!(!s.holds_admission(), "{s}");
        }
    }

    #[test]
    fn only_active_provides_outputs() {
        for s in ComponentState::ALL {
            assert_eq!(s.provides_outputs(), s == Active, "{s}");
        }
    }

    #[test]
    fn installed_routes_only_to_enablement_states() {
        for s in ComponentState::ALL {
            let expected = matches!(s, Unsatisfied | Disabled | Destroyed);
            assert_eq!(Installed.can_transition(s), expected, "{s}");
        }
    }
}
