//! The per-CPU admission ledger.
//!
//! The ledger is the DRCR's book-keeping of *reserved* CPU budget: a
//! component's claimed `cpuusage` is reserved when it activates and released
//! when it deactivates. The ledger records; [resolving
//! services](crate::resolve) decide — the split keeps admission *policy*
//! pluggable (paper §2.2: "the resource budget should be enforced by a
//! central scheme rather than by each single bundle") while the *accounting*
//! stays authoritative in one place.

use crate::model::{valid_claim, ClaimSum};
use std::collections::BTreeMap;
use std::fmt;

/// A ledger accounting failure.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// The component already holds a reservation.
    AlreadyReserved(String),
    /// The CPU does not exist.
    NoSuchCpu(u32),
    /// The usage claim is not a fraction in `[2⁻⁴⁸, 1]` (see
    /// [`crate::model::MIN_CPU_USAGE`]).
    InvalidUsage(f64),
    /// The component holds no reservation (release-twice or
    /// release-unknown — either is an accounting bug in the caller).
    NotReserved(String),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::AlreadyReserved(name) => {
                write!(f, "component `{name}` already holds a reservation")
            }
            LedgerError::NoSuchCpu(cpu) => write!(f, "no CPU {cpu}"),
            LedgerError::InvalidUsage(usage) => {
                write!(f, "usage claim {usage} outside [2^-48, 1]")
            }
            LedgerError::NotReserved(name) => {
                write!(f, "component `{name}` holds no reservation")
            }
        }
    }
}

impl std::error::Error for LedgerError {}

/// Per-CPU reserved-budget accounting. See the [module docs](self).
///
/// Each CPU's total is an exact [`ClaimSum`] maintained on every reserve
/// and release, so [`AdmissionLedger::utilization`] is O(1) and reads the
/// correctly rounded sum of the live claims whatever order they came in.
#[derive(Debug, Clone, Default)]
pub struct AdmissionLedger {
    cpu_count: u32,
    reservations: BTreeMap<String, (u32, f64)>,
    totals: Vec<ClaimSum>,
}

impl AdmissionLedger {
    /// Creates a ledger for `cpu_count` CPUs.
    pub fn new(cpu_count: u32) -> Self {
        AdmissionLedger {
            cpu_count,
            reservations: BTreeMap::new(),
            totals: vec![ClaimSum::default(); cpu_count as usize],
        }
    }

    /// Number of CPUs tracked.
    pub fn cpu_count(&self) -> u32 {
        self.cpu_count
    }

    /// Reserves `usage` of CPU `cpu` for `component`.
    ///
    /// # Errors
    ///
    /// [`LedgerError::AlreadyReserved`] / [`LedgerError::NoSuchCpu`] /
    /// [`LedgerError::InvalidUsage`].
    pub fn reserve(&mut self, component: &str, cpu: u32, usage: f64) -> Result<(), LedgerError> {
        if cpu >= self.cpu_count {
            return Err(LedgerError::NoSuchCpu(cpu));
        }
        // Same domain `CpuUsage` enforces at parse time. Pluggable resolvers
        // feed this path too, and a reservation outside it could not be
        // summed exactly: it would turn the CPU's total into NaN.
        if !valid_claim(usage) {
            return Err(LedgerError::InvalidUsage(usage));
        }
        if self.reservations.contains_key(component) {
            return Err(LedgerError::AlreadyReserved(component.to_string()));
        }
        self.reservations
            .insert(component.to_string(), (cpu, usage));
        self.totals[cpu as usize].add(usage);
        Ok(())
    }

    /// Releases a component's reservation, returning the freed
    /// `(cpu, usage)`.
    ///
    /// # Errors
    ///
    /// [`LedgerError::NotReserved`] when the component holds no
    /// reservation — a release-twice or release-unknown is an accounting
    /// bug in the caller (before this guard a double release silently
    /// passed, masking per-CPU total corruption), so it is surfaced as a
    /// typed error instead of a silent no-op.
    pub fn release(&mut self, component: &str) -> Result<(u32, f64), LedgerError> {
        let (cpu, usage) = self
            .reservations
            .remove(component)
            .ok_or_else(|| LedgerError::NotReserved(component.to_string()))?;
        self.totals[cpu as usize].remove(usage);
        Ok((cpu, usage))
    }

    /// Total reserved fraction on `cpu`: the correctly rounded sum of its
    /// live claims (`0.0` for an empty or unknown CPU).
    pub fn utilization(&self, cpu: u32) -> f64 {
        self.totals
            .get(cpu as usize)
            .map_or(0.0, |total| total.value())
    }

    /// The reservation held by a component.
    pub fn reservation(&self, component: &str) -> Option<(u32, f64)> {
        self.reservations.get(component).copied()
    }

    /// Number of live reservations.
    pub fn len(&self) -> usize {
        self.reservations.len()
    }

    /// True when nothing is reserved.
    pub fn is_empty(&self) -> bool {
        self.reservations.is_empty()
    }

    /// Iterates over `(component, cpu, usage)` reservations.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32, f64)> {
        self.reservations
            .iter()
            .map(|(name, (cpu, usage))| (name.as_str(), *cpu, *usage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_roundtrip() {
        let mut l = AdmissionLedger::new(2);
        l.reserve("calc", 0, 0.3).unwrap();
        l.reserve("disp", 0, 0.1).unwrap();
        l.reserve("cam", 1, 0.5).unwrap();
        assert!((l.utilization(0) - 0.4).abs() < 1e-9);
        assert!((l.utilization(1) - 0.5).abs() < 1e-9);
        assert_eq!(l.release("calc"), Ok((0, 0.3)));
        assert!((l.utilization(0) - 0.1).abs() < 1e-9);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn release_twice_and_release_unknown_are_typed_errors() {
        let mut l = AdmissionLedger::new(1);
        l.reserve("calc", 0, 0.3).unwrap();
        assert_eq!(l.release("calc"), Ok((0, 0.3)));
        // Second release of the same component: the reservation is gone.
        assert_eq!(
            l.release("calc"),
            Err(LedgerError::NotReserved("calc".into()))
        );
        // Release of a component that never reserved.
        assert_eq!(
            l.release("ghost"),
            Err(LedgerError::NotReserved("ghost".into()))
        );
        // Neither failed release disturbed the totals.
        assert_eq!(l.len(), 0);
        assert!((l.utilization(0)).abs() < 1e-12);
    }

    #[test]
    fn double_reserve_rejected() {
        let mut l = AdmissionLedger::new(1);
        l.reserve("calc", 0, 0.3).unwrap();
        assert_eq!(
            l.reserve("calc", 0, 0.1),
            Err(LedgerError::AlreadyReserved("calc".into()))
        );
    }

    #[test]
    fn bad_cpu_rejected() {
        let mut l = AdmissionLedger::new(1);
        assert_eq!(l.reserve("calc", 1, 0.1), Err(LedgerError::NoSuchCpu(1)));
    }

    #[test]
    fn invalid_usage_rejected_before_it_poisons_sums() {
        let mut l = AdmissionLedger::new(1);
        l.reserve("good", 0, 0.5).unwrap();
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.1,
            0.0,
            1.0 + 1e-9,
            crate::model::MIN_CPU_USAGE / 2.0,
            1e-16,
        ] {
            let err = l.reserve("evil", 0, bad).unwrap_err();
            assert!(
                matches!(err, LedgerError::InvalidUsage(_)),
                "usage {bad} gave {err:?}"
            );
        }
        // The boundary itself is a legal full-CPU claim.
        let mut full = AdmissionLedger::new(1);
        full.reserve("whole", 0, 1.0).unwrap();
        // Sums stay finite and correct after the rejections.
        assert!((l.utilization(0) - 0.5).abs() < 1e-9);
        assert!(l.utilization(0).is_finite());
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn ten_tenths_fill_a_cpu_exactly() {
        let mut l = AdmissionLedger::new(1);
        for i in 0..10 {
            l.reserve(&format!("c{i}"), 0, 0.1).unwrap();
        }
        assert_eq!(l.utilization(0), 1.0);
        for i in 0..10 {
            l.release(&format!("c{i}")).unwrap();
        }
        assert_eq!(l.utilization(0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn reservation_lookup_and_iter() {
        let mut l = AdmissionLedger::new(4);
        assert!(l.is_empty());
        l.reserve("a", 2, 0.25).unwrap();
        assert_eq!(l.reservation("a"), Some((2, 0.25)));
        assert_eq!(l.reservation("b"), None);
        let all: Vec<_> = l.iter().collect();
        assert_eq!(all, vec![("a", 2, 0.25)]);
    }
}
