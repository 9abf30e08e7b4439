//! Core data model of the declarative real-time component (DRCom).
//!
//! These types are the in-memory form of the XML descriptor of §2.3: the
//! task contract (type, priority, frequency, CPU placement, claimed CPU
//! usage), the communication ports, and typed configuration properties.

use rtos::shm::DataType;
use rtos::task::{ObjName, Priority};
use rtos::time::SimDuration;
use std::fmt;
use std::str::FromStr;

/// The real-time task contract of a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskSpec {
    /// A periodic task (`type="periodic"`).
    Periodic {
        /// Release frequency in Hz (`frequence` attribute).
        frequency_hz: u32,
        /// CPU the task is pinned to (`runoncup` attribute — sic, the
        /// paper's descriptor uses this spelling).
        cpu: u32,
        /// Fixed priority (lower is more urgent).
        priority: Priority,
    },
    /// An event-driven task (`type="aperiodic"`).
    Aperiodic {
        /// CPU the task is pinned to.
        cpu: u32,
        /// Fixed priority (lower is more urgent).
        priority: Priority,
    },
}

impl TaskSpec {
    /// The CPU the task runs on.
    pub fn cpu(&self) -> u32 {
        match self {
            TaskSpec::Periodic { cpu, .. } | TaskSpec::Aperiodic { cpu, .. } => *cpu,
        }
    }

    /// The task priority.
    pub fn priority(&self) -> Priority {
        match self {
            TaskSpec::Periodic { priority, .. } | TaskSpec::Aperiodic { priority, .. } => *priority,
        }
    }

    /// The period, if periodic.
    pub fn period(&self) -> Option<SimDuration> {
        match self {
            TaskSpec::Periodic { frequency_hz, .. } => {
                Some(SimDuration::from_hz(u64::from(*frequency_hz)))
            }
            TaskSpec::Aperiodic { .. } => None,
        }
    }

    /// True for periodic tasks.
    pub fn is_periodic(&self) -> bool {
        matches!(self, TaskSpec::Periodic { .. })
    }
}

/// The transport a port uses (`interface` attribute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortInterface {
    /// `RTAI.SHM` — last-value shared memory (periodic data flow).
    Shm,
    /// `RTAI.Mailbox` — queued messages (event flow).
    Mailbox,
    /// `RTAI.FIFO` — byte streams (extension beyond the paper's prototype;
    /// see `rtos::fifo`).
    Fifo,
}

impl fmt::Display for PortInterface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortInterface::Shm => write!(f, "RTAI.SHM"),
            PortInterface::Mailbox => write!(f, "RTAI.Mailbox"),
            PortInterface::Fifo => write!(f, "RTAI.FIFO"),
        }
    }
}

impl FromStr for PortInterface {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "RTAI.SHM" | "SHM" => Ok(PortInterface::Shm),
            "RTAI.MAILBOX" | "MAILBOX" => Ok(PortInterface::Mailbox),
            "RTAI.FIFO" | "FIFO" => Ok(PortInterface::Fifo),
            other => Err(format!("unknown port interface `{other}`")),
        }
    }
}

/// Direction of a port from the component's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDirection {
    /// Data the component requires (`inport`).
    In,
    /// Data the component provides (`outport`).
    Out,
}

impl fmt::Display for PortDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortDirection::In => write!(f, "inport"),
            PortDirection::Out => write!(f, "outport"),
        }
    }
}

/// One communication port of a component.
///
/// Ports with equal `name`, `interface`, `data_type` and `size` are
/// compatible; an inport is wired to the outport sharing its name (§2.3:
/// "these attributes are used to determine the port compatibility between
/// the provided and required interfaces").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSpec {
    /// Channel name (6-character OS limit; also the SHM/mailbox name).
    pub name: ObjName,
    /// Transport.
    pub interface: PortInterface,
    /// Element type.
    pub data_type: DataType,
    /// Element count.
    pub size: usize,
}

impl PortSpec {
    /// Creates a port spec.
    ///
    /// # Errors
    ///
    /// Returns the name-validation error for invalid channel names.
    pub fn new(
        name: &str,
        interface: PortInterface,
        data_type: DataType,
        size: usize,
    ) -> Result<Self, rtos::NameError> {
        Ok(PortSpec {
            name: ObjName::new(name)?,
            interface,
            data_type,
            size,
        })
    }

    /// True when an outport of this shape satisfies an inport of `other`'s
    /// shape (all four attributes must agree).
    pub fn compatible_with(&self, other: &PortSpec) -> bool {
        self.name == other.name
            && self.interface == other.interface
            && self.data_type == other.data_type
            && self.size == other.size
    }

    /// Total size of the carried buffer in bytes.
    pub fn byte_len(&self) -> usize {
        self.data_type.element_size() * self.size
    }
}

/// A typed configuration property (the descriptor's `property` elements).
#[derive(Debug, Clone, PartialEq)]
pub enum PropertyValue {
    /// `type="Integer"`.
    Integer(i64),
    /// `type="Float"`.
    Float(f64),
    /// `type="String"`.
    Text(String),
    /// `type="Boolean"`.
    Boolean(bool),
}

impl PropertyValue {
    /// Parses a value of the declared descriptor type.
    ///
    /// # Errors
    ///
    /// Describes the offending type name or unparsable value.
    pub fn parse_typed(type_name: &str, raw: &str) -> Result<Self, String> {
        match type_name.to_ascii_lowercase().as_str() {
            "integer" | "int" | "byte" => raw
                .trim()
                .parse::<i64>()
                .map(PropertyValue::Integer)
                .map_err(|_| format!("`{raw}` is not an integer")),
            "float" | "double" => raw
                .trim()
                .parse::<f64>()
                .map(PropertyValue::Float)
                .map_err(|_| format!("`{raw}` is not a float")),
            "string" => Ok(PropertyValue::Text(raw.to_string())),
            "boolean" | "bool" => raw
                .trim()
                .parse::<bool>()
                .map(PropertyValue::Boolean)
                .map_err(|_| format!("`{raw}` is not a boolean")),
            other => Err(format!("unknown property type `{other}`")),
        }
    }

    /// The descriptor type name of this value.
    pub fn type_name(&self) -> &'static str {
        match self {
            PropertyValue::Integer(_) => "Integer",
            PropertyValue::Float(_) => "Float",
            PropertyValue::Text(_) => "String",
            PropertyValue::Boolean(_) => "Boolean",
        }
    }
}

impl fmt::Display for PropertyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyValue::Integer(i) => write!(f, "{i}"),
            PropertyValue::Float(x) => write!(f, "{x}"),
            PropertyValue::Text(s) => write!(f, "{s}"),
            PropertyValue::Boolean(b) => write!(f, "{b}"),
        }
    }
}

/// An alternate operating mode of a periodic component: a named variant of
/// its real-time contract (frequency, CPU claim, priority) that the DRCR
/// can switch to at run time — re-running admission for the new claim.
///
/// Modes extend the descriptor grammar with `<mode>` elements:
///
/// ```xml
/// <mode name="degraded" frequence="100" cpuusage="0.05" priority="2"/>
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingMode {
    /// Unique mode name within the component.
    pub name: String,
    /// Release frequency in this mode.
    pub frequency_hz: u32,
    /// CPU claim in this mode.
    pub cpu_usage: f64,
    /// Priority in this mode.
    pub priority: Priority,
}

/// The name of the implicit mode described by the base contract.
pub const BASE_MODE: &str = "normal";

/// The smallest CPU fraction a component may claim: 2⁻⁴⁸ (≈ 3.6e-15).
///
/// Every `f64` in `[2⁻⁴⁸, 1]` is an exact multiple of 2⁻¹⁰⁰, which is what
/// lets [`ClaimSum`] add claims exactly in an integer.
pub const MIN_CPU_USAGE: f64 = f64::from_bits((1023 - 48) << 52);

/// 2⁻¹⁰⁰, the unit [`ClaimSum`] counts in.
const CLAIM_UNIT: f64 = f64::from_bits((1023 - 100) << 52);

/// True for a claim in the admissible domain `[2⁻⁴⁸, 1]` (so never NaN).
pub fn valid_claim(fraction: f64) -> bool {
    (MIN_CPU_USAGE..=1.0).contains(&fraction)
}

/// A valid claim as an exact integer count of 2⁻¹⁰⁰ units; `None` outside
/// the domain.
fn claim_units(fraction: f64) -> Option<i128> {
    if !valid_claim(fraction) {
        return None;
    }
    // Normal, positive: `fraction = mantissa · 2^(exp − 1075)`, and
    // `exp ≥ 975` because `fraction ≥ 2⁻⁴⁸`.
    let bits = fraction.to_bits();
    let exp = (bits >> 52) as u32;
    let mantissa = (bits & ((1 << 52) - 1)) | (1 << 52);
    Some(i128::from(mantissa) << (exp - 975))
}

/// An exact, order-independent sum of CPU claims.
///
/// Each claim in `[2⁻⁴⁸, 1]` is accumulated exactly as an `i128` count of
/// 2⁻¹⁰⁰ units (room for 2²⁷ full-CPU claims), so adding and removing
/// claims in any order leaves the same state, and [`ClaimSum::value`] is
/// the correctly rounded sum: ten `0.1` claims read exactly `1.0`. A claim
/// outside the domain (NaN, ≤ 0, > 1 or below [`MIN_CPU_USAGE`]) is never
/// clamped: while one is included the sum reads NaN, so an admission test
/// against it fails closed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClaimSum {
    units: i128,
    invalid: usize,
}

impl ClaimSum {
    /// Adds one claim.
    pub fn add(&mut self, fraction: f64) {
        match claim_units(fraction) {
            Some(units) => self.units += units,
            None => self.invalid += 1,
        }
    }

    /// Removes one claim previously added.
    pub fn remove(&mut self, fraction: f64) {
        match claim_units(fraction) {
            Some(units) => self.units -= units,
            None => self.invalid -= 1,
        }
    }

    /// The correctly rounded total (`0.0` when empty, NaN while an invalid
    /// claim is included).
    pub fn value(&self) -> f64 {
        if self.invalid > 0 {
            return f64::NAN;
        }
        // `i128 as f64` rounds to nearest; scaling by a power of two is
        // exact.
        self.units as f64 * CLAIM_UNIT
    }
}

impl FromIterator<f64> for ClaimSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut sum = ClaimSum::default();
        for fraction in iter {
            sum.add(fraction);
        }
        sum
    }
}

/// The CPU fraction a component claims (`cpuusage` attribute), validated to
/// lie in `[2⁻⁴⁸, 1]` (see [`MIN_CPU_USAGE`]).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct CpuUsage(f64);

impl CpuUsage {
    /// Validates and wraps a claimed CPU fraction.
    ///
    /// # Errors
    ///
    /// Rejects values outside `[2⁻⁴⁸, 1]`, including non-finite values.
    pub fn new(fraction: f64) -> Result<Self, String> {
        if !valid_claim(fraction) {
            return Err(format!("cpuusage must be in [2^-48, 1], got {fraction}"));
        }
        Ok(CpuUsage(fraction))
    }

    /// The claimed fraction.
    pub fn fraction(self) -> f64 {
        self.0
    }
}

impl fmt::Display for CpuUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_spec_accessors() {
        let p = TaskSpec::Periodic {
            frequency_hz: 100,
            cpu: 1,
            priority: Priority(2),
        };
        assert_eq!(p.cpu(), 1);
        assert_eq!(p.priority(), Priority(2));
        assert_eq!(p.period(), Some(SimDuration::from_millis(10)));
        assert!(p.is_periodic());
        let a = TaskSpec::Aperiodic {
            cpu: 0,
            priority: Priority(5),
        };
        assert_eq!(a.period(), None);
        assert!(!a.is_periodic());
    }

    #[test]
    fn port_interface_parses_paper_spelling() {
        assert_eq!(
            "RTAI.SHM".parse::<PortInterface>().unwrap(),
            PortInterface::Shm
        );
        assert_eq!(
            "RTAI.Mailbox".parse::<PortInterface>().unwrap(),
            PortInterface::Mailbox
        );
        assert_eq!(
            "RTAI.FIFO".parse::<PortInterface>().unwrap(),
            PortInterface::Fifo
        );
        assert!("RTAI.PIPE".parse::<PortInterface>().is_err());
        assert_eq!(PortInterface::Shm.to_string(), "RTAI.SHM");
    }

    #[test]
    fn port_compatibility_needs_all_four_attributes() {
        let base = PortSpec::new("images", PortInterface::Shm, DataType::Byte, 400).unwrap();
        assert!(base.compatible_with(&base.clone()));
        let other_name = PortSpec::new("image2", PortInterface::Shm, DataType::Byte, 400).unwrap();
        let other_if =
            PortSpec::new("images", PortInterface::Mailbox, DataType::Byte, 400).unwrap();
        let other_ty = PortSpec::new("images", PortInterface::Shm, DataType::Integer, 400).unwrap();
        let other_sz = PortSpec::new("images", PortInterface::Shm, DataType::Byte, 401).unwrap();
        for p in [other_name, other_if, other_ty, other_sz] {
            assert!(!base.compatible_with(&p), "{p:?}");
        }
    }

    #[test]
    fn port_byte_len_scales_with_type() {
        let p = PortSpec::new("xysize", PortInterface::Shm, DataType::Integer, 400).unwrap();
        assert_eq!(p.byte_len(), 1600);
        let b = PortSpec::new("images", PortInterface::Shm, DataType::Byte, 400).unwrap();
        assert_eq!(b.byte_len(), 400);
    }

    #[test]
    fn property_parsing_by_declared_type() {
        assert_eq!(
            PropertyValue::parse_typed("Integer", "6").unwrap(),
            PropertyValue::Integer(6)
        );
        assert_eq!(
            PropertyValue::parse_typed("Float", "0.5").unwrap(),
            PropertyValue::Float(0.5)
        );
        assert_eq!(
            PropertyValue::parse_typed("String", "hi").unwrap(),
            PropertyValue::Text("hi".into())
        );
        assert_eq!(
            PropertyValue::parse_typed("Boolean", "true").unwrap(),
            PropertyValue::Boolean(true)
        );
        assert!(PropertyValue::parse_typed("Integer", "x").is_err());
        assert!(PropertyValue::parse_typed("Blob", "x").is_err());
    }

    #[test]
    fn cpu_usage_bounds() {
        assert!(CpuUsage::new(0.1).is_ok());
        assert!(CpuUsage::new(1.0).is_ok());
        for bad in [0.0, -0.1, 1.01, f64::NAN, f64::INFINITY] {
            assert!(CpuUsage::new(bad).is_err(), "{bad}");
        }
        assert_eq!(CpuUsage::new(0.25).unwrap().fraction(), 0.25);
    }

    #[test]
    fn cpu_usage_floor_is_a_typed_rejection() {
        assert_eq!(MIN_CPU_USAGE, 2f64.powi(-48));
        assert!(CpuUsage::new(MIN_CPU_USAGE).is_ok());
        for tiny in [MIN_CPU_USAGE / 2.0, 1e-16, f64::MIN_POSITIVE] {
            let err = CpuUsage::new(tiny).unwrap_err();
            assert!(err.contains("2^-48"), "{tiny}: {err}");
        }
    }

    /// Shewchuk's exact `f64` summation (Python's `math.fsum`): an
    /// independent reference for a correctly rounded sum.
    fn fsum(values: &[f64]) -> f64 {
        let mut partials: Vec<f64> = Vec::new();
        for &v in values {
            let mut x = v;
            let mut kept = 0;
            for i in 0..partials.len() {
                let mut y = partials[i];
                if x.abs() < y.abs() {
                    std::mem::swap(&mut x, &mut y);
                }
                let hi = x + y;
                let lo = y - (hi - x);
                if lo != 0.0 {
                    partials[kept] = lo;
                    kept += 1;
                }
                x = hi;
            }
            partials.truncate(kept);
            partials.push(x);
        }
        // Round the non-overlapping partials, top down, half-even.
        let mut n = partials.len();
        let mut hi = 0.0;
        if n > 0 {
            n -= 1;
            hi = partials[n];
            let mut lo = 0.0;
            while n > 0 {
                let x = hi;
                n -= 1;
                let y = partials[n];
                hi = x + y;
                lo = y - (hi - x);
                if lo != 0.0 {
                    break;
                }
            }
            if n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) || (lo > 0.0 && partials[n - 1] > 0.0))
            {
                let y = lo * 2.0;
                let x = hi + y;
                if y == x - hi {
                    hi = x;
                }
            }
        }
        hi
    }

    #[test]
    fn claim_sum_is_exact_and_order_independent() {
        let tenth: ClaimSum = std::iter::repeat_n(0.1, 10).collect();
        assert_eq!(tenth.value(), 1.0);
        assert_ne!(std::iter::repeat_n(0.1, 10).sum::<f64>(), 1.0);
        assert_eq!(ClaimSum::default().value().to_bits(), 0.0f64.to_bits());
        let mut rng = rtos::rng::SimRng::from_seed(0xC1A1);
        for _ in 0..200 {
            let n = rng.uniform_u64(1, 40) as usize;
            let claims: Vec<f64> = (0..n)
                .map(|_| match rng.uniform_u64(0, 3) {
                    0 => rng.uniform_range(0.0, 1.0).max(MIN_CPU_USAGE),
                    1 => 0.008 * rng.uniform_range(0.8, 1.2),
                    _ => MIN_CPU_USAGE * rng.uniform_u64(1, 1 << 20) as f64,
                })
                .collect();
            let forward: ClaimSum = claims.iter().copied().collect();
            let backward: ClaimSum = claims.iter().rev().copied().collect();
            assert_eq!(forward, backward);
            assert_eq!(forward.value().to_bits(), fsum(&claims).to_bits());
            // Removing every claim again leaves the empty sum.
            let mut drained = forward;
            for &c in &claims {
                drained.remove(c);
            }
            assert_eq!(drained, ClaimSum::default());
        }
    }

    #[test]
    fn claim_sum_reads_nan_while_an_invalid_claim_is_in() {
        for bad in [f64::NAN, 0.0, -0.25, 1.5, MIN_CPU_USAGE / 4.0] {
            let mut sum: ClaimSum = [0.25, bad].into_iter().collect();
            assert!(sum.value().is_nan(), "{bad}");
            sum.remove(bad);
            assert_eq!(sum.value(), 0.25, "{bad}");
        }
        let full: ClaimSum = [1.0, 1.0].into_iter().collect();
        assert_eq!(full.value(), 2.0);
    }
}
