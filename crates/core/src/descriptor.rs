//! The DRCom component descriptor: parse + validate the XML meta-data.
//!
//! The descriptor is the component's declared real-time contract (§2.3 of
//! the paper). [`ComponentDescriptor::parse_xml`] accepts documents shaped
//! like the paper's Figure 2:
//!
//! ```xml
//! <drt:component name="camera" desc="smart camera" type="periodic"
//!                enabled="true" cpuusage="0.1">
//!   <implementation bincode="ua.pats.demo.smartcamera.RTComponent"/>
//!   <periodictask frequence="100" runoncup="0" priority="2"/>
//!   <outport name="images" interface="RTAI.SHM" type="Byte" size="400"/>
//!   <inport name="xysize" interface="RTAI.SHM" type="Integer" size="400"/>
//!   <property name="prox00" type="Integer" value="6"/>
//! </drt:component>
//! ```
//!
//! Validation is strict: names obey the 6-character OS limit, `cpuusage`
//! must be in `[2⁻⁴⁸, 1]`, periodic components need a `periodictask` element,
//! port names must be unique within the component, and port attributes must
//! be complete — a bad contract is rejected at deployment, never at run
//! time.

use crate::error::DescriptorError;
use crate::model::{
    CpuUsage, OperatingMode, PortDirection, PortInterface, PortSpec, PropertyValue, TaskSpec,
};
use crate::xml::{self, Element};
use rtos::shm::DataType;
use rtos::task::{ObjName, Priority};

/// A parsed, validated component descriptor.
///
/// ```
/// use drcom::descriptor::ComponentDescriptor;
/// use drcom::model::PortInterface;
/// use rtos::shm::DataType;
///
/// # fn main() -> Result<(), drcom::error::DescriptorError> {
/// let descriptor = ComponentDescriptor::builder("camera")
///     .periodic(100, 0, 2)
///     .cpu_usage(0.1)
///     .outport("images", PortInterface::Shm, DataType::Byte, 400)
///     .build()?;
/// // The XML form (the paper's Figure 2 grammar) roundtrips exactly.
/// let reparsed = ComponentDescriptor::parse_xml(&descriptor.to_xml())?;
/// assert_eq!(reparsed, descriptor);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentDescriptor {
    /// Globally unique component name; also the RT task name (6-char limit).
    pub name: ObjName,
    /// Human-readable description (`desc` attribute).
    pub description: String,
    /// Whether the component activates automatically when deployed
    /// (`enabled` attribute, default `true`).
    pub enabled: bool,
    /// The task contract.
    pub task: TaskSpec,
    /// Claimed CPU fraction.
    pub cpu_usage: CpuUsage,
    /// Fully qualified implementation class (`bincode` attribute) — kept
    /// for fidelity with the paper; in this reproduction the implementation
    /// is supplied as a Rust factory alongside the descriptor.
    pub implementation: String,
    /// Required inputs.
    pub inports: Vec<PortSpec>,
    /// Provided outputs.
    pub outports: Vec<PortSpec>,
    /// Typed configuration properties in document order.
    pub properties: Vec<(String, PropertyValue)>,
    /// Alternate operating modes (periodic components only). The base
    /// contract is the implicit mode [`crate::model::BASE_MODE`].
    pub modes: Vec<OperatingMode>,
}

impl ComponentDescriptor {
    /// Parses and validates a descriptor document.
    ///
    /// # Errors
    ///
    /// Returns [`DescriptorError`] describing the first problem found.
    pub fn parse_xml(input: &str) -> Result<Self, DescriptorError> {
        let root = xml::parse(input)?;
        Self::from_element(&root)
    }

    /// Builds a descriptor from an already-parsed element.
    ///
    /// # Errors
    ///
    /// Returns [`DescriptorError`] describing the first problem found.
    pub fn from_element(root: &Element) -> Result<Self, DescriptorError> {
        if root.local_name() != "component" {
            return Err(DescriptorError::WrongRoot(root.name.clone()));
        }
        let name_raw = require_attr(root, "name")?;
        let name = ObjName::new(name_raw).map_err(|e| DescriptorError::BadValue {
            element: root.name.clone(),
            attribute: "name",
            reason: e.to_string(),
        })?;
        let description = root.attr("desc").unwrap_or("").to_string();
        let enabled = match root.attr("enabled") {
            None => true,
            Some(raw) => raw
                .trim()
                .parse::<bool>()
                .map_err(|_| DescriptorError::BadValue {
                    element: root.name.clone(),
                    attribute: "enabled",
                    reason: format!("`{raw}` is not a boolean"),
                })?,
        };
        let cpu_usage = {
            let raw = require_attr(root, "cpuusage")?;
            let parsed = raw
                .trim()
                .parse::<f64>()
                .map_err(|_| DescriptorError::BadValue {
                    element: root.name.clone(),
                    attribute: "cpuusage",
                    reason: format!("`{raw}` is not a number"),
                })?;
            CpuUsage::new(parsed).map_err(|reason| DescriptorError::BadValue {
                element: root.name.clone(),
                attribute: "cpuusage",
                reason,
            })?
        };
        let task = parse_task(root)?;
        let implementation = root
            .child_named("implementation")
            .ok_or(DescriptorError::MissingElement {
                parent: root.name.clone(),
                child: "implementation",
            })
            .and_then(|imp| require_attr(imp, "bincode"))?
            .to_string();

        let mut inports = Vec::new();
        let mut outports = Vec::new();
        for child in root.child_elements() {
            match child.local_name() {
                "inport" => inports.push(parse_port(child)?),
                "outport" => outports.push(parse_port(child)?),
                _ => {}
            }
        }
        // Port names must be unique within the component.
        let mut seen: Vec<&ObjName> = Vec::new();
        for p in inports.iter().chain(outports.iter()) {
            if seen.contains(&&p.name) {
                return Err(DescriptorError::DuplicatePort(p.name.to_string()));
            }
            seen.push(&p.name);
        }

        let mut properties = Vec::new();
        for prop in root.children_named("property") {
            let pname = require_attr(prop, "name")?.to_string();
            let ptype = require_attr(prop, "type")?;
            let praw = require_attr(prop, "value")?;
            let value = PropertyValue::parse_typed(ptype, praw).map_err(|reason| {
                DescriptorError::BadValue {
                    element: format!("property `{pname}`"),
                    attribute: "value",
                    reason,
                }
            })?;
            if properties.iter().any(|(n, _)| *n == pname) {
                return Err(DescriptorError::Invalid(format!(
                    "duplicate property `{pname}`"
                )));
            }
            properties.push((pname, value));
        }

        let mut modes = Vec::new();
        for mode in root.children_named("mode") {
            let mname = require_attr(mode, "name")?.to_string();
            if mname == crate::model::BASE_MODE
                || modes.iter().any(|m: &OperatingMode| m.name == mname)
            {
                return Err(DescriptorError::Invalid(format!(
                    "duplicate or reserved mode name `{mname}`"
                )));
            }
            if !task.is_periodic() {
                return Err(DescriptorError::Invalid(
                    "modes are only valid on periodic components".into(),
                ));
            }
            let frequency_hz = parse_u32(mode, "frequence", require_attr(mode, "frequence")?)?;
            if frequency_hz == 0 {
                return Err(DescriptorError::BadValue {
                    element: mode.name.clone(),
                    attribute: "frequence",
                    reason: "frequency must be positive".into(),
                });
            }
            let usage_raw = require_attr(mode, "cpuusage")?;
            let usage = usage_raw
                .trim()
                .parse::<f64>()
                .ok()
                .and_then(|u| CpuUsage::new(u).ok())
                .ok_or_else(|| DescriptorError::BadValue {
                    element: mode.name.clone(),
                    attribute: "cpuusage",
                    reason: format!("`{usage_raw}` is not a CPU fraction in [2^-48, 1]"),
                })?;
            let prio_raw = mode
                .attr("priority")
                .map(str::to_string)
                .unwrap_or_else(|| task.priority().0.to_string());
            let prio = parse_u32(mode, "priority", &prio_raw)?;
            if prio > 254 {
                return Err(DescriptorError::BadValue {
                    element: mode.name.clone(),
                    attribute: "priority",
                    reason: "real-time priorities are 0..=254".into(),
                });
            }
            modes.push(OperatingMode {
                name: mname,
                frequency_hz,
                cpu_usage: usage.fraction(),
                priority: Priority(prio as u8),
            });
        }

        Ok(ComponentDescriptor {
            name,
            description,
            enabled,
            task,
            cpu_usage,
            implementation,
            inports,
            outports,
            properties,
            modes,
        })
    }

    /// Starts a programmatic descriptor (for tests and Rust-native
    /// components) — see [`DescriptorBuilder`].
    pub fn builder(name: &str) -> DescriptorBuilder {
        DescriptorBuilder::new(name)
    }

    /// The value of a named property.
    pub fn property(&self, name: &str) -> Option<&PropertyValue> {
        self.properties
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Looks up an operating mode. [`crate::model::BASE_MODE`] resolves to
    /// the base contract.
    pub fn mode(&self, name: &str) -> Option<OperatingMode> {
        if name == crate::model::BASE_MODE {
            if let TaskSpec::Periodic {
                frequency_hz,
                priority,
                ..
            } = self.task
            {
                return Some(OperatingMode {
                    name: crate::model::BASE_MODE.to_string(),
                    frequency_hz,
                    cpu_usage: self.cpu_usage.fraction(),
                    priority,
                });
            }
            return None;
        }
        self.modes.iter().find(|m| m.name == name).cloned()
    }

    /// The descriptor with one mode's contract substituted in (mode
    /// switching support; the DRCR uses this to re-admit under the new
    /// claim).
    pub fn with_mode(&self, mode: &OperatingMode) -> ComponentDescriptor {
        let mut d = self.clone();
        if let TaskSpec::Periodic { cpu, .. } = self.task {
            d.task = TaskSpec::Periodic {
                frequency_hz: mode.frequency_hz,
                cpu,
                priority: mode.priority,
            };
        }
        d.cpu_usage = CpuUsage::new(mode.cpu_usage).expect("modes are validated");
        d
    }

    /// All ports with their directions (inports first).
    pub fn ports(&self) -> impl Iterator<Item = (PortDirection, &PortSpec)> {
        self.inports
            .iter()
            .map(|p| (PortDirection::In, p))
            .chain(self.outports.iter().map(|p| (PortDirection::Out, p)))
    }

    /// Serializes the descriptor back to its XML form (the paper's Figure 2
    /// grammar). `parse_xml(d.to_xml())` reproduces `d` exactly.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "<drt:component name=\"{}\" desc=\"{}\" type=\"{}\" enabled=\"{}\" cpuusage=\"{}\">\n",
            self.name,
            escape_xml(&self.description),
            if self.task.is_periodic() {
                "periodic"
            } else {
                "aperiodic"
            },
            self.enabled,
            self.cpu_usage,
        ));
        out.push_str(&format!(
            "  <implementation bincode=\"{}\"/>\n",
            escape_xml(&self.implementation)
        ));
        match &self.task {
            TaskSpec::Periodic {
                frequency_hz,
                cpu,
                priority,
            } => out.push_str(&format!(
                "  <periodictask frequence=\"{frequency_hz}\" runoncup=\"{cpu}\" priority=\"{priority}\"/>\n"
            )),
            TaskSpec::Aperiodic { cpu, priority } => out.push_str(&format!(
                "  <aperiodictask runoncup=\"{cpu}\" priority=\"{priority}\"/>\n"
            )),
        }
        for (tag, ports) in [("outport", &self.outports), ("inport", &self.inports)] {
            for p in ports {
                out.push_str(&format!(
                    "  <{tag} name=\"{}\" interface=\"{}\" type=\"{}\" size=\"{}\"/>\n",
                    p.name, p.interface, p.data_type, p.size
                ));
            }
        }
        for (name, value) in &self.properties {
            out.push_str(&format!(
                "  <property name=\"{}\" type=\"{}\" value=\"{}\"/>\n",
                escape_xml(name),
                value.type_name(),
                escape_xml(&value.to_string())
            ));
        }
        for m in &self.modes {
            out.push_str(&format!(
                "  <mode name=\"{}\" frequence=\"{}\" cpuusage=\"{}\" priority=\"{}\"/>\n",
                escape_xml(&m.name),
                m.frequency_hz,
                m.cpu_usage,
                m.priority
            ));
        }
        out.push_str("</drt:component>\n");
        out
    }
}

fn escape_xml(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

fn require_attr<'a>(e: &'a Element, attribute: &'static str) -> Result<&'a str, DescriptorError> {
    e.attr(attribute).ok_or(DescriptorError::MissingAttribute {
        element: e.name.clone(),
        attribute,
    })
}

fn parse_u32(e: &Element, attribute: &'static str, raw: &str) -> Result<u32, DescriptorError> {
    raw.trim()
        .parse::<u32>()
        .map_err(|_| DescriptorError::BadValue {
            element: e.name.clone(),
            attribute,
            reason: format!("`{raw}` is not a non-negative integer"),
        })
}

fn parse_task(root: &Element) -> Result<TaskSpec, DescriptorError> {
    let kind = require_attr(root, "type")?;
    match kind.to_ascii_lowercase().as_str() {
        "periodic" => {
            let t = root
                .child_named("periodictask")
                .ok_or(DescriptorError::MissingElement {
                    parent: root.name.clone(),
                    child: "periodictask",
                })?;
            let frequency_hz = parse_u32(t, "frequence", require_attr(t, "frequence")?)?;
            if frequency_hz == 0 {
                return Err(DescriptorError::BadValue {
                    element: t.name.clone(),
                    attribute: "frequence",
                    reason: "frequency must be positive".into(),
                });
            }
            // The paper's Figure 2 spells the CPU attribute `runoncup`;
            // accept the obvious `runoncpu` too.
            let cpu_raw = t
                .attr("runoncup")
                .or_else(|| t.attr("runoncpu"))
                .unwrap_or("0");
            let cpu = parse_u32(t, "runoncup", cpu_raw)?;
            let prio_raw = require_attr(t, "priority")?;
            let prio = parse_u32(t, "priority", prio_raw)?;
            if prio > 254 {
                return Err(DescriptorError::BadValue {
                    element: t.name.clone(),
                    attribute: "priority",
                    reason: "real-time priorities are 0..=254".into(),
                });
            }
            Ok(TaskSpec::Periodic {
                frequency_hz,
                cpu,
                priority: Priority(prio as u8),
            })
        }
        "aperiodic" => {
            let (cpu, prio) = match root.child_named("aperiodictask") {
                Some(t) => {
                    let cpu_raw = t
                        .attr("runoncup")
                        .or_else(|| t.attr("runoncpu"))
                        .unwrap_or("0");
                    let cpu = parse_u32(t, "runoncup", cpu_raw)?;
                    let prio_raw = t.attr("priority").unwrap_or("100");
                    (cpu, parse_u32(t, "priority", prio_raw)?)
                }
                None => (0, 100),
            };
            if prio > 254 {
                return Err(DescriptorError::BadValue {
                    element: root.name.clone(),
                    attribute: "priority",
                    reason: "real-time priorities are 0..=254".into(),
                });
            }
            Ok(TaskSpec::Aperiodic {
                cpu,
                priority: Priority(prio as u8),
            })
        }
        other => Err(DescriptorError::BadValue {
            element: root.name.clone(),
            attribute: "type",
            reason: format!("task type must be `periodic` or `aperiodic`, got `{other}`"),
        }),
    }
}

fn parse_port(e: &Element) -> Result<PortSpec, DescriptorError> {
    let name_raw = require_attr(e, "name")?;
    let name = ObjName::new(name_raw).map_err(|err| DescriptorError::BadValue {
        element: e.name.clone(),
        attribute: "name",
        reason: err.to_string(),
    })?;
    let interface: PortInterface =
        require_attr(e, "interface")?
            .parse()
            .map_err(|reason| DescriptorError::BadValue {
                element: e.name.clone(),
                attribute: "interface",
                reason,
            })?;
    let data_type: DataType =
        require_attr(e, "type")?
            .parse()
            .map_err(|reason| DescriptorError::BadValue {
                element: e.name.clone(),
                attribute: "type",
                reason,
            })?;
    let size = parse_u32(e, "size", require_attr(e, "size")?)? as usize;
    if size == 0 {
        return Err(DescriptorError::BadValue {
            element: e.name.clone(),
            attribute: "size",
            reason: "port size must be positive".into(),
        });
    }
    Ok(PortSpec {
        name,
        interface,
        data_type,
        size,
    })
}

/// Builder for programmatic descriptors (the Rust-native equivalent of
/// writing the XML by hand).
#[derive(Debug, Clone)]
pub struct DescriptorBuilder {
    name: String,
    description: String,
    enabled: bool,
    task: Option<TaskSpec>,
    cpu_usage: f64,
    implementation: String,
    inports: Vec<PortSpec>,
    outports: Vec<PortSpec>,
    properties: Vec<(String, PropertyValue)>,
    modes: Vec<OperatingMode>,
}

impl DescriptorBuilder {
    /// Starts a builder for a component named `name`.
    pub fn new(name: &str) -> Self {
        DescriptorBuilder {
            name: name.to_string(),
            description: String::new(),
            enabled: true,
            task: None,
            cpu_usage: 0.1,
            implementation: format!("rust::{name}"),
            inports: Vec::new(),
            outports: Vec::new(),
            properties: Vec::new(),
            modes: Vec::new(),
        }
    }

    /// Sets the human-readable description.
    pub fn description(mut self, desc: &str) -> Self {
        self.description = desc.to_string();
        self
    }

    /// Sets the enabled flag (default true).
    pub fn enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Declares a periodic task contract.
    pub fn periodic(mut self, frequency_hz: u32, cpu: u32, priority: u8) -> Self {
        self.task = Some(TaskSpec::Periodic {
            frequency_hz,
            cpu,
            priority: Priority(priority),
        });
        self
    }

    /// Declares an aperiodic task contract.
    pub fn aperiodic(mut self, cpu: u32, priority: u8) -> Self {
        self.task = Some(TaskSpec::Aperiodic {
            cpu,
            priority: Priority(priority),
        });
        self
    }

    /// Sets the claimed CPU fraction (default 0.1).
    pub fn cpu_usage(mut self, fraction: f64) -> Self {
        self.cpu_usage = fraction;
        self
    }

    /// Sets the implementation class name.
    pub fn implementation(mut self, bincode: &str) -> Self {
        self.implementation = bincode.to_string();
        self
    }

    /// Adds an inport.
    pub fn inport(
        mut self,
        name: &str,
        interface: PortInterface,
        data_type: DataType,
        size: usize,
    ) -> Self {
        self.inports.push(PortSpec {
            name: ObjName::new(name).expect("builder port names are validated in build()"),
            interface,
            data_type,
            size,
        });
        self
    }

    /// Adds an outport.
    pub fn outport(
        mut self,
        name: &str,
        interface: PortInterface,
        data_type: DataType,
        size: usize,
    ) -> Self {
        self.outports.push(PortSpec {
            name: ObjName::new(name).expect("builder port names are validated in build()"),
            interface,
            data_type,
            size,
        });
        self
    }

    /// Adds a typed property.
    pub fn property(mut self, name: &str, value: PropertyValue) -> Self {
        self.properties.push((name.to_string(), value));
        self
    }

    /// Adds an alternate operating mode (periodic components only).
    pub fn mode(mut self, name: &str, frequency_hz: u32, cpu_usage: f64, priority: u8) -> Self {
        self.modes.push(OperatingMode {
            name: name.to_string(),
            frequency_hz,
            cpu_usage,
            priority: Priority(priority),
        });
        self
    }

    /// Validates and produces the descriptor.
    ///
    /// # Errors
    ///
    /// The same rules as XML parsing: valid names, positive usage, a task
    /// contract, unique ports.
    pub fn build(self) -> Result<ComponentDescriptor, DescriptorError> {
        let name = ObjName::new(&self.name).map_err(|e| DescriptorError::BadValue {
            element: "component".into(),
            attribute: "name",
            reason: e.to_string(),
        })?;
        let task = self.task.ok_or(DescriptorError::MissingElement {
            parent: "component".into(),
            child: "periodictask",
        })?;
        let cpu_usage =
            CpuUsage::new(self.cpu_usage).map_err(|reason| DescriptorError::BadValue {
                element: "component".into(),
                attribute: "cpuusage",
                reason,
            })?;
        let mut seen: Vec<&ObjName> = Vec::new();
        for p in self.inports.iter().chain(self.outports.iter()) {
            if seen.contains(&&p.name) {
                return Err(DescriptorError::DuplicatePort(p.name.to_string()));
            }
            seen.push(&p.name);
        }
        for m in &self.modes {
            if m.name == crate::model::BASE_MODE
                || self.modes.iter().filter(|o| o.name == m.name).count() > 1
            {
                return Err(DescriptorError::Invalid(format!(
                    "duplicate or reserved mode name `{}`",
                    m.name
                )));
            }
            if !task.is_periodic() {
                return Err(DescriptorError::Invalid(
                    "modes are only valid on periodic components".into(),
                ));
            }
            if m.frequency_hz == 0 {
                return Err(DescriptorError::BadValue {
                    element: "mode".into(),
                    attribute: "frequence",
                    reason: "frequency must be positive".into(),
                });
            }
            CpuUsage::new(m.cpu_usage).map_err(|reason| DescriptorError::BadValue {
                element: "mode".into(),
                attribute: "cpuusage",
                reason,
            })?;
        }
        Ok(ComponentDescriptor {
            name,
            description: self.description,
            enabled: self.enabled,
            task,
            cpu_usage,
            implementation: self.implementation,
            inports: self.inports,
            outports: self.outports,
            properties: self.properties,
            modes: self.modes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2 descriptor, normalised to ASCII quotes.
    pub const CAMERA_XML: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="camera" desc="this is a smart camera controller"
    type="periodic" enabled="true" cpuusage="0.1">
  <implementation bincode="ua.pats.demo.smartcamera.RTComponent"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
  <outport name="images" interface="RTAI.SHM" type="Byte" size="400" />
  <inport name="xysize" interface="RTAI.SHM" type="Integer" size="400"/>
  <property name="prox00" type="Integer" value="6" />
</drt:component>"#;

    #[test]
    fn parses_figure_2() {
        let d = ComponentDescriptor::parse_xml(CAMERA_XML).unwrap();
        assert_eq!(d.name.as_str(), "camera");
        assert!(d.enabled);
        assert_eq!(d.cpu_usage.fraction(), 0.1);
        assert_eq!(
            d.task,
            TaskSpec::Periodic {
                frequency_hz: 100,
                cpu: 0,
                priority: Priority(2)
            }
        );
        assert_eq!(d.implementation, "ua.pats.demo.smartcamera.RTComponent");
        assert_eq!(d.outports.len(), 1);
        assert_eq!(d.outports[0].name.as_str(), "images");
        assert_eq!(d.outports[0].byte_len(), 400);
        assert_eq!(d.inports.len(), 1);
        assert_eq!(d.inports[0].data_type, DataType::Integer);
        assert_eq!(d.property("prox00"), Some(&PropertyValue::Integer(6)));
    }

    #[test]
    fn enabled_defaults_to_true() {
        let xml = r#"<drt:component name="x" type="aperiodic" cpuusage="0.1">
            <implementation bincode="a.B"/></drt:component>"#;
        let d = ComponentDescriptor::parse_xml(xml).unwrap();
        assert!(d.enabled);
        assert_eq!(
            d.task,
            TaskSpec::Aperiodic {
                cpu: 0,
                priority: Priority(100)
            }
        );
    }

    #[test]
    fn disabled_component_parses() {
        let xml = r#"<drt:component name="x" type="aperiodic" enabled="false" cpuusage="0.1">
            <implementation bincode="a.B"/></drt:component>"#;
        assert!(!ComponentDescriptor::parse_xml(xml).unwrap().enabled);
    }

    fn base(extra: &str) -> String {
        format!(
            r#"<drt:component name="x" type="periodic" cpuusage="0.2">
              <implementation bincode="a.B"/>
              <periodictask frequence="50" priority="3"/>
              {extra}
            </drt:component>"#
        )
    }

    #[test]
    fn missing_pieces_are_rejected() {
        // No name.
        let xml = r#"<drt:component type="periodic" cpuusage="0.1">
            <implementation bincode="a.B"/>
            <periodictask frequence="1" priority="1"/></drt:component>"#;
        assert!(matches!(
            ComponentDescriptor::parse_xml(xml),
            Err(DescriptorError::MissingAttribute {
                attribute: "name",
                ..
            })
        ));
        // No implementation.
        let xml = r#"<drt:component name="x" type="periodic" cpuusage="0.1">
            <periodictask frequence="1" priority="1"/></drt:component>"#;
        assert!(matches!(
            ComponentDescriptor::parse_xml(xml),
            Err(DescriptorError::MissingElement {
                child: "implementation",
                ..
            })
        ));
        // Periodic without periodictask.
        let xml = r#"<drt:component name="x" type="periodic" cpuusage="0.1">
            <implementation bincode="a.B"/></drt:component>"#;
        assert!(matches!(
            ComponentDescriptor::parse_xml(xml),
            Err(DescriptorError::MissingElement {
                child: "periodictask",
                ..
            })
        ));
    }

    #[test]
    fn bad_values_are_rejected() {
        for (xml, attr) in [
            (
                base("").replace("cpuusage=\"0.2\"", "cpuusage=\"1.5\""),
                "cpuusage",
            ),
            (
                base("").replace("cpuusage=\"0.2\"", "cpuusage=\"abc\""),
                "cpuusage",
            ),
            (
                base("").replace("frequence=\"50\"", "frequence=\"0\""),
                "frequence",
            ),
            (
                base("").replace("priority=\"3\"", "priority=\"999\""),
                "priority",
            ),
            (
                base("").replace("type=\"periodic\"", "type=\"sporadic\""),
                "type",
            ),
            (
                base("").replace("name=\"x\"", "name=\"waytoolong\""),
                "name",
            ),
        ] {
            match ComponentDescriptor::parse_xml(&xml) {
                Err(DescriptorError::BadValue { attribute, .. }) => {
                    assert_eq!(attribute, attr, "{xml}")
                }
                other => panic!("expected BadValue for {attr}, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_ports_are_rejected() {
        let dup = base(
            r#"<outport name="data" interface="RTAI.SHM" type="Byte" size="4"/>
               <inport name="data" interface="RTAI.SHM" type="Byte" size="4"/>"#,
        );
        assert!(matches!(
            ComponentDescriptor::parse_xml(&dup),
            Err(DescriptorError::DuplicatePort(_))
        ));
        let zero = base(r#"<outport name="data" interface="RTAI.SHM" type="Byte" size="0"/>"#);
        assert!(matches!(
            ComponentDescriptor::parse_xml(&zero),
            Err(DescriptorError::BadValue {
                attribute: "size",
                ..
            })
        ));
        let badif = base(r#"<outport name="data" interface="RTAI.PIPE" type="Byte" size="4"/>"#);
        assert!(matches!(
            ComponentDescriptor::parse_xml(&badif),
            Err(DescriptorError::BadValue {
                attribute: "interface",
                ..
            })
        ));
    }

    #[test]
    fn duplicate_properties_rejected() {
        let xml = base(
            r#"<property name="p" type="Integer" value="1"/>
               <property name="p" type="Integer" value="2"/>"#,
        );
        assert!(matches!(
            ComponentDescriptor::parse_xml(&xml),
            Err(DescriptorError::Invalid(_))
        ));
    }

    #[test]
    fn builder_equivalent_to_xml() {
        let built = ComponentDescriptor::builder("camera")
            .description("this is a smart camera controller")
            .periodic(100, 0, 2)
            .cpu_usage(0.1)
            .implementation("ua.pats.demo.smartcamera.RTComponent")
            .outport("images", PortInterface::Shm, DataType::Byte, 400)
            .inport("xysize", PortInterface::Shm, DataType::Integer, 400)
            .property("prox00", PropertyValue::Integer(6))
            .build()
            .unwrap();
        let parsed = ComponentDescriptor::parse_xml(CAMERA_XML).unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn builder_validates_like_parser() {
        assert!(ComponentDescriptor::builder("toolongname")
            .aperiodic(0, 1)
            .build()
            .is_err());
        assert!(ComponentDescriptor::builder("x").build().is_err()); // no task
        assert!(ComponentDescriptor::builder("x")
            .aperiodic(0, 1)
            .cpu_usage(2.0)
            .build()
            .is_err());
    }

    #[test]
    fn ports_iterator_labels_directions() {
        let d = ComponentDescriptor::parse_xml(CAMERA_XML).unwrap();
        let dirs: Vec<PortDirection> = d.ports().map(|(dir, _)| dir).collect();
        assert_eq!(dirs, vec![PortDirection::In, PortDirection::Out]);
    }
}
