//! Error types of the DRCom layer.

use crate::lifecycle::ComponentState;
use crate::xml::XmlError;
use std::fmt;

/// A descriptor parse/validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum DescriptorError {
    /// The XML itself is malformed.
    Xml(XmlError),
    /// The root element is not `component`.
    WrongRoot(String),
    /// A required attribute is missing.
    MissingAttribute {
        /// The element lacking the attribute.
        element: String,
        /// The missing attribute name.
        attribute: &'static str,
    },
    /// A required child element is missing.
    MissingElement {
        /// The parent element.
        parent: String,
        /// The missing child name.
        child: &'static str,
    },
    /// An attribute value failed to parse or validate.
    BadValue {
        /// The element carrying the attribute.
        element: String,
        /// The attribute name.
        attribute: &'static str,
        /// Why the value is bad.
        reason: String,
    },
    /// Two ports of the component share a name.
    DuplicatePort(String),
    /// Some other structural rule was violated.
    Invalid(String),
}

impl fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescriptorError::Xml(e) => write!(f, "{e}"),
            DescriptorError::WrongRoot(name) => {
                write!(f, "root element must be `component`, found `{name}`")
            }
            DescriptorError::MissingAttribute { element, attribute } => {
                write!(f, "element `{element}` is missing attribute `{attribute}`")
            }
            DescriptorError::MissingElement { parent, child } => {
                write!(f, "element `{parent}` is missing child `{child}`")
            }
            DescriptorError::BadValue {
                element,
                attribute,
                reason,
            } => write!(f, "bad `{attribute}` on `{element}`: {reason}"),
            DescriptorError::DuplicatePort(name) => {
                write!(f, "duplicate port name `{name}`")
            }
            DescriptorError::Invalid(reason) => write!(f, "invalid descriptor: {reason}"),
        }
    }
}

impl std::error::Error for DescriptorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DescriptorError::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XmlError> for DescriptorError {
    fn from(e: XmlError) -> Self {
        DescriptorError::Xml(e)
    }
}

/// Errors from the DRCR executive.
#[derive(Debug, Clone, PartialEq)]
pub enum DrcrError {
    /// No component registered under that name.
    NoSuchComponent(String),
    /// A component with that name is already registered (names are globally
    /// unique, §2.3).
    DuplicateComponent(String),
    /// A component is pinned to a CPU the kernel does not have.
    NoSuchCpu {
        /// The component.
        component: String,
        /// The CPU its task declares.
        cpu: u32,
        /// The number of CPUs on the kernel.
        cpus: u32,
    },
    /// The requested lifecycle transition is not legal.
    IllegalTransition {
        /// The component.
        component: String,
        /// Its current state.
        from: ComponentState,
        /// The requested state.
        to: ComponentState,
    },
    /// A fleet references a communication channel no member provides
    /// (e.g. a stream inport with no producing outport anywhere in the
    /// fleet): the read side would only fail at run time, so the lowering
    /// rejects the topology up front.
    MissingChannel {
        /// The consuming component.
        component: String,
        /// The unprovided port/channel name.
        port: String,
    },
    /// A kernel operation failed.
    Kernel(String),
    /// Descriptor problems detected at registration time.
    Descriptor(DescriptorError),
    /// The management channel to the real-time side failed.
    Management(String),
    /// A contract-monitor setting ([`crate::contracts::LearningConfig`])
    /// lies outside its domain, where it would silently disable a verdict.
    BadLearningConfig {
        /// The offending field.
        field: &'static str,
        /// Its value.
        value: f64,
        /// The domain it must lie in.
        domain: &'static str,
    },
}

impl fmt::Display for DrcrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrcrError::NoSuchComponent(name) => write!(f, "no component named `{name}`"),
            DrcrError::DuplicateComponent(name) => {
                write!(f, "component `{name}` is already registered")
            }
            DrcrError::NoSuchCpu {
                component,
                cpu,
                cpus,
            } => write!(
                f,
                "component `{component}` is pinned to CPU {cpu}, but the kernel has {cpus} CPU(s)"
            ),
            DrcrError::IllegalTransition {
                component,
                from,
                to,
            } => write!(
                f,
                "component `{component}` cannot move from {from:?} to {to:?}"
            ),
            DrcrError::MissingChannel { component, port } => {
                write!(
                    f,
                    "component `{component}` consumes channel `{port}` that no fleet member provides"
                )
            }
            DrcrError::Kernel(msg) => write!(f, "kernel error: {msg}"),
            DrcrError::Descriptor(e) => write!(f, "{e}"),
            DrcrError::Management(msg) => write!(f, "management channel error: {msg}"),
            DrcrError::BadLearningConfig {
                field,
                value,
                domain,
            } => write!(
                f,
                "learning config `{field}` = {value} lies outside {domain}"
            ),
        }
    }
}

impl std::error::Error for DrcrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DrcrError::Descriptor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DescriptorError> for DrcrError {
    fn from(e: DescriptorError) -> Self {
        DrcrError::Descriptor(e)
    }
}

impl From<rtos::KernelError> for DrcrError {
    fn from(e: rtos::KernelError) -> Self {
        DrcrError::Kernel(e.to_string())
    }
}

impl From<rtos::IpcError> for DrcrError {
    fn from(e: rtos::IpcError) -> Self {
        DrcrError::Kernel(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = DescriptorError::MissingAttribute {
            element: "component".into(),
            attribute: "name",
        };
        assert!(e.to_string().contains("name"));
        let e = DrcrError::NoSuchComponent("calc".into());
        assert!(e.to_string().contains("calc"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: std::error::Error + 'static>() {}
        assert_err::<DescriptorError>();
        assert_err::<DrcrError>();
    }
}
