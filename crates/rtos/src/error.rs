//! Error types of the simulated kernel.

use crate::task::TaskId;
use std::fmt;

/// An invalid kernel object name.
///
/// The simulated OS inherits RTAI's restriction that task and IPC object
/// names are at most six characters (the paper's descriptor format calls
/// this out explicitly), non-empty, and ASCII alphanumeric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameError {
    name: String,
    reason: &'static str,
}

impl NameError {
    pub(crate) fn new(name: impl Into<String>, reason: &'static str) -> Self {
        NameError {
            name: name.into(),
            reason,
        }
    }

    /// The offending name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid object name `{}`: {}", self.name, self.reason)
    }
}

impl std::error::Error for NameError {}

/// Errors from the IPC layer (shared memory and mailboxes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpcError {
    /// The object name violates the OS naming rules.
    BadName(NameError),
    /// No object with that name exists.
    NotFound(crate::task::ObjName),
    /// An object with the same name but a different shape already exists.
    Incompatible {
        /// The contested name.
        name: crate::task::ObjName,
        /// Shape of the existing object.
        expected: String,
        /// Shape that was requested.
        found: String,
    },
    /// A buffer of the wrong length was supplied.
    SizeMismatch {
        /// The object name.
        name: crate::task::ObjName,
        /// Required length in bytes.
        expected: usize,
        /// Supplied length in bytes.
        found: usize,
    },
    /// Zero-sized objects cannot be allocated.
    ZeroSize(crate::task::ObjName),
}

impl fmt::Display for IpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpcError::BadName(e) => write!(f, "{e}"),
            IpcError::NotFound(name) => write!(f, "no IPC object named `{name}`"),
            IpcError::Incompatible {
                name,
                expected,
                found,
            } => write!(
                f,
                "IPC object `{name}` exists with shape {expected}, requested {found}"
            ),
            IpcError::SizeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "buffer for `{name}` must be {expected} bytes, got {found}"
            ),
            IpcError::ZeroSize(name) => write!(f, "IPC object `{name}` would be zero-sized"),
        }
    }
}

impl std::error::Error for IpcError {}

impl From<NameError> for IpcError {
    fn from(e: NameError) -> Self {
        IpcError::BadName(e)
    }
}

/// Errors from kernel task management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The task name violates the OS naming rules.
    BadName(NameError),
    /// A task with the same name already exists.
    DuplicateTask(crate::task::ObjName),
    /// No task with the given id exists.
    NoSuchTask(TaskId),
    /// The requested CPU does not exist on this kernel.
    NoSuchCpu(u32),
    /// The operation is invalid in the task's current state.
    InvalidState {
        /// The task.
        task: TaskId,
        /// What was attempted.
        operation: &'static str,
        /// The state it was in.
        state: crate::task::TaskState,
    },
    /// An IPC operation inside the kernel failed.
    Ipc(IpcError),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::BadName(e) => write!(f, "{e}"),
            KernelError::DuplicateTask(name) => write!(f, "task `{name}` already exists"),
            KernelError::NoSuchTask(id) => write!(f, "no task with id {id:?}"),
            KernelError::NoSuchCpu(cpu) => write!(f, "no CPU {cpu} on this kernel"),
            KernelError::InvalidState {
                task,
                operation,
                state,
            } => write!(f, "cannot {operation} task {task:?} in state {state:?}"),
            KernelError::Ipc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for KernelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KernelError::Ipc(e) => Some(e),
            KernelError::BadName(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IpcError> for KernelError {
    fn from(e: IpcError) -> Self {
        KernelError::Ipc(e)
    }
}

impl From<NameError> for KernelError {
    fn from(e: NameError) -> Self {
        KernelError::BadName(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ObjName;

    #[test]
    fn errors_display_meaningfully() {
        let name = ObjName::new("calc").unwrap();
        let e = IpcError::NotFound(name);
        assert!(e.to_string().contains("calc"));
        let e = KernelError::DuplicateTask(name);
        assert!(e.to_string().contains("already exists"));
        let e = KernelError::NoSuchCpu(3);
        assert!(e.to_string().contains("CPU 3"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<NameError>();
        assert_err::<IpcError>();
        assert_err::<KernelError>();
    }

    #[test]
    fn ipc_error_sources_chain() {
        use std::error::Error;
        let ke = KernelError::Ipc(IpcError::ZeroSize(ObjName::new("x").unwrap()));
        assert!(ke.source().is_some());
    }
}
