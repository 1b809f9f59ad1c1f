//! Error types for the virtual machine substrate.

/// Errors raised by the virtual machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// A guest memory access fell outside the configured RAM size.
    MemoryOutOfRange {
        /// Faulting guest-physical address.
        addr: u64,
        /// Length of the access.
        len: usize,
        /// Total memory size.
        mem_size: u64,
    },
    /// The bytecode CPU decoded an unknown opcode.
    IllegalInstruction {
        /// Program counter of the faulting instruction.
        pc: u64,
        /// The opcode byte.
        opcode: u8,
    },
    /// Integer division by zero in the guest.
    DivisionByZero {
        /// Program counter of the faulting instruction.
        pc: u64,
    },
    /// The guest stack overflowed or underflowed.
    StackFault {
        /// Program counter of the faulting instruction.
        pc: u64,
    },
    /// An operation was attempted while the machine awaits a host response
    /// (e.g. `run` called while a clock read is outstanding).
    PendingHostResponse,
    /// A host response was delivered although none was requested.
    UnexpectedHostResponse,
    /// The machine is halted and cannot run further.
    Halted,
    /// A disk access was out of range.
    DiskOutOfRange {
        /// Faulting sector.
        sector: u64,
        /// Number of sectors on the disk.
        sectors: u64,
    },
    /// An access needs the contents of a leaf staged without them (an
    /// on-demand auditor has not received them yet).  The access changed
    /// nothing; `LeafStore::missed` names the leaves (see `avm_vm::store`).
    Miss,
    /// A snapshot or saved state blob could not be restored.
    CorruptState(&'static str),
    /// A native guest image referenced a program that is not registered.
    UnknownGuest(String),
    /// Assembler or image construction error.
    InvalidImage(String),
}

impl core::fmt::Display for VmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmError::MemoryOutOfRange {
                addr,
                len,
                mem_size,
            } => write!(
                f,
                "guest memory access out of range: addr={addr:#x} len={len} mem_size={mem_size:#x}"
            ),
            VmError::IllegalInstruction { pc, opcode } => {
                write!(f, "illegal instruction {opcode:#04x} at pc={pc:#x}")
            }
            VmError::DivisionByZero { pc } => write!(f, "division by zero at pc={pc:#x}"),
            VmError::StackFault { pc } => write!(f, "stack fault at pc={pc:#x}"),
            VmError::PendingHostResponse => {
                write!(f, "machine is waiting for a host response")
            }
            VmError::UnexpectedHostResponse => {
                write!(f, "host response delivered but none was requested")
            }
            VmError::Halted => write!(f, "machine is halted"),
            VmError::DiskOutOfRange { sector, sectors } => {
                write!(f, "disk access out of range: sector={sector} of {sectors}")
            }
            VmError::Miss => write!(f, "access needs staged contents not yet received"),
            VmError::CorruptState(what) => write!(f, "corrupt state: {what}"),
            VmError::UnknownGuest(name) => write!(f, "unknown native guest '{name}'"),
            VmError::InvalidImage(msg) => write!(f, "invalid image: {msg}"),
        }
    }
}

impl std::error::Error for VmError {}

/// Result alias for VM operations.
pub type VmResult<T> = Result<T, VmError>;
