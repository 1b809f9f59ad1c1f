//! Deterministic virtual machine substrate for the AVM reproduction.
//!
//! The paper's prototype is built on VMware Workstation: a VMM that can
//! execute an unmodified x86 guest, record every nondeterministic input
//! (network packets, timer/clock reads, local input events) together with its
//! precise position in the instruction stream, and later replay the guest
//! deterministically from a snapshot.  This crate provides the equivalent
//! machine model for the reproduction:
//!
//! * [`store::LeafStore`] — the hashed, dirty-tracked, lazily resident byte
//!   array that is both guest RAM and the disk (the basis for incremental
//!   snapshots, state roots and on-demand audits), and the one leaf API:
//!   leaf hashes, dirty sets, staging and residency are read and changed
//!   through it (`GuestMemory::leaves`, `Disk::leaves`, their `_mut`
//!   forms), never through per-kind aliases,
//! * [`mem::GuestMemory`] — guest RAM: a store in 512 B chunks behind byte,
//!   scalar and page views,
//! * [`devices`] — a virtual clock, NIC, block disk (a store in 512 B
//!   blocks, the same leaf), local-input device and console behind a single
//!   [`devices::DeviceState`],
//! * [`bytecode`] — a small RISC-like ISA, an assembler and an interpreting
//!   CPU, for guests expressed as machine code,
//! * [`native`] — deterministic "guest kernels" written in Rust against the
//!   same device interface, used for the richer workloads (the game and the
//!   database server),
//! * [`machine::Machine`] — ties the pieces together and exposes the
//!   hypervisor interface: run-until-exit, nondeterministic-input delivery
//!   and precise, step-stamped asynchronous injection.
//!
//! Determinism contract: given the same [`image::VmImage`] and the same
//! sequence of injected inputs at the same step counts, a `Machine` produces
//! bit-identical state and the same sequence of [`exit::VmExit`]s.  The AVMM
//! (in `avm-core`) records exactly that information and replays it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytecode;
pub mod devices;
pub mod error;
pub mod exit;
pub mod image;
pub mod machine;
pub mod mem;
pub mod native;
pub mod packet;
pub mod store;

pub use error::VmError;
pub use exit::{StopCondition, VmExit};
pub use image::{GuestRegistry, ImageKind, VmImage, STATE_HEADER_LEAVES};
pub use machine::{Machine, MachineConfig};
pub use mem::{GuestMemory, CHUNKS_PER_PAGE, CHUNK_SIZE, PAGE_SIZE};
pub use native::{GuestCtx, GuestKernel, GuestStep};
pub use store::LeafStore;
