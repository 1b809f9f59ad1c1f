//! Durable storage for the AVMM: append-only log segments and blob arenas.
//!
//! An AVM's tamper-evident log *is* the evidence (paper §3); keeping it only
//! in RAM means a provider restart destroys exactly what audits depend on.
//! This crate persists the two in-memory structures behind a fault-injectable
//! [`Storage`] trait:
//!
//! * [`SegmentStore`] — the log, as CRC-framed records in rotated segment
//!   files with periodic signed *seals* (the provider's own authenticator
//!   chain), scanned and chain-verified on recovery;
//! * [`ArenaStore`] — the content-addressed snapshot payload pool, as
//!   append-only digest+payload arenas with a rebuildable index and
//!   prune-driven compaction.
//!
//! Two backends implement [`Storage`]: [`SimStorage`] (in-memory, with
//! byte-granular crash injection for the fault harness) and [`FileStorage`]
//! (a real directory).  Durability costs are *priced* by [`FsyncModel`], so
//! the per-entry / per-batch / per-seal [`SyncPolicy`] trade-off is
//! measurable in simulation.  (The network has no such model: audit
//! exchanges run over `avm_net::SimNet`, and their latency is measured in
//! its simulated time.)
//!
//! The crash-versus-tamper distinction is the load-bearing design point: a
//! crash can only tear the tail of the last-appended file (recovered by
//! silent truncation), while any damage to sealed, durable bytes is reported
//! as [`StoreError::Tamper`] — see [`error`] for the taxonomy.  The
//! recovery-by-replay logic that rebuilds a live provider from these files
//! lives in `avm-core`'s `persist` module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod error;
pub mod fsync;
pub mod segment;
pub mod storage;

pub use arena::{scan_arenas, ArenaConfig, ArenaScan, ArenaStore, ARENA_PREFIX};
pub use error::{StoreError, TamperKind};
pub use fsync::{DurabilityStats, FsyncModel, SyncPolicy};
pub use segment::{scan_segments, SegmentConfig, SegmentScan, SegmentStore, SEGMENT_PREFIX};
pub use storage::{FileStorage, SimStorage, Storage};
