//! Tamper-evident logging in the style of PeerReview, as used by the AVMM.
//!
//! The paper (§4.3) structures the log as a hash chain: each entry is
//! `e_i = (s_i, t_i, c_i, h_i)` with `h_i = H(h_{i-1} || s_i || t_i || H(c_i))`
//! and `h_0 := 0`.  Outgoing messages carry an *authenticator*
//! `a_i = (s_i, h_i, σ(s_i || h_i))` — a signed commitment to the log prefix —
//! plus `h_{i-1}` so the recipient can verify that entry `e_i` really is
//! `SEND(m)`.  Because the hash function is second-pre-image resistant, a
//! machine that later reorders, modifies, forges or forks its log can no
//! longer produce a chain consistent with the authenticators it has already
//! handed out.
//!
//! This crate provides the log data structure, authenticators,
//! acknowledgment payloads and the verification routines an auditor runs
//! during the *syntactic* phase of an audit.  The *semantic* phase
//! (deterministic replay) lives in `avm-core`.
//!
//! [`verify_chain`] is the one chain check: density of sequence numbers and
//! the hash chain over a run of entries.  [`verify_segment`] (an auditor's
//! downloaded segment), [`TamperEvidentLog::from_entries`] (a log rebuilt
//! from recovered entries) and `avm-store`'s segment scan all call it; none
//! of them walks the chain itself.  Each run of entries up to one that
//! claims its hash is hashed from the claim before it, so runs are
//! independent of one another: `verify_chain` hashes them side by side
//! through the eight-lane SHA-256 core, then reports the first fault in
//! order — the verdict of an entry-at-a-time loop evaluated at the claims
//! (kept as the reference in `tests/chain_differential.rs`).  A stored entry
//! claims its hash; a segment on the wire claims one only at its
//! checkpoints ([`wire`]), and the check computes the rest.
//!
//! Both checks are written against [`EntryView`] — `seq`, `kind`, `content`,
//! the claimed hash — not against who owns the content: a [`LogEntry`] owns
//! it, a [`LogEntryRef`] is decoded in place and borrows it from the packet
//! a segment arrived in, so an auditor verifies (and `avm-core` replays) a
//! downloaded segment without copying an entry out of its buffer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod entry;
pub mod log;
pub mod source;
pub mod verify;
pub mod wire;

pub use auth::{Acknowledgment, Authenticator};
pub use entry::{EntryKind, EntryView, LogEntry, LogEntryRef};
pub use log::TamperEvidentLog;
pub use source::LogSource;
pub use verify::{verify_chain, verify_segment, Chain, LogVerifyError, SegmentSummary};
