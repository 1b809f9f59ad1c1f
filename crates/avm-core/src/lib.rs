//! The accountable virtual machine monitor (AVMM).
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Haeberlen, Aditya, Rodrigues, Druschel: *Accountable Virtual Machines*,
//! OSDI 2010): a virtual machine monitor that
//!
//! 1. executes a guest inside a deterministic virtual machine (`avm-vm`),
//! 2. records every nondeterministic input, stamped with its position in the
//!    instruction stream, in a tamper-evident log (`avm-log`),
//! 3. signs every outgoing network message and attaches an authenticator — a
//!    signed commitment to the log prefix — so the log cannot later be
//!    rewritten, and
//! 4. lets any auditor with a reference copy of the VM image verify the log
//!    *syntactically* (hash chain + authenticators + acknowledgments) and
//!    *semantically* (deterministic replay), producing transferable evidence
//!    when the two disagree.
//!
//! Module map:
//!
//! * [`attest`] — accountable attestation: building/serving the launch
//!   envelopes of `avm-attest` for a recording AVMM, and the auditor's
//!   [`attest::LaunchPolicy`] verifying them before spot checks begin.
//! * [`config`] — the five measurement configurations of the paper's
//!   evaluation (bare-hw … avmm-rsa768) and the AVMM options.
//! * [`events`] — the content formats of log entries (clock reads, packet
//!   injections, send/receive records, snapshot records).
//! * [`envelope`] — the signed, authenticated wire format exchanged between
//!   machines.
//! * [`recorder`] — the recording AVMM ([`recorder::Avmm`]), the one owner
//!   of the commitment protocol (acknowledgments, duplicates, resends).
//! * [`snapshot`] — incremental snapshots with Merkle roots, stored
//!   content-addressed ([`snapshot::SnapshotStore`]).
//! * [`persist`] — durable providers ([`persist::Provider`]): the recorder
//!   mirrored to segment files and blob arenas — each snapshot as its
//!   payloads plus its durable record, the [`snapshot::StoredSnapshot`]
//!   itself without payloads — and crash recovery by checkpointed replay.
//! * [`replay`] — the deterministic replayer (semantic check).
//! * [`audit`] — the audit tool combining the syntactic and semantic checks,
//!   and the evidence objects third parties can verify.
//! * [`spotcheck`] — partial audits of `k`-chunks between snapshots (§3.5,
//!   §6.12).
//! * [`ondemand`] — the digest-addressed snapshot transfer protocol and
//!   on-demand partial-state replay ("request the parts of the state that
//!   are accessed", §3.5).
//! * [`session`] — the audit itself, written once as the sans-IO
//!   [`session::AuditSession`] started at the image (the whole log) or at a
//!   snapshot (a §3.5 spot check): requests out, borrowed responses in, the
//!   syntactic phase before any state request, a report at the end.
//! * [`endpoint`] — the auditor/provider endpoints ([`endpoint::AuditClient`]
//!   / [`endpoint::AuditServer`]) speaking the audit protocol of
//!   [`avm_wire::audit`] over a simulated link with retransmission
//!   ([`endpoint::SimNetTransport`]); the client runs each audit as one
//!   [`fleet::FleetAuditor`] on that link.
//! * [`fleet`] — fleet-scale auditing: the sessionful [`fleet::ProviderNode`]
//!   serving N concurrent [`fleet::FleetAuditor`]s — the session's one
//!   driver, an event-loop endpoint — over one shared simulated network,
//!   serving the sessions in turn with a shared response cache.
//! * [`paraudit`] — segment-parallel chunk replay (§6), kept only for the
//!   standalone benchmark's per-layer timings; no audit path calls it.
//! * [`multiparty`] — authenticator collection and evidence distribution
//!   for multi-party scenarios (§4.6).
//! * [`runtime`] — a host runtime tying AVMM nodes to the simulated network:
//!   it carries the packets each AVMM hands it and keeps no protocol state.
//!
//! # Quickstart: record an accountable execution and audit it
//!
//! Bob runs a guest everyone has agreed on; Alice exchanges a message with
//! it and then audits Bob's log against the reference image (a compact
//! version of `examples/quickstart.rs`):
//!
//! ```
//! use avm_core::audit::audit_log;
//! use avm_core::config::AvmmOptions;
//! use avm_core::envelope::{Envelope, EnvelopeKind};
//! use avm_core::recorder::{Avmm, HostClock};
//! use avm_crypto::keys::{Identity, SignatureScheme};
//! use avm_vm::bytecode::assemble;
//! use avm_vm::packet::encode_guest_packet;
//! use avm_vm::{GuestRegistry, VmImage};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // 1. The agreed-upon software: a tiny guest that echoes every packet.
//! let source = r"
//!         movi r1, 0x8000
//!         movi r2, 512
//!     loop:
//!         clock r4
//!         recv r0, r1, r2
//!         cmp r0, r6
//!         jne got
//!         idle
//!         jmp loop
//!     got:
//!         send r1, r0
//!         jmp loop
//!     ";
//! let image = VmImage::bytecode("echo", 128 * 1024, assemble(source, 0).unwrap(), 0, 0);
//! let registry = GuestRegistry::new();
//!
//! // 2. Identities: Bob operates the machine, Alice uses and audits it.
//! let mut rng = StdRng::seed_from_u64(42);
//! let bob = Identity::generate(&mut rng, "bob", SignatureScheme::Rsa(512));
//! let alice = Identity::generate(&mut rng, "alice", SignatureScheme::Rsa(512));
//!
//! // 3. Bob starts an AVMM around the image; it logs every
//! //    nondeterministic input and signs every outgoing message.
//! let opts = AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512));
//! let mut avmm = Avmm::new("bob", &image, &registry, bob.signing_key.clone(), opts).unwrap();
//! avmm.add_peer("alice", alice.verifying_key());
//!
//! // 4. Alice sends a request; Bob's AVMM logs, acknowledges and the guest
//! //    echoes it back inside a signed envelope.
//! let mut clock = HostClock::at(1_000);
//! avmm.run_slice(&clock, 20_000).unwrap();
//! let payload = encode_guest_packet("alice", b"request");
//! let env = Envelope::create(EnvelopeKind::Data, "alice", "bob", 1, payload,
//!                            &alice.signing_key, None);
//! let ack = avmm.deliver(&env).unwrap().expect("ack");
//! assert_eq!(ack.kind, EnvelopeKind::Ack);
//! let echoed = avmm.run_slice(&clock, 100_000).unwrap();
//! assert_eq!(echoed.len(), 1);
//!
//! // 5. Alice audits Bob: syntactic check (hash chain + signatures) plus
//! //    deterministic replay against the reference image.
//! let (prev, segment) = avmm.log().segment(1, avmm.log().len() as u64).unwrap();
//! let report = audit_log("bob", &prev, &segment, &[], &bob.verifying_key(),
//!                        &image, &registry);
//! assert!(report.passed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod audit;
pub mod config;
pub mod endpoint;
pub mod envelope;
pub mod error;
pub mod events;
pub mod fleet;
pub mod multiparty;
pub mod ondemand;
pub mod paraudit;
pub mod persist;
pub mod recorder;
pub mod replay;
pub mod runtime;
pub mod session;
pub mod snapshot;
pub mod spotcheck;
#[cfg(test)]
pub(crate) mod testutil;

pub use attest::{build_envelope, challenge_nonce, expected_launch, Attestor, LaunchPolicy};
pub use audit::{audit_log, AuditOutcome, AuditReport, Evidence};
pub use config::{AvmmOptions, ExecConfig};
pub use endpoint::{AuditClient, AuditServer, SimNetTransport, TransportStats};
pub use envelope::{Envelope, EnvelopeKind};
pub use error::{CoreError, FaultReason};
pub use events::{NdDetail, NdEventRecord, RecvRecord, SendRecord, SnapshotRecord};
pub use ondemand::{
    dedup_transfer_upto, fetch_blobs, materialize_on_demand, AuditorBlobCache, ChainManifest,
    DedupTransfer, OnDemandCost, OnDemandSession,
};
pub use persist::{PersistConfig, PersistError, Provider, RecoveryReport};
pub use recorder::{Avmm, HostClock, OutboundMessage};
pub use replay::{ReplayOutcome, Replayer};
pub use session::{AuditSession, Start, Step};
pub use snapshot::{Snapshot, SnapshotStore, StoredSnapshot, TransferCost};
