//! Auditor/provider endpoints: one audit protocol, one audit session, one
//! driver.
//!
//! The paper's audits are a *distributed* exchange — Alice downloads Bob's
//! log, snapshots and on-demand state over a real link (§3.5; §6.8 measures
//! the 192 µs-RTT testbed) — and this module is the seam that makes the
//! reproduction one: every download an audit performs is an
//! [`AuditRequest`]/[`AuditResponse`] exchange (defined in
//! [`avm_wire::audit`]) between an [`AuditClient`] and an [`AuditServer`],
//! over a simulated link ([`SimNetTransport`]).
//!
//! The audit procedure itself — from the image or from a snapshot — lives in
//! [`crate::session::AuditSession`], a sans-IO state machine that emits
//! requests and consumes responses.  It has one driver,
//! [`crate::fleet::FleetAuditor`], an endpoint on [`avm_net::run_event_loop`].
//! [`AuditClient`] runs each audit as one `FleetAuditor` against a
//! [`crate::fleet::ProviderNode`] on the client's own [`avm_net::SimNet`],
//! and each standalone download as one exchange on the same loop, so a
//! client's spot check and a fleet of one are the same run.
//!
//! Every exchange pays simulated wall time on its link (latency plus
//! payload serialisation at the link bandwidth) and survives deterministic
//! packet loss by timeout-and-retransmit, matched by request id.  A
//! lossless exchange takes two one-way latencies plus each packet's
//! serialisation delay ([`LinkConfig::serialise_micros`]); the free
//! functions in [`crate::spotcheck`] run over [`LinkConfig::WAN`], so the
//! WAN latency they report is measured the same way.  The wire-level cost
//! of every check is its report's [`TransportStats`] column
//! ([`crate::spotcheck::SpotCheckReport::transport`]).
//!
//! # A response is written once
//!
//! [`AuditServer::respond`] is the one place a response is assembled: it
//! returns the *encoded* [`AuditResponse`] body, each byte written once
//! from the log and store the server only borrows (log entries encoded in
//! place into a buffer sized up front, the section stream serialised
//! straight into the body, blobs lent by the pool).  The provider endpoint
//! ([`crate::fleet::ProviderNode`]) seals that body
//! ([`avm_wire::audit::seal_encoded_message`]) and sends it, so a whole-log
//! segment costs two copies and three allocations on the provider, however
//! many entries it has.  [`AuditServer::handle`] is the decoded view of
//! `respond`, for callers that inspect a response instead of sending it.
//! The auditor's side is the mirror image: the packet is parsed in place
//! ([`AuditResponseRef`]) and only what is kept is copied.  Every session
//! judges its segment inside the exchange, on [`avm_log::LogEntryRef`]s
//! whose contents are still the packet's bytes, in one vector sized from
//! the entry count the borrowed parse already bounded by the bytes that
//! arrived: the syntactic phase always, and from the image the replay too,
//! so a whole-log audit ([`AuditClient::audit_log`]) keeps nothing.  A spot
//! check copies its ~40-entry chunk into owned [`LogEntry`]s once the phase
//! passed, because the session holds it across its next exchanges.
//!
//! # Example: an audit endpoint over a simulated link
//!
//! ```
//! use avm_core::endpoint::{AuditClient, AuditServer, SimNetTransport};
//! use avm_core::snapshot::{capture, SnapshotStore};
//! use avm_net::LinkConfig;
//! use avm_vm::bytecode::assemble;
//! use avm_vm::{GuestRegistry, Machine, VmImage};
//!
//! // A provider with one captured snapshot that diverges from the image.
//! let image = VmImage::bytecode("doc", 64 * 1024, assemble("halt", 0).unwrap(), 0, 0);
//! let registry = GuestRegistry::new();
//! let mut m = Machine::from_image(&image, &registry).unwrap();
//! m.memory_mut().write_u8(0x4000, 7).unwrap();
//! let mut store = SnapshotStore::new();
//! store.push(capture(&mut m, 0, true));
//!
//! // The auditor's client, on a simulated link to the provider.
//! let server = AuditServer::for_store(&store);
//! let mut client = AuditClient::new(SimNetTransport::new(server, LinkConfig::default()));
//! let manifest = client.fetch_manifest(0).unwrap();
//! assert_eq!(manifest.snapshot_id, 0);
//!
//! // The paper's whole-section snapshot dump over the same link.
//! let stream = client.fetch_sections(0).unwrap();
//! assert_eq!(stream.len() as u64, store.transfer_bytes_upto(0));
//! assert_eq!(client.transport_stats().round_trips, 2);
//! assert!(client.transport_stats().elapsed_micros > 0);
//! ```

use avm_crypto::sha256::Digest;
use avm_log::wire::wire_entries;
use avm_log::{LogEntry, LogSource, TamperEvidentLog};
use avm_net::{run_event_loop, Delivery, Endpoint, LinkConfig, NodeId, SimNet};
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::attest::AttestChallenge;
use avm_wire::audit::{
    encode_log_segment, encode_sections_with, open_session_frame, seal_session_message,
    AuditRequest, AuditResponse, AuditResponseRef, SegmentAddress, CLIENT_SESSION,
};
use avm_wire::Encode;

use crate::attest::{Attestor, LaunchPolicy};
use crate::audit::AuditReport;
use crate::error::{CoreError, FaultReason};
use crate::fleet::{FleetAuditor, ProviderNode};
use crate::ondemand::{AuditorBlobCache, ChainManifest};
use crate::session::{
    anchor_root, expect_attestation, expect_log_segment, expect_manifest, unexpected, AuditSession,
    Start,
};
use crate::snapshot::SnapshotStore;
use crate::spotcheck::{snapshot_positions_in, SpotCheckReport};

// ---------------------------------------------------------------------------
// Provider endpoint
// ---------------------------------------------------------------------------

/// The provider endpoint of the audit protocol: answers every
/// [`AuditRequest`] from the operator's tamper-evident log and snapshot
/// store.  The log is borrowed as its entries: the recorder's whole log
/// ([`AuditServer::new`]), or a prefix of it — a durable provider serves
/// the entries already on disk
/// ([`crate::persist::Provider::audit_server`]).
///
/// The server is *stateless* between requests (each request carries all its
/// addressing), which is what makes retransmitted requests on a lossy
/// transport harmless: a duplicate request yields a duplicate response, and
/// the client discards the copy it does not need.
///
/// ```
/// use avm_core::endpoint::AuditServer;
/// use avm_core::snapshot::{capture, SnapshotStore};
/// use avm_wire::audit::{AuditRequest, AuditResponse};
/// use avm_vm::bytecode::assemble;
/// use avm_vm::{GuestRegistry, Machine, VmImage};
///
/// let image = VmImage::bytecode("doc", 64 * 1024, assemble("halt", 0).unwrap(), 0, 0);
/// let registry = GuestRegistry::new();
/// let mut m = Machine::from_image(&image, &registry).unwrap();
/// let mut store = SnapshotStore::new();
/// store.push(capture(&mut m, 0, true));
///
/// let server = AuditServer::for_store(&store);
/// // A manifest fetch answers with the encoded chain manifest …
/// match server.handle(&AuditRequest::Manifest { snapshot_id: 0 }) {
///     AuditResponse::Manifest { manifest } => assert!(!manifest.is_empty()),
///     other => panic!("unexpected response {other:?}"),
/// }
/// // … and an unknown snapshot with an error the client maps back.
/// match server.handle(&AuditRequest::Manifest { snapshot_id: 9 }) {
///     AuditResponse::Error { message } => assert!(message.contains("not found")),
///     other => panic!("unexpected response {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AuditServer<'a> {
    log: Option<&'a [LogEntry]>,
    store: &'a SnapshotStore,
    attestor: Option<&'a Attestor>,
}

impl<'a> AuditServer<'a> {
    /// A provider endpoint serving both a log and a snapshot store — what a
    /// full AVMM operator exposes to auditors.
    pub fn new(log: &'a TamperEvidentLog, store: &'a SnapshotStore) -> AuditServer<'a> {
        AuditServer::with_log_source(log.entries(), store)
    }

    /// Like [`AuditServer::new`], but over a run of entries from seq 1 —
    /// in particular the prefix of a durable provider's log that is on
    /// disk, so audits are served from exactly the entries that survive a
    /// crash.
    pub fn with_log_source(log: &'a [LogEntry], store: &'a SnapshotStore) -> AuditServer<'a> {
        AuditServer {
            log: Some(log),
            store,
            attestor: None,
        }
    }

    /// A provider endpoint serving only snapshot state (manifest, blob and
    /// section fetches); log-segment requests are answered with an error.
    pub fn for_store(store: &'a SnapshotStore) -> AuditServer<'a> {
        AuditServer {
            log: None,
            store,
            attestor: None,
        }
    }

    /// Attaches an attestation responder: [`AuditRequest::Attest`]
    /// challenges are answered with signed quotes over its envelope.
    /// Without one, attestation challenges get an error response.
    pub fn with_attestor(mut self, attestor: &'a Attestor) -> AuditServer<'a> {
        self.attestor = Some(attestor);
        self
    }

    /// Answers one request with the *encoded* [`AuditResponse`] — the body a
    /// provider endpoint seals ([`avm_wire::audit::seal_encoded_message`]) —
    /// each byte written once from state the server only borrows: log
    /// entries are encoded in place from the borrowed entries, the section
    /// stream is serialised straight into the body, blobs are lent by the
    /// pool.  Failures are encoded as [`AuditResponse::Error`] with the
    /// message the in-process API would have raised, so clients surface
    /// identical errors over any link; a chunk request on a log whose SNAPSHOT records do not all decode is
    /// answered with the log prefix ([`AuditResponse::LogSegment`]).
    ///
    /// This is the one place a response is assembled; [`AuditServer::handle`]
    /// is its decoded view.
    pub fn respond(&self, request: &AuditRequest) -> Vec<u8> {
        match request {
            AuditRequest::Manifest { snapshot_id } => {
                match self.store.chain_manifest_upto(*snapshot_id) {
                    Ok(manifest) => AuditResponseRef::Manifest {
                        manifest: &manifest.encode_to_vec(),
                    }
                    .encode_to_vec(),
                    // The wrapper's message, not the Display form with its
                    // "snapshot error:" prefix: the client re-wraps on receipt.
                    Err(CoreError::Snapshot(message)) => error_response(&message),
                    Err(other) => error_response(&other.to_string()),
                }
            }
            AuditRequest::Blobs(request) => {
                AuditResponseRef::Blobs(self.store.lend_blobs(request)).encode_to_vec()
            }
            AuditRequest::LogSegment(addr) => self.respond_log_segment(*addr),
            AuditRequest::Sections { upto_id } => {
                if self.store.get(*upto_id).is_none() {
                    return error_response(&format!("snapshot {upto_id} not found"));
                }
                let len = self.store.transfer_bytes_upto(*upto_id) as usize;
                encode_sections_with(len, |body| {
                    self.store.append_transfer_stream_upto(*upto_id, body)
                })
            }
            AuditRequest::Attest(challenge) => match self.attestor {
                Some(attestor) => {
                    AuditResponse::Attestation(attestor.quote(challenge)).encode_to_vec()
                }
                None => error_response("provider serves no attestation"),
            },
        }
    }

    /// [`AuditServer::respond`], decoded into an owned [`AuditResponse`] —
    /// for callers that inspect a response instead of sending it.
    pub fn handle(&self, request: &AuditRequest) -> AuditResponse {
        AuditResponseRef::decode_exact(&self.respond(request))
            .expect("respond writes a well-formed response")
            .to_owned()
    }

    fn respond_log_segment(&self, addr: SegmentAddress) -> Vec<u8> {
        let Some(log) = self.log else {
            return error_response("provider serves no log");
        };
        match addr {
            SegmentAddress::Seq { from_seq, to_seq } => {
                let to = if to_seq == 0 {
                    log.len() as u64
                } else {
                    to_seq
                };
                match log.segment_slice(from_seq, to) {
                    Some((prev, entries)) => {
                        encode_log_segment(&prev.0, from_seq, wire_entries(entries))
                    }
                    None => error_response(&format!("log segment {from_seq}..{to} out of range")),
                }
            }
            SegmentAddress::Chunk {
                start_snapshot,
                chunk,
            } => self.respond_log_chunk(log, start_snapshot, chunk),
        }
    }

    /// Resolves a §3.5 chunk: the entries from the SNAPSHOT entry for
    /// `start_snapshot` to the SNAPSHOT entry `chunk` snapshots later (both
    /// inclusive), or the end of the log, anchored at the hash of the entry
    /// before the first (`ZERO` at seq 1).
    ///
    /// When the provider's own SNAPSHOT records do not all decode, an honest
    /// provider cannot resolve chunk boundaries; it returns the log *prefix*
    /// up to and including the first undecodable record.  The auditor's
    /// syntactic phase reaches the malformed-log verdict on what it
    /// received — paying for exactly the entries it had to download to
    /// discover the corruption.
    fn respond_log_chunk(&self, log: &[LogEntry], start_snapshot: u64, chunk: u64) -> Vec<u8> {
        let positions = match snapshot_positions_in(log) {
            Ok(positions) => positions,
            Err(FaultReason::MalformedLog { seq }) => {
                let upto = log
                    .iter()
                    .position(|e| e.seq == seq)
                    .map_or(log.len(), |i| i + 1);
                // The prefix starts at the first entry, whose chain anchor
                // is the genesis hash.
                let prefix = &log[..upto];
                return encode_log_segment(&Digest::ZERO.0, 1, wire_entries(prefix));
            }
            // snapshot_positions only produces MalformedLog; be defensive.
            Err(other) => return error_response(&other.to_string()),
        };
        let Some(start_pos) = positions
            .iter()
            .find(|(_, id, _)| *id == start_snapshot)
            .map(|(i, _, _)| *i)
        else {
            return error_response(&format!("snapshot {start_snapshot} not in log"));
        };
        // checked_add: a hostile request with chunk near u64::MAX must get
        // an open-ended chunk (no snapshot can match), not a panic.
        let end_id = start_snapshot.checked_add(chunk);
        let end_idx = positions
            .iter()
            .find(|(_, id, _)| Some(*id) == end_id)
            .map(|(i, _, _)| *i);
        // The chunk starts at its start SNAPSHOT entry, so the root the
        // auditor authenticates the start state against is one the log
        // commits to; the anchor is the hash of the entry before it.
        let entries: &[LogEntry] = match end_idx {
            Some(end) => &log[start_pos..=end],
            None => &log[start_pos..],
        };
        let prev_hash = match start_pos.checked_sub(1) {
            Some(before) => log[before].hash,
            None => Digest::ZERO,
        };
        encode_log_segment(&prev_hash.0, entries[0].seq, wire_entries(entries))
    }
}

fn error_response(message: &str) -> Vec<u8> {
    AuditResponseRef::Error { message }.encode_to_vec()
}

// ---------------------------------------------------------------------------
// The wire
// ---------------------------------------------------------------------------

/// Wire-level accounting of the exchanges an auditor performed: what an
/// audit's exchanges measurably cost on its link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportStats {
    /// Completed request/response exchanges.
    pub round_trips: u64,
    /// Framed request bytes handed to the wire, retransmissions included.
    pub request_bytes: u64,
    /// Framed response bytes accepted from the wire.
    pub response_bytes: u64,
    /// Requests retransmitted after a timeout (always 0 on a lossless
    /// link).
    pub retransmissions: u64,
    /// Wall time the exchanges took, in simulated network microseconds.
    pub elapsed_micros: u64,
}

impl TransportStats {
    /// The stats accumulated since `earlier` (a snapshot of the same
    /// auditor's stats taken before some exchanges).
    pub fn since(&self, earlier: &TransportStats) -> TransportStats {
        TransportStats {
            round_trips: self.round_trips - earlier.round_trips,
            request_bytes: self.request_bytes - earlier.request_bytes,
            response_bytes: self.response_bytes - earlier.response_bytes,
            retransmissions: self.retransmissions - earlier.retransmissions,
            elapsed_micros: self.elapsed_micros - earlier.elapsed_micros,
        }
    }

    /// Total framed bytes in both directions.
    pub fn wire_bytes(&self) -> u64 {
        self.request_bytes + self.response_bytes
    }
}

/// Node id every provider endpoint binds: [`SimNetTransport`]'s and a
/// fleet's ([`crate::fleet::run_fleet`]).
pub const PROVIDER_NODE: NodeId = NodeId(1);
/// Node id an [`AuditClient`] binds, and auditor 0 of a fleet; auditor `i`
/// binds the `i`-th id after it.
pub const AUDITOR_NODE: NodeId = NodeId(2);

/// Default cap on send attempts per exchange before the auditor gives up.
const DEFAULT_MAX_ATTEMPTS: u32 = 16;

/// Event-loop safety bound of one run on a simulated network.
pub(crate) const MAX_EVENT_LOOP_STEPS: u64 = 10_000_000;

/// The retransmit-if-silent timeout an auditor derives from its link: eight
/// one-way latencies plus the serialisation time of 1 MiB.
pub(crate) fn link_timeout_us(link: &LinkConfig) -> u64 {
    8 * link.latency_us + link.serialise_micros(1 << 20)
}

/// One auditor's end of the wire: who its exchanges run between, under which
/// session id, how patiently they wait, and what they have cost so far.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AuditorWire {
    pub auditor: NodeId,
    pub provider: NodeId,
    pub session_id: u64,
    /// Simulated µs an exchange waits on a silent wire before resending.
    pub timeout_us: u64,
    /// Send attempts per exchange before giving up.
    pub max_attempts: u32,
    pub stats: TransportStats,
    next_request_id: u64,
}

impl AuditorWire {
    /// A wire with the default attempt cap and nothing sent yet.
    pub(crate) fn new(
        auditor: NodeId,
        provider: NodeId,
        session_id: u64,
        timeout_us: u64,
    ) -> AuditorWire {
        AuditorWire {
            auditor,
            provider,
            session_id,
            timeout_us,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            stats: TransportStats::default(),
            next_request_id: 1,
        }
    }

    /// Seals `request` under the next request id of this session and sends
    /// it.  Bytes are accounted per attempt *before* the send, dropped
    /// packets included.
    pub(crate) fn send(&mut self, net: &mut SimNet, request: &AuditRequest) -> PendingExchange {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let packet = seal_session_message(self.session_id, request_id, request);
        self.stats.request_bytes += packet.len() as u64;
        let started_at = net.now();
        let _ = net.send(self.auditor, self.provider, packet.clone());
        PendingExchange {
            request_id,
            packet,
            started_at,
            deadline: started_at + self.timeout_us,
            attempts: 1,
        }
    }
}

/// One in-flight request/response exchange ([`AuditorWire::send`]) and the
/// whole retransmission policy: per-attempt byte accounting, the retransmit
/// timer, the attempt cap.  Every auditor endpoint — the session's
/// [`crate::fleet::FleetAuditor`] and a client's standalone download —
/// keeps one of these per outstanding request.
///
/// Responses are matched by the (session, request) ids the envelope carries,
/// so a late or duplicated response (after a retransmission) is discarded
/// instead of being mistaken for the answer to a newer request.
#[derive(Debug)]
pub(crate) struct PendingExchange {
    request_id: u64,
    packet: Vec<u8>,
    /// When the first send happened: elapsed time is measured from here,
    /// across retransmissions.
    started_at: u64,
    /// Retransmit-if-silent deadline.
    deadline: u64,
    attempts: u32,
}

impl PendingExchange {
    /// The answer `packet` carries for this exchange — the response,
    /// borrowed from it, or its body's decode error: a checksummed body is
    /// what the provider sent, and asking again would fetch it again — or
    /// `None` for anything else (corrupt framing, another session, a stale
    /// duplicate: the timer owns recovery).  The envelope is peeked first,
    /// so a stale multi-megabyte section stream is dropped before its body
    /// is parsed.  An answer completes the round trip in `wire.stats`.
    pub(crate) fn accept<'r>(
        &self,
        wire: &mut AuditorWire,
        now: u64,
        packet: &'r [u8],
    ) -> Option<Result<AuditResponseRef<'r>, CoreError>> {
        let (session_id, request_id, body) = open_session_frame(packet).ok()?;
        if session_id != wire.session_id || request_id != self.request_id {
            return None;
        }
        wire.stats.round_trips += 1;
        wire.stats.response_bytes += packet.len() as u64;
        wire.stats.elapsed_micros += now - self.started_at;
        Some(AuditResponseRef::decode_exact(body).map_err(undecodable))
    }

    /// Runs the retransmit timer at `net.now()` and returns when the
    /// auditor next wants waking ([`avm_net::Endpoint::on_tick`]), or the
    /// error that ends the exchange once every attempt went unanswered.
    /// The timer only fires on a *silent* wire: while any packet is still
    /// in flight (a large response serialising past the nominal timeout, a
    /// stale duplicate draining) the link is visibly active and
    /// retransmitting into it would only duplicate traffic — the packets in
    /// flight wake the auditor instead, so the deadline stretches to the
    /// wire going quiet, and a lossless link never retransmits regardless
    /// of payload size.
    pub(crate) fn on_timer(
        &mut self,
        net: &mut SimNet,
        wire: &mut AuditorWire,
    ) -> Result<Option<u64>, CoreError> {
        let now = net.now();
        if now < self.deadline {
            return Ok(Some(self.deadline));
        }
        if net.in_flight_count() > 0 {
            return Ok(None);
        }
        if self.attempts >= wire.max_attempts {
            wire.stats.elapsed_micros += now - self.started_at;
            return Err(CoreError::Snapshot(format!(
                "audit transport: no response after {} attempts ({} µs timeout each)",
                wire.max_attempts, wire.timeout_us
            )));
        }
        wire.stats.retransmissions += 1;
        wire.stats.request_bytes += self.packet.len() as u64;
        let _ = net.send(wire.auditor, wire.provider, self.packet.clone());
        self.attempts += 1;
        self.deadline = now + wire.timeout_us;
        Ok(Some(self.deadline))
    }
}

/// The error an exchange ends with when its response arrives intact but its
/// body does not decode.
fn undecodable(error: avm_wire::WireError) -> CoreError {
    CoreError::Snapshot(format!("audit transport: undecodable response: {error}"))
}

/// The error of an auditor whose run ended before its answer: the event
/// loop's step bound was reached.
pub(crate) fn unfinished(session_id: u64) -> CoreError {
    CoreError::Snapshot(format!("audit session {session_id} did not finish"))
}

/// An auditor's own simulated link to one provider endpoint, and its end of
/// the wire: the network with its clock and traffic counters, the provider,
/// and the session's request ids and accounting, all kept across the
/// client's audits and downloads.  Each of them is one
/// [`avm_net::run_event_loop`] run on this network, to quiescence.
///
/// Both directions use the link given; loss is deterministic, and the
/// retransmission timeout is derived from the link (eight one-way latencies
/// plus the serialisation time of 1 MiB).  It bounds how long the auditor
/// waits on a *silent* wire before resending; a response still in flight
/// past the deadline is waited out instead of being retransmitted into,
/// which keeps the measured latency of a lossless exchange equal to what
/// the link's model prices per packet.
pub struct SimNetTransport<'a> {
    net: SimNet,
    provider: Box<dyn Endpoint + 'a>,
    wire: AuditorWire,
}

impl<'a> SimNetTransport<'a> {
    /// A link to a [`crate::fleet::ProviderNode`] answering from `server`.
    pub fn new(server: AuditServer<'a>, link: LinkConfig) -> SimNetTransport<'a> {
        SimNetTransport::with_provider(ProviderNode::new(PROVIDER_NODE, server), link)
    }

    /// A link to any endpoint that speaks the audit protocol on the node it
    /// binds — a provider that tampers with what it sends, or one that
    /// answers from recorded bodies.
    pub fn with_provider(provider: impl Endpoint + 'a, link: LinkConfig) -> SimNetTransport<'a> {
        let wire = AuditorWire::new(
            AUDITOR_NODE,
            provider.node(),
            CLIENT_SESSION,
            link_timeout_us(&link),
        );
        SimNetTransport {
            net: SimNet::new(link),
            provider: Box::new(provider),
            wire,
        }
    }

    /// Runs `auditor` — an endpoint on this link's auditor node — against
    /// the provider until the network is quiet.
    fn run(&mut self, auditor: &mut dyn Endpoint) {
        run_event_loop(
            &mut self.net,
            &mut [&mut *self.provider, auditor],
            MAX_EVENT_LOOP_STEPS,
        );
    }
}

/// One standalone download as an auditor endpoint: the exchange in flight,
/// and the parser its answer is handed to.
struct Download<F, R> {
    wire: AuditorWire,
    pending: Option<(PendingExchange, F)>,
    answer: Option<Result<R, CoreError>>,
}

impl<F, R> Endpoint for Download<F, R>
where
    F: FnOnce(AuditResponseRef<'_>) -> Result<R, CoreError>,
{
    fn node(&self) -> NodeId {
        self.wire.auditor
    }

    fn on_delivery(&mut self, net: &mut SimNet, delivery: Delivery) {
        let Some((pending, _)) = &self.pending else {
            return;
        };
        let Some(answer) = pending.accept(&mut self.wire, net.now(), &delivery.payload) else {
            return;
        };
        if let Some((_, parse)) = self.pending.take() {
            self.answer = Some(answer.and_then(parse));
        }
    }

    fn on_tick(&mut self, net: &mut SimNet) -> Option<u64> {
        let (pending, _) = self.pending.as_mut()?;
        match pending.on_timer(net, &mut self.wire) {
            Ok(wake) => wake,
            Err(error) => {
                self.pending = None;
                self.answer = Some(Err(error));
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Auditor endpoint
// ---------------------------------------------------------------------------

/// The auditor endpoint: owns the persistent [`AuditorBlobCache`] and its
/// link to one provider, and runs every audit — spot checks in both §3.5
/// download modes, full log audits — and standalone downloads over it.
///
/// Every audit is one [`AuditSession`], run as a
/// [`crate::fleet::FleetAuditor`] against the provider on the link's event
/// loop ([`AuditClient::run`]; [`AuditClient::audit_log`],
/// [`AuditClient::spot_check`] and [`AuditClient::spot_check_on_demand`]
/// differ only in the session they build).  The free functions in
/// [`crate::spotcheck`] are thin wrappers that build a client on the
/// simulated WAN link ([`LinkConfig::WAN`]).  The transport is always a
/// [`SimNetTransport`]; the type parameter names it.
pub struct AuditClient<T> {
    transport: T,
    cache: AuditorBlobCache,
}

impl<'a> AuditClient<SimNetTransport<'a>> {
    /// A client with an empty blob cache.
    pub fn new(transport: SimNetTransport<'a>) -> AuditClient<SimNetTransport<'a>> {
        AuditClient::with_cache(transport, AuditorBlobCache::new())
    }

    /// A client resuming with a persistent cache from earlier audits.
    pub fn with_cache(
        transport: SimNetTransport<'a>,
        cache: AuditorBlobCache,
    ) -> AuditClient<SimNetTransport<'a>> {
        AuditClient { transport, cache }
    }

    /// Consumes the client, returning the cache for the next session.
    pub fn into_cache(self) -> AuditorBlobCache {
        self.cache
    }

    /// Accumulated wire-level accounting across every exchange this client
    /// performed.
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.wire.stats
    }

    /// One exchange on the link whose response `parse` (one of the
    /// [`crate::session`] `expect_*` parsers) turns into a value;
    /// provider-side errors surface as [`CoreError`].
    fn download<R>(
        &mut self,
        request: AuditRequest,
        parse: impl FnOnce(AuditResponseRef<'_>) -> Result<R, CoreError>,
    ) -> Result<R, CoreError> {
        let pending = self.transport.wire.send(&mut self.transport.net, &request);
        let mut download = Download {
            wire: self.transport.wire,
            pending: Some((pending, parse)),
            answer: None,
        };
        self.transport.run(&mut download);
        self.transport.wire = download.wire;
        download
            .answer
            .unwrap_or_else(|| Err(unfinished(download.wire.session_id)))
    }

    /// Downloads and decodes the chain manifest for `snapshot_id`.
    pub fn fetch_manifest(&mut self, snapshot_id: u64) -> Result<ChainManifest, CoreError> {
        self.download(AuditRequest::Manifest { snapshot_id }, expect_manifest)
            .map(|(manifest, _)| manifest)
    }

    /// The attestation handshake: sends `challenge`, receives the
    /// provider's quote, and classifies it under `policy` at verifier time
    /// `now_us` — run *before* spot checks so the same session covers
    /// launch and lifetime.
    ///
    /// Returns the verdict plus the decoded envelope when the quote was
    /// well-formed enough to decode (even on mismatch verdicts, so callers
    /// can inspect what the provider claimed).
    pub fn attest(
        &mut self,
        challenge: &AttestChallenge,
        policy: &LaunchPolicy,
        now_us: u64,
    ) -> Result<
        (
            avm_attest::AttestVerdict,
            Option<avm_attest::AttestationEnvelope>,
        ),
        CoreError,
    > {
        let quote = self.download(AuditRequest::Attest(*challenge), expect_attestation)?;
        Ok(policy.verify(&quote, challenge, now_us))
    }

    /// Downloads a log segment by sequence range (`to_seq == 0` = end of
    /// log), returning the chain anchor and the decoded entries, each with
    /// the hash the chain check computed for it (the segment ships hashes
    /// only at its checkpoints).  A segment whose chain does not check, or
    /// that does not start at `from_seq` (at `h_0 = 0` when that is 1), is
    /// a [`CoreError::Snapshot`].
    pub fn fetch_log_segment(
        &mut self,
        from_seq: u64,
        to_seq: u64,
    ) -> Result<(Digest, Vec<LogEntry>), CoreError> {
        let address = SegmentAddress::Seq { from_seq, to_seq };
        self.download(AuditRequest::LogSegment(address), |response| {
            expect_log_segment(response, Some(from_seq))
        })
        .map(|(prev, entries, _)| (prev, entries))
    }

    /// Downloads the §3.5 chunk of `chunk` segments starting at
    /// `start_snapshot` and returns the entries a replay from that snapshot
    /// runs: every entry after the chunk's anchor, its start SNAPSHOT entry,
    /// each with the hash the chain check computed for it.  A chunk whose
    /// chain does not check, or that does not start at that anchor — the
    /// malformed-log prefix an honest provider sends instead (see
    /// [`AuditServer::respond`]) among them — is a [`CoreError::Snapshot`]:
    /// only an audit session judges it.
    pub fn fetch_log_chunk(
        &mut self,
        start_snapshot: u64,
        chunk: u64,
    ) -> Result<Vec<LogEntry>, CoreError> {
        let address = SegmentAddress::Chunk {
            start_snapshot,
            chunk,
        };
        let (_, mut entries, _) = self.download(AuditRequest::LogSegment(address), |response| {
            expect_log_segment(response, None)
        })?;
        let anchor = entries.first().ok_or_else(|| {
            CoreError::Snapshot(format!("chunk from snapshot {start_snapshot} is empty"))
        })?;
        anchor_root(anchor, start_snapshot)?;
        entries.remove(0);
        Ok(entries)
    }

    /// Downloads the whole-section transfer stream up to `upto_id` — the
    /// paper's full snapshot dump, paid on the wire.  No audit session asks
    /// for it: a full-download spot check fetches the manifest and the blobs
    /// the image and its cache lack.  Only the `bench/` harness sends
    /// `Sections`, to time the request, and nothing in the workspace reads
    /// the stream it returns.
    pub fn fetch_sections(&mut self, upto_id: u64) -> Result<Vec<u8>, CoreError> {
        self.download(
            AuditRequest::Sections { upto_id },
            |response| match response {
                AuditResponseRef::Sections { stream } => Ok(stream.to_vec()),
                other => Err(unexpected("Sections", other)),
            },
        )
    }

    /// Full audit of the provider's log: an [`AuditSession`] started at
    /// [`Start::Image`] over the segment `[from_seq, to_seq]` (`0` = end of
    /// log), holding `authenticators`.  The syntactic and the semantic check
    /// ([`crate::audit::audit_log`]'s) run against `reference` *on the
    /// packet the response arrived in*: entries are decoded in place, every
    /// content byte is hashed and replayed from the packet buffer, and an
    /// owned copy of the segment exists only as the
    /// [`crate::audit::Evidence`] of a failed audit.
    #[allow(clippy::too_many_arguments)]
    pub fn audit_log(
        &mut self,
        machine_name: &str,
        from_seq: u64,
        to_seq: u64,
        authenticators: &[avm_log::Authenticator],
        machine_key: &avm_crypto::keys::VerifyingKey,
        reference: &VmImage,
        registry: &GuestRegistry,
    ) -> Result<AuditReport, CoreError> {
        let session = AuditSession::new(Start::Image { from_seq, to_seq }, reference, registry)
            .with_authenticators(machine_key, authenticators);
        let (outcome, session) = self.audit(session);
        outcome?;
        Ok(session
            .into_audit_report(machine_name)
            .expect("an image start that settled has judged its segment"))
    }

    /// Spot check with the snapshot state downloaded in full before replay:
    /// the manifest, then every blob neither the image nor the client's
    /// cache holds, in batches (see [`crate::session`]).
    pub fn spot_check(
        &mut self,
        start_snapshot: u64,
        k: u64,
        image: &VmImage,
        registry: &GuestRegistry,
    ) -> Result<SpotCheckReport, CoreError> {
        let start = Start::Snapshot {
            id: start_snapshot,
            k,
            on_demand: false,
        };
        self.run(AuditSession::new(start, image, registry))
    }

    /// Spot check in on-demand mode (§3.5 incremental state requests),
    /// using and populating the client's persistent cache.
    pub fn spot_check_on_demand(
        &mut self,
        start_snapshot: u64,
        k: u64,
        image: &VmImage,
        registry: &GuestRegistry,
    ) -> Result<SpotCheckReport, CoreError> {
        let start = Start::Snapshot {
            id: start_snapshot,
            k,
            on_demand: true,
        };
        self.run(AuditSession::new(start, image, registry))
    }

    /// Runs `session` to its report over this client's link, with the
    /// client's blob cache in place of the session's.
    pub fn run(&mut self, session: AuditSession<'_>) -> Result<SpotCheckReport, CoreError> {
        let session = session.with_cache(std::mem::take(&mut self.cache));
        let (outcome, session) = self.audit(session);
        // Blobs fetched before a failure stay verified; keep them.
        self.cache = session.into_cache();
        outcome
    }

    /// Runs `session` as a [`FleetAuditor`] on this client's end of the
    /// wire, against the provider: how it ended — a report's `transport`
    /// column is what this session's exchanges cost — and the session.
    fn audit<'s>(
        &mut self,
        session: AuditSession<'s>,
    ) -> (Result<SpotCheckReport, CoreError>, AuditSession<'s>) {
        let before = self.transport.wire.stats;
        let mut auditor = FleetAuditor::with_session(self.transport.wire, session);
        self.transport.run(&mut auditor);
        let (outcome, wire, session) = auditor.into_session();
        self.transport.wire = wire;
        let outcome = outcome.map(|mut report| {
            report.transport = wire.stats.since(&before);
            report
        });
        (outcome, session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spotcheck::{spot_check, spot_check_on_demand};
    use crate::testutil::{key, record_with_snapshots};
    use avm_log::EntryKind;
    use avm_vm::packet::encode_guest_packet;
    use avm_wire::audit::seal_encoded_message;
    use avm_wire::Decode;

    /// A spot check over a LAN link yields identical verdicts, faults and
    /// transfer/round-trip accounting to the free-function path (the same
    /// check over the simulated WAN), and a lossless spot check takes
    /// exactly two one-way latencies per exchange plus each framed packet's
    /// serialisation delay on its link.
    #[test]
    fn simnet_spot_check_matches_direct_on_lossless_lan() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();
        let link = LinkConfig::default();
        let server = AuditServer::new(bob.log(), bob.snapshots());

        // The free-function wrapper runs over LinkConfig::WAN.
        let mut free_cache = AuditorBlobCache::new();
        let baseline = spot_check_on_demand(
            bob.log(),
            bob.snapshots(),
            2,
            1,
            &image,
            &registry,
            &mut free_cache,
        )
        .unwrap();

        // The same check over the LAN link.
        let mut sim = AuditClient::new(SimNetTransport::new(server, link));
        let sim_report = sim.spot_check_on_demand(2, 1, &image, &registry).unwrap();

        // Identical semantics on both links.
        assert!(baseline.consistent);
        assert_eq!(baseline.semantic(), sim_report.semantic());
        let cost = sim_report.on_demand.as_ref().unwrap();
        assert_eq!(baseline.on_demand.as_ref(), Some(cost));

        // Identical wire accounting …
        let d = baseline.transport;
        let s = sim_report.transport;
        assert_eq!(s.retransmissions, 0);
        assert_eq!(d.round_trips, s.round_trips);
        assert_eq!(d.request_bytes, s.request_bytes);
        assert_eq!(d.response_bytes, s.response_bytes);
        // … which carried everything the report says was downloaded.
        assert!(
            s.response_bytes >= sim_report.snapshot_transfer_bytes + sim_report.log_transfer_bytes
        );

        // … and *exactly* the per-packet price on each link.  The check's
        // exchanges in order, each packet sealed as the wire carries it.
        let mut requests = vec![
            AuditRequest::LogSegment(SegmentAddress::Chunk {
                start_snapshot: 2,
                chunk: 1,
            }),
            AuditRequest::Manifest { snapshot_id: 2 },
        ];
        let mut digests = cost.fetched.iter().map(|d| d.0);
        for &n in &cost.fetched_per_exchange {
            let digests = digests.by_ref().take(n).collect();
            requests.push(AuditRequest::Blobs(avm_wire::BlobRequest { digests }));
        }
        let packets: Vec<(u64, u64)> = (1..)
            .zip(&requests)
            .map(|(id, request)| {
                let asked = seal_session_message(CLIENT_SESSION, id, request);
                let answer = seal_encoded_message(CLIENT_SESSION, id, &server.respond(request));
                (asked.len() as u64, answer.len() as u64)
            })
            .collect();
        assert_eq!(packets.len() as u64, s.round_trips);
        let sealed: u64 = packets.iter().map(|(asked, answer)| asked + answer).sum();
        assert_eq!(sealed, s.wire_bytes());
        let priced_per_packet = |link: LinkConfig| -> u64 {
            packets
                .iter()
                .map(|&(request, response)| {
                    2 * link.latency_us
                        + link.serialise_micros(request as usize)
                        + link.serialise_micros(response as usize)
                })
                .sum()
        };
        assert_eq!(s.elapsed_micros, priced_per_packet(link));
        assert_eq!(d.elapsed_micros, priced_per_packet(LinkConfig::WAN));
        assert!(s.elapsed_micros > 0);

        // The network's own byte counters agree with the client's.
        let net = &sim.transport.net;
        assert_eq!(net.stats(AUDITOR_NODE).tx_bytes, s.request_bytes);
        assert_eq!(net.stats(AUDITOR_NODE).rx_bytes, s.response_bytes);
        assert_eq!(net.stats(PROVIDER_NODE).rx_bytes, s.request_bytes);
        assert_eq!(net.stats(AUDITOR_NODE).dropped, 0);
    }

    /// Full-download mode over the network: same equality, and what crosses
    /// the wire is what the image lacks — the manifest and one batch of the
    /// blobs the image does not hold — not the whole-section dump.
    #[test]
    fn simnet_full_download_spot_check_matches_and_pays_what_the_image_lacks() {
        let (bob, image) = record_with_snapshots(3);
        let registry = GuestRegistry::new();
        let baseline = spot_check(bob.log(), bob.snapshots(), 1, 1, &image, &registry).unwrap();
        let mut sim = AuditClient::new(SimNetTransport::new(
            AuditServer::new(bob.log(), bob.snapshots()),
            LinkConfig::default(),
        ));
        let sim_report = sim.spot_check(1, 1, &image, &registry).unwrap();
        assert_eq!(baseline.semantic(), sim_report.semantic());
        // Log chunk, manifest, one prefetch batch: three exchanges, carrying
        // at least what the report says was downloaded.
        let cost = sim_report.on_demand.as_ref().unwrap();
        assert!(!cost.fetched.is_empty());
        assert_eq!(cost.fetched_per_exchange, [cost.fetched.len()]);
        assert_eq!(sim_report.transport.round_trips, 3);
        assert!(
            sim_report.transport.response_bytes
                >= sim_report.snapshot_transfer_bytes + sim_report.log_transfer_bytes
        );
        // The manifest plus the blob response, far below the full dump.
        let manifest = bob.snapshots().chain_manifest_upto(1).unwrap();
        assert_eq!(cost.manifest_bytes, manifest.encoded_len() as u64);
        assert_eq!(sim_report.snapshot_transfer_bytes, cost.transfer_bytes);
        assert!(sim_report.snapshot_transfer_bytes < bob.snapshots().transfer_bytes_upto(1) / 2);
    }

    /// Deterministic loss: the exchange retransmits on timeout and still
    /// reaches the identical verdict and accounting, paying extra wire
    /// bytes and wall time for every retry.
    #[test]
    fn lossy_link_retries_and_preserves_semantics() {
        let (bob, image) = record_with_snapshots(3);
        let registry = GuestRegistry::new();
        let mut free_cache = AuditorBlobCache::new();
        let baseline = spot_check_on_demand(
            bob.log(),
            bob.snapshots(),
            1,
            1,
            &image,
            &registry,
            &mut free_cache,
        )
        .unwrap();

        let clean_link = LinkConfig::default();
        let lossy_link = LinkConfig {
            drop_every: 3,
            ..clean_link
        };
        let mut clean = AuditClient::new(SimNetTransport::new(
            AuditServer::new(bob.log(), bob.snapshots()),
            clean_link,
        ));
        let clean_report = clean.spot_check_on_demand(1, 1, &image, &registry).unwrap();
        let mut lossy = AuditClient::new(SimNetTransport::new(
            AuditServer::new(bob.log(), bob.snapshots()),
            lossy_link,
        ));
        let lossy_report = lossy.spot_check_on_demand(1, 1, &image, &registry).unwrap();

        assert_eq!(baseline.semantic(), lossy_report.semantic());
        assert_eq!(clean_report.semantic(), lossy_report.semantic());
        let lt = lossy_report.transport;
        assert!(
            lt.retransmissions > 0,
            "a drop-every-3 link must force retransmissions"
        );
        assert!(lt.request_bytes > clean_report.transport.request_bytes);
        assert!(
            lt.elapsed_micros > clean_report.transport.elapsed_micros,
            "every retransmission waits out a timeout"
        );
        let net = &lossy.transport.net;
        assert!(net.stats(AUDITOR_NODE).dropped + net.stats(PROVIDER_NODE).dropped > 0);
    }

    /// A checksummed answer that does not decode ends the exchange on its
    /// first copy (every auditor endpoint hands `accept`'s error straight
    /// back): one round trip, nothing sent again.  A packet for another
    /// request is no answer.
    #[test]
    fn an_undecodable_answer_ends_the_exchange_on_its_first_copy() {
        let mut net = SimNet::new(LinkConfig::default());
        let mut wire = AuditorWire::new(AUDITOR_NODE, PROVIDER_NODE, CLIENT_SESSION, 1_000);
        let pending = wire.send(&mut net, &AuditRequest::Manifest { snapshot_id: 0 });
        let [stale, packet] = [2, 1].map(|id| seal_encoded_message(CLIENT_SESSION, id, &[0xff]));
        assert!(pending.accept(&mut wire, 0, &stale).is_none());
        let Some(Err(error)) = pending.accept(&mut wire, 0, &packet) else {
            panic!("an undecodable answer is an error");
        };
        assert!(
            error.to_string().contains("undecodable response: "),
            "{error}"
        );
        assert_eq!((wire.stats.round_trips, wire.stats.retransmissions), (1, 0));
    }

    /// A link that drops everything: the transport gives up after its
    /// attempt cap instead of spinning forever.
    #[test]
    fn fully_lossy_link_times_out() {
        let (bob, image) = record_with_snapshots(2);
        let registry = GuestRegistry::new();
        let black_hole = LinkConfig {
            drop_every: 1,
            ..LinkConfig::default()
        };
        let mut transport =
            SimNetTransport::new(AuditServer::new(bob.log(), bob.snapshots()), black_hole);
        (transport.wire.max_attempts, transport.wire.timeout_us) = (3, 1_000);
        let mut client = AuditClient::new(transport);
        let err = client.spot_check(0, 1, &image, &registry).unwrap_err();
        assert!(
            err.to_string().contains("no response after 3 attempts"),
            "{err}"
        );
        assert_eq!(client.transport_stats().round_trips, 0);
        assert_eq!(client.transport_stats().retransmissions, 2);
        // Simulated time advanced by the timeouts the auditor waited out.
        assert!(client.transport_stats().elapsed_micros >= 3_000);
    }

    /// A response whose serialisation outlives the nominal timeout is
    /// waited out, not retransmitted into: the retransmission timer only
    /// fires on a silent wire, so lossless links never retransmit no
    /// matter how large the payload or how small the timeout.
    #[test]
    fn in_flight_response_is_never_timed_out() {
        let (bob, image) = record_with_snapshots(2);
        let registry = GuestRegistry::new();
        // A slow link (10 µs per byte) and a timeout far below the largest
        // response's multi-millisecond serialisation time.
        let slow_link = LinkConfig {
            latency_us: 50,
            drop_every: 0,
            bytes_per_sec: 100_000,
        };
        let serialise_us = |bytes: u64| bytes * 1_000_000 / slow_link.bytes_per_sec;
        let server = AuditServer::new(bob.log(), bob.snapshots());
        let mut transport = SimNetTransport::new(server, slow_link);
        transport.wire.timeout_us = 200;
        let mut client = AuditClient::new(transport);
        let report = client.spot_check(0, 1, &image, &registry).unwrap();
        assert!(report.consistent);
        assert_eq!(report.transport.retransmissions, 0);
        // The largest response alone serialises for far longer than the
        // 200 µs timeout — the wait was genuinely exercised.
        let fetched: Vec<_> = report
            .on_demand
            .as_ref()
            .unwrap()
            .fetched
            .iter()
            .map(|d| d.0)
            .collect();
        let mut requests = vec![
            AuditRequest::LogSegment(SegmentAddress::Chunk {
                start_snapshot: 0,
                chunk: 1,
            }),
            AuditRequest::Manifest { snapshot_id: 0 },
        ];
        requests.extend(
            avm_wire::BlobRequest::batches(&fetched, avm_wire::DEFAULT_BLOB_BATCH)
                .into_iter()
                .map(AuditRequest::Blobs),
        );
        let largest = requests
            .iter()
            .map(|request| server.respond(request).len() as u64)
            .max()
            .unwrap();
        assert!(serialise_us(largest) > 10_000);
        assert!(report.transport.elapsed_micros > serialise_us(report.transport.response_bytes));
    }

    /// A corrupt SNAPSHOT record reaches the same malformed-log verdict and
    /// truthful log accounting over the network: the provider returns its
    /// log prefix, the auditor's syntactic phase refuses it, and
    /// `fetch_log_chunk` refuses to hand it out as a chunk.
    #[test]
    fn malformed_log_verdict_is_identical_over_the_network() {
        let (bob, image) = record_with_snapshots(3);
        let registry = GuestRegistry::new();
        let mut rebuilt = avm_log::TamperEvidentLog::new();
        let mut snapshot_entries_seen = 0;
        for e in bob.log().entries() {
            let content = if e.kind == EntryKind::Snapshot {
                snapshot_entries_seen += 1;
                if snapshot_entries_seen == 2 {
                    vec![0xff, 0x01]
                } else {
                    e.content.clone()
                }
            } else {
                e.content.clone()
            };
            rebuilt.append(e.kind, content);
        }
        let baseline = spot_check(&rebuilt, bob.snapshots(), 0, 1, &image, &registry).unwrap();
        assert!(matches!(
            baseline.fault,
            Some(FaultReason::MalformedLog { .. })
        ));
        let mut sim = AuditClient::new(SimNetTransport::new(
            AuditServer::new(&rebuilt, bob.snapshots()),
            LinkConfig::default(),
        ));
        let sim_report = sim.spot_check(0, 1, &image, &registry).unwrap();
        assert_eq!(baseline.semantic(), sim_report.semantic());
        // Only the log-prefix exchange happened before the early verdict.
        assert_eq!(sim_report.transport.round_trips, 1);
        // The prefix does not start at snapshot 2's anchor, so it is no
        // chunk to replay from there.
        let err = sim.fetch_log_chunk(2, 1).unwrap_err();
        assert!(
            matches!(&err, CoreError::Snapshot(message)
                if message.contains("does not start at the SNAPSHOT entry for snapshot 2")),
            "{err}"
        );
    }

    /// Provider-side errors cross the wire with the message the in-process
    /// API raises.
    #[test]
    fn unknown_snapshot_error_is_identical_over_the_network() {
        let (bob, image) = record_with_snapshots(2);
        let registry = GuestRegistry::new();
        let direct_err = spot_check(bob.log(), bob.snapshots(), 9, 1, &image, &registry)
            .unwrap_err()
            .to_string();
        let mut sim = AuditClient::new(SimNetTransport::new(
            AuditServer::new(bob.log(), bob.snapshots()),
            LinkConfig::default(),
        ));
        let sim_err = sim
            .spot_check(9, 1, &image, &registry)
            .unwrap_err()
            .to_string();
        assert_eq!(direct_err, sim_err);
        assert!(sim_err.contains("snapshot 9 not in log"), "{sim_err}");
    }

    /// A full audit (syntactic + semantic) driven over the wire: the honest
    /// log passes, a tampered one fails, from the same fetched segment.
    #[test]
    fn full_audit_over_the_wire() {
        let (bob, image) = record_with_snapshots(2);
        let registry = GuestRegistry::new();
        let bob_pub = key(1).verifying_key();
        let mut client = AuditClient::new(SimNetTransport::new(
            AuditServer::new(bob.log(), bob.snapshots()),
            LinkConfig::default(),
        ));
        let report = client
            .audit_log("bob", 1, 0, &[], &bob_pub, &image, &registry)
            .unwrap();
        assert!(report.passed(), "{:?}", report.fault());
        assert_eq!(report.entries_examined, bob.log().len() as u64);

        // A tampered log served by the same protocol fails the audit.
        let mut rebuilt = avm_log::TamperEvidentLog::new();
        for e in bob.log().entries() {
            let content = if e.kind == EntryKind::Send {
                let mut rec = crate::events::SendRecord::decode_exact(&e.content).unwrap();
                rec.payload = encode_guest_packet("alice", b"fabricated!");
                rec.encode_to_vec()
            } else {
                e.content.clone()
            };
            rebuilt.append(e.kind, content);
        }
        let mut client = AuditClient::new(SimNetTransport::new(
            AuditServer::new(&rebuilt, bob.snapshots()),
            LinkConfig::default(),
        ));
        let report = client
            .audit_log("bob", 1, 0, &[], &bob_pub, &image, &registry)
            .unwrap();
        assert!(!report.passed());
    }

    /// A request frame whose complete length prefix no packet could hold
    /// (`u64::MAX - 2`: the header arithmetic used to overflow) is dropped
    /// by the provider, and the session goes on unharmed.
    #[test]
    fn session_survives_a_hostile_request_length_prefix() {
        let mut hostile = vec![avm_wire::FRAME_MAGIC];
        avm_wire::varint::write_varint(&mut hostile, u64::MAX - 2);
        hostile.extend_from_slice(&[0; 16]);
        let (bob, image) = record_with_snapshots(3);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());

        let mut clean = AuditClient::new(SimNetTransport::new(server, LinkConfig::default()));
        let expected = clean.spot_check(1, 1, &image, &registry).unwrap();
        let mut transport = SimNetTransport::new(server, LinkConfig::default());
        transport.net.send(AUDITOR_NODE, PROVIDER_NODE, hostile);
        let mut client = AuditClient::new(transport);
        let report = client.spot_check(1, 1, &image, &registry).unwrap();
        assert!(report.consistent);
        assert_eq!(report.semantic(), expected.semantic());
        let provider_rx = client.transport.net.stats(PROVIDER_NODE).rx_packets;
        assert_eq!(provider_rx, report.transport.round_trips + 1);
    }

    /// A store-only provider serves snapshot state and answers log requests
    /// with a clean error.
    #[test]
    fn store_only_server_serves_state_and_rejects_log_requests() {
        let (bob, _) = record_with_snapshots(3);
        let mut client = AuditClient::new(SimNetTransport::new(
            AuditServer::for_store(bob.snapshots()),
            LinkConfig::default(),
        ));
        let stream = client.fetch_sections(2).unwrap();
        assert_eq!(stream, bob.snapshots().transfer_stream_upto(2));
        let err = client.fetch_log_chunk(0, 1).unwrap_err();
        assert!(err.to_string().contains("provider serves no log"), "{err}");
    }

    /// The warm-cache property survives the transport: a second networked
    /// check against the same client fetches nothing.
    #[test]
    fn warm_cache_over_the_network_refetches_nothing() {
        let (bob, image) = record_with_snapshots(3);
        let registry = GuestRegistry::new();
        let mut client = AuditClient::new(SimNetTransport::new(
            AuditServer::new(bob.log(), bob.snapshots()),
            LinkConfig::default(),
        ));
        let first = client
            .spot_check_on_demand(1, 1, &image, &registry)
            .unwrap();
        assert!(!first.on_demand.as_ref().unwrap().fetched.is_empty());
        let second = client
            .spot_check_on_demand(1, 1, &image, &registry)
            .unwrap();
        assert!(second.on_demand.as_ref().unwrap().fetched.is_empty());
        assert!(second.transport.response_bytes < first.transport.response_bytes);
    }

    /// Attest-then-audit over one simulated-network session: the launch
    /// measurement verifies first, then an ordinary spot check continues
    /// over the same client, and the attestation exchange pays wire bytes
    /// like everything else.  A provider without an attestor answers with a
    /// clean error.
    #[test]
    fn attest_then_audit_over_one_simnet_session() {
        let (bob, image) = record_with_snapshots(3);
        let registry = GuestRegistry::new();
        let attestor = Attestor::for_avmm(&bob, &image).unwrap();
        let policy = LaunchPolicy::new(
            &image,
            "bob",
            avm_crypto::keys::SignatureScheme::Rsa(512),
            key(1).verifying_key(),
        );
        let mut client = AuditClient::new(SimNetTransport::new(
            AuditServer::new(bob.log(), bob.snapshots()).with_attestor(&attestor),
            LinkConfig::default(),
        ));

        let challenge = AttestChallenge {
            nonce: crate::attest::challenge_nonce(1, 1_000),
            issued_at_us: 1_000,
        };
        let (verdict, envelope) = client.attest(&challenge, &policy, 2_000).unwrap();
        assert!(verdict.is_verified(), "verdict {verdict}");
        assert!(envelope.is_some());
        let attest_trips = client.transport_stats().round_trips;
        assert_eq!(attest_trips, 1);

        // Launch verified — the same session continues into spot checks.
        let report = client
            .spot_check_on_demand(1, 1, &image, &registry)
            .unwrap();
        assert!(report.consistent);
        assert!(client.transport_stats().round_trips > attest_trips);

        // No attestor attached → a clean provider-side error.
        let mut bare = AuditClient::new(SimNetTransport::new(
            AuditServer::new(bob.log(), bob.snapshots()),
            LinkConfig::default(),
        ));
        let err = bare.attest(&challenge, &policy, 2_000).unwrap_err();
        assert!(
            err.to_string().contains("provider serves no attestation"),
            "{err}"
        );
    }
}
