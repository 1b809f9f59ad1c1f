//! Fleet-scale auditing: one provider node, N concurrent audit sessions.
//!
//! The paper's deployment model (§2, §6) has *many mutually distrusting
//! auditors* — every customer of a machine audits it independently.  The
//! audit plane is therefore built from long-lived endpoints on a shared
//! [`SimNet`], driven by [`avm_net::run_event_loop`]:
//!
//! * [`ProviderNode`] — the operator's audit server as a *sessionful*
//!   network endpoint.  Each auditor speaks inside its own session (the
//!   session id travels in every framed packet, giving each auditor a
//!   private request-id space), requests queue per session, and every tick
//!   serves everything queued, one request per session in turn, in the
//!   order the sessions opened.  Sessions live for the whole run.  Every
//!   response is the encoded body [`AuditServer::respond`] writes, sealed
//!   under the asking session's envelope; the bodies of the cacheable,
//!   auditor-independent requests (manifest, sections, §3.5 log chunks) are
//!   kept in a shared response cache — N auditors checking the same epoch
//!   pay the serialisation a single time, and a cached and an uncached
//!   answer are the same bytes.
//! * [`FleetAuditor`] — the one driver of [`crate::session::AuditSession`]:
//!   the session envelope and the pending-exchange timer around it, as an
//!   endpoint, so hundreds of sessions interleave on one network.  An
//!   [`crate::endpoint::AuditClient`] runs each of its audits as one of
//!   these against a `ProviderNode` on its own network.  Simulated time is
//!   what [`SimNet`] measures — latency, serialisation, retransmission —
//!   and nothing else: replay is a zero-time event on that clock, and what
//!   it costs in wall-clock is measured by `bench/`.
//! * [`run_fleet`] — builds one provider and N auditors over one link
//!   config, drives them with [`avm_net::run_event_loop`], and returns
//!   every report plus per-session completion latencies, the provider's
//!   cache and session statistics, and per-node traffic counters.
//!
//! Semantics never move: the verdict, the transfer columns and the wire
//! accounting of every session equal a lone client's.  Only *when* each
//! packet is served differs — and on a fleet of one, not even that.

use std::collections::{HashMap, VecDeque};

use avm_attest::AttestVerdict;
use avm_crypto::keys::VerifyingKey;
use avm_log::{Authenticator, LogSource};
use avm_net::{
    run_event_loop, Delivery, Endpoint, EventLoopReport, LinkConfig, NodeId, NodeStats, SimNet,
};
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::audit::{
    open_session_message, seal_encoded_message, AuditRequest, SegmentAddress, CLIENT_SESSION,
};

use crate::attest::{Attestor, LaunchPolicy};
use crate::endpoint::{
    link_timeout_us, unfinished, AuditServer, AuditorWire, PendingExchange, AUDITOR_NODE,
    MAX_EVENT_LOOP_STEPS, PROVIDER_NODE,
};
use crate::error::CoreError;
use crate::ondemand::AuditorBlobCache;
use crate::session::{AuditSession, Start, Step};
use crate::snapshot::SnapshotStore;
use crate::spotcheck::SpotCheckReport;

// ---------------------------------------------------------------------------
// Provider node
// ---------------------------------------------------------------------------

/// Shared-response-cache accounting (see [`ProviderStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered from an already-encoded response.
    pub hits: u64,
    /// Requests that had to be served and encoded (the encoding is then
    /// cached).
    pub misses: u64,
    /// Distinct responses currently cached.
    pub entries: u64,
    /// Total encoded bytes held by the cache.
    pub bytes: u64,
}

/// What one [`ProviderNode`] did over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProviderStats {
    /// Sessions opened (first packet seen with a new (peer, session) pair).
    pub sessions_created: u64,
    /// Requests answered (including re-answers to retransmitted requests).
    pub requests_served: u64,
    /// Shared response cache accounting.
    pub cache: CacheStats,
}

/// Key of one cacheable response: these requests are auditor-independent,
/// so their encoded responses are shared across every session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ResponseKey {
    Manifest(u64),
    Sections(u64),
    LogChunk { start_snapshot: u64, chunk: u64 },
}

impl ResponseKey {
    fn of(request: &AuditRequest) -> Option<ResponseKey> {
        match request {
            AuditRequest::Manifest { snapshot_id } => Some(ResponseKey::Manifest(*snapshot_id)),
            AuditRequest::Sections { upto_id } => Some(ResponseKey::Sections(*upto_id)),
            AuditRequest::LogSegment(SegmentAddress::Chunk {
                start_snapshot,
                chunk,
            }) => Some(ResponseKey::LogChunk {
                start_snapshot: *start_snapshot,
                chunk: *chunk,
            }),
            // Blob requests are auditor-specific (each asks for exactly what
            // its replay faulted and its cache lacks); Seq segments are the
            // full-log audit path, not the hot fleet path.
            _ => None,
        }
    }
}

/// The operator's audit server as a long-lived, sessionful endpoint on a
/// shared [`SimNet`] (see the module docs).
pub struct ProviderNode<'a> {
    node: NodeId,
    server: AuditServer<'a>,
    /// Each session's requests delivered but not yet served, in arrival
    /// order.
    sessions: HashMap<(NodeId, u64), VecDeque<(u64, AuditRequest)>>,
    /// Session keys in creation order — the rotation order.  (Never iterate
    /// the map: hash order would break determinism.)
    order: Vec<(NodeId, u64)>,
    /// Rotation position: the session after the last one served.
    cursor: usize,
    cache: HashMap<ResponseKey, Vec<u8>>,
    cache_hits: u64,
    cache_misses: u64,
    cache_bytes: u64,
    requests_served: u64,
}

impl<'a> ProviderNode<'a> {
    /// A provider endpoint receiving on `node`, answering from `server`.
    pub fn new(node: NodeId, server: AuditServer<'a>) -> ProviderNode<'a> {
        ProviderNode {
            node,
            server,
            sessions: HashMap::new(),
            order: Vec::new(),
            cursor: 0,
            cache: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
            cache_bytes: 0,
            requests_served: 0,
        }
    }

    /// Run accounting so far.
    pub fn stats(&self) -> ProviderStats {
        ProviderStats {
            sessions_created: self.order.len() as u64,
            requests_served: self.requests_served,
            cache: CacheStats {
                hits: self.cache_hits,
                misses: self.cache_misses,
                entries: self.cache.len() as u64,
                bytes: self.cache_bytes,
            },
        }
    }

    /// The framed response for `(session, request_id, request)`, served from
    /// the shared cache when the request is auditor-independent.
    fn sealed_response(
        &mut self,
        session_id: u64,
        request_id: u64,
        request: &AuditRequest,
    ) -> Vec<u8> {
        match ResponseKey::of(request) {
            Some(key) => {
                if self.cache.contains_key(&key) {
                    self.cache_hits += 1;
                } else {
                    self.cache_misses += 1;
                    let encoded = self.server.respond(request);
                    self.cache_bytes += encoded.len() as u64;
                    self.cache.insert(key, encoded);
                }
                seal_encoded_message(session_id, request_id, &self.cache[&key])
            }
            None => seal_encoded_message(session_id, request_id, &self.server.respond(request)),
        }
    }
}

impl Endpoint for ProviderNode<'_> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn on_delivery(&mut self, _net: &mut SimNet, delivery: Delivery) {
        // Undecodable packets are dropped: the auditor's timeout owns
        // recovery.
        let Ok((session_id, request_id, request)) =
            open_session_message::<AuditRequest>(&delivery.payload)
        else {
            return;
        };
        let key = (delivery.from, session_id);
        let pending = self.sessions.entry(key).or_insert_with(|| {
            self.order.push(key);
            VecDeque::new()
        });
        pending.push_back((request_id, request));
    }

    /// Serves every queued request: one per session in turn, in session
    /// creation order from where the last tick stopped, until every queue
    /// is empty.  Nothing is left for a later tick.
    fn on_tick(&mut self, net: &mut SimNet) -> Option<u64> {
        let mut idle_streak = 0;
        while idle_streak < self.order.len() {
            let key = self.order[self.cursor];
            self.cursor = (self.cursor + 1) % self.order.len();
            match self.sessions.get_mut(&key).and_then(VecDeque::pop_front) {
                Some((request_id, request)) => {
                    let packet = self.sealed_response(key.1, request_id, &request);
                    let _ = net.send(self.node, key.0, packet);
                    self.requests_served += 1;
                    idle_streak = 0;
                }
                None => idle_streak += 1,
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Fleet auditor
// ---------------------------------------------------------------------------

/// What one [`FleetAuditor`] is asked to check, and when to start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditTask {
    /// Snapshot the §3.5 chunk starts at.
    pub start_snapshot: u64,
    /// Chunk size `k` (snapshots per chunk).
    pub chunk: u64,
    /// On-demand (§3.5 incremental) vs full-download state transfer.
    pub on_demand: bool,
    /// Simulated µs at which this auditor opens its session.
    pub start_at_us: u64,
}

impl AuditTask {
    /// Where the task's session starts: the chunk after its snapshot.
    pub(crate) fn start(&self) -> Start {
        Start::Snapshot {
            id: self.start_snapshot,
            k: self.chunk,
            on_demand: self.on_demand,
        }
    }
}

/// An audit as an endpoint: one [`AuditSession`] driven from
/// [`Endpoint::on_delivery`] / [`Endpoint::on_tick`], so N copies interleave
/// on one shared network, and a client runs one per audit (see the module
/// docs).
pub struct FleetAuditor<'a> {
    wire: AuditorWire,
    /// Simulated µs at which the session opens.
    start_at_us: u64,
    started: bool,
    session: AuditSession<'a>,
    pending: Option<PendingExchange>,
    outcome: Option<Result<SpotCheckReport, CoreError>>,
    finished_at_us: Option<u64>,
}

impl<'a> FleetAuditor<'a> {
    /// An auditor on `node` auditing `provider` inside session `session_id`.
    ///
    /// `timeout_us` is the retransmit-if-silent deadline, normally derived
    /// from the link the way [`crate::endpoint::SimNetTransport::new`]
    /// derives it.
    pub fn new(
        node: NodeId,
        provider: NodeId,
        session_id: u64,
        image: &'a VmImage,
        registry: &'a GuestRegistry,
        task: AuditTask,
        timeout_us: u64,
    ) -> FleetAuditor<'a> {
        FleetAuditor {
            start_at_us: task.start_at_us,
            ..FleetAuditor::with_session(
                AuditorWire::new(node, provider, session_id, timeout_us),
                AuditSession::new(task.start(), image, registry),
            )
        }
    }

    /// An auditor running `session` over `wire`, opening it at once: what
    /// a client runs for each of its audits, on its own end of the wire.
    pub(crate) fn with_session(wire: AuditorWire, session: AuditSession<'a>) -> FleetAuditor<'a> {
        FleetAuditor {
            wire,
            start_at_us: 0,
            started: false,
            session,
            pending: None,
            outcome: None,
            finished_at_us: None,
        }
    }

    /// Resumes with a persistent blob cache from earlier audits.
    pub fn with_cache(mut self, cache: AuditorBlobCache) -> FleetAuditor<'a> {
        self.session = self.session.with_cache(cache);
        self
    }

    /// Judges the chunk against `authenticators` the audited machine signed
    /// under `machine_key` ([`AuditSession::with_authenticators`]).
    pub fn with_authenticators(
        mut self,
        machine_key: &'a VerifyingKey,
        authenticators: &'a [Authenticator],
    ) -> FleetAuditor<'a> {
        self.session = self
            .session
            .with_authenticators(machine_key, authenticators);
        self
    }

    /// Opens the session with an attestation challenge under `policy`
    /// before any spot-check exchange: the chunk request goes out only
    /// after the provider's launch measurement verifies; any other verdict
    /// ends the session with that verdict on record.  The challenge nonce
    /// is derived from the session id and issue time
    /// ([`crate::attest::challenge_nonce`]), so every session challenges
    /// with a distinct nonce and runs stay reproducible.
    pub fn with_attestation(mut self, policy: &'a LaunchPolicy) -> FleetAuditor<'a> {
        self.session = self.session.with_attestation(policy, self.wire.session_id);
        self
    }

    /// The launch verdict of this session's attestation exchange (`None`
    /// until it settles, and always `None` without
    /// [`FleetAuditor::with_attestation`]).
    pub fn attest_verdict(&self) -> Option<AttestVerdict> {
        self.session.attest_verdict()
    }

    /// True once the session has a verdict (or failed).
    pub fn finished(&self) -> bool {
        self.outcome.is_some()
    }

    /// Session completion latency: µs of simulated time from the scheduled
    /// start to the verdict.  `None` until finished.
    pub fn latency_us(&self) -> Option<u64> {
        self.finished_at_us
            .map(|at| at.saturating_sub(self.start_at_us))
    }

    /// Consumes the auditor: the report (or the error that ended the
    /// session; an unfinished session is an error) and the blob cache, for
    /// persistence across restarts.
    pub fn into_parts(self) -> (Result<SpotCheckReport, CoreError>, AuditorBlobCache) {
        let (outcome, _, session) = self.into_session();
        (outcome, session.into_cache())
    }

    /// Consumes the auditor: how its session ended, its end of the wire and
    /// the session itself.
    pub(crate) fn into_session(
        self,
    ) -> (
        Result<SpotCheckReport, CoreError>,
        AuditorWire,
        AuditSession<'a>,
    ) {
        let outcome = self
            .outcome
            .unwrap_or_else(|| Err(unfinished(self.wire.session_id)));
        (outcome, self.wire, self.session)
    }

    fn complete(&mut self, now: u64, outcome: Result<SpotCheckReport, CoreError>) {
        self.pending = None;
        self.outcome = Some(outcome);
        self.finished_at_us = Some(now);
    }

    /// Carries out a step the session issued.
    fn advance(&mut self, net: &mut SimNet, step: Step) {
        match step {
            Step::Send(request) => self.pending = Some(self.wire.send(net, &request)),
            Step::Done(outcome) => {
                let outcome = outcome.map(|mut report| {
                    report.transport = self.wire.stats;
                    report
                });
                self.complete(net.now(), outcome);
            }
        }
    }
}

impl Endpoint for FleetAuditor<'_> {
    fn node(&self) -> NodeId {
        self.wire.auditor
    }

    fn on_delivery(&mut self, net: &mut SimNet, delivery: Delivery) {
        let Some(pending) = &self.pending else {
            return;
        };
        let now = net.now();
        let Some(answer) = pending.accept(&mut self.wire, now, &delivery.payload) else {
            return;
        };
        self.pending = None;
        match answer {
            Ok(response) => {
                let step = self.session.on_response(now, response);
                self.advance(net, step);
            }
            Err(error) => self.complete(now, Err(error)),
        }
    }

    fn on_tick(&mut self, net: &mut SimNet) -> Option<u64> {
        if self.finished() {
            return None;
        }
        let now = net.now();
        if !self.started {
            if now < self.start_at_us {
                return Some(self.start_at_us);
            }
            self.started = true;
            let step = self.session.start(now);
            self.advance(net, step);
        }
        match self.pending.as_mut()?.on_timer(net, &mut self.wire) {
            Ok(wake) => wake,
            Err(error) => {
                self.complete(now, Err(error));
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet runner
// ---------------------------------------------------------------------------

/// Shape of one fleet run: the link and the auditors' workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Link config used for every auditor↔provider pair.
    pub link: LinkConfig,
    /// Number of concurrent auditors (N).
    pub auditors: usize,
    /// Gap between consecutive auditors' session starts, in simulated µs
    /// (`0` = everyone starts at once).
    pub inter_arrival_us: u64,
    /// Spot-check chunk start (every auditor checks the same epoch — the
    /// shared-cache case; vary per auditor by driving the endpoints
    /// directly).
    pub start_snapshot: u64,
    /// Spot-check chunk size `k`.
    pub chunk: u64,
    /// §3.5 on-demand mode (vs full state download).
    pub on_demand: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            link: LinkConfig::default(),
            auditors: 1,
            inter_arrival_us: 0,
            start_snapshot: 0,
            chunk: 1,
            on_demand: true,
        }
    }
}

/// Everything a fleet run produced.
pub struct FleetOutcome {
    /// One report (or terminal error) per auditor, in auditor order.
    pub reports: Vec<Result<SpotCheckReport, CoreError>>,
    /// Per-auditor launch verdicts, in auditor order — `None` everywhere on
    /// a plain [`run_fleet`]; populated by [`run_attested_fleet`] (still
    /// `None` for a session that never received a quote).
    pub attest_verdicts: Vec<Option<AttestVerdict>>,
    /// Session completion latency (scheduled start → verdict) per
    /// *successful* session, in auditor order.
    pub latencies_us: Vec<u64>,
    /// The provider's session and cache accounting: one element, the one
    /// provider node.
    pub providers: Vec<ProviderStats>,
    /// Per-node traffic counters from the shared network.
    pub node_stats: Vec<(NodeId, NodeStats)>,
    /// How the event loop ended.
    pub event_loop: EventLoopReport,
}

/// Runs N concurrent spot-check sessions against one provider node on one
/// simulated network (see the module docs).
///
/// The provider binds [`PROVIDER_NODE`], auditor `i` binds the `i`-th node
/// after [`AUDITOR_NODE`] and opens session `CLIENT_SESSION + i` — so a
/// fleet of one is an [`crate::endpoint::AuditClient`]'s run.
pub fn run_fleet(
    log: &dyn LogSource,
    store: &SnapshotStore,
    image: &VmImage,
    registry: &GuestRegistry,
    config: &FleetConfig,
) -> FleetOutcome {
    run_fleet_inner(log, store, image, registry, config, None)
}

/// [`run_fleet`] with attest-then-audit sessions: the provider node
/// answers challenges from `attestor`, and every auditor opens its session
/// with an attestation challenge under `policy`, proceeding into its spot
/// check only on a verified launch.  Per-session verdicts land in
/// [`FleetOutcome::attest_verdicts`]; a rejected launch ends that session
/// with an error report and no audit traffic beyond the challenge.
pub fn run_attested_fleet(
    log: &dyn LogSource,
    store: &SnapshotStore,
    image: &VmImage,
    registry: &GuestRegistry,
    config: &FleetConfig,
    attestor: &Attestor,
    policy: &LaunchPolicy,
) -> FleetOutcome {
    run_fleet_inner(
        log,
        store,
        image,
        registry,
        config,
        Some((attestor, policy)),
    )
}

fn run_fleet_inner(
    log: &dyn LogSource,
    store: &SnapshotStore,
    image: &VmImage,
    registry: &GuestRegistry,
    config: &FleetConfig,
    attest: Option<(&Attestor, &LaunchPolicy)>,
) -> FleetOutcome {
    let timeout_us = link_timeout_us(&config.link);
    let mut net = SimNet::new(config.link);
    let mut server = AuditServer::with_log_source(log.entries(), store);
    if let Some((attestor, _)) = attest {
        server = server.with_attestor(attestor);
    }
    let mut provider = ProviderNode::new(PROVIDER_NODE, server);
    let mut auditors: Vec<FleetAuditor> = (0..config.auditors)
        .map(|i| {
            let mut auditor = FleetAuditor::new(
                NodeId(AUDITOR_NODE.0 + i as u32),
                PROVIDER_NODE,
                CLIENT_SESSION + i as u64,
                image,
                registry,
                AuditTask {
                    start_snapshot: config.start_snapshot,
                    chunk: config.chunk,
                    on_demand: config.on_demand,
                    start_at_us: i as u64 * config.inter_arrival_us,
                },
                timeout_us,
            );
            if let Some((_, policy)) = attest {
                auditor = auditor.with_attestation(policy);
            }
            auditor
        })
        .collect();
    let mut endpoints: Vec<&mut dyn Endpoint> = Vec::with_capacity(1 + auditors.len());
    endpoints.push(&mut provider);
    for auditor in auditors.iter_mut() {
        endpoints.push(auditor);
    }
    let event_loop = run_event_loop(&mut net, &mut endpoints, MAX_EVENT_LOOP_STEPS);
    drop(endpoints);
    let node_stats = net.all_stats();
    let mut reports = Vec::with_capacity(auditors.len());
    let mut attest_verdicts = Vec::with_capacity(auditors.len());
    let mut latencies_us = Vec::new();
    for auditor in auditors {
        let latency = auditor.latency_us();
        attest_verdicts.push(auditor.attest_verdict());
        let (outcome, _cache) = auditor.into_parts();
        // Only sessions that reached a verdict: a rejected launch or a
        // timed-out exchange ends early and would drag the percentiles down.
        if let (Ok(_), Some(latency)) = (&outcome, latency) {
            latencies_us.push(latency);
        }
        reports.push(outcome);
    }
    FleetOutcome {
        reports,
        attest_verdicts,
        latencies_us,
        providers: vec![provider.stats()],
        node_stats,
        event_loop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{AuditClient, SimNetTransport};
    use crate::testutil::record_with_snapshots;
    use avm_wire::audit::{open_session_frame, seal_session_message};

    /// N auditors checking the same epoch: every verdict matches the serial
    /// baseline, the provider opened one session per auditor, and the shared
    /// response cache served all but the first encoding of each response.
    #[test]
    fn concurrent_sessions_share_the_response_cache() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();

        let mut client = AuditClient::new(SimNetTransport::new(
            AuditServer::new(bob.log(), bob.snapshots()),
            LinkConfig::default(),
        ));
        let baseline = client
            .spot_check_on_demand(2, 1, &image, &registry)
            .unwrap();

        let n = 8;
        let config = FleetConfig {
            auditors: n,
            start_snapshot: 2,
            chunk: 1,
            inter_arrival_us: 500,
            ..FleetConfig::default()
        };
        let outcome = run_fleet(bob.log(), bob.snapshots(), &image, &registry, &config);
        assert!(outcome.event_loop.quiescent);
        assert_eq!(outcome.reports.len(), n);
        for report in &outcome.reports {
            let report = report.as_ref().unwrap();
            assert!(report.consistent);
            assert_eq!(baseline.semantic(), report.semantic());
        }
        assert_eq!(outcome.latencies_us.len(), n);

        let provider = &outcome.providers[0];
        assert_eq!(provider.sessions_created, n as u64);
        // Each auditor sends the same chunk + manifest requests; the first
        // pays the encoding, the rest hit the cache.  (Blob requests are
        // per-auditor and bypass it.)
        assert_eq!(provider.cache.entries, 2);
        assert_eq!(provider.cache.misses, 2);
        assert_eq!(provider.cache.hits, 2 * (n as u64 - 1));
    }

    /// One tick serves every queued request, one per session in turn, in
    /// session creation order (not peer order): three sessions' manifest
    /// requests, then the first session's second request.  Nothing is left
    /// for a later tick.
    #[test]
    fn one_tick_serves_every_queued_session_in_creation_order() {
        let (bob, _image) = record_with_snapshots(3);
        let mut provider =
            ProviderNode::new(PROVIDER_NODE, AuditServer::new(bob.log(), bob.snapshots()));
        let mut net = SimNet::new(LinkConfig::default());
        let manifest = AuditRequest::Manifest { snapshot_id: 1 };
        let whole_log = AuditRequest::LogSegment(SegmentAddress::Seq {
            from_seq: 1,
            to_seq: 0,
        });
        let queued = [
            (12, 9, 1, &manifest),
            (10, 7, 1, &manifest),
            (11, 8, 1, &manifest),
            (12, 9, 2, &whole_log),
        ];
        for (peer, session, request_id, request) in queued {
            provider.on_delivery(
                &mut net,
                Delivery {
                    from: NodeId(peer),
                    to: PROVIDER_NODE,
                    payload: seal_session_message(session, request_id, request),
                    deliver_at: 0,
                    sent_at: 0,
                },
            );
        }
        assert_eq!(provider.stats().sessions_created, 3);

        assert_eq!(provider.on_tick(&mut net), None);
        assert_eq!(provider.stats().requests_served, 4);
        let sent: Vec<(u32, u64, u64)> = net
            .advance_to(u64::MAX)
            .iter()
            .map(|d| {
                let (session, request_id, _) = open_session_frame(&d.payload).unwrap();
                (d.to.0, session, request_id)
            })
            .collect();
        assert_eq!(sent, [(12, 9, 1), (10, 7, 1), (11, 8, 1), (12, 9, 2)]);
        // One manifest encoding, two cache hits; the whole-log segment is
        // not cached.
        assert_eq!(provider.stats().cache.misses, 1);
        assert_eq!(provider.stats().cache.hits, 2);
    }

    /// Attest-then-audit sessions: every auditor's launch verdict is
    /// Verified, the spot-check verdicts equal the unattested fleet's, and
    /// the attestation exchange bypasses the shared response cache (each
    /// quote answers a distinct nonce).  Against a provider claiming a
    /// different image, every session stops at a distinct ImageMismatch
    /// verdict with an error report and no audit traffic beyond the
    /// challenge.
    #[test]
    fn attested_fleet_verifies_launch_then_audits() {
        let (bob, image) = record_with_snapshots(3);
        let registry = GuestRegistry::new();
        let attestor = crate::attest::Attestor::for_avmm(&bob, &image).unwrap();
        let policy = LaunchPolicy::new(
            &image,
            "bob",
            avm_crypto::keys::SignatureScheme::Rsa(512),
            crate::testutil::key(1).verifying_key(),
        );
        let n = 4;
        let config = FleetConfig {
            auditors: n,
            start_snapshot: 1,
            chunk: 1,
            inter_arrival_us: 500,
            ..FleetConfig::default()
        };

        let plain = run_fleet(bob.log(), bob.snapshots(), &image, &registry, &config);
        assert!(plain.attest_verdicts.iter().all(Option::is_none));

        let attested = run_attested_fleet(
            bob.log(),
            bob.snapshots(),
            &image,
            &registry,
            &config,
            &attestor,
            &policy,
        );
        assert!(attested.event_loop.quiescent);
        assert_eq!(attested.reports.len(), n);
        for (i, report) in attested.reports.iter().enumerate() {
            assert_eq!(attested.attest_verdicts[i], Some(AttestVerdict::Verified));
            assert_eq!(
                report.as_ref().unwrap().semantic(),
                plain.reports[i].as_ref().unwrap().semantic()
            );
        }
        // Quotes are nonce-specific, so they never populate the shared
        // cache: same entries/misses as the unattested run.
        assert_eq!(attested.providers[0].cache, plain.providers[0].cache);
        // One latency sample per session that reached a verdict.
        assert_eq!(attested.latencies_us.len(), n);

        // A provider attesting a different image: every session records the
        // ImageMismatch verdict and ends in an error before any audit.
        let wrong = crate::testutil::worker_image().with_disk(vec![1u8; 8192]);
        let wrong_policy = LaunchPolicy::new(
            &wrong,
            "bob",
            avm_crypto::keys::SignatureScheme::Rsa(512),
            crate::testutil::key(1).verifying_key(),
        );
        let rejected = run_attested_fleet(
            bob.log(),
            bob.snapshots(),
            &image,
            &registry,
            &config,
            &attestor,
            &wrong_policy,
        );
        assert!(rejected.event_loop.quiescent);
        for (i, report) in rejected.reports.iter().enumerate() {
            assert_eq!(
                rejected.attest_verdicts[i],
                Some(AttestVerdict::ImageMismatch)
            );
            let err = report.as_ref().unwrap_err().to_string();
            assert!(err.contains("image mismatch"), "{err}");
        }
        // One challenge per session, nothing more — and a session turned
        // away at the door contributes no audit latency sample.
        assert_eq!(rejected.providers[0].requests_served, n as u64);
        assert!(rejected.latencies_us.is_empty());
    }
}
