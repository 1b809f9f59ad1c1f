//! Fleet-scale auditing: one provider node, N concurrent audit sessions.
//!
//! The paper's deployment model (§2, §6) has *many mutually distrusting
//! auditors* — every customer of a machine audits it independently.  The
//! single-client [`crate::endpoint::SimNetTransport`] cannot express that:
//! it borrows the whole simulated network for one blocking exchange at a
//! time.  This module restructures the audit plane around long-lived
//! endpoints on a shared [`SimNet`]:
//!
//! * [`ProviderNode`] — the operator's audit server as a *sessionful*
//!   network endpoint.  Each auditor speaks inside its own session (the
//!   session id travels in every framed packet, giving each auditor a
//!   private request-id space), requests queue per session, and a
//!   round-robin scheduler with a configurable per-tick service budget
//!   drains them fairly.  Every response is the encoded body
//!   [`AuditServer::respond`] writes, sealed under the asking session's
//!   envelope; the bodies of the cacheable, auditor-independent requests
//!   (manifest, sections, §3.5 log chunks) are kept in a shared response
//!   cache — N auditors checking the same epoch pay the serialisation a
//!   single time, and a cached and an uncached answer are the same bytes.
//!   Idle sessions can be expired after a configurable quiet period.
//! * [`FleetAuditor`] — the event-loop driver of
//!   [`crate::session::AuditSession`], so hundreds of sessions interleave
//!   on one network.  The spot-check procedure is the session's — the same
//!   one [`crate::endpoint::AuditClient`] drives with a blocking loop — and
//!   the retransmission policy is the shared
//!   [`crate::endpoint::SimNetTransport`] one; this endpoint adds only the
//!   session envelope and the pending-exchange timer.  A single-session
//!   fleet run is field-identical to the blocking path (pinned by unit and
//!   property tests).  Simulated time is what [`SimNet`] measures — latency,
//!   serialisation, retransmission — and nothing else: replay is a
//!   zero-time event on that clock, and what it costs in wall-clock is
//!   measured by `bench/`.
//! * [`run_fleet`] — builds M providers and N auditors over one link
//!   config, drives them with [`avm_net::run_event_loop`], and returns
//!   every report plus per-session completion latencies, provider cache
//!   and scheduler statistics, and per-node traffic counters.
//!
//! Semantics never move: the verdict, the transfer columns and the wire
//! accounting of every session equal the single-client transport's.  Only
//! *when* each packet is served differs — and on a fleet of one, not even
//! that.

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
    link_timeout_us, AuditServer, AuditorWire, PendingExchange, Timer, TransportStats,
};
use crate::error::CoreError;
use crate::ondemand::AuditorBlobCache;
use crate::session::{AuditSession, Start, Step};
use crate::snapshot::SnapshotStore;
use crate::spotcheck::SpotCheckReport;

// ---------------------------------------------------------------------------
// Provider node
// ---------------------------------------------------------------------------

/// Scheduling and session-lifetime knobs for a [`ProviderNode`].
///
/// The defaults serve every queued request the moment it is due and never
/// expire sessions — which is exactly what keeps a fleet of one on the
/// single-client transport's timing.  Budgeted service and idle expiry are
/// opt-in fleet behaviours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProviderConfig {
    /// Requests served per scheduler pass; the rest stay queued until the
    /// next tick.  `usize::MAX` (default) = drain everything due now.
    pub service_budget: usize,
    /// When a pass leaves a backlog, re-tick after this many simulated µs.
    /// `0` (default) = continue at the same instant (budget still bounds
    /// each pass, so auditors between passes see interleaved service).
    pub tick_interval_us: u64,
    /// Expire a session this many µs after its last request, reclaiming its
    /// state.  `None` (default) = sessions live for the whole run.
    pub idle_expiry_us: Option<u64>,
}

impl Default for ProviderConfig {
    fn default() -> ProviderConfig {
        ProviderConfig {
            service_budget: usize::MAX,
            tick_interval_us: 0,
            idle_expiry_us: None,
        }
    }
}

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
    /// Sessions reclaimed by idle expiry.
    pub sessions_expired: u64,
    /// Sessions still live when the stats were read.
    pub active_sessions: u64,
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

/// One auditor's server-side session state.
#[derive(Debug)]
struct SessionState {
    /// Requests delivered but not yet served, in arrival order.
    pending: VecDeque<(u64, AuditRequest)>,
    /// Simulated time of the last packet from this session.
    last_active_us: u64,
}

/// The operator's audit server as a long-lived, sessionful endpoint on a
/// shared [`SimNet`] (see the module docs).
pub struct ProviderNode<'a> {
    node: NodeId,
    server: AuditServer<'a>,
    config: ProviderConfig,
    sessions: HashMap<(NodeId, u64), SessionState>,
    /// Session keys in creation order — the scheduler's rotation order.
    /// (Never iterate the map: hash order would break determinism.)
    order: Vec<(NodeId, u64)>,
    /// Rotation position; persists across passes so budgeted service is
    /// fair over time, not just within a pass.
    cursor: usize,
    cache: HashMap<ResponseKey, Vec<u8>>,
    cache_hits: u64,
    cache_misses: u64,
    cache_bytes: u64,
    sessions_created: u64,
    sessions_expired: u64,
    requests_served: u64,
}

impl<'a> ProviderNode<'a> {
    /// A provider endpoint receiving on `node`, answering from `server`.
    pub fn new(node: NodeId, server: AuditServer<'a>, config: ProviderConfig) -> ProviderNode<'a> {
        ProviderNode {
            node,
            server,
            config,
            sessions: HashMap::new(),
            order: Vec::new(),
            cursor: 0,
            cache: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
            cache_bytes: 0,
            sessions_created: 0,
            sessions_expired: 0,
            requests_served: 0,
        }
    }

    /// Run accounting so far.
    pub fn stats(&self) -> ProviderStats {
        ProviderStats {
            sessions_created: self.sessions_created,
            sessions_expired: self.sessions_expired,
            active_sessions: self.sessions.len() as u64,
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

    /// One scheduler pass: serve up to `service_budget` queued requests,
    /// visiting sessions round-robin from where the last pass stopped.
    /// Returns true when a backlog remains.
    fn serve_pass(&mut self, net: &mut SimNet) -> bool {
        let mut budget = self.config.service_budget;
        let mut idle_streak = 0;
        while budget > 0 && !self.order.is_empty() && idle_streak < self.order.len() {
            let index = self.cursor % self.order.len();
            self.cursor = (index + 1) % self.order.len();
            let key = self.order[index];
            let next = self
                .sessions
                .get_mut(&key)
                .and_then(|s| s.pending.pop_front());
            match next {
                Some((request_id, request)) => {
                    let packet = self.sealed_response(key.1, request_id, &request);
                    let _ = net.send(self.node, key.0, packet);
                    self.requests_served += 1;
                    budget -= 1;
                    idle_streak = 0;
                }
                None => idle_streak += 1,
            }
        }
        self.sessions.values().any(|s| !s.pending.is_empty())
    }

    /// Reclaims sessions whose queues are empty and whose last packet is at
    /// least `idle_expiry_us` old.
    fn expire_idle(&mut self, now: u64) {
        let Some(expiry) = self.config.idle_expiry_us else {
            return;
        };
        let sessions = &self.sessions;
        let expired: Vec<(NodeId, u64)> = self
            .order
            .iter()
            .copied()
            .filter(|key| {
                sessions.get(key).is_some_and(|s| {
                    s.pending.is_empty() && now.saturating_sub(s.last_active_us) >= expiry
                })
            })
            .collect();
        if expired.is_empty() {
            return;
        }
        for key in &expired {
            self.sessions.remove(key);
            self.sessions_expired += 1;
        }
        self.order.retain(|key| !expired.contains(key));
        self.cursor = if self.order.is_empty() {
            0
        } else {
            self.cursor % self.order.len()
        };
    }
}

impl Endpoint for ProviderNode<'_> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn on_delivery(&mut self, net: &mut SimNet, delivery: Delivery) {
        // Undecodable packets are dropped, like the stateless transport's
        // provider loop: the auditor's timeout owns recovery.
        let Ok((session_id, request_id, request)) =
            open_session_message::<AuditRequest>(&delivery.payload)
        else {
            return;
        };
        let key = (delivery.from, session_id);
        if let std::collections::hash_map::Entry::Vacant(slot) = self.sessions.entry(key) {
            slot.insert(SessionState {
                pending: VecDeque::new(),
                last_active_us: 0,
            });
            self.order.push(key);
            self.sessions_created += 1;
        }
        let session = self.sessions.get_mut(&key).expect("session just ensured");
        session.last_active_us = net.now();
        session.pending.push_back((request_id, request));
    }

    fn on_tick(&mut self, net: &mut SimNet) -> Option<u64> {
        let now = net.now();
        self.expire_idle(now);
        if self.serve_pass(net) {
            return Some(now.saturating_add(self.config.tick_interval_us));
        }
        // No backlog: wake only if sessions are waiting to be expired.
        let expiry = self.config.idle_expiry_us?;
        self.order
            .iter()
            .filter_map(|key| self.sessions.get(key))
            .map(|s| s.last_active_us.saturating_add(expiry))
            .min()
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

/// A §3.5 spot check as a non-blocking endpoint: one
/// [`AuditSession`] driven from [`Endpoint::on_delivery`] /
/// [`Endpoint::on_tick`], so N copies interleave on one shared network (see
/// the module docs).
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

#[cfg(test)]
impl<'a> FleetAuditor<'a> {
    /// This auditor running `session` instead of its task's: a start no
    /// [`AuditTask`] names, such as a whole log.
    pub(crate) fn with_session(mut self, session: AuditSession<'a>) -> FleetAuditor<'a> {
        self.session = session;
        self
    }
}

impl<'a> FleetAuditor<'a> {
    /// An auditor on `node` auditing `provider` inside session `session_id`.
    ///
    /// `timeout_us` is the retransmit-if-silent deadline, normally derived
    /// from the link exactly like [`crate::endpoint::SimNetTransport::new`]
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
            wire: AuditorWire::new(node, provider, session_id, timeout_us),
            start_at_us: task.start_at_us,
            started: false,
            session: AuditSession::new(task.start(), image, registry),
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

    /// Wire accounting so far (the report's `transport` field once done).
    pub fn transport_stats(&self) -> TransportStats {
        self.wire.stats
    }

    /// Consumes the auditor: the report (or the error that ended the
    /// session; an unfinished session is an error) and the blob cache, for
    /// persistence across restarts.
    pub fn into_parts(self) -> (Result<SpotCheckReport, CoreError>, AuditorBlobCache) {
        let outcome = self.outcome.unwrap_or_else(|| {
            Err(CoreError::Snapshot(format!(
                "audit session {} did not finish",
                self.wire.session_id
            )))
        });
        (outcome, self.session.into_cache())
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
            Timer::Wait(at) | Timer::Resent(at) => Some(at),
            // Whatever is in flight will wake the loop; the next tick
            // re-evaluates.
            Timer::WireBusy => None,
            Timer::GaveUp(error) => {
                self.complete(now, Err(error));
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet runner
// ---------------------------------------------------------------------------

/// Shape of one fleet run: topology, workload and scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Link config used for every auditor↔provider pair.
    pub link: LinkConfig,
    /// Number of concurrent auditors (N).
    pub auditors: usize,
    /// Number of provider nodes (M); auditor `i` targets provider `i % M`.
    /// All providers serve the same machine's log and store.
    pub providers: usize,
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
    /// Provider scheduling and session-lifetime knobs.
    pub provider: ProviderConfig,
    /// Event-loop safety bound.
    pub max_steps: u64,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            link: LinkConfig::default(),
            auditors: 1,
            providers: 1,
            inter_arrival_us: 0,
            start_snapshot: 0,
            chunk: 1,
            on_demand: true,
            provider: ProviderConfig::default(),
            max_steps: 10_000_000,
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
    /// Per-provider scheduler, session and cache accounting.
    pub providers: Vec<ProviderStats>,
    /// Per-node traffic counters from the shared network.
    pub node_stats: Vec<(NodeId, NodeStats)>,
    /// How the event loop ended.
    pub event_loop: EventLoopReport,
}

/// Runs N concurrent spot-check sessions against M provider nodes sharing
/// one simulated network (see the module docs).
///
/// Providers bind nodes `1..=M`, auditors bind `M+1..`; auditor `i` opens
/// session `CLIENT_SESSION + i` against provider `1 + (i % M)` — so a fleet
/// of one speaks byte-identical packets to the single-client transport.
pub fn run_fleet(
    log: &dyn LogSource,
    store: &SnapshotStore,
    image: &VmImage,
    registry: &GuestRegistry,
    config: &FleetConfig,
) -> FleetOutcome {
    run_fleet_inner(log, store, image, registry, config, None)
}

/// [`run_fleet`] with attest-then-audit sessions: every provider node
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
    let provider_count = config.providers.max(1);
    let mut providers: Vec<ProviderNode> = (0..provider_count)
        .map(|p| {
            let mut server = AuditServer::with_log_source(log, store);
            if let Some((attestor, _)) = attest {
                server = server.with_attestor(attestor);
            }
            ProviderNode::new(NodeId(p as u32 + 1), server, config.provider)
        })
        .collect();
    let mut auditors: Vec<FleetAuditor> = (0..config.auditors)
        .map(|i| {
            let mut auditor = FleetAuditor::new(
                NodeId((provider_count + 1 + i) as u32),
                NodeId((i % provider_count) as u32 + 1),
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
    let mut endpoints: Vec<&mut dyn Endpoint> = Vec::with_capacity(provider_count + auditors.len());
    for provider in providers.iter_mut() {
        endpoints.push(provider);
    }
    for auditor in auditors.iter_mut() {
        endpoints.push(auditor);
    }
    let event_loop = run_event_loop(&mut net, &mut endpoints, config.max_steps);
    drop(endpoints);
    let provider_stats = providers.iter().map(|p| p.stats()).collect();
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
        providers: provider_stats,
        node_stats,
        event_loop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{AuditClient, SimNetTransport};
    use crate::testutil::record_with_snapshots;
    use avm_wire::audit::seal_session_message;

    /// The tentpole pin: a fleet of ONE is *field-identical* — semantics,
    /// transfer columns, wire accounting, measured simulated latency — to
    /// the blocking single-client transport, in both download modes and
    /// under deterministic packet loss.
    #[test]
    fn single_session_fleet_is_field_identical_to_simnet_transport() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();
        for (on_demand, drop_every) in [(true, 0), (false, 0), (true, 3), (false, 5)] {
            let link = LinkConfig {
                drop_every,
                ..LinkConfig::default()
            };

            let mut client = AuditClient::new(SimNetTransport::new(
                AuditServer::new(bob.log(), bob.snapshots()),
                link,
            ));
            let baseline = if on_demand {
                client.spot_check_on_demand(2, 1, &image, &registry)
            } else {
                client.spot_check(2, 1, &image, &registry)
            }
            .unwrap();

            let config = FleetConfig {
                link,
                on_demand,
                start_snapshot: 2,
                chunk: 1,
                ..FleetConfig::default()
            };
            let outcome = run_fleet(bob.log(), bob.snapshots(), &image, &registry, &config);
            assert!(outcome.event_loop.quiescent);
            let fleet_report = outcome.reports[0].as_ref().unwrap();
            assert_eq!(
                &baseline, fleet_report,
                "fleet N=1 diverged (on_demand={on_demand}, drop_every={drop_every})"
            );
        }
    }

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
        assert_eq!(provider.sessions_expired, 0);
        // Each auditor sends the same chunk + manifest requests; the first
        // pays the encoding, the rest hit the cache.  (Blob requests are
        // per-auditor and bypass it.)
        assert_eq!(provider.cache.entries, 2);
        assert_eq!(provider.cache.misses, 2);
        assert_eq!(provider.cache.hits, 2 * (n as u64 - 1));
    }

    /// Idle expiry reclaims finished sessions (and only finished ones), and
    /// the loop still quiesces afterwards.
    #[test]
    fn idle_sessions_expire_after_the_quiet_period() {
        let (bob, image) = record_with_snapshots(3);
        let registry = GuestRegistry::new();
        let config = FleetConfig {
            auditors: 3,
            start_snapshot: 1,
            chunk: 1,
            provider: ProviderConfig {
                idle_expiry_us: Some(50_000),
                ..ProviderConfig::default()
            },
            ..FleetConfig::default()
        };
        let outcome = run_fleet(bob.log(), bob.snapshots(), &image, &registry, &config);
        assert!(outcome.event_loop.quiescent);
        for report in &outcome.reports {
            assert!(report.as_ref().unwrap().consistent);
        }
        let provider = &outcome.providers[0];
        assert_eq!(provider.sessions_created, 3);
        assert_eq!(provider.sessions_expired, 3);
        assert_eq!(provider.active_sessions, 0);
    }

    /// A budget-limited scheduler serves queued sessions round-robin: with
    /// three sessions' requests queued and a budget of 2, the first pass
    /// serves two *different* sessions and the backlog drains next pass.
    #[test]
    fn budgeted_scheduler_serves_sessions_round_robin() {
        let (bob, _image) = record_with_snapshots(3);
        let mut provider = ProviderNode::new(
            NodeId(1),
            AuditServer::new(bob.log(), bob.snapshots()),
            ProviderConfig {
                service_budget: 2,
                tick_interval_us: 40,
                ..ProviderConfig::default()
            },
        );
        let mut net = SimNet::new(LinkConfig::default());
        for (peer, session) in [(10, 7), (11, 8), (12, 9)] {
            let packet =
                seal_session_message(session, 1, &AuditRequest::Manifest { snapshot_id: 1 });
            provider.on_delivery(
                &mut net,
                Delivery {
                    from: NodeId(peer),
                    to: NodeId(1),
                    payload: packet,
                    deliver_at: 0,
                    sent_at: 0,
                },
            );
        }
        assert_eq!(provider.stats().sessions_created, 3);

        // First pass: budget 2 → two sessions served, one queued; the
        // provider asks to be re-ticked after its interval.
        let wake = provider.on_tick(&mut net);
        assert_eq!(wake, Some(40));
        assert_eq!(provider.stats().requests_served, 2);
        assert_eq!(net.in_flight_count(), 2);

        // Second pass serves the third session — round-robin, not
        // first-session-wins — and goes quiet.
        let wake = provider.on_tick(&mut net);
        assert_eq!(wake, None);
        assert_eq!(provider.stats().requests_served, 3);
        assert_eq!(net.in_flight_count(), 3);
        // One manifest encoding, two cache hits: the budget changes *when*
        // each session is served, never *what* it costs.
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

    /// Multiple provider nodes: auditors spread across them and each
    /// provider serves only its own sessions.
    #[test]
    fn auditors_spread_across_multiple_providers() {
        let (bob, image) = record_with_snapshots(3);
        let registry = GuestRegistry::new();
        let config = FleetConfig {
            auditors: 4,
            providers: 2,
            start_snapshot: 1,
            chunk: 1,
            ..FleetConfig::default()
        };
        let outcome = run_fleet(bob.log(), bob.snapshots(), &image, &registry, &config);
        assert!(outcome.event_loop.quiescent);
        for report in &outcome.reports {
            assert!(report.as_ref().unwrap().consistent);
        }
        assert_eq!(outcome.providers.len(), 2);
        for provider in &outcome.providers {
            assert_eq!(provider.sessions_created, 2);
        }
    }
}
