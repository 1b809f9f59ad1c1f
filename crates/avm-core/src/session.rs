//! The §3.5 spot check as one sans-IO state machine.
//!
//! The paper has *one* spot-check procedure: fetch the log chunk, fetch the
//! snapshot state — whole, or on demand — replay, compare.  [`AuditSession`]
//! is that procedure, written once.  It owns no clock, no socket and no
//! simulated network: a driver calls [`AuditSession::start`], puts each
//! [`Step::Send`] request on whatever wire it has, and feeds every accepted
//! response back through [`AuditSession::on_response`] until the session
//! answers [`Step::Done`].  Two drivers exist:
//!
//! * [`crate::endpoint::AuditClient`] — a blocking loop over
//!   [`crate::endpoint::AuditTransport::exchange`];
//! * [`crate::fleet::FleetAuditor`] — an [`avm_net::Endpoint`] on a shared
//!   event loop, adding only the session envelope and the retransmit timer.
//!
//! Responses arrive as the *borrowed* [`AuditResponseRef`]: the section
//! stream is installed onto the start machine from the packet buffer
//! ([`crate::snapshot::install_sections`]), the manifest decoded in place,
//! blob payloads authenticated before they are copied anywhere.  Every byte a
//! provider sends is parsed and judged here and nowhere else, so this is the
//! one surface a hostile provider can reach (and the one a fuzzer drives).
//!
//! # The oracle
//!
//! The session reads the provider's own [`SnapshotStore`] — its `oracle`
//! constructor argument — at exactly one place: staging on-demand blob
//! contents (`on_manifest`), so replay can fault them in inline.  That read
//! stands in for a real transfer — the bytes it stages are the ones the
//! faulted blobs carry over the driver's wire afterwards, where they are
//! paid for — and it must be replaced by those received bytes for ROADMAP
//! item 1, which then deletes the argument.  A full download reads nothing
//! but the section stream it received.  Nothing else about the provider is
//! visible here: the report states what the session received, and what a
//! download nobody made *would* have cost is priced by the experiments that
//! print it (`avm_bench::pricing`).

use avm_attest::AttestVerdict;
use avm_crypto::sha256::Digest;
use avm_log::{EntryView, LogEntry, LogEntryRef};
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::attest::{AttestChallenge, AttestQuote};
use avm_wire::audit::{AuditRequest, AuditResponseRef, SegmentAddress};
use avm_wire::{BlobRequest, BlobResponseRef, Decode, DEFAULT_BLOB_BATCH};

use crate::attest::{challenge_nonce, LaunchPolicy};
use crate::endpoint::TransportStats;
use crate::error::{CoreError, FaultReason};
use crate::ondemand::{
    AuditorBlobCache, BlobFetch, ChainManifest, FaultClassification, OnDemandCost, OnDemandSession,
};
use crate::replay::{ReplaySummary, Replayer};
use crate::snapshot::SnapshotStore;
use crate::spotcheck::{snapshot_positions_in, SpotCheckReport};

// ---------------------------------------------------------------------------
// Response parsing
// ---------------------------------------------------------------------------

/// The error for a response of the wrong kind: the provider's own message
/// when it answered with an error, a protocol violation otherwise.
fn unexpected(expected: &str, got: AuditResponseRef<'_>) -> CoreError {
    match got {
        AuditResponseRef::Error { message } => CoreError::Snapshot(message.to_string()),
        other => CoreError::Snapshot(format!(
            "audit protocol violation: expected {expected} response, got {}",
            other.variant_name()
        )),
    }
}

/// A log-segment response: the chain anchor, what `keep` made of each entry
/// — handed over as a [`LogEntryRef`] decoded in place, its content still
/// the packet's bytes — and the bytes the encodings occupied in the packet.
fn log_segment_with<'r, T>(
    response: AuditResponseRef<'r>,
    keep: impl Fn(LogEntryRef<'r>) -> T,
) -> Result<(Digest, Vec<T>, u64), CoreError> {
    match response {
        AuditResponseRef::LogSegment { prev_hash, entries } => {
            let received = entries.iter().map(|bytes| bytes.len() as u64).sum();
            // Sized once: the borrowed decode already bounded the count by
            // the bytes that arrived.
            let mut kept = Vec::with_capacity(entries.len());
            for bytes in entries {
                let entry = LogEntryRef::decode_exact(bytes)
                    .map_err(|e| CoreError::Snapshot(format!("log entry does not decode: {e}")))?;
                kept.push(keep(entry));
            }
            Ok((Digest(prev_hash), kept, received))
        }
        other => Err(unexpected("LogSegment", other)),
    }
}

/// A log segment audited where it landed: nothing is copied out of the
/// packet ([`crate::endpoint::AuditClient::audit_log`] runs on exactly this).
pub(crate) fn expect_log_entries(
    response: AuditResponseRef<'_>,
) -> Result<(Digest, Vec<LogEntryRef<'_>>, u64), CoreError> {
    log_segment_with(response, |entry| entry)
}

/// A log segment kept past its exchange, every entry copied out of the
/// packet: the standalone downloads, and the spot-check session (whose
/// ~40-entry chunk waits through its next exchanges).
pub(crate) fn expect_log_segment(
    response: AuditResponseRef<'_>,
) -> Result<(Digest, Vec<LogEntry>, u64), CoreError> {
    log_segment_with(response, |entry| entry.to_entry())
}

/// A manifest response, decoded straight from the packet buffer, and the
/// bytes its encoding occupied there.
pub(crate) fn expect_manifest(
    response: AuditResponseRef<'_>,
) -> Result<(ChainManifest, u64), CoreError> {
    match response {
        AuditResponseRef::Manifest { manifest } => ChainManifest::decode_exact(manifest)
            .map(|decoded| (decoded, manifest.len() as u64))
            .map_err(|e| CoreError::Snapshot(format!("manifest does not decode: {e}"))),
        other => Err(unexpected("Manifest", other)),
    }
}

/// A sections response: the stream, still borrowed from the packet.
pub(crate) fn expect_sections(response: AuditResponseRef<'_>) -> Result<&[u8], CoreError> {
    match response {
        AuditResponseRef::Sections { stream } => Ok(stream),
        other => Err(unexpected("Sections", other)),
    }
}

/// A blob response, payloads still borrowed from the packet.
fn expect_blobs(response: AuditResponseRef<'_>) -> Result<BlobResponseRef<'_>, CoreError> {
    match response {
        AuditResponseRef::Blobs(blobs) => Ok(blobs),
        other => Err(unexpected("Blobs", other)),
    }
}

/// An attestation response: the provider's quote.
pub(crate) fn expect_attestation(response: AuditResponseRef<'_>) -> Result<AttestQuote, CoreError> {
    match response {
        AuditResponseRef::Attestation(quote) => Ok(quote.to_owned()),
        other => Err(unexpected("Attestation", other)),
    }
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// What the driver does next.
#[derive(Debug)]
pub enum Step {
    /// Put the request on the wire as the session's next exchange and feed
    /// the response to [`AuditSession::on_response`].
    Send(AuditRequest),
    /// The session is over: the verdict, or the error that ended it.  A
    /// report's `transport` column is zeroed — the driver fills in what its
    /// wire measured.
    Done(Result<SpotCheckReport, CoreError>),
}

/// A replayed chunk's verdict: the fault (if any) and the truthful progress.
type Replayed = (Option<FaultReason>, ReplaySummary);

/// On-demand mode between the manifest and the verdict: the replay already
/// ran; the blob batches it faulted are being fetched.
struct BlobPhase {
    log_bytes: u64,
    replayed: Replayed,
    ondemand: OnDemandSession,
    classification: FaultClassification,
    batches: Vec<BlobRequest>,
    next: usize,
    download: BlobFetch,
}

/// Which response the session is waiting for.
enum State {
    Idle,
    /// The launch must verify before any audit request goes out.
    Attest {
        challenge: AttestChallenge,
    },
    Chunk,
    /// Full-download mode.
    Sections {
        entries: Vec<LogEntry>,
        log_bytes: u64,
    },
    /// On-demand mode.
    Manifest {
        entries: Vec<LogEntry>,
        log_bytes: u64,
    },
    Blobs(Box<BlobPhase>),
    Done,
}

/// One §3.5 spot check, from the first request to the report (see the module
/// docs for the driver contract).
pub struct AuditSession<'a> {
    start_snapshot: u64,
    k: u64,
    on_demand: bool,
    image: &'a VmImage,
    registry: &'a GuestRegistry,
    oracle: &'a SnapshotStore,
    cache: AuditorBlobCache,
    /// The launch policy and the session id the challenge nonce derives from.
    attest: Option<(&'a LaunchPolicy, u64)>,
    state: State,
    attest_verdict: Option<AttestVerdict>,
}

impl<'a> AuditSession<'a> {
    /// A session checking the `k`-chunk at `start_snapshot`, downloading the
    /// snapshot state `on_demand` or in full.  `oracle` is the provider's
    /// store on-demand staging reads blob contents from (see the module
    /// docs).
    pub fn new(
        start_snapshot: u64,
        k: u64,
        on_demand: bool,
        image: &'a VmImage,
        registry: &'a GuestRegistry,
        oracle: &'a SnapshotStore,
    ) -> AuditSession<'a> {
        AuditSession {
            start_snapshot,
            k,
            on_demand,
            image,
            registry,
            oracle,
            cache: AuditorBlobCache::new(),
            attest: None,
            state: State::Idle,
            attest_verdict: None,
        }
    }

    /// Resumes with the auditor's persistent blob cache.
    pub fn with_cache(mut self, cache: AuditorBlobCache) -> AuditSession<'a> {
        self.cache = cache;
        self
    }

    /// Opens the session with an attestation challenge under `policy`; the
    /// nonce derives from `session_id` and the start time
    /// ([`challenge_nonce`]).  The chunk request goes out only on a verified
    /// launch; any other verdict ends the session.
    pub fn with_attestation(
        mut self,
        policy: &'a LaunchPolicy,
        session_id: u64,
    ) -> AuditSession<'a> {
        self.attest = Some((policy, session_id));
        self
    }

    /// The launch verdict, once the attestation exchange settled (always
    /// `None` without [`AuditSession::with_attestation`]).
    pub fn attest_verdict(&self) -> Option<AttestVerdict> {
        self.attest_verdict
    }

    /// Ends the session, handing the blob cache back for the next one.
    pub fn into_cache(self) -> AuditorBlobCache {
        self.cache
    }

    /// Opens the session at simulated time `now_us`: the attestation
    /// challenge if a policy is set, the log-chunk request otherwise.
    pub fn start(&mut self, now_us: u64) -> Step {
        match self.attest {
            Some((_, session_id)) => {
                let challenge = AttestChallenge {
                    nonce: challenge_nonce(session_id, now_us),
                    issued_at_us: now_us,
                };
                self.state = State::Attest { challenge };
                Step::Send(AuditRequest::Attest(challenge))
            }
            None => self.request_chunk(),
        }
    }

    /// Consumes the response to the request last issued, at simulated time
    /// `now_us` (read only to judge a quote's freshness), and says what to
    /// do next.  A response of the wrong kind, a provider-side error, or
    /// bytes that fail authentication end the session with an error — never
    /// with a verdict.
    pub fn on_response(&mut self, now_us: u64, response: AuditResponseRef<'_>) -> Step {
        let next = match std::mem::replace(&mut self.state, State::Done) {
            State::Attest { challenge } => self.on_attest(now_us, response, challenge),
            State::Chunk => self.on_chunk(response),
            State::Sections { entries, log_bytes } => {
                self.on_sections(response, &entries, log_bytes)
            }
            State::Manifest { entries, log_bytes } => {
                self.on_manifest(response, &entries, log_bytes)
            }
            State::Blobs(phase) => self.on_blobs(response, phase),
            State::Idle | State::Done => Err(CoreError::Snapshot(
                "audit session has no exchange outstanding".to_string(),
            )),
        };
        next.unwrap_or_else(|error| Step::Done(Err(error)))
    }

    fn request_chunk(&mut self) -> Step {
        self.state = State::Chunk;
        Step::Send(AuditRequest::LogSegment(SegmentAddress::Chunk {
            start_snapshot: self.start_snapshot,
            chunk: self.k,
        }))
    }

    fn on_attest(
        &mut self,
        now_us: u64,
        response: AuditResponseRef<'_>,
        challenge: AttestChallenge,
    ) -> Result<Step, CoreError> {
        let quote = expect_attestation(response)?;
        let (policy, _) = self
            .attest
            .expect("Attest state is only entered with a policy");
        let (verdict, _envelope) = policy.verify(&quote, &challenge, now_us);
        self.attest_verdict = Some(verdict);
        if !verdict.is_verified() {
            return Err(CoreError::Snapshot(format!(
                "attestation rejected: {verdict}"
            )));
        }
        // Launch verified — the same session continues into the spot check.
        Ok(self.request_chunk())
    }

    fn on_chunk(&mut self, response: AuditResponseRef<'_>) -> Result<Step, CoreError> {
        // The provider resolves the chunk boundaries; one whose SNAPSHOT
        // records do not all decode returns its log prefix instead (see
        // `AuditServer::respond`).
        let (_, entries, log_bytes) = expect_log_segment(response)?;
        // Scan what was *received* — the auditor never trusts the provider's
        // classification.  A corrupt SNAPSHOT record is itself the verdict,
        // and the log downloaded so far is the truthful cost.
        if let Err(fault) = snapshot_positions_in(&entries) {
            let replayed = (Some(fault), ReplaySummary::default());
            return Ok(self.finish(replayed, log_bytes, 0, None));
        }
        if self.on_demand {
            self.state = State::Manifest { entries, log_bytes };
            Ok(Step::Send(AuditRequest::Manifest {
                snapshot_id: self.start_snapshot,
            }))
        } else {
            self.state = State::Sections { entries, log_bytes };
            Ok(Step::Send(AuditRequest::Sections {
                upto_id: self.start_snapshot,
            }))
        }
    }

    fn on_sections(
        &mut self,
        response: AuditResponseRef<'_>,
        entries: &[LogEntry],
        log_bytes: u64,
    ) -> Result<Step, CoreError> {
        // The stream is the snapshot download: the start state is installed
        // from it where it lies in the packet, and its length is what the
        // download cost.
        let stream = expect_sections(response)?;
        let mut replayer =
            Replayer::from_sections(self.image, self.registry, stream, self.start_snapshot)?;
        let fault = replayer.replay(entries).fault().cloned();
        let replayed = (fault, replayer.summary());
        Ok(self.finish(replayed, log_bytes, stream.len() as u64, None))
    }

    fn on_manifest(
        &mut self,
        response: AuditResponseRef<'_>,
        entries: &[LogEntry],
        log_bytes: u64,
    ) -> Result<Step, CoreError> {
        let (manifest, manifest_bytes) = expect_manifest(response)?;
        // Divergent state is staged from the oracle so replay faults it in
        // inline and never waits for the wire; the blob exchange below then
        // pays for exactly what replay touched.
        let (mut replayer, ondemand) = Replayer::from_manifest_on_demand(
            manifest,
            manifest_bytes,
            self.image,
            self.registry,
            self.oracle,
            &self.cache,
        )?;
        let fault = replayer.replay(entries).fault().cloned();
        let classification = ondemand.classify_faults(replayer.machine())?;
        let mut download = BlobFetch::default();
        let batches = download.plan(&self.cache, &classification.needed, DEFAULT_BLOB_BATCH);
        Ok(self.next_batch(Box::new(BlobPhase {
            log_bytes,
            replayed: (fault, replayer.summary()),
            ondemand,
            classification,
            batches,
            next: 0,
            download,
        })))
    }

    fn on_blobs(
        &mut self,
        response: AuditResponseRef<'_>,
        mut phase: Box<BlobPhase>,
    ) -> Result<Step, CoreError> {
        let blobs = expect_blobs(response)?;
        let request = &phase.batches[phase.next];
        phase.download.accept(&mut self.cache, request, &blobs)?;
        phase.next += 1;
        Ok(self.next_batch(phase))
    }

    /// Requests the next planned blob batch, or settles the on-demand report
    /// once every batch is in.
    fn next_batch(&mut self, phase: Box<BlobPhase>) -> Step {
        if let Some(request) = phase.batches.get(phase.next) {
            let step = Step::Send(AuditRequest::Blobs(request.clone()));
            self.state = State::Blobs(phase);
            return step;
        }
        let BlobPhase {
            log_bytes,
            replayed,
            ondemand,
            classification,
            download,
            ..
        } = *phase;
        let cost = ondemand.assemble_cost(classification, download);
        // The manifest and the blob responses are the snapshot download.
        self.finish(replayed, log_bytes, cost.transfer_bytes, Some(cost))
    }

    /// Ends the session with its report — the one place a
    /// [`SpotCheckReport`] is assembled.
    fn finish(
        &mut self,
        (fault, progress): Replayed,
        log_transfer_bytes: u64,
        snapshot_transfer_bytes: u64,
        on_demand: Option<OnDemandCost>,
    ) -> Step {
        self.state = State::Done;
        Step::Done(Ok(SpotCheckReport {
            start_snapshot: self.start_snapshot,
            chunk_size: self.k,
            consistent: fault.is_none(),
            fault,
            entries_replayed: progress.entries_replayed,
            steps_replayed: progress.steps_executed,
            log_transfer_bytes,
            snapshot_transfer_bytes,
            on_demand,
            transport: TransportStats::default(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{AuditClient, AuditServer, AuditTransport};
    use crate::testutil::{key, record_with_snapshots};
    use avm_log::EntryKind;
    use avm_wire::audit::AuditResponse;
    use avm_wire::Encode;

    fn kind(request: &AuditRequest) -> &'static str {
        match request {
            AuditRequest::Attest(_) => "Attest",
            AuditRequest::LogSegment(SegmentAddress::Chunk { .. }) => "Chunk",
            AuditRequest::LogSegment(SegmentAddress::Seq { .. }) => "Seq",
            AuditRequest::Sections { .. } => "Sections",
            AuditRequest::Manifest { .. } => "Manifest",
            AuditRequest::Blobs(_) => "Blobs",
        }
    }

    /// Drives `session` with no network at all: every request is answered
    /// by `AuditServer::handle`, passed through `tamper` (with the request's
    /// position in the session), encoded, and handed back as the borrowed
    /// view a driver would decode from a packet.  Returns the request kinds
    /// in order and how the session ended.
    fn drive(
        mut session: AuditSession<'_>,
        server: &AuditServer<'_>,
        mut tamper: impl FnMut(usize, AuditResponse) -> AuditResponse,
    ) -> (Vec<&'static str>, Result<SpotCheckReport, CoreError>) {
        let mut sent = Vec::new();
        let mut step = session.start(1_000);
        loop {
            match step {
                Step::Send(request) => {
                    let response = tamper(sent.len(), server.handle(&request)).encode_to_vec();
                    sent.push(kind(&request));
                    let response = AuditResponseRef::decode_exact(&response).unwrap();
                    step = session.on_response(2_000, response);
                }
                Step::Done(outcome) => return (sent, outcome),
            }
        }
    }

    fn honest(_: usize, response: AuditResponse) -> AuditResponse {
        response
    }

    #[test]
    fn request_sequence_is_fixed_per_mode_with_and_without_attestation() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();
        let attestor = crate::attest::Attestor::for_avmm(&bob, &image).unwrap();
        let policy = LaunchPolicy::new(
            &image,
            "bob",
            avm_crypto::keys::SignatureScheme::Rsa(512),
            key(1).verifying_key(),
        );
        let server = AuditServer::new(bob.log(), bob.snapshots()).with_attestor(&attestor);
        for (on_demand, attest) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut session =
                AuditSession::new(2, 1, on_demand, &image, &registry, bob.snapshots());
            if attest {
                session = session.with_attestation(&policy, 7);
            }
            let (sent, outcome) = drive(session, &server, honest);
            let report = outcome.unwrap();
            assert!(report.consistent, "{:?}", report.fault);
            assert_eq!(report.transport, TransportStats::default());
            let audit = &sent[usize::from(attest)..];
            assert_eq!(sent[0] == "Attest", attest);
            if on_demand {
                let cost = report.on_demand.as_ref().unwrap();
                assert!(!cost.fetched.is_empty(), "workload fetched nothing");
                assert_eq!(&audit[..2], ["Chunk", "Manifest"]);
                assert!(audit[2..].iter().all(|kind| *kind == "Blobs"));
                assert_eq!(audit.len() as u64, 1 + cost.round_trips);
            } else {
                assert_eq!(audit, ["Chunk", "Sections"]);
                assert!(report.on_demand.is_none());
            }
        }
    }

    /// The session and the one-shot [`OnDemandSession::finish`] run the same
    /// `classify_faults` → `BlobFetch::plan`: over a chunk that spans
    /// interior snapshots the session replays once, asks for the blobs in
    /// full batches after the manifest, and reports the cost `finish`
    /// settles from the same store and an equally empty cache —
    /// `manifest_bytes` included: the slice that arrived is as long as the
    /// `encoded_len()` the in-process path counts.
    #[test]
    fn on_demand_session_is_the_one_shot_path_over_the_wire() {
        let (bob, image) = record_with_snapshots(5);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        let session = AuditSession::new(1, 3, true, &image, &registry, bob.snapshots());
        let mut chunk = Vec::new();
        let (sent, outcome) = drive(session, &server, |_, response| {
            if let AuditResponse::LogSegment { entries, .. } = &response {
                chunk = entries
                    .iter()
                    .map(|bytes| LogEntry::decode_exact(bytes).unwrap())
                    .collect();
            }
            response
        });
        let report = outcome.unwrap();
        assert!(report.consistent, "{:?}", report.fault);
        let interior = snapshot_positions_in(&chunk).unwrap().len() - 1;
        assert!(interior >= 2, "{interior} interior snapshots");

        let mut cache = AuditorBlobCache::new();
        let (mut replayer, ondemand) =
            Replayer::from_snapshot_on_demand(&image, &registry, bob.snapshots(), 1, &cache)
                .unwrap();
        assert!(replayer.replay(&chunk).is_consistent());
        let one_shot = ondemand
            .finish(replayer.machine(), bob.snapshots(), &mut cache)
            .unwrap();
        assert!(!one_shot.fetched.is_empty(), "workload fetched nothing");
        let batches = one_shot.fetched.len().div_ceil(DEFAULT_BLOB_BATCH);
        let mut expected = vec!["Chunk", "Manifest"];
        expected.resize(2 + batches, "Blobs");
        assert_eq!(sent, expected);
        assert_eq!(report.on_demand, Some(one_shot));
    }

    /// The report's byte columns are what the scripted provider put on the
    /// wire, by kind — nothing is derived from the provider's store.
    #[test]
    fn report_columns_are_the_bytes_received_in_both_modes() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        for on_demand in [false, true] {
            let session = AuditSession::new(2, 1, on_demand, &image, &registry, bob.snapshots());
            let (mut log, mut snapshot, mut wire) = (0u64, 0u64, 0u64);
            let (_, outcome) = drive(session, &server, |_, response| {
                wire += response.encoded_len() as u64;
                match &response {
                    AuditResponse::LogSegment { entries, .. } => {
                        log += entries.iter().map(|e| e.len() as u64).sum::<u64>();
                    }
                    AuditResponse::Sections { stream } => snapshot += stream.len() as u64,
                    AuditResponse::Manifest { manifest } => snapshot += manifest.len() as u64,
                    AuditResponse::Blobs(blobs) => snapshot += blobs.encoded_len() as u64,
                    other => panic!("unexpected {} response", other.variant_name()),
                }
                response
            });
            let report = outcome.unwrap();
            assert!(report.consistent, "{:?}", report.fault);
            assert!(log > 0 && snapshot > 0);
            assert_eq!(report.log_transfer_bytes, log);
            assert_eq!(report.snapshot_transfer_bytes, snapshot);
            assert_eq!(report.total_transfer_bytes(), log + snapshot);
            assert_eq!(
                report.on_demand.as_ref().map(|cost| cost.transfer_bytes),
                on_demand.then_some(snapshot)
            );
            // What a driver's wire carries covers what the report claims.
            assert!(wire >= report.snapshot_transfer_bytes + report.log_transfer_bytes);
        }
    }

    /// The start state comes from the section stream that arrived, so a
    /// short, a long and a count-inflated stream each end the session with
    /// an error — never with a report built from the provider's store.
    #[test]
    fn truncated_section_stream_is_refused() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        let honest_len = bob.snapshots().transfer_bytes_upto(2);
        type Damage = fn(&mut Vec<u8>);
        let damages: [(Damage, &str); 3] = [
            (
                |stream| {
                    stream.pop();
                },
                "unexpected end of input",
            ),
            (|stream| stream.push(0), "1 trailing bytes"),
            // The first header's memory count: id, step, flags, root.
            (
                |stream| stream[50..54].copy_from_slice(&u32::MAX.to_le_bytes()),
                "declares 4294967295 chunks",
            ),
        ];
        for (damage, wanted) in damages {
            let session = AuditSession::new(2, 1, false, &image, &registry, bob.snapshots());
            let (sent, outcome) = drive(session, &server, |_, response| match response {
                AuditResponse::Sections { mut stream } => {
                    assert_eq!(stream.len() as u64, honest_len);
                    damage(&mut stream);
                    AuditResponse::Sections { stream }
                }
                other => other,
            });
            assert_eq!(sent, ["Chunk", "Sections"]);
            match outcome {
                Err(CoreError::Snapshot(message)) => {
                    assert!(message.starts_with("section stream: "), "{message}");
                    assert!(message.contains(wanted), "{message}");
                }
                other => panic!("expected the stream to be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_variant_response_is_a_protocol_violation() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        let stray = || AuditResponse::Sections { stream: vec![1, 2] };
        for (on_demand, at, expected) in [
            (true, 0, "LogSegment"),
            (true, 1, "Manifest"),
            (true, 2, "Blobs"),
            (false, 0, "LogSegment"),
        ] {
            let session = AuditSession::new(2, 1, on_demand, &image, &registry, bob.snapshots());
            let (sent, outcome) = drive(
                session,
                &server,
                |i, response| {
                    if i == at {
                        stray()
                    } else {
                        response
                    }
                },
            );
            assert_eq!(sent.len(), at + 1, "the violation ends the session");
            let error = outcome.unwrap_err().to_string();
            let wanted =
                format!("audit protocol violation: expected {expected} response, got Sections");
            assert!(error.contains(&wanted), "{error}");
        }
        // … and a manifest where the section stream belongs.
        let session = AuditSession::new(2, 1, false, &image, &registry, bob.snapshots());
        let (_, outcome) = drive(session, &server, |i, response| match i {
            1 => AuditResponse::Manifest { manifest: vec![] },
            _ => response,
        });
        let error = outcome.unwrap_err().to_string();
        assert!(
            error.contains("expected Sections response, got Manifest"),
            "{error}"
        );
    }

    #[test]
    fn unauthentic_blob_responses_never_reach_a_verdict() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        type Tamper = fn(&mut Vec<Option<Vec<u8>>>);
        let tampers: [(Tamper, &str); 3] = [
            (|blobs| drop(blobs.pop()), "payloads for"),
            (|blobs| blobs[0] = None, "could not serve blob"),
            (
                |blobs| blobs[0].as_mut().unwrap()[3] ^= 0x40,
                "does not hash",
            ),
        ];
        for (tamper, wanted) in tampers {
            let session = AuditSession::new(2, 1, true, &image, &registry, bob.snapshots());
            let (sent, outcome) = drive(session, &server, |_, response| match response {
                AuditResponse::Blobs(mut blobs) => {
                    tamper(&mut blobs.blobs);
                    AuditResponse::Blobs(blobs)
                }
                other => other,
            });
            assert_eq!(sent, ["Chunk", "Manifest", "Blobs"]);
            let error = outcome.expect_err("tampered blobs must not yield a report");
            assert!(error.to_string().contains(wanted), "{error}");
        }
    }

    /// A provider on no network whose encoded response passes through
    /// `tamper` on its way to the auditor.  A body that no longer decodes is
    /// dropped, as `PendingExchange::accept` drops it; with no retransmit
    /// timer to wait out, the exchange fails on the spot.
    struct TamperingTransport<'a, F> {
        server: AuditServer<'a>,
        tamper: F,
    }

    impl<'a, F: FnMut(Vec<u8>) -> Vec<u8>> AuditTransport<'a> for TamperingTransport<'a, F> {
        fn exchange<R>(
            &mut self,
            request: &AuditRequest,
            on_response: impl FnOnce(AuditResponseRef<'_>) -> R,
        ) -> Result<R, CoreError> {
            let body = (self.tamper)(self.server.respond(request));
            let response = AuditResponseRef::decode_exact(&body)
                .map_err(|e| CoreError::Snapshot(format!("response dropped: {e}")))?;
            Ok(on_response(response))
        }

        fn stats(&self) -> TransportStats {
            TransportStats::default()
        }

        fn provider_store(&self) -> &'a SnapshotStore {
            self.server.store()
        }
    }

    /// Offset of entry `index`'s length prefix in a `LogSegment` body, and
    /// the entry's encoded length (one-byte prefixes only: the fixture's
    /// entries are short).
    fn entry_at(body: &[u8], index: usize) -> (usize, usize) {
        // tag ‖ prev hash ‖ a count below 128.
        let mut at = 1 + 32 + 1;
        for _ in 0..index {
            assert!(body[at] < 0x80);
            at += 1 + body[at] as usize;
        }
        assert!(body[at] < 0x80);
        (at, body[at] as usize)
    }

    /// The pre-sized decode stays bounded by the bytes that arrived: a count
    /// no body could hold is refused before anything is allocated for it,
    /// and it is the borrowed entry count — itself at most one per received
    /// byte — that sizes the owned vector.
    #[test]
    fn hostile_entry_count_is_refused_before_allocation() {
        let mut body = vec![3u8];
        body.extend_from_slice(&[0x5a; 32]);
        avm_wire::varint::write_varint(&mut body, 1 << 40);
        body.resize(40, 0);
        assert_eq!(
            AuditResponseRef::decode_exact(&body).unwrap_err(),
            avm_wire::WireError::LengthOverflow {
                declared: 1 << 40,
                max: 1,
            }
        );
        // The largest count a 40-byte body can declare: one empty entry per
        // remaining byte — which then fail to decode, one by one.
        let mut body = vec![3u8];
        body.extend_from_slice(&[0x5a; 32]);
        body.push(6);
        body.resize(40, 0);
        let response = AuditResponseRef::decode_exact(&body).unwrap();
        let error = expect_log_segment(response.clone())
            .unwrap_err()
            .to_string();
        assert!(
            error.contains("log entry does not decode: unexpected end of input"),
            "{error}"
        );
        // The whole-log audit's parser is the same parser.
        assert_eq!(expect_log_entries(response).unwrap_err().to_string(), error);
    }

    /// One damaged entry encoding ends the session with the decode error the
    /// entry's own bytes produce — never with a verdict.
    #[test]
    fn damaged_entry_encoding_ends_the_session_with_its_decode_error() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        type Damage = fn(&mut Vec<u8>);
        let damages: [Damage; 3] = [
            |entry| entry.truncate(entry.len() - 1),
            |entry| entry[1] = 77,
            |entry| entry.push(0),
        ];
        for damage in damages {
            let session = AuditSession::new(2, 1, false, &image, &registry, bob.snapshots());
            let mut wanted = String::new();
            let (sent, outcome) = drive(session, &server, |_, response| match response {
                AuditResponse::LogSegment {
                    prev_hash,
                    mut entries,
                } => {
                    damage(&mut entries[2]);
                    let error = LogEntry::decode_exact(&entries[2]).unwrap_err();
                    wanted = format!("log entry does not decode: {error}");
                    AuditResponse::LogSegment { prev_hash, entries }
                }
                other => other,
            });
            assert_eq!(sent, ["Chunk"]);
            match outcome {
                Err(CoreError::Snapshot(message)) => assert_eq!(message, wanted),
                other => panic!("expected a decode error, got {other:?}"),
            }
        }
    }

    /// An entry whose declared length overruns the packet is not a response
    /// at all: the body is dropped and no audit runs on it.
    #[test]
    fn entry_overrunning_the_packet_never_reaches_an_audit() {
        let (bob, image) = record_with_snapshots(2);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        let mut client = AuditClient::new(TamperingTransport {
            server,
            tamper: |mut body: Vec<u8>| {
                // The last entry of whichever segment this is.
                let (at, _) = entry_at(&body, body[33] as usize - 1);
                body[at] += 1;
                body
            },
        });
        let error = client
            .audit_log("bob", 1, 0, &[], &key(1).verifying_key(), &image, &registry)
            .unwrap_err();
        assert!(error.to_string().contains("response dropped"), "{error}");
        let error = client.spot_check(0, 1, &image, &registry).unwrap_err();
        assert!(error.to_string().contains("response dropped"), "{error}");
    }

    /// The whole-log audit reads entries where they landed, so a hostile
    /// provider reaches its in-place decoder directly.  A segment declaring
    /// more entries than it has bytes is not a response at all; an entry
    /// whose *content* length overruns the entry's own bytes ends the audit
    /// with the decode error the owned decode gives for the same bytes —
    /// an error, never a report.
    #[test]
    fn hostile_whole_log_segment_is_refused_with_its_decode_error() {
        let (bob, image) = record_with_snapshots(2);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        let bob_key = key(1).verifying_key();
        let entries = bob.log().len();
        let audit_with = |tamper: &dyn Fn(Vec<u8>) -> Vec<u8>| {
            AuditClient::new(TamperingTransport { server, tamper })
                .audit_log("bob", 1, 0, &[], &bob_key, &image, &registry)
                .unwrap_err()
                .to_string()
        };

        // tag ‖ prev hash ‖ count: a count no body could hold …
        let error = audit_with(&|mut body| {
            let mut count = Vec::new();
            avm_wire::varint::write_varint(&mut count, 1 << 40);
            body.splice(33..34, count);
            body
        });
        assert!(
            error.starts_with(
                "snapshot error: response dropped: declared length 1099511627776 exceeds maximum "
            ),
            "{error}"
        );
        // … and one more entry than the body has.
        let error = audit_with(&|mut body| {
            assert_eq!(body[33] as usize, entries);
            body[33] += 1;
            body
        });
        assert_eq!(
            error,
            "snapshot error: response dropped: unexpected end of input: needed 1 more bytes, 0 remaining"
        );

        // seq ‖ kind ‖ content length: the last entry's content now claims
        // the hash bytes behind it, and more.
        let damaged = std::cell::RefCell::new(Vec::new());
        let error = audit_with(&|mut body| {
            let (at, len) = entry_at(&body, entries - 1);
            body[at + 1 + 2] += 40;
            *damaged.borrow_mut() = body[at + 1..at + 1 + len].to_vec();
            body
        });
        let owned_error = LogEntry::decode_exact(&damaged.borrow()).unwrap_err();
        assert!(
            matches!(owned_error, avm_wire::WireError::LengthOverflow { .. }),
            "{owned_error}"
        );
        assert_eq!(
            error,
            format!("snapshot error: log entry does not decode: {owned_error}")
        );
    }

    /// One content byte flipped in the body `respond` wrote: the entries
    /// still decode, the frame would still check out (the provider seals
    /// what it sends) — the hash chain is what catches it.
    #[test]
    fn flipped_content_byte_is_a_syntactic_failure_not_a_pass() {
        let (bob, image) = record_with_snapshots(2);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        let target = bob
            .log()
            .entries()
            .iter()
            .position(|e| e.kind == EntryKind::Send)
            .expect("the worker sends");
        let honest = |body: Vec<u8>| body;
        let flipped = |mut body: Vec<u8>| {
            // seq ‖ kind ‖ content length, then the content's first byte.
            let (at, len) = entry_at(&body, target);
            assert!(len > 3 + 32);
            body[at + 1 + 3] ^= 0x01;
            body
        };
        let bob_key = key(1).verifying_key();
        let mut client = AuditClient::new(TamperingTransport {
            server,
            tamper: honest,
        });
        let report = client
            .audit_log("bob", 1, 0, &[], &bob_key, &image, &registry)
            .unwrap();
        assert!(report.passed(), "{:?}", report.fault());

        let mut client = AuditClient::new(TamperingTransport {
            server,
            tamper: flipped,
        });
        let report = client
            .audit_log("bob", 1, 0, &[], &bob_key, &image, &registry)
            .unwrap();
        assert!(!report.syntactic_ok);
        match report.fault() {
            Some(FaultReason::SyntacticFailure(detail)) => {
                assert!(detail.contains("chain"), "{detail}")
            }
            other => panic!("expected a chain failure, got {other:?}"),
        }
    }

    #[test]
    fn provider_error_surfaces_as_snapshot_error_at_every_exchange() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        for (on_demand, exchanges) in [(false, 2), (true, 3)] {
            for at in 0..exchanges {
                let session =
                    AuditSession::new(2, 1, on_demand, &image, &registry, bob.snapshots());
                let (sent, outcome) = drive(session, &server, |i, response| {
                    if i == at {
                        AuditResponse::Error {
                            message: "disk on fire".to_string(),
                        }
                    } else {
                        response
                    }
                });
                assert_eq!(sent.len(), at + 1);
                match outcome {
                    Err(CoreError::Snapshot(message)) => assert_eq!(message, "disk on fire"),
                    other => panic!("expected the provider's error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn undecodable_snapshot_record_is_the_malformed_log_verdict() {
        let (bob, image) = record_with_snapshots(3);
        let registry = GuestRegistry::new();
        let mut rebuilt = avm_log::TamperEvidentLog::new();
        let mut snapshots_seen = 0;
        for e in bob.log().entries() {
            let corrupt = e.kind == EntryKind::Snapshot && {
                snapshots_seen += 1;
                snapshots_seen == 2
            };
            let content = if corrupt {
                vec![0xff, 0x01]
            } else {
                e.content.clone()
            };
            rebuilt.append(e.kind, content);
        }
        let server = AuditServer::new(&rebuilt, bob.snapshots());
        for on_demand in [false, true] {
            let session = AuditSession::new(0, 1, on_demand, &image, &registry, bob.snapshots());
            let (sent, outcome) = drive(session, &server, honest);
            // The verdict comes from the received prefix alone: no snapshot
            // state is requested, none is reported.
            assert_eq!(sent, ["Chunk"]);
            let report = outcome.unwrap();
            assert!(!report.consistent);
            assert!(matches!(
                report.fault,
                Some(FaultReason::MalformedLog { .. })
            ));
            assert_eq!(report.entries_replayed, 0);
            assert!(report.log_transfer_bytes > 0);
            assert_eq!(report.snapshot_transfer_bytes, 0);
            assert!(report.on_demand.is_none());
        }
    }
}
