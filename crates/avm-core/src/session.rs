//! The audit as one sans-IO state machine.
//!
//! The paper has *one* audit: a syntactic check of the log, then a semantic
//! check that replays it (§4.5).  A §3.5 spot check is the same audit of a
//! segment that starts at a snapshot instead of the image.  [`AuditSession`]
//! is that procedure, written once, with one [`Start`]:
//!
//! * [`Start::Image`] — the log segment by sequence number, replayed from a
//!   fresh machine of the image: the whole-log audit.  No state is
//!   requested, so nothing waits for the syntactic phase to pass: on a long
//!   segment it runs beside the replay ([`crate::audit::audit_log`]), its
//!   verdict wins, and its failure stops the replay.  On a fault the
//!   session keeps transferable evidence
//!   ([`AuditSession::into_audit_report`]).
//! * [`Start::Snapshot`] — the `k`-chunk after a snapshot, replayed from the
//!   snapshot's state, its bytes fetched before replay (full download) or
//!   as replay needs them (on demand).
//!
//! Either way the first response is the segment, and the session runs the
//! **syntactic phase** on it ([`crate::audit::syntactic_phase`]) where it
//! landed, on [`LogEntryRef`]s, before it asks for anything else: the hash
//! chain from the response's anchor, every held authenticator the segment
//! covers, and the content checks (every record decodes, every injection
//! and acknowledgment names a logged RECV / SEND).  A failed phase is the
//! verdict — `consistent: false` with the fault [`crate::audit::audit_log`]
//! would give — after the one segment exchange.
//!
//! A spot check's chunk starts at its **anchor**: the SNAPSHOT entry of the
//! start snapshot, chained from the hash of the entry before it.  Once the
//! syntactic phase passed, the session requires that first entry to be the
//! SNAPSHOT record for the snapshot it asked for and reads the state root it
//! records.  The manifest must name that root, and staging proves the start
//! state hashes to the manifest's root, so the state a replay starts from is
//! the one the log commits to — not merely one the provider labels: a provider
//! cannot serve a *converging twin*, a different start state that the chunk
//! overwrites before it reads it, which no replay could tell apart.  Such a
//! state ends the session after the manifest with the root-mismatch
//! [`CoreError::Snapshot`].  The chunk ends at the SNAPSHOT entry `k`
//! snapshots later, or it is the log's tail: a chunk that does not close
//! there answers for every held authenticator past its start, and the
//! syntactic phase refuses one that leaves an authenticator past its end —
//! a withheld close.
//!
//! The authenticators are what bind the segment to the machine's history:
//! [`AuditSession::with_authenticators`] hands the session the machine's
//! key and what its clients collected, and a spot check judges its chunk —
//! anchor included — against those whose seq the chunk covers
//! ([`SpotCheckReport::authenticators_checked`]).  A check that held none
//! (or none inside its chunk) reports 0: its anchor is bound to nothing, and
//! it proves only that the chunk is *a* well-formed log that replays from
//! the state its anchor records — a provider answering with a consistent
//! twin execution's log and store passes it.
//!
//! The session owns no clock, no socket and no simulated network: a driver
//! calls [`AuditSession::start`], puts each [`Step::Send`] request on
//! whatever wire it has, and feeds every accepted response back through
//! [`AuditSession::on_response`] until the session answers [`Step::Done`].
//! One driver does: [`crate::fleet::FleetAuditor`], an [`avm_net::Endpoint`]
//! on an event loop, adding only the session envelope and the retransmit
//! timer.  [`crate::endpoint::AuditClient`] runs each of its audits as one.
//!
//! Responses arrive as the *borrowed* [`AuditResponseRef`]: the segment is
//! checked (and, from the image, replayed) in the packet, the manifest
//! decoded in place, blob payloads authenticated before they are copied
//! anywhere.  Every byte a provider sends is parsed and judged here and
//! nowhere else, so this is the one surface a hostile provider can reach
//! (and the one a fuzzer drives).
//! It holds no reference to provider state: what it knows is the image, the
//! key and authenticators it was given, its own blob cache and the bytes it
//! received.  The report states what the session received, and what a
//! download nobody made *would* have cost is priced by the experiments that
//! print it (`avm_bench::pricing`).
//!
//! # Prefetch and misses
//!
//! From a snapshot, both modes stage the start state from the manifest the
//! same way, and it authenticates against the same root.  The manifest
//! lists only the references the image lacks: an index it leaves out holds
//! the image's own leaf, which the root check covers like any listed one,
//! so a manifest that drops a divergent reference or adds one the image
//! determines does not authenticate.  Each list must be strictly increasing
//! by index — a list that names a leaf twice is refused, naming the index,
//! before anything stages.  What the auditor's cache or the image holds is
//! staged with its contents, every other divergent leaf *byteless* — its
//! digest in the hash slot, so every root is right, and nothing else
//! ([`avm_vm::LeafStore::stage_byteless`]).  Every blob
//! response is authenticated blob by blob against the digests it was asked
//! for, and every leaf staged under a received digest gets the bytes.
//!
//! A **full download** then asks for every byteless digest, in
//! [`AuditRequest::Blobs`] batches of [`DEFAULT_BLOB_BATCH`], and replays the
//! chunk once when the last batch is in — nothing has run yet, so a native
//! guest is supplied in place like a bytecode one.  It downloads what the
//! image and the cache lack: the manifest of the references the image
//! lacks and the blobs of those the cache lacks too, one round trip for the
//! manifest and one per batch.
//!
//! **On demand** prefetches nothing.  The first access that needs a
//! byteless leaf's bytes is a **miss**: replay stops, and the session sends
//! one [`AuditRequest::Blobs`] for the digests the missing access needs.
//! Once they are supplied, replay goes on:
//!
//! * **bytecode** — a step stops at the access, before any side effect, so
//!   the same replayer resumes in place;
//! * **native** — a kernel step cannot be unwound and may swallow the error,
//!   so the miss is reported after the step and the session re-stages the
//!   manifest with everything received so far and replays the chunk again.
//!   Only the run that reaches the verdict counts in the report.
//!
//! So on demand a blob crosses the wire only when replay touched it, in
//! first-touch order, one round trip per miss; a warm cache makes none.

use avm_attest::AttestVerdict;
use avm_crypto::keys::VerifyingKey;
use avm_crypto::sha256::Digest;
use avm_log::verify::{chain_in_parts, parts_for};
use avm_log::wire::decode_entries;
use avm_log::{Authenticator, EntryKind, EntryView, LogEntry, LogEntryRef};
use avm_vm::image::ImageKind;
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::attest::{AttestChallenge, AttestQuote};
use avm_wire::audit::{AuditRequest, AuditResponseRef, SegmentAddress};
use avm_wire::{BlobRequest, BlobResponseRef, Decode, DEFAULT_BLOB_BATCH};

use crate::attest::{challenge_nonce, LaunchPolicy};
use crate::audit::{audit_from_image, owned_segment, syntactic_phase, AuditReport};
use crate::endpoint::TransportStats;
use crate::error::{CoreError, FaultReason};
use crate::events::SnapshotRecord;
use crate::ondemand::{AuditorBlobCache, BlobFetch, ChainManifest, OnDemandCost, OnDemandSession};
use crate::replay::{ReplaySummary, Replayer};
use crate::spotcheck::SpotCheckReport;

// ---------------------------------------------------------------------------
// Response parsing
// ---------------------------------------------------------------------------

/// The error for a response of the wrong kind: the provider's own message
/// when it answered with an error, a protocol violation otherwise.
pub(crate) fn unexpected(expected: &str, got: AuditResponseRef<'_>) -> CoreError {
    match got {
        AuditResponseRef::Error { message } => CoreError::Snapshot(message.to_string()),
        other => CoreError::Snapshot(format!(
            "audit protocol violation: expected {expected} response, got {}",
            other.variant_name()
        )),
    }
}

/// A log-segment response: the chain anchor, each entry as a
/// [`LogEntryRef`] decoded in place — its seq its position after the
/// segment's first, its content and any checkpoint's claimed hash still the
/// packet's bytes, nothing copied out ([`avm_log::wire::decode_entries`]) —
/// and the bytes the records occupied in the packet.  The session judges a
/// segment where it landed.
///
/// `asked` is the `from_seq` of a [`SegmentAddress::Seq`] request: such a
/// segment must start where it was asked, and one asked from seq 1 must
/// hang off the genesis hash `h_0 = 0`.  The first seq is the auditor's to
/// choose, so a segment that starts elsewhere — a log whose head was cut
/// and re-anchored on the hash before the cut — is a protocol error before
/// anything is checked or replayed.  A chunk's start is the provider's to
/// resolve; its anchor entry is checked instead ([`anchor_root`]).
fn expect_log_entries(
    response: AuditResponseRef<'_>,
    asked: Option<u64>,
) -> Result<(Digest, Vec<LogEntryRef<'_>>, u64), CoreError> {
    let AuditResponseRef::LogSegment {
        prev_hash,
        first_seq,
        count,
        records,
    } = response
    else {
        return Err(unexpected("LogSegment", response));
    };
    let prev_hash = Digest(prev_hash);
    if let Some(from_seq) = asked {
        if first_seq != from_seq {
            return Err(CoreError::Snapshot(format!(
                "audit protocol violation: segment asked from seq {from_seq} starts at seq {first_seq}"
            )));
        }
        if from_seq == 1 && prev_hash != Digest::ZERO {
            return Err(CoreError::Snapshot(
                "audit protocol violation: segment from seq 1 is not anchored at h_0 = 0"
                    .to_string(),
            ));
        }
    }
    let views = decode_entries(first_seq, count, records)
        .map_err(|e| CoreError::Snapshot(format!("log entry does not decode: {e}")))?;
    Ok((prev_hash, views, records.len() as u64))
}

/// A log segment kept past its exchange, every entry copied out of the
/// packet with the hash the chain check computed for it: the standalone
/// downloads.  A segment whose chain does not check — a run that misses
/// its checkpoint, a record out of place — is refused, and so is a
/// [`SegmentAddress::Seq`] segment that does not start where it was asked
/// (`asked`, see [`expect_log_entries`]).
pub(crate) fn expect_log_segment(
    response: AuditResponseRef<'_>,
    asked: Option<u64>,
) -> Result<(Digest, Vec<LogEntry>, u64), CoreError> {
    let (prev_hash, entries, received) = expect_log_entries(response, asked)?;
    let chain = chain_in_parts(&prev_hash, &entries, parts_for(entries.len()));
    chain
        .verdict
        .map_err(|e| CoreError::Snapshot(format!("log segment does not check: {e}")))?;
    Ok((prev_hash, owned_segment(&entries, &chain.hashes), received))
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

/// The root a chunk's anchor records: `anchor` — the first entry of a
/// chunk that passed its syntactic phase, so its record decodes — must be
/// the SNAPSHOT entry for snapshot `id`.  A chunk that starts anywhere else
/// is not the segment the session asked for.
pub(crate) fn anchor_root(anchor: &impl EntryView, id: u64) -> Result<Digest, CoreError> {
    snapshot_root(anchor, id).ok_or_else(|| {
        CoreError::Snapshot(format!(
            "chunk does not start at the SNAPSHOT entry for snapshot {id} (seq {} is {:?})",
            anchor.seq(),
            anchor.kind()
        ))
    })
}

/// The state root `entry` records, if it is the SNAPSHOT entry for
/// snapshot `id`.
fn snapshot_root(entry: &impl EntryView, id: u64) -> Option<Digest> {
    match entry.kind() {
        EntryKind::Snapshot => SnapshotRecord::decode_exact(entry.content())
            .ok()
            .filter(|record| record.snapshot_id == id)
            .map(|record| record.state_root),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// Where an audit starts: the state its replay begins from, and so the log
/// segment it asks for first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Start {
    /// A fresh machine of the image, replaying the log segment
    /// `[from_seq, to_seq]` (`to_seq == 0`: to the end of the log) — the
    /// whole-log audit.  Every held authenticator must fall inside the
    /// segment: one past its end is a withheld tail.
    Image {
        /// First sequence number asked for (1: the whole log).
        from_seq: u64,
        /// Last sequence number asked for, `0` for the end of the log.
        to_seq: u64,
    },
    /// Snapshot `id`, replaying the `k`-chunk after it (§3.5), its state
    /// downloaded `on_demand` or in full (module docs, "# Prefetch and
    /// misses").
    Snapshot {
        /// Snapshot the chunk starts at.
        id: u64,
        /// Chunk size: snapshots the chunk spans.
        k: u64,
        /// §3.5 incremental state requests: fetch what replay misses
        /// instead of everything the image and cache lack.
        on_demand: bool,
    },
}

/// What the driver does next.
#[derive(Debug)]
// A session ends once: boxing its report would buy nothing.
#[allow(clippy::large_enum_variant)]
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

/// A snapshot start from the manifest to the verdict: the replay, and what
/// it is supplied, resumed or re-staged from.
struct StagedReplay {
    entries: Vec<LogEntry>,
    manifest: ChainManifest,
    manifest_bytes: u64,
    replayer: Replayer,
    ondemand: OnDemandSession,
    /// The blob exchanges so far.
    fetch: BlobFetch,
}

/// Which response the session is waiting for.
enum State {
    Idle,
    /// The launch must verify before any audit request goes out.
    Attest {
        challenge: AttestChallenge,
    },
    Segment,
    /// A snapshot start, the chunk through its syntactic phase: the
    /// entries after its anchor, and the root the anchor records.
    Manifest {
        entries: Vec<LogEntry>,
        root: Digest,
    },
    /// A full download before replay: `request` asks for one batch of what
    /// the image and the cache lack, `queued` holds the batches after it.
    Prefetch {
        replay: Box<StagedReplay>,
        request: BlobRequest,
        queued: std::vec::IntoIter<BlobRequest>,
    },
    /// On-demand replay stopped on a miss; `request` asks for what it needs.
    Missed {
        replay: Box<StagedReplay>,
        request: BlobRequest,
    },
    Done,
}

/// One audit, from the first request to the report (see the module docs for
/// the driver contract).
pub struct AuditSession<'a> {
    start: Start,
    image: &'a VmImage,
    registry: &'a GuestRegistry,
    /// The audited machine's key and the authenticators the auditor holds.
    held: (&'a VerifyingKey, &'a [Authenticator]),
    cache: AuditorBlobCache,
    /// Blobs received by this session; they join `cache` when it ends, so
    /// that staging reads only what the session started with.
    received: AuditorBlobCache,
    /// The launch policy and the session id the challenge nonce derives from.
    attest: Option<(&'a LaunchPolicy, u64)>,
    state: State,
    attest_verdict: Option<AttestVerdict>,
    /// Bytes the segment's records occupied in their packet.
    log_bytes: u64,
    /// Held authenticators the segment was judged against.
    authenticators_checked: usize,
    /// An image start's whole-log report, once judged.
    whole_log: Option<AuditReport>,
}

impl<'a> AuditSession<'a> {
    /// A session auditing from `start`, holding no authenticators.
    pub fn new(start: Start, image: &'a VmImage, registry: &'a GuestRegistry) -> AuditSession<'a> {
        AuditSession {
            start,
            image,
            registry,
            held: (&VerifyingKey::Null, &[]),
            cache: AuditorBlobCache::new(),
            received: AuditorBlobCache::new(),
            attest: None,
            state: State::Idle,
            attest_verdict: None,
            log_bytes: 0,
            authenticators_checked: 0,
            whole_log: None,
        }
    }

    /// Judges the segment against `authenticators` the audited machine
    /// signed under `machine_key` (module docs).
    pub fn with_authenticators(
        mut self,
        machine_key: &'a VerifyingKey,
        authenticators: &'a [Authenticator],
    ) -> AuditSession<'a> {
        self.held = (machine_key, authenticators);
        self
    }

    /// Resumes with the auditor's persistent blob cache.
    pub fn with_cache(mut self, cache: AuditorBlobCache) -> AuditSession<'a> {
        self.cache = cache;
        self
    }

    /// Opens the session with an attestation challenge under `policy`; the
    /// nonce derives from `session_id` and the start time
    /// ([`challenge_nonce`]).  The segment request goes out only on a
    /// verified launch; any other verdict ends the session.
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

    /// Ends the session, handing the blob cache — with every blob the
    /// session received — back for the next one.
    pub fn into_cache(self) -> AuditorBlobCache {
        let mut cache = self.cache;
        cache.absorb(self.received);
        cache
    }

    /// Ends an image-start session with its whole-log report — the verdict,
    /// and on a fault the [`crate::audit::Evidence`] a third party can
    /// check — naming the audited `machine`.  `None` before a verdict, and
    /// for a snapshot start, whose chunk a third party could not replay from
    /// the image.
    pub fn into_audit_report(self, machine: &str) -> Option<AuditReport> {
        let mut report = self.whole_log?;
        report.name(machine);
        Some(report)
    }

    /// Opens the session at simulated time `now_us`: the attestation
    /// challenge if a policy is set, the segment request otherwise.
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
            None => self.request_segment(),
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
            State::Segment => self.on_segment(response),
            State::Manifest { entries, root } => self.on_manifest(response, entries, root),
            State::Prefetch {
                replay,
                request,
                queued,
            } => self.on_prefetch(response, replay, &request, queued),
            State::Missed { replay, request } => self.on_missed(response, replay, &request),
            State::Idle | State::Done => Err(CoreError::Snapshot(
                "audit session has no exchange outstanding".to_string(),
            )),
        };
        next.unwrap_or_else(|error| Step::Done(Err(error)))
    }

    fn request_segment(&mut self) -> Step {
        self.state = State::Segment;
        let address = match self.start {
            Start::Image { from_seq, to_seq } => SegmentAddress::Seq { from_seq, to_seq },
            Start::Snapshot { id, k, .. } => SegmentAddress::Chunk {
                start_snapshot: id,
                chunk: k,
            },
        };
        Step::Send(AuditRequest::LogSegment(address))
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
        // Launch verified — the same session continues into the audit.
        Ok(self.request_segment())
    }

    /// The segment, judged where it landed before anything else is asked
    /// for (module docs).  The provider resolves a chunk's boundaries; one
    /// whose SNAPSHOT records do not all decode returns its log prefix
    /// instead (see `AuditServer::respond`), which the syntactic phase
    /// refuses at the record.
    fn on_segment(&mut self, response: AuditResponseRef<'_>) -> Result<Step, CoreError> {
        let asked = match self.start {
            Start::Image { from_seq, .. } => Some(from_seq),
            Start::Snapshot { .. } => None,
        };
        let (prev_hash, entries, log_bytes) = expect_log_entries(response, asked)?;
        self.log_bytes = log_bytes;
        let (key, held) = self.held;
        let Start::Snapshot { id, k, .. } = self.start else {
            // The start state is the image: both phases run on the packet,
            // side by side on a long segment.
            self.authenticators_checked = held.len();
            let (report, progress) =
                audit_from_image(&prev_hash, &entries, held, key, self.image, self.registry);
            let fault = report.fault().cloned();
            self.whole_log = Some(report);
            return Ok(self.finish((fault, progress), 0, None));
        };
        // A chunk starts mid-log, at its anchor, so it answers for the
        // authenticators whose seq it covers (an empty one covers none, and
        // its syntactic phase refuses it).  One that does not close at the
        // SNAPSHOT entry for `id + k` is the log's tail, so it answers for
        // every authenticator past its start: one past its end is a withheld
        // close, and the syntactic phase refuses it like a whole log's.
        let closes = entries.last().is_some_and(|last| {
            id.checked_add(k)
                .and_then(|end| snapshot_root(last, end))
                .is_some()
        });
        let covered = entries.first().zip(entries.last());
        let inside: Vec<Authenticator> = held
            .iter()
            .filter(|auth| {
                covered.is_some_and(|(first, last)| {
                    auth.seq >= first.seq() && (auth.seq <= last.seq() || !closes)
                })
            })
            .cloned()
            .collect();
        self.authenticators_checked = inside.len();
        let hashes = match syntactic_phase(&prev_hash, &entries, &inside, key) {
            Ok(hashes) => hashes,
            Err(fault) => {
                return Ok(self.finish((Some(fault), ReplaySummary::default()), 0, None));
            }
        };
        let root = anchor_root(&entries[0], id)?;
        let entries = owned_segment(&entries[1..], &hashes[1..]);
        self.state = State::Manifest { entries, root };
        Ok(Step::Send(AuditRequest::Manifest { snapshot_id: id }))
    }

    /// The snapshot a chunk starts at and its size `k` (both 0 from the
    /// image).
    fn chunk(&self) -> (u64, u64) {
        match self.start {
            Start::Snapshot { id, k, .. } => (id, k),
            Start::Image { .. } => (0, 0),
        }
    }

    fn on_manifest(
        &mut self,
        response: AuditResponseRef<'_>,
        entries: Vec<LogEntry>,
        root: Digest,
    ) -> Result<Step, CoreError> {
        let (manifest, manifest_bytes) = expect_manifest(response)?;
        // Staging proves the start state hashes to the manifest's root, so
        // that root must be the one the anchor records.
        if manifest.state_root != root {
            return Err(CoreError::Snapshot(format!(
                "manifest does not authenticate: manifest root {} != recorded root {}",
                manifest.state_root.short_hex(),
                root.short_hex()
            )));
        }
        let (replayer, ondemand) = self.stage(&manifest, manifest_bytes, &[])?;
        // A full download asks for every leaf staged without its bytes; on
        // demand nothing is prefetched.
        let prefetch = match self.start {
            Start::Snapshot {
                on_demand: false, ..
            } => {
                let byteless: Vec<_> = ondemand.byteless().iter().map(|digest| digest.0).collect();
                BlobRequest::batches(&byteless, DEFAULT_BLOB_BATCH)
            }
            _ => Vec::new(),
        };
        let run = Box::new(StagedReplay {
            entries,
            manifest,
            manifest_bytes,
            replayer,
            ondemand,
            fetch: BlobFetch::default(),
        });
        self.prefetch(run, prefetch.into_iter())
    }

    /// Asks for the next prefetch batch or, every batch in, replays the
    /// chunk.
    fn prefetch(
        &mut self,
        run: Box<StagedReplay>,
        mut queued: std::vec::IntoIter<BlobRequest>,
    ) -> Result<Step, CoreError> {
        let Some(request) = queued.next() else {
            return self.replay(run);
        };
        let step = Step::Send(AuditRequest::Blobs(request.clone()));
        self.state = State::Prefetch {
            replay: run,
            request,
            queued,
        };
        Ok(step)
    }

    /// The start state of `manifest` (module docs, "# Prefetch and
    /// misses"), with the `fetched` blobs this session received handed to
    /// their leaves.
    fn stage(
        &self,
        manifest: &ChainManifest,
        manifest_bytes: u64,
        fetched: &[Digest],
    ) -> Result<(Replayer, OnDemandSession), CoreError> {
        let (mut replayer, ondemand) = Replayer::from_manifest_on_demand(
            manifest,
            manifest_bytes,
            self.image,
            self.registry,
            &self.cache,
        )?;
        for digest in fetched {
            self.supply(&ondemand, &mut replayer, digest);
        }
        Ok((replayer, ondemand))
    }

    /// Hands the received blob `digest` to every leaf staged under it.
    fn supply(&self, ondemand: &OnDemandSession, replayer: &mut Replayer, digest: &Digest) {
        let content = self
            .received
            .get(digest)
            .expect("only received blobs are supplied");
        ondemand.supply(replayer.machine_mut(), digest, content);
    }

    /// Replays (or resumes) the chunk until it reaches a verdict, or stops
    /// on a miss and asks for the blobs the missing access needs.
    fn replay(&mut self, mut run: Box<StagedReplay>) -> Result<Step, CoreError> {
        let finished = run.replayer.summary().entries_replayed as usize;
        let Some(outcome) = run.replayer.replay_until_miss(&run.entries[finished..]) else {
            // Every miss must ask for something new, or replay would never
            // end: a received payload that fits no leaf staged under its
            // digest is missed again.
            let missed = run.ondemand.missed(run.replayer.machine());
            if let Some(again) = missed.iter().find(|d| self.received.contains(d)) {
                return Err(CoreError::Snapshot(format!(
                    "on-demand replay missed blob {} again: it fits no leaf staged under it",
                    again.short_hex()
                )));
            }
            if missed.is_empty() {
                return Err(CoreError::Snapshot(
                    "on-demand replay missed no staged leaf".to_string(),
                ));
            }
            let request = BlobRequest {
                digests: missed.iter().map(|digest| digest.0).collect(),
            };
            let step = Step::Send(AuditRequest::Blobs(request.clone()));
            self.state = State::Missed {
                replay: run,
                request,
            };
            return Ok(step);
        };
        let replayed = (outcome.fault().cloned(), run.replayer.summary());
        let classification = run.ondemand.classify_faults(run.replayer.machine())?;
        let cost = run.ondemand.assemble_cost(classification, run.fetch);
        // The manifest and the blob responses are the snapshot download.
        Ok(self.finish(replayed, cost.transfer_bytes, Some(cost)))
    }

    /// Authenticates a blob response against `request` and hands every
    /// payload to the leaves staged under its digest.
    fn receive(
        &mut self,
        response: AuditResponseRef<'_>,
        run: &mut StagedReplay,
        request: &BlobRequest,
    ) -> Result<(), CoreError> {
        let blobs = expect_blobs(response)?;
        run.fetch.accept(&mut self.received, request, &blobs)?;
        for raw in &request.digests {
            self.supply(&run.ondemand, &mut run.replayer, &Digest(*raw));
        }
        Ok(())
    }

    fn on_prefetch(
        &mut self,
        response: AuditResponseRef<'_>,
        mut run: Box<StagedReplay>,
        request: &BlobRequest,
        queued: std::vec::IntoIter<BlobRequest>,
    ) -> Result<Step, CoreError> {
        self.receive(response, &mut run, request)?;
        self.prefetch(run, queued)
    }

    fn on_missed(
        &mut self,
        response: AuditResponseRef<'_>,
        mut run: Box<StagedReplay>,
        request: &BlobRequest,
    ) -> Result<Step, CoreError> {
        self.receive(response, &mut run, request)?;
        if matches!(self.image.kind(), ImageKind::Native { .. }) {
            // The native step that missed ran on; start over with every
            // blob received so far.
            (run.replayer, run.ondemand) =
                self.stage(&run.manifest, run.manifest_bytes, &run.fetch.fetched)?;
        }
        self.replay(run)
    }

    /// Ends the session with its report — the one place a
    /// [`SpotCheckReport`] is assembled.
    fn finish(
        &mut self,
        (fault, progress): Replayed,
        snapshot_transfer_bytes: u64,
        on_demand: Option<OnDemandCost>,
    ) -> Step {
        self.state = State::Done;
        let (start_snapshot, chunk_size) = self.chunk();
        Step::Done(Ok(SpotCheckReport {
            start_snapshot,
            chunk_size,
            consistent: fault.is_none(),
            fault,
            entries_replayed: progress.entries_replayed,
            steps_replayed: progress.steps_executed,
            final_state: progress.final_state,
            authenticators_checked: self.authenticators_checked,
            log_transfer_bytes: self.log_bytes,
            snapshot_transfer_bytes,
            on_demand,
            transport: TransportStats::default(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{AuditClient, AuditServer, SimNetTransport};
    use crate::spotcheck::snapshot_positions_in;
    use crate::testutil::{key, record_with_snapshots, tampering_client, TamperingProvider};
    use avm_log::wire::wire_entries;
    use avm_log::EntryKind;
    use avm_wire::audit::{encode_log_segment, AuditResponse};
    use avm_wire::varint::varint_len;
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

    /// A segment response's entries copied out, each with the hash its
    /// chain check gives it; the response must be an honest one.
    fn received(response: &AuditResponse) -> Vec<LogEntry> {
        let AuditResponse::LogSegment {
            prev_hash,
            first_seq,
            count,
            records,
        } = response
        else {
            panic!("a segment, got {}", response.variant_name());
        };
        let views = decode_entries(*first_seq, *count, records).unwrap();
        let chain = chain_in_parts(&Digest(*prev_hash), &views, 1);
        assert_eq!(chain.verdict, Ok(()));
        owned_segment(&views, &chain.hashes)
    }

    /// `entries` as a segment response anchored at `prev_hash` carries
    /// them: from the first one's seq, each record claiming its own hash at
    /// the checkpoints of a segment of their number.
    fn shipped(prev_hash: [u8; 32], entries: &[LogEntry]) -> AuditResponse {
        let first_seq = entries.first().map_or(1, |e| e.seq);
        let body = encode_log_segment(&prev_hash, first_seq, wire_entries(entries));
        AuditResponse::decode_exact(&body).unwrap()
    }

    /// The records of a segment response, one per element, as the decode
    /// delimits them — what a test damages one record at a time.
    fn split(first_seq: u64, count: u64, records: &[u8]) -> Vec<Vec<u8>> {
        let base = records.as_ptr() as usize;
        spans(base, first_seq, count, records)
            .into_iter()
            .map(|(at, len)| records[at..at + len].to_vec())
            .collect()
    }

    /// Offset from `base` and length of each record in `records`, its
    /// claim included.
    fn spans(base: usize, first_seq: u64, count: u64, records: &[u8]) -> Vec<(usize, usize)> {
        let views = decode_entries(first_seq, count, records).unwrap();
        views
            .iter()
            .map(|view| {
                let len_len = varint_len(view.content.len() as u64);
                let at = view.content.as_ptr() as usize - base - len_len - 1;
                let claim = if view.claim.is_some() { 32 } else { 0 };
                (at, 1 + len_len + view.content.len() + claim)
            })
            .collect()
    }

    /// Offset and length of each record of a `LogSegment` body, in the body.
    fn records_in(body: &[u8]) -> Vec<(usize, usize)> {
        let AuditResponseRef::LogSegment {
            first_seq,
            count,
            records,
            ..
        } = AuditResponseRef::decode_exact(body).unwrap()
        else {
            panic!("a segment");
        };
        spans(body.as_ptr() as usize, first_seq, count, records)
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
            let mut session = AuditSession::new(
                Start::Snapshot {
                    id: 2,
                    k: 1,
                    on_demand,
                },
                &image,
                &registry,
            );
            if attest {
                session = session.with_attestation(&policy, 7);
            }
            let (sent, outcome) = drive(session, &server, honest);
            let report = outcome.unwrap();
            assert!(report.consistent, "{:?}", report.fault);
            assert_eq!(report.transport, TransportStats::default());
            let audit = &sent[usize::from(attest)..];
            assert_eq!(sent[0] == "Attest", attest);
            let cost = report.on_demand.as_ref().unwrap();
            assert!(!cost.fetched.is_empty(), "workload fetched nothing");
            assert_eq!(&audit[..2], ["Chunk", "Manifest"]);
            assert!(audit[2..].iter().all(|kind| *kind == "Blobs"));
            assert_eq!(audit.len() as u64, 1 + cost.round_trips);
            if !on_demand {
                // One batch per DEFAULT_BLOB_BATCH digests, nothing after.
                let batches = cost.fetched.len().div_ceil(DEFAULT_BLOB_BATCH);
                assert_eq!(audit.len(), 2 + batches);
            }
        }
    }

    /// Over a chunk that spans interior snapshots, the session and the
    /// provider's one-shot path ([`Replayer::from_snapshot_on_demand`] +
    /// [`OnDemandSession::finish`]) replay the same execution from the same
    /// manifest: the same verdict, progress and final root, the same faults
    /// and free blobs, and the same blobs fetched — the session in
    /// first-touch order, one `Blobs` exchange per miss, where `finish`
    /// batches them afterwards.  `manifest_bytes` is the same too: the slice
    /// that arrived is as long as the `encoded_len()` the one-shot path
    /// counts.
    #[test]
    fn on_demand_session_is_the_one_shot_path_over_the_wire() {
        let (bob, image) = record_with_snapshots(5);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        let session = AuditSession::new(
            Start::Snapshot {
                id: 1,
                k: 3,
                on_demand: true,
            },
            &image,
            &registry,
        );
        let mut chunk = Vec::new();
        let (sent, outcome) = drive(session, &server, |_, response| {
            if let AuditResponse::LogSegment { .. } = &response {
                chunk = received(&response);
            }
            response
        });
        let report = outcome.unwrap();
        assert!(report.consistent, "{:?}", report.fault);
        // The chunk opens with its anchor; replay runs what follows it.
        let anchor = chunk.remove(0);
        assert_eq!(anchor.kind, EntryKind::Snapshot);
        let interior = snapshot_positions_in(&chunk).unwrap().len() - 1;
        assert!(interior >= 2, "{interior} interior snapshots");

        let mut cache = AuditorBlobCache::new();
        let (mut replayer, ondemand) =
            Replayer::from_snapshot_on_demand(&image, &registry, bob.snapshots(), 1, &cache)
                .unwrap();
        assert!(replayer.replay(&chunk).is_consistent());
        let summary = replayer.summary();
        assert_eq!(
            (report.entries_replayed, report.steps_replayed),
            (summary.entries_replayed, summary.steps_executed)
        );
        assert_eq!(report.final_state, summary.final_state);
        let one_shot = ondemand
            .finish(replayer.machine(), bob.snapshots(), &mut cache)
            .unwrap();
        let cost = report.on_demand.unwrap();
        assert!(!cost.fetched.is_empty(), "workload fetched nothing");
        let misses = cost.fetched_per_exchange.len();
        let mut expected = vec!["Chunk", "Manifest"];
        expected.resize(2 + misses, "Blobs");
        assert_eq!(sent, expected);
        assert_eq!(cost.round_trips, 1 + misses as u64);
        assert_eq!(
            cost.fetched_per_exchange.iter().sum::<usize>(),
            cost.fetched.len()
        );
        let set = |fetched: &[Digest]| {
            fetched
                .iter()
                .copied()
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(set(&cost.fetched), set(&one_shot.fetched));
        assert_eq!(cost.fetched.len(), one_shot.fetched.len());
        let counters = |c: &OnDemandCost| {
            let faults = (c.chunks_faulted, c.blocks_faulted, c.untouched_staged);
            (c.manifest_bytes, faults, c.cache_hits, c.locally_derived)
        };
        assert_eq!(counters(&cost), counters(&one_shot));
    }

    /// The report's byte columns are what the scripted provider put on the
    /// wire, by kind — nothing is derived from the provider's store.
    #[test]
    fn report_columns_are_the_bytes_received_in_both_modes() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        for on_demand in [false, true] {
            let session = AuditSession::new(
                Start::Snapshot {
                    id: 2,
                    k: 1,
                    on_demand,
                },
                &image,
                &registry,
            );
            let (mut log, mut snapshot, mut wire) = (0u64, 0u64, 0u64);
            let (_, outcome) = drive(session, &server, |_, response| {
                wire += response.encoded_len() as u64;
                match &response {
                    AuditResponse::LogSegment { records, .. } => log += records.len() as u64,
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
                Some(snapshot)
            );
            // What a driver's wire carries covers what the report claims.
            assert!(wire >= report.snapshot_transfer_bytes + report.log_transfer_bytes);
        }
    }

    /// A section stream is no answer to any request an auditor sends, nor a
    /// manifest one to a blob request.
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
            (false, 1, "Manifest"),
            (false, 2, "Blobs"),
        ] {
            let session = AuditSession::new(
                Start::Snapshot {
                    id: 2,
                    k: 1,
                    on_demand,
                },
                &image,
                &registry,
            );
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
        // … and a manifest where a prefetch batch belongs.
        let session = AuditSession::new(
            Start::Snapshot {
                id: 2,
                k: 1,
                on_demand: false,
            },
            &image,
            &registry,
        );
        let (_, outcome) = drive(session, &server, |i, response| match i {
            2 => AuditResponse::Manifest { manifest: vec![] },
            _ => response,
        });
        let error = outcome.unwrap_err().to_string();
        assert!(
            error.contains("expected Blobs response, got Manifest"),
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
            let session = AuditSession::new(
                Start::Snapshot {
                    id: 2,
                    k: 1,
                    on_demand: true,
                },
                &image,
                &registry,
            );
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

    /// The pre-sized decode stays bounded by the bytes that arrived: a count
    /// no body could hold is refused before anything is allocated for it,
    /// and the count that sizes the vector of views is at most one per two
    /// received bytes (a record is at least a tag and a content length).
    #[test]
    fn hostile_entry_count_is_refused_before_allocation() {
        // tag ‖ prev hash ‖ first seq ‖ count ‖ a six-byte run.
        let body = |count: u64, run: &[u8]| {
            let mut body = vec![3u8];
            body.extend_from_slice(&[0x5a; 32]);
            avm_wire::varint::write_varint(&mut body, 1);
            avm_wire::varint::write_varint(&mut body, count);
            avm_wire::varint::write_varint(&mut body, run.len() as u64);
            body.extend_from_slice(run);
            body
        };
        for count in [1 << 40, 4] {
            assert_eq!(
                AuditResponseRef::decode_exact(&body(count, &[0; 6])).unwrap_err(),
                avm_wire::WireError::LengthOverflow {
                    declared: count,
                    max: 3,
                }
            );
        }
        // The largest count a six-byte run can declare: three records of
        // two bytes each — which then fail to decode.
        let body = body(3, &[1, 0, 1, 0, 1, 0]);
        let response = AuditResponseRef::decode_exact(&body).unwrap();
        let error = expect_log_segment(response.clone(), None)
            .unwrap_err()
            .to_string();
        assert!(
            error.contains("log entry does not decode: unexpected end of input"),
            "{error}"
        );
        // The session's in-place parser is the same parser.
        assert_eq!(
            expect_log_entries(response, None).unwrap_err().to_string(),
            error
        );
    }

    /// One damaged record ends the session with the decode error the run of
    /// records it sits in produces — never with a verdict.
    #[test]
    fn damaged_entry_encoding_ends_the_session_with_its_decode_error() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        type Damage = fn(&mut Vec<u8>);
        let damages: [Damage; 3] = [
            |record| record.truncate(record.len() - 1),
            |record| record[0] = 77,
            |record| record.push(0),
        ];
        for damage in damages {
            let session = AuditSession::new(
                Start::Snapshot {
                    id: 2,
                    k: 1,
                    on_demand: false,
                },
                &image,
                &registry,
            );
            let mut wanted = String::new();
            let (sent, outcome) = drive(session, &server, |_, response| match response {
                AuditResponse::LogSegment {
                    prev_hash,
                    first_seq,
                    count,
                    records,
                } => {
                    let mut split = split(first_seq, count, &records);
                    damage(&mut split[2]);
                    let records = split.concat();
                    let error = decode_entries(first_seq, count, &records).unwrap_err();
                    wanted = format!("log entry does not decode: {error}");
                    AuditResponse::LogSegment {
                        prev_hash,
                        first_seq,
                        count,
                        records,
                    }
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

    /// The standalone downloads hand out each entry with the hash the chain
    /// check computed for it — the recorded one — and refuse a segment whose
    /// run misses its checkpoint: a content byte flipped in an entry that
    /// ships without its hash names the next checkpoint.
    #[test]
    fn standalone_downloads_compute_hashes_and_refuse_a_broken_run() {
        let (bob, _) = record_with_snapshots(4);
        let server = AuditServer::new(bob.log(), bob.snapshots());
        let honest = |_: &AuditRequest, body: Vec<u8>| body;
        let mut client = tampering_client(server, honest);
        let (prev, entries) = client.fetch_log_segment(1, 0).unwrap();
        assert_eq!(prev, Digest::ZERO);
        assert_eq!(entries, bob.log().entries());
        let chunk = client.fetch_log_chunk(1, 2).unwrap();
        let first = chunk[0].seq as usize - 1;
        assert_eq!(chunk, bob.log().entries()[first..first + chunk.len()]);

        // Where the whole log ships without a hash, and the next claim.
        let AuditResponse::LogSegment {
            first_seq,
            count,
            records,
            ..
        } = server.handle(&AuditRequest::LogSegment(SegmentAddress::Seq {
            from_seq: 1,
            to_seq: 0,
        }))
        else {
            panic!("a segment");
        };
        let views = decode_entries(first_seq, count, &records).unwrap();
        let at = views
            .iter()
            .position(|v| v.claim.is_none() && !v.content.is_empty())
            .expect("a long log ships entries without their hash");
        let checkpoint = at + views[at..].iter().position(|v| v.claim.is_some()).unwrap();
        let flip = |request: &AuditRequest, mut body: Vec<u8>| match request {
            AuditRequest::LogSegment(SegmentAddress::Seq { .. }) => {
                let (record, len) = records_in(&body)[at];
                body[record + len - 1] ^= 1;
                body
            }
            _ => body,
        };
        let mut client = tampering_client(server, flip);
        let error = client.fetch_log_segment(1, 0).unwrap_err().to_string();
        assert!(
            error.contains(&format!(
                "log segment does not check: hash chain broken at sequence {}",
                checkpoint + 1
            )),
            "{error}"
        );
    }

    /// A `Seq` segment starts where it was asked.  A provider that drops
    /// the head of its log — everything before the first SNAPSHOT record,
    /// seq `k` — and re-anchors the rest on the real `h_{k−1}` serves a
    /// chain that checks from its anchor.  Shipped from seq `k`, it is not
    /// the segment asked for; shipped as if from seq 1, it does not hang
    /// off `h_0 = 0`.  Either ends the audit with a protocol error before
    /// anything is replayed, whether the client audits the log or runs the
    /// session, and so does a segment asked from a later seq that starts
    /// elsewhere.
    #[test]
    fn a_seq_segment_starts_where_it_was_asked() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        let bob_key = key(1).verifying_key();
        let log = bob.log().entries();
        let k = 1 + log
            .iter()
            .position(|e| e.kind == EntryKind::Snapshot)
            .expect("the recording snapshots");
        assert!(k > 2, "the head is more than one entry");
        let tail = &log[k - 1..];
        let anchor = log[k - 2].hash.0;
        type Cut = fn(u64, &[LogEntry], [u8; 32]) -> Vec<u8>;
        let cuts: [(Cut, u64, String); 3] = [
            (
                |k, tail, anchor| encode_log_segment(&anchor, k, wire_entries(tail)),
                1,
                format!("segment asked from seq 1 starts at seq {k}"),
            ),
            (
                |_, tail, anchor| encode_log_segment(&anchor, 1, wire_entries(tail)),
                1,
                "segment from seq 1 is not anchored at h_0 = 0".to_string(),
            ),
            (
                |k, tail, anchor| encode_log_segment(&anchor, k, wire_entries(tail)),
                2,
                format!("segment asked from seq 2 starts at seq {k}"),
            ),
        ];
        let honest = client_audit(server, &|_, body| body, 1, &bob_key, &image, &registry);
        assert!(honest.unwrap().passed());
        for (cut, from_seq, wanted) in cuts {
            let tamper = |request: &AuditRequest, body: Vec<u8>| match request {
                AuditRequest::LogSegment(SegmentAddress::Seq { .. }) => cut(k as u64, tail, anchor),
                _ => body,
            };
            let start = Start::Image {
                from_seq,
                to_seq: 0,
            };
            let outcomes = [
                client_audit(server, &tamper, from_seq, &bob_key, &image, &registry)
                    .map(|report| format!("{:?}", report.fault())),
                tampering_client(server, tamper)
                    .run(AuditSession::new(start, &image, &registry))
                    .map(|report| format!("{:?}", report.fault)),
            ];
            for (outcome, way) in outcomes.into_iter().zip(["audit_log", "run"]) {
                match outcome {
                    Err(CoreError::Snapshot(message)) => assert_eq!(
                        message,
                        format!("audit protocol violation: {wanted}"),
                        "{way}"
                    ),
                    other => panic!("{way}: expected a refusal, got {other:?}"),
                }
            }
        }
    }

    /// `AuditClient::audit_log` from `from_seq` to the end of the log, each
    /// response passed through `tamper`.
    fn client_audit(
        server: AuditServer<'_>,
        tamper: &dyn Fn(&AuditRequest, Vec<u8>) -> Vec<u8>,
        from_seq: u64,
        key: &VerifyingKey,
        image: &VmImage,
        registry: &GuestRegistry,
    ) -> Result<AuditReport, CoreError> {
        tampering_client(server, tamper).audit_log("bob", from_seq, 0, &[], key, image, registry)
    }

    /// An entry whose declared length overruns the packet is not a response
    /// at all: the exchange ends with the decode error and no audit runs on
    /// it.
    #[test]
    fn entry_overrunning_the_packet_never_reaches_an_audit() {
        let (bob, image) = record_with_snapshots(2);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        let mut client = tampering_client(server, |_: &AuditRequest, body: Vec<u8>| {
            // The run of records of whichever segment this is, one byte
            // longer than the packet holds.
            let (at, _) = records_in(&body)[0];
            let run = (body.len() - at) as u64;
            let mut longer = body[..at - varint_len(run)].to_vec();
            avm_wire::varint::write_varint(&mut longer, run + 1);
            longer.extend_from_slice(&body[at..]);
            longer
        });
        let error = client
            .audit_log("bob", 1, 0, &[], &key(1).verifying_key(), &image, &registry)
            .unwrap_err();
        assert!(error.to_string().contains("undecodable"), "{error}");
        let error = client.spot_check(0, 1, &image, &registry).unwrap_err();
        assert!(error.to_string().contains("undecodable"), "{error}");
    }

    /// The whole-log audit reads entries where they landed, so a hostile
    /// provider reaches its in-place decoder directly.  A segment declaring
    /// more entries than its bytes could hold is not a response at all; one
    /// more entry than its run has, or a record whose *content* length
    /// overruns the run, ends the audit with the decode error — for the
    /// record, the one the owned decode gives for the same bytes — an
    /// error, never a report.
    #[test]
    fn hostile_whole_log_segment_is_refused_with_its_decode_error() {
        let (bob, image) = record_with_snapshots(2);
        let registry = GuestRegistry::new();
        let server = AuditServer::new(bob.log(), bob.snapshots());
        let bob_key = key(1).verifying_key();
        let entries = bob.log().len();
        let audit_with = |tamper: &dyn Fn(Vec<u8>) -> Vec<u8>| {
            let tamper = |_: &AuditRequest, body| tamper(body);
            tampering_client(server, tamper)
                .audit_log("bob", 1, 0, &[], &bob_key, &image, &registry)
                .unwrap_err()
                .to_string()
        };

        // A count no body could hold …
        let recount = |body: Vec<u8>, count: &dyn Fn(u64) -> u64| {
            let AuditResponse::LogSegment {
                prev_hash,
                first_seq,
                count: honest,
                records,
            } = AuditResponse::decode_exact(&body).unwrap()
            else {
                panic!("a segment");
            };
            assert_eq!(honest as usize, entries);
            let count = count(honest);
            AuditResponse::LogSegment {
                prev_hash,
                first_seq,
                count,
                records,
            }
            .encode_to_vec()
        };
        let error = audit_with(&|body| recount(body, &|_| 1 << 40));
        assert!(
            error.starts_with(
                "snapshot error: audit transport: undecodable response: declared length 1099511627776 exceeds maximum "
            ),
            "{error}"
        );
        // … and one more entry than the run has: its records no longer fall
        // where a segment of that number puts its claims.
        let wanted = std::cell::RefCell::new(String::new());
        let error = audit_with(&|body| {
            let body = recount(body, &|honest| honest + 1);
            let Ok(AuditResponseRef::LogSegment {
                first_seq,
                count,
                records,
                ..
            }) = AuditResponseRef::decode_exact(&body)
            else {
                panic!("still a segment");
            };
            let error = decode_entries(first_seq, count, records).unwrap_err();
            *wanted.borrow_mut() = format!("snapshot error: log entry does not decode: {error}");
            body
        });
        assert_eq!(error, *wanted.borrow());

        // tag ‖ content length: the last record's content now claims the
        // hash bytes behind it, and more — the error the owned decode gives
        // for the stored entry those bytes make.
        let damaged = std::cell::RefCell::new(Vec::new());
        let error = audit_with(&|mut body| {
            let (at, len) = records_in(&body)[entries - 1];
            assert!(body[at + 1] < 0x80 - 40, "a one-byte content length");
            body[at + 1] += 40;
            let mut stored = Vec::new();
            avm_wire::varint::write_varint(&mut stored, entries as u64);
            stored.extend_from_slice(&body[at..at + len]);
            *damaged.borrow_mut() = stored;
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
        let honest = |_: &AuditRequest, body: Vec<u8>| body;
        let flipped = |_: &AuditRequest, mut body: Vec<u8>| {
            // kind ‖ content length, then the content's first byte.
            let (at, len) = records_in(&body)[target];
            assert!(len > 2 + 32 && body[at + 1] < 0x80);
            body[at + 2] ^= 0x01;
            body
        };
        let bob_key = key(1).verifying_key();
        let mut client = tampering_client(server, honest);
        let report = client
            .audit_log("bob", 1, 0, &[], &bob_key, &image, &registry)
            .unwrap();
        assert!(report.passed(), "{:?}", report.fault());

        let mut client = tampering_client(server, flipped);
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
        for (on_demand, exchanges) in [(false, 3), (true, 3)] {
            for at in 0..exchanges {
                let session = AuditSession::new(
                    Start::Snapshot {
                        id: 2,
                        k: 1,
                        on_demand,
                    },
                    &image,
                    &registry,
                );
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
            let session = AuditSession::new(
                Start::Snapshot {
                    id: 0,
                    k: 1,
                    on_demand,
                },
                &image,
                &registry,
            );
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

    // -----------------------------------------------------------------------
    // The audit wire is the whole interface
    // -----------------------------------------------------------------------

    use crate::endpoint::PROVIDER_NODE;
    use crate::events::AckRecord;
    use crate::snapshot::SnapshotStore;
    use crate::testutil::{
        converging_worker_twin, db_recording, disk_counter_recording, flip_disk_counter,
        ledger_recording, worker_edited_at, worker_recording, Recording, CONVERGING_AT,
        WORKER_RX_BUFFER,
    };
    use avm_net::{Delivery, Endpoint, LinkConfig, NodeId, SimNet};
    use avm_vm::packet::encode_guest_packet;
    use avm_vm::CHUNK_SIZE;
    use avm_wire::audit::{open_session_message, seal_encoded_message};
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::convert::identity;

    /// A provider with no server, no store and no lifetime behind it: it
    /// answers each request with the next recorded body, and only the
    /// request that body answered.
    struct Transcript {
        exchanges: VecDeque<(AuditRequest, Vec<u8>)>,
    }

    impl Endpoint for Transcript {
        fn node(&self) -> NodeId {
            PROVIDER_NODE
        }

        fn on_delivery(&mut self, net: &mut SimNet, delivery: Delivery) {
            let (session, id, request) =
                open_session_message::<AuditRequest>(&delivery.payload).unwrap();
            let (asked, body) = self.exchanges.pop_front().expect("transcript is exhausted");
            assert_eq!(asked, request, "the session asked something else");
            let _ = net.send(
                PROVIDER_NODE,
                delivery.from,
                seal_encoded_message(session, id, &body),
            );
        }

        fn on_tick(&mut self, _: &mut SimNet) -> Option<u64> {
            None
        }
    }

    /// The recordings the wire tests audit on demand: the bytecode worker
    /// and the native database guest, each beside its twin execution.
    fn recordings() -> [(&'static Recording, &'static Recording); 2] {
        [
            (worker_recording(false), worker_recording(true)),
            (db_recording(false), db_recording(true)),
        ]
    }

    /// An on-demand spot check needs nothing but the bytes it received: the
    /// responses of an honest check, each copied as the provider sent it,
    /// replayed to a fresh client by a provider that holds only those
    /// bytes, reach the same report — on a guest that resumes after a miss
    /// and on one that re-stages.
    #[test]
    fn a_spot_check_needs_no_provider_behind_its_transport() {
        for (recording, _) in recordings() {
            let (image, registry) = (&recording.image, &recording.registry);
            let server = AuditServer::new(&recording.log, &recording.store);
            let mut exchanges = VecDeque::new();
            let honest = tampering_client(server, |request: &AuditRequest, body: Vec<u8>| {
                exchanges.push_back((request.clone(), body.clone()));
                body
            })
            .spot_check_on_demand(0, 1, image, registry)
            .unwrap();
            assert!(honest.consistent, "{:?}", honest.fault);
            let blobs = exchanges
                .iter()
                .filter(|(request, _)| matches!(request, AuditRequest::Blobs(_)))
                .count();
            assert!(blobs > 0, "{}: the check missed nothing", image.name());

            let transcript = Transcript { exchanges };
            let mut offline = AuditClient::new(SimNetTransport::with_provider(
                transcript,
                LinkConfig::default(),
            ));
            let replayed = offline.spot_check_on_demand(0, 1, image, registry).unwrap();
            assert_eq!(replayed, honest);
        }
    }

    /// How a lying provider answers.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Lie {
        /// Manifest and blobs from the store of a twin execution.
        TwinStore,
        /// A manifest whose first reference names other content.
        FlipDigest,
        /// A manifest without its first (divergent) reference.
        DropRef,
        /// A manifest naming other content at a chunk the image determines.
        InsertRef,
        /// Another blob's payload in place of the one asked for.
        Swap,
        /// The payload asked for left out.
        Drop,
        /// One payload more than asked for.
        Append,
        /// The payload asked for, one byte short.
        Short,
        /// The first two payloads of a batch in each other's place.
        Reorder,
    }

    /// Blob exchanges an honest check of the chunk after `start` makes:
    /// prefetch batches, or misses on demand.
    fn blob_exchanges(recording: &Recording, start: u64, on_demand: bool) -> usize {
        let server = AuditServer::new(&recording.log, &recording.store);
        let mut count = 0;
        let tamper = |request: &AuditRequest, body| {
            count += usize::from(matches!(request, AuditRequest::Blobs(_)));
            body
        };
        let start = Start::Snapshot {
            id: start,
            k: 1,
            on_demand,
        };
        let session = AuditSession::new(start, &recording.image, &recording.registry);
        tampering_client(server, tamper).run(session).unwrap();
        count
    }

    /// `manifest` with `lie` told about its references: the first reference
    /// of whichever list is non-empty (the db guest's chunks all equal the
    /// image's, so its list of them is) with a digest byte flipped, or left
    /// out, or a reference inserted, in order, at the first chunk the image
    /// determines, naming other content than the image's there.
    fn lie_about_refs(manifest: &mut ChainManifest, lie: Lie, image: &VmImage) {
        if lie == Lie::InsertRef {
            let refs = &mut manifest.mem_refs;
            let at = (0..)
                .find(|&i| refs.get(i).is_none_or(|(idx, _)| *idx as usize != i))
                .unwrap();
            let mut other = image.baseline().leaf_hashes()[0][at];
            other.0[0] ^= 1;
            refs.insert(at, (at as u32, other));
            return;
        }
        let refs = match manifest.mem_refs.is_empty() {
            true => &mut manifest.disk_refs,
            false => &mut manifest.mem_refs,
        };
        assert!(!refs.is_empty(), "the honest manifest lists nothing");
        match lie {
            Lie::FlipDigest => refs[0].1 .0[0] ^= 1,
            Lie::DropRef => drop(refs.remove(0)),
            other => unreachable!("{other:?} is no lie about references"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A provider that lies about the state behind its log — answering
        /// from a twin execution's store, with a manifest that flips,
        /// drops or inserts a reference, or at one prefetch batch or miss
        /// swapping, dropping, adding, shortening or reordering payloads —
        /// never gets a consistent verdict in either mode, never panics the
        /// auditor, and a lie about a blob is an error that
        /// names the digest asked for, a lie about the manifest one that
        /// says it does not authenticate and names the root recorded.
        #[test]
        fn a_lying_provider_is_never_consistent(
            db in any::<bool>(),
            on_demand in any::<bool>(),
            lie in 0usize..9,
            start in 0u64..2,
            at in 0usize..8,
        ) {
            use Lie::*;
            let lie = [TwinStore, FlipDigest, DropRef, InsertRef, Swap, Drop, Append, Short, Reorder][lie];
            let about_manifest = matches!(lie, FlipDigest | DropRef | InsertRef);
            let (honest, twin) = recordings()[usize::from(db)];
            let exchanges = blob_exchanges(honest, start, on_demand);
            prop_assert!(exchanges > 0, "the check fetches nothing");
            let at = at % exchanges;
            let store = match lie {
                TwinStore => &twin.store,
                _ => &honest.store,
            };
            let other = honest.store.pooled_digests()[0];
            let (image, registry) = (&honest.image, &honest.registry);
            let mut blob_exchange = 0;
            let mut named = None;
            let tamper = |request: &AuditRequest, body: Vec<u8>| {
                match request {
                    AuditRequest::Manifest { .. } if about_manifest => {
                        let Ok(AuditResponse::Manifest { manifest }) = AuditResponse::decode_exact(&body)
                        else {
                            panic!("a manifest request gets a manifest");
                        };
                        let mut manifest = ChainManifest::decode_exact(&manifest).unwrap();
                        named = Some(format!("recorded root {}", manifest.state_root.short_hex()));
                        lie_about_refs(&mut manifest, lie, image);
                        AuditResponse::Manifest { manifest: manifest.encode_to_vec() }.encode_to_vec()
                    }
                    AuditRequest::Blobs(asked) if matches!(lie, Swap | Drop | Append | Short | Reorder) => {
                        blob_exchange += 1;
                        if blob_exchange != at + 1 {
                            return body;
                        }
                        let digest = Digest(asked.digests[0]);
                        named = Some(digest.short_hex());
                        let AuditResponse::Blobs(mut blobs) = AuditResponse::decode_exact(&body).unwrap()
                        else {
                            panic!("a blob request gets blobs");
                        };
                        let first = &mut blobs.blobs[0];
                        // A request for one digest has nothing to reorder:
                        // its payload is swapped for another instead.
                        let one = asked.digests.len() == 1;
                        match lie {
                            Reorder if !one => blobs.blobs.swap(0, 1),
                            Swap | Reorder => {
                                let swapped = if other == digest { honest.store.pooled_digests()[1] } else { other };
                                let request = BlobRequest { digests: vec![swapped.0] };
                                *first = honest.store.serve_blobs(&request).blobs.remove(0);
                            }
                            Drop => drop(blobs.blobs.remove(0)),
                            Append => blobs.blobs.push(Some(vec![0; 512])),
                            Short => drop(first.as_mut().unwrap().pop()),
                            _ => unreachable!(),
                        }
                        AuditResponse::Blobs(blobs).encode_to_vec()
                    }
                    _ => body,
                }
            };
            let server = AuditServer::new(&honest.log, store);
            let start = Start::Snapshot { id: start, k: 1, on_demand };
            let outcome = tampering_client(server, tamper).run(AuditSession::new(start, image, registry));
            match (outcome, named) {
                (Ok(report), None) => prop_assert!(!report.consistent, "{:?}", lie),
                (Err(_), None) => {}
                (Err(error), Some(named)) => {
                    prop_assert!(error.to_string().contains(&named), "{error} names no {named}");
                    prop_assert!(
                        !about_manifest || error.to_string().contains("manifest does not authenticate"),
                        "{:?}: {error}",
                        lie
                    );
                }
                (Ok(report), Some(_)) => {
                    prop_assert!(false, "{:?} reached a verdict: {:?}", lie, report.fault)
                }
            }
        }
    }

    // -----------------------------------------------------------------------
    // The syntactic phase comes first
    // -----------------------------------------------------------------------

    /// Both download modes: whether the state is fetched on demand.
    const MODES: [bool; 2] = [false, true];

    /// What one spot check did.
    struct Checked {
        /// The request kinds, in order.
        sent: Vec<&'static str>,
        /// Bytes of snapshot state received: manifest and blob responses.
        state_bytes: u64,
        outcome: Result<SpotCheckReport, CoreError>,
        /// The blob cache it left.
        cache: AuditorBlobCache,
    }

    /// A spot check of the chunk after `start` (`k = 1`) of `recording`'s
    /// image, on demand or not, starting from `cache`, against `server`
    /// with every response passed through `edit`, judged against `held`
    /// (signed under the fixtures' null key).
    fn spot(
        recording: &Recording,
        server: AuditServer<'_>,
        held: &[Authenticator],
        on_demand: bool,
        start: u64,
        cache: AuditorBlobCache,
        mut edit: impl FnMut(AuditResponse) -> AuditResponse,
    ) -> Checked {
        let (image, registry) = (&recording.image, &recording.registry);
        let null = VerifyingKey::Null;
        let (mut sent, mut state_bytes) = (Vec::new(), 0);
        let tamper = |request: &AuditRequest, body: Vec<u8>| {
            sent.push(kind(request));
            let response = edit(AuditResponse::decode_exact(&body).unwrap());
            match &response {
                AuditResponse::Manifest { manifest } => state_bytes += manifest.len() as u64,
                AuditResponse::Blobs(blobs) => state_bytes += blobs.encoded_len() as u64,
                _ => {}
            }
            response.encode_to_vec()
        };
        let start = Start::Snapshot {
            id: start,
            k: 1,
            on_demand,
        };
        let session = AuditSession::new(start, image, registry).with_authenticators(&null, held);
        let provider = TamperingProvider { server, tamper };
        let link = SimNetTransport::with_provider(provider, LinkConfig::default());
        let mut client = AuditClient::with_cache(link, cache);
        let outcome = client.run(session);
        let cache = client.into_cache();
        Checked {
            sent,
            state_bytes,
            outcome,
            cache,
        }
    }

    /// [`spot`] with an empty cache and the chunk's entries passed through
    /// `damage` — a provider that re-ships what it altered, each entry
    /// claiming its own hash at the new segment's checkpoints: the request
    /// kinds sent and how it ended.
    fn check(
        recording: &Recording,
        server: AuditServer<'_>,
        held: &[Authenticator],
        on_demand: bool,
        start: u64,
        mut damage: impl FnMut(Vec<LogEntry>) -> Vec<LogEntry>,
    ) -> (Vec<&'static str>, Result<SpotCheckReport, CoreError>) {
        let edit = |response| match response {
            AuditResponse::LogSegment { prev_hash, .. } => {
                shipped(prev_hash, &damage(received(&response)))
            }
            other => other,
        };
        let checked = spot(
            recording,
            server,
            held,
            on_demand,
            start,
            AuditorBlobCache::new(),
            edit,
        );
        (checked.sent, checked.outcome)
    }

    /// The twin execution's log and store, served to an auditor holding the
    /// honest run's authenticators: the chunk is refused at the first
    /// authenticator it covers, before any state is asked for — in both
    /// modes.  Held by no one, the same twin replays
    /// consistently, and the report says nothing bound it to a history.
    #[test]
    fn a_twin_history_is_a_syntactic_failure() {
        for (honest, twin) in recordings() {
            let server = AuditServer::new(&twin.log, &twin.store);
            for on_demand in MODES {
                let (sent, outcome) =
                    check(twin, server, &honest.authenticators, on_demand, 0, identity);
                let report = outcome.unwrap();
                assert_eq!(sent, ["Chunk"], "{on_demand:?}");
                assert!(!report.consistent);
                match &report.fault {
                    Some(FaultReason::SyntacticFailure(detail)) => {
                        assert!(detail.contains("authenticator does not match"), "{detail}")
                    }
                    other => panic!("expected an authenticator mismatch, got {other:?}"),
                }
                assert!(report.authenticators_checked > 0);
                assert_eq!(report.snapshot_transfer_bytes, 0);

                let (sent, outcome) = check(twin, server, &[], on_demand, 0, identity);
                let report = outcome.unwrap();
                assert!(report.consistent, "{:?}", report.fault);
                assert_eq!(report.authenticators_checked, 0);
                assert!(sent.len() > 1);
            }
        }
    }

    /// The honest chunk opens with ACKs of SENDs from before it — entries
    /// the auditor did not receive, so no fault — and passes with the
    /// authenticators it covers checked.  An ACK naming a seq inside the
    /// chunk that is no SEND is a cross-reference failure, found before any
    /// state is asked for.
    #[test]
    fn acks_are_judged_against_the_chunk_they_arrive_in() {
        let request = AuditRequest::LogSegment(SegmentAddress::Chunk {
            start_snapshot: 0,
            chunk: 1,
        });
        for (honest, _) in recordings() {
            let server = AuditServer::new(&honest.log, &honest.store);
            let chunk = received(&server.handle(&request));
            let ack = chunk
                .iter()
                .find(|e| {
                    e.kind == EntryKind::Ack
                        && AckRecord::decode_exact(&e.content).unwrap().send_seq < chunk[0].seq
                })
                .expect("the chunk acknowledges a SEND from before it");
            for on_demand in MODES {
                let (_, outcome) = check(
                    honest,
                    server,
                    &honest.authenticators,
                    on_demand,
                    0,
                    identity,
                );
                let report = outcome.unwrap();
                assert!(report.consistent, "{on_demand:?}: {:?}", report.fault);
                assert!(report.authenticators_checked > 0);
            }

            // The same ACK naming itself, the chain rebuilt over it.
            let mut rebuilt = avm_log::TamperEvidentLog::new();
            for e in honest.log.entries() {
                let content = if e.seq == ack.seq {
                    AckRecord {
                        send_seq: ack.seq,
                        ack_bytes: Vec::new(),
                    }
                    .encode_to_vec()
                } else {
                    e.content.clone()
                };
                rebuilt.append(e.kind, content);
            }
            let server = AuditServer::new(&rebuilt, &honest.store);
            for on_demand in MODES {
                let (sent, outcome) = check(honest, server, &[], on_demand, 0, identity);
                assert_eq!(sent, ["Chunk"]);
                let fault = outcome.unwrap().fault;
                assert!(
                    matches!(fault, Some(FaultReason::CrossReferenceFailure { seq, .. }) if seq == ack.seq),
                    "{fault:?}"
                );
            }
        }
    }

    /// A chunk that starts at the snapshot ending the log is its anchor
    /// alone: nothing to replay, and consistent.
    #[test]
    fn an_empty_chunk_is_consistent_with_no_entries() {
        for (honest, _) in recordings() {
            let entries = honest.log.entries();
            assert_eq!(entries.last().unwrap().kind, EntryKind::Snapshot);
            let last = snapshot_positions_in(entries).unwrap().last().unwrap().1;
            let server = AuditServer::new(&honest.log, &honest.store);
            for on_demand in MODES {
                let (sent, outcome) = check(
                    honest,
                    server,
                    &honest.authenticators,
                    on_demand,
                    last,
                    identity,
                );
                let report = outcome.unwrap();
                assert!(report.consistent, "{on_demand:?}: {:?}", report.fault);
                assert_eq!(report.entries_replayed, 0);
                assert_eq!(report.authenticators_checked, 0);
                // The anchor's record and its hash: a one-entry segment's
                // entry is its checkpoint.
                let anchor: usize = wire_entries(&entries[entries.len() - 1..])
                    .map(|e| e.encoded_len())
                    .sum();
                assert_eq!(report.log_transfer_bytes, anchor as u64);
                assert_eq!(sent[0], "Chunk");
                assert!(sent.len() > 1);
            }
        }
    }

    /// A chunk must start at its anchor: one whose first entry is not the
    /// SNAPSHOT entry for the start snapshot — the anchor dropped and the
    /// chain re-anchored at it, or the anchor of another snapshot — is not
    /// the segment the session asked for, and an empty one proves nothing.
    /// Either way the session ends before any state is asked for.
    #[test]
    fn a_chunk_must_start_at_its_anchor() {
        let (honest, _) = recordings()[0];
        let server = AuditServer::new(&honest.log, &honest.store);
        let drop_anchor = |response| match response {
            AuditResponse::LogSegment { .. } => {
                let entries = received(&response);
                shipped(entries[0].hash.0, &entries[1..])
            }
            other => other,
        };
        let other = server.handle(&AuditRequest::LogSegment(SegmentAddress::Chunk {
            start_snapshot: 2,
            chunk: 1,
        }));
        let other_anchor = |response| match response {
            AuditResponse::LogSegment { .. } => other.clone(),
            other => other,
        };
        for on_demand in MODES {
            for edit in [
                &drop_anchor as &dyn Fn(AuditResponse) -> AuditResponse,
                &other_anchor,
            ] {
                let checked = spot(
                    honest,
                    server,
                    &[],
                    on_demand,
                    1,
                    AuditorBlobCache::new(),
                    edit,
                );
                assert_eq!(checked.sent, ["Chunk"], "{on_demand:?}");
                match checked.outcome {
                    Err(CoreError::Snapshot(message)) => assert!(
                        message.contains("does not start at the SNAPSHOT entry for snapshot 1"),
                        "{message}"
                    ),
                    other => panic!("{on_demand:?}: expected a refusal, got {other:?}"),
                }
            }
            let (sent, outcome) = check(honest, server, &[], on_demand, 1, |_| Vec::new());
            assert_eq!(sent, ["Chunk"]);
            let fault = outcome.unwrap().fault;
            assert!(
                matches!(&fault, Some(FaultReason::SyntacticFailure(_))),
                "{fault:?}"
            );
        }
    }

    /// The honest log served with a *converging twin*'s store — a start
    /// state that differs from the one the log records only in bytes the
    /// chunk overwrites before it reads them, so a replay from it reaches
    /// every later root — is refused once the manifest arrives, in both
    /// modes: `CoreError::Snapshot`, "manifest does not
    /// authenticate".  The start state must hash to the root the chunk's
    /// chain-verified anchor records, not to the one the provider's manifest
    /// names.  The twin's own replay of the chunk shows what went undetected
    /// while the auditor took the manifest's word for it.
    #[test]
    fn a_converging_twin_start_state_is_refused_after_the_state_exchange() {
        let honest = worker_recording(false);
        let twin = converging_worker_twin();
        let root = |r: &Recording| r.store.get(CONVERGING_AT).unwrap().state_root;
        assert_ne!(root(twin), root(honest));
        let next = |r: &Recording| r.store.get(CONVERGING_AT + 1).unwrap().state_root;
        assert_eq!(next(twin), next(honest));
        assert!(converges(honest, &twin.store, CONVERGING_AT));

        let server = AuditServer::new(&honest.log, &twin.store);
        for on_demand in MODES {
            let (sent, outcome) = check(
                honest,
                server,
                &honest.authenticators,
                on_demand,
                CONVERGING_AT,
                identity,
            );
            assert_eq!(sent, ["Chunk", "Manifest"], "{on_demand:?}");
            assert_root_refused(outcome);
        }
    }

    /// The replay of `honest`'s chunk after `id`, from `store`'s state at
    /// `id` — as its provider would run it — is consistent.
    fn converges(honest: &Recording, store: &SnapshotStore, id: u64) -> bool {
        let server = AuditServer::new(&honest.log, &honest.store);
        let mut client = AuditClient::new(SimNetTransport::new(server, LinkConfig::default()));
        let chunk = client.fetch_log_chunk(id, 1).unwrap();
        let mut replayer =
            Replayer::from_snapshot(&honest.image, &honest.registry, store, id).unwrap();
        replayer.replay(&chunk).is_consistent()
    }

    fn assert_root_refused(outcome: Result<SpotCheckReport, CoreError>) {
        match outcome {
            Err(CoreError::Snapshot(message)) => {
                assert!(
                    message.contains("manifest does not authenticate"),
                    "{message}"
                )
            }
            other => panic!("expected the root-mismatch refusal, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any converging twin is refused: random packets, a random start
        /// snapshot, and a start state that differs from the logged root
        /// only in leaves the chunk overwrites before it reads them — some
        /// bytes of the worker's disk counter and of the rx buffer the next
        /// packet lands on.  The twin's own replay of the honest chunk is
        /// consistent (it converges); every session over the honest log and
        /// the twin's store ends after the manifest with the root-mismatch
        /// refusal, in either mode.
        #[test]
        fn a_start_state_converging_onto_the_log_is_never_accepted(
            lens in proptest::collection::vec(1usize..48, 3..6),
            pick in any::<u64>(),
            disk_mask in 1u8..255,
            rx_flips in proptest::collection::vec(any::<u8>(), 0..48),
            on_demand in any::<bool>(),
        ) {
            let payloads: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| encode_guest_packet("alice", &vec![b'a' + i as u8; len]))
                .collect();
            // Snapshot `id` is taken after packet `id`; its chunk delivers
            // packet `id + 1`, which `recv` writes over the rx buffer.
            let id = pick % (payloads.len() as u64 - 1);
            let overwritten = payloads[id as usize + 1].len().min(512);
            let rx: Vec<u8> = rx_flips.iter().copied().take(overwritten).collect();
            let honest = worker_edited_at(&payloads, id, |_| {});
            let twin = worker_edited_at(&payloads, id, |machine| {
                flip_disk_counter(machine, disk_mask);
                let memory = machine.memory_mut();
                let mut held = memory.read_vec(WORKER_RX_BUFFER, rx.len()).unwrap();
                for (byte, flip) in held.iter_mut().zip(&rx) {
                    *byte ^= flip;
                }
                memory.write(WORKER_RX_BUFFER, &held).unwrap();
            });
            let root = |r: &Recording, at| r.store.get(at).unwrap().state_root;
            prop_assert_ne!(root(&twin, id), root(&honest, id));
            prop_assert_eq!(root(&twin, id + 1), root(&honest, id + 1));
            prop_assert!(converges(&honest, &twin.store, id));

            let server = AuditServer::new(&honest.log, &twin.store);
            let checked = spot(&honest, server, &[], on_demand, id, AuditorBlobCache::new(), identity);
            prop_assert_eq!(&checked.sent, &["Chunk", "Manifest"]);
            assert_root_refused(checked.outcome);
        }
    }

    /// A guest's 8-byte read-modify-write of a divergent disk leaf costs an
    /// on-demand check one 512 B blob — the leaf, not the page around it —
    /// one miss, one `Blobs` exchange, one payload.
    #[test]
    fn an_eight_byte_disk_update_fetches_one_leaf() {
        let recording = disk_counter_recording();
        let server = AuditServer::new(&recording.log, &recording.store);
        let checked = spot(
            recording,
            server,
            &[],
            true,
            1,
            AuditorBlobCache::new(),
            identity,
        );
        assert_eq!(checked.sent, ["Chunk", "Manifest", "Blobs"]);
        let report = checked.outcome.unwrap();
        assert!(report.consistent, "{:?}", report.fault);
        let cost = report.on_demand.unwrap();
        assert_eq!((cost.chunks_faulted, cost.blocks_faulted), (0, 1));
        assert_eq!(cost.fetched.len(), 1);
        let blob = checked.cache.get(&cost.fetched[0]).unwrap();
        assert_eq!(blob.len(), CHUNK_SIZE);
        let response = avm_wire::BlobResponse {
            blobs: vec![Some(blob.to_vec())],
        };
        assert_eq!(
            checked.state_bytes,
            cost.manifest_bytes + response.encoded_len() as u64
        );
    }

    /// The native ledger's second pass appends across the boundary of two
    /// leaves that both diverge from the image: on demand, that one write
    /// misses both at once, the session fetches them in one exchange and
    /// replays the chunk again from a re-staged start — and reaches the
    /// verdict, progress and final root of a full download, from every start
    /// snapshot.
    #[test]
    fn a_native_append_across_two_divergent_leaves_is_the_full_download_verdict() {
        let recording = ledger_recording();
        let server = AuditServer::new(&recording.log, &recording.store);
        let mut straddled = 0;
        for start in 0..recording.store.len() as u64 - 1 {
            let run = |on_demand| {
                let checked = spot(
                    recording,
                    server,
                    &[],
                    on_demand,
                    start,
                    AuditorBlobCache::new(),
                    identity,
                );
                checked.outcome.unwrap()
            };
            let (on_demand, full) = (run(true), run(false));
            assert!(on_demand.consistent, "{start}: {:?}", on_demand.fault);
            let verdict = |r: &SpotCheckReport| {
                (
                    r.consistent,
                    r.fault.clone(),
                    r.entries_replayed,
                    r.steps_replayed,
                    r.final_state,
                )
            };
            assert_eq!(verdict(&on_demand), verdict(&full), "start {start}");
            let cost = on_demand.on_demand.unwrap();
            if cost.fetched_per_exchange == [2] {
                assert_eq!(cost.blocks_faulted, 2);
                straddled += 1;
            }
        }
        // Records of 100 B in a 1 KiB ring: the second pass's append at
        // byte 500 straddles leaves 0 and 1, in one chunk.
        assert_eq!(
            straddled, 1,
            "one chunk appends across two divergent leaves"
        );
    }

    // -----------------------------------------------------------------------
    // A full download is the prefetched on-demand audit
    // -----------------------------------------------------------------------

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// From any start snapshot, on both recordings, over the honest run,
        /// the twin run and the honest log served with the twin's store: the
        /// two modes reach the same verdict, progress
        /// and final root — for the last, the same refusal as soon as the
        /// manifest arrives, since the twin's state does not hash to the
        /// root the log records.  A full download sends the chunk request, the
        /// manifest request and one `Blobs` request per `DEFAULT_BLOB_BATCH`
        /// digests it lacks — no miss follows, so its one replay reached the
        /// verdict — and no `Sections`.  Its snapshot column is the manifest
        /// plus the blob responses it received, its fetched set covers every
        /// blob the on-demand replay touched, and once its cache holds them
        /// the same download sends no `Blobs` at all.
        #[test]
        fn a_full_download_is_the_prefetched_on_demand_audit(
            db in any::<bool>(),
            served in 0usize..3,
            pick in any::<u64>(),
        ) {
            let (honest, twin) = recordings()[usize::from(db)];
            let (log, store) = [(honest, honest), (twin, twin), (honest, twin)][served];
            let start = pick % log.store.len().min(store.store.len()) as u64;
            let server = AuditServer::new(&log.log, &store.store);
            let run = |on_demand, cache| {
                spot(log, server, &[], on_demand, start, cache, identity)
            };
            let verdict = |checked: &Checked| {
                checked
                    .outcome
                    .as_ref()
                    .map(|r| (r.consistent, r.fault.clone(), r.entries_replayed, r.steps_replayed, r.final_state))
                    .map_err(ToString::to_string)
            };
            let on_demand = run(true, AuditorBlobCache::new());
            let full = run(false, AuditorBlobCache::new());
            prop_assert_eq!(verdict(&full), verdict(&on_demand));
            let root = |r: &Recording| r.store.get(start).unwrap().state_root;
            if root(log) != root(store) {
                let refused = full.outcome.as_ref().unwrap_err().to_string();
                prop_assert!(refused.contains("manifest does not authenticate"), "{}", refused);
                prop_assert_eq!(&full.sent, &["Chunk", "Manifest"]);
                prop_assert_eq!(&on_demand.sent, &["Chunk", "Manifest"]);
                return Ok(());
            }
            prop_assert!(full.outcome.is_ok(), "{:?}", verdict(&full));

            let report = full.outcome.as_ref().unwrap();
            let cost = report.on_demand.as_ref().unwrap();
            let digests: Vec<_> = cost.fetched.iter().map(|digest| digest.0).collect();
            let batches: Vec<usize> =
                BlobRequest::batches(&digests, DEFAULT_BLOB_BATCH).iter().map(BlobRequest::len).collect();
            prop_assert_eq!(&cost.fetched_per_exchange, &batches);
            let mut expected = vec!["Chunk", "Manifest"];
            expected.resize(2 + batches.len(), "Blobs");
            prop_assert_eq!(&full.sent, &expected);
            prop_assert_eq!(report.snapshot_transfer_bytes, full.state_bytes);
            prop_assert_eq!(cost.transfer_bytes, full.state_bytes);
            let touched = &on_demand.outcome.as_ref().unwrap().on_demand.as_ref().unwrap().fetched;
            prop_assert!(touched.iter().all(|digest| cost.fetched.contains(digest)));

            let warm = run(false, full.cache);
            prop_assert_eq!(&warm.sent, &["Chunk", "Manifest"]);
            prop_assert_eq!(verdict(&warm), verdict(&on_demand));
        }
    }

    // -----------------------------------------------------------------------
    // The manifest lists what the image lacks
    // -----------------------------------------------------------------------

    /// [`spot`] of the honest recording with an empty cache and its
    /// manifest passed through `edit`.
    fn spot_manifest(
        recording: &Recording,
        on_demand: bool,
        start: u64,
        mut edit: impl FnMut(&mut ChainManifest),
    ) -> Checked {
        let server = AuditServer::new(&recording.log, &recording.store);
        let edit = |response| match response {
            AuditResponse::Manifest { manifest } => {
                let mut manifest = ChainManifest::decode_exact(&manifest).unwrap();
                edit(&mut manifest);
                AuditResponse::Manifest {
                    manifest: manifest.encode_to_vec(),
                }
            }
            other => other,
        };
        spot(
            recording,
            server,
            &[],
            on_demand,
            start,
            AuditorBlobCache::new(),
            edit,
        )
    }

    /// A manifest naming one leaf twice, or two out of order, would stage
    /// the same set as the honest one and so pass the root check; it is
    /// refused before anything stages or is fetched, with an error naming
    /// the index — both recordings, both modes.
    #[test]
    fn an_unordered_manifest_is_refused_before_staging() {
        for (honest, _) in recordings() {
            for on_demand in MODES {
                for start in 0..2 {
                    let mut named = String::new();
                    let checked = spot_manifest(honest, on_demand, start, |manifest| {
                        let (refs, name) = match manifest.mem_refs.is_empty() {
                            true => (&mut manifest.disk_refs, "disk block"),
                            false => (&mut manifest.mem_refs, "chunk"),
                        };
                        match refs.len() {
                            0 => panic!("the honest manifest lists nothing"),
                            1 => refs.push(refs[0]),
                            _ => refs.swap(0, 1),
                        }
                        named = format!("not strictly increasing at {name} {}", refs[1].0);
                    });
                    assert_eq!(checked.sent, ["Chunk", "Manifest"], "{on_demand:?}");
                    let error = checked.outcome.unwrap_err().to_string();
                    assert!(
                        error.contains(&named),
                        "{on_demand:?}: {error} names no {named}"
                    );
                }
            }
        }
    }

    /// The provider leaves out every reference that equals the image's leaf
    /// there.  Put back, they change only the bytes of the snapshot
    /// download: the same requests, verdict, fault, progress, final root and
    /// fetched blobs — both recordings, both modes, every
    /// start — and every such manifest is larger than the one served.
    #[test]
    fn image_equal_references_change_only_the_snapshot_bytes() {
        let bytes_blind = |report: &SpotCheckReport| {
            let mut report = report.semantic();
            report.snapshot_transfer_bytes = 0;
            let cost = report.on_demand.as_mut().unwrap();
            (cost.manifest_bytes, cost.transfer_bytes) = (0, 0);
            report
        };
        for (honest, _) in recordings() {
            for on_demand in MODES {
                for start in 0..honest.store.len() as u64 {
                    let filtered = spot_manifest(honest, on_demand, start, |_| {});
                    let unfiltered = spot_manifest(honest, on_demand, start, |manifest| {
                        let [mem_refs, disk_refs] = honest.store.effective_refs_upto(start);
                        for (listed, all) in [
                            (&manifest.mem_refs, &mem_refs),
                            (&manifest.disk_refs, &disk_refs),
                        ] {
                            assert!(listed.iter().all(|r| all.contains(r)));
                        }
                        (manifest.mem_refs, manifest.disk_refs) = (mem_refs, disk_refs);
                    });
                    assert_eq!(unfiltered.sent, filtered.sent, "{on_demand:?}");
                    let (filtered, unfiltered) =
                        (filtered.outcome.unwrap(), unfiltered.outcome.unwrap());
                    assert!(filtered.consistent, "{:?}", filtered.fault);
                    assert_eq!(
                        bytes_blind(&unfiltered),
                        bytes_blind(&filtered),
                        "{on_demand:?}"
                    );
                    assert!(
                        unfiltered.snapshot_transfer_bytes > filtered.snapshot_transfer_bytes,
                        "{on_demand:?} {start}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One entry of the chunk dropped, duplicated, swapped with its
        /// neighbour, or one content byte flipped, or a suffix of the chunk
        /// cut off: the syntactic phase refuses it, and no state is ever
        /// requested — both recordings, both modes, with and without
        /// authenticators.  A chunk cut short no longer closes at the
        /// SNAPSHOT entry asked for, so it is the log's tail, and a held
        /// authenticator past its end refuses it.  Held by no one, it is an
        /// honest, shorter chunk: it replays consistently, bound to nothing.
        #[test]
        fn a_damaged_chunk_is_caught_before_any_state_is_requested(
            db in any::<bool>(),
            mode in 0usize..2,
            held in any::<bool>(),
            damage in 0usize..5,
            index in any::<usize>(),
            pick in any::<u64>(),
        ) {
            let (honest, _) = recordings()[usize::from(db)];
            let held: &[Authenticator] = if held { &honest.authenticators } else { &[] };
            let server = AuditServer::new(&honest.log, &honest.store);
            let mut cut = false;
            let (sent, outcome) = check(honest, server, held, MODES[mode], 0, |mut entries| {
                let n = entries.len();
                assert!(n >= 2, "a chunk of {n} entries");
                let at = index % (n - 1);
                match damage {
                    0 => {
                        let at = index % n;
                        cut = at == n - 1;
                        drop(entries.remove(at));
                    }
                    1 => {
                        let copy = entries[at].clone();
                        entries.insert(at, copy);
                    }
                    2 => entries.swap(at, at + 1),
                    3 => {
                        let i = (at..n)
                            .chain(0..at)
                            .find(|&i| !entries[i].content.is_empty())
                            .expect("an entry has content");
                        let len = entries[i].content.len();
                        entries[i].content[pick as usize % len] ^= 1 << (pick % 8);
                    }
                    _ => {
                        cut = true;
                        entries.truncate(1 + at);
                    }
                }
                entries
            });
            let report = outcome.unwrap();
            if cut && held.is_empty() {
                prop_assert!(report.consistent, "{:?}", report.fault);
                prop_assert_eq!(report.authenticators_checked, 0);
                prop_assert_eq!(&sent[..2], &["Chunk", "Manifest"]);
                return Ok(());
            }
            prop_assert_eq!(sent, vec!["Chunk"]);
            prop_assert!(!report.consistent);
            prop_assert!(
                matches!(report.fault, Some(FaultReason::SyntacticFailure(_))),
                "{:?}",
                report.fault
            );
        }
    }
}
