//! The audit tool: syntactic check, semantic check, and evidence.
//!
//! "The audit tool performs two checks on `L_ij`, a syntactic check and a
//! semantic check.  The syntactic check determines whether the log itself is
//! well-formed, whereas the semantic check determines whether the information
//! in the log corresponds to a correct execution of `M_R`" (paper §4.5).
//! When either check fails, the auditor packages the log segment and the
//! authenticators into [`Evidence`] that any third party can verify
//! independently — without trusting the auditor or the audited machine.
//!
//! There is one audit, with two starts.  [`syntactic_phase`] is the first
//! check of every segment an auditor receives: the hash chain from the
//! segment's anchor, the held authenticators, the cross-references.  Its
//! verdict comes before the replay's.  From the image — the whole log:
//! [`audit_log`], and [`crate::session::AuditSession`] started at
//! [`crate::session::Start::Image`] — a long segment is replayed side by
//! side with its syntactic phase, which wins and stops the replay when it
//! fails; nothing is requested that could wait for it.  From a downloaded
//! snapshot — a §3.5 spot check, the same session started at
//! [`crate::session::Start::Snapshot`] — no state is requested until the
//! syntactic phase has passed.

use std::sync::atomic::{AtomicBool, Ordering};

use avm_crypto::keys::VerifyingKey;
use avm_crypto::parallel::in_parts;
use avm_crypto::sha256::Digest;
use avm_log::verify::{chain_in_parts, parts_for};
use avm_log::{verify_segment, Authenticator, EntryKind, EntryView, LogEntry};
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::Decode;

use crate::error::FaultReason;
use crate::events::{AckRecordRef, NdDetail, NdEventRecord, RecvRecordRef, SnapshotRecord};
use crate::replay::{ReplayOutcome, ReplaySummary, Replayer};

/// Verdict of an audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditOutcome {
    /// The machine's log is consistent with a correct execution.
    Pass(ReplaySummary),
    /// The machine is faulty; evidence is attached.
    Fail(Box<Evidence>),
}

/// Full report of one audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Name of the audited machine.
    pub machine: String,
    /// The verdict.
    pub outcome: AuditOutcome,
    /// Number of log entries examined.
    pub entries_examined: u64,
    /// Whether the syntactic check passed.
    pub syntactic_ok: bool,
}

impl AuditReport {
    /// Names the audited machine, in the report and in its evidence.
    pub(crate) fn name(&mut self, machine: &str) {
        self.machine = machine.to_string();
        if let AuditOutcome::Fail(evidence) = &mut self.outcome {
            evidence.machine = machine.to_string();
        }
    }

    /// True if the audit found no fault.
    pub fn passed(&self) -> bool {
        matches!(self.outcome, AuditOutcome::Pass(_))
    }

    /// The fault reason, if the audit failed.
    pub fn fault(&self) -> Option<&FaultReason> {
        match &self.outcome {
            AuditOutcome::Fail(evidence) => Some(&evidence.fault),
            AuditOutcome::Pass(_) => None,
        }
    }
}

/// Transferable evidence of a fault.
///
/// Evidence contains everything a third party needs to repeat the auditor's
/// checks: the reference image digest (the third party must hold the same
/// reference image), the log segment, the authenticators, and the fault the
/// auditor claims.  Verification re-runs both checks from scratch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// Name of the accused machine.
    pub machine: String,
    /// The fault the auditor claims to have found.
    pub fault: FaultReason,
    /// Hash of the entry preceding the segment (chain anchor).
    pub prev_hash: Digest,
    /// The log segment.
    pub segment: Vec<LogEntry>,
    /// Authenticators collected from the machine's messages.
    pub authenticators: Vec<Authenticator>,
    /// Digest of the reference image the auditor replayed against.
    pub reference_image: Digest,
}

impl Evidence {
    /// Independently verifies this evidence, as a third party would:
    /// re-run the syntactic check and the semantic check and confirm that a
    /// fault (not necessarily byte-identical in its description) is found.
    ///
    /// Returns `true` if the evidence indeed demonstrates a fault.  Evidence
    /// must be substantiated: an empty segment proves nothing (the paper's
    /// "machine returns no log" case leads to *suspicion*, resolved by the
    /// challenge protocol of §4.6, not to offline-verifiable proof), and any
    /// included authenticator must carry the accused machine's genuine
    /// signature — otherwise the auditor could frame an honest machine with
    /// fabricated data.
    pub fn verify(
        &self,
        machine_key: &VerifyingKey,
        reference: &VmImage,
        registry: &GuestRegistry,
    ) -> bool {
        if reference.digest() != self.reference_image {
            return false;
        }
        if self.segment.is_empty() {
            return false;
        }
        if self
            .authenticators
            .iter()
            .any(|a| a.verify_signature(machine_key).is_err())
        {
            return false;
        }
        let report = audit_log(
            &self.machine,
            &self.prev_hash,
            &self.segment,
            &self.authenticators,
            machine_key,
            reference,
            registry,
        );
        !report.passed()
    }
}

/// Audits a log segment: the syntactic phase and deterministic replay
/// against the reference image, side by side; the syntactic verdict wins
/// and stops the replay.
///
/// This is the full-audit entry point ("replaying the log from the beginning
/// of the execution"); over the wire it is an
/// [`crate::session::AuditSession`] started at the image, which makes the
/// same call (`audit_from_image`).
///
/// Generic over the [`EntryView`]: [`Evidence::verify`] passes the owned
/// segment it carries, the session the entries it decoded in place from the
/// provider's packet.  Nothing is copied out of the segment unless the audit
/// fails — the [`Evidence`] is the one owned copy of it.
#[allow(clippy::too_many_arguments)]
pub fn audit_log<E: EntryView>(
    machine_name: &str,
    prev_hash: &Digest,
    segment: &[E],
    authenticators: &[Authenticator],
    machine_key: &VerifyingKey,
    reference: &VmImage,
    registry: &GuestRegistry,
) -> AuditReport {
    let (mut report, _) = audit_from_image(
        prev_hash,
        segment,
        authenticators,
        machine_key,
        reference,
        registry,
    );
    report.name(machine_name);
    report
}

/// The whole-log audit — [`syntactic_phase`] and [`Replayer::replay`] from
/// a fresh machine of `reference`, side by side — and the report they add
/// up to, with the replay's truthful progress beside it.  A failed
/// syntactic phase is the verdict with `ReplaySummary::default()` for
/// progress, exactly as when it ran first and nothing was replayed; it
/// also stops the replay at its next entry, so the verdict does not wait
/// for it.  The report names no machine yet ([`AuditReport::name`]).
pub(crate) fn audit_from_image<E: EntryView>(
    prev_hash: &Digest,
    segment: &[E],
    authenticators: &[Authenticator],
    machine_key: &VerifyingKey,
    reference: &VmImage,
    registry: &GuestRegistry,
) -> (AuditReport, ReplaySummary) {
    let (syntactic, (verdict, progress)) = both_phases(
        prev_hash,
        segment,
        authenticators,
        machine_key,
        reference,
        registry,
    );
    let (syntactic_ok, outcome, progress) = match syntactic {
        Ok(hashes) => {
            let verdict = verdict.expect("only a failed syntactic phase stops the replay");
            (true, verdict.map_err(|fault| (fault, hashes)), progress)
        }
        Err(fault) => {
            // The hashes the failed check gave the segment: computed, with
            // the received claims at the checkpoints, so a third party's
            // check of the evidence finds the same fault.
            let hashes = chain_in_parts(prev_hash, segment, parts_for(segment.len())).hashes;
            (false, Err((fault, hashes)), ReplaySummary::default())
        }
    };
    let report = AuditReport {
        machine: String::new(),
        outcome: match outcome {
            Ok(summary) => AuditOutcome::Pass(summary),
            Err((fault, hashes)) => AuditOutcome::Fail(Box::new(Evidence {
                machine: String::new(),
                fault,
                prev_hash: *prev_hash,
                segment: owned_segment(segment, &hashes),
                authenticators: authenticators.to_vec(),
                reference_image: reference.digest(),
            })),
        },
        entries_examined: segment.len() as u64,
        syntactic_ok,
    };
    (report, progress)
}

/// `segment` copied out as owned entries, each with the hash the chain
/// check gave it (`hashes`, in order).
pub(crate) fn owned_segment<E: EntryView>(segment: &[E], hashes: &[Digest]) -> Vec<LogEntry> {
    segment
        .iter()
        .zip(hashes)
        .map(|(entry, hash)| entry.to_entry(*hash))
        .collect()
}

/// What a replay from the image came to: its verdict — `None` when a failed
/// syntactic phase stopped it first — and its truthful progress.
type FromImage = (Option<Result<ReplaySummary, FaultReason>>, ReplaySummary);

/// The two phases of a whole-log audit.  A segment that
/// [`avm_log::verify::parts_for`] splits is audited side by side, in two
/// parts of [`in_parts`]: the syntactic phase (itself in parts) on this
/// thread, the replay on a scoped one, and a failed syntactic phase stops
/// the replay at its next entry.  Any other segment — shorter than
/// [`avm_log::verify::SPLIT_THRESHOLD`], or on a one-core host — is audited
/// in sequence, and a failed syntactic phase replays nothing.
fn both_phases<E: EntryView>(
    prev_hash: &Digest,
    segment: &[E],
    authenticators: &[Authenticator],
    machine_key: &VerifyingKey,
    reference: &VmImage,
    registry: &GuestRegistry,
) -> (Result<Vec<Digest>, FaultReason>, FromImage) {
    let syntactic = || syntactic_phase(prev_hash, segment, authenticators, machine_key);
    let stop = AtomicBool::new(false);
    if parts_for(segment.len()) > 1 {
        /// What one part of the side-by-side audit came to.
        enum Phase {
            Syntactic(Result<Vec<Digest>, FaultReason>),
            Replay(FromImage),
        }
        // The syntactic phase is part 0: should the host refuse the replay
        // a thread, it runs first, and a failed one stops the replay before
        // its first entry.
        let phases = in_parts(vec![(); 2], |i, ()| {
            if i == 1 {
                return Phase::Replay(replay_from_image(reference, registry, segment, &stop));
            }
            let verdict = syntactic();
            if verdict.is_err() {
                // Relaxed: the flag publishes nothing; the verdict itself
                // comes back through the join.
                stop.store(true, Ordering::Relaxed);
            }
            Phase::Syntactic(verdict)
        });
        let Ok([Phase::Syntactic(verdict), Phase::Replay(replayed)]) =
            <[Phase; 2]>::try_from(phases)
        else {
            unreachable!("in_parts returns one result per part, in order");
        };
        return (verdict, replayed);
    }
    match syntactic() {
        Ok(hashes) => (
            Ok(hashes),
            replay_from_image(reference, registry, segment, &stop),
        ),
        Err(fault) => (Err(fault), (None, ReplaySummary::default())),
    }
}

/// The semantic phase from a fresh machine of `reference`, giving up before
/// its next entry once `stop` is set.
fn replay_from_image<E: EntryView>(
    reference: &VmImage,
    registry: &GuestRegistry,
    segment: &[E],
    stop: &AtomicBool,
) -> FromImage {
    let mut replayer = match Replayer::from_image(reference, registry) {
        Ok(replayer) => replayer,
        Err(e) => {
            let fault = FaultReason::SyntacticFailure(format!(
                "could not instantiate reference machine: {e}"
            ));
            return (Some(Err(fault)), ReplaySummary::default());
        }
    };
    let verdict = replayer
        .replay_unless(segment, stop)
        .map(|outcome| match outcome {
            ReplayOutcome::Consistent(summary) => Ok(summary),
            ReplayOutcome::Fault(fault) => Err(fault),
        });
    (verdict, replayer.summary())
}

/// The syntactic phase (§4.5) of a segment the auditor received, run before
/// anything is replayed or any state is requested: the hash chain extends
/// `prev_hash` with dense sequence numbers, every authenticator in
/// `authenticators` is genuine under `machine_key` and matches the entry it
/// names (so each must name one inside the segment), and the contents pass
/// [`syntactic_content_checks`].  An empty segment is a fault: it proves
/// nothing.  A failure is the audit's verdict; a pass gives the hash of
/// every entry, which a wire segment carries only at its checkpoints.
pub fn syntactic_phase<E: EntryView>(
    prev_hash: &Digest,
    segment: &[E],
    authenticators: &[Authenticator],
    machine_key: &VerifyingKey,
) -> Result<Vec<Digest>, FaultReason> {
    let summary = verify_segment(prev_hash, segment, authenticators, machine_key)
        .map_err(|e| FaultReason::SyntacticFailure(e.to_string()))?;
    syntactic_content_checks(segment)?;
    Ok(summary.hashes)
}

/// Additional syntactic checks on entry contents: every RECV, ACK,
/// nondeterministic-event and SNAPSHOT record must decode, every packet
/// injection must name an earlier RECV entry (paper §4.4: "the AVMM
/// cross-references messages and inputs in such a way that any
/// discrepancies can easily be detected"), and every ACK an earlier SEND.
/// An injection carries no copy of the payload it names, so replay injects
/// the RECV's own.
///
/// A reference to a seq below the segment's first is to an entry the
/// auditor did not receive — a spot check's chunk starts mid-log — so it is
/// not a fault here; a whole log starts at seq 1, where there is no such
/// seq.  (Replay still needs an injection's RECV: it faults on one it never
/// saw.)
///
/// Records are decoded in place; the check keeps the seq of every RECV and
/// SEND and nothing else.
pub fn syntactic_content_checks<E: EntryView>(segment: &[E]) -> Result<(), FaultReason> {
    let first = segment.first().map_or(0, EntryView::seq);
    // RECV and SEND seqs in segment order: ascending, since `verify_segment`
    // has already established dense sequence numbers.
    let mut recv_seqs: Vec<u64> = Vec::new();
    let mut send_seqs: Vec<u64> = Vec::new();
    for entry in segment {
        let seq = entry.seq();
        let malformed = |_| FaultReason::MalformedLog { seq };
        match entry.kind() {
            EntryKind::Recv => {
                RecvRecordRef::decode_exact(entry.content()).map_err(malformed)?;
                recv_seqs.push(seq);
            }
            EntryKind::Send => {
                send_seqs.push(seq);
            }
            EntryKind::Snapshot => {
                SnapshotRecord::decode_exact(entry.content()).map_err(malformed)?;
            }
            EntryKind::Ack => {
                let rec = AckRecordRef::decode_exact(entry.content()).map_err(malformed)?;
                if rec.send_seq >= first && send_seqs.binary_search(&rec.send_seq).is_err() {
                    return Err(FaultReason::CrossReferenceFailure {
                        seq,
                        detail: format!(
                            "acknowledgment refers to SEND entry {} which is not in the segment",
                            rec.send_seq
                        ),
                    });
                }
            }
            EntryKind::NdEvent => {
                let rec = NdEventRecord::decode_exact(entry.content()).map_err(malformed)?;
                if let NdDetail::PacketInjected { recv_seq } = rec.detail {
                    if recv_seq >= first && recv_seqs.binary_search(&recv_seq).is_err() {
                        return Err(FaultReason::CrossReferenceFailure {
                            seq,
                            detail: format!(
                                "injection references RECV entry {recv_seq} not present in the segment"
                            ),
                        });
                    }
                }
            }
            EntryKind::Meta => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AvmmOptions;
    use crate::envelope::{Envelope, EnvelopeKind};
    use crate::events::AckRecord;
    use crate::recorder::{Avmm, HostClock};
    use avm_crypto::keys::{SignatureScheme, SigningKey};
    use avm_crypto::sha256::sha256;
    use avm_vm::bytecode::assemble;
    use avm_vm::packet::encode_guest_packet;
    use avm_wire::Encode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(seed: u64) -> SigningKey {
        let mut rng = StdRng::seed_from_u64(seed);
        SigningKey::generate(&mut rng, SignatureScheme::Rsa(512))
    }

    fn echo_image() -> VmImage {
        let src = r"
                movi r1, 0x8000
                movi r2, 512
            loop:
                clock r4
                recv r0, r1, r2
                cmp r0, r6
                jne got
                idle
                jmp loop
            got:
                send r1, r0
                jmp loop
            ";
        VmImage::bytecode("echo", 128 * 1024, assemble(src, 0).unwrap(), 0, 0)
    }

    /// Records a session where Alice exchanges packets with Bob's AVMM and
    /// collects the authenticators Bob's machine hands out.
    fn record(bob_key: SigningKey, image: &VmImage) -> (Avmm, Vec<Authenticator>, SigningKey) {
        let alice_key = key(2);
        let mut bob = Avmm::new(
            "bob",
            image,
            &GuestRegistry::new(),
            bob_key,
            AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512)),
        )
        .unwrap();
        bob.add_peer("alice", alice_key.verifying_key());
        let mut collected = Vec::new();
        let mut clock = HostClock::at(100);
        bob.run_slice(&clock, 10_000).unwrap();
        for i in 0..3u8 {
            clock.advance_to(clock.now() + 500);
            let payload = encode_guest_packet("alice", &[b'p', i]);
            let env = Envelope::create(
                EnvelopeKind::Data,
                "alice",
                "bob",
                i as u64 + 1,
                payload,
                &alice_key,
                None,
            );
            let ack = bob.deliver(&env).unwrap().unwrap();
            // Alice keeps the authenticator from Bob's acknowledgment.
            if let Some(a) = ack.decode_ack().unwrap().authenticator {
                collected.push(a);
            }
            for out in bob.run_slice(&clock, 50_000).unwrap() {
                // Alice also keeps the authenticators attached to Bob's data.
                if let Some(a) = &out.envelope.authenticator {
                    collected.push(a.clone());
                }
            }
        }
        (bob, collected, alice_key)
    }

    #[test]
    fn honest_machine_passes_full_audit() {
        let image = echo_image();
        let bob_key = key(1);
        let bob_pub = bob_key.verifying_key();
        let (bob, auths, _) = record(bob_key, &image);
        let (prev, segment) = bob.log().segment(1, bob.log().len() as u64).unwrap();
        let report = audit_log(
            "bob",
            &prev,
            &segment,
            &auths,
            &bob_pub,
            &image,
            &GuestRegistry::new(),
        );
        assert!(report.passed(), "{:?}", report.fault());
        assert!(report.syntactic_ok);
        assert_eq!(report.entries_examined, bob.log().len() as u64);
    }

    #[test]
    fn rewritten_log_fails_syntactic_check_and_evidence_verifies() {
        let image = echo_image();
        let bob_key = key(1);
        let bob_pub = bob_key.verifying_key();
        let (bob, auths, _) = record(bob_key, &image);
        let (prev, mut segment) = bob.log().segment(1, bob.log().len() as u64).unwrap();
        // Bob tampers with a logged entry after the fact.
        let idx = segment
            .iter()
            .position(|e| e.kind == EntryKind::Send)
            .unwrap();
        segment[idx].content[3] ^= 0x01;
        let report = audit_log(
            "bob",
            &prev,
            &segment,
            &auths,
            &bob_pub,
            &image,
            &GuestRegistry::new(),
        );
        assert!(!report.passed());
        assert!(!report.syntactic_ok);
        let AuditOutcome::Fail(evidence) = &report.outcome else {
            panic!()
        };
        assert!(matches!(evidence.fault, FaultReason::SyntacticFailure(_)));
        // A third party can verify the evidence without trusting the auditor.
        assert!(evidence.verify(&bob_pub, &image, &GuestRegistry::new()));
        // Evidence against the wrong reference image does not verify.
        let other = VmImage::bytecode("x", 4096, assemble("halt", 0).unwrap(), 0, 0);
        assert!(!evidence.verify(&bob_pub, &other, &GuestRegistry::new()));
    }

    #[test]
    fn injection_without_recv_fails_cross_reference_check() {
        let image = echo_image();
        let bob_key = key(1);
        let bob_pub = bob_key.verifying_key();
        let (bob, _, _) = record(bob_key, &image);
        // Drop all RECV entries but keep the injections, then rebuild the
        // chain (so the hash chain itself is valid).
        let mut rebuilt = avm_log::TamperEvidentLog::new();
        for e in bob.log().entries() {
            if e.kind == EntryKind::Recv {
                continue;
            }
            rebuilt.append(e.kind, e.content.clone());
        }
        let (prev, segment) = rebuilt.segment(1, rebuilt.len() as u64).unwrap();
        let report = audit_log(
            "bob",
            &prev,
            &segment,
            &[],
            &bob_pub,
            &image,
            &GuestRegistry::new(),
        );
        assert!(!report.passed());
        assert!(matches!(
            report.fault(),
            Some(FaultReason::CrossReferenceFailure { .. })
        ));
    }

    #[test]
    fn ack_naming_a_send_outside_the_segment_fails_at_that_ack() {
        let ack = |send_seq: u64| {
            AckRecord {
                send_seq,
                ack_bytes: Vec::new(),
            }
            .encode_to_vec()
        };
        let mut log = avm_log::TamperEvidentLog::new();
        log.append(EntryKind::Meta, Vec::new()); // 1
        log.append(EntryKind::Send, b"first".to_vec()); // 2
        log.append(EntryKind::Send, b"second".to_vec()); // 3
        log.append(EntryKind::Ack, ack(3)); // 4
        log.append(EntryKind::Ack, ack(2)); // 5
        log.append(EntryKind::Ack, ack(9)); // 6: no such SEND anywhere

        // Whole log: both real SENDs are found (in either order); the ACK
        // for the SEND that never existed is the fault, at its own seq.
        let fault = syntactic_content_checks(log.entries()).unwrap_err();
        assert!(
            matches!(fault, FaultReason::CrossReferenceFailure { seq: 6, .. }),
            "got {fault:?}"
        );
        // A segment that starts after SEND 2: the ACK at 5 names an entry
        // the auditor did not receive — a spot check's chunk starts mid-log
        // — which proves nothing either way, so it is no fault.
        assert!(syntactic_content_checks(log.entries_range(3..=5)).is_ok());
        assert!(syntactic_content_checks(log.entries_range(2..=5)).is_ok());
        // A seq from the segment's first on must be a SEND before the ACK.
        let fault = syntactic_content_checks(log.entries_range(4..=6)).unwrap_err();
        assert!(
            matches!(fault, FaultReason::CrossReferenceFailure { seq: 6, .. }),
            "got {fault:?}"
        );
    }

    /// An injection names its RECV by seq alone, so the seq must be a RECV
    /// earlier in the segment: a SEND, a SNAPSHOT, the injection itself or
    /// a later entry is the fault, at the injection's seq, on a whole log
    /// and on a chunk; a seq below the chunk is no fault.
    #[test]
    fn an_injection_must_name_an_earlier_recv() {
        let machine_key = key(1).verifying_key();
        let inject = |recv_seq: u64| {
            NdEventRecord {
                step: 1,
                detail: NdDetail::PacketInjected { recv_seq },
            }
            .encode_to_vec()
        };
        let recv = crate::events::RecvRecord {
            source: "alice".into(),
            msg_id: 1,
            payload: b"pkt".to_vec(),
            signature: Vec::new(),
        }
        .encode_to_vec();
        let snapshot = SnapshotRecord {
            step: 1,
            snapshot_id: 0,
            state_root: Digest::ZERO,
        }
        .encode_to_vec();
        // A SEND, a SNAPSHOT, the injection itself, a later RECV.
        for named in [3, 4, 6, 7] {
            let mut log = avm_log::TamperEvidentLog::new();
            log.append(EntryKind::Meta, Vec::new()); // 1
            log.append(EntryKind::Recv, recv.clone()); // 2
            log.append(EntryKind::Send, b"out".to_vec()); // 3
            log.append(EntryKind::Snapshot, snapshot.clone()); // 4
            log.append(EntryKind::NdEvent, inject(2)); // 5
            log.append(EntryKind::NdEvent, inject(named)); // 6
            log.append(EntryKind::Recv, recv.clone()); // 7
            for (from, to) in [(1, 7), (2, 7), (3, 7)] {
                let (prev, segment) = log.segment(from, to).unwrap();
                let fault = syntactic_phase(&prev, &segment, &[], &machine_key).unwrap_err();
                assert!(
                    matches!(fault, FaultReason::CrossReferenceFailure { seq: 6, .. }),
                    "injection naming {named} in {from}..={to}: got {fault:?}"
                );
            }
        }
        // From seq 3 on, injection 5 names a RECV the chunk does not hold.
        let mut log = avm_log::TamperEvidentLog::new();
        log.append(EntryKind::Meta, Vec::new()); // 1
        log.append(EntryKind::Recv, recv.clone()); // 2
        log.append(EntryKind::Send, b"out".to_vec()); // 3
        log.append(EntryKind::NdEvent, inject(2)); // 4
        for from in [1, 2, 3, 4] {
            let (prev, segment) = log.segment(from, 4).unwrap();
            syntactic_phase(&prev, &segment, &[], &machine_key).unwrap();
        }
    }

    /// A spot check that starts between a RECV and its injection passes the
    /// syntactic phase; the replay, which never saw the RECV, is the fault.
    #[test]
    fn an_injection_naming_a_recv_below_the_chunk_faults_in_replay() {
        let image = echo_image();
        let (bob, _, _) = record(key(1), &image);
        let entries = bob.log().entries();
        let recv = entries
            .iter()
            .position(|e| e.kind == EntryKind::Recv)
            .unwrap();
        let chunk = &entries[recv + 1..];
        let injection = chunk[0].seq;
        assert!(matches!(
            NdEventRecord::decode_exact(&chunk[0].content).unwrap().detail,
            NdDetail::PacketInjected { recv_seq } if recv_seq == injection - 1
        ));
        syntactic_content_checks(chunk).unwrap();
        // The replayer holds the state the chunk starts from.
        let mut replayer = Replayer::from_image(&image, &GuestRegistry::new()).unwrap();
        for entry in &entries[..recv] {
            replayer.replay_entry(entry).unwrap();
        }
        let fault = replayer.replay(chunk).fault().cloned();
        assert!(
            matches!(
                fault,
                Some(FaultReason::CrossReferenceFailure { seq, .. }) if seq == injection
            ),
            "got {fault:?}"
        );
    }

    #[test]
    fn semantic_failure_produces_verifiable_evidence() {
        let image = echo_image();
        let bob_key = key(1);
        let bob_pub = bob_key.verifying_key();
        let (bob, _, _) = record(bob_key, &image);
        // Bob rebuilds his log from scratch with a modified SEND payload and
        // fresh authenticators — syntactically valid, semantically wrong.
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
        let (prev, segment) = rebuilt.segment(1, rebuilt.len() as u64).unwrap();
        let report = audit_log(
            "bob",
            &prev,
            &segment,
            &[],
            &bob_pub,
            &image,
            &GuestRegistry::new(),
        );
        assert!(!report.passed());
        assert!(report.syntactic_ok);
        let AuditOutcome::Fail(evidence) = &report.outcome else {
            panic!()
        };
        assert!(evidence.verify(&bob_pub, &image, &GuestRegistry::new()));
    }

    /// A chain-valid log of `n` entries after its META whose replay costs
    /// `steps` guest steps per entry: input events on a guest that spins.
    fn slow_replay_log(image: &VmImage, n: u64, steps: u64) -> avm_log::TamperEvidentLog {
        use crate::events::MetaRecord;
        use avm_vm::devices::InputEvent;
        let mut log = avm_log::TamperEvidentLog::new();
        let meta = MetaRecord {
            image_digest: image.digest(),
            node_name: "bob".into(),
            scheme_label: "nosig".into(),
        };
        log.append(EntryKind::Meta, meta.encode_to_vec());
        for i in 1..=n {
            let event = NdEventRecord {
                step: i * steps,
                detail: NdDetail::InputInjected {
                    event: InputEvent {
                        device: 0,
                        code: 1,
                        value: 1,
                    },
                },
            };
            log.append(EntryKind::NdEvent, event.encode_to_vec());
        }
        log
    }

    #[test]
    fn a_raised_flag_stops_the_replay_before_its_next_entry() {
        let image = VmImage::bytecode("spin", 4096, assemble("l: jmp l", 0).unwrap(), 0, 0);
        let log = slow_replay_log(&image, 8, 100);
        let registry = GuestRegistry::new();
        let (verdict, progress) =
            replay_from_image(&image, &registry, log.entries(), &AtomicBool::new(false));
        assert!(verdict.unwrap().is_ok());
        assert_eq!(progress.entries_replayed, 9);
        let (verdict, progress) =
            replay_from_image(&image, &registry, log.entries(), &AtomicBool::new(true));
        assert_eq!(verdict, None);
        assert_eq!(progress.entries_replayed, 0);
    }

    /// The counter: a syntactic phase that fails beside a replay stops it
    /// long before the end of the segment.  The segment is one past the
    /// split threshold, its last hash flipped; replaying it whole would take
    /// hundreds of times longer than its chain check.
    #[test]
    fn a_failed_syntactic_phase_stops_the_replay_before_the_end() {
        let image = VmImage::bytecode("spin", 4096, assemble("l: jmp l", 0).unwrap(), 0, 0);
        let n = avm_log::verify::SPLIT_THRESHOLD as u64;
        let log = slow_replay_log(&image, n, 20_000);
        let mut segment = log.entries().to_vec();
        let last = segment.last_mut().unwrap();
        last.hash = sha256(last.hash.as_bytes());
        let key = key(1).verifying_key();
        let (syntactic, (verdict, progress)) = both_phases(
            &Digest::ZERO,
            &segment,
            &[],
            &key,
            &image,
            &GuestRegistry::new(),
        );
        assert_eq!(
            syntactic,
            Err(FaultReason::SyntacticFailure(format!(
                "hash chain broken at sequence {}",
                n + 1
            )))
        );
        assert_eq!(verdict, None, "the replay reached a verdict");
        assert!(
            progress.entries_replayed < n / 2,
            "replayed {} of {} entries",
            progress.entries_replayed,
            n + 1
        );
        // The report carries the syntactic fault and no progress.
        let (report, progress) = audit_from_image(
            &Digest::ZERO,
            &segment,
            &[],
            &key,
            &image,
            &GuestRegistry::new(),
        );
        assert!(!report.syntactic_ok);
        assert_eq!(progress, ReplaySummary::default());
    }

    #[test]
    fn evidence_for_honest_machine_does_not_verify() {
        // Accuracy: nobody can fabricate evidence against a correct machine
        // out of its genuine log.
        let image = echo_image();
        let bob_key = key(1);
        let bob_pub = bob_key.verifying_key();
        let (bob, auths, _) = record(bob_key, &image);
        let (prev, segment) = bob.log().segment(1, bob.log().len() as u64).unwrap();
        let forged_evidence = Evidence {
            machine: "bob".into(),
            fault: FaultReason::MissingLog,
            prev_hash: prev,
            segment,
            authenticators: auths,
            reference_image: image.digest(),
        };
        assert!(!forged_evidence.verify(&bob_pub, &image, &GuestRegistry::new()));
    }
}
