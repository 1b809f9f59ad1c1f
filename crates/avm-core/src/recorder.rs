//! The recording AVMM.
//!
//! [`Avmm`] wraps a deterministic [`Machine`] and implements the protocol of
//! paper §4.3–§4.4: it answers the guest's clock reads (logging each one),
//! wraps every outgoing packet in a signed, authenticated [`Envelope`],
//! verifies and logs every incoming message before injecting it, emits
//! acknowledgments, takes periodic snapshots and keeps the whole record in a
//! tamper-evident log.
//!
//! It alone keeps §4.3's protocol state: what is unacknowledged, what is
//! due to be "retransmitted a few times" ([`Avmm::resends_due`]), and what
//! was received, so a duplicate is logged once and acknowledged again.

use std::collections::{BTreeMap, HashMap};

use avm_crypto::keys::{SigningKey, VerifyingKey};
use avm_crypto::sha256::Digest;
use avm_log::{Acknowledgment, Authenticator, EntryKind, LogEntry, TamperEvidentLog};
use avm_vm::devices::InputEvent;
use avm_vm::packet::parse_guest_packet;
use avm_vm::{GuestRegistry, Machine, StopCondition, VmExit, VmImage};
use avm_wire::{Decode, Encode};

use crate::config::AvmmOptions;
use crate::envelope::{Envelope, EnvelopeKind};
use crate::error::CoreError;
use crate::events::{
    AckRecord, MetaRecord, NdDetail, NdEventRecord, RecvRecord, RecvRecordRef, SendRecord,
    SendRecordRef,
};
use crate::snapshot::{
    capture_with_cache, compute_state_root, SnapshotStore, StateTreeCache, StoredSnapshot,
};

/// §6.5's clock-read optimisation: a read within this many microseconds of
/// the previous one counts as consecutive.
const CLOCK_OPT_WINDOW_US: u64 = 5;
/// The artificial delay of the second consecutive read; each further read
/// doubles it.
const CLOCK_OPT_BASE_DELAY_US: u64 = 50;
/// Cap on the artificial delay.
const CLOCK_OPT_MAX_DELAY_US: u64 = 5_000;

/// How long a send waits for its acknowledgment before a resend (µs).
const RETRANSMIT_TIMEOUT_US: u64 = 50_000;
/// Sends of one message, the first included.  A message still
/// unacknowledged after the last stays in [`Avmm::unacknowledged`]: §4.3's
/// grounds to suspect the peer.
const MAX_RETRANSMITS: u8 = 5;

/// The host's clock, in microseconds of simulated real time.
///
/// The runtime advances it; the AVMM samples it to answer guest clock reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostClock {
    now_us: u64,
}

impl HostClock {
    /// Creates a clock at time zero.
    pub fn new() -> HostClock {
        HostClock::default()
    }

    /// Creates a clock at a specific time.
    pub fn at(now_us: u64) -> HostClock {
        HostClock { now_us }
    }

    /// Current time in microseconds.
    pub fn now(&self) -> u64 {
        self.now_us
    }

    /// Advances the clock (time never moves backwards).
    pub fn advance_to(&mut self, now_us: u64) {
        if now_us > self.now_us {
            self.now_us = now_us;
        }
    }
}

/// A message the guest produced, wrapped and ready for transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutboundMessage {
    /// The signed envelope to hand to the network.
    pub envelope: Envelope,
}

/// Counters the benchmark harness reads to model CPU and network overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AvmmStats {
    /// Clock reads answered (each one a logged nondeterministic input).
    pub clock_reads: u64,
    /// Clock reads that were answered with an artificially delayed value by
    /// the §6.5 optimisation.
    pub clock_reads_delayed: u64,
    /// Guest packets sent.
    pub packets_out: u64,
    /// Guest packets received and injected.
    pub packets_in: u64,
    /// Signatures generated (envelopes, authenticators, acknowledgments).
    pub signatures_made: u64,
    /// Signatures verified on incoming messages and acknowledgments.
    pub signatures_verified: u64,
    /// Snapshots taken.
    pub snapshots_taken: u64,
    /// Guest console bytes produced.
    pub console_bytes: u64,
}

/// A sent message no acknowledgment has answered yet.
struct Unacked {
    /// Sequence number of its SEND entry, from which a resend is rebuilt.
    send_seq: u64,
    last_sent_us: u64,
    attempts: u8,
}

impl Unacked {
    fn first_sent(send_seq: u64, last_sent_us: u64) -> Unacked {
        Unacked {
            send_seq,
            last_sent_us,
            attempts: 1,
        }
    }
}

/// The recording accountable virtual machine monitor.
pub struct Avmm {
    name: String,
    machine: Machine,
    image_digest: Digest,
    options: AvmmOptions,
    signing_key: SigningKey,
    peer_keys: HashMap<String, VerifyingKey>,
    log: TamperEvidentLog,
    snapshots: SnapshotStore,
    /// Long-lived Merkle tree over machine state; each snapshot refreshes
    /// only the dirty leaves (O(dirty + log n)) instead of rebuilding.
    state_tree: StateTreeCache,
    /// Ordered, so resends leave in msg-id order.  Only a tamper-evident
    /// AVMM tracks its sends: only a tamper-evident peer acknowledges.
    unacked: BTreeMap<u64, Unacked>,
    /// The RECV seq of every Data message accepted, by sender and msg id.
    received: HashMap<String, HashMap<u64, u64>>,
    msg_counter: u64,
    entries_at_last_snapshot: u64,
    // Clock-read optimisation state (§6.5).
    last_clock_host: Option<u64>,
    last_clock_value: u64,
    consecutive_clock_reads: u32,
    stats: AvmmStats,
}

impl Avmm {
    /// Creates an AVMM running `image` under the given identity and options.
    ///
    /// The first log entry is a META record committing to the image digest
    /// and configuration.
    pub fn new(
        name: &str,
        image: &VmImage,
        registry: &GuestRegistry,
        signing_key: SigningKey,
        options: AvmmOptions,
    ) -> Result<Avmm, CoreError> {
        let machine = Machine::from_image(image, registry)?;
        let image_digest = image.digest();
        let mut avmm = Avmm {
            name: name.to_string(),
            machine,
            image_digest,
            options,
            signing_key,
            peer_keys: HashMap::new(),
            log: TamperEvidentLog::new(),
            snapshots: SnapshotStore::for_image(image),
            state_tree: StateTreeCache::new(),
            unacked: BTreeMap::new(),
            received: HashMap::new(),
            msg_counter: 0,
            entries_at_last_snapshot: 0,
            last_clock_host: None,
            last_clock_value: 0,
            consecutive_clock_reads: 0,
            stats: AvmmStats::default(),
        };
        let meta = MetaRecord {
            image_digest,
            node_name: name.to_string(),
            scheme_label: avmm.options.signature_scheme.label(),
        };
        avmm.log.append(EntryKind::Meta, meta.encode_to_vec());
        Ok(avmm)
    }

    /// Rebuilds a live AVMM around state reconstructed by crash recovery:
    /// a machine replayed to the log head, the verified log itself and the
    /// snapshot store rebuilt from durable manifests.
    ///
    /// The private bookkeeping (unacknowledged sends, message counter,
    /// auto-snapshot cursor, clock monotonicity floor) is itself a pure
    /// function of the log, so it is re-derived here by one scan; each
    /// unacknowledged send counts as sent once at time 0 (the crash may
    /// have kept it off the wire).  What was received is forgotten: a RECV
    /// entry logs its sender's msg id, but duplicate detection is not yet
    /// rebuilt from it.  Peer keys are not logged; callers
    /// re-register them via [`Avmm::add_peer`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn resume(
        name: &str,
        machine: Machine,
        state_tree: StateTreeCache,
        image_digest: Digest,
        signing_key: SigningKey,
        options: AvmmOptions,
        log: TamperEvidentLog,
        snapshots: SnapshotStore,
    ) -> Avmm {
        let mut msg_counter = 0u64;
        let mut unacked = BTreeMap::new();
        let mut seq_to_msg: HashMap<u64, u64> = HashMap::new();
        let mut entries_at_last_snapshot = 0u64;
        let mut last_clock_value = 0u64;
        let mut stats = AvmmStats::default();
        for entry in log.entries() {
            match entry.kind {
                EntryKind::Send => {
                    // Message ids are dense in SEND order (see record_send).
                    msg_counter += 1;
                    if options.tamper_evident {
                        unacked.insert(msg_counter, Unacked::first_sent(entry.seq, 0));
                    }
                    seq_to_msg.insert(entry.seq, msg_counter);
                    stats.packets_out += 1;
                }
                EntryKind::Recv => stats.packets_in += 1,
                EntryKind::Ack => {
                    if let Ok(rec) = AckRecord::decode_exact(&entry.content) {
                        if let Some(msg_id) = seq_to_msg.get(&rec.send_seq) {
                            unacked.remove(msg_id);
                        }
                    }
                }
                EntryKind::Snapshot => {
                    entries_at_last_snapshot = entry.seq;
                    stats.snapshots_taken += 1;
                }
                EntryKind::NdEvent => {
                    if let Ok(rec) = NdEventRecord::decode_exact(&entry.content) {
                        if let NdDetail::ClockRead { value } = rec.detail {
                            last_clock_value = value;
                            stats.clock_reads += 1;
                        }
                    }
                }
                EntryKind::Meta => {}
            }
        }
        Avmm {
            name: name.to_string(),
            machine,
            image_digest,
            options,
            signing_key,
            peer_keys: HashMap::new(),
            log,
            snapshots,
            state_tree,
            unacked,
            received: HashMap::new(),
            msg_counter,
            entries_at_last_snapshot,
            last_clock_host: None,
            last_clock_value,
            consecutive_clock_reads: 0,
            stats,
        }
    }

    /// The provider's signing key (recovery reuses it for new seals).
    pub(crate) fn signing_key(&self) -> &SigningKey {
        &self.signing_key
    }

    /// Registers a peer's verification key (used to check incoming messages).
    pub fn add_peer(&mut self, name: &str, key: VerifyingKey) {
        self.peer_keys.insert(name.to_string(), key);
    }

    /// This machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This machine's verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signing_key.verifying_key()
    }

    /// The execution log.
    pub fn log(&self) -> &TamperEvidentLog {
        &self.log
    }

    /// The snapshots taken so far.
    pub fn snapshots(&self) -> &SnapshotStore {
        &self.snapshots
    }

    /// Rebases the snapshot chain onto snapshot `id`, dropping older
    /// snapshots and every pooled blob no surviving snapshot references
    /// (bounded retention for long recordings; see
    /// [`SnapshotStore::prune_upto`]).  Returns the payload bytes freed.
    ///
    /// The log is untouched — recorded SNAPSHOT entries for pruned ids stay
    /// tamper-evident; auditors simply can no longer *start* a spot check
    /// before the retained base.
    pub fn prune_snapshots_upto(&mut self, id: u64) -> Result<u64, CoreError> {
        self.snapshots.prune_upto(id)
    }

    /// The wrapped machine (read-only).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the wrapped machine.
    ///
    /// This is the interface a *malicious* operator (Bob) uses to tamper with
    /// the execution — e.g. overwrite guest memory mid-game.  Tests and the
    /// cheat catalogue use it to demonstrate that such tampering is caught by
    /// a subsequent audit.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Digest of the image this AVMM was started from.
    pub fn image_digest(&self) -> Digest {
        self.image_digest
    }

    /// Experiment counters.
    pub fn stats(&self) -> AvmmStats {
        self.stats
    }

    /// Options in effect.
    pub fn options(&self) -> &AvmmOptions {
        &self.options
    }

    /// Answers one guest clock read, applying the §6.5 optimisation if enabled.
    fn clock_value_for_read(&mut self, clock: &HostClock) -> u64 {
        let host_now = clock.now();
        let mut value = host_now.max(self.last_clock_value);
        if self.options.clock_read_optimization {
            let consecutive = matches!(
                self.last_clock_host,
                Some(prev) if host_now.saturating_sub(prev) < CLOCK_OPT_WINDOW_US
            );
            if consecutive {
                self.consecutive_clock_reads += 1;
                // The n-th consecutive read is delayed by 2^(n-2) * base,
                // starting with the second read, capped at the maximum.
                let n = self.consecutive_clock_reads;
                if n >= 2 {
                    let exp = (n - 2).min(20);
                    let delay = CLOCK_OPT_BASE_DELAY_US
                        .saturating_mul(1u64 << exp)
                        .min(CLOCK_OPT_MAX_DELAY_US);
                    value = value.max(self.last_clock_value.saturating_add(delay));
                    self.stats.clock_reads_delayed += 1;
                }
            } else {
                self.consecutive_clock_reads = 1;
            }
        }
        self.last_clock_host = Some(host_now);
        self.last_clock_value = value;
        value
    }

    /// Runs the guest until it goes idle, halts, or `max_steps` additional
    /// steps have executed; returns the outbound messages it produced.
    pub fn run_slice(
        &mut self,
        clock: &HostClock,
        max_steps: u64,
    ) -> Result<Vec<OutboundMessage>, CoreError> {
        let mut outbound = Vec::new();
        let stop = StopCondition::AtStep(self.machine.step_count().saturating_add(max_steps));
        loop {
            let exit = self.machine.run(stop)?;
            match exit {
                VmExit::ClockRead => {
                    let value = self.clock_value_for_read(clock);
                    let step = self.machine.step_count();
                    let rec = NdEventRecord {
                        step,
                        detail: NdDetail::ClockRead { value },
                    };
                    self.log.append(EntryKind::NdEvent, rec.encode_to_vec());
                    self.machine.provide_clock(value)?;
                    self.stats.clock_reads += 1;
                }
                VmExit::NetTx(payload) => {
                    outbound.push(self.record_send(payload, clock.now()));
                }
                VmExit::ConsoleOut(data) => {
                    self.stats.console_bytes += data.len() as u64;
                }
                VmExit::Idle | VmExit::StepLimit | VmExit::Halted => break,
            }
            self.maybe_auto_snapshot();
        }
        Ok(outbound)
    }

    /// Logs a SEND entry for `payload` sent at `now_us`, and wraps it in a
    /// signed envelope.
    fn record_send(&mut self, payload: Vec<u8>, now_us: u64) -> OutboundMessage {
        let step = self.machine.step_count();
        let dest = parse_guest_packet(&payload)
            .map(|(d, _)| d)
            .unwrap_or_default();
        self.stats.packets_out += 1;
        self.msg_counter += 1;
        let msg_id = self.msg_counter;

        let rec = SendRecord {
            step,
            dest: dest.clone(),
            payload: payload.clone(),
        };
        let auth = if self.options.tamper_evident {
            let (entry, auth) = self.log.append_authenticated(
                EntryKind::Send,
                rec.encode_to_vec(),
                &self.signing_key,
            );
            self.stats.signatures_made += 1;
            self.unacked
                .insert(msg_id, Unacked::first_sent(entry.seq, now_us));
            Some(auth)
        } else {
            self.log.append(EntryKind::Send, rec.encode_to_vec());
            None
        };

        let envelope = Envelope::create(
            EnvelopeKind::Data,
            &self.name,
            &dest,
            msg_id,
            payload,
            &self.signing_key,
            auth,
        );
        self.stats.signatures_made += 1;
        OutboundMessage { envelope }
    }

    /// Delivers an incoming envelope.
    ///
    /// For Data envelopes: verifies the sender's signature, logs RECV and the
    /// injection event, injects the payload into the guest NIC, and returns
    /// the acknowledgment envelope to transmit back; a duplicate (sender and
    /// msg id already accepted) logs nothing and returns the same
    /// acknowledgment again.  For Ack envelopes: checks that it comes from
    /// the peer the message went to and verifies it, and only then logs it
    /// and stops resending.  Challenge traffic is not handled here (see
    /// [`crate::multiparty`]).
    pub fn deliver(&mut self, envelope: &Envelope) -> Result<Option<Envelope>, CoreError> {
        match envelope.kind {
            EnvelopeKind::Data => self.deliver_data(envelope),
            EnvelopeKind::Ack => {
                self.deliver_ack(envelope)?;
                Ok(None)
            }
            EnvelopeKind::Challenge | EnvelopeKind::ChallengeResponse => {
                Err(CoreError::InvalidConfiguration(
                    "challenge traffic must go through the runtime".into(),
                ))
            }
        }
    }

    /// Verifies the sender's signature if we know the sender; unknown
    /// senders are rejected outright when tamper evidence is on.
    fn verify_sender(&mut self, envelope: &Envelope) -> Result<(), CoreError> {
        if let Some(key) = self.peer_keys.get(&envelope.from) {
            self.stats.signatures_verified += 1;
            envelope
                .verify_signature(key)
                .map_err(|_| CoreError::BadMessageSignature)
        } else if self.options.tamper_evident {
            Err(CoreError::BadMessageSignature)
        } else {
            Ok(())
        }
    }

    fn deliver_data(&mut self, envelope: &Envelope) -> Result<Option<Envelope>, CoreError> {
        self.verify_sender(envelope)?;
        let accepted = self.received.get(&envelope.from);
        let recv_auth = match accepted.and_then(|ids| ids.get(&envelope.msg_id)) {
            // A duplicate logs nothing.  Its ACK is rebuilt from the logged
            // RECV: the first ACK's bytes, as signing is deterministic, so no
            // ACK is kept per message.
            Some(&recv_seq) => self.options.tamper_evident.then(|| {
                self.stats.signatures_made += 1;
                authenticated(&self.log, recv_seq, &self.signing_key).1
            }),
            None => self.record_recv(envelope),
        };
        let Some(auth) = recv_auth else {
            return Ok(None);
        };
        let recv = self.log.entry(auth.seq).expect("the RECV is logged");
        let rec = RecvRecordRef::decode_exact(&recv.content).expect("own RECV record");
        let ack = Acknowledgment::avmm_ack(&self.signing_key, rec.payload, auth);
        self.stats.signatures_made += 2;
        Ok(Some(Envelope::ack(
            &self.name,
            &envelope.from,
            envelope.msg_id,
            &ack,
            &self.signing_key,
        )))
    }

    /// Logs RECV for `envelope`, injects its payload into the guest and logs
    /// the injection; returns the RECV's authenticator if tamper evident.
    fn record_recv(&mut self, envelope: &Envelope) -> Option<Authenticator> {
        let rec = RecvRecord {
            source: envelope.from.clone(),
            msg_id: envelope.msg_id,
            payload: envelope.payload.clone(),
            signature: envelope.signature.clone(),
        };
        let recv_entry_seq;
        let recv_auth;
        if self.options.tamper_evident {
            let (entry, auth) = self.log.append_authenticated(
                EntryKind::Recv,
                rec.encode_to_vec(),
                &self.signing_key,
            );
            self.stats.signatures_made += 1;
            recv_entry_seq = entry.seq;
            recv_auth = Some(auth);
        } else {
            recv_entry_seq = self.log.append(EntryKind::Recv, rec.encode_to_vec()).seq;
            recv_auth = None;
        }
        self.received
            .entry(envelope.from.clone())
            .or_default()
            .insert(envelope.msg_id, recv_entry_seq);

        // Inject into the guest (the signature was already stripped: the
        // guest sees only the payload the sender's guest produced).
        let step = self.machine.inject_packet(envelope.payload.clone());
        self.stats.packets_in += 1;
        let nd = NdEventRecord {
            step,
            detail: NdDetail::PacketInjected {
                recv_seq: recv_entry_seq,
            },
        };
        self.log.append(EntryKind::NdEvent, nd.encode_to_vec());
        self.maybe_auto_snapshot();
        recv_auth
    }

    fn deliver_ack(&mut self, envelope: &Envelope) -> Result<(), CoreError> {
        let send_seq = self
            .unacked
            .get(&envelope.msg_id)
            .ok_or(CoreError::UnknownAck)?
            .send_seq;
        // Only the peer the message went to can acknowledge it.
        let entry = self.log.entry(send_seq).expect("a tracked SEND is logged");
        if SendRecordRef::decode_exact(&entry.content).map(|rec| rec.dest)
            != Ok(envelope.from.as_str())
        {
            return Err(CoreError::UnknownAck);
        }
        self.verify_sender(envelope)?;
        self.unacked.remove(&envelope.msg_id);
        let rec = AckRecord {
            send_seq,
            ack_bytes: envelope.payload.clone(),
        };
        self.log.append(EntryKind::Ack, rec.encode_to_vec());
        Ok(())
    }

    /// The envelopes of every unacknowledged message with sends left whose
    /// last send was a retransmit timeout or more before `now_us`, in msg-id
    /// order; each counts as sent at `now_us`.  Each is rebuilt from its
    /// SEND entry: the same bytes as its first send, since RSA PKCS#1 v1.5
    /// signing is deterministic.
    pub fn resends_due(&mut self, now_us: u64) -> Vec<Envelope> {
        let mut due = Vec::new();
        for (&msg_id, sent) in &mut self.unacked {
            if sent.attempts == MAX_RETRANSMITS
                || now_us.saturating_sub(sent.last_sent_us) < RETRANSMIT_TIMEOUT_US
            {
                continue;
            }
            sent.attempts += 1;
            sent.last_sent_us = now_us;
            let (entry, auth) = authenticated(&self.log, sent.send_seq, &self.signing_key);
            let rec = SendRecordRef::decode_exact(&entry.content).expect("own SEND record");
            let payload = rec.payload.to_vec();
            due.push(Envelope::create(
                EnvelopeKind::Data,
                &self.name,
                rec.dest,
                msg_id,
                payload,
                &self.signing_key,
                Some(auth),
            ));
        }
        self.stats.signatures_made += 2 * due.len() as u64;
        due
    }

    /// Injects a local input event (keyboard/mouse), logging it as a
    /// nondeterministic input.
    pub fn inject_input(&mut self, event: InputEvent) {
        let step = self.machine.inject_input(event);
        let rec = NdEventRecord {
            step,
            detail: NdDetail::InputInjected { event },
        };
        self.log.append(EntryKind::NdEvent, rec.encode_to_vec());
    }

    /// Message ids for which no acknowledgment has arrived yet, ascending
    /// (only a tamper-evident AVMM expects acknowledgments).
    pub fn unacknowledged(&self) -> Vec<u64> {
        self.unacked.keys().copied().collect()
    }

    /// Takes a snapshot now, logging its state root.
    pub fn take_snapshot(&mut self) -> &StoredSnapshot {
        let id = self.snapshots.next_id();
        let snap = capture_with_cache(
            &mut self.machine,
            &mut self.state_tree,
            id,
            self.options.full_memory_snapshots,
        );
        let rec = crate::events::SnapshotRecord {
            step: snap.step,
            snapshot_id: id,
            state_root: snap.state_root,
        };
        self.log.append(EntryKind::Snapshot, rec.encode_to_vec());
        self.stats.snapshots_taken += 1;
        self.entries_at_last_snapshot = self.log.len() as u64;
        self.snapshots.push(snap);
        self.snapshots.get(id).expect("just pushed")
    }

    fn maybe_auto_snapshot(&mut self) {
        if let Some(every) = self.options.snapshot_every_entries {
            if self.log.len() as u64 - self.entries_at_last_snapshot >= every {
                self.take_snapshot();
            }
        }
    }

    /// Authenticator for the current log head (handed to auditors on demand).
    pub fn head_authenticator(&self) -> Option<Authenticator> {
        self.log.authenticate_last(&self.signing_key)
    }

    /// Current state root of the machine (diagnostics and tests).
    pub fn current_state_root(&self) -> Digest {
        compute_state_root(&self.machine)
    }

    /// Total log size in bytes, as it is stored (a segment of it ships
    /// fewer: hashes only at its checkpoints).
    pub fn log_bytes(&self) -> u64 {
        self.log.total_stored_size()
    }
}

/// Entry `seq` of `log` and its authenticator, as appending it produced it.
fn authenticated<'a>(
    log: &'a TamperEvidentLog,
    seq: u64,
    key: &SigningKey,
) -> (&'a LogEntry, Authenticator) {
    let prev = log.entry(seq - 1).map_or(Digest::ZERO, |entry| entry.hash);
    let entry = log.entry(seq).expect("a tracked entry is logged");
    (entry, Authenticator::create(key, entry, prev))
}

impl core::fmt::Debug for Avmm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Avmm")
            .field("name", &self.name)
            .field("log_entries", &self.log.len())
            .field("step_count", &self.machine.step_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avm_crypto::keys::SignatureScheme;
    use avm_vm::bytecode::assemble;
    use avm_vm::packet::encode_guest_packet;
    use avm_wire::Decode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A guest that reads the clock, then echoes every received packet back
    /// to a peer named "peer".
    fn echo_image() -> VmImage {
        // Packet layout used by the guest: it simply re-sends whatever it
        // received (which already carries an addressing header).
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
        let code = assemble(src, 0).unwrap();
        VmImage::bytecode("echo", 128 * 1024, code, 0, 0)
    }

    fn key(seed: u64) -> SigningKey {
        let mut rng = StdRng::seed_from_u64(seed);
        SigningKey::generate(&mut rng, SignatureScheme::Rsa(512))
    }

    fn opts() -> AvmmOptions {
        AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512))
    }

    #[test]
    fn meta_entry_written_at_startup() {
        let avmm = Avmm::new("bob", &echo_image(), &GuestRegistry::new(), key(1), opts()).unwrap();
        assert_eq!(avmm.log().len(), 1);
        let entry = avmm.log().entry(1).unwrap();
        assert_eq!(entry.kind, EntryKind::Meta);
        let meta = MetaRecord::decode_exact(&entry.content).unwrap();
        assert_eq!(meta.image_digest, echo_image().digest());
        assert_eq!(meta.node_name, "bob");
    }

    #[test]
    fn clock_reads_are_logged_with_steps() {
        let mut avmm =
            Avmm::new("bob", &echo_image(), &GuestRegistry::new(), key(1), opts()).unwrap();
        let clock = HostClock::at(1_000);
        avmm.run_slice(&clock, 10_000).unwrap();
        assert!(avmm.stats().clock_reads >= 1);
        let nd_entries: Vec<_> = avmm
            .log()
            .entries()
            .iter()
            .filter(|e| e.kind == EntryKind::NdEvent)
            .collect();
        assert!(!nd_entries.is_empty());
        let rec = NdEventRecord::decode_exact(&nd_entries[0].content).unwrap();
        assert!(matches!(rec.detail, NdDetail::ClockRead { value: 1_000 }));
        assert!(rec.step > 0);
    }

    #[test]
    fn deliver_and_echo_produces_send_entry_and_ack() {
        let alice_key = key(2);
        let mut bob =
            Avmm::new("bob", &echo_image(), &GuestRegistry::new(), key(1), opts()).unwrap();
        bob.add_peer("alice", alice_key.verifying_key());

        let clock = HostClock::at(500);
        bob.run_slice(&clock, 10_000).unwrap();

        // Alice sends a message addressed back to her.
        let payload = encode_guest_packet("alice", b"hello bob");
        let env = Envelope::create(
            EnvelopeKind::Data,
            "alice",
            "bob",
            1,
            payload.clone(),
            &alice_key,
            None,
        );
        let ack = bob.deliver(&env).unwrap().expect("ack expected");
        assert_eq!(ack.kind, EnvelopeKind::Ack);
        assert_eq!(ack.to, "alice");
        let decoded_ack = ack.decode_ack().unwrap();
        decoded_ack.verify(&bob.verifying_key(), &payload).unwrap();

        // The guest echoes the packet on its next slice.
        let out = bob.run_slice(&clock, 50_000).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].envelope.payload, payload);
        assert_eq!(out[0].envelope.to, "alice");
        out[0]
            .envelope
            .verify_signature(&bob.verifying_key())
            .unwrap();
        let auth = out[0]
            .envelope
            .authenticator
            .as_ref()
            .expect("authenticator");
        auth.verify_signature(&bob.verifying_key()).unwrap();

        // Log now contains META, NDEVENT(s), RECV, NDEVENT(inject), SEND ...
        let kinds: Vec<EntryKind> = bob.log().entries().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EntryKind::Recv));
        assert!(kinds.contains(&EntryKind::Send));
        assert!(bob.stats().packets_in == 1 && bob.stats().packets_out == 1);
        assert_eq!(bob.unacknowledged().len(), 1);
    }

    #[test]
    fn bad_sender_signature_rejected() {
        let alice_key = key(2);
        let mallory_key = key(3);
        let mut bob =
            Avmm::new("bob", &echo_image(), &GuestRegistry::new(), key(1), opts()).unwrap();
        bob.add_peer("alice", alice_key.verifying_key());
        // Mallory forges a message claiming to be from alice.
        let env = Envelope::create(
            EnvelopeKind::Data,
            "alice",
            "bob",
            1,
            encode_guest_packet("alice", b"forged"),
            &mallory_key,
            None,
        );
        assert_eq!(
            bob.deliver(&env).unwrap_err(),
            CoreError::BadMessageSignature
        );
        // Unknown senders are rejected too.
        let env2 = Envelope::create(
            EnvelopeKind::Data,
            "unknown",
            "bob",
            1,
            vec![],
            &mallory_key,
            None,
        );
        assert_eq!(
            bob.deliver(&env2).unwrap_err(),
            CoreError::BadMessageSignature
        );
    }

    #[test]
    fn ack_handling_clears_outstanding_sends() {
        let alice_key = key(2);
        let mut bob =
            Avmm::new("bob", &echo_image(), &GuestRegistry::new(), key(1), opts()).unwrap();
        bob.add_peer("alice", alice_key.verifying_key());
        let clock = HostClock::new();
        bob.run_slice(&clock, 10_000).unwrap();
        let payload = encode_guest_packet("alice", b"x");
        let env = Envelope::create(
            EnvelopeKind::Data,
            "alice",
            "bob",
            1,
            payload,
            &alice_key,
            None,
        );
        bob.deliver(&env).unwrap();
        let out = bob.run_slice(&clock, 50_000).unwrap();
        assert_eq!(out.len(), 1);
        let msg_id = out[0].envelope.msg_id;

        // Alice acknowledges.
        let ack = Acknowledgment::user_ack(&alice_key, &out[0].envelope.payload);
        let ack_env = Envelope::ack("alice", "bob", msg_id, &ack, &alice_key);
        bob.deliver(&ack_env).unwrap();
        assert!(bob.unacknowledged().is_empty());
        // A duplicate / unknown ack is rejected.
        assert_eq!(bob.deliver(&ack_env).unwrap_err(), CoreError::UnknownAck);
        // An ACK entry was logged.
        assert!(bob.log().entries().iter().any(|e| e.kind == EntryKind::Ack));
    }

    /// Bob's echo of a packet from alice addressed to `dest`: bob, the
    /// envelope it sent, and how many entries it had logged by then.
    fn bob_echoing_to(dest: &str, alice_key: &SigningKey) -> (Avmm, Envelope, usize) {
        let mut bob =
            Avmm::new("bob", &echo_image(), &GuestRegistry::new(), key(1), opts()).unwrap();
        bob.add_peer("alice", alice_key.verifying_key());
        let clock = HostClock::new();
        bob.run_slice(&clock, 10_000).unwrap();
        let payload = encode_guest_packet(dest, b"x");
        let env = Envelope::create(
            EnvelopeKind::Data,
            "alice",
            "bob",
            1,
            payload,
            alice_key,
            None,
        );
        bob.deliver(&env).unwrap();
        let mut out = bob.run_slice(&clock, 50_000).unwrap();
        assert_eq!(out.len(), 1);
        let logged = bob.log().len();
        (bob, out.remove(0).envelope, logged)
    }

    #[test]
    fn a_forged_or_unknown_ack_clears_nothing() {
        let alice_key = key(2);
        let mallory_key = key(3);
        // An ACK "from alice" signed by mallory, and an ACK from dave, whose
        // key bob does not know.
        for (dest, signer) in [("alice", &mallory_key), ("dave", &alice_key)] {
            let (mut bob, sent, logged) = bob_echoing_to(dest, &alice_key);
            let ack = Acknowledgment::user_ack(signer, &sent.payload);
            let ack_env = Envelope::ack(dest, "bob", sent.msg_id, &ack, signer);
            assert_eq!(
                bob.deliver(&ack_env).unwrap_err(),
                CoreError::BadMessageSignature,
                "{dest}"
            );
            assert_eq!(bob.unacknowledged(), vec![sent.msg_id], "{dest}");
            assert_eq!(bob.log().len(), logged, "{dest}: an ACK was logged");
            assert_eq!(bob.resends_due(RETRANSMIT_TIMEOUT_US), vec![sent], "{dest}");
        }
        // A genuine ACK from a peer the message did not go to is unknown.
        let (mut bob, sent, logged) = bob_echoing_to("alice", &alice_key);
        let carol_key = key(4);
        bob.add_peer("carol", carol_key.verifying_key());
        let ack = Acknowledgment::user_ack(&carol_key, &sent.payload);
        let ack_env = Envelope::ack("carol", "bob", sent.msg_id, &ack, &carol_key);
        assert_eq!(bob.deliver(&ack_env).unwrap_err(), CoreError::UnknownAck);
        assert_eq!(bob.unacknowledged(), vec![sent.msg_id]);
        assert_eq!(bob.log().len(), logged);
    }

    #[test]
    fn a_duplicate_is_logged_once_and_acknowledged_again() {
        let alice_key = key(2);
        let mut bob =
            Avmm::new("bob", &echo_image(), &GuestRegistry::new(), key(1), opts()).unwrap();
        bob.add_peer("alice", alice_key.verifying_key());
        bob.run_slice(&HostClock::new(), 10_000).unwrap();
        let env = Envelope::create(
            EnvelopeKind::Data,
            "alice",
            "bob",
            7,
            encode_guest_packet("alice", b"once"),
            &alice_key,
            None,
        );
        let ack = bob.deliver(&env).unwrap().expect("ack");
        let logged = bob.log().len();
        let stats = bob.stats();
        assert_eq!(bob.deliver(&env).unwrap(), Some(ack));
        assert_eq!(bob.log().len(), logged);
        assert_eq!(bob.stats().packets_in, stats.packets_in);
        // Rebuilding signs the RECV authenticator, the ACK and its envelope.
        assert_eq!(bob.stats().signatures_made, stats.signatures_made + 3);
    }

    #[test]
    fn resends_are_the_first_send_until_the_attempts_run_out() {
        let alice_key = key(2);
        let (mut bob, sent, _) = bob_echoing_to("alice", &alice_key);
        assert!(bob.resends_due(RETRANSMIT_TIMEOUT_US - 1).is_empty());
        let mut now = 0;
        for _ in 1..MAX_RETRANSMITS {
            now += RETRANSMIT_TIMEOUT_US;
            assert_eq!(bob.resends_due(now), vec![sent.clone()]);
            assert!(bob.resends_due(now).is_empty(), "resent twice at once");
        }
        assert!(bob.resends_due(now + RETRANSMIT_TIMEOUT_US).is_empty());
        assert_eq!(bob.unacknowledged(), vec![sent.msg_id]);
    }

    #[test]
    fn input_injection_logged() {
        let mut bob =
            Avmm::new("bob", &echo_image(), &GuestRegistry::new(), key(1), opts()).unwrap();
        bob.inject_input(InputEvent {
            device: 0,
            code: 17,
            value: 1,
        });
        let nd = bob
            .log()
            .entries()
            .iter()
            .rfind(|e| e.kind == EntryKind::NdEvent)
            .unwrap();
        let rec = NdEventRecord::decode_exact(&nd.content).unwrap();
        assert!(matches!(rec.detail, NdDetail::InputInjected { .. }));
    }

    #[test]
    fn snapshots_record_state_root() {
        let mut bob =
            Avmm::new("bob", &echo_image(), &GuestRegistry::new(), key(1), opts()).unwrap();
        let clock = HostClock::new();
        bob.run_slice(&clock, 5_000).unwrap();
        let root_before = bob.current_state_root();
        let snap = bob.take_snapshot();
        assert_eq!(snap.state_root, root_before);
        assert_eq!(bob.snapshots().len(), 1);
        assert_eq!(bob.stats().snapshots_taken, 1);
        let entry = bob.log().entries().last().unwrap();
        assert_eq!(entry.kind, EntryKind::Snapshot);
    }

    #[test]
    fn auto_snapshot_interval_respected() {
        let mut bob = Avmm::new(
            "bob",
            &echo_image(),
            &GuestRegistry::new(),
            key(1),
            opts().with_snapshot_every(3),
        )
        .unwrap();
        let clock = HostClock::new();
        // Each slice logs at least one clock read; after enough entries a
        // snapshot should appear automatically.
        for t in 0..12 {
            bob.run_slice(&HostClock::at(clock.now() + t * 100), 5_000)
                .unwrap();
        }
        assert!(bob.stats().snapshots_taken >= 1);
    }

    #[test]
    fn clock_optimization_reduces_logged_reads() {
        // Without optimisation the busy-wait guest logs one entry per read;
        // with it, consecutive reads jump forward exponentially.
        let busy_image = {
            // Busy-wait until the clock reaches 100_000 µs, then halt.
            let src = r"
                    movi r2, 100000
                wait:
                    clock r1
                    cmp r1, r2
                    jlt wait
                    halt
                ";
            let code = assemble(src, 0).unwrap();
            VmImage::bytecode("busy", 64 * 1024, code, 0, 0)
        };
        let run = |optimize: bool| -> u64 {
            let options = if optimize {
                opts().with_clock_optimization()
            } else {
                opts()
            };
            let mut avmm =
                Avmm::new("bob", &busy_image, &GuestRegistry::new(), key(1), options).unwrap();
            // Host time stands nearly still, like a tight busy-wait loop.
            let clock = HostClock::at(10);
            for _ in 0..200 {
                avmm.run_slice(&clock, 2_000).unwrap();
                if avmm.machine().is_halted() {
                    break;
                }
            }
            avmm.stats().clock_reads
        };
        let unoptimized = run(false);
        let optimized = run(true);
        assert!(
            optimized < unoptimized / 5,
            "optimized={optimized} unoptimized={unoptimized}"
        );
    }
}
