//! Deterministic replay — the semantic half of an audit.
//!
//! The replayer "locally instantiates a virtual machine that implements
//! `M_R`, initializes the machine with the snapshot, if any, or `S`," then
//! "reads `L_ij` from beginning to end, replaying the inputs, checking the
//! outputs against the outputs in `L_ij`, and verifying any snapshot hashes"
//! (paper §4.5).  Any discrepancy whatsoever — an output that is not in the
//! log, an input requested in a different order or at a different position,
//! a snapshot hash that does not match — terminates replay and is reported
//! as a fault.
//!
//! A spot check starts the replayer from snapshot *metadata*
//! ([`Replayer::from_manifest_on_demand`]): divergent memory chunks and disk
//! blocks are staged and fault in lazily as the replayed workload touches
//! them (see [`crate::ondemand`]).  The two §3.5 download modes differ only
//! in when the staged bytes arrive — all of them before replay (full
//! download) or each as replay first needs it (on demand) — so they verify
//! the same roots and reach the same verdicts.  A provider replays its own
//! store from a materialized snapshot ([`Replayer::from_snapshot`]) or stages
//! it the same way ([`Replayer::from_snapshot_on_demand`]).
//!
//! An on-demand start state may hold leaves staged *byteless*: an access
//! that needs one is a miss ([`avm_vm::VmError::Miss`]).  The audit session
//! replays such a state with a crate-internal form of [`Replayer::replay`]
//! that stops at a miss instead of reaching a verdict.  A bytecode step
//! stops before any side effect, so once the bytes are supplied the same
//! replayer resumes with the entries it has not finished
//! ([`Replayer::summary`]'s `entries_replayed` counts only finished ones);
//! a native step cannot be unwound, so its replayer is rebuilt instead (see
//! [`crate::session`], "# Misses").  Everywhere else a miss is the guest
//! fault it would be on a machine nobody supplies.
//!
//! Every constructor hands the replayer the state tree its start state was
//! authenticated with — a copy of the reference image's memoised tree
//! ([`avm_vm::VmImage::baseline`]) with the snapshot's leaves replaced — so
//! no replay ever builds a full tree: each root it checks costs the leaves
//! written since the previous one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use avm_crypto::sha256::Digest;
use avm_log::{EntryKind, EntryView};
use avm_vm::{GuestRegistry, Machine, StopCondition, VmExit, VmImage};
use avm_wire::{Decode, Encode};

use crate::error::{CoreError, FaultReason};
use crate::events::{
    MetaRecord, NdDetail, NdEventRecord, RecvRecordRef, SendRecordRef, SnapshotRecord,
};
use crate::ondemand::{stage_from_manifest, AuditorBlobCache, OnDemandSession};
use crate::snapshot::{SnapshotStore, StateTreeCache};

/// Result of replaying a log segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The log is consistent with a correct execution of the reference image.
    Consistent(ReplaySummary),
    /// The log is *not* consistent: the machine is faulty.
    Fault(FaultReason),
}

impl ReplayOutcome {
    /// True if replay succeeded.
    pub fn is_consistent(&self) -> bool {
        matches!(self, ReplayOutcome::Consistent(_))
    }

    /// The fault, if any.
    pub fn fault(&self) -> Option<&FaultReason> {
        match self {
            ReplayOutcome::Fault(f) => Some(f),
            ReplayOutcome::Consistent(_) => None,
        }
    }
}

/// Statistics about a successful replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplaySummary {
    /// Number of log entries processed.
    pub entries_replayed: u64,
    /// Machine steps executed during replay.
    pub steps_executed: u64,
    /// Outgoing messages re-produced and matched against the log.
    pub outputs_matched: u64,
    /// Nondeterministic inputs re-injected.
    pub inputs_reinjected: u64,
    /// Snapshot roots verified.
    pub snapshots_verified: u64,
    /// Merkle state root of the final machine state (the same commitment
    /// snapshot records carry).  Derived from the authenticated per-leaf
    /// hashes, so it is identical between full-download and on-demand
    /// replay of the same log.
    pub final_state: Option<Digest>,
}

/// Why replaying an entry stopped before its end.
enum Stop {
    /// The log is inconsistent with the reference execution.
    Fault(FaultReason),
    /// The machine needs contents it has not received (a miss).
    Missed,
}

impl From<FaultReason> for Stop {
    fn from(fault: FaultReason) -> Stop {
        Stop::Fault(fault)
    }
}

/// What a failed machine operation at entry `seq` means: a miss stays a
/// miss, anything else is the guest's fault.
fn machine_error(seq: u64) -> impl Fn(avm_vm::VmError) -> Stop {
    move |error| match error {
        avm_vm::VmError::Miss => Stop::Missed,
        other => Stop::Fault(FaultReason::GuestFault {
            seq,
            detail: other.to_string(),
        }),
    }
}

/// The deterministic replayer — the paper's semantic audit check (§4.5).
///
/// Construct it from the reference image ([`Replayer::from_image`], full
/// audits), from a materialized snapshot ([`Replayer::from_snapshot`]) or
/// from snapshot metadata with lazy state fault-in
/// ([`Replayer::from_manifest_on_demand`], §3.5 spot checks), then
/// feed it the log: it re-injects every recorded nondeterministic input at
/// its recorded step, re-derives every output and snapshot root, and reports
/// the first discrepancy as a [`FaultReason`].
pub struct Replayer {
    machine: Machine,
    reference_digest: Digest,
    /// Long-lived state tree mirroring the recorder's: each snapshot entry
    /// re-derives only the leaves dirtied since the previous one, so
    /// replay-side root checks cost O(dirty + log n) like recording does.
    state_tree: StateTreeCache,
    /// Payload of every RECV entry seen so far, keyed by sequence number:
    /// what a packet injection is cross-referenced against (paper §4.4) and
    /// then delivers.  An entry stays once seen — a log may inject it again.
    pending_recvs: HashMap<u64, Vec<u8>>,
    summary: ReplaySummary,
    start_step: u64,
    /// True when a clock value has been provided but the guest has not yet
    /// been resumed to consume it (the recorder always resumes immediately;
    /// replay mirrors that lazily, see `drain_pending_clock`).
    pending_clock_response: bool,
}

impl Replayer {
    /// Creates a replayer starting from the reference image's initial state.
    pub fn from_image(image: &VmImage, registry: &GuestRegistry) -> Result<Replayer, CoreError> {
        let machine = Machine::from_image(image, registry)?;
        let state_tree = StateTreeCache::from_baseline(image);
        Ok(Self::with_machine(machine, state_tree, image.digest()))
    }

    /// Creates a replayer starting from a materialized snapshot.
    pub fn from_snapshot(
        image: &VmImage,
        registry: &GuestRegistry,
        snapshots: &SnapshotStore,
        snapshot_id: u64,
    ) -> Result<Replayer, CoreError> {
        let (machine, state_tree) =
            snapshots.materialize_with_tree(snapshot_id, image, registry)?;
        Ok(Self::with_machine(machine, state_tree, image.digest()))
    }

    /// Creates a replayer starting from snapshot *metadata only* (§3.5
    /// on-demand spot checks) of the provider's own `snapshots`: state that
    /// diverges from the reference image is staged — from `cache`, the
    /// image, or else the store — and faults in lazily as replay touches it.
    ///
    /// The returned [`OnDemandSession`] settles the accounting after replay:
    /// call [`OnDemandSession::finish`] with [`Replayer::machine`] to obtain
    /// the blobs actually transferred (blobs already in `cache` are free).
    pub fn from_snapshot_on_demand(
        image: &VmImage,
        registry: &GuestRegistry,
        snapshots: &SnapshotStore,
        snapshot_id: u64,
        cache: &AuditorBlobCache,
    ) -> Result<(Replayer, OnDemandSession), CoreError> {
        let manifest = snapshots.chain_manifest_upto(snapshot_id)?;
        let manifest_bytes = manifest.encoded_len() as u64;
        Self::on_demand(
            &manifest,
            manifest_bytes,
            image,
            registry,
            cache,
            Some(snapshots),
        )
    }

    /// Creates a replayer from a manifest an auditor received in
    /// `manifest_bytes` bytes of packet: what `cache` or the image holds is
    /// staged with its contents, the rest byteless — replay misses on it
    /// (module docs).  The manifest authenticates against the recorded root
    /// before the replayer is returned.
    pub fn from_manifest_on_demand(
        manifest: &crate::ondemand::ChainManifest,
        manifest_bytes: u64,
        image: &VmImage,
        registry: &GuestRegistry,
        cache: &AuditorBlobCache,
    ) -> Result<(Replayer, OnDemandSession), CoreError> {
        Self::on_demand(manifest, manifest_bytes, image, registry, cache, None)
    }

    fn on_demand(
        manifest: &crate::ondemand::ChainManifest,
        manifest_bytes: u64,
        image: &VmImage,
        registry: &GuestRegistry,
        cache: &AuditorBlobCache,
        remote: Option<&SnapshotStore>,
    ) -> Result<(Replayer, OnDemandSession), CoreError> {
        let (machine, state_tree, session) =
            stage_from_manifest(manifest, manifest_bytes, image, registry, cache, remote)?;
        Ok((
            Self::with_machine(machine, state_tree, image.digest()),
            session,
        ))
    }

    /// `state_tree` must be in sync with `machine` (see
    /// [`StateTreeCache`]'s invalidation contract): each constructor hands
    /// over the tree it authenticated the start state with, so the first
    /// root a replay checks costs what the replay wrote, like every later
    /// one.
    fn with_machine(
        machine: Machine,
        state_tree: StateTreeCache,
        reference_digest: Digest,
    ) -> Replayer {
        let start_step = machine.step_count();
        Replayer {
            machine,
            reference_digest,
            state_tree,
            pending_recvs: HashMap::new(),
            summary: ReplaySummary::default(),
            start_step,
            pending_clock_response: false,
        }
    }

    /// The machine being replayed (for inspection after replay).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The machine, to supply the contents a miss asked for.  Nothing else
    /// may change it behind the replayer's back.
    pub(crate) fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Seeds the RECV cross-reference table from entries that precede the
    /// segment this replayer will replay, without replaying them.
    ///
    /// A serial replayer that processed `entries` before the segment holds
    /// every decodable RECV record in its table; a parallel replay unit that
    /// starts mid-chunk must hold the same table, or an injection whose RECV
    /// landed before the unit's starting snapshot would misreport a
    /// [`FaultReason::CrossReferenceFailure`] the serial replay does not.
    /// Undecodable RECV entries are skipped — the serial replay faults *at*
    /// such an entry, which lives in an earlier unit, so the merged verdict
    /// never reaches this one.
    pub fn preload_recvs<E: EntryView>(&mut self, entries: &[E]) {
        for entry in entries {
            if entry.kind() == EntryKind::Recv {
                // Skipping an undecodable one is the contract above.
                let _ = self.replay_recv(entry.seq(), entry.content());
            }
        }
    }

    /// Consumes the replayer, handing its machine and warmed state tree to
    /// a caller that keeps executing from the replayed point (crash
    /// recovery resumes the live AVMM this way).
    pub(crate) fn into_parts(self) -> (Machine, StateTreeCache) {
        (self.machine, self.state_tree)
    }

    /// Machine steps executed since this replayer was created — valid at any
    /// point, including after a fault terminated replay.
    pub fn steps_executed(&self) -> u64 {
        self.machine.step_count() - self.start_step
    }

    /// Merkle root over the machine's current state, derived through the
    /// replayer's incremental state tree.
    ///
    /// Valid in both replay modes: on a partially-resident on-demand machine
    /// the root comes from the authenticated per-leaf hashes, so it equals
    /// what a fully downloaded replay computes at the same point — the
    /// comparison tests use to pin mode equivalence.
    pub fn current_state_root(&mut self) -> Digest {
        self.state_tree.refresh(&self.machine)
    }

    /// Progress counters so far, with `steps_executed` brought up to date.
    ///
    /// Unlike the summary carried by [`ReplayOutcome::Consistent`], this is
    /// also meaningful after a fault: `entries_replayed` counts entries
    /// processed up to and including the faulting one, and `steps_executed`
    /// reflects how far the machine actually ran — the truthful replay cost
    /// a spot check must report (Fig. 9).
    pub fn summary(&self) -> ReplaySummary {
        let mut summary = self.summary.clone();
        summary.steps_executed = self.steps_executed();
        summary
    }

    /// Replays a complete segment of log entries — owned, or still borrowed
    /// from the packet they arrived in ([`EntryView`]).
    pub fn replay<E: EntryView>(&mut self, entries: &[E]) -> ReplayOutcome {
        self.replay_unless(entries, &AtomicBool::new(false))
            .expect("nothing else sees the flag")
    }

    /// [`Replayer::replay`] giving up before its next entry once `stop` is
    /// set — by a syntactic phase that failed beside it — with `None`.
    pub(crate) fn replay_unless<E: EntryView>(
        &mut self,
        entries: &[E],
        stop: &AtomicBool,
    ) -> Option<ReplayOutcome> {
        for entry in entries {
            if stop.load(Ordering::Relaxed) {
                self.summary.steps_executed = self.steps_executed();
                return None;
            }
            if let Err(fault) = self.replay_entry(entry) {
                self.summary.steps_executed = self.steps_executed();
                return Some(ReplayOutcome::Fault(fault));
            }
        }
        Some(self.conclude())
    }

    /// [`Replayer::replay`] stopping at a miss instead: `None` means the
    /// machine needs staged contents it has not received.  Supply them and
    /// call again with the entries past the `entries_replayed` finished
    /// ones (module docs).
    pub(crate) fn replay_until_miss<E: EntryView>(
        &mut self,
        entries: &[E],
    ) -> Option<ReplayOutcome> {
        for entry in entries {
            if let Err(stop) = self.step_entry(entry) {
                self.summary.steps_executed = self.steps_executed();
                return match stop {
                    Stop::Fault(fault) => Some(ReplayOutcome::Fault(fault)),
                    Stop::Missed => None,
                };
            }
        }
        Some(self.conclude())
    }

    /// The verdict of a segment replayed to its end.
    fn conclude(&mut self) -> ReplayOutcome {
        self.summary.steps_executed = self.steps_executed();
        // The state root, not Machine::state_digest(): the latter hashes raw
        // contents and would be wrong on a partially-resident on-demand
        // machine whose untouched staged pages still hold local bytes.
        self.summary.final_state = Some(self.state_tree.refresh(&self.machine));
        ReplayOutcome::Consistent(self.summary.clone())
    }

    /// Replays a single log entry: the step of [`Replayer::replay`], public
    /// so a caller can advance several replayers in lockstep and compare
    /// them entry by entry (the image-baseline equivalence tests do).
    ///
    /// Records are decoded in place from the entry's content; the one copy
    /// replay keeps of a log byte is a RECV payload, held for the injection
    /// that delivers it.
    /// A miss is the guest fault it would be on a machine nobody supplies:
    /// a caller that stages byteless leaves replays with
    /// [`Replayer::replay`].
    pub fn replay_entry<E: EntryView>(&mut self, entry: &E) -> Result<(), FaultReason> {
        self.step_entry(entry).map_err(|stop| match stop {
            Stop::Fault(fault) => fault,
            Stop::Missed => {
                self.summary.entries_replayed += 1;
                FaultReason::GuestFault {
                    seq: entry.seq(),
                    detail: avm_vm::VmError::Miss.to_string(),
                }
            }
        })
    }

    /// Replays one entry; an entry a miss stopped is not counted, so it is
    /// replayed again from its start once the contents are supplied.
    fn step_entry<E: EntryView>(&mut self, entry: &E) -> Result<(), Stop> {
        let (seq, content) = (entry.seq(), entry.content());
        let result = match entry.kind() {
            EntryKind::Meta => self.replay_meta(seq, content).map_err(Stop::from),
            EntryKind::Recv => self.replay_recv(seq, content).map_err(Stop::from),
            EntryKind::Ack => Ok(()), // checked by the syntactic phase
            EntryKind::Send => self.replay_send(seq, content),
            EntryKind::NdEvent => self.replay_nd(seq, content),
            EntryKind::Snapshot => self.replay_snapshot(seq, content),
        };
        if !matches!(result, Err(Stop::Missed)) {
            self.summary.entries_replayed += 1;
        }
        result
    }

    fn replay_meta(&mut self, seq: u64, content: &[u8]) -> Result<(), FaultReason> {
        let meta =
            MetaRecord::decode_exact(content).map_err(|_| FaultReason::MalformedLog { seq })?;
        if meta.image_digest != self.reference_digest {
            return Err(FaultReason::ImageMismatch {
                recorded: meta.image_digest.short_hex(),
                reference: self.reference_digest.short_hex(),
            });
        }
        Ok(())
    }

    fn replay_recv(&mut self, seq: u64, content: &[u8]) -> Result<(), FaultReason> {
        let rec =
            RecvRecordRef::decode_exact(content).map_err(|_| FaultReason::MalformedLog { seq })?;
        self.pending_recvs.insert(seq, rec.payload.to_vec());
        Ok(())
    }

    fn replay_send(&mut self, seq: u64, content: &[u8]) -> Result<(), Stop> {
        let rec =
            SendRecordRef::decode_exact(content).map_err(|_| FaultReason::MalformedLog { seq })?;
        // The reference execution must produce the same packet at the same
        // instruction-stream position.  The recorded step bounds the search
        // (plus one, so the emitting instruction itself can execute), so
        // replay terminates even if the reference execution idles forever.
        let exit = self.run_until_interesting(seq, Some(rec.step + 1))?;
        match exit {
            VmExit::NetTx(payload) => {
                if self.machine.step_count() != rec.step {
                    return Err(FaultReason::OutputDivergence {
                        seq,
                        detail: format!(
                            "output produced at step {} but log records step {}",
                            self.machine.step_count(),
                            rec.step
                        ),
                    }
                    .into());
                }
                if payload != rec.payload {
                    return Err(FaultReason::OutputDivergence {
                        seq,
                        detail: format!(
                            "payload mismatch: replay produced {} bytes, log records {} bytes",
                            payload.len(),
                            rec.payload.len()
                        ),
                    }
                    .into());
                }
                self.summary.outputs_matched += 1;
                Ok(())
            }
            other => Err(FaultReason::OutputDivergence {
                seq,
                detail: format!(
                    "log records an outgoing message but the reference execution produced '{}'",
                    other.label()
                ),
            }
            .into()),
        }
    }

    fn replay_nd(&mut self, seq: u64, content: &[u8]) -> Result<(), Stop> {
        let rec =
            NdEventRecord::decode_exact(content).map_err(|_| FaultReason::MalformedLog { seq })?;
        match rec.detail {
            NdDetail::ClockRead { value } => {
                // The clock-read pause does not consume a step, so allow the
                // bound to pass the recorded position by one instruction.
                let exit = self.run_until_interesting(seq, Some(rec.step + 1))?;
                if exit != VmExit::ClockRead {
                    return Err(FaultReason::EventDivergence {
                        seq,
                        detail: format!(
                            "log records a clock read but the reference execution produced '{}'",
                            exit.label()
                        ),
                    }
                    .into());
                }
                if self.machine.step_count() != rec.step {
                    return Err(FaultReason::EventDivergence {
                        seq,
                        detail: format!(
                            "clock read at step {} but log records step {}",
                            self.machine.step_count(),
                            rec.step
                        ),
                    }
                    .into());
                }
                self.machine
                    .provide_clock(value)
                    .map_err(machine_error(seq))?;
                self.pending_clock_response = true;
                self.summary.inputs_reinjected += 1;
                Ok(())
            }
            NdDetail::PacketInjected { recv_seq } => {
                // The guest's copy; the table keeps its own.
                let payload = self
                    .pending_recvs
                    .get(&recv_seq)
                    .ok_or(FaultReason::CrossReferenceFailure {
                        seq,
                        detail: format!("injection references unknown RECV entry {recv_seq}"),
                    })?
                    .clone();
                self.run_to_step(seq, rec.step)?;
                self.machine.inject_packet(payload);
                self.summary.inputs_reinjected += 1;
                Ok(())
            }
            NdDetail::InputInjected { event } => {
                self.run_to_step(seq, rec.step)?;
                self.machine.inject_input(event);
                self.summary.inputs_reinjected += 1;
                Ok(())
            }
        }
    }

    fn replay_snapshot(&mut self, seq: u64, content: &[u8]) -> Result<(), Stop> {
        let rec =
            SnapshotRecord::decode_exact(content).map_err(|_| FaultReason::MalformedLog { seq })?;
        self.run_to_step(seq, rec.step)?;
        let root = self.state_tree.refresh(&self.machine);
        if root != rec.state_root {
            return Err(FaultReason::SnapshotMismatch { seq }.into());
        }
        // The recorder clears dirty tracking when it snapshots; mirror that
        // so later incremental captures stay comparable.
        self.machine.clear_dirty_tracking();
        self.summary.snapshots_verified += 1;
        Ok(())
    }

    /// Runs the machine until it produces an "interesting" exit: an output,
    /// a clock request, a halt or the step bound.  Idle exits are transparent
    /// (the recorder resumed idle guests too); console output is not part of
    /// the fault model and is skipped.  A guest that idles without making any
    /// step progress is reported as divergent rather than spinning forever.
    fn run_until_interesting(&mut self, seq: u64, step_bound: Option<u64>) -> Result<VmExit, Stop> {
        // A guest already paused on a clock read (e.g. left there by
        // `drain_pending_clock`) is itself the interesting event.
        if self.machine.is_waiting_clock() {
            return Ok(VmExit::ClockRead);
        }
        // Running the machine lets the guest consume any provided clock value.
        self.pending_clock_response = false;
        let mut last_idle_step: Option<u64> = None;
        loop {
            let stop = match step_bound {
                Some(s) => StopCondition::AtStep(s),
                None => StopCondition::Unbounded,
            };
            let exit = self.machine.run(stop).map_err(machine_error(seq))?;
            match exit {
                VmExit::Idle => {
                    let step = self.machine.step_count();
                    if last_idle_step == Some(step) {
                        return Err(FaultReason::EventDivergence {
                            seq,
                            detail: format!(
                                "reference execution is idle at step {step} waiting for input the log does not provide"
                            ),
                        }
                        .into());
                    }
                    last_idle_step = Some(step);
                    continue;
                }
                VmExit::ConsoleOut(_) => continue,
                other => return Ok(other),
            }
        }
    }

    /// Resumes the guest after a provided-but-unconsumed clock value, exactly
    /// as the recorder did: the recorder's run loop always continues after
    /// answering a clock read, so by the time it injects the next input the
    /// guest has consumed the value and gone idle.  Any output produced here
    /// would have appeared in the log before the current entry, so producing
    /// one now is a divergence.  A miss leaves the value pending, so the
    /// resumed entry drains again from where the guest stopped.
    fn drain_pending_clock(&mut self, seq: u64) -> Result<(), Stop> {
        if !self.pending_clock_response {
            return Ok(());
        }
        let drained = self.resume_after_clock(seq);
        if !matches!(drained, Err(Stop::Missed)) {
            self.pending_clock_response = false;
        }
        drained
    }

    fn resume_after_clock(&mut self, seq: u64) -> Result<(), Stop> {
        loop {
            // Unbounded: the guest must be resumed at least once so it can
            // consume the value, exactly as the recorder's run loop did.  It
            // stops at its next pause (idle or a further clock read).
            let exit = self
                .machine
                .run(StopCondition::Unbounded)
                .map_err(machine_error(seq))?;
            match exit {
                VmExit::Idle | VmExit::StepLimit | VmExit::Halted | VmExit::ClockRead => {
                    return Ok(())
                }
                VmExit::ConsoleOut(_) => continue,
                other => {
                    return Err(FaultReason::EventDivergence {
                        seq,
                        detail: format!(
                            "unexpected '{}' while resuming the guest after a clock read",
                            other.label()
                        ),
                    }
                    .into())
                }
            }
        }
    }

    /// Runs the machine until its step counter reaches exactly `step`.
    ///
    /// Encountering an output or a clock request on the way means the
    /// reference execution diverges from the log (those events would have
    /// been logged before this point).
    fn run_to_step(&mut self, seq: u64, step: u64) -> Result<(), Stop> {
        self.drain_pending_clock(seq)?;
        if self.machine.step_count() > step {
            return Err(FaultReason::EventDivergence {
                seq,
                detail: format!(
                    "log positions an event at step {step} but replay is already at step {}",
                    self.machine.step_count()
                ),
            }
            .into());
        }
        if self.machine.step_count() == step {
            return Ok(());
        }
        let exit = self.run_until_interesting(seq, Some(step))?;
        match exit {
            VmExit::StepLimit if self.machine.step_count() == step => Ok(()),
            VmExit::Halted => Err(FaultReason::EventDivergence {
                seq,
                detail: format!(
                    "reference execution halted at step {} before reaching step {step}",
                    self.machine.step_count()
                ),
            }
            .into()),
            other => Err(FaultReason::EventDivergence {
                seq,
                detail: format!(
                    "unexpected '{}' at step {} while positioning an event at step {step}",
                    other.label(),
                    self.machine.step_count()
                ),
            }
            .into()),
        }
    }
}

impl core::fmt::Debug for Replayer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Replayer")
            .field("step_count", &self.machine.step_count())
            .field("entries_replayed", &self.summary.entries_replayed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AvmmOptions;
    use crate::envelope::{Envelope, EnvelopeKind};
    use crate::events::{RecvRecord, SendRecord};
    use crate::ondemand::AuditorBlobCache;
    use crate::recorder::{Avmm, HostClock};
    use avm_crypto::keys::{SignatureScheme, SigningKey};
    use avm_log::LogEntry;
    use avm_vm::bytecode::assemble;
    use avm_vm::packet::encode_guest_packet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(seed: u64) -> SigningKey {
        let mut rng = StdRng::seed_from_u64(seed);
        SigningKey::generate(&mut rng, SignatureScheme::Rsa(512))
    }

    fn opts() -> AvmmOptions {
        AvmmOptions::default().with_scheme(SignatureScheme::Rsa(512))
    }

    /// Guest: every received packet is echoed back; reads the clock each loop.
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
        let code = assemble(src, 0).unwrap();
        VmImage::bytecode("echo", 128 * 1024, code, 0, 0)
    }

    /// Records a short interaction and returns the AVMM.
    fn record_session(image: &VmImage) -> (Avmm, SigningKey) {
        let alice_key = key(2);
        let mut bob = Avmm::new("bob", image, &GuestRegistry::new(), key(1), opts()).unwrap();
        bob.add_peer("alice", alice_key.verifying_key());
        let mut clock = HostClock::at(100);
        bob.run_slice(&clock, 10_000).unwrap();
        for i in 0..3u8 {
            clock.advance_to(clock.now() + 1_000);
            let payload = encode_guest_packet("alice", &[b'm', i]);
            let env = Envelope::create(
                EnvelopeKind::Data,
                "alice",
                "bob",
                i as u64 + 1,
                payload,
                &alice_key,
                None,
            );
            bob.deliver(&env).unwrap();
            bob.run_slice(&clock, 50_000).unwrap();
        }
        bob.take_snapshot();
        clock.advance_to(clock.now() + 1_000);
        bob.run_slice(&clock, 10_000).unwrap();
        (bob, alice_key)
    }

    #[test]
    fn honest_execution_replays_consistently() {
        let image = echo_image();
        let (bob, _) = record_session(&image);
        let mut replayer = Replayer::from_image(&image, &GuestRegistry::new()).unwrap();
        let outcome = replayer.replay(bob.log().entries());
        let ReplayOutcome::Consistent(summary) = outcome else {
            panic!("expected consistent replay, got {outcome:?}");
        };
        assert_eq!(summary.entries_replayed, bob.log().len() as u64);
        assert_eq!(summary.outputs_matched, 3);
        assert!(summary.inputs_reinjected >= 6); // 3 packets + clock reads
        assert_eq!(summary.snapshots_verified, 1);
        // The snapshot check above already ties the replayed state to the
        // recorded state; the recorder's machine has since run slightly past
        // the last logged event, so the final digests need not be equal.
        assert!(summary.final_state.is_some());
    }

    #[test]
    fn replay_side_roots_match_recorder_side_roots() {
        // The recorder derives roots from its long-lived StateTreeCache; the
        // replayer maintains its own. Every snapshot in an honest session
        // must verify — i.e. the two incremental pipelines agree root by
        // root — and the recorded roots must equal a from-scratch rebuild.
        let image = echo_image();
        let alice_key = key(2);
        let mut bob = Avmm::new("bob", &image, &GuestRegistry::new(), key(1), opts()).unwrap();
        bob.add_peer("alice", alice_key.verifying_key());
        let mut clock = HostClock::at(100);
        bob.run_slice(&clock, 10_000).unwrap();
        for i in 0..4u8 {
            clock.advance_to(clock.now() + 1_000);
            let payload = encode_guest_packet("alice", &[b'm', i]);
            let env = Envelope::create(
                EnvelopeKind::Data,
                "alice",
                "bob",
                i as u64 + 1,
                payload,
                &alice_key,
                None,
            );
            bob.deliver(&env).unwrap();
            bob.run_slice(&clock, 50_000).unwrap();
            let recorded_root = bob.take_snapshot().state_root;
            assert_eq!(
                recorded_root,
                crate::snapshot::build_state_tree_uncached(bob.machine()).root(),
                "recorder root {i} diverged from uncached rebuild"
            );
        }
        let mut replayer = Replayer::from_image(&image, &GuestRegistry::new()).unwrap();
        let outcome = replayer.replay(bob.log().entries());
        let ReplayOutcome::Consistent(summary) = outcome else {
            panic!("expected consistent replay, got {outcome:?}");
        };
        assert_eq!(summary.snapshots_verified, 4);
    }

    #[test]
    fn wrong_reference_image_detected() {
        let image = echo_image();
        let (bob, _) = record_session(&image);
        // The auditor's reference differs (e.g. a different game version).
        let other_src = "halt";
        let other = VmImage::bytecode("other", 128 * 1024, assemble(other_src, 0).unwrap(), 0, 0);
        let mut replayer = Replayer::from_image(&other, &GuestRegistry::new()).unwrap();
        let outcome = replayer.replay(bob.log().entries());
        assert!(matches!(
            outcome.fault(),
            Some(FaultReason::ImageMismatch { .. })
        ));
    }

    #[test]
    fn cheating_guest_image_detected_by_divergence() {
        // Bob *claims* to run the echo image (his log says so), but actually
        // runs a modified guest that appends a byte to every echoed packet —
        // the moral equivalent of an installed cheat.
        let honest_image = echo_image();
        let cheat_src = r"
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
                addi r0, 1        ; lie about the packet length
                send r1, r0
                jmp loop
            ";
        let cheat_image = VmImage::bytecode(
            "echo", // same name, same memory size — only the code differs
            128 * 1024,
            assemble(cheat_src, 0).unwrap(),
            0,
            0,
        );
        let alice_key = key(2);
        let mut bob =
            Avmm::new("bob", &cheat_image, &GuestRegistry::new(), key(1), opts()).unwrap();
        bob.add_peer("alice", alice_key.verifying_key());
        let clock = HostClock::at(50);
        bob.run_slice(&clock, 10_000).unwrap();
        let env = Envelope::create(
            EnvelopeKind::Data,
            "alice",
            "bob",
            1,
            encode_guest_packet("alice", b"shoot"),
            &alice_key,
            None,
        );
        bob.deliver(&env).unwrap();
        bob.run_slice(&clock, 50_000).unwrap();

        // Forge the META entry aside: the honest auditor replays with the
        // *agreed-upon* image.  The cheat image has a different digest, so we
        // rebuild a log that claims the honest image (what a cheater would
        // do) by replaying all non-meta entries against the honest reference.
        let entries: Vec<LogEntry> = bob
            .log()
            .entries()
            .iter()
            .filter(|e| e.kind != EntryKind::Meta)
            .cloned()
            .collect();
        let mut replayer = Replayer::from_image(&honest_image, &GuestRegistry::new()).unwrap();
        let outcome = replayer.replay(&entries);
        assert!(
            matches!(
                outcome.fault(),
                Some(FaultReason::OutputDivergence { .. })
                    | Some(FaultReason::EventDivergence { .. })
            ),
            "expected divergence, got {outcome:?}"
        );
    }

    #[test]
    fn tampered_send_payload_detected() {
        let image = echo_image();
        let (bob, _) = record_session(&image);
        let entries = bob.log().entries().to_vec();
        // Bob rewrites an outgoing packet in his log (say, to hide what he
        // actually sent).  Rebuild the chain so the syntactic check would
        // pass; replay must still catch it.
        let idx = entries
            .iter()
            .position(|e| e.kind == EntryKind::Send)
            .unwrap();
        let mut rec = SendRecord::decode_exact(&entries[idx].content).unwrap();
        rec.payload[2] ^= 0xff;
        let mut rebuilt = avm_log::TamperEvidentLog::new();
        for (i, e) in entries.iter().enumerate() {
            let content = if i == idx {
                rec.encode_to_vec()
            } else {
                e.content.clone()
            };
            rebuilt.append(e.kind, content);
        }
        let mut replayer = Replayer::from_image(&image, &GuestRegistry::new()).unwrap();
        let outcome = replayer.replay(rebuilt.entries());
        assert!(matches!(
            outcome.fault(),
            Some(FaultReason::OutputDivergence { .. })
        ));
    }

    /// Bob rewrites a received message in his log and rebuilds the chain:
    /// the injection still names that RECV, so the syntactic phase passes,
    /// and replay injects the rewritten payload, which the echo guest sends
    /// back — unlike the SEND the log records.
    #[test]
    fn rewritten_recv_payload_detected_by_replay() {
        let image = echo_image();
        let (bob, _) = record_session(&image);
        let entries = bob.log().entries();
        let idx = entries
            .iter()
            .position(|e| e.kind == EntryKind::Recv)
            .unwrap();
        let mut rec = RecvRecord::decode_exact(&entries[idx].content).unwrap();
        *rec.payload.last_mut().unwrap() ^= 0xff;
        let mut rebuilt = avm_log::TamperEvidentLog::new();
        for (i, e) in entries.iter().enumerate() {
            let content = if i == idx {
                rec.encode_to_vec()
            } else {
                e.content.clone()
            };
            rebuilt.append(e.kind, content);
        }
        crate::audit::syntactic_content_checks(rebuilt.entries()).unwrap();
        let echo = entries[idx..]
            .iter()
            .find(|e| e.kind == EntryKind::Send)
            .unwrap()
            .seq;
        let mut replayer = Replayer::from_image(&image, &GuestRegistry::new()).unwrap();
        let outcome = replayer.replay(rebuilt.entries());
        assert!(
            matches!(
                outcome.fault(),
                Some(FaultReason::OutputDivergence { seq, .. }) if *seq == echo
            ),
            "got {outcome:?}"
        );
    }

    /// The RECV table keeps what it has seen: a log that injects the same
    /// RECV entry twice gets the same payload both times, and the guest —
    /// which now echoes twice where the log records one echo — diverges
    /// where that second echo comes out.
    #[test]
    fn same_recv_injected_twice_delivers_the_payload_twice() {
        let image = echo_image();
        let (bob, _) = record_session(&image);
        let entries = bob.log().entries();
        let injection = entries
            .iter()
            .position(|e| {
                e.kind == EntryKind::NdEvent
                    && matches!(
                        NdEventRecord::decode_exact(&e.content).unwrap().detail,
                        NdDetail::PacketInjected { .. }
                    )
            })
            .unwrap();
        let mut replayer = Replayer::from_image(&image, &GuestRegistry::new()).unwrap();
        for entry in &entries[..=injection] {
            replayer.replay_entry(entry).unwrap();
        }
        let reinjected = replayer.summary().inputs_reinjected;
        replayer.replay_entry(&entries[injection]).unwrap();
        assert_eq!(replayer.summary().inputs_reinjected, reinjected + 1);
        let fault = entries[injection + 1..]
            .iter()
            .find_map(|entry| replayer.replay_entry(entry).err())
            .expect("the second echo is not in the log");
        assert_eq!(
            fault,
            FaultReason::EventDivergence {
                seq: 9,
                detail: "unexpected 'net-tx' while resuming the guest after a clock read".into(),
            }
        );
    }

    #[test]
    fn snapshot_mismatch_detected() {
        let image = echo_image();
        let (bob, _) = record_session(&image);
        let mut rebuilt = avm_log::TamperEvidentLog::new();
        for e in bob.log().entries() {
            let content = if e.kind == EntryKind::Snapshot {
                let mut rec = SnapshotRecord::decode_exact(&e.content).unwrap();
                rec.state_root = avm_crypto::sha256(b"wrong state");
                rec.encode_to_vec()
            } else {
                e.content.clone()
            };
            rebuilt.append(e.kind, content);
        }
        let mut replayer = Replayer::from_image(&image, &GuestRegistry::new()).unwrap();
        let outcome = replayer.replay(rebuilt.entries());
        assert!(matches!(
            outcome.fault(),
            Some(FaultReason::SnapshotMismatch { .. })
        ));
    }

    #[test]
    fn dropped_message_detected() {
        // Bob receives a message but omits the RECV/injection from his log:
        // the echo output he later sent has no explanation and replay fails.
        let image = echo_image();
        let (bob, _) = record_session(&image);
        let filtered: Vec<LogEntry> = bob
            .log()
            .entries()
            .iter()
            .filter(|e| {
                if e.kind == EntryKind::Recv && e.seq > 3 {
                    return false;
                }
                if e.kind == EntryKind::NdEvent {
                    if let Ok(rec) = NdEventRecord::decode_exact(&e.content) {
                        if matches!(rec.detail, NdDetail::PacketInjected { recv_seq, .. } if recv_seq > 3)
                        {
                            return false;
                        }
                    }
                }
                true
            })
            .cloned()
            .collect();
        let mut rebuilt = avm_log::TamperEvidentLog::new();
        for e in &filtered {
            rebuilt.append(e.kind, e.content.clone());
        }
        let mut replayer = Replayer::from_image(&image, &GuestRegistry::new()).unwrap();
        let outcome = replayer.replay(rebuilt.entries());
        assert!(
            outcome.fault().is_some(),
            "expected a fault, got {outcome:?}"
        );
    }

    #[test]
    fn replay_from_snapshot_spot_checks_a_suffix() {
        let image = echo_image();
        let (bob, _) = record_session(&image);
        // Find the snapshot entry and replay only what follows it.
        let snap_entry_idx = bob
            .log()
            .entries()
            .iter()
            .position(|e| e.kind == EntryKind::Snapshot)
            .unwrap();
        let suffix: Vec<LogEntry> = bob.log().entries()[snap_entry_idx + 1..].to_vec();
        let mut replayer =
            Replayer::from_snapshot(&image, &GuestRegistry::new(), bob.snapshots(), 0).unwrap();
        let outcome = replayer.replay(&suffix);
        assert!(outcome.is_consistent(), "{outcome:?}");
    }

    /// On-demand replay (§3.5, metadata + lazy fault-in) must reach the same
    /// verdict and the same final state root as replay from a fully
    /// downloaded snapshot.
    #[test]
    fn on_demand_replay_matches_full_snapshot_replay() {
        let image = echo_image();
        let (bob, _) = record_session(&image);
        let registry = GuestRegistry::new();
        let snap_entry_idx = bob
            .log()
            .entries()
            .iter()
            .position(|e| e.kind == EntryKind::Snapshot)
            .unwrap();
        let suffix: Vec<LogEntry> = bob.log().entries()[snap_entry_idx + 1..].to_vec();

        let mut full = Replayer::from_snapshot(&image, &registry, bob.snapshots(), 0).unwrap();
        let full_outcome = full.replay(&suffix);
        assert!(full_outcome.is_consistent(), "{full_outcome:?}");

        let mut cache = crate::ondemand::AuditorBlobCache::new();
        let (mut lazy, session) =
            Replayer::from_snapshot_on_demand(&image, &registry, bob.snapshots(), 0, &cache)
                .unwrap();
        let lazy_outcome = lazy.replay(&suffix);
        assert!(lazy_outcome.is_consistent(), "{lazy_outcome:?}");

        // The summaries' final_state (a Merkle root) must agree even though
        // the lazy machine never downloaded its untouched pages.
        let (ReplayOutcome::Consistent(full_summary), ReplayOutcome::Consistent(lazy_summary)) =
            (&full_outcome, &lazy_outcome)
        else {
            unreachable!()
        };
        assert_eq!(full_summary.final_state, lazy_summary.final_state);
        assert!(full_summary.final_state.is_some());
        assert_eq!(full.current_state_root(), lazy.current_state_root());
        assert_eq!(
            full.summary().entries_replayed,
            lazy.summary().entries_replayed
        );
        assert_eq!(full.summary().steps_executed, lazy.summary().steps_executed);

        // Settling the session yields a valid accounting and primes the
        // cache for later checks.
        let cost = session
            .finish(lazy.machine(), bob.snapshots(), &mut cache)
            .unwrap();
        assert!(cost.manifest_bytes > 0);
        assert_eq!(cache.len(), cost.fetched.len());
    }

    /// A miss inside the drain that resumes the guest after a clock read
    /// leaves the drain to be resumed.  A log that omits the SEND the guest
    /// makes right after consuming a clock value, replayed from a start
    /// whose written chunk is byteless (each miss supplied from the store),
    /// ends in the drain's own fault — the one replay from a start the store
    /// fills in reaches.
    #[test]
    fn a_miss_inside_the_clock_drain_resumes_the_drain() {
        let src = r"
                movi r9, 0x4000
                movi r8, 8
            loop:
                clock r4
                store r4, r9
                send r9, r8
                idle
                jmp loop
            ";
        let image = VmImage::bytecode("drain", 64 * 1024, assemble(src, 0).unwrap(), 0, 0);
        let registry = GuestRegistry::new();
        let mut machine = Machine::from_image(&image, &registry).unwrap();
        let mut store = SnapshotStore::new();
        let mut log = avm_log::TamperEvidentLog::new();
        let mut clock_reads = Vec::new();
        let mut run_to_idle = |machine: &mut Machine, value: u64| loop {
            match machine.run(StopCondition::Unbounded).unwrap() {
                VmExit::ClockRead => {
                    clock_reads.push(machine.step_count());
                    machine.provide_clock(value).unwrap();
                }
                VmExit::Idle => break,
                _ => {}
            }
        };
        run_to_idle(&mut machine, 5);
        store.push(crate::snapshot::capture(&mut machine, 0, true));
        run_to_idle(&mut machine, 7);
        let read = NdEventRecord {
            step: clock_reads[1],
            detail: NdDetail::ClockRead { value: 7 },
        };
        log.append(EntryKind::NdEvent, read.encode_to_vec());
        let snapshot = crate::snapshot::capture(&mut machine, 1, true);
        let record = SnapshotRecord {
            step: machine.step_count(),
            snapshot_id: 1,
            state_root: snapshot.state_root,
        };
        log.append(EntryKind::Snapshot, record.encode_to_vec());
        store.push(snapshot);

        let cache = AuditorBlobCache::new();
        let filled = Replayer::from_snapshot_on_demand(&image, &registry, &store, 0, &cache)
            .unwrap()
            .0
            .replay(log.entries());
        let manifest = store.chain_manifest_upto(0).unwrap();
        let (mut lazy, staged) =
            Replayer::from_manifest_on_demand(&manifest, 0, &image, &registry, &cache).unwrap();
        let mut misses = 0;
        let outcome = loop {
            let done = lazy.summary().entries_replayed as usize;
            if let Some(outcome) = lazy.replay_until_miss(&log.entries()[done..]) {
                break outcome;
            }
            misses += 1;
            for digest in staged.missed(lazy.machine()) {
                let payload = store.payload(&digest).unwrap();
                staged.supply(lazy.machine_mut(), &digest, payload);
            }
        };
        assert_eq!(misses, 1);
        assert_eq!(outcome, filled);
        let Some(FaultReason::EventDivergence { detail, .. }) = outcome.fault() else {
            panic!("expected the omitted SEND to diverge, got {outcome:?}");
        };
        assert!(
            detail.contains("while resuming the guest after a clock read"),
            "{detail}"
        );
    }
}
