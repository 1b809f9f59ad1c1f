//! Spot checking: partial audits of `k`-chunks between snapshots.
//!
//! "For long-running, compute-intensive applications, Alice may want to save
//! time by doing spot checks on a few log segments instead.  The AVMM can
//! enable her to do this by periodically taking a snapshot of the AVM's
//! state.  Thus, Alice can independently inspect any segment that begins and
//! ends at a snapshot" (paper §3.5).  Figure 9 reports the replay time and
//! the data that must be transferred as a function of the chunk size `k`.
//!
//! For the state an auditor must download to *start* a chunk, §3.5 offers a
//! choice — "download an entire snapshot or incrementally request the parts
//! of the state that are accessed during replay" — and a check runs in one of
//! those two modes.  Both download the snapshot's manifest first; then
//! [`spot_check`] downloads every blob the image and the auditor's cache
//! lack before replay, and [`spot_check_on_demand`] downloads blobs only as
//! replay touches them.
//!
//! A [`SpotCheckReport`] states what the check *observed*: the verdict,
//! truthful replay progress, the bytes of log and of snapshot state it
//! received, and the wire-level accounting of the exchanges it drove.  It
//! prices nothing that did not happen.  The side-by-side comparison of the
//! §3.5 transfer models (full dump vs digest-addressed dedup transfer vs
//! on-demand), compressed sizes, and what an unbatched blob exchange would
//! have cost are computed by the experiments that print them
//! (`avm_bench::pricing`), which own the provider's log and store and may
//! legitimately look at both sides.
//!
//! The snapshot download is additionally reported in **round trips** — one
//! for the manifest, then one per prefetch batch or per miss replay ran into
//! ([`crate::session`], "# Prefetch and misses").
//!
//! Every spot check is one [`crate::session::AuditSession`] *driven through
//! the audit protocol* ([`crate::endpoint`]): the free functions here are
//! thin wrappers building an [`crate::endpoint::AuditClient`] on the
//! simulated WAN link ([`LinkConfig::WAN`]), and the report's
//! [`SpotCheckReport::transport`] column records the wire-level accounting
//! of the exchanges the check actually performed.  Every latency it reports is measured: the simulated
//! time those exchanges took on that link.

use avm_compress::CompressionLevel;
use avm_crypto::sha256::Digest;
use avm_log::{EntryKind, LogEntry, TamperEvidentLog};
use avm_net::LinkConfig;
use avm_vm::{GuestRegistry, VmImage};
use avm_wire::Decode;

use crate::endpoint::{AuditClient, AuditServer, SimNetTransport, TransportStats};
use crate::error::{CoreError, FaultReason};
use crate::events::SnapshotRecord;
use crate::ondemand::{AuditorBlobCache, OnDemandCost};
use crate::snapshot::SnapshotStore;

/// Compression level experiments price transferred state and log segments at
/// (the audit tool compresses downloads at the default level).  No audit
/// compresses anything; the constant lives here so every experiment that
/// compares spot checks against a full-audit baseline compresses both sides
/// of the ratio identically.
pub const TRANSFER_COMPRESSION: CompressionLevel = CompressionLevel::Default;

/// Outcome and cost of one spot check — one data point of the paper's
/// Figure 9: the verdict, truthful replay-progress counters, and the bytes
/// the check received (see the module docs for what it deliberately leaves
/// out).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpotCheckReport {
    /// Index of the first segment in the chunk (snapshot id the check starts
    /// from; 0 for an audit started at the image).
    pub start_snapshot: u64,
    /// Number of consecutive segments covered (`k`; 0 from the image).
    pub chunk_size: u64,
    /// Whether the chunk replayed consistently.
    pub consistent: bool,
    /// The fault, if one was found.
    pub fault: Option<FaultReason>,
    /// Log entries replayed.  On a fault this counts entries processed up to
    /// and including the faulting one — the truthful partial cost.
    pub entries_replayed: u64,
    /// Machine steps replayed (also truthful on a faulted chunk).
    pub steps_replayed: u64,
    /// Merkle state root replay ended in, when the chunk replayed
    /// consistently: the same in both download modes.
    pub final_state: Option<Digest>,
    /// Held authenticators the chunk was judged against: those whose seq it
    /// covers.  0 means the check bound the chunk to no signed history — it
    /// shows only that the chunk is a well-formed log replaying from the
    /// state served with it ([`crate::session`]).
    pub authenticators_checked: usize,
    /// Bytes of log received for the chunk: the length of its run of
    /// records as it arrived.
    pub log_transfer_bytes: u64,
    /// Bytes of snapshot state received to start the check: the manifest
    /// plus every blob response, in both modes (equal to
    /// `on_demand.transfer_bytes`).  Zero when the syntactic phase failed,
    /// which ends the check before any snapshot state is requested.
    pub snapshot_transfer_bytes: u64,
    /// The digest-addressed download's detail — faults, cache hits, fetched
    /// digests, round trips.  Present once replay started, in both modes: a
    /// full download's `fetched` is everything the image and the cache
    /// lacked, in prefetch batches; an on-demand check's is what its misses
    /// asked for.  Absent after a failed syntactic phase.
    pub on_demand: Option<OnDemandCost>,
    /// Wire-level accounting of the exchanges this check drove over its
    /// link ([`crate::endpoint::SimNetTransport`]): round trips, framed
    /// bytes, retransmissions, and the **measured** latency in simulated
    /// network time.
    pub transport: TransportStats,
}

impl SpotCheckReport {
    /// Total bytes of log and snapshot state this spot check received.
    pub fn total_transfer_bytes(&self) -> u64 {
        self.snapshot_transfer_bytes + self.log_transfer_bytes
    }

    /// Round trips the snapshot download performed (manifest + one blob
    /// request per batch or miss), when available.
    pub fn on_demand_round_trips(&self) -> Option<u64> {
        self.on_demand.as_ref().map(|c| c.round_trips)
    }

    /// This report with the wire-level column cleared — what the check
    /// looks like independent of the transport that carried it.  Two
    /// reports whose `semantic()` forms are equal reached identical
    /// verdicts, faults, progress counters and transfer accounting.
    pub fn semantic(&self) -> SpotCheckReport {
        SpotCheckReport {
            transport: TransportStats::default(),
            ..self.clone()
        }
    }
}

/// Locates the log positions of all snapshot entries.
///
/// Returns `(entry index, snapshot id, state root)` for each SNAPSHOT entry.
/// A SNAPSHOT entry whose payload does not decode is log corruption the
/// recorder signed — it surfaces as [`FaultReason::MalformedLog`] rather than
/// being silently dropped (which would later masquerade as "snapshot N not
/// in log").
pub fn snapshot_positions(
    log: &TamperEvidentLog,
) -> Result<Vec<(usize, u64, Digest)>, FaultReason> {
    snapshot_positions_in(log.entries())
}

/// [`snapshot_positions`] over a slice of entries: the provider resolving a
/// chunk's boundaries.  (An auditor finds an undecodable SNAPSHOT record in
/// what it received with the syntactic phase,
/// [`crate::audit::syntactic_content_checks`].)
pub fn snapshot_positions_in(
    entries: &[LogEntry],
) -> Result<Vec<(usize, u64, Digest)>, FaultReason> {
    entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == EntryKind::Snapshot)
        .map(|(i, e)| {
            SnapshotRecord::decode_exact(&e.content)
                .map(|rec| (i, rec.snapshot_id, rec.state_root))
                .map_err(|_| FaultReason::MalformedLog { seq: e.seq })
        })
        .collect()
}

/// An auditor endpoint over [`LinkConfig::WAN`], so the free functions
/// report the simulated WAN latency in their `transport` column.
fn wan_client<'a>(
    log: &'a TamperEvidentLog,
    snapshots: &'a SnapshotStore,
    cache: AuditorBlobCache,
) -> AuditClient<SimNetTransport<'a>> {
    AuditClient::with_cache(
        SimNetTransport::new(AuditServer::new(log, snapshots), LinkConfig::WAN),
        cache,
    )
}

/// Spot-checks the `k`-chunk starting at snapshot `start_snapshot`, with the
/// snapshot state downloaded in full before replay: the manifest, then every
/// blob the image does not hold.
///
/// The chunk consists of the log entries from the SNAPSHOT entry for
/// `start_snapshot` — its anchor, whose root the start state must hash to —
/// to the SNAPSHOT entry `k` snapshots later (both inclusive), or the end of
/// the log if there are fewer snapshots; replay runs the entries after the
/// anchor.  Use
/// [`spot_check_on_demand`] for the incremental-request mode.
///
/// Thin wrapper over [`crate::endpoint::AuditClient::spot_check`] on the
/// simulated WAN ([`LinkConfig::WAN`]); build the client over another
/// [`LinkConfig`] to pay every exchange on that link instead.
pub fn spot_check(
    log: &TamperEvidentLog,
    snapshots: &SnapshotStore,
    start_snapshot: u64,
    k: u64,
    image: &VmImage,
    registry: &GuestRegistry,
) -> Result<SpotCheckReport, CoreError> {
    wan_client(log, snapshots, AuditorBlobCache::new()).spot_check(
        start_snapshot,
        k,
        image,
        registry,
    )
}

/// Spot-checks the `k`-chunk starting at snapshot `start_snapshot` in
/// on-demand mode (§3.5's "incrementally request the parts of the state
/// that are accessed during replay").
///
/// The replayer starts from snapshot metadata only; divergent state faults
/// in lazily as replay touches it.  Blobs the persistent `cache` already
/// holds are never re-downloaded, and blobs fetched by this check are added
/// to it — consecutive checks by the same auditor get cheaper.  The verdict
/// is produced by the on-demand replay itself and equals the full-download
/// verdict (both modes authenticate the same roots).
///
/// Thin wrapper over
/// [`crate::endpoint::AuditClient::spot_check_on_demand`]: the client
/// temporarily adopts `cache` as its persistent blob cache and hands it
/// back (with the fetched blobs added) when the check settles.
pub fn spot_check_on_demand(
    log: &TamperEvidentLog,
    snapshots: &SnapshotStore,
    start_snapshot: u64,
    k: u64,
    image: &VmImage,
    registry: &GuestRegistry,
    cache: &mut AuditorBlobCache,
) -> Result<SpotCheckReport, CoreError> {
    let mut client = wan_client(log, snapshots, std::mem::take(cache));
    let result = client.spot_check_on_demand(start_snapshot, k, image, registry);
    *cache = client.into_cache();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::record_with_snapshots;
    use avm_vm::packet::encode_guest_packet;
    use avm_wire::Encode;

    #[test]
    fn honest_chunks_pass_for_various_k() {
        let (bob, image) = record_with_snapshots(5);
        assert_eq!(bob.snapshots().len(), 5);
        for (start, k) in [(0u64, 1u64), (0, 3), (1, 2), (2, 2), (4, 1)] {
            let report = spot_check(
                bob.log(),
                bob.snapshots(),
                start,
                k,
                &image,
                &GuestRegistry::new(),
            )
            .unwrap();
            assert!(report.consistent, "chunk ({start},{k}): {:?}", report.fault);
            assert!(report.snapshot_transfer_bytes > 0 || start == 0);
            assert!(report.log_transfer_bytes > 0 || report.entries_replayed == 0);
            assert_eq!(report.chunk_size, k);
        }
    }

    #[test]
    fn larger_chunks_cost_more_replay_but_share_snapshot_cost() {
        let (bob, image) = record_with_snapshots(5);
        let k1 = spot_check(
            bob.log(),
            bob.snapshots(),
            1,
            1,
            &image,
            &GuestRegistry::new(),
        )
        .unwrap();
        let k3 = spot_check(
            bob.log(),
            bob.snapshots(),
            1,
            3,
            &image,
            &GuestRegistry::new(),
        )
        .unwrap();
        assert!(k3.entries_replayed > k1.entries_replayed);
        assert!(k3.log_transfer_bytes > k1.log_transfer_bytes);
        assert_eq!(k3.snapshot_transfer_bytes, k1.snapshot_transfer_bytes);
        assert!(k3.total_transfer_bytes() > k1.total_transfer_bytes());
    }

    #[test]
    fn spot_check_detects_fault_inside_the_chunk() {
        let (bob, image) = record_with_snapshots(3);
        // Tamper with the last SEND payload in the log, then rebuild the
        // chain so the syntactic layer would not object.
        let mut rebuilt = avm_log::TamperEvidentLog::new();
        let last_send_seq = bob
            .log()
            .entries()
            .iter()
            .rfind(|e| e.kind == EntryKind::Send)
            .unwrap()
            .seq;
        for e in bob.log().entries() {
            let content = if e.seq == last_send_seq {
                let mut rec = crate::events::SendRecord::decode_exact(&e.content).unwrap();
                rec.payload = encode_guest_packet("alice", b"cheated");
                use avm_wire::Encode;
                rec.encode_to_vec()
            } else {
                e.content.clone()
            };
            rebuilt.append(e.kind, content);
        }
        // The fault is in the last segment: a chunk covering it fails ...
        let report = spot_check(
            &rebuilt,
            bob.snapshots(),
            1,
            2,
            &image,
            &GuestRegistry::new(),
        )
        .unwrap();
        assert!(!report.consistent);
        assert!(report.fault.is_some());
        // ... and reports truthful partial progress: the replayer got through
        // part of the chunk before diverging, so the Fig. 9 cost is neither
        // "everything" nor zero.
        let chunk_entries = {
            let positions = snapshot_positions(&rebuilt).unwrap();
            let start = positions.iter().find(|(_, id, _)| *id == 1).unwrap().0;
            rebuilt.entries().len() - (start + 1)
        };
        assert!(report.entries_replayed > 0);
        assert!(
            (report.entries_replayed as usize) < chunk_entries,
            "fault in the last segment must stop replay early: {} vs {}",
            report.entries_replayed,
            chunk_entries
        );
        assert!(
            report.steps_replayed > 0,
            "replay executed real steps before faulting"
        );
        // ... while a chunk before it still passes (spot checking only sees
        // faults that manifest in the inspected segments, §3.5).
        let earlier = spot_check(
            &rebuilt,
            bob.snapshots(),
            0,
            1,
            &image,
            &GuestRegistry::new(),
        )
        .unwrap();
        assert!(earlier.consistent);
    }

    #[test]
    fn unknown_snapshot_is_an_error() {
        let (bob, image) = record_with_snapshots(2);
        assert!(spot_check(
            bob.log(),
            bob.snapshots(),
            9,
            1,
            &image,
            &GuestRegistry::new()
        )
        .is_err());
    }

    #[test]
    fn snapshot_positions_found() {
        let (bob, _) = record_with_snapshots(3);
        let pos = snapshot_positions(bob.log()).unwrap();
        assert_eq!(pos.len(), 3);
        assert_eq!(pos[0].1, 0);
        assert_eq!(pos[2].1, 2);
        assert!(pos[0].0 < pos[1].0 && pos[1].0 < pos[2].0);
    }

    #[test]
    fn corrupt_snapshot_record_is_a_fault_not_a_missing_snapshot() {
        let (bob, image) = record_with_snapshots(3);
        // Corrupt the payload of the second SNAPSHOT entry and rebuild the
        // chain so the syntactic layer would not object.
        let mut rebuilt = avm_log::TamperEvidentLog::new();
        let mut snapshot_entries_seen = 0;
        let mut corrupted_seq = 0;
        for e in bob.log().entries() {
            let content = if e.kind == EntryKind::Snapshot {
                snapshot_entries_seen += 1;
                if snapshot_entries_seen == 2 {
                    corrupted_seq = rebuilt.len() as u64 + 1;
                    vec![0xff, 0x01] // does not decode as a SnapshotRecord
                } else {
                    e.content.clone()
                }
            } else {
                e.content.clone()
            };
            rebuilt.append(e.kind, content);
        }
        assert!(matches!(
            snapshot_positions(&rebuilt),
            Err(FaultReason::MalformedLog { .. })
        ));
        // The spot check surfaces the corruption as a fault verdict (with the
        // corrupt entry's seq), not as the misleading "snapshot not in log".
        let report = spot_check(
            &rebuilt,
            bob.snapshots(),
            0,
            1,
            &image,
            &GuestRegistry::new(),
        )
        .unwrap();
        assert!(!report.consistent);
        assert!(
            matches!(report.fault, Some(FaultReason::MalformedLog { seq }) if seq == corrupted_seq),
            "expected MalformedLog at seq {corrupted_seq}, got {:?}",
            report.fault
        );
        assert_eq!(report.entries_replayed, 0);
        // No snapshot state was downloaded, but discovering the corruption
        // cost the auditor the log up to the corrupt entry.
        assert_eq!(report.snapshot_transfer_bytes, 0);
        // As the prefix ships: one run of records, no seq in any of them,
        // hashes at its checkpoints only.
        let shipped: Vec<u64> =
            avm_log::wire::wire_entries(&rebuilt.entries()[..corrupted_seq as usize])
                .map(|e| avm_wire::Encode::encoded_len(&e) as u64)
                .collect();
        let scanned_bytes: u64 = shipped[..shipped.len() - 1].iter().sum();
        // The corrupt entry itself is counted on top of the entries before
        // it, and nothing after it is.
        assert!(report.log_transfer_bytes > scanned_bytes);
        assert_eq!(report.log_transfer_bytes, shipped.iter().sum::<u64>());
    }

    /// The on-demand verdict equals the full verdict, each mode reports the
    /// download it made (on-demand at most what the full download fetched,
    /// both far below the section stream for this workload), and a second
    /// check against the same cache re-downloads nothing.
    #[test]
    fn on_demand_spot_check_columns_and_cache() {
        let (bob, image) = record_with_snapshots(4);
        let registry = GuestRegistry::new();
        let full = spot_check(bob.log(), bob.snapshots(), 2, 1, &image, &registry).unwrap();
        assert!(full.consistent);
        let full_cost = full.on_demand.as_ref().unwrap();
        assert_eq!(full.snapshot_transfer_bytes, full_cost.transfer_bytes);
        assert!(full.snapshot_transfer_bytes < bob.snapshots().transfer_bytes_upto(2) / 2);

        let mut cache = AuditorBlobCache::new();
        let od = spot_check_on_demand(
            bob.log(),
            bob.snapshots(),
            2,
            1,
            &image,
            &registry,
            &mut cache,
        )
        .unwrap();
        assert!(od.consistent);
        assert_eq!(od.entries_replayed, full.entries_replayed);
        assert_eq!(od.steps_replayed, full.steps_replayed);
        assert_eq!(od.log_transfer_bytes, full.log_transfer_bytes);
        let cost = od.on_demand.as_ref().unwrap();
        assert!(cost.transfer_bytes > cost.manifest_bytes);
        // The snapshot column is the download this check made, not the
        // full dump it avoided; it fetched a subset of what the full
        // download prefetched.
        assert_eq!(od.snapshot_transfer_bytes, cost.transfer_bytes);
        assert_eq!(od.final_state, full.final_state);
        assert!(cost.fetched.iter().all(|d| full_cost.fetched.contains(d)));
        // Manifest plus at least one batch, never more than one trip per blob.
        let rtts = od.on_demand_round_trips().unwrap();
        assert!(rtts >= 2);
        assert!(rtts <= 1 + cost.fetched.len() as u64);

        // Warm cache: the same check again fetches zero blobs and pays for
        // the manifest alone.
        let again = spot_check_on_demand(
            bob.log(),
            bob.snapshots(),
            2,
            1,
            &image,
            &registry,
            &mut cache,
        )
        .unwrap();
        assert!(again.consistent);
        let again_cost = again.on_demand.as_ref().unwrap();
        assert!(
            again_cost.fetched.is_empty(),
            "cache must prevent re-downloading held digests"
        );
        assert_eq!(again.snapshot_transfer_bytes, again_cost.manifest_bytes);
    }

    /// A fault inside the chunk is detected identically in on-demand mode,
    /// with truthful partial progress.
    #[test]
    fn on_demand_spot_check_detects_fault() {
        let (bob, image) = record_with_snapshots(3);
        let mut rebuilt = avm_log::TamperEvidentLog::new();
        let last_send_seq = bob
            .log()
            .entries()
            .iter()
            .rfind(|e| e.kind == EntryKind::Send)
            .unwrap()
            .seq;
        for e in bob.log().entries() {
            let content = if e.seq == last_send_seq {
                let mut rec = crate::events::SendRecord::decode_exact(&e.content).unwrap();
                rec.payload = encode_guest_packet("alice", b"cheated");
                rec.encode_to_vec()
            } else {
                e.content.clone()
            };
            rebuilt.append(e.kind, content);
        }
        let mut cache = AuditorBlobCache::new();
        let report = spot_check_on_demand(
            &rebuilt,
            bob.snapshots(),
            1,
            2,
            &image,
            &GuestRegistry::new(),
            &mut cache,
        )
        .unwrap();
        assert!(!report.consistent);
        assert!(report.fault.is_some());
        assert!(report.entries_replayed > 0);
        assert!(report.steps_replayed > 0);
        // The faulted check still settles its transfer accounting.
        assert!(report.on_demand.is_some());
    }
}
