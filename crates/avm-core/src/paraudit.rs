//! Segment-parallel audit replay — the paper's multicore claim (§6).
//!
//! **No audit path calls this module.**  The spot check replays its chunk
//! serially ([`crate::session::AuditSession`]): no clock has ever seen the
//! lanes below pay off (`paraudit.speedup_measured` reads 1.00–1.01).  What
//! remains is [`replay_chunk_parallel`] and [`ParallelReplayStats`], whose
//! one caller is the standalone benchmark's per-layer timing (`bench/`),
//! and the unit tests pinning it to the serial replayer.  Both go together
//! with the benchmark's `paraudit.*` keys.
//!
//! "Since the log segments between snapshots can be replayed independently,
//! the auditor can replay different segments in parallel on multiple cores."
//! A §3.5 chunk downloaded for a spot check already carries its own
//! partition: every SNAPSHOT entry inside the chunk is a point whose state
//! the auditor can reconstruct and whose recorded root the previous segment
//! verifies.  This module cuts the chunk at those boundaries into
//! independent `(start snapshot, segment)` **replay units**, executes them
//! concurrently in lanes of [`avm_crypto::parallel::in_parts`], each lane
//! replaying its units straight from the caller's entries, and merges the
//! per-unit outcomes into exactly the verdict, fault and progress counters
//! a serial replay of the whole chunk produces.
//!
//! Field-identity with the serial path is not best-effort — it is the
//! contract (pinned by unit and property tests):
//!
//! * **Units start root-pinned.**  An interior unit's machine materializes
//!   from the [`SnapshotStore`] the caller hands in (the provider's own: no
//!   audit runs this module, `bench/` times it) and its state root is compared
//!   against the root the log records at that boundary *before* any unit
//!   runs.  A mismatch — a store whose snapshot diverges from what the log
//!   claims — falls back to full serial replay, so the adversarial case
//!   where serial replay would have passed (or faulted elsewhere) cannot
//!   produce a divergent parallel verdict.
//! * **Cross-segment context is preserved.**  Each unit pre-seeds its RECV
//!   cross-reference table from the chunk entries before its range
//!   ([`Replayer::preload_recvs`]), so an injection referencing a RECV from
//!   an earlier segment resolves exactly as it does serially.
//! * **Fault attribution is deterministic.**  The lowest-index faulting
//!   unit wins; counters merge as the sum of every earlier unit's full
//!   progress plus the faulting unit's truthful partial progress — the
//!   same totals the serial replayer reports, because units chain
//!   end-step to start-step at verified snapshot boundaries.
//!
//! What the lanes buy in wall-clock is a measurement, not a property of this
//! module: `bench/` times [`replay_chunk_parallel`] per lane count on the
//! host it runs on (1.00x on the two-thread CI host).

use std::time::Instant;

use avm_crypto::parallel::in_parts;
use avm_crypto::sha256::Digest;
use avm_log::LogEntry;
use avm_vm::{GuestRegistry, VmImage};

use crate::error::{CoreError, FaultReason};
use crate::replay::{ReplayOutcome, ReplaySummary, Replayer};
use crate::snapshot::SnapshotStore;
use crate::spotcheck::snapshot_positions_in;

/// One independent replay unit of a partitioned chunk: a contiguous entry
/// range and the snapshot it starts from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayUnit {
    /// Entry range within the chunk (`range.end` exclusive).
    pub range: core::ops::Range<usize>,
    /// `None`: the unit starts from the chunk's start snapshot (unit 0).
    /// `Some((id, root))`: the unit starts from an interior snapshot whose
    /// SNAPSHOT entry (the last entry of the previous unit) records `root`.
    pub boundary: Option<(u64, Digest)>,
}

/// Cuts a downloaded chunk at its interior snapshot boundaries.
///
/// `positions` must be [`snapshot_positions_in`] of `entries`.  A SNAPSHOT
/// entry ends the unit containing it (the unit replays and verifies it);
/// the next unit starts from that snapshot.  A SNAPSHOT entry that is the
/// chunk's last entry closes the chunk and opens nothing.  A chunk with no
/// interior snapshots (k=1, or a trailing open chunk) is one unit — the
/// serial case.
pub fn partition_chunk(
    entries: &[LogEntry],
    positions: &[(usize, u64, Digest)],
) -> Vec<ReplayUnit> {
    if entries.is_empty() {
        return Vec::new();
    }
    let mut units = Vec::new();
    let mut start = 0usize;
    let mut boundary = None;
    for &(pos, id, root) in positions {
        if pos + 1 >= entries.len() {
            break; // closes the chunk; nothing follows
        }
        units.push(ReplayUnit {
            range: start..pos + 1,
            boundary,
        });
        start = pos + 1;
        boundary = Some((id, root));
    }
    units.push(ReplayUnit {
        range: start..entries.len(),
        boundary,
    });
    units
}

/// How a parallel chunk replay executed — telemetry beside the merged
/// verdict (never part of the field-identity contract).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParallelReplayStats {
    /// Replay units the chunk partitioned into (1 = serial case).
    pub units: usize,
    /// Concurrent lanes the units were distributed over (≤ requested
    /// workers; the calling thread drives lane 0).
    pub lanes: usize,
    /// True when a boundary precondition failed (an interior snapshot that
    /// does not materialize, or materializes to a root other than the log
    /// records) and the whole chunk was replayed serially instead.
    pub fell_back_serial: bool,
    /// Measured replay wall time per unit, in µs, unit order.
    pub unit_cpu_micros: Vec<u64>,
}

/// Merged outcome of a (possibly parallel) chunk replay: exactly the
/// verdict/fault/progress triple the serial replayer yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkReplayOutcome {
    /// True when every unit replayed consistently.
    pub consistent: bool,
    /// The lowest-index fault, if any.
    pub fault: Option<FaultReason>,
    /// Merged progress counters (truthful partial progress on a fault).
    pub progress: ReplaySummary,
    /// Execution telemetry.
    pub stats: ParallelReplayStats,
}

/// Outcome of one replay unit, in unit order.
struct UnitResult {
    fault: Option<FaultReason>,
    summary: ReplaySummary,
    cpu_micros: u64,
}

fn run_unit(mut replayer: Replayer, entries: &[LogEntry]) -> UnitResult {
    let started = Instant::now();
    let fault = match replayer.replay(entries) {
        ReplayOutcome::Consistent(_) => None,
        ReplayOutcome::Fault(f) => Some(f),
    };
    UnitResult {
        fault,
        summary: replayer.summary(),
        cpu_micros: started.elapsed().as_micros() as u64,
    }
}

fn serial_outcome(
    image: &VmImage,
    registry: &GuestRegistry,
    snapshots: &SnapshotStore,
    start_snapshot: u64,
    entries: &[LogEntry],
    fell_back: bool,
) -> Result<ChunkReplayOutcome, CoreError> {
    let replayer = Replayer::from_snapshot(image, registry, snapshots, start_snapshot)?;
    let result = run_unit(replayer, entries);
    Ok(ChunkReplayOutcome {
        consistent: result.fault.is_none(),
        fault: result.fault,
        progress: result.summary,
        stats: ParallelReplayStats {
            units: 1,
            lanes: 1,
            fell_back_serial: fell_back,
            unit_cpu_micros: vec![result.cpu_micros],
        },
    })
}

/// Replays a downloaded §3.5 chunk with its segments distributed over up to
/// `workers` concurrent lanes (including the calling thread), merging the
/// per-unit outcomes into the serial verdict (see the module docs for the
/// identity argument).
///
/// `workers == 0` asks for no engine at all: the whole chunk replays
/// unpartitioned on the calling thread — the serial reference every lane
/// count is pinned against.
///
/// `snapshots` is the store the start snapshot materializes from; interior
/// units materialize from the same store.
/// Lane 0 runs on the calling thread, every other on a scoped thread of its
/// own ([`in_parts`]).
pub fn replay_chunk_parallel(
    entries: &[LogEntry],
    image: &VmImage,
    registry: &GuestRegistry,
    snapshots: &SnapshotStore,
    start_snapshot: u64,
    workers: usize,
) -> Result<ChunkReplayOutcome, CoreError> {
    let positions = match snapshot_positions_in(entries) {
        Ok(positions) => positions,
        Err(fault) => {
            // The serial spot check returns this verdict before replaying
            // anything; mirror it for callers that skip the pre-scan.
            return Ok(ChunkReplayOutcome {
                consistent: false,
                fault: Some(fault),
                progress: ReplaySummary::default(),
                stats: ParallelReplayStats {
                    units: 0,
                    lanes: 0,
                    fell_back_serial: false,
                    unit_cpu_micros: Vec::new(),
                },
            });
        }
    };
    let units = partition_chunk(entries, &positions);
    if workers == 0 || units.len() <= 1 {
        return serial_outcome(image, registry, snapshots, start_snapshot, entries, false);
    }

    // Prepare every unit on the calling thread: materialize its machine,
    // pin interior boundaries to the log-recorded root, seed cross-segment
    // RECV context, and pair it with its entry range.
    let mut prepared: Vec<(Replayer, &[LogEntry])> = Vec::with_capacity(units.len());
    for unit in &units {
        let mut replayer = match unit.boundary {
            None => Replayer::from_snapshot(image, registry, snapshots, start_snapshot)?,
            Some((id, recorded_root)) => {
                let Ok(mut replayer) = Replayer::from_snapshot(image, registry, snapshots, id)
                else {
                    // Serial replay never materializes interior snapshots;
                    // a store that cannot serve one must not surface here.
                    return serial_outcome(
                        image,
                        registry,
                        snapshots,
                        start_snapshot,
                        entries,
                        true,
                    );
                };
                if replayer.current_state_root() != recorded_root {
                    // The store's snapshot diverges from what the signed log
                    // records at this boundary: starting a unit from it
                    // could diverge from the serial traversal.
                    return serial_outcome(
                        image,
                        registry,
                        snapshots,
                        start_snapshot,
                        entries,
                        true,
                    );
                }
                replayer
            }
        };
        replayer.preload_recvs(&entries[..unit.range.start]);
        prepared.push((replayer, &entries[unit.range.clone()]));
    }

    // Distribute units over lanes in contiguous runs, so the lanes' results
    // concatenate back in unit order; distribution affects wall time only,
    // never the merge.
    let lanes = workers.min(prepared.len());
    let per = prepared.len() / lanes;
    let rem = prepared.len() % lanes;
    let mut iter = prepared.into_iter();
    let lane_units: Vec<Vec<(Replayer, &[LogEntry])>> = (0..lanes)
        .map(|lane| iter.by_ref().take(per + usize::from(lane < rem)).collect())
        .collect();
    let results = in_parts(lane_units, |_, lane| {
        lane.into_iter()
            .map(|(replayer, entries)| run_unit(replayer, entries))
            .collect::<Vec<_>>()
    });

    // Merge in unit order: lowest-index fault wins, counters sum across
    // every unit up to and including the faulting one.
    let mut progress = ReplaySummary::default();
    let mut fault = None;
    let mut unit_cpu_micros = Vec::with_capacity(units.len());
    for result in results.into_iter().flatten() {
        unit_cpu_micros.push(result.cpu_micros);
        if fault.is_none() {
            progress.entries_replayed += result.summary.entries_replayed;
            progress.steps_executed += result.summary.steps_executed;
            progress.outputs_matched += result.summary.outputs_matched;
            progress.inputs_reinjected += result.summary.inputs_reinjected;
            progress.snapshots_verified += result.summary.snapshots_verified;
            progress.final_state = result.summary.final_state;
            fault = result.fault;
        }
    }
    if fault.is_some() {
        progress.final_state = None;
    }
    Ok(ChunkReplayOutcome {
        consistent: fault.is_none(),
        fault,
        progress,
        stats: ParallelReplayStats {
            units: units.len(),
            lanes,
            fell_back_serial: false,
            unit_cpu_micros,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spotcheck::snapshot_positions;
    use crate::testutil::record_with_snapshots;
    use avm_log::EntryKind;
    use avm_vm::GuestRegistry;
    use avm_wire::{Decode, Encode};

    /// The entries an auditor replays for `(start, k)`: strictly after the
    /// start SNAPSHOT entry (the chunk's anchor), through the SNAPSHOT entry
    /// `k` snapshots later (or end of log).
    fn chunk_entries(log: &avm_log::TamperEvidentLog, start: u64, k: u64) -> Vec<LogEntry> {
        let positions = snapshot_positions(log).unwrap();
        let start_pos = positions.iter().find(|(_, id, _)| *id == start).unwrap().0;
        let end_pos = positions
            .iter()
            .find(|(_, id, _)| *id == start + k)
            .map(|(i, _, _)| *i);
        match end_pos {
            Some(end) => log.entries()[start_pos + 1..=end].to_vec(),
            None => log.entries()[start_pos + 1..].to_vec(),
        }
    }

    #[test]
    fn partition_degenerate_chunks() {
        let (bob, _image) = record_with_snapshots(4);

        // k=1: exactly one unit covering the whole chunk — the closing
        // SNAPSHOT entry opens nothing.
        let one = chunk_entries(bob.log(), 1, 1);
        let positions = snapshot_positions_in(&one).unwrap();
        assert_eq!(positions.len(), 1);
        let units = partition_chunk(&one, &positions);
        assert_eq!(
            units,
            vec![ReplayUnit {
                range: 0..one.len(),
                boundary: None
            }]
        );

        // An open chunk with zero interior snapshots (a trailing chunk cut
        // before the provider's next snapshot): still one unit, covering
        // everything.
        let mut tail = chunk_entries(bob.log(), 2, 1);
        assert_eq!(tail.pop().unwrap().kind, EntryKind::Snapshot);
        assert!(!tail.is_empty());
        let positions = snapshot_positions_in(&tail).unwrap();
        assert!(positions.is_empty());
        let units = partition_chunk(&tail, &positions);
        assert_eq!(
            units,
            vec![ReplayUnit {
                range: 0..tail.len(),
                boundary: None
            }]
        );

        // Empty chunk: no units at all.
        assert!(partition_chunk(&[], &[]).is_empty());
    }

    #[test]
    fn partition_cuts_at_every_interior_snapshot() {
        let (bob, _image) = record_with_snapshots(4);
        let chunk = chunk_entries(bob.log(), 0, 3);
        let positions = snapshot_positions_in(&chunk).unwrap();
        assert_eq!(positions.len(), 3);
        let units = partition_chunk(&chunk, &positions);
        assert_eq!(units.len(), 3);
        // Contiguous, gapless cover of the chunk.
        assert_eq!(units[0].range.start, 0);
        assert_eq!(units.last().unwrap().range.end, chunk.len());
        for pair in units.windows(2) {
            assert_eq!(pair[0].range.end, pair[1].range.start);
        }
        // Every unit but the first starts at the snapshot its predecessor's
        // closing SNAPSHOT entry records.
        assert_eq!(units[0].boundary, None);
        for (unit, &(pos, id, root)) in units[1..].iter().zip(&positions) {
            assert_eq!(unit.range.start, pos + 1);
            assert_eq!(unit.boundary, Some((id, root)));
            assert_eq!(chunk[pos].kind, EntryKind::Snapshot);
        }
    }

    #[test]
    fn parallel_replay_matches_serial_for_every_worker_count() {
        let (bob, image) = record_with_snapshots(5);
        let registry = GuestRegistry::new();
        let chunk = chunk_entries(bob.log(), 0, 4);
        let serial = serial_outcome(&image, &registry, bob.snapshots(), 0, &chunk, false).unwrap();
        assert!(serial.consistent);
        for workers in 1..=8 {
            let parallel =
                replay_chunk_parallel(&chunk, &image, &registry, bob.snapshots(), 0, workers)
                    .unwrap();
            assert_eq!(parallel.consistent, serial.consistent, "workers={workers}");
            assert_eq!(parallel.fault, serial.fault);
            assert_eq!(parallel.progress, serial.progress, "workers={workers}");
            assert_eq!(parallel.stats.units, 4);
            assert_eq!(parallel.stats.lanes, workers.min(4));
            assert!(!parallel.stats.fell_back_serial);
        }
    }

    #[test]
    fn fault_in_segment_zero_attributes_identically() {
        let (bob, image) = record_with_snapshots(3);
        let registry = GuestRegistry::new();
        // Tamper with the FIRST send after snapshot 0 — the fault lands in
        // unit 0, and later units' (consistent) replays must be discarded.
        let positions = snapshot_positions(bob.log()).unwrap();
        let start_pos = positions.iter().find(|(_, id, _)| *id == 0).unwrap().0;
        let first_send_seq = bob.log().entries()[start_pos + 1..]
            .iter()
            .find(|e| e.kind == EntryKind::Send)
            .unwrap()
            .seq;
        let mut rebuilt = avm_log::TamperEvidentLog::new();
        for e in bob.log().entries() {
            let content = if e.seq == first_send_seq {
                let mut rec = crate::events::SendRecord::decode_exact(&e.content).unwrap();
                rec.payload = avm_vm::packet::encode_guest_packet("alice", b"cheated");
                rec.encode_to_vec()
            } else {
                e.content.clone()
            };
            rebuilt.append(e.kind, content);
        }
        let chunk = chunk_entries(&rebuilt, 0, 3);
        let serial = serial_outcome(&image, &registry, bob.snapshots(), 0, &chunk, false).unwrap();
        assert!(!serial.consistent);
        for workers in [1usize, 2, 4, 8] {
            let parallel =
                replay_chunk_parallel(&chunk, &image, &registry, bob.snapshots(), 0, workers)
                    .unwrap();
            assert_eq!(parallel.consistent, serial.consistent);
            assert_eq!(parallel.fault, serial.fault, "workers={workers}");
            assert_eq!(parallel.progress, serial.progress, "workers={workers}");
        }
    }

    #[test]
    fn boundary_root_mismatch_falls_back_to_serial() {
        let (bob, image) = record_with_snapshots(3);
        let registry = GuestRegistry::new();
        // Rewrite an interior SNAPSHOT entry's recorded id to one whose
        // store snapshot holds a different root: serial replay faults at
        // that entry (root check), and the parallel path must not let a
        // unit start from the divergent store state.  Rebuilding the log
        // keeps the chain syntactically intact.
        let mut rebuilt = avm_log::TamperEvidentLog::new();
        let mut snapshot_entries_seen = 0;
        for e in bob.log().entries() {
            let content = if e.kind == EntryKind::Snapshot {
                snapshot_entries_seen += 1;
                if snapshot_entries_seen == 2 {
                    let mut rec = crate::events::SnapshotRecord::decode_exact(&e.content).unwrap();
                    rec.snapshot_id = 0; // store snapshot 0's root differs
                    rec.encode_to_vec()
                } else {
                    e.content.clone()
                }
            } else {
                e.content.clone()
            };
            rebuilt.append(e.kind, content);
        }
        let chunk = chunk_entries(&rebuilt, 0, 3);
        let serial = serial_outcome(&image, &registry, bob.snapshots(), 0, &chunk, false).unwrap();
        let parallel =
            replay_chunk_parallel(&chunk, &image, &registry, bob.snapshots(), 0, 4).unwrap();
        assert_eq!(parallel.consistent, serial.consistent);
        assert_eq!(parallel.fault, serial.fault);
        assert_eq!(parallel.progress, serial.progress);
        assert!(parallel.stats.fell_back_serial);
    }

    #[test]
    fn malformed_snapshot_record_short_circuits() {
        let outcome = replay_chunk_parallel(
            &[],
            &record_with_snapshots(1).1,
            &GuestRegistry::new(),
            &SnapshotStore::new(),
            0,
            4,
        );
        // An empty chunk has no snapshot to start from — the serial path
        // errors identically, so either way is acceptable as long as it is
        // an error, not a bogus verdict.
        assert!(outcome.is_err() || outcome.unwrap().stats.units <= 1);
    }
}
