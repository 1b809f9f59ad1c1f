//! What a spot check's downloads cost under the §3.5 / Figure 9 transfer
//! models — priced here, where the numbers are printed, not by the audit.
//!
//! A [`SpotCheckReport`] states the raw bytes the auditor received.  The
//! experiments also want compressed sizes (§6.12 ships compressed snapshots),
//! the downloads the auditor did *not* make (the full dump beside either
//! check, the digest-addressed dedup transfer).  An experiment owns the
//! provider's log and store, so it can rebuild each stream and price it; the
//! rebuilds are pinned to the reports by this module's tests.

use avm_compress::CompressionStats;
use avm_core::ondemand::{dedup_transfer_upto, AuditorBlobCache};
use avm_core::snapshot::{SnapshotStore, TransferCost};
use avm_core::spotcheck::{snapshot_positions, SpotCheckReport, TRANSFER_COMPRESSION};
use avm_log::wire::wire_entries;
use avm_log::{LogEntry, TamperEvidentLog};
use avm_vm::VmImage;
use avm_wire::{BlobRequest, Encode};

/// The `k`-chunk starting at snapshot `start` as the provider's server
/// resolves it: the SNAPSHOT entry for `start` (the chunk's anchor) up to
/// and including the SNAPSHOT entry `k` snapshots later (or the end of the
/// log).  The log must be well formed and contain `start`.  These are the
/// stored entries; [`log_chunk`] prices them as the segment ships them.
pub fn chunk_entries(log: &TamperEvidentLog, start: u64, k: u64) -> &[LogEntry] {
    let positions = snapshot_positions(log).expect("well-formed log");
    let position_of = |id| positions.iter().find(|(_, i, _)| *i == id).map(|p| p.0);
    let first = position_of(start).expect("start snapshot in log");
    match position_of(start + k) {
        Some(end) => &log.entries()[first..=end],
        None => &log.entries()[first..],
    }
}

/// The download of `entries` as one segment response ships them — one run
/// of records, no seq, hashes only at the segment's checkpoints
/// ([`avm_log::wire`]) — as one compressed stream.
pub fn log_segment(entries: &[LogEntry]) -> TransferCost {
    CompressionStats::measure_stream(
        wire_entries(entries).map(|e| e.encode_to_vec()),
        TRANSFER_COMPRESSION,
    )
}

/// The log download of `report`'s chunk, as one compressed stream.
pub fn log_chunk(log: &TamperEvidentLog, report: &SpotCheckReport) -> TransferCost {
    log_segment(chunk_entries(log, report.start_snapshot, report.chunk_size))
}

/// The full-dump model: the whole-section stream that starts `report`'s
/// chunk — the paper's full snapshot download, which a check of either mode
/// avoids (a full download fetches only what the image and its cache lack).
pub fn full_dump(store: &SnapshotStore, report: &SpotCheckReport) -> TransferCost {
    store.transfer_cost_upto(report.start_snapshot, TRANSFER_COMPRESSION)
}

/// The dedup-transfer model: a digest-addressed download of the complete
/// state at `start`, for an auditor holding `cache`.  Pass the cache as it
/// stood *before* the on-demand check it is compared with.
pub fn dedup_download(
    store: &SnapshotStore,
    start: u64,
    image: &VmImage,
    cache: &AuditorBlobCache,
) -> TransferCost {
    dedup_transfer_upto(store, start, image, cache, TRANSFER_COMPRESSION)
        .expect("honest store prices its own dedup download")
        .transfer
}

/// The snapshot download `report` made — manifest, then the blob response
/// of each exchange, one per miss on demand or per prefetch batch in full —
/// as one compressed stream.
pub fn on_demand_download(store: &SnapshotStore, report: &SpotCheckReport) -> TransferCost {
    let cost = report
        .on_demand
        .as_ref()
        .expect("a report whose replay started");
    let manifest = store
        .chain_manifest_upto(report.start_snapshot)
        .expect("checked snapshot has a manifest");
    let mut fetched = cost.fetched.iter().map(|digest| digest.0);
    let responses = cost.fetched_per_exchange.iter().map(|&n| {
        let request = BlobRequest {
            digests: fetched.by_ref().take(n).collect(),
        };
        store.serve_blobs(&request).encode_to_vec()
    });
    CompressionStats::measure_stream(
        std::iter::once(manifest.encode_to_vec()).chain(responses),
        TRANSFER_COMPRESSION,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ondemand_recording;
    use avm_core::spotcheck::{spot_check, spot_check_on_demand};
    use avm_vm::GuestRegistry;

    /// Every stream this module rebuilds from the provider's side is, byte
    /// for byte in length, what the audit session reported receiving — a
    /// drift between the two fails here instead of shifting a pinned key.
    #[test]
    fn reconstructions_match_what_the_sessions_received() {
        let (avmm, image, n_snapshots) = ondemand_recording();
        let registry = GuestRegistry::new();
        let (log, store) = (avmm.log(), avmm.snapshots());
        for (start, k) in [(1, 1), (n_snapshots - 2, 1), (1, 2)] {
            let full = spot_check(log, store, start, k, &image, &registry).unwrap();
            let mut cache = AuditorBlobCache::new();
            let od =
                spot_check_on_demand(log, store, start, k, &image, &registry, &mut cache).unwrap();
            assert!(full.consistent && od.consistent);
            assert_eq!(log_chunk(log, &full).raw_bytes, full.log_transfer_bytes);
            assert_eq!(log_chunk(log, &od).raw_bytes, od.log_transfer_bytes);
            // Both downloads are the manifest plus the blob responses
            // received: batches of what the image lacks, or one per miss.
            for (report, batched) in [(&full, true), (&od, false)] {
                let cost = report.on_demand.as_ref().unwrap();
                assert!(!cost.fetched.is_empty());
                if batched {
                    let digests: Vec<_> = cost.fetched.iter().map(|d| d.0).collect();
                    let batches = BlobRequest::batches(&digests, avm_wire::DEFAULT_BLOB_BATCH);
                    let sizes: Vec<usize> = batches.iter().map(BlobRequest::len).collect();
                    assert_eq!(cost.fetched_per_exchange, sizes);
                }
                assert_eq!(
                    on_demand_download(store, report).raw_bytes,
                    cost.transfer_bytes
                );
                assert_eq!(report.snapshot_transfer_bytes, cost.transfer_bytes);
            }
            // … and neither is the whole-section dump.
            assert!(full.snapshot_transfer_bytes < full_dump(store, &full).raw_bytes);
        }
    }

    /// The orderings the paper predicts, on the priced columns: compression
    /// helps every stream; on-demand ≤ dedup < full dump, raw and
    /// compressed; a warm cache shrinks the dedup download; an exchange per
    /// miss never costs more round trips than one per blob.
    #[test]
    fn priced_columns_order_as_the_paper_predicts() {
        let (avmm, image, n_snapshots) = ondemand_recording();
        let registry = GuestRegistry::new();
        let (log, store) = (avmm.log(), avmm.snapshots());
        let start = n_snapshots - 2;
        let mut cache = AuditorBlobCache::new();
        let dedup = dedup_download(store, start, &image, &cache);
        let od = spot_check_on_demand(log, store, start, 1, &image, &registry, &mut cache).unwrap();
        let cost = od.on_demand.as_ref().unwrap();
        let (full, on_demand) = (full_dump(store, &od), on_demand_download(store, &od));
        // The log stream is priced on the whole log after snapshot 0: this
        // check's own one-packet chunk is all signature and does not shrink.
        let whole = spot_check(log, store, 0, n_snapshots, &image, &registry).unwrap();
        let log_cost = log_chunk(log, &whole);
        for priced in [log_cost, full, dedup, on_demand] {
            assert!(priced.compressed_bytes > 0);
            assert!(priced.compressed_bytes < priced.raw_bytes, "{priced:?}");
        }
        assert!(on_demand.raw_bytes <= dedup.raw_bytes);
        assert!(on_demand.compressed_bytes <= dedup.compressed_bytes);
        assert!(dedup.raw_bytes < full.raw_bytes);
        assert!(dedup.compressed_bytes < full.compressed_bytes);
        // The check's fetched blobs are now cached: the same full-state
        // download gets cheaper, never dearer.
        let warm = dedup_download(store, start, &image, &cache);
        assert!(warm.raw_bytes < dedup.raw_bytes);

        assert!(cost.round_trips <= 1 + cost.fetched.len() as u64);
    }
}
