//! Modelled durability costs.
//!
//! The simulator does not sleep on an fsync any more than the simulated
//! network (`avm_net::SimNet`) sleeps on a round trip.  Instead every sync
//! is *priced* — a fixed device flush latency plus the unsynced bytes at
//! sequential-write bandwidth — and the accumulated model time is reported next to real wall times by the
//! `persist` experiment.  That makes the classic durability trade-off
//! (sync per entry / per batch / per seal) measurable without real disks.

use crate::error::StoreError;
use crate::storage::Storage;

/// When the segment writer issues an fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every appended entry and manifest: no entry is ever lost,
    /// at one device flush per log entry (a batch's unsigned HEAD rides on
    /// the next one).
    PerEntry,
    /// Sync once per flushed batch (one flush per provider event).
    PerBatch,
    /// Sync only at seals and other commit points — the fastest option; at
    /// most one seal interval of recent, un-authenticated log is at risk in
    /// a real power cut.
    PerSeal,
}

impl SyncPolicy {
    /// Short label for tables and JSON keys.
    pub fn label(&self) -> &'static str {
        match self {
            SyncPolicy::PerEntry => "per_entry",
            SyncPolicy::PerBatch => "per_batch",
            SyncPolicy::PerSeal => "per_seal",
        }
    }
}

/// Prices an fsync: a fixed flush latency plus the unsynced bytes at a
/// sequential-write bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsyncModel {
    /// Fixed device-flush latency per sync, in microseconds.
    pub fsync_micros: u64,
    /// Sequential write bandwidth used to price the unsynced bytes.
    pub bytes_per_sec: u64,
}

impl FsyncModel {
    /// A 2010-era commodity disk (the paper's evaluation hardware class):
    /// ~8 ms flush, ~80 MB/s sequential writes.
    pub const DISK_2010: FsyncModel = FsyncModel {
        fsync_micros: 8_000,
        bytes_per_sec: 80_000_000,
    };

    /// An SSD-class device, for contrast in the benches.
    pub const SSD: FsyncModel = FsyncModel {
        fsync_micros: 150,
        bytes_per_sec: 400_000_000,
    };

    /// Modelled cost of syncing `unsynced_bytes`, in microseconds.
    pub fn sync_micros(&self, unsynced_bytes: u64) -> u64 {
        self.fsync_micros + unsynced_bytes * 1_000_000 / self.bytes_per_sec.max(1)
    }
}

impl Default for FsyncModel {
    fn default() -> Self {
        FsyncModel::DISK_2010
    }
}

/// Counters for a durable write path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Bytes appended (framing included).
    pub appended_bytes: u64,
    /// Number of fsyncs issued.
    pub syncs: u64,
    /// Bytes that were unsynced at the time a sync covered them.
    pub synced_bytes: u64,
    /// Accumulated modelled sync time, in microseconds.
    pub modelled_sync_micros: u64,
}

impl DurabilityStats {
    /// Field-wise sum, for reporting segment + arena costs together.
    pub fn merged(&self, other: &DurabilityStats) -> DurabilityStats {
        DurabilityStats {
            appended_bytes: self.appended_bytes + other.appended_bytes,
            syncs: self.syncs + other.syncs,
            synced_bytes: self.synced_bytes + other.synced_bytes,
            modelled_sync_micros: self.modelled_sync_micros + other.modelled_sync_micros,
        }
    }
}

/// Shared append/sync meter used by the segment and arena writers.
#[derive(Debug, Clone, Default)]
pub(crate) struct DurabilityMeter {
    model: FsyncModel,
    stats: DurabilityStats,
    unsynced_bytes: u64,
}

impl DurabilityMeter {
    pub(crate) fn new(model: FsyncModel) -> DurabilityMeter {
        DurabilityMeter {
            model,
            ..DurabilityMeter::default()
        }
    }

    pub(crate) fn record_append(&mut self, bytes: u64) {
        self.stats.appended_bytes += bytes;
        self.unsynced_bytes += bytes;
    }

    /// Syncs `storage` if there is anything unsynced, pricing the flush.
    pub(crate) fn sync<S: Storage>(&mut self, storage: &mut S) -> Result<(), StoreError> {
        if self.unsynced_bytes == 0 {
            return Ok(());
        }
        storage.sync()?;
        self.stats.syncs += 1;
        self.stats.synced_bytes += self.unsynced_bytes;
        self.stats.modelled_sync_micros += self.model.sync_micros(self.unsynced_bytes);
        self.unsynced_bytes = 0;
        Ok(())
    }

    pub(crate) fn stats(&self) -> DurabilityStats {
        self.stats
    }

    pub(crate) fn unsynced_bytes(&self) -> u64 {
        self.unsynced_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SimStorage;

    #[test]
    fn model_prices_flush_plus_bandwidth() {
        let m = FsyncModel::DISK_2010;
        assert_eq!(m.sync_micros(0), 8_000);
        // 80 MB at 80 MB/s is one second on top of the flush.
        assert_eq!(m.sync_micros(80_000_000), 8_000 + 1_000_000);
        assert!(FsyncModel::SSD.sync_micros(4096) < m.sync_micros(4096));
    }

    #[test]
    fn meter_accumulates_and_skips_empty_syncs() {
        let mut storage = SimStorage::new();
        let mut meter = DurabilityMeter::new(FsyncModel::DISK_2010);
        meter.sync(&mut storage).unwrap(); // nothing unsynced: no fsync
        assert_eq!(storage.sync_count(), 0);

        meter.record_append(1000);
        meter.record_append(500);
        assert_eq!(meter.unsynced_bytes(), 1500);
        meter.sync(&mut storage).unwrap();
        assert_eq!(storage.sync_count(), 1);

        let stats = meter.stats();
        assert_eq!(stats.appended_bytes, 1500);
        assert_eq!(stats.synced_bytes, 1500);
        assert_eq!(stats.syncs, 1);
        assert_eq!(
            stats.modelled_sync_micros,
            FsyncModel::DISK_2010.sync_micros(1500)
        );

        let merged = stats.merged(&stats);
        assert_eq!(merged.syncs, 2);
        assert_eq!(merged.appended_bytes, 3000);
    }
}
