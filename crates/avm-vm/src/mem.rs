//! Paged guest memory with chunk-granular dirty tracking, cached chunk
//! hashes and chunk-level demand paging for on-demand audits.
//!
//! Incremental snapshots (paper §4.4) "only contain the state that has
//! changed since the last snapshot"; the AVMM therefore needs to know which
//! state a guest has written.  Tracking whole 4 KiB pages makes an 8-byte
//! counter bump cost a full page of hashing, storage and transfer, so the
//! unit of accountability here is the 512 B **chunk** ([`CHUNK_SIZE`],
//! [`CHUNKS_PER_PAGE`] per page): `GuestMemory` keeps one dirty-chunk bitmask
//! byte per page that the snapshot machinery reads and clears, and every
//! layer above — Merkle leaves, snapshot payloads, the content-addressed
//! pool, the blob transfer protocol — addresses chunks.
//!
//! Independently of the dirty bits, every chunk's SHA-256 is memoised: a
//! cache slot is invalidated by the write path the moment a chunk's contents
//! change and repopulated lazily by [`GuestMemory::chunk_hash`] (or in bulk,
//! across a scoped worker pool, by [`GuestMemory::prime_chunk_hashes`]).
//! Unlike the dirty bits the cache is *never* cleared wholesale — its
//! validity tracks content changes, not snapshot boundaries — so state-root
//! computations only rehash chunks written since the previous root, no
//! matter how often dirty tracking is reset around them.  A machine built
//! from a [`crate::VmImage`] starts with every slot already filled from the
//! image's baseline ([`crate::image::ImageBaseline`]), so it never hashes a
//! chunk that still holds what the image put there.
//!
//! # Demand paging (§3.5 on-demand audits)
//!
//! An auditor "can either download an entire snapshot or incrementally
//! request the parts of the state that are accessed during replay" (paper
//! §3.5).  [`GuestMemory::stage_lazy_chunk`] supports the second mode: a
//! staged chunk carries its authentic at-snapshot contents *beside* the page
//! array together with the content hash, and the contents are installed
//! ("faulted in") the moment the guest first reads or writes any byte of the
//! chunk.  Until then the page array holds whatever the local reference
//! image produced, while [`GuestMemory::chunk_hash`] already reports the
//! staged (authentic) hash — so Merkle state roots are correct at every
//! point even though untouched contents were never transferred.  Faulting at
//! chunk rather than page granularity is what makes sparse replays cheap: a
//! guest that reads 8 bytes pulls 512 bytes over the wire, not 4096.
//! [`GuestMemory::faulted_chunks`] records the first-touch order; the audit
//! layer turns it into the exact set of blobs the auditor had to download.
//!
//! Residency is a **slot**, not a probe.  Staged contents live in one table
//! indexed by chunk number (`StagedSlots`, shared with [`crate::devices::Disk`]
//! where the index is a block number): a slot holding contents means "this
//! chunk is not resident yet", an empty slot means "the page array is
//! authoritative".  The table does not exist until something is staged and a
//! live count sits beside it, so the question every guest access asks — "is
//! any chunk I touch staged?" — costs one compare on a fully resident
//! machine (the bare and recording paths) and one indexed load per touched
//! chunk on a partially resident one.  The access path does no hashing and
//! no search, which is why an on-demand replay runs at the bare
//! interpreter's speed however many chunks are staged and never touched.
//!
//! Caveat: while chunks remain staged, [`GuestMemory::page`] /
//! [`GuestMemory::chunk`] (raw contents) return the stale local bytes.  Root
//! computations must therefore go through the hash cache (as
//! [`GuestMemory::chunk_hash`] and the state-tree builders do), never
//! through re-hashing raw contents.

use std::cell::RefCell;

use avm_crypto::parallel::sha256_batch;
use avm_crypto::sha256::{sha256, Digest};

use crate::error::{VmError, VmResult};

/// Guest page size in bytes (4 KiB, matching a commodity PC).
pub const PAGE_SIZE: usize = 4096;

/// Dirty-tracking and transfer granularity: one eighth of a page.
pub const CHUNK_SIZE: usize = 512;

/// Chunks per page; the per-page dirty bitmask is exactly one byte.
pub const CHUNKS_PER_PAGE: usize = PAGE_SIZE / CHUNK_SIZE;

// The dirty bitmask is a `u8` per page (`1 << (chunk % CHUNKS_PER_PAGE)`,
// `0xff` = all dirty); changing the chunk geometry past 8 chunks per page
// must widen it, so fail the build rather than silently alias dirty bits.
const _: () = assert!(CHUNKS_PER_PAGE <= 8, "dirty bitmask is u8-per-page");

/// Staged-for-demand-paging contents, one slot per chunk (guest memory) or
/// block (disk), indexed by its number — see the module docs, § "Demand
/// paging".  `Some` = staged and not yet touched.
#[derive(Debug, Clone, Default)]
pub(crate) struct StagedSlots {
    /// Empty until the first [`StagedSlots::stage`], then one slot per unit.
    slots: Vec<Option<Vec<u8>>>,
    /// Number of occupied slots.
    live: usize,
}

impl StagedSlots {
    /// True when nothing is staged: the whole answer on a resident machine.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of staged units not yet taken.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Stages `content` for unit `idx` of `units` (the caller has checked
    /// `idx < units`), replacing what was staged there.
    pub(crate) fn stage(&mut self, idx: usize, content: Vec<u8>, units: usize) {
        if self.slots.is_empty() {
            self.slots.resize_with(units, || None);
        }
        if self.slots[idx].replace(content).is_none() {
            self.live += 1;
        }
    }

    /// Empties slot `idx`, handing back what was staged there.
    #[inline]
    pub(crate) fn take(&mut self, idx: usize) -> Option<Vec<u8>> {
        let content = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        Some(content)
    }
}

/// Byte-addressable guest RAM divided into [`PAGE_SIZE`] pages, dirty-tracked
/// and content-addressed in [`CHUNK_SIZE`] chunks.
#[derive(Debug, Clone)]
pub struct GuestMemory {
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    /// One bitmask byte per page: bit `c` set = chunk `c` of that page was
    /// written since the last [`GuestMemory::clear_dirty`].
    dirty: Vec<u8>,
    /// Lazily filled SHA-256 per chunk; a slot is reset to `None` whenever
    /// the chunk is written (interior mutability so reads can fill it).
    hash_cache: RefCell<Vec<Option<Digest>>>,
    /// Authentic contents staged for demand paging, one slot per chunk;
    /// installed into `pages` on first access (see the module docs).
    staged: StagedSlots,
    /// Chunk indices installed from `staged`, in first-touch order.
    faulted: Vec<usize>,
}

impl GuestMemory {
    /// Allocates zeroed guest memory of `size` bytes (rounded up to whole pages).
    pub fn new(size: u64) -> GuestMemory {
        let n_pages = (size as usize).div_ceil(PAGE_SIZE).max(1);
        GuestMemory {
            pages: (0..n_pages).map(|_| Box::new([0u8; PAGE_SIZE])).collect(),
            dirty: vec![0; n_pages],
            hash_cache: RefCell::new(vec![None; n_pages * CHUNKS_PER_PAGE]),
            staged: StagedSlots::default(),
            faulted: Vec::new(),
        }
    }

    /// Fills every hash-cache slot from `hashes`, one per chunk.
    ///
    /// Only [`crate::Machine::from_image`] calls this, on memory it has just
    /// built, with the hashes the image's baseline derived from identical
    /// contents ([`crate::image::ImageBaseline`]).  From then on the slots
    /// obey the cache's one rule — a write empties the slot — so a seeded
    /// machine rehashes what was written and nothing else.
    pub(crate) fn seed_chunk_hashes(&mut self, hashes: &[Digest]) {
        assert_eq!(hashes.len(), self.chunk_count(), "one hash per chunk");
        for (slot, hash) in self.hash_cache.get_mut().iter_mut().zip(hashes) {
            *slot = Some(*hash);
        }
    }

    /// Total memory size in bytes.
    pub fn size(&self) -> u64 {
        (self.pages.len() * PAGE_SIZE) as u64
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of chunks ([`CHUNKS_PER_PAGE`] per page) — the memory leaf
    /// count of the Merkle state tree.
    pub fn chunk_count(&self) -> usize {
        self.pages.len() * CHUNKS_PER_PAGE
    }

    fn check(&self, addr: u64, len: usize) -> VmResult<()> {
        if len == 0 {
            return Ok(());
        }
        let end = addr
            .checked_add(len as u64)
            .ok_or(VmError::MemoryOutOfRange {
                addr,
                len,
                mem_size: self.size(),
            })?;
        if end > self.size() {
            return Err(VmError::MemoryOutOfRange {
                addr,
                len,
                mem_size: self.size(),
            });
        }
        Ok(())
    }

    /// Installs any staged chunks overlapping `[addr, addr+len)` (demand
    /// paging, see the module docs).  Touching a staged chunk replaces the
    /// stale local contents with the authentic staged bytes *before* the
    /// access proceeds, and records the chunk in the fault list.  Out-of-range
    /// addresses are ignored here; the caller's bounds check reports them.
    ///
    /// When the access is a write, chunks the range *fully* covers are about
    /// to be overwritten wholesale — their staged contents are never needed,
    /// so staging is dropped without recording a fault (no transfer), like
    /// [`GuestMemory::set_chunk_from_slice`] does.  Only partially-covered
    /// chunks need the authentic surrounding bytes faulted in.
    fn fault_in_range(&mut self, addr: u64, len: usize, overwrite: bool) {
        if self.staged.is_empty() || len == 0 {
            return;
        }
        let start = addr as usize;
        let Some(end) = start.checked_add(len - 1) else {
            return;
        };
        let first = start / CHUNK_SIZE;
        let last = (end / CHUNK_SIZE).min(self.chunk_count().saturating_sub(1));
        for c in first..=last {
            let fully_covered = start <= c * CHUNK_SIZE && (c + 1) * CHUNK_SIZE <= end + 1;
            if overwrite && fully_covered {
                // Wholesale overwrite supersedes the staged contents without
                // needing them: no fault, no transfer.
                self.staged.take(c);
                continue;
            }
            if let Some(content) = self.staged.take(c) {
                let page = c / CHUNKS_PER_PAGE;
                let off = (c % CHUNKS_PER_PAGE) * CHUNK_SIZE;
                self.pages[page][off..off + CHUNK_SIZE].copy_from_slice(&content);
                self.faulted.push(c);
                // The hash cache keeps the hash seeded at staging time: the
                // installed contents equal it by construction.  The dirty
                // bit stays untouched — the chunk equals its at-snapshot
                // contents, nothing changed since the capture point.
            }
        }
    }

    /// Marks the chunks covering `[addr, addr+len)` dirty and invalidates
    /// their cached hashes (the write path's bookkeeping).
    fn mark_written(&mut self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        let first = addr as usize / CHUNK_SIZE;
        let last = (addr as usize + len - 1) / CHUNK_SIZE;
        let cache = self.hash_cache.get_mut();
        for (c, slot) in cache.iter_mut().enumerate().take(last + 1).skip(first) {
            self.dirty[c / CHUNKS_PER_PAGE] |= 1 << (c % CHUNKS_PER_PAGE);
            *slot = None;
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// Takes `&mut self` because a read may fault in a staged chunk (see
    /// [`GuestMemory::stage_lazy_chunk`]); for fully resident memory it
    /// mutates nothing.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> VmResult<()> {
        self.check(addr, buf.len())?;
        self.fault_in_range(addr, buf.len(), false);
        let mut offset = addr as usize;
        let mut copied = 0usize;
        while copied < buf.len() {
            let page = offset / PAGE_SIZE;
            let in_page = offset % PAGE_SIZE;
            let n = (PAGE_SIZE - in_page).min(buf.len() - copied);
            buf[copied..copied + n].copy_from_slice(&self.pages[page][in_page..in_page + n]);
            copied += n;
            offset += n;
        }
        Ok(())
    }

    /// Writes `data` starting at `addr`, marking touched chunks dirty.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> VmResult<()> {
        self.check(addr, data.len())?;
        // A partial-chunk write needs the authentic surrounding bytes faulted
        // in; fully-overwritten staged chunks are dropped fault-free.
        self.fault_in_range(addr, data.len(), true);
        let mut offset = addr as usize;
        let mut copied = 0usize;
        while copied < data.len() {
            let page = offset / PAGE_SIZE;
            let in_page = offset % PAGE_SIZE;
            let n = (PAGE_SIZE - in_page).min(data.len() - copied);
            self.pages[page][in_page..in_page + n].copy_from_slice(&data[copied..copied + n]);
            copied += n;
            offset += n;
        }
        self.mark_written(addr, data.len());
        Ok(())
    }

    /// Reads a vector of `len` bytes at `addr`.
    pub fn read_vec(&mut self, addr: u64, len: usize) -> VmResult<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.read(addr, &mut buf)?;
        Ok(buf)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self, addr: u64) -> VmResult<u8> {
        let mut b = [0u8; 1];
        self.read(addr, &mut b)?;
        Ok(b[0])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) -> VmResult<()> {
        self.write(addr, &[v])
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, addr: u64) -> VmResult<u64> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> VmResult<()> {
        self.write(addr, &v.to_le_bytes())
    }

    /// Returns the raw contents of page `idx`.
    pub fn page(&self, idx: usize) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(idx).map(|p| p.as_ref())
    }

    /// Returns the raw contents of chunk `idx` (a [`CHUNK_SIZE`] slice).
    pub fn chunk(&self, idx: usize) -> Option<&[u8]> {
        let page = self.pages.get(idx / CHUNKS_PER_PAGE)?;
        let off = (idx % CHUNKS_PER_PAGE) * CHUNK_SIZE;
        Some(&page[off..off + CHUNK_SIZE])
    }

    /// Overwrites page `idx` wholesale (used when restoring snapshots).
    pub fn set_page(&mut self, idx: usize, data: &[u8; PAGE_SIZE]) -> VmResult<()> {
        self.set_page_from_slice(idx, data)
    }

    /// Overwrites page `idx` from a slice that must be exactly one page long.
    ///
    /// Same as [`GuestMemory::set_page`] but avoids forcing callers holding a
    /// `Vec<u8>` through an intermediate fixed-size array copy.
    pub fn set_page_from_slice(&mut self, idx: usize, data: &[u8]) -> VmResult<()> {
        if data.len() != PAGE_SIZE {
            return Err(VmError::CorruptState("snapshot page has wrong size"));
        }
        if idx >= self.pages.len() {
            return Err(VmError::CorruptState("snapshot page index out of range"));
        }
        for c in 0..CHUNKS_PER_PAGE {
            self.set_chunk_from_slice(
                idx * CHUNKS_PER_PAGE + c,
                &data[c * CHUNK_SIZE..(c + 1) * CHUNK_SIZE],
            )?;
        }
        Ok(())
    }

    /// Overwrites chunk `idx` from a slice that must be exactly
    /// [`CHUNK_SIZE`] long (the snapshot-restore unit).
    pub fn set_chunk_from_slice(&mut self, idx: usize, data: &[u8]) -> VmResult<()> {
        if data.len() != CHUNK_SIZE {
            return Err(VmError::CorruptState("snapshot chunk has wrong size"));
        }
        if idx >= self.chunk_count() {
            return Err(VmError::CorruptState("snapshot chunk index out of range"));
        }
        let page = idx / CHUNKS_PER_PAGE;
        let off = (idx % CHUNKS_PER_PAGE) * CHUNK_SIZE;
        self.pages[page][off..off + CHUNK_SIZE].copy_from_slice(data);
        // A wholesale overwrite supersedes any staged contents without
        // needing them — drop the staging, record no fault.
        self.staged.take(idx);
        self.dirty[page] |= 1 << (idx % CHUNKS_PER_PAGE);
        self.hash_cache.get_mut()[idx] = None;
        Ok(())
    }

    /// SHA-256 of chunk `idx` contents, memoised until the chunk is written.
    pub fn chunk_hash(&self, idx: usize) -> Option<Digest> {
        let chunk = self.chunk(idx)?;
        let mut cache = self.hash_cache.borrow_mut();
        if let Some(h) = cache[idx] {
            return Some(h);
        }
        let h = sha256(chunk);
        cache[idx] = Some(h);
        Some(h)
    }

    /// Fills the hash-cache slots for `indices` that are currently empty,
    /// hashing the missing chunks across the scoped worker pool
    /// ([`avm_crypto::parallel::sha256_batch`]).  Out-of-range indices are
    /// ignored; subsequent [`GuestMemory::chunk_hash`] calls for primed
    /// indices are pure cache hits.
    pub fn prime_chunk_hashes(&self, indices: &[usize]) {
        let mut cache = self.hash_cache.borrow_mut();
        let missing: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| i < cache.len() && cache[i].is_none())
            .collect();
        if missing.is_empty() {
            return;
        }
        let inputs: Vec<&[u8]> = missing
            .iter()
            .map(|&i| self.chunk(i).expect("chunk in range"))
            .collect();
        for (i, digest) in missing.iter().zip(sha256_batch(&inputs)) {
            cache[*i] = Some(digest);
        }
    }

    /// Indices of chunks written since the last [`GuestMemory::clear_dirty`],
    /// in ascending order.
    pub fn dirty_chunks(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (p, &mask) in self.dirty.iter().enumerate() {
            if mask == 0 {
                continue;
            }
            for c in 0..CHUNKS_PER_PAGE {
                if mask & (1 << c) != 0 {
                    out.push(p * CHUNKS_PER_PAGE + c);
                }
            }
        }
        out
    }

    /// Indices of pages with at least one dirty chunk, in ascending order.
    pub fn dirty_pages(&self) -> Vec<usize> {
        self.dirty
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| if m != 0 { Some(i) } else { None })
            .collect()
    }

    /// Clears all dirty bits.
    pub fn clear_dirty(&mut self) {
        self.dirty.iter_mut().for_each(|d| *d = 0);
    }

    /// Marks every chunk dirty (used after a wholesale restore).
    pub fn mark_all_dirty(&mut self) {
        self.dirty.iter_mut().for_each(|d| *d = 0xff);
    }

    // --- Demand paging (on-demand audits, §3.5) --------------------------

    /// Stages authentic contents for chunk `idx` to be installed on first
    /// access, and seeds the hash cache with `hash` so state roots computed
    /// before the chunk is touched already reflect the staged contents.
    ///
    /// The caller is responsible for `hash` being the SHA-256 of `content`
    /// (the audit layer verifies this before staging — it is the same check
    /// a downloaded blob gets).  The dirty bit is not set: a staged chunk
    /// *is* the at-snapshot state, merely not transferred yet.
    pub fn stage_lazy_chunk(&mut self, idx: usize, content: Vec<u8>, hash: Digest) -> VmResult<()> {
        if content.len() != CHUNK_SIZE {
            return Err(VmError::CorruptState("staged chunk has wrong size"));
        }
        if idx >= self.chunk_count() {
            return Err(VmError::CorruptState("staged chunk index out of range"));
        }
        self.hash_cache.get_mut()[idx] = Some(hash);
        self.staged.stage(idx, content, self.chunk_count());
        Ok(())
    }

    /// Chunk indices faulted in from staging so far, in first-touch order.
    pub fn faulted_chunks(&self) -> &[usize] {
        &self.faulted
    }

    /// Number of staged chunks not yet touched (their contents were never
    /// needed, hence never transferred).
    pub fn staged_chunk_count(&self) -> usize {
        self.staged.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_on_creation() {
        let mut mem = GuestMemory::new(2 * PAGE_SIZE as u64);
        assert_eq!(mem.size(), 2 * PAGE_SIZE as u64);
        assert_eq!(mem.page_count(), 2);
        assert_eq!(mem.chunk_count(), 2 * CHUNKS_PER_PAGE);
        assert_eq!(mem.read_u64(0).unwrap(), 0);
        assert!(mem.dirty_chunks().is_empty());
    }

    #[test]
    fn size_rounds_up_to_pages() {
        let mem = GuestMemory::new(PAGE_SIZE as u64 + 1);
        assert_eq!(mem.page_count(), 2);
        let tiny = GuestMemory::new(0);
        assert_eq!(tiny.page_count(), 1);
    }

    #[test]
    fn read_write_roundtrip_across_page_boundary() {
        let mut mem = GuestMemory::new(3 * PAGE_SIZE as u64);
        let addr = PAGE_SIZE as u64 - 5;
        let data: Vec<u8> = (0..64u8).collect();
        mem.write(addr, &data).unwrap();
        assert_eq!(mem.read_vec(addr, 64).unwrap(), data);
        // Exactly the last chunk of page 0 and the first chunk of page 1 are
        // dirty; both pages report dirty, the third does not.
        assert_eq!(
            mem.dirty_chunks(),
            vec![CHUNKS_PER_PAGE - 1, CHUNKS_PER_PAGE]
        );
        assert_eq!(mem.dirty_pages(), vec![0, 1]);
    }

    #[test]
    fn sub_page_writes_dirty_single_chunks() {
        let mut mem = GuestMemory::new(2 * PAGE_SIZE as u64);
        // 8 bytes inside chunk 3 of page 0.
        mem.write_u64(3 * CHUNK_SIZE as u64 + 16, 7).unwrap();
        assert_eq!(mem.dirty_chunks(), vec![3]);
        assert_eq!(mem.dirty_pages(), vec![0]);
        // A write spanning the chunk boundary dirties both chunks.
        mem.clear_dirty();
        mem.write(CHUNK_SIZE as u64 - 2, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mem.dirty_chunks(), vec![0, 1]);
    }

    #[test]
    fn out_of_range_access_rejected() {
        let mut mem = GuestMemory::new(PAGE_SIZE as u64);
        assert!(matches!(
            mem.read_vec(PAGE_SIZE as u64 - 2, 4).unwrap_err(),
            VmError::MemoryOutOfRange { .. }
        ));
        assert!(mem.write(u64::MAX - 1, &[1, 2, 3]).is_err());
        // Zero-length access at the end is fine.
        mem.write(PAGE_SIZE as u64, &[]).unwrap();
    }

    #[test]
    fn scalar_helpers() {
        let mut mem = GuestMemory::new(PAGE_SIZE as u64);
        mem.write_u64(16, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(mem.read_u64(16).unwrap(), 0xdead_beef_cafe_f00d);
        mem.write_u8(3, 0x7f).unwrap();
        assert_eq!(mem.read_u8(3).unwrap(), 0x7f);
    }

    #[test]
    fn dirty_tracking_and_clearing() {
        let mut mem = GuestMemory::new(4 * PAGE_SIZE as u64);
        mem.write_u8(2 * PAGE_SIZE as u64, 1).unwrap();
        assert_eq!(mem.dirty_chunks(), vec![2 * CHUNKS_PER_PAGE]);
        mem.clear_dirty();
        assert!(mem.dirty_chunks().is_empty());
        mem.mark_all_dirty();
        assert_eq!(mem.dirty_chunks().len(), 4 * CHUNKS_PER_PAGE);
    }

    #[test]
    fn chunk_hash_changes_with_content() {
        let mut mem = GuestMemory::new(PAGE_SIZE as u64);
        let before = mem.chunk_hash(0).unwrap();
        mem.write_u8(100, 42).unwrap();
        assert_ne!(before, mem.chunk_hash(0).unwrap());
        // A write to chunk 0 leaves chunk 1's hash alone.
        assert_eq!(
            mem.chunk_hash(1).unwrap(),
            sha256(&[0u8; CHUNK_SIZE]),
            "untouched chunk hash must be the zero-chunk hash"
        );
        assert!(mem.chunk_hash(CHUNKS_PER_PAGE + 5).is_none());
    }

    #[test]
    fn chunk_hash_cache_tracks_writes_not_dirty_bits() {
        let mut mem = GuestMemory::new(2 * PAGE_SIZE as u64);
        let h0 = mem.chunk_hash(0).unwrap();
        // Repeated reads return the memoised value.
        assert_eq!(mem.chunk_hash(0).unwrap(), h0);
        // Clearing dirty bits must NOT invalidate the hash cache...
        mem.write_u8(5, 1).unwrap();
        let h1 = mem.chunk_hash(0).unwrap();
        assert_ne!(h0, h1);
        mem.clear_dirty();
        assert_eq!(mem.chunk_hash(0).unwrap(), h1);
        // ...but any write path must.
        mem.write_u8(5, 2).unwrap();
        assert_ne!(mem.chunk_hash(0).unwrap(), h1);
        let page = vec![7u8; PAGE_SIZE];
        mem.set_page_from_slice(1, &page).unwrap();
        assert_eq!(
            mem.chunk_hash(CHUNKS_PER_PAGE).unwrap(),
            sha256(&page[..CHUNK_SIZE])
        );
        assert!(mem.set_page_from_slice(1, &page[1..]).is_err());
        assert!(mem
            .set_chunk_from_slice(0, &page[..CHUNK_SIZE - 1])
            .is_err());
        // The cached hash always equals a fresh hash of the contents.
        for i in 0..mem.chunk_count() {
            assert_eq!(mem.chunk_hash(i).unwrap(), sha256(mem.chunk(i).unwrap()));
        }
        // A seeded cache obeys the same rule: a write empties exactly the
        // slots of the chunks it covers.  The seeds are marker values, so a
        // slot that still answers with its marker was provably not rehashed.
        let marker = |i: usize| sha256(&(i as u64).to_le_bytes());
        let seeds: Vec<Digest> = (0..mem.chunk_count()).map(marker).collect();
        mem.seed_chunk_hashes(&seeds);
        mem.write(3 * CHUNK_SIZE as u64 - 1, &[1, 2]).unwrap();
        for i in 0..mem.chunk_count() {
            let expected = match i {
                2 | 3 => sha256(mem.chunk(i).unwrap()),
                _ => marker(i),
            };
            assert_eq!(mem.chunk_hash(i).unwrap(), expected, "chunk {i}");
        }
    }

    #[test]
    fn prime_chunk_hashes_fills_cache_correctly() {
        let mut mem = GuestMemory::new(4 * PAGE_SIZE as u64);
        mem.write_u8(CHUNK_SIZE as u64 * 7 + 3, 9).unwrap();
        let all: Vec<usize> = (0..mem.chunk_count()).collect();
        // Out-of-range indices are ignored, not a panic.
        let mut with_oob = all.clone();
        with_oob.push(mem.chunk_count() + 10);
        mem.prime_chunk_hashes(&with_oob);
        for i in all {
            assert_eq!(mem.chunk_hash(i).unwrap(), sha256(mem.chunk(i).unwrap()));
        }
    }

    #[test]
    fn set_page_restores_content() {
        let mut mem = GuestMemory::new(2 * PAGE_SIZE as u64);
        let mut page = [0u8; PAGE_SIZE];
        page[0] = 0xaa;
        page[PAGE_SIZE - 1] = 0xbb;
        mem.set_page(1, &page).unwrap();
        assert_eq!(mem.read_u8(PAGE_SIZE as u64).unwrap(), 0xaa);
        assert_eq!(mem.read_u8(2 * PAGE_SIZE as u64 - 1).unwrap(), 0xbb);
        assert!(mem.set_page(9, &page).is_err());
    }

    #[test]
    fn set_chunk_restores_content() {
        let mut mem = GuestMemory::new(PAGE_SIZE as u64);
        let mut chunk = vec![0u8; CHUNK_SIZE];
        chunk[0] = 0xcc;
        mem.set_chunk_from_slice(3, &chunk).unwrap();
        assert_eq!(mem.read_u8(3 * CHUNK_SIZE as u64).unwrap(), 0xcc);
        assert_eq!(mem.dirty_chunks(), vec![3]);
        assert!(mem.set_chunk_from_slice(CHUNKS_PER_PAGE, &chunk).is_err());
    }

    #[test]
    fn staged_chunk_reports_hash_before_contents() {
        let mut mem = GuestMemory::new(2 * PAGE_SIZE as u64);
        let authentic = vec![7u8; CHUNK_SIZE];
        let hash = sha256(&authentic);
        let idx = CHUNKS_PER_PAGE + 2; // page 1, chunk 2
        mem.stage_lazy_chunk(idx, authentic.clone(), hash).unwrap();
        // The root-relevant hash is already the staged one, while the raw
        // chunk still holds the local (stale) bytes.
        assert_eq!(mem.chunk_hash(idx).unwrap(), hash);
        assert_eq!(mem.chunk(idx).unwrap()[0], 0);
        assert_eq!(mem.staged_chunk_count(), 1);
        assert!(mem.faulted_chunks().is_empty());
        // First read faults the contents in.
        let addr = (idx * CHUNK_SIZE) as u64 + 5;
        assert_eq!(mem.read_u8(addr).unwrap(), 7);
        assert_eq!(mem.faulted_chunks(), &[idx]);
        assert_eq!(mem.staged_chunk_count(), 0);
        assert_eq!(mem.chunk(idx).unwrap()[0], 7);
        // The chunk is not dirty: it equals its at-snapshot contents.
        assert!(mem.dirty_chunks().is_empty());
        assert_eq!(mem.chunk_hash(idx).unwrap(), hash);
    }

    #[test]
    fn access_beside_staged_chunk_does_not_fault_it() {
        let mut mem = GuestMemory::new(PAGE_SIZE as u64);
        let authentic = vec![9u8; CHUNK_SIZE];
        mem.stage_lazy_chunk(4, authentic.clone(), sha256(&authentic))
            .unwrap();
        // Reads and writes in *other* chunks of the same page leave the
        // staged chunk untransferred — the whole point of sub-page faulting.
        mem.write_u8(0, 1).unwrap();
        assert_eq!(mem.read_u8(5 * CHUNK_SIZE as u64).unwrap(), 0);
        assert_eq!(mem.staged_chunk_count(), 1);
        assert!(mem.faulted_chunks().is_empty());
        // Touching the staged chunk itself faults it in.
        assert_eq!(mem.read_u8(4 * CHUNK_SIZE as u64 + 1).unwrap(), 9);
        assert_eq!(mem.faulted_chunks(), &[4]);
    }

    #[test]
    fn staged_chunk_faults_in_on_partial_write() {
        let mut mem = GuestMemory::new(2 * PAGE_SIZE as u64);
        let mut authentic = vec![0u8; CHUNK_SIZE];
        authentic[0] = 0xaa;
        authentic[100] = 0xbb;
        mem.stage_lazy_chunk(0, authentic.clone(), sha256(&authentic))
            .unwrap();
        // A partial write must land on top of the authentic bytes.
        mem.write_u8(1, 0xcc).unwrap();
        assert_eq!(mem.faulted_chunks(), &[0]);
        assert_eq!(mem.read_u8(0).unwrap(), 0xaa);
        assert_eq!(mem.read_u8(1).unwrap(), 0xcc);
        assert_eq!(mem.read_u8(100).unwrap(), 0xbb);
        // Now the chunk *is* dirty (the write changed it) and the hash cache
        // was invalidated by the write path.
        assert_eq!(mem.dirty_chunks(), vec![0]);
        let mut expected = authentic;
        expected[1] = 0xcc;
        assert_eq!(mem.chunk_hash(0).unwrap(), sha256(&expected));
    }

    #[test]
    fn wholesale_overwrite_drops_staging_without_fault() {
        let mut mem = GuestMemory::new(PAGE_SIZE as u64);
        let authentic = vec![9u8; CHUNK_SIZE];
        mem.stage_lazy_chunk(0, authentic.clone(), sha256(&authentic))
            .unwrap();
        let replacement = vec![3u8; CHUNK_SIZE];
        mem.set_chunk_from_slice(0, &replacement).unwrap();
        // The staged contents were never needed: no fault recorded.
        assert!(mem.faulted_chunks().is_empty());
        assert_eq!(mem.staged_chunk_count(), 0);
        assert_eq!(mem.chunk_hash(0).unwrap(), sha256(&replacement));
        // set_page_from_slice drops staged chunks across the page too.
        let mut mem2 = GuestMemory::new(PAGE_SIZE as u64);
        mem2.stage_lazy_chunk(5, authentic.clone(), sha256(&authentic))
            .unwrap();
        mem2.set_page_from_slice(0, &[1u8; PAGE_SIZE]).unwrap();
        assert!(mem2.faulted_chunks().is_empty());
        assert_eq!(mem2.staged_chunk_count(), 0);
    }

    #[test]
    fn write_fully_covering_staged_chunk_drops_staging_without_fault() {
        let mut mem = GuestMemory::new(PAGE_SIZE as u64);
        let authentic = vec![9u8; CHUNK_SIZE];
        mem.stage_lazy_chunk(2, authentic.clone(), sha256(&authentic))
            .unwrap();
        mem.stage_lazy_chunk(3, authentic.clone(), sha256(&authentic))
            .unwrap();
        // A write spanning all of chunk 2 and the first byte of chunk 3:
        // chunk 2's staged contents are never needed (no fault, no
        // transfer); chunk 3 is partially covered and must fault in.
        let data = vec![0xEEu8; CHUNK_SIZE + 1];
        mem.write(2 * CHUNK_SIZE as u64, &data).unwrap();
        assert_eq!(mem.faulted_chunks(), &[3]);
        assert_eq!(mem.staged_chunk_count(), 0);
        assert_eq!(mem.read_u8(2 * CHUNK_SIZE as u64).unwrap(), 0xEE);
        assert_eq!(mem.read_u8(3 * CHUNK_SIZE as u64).unwrap(), 0xEE);
        assert_eq!(mem.read_u8(3 * CHUNK_SIZE as u64 + 1).unwrap(), 9);
        assert_eq!(mem.dirty_chunks(), vec![2, 3]);
        for c in [2usize, 3] {
            assert_eq!(mem.chunk_hash(c).unwrap(), sha256(mem.chunk(c).unwrap()));
        }
    }

    #[test]
    fn stage_lazy_chunk_validates_inputs() {
        let mut mem = GuestMemory::new(PAGE_SIZE as u64);
        assert!(mem
            .stage_lazy_chunk(0, vec![0u8; 5], sha256(&[0u8; 5]))
            .is_err());
        let chunk = vec![0u8; CHUNK_SIZE];
        assert!(mem
            .stage_lazy_chunk(CHUNKS_PER_PAGE, chunk.clone(), sha256(&chunk))
            .is_err());
    }
}
