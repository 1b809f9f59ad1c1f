//! Guest RAM: a [`LeafStore`] in 512 B chunks behind byte, scalar and page
//! views.
//!
//! Everything about how guest memory is hashed, dirty-tracked and faulted in
//! is the store's ([`crate::store`]), and so is the leaf size — the 512 B
//! **chunk** ([`CHUNK_SIZE`], [`CHUNKS_PER_PAGE`] per page), so an 8-byte
//! counter bump costs one chunk of hashing, storage and transfer rather than
//! a 4 KiB page, and a sparse replay that reads 8 bytes pulls 512 over the
//! wire, not 4096.  Hashes, dirty sets and staging counts are read from
//! [`GuestMemory::leaves`], the one leaf API.  What is memory's own: the
//! scalar helpers the CPUs use, chunk restore and staging with memory's
//! error values, and [`VmError::MemoryOutOfRange`], which a zero-length
//! access never earns wherever it points.

use avm_crypto::sha256::Digest;

use crate::error::{VmError, VmResult};
use crate::store::{LeafStore, Refused, SharedPage};

pub use crate::store::{CHUNKS_PER_PAGE, CHUNK_SIZE, PAGE_SIZE};

/// Byte-addressable guest RAM divided into [`PAGE_SIZE`] pages, dirty-tracked
/// and content-addressed in [`CHUNK_SIZE`] chunks.
#[derive(Debug, Clone)]
pub struct GuestMemory {
    store: LeafStore,
}

impl GuestMemory {
    /// Allocates zeroed guest memory of `size` bytes (rounded up to whole pages).
    pub fn new(size: u64) -> GuestMemory {
        GuestMemory {
            store: LeafStore::new(size, "chunk"),
        }
    }

    /// Memory that shares `pages` until it writes them, with every chunk's
    /// hash known ([`LeafStore::from_shared`]).
    pub(crate) fn from_shared(pages: &[SharedPage], hashes: &[Digest]) -> GuestMemory {
        GuestMemory {
            store: LeafStore::from_shared(pages, hashes, "chunk"),
        }
    }

    /// The store behind this memory: its chunks are the memory leaves of the
    /// Merkle state tree.
    pub fn leaves(&self) -> &LeafStore {
        &self.store
    }

    /// Mutable access to the store (snapshot restore and staging).
    pub fn leaves_mut(&mut self) -> &mut LeafStore {
        &mut self.store
    }

    /// Total memory size in bytes.
    pub fn size(&self) -> u64 {
        self.store.size()
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.store.page_count()
    }

    /// Number of chunks ([`CHUNKS_PER_PAGE`] per page) — the memory leaf
    /// count of the Merkle state tree.
    pub fn chunk_count(&self) -> usize {
        self.store.leaf_count()
    }

    /// The error for an access `[addr, addr + len)` the store refused.
    fn refused(&self, addr: u64, len: usize, why: Refused) -> VmError {
        match why {
            Refused::OutOfRange => VmError::MemoryOutOfRange {
                addr,
                len,
                mem_size: self.size(),
            },
            Refused::Miss => VmError::Miss,
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// Takes `&mut self` because a read may fault in a staged chunk (see
    /// [`GuestMemory::stage_lazy_chunk`]); for fully resident memory it
    /// mutates nothing.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) -> VmResult<()> {
        self.store
            .read(addr, buf)
            .map_err(|why| self.refused(addr, buf.len(), why))
    }

    /// Writes `data` starting at `addr`, marking touched chunks dirty.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> VmResult<()> {
        self.store
            .write(addr, data)
            .map_err(|why| self.refused(addr, data.len(), why))
    }

    /// [`VmError::Miss`] exactly when a `len`-byte [`GuestMemory::write`] at
    /// `addr` would be one, changing nothing else: what an instruction with
    /// a side effect before its write asks first.
    pub(crate) fn probe_write(&mut self, addr: u64, len: usize) -> VmResult<()> {
        self.store
            .probe_write(addr, len)
            .map_err(|why| self.refused(addr, len, why))
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
        self.store.page(idx)
    }

    /// Returns the raw contents of chunk `idx` (a [`CHUNK_SIZE`] slice).
    pub fn chunk(&self, idx: usize) -> Option<&[u8]> {
        self.store.leaf(idx)
    }

    /// Overwrites chunk `idx` from a slice that must be exactly
    /// [`CHUNK_SIZE`] long (the snapshot-restore unit).
    pub fn set_chunk_from_slice(&mut self, idx: usize, data: &[u8]) -> VmResult<()> {
        let refused = if data.len() != CHUNK_SIZE {
            "snapshot chunk has wrong size"
        } else {
            "snapshot chunk index out of range"
        };
        self.store
            .set_leaf(idx, data)
            .ok_or(VmError::CorruptState(refused))
    }

    /// Clears all dirty bits.
    pub fn clear_dirty(&mut self) {
        self.store.clear_dirty();
    }

    /// Stages authentic contents for chunk `idx` to be installed on first
    /// access, under the hash state roots report for it until then
    /// ([`LeafStore::stage_lazy`]).
    pub fn stage_lazy_chunk(&mut self, idx: usize, content: Vec<u8>, hash: Digest) -> VmResult<()> {
        let refused = if content.len() != CHUNK_SIZE {
            "staged chunk has wrong size"
        } else {
            "staged chunk index out of range"
        };
        self.store
            .stage_lazy(idx, content, hash)
            .ok_or(VmError::CorruptState(refused))
    }

    /// Chunk indices faulted in from staging so far, in first-touch order.
    pub fn faulted_chunks(&self) -> &[usize] {
        self.store.faulted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avm_crypto::sha256::sha256;

    /// Restores page `idx` chunk by chunk, as a snapshot restore does.
    fn set_page(mem: &mut GuestMemory, idx: usize, page: &[u8]) -> VmResult<()> {
        page.chunks(CHUNK_SIZE)
            .enumerate()
            .try_for_each(|(c, chunk)| mem.set_chunk_from_slice(idx * CHUNKS_PER_PAGE + c, chunk))
    }

    #[test]
    fn zeroed_on_creation() {
        let mut mem = GuestMemory::new(2 * PAGE_SIZE as u64);
        assert_eq!(mem.size(), 2 * PAGE_SIZE as u64);
        assert_eq!(mem.page_count(), 2);
        assert_eq!(mem.chunk_count(), 2 * CHUNKS_PER_PAGE);
        assert_eq!(mem.read_u64(0).unwrap(), 0);
        assert!(mem.leaves().dirty_leaves().is_empty());
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
        // dirty.
        assert_eq!(
            mem.leaves().dirty_leaves(),
            vec![CHUNKS_PER_PAGE - 1, CHUNKS_PER_PAGE]
        );
    }

    #[test]
    fn sub_page_writes_dirty_single_chunks() {
        let mut mem = GuestMemory::new(2 * PAGE_SIZE as u64);
        // 8 bytes inside chunk 3 of page 0.
        mem.write_u64(3 * CHUNK_SIZE as u64 + 16, 7).unwrap();
        assert_eq!(mem.leaves().dirty_leaves(), vec![3]);
        // A write spanning the chunk boundary dirties both chunks.
        mem.clear_dirty();
        mem.write(CHUNK_SIZE as u64 - 2, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mem.leaves().dirty_leaves(), vec![0, 1]);
    }

    #[test]
    fn out_of_range_access_rejected() {
        let mut mem = GuestMemory::new(PAGE_SIZE as u64);
        assert!(matches!(
            mem.read_vec(PAGE_SIZE as u64 - 2, 4).unwrap_err(),
            VmError::MemoryOutOfRange { .. }
        ));
        assert!(mem.write(u64::MAX - 1, &[1, 2, 3]).is_err());
    }

    /// A zero-length access is fine wherever it points, and touches nothing.
    #[test]
    fn zero_length_access_is_ok_anywhere_and_touches_nothing() {
        let mut mem = GuestMemory::new(PAGE_SIZE as u64);
        let staged = vec![5u8; CHUNK_SIZE];
        mem.stage_lazy_chunk(1, staged.clone(), sha256(&staged))
            .unwrap();
        for addr in [0, CHUNK_SIZE as u64, PAGE_SIZE as u64, u64::MAX] {
            mem.write(addr, &[]).unwrap();
            assert_eq!(mem.read_vec(addr, 0).unwrap(), Vec::<u8>::new());
        }
        assert!(mem.leaves().dirty_leaves().is_empty() && mem.faulted_chunks().is_empty());
        assert_eq!(mem.leaves().staged_count(), 1);
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
        assert_eq!(mem.leaves().dirty_leaves(), vec![2 * CHUNKS_PER_PAGE]);
        mem.clear_dirty();
        assert!(mem.leaves().dirty_leaves().is_empty());
    }

    #[test]
    fn chunk_hash_changes_with_content() {
        let mut mem = GuestMemory::new(PAGE_SIZE as u64);
        let before = mem.leaves().leaf_hash(0).unwrap();
        mem.write_u8(100, 42).unwrap();
        assert_ne!(before, mem.leaves().leaf_hash(0).unwrap());
        // A write to chunk 0 leaves chunk 1's hash alone.
        assert_eq!(
            mem.leaves().leaf_hash(1).unwrap(),
            sha256(&[0u8; CHUNK_SIZE]),
            "untouched chunk hash must be the zero-chunk hash"
        );
        assert!(mem.leaves().leaf_hash(CHUNKS_PER_PAGE + 5).is_none());
    }

    #[test]
    fn chunk_hash_cache_tracks_writes_not_dirty_bits() {
        let mut mem = GuestMemory::new(2 * PAGE_SIZE as u64);
        let h0 = mem.leaves().leaf_hash(0).unwrap();
        // Repeated reads return the memoised value.
        assert_eq!(mem.leaves().leaf_hash(0).unwrap(), h0);
        // Clearing dirty bits must NOT invalidate the hash cache...
        mem.write_u8(5, 1).unwrap();
        let h1 = mem.leaves().leaf_hash(0).unwrap();
        assert_ne!(h0, h1);
        mem.clear_dirty();
        assert_eq!(mem.leaves().leaf_hash(0).unwrap(), h1);
        // ...but any write path must.
        mem.write_u8(5, 2).unwrap();
        assert_ne!(mem.leaves().leaf_hash(0).unwrap(), h1);
        let page = vec![7u8; PAGE_SIZE];
        set_page(&mut mem, 1, &page).unwrap();
        assert_eq!(
            mem.leaves().leaf_hash(CHUNKS_PER_PAGE).unwrap(),
            sha256(&page[..CHUNK_SIZE])
        );
        assert!(set_page(&mut mem, 1, &page[1..]).is_err());
        assert!(mem
            .set_chunk_from_slice(0, &page[..CHUNK_SIZE - 1])
            .is_err());
        // The cached hash always equals a fresh hash of the contents.
        for i in 0..mem.chunk_count() {
            assert_eq!(
                mem.leaves().leaf_hash(i).unwrap(),
                sha256(mem.chunk(i).unwrap())
            );
        }
        // A seeded cache obeys the same rule: a write empties exactly the
        // slots of the chunks it covers.  The seeds are marker values, so a
        // slot that still answers with its marker was provably not rehashed.
        let marker = |i: usize| sha256(&(i as u64).to_le_bytes());
        let seeds: Vec<Digest> = (0..mem.chunk_count()).map(marker).collect();
        let mut mem = GuestMemory::from_shared(&mem.leaves().shared_pages(), &seeds);
        mem.write(3 * CHUNK_SIZE as u64 - 1, &[1, 2]).unwrap();
        for i in 0..mem.chunk_count() {
            let expected = match i {
                2 | 3 => sha256(mem.chunk(i).unwrap()),
                _ => marker(i),
            };
            assert_eq!(mem.leaves().leaf_hash(i).unwrap(), expected, "chunk {i}");
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
        mem.leaves().prime_hashes(&with_oob);
        for i in all {
            assert_eq!(
                mem.leaves().leaf_hash(i).unwrap(),
                sha256(mem.chunk(i).unwrap())
            );
        }
    }

    #[test]
    fn set_page_restores_content() {
        let mut mem = GuestMemory::new(2 * PAGE_SIZE as u64);
        let mut page = [0u8; PAGE_SIZE];
        page[0] = 0xaa;
        page[PAGE_SIZE - 1] = 0xbb;
        set_page(&mut mem, 1, &page).unwrap();
        assert_eq!(mem.read_u8(PAGE_SIZE as u64).unwrap(), 0xaa);
        assert_eq!(mem.read_u8(2 * PAGE_SIZE as u64 - 1).unwrap(), 0xbb);
        assert!(set_page(&mut mem, 9, &page).is_err());
    }

    #[test]
    fn set_chunk_restores_content() {
        let mut mem = GuestMemory::new(PAGE_SIZE as u64);
        let mut chunk = vec![0u8; CHUNK_SIZE];
        chunk[0] = 0xcc;
        mem.set_chunk_from_slice(3, &chunk).unwrap();
        assert_eq!(mem.read_u8(3 * CHUNK_SIZE as u64).unwrap(), 0xcc);
        assert_eq!(mem.leaves().dirty_leaves(), vec![3]);
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
        assert_eq!(mem.leaves().leaf_hash(idx).unwrap(), hash);
        assert_eq!(mem.chunk(idx).unwrap()[0], 0);
        assert_eq!(mem.leaves().staged_count(), 1);
        assert!(mem.faulted_chunks().is_empty());
        // First read faults the contents in.
        let addr = (idx * CHUNK_SIZE) as u64 + 5;
        assert_eq!(mem.read_u8(addr).unwrap(), 7);
        assert_eq!(mem.faulted_chunks(), &[idx]);
        assert_eq!(mem.leaves().staged_count(), 0);
        assert_eq!(mem.chunk(idx).unwrap()[0], 7);
        // The chunk is not dirty: it equals its at-snapshot contents.
        assert!(mem.leaves().dirty_leaves().is_empty());
        assert_eq!(mem.leaves().leaf_hash(idx).unwrap(), hash);
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
        assert_eq!(mem.leaves().staged_count(), 1);
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
        assert_eq!(mem.leaves().dirty_leaves(), vec![0]);
        let mut expected = authentic;
        expected[1] = 0xcc;
        assert_eq!(mem.leaves().leaf_hash(0).unwrap(), sha256(&expected));
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
        assert_eq!(mem.leaves().staged_count(), 0);
        assert_eq!(mem.leaves().leaf_hash(0).unwrap(), sha256(&replacement));
        // Restoring a whole page drops staged chunks across it too.
        let mut mem2 = GuestMemory::new(PAGE_SIZE as u64);
        mem2.stage_lazy_chunk(5, authentic.clone(), sha256(&authentic))
            .unwrap();
        set_page(&mut mem2, 0, &[1u8; PAGE_SIZE]).unwrap();
        assert!(mem2.faulted_chunks().is_empty());
        assert_eq!(mem2.leaves().staged_count(), 0);
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
        assert_eq!(mem.leaves().staged_count(), 0);
        assert_eq!(mem.read_u8(2 * CHUNK_SIZE as u64).unwrap(), 0xEE);
        assert_eq!(mem.read_u8(3 * CHUNK_SIZE as u64).unwrap(), 0xEE);
        assert_eq!(mem.read_u8(3 * CHUNK_SIZE as u64 + 1).unwrap(), 9);
        assert_eq!(mem.leaves().dirty_leaves(), vec![2, 3]);
        for c in [2usize, 3] {
            assert_eq!(
                mem.leaves().leaf_hash(c).unwrap(),
                sha256(mem.chunk(c).unwrap())
            );
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
