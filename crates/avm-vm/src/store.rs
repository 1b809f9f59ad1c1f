//! The leaf store: one hashed, dirty-tracked, lazily resident byte array.
//!
//! An AVM's state is committed as *one* hash tree over memory and disk (paper
//! §4.4) and an auditor may fault that state in piece by piece (§3.5).  Guest
//! RAM and the virtual disk are therefore the same container, and
//! [`LeafStore`] is that container, written once: [`crate::GuestMemory`] and
//! [`crate::devices::Disk`] each wrap one in leaves of [`CHUNK_SIZE`] and add
//! only what is theirs, and every layer above walks
//! [`crate::Machine::stores`] instead of naming chunks and blocks.
//!
//! Contents sit in [`PAGE_SIZE`] pages; a **leaf** is a power-of-two fraction
//! of a page, so it never straddles two.  How big a leaf is, is decided here
//! once ([`CHUNK_SIZE`]): all state is hashed, snapshotted and shipped at one
//! granularity.  Per leaf the store keeps three things, each with one rule.
//!
//! # Pages
//!
//! A machine costs what diverged from its image, not the image's size.  A
//! page is either *shared* — read-only, held by reference count with every
//! other store built from the same source — or *owned* by this store.  A
//! fresh store ([`LeafStore::new`]) is one process-wide zero page, repeated;
//! a store built from a [`crate::VmImage`] shares the pages of the image's
//! baseline ([`crate::image::ImageBaseline`]).  The one rule: **the first
//! change to a shared page's bytes copies it**, whichever path makes it — a
//! write, a whole-leaf install that changes a byte, or a fault-in install.
//! An install that changes no byte changes nothing, so the page stays
//! shared.  After the copy the page is owned, and writing it again touches
//! no reference count.  Nothing else about a page is observable: reads, the
//! three per-leaf contracts below and every hash are the same for both
//! states.
//!
//! # Dirty bits
//!
//! Incremental snapshots "only contain the state that has changed since the
//! last snapshot" (§4.4), so the AVMM must know which state a guest wrote.
//! Every write path sets the bit of each leaf it covers, with one exception:
//! a whole-leaf install ([`LeafStore::set_leaf`]) that changes no byte of a
//! resident leaf sets nothing.  [`LeafStore::dirty_leaves`] reads the bits
//! and [`LeafStore::clear_dirty`] resets them at a capture point.  Tracking
//! guest memory in 512 B leaves rather than whole pages is what makes an
//! 8-byte counter bump cost one chunk of hashing, storage and transfer
//! instead of eight — and the install exception is what makes restoring a
//! full memory dump that equals the image cost a compare per chunk instead
//! of a hash.
//!
//! # Hash slots
//!
//! Independently of the dirty bits, every leaf's SHA-256 is memoised: a slot
//! is either empty or the hash of the leaf's current bytes (of its staged
//! bytes, while it is staged).  The write path empties it the moment the
//! leaf's contents change — an install that changes nothing keeps it — and
//! [`LeafStore::leaf_hash`] refills it lazily (or in bulk, across the scoped
//! worker pool, by [`LeafStore::prime_hashes`]).  Unlike the dirty bits the
//! slots are *never* cleared wholesale — their validity tracks content
//! changes, not snapshot boundaries — so a state root rehashes only what was
//! written since the previous root, however often dirty tracking is reset in
//! between.  A machine built from a [`crate::VmImage`] starts with every slot
//! filled from the image's baseline (`LeafStore::from_shared`), so it
//! never hashes a leaf that still holds what the image put there.
//!
//! # Residency (§3.5 on-demand audits)
//!
//! An auditor "can either download an entire snapshot or incrementally
//! request the parts of the state that are accessed during replay".
//! [`LeafStore::stage_lazy`] supports the second mode: a staged leaf carries
//! its authentic at-snapshot contents *beside* the pages together with their
//! hash, and the contents are installed ("faulted in") the moment the guest
//! first reads or writes any byte of the leaf.  Until then the pages hold
//! whatever the local reference image produced, while
//! [`LeafStore::leaf_hash`] already reports the staged (authentic) hash — so
//! state roots are correct at every point even though untouched contents
//! were never transferred.  [`LeafStore::faulted`] records the first-touch
//! order; the audit layer turns it into the exact set of blobs the auditor
//! had to download.  [`LeafStore::install_staged`] installs a staged leaf
//! with no touch and no fault, which is how a staged state becomes a fully
//! resident one.
//!
//! Residency is a **slot**, not a probe.  Staged contents live in a table
//! indexed by leaf number: an occupied slot means "this leaf is not resident
//! yet", an empty one means "the pages are authoritative".  The table does
//! not exist until something is staged and a live count sits beside it, so
//! the question every guest access asks — "is any leaf I touch staged?" —
//! costs one compare on a fully resident machine (the bare and recording
//! paths) and, on a partially resident one, two indexed loads per touched
//! leaf: the miss check, then the install.
//! The access path does no hashing and no search, which is why an on-demand
//! replay runs at the bare interpreter's speed however many leaves are
//! staged and never touched.
//!
//! Caveat: while leaves remain staged, [`LeafStore::leaf`] (raw contents)
//! returns the stale local bytes.  Root computations must go through the
//! hash slots, never through re-hashing raw contents.
//!
//! # Misses
//!
//! An auditor stages what it can produce itself with its contents and the
//! rest *byteless* ([`LeafStore::stage_byteless`]): the hash slot alone,
//! so every root is still right.  The first access that needs such a leaf's
//! bytes is a **miss**: it is refused before it changes anything — no byte,
//! no dirty bit, no hash slot, no fault — and the leaves it needed are
//! listed by [`LeafStore::missed`] until [`LeafStore::supply`] hands their
//! contents over; the access then goes through like any other first touch.
//! A write that covers a byteless leaf whole never needed its bytes and is
//! no miss.  Only the first refused access is listed: whatever a caller
//! does after ignoring a miss is not what the recorded execution did.
//!
//! A zero-length access touches nothing: it faults nothing in, sets no dirty
//! bit and empties no hash slot, wherever it points.

use std::cell::RefCell;
use std::sync::{Arc, LazyLock};

use avm_crypto::parallel::sha256_batch;
use avm_crypto::sha256::{sha256, Digest};

/// Allocation granularity of a [`LeafStore`], and the guest page size
/// (4 KiB, matching a commodity PC).
pub const PAGE_SIZE: usize = 4096;

/// The leaf of every machine store, memory and disk alike: one eighth of a
/// page.  Dirty tracking, Merkle leaves, snapshot sections, pool blobs and
/// on-demand transfers are all this size, so an 8-byte write costs 512 B of
/// hashing, storage and transfer wherever it lands.
pub const CHUNK_SIZE: usize = 512;

/// Leaves per page.
pub const CHUNKS_PER_PAGE: usize = PAGE_SIZE / CHUNK_SIZE;

/// log2 of [`CHUNK_SIZE`], so the access path shifts instead of dividing.
const LEAF_SHIFT: u32 = CHUNK_SIZE.trailing_zeros();

/// log2 of [`CHUNKS_PER_PAGE`].
const PER_PAGE_SHIFT: u32 = CHUNKS_PER_PAGE.trailing_zeros();

const _: () = assert!(
    CHUNK_SIZE.is_power_of_two() && CHUNK_SIZE <= PAGE_SIZE,
    "a leaf is a power-of-two fraction of a page"
);

/// A read-only page that any number of stores share until one writes it.
pub(crate) type SharedPage = Arc<[u8; PAGE_SIZE]>;

/// The page every fresh store is made of.
static ZERO_PAGE: LazyLock<SharedPage> = LazyLock::new(|| Arc::new([0; PAGE_SIZE]));

/// One page of a store, in one of the two states of the module docs'
/// "# Pages" contract.
#[derive(Debug, Clone)]
enum Page {
    Shared(SharedPage),
    Owned(Box<[u8; PAGE_SIZE]>),
}

impl Page {
    #[inline]
    fn bytes(&self) -> &[u8; PAGE_SIZE] {
        match self {
            Page::Shared(page) => page,
            Page::Owned(page) => page,
        }
    }

    /// The page's bytes, to change: a shared page is copied first, an owned
    /// one is handed out as it is.
    #[inline]
    fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        if let Page::Shared(page) = self {
            *self = Page::Owned(Box::new(**page));
        }
        match self {
            Page::Owned(page) => page,
            Page::Shared(_) => unreachable!("a shared page was copied above"),
        }
    }
}

/// What sits in an occupied staging slot (module docs, "# Misses").
#[derive(Debug, Clone)]
enum Staged {
    /// The leaf's authentic contents, installed on first touch.
    Bytes(Vec<u8>),
    /// Nothing yet: a first touch that needs the contents is a miss.
    Byteless,
}

/// Why the store refused an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// The range is not inside the store.
    OutOfRange,
    /// The access needs a byteless leaf's contents ([`LeafStore::missed`]).
    Miss,
}

/// A byte array in [`PAGE_SIZE`] pages, shared until written, hashed,
/// dirty-tracked and demand-paged per leaf — see the module docs for the
/// contracts.
#[derive(Debug, Clone)]
pub struct LeafStore {
    /// What one leaf is called in an error message ("chunk", "disk block").
    leaf_name: &'static str,
    pages: Vec<Page>,
    /// Per leaf: written since the last [`LeafStore::clear_dirty`].
    dirty: Vec<bool>,
    /// Per leaf: its SHA-256 if known (interior mutability so reads fill it).
    hashes: RefCell<Vec<Option<Digest>>>,
    /// Per leaf: staged and not yet touched.  Empty until the first
    /// [`LeafStore::stage_lazy`] or [`LeafStore::stage_byteless`], then one
    /// slot per leaf.
    staged: Vec<Option<Staged>>,
    /// Number of occupied `staged` slots.
    staged_live: usize,
    /// Leaves installed from `staged`, in first-touch order.
    faulted: Vec<usize>,
    /// Byteless leaves the first refused access needed, not yet supplied.
    missed: Vec<usize>,
}

impl LeafStore {
    /// A zeroed store of `size` bytes (rounded up to whole pages, at least
    /// one).
    pub fn new(size: u64, leaf_name: &'static str) -> LeafStore {
        let n_pages = (size as usize).div_ceil(PAGE_SIZE).max(1);
        let pages = vec![Page::Shared(Arc::clone(&ZERO_PAGE)); n_pages];
        LeafStore::assemble(pages, None, leaf_name)
    }

    /// A store that shares `pages` and whose hash slots hold `hashes`, one
    /// per leaf: the hashes of those very pages' leaves
    /// (the caller's obligation, as it is [`LeafStore::stage_lazy`]'s).  No
    /// leaf is dirty and no page is owned.
    ///
    /// [`crate::Machine::from_image`] builds both stores this way from the
    /// image's baseline, so a fresh machine costs reference counts.
    pub(crate) fn from_shared(
        pages: &[SharedPage],
        hashes: &[Digest],
        leaf_name: &'static str,
    ) -> LeafStore {
        let pages = pages.iter().cloned().map(Page::Shared).collect();
        LeafStore::assemble(pages, Some(hashes), leaf_name)
    }

    /// `pages`, nothing dirty or staged, the hash slots filled from
    /// `hashes` or else empty.
    fn assemble(pages: Vec<Page>, hashes: Option<&[Digest]>, leaf_name: &'static str) -> LeafStore {
        let leaves = pages.len() * CHUNKS_PER_PAGE;
        let hashes = match hashes {
            Some(hashes) => {
                assert_eq!(hashes.len(), leaves, "one hash per leaf");
                hashes.iter().copied().map(Some).collect()
            }
            None => vec![None; leaves],
        };
        LeafStore {
            leaf_name,
            pages,
            dirty: vec![false; leaves],
            hashes: RefCell::new(hashes),
            staged: Vec::new(),
            staged_live: 0,
            faulted: Vec::new(),
            missed: Vec::new(),
        }
    }

    /// Every page of this store, as pages that stores built by
    /// [`LeafStore::from_shared`] share: a shared page is handed on, an
    /// owned one copied once.
    pub(crate) fn shared_pages(&self) -> Vec<SharedPage> {
        self.pages
            .iter()
            .map(|page| match page {
                Page::Shared(page) => Arc::clone(page),
                Page::Owned(page) => Arc::new(**page),
            })
            .collect()
    }

    /// What one leaf of this store is called in an error message.
    pub fn leaf_name(&self) -> &'static str {
        self.leaf_name
    }

    /// Number of leaves — this store's share of the Merkle state tree.
    pub fn leaf_count(&self) -> usize {
        self.dirty.len()
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        (self.pages.len() * PAGE_SIZE) as u64
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The raw contents of page `idx`.
    pub fn page(&self, idx: usize) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(idx).map(Page::bytes)
    }

    /// The one bounds check: `[addr, addr + len)` lies inside the store.
    fn contains(&self, addr: u64, len: usize) -> bool {
        addr.checked_add(len as u64)
            .is_some_and(|end| end <= self.size())
    }

    /// Page number and in-page byte range of leaf `idx` (which may be out of
    /// range: the page lookup is what rejects it).
    fn locate(&self, idx: usize) -> (usize, std::ops::Range<usize>) {
        let off = (idx & (CHUNKS_PER_PAGE - 1)) << LEAF_SHIFT;
        (idx >> PER_PAGE_SHIFT, off..off + CHUNK_SIZE)
    }

    /// Empties staging slot `idx`, handing back what was staged there.
    #[inline]
    fn take_staged(&mut self, idx: usize) -> Option<Staged> {
        let staged = self.staged.get_mut(idx)?.take()?;
        self.staged_live -= 1;
        if !self.missed.is_empty() {
            self.missed.retain(|&leaf| leaf != idx);
        }
        Some(staged)
    }

    /// Leaves of the non-empty, in-range access `[addr, addr + len)`.
    fn leaves_of(&self, addr: u64, len: usize) -> std::ops::RangeInclusive<usize> {
        (addr as usize >> LEAF_SHIFT)..=((addr as usize + len - 1) >> LEAF_SHIFT)
    }

    /// Whether the access `[addr, addr + len)` (an `overwrite` or not)
    /// covers all of leaf `idx`, so needs none of its old bytes.
    fn covers(&self, addr: u64, len: usize, overwrite: bool, idx: usize) -> bool {
        let (start, end) = (addr as usize, addr as usize + len);
        overwrite && start <= idx << LEAF_SHIFT && (idx + 1) << LEAF_SHIFT <= end
    }

    /// The miss check of the non-empty, in-range access `[addr, addr + len)`:
    /// [`Refused::Miss`] if it needs the bytes of a byteless leaf, with the
    /// leaves listed in `missed` when no earlier miss is still listed.
    fn check_staged(&mut self, addr: u64, len: usize, overwrite: bool) -> Result<(), Refused> {
        if self.staged_live == 0 {
            return Ok(());
        }
        let needs_bytes = |store: &LeafStore, idx: usize| {
            matches!(store.staged.get(idx), Some(Some(Staged::Byteless)))
                && !store.covers(addr, len, overwrite, idx)
        };
        // On the guest's access path: a plain scan, no allocation.
        if !self.leaves_of(addr, len).any(|idx| needs_bytes(self, idx)) {
            return Ok(());
        }
        if self.missed.is_empty() {
            let leaves = self.leaves_of(addr, len);
            self.missed = leaves.filter(|&idx| needs_bytes(self, idx)).collect();
        }
        Err(Refused::Miss)
    }

    /// Installs the staged leaves the non-empty, in-range access
    /// `[addr, addr + len)` touches — replacing the stale local contents with
    /// the authentic staged bytes *before* the access proceeds — and records
    /// each in the fault list; or, changing nothing, refuses the access as a
    /// miss (module docs, "# Misses").
    ///
    /// When the access is a write, leaves it *fully* covers are about to be
    /// overwritten wholesale: their staged contents are never needed, so the
    /// staging is dropped without a fault (no transfer), as
    /// [`LeafStore::set_leaf`] does.  Only partially covered leaves need the
    /// authentic surrounding bytes.
    fn fault_in_range(&mut self, addr: u64, len: usize, overwrite: bool) -> Result<(), Refused> {
        if self.staged_live == 0 {
            return Ok(());
        }
        self.check_staged(addr, len, overwrite)?;
        for idx in self.leaves_of(addr, len) {
            let Some(Staged::Bytes(content)) = self.take_staged(idx) else {
                // Unstaged, or byteless under a write that covers it whole.
                continue;
            };
            if self.covers(addr, len, overwrite, idx) {
                continue;
            }
            let (page, range) = self.locate(idx);
            self.pages[page].bytes_mut()[range].copy_from_slice(&content);
            self.faulted.push(idx);
            // The hash slot keeps the hash seeded at staging time: the
            // installed contents equal it by construction.  The dirty bit
            // stays untouched — the leaf equals its at-snapshot contents,
            // nothing changed since the capture point.
        }
        Ok(())
    }

    /// The checks [`LeafStore::write`] makes before it touches anything,
    /// alone: [`Refused::Miss`] exactly when a `len`-byte write at `addr`
    /// would be a miss (listed as that write would list it).  Anything
    /// else, out-of-range included, is the write's own to judge.
    pub(crate) fn probe_write(&mut self, addr: u64, len: usize) -> Result<(), Refused> {
        if len == 0 || !self.contains(addr, len) {
            return Ok(());
        }
        self.check_staged(addr, len, true)
    }

    /// Reads `buf.len()` bytes at `addr`; refused, with nothing touched,
    /// when the range is not inside the store or the read is a miss.
    ///
    /// Takes `&mut self` because a read may fault in a staged leaf; on a
    /// fully resident store it mutates nothing.
    pub(crate) fn read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Refused> {
        if buf.is_empty() {
            return Ok(());
        }
        if !self.contains(addr, buf.len()) {
            return Err(Refused::OutOfRange);
        }
        self.fault_in_range(addr, buf.len(), false)?;
        let mut offset = addr as usize;
        let mut copied = 0usize;
        while copied < buf.len() {
            let page = offset / PAGE_SIZE;
            let in_page = offset % PAGE_SIZE;
            let n = (PAGE_SIZE - in_page).min(buf.len() - copied);
            buf[copied..copied + n]
                .copy_from_slice(&self.pages[page].bytes()[in_page..in_page + n]);
            copied += n;
            offset += n;
        }
        Ok(())
    }

    /// Writes `data` at `addr`, setting the dirty bit and emptying the hash
    /// slot of every leaf it covers; refused, with nothing touched, when the
    /// range is not inside the store or the write is a miss.
    pub(crate) fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), Refused> {
        if data.is_empty() {
            return Ok(());
        }
        if !self.contains(addr, data.len()) {
            return Err(Refused::OutOfRange);
        }
        self.fault_in_range(addr, data.len(), true)?;
        let mut offset = addr as usize;
        let mut copied = 0usize;
        while copied < data.len() {
            let page = offset / PAGE_SIZE;
            let in_page = offset % PAGE_SIZE;
            let n = (PAGE_SIZE - in_page).min(data.len() - copied);
            self.pages[page].bytes_mut()[in_page..in_page + n]
                .copy_from_slice(&data[copied..copied + n]);
            copied += n;
            offset += n;
        }
        let first = addr as usize >> LEAF_SHIFT;
        let last = (addr as usize + data.len() - 1) >> LEAF_SHIFT;
        let marked = self.dirty[first..=last].iter_mut();
        for (dirty, hash) in marked.zip(&mut self.hashes.get_mut()[first..=last]) {
            *dirty = true;
            *hash = None;
        }
        Ok(())
    }

    /// The raw contents of leaf `idx` (stale while the leaf is staged).
    pub fn leaf(&self, idx: usize) -> Option<&[u8]> {
        let (page, range) = self.locate(idx);
        Some(&self.pages.get(page)?.bytes()[range])
    }

    /// Overwrites leaf `idx` wholesale (the snapshot-restore unit); `None`,
    /// with nothing changed, unless `idx` is a leaf and `data` is exactly one
    /// leaf long.  A resident leaf that already holds `data` is left alone:
    /// no byte changes, so neither its dirty bit nor its hash slot does, and
    /// a shared page stays shared.
    pub fn set_leaf(&mut self, idx: usize, data: &[u8]) -> Option<()> {
        if data.len() != CHUNK_SIZE {
            return None;
        }
        let (page, range) = self.locate(idx);
        let leaf = &self.pages.get(page)?.bytes()[range.clone()];
        // A staged leaf's pages hold stale local bytes, so equal bytes there
        // prove nothing: it is installed like any other.
        let resident = self.staged_live == 0 || self.staged[idx].is_none();
        if resident && *leaf == *data {
            return Some(());
        }
        self.pages[page].bytes_mut()[range].copy_from_slice(data);
        // A wholesale overwrite supersedes any staged contents without
        // needing them — drop the staging, record no fault.
        self.take_staged(idx);
        self.dirty[idx] = true;
        self.hashes.get_mut()[idx] = None;
        Some(())
    }

    /// SHA-256 of leaf `idx`, memoised until the leaf is written.
    pub fn leaf_hash(&self, idx: usize) -> Option<Digest> {
        let leaf = self.leaf(idx)?;
        Some(*self.hashes.borrow_mut()[idx].get_or_insert_with(|| sha256(leaf)))
    }

    /// Fills the hash slots of `indices` that are empty, hashing the missing
    /// leaves across the scoped worker pool
    /// ([`avm_crypto::parallel::sha256_batch`]).  Out-of-range indices are
    /// ignored; [`LeafStore::leaf_hash`] on a primed index is a pure hit.
    pub fn prime_hashes(&self, indices: &[usize]) {
        let mut hashes = self.hashes.borrow_mut();
        let missing: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| hashes.get(i).is_some_and(Option::is_none))
            .collect();
        if missing.is_empty() {
            return;
        }
        let inputs: Vec<&[u8]> = missing
            .iter()
            .map(|&i| self.leaf(i).expect("leaf in range"))
            .collect();
        for (i, digest) in missing.iter().zip(sha256_batch(&inputs)) {
            hashes[*i] = Some(digest);
        }
    }

    /// Leaves written since the last [`LeafStore::clear_dirty`], ascending.
    pub fn dirty_leaves(&self) -> Vec<usize> {
        let dirty = self.dirty.iter().enumerate();
        dirty.filter_map(|(i, &d)| d.then_some(i)).collect()
    }

    /// Clears all dirty bits.
    pub fn clear_dirty(&mut self) {
        self.dirty.fill(false);
    }

    /// Stages authentic `content` for leaf `idx`, to be installed on first
    /// access, and fills its hash slot with `hash` so state roots computed
    /// before the leaf is touched already reflect the staged contents.
    /// `None`, with nothing changed, unless `idx` is a leaf and `content` is
    /// exactly one leaf long.
    ///
    /// The caller is responsible for `hash` being the SHA-256 of `content`
    /// (the audit layer stages only bytes it received under `hash`, derived
    /// from the image, or took from the provider's own store).  The dirty
    /// bit is not set: a staged leaf *is* the at-snapshot state, merely not
    /// transferred yet.
    pub fn stage_lazy(&mut self, idx: usize, content: Vec<u8>, hash: Digest) -> Option<()> {
        if content.len() != CHUNK_SIZE {
            return None;
        }
        self.stage(idx, Staged::Bytes(content), hash)
    }

    /// Stages leaf `idx` under `hash` with no contents yet: state roots
    /// report `hash` for it, and the first access that needs its bytes is a
    /// miss until [`LeafStore::supply`] (module docs, "# Misses").  `None`,
    /// with nothing changed, unless `idx` is a leaf.
    pub fn stage_byteless(&mut self, idx: usize, hash: Digest) -> Option<()> {
        self.stage(idx, Staged::Byteless, hash)
    }

    fn stage(&mut self, idx: usize, staged: Staged, hash: Digest) -> Option<()> {
        if idx >= self.leaf_count() {
            return None;
        }
        self.hashes.get_mut()[idx] = Some(hash);
        if self.staged.is_empty() {
            self.staged.resize_with(self.dirty.len(), || None);
        }
        if self.staged[idx].replace(staged).is_none() {
            self.staged_live += 1;
        }
        Some(())
    }

    /// Hands a byteless leaf its contents, which the caller has checked
    /// hash to what the leaf was staged under, and strikes it from
    /// [`LeafStore::missed`]; the leaf then faults in on its next touch like
    /// any staged leaf.  `None`, with nothing changed, unless leaf `idx` is
    /// byteless and `content` is exactly one leaf long.
    pub fn supply(&mut self, idx: usize, content: Vec<u8>) -> Option<()> {
        if content.len() != CHUNK_SIZE {
            return None;
        }
        let slot = self.staged.get_mut(idx)?;
        if !matches!(slot, Some(Staged::Byteless)) {
            return None;
        }
        *slot = Some(Staged::Bytes(content));
        self.missed.retain(|&leaf| leaf != idx);
        Some(())
    }

    /// Installs the contents staged at leaf `idx` now, as its first touch
    /// would but recording no fault: the way a staged machine that must be
    /// fully resident (a provider materializing its own snapshot) takes
    /// each leaf.  The hash slot keeps the hash the leaf was staged under
    /// and the dirty bit is left alone.  `None`, with nothing changed,
    /// unless leaf `idx` is staged with its contents.
    pub fn install_staged(&mut self, idx: usize) -> Option<()> {
        if !matches!(self.staged.get(idx), Some(Some(Staged::Bytes(_)))) {
            return None;
        }
        let Some(Staged::Bytes(content)) = self.take_staged(idx) else {
            unreachable!("the slot holds contents");
        };
        let (page, range) = self.locate(idx);
        self.pages[page].bytes_mut()[range].copy_from_slice(&content);
        Some(())
    }

    /// Byteless leaves whose contents the first refused access needed, in
    /// the order it touches them, until each is supplied.
    pub fn missed(&self) -> &[usize] {
        &self.missed
    }

    /// Leaves faulted in from staging so far, in first-touch order.
    pub fn faulted(&self) -> &[usize] {
        &self.faulted
    }

    /// Number of staged leaves not yet touched (their contents were never
    /// needed, hence never transferred).
    pub fn staged_count(&self) -> usize {
        self.staged_live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A leaf is [`CHUNK_SIZE`] bytes and never straddles a page: the first
    /// byte of a page is the first byte of a leaf.
    #[test]
    fn a_leaf_is_a_fraction_of_a_page() {
        let mut store = LeafStore::new(PAGE_SIZE as u64 + 1, "leaf");
        let leaves = 2 * CHUNKS_PER_PAGE;
        assert_eq!(
            (store.size(), store.leaf_count()),
            (2 * PAGE_SIZE as u64, leaves)
        );
        assert_eq!(store.leaf(leaves - 1).unwrap().len(), CHUNK_SIZE);
        assert!(store.leaf(leaves).is_none() && store.leaf_hash(leaves).is_none());
        assert_eq!(LeafStore::new(0, "leaf").leaf_count(), CHUNKS_PER_PAGE);
        store.write(PAGE_SIZE as u64 - 1, &[1, 2]).unwrap();
        assert_eq!(store.dirty_leaves(), [CHUNKS_PER_PAGE - 1, CHUNKS_PER_PAGE]);
    }

    /// A zero-length access is accepted anywhere and touches nothing; an
    /// out-of-range one is refused before it touches anything.
    #[test]
    fn empty_and_refused_accesses_touch_nothing() {
        let mut store = LeafStore::new(PAGE_SIZE as u64, "leaf");
        let marker = sha256(b"staged");
        store.stage_lazy(7, vec![1; 512], marker).unwrap();
        for addr in [0, 7 * 512, PAGE_SIZE as u64, u64::MAX] {
            assert_eq!(store.write(addr, &[]), Ok(()));
            assert_eq!(store.read(addr, &mut []), Ok(()));
        }
        assert_eq!(
            store.write(PAGE_SIZE as u64 - 1, &[1, 2]),
            Err(Refused::OutOfRange)
        );
        assert_eq!(store.read(u64::MAX, &mut [0]), Err(Refused::OutOfRange));
        assert!(store.dirty_leaves().is_empty() && store.faulted().is_empty());
        assert_eq!(
            (store.staged_count(), store.leaf_hash(7)),
            (1, Some(marker))
        );
    }

    fn owned_pages(store: &LeafStore) -> usize {
        let owned = |page: &&Page| matches!(page, Page::Owned(_));
        store.pages.iter().filter(owned).count()
    }

    /// A page is shared until a byte of it changes.  A fresh store and one
    /// built from shared pages own none, and reads and a zero-length write
    /// leave it so; a one-byte write owns exactly the page it lands on (the
    /// shared original, and whoever else holds it, keep their bytes), a
    /// second write there copies nothing more, and a fault-in install owns
    /// its page too.
    #[test]
    fn a_page_is_shared_until_a_byte_of_it_changes() {
        assert_eq!(owned_pages(&LeafStore::new(1 << 20, "leaf")), 0);
        let pages: Vec<SharedPage> = (0..4u8).map(|i| Arc::new([i; PAGE_SIZE])).collect();
        let hashes: Vec<Digest> = (0..32u8).map(|i| sha256(&[i / 8; 512])).collect();
        let mut store = LeafStore::from_shared(&pages, &hashes, "leaf");
        let mut buf = [0u8; 600];
        store.read(PAGE_SIZE as u64 - 8, &mut buf).unwrap();
        store.write(5, &[]).unwrap();
        assert_eq!(owned_pages(&store), 0);
        assert_eq!(store.leaf_hash(17), Some(hashes[17]));

        store.write(2 * PAGE_SIZE as u64 + 9, &[7]).unwrap();
        assert_eq!(owned_pages(&store), 1);
        assert!(matches!(store.pages[2], Page::Owned(_)));
        assert_eq!((Arc::strong_count(&pages[2]), pages[2][9]), (1, 2));
        store.write(2 * PAGE_SIZE as u64 + 10, &[8]).unwrap();
        assert_eq!(owned_pages(&store), 1);
        assert_eq!(store.leaf(16).unwrap()[8..12], [2, 7, 8, 2]);
        assert_eq!(store.leaf_hash(17), Some(hashes[17]));

        store
            .stage_lazy(25, vec![9; 512], sha256(&[9; 512]))
            .unwrap();
        assert_eq!(owned_pages(&store), 1);
        store.read(25 * 512, &mut buf[..1]).unwrap();
        assert_eq!((owned_pages(&store), buf[0]), (2, 9));
        assert_eq!(Arc::strong_count(&pages[3]), 1);
    }

    /// An install is judged by its bytes: on a resident leaf, the leaf's own
    /// bytes change nothing (the slot keeps its marker, the bit stays clear,
    /// the page stays shared) and a one-byte difference is a write; on a
    /// staged leaf the same bytes are installed, because the pages there are
    /// stale.
    #[test]
    fn an_install_that_changes_no_byte_touches_nothing() {
        let markers: Vec<Digest> = (0..8u8).map(|i| sha256(&[i])).collect();
        let page: SharedPage = Arc::new([0; PAGE_SIZE]);
        let mut store = LeafStore::from_shared(&[page], &markers, "leaf");
        let own = store.leaf(2).unwrap().to_vec();
        assert_eq!(store.set_leaf(2, &own), Some(()));
        assert!(store.hashes.borrow()[2].is_some());
        assert_eq!(store.leaf_hash(2), Some(markers[2]));
        assert!(store.dirty_leaves().is_empty());
        assert_eq!(owned_pages(&store), 0);

        let mut last_differs = own.clone();
        last_differs[511] ^= 1;
        store.set_leaf(2, &last_differs).unwrap();
        assert_eq!(store.dirty_leaves(), [2]);
        assert!(store.hashes.borrow()[2].is_none());
        assert_eq!(store.leaf(2), Some(&last_differs[..]));
        assert_eq!(owned_pages(&store), 1);

        store.stage_lazy(5, vec![9; 512], markers[0]).unwrap();
        let stale = store.leaf(5).unwrap().to_vec();
        store.set_leaf(5, &stale).unwrap();
        assert_eq!(store.staged_count(), 0);
        assert!(store.faulted().is_empty());
        assert_eq!(store.dirty_leaves(), [2, 5]);
        assert_eq!(store.leaf_hash(5), Some(sha256(&stale)));
    }

    /// A byteless leaf refuses the first access that needs its bytes and
    /// changes nothing on the way: not a byte, dirty bit, hash slot or fault,
    /// not even of a leaf with bytes the same access covers.  Only the first
    /// refused access is listed; a whole-leaf write never needed the bytes;
    /// once supplied, the access goes through as a first touch.
    #[test]
    fn a_byteless_leaf_is_a_miss_until_supplied() {
        let mut store = LeafStore::new(PAGE_SIZE as u64, "leaf");
        let (four, five) = ([4u8; 512], [5u8; 512]);
        store.stage_lazy(4, four.to_vec(), sha256(&four)).unwrap();
        store.stage_byteless(5, sha256(&five)).unwrap();
        store.stage_byteless(6, sha256(&[6u8; 512])).unwrap();
        let spanning = 5 * 512 - 2;
        let mut buf = [0u8; 4];
        assert_eq!(store.read(spanning, &mut buf), Err(Refused::Miss));
        assert_eq!(store.write(spanning, &[1; 4]), Err(Refused::Miss));
        assert_eq!(store.read(6 * 512, &mut buf), Err(Refused::Miss));
        assert_eq!(store.missed(), [5]);
        assert_eq!(store.probe_write(6 * 512 + 1, 4), Err(Refused::Miss));
        assert_eq!(store.probe_write(5 * 512, 512), Ok(()));
        assert_eq!(store.probe_write(PAGE_SIZE as u64, 1), Ok(()));
        assert_eq!(store.leaf(4), Some(&[0u8; 512][..]));
        assert_eq!(store.leaf_hash(5), Some(sha256(&five)));
        assert!(store.faulted().is_empty() && store.dirty_leaves().is_empty());
        assert_eq!(store.staged_count(), 3);

        assert!(store.supply(4, four.to_vec()).is_none(), "4 has its bytes");
        assert!(store.supply(5, vec![5; 3]).is_none());
        store.supply(5, five.to_vec()).unwrap();
        assert!(store.missed().is_empty());
        store.read(spanning, &mut buf).unwrap();
        assert_eq!(buf, [4, 4, 5, 5]);
        assert_eq!(store.faulted(), [4, 5]);
        assert!(store.dirty_leaves().is_empty());

        store.write(6 * 512, &[7; 512]).unwrap();
        assert_eq!(store.faulted(), [4, 5]);
        assert_eq!((store.staged_count(), store.dirty_leaves()), (0, vec![6]));
    }
}
