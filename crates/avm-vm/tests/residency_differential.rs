//! Differential test: [`GuestMemory`] and [`Disk`] — two facades over the
//! one [`LeafStore`] — against a flat, map-staged reference.
//!
//! [`Model`] is the reference: flat contents, a `HashMap<usize, Vec<u8>>` of
//! staged units and the map-probing `fault_in_range` loop exactly as both
//! types ran it before the slot table (with the unit size a field instead of
//! a constant).  One driver ([`facade_matches_the_map_model`]) runs a random
//! step sequence against either facade; after every step everything
//! observable must agree: bytes read, every `VmError`, first-touch fault
//! order, staged count, dirty set, every unit's hash and its raw (possibly
//! stale) contents.  Installing a staged unit without a touch
//! (`LeafStore::install_staged`) is one of the steps.

use std::collections::HashMap;

use avm_crypto::sha256::{sha256, Digest};
use avm_vm::devices::Disk;
use avm_vm::{GuestMemory, LeafStore, VmError, CHUNKS_PER_PAGE, CHUNK_SIZE, PAGE_SIZE};
use proptest::prelude::*;

/// Which type a [`Model`] stands in for: the two differ in their error
/// values and in how a zero-length access is bounds-checked.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Memory,
    Disk,
}

#[derive(Debug, Clone)]
struct Model {
    kind: Kind,
    /// `CHUNK_SIZE`: both facades' leaf.
    unit: usize,
    data: Vec<u8>,
    dirty: Vec<bool>,
    /// The hash cache: seeded by staging, emptied by writes, filled on read.
    hashes: Vec<Option<Digest>>,
    staged: HashMap<usize, Vec<u8>>,
    faulted: Vec<usize>,
    /// Successful reads and writes (`Disk::reads` / `Disk::writes`).
    reads: u64,
    writes: u64,
}

impl Model {
    fn new(kind: Kind, unit: usize, units: usize) -> Model {
        Model {
            kind,
            unit,
            data: vec![0; unit * units],
            dirty: vec![false; units],
            hashes: vec![None; units],
            staged: HashMap::new(),
            faulted: Vec::new(),
            reads: 0,
            writes: 0,
        }
    }

    fn units(&self) -> usize {
        self.dirty.len()
    }

    fn check(&self, addr: u64, len: usize) -> Result<(), VmError> {
        let size = self.data.len() as u64;
        let err = match self.kind {
            Kind::Memory if len == 0 => return Ok(()),
            Kind::Memory => VmError::MemoryOutOfRange {
                addr,
                len,
                mem_size: size,
            },
            Kind::Disk => VmError::DiskOutOfRange {
                sector: addr / self.unit as u64,
                sectors: self.units() as u64,
            },
        };
        match addr.checked_add(len as u64) {
            Some(end) if end <= size => Ok(()),
            _ => Err(err),
        }
    }

    /// The parent's loop: one map probe per touched unit.
    fn fault_in_range(&mut self, addr: u64, len: usize, overwrite: bool) {
        if self.staged.is_empty() || len == 0 {
            return;
        }
        let start = addr as usize;
        let Some(end) = start.checked_add(len - 1) else {
            return;
        };
        let first = start / self.unit;
        let last = (end / self.unit).min(self.units().saturating_sub(1));
        for c in first..=last {
            let fully_covered = start <= c * self.unit && (c + 1) * self.unit <= end + 1;
            if overwrite && fully_covered {
                self.staged.remove(&c);
                continue;
            }
            if let Some(content) = self.staged.remove(&c) {
                self.data[c * self.unit..(c + 1) * self.unit].copy_from_slice(&content);
                self.faulted.push(c);
            }
        }
    }

    fn read(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, VmError> {
        self.check(addr, len)?;
        self.fault_in_range(addr, len, false);
        self.reads += 1;
        if len == 0 {
            return Ok(Vec::new());
        }
        Ok(self.data[addr as usize..addr as usize + len].to_vec())
    }

    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), VmError> {
        self.check(addr, bytes.len())?;
        self.fault_in_range(addr, bytes.len(), true);
        self.writes += 1;
        // A zero-length write marks nothing, on either type.
        let marked = match self.kind {
            Kind::Memory => bytes.len(),
            Kind::Disk => bytes.len(),
        };
        if marked == 0 {
            return Ok(());
        }
        let start = addr as usize;
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
        let last = ((start + marked - 1) / self.unit).min(self.units() - 1);
        for c in start / self.unit..=last {
            self.dirty[c] = true;
            self.hashes[c] = None;
        }
        Ok(())
    }

    /// `set_chunk_from_slice` / `set_block`: a wholesale overwrite drops
    /// staging without a fault.
    fn set_unit(&mut self, idx: usize, content: &[u8]) -> Result<(), VmError> {
        let (bad_len, bad_idx) = match self.kind {
            Kind::Memory => (
                "snapshot chunk has wrong size",
                "snapshot chunk index out of range",
            ),
            Kind::Disk => (
                "disk block restore out of range",
                "disk block restore out of range",
            ),
        };
        if content.len() != self.unit {
            return Err(VmError::CorruptState(bad_len));
        }
        if idx >= self.units() {
            return Err(VmError::CorruptState(bad_idx));
        }
        // A resident leaf set to its own bytes: nothing changes.
        let current = &mut self.data[idx * self.unit..(idx + 1) * self.unit];
        if !self.staged.contains_key(&idx) && *current == *content {
            return Ok(());
        }
        current.copy_from_slice(content);
        self.staged.remove(&idx);
        self.dirty[idx] = true;
        self.hashes[idx] = None;
        Ok(())
    }

    fn set_page(&mut self, page: usize, content: &[u8]) -> Result<(), VmError> {
        if content.len() != PAGE_SIZE {
            return Err(VmError::CorruptState("snapshot page has wrong size"));
        }
        if page >= self.units() / CHUNKS_PER_PAGE {
            return Err(VmError::CorruptState("snapshot page index out of range"));
        }
        for c in 0..CHUNKS_PER_PAGE {
            self.set_unit(
                page * CHUNKS_PER_PAGE + c,
                &content[c * CHUNK_SIZE..(c + 1) * CHUNK_SIZE],
            )?;
        }
        Ok(())
    }

    fn stage(&mut self, idx: usize, content: Vec<u8>, hash: Digest) -> Result<(), VmError> {
        let (bad_len, bad_idx) = match self.kind {
            Kind::Memory => (
                "staged chunk has wrong size",
                "staged chunk index out of range",
            ),
            Kind::Disk => (
                "staged disk block has wrong size",
                "staged disk block index out of range",
            ),
        };
        if content.len() != self.unit {
            return Err(VmError::CorruptState(bad_len));
        }
        if idx >= self.units() {
            return Err(VmError::CorruptState(bad_idx));
        }
        self.hashes[idx] = Some(hash);
        self.staged.insert(idx, content);
        Ok(())
    }

    /// `install_staged`: a staged unit's contents go in now, with no fault,
    /// no dirty bit and the hash it was staged under kept.
    fn install_staged(&mut self, idx: usize) -> Option<()> {
        let content = self.staged.remove(&idx)?;
        self.data[idx * self.unit..(idx + 1) * self.unit].copy_from_slice(&content);
        Some(())
    }

    fn hash(&mut self, idx: usize) -> Digest {
        let unit = &self.data[idx * self.unit..(idx + 1) * self.unit];
        *self.hashes[idx].get_or_insert_with(|| sha256(unit))
    }

    fn dirty_units(&self) -> Vec<usize> {
        (0..self.units()).filter(|&i| self.dirty[i]).collect()
    }
}

/// One generated step: an operation selector and three operands every
/// operation interprets its own way.
type Step = (u8, usize, usize, u8);

fn step_sequence() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u8..13, any::<usize>(), any::<usize>(), any::<u8>()),
        1..48,
    )
}

/// An address within reach of a unit boundary: boundaries `0..=units`
/// include every page end and the end of the device, `delta` straddles them,
/// and an underflow below zero wraps to an address whose end overflows.
fn address(a: usize, unit: usize, units: usize) -> u64 {
    let boundary = (a % (units + 1) * unit) as u64;
    let delta = (a / 64 % 16) as u64;
    boundary.wrapping_add(delta).wrapping_sub(12)
}

/// The unit a staging step targets: any index, one that is staged right now,
/// one that already faulted, or the last valid / first invalid one.
fn stage_target(model: &Model, a: usize, b: usize) -> usize {
    let pick = |from: &[usize]| from.get(a % from.len().max(1)).copied();
    let mut staged: Vec<usize> = model.staged.keys().copied().collect();
    staged.sort_unstable();
    let any = a % model.units();
    match b % 4 {
        0 => any,
        1 => pick(&staged).unwrap_or(any),
        2 => pick(&model.faulted).unwrap_or(any),
        _ => model.units() - 1 + a % 2,
    }
}

/// Staged contents and the hash they are staged under.  The hash is a marker
/// rather than `sha256(content)`, so a slot that was wrongly kept or wrongly
/// emptied shows up in the per-unit hash comparison.
fn staged_unit(unit: usize, a: usize, fill: u8) -> (Vec<u8>, Digest) {
    let len = if a % 13 == 12 { unit - 1 } else { unit };
    (vec![fill | 1; len], sha256(&[fill, a as u8]))
}

/// What the driver needs of a facade: its geometry, its names for the
/// store's operations, and whatever only it has.
trait Facade: Clone {
    const KIND: Kind;
    const UNIT: usize;
    const UNITS: usize;

    fn new() -> Self;
    fn store(&self) -> &LeafStore;
    fn store_mut(&mut self) -> &mut LeafStore;
    fn stage(&mut self, idx: usize, content: Vec<u8>, hash: Digest) -> Result<(), VmError>;
    fn read(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, VmError>;
    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), VmError>;
    fn set_unit(&mut self, idx: usize, content: &[u8]) -> Result<(), VmError>;
    fn clear_dirty(&mut self);

    /// A 1- or 8-byte read and write; memory has scalar helpers for them.
    fn read_scalar(&mut self, addr: u64, wide: bool) -> Result<Vec<u8>, VmError> {
        self.read(addr, if wide { 8 } else { 1 })
    }
    fn write_scalar(&mut self, addr: u64, bytes: &[u8]) -> Result<(), VmError> {
        self.write(addr, bytes)
    }

    /// Restores page `page` on the facade and the model: eight chunks at
    /// once for memory; for the disk, which has no page restore, its blocks
    /// one by one up to the first refused.
    fn set_page(
        &mut self,
        model: &mut Model,
        page: usize,
        content: &[u8],
    ) -> [Result<(), VmError>; 2] {
        let first = page * (PAGE_SIZE / Self::UNIT);
        let leaves = || {
            let leaves = content.chunks(Self::UNIT).enumerate();
            leaves.map(move |(c, leaf)| (first + c, leaf))
        };
        [
            leaves().try_for_each(|(idx, leaf)| self.set_unit(idx, leaf)),
            leaves().try_for_each(|(idx, leaf)| model.set_unit(idx, leaf)),
        ]
    }

    /// Observables only this facade has.
    fn counters_agree(&self, _model: &Model) -> Result<(), TestCaseError> {
        Ok(())
    }
}

impl Facade for GuestMemory {
    const KIND: Kind = Kind::Memory;
    const UNIT: usize = CHUNK_SIZE;
    const UNITS: usize = 3 * CHUNKS_PER_PAGE;

    fn new() -> Self {
        GuestMemory::new((Self::UNITS * CHUNK_SIZE) as u64)
    }
    fn store(&self) -> &LeafStore {
        self.leaves()
    }
    fn store_mut(&mut self) -> &mut LeafStore {
        self.leaves_mut()
    }
    fn stage(&mut self, idx: usize, content: Vec<u8>, hash: Digest) -> Result<(), VmError> {
        self.stage_lazy_chunk(idx, content, hash)
    }
    fn read(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, VmError> {
        self.read_vec(addr, len)
    }
    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), VmError> {
        GuestMemory::write(self, addr, bytes)
    }
    fn set_unit(&mut self, idx: usize, content: &[u8]) -> Result<(), VmError> {
        self.set_chunk_from_slice(idx, content)
    }
    fn clear_dirty(&mut self) {
        GuestMemory::clear_dirty(self);
    }
    fn read_scalar(&mut self, addr: u64, wide: bool) -> Result<Vec<u8>, VmError> {
        if wide {
            self.read_u64(addr).map(|v| v.to_le_bytes().to_vec())
        } else {
            self.read_u8(addr).map(|v| vec![v])
        }
    }
    fn write_scalar(&mut self, addr: u64, bytes: &[u8]) -> Result<(), VmError> {
        match bytes.try_into() {
            Ok(wide) => self.write_u64(addr, u64::from_le_bytes(wide)),
            Err(_) => self.write_u8(addr, bytes[0]),
        }
    }
    fn set_page(
        &mut self,
        model: &mut Model,
        page: usize,
        content: &[u8],
    ) -> [Result<(), VmError>; 2] {
        [
            self.set_page_from_slice(page, content),
            model.set_page(page, content),
        ]
    }
}

impl Facade for Disk {
    const KIND: Kind = Kind::Disk;
    const UNIT: usize = CHUNK_SIZE;
    const UNITS: usize = 4 * CHUNKS_PER_PAGE;

    fn new() -> Self {
        Disk::new((Self::UNITS * CHUNK_SIZE) as u64)
    }
    fn store(&self) -> &LeafStore {
        self.leaves()
    }
    fn store_mut(&mut self) -> &mut LeafStore {
        self.leaves_mut()
    }
    fn stage(&mut self, idx: usize, content: Vec<u8>, hash: Digest) -> Result<(), VmError> {
        self.stage_lazy_block(idx, content, hash)
    }
    fn read(&mut self, addr: u64, len: usize) -> Result<Vec<u8>, VmError> {
        let mut buf = vec![0u8; len];
        Disk::read(self, addr, &mut buf).map(|()| buf)
    }
    fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), VmError> {
        Disk::write(self, addr, bytes)
    }
    fn set_unit(&mut self, idx: usize, content: &[u8]) -> Result<(), VmError> {
        self.set_block(idx, content)
    }
    fn clear_dirty(&mut self) {
        Disk::clear_dirty(self);
    }
    fn counters_agree(&self, model: &Model) -> Result<(), TestCaseError> {
        prop_assert_eq!((self.reads, self.writes), (model.reads, model.writes));
        Ok(())
    }
}

/// Every observable of the store behind `facade` against `model`.
fn agrees<F: Facade>(facade: &F, model: &mut Model) -> Result<(), TestCaseError> {
    let store = facade.store();
    prop_assert_eq!(store.faulted(), model.faulted.as_slice());
    prop_assert_eq!(store.staged_count(), model.staged.len());
    prop_assert_eq!(store.dirty_leaves(), model.dirty_units());
    facade.counters_agree(model)?;
    for i in 0..store.leaf_count() {
        prop_assert_eq!(store.leaf_hash(i), Some(model.hash(i)), "unit {}", i);
        let raw = &model.data[i * F::UNIT..(i + 1) * F::UNIT];
        prop_assert_eq!(store.leaf(i), Some(raw), "unit {}", i);
    }
    Ok(())
}

/// The one driver: a random step sequence on a facade and on its model.
fn facade_matches_the_map_model<F: Facade>(steps: Vec<Step>) -> Result<(), TestCaseError> {
    let lens = [
        0,
        1,
        8,
        11,
        F::UNIT,
        F::UNIT + 1,
        PAGE_SIZE.max(2 * F::UNIT) + 3,
    ];
    let mut facade = F::new();
    let mut model = Model::new(F::KIND, F::UNIT, F::UNITS);
    // Clones taken mid-sequence, each with the model of that moment: later
    // steps on the original must not reach them.
    let mut forks: Vec<(F, Model)> = Vec::new();
    for (op, a, b, fill) in steps {
        let addr = address(a, F::UNIT, F::UNITS);
        let bytes = vec![fill; lens[b % lens.len()]];
        match op {
            0 | 1 => {
                let idx = stage_target(&model, a, b);
                let (content, hash) = staged_unit(F::UNIT, a, fill);
                prop_assert_eq!(
                    facade.stage(idx, content.clone(), hash),
                    model.stage(idx, content, hash)
                );
            }
            2 => prop_assert_eq!(
                facade.read(addr, bytes.len()),
                model.read(addr, bytes.len())
            ),
            3 => prop_assert_eq!(facade.write(addr, &bytes), model.write(addr, &bytes)),
            4 => {
                let wide = b & 1 == 1;
                let expected = model.read(addr, if wide { 8 } else { 1 });
                prop_assert_eq!(facade.read_scalar(addr, wide), expected);
            }
            5 => {
                let value = ((a as u64) << 8 | fill as u64).to_le_bytes();
                let scalar = &value[..if b & 1 == 1 { 8 } else { 1 }];
                prop_assert_eq!(facade.write_scalar(addr, scalar), model.write(addr, scalar));
            }
            6 => {
                let idx = a % (F::UNITS + 1);
                let content = vec![fill; if b % 9 == 8 { F::UNIT + 1 } else { F::UNIT }];
                prop_assert_eq!(
                    facade.set_unit(idx, &content),
                    model.set_unit(idx, &content)
                );
            }
            7 => {
                let page = a % (F::UNITS * F::UNIT / PAGE_SIZE + 1);
                let content = vec![fill; if b % 9 == 8 { PAGE_SIZE - 1 } else { PAGE_SIZE }];
                let [got, expected] = facade.set_page(&mut model, page, &content);
                prop_assert_eq!(got, expected);
            }
            8 => {
                facade.clear_dirty();
                model.dirty.fill(false);
            }
            9 => {
                // Prime, then write: a bulk-filled slot is a slot like any
                // other — a staged marker survives priming, and the write
                // empties exactly what it covers.
                let first = a % F::UNITS;
                let primed = [first, first + 1, F::UNITS + a % 3];
                facade.store().prime_hashes(&primed);
                for i in primed.into_iter().filter(|&i| i < F::UNITS) {
                    model.hash(i);
                }
                prop_assert_eq!(facade.write(addr, &bytes), model.write(addr, &bytes));
            }
            10 => {
                // A unit set to the bytes it holds: nothing on a resident
                // unit, an install on a staged one (its bytes are stale).
                let idx = stage_target(&model, a, b) % F::UNITS;
                let own = model.data[idx * F::UNIT..(idx + 1) * F::UNIT].to_vec();
                prop_assert_eq!(facade.set_unit(idx, &own), model.set_unit(idx, &own));
            }
            11 => {
                // Any target: a staged unit installs; a resident, faulted or
                // out-of-range one is refused with nothing changed.
                let idx = stage_target(&model, a, b);
                prop_assert_eq!(
                    facade.store_mut().install_staged(idx),
                    model.install_staged(idx)
                );
            }
            _ => {
                let clone = facade.clone();
                forks.push((std::mem::replace(&mut facade, clone), model.clone()));
            }
        }
        agrees(&facade, &mut model)?;
    }
    for (fork, mut fork_model) in forks {
        agrees(&fork, &mut fork_model)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn guest_memory_matches_the_map_model(steps in step_sequence()) {
        facade_matches_the_map_model::<GuestMemory>(steps)?;
    }

    #[test]
    fn disk_matches_the_map_model(steps in step_sequence()) {
        facade_matches_the_map_model::<Disk>(steps)?;
    }
}

fn staged_chunk(fill: u8) -> (Vec<u8>, Digest) {
    let content = vec![fill; CHUNK_SIZE];
    let hash = sha256(&content);
    (content, hash)
}

/// The last slot of the table is a slot like any other; one past it is the
/// caller's error, not an index panic.
#[test]
fn last_chunk_stages_and_faults() {
    let mut mem = GuestMemory::new(2 * PAGE_SIZE as u64);
    let last = mem.chunk_count() - 1;
    let (content, hash) = staged_chunk(7);
    assert_eq!(
        mem.stage_lazy_chunk(last + 1, content.clone(), hash),
        Err(VmError::CorruptState("staged chunk index out of range"))
    );
    mem.stage_lazy_chunk(last, content, hash).unwrap();
    assert_eq!(mem.staged_chunk_count(), 1);
    // The very last byte of memory faults it in; a read ending one past the
    // end is refused before it faults anything.
    assert!(mem.read_u64(mem.size() - 7).is_err());
    assert!(mem.faulted_chunks().is_empty());
    assert_eq!(mem.read_u8(mem.size() - 1).unwrap(), 7);
    assert_eq!(mem.faulted_chunks(), &[last]);
    assert_eq!(mem.staged_chunk_count(), 0);
}

/// A write covering two staged chunks whole and half of a third needs the
/// authentic bytes of the third only.
#[test]
fn write_over_two_and_a_half_staged_chunks_faults_the_half() {
    let mut mem = GuestMemory::new(PAGE_SIZE as u64);
    for c in [1usize, 2, 3] {
        let (content, hash) = staged_chunk(c as u8);
        mem.stage_lazy_chunk(c, content, hash).unwrap();
    }
    mem.write(
        CHUNK_SIZE as u64,
        &vec![0xEE; 2 * CHUNK_SIZE + CHUNK_SIZE / 2],
    )
    .unwrap();
    assert_eq!(mem.faulted_chunks(), &[3]);
    assert_eq!(mem.staged_chunk_count(), 0);
    assert_eq!(mem.dirty_chunks(), vec![1, 2, 3]);
    let half = 3 * CHUNK_SIZE + CHUNK_SIZE / 2;
    assert_eq!(mem.read_u8(half as u64 - 1).unwrap(), 0xEE);
    assert_eq!(mem.read_u8(half as u64).unwrap(), 3);
}

/// Once every staged unit has faulted the machine is fully resident again:
/// nothing is staged, and further accesses fault nothing.
#[test]
fn staging_then_faulting_everything_leaves_nothing_staged() {
    let mut mem = GuestMemory::new(2 * PAGE_SIZE as u64);
    let staged = [0usize, 5, 9, 15];
    for &c in &staged {
        let (content, hash) = staged_chunk(c as u8 + 1);
        mem.stage_lazy_chunk(c, content, hash).unwrap();
    }
    assert_eq!(mem.staged_chunk_count(), staged.len());
    for &c in staged.iter().rev() {
        assert_eq!(mem.read_u8((c * CHUNK_SIZE) as u64).unwrap(), c as u8 + 1);
    }
    assert_eq!(mem.staged_chunk_count(), 0);
    assert_eq!(mem.faulted_chunks(), &[15, 9, 5, 0]);
    let whole = mem.read_vec(0, mem.size() as usize).unwrap();
    assert_eq!(whole.iter().filter(|&&b| b != 0).count(), 4 * CHUNK_SIZE);
    assert_eq!(mem.faulted_chunks(), &[15, 9, 5, 0]);

    let mut disk = Disk::new(2 * PAGE_SIZE as u64);
    let block = vec![3u8; CHUNK_SIZE];
    disk.stage_lazy_block(1, block.clone(), sha256(&block))
        .unwrap();
    let mut byte = [0u8; 1];
    disk.read(2 * CHUNK_SIZE as u64 - 1, &mut byte).unwrap();
    assert_eq!((byte[0], disk.faulted_blocks()), (3, &[1usize][..]));
    assert_eq!(disk.staged_block_count(), 0);
}
