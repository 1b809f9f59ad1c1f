//! Differential test: the residency slot table of [`GuestMemory`] and
//! [`Disk`] against the `HashMap` staging it replaced.
//!
//! [`Model`] is the reference: flat contents, a `HashMap<usize, Vec<u8>>` of
//! staged units and the map-probing `fault_in_range` loop exactly as both
//! types ran it before the table (with the unit size a field instead of a
//! constant).  After every step of a random sequence everything observable
//! must agree: bytes read, every `VmError`, first-touch fault order, staged
//! count, dirty set, every unit's hash and its raw (possibly stale) contents.

use std::collections::HashMap;

use avm_crypto::sha256::{sha256, Digest};
use avm_vm::devices::{Disk, DISK_BLOCK_SIZE};
use avm_vm::{GuestMemory, VmError, CHUNKS_PER_PAGE, CHUNK_SIZE, PAGE_SIZE};
use proptest::prelude::*;

/// Which type a [`Model`] stands in for: the two differ in their error
/// values and in how a zero-length access is bounds-checked and marked.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Memory,
    Disk,
}

#[derive(Debug, Clone)]
struct Model {
    kind: Kind,
    /// `CHUNK_SIZE` or `DISK_BLOCK_SIZE`.
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
        // `Disk::write` marks the block under a zero-length write; memory
        // marks nothing.
        let marked = match self.kind {
            Kind::Memory => bytes.len(),
            Kind::Disk => bytes.len().max(1),
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
        self.data[idx * self.unit..(idx + 1) * self.unit].copy_from_slice(content);
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
        (0u8..10, any::<usize>(), any::<usize>(), any::<u8>()),
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

fn memory_agrees(mem: &GuestMemory, model: &mut Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(mem.faulted_chunks(), model.faulted.as_slice());
    prop_assert_eq!(mem.staged_chunk_count(), model.staged.len());
    prop_assert_eq!(mem.dirty_chunks(), model.dirty_units());
    for i in 0..mem.chunk_count() {
        prop_assert_eq!(mem.chunk_hash(i), Some(model.hash(i)), "chunk {}", i);
        let raw = &model.data[i * CHUNK_SIZE..(i + 1) * CHUNK_SIZE];
        prop_assert_eq!(mem.chunk(i), Some(raw), "chunk {}", i);
    }
    Ok(())
}

fn disk_agrees(disk: &Disk, model: &mut Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(disk.faulted_blocks(), model.faulted.as_slice());
    prop_assert_eq!(disk.staged_block_count(), model.staged.len());
    prop_assert_eq!(disk.dirty_blocks(), model.dirty_units());
    prop_assert_eq!((disk.reads, disk.writes), (model.reads, model.writes));
    for i in 0..disk.block_count() {
        prop_assert_eq!(disk.block_hash(i), Some(model.hash(i)), "block {}", i);
        let raw = &model.data[i * DISK_BLOCK_SIZE..(i + 1) * DISK_BLOCK_SIZE];
        prop_assert_eq!(disk.block(i), Some(raw), "block {}", i);
    }
    Ok(())
}

const MEM_PAGES: usize = 3;
const MEM_LENS: [usize; 7] = [0, 1, 8, 11, CHUNK_SIZE, CHUNK_SIZE + 1, PAGE_SIZE + 3];
const DISK_BLOCKS: usize = 4;
const DISK_LENS: [usize; 7] = [
    0,
    1,
    8,
    11,
    DISK_BLOCK_SIZE,
    DISK_BLOCK_SIZE + 1,
    2 * DISK_BLOCK_SIZE + 3,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn guest_memory_matches_the_map_model(steps in step_sequence()) {
        let mut mem = GuestMemory::new((MEM_PAGES * PAGE_SIZE) as u64);
        let mut model = Model::new(Kind::Memory, CHUNK_SIZE, MEM_PAGES * CHUNKS_PER_PAGE);
        // Clones taken mid-sequence, each with the model of that moment:
        // later steps on the original must not reach them.
        let mut forks: Vec<(GuestMemory, Model)> = Vec::new();
        for (op, a, b, fill) in steps {
            let addr = address(a, CHUNK_SIZE, model.units());
            let len = MEM_LENS[b % MEM_LENS.len()];
            match op {
                0 | 1 => {
                    let idx = stage_target(&model, a, b);
                    let (content, hash) = staged_unit(CHUNK_SIZE, a, fill);
                    prop_assert_eq!(
                        mem.stage_lazy_chunk(idx, content.clone(), hash),
                        model.stage(idx, content, hash)
                    );
                }
                2 => prop_assert_eq!(mem.read_vec(addr, len), model.read(addr, len)),
                3 => {
                    let bytes = vec![fill; len];
                    prop_assert_eq!(mem.write(addr, &bytes), model.write(addr, &bytes));
                }
                4 if b & 1 == 0 => {
                    let expected = model.read(addr, 1).map(|v| v[0]);
                    prop_assert_eq!(mem.read_u8(addr), expected);
                }
                4 => {
                    let expected = model
                        .read(addr, 8)
                        .map(|v| u64::from_le_bytes(v.try_into().expect("8 bytes")));
                    prop_assert_eq!(mem.read_u64(addr), expected);
                }
                5 if b & 1 == 0 => {
                    prop_assert_eq!(mem.write_u8(addr, fill), model.write(addr, &[fill]));
                }
                5 => {
                    let v = (a as u64) << 8 | fill as u64;
                    prop_assert_eq!(mem.write_u64(addr, v), model.write(addr, &v.to_le_bytes()));
                }
                6 => {
                    let idx = a % (model.units() + 1);
                    let content = vec![fill; if b % 9 == 8 { CHUNK_SIZE + 1 } else { CHUNK_SIZE }];
                    prop_assert_eq!(
                        mem.set_chunk_from_slice(idx, &content),
                        model.set_unit(idx, &content)
                    );
                }
                7 => {
                    let page = a % (MEM_PAGES + 1);
                    let content = vec![fill; if b % 9 == 8 { PAGE_SIZE - 1 } else { PAGE_SIZE }];
                    prop_assert_eq!(
                        mem.set_page_from_slice(page, &content),
                        model.set_page(page, &content)
                    );
                }
                8 => {
                    mem.clear_dirty();
                    model.dirty.fill(false);
                }
                _ => {
                    let clone = mem.clone();
                    forks.push((std::mem::replace(&mut mem, clone), model.clone()));
                }
            }
            memory_agrees(&mem, &mut model)?;
        }
        for (fork, mut fork_model) in forks {
            memory_agrees(&fork, &mut fork_model)?;
        }
    }

    #[test]
    fn disk_matches_the_map_model(steps in step_sequence()) {
        let mut disk = Disk::new((DISK_BLOCKS * DISK_BLOCK_SIZE) as u64);
        let mut model = Model::new(Kind::Disk, DISK_BLOCK_SIZE, DISK_BLOCKS);
        let mut forks: Vec<(Disk, Model)> = Vec::new();
        for (op, a, b, fill) in steps {
            let addr = address(a, DISK_BLOCK_SIZE, model.units());
            let len = DISK_LENS[b % DISK_LENS.len()];
            match op {
                0 | 1 => {
                    let idx = stage_target(&model, a, b);
                    let (content, hash) = staged_unit(DISK_BLOCK_SIZE, a, fill);
                    prop_assert_eq!(
                        disk.stage_lazy_block(idx, content.clone(), hash),
                        model.stage(idx, content, hash)
                    );
                }
                2..=4 => {
                    let mut buf = vec![0u8; len];
                    let got = disk.read(addr, &mut buf).map(|()| buf);
                    prop_assert_eq!(got, model.read(addr, len));
                }
                5 | 6 => {
                    let bytes = vec![fill; len];
                    prop_assert_eq!(disk.write(addr, &bytes), model.write(addr, &bytes));
                }
                7 => {
                    let idx = a % (model.units() + 1);
                    let content =
                        vec![fill; if b % 9 == 8 { DISK_BLOCK_SIZE - 1 } else { DISK_BLOCK_SIZE }];
                    prop_assert_eq!(disk.set_block(idx, &content), model.set_unit(idx, &content));
                }
                8 => {
                    disk.clear_dirty();
                    model.dirty.fill(false);
                }
                _ => {
                    let clone = disk.clone();
                    forks.push((std::mem::replace(&mut disk, clone), model.clone()));
                }
            }
            disk_agrees(&disk, &mut model)?;
        }
        for (fork, mut fork_model) in forks {
            disk_agrees(&fork, &mut fork_model)?;
        }
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

    let mut disk = Disk::new(2 * DISK_BLOCK_SIZE as u64);
    let block = vec![3u8; DISK_BLOCK_SIZE];
    disk.stage_lazy_block(1, block.clone(), sha256(&block))
        .unwrap();
    let mut byte = [0u8; 1];
    disk.read(2 * DISK_BLOCK_SIZE as u64 - 1, &mut byte)
        .unwrap();
    assert_eq!((byte[0], disk.faulted_blocks()), (3, &[1usize][..]));
    assert_eq!(disk.staged_block_count(), 0);
}
