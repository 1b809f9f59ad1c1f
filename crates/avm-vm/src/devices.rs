//! Virtual devices: clock, NIC, block disk, local input and console.
//!
//! The devices are the only channel through which nondeterminism can enter a
//! guest.  The AVMM hooks exactly these points:
//!
//! * **Clock** reads are host-provided values; each read is a
//!   nondeterministic input (the paper's `TimeTracker` entries).
//! * **NIC** receive queues are filled by injection (each injected packet is
//!   logged with its step stamp); transmissions are externally visible
//!   output.
//! * **Local input** events (keyboard/mouse) are injected and logged.
//! * The **disk** is deterministic: its initial content comes from the VM
//!   image and all subsequent changes are made by the (deterministic) guest,
//!   so reads need not be logged (paper §4.4).
//! * The **console** is an output-only diagnostic channel.

use std::collections::VecDeque;

use avm_crypto::sha256::Digest;
use avm_wire::{Decode, Encode, Reader, WireError, WireResult, Writer};

use crate::error::{VmError, VmResult};
use crate::store::{LeafStore, Refused, SharedPage, CHUNK_SIZE, PAGE_SIZE};

/// A local input event (keyboard, mouse, controller).
///
/// The encoding is deliberately generic: `device` selects the input device,
/// `code` is a key/axis code and `value` the state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputEvent {
    /// Input device identifier (0 = keyboard, 1 = mouse, ...).
    pub device: u8,
    /// Key or axis code.
    pub code: u32,
    /// New value (1 = press, 0 = release, or an axis delta).
    pub value: i64,
}

impl Encode for InputEvent {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.device);
        w.put_u32(self.code);
        w.put_i64(self.value);
    }
}

impl Decode for InputEvent {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(InputEvent {
            device: r.get_u8()?,
            code: r.get_u32()?,
            value: r.get_i64()?,
        })
    }
}

/// The virtual clock port.
///
/// Guests request the time; the hypervisor supplies it.  Each read is a
/// nondeterministic input that the AVMM records.
#[derive(Debug, Clone, Default)]
pub struct ClockPort {
    /// Set when the guest has requested a value and none has been provided.
    pub pending_request: bool,
    /// Host-provided value awaiting consumption by the guest.
    pub response: Option<u64>,
    /// Number of clock reads completed by the guest.
    pub reads_served: u64,
}

impl ClockPort {
    /// Guest-side read attempt.  Returns the value if one is available,
    /// otherwise records a pending request (the machine will exit to the
    /// hypervisor).
    pub fn guest_read(&mut self) -> Option<u64> {
        if let Some(v) = self.response.take() {
            self.pending_request = false;
            self.reads_served += 1;
            Some(v)
        } else {
            self.pending_request = true;
            None
        }
    }

    /// Hypervisor-side delivery of a clock value.
    pub fn provide(&mut self, value: u64) -> VmResult<()> {
        if !self.pending_request {
            return Err(VmError::UnexpectedHostResponse);
        }
        self.response = Some(value);
        Ok(())
    }
}

/// Virtual network interface.
#[derive(Debug, Clone, Default)]
pub struct Nic {
    /// Packets injected by the hypervisor, not yet read by the guest.
    pub rx_queue: VecDeque<Vec<u8>>,
    /// Total packets received (injected).
    pub rx_packets: u64,
    /// Total packets transmitted by the guest.
    pub tx_packets: u64,
    /// Total payload bytes received.
    pub rx_bytes: u64,
    /// Total payload bytes transmitted.
    pub tx_bytes: u64,
}

impl Nic {
    /// Hypervisor-side packet injection.
    pub fn inject(&mut self, data: Vec<u8>) {
        self.rx_packets += 1;
        self.rx_bytes += data.len() as u64;
        self.rx_queue.push_back(data);
    }

    /// Guest-side receive poll.
    pub fn guest_recv(&mut self) -> Option<Vec<u8>> {
        self.rx_queue.pop_front()
    }

    /// Guest-side transmit accounting (the payload itself is surfaced as a
    /// [`crate::exit::VmExit::NetTx`]).
    pub fn note_tx(&mut self, len: usize) {
        self.tx_packets += 1;
        self.tx_bytes += len as u64;
    }
}

/// Local input device queue.
#[derive(Debug, Clone, Default)]
pub struct InputQueue {
    /// Events injected by the hypervisor, not yet read by the guest.
    pub queue: VecDeque<InputEvent>,
    /// Total events injected.
    pub injected: u64,
}

impl InputQueue {
    /// Hypervisor-side injection.
    pub fn inject(&mut self, ev: InputEvent) {
        self.injected += 1;
        self.queue.push_back(ev);
    }

    /// Guest-side poll.
    pub fn guest_poll(&mut self) -> Option<InputEvent> {
        self.queue.pop_front()
    }
}

/// Virtual disk: a [`LeafStore`] in [`CHUNK_SIZE`] leaves ("blocks") plus
/// the guest's access counters.
///
/// Initial contents come from the VM image; because the guest is
/// deterministic, the disk never needs to be logged — only snapshotted.
/// How it is hashed, dirty-tracked and faulted in on demand is the store's
/// ([`Disk::leaves`] is the one way to read those), and so is the leaf: the
/// disk's is memory's.  A physical block device writes whole sectors, which
/// would make leaves smaller than a sector pointless; this disk is
/// byte-addressed — a guest's `diskwr` writes exactly the bytes it names,
/// and a database appends records of a few dozen bytes — so a page-sized
/// leaf would hash, store and ship 4 KiB to carry each such write.  What is
/// the disk's own: the `reads`/`writes` statistics, which are part of the
/// volatile device state, and [`VmError::DiskOutOfRange`], counted in
/// leaves, which even a zero-length access earns when it points past the
/// end.
#[derive(Debug, Clone)]
pub struct Disk {
    store: LeafStore,
    /// Sectors read by the guest (statistics only).
    pub reads: u64,
    /// Sectors written by the guest (statistics only).
    pub writes: u64,
}

impl Disk {
    /// Creates a disk of `size` bytes (rounded up to whole pages), zero-filled.
    pub fn new(size: u64) -> Disk {
        Disk {
            store: LeafStore::new(size, "disk block"),
            reads: 0,
            writes: 0,
        }
    }

    /// Creates a disk initialized with `content` (padded to whole pages).
    pub fn from_content(content: &[u8]) -> Disk {
        let mut disk = Disk::new(content.len().max(1) as u64);
        // A new disk is the shared zero page repeated; only a page that holds
        // something is written, so the rest stay shared.
        for (i, page) in content.chunks(PAGE_SIZE).enumerate() {
            if page.iter().any(|&b| b != 0) {
                let offset = (i * PAGE_SIZE) as u64;
                disk.store.write(offset, page).expect("sized to fit");
            }
        }
        disk.store.clear_dirty();
        disk
    }

    /// A disk that shares `pages` until it writes them, with every block's
    /// hash known ([`LeafStore::from_shared`]).
    pub(crate) fn from_shared(pages: &[SharedPage], hashes: &[Digest]) -> Disk {
        Disk {
            store: LeafStore::from_shared(pages, hashes, "disk block"),
            reads: 0,
            writes: 0,
        }
    }

    /// The store behind this disk: its blocks are the disk leaves of the
    /// Merkle state tree.
    pub fn leaves(&self) -> &LeafStore {
        &self.store
    }

    /// Mutable access to the store (snapshot restore and staging).
    pub fn leaves_mut(&mut self) -> &mut LeafStore {
        &mut self.store
    }

    /// Disk size in bytes.
    pub fn size(&self) -> u64 {
        self.store.size()
    }

    /// Number of blocks: the disk's leaves of the Merkle state tree.
    pub fn block_count(&self) -> usize {
        self.store.leaf_count()
    }

    /// The disk's verdict on an access the store answered with `accepted`.
    /// The store refuses what does not fit or misses and lets a zero-length
    /// access through untouched; the disk still wants such an access to
    /// point at it.  Both numbers of [`VmError::DiskOutOfRange`] count
    /// blocks, so `sector < sectors` exactly when the access starts on the
    /// disk.
    fn verdict(&self, offset: u64, accepted: Result<(), Refused>) -> VmResult<()> {
        match accepted {
            Ok(()) if offset <= self.size() => Ok(()),
            Err(Refused::Miss) => Err(VmError::Miss),
            _ => Err(VmError::DiskOutOfRange {
                sector: offset / CHUNK_SIZE as u64,
                sectors: self.block_count() as u64,
            }),
        }
    }

    /// Reads `buf.len()` bytes at byte `offset`.
    pub fn read(&mut self, offset: u64, buf: &mut [u8]) -> VmResult<()> {
        let accepted = self.store.read(offset, buf);
        self.verdict(offset, accepted)?;
        self.reads += 1;
        Ok(())
    }

    /// Writes `data` at byte `offset`, marking touched blocks dirty.
    pub fn write(&mut self, offset: u64, data: &[u8]) -> VmResult<()> {
        let accepted = self.store.write(offset, data);
        self.verdict(offset, accepted)?;
        self.writes += 1;
        Ok(())
    }

    /// Returns block `idx` contents.
    pub fn block(&self, idx: usize) -> Option<&[u8]> {
        self.store.leaf(idx)
    }

    /// Overwrites block `idx` (snapshot restore).
    pub fn set_block(&mut self, idx: usize, content: &[u8]) -> VmResult<()> {
        self.store
            .set_leaf(idx, content)
            .ok_or(VmError::CorruptState("disk block restore out of range"))
    }

    /// Clears all dirty bits.
    pub fn clear_dirty(&mut self) {
        self.store.clear_dirty();
    }

    /// Block indices faulted in from staging so far, in first-touch order.
    pub fn faulted_blocks(&self) -> &[usize] {
        self.store.faulted()
    }
}

/// Console output sink (diagnostics; accumulated, drained by the hypervisor).
#[derive(Debug, Clone, Default)]
pub struct Console {
    /// Bytes written by the guest and not yet drained.
    pub buffer: Vec<u8>,
    /// Total bytes ever written.
    pub total_bytes: u64,
}

impl Console {
    /// Guest-side write.
    pub fn write(&mut self, data: &[u8]) {
        self.total_bytes += data.len() as u64;
        self.buffer.extend_from_slice(data);
    }

    /// Hypervisor-side drain.
    pub fn drain(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buffer)
    }
}

/// All device state of a machine.
#[derive(Debug, Clone)]
pub struct DeviceState {
    /// The virtual clock port.
    pub clock: ClockPort,
    /// The virtual NIC.
    pub nic: Nic,
    /// The local input queue.
    pub input: InputQueue,
    /// The virtual disk.
    pub disk: Disk,
    /// The console.
    pub console: Console,
}

impl DeviceState {
    /// Creates device state with a disk initialized from `disk_content`.
    pub fn new(disk_content: &[u8]) -> DeviceState {
        DeviceState::with_disk(Disk::from_content(disk_content))
    }

    /// Creates device state around `disk`, every other device fresh.
    pub(crate) fn with_disk(disk: Disk) -> DeviceState {
        DeviceState {
            clock: ClockPort::default(),
            nic: Nic::default(),
            input: InputQueue::default(),
            disk,
            console: Console::default(),
        }
    }

    /// Serializes the *volatile* device state (everything except disk
    /// contents, which are snapshotted block-wise like memory pages).
    pub fn save_volatile(&self) -> Vec<u8> {
        let mut w = Writer::new();
        // Clock.
        w.put_bool(self.clock.pending_request);
        match self.clock.response {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                w.put_u64(v);
            }
        }
        w.put_u64(self.clock.reads_served);
        // NIC.
        w.put_varint(self.nic.rx_queue.len() as u64);
        for p in &self.nic.rx_queue {
            w.put_bytes(p);
        }
        w.put_u64(self.nic.rx_packets);
        w.put_u64(self.nic.tx_packets);
        w.put_u64(self.nic.rx_bytes);
        w.put_u64(self.nic.tx_bytes);
        // Input queue.
        w.put_varint(self.input.queue.len() as u64);
        for ev in &self.input.queue {
            ev.encode(&mut w);
        }
        w.put_u64(self.input.injected);
        // Disk statistics (content handled separately).
        w.put_u64(self.disk.reads);
        w.put_u64(self.disk.writes);
        // Console.
        w.put_bytes(&self.console.buffer);
        w.put_u64(self.console.total_bytes);
        w.into_bytes()
    }

    /// Restores volatile device state saved by [`DeviceState::save_volatile`].
    pub fn restore_volatile(&mut self, bytes: &[u8]) -> VmResult<()> {
        let mut r = Reader::new(bytes);
        self.restore_volatile_inner(&mut r)
            .map_err(|_| VmError::CorruptState("device state blob"))?;
        if !r.is_empty() {
            return Err(VmError::CorruptState("trailing bytes in device state"));
        }
        Ok(())
    }

    fn restore_volatile_inner(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        self.clock.pending_request = r.get_bool()?;
        self.clock.response = match r.get_u8()? {
            0 => None,
            _ => Some(r.get_u64()?),
        };
        self.clock.reads_served = r.get_u64()?;
        let n = r.get_varint()?;
        self.nic.rx_queue.clear();
        for _ in 0..n {
            self.nic.rx_queue.push_back(r.get_bytes()?.to_vec());
        }
        self.nic.rx_packets = r.get_u64()?;
        self.nic.tx_packets = r.get_u64()?;
        self.nic.rx_bytes = r.get_u64()?;
        self.nic.tx_bytes = r.get_u64()?;
        let n = r.get_varint()?;
        self.input.queue.clear();
        for _ in 0..n {
            self.input.queue.push_back(InputEvent::decode(r)?);
        }
        self.input.injected = r.get_u64()?;
        self.disk.reads = r.get_u64()?;
        self.disk.writes = r.get_u64()?;
        self.console.buffer = r.get_bytes()?.to_vec();
        self.console.total_bytes = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CHUNKS_PER_PAGE;
    use avm_crypto::sha256::sha256;

    #[test]
    fn clock_request_response_cycle() {
        let mut clock = ClockPort::default();
        assert_eq!(clock.guest_read(), None);
        assert!(clock.pending_request);
        // Providing without a request is an error only when no request pending.
        clock.provide(123).unwrap();
        assert_eq!(clock.guest_read(), Some(123));
        assert_eq!(clock.reads_served, 1);
        assert!(!clock.pending_request);
        assert_eq!(clock.provide(1), Err(VmError::UnexpectedHostResponse));
    }

    #[test]
    fn nic_inject_and_recv_in_order() {
        let mut nic = Nic::default();
        assert!(nic.rx_queue.is_empty());
        nic.inject(vec![1, 2, 3]);
        nic.inject(vec![4]);
        assert_eq!(nic.rx_queue.len(), 2);
        assert_eq!(nic.guest_recv(), Some(vec![1, 2, 3]));
        assert_eq!(nic.guest_recv(), Some(vec![4]));
        assert_eq!(nic.guest_recv(), None);
        assert_eq!(nic.rx_packets, 2);
        assert_eq!(nic.rx_bytes, 4);
        nic.note_tx(100);
        assert_eq!((nic.tx_packets, nic.tx_bytes), (1, 100));
    }

    #[test]
    fn input_queue_order() {
        let mut q = InputQueue::default();
        let e1 = InputEvent {
            device: 0,
            code: 30,
            value: 1,
        };
        let e2 = InputEvent {
            device: 1,
            code: 2,
            value: -5,
        };
        q.inject(e1);
        q.inject(e2);
        assert_eq!(q.guest_poll(), Some(e1));
        assert_eq!(q.guest_poll(), Some(e2));
        assert_eq!(q.guest_poll(), None);
        assert_eq!(q.injected, 2);
    }

    #[test]
    fn input_event_wire_roundtrip() {
        let ev = InputEvent {
            device: 2,
            code: 0xABCD,
            value: i64::MIN,
        };
        let bytes = ev.encode_to_vec();
        assert_eq!(InputEvent::decode_exact(&bytes).unwrap(), ev);
    }

    #[test]
    fn disk_read_write_and_dirty_blocks() {
        let mut disk = Disk::new(PAGE_SIZE as u64);
        assert_eq!(disk.block_count(), CHUNKS_PER_PAGE);
        disk.write(CHUNK_SIZE as u64 - 2, &[9; 4]).unwrap();
        let mut buf = [0u8; 4];
        disk.read(CHUNK_SIZE as u64 - 2, &mut buf).unwrap();
        assert_eq!(buf, [9; 4]);
        assert_eq!(disk.leaves().dirty_leaves(), vec![0, 1]);
        disk.clear_dirty();
        assert!(disk.leaves().dirty_leaves().is_empty());
        assert!(disk.read(PAGE_SIZE as u64, &mut buf).is_err());
        assert!(disk.write(u64::MAX, &[1]).is_err());
    }

    /// The disk's leaf is memory's: a guest's 8-byte `diskwr` dirties, and
    /// re-hashes, the one 512 B leaf it lands in — not the page around it.
    #[test]
    fn an_eight_byte_write_dirties_exactly_one_leaf() {
        let mut disk = Disk::new(2 * PAGE_SIZE as u64);
        let before: Vec<Digest> = (0..disk.block_count())
            .map(|b| disk.leaves().leaf_hash(b).unwrap())
            .collect();
        let leaf = CHUNKS_PER_PAGE + 3;
        disk.write((leaf * CHUNK_SIZE + 100) as u64, &[0xAB; 8])
            .unwrap();
        assert_eq!(disk.leaves().dirty_leaves(), vec![leaf]);
        for (b, hash) in before.iter().enumerate() {
            assert_eq!(
                disk.leaves().leaf_hash(b).unwrap() != *hash,
                b == leaf,
                "block {b}"
            );
        }
        assert_eq!(disk.block(leaf).unwrap().len(), CHUNK_SIZE);
    }

    /// A write across a leaf boundary dirties the leaf on each side of it,
    /// and nothing else; so does one across a page boundary.
    #[test]
    fn a_write_straddling_a_leaf_boundary_dirties_both_leaves() {
        let mut disk = Disk::new(2 * PAGE_SIZE as u64);
        disk.write(2 * CHUNK_SIZE as u64 - 4, &[1; 8]).unwrap();
        assert_eq!(disk.leaves().dirty_leaves(), vec![1, 2]);
        disk.clear_dirty();
        disk.write(PAGE_SIZE as u64 - 1, &[2; 2]).unwrap();
        assert_eq!(
            disk.leaves().dirty_leaves(),
            vec![CHUNKS_PER_PAGE - 1, CHUNKS_PER_PAGE]
        );
        let mut bytes = [0u8; 8];
        disk.read(2 * CHUNK_SIZE as u64 - 4, &mut bytes).unwrap();
        assert_eq!(bytes, [1; 8]);
    }

    /// `DiskOutOfRange` counts both numbers in blocks: a refused access
    /// reports a `sector` below `sectors` exactly when it starts on the disk
    /// (and runs off its end), never when it starts past the end.
    #[test]
    fn an_out_of_range_access_names_its_block_in_the_disks_unit() {
        let mut disk = Disk::new(2 * PAGE_SIZE as u64);
        let size = disk.size();
        let sectors = disk.block_count() as u64;
        let mut refused = 0;
        for offset in [
            0,
            1,
            CHUNK_SIZE as u64,
            size - 8,
            size - 1,
            size,
            size + 1,
            2 * size,
            u64::MAX - 3,
        ] {
            for len in [0usize, 1, 8, CHUNK_SIZE, PAGE_SIZE] {
                let fits = offset
                    .checked_add(len as u64)
                    .is_some_and(|end| end <= size);
                match disk.write(offset, &vec![7; len]) {
                    Ok(()) => assert!(fits, "{offset}+{len} accepted"),
                    Err(VmError::DiskOutOfRange { sector, sectors: n }) => {
                        assert!(!fits, "{offset}+{len} refused");
                        assert_eq!(n, sectors);
                        assert_eq!(sector, offset / CHUNK_SIZE as u64);
                        assert_eq!(sector < sectors, offset < size, "{offset}+{len}");
                        refused += 1;
                    }
                    Err(other) => panic!("{offset}+{len}: {other:?}"),
                }
            }
        }
        assert!(refused > 20);
    }

    /// A zero-length access on the disk is counted and touches nothing — no
    /// dirty bit, no emptied hash slot, no fault — and past the end it is
    /// still out of range.
    #[test]
    fn zero_length_disk_access_touches_nothing_but_is_judged() {
        let mut disk = Disk::new(2 * PAGE_SIZE as u64);
        let staged = vec![5u8; CHUNK_SIZE];
        let marker = sha256(b"not the block's hash");
        disk.leaves_mut().stage_lazy(1, staged, marker).unwrap();
        let end = disk.size();
        for offset in [0, CHUNK_SIZE as u64 + 9, end] {
            disk.write(offset, &[]).unwrap();
            disk.read(offset, &mut []).unwrap();
        }
        assert_eq!((disk.reads, disk.writes), (3, 3));
        assert!(disk.leaves().dirty_leaves().is_empty() && disk.faulted_blocks().is_empty());
        assert_eq!(disk.leaves().staged_count(), 1);
        assert_eq!(disk.leaves().leaf_hash(1), Some(marker));
        let leaves = 2 * CHUNKS_PER_PAGE as u64;
        let past_end = VmError::DiskOutOfRange {
            sector: leaves,
            sectors: leaves,
        };
        assert_eq!(disk.write(end + 1, &[]), Err(past_end.clone()));
        assert_eq!(disk.read(end + 1, &mut []), Err(past_end));
        assert!(disk.write(u64::MAX, &[]).is_err());
        assert_eq!((disk.reads, disk.writes), (3, 3));
    }

    #[test]
    fn disk_from_content_and_blocks() {
        let content = vec![7u8; CHUNK_SIZE + 10];
        let mut disk = Disk::from_content(&content);
        assert_eq!(disk.block_count(), CHUNKS_PER_PAGE);
        assert_eq!(disk.block(0).unwrap()[0], 7);
        assert_eq!(disk.block(1).unwrap()[9], 7);
        assert_eq!(disk.block(1).unwrap()[10], 0);
        assert!(disk.block(CHUNKS_PER_PAGE).is_none());
        let new_block = vec![1u8; CHUNK_SIZE];
        disk.set_block(1, &new_block).unwrap();
        assert_eq!(disk.block(1).unwrap()[0], 1);
        assert!(disk.set_block(CHUNKS_PER_PAGE, &new_block).is_err());
        assert!(disk.set_block(0, &[1, 2]).is_err());
        // Pages of zeros are left shared, not skipped with what they hold:
        // a byte anywhere in a page, or in a partial last page, is written.
        let mut sparse = vec![0u8; 3 * PAGE_SIZE + 5];
        sparse[2 * PAGE_SIZE - 1] = 4;
        sparse[3 * PAGE_SIZE + 4] = 6;
        let disk = Disk::from_content(&sparse);
        let held: Vec<&[u8]> = (0..4 * CHUNKS_PER_PAGE)
            .map(|b| disk.block(b).unwrap())
            .collect();
        assert_eq!(held.concat()[..sparse.len()], sparse);
        assert!(disk.leaves().dirty_leaves().is_empty());
    }

    #[test]
    fn disk_block_hash_cache_invalidated_by_writes() {
        let mut disk = Disk::new(PAGE_SIZE as u64);
        let h0 = disk.leaves().leaf_hash(0).unwrap();
        assert_eq!(disk.leaves().leaf_hash(0).unwrap(), h0);
        disk.write(10, &[1, 2, 3]).unwrap();
        let h1 = disk.leaves().leaf_hash(0).unwrap();
        assert_ne!(h0, h1);
        // Dirty clearing leaves the cache intact; the hash stays correct.
        disk.clear_dirty();
        assert_eq!(disk.leaves().leaf_hash(0).unwrap(), h1);
        let block = vec![9u8; CHUNK_SIZE];
        disk.set_block(1, &block).unwrap();
        assert_eq!(disk.leaves().leaf_hash(1).unwrap(), sha256(&block));
        assert!(disk.leaves().leaf_hash(disk.block_count()).is_none());
        for i in 0..disk.block_count() {
            assert_eq!(
                disk.leaves().leaf_hash(i).unwrap(),
                sha256(disk.block(i).unwrap())
            );
        }
        // Seeded slots (marker values) are emptied by exactly the writes
        // that cover them.
        let seeds: Vec<Digest> = (0..disk.block_count())
            .map(|b| sha256(format!("block {b}").as_bytes()))
            .collect();
        let mut disk = Disk::from_shared(&disk.leaves().shared_pages(), &seeds);
        disk.write(CHUNK_SIZE as u64 + 7, &[4]).unwrap();
        assert_eq!(disk.leaves().leaf_hash(0).unwrap(), seeds[0]);
        assert_eq!(
            disk.leaves().leaf_hash(1).unwrap(),
            sha256(disk.block(1).unwrap())
        );
        assert_eq!(disk.leaves().leaf_hash(2).unwrap(), seeds[2]);
    }

    #[test]
    fn staged_block_faults_in_on_access() {
        let mut disk = Disk::new(PAGE_SIZE as u64);
        let mut authentic = vec![0u8; CHUNK_SIZE];
        authentic[0] = 0x55;
        let hash = sha256(&authentic);
        disk.leaves_mut()
            .stage_lazy(1, authentic.clone(), hash)
            .unwrap();
        // Hash reports the staged contents; raw block is still stale.
        assert_eq!(disk.leaves().leaf_hash(1).unwrap(), hash);
        assert_eq!(disk.block(1).unwrap()[0], 0);
        assert_eq!(disk.leaves().staged_count(), 1);
        // A read faults it in without marking it dirty.
        let mut buf = [0u8; 1];
        disk.read(CHUNK_SIZE as u64, &mut buf).unwrap();
        assert_eq!(buf[0], 0x55);
        assert_eq!(disk.faulted_blocks(), &[1]);
        assert!(disk.leaves().dirty_leaves().is_empty());
        assert_eq!(disk.leaves().leaf_hash(1).unwrap(), hash);
        // A partial write to another staged block lands on authentic bytes.
        let mut b2 = vec![0u8; CHUNK_SIZE];
        b2[10] = 0x77;
        disk.leaves_mut()
            .stage_lazy(2, b2.clone(), sha256(&b2))
            .unwrap();
        disk.write(2 * CHUNK_SIZE as u64, &[0x11]).unwrap();
        assert_eq!(disk.faulted_blocks(), &[1, 2]);
        assert_eq!(disk.block(2).unwrap()[10], 0x77);
        assert_eq!(disk.block(2).unwrap()[0], 0x11);
        assert_eq!(disk.leaves().dirty_leaves(), vec![2]);
        // set_block drops staging without recording a fault.
        let mut disk2 = Disk::new(CHUNK_SIZE as u64);
        disk2
            .leaves_mut()
            .stage_lazy(0, authentic.clone(), hash)
            .unwrap();
        disk2.set_block(0, &vec![1u8; CHUNK_SIZE]).unwrap();
        assert!(disk2.faulted_blocks().is_empty());
        assert_eq!(disk2.leaves().staged_count(), 0);
        // So does a write() that fully covers the staged block.
        let mut disk3 = Disk::new(CHUNK_SIZE as u64);
        disk3
            .leaves_mut()
            .stage_lazy(0, authentic.clone(), hash)
            .unwrap();
        disk3.write(0, &vec![2u8; CHUNK_SIZE]).unwrap();
        assert!(disk3.faulted_blocks().is_empty());
        assert_eq!(disk3.leaves().staged_count(), 0);
        assert_eq!(disk3.block(0).unwrap()[0], 2);
        // Validation.
        let past_end = disk2.block_count();
        assert!(disk2
            .leaves_mut()
            .stage_lazy(past_end, authentic.clone(), hash)
            .is_none());
        assert!(disk2.leaves_mut().stage_lazy(0, vec![1, 2], hash).is_none());
        assert!(disk2
            .leaves_mut()
            .stage_lazy(0, vec![1; PAGE_SIZE], hash)
            .is_none());
    }

    #[test]
    fn console_accumulates_and_drains() {
        let mut c = Console::default();
        c.write(b"hello ");
        c.write(b"world");
        assert_eq!(c.total_bytes, 11);
        assert_eq!(c.drain(), b"hello world");
        assert!(c.drain().is_empty());
        assert_eq!(c.total_bytes, 11);
    }

    #[test]
    fn device_state_volatile_roundtrip() {
        let mut dev = DeviceState::new(b"disk image");
        dev.clock.guest_read();
        dev.clock.provide(42).unwrap();
        dev.nic.inject(vec![1, 2, 3]);
        dev.nic.note_tx(7);
        dev.input.inject(InputEvent {
            device: 0,
            code: 1,
            value: 1,
        });
        dev.console.write(b"boot ok");
        dev.disk.write(0, b"xyz").unwrap();

        let blob = dev.save_volatile();
        let mut restored = DeviceState::new(b"disk image");
        // Disk content is restored separately; emulate it here.
        restored.disk = dev.disk.clone();
        restored.restore_volatile(&blob).unwrap();

        assert_eq!(restored.clock.response, Some(42));
        assert_eq!(restored.nic.rx_queue, dev.nic.rx_queue);
        assert_eq!(restored.nic.tx_bytes, 7);
        assert_eq!(restored.input.queue, dev.input.queue);
        assert_eq!(restored.console.buffer, b"boot ok");

        // Corrupt blob is rejected.
        assert!(restored.restore_volatile(&blob[..blob.len() - 1]).is_err());
    }
}
