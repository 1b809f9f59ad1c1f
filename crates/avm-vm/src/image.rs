//! VM images and the native guest registry.
//!
//! A [`VmImage`] is the auditable identity of the software a machine runs:
//! the paper's assumption 4 (§4.1) is that an auditor "has access to a
//! reference copy of the VM image that the machine is expected to use".
//! Replay instantiates a fresh machine from that reference image; if the
//! audited machine actually ran something else (a cheat module, a patched
//! binary), replay diverges.
//!
//! # What the image alone determines
//!
//! An auditor holds one reference image and checks it against many chunks,
//! so everything that is a function of the image and nothing else is derived
//! once, on first use, and kept with the image as its [`ImageBaseline`]: the
//! pages of a fresh machine's memory (program loaded) and disk, the content
//! digest, the SHA-256 of every memory chunk and disk block those pages
//! hold, an index from each of those digests to the first place its content
//! sits, and the Merkle state tree over those leaves.
//! [`crate::Machine::from_image`] builds its stores from the baseline: they
//! share its pages until they write them (`crate::store` § Pages) and start
//! with every hash slot filled, so a machine holds and hashes only what was
//! *written* to it, and `avm-core` starts every audit's state tree from a
//! copy of the baseline's.
//!
//! The memo cannot go stale: the four fields it is derived from are private,
//! the constructors and [`VmImage::with_disk`] are their only writers, and
//! `with_disk` drops it.  It is shared by clones, ignored by `==` and
//! `Debug`, and for as long as the image lives costs about 64 B per 512 B
//! chunk (the leaf plus its share of the interior nodes) plus one page per
//! page of the image that is not all zeros: its all-zero pages are the one
//! zero page every store shares.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use avm_crypto::merkle::MerkleTree;
use avm_crypto::sha256::{sha256, Digest, Sha256};

use crate::devices::Disk;
use crate::error::{VmError, VmResult};
use crate::mem::GuestMemory;
use crate::native::GuestKernel;
use crate::store::{SharedPage, CHUNK_SIZE};

/// Leaves that precede the per-chunk leaves in the Merkle state tree: CPU
/// state, volatile device state and the control word.  They depend on the
/// machine, not the image, so [`ImageBaseline::state_tree`] leaves them as
/// placeholders for `avm-core` to fill.
pub const STATE_HEADER_LEAVES: usize = 3;

/// What kind of guest the image contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageKind {
    /// A bytecode program (the "unmodified binary" case).
    Bytecode {
        /// The program bytes.
        code: Vec<u8>,
        /// Guest-physical address the code is loaded at.
        load_addr: u64,
        /// Initial program counter.
        entry: u64,
    },
    /// A native guest kernel, identified by registry name plus an opaque
    /// configuration blob (its initial state / settings).
    Native {
        /// Registry name of the guest program.
        program: String,
        /// Configuration passed to the factory.
        config: Vec<u8>,
    },
}

/// Where a fresh machine holds some chunk- or block-sized content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineLocation {
    /// Memory chunk index.
    Chunk(usize),
    /// Disk block index.
    Block(usize),
}

impl BaselineLocation {
    /// Which of [`crate::Machine::stores`] holds the content, and at which
    /// leaf of it.
    pub fn store_and_leaf(self) -> (usize, usize) {
        match self {
            BaselineLocation::Chunk(leaf) => (0, leaf),
            BaselineLocation::Block(leaf) => (1, leaf),
        }
    }
}

/// Everything a [`VmImage`] alone determines about a machine freshly built
/// from it (see the module docs).  Obtained from [`VmImage::baseline`].
#[derive(Debug)]
pub struct ImageBaseline {
    digest: Digest,
    /// [`STATE_HEADER_LEAVES`] placeholders, one leaf per memory chunk, one
    /// per disk block — `avm-core`'s fixed leaf order.
    tree: MerkleTree,
    chunks: usize,
    locations: HashMap<Digest, BaselineLocation>,
    /// A fresh machine's memory and disk pages, in the order of
    /// [`crate::Machine::stores`], which every machine built from the image
    /// shares until it writes them — or why the image has no machine.
    pages: VmResult<[Vec<SharedPage>; 2]>,
}

impl ImageBaseline {
    fn derive(image: &VmImage) -> ImageBaseline {
        // A program that does not fit in memory has no machine, so the leaves
        // derived here for it are never read; its digest still is.
        let (mem, fits) = match image.initial_memory() {
            Ok(mem) => (mem, Ok(())),
            Err(unfit) => (GuestMemory::new(image.mem_size), Err(unfit)),
        };
        let disk = Disk::from_content(&image.disk);
        let mut leaves = vec![Digest::ZERO; STATE_HEADER_LEAVES];
        let mut locations = HashMap::new();
        let stores = [
            (mem.leaves(), BaselineLocation::Chunk as fn(usize) -> _),
            (disk.leaves(), BaselineLocation::Block),
        ];
        for (store, location) in stores {
            // A fresh store is mostly zeros: one hash answers for every
            // all-zero leaf, and only the leaves that hold something are
            // hashed, in one batch.
            let held: Vec<usize> = (0..store.leaf_count())
                .filter(|&i| {
                    store
                        .leaf(i)
                        .is_some_and(|leaf| leaf.iter().any(|&b| b != 0))
                })
                .collect();
            store.prime_hashes(&held);
            let base = leaves.len();
            leaves.resize(base + store.leaf_count(), sha256(&[0u8; CHUNK_SIZE]));
            for i in held {
                leaves[base + i] = store.leaf_hash(i).expect("leaf in range");
            }
            for (i, hash) in leaves[base..].iter().enumerate() {
                locations.entry(*hash).or_insert(location(i));
            }
        }
        ImageBaseline {
            digest: image.compute_digest(),
            tree: MerkleTree::from_leaf_hashes(leaves),
            chunks: mem.chunk_count(),
            locations,
            pages: fits.map(|()| [mem.leaves().shared_pages(), disk.leaves().shared_pages()]),
        }
    }

    /// A fresh machine's memory and disk, built from the baseline's pages and
    /// leaf hashes: they cost reference counts, not copies, and hash nothing
    /// until written.  Fails, as the image's program did, when it does not
    /// fit in memory.
    pub(crate) fn fresh_stores(&self) -> VmResult<(GuestMemory, Disk)> {
        let [mem, disk] = self.pages.as_ref().map_err(VmError::clone)?;
        let [mem_hashes, disk_hashes] = self.leaf_hashes();
        Ok((
            GuestMemory::from_shared(mem, mem_hashes),
            Disk::from_shared(disk, disk_hashes),
        ))
    }

    /// The image's content digest ([`VmImage::digest`]).
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// SHA-256 of every leaf of a fresh machine's two stores, in the order
    /// of [`crate::Machine::stores`]: memory chunks, then disk blocks.
    pub fn leaf_hashes(&self) -> [&[Digest]; 2] {
        let (chunks, blocks) = self.tree.leaves()[STATE_HEADER_LEAVES..].split_at(self.chunks);
        [chunks, blocks]
    }

    /// The first place a fresh machine holds content hashing to `digest`
    /// (memory before disk, ascending index), if it holds it anywhere — the
    /// auditor-local test for "derivable from the reference image".
    pub fn locate(&self, digest: &Digest) -> Option<BaselineLocation> {
        self.locations.get(digest).copied()
    }

    /// The Merkle state tree of a fresh machine, its first
    /// [`STATE_HEADER_LEAVES`] leaves placeholders.
    pub fn state_tree(&self) -> &MerkleTree {
        &self.tree
    }
}

/// A complete, content-addressed VM image.
#[derive(Clone)]
pub struct VmImage {
    name: String,
    mem_size: u64,
    disk: Vec<u8>,
    kind: ImageKind,
    /// Derived from the four fields above on first use; see the module docs
    /// for why it cannot go stale.
    baseline: OnceLock<Arc<ImageBaseline>>,
}

// Images live in statics and cross threads: whatever the baseline holds, its
// shared pages included, must keep them `Send + Sync`.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<VmImage>();
};

impl PartialEq for VmImage {
    fn eq(&self, other: &VmImage) -> bool {
        (&self.name, self.mem_size, &self.disk, &self.kind)
            == (&other.name, other.mem_size, &other.disk, &other.kind)
    }
}

impl Eq for VmImage {}

impl core::fmt::Debug for VmImage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("VmImage")
            .field("name", &self.name)
            .field("mem_size", &self.mem_size)
            .field("disk", &self.disk)
            .field("kind", &self.kind)
            .finish()
    }
}

impl VmImage {
    /// Creates a bytecode image.
    pub fn bytecode(
        name: &str,
        mem_size: u64,
        code: Vec<u8>,
        load_addr: u64,
        entry: u64,
    ) -> VmImage {
        VmImage {
            name: name.to_string(),
            mem_size,
            disk: Vec::new(),
            kind: ImageKind::Bytecode {
                code,
                load_addr,
                entry,
            },
            baseline: OnceLock::new(),
        }
    }

    /// Creates a native-guest image.
    pub fn native(name: &str, mem_size: u64, program: &str, config: Vec<u8>) -> VmImage {
        VmImage {
            name: name.to_string(),
            mem_size,
            disk: Vec::new(),
            kind: ImageKind::Native {
                program: program.to_string(),
                config,
            },
            baseline: OnceLock::new(),
        }
    }

    /// Attaches initial disk contents (a different image: whatever was
    /// derived from the old one is dropped).
    pub fn with_disk(mut self, disk: Vec<u8>) -> VmImage {
        self.disk = disk;
        self.baseline = OnceLock::new();
        self
    }

    /// Human-readable image name (e.g. "game-client-v1").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Guest RAM size in bytes.
    pub fn mem_size(&self) -> u64 {
        self.mem_size
    }

    /// Initial disk contents.
    pub fn disk(&self) -> &[u8] {
        &self.disk
    }

    /// The guest program.
    pub fn kind(&self) -> &ImageKind {
        &self.kind
    }

    /// Everything this image alone determines, derived on the first call
    /// and shared with every clone made after it.
    pub fn baseline(&self) -> &ImageBaseline {
        self.shared_baseline()
    }

    /// [`VmImage::baseline`] as a handle that outlives the borrow of the
    /// image, for a holder that keeps reading it (a snapshot store leaves
    /// the image's own leaves out of its manifests).
    pub fn shared_baseline(&self) -> &Arc<ImageBaseline> {
        self.baseline
            .get_or_init(|| Arc::new(ImageBaseline::derive(self)))
    }

    /// Guest RAM as a fresh machine holds it: zeros, with a bytecode image's
    /// program at its load address (whose chunks are left marked dirty).
    pub(crate) fn initial_memory(&self) -> VmResult<GuestMemory> {
        let mut mem = GuestMemory::new(self.mem_size);
        if let ImageKind::Bytecode {
            code, load_addr, ..
        } = &self.kind
        {
            mem.write(*load_addr, code)?;
        }
        Ok(mem)
    }

    /// Content digest of the image: two parties agree on an image by
    /// comparing this value (e.g. the "official VM snapshot" distributed
    /// before a game, §5.2).  Hashed once per image ([`VmImage::baseline`]).
    pub fn digest(&self) -> Digest {
        self.baseline().digest
    }

    fn compute_digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"avm-image-v1");
        h.update(&(self.name.len() as u64).to_le_bytes());
        h.update(self.name.as_bytes());
        h.update(&self.mem_size.to_le_bytes());
        h.update(&(self.disk.len() as u64).to_le_bytes());
        h.update(&self.disk);
        match &self.kind {
            ImageKind::Bytecode {
                code,
                load_addr,
                entry,
            } => {
                h.update(&[0u8]);
                h.update(&(code.len() as u64).to_le_bytes());
                h.update(code);
                h.update(&load_addr.to_le_bytes());
                h.update(&entry.to_le_bytes());
            }
            ImageKind::Native { program, config } => {
                h.update(&[1u8]);
                h.update(&(program.len() as u64).to_le_bytes());
                h.update(program.as_bytes());
                h.update(&(config.len() as u64).to_le_bytes());
                h.update(config);
            }
        }
        h.finalize()
    }
}

/// Factory type for native guest kernels.
pub type GuestFactory = Arc<dyn Fn(&[u8]) -> VmResult<Box<dyn GuestKernel>> + Send + Sync>;

/// Registry resolving native guest program names to factories.
///
/// The registry plays the role of "the software everyone agrees on": both the
/// recording AVMM and every auditor construct guests through the same
/// registry, so a given image always yields the same initial machine.
#[derive(Clone, Default)]
pub struct GuestRegistry {
    factories: HashMap<String, GuestFactory>,
}

impl GuestRegistry {
    /// Creates an empty registry.
    pub fn new() -> GuestRegistry {
        GuestRegistry::default()
    }

    /// Registers a guest program factory under `name`.
    pub fn register<F>(&mut self, name: &str, factory: F)
    where
        F: Fn(&[u8]) -> VmResult<Box<dyn GuestKernel>> + Send + Sync + 'static,
    {
        self.factories.insert(name.to_string(), Arc::new(factory));
    }

    /// Instantiates the guest program `name` with `config`.
    pub fn instantiate(&self, name: &str, config: &[u8]) -> VmResult<Box<dyn GuestKernel>> {
        match self.factories.get(name) {
            Some(f) => f(config),
            None => Err(VmError::UnknownGuest(name.to_string())),
        }
    }

    /// Names of all registered programs (sorted, for stable diagnostics).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.factories.keys().cloned().collect();
        names.sort();
        names
    }
}

impl core::fmt::Debug for GuestRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GuestRegistry")
            .field("programs", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::native::{GuestCtx, GuestStep};
    use crate::{StopCondition, CHUNK_SIZE};

    struct CountKernel {
        n: u64,
        limit: u64,
    }

    impl GuestKernel for CountKernel {
        fn step(&mut self, _ctx: &mut GuestCtx<'_>) -> GuestStep {
            self.n += 1;
            if self.n >= self.limit {
                GuestStep::Halted
            } else {
                GuestStep::Ran { cost: 1 }
            }
        }

        fn save_state(&self) -> Vec<u8> {
            let mut out = self.n.to_le_bytes().to_vec();
            out.extend_from_slice(&self.limit.to_le_bytes());
            out
        }

        fn restore_state(&mut self, bytes: &[u8]) -> VmResult<()> {
            if bytes.len() != 16 {
                return Err(VmError::CorruptState("count kernel"));
            }
            self.n = u64::from_le_bytes(bytes[..8].try_into().unwrap());
            self.limit = u64::from_le_bytes(bytes[8..].try_into().unwrap());
            Ok(())
        }

        fn name(&self) -> &str {
            "count"
        }
    }

    fn registry() -> GuestRegistry {
        let mut reg = GuestRegistry::new();
        reg.register("count", |config| {
            let limit = if config.len() == 8 {
                u64::from_le_bytes(config.try_into().unwrap())
            } else {
                10
            };
            Ok(Box::new(CountKernel { n: 0, limit }))
        });
        reg
    }

    #[test]
    fn image_digest_is_content_addressed() {
        let a = VmImage::bytecode("img", 4096, vec![1, 2, 3], 0, 0);
        let b = VmImage::bytecode("img", 4096, vec![1, 2, 3], 0, 0);
        let c = VmImage::bytecode("img", 4096, vec![1, 2, 4], 0, 0);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        let d = a.clone().with_disk(vec![9]);
        assert_ne!(a.digest(), d.digest());
        let n1 = VmImage::native("img", 4096, "count", vec![]);
        let n2 = VmImage::native("img", 4096, "count", vec![1]);
        assert_ne!(n1.digest(), n2.digest());
        assert_ne!(a.digest(), n1.digest());
    }

    /// The baseline is what hashing a fresh machine from scratch yields,
    /// for a program that straddles a chunk boundary and a disk that is not
    /// a whole number of blocks.
    #[test]
    fn baseline_is_what_a_fresh_machine_hashes_to() {
        use crate::CHUNKS_PER_PAGE;
        let code = vec![0x5a; 700];
        let image =
            VmImage::bytecode("img", 16 * 1024, code, 300, 300)
                .with_disk(vec![3u8; CHUNK_SIZE + 9]);
        let m = Machine::from_image(&image, &GuestRegistry::new()).unwrap();
        let baseline = image.baseline();
        assert_eq!(baseline.digest(), image.compute_digest());
        assert_eq!(baseline.leaf_hashes()[0].len(), m.memory().chunk_count());
        for (i, hash) in baseline.leaf_hashes()[0].iter().enumerate() {
            assert_eq!(*hash, sha256(m.memory().chunk(i).unwrap()), "chunk {i}");
            assert_eq!(m.memory().leaves().leaf_hash(i).unwrap(), *hash);
        }
        assert_eq!(baseline.leaf_hashes()[1].len(), CHUNKS_PER_PAGE);
        for (b, hash) in baseline.leaf_hashes()[1].iter().enumerate() {
            assert_eq!(*hash, sha256(m.devices().disk.block(b).unwrap()));
            assert_eq!(m.devices().disk.leaves().leaf_hash(b).unwrap(), *hash);
        }
        // The index names the *first* holder of each content.
        let zero = sha256(&[0u8; CHUNK_SIZE]);
        assert_eq!(baseline.locate(&zero), Some(BaselineLocation::Chunk(2)));
        assert_eq!(
            baseline.locate(&baseline.leaf_hashes()[1][1]),
            Some(BaselineLocation::Block(1))
        );
        assert_eq!(baseline.locate(&sha256(b"elsewhere")), None);
        let tree = baseline.state_tree();
        assert_eq!(
            tree.leaf_count(),
            STATE_HEADER_LEAVES + 32 + CHUNKS_PER_PAGE
        );
        assert_eq!(tree.leaves()[..STATE_HEADER_LEAVES], [Digest::ZERO; 3]);
        assert!(m.memory().leaves().dirty_leaves().is_empty());
    }

    /// The memo is shared by clones, invisible to `==` and `Debug`, and
    /// dropped by the one method that changes what it was derived from.
    #[test]
    fn memo_follows_clones_and_is_dropped_by_with_disk() {
        let cold = VmImage::bytecode("img", 4096, vec![1, 2, 3], 0, 0).with_disk(vec![7; 100]);
        let warm = cold.clone();
        let digest = warm.digest();
        assert!(cold.baseline.get().is_none() && warm.baseline.get().is_some());
        assert_eq!(cold, warm);
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        let shared = warm.clone();
        assert!(Arc::ptr_eq(
            shared.baseline.get().unwrap(),
            warm.baseline.get().unwrap()
        ));
        let changed = warm.clone().with_disk(vec![8; 100]);
        assert!(changed.baseline.get().is_none());
        assert_ne!(changed.digest(), digest);
        assert_ne!(
            changed.baseline().leaf_hashes()[1],
            warm.baseline().leaf_hashes()[1]
        );
        // A program that does not fit has a digest but no machine.
        let unfit = VmImage::bytecode("img", 4096, vec![0; 64], 4090, 4090);
        assert_ne!(unfit.digest(), digest);
        assert!(Machine::from_image(&unfit, &GuestRegistry::new()).is_err());
    }

    #[test]
    fn native_image_instantiates_through_registry() {
        let image = VmImage::native("counter", 4096, "count", 3u64.to_le_bytes().to_vec());
        let mut m = Machine::from_image(&image, &registry()).unwrap();
        assert_eq!(
            m.run(StopCondition::Unbounded).unwrap(),
            crate::VmExit::Halted
        );
        assert_eq!(m.step_count(), 2); // two Ran steps before the halt pause
    }

    #[test]
    fn unknown_guest_is_rejected() {
        let image = VmImage::native("x", 4096, "missing", vec![]);
        assert_eq!(
            Machine::from_image(&image, &GuestRegistry::new()).unwrap_err(),
            VmError::UnknownGuest("missing".to_string())
        );
    }

    #[test]
    fn bytecode_image_loads_and_runs() {
        let code = crate::bytecode::assemble("movi r0, 7\nhalt", 0x100).unwrap();
        let image = VmImage::bytecode("tiny", 64 * 1024, code, 0x100, 0x100);
        let mut m = Machine::from_image(&image, &GuestRegistry::new()).unwrap();
        assert_eq!(
            m.run(StopCondition::Unbounded).unwrap(),
            crate::VmExit::Halted
        );
    }

    #[test]
    fn bytecode_image_with_bad_entry_rejected() {
        let code = crate::bytecode::assemble("halt", 0).unwrap();
        let image = VmImage::bytecode("bad", 4096, code, 0x100, 0x500);
        assert!(matches!(
            Machine::from_image(&image, &GuestRegistry::new()).unwrap_err(),
            VmError::InvalidImage(_)
        ));
    }

    #[test]
    fn registry_lists_programs() {
        let reg = registry();
        assert_eq!(reg.names(), vec!["count".to_string()]);
        assert!(format!("{reg:?}").contains("count"));
    }
}
