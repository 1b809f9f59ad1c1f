//! The fault-injectable storage abstraction and its two backends.
//!
//! [`Storage`] is a flat namespace of append-only files — exactly what the
//! segment and arena writers need, and small enough that the simulated
//! backend can model crashes at *byte* granularity.  The crash model is the
//! classic torn-write one: when the injected budget runs out mid-append, the
//! write is cut at an arbitrary byte boundary and the process is dead; bytes
//! written before the cut survive in order.  (Durability *cost* is modelled
//! separately by [`crate::fsync::FsyncModel`]; the simulator does not model
//! reordering of non-fsynced writes.)

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::error::StoreError;

/// A minimal flat-namespace append-only file store.
pub trait Storage {
    /// Names of all files, sorted ascending.
    fn list(&self) -> Result<Vec<String>, StoreError>;
    /// Full contents of `name`.
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError>;
    /// Appends `data` to `name`, creating the file if absent.
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError>;
    /// Truncates `name` to `len` bytes.
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError>;
    /// Deletes `name`.
    fn remove(&mut self, name: &str) -> Result<(), StoreError>;
    /// Makes every byte appended so far durable (fsync).
    fn sync(&mut self) -> Result<(), StoreError>;
}

#[derive(Debug, Default)]
struct SimInner {
    files: BTreeMap<String, Vec<u8>>,
    /// Bytes the next appends may still write before the simulated machine
    /// loses power mid-write.  `None` disarms injection.
    crash_budget: Option<u64>,
    crashed: bool,
    syncs: u64,
}

/// In-memory storage with crash-point fault injection.
///
/// Clones share the same underlying files, so the segment and arena writers
/// can each hold a handle onto one "disk".  Arm a crash with
/// [`SimStorage::set_crash_point`]; once it fires, every operation returns
/// [`StoreError::Crashed`] until the harness "reboots" via
/// [`SimStorage::reboot`], which hands back a fresh handle over the same
/// persisted bytes — torn tail included.
#[derive(Debug, Clone, Default)]
pub struct SimStorage {
    inner: Rc<RefCell<SimInner>>,
}

impl SimStorage {
    /// An empty simulated disk.
    pub fn new() -> SimStorage {
        SimStorage::default()
    }

    /// Arms the crash point: after `budget` more appended bytes the storage
    /// loses power *mid-write* — the offending append is torn at exactly the
    /// budget boundary and every later operation fails with
    /// [`StoreError::Crashed`].
    pub fn set_crash_point(&self, budget: u64) {
        self.inner.borrow_mut().crash_budget = Some(budget);
    }

    /// True once the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.inner.borrow().crashed
    }

    /// A fresh handle over the same persisted bytes, as if the machine
    /// rebooted: the crash flag is cleared and injection disarmed, but the
    /// files — torn tail and all — are exactly what the dead process left.
    pub fn reboot(&self) -> SimStorage {
        let inner = self.inner.borrow();
        SimStorage {
            inner: Rc::new(RefCell::new(SimInner {
                files: inner.files.clone(),
                crash_budget: None,
                crashed: false,
                syncs: 0,
            })),
        }
    }

    /// Total bytes across all files (tests and benches).
    pub fn total_bytes(&self) -> u64 {
        self.inner
            .borrow()
            .files
            .values()
            .map(|v| v.len() as u64)
            .sum()
    }

    /// Number of [`Storage::sync`] calls observed on this disk.
    pub fn sync_count(&self) -> u64 {
        self.inner.borrow().syncs
    }

    /// Flips one byte in `name` at `offset` (tamper injection for tests: a
    /// crash can only tear a tail, never rewrite the middle of a file).
    pub fn corrupt(&self, name: &str, offset: usize) {
        let mut inner = self.inner.borrow_mut();
        let file = inner.files.get_mut(name).expect("corrupt: no such file");
        file[offset] ^= 0xff;
    }

    fn check_alive(inner: &SimInner) -> Result<(), StoreError> {
        if inner.crashed {
            Err(StoreError::Crashed)
        } else {
            Ok(())
        }
    }
}

impl Storage for SimStorage {
    fn list(&self) -> Result<Vec<String>, StoreError> {
        let inner = self.inner.borrow();
        Self::check_alive(&inner)?;
        Ok(inner.files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let inner = self.inner.borrow();
        Self::check_alive(&inner)?;
        inner
            .files
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::Io(format!("no such file: {name}")))
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.borrow_mut();
        Self::check_alive(&inner)?;
        if let Some(budget) = inner.crash_budget {
            if (data.len() as u64) > budget {
                let keep = budget as usize;
                inner
                    .files
                    .entry(name.to_string())
                    .or_default()
                    .extend_from_slice(&data[..keep]);
                inner.crashed = true;
                return Err(StoreError::Crashed);
            }
            inner.crash_budget = Some(budget - data.len() as u64);
        }
        inner
            .files
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        let mut inner = self.inner.borrow_mut();
        Self::check_alive(&inner)?;
        let file = inner
            .files
            .get_mut(name)
            .ok_or_else(|| StoreError::Io(format!("no such file: {name}")))?;
        file.truncate(len as usize);
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        let mut inner = self.inner.borrow_mut();
        Self::check_alive(&inner)?;
        inner
            .files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StoreError::Io(format!("no such file: {name}")))
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        let mut inner = self.inner.borrow_mut();
        Self::check_alive(&inner)?;
        inner.syncs += 1;
        Ok(())
    }
}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

/// What a [`FileStorage`] still has to fsync.
#[derive(Debug, Default)]
struct FileDirty {
    /// Files appended or truncated since the last sync.
    files: BTreeSet<String>,
    /// Directory entries changed (a file created or removed) since the last
    /// sync: the parent directory itself must be fsynced, or a power cut can
    /// lose a freshly created file whose *contents* were durable.
    dir: bool,
}

/// Directory-backed storage: each name is a file directly under `root`.
///
/// `sync` fsyncs every file appended or truncated since the last sync, and
/// the root directory itself whenever files were created or removed.
/// Clones share the dirty-set so multiple writers over one directory sync
/// coherently.
#[derive(Debug, Clone)]
pub struct FileStorage {
    root: PathBuf,
    dirty: Rc<RefCell<FileDirty>>,
}

impl FileStorage {
    /// Opens (creating if needed) the directory at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<FileStorage, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(io_err)?;
        Ok(FileStorage {
            root,
            dirty: Rc::new(RefCell::new(FileDirty::default())),
        })
    }

    /// The backing directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Storage for FileStorage {
    fn list(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        for dent in fs::read_dir(&self.root).map_err(io_err)? {
            let dent = dent.map_err(io_err)?;
            if dent.file_type().map_err(io_err)?.is_file() {
                names.push(dent.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        fs::read(self.path(name)).map_err(io_err)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let path = self.path(name);
        let created = !path.exists();
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        file.write_all(data).map_err(io_err)?;
        let mut dirty = self.dirty.borrow_mut();
        dirty.files.insert(name.to_string());
        dirty.dir |= created;
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), StoreError> {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(io_err)?;
        file.set_len(len).map_err(io_err)?;
        self.dirty.borrow_mut().files.insert(name.to_string());
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        fs::remove_file(self.path(name)).map_err(io_err)?;
        let mut dirty = self.dirty.borrow_mut();
        dirty.files.remove(name);
        dirty.dir = true;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        let (files, dir) = {
            let mut dirty = self.dirty.borrow_mut();
            (
                std::mem::take(&mut dirty.files),
                std::mem::replace(&mut dirty.dir, false),
            )
        };
        for name in files {
            match fs::File::open(self.path(&name)) {
                Ok(file) => file.sync_all().map_err(io_err)?,
                // Removed since it was dirtied — nothing left to sync.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(e)),
            }
        }
        if dir {
            // File contents first, then the directory entries that point at
            // them: a rotated segment or fresh arena file must not vanish
            // wholesale on a power cut.
            fs::File::open(&self.root)
                .map_err(io_err)?
                .sync_all()
                .map_err(io_err)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_storage_append_read_roundtrip() {
        let mut s = SimStorage::new();
        s.append("a", b"hello ").unwrap();
        s.append("a", b"world").unwrap();
        s.append("b", b"x").unwrap();
        assert_eq!(s.read("a").unwrap(), b"hello world");
        assert_eq!(s.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        s.truncate("a", 5).unwrap();
        assert_eq!(s.read("a").unwrap(), b"hello");
        s.remove("b").unwrap();
        assert!(s.read("b").is_err());
        s.sync().unwrap();
        assert_eq!(s.sync_count(), 1);
    }

    #[test]
    fn crash_point_tears_the_write_and_kills_the_handle() {
        let mut s = SimStorage::new();
        s.append("f", b"0123456789").unwrap();
        s.set_crash_point(4);
        // 10 more bytes requested, only 4 of budget left: torn at byte 4.
        assert_eq!(s.append("f", b"abcdefghij"), Err(StoreError::Crashed));
        assert!(s.crashed());
        assert_eq!(s.read("f"), Err(StoreError::Crashed));
        assert_eq!(s.sync(), Err(StoreError::Crashed));

        let rebooted = s.reboot();
        assert!(!rebooted.crashed());
        assert_eq!(rebooted.read("f").unwrap(), b"0123456789abcd");
    }

    #[test]
    fn crash_budget_spans_multiple_appends() {
        let mut s = SimStorage::new();
        s.set_crash_point(7);
        s.append("f", b"abc").unwrap(); // budget 4 left
        s.append("g", b"de").unwrap(); // budget 2 left
        assert_eq!(s.append("f", b"xyz"), Err(StoreError::Crashed));
        let r = s.reboot();
        assert_eq!(r.read("f").unwrap(), b"abcxy");
        assert_eq!(r.read("g").unwrap(), b"de");
    }

    #[test]
    fn clones_share_the_same_disk() {
        let mut a = SimStorage::new();
        let b = a.clone();
        a.append("f", b"shared").unwrap();
        assert_eq!(b.read("f").unwrap(), b"shared");
    }

    #[test]
    fn file_storage_roundtrip() {
        let dir = std::env::temp_dir().join(format!("avm-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut s = FileStorage::open(&dir).unwrap();
        s.append("seg-000000", b"abc").unwrap();
        s.append("seg-000000", b"def").unwrap();
        s.append("arena-000000", b"blob").unwrap();
        assert_eq!(s.read("seg-000000").unwrap(), b"abcdef");
        assert_eq!(
            s.list().unwrap(),
            vec!["arena-000000".to_string(), "seg-000000".to_string()]
        );
        s.sync().unwrap();
        s.truncate("seg-000000", 4).unwrap();
        assert_eq!(s.read("seg-000000").unwrap(), b"abcd");
        s.remove("arena-000000").unwrap();
        assert_eq!(s.list().unwrap(), vec!["seg-000000".to_string()]);
        s.sync().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
