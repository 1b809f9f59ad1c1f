//! A small database server guest and an `sql-bench`-style workload.
//!
//! The paper's spot-checking experiment (§6.12, Figure 9) runs a MySQL
//! server in one AVM and a client running MySQL's `sql-bench` in another,
//! for 75 minutes, with a snapshot every five minutes.  This crate provides
//! the reproduction's stand-in: a deterministic key-value/record store guest
//! ([`DbServer`]) that persists an append-only log to its virtual disk (so
//! incremental disk snapshots have real content), plus a deterministic
//! workload generator ([`workload::WorkloadGen`]) that produces the
//! insert/select/update/delete phases of `sql-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;
pub mod server;
pub mod workload;

pub use proto::{DbRequest, DbResponse};
pub use server::DbServer;
pub use workload::{WorkloadGen, WorkloadPhase};

use avm_vm::{GuestRegistry, VmError, VmImage};
use avm_wire::Decode;

/// Registry name of the database server guest.
pub const DB_PROGRAM: &str = "avm-db-server";
/// Guest RAM size used by database images.
pub const DB_MEM_SIZE: u64 = 512 * 1024;
/// Virtual disk size used by database images.
pub const DB_DISK_SIZE: usize = 256 * 1024;

/// Returns a guest registry with the database server registered.
pub fn db_registry() -> GuestRegistry {
    let mut reg = GuestRegistry::new();
    reg.register(DB_PROGRAM, |config| {
        let cfg = server::DbConfig::decode_exact(config)
            .map_err(|_| VmError::InvalidImage("bad db config".to_string()))?;
        Ok(Box::new(DbServer::new(cfg)))
    });
    reg
}

/// Builds the database server image.
pub fn db_image(cfg: &server::DbConfig) -> VmImage {
    use avm_wire::Encode;
    VmImage::native("db-server", DB_MEM_SIZE, DB_PROGRAM, cfg.encode_to_vec())
        .with_disk(vec![0u8; DB_DISK_SIZE])
}

#[cfg(test)]
mod tests {
    use super::*;
    use avm_wire::Encode;

    #[test]
    fn registry_and_image_wire_up() {
        let cfg = server::DbConfig::new("client");
        let reg = db_registry();
        assert!(reg.instantiate(DB_PROGRAM, &cfg.encode_to_vec()).is_ok());
        assert!(reg.instantiate(DB_PROGRAM, b"junk").is_err());
        let img = db_image(&cfg);
        assert_eq!(img.disk().len(), DB_DISK_SIZE);
        assert_ne!(
            img.digest(),
            db_image(&server::DbConfig::new("other")).digest()
        );
    }
}
