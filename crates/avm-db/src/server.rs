//! The database server guest kernel.

use std::collections::BTreeMap;

use avm_vm::packet::{encode_guest_packet, parse_guest_packet};
use avm_vm::{GuestCtx, GuestKernel, GuestStep, VmError};
use avm_wire::{Decode, Encode, Reader, WireResult, Writer};

use crate::proto::{DbRequest, DbResponse};

/// Abstract step cost of executing one request.
const REQUEST_COST: u64 = 300;

/// Configuration of the database guest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbConfig {
    /// Node name of the client the responses are addressed to.
    pub client: String,
    /// Flush the write-ahead region to disk after this many mutations.
    pub flush_every: u64,
}

impl DbConfig {
    /// Creates a configuration replying to `client`.
    pub fn new(client: &str) -> DbConfig {
        DbConfig {
            client: client.to_string(),
            flush_every: 8,
        }
    }
}

impl Encode for DbConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.client);
        w.put_varint(self.flush_every);
    }
}

impl Decode for DbConfig {
    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(DbConfig {
            client: r.get_string()?,
            flush_every: r.get_varint()?,
        })
    }
}

/// The database server guest kernel: an ordered key-value store with an
/// append-only on-disk log.
#[derive(Debug, Clone)]
pub struct DbServer {
    cfg: DbConfig,
    records: BTreeMap<String, Vec<u8>>,
    mutations: u64,
    requests_served: u64,
    disk_cursor: u64,
}

impl DbServer {
    /// Creates an empty database.
    pub fn new(cfg: DbConfig) -> DbServer {
        DbServer {
            cfg,
            records: BTreeMap::new(),
            mutations: 0,
            requests_served: 0,
            disk_cursor: 0,
        }
    }

    /// Number of requests served.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    fn execute(&mut self, req: DbRequest, ctx: &mut GuestCtx<'_>) -> DbResponse {
        self.requests_served += 1;
        match req {
            DbRequest::Put { key, value } => {
                self.append_wal(ctx, key.as_bytes(), &value);
                self.records.insert(key, value);
                self.mutations += 1;
                DbResponse::Ok
            }
            DbRequest::Get { key } => match self.records.get(&key) {
                Some(v) => DbResponse::Value(v.clone()),
                None => DbResponse::NotFound,
            },
            DbRequest::Delete { key } => {
                self.append_wal(ctx, key.as_bytes(), b"");
                self.mutations += 1;
                if self.records.remove(&key).is_some() {
                    DbResponse::Ok
                } else {
                    DbResponse::NotFound
                }
            }
            DbRequest::Count { prefix } => {
                let n = self
                    .records
                    .range(prefix.clone()..)
                    .take_while(|(k, _)| k.starts_with(&prefix))
                    .count() as u64;
                DbResponse::Count(n)
            }
        }
    }

    /// Appends a write-ahead record to the virtual disk so snapshots contain
    /// real, growing disk state.
    fn append_wal(&mut self, ctx: &mut GuestCtx<'_>, key: &[u8], value: &[u8]) {
        let mut entry = Vec::with_capacity(key.len() + value.len() + 8);
        entry.extend_from_slice(&(key.len() as u32).to_le_bytes());
        entry.extend_from_slice(key);
        entry.extend_from_slice(&(value.len() as u32).to_le_bytes());
        entry.extend_from_slice(value);
        let disk_size = ctx.disk_size();
        if self.disk_cursor + entry.len() as u64 > disk_size {
            self.disk_cursor = 0; // wrap the WAL region
        }
        if ctx.disk_write(self.disk_cursor, &entry).is_ok() {
            self.disk_cursor += entry.len() as u64;
        }
    }
}

impl GuestKernel for DbServer {
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> GuestStep {
        let Some(_now) = ctx.read_clock() else {
            return GuestStep::WaitingClock;
        };
        let mut served = 0u64;
        while let Some(pkt) = ctx.recv_packet() {
            let Some((_dest, body)) = parse_guest_packet(&pkt) else {
                continue;
            };
            let Ok(req) = DbRequest::decode_exact(body) else {
                continue;
            };
            let resp = self.execute(req, ctx);
            let reply = encode_guest_packet(&self.cfg.client.clone(), &resp.encode_to_vec());
            ctx.send_packet(reply);
            served += 1;
        }
        if served == 0 {
            GuestStep::Idle
        } else {
            GuestStep::Ran {
                cost: REQUEST_COST * served,
            }
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.cfg.encode(&mut w);
        w.put_varint(self.records.len() as u64);
        for (k, v) in &self.records {
            w.put_str(k);
            w.put_bytes(v);
        }
        w.put_u64(self.mutations);
        w.put_u64(self.requests_served);
        w.put_u64(self.disk_cursor);
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), VmError> {
        fn inner(r: &mut Reader<'_>) -> WireResult<DbServer> {
            let cfg = DbConfig::decode(r)?;
            let mut s = DbServer::new(cfg);
            let n = r.get_varint()?;
            for _ in 0..n {
                let k = r.get_string()?;
                let v = r.get_bytes()?.to_vec();
                s.records.insert(k, v);
            }
            s.mutations = r.get_u64()?;
            s.requests_served = r.get_u64()?;
            s.disk_cursor = r.get_u64()?;
            Ok(s)
        }
        let mut r = Reader::new(bytes);
        let restored = inner(&mut r).map_err(|_| VmError::CorruptState("db server state"))?;
        if !r.is_empty() {
            return Err(VmError::CorruptState("trailing bytes in db server state"));
        }
        *self = restored;
        Ok(())
    }

    fn name(&self) -> &str {
        "db-server"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avm_vm::devices::DeviceState;
    use avm_vm::mem::GuestMemory;
    use avm_vm::VmExit;

    fn send_request(
        server: &mut DbServer,
        dev: &mut DeviceState,
        mem: &mut GuestMemory,
        req: DbRequest,
    ) -> DbResponse {
        dev.nic
            .inject(encode_guest_packet("server", &req.encode_to_vec()));
        loop {
            let mut ctx = GuestCtx::new(mem, dev);
            let step = server.step(&mut ctx);
            let outs = ctx.into_outputs();
            match step {
                GuestStep::WaitingClock => dev.clock.provide(1_000).unwrap(),
                _ => {
                    for e in outs {
                        if let VmExit::NetTx(p) = e {
                            let (_, body) = parse_guest_packet(&p).unwrap();
                            return DbResponse::decode_exact(body).unwrap();
                        }
                    }
                    panic!("no response produced");
                }
            }
        }
    }

    fn env() -> (DbServer, DeviceState, GuestMemory) {
        (
            DbServer::new(DbConfig::new("client")),
            DeviceState::new(&vec![0u8; 64 * 1024]),
            GuestMemory::new(4096),
        )
    }

    #[test]
    fn put_get_delete_cycle() {
        let (mut server, mut dev, mut mem) = env();
        let r = send_request(
            &mut server,
            &mut dev,
            &mut mem,
            DbRequest::Put {
                key: "users:1".into(),
                value: b"alice".to_vec(),
            },
        );
        assert_eq!(r, DbResponse::Ok);
        let r = send_request(
            &mut server,
            &mut dev,
            &mut mem,
            DbRequest::Get {
                key: "users:1".into(),
            },
        );
        assert_eq!(r, DbResponse::Value(b"alice".to_vec()));
        let r = send_request(
            &mut server,
            &mut dev,
            &mut mem,
            DbRequest::Delete {
                key: "users:1".into(),
            },
        );
        assert_eq!(r, DbResponse::Ok);
        let r = send_request(
            &mut server,
            &mut dev,
            &mut mem,
            DbRequest::Get {
                key: "users:1".into(),
            },
        );
        assert_eq!(r, DbResponse::NotFound);
        assert_eq!(server.requests_served(), 4);
    }

    #[test]
    fn count_with_prefix() {
        let (mut server, mut dev, mut mem) = env();
        for i in 0..10 {
            send_request(
                &mut server,
                &mut dev,
                &mut mem,
                DbRequest::Put {
                    key: format!("users:{i}"),
                    value: vec![i],
                },
            );
        }
        send_request(
            &mut server,
            &mut dev,
            &mut mem,
            DbRequest::Put {
                key: "orders:1".into(),
                value: vec![9],
            },
        );
        let r = send_request(
            &mut server,
            &mut dev,
            &mut mem,
            DbRequest::Count {
                prefix: "users:".into(),
            },
        );
        assert_eq!(r, DbResponse::Count(10));
        assert_eq!(server.records.len(), 11);
    }

    #[test]
    fn mutations_dirty_the_disk() {
        let (mut server, mut dev, mut mem) = env();
        assert!(dev.disk.leaves().dirty_leaves().is_empty());
        send_request(
            &mut server,
            &mut dev,
            &mut mem,
            DbRequest::Put {
                key: "k".into(),
                value: vec![0u8; 128],
            },
        );
        assert!(!dev.disk.leaves().dirty_leaves().is_empty());
    }

    #[test]
    fn idle_without_requests() {
        let (mut server, mut dev, mut mem) = env();
        dev.clock.guest_read();
        dev.clock.provide(5).unwrap();
        let mut ctx = GuestCtx::new(&mut mem, &mut dev);
        assert_eq!(server.step(&mut ctx), GuestStep::Idle);
    }

    #[test]
    fn state_roundtrip() {
        let (mut server, mut dev, mut mem) = env();
        send_request(
            &mut server,
            &mut dev,
            &mut mem,
            DbRequest::Put {
                key: "a".into(),
                value: b"1".to_vec(),
            },
        );
        let state = server.save_state();
        let mut restored = DbServer::new(DbConfig::new("x"));
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.save_state(), state);
        assert_eq!(restored.records.len(), 1);
        assert!(restored.restore_state(&state[..2]).is_err());
        assert_eq!(restored.name(), "db-server");
    }
}
