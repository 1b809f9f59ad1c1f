//! A deterministic `sql-bench`-style workload generator.
//!
//! MySQL's `sql-bench` runs through insert, select, update and delete phases;
//! the generator below produces an equivalent deterministic request stream
//! (no randomness — determinism keeps the whole experiment replayable).

use crate::proto::DbRequest;

/// The benchmark phases, in `sql-bench` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadPhase {
    /// Bulk inserts.
    Insert,
    /// Point lookups.
    Select,
    /// Overwrites of existing records.
    Update,
    /// Deletions.
    Delete,
}

impl WorkloadPhase {
    /// All phases in execution order.
    pub const ALL: [WorkloadPhase; 4] = [
        WorkloadPhase::Insert,
        WorkloadPhase::Select,
        WorkloadPhase::Update,
        WorkloadPhase::Delete,
    ];
}

/// Deterministic request-stream generator.
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    rows: u64,
    issued: u64,
}

impl WorkloadGen {
    /// Creates a workload over `rows` logical rows.
    pub fn new(rows: u64) -> WorkloadGen {
        WorkloadGen {
            rows: rows.max(1),
            issued: 0,
        }
    }

    /// Number of requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The phase the next request belongs to, or `None` when exhausted.
    pub fn current_phase(&self) -> Option<WorkloadPhase> {
        let idx = self.issued / self.rows;
        WorkloadPhase::ALL.get(idx as usize).copied()
    }

    fn row_value(row: u64, version: u64) -> Vec<u8> {
        format!("row-{row}-v{version}-{}", "x".repeat(32)).into_bytes()
    }

    /// Produces the next request, or `None` when the workload is complete.
    pub fn next_request(&mut self) -> Option<DbRequest> {
        let phase = self.current_phase()?;
        let row = self.issued % self.rows;
        self.issued += 1;
        Some(match phase {
            WorkloadPhase::Insert => DbRequest::Put {
                key: format!("bench:{row:08}"),
                value: Self::row_value(row, 1),
            },
            WorkloadPhase::Select => DbRequest::Get {
                key: format!("bench:{row:08}"),
            },
            WorkloadPhase::Update => DbRequest::Put {
                key: format!("bench:{row:08}"),
                value: Self::row_value(row, 2),
            },
            WorkloadPhase::Delete => DbRequest::Delete {
                key: format!("bench:{row:08}"),
            },
        })
    }

    /// The next request already framed as a guest packet addressed to the
    /// server node `node` — the payload a churn driver wraps in a signed
    /// envelope and delivers to the recording AVMM.
    pub fn next_packet(&mut self, node: &str) -> Option<Vec<u8>> {
        use avm_wire::Encode;
        self.next_request()
            .map(|req| avm_vm::packet::encode_guest_packet(node, &req.encode_to_vec()))
    }
}

impl Iterator for WorkloadGen {
    type Item = DbRequest;

    fn next(&mut self) -> Option<DbRequest> {
        self.next_request()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_run_in_order_and_cover_all_rows() {
        let mut gen = WorkloadGen::new(10);
        assert_eq!(gen.current_phase(), Some(WorkloadPhase::Insert));
        let all: Vec<DbRequest> = (&mut gen).collect();
        assert_eq!(all.len(), 40);
        assert!(matches!(all[0], DbRequest::Put { .. }));
        assert!(matches!(all[10], DbRequest::Get { .. }));
        assert!(matches!(all[20], DbRequest::Put { .. }));
        assert!(matches!(all[30], DbRequest::Delete { .. }));
        assert_eq!(gen.current_phase(), None);
        assert_eq!(gen.issued(), 40);
    }

    #[test]
    fn generator_is_deterministic() {
        let a: Vec<DbRequest> = WorkloadGen::new(25).collect();
        let b: Vec<DbRequest> = WorkloadGen::new(25).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_rows_clamped_to_one() {
        let mut gen = WorkloadGen::new(0);
        assert!(gen.next_request().is_some());
        assert_eq!(gen.count(), 3, "one row through each of the four phases");
    }
}
