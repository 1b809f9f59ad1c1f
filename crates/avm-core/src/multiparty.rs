//! Multi-party support: authenticator collection and evidence distribution
//! (paper §4.6).
//!
//! In a multi-player game or a federated system, the auditor of a machine
//! `M` needs authenticators that *other* users collected from `M`, and
//! evidence found by one user must be distributable to (and independently
//! checkable by) everyone else.

use std::collections::HashMap;

use avm_crypto::keys::VerifyingKey;
use avm_log::Authenticator;
use avm_vm::{GuestRegistry, VmImage};

use crate::audit::Evidence;

/// A per-auditor store of authenticators collected from other machines.
///
/// "When some user wants to audit a machine M, he needs to collect
/// authenticators from other users that may have communicated with M."
#[derive(Debug, Clone, Default)]
pub struct AuthenticatorStore {
    by_machine: HashMap<String, Vec<Authenticator>>,
}

impl AuthenticatorStore {
    /// Creates an empty store.
    pub fn new() -> AuthenticatorStore {
        AuthenticatorStore::default()
    }

    /// Records an authenticator received from `machine`.
    pub fn add(&mut self, machine: &str, auth: Authenticator) {
        let list = self.by_machine.entry(machine.to_string()).or_default();
        if !list.contains(&auth) {
            list.push(auth);
        }
    }

    /// Merges authenticators collected by another user (e.g. Charlie sends
    /// Alice everything he has collected about Bob before she audits Bob).
    pub fn merge_from(&mut self, other: &AuthenticatorStore) {
        for (machine, auths) in &other.by_machine {
            for a in auths {
                self.add(machine, a.clone());
            }
        }
    }

    /// All authenticators collected for `machine`, sorted by sequence number.
    pub fn for_machine(&self, machine: &str) -> Vec<Authenticator> {
        let mut v = self.by_machine.get(machine).cloned().unwrap_or_default();
        v.sort_by_key(|a| a.seq);
        v
    }

    /// Authenticators for `machine` with sequence numbers in `[from, to]`.
    pub fn for_machine_in_range(&self, machine: &str, from: u64, to: u64) -> Vec<Authenticator> {
        self.for_machine(machine)
            .into_iter()
            .filter(|a| a.seq >= from && a.seq <= to)
            .collect()
    }

    /// The highest sequence number committed to by `machine`, if any.
    pub fn latest_seq(&self, machine: &str) -> Option<u64> {
        self.by_machine
            .get(machine)
            .and_then(|v| v.iter().map(|a| a.seq).max())
    }

    /// Number of machines with collected authenticators.
    pub fn machine_count(&self) -> usize {
        self.by_machine.len()
    }
}

/// A pool of fault evidence shared among the honest participants.
///
/// "When one user obtains evidence of a fault, he may need to distribute
/// that evidence to other interested parties … who can verify it
/// independently; then both can decide never to play with Bob again."
#[derive(Default)]
pub struct EvidencePool {
    verified: HashMap<String, Vec<Evidence>>,
    rejected: u64,
}

impl EvidencePool {
    /// Creates an empty pool.
    pub fn new() -> EvidencePool {
        EvidencePool::default()
    }

    /// Submits evidence against a machine.  The pool verifies it
    /// independently before accepting it; bogus evidence is discarded.
    ///
    /// Returns `true` if the evidence was accepted.
    pub fn submit(
        &mut self,
        evidence: Evidence,
        machine_key: &VerifyingKey,
        reference: &VmImage,
        registry: &GuestRegistry,
    ) -> bool {
        if evidence.verify(machine_key, reference, registry) {
            self.verified
                .entry(evidence.machine.clone())
                .or_default()
                .push(evidence);
            true
        } else {
            self.rejected += 1;
            false
        }
    }

    /// True if verified evidence exists against `machine`.
    pub fn is_exposed(&self, machine: &str) -> bool {
        self.verified.contains_key(machine)
    }

    /// Verified evidence against `machine`.
    pub fn evidence_against(&self, machine: &str) -> &[Evidence] {
        self.verified
            .get(machine)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Number of submissions that failed independent verification.
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }
}

impl core::fmt::Debug for EvidencePool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EvidencePool")
            .field("machines_exposed", &self.verified.len())
            .field("rejected", &self.rejected)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avm_crypto::keys::{SignatureScheme, SigningKey};
    use avm_crypto::sha256::Digest;
    use avm_log::{EntryKind, LogEntry};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(seed: u64) -> SigningKey {
        let mut rng = StdRng::seed_from_u64(seed);
        SigningKey::generate(&mut rng, SignatureScheme::Rsa(512))
    }

    fn auth(k: &SigningKey, seq: u64) -> Authenticator {
        let entry = LogEntry::chained(&Digest::ZERO, seq, EntryKind::Send, vec![seq as u8]);
        Authenticator::create(k, &entry, Digest::ZERO)
    }

    #[test]
    fn store_collects_merges_and_filters() {
        let bob_key = key(1);
        let mut alice = AuthenticatorStore::new();
        let mut charlie = AuthenticatorStore::new();
        alice.add("bob", auth(&bob_key, 3));
        alice.add("bob", auth(&bob_key, 3)); // duplicate ignored
        charlie.add("bob", auth(&bob_key, 7));
        charlie.add("dave", auth(&key(2), 1));

        alice.merge_from(&charlie);
        assert_eq!(alice.machine_count(), 2);
        let bobs = alice.for_machine("bob");
        assert_eq!(bobs.len(), 2);
        assert_eq!(bobs[0].seq, 3);
        assert_eq!(bobs[1].seq, 7);
        assert_eq!(alice.latest_seq("bob"), Some(7));
        assert_eq!(alice.latest_seq("nobody"), None);
        assert_eq!(alice.for_machine_in_range("bob", 4, 10).len(), 1);
        assert!(alice.for_machine("nobody").is_empty());
    }

    #[test]
    fn evidence_pool_rejects_unverifiable_evidence() {
        use crate::error::FaultReason;
        use avm_vm::bytecode::assemble;
        use avm_vm::VmImage;

        let image = VmImage::bytecode("x", 4096, assemble("halt", 0).unwrap(), 0, 0);
        let bob_key = key(1);
        let mut pool = EvidencePool::new();
        // Fabricated evidence with an empty segment cannot be verified.
        let bogus = Evidence {
            machine: "bob".into(),
            fault: FaultReason::MissingLog,
            prev_hash: Digest::ZERO,
            segment: vec![],
            authenticators: vec![],
            reference_image: image.digest(),
        };
        assert!(!pool.submit(
            bogus,
            &bob_key.verifying_key(),
            &image,
            &GuestRegistry::new()
        ));
        assert!(!pool.is_exposed("bob"));
        assert_eq!(pool.rejected_count(), 1);
        assert!(pool.evidence_against("bob").is_empty());
        assert!(format!("{pool:?}").contains("rejected"));
    }
}
