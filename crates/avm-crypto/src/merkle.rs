//! Merkle hash trees over snapshot state.
//!
//! The AVMM "maintains a hash tree over the state; after each snapshot, it
//! updates the tree and then records the top-level value in the log"
//! (paper §4.4).  Auditors later download only the parts of the state that
//! replay actually touches and authenticate them against the recorded root
//! using inclusion proofs.
//!
//! # Incremental updates and the invalidation contract
//!
//! [`MerkleTree`] is *persistent*: it keeps every interior level in memory so
//! a leaf replacement only recomputes the O(log n) path to the root
//! ([`MerkleTree::update_leaf_hash`]), and a batch of `d` dirty leaves only
//! recomputes the union of their paths ([`MerkleTree::update_leaf_hashes`] —
//! shared parents are hashed once per level, so a snapshot with `d` dirty
//! pages costs O(d + log n) node hashes rather than O(n)).
//!
//! The contract with callers that cache a tree between snapshots (see
//! `avm-core`'s `StateTreeCache`): every leaf whose underlying data may have
//! changed since the tree was last synchronised **must** be passed to an
//! update call.  The tree itself has no way to detect stale leaves; the
//! VM layer's dirty bits are the source of truth for which leaves to refresh,
//! and updating a leaf with an unchanged hash is always safe (idempotent).

use crate::sha256::{sha256_concat, sha256_multi_prefixed, Digest, DIGEST_LEN};

/// Domain-separation prefixes so leaves can never be confused with nodes.
const LEAF_PREFIX: &[u8] = &[0x00];
const NODE_PREFIX: &[u8] = &[0x01];

/// Hashes a leaf value.
pub fn leaf_hash(data: &[u8]) -> Digest {
    sha256_concat(&[LEAF_PREFIX, data])
}

/// Hashes many leaf values with the multi-buffer core; bit-identical to
/// mapping [`leaf_hash`] over the inputs.
pub fn leaf_hashes(leaves: &[&[u8]]) -> Vec<Digest> {
    sha256_multi_prefixed(LEAF_PREFIX, leaves)
}

/// Hashes two child digests into their parent.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[NODE_PREFIX, left.as_bytes(), right.as_bytes()])
}

/// Hashes many `(left, right)` child pairs into their parents with the
/// multi-buffer core; bit-identical to mapping [`node_hash`].
fn node_hashes(pairs: &[(Digest, Digest)]) -> Vec<Digest> {
    let bodies: Vec<[u8; 2 * DIGEST_LEN]> = pairs
        .iter()
        .map(|(l, r)| {
            let mut body = [0u8; 2 * DIGEST_LEN];
            body[..DIGEST_LEN].copy_from_slice(l.as_bytes());
            body[DIGEST_LEN..].copy_from_slice(r.as_bytes());
            body
        })
        .collect();
    let slices: Vec<&[u8]> = bodies.iter().map(|b| b.as_slice()).collect();
    sha256_multi_prefixed(NODE_PREFIX, &slices)
}

/// A Merkle tree over a fixed number of leaves, supporting leaf updates.
///
/// The tree is stored as a flat vector of levels; level 0 holds the leaf
/// hashes.  When the leaf count is not a power of two, odd nodes are promoted
/// unchanged (the usual "duplicate-free" construction).
#[derive(Debug, Clone)]
pub struct MerkleTree {
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds a tree from raw leaf data.
    pub fn from_leaves<T: AsRef<[u8]>>(leaves: &[T]) -> MerkleTree {
        let slices: Vec<&[u8]> = leaves.iter().map(|l| l.as_ref()).collect();
        Self::from_leaf_hashes(leaf_hashes(&slices))
    }

    /// Builds a tree from already-hashed leaves.
    pub fn from_leaf_hashes(hashes: Vec<Digest>) -> MerkleTree {
        let mut levels = vec![hashes];
        loop {
            let prev = levels.last().expect("at least one level");
            if prev.len() <= 1 {
                break;
            }
            let pairs: Vec<(Digest, Digest)> = prev
                .chunks_exact(2)
                .map(|pair| (pair[0], pair[1]))
                .collect();
            let mut next = node_hashes(&pairs);
            if prev.len() % 2 == 1 {
                next.push(prev[prev.len() - 1]);
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels.first().map_or(0, |l| l.len())
    }

    /// Root digest; for an empty tree this is the hash of the empty string leaf.
    pub fn root(&self) -> Digest {
        match self.levels.last().and_then(|l| l.first()) {
            Some(d) => *d,
            None => leaf_hash(&[]),
        }
    }

    /// Returns the hash of leaf `index`.
    pub fn leaf(&self, index: usize) -> Option<Digest> {
        self.levels.first().and_then(|l| l.get(index)).copied()
    }

    /// Every leaf hash, in leaf order.
    pub fn leaves(&self) -> &[Digest] {
        self.levels.first().map_or(&[], |l| l.as_slice())
    }

    /// Replaces leaf `index` with an already-computed hash and updates the
    /// path to the root.
    ///
    /// Returns `false` if the index is out of range.
    pub fn update_leaf_hash(&mut self, index: usize, hash: Digest) -> bool {
        if self.levels.is_empty() || index >= self.levels[0].len() {
            return false;
        }
        self.levels[0][index] = hash;
        let mut idx = index;
        for level in 0..self.levels.len() - 1 {
            idx /= 2;
            let lower = &self.levels[level];
            let left = lower[idx * 2];
            let parent = if idx * 2 + 1 < lower.len() {
                node_hash(&left, &lower[idx * 2 + 1])
            } else {
                left
            };
            self.levels[level + 1][idx] = parent;
        }
        true
    }

    /// Replaces a batch of leaves and recomputes each affected interior node
    /// exactly once per level.
    ///
    /// For `d` updated leaves this costs O(d + log n) node hashes (the union
    /// of the d root paths), versus O(d · log n) for repeated
    /// [`MerkleTree::update_leaf_hash`] calls when the dirty leaves cluster.
    /// Duplicate indices are allowed; the last hash for an index wins.
    ///
    /// Returns `false` (and applies nothing) if any index is out of range.
    pub fn update_leaf_hashes(&mut self, updates: &[(usize, Digest)]) -> bool {
        if updates.is_empty() {
            return true;
        }
        let Some(leaf_level) = self.levels.first() else {
            return false;
        };
        let leaf_count = leaf_level.len();
        if updates.iter().any(|(i, _)| *i >= leaf_count) {
            return false;
        }
        let mut touched: Vec<usize> = Vec::with_capacity(updates.len());
        for &(i, hash) in updates {
            self.levels[0][i] = hash;
            touched.push(i);
        }
        touched.sort_unstable();
        touched.dedup();
        for level in 0..self.levels.len() - 1 {
            // Map touched node indices to their parents, deduplicating as we
            // go (the list stays sorted, so consecutive duplicates suffice).
            let mut parents: Vec<usize> = Vec::with_capacity(touched.len());
            for &idx in &touched {
                let parent = idx / 2;
                if parents.last() != Some(&parent) {
                    parents.push(parent);
                }
            }
            let (lower, upper) = {
                let (a, b) = self.levels.split_at_mut(level + 1);
                (&a[level], &mut b[0])
            };
            // Hash every full parent pair in one multi-buffer batch; an odd
            // trailing node is promoted unchanged as usual.
            let full: Vec<usize> = parents
                .iter()
                .copied()
                .filter(|&p| p * 2 + 1 < lower.len())
                .collect();
            let pairs: Vec<(Digest, Digest)> = full
                .iter()
                .map(|&p| (lower[p * 2], lower[p * 2 + 1]))
                .collect();
            for (&p, hash) in full.iter().zip(node_hashes(&pairs)) {
                upper[p] = hash;
            }
            for &p in &parents {
                if p * 2 + 1 >= lower.len() {
                    upper[p] = lower[p * 2];
                }
            }
            touched = parents;
        }
        true
    }

    /// Produces an inclusion proof for leaf `index`.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if self.levels.is_empty() || index >= self.levels[0].len() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut idx = index;
        for level in 0..self.levels.len() - 1 {
            let nodes = &self.levels[level];
            let sibling_idx = idx ^ 1;
            if sibling_idx < nodes.len() {
                siblings.push(ProofStep {
                    hash: nodes[sibling_idx],
                    sibling_on_left: sibling_idx < idx,
                });
            }
            idx /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            siblings,
        })
    }
}

/// One step of an inclusion proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofStep {
    /// Sibling hash to combine with.
    pub hash: Digest,
    /// Whether the sibling is the left child.
    pub sibling_on_left: bool,
}

/// Inclusion proof: the path of sibling hashes from a leaf up to the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Sibling hashes, bottom-up.
    pub siblings: Vec<ProofStep>,
}

impl MerkleProof {
    /// Verifies that `leaf_data` at this proof's index yields `root`.
    pub fn verify(&self, leaf_data: &[u8], root: &Digest) -> bool {
        self.verify_hash(leaf_hash(leaf_data), root)
    }

    /// Verifies starting from an already-hashed leaf.
    pub fn verify_hash(&self, leaf: Digest, root: &Digest) -> bool {
        let mut acc = leaf;
        for step in &self.siblings {
            acc = if step.sibling_on_left {
                node_hash(&step.hash, &acc)
            } else {
                node_hash(&acc, &step.hash)
            };
        }
        acc == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("page-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::from_leaves(&[b"only".to_vec()]);
        assert_eq!(tree.root(), leaf_hash(b"only"));
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn empty_tree_has_defined_root() {
        let tree = MerkleTree::from_leaves::<Vec<u8>>(&[]);
        assert_eq!(tree.root(), leaf_hash(&[]));
        assert_eq!(tree.leaf_count(), 0);
        assert!(tree.leaves().is_empty());
        assert!(tree.prove(0).is_none());
    }

    #[test]
    fn two_leaves_match_manual_computation() {
        let tree = MerkleTree::from_leaves(&[b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(tree.root(), node_hash(&leaf_hash(b"a"), &leaf_hash(b"b")));
        assert_eq!(tree.leaves(), [leaf_hash(b"a"), leaf_hash(b"b")]);
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=17 {
            let data = leaves(n);
            let tree = MerkleTree::from_leaves(&data);
            let root = tree.root();
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                assert!(proof.verify(leaf, &root), "n={n} leaf={i}");
                // A proof for the wrong data must fail.
                assert!(!proof.verify(b"wrong", &root), "n={n} leaf={i}");
            }
        }
    }

    #[test]
    fn proof_against_wrong_root_fails() {
        let data = leaves(8);
        let tree = MerkleTree::from_leaves(&data);
        let other = MerkleTree::from_leaves(&leaves(9));
        let proof = tree.prove(3).unwrap();
        assert!(!proof.verify(&data[3], &other.root()));
    }

    #[test]
    fn update_leaf_changes_root_consistently() {
        let data = leaves(10);
        let mut tree = MerkleTree::from_leaves(&data);
        let before = tree.root();
        assert!(tree.update_leaf_hash(4, leaf_hash(b"new content")));
        let after = tree.root();
        assert_ne!(before, after);

        // Rebuilding from scratch with the same change yields the same root.
        let mut rebuilt_data = data.clone();
        rebuilt_data[4] = b"new content".to_vec();
        let rebuilt = MerkleTree::from_leaves(&rebuilt_data);
        assert_eq!(after, rebuilt.root());

        // Proofs issued after the update verify against the new root.
        let proof = tree.prove(4).unwrap();
        assert!(proof.verify(b"new content", &after));
    }

    #[test]
    fn update_out_of_range_rejected() {
        let mut tree = MerkleTree::from_leaves(&leaves(3));
        assert!(!tree.update_leaf_hash(3, leaf_hash(b"nope")));
    }

    #[test]
    fn odd_shapes_update_consistency() {
        for n in [3usize, 5, 6, 7, 9, 11, 13] {
            let data = leaves(n);
            let mut tree = MerkleTree::from_leaves(&data);
            for i in 0..n {
                tree.update_leaf_hash(i, leaf_hash(format!("updated-{i}").as_bytes()));
            }
            let rebuilt: Vec<Vec<u8>> = (0..n)
                .map(|i| format!("updated-{i}").into_bytes())
                .collect();
            assert_eq!(
                tree.root(),
                MerkleTree::from_leaves(&rebuilt).root(),
                "n={n}"
            );
        }
    }

    #[test]
    fn batch_update_matches_rebuild_and_single_updates() {
        for n in [1usize, 2, 3, 5, 8, 11, 16, 17, 31] {
            let data = leaves(n);
            let mut batch_tree = MerkleTree::from_leaves(&data);
            let mut single_tree = batch_tree.clone();
            // Update a spread of leaves: first, last, and every third.
            let updates: Vec<(usize, Digest)> = (0..n)
                .filter(|i| *i == 0 || *i == n - 1 || i % 3 == 0)
                .map(|i| (i, leaf_hash(format!("upd-{i}").as_bytes())))
                .collect();
            assert!(batch_tree.update_leaf_hashes(&updates));
            for &(i, h) in &updates {
                assert!(single_tree.update_leaf_hash(i, h));
            }
            let mut rebuilt = data.clone();
            for &(i, _) in &updates {
                rebuilt[i] = format!("upd-{i}").into_bytes();
            }
            let rebuilt = MerkleTree::from_leaves(&rebuilt);
            assert_eq!(batch_tree.root(), rebuilt.root(), "n={n}");
            assert_eq!(single_tree.root(), rebuilt.root(), "n={n}");
        }
    }

    #[test]
    fn batch_update_rejects_out_of_range_atomically() {
        let mut tree = MerkleTree::from_leaves(&leaves(4));
        let before = tree.root();
        let updates = [(1, leaf_hash(b"x")), (4, leaf_hash(b"oob"))];
        assert!(!tree.update_leaf_hashes(&updates));
        assert_eq!(tree.root(), before, "failed batch must not change the tree");
        // Empty batch is a no-op success.
        assert!(tree.update_leaf_hashes(&[]));
        // Duplicate indices: last hash wins.
        let mut dup = tree.clone();
        assert!(dup.update_leaf_hashes(&[(2, leaf_hash(b"a")), (2, leaf_hash(b"b"))]));
        let mut direct = tree.clone();
        direct.update_leaf_hash(2, leaf_hash(b"b"));
        assert_eq!(dup.root(), direct.root());
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A node hash over (a,b) must differ from a leaf hash of the concatenation.
        let a = leaf_hash(b"a");
        let b = leaf_hash(b"b");
        let node = node_hash(&a, &b);
        let mut concat = Vec::new();
        concat.extend_from_slice(a.as_bytes());
        concat.extend_from_slice(b.as_bytes());
        assert_ne!(node, leaf_hash(&concat));
    }
}
