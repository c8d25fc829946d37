//! The candidate hash tree (Agrawal & Srikant), used by both YAFIM
//! (broadcast to the workers, paper §IV.A Phase II) and the MapReduce
//! baseline to find which candidate `k`-itemsets occur in a transaction
//! without testing every candidate.
//!
//! Interior nodes hash the transaction's items at the current depth; leaves
//! hold candidate itemsets to be verified with a subset test. Because the
//! descent branches on *every* remaining transaction item, the same leaf can
//! be reached along several paths — a per-call leaf stamp prevents double
//! counting.
//!
//! Traversal work is reported as a node-visit count, which the engines feed
//! into the virtual-time cost model.

use crate::types::{Item, Itemset};
use yafim_cluster::{fx_hash64, ByteSize};

/// Default fan-out of interior nodes.
pub const DEFAULT_BRANCHING: usize = 8;
/// Default maximum candidates per leaf before it splits.
pub const DEFAULT_MAX_LEAF: usize = 16;

enum Node {
    Interior { children: Vec<Option<u32>> },
    Leaf { entries: Vec<u32> },
}

/// A hash tree over candidate itemsets, all of the same length `k`.
///
/// ```
/// use yafim_core::{HashTree, Itemset, MatchScratch};
///
/// let tree = HashTree::build(vec![
///     Itemset::new(vec![1, 2]),
///     Itemset::new(vec![2, 3]),
///     Itemset::new(vec![4, 5]),
/// ]);
/// let mut scratch = MatchScratch::default();
/// let mut found = Vec::new();
/// tree.for_each_match(&[1, 2, 3], &mut scratch, |idx| {
///     found.push(tree.candidates()[idx].clone());
/// });
/// found.sort();
/// assert_eq!(found, vec![Itemset::new(vec![1, 2]), Itemset::new(vec![2, 3])]);
/// ```
pub struct HashTree {
    k: usize,
    branching: usize,
    max_leaf: usize,
    nodes: Vec<Node>,
    candidates: Vec<Itemset>,
}

/// Reusable per-caller scratch space for [`HashTree::for_each_match`]
/// (leaf-visit stamps). One per task; never shared across threads.
#[derive(Default)]
pub struct MatchScratch {
    stamp: Vec<u32>,
    version: u32,
}

impl HashTree {
    /// Build a tree over `candidates`, choosing the branching factor
    /// adaptively: interior nodes can only split down to depth `k`, so the
    /// fan-out must satisfy `branching^k ≈ candidates / max_leaf` or leaves
    /// at depth `k` degenerate into long linear scans (acute for the huge
    /// `C2` of sparse datasets like T10I4D100K).
    ///
    /// Every candidate must have the same length; panics otherwise.
    pub fn build(candidates: Vec<Itemset>) -> Self {
        let k = candidates.first().map_or(1, Itemset::len).max(1);
        let target_leaves = (candidates.len() as f64 / DEFAULT_MAX_LEAF as f64).max(1.0);
        let branching = target_leaves
            .powf(1.0 / k as f64)
            .ceil()
            .clamp(DEFAULT_BRANCHING as f64, 512.0) as usize;
        Self::with_params(candidates, branching, DEFAULT_MAX_LEAF)
    }

    /// Build with explicit branching factor and leaf capacity.
    pub fn with_params(candidates: Vec<Itemset>, branching: usize, max_leaf: usize) -> Self {
        assert!(branching >= 2, "branching must be at least 2");
        assert!(max_leaf >= 1, "leaves must hold at least one candidate");
        let k = candidates.first().map_or(0, Itemset::len);
        assert!(
            candidates.iter().all(|c| c.len() == k),
            "all candidates must have equal length"
        );
        let mut tree = HashTree {
            k,
            branching,
            max_leaf,
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
            }],
            candidates,
        };
        for idx in 0..tree.candidates.len() {
            tree.insert(idx as u32, 0, 0);
        }
        tree
    }

    /// Candidate length `k` (0 for an empty tree).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The candidates, in insertion order — match callbacks receive indices
    /// into this slice.
    pub fn candidates(&self) -> &[Itemset] {
        &self.candidates
    }

    /// Consume the tree, handing back the candidate list without cloning —
    /// how the driver drains the broadcast tree once per pass.
    pub fn into_candidates(self) -> Vec<Itemset> {
        self.candidates
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the tree holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Number of tree nodes (observability / tests).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn hash_slot(&self, item: Item) -> usize {
        (fx_hash64(&item) % self.branching as u64) as usize
    }

    fn insert(&mut self, cand: u32, node: u32, depth: usize) {
        let is_leaf = matches!(self.nodes[node as usize], Node::Leaf { .. });
        if is_leaf {
            let full = match &mut self.nodes[node as usize] {
                Node::Leaf { entries } => {
                    entries.push(cand);
                    entries.len() > self.max_leaf
                }
                Node::Interior { .. } => unreachable!("checked leaf above"),
            };
            if full && depth < self.k {
                self.split_leaf(node, depth);
            }
            return;
        }

        let item = self.candidates[cand as usize].items()[depth];
        let slot = self.hash_slot(item);
        let existing = match &self.nodes[node as usize] {
            Node::Interior { children } => children[slot],
            Node::Leaf { .. } => unreachable!("checked interior above"),
        };
        let child = match existing {
            Some(c) => c,
            None => {
                let id = self.nodes.len() as u32;
                self.nodes.push(Node::Leaf {
                    entries: Vec::new(),
                });
                match &mut self.nodes[node as usize] {
                    Node::Interior { children } => children[slot] = Some(id),
                    Node::Leaf { .. } => unreachable!("node was interior"),
                }
                id
            }
        };
        self.insert(cand, child, depth + 1);
    }

    fn split_leaf(&mut self, node: u32, depth: usize) {
        let entries = match std::mem::replace(
            &mut self.nodes[node as usize],
            Node::Interior {
                children: vec![None; self.branching],
            },
        ) {
            Node::Leaf { entries } => entries,
            Node::Interior { .. } => unreachable!("split target is a leaf"),
        };
        for cand in entries {
            self.insert(cand, node, depth);
        }
    }

    /// Invoke `f(candidate index)` once for every candidate contained in the
    /// sorted transaction `t`. Returns the number of tree-node visits plus
    /// subset checks performed (the CPU work estimate).
    pub fn for_each_match(
        &self,
        t: &[Item],
        scratch: &mut MatchScratch,
        mut f: impl FnMut(usize),
    ) -> u64 {
        if self.k == 0 || t.len() < self.k {
            return 0;
        }
        scratch.version = scratch.version.wrapping_add(1);
        if scratch.version == 0 {
            // Wrapped: clear stale stamps that would now falsely match.
            scratch.stamp.clear();
            scratch.version = 1;
        }
        scratch.stamp.resize(self.nodes.len(), 0);
        let mut visits = 0u64;
        self.descend(0, t, 0, 1, scratch, &mut visits, &mut f);
        visits
    }

    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        node: u32,
        t: &[Item],
        pos: usize,
        depth: usize, // 1-based: items consumed on the path so far
        scratch: &mut MatchScratch,
        visits: &mut u64,
        f: &mut impl FnMut(usize),
    ) {
        *visits += 1;
        match &self.nodes[node as usize] {
            Node::Leaf { entries } => {
                if scratch.stamp[node as usize] == scratch.version {
                    return; // already checked for this transaction
                }
                scratch.stamp[node as usize] = scratch.version;
                for &cand in entries {
                    *visits += 1;
                    if self.candidates[cand as usize].is_subset_of_sorted(t) {
                        f(cand as usize);
                    }
                }
            }
            Node::Interior { children } => {
                // Descend on every transaction item that could be the
                // `depth`-th item of a candidate, leaving enough items to
                // complete one.
                let remaining_needed = self.k - depth;
                let last = t.len() - remaining_needed;
                for i in pos..last {
                    if let Some(child) = children[self.hash_slot(t[i])] {
                        self.descend(child, t, i + 1, depth + 1, scratch, visits, f);
                    }
                }
            }
        }
    }

    /// Brute-force reference: indices of all candidates contained in `t`.
    /// Used by tests and the hash-tree ablation benchmark.
    pub fn matches_naive(&self, t: &[Item]) -> Vec<usize> {
        self.candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_subset_of_sorted(t))
            .map(|(i, _)| i)
            .collect()
    }
}

impl ByteSize for HashTree {
    fn byte_size(&self) -> u64 {
        let cands: u64 = self.candidates.iter().map(ByteSize::byte_size).sum();
        cands + 16 * self.nodes.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets(raw: &[&[Item]]) -> Vec<Itemset> {
        raw.iter().map(|s| Itemset::new(s.to_vec())).collect()
    }

    fn sorted_matches(tree: &HashTree, t: &[Item]) -> Vec<usize> {
        let mut s = MatchScratch::default();
        let mut out = Vec::new();
        tree.for_each_match(t, &mut s, |i| out.push(i));
        out.sort_unstable();
        out
    }

    #[test]
    fn empty_tree_matches_nothing() {
        let tree = HashTree::build(Vec::new());
        assert!(tree.is_empty());
        assert_eq!(sorted_matches(&tree, &[1, 2, 3]), Vec::<usize>::new());
    }

    #[test]
    fn single_candidate() {
        let tree = HashTree::build(sets(&[&[1, 3]]));
        assert_eq!(sorted_matches(&tree, &[1, 2, 3]), vec![0]);
        assert_eq!(sorted_matches(&tree, &[1, 2]), Vec::<usize>::new());
        assert_eq!(sorted_matches(&tree, &[3]), Vec::<usize>::new());
    }

    #[test]
    fn matches_agree_with_naive_small() {
        let cands = sets(&[&[1, 2], &[1, 3], &[2, 3], &[2, 4], &[3, 4]]);
        let tree = HashTree::build(cands);
        for t in [
            vec![1, 2, 3],
            vec![2, 3, 4],
            vec![1, 4],
            vec![],
            vec![1, 2, 3, 4, 5],
        ] {
            let mut naive = tree.matches_naive(&t);
            naive.sort_unstable();
            assert_eq!(sorted_matches(&tree, &t), naive, "transaction {t:?}");
        }
    }

    #[test]
    fn no_double_counting_through_multiple_paths() {
        // Small branching forces shared leaves and repeated descents.
        let cands: Vec<Itemset> = (0u32..30)
            .map(|i| Itemset::new(vec![i % 6, 6 + (i % 5), 11 + (i % 4)]))
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .collect();
        let tree = HashTree::with_params(cands, 2, 2);
        let t: Vec<Item> = (0..15).collect();
        let mut counts = vec![0u32; tree.len()];
        let mut s = MatchScratch::default();
        tree.for_each_match(&t, &mut s, |i| counts[i] += 1);
        for (i, &c) in counts.iter().enumerate() {
            assert!(c <= 1, "candidate {i} counted {c} times");
        }
        let mut found: Vec<usize> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == 1)
            .map(|(i, _)| i)
            .collect();
        found.sort_unstable();
        let mut naive = tree.matches_naive(&t);
        naive.sort_unstable();
        assert_eq!(found, naive);
    }

    #[test]
    fn deep_split_tree_still_correct() {
        let cands: Vec<Itemset> = (0u32..200)
            .map(|i| Itemset::new(vec![i % 10, 10 + (i / 10) % 10, 20 + i % 7, 30 + i % 3]))
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .collect();
        let n = cands.len();
        let tree = HashTree::with_params(cands, 3, 2);
        assert!(tree.num_nodes() > 1, "tree must have split");
        assert_eq!(tree.len(), n);
        for seed in 0u32..20 {
            let t: Vec<Item> = (0..40).filter(|x| (x * 7 + seed) % 3 != 0).collect();
            let mut naive = tree.matches_naive(&t);
            naive.sort_unstable();
            assert_eq!(sorted_matches(&tree, &t), naive, "seed {seed}");
        }
    }

    #[test]
    fn scratch_is_reusable_across_transactions() {
        let tree = HashTree::build(sets(&[&[1, 2], &[3, 4]]));
        let mut s = MatchScratch::default();
        let mut out = Vec::new();
        tree.for_each_match(&[1, 2], &mut s, |i| out.push(i));
        tree.for_each_match(&[3, 4], &mut s, |i| out.push(i));
        tree.for_each_match(&[1, 2, 3, 4], &mut s, |i| out.push(i));
        out.sort_unstable();
        assert_eq!(out, vec![0, 0, 1, 1]);
    }

    #[test]
    fn visits_are_positive_work_estimate() {
        let tree = HashTree::build(sets(&[&[1, 2], &[2, 3]]));
        let mut s = MatchScratch::default();
        let visits = tree.for_each_match(&[1, 2, 3], &mut s, |_| {});
        assert!(visits >= 2, "at least root + leaf checks, got {visits}");
        // Too-short transactions are rejected without any traversal.
        assert_eq!(tree.for_each_match(&[1], &mut s, |_| {}), 0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mixed_length_candidates_rejected() {
        HashTree::build(sets(&[&[1], &[1, 2]]));
    }
}
