//! Microbench: vertical TID-bitmap counting vs hash-tree matching — the two
//! `k ≥ 3` Phase-II strategies, head to head on the raw kernel.
//!
//! The bitmap side intersects one `u64` row per candidate item and
//! popcounts the final level (with the prefix-reuse scratch exploiting the
//! sorted candidate order); the hash-tree side walks every transaction
//! through the paper's candidate hash tree. Two density regimes bound the
//! crossover:
//!
//! * **dense** — QUEST-like: small alphabet, long transactions (~25% of
//!   the rows set), the regime the columnar layout targets;
//! * **sparse** — T10-like: wide alphabet, short transactions (~2% set),
//!   where most intersected words are zero and the hash tree's subset
//!   checks are cheap.
//!
//! Also prints the [`CostModel::bitmap_build`] virtual estimate next to
//! the measured build time, so the simulator's charge can be sanity-checked
//! against the real kernel.

use yafim_bench::microbench::{bench, black_box, header};
use yafim_cluster::CostModel;
use yafim_core::{BitmapScratch, ColumnarPartition, HashTree, Itemset, MatchScratch};
use yafim_data::rng::StdRng;

/// Dense-encoded transactions: `n` sorted, deduped draws over `0..items`.
fn transactions(n: usize, len: usize, items: u32, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut t: Vec<u32> = (0..len * 2).map(|_| rng.gen_range(0..items)).collect();
            t.sort_unstable();
            t.dedup();
            t.truncate(len);
            t
        })
        .collect()
}

/// `n` distinct k-itemsets over `0..items`, sorted like `ap_gen` output so
/// the bitmap's prefix-reuse scratch sees realistic candidate ordering.
fn candidates(n: usize, k: usize, items: u32, seed: u64) -> Vec<Itemset> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = std::collections::HashSet::new();
    while out.len() < n {
        let mut picks = Vec::with_capacity(k);
        while picks.len() < k {
            let i = rng.gen_range(0..items);
            if !picks.contains(&i) {
                picks.push(i);
            }
        }
        out.insert(Itemset::new(picks));
    }
    let mut sorted: Vec<Itemset> = out.into_iter().collect();
    sorted.sort();
    sorted
}

fn regime(name: &str, txs: &[Vec<u32>], items: u32, cands: &[Itemset]) {
    let col = ColumnarPartition::build(items as usize, txs);
    let set_bits: u64 = (0..col.n_items())
        .map(|r| {
            col.row(r)
                .iter()
                .map(|w| w.count_ones() as u64)
                .sum::<u64>()
        })
        .sum();
    let density = set_bits as f64 / (64 * col.arena_words()) as f64;
    let virt = CostModel::hadoop_era().bitmap_build(col.arena_words() as u64, set_bits);
    println!(
        "\n-- {name}: {} tx, {items} items, density {:.1}%, |C| = {} \
         (virtual build estimate: {virt}) --",
        txs.len(),
        density * 100.0,
        cands.len()
    );

    header(&format!("{name}/build"));
    bench("columnar build", 20, || {
        ColumnarPartition::build(items as usize, black_box(txs))
    });
    bench("hash tree build", 20, || {
        HashTree::build(black_box(cands.to_vec()))
    });

    header(&format!("{name}/count"));
    bench("bitmap intersect+popcount", 20, || {
        let mut scratch = BitmapScratch::default();
        let mut hits = 0u64;
        let words = col.count_candidates(cands, &mut scratch, &mut |_, c| hits += c);
        black_box((words, hits))
    });
    let tree = HashTree::build(cands.to_vec());
    bench("hash tree per-transaction match", 20, || {
        let mut counts = vec![0u64; cands.len()];
        let mut scratch = MatchScratch::default();
        let mut visits = 0u64;
        for t in txs {
            visits += tree.for_each_match(t, &mut scratch, |i| counts[i] += 1);
        }
        black_box((visits, counts))
    });
}

fn main() {
    // Dense: QUEST-style regime where pass-3+ candidates stay numerous.
    let dense_items = 120u32;
    let dense_txs = transactions(4_000, 30, dense_items, 1);
    let dense_cands = candidates(20_000, 3, dense_items, 2);
    regime("dense", &dense_txs, dense_items, &dense_cands);

    // Sparse: T10-style regime — wide alphabet, short transactions.
    let sparse_items = 500u32;
    let sparse_txs = transactions(4_000, 10, sparse_items, 3);
    let sparse_cands = candidates(20_000, 3, sparse_items, 4);
    regime("sparse", &sparse_txs, sparse_items, &sparse_cands);
}
