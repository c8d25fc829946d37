//! Per-layer probes for the traced run: each calls one layer's public
//! functions on the workload's own data, inside a span, from the
//! benchmark's own code. They size each layer's share of the work; they do
//! not split `mine_s` exactly. Every probe checks what it computed against
//! the traced mine's result, so a probe that measures the wrong work fails
//! the run.

use crate::span::Tracer;
use crate::workload::{Workload, INPUT};
use std::ops::Range;
use std::sync::Arc;
use yafim_core::{
    ap_gen, audit_levels, parse_transaction, BitmapScratch, CandidateList, ColumnarPartition,
    DenseEncoder, HashTree, Item, Itemset, MatchScratch, Matcher, MinerRun, MiningResult,
};
use yafim_data::{from_lines, to_lines, Transaction};
use yafim_rdd::Context;

/// Named probe results that are counts, not span times.
pub type Counts = Vec<(&'static str, f64)>;

/// The traced set-up: the same steps as the untimed set-up, each in its own
/// span, plus a parse of the lines the input was written as.
pub fn setup(
    t: &mut Tracer,
    w: Workload,
    seed: u64,
) -> Result<(Vec<Transaction>, Vec<String>, yafim_cluster::SimCluster), String> {
    t.span("setup", |t| {
        let tx = t.span("data.generate_s", |_| w.generate(seed));
        let lines = t.span("data.to_lines_s", |_| to_lines(&tx));
        let parsed = t.span("data.parse_s", |_| from_lines(&lines));
        if parsed != tx {
            return Err("data: from_lines(to_lines(tx)) differs from tx".to_string());
        }
        let cluster = t.span("cluster.hdfs_put_s", |_| w.cluster(lines.clone()));
        Ok((tx, lines, cluster))
    })
}

/// Frequent itemsets of every level, without their supports.
fn itemsets(result: &MiningResult) -> Vec<Vec<Itemset>> {
    result
        .levels
        .iter()
        .map(|l| l.iter().map(|(s, _)| s.clone()).collect())
        .collect()
}

/// Fails unless exactly the mined number of `k`-itemsets reach `min_sup`
/// among `counts`.
fn check_level(
    layer: &str,
    k: usize,
    counts: &[u64],
    min_sup: u64,
    result: &MiningResult,
) -> Result<(), String> {
    let frequent = counts.iter().filter(|&&c| c >= min_sup).count();
    let mined = result.level(k).len();
    if frequent == mined {
        Ok(())
    } else {
        Err(format!(
            "{layer}: {frequent} frequent {k}-itemsets counted, {mined} mined"
        ))
    }
}

/// `core` probes: candidate generation, dense encoding, the bitmap kernel
/// or the hash tree (whichever the workload's engine counts `k ≥ 3` with;
/// the other's spans enclose no work), and the invariant audit. Returns
/// the counts and `C_k` for every `k ≥ 2` the mine counted.
pub fn core(
    t: &mut Tracer,
    w: Workload,
    tx: &[Transaction],
    run: &MinerRun,
    min_sup: u64,
    splits: &[Range<usize>],
) -> Result<(Counts, Vec<Vec<Itemset>>), String> {
    let result = &run.result;
    let levels = itemsets(result);
    if levels.is_empty() {
        return Err("core: the mine found no frequent items".to_string());
    }
    // candidates[i] = C_{i+2} = ap_gen(L_{i+1})
    let candidates: Vec<Vec<Itemset>> = t.span("core.ap_gen_s", |_| {
        levels
            .iter()
            .map(|l| ap_gen(l).0)
            .take_while(|c| !c.is_empty())
            .collect()
    });
    let n_candidates: usize = candidates.iter().map(Vec::len).sum();

    let l1: Vec<Item> = levels[0].iter().map(|s| s.items()[0]).collect();
    let (encoder, encoded) = t.span("core.encode_s", |_| {
        let enc = DenseEncoder::new(l1);
        let encoded: Vec<Vec<Item>> = tx.iter().map(|t| enc.encode(t)).collect();
        (enc, encoded)
    });

    let phase2 = w.config().phase2;
    let bitmap = phase2.matcher == Matcher::Bitmap;
    // The engine's projected partitions: dense ranks, short rows dropped.
    let parts: Vec<Vec<Vec<Item>>> = if bitmap {
        splits
            .iter()
            .map(|r| {
                encoded[r.clone()]
                    .iter()
                    .filter(|t| t.len() >= 2)
                    .cloned()
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };
    let columns: Vec<ColumnarPartition> = t.span("core.bitmap_build_s", |_| {
        parts
            .iter()
            .map(|p| ColumnarPartition::build(encoder.len(), p))
            .collect()
    });
    drop(parts);
    let dense_candidates: Vec<(usize, Vec<Itemset>)> = if bitmap {
        candidates
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, c)| {
                let ranks = c
                    .iter()
                    .map(|s| {
                        Itemset::from_sorted(
                            s.items()
                                .iter()
                                .map(|&i| encoder.rank(i).expect("candidate items are frequent"))
                                .collect(),
                        )
                    })
                    .collect();
                (i + 2, ranks)
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut words = 0u64;
    t.span("core.bitmap_count_s", |t| {
        for (k, cands) in &dense_candidates {
            t.span(&format!("core.bitmap_count.pass{k}"), |_| {
                let mut counts = vec![0u64; cands.len()];
                for col in &columns {
                    let mut scratch = BitmapScratch::default();
                    words += col.count_candidates(cands, &mut scratch, &mut |i, c| counts[i] += c);
                }
                check_level("core.bitmap", *k, &counts, min_sup, result)
            })?;
        }
        Ok::<(), String>(())
    })?;
    drop(columns);

    let hashtree = phase2.matcher == Matcher::HashTree;
    let mut visits = 0u64;
    t.span("core.hashtree_s", |t| {
        let counted = if hashtree { candidates.len() } else { 0 };
        for (i, cands) in candidates.iter().take(counted).enumerate() {
            let k = i + 2;
            let cands = cands.clone();
            t.span(&format!("core.hashtree.pass{k}"), |_| {
                let tree = HashTree::build(cands);
                let mut counts = vec![0u64; tree.len()];
                let mut scratch = MatchScratch::default();
                for t in tx {
                    visits += tree.for_each_match(t, &mut scratch, |c| counts[c] += 1);
                }
                check_level("core.hashtree", k, &counts, min_sup, result)
            })?;
        }
        Ok::<(), String>(())
    })?;

    t.span("core.audit_s", |_| audit_levels(&result.levels, min_sup))
        .map_err(|e| format!("core: audit failed: {e}"))?;

    let counted = &run.passes[1.min(run.passes.len())..];
    let frequent: usize = counted.iter().map(|p| p.frequent).sum();
    let tried: usize = counted.iter().map(|p| p.candidates).sum();
    let counts = vec![
        ("core.candidates", n_candidates as f64),
        ("core.bitmap_words", words as f64),
        ("core.hashtree_visits", visits as f64),
        ("core.passes", run.passes.len() as f64),
        ("core.frequent", result.total() as f64),
        (
            "core.candidate_yield",
            frequent as f64 / tried.max(1) as f64,
        ),
    ];
    Ok((counts, candidates))
}

/// `rdd` probes on a fresh context over the workload's cluster: load and
/// cache, re-read the cache, the pass-1 item shuffle, the pass-2 pair
/// shuffle, and a broadcast of the largest candidate list read once per
/// partition.
pub fn rdd(
    t: &mut Tracer,
    w: Workload,
    lines: &[String],
    result: &MiningResult,
    min_sup: u64,
    largest: Vec<Itemset>,
) -> Result<(), String> {
    let ctx = Context::new(w.cluster(lines.to_vec()));
    let partitions = ctx.config().default_parallelism;
    let err = |e: &dyn std::fmt::Display| format!("rdd: {e}");

    let cached = t.span("rdd.load_s", |_| {
        let rdd = ctx
            .text_file(INPUT, partitions)
            .map_err(|e| err(&e))?
            .map(|l| parse_transaction(&l))
            .cache();
        rdd.try_count().map_err(|e| err(&e))?;
        Ok::<_, String>(rdd)
    })?;
    let n = t
        .span("rdd.cache_read_s", |_| cached.try_count())
        .map_err(|e| err(&e))?;
    if n != lines.len() as u64 {
        return Err(format!("rdd: cached {n} transactions of {}", lines.len()));
    }

    let items = t
        .span("rdd.shuffle_items_s", |_| {
            cached
                .flat_map(|t| t)
                .map(|i| (i, 1u64))
                .reduce_by_key(|a, b| a + b)
                .try_collect()
        })
        .map_err(|e| err(&e))?;
    let item_counts: Vec<u64> = items.iter().map(|&(_, c)| c).collect();
    check_level("rdd.shuffle_items", 1, &item_counts, min_sup, result)?;

    let mut keep = Vec::new();
    for (i, _) in items.iter().filter(|&&(_, c)| c >= min_sup) {
        let i = *i as usize;
        if keep.len() <= i {
            keep.resize(i + 1, false);
        }
        keep[i] = true;
    }
    let keep = Arc::new(keep);
    let pairs = t
        .span("rdd.shuffle_pairs_s", |_| {
            cached
                .flat_map(move |t| {
                    let f: Vec<Item> = t
                        .into_iter()
                        .filter(|&i| keep.get(i as usize).copied().unwrap_or(false))
                        .collect();
                    let mut out = Vec::with_capacity(f.len() * f.len().saturating_sub(1) / 2);
                    for (a, &x) in f.iter().enumerate() {
                        out.extend(f[a + 1..].iter().map(|&y| ((x, y), 1u64)));
                    }
                    out
                })
                .reduce_by_key(|a, b| a + b)
                .try_collect()
        })
        .map_err(|e| err(&e))?;
    let pair_counts: Vec<u64> = pairs.iter().map(|&(_, c)| c).collect();
    check_level("rdd.shuffle_pairs", 2, &pair_counts, min_sup, result)?;

    let expected = largest.len();
    let lengths = t
        .span("rdd.broadcast_s", |_| {
            let bc = ctx.broadcast(CandidateList(largest));
            let bytes = bc.bytes();
            cached
                .map_partitions(move |_, tc| {
                    tc.note_broadcast_read(bytes);
                    vec![bc.value().0.len()]
                })
                .try_collect()
        })
        .map_err(|e| err(&e))?;
    if lengths.len() != cached.num_partitions() || lengths.iter().any(|&l| l != expected) {
        return Err("rdd: a partition read a different broadcast".to_string());
    }
    Ok(())
}
