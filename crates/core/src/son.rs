//! SON on MapReduce — the *one-phase* algorithm family of the paper's
//! related work (§III: "One-phase algorithms need only one phase (e.g., a
//! MapReduce job) to find all frequent k-itemsets"; PSON, Xiao et al. 2011).
//!
//! The Savasere–Omiecinski–Navathe scheme finds *all* frequent itemsets in
//! two jobs, independent of the longest pattern:
//!
//! 1. **Local mining job** — each mapper mines its input split completely
//!    (here with the in-memory Eclat miner) at the proportionally scaled
//!    support threshold, emitting its locally frequent itemsets as global
//!    *candidates*. Any globally frequent itemset must be locally frequent
//!    in at least one split, so the candidate set is complete.
//! 2. **Counting job** — exact global supports of all candidates are counted
//!    over the whole dataset and filtered by the true threshold.
//!
//! The related-work caveat the paper quotes — "the one-phase algorithm needs
//! to generate many redundant itemsets during processing, which may lead
//! \[to\] memory overflow and too much execution time for large data sets" —
//! is observable here: skewed splits at low support explode the local
//! mining step (see the `compare_miners` bench).

use crate::eclat::eclat;
use crate::hashtree::{HashTree, MatchScratch};
use crate::types::{
    parse_transaction, Itemset, MinerRun, MiningResult, PassTiming, Support, JVM_TREE_VISIT_UNITS,
};
use std::sync::Arc;
use yafim_cluster::{slice_bytes, EventKind, ExecError, SimCluster};
use yafim_mapreduce::{Emitter, MapReduceJob, MrRunner};

/// Options for a SON run.
#[derive(Clone, Debug)]
pub struct SonConfig {
    /// Minimum support threshold (global).
    pub min_support: Support,
    /// Input split size for the local-mining job (None = HDFS blocks).
    /// Smaller splits → more parallel local miners but more redundant
    /// candidates.
    pub split_size: Option<u64>,
    /// Reduce tasks per job (0 = one per virtual core).
    pub reduce_tasks: usize,
}

impl SonConfig {
    /// Defaults: block-sized splits.
    pub fn new(min_support: Support) -> Self {
        SonConfig {
            min_support,
            split_size: None,
            reduce_tasks: 0,
        }
    }
}

/// The SON miner bound to one virtual cluster.
pub struct Son {
    runner: MrRunner,
    config: SonConfig,
}

impl Son {
    /// A miner over `cluster` with `config`.
    pub fn new(cluster: SimCluster, config: SonConfig) -> Self {
        Son {
            runner: MrRunner::new(cluster),
            config,
        }
    }

    /// Mine the text dataset at `input` on simulated HDFS (two jobs total).
    pub fn mine(&self, input: &str) -> Result<MinerRun, ExecError> {
        let cluster = self.runner.cluster().clone();
        let metrics = cluster.metrics().clone();
        let file = cluster.hdfs().get(input)?;
        let total_lines = file.num_lines() as u64;
        let min_sup = self.config.min_support.resolve(total_lines);

        let run_start = metrics.now();

        // ---- job 1: local mining per split ----
        let phase1_start = metrics.now();
        let job1 = MapReduceJob::new_per_split(
            "SON phase 1 (local mining)",
            input,
            move |_off, lines: &[String], em: &mut Emitter<Itemset, u64>, w| {
                let local: Vec<Vec<u32>> = lines.iter().map(|l| parse_transaction(l)).collect();
                // Scale the threshold to the split share, rounding *down* so
                // no globally frequent itemset can be missed.
                let local_sup =
                    ((min_sup as f64) * (local.len() as f64 / total_lines as f64)).floor() as u64;
                let result = eclat(&local, Support::Count(local_sup.max(1)));
                // Local mining cost: roughly one tid-list touch per support
                // unit of every mined itemset.
                let units: u64 = result.iter().map(|(_, sup)| *sup).sum();
                w.add_cpu(units * JVM_TREE_VISIT_UNITS);
                for (set, _) in result.iter() {
                    em.emit(set.clone(), 1);
                }
            },
            // Reducer: deduplicate candidates.
            |k: &Itemset, _vs, em: &mut Emitter<Itemset, u64>, _w| em.emit(k.clone(), 0),
        )
        .with_reduce_tasks(self.config.reduce_tasks);
        let job1 = match self.config.split_size {
            Some(s) => job1.with_split_size(s),
            None => job1,
        };
        let candidates: Vec<Itemset> = self
            .runner
            .run(job1)?
            .pairs
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        metrics.record_span(EventKind::Iteration, "SON phase 1", phase1_start);
        let phase1 = PassTiming {
            pass: 1,
            seconds: metrics.now().since(phase1_start).as_secs(),
            candidates: candidates.len(),
            frequent: 0,
        };

        if candidates.is_empty() {
            return Ok(MinerRun {
                result: MiningResult::default(),
                total_seconds: metrics.now().since(run_start).as_secs(),
                passes: vec![phase1],
            });
        }

        // ---- job 2: exact counting of all candidates at once ----
        let phase2_start = metrics.now();
        let n_candidates = candidates.len();
        let side_bytes = slice_bytes(&candidates);

        // One hash tree per candidate length.
        let max_len = candidates
            .iter()
            .map(Itemset::len)
            .max()
            .expect("non-empty");
        let mut by_len: Vec<Vec<Itemset>> = vec![Vec::new(); max_len];
        for c in candidates {
            by_len[c.len() - 1].push(c);
        }
        let trees: Arc<Vec<HashTree>> = Arc::new(
            by_len
                .into_iter()
                .filter(|l| !l.is_empty())
                .map(HashTree::build)
                .collect(),
        );
        let trees_for_map = Arc::clone(&trees);

        let job2 = MapReduceJob::new(
            "SON phase 2 (global counting)",
            input,
            move |_off, line: &str, em: &mut Emitter<Itemset, u64>, w| {
                let items = parse_transaction(line);
                w.add_cpu(items.len() as u64);
                thread_local! {
                    static SCRATCH: std::cell::RefCell<MatchScratch> =
                        std::cell::RefCell::new(MatchScratch::default());
                }
                SCRATCH.with(|s| {
                    let mut scratch = s.borrow_mut();
                    for tree in trees_for_map.iter() {
                        let visits = tree.for_each_match(&items, &mut scratch, |idx| {
                            em.emit(tree.candidates()[idx].clone(), 1);
                        });
                        w.add_cpu(visits * JVM_TREE_VISIT_UNITS);
                    }
                });
            },
            move |k: &Itemset, vs: Vec<u64>, em: &mut Emitter<Itemset, u64>, _w| {
                let sum: u64 = vs.into_iter().sum();
                if sum >= min_sup {
                    em.emit(k.clone(), sum);
                }
            },
        )
        .with_combiner(|_k: &Itemset, vs: Vec<u64>| vs.into_iter().sum())
        .with_reduce_tasks(self.config.reduce_tasks)
        .with_side_data(side_bytes)
        .with_output(
            format!("{input}.SON"),
            Arc::new(|k: &Itemset, v: &u64| format!("{k} {v}")),
        );
        let result = self.runner.run(job2)?;

        let mut levels: Vec<Vec<(Itemset, u64)>> = vec![Vec::new(); max_len];
        for (set, sup) in result.pairs {
            levels[set.len() - 1].push((set, sup));
        }
        metrics.record_span(EventKind::Iteration, "SON phase 2", phase2_start);
        let found: usize = levels.iter().map(Vec::len).sum();
        let phase2 = PassTiming {
            pass: 2,
            seconds: metrics.now().since(phase2_start).as_secs(),
            candidates: n_candidates,
            frequent: found,
        };

        Ok(MinerRun {
            result: MiningResult::from_levels(levels),
            total_seconds: metrics.now().since(run_start).as_secs(),
            passes: vec![phase1, phase2],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::{apriori, SequentialConfig};
    use yafim_cluster::{ClusterSpec, CostModel};

    fn cluster() -> SimCluster {
        SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 2)
    }

    fn put(cluster: &SimCluster, tx: &[Vec<u32>]) -> String {
        let lines: Vec<String> = tx
            .iter()
            .map(|t| t.iter().map(u32::to_string).collect::<Vec<_>>().join(" "))
            .collect();
        cluster.hdfs().put_overwrite("son-in.dat", lines);
        "son-in.dat".to_string()
    }

    fn toy() -> Vec<Vec<u32>> {
        vec![vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5]]
    }

    #[test]
    fn son_matches_sequential_single_split() {
        let c = cluster();
        let path = put(&c, &toy());
        let run = Son::new(c, SonConfig::new(Support::Count(2)))
            .mine(&path)
            .unwrap();
        let seq = apriori(&toy(), &SequentialConfig::new(Support::Count(2)));
        assert_eq!(run.result, seq);
    }

    #[test]
    fn son_matches_sequential_many_splits() {
        // Repeat the toy data and force tiny splits: local thresholds kick
        // in and the candidate set becomes a strict superset, but the final
        // result must still be exact.
        let tx: Vec<Vec<u32>> = toy().into_iter().cycle().take(40).collect();
        let c = cluster();
        let path = put(&c, &tx);
        let mut cfg = SonConfig::new(Support::Fraction(0.5));
        cfg.split_size = Some(32); // a handful of lines per split
        let run = Son::new(c, cfg).mine(&path).unwrap();
        let seq = apriori(&tx, &SequentialConfig::new(Support::Fraction(0.5)));
        assert_eq!(run.result, seq);
        assert!(
            run.passes[0].candidates >= seq.total(),
            "local mining must produce a candidate superset"
        );
    }

    #[test]
    fn exactly_two_jobs() {
        let c = cluster();
        let path = put(&c, &toy());
        Son::new(c.clone(), SonConfig::new(Support::Count(2)))
            .mine(&path)
            .unwrap();
        assert_eq!(c.metrics().snapshot().jobs, 2, "SON is a two-job scheme");
    }

    #[test]
    fn nothing_frequent() {
        let c = cluster();
        let path = put(&c, &toy());
        let run = Son::new(c, SonConfig::new(Support::Count(50)))
            .mine(&path)
            .unwrap();
        assert_eq!(run.result.total(), 0);
    }

    #[test]
    fn missing_input_errors() {
        assert!(Son::new(cluster(), SonConfig::new(Support::Count(1)))
            .mine("nope")
            .is_err());
    }
}
