//! MR-Apriori — the MapReduce baseline the paper compares YAFIM against.
//!
//! The default variant, [`MrVariant::Spc`], is the PApriori / SPC scheme
//! (Li et al. 2012; Lin et al. 2012, refs \[16\]/\[17\]): **one MapReduce job per
//! Apriori pass**. Every job re-reads the full transactional dataset from
//! HDFS, ships the candidate set to the mappers through the distributed
//! cache, counts occurrences, and commits the frequent itemsets back to
//! HDFS — the per-iteration I/O round trip whose cost YAFIM's evaluation
//! quantifies.
//!
//! Candidate matching defaults to the classic Apriori hash tree — the
//! paper's MR baseline is overhead-bound, not matching-bound, on every
//! dataset (its per-pass floor sits around 34 s regardless of workload), so
//! it clearly used an efficient `subset(C_k, t)`. A naive
//! scan-the-candidate-list matcher ([`MrMatching::NaiveScan`]) is kept as a
//! config option for the matching ablation bench.
//!
//! Two pass-combining variants from Lin et al. are included for the
//! ablation benches:
//!
//! * [`MrVariant::Fpc`] — *fixed passes combined*: each job counts `p`
//!   consecutive candidate levels at once (candidates of level `k+1`
//!   generated from the level-`k` *candidates*, keeping completeness).
//! * [`MrVariant::Dpc`] — *dynamic passes combined*: keep adding levels to a
//!   job while the combined candidate count stays under a threshold.

use crate::candidates::ap_gen;
use crate::hashtree::{HashTree, MatchScratch};
use crate::types::{
    parse_transaction, Item, Itemset, MinerRun, MiningResult, PassTiming, Support,
    JVM_TREE_VISIT_UNITS,
};
use std::sync::Arc;
use yafim_cluster::{slice_bytes, EventKind, ExecError, FxHashSet, SimCluster};
use yafim_mapreduce::{Emitter, MapReduceJob, MrRunner};

/// Abstract CPU units per naive candidate subset-check (a short merge scan
/// over two sorted lists in the Java baseline).
const NAIVE_CHECK_UNITS: u64 = 6;

/// How candidate occurrences are found in a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MrMatching {
    /// The classic Apriori hash tree (default — see module docs).
    #[default]
    HashTree,
    /// Scan the candidate list per transaction (pair enumeration at
    /// `k = 2`); the matching ablation's slow path.
    NaiveScan,
}

/// A built matcher for one candidate level.
enum LevelMatcher {
    /// Hash-tree descent.
    Tree(HashTree),
    /// `k = 2` naive: enumerate item pairs and probe a set.
    Pairs(FxHashSet<(Item, Item)>),
    /// `k ≥ 3` naive: linear scan with subset tests.
    Scan(Vec<Itemset>),
}

impl LevelMatcher {
    fn new(candidates: Vec<Itemset>, matching: MrMatching) -> Self {
        match matching {
            MrMatching::HashTree => LevelMatcher::Tree(HashTree::build(candidates)),
            MrMatching::NaiveScan => {
                if candidates.first().is_some_and(|c| c.len() == 2) {
                    LevelMatcher::Pairs(
                        candidates
                            .into_iter()
                            .map(|c| (c.items()[0], c.items()[1]))
                            .collect(),
                    )
                } else {
                    LevelMatcher::Scan(candidates)
                }
            }
        }
    }

    /// Emit every contained candidate; returns the CPU units spent.
    fn match_into(
        &self,
        t: &[Item],
        scratch: &mut MatchScratch,
        em: &mut Emitter<Itemset, u64>,
    ) -> u64 {
        match self {
            LevelMatcher::Tree(tree) => {
                let visits = tree.for_each_match(t, scratch, |idx| {
                    em.emit(tree.candidates()[idx].clone(), 1);
                });
                visits * JVM_TREE_VISIT_UNITS
            }
            LevelMatcher::Pairs(pairs) => {
                let mut units = 0;
                for i in 0..t.len() {
                    for j in i + 1..t.len() {
                        units += 2;
                        if pairs.contains(&(t[i], t[j])) {
                            em.emit(Itemset::from_sorted(vec![t[i], t[j]]), 1);
                        }
                    }
                }
                units
            }
            LevelMatcher::Scan(candidates) => {
                for c in candidates {
                    if c.is_subset_of_sorted(t) {
                        em.emit(c.clone(), 1);
                    }
                }
                candidates.len() as u64 * NAIVE_CHECK_UNITS
            }
        }
    }
}

/// Which job-combining scheme to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MrVariant {
    /// One job per pass (PApriori / SPC) — the paper's baseline.
    Spc,
    /// Combine a fixed number of consecutive passes per job (≥ 1).
    Fpc {
        /// Passes per job after the first.
        passes_per_job: usize,
    },
    /// Combine passes while the job's total candidate count stays below the
    /// threshold.
    Dpc {
        /// Maximum combined candidates per job.
        max_candidates: usize,
    },
}

/// Options for an MR-Apriori run.
#[derive(Clone, Debug)]
pub struct MrAprioriConfig {
    /// Minimum support threshold.
    pub min_support: Support,
    /// Reduce tasks per job (0 = one per virtual core).
    pub reduce_tasks: usize,
    /// Input split size override (None = HDFS block-sized splits).
    pub split_size: Option<u64>,
    /// Stop after this many passes (0 = run to fixpoint).
    pub max_passes: usize,
    /// Job-combining scheme.
    pub variant: MrVariant,
    /// Candidate-matching strategy.
    pub matching: MrMatching,
    /// Scheduler pool this run's jobs are attributed to (multi-job
    /// scheduling; see `yafim_cluster::JobQueue`).
    pub pool: String,
}

impl MrAprioriConfig {
    /// The paper's baseline setup: SPC, block splits, auto reduce tasks.
    pub fn new(min_support: Support) -> Self {
        MrAprioriConfig {
            min_support,
            reduce_tasks: 0,
            split_size: None,
            max_passes: 0,
            variant: MrVariant::Spc,
            matching: MrMatching::HashTree,
            pool: "default".to_string(),
        }
    }
}

/// The MR-Apriori miner bound to one virtual cluster.
pub struct MrApriori {
    runner: MrRunner,
    config: MrAprioriConfig,
}

impl MrApriori {
    /// A miner over `cluster` with `config`.
    pub fn new(cluster: SimCluster, config: MrAprioriConfig) -> Self {
        MrApriori {
            runner: MrRunner::new(cluster),
            config,
        }
    }

    /// Mine the text dataset at `input` on simulated HDFS.
    pub fn mine(&self, input: &str) -> Result<MinerRun, ExecError> {
        let cluster = self.runner.cluster().clone();
        // Attribute the whole run to its scheduler pool; the guard reports
        // completion to any bound JobQueue ticket when dropped.
        let _job = cluster.acquire_job(&self.config.pool, "mr-apriori");
        let metrics = cluster.metrics().clone();
        let cost = cluster.cost().clone();
        let file = cluster.hdfs().get(input)?;
        let min_sup = self.config.min_support.resolve(file.num_lines() as u64);

        let run_start = metrics.now();
        let mut passes: Vec<PassTiming> = Vec::new();

        // ---- pass 1: frequent items, one job ----
        let pass1_start = metrics.now();
        let job = MapReduceJob::new(
            "MR-Apriori pass 1",
            input,
            |_off, line: &str, em: &mut Emitter<Itemset, u64>, w| {
                let items = parse_transaction(line);
                w.add_cpu(items.len() as u64);
                for item in items {
                    em.emit(Itemset::single(item), 1);
                }
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
        .with_output(
            format!("{input}.L1"),
            Arc::new(|k: &Itemset, v: &u64| format!("{k} {v}")),
        );
        let job = match self.config.split_size {
            Some(s) => job.with_split_size(s),
            None => job,
        };
        let result = self.runner.run(job)?;

        let mut l1: Vec<(Itemset, u64)> = result.pairs;
        l1.sort_by(|a, b| a.0.cmp(&b.0));
        metrics.record_span(EventKind::Iteration, "pass 1", pass1_start);
        passes.push(PassTiming {
            pass: 1,
            seconds: metrics.now().since(pass1_start).as_secs(),
            candidates: l1.len(),
            frequent: l1.len(),
        });

        if l1.is_empty() {
            return Ok(MinerRun {
                result: MiningResult::default(),
                total_seconds: metrics.now().since(run_start).as_secs(),
                passes,
            });
        }

        // ---- passes ≥ 2 ----
        let mut levels: Vec<Vec<(Itemset, u64)>> = vec![l1];
        let mut next_pass = 2usize;
        loop {
            if self.config.max_passes != 0 && next_pass > self.config.max_passes {
                break;
            }

            let pass_start = metrics.now();

            // Driver: generate the candidate levels this job will count.
            let seed: Vec<Itemset> = levels
                .last()
                .expect("levels never empty here")
                .iter()
                .map(|(s, _)| s.clone())
                .collect();
            let (level_candidates, gen_units) = self.job_candidates(&seed, next_pass);
            metrics.advance_with_event(
                cost.cpu(gen_units),
                EventKind::Driver,
                format!("ap_gen pass {next_pass}"),
            );
            if level_candidates.is_empty() {
                break;
            }
            let n_levels = level_candidates.len();
            let total_candidates: usize = level_candidates.iter().map(Vec::len).sum();

            // Driver: the candidate lists ship to the mappers via the
            // distributed cache, as serialized itemset text (PApriori).
            let side_bytes: u64 = level_candidates.iter().map(|l| slice_bytes(l)).sum();
            let matching = self.config.matching;
            let matchers: Arc<Vec<LevelMatcher>> = Arc::new(
                level_candidates
                    .into_iter()
                    .map(|c| LevelMatcher::new(c, matching))
                    .collect(),
            );
            let matchers_for_map = Arc::clone(&matchers);

            let label = if n_levels == 1 {
                format!("MR-Apriori pass {next_pass}")
            } else {
                format!(
                    "MR-Apriori passes {}-{}",
                    next_pass,
                    next_pass + n_levels - 1
                )
            };

            let job = MapReduceJob::new(
                label,
                input,
                move |_off, line: &str, em: &mut Emitter<Itemset, u64>, w| {
                    let items = parse_transaction(line);
                    w.add_cpu(items.len() as u64);
                    // One scratch per worker thread: the stamp buffer is the
                    // hot allocation of hash-tree matching.
                    thread_local! {
                        static SCRATCH: std::cell::RefCell<MatchScratch> =
                            std::cell::RefCell::new(MatchScratch::default());
                    }
                    SCRATCH.with(|s| {
                        let mut scratch = s.borrow_mut();
                        for matcher in matchers_for_map.iter() {
                            let units = matcher.match_into(&items, &mut scratch, em);
                            w.add_cpu(units);
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
                format!("{input}.L{next_pass}"),
                Arc::new(|k: &Itemset, v: &u64| format!("{k} {v}")),
            );
            let job = match self.config.split_size {
                Some(s) => job.with_split_size(s),
                None => job,
            };
            let result = self.runner.run(job)?;

            // Split the job's output back into per-length levels.
            let mut new_levels: Vec<Vec<(Itemset, u64)>> = vec![Vec::new(); n_levels];
            for (set, c) in result.pairs {
                let slot = set.len() - next_pass;
                new_levels[slot].push((set, c));
            }
            let found: usize = new_levels.iter().map(Vec::len).sum();

            metrics.record_span(
                EventKind::Iteration,
                format!("pass {next_pass}"),
                pass_start,
            );
            passes.push(PassTiming {
                pass: next_pass,
                seconds: metrics.now().since(pass_start).as_secs(),
                candidates: total_candidates,
                frequent: found,
            });

            // Append levels until the first empty one; everything after an
            // empty level is unreachable by monotonicity.
            let mut stop = false;
            for level in new_levels {
                if level.is_empty() {
                    stop = true;
                    break;
                }
                let mut level = level;
                level.sort_by(|a, b| a.0.cmp(&b.0));
                levels.push(level);
            }
            if stop || found == 0 {
                break;
            }
            next_pass = levels
                .last()
                .expect("non-empty")
                .first()
                .expect("non-empty")
                .0
                .len()
                + 1;
        }

        Ok(MinerRun {
            result: MiningResult::from_levels(levels),
            total_seconds: metrics.now().since(run_start).as_secs(),
            passes,
        })
    }

    /// Candidate levels for one job, per the configured variant: level `k`
    /// from the frequent `(k-1)`-itemsets, further levels (FPC/DPC) chained
    /// from the previous *candidate* level (which preserves completeness —
    /// candidates are a superset of the frequent sets).
    fn job_candidates(&self, seed: &[Itemset], first_pass: usize) -> (Vec<Vec<Itemset>>, u64) {
        let max_levels = match self.config.variant {
            MrVariant::Spc => 1,
            MrVariant::Fpc { passes_per_job } => passes_per_job.max(1),
            MrVariant::Dpc { .. } => usize::MAX,
        };
        let mut units = 0u64;
        let mut out: Vec<Vec<Itemset>> = Vec::new();
        let mut current = seed.to_vec();
        let mut total = 0usize;
        for level in 0..max_levels {
            if self.config.max_passes != 0 && first_pass + level > self.config.max_passes {
                break;
            }
            let (cands, work) = ap_gen(&current);
            units += work.units();
            if cands.is_empty() {
                break;
            }
            if let MrVariant::Dpc { max_candidates } = self.config.variant {
                if !out.is_empty() && total + cands.len() > max_candidates {
                    break;
                }
            }
            total += cands.len();
            current = cands.clone();
            out.push(cands);
        }
        (out, units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::{apriori, SequentialConfig};
    use crate::types::Item;
    use yafim_cluster::{ClusterSpec, CostModel};

    fn cluster() -> SimCluster {
        SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 4)
    }

    fn toy() -> Vec<Vec<Item>> {
        vec![vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5]]
    }

    fn put(cluster: &SimCluster, tx: &[Vec<Item>]) -> String {
        let lines: Vec<String> = tx
            .iter()
            .map(|t| t.iter().map(u32::to_string).collect::<Vec<_>>().join(" "))
            .collect();
        cluster.hdfs().put_overwrite("mr-in.dat", lines);
        "mr-in.dat".to_string()
    }

    #[test]
    fn spc_matches_sequential() {
        let c = cluster();
        let path = put(&c, &toy());
        let run = MrApriori::new(c, MrAprioriConfig::new(Support::Count(2)))
            .mine(&path)
            .unwrap();
        let seq = apriori(&toy(), &SequentialConfig::new(Support::Count(2)));
        assert_eq!(run.result, seq);
        assert_eq!(
            run.passes.len(),
            3,
            "pass 4 generates no candidates, so no job runs"
        );
    }

    #[test]
    fn each_pass_is_one_job_under_spc() {
        let c = cluster();
        let path = put(&c, &toy());
        let run = MrApriori::new(c.clone(), MrAprioriConfig::new(Support::Count(2)))
            .mine(&path)
            .unwrap();
        assert_eq!(c.metrics().snapshot().jobs as usize, run.passes.len());
        // Each job pays the Hadoop fixed overhead.
        for p in &run.passes {
            assert!(p.seconds >= c.cost().mr_job_overhead, "pass {p:?}");
        }
    }

    #[test]
    fn intermediate_results_committed_to_hdfs() {
        let c = cluster();
        let path = put(&c, &toy());
        MrApriori::new(c.clone(), MrAprioriConfig::new(Support::Count(2)))
            .mine(&path)
            .unwrap();
        assert!(c.hdfs().exists("mr-in.dat.L1"));
        assert!(c.hdfs().exists("mr-in.dat.L2"));
        assert!(c.hdfs().exists("mr-in.dat.L3"));
    }

    #[test]
    fn fpc_matches_spc_results_with_fewer_jobs() {
        let c_spc = cluster();
        let c_fpc = cluster();
        let path_spc = put(&c_spc, &toy());
        let path_fpc = put(&c_fpc, &toy());

        let spc = MrApriori::new(c_spc.clone(), MrAprioriConfig::new(Support::Count(2)))
            .mine(&path_spc)
            .unwrap();
        let mut cfg = MrAprioriConfig::new(Support::Count(2));
        cfg.variant = MrVariant::Fpc { passes_per_job: 3 };
        let fpc = MrApriori::new(c_fpc.clone(), cfg).mine(&path_fpc).unwrap();

        assert_eq!(spc.result, fpc.result);
        assert!(
            c_fpc.metrics().snapshot().jobs < c_spc.metrics().snapshot().jobs,
            "FPC must run fewer jobs"
        );
    }

    #[test]
    fn dpc_matches_spc_results() {
        let c = cluster();
        let path = put(&c, &toy());
        let mut cfg = MrAprioriConfig::new(Support::Count(2));
        cfg.variant = MrVariant::Dpc {
            max_candidates: 100,
        };
        let dpc = MrApriori::new(c, cfg).mine(&path).unwrap();
        let seq = apriori(&toy(), &SequentialConfig::new(Support::Count(2)));
        assert_eq!(dpc.result, seq);
    }

    #[test]
    fn max_passes_truncates() {
        let c = cluster();
        let path = put(&c, &toy());
        let mut cfg = MrAprioriConfig::new(Support::Count(2));
        cfg.max_passes = 2;
        let run = MrApriori::new(c, cfg).mine(&path).unwrap();
        assert_eq!(run.result.max_len(), 2);
    }

    #[test]
    fn nothing_frequent() {
        let c = cluster();
        let path = put(&c, &toy());
        let run = MrApriori::new(c, MrAprioriConfig::new(Support::Count(50)))
            .mine(&path)
            .unwrap();
        assert_eq!(run.result.total(), 0);
        assert_eq!(run.passes.len(), 1);
    }

    #[test]
    fn missing_input_errors() {
        let miner = MrApriori::new(cluster(), MrAprioriConfig::new(Support::Count(1)));
        assert!(miner.mine("nope.dat").is_err());
    }
}
