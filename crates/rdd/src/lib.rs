//! # yafim-rdd — a mini-Spark over the virtual cluster
//!
//! The YAFIM paper is an algorithm *on Spark*; reproducing it without Spark
//! means building the part of Spark it relies on. This crate implements that
//! part, from scratch, over the [`yafim_cluster`] substrate:
//!
//! * **Typed RDDs with lineage** ([`Rdd`]): `map`, `flat_map`, `filter`,
//!   `map_partitions`, `union`, `reduce_by_key`, and the `collect`/`count`
//!   actions — the exact operator set in the paper's Fig. 1 and Fig. 2
//!   lineage graphs.
//! * **A DAG scheduler** (internal): jobs split into stages at shuffle
//!   boundaries; shuffle map stages run bottom-up before their consumers.
//! * **In-memory caching** ([`Rdd::cache`]): partitions persist on their home
//!   node's memory budget with LRU eviction; lost/evicted partitions are
//!   recomputed through the lineage (fault tolerance without replication,
//!   §II.B of the paper).
//! * **Broadcast variables** ([`Context::broadcast`]): torrent-style per-node
//!   distribution, plus the naive per-task mode the paper contrasts it with
//!   in §IV.C.
//!
//! Execution is real (tasks run on a thread pool and process actual data);
//! *time* is virtual and deterministic — every task's work counters are
//! converted to a duration by the cluster's cost model and list-scheduled
//! onto the virtual cores.
//!
//! Within a stage, narrow-operator chains run as **fused iterator
//! pipelines** (Spark's whole-stage pipelining): partition buffers exist
//! only at pipeline breakers — shuffle map-side writes, cache
//! inserts/reads, and driver fetches. [`ExecMode::Eager`] retains the
//! naive per-operator evaluator as a cross-checking reference.
//!
//! ```
//! use yafim_cluster::SimCluster;
//! use yafim_rdd::Context;
//!
//! let ctx = Context::new(SimCluster::paper_cluster());
//! let counts = ctx
//!     .parallelize(vec!["a b", "b c", "c b"].into_iter().map(String::from).collect())
//!     .flat_map(|line: String| {
//!         line.split_whitespace().map(str::to_string).collect::<Vec<_>>()
//!     })
//!     .map(|w| (w, 1u64))
//!     .reduce_by_key(|a, b| a + b)
//!     .collect();
//! let b = counts.iter().find(|(w, _)| w == "b").unwrap();
//! assert_eq!(b.1, 3);
//! ```

mod cache;
mod context;
mod exec;
mod ops;
mod rdd;
mod shuffle;
mod task;

pub use cache::{CacheManager, CacheStats, CacheTier, StorageLevel};
pub use context::{Broadcast, BroadcastMode, Context, ExecMode, RddConfig};
pub use exec::{FaultInjection, NodeLossReport};
pub use rdd::{Data, Rdd};
pub use task::TaskContext;
pub use yafim_cluster::ExecError;

#[cfg(test)]
mod tests {
    use super::*;
    use yafim_cluster::{ClusterSpec, CostModel, EventKind, SimCluster};

    fn small_cluster() -> SimCluster {
        SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 4)
    }

    fn ctx() -> Context {
        Context::new(small_cluster())
    }

    #[test]
    fn parallelize_collect_roundtrip() {
        let c = ctx();
        let data: Vec<u32> = (0..1000).collect();
        let rdd = c.parallelize_with_partitions(data.clone(), 7);
        assert_eq!(rdd.num_partitions(), 7);
        assert_eq!(rdd.collect(), data);
    }

    #[test]
    fn map_filter_chain() {
        let c = ctx();
        let out = c
            .parallelize((0u32..100).collect())
            .map(|x| x * 2)
            .filter(|x| x % 3 == 0)
            .collect();
        let expected: Vec<u32> = (0..100).map(|x| x * 2).filter(|x| x % 3 == 0).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn flat_map_expands() {
        let c = ctx();
        let out = c
            .parallelize(vec![1u32, 2, 3])
            .flat_map(|x| vec![x; x as usize])
            .count();
        assert_eq!(out, 6);
    }

    #[test]
    fn map_partitions_sees_whole_partition() {
        let c = ctx();
        let rdd = c.parallelize_with_partitions((0u32..10).collect(), 2);
        let sums = rdd.map_partitions(|part, tc| {
            tc.add_cpu(part.len() as u64);
            vec![part.iter().sum::<u32>()]
        });
        let total: u32 = sums.collect().iter().sum();
        assert_eq!(total, 45);
    }

    #[test]
    fn reduce_by_key_counts_words() {
        let c = ctx();
        let words: Vec<String> = "a b a c b a".split_whitespace().map(String::from).collect();
        let mut out = c
            .parallelize_with_partitions(words, 3)
            .map(|w| (w, 1u64))
            .reduce_by_key(|x, y| x + y)
            .collect();
        out.sort();
        assert_eq!(
            out,
            vec![
                ("a".to_string(), 3),
                ("b".to_string(), 2),
                ("c".to_string(), 1)
            ]
        );
    }

    #[test]
    fn reduce_by_key_equals_hash_group_fold() {
        let c = ctx();
        let pairs: Vec<(u32, u64)> = (0..500).map(|i| (i % 17, (i % 5 + 1) as u64)).collect();
        let mut expected = std::collections::HashMap::new();
        for (k, v) in &pairs {
            *expected.entry(*k).or_insert(0u64) += v;
        }
        let out = c
            .parallelize_with_partitions(pairs, 9)
            .reduce_by_key_with_partitions(|a, b| a + b, 4)
            .collect();
        assert_eq!(out.len(), expected.len());
        for (k, v) in out {
            assert_eq!(expected[&k], v, "key {k}");
        }
    }

    #[test]
    fn union_concatenates() {
        let c = ctx();
        let a = c.parallelize_with_partitions(vec![1u32, 2], 2);
        let b = c.parallelize_with_partitions(vec![3u32, 4, 5], 2);
        let u = a.union(&b);
        assert_eq!(u.num_partitions(), 4);
        assert_eq!(u.collect(), vec![1, 2, 3, 4, 5]);
        assert_eq!(u.count(), 5);
    }

    #[test]
    fn take_truncates() {
        let c = ctx();
        let rdd = c.parallelize((0u32..50).collect());
        assert_eq!(rdd.take(3), vec![0, 1, 2]);
    }

    #[test]
    fn text_file_reads_hdfs() {
        let cluster = small_cluster();
        let lines: Vec<String> = (0..100).map(|i| format!("t{i}")).collect();
        cluster.hdfs().put("in.txt", lines.clone()).unwrap();
        let c = Context::new(cluster);
        let rdd = c.text_file("in.txt", 8).unwrap();
        assert!(rdd.num_partitions() >= 8);
        assert_eq!(rdd.collect(), lines);
    }

    #[test]
    fn text_file_missing_errors() {
        let c = ctx();
        assert!(c.text_file("missing", 1).is_err());
    }

    #[test]
    fn actions_advance_virtual_clock() {
        let c = ctx();
        let rdd = c.parallelize((0u32..100).collect());
        let before = c.metrics().now();
        rdd.count();
        let after = c.metrics().now();
        assert!(after > before, "count must cost virtual time");
        assert!(c.metrics().snapshot().jobs >= 1);
        assert!(c.metrics().snapshot().stages >= 1);
    }

    #[test]
    fn caching_makes_second_action_cheaper() {
        let c = ctx();
        let rdd = c
            .parallelize_with_partitions((0u64..200_000).collect(), 8)
            .map(|x| x + 1)
            .cache();
        let t0 = c.metrics().now();
        rdd.count();
        let t1 = c.metrics().now();
        rdd.count();
        let t2 = c.metrics().now();
        let first = t1.since(t0);
        let second = t2.since(t1);
        assert!(
            second < first,
            "cached re-read ({second:?}) should beat recompute ({first:?})"
        );
        assert!(c.cache().stats().hits >= 8);
    }

    #[test]
    fn memory_and_disk_spills_under_pressure() {
        // A cache far too small for the data: MemoryOnly recomputes,
        // MemoryAndDisk serves from the disk tier.
        let cluster = small_cluster();
        let mut cfg = RddConfig::for_cluster(&cluster);
        cfg.cache_capacity_per_node = Some(64); // bytes!
        let c = Context::with_config(cluster, cfg);
        let rdd = c
            .parallelize_with_partitions((0u64..10_000).collect(), 8)
            .persist(StorageLevel::MemoryAndDisk);
        let first = rdd.collect();
        let second = rdd.collect();
        assert_eq!(first, second);
        let stats = c.cache().stats();
        assert!(
            stats.disk_hits >= 8,
            "second pass served from disk: {stats:?}"
        );
        assert_eq!(stats.hits, 0, "nothing fit in 64 bytes of memory");
        // And the disk tier is still cheaper than the lineage (virtual I/O
        // differs, correctness identical).
        rdd.unpersist();
        assert_eq!(c.cache().stats().disk_entries, 0);
    }

    #[test]
    fn spilled_partitions_on_lost_node_drop_and_recompute() {
        use yafim_cluster::NodeId;
        // Everything spills: the disk tier holds all 8 partitions, spread
        // round-robin over the nodes' local disks. Losing a node must drop
        // exactly its spilled partitions; the next action recomputes them
        // via lineage with identical results.
        let cluster = small_cluster();
        let mut cfg = RddConfig::for_cluster(&cluster);
        cfg.cache_capacity_per_node = Some(64); // bytes!
        let c = Context::with_config(cluster, cfg);
        let rdd = c
            .parallelize_with_partitions((0u64..10_000).collect(), 8)
            .map(|x| x * 7)
            .persist(StorageLevel::MemoryAndDisk);
        let baseline = rdd.collect();
        let before = c.cache().stats();
        assert!(
            before.disk_entries > 0 && before.disk_bytes > 0,
            "partitions must have spilled: {before:?}"
        );

        let report = c.lose_node(NodeId(1));
        assert!(
            report.cached_partitions_dropped > 0,
            "node 1 held spilled partitions"
        );
        let after = c.cache().stats();
        assert!(
            after.disk_entries < before.disk_entries,
            "the lost node's spilled partitions must be gone"
        );
        assert!(after.disk_bytes < before.disk_bytes);

        assert_eq!(
            rdd.collect(),
            baseline,
            "lineage recompute must be identical"
        );

        rdd.unpersist();
        let end = c.cache().stats();
        assert_eq!(
            (end.disk_entries, end.disk_bytes),
            (0, 0),
            "disk tier must drain to zero"
        );
    }

    #[test]
    fn unpersist_drops_cache() {
        let c = ctx();
        let rdd = c.parallelize((0u32..100).collect()).cache();
        rdd.count();
        assert!(c.cache().stats().entries > 0);
        rdd.unpersist();
        assert_eq!(c.cache().stats().entries, 0);
        // Still computes correctly via lineage.
        assert_eq!(rdd.count(), 100);
    }

    #[test]
    fn lost_cached_partition_recomputes_identically() {
        let c = ctx();
        let rdd = c
            .parallelize_with_partitions((0u32..100).collect(), 5)
            .map(|x| x * 3)
            .cache();
        let first = rdd.collect();
        assert!(c.drop_cached_partition(rdd.id(), 2));
        let second = rdd.collect();
        assert_eq!(first, second, "lineage recompute must be identical");
    }

    #[test]
    fn lost_shuffle_recomputes_identically() {
        let c = ctx();
        let rdd = c
            .parallelize_with_partitions((0u32..300).map(|i| (i % 7, 1u64)).collect(), 6)
            .reduce_by_key(|a, b| a + b);
        let first = rdd.collect();
        assert_eq!(c.materialized_shuffles(), 1);
        assert!(c.drop_shuffle(rdd.id()));
        assert_eq!(c.materialized_shuffles(), 0);
        let second = rdd.collect();
        assert_eq!(first, second);
        assert_eq!(c.materialized_shuffles(), 1, "map stage re-ran");
    }

    #[test]
    fn lost_node_invalidates_cache_and_shuffle_and_recovers() {
        use yafim_cluster::NodeId;
        let c = ctx();
        let cached = c
            .parallelize_with_partitions((0u32..400).collect(), 8)
            .map(|x| x / 2)
            .cache();
        let reduced = cached.map(|x| (x % 5, 1u64)).reduce_by_key(|a, b| a + b);
        let baseline_cached = cached.collect();
        let baseline_reduced = reduced.collect();

        let report = c.lose_node(NodeId(1));
        assert_eq!(report.node, NodeId(1));
        assert!(
            report.cached_partitions_dropped > 0,
            "node 1 held cached partitions"
        );
        assert!(
            report.map_outputs_lost > 0,
            "node 1 held shuffle map outputs"
        );
        // The shuffle stays registered — only the dead node's map outputs
        // are holed, to be resubmitted by the next consumer.
        assert_eq!(c.materialized_shuffles(), 1);

        let stages_before = c.metrics().snapshot().stages;
        assert_eq!(cached.collect(), baseline_cached);
        assert_eq!(reduced.collect(), baseline_reduced);
        let snap = c.metrics().snapshot();
        assert!(
            snap.stages > stages_before + 1,
            "a map resubmission stage must run in addition to the final stages"
        );
        assert_eq!(snap.recovery.nodes_lost, 1);
        assert_eq!(
            snap.recovery.fetch_failures as usize,
            report.map_outputs_lost
        );
        assert!(snap.recovery.recomputed_partitions > 0);

        // Killing the same node again is a no-op.
        let again = c.lose_node(NodeId(1));
        assert_eq!(again.cached_partitions_dropped, 0);
        assert_eq!(again.map_outputs_lost, 0);
    }

    #[test]
    fn planned_node_loss_mid_job_keeps_results_identical() {
        use yafim_cluster::{FaultPlan, NodeId, SimDuration, SimInstant};
        let job = |c: &Context| {
            c.parallelize_with_partitions((0u32..500).map(|i| (i % 11, 1u64)).collect(), 10)
                .reduce_by_key(|a, b| a + b)
                .collect()
        };
        let healthy = ctx();
        let expected = job(&healthy);
        let healthy_time = healthy.metrics().now();

        let c = ctx();
        c.cluster().faults().set_plan(
            FaultPlan::seeded(7)
                .lose_node_at(NodeId(2), SimInstant::EPOCH + SimDuration::from_secs(0.05)),
        );
        assert_eq!(job(&c), expected, "node loss must not change results");
        let snap = c.metrics().snapshot();
        assert_eq!(snap.recovery.nodes_lost, 1);
        assert!(
            c.metrics().now() >= healthy_time,
            "recovery can only add virtual time"
        );
    }

    #[test]
    fn exhausted_retries_abort_with_descriptive_error() {
        use yafim_cluster::FaultPlan;
        let c = ctx();
        c.cluster()
            .faults()
            .set_plan(FaultPlan::seeded(3).crash_tasks(1.0));
        let err = c
            .parallelize((0u32..100).collect())
            .map(|x| x + 1)
            .try_collect()
            .expect_err("every attempt crashes, the job must abort");
        let msg = err.to_string();
        assert!(msg.contains("max_task_failures"), "got: {msg}");
        assert!(msg.contains("aborted"), "got: {msg}");
    }

    #[test]
    fn shuffle_reused_across_actions() {
        let c = ctx();
        let rdd = c
            .parallelize((0u32..100).map(|i| (i % 3, 1u64)).collect())
            .reduce_by_key(|a, b| a + b);
        rdd.count();
        let stages_after_first = c.metrics().snapshot().stages;
        rdd.count();
        let stages_after_second = c.metrics().snapshot().stages;
        // Second action re-runs only the final stage, not the map stage.
        assert_eq!(stages_after_second - stages_after_first, 1);
    }

    #[test]
    fn broadcast_charges_time_and_derefs() {
        let c = ctx();
        let before = c.metrics().now();
        let b = c.broadcast(vec![1u32; 100_000]);
        assert!(c.metrics().now() > before);
        assert_eq!(b.len(), 100_000);
        assert_eq!(b.bytes(), 8 + 400_000);
        assert_eq!(c.metrics().events_of(EventKind::Broadcast).len(), 1);
    }

    #[test]
    fn naive_broadcast_costs_more() {
        let cluster_a = small_cluster();
        let cluster_b = small_cluster();
        let torrent = Context::new(cluster_a);
        let mut cfg = RddConfig::for_cluster(torrent.cluster());
        cfg.broadcast = BroadcastMode::NaivePerTask;
        let naive = Context::with_config(cluster_b, cfg);

        let payload: Vec<u32> = vec![0; 1_000_000];
        torrent.broadcast(payload.clone());
        naive.broadcast(payload);
        assert!(
            naive.metrics().now() > torrent.metrics().now(),
            "per-task shipping must cost more than torrent broadcast"
        );
    }

    #[test]
    fn empty_rdd_works() {
        let c = ctx();
        let rdd = c.parallelize(Vec::<u32>::new());
        assert_eq!(rdd.collect(), Vec::<u32>::new());
        assert_eq!(rdd.count(), 0);
        let reduced = rdd.map(|x| (x, 1u64)).reduce_by_key(|a, b| a + b);
        assert_eq!(reduced.count(), 0);
    }

    #[test]
    fn union_of_two_branches_over_one_shuffle_prepares_it_once() {
        let c = ctx();
        let reduced = c
            .parallelize((0u32..60).map(|i| (i % 6, 1u64)).collect())
            .reduce_by_key(|a, b| a + b);
        // Two independent branches over the same shuffle, then a union: the
        // executor must deduplicate the shared dependency.
        let evens = reduced.filter(|(k, _)| k % 2 == 0);
        let odds = reduced.filter(|(k, _)| k % 2 == 1);
        let mut out = evens.union(&odds).collect();
        out.sort();
        assert_eq!(out, (0u32..6).map(|k| (k, 10u64)).collect::<Vec<_>>());
        assert_eq!(c.materialized_shuffles(), 1, "one shuffle, prepared once");
    }

    #[test]
    fn chained_shuffles() {
        let c = ctx();
        // Two shuffles in one lineage: count pairs, then count counts.
        let out = c
            .parallelize((0u32..100).map(|i| (i % 10, 1u64)).collect())
            .reduce_by_key(|a, b| a + b) // 10 keys, each 10
            .map(|(_, v)| (v, 1u64))
            .reduce_by_key(|a, b| a + b) // one key: (10, 10)
            .collect();
        assert_eq!(out, vec![(10, 10)]);
    }
}
