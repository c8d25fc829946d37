//! Configuration-invariance tests: mining results must not depend on any
//! execution knob — partition counts, reduce tasks, split sizes, cluster
//! shapes, broadcast mode, matching strategy, or group counts. Only timing
//! may change.

use yafim_cluster::{ClusterSpec, CostModel, SimCluster};
use yafim_core::{
    apriori, MrApriori, MrAprioriConfig, MrMatching, Pfp, PfpConfig, SequentialConfig, Support,
    Yafim, YafimConfig,
};
use yafim_data::{to_lines, PaperDataset};
use yafim_rdd::{BroadcastMode, Context, RddConfig};

fn dataset() -> (Vec<Vec<u32>>, Support) {
    (
        PaperDataset::Medical.generate_scaled(0.01),
        Support::Fraction(0.05),
    )
}

fn cluster(nodes: u32, cores: u32) -> SimCluster {
    SimCluster::with_threads(
        ClusterSpec::new(nodes, cores, 1 << 30),
        CostModel::hadoop_era(),
        2,
    )
}

#[test]
fn yafim_invariant_to_partition_count() {
    let (tx, support) = dataset();
    let reference = apriori(&tx, &SequentialConfig::new(support));
    for partitions in [1usize, 3, 17, 64] {
        let c = cluster(4, 2);
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        let mut cfg = YafimConfig::new(support);
        cfg.min_partitions = partitions;
        let run = Yafim::new(Context::new(c), cfg)
            .try_mine("d.dat")
            .expect("written");
        assert_eq!(reference, run.result, "partitions = {partitions}");
    }
}

#[test]
fn yafim_invariant_to_cluster_shape() {
    let (tx, support) = dataset();
    let reference = apriori(&tx, &SequentialConfig::new(support));
    for (nodes, cores) in [(1u32, 1u32), (2, 4), (12, 8)] {
        let c = cluster(nodes, cores);
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        let run = Yafim::new(Context::new(c), YafimConfig::new(support))
            .try_mine("d.dat")
            .expect("written");
        assert_eq!(reference, run.result, "cluster {nodes}x{cores}");
    }
}

#[test]
fn yafim_invariant_to_broadcast_mode() {
    let (tx, support) = dataset();
    let mut results = Vec::new();
    for mode in [BroadcastMode::Torrent, BroadcastMode::NaivePerTask] {
        let c = cluster(4, 2);
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        let mut cfg = RddConfig::for_cluster(&c);
        cfg.broadcast = mode;
        let run = Yafim::new(Context::with_config(c, cfg), YafimConfig::new(support))
            .try_mine("d.dat")
            .expect("written");
        results.push(run);
    }
    assert_eq!(results[0].result, results[1].result);
    assert!(
        results[1].total_seconds > results[0].total_seconds,
        "naive broadcast must cost more virtual time"
    );
}

#[test]
fn mr_invariant_to_reduce_tasks_and_split_size() {
    let (tx, support) = dataset();
    let reference = apriori(&tx, &SequentialConfig::new(support));
    for (reduce_tasks, split_size) in [(1usize, None), (5, Some(4096u64)), (32, Some(512))] {
        let c = cluster(4, 2);
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        let mut cfg = MrAprioriConfig::new(support);
        cfg.reduce_tasks = reduce_tasks;
        cfg.split_size = split_size;
        let run = MrApriori::new(c, cfg).mine("d.dat").expect("written");
        assert_eq!(
            reference, run.result,
            "reduce_tasks={reduce_tasks} split={split_size:?}"
        );
    }
}

#[test]
fn mr_invariant_to_matching_strategy() {
    let (tx, support) = dataset();
    let mut runs = Vec::new();
    for matching in [MrMatching::HashTree, MrMatching::NaiveScan] {
        let c = cluster(4, 2);
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        let mut cfg = MrAprioriConfig::new(support);
        cfg.matching = matching;
        runs.push(MrApriori::new(c, cfg).mine("d.dat").expect("written"));
    }
    assert_eq!(runs[0].result, runs[1].result);
}

#[test]
fn pfp_invariant_to_partitions_and_groups() {
    let (tx, support) = dataset();
    let reference = apriori(&tx, &SequentialConfig::new(support));
    for (partitions, groups) in [(1usize, 1usize), (8, 5), (32, 0)] {
        let c = cluster(4, 2);
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        let mut cfg = PfpConfig::new(support);
        cfg.min_partitions = partitions;
        cfg.groups = groups;
        let run = Pfp::new(Context::new(c), cfg)
            .mine("d.dat")
            .expect("written");
        assert_eq!(
            reference, run.result,
            "partitions={partitions} groups={groups}"
        );
    }
}

#[test]
fn virtual_speedup_grows_with_cluster_for_mr_reduce_side() {
    // Bigger clusters can only help (more reduce slots / shuffle fan-out).
    let (tx, support) = dataset();
    let mut times = Vec::new();
    for nodes in [2u32, 8] {
        let c = cluster(nodes, 4);
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        let run = MrApriori::new(c, MrAprioriConfig::new(support))
            .mine("d.dat")
            .expect("written");
        times.push(run.total_seconds);
    }
    assert!(
        times[1] <= times[0] * 1.01,
        "8 nodes ({}) should not be slower than 2 ({})",
        times[1],
        times[0]
    );
}
