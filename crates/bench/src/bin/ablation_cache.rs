//! Ablation for §IV.B ("Memory Utilization"): what caching the transactions
//! RDD is worth. Three configurations:
//!
//! * normal — full cache, the YAFIM design;
//! * starved — per-node cache capacity too small for the dataset, so
//!   partitions are evicted and recomputed from HDFS through the lineage
//!   every pass (Spark under memory pressure);
//! * the MapReduce baseline, which has no cache at all.
//!
//! Honest finding (recorded in EXPERIMENTS.md): at Table I scale on 96
//! cores, re-reading megabytes from HDFS is nearly free, so the starved
//! cache costs little *time* — the disk-traffic column shows the extra I/O
//! the cache removes. The MapReduce baseline's 20×+ penalty comes from its
//! per-job architecture, not from re-reading bytes per se; caching becomes
//! time-critical only when the dataset is large relative to the cluster.
//!
//! Usage: `cargo run -p yafim-bench --release --bin ablation_cache [--scale X]`

use yafim_bench::{bench_dataset, experiment_cluster, load_dataset};
use yafim_cluster::ClusterSpec;
use yafim_core::{MrApriori, MrAprioriConfig, Yafim, YafimConfig};
use yafim_data::{replicate, PaperDataset};
use yafim_rdd::{Context, RddConfig};

fn main() {
    let scale: f64 = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);

    let data = bench_dataset(PaperDataset::T10I4D100K, scale);
    let transactions = replicate(&data.transactions, 4);

    println!("== Ablation: memory utilization (§IV.B), T10I4D100K (4x) sup=0.25% ==");
    println!(
        "{:<38} {:>10} {:>14} {:>24}",
        "configuration", "time (s)", "disk read", "cache activity"
    );

    let mut baseline = None;
    for (label, capacity) in [
        ("YAFIM, full cache", None),
        ("YAFIM, starved cache (256 KiB/node)", Some(256 * 1024)),
    ] {
        let cluster = experiment_cluster(ClusterSpec::paper());
        load_dataset(&cluster, "input.dat", &transactions);
        let mut cfg = RddConfig::for_cluster(&cluster);
        cfg.cache_capacity_per_node = capacity;
        let ctx = Context::with_config(cluster.clone(), cfg);
        let run = Yafim::new(ctx.clone(), YafimConfig::new(data.support))
            .try_mine("input.dat")
            .expect("dataset written");
        let cache = ctx.cache().stats();
        let disk = cluster.metrics().snapshot().work.disk_read_bytes;
        baseline.get_or_insert(run.total_seconds);
        println!(
            "{:<38} {:>10.2} {:>11.1} MB {:>7} hit / {:>5} evict",
            label,
            run.total_seconds,
            disk as f64 / 1e6,
            cache.hits,
            cache.evictions
        );
    }

    let cluster = experiment_cluster(ClusterSpec::paper());
    load_dataset(&cluster, "input.dat", &transactions);
    let mr = MrApriori::new(cluster.clone(), MrAprioriConfig::new(data.support))
        .mine("input.dat")
        .expect("dataset written");
    let disk = cluster.metrics().snapshot().work.disk_read_bytes;
    println!(
        "{:<38} {:>10.2} {:>11.1} MB   re-reads HDFS every job",
        "MR-Apriori (no cache by design)",
        mr.total_seconds,
        disk as f64 / 1e6
    );
    println!(
        "\nMapReduce penalty over cached YAFIM: {:.1}x",
        mr.total_seconds / baseline.expect("baseline ran")
    );
}
