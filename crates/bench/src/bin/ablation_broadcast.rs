//! Ablation for §IV.C ("Share Data With Broadcast"): YAFIM with Spark's
//! torrent-style broadcast variables versus the naive default the paper
//! warns about, where the driver ships the shared data (the candidate hash
//! tree) with *every task* through its single uplink.
//!
//! Usage: `cargo run -p yafim-bench --release --bin ablation_broadcast [--scale X]`

use yafim_bench::{bench_dataset, experiment_cluster, load_dataset};
use yafim_cluster::ClusterSpec;
use yafim_core::{Yafim, YafimConfig};
use yafim_data::PaperDataset;
use yafim_rdd::{BroadcastMode, Context, RddConfig};

fn main() {
    let scale: f64 = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);

    println!("== Ablation: broadcast variables vs naive per-task shipping (§IV.C) ==");
    println!(
        "{:<12} {:>16} {:>16} {:>10}",
        "dataset", "torrent (s)", "per-task (s)", "penalty"
    );
    for ds in [PaperDataset::T10I4D100K, PaperDataset::Mushroom] {
        let data = bench_dataset(ds, scale);
        let mut totals = Vec::new();
        for mode in [BroadcastMode::Torrent, BroadcastMode::NaivePerTask] {
            let cluster = experiment_cluster(ClusterSpec::paper());
            load_dataset(&cluster, "input.dat", &data.transactions);
            let mut cfg = RddConfig::for_cluster(&cluster);
            cfg.broadcast = mode;
            let ctx = Context::with_config(cluster, cfg);
            let run = Yafim::new(ctx, YafimConfig::new(data.support))
                .try_mine("input.dat")
                .expect("dataset written");
            totals.push(run.total_seconds);
        }
        println!(
            "{:<12} {:>16.2} {:>16.2} {:>9.2}x",
            data.name,
            totals[0],
            totals[1],
            totals[1] / totals[0]
        );
    }
    println!(
        "\n(The paper: naive shipping makes the master's bandwidth the bottleneck, \
         'capping the rate at which tasks could be launched'.)"
    );
}
