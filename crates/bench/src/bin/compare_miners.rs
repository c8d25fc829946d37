//! Extension comparison (beyond the paper's figures): every parallel miner
//! in the repository on the same dataset and cluster — YAFIM (k-phase,
//! Spark-style), MR-Apriori/SPC (k-phase, MapReduce), SON (one-phase,
//! MapReduce) and PFP (no candidate generation, Spark-style) — the four
//! corners of the design space the paper's related-work section sketches.
//!
//! Usage: `cargo run -p yafim-bench --release --bin compare_miners [--scale X]`

use yafim_bench::{bench_dataset, experiment_cluster, load_dataset};
use yafim_cluster::ClusterSpec;
use yafim_core::{
    MinerRun, MrApriori, MrAprioriConfig, Pfp, PfpConfig, Son, SonConfig, Yafim, YafimConfig,
};
use yafim_data::PaperDataset;
use yafim_rdd::Context;

fn main() {
    let scale: f64 = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);

    for ds in [PaperDataset::Mushroom, PaperDataset::Medical] {
        let data = bench_dataset(ds, scale);
        println!(
            "\n== miner comparison: {} (sup per paper, scale {scale}) ==",
            data.name
        );
        println!(
            "{:<28} {:>8} {:>12} {:>10}",
            "miner", "jobs", "total (s)", "itemsets"
        );

        let mut reference: Option<MinerRun> = None;
        let mut report = |label: &str, jobs: u64, run: MinerRun| {
            if let Some(r) = &reference {
                assert_eq!(r.result, run.result, "{label} diverges");
            }
            println!(
                "{:<28} {:>8} {:>12.2} {:>10}",
                label,
                jobs,
                run.total_seconds,
                run.result.total()
            );
            reference.get_or_insert(run);
        };

        // YAFIM (the paper's contribution).
        let cluster = experiment_cluster(ClusterSpec::paper());
        load_dataset(&cluster, "input.dat", &data.transactions);
        let run = Yafim::new(
            Context::new(cluster.clone()),
            YafimConfig::new(data.support),
        )
        .try_mine("input.dat")
        .expect("dataset written");
        report(
            "YAFIM (Spark, k-phase)",
            cluster.metrics().snapshot().jobs,
            run,
        );

        // MR-Apriori / SPC (the paper's baseline).
        let cluster = experiment_cluster(ClusterSpec::paper());
        load_dataset(&cluster, "input.dat", &data.transactions);
        let run = MrApriori::new(cluster.clone(), MrAprioriConfig::new(data.support))
            .mine("input.dat")
            .expect("dataset written");
        report(
            "MR-Apriori/SPC (k-phase)",
            cluster.metrics().snapshot().jobs,
            run,
        );

        // SON (one-phase family from related work).
        let cluster = experiment_cluster(ClusterSpec::paper());
        load_dataset(&cluster, "input.dat", &data.transactions);
        let run = Son::new(cluster.clone(), SonConfig::new(data.support))
            .mine("input.dat")
            .expect("dataset written");
        report(
            "SON (MapReduce, one-phase)",
            cluster.metrics().snapshot().jobs,
            run,
        );

        // PFP (no candidate generation, Spark-style).
        let cluster = experiment_cluster(ClusterSpec::paper());
        load_dataset(&cluster, "input.dat", &data.transactions);
        let run = Pfp::new(Context::new(cluster.clone()), PfpConfig::new(data.support))
            .mine("input.dat")
            .expect("dataset written");
        report(
            "PFP (Spark, FP-Growth)",
            cluster.metrics().snapshot().jobs,
            run,
        );
    }
    println!("\n(All miners are asserted to produce identical itemsets.)");
}
