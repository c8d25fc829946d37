//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §4 and `EXPERIMENTS.md`); this library holds the common
//! plumbing: building clusters, loading datasets onto simulated HDFS,
//! running both miners, and printing aligned series.

pub mod microbench;

use yafim_cluster::{ClusterSpec, CostModel, SimCluster};
use yafim_core::{MinerRun, MrApriori, MrAprioriConfig, Support, Yafim, YafimConfig};
use yafim_data::{to_lines, PaperDataset, Transaction};
use yafim_rdd::Context;

/// Build the paper's cluster (or a resized one) with experiment settings.
///
/// HDFS keeps its real 64 MiB default block size. This matters for fidelity:
/// the benchmark datasets are megabytes, so a stock Hadoop deployment hands
/// MapReduce only one or two map tasks per job — a large part of why the
/// paper's MR baseline scales so poorly and grows linearly under
/// replication, while Spark (whose `textFile(path, minPartitions)` splits
/// below block granularity) keeps the whole cluster busy.
pub fn experiment_cluster(spec: ClusterSpec) -> SimCluster {
    SimCluster::new(spec, CostModel::hadoop_era())
}

/// Write a dataset onto a cluster's HDFS under `name`.
pub fn load_dataset(cluster: &SimCluster, name: &str, transactions: &[Transaction]) {
    cluster.hdfs().put_overwrite(name, to_lines(transactions));
}

/// Run YAFIM on a fresh paper-shaped cluster over `transactions`.
pub fn run_yafim(spec: ClusterSpec, transactions: &[Transaction], support: Support) -> MinerRun {
    run_yafim_profiled(spec, transactions, support).0
}

/// Like [`run_yafim`], but also hand back the cluster so callers can read
/// its metrics (span log, per-stage report, Chrome trace) after the run.
pub fn run_yafim_profiled(
    spec: ClusterSpec,
    transactions: &[Transaction],
    support: Support,
) -> (MinerRun, SimCluster) {
    let cluster = experiment_cluster(spec);
    load_dataset(&cluster, "input.dat", transactions);
    let ctx = Context::new(cluster.clone());
    let run = Yafim::new(ctx, YafimConfig::new(support))
        .try_mine("input.dat")
        .expect("input.dat was just written");
    (run, cluster)
}

/// Run MR-Apriori (SPC) on a fresh paper-shaped cluster.
pub fn run_mr(spec: ClusterSpec, transactions: &[Transaction], support: Support) -> MinerRun {
    run_mr_profiled(spec, transactions, support).0
}

/// Like [`run_mr`], but also hand back the cluster for metrics inspection.
pub fn run_mr_profiled(
    spec: ClusterSpec,
    transactions: &[Transaction],
    support: Support,
) -> (MinerRun, SimCluster) {
    let cluster = experiment_cluster(spec);
    load_dataset(&cluster, "input.dat", transactions);
    let run = MrApriori::new(cluster.clone(), MrAprioriConfig::new(support))
        .mine("input.dat")
        .expect("input.dat was just written");
    (run, cluster)
}

/// Generated dataset with its paper metadata, shared by the binaries.
pub struct BenchDataset {
    /// Which paper dataset this is.
    pub dataset: PaperDataset,
    /// Display name.
    pub name: &'static str,
    /// Paper support threshold.
    pub support: Support,
    /// The generated transactions.
    pub transactions: Vec<Transaction>,
}

/// Generate one benchmark dataset at `scale` (1.0 = Table I size).
pub fn bench_dataset(dataset: PaperDataset, scale: f64) -> BenchDataset {
    let profile = dataset.profile();
    BenchDataset {
        dataset,
        name: profile.name,
        support: Support::Fraction(profile.support),
        transactions: dataset.generate_scaled(scale),
    }
}

/// The four Table I benchmarks at `scale`.
pub fn all_benchmarks(scale: f64) -> Vec<BenchDataset> {
    PaperDataset::benchmarks()
        .into_iter()
        .map(|d| bench_dataset(d, scale))
        .collect()
}

/// Print a per-pass comparison of two runs as an aligned text table
/// (the paper's Fig. 3 / Fig. 6 panels, one row per pass).
pub fn print_pass_table(title: &str, yafim: &MinerRun, mr: &MinerRun) {
    println!("\n== {title} ==");
    println!(
        "{:>4}  {:>12}  {:>12}  {:>8}  {:>10}  {:>10}",
        "pass", "YAFIM (s)", "MR (s)", "speedup", "candidates", "frequent"
    );
    let passes = yafim.passes.len().max(mr.passes.len());
    for i in 0..passes {
        let y = yafim.passes.get(i);
        let m = mr.passes.get(i);
        let ys = y.map_or(f64::NAN, |p| p.seconds);
        let ms = m.map_or(f64::NAN, |p| p.seconds);
        println!(
            "{:>4}  {:>12.2}  {:>12.2}  {:>7.1}x  {:>10}  {:>10}",
            i + 1,
            ys,
            ms,
            ms / ys,
            y.or(m).map_or(0, |p| p.candidates),
            y.or(m).map_or(0, |p| p.frequent),
        );
    }
    println!(
        "{:>4}  {:>12.2}  {:>12.2}  {:>7.1}x   total frequent itemsets: {}",
        "all",
        yafim.total_seconds,
        mr.total_seconds,
        mr.total_seconds / yafim.total_seconds,
        yafim.result.total()
    );
}

/// Write a [`RunManifest`] as a JSON document at `path`, creating parent
/// directories as needed. Smoke runs write under `target/manifests/` (the
/// regression gate compares them against the committed baselines in
/// `results/`); full runs write next to the text reports in `results/`.
pub fn write_manifest(manifest: &yafim_cluster::RunManifest, path: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("create {}: {e}", parent.display()));
        }
    }
    std::fs::write(path, format!("{}\n", manifest.to_json()))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Assert both miners found identical itemsets — the paper's correctness
/// check ("all the experimental results of YAFIM are exactly same as
/// MRApriori"). Panics with a diagnostic on mismatch.
pub fn assert_same_results(name: &str, yafim: &MinerRun, mr: &MinerRun) {
    assert_eq!(
        yafim.result.level_sizes(),
        mr.result.level_sizes(),
        "{name}: level sizes diverge"
    );
    assert_eq!(yafim.result, mr.result, "{name}: itemsets diverge");
}
