//! Market-basket analysis: YAFIM vs the MapReduce baseline on the same
//! retail-style dataset — the paper's core comparison, end to end.
//!
//! ```sh
//! cargo run --release --example market_basket
//! ```

use yafim::cluster::SimCluster;
use yafim::data::{to_lines, PaperDataset};
use yafim::rdd::Context;
use yafim::{generate_rules, MrApriori, MrAprioriConfig, RuleConfig, Support, Yafim, YafimConfig};

fn main() {
    // A T10I4D100K-shaped basket dataset, scaled down so the example runs
    // in seconds of real time.
    let transactions = PaperDataset::T10I4D100K.generate_scaled(0.1);
    let support = Support::percent(1.0);

    // --- YAFIM on the Spark-style engine ---
    let spark_cluster = SimCluster::paper_cluster();
    spark_cluster
        .hdfs()
        .put_overwrite("retail.dat", to_lines(&transactions));
    let ctx = Context::new(spark_cluster);
    let yafim = Yafim::new(ctx, YafimConfig::new(support))
        .try_mine("retail.dat")
        .expect("dataset written");

    // --- MR-Apriori on the Hadoop-style engine ---
    let mr_cluster = SimCluster::paper_cluster();
    mr_cluster
        .hdfs()
        .put_overwrite("retail.dat", to_lines(&transactions));
    let mr = MrApriori::new(mr_cluster, MrAprioriConfig::new(support))
        .mine("retail.dat")
        .expect("dataset written");

    // The paper's correctness check: identical itemsets.
    assert_eq!(yafim.result, mr.result, "the two engines must agree");

    println!(
        "{} transactions, support {:?}: {} frequent itemsets (max length {})",
        transactions.len(),
        support,
        yafim.result.total(),
        yafim.result.max_len()
    );
    println!(
        "YAFIM: {:>8.2} virtual s   ({} passes)",
        yafim.total_seconds,
        yafim.passes.len()
    );
    println!(
        "MR:    {:>8.2} virtual s   ({} jobs)",
        mr.total_seconds,
        mr.passes.len()
    );
    println!(
        "speedup: {:.1}x (paper reports ~10x on T10I4D100K, ~18x on average)",
        mr.total_seconds / yafim.total_seconds
    );

    // Cross-sell rules from the frequent itemsets.
    let rules = generate_rules(
        &yafim.result,
        transactions.len() as u64,
        &RuleConfig::new(0.6),
    );
    println!("\ntop cross-sell rules (confidence >= 60%):");
    for rule in rules.iter().take(8) {
        println!("  {rule}");
    }
}
