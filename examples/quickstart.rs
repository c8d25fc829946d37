//! Quickstart: mine frequent itemsets with YAFIM on the simulated paper
//! cluster.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use yafim::cluster::SimCluster;
use yafim::data::{to_lines, QuestConfig, QuestGenerator};
use yafim::rdd::Context;
use yafim::{Support, Yafim, YafimConfig};

fn main() {
    // 1. A virtual cluster shaped like the paper's testbed: 12 nodes,
    //    8 cores and 24 GB each. Computation is real; time is virtual.
    let cluster = SimCluster::paper_cluster();

    // 2. A synthetic market-basket dataset on simulated HDFS.
    let transactions = QuestGenerator::new(QuestConfig {
        transactions: 20_000,
        items: 500,
        avg_transaction_len: 8.0,
        avg_pattern_len: 3.0,
        patterns: 80,
        correlation: 0.4,
        keep_fraction: 0.7,
        seed: 1,
    })
    .generate();
    cluster
        .hdfs()
        .put_overwrite("baskets.dat", to_lines(&transactions));

    // 3. Mine with YAFIM at 1% minimum support.
    let ctx = Context::new(cluster);
    let run = Yafim::new(ctx, YafimConfig::new(Support::percent(1.0)))
        .try_mine("baskets.dat")
        .expect("dataset was just written");

    // 4. Report.
    println!(
        "YAFIM mined {} frequent itemsets (longest: {} items) in {:.2} virtual seconds",
        run.result.total(),
        run.result.max_len(),
        run.total_seconds
    );
    println!("\nper-pass breakdown:");
    for p in &run.passes {
        println!(
            "  pass {:>2}: {:>7.3}s   {:>6} candidates -> {:>6} frequent",
            p.pass, p.seconds, p.candidates, p.frequent
        );
    }

    println!("\nmost frequent pairs:");
    let mut pairs: Vec<_> = run.result.level(2).to_vec();
    pairs.sort_by_key(|(_, sup)| std::cmp::Reverse(*sup));
    for (set, sup) in pairs.iter().take(5) {
        println!("  {set}  support {sup}");
    }
}
