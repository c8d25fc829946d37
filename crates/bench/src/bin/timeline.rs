//! Inspection tool: run YAFIM on one dataset and dump the full virtual-time
//! event log (jobs, stages, broadcasts, driver work, per-pass spans), the
//! per-stage Spark-UI-style table, and the by-kind breakdown — the raw
//! material behind every figure.
//!
//! Usage: `cargo run -p yafim-bench --release --bin timeline
//!     [--dataset mushroom|t10|chess|pumsb|medical] [--scale X]
//!     [--trace out.json]`
//!
//! `--trace` writes the run's Chrome trace (Perfetto / chrome://tracing).

use yafim_bench::{bench_dataset, experiment_cluster, load_dataset};
use yafim_cluster::{chrome_trace, full_report, ClusterSpec};
use yafim_core::{Yafim, YafimConfig};
use yafim_data::PaperDataset;
use yafim_rdd::Context;

fn arg(name: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != name).nth(1)
}

fn main() {
    let dataset = match arg("--dataset").as_deref() {
        None | Some("mushroom") => PaperDataset::Mushroom,
        Some("t10") => PaperDataset::T10I4D100K,
        Some("chess") => PaperDataset::Chess,
        Some("pumsb") => PaperDataset::PumsbStar,
        Some("medical") => PaperDataset::Medical,
        Some(other) => {
            eprintln!("unknown dataset {other}; use mushroom|t10|chess|pumsb|medical");
            std::process::exit(2);
        }
    };
    let scale: f64 = arg("--scale").and_then(|s| s.parse().ok()).unwrap_or(0.25);

    let data = bench_dataset(dataset, scale);
    let cluster = experiment_cluster(ClusterSpec::paper());
    load_dataset(&cluster, "input.dat", &data.transactions);
    let run = Yafim::new(
        Context::new(cluster.clone()),
        YafimConfig::new(data.support),
    )
    .try_mine("input.dat")
    .expect("dataset written");

    println!(
        "YAFIM on {} (scale {scale}): {} itemsets in {:.2} virtual s\n",
        data.name,
        run.result.total(),
        run.total_seconds
    );
    print!("{}", cluster.metrics().render_timeline());

    println!("\n{}", full_report(cluster.metrics()));

    println!("virtual time by event kind:");
    for (kind, n, total) in cluster.metrics().summary_by_kind() {
        println!("  {kind:?}: {n} events, {total}");
    }
    let snap = cluster.metrics().snapshot();
    println!(
        "\njobs {} · stages {} · tasks {} · cpu units {} · shuffle bytes {}",
        snap.jobs, snap.stages, snap.tasks, snap.work.cpu_units, snap.work.ser_bytes
    );

    if let Some(path) = arg("--trace") {
        let json = chrome_trace(cluster.metrics(), cluster.spec());
        match std::fs::write(&path, json) {
            Ok(()) => println!("\nwrote Chrome trace to {path} (open in https://ui.perfetto.dev)"),
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
