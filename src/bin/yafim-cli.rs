//! `yafim-cli` — command-line frontend to the whole library.
//!
//! ```text
//! yafim-cli generate --dataset mushroom --out mushroom.dat [--scale 0.5]
//! yafim-cli mine --input mushroom.dat --support 35% [--miner spark]
//!           [--nodes 12 --cores 8] [--rules 0.8] [--top 10] [--timeline]
//!           [--report] [--trace out.json]
//! yafim-cli compare --input mushroom.dat --support 35%
//! ```
//!
//! `--report` prints a Spark-UI-style per-stage/per-iteration summary;
//! `--trace FILE` writes a Chrome trace (open in <https://ui.perfetto.dev>
//! or `chrome://tracing`) of the run's job/stage/task spans, one process
//! per simulated node and one thread per core.
//!
//! Miners: `sequential` (Apriori), `eclat`, `fpgrowth` (single-node);
//! `spark` (YAFIM, default), `mapreduce` (MR-Apriori/SPC), `son`, `pfp`
//! (distributed, on the simulated cluster — virtual timings are reported).

use std::process::exit;
use yafim::cluster::{ClusterSpec, CostModel, ExecError, SimCluster};
use yafim::data::{read_dat, to_lines, PaperDataset};
use yafim::rdd::Context;
use yafim::{
    apriori, eclat, fp_growth, generate_rules, MinerRun, MrApriori, MrAprioriConfig, Pfp,
    PfpConfig, RuleConfig, SequentialConfig, Son, SonConfig, Support, Yafim, YafimConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage:
  yafim-cli generate --dataset <mushroom|t10|chess|pumsb|medical> --out <file.dat> [--scale X]
  yafim-cli mine     --input <file.dat> --support <N|P%> [--miner <sequential|eclat|fpgrowth|spark|mapreduce|son|pfp>]
                     [--phase2 <paper|bitmap>] [--nodes N] [--cores C] [--locality-wait SECS]
                     [--memory-fraction FRAC]
                     [--rules MIN_CONF] [--top K]
                     [--fault-plan plan.json] [--timeline] [--report] [--trace out.json]
                     [--critical-path] [--manifest out.json]
  yafim-cli compare  --input <file.dat> --support <N|P%> [--nodes N] [--cores C]"
    );
    exit(2)
}

/// `--name value` lookup over argv.
fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn parse_support(s: &str) -> Support {
    if let Some(pct) = s.strip_suffix('%') {
        match pct.parse::<f64>() {
            Ok(p) if p > 0.0 && p <= 100.0 => Support::percent(p),
            _ => {
                eprintln!("bad support percentage: {s}");
                exit(2)
            }
        }
    } else {
        match s.parse::<u64>() {
            Ok(n) if n > 0 => Support::Count(n),
            _ => {
                eprintln!("bad support count: {s}");
                exit(2)
            }
        }
    }
}

fn parse_dataset(s: &str) -> PaperDataset {
    match s {
        "mushroom" => PaperDataset::Mushroom,
        "t10" | "t10i4d100k" => PaperDataset::T10I4D100K,
        "chess" => PaperDataset::Chess,
        "pumsb" | "pumsb_star" => PaperDataset::PumsbStar,
        "medical" => PaperDataset::Medical,
        _ => {
            eprintln!("unknown dataset: {s}");
            exit(2)
        }
    }
}

fn cluster() -> SimCluster {
    let nodes: u32 = arg("--nodes").and_then(|s| s.parse().ok()).unwrap_or(12);
    let cores: u32 = arg("--cores").and_then(|s| s.parse().ok()).unwrap_or(8);
    let c = SimCluster::new(
        ClusterSpec::new(nodes.max(1), cores.max(1), 24 * 1024 * 1024 * 1024),
        CostModel::hadoop_era(),
    );
    // `--locality-wait SECS` — delay-scheduling threshold: how long a task
    // waits for a core on its preferred node before spilling to any free
    // core. 0 disables delay scheduling; large values pin tasks to their
    // data. Virtual-time only: results never change.
    if let Some(w) = arg("--locality-wait") {
        match w.parse::<f64>() {
            Ok(secs) if secs >= 0.0 => {
                let mut cfg = c.scheduler_config();
                cfg.locality_wait = secs;
                c.set_scheduler_config(cfg);
            }
            _ => {
                eprintln!("bad --locality-wait (expected seconds >= 0): {w}");
                exit(2)
            }
        }
    }
    // `--memory-fraction FRAC` — the storage (cache) share of each node's
    // memory; the rest is the execution region the memory governor budgets
    // tasks against. Must land in (0, 1]; the 0.6 default reproduces the
    // historical split bit-for-bit.
    if let Some(f) = arg("--memory-fraction") {
        match f.parse::<f64>() {
            Ok(frac) if frac > 0.0 && frac <= 1.0 => {
                let mut cfg = c.scheduler_config();
                cfg.storage_fraction = frac;
                c.set_scheduler_config(cfg);
            }
            _ => {
                eprintln!("bad --memory-fraction (expected a fraction in (0, 1]): {f}");
                exit(1)
            }
        }
    }
    c
}

fn load_transactions(path: &str) -> Vec<Vec<u32>> {
    match read_dat(path) {
        Ok(tx) if tx.iter().any(|t| !t.is_empty()) => tx,
        Ok(_) => {
            eprintln!("{path}: no transactions found");
            exit(1)
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            exit(1)
        }
    }
}

fn cmd_generate() {
    let dataset = parse_dataset(&arg("--dataset").unwrap_or_else(|| usage()));
    let out = arg("--out").unwrap_or_else(|| usage());
    let scale: f64 = arg("--scale").and_then(|s| s.parse().ok()).unwrap_or(1.0);
    let tx = dataset.generate_scaled(scale);
    if let Err(e) = yafim::data::write_dat(&out, &tx) {
        eprintln!("{out}: {e}");
        exit(1);
    }
    let s = yafim::data::stats(&tx);
    println!(
        "wrote {} transactions ({} distinct items, avg length {:.1}) to {out}",
        s.transactions, s.distinct_items, s.avg_len
    );
}

/// `--phase2 <paper|bitmap>` — the Spark miner's Phase-II hot path:
/// `paper` (default) is the paper-faithful hash-tree engine, and `bitmap`
/// enables dense re-encoding, the triangular pass-2 counter, cross-pass
/// trimming and vertical TID-bitmap counting for `k ≥ 3` (word-wise AND +
/// popcount over a columnar store). Results are identical; only the
/// virtual timings move.
fn yafim_config(support: Support) -> YafimConfig {
    match arg("--phase2").as_deref() {
        None | Some("paper") => YafimConfig::new(support),
        Some("bitmap") => YafimConfig::bitmap(support),
        Some(other) => {
            eprintln!("unknown --phase2 mode `{other}`: expected paper or bitmap");
            exit(1)
        }
    }
}

/// `--fault-plan FILE` — a JSON fault plan (see `results/*.fault.json` for
/// examples and `FaultPlan::to_json` for the schema) installed on the
/// simulated cluster before mining. Seeded and fully deterministic: the same
/// plan over the same input reproduces results, virtual time and recovery
/// counters bit-for-bit.
fn fault_plan() -> Option<yafim::cluster::FaultPlan> {
    let path = arg("--fault-plan")?;
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            exit(1)
        }
    };
    let value = match yafim::cluster::json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{path}: invalid JSON: {e}");
            exit(1)
        }
    };
    match yafim::cluster::FaultPlan::from_json(&value) {
        Ok(plan) => Some(plan),
        Err(e) => {
            eprintln!("{path}: invalid fault plan: {e}");
            exit(1)
        }
    }
}

/// Mine `tx` on a fresh simulated cluster with one of the distributed
/// engines.
fn run_distributed(
    miner: &str,
    tx: &[Vec<u32>],
    support: Support,
) -> Result<(MinerRun, SimCluster), ExecError> {
    let c = cluster();
    if let Some(plan) = fault_plan() {
        c.faults().set_plan(plan);
    }
    c.hdfs().put_overwrite("input.dat", to_lines(tx));
    let run = match miner {
        "spark" => Yafim::new(Context::new(c.clone()), yafim_config(support)).try_mine("input.dat"),
        "mapreduce" => MrApriori::new(c.clone(), MrAprioriConfig::new(support)).mine("input.dat"),
        "son" => Son::new(c.clone(), SonConfig::new(support)).mine("input.dat"),
        "pfp" => Pfp::new(Context::new(c.clone()), PfpConfig::new(support)).mine("input.dat"),
        _ => unreachable!("checked by caller"),
    };
    Ok((run?, c))
}

/// An engine failure (stage abort, integrity refusal, OOM kill, memory
/// refusal) prints as one stderr line and exits 1.
fn or_exit<T>(miner: &str, outcome: Result<T, ExecError>) -> T {
    outcome.unwrap_or_else(|e| {
        eprintln!("{miner}: {e}");
        exit(1)
    })
}

fn cmd_mine() {
    let input = arg("--input").unwrap_or_else(|| usage());
    let support = parse_support(&arg("--support").unwrap_or_else(|| usage()));
    let miner = arg("--miner").unwrap_or_else(|| "spark".to_string());
    let tx = load_transactions(&input);

    let start = std::time::Instant::now();
    let (result, virtual_secs, cluster) = match miner.as_str() {
        "sequential" => (apriori(&tx, &SequentialConfig::new(support)), None, None),
        "eclat" => (eclat(&tx, support), None, None),
        "fpgrowth" => (fp_growth(&tx, support), None, None),
        "spark" | "mapreduce" | "son" | "pfp" => {
            let (run, c) = or_exit(&miner, run_distributed(&miner, &tx, support));
            (run.result, Some(run.total_seconds), Some(c))
        }
        other => {
            eprintln!("unknown miner: {other}");
            exit(2)
        }
    };
    let wall = start.elapsed();

    println!(
        "{miner}: {} frequent itemsets (longest {}), levels {:?}",
        result.total(),
        result.max_len(),
        result.level_sizes()
    );
    match virtual_secs {
        Some(v) => println!("virtual cluster time {v:.2}s (wall {wall:.2?})"),
        None => println!("wall time {wall:.2?}"),
    }

    let top: usize = arg("--top").and_then(|s| s.parse().ok()).unwrap_or(10);
    let mut by_support: Vec<_> = result.iter().filter(|(s, _)| s.len() >= 2).collect();
    by_support.sort_by_key(|(_, sup)| std::cmp::Reverse(*sup));
    if !by_support.is_empty() {
        println!("\ntop itemsets (length >= 2):");
        for (set, sup) in by_support.into_iter().take(top) {
            println!("  {set}  support {sup}");
        }
    }

    if let Some(min_conf) = arg("--rules").and_then(|s| s.parse::<f64>().ok()) {
        let rules = generate_rules(&result, tx.len() as u64, &RuleConfig::new(min_conf));
        println!("\n{} rules at confidence >= {min_conf}:", rules.len());
        for rule in rules.iter().take(top) {
            println!("  {rule}");
        }
    }

    if flag("--timeline") {
        if let Some(c) = &cluster {
            println!("\nvirtual timeline:");
            print!("{}", c.metrics().render_timeline());
        } else {
            eprintln!("--timeline requires a distributed miner");
        }
    }

    if flag("--report") {
        if let Some(c) = &cluster {
            println!("\n{}", yafim::cluster::full_report(c.metrics()));
        } else {
            eprintln!("--report requires a distributed miner");
        }
    }

    if let Some(path) = arg("--trace") {
        if let Some(c) = &cluster {
            let json = yafim::cluster::chrome_trace(c.metrics(), c.spec());
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("{path}: {e}");
                exit(1);
            }
            println!("\nwrote Chrome trace to {path} (open in https://ui.perfetto.dev)");
        } else {
            eprintln!("--trace requires a distributed miner");
        }
    }

    // `--critical-path` — decompose the virtual makespan into exhaustive
    // attribution buckets (compute, shuffle, broadcast, faults, scheduler
    // idle, ...) plus per-stage skew, straight from the span log.
    if flag("--critical-path") {
        if let Some(c) = &cluster {
            let report = yafim::cluster::critical_path(c.metrics(), c.cost());
            println!("\n{}", report.render());
        } else {
            eprintln!("--critical-path requires a distributed miner");
        }
    }

    // `--manifest FILE` — write the versioned run manifest (the same
    // document the bench binaries emit for the regression gate).
    if let Some(path) = arg("--manifest") {
        if let Some(c) = &cluster {
            use yafim::cluster::json::JsonValue;
            let dataset = JsonValue::object(vec![
                ("input", input.as_str().into()),
                ("transactions", tx.len().into()),
            ]);
            let config = JsonValue::object(vec![
                ("miner", miner.as_str().into()),
                (
                    "phase2",
                    arg("--phase2").unwrap_or_else(|| "paper".into()).into(),
                ),
                ("nodes", (c.spec().nodes as u64).into()),
                ("cores_per_node", (c.spec().cores_per_node as u64).into()),
                ("locality_wait", c.scheduler_config().locality_wait.into()),
                (
                    "storage_fraction",
                    c.scheduler_config().storage_fraction.into(),
                ),
            ]);
            let mut manifest =
                yafim::cluster::RunManifest::capture("yafim-cli mine", &miner, dataset, config, c);
            manifest.push_metric("frequent_itemsets", result.total() as f64);
            if let Err(e) = std::fs::write(&path, format!("{}\n", manifest.to_json())) {
                eprintln!("{path}: {e}");
                exit(1);
            }
            println!("\nwrote run manifest to {path}");
        } else {
            eprintln!("--manifest requires a distributed miner");
        }
    }
}

fn cmd_compare() {
    let input = arg("--input").unwrap_or_else(|| usage());
    let support = parse_support(&arg("--support").unwrap_or_else(|| usage()));
    let tx = load_transactions(&input);

    println!("{:<12} {:>12} {:>10}", "miner", "virtual (s)", "itemsets");
    let mut reference = None;
    for miner in ["spark", "mapreduce", "son", "pfp"] {
        let (run, _) = or_exit(miner, run_distributed(miner, &tx, support));
        if let Some(r) = &reference {
            assert_eq!(r, &run.result, "{miner} diverges — please report a bug");
        }
        println!(
            "{:<12} {:>12.2} {:>10}",
            miner,
            run.total_seconds,
            run.result.total()
        );
        reference.get_or_insert(run.result);
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("generate") => cmd_generate(),
        Some("mine") => cmd_mine(),
        Some("compare") => cmd_compare(),
        _ => usage(),
    }
}
