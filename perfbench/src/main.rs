//! `perfbench` — host time to result of YAFIM mining.
//!
//! ```text
//! perfbench --workload <sparse|dense|pressured> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every mine calls `Yafim::try_mine` on a fresh simulated cluster whose
//! HDFS already holds the workload's input, as `yafim-cli mine` does. An
//! untraced run (`--trace 0`) sets up and mines once to warm up, then for
//! `--seconds` seconds times set-up and mine pairs and reports medians. A
//! traced run (`--trace 1`) does the same and then makes one traced pass:
//! set-up, one mine and the per-layer probes, each in a span. Every result
//! is compared with FP-Growth on the same transactions; the last line of
//! standard output is one JSON object with the metrics. The exit code is
//! non-zero if any mine failed, differed from the oracle, or reported a
//! different virtual time.

mod check;
mod metrics;
mod probes;
mod span;
mod workload;

use std::collections::BTreeMap;
use std::process::exit;
use std::time::{Duration, Instant};
use yafim_cluster::json::JsonValue;
use yafim_cluster::{RunManifest, SimCluster};
use yafim_core::{fp_growth, MiningResult, Yafim};
use yafim_data::{to_lines, Transaction};
use yafim_rdd::Context;

use span::Tracer;
use workload::{Workload, INPUT};

/// Timed mines (and set-ups) per run, at least, however short `--seconds`
/// is.
const MIN_TIMED_MINES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Every mine's outcome: distinct results with how many mines returned
/// each, errors, and virtual times.
#[derive(Default)]
struct Tally {
    results: Vec<(MiningResult, usize)>,
    errors: Vec<String>,
    virtual_s: Vec<f64>,
}

impl Tally {
    fn record(&mut self, outcome: Result<(MiningResult, f64), String>) {
        match outcome {
            Ok((result, virtual_s)) => {
                self.virtual_s.push(virtual_s);
                match self.results.iter_mut().find(|(r, _)| *r == result) {
                    Some((_, n)) => *n += 1,
                    None => self.results.push((result, 1)),
                }
            }
            Err(e) => self.errors.push(e),
        }
    }

    fn attempted(&self) -> usize {
        self.errors.len() + self.results.iter().map(|(_, n)| n).sum::<usize>()
    }

    /// Failed mines and why: errors plus results that differ from `oracle`.
    fn failures(&self, oracle: &MiningResult) -> (usize, Vec<String>) {
        let mut why = self.errors.clone();
        let mut failed = self.errors.len();
        for (result, n) in &self.results {
            if let Err(diff) = check::compare(result, oracle) {
                failed += n;
                why.push(format!("{n} mine(s) differ from the oracle: {diff}"));
            }
        }
        (failed, why)
    }
}

/// One mine of `w` on `cluster`; returns the host seconds of `try_mine`.
fn mine(w: Workload, cluster: &SimCluster) -> (f64, Result<(MiningResult, f64), String>) {
    let miner = Yafim::new(Context::new(cluster.clone()), w.config());
    let start = Instant::now();
    let outcome = miner.try_mine(INPUT);
    let secs = start.elapsed().as_secs_f64();
    (
        secs,
        outcome
            .map(|run| (run.result, run.total_seconds))
            .map_err(|e| e.to_string()),
    )
}

/// Per-layer metrics from the traced pass, plus its span table.
struct Traced {
    metrics: BTreeMap<&'static str, f64>,
    table: String,
}

fn traced_pass(w: Workload, seed: u64, tally: &mut Tally, mine_s: f64) -> Result<Traced, String> {
    let mut t = Tracer::new();
    let (tx, lines, cluster) = probes::setup(&mut t, w, seed)?;
    let miner = Yafim::new(Context::new(cluster.clone()), w.config());
    let outcome = t.span("mine", |_| miner.try_mine(INPUT));
    let run = match outcome {
        Ok(run) => run,
        Err(e) => {
            tally.record(Err(e.to_string()));
            return Err(format!("traced mine failed: {e}"));
        }
    };
    tally.record(Ok((run.result.clone(), run.total_seconds)));

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let manifest = RunManifest::capture(
        "perfbench",
        w.shape().config,
        JsonValue::object(vec![("workload", w.name().into()), ("seed", seed.into())]),
        JsonValue::object(vec![]),
        &cluster,
    );
    for &(name, key) in metrics::FROM_MANIFEST {
        let value = manifest.metrics.get(key).copied().unwrap_or_else(|| {
            eprintln!("warning: run manifest has no `{key}`; {name} reads 0");
            0.0
        });
        metrics.insert(name, value);
    }
    let hits = metrics["rdd.cache_hits"];
    let lookups = hits + metrics["rdd.cache_misses"];
    metrics.insert("rdd.cache_hit_ratio", hits / lookups.max(1.0));

    let min_sup = w.config().min_support.resolve(lines.len() as u64);
    let partitions = Context::new(cluster.clone()).config().default_parallelism;
    let splits: Vec<_> = cluster
        .hdfs()
        .get(INPUT)
        .map_err(|e| e.to_string())?
        .splits(partitions)
        .into_iter()
        .map(|s| s.lines)
        .collect();
    drop(miner);
    drop(cluster);

    let (counts, candidates) = probes::core(&mut t, w, &tx, &run, min_sup, &splits)?;
    metrics.extend(counts);
    let largest = candidates
        .into_iter()
        .max_by_key(Vec::len)
        .unwrap_or_default();
    probes::rdd(&mut t, w, &lines, &run.result, min_sup, largest)?;

    for &(name, unit) in metrics::PER_LAYER {
        if unit == "s" && !metrics.contains_key(name) {
            metrics.insert(name, t.total(name));
        }
    }
    metrics.insert("trace_overhead_s", t.total("mine") - mine_s);
    Ok(Traced {
        metrics,
        table: t.render(),
    })
}

/// The final JSON line: every metric in `list`, with its unit.
fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    list: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> Result<JsonValue, String> {
    let mut out = Vec::new();
    for &(name, unit) in list {
        let value = *values
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        out.push((
            name,
            JsonValue::object(vec![("value", value.into()), ("unit", unit.into())]),
        ));
    }
    Ok(JsonValue::object(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", JsonValue::object(out)),
    ]))
}

/// One set-up: generate the transactions from the seed, serialize them,
/// build a fresh cluster and put the lines into its HDFS.
fn setup(w: Workload, seed: u64) -> (Vec<Transaction>, SimCluster) {
    let tx = w.generate(seed);
    let lines = to_lines(&tx);
    let cluster = w.cluster(lines);
    (tx, cluster)
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let shape = w.shape();

    // Warm-up: one set-up and one mine, neither timed. The peak resident
    // set is read right after them, as in one `yafim-cli mine` process;
    // later mines only add allocator fragmentation that grows with their
    // number.
    let (tx, cluster) = setup(w, args.seed);
    let mut tally = Tally::default();
    tally.record(mine(w, &cluster).1);
    drop(cluster);
    let peak_rss_mib = check::peak_rss_mib()?;

    // Each timed mine runs on a set-up of its own, timed too, so set-ups
    // and mines sample the same stretch of host time.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut setup_times = Vec::new();
    let mut mine_times = Vec::new();
    while mine_times.len() < MIN_TIMED_MINES || started.elapsed() < budget {
        let start = Instant::now();
        let (input, cluster) = setup(w, args.seed);
        setup_times.push(start.elapsed().as_secs_f64());
        drop(input);
        let (secs, outcome) = mine(w, &cluster);
        drop(cluster);
        mine_times.push(secs);
        tally.record(outcome);
    }
    let mine_s = check::median(&mine_times);

    let traced = if args.trace {
        Some(traced_pass(w, args.seed, &mut tally, mine_s)?)
    } else {
        None
    };

    let oracle = fp_growth(&tx, w.config().min_support);
    let (failed, why) = tally.failures(&oracle);
    let attempted = tally.attempted();
    let virtual_s = tally.virtual_s.first().copied().unwrap_or(f64::NAN);
    let steady_virtual = tally.virtual_s.iter().all(|&v| v == virtual_s);
    let correct = failed == 0 && steady_virtual;

    println!(
        "workload {}: {} stand-in, {} transactions, {} distinct items, support {}%, config {}, budget {}, seed {}",
        w.name(),
        shape.dataset.profile().name,
        tx.len(),
        yafim_data::stats(&tx).distinct_items,
        shape.support_percent,
        shape.config,
        shape
            .budget
            .map_or("none".to_string(), |b| format!("{} MiB/node", b >> 20)),
        args.seed
    );
    println!(
        "  itemsets {} (oracle: FP-Growth, {} itemsets)",
        tally.results.first().map_or(0, |(r, _)| r.total()),
        oracle.total()
    );
    for line in &why {
        println!("  FAILED: {line}");
    }
    if !steady_virtual {
        println!(
            "  FAILED: virtual_s differs between mines: {:?}",
            tally.virtual_s
        );
    }
    let success_ratio = (attempted - failed) as f64 / attempted as f64;
    let e2e = BTreeMap::from([
        ("mine_s", mine_s),
        ("virtual_s", virtual_s),
        ("peak_rss_mib", peak_rss_mib),
        ("setup_s", check::median(&setup_times)),
        ("success_ratio", success_ratio),
    ]);
    println!(
        "  mine_s        {:.4} s       median of {} timed mines after 1 warm-up",
        mine_s,
        mine_times.len()
    );
    let samples: Vec<String> = mine_times.iter().map(|t| format!("{t:.3}")).collect();
    println!("                in run order: {}", samples.join(" "));
    println!(
        "  virtual_s     {virtual_s:.2} virt_s  same in all {} completed mines: {steady_virtual}",
        tally.virtual_s.len()
    );
    println!("  peak_rss_mib  {peak_rss_mib:.1} MiB");
    println!(
        "  setup_s       {:.4} s       median of {} set-ups",
        e2e["setup_s"],
        setup_times.len()
    );
    println!(
        "  fail_ratio    {} ratio   {failed} of {attempted} mines",
        failed as f64 / attempted as f64
    );

    let json = match &traced {
        None => result_json(correct, attempted, failed, metrics::END_TO_END, &e2e)?,
        Some(tr) => {
            println!("\nspans (host seconds; self = duration minus the union of child spans):");
            print!("{}", tr.table);
            println!("\nper-layer metrics:");
            for &(name, unit) in metrics::PER_LAYER {
                println!("  {name:<34} {:>16} {unit}", tr.metrics[name]);
            }
            result_json(correct, attempted, failed, metrics::PER_LAYER, &tr.metrics)?
        }
    };
    println!("{json}");
    Ok(correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sparse|dense|pressured> [--seed N] [--seconds S] [--trace 0|1]"
            );
            exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload dense --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Dense);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload chess",
            "--workload dense --trace 2",
            "--workload dense --seconds 0",
            "--workload dense --seed",
            "--workload dense --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn tally_counts_errors_and_mismatches_as_failures() {
        let tx = vec![vec![1, 2], vec![1, 2, 3], vec![2, 3]];
        let oracle = fp_growth(&tx, yafim_core::Support::Count(2));
        let mut wrong = oracle.clone();
        wrong.levels[0][0].1 += 1;
        let mut tally = Tally::default();
        tally.record(Ok((oracle.clone(), 1.0)));
        tally.record(Ok((oracle.clone(), 1.0)));
        tally.record(Ok((wrong, 1.0)));
        tally.record(Err("out of memory".to_string()));
        assert_eq!(tally.attempted(), 4);
        let (failed, why) = tally.failures(&oracle);
        assert_eq!(failed, 2);
        assert_eq!(why.len(), 2);
    }
}
