//! Concurrent-jobs benchmark for the multi-job scheduler: dozens of
//! simultaneous mining jobs share one [`JobQueue`] across fair and FIFO
//! pools, on clusters swept from 100 to 1000 nodes.
//!
//! What it proves (each is asserted, not just reported):
//!
//! * **Byte-identical results** — every concurrent job finds exactly the
//!   itemsets a solo run on an unbound cluster finds. Pool grants and queue
//!   waits move only virtual time, never data.
//! * **Fair shares track weights** — the `interactive` (weight 2) and
//!   `batch` (weight 1) pools receive node grants within 10 % of the 2:1
//!   weight ratio at every sweep point.
//! * **FIFO pools serialize** — `etl` jobs run one at a time; successors
//!   charge their wait to the `scheduler_queue` critical-path bucket, and
//!   the bucket sum still tiles each job's makespan within 1e-6.
//! * **Scheduler overhead is sublinear** — placement decision units grow
//!   far slower than cluster size across the 100→1000-node sweep (the
//!   lazy-deletion heap replaces the old per-task linear core scan).
//! * **Independent fault recovery** — one batch job runs under a seeded
//!   node-loss plan; it recovers alone (its recovery counters move, every
//!   other job's stay zero) and still matches the solo results.
//!
//! Output: stdout report; full runs also write `results/concurrency.txt`
//! and `results/concurrency.manifest.json`. Smoke runs write
//! `target/manifests/concurrency.smoke.manifest.json`, gated by CI against
//! the committed `results/concurrency.smoke.manifest.json`.
//!
//! `--unfair` is a gate self-test: it deliberately misconfigures the pool
//! weights to 1:1 (a 2:1 skew against the committed baseline) and writes
//! `target/manifests/concurrency.unfair.manifest.json`; CI asserts the
//! bench gate *fails* that manifest against the fair baseline.
//!
//! Usage: `cargo run -p yafim-bench --release --bin concurrency [--smoke] [--unfair]`

use std::fmt::Write as _;
use yafim_bench::write_manifest;
use yafim_cluster::json::JsonValue;
use yafim_cluster::{
    critical_path, ClusterSpec, CostModel, FaultPlan, JobQueue, NodeId, PoolSpec, RunManifest,
    SimCluster, SimDuration, SimInstant,
};
use yafim_core::{MiningResult, Support, Yafim, YafimConfig};
use yafim_rdd::Context;

/// splitmix64 — deterministic synthetic data without a rand crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Synthetic market-basket transactions: `n` baskets over a 40-item
/// alphabet with a popularity skew, so multi-pass mining has real L2/L3s.
fn synthetic_transactions(n: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| {
            let len = 4 + (rng.next() % 8) as usize;
            let mut t: Vec<u32> = (0..len)
                .map(|_| {
                    let r = rng.next() % 100;
                    // Popular items 1..=8 dominate; the tail is sparse.
                    if r < 70 {
                        1 + (rng.next() % 8) as u32
                    } else {
                        9 + (rng.next() % 32) as u32
                    }
                })
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        })
        .collect()
}

/// One job in the fleet.
#[derive(Clone)]
struct JobDef {
    pool: &'static str,
    name: String,
    /// Seeded node-loss plan (the independent-recovery probe).
    faulted: bool,
}

/// What one finished job reports back to the driver.
struct JobOutcome {
    def: JobDef,
    result: MiningResult,
    /// Final virtual time of the job's cluster.
    makespan: f64,
    /// Critical-path bucket sum (must tile `makespan`).
    bucket_sum: f64,
    /// Queue wait attributed by the critical path.
    scheduler_queue: f64,
    /// Placement decision units the job spent.
    decision_units: u64,
    /// Nodes the job lost to its fault plan.
    nodes_lost: u64,
    /// Executor grant `(node_lo, node_count)`.
    grant: (usize, usize),
}

fn cluster_for(nodes: u32) -> SimCluster {
    // Two real threads per job keeps a 24-job fleet from oversubscribing
    // the host; virtual cores are what the scheduler sees.
    SimCluster::with_threads(
        ClusterSpec::new(nodes, 8, 24 * 1024 * 1024 * 1024),
        CostModel::hadoop_era(),
        2,
    )
}

fn mining_config(pool: &str) -> YafimConfig {
    let mut cfg = YafimConfig::new(Support::Count(40));
    // Fixed partitioning: real work must not scale with the virtual node
    // count (the sweep varies only scheduling, never the data).
    cfg.min_partitions = 32;
    cfg.max_passes = 3;
    cfg.pool = pool.to_string();
    cfg
}

/// Run one job bound to its queue ticket, on its own virtual cluster.
fn run_job(
    nodes: u32,
    def: JobDef,
    ticket: yafim_cluster::JobTicket,
    lines: Vec<String>,
) -> JobOutcome {
    let c = cluster_for(nodes);
    c.hdfs().put_overwrite("input.dat", lines);
    if def.faulted {
        // Lose a node from this job's own grant mid-run; recovery must be
        // invisible to every other job in the fleet.
        let (lo, _) = ticket.grant();
        c.faults().set_plan(FaultPlan::seeded(11).lose_node_at(
            NodeId(lo as u32),
            SimInstant::EPOCH + SimDuration::from_secs(0.05),
        ));
    }
    let grant = ticket.grant();
    c.attach_job(&ticket);
    let run = Yafim::new(Context::new(c.clone()), mining_config(def.pool))
        .try_mine("input.dat")
        .expect("input.dat was just written");
    let report = critical_path(c.metrics(), c.cost());
    JobOutcome {
        def,
        result: run.result,
        makespan: report.makespan,
        bucket_sum: report.buckets.total(),
        scheduler_queue: report.buckets.scheduler_queue,
        decision_units: c.registry().counter("sched.decision_units").get(),
        nodes_lost: c.metrics().snapshot().recovery.nodes_lost,
        grant,
    }
}

/// The job mix: `per_pool` jobs in each of the two fair pools plus
/// `per_pool / 2 + 1` FIFO etl jobs. One batch job carries a fault plan.
fn fleet(per_pool: usize) -> Vec<JobDef> {
    let mut jobs = Vec::new();
    for i in 0..per_pool {
        jobs.push(JobDef {
            pool: "interactive",
            name: format!("interactive-{i}"),
            faulted: false,
        });
        jobs.push(JobDef {
            pool: "batch",
            name: format!("batch-{i}"),
            faulted: i == 0,
        });
    }
    for i in 0..per_pool / 2 + 1 {
        jobs.push(JobDef {
            pool: "etl",
            name: format!("etl-{i}"),
            faulted: false,
        });
    }
    jobs
}

struct SweepPoint {
    nodes: u32,
    outcomes: Vec<JobOutcome>,
    interactive_nodes: usize,
    batch_nodes: usize,
    fair_ratio: f64,
    /// Decision units spent by fault-free jobs (the heap path).
    total_decision_units: u64,
    /// Decision units spent by the faulted probe job (fault path).
    faulted_decision_units: u64,
    jobs_submitted: u64,
    jobs_completed: u64,
}

/// Run the whole fleet concurrently at one cluster size.
fn run_sweep_point(nodes: u32, jobs: &[JobDef], lines: &[String], unfair: bool) -> SweepPoint {
    let queue = JobQueue::new(nodes);
    // The fair pools whose 2:1 weight split the bench asserts — or a
    // deliberately mis-weighted 1:1 split under `--unfair`, planted so CI
    // can prove the regression gate catches a fair-share skew.
    let interactive_weight = if unfair { 1.0 } else { 2.0 };
    queue.add_pool(PoolSpec::fair("interactive", interactive_weight));
    queue.add_pool(PoolSpec::fair("batch", 1.0));
    queue.add_pool(PoolSpec::fifo("etl", 1.0));

    // Determinism contract: submit every job before any thread binds, so
    // grants are a pure function of the submitted set.
    let tickets: Vec<_> = jobs.iter().map(|j| queue.submit(j.pool, &j.name)).collect();

    let handles: Vec<_> = jobs
        .iter()
        .zip(tickets)
        .map(|(def, ticket)| {
            let def = def.clone();
            let lines = lines.to_vec();
            std::thread::spawn(move || run_job(nodes, def, ticket, lines))
        })
        .collect();
    let outcomes: Vec<JobOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Pool widths from the union of member grants (fair pools lay members
    // out inside one contiguous pool range).
    let pool_width = |pool: &str| -> usize {
        let spans: Vec<(usize, usize)> = outcomes
            .iter()
            .filter(|o| o.def.pool == pool)
            .map(|o| o.grant)
            .collect();
        let lo = spans.iter().map(|&(l, _)| l).min().unwrap_or(0);
        let hi = spans.iter().map(|&(l, c)| l + c).max().unwrap_or(0);
        hi - lo
    };
    let interactive_nodes = pool_width("interactive");
    let batch_nodes = pool_width("batch");

    SweepPoint {
        nodes,
        interactive_nodes,
        batch_nodes,
        fair_ratio: interactive_nodes as f64 / batch_nodes.max(1) as f64,
        // The sublinearity claim is about the heap placement path; the
        // fault-recovery scheduler still honestly counts its linear scans,
        // so the faulted probe job is tracked separately.
        total_decision_units: outcomes
            .iter()
            .filter(|o| !o.def.faulted)
            .map(|o| o.decision_units)
            .sum(),
        faulted_decision_units: outcomes
            .iter()
            .filter(|o| o.def.faulted)
            .map(|o| o.decision_units)
            .sum(),
        jobs_submitted: queue.jobs_submitted(),
        jobs_completed: queue.jobs_completed(),
        outcomes,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let unfair = std::env::args().any(|a| a == "--unfair");
    let per_pool = if smoke { 2 } else { 8 };
    let sweep: &[u32] = if smoke {
        &[100, 1000]
    } else {
        &[100, 250, 500, 1000]
    };
    let jobs = fleet(per_pool);

    let tx = synthetic_transactions(400, 42);
    let lines: Vec<String> = tx
        .iter()
        .map(|t| t.iter().map(u32::to_string).collect::<Vec<_>>().join(" "))
        .collect();

    // The solo reference: same dataset, same config, unbound cluster.
    // Every concurrent job must reproduce it byte for byte.
    let solo = {
        let c = cluster_for(sweep[0]);
        c.hdfs().put_overwrite("input.dat", lines.clone());
        Yafim::new(Context::new(c), mining_config("default"))
            .try_mine("input.dat")
            .expect("input.dat was just written")
            .result
    };

    let mut report = String::new();
    let _ = writeln!(
        report,
        "== Concurrent jobs: {} jobs (interactive w=2 fair, batch w=1 fair, etl FIFO) ==",
        jobs.len()
    );
    let _ = writeln!(
        report,
        "{:>6} {:>12} {:>12} {:>10} {:>16} {:>10}",
        "nodes", "interactive", "batch", "ratio", "decision units", "jobs"
    );

    let points: Vec<SweepPoint> = sweep
        .iter()
        .map(|&nodes| run_sweep_point(nodes, &jobs, &lines, unfair))
        .collect();

    for p in &points {
        let _ = writeln!(
            report,
            "{:>6} {:>12} {:>12} {:>10.3} {:>16} {:>7}/{:<3}",
            p.nodes,
            p.interactive_nodes,
            p.batch_nodes,
            p.fair_ratio,
            p.total_decision_units,
            p.jobs_completed,
            p.jobs_submitted,
        );

        for o in &p.outcomes {
            // (a) Byte-identical results vs the solo run.
            assert_eq!(
                o.result, solo,
                "{} @ {} nodes: concurrent results diverge from solo run",
                o.def.name, p.nodes
            );
            // Critical-path buckets (scheduler_queue included) tile the
            // makespan for every job.
            assert!(
                (o.bucket_sum - o.makespan).abs() < 1e-6,
                "{} @ {} nodes: buckets sum {} != makespan {}",
                o.def.name,
                p.nodes,
                o.bucket_sum,
                o.makespan
            );
            // (d) Fault recovery stays inside the faulted job.
            if o.def.faulted {
                assert!(
                    o.nodes_lost >= 1,
                    "{}: fault plan planted a node loss that never fired",
                    o.def.name
                );
            } else {
                assert_eq!(
                    o.nodes_lost, 0,
                    "{}: lost a node despite having no fault plan",
                    o.def.name
                );
            }
        }
        // (b) Fair-share node grants within 10 % of the 2:1 weights.
        if !unfair {
            assert!(
                (p.fair_ratio - 2.0).abs() <= 0.2,
                "{} nodes: interactive:batch grant ratio {:.3} strays >10% from 2.0",
                p.nodes,
                p.fair_ratio
            );
        }
        // FIFO serialization: exactly one etl job starts unqueued, every
        // other one charges a positive scheduler_queue bucket.
        let etl_queued = p
            .outcomes
            .iter()
            .filter(|o| o.def.pool == "etl" && o.scheduler_queue > 0.0)
            .count();
        let etl_total = p.outcomes.iter().filter(|o| o.def.pool == "etl").count();
        assert_eq!(
            etl_queued,
            etl_total - 1,
            "{} nodes: FIFO pool should queue all but the first job",
            p.nodes
        );
        // The queue drained: every submitted job reported completion.
        assert_eq!(p.jobs_completed, p.jobs_submitted);
    }

    // (c) Scheduler overhead sublinear in cluster size: 10x the nodes must
    // cost far less than 10x the decision units on the heap placement path
    // (linear rescanning would be ~10x). The faulted probe's fault-path
    // units are reported but not budgeted — recovery scheduling still
    // scans its grant.
    let first = &points[0];
    let last = points.last().unwrap();
    let growth = last.total_decision_units as f64 / first.total_decision_units.max(1) as f64;
    let _ = writeln!(
        report,
        "\ndecision-unit growth {}→{} nodes: {growth:.2}x (sublinear budget 3x)",
        first.nodes, last.nodes
    );
    assert!(
        growth <= 3.0,
        "scheduler overhead grew {growth:.2}x over a {}x node sweep — not sublinear",
        last.nodes / first.nodes
    );
    let _ = writeln!(
        report,
        "parity: all {} jobs byte-identical to solo; buckets tile makespans within 1e-6",
        jobs.len() * points.len()
    );
    print!("{report}");

    // Regression-gate manifest. Captured from a fleet re-run at the first
    // sweep size whose cluster we keep (job interactive-0's metrics are
    // deterministic), plus fleet-level metrics pushed by hand.
    let dataset_doc = JsonValue::object(vec![
        ("name", "synthetic-baskets".into()),
        ("transactions", tx.len().into()),
        ("seed", 42u64.into()),
        ("smoke", JsonValue::Bool(smoke)),
    ]);
    let config_doc = JsonValue::object(vec![
        ("pools", "interactive:fair:2 batch:fair:1 etl:fifo:1".into()),
        ("jobs", jobs.len().into()),
        (
            "sweep",
            JsonValue::Array(sweep.iter().map(|&n| (n as u64).into()).collect()),
        ),
        ("min_partitions", 32u64.into()),
        ("support", 40u64.into()),
    ]);
    let mut manifest = {
        // A fresh single job bound to a fresh queue reproduces job-level
        // registry metrics deterministically for capture.
        let queue = JobQueue::new(first.nodes);
        queue.add_pool(PoolSpec::fair(
            "interactive",
            if unfair { 1.0 } else { 2.0 },
        ));
        queue.add_pool(PoolSpec::fair("batch", 1.0));
        let ticket = queue.submit("interactive", "capture");
        let c = cluster_for(first.nodes);
        c.hdfs().put_overwrite("input.dat", lines.clone());
        c.attach_job(&ticket);
        let run = Yafim::new(Context::new(c.clone()), mining_config("interactive"))
            .try_mine("input.dat")
            .expect("input.dat was just written");
        assert_eq!(run.result, solo);
        RunManifest::capture("concurrency", "yafim", dataset_doc, config_doc, &c)
    };
    for p in &points {
        manifest.push_metric(
            format!("fleet.n{}.interactive_nodes", p.nodes),
            p.interactive_nodes as f64,
        );
        manifest.push_metric(
            format!("fleet.n{}.batch_nodes", p.nodes),
            p.batch_nodes as f64,
        );
        manifest.push_metric(format!("fleet.n{}.fair_ratio", p.nodes), p.fair_ratio);
        manifest.push_metric(
            format!("fleet.n{}.decision_units", p.nodes),
            p.total_decision_units as f64,
        );
        manifest.push_metric(
            format!("fleet.n{}.faulted_decision_units", p.nodes),
            p.faulted_decision_units as f64,
        );
        manifest.push_metric(
            format!("fleet.n{}.jobs_completed", p.nodes),
            p.jobs_completed as f64,
        );
    }
    manifest.push_metric("fleet.decision_unit_growth", growth);

    let manifest_path = if unfair {
        "target/manifests/concurrency.unfair.manifest.json"
    } else if smoke {
        "target/manifests/concurrency.smoke.manifest.json"
    } else {
        "results/concurrency.manifest.json"
    };
    write_manifest(&manifest, manifest_path);

    if smoke || unfair {
        println!("smoke mode: all assertions held; wrote {manifest_path}");
        return;
    }

    std::fs::write("results/concurrency.txt", &report).expect("write results/concurrency.txt");
    println!("wrote results/concurrency.txt and {manifest_path}");
}
