//! Phase-II hot-path invariance: every combination of the triangular-pass-2,
//! matcher (hash tree or bitmap) and cross-pass-trimming switches must
//! produce *byte-identical* mining output to both the sequential reference
//! and the paper-faithful (hash tree, untrimmed) engine — identical itemsets
//! and supports, identical per-level sizes, identical candidate/frequent
//! counts per pass, identical pass count. Only virtual seconds may differ.
//!
//! The optimizations rest on two invariance arguments (DESIGN.md §"Candidate
//! matching & dataset trimming"): monotone dense re-encoding is a bijection
//! on the frequent-itemset lattice, and DHP-style trimming only removes
//! items/transactions that Apriori monotonicity proves can never contribute
//! to a later frequent itemset. This suite is the executable form of those
//! arguments, including under injected node loss, where the projected and
//! trimmed RDDs must recompute through lineage.

use yafim_cluster::{
    ClusterSpec, CostModel, FaultPlan, NodeId, SimCluster, SimDuration, SimInstant,
};
use yafim_core::{
    apriori, Matcher, MinerRun, Phase2Config, SequentialConfig, Support, Yafim, YafimConfig,
};
use yafim_data::{to_lines, PaperDataset, QuestConfig, QuestGenerator};
use yafim_rdd::Context;

fn cluster() -> SimCluster {
    SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 2)
}

fn run(tx: &[Vec<u32>], support: Support, phase2: Phase2Config) -> MinerRun {
    let c = cluster();
    c.hdfs().put_overwrite("d.dat", to_lines(tx));
    let cfg = YafimConfig {
        phase2,
        ..YafimConfig::new(support)
    };
    Yafim::new(Context::new(c), cfg)
        .try_mine("d.dat")
        .expect("written")
}

/// All 8 switch combinations.
fn all_configs() -> Vec<Phase2Config> {
    let mut out = Vec::new();
    for triangle_pass2 in [false, true] {
        for matcher in [Matcher::HashTree, Matcher::Bitmap] {
            for trim in [false, true] {
                out.push(Phase2Config {
                    triangle_pass2,
                    matcher,
                    trim,
                    checkpoint_interval: 0,
                });
            }
        }
    }
    out
}

/// Triangular pass 2, per-pass trimming and the paper's hash tree for
/// `k ≥ 3` — the config whose lineage grows by a trim every pass.
fn trimmed_tree() -> Phase2Config {
    Phase2Config {
        triangle_pass2: true,
        matcher: Matcher::HashTree,
        trim: true,
        checkpoint_interval: 0,
    }
}

fn assert_identical(paper: &MinerRun, other: &MinerRun, label: &str) {
    assert_eq!(
        paper.result, other.result,
        "{label}: itemsets/supports differ"
    );
    assert_eq!(
        paper.result.level_sizes(),
        other.result.level_sizes(),
        "{label}: level sizes differ"
    );
    assert_eq!(
        paper.passes.len(),
        other.passes.len(),
        "{label}: pass count differs"
    );
    for (p, o) in paper.passes.iter().zip(&other.passes) {
        assert_eq!(
            (p.pass, p.candidates, p.frequent),
            (o.pass, o.candidates, o.frequent),
            "{label}: pass {} metadata differs",
            p.pass
        );
    }
}

#[test]
fn every_phase2_config_is_invisible_on_quest_data() {
    // Small dense QUEST-style instances with long patterns → 4-5 passes,
    // exercising triangle (pass 2), both k ≥ 3 matchers and repeated
    // trimming.
    for seed in [7u64, 99, 4242] {
        let tx = QuestGenerator::new(QuestConfig {
            transactions: 400,
            items: 60,
            avg_transaction_len: 8.0,
            avg_pattern_len: 4.0,
            patterns: 12,
            correlation: 0.25,
            keep_fraction: 0.7,
            seed,
        })
        .generate();
        let support = Support::Fraction(0.03);
        let reference = apriori(&tx, &SequentialConfig::new(support));
        let paper = run(&tx, support, Phase2Config::paper());
        assert_eq!(
            reference, paper.result,
            "seed {seed}: paper engine vs sequential"
        );
        assert!(
            paper.result.max_len() >= 3,
            "seed {seed}: workload too shallow to exercise k ≥ 3 matching"
        );

        for p2 in all_configs() {
            let r = run(&tx, support, p2.clone());
            assert_identical(&paper, &r, &format!("seed {seed}, {p2:?}"));
        }
    }
}

#[test]
fn every_phase2_config_is_invisible_on_medical_data() {
    let tx = PaperDataset::Medical.generate_scaled(0.01);
    let support = Support::Fraction(0.05);
    let reference = apriori(&tx, &SequentialConfig::new(support));
    let paper = run(&tx, support, Phase2Config::paper());
    assert_eq!(reference, paper.result);

    for p2 in all_configs() {
        let r = run(&tx, support, p2.clone());
        assert_identical(&paper, &r, &format!("{p2:?}"));
    }
}

#[test]
fn trimmed_tree_path_survives_node_loss() {
    // Losing a node drops its cached partitions — including the projected
    // and trimmed RDDs, which must then recompute through their narrow
    // lineage (raw HDFS read → parse → encode → trims) without changing a
    // single count.
    let tx = PaperDataset::Medical.generate_scaled(0.01);
    let support = Support::Fraction(0.05);
    let reference = apriori(&tx, &SequentialConfig::new(support));

    for seed in 0..4u64 {
        let c = cluster();
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        c.faults().set_plan(
            FaultPlan::seeded(seed)
                .crash_tasks(0.1)
                .with_max_task_failures(10)
                .lose_node_at(
                    NodeId((seed % 4) as u32),
                    SimInstant::EPOCH + SimDuration::from_secs(1.0 + seed as f64 * 0.7),
                )
                .slow_node(NodeId(((seed + 2) % 4) as u32), 3.0)
                .with_speculation(),
        );
        let cfg = YafimConfig {
            phase2: trimmed_tree(),
            ..YafimConfig::new(support)
        };
        let opt = Yafim::new(Context::new(c.clone()), cfg)
            .try_mine("d.dat")
            .expect("below-budget faults must not abort the job");
        assert_eq!(
            reference, opt.result,
            "seed {seed}: node loss changed trimmed-path results"
        );
        let rec = c.metrics().snapshot().recovery;
        assert!(rec.any(), "seed {seed}: the plan must actually fire");
        assert_eq!(rec.nodes_lost, 1, "seed {seed}");
    }
}

#[test]
fn node_loss_at_every_pass_boundary_is_invisible() {
    // Kill a node just after each pass boundary, on both engines, with
    // checkpointing off and on (intervals 1 and 2, supplied through the
    // fault plan). Whatever the recovery path — lineage replay back to HDFS or a
    // bounded re-read of checkpoint blocks — itemsets and supports must be
    // byte-identical to the sequential reference every time.
    let tx = PaperDataset::Medical.generate_scaled(0.01);
    let support = Support::Fraction(0.05);
    let reference = apriori(&tx, &SequentialConfig::new(support));

    for (name, p2) in [
        ("paper", Phase2Config::paper()),
        ("trimmed tree", trimmed_tree()),
        ("bitmap", Phase2Config::bitmap()),
    ] {
        // A clean run maps pass number → cumulative virtual seconds, so
        // each loss lands just after "its" pass completed.
        let clean = run(&tx, support, p2.clone());
        assert_eq!(reference, clean.result, "{name}: clean run");
        let mut cum = 0.0;
        let boundaries: Vec<f64> = clean
            .passes
            .iter()
            .map(|p| {
                cum += p.seconds;
                cum
            })
            .collect();

        for (k, &boundary) in boundaries.iter().enumerate() {
            for ckpt in [0usize, 1, 2] {
                let c = cluster();
                c.hdfs().put_overwrite("d.dat", to_lines(&tx));
                c.faults().set_plan(
                    FaultPlan::seeded(k as u64)
                        .lose_node_at(
                            NodeId((k % 4) as u32),
                            SimInstant::EPOCH + SimDuration::from_secs(boundary + 1e-3),
                        )
                        .with_checkpoint_interval(ckpt),
                );
                let cfg = YafimConfig {
                    phase2: p2.clone(),
                    ..YafimConfig::new(support)
                };
                let r = Yafim::new(Context::new(c.clone()), cfg)
                    .try_mine("d.dat")
                    .expect("single node loss stays below the retry budget");
                assert_eq!(
                    reference,
                    r.result,
                    "{name}: loss after pass {} (ckpt interval {ckpt}) changed results",
                    k + 1
                );
                if ckpt != 0 {
                    let rec = c.metrics().snapshot().recovery;
                    assert!(
                        rec.checkpoint_writes > 0,
                        "{name}: interval {ckpt} run must have checkpointed"
                    );
                }
            }
        }
    }
}

#[test]
fn silent_corruption_is_invisible_to_every_engine() {
    // Scenario-D parity: corrupt each storage tier (shuffle map outputs,
    // cached partitions — which for the bitmap engine include the columnar
    // bitset blocks — and HDFS replicas) under every engine flavor. The
    // integrity layer must detect and repair every injected corruption,
    // and results must stay byte-identical to the sequential reference.
    let tx = PaperDataset::Medical.generate_scaled(0.01);
    let support = Support::Fraction(0.05);
    let reference = apriori(&tx, &SequentialConfig::new(support));

    type Corrupt = fn(FaultPlan, f64) -> FaultPlan;
    let tiers: [(&str, Corrupt); 3] = [
        ("shuffle", |p, r| p.corrupt_shuffle(r)),
        ("cache", |p, r| p.corrupt_cache(r)),
        ("hdfs", |p, r| p.corrupt_hdfs(r)),
    ];
    for (name, p2) in [
        ("paper", Phase2Config::paper()),
        ("trimmed tree", trimmed_tree()),
        ("bitmap", Phase2Config::bitmap()),
    ] {
        for (tier, corrupt) in &tiers {
            let c = cluster();
            c.hdfs().put_overwrite("d.dat", to_lines(&tx));
            c.faults().set_plan(corrupt(FaultPlan::seeded(11), 0.25));
            let cfg = YafimConfig {
                phase2: p2.clone(),
                ..YafimConfig::new(support)
            };
            let r = Yafim::new(Context::new(c.clone()), cfg)
                .try_mine("d.dat")
                .expect("repairable corruption must not abort the job");
            assert_eq!(
                reference, r.result,
                "{name}: {tier} corruption changed results"
            );
            let i = c.metrics().snapshot().recovery.integrity;
            assert!(
                i.corruptions_injected > 0,
                "{name}: {tier} plan must actually corrupt something"
            );
            assert_eq!(
                i.corruptions_detected, i.corruptions_injected,
                "{name}: {tier}: every injected corruption must be detected"
            );
            assert_eq!(
                i.corruptions_repaired, i.corruptions_detected,
                "{name}: {tier}: every detected corruption must be repaired"
            );
        }
    }
}

#[test]
fn bitmap_path_is_deterministic_under_faults() {
    let tx = PaperDataset::Medical.generate_scaled(0.01);
    let support = Support::Fraction(0.05);
    let mut observed = Vec::new();
    for _ in 0..2 {
        let c = cluster();
        c.hdfs().put_overwrite("d.dat", to_lines(&tx));
        c.faults().set_plan(
            FaultPlan::seeded(3)
                .crash_tasks(0.1)
                .with_max_task_failures(10)
                .with_speculation(),
        );
        let run = Yafim::new(Context::new(c.clone()), YafimConfig::bitmap(support))
            .try_mine("d.dat")
            .expect("below budget");
        observed.push((
            run.result,
            run.total_seconds,
            c.metrics().snapshot().recovery,
        ));
    }
    assert_eq!(
        observed[0], observed[1],
        "same fault seed must reproduce the bitmap run bit-for-bit"
    );
}
