//! Edge-case matrix across the miners: degenerate databases, extreme
//! thresholds, and pathological transaction shapes. Every miner must handle
//! all of them and agree.

use yafim_cluster::{ClusterSpec, CostModel, SimCluster};
use yafim_core::{
    apriori, eclat, fp_growth, generate_rules, mine_in_memory, Itemset, MiningResult, MrApriori,
    MrAprioriConfig, Pfp, PfpConfig, RuleConfig, SequentialConfig, Son, SonConfig, Support, Yafim,
    YafimConfig,
};
use yafim_data::{from_lines, to_lines, PaperDataset};
use yafim_rdd::Context;

fn all_single_node(tx: &[Vec<u32>], support: Support) -> Vec<(&'static str, MiningResult)> {
    vec![
        ("apriori", apriori(tx, &SequentialConfig::new(support))),
        ("eclat", eclat(tx, support)),
        ("fp_growth", fp_growth(tx, support)),
    ]
}

fn assert_all_agree(tx: &[Vec<u32>], support: Support) -> MiningResult {
    let results = all_single_node(tx, support);
    for (name, r) in &results[1..] {
        assert_eq!(&results[0].1, r, "{name} diverges");
    }
    let ctx = Context::new(SimCluster::with_threads(
        ClusterSpec::new(2, 2, 1 << 30),
        CostModel::hadoop_era(),
        2,
    ));
    let y = mine_in_memory(&ctx, tx, YafimConfig::new(support)).expect("fault-free run");
    assert_eq!(results[0].1, y.result, "yafim diverges");
    results.into_iter().next().expect("non-empty").1
}

#[test]
fn single_transaction_database() {
    let r = assert_all_agree(&[vec![1, 2, 3]], Support::Count(1));
    assert_eq!(r.total(), 7, "all non-empty subsets");
    assert_eq!(r.max_len(), 3);
}

#[test]
fn single_item_transactions() {
    let tx: Vec<Vec<u32>> = (0..10).map(|i| vec![i % 3]).collect();
    let r = assert_all_agree(&tx, Support::Count(3));
    assert_eq!(r.max_len(), 1);
    assert_eq!(r.level(1).len(), 3);
}

#[test]
fn identical_transactions() {
    let tx = vec![vec![5, 10, 15]; 20];
    let r = assert_all_agree(&tx, Support::Count(20));
    assert_eq!(r.total(), 7);
    for (_, sup) in r.iter() {
        assert_eq!(*sup, 20);
    }
}

#[test]
fn disjoint_transactions_have_no_pairs() {
    let tx: Vec<Vec<u32>> = (0u32..8).map(|i| vec![2 * i, 2 * i + 1]).collect();
    let r = assert_all_agree(&tx, Support::Count(2));
    assert_eq!(r.total(), 0, "every item unique to one transaction");
}

#[test]
fn support_one_finds_everything_present() {
    let tx = vec![vec![1, 2], vec![3]];
    let r = assert_all_agree(&tx, Support::Count(1));
    assert_eq!(r.support_of(&Itemset::new(vec![1, 2])), Some(1));
    assert_eq!(r.support_of(&Itemset::single(3)), Some(1));
    assert_eq!(r.support_of(&Itemset::new(vec![1, 3])), None);
}

#[test]
fn full_support_fraction() {
    let tx = vec![vec![1, 2], vec![1, 2], vec![1, 2, 3]];
    let r = assert_all_agree(&tx, Support::Fraction(1.0));
    assert_eq!(r.support_of(&Itemset::new(vec![1, 2])), Some(3));
    assert_eq!(r.support_of(&Itemset::single(3)), None);
}

#[test]
fn large_item_ids() {
    let tx = vec![vec![u32::MAX - 1, u32::MAX], vec![u32::MAX - 1, u32::MAX]];
    let r = assert_all_agree(&tx, Support::Count(2));
    assert_eq!(
        r.support_of(&Itemset::new(vec![u32::MAX - 1, u32::MAX])),
        Some(2)
    );
}

#[test]
fn wide_transaction_deep_levels() {
    // One 12-item transaction repeated: levels up to 12 — exercises deep
    // candidate generation and tree descent.
    let t: Vec<u32> = (0..12).collect();
    let tx = vec![t; 3];
    let r = assert_all_agree(&tx, Support::Count(3));
    assert_eq!(r.max_len(), 12);
    assert_eq!(r.total(), (1usize << 12) - 1);
}

#[test]
fn rules_on_degenerate_results() {
    // No itemsets → no rules; single-level results → no rules.
    let empty = MiningResult::default();
    assert!(generate_rules(&empty, 10, &RuleConfig::new(0.5)).is_empty());

    let tx: Vec<Vec<u32>> = (0..4).map(|i| vec![i]).collect();
    let singles = apriori(&tx, &SequentialConfig::new(Support::Count(1)));
    assert!(generate_rules(&singles, 4, &RuleConfig::new(0.0)).is_empty());
}

#[test]
fn unparseable_lines_are_skipped_gracefully() {
    // One line is one transaction in every engine: a blank or garbage line
    // is an empty transaction that still counts toward |D|, so a fractional
    // support resolves to the same count on every engine.
    let mut lines = Vec::new();
    let dataset = PaperDataset::Mushroom.generate_scaled(0.025);
    for (i, line) in to_lines(&dataset).into_iter().enumerate() {
        lines.push(line);
        if i < 142 {
            lines.push(if i % 2 == 0 { "" } else { "x y z" }.to_string());
        }
    }
    let support = Support::Fraction(0.15);
    let tx = from_lines(&lines);
    assert_eq!(tx.len(), lines.len(), "|D| is the line count");
    let reference = apriori(&tx, &SequentialConfig::new(support));
    assert!(
        reference.max_len() >= 3,
        "the threshold must leave a real search"
    );

    let cluster = || {
        let c =
            SimCluster::with_threads(ClusterSpec::new(2, 2, 1 << 30), CostModel::hadoop_era(), 2);
        c.hdfs().put_overwrite("noisy.dat", lines.clone());
        c
    };
    let mine_yafim = |config| Yafim::new(Context::new(cluster()), config).try_mine("noisy.dat");
    let runs = [
        ("yafim paper", mine_yafim(YafimConfig::new(support))),
        ("yafim bitmap", mine_yafim(YafimConfig::bitmap(support))),
        (
            "mr-apriori",
            MrApriori::new(cluster(), MrAprioriConfig::new(support)).mine("noisy.dat"),
        ),
        (
            "son",
            Son::new(cluster(), SonConfig::new(support)).mine("noisy.dat"),
        ),
        (
            "pfp",
            Pfp::new(Context::new(cluster()), PfpConfig::new(support)).mine("noisy.dat"),
        ),
    ];
    let mut results = vec![
        ("eclat", eclat(&tx, support)),
        ("fp_growth", fp_growth(&tx, support)),
    ];
    results.extend(runs.map(|(name, run)| (name, run.expect("written").result)));
    for (name, result) in results {
        assert_eq!(reference, result, "{name} diverges on noisy input");
    }
}
