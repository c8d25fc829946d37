//! The paper's correctness check, generalized: every miner in the
//! repository — sequential Apriori, Eclat, FP-Growth, YAFIM on the RDD
//! engine, MR-Apriori (all three variants) on the MapReduce engine — must
//! produce *identical* frequent itemsets on the same input and support.
//!
//! Datasets are scaled-down versions of the paper's Table I profiles, so
//! all five generator families and both engines are exercised.

use yafim_cluster::{ClusterSpec, CostModel, SimCluster};
use yafim_core::{
    apriori, eclat, fp_growth, mine_in_memory, MrApriori, MrAprioriConfig, MrVariant, Pfp,
    PfpConfig, SequentialConfig, Son, SonConfig, Support, YafimConfig,
};
use yafim_data::{to_lines, PaperDataset};
use yafim_rdd::Context;

fn cluster() -> SimCluster {
    SimCluster::with_threads(ClusterSpec::new(4, 2, 1 << 30), CostModel::hadoop_era(), 2)
}

fn check_all_miners(name: &str, transactions: &[Vec<u32>], support: Support) {
    let reference = apriori(transactions, &SequentialConfig::new(support));

    let e = eclat(transactions, support);
    assert_eq!(reference, e, "{name}: eclat diverges");

    let f = fp_growth(transactions, support);
    assert_eq!(reference, f, "{name}: fp-growth diverges");

    let ctx = Context::new(cluster());
    let y = mine_in_memory(&ctx, transactions, YafimConfig::new(support)).expect("fault-free run");
    assert_eq!(reference, y.result, "{name}: yafim diverges");

    let c = cluster();
    c.hdfs().put_overwrite("in.dat", to_lines(transactions));
    let m = MrApriori::new(c, MrAprioriConfig::new(support))
        .mine("in.dat")
        .expect("input exists");
    assert_eq!(reference, m.result, "{name}: mr-apriori diverges");

    let c = cluster();
    c.hdfs().put_overwrite("in.dat", to_lines(transactions));
    let s = Son::new(c, SonConfig::new(support))
        .mine("in.dat")
        .expect("input exists");
    assert_eq!(reference, s.result, "{name}: SON diverges");

    let ctx = Context::new(cluster());
    ctx.cluster()
        .hdfs()
        .put_overwrite("in.dat", to_lines(transactions));
    let p = Pfp::new(ctx, PfpConfig::new(support))
        .mine("in.dat")
        .expect("input exists");
    assert_eq!(reference, p.result, "{name}: PFP diverges");
}

#[test]
fn mushroom_profile_all_miners_agree() {
    let tx = PaperDataset::Mushroom.generate_scaled(0.02);
    check_all_miners("mushroom", &tx, Support::Fraction(0.35));
}

#[test]
fn chess_profile_all_miners_agree() {
    let tx = PaperDataset::Chess.generate_scaled(0.05);
    check_all_miners("chess", &tx, Support::Fraction(0.85));
}

#[test]
fn quest_profile_all_miners_agree() {
    let tx = PaperDataset::T10I4D100K.generate_scaled(0.01);
    // 1000 transactions at 1% support keeps the candidate space small.
    check_all_miners("t10i4", &tx, Support::Fraction(0.01));
}

#[test]
fn pumsb_profile_all_miners_agree() {
    let tx = PaperDataset::PumsbStar.generate_scaled(0.01);
    check_all_miners("pumsb_star", &tx, Support::Fraction(0.65));
}

#[test]
fn medical_profile_all_miners_agree() {
    let tx = PaperDataset::Medical.generate_scaled(0.02);
    check_all_miners("medical", &tx, Support::Fraction(0.03));
}

#[test]
fn mr_variants_agree_on_medical() {
    let tx = PaperDataset::Medical.generate_scaled(0.01);
    let reference = apriori(&tx, &SequentialConfig::new(Support::Fraction(0.05)));

    for variant in [
        MrVariant::Spc,
        MrVariant::Fpc { passes_per_job: 2 },
        MrVariant::Dpc {
            max_candidates: 500,
        },
    ] {
        let c = cluster();
        c.hdfs().put_overwrite("in.dat", to_lines(&tx));
        let mut cfg = MrAprioriConfig::new(Support::Fraction(0.05));
        cfg.variant = variant;
        let run = MrApriori::new(c, cfg).mine("in.dat").expect("input exists");
        assert_eq!(reference, run.result, "variant {variant:?} diverges");
    }
}

#[test]
fn replication_preserves_results_and_scales_supports() {
    // The sizeup methodology (Fig. 4) relies on this invariant.
    let tx = PaperDataset::Mushroom.generate_scaled(0.01);
    let tripled = yafim_data::replicate(&tx, 3);
    let a = apriori(&tx, &SequentialConfig::new(Support::Fraction(0.35)));
    let b = apriori(&tripled, &SequentialConfig::new(Support::Fraction(0.35)));
    assert_eq!(a.level_sizes(), b.level_sizes());
    for (set, sup) in a.iter() {
        assert_eq!(b.support_of(set), Some(sup * 3), "{set}");
    }
}
