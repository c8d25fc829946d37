//! The three benchmark workloads: how each one's input is generated from
//! the seed, which miner configuration mines it, and the cluster it runs on.

use yafim_cluster::{ClusterSpec, CostModel, FaultPlan, SimCluster};
use yafim_core::{Support, YafimConfig};
use yafim_data::rng::StdRng;
use yafim_data::{PaperDataset, Transaction};

/// HDFS path every workload's input is stored under.
pub const INPUT: &str = "input.dat";

/// Node memory of the `pressured` workload's fault plan: the tight budget
/// of the chaos harness's memory-governor scenario.
pub const PRESSURED_BUDGET: u64 = 24 * 1024 * 1024;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// T10I4D100K stand-in at 0.25 %, bitmap engine: pass 2 dominates.
    Sparse,
    /// Mushroom stand-in at 15 %, bitmap engine: passes 3–8 dominate.
    Dense,
    /// T10I4D100K stand-in at scale 0.25 and 0.25 %, paper hash-tree
    /// engine, under a 24 MiB-per-node memory budget.
    Pressured,
}

/// The input shape and engine of a workload, as printed and documented.
pub struct Shape {
    pub dataset: PaperDataset,
    /// Share of the Table-I transaction count generated.
    pub scale: f64,
    pub support_percent: f64,
    pub config: &'static str,
    pub budget: Option<u64>,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Sparse, Workload::Dense, Workload::Pressured];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sparse => "sparse",
            Workload::Dense => "dense",
            Workload::Pressured => "pressured",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::Sparse => Shape {
                dataset: PaperDataset::T10I4D100K,
                scale: 1.0,
                support_percent: 0.25,
                config: "bitmap",
                budget: None,
            },
            Workload::Dense => Shape {
                dataset: PaperDataset::Mushroom,
                scale: 1.0,
                support_percent: 15.0,
                config: "bitmap",
                budget: None,
            },
            Workload::Pressured => Shape {
                dataset: PaperDataset::T10I4D100K,
                scale: 0.25,
                support_percent: 0.25,
                config: "paper",
                budget: Some(PRESSURED_BUDGET),
            },
        }
    }

    /// The workload's transactions for `seed`: the Table-I stand-in from
    /// `PaperDataset::generate_scaled`, in the order [`reorder`] draws.
    /// Seed 0 is the stand-in itself, byte for byte.
    pub fn generate(self, seed: u64) -> Vec<Transaction> {
        let shape = self.shape();
        reorder(shape.dataset.generate_scaled(shape.scale), seed)
    }

    /// The miner configuration, as `yafim-cli mine --phase2 <config>`
    /// builds it.
    pub fn config(self) -> YafimConfig {
        let support = Support::percent(self.shape().support_percent);
        match self {
            Workload::Sparse | Workload::Dense => YafimConfig::bitmap(support),
            Workload::Pressured => YafimConfig::new(support),
        }
    }

    /// A fresh cluster, shaped as `yafim-cli` shapes it, with the
    /// workload's fault plan installed and `lines` stored at [`INPUT`].
    pub fn cluster(self, lines: Vec<String>) -> SimCluster {
        let cluster = SimCluster::new(
            ClusterSpec::new(12, 8, 24 * 1024 * 1024 * 1024),
            CostModel::hadoop_era(),
        );
        if let Some(bytes) = self.shape().budget {
            cluster
                .faults()
                .set_plan(FaultPlan::default().with_mem_budget(bytes));
        }
        cluster.hdfs().put_overwrite(INPUT, lines);
        cluster
    }
}

/// A reordering of `tx` drawn from `seed`: the same transactions, shuffled.
/// Every itemset keeps its support, so every seed mines the same result
/// over different lines, splits and partitions. Seed 0 returns `tx`
/// unchanged.
///
/// Reseeding the generator instead changes the work itself, not just its
/// layout: it moved `dense` host time between 0.69 and 2.35 s over seeds
/// 1–5. Item ids are kept too, so the hash tree's buckets and the bitmap's
/// rank order are the same for every seed.
pub fn reorder(mut tx: Vec<Transaction>, seed: u64) -> Vec<Transaction> {
    if seed != 0 {
        shuffle(&mut tx, &mut StdRng::seed_from_u64(seed));
    }
    tx
}

/// Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_paper_dataset() {
        assert_eq!(
            Workload::Dense.generate(0),
            PaperDataset::Mushroom.generate_scaled(1.0)
        );
        assert_eq!(
            Workload::Pressured.generate(0),
            PaperDataset::T10I4D100K.generate_scaled(0.25)
        );
    }

    #[test]
    fn other_seeds_reorder_the_same_transactions() {
        let base = Workload::Dense.generate(0);
        let copy = Workload::Dense.generate(3);
        assert_ne!(copy, base);
        assert_eq!(Workload::Dense.generate(3), copy, "same seed, same input");
        let sorted = |tx: &[Transaction]| {
            let mut v = tx.to_vec();
            v.sort();
            v
        };
        assert_eq!(sorted(&copy), sorted(&base));
    }
}
