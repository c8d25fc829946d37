//! # yafim — a Rust reproduction of *YAFIM: A Parallel Frequent Itemset
//! Mining Algorithm with Spark* (IPDPS Workshops 2014)
//!
//! YAFIM re-expresses the Apriori algorithm on Spark's RDD model: the
//! transactional dataset is loaded into a cached in-memory RDD once, and
//! each Apriori pass broadcasts a hash tree of candidate itemsets to the
//! workers and counts supports with `flatMap → map → reduceByKey`. Against
//! a Hadoop MapReduce implementation — which re-reads the dataset from HDFS
//! and launches a fresh job every pass — the paper reports ~18× average
//! speedup (~25× on a medical-records workload).
//!
//! There is no Spark here; the distributed runtime is reproduced in-tree
//! (see `DESIGN.md`):
//!
//! * [`cluster`] — a deterministic virtual cluster: calibrated cost model,
//!   virtual-time scheduler, simulated HDFS. Data processing is real; time
//!   is virtual.
//! * [`rdd`] — a mini-Spark: typed RDDs with lineage, stages, shuffle,
//!   caching, broadcast variables, lineage-based fault recovery.
//! * [`mapreduce`] — a Hadoop-1.x-style MapReduce engine (the baseline's
//!   substrate).
//! * `core` (re-exported at the top level) — the mining algorithms:
//!   YAFIM, MR-Apriori (SPC/FPC/DPC), sequential Apriori, Eclat, FP-Growth,
//!   and association-rule generation.
//! * [`data`] — generators reproducing the shape of the paper's datasets
//!   (Table I) and the medical application corpus.
//!
//! ## Quickstart
//!
//! ```
//! use yafim::cluster::SimCluster;
//! use yafim::rdd::Context;
//! use yafim::{mine_in_memory, Support, YafimConfig};
//!
//! // The paper's 12-node × 8-core cluster, simulated.
//! let ctx = Context::new(SimCluster::paper_cluster());
//!
//! let transactions = vec![
//!     vec![1, 3, 4],
//!     vec![2, 3, 5],
//!     vec![1, 2, 3, 5],
//!     vec![2, 5],
//! ];
//! let run = mine_in_memory(&ctx, &transactions, YafimConfig::new(Support::Count(2)))?;
//!
//! assert_eq!(run.result.level_sizes(), vec![4, 4, 1]);
//! println!("mined {} itemsets in {:.2} virtual seconds",
//!          run.result.total(), run.total_seconds);
//! # Ok::<(), yafim::rdd::ExecError>(())
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench/src/bin/` for
//! the binaries that regenerate every table and figure of the paper.

pub use yafim_core::*;

/// The virtual-cluster substrate (re-export of `yafim-cluster`).
pub mod cluster {
    pub use yafim_cluster::*;
}

/// The mini-Spark RDD engine (re-export of `yafim-rdd`).
pub mod rdd {
    pub use yafim_rdd::*;
}

/// The MapReduce engine (re-export of `yafim-mapreduce`).
pub mod mapreduce {
    pub use yafim_mapreduce::*;
}

/// Dataset generators and I/O (re-export of `yafim-data`).
pub mod data {
    pub use yafim_data::*;
}
