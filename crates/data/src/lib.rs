//! # yafim-data — dataset substrate
//!
//! The paper evaluates on four benchmark datasets (Table I) plus a
//! proprietary medical-case corpus:
//!
//! | dataset     | items | transactions | character                        |
//! |-------------|-------|--------------|----------------------------------|
//! | MushRoom    | 119   | 8,124        | dense categorical (23 attrs)     |
//! | T10I4D100K  | 870   | 100,000      | sparse, IBM Quest synthetic      |
//! | Chess       | 75    | 3,196        | very dense categorical (37 attrs)|
//! | Pumsb_star  | 2,088 | 49,046       | dense census data                |
//!
//! This environment has no network access to the UCI/FIMI repositories and
//! no IBM Quest binary, so this crate provides generators that reproduce the
//! *shape* of each dataset — item count, transaction count, transaction
//! length, density, and the correlation structure that drives Apriori's
//! iteration depth — as documented in `DESIGN.md` §2. All generators are
//! deterministic given a seed.
//!
//! * [`quest`] — IBM-Quest-style sparse market-basket generator
//!   (for T10I4D100K).
//! * [`dense`] — categorical attribute=value generator
//!   (for MushRoom / Chess / Pumsb_star).
//! * [`medical`] — medical-case generator with comorbidity structure
//!   (for the §V.D application, Fig. 6).
//! * [`profiles`] — the Table I dataset profiles, pre-tuned.
//! * [`io`] — `.dat` text round-tripping and dataset replication (sizeup).

pub mod dense;
pub mod io;
pub mod medical;
pub mod profiles;
pub mod quest;
pub mod rng;

pub use dense::{DenseConfig, DenseGenerator};
pub use io::{from_lines, parse_transaction, read_dat, replicate, to_lines, write_dat};
pub use medical::{MedicalConfig, MedicalGenerator};
pub use profiles::{DatasetProfile, PaperDataset};
pub use quest::{QuestConfig, QuestGenerator};

/// An item identifier (mirrors `yafim_core::Item` without the dependency).
pub type Item = u32;

/// A transaction: sorted, deduplicated items.
pub type Transaction = Vec<Item>;

/// Basic statistics of a generated dataset, for checks against Table I.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetStats {
    /// Distinct items appearing in the data.
    pub distinct_items: usize,
    /// Number of transactions.
    pub transactions: usize,
    /// Mean items per transaction.
    pub avg_len: f64,
}

/// Compute [`DatasetStats`] of a transaction list.
pub fn stats(transactions: &[Transaction]) -> DatasetStats {
    let mut seen = std::collections::HashSet::new();
    let mut total = 0usize;
    for t in transactions {
        total += t.len();
        seen.extend(t.iter().copied());
    }
    DatasetStats {
        distinct_items: seen.len(),
        transactions: transactions.len(),
        avg_len: if transactions.is_empty() {
            0.0
        } else {
            total as f64 / transactions.len() as f64
        },
    }
}

/// Check a generated dataset's invariants: sorted, deduplicated, non-empty
/// transactions with items below `max_item`.
pub fn validate(transactions: &[Transaction], max_item: Item) -> Result<(), String> {
    for (i, t) in transactions.iter().enumerate() {
        if t.is_empty() {
            return Err(format!("transaction {i} is empty"));
        }
        if !t.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!("transaction {i} is not strictly sorted: {t:?}"));
        }
        if let Some(&bad) = t.iter().find(|&&x| x >= max_item) {
            return Err(format!("transaction {i} has out-of-range item {bad}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let tx = vec![vec![1, 2], vec![2, 3, 4]];
        let s = stats(&tx);
        assert_eq!(s.distinct_items, 4);
        assert_eq!(s.transactions, 2);
        assert!((s.avg_len - 2.5).abs() < 1e-12);
    }

    #[test]
    fn stats_empty() {
        let s = stats(&[]);
        assert_eq!(s.transactions, 0);
        assert_eq!(s.avg_len, 0.0);
    }

    #[test]
    fn validate_catches_problems() {
        assert!(validate(&[vec![1, 2]], 10).is_ok());
        assert!(validate(&[vec![]], 10).is_err());
        assert!(validate(&[vec![2, 1]], 10).is_err());
        assert!(validate(&[vec![1, 1]], 10).is_err());
        assert!(validate(&[vec![1, 10]], 10).is_err());
    }
}
