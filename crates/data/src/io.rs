//! `.dat` text format round-tripping and dataset replication.
//!
//! The FIMI/UCI `.dat` convention: one transaction per line, items as
//! whitespace-separated decimal ids. Both engines read datasets in this
//! format from simulated HDFS; [`to_lines`]/[`from_lines`] convert between
//! transaction lists and text, and [`replicate`] produces the N×-enlarged
//! datasets of the paper's sizeup experiment (Fig. 4).

use crate::{Item, Transaction};
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Render transactions as `.dat` lines.
pub fn to_lines(transactions: &[Transaction]) -> Vec<String> {
    transactions
        .iter()
        .map(|t| {
            let mut s = String::with_capacity(t.len() * 4);
            for (i, item) in t.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                s.push_str(&item.to_string());
            }
            s
        })
        .collect()
}

/// Parse one `.dat` line into a transaction: whitespace-separated decimal
/// item ids, sorted and deduplicated. Unparseable tokens are skipped, so a
/// blank or garbage line is an empty transaction. Every engine reads its
/// input through this tokenizer: one line is one transaction, and |D| (the
/// count a fractional support resolves against) is the line count.
pub fn parse_transaction(line: &str) -> Transaction {
    let mut items: Vec<Item> = line
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    items.sort_unstable();
    items.dedup();
    items
}

/// Parse `.dat` lines back into transactions, one per line (see
/// [`parse_transaction`]): blank and unparseable lines become empty
/// transactions, so |D| is `lines.len()`.
pub fn from_lines<S: AsRef<str>>(lines: &[S]) -> Vec<Transaction> {
    lines
        .iter()
        .map(|l| parse_transaction(l.as_ref()))
        .collect()
}

/// Write a `.dat` file to the local filesystem.
pub fn write_dat(path: impl AsRef<Path>, transactions: &[Transaction]) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for line in to_lines(transactions) {
        writeln!(out, "{line}")?;
    }
    out.flush()
}

/// Read a `.dat` file from the local filesystem.
pub fn read_dat(path: impl AsRef<Path>) -> std::io::Result<Vec<Transaction>> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    let lines: Vec<String> = reader.lines().collect::<Result<_, _>>()?;
    Ok(from_lines(&lines))
}

/// Concatenate `times` copies of the dataset — the paper's sizeup
/// methodology ("we replicate four datasets to 2, 3, 4, 5 and 6 times in
/// size"). Replication preserves every relative support exactly, so the
/// mining result is identical while the data volume scales.
pub fn replicate(transactions: &[Transaction], times: usize) -> Vec<Transaction> {
    assert!(times >= 1);
    let mut out = Vec::with_capacity(transactions.len() * times);
    for _ in 0..times {
        out.extend(transactions.iter().cloned());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_roundtrip() {
        let tx = vec![vec![1, 5, 9], vec![2], vec![3, 4]];
        let lines = to_lines(&tx);
        assert_eq!(lines, vec!["1 5 9", "2", "3 4"]);
        assert_eq!(from_lines(&lines), tx);
    }

    #[test]
    fn parse_transaction_handles_noise() {
        assert_eq!(parse_transaction("5 3 3 1"), vec![1, 3, 5]);
        assert_eq!(parse_transaction("  7  "), vec![7]);
        assert_eq!(parse_transaction(""), Vec::<Item>::new());
        assert_eq!(parse_transaction("2 x 4"), vec![2, 4]);
    }

    #[test]
    fn from_lines_cleans_input() {
        let lines = vec!["5 3 3 1", "", "  ", "x 2", "x y z"];
        let empty = Vec::new();
        assert_eq!(
            from_lines(&lines),
            vec![vec![1, 3, 5], empty.clone(), empty.clone(), vec![2], empty]
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("yafim-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.dat");
        let tx = vec![vec![10, 20], vec![30]];
        write_dat(&path, &tx).unwrap();
        assert_eq!(read_dat(&path).unwrap(), tx);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replicate_scales_exactly() {
        let tx = vec![vec![1], vec![2]];
        let r = replicate(&tx, 3);
        assert_eq!(r.len(), 6);
        assert_eq!(&r[0..2], &tx[..]);
        assert_eq!(&r[4..6], &tx[..]);
        assert_eq!(replicate(&tx, 1), tx);
    }
}
