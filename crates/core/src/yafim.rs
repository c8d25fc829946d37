//! YAFIM — the paper's algorithm (§IV), on the mini-Spark engine.
//!
//! **Phase I** (Algorithm 2, Fig. 1): load the transactional dataset from
//! HDFS into a *cached* RDD, then
//! `flatMap(items) → map(item → (item, 1)) → reduceByKey(+)`, filtering by
//! `MinSup`, to obtain the frequent items `L1`.
//!
//! **Phase II** (Algorithm 3, Fig. 2): iteratively, on the driver, generate
//! candidates `C_{k+1} = ap_gen(L_k)`, build a candidate hash tree over
//! them and *broadcast* it (§IV.C); then over the cached transactions RDD
//! count each candidate's occurrences
//! (`flatMap(subset(C_k, t)) → map(c → (c, 1)) → reduceByKey(+)`) and keep
//! those reaching `MinSup`.
//!
//! The transactions RDD is read from HDFS exactly once and reused from
//! cluster memory in every later pass — the key memory-utilization property
//! of §IV.B that the MapReduce baseline lacks.
//!
//! # The Phase-II hot path ([`Phase2Config`])
//!
//! All iterative cost lives in subset-matching every cached transaction
//! against `C_k`. On top of the paper-faithful engine (hash tree, raw
//! alphabet, untrimmed RDD) this module implements three independently
//! switchable optimizations, all invisible to results:
//!
//! * **dense projection** — after pass 1, re-encode the cached transactions
//!   once ([`DenseEncoder`]): drop infrequent items, remap survivors to
//!   dense ranks `0..|L1|`, drop now-short transactions, and re-cache. The
//!   projection is a narrow `map → filter` that fuses into pass 2's
//!   pipeline, and the re-cache keeps §IV.B's memory property. It runs
//!   whenever any of the switches below is on.
//! * **specialized pass 2** — `|C_2| = |L1|·(|L1|−1)/2` makes pass 2 the
//!   dominant iteration; over dense ranks it needs no candidate store at
//!   all, just a flat triangular count array indexed by item pair.
//! * **cross-pass trimming** — after each `L_k` a DHP-style trim drops
//!   items that occur in no frequent `k`-itemset plus transactions too
//!   short to hold a `(k+1)`-candidate, re-caching the shrunken RDD (and
//!   unpersisting the one it replaces) so later passes stream
//!   monotonically less data.
//! * **vertical bitmap counting** ([`Matcher::Bitmap`]) — project each
//!   partition once into a [`ColumnarPartition`] (one `u64` bitset row per
//!   dense rank) and count every `k ≥ 3` candidate by word-wise AND +
//!   popcount over its item rows, with no per-transaction store descent at
//!   all. Guarded by [`BITMAP_MAX_WORDS`](crate::bitmap::BITMAP_MAX_WORDS);
//!   too-large alphabets fall back to the hash tree.

use crate::bitmap::{bitmap_fits, BitmapScratch, ColumnarPartition};
use crate::candidates::{ap_gen, CandidateList};
use crate::encode::{tri_index, tri_len, tri_pair, DenseEncoder, TrimMask, TRIANGLE_MAX_CELLS};
use crate::hashtree::{HashTree, MatchScratch};
use crate::types::{
    parse_transaction, Item, Itemset, MinerRun, MiningResult, PassTiming, Support,
    JVM_BITMAP_WORD_UNITS, JVM_PAIR_COUNT_UNITS, JVM_TREE_VISIT_UNITS,
};
use std::sync::Arc;
use yafim_cluster::{
    memgov, ByteSize, EventKind, ExecError, RecoveryCounters, SimDuration, SPILL_GRANULE,
};
use yafim_rdd::{Context, Data, Rdd};

/// Driver-side footprint estimates for the memory-degradation ladder.
/// Deliberately coarse: they only need to rank the counting structures
/// (bitmap arena vs hash tree) and catch order-of-magnitude
/// overflows *before* a pass runs — the task-side governor still enforces
/// the real reservations.
fn triangle_footprint(n_dense: usize) -> u64 {
    8 * tri_len(n_dense) as u64
}

/// Per-task columnar arena estimate: one `u64` bitset row per dense rank
/// over the partition's share of the transactions.
fn bitmap_footprint(n_dense: usize, lines: usize, partitions: usize) -> u64 {
    let row_words = (lines / partitions.max(1)) as u64 / 64 + 1;
    8 * n_dense as u64 * row_words
}

/// Which counting strategy Phase II uses for passes `k ≥ 3`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Matcher {
    /// The paper's candidate hash tree (Agrawal & Srikant) — the
    /// paper-faithful reference.
    HashTree,
    /// Vertical TID bitmaps: project each partition once into a
    /// [`ColumnarPartition`] and count candidates by word-wise AND +
    /// popcount of item rows — no broadcast store, no per-transaction
    /// descent. Requires an alphabet within
    /// [`BITMAP_MAX_WORDS`](crate::bitmap::BITMAP_MAX_WORDS); otherwise the
    /// engine counts with the hash tree and bumps the `bitmap.fallbacks`
    /// counter.
    Bitmap,
}

/// Phase-II hot-path switches. Every combination returns byte-identical
/// mining results; only the cost of getting there moves. Turning on any of
/// `triangle_pass2`, `trim` or [`Matcher::Bitmap`] also re-encodes the
/// cached transactions to dense ranks after pass 1.
#[derive(Clone, Debug)]
pub struct Phase2Config {
    /// Count pass 2 with a triangular pair array instead of `matcher`;
    /// falls back to `matcher` when `|L1|` would need more than
    /// [`TRIANGLE_MAX_CELLS`] cells.
    pub triangle_pass2: bool,
    /// Counting strategy for passes `k ≥ 3` (and pass 2 without the
    /// triangle).
    pub matcher: Matcher,
    /// DHP-style cross-pass trimming of the cached RDD.
    pub trim: bool,
    /// Checkpoint the work RDD to replicated HDFS blocks every this many
    /// completed Phase-II passes, truncating its lineage (0 = never). When
    /// 0, an active [`yafim_cluster::FaultPlan`] with a nonzero
    /// `checkpoint_interval` supplies the cadence instead. Invisible to
    /// results; after a node loss, recovery replays at most this many
    /// passes of projection/trim work instead of the chain back to HDFS.
    pub checkpoint_interval: usize,
}

impl Phase2Config {
    /// The paper's Phase II exactly: hash tree, raw alphabet, untrimmed RDD.
    pub fn paper() -> Self {
        Phase2Config {
            triangle_pass2: false,
            matcher: Matcher::HashTree,
            trim: false,
            checkpoint_interval: 0,
        }
    }

    /// Everything on: dense projection, triangular pass 2, and `k ≥ 3`
    /// passes counted through the vertical TID bitmaps. One DHP trim may
    /// still run after pass 2 (it shrinks the columnar build); once the
    /// columnar store exists further trims are skipped — the bitmap counter
    /// never rescans transactions, so there is nothing left for them to
    /// save.
    pub fn bitmap() -> Self {
        Phase2Config {
            triangle_pass2: true,
            matcher: Matcher::Bitmap,
            trim: true,
            checkpoint_interval: 0,
        }
    }

    /// Whether the run re-encodes the cached transactions to dense ranks:
    /// every optimization needs them, the paper engine does not.
    fn projects(&self) -> bool {
        self.triangle_pass2 || self.trim || self.matcher == Matcher::Bitmap
    }
}

/// Options for a YAFIM run.
#[derive(Clone, Debug)]
pub struct YafimConfig {
    /// Minimum support threshold.
    pub min_support: Support,
    /// Minimum partitions for the transactions RDD (0 = the context's
    /// default parallelism, 2 tasks per virtual core).
    pub min_partitions: usize,
    /// Stop after this many passes (0 = run to fixpoint).
    pub max_passes: usize,
    /// Phase-II hot-path configuration.
    pub phase2: Phase2Config,
    /// Scheduler pool this run's jobs are attributed to (multi-job
    /// scheduling; see `yafim_cluster::JobQueue`).
    pub pool: String,
}

impl YafimConfig {
    /// Defaults: run to fixpoint, default parallelism, the paper's Phase II.
    pub fn new(min_support: Support) -> Self {
        YafimConfig {
            min_support,
            min_partitions: 0,
            max_passes: 0,
            phase2: Phase2Config::paper(),
            pool: "default".to_string(),
        }
    }

    /// Like [`YafimConfig::new`] but with every Phase-II optimization on
    /// ([`Phase2Config::bitmap`]).
    pub fn bitmap(min_support: Support) -> Self {
        YafimConfig {
            phase2: Phase2Config::bitmap(),
            ..YafimConfig::new(min_support)
        }
    }
}

pub use crate::types::PassTiming as YafimPassTiming;

/// Outcome of one counting pass: `(|C_k|, surviving count, L_k in work
/// space)`; `None` when no candidates could be generated.
type PassOutcome = Option<(usize, usize, Vec<(Itemset, u64)>)>;

/// The YAFIM miner bound to one driver [`Context`].
pub struct Yafim {
    ctx: Context,
    config: YafimConfig,
}

impl Yafim {
    /// A miner over `ctx` with `config`.
    pub fn new(ctx: Context, config: YafimConfig) -> Self {
        Yafim { ctx, config }
    }

    /// Mine the text dataset at `input` (one transaction per line, see
    /// [`parse_transaction`]) on simulated HDFS. Engine failures under an
    /// active fault plan come back typed: a stage abort, an unrepairable
    /// corruption or failed invariant audit, an out-of-memory kill, or the
    /// memory governor's refusal when the job's smallest viable footprint
    /// cannot fit the execution budget.
    pub fn try_mine(&self, input: &str) -> Result<MinerRun, ExecError> {
        let ctx = &self.ctx;
        // Attribute the whole run to its scheduler pool; the guard reports
        // completion to any bound JobQueue ticket when dropped.
        let _job = ctx.cluster().acquire_job(&self.config.pool, "yafim");
        let metrics = ctx.metrics().clone();
        let cost = ctx.cluster().cost().clone();
        let p2 = self.config.phase2.clone();
        let partitions = if self.config.min_partitions == 0 {
            ctx.config().default_parallelism
        } else {
            self.config.min_partitions
        };

        // The driver knows the dataset size from HDFS metadata; resolve a
        // fractional MinSup without an extra counting job.
        let file = ctx.cluster().hdfs().get(input)?;
        let min_sup = self.config.min_support.resolve(file.num_lines() as u64);

        // ---- Admission control (degradation ladder, last rung) ----
        //
        // The smallest viable footprint of any pass is one spill granule of
        // combine buffer per pass-1 task: below that a task cannot make
        // progress even by streaming through disk, so running the job could
        // only end in OOM kills. Refuse it up front, typed — never a wrong
        // or silently-partial result.
        if let Some(budget) = ctx.cluster().memory_budget() {
            if let Err(refusal) = budget.admit(SPILL_GRANULE) {
                return Err(ExecError::MemoryRefused { refusal });
            }
        }

        let run_start = metrics.now();
        let mut passes: Vec<PassTiming> = Vec::new();

        // ---- Phase I: load + cache + frequent items ----
        let pass1_start = metrics.now();
        let transactions: Rdd<Vec<Item>> = ctx
            .text_file(input, partitions)?
            .map(|line| parse_transaction(&line))
            .cache();

        // This narrow chain runs as one fused pipeline per partition: each
        // transaction streams through flatMap and map straight into the
        // shuffle's map-side combiner without intermediate buffers.
        let l1_pairs: Vec<(Item, u64)> = transactions
            .flat_map(|t| t)
            .map(|item| (item, 1u64))
            .reduce_by_key(|a, b| a + b)
            .filter(move |&(_, c)| c >= min_sup)
            .try_collect()?;
        let mut l1: Vec<(Itemset, u64)> = l1_pairs
            .iter()
            .map(|&(i, c)| (Itemset::single(i), c))
            .collect();
        l1.sort_by(|a, b| a.0.cmp(&b.0));

        metrics.record_span(EventKind::Iteration, "pass 1", pass1_start);
        passes.push(PassTiming {
            pass: 1,
            seconds: metrics.now().since(pass1_start).as_secs(),
            candidates: l1.len(), // distinct frequent items; C1 is implicit
            frequent: l1.len(),
        });

        if l1.is_empty() {
            transactions.unpersist();
            return Ok(MinerRun {
                result: MiningResult::default(),
                total_seconds: metrics.now().since(run_start).as_secs(),
                passes,
            });
        }

        // ---- Projection: re-encode the cached RDD to dense ranks ----
        //
        // `work` is the transactions RDD every counting job runs on, in
        // "work space": dense ranks when projecting, the raw alphabet
        // otherwise. `replaced` holds the RDD the current `work` supersedes;
        // it stays cached until the job that materializes (and re-caches)
        // its successor has run, then is unpersisted — the §IV.B memory
        // property with correct cache accounting for replaced RDDs.
        let mut replaced: Option<Rdd<Vec<Item>>> = None;
        let (work, encoder) = if p2.projects() {
            let encoder = Arc::new(DenseEncoder::new(
                l1.iter().map(|(s, _)| s.items()[0]).collect(),
            ));
            metrics.advance_with_event(
                cost.cpu(encoder.len() as u64),
                EventKind::Projection,
                "build dense dictionary",
            );
            let bc_enc = ctx.broadcast(DenseEncoder::clone(&encoder));
            let enc = bc_enc.value();
            // A narrow map → filter chain: it fuses into the next pass's
            // pipeline and materializes only at its own cache insert.
            let dense = transactions
                .map(move |t| enc.encode(&t))
                .filter(|t| t.len() >= 2)
                .cache();
            replaced = Some(transactions.clone());
            (dense, Some(encoder))
        } else {
            (transactions.clone(), None)
        };
        let mut work = work;

        // Work-space L1: ranks 0..n when projecting (l1 is item-sorted, so
        // rank order equals item order and counts carry over positionally).
        let l1_work: Vec<(Itemset, u64)> = match &encoder {
            Some(_) => l1
                .iter()
                .enumerate()
                .map(|(r, &(_, c))| (Itemset::single(r as u32), c))
                .collect(),
            None => l1,
        };

        // ---- Phase II: iterate L_k → C_{k+1} → L_{k+1}, in work space ----
        //
        // Checkpoint cadence: the explicit Phase-II knob wins; with it at 0,
        // an active fault plan may still request one (chaos runs flip
        // checkpointing on without touching the miner config).
        let ckpt_every = if p2.checkpoint_interval != 0 {
            p2.checkpoint_interval
        } else {
            ctx.cluster().faults().plan().checkpoint_interval
        };
        let mut passes_since_ckpt = 0usize;
        let mut checkpointed: Option<Rdd<Vec<Item>>> = None;

        // Bitmap density guard, decided once from driver-side metadata
        // (mirrors the pass-2 triangle guard): the columnar projection must
        // fit BITMAP_MAX_WORDS across all partitions. Otherwise the hash
        // tree counts instead.
        let n_dense = encoder.as_ref().map_or(0, |e| e.len());
        let use_bitmap =
            p2.matcher == Matcher::Bitmap && bitmap_fits(n_dense, file.num_lines(), partitions);
        if p2.matcher == Matcher::Bitmap && !use_bitmap {
            ctx.cluster().registry().counter("bitmap.fallbacks").inc(1);
        }
        // The columnar store, built lazily by the first bitmap-counted pass
        // and reused (from cache) by every later one. Once it exists it is
        // the only RDD later passes read, so it takes over `work`'s
        // checkpoint cadence.
        let mut columnar: Option<Rdd<ColumnarPartition>> = None;
        let mut columnar_checkpointed: Option<Rdd<ColumnarPartition>> = None;

        // Per-task budget cap, fixed for the whole run when the governor is
        // armed: the driver checks each pass's preferred counting structure
        // against it and steps down (ladder rung 2) *before* the pass runs.
        let task_limit = ctx.cluster().memory_budget().map(|b| b.per_task_limit);

        let mut levels: Vec<Vec<(Itemset, u64)>> = vec![l1_work];
        let mut pass = 2usize;
        loop {
            if self.config.max_passes != 0 && pass > self.config.max_passes {
                break;
            }
            let pass_start = metrics.now();

            let mut use_triangle =
                pass == 2 && p2.triangle_pass2 && tri_len(n_dense) <= TRIANGLE_MAX_CELLS;
            if use_triangle && task_limit.is_some_and(|l| triangle_footprint(n_dense) > l) {
                self.note_degradation(pass, "triangle array -> candidate store");
                use_triangle = false;
            }

            let (n_candidates, counted, mut lk) = if use_triangle {
                match self.pass2_triangle(&work, n_dense, min_sup)? {
                    Some(v) => v,
                    None => break, // |L1| < 2: no pairs to count
                }
            } else {
                let prev: Vec<Itemset> = levels
                    .last()
                    .expect("levels never empty here")
                    .iter()
                    .map(|(s, _)| s.clone())
                    .collect();
                // An armed governor steps the bitmap down to the hash tree
                // when its columnar arena cannot fit the per-task budget
                // (the arena already built and cached keeps serving — only
                // its construction is budgeted).
                let bitmap_fits_budget = columnar.is_some()
                    || !task_limit.is_some_and(|l| {
                        bitmap_footprint(n_dense, file.num_lines(), partitions) > l
                    });
                let outcome = if use_bitmap && bitmap_fits_budget {
                    self.pass_bitmap(&work, &mut columnar, n_dense, &prev, pass, min_sup)?
                } else {
                    if use_bitmap {
                        self.note_degradation(pass, "bitmap arena -> hash tree");
                    }
                    self.pass_with_store(&work, &prev, pass, min_sup)?
                };
                match outcome {
                    Some(v) => v,
                    None => break, // ap_gen produced no candidates
                }
            };

            // The job above materialized (and cached) `work`; whatever it
            // replaced can now release its cluster memory.
            if let Some(old) = replaced.take() {
                old.unpersist();
            }

            if counted == 0 {
                metrics.record_span(EventKind::Iteration, format!("pass {pass}"), pass_start);
                passes.push(PassTiming {
                    pass,
                    seconds: metrics.now().since(pass_start).as_secs(),
                    candidates: n_candidates,
                    frequent: 0,
                });
                break;
            }
            lk.sort_by(|a, b| a.0.cmp(&b.0));

            // Last-line tripwire behind the storage integrity layer: if a
            // corrupted partition somehow produced counts that slipped past
            // every checksum, the Apriori invariants catch it here, before
            // the level is recorded — wrong results must never be returned.
            if let Err(violation) = crate::audit::audit_level(
                levels.last().expect("levels never empty here"),
                &lk,
                n_candidates,
            ) {
                return Err(ExecError::IntegrityFailure {
                    detail: format!("mining-invariant audit failed after pass {pass}: {violation}"),
                });
            }

            metrics.record_span(EventKind::Iteration, format!("pass {pass}"), pass_start);
            passes.push(PassTiming {
                pass,
                seconds: metrics.now().since(pass_start).as_secs(),
                candidates: n_candidates,
                frequent: lk.len(),
            });

            // ---- Cross-pass trimming (DHP-style) ----
            //
            // Any item in no frequent k-itemset is in no frequent
            // (k+1)-itemset (monotonicity), and a transaction with fewer
            // than k+1 surviving items holds no (k+1)-candidate — so both
            // can be dropped from the cached RDD without changing a single
            // later count. The trimmed RDD re-caches during the next pass's
            // job; its predecessor is unpersisted right after.
            //
            // Once the columnar bitmap store exists, trimming is skipped:
            // the bitmap counter never rescans the transactions RDD, so a
            // trim would cost a job and save nothing (pass-2's trim still
            // runs with the bitmap — it shrinks the columnar build itself).
            if p2.trim && columnar.is_none() {
                let mask = TrimMask::from_frequent(n_dense, &lk);
                metrics.advance_with_event(
                    cost.cpu((lk.len() * (pass)) as u64 + n_dense as u64),
                    EventKind::Projection,
                    format!(
                        "trim plan pass {pass} ({} of {} items live)",
                        mask.alive(),
                        n_dense
                    ),
                );
                let bc_mask = ctx.broadcast(mask);
                let keep = bc_mask.value();
                let min_len = pass + 1;
                let trimmed = work
                    .map(move |mut t| {
                        t.retain(|&r| keep.keep[r as usize]);
                        t
                    })
                    .filter(move |t| t.len() >= min_len)
                    .cache();
                replaced = Some(work);
                work = trimmed;
            }

            // ---- Checkpoint: truncate lineage every `ckpt_every` passes --
            //
            // The checkpoint job materializes the RDD the next pass reads
            // into replicated HDFS blocks and swaps in a reader whose
            // lineage is one level deep. A node loss in a later pass then
            // re-reads the blocks instead of replaying every projection/trim
            // back to the input file — recovery work is bounded by the
            // checkpoint interval. The columnar store's lineage runs through
            // `work`, so `work`'s last checkpoint stays until run end.
            if ckpt_every != 0 {
                passes_since_ckpt += 1;
                if passes_since_ckpt >= ckpt_every {
                    passes_since_ckpt = 0;
                    match columnar.as_mut() {
                        Some(col) => checkpoint_in_place(col, None, &mut columnar_checkpointed)?,
                        None => checkpoint_in_place(&mut work, replaced.take(), &mut checkpointed)?,
                    }
                }
            }

            levels.push(lk);
            pass += 1;
        }

        // Unpersist every RDD still holding cluster memory (the final work
        // RDD, the columnar bitmap store, plus a replaced RDD whose
        // successor never ran a job).
        if let Some(old) = replaced.take() {
            old.unpersist();
        }
        if let Some(col) = columnar.take() {
            col.unpersist();
        }
        work.unpersist();
        transactions.unpersist();
        if let Some(cp) = checkpointed.take() {
            cp.discard_checkpoint();
        }
        if let Some(cp) = columnar_checkpointed.take() {
            cp.discard_checkpoint();
        }

        // Decode rank-space results back to the original alphabet; the
        // monotone encoding preserves itemset order, so per-level sort
        // order survives the decode.
        let levels = match &encoder {
            Some(enc) => levels
                .into_iter()
                .map(|level| {
                    level
                        .into_iter()
                        .map(|(s, c)| (enc.decode_itemset(&s), c))
                        .collect()
                })
                .collect(),
            None => levels,
        };

        Ok(MinerRun {
            result: MiningResult::from_levels(levels),
            total_seconds: metrics.now().since(run_start).as_secs(),
            passes,
        })
    }

    /// Record one driver-side counting-structure step-down (ladder rung 2):
    /// bump `mem.degradations` in the registry and the run's recovery
    /// block, and log the decision as a zero-cost event.
    fn note_degradation(&self, pass: usize, what: &str) {
        let mut rec = RecoveryCounters::default();
        rec.mem.degradations = 1;
        self.ctx.metrics().note_recovery(&rec);
        self.ctx
            .cluster()
            .registry()
            .counter("mem.degradations")
            .inc(1);
        self.ctx.metrics().advance_with_event(
            SimDuration::ZERO,
            EventKind::Other,
            format!("memory step-down pass {pass}: {what}"),
        );
    }

    /// Specialized pass 2 over dense ranks: a flat triangular count array
    /// indexed by item pair — no candidate store, no broadcast, no
    /// per-candidate allocation. Triangle cell `tri_index(a, b)` coincides
    /// with `ap_gen(L1)`'s candidate index for `{a, b}`, so counts (and the
    /// reported candidate total) are identical to the hash-tree path.
    ///
    /// Returns `(|C2|, surviving count, L2 in rank space)`, or `None` when
    /// there are no pairs to count.
    fn pass2_triangle(
        &self,
        work: &Rdd<Vec<Item>>,
        n_dense: usize,
        min_sup: u64,
    ) -> Result<PassOutcome, ExecError> {
        let metrics = self.ctx.metrics().clone();
        let cost = self.ctx.cluster().cost().clone();
        let n_candidates = tri_len(n_dense);
        if n_candidates == 0 {
            return Ok(None);
        }
        metrics.advance_with_event(
            cost.cpu(n_dense as u64),
            EventKind::Driver,
            format!("pass 2 triangle setup ({n_candidates} pairs)"),
        );

        let counted: Vec<(u32, u64)> = work
            .map_partitions(move |txs, tc| {
                // The triangle is this task's execution memory; an injected
                // (or real) denial kills the attempt into the retry ladder.
                tc.try_reserve(8 * n_candidates as u64, memgov::site::TRIANGLE, false);
                let mut counts = vec![0u64; n_candidates];
                let mut pairs = 0u64;
                for t in txs {
                    for i in 0..t.len().saturating_sub(1) {
                        let base = tri_index(n_dense, t[i] as usize, t[i] as usize + 1);
                        for &b in &t[i + 1..] {
                            // Row-relative addressing keeps the inner loop a
                            // single add + increment.
                            counts[base + (b - t[i]) as usize - 1] += 1;
                        }
                    }
                    pairs += (t.len() * t.len().saturating_sub(1) / 2) as u64;
                }
                // One cheap array touch per pair, plus one emission per
                // nonzero cell — no tree descent, no subset checks.
                tc.add_cpu(pairs * JVM_PAIR_COUNT_UNITS);
                let mut out = Vec::new();
                for (i, &c) in counts.iter().enumerate() {
                    if c > 0 {
                        out.push((i as u32, c));
                    }
                }
                tc.add_cpu(out.len() as u64);
                out
            })
            .reduce_by_key(|a, b| a + b)
            .filter(move |&(_, c)| c >= min_sup)
            .try_collect()?;

        let mut counted = counted;
        counted.sort_unstable_by_key(|&(i, _)| i);
        let lk: Vec<(Itemset, u64)> = counted
            .iter()
            .map(|&(idx, c)| {
                let (a, b) = tri_pair(n_dense, idx as usize);
                (Itemset::from_sorted(vec![a as u32, b as u32]), c)
            })
            .collect();
        Ok(Some((n_candidates, lk.len(), lk)))
    }

    /// One Phase-II pass through the paper's broadcast [`HashTree`] — the
    /// generic path for `k ≥ 3`, and for pass 2 when the triangle is
    /// disabled or would not fit.
    ///
    /// Returns `(|C_k|, surviving count, L_k in work space)`, or `None`
    /// when candidate generation comes up empty.
    fn pass_with_store(
        &self,
        work: &Rdd<Vec<Item>>,
        prev: &[Itemset],
        pass: usize,
        min_sup: u64,
    ) -> Result<PassOutcome, ExecError> {
        let ctx = &self.ctx;
        let metrics = ctx.metrics().clone();
        let cost = ctx.cluster().cost().clone();

        // Driver: candidate generation (join + prune), charged as driver
        // CPU.
        let (candidates, gen_work) = ap_gen(prev);
        metrics.advance_with_event(
            cost.cpu(gen_work.units() + candidates.len() as u64),
            EventKind::Driver,
            format!("ap_gen pass {pass}"),
        );
        if candidates.is_empty() {
            return Ok(None);
        }
        let n_candidates = candidates.len();

        // Driver: build the hash tree and broadcast it to the workers.
        // Matcher::Bitmap lands here too when the density guard (or the
        // memory governor) refused the columnar projection.
        let tree = HashTree::build(candidates);
        metrics.advance_with_event(
            cost.cpu(2 * n_candidates as u64),
            EventKind::Driver,
            format!("build hash tree pass {pass}"),
        );
        let bc = ctx.broadcast(tree);
        let tree_for_tasks = bc.value();
        let store_bytes = bc.bytes();

        // Workers: count candidate occurrences over the cached
        // transactions. Matches are pre-aggregated per partition (as
        // Spark's reduceByKey map-side combine would), then shuffled.
        let counted: Vec<(u32, u64)> = work
            .map_partitions(move |txs, tc| {
                // Each task reads the broadcast tree (already paid for
                // once, virtually, at broadcast time).
                tc.note_broadcast_read(store_bytes);
                // The deserialized tree plus the count array are this
                // task's execution memory.
                tc.try_reserve(
                    store_bytes + 8 * n_candidates as u64,
                    memgov::site::CANDIDATE_STORE,
                    false,
                );
                let mut counts = vec![0u64; n_candidates];
                let mut scratch = MatchScratch::default();
                let mut visits = 0u64;
                for t in txs {
                    visits += tree_for_tasks.for_each_match(t, &mut scratch, |idx| {
                        counts[idx] += 1;
                    });
                }
                let matches: u64 = counts.iter().sum();
                // Store traversal plus one emission per match — the
                // flatMap cost of Algorithm 3, lines 4-9.
                tc.add_cpu(visits * JVM_TREE_VISIT_UNITS + matches);
                counts
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, c)| c > 0)
                    .map(|(i, c)| (i as u32, c))
                    .collect()
            })
            .reduce_by_key(|a, b| a + b)
            .filter(move |&(_, c)| c >= min_sup)
            .try_collect()?;

        let lk = resolve_survivors(
            counted,
            bc.into_value(),
            HashTree::into_candidates,
            HashTree::candidates,
        );
        Ok(Some((n_candidates, lk.len(), lk)))
    }

    /// Project `work` into the cached columnar bitmap store: one job,
    /// one [`ColumnarPartition`] element per partition, build bytes and CPU
    /// charged to the tasks and the arena registered with the cache manager
    /// like any other cached block (checksummed, evictable, recomputable
    /// from lineage).
    fn build_columnar(&self, work: &Rdd<Vec<Item>>, n_dense: usize) -> Rdd<ColumnarPartition> {
        let ctx = &self.ctx;
        let metrics = ctx.metrics().clone();
        let cost = ctx.cluster().cost().clone();
        metrics.advance_with_event(
            cost.cpu(n_dense as u64),
            EventKind::Projection,
            format!("columnar bitmap projection plan ({n_dense} rows)"),
        );
        let built = ctx.cluster().registry().counter("bitmap.partitions_built");
        let bytes = ctx.cluster().registry().counter("bitmap.build_bytes");
        work.map_partitions(move |txs, tc| {
            let col = ColumnarPartition::build(n_dense, txs);
            // The arena is execution memory while it is being built (it
            // only becomes a budgeted cache block once inserted).
            tc.try_reserve(
                8 * col.arena_words() as u64,
                memgov::site::BITMAP_ARENA,
                false,
            );
            // Physical build: write the arena once, touch one bit per item
            // occurrence.
            tc.add_mem_read(8 * col.arena_words() as u64);
            tc.add_cpu(col.build_cost_units());
            built.inc(1);
            bytes.inc(col.byte_size());
            vec![col]
        })
        .cache()
    }

    /// One Phase-II pass counted through the vertical TID bitmaps — the
    /// `k ≥ 3` path when [`Matcher::Bitmap`] passed its density guard. The
    /// columnar store is built (and cached) by the first such pass and
    /// reused from cluster memory afterwards; only the bare candidate list
    /// is broadcast.
    ///
    /// Returns `(|C_k|, surviving count, L_k in work space)`, or `None`
    /// when candidate generation comes up empty.
    fn pass_bitmap(
        &self,
        work: &Rdd<Vec<Item>>,
        columnar: &mut Option<Rdd<ColumnarPartition>>,
        n_dense: usize,
        prev: &[Itemset],
        pass: usize,
        min_sup: u64,
    ) -> Result<PassOutcome, ExecError> {
        let ctx = &self.ctx;
        let metrics = ctx.metrics().clone();
        let cost = ctx.cluster().cost().clone();

        // Driver: candidate generation (join + prune), charged as driver
        // CPU — identical to the hash-tree path, so pass metadata agrees.
        let (candidates, gen_work) = ap_gen(prev);
        metrics.advance_with_event(
            cost.cpu(gen_work.units() + candidates.len() as u64),
            EventKind::Driver,
            format!("ap_gen pass {pass}"),
        );
        if candidates.is_empty() {
            return Ok(None);
        }
        let n_candidates = candidates.len();

        // First bitmap pass: materialize the columnar store.
        let columnar_rdd = match columnar {
            Some(c) => c.clone(),
            None => {
                let built = self.build_columnar(work, n_dense);
                *columnar = Some(built.clone());
                built
            }
        };

        // Driver: no tree to build — just assemble and broadcast the
        // sorted candidate list (indices into it are the shuffle keys,
        // exactly as with the hash tree).
        metrics.advance_with_event(
            cost.cpu(n_candidates as u64),
            EventKind::Driver,
            format!("broadcast candidate list pass {pass}"),
        );
        let registry = ctx.cluster().registry();
        registry.counter("bitmap.passes").inc(1);
        registry
            .counter("bitmap.candidates_counted")
            .inc(n_candidates as u64);
        let words_counter = registry.counter("bitmap.words_intersected");
        let bc = ctx.broadcast(CandidateList(candidates));
        let cands_for_tasks = bc.value();
        let cand_bytes = bc.bytes();

        // Workers: word-wise AND + popcount per candidate over the cached
        // bitset rows. Within a partition every candidate is counted at
        // most once, so the emitted pairs are already combined map-side.
        let counted: Vec<(u32, u64)> = columnar_rdd
            .map_partitions(move |cols, tc| {
                tc.note_broadcast_read(cand_bytes);
                let mut scratch = BitmapScratch::default();
                let mut out: Vec<(u32, u64)> = Vec::new();
                let mut words = 0u64;
                for col in cols {
                    words += col.count_candidates(&cands_for_tasks.0, &mut scratch, &mut |i, c| {
                        out.push((i as u32, c));
                    });
                }
                // One AND+popcount per word, one emission per nonzero
                // count — the whole per-task cost of the pass.
                tc.add_cpu(words * JVM_BITMAP_WORD_UNITS + out.len() as u64);
                words_counter.inc(words);
                out
            })
            .reduce_by_key(|a, b| a + b)
            .filter(move |&(_, c)| c >= min_sup)
            .try_collect()?;

        let lk = resolve_survivors(counted, bc.into_value(), |l| l.0, |l| &l.0);
        Ok(Some((n_candidates, lk.len(), lk)))
    }
}

/// Checkpoint `rdd` to replicated HDFS blocks and swap in the cached
/// reader. The checkpoint job materializes `rdd`, so it and whatever it
/// `replaced` can release cluster memory; the previous checkpoint in `last`
/// is superseded and its blocks are dropped.
fn checkpoint_in_place<T: Data>(
    rdd: &mut Rdd<T>,
    replaced: Option<Rdd<T>>,
    last: &mut Option<Rdd<T>>,
) -> Result<(), ExecError> {
    let cp = rdd.try_checkpoint()?.cache();
    if let Some(old) = replaced {
        old.unpersist();
    }
    rdd.unpersist();
    if let Some(prev) = last.replace(cp.clone()) {
        prev.discard_checkpoint();
    }
    *rdd = cp;
    Ok(())
}

/// Resolve a pass's surviving `(candidate index, count)` pairs against the
/// broadcast candidates exactly once. The tasks have dropped their
/// broadcast handles by now, so the driver usually holds the last reference
/// and can drain the candidate list by value — no per-frequent-itemset
/// clone. If something (e.g. an in-flight recompute) still shares the
/// broadcast, index the shared slice instead.
fn resolve_survivors<B>(
    mut counted: Vec<(u32, u64)>,
    broadcast: Arc<B>,
    into_candidates: impl FnOnce(B) -> Vec<Itemset>,
    candidates: impl Fn(&B) -> &[Itemset],
) -> Vec<(Itemset, u64)> {
    counted.sort_unstable_by_key(|&(i, _)| i);
    match Arc::try_unwrap(broadcast) {
        Ok(owned) => {
            let mut wanted = counted.iter().copied().peekable();
            let mut out = Vec::with_capacity(counted.len());
            for (i, cand) in into_candidates(owned).into_iter().enumerate() {
                if let Some((_, c)) = wanted.next_if(|&(idx, _)| idx as usize == i) {
                    out.push((cand, c));
                }
            }
            out
        }
        Err(shared) => counted
            .iter()
            .map(|&(idx, c)| (candidates(&shared)[idx as usize].clone(), c))
            .collect(),
    }
}

/// Convenience: one-call YAFIM over an in-memory transaction list, writing
/// it to the cluster's HDFS first (used by tests and examples).
pub fn mine_in_memory(
    ctx: &Context,
    transactions: &[Vec<Item>],
    config: YafimConfig,
) -> Result<MinerRun, ExecError> {
    let path = format!("yafim-inmem-{}.dat", std::process::id());
    let file = ctx
        .cluster()
        .hdfs()
        .put_overwrite(&path, yafim_data::to_lines(transactions));
    let hdfs_write_cost = ctx.cluster().cost().hdfs_write(file.bytes());
    ctx.metrics()
        .advance_with_event(hdfs_write_cost, EventKind::HdfsWrite, path.clone());
    let run = Yafim::new(ctx.clone(), config).try_mine(&path);
    let _ = ctx.cluster().hdfs().delete(&path);
    // Dropping the input is instantaneous metadata work.
    ctx.metrics().advance(SimDuration::ZERO);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::{apriori, SequentialConfig};
    use yafim_cluster::{ClusterSpec, CostModel, SimCluster};

    fn ctx() -> Context {
        Context::new(SimCluster::with_threads(
            ClusterSpec::new(4, 2, 1 << 30),
            CostModel::hadoop_era(),
            4,
        ))
    }

    fn toy() -> Vec<Vec<Item>> {
        vec![vec![1, 3, 4], vec![2, 3, 5], vec![1, 2, 3, 5], vec![2, 5]]
    }

    /// [`super::mine_in_memory`] for runs that must complete.
    fn mine_in_memory(ctx: &Context, tx: &[Vec<Item>], config: YafimConfig) -> MinerRun {
        super::mine_in_memory(ctx, tx, config).expect("run completes")
    }

    /// Triangular pass 2, per-pass trimming and the paper's hash tree for
    /// `k ≥ 3`: every optimization except the bitmap kernel.
    fn trimmed_tree(min_support: Support) -> YafimConfig {
        YafimConfig {
            phase2: Phase2Config {
                triangle_pass2: true,
                matcher: Matcher::HashTree,
                trim: true,
                checkpoint_interval: 0,
            },
            ..YafimConfig::new(min_support)
        }
    }

    #[test]
    fn matches_sequential_on_toy() {
        let run = mine_in_memory(&ctx(), &toy(), YafimConfig::new(Support::Count(2)));
        let seq = apriori(&toy(), &SequentialConfig::new(Support::Count(2)));
        assert_eq!(run.result, seq);
        assert_eq!(run.result.level_sizes(), vec![4, 4, 1]);
    }

    #[test]
    fn trimmed_tree_phase2_matches_sequential_on_toy() {
        let run = mine_in_memory(&ctx(), &toy(), trimmed_tree(Support::Count(2)));
        let seq = apriori(&toy(), &SequentialConfig::new(Support::Count(2)));
        assert_eq!(run.result, seq);
        assert_eq!(run.result.level_sizes(), vec![4, 4, 1]);
    }

    #[test]
    fn every_phase2_combination_agrees_on_toy() {
        let seq = apriori(&toy(), &SequentialConfig::new(Support::Count(2)));
        for triangle in [false, true] {
            for matcher in [Matcher::HashTree, Matcher::Bitmap] {
                for trim in [false, true] {
                    let mut cfg = YafimConfig::new(Support::Count(2));
                    cfg.phase2 = Phase2Config {
                        triangle_pass2: triangle,
                        matcher,
                        trim,
                        checkpoint_interval: 0,
                    };
                    let run = mine_in_memory(&ctx(), &toy(), cfg);
                    assert_eq!(
                        run.result, seq,
                        "triangle={triangle} matcher={matcher:?} trim={trim}"
                    );
                }
            }
        }
    }

    #[test]
    fn checkpointing_is_invisible_to_results() {
        let seq = apriori(&toy(), &SequentialConfig::new(Support::Count(2)));
        type Cfg = fn(Support) -> YafimConfig;
        let configs: [(&str, Cfg); 3] = [
            ("paper", YafimConfig::new),
            ("trimmed tree", trimmed_tree),
            ("bitmap", YafimConfig::bitmap),
        ];
        for interval in [1, 2] {
            for (name, config) in configs {
                let mut cfg = config(Support::Count(2));
                cfg.phase2.checkpoint_interval = interval;
                let c = ctx();
                let run = mine_in_memory(&c, &toy(), cfg);
                assert_eq!(run.result, seq, "interval={interval} {name}");
                let rec = c.metrics().snapshot().recovery;
                assert!(
                    rec.checkpoint_writes > 0,
                    "interval={interval}: checkpoints must have been written"
                );
                assert_eq!(
                    c.cluster().hdfs().checkpoint_stats().0,
                    0,
                    "stale checkpoint blocks released at run end"
                );
                let stats = c.cache().stats();
                assert_eq!(stats.entries, 0, "no leaked cached partitions");
            }
        }
    }

    #[test]
    fn fault_plan_supplies_checkpoint_cadence() {
        use yafim_cluster::FaultPlan;
        let c = ctx();
        c.cluster()
            .faults()
            .set_plan(FaultPlan::seeded(3).with_checkpoint_interval(1));
        let run = mine_in_memory(&c, &toy(), YafimConfig::new(Support::Count(2)));
        let seq = apriori(&toy(), &SequentialConfig::new(Support::Count(2)));
        assert_eq!(run.result, seq);
        assert!(
            c.metrics().snapshot().recovery.checkpoint_writes > 0,
            "plan-driven cadence must checkpoint without touching the miner config"
        );
    }

    #[test]
    fn pass_timings_recorded() {
        let run = mine_in_memory(&ctx(), &toy(), YafimConfig::new(Support::Count(2)));
        // Passes 1..=3 produce itemsets; pass 4 generates no candidates
        // (single L3 itemset), so exactly 3 timed passes.
        assert_eq!(run.passes.len(), 3);
        assert!(run.passes.iter().all(|p| p.seconds > 0.0));
        assert_eq!(run.passes[0].pass, 1);
        assert!(run.total_seconds >= run.passes.iter().map(|p| p.seconds).sum::<f64>());
    }

    #[test]
    fn trimmed_tree_pass_metadata_matches_paper_engine() {
        let paper = mine_in_memory(&ctx(), &toy(), YafimConfig::new(Support::Count(2)));
        let opt = mine_in_memory(&ctx(), &toy(), trimmed_tree(Support::Count(2)));
        assert_eq!(paper.passes.len(), opt.passes.len());
        for (p, o) in paper.passes.iter().zip(&opt.passes) {
            assert_eq!(
                (p.pass, p.candidates, p.frequent),
                (o.pass, o.candidates, o.frequent)
            );
        }
    }

    #[test]
    fn empty_result_when_support_too_high() {
        let run = mine_in_memory(&ctx(), &toy(), YafimConfig::new(Support::Count(50)));
        assert_eq!(run.result.total(), 0);
        assert_eq!(run.passes.len(), 1, "only the L1 pass runs");
    }

    #[test]
    fn max_passes_truncates() {
        let cfg = YafimConfig {
            max_passes: 2,
            ..YafimConfig::new(Support::Count(2))
        };
        let run = mine_in_memory(&ctx(), &toy(), cfg);
        assert_eq!(run.result.max_len(), 2);
    }

    #[test]
    fn max_passes_truncates_bitmap() {
        let cfg = YafimConfig {
            max_passes: 2,
            ..YafimConfig::bitmap(Support::Count(2))
        };
        let run = mine_in_memory(&ctx(), &toy(), cfg);
        assert_eq!(run.result.max_len(), 2);
    }

    #[test]
    fn fractional_support_resolves_against_dataset() {
        let run = mine_in_memory(&ctx(), &toy(), YafimConfig::new(Support::Fraction(0.5)));
        let seq = apriori(&toy(), &SequentialConfig::new(Support::Count(2)));
        assert_eq!(run.result, seq);
    }

    #[test]
    fn missing_input_errors() {
        let c = ctx();
        let miner = Yafim::new(c, YafimConfig::new(Support::Count(1)));
        assert!(matches!(
            miner.try_mine("no-such-file.dat"),
            Err(ExecError::Dfs(_))
        ));
    }

    #[test]
    fn single_frequent_item_stops_cleanly_when_bitmap() {
        // |L1| = 1: the triangle has no cells and Phase II must exit
        // without running a job (and without leaking cached partitions).
        let tx = vec![vec![7], vec![7, 9], vec![7], vec![7]];
        let c = ctx();
        let run = mine_in_memory(&c, &tx, YafimConfig::bitmap(Support::Count(3)));
        assert_eq!(run.result.level_sizes(), vec![1]);
        assert_eq!(
            c.cache().stats().entries,
            0,
            "all cached partitions released"
        );
    }

    #[test]
    fn trimmed_tree_run_releases_all_cache_memory() {
        let c = ctx();
        let run = mine_in_memory(&c, &toy(), trimmed_tree(Support::Count(2)));
        assert!(run.result.total() > 0);
        let stats = c.cache().stats();
        assert_eq!(stats.entries, 0, "projection/trim replacements unpersisted");
        assert_eq!(stats.used_bytes, 0);
    }

    #[test]
    fn bitmap_run_matches_sequential_and_releases_cache() {
        let c = ctx();
        let run = mine_in_memory(&c, &toy(), YafimConfig::bitmap(Support::Count(2)));
        let seq = apriori(&toy(), &SequentialConfig::new(Support::Count(2)));
        assert_eq!(run.result, seq);
        let reg = c.cluster().registry();
        assert!(
            reg.counter("bitmap.partitions_built").get() > 0,
            "the k=3 pass must have built the columnar store"
        );
        assert!(reg.counter("bitmap.words_intersected").get() > 0);
        assert_eq!(reg.counter("bitmap.fallbacks").get(), 0);
        let stats = c.cache().stats();
        assert_eq!(stats.entries, 0, "columnar blocks unpersisted at run end");
        assert_eq!(stats.used_bytes, 0);
    }

    #[test]
    fn bitmap_pass_metadata_matches_paper_engine() {
        let paper = mine_in_memory(&ctx(), &toy(), YafimConfig::new(Support::Count(2)));
        let bm = mine_in_memory(&ctx(), &toy(), YafimConfig::bitmap(Support::Count(2)));
        assert_eq!(paper.passes.len(), bm.passes.len());
        for (p, b) in paper.passes.iter().zip(&bm.passes) {
            assert_eq!(
                (p.pass, p.candidates, p.frequent),
                (b.pass, b.candidates, b.frequent)
            );
        }
    }

    #[test]
    fn bitmap_arena_over_the_task_budget_steps_down_to_the_hash_tree() {
        use yafim_cluster::FaultPlan;
        // One partition over 8000 four-item windows of a 100-item ring: the
        // columnar arena estimate (100 rows x 126 words) overflows a
        // 192 KiB node's per-task slice, which still admits the job.
        let tx: Vec<Vec<Item>> = (0..8000u32)
            .map(|i| {
                let mut t: Vec<Item> = (0..4).map(|j| (i + j * 17) % 100).collect();
                t.sort_unstable();
                t
            })
            .collect();
        let support = Support::Fraction(0.005);
        let c = ctx();
        c.cluster()
            .faults()
            .set_plan(FaultPlan::seeded(5).with_mem_budget(192 * 1024));
        let limit = c
            .cluster()
            .memory_budget()
            .expect("governor armed")
            .per_task_limit;
        assert!(limit >= SPILL_GRANULE, "the job must be admitted");
        assert!(
            bitmap_footprint(100, tx.len(), 1) > limit,
            "the arena estimate must overflow the per-task limit"
        );
        let lines = tx
            .iter()
            .map(|t| t.iter().map(u32::to_string).collect::<Vec<_>>().join(" "))
            .collect();
        c.cluster().hdfs().put_overwrite("ring.dat", lines);
        let cfg = YafimConfig {
            min_partitions: 1,
            ..YafimConfig::bitmap(support)
        };
        let run = Yafim::new(c.clone(), cfg)
            .try_mine("ring.dat")
            .expect("the step-down keeps the job alive");
        assert_eq!(run.result, apriori(&tx, &SequentialConfig::new(support)));
        assert!(run.result.max_len() >= 3, "k >= 3 passes must run");
        let reg = c.cluster().registry();
        assert!(reg.counter("mem.degradations").get() >= 1);
        assert_eq!(
            reg.counter("bitmap.partitions_built").get(),
            0,
            "the columnar store must never be built"
        );
        assert_eq!(reg.counter("bitmap.fallbacks").get(), 0);
    }

    #[test]
    fn bitmap_virtual_time_not_slower_than_hash_tree_on_dense_data() {
        // A dense workload with deep passes: every k >= 3 pass is pure
        // word-wise counting, which the cost model must see as cheaper
        // than hash-tree descent per transaction.
        let tx: Vec<Vec<Item>> = (0..400)
            .map(|i| {
                let mut t: Vec<Item> = (0..10).map(|j| ((i + j * 3) % 14) as u32).collect();
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect();
        let tree = mine_in_memory(&ctx(), &tx, trimmed_tree(Support::Fraction(0.05)));
        let bm = mine_in_memory(&ctx(), &tx, YafimConfig::bitmap(Support::Fraction(0.05)));
        assert_eq!(tree.result, bm.result);
        assert!(
            bm.result.max_len() >= 3,
            "workload must exercise bitmap passes"
        );
        assert!(
            bm.total_seconds <= tree.total_seconds,
            "bitmap {} s vs hash tree {} s",
            bm.total_seconds,
            tree.total_seconds
        );
    }

    #[test]
    fn later_passes_cheaper_than_first() {
        // With caching, pass 2+ skips the HDFS load; on a non-trivial
        // dataset the first pass dominates.
        let tx: Vec<Vec<Item>> = (0..2000)
            .map(|i| {
                let mut t = vec![1, 2, 3];
                t.push(4 + (i % 7));
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect();
        let run = mine_in_memory(&ctx(), &tx, YafimConfig::new(Support::Fraction(0.9)));
        assert!(run.passes.len() >= 2);
        let last = run.passes.last().expect("has passes");
        assert!(
            last.seconds < run.passes[0].seconds * 2.0,
            "later passes must not blow up: {:?}",
            run.pass_seconds()
        );
    }

    #[test]
    fn trimmed_tree_virtual_time_not_slower_than_paper_engine() {
        // On a pass-2-heavy workload the dense/triangle/trim path must pay
        // off in virtual time too (the cost model sees fewer, cheaper
        // touches).
        let tx: Vec<Vec<Item>> = (0..800)
            .map(|i| {
                let mut t: Vec<Item> = (0..6).map(|j| ((i * 7 + j * 13) % 40) as u32).collect();
                t.sort_unstable();
                t.dedup();
                t
            })
            .collect();
        let paper = mine_in_memory(&ctx(), &tx, YafimConfig::new(Support::Fraction(0.02)));
        let opt = mine_in_memory(&ctx(), &tx, trimmed_tree(Support::Fraction(0.02)));
        assert_eq!(paper.result, opt.result);
        assert!(
            opt.total_seconds <= paper.total_seconds,
            "optimized {} s vs paper {} s",
            opt.total_seconds,
            paper.total_seconds
        );
    }
}
