//! The typed RDD and its narrow operators, executed as fused iterator
//! pipelines.
//!
//! An [`Rdd<T>`] is a handle to an immutable, partitioned, lazily-computed
//! dataset. Transformations build a lineage graph of operator nodes; actions
//! ([`Rdd::collect`], [`Rdd::count`]) hand the graph to the executor in
//! [`crate::exec`], which first materializes any shuffle dependencies
//! (stages) and then computes the final stage.
//!
//! Within one stage, narrow operators do **not** materialize intermediate
//! partitions: [`RddImpl::compute`] returns a [`Pipe`] — a streaming
//! partition that composes `map`/`flat_map`/`filter`/`sample`/`coalesce`/
//! `union` chains into a single pass, exactly like Spark's whole-stage
//! iterator pipelining. Partition buffers exist only at the true pipeline
//! breakers:
//!
//! * **shuffle map-side writes** ([`crate::shuffle`]) — buckets must be
//!   registered for the reduce side,
//! * **cache inserts and reads** ([`crate::cache`]) — a stored partition is
//!   a `Vec` behind an `Arc`; a hit streams straight out of that `Arc`
//!   without copying it,
//! * **driver-fetch actions** ([`crate::exec`]) — results are serialized
//!   and shipped to the driver.
//!
//! The retained naive-eager reference evaluator
//! ([`crate::ExecMode::Eager`]) instead collapses the pipe at *every*
//! operator boundary — one fresh partition buffer per operator, the
//! pre-fusion engine's allocation pattern — and exists to cross-check the
//! fused engine's results and byte accounting, and to measure what fusion
//! saves.
//!
//! Lineage is also the fault-tolerance story, exactly as in the paper's
//! description of Spark: a lost cached partition is simply recomputed from
//! its parents, through the same pipeline path.

use crate::cache::{CacheTier, StorageLevel};
use crate::context::{Context, ExecMode};
use crate::exec;
use crate::shuffle::{ReduceByKeyRdd, ShuffleStage};
use crate::task::TaskContext;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use yafim_cluster::{
    slice_bytes, ByteSize, DfsFile, ExecError, IntegrityCounters, IntegrityTier, NodeId,
    RecoveryCounters, Split, TransientKind,
};

// Persistence state encoding for `RddMeta::persist_level`.
const PERSIST_NONE: u8 = 0;
const PERSIST_MEMORY: u8 = 1;
const PERSIST_MEMORY_AND_DISK: u8 = 2;

/// Marker bound for RDD element types: cheap to clone, shareable across the
/// worker pool, and byte-sizeable for shuffle/cache accounting.
pub trait Data: Clone + Send + Sync + ByteSize + 'static {}
impl<T: Clone + Send + Sync + ByteSize + 'static> Data for T {}

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------

/// One partition's data as it flows through a stage: either already
/// materialized (shared or owned) or a lazy iterator chain borrowing the
/// operator nodes and the [`TaskContext`] for the duration of the task.
pub(crate) enum Pipe<'a, T: Data> {
    /// A stable buffer shared with the cache or the driver (cache hits,
    /// `parallelize` chunks). Elements are cloned lazily as they are pulled.
    Shared(Arc<Vec<T>>),
    /// A buffer this task owns (breaker outputs like the shuffle reduce
    /// side, or `map_partitions` closure results). Elements move out.
    Owned(Vec<T>),
    /// A fused chain of narrow operators: nothing is computed until the
    /// consumer pulls.
    Iter(Box<dyn Iterator<Item = T> + 'a>),
}

impl<'a, T: Data> Pipe<'a, T> {
    /// Drain into a fresh `Vec`, charging `bytes_materialized` whenever the
    /// engine copies elements into a new buffer (a lazy chain collapsing, or
    /// a shared buffer being deep-cloned by the eager reference evaluator).
    /// An owned buffer passes through for free — no copy happens.
    pub(crate) fn into_vec(self, tc: &TaskContext) -> Vec<T> {
        match self {
            Pipe::Shared(a) => {
                let v: Vec<T> = a.iter().cloned().collect();
                tc.note_materialized(slice_bytes(&v));
                v
            }
            Pipe::Owned(v) => v,
            Pipe::Iter(it) => {
                let v: Vec<T> = it.collect();
                tc.note_materialized(slice_bytes(&v));
                v
            }
        }
    }

    /// Collapse to a shared partition buffer (a breaker), reusing the
    /// allocation when the data is already materialized.
    pub(crate) fn into_arc(self, tc: &TaskContext) -> Arc<Vec<T>> {
        match self {
            Pipe::Shared(a) => a,
            Pipe::Owned(v) => Arc::new(v),
            Pipe::Iter(it) => {
                let v: Vec<T> = it.collect();
                tc.note_materialized(slice_bytes(&v));
                Arc::new(v)
            }
        }
    }

    /// Hand the whole partition to `f` as a slice (for `map_partitions`).
    /// Zero-copy when the data is already materialized — in particular, a
    /// cache hit passes the cached buffer itself, which is the YAFIM Phase
    /// II hot path.
    pub(crate) fn with_slice<R>(self, tc: &TaskContext, f: impl FnOnce(&[T]) -> R) -> R {
        match self {
            Pipe::Shared(a) => f(&a),
            Pipe::Owned(v) => f(&v),
            Pipe::Iter(it) => {
                let v: Vec<T> = it.collect();
                tc.note_materialized(slice_bytes(&v));
                f(&v)
            }
        }
    }

    /// Number of elements, consuming the pipe. Already-materialized buffers
    /// answer without touching elements; a lazy chain is drained (the
    /// upstream work still runs, and still gets counted).
    pub(crate) fn count(self) -> u64 {
        match self {
            Pipe::Shared(a) => a.len() as u64,
            Pipe::Owned(v) => v.len() as u64,
            Pipe::Iter(it) => it.count() as u64,
        }
    }
}

/// Streaming element source for a [`Pipe`].
pub(crate) enum PipeIter<'a, T: Data> {
    Shared(Arc<Vec<T>>, usize),
    Owned(std::vec::IntoIter<T>),
    Boxed(Box<dyn Iterator<Item = T> + 'a>),
}

impl<'a, T: Data> IntoIterator for Pipe<'a, T> {
    type Item = T;
    type IntoIter = PipeIter<'a, T>;
    fn into_iter(self) -> PipeIter<'a, T> {
        match self {
            Pipe::Shared(a) => PipeIter::Shared(a, 0),
            Pipe::Owned(v) => PipeIter::Owned(v.into_iter()),
            Pipe::Iter(b) => PipeIter::Boxed(b),
        }
    }
}

impl<T: Data> Iterator for PipeIter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        match self {
            PipeIter::Shared(a, i) => {
                let item = a.get(*i).cloned();
                if item.is_some() {
                    *i += 1;
                }
                item
            }
            PipeIter::Owned(it) => it.next(),
            PipeIter::Boxed(it) => it.next(),
        }
    }
}

/// Counts elements pulled from the upstream pipe and flushes the count as
/// this operator's `records_in` when the pipeline is dropped (end of task).
/// Totals match the eager evaluator's bulk `add_records_in(len)` whenever
/// the pipe is fully drained; an incremental `take` legitimately counts
/// fewer — only what it actually pulled.
pub(crate) struct CountPulled<'a, I> {
    inner: I,
    tc: &'a TaskContext,
    n: u64,
}

impl<'a, I> CountPulled<'a, I> {
    pub(crate) fn new(inner: I, tc: &'a TaskContext) -> Self {
        CountPulled { inner, tc, n: 0 }
    }
}

impl<I: Iterator> Iterator for CountPulled<'_, I> {
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next();
        if item.is_some() {
            self.n += 1;
        }
        item
    }
}

impl<I> Drop for CountPulled<'_, I> {
    fn drop(&mut self) {
        self.tc.add_records_in(self.n);
    }
}

/// Counts elements an operator emits downstream and flushes the count as
/// its `records_out` on drop. See [`CountPulled`].
pub(crate) struct CountProduced<'a, I> {
    inner: I,
    tc: &'a TaskContext,
    n: u64,
}

impl<'a, I> CountProduced<'a, I> {
    pub(crate) fn new(inner: I, tc: &'a TaskContext) -> Self {
        CountProduced { inner, tc, n: 0 }
    }
}

impl<I: Iterator> Iterator for CountProduced<'_, I> {
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next();
        if item.is_some() {
            self.n += 1;
        }
        item
    }
}

impl<I> Drop for CountProduced<'_, I> {
    fn drop(&mut self) {
        self.tc.add_records_out(self.n);
    }
}

/// Identity and bookkeeping shared by every operator node.
pub(crate) struct RddMeta {
    pub(crate) id: u64,
    pub(crate) ctx: Context,
    persist_level: AtomicU8,
}

impl RddMeta {
    pub(crate) fn new(ctx: &Context) -> Self {
        RddMeta {
            id: ctx.new_id(),
            ctx: ctx.clone(),
            persist_level: AtomicU8::new(PERSIST_NONE),
        }
    }

    fn level(&self) -> Option<StorageLevel> {
        match self.persist_level.load(Ordering::Relaxed) {
            PERSIST_MEMORY => Some(StorageLevel::MemoryOnly),
            PERSIST_MEMORY_AND_DISK => Some(StorageLevel::MemoryAndDisk),
            _ => None,
        }
    }

    fn set_level(&self, level: Option<StorageLevel>) {
        let v = match level {
            None => PERSIST_NONE,
            Some(StorageLevel::MemoryOnly) => PERSIST_MEMORY,
            Some(StorageLevel::MemoryAndDisk) => PERSIST_MEMORY_AND_DISK,
        };
        self.persist_level.store(v, Ordering::Relaxed);
    }
}

/// Internal operator-node interface. One implementation per operator.
pub(crate) trait RddImpl<T: Data>: Send + Sync + 'static {
    /// Identity/bookkeeping.
    fn meta(&self) -> &RddMeta;
    /// Number of partitions.
    fn num_partitions(&self) -> usize;
    /// Locality preference for a partition, if any.
    fn preferred_node(&self, part: usize) -> Option<NodeId>;
    /// Produce one partition as a streaming pipe, from scratch (never
    /// consults the cache — that is [`materialize`]'s job). Narrow
    /// operators return a lazy chain over their parent's pipe; breakers
    /// return materialized buffers.
    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T>;
    /// Append the shuffle stages this lineage depends on (nearest only; each
    /// stage pulls in its own ancestors when prepared).
    fn collect_shuffle_deps(&self, out: &mut Vec<Arc<dyn ShuffleStage>>);
    /// Id of the shuffle whose output the stage computing this RDD reads,
    /// if any. Narrow operators delegate to their parent (they pipeline into
    /// the same stage); shuffle boundaries and sources stop the walk.
    fn shuffle_read_id(&self) -> Option<u64> {
        None
    }
    /// Number of operator nodes a from-scratch recomputation of this RDD
    /// replays within its stage: 1 for sources and stage boundaries
    /// (shuffle reads, checkpoint reads — recovery restarts from their
    /// materialized output), parent + 1 for narrow operators. This is the
    /// "lineage replay depth" the recovery counters report, and what
    /// checkpointing truncates.
    fn lineage_len(&self) -> u64 {
        1
    }
    /// Verify, before a job runs, that a clean copy of every replicated
    /// source partition is reachable under the active corruption plan.
    /// Replicated sources (HDFS files, checkpoint blocks) check that at
    /// least one replica per partition passes checksum verification; narrow
    /// operators delegate to their parents. When every replica of a
    /// partition is poisoned and the lineage was truncated there is nothing
    /// left to replay — the job must fail typed
    /// ([`ExecError::IntegrityFailure`]) rather than ever
    /// return wrong results. Driver-resident sources have nothing to check.
    fn preflight(&self) -> Result<(), ExecError> {
        Ok(())
    }
}

/// The node a partition's task runs on: its locality preference, or its
/// round-robin home.
pub(crate) fn node_for<T: Data>(imp: &Arc<dyn RddImpl<T>>, part: usize) -> NodeId {
    imp.preferred_node(part)
        .unwrap_or_else(|| imp.meta().ctx.cluster().spec().home_node(part))
}

/// Integer microseconds to fx-hash64-checksum `bytes` under the cluster's
/// cost model. Integrity overhead (write-time checksumming, read-time
/// verification, repair) only exists when a corruption plan is active, so
/// it is charged as task stall time and lands in the `fault_stall`
/// critical-path bucket — fault-free timelines stay byte-identical.
pub(crate) fn checksum_micros(ctx: &Context, bytes: u64) -> u64 {
    (ctx.cluster().cost().checksum(bytes).as_secs() * 1e6) as u64
}

/// Produce a partition's pipe, going through the cache when the RDD is
/// marked cached: hit → charge a memory scan and stream out of the stored
/// `Arc` without copying it; miss → compute via lineage, collapse the pipe
/// (a cache insert is a breaker), and store on the partition's home node
/// (possibly evicting LRU entries).
///
/// Under [`ExecMode::Eager`] the pipe is additionally collapsed to a fresh
/// buffer at *this* operator boundary, reproducing the pre-fusion engine's
/// per-operator allocation pattern.
pub(crate) fn materialize<'a, T: Data>(
    imp: &'a Arc<dyn RddImpl<T>>,
    part: usize,
    tc: &'a TaskContext,
) -> Pipe<'a, T> {
    let meta = imp.meta();
    let eager = meta.ctx.exec_mode() == ExecMode::Eager;
    let Some(level) = meta.level() else {
        let pipe = imp.compute(part, tc);
        return if eager {
            Pipe::Shared(Arc::new(pipe.into_vec(tc)))
        } else {
            pipe
        };
    };
    if let Some((data, bytes, tier)) = meta.ctx.cache().get::<T>(meta.id, part) {
        let faults = meta.ctx.cluster().faults();
        let rotten = if faults.integrity_active() {
            // Verify the stored block's checksum before trusting it.
            tc.add_stall_micros(checksum_micros(&meta.ctx, bytes));
            faults.take_corruption(IntegrityTier::Cache, meta.id, part, 0)
        } else {
            false
        };
        match tier {
            CacheTier::Memory => tc.add_mem_read(bytes),
            CacheTier::Disk => tc.add_disk_read(bytes),
        }
        if !rotten {
            tc.note_cache_hit();
            tc.note_records_read(data.len() as u64);
            return Pipe::Shared(data);
        }
        // Checksum mismatch on a cached/spilled partition. Cached blocks
        // have no replicas, so the cheapest (and only) repair is lineage
        // recompute: evict the poisoned entry and fall through to the miss
        // path below, which recomputes and re-caches a clean copy.
        meta.ctx.cache().evict(meta.id, part);
        meta.ctx.metrics().note_recovery(&RecoveryCounters {
            recomputed_partitions: 1,
            integrity: IntegrityCounters {
                corruptions_injected: 1,
                corruptions_detected: 1,
                corruptions_repaired: 1,
                repaired_via_recompute: 1,
                ..IntegrityCounters::default()
            },
            ..RecoveryCounters::default()
        });
    }
    tc.note_cache_miss();
    if meta.ctx.cache().take_lost(meta.id, part) {
        // This miss recomputes a partition a node loss destroyed: the whole
        // narrow chain down to the nearest stable input (source, shuffle or
        // checkpoint) replays. Report how deep that replay went.
        meta.ctx.metrics().note_recovery(&RecoveryCounters {
            max_replay_depth: imp.lineage_len(),
            ..RecoveryCounters::default()
        });
    }
    let data = Arc::new(imp.compute(part, tc).into_vec(tc));
    tc.note_records_written(data.len() as u64);
    let bytes = 8 + slice_bytes(&data);
    let node = node_for(imp, part).index();
    meta.ctx
        .cache()
        .put(meta.id, part, node, Arc::clone(&data), bytes, level);
    if meta.ctx.cluster().faults().integrity_active() {
        // Checksum the block at write time so later reads can verify it.
        tc.add_stall_micros(checksum_micros(&meta.ctx, bytes));
    }
    Pipe::Shared(data)
}

/// A resilient distributed dataset: the public handle. Cheap to clone.
pub struct Rdd<T: Data> {
    pub(crate) ctx: Context,
    pub(crate) imp: Arc<dyn RddImpl<T>>,
}

impl<T: Data> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            ctx: self.ctx.clone(),
            imp: Arc::clone(&self.imp),
        }
    }
}

impl<T: Data> Rdd<T> {
    pub(crate) fn from_impl(ctx: Context, imp: Arc<dyn RddImpl<T>>) -> Self {
        Rdd { ctx, imp }
    }

    /// Unique id of this RDD in its context (used by fault injection).
    pub fn id(&self) -> u64 {
        self.imp.meta().id
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.imp.num_partitions()
    }

    /// The driver context this RDD belongs to.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Mark this RDD for in-memory caching: the first materialization of
    /// each partition stores it on the partition's home node; later reads
    /// hit memory instead of recomputing the lineage. Equivalent to
    /// `persist(StorageLevel::MemoryOnly)` (Spark's default, what the paper
    /// uses for the transactions RDD).
    pub fn cache(&self) -> Rdd<T> {
        self.persist(StorageLevel::MemoryOnly)
    }

    /// Mark this RDD for persistence at an explicit [`StorageLevel`].
    pub fn persist(&self, level: StorageLevel) -> Rdd<T> {
        self.imp.meta().set_level(Some(level));
        self.clone()
    }

    /// Drop cached partitions (both tiers) and stop caching.
    pub fn unpersist(&self) {
        self.imp.meta().set_level(None);
        self.ctx.cache().evict_rdd(self.id());
    }

    /// Materialize this RDD to replicated simulated HDFS and return a new
    /// RDD reading from the checkpoint, with its lineage truncated: the
    /// returned RDD has no ancestors, so recovery after a node loss re-reads
    /// the replicated blocks instead of replaying the chain that produced
    /// them. This is Spark's *eager* `checkpoint()` (compute-now, as
    /// `localCheckpoint`/`checkpoint`+action does), run as one job whose
    /// write stage is attributed to `EventKind::Checkpoint`.
    ///
    /// Panics if the checkpoint job aborts under an active fault plan; use
    /// [`Rdd::try_checkpoint`] for the fallible variant.
    pub fn checkpoint(&self) -> Rdd<T> {
        self.try_checkpoint().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Rdd::checkpoint`]; see [`Rdd::try_collect`].
    pub fn try_checkpoint(&self) -> Result<Rdd<T>, ExecError> {
        exec::try_checkpoint(self)
    }

    /// Drop this RDD's checkpoint blocks from simulated HDFS (cleanup once
    /// a newer checkpoint supersedes it). A no-op for RDDs that are not
    /// checkpoint readers.
    pub fn discard_checkpoint(&self) -> usize {
        self.ctx
            .cluster()
            .hdfs()
            .checkpoint_remove(self.imp.meta().id)
    }

    /// Transform every element.
    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Rdd<U> {
        let imp = Arc::new(MapRdd {
            meta: RddMeta::new(&self.ctx),
            parent: Arc::clone(&self.imp),
            f: Arc::new(f),
        });
        Rdd::from_impl(self.ctx.clone(), imp)
    }

    /// Transform every element into zero or more elements.
    pub fn flat_map<U: Data, I>(&self, f: impl Fn(T) -> I + Send + Sync + 'static) -> Rdd<U>
    where
        I: IntoIterator<Item = U>,
    {
        let g = move |t: T| f(t).into_iter().collect::<Vec<U>>();
        let imp = Arc::new(FlatMapRdd {
            meta: RddMeta::new(&self.ctx),
            parent: Arc::clone(&self.imp),
            f: Arc::new(g),
        });
        Rdd::from_impl(self.ctx.clone(), imp)
    }

    /// Keep only elements satisfying the predicate.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        let imp = Arc::new(FilterRdd {
            meta: RddMeta::new(&self.ctx),
            parent: Arc::clone(&self.imp),
            f: Arc::new(f),
        });
        Rdd::from_impl(self.ctx.clone(), imp)
    }

    /// Transform a whole partition at once, with access to the
    /// [`TaskContext`] for custom CPU-work accounting (YAFIM uses this for
    /// hash-tree traversal counting). The closure sees the partition as one
    /// slice, so this operator collapses a lazy upstream chain — but a
    /// cached parent streams its stored buffer in zero-copy.
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(&[T], &TaskContext) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        let imp = Arc::new(MapPartitionsRdd {
            meta: RddMeta::new(&self.ctx),
            parent: Arc::clone(&self.imp),
            f: Arc::new(f),
        });
        Rdd::from_impl(self.ctx.clone(), imp)
    }

    /// Concatenate two RDDs (partitions of `self` first).
    pub fn union(&self, other: &Rdd<T>) -> Rdd<T> {
        let imp = Arc::new(UnionRdd {
            meta: RddMeta::new(&self.ctx),
            parents: vec![Arc::clone(&self.imp), Arc::clone(&other.imp)],
        });
        Rdd::from_impl(self.ctx.clone(), imp)
    }

    /// Action: gather every element to the driver, in partition order.
    ///
    /// Panics if the job aborts under an active fault plan; use
    /// [`Rdd::try_collect`] to handle that case.
    pub fn collect(&self) -> Vec<T> {
        self.try_collect().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible `collect`: a job can abort when an active
    /// [`yafim_cluster::FaultPlan`] exhausts a task's retry budget.
    pub fn try_collect(&self) -> Result<Vec<T>, ExecError> {
        exec::try_collect(self)
    }

    /// Action: number of elements.
    ///
    /// Panics if the job aborts under an active fault plan; use
    /// [`Rdd::try_count`] to handle that case.
    pub fn count(&self) -> u64 {
        self.try_count().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible `count`; see [`Rdd::try_collect`].
    pub fn try_count(&self) -> Result<u64, ExecError> {
        exec::try_count(self)
    }

    /// Action: the first `n` elements in partition order, computed
    /// incrementally: each task stops pulling from its partition's pipeline
    /// once `n` elements are gathered, and later partitions are only
    /// scheduled (in exponentially growing batches, as in Spark) when the
    /// earlier ones under-fill.
    ///
    /// Panics if the job aborts under an active fault plan; use
    /// [`Rdd::try_take`] for the fallible variant.
    pub fn take(&self, n: usize) -> Vec<T> {
        self.try_take(n).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible `take`; see [`Rdd::try_collect`].
    pub fn try_take(&self, n: usize) -> Result<Vec<T>, ExecError> {
        exec::try_take(self, n)
    }
}

impl<K, V> Rdd<(K, V)>
where
    K: Data + Hash + Eq,
    V: Data,
{
    /// Shuffle: combine values per key with `f`, map-side combining first.
    /// Output has as many partitions as the parent.
    pub fn reduce_by_key(&self, f: impl Fn(V, V) -> V + Send + Sync + 'static) -> Rdd<(K, V)> {
        self.reduce_by_key_with_partitions(f, self.num_partitions())
    }

    /// [`Rdd::reduce_by_key`] with an explicit reduce-partition count.
    pub fn reduce_by_key_with_partitions(
        &self,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
        partitions: usize,
    ) -> Rdd<(K, V)> {
        let imp = ReduceByKeyRdd::new(
            &self.ctx,
            Arc::clone(&self.imp),
            Arc::new(f),
            partitions.max(1),
        );
        Rdd::from_impl(self.ctx.clone(), imp)
    }
}

// ---------------------------------------------------------------------------
// Operator nodes
// ---------------------------------------------------------------------------

/// Source: an in-memory collection pre-chunked on the driver. Each chunk is
/// behind its own `Arc`, so computing a partition shares the driver's buffer
/// with the pipeline instead of cloning it.
pub(crate) struct ParallelizeRdd<T: Data> {
    pub(crate) meta: RddMeta,
    pub(crate) chunks: Vec<Arc<Vec<T>>>,
}

impl<T: Data> RddImpl<T> for ParallelizeRdd<T> {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.chunks.len()
    }

    fn preferred_node(&self, _part: usize) -> Option<NodeId> {
        None
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T> {
        let chunk = &self.chunks[part];
        // The driver ships the whole chunk to the worker on every compute,
        // regardless of how much of it the pipeline ends up pulling.
        tc.add_net(slice_bytes(chunk));
        tc.add_records_out(chunk.len() as u64);
        tc.note_records_read(chunk.len() as u64);
        Pipe::Shared(Arc::clone(chunk))
    }

    fn collect_shuffle_deps(&self, _out: &mut Vec<Arc<dyn ShuffleStage>>) {}
}

/// Walk the seeded transient ladder for an HDFS-backed partition read
/// (text-file split or checkpoint block). Each retry re-fetches the full
/// `bytes` from a replica over the network, the accumulated backoff stalls
/// the task, and an escalation pays one final read from a *different*
/// replica. Failure here never loses data — replication absorbs it — so
/// nothing is recomputed; the ladder only costs virtual time.
pub(crate) fn charge_transient_hdfs_read(
    ctx: &Context,
    tc: &TaskContext,
    id: u64,
    part: usize,
    bytes: u64,
) {
    let t = ctx
        .cluster()
        .faults()
        .transient(TransientKind::HdfsRead, id, part);
    if !t.any() {
        return;
    }
    for _ in 0..t.retries {
        tc.add_net(bytes);
    }
    tc.add_stall_micros(t.backoff_micros);
    if t.escalated {
        tc.add_net(bytes);
    }
    ctx.metrics().note_recovery(&RecoveryCounters {
        fetch_retries: t.retries,
        backoff_micros: t.backoff_micros,
        fetch_failures: if t.escalated { 1 } else { 0 },
        ..RecoveryCounters::default()
    });
}

/// Source: a text file in simulated HDFS, one element per line. Streams the
/// split's lines straight out of the DFS block, cloning per pulled line.
pub(crate) struct HdfsTextRdd {
    pub(crate) meta: RddMeta,
    pub(crate) file: DfsFile,
    pub(crate) splits: Vec<Split>,
}

impl HdfsTextRdd {
    /// Replica count of the block enclosing `split` — the copies a
    /// verifying reader can fall back to when one fails its checksum.
    fn split_replicas(&self, split: &Split) -> u32 {
        self.file
            .blocks()
            .iter()
            .find(|b| b.lines.start <= split.lines.start && split.lines.start < b.lines.end)
            .map(|b| b.replicas.len())
            .unwrap_or(1)
            .max(1) as u32
    }
}

impl RddImpl<String> for HdfsTextRdd {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.splits.len()
    }

    fn preferred_node(&self, part: usize) -> Option<NodeId> {
        Some(self.splits[part].preferred_node)
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, String> {
        let split = &self.splits[part];
        if split.preferred_node == tc.node {
            tc.add_disk_read(split.bytes);
        } else {
            // Non-local read: the bytes cross the network from a replica.
            tc.add_net(split.bytes);
        }
        charge_transient_hdfs_read(&self.meta.ctx, tc, self.meta.id, part, split.bytes);
        let faults = self.meta.ctx.cluster().faults();
        if faults.integrity_active() {
            // Verify the fetched replica's checksum; a mismatch repairs by
            // re-fetching from the next replica (and rewriting the rotten
            // copy clean), walking the replica set until one verifies.
            // Preflight guarantees at least one clean copy exists.
            for copy in 0..self.split_replicas(split) {
                tc.add_stall_micros(checksum_micros(&self.meta.ctx, split.bytes));
                if faults.take_corruption(IntegrityTier::Hdfs, self.meta.id, part, copy) {
                    tc.add_net(split.bytes);
                    self.meta.ctx.metrics().note_recovery(&RecoveryCounters {
                        integrity: IntegrityCounters {
                            corruptions_injected: 1,
                            corruptions_detected: 1,
                            corruptions_repaired: 1,
                            repaired_via_replica: 1,
                            ..IntegrityCounters::default()
                        },
                        ..RecoveryCounters::default()
                    });
                } else {
                    break;
                }
            }
        }
        let lines = &self.file.lines()[split.lines.clone()];
        tc.add_records_out(lines.len() as u64);
        tc.note_records_read(lines.len() as u64);
        Pipe::Iter(Box::new(lines.iter().cloned()))
    }

    fn collect_shuffle_deps(&self, _out: &mut Vec<Arc<dyn ShuffleStage>>) {}

    fn preflight(&self) -> Result<(), ExecError> {
        let faults = self.meta.ctx.cluster().faults();
        if !faults.integrity_active() {
            return Ok(());
        }
        for (part, split) in self.splits.iter().enumerate() {
            let replicas = self.split_replicas(split);
            let all_rotten = (0..replicas)
                .all(|copy| faults.corrupted(IntegrityTier::Hdfs, self.meta.id, part, copy));
            if all_rotten {
                return Err(ExecError::IntegrityFailure {
                    detail: format!(
                        "hdfs file `{}` rdd{} split {part}: all {replicas} replicas failed \
                         checksum verification — no clean copy reachable",
                        self.file.name(),
                        self.meta.id
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Source: an RDD materialized to simulated HDFS by [`Rdd::checkpoint`].
/// Its partitions are read back from replicated checkpoint blocks, and its
/// lineage is *empty* — `collect_shuffle_deps` reports nothing and
/// `lineage_len` is 1, so recovery after a loss re-reads the checkpoint
/// instead of replaying the ancestor chain. This is the truncation.
pub(crate) struct CheckpointRdd<T: Data> {
    pub(crate) meta: RddMeta,
    partitions: usize,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Data> CheckpointRdd<T> {
    pub(crate) fn new(ctx: &Context, partitions: usize) -> Self {
        CheckpointRdd {
            meta: RddMeta::new(ctx),
            partitions,
            _elem: PhantomData,
        }
    }
}

impl<T: Data> RddImpl<T> for CheckpointRdd<T> {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.partitions
    }

    fn preferred_node(&self, part: usize) -> Option<NodeId> {
        // The primary replica — wherever it lives *now* (a node loss can
        // drop the original primary, promoting the next replica).
        self.meta
            .ctx
            .cluster()
            .hdfs()
            .checkpoint_get(self.meta.id, part)
            .and_then(|b| b.replicas.first().copied())
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T> {
        let ctx = &self.meta.ctx;
        let block = ctx
            .cluster()
            .hdfs()
            .checkpoint_get(self.meta.id, part)
            .unwrap_or_else(|| {
                panic!(
                    "checkpoint rdd{} partition {part}: all replicas lost \
                     (lineage was truncated, nothing left to replay)",
                    self.meta.id
                )
            });
        let data: Arc<Vec<T>> = match block.data.downcast() {
            Ok(d) => d,
            Err(_) => panic!(
                "checkpoint rdd{} partition {part}: type mismatch",
                self.meta.id
            ),
        };
        if block.replicas.contains(&tc.node) {
            tc.add_disk_read(block.bytes);
        } else {
            tc.add_net(block.bytes);
        }
        tc.add_ser(block.bytes); // deserialize the stored block
        charge_transient_hdfs_read(ctx, tc, self.meta.id, part, block.bytes);
        let faults = ctx.cluster().faults();
        if faults.integrity_active() {
            // Verify the fetched replica; on mismatch re-fetch from the
            // next replica (rewriting the rotten copy clean) until one
            // verifies. Preflight guarantees a clean copy exists — the
            // all-poisoned case fails the job typed before this stage runs.
            for copy in 0..block.replicas.len().max(1) as u32 {
                tc.add_stall_micros(checksum_micros(ctx, block.bytes));
                if faults.take_corruption(IntegrityTier::Hdfs, self.meta.id, part, copy) {
                    tc.add_net(block.bytes);
                    ctx.metrics().note_recovery(&RecoveryCounters {
                        integrity: IntegrityCounters {
                            corruptions_injected: 1,
                            corruptions_detected: 1,
                            corruptions_repaired: 1,
                            repaired_via_replica: 1,
                            ..IntegrityCounters::default()
                        },
                        ..RecoveryCounters::default()
                    });
                } else {
                    break;
                }
            }
        }
        ctx.metrics().note_recovery(&RecoveryCounters {
            checkpoint_reads: 1,
            ..RecoveryCounters::default()
        });
        tc.add_records_out(data.len() as u64);
        tc.note_records_read(data.len() as u64);
        Pipe::Shared(data)
    }

    fn collect_shuffle_deps(&self, _out: &mut Vec<Arc<dyn ShuffleStage>>) {}

    fn preflight(&self) -> Result<(), ExecError> {
        let faults = self.meta.ctx.cluster().faults();
        if !faults.integrity_active() {
            return Ok(());
        }
        let hdfs = self.meta.ctx.cluster().hdfs();
        for part in 0..self.partitions {
            // A missing block (every replica's node died) keeps its existing
            // panic-on-read behaviour; preflight only vets blocks that are
            // still present but may be silently rotten.
            let Some(block) = hdfs.checkpoint_get(self.meta.id, part) else {
                continue;
            };
            let replicas = block.replicas.len().max(1) as u32;
            let all_rotten = (0..replicas)
                .all(|copy| faults.corrupted(IntegrityTier::Hdfs, self.meta.id, part, copy));
            if all_rotten {
                return Err(ExecError::IntegrityFailure {
                    detail: format!(
                        "checkpoint rdd{} partition {part}: all {replicas} replicas failed \
                         checksum verification and lineage was truncated — nothing left to \
                         replay",
                        self.meta.id
                    ),
                });
            }
        }
        Ok(())
    }
}

pub(crate) struct MapRdd<P: Data, T: Data> {
    meta: RddMeta,
    parent: Arc<dyn RddImpl<P>>,
    f: Arc<dyn Fn(P) -> T + Send + Sync>,
}

impl<P: Data, T: Data> RddImpl<T> for MapRdd<P, T> {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn preferred_node(&self, part: usize) -> Option<NodeId> {
        self.parent.preferred_node(part)
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T> {
        let f = Arc::clone(&self.f);
        let inp = CountPulled::new(materialize(&self.parent, part, tc).into_iter(), tc);
        Pipe::Iter(Box::new(CountProduced::new(inp.map(move |p| f(p)), tc)))
    }

    fn collect_shuffle_deps(&self, out: &mut Vec<Arc<dyn ShuffleStage>>) {
        self.parent.collect_shuffle_deps(out);
    }

    fn shuffle_read_id(&self) -> Option<u64> {
        self.parent.shuffle_read_id()
    }

    fn lineage_len(&self) -> u64 {
        self.parent.lineage_len() + 1
    }

    fn preflight(&self) -> Result<(), ExecError> {
        self.parent.preflight()
    }
}

pub(crate) struct FlatMapRdd<P: Data, T: Data> {
    meta: RddMeta,
    parent: Arc<dyn RddImpl<P>>,
    f: Arc<dyn Fn(P) -> Vec<T> + Send + Sync>,
}

impl<P: Data, T: Data> RddImpl<T> for FlatMapRdd<P, T> {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn preferred_node(&self, part: usize) -> Option<NodeId> {
        self.parent.preferred_node(part)
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T> {
        let f = Arc::clone(&self.f);
        let inp = CountPulled::new(materialize(&self.parent, part, tc).into_iter(), tc);
        Pipe::Iter(Box::new(CountProduced::new(
            inp.flat_map(move |p| f(p)),
            tc,
        )))
    }

    fn collect_shuffle_deps(&self, out: &mut Vec<Arc<dyn ShuffleStage>>) {
        self.parent.collect_shuffle_deps(out);
    }

    fn shuffle_read_id(&self) -> Option<u64> {
        self.parent.shuffle_read_id()
    }

    fn lineage_len(&self) -> u64 {
        self.parent.lineage_len() + 1
    }

    fn preflight(&self) -> Result<(), ExecError> {
        self.parent.preflight()
    }
}

pub(crate) struct FilterRdd<T: Data> {
    meta: RddMeta,
    parent: Arc<dyn RddImpl<T>>,
    f: Arc<dyn Fn(&T) -> bool + Send + Sync>,
}

impl<T: Data> RddImpl<T> for FilterRdd<T> {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn preferred_node(&self, part: usize) -> Option<NodeId> {
        self.parent.preferred_node(part)
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T> {
        let f = Arc::clone(&self.f);
        let inp = CountPulled::new(materialize(&self.parent, part, tc).into_iter(), tc);
        Pipe::Iter(Box::new(CountProduced::new(inp.filter(move |t| f(t)), tc)))
    }

    fn collect_shuffle_deps(&self, out: &mut Vec<Arc<dyn ShuffleStage>>) {
        self.parent.collect_shuffle_deps(out);
    }

    fn shuffle_read_id(&self) -> Option<u64> {
        self.parent.shuffle_read_id()
    }

    fn lineage_len(&self) -> u64 {
        self.parent.lineage_len() + 1
    }

    fn preflight(&self) -> Result<(), ExecError> {
        self.parent.preflight()
    }
}

pub(crate) struct MapPartitionsRdd<P: Data, T: Data> {
    meta: RddMeta,
    parent: Arc<dyn RddImpl<P>>,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&[P], &TaskContext) -> Vec<T> + Send + Sync>,
}

impl<P: Data, T: Data> RddImpl<T> for MapPartitionsRdd<P, T> {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn preferred_node(&self, part: usize) -> Option<NodeId> {
        self.parent.preferred_node(part)
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T> {
        let input = materialize(&self.parent, part, tc);
        let out = input.with_slice(tc, |s| {
            tc.add_records_in(s.len() as u64);
            (self.f)(s, tc)
        });
        tc.add_records_out(out.len() as u64);
        Pipe::Owned(out)
    }

    fn collect_shuffle_deps(&self, out: &mut Vec<Arc<dyn ShuffleStage>>) {
        self.parent.collect_shuffle_deps(out);
    }

    fn shuffle_read_id(&self) -> Option<u64> {
        self.parent.shuffle_read_id()
    }

    fn lineage_len(&self) -> u64 {
        self.parent.lineage_len() + 1
    }

    fn preflight(&self) -> Result<(), ExecError> {
        self.parent.preflight()
    }
}

pub(crate) struct UnionRdd<T: Data> {
    meta: RddMeta,
    parents: Vec<Arc<dyn RddImpl<T>>>,
}

impl<T: Data> UnionRdd<T> {
    /// Map a union partition index to `(parent, parent-local partition)`.
    fn locate(&self, part: usize) -> (&Arc<dyn RddImpl<T>>, usize) {
        let mut p = part;
        for parent in &self.parents {
            if p < parent.num_partitions() {
                return (parent, p);
            }
            p -= parent.num_partitions();
        }
        panic!("union partition {part} out of range");
    }
}

impl<T: Data> RddImpl<T> for UnionRdd<T> {
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.parents.iter().map(|p| p.num_partitions()).sum()
    }

    fn preferred_node(&self, part: usize) -> Option<NodeId> {
        let (parent, local) = self.locate(part);
        parent.preferred_node(local)
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, T> {
        let (parent, local) = self.locate(part);
        Pipe::Iter(Box::new(CountPulled::new(
            materialize(parent, local, tc).into_iter(),
            tc,
        )))
    }

    fn collect_shuffle_deps(&self, out: &mut Vec<Arc<dyn ShuffleStage>>) {
        for p in &self.parents {
            p.collect_shuffle_deps(out);
        }
    }

    fn lineage_len(&self) -> u64 {
        self.parents
            .iter()
            .map(|p| p.lineage_len())
            .max()
            .unwrap_or(0)
            + 1
    }

    fn preflight(&self) -> Result<(), ExecError> {
        for p in &self.parents {
            p.preflight()?;
        }
        Ok(())
    }
}
