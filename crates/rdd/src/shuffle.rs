//! Shuffle machinery: `reduceByKey` and the registry of materialized map
//! outputs.
//!
//! A [`ReduceByKeyRdd`] is both an RDD (its partitions are the reduce side)
//! and a [`ShuffleStage`] (the map side that must run first). The executor
//! collects the shuffle stages in a lineage, prepares them bottom-up, and
//! only then computes the consuming stage — exactly Spark's DAG scheduler
//! split at shuffle boundaries.
//!
//! The shuffle carries *real* data: map tasks hash-partition their map-side
//! combined output into buckets held in the [`ShuffleRegistry`]; reduce tasks
//! merge the buckets. Virtual costs: map side pays serialization plus a local
//! shuffle-file write; reduce side pays fetch (1/nodes local disk, the rest
//! network), deserialization, and the merge CPU.
//!
//! Map output is kept *per map task*, tagged with the node the winning
//! attempt ran on. When that node dies the registry marks just those map
//! outputs lost (a reduce task would hit a fetch failure); the next
//! `prepare` resubmits only the missing map partitions — Spark's
//! partial-stage resubmission — and patches them back in. Reduce tasks read
//! buckets in map-task order, so a patched shuffle is byte-identical to one
//! materialized in a single healthy run.

use crate::context::Context;
use crate::exec;
use crate::rdd::{materialize, Data, Pipe, RddImpl, RddMeta};
use crate::task::TaskContext;
use std::any::Any;
use std::collections::BTreeSet;
use std::hash::Hash;
use std::sync::{Arc, Weak};
use yafim_cluster::sync::Mutex;
use yafim_cluster::{
    bucket_of, fx_hash64, memgov, slice_bytes, EventKind, ExecError, FxHashMap, IntegrityCounters,
    IntegrityTier, NodeId, RecoveryCounters, TransientKind,
};

/// A shuffle's map side, to be run before any stage that reads it.
pub(crate) trait ShuffleStage: Send + Sync {
    /// Shuffle id (equals the owning RDD's id).
    fn shuffle_id(&self) -> u64;
    /// Run ancestor shuffles, then this shuffle's map stage (or just its
    /// lost map partitions), unless already complete.
    fn prepare(&self) -> Result<(), ExecError>;
}

/// Materialized map output of one shuffle, kept per map task so individual
/// map outputs can be invalidated and recomputed.
pub(crate) struct Materialized<K, V> {
    /// `per_map[m][r]` = the bucket map task `m` produced for reduce
    /// partition `r`, in deterministic (map-task, key-hash) order.
    pub per_map: Vec<Vec<Vec<(K, V)>>>,
    /// Serialized byte estimate per reduce partition (summed over maps).
    pub bucket_bytes: Vec<u64>,
}

impl<K: Data, V: Data> Materialized<K, V> {
    /// Iterate reduce partition `part`'s records in map-task order — the
    /// same sequence the pre-loss concatenated layout produced.
    pub fn bucket_iter(&self, part: usize) -> impl Iterator<Item = &(K, V)> {
        self.per_map.iter().flat_map(move |m| m[part].iter())
    }

    fn recount_bytes(&mut self) {
        let reduces = self.per_map.first().map_or(0, |m| m.len());
        self.bucket_bytes = (0..reduces)
            .map(|r| self.per_map.iter().map(|m| slice_bytes(&m[r])).sum())
            .collect();
    }
}

/// A recomputed map output: `(map partition, its per-reduce buckets, node
/// the resubmitted attempt ran on)`.
pub(crate) type RecomputedMap<K, V> = (usize, Vec<Vec<(K, V)>>, NodeId);

/// One registered shuffle: the typed map output plus provenance — which node
/// produced each map task's output, and which outputs are currently lost.
struct ShuffleEntry {
    data: Arc<dyn Any + Send + Sync>,
    /// Node the winning attempt of each map task ran on.
    map_nodes: Vec<NodeId>,
    /// Map partitions whose output died with their node. Non-empty ⇒ a
    /// reduce task would hit a fetch failure; `prepare` resubmits them.
    lost: BTreeSet<usize>,
}

/// Registry of materialized shuffles, keyed by shuffle id.
pub(crate) struct ShuffleRegistry {
    inner: Mutex<FxHashMap<u64, ShuffleEntry>>,
}

impl ShuffleRegistry {
    pub(crate) fn new() -> Self {
        ShuffleRegistry {
            inner: Mutex::new(FxHashMap::default()),
        }
    }

    pub(crate) fn has(&self, id: u64) -> bool {
        self.inner.lock().contains_key(&id)
    }

    /// Materialized *and* no map outputs lost.
    pub(crate) fn is_complete(&self, id: u64) -> bool {
        self.inner
            .lock()
            .get(&id)
            .is_some_and(|e| e.lost.is_empty())
    }

    /// Map partitions whose output is currently lost (ascending order).
    pub(crate) fn lost_maps(&self, id: u64) -> Vec<usize> {
        self.inner
            .lock()
            .get(&id)
            .map(|e| e.lost.iter().copied().collect())
            .unwrap_or_default()
    }

    pub(crate) fn get<K, V>(&self, id: u64) -> Option<Arc<Materialized<K, V>>>
    where
        K: Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        self.inner.lock().get(&id).map(|e| {
            Arc::clone(&e.data)
                .downcast::<Materialized<K, V>>()
                .expect("shuffle type mismatch")
        })
    }

    pub(crate) fn insert<K, V>(&self, id: u64, mat: Materialized<K, V>, map_nodes: Vec<NodeId>)
    where
        K: Send + Sync + 'static,
        V: Send + Sync + 'static,
    {
        assert_eq!(mat.per_map.len(), map_nodes.len());
        self.inner.lock().insert(
            id,
            ShuffleEntry {
                data: Arc::new(mat),
                map_nodes,
                lost: BTreeSet::new(),
            },
        );
    }

    /// Replace the lost map outputs of shuffle `id` with freshly recomputed
    /// ones and record their new home nodes. Clears the lost set.
    pub(crate) fn patch<K, V>(&self, id: u64, recomputed: Vec<RecomputedMap<K, V>>)
    where
        K: Data,
        V: Data,
    {
        let mut g = self.inner.lock();
        let entry = g
            .get_mut(&id)
            .expect("patching a shuffle that was never materialized");
        let old = Arc::clone(&entry.data)
            .downcast::<Materialized<K, V>>()
            .expect("shuffle type mismatch");
        let mut per_map = old.per_map.clone();
        let mut map_nodes = entry.map_nodes.clone();
        for (m, buckets, node) in recomputed {
            per_map[m] = buckets;
            map_nodes[m] = node;
        }
        let mut mat = Materialized {
            per_map,
            bucket_bytes: Vec::new(),
        };
        mat.recount_bytes();
        entry.data = Arc::new(mat);
        entry.map_nodes = map_nodes;
        entry.lost.clear();
    }

    /// Drop a materialized shuffle (fault injection): the next action that
    /// needs it re-runs the whole map stage through the lineage.
    pub(crate) fn invalidate(&self, id: u64) -> bool {
        self.inner.lock().remove(&id).is_some()
    }

    /// Mark every map output produced on `node` as lost, across all
    /// registered shuffles. Returns how many map outputs were newly lost.
    pub(crate) fn mark_node_lost(&self, node: NodeId) -> usize {
        let mut g = self.inner.lock();
        let mut newly = 0;
        for e in g.values_mut() {
            for (m, n) in e.map_nodes.iter().enumerate() {
                if *n == node && e.lost.insert(m) {
                    newly += 1;
                }
            }
        }
        newly
    }

    /// Number of materialized shuffles.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().len()
    }
}

/// The `reduceByKey` operator node.
pub(crate) struct ReduceByKeyRdd<K, V>
where
    K: Data + Hash + Eq,
    V: Data,
{
    meta: RddMeta,
    parent: Arc<dyn RddImpl<(K, V)>>,
    reducer: Arc<dyn Fn(V, V) -> V + Send + Sync>,
    partitions: usize,
    weak_self: Weak<Self>,
}

impl<K, V> ReduceByKeyRdd<K, V>
where
    K: Data + Hash + Eq,
    V: Data,
{
    pub(crate) fn new(
        ctx: &Context,
        parent: Arc<dyn RddImpl<(K, V)>>,
        reducer: Arc<dyn Fn(V, V) -> V + Send + Sync>,
        partitions: usize,
    ) -> Arc<Self> {
        Arc::new_cyclic(|weak| ReduceByKeyRdd {
            meta: RddMeta::new(ctx),
            parent,
            reducer,
            partitions,
            weak_self: weak.clone(),
        })
    }

    fn ctx(&self) -> &Context {
        &self.meta.ctx
    }

    /// Run the map side: map-side combine each parent partition, hash-
    /// partition into buckets, register the per-map buckets. With
    /// `only = Some(lost)`, recompute just those map partitions and patch
    /// them into the existing entry (partial stage resubmission).
    fn run_map_stage(&self, only: Option<&[usize]>) -> Result<(), ExecError> {
        let ctx = self.ctx().clone();
        let parent = Arc::clone(&self.parent);
        let reducer = Arc::clone(&self.reducer);
        let out_parts = self.partitions;

        // Which original map partitions this stage computes: all of them on
        // a fresh run, just the lost ones on a resubmission.
        let map_parts: Vec<usize> = match only {
            Some(lost) => lost.to_vec(),
            None => (0..parent.num_partitions()).collect(),
        };
        let label = match only {
            Some(_) => format!("shuffle {} map (resubmit)", self.meta.id),
            None => format!("shuffle {} map", self.meta.id),
        };
        let preferred: Vec<Option<NodeId>> = map_parts
            .iter()
            .map(|&p| parent.preferred_node(p))
            .collect();

        type MapOut<K, V> = Vec<Vec<(K, V)>>;
        let task_parts = map_parts.clone();
        let faults = ctx.cluster().faults().clone();
        let cost = ctx.cluster().cost().clone();
        let (results, executed_on): (Vec<MapOut<K, V>>, Vec<NodeId>) = exec::try_run_stage(
            &ctx,
            label,
            EventKind::Shuffle,
            Some(self.meta.id),
            map_parts.len(),
            preferred,
            Arc::new(move |idx: usize, tc: &TaskContext| {
                let part = task_parts[idx];

                // Map-side combine (Spark's aggregator): the parent's fused
                // pipeline streams straight into the combiner — the shuffle
                // write is the first pipeline breaker in the stage, so no
                // intermediate partition buffer exists. Deterministic
                // because stream order and the Fx hasher are deterministic.
                let mut records_in = 0u64;
                let mut combined: FxHashMap<K, V> = FxHashMap::default();
                for (k, v) in materialize(&parent, part, tc) {
                    records_in += 1;
                    match combined.remove(&k) {
                        Some(prev) => {
                            combined.insert(k, reducer(prev, v));
                        }
                        None => {
                            combined.insert(k, v);
                        }
                    }
                }
                tc.add_records_in(records_in);

                let mut buckets: MapOut<K, V> = (0..out_parts).map(|_| Vec::new()).collect();
                for (k, v) in combined {
                    buckets[bucket_of(&k, out_parts)].push((k, v));
                }
                // Deterministic bucket contents regardless of hash-map
                // iteration details would require an order; the Fx map with
                // deterministic insertion already iterates deterministically,
                // but sorting by insertion is not available — so the engine
                // sorts by key hash to pin the order down completely.
                for b in &mut buckets {
                    b.sort_by_key(|(k, _)| yafim_cluster::fx_hash64(k));
                }

                let mut total_records = 0u64;
                let mut total_bytes = 0u64;
                for b in &buckets {
                    total_records += b.len() as u64;
                    total_bytes += slice_bytes(b);
                }
                // The combine buffer is execution memory; when the governor
                // denies it (budget overflow or injected OOM) the buffer
                // spills through local disk — `try_reserve` charges the
                // extra round trip, results are unchanged.
                tc.try_reserve(total_bytes, memgov::site::SHUFFLE_COMBINE, true);
                tc.add_records_out(total_records);
                tc.add_ser(total_bytes);
                tc.add_disk_write(total_bytes); // shuffle file write
                if faults.integrity_active() {
                    // Checksum the shuffle file at write time so reduce-side
                    // fetches can verify it.
                    tc.add_stall_micros((cost.checksum(total_bytes).as_secs() * 1e6) as u64);
                }
                tc.note_shuffle_write(total_bytes);
                tc.note_records_written(total_records);
                tc.note_materialized(total_bytes);

                buckets
            }),
        )?;

        match only {
            Some(_) => {
                let recomputed = map_parts
                    .iter()
                    .zip(results)
                    .zip(executed_on)
                    .map(|((&m, buckets), node)| (m, buckets, node))
                    .collect();
                self.ctx().shuffles().patch(self.meta.id, recomputed);
            }
            None => {
                let mut mat = Materialized {
                    per_map: results,
                    bucket_bytes: Vec::new(),
                };
                mat.recount_bytes();
                self.ctx().shuffles().insert(self.meta.id, mat, executed_on);
            }
        }
        Ok(())
    }
}

impl<K, V> ReduceByKeyRdd<K, V>
where
    K: Data + Hash + Eq,
    V: Data,
{
    /// Walk the seeded transient-fetch ladder for every reduce partition of
    /// a freshly materialized shuffle. An *escalated* outcome means some map
    /// output stayed unfetchable after every retry: the driver reacts as it
    /// does to a fetch failure — it resubmits the (deterministically chosen)
    /// victim map task, patching its output back in like a node-loss hole.
    /// Runs once per materialization, right after the initial map stage;
    /// resubmissions and later hole repairs never re-roll the ladder.
    fn apply_transient_escalations(&self) -> Result<(), ExecError> {
        let faults = self.ctx().cluster().faults().clone();
        let maps = self.parent.num_partitions();
        if maps == 0 {
            return Ok(());
        }
        let mut lost: BTreeSet<usize> = BTreeSet::new();
        let mut escalations = 0u64;
        for r in 0..self.partitions {
            let t = faults.transient(TransientKind::ShuffleFetch, self.meta.id, r);
            if t.escalated {
                escalations += 1;
                lost.insert(fx_hash64(&(self.meta.id, r as u64, 0x5e5cu64)) as usize % maps);
            }
        }
        if lost.is_empty() {
            return Ok(());
        }
        let lost: Vec<usize> = lost.into_iter().collect();
        self.ctx().metrics().note_recovery(&RecoveryCounters {
            fetch_failures: escalations,
            recomputed_partitions: lost.len() as u64,
            ..RecoveryCounters::default()
        });
        self.run_map_stage(Some(&lost))
    }

    /// Verify every reduce partition's map outputs against their write-time
    /// checksums. A mismatch means a shuffle file silently rotted on disk:
    /// the driver reacts as it does to a fetch failure — it resubmits the
    /// (deterministically chosen) victim map task, rewriting the rotten
    /// file clean. Runs at shuffle preparation; the controller's healed set
    /// guarantees each rotten copy is detected (and counted) exactly once,
    /// so later preparations of the same shuffle verify clean.
    fn apply_corruption_repairs(&self) -> Result<(), ExecError> {
        let faults = self.ctx().cluster().faults().clone();
        if !faults.integrity_active() {
            return Ok(());
        }
        let maps = self.parent.num_partitions();
        if maps == 0 {
            return Ok(());
        }
        let mut lost: BTreeSet<usize> = BTreeSet::new();
        let mut detected = 0u64;
        for r in 0..self.partitions {
            if faults.take_corruption(IntegrityTier::Shuffle, self.meta.id, r, 0) {
                detected += 1;
                lost.insert(fx_hash64(&(self.meta.id, r as u64, 0xbaddu64)) as usize % maps);
            }
        }
        if lost.is_empty() {
            return Ok(());
        }
        let lost: Vec<usize> = lost.into_iter().collect();
        self.ctx().metrics().note_recovery(&RecoveryCounters {
            recomputed_partitions: lost.len() as u64,
            integrity: IntegrityCounters {
                corruptions_injected: detected,
                corruptions_detected: detected,
                corruptions_repaired: detected,
                repaired_via_resubmit: detected,
                ..IntegrityCounters::default()
            },
            ..RecoveryCounters::default()
        });
        self.run_map_stage(Some(&lost))
    }
}

impl<K, V> ShuffleStage for ReduceByKeyRdd<K, V>
where
    K: Data + Hash + Eq,
    V: Data,
{
    fn shuffle_id(&self) -> u64 {
        self.meta.id
    }

    fn prepare(&self) -> Result<(), ExecError> {
        if self.ctx().shuffles().is_complete(self.meta.id) {
            return Ok(());
        }
        // Ancestors first (deduplicated by the completeness check above).
        let mut deps: Vec<Arc<dyn ShuffleStage>> = Vec::new();
        self.parent.collect_shuffle_deps(&mut deps);
        for d in deps {
            d.prepare()?;
        }

        if self.ctx().shuffles().has(self.meta.id) {
            // Materialized but holed: a node died and took some map outputs
            // with it. A reduce task would fetch-fail on each hole — charge
            // the failures and resubmit just the missing map partitions.
            let lost = self.ctx().shuffles().lost_maps(self.meta.id);
            if !lost.is_empty() {
                self.ctx().metrics().note_recovery(&RecoveryCounters {
                    fetch_failures: lost.len() as u64,
                    recomputed_partitions: lost.len() as u64,
                    ..RecoveryCounters::default()
                });
                self.run_map_stage(Some(&lost))?;
            }
            return self.apply_corruption_repairs();
        }
        self.run_map_stage(None)?;
        self.apply_transient_escalations()?;
        self.apply_corruption_repairs()
    }
}

impl<K, V> RddImpl<(K, V)> for ReduceByKeyRdd<K, V>
where
    K: Data + Hash + Eq,
    V: Data,
{
    fn meta(&self) -> &RddMeta {
        &self.meta
    }

    fn num_partitions(&self) -> usize {
        self.partitions
    }

    fn preferred_node(&self, _part: usize) -> Option<NodeId> {
        None
    }

    fn compute<'a>(&'a self, part: usize, tc: &'a TaskContext) -> Pipe<'a, (K, V)> {
        let mat = self
            .ctx()
            .shuffles()
            .get::<K, V>(self.meta.id)
            .expect("shuffle map stage must run before reduce tasks");

        // Fetch cost: with map outputs spread evenly over the cluster,
        // 1/nodes of the bytes are node-local shuffle files, the rest
        // crosses the network. Everything is deserialized.
        let bytes = mat.bucket_bytes[part];
        let nodes = self.ctx().cluster().spec().nodes as u64;
        let local = bytes / nodes.max(1);
        tc.add_disk_read(local);
        tc.add_net(bytes - local);
        tc.add_ser(bytes);
        if self.ctx().cluster().faults().integrity_active() {
            // Read-time verification of the fetched buckets. Rotten shuffle
            // files were already detected and rewritten at preparation
            // (`apply_corruption_repairs`), so by fetch time every copy
            // verifies clean — this charges the verification itself.
            tc.add_stall_micros(crate::rdd::checksum_micros(self.ctx(), bytes));
        }
        tc.note_shuffle_read(bytes);

        // Seeded transient-fetch ladder: each retry re-fetches the
        // partition's buckets, the accumulated backoff stalls the task, and
        // an escalation pays one more full fetch after the driver
        // resubmitted the victim map task (the resubmission itself is
        // charged in `prepare`). Data is never wrong — only time grows.
        let t = self.ctx().cluster().faults().transient(
            TransientKind::ShuffleFetch,
            self.meta.id,
            part,
        );
        if t.any() {
            for _ in 0..t.retries {
                tc.add_disk_read(local);
                tc.add_net(bytes - local);
            }
            tc.add_stall_micros(t.backoff_micros);
            if t.escalated {
                tc.add_disk_read(local);
                tc.add_net(bytes - local);
            }
            self.ctx().metrics().note_recovery(&RecoveryCounters {
                fetch_retries: t.retries,
                backoff_micros: t.backoff_micros,
                ..RecoveryCounters::default()
            });
            let registry = self.ctx().cluster().registry();
            registry.counter("shuffle.fetch_retries").inc(t.retries);
            registry
                .counter("shuffle.fetch_backoff_micros")
                .inc(t.backoff_micros);
        }

        let mut records = 0u64;
        let mut agg: FxHashMap<K, V> = FxHashMap::default();
        for (k, v) in mat.bucket_iter(part) {
            records += 1;
            match agg.remove(k) {
                Some(prev) => {
                    agg.insert(k.clone(), (self.reducer)(prev, v.clone()));
                }
                None => {
                    agg.insert(k.clone(), v.clone());
                }
            }
        }
        tc.add_records_in(records);
        tc.note_records_read(records);
        let mut out: Vec<(K, V)> = agg.into_iter().collect();
        // Pin down output order for run-to-run determinism. The sort makes
        // the reduce output a genuine pipeline breaker: it owns one
        // materialized buffer, which downstream narrow operators then
        // stream out of.
        out.sort_by_key(|(k, _)| yafim_cluster::fx_hash64(k));
        tc.add_records_out(out.len() as u64);
        tc.note_materialized(slice_bytes(&out));
        Pipe::Owned(out)
    }

    fn collect_shuffle_deps(&self, out: &mut Vec<Arc<dyn ShuffleStage>>) {
        let me = self
            .weak_self
            .upgrade()
            .expect("RDD alive while collecting deps");
        out.push(me as Arc<dyn ShuffleStage>);
    }

    fn shuffle_read_id(&self) -> Option<u64> {
        // A stage whose pipeline starts at this RDD fetches this shuffle's
        // map output.
        Some(self.meta.id)
    }

    fn preflight(&self) -> Result<(), ExecError> {
        self.parent.preflight()
    }
}
