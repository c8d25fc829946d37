//! The executor: runs stages on the real thread pool and charges virtual
//! time for them.
//!
//! An action is one *job*. A job is: per-job driver overhead, then every
//! shuffle stage in the lineage (bottom-up, deduplicated), then the final
//! stage, then the cost of fetching results to the driver.
//!
//! Each stage runs its tasks for real (pool-parallel), gathers per-task
//! [`yafim_cluster::WorkCounters`], converts them into virtual durations
//! under the cost model, list-schedules those durations onto the virtual
//! cluster, and advances the shared virtual clock by the stage overhead plus
//! the makespan.
//!
//! When a [`yafim_cluster::FaultPlan`] is active on the cluster, scheduling
//! goes through the fault-aware path instead: task attempts can crash or die
//! with their node and are retried (bounded by `max_task_failures`),
//! stragglers on slow nodes get speculative copies, and the stage's
//! [`yafim_cluster::RecoveryCounters`] are attached to its span. Real
//! execution still happens exactly once per partition, so results are
//! byte-identical to a fault-free run — only virtual time grows. Node losses
//! additionally invalidate data *between* stages: cached partitions are
//! evicted (recomputed through lineage on the next read), shuffle map
//! outputs are marked lost (resubmitted by the next consumer), and broadcast
//! blocks are re-fetched.

use crate::context::Context;
use crate::rdd::{materialize, node_for, CheckpointRdd, Data, Rdd, RddImpl};
use crate::shuffle::ShuffleStage;
use crate::task::TaskContext;
use std::sync::Arc;
use yafim_cluster::{
    fx_hash64, slice_bytes, EventKind, ExecError, NodeId, RecoveryCounters, SimDuration,
    StageExecution, TaskExecution, TaskProfile, TaskSpec,
};

/// What one node loss took with it (returned by
/// [`FaultInjection::lose_node`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeLossReport {
    /// The node that died.
    pub node: NodeId,
    /// Cached partitions (memory + disk tier) the node held; each will be
    /// recomputed through its lineage on the next read.
    pub cached_partitions_dropped: usize,
    /// Shuffle map outputs the node held; the next consumer resubmits just
    /// those map tasks.
    pub map_outputs_lost: usize,
}

/// A task body: partition index + task context → per-partition result. The
/// context is shared (`&TaskContext`): a fused pipeline's adapters all hold
/// it while elements stream through, charging work via interior mutability.
pub(crate) type TaskFn<R> = Arc<dyn Fn(usize, &TaskContext) -> R + Send + Sync>;

/// Run one stage: `task` once per partition, real execution on the pool,
/// virtual time charged to the cluster clock. Every task is placed on a
/// virtual node/core by the scheduler and recorded as a task span, parented
/// to this stage (and to the enclosing job, if any). Returns per-partition
/// results in partition order, plus the node each task's *winning* attempt
/// ran on (shuffle map-output provenance).
///
/// With an active fault plan, placement goes through
/// [`yafim_cluster::FaultController::schedule_stage`]; pending node losses
/// are applied before the stage starts.
pub(crate) fn try_run_stage<R: Send + 'static>(
    ctx: &Context,
    label: String,
    kind: EventKind,
    shuffle_id: Option<u64>,
    partitions: usize,
    preferred: Vec<Option<NodeId>>,
    task: TaskFn<R>,
) -> Result<(Vec<R>, Vec<NodeId>), ExecError> {
    assert_eq!(preferred.len(), partitions);
    let cluster = ctx.cluster().clone();
    let spec = cluster.spec().clone();

    sync_node_losses(ctx);

    // One memory budget and OOM hash key per stage: every task reserves
    // against the same deterministic slice, and rolls are keyed by
    // (stage, partition, attempt) so a given plan always denies the same
    // acquisitions regardless of host-thread interleaving.
    let budget = cluster.memory_budget();
    let stage_key = fx_hash64(&(label.as_str(), cluster.metrics().now().as_secs().to_bits()));

    let preferred_for_tasks = preferred.clone();
    let outcomes: Vec<(R, TaskProfile, Option<yafim_cluster::OomAbort>)> =
        cluster
            .pool()
            .map((0..partitions).collect::<Vec<usize>>(), move |_, part| {
                let node = preferred_for_tasks[part].unwrap_or_else(|| spec.home_node(part));
                let tc = TaskContext::with_memory(part, node, budget, stage_key);
                let r = task(part, &tc);
                let abort = tc.oom_abort();
                (r, tc.into_profile(), abort)
            });

    // A task that exhausted its OOM retry ladder kills the whole job with a
    // typed error; partial results never escape. Scanned in partition order
    // so the reported task is deterministic.
    if let Some(abort) = outcomes.iter().find_map(|(_, _, a)| *a) {
        return Err(ExecError::OutOfMemory {
            stage: label,
            partition: abort.partition,
            site: abort.site,
            bytes: abort.bytes,
            attempts: abort.attempts,
        });
    }

    let cost = cluster.cost();
    let specs: Vec<TaskSpec> = outcomes
        .iter()
        .zip(&preferred)
        .map(|((_, profile, _), pref)| TaskSpec {
            duration: SimDuration::from_secs(cost.spark_task_overhead)
                + profile.work.data_time(cost),
            preferred_node: *pref,
        })
        .collect();

    // Admit the stage through the multi-job scheduler: the returned
    // scheduler is restricted to this job's executor grant (and dynamic
    // allocation's current ramp), and `queue` is any FIFO pool wait to
    // charge to this stage.
    let (queue, scheduler) = cluster.stage_admission();

    // Skew-aware splitting: the prior same-family stage's durations
    // estimate this one's; straggler tasks are split into pieces for
    // *placement only*, so real execution (and results) are untouched.
    let family: String = label.chars().filter(|c| !c.is_ascii_digit()).collect();
    let durs: Vec<SimDuration> = specs.iter().map(|s| s.duration).collect();
    let splits = cluster.plan_skew_splits(&family, &durs);
    let skew_splits: u64 = splits.iter().map(|&k| (k - 1) as u64).sum();
    let mut owner: Vec<usize> = Vec::with_capacity(specs.len());
    let sched_specs: Vec<TaskSpec> = if skew_splits > 0 {
        let mut v = Vec::new();
        for (part, (spec, &k)) in specs.iter().zip(&splits).enumerate() {
            let piece = SimDuration::from_secs(spec.duration.as_secs() / k as f64);
            for _ in 0..k {
                v.push(TaskSpec {
                    duration: piece,
                    preferred_node: spec.preferred_node,
                });
                owner.push(part);
            }
            if k > 1 {
                cluster.metrics().advance_with_event(
                    SimDuration::ZERO,
                    EventKind::Other,
                    format!("skew split: {label} partition {part} x{k}"),
                );
            }
        }
        v
    } else {
        owner.extend(0..specs.len());
        specs
    };

    let faults = cluster.faults();
    let (detailed, mut recovery, trailing) = if faults.active() {
        // Node-loss instants are absolute; anchor them to this stage's task
        // window (stage start + queue wait + overhead).
        let window_start =
            cluster.metrics().now() + queue + SimDuration::from_secs(cost.spark_stage_overhead);
        let fs = faults
            .schedule_stage(&scheduler, &sched_specs, None, window_start)
            .map_err(|source| ExecError::StageAborted {
                stage: label.clone(),
                source,
            })?;
        let pad = fs.trailing_pad();
        (fs.schedule, fs.recovery, pad)
    } else {
        (
            scheduler.schedule_detailed(&sched_specs),
            RecoveryCounters::default(),
            SimDuration::ZERO,
        )
    };

    // The governor's per-task outcomes roll up into the stage's recovery
    // block (peak merges with max, the rest sum), so reports, manifests and
    // the critical path see memory pressure next to the other fault counters.
    for (_, profile, _) in &outcomes {
        recovery.mem.merge(&profile.mem);
    }

    // Map piece placements back to partitions: a partition ran where its
    // first piece ran; only the first piece carries the real profile so
    // aggregate attribution stays exact.
    let mut first_node: Vec<Option<NodeId>> = vec![None; partitions];
    for (i, p) in detailed.placements.iter().enumerate() {
        let part = owner[i];
        if first_node[part].is_none() {
            first_node[part] = Some(p.node);
        }
    }
    let executed_on: Vec<NodeId> = first_node.into_iter().map(|n| n.expect("piece")).collect();
    let mut carries_profile = vec![true; partitions];
    let tasks: Vec<TaskExecution> = detailed
        .placements
        .iter()
        .enumerate()
        .map(|(i, placement)| {
            let part = owner[i];
            let profile = if std::mem::replace(&mut carries_profile[part], false) {
                outcomes[part].1
            } else {
                TaskProfile::new()
            };
            TaskExecution {
                partition: part,
                node: placement.node,
                core: placement.core,
                start: placement.start,
                duration: placement.duration,
                profile,
            }
        })
        .collect();

    feed_registry(ctx, &tasks, &recovery, budget.map_or(0, |b| b.node_limit));

    cluster.metrics().record_stage_with_recovery(
        StageExecution {
            label,
            kind,
            shuffle_id,
            queue,
            overhead: SimDuration::from_secs(cost.spark_stage_overhead),
            trailing,
            tasks,
        },
        recovery,
    );
    // After the clock advanced past the stage: the admission bookkeeping
    // (idle-timeout reference point) and the sched.* attribution.
    cluster.record_sched_stage(
        queue,
        detailed.decision_units,
        faults.drain_shared_hits(),
        skew_splits,
    );

    Ok((
        outcomes.into_iter().map(|(r, _, _)| r).collect(),
        executed_on,
    ))
}

/// Feed the cluster's typed metrics registry from one finished stage: task
/// counts and duration/wait distributions, attribution byte counters from
/// the merged profile, recovery counters, and current cache occupancy.
/// Every metric is created even when zero, so manifests carry a stable name
/// set; histograms are observed in partition order on the driver thread, so
/// their float sums are deterministic.
fn feed_registry(
    ctx: &Context,
    tasks: &[TaskExecution],
    recovery: &RecoveryCounters,
    task_budget_bytes: u64,
) {
    let registry = ctx.cluster().registry();
    registry.counter("executor.stages").inc(1);
    registry.counter("executor.tasks").inc(tasks.len() as u64);
    let durations = registry.histogram("executor.task_seconds");
    let waits = registry.histogram("executor.queue_wait_seconds");
    let mut merged = TaskProfile::new();
    for t in tasks {
        durations.observe(t.duration.as_secs());
        waits.observe(t.start.as_secs());
        merged.merge(&t.profile);
    }
    for (name, v) in [
        ("shuffle.read_bytes", merged.shuffle_read_bytes),
        ("shuffle.write_bytes", merged.shuffle_write_bytes),
        ("broadcast.read_bytes", merged.broadcast_read_bytes),
        ("cache.hits", merged.cache_hits),
        ("cache.misses", merged.cache_misses),
        ("executor.records_read", merged.records_read),
        ("executor.records_written", merged.records_written),
        ("executor.bytes_materialized", merged.bytes_materialized),
        ("fault.task_failures", recovery.task_failures),
        ("fault.task_retries", recovery.task_retries),
        ("fault.speculative_launched", recovery.speculative_launched),
        ("fault.speculative_wins", recovery.speculative_wins),
        (
            "integrity.corruptions_injected",
            recovery.integrity.corruptions_injected,
        ),
        (
            "integrity.corruptions_detected",
            recovery.integrity.corruptions_detected,
        ),
        (
            "integrity.corruptions_repaired",
            recovery.integrity.corruptions_repaired,
        ),
        (
            "integrity.repaired_via_replica",
            recovery.integrity.repaired_via_replica,
        ),
        (
            "integrity.repaired_via_recompute",
            recovery.integrity.repaired_via_recompute,
        ),
        (
            "integrity.repaired_via_resubmit",
            recovery.integrity.repaired_via_resubmit,
        ),
        ("mem.spills", recovery.mem.spills),
        ("mem.spill_bytes", recovery.mem.spill_bytes),
        ("mem.degradations", recovery.mem.degradations),
        ("mem.oom_injected", recovery.mem.oom_injected),
        ("mem.oom_killed", recovery.mem.oom_killed),
        (
            "mem.oom_survived_by_degradation",
            recovery.mem.oom_survived_by_degradation,
        ),
    ] {
        registry.counter(name).inc(v);
    }
    // High-water marks, not sums: the run's peak is the max over stages.
    let peak = registry.gauge("mem.peak_execution_bytes");
    if recovery.mem.peak_execution_bytes as f64 > peak.get() {
        peak.set(recovery.mem.peak_execution_bytes as f64);
    }
    // The hard per-task cap a fully-backed-off retry may grow into (the
    // node's evictable memory): per-task peaks can never exceed it, which
    // the bench gate checks as a coherence rule.
    let budget_gauge = registry.gauge("mem.task_budget_bytes");
    if task_budget_bytes as f64 > budget_gauge.get() {
        budget_gauge.set(task_budget_bytes as f64);
    }
    let stats = ctx.cache().stats();
    registry
        .gauge("cache.used_bytes")
        .set(stats.used_bytes as f64);
    registry
        .gauge("cache.disk_bytes")
        .set(stats.disk_bytes as f64);
    registry
        .gauge("cache.peak_bytes")
        .set(stats.peak_bytes as f64);
    registry
        .gauge("cache.entries")
        .set((stats.entries + stats.disk_entries) as f64);
}

/// Apply the data-loss side effects of every planned node loss whose virtual
/// instant has passed (each exactly once): evict the node's cached
/// partitions, mark its shuffle map outputs lost, charge the broadcast
/// re-fetch. Returns one report per newly-applied loss.
pub(crate) fn sync_node_losses(ctx: &Context) -> Vec<NodeLossReport> {
    let faults = ctx.cluster().faults().clone();
    if !faults.active() {
        return Vec::new();
    }
    let now = ctx.metrics().now();
    faults
        .take_new_losses(now)
        .into_iter()
        .map(|node| apply_node_loss(ctx, node))
        .collect()
}

/// Invalidate everything `node` held and charge the recovery traffic. The
/// lost data is *not* recomputed here — lineage does that lazily: the next
/// cache read recomputes the partition, the next shuffle consumer resubmits
/// the lost map tasks.
pub(crate) fn apply_node_loss(ctx: &Context, node: NodeId) -> NodeLossReport {
    let cached = ctx.cache().evict_node(node.index());
    let map_lost = ctx.shuffles().mark_node_lost(node);
    // Checkpoint replicas on the node are gone too; remaining replicas keep
    // serving reads (a block only disappears when every replica is lost).
    ctx.cluster().hdfs().checkpoint_drop_node(node);
    let metrics = ctx.metrics().clone();
    let cost = ctx.cluster().cost().clone();

    let mut rec = RecoveryCounters {
        nodes_lost: 1,
        recomputed_partitions: cached as u64,
        ..RecoveryCounters::default()
    };

    // Torrent blocks the dead executor served are re-replicated from the
    // survivors: charge the dead node's share of all broadcast bytes.
    let bcast = ctx.broadcast_bytes();
    let nodes = ctx.cluster().spec().nodes as u64;
    let refetch = bcast / nodes.max(1);
    if refetch > 0 {
        metrics.advance_with_event(
            cost.net_transfer(refetch),
            EventKind::Broadcast,
            format!("broadcast re-fetch after {node} loss ({refetch}B)"),
        );
        rec.broadcast_refetches = 1;
    }

    metrics.advance_with_event(
        SimDuration::ZERO,
        EventKind::Other,
        format!(
            "{node} lost: {cached} cached partitions dropped, \
             {map_lost} shuffle map outputs lost"
        ),
    );
    metrics.note_recovery(&rec);
    let registry = ctx.cluster().registry();
    registry.counter("fault.nodes_lost").inc(1);
    registry
        .counter("fault.cached_partitions_dropped")
        .inc(cached as u64);
    registry
        .counter("fault.map_outputs_lost")
        .inc(map_lost as u64);
    registry
        .counter("fault.broadcast_refetch_bytes")
        .inc(refetch);
    NodeLossReport {
        node,
        cached_partitions_dropped: cached,
        map_outputs_lost: map_lost,
    }
}

/// Prepare (run) every shuffle stage the lineage of `imp` depends on, and
/// keep repairing until all of them are complete: preparing advances the
/// virtual clock, so a planned node loss can trigger *while* preparing and
/// invalidate map outputs just produced.
fn prepare_shuffles<T: Data>(ctx: &Context, imp: &Arc<dyn RddImpl<T>>) -> Result<(), ExecError> {
    loop {
        let mut deps: Vec<Arc<dyn ShuffleStage>> = Vec::new();
        imp.collect_shuffle_deps(&mut deps);
        // The same shuffle can appear twice in one lineage (e.g. a union of
        // two branches over the same reduced RDD); prepare it once.
        let mut seen = std::collections::HashSet::new();
        for d in &deps {
            if seen.insert(d.shuffle_id()) {
                d.prepare()?;
            }
        }
        let no_new_losses = sync_node_losses(ctx).is_empty();
        let all_complete = deps
            .iter()
            .all(|d| ctx.shuffles().is_complete(d.shuffle_id()));
        if no_new_losses && all_complete {
            return Ok(());
        }
    }
}

/// Run the final stage of a job, collapsing each partition's pipeline into
/// a buffer for the driver fetch (the job's last pipeline breaker).
fn run_final_stage<T: Data>(rdd: &Rdd<T>, label: String) -> Result<Vec<Arc<Vec<T>>>, ExecError> {
    let imp = Arc::clone(&rdd.imp);
    let partitions = imp.num_partitions();
    let preferred: Vec<Option<NodeId>> = (0..partitions)
        .map(|p| imp.preferred_node(p).or_else(|| Some(node_for(&imp, p))))
        .collect();
    let shuffle_read = imp.shuffle_read_id();
    try_run_stage(
        &rdd.ctx,
        label,
        EventKind::Stage,
        shuffle_read,
        partitions,
        preferred,
        Arc::new(move |part, tc: &TaskContext| {
            let data = materialize(&imp, part, tc).into_arc(tc);
            tc.note_records_written(data.len() as u64);
            data
        }),
    )
    .map(|(parts, _)| parts)
}

/// Run the final stage of a `count` job: each partition's pipeline is
/// drained without buffering — only the lengths reach the driver.
fn run_count_stage<T: Data>(rdd: &Rdd<T>, label: String) -> Result<Vec<u64>, ExecError> {
    let imp = Arc::clone(&rdd.imp);
    let partitions = imp.num_partitions();
    let preferred: Vec<Option<NodeId>> = (0..partitions)
        .map(|p| imp.preferred_node(p).or_else(|| Some(node_for(&imp, p))))
        .collect();
    let shuffle_read = imp.shuffle_read_id();
    try_run_stage(
        &rdd.ctx,
        label,
        EventKind::Stage,
        shuffle_read,
        partitions,
        preferred,
        Arc::new(move |part, tc: &TaskContext| materialize(&imp, part, tc).count()),
    )
    .map(|(lens, _)| lens)
}

/// The `collect` action.
pub(crate) fn try_collect<T: Data>(rdd: &Rdd<T>) -> Result<Vec<T>, ExecError> {
    let ctx = &rdd.ctx;
    let metrics = ctx.metrics().clone();
    let job = metrics.begin_job(format!("collect rdd{}", rdd.id()));
    metrics.advance(SimDuration::from_secs(
        ctx.cluster().cost().spark_job_overhead,
    ));

    let result = (|| {
        rdd.imp.preflight()?;
        prepare_shuffles(ctx, &rdd.imp)?;
        let parts = run_final_stage(rdd, format!("collect rdd{}", rdd.id()))?;

        // Results are serialized on the workers and fetched to the driver.
        let result_bytes: u64 = parts.iter().map(|p| slice_bytes(p)).sum();
        let cost = ctx.cluster().cost();
        metrics.advance(cost.serialize(result_bytes) + cost.net_transfer(result_bytes));

        // Losses that triggered during the final stage surface inside this
        // job rather than lingering until the next action.
        sync_node_losses(ctx);
        Ok::<_, ExecError>(parts)
    })();
    metrics.end_job(job);

    let parts = result?;
    let mut out = Vec::new();
    for p in parts {
        out.extend(p.iter().cloned());
    }
    Ok(out)
}

/// The `checkpoint` action: materialize every partition of `rdd` to
/// replicated blocks in simulated HDFS and return a [`CheckpointRdd`] that
/// reads them back. One job, one write stage attributed to
/// [`EventKind::Checkpoint`]; each task serializes its partition, writes the
/// primary replica to local disk and ships the remaining replicas over the
/// network (pipelined, like an HDFS block write).
pub(crate) fn try_checkpoint<T: Data>(rdd: &Rdd<T>) -> Result<Rdd<T>, ExecError> {
    let ctx = &rdd.ctx;
    let metrics = ctx.metrics().clone();
    let job = metrics.begin_job(format!("checkpoint rdd{}", rdd.id()));
    metrics.advance(SimDuration::from_secs(
        ctx.cluster().cost().spark_job_overhead,
    ));

    let result = (|| {
        rdd.imp.preflight()?;
        prepare_shuffles(ctx, &rdd.imp)?;
        let imp = Arc::clone(&rdd.imp);
        let partitions = imp.num_partitions();
        let cp = CheckpointRdd::<T>::new(ctx, partitions);
        let cp_id = cp.meta.id;
        let preferred: Vec<Option<NodeId>> = (0..partitions)
            .map(|p| imp.preferred_node(p).or_else(|| Some(node_for(&imp, p))))
            .collect();
        let shuffle_read = imp.shuffle_read_id();
        let cluster = ctx.cluster().clone();
        let replication = cluster.hdfs().replication() as u64;
        try_run_stage(
            ctx,
            format!("checkpoint rdd{} -> rdd{cp_id}", rdd.id()),
            EventKind::Checkpoint,
            shuffle_read,
            partitions,
            preferred,
            Arc::new(move |part, tc: &TaskContext| {
                let data = materialize(&imp, part, tc).into_arc(tc);
                let bytes = slice_bytes(&data);
                tc.add_ser(bytes); // serialize the block for stable storage
                tc.add_disk_write(bytes); // primary replica, node-local
                tc.add_net(bytes * replication.saturating_sub(1)); // pipeline to the others
                if cluster.faults().integrity_active() {
                    // Checksum the block at write time so replica reads can
                    // verify it.
                    tc.add_stall_micros((cluster.cost().checksum(bytes).as_secs() * 1e6) as u64);
                }
                tc.note_records_written(data.len() as u64);
                cluster
                    .hdfs()
                    .checkpoint_put(cp_id, part, data, bytes, tc.node);
            }),
        )?;
        metrics.note_recovery(&RecoveryCounters {
            checkpoint_writes: partitions as u64,
            ..RecoveryCounters::default()
        });
        sync_node_losses(ctx);
        Ok(Rdd::from_impl(ctx.clone(), Arc::new(cp)))
    })();
    metrics.end_job(job);
    result
}

/// The `count` action: computes every partition but only its length crosses
/// the network.
pub(crate) fn try_count<T: Data>(rdd: &Rdd<T>) -> Result<u64, ExecError> {
    let ctx = &rdd.ctx;
    let metrics = ctx.metrics().clone();
    let job = metrics.begin_job(format!("count rdd{}", rdd.id()));
    metrics.advance(SimDuration::from_secs(
        ctx.cluster().cost().spark_job_overhead,
    ));

    let result = (|| {
        rdd.imp.preflight()?;
        prepare_shuffles(ctx, &rdd.imp)?;
        let lens = run_count_stage(rdd, format!("count rdd{}", rdd.id()))?;
        sync_node_losses(ctx);
        Ok::<_, ExecError>(lens)
    })();
    metrics.end_job(job);

    Ok(result?.iter().sum())
}

/// The `take` action: incremental over the fused pipelines. Partitions run
/// in exponentially growing batches (1, 4, 16, …) and each task stops
/// pulling from its partition's pipeline once `n` elements are gathered —
/// later partitions are never computed when earlier ones fill the quota.
pub(crate) fn try_take<T: Data>(rdd: &Rdd<T>, n: usize) -> Result<Vec<T>, ExecError> {
    if n == 0 {
        return Ok(Vec::new());
    }
    let ctx = &rdd.ctx;
    let metrics = ctx.metrics().clone();
    let job = metrics.begin_job(format!("take({n}) rdd{}", rdd.id()));
    metrics.advance(SimDuration::from_secs(
        ctx.cluster().cost().spark_job_overhead,
    ));

    let result = (|| {
        rdd.imp.preflight()?;
        prepare_shuffles(ctx, &rdd.imp)?;
        let imp = Arc::clone(&rdd.imp);
        let total = imp.num_partitions();
        let shuffle_read = imp.shuffle_read_id();
        let mut out: Vec<T> = Vec::new();
        let mut next = 0usize;
        let mut batch = 1usize;
        while out.len() < n && next < total {
            let hi = (next + batch).min(total);
            let parts: Vec<usize> = (next..hi).collect();
            let remaining = n - out.len();
            let preferred: Vec<Option<NodeId>> = parts
                .iter()
                .map(|&p| imp.preferred_node(p).or_else(|| Some(node_for(&imp, p))))
                .collect();
            let stage_imp = Arc::clone(&imp);
            let stage_parts = parts.clone();
            let (results, _) = try_run_stage(
                ctx,
                format!("take({n}) rdd{} [{next}..{hi})", rdd.id()),
                EventKind::Stage,
                shuffle_read,
                parts.len(),
                preferred,
                Arc::new(move |idx, tc: &TaskContext| {
                    let part = stage_parts[idx];
                    // Pull at most `remaining` elements; a fused upstream
                    // chain stops computing as soon as the quota is met.
                    let taken: Vec<T> = materialize(&stage_imp, part, tc)
                        .into_iter()
                        .take(remaining)
                        .collect();
                    tc.note_records_written(taken.len() as u64);
                    tc.note_materialized(slice_bytes(&taken));
                    taken
                }),
            )?;
            // Everything the batch gathered is fetched to the driver, even
            // if the batch collectively overshot `n`.
            let fetched: u64 = results.iter().map(|p| slice_bytes(p)).sum();
            let cost = ctx.cluster().cost();
            metrics.advance(cost.serialize(fetched) + cost.net_transfer(fetched));
            for p in results {
                for t in p {
                    if out.len() == n {
                        break;
                    }
                    out.push(t);
                }
            }
            sync_node_losses(ctx);
            next = hi;
            batch = batch.saturating_mul(4);
        }
        Ok(out)
    })();
    metrics.end_job(job);
    result
}

/// Fault injection helpers, exposed on [`Context`] via an extension trait so
/// tests, the chaos bench and the fault-tolerance example can knock pieces
/// out mid-run.
pub trait FaultInjection {
    /// Drop one cached partition, as if its executor was lost. Returns
    /// whether anything was dropped. The next read recomputes via lineage.
    fn drop_cached_partition(&self, rdd_id: u64, partition: usize) -> bool;

    /// Drop a materialized shuffle output. The next action that reads it
    /// re-runs the map stage. Returns whether anything was dropped.
    fn drop_shuffle(&self, shuffle_id: u64) -> bool;

    /// Kill a node *now* (at the current virtual time): the node takes no
    /// further tasks, its cached partitions and shuffle map outputs are
    /// invalidated, and broadcast blocks are re-fetched. Idempotent — a
    /// second kill of the same node reports nothing new.
    fn lose_node(&self, node: NodeId) -> NodeLossReport;

    /// Alias for [`FaultInjection::drop_shuffle`], matching the
    /// `lose_node` naming: drop one shuffle's map outputs wholesale.
    fn lose_shuffle(&self, shuffle_id: u64) -> bool;

    /// Number of currently materialized shuffles (observability for tests).
    fn materialized_shuffles(&self) -> usize;
}

impl FaultInjection for Context {
    fn drop_cached_partition(&self, rdd_id: u64, partition: usize) -> bool {
        self.cache().evict(rdd_id, partition)
    }

    fn drop_shuffle(&self, shuffle_id: u64) -> bool {
        self.shuffles().invalidate(shuffle_id)
    }

    fn lose_node(&self, node: NodeId) -> NodeLossReport {
        let now = self.metrics().now();
        if self.cluster().faults().kill_node(node, now) {
            apply_node_loss(self, node)
        } else {
            // Already dead: its data was already invalidated.
            NodeLossReport {
                node,
                cached_partitions_dropped: 0,
                map_outputs_lost: 0,
            }
        }
    }

    fn lose_shuffle(&self, shuffle_id: u64) -> bool {
        self.drop_shuffle(shuffle_id)
    }

    fn materialized_shuffles(&self) -> usize {
        self.shuffles().len()
    }
}
