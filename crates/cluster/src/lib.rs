//! # yafim-cluster — deterministic virtual-cluster substrate
//!
//! The YAFIM paper evaluates on a 12-node Hadoop/Spark cluster. This crate is
//! the stand-in for that hardware: a *virtual* cluster whose time is computed
//! from deterministic work counters through a calibrated cost model, while the
//! actual data processing runs for real on local threads.
//!
//! The split is deliberate:
//!
//! * **Correctness is real.** Every byte of every dataset is actually parsed,
//!   hashed, counted and shuffled by the engines built on top of this crate
//!   ([`yafim-rdd`](https://docs.rs), [`yafim-mapreduce`](https://docs.rs)).
//! * **Time is virtual.** Each task accumulates [`work::WorkCounters`]
//!   (records, CPU units, bytes from disk / memory / network); a
//!   [`costmodel::CostModel`] converts counters into a virtual duration; and
//!   [`sched::VirtualScheduler`] list-schedules task durations onto
//!   `nodes × cores` virtual cores to obtain a stage makespan.
//!
//! Because counters are exact functions of the data and the scheduler is
//! deterministic, experiment output is bit-for-bit reproducible on any host.
//!
//! Modules:
//!
//! * [`time`] — virtual time arithmetic ([`time::SimDuration`], [`time::SimInstant`]).
//! * [`spec`] — cluster topology ([`spec::ClusterSpec`], [`spec::NodeId`]).
//! * [`costmodel`] — calibrated constants ([`costmodel::CostModel`]).
//! * [`work`] — per-task work counters.
//! * [`sched`] — the virtual list scheduler.
//! * [`fault`] — seeded fault injection (crashes, node loss, stragglers) and
//!   Spark-style recovery scheduling (retries, blacklisting, speculation).
//! * [`hdfs`] — simulated HDFS with real file contents, blocks and replicas.
//! * [`metrics`] — the virtual clock, counters and the span log (job →
//!   stage → task) shared by engines.
//! * [`registry`] — typed named metrics (counters, gauges, log-bucketed
//!   histograms) fed by the engines' hot paths.
//! * [`critical`] — critical-path analysis: decompose the makespan into
//!   exhaustive attribution buckets plus per-stage skew metrics.
//! * [`manifest`] — versioned machine-readable run manifests for the
//!   bench-regression gate.
//! * [`memgov`] — the unified execution-memory governor: region split,
//!   per-task budgets, OOM injection and the graceful-degradation ladder.
//! * [`trace`] — Chrome trace event exporter (Perfetto / chrome://tracing).
//! * [`report`] — Spark-UI-style per-stage and per-iteration text tables.
//! * [`pool`] — the real worker thread pool used to execute tasks.

pub mod bytes;
pub mod costmodel;
pub mod critical;
pub mod fault;
pub mod hash;
pub mod hdfs;
pub mod jobs;
pub mod json;
pub mod manifest;
pub mod memgov;
pub mod metrics;
pub mod pool;
pub mod registry;
pub mod report;
pub mod sched;
pub mod spec;
pub mod sync;
pub mod time;
pub mod trace;
pub mod work;

pub use bytes::{slice_bytes, ByteSize};
pub use costmodel::CostModel;
pub use critical::{critical_path, CriticalPathBuckets, CriticalPathReport, StageSkew};
pub use fault::{
    ExecError, FaultController, FaultError, FaultPlan, FaultySchedule, IntegrityCounters,
    IntegrityTier, MemoryCounters, RecoveryCounters, TransientKind, TransientOutcome,
    DEFAULT_BLACKLIST_AFTER, DEFAULT_FETCH_BACKOFF_BASE, DEFAULT_FETCH_RETRIES,
    DEFAULT_HEARTBEAT_INTERVAL, DEFAULT_MAX_TASK_FAILURES, DEFAULT_RESUBMIT_DELAY,
    DEFAULT_SPECULATION_MULTIPLIER,
};
pub use hash::{bucket_of, fx_hash64, FxHashMap, FxHashSet, FxHasher};
pub use hdfs::{BlockInfo, CheckpointBlock, DfsError, DfsFile, SimHdfs, Split};
pub use jobs::{
    JobId, JobQueue, JobTicket, PoolPolicy, PoolSpec, SchedulerConfig, SharedBlacklist,
};
pub use manifest::{RunManifest, MANIFEST_SCHEMA_VERSION};
pub use memgov::{
    storage_capacity, MemEffect, MemGrant, MemoryBudget, MemoryRefusal, OomAbort, TaskMemory,
    SPILL_GRANULE,
};
pub use metrics::{
    DropCounts, Event, EventKind, JobSpan, Metrics, MetricsCapacity, MetricsSnapshot,
    StageExecution, StageSpan, TaskExecution, TaskSpan,
};
pub use pool::ThreadPool;
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot,
};
pub use report::{full_report, iteration_report, stage_report};
pub use sched::{
    DetailedSchedule, HeartbeatMonitor, ScheduleOutcome, TaskPlacement, TaskSpec, VirtualScheduler,
};
pub use spec::{ClusterSpec, NodeId};
pub use time::{SimDuration, SimInstant};
pub use trace::chrome_trace;
pub use work::{TaskProfile, WorkCounters};

use std::sync::Arc;

/// A handle bundling everything that describes one virtual cluster: its
/// topology, its cost model, its distributed file system, the shared metrics
/// sink, and the real thread pool used to execute tasks.
///
/// Engines (`yafim-rdd`, `yafim-mapreduce`) are constructed over a
/// `SimCluster` and charge all their virtual time to its [`Metrics`].
#[derive(Clone)]
pub struct SimCluster {
    inner: Arc<ClusterInner>,
}

struct ClusterInner {
    spec: ClusterSpec,
    cost: CostModel,
    hdfs: SimHdfs,
    metrics: Metrics,
    registry: MetricsRegistry,
    pool: ThreadPool,
    faults: FaultController,
    sched: sync::Mutex<SchedState>,
}

/// Mutable multi-job scheduler state for one cluster (= one job's view).
struct SchedState {
    config: SchedulerConfig,
    /// Ticket binding this cluster to a job in a shared [`JobQueue`].
    /// Unbound clusters behave exactly as before the multi-job scheduler:
    /// full topology, no queue time.
    binding: Option<JobTicket>,
    /// FIFO queue time not yet charged to a stage (charged once, on the
    /// first stage admitted after binding).
    queue_pending: SimDuration,
    /// When the dynamic-allocation ramp last (re)started.
    ramp_start: SimInstant,
    /// End of the most recently recorded stage (virtual time).
    last_stage_end: SimInstant,
    /// Whether any stage has been admitted yet.
    ran_stage: bool,
    /// Executors (nodes) currently held under dynamic allocation.
    executors_now: usize,
    /// Per-task durations of the previous stage in each label family —
    /// the "prior pass" estimates skew-aware splitting decides from.
    skew_history: std::collections::HashMap<(String, usize), Vec<f64>>,
}

impl SchedState {
    fn new() -> Self {
        SchedState {
            config: SchedulerConfig::default(),
            binding: None,
            queue_pending: SimDuration::ZERO,
            ramp_start: SimInstant::EPOCH,
            last_stage_end: SimInstant::EPOCH,
            ran_stage: false,
            executors_now: 0,
            skew_history: std::collections::HashMap::new(),
        }
    }
}

impl SimCluster {
    /// Create a cluster with the given topology and cost model.
    ///
    /// The real thread pool is sized to the host's parallelism (not the
    /// virtual core count): virtual cores only exist inside the scheduler.
    pub fn new(spec: ClusterSpec, cost: CostModel) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::with_threads(spec, cost, threads)
    }

    /// Like [`SimCluster::new`] but with an explicit real-thread count
    /// (useful in tests to force sequential execution).
    pub fn with_threads(spec: ClusterSpec, cost: CostModel, threads: usize) -> Self {
        let hdfs = SimHdfs::new(spec.clone(), cost.clone());
        SimCluster {
            inner: Arc::new(ClusterInner {
                spec,
                cost,
                hdfs,
                metrics: Metrics::new(),
                registry: MetricsRegistry::new(),
                pool: ThreadPool::new(threads.max(1)),
                faults: FaultController::new(),
                sched: sync::Mutex::new(SchedState::new()),
            }),
        }
    }

    /// The cluster used throughout the paper: 12 nodes, two quad-core Xeons
    /// each (8 cores/node, 96 cores total), 24 GB memory per node.
    pub fn paper_cluster() -> Self {
        Self::new(ClusterSpec::paper(), CostModel::hadoop_era())
    }

    /// Cluster topology.
    pub fn spec(&self) -> &ClusterSpec {
        &self.inner.spec
    }

    /// Cost model used for all virtual-time conversions.
    pub fn cost(&self) -> &CostModel {
        &self.inner.cost
    }

    /// The simulated distributed file system.
    pub fn hdfs(&self) -> &SimHdfs {
        &self.inner.hdfs
    }

    /// Shared metrics sink (virtual clock, counters, event log).
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Typed metrics registry (named counters, gauges, histograms) fed by
    /// the engines' executor, shuffle, cache and fault paths.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// The real thread pool tasks execute on.
    pub fn pool(&self) -> &ThreadPool {
        &self.inner.pool
    }

    /// Fault injection controller (inert until a [`FaultPlan`] is set or a
    /// node is killed).
    pub fn faults(&self) -> &FaultController {
        &self.inner.faults
    }

    /// The execution-memory budget the governor enforces for this cluster,
    /// or `None` when the installed fault plan does not arm it (no
    /// `oom_prob`, no `mem_budget_override`) — the inert path charges and
    /// counts nothing, keeping unconstrained runs byte-identical.
    pub fn memory_budget(&self) -> Option<MemoryBudget> {
        if !self.inner.faults.active() {
            return None;
        }
        let plan = self.inner.faults.plan();
        let fraction = self.inner.sched.lock().config.storage_fraction;
        MemoryBudget::from_plan(&self.inner.spec, fraction, &self.inner.cost, &plan)
    }

    /// Convenience: a fresh [`VirtualScheduler`] for this cluster's current
    /// view of the topology — the bound job's executor grant (full cluster
    /// when unbound) and the configured locality wait.
    pub fn scheduler(&self) -> VirtualScheduler {
        let st = self.inner.sched.lock();
        let (lo, count) = match &st.binding {
            Some(t) => t.grant(),
            None => (0, self.inner.spec.nodes as usize),
        };
        VirtualScheduler::with_slice(
            self.inner.spec.clone(),
            SimDuration::from_secs(st.config.locality_wait),
            lo,
            count,
        )
    }

    /// Replace the scheduler configuration (locality wait, dynamic
    /// allocation, skew splitting). Takes effect on the next admission.
    pub fn set_scheduler_config(&self, config: SchedulerConfig) {
        self.inner.sched.lock().config = config;
    }

    /// Current scheduler configuration.
    pub fn scheduler_config(&self) -> SchedulerConfig {
        self.inner.sched.lock().config.clone()
    }

    /// Bind this cluster to a job in a shared [`JobQueue`]. Blocks until
    /// the job may start (immediately for fair pools; FIFO jobs wait for
    /// their predecessors), charges any FIFO queue time to the first stage,
    /// restricts every subsequent scheduler to the job's executor grant,
    /// and wires the queue's shared blacklist into fault handling.
    pub fn attach_job(&self, ticket: &JobTicket) {
        let offset = ticket.await_start();
        {
            let mut st = self.inner.sched.lock();
            st.binding = Some(ticket.clone());
            st.queue_pending = offset;
        }
        self.inner
            .faults
            .set_shared_blacklist(ticket.queue().shared_blacklist().clone(), ticket.id());
    }

    /// Acquire a job slot in `pool` for engine `name`. The returned guard
    /// attributes the job to per-pool counters and, if the cluster is bound
    /// to a [`JobQueue`] ticket, reports completion (at the final virtual
    /// time) when dropped — including on panic, so FIFO successors and the
    /// shared blacklist never wedge on a failed job. A bound cluster hosts
    /// one logical job; only the first completion report counts.
    pub fn acquire_job(&self, pool: &str, name: &str) -> JobGuard {
        let r = &self.inner.registry;
        r.counter("sched.jobs_submitted").inc(1);
        r.counter(&format!("sched.pool.{pool}.jobs")).inc(1);
        let _ = name;
        JobGuard {
            cluster: self.clone(),
        }
    }

    /// Admit one stage: returns the queue time to charge to it (non-zero
    /// only on a FIFO job's first stage) and the scheduler to place it
    /// with — restricted to the job's grant and, under dynamic allocation,
    /// to the currently ramped executor count.
    pub fn stage_admission(&self) -> (SimDuration, VirtualScheduler) {
        let mut st = self.inner.sched.lock();
        let now = self.inner.metrics.now();
        let (lo, full) = match &st.binding {
            Some(t) => t.grant(),
            None => (0, self.inner.spec.nodes as usize),
        };
        let wait = SimDuration::from_secs(st.config.locality_wait);
        let queue = std::mem::replace(&mut st.queue_pending, SimDuration::ZERO);
        let count = if st.config.ramp_interval > 0.0 {
            if !st.ran_stage {
                st.ramp_start = now;
            } else if st.config.executor_idle_timeout > 0.0
                && now.since(st.last_stage_end).as_secs() > st.config.executor_idle_timeout
                && st.executors_now > (st.config.initial_executors.max(1) as usize).min(full)
            {
                // The job went idle long enough to release its ramped
                // executors; start growing again from the initial count.
                st.ramp_start = now;
                self.inner.registry.counter("sched.idle_releases").inc(1);
            }
            let steps = (now.since(st.ramp_start).as_secs() / st.config.ramp_interval) as u32;
            let mut active = (st.config.initial_executors.max(1) as usize).min(full);
            for _ in 0..steps {
                if active >= full {
                    break;
                }
                active = (active * 2).min(full);
            }
            if st.ran_stage && active > st.executors_now {
                self.inner.registry.counter("sched.ramp_ups").inc(1);
            }
            st.executors_now = active;
            active
        } else {
            st.executors_now = full;
            full
        };
        (
            queue,
            VirtualScheduler::with_slice(self.inner.spec.clone(), wait, lo, count),
        )
    }

    /// Decide skew-aware splits for a stage about to be scheduled. The
    /// *previous* stage in the same label family (same shape: equal task
    /// count) supplies per-task duration estimates; any task whose estimate
    /// exceeds `skew_threshold × median(estimates)` is split into
    /// `min(ceil(estimate / median), max_skew_splits)` equal pieces for
    /// placement, so a straggler partition occupies several cores instead
    /// of setting the stage makespan alone. Returns one split count per
    /// task (`1` = unsplit). Always records the current durations as the
    /// next pass's estimates; with `skew_threshold == 0` (the default) the
    /// feature is off and every count is 1.
    pub fn plan_skew_splits(&self, family: &str, durations: &[SimDuration]) -> Vec<usize> {
        let mut st = self.inner.sched.lock();
        let threshold = st.config.skew_threshold;
        let max_splits = st.config.max_skew_splits.max(2) as usize;
        let prior = st.skew_history.insert(
            (family.to_string(), durations.len()),
            durations.iter().map(|d| d.as_secs()).collect(),
        );
        let unsplit = vec![1usize; durations.len()];
        if threshold <= 0.0 || durations.len() < 2 {
            return unsplit;
        }
        let Some(est) = prior else { return unsplit };
        let mut sorted = est.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        if median <= 0.0 {
            return unsplit;
        }
        est.iter()
            .map(|&e| {
                if e > threshold * median {
                    ((e / median).ceil() as usize).clamp(2, max_splits)
                } else {
                    1
                }
            })
            .collect()
    }

    /// Record one admitted stage's scheduler-side observability: its queue
    /// wait, the placement decision units spent, shared-blacklist hits and
    /// skew splits. Also touches every `sched.*` metric so manifests carry
    /// a stable name set whether or not the features fired.
    pub fn record_sched_stage(
        &self,
        queue: SimDuration,
        decision_units: u64,
        shared_hits: u64,
        skew_splits: u64,
    ) {
        let r = &self.inner.registry;
        r.counter("sched.stages_admitted").inc(1);
        r.counter("sched.decision_units").inc(decision_units);
        r.counter("sched.blacklist_shared_hits").inc(shared_hits);
        r.counter("sched.skew_splits").inc(skew_splits);
        r.counter("sched.ramp_ups").inc(0);
        r.counter("sched.idle_releases").inc(0);
        r.counter("sched.jobs_submitted").inc(0);
        r.counter("sched.jobs_completed").inc(0);
        r.histogram("sched.queue_wait_seconds")
            .observe(queue.as_secs());
        let mut st = self.inner.sched.lock();
        st.ran_stage = true;
        st.last_stage_end = self.inner.metrics.now();
        let execs = st.executors_now;
        drop(st);
        r.gauge("sched.executors_granted").set(execs as f64);
    }
}

/// RAII guard for one job acquired via [`SimCluster::acquire_job`].
pub struct JobGuard {
    cluster: SimCluster,
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        let c = &self.cluster;
        c.registry().counter("sched.jobs_completed").inc(1);
        let ticket = c.inner.sched.lock().binding.clone();
        if let Some(t) = ticket {
            t.complete(c.metrics().now().since(SimInstant::EPOCH));
        }
    }
}

impl std::fmt::Debug for SimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCluster")
            .field("spec", &self.inner.spec)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_topology() {
        let c = SimCluster::paper_cluster();
        assert_eq!(c.spec().nodes, 12);
        assert_eq!(c.spec().cores_per_node, 8);
        assert_eq!(c.spec().total_cores(), 96);
    }

    #[test]
    fn default_config_admits_the_full_cluster_with_no_queue() {
        let c = SimCluster::paper_cluster();
        let (queue, sched) = c.stage_admission();
        assert_eq!(queue, SimDuration::ZERO);
        assert_eq!(sched.node_slice(), (0, 12));
        assert_eq!(sched.locality_wait(), SimDuration::from_secs(0.3));
    }

    #[test]
    fn dynamic_allocation_ramps_executors_up_over_virtual_time() {
        let c = SimCluster::paper_cluster();
        c.set_scheduler_config(SchedulerConfig {
            ramp_interval: 1.0,
            initial_executors: 1,
            ..SchedulerConfig::default()
        });
        let (_, s0) = c.stage_admission();
        assert_eq!(s0.node_slice().1, 1, "ramp starts from initial_executors");
        c.record_sched_stage(SimDuration::ZERO, 0, 0, 0);
        c.metrics().advance(SimDuration::from_secs(2.5));
        let (_, s1) = c.stage_admission();
        // Two full ramp intervals elapsed: 1 → 2 → 4 executors.
        assert_eq!(s1.node_slice().1, 4);
        c.record_sched_stage(SimDuration::ZERO, 0, 0, 0);
        assert!(c.registry().counter("sched.ramp_ups").get() >= 1);
        c.metrics().advance(SimDuration::from_secs(60.0));
        c.set_scheduler_config(SchedulerConfig {
            ramp_interval: 1.0,
            initial_executors: 1,
            executor_idle_timeout: 10.0,
            ..SchedulerConfig::default()
        });
        let (_, s2) = c.stage_admission();
        // Idle past the timeout: ramped executors released, growth restarts.
        assert_eq!(s2.node_slice().1, 1);
        assert_eq!(c.registry().counter("sched.idle_releases").get(), 1);
    }

    #[test]
    fn skew_splits_come_from_prior_pass_estimates() {
        let c = SimCluster::paper_cluster();
        c.set_scheduler_config(SchedulerConfig {
            skew_threshold: 2.0,
            max_skew_splits: 4,
            ..SchedulerConfig::default()
        });
        let durs: Vec<SimDuration> = [1.0, 1.0, 1.0, 10.0]
            .iter()
            .map(|&s| SimDuration::from_secs(s))
            .collect();
        // First pass: no history yet, nothing splits.
        assert_eq!(c.plan_skew_splits("pass", &durs), vec![1, 1, 1, 1]);
        // Second pass: the 10s straggler is 10× the 1s median → capped split.
        assert_eq!(c.plan_skew_splits("pass", &durs), vec![1, 1, 1, 4]);
        // A different family (or shape) has its own history.
        assert_eq!(c.plan_skew_splits("other", &durs), vec![1, 1, 1, 1]);
    }

    #[test]
    fn default_config_never_splits() {
        let c = SimCluster::paper_cluster();
        let durs: Vec<SimDuration> = [1.0, 100.0]
            .iter()
            .map(|&s| SimDuration::from_secs(s))
            .collect();
        assert_eq!(c.plan_skew_splits("f", &durs), vec![1, 1]);
        assert_eq!(c.plan_skew_splits("f", &durs), vec![1, 1]);
    }

    #[test]
    fn job_guard_reports_completion_once() {
        let c = SimCluster::paper_cluster();
        let q = JobQueue::new(c.spec().nodes);
        let t = q.submit("default", "job");
        c.attach_job(&t);
        {
            let _g = c.acquire_job("default", "yafim");
        }
        assert_eq!(q.jobs_completed(), 1);
        assert_eq!(c.registry().counter("sched.jobs_submitted").get(), 1);
        assert_eq!(c.registry().counter("sched.jobs_completed").get(), 1);
        assert_eq!(c.registry().counter("sched.pool.default.jobs").get(), 1);
    }

    #[test]
    fn cluster_is_cheaply_cloneable() {
        let c = SimCluster::paper_cluster();
        let c2 = c.clone();
        c.metrics().advance(SimDuration::from_secs(1.0));
        // Clones share the same metrics sink.
        assert_eq!(c2.metrics().now().as_secs(), 1.0);
    }
}
