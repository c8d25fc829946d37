//! Deterministic fault injection and Spark-style recovery scheduling.
//!
//! The paper's fault-tolerance story (§II.B) is lineage: lost data is
//! recomputed, not replicated. To *exercise* that story the cluster needs
//! failures, and to keep experiments bit-for-bit reproducible the failures
//! must be part of the virtual timeline, not the host's. A [`FaultPlan`] is
//! a seeded description of everything that goes wrong in a run:
//!
//! * **task crashes** — attempt `a` of partition `p` in stage `s` crashes
//!   iff a hash of `(seed, s, p, a)` falls under the crash probability, so
//!   the same plan always kills the same attempts;
//! * **node losses** — a node dies at a fixed virtual instant; running
//!   attempts fail at the instant of death, and the node takes no further
//!   tasks (engines additionally invalidate its cached partitions and
//!   shuffle map outputs);
//! * **slow nodes** — a degradation factor stretches every task the node
//!   runs, modelling the heterogeneous/degraded workers of Aouad et al.;
//! * **transient fetch failures** — a shuffle fetch or HDFS/checkpoint block
//!   read fails *transiently* (network hiccup, busy serving node) and is
//!   retried in place with deterministic exponential backoff + seeded
//!   jitter; only after [`FaultPlan::fetch_retries`] retries exhaust does
//!   the failure escalate to real data-loss recovery (map-output
//!   resubmission / remote-replica reads).
//!
//! Node losses are *detected*, not oracle-known: nodes emit virtual-time
//! heartbeats every [`FaultPlan::heartbeat_interval`], and the driver only
//! declares a node lost once [`FaultPlan::heartbeat_timeout`] elapses past
//! its last beat (with a zero timeout — the default — detection is
//! instantaneous, preserving the PR 2 behaviour bit-for-bit).
//!
//! The [`FaultController`] evaluates a plan while scheduling a stage: failed
//! attempts are retried after a resubmission delay (up to
//! [`FaultPlan::max_task_failures`], Spark's default 4), nodes accumulating
//! failures are blacklisted (stage-scoped by default; across stages with an
//! expiry when [`FaultPlan::blacklist_expiry`] is set), and — when
//! speculative execution is enabled — straggler attempts on slow nodes get
//! a duplicate launched on a healthy node, first finisher wins. Real data
//! processing still happens exactly once on the host pool; failures exist
//! purely on the virtual timeline, so mining results stay byte-identical
//! while virtual time grows.

use crate::hash::{fx_hash64, FxHashMap, FxHashSet};
use crate::hdfs::DfsError;
use crate::json::JsonValue;
use crate::memgov::MemoryRefusal;
use crate::sched::{
    DetailedSchedule, HeartbeatMonitor, ScheduleOutcome, TaskPlacement, TaskSpec, VirtualScheduler,
};
use crate::spec::NodeId;
use crate::sync::Mutex;
use crate::time::{SimDuration, SimInstant};
use std::sync::Arc;

/// Spark's default `spark.task.maxFailures`.
pub const DEFAULT_MAX_TASK_FAILURES: u32 = 4;
/// Delay before a failed task is resubmitted (scheduler round-trip).
pub const DEFAULT_RESUBMIT_DELAY: f64 = 0.2;
/// A surviving attempt this many times slower than the stage median gets a
/// speculative copy (Spark's `spark.speculation.multiplier`).
pub const DEFAULT_SPECULATION_MULTIPLIER: f64 = 1.5;
/// Crash failures on one node before it stops receiving tasks.
pub const DEFAULT_BLACKLIST_AFTER: u32 = 3;
/// In-place retries of a transient fetch before escalating to data-loss
/// recovery (Spark's `spark.shuffle.io.maxRetries`).
pub const DEFAULT_FETCH_RETRIES: u32 = 3;
/// Base of the exponential retry backoff, seconds (Spark's
/// `spark.shuffle.io.retryWait` is 5s; scaled to this simulator's stages).
pub const DEFAULT_FETCH_BACKOFF_BASE: f64 = 0.05;
/// Virtual seconds between node heartbeats.
pub const DEFAULT_HEARTBEAT_INTERVAL: f64 = 0.5;

/// Which storage tier a silent corruption hits. Each tier checksums its
/// blocks at write time and verifies at read time; the tier determines both
/// the hash domain of the seeded corruption roll and the repair ladder the
/// reader walks on a mismatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IntegrityTier {
    /// Shuffle map output buckets ([`crate::SimCluster`]-side registry).
    Shuffle,
    /// Cached / spilled RDD partitions.
    Cache,
    /// SimHdfs file blocks and checkpoint replicas.
    Hdfs,
}

impl IntegrityTier {
    /// Hash-domain tag separating the tiers' corruption rolls.
    fn tag(self) -> u64 {
        match self {
            IntegrityTier::Shuffle => 0xbadd,
            IntegrityTier::Cache => 0xbadc,
            IntegrityTier::Hdfs => 0xbadf,
        }
    }

    /// Stable lowercase name (JSON encoding).
    pub fn name(self) -> &'static str {
        match self {
            IntegrityTier::Shuffle => "shuffle",
            IntegrityTier::Cache => "cache",
            IntegrityTier::Hdfs => "hdfs",
        }
    }

    /// Parse the JSON encoding produced by [`IntegrityTier::name`].
    pub fn parse(s: &str) -> Option<IntegrityTier> {
        match s {
            "shuffle" => Some(IntegrityTier::Shuffle),
            "cache" => Some(IntegrityTier::Cache),
            "hdfs" => Some(IntegrityTier::Hdfs),
            _ => None,
        }
    }
}

/// A seeded, fully deterministic description of the faults injected into one
/// run. Built with the `with_*`/`crash_*`/`lose_*` chainable constructors.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed for all pseudo-random crash decisions.
    pub seed: u64,
    /// Probability that any given task attempt crashes partway through.
    pub task_crash_prob: f64,
    /// Attempts a task may burn on crashes before the stage aborts.
    pub max_task_failures: u32,
    /// Virtual delay between a failure and the retry launch.
    pub resubmit_delay: SimDuration,
    /// Nodes that die, with their virtual time of death.
    pub node_losses: Vec<(NodeId, SimInstant)>,
    /// Nodes running slow: every task duration is multiplied by the factor.
    pub slow_nodes: Vec<(NodeId, f64)>,
    /// Launch duplicate attempts for stragglers on slow nodes.
    pub speculation: bool,
    /// Straggler threshold relative to the stage's median task duration.
    pub speculation_multiplier: f64,
    /// Crash failures on one node before it is blacklisted.
    pub blacklist_after: u32,
    /// Probability that one shuffle fetch fails transiently (per reduce
    /// partition, retried in place with backoff).
    pub fetch_failure_prob: f64,
    /// Probability that one HDFS / checkpoint block read fails transiently.
    pub hdfs_failure_prob: f64,
    /// In-place retries of a transient fetch before escalation.
    pub fetch_retries: u32,
    /// Base of the exponential retry backoff (attempt `a` waits
    /// `base * 2^a * (1 + jitter)` with seeded jitter in `[0, 1)`).
    pub fetch_backoff_base: SimDuration,
    /// Virtual interval between node heartbeats.
    pub heartbeat_interval: SimDuration,
    /// How long past a node's last heartbeat the driver waits before
    /// declaring it lost. Zero (the default) means instant, oracle-style
    /// detection — exactly the pre-heartbeat behaviour.
    pub heartbeat_timeout: SimDuration,
    /// How long a blacklist entry outlives the failures that earned it.
    /// Zero (the default) keeps blacklisting stage-scoped; a nonzero expiry
    /// carries entries across stages and lets healed nodes return.
    pub blacklist_expiry: SimDuration,
    /// Engine hint: checkpoint the iterated RDD every this many passes
    /// (0 = never). Engines read it when their own config does not set an
    /// interval, so a saved chaos plan can turn checkpointing on by itself.
    pub checkpoint_interval: usize,
    /// Probability that one shuffle map-output bucket rots silently (rolled
    /// per (shuffle, reduce partition) at read time, seed-deterministic).
    pub shuffle_corruption_prob: f64,
    /// Probability that one cached / spilled partition rots silently.
    pub cache_corruption_prob: f64,
    /// Probability that one HDFS / checkpoint block *replica* rots silently
    /// (rolled per replica, so surviving copies can repair the read).
    pub hdfs_corruption_prob: f64,
    /// Deterministic targeted corruptions: `(tier, id, partition, copies)`
    /// poisons the first `copies` replicas of that exact block
    /// (`u32::MAX` = all replicas, leaving no clean copy at that site).
    pub targeted_corruptions: Vec<(IntegrityTier, u64, usize, u32)>,
    /// Probability that one execution-memory acquisition is denied as if
    /// the executor ran out of memory (rolled per acquisition,
    /// seed-deterministic). Degradable sites spill and survive; the rest
    /// kill the attempt for a retry at a doubled memory slice.
    pub oom_prob: f64,
    /// Pretend every node has this many bytes of memory instead of the
    /// cluster spec's `memory_per_node`. Arms the memory governor even
    /// without `oom_prob`, so tight budgets exercise the real (non-injected)
    /// pressure ladder.
    pub mem_budget_override: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::seeded(0)
    }
}

impl FaultPlan {
    /// An inert plan (no faults) carrying `seed` for later crash settings.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            task_crash_prob: 0.0,
            max_task_failures: DEFAULT_MAX_TASK_FAILURES,
            resubmit_delay: SimDuration::from_secs(DEFAULT_RESUBMIT_DELAY),
            node_losses: Vec::new(),
            slow_nodes: Vec::new(),
            speculation: false,
            speculation_multiplier: DEFAULT_SPECULATION_MULTIPLIER,
            blacklist_after: DEFAULT_BLACKLIST_AFTER,
            fetch_failure_prob: 0.0,
            hdfs_failure_prob: 0.0,
            fetch_retries: DEFAULT_FETCH_RETRIES,
            fetch_backoff_base: SimDuration::from_secs(DEFAULT_FETCH_BACKOFF_BASE),
            heartbeat_interval: SimDuration::from_secs(DEFAULT_HEARTBEAT_INTERVAL),
            heartbeat_timeout: SimDuration::ZERO,
            blacklist_expiry: SimDuration::ZERO,
            checkpoint_interval: 0,
            shuffle_corruption_prob: 0.0,
            cache_corruption_prob: 0.0,
            hdfs_corruption_prob: 0.0,
            targeted_corruptions: Vec::new(),
            oom_prob: 0.0,
            mem_budget_override: None,
        }
    }

    /// Crash each task attempt with probability `prob` (seed-deterministic).
    pub fn crash_tasks(mut self, prob: f64) -> Self {
        self.task_crash_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Kill `node` at virtual instant `at`.
    pub fn lose_node_at(mut self, node: NodeId, at: SimInstant) -> Self {
        self.node_losses.push((node, at));
        self
    }

    /// Degrade `node`: its tasks run `factor`× slower.
    pub fn slow_node(mut self, node: NodeId, factor: f64) -> Self {
        self.slow_nodes.push((node, factor.max(1.0)));
        self
    }

    /// Enable speculative execution for straggler attempts.
    pub fn with_speculation(mut self) -> Self {
        self.speculation = true;
        self
    }

    /// Override the per-task retry budget.
    pub fn with_max_task_failures(mut self, n: u32) -> Self {
        self.max_task_failures = n.max(1);
        self
    }

    /// Override the resubmission delay.
    pub fn with_resubmit_delay(mut self, d: SimDuration) -> Self {
        self.resubmit_delay = d;
        self
    }

    /// Override the blacklisting threshold.
    pub fn with_blacklist_after(mut self, n: u32) -> Self {
        self.blacklist_after = n.max(1);
        self
    }

    /// Fail each shuffle fetch transiently with probability `prob`.
    pub fn flaky_fetches(mut self, prob: f64) -> Self {
        self.fetch_failure_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Fail each HDFS / checkpoint block read transiently with probability
    /// `prob`.
    pub fn flaky_hdfs(mut self, prob: f64) -> Self {
        self.hdfs_failure_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Override the in-place retry budget for transient fetches.
    pub fn with_fetch_retries(mut self, n: u32) -> Self {
        self.fetch_retries = n;
        self
    }

    /// Override the exponential-backoff base.
    pub fn with_fetch_backoff_base(mut self, d: SimDuration) -> Self {
        self.fetch_backoff_base = d;
        self
    }

    /// Detect node losses by missed heartbeats: beats every `interval`,
    /// declared lost `timeout` past the last beat.
    pub fn with_heartbeat(mut self, interval: SimDuration, timeout: SimDuration) -> Self {
        self.heartbeat_interval = interval.max(SimDuration::from_secs(1e-6));
        self.heartbeat_timeout = timeout;
        self
    }

    /// Carry blacklist entries across stages, expiring after `d`.
    pub fn with_blacklist_expiry(mut self, d: SimDuration) -> Self {
        self.blacklist_expiry = d;
        self
    }

    /// Suggest checkpointing the iterated RDD every `passes` passes to
    /// engines whose own config leaves the interval unset.
    pub fn with_checkpoint_interval(mut self, passes: usize) -> Self {
        self.checkpoint_interval = passes;
        self
    }

    /// Rot shuffle map-output buckets with probability `prob` per
    /// (shuffle, reduce partition), seed-deterministically.
    pub fn corrupt_shuffle(mut self, prob: f64) -> Self {
        self.shuffle_corruption_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Rot cached / spilled partitions with probability `prob`.
    pub fn corrupt_cache(mut self, prob: f64) -> Self {
        self.cache_corruption_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Rot HDFS / checkpoint block replicas with probability `prob` per
    /// replica.
    pub fn corrupt_hdfs(mut self, prob: f64) -> Self {
        self.hdfs_corruption_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Poison exactly one copy (the first replica) of the identified block.
    pub fn corrupt_block(mut self, tier: IntegrityTier, id: u64, partition: usize) -> Self {
        self.targeted_corruptions.push((tier, id, partition, 1));
        self
    }

    /// Poison *every* replica of the identified block, leaving no clean
    /// copy at that site — the reader must fall back to lineage or fail.
    pub fn corrupt_all_replicas(mut self, tier: IntegrityTier, id: u64, partition: usize) -> Self {
        self.targeted_corruptions
            .push((tier, id, partition, u32::MAX));
        self
    }

    /// Deny each execution-memory acquisition with probability `prob`,
    /// seed-deterministically.
    pub fn inject_oom(mut self, prob: f64) -> Self {
        self.oom_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Cap every node's memory at `bytes` for this run (arms the governor).
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.mem_budget_override = Some(bytes);
        self
    }

    /// True when the plan constrains or disturbs execution memory: the
    /// memory governor arms itself (and starts charging and counting) only
    /// then, keeping unconstrained timelines byte-identical.
    pub fn memory_active(&self) -> bool {
        self.oom_prob > 0.0 || self.mem_budget_override.is_some()
    }

    /// Seed-deterministic OOM decision for one execution-memory acquisition
    /// attempt. `roll` indexes the acquisition within its task, `site` tags
    /// the kind of structure being built, and `attempt` is the retry index —
    /// each retry runs at a doubled memory slice, so the injected
    /// probability halves per attempt. Pure: the same plan always denies
    /// the same acquisitions.
    pub fn oom_roll(
        &self,
        stage_key: u64,
        partition: usize,
        roll: u64,
        site: u64,
        attempt: u32,
    ) -> bool {
        crate::memgov::oom_roll_hash(
            self.seed,
            self.oom_prob,
            stage_key,
            partition,
            roll,
            site,
            attempt,
        )
    }

    /// True when the plan can inject silent corruption anywhere. Readers
    /// use this to skip checksum verification (and its virtual-time charge)
    /// entirely on clean runs, keeping fault-free timelines byte-identical.
    pub fn integrity_active(&self) -> bool {
        self.shuffle_corruption_prob > 0.0
            || self.cache_corruption_prob > 0.0
            || self.hdfs_corruption_prob > 0.0
            || !self.targeted_corruptions.is_empty()
    }

    /// Seed-deterministic corruption decision for one stored copy of one
    /// block: `copy` indexes the replica (0 for single-copy tiers). Pure —
    /// the same plan always rots the same copies; see
    /// [`FaultController::take_corruption`] for the repair-aware wrapper.
    pub fn corruption_roll(
        &self,
        tier: IntegrityTier,
        id: u64,
        partition: usize,
        copy: u32,
    ) -> bool {
        for (t, tid, part, copies) in &self.targeted_corruptions {
            if *t == tier && *tid == id && *part == partition && copy < *copies {
                return true;
            }
        }
        let prob = match tier {
            IntegrityTier::Shuffle => self.shuffle_corruption_prob,
            IntegrityTier::Cache => self.cache_corruption_prob,
            IntegrityTier::Hdfs => self.hdfs_corruption_prob,
        };
        if prob <= 0.0 {
            return false;
        }
        let key = (self.seed, tier.tag(), id, partition as u64, copy as u64);
        let roll = (fx_hash64(&key) >> 11) as f64 / (1u64 << 53) as f64;
        roll < prob
    }

    /// True when the plan can actually disturb a run.
    pub fn has_faults(&self) -> bool {
        self.task_crash_prob > 0.0
            || !self.node_losses.is_empty()
            || self.slow_nodes.iter().any(|(_, f)| *f > 1.0)
            || self.fetch_failure_prob > 0.0
            || self.hdfs_failure_prob > 0.0
            || self.integrity_active()
            || self.memory_active()
    }

    /// The virtual instant at which the driver *detects* a death at `death`:
    /// the heartbeat timeout past the victim's last beat, never earlier than
    /// the death itself. With a zero timeout this is `death` exactly.
    pub fn detection_instant(&self, death: SimInstant) -> SimInstant {
        if self.heartbeat_timeout == SimDuration::ZERO {
            return death;
        }
        HeartbeatMonitor::new(self.heartbeat_interval, self.heartbeat_timeout)
            .detection_instant(death)
    }

    /// Walk the deterministic retry ladder for one transient-failure site
    /// (shuffle fetch or HDFS block read), identified by `(kind, id,
    /// partition)`. Every decision hashes the plan seed, so the same plan
    /// always produces the same retries, backoff, and escalation.
    pub fn transient_outcome(
        &self,
        kind: TransientKind,
        id: u64,
        partition: usize,
    ) -> TransientOutcome {
        let prob = match kind {
            TransientKind::ShuffleFetch => self.fetch_failure_prob,
            TransientKind::HdfsRead => self.hdfs_failure_prob,
        };
        let mut out = TransientOutcome::default();
        if prob <= 0.0 {
            return out;
        }
        let tag: u64 = match kind {
            TransientKind::ShuffleFetch => 0x7fe7,
            TransientKind::HdfsRead => 0xdf5d,
        };
        for attempt in 0..=self.fetch_retries {
            let key = (self.seed, tag, id, partition as u64, attempt as u64);
            let roll = (fx_hash64(&key) >> 11) as f64 / (1u64 << 53) as f64;
            if roll >= prob {
                return out; // this attempt got through
            }
            if attempt == self.fetch_retries {
                out.escalated = true;
                return out;
            }
            out.retries += 1;
            let jitter = (fx_hash64(&(key, 0xb0ffu64)) >> 11) as f64 / (1u64 << 53) as f64;
            let backoff = self.fetch_backoff_base.as_secs()
                * (1u64 << attempt.min(20)) as f64
                * (1.0 + jitter);
            out.backoff_micros += (backoff * 1e6).round() as u64;
        }
        out
    }

    /// Serialize the plan through the hand-rolled JSON layer. Round-trips
    /// exactly through [`FaultPlan::from_json`] (float formatting is
    /// shortest-round-trip).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("seed", self.seed.into()),
            ("task_crash_prob", self.task_crash_prob.into()),
            (
                "max_task_failures",
                u64::from(self.max_task_failures).into(),
            ),
            ("resubmit_delay", self.resubmit_delay.as_secs().into()),
            (
                "node_losses",
                JsonValue::Array(
                    self.node_losses
                        .iter()
                        .map(|(n, t)| {
                            JsonValue::Array(vec![
                                u64::from(n.0).into(),
                                t.since(SimInstant::EPOCH).as_secs().into(),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "slow_nodes",
                JsonValue::Array(
                    self.slow_nodes
                        .iter()
                        .map(|(n, f)| JsonValue::Array(vec![u64::from(n.0).into(), (*f).into()]))
                        .collect(),
                ),
            ),
            ("speculation", JsonValue::Bool(self.speculation)),
            ("speculation_multiplier", self.speculation_multiplier.into()),
            ("blacklist_after", u64::from(self.blacklist_after).into()),
            ("fetch_failure_prob", self.fetch_failure_prob.into()),
            ("hdfs_failure_prob", self.hdfs_failure_prob.into()),
            ("fetch_retries", u64::from(self.fetch_retries).into()),
            (
                "fetch_backoff_base",
                self.fetch_backoff_base.as_secs().into(),
            ),
            (
                "heartbeat_interval",
                self.heartbeat_interval.as_secs().into(),
            ),
            ("heartbeat_timeout", self.heartbeat_timeout.as_secs().into()),
            ("blacklist_expiry", self.blacklist_expiry.as_secs().into()),
            ("checkpoint_interval", self.checkpoint_interval.into()),
            (
                "shuffle_corruption_prob",
                self.shuffle_corruption_prob.into(),
            ),
            ("cache_corruption_prob", self.cache_corruption_prob.into()),
            ("hdfs_corruption_prob", self.hdfs_corruption_prob.into()),
            (
                "targeted_corruptions",
                JsonValue::Array(
                    self.targeted_corruptions
                        .iter()
                        .map(|(tier, id, part, copies)| {
                            JsonValue::Array(vec![
                                tier.name().into(),
                                (*id).into(),
                                (*part).into(),
                                u64::from(*copies).into(),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("oom_prob", self.oom_prob.into()),
            (
                "mem_budget_override",
                match self.mem_budget_override {
                    Some(b) => b.into(),
                    None => JsonValue::Null,
                },
            ),
        ])
    }

    /// Parse a plan from the JSON produced by [`FaultPlan::to_json`]. Every
    /// field is optional and falls back to [`FaultPlan::seeded`] defaults,
    /// so hand-written plans can stay minimal — but unknown fields are
    /// rejected by name, so a typo (`fetch_retrys`) fails loudly instead of
    /// silently running with the default.
    pub fn from_json(v: &JsonValue) -> Result<FaultPlan, String> {
        const KNOWN_FIELDS: &[&str] = &[
            "seed",
            "task_crash_prob",
            "max_task_failures",
            "resubmit_delay",
            "node_losses",
            "slow_nodes",
            "speculation",
            "speculation_multiplier",
            "blacklist_after",
            "fetch_failure_prob",
            "hdfs_failure_prob",
            "fetch_retries",
            "fetch_backoff_base",
            "heartbeat_interval",
            "heartbeat_timeout",
            "blacklist_expiry",
            "checkpoint_interval",
            "shuffle_corruption_prob",
            "cache_corruption_prob",
            "hdfs_corruption_prob",
            "targeted_corruptions",
            "oom_prob",
            "mem_budget_override",
        ];
        let obj = match v {
            JsonValue::Object(map) => {
                for key in map.keys() {
                    if !KNOWN_FIELDS.contains(&key.as_str()) {
                        return Err(format!(
                            "unknown fault plan field `{key}` (known fields: {})",
                            KNOWN_FIELDS.join(", ")
                        ));
                    }
                }
                v
            }
            other => return Err(format!("fault plan must be a JSON object, got {other}")),
        };
        let num = |name: &str| obj.get(name).and_then(JsonValue::as_f64);
        let seed = num("seed").unwrap_or(0.0) as u64;
        let mut plan = FaultPlan::seeded(seed);
        if let Some(p) = num("task_crash_prob") {
            plan.task_crash_prob = p.clamp(0.0, 1.0);
        }
        if let Some(n) = num("max_task_failures") {
            plan.max_task_failures = (n as u32).max(1);
        }
        if let Some(s) = num("resubmit_delay") {
            plan.resubmit_delay = SimDuration::from_secs(s);
        }
        if let Some(JsonValue::Array(items)) = obj.get("node_losses") {
            for item in items {
                let pair = item
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("node_losses entry must be [node, secs]: {item}"))?;
                let node = pair[0]
                    .as_f64()
                    .ok_or_else(|| format!("bad node id: {}", pair[0]))?;
                let at = pair[1]
                    .as_f64()
                    .ok_or_else(|| format!("bad loss instant: {}", pair[1]))?;
                plan.node_losses.push((
                    NodeId(node as u32),
                    SimInstant::EPOCH + SimDuration::from_secs(at),
                ));
            }
        }
        if let Some(JsonValue::Array(items)) = obj.get("slow_nodes") {
            for item in items {
                let pair = item
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("slow_nodes entry must be [node, factor]: {item}"))?;
                let node = pair[0]
                    .as_f64()
                    .ok_or_else(|| format!("bad node id: {}", pair[0]))?;
                let factor = pair[1]
                    .as_f64()
                    .ok_or_else(|| format!("bad slow factor: {}", pair[1]))?;
                plan.slow_nodes.push((NodeId(node as u32), factor.max(1.0)));
            }
        }
        if let Some(JsonValue::Bool(b)) = obj.get("speculation") {
            plan.speculation = *b;
        }
        if let Some(m) = num("speculation_multiplier") {
            plan.speculation_multiplier = m;
        }
        if let Some(n) = num("blacklist_after") {
            plan.blacklist_after = (n as u32).max(1);
        }
        if let Some(p) = num("fetch_failure_prob") {
            plan.fetch_failure_prob = p.clamp(0.0, 1.0);
        }
        if let Some(p) = num("hdfs_failure_prob") {
            plan.hdfs_failure_prob = p.clamp(0.0, 1.0);
        }
        if let Some(n) = num("fetch_retries") {
            plan.fetch_retries = n as u32;
        }
        if let Some(s) = num("fetch_backoff_base") {
            plan.fetch_backoff_base = SimDuration::from_secs(s);
        }
        if let Some(s) = num("heartbeat_interval") {
            plan.heartbeat_interval = SimDuration::from_secs(s.max(1e-6));
        }
        if let Some(s) = num("heartbeat_timeout") {
            plan.heartbeat_timeout = SimDuration::from_secs(s);
        }
        if let Some(s) = num("blacklist_expiry") {
            plan.blacklist_expiry = SimDuration::from_secs(s);
        }
        if let Some(n) = num("checkpoint_interval") {
            plan.checkpoint_interval = n as usize;
        }
        if let Some(p) = num("shuffle_corruption_prob") {
            plan.shuffle_corruption_prob = p.clamp(0.0, 1.0);
        }
        if let Some(p) = num("cache_corruption_prob") {
            plan.cache_corruption_prob = p.clamp(0.0, 1.0);
        }
        if let Some(p) = num("hdfs_corruption_prob") {
            plan.hdfs_corruption_prob = p.clamp(0.0, 1.0);
        }
        if let Some(p) = num("oom_prob") {
            plan.oom_prob = p.clamp(0.0, 1.0);
        }
        if let Some(b) = num("mem_budget_override") {
            plan.mem_budget_override = Some(b as u64);
        }
        if let Some(JsonValue::Array(items)) = obj.get("targeted_corruptions") {
            for item in items {
                let entry = item.as_array().filter(|e| e.len() == 4).ok_or_else(|| {
                    format!(
                        "targeted_corruptions entry must be [tier, id, partition, copies]: {item}"
                    )
                })?;
                let tier = entry[0]
                    .as_str()
                    .and_then(IntegrityTier::parse)
                    .ok_or_else(|| {
                        format!(
                            "bad corruption tier {} (expected \"shuffle\", \"cache\" or \"hdfs\")",
                            entry[0]
                        )
                    })?;
                let id = entry[1]
                    .as_f64()
                    .ok_or_else(|| format!("bad corruption id: {}", entry[1]))?;
                let part = entry[2]
                    .as_f64()
                    .ok_or_else(|| format!("bad corruption partition: {}", entry[2]))?;
                let copies = entry[3]
                    .as_f64()
                    .ok_or_else(|| format!("bad corruption copy count: {}", entry[3]))?;
                plan.targeted_corruptions.push((
                    tier,
                    id as u64,
                    part as usize,
                    (copies as u64).min(u64::from(u32::MAX)) as u32,
                ));
            }
        }
        Ok(plan)
    }

    /// Deterministic crash decision for one attempt: `Some(fraction)` means
    /// the attempt crashes after running that fraction of its duration.
    fn crash_point(&self, stage_seed: u64, partition: usize, attempt: u32) -> Option<f64> {
        if self.task_crash_prob <= 0.0 {
            return None;
        }
        let key = (self.seed, stage_seed, partition as u64, attempt as u64);
        let roll = (fx_hash64(&key) >> 11) as f64 / (1u64 << 53) as f64;
        if roll >= self.task_crash_prob {
            return None;
        }
        let frac_bits = fx_hash64(&(key, 0x5eedu64));
        Some(0.1 + 0.8 * ((frac_bits >> 11) as f64 / (1u64 << 53) as f64))
    }

    fn slow_factor(&self, node: NodeId) -> f64 {
        self.slow_nodes
            .iter()
            .find(|(n, _)| *n == node)
            .map_or(1.0, |(_, f)| f.max(1.0))
    }
}

/// Which kind of remote read a transient failure hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransientKind {
    /// A reduce task fetching shuffle map output.
    ShuffleFetch,
    /// A task reading an HDFS or checkpoint block.
    HdfsRead,
}

/// The deterministic result of one transient-failure retry ladder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransientOutcome {
    /// Failed attempts that were retried in place.
    pub retries: u64,
    /// Total backoff waited between attempts, in virtual microseconds.
    pub backoff_micros: u64,
    /// All retries failed: the caller must escalate to data-loss recovery
    /// (map-output resubmission, remote-replica read).
    pub escalated: bool,
}

impl TransientOutcome {
    /// True when the ladder did anything at all.
    pub fn any(&self) -> bool {
        *self != TransientOutcome::default()
    }
}

/// Silent-corruption bookkeeping: how many blocks rotted, how many rotted
/// blocks a reader caught (detection is at read time, so the two are equal
/// whenever every rotten block is actually read — rot that is never read is
/// unobservable by construction), and which rung of the repair ladder fixed
/// each one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrityCounters {
    /// Stored copies whose checksum was poisoned by the plan and observed
    /// by a reader.
    pub corruptions_injected: u64,
    /// Checksum mismatches caught at read time (always == injected: every
    /// verified read of a rotten copy detects it).
    pub corruptions_detected: u64,
    /// Detected corruptions repaired from *some* clean source.
    pub corruptions_repaired: u64,
    /// Repairs served by re-fetching a surviving replica (HDFS blocks,
    /// checkpoint copies).
    pub repaired_via_replica: u64,
    /// Repairs served by evicting the poisoned copy and recomputing it
    /// through the lineage inside the running task.
    pub repaired_via_recompute: u64,
    /// Repairs served by resubmitting the producing map stage (shuffle
    /// buckets have no replica — the map task is re-run).
    pub repaired_via_resubmit: u64,
}

impl IntegrityCounters {
    /// Merge another set of counters into this one.
    pub fn merge(&mut self, other: &IntegrityCounters) {
        self.corruptions_injected += other.corruptions_injected;
        self.corruptions_detected += other.corruptions_detected;
        self.corruptions_repaired += other.corruptions_repaired;
        self.repaired_via_replica += other.repaired_via_replica;
        self.repaired_via_recompute += other.repaired_via_recompute;
        self.repaired_via_resubmit += other.repaired_via_resubmit;
    }

    /// True when any counter is nonzero.
    pub fn any(&self) -> bool {
        *self != IntegrityCounters::default()
    }
}

/// Execution-memory governor bookkeeping: how hard the budget was pushed
/// and which rung of the degradation ladder absorbed the pressure. An OOM
/// event (seeded injection or a real over-budget acquisition) is either
/// survived by degradation (a forced spill) or kills the task attempt, so
/// `oom_injected == oom_killed + oom_survived_by_degradation` always holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryCounters {
    /// Highest execution memory any single task held at once, bytes
    /// (merged with `max`, not summed — it is compared to the budget).
    pub peak_execution_bytes: u64,
    /// Buffers spilled to local disk under memory pressure.
    pub spills: u64,
    /// Bytes those spills moved through local disk.
    pub spill_bytes: u64,
    /// Pass-granularity matcher step-downs (bitmap → hash tree)
    /// taken because the preferred structure's footprint estimate did not
    /// fit the budget.
    pub degradations: u64,
    /// OOM events raised by the plan: seeded `oom_prob` denials plus real
    /// over-budget acquisitions under `mem_budget_override`.
    pub oom_injected: u64,
    /// OOM events that killed a task attempt (retried at a doubled slice).
    pub oom_killed: u64,
    /// OOM events a degradable site absorbed by spilling instead of dying.
    pub oom_survived_by_degradation: u64,
}

impl MemoryCounters {
    /// Merge another set of counters into this one.
    pub fn merge(&mut self, other: &MemoryCounters) {
        self.peak_execution_bytes = self.peak_execution_bytes.max(other.peak_execution_bytes);
        self.spills += other.spills;
        self.spill_bytes += other.spill_bytes;
        self.degradations += other.degradations;
        self.oom_injected += other.oom_injected;
        self.oom_killed += other.oom_killed;
        self.oom_survived_by_degradation += other.oom_survived_by_degradation;
    }

    /// True when any counter is nonzero.
    pub fn any(&self) -> bool {
        *self != MemoryCounters::default()
    }
}

/// Failure/retry/speculation counters. Attached to every recorded stage and
/// aggregated by the metrics sink; the stage report prints them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Task attempts that crashed or died with their node.
    pub task_failures: u64,
    /// Attempts re-launched after a failure.
    pub task_retries: u64,
    /// Nodes lost.
    pub nodes_lost: u64,
    /// Nodes blacklisted after repeated failures.
    pub nodes_blacklisted: u64,
    /// Speculative duplicate attempts launched.
    pub speculative_launched: u64,
    /// Speculative attempts that finished before their original.
    pub speculative_wins: u64,
    /// Partitions recomputed through lineage / HDFS re-reads after data
    /// loss (cached partitions, shuffle map outputs, MR map re-executions).
    pub recomputed_partitions: u64,
    /// Shuffle map outputs found missing by a consumer.
    pub fetch_failures: u64,
    /// Broadcast re-distributions after an executor holding blocks died.
    pub broadcast_refetches: u64,
    /// Transient fetch failures retried in place (shuffle + HDFS).
    pub fetch_retries: u64,
    /// Virtual microseconds spent in retry backoff.
    pub backoff_micros: u64,
    /// Partition blocks written to checkpoint storage.
    pub checkpoint_writes: u64,
    /// Partition reads served from checkpoint storage instead of lineage
    /// replay.
    pub checkpoint_reads: u64,
    /// Deepest lineage chain any lost partition was recomputed through
    /// (merged with `max`, not summed — it bounds recovery work).
    pub max_replay_depth: u64,
    /// Silent-corruption detections and repairs (checksummed tiers).
    pub integrity: IntegrityCounters,
    /// Execution-memory pressure, spills and OOM outcomes (the governor).
    pub mem: MemoryCounters,
}

impl RecoveryCounters {
    /// Merge another set of counters into this one.
    pub fn merge(&mut self, other: &RecoveryCounters) {
        self.task_failures += other.task_failures;
        self.task_retries += other.task_retries;
        self.nodes_lost += other.nodes_lost;
        self.nodes_blacklisted += other.nodes_blacklisted;
        self.speculative_launched += other.speculative_launched;
        self.speculative_wins += other.speculative_wins;
        self.recomputed_partitions += other.recomputed_partitions;
        self.fetch_failures += other.fetch_failures;
        self.broadcast_refetches += other.broadcast_refetches;
        self.fetch_retries += other.fetch_retries;
        self.backoff_micros += other.backoff_micros;
        self.checkpoint_writes += other.checkpoint_writes;
        self.checkpoint_reads += other.checkpoint_reads;
        self.max_replay_depth = self.max_replay_depth.max(other.max_replay_depth);
        self.integrity.merge(&other.integrity);
        self.mem.merge(&other.mem);
    }

    /// True when any counter is nonzero.
    pub fn any(&self) -> bool {
        *self != RecoveryCounters::default()
    }
}

/// Why a fault-aware schedule could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// One task exhausted its retry budget.
    TaskAborted {
        /// Partition whose task kept failing.
        partition: usize,
        /// Crash failures accumulated.
        failures: u32,
        /// The budget that was exceeded.
        max_task_failures: u32,
    },
    /// No node is left alive (and un-blacklisted) to run a task.
    NoHealthyNodes {
        /// Partition that could not be placed.
        partition: usize,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::TaskAborted {
                partition,
                failures,
                max_task_failures,
            } => write!(
                f,
                "task for partition {partition} failed {failures} times, exceeding \
                 max_task_failures = {max_task_failures}; aborting the stage \
                 (raise FaultPlan::with_max_task_failures or lower the crash probability)"
            ),
            FaultError::NoHealthyNodes { partition } => write!(
                f,
                "no healthy node left to run partition {partition}: every node is \
                 dead or blacklisted"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// Why an engine job, and with it a mining run, could not complete. Every
/// distributed engine (RDD actions, MapReduce jobs and the miners built on
/// them) fails through this one type.
#[derive(Clone, Debug)]
pub enum ExecError {
    /// The input path is missing from (or already present in) simulated
    /// HDFS.
    Dfs(DfsError),
    /// A stage aborted: some task exhausted its retry budget or no healthy
    /// node was left to run it.
    StageAborted {
        /// Label of the stage that aborted (for MapReduce, the wave:
        /// `"<job>: map"` or `"<job>: reduce"`).
        stage: String,
        /// The underlying scheduler failure.
        source: FaultError,
    },
    /// A corrupted block could not be repaired: every replica is poisoned
    /// and no lineage reaches a clean copy (or, as a last tripwire, a
    /// mining level broke the Apriori invariants). The engine refuses to
    /// return possibly-wrong results.
    IntegrityFailure {
        /// What was corrupted and why it is unrepairable.
        detail: String,
    },
    /// A task exhausted its OOM retry ladder: even the whole-node memory
    /// slice (each retry doubles the grant, modelling reduced concurrency)
    /// could not satisfy an acquisition. The job is killed rather than
    /// returning a partial result.
    OutOfMemory {
        /// Label of the stage whose task died.
        stage: String,
        /// Partition whose task exhausted its retries.
        partition: usize,
        /// Acquisition site that overflowed (see [`crate::memgov::site`]).
        site: u64,
        /// Bytes the failing acquisition asked for.
        bytes: u64,
        /// Attempts consumed (first run plus retries).
        attempts: u32,
    },
    /// Driver-side admission control refused the job before running it:
    /// its smallest viable per-task footprint cannot fit the execution
    /// budget even with full borrowing from storage.
    MemoryRefused {
        /// Required vs available bytes per task.
        refusal: MemoryRefusal,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Dfs(e) => write!(f, "{e}"),
            ExecError::StageAborted { stage, source } => {
                write!(f, "stage `{stage}` aborted: {source}")
            }
            ExecError::IntegrityFailure { detail } => {
                write!(f, "data integrity failure: {detail}")
            }
            ExecError::OutOfMemory {
                stage,
                partition,
                site,
                bytes,
                attempts,
            } => write!(
                f,
                "stage `{stage}` out of memory: partition {partition} could not \
                 acquire {bytes} bytes for its {} after {attempts} attempts",
                crate::memgov::site::name(*site)
            ),
            ExecError::MemoryRefused { refusal } => write!(f, "{refusal}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Dfs(e) => Some(e),
            ExecError::StageAborted { source, .. } => Some(source),
            ExecError::IntegrityFailure { .. }
            | ExecError::OutOfMemory { .. }
            | ExecError::MemoryRefused { .. } => None,
        }
    }
}

impl From<DfsError> for ExecError {
    fn from(e: DfsError) -> Self {
        ExecError::Dfs(e)
    }
}

/// A fault-aware schedule: the winning placement per task plus what it took
/// to get there.
#[derive(Clone, Debug)]
pub struct FaultySchedule {
    /// Final (winning) placements, in input task order.
    pub schedule: DetailedSchedule,
    /// Failures, retries and speculation accumulated by this stage.
    pub recovery: RecoveryCounters,
}

impl FaultySchedule {
    /// Virtual time past the last successful task end: failed attempts that
    /// outlived every success, plus the healthy-plan makespan floor. The
    /// metrics layer derives stage duration from the task spans alone, so
    /// callers charge this as the stage's trailing time.
    pub fn trailing_pad(&self) -> SimDuration {
        let placed = self
            .schedule
            .placements
            .iter()
            .map(|p| p.start + p.duration)
            .fold(SimDuration::ZERO, SimDuration::max);
        self.schedule.outcome.makespan - placed
    }
}

#[derive(Default)]
struct FaultInner {
    plan: FaultPlan,
    enabled: bool,
    /// All node losses (plan plus manual kills), by virtual instant.
    losses: Vec<(NodeId, SimInstant)>,
    /// Nodes whose data-loss side effects the engine already applied.
    applied: FxHashSet<u32>,
    /// Cross-stage blacklist entries (node → expiry instant). Only used
    /// when the plan sets a nonzero [`FaultPlan::blacklist_expiry`].
    blacklist: FxHashMap<u32, SimInstant>,
    /// Corrupted copies already detected and repaired (scrub-on-read):
    /// `(tier tag, id, partition, copy)`. A healed copy never rots again —
    /// the rewrite stored fresh, clean bytes.
    healed: FxHashSet<(u64, u64, u64, u64)>,
    stage_counter: u64,
    /// Cluster-owned blacklist shared across concurrent jobs, plus this
    /// cluster's job id in the owning queue. `None` for solo clusters.
    shared: Option<(crate::jobs::SharedBlacklist, crate::jobs::JobId)>,
    /// Foreign shared-blacklist entries consulted during placement since
    /// the last [`FaultController::drain_shared_hits`] — the attribution
    /// feed for `sched.blacklist_shared_hits`.
    shared_hits: u64,
}

/// Shared handle evaluating one [`FaultPlan`] over a cluster's lifetime.
/// Lives on the [`crate::SimCluster`]; inert (and free) until a plan is set
/// or a node is killed. Cheap to clone.
#[derive(Clone, Default)]
pub struct FaultController {
    inner: Arc<Mutex<FaultInner>>,
}

impl FaultController {
    /// A controller with no plan (inert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a fault plan. Replaces any previous plan; nodes whose loss
    /// was already applied stay dead.
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut g = self.inner.lock();
        let mut losses = plan.node_losses.clone();
        losses.extend(
            g.losses
                .iter()
                .filter(|(n, _)| g.applied.contains(&n.0))
                .copied(),
        );
        g.plan = plan;
        g.losses = losses;
        g.enabled = true;
    }

    /// Copy of the installed plan.
    pub fn plan(&self) -> FaultPlan {
        self.inner.lock().plan.clone()
    }

    /// Whether fault-aware scheduling is on (a plan was set or a node was
    /// killed manually).
    pub fn active(&self) -> bool {
        self.inner.lock().enabled
    }

    /// Wire the cluster-owned shared blacklist in: nodes blacklisted by
    /// this controller's stages are published under `job`, and foreign
    /// entries (published by other jobs) are excluded from placement with
    /// every such consultation counted (never a silent leak).
    pub fn set_shared_blacklist(
        &self,
        shared: crate::jobs::SharedBlacklist,
        job: crate::jobs::JobId,
    ) {
        self.inner.lock().shared = Some((shared, job));
    }

    /// Take the count of foreign shared-blacklist entries consulted during
    /// placement since the last drain (feeds the per-job
    /// `sched.blacklist_shared_hits` counter).
    pub fn drain_shared_hits(&self) -> u64 {
        std::mem::take(&mut self.inner.lock().shared_hits)
    }

    /// Kill a node at virtual instant `at` (manual fault injection). Returns
    /// `false` if the node was already dead. The caller is responsible for
    /// invalidating the node's data (the loss is marked applied).
    pub fn kill_node(&self, node: NodeId, at: SimInstant) -> bool {
        let mut g = self.inner.lock();
        if g.losses.iter().any(|(n, t)| *n == node && *t <= at) {
            return false;
        }
        g.losses.push((node, at));
        g.applied.insert(node.0);
        g.enabled = true;
        true
    }

    /// Nodes whose loss has been *detected* by instant `at` (with a
    /// heartbeat timeout, detection lags the death itself).
    pub fn dead_nodes(&self, at: SimInstant) -> Vec<NodeId> {
        let g = self.inner.lock();
        let mut dead: Vec<NodeId> = g
            .losses
            .iter()
            .filter(|(_, t)| g.plan.detection_instant(*t) <= at)
            .map(|(n, _)| *n)
            .collect();
        dead.sort_by_key(|n| n.0);
        dead.dedup();
        dead
    }

    /// Nodes whose loss is newly detected at `at` and whose data-loss side
    /// effects (cache / shuffle / broadcast invalidation) have not been
    /// applied yet. Marks them applied — each loss is surfaced exactly once.
    pub fn take_new_losses(&self, at: SimInstant) -> Vec<NodeId> {
        let mut g = self.inner.lock();
        let mut fresh: Vec<NodeId> = g
            .losses
            .iter()
            .filter(|(n, t)| g.plan.detection_instant(*t) <= at && !g.applied.contains(&n.0))
            .map(|(n, _)| *n)
            .collect();
        fresh.sort_by_key(|n| n.0);
        fresh.dedup();
        for n in &fresh {
            g.applied.insert(n.0);
        }
        fresh
    }

    /// Whether the installed plan can inject silent corruption: readers use
    /// this to decide whether to charge checksum verification time at all.
    /// `false` on clean runs keeps fault-free timelines byte-identical.
    pub fn integrity_active(&self) -> bool {
        let g = self.inner.lock();
        g.enabled && g.plan.integrity_active()
    }

    /// Whether the identified stored copy is rotten *right now*: the plan's
    /// seeded roll says it rotted and no reader has repaired it yet. Pure
    /// query — use [`FaultController::take_corruption`] at actual read
    /// sites so the detection is counted and the copy heals.
    pub fn corrupted(&self, tier: IntegrityTier, id: u64, partition: usize, copy: u32) -> bool {
        let g = self.inner.lock();
        if !g.enabled || !g.plan.integrity_active() {
            return false;
        }
        g.plan.corruption_roll(tier, id, partition, copy)
            && !g
                .healed
                .contains(&(tier.tag(), id, partition as u64, u64::from(copy)))
    }

    /// Read-site corruption check: returns `true` exactly once per rotten
    /// copy (the verifying read detects the rot; the subsequent repair
    /// rewrites clean bytes, so the copy is marked healed and later reads
    /// verify clean). Callers that see `true` must count the
    /// detection/repair and charge the repair path.
    pub fn take_corruption(
        &self,
        tier: IntegrityTier,
        id: u64,
        partition: usize,
        copy: u32,
    ) -> bool {
        let mut g = self.inner.lock();
        if !g.enabled || !g.plan.integrity_active() {
            return false;
        }
        if !g.plan.corruption_roll(tier, id, partition, copy) {
            return false;
        }
        g.healed
            .insert((tier.tag(), id, partition as u64, u64::from(copy)))
    }

    /// Walk the seeded transient-failure ladder for one fetch site, or an
    /// all-zero outcome when no plan is active. See
    /// [`FaultPlan::transient_outcome`].
    pub fn transient(&self, kind: TransientKind, id: u64, partition: usize) -> TransientOutcome {
        let g = self.inner.lock();
        if !g.enabled {
            return TransientOutcome::default();
        }
        g.plan.transient_outcome(kind, id, partition)
    }

    /// Schedule one stage under the installed plan: per-task attempt loops
    /// with bounded retries, blacklisting, node deaths on the virtual
    /// timeline and optional speculative duplicates. `retry_extra[i]`, when
    /// given, is added to every retry attempt of task `i` (MapReduce charges
    /// the HDFS re-read from a surviving replica there). `now` anchors
    /// absolute node-loss instants to the stage-relative clock.
    ///
    /// With an inert plan this reproduces [`VirtualScheduler::schedule_detailed`]
    /// placement-for-placement.
    pub fn schedule_stage(
        &self,
        scheduler: &VirtualScheduler,
        tasks: &[TaskSpec],
        retry_extra: Option<&[SimDuration]>,
        now: SimInstant,
    ) -> Result<FaultySchedule, FaultError> {
        let (stage_seed, plan, losses, carried_blacklist, shared) = {
            let mut g = self.inner.lock();
            g.stage_counter += 1;
            // With a nonzero expiry the blacklist outlives stages: entries
            // still alive at this stage's start seed the stage-local set;
            // expired ones are dropped so healed nodes return to service.
            let carried: Vec<u32> = if g.plan.blacklist_expiry > SimDuration::ZERO {
                g.blacklist.retain(|_, expiry| *expiry > now);
                g.blacklist.keys().copied().collect()
            } else {
                Vec::new()
            };
            (
                g.stage_counter,
                g.plan.clone(),
                g.losses.clone(),
                carried,
                g.shared.clone(),
            )
        };

        let spec = scheduler.spec();
        let nodes = spec.nodes as usize;
        let cores_per_node = spec.cores_per_node as usize;
        // Placement is restricted to the scheduler's node slice (the job's
        // executor grant); death and slow-factor state stays indexed by
        // absolute node id so one cluster-wide fault plan reads the same
        // for every job.
        let (node_lo, node_count) = scheduler.node_slice();
        let total_cores = node_count * cores_per_node;
        let locality_wait = scheduler.locality_wait();
        let far = SimDuration::from_secs(f64::MAX / 4.0);
        let mut units: u64 = 0;

        // Stage-relative *detected* death time per node (None = survives the
        // stage). With a heartbeat timeout the node keeps receiving tasks
        // until the driver notices the silence; `actual` is when the machine
        // really stopped, which is when its attempts stop making progress.
        let death: Vec<Option<SimDuration>> = (0..nodes)
            .map(|n| {
                losses
                    .iter()
                    .filter(|(id, _)| id.index() == n)
                    .map(|(_, t)| plan.detection_instant(*t).since(now))
                    .min()
            })
            .collect();
        let actual_death: Vec<Option<SimDuration>> = (0..nodes)
            .map(|n| {
                losses
                    .iter()
                    .filter(|(id, _)| id.index() == n)
                    .map(|(_, t)| t.since(now))
                    .min()
            })
            .collect();
        let slow: Vec<f64> = (0..nodes)
            .map(|n| plan.slow_factor(NodeId(n as u32)))
            .collect();

        // Blacklisting is stage-scoped by default, like Spark's stage-level
        // blacklisting: a node accumulating `blacklist_after` crash failures
        // in this stage takes no further tasks this stage. With a nonzero
        // `blacklist_expiry`, entries carried from earlier stages start the
        // stage blacklisted, and new entries are written back with an expiry.
        let mut node_failures: FxHashMap<u32, u32> = FxHashMap::default();
        let mut blacklisted: FxHashSet<u32> = carried_blacklist.iter().copied().collect();
        let mut expiry_updates: Vec<(u32, SimDuration)> = Vec::new();

        // Foreign entries from the cluster-owned shared blacklist exclude
        // those nodes for this stage too — a machine another job's stage
        // found bad is bad for everyone — but never silently: every
        // consultation is counted for `sched.blacklist_shared_hits`.
        let mut shared_hits = 0u64;
        if let Some((bl, job)) = &shared {
            for n in bl.foreign_nodes(*job) {
                let abs = n as usize;
                if abs >= node_lo && abs < node_lo + node_count && blacklisted.insert(n) {
                    shared_hits += 1;
                }
            }
        }

        let mut free = vec![SimDuration::ZERO; total_cores];
        let mut count = vec![0usize; total_cores];
        let mut total_busy = SimDuration::ZERO;
        let mut last_activity = SimDuration::ZERO;
        let mut recovery = RecoveryCounters::default();
        let mut placements: Vec<TaskPlacement> = Vec::with_capacity(tasks.len());

        // Median base duration, the speculation straggler threshold.
        let median = {
            let mut durs: Vec<SimDuration> = tasks.iter().map(|t| t.duration).collect();
            durs.sort();
            durs.get(durs.len() / 2)
                .copied()
                .unwrap_or(SimDuration::ZERO)
        };

        // Whether a task launched at `start` on this core can begin at all.
        // Cores are slice-relative; `node_of` yields the absolute node id.
        let node_of = |core: usize| node_lo + core / cores_per_node;
        let usable = |bl: &FxHashSet<u32>,
                      death: &[Option<SimDuration>],
                      core: usize,
                      start: SimDuration| {
            let n = node_of(core);
            !bl.contains(&(n as u32)) && death[n].is_none_or(|d| start < d)
        };

        for (i, t) in tasks.iter().enumerate() {
            let extra = retry_extra.map_or(SimDuration::ZERO, |e| e[i]);
            let mut failures = 0u32;
            let mut launches = 0u32;
            let mut earliest = SimDuration::ZERO; // resubmission delay gate
            let max_launches = plan.max_task_failures + node_count as u32 + 1;

            'attempts: loop {
                launches += 1;
                if failures >= plan.max_task_failures {
                    return Err(FaultError::TaskAborted {
                        partition: i,
                        failures,
                        max_task_failures: plan.max_task_failures,
                    });
                }
                if launches > max_launches {
                    return Err(FaultError::NoHealthyNodes { partition: i });
                }
                if launches > 1 {
                    recovery.task_retries += 1;
                }

                // Core choice: the base scheduler's delay-scheduling rule,
                // restricted to cores whose node is alive at launch time.
                let eff = |free: &[SimDuration], c: usize| free[c].max(earliest);
                let earliest_usable =
                    |free: &[SimDuration], bl: &FxHashSet<u32>, lo: usize, hi: usize| {
                        let mut best: Option<usize> = None;
                        for c in lo..hi {
                            if usable(bl, &death, c, eff(free, c))
                                && best.is_none_or(|b| eff(free, c) < eff(free, b))
                            {
                                best = Some(c);
                            }
                        }
                        best
                    };
                let local = t
                    .preferred_node
                    .map(|n| scheduler.rel_node(n) * cores_per_node)
                    .and_then(|lo| {
                        units += cores_per_node as u64;
                        earliest_usable(&free, &blacklisted, lo, lo + cores_per_node)
                    });
                let core = match local {
                    Some(l) if eff(&free, l) <= locality_wait => Some(l),
                    Some(l) => {
                        units += total_cores as u64;
                        match earliest_usable(&free, &blacklisted, 0, total_cores) {
                            Some(gl) if eff(&free, l) <= eff(&free, gl) => Some(l),
                            other => other,
                        }
                    }
                    None => {
                        units += total_cores as u64;
                        earliest_usable(&free, &blacklisted, 0, total_cores)
                    }
                };
                let Some(core) = core else {
                    return Err(FaultError::NoHealthyNodes { partition: i });
                };
                let node = node_of(core);
                let start = eff(&free, core);
                let mut dur = t.duration * slow[node];
                if launches > 1 {
                    dur += extra;
                }
                let end = start + dur;

                // Earliest failure: the node dying mid-attempt, or the
                // seeded crash roll. An attempt overlapping the *actual*
                // death hangs until the driver declares the node lost at the
                // *detected* instant (with a zero heartbeat timeout the two
                // coincide and this is the legacy behaviour).
                let death_at = actual_death[node]
                    .filter(|d| *d < end)
                    .and_then(|_| death[node]);
                let crash_at = plan
                    .crash_point(stage_seed, i, launches)
                    .map(|frac| start + dur * frac);
                let fail_at = match (death_at, crash_at) {
                    (Some(d), Some(c)) => Some(d.min(c)),
                    (d, c) => d.or(c),
                };

                if let Some(fail) = fail_at {
                    let is_death = death_at.is_some_and(|d| d <= fail);
                    recovery.task_failures += 1;
                    if !is_death {
                        failures += 1;
                        let nf = node_failures.entry(node as u32).or_insert(0);
                        *nf += 1;
                        // Never blacklist the last node still able to run
                        // tasks — the plan's crashes are cluster-wide, not
                        // evidence against one machine.
                        let healthy_elsewhere = (node_lo..node_lo + node_count).any(|n| {
                            n != node
                                && !blacklisted.contains(&(n as u32))
                                && death[n].is_none_or(|d| fail < d)
                        });
                        if *nf >= plan.blacklist_after
                            && healthy_elsewhere
                            && blacklisted.insert(node as u32)
                        {
                            recovery.nodes_blacklisted += 1;
                            if plan.blacklist_expiry > SimDuration::ZERO {
                                expiry_updates.push((node as u32, fail + plan.blacklist_expiry));
                            }
                            // Cluster-owned visibility: other jobs consult
                            // this entry (attributed) until we complete.
                            if let Some((bl, job)) = &shared {
                                bl.publish(node as u32, *job);
                            }
                        }
                    }
                    total_busy += fail - start;
                    free[core] = if is_death { far } else { fail };
                    count[core] += 1;
                    last_activity = last_activity.max(fail);
                    earliest = fail + plan.resubmit_delay;
                    continue 'attempts;
                }

                // The attempt will finish. Straggling on a slow node may get
                // a speculative copy on the earliest healthy fast node.
                let mut spec_copy: Option<(usize, SimDuration, SimDuration)> = None;
                if plan.speculation
                    && slow[node] > 1.0
                    && median > SimDuration::ZERO
                    && dur >= median * plan.speculation_multiplier
                {
                    let mut best: Option<usize> = None;
                    for c in 0..total_cores {
                        let n = node_of(c);
                        if n == node || slow[n] > 1.0 {
                            continue;
                        }
                        let s = free[c].max(start);
                        if !usable(&blacklisted, &death, c, s)
                            || death[n].is_some_and(|d| d < s + t.duration)
                        {
                            continue;
                        }
                        if best.is_none_or(|b| s < free[b].max(start)) {
                            best = Some(c);
                        }
                    }
                    if let Some(c) = best {
                        let s = free[c].max(start);
                        if s + t.duration < end {
                            spec_copy = Some((c, s, t.duration));
                            recovery.speculative_launched += 1;
                        }
                    }
                }

                match spec_copy {
                    Some((copy_core, copy_start, copy_dur)) => {
                        let copy_end = copy_start + copy_dur;
                        // First finisher wins; the loser is killed then.
                        recovery.speculative_wins += 1;
                        placements.push(TaskPlacement {
                            node: NodeId(node_of(copy_core) as u32),
                            core: copy_core % cores_per_node,
                            start: copy_start,
                            duration: copy_dur,
                        });
                        free[copy_core] = copy_end;
                        free[core] = copy_end; // original killed at copy finish
                        count[copy_core] += 1;
                        count[core] += 1;
                        total_busy += copy_dur + (copy_end - start);
                        last_activity = last_activity.max(copy_end);
                    }
                    None => {
                        placements.push(TaskPlacement {
                            node: NodeId(node as u32),
                            core: core % cores_per_node,
                            start,
                            duration: dur,
                        });
                        free[core] = end;
                        count[core] += 1;
                        total_busy += dur;
                        last_activity = last_activity.max(end);
                    }
                }
                break 'attempts;
            }
        }

        if !expiry_updates.is_empty() || shared_hits > 0 {
            let mut g = self.inner.lock();
            for (node, rel_expiry) in expiry_updates {
                let abs = now + rel_expiry;
                let e = g.blacklist.entry(node).or_insert(abs);
                *e = (*e).max(abs);
            }
            g.shared_hits += shared_hits;
        }

        let waves = count.iter().copied().max().unwrap_or(0);
        // Killing the congested data-local node can accidentally "improve"
        // placement (its queue evaporates and delay scheduling stops
        // waiting for it). Real recovery never beats the healthy plan — the
        // survivors still have to re-fetch everything the dead node held —
        // so the fault-free makespan is a floor on stage time.
        let healthy = scheduler.schedule_detailed(tasks);
        units += healthy.decision_units;
        Ok(FaultySchedule {
            schedule: DetailedSchedule {
                outcome: ScheduleOutcome {
                    makespan: last_activity.max(healthy.outcome.makespan),
                    total_busy,
                    tasks: tasks.len(),
                    waves,
                },
                placements,
                decision_units: units,
            },
            recovery,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterSpec, GIB};

    fn sched(nodes: u32, cores: u32) -> VirtualScheduler {
        VirtualScheduler::new(ClusterSpec::new(nodes, cores, GIB))
    }

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn uniform(n: usize, dur: f64) -> Vec<TaskSpec> {
        (0..n).map(|_| TaskSpec::anywhere(secs(dur))).collect()
    }

    #[test]
    fn inert_plan_matches_plain_scheduler() {
        let s = sched(3, 2);
        let tasks: Vec<TaskSpec> = (0..17)
            .map(|i| {
                if i % 3 == 0 {
                    TaskSpec::local(secs(0.1 * (i % 5 + 1) as f64), NodeId(i as u32 % 3))
                } else {
                    TaskSpec::anywhere(secs(0.1 * (i % 5 + 1) as f64))
                }
            })
            .collect();
        let fc = FaultController::new();
        fc.set_plan(FaultPlan::seeded(7)); // enabled but inert
        let faulty = fc
            .schedule_stage(&s, &tasks, None, SimInstant::EPOCH)
            .expect("inert plan cannot abort");
        let base = s.schedule_detailed(&tasks);
        assert_eq!(faulty.schedule.outcome, base.outcome);
        assert_eq!(faulty.schedule.placements, base.placements);
        assert!(!faulty.recovery.any());
    }

    #[test]
    fn crashes_are_retried_and_counted() {
        let s = sched(2, 2);
        let fc = FaultController::new();
        fc.set_plan(
            FaultPlan::seeded(11)
                .crash_tasks(0.4)
                .with_max_task_failures(10),
        );
        let out = fc
            .schedule_stage(&s, &uniform(40, 1.0), None, SimInstant::EPOCH)
            .expect("40% crash rate stays well under a 10-attempt budget");
        assert!(out.recovery.task_failures > 0, "{:?}", out.recovery);
        assert_eq!(out.recovery.task_failures, out.recovery.task_retries);
        // Failed attempt time counts as busy time on top of the real work.
        assert!(out.schedule.outcome.total_busy > secs(40.0));
        assert_eq!(out.schedule.placements.len(), 40);
    }

    #[test]
    fn crash_decisions_are_deterministic() {
        let run = |seed| {
            let fc = FaultController::new();
            fc.set_plan(
                FaultPlan::seeded(seed)
                    .crash_tasks(0.3)
                    .with_max_task_failures(10),
            );
            let out = fc
                .schedule_stage(&sched(2, 2), &uniform(30, 1.0), None, SimInstant::EPOCH)
                .expect("under budget");
            (out.recovery, out.schedule.outcome)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0, "different seeds crash differently");
    }

    #[test]
    fn certain_crash_aborts_with_descriptive_error() {
        let fc = FaultController::new();
        fc.set_plan(FaultPlan::seeded(1).crash_tasks(1.0));
        let err = fc
            .schedule_stage(&sched(2, 2), &uniform(3, 1.0), None, SimInstant::EPOCH)
            .expect_err("every attempt crashes");
        match &err {
            FaultError::TaskAborted {
                failures,
                max_task_failures,
                ..
            } => {
                assert_eq!(*failures, *max_task_failures);
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(err.to_string().contains("max_task_failures"));
    }

    #[test]
    fn dead_node_takes_no_tasks() {
        let s = sched(2, 1);
        let fc = FaultController::new();
        fc.set_plan(FaultPlan::seeded(0).lose_node_at(NodeId(0), SimInstant::EPOCH));
        let out = fc
            .schedule_stage(&s, &uniform(4, 1.0), None, SimInstant::EPOCH)
            .expect("node 1 survives");
        assert!(out.schedule.placements.iter().all(|p| p.node == NodeId(1)));
        assert_eq!(out.schedule.outcome.makespan, secs(4.0));
    }

    #[test]
    fn mid_stage_death_fails_running_attempts() {
        let s = sched(2, 1);
        let fc = FaultController::new();
        // Node 0 dies half-way through the first wave.
        fc.set_plan(FaultPlan::seeded(0).lose_node_at(NodeId(0), SimInstant::from_secs(0.5)));
        let out = fc
            .schedule_stage(&s, &uniform(2, 1.0), None, SimInstant::EPOCH)
            .expect("node 1 survives");
        assert_eq!(out.recovery.task_failures, 1);
        assert_eq!(out.recovery.task_retries, 1);
        assert!(out.schedule.placements.iter().all(|p| p.node == NodeId(1)));
        // The retry waits for the resubmission delay and node 1's queue.
        assert!(out.schedule.outcome.makespan > secs(1.0));
    }

    #[test]
    fn all_nodes_dead_is_an_error() {
        let fc = FaultController::new();
        fc.set_plan(
            FaultPlan::seeded(0)
                .lose_node_at(NodeId(0), SimInstant::EPOCH)
                .lose_node_at(NodeId(1), SimInstant::EPOCH),
        );
        let err = fc
            .schedule_stage(&sched(2, 2), &uniform(2, 1.0), None, SimInstant::EPOCH)
            .expect_err("nowhere to run");
        assert!(matches!(err, FaultError::NoHealthyNodes { .. }));
        assert!(err.to_string().contains("dead or blacklisted"));
    }

    #[test]
    fn repeated_failures_blacklist_the_node() {
        let s = sched(4, 1);
        let fc = FaultController::new();
        fc.set_plan(
            FaultPlan::seeded(3)
                .crash_tasks(0.5)
                .with_blacklist_after(2)
                .with_max_task_failures(20),
        );
        let mut total = RecoveryCounters::default();
        for _ in 0..6 {
            let out = fc
                .schedule_stage(&s, &uniform(16, 1.0), None, SimInstant::EPOCH)
                .expect("budget of 10 is generous");
            total.merge(&out.recovery);
        }
        assert!(total.nodes_blacklisted > 0, "{total:?}");
    }

    #[test]
    fn slow_node_stretches_tasks_and_speculation_rescues_them() {
        let s = sched(4, 1);
        let tasks = uniform(4, 1.0);
        let base = FaultPlan::seeded(0).slow_node(NodeId(0), 10.0);

        let fc_slow = FaultController::new();
        fc_slow.set_plan(base.clone());
        let slow = fc_slow
            .schedule_stage(&s, &tasks, None, SimInstant::EPOCH)
            .expect("no crashes");
        assert_eq!(slow.schedule.outcome.makespan, secs(10.0), "straggler");

        let fc_spec = FaultController::new();
        fc_spec.set_plan(base.with_speculation());
        let spec = fc_spec
            .schedule_stage(&s, &tasks, None, SimInstant::EPOCH)
            .expect("no crashes");
        assert!(spec.recovery.speculative_launched >= 1);
        assert_eq!(
            spec.recovery.speculative_wins,
            spec.recovery.speculative_launched
        );
        assert!(
            spec.schedule.outcome.makespan < slow.schedule.outcome.makespan,
            "speculative copy beats the straggler: {:?} vs {:?}",
            spec.schedule.outcome.makespan,
            slow.schedule.outcome.makespan
        );
        // The winning placement is on a fast node.
        assert!(spec.schedule.placements.iter().all(|p| p.node != NodeId(0)));
    }

    #[test]
    fn retry_extra_charges_reread_on_retries_only() {
        let s = sched(2, 1);
        let fc = FaultController::new();
        fc.set_plan(FaultPlan::seeded(0).lose_node_at(NodeId(0), SimInstant::from_secs(0.5)));
        let tasks = vec![
            TaskSpec::local(secs(1.0), NodeId(0)),
            TaskSpec::local(secs(1.0), NodeId(1)),
        ];
        let extras = vec![secs(5.0), secs(5.0)];
        let out = fc
            .schedule_stage(&s, &tasks, Some(&extras), SimInstant::EPOCH)
            .expect("node 1 survives");
        // Task 0 failed at 0.5s, retried on node 1 with the 5s re-read.
        let retried = &out.schedule.placements[0];
        assert_eq!(retried.node, NodeId(1));
        assert_eq!(retried.duration, secs(6.0));
        // Task 1 never failed: no extra.
        assert_eq!(out.schedule.placements[1].duration, secs(1.0));
    }

    #[test]
    fn manual_kill_and_queries() {
        let fc = FaultController::new();
        assert!(!fc.active());
        assert!(fc.kill_node(NodeId(2), SimInstant::from_secs(1.0)));
        assert!(
            !fc.kill_node(NodeId(2), SimInstant::from_secs(2.0)),
            "already dead"
        );
        assert!(fc.active());
        assert!(fc.dead_nodes(SimInstant::EPOCH).is_empty());
        assert_eq!(fc.dead_nodes(SimInstant::from_secs(1.0)), vec![NodeId(2)]);
        // Manual kills are pre-applied: the engine already invalidated data.
        assert!(fc.take_new_losses(SimInstant::from_secs(5.0)).is_empty());
    }

    #[test]
    fn planned_losses_surface_exactly_once() {
        let fc = FaultController::new();
        fc.set_plan(FaultPlan::seeded(0).lose_node_at(NodeId(1), SimInstant::from_secs(2.0)));
        assert!(fc.take_new_losses(SimInstant::from_secs(1.0)).is_empty());
        assert_eq!(
            fc.take_new_losses(SimInstant::from_secs(3.0)),
            vec![NodeId(1)]
        );
        assert!(fc.take_new_losses(SimInstant::from_secs(4.0)).is_empty());
        assert_eq!(fc.dead_nodes(SimInstant::from_secs(4.0)), vec![NodeId(1)]);
    }

    #[test]
    fn transient_ladder_is_deterministic_and_bounded() {
        let plan = FaultPlan::seeded(9)
            .flaky_fetches(0.5)
            .with_fetch_retries(4);
        let mut saw_retry = false;
        let mut saw_clean = false;
        for part in 0..64 {
            let a = plan.transient_outcome(TransientKind::ShuffleFetch, 3, part);
            let b = plan.transient_outcome(TransientKind::ShuffleFetch, 3, part);
            assert_eq!(a, b, "same site must roll identically");
            assert!(a.retries <= 4);
            if a.escalated {
                assert_eq!(a.retries, 4, "escalation only after the full ladder");
            }
            if a.retries > 0 {
                saw_retry = true;
                assert!(a.backoff_micros > 0, "every retry waits a backoff");
            } else if !a.escalated {
                saw_clean = true;
                assert_eq!(a.backoff_micros, 0);
            }
        }
        assert!(saw_retry && saw_clean, "50% flakiness mixes outcomes");
        // Different kinds and seeds roll independently.
        let hdfs = FaultPlan::seeded(9).flaky_hdfs(0.5).with_fetch_retries(4);
        let outcomes_a: Vec<_> = (0..64)
            .map(|p| plan.transient_outcome(TransientKind::ShuffleFetch, 3, p))
            .collect();
        let outcomes_b: Vec<_> = (0..64)
            .map(|p| hdfs.transient_outcome(TransientKind::HdfsRead, 3, p))
            .collect();
        assert_ne!(outcomes_a, outcomes_b);
    }

    #[test]
    fn backoff_grows_exponentially_with_jitter() {
        let plan = FaultPlan::seeded(0)
            .flaky_fetches(1.0)
            .with_fetch_retries(3)
            .with_fetch_backoff_base(SimDuration::from_secs(0.1));
        let out = plan.transient_outcome(TransientKind::ShuffleFetch, 0, 0);
        assert!(out.escalated);
        assert_eq!(out.retries, 3);
        // base*(1+j0) + 2*base*(1+j1) + 4*base*(1+j2): between 0.7s (no
        // jitter) and 1.4s (max jitter).
        let secs = out.backoff_micros as f64 / 1e6;
        assert!((0.7..=1.4).contains(&secs), "backoff {secs}s");
    }

    #[test]
    fn inert_plan_never_rolls_transient_failures() {
        let fc = FaultController::new();
        assert!(!fc.transient(TransientKind::ShuffleFetch, 1, 2).any());
        fc.set_plan(FaultPlan::seeded(1));
        assert!(!fc.transient(TransientKind::HdfsRead, 1, 2).any());
    }

    #[test]
    fn heartbeat_timeout_delays_detection() {
        let death = SimInstant::from_secs(1.3);
        // Zero timeout: detection is the death itself (legacy behaviour).
        let instant = FaultPlan::seeded(0);
        assert_eq!(instant.detection_instant(death), death);
        // Beats every 0.5s (last at 1.0s), timeout 1.0s → detected at 2.0s.
        let hb = FaultPlan::seeded(0)
            .with_heartbeat(SimDuration::from_secs(0.5), SimDuration::from_secs(1.0));
        assert_eq!(hb.detection_instant(death), SimInstant::from_secs(2.0));

        // The loss's side effects surface only at the detection instant.
        let fc = FaultController::new();
        fc.set_plan(hb.lose_node_at(NodeId(1), death));
        assert!(fc.take_new_losses(SimInstant::from_secs(1.9)).is_empty());
        assert_eq!(
            fc.take_new_losses(SimInstant::from_secs(2.0)),
            vec![NodeId(1)]
        );
    }

    #[test]
    fn undetected_death_still_takes_tasks_and_fails_them() {
        let s = sched(2, 1);
        let fc = FaultController::new();
        // Node 0 dies at 0.5s but the driver only notices at 2.0s: the
        // doomed node keeps receiving work until then.
        fc.set_plan(
            FaultPlan::seeded(0)
                .with_heartbeat(SimDuration::from_secs(0.5), SimDuration::from_secs(1.5))
                .lose_node_at(NodeId(0), SimInstant::from_secs(0.5)),
        );
        let out = fc
            .schedule_stage(&s, &uniform(4, 1.0), None, SimInstant::EPOCH)
            .expect("node 1 survives");
        // Attempts placed on node 0 before detection (2.0s) fail there.
        assert!(out.recovery.task_failures >= 1, "{:?}", out.recovery);
        assert!(out.schedule.placements.iter().all(|p| p.node == NodeId(1)));
        // Compared to instant detection, the delayed version wastes time.
        let fc_instant = FaultController::new();
        fc_instant
            .set_plan(FaultPlan::seeded(0).lose_node_at(NodeId(0), SimInstant::from_secs(0.5)));
        let instant = fc_instant
            .schedule_stage(&s, &uniform(4, 1.0), None, SimInstant::EPOCH)
            .expect("node 1 survives");
        assert!(
            out.schedule.outcome.makespan >= instant.schedule.outcome.makespan,
            "late detection can only cost time"
        );
    }

    #[test]
    fn blacklist_expiry_carries_and_heals_across_stages() {
        let s = sched(4, 1);
        let fc = FaultController::new();
        fc.set_plan(
            FaultPlan::seeded(3)
                .crash_tasks(0.5)
                .with_blacklist_after(2)
                .with_max_task_failures(20)
                .with_blacklist_expiry(SimDuration::from_secs(50.0)),
        );
        // Accumulate failures until some node is blacklisted.
        let mut total = RecoveryCounters::default();
        for _ in 0..6 {
            let out = fc
                .schedule_stage(&s, &uniform(16, 1.0), None, SimInstant::EPOCH)
                .expect("generous budget");
            total.merge(&out.recovery);
        }
        assert!(total.nodes_blacklisted > 0, "{total:?}");

        // A crash-free follow-up stage *before* expiry still avoids the
        // blacklisted node(s); *after* expiry every node serves again.
        let clean = |at: SimInstant| {
            let g = fc
                .schedule_stage(&s, &uniform(8, 1.0), None, at)
                .expect("no crashes rolled in a fresh stage can abort");
            let mut nodes: Vec<u32> = g.schedule.placements.iter().map(|p| p.node.0).collect();
            nodes.sort();
            nodes.dedup();
            nodes.len()
        };
        // Note: crash rolls are per-stage-seed, so later stages may still
        // crash; what matters is node coverage, checked via a plan swap.
        fc.set_plan(FaultPlan::seeded(3).with_blacklist_expiry(SimDuration::from_secs(50.0)));
        assert!(
            clean(SimInstant::from_secs(1.0)) < 4,
            "pre-expiry stages must avoid the blacklisted node"
        );
        assert_eq!(
            clean(SimInstant::from_secs(100.0)),
            4,
            "post-expiry stages use the healed node again"
        );
    }

    #[test]
    fn fault_plan_round_trips_through_json() {
        let plan = FaultPlan::seeded(42)
            .crash_tasks(0.1)
            .with_max_task_failures(10)
            .with_resubmit_delay(SimDuration::from_secs(0.3))
            .lose_node_at(NodeId(2), SimInstant::from_secs(1.7))
            .slow_node(NodeId(1), 3.0)
            .with_speculation()
            .with_blacklist_after(5)
            .flaky_fetches(0.25)
            .flaky_hdfs(0.125)
            .with_fetch_retries(6)
            .with_fetch_backoff_base(SimDuration::from_secs(0.07))
            .with_heartbeat(SimDuration::from_secs(0.4), SimDuration::from_secs(1.2))
            .with_blacklist_expiry(SimDuration::from_secs(30.0))
            .with_checkpoint_interval(2)
            .corrupt_shuffle(0.0625)
            .corrupt_cache(0.03125)
            .corrupt_hdfs(0.015625)
            .corrupt_block(IntegrityTier::Cache, 9, 3)
            .corrupt_all_replicas(IntegrityTier::Hdfs, 4, 0)
            .inject_oom(0.03125)
            .with_mem_budget(512 * 1024 * 1024);
        let text = plan.to_json().to_string();
        let back = FaultPlan::from_json(&crate::json::parse(&text).expect("valid JSON"))
            .expect("well-formed plan");
        // Field-for-field equality (FaultPlan has f64s, so compare the
        // deterministic JSON forms).
        assert_eq!(plan.to_json().to_string(), back.to_json().to_string());
        assert_eq!(back.seed, 42);
        assert_eq!(
            back.node_losses,
            vec![(NodeId(2), SimInstant::from_secs(1.7))]
        );
        assert_eq!(back.fetch_retries, 6);
        assert_eq!(back.checkpoint_interval, 2);
        assert!(back.speculation);
        assert_eq!(back.shuffle_corruption_prob, 0.0625);
        assert_eq!(back.cache_corruption_prob, 0.03125);
        assert_eq!(back.hdfs_corruption_prob, 0.015625);
        assert_eq!(
            back.targeted_corruptions,
            vec![
                (IntegrityTier::Cache, 9, 3, 1),
                (IntegrityTier::Hdfs, 4, 0, u32::MAX),
            ]
        );
        assert_eq!(back.oom_prob, 0.03125);
        assert_eq!(back.mem_budget_override, Some(512 * 1024 * 1024));
        // A plan without the override round-trips the `null` too.
        let bare = FaultPlan::seeded(1).inject_oom(0.5);
        let bare_back =
            FaultPlan::from_json(&crate::json::parse(&bare.to_json().to_string()).unwrap())
                .unwrap();
        assert_eq!(bare_back.mem_budget_override, None);
        assert_eq!(bare_back.oom_prob, 0.5);
        assert!(bare.memory_active() && bare.has_faults());
        assert!(!FaultPlan::seeded(1).memory_active());
    }

    #[test]
    fn oom_rolls_are_deterministic_and_halve_per_attempt() {
        let plan = FaultPlan::seeded(21).inject_oom(0.5);
        let a: Vec<bool> = (0..64).map(|p| plan.oom_roll(9, p, 0, 1, 0)).collect();
        let b: Vec<bool> = (0..64).map(|p| plan.oom_roll(9, p, 0, 1, 0)).collect();
        assert_eq!(a, b, "same plan denies the same acquisitions");
        assert!(
            a.iter().any(|x| *x) && a.iter().any(|x| !*x),
            "mixed at 50%"
        );
        // Distinct sites and rolls are independent hash domains.
        let other_site: Vec<bool> = (0..64).map(|p| plan.oom_roll(9, p, 0, 2, 0)).collect();
        assert_ne!(a, other_site);
        // Retry attempts are denied at a halved rate (doubled slice).
        let denials = |attempt: u32| {
            (0..4096)
                .filter(|p| plan.oom_roll(9, *p, 0, 1, attempt))
                .count()
        };
        let (d0, d1) = (denials(0), denials(1));
        assert!(
            d1 * 3 < d0 * 2,
            "attempt 1 should deny roughly half as often: {d0} vs {d1}"
        );
        assert!(!FaultPlan::seeded(21).oom_roll(9, 0, 0, 1, 0), "inert");
    }

    #[test]
    fn memory_counters_merge_peak_with_max_and_flow_through_recovery() {
        let mut a = MemoryCounters {
            peak_execution_bytes: 1000,
            spills: 2,
            spill_bytes: 64,
            oom_injected: 1,
            oom_survived_by_degradation: 1,
            ..MemoryCounters::default()
        };
        let b = MemoryCounters {
            peak_execution_bytes: 700,
            spills: 1,
            spill_bytes: 32,
            degradations: 1,
            oom_injected: 1,
            oom_killed: 1,
            ..MemoryCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.peak_execution_bytes, 1000, "peak merges with max");
        assert_eq!(a.spills, 3);
        assert_eq!(a.spill_bytes, 96);
        assert_eq!(a.degradations, 1);
        assert_eq!(a.oom_injected, a.oom_killed + a.oom_survived_by_degradation);
        assert!(a.any());

        let mut r = RecoveryCounters::default();
        r.merge(&RecoveryCounters {
            mem: b,
            ..RecoveryCounters::default()
        });
        assert_eq!(r.mem.oom_killed, 1);
        assert!(r.any(), "memory counters alone make recovery non-empty");
    }

    #[test]
    fn unknown_json_field_is_rejected_by_name() {
        let v = crate::json::parse(r#"{"seed": 7, "fetch_retrys": 5}"#).unwrap();
        let err = FaultPlan::from_json(&v).expect_err("typo'd field must fail");
        assert!(err.contains("fetch_retrys"), "error names the field: {err}");
        assert!(err.contains("unknown fault plan field"), "got: {err}");
        // The known-field list the error prints advertises the memory knobs,
        // so a typo'd `oom_prob`/`mem_budget_override` points at the fix.
        assert!(
            err.contains("oom_prob") && err.contains("mem_budget_override"),
            "known-field list names the memory knobs: {err}"
        );
    }

    #[test]
    fn minimal_oom_plan_json_parses() {
        // Mirror of `results/oom.fault.json`: hand-written plans may carry
        // just the memory knobs and inherit every other default.
        let v = crate::json::parse(
            r#"{"seed": 42, "oom_prob": 0.05, "mem_budget_override": 25165824}"#,
        )
        .unwrap();
        let plan = FaultPlan::from_json(&v).expect("minimal plan");
        assert_eq!(plan.oom_prob, 0.05);
        assert_eq!(plan.mem_budget_override, Some(24 * 1024 * 1024));
        assert!(plan.memory_active());
    }

    #[test]
    fn bad_corruption_tier_is_rejected() {
        let v = crate::json::parse(r#"{"targeted_corruptions": [["ssd", 1, 2, 1]]}"#).unwrap();
        let err = FaultPlan::from_json(&v).expect_err("unknown tier");
        assert!(err.contains("ssd"), "got: {err}");
    }

    #[test]
    fn corruption_rolls_are_deterministic_and_tier_independent() {
        let plan = FaultPlan::seeded(13)
            .corrupt_shuffle(0.5)
            .corrupt_cache(0.5);
        let a: Vec<bool> = (0..64)
            .map(|p| plan.corruption_roll(IntegrityTier::Shuffle, 3, p, 0))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|p| plan.corruption_roll(IntegrityTier::Shuffle, 3, p, 0))
            .collect();
        assert_eq!(a, b, "same plan rots the same copies");
        assert!(
            a.iter().any(|x| *x) && a.iter().any(|x| !*x),
            "mixed at 50%"
        );
        let c: Vec<bool> = (0..64)
            .map(|p| plan.corruption_roll(IntegrityTier::Cache, 3, p, 0))
            .collect();
        assert_ne!(a, c, "tiers roll in independent hash domains");
        // Inert tier never rots; targeted entries rot regardless of probs.
        assert!(!plan.corruption_roll(IntegrityTier::Hdfs, 3, 0, 0));
        let targeted = FaultPlan::seeded(0).corrupt_all_replicas(IntegrityTier::Hdfs, 7, 2);
        assert!(targeted.corruption_roll(IntegrityTier::Hdfs, 7, 2, 0));
        assert!(targeted.corruption_roll(IntegrityTier::Hdfs, 7, 2, 5));
        assert!(!targeted.corruption_roll(IntegrityTier::Hdfs, 7, 3, 0));
        assert!(targeted.integrity_active() && targeted.has_faults());
    }

    #[test]
    fn take_corruption_detects_once_then_heals() {
        let fc = FaultController::new();
        assert!(
            !fc.take_corruption(IntegrityTier::Cache, 1, 0, 0),
            "inert controller never rots"
        );
        fc.set_plan(FaultPlan::seeded(0).corrupt_block(IntegrityTier::Cache, 1, 0));
        assert!(fc.corrupted(IntegrityTier::Cache, 1, 0, 0));
        assert!(
            fc.take_corruption(IntegrityTier::Cache, 1, 0, 0),
            "first read detects"
        );
        assert!(
            !fc.take_corruption(IntegrityTier::Cache, 1, 0, 0),
            "repaired copy stays clean"
        );
        assert!(!fc.corrupted(IntegrityTier::Cache, 1, 0, 0), "healed");
        assert!(
            !fc.take_corruption(IntegrityTier::Cache, 1, 1, 0),
            "other copies clean"
        );
    }

    #[test]
    fn integrity_counters_merge_and_flow_through_recovery() {
        let mut a = IntegrityCounters {
            corruptions_injected: 2,
            corruptions_detected: 2,
            corruptions_repaired: 2,
            repaired_via_replica: 1,
            repaired_via_recompute: 1,
            ..IntegrityCounters::default()
        };
        let b = IntegrityCounters {
            corruptions_injected: 1,
            corruptions_detected: 1,
            corruptions_repaired: 1,
            repaired_via_resubmit: 1,
            ..IntegrityCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.corruptions_injected, 3);
        assert_eq!(a.repaired_via_resubmit, 1);
        assert!(a.any());

        let mut r = RecoveryCounters::default();
        assert!(!r.any());
        r.merge(&RecoveryCounters {
            integrity: b,
            ..RecoveryCounters::default()
        });
        assert_eq!(r.integrity.corruptions_detected, 1);
        assert!(r.any(), "integrity counters alone make recovery non-empty");
    }

    #[test]
    fn minimal_json_plan_falls_back_to_defaults() {
        let v = crate::json::parse(r#"{"seed": 7, "task_crash_prob": 0.2}"#).unwrap();
        let plan = FaultPlan::from_json(&v).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.task_crash_prob, 0.2);
        assert_eq!(plan.max_task_failures, DEFAULT_MAX_TASK_FAILURES);
        assert_eq!(plan.fetch_retries, DEFAULT_FETCH_RETRIES);
        assert!(FaultPlan::from_json(&crate::json::parse("[1,2]").unwrap()).is_err());
    }

    #[test]
    fn recovery_counters_merge_depth_with_max() {
        let mut a = RecoveryCounters {
            fetch_retries: 2,
            backoff_micros: 100,
            checkpoint_writes: 3,
            checkpoint_reads: 1,
            max_replay_depth: 5,
            ..RecoveryCounters::default()
        };
        let b = RecoveryCounters {
            fetch_retries: 1,
            backoff_micros: 50,
            max_replay_depth: 3,
            ..RecoveryCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.fetch_retries, 3);
        assert_eq!(a.backoff_micros, 150);
        assert_eq!(a.checkpoint_writes, 3);
        assert_eq!(a.checkpoint_reads, 1);
        assert_eq!(a.max_replay_depth, 5, "depth merges with max, not sum");
        assert!(a.any());
    }
}
