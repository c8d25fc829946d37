//! The job runner: executes a [`MapReduceJob`] for real and charges
//! Hadoop-shaped virtual time.

use crate::emitter::Emitter;
use crate::job::{MapReduceJob, MrKey, MrValue};
use std::collections::BTreeMap;
use std::sync::Arc;
use yafim_cluster::{
    bucket_of, fx_hash64, memgov, slice_bytes, DetailedSchedule, DfsFile, EventKind, ExecError,
    IntegrityCounters, IntegrityTier, RecoveryCounters, SimCluster, SimDuration, StageExecution,
    TaskExecution, TaskMemory, TaskProfile, TaskSpec, WorkCounters, SPILL_GRANULE,
};

/// Aggregate facts about one executed job.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobStats {
    /// Number of map tasks (input splits).
    pub map_tasks: usize,
    /// Number of reduce tasks.
    pub reduce_tasks: usize,
    /// Records crossing the shuffle (after the combiner, if any).
    pub shuffle_records: u64,
    /// Estimated bytes crossing the shuffle.
    pub shuffle_bytes: u64,
    /// Input bytes read.
    pub input_bytes: u64,
    /// Output records produced by the reducers.
    pub output_records: u64,
}

/// Result of one job: the real output pairs (in reduce-task, then sorted-key
/// order), the committed HDFS file if requested, and stats.
pub struct MrJobResult<KO, VO> {
    /// All reducer emissions.
    pub pairs: Vec<(KO, VO)>,
    /// The committed output file, when the job specified one.
    pub output_file: Option<DfsFile>,
    /// Aggregate counters.
    pub stats: JobStats,
}

/// Executes jobs against one virtual cluster.
#[derive(Clone)]
pub struct MrRunner {
    cluster: SimCluster,
}

impl MrRunner {
    /// A runner over `cluster`.
    pub fn new(cluster: SimCluster) -> Self {
        MrRunner { cluster }
    }

    /// The cluster this runner executes on.
    pub fn cluster(&self) -> &SimCluster {
        &self.cluster
    }

    /// Schedule one task wave, through the fault-aware path when a fault
    /// plan is active on the cluster. Admission goes through the multi-job
    /// scheduler: the wave is placed within the job's executor grant and
    /// any FIFO queue wait is returned for the caller to charge to the
    /// wave's stage record.
    fn schedule_wave(
        &self,
        label: &str,
        specs: &[TaskSpec],
        retry_extra: Option<&[SimDuration]>,
    ) -> Result<(DetailedSchedule, RecoveryCounters, SimDuration, SimDuration), ExecError> {
        let (queue, scheduler) = self.cluster.stage_admission();
        let faults = self.cluster.faults();
        if faults.active() {
            let fs = faults
                .schedule_stage(
                    &scheduler,
                    specs,
                    retry_extra,
                    self.cluster.metrics().now() + queue,
                )
                .map_err(|source| ExecError::StageAborted {
                    stage: label.to_string(),
                    source,
                })?;
            let pad = fs.trailing_pad();
            Ok((fs.schedule, fs.recovery, pad, queue))
        } else {
            Ok((
                scheduler.schedule_detailed(specs),
                RecoveryCounters::default(),
                SimDuration::ZERO,
                queue,
            ))
        }
    }

    /// Post-stage scheduler bookkeeping for one recorded wave (queue-wait
    /// attribution, decision units, shared-blacklist hits). MapReduce waves
    /// never skew-split: Hadoop repartitions only between jobs.
    fn record_wave(&self, queue: SimDuration, detailed: &DetailedSchedule) {
        self.cluster.record_sched_stage(
            queue,
            detailed.decision_units,
            self.cluster.faults().drain_shared_hits(),
            0,
        );
    }

    /// Execute one job: map → shuffle/sort → reduce → commit.
    pub fn run<KM: MrKey, VM: MrValue, KO: MrValue, VO: MrValue>(
        &self,
        job: MapReduceJob<KM, VM, KO, VO>,
    ) -> Result<MrJobResult<KO, VO>, ExecError> {
        let cluster = &self.cluster;
        let cost = cluster.cost().clone();
        let spec = cluster.spec().clone();
        let metrics = cluster.metrics().clone();
        let file = cluster.hdfs().get(&job.input)?;

        // ---- Admission control (memory governor, last ladder rung) ----
        //
        // A per-task slice below one spill granule cannot stream its
        // map-side combine buffer through disk, so the job could only end
        // in OOM kills: refuse it up front with a typed error.
        if let Some(budget) = cluster.memory_budget() {
            if let Err(refusal) = budget.admit(SPILL_GRANULE) {
                return Err(ExecError::MemoryRefused { refusal });
            }
        }

        let job_span = metrics.begin_job(job.name.clone());
        metrics.advance(SimDuration::from_secs(cost.mr_job_overhead));

        // Distributed-cache localization: every node pulls the side data
        // from its `replication` HDFS sources, so the pull contends by a
        // factor of nodes/replication.
        if job.side_data_bytes > 0 {
            let contention = (spec.nodes as f64 / cost.hdfs_replication as f64).max(1.0);
            metrics.advance_with_event(
                cost.net_transfer(job.side_data_bytes) * contention,
                EventKind::Broadcast,
                format!("{}: distributed cache {}B", job.name, job.side_data_bytes),
            );
        }

        // ---- map phase ----
        let splits = match job.split_size {
            Some(s) => file.splits((file.bytes().div_ceil(s)).max(1) as usize),
            None => file.splits(file.blocks().len()),
        };
        let map_tasks = splits.len();
        let reduce_tasks = if job.reduce_tasks == 0 {
            spec.total_cores() as usize
        } else {
            job.reduce_tasks
        };

        // ---- data integrity (silent-corruption plans) ----
        //
        // The job name keys this job's corruption rolls: HDFS-tier rolls
        // cover the input splits (shared across jobs reading the same
        // file — a repaired block stays repaired), shuffle-tier rolls
        // cover this job's reduce inputs. Before any work runs, refuse
        // the job if some split has *no* clean replica left — Hadoop has
        // no lineage to recompute an input from.
        let faults = cluster.faults().clone();
        let integrity = faults.integrity_active();
        let integrity_id = fx_hash64(&job.input);
        let split_replicas: Vec<u32> = splits
            .iter()
            .map(|s| {
                file.blocks()
                    .iter()
                    .find(|b| b.lines.start <= s.lines.start && s.lines.start < b.lines.end)
                    .map(|b| b.replicas.len())
                    .unwrap_or(1)
                    .max(1) as u32
            })
            .collect();
        if integrity {
            for (i, &copies) in split_replicas.iter().enumerate() {
                if (0..copies).all(|c| faults.corrupted(IntegrityTier::Hdfs, integrity_id, i, c)) {
                    return Err(ExecError::IntegrityFailure {
                        detail: format!(
                            "input `{}` split {i}: all {copies} replicas failed checksum \
                             verification — no clean copy reachable",
                            job.input
                        ),
                    });
                }
            }
        }

        let mapper = match &job.mapper {
            crate::job::MapPhase::PerLine(f) => crate::job::MapPhase::PerLine(Arc::clone(f)),
            crate::job::MapPhase::PerSplit(f) => crate::job::MapPhase::PerSplit(Arc::clone(f)),
        };
        let combiner = job.combiner.clone();
        let side_bytes = job.side_data_bytes;
        let spill_factor = cost.mr_spill_factor;
        let file_for_tasks = file.clone();
        let splits_for_tasks = splits.clone();
        let shuffle_integrity_id = fx_hash64(&job.name);
        let faults_map = faults.clone();
        let metrics_map = metrics.clone();
        let cost_map = cost.clone();
        let replicas_map = split_replicas.clone();
        // Memory governor: every map task reserves its combine buffer
        // against the same per-task slice; rolls are keyed by (job, split).
        let mem_budget = cluster.memory_budget();
        let mem_stage_key = fx_hash64(&(job.name.as_str(), metrics.now().as_secs().to_bits()));

        type MapOut<KM, VM> = (Vec<Vec<(KM, VM)>>, TaskProfile);
        let map_outs: Vec<MapOut<KM, VM>> =
            cluster
                .pool()
                .map((0..map_tasks).collect::<Vec<usize>>(), move |_, i| {
                    let split = &splits_for_tasks[i];
                    let mut w = WorkCounters::new();
                    w.add_disk_read(split.bytes); // locality-scheduled: local read
                    if side_bytes > 0 {
                        w.add_disk_read(side_bytes); // localized cache file
                    }
                    // Verify the split's checksum; a rotten replica is
                    // re-fetched from the next one (the preflight above
                    // guarantees a clean copy exists).
                    if integrity {
                        for copy in 0..replicas_map[i] {
                            w.add_stall_micros(
                                (cost_map.checksum(split.bytes).as_secs() * 1e6) as u64,
                            );
                            if faults_map.take_corruption(
                                IntegrityTier::Hdfs,
                                integrity_id,
                                i,
                                copy,
                            ) {
                                w.add_net(split.bytes);
                                metrics_map.note_recovery(&RecoveryCounters {
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

                    let mut em = Emitter::new();
                    let lines = &file_for_tasks.lines()[split.lines.clone()];
                    match &mapper {
                        crate::job::MapPhase::PerLine(f) => {
                            for (j, line) in lines.iter().enumerate() {
                                w.add_records_in(1);
                                f((split.lines.start + j) as u64, line, &mut em, &mut w);
                            }
                        }
                        crate::job::MapPhase::PerSplit(f) => {
                            w.add_records_in(lines.len() as u64);
                            f(split.lines.start as u64, lines, &mut em, &mut w);
                        }
                    }
                    let mut pairs = em.into_pairs();
                    w.add_records_out(pairs.len() as u64);

                    // Optional combine: group map-local values per key.
                    if let Some(comb) = &combiner {
                        let mut groups: BTreeMap<KM, Vec<VM>> = BTreeMap::new();
                        for (k, v) in pairs {
                            groups.entry(k).or_default().push(v);
                        }
                        w.add_cpu(groups.len() as u64);
                        pairs = groups
                            .into_iter()
                            .map(|(k, vs)| {
                                let v = comb(&k, vs);
                                (k, v)
                            })
                            .collect();
                    } else {
                        // Hadoop sorts map output by key either way.
                        pairs.sort_by(|a, b| a.0.cmp(&b.0));
                    }
                    let n = pairs.len() as u64;
                    w.add_cpu(n * (64 - n.leading_zeros() as u64)); // sort comparisons

                    // Partition into reduce buckets.
                    let mut buckets: Vec<Vec<(KM, VM)>> =
                        (0..reduce_tasks).map(|_| Vec::new()).collect();
                    for (k, v) in pairs {
                        buckets[bucket_of(&k, reduce_tasks)].push((k, v));
                    }
                    let bytes: u64 = buckets.iter().map(|b| slice_bytes(b)).sum();
                    w.add_ser(bytes);
                    if integrity {
                        // Checksum the map output at write time.
                        w.add_stall_micros((cost_map.checksum(bytes).as_secs() * 1e6) as u64);
                    }
                    // The combine buffer is execution memory; a denial
                    // (budget overflow or injected OOM) spills it through
                    // local disk — the buffer is degradable, so the
                    // governor never kills a map task.
                    let tm = TaskMemory::new(mem_budget, mem_stage_key, i);
                    let (_, fx) = tm.try_reserve(bytes, memgov::site::MR_COMBINE, true);
                    w.add_stall_micros(fx.stall_micros);
                    if fx.spill_disk_bytes > 0 {
                        w.add_disk_write(fx.spill_disk_bytes);
                        w.add_disk_read(fx.spill_disk_bytes);
                    }
                    // Spill traffic: write the sorted runs, read them back for
                    // the merge.
                    let spill = (bytes as f64 * spill_factor / 2.0) as u64;
                    w.add_disk_write(spill);
                    w.add_disk_read(spill);

                    let profile = TaskProfile {
                        work: w,
                        shuffle_write_bytes: bytes,
                        broadcast_read_bytes: side_bytes,
                        mem: fx.mem,
                        ..TaskProfile::new()
                    };
                    (buckets, profile)
                });

        // Charge the map wave. A retried map attempt cannot read its local
        // HDFS block again (the original attempt's machine may be the one
        // that failed), so retries pay a remote read from a surviving
        // replica on top of the base task cost.
        let task_specs: Vec<TaskSpec> = map_outs
            .iter()
            .zip(&splits)
            .map(|((_, p), split)| {
                TaskSpec::local(
                    SimDuration::from_secs(cost.mr_task_overhead) + p.work.data_time(&cost),
                    split.preferred_node,
                )
            })
            .collect();
        let reread: Vec<SimDuration> = splits.iter().map(|s| cost.net_transfer(s.bytes)).collect();
        let map_label = format!("{}: map", job.name);
        let (detailed, mut recovery, pad, queue) =
            self.schedule_wave(&map_label, &task_specs, Some(&reread))?;
        // Roll the governor's per-task outcomes up into the wave's recovery
        // block (peak merges with max, the rest sum).
        for (_, p) in &map_outs {
            recovery.mem.merge(&p.mem);
        }
        metrics.record_stage_with_recovery(
            StageExecution {
                label: map_label,
                kind: EventKind::Stage,
                shuffle_id: None,
                queue,
                overhead: SimDuration::ZERO,
                // Each map wave ends on a heartbeat boundary.
                trailing: SimDuration::from_secs(cost.mr_wave_latency)
                    * detailed.outcome.waves as f64
                    + pad,
                tasks: detailed
                    .placements
                    .iter()
                    .zip(&map_outs)
                    .enumerate()
                    .map(|(i, (pl, (_, p)))| TaskExecution {
                        partition: i,
                        node: pl.node,
                        core: pl.core,
                        start: pl.start,
                        duration: pl.duration,
                        profile: *p,
                    })
                    .collect(),
            },
            recovery,
        );
        self.record_wave(queue, &detailed);

        // A node lost between map and reduce takes its completed map outputs
        // with it (they live on local disk, not in HDFS): re-execute just
        // those map tasks, reading the input from surviving block replicas.
        let faults = cluster.faults();
        if faults.active() {
            let dead = faults.take_new_losses(metrics.now());
            if !dead.is_empty() {
                let lost: Vec<usize> = detailed
                    .placements
                    .iter()
                    .enumerate()
                    .filter(|(_, pl)| dead.contains(&pl.node))
                    .map(|(i, _)| i)
                    .collect();
                let mut rec = RecoveryCounters {
                    nodes_lost: dead.len() as u64,
                    fetch_failures: lost.len() as u64,
                    recomputed_partitions: lost.len() as u64,
                    ..RecoveryCounters::default()
                };
                if lost.is_empty() {
                    metrics.note_recovery(&rec);
                } else {
                    let resubmit_label = format!("{}: map (resubmit)", job.name);
                    let resubmit_specs: Vec<TaskSpec> = lost
                        .iter()
                        .map(|&i| TaskSpec::anywhere(task_specs[i].duration + reread[i]))
                        .collect();
                    let (re_detailed, re_recovery, re_pad, re_queue) =
                        self.schedule_wave(&resubmit_label, &resubmit_specs, None)?;
                    rec.merge(&re_recovery);
                    metrics.record_stage_with_recovery(
                        StageExecution {
                            label: resubmit_label,
                            kind: EventKind::Stage,
                            shuffle_id: None,
                            queue: re_queue,
                            overhead: SimDuration::ZERO,
                            trailing: SimDuration::from_secs(cost.mr_wave_latency)
                                * re_detailed.outcome.waves as f64
                                + re_pad,
                            tasks: re_detailed
                                .placements
                                .iter()
                                .zip(&lost)
                                .map(|(pl, &orig)| TaskExecution {
                                    partition: orig,
                                    node: pl.node,
                                    core: pl.core,
                                    start: pl.start,
                                    duration: pl.duration,
                                    profile: map_outs[orig].1,
                                })
                                .collect(),
                        },
                        rec,
                    );
                    self.record_wave(re_queue, &re_detailed);
                }
            }
        }

        // ---- shuffle: concatenate buckets in map-task order ----
        let mut buckets: Vec<Vec<(KM, VM)>> = (0..reduce_tasks).map(|_| Vec::new()).collect();
        let mut shuffle_records = 0u64;
        for (map_out, _) in map_outs {
            for (i, b) in map_out.into_iter().enumerate() {
                shuffle_records += b.len() as u64;
                buckets[i].extend(b);
            }
        }
        let bucket_bytes: Vec<u64> = buckets.iter().map(|b| slice_bytes(b)).collect();
        let shuffle_bytes: u64 = bucket_bytes.iter().sum();

        // ---- reduce phase ----
        let reducer = Arc::clone(&job.reducer);
        let format = job.output.as_ref().map(|o| Arc::clone(&o.format));
        let nodes = spec.nodes as u64;
        let replication = cost.hdfs_replication as u64;
        // Repairing a rotten reduce input means re-running the map task
        // that produced it (map outputs live on local disk with no replica
        // and no lineage); charge the slowest map attempt plus the remote
        // input re-read, as the loss-resubmit path would.
        let map_repair_micros = (task_specs
            .iter()
            .zip(&reread)
            .map(|(t, rr)| (t.duration + *rr).as_secs())
            .fold(0.0f64, f64::max)
            * 1e6) as u64;
        let faults_red = faults.clone();
        let metrics_red = metrics.clone();
        let cost_red = cost.clone();
        let buckets = Arc::new(buckets);
        let bucket_bytes_arc = Arc::new(bucket_bytes);

        type ReduceOut<KO, VO> = (Vec<(KO, VO)>, Vec<String>, TaskProfile);
        let reduce_outs: Vec<ReduceOut<KO, VO>> =
            cluster
                .pool()
                .map((0..reduce_tasks).collect::<Vec<usize>>(), move |_, r| {
                    let mut w = WorkCounters::new();
                    let bytes = bucket_bytes_arc[r];
                    let local = bytes / nodes.max(1);
                    w.add_disk_read(local);
                    w.add_net(bytes - local);
                    w.add_ser(bytes);
                    // Verify the fetched reduce input; on mismatch, re-run
                    // the producing map task and fetch again.
                    if integrity {
                        w.add_stall_micros((cost_red.checksum(bytes).as_secs() * 1e6) as u64);
                        if faults_red.take_corruption(
                            IntegrityTier::Shuffle,
                            shuffle_integrity_id,
                            r,
                            0,
                        ) {
                            w.add_stall_micros(map_repair_micros);
                            w.add_net(bytes);
                            w.add_stall_micros((cost_red.checksum(bytes).as_secs() * 1e6) as u64);
                            metrics_red.note_recovery(&RecoveryCounters {
                                recomputed_partitions: 1,
                                integrity: IntegrityCounters {
                                    corruptions_injected: 1,
                                    corruptions_detected: 1,
                                    corruptions_repaired: 1,
                                    repaired_via_resubmit: 1,
                                    ..IntegrityCounters::default()
                                },
                                ..RecoveryCounters::default()
                            });
                        }
                    }

                    let bucket = &buckets[r];
                    w.add_records_in(bucket.len() as u64);
                    let n = bucket.len() as u64;
                    w.add_cpu(n * (64 - n.leading_zeros() as u64)); // merge sort

                    let mut groups: BTreeMap<KM, Vec<VM>> = BTreeMap::new();
                    for (k, v) in bucket.iter() {
                        groups.entry(k.clone()).or_default().push(v.clone());
                    }

                    let mut em = Emitter::new();
                    for (k, vs) in groups {
                        reducer(&k, vs, &mut em, &mut w);
                    }
                    let pairs = em.into_pairs();
                    w.add_records_out(pairs.len() as u64);

                    let mut lines = Vec::new();
                    if let Some(fmt) = &format {
                        lines.reserve(pairs.len());
                        let mut out_bytes = 0u64;
                        for (k, v) in &pairs {
                            let line = fmt(k, v);
                            out_bytes += line.len() as u64 + 1;
                            lines.push(line);
                        }
                        // HDFS commit: local write plus pipeline replication.
                        w.add_disk_write(out_bytes);
                        w.add_net(out_bytes * (replication.saturating_sub(1)));
                        if integrity {
                            // Checksum the committed blocks at write time.
                            w.add_stall_micros(
                                (cost_red.checksum(out_bytes).as_secs() * 1e6) as u64,
                            );
                        }
                    }

                    let profile = TaskProfile {
                        work: w,
                        shuffle_read_bytes: bytes,
                        ..TaskProfile::new()
                    };
                    (pairs, lines, profile)
                });

        let task_specs: Vec<TaskSpec> = reduce_outs
            .iter()
            .map(|(_, _, p)| {
                TaskSpec::anywhere(
                    SimDuration::from_secs(cost.mr_task_overhead) + p.work.data_time(&cost),
                )
            })
            .collect();
        let reduce_label = format!("{}: reduce", job.name);
        let (detailed, recovery, pad, queue) =
            self.schedule_wave(&reduce_label, &task_specs, None)?;
        metrics.record_stage_with_recovery(
            StageExecution {
                label: reduce_label,
                kind: EventKind::Stage,
                shuffle_id: None,
                queue,
                overhead: SimDuration::ZERO,
                trailing: SimDuration::from_secs(cost.mr_wave_latency)
                    * detailed.outcome.waves as f64
                    + pad,
                tasks: detailed
                    .placements
                    .iter()
                    .zip(&reduce_outs)
                    .enumerate()
                    .map(|(i, (pl, (_, _, p)))| TaskExecution {
                        partition: i,
                        node: pl.node,
                        core: pl.core,
                        start: pl.start,
                        duration: pl.duration,
                        profile: *p,
                    })
                    .collect(),
            },
            recovery,
        );
        self.record_wave(queue, &detailed);

        // ---- commit & gather ----
        let mut pairs = Vec::new();
        let mut all_lines = Vec::new();
        for (p, l, _) in reduce_outs {
            pairs.extend(p);
            all_lines.extend(l);
        }
        let output_records = pairs.len() as u64;

        let output_file = match &job.output {
            Some(spec_out) => {
                let f = cluster.hdfs().put_overwrite(&spec_out.path, all_lines);
                metrics.advance_with_event(
                    SimDuration::from_millis(100.0), // namenode commit round-trip
                    EventKind::HdfsWrite,
                    format!("{}: commit {}", job.name, spec_out.path),
                );
                Some(f)
            }
            None => None,
        };

        // The driver reads the (small) result pairs back.
        let result_bytes = slice_bytes(&pairs);
        metrics.advance(cost.serialize(result_bytes) + cost.net_transfer(result_bytes));

        metrics.end_job(job_span);

        Ok(MrJobResult {
            pairs,
            output_file,
            stats: JobStats {
                map_tasks,
                reduce_tasks,
                shuffle_records,
                shuffle_bytes,
                input_bytes: file.bytes(),
                output_records,
            },
        })
    }
}
