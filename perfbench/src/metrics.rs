//! Every metric the benchmark prints, with its unit. `BENCHMARK.json` at the
//! repository root lists the same names and units; a test keeps them equal.

/// Printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("mine_s", "s"),
    ("virtual_s", "virt_s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("success_ratio", "ratio"),
];

/// Printed by a traced run (`--trace 1`). Names ending in `_s` with unit
/// `s` are host seconds from the traced run's spans; the rest are counts
/// and virtual times from the traced mine, or the probes' return values.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("data.to_lines_s", "s"),
    ("data.parse_s", "s"),
    ("cluster.hdfs_put_s", "s"),
    ("cluster.jobs", "count"),
    ("cluster.stages", "count"),
    ("cluster.tasks", "count"),
    ("cluster.sched_decision_units", "count"),
    ("cluster.virt.compute_s", "virt_s"),
    ("cluster.virt.driver_s", "virt_s"),
    ("cluster.virt.broadcast_s", "virt_s"),
    ("cluster.virt.shuffle_write_s", "virt_s"),
    ("cluster.virt.shuffle_read_s", "virt_s"),
    ("cluster.virt.cache_s", "virt_s"),
    ("cluster.virt.scheduler_idle_s", "virt_s"),
    ("cluster.virt.fault_stall_s", "virt_s"),
    ("cluster.virt.task_busy_s", "virt_s"),
    ("cluster.virt.queue_wait_s", "virt_s"),
    ("cluster.mem.spills", "count"),
    ("cluster.mem.spill_bytes", "bytes"),
    ("cluster.mem.oom_killed", "count"),
    ("cluster.mem.degradations", "count"),
    ("cluster.mem.peak_execution_bytes", "bytes"),
    ("cluster.task_retries", "count"),
    ("rdd.load_s", "s"),
    ("rdd.cache_read_s", "s"),
    ("rdd.shuffle_items_s", "s"),
    ("rdd.shuffle_pairs_s", "s"),
    ("rdd.broadcast_s", "s"),
    ("rdd.shuffle_bytes", "bytes"),
    ("rdd.records_written", "count"),
    ("rdd.records_read", "count"),
    ("rdd.bytes_materialized", "bytes"),
    ("rdd.cache_hits", "count"),
    ("rdd.cache_misses", "count"),
    ("rdd.cache_hit_ratio", "ratio"),
    ("rdd.cache_peak_bytes", "bytes"),
    ("rdd.broadcast_read_bytes", "bytes"),
    ("rdd.broadcast_ship_bytes", "bytes"),
    ("core.ap_gen_s", "s"),
    ("core.candidates", "count"),
    ("core.encode_s", "s"),
    ("core.bitmap_build_s", "s"),
    ("core.bitmap_count_s", "s"),
    ("core.bitmap_words", "count"),
    ("core.hashtree_s", "s"),
    ("core.hashtree_visits", "count"),
    ("core.audit_s", "s"),
    ("core.passes", "count"),
    ("core.frequent", "count"),
    ("core.candidate_yield", "ratio"),
    ("trace_overhead_s", "s"),
];

/// The registry and critical-path entries of a captured run manifest that
/// the per-layer counts are read from.
pub const FROM_MANIFEST: &[(&str, &str)] = &[
    ("cluster.jobs", "jobs"),
    ("cluster.stages", "stages"),
    ("cluster.tasks", "tasks"),
    (
        "cluster.sched_decision_units",
        "counter.sched.decision_units",
    ),
    ("cluster.virt.compute_s", "bucket.compute"),
    ("cluster.virt.driver_s", "bucket.driver"),
    ("cluster.virt.broadcast_s", "bucket.broadcast"),
    ("cluster.virt.shuffle_write_s", "bucket.shuffle_write"),
    ("cluster.virt.shuffle_read_s", "bucket.shuffle_read"),
    ("cluster.virt.cache_s", "bucket.cache"),
    ("cluster.virt.scheduler_idle_s", "bucket.scheduler_idle"),
    ("cluster.virt.fault_stall_s", "bucket.fault_stall"),
    ("cluster.virt.task_busy_s", "hist.executor.task_seconds.sum"),
    (
        "cluster.virt.queue_wait_s",
        "hist.executor.queue_wait_seconds.sum",
    ),
    ("cluster.mem.spills", "mem.spills"),
    ("cluster.mem.spill_bytes", "mem.spill_bytes"),
    ("cluster.mem.oom_killed", "mem.oom_killed"),
    ("cluster.mem.degradations", "mem.degradations"),
    (
        "cluster.mem.peak_execution_bytes",
        "mem.peak_execution_bytes",
    ),
    ("cluster.task_retries", "recovery.task_retries"),
    ("rdd.shuffle_bytes", "counter.shuffle.write_bytes"),
    ("rdd.records_written", "counter.executor.records_written"),
    ("rdd.records_read", "counter.executor.records_read"),
    (
        "rdd.bytes_materialized",
        "counter.executor.bytes_materialized",
    ),
    ("rdd.cache_hits", "counter.cache.hits"),
    ("rdd.cache_misses", "counter.cache.misses"),
    ("rdd.cache_peak_bytes", "gauge.cache.peak_bytes"),
    ("rdd.broadcast_read_bytes", "counter.broadcast.read_bytes"),
    ("rdd.broadcast_ship_bytes", "counter.broadcast.ship_bytes"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use yafim_cluster::json::{self, JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .unwrap_or_else(|| panic!("{key} entry without `{f}`"))
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("a `workloads` list")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("a name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn manifest_sources_are_per_layer_metrics() {
        for (name, _) in FROM_MANIFEST {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{name} is not a per-layer metric"
            );
        }
    }

    #[test]
    fn readme_says_what_every_per_layer_metric_should_move() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("perfbench/README.md");
        for (name, _) in PER_LAYER {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md does not document {name}"
            );
        }
    }
}
