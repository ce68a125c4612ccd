//! The names and units of everything the benchmark reports. `BENCHMARK.json`
//! at the repo root must list exactly these (a unit test holds the two
//! together); bounds and directions live only there.

pub const WORKLOADS: [&str; 4] = ["train_public", "gang_cold", "scan_pushdown", "serve_mixed"];

/// Unit of simulated (`DanaTiming`) seconds — the paper's clock. Wall
/// metrics use `s` / `ms` / `us` / `ns`, so every number says which clock
/// it was read from.
pub const SIM_S: &str = "sim_s";

/// `--trace 0` metrics: what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_wall_p50_ms", "ms"),
    ("wall_rows_per_s", "rows/s"),
    ("sim_s_per_cycle", SIM_S),
    ("peak_rss_mb", "MiB"),
];

/// `--trace 1` metrics, named `<layer>.<what>` with the crate name as the
/// layer. A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.call_p50_ms.rs_lr", "ms"),
    ("server.call_p50_ms.rs_svm", "ms"),
    ("server.call_p50_ms.wlan", "ms"),
    ("server.call_p50_ms.patient", "ms"),
    ("server.call_p50_ms.blog", "ms"),
    ("server.call_p50_ms.netflix", "ms"),
    ("server.call_p50_ms.execute_s2", "ms"),
    ("server.call_p50_ms.predict_s2", "ms"),
    ("server.call_p50_ms.evaluate_s2", "ms"),
    ("server.call_p50_ms.evaluate_full", "ms"),
    ("server.call_p50_ms.evaluate_x0", "ms"),
    ("server.call_p50_ms.evaluate_x1", "ms"),
    ("server.call_p50_ms.predict_x0", "ms"),
    ("server.call_p50_ms.retrain", "ms"),
    ("server.frontdoor_us", "us"),
    ("server.admission_wait_us", "us"),
    ("server.sql_point_call_us", "us"),
    ("core.parse_statement_us", "us"),
    ("core.unattributed_share", "ratio"),
    ("storage.heap_build_ms", "ms"),
    ("storage.fetch_cold_ms", "ms"),
    ("storage.fetch_warm_ms", "ms"),
    ("storage.io_sim_s", SIM_S),
    ("storage.pool_hit_rate", "ratio"),
    ("storage.evictions", "count"),
    ("storage.drop_table_ms", "ms"),
    ("strider.extract_ms", "ms"),
    ("strider.sim_s", SIM_S),
    ("engine.train_epoch_ms", "ms"),
    ("engine.cycles", "count"),
    ("engine.sim_s", SIM_S),
    ("compiler.deploy_ms", "ms"),
    ("workloads.generate_ms", "ms"),
    ("infer.score_ms", "ms"),
    ("infer.materialize_ms", "ms"),
    ("infer.materialize_selected_ms", "ms"),
    ("parallel.plan_us", "us"),
    ("parallel.score_gang_ms", "ms"),
    ("parallel.merge_us", "us"),
    ("parallel.gang_vs_serial_wall.execute", "ratio"),
    ("parallel.gang_vs_serial_wall.predict", "ratio"),
    ("parallel.gang_vs_serial_wall.evaluate", "ratio"),
    ("parallel.gang_vs_serial_sim.predict", "ratio"),
    ("scan.sidecar_build_ms", "ms"),
    ("scan.compress_page_us", "us"),
    ("scan.decompress_page_us", "us"),
    ("scan.select_slots_ms", "ms"),
    ("scan.compression_ratio", "ratio"),
    ("scan.pages_skipped_share", "ratio"),
    ("scan.selectivity", "ratio"),
    ("scan.decompress_sim_s", SIM_S),
    ("scan.filtered_vs_full_wall.x0", "ratio"),
    ("scan.filtered_vs_full_wall.x1", "ratio"),
    ("scan.filtered_vs_full_sim.x0", "ratio"),
    ("scan.filtered_vs_full_sim.x1", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.coalesced_share", "ratio"),
    ("serve.batch_occupancy_mean", "rows"),
    ("serve.cache_invalidations", "1/retrain"),
    ("serve.point_hit_us", "us"),
    ("serve.point_miss_us", "us"),
    ("serve.point_tail_us", "us"),
    ("serve.cache_get_ns", "ns"),
    ("serve.cache_insert_ns", "ns"),
    ("fpga.axi_sim_s", SIM_S),
    ("fpga.setup_sim_s", SIM_S),
    ("fpga.table5_dana_geomean_ratio", "ratio"),
    ("bench.op_wall_tail_ms", "ms"),
    ("bench.op_samples", "samples"),
    ("bench.phase_s", "s"),
    ("bench.trace_overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::{parse, Value};

    /// `(name, <field>)` of every entry of the list `key`.
    fn listed(spec: &Value, key: &str, field: &str) -> Vec<(String, String)> {
        let text = |entry: &Value, field: &str| match entry.get(field) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key} entry has {field} = {other:?}"),
        };
        spec.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|e| (text(e, "name"), text(e, field)))
            .collect()
    }

    fn owned(defs: &[(&str, &str)]) -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses");
        assert_eq!(listed(&spec, "end_to_end", "unit"), owned(END_TO_END));
        assert_eq!(listed(&spec, "per_layer", "unit"), owned(PER_LAYER));
        let workloads: Vec<String> = listed(&spec, "workloads", "why")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
