//! The benchmark's metric catalog: every name it prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Experiment functions `repro all` calls, in its order.
pub const EXPERIMENTS: [&str; 25] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "waitcompute",
    "backup_cost",
    "fig9",
    "fig12",
    "fig14",
    "safebits",
    "wcec",
    "ckpt",
    "fig15",
    "fig16",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig24",
    "fig25",
    "fig27",
    "table2",
    "frametime",
    "fig28",
];

/// Per-layer metrics other than the per-experiment `repro.<name>_s`
/// timings, printed by every traced run.
pub const LAYERS: [(&str, &str); 52] = [
    ("power.synth_s", "s"),
    ("sim.build_us", "us"),
    ("sim.run_us", "us"),
    ("sim.instr", "count"),
    ("sim.ns_per_instr", "ns"),
    ("sim.backups", "count"),
    ("sim.restores", "count"),
    ("sim.compile_ms", "ms"),
    ("sim.compiles", "count"),
    ("trace.counter_overhead", "ratio"),
    ("http.miss_connects", "count"),
    ("http.hit_connects", "count"),
    ("http.miss_connect_us", "us"),
    ("http.hit_connect_us", "us"),
    ("http.miss_ttfb_us", "us"),
    ("http.hit_ttfb_us", "us"),
    ("http.miss_read_us", "us"),
    ("http.hit_read_us", "us"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_tail_ms", "ms"),
    ("serve.miss_rps", "1/s"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_tail_ms", "ms"),
    ("serve.hit_rps", "1/s"),
    ("serve.parse_us", "us"),
    ("serve.cache_hit_us", "us"),
    ("serve.server_hit_us", "us"),
    ("serve.populate_cache_hits", "count"),
    ("serve.populate_cache_misses", "count"),
    ("serve.populate_coalesced", "count"),
    ("serve.populate_simulations", "count"),
    ("serve.populate_rejected", "count"),
    ("serve.replay_cache_hits", "count"),
    ("serve.replay_cache_misses", "count"),
    ("serve.replay_coalesced", "count"),
    ("serve.replay_simulations", "count"),
    ("serve.replay_rejected", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.unattributed_hit_us", "us"),
    ("fleet.sim_chunks_s", "s"),
    ("fleet.fold_chunks_s", "s"),
    ("fleet.fold_ns_per_device", "ns"),
    ("fleet.cells_computed", "count"),
    ("fleet.cells_shared", "count"),
    ("fleet.cells_per_s", "1/s"),
    ("fleet.sample_ns_per_device", "ns"),
    ("fleet.cell_hit_ns", "ns"),
    ("fleet.render_ms", "ms"),
    ("fleet.snapshot_encode_ms", "ms"),
    ("fleet.snapshot_decode_ms", "ms"),
    ("fleet.snapshot_bytes", "count"),
    ("trace_overhead", "ratio"),
];

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    EXPERIMENTS
        .iter()
        .map(|e| (format!("repro.{e}_s"), "s"))
        .chain(LAYERS.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;
    use nvp_serve::json::Json;
    use std::collections::HashSet;

    fn valid_unit(unit: &str) -> bool {
        unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_is_valid_and_unique() {
        let mut seen = HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer());
        for (name, unit) in all {
            assert!(valid_name(&name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
            assert!(seen.insert(name.clone()), "{name} listed twice");
        }
        assert!(seen.len() <= 128 + END_TO_END.len());
    }

    /// The benchmark's declared metrics must be exactly what it prints.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }
}
