//! Order statistics and the one-line JSON result the benchmark prints.

use std::fmt::Write as _;

/// The value at quantile `q` (0..=1) of `sorted`, by nearest rank:
/// the smallest sample with at least `q` of the samples at or below it.
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced pass, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 48] = [
    // Simulator, timed around the public entry points.
    ("kernel.engine_new_ms", "ms"),
    ("kernel.engine_run_s", "s"),
    ("workload.next_block_ns", "ns"),
    ("sim.fetch_code_ns", "ns"),
    ("sim.access_data_ns", "ns"),
    ("sim.tlb_access_ns", "ns"),
    ("sim.directory_ns", "ns"),
    ("sim.heatmap_insert_ns", "ns"),
    ("kernel.event_queue_ns", "ns"),
    ("workload.next_block_share", "ratio"),
    ("sim.fetch_code_share", "ratio"),
    ("sim.access_data_share", "ratio"),
    ("sim.heatmap_insert_share", "ratio"),
    ("kernel.event_queue_share", "ratio"),
    ("kernel.unattributed_share", "ratio"),
    // Simulator, exact counts.
    ("sim.instructions", "count"),
    ("kernel.final_cycle", "count"),
    ("sim.l1i_misses", "count"),
    ("sim.l1d_misses", "count"),
    ("sim.l2_misses", "count"),
    ("sim.llc_misses", "count"),
    ("sim.itlb_misses", "count"),
    ("sim.dtlb_misses", "count"),
    ("sim.coherence_invalidations", "count"),
    ("sim.coherence_transfers", "count"),
    ("core.thread_migrations", "count"),
    ("core.steals", "count"),
    ("core.epoch_reallocations", "count"),
    ("kernel.dispatches", "count"),
    ("kernel.component_ticks", "count"),
    // Fleet, read side.
    ("serve_api.parse_request_us", "us"),
    ("serve_api.cache_key_us", "us"),
    ("router.handle_hot_us", "us"),
    ("router.hot_hit_ratio", "ratio"),
    ("transport.ping_rtt_us", "us"),
    ("client.cpu_us_per_req", "us"),
    // Fleet, write side.
    ("router.forward_us", "us"),
    ("router.max_shard_share", "ratio"),
    ("server.handle_miss_us", "us"),
    ("execute.job_us", "us"),
    ("kernel.engine_new_us", "us"),
    ("obs.jsonl_us", "us"),
    ("disk.append_us", "us"),
    ("disk.record_bytes", "B"),
    ("serve.exec_us_per_job", "us"),
    ("queue.jobs_per_batch", "count"),
    ("serve.executions_per_key", "ratio"),
    // Whole traced pass.
    ("trace.overhead_pct", "%"),
];

/// Collects named values and renders them against one of the metric
/// tables. A name the table lists but the workload did not measure is
/// reported as 0: that layer does no work in this workload.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Every metric of `table`, in table order. Fails on a value that is
    /// not a finite number, or on a name that is not in the table.
    pub fn metrics(&self, table: &[(&'static str, &'static str)]) -> Result<Vec<Metric>, String> {
        if let Some((stray, _)) = self
            .values
            .iter()
            .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
        {
            return Err(format!("metric {stray} is not in the metric table"));
        }
        table
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                if value.is_finite() {
                    Ok(Metric { name, unit, value })
                } else {
                    Err(format!("metric {name} is not finite: {value}"))
                }
            })
            .collect()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints the shortest string that reads back as the same
        // f64, so every measured digit is kept.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_the_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn every_named_metric_is_emitted_with_its_unit() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let mut r = Report::default();
            r.set(table[0].0, 1.25);
            let metrics = r.metrics(table).expect("all finite");
            assert_eq!(metrics.len(), table.len());
            let line = result_line(true, 3, 0, &metrics);
            for (name, unit) in table {
                let needle = format!("\"{name}\": {{\"value\": ");
                let at = line.find(&needle).expect("metric present");
                let tail = &line[at..];
                let end = tail.find('}').expect("object closes");
                assert!(tail[..end].ends_with(&format!("\"unit\": \"{unit}\"")));
            }
        }
        let names: std::collections::HashSet<_> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn the_tables_match_benchmark_json() {
        use schedtask_experiments::serve_api::Json;
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(listed)) = json.get(key) else {
                panic!("{key} is not a list");
            };
            let listed: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, table.to_vec(), "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let m = [Metric {
            name: "setup_s",
            unit: "s",
            value: 0.5,
        }];
        assert_eq!(
            result_line(false, 10, 2, &m),
            "{\"correct\": false, \"attempted\": 10, \"failed\": 2, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn unknown_or_non_finite_metrics_are_refused() {
        let mut r = Report::default();
        r.set("no_such_metric", 1.0);
        assert!(r.metrics(&END_TO_END).is_err());
        let mut r = Report::default();
        r.set("setup_s", f64::NAN);
        assert!(r.metrics(&END_TO_END).is_err());
    }
}
