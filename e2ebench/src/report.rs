//! The metric catalogue and the result line.
//!
//! Every run prints every end-to-end metric (untraced) or every per-layer
//! metric (traced), named and united as `BENCHMARK.json` lists them; a
//! workload that does not exercise a layer reports that layer's counters
//! as 0.

use std::collections::BTreeMap;

use bdcc_obs::json::Obj;

use crate::setup::SCHEMES;
use crate::trace::CLASSES;

/// End-to-end metrics: `(name, unit)`.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut m = vec![("setup_s".to_string(), "s")];
    for s in SCHEMES {
        m.push((format!("{s}.query_ms"), "ms"));
        m.push((format!("{s}.io_ms"), "ms"));
        m.push((format!("{s}.mem_mb"), "MiB"));
    }
    m.push(("p50_ms".into(), "ms"));
    m.push(("p99_ms".into(), "ms"));
    m.push(("goodput_qps".into(), "1/s"));
    m.push(("ok_share".into(), "share"));
    m
}

/// Per-layer metrics: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("tpch.gen_s".into(), "s"),
        ("core.design_s".into(), "s"),
        ("core.cluster_s".into(), "s"),
        ("exec.pk_sort_s".into(), "s"),
        ("core.groups".into(), "count"),
        ("core.rows_per_group".into(), "rows"),
    ];
    for s in SCHEMES {
        m.push((format!("{s}.io.bytes"), "bytes"));
        m.push((format!("{s}.io.seeks"), "count"));
        m.push((format!("{s}.io.seq"), "count"));
        for c in CLASSES {
            m.push((format!("{s}.{c}.self_ms"), "ms"));
        }
        m.push((format!("{s}.scan.rows_out"), "rows"));
        m.push((format!("{s}.scan.blocks_skipped"), "count"));
        m.push((format!("{s}.agg.rows_in"), "rows"));
        m.push((format!("{s}.join.rows_out"), "rows"));
        m.push((format!("{s}.sandwich.peak_mb"), "MiB"));
        m.push((format!("{s}.join.peak_mb"), "MiB"));
        m.push((format!("{s}.plan_other_ms"), "ms"));
        m.push((format!("{s}.obs.overhead"), "ratio"));
    }
    for (n, u) in [
        ("spill_mb", "MiB"),
        ("spill.partitions", "count"),
        ("spill.restore_mb", "MiB"),
        ("spill.self_ms", "ms"),
        ("pool.jobs", "count"),
        ("pool.steals", "count"),
        ("pool.parks", "count"),
        ("pool.lends", "count"),
        ("serve.queue_wait_p50_ms", "ms"),
        ("serve.queue_wait_p99_ms", "ms"),
        ("serve.exec_p50_ms", "ms"),
        ("serve.exec_p99_ms", "ms"),
        ("serve.rejected", "count"),
        ("gen.late_ms", "ms"),
    ] {
        m.push((n.to_string(), u));
    }
    m
}

/// Metric values collected by a run.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Fill every catalogue name the workload left unset with 0 (layers
    /// it does not exercise).
    pub fn zero_fill(&mut self, catalogue: &[(String, &'static str)]) {
        for (n, _) in catalogue {
            self.0.entry(n.clone()).or_insert(0.0);
        }
    }

    /// The result line: every catalogue metric with its unit.
    pub fn result_line(
        &self,
        catalogue: &[(String, &'static str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut metrics = Obj::new();
        for (name, unit) in catalogue {
            let v = self.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
            metrics = metrics.raw(name, &Obj::new().f64("value", v).str("unit", unit).finish());
        }
        Obj::new()
            .bool("correct", correct)
            .u64("attempted", attempted)
            .u64("failed", failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }
}
