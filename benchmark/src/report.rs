//! Metric names, the checks ledger, and the result line.

use crate::stats;
use serde_json::Value;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "estate-scan",
    "estate-relearn",
    "serve-mixed",
    "forecast-auto",
];

/// End-to-end metrics: every workload prints all of them, untraced.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

const ESTATE: &[&str] = &["estate-scan", "estate-relearn"];
const FITTING: &[&str] = &["estate-scan", "estate-relearn", "forecast-auto"];
const FORECAST: &[&str] = &["forecast-auto"];
const SERVE: &[&str] = &["serve-mixed"];

/// Per-layer metrics from the traced pass: name, unit, and the workloads
/// whose path runs the layer. A traced run prints every one of them; a
/// layer its workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str, &[&str])] = &[
    ("workload.keys_s", "s", ESTATE),
    ("workload.materialise_s", "s", ESTATE),
    ("repository.fitted_at_many_s", "s", ESTATE),
    ("repository.fetch_many_s", "s", ESTATE),
    ("repository.store_s", "s", ESTATE),
    ("repository.flush_s", "s", ESTATE),
    ("repository.evict_clean_s", "s", ESTATE),
    ("fleet.checkpoint_append_s", "s", ESTATE),
    ("fleet.run_batch_on_s", "s", ESTATE),
    ("fleet.unattributed_s", "s", ESTATE),
    ("fleet.wave_p50_s", "s", ESTATE),
    ("fleet.wave_max_s", "s", ESTATE),
    ("fleet.peak_wave_mb", "MiB", ESTATE),
    ("repository.shard_loads", "count", ESTATE),
    ("repository.entries_appended", "count", ESTATE),
    ("repository.evictions", "count", ESTATE),
    ("repository.compactions", "count", ESTATE),
    ("fleet.reuse_hits", "count", ESTATE),
    ("fleet.reuse_misses", "count", ESTATE),
    ("fleet.reuse_fallbacks", "count", ESTATE),
    ("fleet.reuse_hit_ratio", "ratio", ESTATE),
    ("evaluate.objective_evals", "count", FITTING),
    ("kernels.batch_ets_s", "s", FITTING),
    ("evaluate.lockstep_advance_s", "s", FITTING),
    ("evaluate.lockstep_stage_s", "s", FITTING),
    ("evaluate.lockstep_tell_s", "s", FITTING),
    ("series.read_csv_ms", "ms", FORECAST),
    ("pipeline.run_ms", "ms", FORECAST),
    ("pipeline.refit_ms", "ms", FORECAST),
    ("pipeline.unattributed_ms", "ms", FORECAST),
    ("evaluate.fit_s.arima", "s", FORECAST),
    ("evaluate.fit_s.sarimax", "s", FORECAST),
    ("evaluate.fit_s.sarimax_fft", "s", FORECAST),
    ("evaluate.fit_s.hes", "s", FORECAST),
    ("evaluate.fit_s.tbats", "s", FORECAST),
    ("kernels.batch_css_s", "s", FORECAST),
    ("kernels.batch_tbats_s", "s", FORECAST),
    ("evaluate.cache_hits", "count", FORECAST),
    ("evaluate.warm_starts", "count", FORECAST),
    ("loadgen.late_p99_ms", "ms", SERVE),
    ("serve.latency_tail_ms", "ms", SERVE),
    ("serve.queue_p99_ms", "ms", SERVE),
    ("serve.stalled_ratio", "ratio", SERVE),
    ("serve.connect_p50_ms", "ms", SERVE),
    ("serve.request_p50_ms.push", "ms", SERVE),
    ("serve.request_p50_ms.forecast", "ms", SERVE),
    ("serve.request_p50_ms.series", "ms", SERVE),
    ("serve.request_p50_ms.status", "ms", SERVE),
    ("serve.request_p99_ms.push", "ms", SERVE),
    ("serve.request_p99_ms.forecast", "ms", SERVE),
    ("serve.request_p99_ms.series", "ms", SERVE),
    ("serve.request_p99_ms.status", "ms", SERVE),
    ("serve.http_overhead_p50_ms.push", "ms", SERVE),
    ("serve.http_overhead_p50_ms.forecast", "ms", SERVE),
    ("serve.http_overhead_p50_ms.series", "ms", SERVE),
    ("serve.http_overhead_p50_ms.status", "ms", SERVE),
    ("engine.push_rescore_p50_ms", "ms", SERVE),
    ("engine.push_relearn_p50_ms", "ms", SERVE),
    ("engine.forecast_p50_ms", "ms", SERVE),
    ("engine.read_page_p50_ms", "ms", SERVE),
    ("engine.status_p50_ms", "ms", SERVE),
    ("engine.rescores", "count", SERVE),
    ("engine.relearns", "count", SERVE),
    ("alerts.fired", "count", SERVE),
    ("ingest.push_ns_per_point", "ns", SERVE),
    ("trace.overhead_ratio", "ratio", &WORKLOADS),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Build a metric whose unit comes from the tables above, so a workload
/// cannot report a name the benchmark does not declare.
pub fn metric(name: &str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Operations attempted and failed, and every failed output check. A
/// failed check counts as one failed operation.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn attempt(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// What an untraced pass measured, before it becomes end-to-end metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// One set-up time per round, seconds.
    pub setup_s: Vec<f64>,
    /// Units of work completed (jobs, requests or series) and the wall
    /// time they took.
    pub units: f64,
    pub units_s: f64,
    /// One latency sample per wave, request or series, milliseconds.
    pub latency_ms: Vec<f64>,
    /// One peak RSS per child process, bytes.
    pub peak_rss_bytes: Vec<f64>,
}

impl Measured {
    pub fn end_to_end(&self) -> Vec<Metric> {
        let tail = stats::tail(&self.latency_ms);
        eprintln!(
            "latency: median of {n} samples; tail {} {:.3} ms",
            tail.label,
            tail.value,
            n = tail.samples
        );
        vec![
            metric("setup_s", stats::median(&self.setup_s)),
            metric("throughput_per_s", self.units / self.units_s.max(1e-9)),
            metric("latency_p50_ms", stats::median(&self.latency_ms)),
            metric(
                "peak_rss_mb",
                stats::median(&self.peak_rss_bytes) / (1024.0 * 1024.0),
            ),
        ]
    }
}

/// Every per-layer metric: the measured ones, and 0 for layers the
/// workload's path does not run.
pub fn per_layer(measured: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| metric(name, 0.0))
        })
        .collect()
}

/// Print `name value unit` lines, then the result as the last line.
pub fn print(outcome: &Outcome, metrics: &[Metric]) {
    for failure in &outcome.failures {
        eprintln!("check failed: {failure}");
    }
    for m in metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(outcome, metrics));
}

pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".to_string(), Value::Number(m.value)),
                    ("unit".to_string(), Value::String(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".to_string(), Value::Bool(outcome.correct())),
        (
            "attempted".to_string(),
            Value::Number(outcome.attempted as f64),
        ),
        ("failed".to_string(), Value::Number(outcome.failed as f64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ])
    .to_json()
}
