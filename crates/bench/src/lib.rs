//! Shared harness code for the experiment binaries that regenerate every
//! table and figure of the paper (see DESIGN.md §4 for the index).
//!
//! Each binary prints the paper-shaped output to stdout and, where the
//! artefact feeds EXPERIMENTS.md, writes a JSON record under `results/`.
#![forbid(unsafe_code)]

use dwcp_core::{EvaluationOptions, MethodChoice, Pipeline, PipelineConfig, SeriesJob};
use dwcp_series::Granularity;
use dwcp_workload::{oltp_scenario, Metric, Scenario};
use serde::Serialize;
use std::path::PathBuf;

/// Seed used by every experiment binary, so reruns are identical.
pub const EXPERIMENT_SEED: u64 = 20200614; // SIGMOD'20 opening day

/// Current peak resident set size (`VmHWM`) of this process in bytes, or
/// `None` off Linux / when `/proc` is unavailable. Process-monotonic: it
/// never decreases, so benches that compare scenarios must measure each
/// scenario in a fresh child process.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// The SARIMAX pipeline configuration of the OLTP fleet batch
/// (`bench_estate`'s wave-size parity scenario).
pub fn fleet_job_config(granularity: Granularity, quick: bool, threads: usize) -> PipelineConfig {
    PipelineConfig {
        method: MethodChoice::Sarimax,
        grid: Default::default(),
        granularity,
        max_candidates: if quick { 4 } else { 16 },
        fourier_stage: false,
        auto_detect_shocks: false,
        eval: EvaluationOptions {
            threads,
            fit: dwcp_models::arima::ArimaOptions {
                max_evals: 0, // convergence-driven: warm and cold fits agree
                restarts: 0,
                interval_level: 0.95,
                ..Default::default()
            },
            ..Default::default()
        },
    }
}

/// The 12-job OLTP fleet batch (2 instances × 3 metrics × hourly+daily;
/// quick mode: 1 instance × 2 metrics, hourly only) behind
/// `bench_estate`'s wave-size parity scenario.
pub fn oltp_fleet_batch(
    quick: bool,
    threads: usize,
) -> Result<Vec<SeriesJob>, Box<dyn std::error::Error>> {
    let mut scenario = oltp_scenario();
    scenario.duration_days = 98; // daily protocol needs >= 90 observations
    let repo = scenario.run(EXPERIMENT_SEED)?;
    let hours = scenario.hours();
    let exog_full = scenario.exogenous_columns(scenario.start, hours);

    let instances = if quick {
        vec!["cdbm011".to_string()]
    } else {
        scenario.instance_names()
    };
    let metrics: &[Metric] = if quick {
        &[Metric::CpuPercent, Metric::LogicalIops]
    } else {
        &Metric::ALL
    };

    let mut jobs = Vec::new();
    for instance in &instances {
        for &metric in metrics {
            let hourly = repo.hourly_series(instance, metric, scenario.start, hours)?;
            let h0 = hours - Granularity::Hourly.observations();
            let window = hourly.slice(h0, hours);
            let exog: Vec<Vec<f64>> = exog_full.iter().map(|c| c[h0..hours].to_vec()).collect();
            jobs.push(
                SeriesJob::new(
                    format!("{instance}/{}/hourly", metric.label()),
                    window,
                    fleet_job_config(Granularity::Hourly, quick, threads),
                )
                .with_exog(exog),
            );
            if quick {
                continue; // quick mode: hourly jobs only
            }
            let daily = repo.daily_series(instance, metric, scenario.start, 98)?;
            jobs.push(SeriesJob::new(
                format!("{instance}/{}/daily", metric.label()),
                daily,
                fleet_job_config(Granularity::Daily, quick, threads),
            ));
        }
    }
    Ok(jobs)
}

/// One row of a regenerated Table 2.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// Model descriptor, e.g. `SARIMAX FFT Exogenous (4,1,2)(1,1,1,24)`.
    pub model: String,
    /// Family label (`ARIMA` / `SARIMAX` / `SARIMAX FFT Exogenous`).
    pub family: String,
    /// Metric label (`CPU` / `Memory` / `Logical IOPS`).
    pub metric: String,
    /// Instance name.
    pub instance: String,
    /// Held-out RMSE.
    pub rmse: f64,
    /// Held-out MAPE, percent.
    pub mape: f64,
    /// Held-out MAPA, percent.
    pub mapa: f64,
}

/// A regenerated experiment table plus bookkeeping for EXPERIMENTS.md.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentArtifact {
    /// `table2a`, `table2b`, `figure6`, …
    pub id: String,
    /// Scenario label.
    pub scenario: String,
    /// The rows.
    pub rows: Vec<Table2Row>,
    /// Total models scored across the table.
    pub models_scored: usize,
    /// Total infeasible fits.
    pub failures: usize,
}

impl ExperimentArtifact {
    /// Write to `results/<id>.json` (relative to the workspace root).
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(
            &path,
            serde_json::to_string_pretty(self).expect("serializable"),
        )?;
        Ok(path)
    }
}

/// `results/` next to the workspace root (walks up from the executable's
/// cwd, falling back to `./results`).
pub fn results_dir() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for _ in 0..4 {
        if dir.join("Cargo.toml").exists() && dir.join("DESIGN.md").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            break;
        }
    }
    PathBuf::from("results")
}

/// The standard pipeline configuration used by the experiment binaries.
/// `DWCP_QUICK=1` shrinks the candidate budget for smoke runs.
pub fn experiment_pipeline() -> Pipeline {
    let quick = std::env::var("DWCP_QUICK").is_ok();
    Pipeline::new(PipelineConfig {
        method: MethodChoice::Sarimax,
        grid: Default::default(),
        granularity: Granularity::Hourly,
        max_candidates: if quick { 4 } else { 16 },
        fourier_stage: true,
        auto_detect_shocks: false,
        eval: EvaluationOptions {
            threads: 0,
            fit: dwcp_models::arima::ArimaOptions {
                max_evals: if quick { 150 } else { 500 },
                restarts: if quick { 0 } else { 1 },
                interval_level: 0.95,
                ..Default::default()
            },
            start_index: 0,
            ..Default::default()
        },
    })
}

/// Per-family cap used when regenerating Table 2 (full mode scores
/// hundreds of models per cell; quick mode a handful).
pub fn per_family_cap() -> usize {
    if std::env::var("DWCP_QUICK").is_ok() {
        3
    } else {
        8
    }
}

/// Regenerate one Table 2 panel for `scenario`: the best model of each of
/// the three families for every metric × instance cell.
pub fn regenerate_table2(id: &str, scenario: &Scenario) -> ExperimentArtifact {
    use dwcp_core::ModelFamily;
    let pipeline = experiment_pipeline();
    let mut rows = Vec::new();
    let mut models_scored = 0usize;
    let mut failures = 0usize;
    for metric in Metric::ALL {
        for instance in scenario.instance_names() {
            let series = scenario
                .hourly(EXPERIMENT_SEED, &instance, metric)
                .expect("scenario run");
            let exog = scenario.exogenous_columns(scenario.start, series.len());
            let report = match pipeline.family_comparison(&series, &exog, per_family_cap()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{instance}/{metric}: {e}");
                    continue;
                }
            };
            models_scored += report.scores.len();
            failures += report.failures;
            for family in [
                ModelFamily::Arima,
                ModelFamily::Sarimax,
                ModelFamily::SarimaxFftExogenous,
            ] {
                if let Some(best) = report.best_of_family(family) {
                    rows.push(Table2Row {
                        model: best.candidate.config.describe(),
                        family: family.label().to_string(),
                        metric: metric.label().to_string(),
                        instance: instance.clone(),
                        rmse: best.accuracy.rmse,
                        mape: best.accuracy.mape,
                        mapa: best.accuracy.mapa,
                    });
                }
            }
        }
    }
    ExperimentArtifact {
        id: id.to_string(),
        scenario: scenario.kind.label().to_string(),
        rows,
        models_scored,
        failures,
    }
}

/// Print a Table 2 panel in the paper's layout.
pub fn print_table2(artifact: &ExperimentArtifact) {
    println!("\n{} — {}", artifact.id, artifact.scenario);
    println!(
        "{:<46} {:<13} {:>14} {:>9} {:>9}  Instance",
        "Forecast & Model", "Metric", "RMSE", "MAPE %", "MAPA %"
    );
    println!("{}", "-".repeat(108));
    // Order: metric, then instance, then family (ARIMA, SARIMAX, FFT) —
    // matching the paper's table layout.
    let mut rows = artifact.rows.clone();
    let family_rank = |f: &str| match f {
        "ARIMA" => 0,
        "SARIMAX" => 1,
        _ => 2,
    };
    let metric_rank = |m: &str| match m {
        "CPU" => 0,
        "Memory" => 1,
        _ => 2,
    };
    rows.sort_by_key(|r| {
        (
            metric_rank(&r.metric),
            r.instance.clone(),
            family_rank(&r.family),
        )
    });
    for row in &rows {
        println!(
            "{:<46} {:<13} {:>14.2} {:>9.2} {:>9.2}  {}",
            row.model, row.metric, row.rmse, row.mape, row.mapa, row.instance
        );
    }
    println!(
        "\n[{} models scored, {} infeasible]",
        artifact.models_scored, artifact.failures
    );
}

/// Render a compact ASCII sparkline of a series (for the figure binaries).
pub fn sparkline(values: &[f64], width: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return "·".repeat(width.min(values.len()));
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    let stride = (values.len() as f64 / width as f64).max(1.0);
    let mut out = String::with_capacity(width);
    let mut pos = 0.0;
    while (pos as usize) < values.len() && out.chars().count() < width {
        let v = values[pos as usize];
        if v.is_finite() {
            let level = (((v - min) / span) * 7.0).round() as usize;
            out.push(GLYPHS[level.min(7)]);
        } else {
            out.push('·');
        }
        pos += stride;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_spans_the_range() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 8);
        assert_eq!(s.chars().count(), 8);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    #[test]
    fn sparkline_marks_gaps() {
        let s = sparkline(&[1.0, f64::NAN, 2.0], 3);
        assert!(s.contains('·'));
    }

    #[test]
    fn sparkline_constant_series_is_flat() {
        let s = sparkline(&[5.0; 10], 5);
        assert!(s.chars().all(|c| c == s.chars().next().unwrap()));
    }

    #[test]
    fn results_dir_is_under_workspace() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
    }

    #[test]
    fn quick_mode_shrinks_budgets() {
        // Can't set env safely in parallel tests; just check the default.
        if std::env::var("DWCP_QUICK").is_err() {
            assert_eq!(per_family_cap(), 8);
        }
    }
}
