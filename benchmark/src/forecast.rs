//! `forecast-auto`: the analyst's path, `dwcp forecast --method auto`.
//!
//! The series are the simulator's OLAP and OLTP scenarios, two instances,
//! three metrics each, written as CSV the way `dwcp simulate` writes them.
//! A round writes its share of them (set-up) and hands the paths to a
//! child, which runs the CLI's `forecast` command on each.
//!
//! The traced child runs the same command's steps from the public parts —
//! `read_csv`, `Pipeline::run`, the champion refit — with a span around
//! each, and must print the same summary and forecast rows.

use crate::child::{self, Child, Error};
use crate::report::{metric, Measured, Metric};
use crate::trace::{self, Span, Tracer};
use crate::{mix, Ctx, Digest};
use dwcp::cli;
use dwcp::models::{FittedEts, FittedSarimax, FittedTbats};
use dwcp::planner::{
    ChampionSpec, EvalStats, ForecastOutcome, MethodChoice, ModelFamily, Pipeline, PipelineConfig,
    ShockDetector,
};
use dwcp::series::interpolate::interpolate_series;
use dwcp::series::{Granularity, TimeSeries};
use dwcp::workload::{olap_scenario, oltp_scenario, Metric as SeriesMetric};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

const METRICS: [(&str, SeriesMetric); 3] = [
    ("cpu", SeriesMetric::CpuPercent),
    ("memory", SeriesMetric::MemoryMb),
    ("iops", SeriesMetric::LogicalIops),
];
const INSTANCES: [&str; 2] = ["cdbm011", "cdbm012"];

/// Series `i` of a run, cycling metric fastest so every round mixes
/// them: metric, then scenario, then instance, then a fresh simulator
/// seed every twelve series.
fn write_series(i: usize, seed: u64, dir: &std::path::Path) -> Result<String, Error> {
    let (metric_name, metric) = METRICS[i % 3];
    let olap = (i / 3).is_multiple_of(2);
    let instance = INSTANCES[(i / 6) % 2];
    let scenario = if olap {
        olap_scenario()
    } else {
        oltp_scenario()
    };
    let series = scenario.hourly(mix(seed, (i / 12) as u64), instance, metric)?;
    let path = dir.join(format!(
        "{i:03}-{}-{instance}-{metric_name}.csv",
        if olap { "olap" } else { "oltp" }
    ));
    std::fs::write(&path, cli::write_csv(&series))?;
    Ok(path.display().to_string())
}

#[derive(Debug, Serialize, Deserialize)]
pub struct Task {
    pub role: String,
    pub inputs: Vec<String>,
    pub traced: bool,
    pub first_id: u64,
}

/// One series' outcome as the child saw it.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct SeriesResult {
    pub ms: f64,
    /// Empty when the output passed every check.
    pub problem: String,
    /// Digest of the summary line and the forecast rows.
    pub digest: String,
}

/// Evaluation counters summed over a round's series.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct FitStats {
    /// Fit time per family in `ModelFamily::ALL` order, summed over workers.
    pub fit_s: Vec<f64>,
    pub batch_css_s: f64,
    pub batch_ets_s: f64,
    pub batch_tbats_s: f64,
    pub advance_s: f64,
    pub stage_s: f64,
    pub tell_s: f64,
    pub objective_evals: usize,
    pub cache_hits: usize,
    pub warm_starts: usize,
}

impl FitStats {
    fn of(s: &EvalStats) -> FitStats {
        FitStats {
            fit_s: ModelFamily::ALL
                .iter()
                .map(|&f| s.family(f).fit_time.as_secs_f64())
                .collect(),
            batch_css_s: s.lockstep.batch_css.as_secs_f64(),
            batch_ets_s: s.lockstep.batch_ets.as_secs_f64(),
            batch_tbats_s: s.lockstep.batch_tbats.as_secs_f64(),
            advance_s: s.lockstep.advance.as_secs_f64(),
            stage_s: s.lockstep.stage.as_secs_f64(),
            tell_s: s.lockstep.tell.as_secs_f64(),
            objective_evals: s.objective_evals,
            cache_hits: s.cache_hits,
            warm_starts: s.warm_starts,
        }
    }

    fn merge(&mut self, other: &FitStats) {
        self.fit_s
            .resize(other.fit_s.len().max(self.fit_s.len()), 0.0);
        for (total, x) in self.fit_s.iter_mut().zip(&other.fit_s) {
            *total += x;
        }
        self.batch_css_s += other.batch_css_s;
        self.batch_ets_s += other.batch_ets_s;
        self.batch_tbats_s += other.batch_tbats_s;
        self.advance_s += other.advance_s;
        self.stage_s += other.stage_s;
        self.tell_s += other.tell_s;
        self.objective_evals += other.objective_evals;
        self.cache_hits += other.cache_hits;
        self.warm_starts += other.warm_starts;
    }
}

#[derive(Debug, Default, Serialize, Deserialize)]
pub struct RoundResult {
    pub series: Vec<SeriesResult>,
    pub stats: FitStats,
    pub peak_rss_bytes: u64,
    pub spans: Vec<Span>,
}

fn horizon() -> usize {
    Granularity::Hourly.horizon()
}

/// Check one forecast's printed output and digest the lines that carry
/// its result: the `# summary:` line and the forecast rows.
fn check_output(text: &str) -> (String, String) {
    let mut digest = Digest::default();
    let mut problems = Vec::new();
    match text.lines().find_map(|l| l.strip_prefix("# summary: ")) {
        Some(json) => {
            digest.add(json.as_bytes());
            let parsed = serde_json::from_str_value(json).ok();
            let field = |name| parsed.as_ref().and_then(|v| v.field(name).ok());
            let named =
                |name| matches!(field(name), Some(serde_json::Value::String(s)) if !s.is_empty());
            let finite =
                matches!(field("rmse"), Some(serde_json::Value::Number(x)) if x.is_finite());
            if !(named("champion") && named("family") && finite) {
                problems.push(format!("summary does not parse: {json}"));
            }
        }
        None => problems.push("no `# summary:` line".to_string()),
    }
    let rows: Vec<&str> = text
        .lines()
        .skip_while(|l| *l != "step,timestamp,forecast,lower,upper")
        .skip(1)
        .collect();
    for row in &rows {
        digest.add(row.as_bytes());
    }
    let finite_rows = rows.iter().all(|row| {
        let fields: Vec<&str> = row.split(',').collect();
        fields.len() == 5
            && fields
                .iter()
                .all(|f| f.parse::<f64>().is_ok_and(f64::is_finite))
    });
    if rows.len() != horizon() || !finite_rows {
        problems.push(format!(
            "{} forecast rows (want {} finite rows)",
            rows.len(),
            horizon()
        ));
    }
    (problems.join("; "), digest.hex())
}

/// Child side of one round.
pub fn child(task: Task) -> Result<(), Error> {
    child::ready();
    let mut result = RoundResult::default();
    let mut tracer = Tracer::new(Instant::now());
    for (k, input) in task.inputs.iter().enumerate() {
        let started = Instant::now();
        let text = if task.traced {
            let id = task.first_id + k as u64;
            tracer
                .span("forecast.series", id, |t| traced_forecast(t, id, input))
                .map(|(text, stats)| {
                    result.stats.merge(&FitStats::of(&stats));
                    text
                })
        } else {
            cli_forecast(input)
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let (problem, digest) = match text {
            Ok(text) => check_output(&text),
            Err(e) => (format!("forecast failed: {e}"), String::new()),
        };
        result.series.push(SeriesResult {
            ms,
            problem,
            digest,
        });
    }
    result.spans = tracer.into_spans();
    result.peak_rss_bytes = child::peak_rss_bytes();
    child::result(&result)
}

/// `dwcp forecast --input FILE --method auto`, through the CLI.
fn cli_forecast(input: &str) -> Result<String, Error> {
    let args = ["forecast", "--input", input, "--method", "auto"].map(String::from);
    let mut out = Vec::new();
    cli::execute(cli::parse(&args)?, &mut out)?;
    Ok(String::from_utf8(out)?)
}

/// `dwcp forecast --method auto` step by step: the configuration, the
/// calls and the printed result lines are the CLI's.
fn traced_forecast(t: &mut Tracer, id: u64, input: &str) -> Result<(String, EvalStats), Error> {
    let series = t.span("series.read_csv", id, |_| -> Result<TimeSeries, Error> {
        Ok(cli::read_csv(&std::fs::read_to_string(input)?)?)
    })?;
    let pipeline = Pipeline::new(PipelineConfig::hourly(MethodChoice::Auto));
    let outcome = t.span("pipeline.run", id, |_| pipeline.run(&series, &[]))?;
    let text = t.span("pipeline.refit", id, |_| {
        refit_and_print(&pipeline, &series, &outcome)
    })?;
    Ok((text, outcome.stats))
}

/// Refit the champion on the full series and print the summary and the
/// forecast rows as the CLI does.
fn refit_and_print(
    pipeline: &Pipeline,
    series: &TimeSeries,
    outcome: &ForecastOutcome,
) -> Result<String, Error> {
    let horizon = horizon();
    let mut working = series.clone();
    if working.has_gaps() {
        interpolate_series(&mut working)?;
    }
    let future = match &outcome.champion_spec {
        ChampionSpec::Sarimax(config) => {
            // No exogenous input: any regressors the champion carries are
            // auto-detected shocks, re-derived over the full window.
            let n = config.n_exog;
            let (hist, fut) = if n == 0 {
                (Vec::new(), Vec::new())
            } else {
                let period = pipeline.config.granularity.seasonal_period();
                let shocks = ShockDetector::new(period).detect(working.values())?;
                let hist = ShockDetector::indicator_columns(&shocks, 0, working.len());
                let fut = ShockDetector::indicator_columns(&shocks, working.len(), horizon);
                (
                    hist.get(..n).ok_or("too few shock columns")?.to_vec(),
                    fut.get(..n).ok_or("too few shock columns")?.to_vec(),
                )
            };
            FittedSarimax::fit(
                working.values(),
                config,
                &hist,
                0,
                &pipeline.config.eval.fit,
            )?
            .forecast(horizon, &fut)?
        }
        ChampionSpec::Ets(config) => FittedEts::fit(working.values(), *config)?.forecast(horizon),
        ChampionSpec::Tbats(config) => {
            FittedTbats::fit(working.values(), config.clone())?.forecast(horizon)
        }
    };
    let family = outcome.family.map(|f| f.label()).unwrap_or("unknown");
    let mut text = format!(
        "# summary: {{\"champion\":\"{}\",\"family\":\"{}\",\"rmse\":{:.6}}}\nstep,timestamp,forecast,lower,upper\n",
        outcome.champion, family, outcome.accuracy.rmse
    );
    let step_seconds = series.frequency().seconds();
    for h in 0..future.len() {
        text.push_str(&format!(
            "{h},{},{:.6},{:.6},{:.6}\n",
            series.next_timestamp() + h as u64 * step_seconds,
            future.mean[h],
            future.lower[h],
            future.upper[h]
        ));
    }
    Ok(text)
}

fn rounds(ctx: &mut Ctx, traced: bool) -> Result<Vec<(f64, RoundResult)>, Error> {
    let per_round = ctx.sizes.series_per_round;
    let mut out = Vec::new();
    for round in 0..ctx.sizes.rounds {
        let dir: PathBuf = ctx.work.join(format!("forecast-{round}"));
        let started = Instant::now();
        std::fs::create_dir_all(&dir)?;
        let first = round * per_round;
        let inputs = (first..first + per_round)
            .map(|i| write_series(i, ctx.seed, &dir))
            .collect::<Result<Vec<_>, _>>()?;
        let task = Task {
            role: "forecast".to_string(),
            inputs,
            traced,
            first_id: first as u64,
        };
        let mut child = Child::spawn(&task)?;
        child.read_until("READY")?;
        let setup_s = started.elapsed().as_secs_f64();
        let offset = ctx.ns_since_origin(child.spawned);
        let mut result: RoundResult = child.finish()?;
        trace::append(&mut ctx.spans, std::mem::take(&mut result.spans), offset);
        let _ = std::fs::remove_dir_all(&dir);
        for (k, s) in result.series.iter().enumerate() {
            ctx.outcome.attempt(1, 0);
            ctx.outcome.check(s.problem.is_empty(), || {
                format!("series {}: {}", first + k, s.problem)
            });
        }
        out.push((setup_s, result));
    }
    Ok(out)
}

pub fn run(ctx: &mut Ctx) -> Result<Vec<Metric>, Error> {
    let plain = rounds(ctx, false)?;
    let series_ms = |rounds: &[(f64, RoundResult)]| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|(_, r)| r.series.iter().map(|s| s.ms))
            .collect()
    };
    if !ctx.traced {
        let mut m = Measured::default();
        for (setup_s, r) in &plain {
            m.setup_s.push(*setup_s);
            m.peak_rss_bytes.push(r.peak_rss_bytes as f64);
        }
        m.latency_ms = series_ms(&plain);
        m.units = m.latency_ms.len() as f64;
        m.units_s = m.latency_ms.iter().sum::<f64>() * 1e-3;
        return Ok(m.end_to_end());
    }

    let first_span = ctx.spans.len();
    let traced = rounds(ctx, true)?;
    let pairs = plain
        .iter()
        .flat_map(|(_, r)| &r.series)
        .zip(traced.iter().flat_map(|(_, r)| &r.series));
    for (i, (p, t)) in pairs.enumerate() {
        ctx.outcome.check(p.digest == t.digest, || {
            format!(
                "series {i}: traced forecast {} != CLI forecast {}",
                t.digest, p.digest
            )
        });
    }
    let spans = &ctx.spans[first_span..];
    let self_s = trace::self_seconds_by_name(spans);
    let n = series_ms(&traced).len().max(1) as f64;
    let wall_ms: f64 = series_ms(&traced).iter().sum();
    let per_series_ms = |name: &str| self_s.get(name).copied().unwrap_or(0.0) * 1e3 / n;
    let unattributed = per_series_ms("forecast.series");
    ctx.outcome.check(unattributed * n <= 0.05 * wall_ms, || {
        format!(
            "layer spans cover {:.1}% of the traced wall, below 95%",
            100.0 * (1.0 - unattributed * n / wall_ms)
        )
    });
    let mut stats = FitStats::default();
    for (_, r) in &traced {
        stats.merge(&r.stats);
    }
    let fit = |family: ModelFamily| stats.fit_s.get(family.index()).copied().unwrap_or(0.0);
    Ok(vec![
        metric("series.read_csv_ms", per_series_ms("series.read_csv")),
        metric("pipeline.run_ms", per_series_ms("pipeline.run")),
        metric("pipeline.refit_ms", per_series_ms("pipeline.refit")),
        metric("pipeline.unattributed_ms", unattributed),
        metric("evaluate.fit_s.arima", fit(ModelFamily::Arima)),
        metric("evaluate.fit_s.sarimax", fit(ModelFamily::Sarimax)),
        metric(
            "evaluate.fit_s.sarimax_fft",
            fit(ModelFamily::SarimaxFftExogenous),
        ),
        metric("evaluate.fit_s.hes", fit(ModelFamily::Hes)),
        metric("evaluate.fit_s.tbats", fit(ModelFamily::Tbats)),
        metric("kernels.batch_css_s", stats.batch_css_s),
        metric("kernels.batch_ets_s", stats.batch_ets_s),
        metric("kernels.batch_tbats_s", stats.batch_tbats_s),
        metric("evaluate.lockstep_advance_s", stats.advance_s),
        metric("evaluate.lockstep_stage_s", stats.stage_s),
        metric("evaluate.lockstep_tell_s", stats.tell_s),
        metric("evaluate.objective_evals", stats.objective_evals as f64),
        metric("evaluate.cache_hits", stats.cache_hits as f64),
        metric("evaluate.warm_starts", stats.warm_starts as f64),
        metric(
            "trace.overhead_ratio",
            wall_ms / series_ms(&plain).iter().sum::<f64>() - 1.0,
        ),
    ])
}
