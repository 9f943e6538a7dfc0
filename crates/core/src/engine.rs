//! The staged forecasting engine: ingest → aggregate → score → alert.
//!
//! The paper's deployment loop is continuous (§5.1): agents poll every
//! instance on a 15-minute cadence, hourly aggregates accumulate, the
//! repository champion is re-scored as data arrives and relearned only
//! when the Figure 4 retention rules fire. The batch pipeline ran that
//! loop one CSV at a time; this module decomposes it into four
//! first-class stages shared by both callers:
//!
//! * **ingest** — [`IngestStage`]: out-of-order 15-minute points folded
//!   into hourly buckets in place ([`dwcp_series::ingest`]),
//! * **aggregate** — [`AggregateStage`]: interpolation, shock discovery
//!   and the Table 1 split (its split half), then the profiled candidate
//!   grid (its grid half, planned only for a grid search),
//! * **score** — [`ScoreStage`]: grid evaluation with the auto-order
//!   benchmark fallback and the §6.3 Fourier stage (the former body of
//!   `Pipeline::run` / `finish`),
//! * **alert** — [`AlertStage`]: threshold rules over the live forecast
//!   ([`crate::alerts`]).
//!
//! [`crate::pipeline::Pipeline::run`] is now a thin composition of
//! aggregate + score, so
//! the batch `forecast`/`fleet` paths and the resident [`Engine`] under
//! `dwcp serve` produce **bit-identical champions** from the same data —
//! the stages are the single implementation, not a parallel one.
//!
//! The resident [`Engine`] adds the incremental contract on top: each
//! appended hour runs the workload through the same §5.1 decision as the
//! nightly estate relearn ([`run_batch_on`] on a batch of one). A fresh
//! stored champion is re-scored **frozen** (`freeze_warm_start`: the
//! stored parameters are evaluated verbatim, one objective evaluation, no
//! optimiser) and kept; only a [`RelearnReason`] — missing, one-week
//! stale, or RMSE degraded past the policy factor — triggers a grid
//! search.

use crate::alerts::{AlertEngine, AlertRule, CapacityAlert};
use crate::auto_order::{naive_benchmark_rmse, AutoOrderOptions, AutoOrderPlan};
use crate::candidates::{CandidateSet, DataProfile};
use crate::evaluate::{evaluate_candidates, EvalTask, EvaluationOptions, EvaluationReport};
use crate::fleet::{run_batch_on, FleetOptions, SeriesJob};
use crate::grid::{CandidateModel, ModelConfig, ModelGrid};
use crate::pipeline::{ForecastOutcome, GridStrategy, PipelineConfig};
use crate::repository::{ModelRecord, RelearnReason, ShardedRepository};
use crate::{PlannerError, Result};
use dwcp_models::arima::ArimaOptions;
use dwcp_models::{
    EtsFitOptions, FittedEts, FittedSarimax, FittedTbats, Forecast, TbatsFitOptions,
};
use dwcp_series::boxcox::{select_lambda, shift_to_positive};
use dwcp_series::ingest::{IngestBuffer, PointOrder, SeriesPage};
use dwcp_series::interpolate::interpolate_series;
use dwcp_series::{TimeSeries, TrainTestSplit};
use std::collections::BTreeMap;

/// The split half of the aggregate stage, everything a scoring pass reads
/// besides its candidates: the Table 1 split, its aligned exogenous
/// columns and the evaluation options. Produced by
/// `AggregateStage::split`.
pub(crate) struct SplitPlan {
    pub split: TrainTestSplit,
    pub exog_train: Vec<Vec<f64>>,
    pub exog_test: Vec<Vec<f64>>,
    pub gaps_filled: usize,
    pub eval_opts: EvaluationOptions,
}

impl SplitPlan {
    /// One evaluation task over this split: `candidates`, seeded when a
    /// stored champion seed is given.
    pub(crate) fn task<'a>(
        &'a self,
        candidates: &'a [CandidateModel],
        seed: Option<(ModelConfig, Vec<f64>, Vec<f64>)>,
    ) -> EvalTask<'a> {
        EvalTask {
            train: self.split.train.values(),
            test: self.split.test.values(),
            exog_train: &self.exog_train,
            exog_test: &self.exog_test,
            candidates,
            opts: self.eval_opts.clone(),
            seed,
        }
    }
}

/// The grid half of the aggregate stage: the data profile and the
/// candidate grid for the configured method. Produced by
/// `AggregateStage::grid`; only a job that searches needs one.
pub(crate) struct GridPlan {
    pub set: CandidateSet,
    /// Present only under [`GridStrategy::AutoOrder`]: the differencing
    /// order the seeded grid was built with (for the drift benchmark) and
    /// the full-strategy SARIMAX models to fall back to when the seeded
    /// champion degrades past the naive benchmark.
    pub auto_fallback: Option<AutoFallback>,
}

/// Both halves of the aggregate stage: what a full grid search needs.
/// Produced by `AggregateStage::prepare` and consumed by [`ScoreStage`].
pub(crate) struct EvalPlan {
    pub data: SplitPlan,
    pub grid: GridPlan,
}

/// The insurance attached to an auto-order plan (see `GridPlan`).
pub(crate) struct AutoFallback {
    /// Differencing order the auto plan diagnosed.
    pub d: usize,
    /// The full-strategy candidates to evaluate on degradation.
    pub models: Vec<CandidateModel>,
}

/// The **aggregate** stage: everything between raw observations and a
/// ready-to-fit evaluation plan, in two halves. The split half
/// (`AggregateStage::split`) interpolates, discovers shocks, makes the
/// Table 1 split and cuts the exogenous window; the grid half
/// (`AggregateStage::grid`) profiles the training segment and builds
/// the candidate grid for the configured method. A re-score of a stored
/// champion needs the split half only.
pub struct AggregateStage;

impl AggregateStage {
    /// Both halves for one series under one configuration: the plan a
    /// full grid search runs.
    pub(crate) fn prepare(
        config: &PipelineConfig,
        series: &TimeSeries,
        exog_full: &[Vec<f64>],
    ) -> Result<EvalPlan> {
        let data = Self::split(config, series, exog_full)?;
        let grid = Self::grid(config, &data)?;
        Ok(EvalPlan { data, grid })
    }

    /// The split half: interpolation, optional shock discovery, the
    /// Table 1 split and the exogenous columns sliced to its window.
    pub(crate) fn split(
        config: &PipelineConfig,
        series: &TimeSeries,
        exog_full: &[Vec<f64>],
    ) -> Result<SplitPlan> {
        let method = config.method;
        // 1. Gather + missing-value check + interpolation (§5.1).
        let mut working = series.clone();
        let gaps_filled = if working.has_gaps() {
            interpolate_series(&mut working)?
        } else {
            0
        };

        // Exogenous columns only matter when SARIMAX candidates are in
        // play; the smoothing families ignore them entirely.
        let exog_full: &[Vec<f64>] = if method.includes_sarimax() {
            exog_full
        } else {
            &[]
        };

        // 1b. Optional shock discovery: when the caller has no shock
        // calendar, mine the recurring spikes from the data itself and use
        // the admitted slots as exogenous indicators.
        let detected_exog: Vec<Vec<f64>>;
        let exog_full: &[Vec<f64>] = if exog_full.is_empty()
            && config.auto_detect_shocks
            && method.includes_sarimax()
        {
            let period = config.granularity.seasonal_period();
            let mut detector = crate::shocks::ShockDetector::new(period);
            match detector.detect(working.values()) {
                Ok(shocks) if !shocks.is_empty() => {
                    detected_exog =
                        crate::shocks::ShockDetector::indicator_columns(&shocks, 0, working.len());
                    &detected_exog
                }
                _ => exog_full,
            }
        } else {
            exog_full
        };

        // 2. Table 1 split.
        let split = TrainTestSplit::from_series(&working, config.granularity)?;
        // Exogenous columns must be sliced to the same trailing window.
        let window = config.granularity.observations();
        let offset = working.len() - window;
        let train_len = split.train.len();
        let (exog_train, exog_test) = split_exog_window(exog_full, offset, window, train_len)?;
        let mut eval_opts = config.eval.clone();
        eval_opts.start_index = offset;
        Ok(SplitPlan {
            split,
            exog_train,
            exog_test,
            gaps_filled,
            eval_opts,
        })
    }

    /// The grid half: profile the training segment and build the
    /// candidate grid for the chosen families.
    pub(crate) fn grid(config: &PipelineConfig, data: &SplitPlan) -> Result<GridPlan> {
        let method = config.method;
        let train = data.split.train.values();
        let profile = DataProfile::analyze(train)?;
        let fallback_period = config.granularity.seasonal_period();
        let mut models: Vec<CandidateModel> = Vec::new();
        let mut auto_fallback = None;
        if method.includes_sarimax() {
            let set = CandidateSet::sarimax(
                profile.clone(),
                fallback_period,
                data.exog_train.len(),
                config.max_candidates,
            );
            match config.grid {
                GridStrategy::Full => models.extend(set.models),
                GridStrategy::AutoOrder => {
                    // Seed the grid from the order diagnostics — seasonal
                    // orders included when the granularity names a period —
                    // and keep the full strategy's models as the
                    // degradation fallback.
                    let period = profile.primary_period(fallback_period);
                    let auto = AutoOrderPlan::analyze_seasonal(
                        train,
                        AutoOrderOptions::default().max_candidates,
                        (period >= 2).then_some(period),
                    )?;
                    models.extend(auto.grid.candidates);
                    auto_fallback = Some(AutoFallback {
                        d: auto.d,
                        models: set.models,
                    });
                }
            }
        }
        let interval_level = config.eval.fit.interval_level;
        if method.includes_hes() {
            let period = profile.primary_period(fallback_period);
            let positive = train.iter().all(|&v| v > 0.0);
            models.extend(ModelGrid::ets(period, positive, interval_level).candidates);
        }
        if method.includes_tbats() {
            let periods = tbats_periods(&profile, fallback_period);
            // Same Box-Cox λ the standalone TBATS selector would estimate.
            let lambda = {
                let (shifted, _) = shift_to_positive(train, 1.0);
                select_lambda(&shifted, 0.0, 1.0).ok()
            };
            models.extend(ModelGrid::tbats(&periods, lambda, interval_level).candidates);
        }
        // The union grid can contain structural duplicates (e.g. a
        // degenerate Holt-Winters candidate collapsing onto plain Holt);
        // canonicalise and drop them before they reach the work queue.
        crate::grid::dedupe_candidates(&mut models);
        Ok(GridPlan {
            set: CandidateSet { models, profile },
            auto_fallback,
        })
    }
}

/// The **score** stage: grid evaluation, the auto-order naive-benchmark
/// fallback, the §6.3 Fourier stage and outcome assembly — the former
/// bodies of `Pipeline::run` / `finish` / `outcome_from_report`.
pub struct ScoreStage;

impl ScoreStage {
    /// Evaluate a plan's primary grid, applying the auto-order insurance:
    /// a seeded champion that cannot beat the naive benchmark (seasonal
    /// repeat at the detected period) forfeits the pruning bet, and the
    /// full-strategy grid is raced too. Both passes' work is counted; the
    /// champion is the best of both.
    pub(crate) fn evaluate(
        config: &PipelineConfig,
        plan: &mut EvalPlan,
    ) -> Result<EvaluationReport> {
        let data = &plan.data;
        let (train, test) = (data.split.train.values(), data.split.test.values());
        let mut report = evaluate_candidates(
            train,
            test,
            &data.exog_train,
            &data.exog_test,
            &plan.grid.set.models,
            &data.eval_opts,
        )?;
        if let Some(fallback) = plan.grid.auto_fallback.take() {
            let auto_opts = AutoOrderOptions::default();
            let period = plan
                .grid
                .set
                .profile
                .primary_period(config.granularity.seasonal_period());
            let benchmark = naive_benchmark_rmse(train, test, fallback.d, Some(period));
            let threshold = benchmark * auto_opts.degradation_factor;
            // NaN-greatest ordering: a NaN champion RMSE counts as degraded.
            let degraded = report
                .champion()
                .map(|c| dwcp_math::total_cmp_f64(c.accuracy.rmse, threshold).is_gt())
                .unwrap_or(true);
            if degraded {
                let full = evaluate_candidates(
                    train,
                    test,
                    &data.exog_train,
                    &data.exog_test,
                    &fallback.models,
                    &data.eval_opts,
                )?;
                report.absorb(full);
            }
        }
        Ok(report)
    }

    /// The §6.3 Fourier stage's candidate list: the six Fourier variants of
    /// the current champion at the profiled periods. Empty when the stage
    /// is disabled or the champion is not a SARIMAX-family member (the
    /// smoothing families carry no exogenous regressors).
    pub(crate) fn fourier_candidates(
        config: &PipelineConfig,
        profile: &DataProfile,
        report: &EvaluationReport,
    ) -> Vec<CandidateModel> {
        if !config.fourier_stage {
            return Vec::new();
        }
        let Some(champion) = report.champion() else {
            return Vec::new();
        };
        let Some(sarimax) = champion.candidate.as_sarimax() else {
            return Vec::new();
        };
        let fallback_period = config.granularity.seasonal_period();
        let periods = profile.fourier_periods(fallback_period);
        ModelGrid::fourier_variants(sarimax, &periods)
    }

    /// Complete a run from an evaluated primary grid: run the Fourier
    /// stage (when configured and the champion is SARIMAX) and assemble
    /// the outcome.
    pub(crate) fn finish(
        config: &PipelineConfig,
        plan: EvalPlan,
        mut report: EvaluationReport,
    ) -> Result<ForecastOutcome> {
        // §6.3 Fourier stage: take the champion and try the six Fourier
        // variants; keep whichever wins.
        let EvalPlan { data, grid } = plan;
        let variants = Self::fourier_candidates(config, &grid.set.profile, &report);
        if !variants.is_empty() {
            if let Ok(fourier_report) = evaluate_candidates(
                data.split.train.values(),
                data.split.test.values(),
                &data.exog_train,
                &data.exog_test,
                &variants,
                &data.eval_opts,
            ) {
                report.absorb(fourier_report);
            }
        }
        Self::outcome_from_report(data, Some(grid.set.profile), report)
    }

    /// Run the whole score stage on a prepared plan: primary grid +
    /// auto-order insurance + Fourier stage + outcome assembly.
    pub(crate) fn score(config: &PipelineConfig, mut plan: EvalPlan) -> Result<ForecastOutcome> {
        let report = Self::evaluate(config, &mut plan)?;
        Self::finish(config, plan, report)
    }

    /// Assemble a [`ForecastOutcome`] from a finished evaluation over
    /// `data`; `profile` is the grid half's profile, `None` for a frozen
    /// re-score that planned no grid. A report with no champion (every
    /// candidate failed) is `NoViableModel`.
    pub(crate) fn outcome_from_report(
        data: SplitPlan,
        profile: Option<DataProfile>,
        report: EvaluationReport,
    ) -> Result<ForecastOutcome> {
        let EvaluationReport {
            scores,
            failures,
            attempted,
            stats,
        } = report;
        // The champion is the first score; the outcome takes it by value.
        let Some(champion) = scores.into_iter().next() else {
            return Err(PlannerError::NoViableModel { attempted });
        };
        Ok(ForecastOutcome {
            champion: champion.candidate.config.describe(),
            family: Some(champion.candidate.family),
            accuracy: champion.accuracy,
            test_forecast: champion.forecast,
            warm_seed: champion.warm_params,
            warm_beta: champion.warm_beta,
            champion_spec: champion.candidate.config,
            test: data.split.test,
            train: data.split.train,
            evaluated: attempted - failures,
            failures,
            gaps_filled: data.gaps_filled,
            profile,
            stats,
        })
    }
}

/// The seasonal periods TBATS candidates model: the detected cycles
/// (strongest first, at most two — TBATS handles at most a couple of
/// seasonal blocks gracefully), or the granularity's natural period when
/// nothing was detected.
pub(crate) fn tbats_periods(profile: &DataProfile, fallback_period: usize) -> Vec<f64> {
    if profile.seasonal_periods.is_empty() {
        vec![fallback_period as f64]
    } else {
        profile
            .fourier_periods(fallback_period)
            .into_iter()
            .take(2)
            .collect()
    }
}

/// Exogenous columns split at the train/test boundary.
type ExogSplit = (Vec<Vec<f64>>, Vec<Vec<f64>>);

/// Slice each full-history exogenous column to the trailing evaluation
/// window and split it at the train/test boundary. A column shorter than
/// the window is a caller error, reported as `ExogenousMismatch` instead
/// of a slice panic.
pub(crate) fn split_exog_window(
    exog_full: &[Vec<f64>],
    offset: usize,
    window: usize,
    train_len: usize,
) -> Result<ExogSplit> {
    let mut exog_train = Vec::with_capacity(exog_full.len());
    let mut exog_test = Vec::with_capacity(exog_full.len());
    for (idx, col) in exog_full.iter().enumerate() {
        let w = col.get(offset..offset + window).ok_or_else(|| {
            PlannerError::Model(dwcp_models::ModelError::ExogenousMismatch {
                context: format!(
                    "exogenous column {idx} has {} observations, the evaluation window needs {}",
                    col.len(),
                    offset + window
                ),
            })
        })?;
        let train = w.get(..train_len).unwrap_or(w);
        let test = w.get(train_len..).unwrap_or(&[]);
        exog_train.push(train.to_vec());
        exog_test.push(test.to_vec());
    }
    Ok((exog_train, exog_test))
}

/// The **ingest** stage: one workload's raw-point accumulator, wrapping
/// [`IngestBuffer`] with the planner's error type so the resident engine
/// and server speak one error language.
#[derive(Debug, Clone)]
pub struct IngestStage {
    buffer: IngestBuffer,
}

impl IngestStage {
    /// An hourly ingest stage (the paper's deployment cadence).
    pub fn hourly() -> IngestStage {
        IngestStage {
            buffer: IngestBuffer::hourly(),
        }
    }

    /// Fold one raw point into its bucket (out-of-order points fold in
    /// place; see [`IngestBuffer::push`]).
    pub fn push(&mut self, timestamp: u64, value: f64) -> Result<PointOrder> {
        Ok(self.buffer.push(timestamp, value)?)
    }

    /// The aggregated series over every complete bucket.
    pub fn aggregated(&self) -> TimeSeries {
        self.buffer.aggregated_series()
    }

    /// One cursor-paged read of the aggregated series.
    pub fn read_page(&self, cursor: usize, limit: usize) -> SeriesPage {
        self.buffer.read_page(cursor, limit)
    }

    /// The underlying buffer (counters, origin, bucket width).
    pub fn buffer(&self) -> &IngestBuffer {
        &self.buffer
    }
}

/// The **alert** stage: threshold rules scanned over each fresh forecast,
/// with the [`AlertEngine`]'s re-fire hysteresis.
#[derive(Debug, Clone, Default)]
pub struct AlertStage {
    engine: AlertEngine,
}

impl AlertStage {
    /// An alert stage evaluating `rules`.
    pub fn new(rules: Vec<AlertRule>) -> AlertStage {
        AlertStage {
            engine: AlertEngine::new(rules),
        }
    }

    /// Scan one workload's fresh forecast; returns newly fired alerts.
    pub fn scan(
        &mut self,
        workload: &str,
        forecast: &Forecast,
        start_ts: u64,
        step_seconds: u64,
    ) -> Vec<CapacityAlert> {
        self.engine.scan(workload, forecast, start_ts, step_seconds)
    }

    /// The underlying alert engine (rules, fired/suppressed counters).
    pub fn engine(&self) -> &AlertEngine {
        &self.engine
    }
}

/// Resident-engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The pipeline configuration full fits and relearns run under (the
    /// same type the batch CLI uses — that is the parity guarantee).
    pub pipeline: PipelineConfig,
    /// Alert rules scanned after every score.
    pub rules: Vec<AlertRule>,
    /// Future-forecast horizon in aggregation steps (hours).
    pub horizon: usize,
    /// Neighbourhood radius searched when a stored champion degrades.
    pub neighbourhood_radius: usize,
}

impl EngineConfig {
    /// Hourly defaults over a pipeline configuration: 24-hour horizon,
    /// radius-1 neighbourhood, no rules.
    pub fn new(pipeline: PipelineConfig) -> EngineConfig {
        EngineConfig {
            pipeline,
            rules: Vec::new(),
            horizon: 24,
            neighbourhood_radius: 1,
        }
    }
}

/// How a [`StepOutcome::Scored`] step obtained its champion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScoreAction {
    /// No usable stored champion (the workload's first fit): the full
    /// configured grid.
    Learned,
    /// The stored champion was re-scored frozen — one objective
    /// evaluation, no optimiser, no grid.
    Rescored,
    /// The retention rules fired and a grid search ran: the degraded
    /// champion's seeded neighbourhood with full-grid fallback, or the
    /// full grid when stale.
    Relearned(RelearnReason),
}

/// What one engine step did for a workload.
#[derive(Debug)]
pub enum StepOutcome {
    /// Not enough complete hours for the Table 1 protocol yet.
    NeedData {
        /// Complete aggregates available.
        have: usize,
        /// Observations the protocol row requires.
        need: usize,
    },
    /// No new complete aggregate since the last score — nothing to do.
    Unchanged,
    /// The champion was (re-)scored.
    Scored(ScoreSummary),
}

/// The result of a scoring step.
#[derive(Debug)]
pub struct ScoreSummary {
    /// How the champion was obtained.
    pub action: ScoreAction,
    /// Champion descriptor.
    pub champion: String,
    /// Held-out RMSE of this step's score (frozen re-score or fresh fit).
    pub live_rmse: f64,
    /// The stored baseline RMSE the degradation rule compares against.
    pub baseline_rmse: f64,
    /// Alerts newly fired by this step's forecast.
    pub alerts: Vec<CapacityAlert>,
}

/// A public snapshot of one workload's engine state.
#[derive(Debug, Clone)]
pub struct WorkloadStatus {
    /// Workload key.
    pub workload: String,
    /// Raw points accepted.
    pub points: u64,
    /// Points that arrived out of order.
    pub late: u64,
    /// Non-finite points: each marks its hour observed and adds nothing to
    /// its aggregate.
    pub missing: u64,
    /// Complete hourly aggregates.
    pub complete_hours: usize,
    /// Aggregates covered by the last score.
    pub scored_hours: usize,
    /// Champion descriptor, once fitted.
    pub champion: Option<String>,
    /// Last frozen re-score RMSE.
    pub live_rmse: Option<f64>,
    /// Stored baseline RMSE.
    pub baseline_rmse: Option<f64>,
    /// Frozen re-scores performed.
    pub rescores: u64,
    /// Grid searches performed (first fit + relearns).
    pub relearns: u64,
    /// Alerts fired for this workload so far.
    pub alerts_fired: usize,
}

/// A forecast beyond the ingested data, with its time geometry.
#[derive(Debug, Clone)]
pub struct LiveForecast {
    /// Timestamp of horizon step 0 (first hour past the data).
    pub start: u64,
    /// Seconds between horizon steps.
    pub step_seconds: u64,
    /// The forecast itself.
    pub forecast: Forecast,
}

/// Per-workload resident state.
#[derive(Debug)]
struct WorkloadState {
    ingest: IngestStage,
    /// Complete aggregates covered by the last successful score.
    scored_hours: usize,
    live_rmse: Option<f64>,
    /// Baseline RMSE of the stored champion at the last score.
    baseline_rmse: Option<f64>,
    future: Option<LiveForecast>,
    champion: Option<String>,
    rescores: u64,
    relearns: u64,
    alerts: Vec<CapacityAlert>,
}

impl WorkloadState {
    fn new() -> WorkloadState {
        WorkloadState {
            ingest: IngestStage::hourly(),
            scored_hours: 0,
            live_rmse: None,
            baseline_rmse: None,
            future: None,
            champion: None,
            rescores: 0,
            relearns: 0,
            alerts: Vec::new(),
        }
    }
}

/// Cap on the per-workload fired-alert log the engine retains.
const ALERT_LOG_CAP: usize = 256;

/// The resident ingest→aggregate→score→alert engine behind `dwcp serve`.
///
/// Incremental contract: pushing points never fits anything until a
/// workload has the protocol's observation count; the first score is a
/// full grid fit (identical to [`crate::pipeline::Pipeline::run`] on the
/// same aggregates);
/// every later complete hour re-scores the stored champion **frozen** and
/// only a [`RelearnReason`] triggers another grid search — never a full
/// refit per point.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    repository: ShardedRepository,
    alert_stage: AlertStage,
    workloads: BTreeMap<String, WorkloadState>,
}

impl Engine {
    /// A resident engine with an empty in-memory repository.
    pub fn new(config: EngineConfig) -> Engine {
        let alert_stage = AlertStage::new(config.rules.clone());
        Engine {
            config,
            repository: ShardedRepository::in_memory(),
            alert_stage,
            workloads: BTreeMap::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Workload keys seen so far.
    pub fn workloads(&self) -> Vec<&str> {
        self.workloads.keys().map(String::as_str).collect()
    }

    /// Push one raw point and run one engine step for the workload.
    pub fn push(&mut self, workload: &str, timestamp: u64, value: f64) -> Result<StepOutcome> {
        self.ingest_point(workload, timestamp, value)?;
        self.step(workload)
    }

    /// Push a batch of raw points, then run **one** engine step — the
    /// bulk-ingest path (one frozen re-score per batch, not per point).
    pub fn push_batch(&mut self, workload: &str, points: &[(u64, f64)]) -> Result<StepOutcome> {
        for &(timestamp, value) in points {
            self.ingest_point(workload, timestamp, value)?;
        }
        self.step(workload)
    }

    /// Ingest without scoring.
    fn ingest_point(&mut self, workload: &str, timestamp: u64, value: f64) -> Result<()> {
        let state = self
            .workloads
            .entry(workload.to_string())
            .or_insert_with(WorkloadState::new);
        state.ingest.push(timestamp, value)?;
        Ok(())
    }

    /// One cursor-paged read of a workload's aggregated series.
    pub fn read_page(&self, workload: &str, cursor: usize, limit: usize) -> Option<SeriesPage> {
        self.workloads
            .get(workload)
            .map(|s| s.ingest.read_page(cursor, limit))
    }

    /// The latest beyond-the-data forecast for a workload, if scored.
    pub fn forecast(&self, workload: &str) -> Option<&LiveForecast> {
        self.workloads.get(workload).and_then(|s| s.future.as_ref())
    }

    /// The fired-alert log for a workload (most recent last).
    pub fn alerts(&self, workload: &str) -> &[CapacityAlert] {
        self.workloads
            .get(workload)
            .map(|s| s.alerts.as_slice())
            .unwrap_or(&[])
    }

    /// A status snapshot for a workload.
    pub fn status(&self, workload: &str) -> Option<WorkloadStatus> {
        let state = self.workloads.get(workload)?;
        Some(WorkloadStatus {
            workload: workload.to_string(),
            points: state.ingest.buffer().accepted(),
            late: state.ingest.buffer().late(),
            missing: state.ingest.buffer().missing(),
            complete_hours: state.ingest.buffer().complete_buckets(),
            scored_hours: state.scored_hours,
            champion: state.champion.clone(),
            live_rmse: state.live_rmse,
            baseline_rmse: state.baseline_rmse,
            rescores: state.rescores,
            relearns: state.relearns,
            alerts_fired: state.alerts.len(),
        })
    }

    /// Run one engine step for a workload: score when a new complete hour
    /// is available and the protocol's observation count is met. The step
    /// is the fleet's §5.1 decision on a batch of one ([`run_batch_on`]):
    /// a fresh stored champion is re-scored frozen and kept; a missing,
    /// stale or degraded one is searched for and the result stored.
    pub fn step(&mut self, workload: &str) -> Result<StepOutcome> {
        self.step_inner(workload, false)
    }

    /// Like [`Engine::step`], but re-scores even when no new aggregate has
    /// completed — the parity probe used by tests and the status endpoint.
    pub fn force_rescore(&mut self, workload: &str) -> Result<StepOutcome> {
        self.step_inner(workload, true)
    }

    fn step_inner(&mut self, workload: &str, force: bool) -> Result<StepOutcome> {
        let need = self.config.pipeline.granularity.observations();
        let Some(state) = self.workloads.get_mut(workload) else {
            return Ok(StepOutcome::NeedData { have: 0, need });
        };
        let series = state.ingest.aggregated();
        let have = series.len();
        if have < need {
            return Ok(StepOutcome::NeedData { have, need });
        }
        if !force && have == state.scored_hours && state.champion.is_some() {
            return Ok(StepOutcome::Unchanged);
        }
        let now = series.next_timestamp();
        let step_seconds = state.ingest.buffer().bucket_seconds();

        // The fleet's §5.1 decision on a batch of one: a fresh, scoreable
        // stored champion is re-scored frozen and kept unless its RMSE
        // degraded; anything else runs a grid search and is stored.
        let options = FleetOptions {
            threads: self.config.pipeline.eval.threads,
            neighbourhood_radius: self.config.neighbourhood_radius,
            now,
        };
        let job = SeriesJob::new(workload, series, self.config.pipeline.clone());
        let mut report = run_batch_on(&options, &mut self.repository, std::slice::from_ref(&job));
        let Some(result) = report.jobs.pop() else {
            return Err(PlannerError::Internal {
                context: "single-job fleet batch returned no job result",
            });
        };
        let outcome = result.outcome?;
        let action = match result.relearn {
            None => ScoreAction::Rescored,
            Some(RelearnReason::Missing) => ScoreAction::Learned,
            Some(reason) => ScoreAction::Relearned(reason),
        };

        // Forecast beyond the data with the (possibly refreshed) stored
        // champion, frozen — then run the alert stage over it.
        let record = self
            .repository
            .get(workload)?
            .ok_or(PlannerError::Internal {
                context: "engine scored a workload but the repository holds no record for it",
            })?;
        let baseline_rmse = record.baseline_rmse;
        let future = frozen_future_forecast(
            &self.config.pipeline,
            record,
            &job.series,
            self.config.horizon,
        );

        let Some(state) = self.workloads.get_mut(workload) else {
            return Err(PlannerError::Internal {
                context: "engine workload state vanished mid-step",
            });
        };
        // The record is stored even when the forecast below fails.
        state.baseline_rmse = Some(baseline_rmse);
        let future = future?;
        let fired = self.alert_stage.scan(workload, &future, now, step_seconds);
        state.scored_hours = have;
        state.live_rmse = Some(outcome.accuracy.rmse);
        state.champion = Some(outcome.champion.clone());
        state.future = Some(LiveForecast {
            start: now,
            step_seconds,
            forecast: future,
        });
        match action {
            ScoreAction::Rescored => state.rescores += 1,
            ScoreAction::Learned | ScoreAction::Relearned(_) => state.relearns += 1,
        }
        state.alerts.extend(fired.iter().cloned());
        if state.alerts.len() > ALERT_LOG_CAP {
            let drop = state.alerts.len() - ALERT_LOG_CAP;
            state.alerts.drain(..drop);
        }
        Ok(StepOutcome::Scored(ScoreSummary {
            action,
            champion: outcome.champion,
            live_rmse: outcome.accuracy.rmse,
            baseline_rmse,
            alerts: fired,
        }))
    }
}

/// Fit the stored champion **frozen** on the full aggregated window and
/// forecast `horizon` steps beyond the data — the live forecast the alert
/// stage scans and `/forecast` serves. The stored parameters are taken
/// verbatim (one filter pass, no optimisation), whichever family the
/// champion belongs to.
fn frozen_future_forecast(
    config: &PipelineConfig,
    record: &ModelRecord,
    series: &TimeSeries,
    horizon: usize,
) -> Result<Forecast> {
    let Some((champion, params, beta)) = record.champion_seed() else {
        return Err(PlannerError::Internal {
            context: "stored record has no champion configuration to forecast with",
        });
    };
    let mut working = series.clone();
    if working.has_gaps() {
        interpolate_series(&mut working)?;
    }
    let frozen = !params.is_empty();
    match champion {
        ModelConfig::Sarimax(sarimax) => {
            if sarimax.n_exog > 0 {
                return Err(PlannerError::Model(
                    dwcp_models::ModelError::ExogenousMismatch {
                        context: format!(
                            "champion needs {} exogenous columns the stream does not carry",
                            sarimax.n_exog
                        ),
                    },
                ));
            }
            let opts = ArimaOptions {
                warm_start: frozen.then(|| params.to_vec()),
                freeze_warm_start: frozen,
                freeze_beta: frozen.then(|| beta.to_vec()),
                ..config.eval.fit.clone()
            };
            let fit = FittedSarimax::fit(working.values(), sarimax, &[], 0, &opts)?;
            Ok(fit.forecast(horizon, &[])?)
        }
        ModelConfig::Ets(ets) => {
            let opts = EtsFitOptions {
                warm_start: frozen.then(|| params.to_vec()),
                freeze_warm_start: frozen,
            };
            Ok(FittedEts::fit_with(working.values(), *ets, &opts)?.forecast(horizon))
        }
        ModelConfig::Tbats(tbats) => {
            let opts = TbatsFitOptions {
                warm_start: frozen.then(|| params.to_vec()),
                freeze_warm_start: frozen,
            };
            Ok(FittedTbats::fit_with(working.values(), tbats.clone(), &opts)?.forecast(horizon))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MethodChoice, Pipeline};
    use dwcp_series::{Frequency, Granularity};
    use std::time::{Duration, Instant};

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            method: MethodChoice::Hes,
            grid: GridStrategy::Full,
            granularity: Granularity::Hourly,
            max_candidates: 4,
            fourier_stage: false,
            auto_detect_shocks: false,
            eval: EvaluationOptions {
                threads: 1,
                fit: ArimaOptions {
                    max_evals: 120,
                    restarts: 0,
                    interval_level: 0.95,
                    ..Default::default()
                },
                ..Default::default()
            },
        }
    }

    /// Quarter-hour points whose hourly means form a clean daily cycle.
    fn quarter_hour_points(hours: usize) -> Vec<(u64, f64)> {
        let mut pts = Vec::with_capacity(hours * 4);
        for h in 0..hours {
            let base = 60.0
                + 20.0 * (2.0 * std::f64::consts::PI * h as f64 / 24.0).sin()
                + ((h * 2654435761 % 97) as f64) / 25.0;
            for q in 0..4 {
                let ts = (h * 3600 + q * 900) as u64;
                pts.push((ts, base + (q as f64 - 1.5) * 0.2));
            }
        }
        pts
    }

    #[test]
    fn engine_needs_protocol_observations_before_scoring() {
        let mut engine = Engine::new(EngineConfig::new(fast_config()));
        let out = engine.push("db/CPU", 0, 50.0).unwrap();
        assert!(matches!(
            out,
            StepOutcome::NeedData {
                have: 0,
                need: 1008
            }
        ));
        assert_eq!(engine.status("db/CPU").unwrap().baseline_rmse, None);
    }

    #[test]
    fn first_score_is_a_learn_then_rescores_stay_frozen() {
        let mut engine = Engine::new(EngineConfig::new(fast_config()));
        // 1009 complete hours (last bucket stays live).
        let pts = quarter_hour_points(1010);
        let out = engine.push_batch("db/CPU", &pts).unwrap();
        let StepOutcome::Scored(summary) = out else {
            panic!("expected a scored step");
        };
        assert_eq!(summary.action, ScoreAction::Learned);
        assert!(summary.live_rmse.is_finite());
        // The baseline equals the first fit's RMSE.
        assert_eq!(summary.baseline_rmse, summary.live_rmse);
        assert_eq!(
            engine.status("db/CPU").unwrap().baseline_rmse,
            Some(summary.baseline_rmse)
        );

        // One more on-pattern complete hour: frozen re-score, no grid.
        let next: Vec<(u64, f64)> = quarter_hour_points(1012)
            .into_iter()
            .skip(1010 * 4)
            .collect();
        let out = engine.push_batch("db/CPU", &next).unwrap();
        let StepOutcome::Scored(summary) = out else {
            panic!("expected a scored step");
        };
        assert_eq!(summary.action, ScoreAction::Rescored);
        let status = engine.status("db/CPU").unwrap();
        assert_eq!(status.relearns, 1);
        assert_eq!(status.rescores, 1);
        // Nothing new → Unchanged, no extra score.
        assert!(matches!(
            engine.step("db/CPU").unwrap(),
            StepOutcome::Unchanged
        ));
    }

    /// Fit a workload on 1,010 hours, then append `hours` on-pattern hours
    /// one push at a time. Returns the first fit's wall time and each
    /// appended hour's score action and wall time; every appended hour
    /// must score, and the status counters must agree with the steps.
    fn append_hours(hours: usize) -> (Duration, Vec<(ScoreAction, Duration)>) {
        let mut engine = Engine::new(EngineConfig::new(fast_config()));
        let points = quarter_hour_points(1010 + hours);
        let (warmup, appended) = points.split_at(1010 * 4);
        let started = Instant::now();
        let out = engine.push_batch("db/CPU", warmup).unwrap();
        let first_fit = started.elapsed();
        assert!(matches!(out, StepOutcome::Scored(ref s) if s.action == ScoreAction::Learned));
        let mut steps = Vec::with_capacity(hours);
        for hour in appended.chunks(4) {
            let started = Instant::now();
            let out = engine.push_batch("db/CPU", hour).unwrap();
            let elapsed = started.elapsed();
            let StepOutcome::Scored(summary) = out else {
                panic!("an appended hour did not score: {out:?}");
            };
            steps.push((summary.action, elapsed));
        }
        let rescored = steps
            .iter()
            .filter(|(action, _)| *action == ScoreAction::Rescored)
            .count() as u64;
        let status = engine.status("db/CPU").unwrap();
        assert_eq!(status.rescores, rescored);
        assert_eq!(status.relearns, 1 + hours as u64 - rescored);
        (first_fit, steps)
    }

    #[test]
    fn frozen_rescores_dominate_the_appended_hours() {
        // A grid search runs only on a relearn reason, so at least three
        // in four appended on-pattern hours are frozen re-scores.
        let (_, steps) = append_hours(12);
        let rescored = steps
            .iter()
            .filter(|(action, _)| *action == ScoreAction::Rescored)
            .count();
        assert!(
            rescored * 4 >= steps.len() * 3,
            "{rescored} of {} appended hours were frozen re-scores",
            steps.len()
        );
    }

    #[test]
    fn a_rescore_is_cheaper_than_the_first_fit() {
        // The engine exposes no work count per step, so this compares wall
        // times: the median re-score against the first grid fit, with a
        // 4x margin (the ratio measures in the hundreds, debug or release).
        let (first_fit, steps) = append_hours(12);
        let mut rescores: Vec<Duration> = steps
            .iter()
            .filter(|(action, _)| *action == ScoreAction::Rescored)
            .map(|&(_, wall)| wall)
            .collect();
        rescores.sort();
        let median = rescores[rescores.len() / 2];
        assert!(
            median * 4 < first_fit,
            "median re-score {median:?} against a first fit of {first_fit:?}"
        );
    }

    #[test]
    fn frozen_rescore_matches_batch_fit_on_same_data() {
        let mut engine = Engine::new(EngineConfig::new(fast_config()));
        let pts = quarter_hour_points(1010);
        engine.push_batch("db/CPU", &pts).unwrap();

        // A batch pipeline run over the same aggregated hours must select
        // the same champion with the same RMSE, bit for bit.
        let series = {
            let state_page = engine.read_page("db/CPU", 0, 4096).unwrap();
            TimeSeries::new(state_page.values, Frequency::Hourly, 0)
        };
        let batch = Pipeline::new(fast_config()).run(&series, &[]).unwrap();
        let status = engine.status("db/CPU").unwrap();
        assert_eq!(status.champion.as_deref(), Some(batch.champion.as_str()));
        assert_eq!(status.live_rmse, Some(batch.accuracy.rmse));

        // Forcing a frozen re-score on unchanged data reproduces the
        // stored baseline exactly.
        let StepOutcome::Scored(summary) = engine.force_rescore("db/CPU").unwrap() else {
            panic!("expected a scored step");
        };
        assert_eq!(summary.action, ScoreAction::Rescored);
        assert_eq!(summary.live_rmse, batch.accuracy.rmse);
    }

    #[test]
    fn frozen_rescore_matches_batch_fit_for_tbats() {
        // Same contract as the HES test above, for the other batched
        // exponential-smoothing family: the serve engine's frozen TBATS
        // re-score (a one-lane kernel pass) must reproduce the batch pipeline's
        // champion RMSE bit for bit.
        let config = PipelineConfig {
            method: MethodChoice::Tbats,
            ..fast_config()
        };
        let mut engine = Engine::new(EngineConfig::new(config.clone()));
        let pts = quarter_hour_points(1010);
        engine.push_batch("db/CPU", &pts).unwrap();

        let series = {
            let state_page = engine.read_page("db/CPU", 0, 4096).unwrap();
            TimeSeries::new(state_page.values, Frequency::Hourly, 0)
        };
        let batch = Pipeline::new(config).run(&series, &[]).unwrap();
        let status = engine.status("db/CPU").unwrap();
        assert_eq!(status.champion.as_deref(), Some(batch.champion.as_str()));
        assert_eq!(status.live_rmse, Some(batch.accuracy.rmse));

        let StepOutcome::Scored(summary) = engine.force_rescore("db/CPU").unwrap() else {
            panic!("expected a scored step");
        };
        assert_eq!(summary.action, ScoreAction::Rescored);
        assert_eq!(summary.live_rmse, batch.accuracy.rmse);
    }

    #[test]
    fn engine_and_fleet_give_one_verdict_and_rmse() {
        // The same stored record and the same aggregates get the same
        // §5.1 verdict and the same RMSE bits from an engine step and a
        // fleet batch: kept, degraded, and a week stale.
        let config = fast_config();
        let pts = quarter_hour_points(1010 + 170);
        let cases = [
            (2, false, ScoreAction::Rescored),
            (2, true, ScoreAction::Relearned(RelearnReason::Degraded)),
            (170, false, ScoreAction::Relearned(RelearnReason::Stale)),
        ];
        for (extra_hours, sabotage, expected) in cases {
            let mut engine = Engine::new(EngineConfig::new(config.clone()));
            engine.push_batch("db/CPU", &pts[..1010 * 4]).unwrap();
            let mut record = engine.repository.get("db/CPU").unwrap().unwrap().clone();
            if sabotage {
                record.baseline_rmse = 1e-12;
                engine.repository.store(record.clone()).unwrap();
            }
            let mut repository = ShardedRepository::in_memory();
            repository.store(record).unwrap();

            let next = &pts[1010 * 4..(1010 + extra_hours) * 4];
            let StepOutcome::Scored(summary) = engine.push_batch("db/CPU", next).unwrap() else {
                panic!("expected a scored step");
            };
            assert_eq!(summary.action, expected);

            let series = engine.workloads["db/CPU"].ingest.aggregated();
            let options = FleetOptions {
                threads: config.eval.threads,
                neighbourhood_radius: 1,
                now: series.next_timestamp(),
            };
            let job = SeriesJob::new("db/CPU", series, config.clone());
            let report = run_batch_on(&options, &mut repository, &[job]);
            let result = &report.jobs[0];
            let verdict = match summary.action {
                ScoreAction::Rescored => None,
                ScoreAction::Learned => Some(RelearnReason::Missing),
                ScoreAction::Relearned(reason) => Some(reason),
            };
            assert_eq!(result.relearn, verdict, "{expected:?}");
            let outcome = result.outcome.as_ref().unwrap();
            assert_eq!(outcome.champion, summary.champion, "{expected:?}");
            assert_eq!(
                outcome.accuracy.rmse.to_bits(),
                summary.live_rmse.to_bits(),
                "{expected:?}"
            );
        }
    }

    #[test]
    fn alerts_fire_from_the_live_forecast() {
        let mut config = EngineConfig::new(fast_config());
        // The series lives around 40–80; a threshold of 1 must breach.
        config.rules = vec![AlertRule::new("cpu-low", 1.0)];
        let mut engine = Engine::new(config);
        let pts = quarter_hour_points(1010);
        let StepOutcome::Scored(summary) = engine.push_batch("db/CPU", &pts).unwrap() else {
            panic!("expected a scored step");
        };
        assert_eq!(summary.alerts.len(), 1);
        assert_eq!(summary.alerts[0].rule, "cpu-low");
        assert_eq!(engine.alerts("db/CPU").len(), 1);
        let forecast = engine.forecast("db/CPU").unwrap();
        assert_eq!(forecast.forecast.len(), 24);
        assert_eq!(forecast.step_seconds, 3600);
        // The forecast starts just past the ingested data.
        assert_eq!(forecast.start, 1009 * 3600);
    }

    #[test]
    fn paged_reads_reconstruct_the_aggregates() {
        let mut engine = Engine::new(EngineConfig::new(fast_config()));
        let pts = quarter_hour_points(30);
        engine.push_batch("db/CPU", &pts).unwrap();
        let mut cursor = 0usize;
        let mut collected = Vec::new();
        loop {
            let page = engine.read_page("db/CPU", cursor, 7).unwrap();
            collected.extend(page.values);
            match page.next_cursor {
                Some(next) => cursor = next,
                None => break,
            }
        }
        assert_eq!(collected.len(), 29); // hour 29 is live
        let expected: Vec<f64> = quarter_hour_points(30)
            .chunks(4)
            .take(29)
            .map(|c| c.iter().map(|&(_, v)| v).sum::<f64>() / 4.0)
            .collect();
        for (got, want) in collected.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-12);
        }
    }
}
