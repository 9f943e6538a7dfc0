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
//! * **aggregate** — [`AggregateStage`]: interpolation, shock discovery,
//!   the Table 1 split and the profiled candidate grid (what
//!   `Pipeline::plan` used to do inline),
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
//! appended hour re-scores the stored champion **frozen**
//! (`freeze_warm_start`: the stored parameters are evaluated verbatim, one
//! objective evaluation, no optimiser) and only a
//! [`RelearnReason`] — missing, one-week stale, or RMSE degraded past the
//! policy factor — triggers a grid search, which runs through the same
//! champion-seeded fleet machinery as the weekly batch relearn.

use crate::alerts::{AlertEngine, AlertRule, CapacityAlert};
use crate::auto_order::{naive_benchmark_rmse, AutoOrderOptions, AutoOrderPlan};
use crate::candidates::{CandidateSet, DataProfile};
use crate::evaluate::{evaluate_candidates, evaluate_fleet, EvalTask, EvaluationOptions};
use crate::evaluate::{EvaluationReport, ModelScore};
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

/// Everything the aggregate stage prepares before any model is fitted:
/// the split, its aligned exogenous columns, the profiled candidate set
/// for the configured method and the evaluation options. Produced by
/// [`AggregateStage::prepare`] and consumed by [`ScoreStage`] / the fleet
/// scheduler.
pub(crate) struct EvalPlan {
    pub split: TrainTestSplit,
    pub exog_train: Vec<Vec<f64>>,
    pub exog_test: Vec<Vec<f64>>,
    #[allow(dead_code)]
    pub offset: usize,
    pub gaps_filled: usize,
    pub set: CandidateSet,
    pub eval_opts: EvaluationOptions,
    /// Present only under [`GridStrategy::AutoOrder`]: the differencing
    /// order the seeded grid was built with (for the drift benchmark) and
    /// the full-strategy SARIMAX models to fall back to when the seeded
    /// champion degrades past the naive benchmark.
    pub auto_fallback: Option<AutoFallback>,
}

/// The insurance attached to an auto-order plan (see [`EvalPlan`]).
pub(crate) struct AutoFallback {
    /// Differencing order the auto plan diagnosed.
    pub d: usize,
    /// The full-strategy candidates to evaluate on degradation.
    pub models: Vec<CandidateModel>,
}

/// The **aggregate** stage: everything between raw observations and a
/// ready-to-fit evaluation plan — interpolation, optional shock discovery,
/// the Table 1 split with aligned exogenous columns, profiling, and the
/// candidate grid for the configured method.
pub struct AggregateStage;

impl AggregateStage {
    /// Prepare an [`EvalPlan`] for one series under one configuration.
    /// This is the former body of `Pipeline::plan`, moved verbatim so the
    /// batch pipeline, the fleet scheduler and the resident engine share
    /// one implementation.
    pub(crate) fn prepare(
        config: &PipelineConfig,
        series: &TimeSeries,
        exog_full: &[Vec<f64>],
    ) -> Result<EvalPlan> {
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

        // 3. Profile + the candidate grid for the chosen families.
        let train = split.train.values();
        let profile = DataProfile::analyze(train)?;
        let fallback_period = config.granularity.seasonal_period();
        let mut models: Vec<CandidateModel> = Vec::new();
        let mut auto_fallback = None;
        if method.includes_sarimax() {
            let set = CandidateSet::sarimax(
                profile.clone(),
                fallback_period,
                exog_train.len(),
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
        let set = CandidateSet { models, profile };
        let mut eval_opts = config.eval.clone();
        eval_opts.start_index = offset;
        Ok(EvalPlan {
            split,
            exog_train,
            exog_test,
            offset,
            gaps_filled,
            set,
            eval_opts,
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
        let mut report = evaluate_candidates(
            plan.split.train.values(),
            plan.split.test.values(),
            &plan.exog_train,
            &plan.exog_test,
            &plan.set.models,
            &plan.eval_opts,
        )?;
        if let Some(fallback) = plan.auto_fallback.take() {
            let auto_opts = AutoOrderOptions::default();
            let period = plan
                .set
                .profile
                .primary_period(config.granularity.seasonal_period());
            let benchmark = naive_benchmark_rmse(
                plan.split.train.values(),
                plan.split.test.values(),
                fallback.d,
                Some(period),
            );
            let threshold = benchmark * auto_opts.degradation_factor;
            // NaN-greatest ordering: a NaN champion RMSE counts as degraded.
            let degraded = report
                .champion()
                .map(|c| dwcp_math::total_cmp_f64(c.accuracy.rmse, threshold).is_gt())
                .unwrap_or(true);
            if degraded {
                let full = evaluate_candidates(
                    plan.split.train.values(),
                    plan.split.test.values(),
                    &plan.exog_train,
                    &plan.exog_test,
                    &fallback.models,
                    &plan.eval_opts,
                )?;
                report.absorb(full);
            }
        }
        Ok(report)
    }

    /// The §6.3 Fourier stage's candidate list: the six Fourier variants of
    /// the current champion. Empty when the stage is disabled or the
    /// champion is not a SARIMAX-family member (the smoothing families
    /// carry no exogenous regressors).
    pub(crate) fn fourier_candidates(
        config: &PipelineConfig,
        plan: &EvalPlan,
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
        let periods = plan.set.profile.fourier_periods(fallback_period);
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
        let variants = Self::fourier_candidates(config, &plan, &report);
        if !variants.is_empty() {
            if let Ok(fourier_report) = evaluate_candidates(
                plan.split.train.values(),
                plan.split.test.values(),
                &plan.exog_train,
                &plan.exog_test,
                &variants,
                &plan.eval_opts,
            ) {
                report.absorb(fourier_report);
            }
        }
        Self::outcome_from_report(plan, report)
    }

    /// Run the whole score stage on a prepared plan: primary grid +
    /// auto-order insurance + Fourier stage + outcome assembly.
    pub(crate) fn score(config: &PipelineConfig, mut plan: EvalPlan) -> Result<ForecastOutcome> {
        let report = Self::evaluate(config, &mut plan)?;
        Self::finish(config, plan, report)
    }

    /// Assemble a [`ForecastOutcome`] from a finished evaluation. A report
    /// with no champion (every candidate failed) is `NoViableModel`.
    pub(crate) fn outcome_from_report(
        plan: EvalPlan,
        report: EvaluationReport,
    ) -> Result<ForecastOutcome> {
        let Some(champion_score) = report.champion() else {
            return Err(PlannerError::NoViableModel {
                attempted: report.attempted,
            });
        };
        Ok(ForecastOutcome {
            champion: champion_score.candidate.config.describe(),
            family: Some(champion_score.candidate.family),
            accuracy: champion_score.accuracy,
            test_forecast: champion_score.forecast.clone(),
            warm_seed: champion_score.warm_params.clone(),
            warm_beta: champion_score.warm_beta.clone(),
            champion_spec: champion_score.candidate.config.clone(),
            test: plan.split.test,
            train: plan.split.train,
            evaluated: report.attempted - report.failures,
            failures: report.failures,
            gaps_filled: plan.gaps_filled,
            profile: Some(plan.set.profile),
            stats: report.stats,
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
    /// Neighbourhood radius for champion-seeded relearns.
    pub neighbourhood_radius: usize,
}

impl EngineConfig {
    /// Hourly defaults over a pipeline configuration: 24-hour horizon,
    /// radius-1 relearn neighbourhood, no rules.
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
    /// First fit for this workload: the full configured grid.
    Learned,
    /// The stored champion was re-scored frozen — one objective
    /// evaluation, no optimiser, no grid.
    Rescored,
    /// The retention rules fired and a grid search ran (champion-seeded
    /// neighbourhood with full-grid fallback, or full grid when stale).
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
    /// is available and the protocol's observation count is met.
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

        // Frozen re-score when the repository holds a scoreable champion;
        // otherwise (first sight, legacy record, or an exogenous champion
        // whose columns the stream cannot supply) a grid search.
        let seed = self.repository.get(workload)?.and_then(scoreable_seed);
        let (action, score) = match seed {
            Some(seed) => {
                let live = rescore_frozen(&self.config.pipeline, &seed, &series)?;
                let verdict = self
                    .repository
                    .needs_relearn(workload, now, Some(live.rmse))?;
                match verdict {
                    None => (ScoreAction::Rescored, live),
                    Some(reason) => {
                        let outcome = self.learn(workload, &series, now)?;
                        (ScoreAction::Relearned(reason), score_of_outcome(&outcome))
                    }
                }
            }
            None => {
                let outcome = self.learn(workload, &series, now)?;
                (ScoreAction::Learned, score_of_outcome(&outcome))
            }
        };

        // Forecast beyond the data with the (possibly refreshed) stored
        // champion, frozen — then run the alert stage over it.
        let record = self
            .repository
            .get(workload)?
            .ok_or(PlannerError::Internal {
                context: "engine scored a workload but the repository holds no record for it",
            })?
            .clone();
        let future =
            frozen_future_forecast(&self.config.pipeline, &record, &series, self.config.horizon);

        let Some(state) = self.workloads.get_mut(workload) else {
            return Err(PlannerError::Internal {
                context: "engine workload state vanished mid-step",
            });
        };
        // The record is stored even when the forecast below fails.
        state.baseline_rmse = Some(record.baseline_rmse);
        let future = future?;
        let fired = self.alert_stage.scan(workload, &future, now, step_seconds);
        state.scored_hours = have;
        state.live_rmse = Some(score.rmse);
        state.champion = Some(score.champion.clone());
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
            champion: score.champion,
            live_rmse: score.rmse,
            baseline_rmse: record.baseline_rmse,
            alerts: fired,
        }))
    }

    /// A grid search for one workload, through the same champion-seeded
    /// fleet machinery as the batch relearn: cold workloads run the full
    /// configured grid (bit-identical to
    /// [`crate::pipeline::Pipeline::run`]); workloads
    /// with a fresh stored champion relearn on its neighbourhood with the
    /// full-grid degradation fallback. The repository is updated.
    fn learn(&mut self, workload: &str, series: &TimeSeries, now: u64) -> Result<ForecastOutcome> {
        let options = FleetOptions {
            threads: self.config.pipeline.eval.threads,
            neighbourhood_radius: self.config.neighbourhood_radius,
            now,
        };
        let job = SeriesJob::new(workload, series.clone(), self.config.pipeline.clone());
        let mut report = run_batch_on(&options, &mut self.repository, &[job]);
        let Some(result) = report.jobs.pop() else {
            return Err(PlannerError::Internal {
                context: "single-job fleet batch returned no job result",
            });
        };
        result.outcome
    }
}

/// The frozen re-score inputs extracted from a stored record, when the
/// record can actually be re-scored on an exogenous-free stream: the
/// configuration plus its converged parameters. `None` sends the workload
/// down the grid-search path instead.
struct FrozenSeed {
    config: ModelConfig,
    params: Vec<f64>,
    beta: Vec<f64>,
}

fn scoreable_seed(record: &ModelRecord) -> Option<FrozenSeed> {
    let (config, params, beta) = record.champion_seed()?;
    if params.is_empty() {
        return None;
    }
    // An exogenous champion needs its indicator columns to re-score; the
    // streaming path carries none, so such a record is relearned instead.
    if config.as_sarimax().is_some_and(|c| c.n_exog > 0) {
        return None;
    }
    Some(FrozenSeed {
        config: config.clone(),
        params: params.to_vec(),
        beta: beta.to_vec(),
    })
}

fn score_of_outcome(outcome: &ForecastOutcome) -> LiveScore {
    LiveScore {
        champion: outcome.champion.clone(),
        rmse: outcome.accuracy.rmse,
    }
}

/// The champion identity + held-out accuracy one scoring path produced.
struct LiveScore {
    champion: String,
    rmse: f64,
}

/// Re-score a stored champion on the current aggregates, **frozen**: the
/// stored parameters are evaluated verbatim through the shared evaluation
/// engine (`EvalTask.seed` + a single candidate equal to the stored
/// configuration), producing the same held-out RMSE a batch fit of that
/// configuration would report — one objective evaluation, no optimiser.
fn rescore_frozen(
    config: &PipelineConfig,
    seed: &FrozenSeed,
    series: &TimeSeries,
) -> Result<LiveScore> {
    let mut working = series.clone();
    if working.has_gaps() {
        interpolate_series(&mut working)?;
    }
    let split = TrainTestSplit::from_series(&working, config.granularity)?;
    let offset = working.len() - config.granularity.observations();
    let candidates = [CandidateModel::new(seed.config.clone())];
    let mut eval_opts = config.eval.clone();
    eval_opts.start_index = offset;
    let task = EvalTask {
        train: split.train.values(),
        test: split.test.values(),
        exog_train: &[],
        exog_test: &[],
        candidates: &candidates,
        opts: eval_opts,
        seed: Some((seed.config.clone(), seed.params.clone(), seed.beta.clone())),
    };
    let mut reports = evaluate_fleet(&[task], 1);
    let Some(report) = reports.pop() else {
        return Err(PlannerError::Internal {
            context: "single-task fleet evaluation returned no report",
        });
    };
    let report = report?;
    let Some(champion) = report.champion() else {
        return Err(PlannerError::NoViableModel {
            attempted: report.attempted,
        });
    };
    Ok(score_of_model(champion))
}

fn score_of_model(score: &ModelScore) -> LiveScore {
    LiveScore {
        champion: score.candidate.config.describe(),
        rmse: score.accuracy.rmse,
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
        // re-score (solo kernel path) must reproduce the batch pipeline's
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
