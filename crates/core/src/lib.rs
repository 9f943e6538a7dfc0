//! The dwcp capacity planner — the paper's primary contribution.
//!
//! §5: "This section … details how we propose to use machine learning to
//! automate the forecasts, and algorithmically how we are able to discover
//! the models, removing the need for the user to have an intrinsic
//! understanding of the complexities of time series analysis."
//!
//! The crate implements the Figure 4 workflow end to end:
//!
//! * [`grid`] — the §6.3 model spaces: exactly 180 ARIMA, 660 SARIMAX and
//!   666 SARIMAX+Exogenous+Fourier candidates per instance, plus the
//!   correlogram-based pruning that "reduc\[es\] the thousands of potential
//!   models considerably",
//! * [`candidates`] — data-driven self-configuration: ADF-chosen
//!   differencing, detected seasonality, significant ACF/PACF lags,
//! * [`auto_order`] — interpretable auto order selection: ADF/KPSS-chosen
//!   differencing and PACF/ACF cut-offs seed a small neighbourhood grid in
//!   place of the 180-model sweep, insured by a naive-benchmark fallback,
//! * [`evaluate`] — parallel fitting of a candidate set and RMSE champion
//!   selection ("gains are also achieved by parallel processing the
//!   models"),
//! * [`pipeline`] — the user-facing HES / SARIMAX branch of Figure 4:
//!   gather → interpolate → split → fit → score → forecast,
//! * [`fleet`] — batch scheduling of many (instance, metric, granularity)
//!   series on one shared worker pool, in bounded-memory waves, with
//!   repository-backed champion reuse (§5.1: a fresh champion is
//!   re-scored frozen and kept; a degraded, stale or missing one is
//!   searched for),
//! * [`repository`] — the sharded champion repository (on disk or in
//!   memory) with the one-week staleness rule, the RMSE-degradation
//!   relearn trigger and the >3-occurrence shock-acceptance policy (§5.1,
//!   §9),
//! * [`advisor`] — proactive threshold-breach warnings (§8's short-term
//!   monitoring use case),
//! * [`alerts`] — named alert rules over live forecasts with re-fire
//!   hysteresis (the resident layer above [`advisor`]),
//! * [`engine`] — the staged ingest→aggregate→score→alert engine shared
//!   by the batch pipeline and the resident `dwcp serve` daemon, with
//!   frozen-champion incremental re-scoring.
#![forbid(unsafe_code)]

pub mod advisor;
pub mod alerts;
pub mod auto_order;
pub mod backtest;
pub mod candidates;
pub mod diagnostics;
pub mod engine;
pub mod evaluate;
pub mod fleet;
pub mod grid;
pub mod pipeline;
pub mod protocol;
pub mod repository;
pub mod shocks;

pub use advisor::{Advisory, ThresholdAdvisor};
pub use alerts::{AlertEngine, AlertRule, CapacityAlert};
pub use auto_order::{
    evaluate_auto_order, AutoOrderOptions, AutoOrderPlan, AutoOrderReport, SeasonalDiagnostics,
};
pub use backtest::{backtest, BacktestConfig, BacktestReport};
pub use candidates::{CandidateSet, DataProfile};
pub use diagnostics::{assess, HealthReport, HealthThresholds, HealthVerdict};
pub use engine::{
    AlertStage, Engine, EngineConfig, IngestStage, LiveForecast, ScoreAction, ScoreSummary,
    StepOutcome, WorkloadStatus,
};
pub use evaluate::{
    evaluate_candidates, evaluate_fleet, EvalStats, EvalTask, EvaluationOptions, EvaluationReport,
    FamilyStats, LockstepStats, ModelScore,
};
pub use fleet::{
    run_batch_on, Checkpoint, EstateScheduler, FleetOptions, FleetReport, JobResult, JobSource,
    SeriesJob, SliceJobSource, WaveOptions, WaveProgress, WaveReport,
};
pub use grid::{dedupe_candidates, CandidateModel, ModelConfig, ModelFamily, ModelGrid};
pub use pipeline::{
    ChampionSpec, ForecastOutcome, GridStrategy, MethodChoice, Pipeline, PipelineConfig,
};
pub use repository::{
    shard_of, ChampionStore, CompactionPolicy, ModelRecord, RelearnReason, RetentionPolicy,
    ShardIoStats, ShardedRepository, ShockTracker,
};
pub use shocks::{DetectedShock, ShockDetector};

/// Errors from the planner.
#[derive(Debug)]
pub enum PlannerError {
    /// No candidate model could be fitted at all.
    NoViableModel {
        /// How many candidates were attempted.
        attempted: usize,
    },
    /// Propagated model error.
    Model(dwcp_models::ModelError),
    /// Propagated series error.
    Series(dwcp_series::SeriesError),
    /// Repository persistence failure.
    Persistence(String),
    /// An internal invariant was violated (a "cannot happen" path reached
    /// through a bug). Surfaced as a typed error instead of a panic so one
    /// broken job can never abort a whole fleet batch.
    Internal {
        /// What was expected to hold.
        context: &'static str,
    },
}

impl std::fmt::Display for PlannerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannerError::NoViableModel { attempted } => {
                write!(
                    f,
                    "none of the {attempted} candidate models could be fitted"
                )
            }
            PlannerError::Model(e) => write!(f, "model error: {e}"),
            PlannerError::Series(e) => write!(f, "series error: {e}"),
            PlannerError::Persistence(e) => write!(f, "persistence error: {e}"),
            PlannerError::Internal { context } => {
                write!(f, "internal invariant violated: {context}")
            }
        }
    }
}

impl std::error::Error for PlannerError {}

impl From<dwcp_models::ModelError> for PlannerError {
    fn from(e: dwcp_models::ModelError) -> Self {
        PlannerError::Model(e)
    }
}

impl From<dwcp_series::SeriesError> for PlannerError {
    fn from(e: dwcp_series::SeriesError) -> Self {
        PlannerError::Series(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, PlannerError>;
