//! The Figure 4 workflow: gather → interpolate → split → candidate grid →
//! parallel evaluation → champion, for **every** model family.
//!
//! "Depending on whether the user chooses Holt-Winters Exponential
//! Smoothing (HES) … or SARIMAX, a different branch of the algorithm will
//! be followed. If SARIMAX is selected the algorithm then analyses the time
//! series data … and computes the ACF/PACF to determine which models are
//! probably a good fit … each model is then computed to obtain an RMSE.
//! The model with the best RMSE is the most accurate."
//!
//! Where the paper branches per family, this implementation unifies: the
//! method choice only decides which candidate configurations enter the
//! grid ([`ModelGrid::ets`], [`ModelGrid::tbats`], the pruned SARIMAX set,
//! or all of them for [`MethodChoice::Auto`]); evaluation, champion
//! selection, persistence and champion reuse are one family-agnostic
//! plane.

use crate::candidates::{CandidateSet, DataProfile};
use crate::engine::{split_exog_window, tbats_periods, AggregateStage, ScoreStage};
use crate::evaluate::{evaluate_candidates, EvalStats, EvaluationOptions, EvaluationReport};
use crate::grid::{CandidateModel, ModelConfig, ModelFamily, ModelGrid};
use crate::{PlannerError, Result};
use dwcp_models::Forecast;
use dwcp_series::interpolate::interpolate_series;
use dwcp_series::{Accuracy, Granularity, TimeSeries, TrainTestSplit};

/// The user's model-family choice (Figure 8 lets the user "select between
/// SARIMAX or HES").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodChoice {
    /// Holt-Winters exponential smoothing family.
    Hes,
    /// The SARIMAX family (optionally with exogenous shocks and Fourier
    /// terms).
    Sarimax,
    /// TBATS (§4.3): Box-Cox, trend damping, trigonometric seasonality and
    /// ARMA errors over the paper's configuration lattice.
    Tbats,
    /// Race every family through one grid and keep the best held-out RMSE
    /// — the fully self-selecting mode of §5.
    Auto,
}

impl MethodChoice {
    /// Whether SARIMAX-family candidates participate in this method's grid.
    pub(crate) fn includes_sarimax(self) -> bool {
        matches!(self, MethodChoice::Sarimax | MethodChoice::Auto)
    }

    /// Whether exponential-smoothing candidates participate.
    pub(crate) fn includes_hes(self) -> bool {
        matches!(self, MethodChoice::Hes | MethodChoice::Auto)
    }

    /// Whether TBATS candidates participate.
    pub(crate) fn includes_tbats(self) -> bool {
        matches!(self, MethodChoice::Tbats | MethodChoice::Auto)
    }
}

/// How the SARIMAX-family candidate grid is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GridStrategy {
    /// The standard correlogram-pruned sweep ([`CandidateSet::sarimax`]).
    #[default]
    Full,
    /// Interpretable auto order selection ([`crate::auto_order`]):
    /// ADF/KPSS-chosen differencing plus PACF/ACF cut-offs seed a small
    /// neighbourhood grid. If the seeded champion cannot beat the naive
    /// benchmark forecast, the run falls back to the full strategy — the
    /// `--grid auto-order` CLI mode.
    AutoOrder,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Which families enter the candidate grid.
    pub method: MethodChoice,
    /// How the SARIMAX-family grid is built (ignored by the pure smoothing
    /// methods, which have no order grid to prune).
    pub grid: GridStrategy,
    /// Table 1 protocol row to apply.
    pub granularity: Granularity,
    /// Cap on SARIMAX candidates after correlogram pruning.
    pub max_candidates: usize,
    /// Whether to run the §6.3 Fourier-augmentation stage on the champion
    /// when the series is multi-seasonal (SARIMAX champions only — the
    /// smoothing families have no exogenous regressors to augment).
    pub fourier_stage: bool,
    /// Discover recurring shocks from the data itself when the caller
    /// supplies no exogenous columns (§5.1's shock analysis + §9's
    /// >3-occurrence rule), and feed them to SARIMAX as indicators.
    pub auto_detect_shocks: bool,
    /// Evaluation options (threads, fit budget).
    pub eval: EvaluationOptions,
}

impl PipelineConfig {
    /// Sensible defaults for hourly forecasting.
    pub fn hourly(method: MethodChoice) -> PipelineConfig {
        PipelineConfig {
            method,
            grid: GridStrategy::Full,
            granularity: Granularity::Hourly,
            max_candidates: 24,
            fourier_stage: true,
            auto_detect_shocks: false,
            eval: EvaluationOptions::default(),
        }
    }
}

/// The result of one pipeline run.
#[derive(Debug)]
pub struct ForecastOutcome {
    /// Human-readable champion descriptor, e.g.
    /// `SARIMAX FFT Exogenous (4,1,2)(1,1,1,24)`.
    pub champion: String,
    /// Family bucket of the champion.
    pub family: Option<ModelFamily>,
    /// Accuracy of the champion on the held-out test segment.
    pub accuracy: Accuracy,
    /// The champion's forecast over the test window (the paper's yellow
    /// region), aligned with the returned `test` series.
    pub test_forecast: Forecast,
    /// The held-out actuals the forecast is scored against.
    pub test: TimeSeries,
    /// The training series after interpolation.
    pub train: TimeSeries,
    /// How many candidate models were evaluated.
    pub evaluated: usize,
    /// How many candidate fits failed.
    pub failures: usize,
    /// How many gaps interpolation filled.
    pub gaps_filled: usize,
    /// The data profile the candidate grid was derived from; `None` when
    /// the stored champion was re-scored frozen and no grid was planned.
    pub profile: Option<DataProfile>,
    /// The champion's machine-readable specification, for refitting.
    pub champion_spec: ChampionSpec,
    /// Evaluation instrumentation (cache hits, warm starts, objective
    /// evaluations, per-family timing).
    pub stats: EvalStats,
    /// The champion's converged unconstrained optimiser parameters — what
    /// the model repository stores for frozen re-scores and seeded
    /// searches, whichever family the champion belongs to.
    pub warm_seed: Vec<f64>,
    /// The champion's regression coefficients (empty for every family
    /// except regression SARIMAX) — stored with the warm seed so a
    /// regression champion can be re-scored verbatim.
    pub warm_beta: Vec<f64>,
}

/// The champion's configuration, sufficient to refit it on fresh data —
/// what the model repository stores alongside the descriptor. Since every
/// family is a [`ModelConfig`] variant, this is just that enum.
pub type ChampionSpec = ModelConfig;

/// The Figure 4 pipeline — since the staged-engine refactor, a thin
/// composition of [`AggregateStage`] and [`ScoreStage`]: the same stage
/// implementations the resident [`crate::engine::Engine`] runs under
/// `dwcp serve`, which is what guarantees batch and resident champions
/// are bit-identical on the same data.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Configuration.
    pub config: PipelineConfig,
}

impl Pipeline {
    /// Create a pipeline.
    pub fn new(config: PipelineConfig) -> Pipeline {
        Pipeline { config }
    }

    /// Run the pipeline on a monitored series.
    ///
    /// `exog_full` are the exogenous indicator columns spanning the same
    /// observations as `series` (they are split alongside it); pass `&[]`
    /// when no shocks are known. Only SARIMAX candidates consume them.
    pub fn run(&self, series: &TimeSeries, exog_full: &[Vec<f64>]) -> Result<ForecastOutcome> {
        let plan = AggregateStage::prepare(&self.config, series, exog_full)?;
        ScoreStage::score(&self.config, plan)
    }

    /// Run the pipeline, then refit the champion on the **full** series
    /// and forecast `horizon` steps *beyond the data* — the production
    /// forecast the Figure 8 UI charts (the test-window forecast in
    /// [`ForecastOutcome`] is for scoring; this one is for planning).
    ///
    /// `future_exog` must cover the horizon with the same column universe
    /// the champion was selected against (pass `&[]` for HES/TBATS or
    /// no-shock SARIMAX; auto-detected shock columns are extended
    /// automatically).
    pub fn refit_and_forecast(
        &self,
        series: &TimeSeries,
        exog_full: &[Vec<f64>],
        future_exog: &[Vec<f64>],
        horizon: usize,
    ) -> Result<(ForecastOutcome, Forecast)> {
        use dwcp_models::{FittedEts, FittedSarimax, FittedTbats};
        let outcome = self.run(series, exog_full)?;
        let mut working = series.clone();
        if working.has_gaps() {
            interpolate_series(&mut working)?;
        }
        let future = match &outcome.champion_spec {
            ChampionSpec::Sarimax(config) => {
                let n = config.n_exog;
                // Auto-detected shocks: re-derive the columns over the full
                // window and extend them into the future.
                let (hist_cols, fut_cols): (Vec<Vec<f64>>, Vec<Vec<f64>>) = if let Some(hist) =
                    exog_full.get(..n)
                {
                    (
                        hist.to_vec(),
                        future_exog.get(..n).map(|c| c.to_vec()).ok_or_else(|| {
                            PlannerError::Model(dwcp_models::ModelError::ExogenousMismatch {
                                context: format!(
                                    "champion needs {n} future exogenous columns, got {}",
                                    future_exog.len()
                                ),
                            })
                        })?,
                    )
                } else {
                    let period = self.config.granularity.seasonal_period();
                    let mut detector = crate::shocks::ShockDetector::new(period);
                    let shocks = detector.detect(working.values())?;
                    let hist =
                        crate::shocks::ShockDetector::indicator_columns(&shocks, 0, working.len());
                    let fut = crate::shocks::ShockDetector::indicator_columns(
                        &shocks,
                        working.len(),
                        horizon,
                    );
                    let (Some(hist_n), Some(fut_n)) = (hist.get(..n), fut.get(..n)) else {
                        return Err(PlannerError::Model(
                            dwcp_models::ModelError::ExogenousMismatch {
                                context: format!(
                                    "champion needs {n} exogenous columns, re-detection produced {}",
                                    hist.len()
                                ),
                            },
                        ));
                    };
                    (hist_n.to_vec(), fut_n.to_vec())
                };
                let fit = FittedSarimax::fit(
                    working.values(),
                    config,
                    &hist_cols,
                    0,
                    &self.config.eval.fit,
                )?;
                fit.forecast(horizon, &fut_cols)?
            }
            ChampionSpec::Ets(config) => {
                FittedEts::fit(working.values(), *config)?.forecast(horizon)
            }
            ChampionSpec::Tbats(config) => {
                FittedTbats::fit(working.values(), config.clone())?.forecast(horizon)
            }
        };
        Ok((outcome, future))
    }

    /// Score every family over the same split and return the per-family
    /// best — the Table 2 rows. The families are ARIMA, SARIMAX,
    /// SARIMAX + Exogenous + Fourier, HES and TBATS.
    pub fn family_comparison(
        &self,
        series: &TimeSeries,
        exog_full: &[Vec<f64>],
        per_family_cap: usize,
    ) -> Result<EvaluationReport> {
        let mut working = series.clone();
        if working.has_gaps() {
            interpolate_series(&mut working)?;
        }
        let split = TrainTestSplit::from_series(&working, self.config.granularity)?;
        let window = self.config.granularity.observations();
        let offset = working.len() - window;
        let train_len = split.train.len();
        let (exog_train, exog_test) = split_exog_window(exog_full, offset, window, train_len)?;
        let train = split.train.values();
        let profile = DataProfile::analyze(train)?;
        let fallback = self.config.granularity.seasonal_period();

        let mut candidates: Vec<CandidateModel> = Vec::new();
        let arima = CandidateSet::arima(profile.clone(), per_family_cap);
        candidates.extend(arima.models);
        let sarimax = CandidateSet::sarimax(profile.clone(), fallback, 0, per_family_cap);
        candidates.extend(sarimax.models);
        let exo =
            CandidateSet::sarimax(profile.clone(), fallback, exog_train.len(), per_family_cap);
        // Exogenous family also carries Fourier variants of its first few
        // members so the FFT column of Table 2 is genuinely exercised.
        let periods = profile.fourier_periods(fallback);
        let mut exo_models = exo.models;
        let fourier_extra: Vec<CandidateModel> = exo_models
            .iter()
            .take(3)
            .flat_map(|m| {
                m.as_sarimax()
                    .map(|c| ModelGrid::fourier_variants(c, &periods))
                    .unwrap_or_default()
            })
            .collect();
        exo_models.extend(fourier_extra);
        candidates.extend(exo_models);

        // The smoothing families fill their own Table 2 rows.
        let interval_level = self.config.eval.fit.interval_level;
        let period = profile.primary_period(fallback);
        let positive = train.iter().all(|&v| v > 0.0);
        let mut ets_models = ModelGrid::ets(period, positive, interval_level).candidates;
        ets_models.truncate(per_family_cap);
        candidates.extend(ets_models);
        let mut tbats_models =
            ModelGrid::tbats(&tbats_periods(&profile, fallback), None, interval_level).candidates;
        tbats_models.truncate(per_family_cap);
        candidates.extend(tbats_models);
        // Canonicalise and drop structural duplicates before queueing —
        // per-family caps can pull the same degenerate shape from several
        // menus.
        crate::grid::dedupe_candidates(&mut candidates);

        let mut eval_opts = self.config.eval.clone();
        eval_opts.start_index = offset;
        evaluate_candidates(
            train,
            split.test.values(),
            &exog_train,
            &exog_test,
            &candidates,
            &eval_opts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwcp_series::Frequency;

    /// An hourly series with daily seasonality, trend and a 6-hourly shock:
    /// all four paper challenges in one trace, long enough for Table 1.
    fn synthetic_hourly(n: usize) -> (TimeSeries, Vec<Vec<f64>>) {
        let mut shock_cols = vec![vec![0.0; n]; 4];
        let values: Vec<f64> = (0..n)
            .map(|t| {
                let tf = t as f64;
                let mut v = 80.0
                    + 0.05 * tf
                    + 25.0 * (2.0 * std::f64::consts::PI * tf / 24.0).sin()
                    + ((t * 2654435761 % 89) as f64) / 20.0;
                if t % 6 == 0 {
                    v += 40.0;
                    shock_cols[(t % 24) / 6][t] = 1.0;
                }
                v
            })
            .collect();
        (TimeSeries::new(values, Frequency::Hourly, 0), shock_cols)
    }

    fn fast_config(method: MethodChoice) -> PipelineConfig {
        PipelineConfig {
            method,
            grid: GridStrategy::Full,
            granularity: Granularity::Hourly,
            max_candidates: 4,
            fourier_stage: false,
            auto_detect_shocks: false,
            eval: EvaluationOptions {
                threads: 0,
                fit: dwcp_models::arima::ArimaOptions {
                    max_evals: 120,
                    restarts: 0,
                    interval_level: 0.95,
                    ..Default::default()
                },
                ..Default::default()
            },
        }
    }

    #[test]
    fn hes_branch_produces_a_champion() {
        let (series, _) = synthetic_hourly(1100);
        let pipeline = Pipeline::new(fast_config(MethodChoice::Hes));
        let outcome = pipeline.run(&series, &[]).unwrap();
        assert!(!outcome.champion.is_empty());
        assert_eq!(outcome.family, Some(ModelFamily::Hes));
        assert_eq!(outcome.test.len(), 24);
        assert_eq!(outcome.test_forecast.len(), 24);
        assert!(outcome.accuracy.rmse.is_finite());
        // The HES champion now carries its converged smoothing parameters
        // for the repository's warm seed.
        assert!(!outcome.warm_seed.is_empty());
        // Holt-Winters should handily beat SES on seasonal data, so the
        // champion must be seasonal.
        assert!(
            outcome.champion.contains("Holt-Winters"),
            "champion = {}",
            outcome.champion
        );
    }

    #[test]
    fn sarimax_branch_produces_a_champion() {
        let (series, exog) = synthetic_hourly(1100);
        let pipeline = Pipeline::new(fast_config(MethodChoice::Sarimax));
        let outcome = pipeline.run(&series, &exog).unwrap();
        assert!(outcome.family.is_some());
        assert!(outcome.evaluated > 0);
        assert!(outcome.profile.is_some());
        let profile = outcome.profile.as_ref().unwrap();
        assert_eq!(profile.primary_period(0), 24);
        // Forecast must track the strong daily cycle: RMSE well below the
        // seasonal amplitude.
        assert!(
            outcome.accuracy.rmse < 25.0,
            "rmse = {}",
            outcome.accuracy.rmse
        );
    }

    #[test]
    fn gaps_are_interpolated_before_fitting() {
        let (mut series, _) = synthetic_hourly(1100);
        series.values_mut()[500] = f64::NAN;
        series.values_mut()[501] = f64::NAN;
        let pipeline = Pipeline::new(fast_config(MethodChoice::Hes));
        let outcome = pipeline.run(&series, &[]).unwrap();
        assert_eq!(outcome.gaps_filled, 2);
    }

    #[test]
    fn short_series_is_rejected_by_protocol() {
        let (series, _) = synthetic_hourly(500); // < 1008
        let pipeline = Pipeline::new(fast_config(MethodChoice::Hes));
        assert!(matches!(
            pipeline.run(&series, &[]),
            Err(PlannerError::Series(
                dwcp_series::SeriesError::TooShort { .. }
            ))
        ));
    }

    #[test]
    fn family_comparison_ranks_five_families() {
        let (series, exog) = synthetic_hourly(1100);
        let pipeline = Pipeline::new(fast_config(MethodChoice::Sarimax));
        let report = pipeline.family_comparison(&series, &exog, 3).unwrap();
        assert!(report.best_of_family(ModelFamily::Arima).is_some());
        assert!(report.best_of_family(ModelFamily::Sarimax).is_some());
        assert!(report
            .best_of_family(ModelFamily::SarimaxFftExogenous)
            .is_some());
        // The smoothing families report their own Table 2 rows too.
        assert!(report.best_of_family(ModelFamily::Hes).is_some());
        assert!(report.best_of_family(ModelFamily::Tbats).is_some());
        // On seasonal data with explicit shocks, seasonal/exogenous models
        // should not lose to plain ARIMA.
        let arima = report.best_of_family(ModelFamily::Arima).unwrap();
        let champion = report.champion().unwrap();
        assert!(champion.accuracy.rmse <= arima.accuracy.rmse);
    }

    #[test]
    fn auto_detected_shocks_feed_the_sarimax_branch() {
        let (series, _) = synthetic_hourly(1100);
        let mut config = fast_config(MethodChoice::Sarimax);
        config.auto_detect_shocks = true;
        let with_detection = Pipeline::new(config).run(&series, &[]).unwrap();
        let without = Pipeline::new(fast_config(MethodChoice::Sarimax))
            .run(&series, &[])
            .unwrap();
        // The 6-hourly +40 spikes are detectable; the detected-exogenous
        // run must not be worse than the blind run.
        assert!(
            with_detection.accuracy.rmse <= without.accuracy.rmse * 1.1,
            "detected {} vs blind {}",
            with_detection.accuracy.rmse,
            without.accuracy.rmse
        );
        assert!(
            with_detection.champion.contains("Exogenous"),
            "champion should carry detected shocks: {}",
            with_detection.champion
        );
    }

    #[test]
    fn tbats_branch_produces_a_champion() {
        let (series, _) = synthetic_hourly(1100);
        let pipeline = Pipeline::new(fast_config(MethodChoice::Tbats));
        let outcome = pipeline.run(&series, &[]).unwrap();
        assert!(
            outcome.champion.starts_with("TBATS"),
            "{}",
            outcome.champion
        );
        assert_eq!(outcome.family, Some(ModelFamily::Tbats));
        assert_eq!(outcome.test_forecast.len(), 24);
        assert!(!outcome.warm_seed.is_empty());
        // TBATS must capture the dominant daily cycle: RMSE below the
        // seasonal amplitude.
        assert!(
            outcome.accuracy.rmse < 30.0,
            "rmse = {}",
            outcome.accuracy.rmse
        );
    }

    #[test]
    fn auto_method_races_every_family() {
        let (series, _) = synthetic_hourly(1100);
        let pipeline = Pipeline::new(fast_config(MethodChoice::Auto));
        let outcome = pipeline.run(&series, &[]).unwrap();
        let family = outcome.family.expect("auto run has a champion family");
        // The union grid was actually raced: per-family stats show at
        // least one smoothing candidate and one SARIMAX candidate fitted.
        let stats = &outcome.stats;
        assert!(stats.families[ModelFamily::Hes.index()].fits > 0);
        assert!(stats.families[ModelFamily::Tbats.index()].fits > 0);
        assert!(
            stats.families[ModelFamily::Sarimax.index()].fits > 0
                || stats.families[ModelFamily::Arima.index()].fits > 0
        );
        // Whatever won, the champion must at least match every family's
        // dedicated branch on the same data (same split, superset grid).
        let hes = Pipeline::new(fast_config(MethodChoice::Hes))
            .run(&series, &[])
            .unwrap();
        assert!(
            outcome.accuracy.rmse <= hes.accuracy.rmse * (1.0 + 1e-9),
            "auto ({family:?}) {} vs hes {}",
            outcome.accuracy.rmse,
            hes.accuracy.rmse
        );
    }

    #[test]
    fn auto_method_is_bitwise_identical_on_one_and_two_threads() {
        // Two threads split the union grid's lockstep chains over two
        // groups; the outcome must not change by a bit.
        let (series, _) = synthetic_hourly(1100);
        let outcomes: Vec<ForecastOutcome> = [1, 2]
            .into_iter()
            .map(|threads| {
                let mut config = fast_config(MethodChoice::Auto);
                config.eval.threads = threads;
                Pipeline::new(config).run(&series, &[]).unwrap()
            })
            .collect();
        let (one, two) = (&outcomes[0], &outcomes[1]);
        assert_eq!(one.stats.lockstep.groups, 1);
        assert_eq!(two.stats.lockstep.groups, 2);
        assert_eq!(one.champion, two.champion);
        assert_eq!(one.family, two.family);
        assert_eq!(one.accuracy.rmse.to_bits(), two.accuracy.rmse.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&one.warm_seed), bits(&two.warm_seed));
        assert_eq!(bits(&one.test_forecast.mean), bits(&two.test_forecast.mean));
        assert_eq!(
            bits(&one.test_forecast.lower),
            bits(&two.test_forecast.lower)
        );
        assert_eq!(
            bits(&one.test_forecast.upper),
            bits(&two.test_forecast.upper)
        );
    }

    #[test]
    fn prepared_union_grid_is_deduped() {
        // The aggregate stage must canonicalise the union grid and drop
        // structural duplicates before the candidates reach the work
        // queue: re-deduping the prepared grid is a no-op, and no two
        // prepared candidates share a `(family, canonical config)` key.
        let (series, _) = synthetic_hourly(1100);
        let config = fast_config(MethodChoice::Auto);
        let plan = crate::engine::AggregateStage::prepare(&config, &series, &[]).unwrap();
        let prepared = plan.grid.set.models.clone();
        assert!(!prepared.is_empty());
        let mut again = prepared.clone();
        crate::grid::dedupe_candidates(&mut again);
        assert_eq!(again.len(), prepared.len());
        let keys: Vec<_> = prepared
            .iter()
            .map(|c| (c.family, c.config.canonical()))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            assert!(
                !keys[..i].contains(key),
                "duplicate candidate survived prepare: {:?}",
                key
            );
        }
    }

    #[test]
    fn auto_order_grid_produces_a_champion() {
        let (series, _) = synthetic_hourly(1100);
        let mut config = fast_config(MethodChoice::Sarimax);
        config.grid = GridStrategy::AutoOrder;
        let auto = Pipeline::new(config).run(&series, &[]).unwrap();
        assert!(auto.family.is_some());
        assert!(auto.accuracy.rmse.is_finite());
        // Whether or not the naive-benchmark fallback fired, the run must
        // track the strong daily cycle about as well as the full strategy.
        let full = Pipeline::new(fast_config(MethodChoice::Sarimax))
            .run(&series, &[])
            .unwrap();
        assert!(
            auto.accuracy.rmse <= full.accuracy.rmse * 2.0,
            "auto {} vs full {}",
            auto.accuracy.rmse,
            full.accuracy.rmse
        );
    }

    #[test]
    fn fourier_stage_extends_the_evaluation() {
        let (series, exog) = synthetic_hourly(1100);
        let mut config = fast_config(MethodChoice::Sarimax);
        config.fourier_stage = true;
        let pipeline = Pipeline::new(config);
        let outcome = pipeline.run(&series, &exog).unwrap();
        assert!(outcome.evaluated >= 4);
    }
}
