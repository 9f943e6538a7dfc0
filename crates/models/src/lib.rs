//! Forecasting models for the dwcp capacity planner.
//!
//! Implements every model family the paper evaluates or discusses:
//!
//! * [`arima`] — ARIMA(p,d,q), SARIMA(p,d,q)(P,D,Q)ₛ and SARIMAX with
//!   exogenous regressors and Fourier terms (§4.1, §4.2, §4.4), fitted by
//!   conditional sum of squares with Nelder-Mead over a
//!   stationarity-constrained parameterisation,
//! * [`ets`] — the exponential-smoothing family (§4.3): simple exponential
//!   smoothing, Holt's linear trend (optionally damped), and the
//!   Holt-Winters seasonal method the paper calls **HES**,
//! * [`tbats`] — Trigonometric seasonality, Box-Cox, ARMA errors, Trend and
//!   Seasonal components (§4.3, equations 7-14), with AIC-driven selection
//!   over its configuration lattice,
//! * [`fourier`] — the Fourier-term external regressors of §4.4.
//!
//! All models share the [`Forecast`] output type: point predictions with
//! symmetric normal error bars, matching the paper's problem definition
//! ("the prediction z consists of the predicted values and associated
//! error bars").
#![forbid(unsafe_code)]

pub mod arima;
pub mod ets;
pub mod fourier;
pub mod tbats;

pub use arima::spec::ArimaSpec;
pub use arima::{FittedArima, FittedSarimax, SarimaxConfig};
pub use ets::{adapt_ets_unconstrained, EtsConfig, EtsFitOptions, EtsFitSession, EtsModel};
pub use ets::{FittedEts, SeasonalKind, TrendKind};
pub use fourier::FourierSpec;
pub use tbats::{adapt_tbats_unconstrained, FittedTbats, TbatsConfig, TbatsFitOptions};
pub use tbats::{rotation_tables as tbats_rotation_tables, RotationTables};
pub use tbats::{TbatsFitSession, TbatsSeason};

use serde::{Deserialize, Serialize};

/// A forecast: point predictions plus symmetric normal prediction
/// intervals.
///
/// ```
/// use dwcp_models::Forecast;
///
/// let f = Forecast::with_normal_intervals(vec![100.0], vec![2.0], 0.95);
/// assert!(f.lower[0] < 100.0 && f.upper[0] > 100.0);
/// assert!((f.upper[0] - 100.0 - 1.96 * 2.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Forecast {
    /// Point predictions, one per horizon step.
    pub mean: Vec<f64>,
    /// Lower interval bound per step.
    pub lower: Vec<f64>,
    /// Upper interval bound per step.
    pub upper: Vec<f64>,
    /// Forecast standard error per step.
    pub std_error: Vec<f64>,
    /// The two-sided confidence level of the interval (e.g. 0.95).
    pub level: f64,
}

impl Forecast {
    /// Build a forecast from means and per-step standard errors at the
    /// given confidence `level`.
    pub fn with_normal_intervals(mean: Vec<f64>, std_error: Vec<f64>, level: f64) -> Forecast {
        debug_assert_eq!(mean.len(), std_error.len());
        let z = dwcp_math::Normal::STANDARD
            .quantile(0.5 + level / 2.0)
            .unwrap_or(1.96);
        let lower = mean
            .iter()
            .zip(&std_error)
            .map(|(m, s)| m - z * s)
            .collect();
        let upper = mean
            .iter()
            .zip(&std_error)
            .map(|(m, s)| m + z * s)
            .collect();
        Forecast {
            mean,
            lower,
            upper,
            std_error,
            level,
        }
    }

    /// Horizon length.
    pub fn len(&self) -> usize {
        self.mean.len()
    }

    /// Whether the forecast is empty.
    pub fn is_empty(&self) -> bool {
        self.mean.is_empty()
    }

    /// Map every series in the forecast through `f` (used to undo
    /// transforms such as Box-Cox or positivity shifts).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Forecast {
        Forecast {
            mean: self.mean.iter().map(|&v| f(v)).collect(),
            lower: self.lower.iter().map(|&v| f(v)).collect(),
            upper: self.upper.iter().map(|&v| f(v)).collect(),
            std_error: self.std_error.clone(),
            level: self.level,
        }
    }
}

/// The family-agnostic contract every fitted model offers the search and
/// persistence plane: a descriptor, interval forecasts, and the converged
/// optimiser parameters that warm-start (or frozen-re-score) a later fit
/// of the same configuration.
///
/// Implemented by the ARIMA family ([`FittedSarimax`], [`FittedArima`]),
/// exponential smoothing ([`FittedEts`]) and [`FittedTbats`]. Fitting
/// stays on the inherent per-family constructors — configurations differ
/// too much (exogenous columns, Fourier phase anchors) for a useful
/// trait-level `fit` — but everything downstream of a fit is uniform.
pub trait Forecaster {
    /// Human-readable model descriptor (what the champion column prints).
    fn describe_model(&self) -> String;

    /// Forecast `horizon` steps ahead with symmetric normal intervals.
    /// `future_exog` carries the future exogenous columns for SARIMAX
    /// regression configs; families without exogenous inputs ignore it.
    fn forecast_with_intervals(&self, horizon: usize, future_exog: &[&[f64]]) -> Result<Forecast>;

    /// Converged unconstrained optimiser parameters — the warm-start seed
    /// for (and frozen verbatim re-score of) a later fit of the same
    /// configuration.
    fn converged_params(&self) -> &[f64];

    /// Objective evaluations the fit consumed.
    fn objective_evals(&self) -> usize;

    /// Akaike information criterion of the fit.
    fn aic(&self) -> f64;
}

impl Forecaster for FittedArima {
    fn describe_model(&self) -> String {
        format!("ARIMA{}", self.spec)
    }

    fn forecast_with_intervals(&self, horizon: usize, _future_exog: &[&[f64]]) -> Result<Forecast> {
        Ok(self.forecast(horizon))
    }

    fn converged_params(&self) -> &[f64] {
        &self.params_unconstrained
    }

    fn objective_evals(&self) -> usize {
        self.nm_evals
    }

    fn aic(&self) -> f64 {
        self.aic
    }
}

impl Forecaster for FittedSarimax {
    fn describe_model(&self) -> String {
        self.config.describe()
    }

    fn forecast_with_intervals(&self, horizon: usize, future_exog: &[&[f64]]) -> Result<Forecast> {
        self.forecast_cols(horizon, future_exog)
    }

    fn converged_params(&self) -> &[f64] {
        self.warm_seed()
    }

    fn objective_evals(&self) -> usize {
        self.nm_evals
    }

    fn aic(&self) -> f64 {
        FittedSarimax::aic(self)
    }
}

impl Forecaster for FittedEts {
    fn describe_model(&self) -> String {
        self.config.name()
    }

    fn forecast_with_intervals(&self, horizon: usize, _future_exog: &[&[f64]]) -> Result<Forecast> {
        Ok(self.forecast(horizon))
    }

    fn converged_params(&self) -> &[f64] {
        &self.params_unconstrained
    }

    fn objective_evals(&self) -> usize {
        self.nm_evals
    }

    fn aic(&self) -> f64 {
        self.aic
    }
}

impl Forecaster for FittedTbats {
    fn describe_model(&self) -> String {
        self.config.describe()
    }

    fn forecast_with_intervals(&self, horizon: usize, _future_exog: &[&[f64]]) -> Result<Forecast> {
        Ok(self.forecast(horizon))
    }

    fn converged_params(&self) -> &[f64] {
        &self.params_unconstrained
    }

    fn objective_evals(&self) -> usize {
        self.nm_evals
    }

    fn aic(&self) -> f64 {
        self.aic
    }
}

/// Errors from model estimation or forecasting.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// Not enough observations for the requested model.
    TooShort {
        /// Observations required.
        needed: usize,
        /// Observations available.
        got: usize,
    },
    /// A specification parameter is invalid.
    InvalidSpec {
        /// Human-readable description.
        context: String,
    },
    /// The optimiser failed to produce a usable fit.
    FitFailed {
        /// Human-readable description.
        context: String,
    },
    /// The caller supplied inconsistent exogenous data.
    ExogenousMismatch {
        /// Human-readable description.
        context: String,
    },
    /// Propagated series-layer error.
    Series(dwcp_series::SeriesError),
    /// Propagated math-layer error.
    Math(dwcp_math::MathError),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::TooShort { needed, got } => {
                write!(
                    f,
                    "series too short: need {needed} observations, have {got}"
                )
            }
            ModelError::InvalidSpec { context } => write!(f, "invalid model spec: {context}"),
            ModelError::FitFailed { context } => write!(f, "model fit failed: {context}"),
            ModelError::ExogenousMismatch { context } => {
                write!(f, "exogenous data mismatch: {context}")
            }
            ModelError::Series(e) => write!(f, "series error: {e}"),
            ModelError::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<dwcp_series::SeriesError> for ModelError {
    fn from(e: dwcp_series::SeriesError) -> Self {
        ModelError::Series(e)
    }
}

impl From<dwcp_math::MathError> for ModelError {
    fn from(e: dwcp_math::MathError) -> Self {
        ModelError::Math(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, ModelError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_intervals_are_symmetric_and_widen_with_se() {
        let f = Forecast::with_normal_intervals(vec![10.0, 10.0], vec![1.0, 2.0], 0.95);
        let half0 = f.upper[0] - f.mean[0];
        let half1 = f.upper[1] - f.mean[1];
        assert!((half0 - (f.mean[0] - f.lower[0])).abs() < 1e-12);
        assert!((half1 - 2.0 * half0).abs() < 1e-9);
        assert!((half0 - 1.96).abs() < 0.01);
    }

    #[test]
    fn map_applies_to_all_bands() {
        let f = Forecast::with_normal_intervals(vec![1.0], vec![0.5], 0.9);
        let g = f.map(|v| v * 2.0);
        assert_eq!(g.mean[0], 2.0);
        assert_eq!(g.lower[0], f.lower[0] * 2.0);
        assert_eq!(g.upper[0], f.upper[0] * 2.0);
    }
}
