//! Exponential smoothing models (§4.3): simple exponential smoothing,
//! Holt's linear trend (optionally damped) and the Holt-Winters seasonal
//! method — the model the paper's pipeline calls **HES** ("Holt-Winters
//! Exponential Smoothing").
//!
//! "In exponential smoothing, recent observations are given more weight
//! than older observations … The weights decay exponentially as the
//! observations get older."
//!
//! Smoothing parameters are found by minimising the one-step-ahead SSE with
//! Nelder-Mead over logistic-transformed variables, the same device every
//! ETS implementation uses.

// lint: allow-file(indexing) — smoothing-state numerics; every index is
// bounded by construction: seasonal phases are `t % m` / `(n + h) % m`
// into length-`m` buffers, optimiser-vector reads follow the layout
// `n_params()` sized them to, and the length validation at the fit
// boundary (`needed` check) guarantees the initial-state windows exist.

use crate::{Forecast, ModelError, Result};
use dwcp_math::kernels::{ets_batch, holt_winters};
use dwcp_math::optimize::{NelderMeadDriver, NelderMeadOptions};
use serde::{Deserialize, Serialize};

/// Trend component choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrendKind {
    /// No trend (simple exponential smoothing when seasonality is off).
    None,
    /// Holt's additive linear trend.
    Additive,
    /// Additive trend with damping coefficient φ.
    Damped,
}

/// Seasonal component choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeasonalKind {
    /// No seasonality.
    None,
    /// Additive seasonality with the given period.
    Additive(usize),
    /// Multiplicative seasonality with the given period (positive data).
    Multiplicative(usize),
}

impl SeasonalKind {
    /// The seasonal period, or 0 when seasonality is off.
    pub fn period(self) -> usize {
        match self {
            SeasonalKind::None => 0,
            SeasonalKind::Additive(m) | SeasonalKind::Multiplicative(m) => m,
        }
    }
}

/// An ETS model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EtsConfig {
    /// Trend component.
    pub trend: TrendKind,
    /// Seasonal component.
    pub seasonal: SeasonalKind,
    /// Two-sided confidence level for forecast intervals.
    pub interval_level: f64,
}

impl EtsConfig {
    /// Simple exponential smoothing.
    pub fn ses() -> EtsConfig {
        EtsConfig {
            trend: TrendKind::None,
            seasonal: SeasonalKind::None,
            interval_level: 0.95,
        }
    }

    /// Holt's linear trend.
    pub fn holt() -> EtsConfig {
        EtsConfig {
            trend: TrendKind::Additive,
            seasonal: SeasonalKind::None,
            interval_level: 0.95,
        }
    }

    /// Holt-Winters additive seasonal — the paper's HES default.
    pub fn holt_winters(period: usize) -> EtsConfig {
        EtsConfig {
            trend: TrendKind::Additive,
            seasonal: SeasonalKind::Additive(period),
            interval_level: 0.95,
        }
    }

    /// Holt-Winters multiplicative seasonal.
    pub fn holt_winters_multiplicative(period: usize) -> EtsConfig {
        EtsConfig {
            trend: TrendKind::Additive,
            seasonal: SeasonalKind::Multiplicative(period),
            interval_level: 0.95,
        }
    }

    /// Number of smoothing parameters being optimised.
    pub fn n_params(&self) -> usize {
        let mut k = 1; // alpha
        if self.trend != TrendKind::None {
            k += 1; // beta
        }
        if self.trend == TrendKind::Damped {
            k += 1; // phi
        }
        if self.seasonal.period() > 0 {
            k += 1; // gamma
        }
        k
    }

    /// Short display name.
    pub fn name(&self) -> String {
        let base = match (self.trend, self.seasonal) {
            (TrendKind::None, SeasonalKind::None) => "SES".to_string(),
            (TrendKind::Additive, SeasonalKind::None) => "Holt".to_string(),
            (TrendKind::Damped, SeasonalKind::None) => "Holt (damped)".to_string(),
            (_, SeasonalKind::Additive(m)) => format!("Holt-Winters additive (m={m})"),
            (_, SeasonalKind::Multiplicative(m)) => {
                format!("Holt-Winters multiplicative (m={m})")
            }
        };
        base
    }
}

/// Convenience enum mirroring the paper's user-facing model menu.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtsModel {
    /// Simple exponential smoothing.
    Ses,
    /// Holt's linear trend.
    Holt,
    /// Damped Holt.
    HoltDamped,
    /// Holt-Winters additive (HES).
    HoltWintersAdditive,
    /// Holt-Winters multiplicative.
    HoltWintersMultiplicative,
}

impl EtsModel {
    /// Materialise a config; `period` is used by the seasonal variants.
    pub fn config(self, period: usize) -> EtsConfig {
        match self {
            EtsModel::Ses => EtsConfig::ses(),
            EtsModel::Holt => EtsConfig::holt(),
            EtsModel::HoltDamped => EtsConfig {
                trend: TrendKind::Damped,
                ..EtsConfig::holt()
            },
            EtsModel::HoltWintersAdditive => EtsConfig::holt_winters(period),
            EtsModel::HoltWintersMultiplicative => EtsConfig::holt_winters_multiplicative(period),
        }
    }
}

/// Options controlling the ETS optimiser: warm-start seeding and the
/// frozen re-score used by champion-seeded relearning.
#[derive(Debug, Clone, Default)]
pub struct EtsFitOptions {
    /// Unconstrained Nelder-Mead parameters from a previous fit (same
    /// layout as [`FittedEts::params_unconstrained`]) used to seed the
    /// simplex instead of the generic midpoint start.
    pub warm_start: Option<Vec<f64>>,
    /// Evaluate the recursion at `warm_start` verbatim without optimising —
    /// reproduces a stored champion's fit bit-exactly in one evaluation.
    pub freeze_warm_start: bool,
}

/// Map a previous fit's unconstrained parameters onto another ETS config's
/// layout: shared components (α always; β when both have trend; φ when both
/// damp; γ when both are seasonal) carry over, new components start at the
/// logistic midpoint (0.0).
pub fn adapt_ets_unconstrained(
    prev: &[f64],
    prev_config: &EtsConfig,
    next_config: &EtsConfig,
) -> Vec<f64> {
    let slot = |config: &EtsConfig, want: usize| -> Option<usize> {
        // Component ids: 0 = alpha, 1 = beta, 2 = phi, 3 = gamma.
        let mut i = 0;
        let mut pos = [None; 4];
        pos[0] = Some(i);
        i += 1;
        if config.trend != TrendKind::None {
            pos[1] = Some(i);
            i += 1;
        }
        if config.trend == TrendKind::Damped {
            pos[2] = Some(i);
            i += 1;
        }
        if config.seasonal.period() > 0 {
            pos[3] = Some(i);
        }
        pos[want]
    };
    let mut out = vec![0.0; next_config.n_params()];
    for component in 0..4 {
        if let (Some(dst), Some(src)) = (slot(next_config, component), slot(prev_config, component))
        {
            if src < prev.len() {
                out[dst] = prev[src];
            }
        }
    }
    out
}

/// A fitted exponential-smoothing model.
#[derive(Debug, Clone)]
pub struct FittedEts {
    /// Configuration fitted.
    pub config: EtsConfig,
    /// Level smoothing parameter α ∈ (0, 1).
    pub alpha: f64,
    /// Trend smoothing parameter β (0 when trend is off).
    pub beta: f64,
    /// Seasonal smoothing parameter γ (0 when seasonality is off).
    pub gamma: f64,
    /// Trend damping coefficient φ (1 when undamped).
    pub phi: f64,
    /// Final level state.
    pub level: f64,
    /// Final trend state.
    pub trend: f64,
    /// Final seasonal states (most recent period; index `i` is the factor
    /// for phase `(n + i) mod m` going forward).
    pub seasonal: Vec<f64>,
    /// One-step in-sample SSE at the optimum.
    pub sse: f64,
    /// Residual variance estimate.
    pub sigma2: f64,
    /// Training length.
    pub n_obs: usize,
    /// AIC (SSE approximation).
    pub aic: f64,
    /// Converged unconstrained optimiser parameters (warm-start seed for a
    /// subsequent fit; layout `[α, β?, φ?, γ?]` before the logistic map).
    pub params_unconstrained: Vec<f64>,
    /// Objective evaluations spent by the optimiser (1 for a frozen fit).
    pub nm_evals: usize,
}

/// Internal: a finished recursion's SSE and final states.
struct Recursion {
    sse: f64,
    level: f64,
    trend: f64,
    seasonal: Vec<f64>,
}

/// Run the recursion at `(α, β, γ, φ)` from the classical initial states,
/// as one kernel pass; `None` when it cannot start or diverges.
fn run_recursion(y: &[f64], config: &EtsConfig, params: (f64, f64, f64, f64)) -> Option<Recursion> {
    let (level, trend, mut seasonal) = initial_states(y, config)?;
    let mut lane = ets_lane(y, config, params, (level, trend), &mut seasonal);
    ets_batch(std::slice::from_mut(&mut lane));
    let state = lane.result();
    Some(Recursion {
        sse: state.sse?,
        level: state.level,
        trend: state.trend,
        seasonal,
    })
}

/// The kernel lane running `config`'s recursion at `(α, β, γ, φ)` from
/// `(level, trend)` and the seasonal states in `seasonal`, which it updates
/// in place. Every recursion — an objective evaluation, batched or alone,
/// and the final pass at the optimum — runs such a lane through
/// [`ets_batch`].
fn ets_lane<'a>(
    y: &'a [f64],
    config: &EtsConfig,
    (alpha, beta, gamma, phi): (f64, f64, f64, f64),
    (level, trend): (f64, f64),
    seasonal: &'a mut [f64],
) -> holt_winters::EtsLane<'a> {
    holt_winters::EtsLane {
        y,
        class: match config.seasonal {
            SeasonalKind::None => holt_winters::SeasonalClass::None,
            SeasonalKind::Additive(_) => holt_winters::SeasonalClass::Additive,
            SeasonalKind::Multiplicative(_) => holt_winters::SeasonalClass::Multiplicative,
        },
        alpha,
        beta,
        gamma,
        phi,
        has_trend: config.trend != TrendKind::None,
        level,
        trend,
        seasonal,
        sse: 0.0,
        alive: true,
    }
}

/// Unpack an unconstrained optimiser point into `(α, β, γ, φ)` under
/// `config`'s layout — α, β, γ bounded in (0.0001, 0.9999) and φ in
/// (0.8, 0.98) through the logistic map.
fn unpack_params(u: &[f64], config: &EtsConfig) -> (f64, f64, f64, f64) {
    let logistic = |u: f64| 1.0 / (1.0 + (-u).exp());
    let mut i = 0;
    let alpha = 0.0001 + 0.9998 * logistic(u[i]);
    i += 1;
    let beta = if config.trend != TrendKind::None {
        let b = 0.0001 + 0.9998 * logistic(u[i]);
        i += 1;
        b
    } else {
        0.0
    };
    let phi = if config.trend == TrendKind::Damped {
        let p = 0.8 + 0.18 * logistic(u[i]);
        i += 1;
        p
    } else {
        1.0
    };
    let gamma = if config.seasonal.period() > 0 {
        0.0001 + 0.9998 * logistic(u[i])
    } else {
        0.0
    };
    (alpha, beta, gamma, phi)
}

/// Classical state initialisation: first-period mean level, cross-period
/// slope, detrended seasonal indices.
fn initial_states(y: &[f64], config: &EtsConfig) -> Option<(f64, f64, Vec<f64>)> {
    let m = config.seasonal.period();
    if m > 0 {
        if y.len() < 2 * m {
            return None;
        }
        let first: f64 = y[..m].iter().sum::<f64>() / m as f64;
        let second: f64 = y[m..2 * m].iter().sum::<f64>() / m as f64;
        let trend = if config.trend == TrendKind::None {
            0.0
        } else {
            (second - first) / m as f64
        };
        let seasonal: Vec<f64> = match config.seasonal {
            SeasonalKind::Additive(_) => (0..m).map(|i| y[i] - first).collect(),
            SeasonalKind::Multiplicative(_) => {
                if first.abs() < 1e-12 {
                    return None;
                }
                (0..m).map(|i| y[i] / first).collect()
            }
            // `m > 0` excludes `SeasonalKind::None`; an empty buffer is the
            // harmless (and panic-free) value for the impossible arm.
            SeasonalKind::None => vec![],
        };
        Some((first, trend, seasonal))
    } else {
        if y.len() < 2 {
            return None;
        }
        let trend = if config.trend == TrendKind::None {
            0.0
        } else {
            y[1] - y[0]
        };
        Some((y[0], trend, vec![]))
    }
}

impl FittedEts {
    /// Fit by minimising the one-step SSE over the smoothing parameters.
    pub fn fit(y: &[f64], config: EtsConfig) -> Result<FittedEts> {
        Self::fit_with(y, config, &EtsFitOptions::default())
    }

    /// Fit with warm-start / freeze control (the evaluation-engine entry).
    pub fn fit_with(y: &[f64], config: EtsConfig, options: &EtsFitOptions) -> Result<FittedEts> {
        EtsFitSession::new(y, config, options)?.finish()
    }

    /// Forecast `horizon` steps with approximate normal intervals
    /// (Hyndman's class-1 variance formulas; the multiplicative-seasonal
    /// case reuses the additive formula as an approximation).
    pub fn forecast(&self, horizon: usize) -> Forecast {
        let m = self.config.seasonal.period();
        let mut mean = Vec::with_capacity(horizon);
        let mut damp_sum = 0.0;
        for h in 1..=horizon {
            damp_sum += self.phi.powi(h as i32);
            let base = self.level
                + if self.config.trend == TrendKind::None {
                    0.0
                } else {
                    damp_sum * self.trend
                };
            let v = match self.config.seasonal {
                SeasonalKind::None => base,
                SeasonalKind::Additive(_) => base + self.seasonal[(h - 1) % m],
                SeasonalKind::Multiplicative(_) => base * self.seasonal[(h - 1) % m],
            };
            mean.push(v);
        }
        // Variance accumulation: c_j = α + β·(φ + … + φʲ) + γ·1{j ≡ 0 (mod m)}.
        let mut std_error = Vec::with_capacity(horizon);
        let mut var_acc = 1.0;
        for h in 1..=horizon {
            std_error.push((self.sigma2 * var_acc).sqrt());
            // Prepare accumulation for the next step.
            let j = h;
            let mut damp = 0.0;
            for i in 1..=j {
                damp += self.phi.powi(i as i32);
            }
            let mut c = self.alpha;
            if self.config.trend != TrendKind::None {
                c += self.beta * damp;
            }
            if m > 0 && j % m == 0 {
                c += self.gamma;
            }
            var_acc += c * c;
        }
        Forecast::with_normal_intervals(mean, std_error, self.config.interval_level)
    }
}

/// The recursion leaves `seasonal[i]` holding the factor for phase
/// `i mod m`; reorder so index 0 is the phase of the first forecast step.
fn reorder_seasonal(seasonal: Vec<f64>, n: usize, m: usize) -> Vec<f64> {
    if m == 0 {
        return seasonal;
    }
    (0..m).map(|h| seasonal[(n + h) % m]).collect()
}

/// A poll-driven ETS fit: the [`FittedEts::fit_with`] optimisation split
/// into explicit steps so a batched caller can interleave the objective
/// evaluations of several candidates through one
/// [`dwcp_math::kernels::ets_batch`] kernel pass per optimiser round.
///
/// Driving a session to completion with [`finish`](EtsFitSession::finish)
/// alone reproduces the batched fit bit-for-bit: the Nelder-Mead driver
/// emits the same point sequence as the closure API, and
/// [`ets_batch`] scores a lane alike whether it runs alone or beside
/// others. The session also hoists the parameter-independent
/// `initial_states` heuristic out of the optimiser loop — the sequential
/// path recomputed it for each of the several hundred objective
/// evaluations.
pub struct EtsFitSession {
    config: EtsConfig,
    y: Vec<f64>,
    /// Hoisted `initial_states` result; `None` means every objective
    /// evaluation is `INFINITY` (the driver is pre-drained in `new`).
    init: Option<(f64, f64, Vec<f64>)>,
    /// Per-session pooled seasonal window the recursion mutates; refilled
    /// from `init` before every evaluation.
    seasonal_scratch: Vec<f64>,
    /// `(α, β, γ, φ)` unpacked by [`stage_pending`](EtsFitSession::stage_pending).
    staged: (f64, f64, f64, f64),
    driver: Option<NelderMeadDriver>,
    /// Decided without optimisation (frozen warm start): `(params, evals)`.
    outcome: Option<(Vec<f64>, usize)>,
}

impl EtsFitSession {
    /// Validate the series and open a session. Mirrors the
    /// [`FittedEts::fit_with`] preamble exactly, including the frozen
    /// warm-start short-circuit and the fall-through to a full
    /// optimisation when a freeze is requested without a usable seed.
    pub fn new(y: &[f64], config: EtsConfig, options: &EtsFitOptions) -> Result<EtsFitSession> {
        let m = config.seasonal.period();
        let needed = if m > 0 { 2 * m + 4 } else { 6 };
        if y.len() < needed {
            return Err(ModelError::TooShort {
                needed,
                got: y.len(),
            });
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::Series(dwcp_series::SeriesError::NonFinite));
        }
        if matches!(config.seasonal, SeasonalKind::Multiplicative(_)) && y.iter().any(|&v| v <= 0.0)
        {
            return Err(ModelError::InvalidSpec {
                context: "multiplicative seasonality requires positive data".to_string(),
            });
        }

        let k = config.n_params();
        let warm = options
            .warm_start
            .as_ref()
            .filter(|w| w.len() == k)
            .cloned();
        let (driver, outcome) = match warm {
            // Champion-seeded frozen re-score: one recursion, verbatim.
            Some(w) if options.freeze_warm_start => (None, Some((w, 1))),
            warm => {
                let start = warm.unwrap_or_else(|| vec![0.0; k]); // logistic(0) = 0.5
                let driver = NelderMeadDriver::new(
                    &start,
                    NelderMeadOptions {
                        max_evals: 400 + 150 * k,
                        restarts: 2,
                        initial_step: 1.0,
                        ..Default::default()
                    },
                );
                (Some(driver), None)
            }
        };
        let init = initial_states(y, &config);
        let mut session = EtsFitSession {
            config,
            y: y.to_vec(),
            seasonal_scratch: Vec::with_capacity(m),
            init,
            staged: (0.0, 0.0, 0.0, 1.0),
            driver,
            outcome,
        };
        if session.init.is_none() {
            // Without initial states every evaluation is INFINITY; drain
            // the driver up front (same evaluation count and sequence as
            // the closure objective returning INFINITY throughout) so the
            // batched caller never stages a lane with no states.
            if let Some(driver) = session.driver.as_mut() {
                while driver.pending_point().is_some() {
                    driver.tell(f64::INFINITY);
                }
            }
        }
        Ok(session)
    }

    /// Whether the optimiser still needs an objective evaluation.
    pub fn is_pending(&self) -> bool {
        self.driver.as_ref().is_some_and(|d| !d.is_done())
    }

    /// Evaluate the pending point through a one-lane [`ets_batch`] pass
    /// and feed it back; returns `false` when nothing was pending. Driving
    /// a session with `while session.step_solo() {}` reproduces the batched
    /// fit exactly.
    pub fn step_solo(&mut self) -> bool {
        if !self.stage_pending() {
            return false;
        }
        let sse = self.staged_lane().and_then(|mut lane| {
            ets_batch(std::slice::from_mut(&mut lane));
            lane.result().sse
        });
        self.tell_sse(sse.unwrap_or(f64::INFINITY));
        true
    }

    /// Unpack the pending point into smoothing parameters for a batched
    /// kernel pass; the caller scores the staged lane (typically several
    /// sessions' lanes in one [`dwcp_math::kernels::ets_batch`] call) and
    /// answers with [`tell_sse`](EtsFitSession::tell_sse). Returns `false`
    /// when no evaluation is pending.
    pub fn stage_pending(&mut self) -> bool {
        let Some(driver) = self.driver.as_ref() else {
            return false;
        };
        let Some(u) = driver.pending_point() else {
            return false;
        };
        self.staged = unpack_params(u, &self.config);
        true
    }

    /// Build the kernel lane for the staged point over this session's
    /// pooled state window. Always `Some` after a successful
    /// [`stage_pending`](EtsFitSession::stage_pending) — sessions without
    /// initial states are drained at construction and never stage.
    pub fn staged_lane(&mut self) -> Option<holt_winters::EtsLane<'_>> {
        let (level, trend, seasonal) = self.init.as_ref()?;
        self.seasonal_scratch.clear();
        self.seasonal_scratch.extend_from_slice(seasonal);
        Some(ets_lane(
            &self.y,
            &self.config,
            self.staged,
            (*level, *trend),
            &mut self.seasonal_scratch,
        ))
    }

    /// Feed back the SSE of the staged point and advance the optimiser.
    pub fn tell_sse(&mut self, sse: f64) {
        if let Some(driver) = self.driver.as_mut() {
            driver.tell(sse);
        }
    }

    /// Finalise the fit. Any evaluations still pending are driven through
    /// one-lane kernel passes first, so `finish` is always well-defined.
    pub fn finish(mut self) -> Result<FittedEts> {
        while self.step_solo() {}
        let EtsFitSession {
            config,
            y,
            driver,
            outcome,
            ..
        } = self;
        let (params_unconstrained, nm_evals) = match outcome {
            Some(decided) => decided,
            None => {
                let nm = match driver {
                    Some(driver) => driver.into_result(),
                    None => {
                        return Err(ModelError::FitFailed {
                            context: format!(
                                "ETS fit session for {} lost its optimiser state",
                                config.name()
                            ),
                        })
                    }
                };
                (nm.x, nm.evals)
            }
        };
        let m = config.seasonal.period();
        let k = config.n_params();
        let (alpha, beta, gamma, phi) = unpack_params(&params_unconstrained, &config);
        let rec = run_recursion(&y, &config, (alpha, beta, gamma, phi)).ok_or_else(|| {
            ModelError::FitFailed {
                context: "ETS recursion diverged at the optimum".to_string(),
            }
        })?;
        let n = y.len() as f64;
        let sigma2 = rec.sse / (n - k as f64).max(1.0);
        let aic = n * (rec.sse / n).max(1e-300).ln() + 2.0 * (k as f64 + 1.0);
        Ok(FittedEts {
            config,
            alpha,
            beta,
            gamma,
            phi,
            level: rec.level,
            trend: rec.trend,
            seasonal: reorder_seasonal(rec.seasonal, y.len(), m),
            sse: rec.sse,
            sigma2,
            n_obs: y.len(),
            aic,
            params_unconstrained,
            nm_evals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    #[test]
    fn ses_forecast_is_flat() {
        let y: Vec<f64> = noise(100, 1).iter().map(|v| 50.0 + v).collect();
        let fit = FittedEts::fit(&y, EtsConfig::ses()).unwrap();
        let f = fit.forecast(5);
        for h in 1..5 {
            assert!((f.mean[h] - f.mean[0]).abs() < 1e-12);
        }
        assert!((f.mean[0] - 50.0).abs() < 2.0);
    }

    #[test]
    fn holt_tracks_linear_trend() {
        let y: Vec<f64> = (0..120)
            .map(|t| 10.0 + 1.5 * t as f64 + noise(120, 3)[t] * 0.2)
            .collect();
        let fit = FittedEts::fit(&y, EtsConfig::holt()).unwrap();
        let f = fit.forecast(10);
        for (h, &v) in f.mean.iter().enumerate() {
            let expected = 10.0 + 1.5 * (120 + h) as f64;
            assert!((v - expected).abs() < 3.0, "h = {h}: {v} vs {expected}");
        }
    }

    #[test]
    fn damped_holt_flattens_eventually() {
        let y: Vec<f64> = (0..100).map(|t| 2.0 * t as f64).collect();
        let fit = FittedEts::fit(&y, EtsModel::HoltDamped.config(0)).unwrap();
        let f = fit.forecast(200);
        let early_slope = f.mean[1] - f.mean[0];
        let late_slope = f.mean[199] - f.mean[198];
        assert!(late_slope < early_slope, "{late_slope} vs {early_slope}");
    }

    #[test]
    fn holt_winters_additive_reproduces_seasonal_pattern() {
        let pattern = [0.0, 5.0, 10.0, 5.0, 0.0, -5.0, -10.0, -5.0];
        let y: Vec<f64> = (0..160)
            .map(|t| 100.0 + pattern[t % 8] + noise(160, 5)[t] * 0.2)
            .collect();
        let fit = FittedEts::fit(&y, EtsConfig::holt_winters(8)).unwrap();
        let f = fit.forecast(8);
        for h in 0..8 {
            let expected = 100.0 + pattern[(160 + h) % 8];
            assert!(
                (f.mean[h] - expected).abs() < 2.0,
                "h = {h}: {} vs {expected}",
                f.mean[h]
            );
        }
    }

    #[test]
    fn holt_winters_with_trend_and_season() {
        let pattern = [10.0, -10.0, 5.0, -5.0];
        let y: Vec<f64> = (0..120)
            .map(|t| 50.0 + 0.5 * t as f64 + pattern[t % 4])
            .collect();
        let fit = FittedEts::fit(&y, EtsConfig::holt_winters(4)).unwrap();
        let f = fit.forecast(8);
        for h in 0..8 {
            let expected = 50.0 + 0.5 * (120 + h) as f64 + pattern[(120 + h) % 4];
            assert!(
                (f.mean[h] - expected).abs() < 2.5,
                "h = {h}: {} vs {expected}",
                f.mean[h]
            );
        }
    }

    #[test]
    fn multiplicative_seasonality_scales_with_level() {
        let factors = [1.2, 0.8, 1.1, 0.9];
        let y: Vec<f64> = (0..160)
            .map(|t| (100.0 + t as f64) * factors[t % 4])
            .collect();
        let fit = FittedEts::fit(&y, EtsConfig::holt_winters_multiplicative(4)).unwrap();
        let f = fit.forecast(4);
        for h in 0..4 {
            let expected = (100.0 + (160 + h) as f64) * factors[(160 + h) % 4];
            let rel = (f.mean[h] - expected).abs() / expected;
            assert!(rel < 0.05, "h = {h}: {} vs {expected}", f.mean[h]);
        }
    }

    #[test]
    fn multiplicative_rejects_nonpositive_data() {
        let y: Vec<f64> = (0..50).map(|t| t as f64 - 10.0).collect();
        assert!(FittedEts::fit(&y, EtsConfig::holt_winters_multiplicative(5)).is_err());
    }

    #[test]
    fn intervals_widen_with_horizon() {
        let y: Vec<f64> = noise(100, 7).iter().map(|v| 20.0 + v).collect();
        let fit = FittedEts::fit(&y, EtsConfig::ses()).unwrap();
        let f = fit.forecast(10);
        for h in 1..10 {
            assert!(f.std_error[h] >= f.std_error[h - 1]);
        }
    }

    #[test]
    fn smoothing_params_stay_in_bounds() {
        let y: Vec<f64> = (0..80)
            .map(|t| (t as f64 * 0.3).sin() * 5.0 + 50.0)
            .collect();
        let fit = FittedEts::fit(&y, EtsConfig::holt()).unwrap();
        assert!(fit.alpha > 0.0 && fit.alpha < 1.0);
        assert!(fit.beta >= 0.0 && fit.beta < 1.0);
        assert_eq!(fit.phi, 1.0);
    }

    #[test]
    fn too_short_series_rejected() {
        assert!(FittedEts::fit(&[1.0, 2.0, 3.0], EtsConfig::ses()).is_err());
        assert!(FittedEts::fit(&[1.0; 10], EtsConfig::holt_winters(8)).is_err());
    }

    #[test]
    fn names_are_informative() {
        assert_eq!(EtsConfig::ses().name(), "SES");
        assert_eq!(EtsConfig::holt().name(), "Holt");
        assert!(EtsConfig::holt_winters(24).name().contains("m=24"));
    }

    #[test]
    fn batched_session_matches_fit_with_bitwise() {
        let pattern = [0.0, 5.0, 10.0, 5.0, 0.0, -5.0, -10.0, -5.0];
        let y: Vec<f64> = (0..160)
            .map(|t| 100.0 + pattern[t % 8] + noise(160, 5)[t] * 0.2)
            .collect();
        let configs = [
            EtsConfig::ses(),
            EtsConfig::holt(),
            EtsModel::HoltDamped.config(0),
            EtsConfig::holt_winters(8),
            EtsConfig::holt_winters_multiplicative(8),
        ];
        let opts = EtsFitOptions::default();
        // Open one session per candidate and pump them in lockstep rounds
        // through the batched kernel, the way the evaluation queue does.
        let mut sessions: Vec<EtsFitSession> = configs
            .iter()
            .map(|c| EtsFitSession::new(&y, *c, &opts).unwrap())
            .collect();
        loop {
            let staged: Vec<usize> = (0..sessions.len())
                .filter(|&i| sessions[i].stage_pending())
                .collect();
            if staged.is_empty() {
                break;
            }
            // Borrow every staged session's lane simultaneously (iter_mut
            // yields disjoint &mut elements) and score them in one batch.
            let mut lanes: Vec<holt_winters::EtsLane<'_>> = sessions
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| staged.contains(i))
                .filter_map(|(_, s)| s.staged_lane())
                .collect();
            assert_eq!(lanes.len(), staged.len());
            dwcp_math::kernels::ets_batch(&mut lanes);
            let sses: Vec<f64> = lanes
                .iter()
                .map(|l| l.result().sse.unwrap_or(f64::INFINITY))
                .collect();
            drop(lanes);
            for (&i, sse) in staged.iter().zip(sses) {
                sessions[i].tell_sse(sse);
            }
        }
        for (config, session) in configs.iter().zip(sessions) {
            let batched = session.finish().unwrap();
            let solo = FittedEts::fit_with(&y, *config, &opts).unwrap();
            assert_eq!(
                batched.sse.to_bits(),
                solo.sse.to_bits(),
                "{}",
                config.name()
            );
            assert_eq!(batched.alpha.to_bits(), solo.alpha.to_bits());
            assert_eq!(batched.level.to_bits(), solo.level.to_bits());
            assert_eq!(batched.trend.to_bits(), solo.trend.to_bits());
            assert_eq!(batched.nm_evals, solo.nm_evals);
            assert_eq!(batched.seasonal.len(), solo.seasonal.len());
            for (a, b) in batched.seasonal.iter().zip(&solo.seasonal) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn param_counts() {
        assert_eq!(EtsConfig::ses().n_params(), 1);
        assert_eq!(EtsConfig::holt().n_params(), 2);
        assert_eq!(EtsModel::HoltDamped.config(0).n_params(), 3);
        assert_eq!(EtsConfig::holt_winters(24).n_params(), 3);
    }
}
