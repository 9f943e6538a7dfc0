//! TBATS — Trigonometric seasonality, Box-Cox transform, ARMA errors,
//! Trend and Seasonal components (paper §4.3, equations 7–14; De Livera,
//! Hyndman & Snyder 2011).
//!
//! The innovations state space implemented here follows the paper's
//! equations exactly:
//!
//! ```text
//! y_t(λ) = l_{t−1} + Φ·b_{t−1} + Σᵢ s_{t−1}^(i) + d̂_t + e_t
//! l_t   = l_{t−1} + Φ·b_{t−1} + α·d_t
//! b_t   = Φ·b_{t−1} + β·d_t
//! d_t   = Σ φᵢ d_{t−i} + Σ θⱼ e_{t−j} + e_t        (ARMA residual process)
//! s_{j,t}  =  s_{j,t−1}·cos λⱼ + s*_{j,t−1}·sin λⱼ + γ₁·d_t
//! s*_{j,t} = −s_{j,t−1}·sin λⱼ + s*_{j,t−1}·cos λⱼ + γ₂·d_t
//! ```
//!
//! The configuration lattice the paper lists — with/without Box-Cox,
//! trend, damping and ARMA(p,q) errors, and varying harmonic counts — is
//! `ModelGrid::tbats` in `dwcp-core`, searched like every other grid.

// lint: allow-file(indexing) — state-space filter numerics; every index is
// bounded by construction: optimiser-vector reads follow the layout
// `n_params()` sized them to, seasonal phase sums use `t % m` into
// length-`m` buffers, history front-writes are guarded by the matching
// `is_empty` check, and the `needed` length validation at the fit boundary
// guarantees the initial-state windows exist.

use crate::arima::transform::{unconstrained_to_ar, unconstrained_to_ma};
use crate::{Forecast, ModelError, Result};
use dwcp_math::kernels::{tbats_filter, trig_seasonal};
use dwcp_math::optimize::{NelderMeadDriver, NelderMeadOptions};
use dwcp_series::boxcox::{boxcox, inv_boxcox, shift_to_positive};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-block seasonal rotation tables `(cos λⱼ, sin λⱼ)` — one inner
/// `Vec` per seasonal block, one entry per harmonic. Pure function of
/// `{seasonal_periods, harmonics}`, so the evaluation engine shares one
/// table set (behind an [`Arc`]) across every candidate with the same
/// seasonal signature.
pub type RotationTables = Vec<Vec<(f64, f64)>>;

/// One seasonal block of a TBATS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TbatsSeason {
    /// Period length (may be non-integer).
    pub period: f64,
    /// Number of harmonics `kᵢ`.
    pub harmonics: usize,
}

/// A TBATS model configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TbatsConfig {
    /// Box-Cox λ: `None` disables the transform, `Some(λ)` fixes it.
    pub lambda: Option<f64>,
    /// Include a trend state.
    pub use_trend: bool,
    /// Damp the trend (implies `use_trend`).
    pub use_damping: bool,
    /// ARMA error orders (p, q); (0, 0) disables the error model.
    pub arma: (usize, usize),
    /// Seasonal blocks.
    pub seasons: Vec<TbatsSeason>,
    /// Two-sided confidence level for forecast intervals.
    pub interval_level: f64,
}

impl TbatsConfig {
    /// A minimal config: level only.
    pub fn level_only() -> TbatsConfig {
        TbatsConfig {
            lambda: None,
            use_trend: false,
            use_damping: false,
            arma: (0, 0),
            seasons: vec![],
            interval_level: 0.95,
        }
    }

    /// Config with one seasonal block and trend.
    pub fn seasonal(period: f64, harmonics: usize) -> TbatsConfig {
        TbatsConfig {
            lambda: None,
            use_trend: true,
            use_damping: false,
            arma: (0, 0),
            seasons: vec![TbatsSeason { period, harmonics }],
            interval_level: 0.95,
        }
    }

    /// Number of optimised parameters.
    pub fn n_params(&self) -> usize {
        let mut k = 1; // alpha
        if self.use_trend {
            k += 1; // beta
        }
        if self.use_damping {
            k += 1; // phi
        }
        k += 2 * self.seasons.len(); // gamma1, gamma2 per season
        k += self.arma.0 + self.arma.1;
        k
    }

    /// Short descriptor, e.g. `TBATS(λ=0.00, trend, damped, ARMA(1,1), {24:3})`.
    pub fn describe(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        match self.lambda {
            Some(l) => parts.push(format!("λ={l:.2}")),
            None => parts.push("no-boxcox".to_string()),
        }
        if self.use_trend {
            parts.push(if self.use_damping {
                "damped-trend".to_string()
            } else {
                "trend".to_string()
            });
        }
        if self.arma != (0, 0) {
            parts.push(format!("ARMA({},{})", self.arma.0, self.arma.1));
        }
        if !self.seasons.is_empty() {
            let s: Vec<String> = self
                .seasons
                .iter()
                .map(|s| format!("{}:{}", s.period, s.harmonics))
                .collect();
            parts.push(format!("{{{}}}", s.join(",")));
        }
        format!("TBATS({})", parts.join(", "))
    }
}

/// The mutable state vector during filtering/forecasting.
#[derive(Debug, Clone)]
struct TbatsState {
    level: f64,
    trend: f64,
    /// Per season: interleaved `[s₁, s*₁, s₂, s*₂, …]`.
    seasonal: Vec<Vec<f64>>,
    /// Recent `d` values, newest first (for the AR part).
    d_hist: Vec<f64>,
    /// Recent `e` values, newest first (for the MA part).
    e_hist: Vec<f64>,
}

/// The parameters after unpacking from the optimiser vector.
#[derive(Debug, Clone)]
struct TbatsParams {
    alpha: f64,
    beta: f64,
    phi: f64,
    gammas: Vec<(f64, f64)>,
    ar: Vec<f64>,
    ma: Vec<f64>,
}

/// Options controlling the TBATS optimiser: warm-start seeding and the
/// frozen re-score used by champion-seeded relearning.
#[derive(Debug, Clone, Default)]
pub struct TbatsFitOptions {
    /// Unconstrained Nelder-Mead parameters from a previous fit (layout
    /// `[α, β?, Φ?, (γ₁,γ₂)×seasons, ar…, ma…]`) seeding the simplex.
    pub warm_start: Option<Vec<f64>>,
    /// Run the filter at `warm_start` verbatim without optimising —
    /// reproduces a stored champion's fit bit-exactly in one evaluation.
    pub freeze_warm_start: bool,
}

/// Map a previous fit's unconstrained parameters onto another TBATS
/// config's layout: shared components carry over positionally (α always;
/// β/Φ when both configs have them; seasonal γ pairs and AR/MA
/// coefficients up to the shorter of the two lists), new components start
/// at the logistic midpoint (0.0).
pub fn adapt_tbats_unconstrained(
    prev: &[f64],
    prev_config: &TbatsConfig,
    next_config: &TbatsConfig,
) -> Vec<f64> {
    let segments = |c: &TbatsConfig| -> Vec<(usize, usize)> {
        // (offset, len) for: alpha, beta, phi, gammas, ar, ma.
        let mut offs = Vec::with_capacity(6);
        let mut i = 0;
        for len in [
            1,
            usize::from(c.use_trend),
            usize::from(c.use_damping),
            2 * c.seasons.len(),
            c.arma.0,
            c.arma.1,
        ] {
            offs.push((i, len));
            i += len;
        }
        offs
    };
    let prev_seg = segments(prev_config);
    let next_seg = segments(next_config);
    let mut out = vec![0.0; next_config.n_params()];
    for ((po, pl), (no, nl)) in prev_seg.into_iter().zip(next_seg) {
        for j in 0..pl.min(nl) {
            if po + j < prev.len() {
                out[no + j] = prev[po + j];
            }
        }
    }
    out
}

/// A fitted TBATS model.
#[derive(Debug, Clone)]
pub struct FittedTbats {
    /// Configuration fitted.
    pub config: TbatsConfig,
    /// Level smoothing α.
    pub alpha: f64,
    /// Trend smoothing β.
    pub beta: f64,
    /// Trend damping Φ (1 when undamped).
    pub phi: f64,
    /// Seasonal smoothing pairs (γ₁, γ₂), one per season.
    pub gammas: Vec<(f64, f64)>,
    /// ARMA error AR coefficients.
    pub ar: Vec<f64>,
    /// ARMA error MA coefficients.
    pub ma: Vec<f64>,
    /// Innovation variance on the (Box-Cox) modelling scale.
    pub sigma2: f64,
    /// AIC on the modelling scale.
    pub aic: f64,
    /// Training length.
    pub n_obs: usize,
    /// Converged unconstrained optimiser parameters (warm-start seed for a
    /// subsequent fit).
    pub params_unconstrained: Vec<f64>,
    /// Objective evaluations spent by the optimiser (1 for a frozen fit).
    pub nm_evals: usize,
    state: TbatsState,
    /// Positivity shift applied before Box-Cox (0 when unused).
    shift: f64,
}

impl FittedTbats {
    /// Fit `config` to `y`.
    pub fn fit(y: &[f64], config: TbatsConfig) -> Result<FittedTbats> {
        Self::fit_with(y, config, &TbatsFitOptions::default())
    }

    /// Fit with warm-start / freeze control (the evaluation-engine entry).
    pub fn fit_with(
        y: &[f64],
        config: TbatsConfig,
        options: &TbatsFitOptions,
    ) -> Result<FittedTbats> {
        TbatsFitSession::new(y, config, options, None)?.finish()
    }

    /// Forecast `horizon` steps with normal intervals computed from the
    /// model's impulse-response weights, mapped back through the inverse
    /// Box-Cox transform.
    pub fn forecast(&self, horizon: usize) -> Forecast {
        let params = TbatsParams {
            alpha: self.alpha,
            beta: self.beta,
            phi: self.phi,
            gammas: self.gammas.clone(),
            ar: self.ar.clone(),
            ma: self.ma.clone(),
        };
        // Point forecasts: propagate with future e = 0.
        let tables = rotation_tables(&self.config);
        let mut state = self.state.clone();
        let mut mean_z = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let (yhat, d_hat) = predict_one(&self.config, &params, &state);
            mean_z.push(yhat);
            advance(&self.config, &params, &tables, &mut state, d_hat, 0.0);
        }

        // Impulse response of a unit innovation: difference of two runs is
        // equivalent to running the homogeneous system from the impulse.
        let mut imp_state = zero_state(&self.config, &params);
        // e = 1 at step 0.
        advance(&self.config, &params, &tables, &mut imp_state, 1.0, 1.0);
        let mut c = Vec::with_capacity(horizon);
        c.push(1.0); // contemporaneous effect on y
        let mut state_i = imp_state;
        for _ in 1..horizon {
            let (yimp, d_hat) = predict_one(&self.config, &params, &state_i);
            c.push(yimp);
            advance(&self.config, &params, &tables, &mut state_i, d_hat, 0.0);
        }
        let mut acc = 0.0;
        let std_error_z: Vec<f64> = c
            .iter()
            .map(|&w| {
                acc += w * w;
                (self.sigma2 * acc).sqrt()
            })
            .collect();

        let z_forecast =
            Forecast::with_normal_intervals(mean_z, std_error_z, self.config.interval_level);
        match self.config.lambda {
            None => z_forecast,
            Some(l) => {
                let mean = inv_boxcox(&z_forecast.mean, l)
                    .iter()
                    .map(|v| v - self.shift)
                    .collect();
                let lower = inv_boxcox(&z_forecast.lower, l)
                    .iter()
                    .map(|v| v - self.shift)
                    .collect();
                let upper = inv_boxcox(&z_forecast.upper, l)
                    .iter()
                    .map(|v| v - self.shift)
                    .collect();
                Forecast {
                    mean,
                    lower,
                    upper,
                    std_error: z_forecast.std_error,
                    level: z_forecast.level,
                }
            }
        }
    }
}

/// Zeroed state with correctly sized seasonal/ARMA histories.
fn zero_state(config: &TbatsConfig, params: &TbatsParams) -> TbatsState {
    TbatsState {
        level: 0.0,
        trend: 0.0,
        seasonal: config
            .seasons
            .iter()
            .map(|s| vec![0.0; 2 * s.harmonics])
            .collect(),
        d_hist: vec![0.0; params.ar.len()],
        e_hist: vec![0.0; params.ma.len()],
    }
}

/// Heuristic initial state: level from the head of the series, trend from a
/// cross-window slope, seasonal harmonics from a DFT of the phase-averaged
/// detrended pattern.
fn initial_state(z: &[f64], config: &TbatsConfig) -> TbatsState {
    let n = z.len();
    let window = config
        .seasons
        .iter()
        .map(|s| s.period.ceil() as usize)
        .max()
        .unwrap_or(8)
        .min(n / 2)
        .max(2);
    let level = z[..window].iter().sum::<f64>() / window as f64;
    let second =
        z[window..(2 * window).min(n)].iter().sum::<f64>() / window.min(n - window).max(1) as f64;
    let trend = if config.use_trend {
        (second - level) / window as f64
    } else {
        0.0
    };

    // Global linear detrend for seasonal extraction.
    let mean_t = (n as f64 - 1.0) / 2.0;
    let mean_y = z.iter().sum::<f64>() / n as f64;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (t, &v) in z.iter().enumerate() {
        let dt = t as f64 - mean_t;
        sxy += dt * (v - mean_y);
        sxx += dt * dt;
    }
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let detrended: Vec<f64> = z
        .iter()
        .enumerate()
        .map(|(t, &v)| v - mean_y - slope * (t as f64 - mean_t))
        .collect();

    let mut seasonal = Vec::with_capacity(config.seasons.len());
    for s in &config.seasons {
        let m = s.period.round() as usize;
        let mut sums = vec![0.0; m];
        let mut counts = vec![0usize; m];
        for (t, &v) in detrended.iter().enumerate() {
            sums[t % m] += v;
            counts[t % m] += 1;
        }
        let pattern: Vec<f64> = sums
            .iter()
            .zip(&counts)
            .map(|(&a, &c)| if c == 0 { 0.0 } else { a / c as f64 })
            .collect();
        // DFT coefficients of the pattern for each harmonic; states rotated
        // one step forward so that `s_{t−1}` predicts phase `t`.
        let mut states = Vec::with_capacity(2 * s.harmonics);
        for j in 1..=s.harmonics {
            let lambda_j = 2.0 * std::f64::consts::PI * j as f64 / s.period;
            let mut a = 0.0;
            let mut b = 0.0;
            for (phase, &v) in pattern.iter().enumerate() {
                let ang = lambda_j * phase as f64;
                a += v * ang.cos();
                b += v * ang.sin();
            }
            a *= 2.0 / m as f64;
            b *= 2.0 / m as f64;
            // Forward-rotate by one step: prediction of y_0 uses s_{−1}.
            let s0 = a * lambda_j.cos() + b * lambda_j.sin();
            let s0_star = -a * lambda_j.sin() + b * lambda_j.cos();
            states.push(s0);
            states.push(s0_star);
        }
        seasonal.push(states);
    }

    TbatsState {
        level,
        trend,
        seasonal,
        d_hist: vec![],
        e_hist: vec![],
    }
}

/// One-step prediction from the current state: returns `(ŷ_t, d̂_t)`.
fn predict_one(config: &TbatsConfig, params: &TbatsParams, state: &TbatsState) -> (f64, f64) {
    let mut yhat = state.level;
    if config.use_trend {
        yhat += params.phi * state.trend;
    }
    for block in &state.seasonal {
        // s^(i)_{t−1} = Σⱼ s_{j,t−1} (the even-indexed states).
        for j in 0..block.len() / 2 {
            yhat += block[2 * j];
        }
    }
    let mut d_hat = 0.0;
    for (i, &p) in params.ar.iter().enumerate() {
        if i < state.d_hist.len() {
            d_hat += p * state.d_hist[i];
        }
    }
    for (j, &t) in params.ma.iter().enumerate() {
        if j < state.e_hist.len() {
            d_hat += t * state.e_hist[j];
        }
    }
    (yhat + d_hat, d_hat)
}

/// Precompute the per-block seasonal rotation tables `(cos λⱼ, sin λⱼ)`.
/// The angles depend only on the configuration, so one table serves an
/// entire filter or forecast pass — the original `advance` re-evaluated
/// `cos`/`sin` per harmonic *per observation*, which profiling showed was
/// the dominant cost of the TBATS objective. Public so the evaluation
/// queue can build one shared table per `{seasonal_periods, harmonics}`
/// signature and thread it into every [`TbatsFitSession`] that matches.
pub fn rotation_tables(config: &TbatsConfig) -> Vec<Vec<(f64, f64)>> {
    config
        .seasons
        .iter()
        .map(|s| trig_seasonal::rotation_table(s.period, s.harmonics))
        .collect()
}

/// Advance the state given the realised `d_t = d̂_t + e_t`. `tables` must
/// come from [`rotation_tables`] for the same `config`.
fn advance(
    config: &TbatsConfig,
    params: &TbatsParams,
    tables: &[Vec<(f64, f64)>],
    state: &mut TbatsState,
    d_hat: f64,
    e: f64,
) {
    let d = d_hat + e;
    let damped = params.phi * state.trend;
    let prev_level = state.level;
    state.level = prev_level + if config.use_trend { damped } else { 0.0 } + params.alpha * d;
    if config.use_trend {
        state.trend = damped + params.beta * d;
    }
    for (block, (table, &(g1, g2))) in state
        .seasonal
        .iter_mut()
        .zip(tables.iter().zip(&params.gammas))
    {
        trig_seasonal::advance_block(block, table, g1, g2, d);
    }
    // The histories keep a fixed length (`ar.len()` / `ma.len()`) from the
    // moment the filter initialises them, so the shift-in is a rotate plus
    // a front overwrite — no element-wise insert/remove.
    if !params.ar.is_empty() {
        state.d_hist.rotate_right(1);
        state.d_hist[0] = d;
    }
    if !params.ma.is_empty() {
        state.e_hist.rotate_right(1);
        state.e_hist[0] = e;
    }
}

/// Run the filter over the training data with the rotation tables
/// supplied by the caller, returning (SSE, final state) or `None` on
/// numerical blow-up. Supplying the tables lets one table set (a pure
/// function of the config's seasonal signature) serve every pass of a fit —
/// or, behind the evaluation engine's cache, every candidate sharing the
/// signature. The filter is one lane through
/// [`tbats_filter::run_batch`], whose chunk runs the [`predict_one`] +
/// [`advance`] statements lane by lane, so results are bit-identical to
/// the historical scalar loop.
fn filter_with_tables(
    z: &[f64],
    config: &TbatsConfig,
    params: &TbatsParams,
    mut state: TbatsState,
    tables: &RotationTables,
) -> Option<(f64, TbatsState)> {
    state.d_hist = vec![0.0; params.ar.len()];
    state.e_hist = vec![0.0; params.ma.len()];
    let mut seasonal_flat: Vec<f64> = state.seasonal.iter().flatten().copied().collect();
    let mut lane = tbats_lane(
        z,
        config,
        params,
        tables,
        (state.level, state.trend),
        (&mut seasonal_flat, &mut state.d_hist, &mut state.e_hist),
    );
    tbats_filter::run_batch(std::slice::from_mut(&mut lane));
    let sse = lane.result()?;
    (state.level, state.trend) = (lane.level, lane.trend);
    let mut off = 0;
    for block in &mut state.seasonal {
        let len = block.len();
        block.copy_from_slice(&seasonal_flat[off..off + len]);
        off += len;
    }
    Some((sse, state))
}

/// The kernel lane filtering `z` under `config` and `params` from
/// `(level, trend)` and the state windows `(seasonal, d_hist, e_hist)`,
/// which it updates in place.
fn tbats_lane<'a>(
    z: &'a [f64],
    config: &TbatsConfig,
    params: &'a TbatsParams,
    tables: &'a RotationTables,
    (level, trend): (f64, f64),
    (seasonal, d_hist, e_hist): (&'a mut [f64], &'a mut [f64], &'a mut [f64]),
) -> tbats_filter::TbatsLane<'a> {
    tbats_filter::TbatsLane {
        z,
        alpha: params.alpha,
        beta: params.beta,
        phi: params.phi,
        use_trend: config.use_trend,
        gammas: &params.gammas,
        ar: &params.ar,
        ma: &params.ma,
        tables,
        level,
        trend,
        seasonal,
        d_hist,
        e_hist,
        sse: 0.0,
        alive: true,
    }
}

/// Unpack an unconstrained optimiser point into smoothing/ARMA
/// parameters under `config`'s layout `[α, β?, Φ?, (γ₁,γ₂)×seasons,
/// ar…, ma…]` — α in (0.0001, 0.9999), β in (0.0001, 0.5), Φ in
/// (0.8, 0.99), γ in (0, 0.2), AR/MA through the stationarity /
/// invertibility transforms.
fn unpack_tbats(u: &[f64], config: &TbatsConfig) -> TbatsParams {
    let logistic = |u: f64| 1.0 / (1.0 + (-u).exp());
    let mut i = 0;
    let alpha = 0.0001 + 0.9998 * logistic(u[i]);
    i += 1;
    let beta = if config.use_trend {
        let b = 0.0001 + 0.4999 * logistic(u[i]);
        i += 1;
        b
    } else {
        0.0
    };
    let phi = if config.use_damping {
        let p = 0.8 + 0.19 * logistic(u[i]);
        i += 1;
        p
    } else if config.use_trend {
        1.0
    } else {
        0.0
    };
    let mut gammas = Vec::with_capacity(config.seasons.len());
    for _ in &config.seasons {
        let g1 = 0.2 * logistic(u[i]) - 0.1 + 0.1; // (0, 0.2)
        let g2 = 0.2 * logistic(u[i + 1]);
        gammas.push((g1, g2));
        i += 2;
    }
    let ar = unconstrained_to_ar(&u[i..i + config.arma.0]);
    i += config.arma.0;
    let ma = unconstrained_to_ma(&u[i..i + config.arma.1]);
    TbatsParams {
        alpha,
        beta,
        phi,
        gammas,
        ar,
        ma,
    }
}

/// A poll-driven TBATS fit: the [`FittedTbats::fit_with`] optimisation
/// split into explicit steps so a batched caller can interleave the
/// filter passes of several candidates through one
/// [`dwcp_math::kernels::tbats_filter::run_batch`] call per optimiser
/// round.
///
/// Driving a session to completion with
/// [`finish`](TbatsFitSession::finish) alone reproduces the batched fit
/// bit-for-bit: [`tbats_filter::run_batch`] scores a lane alike whether it
/// runs alone or beside others. The session also hoists out of
/// the optimiser loop everything the closure objective recomputed per
/// evaluation: the `initial_state` heuristic, the per-harmonic
/// rotation tables (optionally shared across candidates with the same
/// seasonal signature via the `rotation` argument) and the
/// seasonal-state / ARMA-history allocations, which now live in pooled
/// per-session scratch windows.
pub struct TbatsFitSession {
    config: TbatsConfig,
    z: Vec<f64>,
    shift: f64,
    n_obs: usize,
    init: TbatsState,
    /// `init.seasonal` flattened once for cheap per-evaluation reloads.
    init_seasonal_flat: Vec<f64>,
    tables: Arc<RotationTables>,
    /// Parameters unpacked by [`stage_pending`](TbatsFitSession::stage_pending).
    staged: Option<TbatsParams>,
    seasonal_scratch: Vec<f64>,
    d_scratch: Vec<f64>,
    e_scratch: Vec<f64>,
    driver: Option<NelderMeadDriver>,
    /// Decided without optimisation (frozen warm start): `(params, evals)`.
    outcome: Option<(Vec<f64>, usize)>,
}

impl TbatsFitSession {
    /// Validate the series and open a session. Mirrors the
    /// [`FittedTbats::fit_with`] preamble exactly, including the frozen
    /// warm-start short-circuit and the fall-through to a full
    /// optimisation when a freeze is requested without a usable seed.
    /// `rotation` supplies cached rotation tables for this config's
    /// seasonal signature; `None` computes them here (once per fit —
    /// the closure objective recomputed them per evaluation). A shape
    /// outside the filter kernel's envelope is an invalid spec.
    pub fn new(
        y: &[f64],
        config: TbatsConfig,
        options: &TbatsFitOptions,
        rotation: Option<Arc<RotationTables>>,
    ) -> Result<TbatsFitSession> {
        let max_period = config
            .seasons
            .iter()
            .map(|s| s.period.ceil() as usize)
            .max()
            .unwrap_or(0);
        let needed = (2 * max_period + 8).max(12);
        if y.len() < needed {
            return Err(ModelError::TooShort {
                needed,
                got: y.len(),
            });
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::Series(dwcp_series::SeriesError::NonFinite));
        }
        for s in &config.seasons {
            if s.period < 2.0 || s.harmonics == 0 {
                return Err(ModelError::InvalidSpec {
                    context: format!(
                        "seasonal block needs period >= 2 and harmonics >= 1, got {s:?}"
                    ),
                });
            }
            if 2 * s.harmonics >= s.period.ceil() as usize {
                return Err(ModelError::InvalidSpec {
                    context: format!("harmonics {} too high for period {}", s.harmonics, s.period),
                });
            }
        }
        let harmonics = config.seasons.iter().map(|s| s.harmonics);
        if !tbats_filter::in_envelope(harmonics, config.arma.0, config.arma.1) {
            return Err(ModelError::InvalidSpec {
                context: format!(
                    "{} is outside the TBATS filter's envelope: at most {} seasonal blocks of \
                     at most {} harmonics, ARMA orders at most {}",
                    config.describe(),
                    tbats_filter::MAX_BLOCKS,
                    tbats_filter::MAX_HARMONICS,
                    tbats_filter::MAX_ARMA_ORDER
                ),
            });
        }

        // Box-Cox (with positivity shift when required).
        let (z, shift) = match config.lambda {
            Some(l) => {
                let (shifted, shift) = shift_to_positive(y, 1.0);
                (boxcox(&shifted, l)?, shift)
            }
            None => (y.to_vec(), 0.0),
        };

        let tables = rotation.unwrap_or_else(|| Arc::new(rotation_tables(&config)));
        dwcp_math::invariant!(
            tables.len() == config.seasons.len()
                && tables
                    .iter()
                    .zip(&config.seasons)
                    .all(|(t, s)| t.len() == s.harmonics),
            "rotation tables do not match the seasonal signature of {}",
            config.describe()
        );
        let k = config.n_params();
        let warm = options
            .warm_start
            .as_ref()
            .filter(|w| w.len() == k)
            .cloned();
        let (driver, outcome) = match warm {
            // Champion-seeded frozen re-score: one filter pass, verbatim.
            Some(w) if options.freeze_warm_start => (None, Some((w, 1))),
            warm => {
                let start = warm.unwrap_or_else(|| vec![0.0; k]);
                let driver = NelderMeadDriver::new(
                    &start,
                    NelderMeadOptions {
                        max_evals: 400 + 150 * k,
                        restarts: 1,
                        initial_step: 1.0,
                        ..Default::default()
                    },
                );
                (Some(driver), None)
            }
        };
        let init = initial_state(&z, &config);
        let init_seasonal_flat: Vec<f64> = init.seasonal.iter().flatten().copied().collect();
        Ok(TbatsFitSession {
            config,
            z,
            shift,
            n_obs: y.len(),
            seasonal_scratch: Vec::with_capacity(init_seasonal_flat.len()),
            init_seasonal_flat,
            init,
            tables,
            staged: None,
            d_scratch: Vec::new(),
            e_scratch: Vec::new(),
            driver,
            outcome,
        })
    }

    /// Whether the optimiser still needs an objective evaluation.
    pub fn is_pending(&self) -> bool {
        self.driver.as_ref().is_some_and(|d| !d.is_done())
    }

    /// Evaluate the pending point through a one-lane
    /// [`tbats_filter::run_batch`] pass and feed it back; returns `false`
    /// when nothing was pending. Driving a session with
    /// `while session.step_solo() {}` reproduces the batched fit exactly.
    pub fn step_solo(&mut self) -> bool {
        if !self.stage_pending() {
            return false;
        }
        let sse = self.staged_lane().and_then(|mut lane| {
            tbats_filter::run_batch(std::slice::from_mut(&mut lane));
            lane.result()
        });
        self.tell_sse(sse.unwrap_or(f64::INFINITY));
        true
    }

    /// Unpack the pending point into filter parameters for a batched
    /// kernel pass; the caller scores the staged lane (typically several
    /// sessions' lanes in one
    /// [`dwcp_math::kernels::tbats_filter::run_batch`] call) and answers
    /// with [`tell_sse`](TbatsFitSession::tell_sse). Returns `false` when
    /// no evaluation is pending.
    pub fn stage_pending(&mut self) -> bool {
        let Some(driver) = self.driver.as_ref() else {
            return false;
        };
        let Some(u) = driver.pending_point() else {
            return false;
        };
        self.staged = Some(unpack_tbats(u, &self.config));
        true
    }

    /// Build the kernel lane for the staged point over this session's
    /// pooled state windows. `None` before the first successful
    /// [`stage_pending`](TbatsFitSession::stage_pending).
    pub fn staged_lane(&mut self) -> Option<tbats_filter::TbatsLane<'_>> {
        let params = self.staged.as_ref()?;
        self.seasonal_scratch.clear();
        self.seasonal_scratch
            .extend_from_slice(&self.init_seasonal_flat);
        self.d_scratch.clear();
        self.d_scratch.resize(params.ar.len(), 0.0);
        self.e_scratch.clear();
        self.e_scratch.resize(params.ma.len(), 0.0);
        Some(tbats_lane(
            &self.z,
            &self.config,
            params,
            &self.tables,
            (self.init.level, self.init.trend),
            (
                &mut self.seasonal_scratch,
                &mut self.d_scratch,
                &mut self.e_scratch,
            ),
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
    pub fn finish(mut self) -> Result<FittedTbats> {
        while self.step_solo() {}
        let TbatsFitSession {
            config,
            z,
            shift,
            n_obs,
            init,
            tables,
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
                                "TBATS fit session for {} lost its optimiser state",
                                config.describe()
                            ),
                        })
                    }
                };
                (nm.x, nm.evals)
            }
        };
        let k = config.n_params();
        let params = unpack_tbats(&params_unconstrained, &config);
        let (sse, state) =
            filter_with_tables(&z, &config, &params, init, &tables).ok_or_else(|| {
                ModelError::FitFailed {
                    context: format!("TBATS filter diverged for {}", config.describe()),
                }
            })?;
        let n = z.len() as f64;
        let sigma2 = sse / n;
        // AIC per the paper's selection criterion: parameters plus σ².
        let aic = n * sigma2.max(1e-300).ln() + 2.0 * (k as f64 + 1.0);
        Ok(FittedTbats {
            alpha: params.alpha,
            beta: params.beta,
            phi: params.phi,
            gammas: params.gammas.clone(),
            ar: params.ar.clone(),
            ma: params.ma.clone(),
            sigma2,
            aic,
            n_obs,
            params_unconstrained,
            nm_evals,
            state,
            shift,
            config,
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
    fn level_only_forecasts_the_level() {
        let y: Vec<f64> = noise(120, 1).iter().map(|v| 42.0 + v * 0.5).collect();
        let fit = FittedTbats::fit(&y, TbatsConfig::level_only()).unwrap();
        let f = fit.forecast(5);
        for &m in &f.mean {
            assert!((m - 42.0).abs() < 2.0, "{m}");
        }
        // Flat forecast for level-only.
        assert!((f.mean[4] - f.mean[0]).abs() < 1e-9);
    }

    #[test]
    fn trend_config_tracks_slope() {
        let y: Vec<f64> = (0..150)
            .map(|t| 5.0 + 0.8 * t as f64 + noise(150, 3)[t] * 0.3)
            .collect();
        let config = TbatsConfig {
            use_trend: true,
            ..TbatsConfig::level_only()
        };
        let fit = FittedTbats::fit(&y, config).unwrap();
        let f = fit.forecast(10);
        let slope = (f.mean[9] - f.mean[0]) / 9.0;
        assert!((slope - 0.8).abs() < 0.15, "slope = {slope}");
    }

    #[test]
    fn trigonometric_season_reproduces_sinusoid() {
        let y: Vec<f64> = (0..240)
            .map(|t| {
                100.0
                    + 12.0 * (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin()
                    + noise(240, 5)[t] * 0.3
            })
            .collect();
        let fit = FittedTbats::fit(&y, TbatsConfig::seasonal(24.0, 2)).unwrap();
        let f = fit.forecast(24);
        for (h, &m) in f.mean.iter().enumerate() {
            let t = (240 + h) as f64;
            let expected = 100.0 + 12.0 * (2.0 * std::f64::consts::PI * t / 24.0).sin();
            assert!((m - expected).abs() < 3.0, "h = {h}: {m} vs {expected}");
        }
    }

    #[test]
    fn non_integer_period_is_handled() {
        let period = 23.5;
        let y: Vec<f64> = (0..300)
            .map(|t| 50.0 + 8.0 * (2.0 * std::f64::consts::PI * t as f64 / period).sin())
            .collect();
        let fit = FittedTbats::fit(&y, TbatsConfig::seasonal(period, 1)).unwrap();
        let f = fit.forecast(12);
        for (h, &m) in f.mean.iter().enumerate() {
            let t = (300 + h) as f64;
            let expected = 50.0 + 8.0 * (2.0 * std::f64::consts::PI * t / period).sin();
            assert!((m - expected).abs() < 3.0, "h = {h}: {m} vs {expected}");
        }
    }

    #[test]
    fn boxcox_config_roundtrips_scale() {
        // Multiplicative-looking growth: log-scale model should stay sane.
        let y: Vec<f64> = (0..150)
            .map(|t| 20.0 * (1.0 + 0.01 * t as f64) + noise(150, 7)[t].abs())
            .collect();
        let config = TbatsConfig {
            lambda: Some(0.0),
            use_trend: true,
            ..TbatsConfig::level_only()
        };
        let fit = FittedTbats::fit(&y, config).unwrap();
        let f = fit.forecast(5);
        assert!(f.mean.iter().all(|&v| v > 0.0 && v < 200.0), "{:?}", f.mean);
        // Intervals ordered.
        for h in 0..5 {
            assert!(f.lower[h] <= f.mean[h] && f.mean[h] <= f.upper[h]);
        }
    }

    #[test]
    fn intervals_widen_with_horizon() {
        let y: Vec<f64> = noise(150, 9).iter().map(|v| 10.0 + v).collect();
        let fit = FittedTbats::fit(&y, TbatsConfig::level_only()).unwrap();
        let f = fit.forecast(12);
        for h in 1..12 {
            assert!(f.std_error[h] >= f.std_error[h - 1] - 1e-12);
        }
    }

    #[test]
    fn arma_errors_improve_fit_on_autocorrelated_noise() {
        // Level + AR(1) disturbances: the ARMA(1,0) config should beat the
        // plain one on AIC.
        let e = noise(300, 11);
        let mut d = vec![0.0; 300];
        for t in 1..300 {
            d[t] = 0.8 * d[t - 1] + e[t];
        }
        let y: Vec<f64> = d.iter().map(|v| 30.0 + v).collect();
        let plain = FittedTbats::fit(&y, TbatsConfig::level_only()).unwrap();
        let arma = FittedTbats::fit(
            &y,
            TbatsConfig {
                arma: (1, 0),
                ..TbatsConfig::level_only()
            },
        )
        .unwrap();
        assert!(arma.aic < plain.aic, "{} vs {}", arma.aic, plain.aic);
    }

    #[test]
    fn invalid_configs_rejected() {
        let y = vec![1.0; 100];
        // Harmonics too high for the period.
        let bad = TbatsConfig::seasonal(6.0, 3);
        assert!(FittedTbats::fit(&y, bad).is_err());
        // Period below 2.
        let bad2 = TbatsConfig::seasonal(1.0, 1);
        assert!(FittedTbats::fit(&y, bad2).is_err());
    }

    #[test]
    fn shapes_outside_the_kernel_envelope_are_invalid_specs() {
        let y: Vec<f64> = (0..400)
            .map(|t| 50.0 + 5.0 * (t as f64 / 4.0).sin() + noise(400, 23)[t])
            .collect();
        let season = |period: f64, harmonics: usize| TbatsSeason { period, harmonics };
        let arma20 = TbatsConfig {
            arma: (2, 0),
            ..TbatsConfig::seasonal(24.0, 2)
        };
        let three_blocks = TbatsConfig {
            seasons: vec![season(7.0, 1), season(12.0, 2), season(24.0, 2)],
            ..TbatsConfig::level_only()
        };
        let nine_harmonics = TbatsConfig::seasonal(24.0, 9);
        for config in [arma20, three_blocks, nine_harmonics] {
            for options in [
                TbatsFitOptions::default(),
                TbatsFitOptions {
                    warm_start: Some(vec![0.0; config.n_params()]),
                    freeze_warm_start: true,
                },
            ] {
                let fit = FittedTbats::fit_with(&y, config.clone(), &options);
                assert!(
                    matches!(fit, Err(ModelError::InvalidSpec { .. })),
                    "{}: {fit:?}",
                    config.describe()
                );
            }
        }
        // The widest shape inside the envelope is a valid spec.
        let widest = TbatsConfig {
            arma: (1, 1),
            seasons: vec![season(24.0, 8), season(48.0, 8)],
            ..TbatsConfig::level_only()
        };
        let frozen = TbatsFitOptions {
            warm_start: Some(vec![0.0; widest.n_params()]),
            freeze_warm_start: true,
        };
        let fit = FittedTbats::fit_with(&y, widest, &frozen);
        assert!(
            !matches!(fit, Err(ModelError::InvalidSpec { .. })),
            "{fit:?}"
        );
    }

    #[test]
    fn too_short_series_rejected() {
        assert!(FittedTbats::fit(&[1.0; 5], TbatsConfig::level_only()).is_err());
    }

    #[test]
    fn batched_session_matches_fit_with_bitwise() {
        let y: Vec<f64> = (0..200)
            .map(|t| {
                60.0 + 15.0 * (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin()
                    + noise(200, 17)[t] * 0.5
            })
            .collect();
        let season = TbatsSeason {
            period: 24.0,
            harmonics: 2,
        };
        let configs = [
            TbatsConfig::level_only(),
            TbatsConfig {
                use_trend: true,
                arma: (1, 0),
                ..TbatsConfig::level_only()
            },
            TbatsConfig::seasonal(24.0, 2),
            TbatsConfig {
                lambda: Some(0.5),
                use_trend: true,
                use_damping: true,
                arma: (1, 1),
                seasons: vec![season],
                interval_level: 0.95,
            },
        ];
        let opts = TbatsFitOptions::default();
        let mut sessions: Vec<TbatsFitSession> = configs
            .iter()
            .map(|c| TbatsFitSession::new(&y, c.clone(), &opts, None).unwrap())
            .collect();
        loop {
            let staged: Vec<usize> = (0..sessions.len())
                .filter(|&i| sessions[i].stage_pending())
                .collect();
            if staged.is_empty() {
                break;
            }
            let mut lanes: Vec<tbats_filter::TbatsLane<'_>> = sessions
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| staged.contains(i))
                .filter_map(|(_, s)| s.staged_lane())
                .collect();
            assert_eq!(lanes.len(), staged.len());
            tbats_filter::run_batch(&mut lanes);
            let sses: Vec<f64> = lanes
                .iter()
                .map(|l| l.result().unwrap_or(f64::INFINITY))
                .collect();
            drop(lanes);
            for (&i, sse) in staged.iter().zip(sses) {
                sessions[i].tell_sse(sse);
            }
        }
        for (config, session) in configs.iter().zip(sessions) {
            let batched = session.finish().unwrap();
            let solo = FittedTbats::fit_with(&y, config.clone(), &opts).unwrap();
            assert_eq!(
                batched.sigma2.to_bits(),
                solo.sigma2.to_bits(),
                "{}",
                config.describe()
            );
            assert_eq!(batched.aic.to_bits(), solo.aic.to_bits());
            assert_eq!(batched.alpha.to_bits(), solo.alpha.to_bits());
            assert_eq!(batched.nm_evals, solo.nm_evals);
            assert_eq!(batched.params_unconstrained, solo.params_unconstrained);
            let fa = batched.forecast(12);
            let fb = solo.forecast(12);
            for (a, b) in fa.mean.iter().zip(&fb.mean) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn frozen_rescore_reproduces_fit_bitwise() {
        let y: Vec<f64> = (0..180)
            .map(|t| {
                40.0 + 10.0 * (2.0 * std::f64::consts::PI * t as f64 / 20.0).sin()
                    + noise(180, 19)[t] * 0.4
            })
            .collect();
        let config = TbatsConfig {
            use_trend: true,
            arma: (1, 1),
            seasons: vec![TbatsSeason {
                period: 20.0,
                harmonics: 2,
            }],
            ..TbatsConfig::level_only()
        };
        let fit = FittedTbats::fit(&y, config.clone()).unwrap();
        let frozen = FittedTbats::fit_with(
            &y,
            config,
            &TbatsFitOptions {
                warm_start: Some(fit.params_unconstrained.clone()),
                freeze_warm_start: true,
            },
        )
        .unwrap();
        assert_eq!(frozen.nm_evals, 1);
        assert_eq!(frozen.sigma2.to_bits(), fit.sigma2.to_bits());
        let fa = frozen.forecast(10);
        let fb = fit.forecast(10);
        for (a, b) in fa.mean.iter().zip(&fb.mean) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn describe_is_informative() {
        let c = TbatsConfig {
            lambda: Some(0.0),
            use_trend: true,
            use_damping: true,
            arma: (1, 1),
            seasons: vec![TbatsSeason {
                period: 24.0,
                harmonics: 3,
            }],
            interval_level: 0.95,
        };
        let d = c.describe();
        assert!(d.contains("λ=0.00"));
        assert!(d.contains("damped-trend"));
        assert!(d.contains("ARMA(1,1)"));
        assert!(d.contains("24:3"));
    }
}
