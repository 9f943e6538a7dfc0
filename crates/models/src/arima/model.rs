//! SARIMA estimation (CSS + Nelder-Mead) and forecasting.
// lint: allow-file(indexing) — ARIMA forecast/filter recursions; lag indices are guarded by the min(t, order) loop bounds

use super::css::ExpandedArma;
use super::spec::ArimaSpec;
use super::transform::{
    ar_to_unconstrained, ma_to_unconstrained, unconstrained_to_ar, unconstrained_to_ar_into,
    unconstrained_to_ma, unconstrained_to_ma_into,
};
use crate::{Forecast, ModelError, Result};
use dwcp_math::ols::{design, ols};
use dwcp_math::optimize::{NelderMeadDriver, NelderMeadOptions};
use dwcp_math::poly::LagPoly;
use dwcp_series::diff::{Differenced, Differencer};

/// Knobs for the CSS fit.
#[derive(Debug, Clone)]
pub struct ArimaOptions {
    /// Nelder-Mead evaluation budget. The default scales with the number of
    /// parameters inside [`FittedArima::fit`] when left at 0.
    pub max_evals: usize,
    /// Nelder-Mead restarts.
    pub restarts: usize,
    /// Two-sided confidence level for forecast intervals.
    pub interval_level: f64,
    /// Estimate a mean on the differenced scale (drift when `d + D > 0`).
    /// On by default — the OLTP experiment's growing workload needs it;
    /// off reproduces the statsmodels default for ablation.
    pub include_mean: bool,
    /// Use Hannan-Rissanen starting values (off = zero start, ablation).
    pub hannan_rissanen_init: bool,
    /// Run the Cochrane-Orcutt GLS refinement pass in SARIMAX regression
    /// fits (off = plain two-step OLS + SARIMA, ablation).
    pub gls_refinement: bool,
    /// Warm start for the Nelder-Mead search, in the unconstrained
    /// parameter space (the layout of [`FittedArima::params_unconstrained`]).
    /// Typically the converged parameters of a neighbouring spec in a grid
    /// search. The optimiser races it against the cold start and keeps the
    /// better, so a poor warm start costs one objective evaluation, never
    /// accuracy. Ignored when the length does not match the spec.
    pub warm_start: Option<Vec<f64>>,
    /// Score [`ArimaOptions::warm_start`] verbatim instead of optimising:
    /// the fit evaluates the objective once at the given parameters and
    /// keeps them. This is how a stored repository champion is re-scored
    /// exactly as it was fitted (the paper's "reuse the champion"), rather
    /// than drifting to a new optimum. Ignored without a matching
    /// `warm_start`.
    pub freeze_warm_start: bool,
    /// Regression coefficients to take verbatim in a frozen SARIMAX
    /// regression fit (see [`ArimaOptions::freeze_warm_start`]): the OLS /
    /// GLS stages are skipped and the stored `[intercept, exog…, fourier…]`
    /// coefficients are kept, making the reproduction of a stored
    /// regression champion exact. Ignored for plain fits or when the
    /// length does not match the configuration.
    pub freeze_beta: Option<Vec<f64>>,
}

impl Default for ArimaOptions {
    fn default() -> Self {
        ArimaOptions {
            max_evals: 0,
            restarts: 1,
            interval_level: 0.95,
            include_mean: true,
            hannan_rissanen_init: true,
            gls_refinement: true,
            warm_start: None,
            freeze_warm_start: false,
            freeze_beta: None,
        }
    }
}

/// A fitted SARIMA model, ready to forecast.
#[derive(Debug, Clone)]
pub struct FittedArima {
    /// The order specification.
    pub spec: ArimaSpec,
    /// Regular AR coefficients φ.
    pub phi: Vec<f64>,
    /// Regular MA coefficients θ.
    pub theta: Vec<f64>,
    /// Seasonal AR coefficients Φ.
    pub seasonal_phi: Vec<f64>,
    /// Seasonal MA coefficients Θ.
    pub seasonal_theta: Vec<f64>,
    /// Mean of the differenced series (drift when `d + D > 0`).
    pub mean: f64,
    /// Innovation variance estimate.
    pub sigma2: f64,
    /// The minimised CSS objective (mean squared innovation).
    pub css: f64,
    /// Akaike information criterion (CSS approximation).
    pub aic: f64,
    /// Training length on the original scale.
    pub n_obs: usize,
    /// Objective evaluations the optimiser spent on this fit.
    pub nm_evals: usize,
    /// The converged parameter vector in the unconstrained search space
    /// (layout: p regular-AR, q regular-MA, P seasonal-AR, Q seasonal-MA
    /// entries). This is what warm-start chains feed to a neighbouring
    /// spec via [`ArimaOptions::warm_start`].
    pub params_unconstrained: Vec<f64>,
    // --- forecasting state ---
    diffed: dwcp_series::diff::Differenced,
    w_centered: Vec<f64>,
    innovations: Vec<f64>,
    interval_level: f64,
}

impl FittedArima {
    /// Fit `spec` to `y` by conditional sum of squares.
    ///
    /// ```
    /// use dwcp_models::{ArimaSpec, FittedArima};
    ///
    /// // An AR(1)-ish decaying series.
    /// let y: Vec<f64> = (0..120).map(|t| 10.0 * 0.8f64.powi(t % 20) + t as f64 * 0.01).collect();
    /// let fit = FittedArima::fit(&y, ArimaSpec::arima(1, 0, 0), &Default::default()).unwrap();
    /// let forecast = fit.forecast(5);
    /// assert_eq!(forecast.len(), 5);
    /// assert!(forecast.mean.iter().all(|v| v.is_finite()));
    /// ```
    ///
    /// A mean term is always estimated on the differenced scale, so models
    /// with `d ≥ 1` carry drift — necessary for the paper's Experiment 2,
    /// where the OLTP workload grows by 50 users every day and the
    /// "prediction line grows with the trend line".
    pub fn fit(y: &[f64], spec: ArimaSpec, opts: &ArimaOptions) -> Result<FittedArima> {
        Self::validate_input(y, &spec)?;
        let diffed = Self::differencer_for(&spec).apply(y)?;
        Self::fit_with_diffed(y.len(), spec, opts, diffed)
    }

    /// Fit against a pre-differenced training series.
    ///
    /// Grid searches fit many specs that share a differencing signature
    /// `(d, D, s)`; the differencing transform depends only on that
    /// signature, not on the ARMA orders. Callers (the evaluation engine's
    /// transform cache) apply the [`Differencer`] once per signature and
    /// pass the result here, skipping the per-candidate transform.
    ///
    /// `diffed` must be the output of `FittedArima::differencer_for(&spec)`
    /// applied to `y` — the signature is checked, and a mismatch is an
    /// `InvalidSpec` error. Given that, this is **bit-identical** to
    /// [`FittedArima::fit`]: the same floating-point operations run in the
    /// same order on the same values.
    pub fn fit_prepared(
        y: &[f64],
        spec: ArimaSpec,
        opts: &ArimaOptions,
        diffed: &dwcp_series::diff::Differenced,
    ) -> Result<FittedArima> {
        Self::validate_input(y, &spec)?;
        let expected = Self::differencer_for(&spec);
        if diffed.differencer() != expected {
            return Err(ModelError::InvalidSpec {
                context: format!(
                    "fit_prepared: cached transform {:?} does not match the {} signature {:?}",
                    diffed.differencer(),
                    spec,
                    expected
                ),
            });
        }
        if diffed.values.len() + expected.loss() != y.len() {
            return Err(ModelError::InvalidSpec {
                context: format!(
                    "fit_prepared: cached transform length {} inconsistent with series length {}",
                    diffed.values.len(),
                    y.len()
                ),
            });
        }
        Self::fit_with_diffed(y.len(), spec, opts, diffed.clone())
    }

    /// The differencing transform implied by `spec` (what [`fit`] applies
    /// before estimation). Public so grid-search transform caches can key
    /// and build entries the same way `fit` would.
    ///
    /// [`fit`]: FittedArima::fit
    pub fn differencer_for(spec: &ArimaSpec) -> Differencer {
        Differencer {
            d: spec.d,
            seasonal_d: spec.seasonal_d,
            period: if spec.seasonal_d > 0 { spec.period } else { 1 },
        }
    }

    fn validate_input(y: &[f64], spec: &ArimaSpec) -> Result<()> {
        spec.validate()?;
        let needed = spec.min_observations();
        if y.len() < needed {
            return Err(ModelError::TooShort {
                needed,
                got: y.len(),
            });
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::Series(dwcp_series::SeriesError::NonFinite));
        }
        Ok(())
    }

    /// Shared estimation path behind [`fit`] and [`fit_prepared`]: start a
    /// fit session, drive its optimiser to completion against the solo CSS
    /// kernel, finalise. The batched grid engine uses the same session type
    /// but interleaves many of them over the multi-candidate kernel.
    ///
    /// [`fit`]: FittedArima::fit
    /// [`fit_prepared`]: FittedArima::fit_prepared
    fn fit_with_diffed(
        n_obs: usize,
        spec: ArimaSpec,
        opts: &ArimaOptions,
        diffed: dwcp_series::diff::Differenced,
    ) -> Result<FittedArima> {
        let mut session = ArimaFitSession::start(n_obs, spec, opts, diffed)?;
        while session.step_solo() {}
        session.finish()
    }

    /// The expanded (multiplied-out) ARMA coefficients.
    pub fn expanded(&self) -> ExpandedArma {
        ExpandedArma::expand(
            &self.phi,
            &self.theta,
            &self.seasonal_phi,
            &self.seasonal_theta,
            self.spec.period,
        )
    }

    /// Forecast `horizon` steps past the end of the training series, on the
    /// original (undifferenced) scale, with normal prediction intervals.
    pub fn forecast(&self, horizon: usize) -> Forecast {
        if horizon == 0 {
            return Forecast::with_normal_intervals(vec![], vec![], self.interval_level);
        }
        let expanded = self.expanded();
        let w_future: Vec<f64> = expanded
            .forecast(&self.w_centered, &self.innovations, horizon)
            .into_iter()
            .map(|v| v + self.mean)
            .collect();

        let differencer = Differencer {
            d: self.spec.d,
            seasonal_d: self.spec.seasonal_d,
            period: if self.spec.seasonal_d > 0 {
                self.spec.period
            } else {
                1
            },
        };
        let mean_path = if differencer.loss() == 0 {
            w_future
        } else {
            differencer.integrate(&self.diffed, &w_future)
        };

        // Forecast error variance from the ψ-weights of the *integrated*
        // process: AR side is φ*(B)·(1−B)^d·(1−B^s)^D.
        let ar_star = expanded
            .ar_poly()
            .mul(&LagPoly::differencing(self.spec.d, 1))
            .mul(&LagPoly::differencing(
                self.spec.seasonal_d,
                self.spec.period.max(1),
            ));
        let psi = ar_star.psi_weights(&expanded.ma_poly(), horizon - 1);
        let mut acc = 0.0;
        let std_error: Vec<f64> = psi
            .iter()
            .map(|&p| {
                acc += p * p;
                (self.sigma2 * acc).sqrt()
            })
            .collect();

        Forecast::with_normal_intervals(mean_path, std_error, self.interval_level)
    }

    /// In-sample innovations (residuals) on the differenced scale, aligned
    /// with the differenced series; leading conditioning entries are zero.
    pub fn residuals(&self) -> &[f64] {
        &self.innovations
    }

    /// Gaussian log-likelihood under the CSS approximation.
    pub fn log_likelihood(&self) -> f64 {
        let n = self.innovations.len() as f64;
        -0.5 * n * ((2.0 * std::f64::consts::PI * self.sigma2.max(1e-300)).ln() + 1.0)
    }
}

/// Split a flat unconstrained vector into the four parameter blocks and map
/// each through its stationarity/invertibility transform.
fn split_params(u: &[f64], spec: &ArimaSpec) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let (p, q, sp, sq) = (spec.p, spec.q, spec.seasonal_p, spec.seasonal_q);
    debug_assert_eq!(u.len(), p + q + sp + sq);
    let phi = unconstrained_to_ar(&u[..p]);
    let theta = unconstrained_to_ma(&u[p..p + q]);
    let seasonal_phi = unconstrained_to_ar(&u[p + q..p + q + sp]);
    let seasonal_theta = unconstrained_to_ma(&u[p + q + sp..]);
    (phi, theta, seasonal_phi, seasonal_theta)
}

/// Expand a flat unconstrained vector straight to multiplied-out ARMA form.
fn expand_unconstrained(u: &[f64], spec: &ArimaSpec) -> ExpandedArma {
    let (phi, theta, seasonal_phi, seasonal_theta) = split_params(u, spec);
    ExpandedArma::expand(&phi, &theta, &seasonal_phi, &seasonal_theta, spec.period)
}

/// Reused buffers for the CSS objective: unconstrained point → coefficient
/// blocks → expanded ARMA → innovations, with no steady-state allocation.
/// One instance lives for the duration of a Nelder-Mead run and is shared
/// by every objective evaluation of that fit.
#[derive(Debug, Default)]
struct ObjectiveScratch {
    phi: Vec<f64>,
    theta: Vec<f64>,
    seasonal_phi: Vec<f64>,
    seasonal_theta: Vec<f64>,
    pacs: Vec<f64>,
    prev: Vec<f64>,
    expanded: ExpandedArma,
    innovations: Vec<f64>,
}

impl ObjectiveScratch {
    /// Map the unconstrained point `u` to expanded `(φ*, θ*)` coefficients
    /// in `self.expanded` — the per-candidate half of an objective
    /// evaluation (the CSS half can then run solo or batched).
    fn stage(&mut self, u: &[f64], spec: &ArimaSpec) {
        let (p, q, sp, sq) = (spec.p, spec.q, spec.seasonal_p, spec.seasonal_q);
        debug_assert_eq!(u.len(), p + q + sp + sq);
        unconstrained_to_ar_into(&u[..p], &mut self.phi, &mut self.pacs, &mut self.prev);
        unconstrained_to_ma_into(
            &u[p..p + q],
            &mut self.theta,
            &mut self.pacs,
            &mut self.prev,
        );
        unconstrained_to_ar_into(
            &u[p + q..p + q + sp],
            &mut self.seasonal_phi,
            &mut self.pacs,
            &mut self.prev,
        );
        unconstrained_to_ma_into(
            &u[p + q + sp..],
            &mut self.seasonal_theta,
            &mut self.pacs,
            &mut self.prev,
        );
        self.expanded.expand_into(
            &self.phi,
            &self.theta,
            &self.seasonal_phi,
            &self.seasonal_theta,
            spec.period,
        );
    }

    /// CSS of the unconstrained point `u` — bit-identical to
    /// `expand_unconstrained(u, spec).css(w)`.
    fn css(&mut self, u: &[f64], spec: &ArimaSpec, w: &[f64]) -> f64 {
        self.stage(u, spec);
        self.expanded.css_into(w, &mut self.innovations)
    }
}

/// A single SARIMA CSS fit, opened up as a poll-style state machine so an
/// evaluation engine can interleave many fits over the batched CSS kernel
/// ([`dwcp_math::kernels::css_batch`]).
///
/// Lifecycle: `start` (or the validating [`new`]) prepares the centered
/// differenced series and the Nelder-Mead driver; then, while
/// [`is_pending`] holds, either [`step_solo`] evaluates the pending point
/// against the solo kernel, or the batched caller runs
/// [`stage_pending`] → CSS of ([`staged_phi`], [`staged_theta`]) over
/// [`w`] → [`tell_css`]; finally [`finish`] produces the [`FittedArima`].
///
/// Driving a session entirely through `step_solo` is **exactly**
/// [`FittedArima::fit_prepared`] — `fit_with_diffed` is implemented that
/// way — and because the batched kernel is bit-identical per candidate to
/// the solo kernel, a session stepped through any mixture of solo and
/// batched evaluations converges to bit-identical parameters, CSS and
/// evaluation count.
///
/// [`new`]: ArimaFitSession::new
/// [`is_pending`]: ArimaFitSession::is_pending
/// [`step_solo`]: ArimaFitSession::step_solo
/// [`stage_pending`]: ArimaFitSession::stage_pending
/// [`staged_phi`]: ArimaFitSession::staged_phi
/// [`staged_theta`]: ArimaFitSession::staged_theta
/// [`w`]: ArimaFitSession::w
/// [`tell_css`]: ArimaFitSession::tell_css
/// [`finish`]: ArimaFitSession::finish
#[derive(Debug)]
pub struct ArimaFitSession {
    spec: ArimaSpec,
    n_obs: usize,
    diffed: Differenced,
    mean: f64,
    w: Vec<f64>,
    k: usize,
    interval_level: f64,
    scratch: ObjectiveScratch,
    driver: Option<NelderMeadDriver>,
    /// `(blocks, css, evals)` for fits decided without an optimiser run
    /// (zero-parameter specs, frozen champion re-scores).
    outcome: Option<(Vec<f64>, f64, usize)>,
}

impl ArimaFitSession {
    /// Open a fit session against a cached differenced series, with the
    /// same validation as [`FittedArima::fit_prepared`].
    pub fn new(
        y: &[f64],
        spec: ArimaSpec,
        opts: &ArimaOptions,
        diffed: &Differenced,
    ) -> Result<ArimaFitSession> {
        FittedArima::validate_input(y, &spec)?;
        let expected = FittedArima::differencer_for(&spec);
        if diffed.differencer() != expected {
            return Err(ModelError::InvalidSpec {
                context: format!(
                    "fit session: cached transform {:?} does not match the {} signature {:?}",
                    diffed.differencer(),
                    spec,
                    expected
                ),
            });
        }
        if diffed.values.len() + expected.loss() != y.len() {
            return Err(ModelError::InvalidSpec {
                context: format!(
                    "fit session: cached transform length {} inconsistent with series length {}",
                    diffed.values.len(),
                    y.len()
                ),
            });
        }
        Self::start(y.len(), spec, opts, diffed.clone())
    }

    /// Open a session on an already-validated differenced series — the
    /// statement-for-statement head of the former `fit_with_diffed`.
    fn start(
        n_obs: usize,
        spec: ArimaSpec,
        opts: &ArimaOptions,
        diffed: Differenced,
    ) -> Result<ArimaFitSession> {
        let mean = if opts.include_mean {
            diffed.values.iter().sum::<f64>() / diffed.values.len() as f64
        } else {
            0.0
        };
        let w: Vec<f64> = diffed.values.iter().map(|v| v - mean).collect();

        let k = spec.n_params();
        let mut scratch = ObjectiveScratch::default();
        let mut driver = None;
        let mut outcome = None;
        if k == 0 {
            outcome = Some((
                vec![],
                ExpandedArma::expand(&[], &[], &[], &[], 0).css(&w),
                0,
            ));
        } else {
            let start = if opts.hannan_rissanen_init {
                initial_unconstrained(&w, &spec)
            } else {
                vec![0.0; k]
            };
            let budget = if opts.max_evals == 0 {
                250 + 120 * k
            } else {
                opts.max_evals
            };
            let warm_start = opts.warm_start.as_ref().filter(|ws| ws.len() == k).cloned();
            if opts.freeze_warm_start {
                if let Some(ws) = warm_start {
                    let fx = scratch.css(&ws, &spec, &w);
                    outcome = Some((ws, fx, 1));
                } else {
                    return Err(ModelError::FitFailed {
                        context: format!(
                            "freeze_warm_start for {spec} needs a warm start of length {k}"
                        ),
                    });
                }
            } else {
                driver = Some(NelderMeadDriver::new(
                    &start,
                    NelderMeadOptions {
                        max_evals: budget,
                        restarts: opts.restarts,
                        initial_step: 0.25,
                        // A warm start that beats the cold start sits next to a
                        // converged neighbouring optimum, so refine locally with
                        // a fraction of the global-search budget instead of
                        // re-exploring at full width.
                        warm_refine_step: warm_start.as_ref().map(|_| 0.02),
                        warm_budget: warm_start.as_ref().map(|_| (budget / 6).max(60)),
                        warm_start,
                        ..Default::default()
                    },
                ));
            }
        }
        Ok(ArimaFitSession {
            spec,
            n_obs,
            diffed,
            mean,
            w,
            k,
            interval_level: opts.interval_level,
            scratch,
            driver,
            outcome,
        })
    }

    /// Whether the optimiser still needs an objective evaluation.
    pub fn is_pending(&self) -> bool {
        self.driver.as_ref().is_some_and(|d| !d.is_done())
    }

    /// Evaluate the pending point against the solo CSS kernel and feed it
    /// back; returns `false` when nothing was pending. Driving a session
    /// with `while session.step_solo() {}` reproduces the sequential fit
    /// exactly.
    pub fn step_solo(&mut self) -> bool {
        let Some(driver) = self.driver.as_mut() else {
            return false;
        };
        let Some(u) = driver.pending_point() else {
            return false;
        };
        let fx = self.scratch.css(u, &self.spec, &self.w);
        driver.tell(fx);
        true
    }

    /// Map the pending unconstrained point to expanded `(φ*, θ*)` in the
    /// session scratch (the per-candidate half of one objective
    /// evaluation); the caller computes CSS of the staged coefficients
    /// over [`w`](ArimaFitSession::w) — typically for several sessions in
    /// one batched kernel pass — and answers with
    /// [`tell_css`](ArimaFitSession::tell_css). Returns `false` when no
    /// evaluation is pending.
    pub fn stage_pending(&mut self) -> bool {
        let Some(driver) = self.driver.as_ref() else {
            return false;
        };
        let Some(u) = driver.pending_point() else {
            return false;
        };
        self.scratch.stage(u, &self.spec);
        true
    }

    /// Expanded AR coefficients staged by
    /// [`stage_pending`](ArimaFitSession::stage_pending).
    pub fn staged_phi(&self) -> &[f64] {
        &self.scratch.expanded.phi
    }

    /// Expanded MA coefficients staged by
    /// [`stage_pending`](ArimaFitSession::stage_pending).
    pub fn staged_theta(&self) -> &[f64] {
        &self.scratch.expanded.theta
    }

    /// The centered differenced series the CSS objective scores against.
    /// Sessions sharing a differencing signature (and mean policy) hold
    /// bit-identical copies, so a batched caller may score all of them
    /// against any one session's `w`.
    pub fn w(&self) -> &[f64] {
        &self.w
    }

    /// Feed back the CSS value of the staged point and advance the
    /// optimiser.
    pub fn tell_css(&mut self, css: f64) {
        if let Some(driver) = self.driver.as_mut() {
            driver.tell(css);
        }
    }

    /// Finalise the fit. Any evaluations still pending are driven against
    /// the solo kernel first, so `finish` is always well-defined.
    pub fn finish(mut self) -> Result<FittedArima> {
        while self.step_solo() {}
        let ArimaFitSession {
            spec,
            n_obs,
            diffed,
            mean,
            w,
            k,
            interval_level,
            driver,
            outcome,
            ..
        } = self;
        let (blocks, best_css, nm_evals) = match outcome {
            Some(decided) => decided,
            None => {
                let nm = match driver {
                    Some(driver) => driver.into_result(),
                    None => {
                        return Err(ModelError::FitFailed {
                            context: format!("fit session for {spec} lost its optimiser state"),
                        })
                    }
                };
                (nm.x, nm.fx, nm.evals)
            }
        };
        if !best_css.is_finite() {
            return Err(ModelError::FitFailed {
                context: format!("CSS objective diverged for {spec}"),
            });
        }

        let expanded = expand_unconstrained(&blocks, &spec);
        let (innovations, inno_start) = expanded.innovations(&w);
        let scored = (innovations.len() - inno_start).max(1);
        let sigma2 = innovations[inno_start..].iter().map(|v| v * v).sum::<f64>() / scored as f64;
        // CSS-approximate AIC: n·ln σ̂² + 2(k + 2) (mean and σ² count).
        let aic = scored as f64 * sigma2.max(1e-300).ln() + 2.0 * (k as f64 + 2.0);

        let (phi, theta, seasonal_phi, seasonal_theta) = split_params(&blocks, &spec);
        // The unconstrained→PACF transform guarantees stationary AR and
        // invertible MA blocks by construction (MA invertibility is AR
        // stationarity of −θ); assert it at the fit boundary.
        let neg = |c: &[f64]| c.iter().map(|v| -v).collect::<Vec<f64>>();
        dwcp_math::invariant!(
            super::transform::ar_to_pacf(&phi).is_some()
                && super::transform::ar_to_pacf(&seasonal_phi).is_some()
                && super::transform::ar_to_pacf(&neg(&theta)).is_some()
                && super::transform::ar_to_pacf(&neg(&seasonal_theta)).is_some(),
            "fit produced a non-stationary or non-invertible {spec}"
        );
        Ok(FittedArima {
            spec,
            phi,
            theta,
            seasonal_phi,
            seasonal_theta,
            mean,
            sigma2,
            css: best_css,
            aic,
            n_obs,
            nm_evals,
            params_unconstrained: blocks,
            diffed,
            w_centered: w,
            innovations,
            interval_level,
        })
    }
}

/// Hannan-Rissanen starting values mapped to the unconstrained space;
/// falls back to zeros (white-noise start) when the regressions fail.
fn initial_unconstrained(w: &[f64], spec: &ArimaSpec) -> Vec<f64> {
    let (p, q, sp, sq) = (spec.p, spec.q, spec.seasonal_p, spec.seasonal_q);
    let mut start = vec![0.0; p + q + sp + sq];
    if p + q == 0 {
        return start;
    }
    if let Some((phi0, theta0)) = hannan_rissanen(w, p, q) {
        let u_phi = ar_to_unconstrained(&phi0);
        let u_theta = ma_to_unconstrained(&theta0);
        start[..p].copy_from_slice(&u_phi);
        start[p..p + q].copy_from_slice(&u_theta);
    }
    start
}

/// Two-stage Hannan-Rissanen: long-AR residuals, then OLS of `w` on its own
/// lags and lagged residuals.
fn hannan_rissanen(w: &[f64], p: usize, q: usize) -> Option<(Vec<f64>, Vec<f64>)> {
    let n = w.len();
    let m = ((10.0 * (n as f64).log10()) as usize).max(p + q).min(n / 4);
    if m == 0 || n < m + p.max(q) + 10 {
        return None;
    }
    // Stage 1: long AR for proxy innovations.
    let eps = if q > 0 {
        let rows = n - m;
        let mut cols: Vec<Vec<f64>> = Vec::with_capacity(m);
        for lag in 1..=m {
            cols.push((m..n).map(|t| w[t - lag]).collect());
        }
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let x = design(&col_refs).ok()?;
        let yv: Vec<f64> = w[m..].to_vec();
        let fit = ols(&x, &yv).ok()?;
        let mut eps = vec![0.0; n];
        for (i, &r) in fit.residuals.iter().enumerate() {
            eps[m + i] = r;
        }
        let _ = rows;
        eps
    } else {
        vec![0.0; n]
    };
    // Stage 2: regress on p lags of w and q lags of eps.
    let offset = m.max(p).max(q);
    if n <= offset + p + q + 4 {
        return None;
    }
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(p + q);
    for lag in 1..=p {
        cols.push((offset..n).map(|t| w[t - lag]).collect());
    }
    for lag in 1..=q {
        cols.push((offset..n).map(|t| eps[t - lag]).collect());
    }
    let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    let x = design(&col_refs).ok()?;
    let yv: Vec<f64> = w[offset..].to_vec();
    let fit = ols(&x, &yv).ok()?;
    let phi0 = fit.beta[..p].to_vec();
    let theta0 = fit.beta[p..].to_vec();
    Some((phi0, theta0))
}

/// Re-shape a converged unconstrained parameter vector from one spec's
/// block layout to another's, so a fit can warm-start from a neighbouring
/// grid point (p or q ±1, etc.).
///
/// Each of the four blocks (regular AR, regular MA, seasonal AR, seasonal
/// MA) is truncated or zero-padded independently. Zero entries are neutral
/// — they map to zero partial autocorrelations — so grown blocks start
/// their new lags at "no effect". Returns `None` when `prev` does not match
/// `from`'s layout.
pub fn adapt_unconstrained(prev: &[f64], from: &ArimaSpec, to: &ArimaSpec) -> Option<Vec<f64>> {
    if prev.len() != from.n_params() {
        return None;
    }
    let from_blocks = [from.p, from.q, from.seasonal_p, from.seasonal_q];
    let to_blocks = [to.p, to.q, to.seasonal_p, to.seasonal_q];
    let mut out = Vec::with_capacity(to.n_params());
    let mut offset = 0;
    for (&have, &want) in from_blocks.iter().zip(&to_blocks) {
        let block = &prev[offset..offset + have];
        for i in 0..want {
            out.push(block.get(i).copied().unwrap_or(0.0));
        }
        offset += have;
    }
    Some(out)
}

/// Automatic `d` selection helper re-exported at the ARIMA level: difference
/// until the ADF test is satisfied, capped at 2 (see
/// [`dwcp_series::stationarity::suggest_differencing`]).
pub fn auto_d(y: &[f64]) -> usize {
    dwcp_series::stationarity::suggest_differencing(y, 2).unwrap_or(1)
}

/// Convenience: does `spec` fit within `n` observations?
pub fn spec_feasible(spec: &ArimaSpec, n: usize) -> bool {
    spec.validate().is_ok() && n >= spec.min_observations()
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

    fn simulate_arma(n: usize, phi: &[f64], theta: &[f64], seed: u64) -> Vec<f64> {
        let e = noise(n + 100, seed);
        let mut y = vec![0.0; n + 100];
        for t in 0..y.len() {
            let mut v = e[t];
            for (i, &ph) in phi.iter().enumerate() {
                if t > i {
                    v += ph * y[t - 1 - i];
                }
            }
            for (j, &th) in theta.iter().enumerate() {
                if t > j {
                    v += th * e[t - 1 - j];
                }
            }
            y[t] = v;
        }
        y[100..].to_vec()
    }

    #[test]
    fn fits_ar1_close_to_truth() {
        let y = simulate_arma(600, &[0.7], &[], 42);
        let fit = FittedArima::fit(&y, ArimaSpec::arima(1, 0, 0), &Default::default()).unwrap();
        assert!((fit.phi[0] - 0.7).abs() < 0.08, "phi = {:?}", fit.phi);
    }

    #[test]
    fn fits_ma1_close_to_truth() {
        let y = simulate_arma(800, &[], &[0.5], 7);
        let fit = FittedArima::fit(&y, ArimaSpec::arima(0, 0, 1), &Default::default()).unwrap();
        assert!((fit.theta[0] - 0.5).abs() < 0.1, "theta = {:?}", fit.theta);
    }

    #[test]
    fn fits_arma11() {
        let y = simulate_arma(1200, &[0.6], &[0.3], 11);
        let fit = FittedArima::fit(&y, ArimaSpec::arima(1, 0, 1), &Default::default()).unwrap();
        assert!((fit.phi[0] - 0.6).abs() < 0.12, "phi = {:?}", fit.phi);
        assert!((fit.theta[0] - 0.3).abs() < 0.15, "theta = {:?}", fit.theta);
    }

    #[test]
    fn white_noise_spec_recovers_variance() {
        let y = noise(500, 3);
        let fit = FittedArima::fit(&y, ArimaSpec::arima(0, 0, 0), &Default::default()).unwrap();
        let mean = y.iter().sum::<f64>() / 500.0;
        let var = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 500.0;
        assert!(
            (fit.sigma2 - var).abs() / var < 0.05,
            "sigma2 = {}, var = {var}",
            fit.sigma2
        );
    }

    #[test]
    fn drift_is_captured_with_d1() {
        // Linear trend + noise; d=1 leaves mean = slope.
        let y: Vec<f64> = noise(400, 5)
            .iter()
            .enumerate()
            .map(|(t, &e)| 2.0 * t as f64 + e)
            .collect();
        let fit = FittedArima::fit(&y, ArimaSpec::arima(0, 1, 0), &Default::default()).unwrap();
        assert!((fit.mean - 2.0).abs() < 0.1, "drift = {}", fit.mean);
        let f = fit.forecast(5);
        // Forecast continues the trend.
        let last = *y.last().unwrap();
        assert!((f.mean[4] - (last + 5.0 * 2.0)).abs() < 2.0);
    }

    #[test]
    fn forecast_of_seasonal_model_repeats_pattern() {
        // Strong deterministic period-12 pattern + noise; SARIMA(0,0,0)(0,1,0,12)
        // forecasts the seasonal repeat.
        let pattern: Vec<f64> = (0..12).map(|i| (i as f64 * 1.3).sin() * 10.0).collect();
        let y: Vec<f64> = (0..144)
            .map(|t| pattern[t % 12] + noise(144, 9)[t] * 0.1)
            .collect();
        let fit = FittedArima::fit(
            &y,
            ArimaSpec::sarima(0, 0, 0, 0, 1, 0, 12),
            &Default::default(),
        )
        .unwrap();
        let f = fit.forecast(12);
        for (h, &m) in f.mean.iter().enumerate() {
            let expected = pattern[(144 + h) % 12];
            assert!((m - expected).abs() < 1.5, "h = {h}: {m} vs {expected}");
        }
    }

    #[test]
    fn forecast_intervals_widen_with_horizon() {
        let y = simulate_arma(300, &[0.5], &[], 13);
        let fit = FittedArima::fit(&y, ArimaSpec::arima(1, 0, 0), &Default::default()).unwrap();
        let f = fit.forecast(10);
        for h in 1..10 {
            assert!(
                f.std_error[h] >= f.std_error[h - 1] - 1e-12,
                "se not monotone at {h}"
            );
        }
        // AR(1) forecast variance converges to sigma2/(1−φ²).
        let limit = (fit.sigma2 / (1.0 - fit.phi[0].powi(2))).sqrt();
        assert!(f.std_error[9] <= limit * 1.05);
    }

    #[test]
    fn integrated_forecast_variance_grows_without_bound() {
        let y: Vec<f64> = noise(300, 17)
            .iter()
            .scan(0.0, |acc, &e| {
                *acc += e;
                Some(*acc)
            })
            .collect();
        let fit = FittedArima::fit(&y, ArimaSpec::arima(0, 1, 0), &Default::default()).unwrap();
        let f = fit.forecast(20);
        // Random-walk se grows like sqrt(h).
        let ratio = f.std_error[19] / f.std_error[4];
        assert!((ratio - 2.0).abs() < 0.15, "ratio = {ratio}");
    }

    #[test]
    fn rejects_too_short_series() {
        let y = vec![1.0; 10];
        assert!(matches!(
            FittedArima::fit(
                &y,
                ArimaSpec::sarima(1, 1, 1, 1, 1, 1, 24),
                &Default::default()
            ),
            Err(ModelError::TooShort { .. })
        ));
    }

    #[test]
    fn rejects_nan_input() {
        let mut y = noise(100, 19);
        y[50] = f64::NAN;
        assert!(FittedArima::fit(&y, ArimaSpec::arima(1, 0, 0), &Default::default()).is_err());
    }

    #[test]
    fn aic_prefers_true_order_over_overfit() {
        let y = simulate_arma(800, &[0.7], &[], 23);
        let fit1 = FittedArima::fit(&y, ArimaSpec::arima(1, 0, 0), &Default::default()).unwrap();
        let fit5 = FittedArima::fit(&y, ArimaSpec::arima(5, 0, 2), &Default::default()).unwrap();
        assert!(
            fit1.aic < fit5.aic + 5.0,
            "AIC(1,0,0) = {}, AIC(5,0,2) = {}",
            fit1.aic,
            fit5.aic
        );
    }

    #[test]
    fn zero_horizon_forecast_is_empty() {
        let y = noise(100, 29);
        let fit = FittedArima::fit(&y, ArimaSpec::arima(1, 0, 0), &Default::default()).unwrap();
        assert!(fit.forecast(0).is_empty());
    }

    #[test]
    fn fit_prepared_matches_fit_bit_for_bit() {
        let y = simulate_arma(400, &[0.6, -0.2], &[0.4], 37);
        for spec in [
            ArimaSpec::arima(2, 0, 1),
            ArimaSpec::arima(1, 1, 2),
            ArimaSpec::sarima(1, 0, 1, 1, 1, 0, 12),
        ] {
            let opts = ArimaOptions {
                max_evals: 200,
                ..Default::default()
            };
            let cold = FittedArima::fit(&y, spec, &opts).unwrap();
            let diffed = FittedArima::differencer_for(&spec).apply(&y).unwrap();
            let prepared = FittedArima::fit_prepared(&y, spec, &opts, &diffed).unwrap();
            assert_eq!(cold.phi, prepared.phi, "{spec}");
            assert_eq!(cold.theta, prepared.theta, "{spec}");
            assert_eq!(cold.seasonal_phi, prepared.seasonal_phi, "{spec}");
            assert_eq!(cold.seasonal_theta, prepared.seasonal_theta, "{spec}");
            assert_eq!(cold.css.to_bits(), prepared.css.to_bits(), "{spec}");
            assert_eq!(cold.aic.to_bits(), prepared.aic.to_bits(), "{spec}");
            assert_eq!(cold.forecast(12).mean, prepared.forecast(12).mean, "{spec}");
        }
    }

    #[test]
    fn fit_prepared_rejects_mismatched_transform() {
        let y = simulate_arma(300, &[0.5], &[], 41);
        let spec = ArimaSpec::arima(1, 1, 0);
        let wrong = FittedArima::differencer_for(&ArimaSpec::arima(1, 0, 0))
            .apply(&y)
            .unwrap();
        assert!(matches!(
            FittedArima::fit_prepared(&y, spec, &Default::default(), &wrong),
            Err(ModelError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn warm_start_from_neighbour_is_no_worse_in_css() {
        let y = simulate_arma(500, &[0.7, -0.1], &[0.3], 43);
        let opts = ArimaOptions {
            max_evals: 150,
            restarts: 0,
            ..Default::default()
        };
        let neighbour = FittedArima::fit(&y, ArimaSpec::arima(1, 0, 1), &opts).unwrap();
        let target = ArimaSpec::arima(2, 0, 1);
        let warm =
            adapt_unconstrained(&neighbour.params_unconstrained, &neighbour.spec, &target).unwrap();
        let cold_fit = FittedArima::fit(&y, target, &opts).unwrap();
        let warm_fit = FittedArima::fit(
            &y,
            target,
            &ArimaOptions {
                warm_start: Some(warm),
                ..opts
            },
        )
        .unwrap();
        // The optimiser starts from the better of cold/warm, so the warm
        // run's start is at least as good; with the same budget the final
        // CSS should not be meaningfully worse.
        assert!(
            warm_fit.css <= cold_fit.css * 1.05 + 1e-9,
            "warm {} vs cold {}",
            warm_fit.css,
            cold_fit.css
        );
    }

    #[test]
    fn adapt_unconstrained_resizes_blocks() {
        let from = ArimaSpec::sarima(2, 0, 1, 1, 0, 0, 12);
        let to = ArimaSpec::sarima(1, 0, 2, 1, 0, 1, 12);
        let prev = vec![0.1, 0.2, 0.3, 0.4];
        let adapted = adapt_unconstrained(&prev, &from, &to).unwrap();
        // p: keep first of [0.1, 0.2]; q: pad [0.3] with 0; sp: keep [0.4];
        // sq: new block starts at zero.
        assert_eq!(adapted, vec![0.1, 0.3, 0.0, 0.4, 0.0]);
        assert!(adapt_unconstrained(&[0.1], &from, &to).is_none());
    }

    #[test]
    fn residuals_of_good_fit_pass_ljung_box() {
        let y = simulate_arma(600, &[0.6], &[], 31);
        let fit = FittedArima::fit(&y, ArimaSpec::arima(1, 0, 0), &Default::default()).unwrap();
        let resid = &fit.residuals()[1..]; // skip conditioning zero
        let (_, p) = dwcp_series::acf::ljung_box(resid, 10, 1).unwrap();
        assert!(p > 0.01, "Ljung-Box p = {p}");
    }
}
