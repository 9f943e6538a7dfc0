//! Interpretable automatic ARIMA order selection (§6.3's correlogram
//! pruning, taken to its conclusion).
//!
//! The 180-model sweep evaluates every `(p, d, q)` in `p ∈ 1..=30`,
//! `d ∈ {0,1}`, `q ∈ {0,1,2}` — but the classical Box-Jenkins diagnostics
//! already say which corner of that cube a series lives in: unit-root
//! tests (ADF and KPSS) decide the differencing order, the PACF of the
//! differenced series marks the plausible AR cut-offs, and the ACF marks
//! the MA cut-off. [`AutoOrderPlan::analyze`] turns those three readings
//! into a seeded neighbourhood grid of at most `max_candidates` models
//! (the acceptance budget is 40 % of the full sweep), and
//! [`evaluate_auto_order`] evaluates it with the same engine, champion
//! selection and determinism guarantees as the full sweep.
//!
//! Pruning is a bet, so it carries the same insurance as a degraded
//! champion's neighbourhood search ([`crate::fleet`]): the pruned champion's held-out RMSE must
//! beat a naive benchmark forecast (random walk, with drift when the
//! series was differenced, or the seasonal-naive repeat when the caller
//! names a period) scaled by a degradation factor — otherwise the full
//! grid is evaluated as a fallback and the better champion wins. A series
//! whose structure the correlogram heuristics miss therefore costs one
//! extra sweep instead of silently losing accuracy.

use crate::evaluate::{evaluate_candidates, EvaluationOptions, EvaluationReport};
use crate::grid::{CandidateModel, ModelConfig, ModelFamily, ModelGrid};
use crate::Result;
use dwcp_models::{ArimaSpec, SarimaxConfig};
use dwcp_series::diff::difference;
use dwcp_series::stationarity::AdfRegression;
use dwcp_series::{adf_test, kpss_test, Correlogram};

/// The AR-order search ceiling — the full grid's `p ∈ 1..=30`.
const MAX_P: usize = 30;
/// The MA-order ceiling — the full grid's `q ∈ {0,1,2}`.
const MAX_Q: usize = 2;

/// Tuning knobs for the auto-order search.
#[derive(Debug, Clone)]
pub struct AutoOrderOptions {
    /// Cap on seeded candidates (default 72 — 40 % of the 180 sweep).
    pub max_candidates: usize,
    /// The pruned champion must reach `benchmark_rmse × degradation_factor`
    /// or the full grid is evaluated as a fallback. `1.0` means "beat the
    /// naive forecast outright"; lower is stricter.
    pub degradation_factor: f64,
    /// Seasonal period for the naive benchmark (`None` = random walk /
    /// drift only). A seasonal benchmark makes the degradation guard catch
    /// pruned grids that missed the seasonality.
    pub benchmark_period: Option<usize>,
    /// Seasonal period for order seeding (`None` = plain ARIMA orders
    /// only, the legacy behaviour). When set, the seasonal-lag ACF/PACF
    /// seed `(P, D, Q)` the same way the non-seasonal correlogram seeds
    /// `(p, d, q)` — see [`AutoOrderPlan::analyze_seasonal`].
    pub seasonal_period: Option<usize>,
}

impl Default for AutoOrderOptions {
    fn default() -> AutoOrderOptions {
        AutoOrderOptions {
            max_candidates: 72,
            degradation_factor: 1.0,
            benchmark_period: None,
            seasonal_period: None,
        }
    }
}

/// The seasonal order decisions read off the seasonal-lag correlogram —
/// the §6.3 lattice's `(P, D, Q)`, diagnosed instead of enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeasonalDiagnostics {
    /// The seasonal period `m` the lags were read at.
    pub period: usize,
    /// Seasonal differencing order: 1 when the ACF at lags `m` and `2m`
    /// is significantly positive at both (a persistent seasonal level),
    /// else 0.
    pub seasonal_d: usize,
    /// Whether the PACF at lag `m` of the (seasonally) differenced series
    /// is significant — admits `P = 1` candidates.
    pub p_seasonal: bool,
    /// Whether the ACF at lag `m` of the (seasonally) differenced series
    /// is significant — admits `Q = 1` candidates.
    pub q_seasonal: bool,
}

impl SeasonalDiagnostics {
    /// The `(P, D, Q)` variants the diagnostics admit, plain `(0,0,0)`
    /// always first (the non-seasonal bet stays on the table).
    fn variants(&self) -> Vec<(usize, usize, usize)> {
        let mut out = vec![(0, 0, 0)];
        let p_opts: &[usize] = if self.p_seasonal { &[0, 1] } else { &[0] };
        let q_opts: &[usize] = if self.q_seasonal { &[0, 1] } else { &[0] };
        for &sp in p_opts {
            for &sq in q_opts {
                if (sp, self.seasonal_d, sq) != (0, 0, 0) {
                    out.push((sp, self.seasonal_d, sq));
                }
            }
        }
        out
    }
}

/// The interpretable order decisions behind a seeded grid: every field is
/// a classical diagnostic a practitioner could read off the correlogram.
#[derive(Debug, Clone)]
pub struct AutoOrderPlan {
    /// Differencing order from the ADF/KPSS agreement rule.
    pub d: usize,
    /// Whether the ADF test called the undifferenced series stationary.
    pub adf_stationary: bool,
    /// Whether the KPSS test rejected stationarity of the undifferenced
    /// series.
    pub kpss_rejected: bool,
    /// Seeded AR orders, ascending: the significant PACF lags of the
    /// differenced series (strongest first under the budget) and their ±1
    /// neighbours.
    pub p_set: Vec<usize>,
    /// MA ceiling: the largest significant ACF lag ≤ 2.
    pub q_max: usize,
    /// Seasonal order diagnostics, present when a period was supplied and
    /// the series is long enough to read the seasonal lags.
    pub seasonal: Option<SeasonalDiagnostics>,
    /// The seeded candidate grid, deterministic order.
    pub grid: ModelGrid,
}

impl AutoOrderPlan {
    /// Read the order diagnostics off `train` and seed the neighbourhood
    /// grid, at most `max_candidates` strong.
    ///
    /// * `d` — 0 only when ADF says stationary **and** KPSS does not
    ///   reject it; any disagreement differences once (the conservative
    ///   reading of the pair, and the full grid's `d` ceiling).
    /// * `p` — significant PACF lags of the `d`-differenced series, taken
    ///   strongest-|PACF| first while the budget lasts, each bringing its
    ///   ±1 neighbours (an order cut-off read off a finite-sample PACF is
    ///   easily off by one). A flat PACF (white noise) seeds `{1, 2, 3}`,
    ///   matching [`ModelGrid::prune`]'s degenerate case.
    /// * `q` — the classical ACF cut-off, capped at the grid's `q ≤ 2`.
    pub fn analyze(train: &[f64], max_candidates: usize) -> Result<AutoOrderPlan> {
        AutoOrderPlan::analyze_seasonal(train, max_candidates, None)
    }

    /// [`AutoOrderPlan::analyze`] plus seasonal order seeding: with a
    /// period `m`, the seasonal lags of the correlogram are read the same
    /// way the short lags seed `(p, d, q)`:
    ///
    /// * `D` — 1 when the ACF is significantly **positive** at both `m`
    ///   and `2m` (a seasonal pattern that persists across cycles, the
    ///   seasonal analogue of a unit root), else 0.
    /// * `P` — `{0, 1}` when the PACF at lag `m` of the seasonally
    ///   differenced series is still significant, else `{0}`.
    /// * `Q` — `{0, 1}` when the ACF at lag `m` is still significant,
    ///   else `{0}`.
    ///
    /// The admitted `(P, D, Q)` variants multiply the non-seasonal grid
    /// (plain `(0,0,0)` always stays in the race), and the AR budget
    /// shrinks to keep the total under `max_candidates`. A series too
    /// short to read lag `2m` (fewer than `4m + 2` differenced points)
    /// falls back to the non-seasonal analysis. `period = None` is
    /// exactly the legacy [`AutoOrderPlan::analyze`].
    pub fn analyze_seasonal(
        train: &[f64],
        max_candidates: usize,
        period: Option<usize>,
    ) -> Result<AutoOrderPlan> {
        let adf_stationary = adf_test(train, None, AdfRegression::Constant)
            .map(|r| r.stationary)
            .unwrap_or(false);
        let kpss_rejected = kpss_test(train, false).map(|r| r.rejected).unwrap_or(true);
        let d = usize::from(!adf_stationary || kpss_rejected);

        let mut w: Vec<f64> = if d == 0 {
            train.to_vec()
        } else {
            difference(train, 1)
        };

        // Seasonal diagnostics: read lags m and 2m off the d-differenced
        // series, decide D, then (on the seasonally differenced series if
        // D = 1) whether P and Q candidates are warranted. Guarded so the
        // non-seasonal correlogram below always has enough points.
        let mut seasonal = None;
        if let Some(m) = period {
            if m >= 2 && w.len() >= 4 * m + 2 && w.len() - m > MAX_P + 1 {
                let c1 = Correlogram::compute(&w, 2 * m)?;
                let acf_m = c1.acf.get(m).copied().unwrap_or(0.0);
                let acf_2m = c1.acf.get(2 * m).copied().unwrap_or(0.0);
                let seasonal_d = usize::from(acf_m > c1.significance && acf_2m > c1.significance);
                let c2;
                let c_after = if seasonal_d == 1 {
                    w = difference(&w, m);
                    c2 = Correlogram::compute(&w, m)?;
                    &c2
                } else {
                    &c1
                };
                let significant =
                    |v: Option<&f64>| v.map(|v| v.abs() > c_after.significance).unwrap_or(false);
                seasonal = Some(SeasonalDiagnostics {
                    period: m,
                    seasonal_d,
                    p_seasonal: significant(c_after.pacf.get(m)),
                    q_seasonal: significant(c_after.acf.get(m)),
                });
            }
        }
        let variants = seasonal
            .as_ref()
            .map(SeasonalDiagnostics::variants)
            .unwrap_or_else(|| vec![(0, 0, 0)]);

        let corr = Correlogram::compute(&w, MAX_P)?;
        let q_max = corr.suggested_ma_order(MAX_Q);

        // Rank significant PACF lags strongest first (ties to the shorter
        // lag), then spend the candidate budget on them and their ±1
        // neighbours.
        let mut ranked: Vec<usize> = corr
            .significant_pacf_lags()
            .into_iter()
            .filter(|&l| l <= MAX_P)
            .collect();
        let strength = |lag: usize| corr.pacf.get(lag).map(|v| v.abs()).unwrap_or(0.0);
        ranked.sort_by(|&a, &b| dwcp_math::total_cmp_f64(strength(b), strength(a)).then(a.cmp(&b)));
        let budget = (max_candidates / ((q_max + 1) * variants.len())).max(1);
        let mut p_set: Vec<usize> = Vec::new();
        let admit = |p_set: &mut Vec<usize>, p: usize| {
            if (1..=MAX_P).contains(&p) && p_set.len() < budget && !p_set.contains(&p) {
                p_set.push(p);
            }
        };
        for &lag in &ranked {
            admit(&mut p_set, lag);
            admit(&mut p_set, lag.saturating_sub(1));
            admit(&mut p_set, lag + 1);
        }
        if p_set.is_empty() {
            for p in 1..=3 {
                admit(&mut p_set, p);
            }
        }
        p_set.sort_unstable();

        let mut candidates = Vec::with_capacity(p_set.len() * (q_max + 1) * variants.len());
        for &p in &p_set {
            for q in 0..=q_max {
                for &(sp, sd, sq) in &variants {
                    let (family, spec) = if (sp, sd, sq) == (0, 0, 0) {
                        (ModelFamily::Arima, ArimaSpec::arima(p, d, q))
                    } else {
                        let m = seasonal.map(|s| s.period).unwrap_or(1);
                        (
                            ModelFamily::Sarimax,
                            ArimaSpec::sarima(p, d, q, sp, sd, sq, m),
                        )
                    };
                    candidates.push(CandidateModel {
                        family,
                        config: ModelConfig::Sarimax(SarimaxConfig::plain(spec)),
                    });
                }
            }
        }
        Ok(AutoOrderPlan {
            d,
            adf_stationary,
            kpss_rejected,
            p_set,
            q_max,
            seasonal,
            grid: ModelGrid { candidates },
        })
    }
}

/// The outcome of an auto-order evaluation.
#[derive(Debug)]
pub struct AutoOrderReport {
    /// The evaluation — the seeded grid alone, or (after a fallback) the
    /// seeded grid absorbed into the full sweep, champion = best of both.
    pub report: EvaluationReport,
    /// The order diagnostics and the seeded grid they produced.
    pub plan: AutoOrderPlan,
    /// The naive benchmark RMSE the degradation guard compared against.
    pub benchmark_rmse: f64,
    /// Whether the seeded champion degraded past the threshold and the
    /// full grid was evaluated.
    pub fell_back: bool,
}

/// Evaluate the ACF/PACF-seeded grid, guard the result against the naive
/// benchmark, and fall back to `full_grid` on degradation — the
/// `--grid auto-order` mode.
///
/// The fallback mirrors a degraded champion's neighbourhood search: the
/// seeded pass is a
/// bet, the benchmark threshold decides whether it paid off, and a missed
/// bet costs one full sweep (both passes' work is counted in the report's
/// stats; the champion is the best model either pass found).
pub fn evaluate_auto_order(
    train: &[f64],
    test: &[f64],
    exog_train: &[Vec<f64>],
    exog_test: &[Vec<f64>],
    full_grid: &[CandidateModel],
    eval_opts: &EvaluationOptions,
    auto_opts: &AutoOrderOptions,
) -> Result<AutoOrderReport> {
    let plan = AutoOrderPlan::analyze_seasonal(
        train,
        auto_opts.max_candidates,
        auto_opts.seasonal_period,
    )?;
    let mut report = evaluate_candidates(
        train,
        test,
        exog_train,
        exog_test,
        &plan.grid.candidates,
        eval_opts,
    )?;
    let benchmark_rmse = naive_benchmark_rmse(train, test, plan.d, auto_opts.benchmark_period);
    let threshold = benchmark_rmse * auto_opts.degradation_factor;
    // NaN-greatest ordering: a NaN champion RMSE counts as degraded.
    let degraded = report
        .champion()
        .map(|c| dwcp_math::total_cmp_f64(c.accuracy.rmse, threshold).is_gt())
        .unwrap_or(true);
    let mut fell_back = false;
    if degraded {
        fell_back = true;
        let full = evaluate_candidates(train, test, exog_train, exog_test, full_grid, eval_opts)?;
        report.absorb(full);
    }
    Ok(AutoOrderReport {
        report,
        plan,
        benchmark_rmse,
        fell_back,
    })
}

/// Held-out RMSE of the strongest applicable naive forecast: the seasonal
/// repeat (`ŷ_{n+h} = y_{n−m+((h) mod m)}`) when a period is supplied and
/// fits the series, otherwise the random walk (`ŷ = y_n`, plus the mean
/// drift when the series was differenced). This is the forecast a pruned
/// grid must beat for the pruning bet to stand.
pub(crate) fn naive_benchmark_rmse(
    train: &[f64],
    test: &[f64],
    d: usize,
    period: Option<usize>,
) -> f64 {
    let Some(&last) = train.last() else {
        return f64::INFINITY;
    };
    if test.is_empty() {
        return f64::INFINITY;
    }
    if let Some(m) = period {
        if m >= 2 && train.len() >= m {
            // lint: allow(indexing) — tail slice guarded by train.len() >= m just above
            let season = &train[train.len() - m..];
            let sse: f64 = test
                .iter()
                .enumerate()
                .map(|(h, &y)| {
                    let e = y - season.get(h % m).copied().unwrap_or(last);
                    e * e
                })
                .sum();
            return (sse / test.len() as f64).sqrt();
        }
    }
    let slope = match train.first() {
        Some(&first) if d > 0 && train.len() > 1 => (last - first) / (train.len() - 1) as f64,
        _ => 0.0,
    };
    let sse: f64 = test
        .iter()
        .enumerate()
        .map(|(h, &y)| {
            let e = y - (last + (h + 1) as f64 * slope);
            e * e
        })
        .sum();
    (sse / test.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG noise in `[-1, 1)`.
    fn noise(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }

    fn ar2_series(n: usize) -> Vec<f64> {
        let mut y = vec![0.0; n];
        let mut state = 7u64;
        for t in 2..n {
            let e = noise(&mut state);
            y[t] = 0.6 * y[t - 1] + 0.25 * y[t - 2] + e;
        }
        y
    }

    fn ma1_series(n: usize) -> Vec<f64> {
        let mut y = vec![0.0; n];
        let mut state = 11u64;
        let mut prev_e = 0.0;
        for v in y.iter_mut() {
            let e = noise(&mut state);
            *v = e + 0.7 * prev_e;
            prev_e = e;
        }
        y
    }

    fn random_walk(n: usize) -> Vec<f64> {
        let mut y = vec![0.0; n];
        let mut state = 13u64;
        for t in 1..n {
            y[t] = y[t - 1] + noise(&mut state);
        }
        y
    }

    fn seasonal_ar_series(n: usize, m: usize) -> Vec<f64> {
        let mut y = vec![0.0; n];
        let mut state = 17u64;
        for t in m..n {
            y[t] = 0.8 * y[t - m] + 0.3 * noise(&mut state);
        }
        y
    }

    #[test]
    fn ar2_neighbourhood_contains_the_true_order() {
        let plan = AutoOrderPlan::analyze(&ar2_series(1200), 72).unwrap();
        assert_eq!(plan.d, 0, "a stationary AR(2) needs no differencing");
        assert!(plan.p_set.contains(&2), "p_set {:?} misses 2", plan.p_set);
        assert!(plan.grid.len() <= 72);
        assert!(!plan.grid.is_empty());
    }

    #[test]
    fn ma1_raises_the_q_ceiling() {
        let plan = AutoOrderPlan::analyze(&ma1_series(1200), 72).unwrap();
        assert_eq!(plan.d, 0);
        assert!(plan.q_max >= 1, "ACF cut-off missed the MA(1) lag");
        // Every seeded candidate carries the diagnosed differencing.
        for c in &plan.grid.candidates {
            assert_eq!(c.as_sarimax().unwrap().spec.d, 0);
        }
    }

    #[test]
    fn random_walk_is_differenced_once() {
        let plan = AutoOrderPlan::analyze(&random_walk(1200), 72).unwrap();
        assert_eq!(plan.d, 1, "unit root must trigger differencing");
        for c in &plan.grid.candidates {
            assert_eq!(c.as_sarimax().unwrap().spec.d, 1);
        }
    }

    #[test]
    fn seasonal_lag_survives_the_budget() {
        let plan = AutoOrderPlan::analyze(&seasonal_ar_series(1200, 12), 72).unwrap();
        assert!(
            plan.p_set.contains(&12),
            "p_set {:?} misses the seasonal lag 12",
            plan.p_set
        );
        // The ±1 neighbourhood rides along with its seed.
        assert!(plan.p_set.contains(&11) || plan.p_set.contains(&13));
    }

    #[test]
    fn budget_is_respected_and_deterministic() {
        let y = ar2_series(1200);
        let a = AutoOrderPlan::analyze(&y, 12).unwrap();
        let b = AutoOrderPlan::analyze(&y, 12).unwrap();
        assert!(a.grid.len() <= 12);
        assert_eq!(a.p_set, b.p_set);
        assert_eq!(a.q_max, b.q_max);
    }

    #[test]
    fn auto_order_beats_benchmark_without_fallback() {
        let y = ar2_series(600);
        let (train, test) = y.split_at(560);
        let full = ModelGrid::arima();
        let opts = EvaluationOptions {
            cache_transforms: true,
            warm_start: true,
            ..Default::default()
        };
        let auto = evaluate_auto_order(
            train,
            test,
            &[],
            &[],
            &full.candidates,
            &opts,
            &AutoOrderOptions::default(),
        )
        .unwrap();
        assert!(!auto.fell_back, "AR(2) must not trip the naive guard");
        assert!(auto.report.attempted <= 72);
        let champion = auto.report.champion().unwrap();
        assert!(champion.accuracy.rmse <= auto.benchmark_rmse);
    }

    #[test]
    fn impossible_threshold_falls_back_to_the_full_grid() {
        let y = ar2_series(600);
        let (train, test) = y.split_at(560);
        // Keep the fallback sweep small — the mechanism, not the 180
        // models, is under test.
        let full: Vec<CandidateModel> = ModelGrid::arima()
            .candidates
            .into_iter()
            .filter(|c| c.as_sarimax().unwrap().spec.p <= 3)
            .collect();
        let opts = EvaluationOptions {
            cache_transforms: true,
            warm_start: true,
            ..Default::default()
        };
        let auto = evaluate_auto_order(
            train,
            test,
            &[],
            &[],
            &full,
            &opts,
            &AutoOrderOptions {
                degradation_factor: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(auto.fell_back, "factor 0 must always degrade");
        // Both passes are counted.
        let seeded = auto.plan.grid.len();
        assert_eq!(auto.report.attempted, seeded + full.len());
        assert!(auto.report.champion().is_some());
    }

    #[test]
    fn seasonal_period_seeds_seasonal_orders() {
        let plan =
            AutoOrderPlan::analyze_seasonal(&seasonal_ar_series(1200, 12), 72, Some(12)).unwrap();
        let seasonal = plan.seasonal.expect("long seasonal series is diagnosed");
        assert_eq!(seasonal.period, 12);
        assert_eq!(
            seasonal.seasonal_d, 1,
            "persistent positive ACF at m and 2m must difference seasonally"
        );
        // At least one candidate carries diagnosed seasonal orders, and
        // the plain non-seasonal bet stays in the race.
        let specs: Vec<_> = plan
            .grid
            .candidates
            .iter()
            .map(|c| c.as_sarimax().unwrap().spec)
            .collect();
        assert!(
            specs.iter().any(|s| s.seasonal_d == 1 && s.period == 12),
            "no seasonal candidate in {specs:?}"
        );
        assert!(
            specs
                .iter()
                .any(|s| (s.seasonal_p, s.seasonal_d, s.seasonal_q) == (0, 0, 0)),
            "plain variant dropped from {specs:?}"
        );
        assert!(plan.grid.len() <= 72, "budget blown: {}", plan.grid.len());
    }

    #[test]
    fn non_seasonal_series_with_period_matches_legacy_grid() {
        // White noise shows nothing at the seasonal lags, so supplying a
        // period must not change the seeded grid at all.
        let mut state = 23u64;
        let y: Vec<f64> = (0..1200).map(|_| noise(&mut state)).collect();
        let legacy = AutoOrderPlan::analyze(&y, 72).unwrap();
        let seasonal = AutoOrderPlan::analyze_seasonal(&y, 72, Some(12)).unwrap();
        let diag = seasonal.seasonal.expect("diagnostics still recorded");
        assert_eq!(diag.seasonal_d, 0);
        assert!(!diag.p_seasonal && !diag.q_seasonal);
        assert_eq!(legacy.p_set, seasonal.p_set);
        assert_eq!(legacy.q_max, seasonal.q_max);
        assert_eq!(legacy.grid.len(), seasonal.grid.len());
        for (a, b) in legacy.grid.candidates.iter().zip(&seasonal.grid.candidates) {
            assert_eq!(a.as_sarimax().unwrap().spec, b.as_sarimax().unwrap().spec);
        }
    }

    #[test]
    fn short_series_skips_seasonal_diagnostics() {
        // Fewer than 4m + 2 differenced points: seasonal reading declined,
        // plain analysis still succeeds.
        let plan = AutoOrderPlan::analyze_seasonal(&ar2_series(60), 72, Some(24)).unwrap();
        assert!(plan.seasonal.is_none());
        assert!(!plan.grid.is_empty());
    }

    #[test]
    fn benchmark_uses_seasonal_naive_when_period_fits() {
        let y = seasonal_ar_series(600, 12);
        let (train, test) = y.split_at(560);
        let seasonal = naive_benchmark_rmse(train, test, 0, Some(12));
        let flat = naive_benchmark_rmse(train, test, 0, None);
        assert!(seasonal < flat, "seasonal naive {seasonal} vs flat {flat}");
        // Degenerate inputs stay total.
        assert!(naive_benchmark_rmse(&[], test, 0, None).is_infinite());
        assert!(naive_benchmark_rmse(train, &[], 1, Some(12)).is_infinite());
    }
}
