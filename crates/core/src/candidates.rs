//! Data-driven self-configuration (§5's "self-selection and
//! self-configuration of models").
//!
//! Before any model is fitted, the pipeline profiles the series: is it
//! stationary (ADF)? What differencing does it need? What seasonal periods
//! does it exhibit (periodogram + ACF)? Which ACF/PACF lags are
//! significant? The [`DataProfile`] answers those questions and a
//! [`CandidateSet`] turns them into a focused model list.

use crate::grid::{CandidateModel, ModelGrid};
use crate::Result;
use dwcp_series::diff::difference;
use dwcp_series::stationarity::{adf_test, AdfRegression};
use dwcp_series::{detect_seasonality, suggest_differencing, Correlogram, SeriesError};

/// Everything the pipeline learned about a series before model fitting.
#[derive(Debug, Clone)]
pub struct DataProfile {
    /// Suggested regular differencing order from repeated ADF testing.
    pub suggested_d: usize,
    /// Whether the undifferenced series already looks stationary.
    pub stationary: bool,
    /// Detected seasonal periods, strongest first.
    pub seasonal_periods: Vec<usize>,
    /// Whether more than one distinct cycle was confirmed — triggers
    /// Fourier terms per §4.4.
    pub multi_seasonal: bool,
    /// The correlogram over 30 lags (the paper's diagnostic window).
    pub correlogram: Correlogram,
    /// Number of observations profiled.
    pub n: usize,
}

impl DataProfile {
    /// Profile `values` (gap-free; interpolate first).
    pub fn analyze(values: &[f64]) -> Result<DataProfile> {
        let (suggested_d, stationary) = differencing_profile(values)?;
        let season_report = detect_seasonality(values, values.len() / 2)?;
        let correlogram = Correlogram::compute(values, 30)?;
        Ok(DataProfile {
            suggested_d,
            stationary,
            seasonal_periods: season_report.periods(),
            multi_seasonal: season_report.is_multi_seasonal(),
            correlogram,
            n: values.len(),
        })
    }

    /// The seasonal period used for the SARIMA `F` parameter.
    ///
    /// The paper ties `F` to the monitoring frequency ("12 months,
    /// 24 hours"), so when the granularity's natural period (`fallback`)
    /// is among the confirmed cycles it wins even if a shorter
    /// shock-driven cycle carries more spectral power — sub-daily backup
    /// cycles are modelled by Fourier terms and exogenous indicators, not
    /// by the seasonal ARIMA block. Only when the natural period is
    /// absent does the strongest detected cycle take over.
    pub fn primary_period(&self, fallback: usize) -> usize {
        let tolerance = 1 + fallback / 12;
        if self
            .seasonal_periods
            .iter()
            .any(|&p| p.abs_diff(fallback) <= tolerance)
        {
            return fallback;
        }
        self.seasonal_periods.first().copied().unwrap_or(fallback)
    }

    /// The detected periods as `f64`s for Fourier specs.
    pub fn fourier_periods(&self, fallback: usize) -> Vec<f64> {
        if self.seasonal_periods.is_empty() {
            vec![fallback as f64]
        } else {
            self.seasonal_periods.iter().map(|&p| p as f64).collect()
        }
    }
}

/// `(suggested_d, stationary)` from one ADF test of the undifferenced
/// series: the first step of [`suggest_differencing`] (up to `d = 2`) is
/// exactly the stationarity question, so its answer serves both. A series
/// too short to test is `d = 0` and not stationary; any other test error
/// propagates, as from [`suggest_differencing`].
fn differencing_profile(values: &[f64]) -> Result<(usize, bool)> {
    match adf_test(values, None, AdfRegression::Constant) {
        Ok(r) if r.stationary => Ok((0, true)),
        Ok(_) => Ok((1 + suggest_differencing(&difference(values, 1), 1)?, false)),
        Err(SeriesError::TooShort { .. }) => Ok((0, false)),
        Err(e) => Err(e.into()),
    }
}

/// A focused candidate list derived from a [`DataProfile`].
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// The models to evaluate, deterministic order.
    pub models: Vec<CandidateModel>,
    /// The profile they were derived from.
    pub profile: DataProfile,
}

impl CandidateSet {
    /// Build the pruned ARIMA candidate set for a profiled series.
    pub fn arima(profile: DataProfile, max_candidates: usize) -> CandidateSet {
        let grid = ModelGrid::arima().prune(&profile.correlogram, max_candidates);
        // Prefer the ADF-suggested differencing order: move matching d
        // values to the front so truncation keeps them.
        let mut models = grid.candidates;
        models.sort_by_key(|c| {
            // A non-SARIMAX candidate (none in today's ARIMA grid) sorts
            // last, deterministically, instead of panicking the sort.
            let Some(cand) = c.as_sarimax() else {
                return (true, usize::MAX, usize::MAX);
            };
            let spec = &cand.spec;
            (spec.d != profile.suggested_d.min(1), spec.p, spec.q)
        });
        models.truncate(max_candidates);
        CandidateSet { models, profile }
    }

    /// Build the pruned SARIMAX candidate set (optionally with exogenous
    /// columns) for a profiled series.
    pub fn sarimax(
        profile: DataProfile,
        fallback_period: usize,
        n_exog: usize,
        max_candidates: usize,
    ) -> CandidateSet {
        let period = profile.primary_period(fallback_period);
        let grid = if n_exog > 0 {
            ModelGrid::sarimax_exogenous(period, n_exog)
        } else {
            ModelGrid::sarimax(period)
        };
        let grid = grid.prune(&profile.correlogram, max_candidates * 4);
        let mut models = grid.candidates;
        models.sort_by_key(|c| {
            // Same quarantine as the ARIMA sort: unknown shapes go last.
            let Some(cand) = c.as_sarimax() else {
                return (true, usize::MAX, usize::MAX);
            };
            let spec = &cand.spec;
            (
                spec.d != profile.suggested_d.min(1),
                spec.p,
                spec.q + spec.seasonal_p + spec.seasonal_q,
            )
        });
        models.truncate(max_candidates);
        CandidateSet { models, profile }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seasonal_trending_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| {
                let tf = t as f64;
                50.0 + 0.3 * tf
                    + 15.0 * (2.0 * std::f64::consts::PI * tf / 24.0).sin()
                    + ((t * 7919 % 101) as f64) / 40.0
            })
            .collect()
    }

    #[test]
    fn differencing_profile_matches_the_two_test_composition() {
        // One ADF test at d = 0 must answer exactly what the separate
        // `suggest_differencing` + `adf_test` calls did.
        let old = |y: &[f64]| -> (usize, bool) {
            let d = suggest_differencing(y, 2).unwrap();
            let stationary = adf_test(y, None, AdfRegression::Constant)
                .map(|r| r.stationary)
                .unwrap_or(false);
            (d, stationary)
        };
        let mut state = 17u64;
        let mut noise = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let white: Vec<f64> = (0..300).map(|_| noise()).collect();
        let walk: Vec<f64> = white
            .iter()
            .scan(0.0, |acc, &e| {
                *acc += e;
                Some(*acc)
            })
            .collect();
        let trend: Vec<f64> = (0..300).map(|t| 0.5 * t as f64 + noise()).collect();
        let short: Vec<f64> = (0..11).map(|_| noise()).collect();
        for (name, y) in [
            ("white noise", &white),
            ("random walk", &walk),
            ("trend", &trend),
            ("short", &short),
        ] {
            assert_eq!(differencing_profile(y).unwrap(), old(y), "{name}");
        }
        assert_eq!(differencing_profile(&white).unwrap(), (0, true));
        assert_eq!(differencing_profile(&short).unwrap(), (0, false));
        assert!(differencing_profile(&walk).unwrap().0 >= 1);
    }

    #[test]
    fn profile_detects_trend_and_season() {
        let y = seasonal_trending_series(720);
        let p = DataProfile::analyze(&y).unwrap();
        assert_eq!(p.suggested_d, 1, "trend should force d = 1");
        assert_eq!(p.primary_period(99), 24);
    }

    #[test]
    fn profile_of_stationary_noise() {
        let mut state = 5u64;
        let y: Vec<f64> = (0..400)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect();
        let p = DataProfile::analyze(&y).unwrap();
        assert!(p.stationary);
        assert_eq!(p.suggested_d, 0);
        assert_eq!(p.primary_period(24), 24); // fallback used
    }

    #[test]
    fn arima_candidates_prefer_suggested_d() {
        let y = seasonal_trending_series(720);
        let profile = DataProfile::analyze(&y).unwrap();
        let set = CandidateSet::arima(profile, 12);
        assert!(!set.models.is_empty());
        assert!(set.models.len() <= 12);
        // The first candidates carry the suggested differencing.
        assert_eq!(set.models[0].as_sarimax().unwrap().spec.d, 1);
    }

    #[test]
    fn natural_period_preferred_over_stronger_short_cycle() {
        // A 6-hourly spike train dominates the spectrum, but the daily
        // cycle is also confirmed: F must stay 24 for hourly data.
        let y: Vec<f64> = (0..720)
            .map(|t| {
                let tf = t as f64;
                let mut v = 100.0
                    + 8.0 * (2.0 * std::f64::consts::PI * tf / 24.0).sin()
                    + ((t * 7919 % 101) as f64) / 40.0;
                if t % 6 == 0 {
                    v += 60.0; // spike amplitude dwarfs the daily swing
                }
                v
            })
            .collect();
        let p = DataProfile::analyze(&y).unwrap();
        assert!(p.seasonal_periods.contains(&24), "{:?}", p.seasonal_periods);
        assert_eq!(p.primary_period(24), 24);
    }

    #[test]
    fn strongest_cycle_used_when_natural_period_absent() {
        // Pure 12-cycle data at "hourly" granularity: no period-24 cycle
        // confirmed, so the detected 12 wins over the fallback 24.
        let y: Vec<f64> = (0..480)
            .map(|t| {
                50.0 + 20.0 * (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin()
                    + ((t * 31 % 17) as f64) / 20.0
            })
            .collect();
        let p = DataProfile::analyze(&y).unwrap();
        assert_eq!(p.primary_period(24), 12, "{:?}", p.seasonal_periods);
    }

    #[test]
    fn sarimax_candidates_use_detected_period() {
        let y = seasonal_trending_series(720);
        let profile = DataProfile::analyze(&y).unwrap();
        let set = CandidateSet::sarimax(profile, 99, 0, 16);
        assert!(set
            .models
            .iter()
            .all(|c| c.as_sarimax().unwrap().spec.period == 24));
    }

    #[test]
    fn exogenous_columns_flow_through() {
        let y = seasonal_trending_series(720);
        let profile = DataProfile::analyze(&y).unwrap();
        let set = CandidateSet::sarimax(profile, 24, 4, 10);
        assert!(set
            .models
            .iter()
            .all(|c| c.as_sarimax().unwrap().n_exog == 4));
    }

    #[test]
    fn fourier_periods_fall_back() {
        let mut state = 11u64;
        let y: Vec<f64> = (0..300)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as f64 / (1u64 << 31) as f64
            })
            .collect();
        let p = DataProfile::analyze(&y).unwrap();
        assert_eq!(p.fourier_periods(24), vec![24.0]);
    }
}
