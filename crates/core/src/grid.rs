//! The §6.3 model spaces.
//!
//! "The three techniques and the number of models are:
//!  * ARIMA p,d,q = 180 models per instance (totalling 360 models)
//!  * SARIMAX p,d,q,P,D,Q,F = 660 models per instance (totalling 1320)
//!  * SARIMAX p,d,q,P,D,Q,F + Exogenous (4) + Fourier Terms (2) = 666
//!    models per instance (totalling 1332)"
//!
//! and: "we measure the data over 30 lags, so each lag has a maximum of 22
//! models". The paper does not enumerate the 22, so this module fixes a
//! concrete 22-element (d,q,P,D,Q) menu per AR lag (documented in
//! DESIGN.md) whose totals reproduce the counts exactly: 30 lags × 6
//! (d,q) pairs = 180 ARIMA; 30 lags × 22 = 660 SARIMAX; and the
//! Fourier-augmentation stage adds 6 variants of the RMSE-best SARIMAX
//! (+Exogenous) model, giving 666.
//!
//! Beyond the ARIMA family the grid also enumerates the §4.3 methods as
//! first-class candidates: the HES menu (SES, Holt, damped Holt,
//! Holt-Winters additive/multiplicative) and the TBATS configuration
//! lattice. Every candidate — whatever its family — carries a
//! [`ModelConfig`] and flows through the same evaluation engine, champion
//! selection and repository persistence.
//!
//! The correlogram-based pruning ("looking at where the data points
//! intersect with the shaded areas … reducing the thousands of potential
//! models considerably") lives here too.

use dwcp_models::fourier::FourierSpec;
use dwcp_models::{ArimaSpec, EtsConfig, SarimaxConfig, TbatsConfig, TbatsSeason};
use dwcp_models::{SeasonalKind, TrendKind};
use dwcp_series::Correlogram;
use serde::{Deserialize, Serialize};

/// Which of the paper's techniques a candidate belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Plain ARIMA(p,d,q).
    Arima,
    /// Seasonal SARIMAX(p,d,q)(P,D,Q,F) without regressors.
    Sarimax,
    /// SARIMAX with exogenous shock indicators and Fourier terms.
    SarimaxFftExogenous,
    /// The exponential-smoothing family the paper calls HES (§4.3).
    Hes,
    /// TBATS (§4.3, equations 7-14).
    Tbats,
}

impl ModelFamily {
    /// Every family, in the canonical reporting order. Per-family stats
    /// arrays are sized and indexed from this list, so adding a family is
    /// a one-site change.
    pub const ALL: [ModelFamily; 5] = [
        ModelFamily::Arima,
        ModelFamily::Sarimax,
        ModelFamily::SarimaxFftExogenous,
        ModelFamily::Hes,
        ModelFamily::Tbats,
    ];

    /// Number of families (the size of per-family stats arrays).
    pub const COUNT: usize = ModelFamily::ALL.len();

    /// Position of this family in [`ModelFamily::ALL`].
    pub fn index(self) -> usize {
        // Total match instead of a scan-and-expect over ALL; the
        // round-trip test below keeps this table honest.
        match self {
            ModelFamily::Arima => 0,
            ModelFamily::Sarimax => 1,
            ModelFamily::SarimaxFftExogenous => 2,
            ModelFamily::Hes => 3,
            ModelFamily::Tbats => 4,
        }
    }

    /// The label used in the paper's result tables.
    pub fn label(self) -> &'static str {
        match self {
            ModelFamily::Arima => "ARIMA",
            ModelFamily::Sarimax => "SARIMAX",
            ModelFamily::SarimaxFftExogenous => "SARIMAX FFT Exogenous",
            ModelFamily::Hes => "HES",
            ModelFamily::Tbats => "TBATS",
        }
    }
}

/// A family-agnostic model configuration: everything the evaluation
/// engine, the repository and the fleet scheduler need to fit, persist and
/// relearn a candidate, whatever its family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelConfig {
    /// An ARIMA-family configuration (plain, seasonal, or with regression).
    Sarimax(SarimaxConfig),
    /// An exponential-smoothing configuration (the paper's HES).
    Ets(EtsConfig),
    /// A TBATS configuration.
    Tbats(TbatsConfig),
}

impl ModelConfig {
    /// Human-readable descriptor (the champion column of the tables).
    pub fn describe(&self) -> String {
        match self {
            ModelConfig::Sarimax(c) => c.describe(),
            ModelConfig::Ets(c) => c.name(),
            ModelConfig::Tbats(c) => c.describe(),
        }
    }

    /// The family bucket this configuration reports under.
    pub fn family(&self) -> ModelFamily {
        match self {
            ModelConfig::Sarimax(c) => sarimax_family_of(c),
            ModelConfig::Ets(_) => ModelFamily::Hes,
            ModelConfig::Tbats(_) => ModelFamily::Tbats,
        }
    }

    /// The SARIMAX configuration, when this is an ARIMA-family candidate.
    pub fn as_sarimax(&self) -> Option<&SarimaxConfig> {
        match self {
            ModelConfig::Sarimax(c) => Some(c),
            _ => None,
        }
    }

    /// The ETS configuration, when this is an HES candidate.
    pub fn as_ets(&self) -> Option<&EtsConfig> {
        match self {
            ModelConfig::Ets(c) => Some(c),
            _ => None,
        }
    }

    /// The TBATS configuration, when this is a TBATS candidate.
    pub fn as_tbats(&self) -> Option<&TbatsConfig> {
        match self {
            ModelConfig::Tbats(c) => Some(c),
            _ => None,
        }
    }

    /// Number of unconstrained optimiser parameters a fit of this
    /// configuration converges — the length a stored warm seed must have
    /// to be frozen-re-scored verbatim.
    pub fn n_optimiser_params(&self) -> usize {
        match self {
            ModelConfig::Sarimax(c) => c.spec.n_params(),
            ModelConfig::Ets(c) => c.n_params(),
            ModelConfig::Tbats(c) => c.n_params(),
        }
    }

    /// The canonical form of this configuration: degenerate components
    /// that cannot influence the fitted model are normalised away, so two
    /// configs describing the same effective model compare equal.
    ///
    /// * ETS — a seasonal component with period below 2 carries no
    ///   seasonal information (a single phase is absorbed by the level);
    ///   it collapses to [`SeasonalKind::None`], so e.g. Holt-Winters
    ///   additive at period 1 canonicalises to plain Holt.
    /// * TBATS — seasonal blocks below period 2 or without harmonics are
    ///   dropped, and damping without a trend state is cleared (Φ only
    ///   enters the recursion through the trend, so a trendless damped
    ///   config optimises a parameter the filter never reads).
    /// * SARIMAX — already canonical; returned unchanged.
    pub fn canonical(&self) -> ModelConfig {
        match self {
            ModelConfig::Sarimax(c) => ModelConfig::Sarimax(c.clone()),
            ModelConfig::Ets(c) => {
                let mut c = *c;
                if c.seasonal.period() < 2 {
                    c.seasonal = SeasonalKind::None;
                }
                ModelConfig::Ets(c)
            }
            ModelConfig::Tbats(c) => {
                let mut c = c.clone();
                c.seasons.retain(|s| s.period >= 2.0 && s.harmonics > 0);
                if c.use_damping && !c.use_trend {
                    c.use_damping = false;
                }
                ModelConfig::Tbats(c)
            }
        }
    }
}

/// Canonicalise every candidate's configuration and drop duplicates,
/// keeping the first occurrence of each `(family, canonical config)` key —
/// deterministic order is preserved, so the candidate-index champion
/// tie-break still resolves to the earliest (simplest) member. The union
/// grid `--method auto` queues is deduplicated with this before
/// evaluation so equivalent ETS/TBATS shapes are fitted once.
pub fn dedupe_candidates(candidates: &mut Vec<CandidateModel>) {
    let mut seen: Vec<(ModelFamily, ModelConfig)> = Vec::with_capacity(candidates.len());
    candidates.retain_mut(|c| {
        let canon = c.config.canonical();
        if seen.iter().any(|(f, cfg)| *f == c.family && *cfg == canon) {
            return false;
        }
        c.config = canon.clone();
        seen.push((c.family, canon));
        true
    });
}

impl From<SarimaxConfig> for ModelConfig {
    fn from(c: SarimaxConfig) -> ModelConfig {
        ModelConfig::Sarimax(c)
    }
}

impl From<EtsConfig> for ModelConfig {
    fn from(c: EtsConfig) -> ModelConfig {
        ModelConfig::Ets(c)
    }
}

impl From<TbatsConfig> for ModelConfig {
    fn from(c: TbatsConfig) -> ModelConfig {
        ModelConfig::Tbats(c)
    }
}

/// One candidate model in a grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateModel {
    /// Family bucket for reporting.
    pub family: ModelFamily,
    /// Full configuration.
    pub config: ModelConfig,
}

impl CandidateModel {
    /// Build a candidate, deriving its family from the configuration.
    pub fn new(config: ModelConfig) -> CandidateModel {
        CandidateModel {
            family: config.family(),
            config,
        }
    }

    /// The SARIMAX configuration, for ARIMA-family candidates.
    pub fn as_sarimax(&self) -> Option<&SarimaxConfig> {
        self.config.as_sarimax()
    }
}

/// A generated model grid.
///
/// ```
/// use dwcp_core::ModelGrid;
///
/// // The §6.3 cardinalities.
/// assert_eq!(ModelGrid::arima().len(), 180);
/// assert_eq!(ModelGrid::sarimax(24).len(), 660);
/// let exo = ModelGrid::sarimax_exogenous(24, 4);
/// let base = exo.candidates[0].as_sarimax().unwrap();
/// let variants = ModelGrid::fourier_variants(base, &[24.0, 168.0]);
/// assert_eq!(exo.len() + variants.len(), 666);
/// ```
#[derive(Debug, Clone)]
pub struct ModelGrid {
    /// The candidates, in deterministic order.
    pub candidates: Vec<CandidateModel>,
}

/// The fixed 22-element seasonal menu per AR lag: every combination of
/// `d ∈ {0,1}`, `q ∈ {0,1,2}` with the three seasonal shapes that include a
/// seasonal MA or AR term next to seasonal differencing (18), plus four
/// seasonal-AR-only shapes on the `q ≥ 1` corners (4).
const SEASONAL_MENU: [(usize, usize, usize, usize, usize); 22] = [
    // (d, q, P, D, Q) — 18 core combinations
    (0, 0, 0, 1, 1),
    (0, 0, 1, 0, 1),
    (0, 0, 1, 1, 1),
    (0, 1, 0, 1, 1),
    (0, 1, 1, 0, 1),
    (0, 1, 1, 1, 1),
    (0, 2, 0, 1, 1),
    (0, 2, 1, 0, 1),
    (0, 2, 1, 1, 1),
    (1, 0, 0, 1, 1),
    (1, 0, 1, 0, 1),
    (1, 0, 1, 1, 1),
    (1, 1, 0, 1, 1),
    (1, 1, 1, 0, 1),
    (1, 1, 1, 1, 1),
    (1, 2, 0, 1, 1),
    (1, 2, 1, 0, 1),
    (1, 2, 1, 1, 1),
    // 4 seasonal-AR-only corners
    (0, 1, 1, 1, 0),
    (0, 2, 1, 1, 0),
    (1, 1, 1, 1, 0),
    (1, 2, 1, 1, 0),
];

/// The family bucket a SARIMAX configuration reports under — regression
/// beats seasonality beats plain ARIMA, mirroring how the generators label
/// their candidates.
fn sarimax_family_of(config: &SarimaxConfig) -> ModelFamily {
    if config.n_exog > 0 || !config.fourier.is_empty() {
        ModelFamily::SarimaxFftExogenous
    } else if config.spec.is_seasonal() {
        ModelFamily::Sarimax
    } else {
        ModelFamily::Arima
    }
}

impl ModelGrid {
    /// The ARIMA grid: `p ∈ 1..=30`, `d ∈ {0,1}`, `q ∈ {0,1,2}` —
    /// 180 models.
    pub fn arima() -> ModelGrid {
        let mut candidates = Vec::with_capacity(180);
        for p in 1..=30 {
            for d in 0..=1 {
                for q in 0..=2 {
                    candidates.push(CandidateModel {
                        family: ModelFamily::Arima,
                        config: ModelConfig::Sarimax(SarimaxConfig::plain(ArimaSpec::arima(
                            p, d, q,
                        ))),
                    });
                }
            }
        }
        ModelGrid { candidates }
    }

    /// The SARIMAX grid at seasonal period `period`: `p ∈ 1..=30` × the
    /// fixed 22-element seasonal menu — 660 models.
    pub fn sarimax(period: usize) -> ModelGrid {
        let mut candidates = Vec::with_capacity(660);
        for p in 1..=30 {
            for &(d, q, sp, sd, sq) in &SEASONAL_MENU {
                candidates.push(CandidateModel {
                    family: ModelFamily::Sarimax,
                    config: ModelConfig::Sarimax(SarimaxConfig::plain(ArimaSpec::sarima(
                        p, d, q, sp, sd, sq, period,
                    ))),
                });
            }
        }
        ModelGrid { candidates }
    }

    /// The SARIMAX+Exogenous grid: the same 660 orders, each carrying
    /// `n_exog` exogenous columns. The six Fourier variants that complete
    /// the 666 are produced by [`ModelGrid::fourier_variants`] around the
    /// RMSE-best member, exactly as §6.3 describes ("the FFT is made up of
    /// sine and cosine waves that are then added to the model with the best
    /// RMSE to see if it can be further improved").
    pub fn sarimax_exogenous(period: usize, n_exog: usize) -> ModelGrid {
        let mut grid = Self::sarimax(period);
        for c in grid.candidates.iter_mut() {
            c.family = ModelFamily::SarimaxFftExogenous;
            if let ModelConfig::Sarimax(config) = &mut c.config {
                config.n_exog = n_exog;
            }
        }
        grid
    }

    /// The HES candidate menu (§4.3), simplest first: SES, Holt, damped
    /// Holt, Holt-Winters additive at `period`, and — when
    /// `allow_multiplicative` says the training data is strictly positive —
    /// Holt-Winters multiplicative. Deterministic order, so an exact RMSE
    /// tie resolves to the simpler method.
    pub fn ets(period: usize, allow_multiplicative: bool, interval_level: f64) -> ModelGrid {
        let mut configs = vec![
            EtsConfig::ses(),
            EtsConfig::holt(),
            EtsConfig {
                trend: TrendKind::Damped,
                seasonal: SeasonalKind::None,
                interval_level: 0.95,
            },
        ];
        if period >= 2 {
            configs.push(EtsConfig::holt_winters(period));
            if allow_multiplicative {
                configs.push(EtsConfig::holt_winters_multiplicative(period));
            }
        }
        let candidates = configs
            .into_iter()
            .map(|mut c| {
                c.interval_level = interval_level;
                CandidateModel {
                    family: ModelFamily::Hes,
                    config: ModelConfig::Ets(c),
                }
            })
            .collect();
        ModelGrid { candidates }
    }

    /// The TBATS configuration lattice (§4.3): Box-Cox off/on (`lambda`
    /// supplies the fixed λ when on; `None` drops the Box-Cox half),
    /// trend/damping `{(off,off),(on,off),(on,on)}`, ARMA error orders
    /// `{(0,0),(1,0),(1,1)}` and harmonic counts `{1,2,3}` per seasonal
    /// block — the paper's lattice, expressed as grid candidates so the
    /// engine's RMSE champion selection, stats and persistence apply. Periods below the Nyquist floor of 4 are dropped;
    /// harmonics are capped per block and duplicate configurations (from
    /// the cap) appear once.
    pub fn tbats(periods: &[f64], lambda: Option<f64>, interval_level: f64) -> ModelGrid {
        let periods: Vec<f64> = periods.iter().copied().filter(|&p| p >= 4.0).collect();
        let mut candidates: Vec<CandidateModel> = Vec::new();
        let harmonic_options: &[usize] = &[1, 2, 3];
        let arma_options: &[(usize, usize)] = &[(0, 0), (1, 0), (1, 1)];
        for &use_boxcox in &[false, true] {
            if use_boxcox && lambda.is_none() {
                continue;
            }
            for &(use_trend, use_damping) in &[(false, false), (true, false), (true, true)] {
                for &arma in arma_options {
                    for &k in harmonic_options {
                        let seasons: Vec<TbatsSeason> = periods
                            .iter()
                            .map(|&period| TbatsSeason {
                                period,
                                harmonics: k.min((period.ceil() as usize - 1) / 2),
                            })
                            .filter(|s| s.harmonics >= 1)
                            .collect();
                        let config = ModelConfig::Tbats(TbatsConfig {
                            lambda: if use_boxcox { lambda } else { None },
                            use_trend,
                            use_damping,
                            arma,
                            seasons,
                            interval_level,
                        });
                        if !candidates.iter().any(|c| c.config == config) {
                            candidates.push(CandidateModel {
                                family: ModelFamily::Tbats,
                                config,
                            });
                        }
                        if periods.is_empty() {
                            break; // harmonics irrelevant without seasons
                        }
                    }
                }
            }
        }
        ModelGrid { candidates }
    }

    /// The six Fourier-augmented variants of a base configuration: harmonic
    /// counts `K ∈ {1, 2, 3}` on the primary period alone and on both
    /// periods when a secondary one exists (falling back to 2× the primary,
    /// i.e. the next-longer cycle, when not).
    pub fn fourier_variants(base: &SarimaxConfig, periods: &[f64]) -> Vec<CandidateModel> {
        let primary = periods.first().copied().unwrap_or(24.0);
        let secondary = periods.get(1).copied().unwrap_or(primary * 7.0);
        let mut out = Vec::with_capacity(6);
        for &k in &[1usize, 2, 3] {
            for spec in [
                FourierSpec::single(primary, k),
                FourierSpec::multi(&[primary, secondary], k),
            ] {
                let mut config = base.clone();
                config.fourier = spec;
                out.push(CandidateModel {
                    family: ModelFamily::SarimaxFftExogenous,
                    config: ModelConfig::Sarimax(config),
                });
            }
        }
        out
    }

    /// The pruned neighbourhood around a stored SARIMAX champion: every
    /// `(p, q)` within `radius` of the champion's orders (clamped to the
    /// grid's ranges, `p ∈ 1..=30`, `q ∈ 0..=2`), with the differencing,
    /// seasonal orders and regression design held fixed — those are
    /// properties of the data, not of last week's optimum, so re-searching
    /// them weekly buys nothing. The champion's exact configuration comes
    /// **first**, so an exact RMSE tie against a neighbour resolves to the
    /// stored champion (candidate-index tie-break).
    ///
    /// This is the grid a degraded champion searches first: ~`(2r+1)²`
    /// candidates instead of the full 180/660, warm-started from the
    /// stored parameters by the fleet scheduler.
    pub fn neighbourhood(base: &SarimaxConfig, radius: usize) -> ModelGrid {
        let family = sarimax_family_of(base);
        let spec = &base.spec;
        let mut candidates = vec![CandidateModel {
            family,
            config: ModelConfig::Sarimax(base.clone()),
        }];
        let p_lo = spec.p.saturating_sub(radius).max(1);
        let p_hi = (spec.p + radius).min(30);
        let q_lo = spec.q.saturating_sub(radius);
        let q_hi = (spec.q + radius).min(2);
        for p in p_lo..=p_hi {
            for q in q_lo..=q_hi {
                if p == spec.p && q == spec.q {
                    continue;
                }
                let mut config = base.clone();
                config.spec.p = p;
                config.spec.q = q;
                candidates.push(CandidateModel {
                    family,
                    config: ModelConfig::Sarimax(config),
                });
            }
        }
        ModelGrid { candidates }
    }

    /// The family-agnostic champion neighbourhood: the stored champion
    /// first (so exact ties keep it), then its close variants.
    ///
    /// * SARIMAX — delegates to [`ModelGrid::neighbourhood`].
    /// * HES — the champion plus the rest of the HES menu at the
    ///   champion's period (falling back to `fallback_period` for
    ///   non-seasonal champions); the menu is already neighbourhood-sized.
    /// * TBATS — the champion plus its ARMA-order lattice variants and
    ///   harmonic-count ±1 variants, with Box-Cox, trend and damping held
    ///   fixed (like differencing, they are properties of the data).
    pub fn neighbourhood_of(
        base: &ModelConfig,
        radius: usize,
        fallback_period: usize,
    ) -> ModelGrid {
        match base {
            ModelConfig::Sarimax(config) => Self::neighbourhood(config, radius),
            ModelConfig::Ets(config) => {
                let period = match config.seasonal.period() {
                    0 => fallback_period,
                    m => m,
                };
                let mut candidates = vec![CandidateModel {
                    family: ModelFamily::Hes,
                    config: ModelConfig::Ets(*config),
                }];
                for c in Self::ets(period, true, config.interval_level).candidates {
                    // lint: allow(indexing) — literal index into the one-element vec built above
                    if c.config != candidates[0].config {
                        candidates.push(c);
                    }
                }
                ModelGrid { candidates }
            }
            ModelConfig::Tbats(config) => {
                let mut candidates = vec![CandidateModel {
                    family: ModelFamily::Tbats,
                    config: ModelConfig::Tbats(config.clone()),
                }];
                let push = |candidates: &mut Vec<CandidateModel>, cfg: TbatsConfig| {
                    let config = ModelConfig::Tbats(cfg);
                    if !candidates.iter().any(|c| c.config == config) {
                        candidates.push(CandidateModel {
                            family: ModelFamily::Tbats,
                            config,
                        });
                    }
                };
                for &arma in &[(0, 0), (1, 0), (1, 1)] {
                    if arma != config.arma {
                        let mut cfg = config.clone();
                        cfg.arma = arma;
                        push(&mut candidates, cfg);
                    }
                }
                for (i, season) in config.seasons.iter().enumerate() {
                    let cap = (season.period.ceil() as usize).saturating_sub(1) / 2;
                    let lo = season.harmonics.saturating_sub(1).max(1);
                    let hi = (season.harmonics + 1).min(cap.max(1));
                    for harmonics in lo..=hi {
                        if harmonics == season.harmonics {
                            continue;
                        }
                        let mut cfg = config.clone();
                        // lint: allow(indexing) — i enumerates config.seasons, which cfg clones
                        cfg.seasons[i].harmonics = harmonics;
                        push(&mut candidates, cfg);
                    }
                }
                ModelGrid { candidates }
            }
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Correlogram pruning (§6.3): keep only ARIMA-family candidates whose
    /// AR order `p` is a significant PACF lag (or 1), and cap the total.
    /// Candidates without an AR order (HES, TBATS) pass through — the PACF
    /// says nothing about smoothing parameters. This is the "tuning" that
    /// turns thousands of models into a tractable set; the full grid
    /// remains available for the exhaustive evaluation mode.
    pub fn prune(&self, correlogram: &Correlogram, max_candidates: usize) -> ModelGrid {
        let significant: Vec<usize> = correlogram.significant_pacf_lags();
        let keep_p = |p: usize| p == 1 || significant.contains(&p);
        let mut kept: Vec<CandidateModel> = self
            .candidates
            .iter()
            .filter(|c| match &c.config {
                ModelConfig::Sarimax(cfg) => keep_p(cfg.spec.p),
                _ => true,
            })
            .cloned()
            .collect();
        if kept.is_empty() {
            // Degenerate correlogram (white noise): keep the low-order
            // models, which is what a flat PACF recommends.
            kept = self
                .candidates
                .iter()
                .filter(|c| match &c.config {
                    ModelConfig::Sarimax(cfg) => cfg.spec.p <= 2,
                    _ => true,
                })
                .cloned()
                .collect();
        }
        kept.truncate(max_candidates);
        ModelGrid { candidates: kept }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_of(c: &CandidateModel) -> &ArimaSpec {
        &c.as_sarimax().expect("ARIMA-family candidate").spec
    }

    #[test]
    fn arima_grid_has_exactly_180_models() {
        assert_eq!(ModelGrid::arima().len(), 180);
    }

    #[test]
    fn sarimax_grid_has_exactly_660_models() {
        assert_eq!(ModelGrid::sarimax(24).len(), 660);
    }

    #[test]
    fn fourier_stage_completes_666() {
        let grid = ModelGrid::sarimax_exogenous(24, 4);
        let base = grid.candidates[0].as_sarimax().unwrap();
        let variants = ModelGrid::fourier_variants(base, &[24.0, 168.0]);
        assert_eq!(grid.len() + variants.len(), 666);
    }

    #[test]
    fn seasonal_menu_has_22_distinct_entries() {
        let set: std::collections::HashSet<_> = SEASONAL_MENU.iter().collect();
        assert_eq!(set.len(), 22);
    }

    #[test]
    fn arima_grid_covers_paper_examples() {
        // Table 2 lists ARIMA (13,1,1) and (25,1,1) — both must be in-grid.
        let grid = ModelGrid::arima();
        for (p, d, q) in [(13, 1, 1), (25, 1, 1), (4, 1, 1), (15, 1, 2)] {
            assert!(
                grid.candidates
                    .iter()
                    .any(|c| *spec_of(c) == ArimaSpec::arima(p, d, q)),
                "({p},{d},{q}) missing"
            );
        }
    }

    #[test]
    fn sarimax_grid_covers_paper_examples() {
        // Table 2 lists SARIMAX (13,1,2)(1,1,1,24) and (1,1,1)(0,1,1,24).
        let grid = ModelGrid::sarimax(24);
        for (p, d, q, sp, sd, sq) in [
            (13, 1, 2, 1, 1, 1),
            (1, 1, 1, 0, 1, 1),
            (27, 1, 2, 1, 1, 1),
            (4, 1, 1, 1, 1, 1),
        ] {
            let spec = ArimaSpec::sarima(p, d, q, sp, sd, sq, 24);
            assert!(
                grid.candidates.iter().any(|c| *spec_of(c) == spec),
                "{spec} missing"
            );
        }
    }

    #[test]
    fn every_candidate_validates() {
        for grid in [ModelGrid::arima(), ModelGrid::sarimax(24)] {
            for c in &grid.candidates {
                assert!(spec_of(c).validate().is_ok(), "{}", spec_of(c));
            }
        }
    }

    #[test]
    fn exogenous_grid_carries_columns() {
        let grid = ModelGrid::sarimax_exogenous(24, 4);
        assert_eq!(grid.len(), 660);
        assert!(grid
            .candidates
            .iter()
            .all(|c| c.as_sarimax().unwrap().n_exog == 4));
        assert!(grid
            .candidates
            .iter()
            .all(|c| c.family == ModelFamily::SarimaxFftExogenous));
    }

    #[test]
    fn ets_menu_is_simplest_first() {
        let grid = ModelGrid::ets(24, true, 0.9);
        let names: Vec<String> = grid
            .candidates
            .iter()
            .map(|c| c.config.describe())
            .collect();
        assert_eq!(names[0], "SES");
        assert_eq!(names[1], "Holt");
        assert!(names[2].contains("damped"));
        assert!(names[3].contains("additive"));
        assert!(names[4].contains("multiplicative"));
        assert!(grid.candidates.iter().all(|c| c.family == ModelFamily::Hes));
        assert!(grid
            .candidates
            .iter()
            .all(|c| c.config.as_ets().unwrap().interval_level == 0.9));
        // Non-positive data drops the multiplicative member.
        assert_eq!(ModelGrid::ets(24, false, 0.95).len(), 4);
        // No usable period drops the seasonal members entirely.
        assert_eq!(ModelGrid::ets(0, true, 0.95).len(), 3);
    }

    #[test]
    fn tbats_lattice_has_the_papers_cardinality() {
        // One period, λ available: 2 (boxcox) × 3 (trend) × 3 (arma) ×
        // 3 (harmonics) = 54 distinct configurations.
        let grid = ModelGrid::tbats(&[24.0], Some(0.5), 0.95);
        assert_eq!(grid.len(), 54);
        assert!(grid
            .candidates
            .iter()
            .all(|c| c.family == ModelFamily::Tbats));
        // No λ halves the lattice; sub-Nyquist periods drop their blocks
        // and the harmonic dimension collapses.
        assert_eq!(ModelGrid::tbats(&[24.0], None, 0.95).len(), 27);
        assert_eq!(ModelGrid::tbats(&[3.0], None, 0.95).len(), 9);
        // Period 4 caps harmonics at 1, deduplicating the k dimension.
        assert_eq!(ModelGrid::tbats(&[4.0], None, 0.95).len(), 9);
    }

    #[test]
    fn pruning_keeps_only_significant_lags() {
        // Build a correlogram from a strongly AR(2) series.
        let mut y = vec![0.0; 2000];
        let mut state = 1u64;
        for t in 2..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let e = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            y[t] = 0.5 * y[t - 1] + 0.3 * y[t - 2] + e;
        }
        let corr = Correlogram::compute(&y, 30).unwrap();
        let pruned = ModelGrid::arima().prune(&corr, 1000);
        assert!(pruned.len() < 180);
        assert!(!pruned.is_empty());
        // Lag 1 always survives.
        assert!(pruned.candidates.iter().any(|c| spec_of(c).p == 1));
        // Non-ARIMA candidates pass through untouched.
        let hes = ModelGrid::ets(24, true, 0.95);
        assert_eq!(hes.prune(&corr, 1000).len(), hes.len());
    }

    #[test]
    fn pruning_respects_cap() {
        let y: Vec<f64> = (0..500).map(|t| (t as f64 / 12.0).sin() * 10.0).collect();
        let corr = Correlogram::compute(&y, 30).unwrap();
        let pruned = ModelGrid::sarimax(24).prune(&corr, 40);
        assert!(pruned.len() <= 40);
    }

    #[test]
    fn neighbourhood_centres_on_champion() {
        let base = SarimaxConfig::plain(ArimaSpec::sarima(4, 1, 2, 1, 1, 1, 24));
        let grid = ModelGrid::neighbourhood(&base, 1);
        // Champion first, then the surrounding (p, q) cells: p ∈ {3,4,5},
        // q ∈ {1,2} (q clamped at the grid's cap of 2) minus the centre.
        assert_eq!(*grid.candidates[0].as_sarimax().unwrap(), base);
        assert_eq!(grid.len(), 6);
        for c in &grid.candidates {
            assert_eq!(c.family, ModelFamily::Sarimax);
            assert_eq!(spec_of(c).d, 1);
            assert_eq!(spec_of(c).seasonal_p, 1);
            assert_eq!(spec_of(c).period, 24);
            assert!(spec_of(c).p.abs_diff(4) <= 1);
            assert!(spec_of(c).q.abs_diff(2) <= 1);
        }
    }

    #[test]
    fn neighbourhood_clamps_at_grid_edges() {
        // p = 1 cannot go below 1; q = 0 cannot go below 0.
        let base = SarimaxConfig::plain(ArimaSpec::arima(1, 0, 0));
        let grid = ModelGrid::neighbourhood(&base, 1);
        assert_eq!(*grid.candidates[0].as_sarimax().unwrap(), base);
        assert_eq!(grid.len(), 4); // p ∈ {1,2} × q ∈ {0,1}
        assert!(grid
            .candidates
            .iter()
            .all(|c| c.family == ModelFamily::Arima && spec_of(c).p >= 1));
    }

    #[test]
    fn neighbourhood_of_hes_keeps_champion_first() {
        let champion = ModelConfig::Ets(EtsConfig::holt_winters(24));
        let grid = ModelGrid::neighbourhood_of(&champion, 1, 24);
        assert_eq!(grid.candidates[0].config, champion);
        assert_eq!(grid.len(), 5); // the full menu, champion hoisted first
        assert!(grid.candidates.iter().all(|c| c.family == ModelFamily::Hes));
        // A non-seasonal champion falls back to the supplied period.
        let ses = ModelConfig::Ets(EtsConfig::ses());
        let grid = ModelGrid::neighbourhood_of(&ses, 1, 12);
        assert_eq!(grid.candidates[0].config, ses);
        assert!(grid.candidates.iter().any(|c| {
            matches!(
                c.config.as_ets().map(|e| e.seasonal),
                Some(SeasonalKind::Additive(12))
            )
        }));
    }

    #[test]
    fn neighbourhood_of_tbats_varies_arma_and_harmonics() {
        let mut champion = TbatsConfig::seasonal(24.0, 2);
        champion.arma = (1, 0);
        let base = ModelConfig::Tbats(champion.clone());
        let grid = ModelGrid::neighbourhood_of(&base, 1, 24);
        assert_eq!(grid.candidates[0].config, base);
        // 2 other ARMA orders + harmonics {1, 3}.
        assert_eq!(grid.len(), 5);
        for c in &grid.candidates {
            let cfg = c.config.as_tbats().unwrap();
            assert_eq!(cfg.use_trend, champion.use_trend);
            assert_eq!(cfg.lambda, champion.lambda);
        }
    }

    #[test]
    fn neighbourhood_of_sarimax_delegates() {
        let base = SarimaxConfig::plain(ArimaSpec::arima(1, 0, 0));
        let via_enum = ModelGrid::neighbourhood_of(&ModelConfig::Sarimax(base.clone()), 1, 24);
        assert_eq!(via_enum.len(), ModelGrid::neighbourhood(&base, 1).len());
    }

    #[test]
    fn canonical_normalises_degenerate_components() {
        // Holt-Winters at period 1 is effectively Holt.
        let hw1 = ModelConfig::Ets(EtsConfig::holt_winters(1));
        assert_eq!(hw1.canonical(), ModelConfig::Ets(EtsConfig::holt()));
        // Period ≥ 2 is already canonical.
        let hw24 = ModelConfig::Ets(EtsConfig::holt_winters(24));
        assert_eq!(hw24.canonical(), hw24);
        // TBATS: sub-period blocks drop, trendless damping clears.
        let tb = ModelConfig::Tbats(TbatsConfig {
            use_damping: true,
            seasons: vec![TbatsSeason {
                period: 1.5,
                harmonics: 1,
            }],
            ..TbatsConfig::level_only()
        });
        let canon = tb.canonical();
        let cfg = canon.as_tbats().unwrap();
        assert!(cfg.seasons.is_empty());
        assert!(!cfg.use_damping);
        // SARIMAX passes through unchanged.
        let sx = ModelConfig::Sarimax(SarimaxConfig::plain(ArimaSpec::arima(2, 1, 1)));
        assert_eq!(sx.canonical(), sx);
    }

    #[test]
    fn dedupe_collapses_equivalent_candidates() {
        let mut cands = vec![
            CandidateModel::new(ModelConfig::Ets(EtsConfig::holt())),
            // Collapses to Holt under canonicalisation.
            CandidateModel::new(ModelConfig::Ets(EtsConfig::holt_winters(1))),
            CandidateModel::new(ModelConfig::Ets(EtsConfig::ses())),
            // Exact duplicate.
            CandidateModel::new(ModelConfig::Ets(EtsConfig::holt())),
        ];
        dedupe_candidates(&mut cands);
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].config, ModelConfig::Ets(EtsConfig::holt()));
        assert_eq!(cands[1].config, ModelConfig::Ets(EtsConfig::ses()));
    }

    #[test]
    fn dedupe_preserves_distinct_union_grid() {
        // The real union menus are already duplicate-free: dedupe must not
        // drop or reorder anything.
        let mut union: Vec<CandidateModel> = ModelGrid::arima()
            .candidates
            .into_iter()
            .chain(ModelGrid::sarimax(24).candidates)
            .chain(ModelGrid::ets(24, true, 0.95).candidates)
            .chain(ModelGrid::tbats(&[24.0], None, 0.95).candidates)
            .collect();
        let before = union.clone();
        dedupe_candidates(&mut union);
        assert_eq!(union.len(), before.len());
        for (a, b) in union.iter().zip(&before) {
            assert_eq!(a.config, b.config);
        }
    }

    #[test]
    fn family_index_follows_all_order() {
        for (i, family) in ModelFamily::ALL.iter().enumerate() {
            assert_eq!(family.index(), i);
        }
        assert_eq!(ModelFamily::COUNT, 5);
    }

    #[test]
    fn family_labels_match_tables() {
        assert_eq!(ModelFamily::Arima.label(), "ARIMA");
        assert_eq!(ModelFamily::Sarimax.label(), "SARIMAX");
        assert_eq!(
            ModelFamily::SarimaxFftExogenous.label(),
            "SARIMAX FFT Exogenous"
        );
        assert_eq!(ModelFamily::Hes.label(), "HES");
        assert_eq!(ModelFamily::Tbats.label(), "TBATS");
    }

    #[test]
    fn model_config_round_trips_through_serde() {
        let configs = [
            ModelConfig::Sarimax(SarimaxConfig::plain(ArimaSpec::sarima(
                2, 1, 1, 1, 1, 1, 24,
            ))),
            ModelConfig::Ets(EtsConfig::holt_winters_multiplicative(12)),
            ModelConfig::Tbats(TbatsConfig::seasonal(24.0, 3)),
        ];
        for config in &configs {
            let json = serde_json::to_string(config).unwrap();
            let back: ModelConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, config, "{json}");
        }
    }
}
