//! Parallel candidate evaluation and RMSE champion selection.
//!
//! §6.3: "We measure the accuracy of every model against the RMSE and then
//! choose the top model from each of the three methods." §9: "Gains are
//! also achieved by parallel processing the models." Candidates are fitted
//! on the training segment, forecast over the held-out test segment, and
//! scored with the full accuracy report; fit failures are recorded rather
//! than fatal (a 660-model grid always contains infeasible corners).
//!
//! The engine is family-agnostic: a [`CandidateModel`] may carry an
//! ARIMA-family, ETS (HES) or TBATS configuration, and every candidate
//! flows through the same work queue, per-family stats, deterministic
//! `(rmse, index)` tie-break and champion-seeded freeze logic. Scoring is
//! routed through the [`Forecaster`] trait, so downstream of the fit no
//! code knows which family won.
//!
//! # The acceleration layer
//!
//! Two observations make the naive fit-every-candidate loop wasteful:
//!
//! 1. **Differencing depends only on `(d, D, s)`**, not on the ARMA orders,
//!    so a 180-model ARIMA grid recomputes the same two differenced series
//!    90 times each. The *transform cache* applies each distinct
//!    [`Differencer`](dwcp_series::diff::Differencer) signature once and
//!    shares the result across workers via
//!    [`FittedSarimax::fit_plain_prepared`] (bit-identical to the direct
//!    fit).
//! 2. **Adjacent specs have adjacent optima.** The converged parameters of
//!    ARIMA(p,d,q) are an excellent start for ARIMA(p+1,d,q), and the
//!    converged smoothing parameters of one ETS or TBATS configuration
//!    seed its structural neighbours. Candidates sharing a chain key
//!    (differencing signature + regression design for the ARIMA family;
//!    family-wide for ETS; the Box-Cox half for TBATS) are ordered into
//!    *warm-start chains* executed sequentially by one worker, each fit
//!    seeded from its predecessor. The optimiser races the warm start
//!    against the cold start, so quality never regresses; chains have a
//!    fixed maximum length independent of the thread count, so results
//!    are identical at any parallelism.
//!
//! Results are collected lock-free: each worker fills a private buffer,
//! buffers are merged after the scope, and the final sort breaks RMSE ties
//! by candidate index so the champion is deterministic even under exact
//! ties.

use crate::grid::{CandidateModel, ModelConfig, ModelFamily};
use crate::{PlannerError, Result};
use dwcp_math::kernels;
use dwcp_models::arima::{adapt_unconstrained, ArimaFitSession, ArimaOptions};
use dwcp_models::{
    adapt_ets_unconstrained, adapt_tbats_unconstrained, EtsFitOptions, EtsFitSession,
    TbatsFitOptions, TbatsFitSession,
};
use dwcp_models::{tbats_rotation_tables, RotationTables, SeasonalKind, TbatsConfig};
use dwcp_models::{ArimaSpec, FittedArima, FittedEts, FittedSarimax, FittedTbats};
use dwcp_models::{Forecast, Forecaster, ModelError};
use dwcp_series::diff::Differenced;
use dwcp_series::Accuracy;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum warm-start chain length. Fixed (never derived from the thread
/// count) so the set of fits — and therefore the champion — is identical at
/// any parallelism. A chain is the unit lockstep groups claim from the
/// batch's pair ticket, so the cap bounds the sequential run a group may
/// still be finishing once the ticket drains: a 180-candidate ARIMA grid
/// splits into 16 chains, enough to spread over every worker's group.
const MAX_CHAIN_LEN: usize = 12;

/// Widest lockstep group: the most live chains one group advances per
/// batched kernel round. Fixed like [`MAX_CHAIN_LEN`] (never derived from
/// the thread count); it shapes wall time only, never results. A width
/// sweep over an estate relearn night bottomed out at 12–16 lanes, and
/// the ETS kernel's per-lane cost stops falling at about 3, so wider
/// rounds only save per-round overhead.
const LOCKSTEP_WIDTH: usize = 12;

/// Options for a grid evaluation.
#[derive(Debug, Clone)]
pub struct EvaluationOptions {
    /// Worker threads; 0 = one per available core.
    pub threads: usize,
    /// Per-model fit options for the ARIMA family (ETS and TBATS fits set
    /// their own optimiser budgets; they honour the warm-start and freeze
    /// flags the engine threads through).
    pub fit: ArimaOptions,
    /// Absolute time index of the first training observation.
    pub start_index: usize,
    /// Share one differenced training series per `(d, D, s)` signature
    /// across all plain candidates (on by default; off re-differences per
    /// candidate, for ablation and benchmarking).
    pub cache_transforms: bool,
    /// Seed each fit from the converged parameters of its chain
    /// predecessor (on by default; off cold-starts every candidate). When
    /// the warm start beats the cold start, the optimiser runs a tight
    /// local refinement on a fraction of the global-search budget instead
    /// of a full-width search — this is where most of the layer's speedup
    /// comes from. Fitted parameters can therefore differ from a cold fit
    /// in the trailing digits; champion *selection* is unchanged on every
    /// grid we test (and asserted by `bench_grid`).
    pub warm_start: bool,
}

impl Default for EvaluationOptions {
    fn default() -> Self {
        EvaluationOptions {
            threads: 0,
            fit: ArimaOptions::default(),
            start_index: 0,
            cache_transforms: true,
            warm_start: true,
        }
    }
}

/// The score sheet of one evaluated candidate.
#[derive(Debug, Clone)]
pub struct ModelScore {
    /// The candidate that was evaluated.
    pub candidate: CandidateModel,
    /// Index of the candidate in the evaluated slice; the deterministic
    /// tie-break for equal RMSEs.
    pub candidate_index: usize,
    /// Accuracy on the held-out test segment.
    pub accuracy: Accuracy,
    /// AIC of the fit (regression parameters included).
    pub aic: f64,
    /// The test-segment forecast that was scored.
    pub forecast: Forecast,
    /// The fit's converged unconstrained optimiser parameters — the warm
    /// seed the model repository stores so the next relearn of this series
    /// can start from the champion instead of from cold. For the ARIMA
    /// family these are the SARIMA parameters; for ETS/TBATS the smoothing
    /// (and ARMA-error) parameters.
    pub warm_params: Vec<f64>,
    /// The fit's regression coefficients (`[intercept, exog…, fourier…]`,
    /// empty for plain and non-ARIMA models), stored alongside
    /// [`ModelScore::warm_params`] so a regression champion can be
    /// re-scored verbatim on the next relearn.
    pub warm_beta: Vec<f64>,
}

/// Per-family instrumentation from one evaluation run.
#[derive(Debug, Clone, Default)]
pub struct FamilyStats {
    /// Fit attempts (scored + failed).
    pub attempts: usize,
    /// Successfully scored fits.
    pub fits: usize,
    /// Failed fits.
    pub failures: usize,
    /// Wall-clock time spent fitting and scoring this family, summed over
    /// workers (can exceed the run's wall time under parallelism).
    pub fit_time: Duration,
    /// Objective (CSS/SSE) evaluations spent on this family.
    pub objective_evals: usize,
}

impl FamilyStats {
    /// Fold another run's counters for the same family into this one.
    fn merge(&mut self, other: &FamilyStats) {
        self.attempts += other.attempts;
        self.fits += other.fits;
        self.failures += other.failures;
        self.fit_time += other.fit_time;
        self.objective_evals += other.objective_evals;
    }
}

/// Where lockstep (batched-kernel) evaluation time goes, summed over
/// workers. All-zero when no lockstep group ran (cache off, fewer than two
/// batchable chains in the whole batch).
///
/// A lockstep group draws chains from every task of an [`evaluate_fleet`]
/// batch, so its counters land in the report of the first task it claimed
/// from. Like `wall_time`, they cannot be split per task in a multi-task
/// batch; sum them over the batch's reports.
#[derive(Debug, Clone, Default)]
pub struct LockstepStats {
    /// Lockstep groups run: `min(workers, batchable chains)` per
    /// [`evaluate_fleet`] call, however many tasks the batch holds.
    pub groups: usize,
    /// Batched kernel rounds executed.
    pub rounds: usize,
    /// Objective evaluations served by batched kernel passes.
    pub batched_evals: usize,
    /// [`kernels::tbats_filter::run_batch`] passes run (at most one per
    /// round).
    pub tbats_passes: usize,
    /// TBATS lanes those passes scored.
    pub tbats_lanes: usize,
    /// Lane-inner chunks [`kernels::ets_batch`] ran, width-1 chunks (a
    /// lane alone in its group, or past the stack block) included.
    pub ets_chunks: usize,
    /// ETS lanes handed to those passes.
    pub ets_lanes: usize,
    /// Time in cursor advancement: optimiser bookkeeping, session
    /// open/settle, forecasting and scoring completed fits.
    pub advance: Duration,
    /// Time staging pending points (unconstrained → constrained transform
    /// + polynomial expansion).
    pub stage: Duration,
    /// Time inside [`kernels::css_batch`] passes.
    pub batch_css: Duration,
    /// Time inside [`kernels::ets_batch`] passes (lane assembly included).
    pub batch_ets: Duration,
    /// Time inside [`kernels::tbats_filter::run_batch`] passes (lane
    /// assembly included).
    pub batch_tbats: Duration,
    /// Time feeding objective values back into the optimisers.
    pub tell: Duration,
}

impl LockstepStats {
    /// Mean live chains per batched kernel round (`batched_evals /
    /// rounds`); 0 when no round ran.
    pub fn lanes_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.batched_evals as f64 / self.rounds as f64
        }
    }

    /// Mean lanes per TBATS kernel pass (`tbats_lanes / tbats_passes`);
    /// 0 when no TBATS pass ran.
    pub fn tbats_lanes_per_pass(&self) -> f64 {
        if self.tbats_passes == 0 {
            0.0
        } else {
            self.tbats_lanes as f64 / self.tbats_passes as f64
        }
    }

    /// Mean lanes per ETS kernel chunk (`ets_lanes / ets_chunks`); 0 when
    /// no chunk ran.
    pub fn ets_lanes_per_chunk(&self) -> f64 {
        if self.ets_chunks == 0 {
            0.0
        } else {
            self.ets_lanes as f64 / self.ets_chunks as f64
        }
    }

    fn merge(&mut self, other: &LockstepStats) {
        self.groups += other.groups;
        self.rounds += other.rounds;
        self.batched_evals += other.batched_evals;
        self.tbats_passes += other.tbats_passes;
        self.tbats_lanes += other.tbats_lanes;
        self.ets_chunks += other.ets_chunks;
        self.ets_lanes += other.ets_lanes;
        self.advance += other.advance;
        self.stage += other.stage;
        self.batch_css += other.batch_css;
        self.batch_ets += other.batch_ets;
        self.batch_tbats += other.batch_tbats;
        self.tell += other.tell;
    }
}

/// Instrumentation for a whole evaluation run.
#[derive(Debug, Clone, Default)]
pub struct EvalStats {
    /// Wall-clock duration of the evaluation (scheduling + all workers).
    pub wall_time: Duration,
    /// Distinct differencing signatures materialised by the transform
    /// cache (0 when the cache is disabled).
    pub cache_entries: usize,
    /// Fits served from the transform cache.
    pub cache_hits: usize,
    /// Fits that received a warm start from their chain predecessor.
    pub warm_starts: usize,
    /// Total objective evaluations across all fits.
    pub objective_evals: usize,
    /// Per-family breakdown, indexed by position in [`ModelFamily::ALL`].
    pub families: [FamilyStats; ModelFamily::COUNT],
    /// Fleet jobs with a fresh stored champion to re-score frozen: kept,
    /// or degraded and searched from its seed (always 0 for single-grid
    /// runs).
    pub reuse_hits: usize,
    /// Fleet jobs with no usable stored champion, or a stale one, that ran
    /// the full grid (always 0 for single-grid runs).
    pub reuse_misses: usize,
    /// Reused fleet jobs whose seeded neighbourhood champion degraded too
    /// and fell back to the full grid.
    pub reuse_fallbacks: usize,
    /// Lockstep (batched-kernel) phase timing.
    pub lockstep: LockstepStats,
}

impl EvalStats {
    /// The stats bucket for one family.
    pub fn family(&self, family: ModelFamily) -> &FamilyStats {
        // lint: allow(indexing) — index() < ModelFamily::COUNT by construction
        &self.families[family.index()]
    }

    /// Fold another run's counters into this one. `wall_time` adds, which
    /// is the right semantics for sequential stages (primary grid then
    /// Fourier stage) and for fleet passes; the fleet scheduler overwrites
    /// the batch total with the true wall clock afterwards.
    pub fn merge(&mut self, other: &EvalStats) {
        self.wall_time += other.wall_time;
        self.cache_entries += other.cache_entries;
        self.cache_hits += other.cache_hits;
        self.warm_starts += other.warm_starts;
        self.objective_evals += other.objective_evals;
        for (total, part) in self.families.iter_mut().zip(&other.families) {
            total.merge(part);
        }
        self.reuse_hits += other.reuse_hits;
        self.reuse_misses += other.reuse_misses;
        self.reuse_fallbacks += other.reuse_fallbacks;
        self.lockstep.merge(&other.lockstep);
    }

    /// Champion-reuse hit rate over the jobs where reuse was possible in
    /// principle; `None` when no such jobs ran (single-grid evaluations).
    pub fn reuse_rate(&self) -> Option<f64> {
        let eligible = self.reuse_hits + self.reuse_misses;
        (eligible > 0).then(|| self.reuse_hits as f64 / eligible as f64)
    }
}

/// The outcome of evaluating a candidate set.
#[derive(Debug)]
pub struct EvaluationReport {
    /// Successfully scored candidates, best RMSE first (ties broken by
    /// candidate index).
    pub scores: Vec<ModelScore>,
    /// Number of candidates whose fit failed.
    pub failures: usize,
    /// Total candidates attempted.
    pub attempted: usize,
    /// Timing, cache and optimiser instrumentation.
    pub stats: EvalStats,
}

impl EvaluationReport {
    /// The champion (best test RMSE).
    pub fn champion(&self) -> Option<&ModelScore> {
        self.scores.first()
    }

    /// Best score within one family (for the Table 2 per-family rows).
    pub fn best_of_family(&self, family: ModelFamily) -> Option<&ModelScore> {
        self.scores.iter().find(|s| s.candidate.family == family)
    }

    /// Merge a follow-up evaluation (e.g. the Fourier-variant stage) into
    /// this report. The other report's candidate indices are shifted past
    /// this report's `attempted` so the deterministic RMSE tie-break keeps
    /// preferring earlier (primary-grid) candidates, and the combined
    /// scores are re-sorted.
    pub fn absorb(&mut self, mut other: EvaluationReport) {
        let base = self.attempted;
        for mut score in other.scores.drain(..) {
            score.candidate_index += base;
            self.scores.push(score);
        }
        self.failures += other.failures;
        self.attempted += other.attempted;
        self.stats.merge(&other.stats);
        sort_scores(&mut self.scores);
    }
}

/// The deterministic score ordering: best RMSE first, exact ties broken by
/// candidate index (see [`crate::protocol::score_order`]).
fn sort_scores(scores: &mut [ModelScore]) {
    scores.sort_by(|a, b| {
        crate::protocol::score_order(
            a.accuracy.rmse,
            a.candidate_index,
            b.accuracy.rmse,
            b.candidate_index,
        )
    });
}

/// A differencing signature: `(d, D, effective period)`; the effective
/// period collapses to 1 when `D == 0`, matching what
/// [`FittedArima::differencer_for`] builds.
type DiffKey = (usize, usize, usize);

fn diff_key(spec: &ArimaSpec) -> DiffKey {
    let differencer = FittedArima::differencer_for(spec);
    (differencer.d, differencer.seasonal_d, differencer.period)
}

/// The grouping key for warm-start chains. Parameters only transfer within
/// a family, so each family contributes its own variants; `Sarimax` is the
/// **first** variant so that on all-SARIMAX grids the `BTreeMap` iteration
/// order — and with it the chain schedule and every floating-point result —
/// is identical to the engine before ETS/TBATS joined the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ChainKey {
    /// ARIMA family: differencing signature + regression design
    /// (`n_exog`, Fourier column count).
    Sarimax(DiffKey, usize, usize),
    /// ETS: one chain per seasonality class (0 = none, 1 = additive,
    /// 2 = multiplicative) — the γ dimension appears and the state
    /// recursion changes shape across classes, so smoothing parameters
    /// transfer best within a class.
    Ets(u8),
    /// TBATS: one chain per Box-Cox half — λ changes the objective's
    /// scale, so parameters don't transfer across the transform boundary.
    Tbats(bool),
}

fn chain_key(config: &ModelConfig) -> ChainKey {
    match config {
        ModelConfig::Sarimax(c) => {
            ChainKey::Sarimax(diff_key(&c.spec), c.n_exog, c.fourier.n_columns())
        }
        ModelConfig::Ets(c) => ChainKey::Ets(match c.seasonal {
            SeasonalKind::None => 0,
            SeasonalKind::Additive(_) => 1,
            SeasonalKind::Multiplicative(_) => 2,
        }),
        ModelConfig::Tbats(c) => ChainKey::Tbats(c.lambda.is_some()),
    }
}

/// One unit of work: candidate indices fitted sequentially by one worker,
/// each seeded from its predecessor's converged parameters.
struct Chain {
    indices: Vec<usize>,
}

/// Group candidates into warm-start chains.
///
/// Candidates chain together only when they share a [`ChainKey`] — within
/// such a group the fitted processes are close neighbours, so parameters
/// transfer. ARIMA-family groups are ordered so consecutive entries differ
/// in as few ARMA orders as possible (seasonal orders outermost, then `q`,
/// then `p`); ETS and TBATS groups keep their menu/lattice order (simplest
/// first). Groups are split at a fixed maximum length for load balance.
///
/// The grouping is a pure function of the candidate list, so the fit
/// schedule — and with it every floating-point result — is independent of
/// the thread count.
fn build_chains(candidates: &[CandidateModel]) -> Vec<Chain> {
    let mut groups: BTreeMap<ChainKey, Vec<usize>> = BTreeMap::new();
    for (i, c) in candidates.iter().enumerate() {
        groups.entry(chain_key(&c.config)).or_default().push(i);
    }
    let mut chains = Vec::new();
    for (_, mut indices) in groups {
        indices.sort_by_key(|&i| match candidates.get(i).map(|c| &c.config) {
            Some(ModelConfig::Sarimax(c)) => {
                let s = &c.spec;
                (s.seasonal_p, s.seasonal_q, s.q, s.p, i)
            }
            _ => (0, 0, 0, 0, i),
        });
        for chunk in indices.chunks(MAX_CHAIN_LEN) {
            chains.push(Chain {
                indices: chunk.to_vec(),
            });
        }
    }
    chains
}

/// One entry in a batch's work queue: a single chain run sequentially, or
/// one of the batch's lockstep groups, which run batchable chains —
/// plain-ARIMA chains with cached differenced series, ETS chains, TBATS
/// chains — in lockstep over the batched family kernels
/// ([`kernels::css_batch`], [`kernels::ets_batch`],
/// [`kernels::tbats_filter::run_batch`]).
///
/// Every task's batchable chains are flattened into one list of
/// `(task, chain)` pairs in task order, and `min(workers, pairs)` groups
/// claim from it through one pair ticket, each holding at most
/// `min(LOCKSTEP_WIDTH, ⌈pairs / groups⌉)` live chains
/// ([`crate::protocol::lockstep_shape`]). A group's chains
/// may come from any task; each keeps its own task's transforms, rotation
/// tables, seed and result buffer. For a single task this is
/// the schedule a lone grid always had (a 12-chain `--method auto` grid at
/// two threads runs two groups of six); an estate wave of a thousand HES
/// tasks runs one group per worker, 12 lanes wide.
///
/// Batching and grouping are wall-time optimisations only: every batched
/// kernel scores each lane bitwise alike whatever else shares the batch
/// (the ETS and TBATS kernels are the ones a lone fit runs too), and every
/// chain keeps its own warm-start thread, so whichever group runs a chain,
/// its scores are bit-identical to running it through [`run_chain`] alone.
enum WorkUnit {
    /// Run chain `chain` of task `task` sequentially.
    Single { task: usize, chain: usize },
    /// Run a lockstep group of at most this many live chains, claimed from
    /// the batch's pair ticket; each chain scores against its own task's
    /// series (the batched kernels take per-candidate series, so one group
    /// spans tasks, differencing signatures and families).
    Group(usize),
}

/// Which batched kernel a chain's candidates go through. Chains within
/// one chain key are family-homogeneous by construction, so the first
/// candidate decides for the whole chain.
enum BatchKind {
    /// Plain ARIMA family: lockstep CSS over the cached differenced
    /// series for this signature.
    Css(DiffKey),
    /// ETS: lockstep state recursions over [`kernels::ets_batch`] lanes.
    Ets,
    /// TBATS: lockstep filter passes over
    /// [`kernels::tbats_filter::run_batch`] lanes with shared rotation
    /// tables.
    Tbats,
}

/// The batch kind a chain would lockstep under, if it can batch at all
/// (regression designs fit against per-candidate design matrices the
/// batched kernels don't model).
fn chain_batch_kind(task: &EvalTask, chain: &Chain) -> Option<BatchKind> {
    let candidate = chain
        .indices
        .first()
        .and_then(|&i| task.candidates.get(i))?;
    match &candidate.config {
        ModelConfig::Sarimax(config) if !config.has_regression() => {
            Some(BatchKind::Css(diff_key(&config.spec)))
        }
        ModelConfig::Sarimax(_) => None,
        ModelConfig::Ets(_) => Some(BatchKind::Ets),
        ModelConfig::Tbats(_) => Some(BatchKind::Tbats),
    }
}

/// Whether a chain may run in a lockstep group: only when its shared
/// per-task transforms are available. A plain ARIMA-family chain needs its
/// differenced series in the transform cache, and ETS/TBATS chains batch
/// whenever the cache layer is enabled at all (the same ablation flag
/// governs both).
fn chain_batches(task: &EvalTask, cache: &BTreeMap<DiffKey, Differenced>, chain: &Chain) -> bool {
    match chain_batch_kind(task, chain) {
        Some(BatchKind::Css(key)) => cache.contains_key(&key),
        Some(BatchKind::Ets | BatchKind::Tbats) => task.opts.cache_transforms,
        None => false,
    }
}

/// Partition a batch's chains into work units, returning them with the
/// batchable `(task, chain)` pairs in task order — the items its lockstep
/// groups claim. The sequential chains come first, in task order, then
/// the groups. Batching needs at least two chains in the whole batch to
/// be worth a lockstep pass; a lone batchable chain runs sequentially, so
/// a single frozen re-score is one fit, whose ETS or TBATS pass is a
/// one-lane pass of the same chunk kernel.
fn build_units(
    tasks: &[EvalTask],
    states: &[TaskState],
    threads: usize,
) -> (Vec<WorkUnit>, Vec<(usize, usize)>) {
    let mut units = Vec::new();
    let mut pairs = Vec::new();
    for (t, (task, state)) in tasks.iter().zip(states).enumerate() {
        for (ci, chain) in state.chains.iter().enumerate() {
            if chain_batches(task, &state.cache, chain) {
                pairs.push((t, ci));
            } else {
                units.push(WorkUnit::Single { task: t, chain: ci });
            }
        }
    }
    if pairs.len() > 1 {
        let workers = pool_size(threads, pairs.len());
        let (groups, width) = crate::protocol::lockstep_shape(workers, pairs.len(), LOCKSTEP_WIDTH);
        units.extend((0..groups).map(|_| WorkUnit::Group(width)));
    } else {
        units.extend(
            pairs
                .drain(..)
                .map(|(task, chain)| WorkUnit::Single { task, chain }),
        );
    }
    (units, pairs)
}

/// What one worker accumulated; merged after the scope ends.
#[derive(Default)]
struct WorkerOutput {
    scores: Vec<ModelScore>,
    failures: usize,
    cache_hits: usize,
    warm_starts: usize,
    objective_evals: usize,
    families: [FamilyStats; ModelFamily::COUNT],
    lockstep: LockstepStats,
}

impl WorkerOutput {
    /// The per-family stats bucket.
    fn family_mut(&mut self, family: ModelFamily) -> &mut FamilyStats {
        // lint: allow(indexing) — index() < ModelFamily::COUNT by construction
        &mut self.families[family.index()]
    }
}

/// Evaluate `candidates` on a train/test split, in parallel.
///
/// * `train` / `test` — the split series values.
/// * `exog_train` — exogenous columns over the training segment; sliced per
///   candidate to `config.n_exog` columns (all candidates share the same
///   column universe).
/// * `exog_test` — the same columns over the test segment.
///
/// The result — champion, scores, everything — is identical for any
/// `threads` setting, including under exact RMSE ties.
///
/// This is the single-grid façade over [`evaluate_fleet`]: one task, the
/// thread count taken from `opts.threads`.
pub fn evaluate_candidates(
    train: &[f64],
    test: &[f64],
    exog_train: &[Vec<f64>],
    exog_test: &[Vec<f64>],
    candidates: &[CandidateModel],
    opts: &EvaluationOptions,
) -> Result<EvaluationReport> {
    let task = EvalTask {
        train,
        test,
        exog_train,
        exog_test,
        candidates,
        opts: opts.clone(),
        seed: None,
    };
    evaluate_fleet(std::slice::from_ref(&task), opts.threads)
        .pop()
        .unwrap_or(Err(PlannerError::Internal {
            context: "evaluate_fleet returned no report for its single task",
        }))
}

/// One grid evaluation in a fleet batch: a train/test split, its exogenous
/// columns, the candidate list, and per-task options.
///
/// `opts.threads` is ignored here — the pool size is global to the batch
/// (the whole point of fleet scheduling is one concurrency cap, not one
/// pool per series).
pub struct EvalTask<'a> {
    /// Training segment values.
    pub train: &'a [f64],
    /// Held-out test segment values.
    pub test: &'a [f64],
    /// Exogenous columns over the training segment.
    pub exog_train: &'a [Vec<f64>],
    /// The same columns over the test segment.
    pub exog_test: &'a [Vec<f64>],
    /// Candidate models to fit and score.
    pub candidates: &'a [CandidateModel],
    /// Per-task evaluation options (`threads` ignored; see type docs).
    pub opts: EvaluationOptions,
    /// Optional champion seed: a previously converged
    /// `(config, params, beta)` triple, any family. It primes each
    /// same-family warm-start chain's predecessor state, and the candidate
    /// whose configuration equals the stored one is re-scored at the
    /// stored parameters verbatim (frozen) rather than re-optimised.
    /// `None` reproduces the unseeded behaviour exactly.
    pub seed: Option<(ModelConfig, Vec<f64>, Vec<f64>)>,
}

/// Per-task shared state prepared before the pool starts.
struct TaskState {
    cache: BTreeMap<DiffKey, Differenced>,
    /// Shared TBATS rotation tables, one per seasonal signature.
    rotations: BTreeMap<SeasonSig, Arc<RotationTables>>,
    chains: Vec<Chain>,
}

/// What the lockstep groups of one batch share: the tasks and their
/// prepared state, every batchable `(task, chain)` pair in task order, and
/// the pair ticket the groups claim those pairs through.
struct LockstepBatch<'b> {
    tasks: &'b [EvalTask<'b>],
    states: &'b [TaskState],
    pairs: &'b [(usize, usize)],
    /// The batch's pair ticket: the next `pairs` entry to claim.
    next_pair: AtomicUsize,
}

/// The worker count for `work` items on a pool of `threads` workers, or
/// of one per available core when it is 0: never more workers than items,
/// and at least one. A lone item never asks how many cores there are —
/// on Linux that reads the cgroup CPU quota from files, more than a
/// frozen re-score costs.
fn pool_size(threads: usize, work: usize) -> usize {
    if work <= 1 {
        return 1;
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        threads
    };
    threads.min(work)
}

/// Run `work` on `n_workers` pool workers and collect each one's output.
/// A single worker runs on the calling thread: a pool of one would only
/// add a spawn and a join. A worker that panics yields `None`, and the
/// panic goes no further.
fn run_workers<W: Send>(n_workers: usize, work: impl Fn() -> W + Sync) -> Vec<Option<W>> {
    if n_workers <= 1 {
        return vec![std::panic::catch_unwind(std::panic::AssertUnwindSafe(&work)).ok()];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers).map(|_| scope.spawn(&work)).collect();
        handles
            .into_iter()
            .map(|handle| handle.join().ok())
            .collect()
    })
}

/// Map `f` over `items` on a pool of `threads` workers (0 = one per core)
/// that claim items through the same ticket dispenser as
/// [`evaluate_fleet`]. Results come back by item index. A worker that
/// panics takes the results of every item it claimed with it: those come
/// back `None`, and the panic goes no further. A pool of one worker (one
/// item, or one thread) runs on the calling thread, under the same
/// containment.
pub(crate) fn map_on_pool<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<Option<R>> {
    let n_workers = pool_size(threads, items.len());
    if n_workers == 1 {
        let run = std::panic::AssertUnwindSafe(|| items.iter().map(|item| Some(f(item))).collect());
        return std::panic::catch_unwind(run)
            .unwrap_or_else(|_| (0..items.len()).map(|_| None).collect());
    }
    let next_item = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let outputs = run_workers(n_workers, || {
        let mut done = Vec::new();
        while let Some(i) = crate::protocol::claim_ticket(&next_item, items.len()) {
            if let Some(item) = items.get(i) {
                done.push((i, f(item)));
            }
        }
        done
    });
    for (i, result) in outputs.into_iter().flatten().flatten() {
        if let Some(slot) = results.get_mut(i) {
            *slot = Some(result);
        }
    }
    results
}

/// Evaluate many grids on **one** shared worker pool.
///
/// The batch runs as one wide batch: every task's sequential chains go into
/// a single work queue (task order preserved), and every task's batchable
/// chains are flattened into one list of `(task, chain)` pairs that
/// `min(threads, pairs)` lockstep groups share through one ticket — so a
/// single grid still runs on every worker, and an estate wave of many
/// small grids fills each batched kernel round with chains from several
/// tasks. Every per-task guarantee of [`evaluate_candidates`] carries over:
/// the transform cache and chain schedule are per-task, workers buffer
/// results per task, and each report is merged and sorted exactly as in
/// the single-grid path — so each task's report is identical to evaluating
/// it alone, at any thread count.
///
/// Returns one result per task, in task order. A task with no viable
/// candidate yields `Err(NoViableModel)` without affecting its neighbours.
/// Per-report `wall_time` is the wall time of this whole pass, and a
/// lockstep group's [`LockstepStats`] sit in the report of the first task
/// it claimed from: tasks share the pool and the groups, so neither is
/// separable per task.
pub fn evaluate_fleet(tasks: &[EvalTask], threads: usize) -> Vec<Result<EvaluationReport>> {
    let started = Instant::now();
    let states: Vec<TaskState> = tasks
        .iter()
        .map(|task| TaskState {
            cache: build_transform_cache(task),
            rotations: build_rotation_cache(task),
            chains: build_chains(task.candidates),
        })
        .collect();
    let (units, pairs) = build_units(tasks, &states, threads);
    let batch = LockstepBatch {
        tasks,
        states: &states,
        pairs: &pairs,
        next_pair: AtomicUsize::new(0),
    };
    let next_unit = AtomicUsize::new(0);

    // Worker outputs are per task so the merge below is per task. One
    // worker (a lone frozen re-score, say) runs on the calling thread.
    let n_workers = pool_size(threads, units.len());
    let outputs = run_workers(n_workers, || {
        let mut out: Vec<WorkerOutput> =
            (0..tasks.len()).map(|_| WorkerOutput::default()).collect();
        while let Some(item) = crate::protocol::claim_ticket(&next_unit, units.len()) {
            match units.get(item) {
                Some(&WorkUnit::Single { task, chain }) => {
                    // The units are built from `states` (same length as
                    // `tasks`), so these lookups only miss if that
                    // construction is broken — skip rather than panic.
                    let (Some(t), Some(state), Some(slot)) =
                        (tasks.get(task), states.get(task), out.get_mut(task))
                    else {
                        continue;
                    };
                    let Some(chain) = state.chains.get(chain) else {
                        continue;
                    };
                    run_chain(chain, t, &state.cache, slot);
                }
                Some(&WorkUnit::Group(width)) => {
                    run_chain_group(&batch, width, &mut out);
                }
                None => continue,
            }
        }
        out
    });
    let Some(mut outputs) = outputs.into_iter().collect::<Option<Vec<_>>>() else {
        // A worker died mid-batch; its partial scores are gone, so every
        // task's report would under-count. Fail all of them typed instead.
        return tasks
            .iter()
            .map(|_| {
                Err(PlannerError::Internal {
                    context: "an evaluation worker panicked mid-batch",
                })
            })
            .collect();
    };

    let wall_time = started.elapsed();
    let mut reports = Vec::with_capacity(tasks.len());
    for ((task_idx, task), state) in tasks.iter().enumerate().zip(&states) {
        let mut scores = Vec::with_capacity(task.candidates.len());
        let mut stats = EvalStats {
            cache_entries: state.cache.len(),
            ..Default::default()
        };
        let mut failures = 0;
        for worker in outputs.iter_mut() {
            let Some(out) = worker.get_mut(task_idx) else {
                continue;
            };
            // Taking the buffer frees it as soon as it is merged.
            scores.append(&mut std::mem::take(&mut out.scores));
            failures += out.failures;
            stats.cache_hits += out.cache_hits;
            stats.warm_starts += out.warm_starts;
            stats.objective_evals += out.objective_evals;
            stats.lockstep.merge(&out.lockstep);
            for (total, part) in stats.families.iter_mut().zip(&out.families) {
                total.merge(part);
            }
        }
        sort_scores(&mut scores);
        if scores.is_empty() {
            reports.push(Err(PlannerError::NoViableModel {
                attempted: task.candidates.len(),
            }));
            continue;
        }
        stats.wall_time = wall_time;
        reports.push(Ok(EvaluationReport {
            scores,
            failures,
            attempted: task.candidates.len(),
            stats,
        }));
    }
    reports
}

/// Shared transform cache for one task: one differenced training series
/// per distinct plain-ARIMA-candidate differencing signature. Signatures
/// whose transform fails (series too short) are simply absent — those
/// candidates fall back to the direct fit path and fail there with the
/// right error. ETS/TBATS candidates never touch the cache: their state
/// recursions run on the raw series.
fn build_transform_cache(task: &EvalTask) -> BTreeMap<DiffKey, Differenced> {
    if !task.opts.cache_transforms {
        return BTreeMap::new();
    }
    let mut map = BTreeMap::new();
    for c in task.candidates {
        let Some(config) = c.as_sarimax() else {
            continue;
        };
        if config.has_regression() {
            continue;
        }
        let key = diff_key(&config.spec);
        if let std::collections::btree_map::Entry::Vacant(slot) = map.entry(key) {
            let differencer = FittedArima::differencer_for(&config.spec);
            if let Ok(diffed) = differencer.apply(task.train) {
                slot.insert(diffed);
            }
        }
    }
    map
}

/// A TBATS seasonal signature: one `(period bits, harmonics)` pair per
/// block. Keyed on the exact `f64` bit pattern — two configurations share
/// rotation tables only when their harmonic angles are identical.
type SeasonSig = Vec<(u64, usize)>;

fn season_sig(config: &TbatsConfig) -> SeasonSig {
    config
        .seasons
        .iter()
        .map(|s| (s.period.to_bits(), s.harmonics))
        .collect()
}

/// Shared TBATS rotation tables for one task: the per-harmonic `(cos, sin)`
/// rotation pairs depend only on the seasonal signature, so the whole
/// lattice — 27 candidates sharing a handful of signatures — reuses one
/// table set per signature instead of recomputing the trigonometry per
/// fit. Gated on the same flag as the transform cache (the ablation switch
/// turns off every shared-transform layer together).
fn build_rotation_cache(task: &EvalTask) -> BTreeMap<SeasonSig, Arc<RotationTables>> {
    if !task.opts.cache_transforms {
        return BTreeMap::new();
    }
    let mut map = BTreeMap::new();
    for c in task.candidates {
        let ModelConfig::Tbats(config) = &c.config else {
            continue;
        };
        if config.seasons.is_empty() {
            continue;
        }
        map.entry(season_sig(config))
            .or_insert_with(|| Arc::new(tbats_rotation_tables(config)));
    }
    map
}

/// Adapt a predecessor's converged parameters to the next candidate's
/// layout. Parameters only transfer within a family; a cross-family pair
/// (possible only through the champion seed, since chains are
/// family-homogeneous) yields `None` and the fit starts cold.
fn adapt_params(
    prev_config: &ModelConfig,
    prev_params: &[f64],
    next: &ModelConfig,
) -> Option<Vec<f64>> {
    match (prev_config, next) {
        (ModelConfig::Sarimax(p), ModelConfig::Sarimax(n)) => {
            adapt_unconstrained(prev_params, &p.spec, &n.spec)
        }
        (ModelConfig::Ets(p), ModelConfig::Ets(n)) => {
            Some(adapt_ets_unconstrained(prev_params, p, n))
        }
        (ModelConfig::Tbats(p), ModelConfig::Tbats(n)) => {
            Some(adapt_tbats_unconstrained(prev_params, p, n))
        }
        _ => None,
    }
}

/// Execute one warm-start chain sequentially, threading each successful
/// fit's converged parameters into the next candidate's options. When the
/// task carries a champion seed of the chain's family, it primes the
/// predecessor state so even the first fit of the chain starts warm.
fn run_chain(
    chain: &Chain,
    task: &EvalTask,
    cache: &BTreeMap<DiffKey, Differenced>,
    out: &mut WorkerOutput,
) {
    let (train, test) = (task.train, task.test);
    let (exog_train, exog_test) = (task.exog_train, task.exog_test);
    let opts = &task.opts;
    let mut prev: Option<(ModelConfig, Vec<f64>)> = task
        .seed
        .as_ref()
        .map(|(config, params, _)| (config.clone(), params.clone()));
    for &i in &chain.indices {
        // Chains are built from candidate indices, so a miss here means the
        // chain builder is broken — skip the entry rather than panic.
        let Some(candidate) = task.candidates.get(i) else {
            continue;
        };
        let fam = candidate.family;
        out.family_mut(fam).attempts += 1;

        let mut fit_opts = opts.fit.clone();
        if opts.warm_start {
            if let Some((prev_config, prev_params)) = &prev {
                if let Some(warm) = adapt_params(prev_config, prev_params, &candidate.config) {
                    fit_opts.warm_start = Some(warm);
                    out.warm_starts += 1;
                }
            }
        }
        // A candidate whose configuration IS the stored seed's is the
        // champion being reused: score the stored parameters (and, for
        // regression models, the stored coefficients) verbatim instead of
        // re-optimising, so reuse can never drift below the recorded
        // baseline on unchanged data.
        if let Some((seed_config, seed_params, seed_beta)) = &task.seed {
            if *seed_config == candidate.config
                && seed_params.len() == seed_config.n_optimiser_params()
            {
                fit_opts.warm_start = Some(seed_params.clone());
                fit_opts.freeze_warm_start = true;
                if let Some(config) = candidate.as_sarimax() {
                    if config.has_regression() && seed_beta.len() == config.n_regression_params() {
                        fit_opts.freeze_beta = Some(seed_beta.clone());
                    }
                }
            }
        }

        let cached = candidate
            .as_sarimax()
            .filter(|config| !config.has_regression())
            .and_then(|config| cache.get(&diff_key(&config.spec)));
        if cached.is_some() {
            out.cache_hits += 1;
        }

        let fit_started = Instant::now();
        let outcome = score_one(
            train,
            test,
            exog_train,
            exog_test,
            candidate,
            i,
            opts.start_index,
            &fit_opts,
            cached,
        );
        out.family_mut(fam).fit_time += fit_started.elapsed();

        match outcome {
            Ok(scored) => {
                out.family_mut(fam).fits += 1;
                out.family_mut(fam).objective_evals += scored.nm_evals;
                out.objective_evals += scored.nm_evals;
                prev = Some((candidate.config.clone(), scored.score.warm_params.clone()));
                out.scores.push(scored.score);
            }
            Err(_) => {
                out.failures += 1;
                out.family_mut(fam).failures += 1;
            }
        }
    }
}

/// One open fit inside a batched lockstep group, any family. The wrapper
/// dispatches the shared pump/stage protocol; the family-specific staging
/// payloads (CSS polynomial expansions vs. recursion/filter lanes) are
/// pulled out by [`run_chain_group`]'s per-family kernel passes.
enum FitSession {
    Arima(Box<ArimaFitSession>),
    Ets(Box<EtsFitSession>),
    Tbats(Box<TbatsFitSession>),
}

impl FitSession {
    /// Whether the optimiser still needs an objective evaluation.
    fn is_pending(&self) -> bool {
        match self {
            FitSession::Arima(s) => s.is_pending(),
            FitSession::Ets(s) => s.is_pending(),
            FitSession::Tbats(s) => s.is_pending(),
        }
    }

    /// Unpack the pending optimiser point for a batched kernel pass.
    fn stage_pending(&mut self) -> bool {
        match self {
            FitSession::Arima(s) => s.stage_pending(),
            FitSession::Ets(s) => s.stage_pending(),
            FitSession::Tbats(s) => s.stage_pending(),
        }
    }
}

/// One chain's position inside a batched lockstep group: which task it
/// belongs to, where it is in its candidate list, the warm-start
/// predecessor it threads forward, and the fit session currently being
/// optimised (if any).
struct GroupCursor<'c> {
    /// The chain's task: its index into the batch's tasks, task states and
    /// per-task worker outputs.
    task: usize,
    chain: &'c Chain,
    /// The cached differenced series for a plain-ARIMA chain; `None` for
    /// ETS/TBATS chains, whose recursions run on the raw series.
    diffed: Option<&'c Differenced>,
    /// Next unopened entry in `chain.indices`.
    pos: usize,
    /// The chain's warm-start predecessor `(config, converged params)`.
    prev: Option<(ModelConfig, Vec<f64>)>,
    /// The open fit: `(candidate index, session)`.
    active: Option<(usize, FitSession)>,
    /// Wall time attributed to the open candidate so far (its share of
    /// each batched kernel round plus its own open/settle work); flushed
    /// into the family's `fit_time` when the candidate completes.
    spent: Duration,
    /// Whether the open fit staged a point for this round's kernel pass.
    staged: bool,
    /// The chain's [`ChainKey`]: ETS chains are keyed by seasonality
    /// class, so ordering cursors by key hands [`kernels::ets_batch`] its
    /// lanes in the class order it packs them.
    key: ChainKey,
}

/// Execute one lockstep group of warm-start chains: each round stages
/// every live chain's pending optimiser point and scores all of them in
/// (up to) one batched kernel pass per family — [`kernels::css_batch`] for
/// plain ARIMA candidates, [`kernels::ets_batch`] for ETS,
/// [`kernels::tbats_filter::run_batch`] for TBATS. Each session carries
/// its own series/state windows, and every batched kernel preserves each
/// candidate's exact per-element arithmetic, so every score is
/// bit-identical to the sequential [`run_chain`] path — batching changes
/// wall time, never results.
///
/// The group claims `(task, chain)` pairs from the batch's pair ticket at
/// the top of each round, holding at most `width` live chains
/// ([`crate::protocol::lockstep_claims`]): a group as wide as the batch's
/// batchable set claims it all up front; a narrower one replaces each
/// drained chain and grows by one chain per round, so the batch's groups
/// share its chains by the progress they make. Each chain's bookkeeping
/// goes to its own task's slot of `out`; the group's [`LockstepStats`] go
/// to the slot of the first task it claimed from.
fn run_chain_group(batch: &LockstepBatch, width: usize, out: &mut [WorkerOutput]) {
    let mut stats = LockstepStats {
        groups: 1,
        ..Default::default()
    };
    let mut home: Option<usize> = None;
    let mut cursors: Vec<GroupCursor> = Vec::new();
    let mut drained = 0;
    let mut exhausted = false;
    let mut scratch = kernels::CssBatchScratch::default();
    let mut css_out: Vec<f64> = Vec::new();
    let mut css_ids: Vec<usize> = Vec::new();
    let mut ets_ids: Vec<usize> = Vec::new();
    let mut ets_sse: Vec<f64> = Vec::new();
    let mut tbats_ids: Vec<usize> = Vec::new();
    let mut tbats_sse: Vec<f64> = Vec::new();
    loop {
        // Phase A: claim chains up to the width cap, then bring every
        // cursor to a pending optimiser point — settle finished fits, open
        // the next candidate, repeat (fits decided without an optimiser
        // run settle immediately) — and drop the chains that drained.
        let advance_started = Instant::now();
        if !exhausted {
            let (total, live) = (batch.pairs.len(), cursors.len());
            for _ in 0..crate::protocol::lockstep_claims(live, drained, width, total) {
                match claim_group_chain(batch, out) {
                    Some(cursor) => {
                        home.get_or_insert(cursor.task);
                        cursors.push(cursor);
                    }
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
            if cursors.len() > live {
                // Chains from several tasks interleave seasonality
                // classes; keeping the cursors sorted by class (stably, so
                // claim order holds within a class) hands the ETS kernel
                // its lanes in the order it packs them into chunks: each
                // chunk takes a class's lanes in claim order. Results do
                // not depend on the order.
                cursors.sort_by_key(|cursor| cursor.key);
            }
        }
        for cursor in cursors.iter_mut() {
            pump_group_cursor(cursor, batch, out);
        }
        let live = cursors.len();
        cursors.retain(|cursor| cursor.active.is_some());
        drained = live - cursors.len();
        stats.advance += advance_started.elapsed();
        let round_started = Instant::now();
        // Staged points per family (chains are family-homogeneous, so the
        // chain key tells): each kernel pass sizes its lane vector once,
        // and a round allocates nothing for a family it does not stage.
        let (mut n_css, mut n_ets, mut n_tbats) = (0, 0, 0);
        for cursor in cursors.iter_mut() {
            cursor.staged = match cursor.active.as_mut() {
                Some((_, session)) => session.stage_pending(),
                None => false,
            };
            if cursor.staged {
                match cursor.key {
                    ChainKey::Sarimax(..) => n_css += 1,
                    ChainKey::Ets(_) => n_ets += 1,
                    ChainKey::Tbats(_) => n_tbats += 1,
                }
            }
        }
        let staged = n_css + n_ets + n_tbats;
        if staged == 0 {
            // Every chain drained: claim again next round unless the
            // ticket is spent. (A live cursor that will not stage is a
            // broken session; stop rather than spin on it.)
            if exhausted || !cursors.is_empty() {
                break;
            }
            continue;
        }
        let staged_at = Instant::now();
        stats.stage += staged_at - round_started;
        // Phase B: one batched kernel pass per family over all staged
        // points, each candidate against its session's own series. The
        // three passes live in separate borrow scopes: the CSS pass reads
        // staged slices, the lane passes take mutable state windows.
        css_ids.clear();
        {
            let mut cands: Vec<(&[f64], &[f64], &[f64])> = Vec::with_capacity(n_css);
            for (ci, cursor) in cursors.iter().enumerate() {
                if !cursor.staged {
                    continue;
                }
                if let Some((_, FitSession::Arima(session))) = cursor.active.as_ref() {
                    cands.push((session.staged_phi(), session.staged_theta(), session.w()));
                    css_ids.push(ci);
                }
            }
            css_out.clear();
            if !cands.is_empty() {
                kernels::css_batch(&cands, &mut scratch, &mut css_out);
            }
        }
        let css_at = Instant::now();
        stats.batch_css += css_at - staged_at;
        ets_ids.clear();
        ets_sse.clear();
        {
            let mut lanes: Vec<kernels::holt_winters::EtsLane<'_>> = Vec::with_capacity(n_ets);
            for (ci, cursor) in cursors.iter_mut().enumerate() {
                if !cursor.staged {
                    continue;
                }
                if let Some((_, FitSession::Ets(session))) = cursor.active.as_mut() {
                    if let Some(lane) = session.staged_lane() {
                        lanes.push(lane);
                        ets_ids.push(ci);
                    }
                }
            }
            if !lanes.is_empty() {
                stats.ets_chunks += kernels::ets_batch(&mut lanes);
                stats.ets_lanes += lanes.len();
                ets_sse.extend(
                    lanes
                        .iter()
                        .map(|l| l.result().sse.unwrap_or(f64::INFINITY)),
                );
            }
        }
        let ets_at = Instant::now();
        stats.batch_ets += ets_at - css_at;
        tbats_ids.clear();
        tbats_sse.clear();
        {
            let mut lanes: Vec<kernels::tbats_filter::TbatsLane<'_>> = Vec::with_capacity(n_tbats);
            for (ci, cursor) in cursors.iter_mut().enumerate() {
                if !cursor.staged {
                    continue;
                }
                if let Some((_, FitSession::Tbats(session))) = cursor.active.as_mut() {
                    if let Some(lane) = session.staged_lane() {
                        lanes.push(lane);
                        tbats_ids.push(ci);
                    }
                }
            }
            if !lanes.is_empty() {
                stats.tbats_passes += 1;
                stats.tbats_lanes += lanes.len();
                kernels::tbats_filter::run_batch(&mut lanes);
                tbats_sse.extend(lanes.iter().map(|l| l.result().unwrap_or(f64::INFINITY)));
            }
        }
        let batched_at = Instant::now();
        stats.batch_tbats += batched_at - ets_at;
        // Phase C: feed each objective value back to its optimiser.
        for (j, &ci) in css_ids.iter().enumerate() {
            let Some(&css) = css_out.get(j) else {
                continue;
            };
            if let Some((_, FitSession::Arima(session))) =
                cursors.get_mut(ci).and_then(|c| c.active.as_mut())
            {
                session.tell_css(css);
            }
        }
        for (j, &ci) in ets_ids.iter().enumerate() {
            let Some(&sse) = ets_sse.get(j) else {
                continue;
            };
            if let Some((_, FitSession::Ets(session))) =
                cursors.get_mut(ci).and_then(|c| c.active.as_mut())
            {
                session.tell_sse(sse);
            }
        }
        for (j, &ci) in tbats_ids.iter().enumerate() {
            let Some(&sse) = tbats_sse.get(j) else {
                continue;
            };
            if let Some((_, FitSession::Tbats(session))) =
                cursors.get_mut(ci).and_then(|c| c.active.as_mut())
            {
                session.tell_sse(sse);
            }
        }
        stats.tell += batched_at.elapsed();
        stats.rounds += 1;
        stats.batched_evals += staged;
        // The round served every staged candidate at once; attribute its
        // wall time in equal shares (timing only — results don't depend
        // on this split).
        let share = round_started.elapsed() / staged as u32;
        for cursor in cursors.iter_mut().filter(|cursor| cursor.staged) {
            cursor.spent += share;
        }
    }
    // A group that found the ticket already spent still ran; its (empty)
    // stats go to the batch's first batchable task.
    let home = home.or_else(|| batch.pairs.first().map(|&(task, _)| task));
    if let Some(slot) = home.and_then(|task| out.get_mut(task)) {
        slot.lockstep.merge(&stats);
    }
}

/// Claim the batch's next `(task, chain)` pair for a lockstep group and
/// open a cursor on it, threading that task's champion seed in as its
/// warm-start predecessor; `None` once the pair ticket is spent.
fn claim_group_chain<'b>(
    batch: &LockstepBatch<'b>,
    out: &mut [WorkerOutput],
) -> Option<GroupCursor<'b>> {
    let (tasks, states) = (batch.tasks, batch.states);
    loop {
        let ticket = crate::protocol::claim_ticket(&batch.next_pair, batch.pairs.len())?;
        // `pairs` holds (task, chain) indices built from `states`, so a
        // miss here means `build_units` is broken — skip the ticket rather
        // than panic.
        let Some(&(t, ci)) = batch.pairs.get(ticket) else {
            continue;
        };
        let (Some(task), Some(state), Some(slot)) = (tasks.get(t), states.get(t), out.get_mut(t))
        else {
            continue;
        };
        let Some(chain) = state.chains.get(ci) else {
            continue;
        };
        // A task's chains spread over every group, so each worker holds a
        // score buffer for most tasks of the batch: size it exactly rather
        // than let it double.
        slot.scores.reserve_exact(chain.indices.len());
        let Some(key) = chain
            .indices
            .first()
            .and_then(|&i| task.candidates.get(i))
            .map(|candidate| chain_key(&candidate.config))
        else {
            continue;
        };
        let diffed = match chain_batch_kind(task, chain) {
            Some(BatchKind::Css(key)) => state.cache.get(&key).map(Some),
            Some(BatchKind::Ets | BatchKind::Tbats) => Some(None),
            None => None,
        };
        let Some(diffed) = diffed else {
            // Unreachable by construction (`build_units` only batches
            // chains with their transforms cached); degrade to the
            // sequential path rather than drop work.
            run_chain(chain, task, &state.cache, slot);
            continue;
        };
        return Some(GroupCursor {
            task: t,
            chain,
            diffed,
            pos: 0,
            prev: task
                .seed
                .as_ref()
                .map(|(config, params, _)| (config.clone(), params.clone())),
            active: None,
            spent: Duration::ZERO,
            staged: false,
            key,
        });
    }
}

/// Advance one lockstep cursor until it exposes a pending optimiser point
/// or exhausts its chain: settle a finished session, open the next
/// candidate, and loop (frozen champion re-scores and zero-parameter specs
/// are decided at open and settle in the same pass). Everything it records
/// goes to the cursor's own task.
fn pump_group_cursor(cursor: &mut GroupCursor, batch: &LockstepBatch, out: &mut [WorkerOutput]) {
    // The common round-to-round case — the open fit still has a point
    // pending — must not move the session struct (a take/put-back memcpys
    // it twice per cursor per round, which profiling showed dominated the
    // advance phase).
    if let Some((_, session)) = cursor.active.as_ref() {
        if session.is_pending() {
            return;
        }
    }
    // The cursor's task index comes from the batch's pairs, built over the
    // same task list as the states and the per-task outputs, so a miss
    // means that construction is broken: drop the chain rather than panic.
    let (Some(task), Some(state), Some(out)) = (
        batch.tasks.get(cursor.task),
        batch.states.get(cursor.task),
        out.get_mut(cursor.task),
    ) else {
        cursor.active = None;
        return;
    };
    loop {
        if let Some((_, session)) = cursor.active.as_ref() {
            if session.is_pending() {
                return;
            }
        }
        if let Some((candidate_index, session)) = cursor.active.take() {
            let step_started = Instant::now();
            if let Some(prev) = settle_group_fit(candidate_index, session, task, out) {
                cursor.prev = Some(prev);
            }
            cursor.spent += step_started.elapsed();
            if let Some(candidate) = task.candidates.get(candidate_index) {
                out.family_mut(candidate.family).fit_time += cursor.spent;
            }
            cursor.spent = Duration::ZERO;
        }
        // Chains are built from candidate indices, so a miss here means the
        // chain builder is broken — skip the entry rather than panic.
        let Some(&i) = cursor.chain.indices.get(cursor.pos) else {
            return;
        };
        cursor.pos += 1;
        let Some(candidate) = task.candidates.get(i) else {
            continue;
        };
        let step_started = Instant::now();
        match open_group_fit(
            candidate,
            &cursor.prev,
            task,
            cursor.diffed,
            &state.rotations,
            out,
        ) {
            Ok(session) => {
                cursor.spent += step_started.elapsed();
                cursor.active = Some((i, session));
            }
            Err(_) => {
                cursor.spent += step_started.elapsed();
                out.failures += 1;
                out.family_mut(candidate.family).failures += 1;
                out.family_mut(candidate.family).fit_time += cursor.spent;
                cursor.spent = Duration::ZERO;
            }
        }
    }
}

/// Open a fit session for one batched candidate, mirroring the sequential
/// path's per-candidate bookkeeping: the attempt count, the chain warm
/// start, the frozen champion re-score, and (for plain ARIMA candidates)
/// the cache hit. Batched groups never contain regression designs, so
/// `freeze_beta` never applies here.
fn open_group_fit(
    candidate: &CandidateModel,
    prev: &Option<(ModelConfig, Vec<f64>)>,
    task: &EvalTask,
    diffed: Option<&Differenced>,
    rotations: &BTreeMap<SeasonSig, Arc<RotationTables>>,
    out: &mut WorkerOutput,
) -> std::result::Result<FitSession, ModelError> {
    let opts = &task.opts;
    out.family_mut(candidate.family).attempts += 1;
    let mut fit_opts = opts.fit.clone();
    if opts.warm_start {
        if let Some((prev_config, prev_params)) = prev {
            if let Some(warm) = adapt_params(prev_config, prev_params, &candidate.config) {
                fit_opts.warm_start = Some(warm);
                out.warm_starts += 1;
            }
        }
    }
    if let Some((seed_config, seed_params, _)) = &task.seed {
        if *seed_config == candidate.config && seed_params.len() == seed_config.n_optimiser_params()
        {
            fit_opts.warm_start = Some(seed_params.clone());
            fit_opts.freeze_warm_start = true;
        }
    }
    match &candidate.config {
        ModelConfig::Sarimax(config) => {
            if config.has_regression() {
                return Err(ModelError::FitFailed {
                    context: "batched chain group contains a regression candidate".to_string(),
                });
            }
            let Some(diffed) = diffed else {
                return Err(ModelError::FitFailed {
                    context: "batched ARIMA chain lost its cached transform".to_string(),
                });
            };
            out.cache_hits += 1;
            ArimaFitSession::new(task.train, config.spec, &fit_opts, diffed)
                .map(|session| FitSession::Arima(Box::new(session)))
        }
        ModelConfig::Ets(config) => {
            let ets_opts = EtsFitOptions {
                warm_start: fit_opts.warm_start,
                freeze_warm_start: fit_opts.freeze_warm_start,
            };
            EtsFitSession::new(task.train, *config, &ets_opts)
                .map(|session| FitSession::Ets(Box::new(session)))
        }
        ModelConfig::Tbats(config) => {
            let tbats_opts = TbatsFitOptions {
                warm_start: fit_opts.warm_start,
                freeze_warm_start: fit_opts.freeze_warm_start,
            };
            let rotation = rotations.get(&season_sig(config)).cloned();
            TbatsFitSession::new(task.train, config.clone(), &tbats_opts, rotation)
                .map(|session| FitSession::Tbats(Box::new(session)))
        }
    }
}

/// Finalise one batched candidate's completed session — the lockstep
/// equivalent of [`run_chain`]'s post-[`score_one`] bookkeeping. Returns
/// the `(config, converged params)` pair to thread into the chain's next
/// warm start on success.
fn settle_group_fit(
    candidate_index: usize,
    session: FitSession,
    task: &EvalTask,
    out: &mut WorkerOutput,
) -> Option<(ModelConfig, Vec<f64>)> {
    let candidate = task.candidates.get(candidate_index)?;
    let fam = candidate.family;
    match score_group_fit(candidate, candidate_index, session, task) {
        Ok(scored) => {
            out.family_mut(fam).fits += 1;
            out.family_mut(fam).objective_evals += scored.nm_evals;
            out.objective_evals += scored.nm_evals;
            let prev = (candidate.config.clone(), scored.score.warm_params.clone());
            out.scores.push(scored.score);
            Some(prev)
        }
        Err(_) => {
            out.failures += 1;
            out.family_mut(fam).failures += 1;
            None
        }
    }
}

/// Score one batched candidate's finished fit. ARIMA sessions are wrapped
/// in the plain SARIMAX shell (exactly as
/// [`FittedSarimax::fit_plain_prepared`] does); ETS and TBATS sessions
/// finalise to their fitted models directly, exactly as the sequential
/// [`score_one`] arms do. Either way the test segment is forecast and
/// handed off to [`finish_score`].
fn score_group_fit(
    candidate: &CandidateModel,
    candidate_index: usize,
    session: FitSession,
    task: &EvalTask,
) -> std::result::Result<ScoredFit, ModelError> {
    match session {
        FitSession::Arima(session) => {
            let Some(config) = candidate.as_sarimax() else {
                return Err(ModelError::FitFailed {
                    context: "batched ARIMA session settled against a non-ARIMA candidate"
                        .to_string(),
                });
            };
            let arima = session.finish()?;
            let fit = FittedSarimax {
                nm_evals: arima.nm_evals,
                config: config.clone(),
                beta: vec![],
                arima,
                n_obs: task.train.len(),
                start_index: task.opts.start_index,
            };
            let forecast = fit.forecast_cols(task.test.len(), &[])?;
            let warm_beta = fit.beta.clone();
            finish_score(
                &fit,
                forecast,
                warm_beta,
                task.test,
                candidate,
                candidate_index,
            )
        }
        FitSession::Ets(session) => {
            let fit = session.finish()?;
            let forecast = fit.forecast(task.test.len());
            finish_score(
                &fit,
                forecast,
                Vec::new(),
                task.test,
                candidate,
                candidate_index,
            )
        }
        FitSession::Tbats(session) => {
            let fit = session.finish()?;
            let forecast = fit.forecast(task.test.len());
            finish_score(
                &fit,
                forecast,
                Vec::new(),
                task.test,
                candidate,
                candidate_index,
            )
        }
    }
}

/// The first `n` exogenous columns, or a typed mismatch error when the
/// task supplies fewer than the candidate's regression design needs.
fn exog_slice<'a>(
    cols: &'a [Vec<f64>],
    n: usize,
    segment: &str,
) -> std::result::Result<&'a [Vec<f64>], ModelError> {
    cols.get(..n).ok_or_else(|| ModelError::ExogenousMismatch {
        context: format!(
            "candidate needs {n} {segment} exogenous columns, task supplies {}",
            cols.len()
        ),
    })
}

/// A successful fit-and-score, plus the evaluation count for stats (the
/// chain's carry-forward warm seed lives in `score.warm_params`).
struct ScoredFit {
    score: ModelScore,
    nm_evals: usize,
}

/// Fit and score a single candidate, dispatching on its family. The
/// family-specific half ends at the fitted model; everything after the fit
/// goes through the [`Forecaster`] trait in [`finish_score`].
#[allow(clippy::too_many_arguments)]
fn score_one(
    train: &[f64],
    test: &[f64],
    exog_train: &[Vec<f64>],
    exog_test: &[Vec<f64>],
    candidate: &CandidateModel,
    candidate_index: usize,
    start_index: usize,
    fit_opts: &ArimaOptions,
    cached: Option<&Differenced>,
) -> std::result::Result<ScoredFit, ModelError> {
    match &candidate.config {
        ModelConfig::Sarimax(config) => {
            let n_exog = config.n_exog;
            if exog_train.len() < n_exog || exog_test.len() < n_exog {
                return Err(ModelError::ExogenousMismatch {
                    context: format!(
                        "candidate needs {n_exog} exogenous columns, evaluation has {}",
                        exog_train.len().min(exog_test.len())
                    ),
                });
            }
            let fit = match cached {
                Some(diffed) => {
                    FittedSarimax::fit_plain_prepared(train, config, diffed, start_index, fit_opts)?
                }
                None => {
                    let cols = exog_slice(exog_train, n_exog, "training")?;
                    FittedSarimax::fit(train, config, cols, start_index, fit_opts)?
                }
            };
            let future_exog: Vec<&[f64]> = exog_slice(exog_test, n_exog, "test")?
                .iter()
                .map(|c| c.as_slice())
                .collect();
            let forecast = fit.forecast_cols(test.len(), &future_exog)?;
            let warm_beta = fit.beta.clone();
            finish_score(&fit, forecast, warm_beta, test, candidate, candidate_index)
        }
        ModelConfig::Ets(config) => {
            let ets_opts = EtsFitOptions {
                warm_start: fit_opts.warm_start.clone(),
                freeze_warm_start: fit_opts.freeze_warm_start,
            };
            let fit = FittedEts::fit_with(train, *config, &ets_opts)?;
            let forecast = fit.forecast(test.len());
            finish_score(&fit, forecast, Vec::new(), test, candidate, candidate_index)
        }
        ModelConfig::Tbats(config) => {
            let tbats_opts = TbatsFitOptions {
                warm_start: fit_opts.warm_start.clone(),
                freeze_warm_start: fit_opts.freeze_warm_start,
            };
            let fit = FittedTbats::fit_with(train, config.clone(), &tbats_opts)?;
            let forecast = fit.forecast(test.len());
            finish_score(&fit, forecast, Vec::new(), test, candidate, candidate_index)
        }
    }
}

/// Score a fitted model's test-segment forecast — the family-agnostic half
/// of [`score_one`], written against the [`Forecaster`] trait.
fn finish_score<F: Forecaster>(
    fit: &F,
    forecast: Forecast,
    warm_beta: Vec<f64>,
    test: &[f64],
    candidate: &CandidateModel,
    candidate_index: usize,
) -> std::result::Result<ScoredFit, ModelError> {
    let accuracy = Accuracy::compute(test, &forecast.mean)?;
    if !accuracy.rmse.is_finite() {
        return Err(ModelError::FitFailed {
            context: format!("non-finite test RMSE for {}", candidate.config.describe()),
        });
    }
    let nm_evals = fit.objective_evals();
    Ok(ScoredFit {
        score: ModelScore {
            candidate: candidate.clone(),
            candidate_index,
            accuracy,
            aic: fit.aic(),
            forecast,
            warm_beta,
            warm_params: fit.converged_params().to_vec(),
        },
        nm_evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ModelGrid;
    use dwcp_models::{ArimaSpec, EtsConfig, SarimaxConfig};

    fn seasonal_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| {
                let tf = t as f64;
                100.0
                    + 20.0 * (2.0 * std::f64::consts::PI * tf / 12.0).sin()
                    + ((t * 2654435761 % 97) as f64) / 30.0
            })
            .collect()
    }

    fn plain(spec: ArimaSpec) -> CandidateModel {
        CandidateModel::new(ModelConfig::Sarimax(SarimaxConfig::plain(spec)))
    }

    fn small_candidates() -> Vec<CandidateModel> {
        vec![
            plain(ArimaSpec::arima(1, 0, 0)),
            plain(ArimaSpec::arima(2, 1, 1)),
            plain(ArimaSpec::sarima(1, 0, 0, 0, 1, 1, 12)),
        ]
    }

    #[test]
    fn champion_is_lowest_rmse() {
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let report = evaluate_candidates(
            train,
            test,
            &[],
            &[],
            &small_candidates(),
            &Default::default(),
        )
        .unwrap();
        for w in report.scores.windows(2) {
            assert!(w[0].accuracy.rmse <= w[1].accuracy.rmse);
        }
        // The seasonal model should beat the non-seasonal ones on strongly
        // seasonal data.
        assert_eq!(
            report.champion().unwrap().candidate.family,
            ModelFamily::Sarimax
        );
    }

    #[test]
    fn best_of_family_respects_bucket() {
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let report = evaluate_candidates(
            train,
            test,
            &[],
            &[],
            &small_candidates(),
            &Default::default(),
        )
        .unwrap();
        let best_arima = report.best_of_family(ModelFamily::Arima).unwrap();
        assert_eq!(best_arima.candidate.family, ModelFamily::Arima);
        let best_sarimax = report.best_of_family(ModelFamily::Sarimax).unwrap();
        assert!(best_sarimax.accuracy.rmse <= best_arima.accuracy.rmse);
    }

    #[test]
    fn infeasible_candidates_count_as_failures() {
        let y = seasonal_series(60); // too short for big seasonal models
        let (train, test) = y.split_at(48);
        let mut candidates = small_candidates();
        candidates.push(plain(ArimaSpec::sarima(20, 1, 2, 1, 1, 1, 24)));
        let report =
            evaluate_candidates(train, test, &[], &[], &candidates, &Default::default()).unwrap();
        assert!(report.failures >= 1);
        assert_eq!(report.attempted, 4);
    }

    #[test]
    fn all_infeasible_is_an_error() {
        let y = seasonal_series(30);
        let (train, test) = y.split_at(24);
        let candidates = vec![plain(ArimaSpec::sarima(20, 1, 2, 1, 1, 1, 24))];
        assert!(matches!(
            evaluate_candidates(train, test, &[], &[], &candidates, &Default::default()),
            Err(PlannerError::NoViableModel { attempted: 1 })
        ));
    }

    #[test]
    fn single_thread_matches_parallel_champion() {
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let mut reports = Vec::new();
        for threads in [1, 2, 4, 8] {
            let opts = EvaluationOptions {
                threads,
                ..Default::default()
            };
            reports.push(
                evaluate_candidates(train, test, &[], &[], &small_candidates(), &opts).unwrap(),
            );
        }
        let champ = reports[0].champion().unwrap();
        for r in &reports[1..] {
            let c = r.champion().unwrap();
            assert_eq!(champ.candidate.config, c.candidate.config);
            assert_eq!(champ.candidate_index, c.candidate_index);
            // Bit-identical, not merely close.
            assert_eq!(champ.accuracy.rmse.to_bits(), c.accuracy.rmse.to_bits());
        }
    }

    #[test]
    fn mixed_family_fleet_is_deterministic_across_threads() {
        // A fleet batch containing an HES task next to a SARIMAX task must
        // produce bit-identical champions at every thread count.
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let hes_grid = ModelGrid::ets(12, true, 0.95);
        let sarimax_candidates = small_candidates();
        let mut baseline: Option<Vec<(ModelConfig, u64)>> = None;
        for threads in [1usize, 2, 4, 8] {
            let tasks = vec![
                EvalTask {
                    train,
                    test,
                    exog_train: &[],
                    exog_test: &[],
                    candidates: &hes_grid.candidates,
                    opts: Default::default(),
                    seed: None,
                },
                EvalTask {
                    train,
                    test,
                    exog_train: &[],
                    exog_test: &[],
                    candidates: &sarimax_candidates,
                    opts: Default::default(),
                    seed: None,
                },
            ];
            let reports = evaluate_fleet(&tasks, threads);
            let champions: Vec<(ModelConfig, u64)> = reports
                .iter()
                .map(|r| {
                    let c = r.as_ref().unwrap().champion().unwrap();
                    (c.candidate.config.clone(), c.accuracy.rmse.to_bits())
                })
                .collect();
            match &baseline {
                None => baseline = Some(champions),
                Some(expected) => assert_eq!(expected, &champions, "threads={threads}"),
            }
        }
        let (hes_champion, _) = &baseline.unwrap()[0];
        assert!(hes_champion.as_ets().is_some());
    }

    #[test]
    fn hes_candidates_flow_through_engine() {
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let grid = ModelGrid::ets(12, true, 0.95);
        let report =
            evaluate_candidates(train, test, &[], &[], &grid.candidates, &Default::default())
                .unwrap();
        // Strong seasonality: a Holt-Winters variant must win the menu.
        let champion = report.champion().unwrap();
        assert_eq!(champion.candidate.family, ModelFamily::Hes);
        assert!(champion
            .candidate
            .config
            .describe()
            .contains("Holt-Winters"));
        assert!(!champion.warm_params.is_empty());
        let hes = report.stats.family(ModelFamily::Hes);
        assert_eq!(hes.attempts, grid.len());
        assert!(hes.fits >= 4);
        assert!(hes.objective_evals > 0);
    }

    #[test]
    fn hes_seed_freezes_champion_re_score() {
        // Re-evaluating with the stored champion as seed must reproduce
        // the stored parameters (frozen re-score) and the stored RMSE.
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let grid = ModelGrid::ets(12, true, 0.95);
        let cold =
            evaluate_candidates(train, test, &[], &[], &grid.candidates, &Default::default())
                .unwrap();
        let champion = cold.champion().unwrap().clone();
        let task = EvalTask {
            train,
            test,
            exog_train: &[],
            exog_test: &[],
            candidates: &grid.candidates,
            opts: Default::default(),
            seed: Some((
                champion.candidate.config.clone(),
                champion.warm_params.clone(),
                champion.warm_beta.clone(),
            )),
        };
        let seeded = evaluate_fleet(std::slice::from_ref(&task), 1)
            .pop()
            .unwrap()
            .unwrap();
        let re_scored = seeded
            .scores
            .iter()
            .find(|s| s.candidate.config == champion.candidate.config)
            .unwrap();
        assert_eq!(
            re_scored.accuracy.rmse.to_bits(),
            champion.accuracy.rmse.to_bits()
        );
        assert_eq!(re_scored.warm_params, champion.warm_params);
    }

    #[test]
    fn tied_rmse_resolves_to_lowest_candidate_index() {
        // Duplicate configs produce exactly equal RMSEs; the tie must
        // resolve to the earliest index at every thread count.
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let dup = plain(ArimaSpec::arima(1, 0, 0));
        let candidates = vec![dup.clone(), dup.clone(), dup];
        for threads in [1, 2, 4, 8] {
            let opts = EvaluationOptions {
                threads,
                ..Default::default()
            };
            let report = evaluate_candidates(train, test, &[], &[], &candidates, &opts).unwrap();
            assert_eq!(report.champion().unwrap().candidate_index, 0);
            let indices: Vec<usize> = report.scores.iter().map(|s| s.candidate_index).collect();
            assert_eq!(indices, vec![0, 1, 2]);
            let rmse0 = report.scores[0].accuracy.rmse;
            assert!(report
                .scores
                .iter()
                .all(|s| s.accuracy.rmse.to_bits() == rmse0.to_bits()));
        }
    }

    #[test]
    fn exogenous_candidates_receive_their_columns() {
        let n = 240;
        let shock: Vec<f64> = (0..n)
            .map(|t| if t % 12 == 0 { 1.0 } else { 0.0 })
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|t| 10.0 + 40.0 * shock[t] + ((t * 31 % 17) as f64) / 10.0)
            .collect();
        let (train, test) = y.split_at(216);
        let (shock_train, shock_test) = shock.split_at(216);
        let candidates = vec![CandidateModel {
            family: ModelFamily::SarimaxFftExogenous,
            config: ModelConfig::Sarimax(SarimaxConfig {
                spec: ArimaSpec::arima(1, 0, 0),
                fourier: Default::default(),
                n_exog: 1,
            }),
        }];
        let report = evaluate_candidates(
            train,
            test,
            &[shock_train.to_vec()],
            &[shock_test.to_vec()],
            &candidates,
            &Default::default(),
        )
        .unwrap();
        // With the shock explained exogenously the forecast error is small
        // relative to the shock magnitude.
        assert!(report.champion().unwrap().accuracy.rmse < 5.0);
    }

    #[test]
    fn grid_prune_plus_evaluate_smoke() {
        let y = seasonal_series(300);
        let (train, test) = y.split_at(276);
        let corr = dwcp_series::Correlogram::compute(train, 30).unwrap();
        let grid = ModelGrid::arima().prune(&corr, 8);
        let report =
            evaluate_candidates(train, test, &[], &[], &grid.candidates, &Default::default())
                .unwrap();
        assert!(!report.scores.is_empty());
    }

    #[test]
    fn accelerated_run_matches_baseline_champion() {
        // Cache + warm starts must not change which model wins in exact
        // mode (warm starts may sharpen losers' fits, but the cache path is
        // bit-identical and the optimiser never starts worse than cold).
        let y = seasonal_series(300);
        let (train, test) = y.split_at(276);
        let corr = dwcp_series::Correlogram::compute(train, 30).unwrap();
        let grid = ModelGrid::arima().prune(&corr, 10);
        let baseline = EvaluationOptions {
            cache_transforms: false,
            warm_start: false,
            ..Default::default()
        };
        let accel = EvaluationOptions::default();
        let r_base =
            evaluate_candidates(train, test, &[], &[], &grid.candidates, &baseline).unwrap();
        let r_accel = evaluate_candidates(train, test, &[], &[], &grid.candidates, &accel).unwrap();
        assert_eq!(
            r_base.champion().unwrap().candidate.config,
            r_accel.champion().unwrap().candidate.config
        );
        assert!(r_accel.stats.cache_hits > 0);
        assert!(r_accel.stats.cache_entries >= 1);
        assert_eq!(r_base.stats.cache_hits, 0);
        assert_eq!(r_base.stats.cache_entries, 0);
        // Warm-started evaluation must not cost accuracy: the champion's
        // test RMSE is no worse than the cold-start champion's.
        assert!(
            r_accel.champion().unwrap().accuracy.rmse
                <= r_base.champion().unwrap().accuracy.rmse * (1.0 + 1e-9),
            "warm {} vs cold {}",
            r_accel.champion().unwrap().accuracy.rmse,
            r_base.champion().unwrap().accuracy.rmse
        );
    }

    #[test]
    fn stats_cover_all_attempts() {
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        for threads in [1, 2] {
            let opts = EvaluationOptions {
                threads,
                ..Default::default()
            };
            let report =
                evaluate_candidates(train, test, &[], &[], &small_candidates(), &opts).unwrap();
            let total_attempts: usize = report.stats.families.iter().map(|f| f.attempts).sum();
            assert_eq!(total_attempts, report.attempted);
            // Every attempted candidate is either scored or counted failed.
            assert_eq!(report.failures + report.scores.len(), report.attempted);
            let arima = report.stats.family(ModelFamily::Arima);
            assert_eq!(arima.attempts, 2);
            assert!(report.stats.objective_evals > 0);
            assert!(report.stats.wall_time > Duration::ZERO);
        }
    }

    #[test]
    fn chains_are_independent_of_thread_count() {
        let candidates = ModelGrid::arima().candidates;
        let chains = build_chains(&candidates);
        // Every candidate appears exactly once.
        let mut seen: Vec<usize> = chains.iter().flat_map(|c| c.indices.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..candidates.len()).collect::<Vec<_>>());
        // Chain length bound holds.
        assert!(chains.iter().all(|c| c.indices.len() <= MAX_CHAIN_LEN));
        // Within a chain, every candidate shares a chain key.
        for chain in &chains {
            let key = chain_key(&candidates[chain.indices[0]].config);
            for &i in &chain.indices {
                assert_eq!(chain_key(&candidates[i].config), key);
            }
        }
    }

    #[test]
    fn chains_never_mix_families() {
        let mut candidates = ModelGrid::ets(12, true, 0.95).candidates;
        candidates.extend(small_candidates());
        candidates.extend(ModelGrid::tbats(&[12.0], Some(0.3), 0.95).candidates);
        let chains = build_chains(&candidates);
        let mut seen: Vec<usize> = chains.iter().flat_map(|c| c.indices.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..candidates.len()).collect::<Vec<_>>());
        for chain in &chains {
            let family = candidates[chain.indices[0]].family;
            assert!(chain
                .indices
                .iter()
                .all(|&i| candidates[i].family == family));
        }
    }

    /// Assert two reports carry bitwise-identical score sheets: same
    /// candidates in the same order, same RMSE/AIC bits, same converged
    /// parameters and forecasts.
    fn assert_reports_bitwise_equal(a: &EvaluationReport, b: &EvaluationReport) {
        assert_eq!(a.scores.len(), b.scores.len());
        assert_eq!(a.failures, b.failures);
        for (x, y) in a.scores.iter().zip(&b.scores) {
            let what = x.candidate.config.describe();
            assert_eq!(x.candidate_index, y.candidate_index, "{what}");
            assert_eq!(
                x.accuracy.rmse.to_bits(),
                y.accuracy.rmse.to_bits(),
                "{what}"
            );
            assert_eq!(x.aic.to_bits(), y.aic.to_bits(), "{what}");
            assert_eq!(x.warm_params.len(), y.warm_params.len(), "{what}");
            for (p, q) in x.warm_params.iter().zip(&y.warm_params) {
                assert_eq!(p.to_bits(), q.to_bits(), "{what}");
            }
            for (p, q) in x.forecast.mean.iter().zip(&y.forecast.mean) {
                assert_eq!(p.to_bits(), q.to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn batched_ets_tbats_match_sequential_bitwise() {
        // An ETS+TBATS grid under default options runs through the batched
        // recursion/filter kernels; with the cache layer disabled the same
        // grid runs through the sequential per-candidate path. The two
        // must agree bit for bit on every score.
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let mut candidates = ModelGrid::ets(12, true, 0.95).candidates;
        let mut tbats = ModelGrid::tbats(&[12.0], None, 0.95).candidates;
        tbats.truncate(6);
        candidates.extend(tbats);
        let batched =
            evaluate_candidates(train, test, &[], &[], &candidates, &Default::default()).unwrap();
        let sequential_opts = EvaluationOptions {
            cache_transforms: false,
            ..Default::default()
        };
        let sequential =
            evaluate_candidates(train, test, &[], &[], &candidates, &sequential_opts).unwrap();
        // No ARIMA candidates: every batched evaluation below went through
        // the ETS or TBATS kernel.
        assert!(batched.stats.lockstep.batched_evals > 0);
        assert_eq!(sequential.stats.lockstep.batched_evals, 0);
        assert_reports_bitwise_equal(&batched, &sequential);
    }

    #[test]
    fn mixed_family_batched_scores_identical_across_threads() {
        // One task mixing all three families, with more batchable chains
        // than 2 × 8 so every thread count splits the task into one
        // lockstep group per worker: the full score sheet — not just the
        // champion — must be bit-identical whatever the grouping.
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let mut candidates = ModelGrid::arima().candidates;
        candidates.extend(ModelGrid::ets(12, true, 0.95).candidates);
        candidates.extend(ModelGrid::tbats(&[12.0], Some(0.3), 0.95).candidates);
        assert!(build_chains(&candidates).len() > 2 * 8);
        let mut baseline: Option<EvaluationReport> = None;
        for threads in [1, 2, 4, 8] {
            let mut opts = EvaluationOptions {
                threads,
                ..Default::default()
            };
            // A small optimiser budget keeps the 240-candidate grid quick;
            // parity does not depend on it.
            opts.fit.max_evals = 40;
            let report = evaluate_candidates(train, test, &[], &[], &candidates, &opts).unwrap();
            assert_eq!(report.stats.lockstep.groups, threads, "threads={threads}");
            match &baseline {
                None => baseline = Some(report),
                Some(expected) => {
                    assert_eq!(expected.stats.objective_evals, report.stats.objective_evals);
                    assert_reports_bitwise_equal(expected, &report);
                }
            }
        }
    }

    #[test]
    fn single_task_runs_one_lockstep_group_per_worker() {
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let mut candidates = small_candidates();
        candidates.extend(ModelGrid::ets(12, true, 0.95).candidates);
        let mut tbats = ModelGrid::tbats(&[12.0], None, 0.95).candidates;
        tbats.truncate(4);
        candidates.extend(tbats);
        let opts = EvaluationOptions {
            threads: 2,
            ..Default::default()
        };
        let report = evaluate_candidates(train, test, &[], &[], &candidates, &opts).unwrap();
        assert_eq!(report.stats.lockstep.groups, 2);
        assert_eq!(report.scores.len() + report.failures, candidates.len());
    }

    /// Evaluate one task alone, at one thread.
    fn solo(task: &EvalTask) -> EvaluationReport {
        evaluate_fleet(std::slice::from_ref(task), 1)
            .pop()
            .unwrap()
            .unwrap()
    }

    #[test]
    fn fleet_with_more_tasks_than_workers_shares_one_group_per_worker() {
        // Three tasks on two workers: the batch's batchable chains form
        // one pair list, so two groups run in total (their stats land in
        // the report of the first task each claimed from), and every
        // report is still bit-identical to evaluating its task alone.
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let mut candidates = small_candidates();
        candidates.extend(ModelGrid::ets(12, true, 0.95).candidates);
        let tasks: Vec<EvalTask> = (0..3)
            .map(|_| EvalTask {
                train,
                test,
                exog_train: &[],
                exog_test: &[],
                candidates: &candidates,
                opts: Default::default(),
                seed: None,
            })
            .collect();
        let reports = evaluate_fleet(&tasks, 2);
        let groups: usize = reports
            .iter()
            .map(|r| r.as_ref().unwrap().stats.lockstep.groups)
            .sum();
        assert_eq!(groups, 2);
        for (task, report) in tasks.iter().zip(&reports) {
            let report = report.as_ref().unwrap();
            let alone = solo(task);
            assert_eq!(alone.stats.objective_evals, report.stats.objective_evals);
            assert_reports_bitwise_equal(&alone, report);
        }
    }

    #[test]
    fn multi_task_batch_matches_solo_evaluation_at_every_thread_count() {
        // One batch mixing HES grids at two periods, a TBATS lattice, a
        // plain-ARIMA grid and a task with exactly one batchable chain:
        // lockstep groups draw chains from all five, so the ETS kernel
        // packs additive lanes of periods 12 and 7 into one round, and
        // each report must equal its task evaluated alone, bit for bit, at
        // every thread count.
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let hes = ModelGrid::ets(12, true, 0.95).candidates;
        let hes_weekly = ModelGrid::ets(7, true, 0.95).candidates;
        let mut tbats = ModelGrid::tbats(&[12.0], Some(0.3), 0.95).candidates;
        tbats.truncate(8);
        let corr = dwcp_series::Correlogram::compute(train, 30).unwrap();
        let arima = ModelGrid::arima().prune(&corr, 10).candidates;
        let lone = vec![CandidateModel::new(ModelConfig::Ets(EtsConfig::holt()))];
        let mut opts = EvaluationOptions::default();
        opts.fit.max_evals = 60;
        let tasks: Vec<EvalTask> = [&hes, &hes_weekly, &tbats, &arima, &lone]
            .into_iter()
            .map(|candidates| EvalTask {
                train,
                test,
                exog_train: &[],
                exog_test: &[],
                candidates,
                opts: opts.clone(),
                seed: None,
            })
            .collect();
        assert_eq!(build_chains(&lone).len(), 1);
        // Every chain of these grids batches.
        let pairs: usize = tasks.iter().map(|t| build_chains(t.candidates).len()).sum();
        let alone: Vec<EvaluationReport> = tasks.iter().map(solo).collect();
        // Alone, the single-chain task never locksteps.
        assert_eq!(alone[4].stats.lockstep.groups, 0);
        for threads in [1, 2, 4, 8] {
            let reports = evaluate_fleet(&tasks, threads);
            let groups: usize = reports
                .iter()
                .map(|r| r.as_ref().unwrap().stats.lockstep.groups)
                .sum();
            assert_eq!(groups, threads.min(pairs), "threads={threads}");
            for (expected, report) in alone.iter().zip(&reports) {
                let report = report.as_ref().unwrap();
                assert_eq!(
                    expected.stats.objective_evals, report.stats.objective_evals,
                    "threads={threads}"
                );
                assert_reports_bitwise_equal(expected, report);
            }
        }
    }

    #[test]
    fn pool_map_returns_results_by_index() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 8] {
            let squares = map_on_pool(&items, threads, |&i| i * i);
            let expected: Vec<Option<usize>> = items.iter().map(|&i| Some(i * i)).collect();
            assert_eq!(squares, expected, "threads={threads}");
        }
        assert!(map_on_pool(&[] as &[usize], 2, |&i| i).is_empty());
    }

    #[test]
    fn a_lone_worker_runs_on_the_calling_thread_and_panics_stay_contained() {
        let caller = std::thread::current().id();
        assert_eq!(
            run_workers(1, || std::thread::current().id()),
            vec![Some(caller)]
        );
        // A lone worker that panics yields nothing, so `evaluate_fleet`
        // fails every task typed; the panic goes no further.
        let lost: Vec<Option<()>> = run_workers(1, || panic!("seeded worker failure"));
        assert_eq!(lost, vec![None]);
        // In a pool of two, only the panicking worker's output is lost,
        // and both ran off the calling thread.
        let claimed = AtomicUsize::new(0);
        let outputs = run_workers(2, || {
            let i = claimed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            assert_ne!(i, 0, "seeded worker failure");
            std::thread::current().id()
        });
        assert_eq!(outputs.len(), 2);
        assert_eq!(outputs.iter().filter(|o| o.is_none()).count(), 1);
        assert!(outputs.iter().flatten().all(|&id| id != caller));
    }

    #[test]
    fn pool_map_contains_a_panicking_worker() {
        // One worker: the panic takes every item it claimed (all of them)
        // with it, and nothing propagates to the caller.
        let items: Vec<usize> = (0..4).collect();
        let lost = map_on_pool(&items, 1, |&i| {
            assert_ne!(i, 2, "seeded planning failure");
            i
        });
        assert_eq!(lost, vec![None; 4]);
        // Two workers: the panicking item is lost; every result that did
        // come back is right.
        let some = map_on_pool(&items, 2, |&i| {
            assert_ne!(i, 2, "seeded planning failure");
            i
        });
        assert_eq!(some.get(2), Some(&None));
        for (i, result) in some.iter().enumerate() {
            assert!(result.is_none() || *result == Some(i));
        }
    }

    #[test]
    fn tbats_seed_freezes_champion_re_score() {
        // The TBATS twin of `hes_seed_freezes_champion_re_score`: with the
        // stored champion as seed, the batched path must re-score the
        // stored parameters verbatim through the frozen one-lane kernel pass.
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let mut candidates = ModelGrid::tbats(&[12.0], None, 0.95).candidates;
        candidates.truncate(6);
        let cold =
            evaluate_candidates(train, test, &[], &[], &candidates, &Default::default()).unwrap();
        let champion = cold.champion().unwrap().clone();
        assert_eq!(champion.candidate.family, ModelFamily::Tbats);
        let task = EvalTask {
            train,
            test,
            exog_train: &[],
            exog_test: &[],
            candidates: &candidates,
            opts: Default::default(),
            seed: Some((
                champion.candidate.config.clone(),
                champion.warm_params.clone(),
                champion.warm_beta.clone(),
            )),
        };
        let seeded = evaluate_fleet(std::slice::from_ref(&task), 1)
            .pop()
            .unwrap()
            .unwrap();
        let re_scored = seeded
            .scores
            .iter()
            .find(|s| s.candidate.config == champion.candidate.config)
            .unwrap();
        assert_eq!(
            re_scored.accuracy.rmse.to_bits(),
            champion.accuracy.rmse.to_bits()
        );
        assert_eq!(re_scored.warm_params, champion.warm_params);
    }

    #[test]
    fn ets_menu_tie_break_prefers_simpler_model() {
        // Two copies of the same ETS config: exact tie resolves to the
        // earlier candidate at any thread count.
        let y = seasonal_series(240);
        let (train, test) = y.split_at(216);
        let dup = CandidateModel::new(ModelConfig::Ets(EtsConfig::holt()));
        let candidates = vec![dup.clone(), dup];
        for threads in [1, 4] {
            let opts = EvaluationOptions {
                threads,
                ..Default::default()
            };
            let report = evaluate_candidates(train, test, &[], &[], &candidates, &opts).unwrap();
            assert_eq!(report.champion().unwrap().candidate_index, 0);
        }
    }
}
