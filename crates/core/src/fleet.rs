//! Fleet-scale pipeline scheduling — the paper's deployment shape.
//!
//! §5.1 describes an agent polling *every* instance of every clustered
//! database for CPU %, Memory and Logical IOPS, with a central repository
//! that keeps each champion "for a period of one week or until the model's
//! RMSE drops to a point where it is rendered useless". That is a batch of
//! (instance, metric, granularity) series relearned together — not one
//! series at a time. This module adds that layer:
//!
//! * [`run_batch_on`] runs a batch of [`SeriesJob`]s through **one**
//!   shared worker pool ([`evaluate_fleet`]) against any
//!   [`ChampionStore`]: every job's candidate chains are interleaved under
//!   a single global concurrency cap, so a 12-job batch at 4 threads keeps
//!   4 cores busy end to end instead of paying 12 pool ramp-down tails.
//!   Results stay per-job deterministic — each job's report is merged and
//!   tie-broken exactly as in the single-grid path, so champions and RMSEs
//!   are bit-identical at any thread count.
//! * [`EstateScheduler`] streams a [`JobSource`] through `run_batch_on` in
//!   bounded-memory waves over a [`ShardedRepository`], on disk or in
//!   memory. An all-at-once batch is one wave; champions do not depend on
//!   the wave size.
//! * **Champion reuse, §5.1's way**: each job is decided by
//!   [`RetentionPolicy::relearn_reason`], as the resident engine decides
//!   each new hour. A fresh stored champion is re-scored frozen — its
//!   stored configuration at its stored parameters, one objective
//!   evaluation, no profile and no grid — and kept without a new record,
//!   so it turns stale a week after it was fitted. Only when that RMSE
//!   degrades past the policy factor does the job search: the pruned
//!   neighbourhood around the stored configuration
//!   ([`ModelGrid::neighbourhood_of`]), warm-started from the stored
//!   parameters, then the full grid if the neighbourhood champion
//!   degrades too. A stale or missing champion runs the full grid.
//!
//! HES and TBATS jobs are first-class batch citizens: their candidate
//! menus interleave through the same shared pool, persist champions with
//! frozen converged parameters, and are re-scored and searched from the
//! stored seed exactly like SARIMAX jobs.

use crate::engine::{AggregateStage, GridPlan, ScoreStage, SplitPlan};
use crate::evaluate::{evaluate_fleet, map_on_pool, EvalStats, EvalTask, EvaluationReport};
use crate::grid::{CandidateModel, ModelConfig, ModelGrid};
use crate::pipeline::{ForecastOutcome, MethodChoice, PipelineConfig};
use crate::repository::{
    shard_of, ChampionStore, ModelRecord, RelearnReason, RetentionPolicy, ShardedRepository,
};
use crate::{protocol, PlannerError, Result};
use dwcp_series::TimeSeries;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One series to forecast: a workload key (repository identity), the
/// observations, optional exogenous indicator columns, and the pipeline
/// configuration to apply.
#[derive(Debug, Clone)]
pub struct SeriesJob {
    /// Workload key, e.g. `cdbm011/CPU/hourly` — the repository lookup and
    /// store key for champion reuse.
    pub key: String,
    /// The monitored series.
    pub series: TimeSeries,
    /// Exogenous indicator columns spanning the same observations (empty
    /// when no shock calendar is known).
    pub exog: Vec<Vec<f64>>,
    /// Pipeline configuration for this job (method, granularity, grid cap,
    /// evaluation options). `config.eval.threads` is ignored — the pool is
    /// shared across the batch and sized by [`FleetOptions::threads`].
    pub config: PipelineConfig,
}

impl SeriesJob {
    /// A job with no exogenous columns.
    pub fn new(key: impl Into<String>, series: TimeSeries, config: PipelineConfig) -> SeriesJob {
        SeriesJob {
            key: key.into(),
            series,
            exog: Vec::new(),
            config,
        }
    }

    /// Attach exogenous indicator columns (builder style).
    pub fn with_exog(mut self, exog: Vec<Vec<f64>>) -> SeriesJob {
        self.exog = exog;
        self
    }
}

/// Fleet scheduling knobs.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Worker threads shared by the whole batch; 0 = one per core.
    pub threads: usize,
    /// Neighbourhood radius around a stored champion's `(p, q)` orders,
    /// searched when its frozen re-score degraded.
    pub neighbourhood_radius: usize,
    /// Current epoch-seconds, used for the staleness check and stamped
    /// into stored records. Passed in (not read from a clock) so batch
    /// runs are reproducible.
    pub now: u64,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            threads: 0,
            neighbourhood_radius: 1,
            now: 0,
        }
    }
}

/// The outcome of one job in a batch.
#[derive(Debug)]
pub struct JobResult {
    /// The job's workload key.
    pub key: String,
    /// The forecast outcome, or why the job failed (a failed job never
    /// poisons its batch neighbours).
    pub outcome: Result<ForecastOutcome>,
    /// Whether the job had a fresh stored champion to re-score: kept, or
    /// degraded and searched from its seed.
    pub reused: bool,
    /// Whether the seeded neighbourhood search degraded too and the full
    /// grid ran.
    pub fell_back: bool,
    /// Why the job searched (§5.1's retention rules), or `None` when the
    /// frozen re-score kept the stored champion.
    pub relearn: Option<RelearnReason>,
}

/// The outcome of a whole batch.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-job results, in input order.
    pub jobs: Vec<JobResult>,
    /// Batch-aggregated evaluation stats: counters summed over every pass
    /// of every job (including work discarded when a stage degraded),
    /// `wall_time` the true batch wall clock, and the champion-reuse
    /// hit/miss/fallback counts.
    pub stats: EvalStats,
}

/// One grid a job tries. A job tries its grids in order and stops at the
/// first whose champion the retention rules accept; the last one stands
/// whatever it scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// The stored champion alone at its stored parameters: one objective
    /// evaluation, no optimiser.
    Frozen,
    /// The pruned neighbourhood around the stored configuration, seeded
    /// from its parameters.
    Neighbourhood,
    /// The method's full grid, unseeded: exactly what a cold
    /// `Pipeline::run` searches.
    Full,
}

/// The grids of a job with a fresh, scoreable stored champion.
const KEEP_OR_SEARCH: &[Stage] = &[Stage::Frozen, Stage::Neighbourhood, Stage::Full];
/// The grids of a job with no usable stored champion, or a stale one.
const SEARCH: &[Stage] = &[Stage::Full];

/// A fresh stored champion a job can re-score frozen.
struct StoredChampion {
    /// The stored record, judged by the retention rules after each seeded
    /// stage (its `fitted_at` and `baseline_rmse`).
    record: ModelRecord,
    /// The stored configuration: the frozen stage's only candidate.
    candidate: CandidateModel,
    /// The stored converged parameters and regression coefficients.
    params: Vec<f64>,
    beta: Vec<f64>,
}

impl StoredChampion {
    /// The champion seed a seeded stage's task carries.
    fn seed(&self) -> (ModelConfig, Vec<f64>, Vec<f64>) {
        (
            self.candidate.config.clone(),
            self.params.clone(),
            self.beta.clone(),
        )
    }
}

/// A job after its split half, carried across the batch passes.
struct PreparedJob<'a> {
    /// Index into the batch's result vector.
    job_idx: usize,
    job: &'a SeriesJob,
    data: SplitPlan,
    /// The grid half, planned once the job searches.
    grid: Option<GridPlan>,
    stored: Option<StoredChampion>,
    /// The grids still to try, the current one first.
    stages: &'static [Stage],
    /// The current search stage's candidates (the frozen stage scores the
    /// stored champion's own).
    candidates: Vec<CandidateModel>,
    relearn: Option<RelearnReason>,
    fell_back: bool,
    report: Option<EvaluationReport>,
    /// Why the job could not plan the grid it was to search.
    failed: Option<PlannerError>,
    /// Stats of work a degraded stage discarded — still real compute, so
    /// still counted in the batch aggregate.
    wasted: EvalStats,
}

impl PreparedJob<'_> {
    /// The current stage, while one is left to run.
    fn stage(&self) -> Option<Stage> {
        self.stages.first().copied()
    }

    /// Whether the job is entering a search without its grid half.
    fn needs_grid(&self) -> bool {
        self.stage().is_some_and(|stage| stage != Stage::Frozen) && self.grid.is_none()
    }

    /// Load a search stage's candidates.
    fn enter_stage(&mut self, options: &FleetOptions) {
        match (self.stage(), &self.stored) {
            (Some(Stage::Neighbourhood), Some(stored)) => {
                let period = self.job.config.granularity.seasonal_period();
                let config = &stored.candidate.config;
                self.candidates =
                    ModelGrid::neighbourhood_of(config, options.neighbourhood_radius, period)
                        .candidates;
            }
            (Some(Stage::Full), _) => {
                if let Some(grid) = self.grid.as_mut() {
                    self.candidates = std::mem::take(&mut grid.set.models);
                }
            }
            _ => {}
        }
    }

    /// This stage's evaluation task: the seeded stages carry the stored
    /// champion's seed, the full grid runs unseeded.
    fn task(&self) -> EvalTask<'_> {
        match (self.stage(), &self.stored) {
            (Some(Stage::Frozen), Some(stored)) => self
                .data
                .task(std::slice::from_ref(&stored.candidate), Some(stored.seed())),
            (Some(Stage::Neighbourhood), Some(stored)) => {
                self.data.task(&self.candidates, Some(stored.seed()))
            }
            _ => self.data.task(&self.candidates, None),
        }
    }

    /// Take the finished stage's report. A seeded stage whose champion
    /// the retention rules reject (or that found none) is discarded and
    /// the job moves on to its next grid; otherwise the job is done.
    fn settle(&mut self, report: Result<EvaluationReport>, policy: RetentionPolicy, now: u64) {
        let report = report.ok();
        let champion = report.as_ref().and_then(EvaluationReport::champion);
        let rest = self.stages.get(1..).unwrap_or_default();
        // The last grid stands whatever it scores.
        let degraded = !rest.is_empty()
            && match (&self.stored, champion) {
                (Some(stored), Some(champion)) => policy
                    .relearn_reason(Some(&stored.record), now, Some(champion.accuracy.rmse))
                    .is_some(),
                _ => true,
            };
        if !degraded {
            self.report = report;
            self.stages = &[];
            return;
        }
        if let Some(report) = report {
            self.wasted.merge(&report.stats);
        }
        match self.stage() {
            Some(Stage::Frozen) => self.relearn = Some(RelearnReason::Degraded),
            _ => self.fell_back = true,
        }
        self.stages = rest;
    }
}

/// Decide a job against the store before anything is scored: the fresh
/// stored champion it re-scores frozen, or why it searches. A record the
/// job cannot re-score counts as missing: another granularity, a family
/// the job's method does not search, more exogenous columns than the job
/// supplies, or stored parameters that do not fit the configuration.
fn stored_champion(
    options: &FleetOptions,
    policy: RetentionPolicy,
    store: &mut dyn ChampionStore,
    job: &SeriesJob,
) -> std::result::Result<StoredChampion, RelearnReason> {
    let mut record = store.fetch(&job.key).ok_or(RelearnReason::Missing)?;
    let scoreable = |config: &ModelConfig| {
        let searched = matches!(
            (config, job.config.method),
            (_, MethodChoice::Auto)
                | (ModelConfig::Sarimax(_), MethodChoice::Sarimax)
                | (ModelConfig::Ets(_), MethodChoice::Hes)
                | (ModelConfig::Tbats(_), MethodChoice::Tbats)
        );
        searched
            && record.granularity == job.config.granularity
            && record.warm_params.len() == config.n_optimiser_params()
            && config
                .as_sarimax()
                .is_none_or(|c| c.n_exog <= job.exog.len())
    };
    let config = record
        .champion_config
        .take()
        .filter(scoreable)
        .ok_or(RelearnReason::Missing)?;
    // No live RMSE yet, so only the age rule can fire.
    if let Some(reason) = policy.relearn_reason(Some(&record), options.now, None) {
        return Err(reason);
    }
    let params = std::mem::take(&mut record.warm_params);
    let beta = std::mem::take(&mut record.warm_beta);
    Ok(StoredChampion {
        record,
        candidate: CandidateModel::new(config),
        params,
        beta,
    })
}

/// Run a batch of jobs against any [`ChampionStore`], deciding each job
/// by §5.1's retention rules ([`RetentionPolicy::relearn_reason`]), the
/// way the resident engine does. Returns per-job results in input order.
///
/// * A fresh stored champion the job can re-score is re-scored frozen:
///   its stored configuration is the only candidate, at its stored
///   parameters. When the retention rules accept that RMSE the champion
///   is kept and nothing is `put`: the record keeps its `fitted_at` and
///   baseline, so it turns stale a week after it was fitted.
/// * A champion whose frozen RMSE degraded searches its neighbourhood,
///   seeded from the stored parameters, and falls back to the full grid
///   if the neighbourhood champion degrades too.
/// * A stale or missing champion runs the full grid.
///
/// Every searched champion is `put` back into the store. Only a job that
/// searches profiles its series and builds a grid (the aggregate stage's
/// grid half); a kept one makes the Table 1 split and nothing more.
///
/// The decisions are made against the store serially, in job order; the
/// split and grid halves run on the pool. Each evaluation pass is one
/// wide batch over the pool running every job's current grid, all
/// deterministic at any thread count: the first pass holds every frozen
/// re-score and full grid, later ones only the searches a degraded stage
/// moved on to. A last pass runs the §6.3 Fourier-variant stage for every
/// searching job that wants it.
pub fn run_batch_on(
    options: &FleetOptions,
    store: &mut dyn ChampionStore,
    jobs: &[SeriesJob],
) -> FleetReport {
    let started = Instant::now();
    let policy = store.retention();
    let mut results: Vec<Option<JobResult>> = (0..jobs.len()).map(|_| None).collect();
    let mut batch = EvalStats::default();

    // Phase A — every job's split half on the pool, then the §5.1
    // decision against the store, serially in job order. The split half is
    // a pure function of its job, so where it is computed cannot change it.
    let splits = map_on_pool(jobs, options.threads, |job| {
        AggregateStage::split(&job.config, &job.series, &job.exog)
    });
    let mut prepared: Vec<PreparedJob> = Vec::with_capacity(jobs.len());
    for ((job_idx, job), split) in jobs.iter().enumerate().zip(splits) {
        // A planning worker that panicked loses every job it claimed;
        // those fail typed rather than being re-planned here.
        let split = split.unwrap_or(Err(PlannerError::Internal {
            context: "a planning worker panicked",
        }));
        match split {
            Ok(data) => {
                let (stored, relearn, stages) = match stored_champion(options, policy, store, job) {
                    Ok(stored) => (Some(stored), None, KEEP_OR_SEARCH),
                    Err(reason) => (None, Some(reason), SEARCH),
                };
                prepared.push(PreparedJob {
                    job_idx,
                    job,
                    data,
                    grid: None,
                    stored,
                    stages,
                    candidates: Vec::new(),
                    relearn,
                    fell_back: false,
                    report: None,
                    failed: None,
                    wasted: EvalStats::default(),
                });
            }
            Err(e) => {
                if let Some(slot) = results.get_mut(job_idx) {
                    *slot = Some(JobResult {
                        key: job.key.clone(),
                        outcome: Err(e),
                        reused: false,
                        fell_back: false,
                        relearn: None,
                    });
                }
            }
        }
    }
    batch.reuse_hits = prepared.iter().filter(|p| p.stored.is_some()).count();
    batch.reuse_misses = prepared.len() - batch.reuse_hits;

    // Evaluation passes — each runs every unfinished job's current grid
    // through one shared pool. A job entering a search (a missing or stale
    // champion in the first pass, a degraded one later) first plans its
    // grid half, on the pool.
    loop {
        let planning: Vec<usize> = (0..prepared.len())
            .filter(|&i| prepared.get(i).is_some_and(PreparedJob::needs_grid))
            .collect();
        if !planning.is_empty() {
            let grids = map_on_pool(&planning, options.threads, |&i| {
                let job = prepared.get(i)?;
                Some(AggregateStage::grid(&job.job.config, &job.data))
            });
            for (i, grid) in planning.into_iter().zip(grids) {
                let Some(job) = prepared.get_mut(i) else {
                    continue;
                };
                // A grid that cannot be planned leaves the job nothing to
                // search: it fails with the planning error.
                match grid.flatten().unwrap_or(Err(PlannerError::Internal {
                    context: "a planning worker panicked",
                })) {
                    Ok(grid) => job.grid = Some(grid),
                    Err(e) => {
                        job.failed = Some(e);
                        job.stages = &[];
                    }
                }
            }
        }
        for job in prepared.iter_mut() {
            job.enter_stage(options);
        }
        let tasks: Vec<EvalTask> = prepared
            .iter()
            .filter(|job| job.stage().is_some())
            .map(PreparedJob::task)
            .collect();
        if tasks.is_empty() {
            break;
        }
        let reports = evaluate_fleet(&tasks, options.threads);
        drop(tasks);
        let active = prepared.iter_mut().filter(|job| job.stage().is_some());
        for (job, report) in active.zip(reports) {
            job.settle(report, policy, options.now);
        }
    }
    batch.reuse_fallbacks = prepared.iter().filter(|p| p.fell_back).count();

    // Fourier pass — the §6.3 variant stage for every searching job that
    // wants it, again through one shared pool. A kept champion is scored
    // as stored.
    {
        let staged: Vec<(usize, Vec<CandidateModel>)> = prepared
            .iter()
            .enumerate()
            .filter_map(|(i, job)| {
                let (report, grid) = (job.report.as_ref()?, job.grid.as_ref()?);
                let variants =
                    ScoreStage::fourier_candidates(&job.job.config, &grid.set.profile, report);
                (!variants.is_empty()).then_some((i, variants))
            })
            .collect();
        if !staged.is_empty() {
            let tasks: Vec<EvalTask> = staged
                .iter()
                .filter_map(|(i, variants)| Some(prepared.get(*i)?.data.task(variants, None)))
                .collect();
            let reports = evaluate_fleet(&tasks, options.threads);
            drop(tasks);
            // Staged indices come from enumerating `prepared`, and only
            // jobs with a report are staged — both lookups hold by
            // construction, so a miss just drops the variant scores.
            for ((i, _), report) in staged.into_iter().zip(reports) {
                if let Ok(fourier_report) = report {
                    if let Some(target) = prepared.get_mut(i).and_then(|job| job.report.as_mut()) {
                        target.absorb(fourier_report);
                    }
                }
            }
        }
    }

    // Phase B — assemble outcomes, store every searched champion,
    // aggregate.
    for job in prepared {
        let key = &job.job.key;
        batch.merge(&job.wasted);
        let outcome = match (job.report, job.failed) {
            (Some(report), _) => ScoreStage::outcome_from_report(
                job.data,
                job.grid.map(|grid| grid.set.profile),
                report,
            ),
            (None, Some(e)) => Err(e),
            (None, None) => Err(PlannerError::NoViableModel {
                attempted: job.candidates.len(),
            }),
        };
        if let Ok(outcome) = &outcome {
            batch.merge(&outcome.stats);
            if job.relearn.is_some() {
                store.put(ModelRecord::from_outcome(
                    key,
                    outcome,
                    job.job.config.granularity,
                    options.now,
                ));
            }
        }
        if let Some(slot) = results.get_mut(job.job_idx) {
            *slot = Some(JobResult {
                key: key.clone(),
                outcome,
                reused: job.stored.is_some(),
                fell_back: job.fell_back,
                relearn: job.relearn,
            });
        }
    }
    batch.wall_time = started.elapsed();
    FleetReport {
        jobs: results
            .into_iter()
            .zip(jobs)
            .map(|(result, job)| {
                // Every job is either planned (phase A failure slot) or
                // prepared (phase B slot); an empty slot is a scheduler
                // bug, reported as a typed per-job error.
                result.unwrap_or_else(|| JobResult {
                    key: job.key.clone(),
                    outcome: Err(PlannerError::Internal {
                        context: "fleet job produced no result",
                    }),
                    reused: false,
                    fell_back: false,
                    relearn: None,
                })
            })
            .collect(),
        stats: batch,
    }
}

// ---------------------------------------------------------------------------
// Estate-scale wave scheduling
// ---------------------------------------------------------------------------

/// Where an estate scan's jobs come from. The scheduler asks for the full
/// key list up front (cheap: keys are strings), then materialises each
/// job's series only when its wave starts — so a million-job estate is
/// never resident at once.
pub trait JobSource {
    /// Every workload key the scan covers, in the source's natural order.
    fn keys(&self) -> Vec<String>;
    /// Materialise one job (load/generate its series and config).
    fn load(&self, key: &str) -> Result<SeriesJob>;
}

/// A [`JobSource`] over jobs already in memory — `dwcp fleet`'s CSV
/// inputs, tests and examples.
pub struct SliceJobSource<'a> {
    jobs: &'a [SeriesJob],
}

impl<'a> SliceJobSource<'a> {
    /// Wrap a slice of in-memory jobs.
    pub fn new(jobs: &'a [SeriesJob]) -> SliceJobSource<'a> {
        SliceJobSource { jobs }
    }
}

impl JobSource for SliceJobSource<'_> {
    fn keys(&self) -> Vec<String> {
        self.jobs.iter().map(|j| j.key.clone()).collect()
    }

    fn load(&self, key: &str) -> Result<SeriesJob> {
        self.jobs
            .iter()
            .find(|j| j.key == key)
            .cloned()
            .ok_or(PlannerError::Internal {
                context: "job source asked for an unknown key",
            })
    }
}

/// Wave scheduling knobs.
#[derive(Debug, Clone, Default)]
pub struct WaveOptions {
    /// Jobs materialised per wave; 0 falls back to 1024. Peak memory is
    /// O(`wave_size` × series length), independent of the estate size.
    pub wave_size: usize,
    /// Checkpoint file recording completed job keys; a scan restarted with
    /// the same path skips them (resume without refitting). `None` runs
    /// uncheckpointed.
    pub checkpoint: Option<PathBuf>,
    /// Stop after this many waves (0 = run to completion) — the hook
    /// that lets tests and benches simulate a killed nightly relearn.
    pub max_waves: usize,
}

impl WaveOptions {
    fn effective_wave_size(&self) -> usize {
        if self.wave_size == 0 {
            1024
        } else {
            self.wave_size
        }
    }
}

/// Progress snapshot delivered to the wave callback after each wave
/// retires.
#[derive(Debug, Clone)]
pub struct WaveProgress {
    /// 1-based index of the wave that just retired.
    pub wave: usize,
    /// Total waves in this scan (after checkpoint skips).
    pub total_waves: usize,
    /// Jobs finished so far (completed + failed), excluding skips.
    pub jobs_done: usize,
    /// Jobs this scan will run (excluding checkpoint skips).
    pub jobs_total: usize,
    /// Wall time of the wave that just retired.
    pub wave_wall: Duration,
    /// Bytes of series + exogenous data resident during the wave.
    pub wave_bytes: usize,
}

/// The outcome of an estate scan.
#[derive(Debug)]
pub struct WaveReport {
    /// Keys yielded by the source (after de-duplication).
    pub total_jobs: usize,
    /// Jobs skipped because the checkpoint already recorded them.
    pub skipped: usize,
    /// Waves actually run.
    pub waves: usize,
    /// Jobs that produced (and persisted) a champion.
    pub completed: usize,
    /// Jobs that failed (plan/load errors); never checkpointed, so a
    /// resumed scan retries them.
    pub failed: usize,
    /// Evaluation stats aggregated over every wave; `wall_time` is the
    /// whole scan's wall clock.
    pub stats: EvalStats,
    /// Largest series+exog working set any wave held — the bounded-memory
    /// claim, measurable.
    pub peak_wave_bytes: usize,
    /// True when `max_waves` stopped the scan before the job list was
    /// drained (the checkpoint lets the next run resume).
    pub stopped_early: bool,
}

impl WaveReport {
    /// Successfully forecast jobs per second of scan wall time.
    pub fn jobs_per_second(&self) -> f64 {
        let secs = self.stats.wall_time.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }
}

/// The per-wave champion store handed to [`run_batch_on`]: champions
/// prefetched from the sharded repository before the wave, fresh champions
/// collected for one batched flush after it. Keeps the wave's repository
/// traffic to one load + one append per touched shard.
struct WaveStore {
    policy: RetentionPolicy,
    records: BTreeMap<String, ModelRecord>,
    fresh: Vec<ModelRecord>,
}

impl ChampionStore for WaveStore {
    fn retention(&self) -> RetentionPolicy {
        self.policy
    }

    fn fetch(&mut self, workload: &str) -> Option<ModelRecord> {
        self.records.get(workload).cloned()
    }

    fn put(&mut self, record: ModelRecord) {
        self.fresh.push(record);
    }
}

/// Resumable-scan checkpoint file: a header line
/// `{"dwcp_checkpoint":1,"total":N}` followed by one JSON string per
/// completed workload key. Appended after each wave's repository flush —
/// a checkpointed key's champion is guaranteed on disk — and loaded
/// leniently (a torn tail line just means that one job refits).
///
/// The record-then-publish ordering behind that guarantee is
/// [`protocol::commit_wave`], which the scheduler drives through its
/// private `RepoLedger` and the bounded model checker drives through an
/// instrumented ledger (`tests/model_check.rs`).
pub struct Checkpoint;

impl Checkpoint {
    /// Completed keys recorded at `path`. A missing file is an empty
    /// checkpoint (fresh scan); unparseable lines are skipped.
    pub fn load(path: &Path) -> BTreeSet<String> {
        let mut done = BTreeSet::new();
        let Ok(content) = std::fs::read_to_string(path) else {
            return done;
        };
        for line in content.lines() {
            if let Ok(key) = serde_json::from_str::<String>(line) {
                done.insert(key);
            }
        }
        done
    }

    /// Append `keys` to the checkpoint at `path`, creating it (with its
    /// header) on first use. `total` is the scan's de-duplicated job
    /// count, recorded for progress display.
    pub fn append(path: &Path, total: usize, keys: &[String]) -> Result<()> {
        let mut batch = String::new();
        match std::fs::metadata(path) {
            Ok(meta) => {
                // Guard against a torn tail from a previous crash: if the
                // file does not end in a newline, start on a fresh line so
                // the torn line cannot swallow the first new key.
                if meta.len() > 0 {
                    let Ok(content) = std::fs::read_to_string(path) else {
                        return Err(PlannerError::Persistence(format!(
                            "checkpoint {} is unreadable",
                            path.display()
                        )));
                    };
                    if !content.ends_with('\n') {
                        batch.push('\n');
                    }
                } else {
                    batch.push_str(&format!("{{\"dwcp_checkpoint\":1,\"total\":{total}}}\n"));
                }
            }
            Err(_) => {
                batch.push_str(&format!("{{\"dwcp_checkpoint\":1,\"total\":{total}}}\n"));
            }
        }
        for key in keys {
            match serde_json::to_string(key) {
                Ok(line) => {
                    batch.push_str(&line);
                    batch.push('\n');
                }
                Err(e) => return Err(PlannerError::Persistence(e.to_string())),
            }
        }
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| PlannerError::Persistence(e.to_string()))?;
        file.write_all(batch.as_bytes())
            .map_err(|e| PlannerError::Persistence(e.to_string()))
    }

    /// Cancel a checkpointed scan by deleting its file. Returns whether a
    /// checkpoint existed.
    pub fn cancel(path: &Path) -> bool {
        std::fs::remove_file(path).is_ok()
    }
}

/// The durable side of the wave-commit protocol: `record` stores one
/// fresh champion into the sharded repository, `publish` flushes the
/// shards and appends the wave's completed keys to the checkpoint — so
/// by the time a key is published, its champion is on disk. Interior
/// mutability (and a captured first error) because the protocol functions
/// are infallible `&self` so the model checker can drive the exact same
/// code on instrumented atomics.
struct RepoLedger<'a> {
    repository: std::cell::RefCell<&'a mut ShardedRepository>,
    /// Slot-indexed fresh champions; `record` takes each exactly once.
    fresh: std::cell::RefCell<Vec<Option<ModelRecord>>>,
    checkpoint: Option<&'a Path>,
    total: usize,
    ok_keys: &'a [String],
    error: std::cell::RefCell<Option<PlannerError>>,
}

impl RepoLedger<'_> {
    fn fail(&self, e: PlannerError) {
        let mut slot = self.error.borrow_mut();
        if slot.is_none() {
            *slot = Some(e);
        }
    }
}

impl protocol::WaveLedger for RepoLedger<'_> {
    fn record(&self, slot: usize) {
        if self.error.borrow().is_some() {
            return;
        }
        let record = self.fresh.borrow_mut().get_mut(slot).and_then(Option::take);
        if let Some(record) = record {
            if let Err(e) = self.repository.borrow_mut().store(record) {
                self.fail(e);
            }
        }
    }

    fn publish(&self, _count: usize) {
        if self.error.borrow().is_some() {
            return;
        }
        let mut repository = self.repository.borrow_mut();
        if let Err(e) = repository.flush() {
            self.fail(e);
            return;
        }
        repository.evict_clean();
        if let Some(path) = self.checkpoint {
            if let Err(e) = Checkpoint::append(path, self.total, self.ok_keys) {
                self.fail(e);
            }
        }
    }
}

/// Streams a batch of jobs through the shared worker pool in
/// bounded-memory waves against a [`ShardedRepository`] — the one fleet
/// scheduler, whether the repository is on disk or in memory.
///
/// Each wave: materialise `wave_size` jobs from the [`JobSource`],
/// prefetch their stored champions (only the shards those keys hash to),
/// run the wave through [`run_batch_on`], then flush fresh champions,
/// evict clean shards, and append completed keys to the checkpoint. A
/// wave as large as the batch runs it all at once; champions are
/// bit-identical at any wave size and thread count. Waves are ordered
/// stalest-first (missing champions, then oldest `fitted_at`), with ties
/// broken by shard so a wave's repository traffic clusters on few shards.
pub struct EstateScheduler {
    /// Batch scheduling knobs (threads, neighbourhood, staleness clock).
    pub fleet: FleetOptions,
    /// Wave size, checkpointing, early stop.
    pub waves: WaveOptions,
    /// The sharded champion store scanned and updated by each wave.
    pub repository: ShardedRepository,
}

impl EstateScheduler {
    /// A scheduler over a sharded repository, on disk or in memory.
    pub fn new(
        fleet: FleetOptions,
        waves: WaveOptions,
        repository: ShardedRepository,
    ) -> EstateScheduler {
        EstateScheduler {
            fleet,
            waves,
            repository,
        }
    }

    /// Run the scan without observing per-wave progress.
    pub fn run(&mut self, source: &dyn JobSource) -> Result<WaveReport> {
        self.run_with_progress(source, &mut |_, _| {})
    }

    /// Run the scan, invoking `on_wave` after each wave retires with a
    /// progress snapshot and the wave's per-job results (dropped when the
    /// callback returns — holding them all would unbound memory again).
    pub fn run_with_progress(
        &mut self,
        source: &dyn JobSource,
        on_wave: &mut dyn FnMut(&WaveProgress, &[JobResult]),
    ) -> Result<WaveReport> {
        let started = Instant::now();
        let wave_size = self.waves.effective_wave_size();

        // De-duplicate keys, first occurrence wins.
        let mut seen = BTreeSet::new();
        let keys: Vec<String> = source
            .keys()
            .into_iter()
            .filter(|k| seen.insert(k.clone()))
            .collect();
        let total_jobs = keys.len();

        // Checkpoint skips.
        let done: BTreeSet<String> = match &self.waves.checkpoint {
            Some(path) => Checkpoint::load(path),
            None => BTreeSet::new(),
        };
        let remaining: Vec<String> = keys.into_iter().filter(|k| !done.contains(k)).collect();
        let skipped = total_jobs - remaining.len();

        // Staleness scan: one pass over the involved shards, O(keys) memory.
        let fitted = self.repository.fitted_at_many(&remaining)?;

        // Stalest first — missing champions (None sorts before Some), then
        // oldest fitted_at; ties cluster by shard then key so each wave's
        // prefetch and flush touch as few shard files as possible.
        let n_shards = self.repository.n_shards();
        let mut ordered: Vec<(Option<u64>, usize, String)> = remaining
            .into_iter()
            .zip(fitted)
            .map(|(key, fitted_at)| (fitted_at, shard_of(&key, n_shards), key))
            .collect();
        ordered.sort_unstable();

        let jobs_total = ordered.len();
        let total_waves = jobs_total.div_ceil(wave_size.max(1));
        let mut report = WaveReport {
            total_jobs,
            skipped,
            waves: 0,
            completed: 0,
            failed: 0,
            stats: EvalStats::default(),
            peak_wave_bytes: 0,
            stopped_early: false,
        };

        for (wave_idx, wave) in ordered.chunks(wave_size).enumerate() {
            if self.waves.max_waves > 0 && wave_idx >= self.waves.max_waves {
                report.stopped_early = true;
                break;
            }
            let wave_started = Instant::now();

            // Materialise the wave's jobs; a load failure fails that job
            // only (and leaves it un-checkpointed for the next run).
            let mut jobs: Vec<SeriesJob> = Vec::with_capacity(wave.len());
            let mut prefetch: Vec<String> = Vec::new();
            for (fitted_at, _, key) in wave {
                match source.load(key) {
                    Ok(job) => {
                        if fitted_at.is_some() {
                            // Only keys with a stored record can hit the
                            // prefetch; cold keys must not load shards.
                            prefetch.push(key.clone());
                        }
                        jobs.push(job);
                    }
                    Err(_) => report.failed += 1,
                }
            }
            let wave_bytes: usize = jobs
                .iter()
                .map(|j| {
                    (j.series.values().len() + j.exog.iter().map(Vec::len).sum::<usize>())
                        * std::mem::size_of::<f64>()
                })
                .sum();
            report.peak_wave_bytes = report.peak_wave_bytes.max(wave_bytes);

            let mut store = WaveStore {
                policy: self.repository.policy,
                records: self.repository.fetch_many(&prefetch)?,
                fresh: Vec::new(),
            };
            let batch = run_batch_on(&self.fleet, &mut store, &jobs);
            drop(jobs);

            let ok_keys: Vec<String> = batch
                .jobs
                .iter()
                .filter(|j| j.outcome.is_ok())
                .map(|j| j.key.clone())
                .collect();
            report.completed += ok_keys.len();
            report.failed += batch.jobs.len() - ok_keys.len();

            // Persist the wave's champions, then checkpoint — the
            // record-then-publish commit protocol, so a checkpointed key's
            // champion is always on disk.
            let fresh: Vec<Option<ModelRecord>> = store.fresh.drain(..).map(Some).collect();
            let slots = fresh.len();
            let ledger = RepoLedger {
                repository: std::cell::RefCell::new(&mut self.repository),
                fresh: std::cell::RefCell::new(fresh),
                checkpoint: self.waves.checkpoint.as_deref(),
                total: total_jobs,
                ok_keys: &ok_keys,
                error: std::cell::RefCell::new(None),
            };
            protocol::commit_wave(&ledger, slots);
            if let Some(e) = ledger.error.into_inner() {
                return Err(e);
            }

            report.stats.merge(&batch.stats);
            report.waves += 1;
            let progress = WaveProgress {
                wave: wave_idx + 1,
                total_waves,
                jobs_done: report.completed + report.failed,
                jobs_total,
                wave_wall: wave_started.elapsed(),
                wave_bytes,
            };
            on_wave(&progress, &batch.jobs);
        }
        if report.waves < total_waves && !report.stopped_early {
            // Unreachable today (the loop only exits early via max_waves),
            // but keep the invariant: waves < total ⇒ stopped_early.
            report.stopped_early = true;
        }
        report.stats.wall_time = started.elapsed();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::EvaluationOptions;
    use crate::pipeline::Pipeline;
    use dwcp_series::{Frequency, Granularity};

    fn hourly_series(n: usize, phase: u64) -> TimeSeries {
        let values: Vec<f64> = (0..n)
            .map(|t| {
                let tf = t as f64;
                90.0 + 0.03 * tf
                    + 22.0 * (2.0 * std::f64::consts::PI * (tf + phase as f64) / 24.0).sin()
                    + ((t as u64 * 2654435761 % (83 + phase)) as f64) / 18.0
            })
            .collect();
        TimeSeries::new(values, Frequency::Hourly, 0)
    }

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            method: MethodChoice::Sarimax,
            grid: Default::default(),
            granularity: Granularity::Hourly,
            max_candidates: 3,
            fourier_stage: false,
            auto_detect_shocks: false,
            eval: EvaluationOptions {
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

    fn batch(n_jobs: usize) -> Vec<SeriesJob> {
        (0..n_jobs)
            .map(|i| {
                SeriesJob::new(
                    format!("cdbm01{i}/CPU/hourly"),
                    hourly_series(1100, i as u64 * 7),
                    fast_config(),
                )
            })
            .collect()
    }

    #[test]
    fn batch_results_match_sequential_pipeline_runs() {
        let jobs = batch(3);
        let mut store = ShardedRepository::in_memory();
        let options = FleetOptions {
            threads: 4,
            ..Default::default()
        };
        let report = run_batch_on(&options, &mut store, &jobs);
        assert_eq!(report.jobs.len(), 3);
        for (job, result) in jobs.iter().zip(&report.jobs) {
            let fleet_outcome = result.outcome.as_ref().unwrap();
            let solo = Pipeline::new(job.config.clone())
                .run(&job.series, &job.exog)
                .unwrap();
            assert_eq!(fleet_outcome.champion, solo.champion);
            assert_eq!(
                fleet_outcome.accuracy.rmse.to_bits(),
                solo.accuracy.rmse.to_bits(),
                "job {}",
                job.key
            );
        }
        // An empty repository means every job was a reuse miss.
        assert_eq!(report.stats.reuse_hits, 0);
        assert_eq!(report.stats.reuse_misses, 3);
        assert_eq!(store.count_records().unwrap(), 3);
    }

    /// Two SARIMAX grids and one HES menu: a mixed-family batch.
    fn mixed_batch() -> Vec<SeriesJob> {
        let mut jobs = batch(2);
        let mut hes = fast_config();
        hes.method = MethodChoice::Hes;
        jobs.push(SeriesJob::new(
            "cdbm013/Memory/hourly",
            hourly_series(1100, 5),
            hes,
        ));
        jobs
    }

    /// Run `jobs` as one cold batch on `threads` workers over a fresh
    /// in-memory store.
    fn cold_batch(jobs: &[SeriesJob], threads: usize) -> FleetReport {
        let options = FleetOptions {
            threads,
            ..Default::default()
        };
        run_batch_on(&options, &mut ShardedRepository::in_memory(), jobs)
    }

    #[test]
    fn batch_is_deterministic_across_thread_counts() {
        // A mixed-family batch racing through the same shared pool must
        // stay bit-identical at any thread count.
        let jobs = mixed_batch();
        let baseline = cold_batch(&jobs, 1);
        for threads in [2, 4, 8] {
            let report = cold_batch(&jobs, threads);
            for (a, b) in baseline.jobs.iter().zip(&report.jobs) {
                let (a, b) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
                assert_eq!(a.champion, b.champion, "threads = {threads}");
                assert_eq!(
                    a.accuracy.rmse.to_bits(),
                    b.accuracy.rmse.to_bits(),
                    "threads = {threads}"
                );
            }
        }
    }

    /// Every job of `relearn` kept its cold champion: one frozen
    /// evaluation reproducing the cold RMSE bit for bit, no profile, no
    /// grid, no search.
    fn assert_kept(cold: &FleetReport, relearn: &FleetReport) {
        let n = cold.jobs.len();
        assert_eq!(relearn.stats.reuse_hits, n);
        assert_eq!(relearn.stats.reuse_misses, 0);
        assert_eq!(relearn.stats.reuse_fallbacks, 0);
        assert_eq!(relearn.stats.reuse_rate(), Some(1.0));
        assert_eq!(relearn.stats.objective_evals, n, "one evaluation per job");
        for (c, r) in cold.jobs.iter().zip(&relearn.jobs) {
            assert!(r.reused && !r.fell_back, "{}", r.key);
            assert_eq!(r.relearn, None, "{}", r.key);
            let (c, r) = (c.outcome.as_ref().unwrap(), r.outcome.as_ref().unwrap());
            assert_eq!(r.champion, c.champion);
            assert_eq!(r.accuracy.rmse.to_bits(), c.accuracy.rmse.to_bits());
            assert_eq!(r.evaluated, 1);
            assert_eq!(r.stats.objective_evals, 1);
            assert!(r.profile.is_none(), "a kept champion plans no grid");
        }
    }

    #[test]
    fn second_batch_reuses_stored_champions() {
        let jobs = batch(2);
        let options = FleetOptions {
            threads: 4,
            ..Default::default()
        };
        let mut store = ShardedRepository::in_memory();
        let cold = run_batch_on(&options, &mut store, &jobs);
        let relearn = run_batch_on(&options, &mut store, &jobs);
        assert_kept(&cold, &relearn);
    }

    #[test]
    fn kept_champion_is_not_stored_again_and_turns_stale_after_a_week() {
        let jobs = batch(1);
        let key = jobs[0].key.clone();
        let dir = estate_dir("kept");
        let mut repo = ShardedRepository::create(&dir, 4).unwrap();
        let mut options = FleetOptions {
            threads: 2,
            now: 1_000,
            ..Default::default()
        };
        let cold = run_batch_on(&options, &mut repo, &jobs);
        repo.flush().unwrap();
        let stored = repo.get(&key).unwrap().unwrap().clone();
        let appended = repo.io_stats().entries_appended;
        assert_eq!(appended, 1);

        // A day later: kept, and nothing is stored.
        options.now += 86_400;
        let kept = run_batch_on(&options, &mut repo, &jobs);
        repo.flush().unwrap();
        assert_kept(&cold, &kept);
        assert_eq!(repo.io_stats().entries_appended, appended);
        let after = repo.get(&key).unwrap().unwrap();
        assert_eq!(after.fitted_at, stored.fitted_at);
        assert_eq!(
            after.baseline_rmse.to_bits(),
            stored.baseline_rmse.to_bits()
        );

        // A week after the fit: stale, so the full grid runs, unseeded —
        // exactly a cold pipeline run — and its champion is stored.
        options.now = stored.fitted_at + crate::repository::ONE_WEEK_SECONDS + 1;
        let stale = run_batch_on(&options, &mut repo, &jobs);
        repo.flush().unwrap();
        let result = &stale.jobs[0];
        assert_eq!(result.relearn, Some(RelearnReason::Stale));
        assert!(!result.reused && !result.fell_back);
        let solo = Pipeline::new(jobs[0].config.clone())
            .run(&jobs[0].series, &jobs[0].exog)
            .unwrap();
        let outcome = result.outcome.as_ref().unwrap();
        assert_eq!(outcome.champion, solo.champion);
        assert_eq!(
            outcome.accuracy.rmse.to_bits(),
            solo.accuracy.rmse.to_bits()
        );
        assert_eq!(outcome.stats.objective_evals, solo.stats.objective_evals);
        assert_eq!(repo.io_stats().entries_appended, appended + 1);
        assert_eq!(repo.get(&key).unwrap().unwrap().fitted_at, options.now);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_champion_falls_back_to_full_grid() {
        let jobs = batch(1);
        let options = FleetOptions {
            threads: 4,
            ..Default::default()
        };
        let mut store = ShardedRepository::in_memory();
        run_batch_on(&options, &mut store, &jobs);
        // Sabotage the stored baseline so the frozen re-score and every
        // neighbourhood champion look degraded.
        let mut record = store.get(&jobs[0].key).unwrap().unwrap().clone();
        record.baseline_rmse = 1e-12;
        store.store(record).unwrap();
        let report = run_batch_on(&options, &mut store, &jobs);
        assert_eq!(report.stats.reuse_hits, 1);
        assert_eq!(report.stats.reuse_fallbacks, 1);
        let result = &report.jobs[0];
        assert!(result.reused && result.fell_back);
        assert_eq!(result.relearn, Some(RelearnReason::Degraded));
        // Frozen → neighbourhood → full grid: the discarded stages' work
        // is counted on top of the full grid's.
        let outcome = result.outcome.as_ref().unwrap();
        assert!(report.stats.objective_evals > outcome.stats.objective_evals + 1);
        // The fallback is the cold full-grid result, and it is stored.
        let solo = Pipeline::new(jobs[0].config.clone())
            .run(&jobs[0].series, &jobs[0].exog)
            .unwrap();
        assert_eq!(outcome.champion, solo.champion);
        assert_eq!(
            outcome.accuracy.rmse.to_bits(),
            solo.accuracy.rmse.to_bits()
        );
        let stored = store.get(&jobs[0].key).unwrap().unwrap();
        assert_eq!(stored.baseline_rmse.to_bits(), solo.accuracy.rmse.to_bits());
    }

    #[test]
    fn degraded_champion_keeps_an_accepted_neighbourhood_champion() {
        // Fit on one day, re-score on the next: the stored champion's
        // frozen RMSE and the best of its seeded neighbourhood differ, and
        // a baseline between them sends the job through exactly two
        // stages — frozen (degraded), then the neighbourhood (accepted).
        let mut hes = fast_config();
        hes.method = MethodChoice::Hes;
        let job = |n| SeriesJob::new("cdbm011/Memory/hourly", hourly_series(n, 3), hes.clone());
        let options = FleetOptions {
            threads: 2,
            ..Default::default()
        };
        let mut store = ShardedRepository::in_memory();
        run_batch_on(&options, &mut store, &[job(1100)]);
        let next = [job(1124)];
        let record = store.get(&next[0].key).unwrap().unwrap().clone();
        let config = record.champion_config.clone().unwrap();

        // What the two seeded stages score on the new day.
        let data = AggregateStage::split(&next[0].config, &next[0].series, &[]).unwrap();
        let seed = Some((
            config.clone(),
            record.warm_params.clone(),
            record.warm_beta.clone(),
        ));
        let best = |candidates: &[CandidateModel]| {
            let task = data.task(candidates, seed.clone());
            let report = evaluate_fleet(&[task], 1).pop().unwrap().unwrap();
            report.champion().unwrap().accuracy.rmse
        };
        let frozen = best(&[CandidateModel::new(config.clone())]);
        let period = next[0].config.granularity.seasonal_period();
        let neighbourhood = best(&ModelGrid::neighbourhood_of(&config, 1, period).candidates);
        assert!(neighbourhood < frozen, "{neighbourhood} vs {frozen}");

        let mut degraded = record.clone();
        degraded.baseline_rmse = (frozen + neighbourhood) / 4.0;
        store.store(degraded).unwrap();
        let report = run_batch_on(&options, &mut store, &next);
        let result = &report.jobs[0];
        assert_eq!(result.relearn, Some(RelearnReason::Degraded));
        assert!(result.reused && !result.fell_back);
        assert_eq!(report.stats.reuse_fallbacks, 0);
        let outcome = result.outcome.as_ref().unwrap();
        assert_eq!(outcome.accuracy.rmse.to_bits(), neighbourhood.to_bits());
        assert!(outcome.profile.is_some(), "a search plans its grid");
        let stored = store.get(&next[0].key).unwrap().unwrap();
        assert_eq!(stored.baseline_rmse.to_bits(), neighbourhood.to_bits());
    }

    #[test]
    fn stale_champion_is_not_reused() {
        let jobs = batch(1);
        let mut options = FleetOptions {
            threads: 4,
            now: 0,
            ..Default::default()
        };
        let mut store = ShardedRepository::in_memory();
        run_batch_on(&options, &mut store, &jobs);
        options.now = crate::repository::ONE_WEEK_SECONDS + 1;
        let report = run_batch_on(&options, &mut store, &jobs);
        assert_eq!(report.stats.reuse_hits, 0);
        assert_eq!(report.stats.reuse_misses, 1);
        assert!(!report.jobs[0].reused);
        assert_eq!(report.jobs[0].relearn, Some(RelearnReason::Stale));
    }

    #[test]
    fn mixed_method_batch_runs_all_jobs() {
        let mut jobs = batch(1);
        let mut hes = fast_config();
        hes.method = MethodChoice::Hes;
        jobs.push(SeriesJob::new(
            "cdbm011/Memory/hourly",
            hourly_series(1100, 3),
            hes,
        ));
        let mut store = ShardedRepository::in_memory();
        let report = run_batch_on(&FleetOptions::default(), &mut store, &jobs);
        assert_eq!(report.jobs.len(), 2);
        assert!(report.jobs.iter().all(|j| j.outcome.is_ok()));
        // Both land in the repository; the HES record now carries a full
        // champion seed (frozen converged smoothing parameters).
        assert_eq!(store.count_records().unwrap(), 2);
        let record = store.get("cdbm011/Memory/hourly").unwrap().unwrap();
        let (config, params, _) = record
            .champion_seed()
            .expect("HES champion persists a seed");
        assert!(config.as_ets().is_some(), "stored config: {config:?}");
        assert!(!params.is_empty());
    }

    #[test]
    fn smoothing_champions_reuse_like_sarimax_ones() {
        // An HES job's second batch keeps the stored champion exactly as
        // a SARIMAX job's does: one frozen evaluation, cold RMSE bits.
        let mut hes = fast_config();
        hes.method = MethodChoice::Hes;
        let jobs = vec![SeriesJob::new(
            "cdbm011/Memory/hourly",
            hourly_series(1100, 3),
            hes,
        )];
        let options = FleetOptions::default();
        let mut store = ShardedRepository::in_memory();
        let cold = run_batch_on(&options, &mut store, &jobs);
        let relearn = run_batch_on(&options, &mut store, &jobs);
        assert_kept(&cold, &relearn);
    }

    #[test]
    fn too_short_series_fails_its_job_only() {
        let mut jobs = batch(1);
        jobs.push(SeriesJob::new(
            "cdbm012/CPU/hourly",
            hourly_series(100, 0),
            fast_config(),
        ));
        let mut store = ShardedRepository::in_memory();
        let report = run_batch_on(&FleetOptions::default(), &mut store, &jobs);
        assert!(report.jobs[0].outcome.is_ok());
        assert!(report.jobs[1].outcome.is_err());
        assert_eq!(store.count_records().unwrap(), 1);
    }

    /// Fresh scratch directory for a wave-scheduler test.
    fn estate_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dwcp_waves_{}_{}", name, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn estate_scheduler(dir: &Path, threads: usize, waves: WaveOptions) -> EstateScheduler {
        let repository = ShardedRepository::open_or_create(dir, 4).unwrap();
        EstateScheduler::new(
            FleetOptions {
                threads,
                ..Default::default()
            },
            waves,
            repository,
        )
    }

    /// Each job's champion and RMSE bits, as the wave callback saw them.
    type Champions = BTreeMap<String, (String, u64)>;

    /// Scan `jobs` in `estate`'s waves, collecting each job's champion and
    /// checking the wave count and the per-wave memory bound.
    fn scan(estate: &mut EstateScheduler, jobs: &[SeriesJob]) -> Champions {
        let mut by_key = Champions::new();
        let report = estate
            .run_with_progress(&SliceJobSource::new(jobs), &mut |_, results| {
                for r in results {
                    let outcome = r.outcome.as_ref().unwrap();
                    by_key.insert(
                        r.key.clone(),
                        (outcome.champion.clone(), outcome.accuracy.rmse.to_bits()),
                    );
                }
            })
            .unwrap();
        let wave_size = estate.waves.wave_size;
        assert_eq!(report.waves, jobs.len().div_ceil(wave_size));
        assert_eq!(report.completed, jobs.len());
        assert!(report.peak_wave_bytes <= wave_size * (1100 + 1) * 8);
        by_key
    }

    #[test]
    fn wave_size_changes_no_champion_at_any_thread_count() {
        // The mixed-family batch as one wave over an in-memory store, then
        // as one wave and as waves of 1 and of 2 over a sharded directory:
        // champions, RMSE bits and stored records must all be equal,
        // whatever the thread count.
        let jobs = mixed_batch();
        let keys: Vec<String> = jobs.iter().map(|j| j.key.clone()).collect();
        let one_wave = WaveOptions {
            wave_size: jobs.len(),
            ..Default::default()
        };
        let mut in_memory = EstateScheduler::new(
            FleetOptions {
                threads: 1,
                ..Default::default()
            },
            one_wave,
            ShardedRepository::in_memory(),
        );
        let baseline = scan(&mut in_memory, &jobs);
        let stored = in_memory.repository.fetch_many(&keys).unwrap();
        assert_eq!(stored.len(), jobs.len());

        for threads in [1, 2, 4, 8] {
            for wave_size in [jobs.len(), 1, 2] {
                let dir = estate_dir(&format!("invariance{threads}_{wave_size}"));
                let waves = WaveOptions {
                    wave_size,
                    ..Default::default()
                };
                let mut estate = estate_scheduler(&dir, threads, waves);
                let context = format!("threads = {threads}, wave size = {wave_size}");
                assert_eq!(scan(&mut estate, &jobs), baseline, "{context}");
                let mut back = ShardedRepository::open(&dir).unwrap();
                assert_eq!(back.fetch_many(&keys).unwrap(), stored, "{context}");
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    #[test]
    fn a_relearn_night_appends_exactly_its_searched_champions() {
        // A cold night, then a night on which two of four stored
        // champions have degraded: those two search and are stored, one
        // append each, and the other two are kept as they were.
        let jobs = batch(4);
        let keys: Vec<String> = jobs.iter().map(|j| j.key.clone()).collect();
        let dir = estate_dir("night_appends");
        let waves = WaveOptions {
            wave_size: 2,
            ..Default::default()
        };
        scan(&mut estate_scheduler(&dir, 2, waves.clone()), &jobs);
        let mut repo = ShardedRepository::open(&dir).unwrap();
        for job in &jobs[..2] {
            let mut record = repo.get(&job.key).unwrap().unwrap().clone();
            record.baseline_rmse = 1e-12;
            repo.store(record).unwrap();
        }
        repo.flush().unwrap();
        let before = repo.fetch_many(&keys).unwrap();

        let mut night = estate_scheduler(&dir, 2, waves);
        let now = night.fleet.now;
        let mut expected = BTreeMap::new();
        let mut stored = 0;
        night
            .run_with_progress(&SliceJobSource::new(&jobs), &mut |_, results| {
                for r in results {
                    let outcome = r.outcome.as_ref().unwrap();
                    let record = match r.relearn {
                        Some(_) => {
                            stored += 1;
                            ModelRecord::from_outcome(&r.key, outcome, Granularity::Hourly, now)
                        }
                        None => before[&r.key].clone(),
                    };
                    expected.insert(r.key.clone(), record);
                }
            })
            .unwrap();
        assert_eq!(stored, 2, "the two degraded champions are stored");
        assert_eq!(night.repository.io_stats().entries_appended, stored);

        // Reopened, the repository holds exactly those records.
        let back = ShardedRepository::open(&dir)
            .unwrap()
            .fetch_many(&keys)
            .unwrap();
        assert_eq!(back, expected);
        let bits = |records: &BTreeMap<String, ModelRecord>| -> Vec<u64> {
            records
                .values()
                .flat_map(|r| std::iter::once(r.baseline_rmse).chain(r.warm_params.clone()))
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(bits(&back), bits(&expected));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_scan_resumes_from_checkpoint_without_refitting() {
        let jobs = batch(4);
        let dir = estate_dir("resume");
        let checkpoint = dir.join("relearn.ckpt");

        // First run is "killed" after one wave of two jobs.
        let mut first = estate_scheduler(
            &dir,
            1,
            WaveOptions {
                wave_size: 2,
                checkpoint: Some(checkpoint.clone()),
                max_waves: 1,
            },
        );
        let killed = first.run(&SliceJobSource::new(&jobs)).unwrap();
        assert!(killed.stopped_early);
        assert_eq!(killed.waves, 1);
        assert_eq!(killed.completed, 2);
        assert_eq!(Checkpoint::load(&checkpoint).len(), 2);

        // Resume: the two checkpointed jobs are skipped, the other two fit.
        let mut resumed = estate_scheduler(
            &dir,
            1,
            WaveOptions {
                wave_size: 2,
                checkpoint: Some(checkpoint.clone()),
                max_waves: 0,
            },
        );
        let finished = resumed.run(&SliceJobSource::new(&jobs)).unwrap();
        assert!(!finished.stopped_early);
        assert_eq!(finished.skipped, 2, "checkpointed jobs are not refit");
        assert_eq!(finished.completed, 2);
        assert_eq!(resumed.repository.count_records().unwrap(), 4);

        // Cancel deletes the checkpoint; a fresh scan skips nothing.
        assert!(Checkpoint::cancel(&checkpoint));
        assert!(!Checkpoint::cancel(&checkpoint), "already gone");
        assert!(Checkpoint::load(&checkpoint).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_jobs_are_not_checkpointed_and_retry_on_resume() {
        let mut jobs = batch(2);
        jobs.push(SeriesJob::new(
            "cdbm019/CPU/hourly",
            hourly_series(100, 0), // far too short: plan fails
            fast_config(),
        ));
        let dir = estate_dir("retry");
        let checkpoint = dir.join("relearn.ckpt");
        let opts = WaveOptions {
            wave_size: 8,
            checkpoint: Some(checkpoint.clone()),
            max_waves: 0,
        };
        let first = estate_scheduler(&dir, 1, opts.clone())
            .run(&SliceJobSource::new(&jobs))
            .unwrap();
        assert_eq!(first.completed, 2);
        assert_eq!(first.failed, 1);
        assert_eq!(Checkpoint::load(&checkpoint).len(), 2);

        let second = estate_scheduler(&dir, 1, opts)
            .run(&SliceJobSource::new(&jobs))
            .unwrap();
        assert_eq!(second.skipped, 2);
        assert_eq!(second.failed, 1, "the broken job is retried, not buried");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_survives_a_torn_tail() {
        let dir = estate_dir("ckpt_torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.ckpt");
        let keys: Vec<String> = (0..3).map(|i| format!("w{i}/CPU")).collect();
        Checkpoint::append(&path, 10, &keys).unwrap();

        // Chop the file mid-line (a crash during append).
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let done = Checkpoint::load(&path);
        assert_eq!(done.len(), 2, "torn key dropped, prefix kept");

        // Appending after the tear must not merge into the torn line.
        Checkpoint::append(&path, 10, &["w9/CPU".to_string()]).unwrap();
        let done = Checkpoint::load(&path);
        assert!(done.contains("w9/CPU"));
        assert_eq!(done.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_keys_run_once() {
        let mut jobs = batch(1);
        let dup = jobs[0].clone();
        jobs.push(dup);
        let dir = estate_dir("dup");
        let mut estate = estate_scheduler(&dir, 1, WaveOptions::default());
        let report = estate.run(&SliceJobSource::new(&jobs)).unwrap();
        assert_eq!(report.total_jobs, 1);
        assert_eq!(report.completed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
