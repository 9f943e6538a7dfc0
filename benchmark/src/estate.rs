//! `estate-scan` and `estate-relearn`: the nightly estate path.
//!
//! A round is one scan in its own child process. In `estate-scan` the
//! child creates a fresh 64-shard repository (set-up) and runs a cold scan
//! into it. `estate-relearn` sets up three such cold scans ("last
//! night"); each round copies one of their repositories and, as the next
//! night's process, relearns the same keys a day later with one more
//! daily observation, over the stored champions.
//!
//! Untraced, the child drives `EstateScheduler::run_with_progress`, the
//! code `dwcp fleet --repo-dir` runs. Traced, it re-drives the scheduler's
//! wave loop from the public parts it is built from, with a span around
//! each call, and must reproduce the untraced run's champion digest and
//! shard I/O counters exactly.

use crate::child::{self, Child, Error};
use crate::report::{metric, Measured, Metric};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::{Ctx, Digest};
use dwcp::planner::{
    run_batch_on, shard_of, ChampionStore, Checkpoint, EstateScheduler, EvalStats,
    EvaluationOptions, FleetOptions, JobResult, JobSource, MethodChoice, ModelRecord,
    PipelineConfig, RetentionPolicy, SeriesJob, ShardedRepository, WaveOptions,
};
use dwcp::series::Granularity;
use dwcp::workload::EstateSpec;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Daily observations per series at the cold scan; the relearn night has
/// one more. The daily protocol uses the trailing 90.
const OBSERVATIONS: usize = 97;
/// Staleness clock of the cold scan; the relearn runs a day later, well
/// inside the one-week retention window.
const NOW: u64 = 1_600_000_000;
const DAY: u64 = 86_400;
const SHARDS: usize = 64;
const THREADS: usize = 2;

/// The per-job configuration of the estate path: the HES branch of
/// Figure 4 on the daily protocol (`bench_estate`'s configuration).
fn job_config() -> PipelineConfig {
    PipelineConfig {
        method: MethodChoice::Hes,
        grid: Default::default(),
        granularity: Granularity::Daily,
        max_candidates: 8,
        fourier_stage: false,
        auto_detect_shocks: false,
        eval: EvaluationOptions {
            threads: THREADS,
            ..Default::default()
        },
    }
}

/// The generated estate as a job source: series are materialised only
/// when their wave asks for them.
struct EstateSource {
    spec: EstateSpec,
    config: PipelineConfig,
}

impl JobSource for EstateSource {
    fn keys(&self) -> Vec<String> {
        self.spec.keys()
    }

    fn load(&self, key: &str) -> dwcp::planner::Result<SeriesJob> {
        Ok(SeriesJob::new(
            key,
            self.spec.series(key),
            self.config.clone(),
        ))
    }
}

/// One round, as sent to the child.
#[derive(Debug, Serialize, Deserialize)]
pub struct Task {
    pub role: String,
    pub jobs: usize,
    pub wave: usize,
    /// Decimal, since JSON numbers here are f64.
    pub seed: String,
    pub dir: String,
    pub relearn: bool,
    pub traced: bool,
    pub trace_id: u64,
}

/// One round's measurements, as reported by the child.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct RoundResult {
    pub total: usize,
    pub completed: usize,
    pub failed: usize,
    pub digest: String,
    /// Wall time of the measured scan.
    pub wall_s: f64,
    /// Time between successive wave completions (the first includes the
    /// staleness scan).
    pub wave_s: Vec<f64>,
    pub shard_loads: usize,
    pub entries_appended: usize,
    pub compactions: usize,
    pub evictions: usize,
    pub lenient_skips: usize,
    pub objective_evals: usize,
    pub batch_ets_s: f64,
    pub lockstep_advance_s: f64,
    pub lockstep_stage_s: f64,
    pub lockstep_tell_s: f64,
    pub reuse_hits: usize,
    pub reuse_misses: usize,
    pub reuse_fallbacks: usize,
    pub peak_wave_bytes: usize,
    pub peak_rss_bytes: u64,
    pub spans: Vec<Span>,
}

impl RoundResult {
    fn absorb_stats(&mut self, stats: &EvalStats) {
        self.objective_evals = stats.objective_evals;
        self.batch_ets_s = stats.lockstep.batch_ets.as_secs_f64();
        self.lockstep_advance_s = stats.lockstep.advance.as_secs_f64();
        self.lockstep_stage_s = stats.lockstep.stage.as_secs_f64();
        self.lockstep_tell_s = stats.lockstep.tell.as_secs_f64();
        self.reuse_hits = stats.reuse_hits;
        self.reuse_misses = stats.reuse_misses;
        self.reuse_fallbacks = stats.reuse_fallbacks;
    }

    fn absorb_io(&mut self, repository: &ShardedRepository) {
        let io = repository.io_stats();
        self.shard_loads = io.shard_loads;
        self.entries_appended = io.entries_appended;
        self.compactions = io.compactions;
        self.evictions = io.evictions;
        self.lenient_skips = io.lenient_skips;
    }

    fn io(&self) -> [usize; 5] {
        [
            self.shard_loads,
            self.entries_appended,
            self.compactions,
            self.evictions,
            self.lenient_skips,
        ]
    }
}

/// Child side of one scan: a cold scan into a new repository at
/// `dir/repo`, or with `relearn` the next night's scan over the one
/// already there.
pub fn child(task: Task) -> Result<(), Error> {
    let dir = PathBuf::from(&task.dir);
    let repo_dir = dir.join("repo");
    let (now, observations) = match task.relearn {
        true => (NOW + DAY, OBSERVATIONS + 1),
        false => (NOW, OBSERVATIONS),
    };
    let repository = match task.relearn {
        true => ShardedRepository::open(&repo_dir)?,
        false => ShardedRepository::create(&repo_dir, SHARDS)?,
    };
    let source = EstateSource {
        spec: EstateSpec::new(task.jobs, observations, task.seed.parse()?),
        config: job_config(),
    };
    let fleet = FleetOptions {
        threads: THREADS,
        now,
        ..Default::default()
    };
    let waves = WaveOptions {
        wave_size: task.wave,
        checkpoint: Some(dir.join("scan.ckpt")),
        max_waves: 0,
    };
    child::ready();
    let mut result = if task.traced {
        traced_scan(&source, &fleet, &waves, repository, task.trace_id)?
    } else {
        scan(&source, fleet, waves, repository)?
    };
    result.peak_rss_bytes = child::peak_rss_bytes();
    child::result(&result)
}

fn digest_jobs(digest: &mut Digest, jobs: &[JobResult]) {
    for job in jobs {
        digest.add(job.key.as_bytes());
        match &job.outcome {
            Ok(outcome) => {
                digest.add(outcome.champion.as_bytes());
                digest.add(&outcome.accuracy.rmse.to_bits().to_le_bytes());
            }
            Err(_) => digest.add(b"failed"),
        }
    }
}

/// The user's path: the wave scheduler, timed from outside.
fn scan(
    source: &EstateSource,
    fleet: FleetOptions,
    waves: WaveOptions,
    repository: ShardedRepository,
) -> Result<RoundResult, Error> {
    let mut scheduler = EstateScheduler::new(fleet, waves, repository);
    let mut digest = Digest::default();
    let mut wave_s = Vec::new();
    let started = Instant::now();
    let mut last = started;
    let report = scheduler.run_with_progress(source, &mut |_, jobs| {
        let now = Instant::now();
        wave_s.push((now - last).as_secs_f64());
        last = now;
        digest_jobs(&mut digest, jobs);
    })?;
    let wall_s = started.elapsed().as_secs_f64();
    let mut result = RoundResult {
        total: report.total_jobs,
        completed: report.completed,
        failed: report.failed,
        digest: digest.hex(),
        wall_s,
        wave_s,
        peak_wave_bytes: report.peak_wave_bytes,
        ..Default::default()
    };
    result.absorb_stats(&report.stats);
    result.absorb_io(&scheduler.repository);
    Ok(result)
}

/// The per-wave champion store handed to `run_batch_on`: the wave's
/// prefetched champions in, fresh champions out for one batched flush.
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

/// The scheduler's wave loop re-driven call by call, each call inside a
/// span. Order of calls, and so every counter, matches
/// `EstateScheduler::run_with_progress`.
fn traced_scan(
    source: &EstateSource,
    fleet: &FleetOptions,
    waves: &WaveOptions,
    mut repository: ShardedRepository,
    id: u64,
) -> Result<RoundResult, Error> {
    let checkpoint = waves
        .checkpoint
        .clone()
        .ok_or("traced scan needs a checkpoint")?;
    let mut tracer = Tracer::new(Instant::now());
    let mut result = RoundResult::default();
    let mut digest = Digest::default();
    let mut stats = EvalStats::default();
    let started = Instant::now();
    tracer.span("estate.scan", id, |t| -> Result<(), Error> {
        let keys: Vec<String> = t.span("workload.keys", id, |_| {
            let mut seen = BTreeSet::new();
            source
                .keys()
                .into_iter()
                .filter(|k| seen.insert(k.clone()))
                .collect()
        });
        let total = keys.len();
        let done = Checkpoint::load(&checkpoint);
        let remaining: Vec<String> = keys.into_iter().filter(|k| !done.contains(k)).collect();
        let fitted = t.span("repository.fitted_at_many", id, |_| {
            repository.fitted_at_many(&remaining)
        })?;
        let n_shards = repository.n_shards();
        let mut ordered: Vec<(Option<u64>, usize, String)> = remaining
            .into_iter()
            .zip(fitted)
            .map(|(key, fitted_at)| (fitted_at, shard_of(&key, n_shards), key))
            .collect();
        ordered.sort_unstable();
        result.total = total;
        for wave in ordered.chunks(waves.wave_size.max(1)) {
            t.span("fleet.wave", id, |t| -> Result<(), Error> {
                let (jobs, prefetch) = t.span("workload.materialise", id, |_| {
                    let mut jobs = Vec::with_capacity(wave.len());
                    let mut prefetch = Vec::new();
                    for (fitted_at, _, key) in wave {
                        match source.load(key) {
                            Ok(job) => {
                                if fitted_at.is_some() {
                                    prefetch.push(key.clone());
                                }
                                jobs.push(job);
                            }
                            Err(_) => result.failed += 1,
                        }
                    }
                    (jobs, prefetch)
                });
                let wave_bytes: usize = jobs
                    .iter()
                    .map(|j| {
                        (j.series.values().len() + j.exog.iter().map(Vec::len).sum::<usize>())
                            * std::mem::size_of::<f64>()
                    })
                    .sum();
                result.peak_wave_bytes = result.peak_wave_bytes.max(wave_bytes);
                let records = t.span("repository.fetch_many", id, |_| {
                    repository.fetch_many(&prefetch)
                })?;
                let mut store = WaveStore {
                    policy: repository.policy,
                    records,
                    fresh: Vec::new(),
                };
                let batch = t.span("fleet.run_batch_on", id, |_| {
                    run_batch_on(fleet, &mut store, &jobs)
                });
                drop(jobs);
                let ok_keys: Vec<String> = batch
                    .jobs
                    .iter()
                    .filter(|j| j.outcome.is_ok())
                    .map(|j| j.key.clone())
                    .collect();
                result.completed += ok_keys.len();
                result.failed += batch.jobs.len() - ok_keys.len();
                t.span("repository.store", id, |_| {
                    store
                        .fresh
                        .drain(..)
                        .try_for_each(|record| repository.store(record))
                })?;
                t.span("repository.flush", id, |_| repository.flush())?;
                t.span("repository.evict_clean", id, |_| repository.evict_clean());
                t.span("fleet.checkpoint_append", id, |_| {
                    Checkpoint::append(&checkpoint, total, &ok_keys)
                })?;
                stats.merge(&batch.stats);
                digest_jobs(&mut digest, &batch.jobs);
                Ok(())
            })?;
        }
        Ok(())
    })?;
    result.wall_s = started.elapsed().as_secs_f64();
    result.digest = digest.hex();
    result.absorb_stats(&stats);
    result.absorb_io(&repository);
    result.spans = tracer.into_spans();
    result.wave_s = trace::durations_s(&result.spans, "fleet.wave");
    Ok(result)
}

/// `estate-relearn` sets up this many last nights per run.
const NIGHTS: usize = 3;

/// One scan in its own child. Returns the child's spawn-to-ready time,
/// its whole wall, and its result.
fn scan_child(
    ctx: &mut Ctx,
    dir: &Path,
    relearn: bool,
    traced: bool,
    trace_id: u64,
) -> Result<(f64, f64, RoundResult), Error> {
    let task = Task {
        role: "estate".to_string(),
        jobs: ctx.sizes.estate_jobs,
        wave: ctx.sizes.wave,
        seed: ctx.seed.to_string(),
        dir: dir.display().to_string(),
        relearn,
        traced,
        trace_id,
    };
    let mut child = Child::spawn(&task)?;
    child.read_until("READY")?;
    let spawned = child.spawned;
    let ready_s = spawned.elapsed().as_secs_f64();
    let mut result: RoundResult = child.finish()?;
    let wall_s = spawned.elapsed().as_secs_f64();
    let offset = ctx.ns_since_origin(spawned);
    trace::append(&mut ctx.spans, std::mem::take(&mut result.spans), offset);
    Ok((ready_s, wall_s, result))
}

/// `estate-relearn`'s set-up: last night's cold scans. Every relearn round
/// starts from a copy of one of their repositories. Returns the
/// repositories and each scan's wall.
fn last_nights(ctx: &mut Ctx) -> Result<(Vec<PathBuf>, Vec<f64>), Error> {
    let mut repos = Vec::new();
    let mut walls = Vec::new();
    for night in 0..NIGHTS {
        let dir = ctx.work.join(format!("estate-night-{night}"));
        let (_, wall_s, r) = scan_child(ctx, &dir, false, false, 0)?;
        let jobs = ctx.sizes.estate_jobs;
        ctx.outcome.check(r.completed == jobs, || {
            format!("set-up scan {night} fitted {} of {jobs} jobs", r.completed)
        });
        repos.push(dir.join("repo"));
        walls.push(wall_s);
    }
    Ok((repos, walls))
}

/// One pass of `rounds` scans, each in its own child and directory: cold
/// scans into a new repository, or, given last nights' repositories,
/// relearns over a copy of one. Returns each round's spawn-to-ready time
/// and result.
fn pass(ctx: &mut Ctx, nights: &[PathBuf], traced: bool) -> Result<Vec<(f64, RoundResult)>, Error> {
    let mut out = Vec::new();
    for round in 0..ctx.sizes.rounds {
        let dir = ctx.work.join(format!("estate-{traced}-{round}"));
        if !nights.is_empty() {
            copy_dir(&nights[round % nights.len()], &dir.join("repo"))?;
        }
        let (ready_s, _, result) = scan_child(ctx, &dir, !nights.is_empty(), traced, round as u64)?;
        // Best effort: a leftover directory goes with the run's work dir.
        let _ = std::fs::remove_dir_all(&dir);
        out.push((ready_s, result));
    }
    Ok(out)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Output checks shared by both passes.
fn check_rounds(ctx: &mut Ctx, relearn: bool, results: &[(f64, RoundResult)]) {
    let jobs = ctx.sizes.estate_jobs;
    for (round, (_, r)) in results.iter().enumerate() {
        ctx.outcome.attempt(r.total as u64, r.failed as u64);
        ctx.outcome
            .check(r.completed + r.failed == jobs && r.total == jobs, || {
                format!(
                    "round {round}: {} completed + {} failed != {jobs} jobs",
                    r.completed, r.failed
                )
            });
        if relearn {
            let eligible = (r.reuse_hits + r.reuse_misses).max(1);
            let ratio = r.reuse_hits as f64 / eligible as f64;
            ctx.outcome.check(ratio >= 0.99, || {
                format!("round {round}: relearn reuse hit ratio {ratio:.3} < 0.99")
            });
        }
        ctx.outcome.check(r.lenient_skips == 0, || {
            format!("round {round}: {} shard log lines skipped", r.lenient_skips)
        });
    }
    // Same seed, same jobs: every round must choose the same champions.
    if let Some((_, first)) = results.first() {
        for (round, (_, r)) in results.iter().enumerate().skip(1) {
            ctx.outcome.check(r.digest == first.digest, || {
                format!(
                    "round {round}: champion digest {} != round 0's {}",
                    r.digest, first.digest
                )
            });
        }
    }
}

pub fn run(ctx: &mut Ctx, relearn: bool) -> Result<Vec<Metric>, Error> {
    let (nights, night_walls) = if relearn {
        last_nights(ctx)?
    } else {
        (Vec::new(), Vec::new())
    };
    let plain = pass(ctx, &nights, false)?;
    check_rounds(ctx, relearn, &plain);
    if !ctx.traced {
        let mut m = Measured::default();
        for (ready_s, r) in &plain {
            if !relearn {
                m.setup_s.push(*ready_s);
            }
            m.units += r.completed as f64;
            m.units_s += r.wall_s;
            m.latency_ms.extend(r.wave_s.iter().map(|s| s * 1e3));
            m.peak_rss_bytes.push(r.peak_rss_bytes as f64);
        }
        m.setup_s.extend(night_walls);
        return Ok(m.end_to_end());
    }

    let first_span = ctx.spans.len();
    let traced = pass(ctx, &nights, true)?;
    check_rounds(ctx, relearn, &traced);
    for (round, ((_, p), (_, t))) in plain.iter().zip(&traced).enumerate() {
        ctx.outcome.check(p.digest == t.digest, || {
            format!(
                "round {round}: traced digest {} != untraced {}",
                t.digest, p.digest
            )
        });
        ctx.outcome.check(p.io() == t.io(), || {
            format!(
                "round {round}: traced shard I/O {:?} != untraced {:?}",
                t.io(),
                p.io()
            )
        });
    }
    let spans = &ctx.spans[first_span..];
    let self_s = trace::self_seconds_by_name(spans);
    let wall: f64 = traced.iter().map(|(_, r)| r.wall_s).sum();
    let layer = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let unattributed = layer("estate.scan") + layer("fleet.wave");
    ctx.outcome.check(unattributed <= 0.05 * wall, || {
        format!(
            "layer spans cover {:.1}% of the traced wall, below 95%",
            100.0 * (1.0 - unattributed / wall)
        )
    });
    let sum = |f: fn(&RoundResult) -> f64| traced.iter().map(|(_, r)| f(r)).sum::<f64>();
    let waves: Vec<f64> = traced
        .iter()
        .flat_map(|(_, r)| r.wave_s.iter().copied())
        .collect();
    let (hits, misses) = (sum(|r| r.reuse_hits as f64), sum(|r| r.reuse_misses as f64));
    let mut out: Vec<Metric> = [
        "workload.keys",
        "workload.materialise",
        "repository.fitted_at_many",
        "repository.fetch_many",
        "repository.store",
        "repository.flush",
        "repository.evict_clean",
        "fleet.checkpoint_append",
        "fleet.run_batch_on",
    ]
    .into_iter()
    .map(|name| metric(&format!("{name}_s"), layer(name)))
    .collect();
    out.extend([
        metric("fleet.unattributed_s", unattributed),
        metric("fleet.wave_p50_s", stats::median(&waves)),
        metric(
            "fleet.wave_max_s",
            waves.iter().copied().fold(0.0, f64::max),
        ),
        metric(
            "fleet.peak_wave_mb",
            traced
                .iter()
                .map(|(_, r)| r.peak_wave_bytes)
                .max()
                .unwrap_or(0) as f64
                / (1024.0 * 1024.0),
        ),
        metric("repository.shard_loads", sum(|r| r.shard_loads as f64)),
        metric(
            "repository.entries_appended",
            sum(|r| r.entries_appended as f64),
        ),
        metric("repository.evictions", sum(|r| r.evictions as f64)),
        metric("repository.compactions", sum(|r| r.compactions as f64)),
        metric("fleet.reuse_hits", hits),
        metric("fleet.reuse_misses", misses),
        metric("fleet.reuse_fallbacks", sum(|r| r.reuse_fallbacks as f64)),
        metric("fleet.reuse_hit_ratio", hits / (hits + misses).max(1.0)),
        metric(
            "evaluate.objective_evals",
            sum(|r| r.objective_evals as f64),
        ),
        metric("kernels.batch_ets_s", sum(|r| r.batch_ets_s)),
        metric("evaluate.lockstep_advance_s", sum(|r| r.lockstep_advance_s)),
        metric("evaluate.lockstep_stage_s", sum(|r| r.lockstep_stage_s)),
        metric("evaluate.lockstep_tell_s", sum(|r| r.lockstep_tell_s)),
        metric(
            "trace.overhead_ratio",
            wall / plain.iter().map(|(_, r)| r.wall_s).sum::<f64>() - 1.0,
        ),
    ]);
    Ok(out)
}
