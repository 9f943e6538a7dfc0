//! Estate-scale snapshot: a generated million-job estate streamed through
//! the sharded repository + wave scheduler, proving the claims that make
//! the estate path worth having —
//!
//! 1. `rss_by_wave_size`: the whole estate at several wave sizes; peak RSS
//!    must stay flat (≤ 2× spread) while the wave size varies 4× — memory
//!    tracks the wave, not the estate,
//! 2. `allatonce`: each of several growing estate slices as one wave as
//!    large as the slice; the bytes-per-job slope is extrapolated to a
//!    million jobs,
//! 3. `relearn`: a second scan over the persisted champions — the reuse
//!    hit rate of §5.1's champion reuse (frozen re-score, search only
//!    when degraded) at estate scale,
//! 4. `resume`: a checkpointed scan killed part-way, then resumed; only
//!    unfinished jobs may refit,
//! 5. `parity`: the OLTP fleet batch as one wave and as waves of 5 at
//!    1/2/4/8 threads — champions and RMSEs must be bit-identical.
//!
//! Peak RSS (`VmHWM`) is process-monotonic, so every RSS-measured scenario
//! runs in a fresh child process (this binary re-executes itself, role
//! selected by `DWCP_ESTATE_ROLE`). Writes `results/BENCH_estate.json`
//! and exits non-zero on any contract violation.
//!
//! ```sh
//! cargo run -p dwcp-bench --release --bin bench_estate              # 1M jobs
//! DWCP_QUICK=1 cargo run -p dwcp-bench --release --bin bench_estate # small
//! DWCP_ESTATE_JOBS=50000 cargo run -p dwcp-bench --release --bin bench_estate
//! ```

use dwcp_bench::{oltp_fleet_batch, peak_rss_bytes, results_dir};
use dwcp_core::{
    EstateScheduler, EvaluationOptions, FleetOptions, JobSource, MethodChoice, PipelineConfig,
    SeriesJob, ShardedRepository, SliceJobSource, WaveOptions,
};
use dwcp_series::Granularity;
use dwcp_workload::EstateSpec;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Observations per estate series; the Table 1 daily protocol consumes the
/// trailing 90 (83 train / 7 test).
const OBSERVATIONS: usize = 97;
/// Staleness clock of the first scan; relearn scans run an hour later
/// (well inside the one-week retention window).
const NOW: u64 = 1_600_000_000;
/// Exit code a wave child uses to report a deliberate mid-scan stop.
const STOPPED_EARLY_EXIT: i32 = 9;

/// The cheap per-job configuration the estate runs: the HES branch of
/// Figure 4 (five ETS candidates, no order grid) on the daily protocol.
fn estate_job_config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        method: MethodChoice::Hes,
        grid: Default::default(),
        granularity: Granularity::Daily,
        max_candidates: 8,
        fourier_stage: false,
        auto_detect_shocks: false,
        eval: EvaluationOptions {
            threads,
            ..Default::default()
        },
    }
}

/// [`JobSource`] over the generated estate: keys are index-mapped, series
/// are generated on demand — nothing is materialised outside the live wave.
struct EstateSource {
    spec: EstateSpec,
    config: PipelineConfig,
}

impl JobSource for EstateSource {
    fn keys(&self) -> Vec<String> {
        self.spec.keys()
    }

    fn load(&self, key: &str) -> dwcp_core::Result<SeriesJob> {
        Ok(SeriesJob::new(
            key,
            self.spec.series(key),
            self.config.clone(),
        ))
    }
}

/// One child process's measurements, printed as a `RESULT {json}` line.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ChildResult {
    n_jobs: usize,
    wave_size: usize,
    completed: usize,
    failed: usize,
    skipped: usize,
    waves: usize,
    stopped_early: bool,
    wall_s: f64,
    jobs_per_second: f64,
    objective_evals: usize,
    peak_wave_bytes: usize,
    peak_rss_bytes: u64,
    reuse_hits: usize,
    reuse_misses: usize,
    reuse_fallbacks: usize,
    shard_loads: usize,
    entries_appended: usize,
    compactions: usize,
    evictions: usize,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Child role `waves`: scan the estate with the wave scheduler over a
/// sharded repository, then report.
fn child_waves() -> Result<(), Box<dyn std::error::Error>> {
    let n_jobs = env_usize("DWCP_ESTATE_JOBS", 0);
    let wave_size = env_usize("DWCP_ESTATE_WAVE", 1024);
    let max_waves = env_usize("DWCP_ESTATE_MAX_WAVES", 0);
    let shards = env_usize("DWCP_ESTATE_SHARDS", 64);
    let threads = env_usize("DWCP_ESTATE_THREADS", 1);
    let now = env_u64("DWCP_ESTATE_NOW", NOW);
    let seed = env_u64("DWCP_ESTATE_SEED", dwcp_bench::EXPERIMENT_SEED);
    let repo_dir = PathBuf::from(std::env::var("DWCP_ESTATE_REPO")?);
    let checkpoint = std::env::var("DWCP_ESTATE_CHECKPOINT")
        .ok()
        .map(PathBuf::from);

    let source = EstateSource {
        spec: EstateSpec::new(n_jobs, OBSERVATIONS, seed),
        config: estate_job_config(threads),
    };
    let repository = ShardedRepository::open_or_create(&repo_dir, shards)?;
    let mut scheduler = EstateScheduler::new(
        FleetOptions {
            threads,
            now,
            ..Default::default()
        },
        WaveOptions {
            wave_size,
            checkpoint,
            max_waves,
        },
        repository,
    );
    let heartbeat = 32usize;
    let report = scheduler.run_with_progress(&source, &mut |progress, _| {
        if progress.wave % heartbeat == 0 || progress.wave == progress.total_waves {
            eprintln!(
                "    wave {}/{}: {}/{} jobs, {:.1}s/wave, {:.1} MiB wave set",
                progress.wave,
                progress.total_waves,
                progress.jobs_done,
                progress.jobs_total,
                progress.wave_wall.as_secs_f64(),
                progress.wave_bytes as f64 / (1024.0 * 1024.0),
            );
        }
    })?;
    let io = scheduler.repository.io_stats();
    for warning in scheduler.repository.take_warnings() {
        eprintln!("    warning: {warning}");
    }
    let result = ChildResult {
        n_jobs,
        wave_size,
        completed: report.completed,
        failed: report.failed,
        skipped: report.skipped,
        waves: report.waves,
        stopped_early: report.stopped_early,
        wall_s: report.stats.wall_time.as_secs_f64(),
        jobs_per_second: report.jobs_per_second(),
        objective_evals: report.stats.objective_evals,
        peak_wave_bytes: report.peak_wave_bytes,
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
        reuse_hits: report.stats.reuse_hits,
        reuse_misses: report.stats.reuse_misses,
        reuse_fallbacks: report.stats.reuse_fallbacks,
        shard_loads: io.shard_loads,
        entries_appended: io.entries_appended,
        compactions: io.compactions,
        evictions: io.evictions,
    };
    println!("RESULT {}", serde_json::to_string(&result)?);
    if report.stopped_early {
        std::process::exit(STOPPED_EARLY_EXIT);
    }
    Ok(())
}

/// Spawn this binary as a child with the given role + env, stream its
/// stderr, and parse the `RESULT {json}` line. `allow_stop` accepts the
/// deliberate mid-scan exit code.
fn run_child(
    role: &str,
    env: &[(&str, String)],
    allow_stop: bool,
) -> Result<ChildResult, Box<dyn std::error::Error>> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.env("DWCP_ESTATE_ROLE", role)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (key, value) in env {
        cmd.env(key, value);
    }
    let output = cmd.output()?;
    let code = output.status.code().unwrap_or(-1);
    if code != 0 && !(allow_stop && code == STOPPED_EARLY_EXIT) {
        return Err(format!("child role={role} exited with {code}").into());
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("RESULT "))
        .ok_or("child printed no RESULT line")?;
    Ok(serde_json::from_str(line)?)
}

#[derive(Debug, Clone, Serialize)]
struct RssRun {
    wave_size: usize,
    peak_rss_bytes: u64,
    peak_wave_bytes: usize,
    wall_s: f64,
    jobs_per_second: f64,
    shard_loads: usize,
    compactions: usize,
    evictions: usize,
}

#[derive(Debug, Clone, Serialize)]
struct AllAtOnceRun {
    n_jobs: usize,
    peak_rss_bytes: u64,
    wall_s: f64,
    jobs_per_second: f64,
}

#[derive(Debug, Clone, Serialize)]
struct EstateSnapshot {
    estate: EstateInfo,
    quick: bool,
    throughput: ThroughputInfo,
    rss_by_wave_size: Vec<RssRun>,
    rss_flatness_ratio: f64,
    allatonce: AllAtOnceInfo,
    relearn: RelearnInfo,
    resume: ResumeInfo,
    parity: ParityInfo,
}

#[derive(Debug, Clone, Serialize)]
struct EstateInfo {
    n_jobs: usize,
    observations: usize,
    shards: usize,
    method: String,
}

#[derive(Debug, Clone, Serialize)]
struct ThroughputInfo {
    wave_size: usize,
    jobs_per_second: f64,
    wall_s: f64,
    objective_evals: usize,
    completed: usize,
    failed: usize,
}

#[derive(Debug, Clone, Serialize)]
struct AllAtOnceInfo {
    runs: Vec<AllAtOnceRun>,
    bytes_per_job: f64,
    extrapolated_1m_bytes: f64,
}

#[derive(Debug, Clone, Serialize)]
struct RelearnInfo {
    n_jobs: usize,
    reuse_hits: usize,
    reuse_misses: usize,
    reuse_fallbacks: usize,
    reuse_hit_rate: f64,
    jobs_per_second: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ResumeInfo {
    n_jobs: usize,
    first_completed: usize,
    first_wall_s: f64,
    resume_skipped: usize,
    resume_completed: usize,
    resume_wall_s: f64,
    refit_only_unfinished: bool,
}

#[derive(Debug, Clone, Serialize)]
struct ParityInfo {
    batch_jobs: usize,
    threads: Vec<usize>,
    bit_identical: bool,
}

/// Each job's champion and held-out RMSE from one scan of `jobs`.
type Champions = std::collections::BTreeMap<String, (String, f64)>;

/// Scan `jobs` at `threads` in waves of `wave_size` over `repository`.
fn scan_champions(
    jobs: &[SeriesJob],
    threads: usize,
    wave_size: usize,
    repository: ShardedRepository,
) -> Result<Champions, Box<dyn std::error::Error>> {
    let mut estate = EstateScheduler::new(
        FleetOptions {
            threads,
            now: NOW,
            ..Default::default()
        },
        WaveOptions {
            wave_size,
            ..Default::default()
        },
        repository,
    );
    let mut by_key = Champions::new();
    estate.run_with_progress(&SliceJobSource::new(jobs), &mut |_, results| {
        for r in results {
            if let Ok(outcome) = &r.outcome {
                by_key.insert(
                    r.key.clone(),
                    (outcome.champion.clone(), outcome.accuracy.rmse),
                );
            }
        }
    })?;
    Ok(by_key)
}

/// Wave-size invariance on the real OLTP fleet batch: the whole batch as
/// one wave over an in-memory store vs waves of 5 over a throwaway
/// sharded repository, per thread count. Returns the number of
/// mismatching champions/RMSEs and the batch size.
fn parity_check(
    quick: bool,
    scratch: &Path,
    thread_counts: &[usize],
) -> Result<(usize, usize), Box<dyn std::error::Error>> {
    let mut mismatches = 0usize;
    let mut batch_jobs = 0usize;
    for (i, &threads) in thread_counts.iter().enumerate() {
        let jobs: Vec<SeriesJob> = oltp_fleet_batch(quick, threads)?;
        batch_jobs = jobs.len();
        let one_wave = scan_champions(&jobs, threads, jobs.len(), ShardedRepository::in_memory())?;
        let repo_dir = scratch.join(format!("parity-{i}"));
        let repository = ShardedRepository::open_or_create(&repo_dir, 4)?;
        let waves = scan_champions(&jobs, threads, 5, repository)?;

        for job in &jobs {
            let Some((champion, rmse)) = one_wave.get(&job.key) else {
                eprintln!("FAIL parity: one-wave job {} errored", job.key);
                mismatches += 1;
                continue;
            };
            match waves.get(&job.key) {
                Some((wave_champion, wave_rmse)) => {
                    if wave_champion != champion || wave_rmse.to_bits() != rmse.to_bits() {
                        eprintln!(
                            "FAIL parity ({threads} threads) {}: waves of 5 {wave_champion}/{wave_rmse} != one wave {champion}/{rmse}",
                            job.key
                        );
                        mismatches += 1;
                    }
                }
                None => {
                    eprintln!(
                        "FAIL parity ({threads} threads): waves of 5 lost job {}",
                        job.key
                    );
                    mismatches += 1;
                }
            }
        }
        println!("  parity @ {threads} threads: {} jobs compared", jobs.len());
    }
    Ok((mismatches, batch_jobs))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Child roles re-enter here; the parent falls through to orchestrate.
    if let Ok("waves") = std::env::var("DWCP_ESTATE_ROLE").as_deref() {
        return child_waves();
    }

    let quick = std::env::var("DWCP_QUICK").is_ok();
    let n_jobs = env_usize("DWCP_ESTATE_JOBS", if quick { 2_000 } else { 1_000_000 });
    let shards = if quick { 16 } else { 64 };
    let wave_sweep: &[usize] = if quick {
        &[64, 128, 256]
    } else {
        &[1_024, 2_048, 4_096]
    };
    let allatonce_sizes: &[usize] = if quick {
        &[500, 1_000, 2_000]
    } else {
        &[10_000, 20_000, 40_000]
    };
    let scratch = std::env::temp_dir().join(format!("dwcp-bench-estate-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    println!(
        "bench_estate: {n_jobs} jobs ({OBSERVATIONS} daily obs each), {shards} shards{}",
        if quick { ", quick mode" } else { "" }
    );
    let mut failures = 0usize;

    // 1. Wave-size sweep over the full estate: peak RSS must stay flat.
    let mut rss_runs: Vec<RssRun> = Vec::new();
    let mut kept_repo: Option<PathBuf> = None;
    let mut throughput: Option<ThroughputInfo> = None;
    for (i, &wave) in wave_sweep.iter().enumerate() {
        let repo_dir = scratch.join(format!("sweep-{wave}"));
        println!("  scan {} jobs @ wave {wave} ...", n_jobs);
        let t0 = Instant::now();
        let r = run_child(
            "waves",
            &[
                ("DWCP_ESTATE_JOBS", n_jobs.to_string()),
                ("DWCP_ESTATE_WAVE", wave.to_string()),
                ("DWCP_ESTATE_SHARDS", shards.to_string()),
                ("DWCP_ESTATE_REPO", repo_dir.display().to_string()),
            ],
            false,
        )?;
        println!(
            "    {:.1}s, {:.0} jobs/s, peak RSS {:.1} MiB, peak wave set {:.1} MiB",
            t0.elapsed().as_secs_f64(),
            r.jobs_per_second,
            r.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            r.peak_wave_bytes as f64 / (1024.0 * 1024.0),
        );
        if r.completed + r.failed != n_jobs {
            eprintln!(
                "FAIL sweep @ wave {wave}: {} completed + {} failed != {n_jobs}",
                r.completed, r.failed
            );
            failures += 1;
        }
        // Keep the middle run's repository for the relearn scenario.
        if i == wave_sweep.len() / 2 {
            kept_repo = Some(repo_dir);
        } else {
            let _ = std::fs::remove_dir_all(&repo_dir);
        }
        // The first (smallest-wave) scan doubles as the headline
        // throughput figure.
        if throughput.is_none() {
            throughput = Some(ThroughputInfo {
                wave_size: wave,
                jobs_per_second: r.jobs_per_second,
                wall_s: r.wall_s,
                objective_evals: r.objective_evals,
                completed: r.completed,
                failed: r.failed,
            });
        }
        rss_runs.push(RssRun {
            wave_size: wave,
            peak_rss_bytes: r.peak_rss_bytes,
            peak_wave_bytes: r.peak_wave_bytes,
            wall_s: r.wall_s,
            jobs_per_second: r.jobs_per_second,
            shard_loads: r.shard_loads,
            compactions: r.compactions,
            evictions: r.evictions,
        });
    }
    let throughput = throughput.ok_or("wave sweep produced no runs")?;
    let rss_min = rss_runs.iter().map(|r| r.peak_rss_bytes).min().unwrap_or(1);
    let rss_max = rss_runs.iter().map(|r| r.peak_rss_bytes).max().unwrap_or(1);
    let rss_flatness_ratio = rss_max as f64 / rss_min.max(1) as f64;
    println!(
        "  peak RSS across wave sizes {wave_sweep:?}: flatness ratio {rss_flatness_ratio:.2}x"
    );
    if rss_flatness_ratio > 2.0 {
        eprintln!("FAIL: peak RSS not flat across wave sizes ({rss_flatness_ratio:.2}x > 2x)");
        failures += 1;
    }

    // 2. All-at-once — one wave as large as the slice — at growing
    //    slices: RSS is linear in the estate, so a million jobs is
    //    extrapolated, not attempted.
    let mut allatonce_runs: Vec<AllAtOnceRun> = Vec::new();
    for &n in allatonce_sizes {
        println!("  all-at-once {n} jobs ...");
        let repo_dir = scratch.join(format!("allatonce-{n}"));
        let r = run_child(
            "waves",
            &[
                ("DWCP_ESTATE_JOBS", n.to_string()),
                ("DWCP_ESTATE_WAVE", n.to_string()),
                ("DWCP_ESTATE_SHARDS", shards.to_string()),
                ("DWCP_ESTATE_REPO", repo_dir.display().to_string()),
            ],
            false,
        )?;
        let _ = std::fs::remove_dir_all(&repo_dir);
        println!(
            "    {:.1}s, peak RSS {:.1} MiB",
            r.wall_s,
            r.peak_rss_bytes as f64 / (1024.0 * 1024.0)
        );
        allatonce_runs.push(AllAtOnceRun {
            n_jobs: n,
            peak_rss_bytes: r.peak_rss_bytes,
            wall_s: r.wall_s,
            jobs_per_second: r.jobs_per_second,
        });
    }
    let (first, last) = (
        &allatonce_runs[0],
        &allatonce_runs[allatonce_runs.len() - 1],
    );
    let bytes_per_job = (last.peak_rss_bytes as f64 - first.peak_rss_bytes as f64)
        / (last.n_jobs as f64 - first.n_jobs as f64);
    let extrapolated_1m_bytes =
        first.peak_rss_bytes as f64 + bytes_per_job * (1_000_000.0 - first.n_jobs as f64);
    println!(
        "  all-at-once slope: {:.0} bytes/job, extrapolated 1M-job RSS {:.1} GiB",
        bytes_per_job,
        extrapolated_1m_bytes / (1024.0 * 1024.0 * 1024.0)
    );

    // 3. Relearn over the kept repository: champion reuse at scale.
    let relearn_jobs = n_jobs.min(100_000);
    let kept = kept_repo.ok_or("no repository kept for relearn")?;
    println!("  relearn {relearn_jobs} jobs over persisted champions ...");
    let relearn_wave = wave_sweep[wave_sweep.len() / 2];
    let r = run_child(
        "waves",
        &[
            ("DWCP_ESTATE_JOBS", relearn_jobs.to_string()),
            ("DWCP_ESTATE_WAVE", relearn_wave.to_string()),
            ("DWCP_ESTATE_SHARDS", shards.to_string()),
            ("DWCP_ESTATE_REPO", kept.display().to_string()),
            ("DWCP_ESTATE_NOW", (NOW + 3_600).to_string()),
        ],
        false,
    )?;
    let eligible = r.reuse_hits + r.reuse_misses;
    let relearn = RelearnInfo {
        n_jobs: relearn_jobs,
        reuse_hits: r.reuse_hits,
        reuse_misses: r.reuse_misses,
        reuse_fallbacks: r.reuse_fallbacks,
        reuse_hit_rate: if eligible > 0 {
            r.reuse_hits as f64 / eligible as f64
        } else {
            0.0
        },
        jobs_per_second: r.jobs_per_second,
    };
    println!(
        "    reuse {}h/{}m/{}f (hit rate {:.0}%), {:.0} jobs/s",
        relearn.reuse_hits,
        relearn.reuse_misses,
        relearn.reuse_fallbacks,
        relearn.reuse_hit_rate * 100.0,
        relearn.jobs_per_second
    );
    if relearn.reuse_hit_rate < 0.99 {
        eprintln!(
            "FAIL relearn: expected ~100% reuse over fresh champions, got {:.1}%",
            relearn.reuse_hit_rate * 100.0
        );
        failures += 1;
    }
    let _ = std::fs::remove_dir_all(&kept);

    // 4. Kill + resume: a checkpointed scan stopped part-way must resume
    //    refitting only the unfinished jobs.
    let resume_jobs = n_jobs.min(if quick { 2_000 } else { 200_000 });
    let resume_wave = wave_sweep[0];
    let total_waves = resume_jobs.div_ceil(resume_wave);
    let abort_after = (total_waves * 3 / 10).max(1);
    let repo_dir = scratch.join("resume-repo");
    let checkpoint = scratch.join("resume.ckpt");
    println!(
        "  resume: {resume_jobs} jobs @ wave {resume_wave}, killing after {abort_after}/{total_waves} waves ..."
    );
    let resume_env = |max_waves: usize| {
        vec![
            ("DWCP_ESTATE_JOBS", resume_jobs.to_string()),
            ("DWCP_ESTATE_WAVE", resume_wave.to_string()),
            ("DWCP_ESTATE_SHARDS", shards.to_string()),
            ("DWCP_ESTATE_REPO", repo_dir.display().to_string()),
            ("DWCP_ESTATE_CHECKPOINT", checkpoint.display().to_string()),
            ("DWCP_ESTATE_MAX_WAVES", max_waves.to_string()),
        ]
    };
    let first_pass = run_child("waves", &resume_env(abort_after), true)?;
    if !first_pass.stopped_early {
        eprintln!("FAIL resume: first pass was expected to stop early");
        failures += 1;
    }
    let second_pass = run_child("waves", &resume_env(0), false)?;
    let refit_only_unfinished = second_pass.skipped == first_pass.completed
        && second_pass.skipped + second_pass.completed + second_pass.failed == resume_jobs;
    let resume = ResumeInfo {
        n_jobs: resume_jobs,
        first_completed: first_pass.completed,
        first_wall_s: first_pass.wall_s,
        resume_skipped: second_pass.skipped,
        resume_completed: second_pass.completed,
        resume_wall_s: second_pass.wall_s,
        refit_only_unfinished,
    };
    println!(
        "    first pass fitted {}, resume skipped {} and fitted {}",
        resume.first_completed, resume.resume_skipped, resume.resume_completed
    );
    if !refit_only_unfinished {
        eprintln!(
            "FAIL resume: skipped {} != first-pass completed {} (or counts do not add up)",
            second_pass.skipped, first_pass.completed
        );
        failures += 1;
    }

    // 5. Wave-size parity on the real OLTP batch at 1/2/4/8 threads.
    let thread_counts = [1usize, 2, 4, 8];
    println!("  parity on the OLTP fleet batch ...");
    let (parity_mismatches, batch_jobs) = parity_check(quick, &scratch, &thread_counts)?;
    failures += parity_mismatches;
    let parity = ParityInfo {
        batch_jobs,
        threads: thread_counts.to_vec(),
        bit_identical: parity_mismatches == 0,
    };

    let snapshot = EstateSnapshot {
        estate: EstateInfo {
            n_jobs,
            observations: OBSERVATIONS,
            shards,
            method: "hes/daily".into(),
        },
        quick,
        throughput,
        rss_by_wave_size: rss_runs,
        rss_flatness_ratio,
        allatonce: AllAtOnceInfo {
            runs: allatonce_runs,
            bytes_per_job,
            extrapolated_1m_bytes,
        },
        relearn,
        resume,
        parity,
    };
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_estate.json");
    std::fs::write(&path, serde_json::to_string_pretty(&snapshot)?)?;
    println!("wrote {}", path.display());
    let _ = std::fs::remove_dir_all(&scratch);

    if failures > 0 {
        eprintln!("FAIL: {failures} estate contract violations");
        std::process::exit(1);
    }
    Ok(())
}
