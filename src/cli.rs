//! The `dwcp` command-line tool: simulate workloads, forecast metric
//! series from CSV, and raise threshold advisories — the §8 monitoring
//! service in miniature, usable on any time-series CSV.
//!
//! ```text
//! dwcp simulate --scenario oltp --instance cdbm011 --metric cpu [--seed N] [--out FILE]
//! dwcp forecast --input FILE [--method sarimax|hes|tbats|auto] [--granularity hourly|daily|weekly]
//! dwcp advise   --input FILE --threshold X [--method sarimax|hes|tbats|auto]
//! ```
//!
//! CSV format: one observation per line, either `value` or
//! `timestamp,value` (epoch seconds); `#` lines and a non-numeric header
//! are skipped.

use crate::planner::{
    AlertRule, Checkpoint, Engine, EngineConfig, EstateScheduler, FleetOptions, GridStrategy,
    LockstepStats, MethodChoice, Pipeline, PipelineConfig, RelearnReason, SeriesJob,
    ShardedRepository, SliceJobSource, ThresholdAdvisor, WaveOptions,
};
use crate::series::{Frequency, Granularity, TimeSeries};
use crate::workload::{olap_scenario, oltp_scenario, Metric, Scenario};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a simulated metric trace.
    Simulate {
        /// `olap` or `oltp`.
        scenario: String,
        /// Instance name.
        instance: String,
        /// `cpu`, `memory` or `iops`.
        metric: String,
        /// Simulation seed.
        seed: u64,
        /// Output path (`-` = stdout).
        out: String,
    },
    /// Forecast a CSV series.
    Forecast {
        /// Input CSV path.
        input: String,
        /// Method choice.
        method: MethodChoice,
        /// Protocol granularity.
        granularity: Granularity,
        /// Auto-detect recurring shocks.
        detect_shocks: bool,
        /// SARIMAX grid strategy: the full pruned sweep, or the
        /// ACF/PACF-seeded auto-order grid with full-sweep fallback.
        grid: GridStrategy,
    },
    /// Batch-forecast many CSV series on one shared worker pool.
    Fleet {
        /// Input CSV paths (workload key = file stem).
        inputs: Vec<String>,
        /// Method choice.
        method: MethodChoice,
        /// Protocol granularity.
        granularity: Granularity,
        /// Worker threads (0 = all cores).
        threads: usize,
        /// Neighbourhood radius a degraded champion searches.
        radius: usize,
        /// Optional sharded-repository directory that persists champions
        /// across runs; without it the champions live in memory.
        repo_dir: Option<String>,
        /// Jobs per wave (0 = the scheduler's default wave size).
        wave: usize,
        /// Shard count when `repo_dir` is created fresh.
        shards: usize,
        /// Checkpoint file: completed jobs are recorded after each wave
        /// and skipped by the next scan using the same file.
        checkpoint: Option<String>,
        /// Cancel (delete) the checkpoint instead of scanning.
        cancel_checkpoint: bool,
    },
    /// Threshold advisory on a CSV series.
    Advise {
        /// Input CSV path.
        input: String,
        /// Capacity threshold.
        threshold: f64,
        /// Method choice.
        method: MethodChoice,
    },
    /// Run the resident ingest→score→alert daemon.
    Serve {
        /// Bind address (`host:port`; port 0 picks an ephemeral port).
        addr: String,
        /// HTTP worker threads (0 = a small default pool).
        threads: usize,
        /// Method choice for fits and relearns.
        method: MethodChoice,
        /// Protocol granularity.
        granularity: Granularity,
        /// Optional capacity threshold; when set, every scored forecast is
        /// scanned and breaches fire on `GET /alerts`.
        threshold: Option<f64>,
    },
    /// Print usage.
    Help,
}

/// Errors surfaced to the terminal.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// The flags a subcommand takes: those with a value, then the bare ones.
/// `None` for an unknown subcommand.
fn flags_of(sub: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match sub {
        "simulate" => (&["scenario", "instance", "metric", "seed", "out"], &[]),
        "forecast" => (
            &["input", "method", "granularity", "grid"],
            &["detect-shocks"],
        ),
        "fleet" => (
            &[
                "inputs",
                "method",
                "granularity",
                "threads",
                "radius",
                "repo-dir",
                "wave",
                "shards",
                "checkpoint",
            ],
            &["cancel-checkpoint"],
        ),
        "advise" => (&["input", "threshold", "method"], &[]),
        "serve" => (
            &["addr", "threads", "method", "granularity", "threshold"],
            &[],
        ),
        "help" | "--help" | "-h" => (&[], &[]),
        _ => return None,
    })
}

/// Parse an argument vector (without the program name). A flag the
/// subcommand does not take is an error, never silently ignored.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    let (valued, bare) = flags_of(sub).ok_or_else(|| err(format!("unknown subcommand `{sub}`")))?;
    let mut flags: std::collections::BTreeMap<String, String> = Default::default();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i]
            .strip_prefix("--")
            .ok_or_else(|| err(format!("expected --flag, got `{}`", rest[i])))?;
        if bare.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        if !valued.contains(&key) {
            return Err(err(format!("`dwcp {sub}` does not take --{key}")));
        }
        let value = rest
            .get(i + 1)
            .ok_or_else(|| err(format!("--{key} needs a value")))?;
        flags.insert(key.to_string(), value.to_string());
        i += 2;
    }
    let get = |k: &str, default: Option<&str>| -> Result<String, CliError> {
        flags
            .get(k)
            .cloned()
            .or_else(|| default.map(str::to_string))
            .ok_or_else(|| err(format!("missing required flag --{k}")))
    };
    let method_of = |s: &str| -> Result<MethodChoice, CliError> {
        match s {
            "sarimax" => Ok(MethodChoice::Sarimax),
            "hes" => Ok(MethodChoice::Hes),
            "tbats" => Ok(MethodChoice::Tbats),
            "auto" => Ok(MethodChoice::Auto),
            other => Err(err(format!(
                "unknown method `{other}` (sarimax|hes|tbats|auto)"
            ))),
        }
    };
    let granularity_of = |s: &str| -> Result<Granularity, CliError> {
        match s {
            "hourly" => Ok(Granularity::Hourly),
            "daily" => Ok(Granularity::Daily),
            "weekly" => Ok(Granularity::Weekly),
            other => Err(err(format!(
                "unknown granularity `{other}` (hourly|daily|weekly)"
            ))),
        }
    };
    match sub {
        "simulate" => Ok(Command::Simulate {
            scenario: get("scenario", Some("oltp"))?,
            instance: get("instance", Some("cdbm011"))?,
            metric: get("metric", Some("cpu"))?,
            seed: get("seed", Some("42"))?
                .parse()
                .map_err(|_| err("--seed must be an integer"))?,
            out: get("out", Some("-"))?,
        }),
        "forecast" => Ok(Command::Forecast {
            input: get("input", None)?,
            method: method_of(&get("method", Some("sarimax"))?)?,
            granularity: granularity_of(&get("granularity", Some("hourly"))?)?,
            detect_shocks: flags.contains_key("detect-shocks"),
            grid: match get("grid", Some("full"))?.as_str() {
                "full" => GridStrategy::Full,
                "auto-order" => GridStrategy::AutoOrder,
                other => {
                    return Err(err(format!("unknown grid `{other}` (full|auto-order)")));
                }
            },
        }),
        "fleet" => {
            let cancel_checkpoint = flags.contains_key("cancel-checkpoint");
            // `--cancel-checkpoint` is an administrative action on the
            // checkpoint file alone; it needs no inputs.
            let inputs: Vec<String> = get("inputs", cancel_checkpoint.then_some(""))?
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            if inputs.is_empty() && !cancel_checkpoint {
                return Err(err("--inputs needs at least one CSV path"));
            }
            Ok(Command::Fleet {
                inputs,
                method: method_of(&get("method", Some("sarimax"))?)?,
                granularity: granularity_of(&get("granularity", Some("hourly"))?)?,
                threads: get("threads", Some("0"))?
                    .parse()
                    .map_err(|_| err("--threads must be an integer"))?,
                radius: get("radius", Some("1"))?
                    .parse()
                    .map_err(|_| err("--radius must be an integer"))?,
                repo_dir: flags.get("repo-dir").cloned(),
                wave: get("wave", Some("0"))?
                    .parse()
                    .map_err(|_| err("--wave must be an integer"))?,
                shards: get("shards", Some("16"))?
                    .parse()
                    .map_err(|_| err("--shards must be an integer"))?,
                checkpoint: flags.get("checkpoint").cloned(),
                cancel_checkpoint,
            })
        }
        "advise" => Ok(Command::Advise {
            input: get("input", None)?,
            threshold: get("threshold", None)?
                .parse()
                .map_err(|_| err("--threshold must be a number"))?,
            method: method_of(&get("method", Some("sarimax"))?)?,
        }),
        "serve" => Ok(Command::Serve {
            addr: get("addr", Some("127.0.0.1:7878"))?,
            threads: get("threads", Some("0"))?
                .parse()
                .map_err(|_| err("--threads must be an integer"))?,
            method: method_of(&get("method", Some("sarimax"))?)?,
            granularity: granularity_of(&get("granularity", Some("hourly"))?)?,
            threshold: match flags.get("threshold") {
                None => None,
                Some(t) => Some(t.parse().map_err(|_| err("--threshold must be a number"))?),
            },
        }),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(err(format!("unknown subcommand `{other}`"))),
    }
}

/// Usage text.
pub const USAGE: &str = "dwcp — database workload capacity planning (SIGMOD'20 reproduction)

USAGE:
  dwcp simulate [--scenario olap|oltp] [--instance NAME] [--metric cpu|memory|iops]
                [--seed N] [--out FILE]
  dwcp forecast --input FILE [--method sarimax|hes|tbats|auto]
                [--granularity hourly|daily|weekly] [--detect-shocks]
                [--grid full|auto-order]
  dwcp fleet    --inputs A.csv,B.csv,... [--method sarimax|hes|tbats|auto]
                [--granularity hourly|daily|weekly] [--threads N] [--radius N]
                [--wave N] [--repo-dir DIR [--shards N] [--checkpoint FILE]]
  dwcp fleet    --checkpoint FILE --cancel-checkpoint
  dwcp advise   --input FILE --threshold X [--method sarimax|hes|tbats|auto]
  dwcp serve    [--addr HOST:PORT] [--threads N] [--method sarimax|hes|tbats|auto]
                [--granularity hourly|daily|weekly] [--threshold X]

CSV input: one observation per line, `value` or `timestamp,value`.
`--method auto` races every family through one grid and keeps the best
held-out RMSE. `--grid auto-order` replaces the SARIMAX sweep with an
ACF/PACF-seeded neighbourhood grid (ADF/KPSS pick the differencing) and
falls back to the full sweep if the seeded champion cannot beat a naive
benchmark forecast. `fleet` schedules its inputs through one shared
worker pool in stalest-first waves of --wave jobs (default 1024).
--repo-dir keeps the champions (any family) in a sharded on-disk
repository (created with --shards shards); without it they live in
memory for the one run. On a later run a stored champion under a week
old is re-scored frozen and kept unless its RMSE more than doubled;
then its --radius neighbourhood is searched, and the full grid if that
degrades too. A week-old or missing champion runs the full grid.
--checkpoint records finished jobs so a killed scan resumes where it
stopped; --cancel-checkpoint deletes that file and exits. A flag a
subcommand does not take is an error.

`serve` runs the resident ingest→score→alert daemon (default address
127.0.0.1:7878) until `POST /shutdown`. Agents push raw points with
`POST /push?workload=K` (CSV body, `timestamp,value` per line); the
daemon folds them into hourly aggregates, re-scores the stored champion
frozen per new complete hour, and relearns only when the staleness or
RMSE-degradation rules fire. Read endpoints: `GET /series?workload=K
[&cursor=N][&limit=N]` pages the aggregated series (follow `next_cursor`
until it is null; limit caps at 4096 per page), `GET /forecast?workload=K`
returns the latest beyond-the-data forecast, `GET /alerts?workload=K` the
fired-alert log (needs --threshold), `GET /status?workload=K` the ingest
and scoring counters, `GET /health` liveness. Workload keys containing
`/` must be percent-encoded (`cdbm012%2FCPU`).
";

/// Parse a metric CSV into a [`TimeSeries`] (assumed hourly unless
/// timestamps imply otherwise; blank/NaN fields become gaps).
pub fn read_csv(content: &str) -> Result<TimeSeries, CliError> {
    let mut timestamps: Vec<Option<u64>> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let (ts, value_field) = match fields.len() {
            1 => (None, fields[0]),
            2 => (fields[0].parse::<u64>().ok(), fields[1]),
            n => {
                return Err(err(format!(
                    "line {}: expected 1 or 2 fields, got {n}",
                    lineno + 1
                )))
            }
        };
        let value = if value_field.is_empty() || value_field.eq_ignore_ascii_case("nan") {
            f64::NAN
        } else {
            match value_field.parse::<f64>() {
                Ok(v) => v,
                Err(_) if lineno == 0 => continue, // header row
                Err(_) => {
                    return Err(err(format!(
                        "line {}: `{value_field}` is not a number",
                        lineno + 1
                    )))
                }
            }
        };
        timestamps.push(ts);
        values.push(value);
    }
    if values.is_empty() {
        return Err(err("no observations in input"));
    }
    // Infer cadence from the first two timestamps when present.
    let origin = timestamps.first().copied().flatten().unwrap_or(0);
    let frequency = match (
        timestamps.first().copied().flatten(),
        timestamps.get(1).copied().flatten(),
    ) {
        (Some(a), Some(b)) if b > a => match b - a {
            900 => Frequency::QuarterHourly,
            3_600 => Frequency::Hourly,
            86_400 => Frequency::Daily,
            604_800 => Frequency::Weekly,
            _ => Frequency::Hourly,
        },
        _ => Frequency::Hourly,
    };
    Ok(TimeSeries::new(values, frequency, origin))
}

/// Render a series as `timestamp,value` CSV.
pub fn write_csv(series: &TimeSeries) -> String {
    let mut out = String::with_capacity(series.len() * 20);
    out.push_str("timestamp,value\n");
    for (i, &v) in series.values().iter().enumerate() {
        if v.is_nan() {
            out.push_str(&format!("{},\n", series.timestamp(i)));
        } else {
            out.push_str(&format!("{},{v:.6}\n", series.timestamp(i)));
        }
    }
    out
}

/// Execute a parsed command, writing human output to `stdout`.
pub fn execute(
    command: Command,
    stdout: &mut impl std::io::Write,
) -> Result<(), Box<dyn std::error::Error>> {
    match command {
        Command::Help => {
            write!(stdout, "{USAGE}")?;
            Ok(())
        }
        Command::Simulate {
            scenario,
            instance,
            metric,
            seed,
            out,
        } => {
            let scenario = scenario_of(&scenario)?;
            let metric = metric_of(&metric)?;
            let series = scenario.hourly(seed, &instance, metric)?;
            let csv = write_csv(&series);
            if out == "-" {
                write!(stdout, "{csv}")?;
            } else {
                std::fs::write(&out, csv)?;
                writeln!(
                    stdout,
                    "wrote {} hourly observations of {instance}/{} to {out}",
                    series.len(),
                    metric.label()
                )?;
            }
            Ok(())
        }
        Command::Forecast {
            input,
            method,
            granularity,
            detect_shocks,
            grid,
        } => {
            let content = std::fs::read_to_string(&input)?;
            let series = read_csv(&content)?;
            let mut config = PipelineConfig::hourly(method);
            config.granularity = granularity;
            config.auto_detect_shocks = detect_shocks;
            config.grid = grid;
            let pipeline = Pipeline::new(config);
            let horizon = granularity.horizon();
            let (outcome, future) = pipeline.refit_and_forecast(&series, &[], &[], horizon)?;
            let family = outcome.family.map(|f| f.label()).unwrap_or("unknown");
            writeln!(stdout, "# champion: {}", outcome.champion)?;
            writeln!(stdout, "# method: {method:?} -> chosen family: {family}")?;
            writeln!(
                stdout,
                "# summary: {{\"champion\":\"{}\",\"family\":\"{}\",\"rmse\":{:.6}}}",
                outcome.champion, family, outcome.accuracy.rmse
            )?;
            writeln!(
                stdout,
                "# held-out accuracy: RMSE {:.4}  MAPE {:.2}%  MAPA {:.2}%  ({} models evaluated)",
                outcome.accuracy.rmse,
                outcome.accuracy.mape,
                outcome.accuracy.mapa,
                outcome.evaluated
            )?;
            if outcome.stats.objective_evals > 0 {
                write!(
                    stdout,
                    "# search: {} objective evals, {} cache hits, {} warm starts, {:.0} ms wall",
                    outcome.stats.objective_evals,
                    outcome.stats.cache_hits,
                    outcome.stats.warm_starts,
                    outcome.stats.wall_time.as_secs_f64() * 1e3
                )?;
                let lockstep = &outcome.stats.lockstep;
                if lockstep.tbats_passes > 0 {
                    write!(
                        stdout,
                        ", {:.2} TBATS lanes/pass",
                        lockstep.tbats_lanes_per_pass()
                    )?;
                }
                writeln!(stdout)?;
            }
            writeln!(stdout, "step,timestamp,forecast,lower,upper")?;
            let step_seconds = series.frequency().seconds();
            for h in 0..future.len() {
                writeln!(
                    stdout,
                    "{h},{},{:.6},{:.6},{:.6}",
                    series.next_timestamp() + h as u64 * step_seconds,
                    future.mean[h],
                    future.lower[h],
                    future.upper[h]
                )?;
            }
            Ok(())
        }
        Command::Fleet {
            inputs,
            method,
            granularity,
            threads,
            radius,
            repo_dir,
            wave,
            shards,
            checkpoint,
            cancel_checkpoint,
        } => {
            if cancel_checkpoint {
                let path = checkpoint
                    .as_deref()
                    .ok_or_else(|| err("--cancel-checkpoint needs --checkpoint FILE"))?;
                let existed = Checkpoint::cancel(std::path::Path::new(path));
                writeln!(
                    stdout,
                    "# checkpoint {path}: {}",
                    if existed { "cancelled" } else { "not found" }
                )?;
                return Ok(());
            }
            if checkpoint.is_some() && repo_dir.is_none() {
                return Err(err("--checkpoint needs --repo-dir DIR").into());
            }
            let mut jobs = Vec::with_capacity(inputs.len());
            for input in &inputs {
                let content = std::fs::read_to_string(input)?;
                let series = read_csv(&content)?;
                let key = std::path::Path::new(input)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| input.clone());
                let mut config = PipelineConfig::hourly(method);
                config.granularity = granularity;
                jobs.push(SeriesJob::new(key, series, config));
            }
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            let options = FleetOptions {
                threads,
                neighbourhood_radius: radius,
                now,
            };
            execute_fleet_waves(
                stdout,
                &jobs,
                options,
                repo_dir.as_deref(),
                wave,
                shards,
                checkpoint.as_deref(),
            )
        }
        Command::Advise {
            input,
            threshold,
            method,
        } => {
            let content = std::fs::read_to_string(&input)?;
            let series = read_csv(&content)?;
            let pipeline = Pipeline::new(PipelineConfig::hourly(method));
            let horizon = Granularity::Hourly.horizon();
            let (outcome, future) = pipeline.refit_and_forecast(&series, &[], &[], horizon)?;
            writeln!(stdout, "champion: {}", outcome.champion)?;
            let advisor = ThresholdAdvisor::new(threshold);
            match advisor.analyze(&future, series.next_timestamp(), series.frequency().seconds())
            {
                Some(adv) => writeln!(
                    stdout,
                    "ALERT: {:?} breach of {threshold} at step +{} (ts {}): mean {:.2}, upper {:.2}",
                    adv.severity, adv.step, adv.timestamp, adv.forecast_mean, adv.forecast_upper
                )?,
                None => writeln!(
                    stdout,
                    "no breach of {threshold} within the {horizon}-step horizon"
                )?,
            }
            Ok(())
        }
        Command::Serve {
            addr,
            threads,
            method,
            granularity,
            threshold,
        } => {
            let mut pipeline = PipelineConfig::hourly(method);
            pipeline.granularity = granularity;
            let mut config = EngineConfig::new(pipeline);
            config.horizon = granularity.horizon();
            if let Some(threshold) = threshold {
                config
                    .rules
                    .push(AlertRule::new(format!("breach-{threshold}"), threshold));
            }
            let handle = crate::serve::start(Engine::new(config), &addr, threads)?;
            writeln!(
                stdout,
                "dwcp serve listening on http://{} (POST /shutdown to stop)",
                handle.addr()
            )?;
            stdout.flush()?;
            handle.wait();
            writeln!(stdout, "dwcp serve stopped")?;
            Ok(())
        }
    }
}

/// The `# lockstep:` summary line of a fleet run: how many lockstep groups
/// ran, how many batched kernel rounds they took, how many chains the
/// average round advanced, and how many ETS lanes the average lane-inner
/// kernel chunk held.
fn write_lockstep_line(
    stdout: &mut impl std::io::Write,
    lockstep: &LockstepStats,
) -> std::io::Result<()> {
    writeln!(
        stdout,
        "# lockstep: {} groups, {} rounds, {:.2} lanes/round, {:.2} ETS lanes/chunk",
        lockstep.groups,
        lockstep.rounds,
        lockstep.lanes_per_round(),
        lockstep.ets_lanes_per_chunk()
    )
}

/// `dwcp fleet`: stream the jobs through the wave scheduler over a
/// sharded repository — on disk at `repo_dir`, or in memory without one —
/// printing per-job rows as each wave retires plus `# wave i/n:` progress
/// lines.
fn execute_fleet_waves(
    stdout: &mut impl std::io::Write,
    jobs: &[SeriesJob],
    options: FleetOptions,
    repo_dir: Option<&str>,
    wave: usize,
    shards: usize,
    checkpoint: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut repository = match repo_dir {
        Some(dir) => ShardedRepository::open_or_create(std::path::Path::new(dir), shards)?,
        None => ShardedRepository::in_memory(),
    };
    for warning in repository.take_warnings() {
        writeln!(stdout, "# warning: {warning}")?;
    }
    let mut scheduler = EstateScheduler::new(
        options,
        WaveOptions {
            wave_size: wave,
            checkpoint: checkpoint.map(std::path::PathBuf::from),
            max_waves: 0,
        },
        repository,
    );
    let source = SliceJobSource::new(jobs);
    writeln!(
        stdout,
        "workload,champion,rmse,mape,reused,fell_back,family"
    )?;
    // Kept champions, and fresh ones whose frozen re-score degraded.
    let (mut frozen, mut degraded) = (0usize, 0usize);
    let report = scheduler.run_with_progress(&source, &mut |progress, results| {
        for job in results {
            match (job.reused, job.relearn) {
                (true, None) => frozen += 1,
                (true, Some(RelearnReason::Degraded)) => degraded += 1,
                _ => {}
            }
            let _ = match &job.outcome {
                Ok(outcome) => writeln!(
                    stdout,
                    "{},{},{:.4},{:.2},{},{},{}",
                    job.key,
                    outcome.champion,
                    outcome.accuracy.rmse,
                    outcome.accuracy.mape,
                    job.reused,
                    job.fell_back,
                    outcome.family.map(|f| f.label()).unwrap_or("unknown")
                ),
                Err(e) => writeln!(stdout, "{},ERROR: {e},,,,,", job.key),
            };
        }
        let _ = writeln!(
            stdout,
            "# wave {}/{}: {}/{} jobs, {:.0} ms, {} series bytes resident",
            progress.wave,
            progress.total_waves,
            progress.jobs_done,
            progress.jobs_total,
            progress.wave_wall.as_secs_f64() * 1e3,
            progress.wave_bytes
        );
    })?;
    writeln!(
        stdout,
        "# scan: {} fitted, {} skipped (checkpoint), {} failed in {} wave(s), {:.2} jobs/s",
        report.completed,
        report.skipped,
        report.failed,
        report.waves,
        report.jobs_per_second()
    )?;
    write_lockstep_line(stdout, &report.stats.lockstep)?;
    writeln!(
        stdout,
        "# champion reuse: {} hits ({frozen} frozen re-scores, {degraded} degraded), \
         {} misses, {} fallbacks{}",
        report.stats.reuse_hits,
        report.stats.reuse_misses,
        report.stats.reuse_fallbacks,
        match report.stats.reuse_rate() {
            Some(rate) => format!(" (hit rate {:.0}%)", rate * 100.0),
            None => String::new(),
        }
    )?;
    if let Some(repo_dir) = repo_dir {
        // The scan's own traffic, read before counting the champions
        // replays every shard once more.
        let io = scheduler.repository.io_stats();
        let champions = scheduler.repository.count_records()?;
        writeln!(
            stdout,
            "# repository: {champions} champions in {} shard(s) at {repo_dir} \
             ({} shard loads, {} appends, {} compactions, {} evictions)",
            scheduler.repository.n_shards(),
            io.shard_loads,
            io.entries_appended,
            io.compactions,
            io.evictions
        )?;
    }
    for warning in scheduler.repository.take_warnings() {
        writeln!(stdout, "# warning: {warning}")?;
    }
    if let Some(path) = checkpoint {
        writeln!(
            stdout,
            "# checkpoint: {path} ({} job(s) recorded; rerun to resume, \
             --cancel-checkpoint to discard)",
            report.skipped + report.completed
        )?;
    }
    Ok(())
}

fn scenario_of(name: &str) -> Result<Scenario, CliError> {
    match name {
        "olap" => Ok(olap_scenario()),
        "oltp" => Ok(oltp_scenario()),
        other => Err(err(format!("unknown scenario `{other}` (olap|oltp)"))),
    }
}

fn metric_of(name: &str) -> Result<Metric, CliError> {
    match name {
        "cpu" => Ok(Metric::CpuPercent),
        "memory" | "mem" => Ok(Metric::MemoryMb),
        "iops" | "io" => Ok(Metric::LogicalIops),
        other => Err(err(format!("unknown metric `{other}` (cpu|memory|iops)"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_simulate_with_defaults() {
        let cmd = parse(&args("simulate")).unwrap();
        assert_eq!(
            cmd,
            Command::Simulate {
                scenario: "oltp".into(),
                instance: "cdbm011".into(),
                metric: "cpu".into(),
                seed: 42,
                out: "-".into(),
            }
        );
    }

    #[test]
    fn parse_forecast_flags() {
        let cmd = parse(&args(
            "forecast --input series.csv --method hes --granularity daily",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Forecast {
                input: "series.csv".into(),
                method: MethodChoice::Hes,
                granularity: Granularity::Daily,
                detect_shocks: false,
                grid: GridStrategy::Full,
            }
        );
    }

    #[test]
    fn parse_grid_strategy() {
        let cmd = parse(&args("forecast --input x.csv --grid auto-order")).unwrap();
        match cmd {
            Command::Forecast { grid, .. } => assert_eq!(grid, GridStrategy::AutoOrder),
            other => panic!("{other:?}"),
        }
        assert!(parse(&args("forecast --input x.csv --grid nope")).is_err());
    }

    #[test]
    fn parse_method_auto() {
        let cmd = parse(&args("forecast --input x.csv --method auto")).unwrap();
        match cmd {
            Command::Forecast { method, .. } => assert_eq!(method, MethodChoice::Auto),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_detect_shocks_is_a_bare_flag() {
        let cmd = parse(&args("forecast --input x.csv --detect-shocks")).unwrap();
        match cmd {
            Command::Forecast { detect_shocks, .. } => assert!(detect_shocks),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_fleet_splits_inputs_and_reads_flags() {
        let cmd = parse(&args(
            "fleet --inputs a.csv,b.csv,c.csv --threads 4 --radius 2 --wave 2",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Fleet {
                inputs: vec!["a.csv".into(), "b.csv".into(), "c.csv".into()],
                method: MethodChoice::Sarimax,
                granularity: Granularity::Hourly,
                threads: 4,
                radius: 2,
                repo_dir: None,
                wave: 2,
                shards: 16,
                checkpoint: None,
                cancel_checkpoint: false,
            }
        );
    }

    #[test]
    fn parse_fleet_defaults() {
        let cmd = parse(&args("fleet --inputs one.csv")).unwrap();
        match cmd {
            Command::Fleet {
                inputs,
                threads,
                radius,
                repo_dir,
                wave,
                shards,
                checkpoint,
                cancel_checkpoint,
                ..
            } => {
                assert_eq!(inputs, vec!["one.csv".to_string()]);
                assert_eq!(threads, 0);
                assert_eq!(radius, 1);
                assert_eq!(repo_dir, None);
                assert_eq!(wave, 0);
                assert_eq!(shards, 16);
                assert_eq!(checkpoint, None);
                assert!(!cancel_checkpoint);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_fleet_rejects_empty_inputs() {
        assert!(parse(&args("fleet")).is_err());
        assert!(parse(&args("fleet --inputs ,")).is_err());
    }

    #[test]
    fn parse_fleet_wave_flags() {
        let cmd = parse(&args(
            "fleet --inputs a.csv --repo-dir estate --wave 512 --shards 32 \
             --checkpoint scan.ckpt",
        ))
        .unwrap();
        match cmd {
            Command::Fleet {
                repo_dir,
                wave,
                shards,
                checkpoint,
                cancel_checkpoint,
                ..
            } => {
                assert_eq!(repo_dir, Some("estate".to_string()));
                assert_eq!(wave, 512);
                assert_eq!(shards, 32);
                assert_eq!(checkpoint, Some("scan.ckpt".to_string()));
                assert!(!cancel_checkpoint);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&args("fleet --inputs a.csv --wave twelve")).is_err());
    }

    #[test]
    fn parse_cancel_checkpoint_is_bare_and_needs_no_inputs() {
        let cmd = parse(&args("fleet --checkpoint scan.ckpt --cancel-checkpoint")).unwrap();
        match cmd {
            Command::Fleet {
                inputs,
                checkpoint,
                cancel_checkpoint,
                ..
            } => {
                assert!(inputs.is_empty());
                assert_eq!(checkpoint, Some("scan.ckpt".to_string()));
                assert!(cancel_checkpoint);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn execute_fleet_flag_combinations_are_validated() {
        // A checkpoint records keys whose champions are on disk, so it
        // needs a repository directory; the error names the missing flag
        // before any input is read.
        let fleet = Command::Fleet {
            inputs: vec!["/nonexistent/x.csv".into()],
            method: MethodChoice::Hes,
            granularity: Granularity::Hourly,
            threads: 1,
            radius: 1,
            repo_dir: None,
            wave: 8,
            shards: 4,
            checkpoint: Some("scan.ckpt".into()),
            cancel_checkpoint: false,
        };
        let mut out = Vec::new();
        let error = execute(fleet, &mut out).unwrap_err().to_string();
        assert!(error.contains("--repo-dir"), "{error}");
    }

    #[test]
    fn execute_cancel_checkpoint_reports_missing_and_deleted() {
        let dir = std::env::temp_dir().join(format!("dwcp-cli-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.ckpt");
        let cancel = Command::Fleet {
            inputs: Vec::new(),
            method: MethodChoice::Hes,
            granularity: Granularity::Hourly,
            threads: 1,
            radius: 1,
            repo_dir: None,
            wave: 0,
            shards: 16,
            checkpoint: Some(path.display().to_string()),
            cancel_checkpoint: true,
        };
        let mut out = Vec::new();
        execute(cancel.clone(), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("not found"));
        std::fs::write(&path, "{\"dwcp_checkpoint\":1,\"total\":1}\n").unwrap();
        let mut out = Vec::new();
        execute(cancel, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("cancelled"));
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        assert_eq!(
            parse(&args("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7878".into(),
                threads: 0,
                method: MethodChoice::Sarimax,
                granularity: Granularity::Hourly,
                threshold: None,
            }
        );
        let cmd = parse(&args(
            "serve --addr 127.0.0.1:0 --threads 8 --method hes --threshold 85.5",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                threads: 8,
                method: MethodChoice::Hes,
                granularity: Granularity::Hourly,
                threshold: Some(85.5),
            }
        );
        assert!(parse(&args("serve --threshold hot")).is_err());
        assert!(parse(&args("serve --threads none")).is_err());
    }

    #[test]
    fn usage_documents_serve_and_paged_reads() {
        assert!(USAGE.contains("dwcp serve"));
        assert!(USAGE.contains("cursor"));
        assert!(USAGE.contains("next_cursor"));
        assert!(USAGE.contains("/shutdown"));
    }

    /// The error `parse` returns for `line`.
    fn parse_error(line: &str) -> String {
        parse(&args(line)).unwrap_err().to_string()
    }

    #[test]
    fn parse_simulate_rejects_flags_it_does_not_take() {
        let error = parse_error("simulate --metric cpu --method hes");
        assert!(error.ends_with("does not take --method"), "{error}");
        assert!(parse_error("simulate --detect-shocks").ends_with("does not take --detect-shocks"));
    }

    #[test]
    fn parse_forecast_rejects_flags_it_does_not_take() {
        // The command line the forecast benchmark passes still parses.
        assert!(parse(&args("forecast --input x.csv --method auto")).is_ok());
        let error = parse_error("forecast --input x.csv --threads 4");
        assert!(error.ends_with("does not take --threads"), "{error}");
        let error = parse_error("forecast --input x.csv --cancel-checkpoint");
        assert!(
            error.ends_with("does not take --cancel-checkpoint"),
            "{error}"
        );
    }

    #[test]
    fn parse_fleet_rejects_flags_it_does_not_take() {
        // A misspelt --threads must not silently run on every core, and a
        // --repo FILE must not silently persist nothing.
        let error = parse_error("fleet --inputs a.csv --thread 4");
        assert!(error.ends_with("does not take --thread"), "{error}");
        let error = parse_error("fleet --inputs a.csv --repo models.json");
        assert!(error.ends_with("does not take --repo"), "{error}");
        let error = parse_error("fleet --inputs a.csv --detect-shocks");
        assert!(error.ends_with("does not take --detect-shocks"), "{error}");
    }

    #[test]
    fn parse_advise_rejects_flags_it_does_not_take() {
        let error = parse_error("advise --input x.csv --threshold 70 --granularity daily");
        assert!(error.ends_with("does not take --granularity"), "{error}");
    }

    #[test]
    fn parse_serve_rejects_flags_it_does_not_take() {
        // The command line the serve benchmark passes still parses.
        assert!(parse(&args(
            "serve --addr 127.0.0.1:0 --threads 2 --method hes --threshold 85"
        ))
        .is_ok());
        let error = parse_error("serve --repo-dir estate");
        assert!(error.ends_with("does not take --repo-dir"), "{error}");
        let error = parse_error("serve --cancel-checkpoint");
        assert!(
            error.ends_with("does not take --cancel-checkpoint"),
            "{error}"
        );
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("advise --input x.csv")).is_err()); // missing threshold
        assert!(parse(&args("forecast --input x.csv --method prophet")).is_err());
        assert!(parse(&args("simulate --seed twelve")).is_err());
        assert!(parse(&args("simulate notaflag")).is_err());
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
    }

    #[test]
    fn csv_roundtrip() {
        let series = TimeSeries::new(vec![1.5, f64::NAN, 3.25], Frequency::Hourly, 7200);
        let csv = write_csv(&series);
        let back = read_csv(&csv).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.origin(), 7200);
        assert_eq!(back.frequency(), Frequency::Hourly);
        assert_eq!(back.values()[0], 1.5);
        assert!(back.values()[1].is_nan());
        assert_eq!(back.values()[2], 3.25);
    }

    #[test]
    fn csv_single_column_and_comments() {
        let series = read_csv("# cpu trace\n10.5\n11\n\n12.5\n").unwrap();
        assert_eq!(series.values(), &[10.5, 11.0, 12.5]);
    }

    #[test]
    fn csv_header_row_is_skipped() {
        let series = read_csv("timestamp,value\n0,1.0\n3600,2.0\n").unwrap();
        assert_eq!(series.len(), 2);
    }

    #[test]
    fn csv_daily_cadence_detected() {
        let series = read_csv("0,5\n86400,6\n172800,7\n").unwrap();
        assert_eq!(series.frequency(), Frequency::Daily);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(read_csv("").is_err());
        assert!(read_csv("1.0\nnot_a_number\n").is_err());
        assert!(read_csv("1,2,3\n").is_err());
    }

    use proptest::prelude::*;

    /// One line of a generated metric CSV and what it must read as.
    #[derive(Debug, Clone)]
    enum CsvLine {
        /// A one- or two-field line and the value it carries (a NaN value
        /// stands for any NaN).
        Value(String, f64),
        /// A comment or blank line, skipped anywhere.
        Skipped(String),
        /// A line whose value is no number: a header as the first line, an
        /// error anywhere else.
        BadValue(String),
        /// More than two fields: an error anywhere.
        Bad(String),
    }

    fn csv_line() -> impl Strategy<Value = CsvLine> {
        let words = vec![
            "value",
            "cpu",
            "12abc",
            "1.2.3",
            "--1",
            "0x10",
            "1e",
            "inf inity",
        ];
        let non_finite = vec![
            ("", f64::NAN),
            ("nan", f64::NAN),
            ("NAN", f64::NAN),
            ("inf", f64::INFINITY),
            ("-inf", f64::NEG_INFINITY),
            ("infinity", f64::INFINITY),
            ("-infinity", f64::NEG_INFINITY),
        ];
        (
            -1e9f64..1e9,
            0usize..5,
            prop::sample::select(non_finite),
            0usize..12,
            prop::sample::select(words),
            0u64..1_000_000,
        )
            .prop_map(|(v, form, (text, special), kind, word, ts)| {
                let (value, number) = match form {
                    0 => (format!("{v}"), v),
                    1 => (format!("{v:e}"), v),
                    2 => (format!(" {v:?} "), v),
                    3 => {
                        let n = v.abs().trunc();
                        (format!("{}{n}", "0".repeat(ts as usize % 3000)), n)
                    }
                    _ => (text.to_string(), special),
                };
                match kind {
                    0 => CsvLine::Skipped(String::new()),
                    1 => CsvLine::Skipped(format!("# {word},{value}")),
                    2 => CsvLine::BadValue(word.to_string()),
                    3 => CsvLine::BadValue(format!("{ts},{word}")),
                    4 => CsvLine::Bad(format!("{ts},{value},{value}")),
                    5 => CsvLine::Bad(",".repeat(2 + ts as usize % 5000)),
                    // A timestamp that is no epoch second is only dropped.
                    6 => CsvLine::Value(format!("{word},{value}"), number),
                    7 | 8 => CsvLine::Value(value, number),
                    _ => CsvLine::Value(format!("{ts},{value}"), number),
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn csv_reads_exactly_the_numbers_written_or_a_typed_error(
            lines in prop::collection::vec(csv_line(), 0..40),
            crlf in prop::bool::ANY,
        ) {
            let mut want = Some(Vec::new());
            for (i, line) in lines.iter().enumerate() {
                match (line, want.as_mut()) {
                    (CsvLine::Value(_, v), Some(values)) => values.push(*v),
                    (CsvLine::Skipped(_), _) | (CsvLine::BadValue(_), _) if i == 0 => {}
                    (CsvLine::Skipped(_), _) => {}
                    (CsvLine::BadValue(_) | CsvLine::Bad(_), _) => want = None,
                    (_, None) => {}
                }
            }
            let want = want.filter(|values| !values.is_empty());
            let text: Vec<&str> = lines
                .iter()
                .map(|line| match line {
                    CsvLine::Value(text, _)
                    | CsvLine::Skipped(text)
                    | CsvLine::BadValue(text)
                    | CsvLine::Bad(text) => text.as_str(),
                })
                .collect();
            let content = text.join(if crlf { "\r\n" } else { "\n" });
            match (read_csv(&content), want) {
                (Ok(series), Some(want)) => {
                    prop_assert_eq!(series.len(), want.len());
                    for (got, want) in series.values().iter().zip(&want) {
                        let same = got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan());
                        prop_assert!(same, "{} vs {}", got, want);
                    }
                }
                (Err(CliError(message)), None) => prop_assert!(!message.is_empty()),
                (got, want) => prop_assert!(false, "{:?} vs {:?} for {:?}", got, want, content),
            }
        }

        #[test]
        fn csv_random_bytes_never_panic(
            raw in prop::collection::vec(0u8..=255, 0..600),
        ) {
            match read_csv(&String::from_utf8_lossy(&raw)) {
                Ok(series) => prop_assert!(!series.is_empty()),
                Err(CliError(message)) => prop_assert!(!message.is_empty()),
            }
        }
    }

    #[test]
    fn execute_help_prints_usage() {
        let mut out = Vec::new();
        execute(Command::Help, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("USAGE"));
    }

    #[test]
    fn execute_simulate_to_stdout() {
        let mut out = Vec::new();
        execute(
            Command::Simulate {
                scenario: "olap".into(),
                instance: "cdbm012".into(),
                metric: "cpu".into(),
                seed: 1,
                out: "-".into(),
            },
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("timestamp,value\n"));
        assert!(text.lines().count() > 1000);
    }
}
