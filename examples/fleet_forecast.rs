//! The deployment shape of §5/§8: an agent polls every instance × metric
//! of a clustered database, and the estate scheduler streams all of the
//! per-series Figure-4 pipelines through bounded-memory waves over a
//! sharded on-disk model repository. The second scan replays six days
//! later, inside the paper's one-week window: each stored champion is
//! re-scored frozen and kept unless its RMSE degraded, and each wave
//! touches only the shards its keys hash to.
//!
//! ```sh
//! cargo run --release --example fleet_forecast
//! ```

use dwcp::planner::{
    EstateScheduler, EvaluationOptions, FleetOptions, MethodChoice, PipelineConfig, SeriesJob,
    ShardedRepository, SliceJobSource, WaveOptions,
};
use dwcp::workload::{oltp_scenario, Metric};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = oltp_scenario();
    let exog = scenario.exogenous_columns(scenario.start, scenario.hours());

    // One job per instance × metric: the whole OLTP cluster in one scan.
    let mut config = PipelineConfig::hourly(MethodChoice::Sarimax);
    config.max_candidates = 8;
    config.eval = EvaluationOptions::default();
    let mut jobs = Vec::new();
    for instance in scenario.instance_names() {
        for metric in Metric::ALL {
            let series = scenario.hourly(7, &instance, metric)?;
            jobs.push(
                SeriesJob::new(
                    format!("{instance}/{}", metric.label()),
                    series,
                    config.clone(),
                )
                .with_exog(exog.clone()),
            );
        }
    }

    // The champion store: a sharded, append-only repository on disk. A
    // real estate would point this at a persistent path and let nightly
    // scans accumulate champions; the example uses a scratch directory.
    let repo_dir = std::env::temp_dir().join(format!("dwcp-fleet-example-{}", std::process::id()));
    let repository = ShardedRepository::open_or_create(&repo_dir, 8)?;
    let monday = 1_700_000_000u64; // any fixed clock; staleness is relative

    // Monday: cold scan — every champion learned from its full grid,
    // streamed through waves of three jobs (the batch is small; an estate
    // would use thousands per wave and identical code).
    let mut scheduler = EstateScheduler::new(
        FleetOptions {
            threads: 0, // one worker per core, shared across all jobs
            now: monday,
            ..Default::default()
        },
        WaveOptions {
            wave_size: 3,
            ..Default::default()
        },
        repository,
    );
    let source = SliceJobSource::new(&jobs);
    println!("cold scan ({} jobs, waves of 3):", jobs.len());
    let report = scheduler.run_with_progress(&source, &mut |progress, results| {
        for job in results {
            match &job.outcome {
                Ok(o) => println!(
                    "  {:<28} {:<44} RMSE {:>8.2}",
                    job.key, o.champion, o.accuracy.rmse
                ),
                Err(e) => println!("  {:<28} failed: {e}", job.key),
            }
        }
        println!(
            "  # wave {}/{}: {:.1}s, {} series bytes resident",
            progress.wave,
            progress.total_waves,
            progress.wave_wall.as_secs_f64(),
            progress.wave_bytes
        );
    })?;
    let io = scheduler.repository.io_stats();
    println!(
        "cold scan: {} fitted in {} waves, {:.1}s ({:.2} jobs/s), peak wave {} bytes\n\
         repository: {} champions across {} shards ({} loads, {} appends, {} evictions)\n",
        report.completed,
        report.waves,
        report.stats.wall_time.as_secs_f64(),
        report.jobs_per_second(),
        report.peak_wave_bytes,
        scheduler.repository.count_records()?,
        scheduler.repository.n_shards(),
        io.shard_loads,
        io.entries_appended,
        io.evictions
    );

    // Six days on, every champion is still fresh: each is re-scored
    // frozen at its stored parameters and kept, unless its RMSE more than
    // doubled — then it searches its neighbourhood, warm-started from the
    // stored parameters, and the full grid if that degrades too.
    scheduler.fleet.now = monday + 6 * 86_400;
    let relearn = scheduler.run_with_progress(&source, &mut |_, results| {
        for job in results {
            if let Ok(o) = &job.outcome {
                println!(
                    "  {:<28} {:<44} RMSE {:>8.2}  {}",
                    job.key,
                    o.champion,
                    o.accuracy.rmse,
                    match (job.relearn, job.fell_back) {
                        (None, _) => "kept (frozen re-score)",
                        (Some(_), true) => "degraded: full-grid fallback",
                        (Some(_), false) if job.reused => "degraded: neighbourhood search",
                        (Some(_), false) => "full grid",
                    }
                );
            }
        }
    })?;
    let io = scheduler.repository.io_stats();
    println!(
        "\nrelearn scan: {:.1}s, {} objective evals, champion reuse {}/{} (fallbacks: {})\n\
         repository after both scans: {} shard loads, {} appends, {} compactions, {} evictions",
        relearn.stats.wall_time.as_secs_f64(),
        relearn.stats.objective_evals,
        relearn.stats.reuse_hits,
        relearn.completed,
        relearn.stats.reuse_fallbacks,
        io.shard_loads,
        io.entries_appended,
        io.compactions,
        io.evictions
    );
    let _ = std::fs::remove_dir_all(&repo_dir);
    Ok(())
}
