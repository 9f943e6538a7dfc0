//! Streaming replay of the model-repository life-cycle: the one-week
//! staleness rule, the RMSE-degradation trigger and the shock policy, as a
//! sliding-window simulation rather than isolated unit checks.

use dwcp::planner::{ModelRecord, RetentionPolicy, ShardedRepository, ShockTracker};
use dwcp::series::Granularity;

const DAY: u64 = 86_400;

fn record(workload: &str, rmse: f64, fitted_at: u64) -> ModelRecord {
    ModelRecord {
        workload: workload.to_string(),
        champion: "SARIMAX FFT Exogenous (4,1,2)(1,1,1,24)".to_string(),
        granularity: Granularity::Hourly,
        baseline_rmse: rmse,
        fitted_at,
        champion_config: None,
        warm_params: Vec::new(),
        warm_beta: Vec::new(),
    }
}

#[test]
fn weekly_replay_relearns_exactly_on_schedule() {
    let mut repo = ShardedRepository::in_memory();
    let key = "cdbm011/CPU";
    let mut relearn_days: Vec<u64> = Vec::new();

    // 30-day replay with stable accuracy: the only relearn trigger is age.
    for day in 0..30u64 {
        let now = day * DAY;
        if repo.needs_relearn(key, now, Some(10.0)).unwrap().is_some() {
            relearn_days.push(day);
            repo.store(record(key, 10.0, now)).unwrap();
        }
    }
    // Day 0 (missing), then every 8th day after (age crosses 7 days).
    assert_eq!(relearn_days, vec![0, 8, 16, 24]);
}

#[test]
fn degradation_preempts_the_weekly_schedule() {
    let mut repo = ShardedRepository::in_memory();
    let key = "cdbm011/IOPS";
    repo.store(record(key, 100.0, 0)).unwrap();

    // Day 2: live RMSE spikes to 5× baseline — relearn immediately.
    let verdict = repo.needs_relearn(key, 2 * DAY, Some(500.0)).unwrap();
    assert!(verdict.is_some());
    repo.store(record(key, 480.0, 2 * DAY)).unwrap();

    // The refreshed baseline absorbs the new level: no further trigger.
    let verdict = repo.needs_relearn(key, 3 * DAY, Some(500.0)).unwrap();
    assert!(verdict.is_none());
}

#[test]
fn custom_policy_changes_both_rules() {
    let mut repo = ShardedRepository::in_memory();
    repo.policy = RetentionPolicy {
        max_age_seconds: 2 * DAY,
        rmse_degradation_factor: 1.2,
    };
    let key = "w";
    repo.store(record(key, 10.0, 0)).unwrap();
    let mut verdict = |now, rmse| repo.needs_relearn(key, now, Some(rmse)).unwrap();
    assert!(verdict(DAY, 11.0).is_none());
    assert!(verdict(DAY, 13.0).is_some()); // > 12
    assert!(verdict(2 * DAY + 1, 10.0).is_some()); // age
}

#[test]
fn repository_round_trips_through_disk() {
    let dir = std::env::temp_dir().join(format!("dwcp_staleness_roundtrip_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut repo = ShardedRepository::create(&dir, 4).unwrap();
    for i in 0..10 {
        repo.store(record(
            &format!("cdbm01{}/CPU", i % 2 + 1),
            i as f64,
            i * DAY,
        ))
        .unwrap();
    }
    repo.flush().unwrap();
    let mut loaded = ShardedRepository::open(&dir).unwrap();
    assert_eq!(loaded.count_records().unwrap(), 2); // keyed by workload: last write wins
    let latest = loaded.get("cdbm011/CPU").unwrap().unwrap();
    assert_eq!((latest.baseline_rmse, latest.fitted_at), (8.0, 8 * DAY));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_storm_becomes_behaviour_single_crash_does_not() {
    // §9: "if a system crashes we discard it, however if the system
    // continually crashes the learning engine will see it as a behaviour."
    let mut tracker = ShockTracker::new();

    // One crash in week 1: stays an anomaly.
    tracker.record("crash");
    assert!(!tracker.is_behaviour("crash"));

    // Operator confirms the system was in fault and overrides manually.
    tracker.discard("crash");
    assert_eq!(tracker.count("crash"), 0);

    // A crash-loop: 6 occurrences — now it is a behaviour the forecast
    // must model.
    for _ in 0..6 {
        tracker.record("crash");
    }
    assert!(tracker.is_behaviour("crash"));
}

#[test]
fn per_workload_isolation() {
    let mut repo = ShardedRepository::in_memory();
    repo.store(record("cdbm011/CPU", 10.0, 0)).unwrap();
    let mut verdict = |key| repo.needs_relearn(key, 0, Some(10.0)).unwrap();
    // A different workload key is independent — still missing.
    assert!(verdict("cdbm012/CPU").is_some());
    assert!(verdict("cdbm011/CPU").is_none());
}

// ---------------------------------------------------------------------------
// Champion reuse across nights (fleet batch × repository life-cycle).
// ---------------------------------------------------------------------------

use dwcp::planner::{
    run_batch_on, FleetOptions, MethodChoice, PipelineConfig, RelearnReason, SeriesJob,
};
use dwcp::series::{Frequency, TimeSeries};

fn fleet_series() -> TimeSeries {
    let values: Vec<f64> = (0..1100u64)
        .map(|t| {
            let tf = t as f64;
            90.0 + 0.03 * tf
                + 22.0 * (2.0 * std::f64::consts::PI * tf / 24.0).sin()
                + ((t.wrapping_mul(2_654_435_761) % 83) as f64) / 18.0
        })
        .collect();
    TimeSeries::new(values, Frequency::Hourly, 0)
}

fn fleet_job(key: &str) -> SeriesJob {
    let mut config = PipelineConfig::hourly(MethodChoice::Sarimax);
    config.max_candidates = 3;
    config.fourier_stage = false;
    config.eval.fit.max_evals = 120;
    config.eval.fit.restarts = 0;
    SeriesJob::new(key, fleet_series(), config)
}

#[test]
fn fresh_stored_champion_is_kept_by_one_frozen_rescore() {
    let jobs = vec![fleet_job("cdbm011/CPU/hourly")];
    let options = FleetOptions {
        threads: 2,
        ..Default::default()
    };
    let mut repo = ShardedRepository::in_memory();
    let cold = run_batch_on(&options, &mut repo, &jobs); // cold learn populates the repository
    let stored = repo.get("cdbm011/CPU/hourly").unwrap().unwrap().clone();
    assert!(stored.champion_seed().is_some());

    // A day later on unchanged data: the stored champion is re-scored
    // frozen — one objective evaluation reproducing the cold RMSE bit for
    // bit — and kept, without a search or a new record.
    let next_day = FleetOptions {
        now: options.now + DAY,
        ..options
    };
    let relearn = run_batch_on(&next_day, &mut repo, &jobs);
    assert_eq!(relearn.stats.reuse_hits, 1);
    assert_eq!(relearn.stats.reuse_fallbacks, 0);
    assert_eq!(relearn.stats.objective_evals, 1);
    let (c, r) = (&cold.jobs[0], &relearn.jobs[0]);
    assert!(r.reused && !r.fell_back);
    assert_eq!(r.relearn, None, "a fresh, accurate champion is kept");
    let (c, r) = (c.outcome.as_ref().unwrap(), r.outcome.as_ref().unwrap());
    assert_eq!(r.champion, c.champion);
    assert_eq!(r.accuracy.rmse.to_bits(), c.accuracy.rmse.to_bits());
    assert_eq!(r.evaluated, 1);
    assert_eq!(repo.get("cdbm011/CPU/hourly").unwrap().unwrap(), &stored);
}

#[test]
fn degraded_stored_champion_triggers_full_grid_fallback() {
    let jobs = vec![fleet_job("cdbm011/IOPS/hourly")];
    let options = FleetOptions {
        threads: 2,
        ..Default::default()
    };
    let mut repo = ShardedRepository::in_memory();
    let cold = run_batch_on(&options, &mut repo, &jobs);

    // Sabotage the stored baseline: any re-score or relearn RMSE now
    // exceeds baseline × rmse_degradation_factor, i.e. the champion is
    // "rendered useless" in the paper's terms.
    let mut record = repo.get("cdbm011/IOPS/hourly").unwrap().unwrap().clone();
    record.baseline_rmse /= 1e6;
    repo.store(record).unwrap();

    // Frozen re-score degraded → seeded neighbourhood degraded too → the
    // full grid, which is the cold search again.
    let relearn = run_batch_on(&options, &mut repo, &jobs);
    assert_eq!(relearn.stats.reuse_hits, 1);
    assert_eq!(relearn.stats.reuse_fallbacks, 1);
    assert!(relearn.jobs[0].reused);
    assert_eq!(relearn.jobs[0].relearn, Some(RelearnReason::Degraded));
    assert!(
        relearn.jobs[0].fell_back,
        "a degraded champion must fall back to the full grid"
    );
    let (c, r) = (
        cold.jobs[0].outcome.as_ref().unwrap(),
        relearn.jobs[0].outcome.as_ref().unwrap(),
    );
    assert_eq!(r.champion, c.champion);
    assert_eq!(r.accuracy.rmse.to_bits(), c.accuracy.rmse.to_bits());
    // The fallback refreshed the baseline, so the next batch keeps the
    // champion after one frozen re-score.
    let after = run_batch_on(&options, &mut repo, &jobs);
    assert_eq!(after.stats.reuse_fallbacks, 0);
    assert_eq!(after.stats.objective_evals, 1);
    assert!(after.jobs[0].reused && !after.jobs[0].fell_back);
    assert_eq!(after.jobs[0].relearn, None);
}

#[test]
fn a_stored_tbats_champion_outside_the_kernel_envelope_is_searched_not_failed() {
    use dwcp::models::tbats::TbatsConfig;
    use dwcp::planner::ModelConfig;
    let key = "cdbm011/CPU/hourly";
    let mut config = PipelineConfig::hourly(MethodChoice::Tbats);
    config.fourier_stage = false;
    let jobs = vec![SeriesJob::new(key, fleet_series(), config)];
    let options = FleetOptions {
        threads: 2,
        ..Default::default()
    };
    // ARMA(2,0): no grid builds it, and the TBATS kernel cannot filter it,
    // so its frozen re-score fails and the job searches the neighbourhood.
    let champion = TbatsConfig {
        arma: (2, 0),
        ..TbatsConfig::seasonal(24.0, 2)
    };
    let mut repo = ShardedRepository::in_memory();
    repo.store(ModelRecord {
        workload: key.to_string(),
        champion: champion.describe(),
        granularity: Granularity::Hourly,
        baseline_rmse: 1e12,
        fitted_at: options.now,
        warm_params: vec![0.0; champion.n_params()],
        champion_config: Some(ModelConfig::Tbats(champion)),
        warm_beta: Vec::new(),
    })
    .unwrap();
    let report = run_batch_on(&options, &mut repo, &jobs);
    let job = &report.jobs[0];
    assert!(job.reused && !job.fell_back);
    assert_eq!(job.relearn, Some(RelearnReason::Degraded));
    let outcome = job
        .outcome
        .as_ref()
        .expect("a searched champion, not a failed job");
    assert!(outcome.accuracy.rmse.is_finite());
    let stored = repo.get(key).unwrap().unwrap();
    assert_eq!(stored.champion, outcome.champion);
    match &stored.champion_config {
        Some(ModelConfig::Tbats(c)) => assert!(c.arma.0 <= 1 && c.arma.1 <= 1, "{c:?}"),
        other => panic!("stored champion is not TBATS: {other:?}"),
    }
}
