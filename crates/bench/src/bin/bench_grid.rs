//! Grid-search acceleration snapshot: the full 180-model ARIMA grid,
//! baseline (per-candidate differencing, cold starts) versus the
//! acceleration layer (shared transform cache + warm-start chains), at
//! 1/2/4/8 worker threads. A second section runs the
//! `--method auto` union grid (SARIMAX + ETS + TBATS menus, deduped)
//! through the same baseline/accelerated ladder with per-family time
//! attribution and the batched ETS/TBATS kernel phase buckets.
//!
//! Writes `results/BENCH_grid.json` so future PRs can track the
//! fit-throughput trajectory, and exits non-zero if the accelerated
//! champion ever differs from the baseline champion — the acceleration
//! layer must not change model selection.
//!
//! ```sh
//! cargo run -p dwcp-bench --release --bin bench_grid
//! DWCP_QUICK=1 cargo run -p dwcp-bench --release --bin bench_grid   # 1 rep
//! ```

use dwcp_bench::results_dir;
use dwcp_core::{
    dedupe_candidates, evaluate_auto_order, evaluate_candidates, AutoOrderOptions,
    EvaluationOptions, EvaluationReport, ModelFamily, ModelGrid,
};
use dwcp_models::arima::ArimaOptions;
use serde::Serialize;
use std::time::Instant;

/// One (mode, threads) measurement.
#[derive(Debug, Clone, Serialize)]
struct GridRun {
    mode: String,
    threads: usize,
    /// Best-of-reps wall-clock, milliseconds.
    wall_ms: f64,
    champion: String,
    champion_rmse: f64,
    scored: usize,
    failures: usize,
    cache_entries: usize,
    cache_hits: usize,
    warm_starts: usize,
    objective_evals: usize,
    /// Lockstep groups run (one per worker the grid could use), then
    /// per-phase lockstep timing (ms): cursor advance, point staging,
    /// batched CSS kernel, optimiser tell. All zero for baseline runs.
    lockstep_groups: usize,
    lockstep_rounds: usize,
    lockstep_batched_evals: usize,
    lockstep_advance_ms: f64,
    lockstep_stage_ms: f64,
    lockstep_batch_css_ms: f64,
    lockstep_tell_ms: f64,
}

/// The `--grid auto-order` measurement: the ACF/PACF-seeded grid against
/// the same 180-model sweep, with the naive-benchmark fallback armed.
#[derive(Debug, Clone, Serialize)]
struct AutoOrderRun {
    wall_ms: f64,
    champion: String,
    champion_rmse: f64,
    /// Seeded candidates attempted (including a fallback sweep, if any).
    attempted: usize,
    /// attempted / 180.
    candidate_fraction: f64,
    objective_evals: usize,
    /// objective evals / the accelerated full sweep's at the same threads.
    eval_fraction: f64,
    fell_back: bool,
    d: usize,
    q_max: usize,
    p_set: Vec<usize>,
}

/// One family's share of an auto-mode (mixed-family union grid) run.
#[derive(Debug, Clone, Serialize)]
struct FamilyBreakdown {
    family: String,
    attempts: usize,
    fits: usize,
    failures: usize,
    /// Worker-summed wall-clock spent fitting and scoring this family, ms.
    fit_time_ms: f64,
    objective_evals: usize,
}

/// One (mode, threads) measurement of the `--method auto` union grid:
/// SARIMAX + ETS + TBATS menus evaluated together, with the per-family
/// time attribution and the batched-kernel phase buckets.
#[derive(Debug, Clone, Serialize)]
struct AutoModeRun {
    mode: String,
    threads: usize,
    wall_ms: f64,
    champion: String,
    champion_rmse: f64,
    scored: usize,
    failures: usize,
    objective_evals: usize,
    families: Vec<FamilyBreakdown>,
    lockstep_groups: usize,
    lockstep_batched_evals: usize,
    lockstep_batch_css_ms: f64,
    lockstep_batch_ets_ms: f64,
    lockstep_batch_tbats_ms: f64,
}

#[derive(Debug, Clone, Serialize)]
struct GridSnapshot {
    grid: String,
    /// `std::thread::available_parallelism` on the measuring host: the
    /// 1/2/4/8-thread series can only scale up to this many workers.
    available_parallelism: usize,
    candidates: usize,
    train_len: usize,
    test_len: usize,
    max_evals: usize,
    reps: usize,
    runs: Vec<GridRun>,
    /// baseline / accelerated wall-clock ratio at 4 threads.
    speedup_4_threads: f64,
    auto_order: AutoOrderRun,
    /// Mixed-family union-grid runs (the `--method auto` shape).
    auto_mode: Vec<AutoModeRun>,
    /// Auto-mode baseline / accelerated wall-clock ratio at 4 threads.
    auto_speedup_4_threads: f64,
}

fn series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| {
            let tf = t as f64;
            60.0 + 0.03 * tf
                + 12.0 * (2.0 * std::f64::consts::PI * tf / 24.0).sin()
                + ((t * 2654435761 % 89) as f64) / 25.0
        })
        .collect()
}

fn opts(threads: usize, accelerated: bool) -> EvaluationOptions {
    EvaluationOptions {
        threads,
        fit: ArimaOptions {
            max_evals: 0, // default: convergence-driven budget (250 + 120k)
            restarts: 0,
            interval_level: 0.95,
            ..Default::default()
        },
        start_index: 0,
        cache_transforms: accelerated,
        warm_start: accelerated,
    }
}

fn champion_label(report: &EvaluationReport) -> (String, f64) {
    match report.champion() {
        Some(c) => (c.candidate.config.describe(), c.accuracy.rmse),
        None => ("<none>".to_string(), f64::NAN),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let reps = if std::env::var("DWCP_QUICK").is_ok() {
        1
    } else {
        3
    };
    let y = series(504);
    let (train, test) = y.split_at(480);
    let grid = ModelGrid::arima();
    let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "bench_grid: {} ARIMA candidates, train {} / test {}, {} rep(s), \
         available parallelism {available_parallelism}",
        grid.len(),
        train.len(),
        test.len(),
        reps
    );

    let mut runs = Vec::new();
    let mut wall_4t = [f64::NAN; 2]; // [baseline, accelerated]
    let mut champions_4t = [String::new(), String::new()];
    for (mode_idx, (mode, accelerated)) in [("baseline", false), ("accelerated", true)]
        .into_iter()
        .enumerate()
    {
        for threads in [1usize, 2, 4, 8] {
            let o = opts(threads, accelerated);
            let mut best_ms = f64::INFINITY;
            let mut last = None;
            for _ in 0..reps {
                let t0 = Instant::now();
                let report = evaluate_candidates(train, test, &[], &[], &grid.candidates, &o)?;
                best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                last = Some(report);
            }
            let report = last.expect("at least one rep");
            let (champion, champion_rmse) = champion_label(&report);
            println!(
                "  {mode:<12} {threads}t  {best_ms:>8.1} ms   champion {champion}  \
                 (cache hits {}, warm starts {}, {} objective evals)",
                report.stats.cache_hits, report.stats.warm_starts, report.stats.objective_evals
            );
            let ls = &report.stats.lockstep;
            if ls.rounds > 0 {
                println!(
                    "               lockstep: {} groups, {} rounds / {} evals, advance {:.0} ms, \
                     stage {:.0} ms, batch-css {:.0} ms, tell {:.0} ms",
                    ls.groups,
                    ls.rounds,
                    ls.batched_evals,
                    ls.advance.as_secs_f64() * 1e3,
                    ls.stage.as_secs_f64() * 1e3,
                    ls.batch_css.as_secs_f64() * 1e3,
                    ls.tell.as_secs_f64() * 1e3,
                );
            }
            if threads == 4 {
                wall_4t[mode_idx] = best_ms;
                champions_4t[mode_idx] = champion.clone();
            }
            runs.push(GridRun {
                mode: mode.to_string(),
                threads,
                wall_ms: best_ms,
                champion,
                champion_rmse,
                scored: report.scores.len(),
                failures: report.failures,
                cache_entries: report.stats.cache_entries,
                cache_hits: report.stats.cache_hits,
                warm_starts: report.stats.warm_starts,
                objective_evals: report.stats.objective_evals,
                lockstep_groups: ls.groups,
                lockstep_rounds: ls.rounds,
                lockstep_batched_evals: ls.batched_evals,
                lockstep_advance_ms: ls.advance.as_secs_f64() * 1e3,
                lockstep_stage_ms: ls.stage.as_secs_f64() * 1e3,
                lockstep_batch_css_ms: ls.batch_css.as_secs_f64() * 1e3,
                lockstep_tell_ms: ls.tell.as_secs_f64() * 1e3,
            });
        }
    }

    let speedup = wall_4t[0] / wall_4t[1];
    println!(
        "\nspeedup at 4 threads: {speedup:.2}x (baseline {:.1} ms → accelerated {:.1} ms)",
        wall_4t[0], wall_4t[1]
    );

    // Third mode: the ACF/PACF-seeded auto-order grid against the same
    // sweep, accelerated, 4 threads. Acceptance: same-or-better held-out
    // RMSE than the full sweep at a fraction of the objective evaluations
    // (or an explicit fallback that still ends same-or-better).
    let full_evals = runs
        .iter()
        .find(|r| r.mode == "accelerated" && r.threads == 4)
        .map(|r| r.objective_evals)
        .unwrap_or(0);
    let full_rmse = runs
        .iter()
        .find(|r| r.mode == "accelerated" && r.threads == 4)
        .map(|r| r.champion_rmse)
        .unwrap_or(f64::NAN);
    let o = opts(4, true);
    let auto_opts = AutoOrderOptions::default();
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let auto = evaluate_auto_order(train, test, &[], &[], &grid.candidates, &o, &auto_opts)?;
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(auto);
    }
    let auto = last.expect("at least one rep");
    let (auto_champion, auto_rmse) = champion_label(&auto.report);
    let auto_run = AutoOrderRun {
        wall_ms: best_ms,
        champion: auto_champion.clone(),
        champion_rmse: auto_rmse,
        attempted: auto.report.attempted,
        candidate_fraction: auto.report.attempted as f64 / grid.len() as f64,
        objective_evals: auto.report.stats.objective_evals,
        eval_fraction: auto.report.stats.objective_evals as f64 / full_evals.max(1) as f64,
        fell_back: auto.fell_back,
        d: auto.plan.d,
        q_max: auto.plan.q_max,
        p_set: auto.plan.p_set.clone(),
    };
    println!(
        "  auto-order   4t  {best_ms:>8.1} ms   champion {auto_champion}  \
         ({} of {} candidates = {:.0}%, {} objective evals = {:.0}%, fell_back {})",
        auto_run.attempted,
        grid.len(),
        100.0 * auto_run.candidate_fraction,
        auto_run.objective_evals,
        100.0 * auto_run.eval_fraction,
        auto_run.fell_back,
    );
    println!(
        "               diagnostics: d={} q_max={} p_set={:?}  rmse {auto_rmse:.4} vs full {full_rmse:.4}",
        auto_run.d, auto_run.q_max, auto_run.p_set
    );

    // Fourth mode: the `--method auto` union grid — the full SARIMAX sweep
    // plus the ETS and TBATS menus, deduped, evaluated together so the
    // batched ETS/TBATS kernels and the per-family time attribution are
    // exercised. Baseline (no caches, no batching) versus accelerated at
    // 1/2/4/8 threads; every run must elect the same champion.
    let mut auto_candidates = grid.candidates.clone();
    auto_candidates.extend(ModelGrid::ets(24, true, 0.95).candidates);
    auto_candidates.extend(ModelGrid::tbats(&[24.0], None, 0.95).candidates);
    dedupe_candidates(&mut auto_candidates);
    println!(
        "\nauto mode: {} union-grid candidates",
        auto_candidates.len()
    );
    let mut auto_runs = Vec::new();
    let mut auto_wall_4t = [f64::NAN; 2];
    let mut auto_champions: Vec<String> = Vec::new();
    for (mode_idx, (mode, accelerated)) in [("baseline", false), ("accelerated", true)]
        .into_iter()
        .enumerate()
    {
        for threads in [1usize, 2, 4, 8] {
            let o = opts(threads, accelerated);
            let mut best_ms = f64::INFINITY;
            let mut last = None;
            for _ in 0..reps {
                let t0 = Instant::now();
                let report = evaluate_candidates(train, test, &[], &[], &auto_candidates, &o)?;
                best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                last = Some(report);
            }
            let report = last.expect("at least one rep");
            let (champion, champion_rmse) = champion_label(&report);
            let ls = &report.stats.lockstep;
            let families: Vec<FamilyBreakdown> = ModelFamily::ALL
                .iter()
                .zip(&report.stats.families)
                .filter(|(_, f)| f.attempts > 0)
                .map(|(family, f)| FamilyBreakdown {
                    family: family.label().to_string(),
                    attempts: f.attempts,
                    fits: f.fits,
                    failures: f.failures,
                    fit_time_ms: f.fit_time.as_secs_f64() * 1e3,
                    objective_evals: f.objective_evals,
                })
                .collect();
            let family_line = families
                .iter()
                .map(|f| format!("{} {:.0} ms", f.family, f.fit_time_ms))
                .collect::<Vec<_>>()
                .join(", ");
            println!(
                "  {mode:<12} {threads}t  {best_ms:>8.1} ms   champion {champion}  \
                 [{family_line}]"
            );
            if ls.batched_evals > 0 {
                println!(
                    "               lockstep: {} groups, {} batched evals, batch-css {:.0} ms, \
                     batch-ets {:.0} ms, batch-tbats {:.0} ms",
                    ls.groups,
                    ls.batched_evals,
                    ls.batch_css.as_secs_f64() * 1e3,
                    ls.batch_ets.as_secs_f64() * 1e3,
                    ls.batch_tbats.as_secs_f64() * 1e3,
                );
            }
            if threads == 4 {
                auto_wall_4t[mode_idx] = best_ms;
            }
            auto_champions.push(champion.clone());
            auto_runs.push(AutoModeRun {
                mode: mode.to_string(),
                threads,
                wall_ms: best_ms,
                champion,
                champion_rmse,
                scored: report.scores.len(),
                failures: report.failures,
                objective_evals: report.stats.objective_evals,
                families,
                lockstep_groups: ls.groups,
                lockstep_batched_evals: ls.batched_evals,
                lockstep_batch_css_ms: ls.batch_css.as_secs_f64() * 1e3,
                lockstep_batch_ets_ms: ls.batch_ets.as_secs_f64() * 1e3,
                lockstep_batch_tbats_ms: ls.batch_tbats.as_secs_f64() * 1e3,
            });
        }
    }
    let auto_speedup = auto_wall_4t[0] / auto_wall_4t[1];
    println!(
        "auto-mode speedup at 4 threads: {auto_speedup:.2}x (baseline {:.1} ms → accelerated {:.1} ms)",
        auto_wall_4t[0], auto_wall_4t[1]
    );

    let snapshot = GridSnapshot {
        grid: "arima_180".to_string(),
        available_parallelism,
        candidates: grid.len(),
        train_len: train.len(),
        test_len: test.len(),
        max_evals: 0,
        reps,
        runs,
        speedup_4_threads: speedup,
        auto_order: auto_run,
        auto_mode: auto_runs,
        auto_speedup_4_threads: auto_speedup,
    };
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_grid.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&snapshot).expect("serializable"),
    )?;
    println!("wrote {}", path.display());

    // The acceleration layer must never change model selection.
    if champions_4t[0] != champions_4t[1] {
        eprintln!(
            "FAIL: accelerated champion {} != baseline champion {}",
            champions_4t[1], champions_4t[0]
        );
        std::process::exit(1);
    }
    // Auto mode: every (mode, threads) combination must elect the same
    // champion — batching and thread count must not change selection.
    if auto_champions.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("FAIL: auto-mode champions differ across modes/threads: {auto_champions:?}");
        std::process::exit(1);
    }
    // The auto-order mode must never end up worse than the full sweep:
    // either its seeded champion stands, or the fallback absorbed the full
    // grid and the best of both won.
    if dwcp_math::total_cmp_f64(auto_rmse, full_rmse * (1.0 + 1e-9)).is_gt() {
        eprintln!("FAIL: auto-order champion rmse {auto_rmse} worse than full sweep {full_rmse}");
        std::process::exit(1);
    }
    Ok(())
}
