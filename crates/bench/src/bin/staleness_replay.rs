//! Replays the Figure 4 retention loop over a six-week OLTP stream:
//! fit a champion, serve forecasts day by day, relearn when the repository
//! says so (weekly staleness or RMSE degradation).
//!
//! ```sh
//! cargo run -p dwcp-bench --release --bin staleness_replay
//! ```

use dwcp_bench::{experiment_pipeline, EXPERIMENT_SEED};
use dwcp_core::{ModelRecord, ShardedRepository};
use dwcp_series::{Accuracy, Granularity};
use dwcp_workload::{oltp_scenario, Metric};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut scenario = oltp_scenario();
    scenario.duration_days = 60; // 1440 hours: 1008 protocol + 18 replay days
    let instance = "cdbm012";
    let series = scenario.hourly(EXPERIMENT_SEED, instance, Metric::CpuPercent)?;
    let exog = scenario.exogenous_columns(scenario.start, series.len());
    let pipeline = experiment_pipeline();
    let mut repo = ShardedRepository::in_memory();
    let key = format!("{instance}/CPU");

    // Replay: each day from the protocol boundary onward, check the
    // repository verdict against the live one-day-ahead accuracy.
    let protocol = Granularity::Hourly.observations();
    let mut champion = String::new();
    let mut relearns = 0usize;
    println!("day  verdict      champion{:>46}   live RMSE", "");
    for day in 0..((series.len() - protocol) / 24) {
        let upto = protocol + day * 24;
        let window = series.slice(0, upto);
        let now = window.next_timestamp();

        // Live accuracy of the stored champion over the just-elapsed day:
        // refit the pipeline only when the repository demands it.
        let verdict = repo.needs_relearn(&key, now, None)?;
        let mut label = "kept".to_string();
        if let Some(reason) = verdict {
            let exog_window: Vec<Vec<f64>> = exog.iter().map(|c| c[..upto].to_vec()).collect();
            let outcome = pipeline.run(&window, &exog_window)?;
            champion = outcome.champion.clone();
            repo.store(ModelRecord::from_outcome(
                &key,
                &outcome,
                Granularity::Hourly,
                now,
            ))?;
            relearns += 1;
            label = format!("{reason:?}");
        }
        // Score yesterday's persistence forecast as the live health probe.
        let yesterday = &window.values()[upto - 48..upto - 24];
        let today = &window.values()[upto - 24..upto];
        let live = Accuracy::compute(today, yesterday)?.rmse;
        println!("{day:>3}  {label:<11}  {champion:<52} {live:>9.2}");
    }
    println!(
        "\n{} relearn events across {} replay days (expected: day 0 + one per week)",
        relearns,
        (series.len() - protocol) / 24
    );
    Ok(())
}
