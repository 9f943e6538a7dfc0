//! End-to-end tests of the `dwcp` command-line tool: simulate to a file,
//! forecast it, and raise an advisory — the full operator loop without a
//! terminal.

use dwcp::cli::{execute, parse, Command};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dwcp_cli_test_{name}_{}", std::process::id()))
}

fn run(cmd: Command) -> String {
    let mut out = Vec::new();
    execute(cmd, &mut out).expect("command failed");
    String::from_utf8(out).expect("utf8 output")
}

#[test]
fn simulate_forecast_advise_loop() {
    let csv_path = tmp("loop");
    // 1. Simulate to a file.
    let msg = run(Command::Simulate {
        scenario: "olap".into(),
        instance: "cdbm011".into(),
        metric: "cpu".into(),
        seed: 4,
        out: csv_path.to_string_lossy().into_owned(),
    });
    assert!(msg.contains("wrote"), "{msg}");
    let content = std::fs::read_to_string(&csv_path).unwrap();
    assert!(content.lines().count() > 1008);

    // 2. Forecast it (HES branch is fastest for a test).
    let cmd = parse(&[
        "forecast".to_string(),
        "--input".to_string(),
        csv_path.to_string_lossy().into_owned(),
        "--method".to_string(),
        "hes".to_string(),
    ])
    .unwrap();
    let out = run(cmd);
    assert!(out.contains("# champion:"), "{out}");
    assert!(out.contains("step,timestamp,forecast,lower,upper"), "{out}");
    // 24 hourly forecast rows.
    let rows = out
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("step"))
        .count();
    assert_eq!(rows, 24, "{out}");

    // 3. Advisory against an unreachable threshold: no breach expected.
    let cmd = parse(&[
        "advise".to_string(),
        "--input".to_string(),
        csv_path.to_string_lossy().into_owned(),
        "--threshold".to_string(),
        "1000".to_string(),
        "--method".to_string(),
        "hes".to_string(),
    ])
    .unwrap();
    let out = run(cmd);
    assert!(out.contains("no breach"), "{out}");

    // 4. Advisory against a threshold inside the daily cycle: must alert.
    let cmd = parse(&[
        "advise".to_string(),
        "--input".to_string(),
        csv_path.to_string_lossy().into_owned(),
        "--threshold".to_string(),
        "30".to_string(),
        "--method".to_string(),
        "hes".to_string(),
    ])
    .unwrap();
    let out = run(cmd);
    assert!(out.contains("ALERT"), "{out}");

    std::fs::remove_file(&csv_path).ok();
}

#[test]
fn fleet_batches_csvs_and_persists_the_repository() {
    // Two simulated workloads, batched through one pool, with the sharded
    // model repository persisted between runs.
    let mut inputs = Vec::new();
    for instance in ["cdbm011", "cdbm012"] {
        let path = tmp(&format!("fleet_{instance}"));
        run(Command::Simulate {
            scenario: "oltp".into(),
            instance: instance.into(),
            metric: "cpu".into(),
            seed: 7,
            out: path.to_string_lossy().into_owned(),
        });
        inputs.push(path);
    }
    let repo_dir = tmp("fleet_repo");
    std::fs::remove_dir_all(&repo_dir).ok();
    let cmd = parse(&[
        "fleet".to_string(),
        "--inputs".to_string(),
        inputs
            .iter()
            .map(|p| p.to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join(","),
        "--method".to_string(),
        "hes".to_string(),
        "--repo-dir".to_string(),
        repo_dir.to_string_lossy().into_owned(),
    ])
    .unwrap();
    // The rows of a run, split after the workload and before the
    // champion (whose descriptor may contain commas) on the trailing
    // `rmse,mape,reused,fell_back,family` fields.
    let rows = |out: &str| -> Vec<(String, bool)> {
        out.lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("workload,"))
            .map(|l| {
                let tail: Vec<&str> = l.rsplitn(6, ',').collect();
                let workload = l.split(',').next().unwrap().to_string();
                (workload, tail[2] == "true")
            })
            .collect()
    };
    let out = run(cmd.clone());
    assert!(
        out.contains("workload,champion,rmse,mape,reused,fell_back"),
        "{out}"
    );
    assert!(out.contains("Holt-Winters"), "{out}");
    assert!(out.contains("# scan: 2 fitted"), "{out}");
    assert!(out.contains("# champion reuse: 0 hits"), "{out}");
    assert!(out.contains("# repository: 2 champions"), "{out}");
    assert!(repo_dir.join("MANIFEST.json").exists());
    let first = rows(&out);
    assert_eq!(first.len(), 2, "{out}");
    assert!(first.iter().all(|(_, reused)| !reused), "{out}");

    // The second run re-scores every champion on disk frozen and keeps
    // it: same champions, same RMSEs, nothing appended.
    let champions = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("workload,"))
            .map(|l| l.rsplitn(5, ',').last().unwrap().to_string())
            .collect()
    };
    let first_champions = champions(&out);
    let out = run(cmd);
    assert!(out.contains("# scan: 2 fitted"), "{out}");
    assert!(
        out.contains("# champion reuse: 2 hits (2 frozen re-scores, 0 degraded)"),
        "{out}"
    );
    assert!(out.contains(", 0 appends,"), "{out}");
    let second = rows(&out);
    assert_eq!(second.len(), 2, "{out}");
    assert!(second.iter().all(|(_, reused)| *reused), "{out}");
    assert_eq!(champions(&out), first_champions, "{out}");

    for p in inputs {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_dir_all(&repo_dir).ok();
}

/// The `# lockstep:` summary line's `(groups, rounds, lanes per round, ETS
/// lanes per chunk)`.
fn lockstep_line(out: &str) -> (usize, usize, f64, f64) {
    let line = out
        .lines()
        .find_map(|l| l.strip_prefix("# lockstep: "))
        .unwrap_or_else(|| panic!("no lockstep line in {out}"));
    let fields: Vec<&str> = line.split(", ").collect();
    let number = |i: usize, unit: &str| {
        fields[i]
            .strip_suffix(unit)
            .unwrap_or_else(|| panic!("field {i} of {line:?} lacks {unit:?}"))
            .to_string()
    };
    (
        number(0, " groups").parse().unwrap(),
        number(1, " rounds").parse().unwrap(),
        number(2, " lanes/round").parse().unwrap(),
        number(3, " ETS lanes/chunk").parse().unwrap(),
    )
}

#[test]
fn fleet_summaries_report_lockstep_lanes() {
    // A fleet run prints how wide its lockstep rounds ran, whether its
    // champions live in memory or in a sharded repository directory.
    let mut inputs = Vec::new();
    for (instance, metric) in [("cdbm011", "cpu"), ("cdbm012", "cpu"), ("cdbm011", "iops")] {
        let path = tmp(&format!("lockstep_{instance}_{metric}"));
        run(Command::Simulate {
            scenario: "oltp".into(),
            instance: instance.into(),
            metric: metric.into(),
            seed: 11,
            out: path.to_string_lossy().into_owned(),
        });
        inputs.push(path.to_string_lossy().into_owned());
    }
    let fleet = |extra: &[&str]| {
        let mut args: Vec<String> = ["fleet", "--inputs", &inputs.join(","), "--method", "hes"]
            .iter()
            .map(|a| a.to_string())
            .collect();
        args.extend(["--threads", "2"].iter().map(|a| a.to_string()));
        args.extend(extra.iter().map(|a| a.to_string()));
        run(parse(&args).unwrap())
    };

    let out = fleet(&[]);
    assert!(out.contains("# scan: 3 fitted"), "{out}");
    assert!(out.contains("in 1 wave(s)"), "{out}");
    assert!(!out.contains("# repository:"), "nothing persisted: {out}");
    let (groups, rounds, lanes, per_chunk) = lockstep_line(&out);
    // Three HES grids' chains in one wave on two workers: one group per
    // worker.
    assert_eq!(groups, 2, "{out}");
    assert!(rounds > 0, "{out}");
    assert!(lanes > 1.0, "{out}");
    // A round's non-seasonal and additive lanes share a chunk, so a chunk
    // holds more than one lane on average and never more than eight.
    assert!(per_chunk > 1.0 && per_chunk <= 8.0, "{out}");

    let repo_dir = tmp("lockstep_estate");
    std::fs::remove_dir_all(&repo_dir).ok();
    let out = fleet(&["--repo-dir", &repo_dir.to_string_lossy(), "--wave", "2"]);
    assert!(out.contains("# scan: 3 fitted"), "{out}");
    let (groups, rounds, lanes, per_chunk) = lockstep_line(&out);
    // Two waves (2 + 1 jobs), each a batch with one group per worker.
    assert_eq!(groups, 4, "{out}");
    assert!(rounds > 0 && lanes > 1.0, "{out}");
    assert!(per_chunk > 1.0 && per_chunk <= 8.0, "{out}");

    for p in inputs {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_dir_all(&repo_dir).ok();
}

#[test]
fn forecast_search_line_reports_tbats_lanes_per_pass() {
    // A TBATS grid scores its chains' staged points in batched kernel
    // passes; the search line reports how many lanes a pass held. Other
    // families run no TBATS pass and print no such field.
    let csv_path = tmp("tbats_lanes");
    run(Command::Simulate {
        scenario: "olap".into(),
        instance: "cdbm012".into(),
        metric: "cpu".into(),
        seed: 1,
        out: csv_path.to_string_lossy().into_owned(),
    });
    let search_line = |method: &str| {
        let args: Vec<String> = [
            "forecast",
            "--input",
            &csv_path.to_string_lossy(),
            "--method",
            method,
        ]
        .iter()
        .map(|a| a.to_string())
        .collect();
        let out = run(parse(&args).unwrap());
        out.lines()
            .find(|l| l.starts_with("# search:"))
            .unwrap_or_else(|| panic!("no search line: {out}"))
            .to_string()
    };
    let line = search_line("tbats");
    let lanes: f64 = line
        .strip_suffix(" TBATS lanes/pass")
        .and_then(|l| l.rsplit(", ").next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no TBATS lanes/pass field: {line}"));
    assert!((1.0..=12.0).contains(&lanes), "{line}");
    let line = search_line("hes");
    assert!(!line.contains("TBATS"), "{line}");
    std::fs::remove_file(&csv_path).ok();
}

#[test]
fn forecast_rejects_missing_file() {
    let cmd = Command::Forecast {
        input: "/nonexistent/definitely_missing.csv".into(),
        method: dwcp::planner::MethodChoice::Hes,
        granularity: dwcp::series::Granularity::Hourly,
        detect_shocks: false,
        grid: Default::default(),
    };
    let mut out = Vec::new();
    assert!(execute(cmd, &mut out).is_err());
}

#[test]
fn forecast_on_external_csv_with_gaps() {
    // A hand-made hourly CSV with trend + cycle + gaps, as an outside user
    // would supply: the pipeline interpolates and forecasts.
    let csv_path = tmp("external");
    let mut content = String::from("timestamp,value\n");
    for t in 0..1100u64 {
        if t % 97 == 13 {
            content.push_str(&format!("{},\n", t * 3600)); // gap
        } else {
            let v = 200.0
                + 0.1 * t as f64
                + 30.0 * (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin();
            content.push_str(&format!("{},{v:.3}\n", t * 3600));
        }
    }
    std::fs::write(&csv_path, content).unwrap();
    let cmd = parse(&[
        "forecast".to_string(),
        "--input".to_string(),
        csv_path.to_string_lossy().into_owned(),
        "--method".to_string(),
        "hes".to_string(),
    ])
    .unwrap();
    let out = run(cmd);
    assert!(out.contains("Holt-Winters"), "{out}");
    // Forecast continues the trend: last forecast ≈ 200 + 0.1·(1100+24) ± cycle.
    let last_line = out.lines().last().unwrap();
    let forecast: f64 = last_line.split(',').nth(2).unwrap().parse().unwrap();
    assert!((forecast - 312.0).abs() < 40.0, "{last_line}");
    std::fs::remove_file(&csv_path).ok();
}

/// The `(shard loads, evictions)` of a fleet run's `# repository:` line.
fn repository_traffic(out: &str) -> (usize, usize) {
    let line = out
        .lines()
        .find(|l| l.starts_with("# repository:"))
        .unwrap_or_else(|| panic!("no repository line in {out}"));
    let count = |unit: &str| -> usize {
        let head = line.split(unit).next().unwrap();
        head.rsplit(['(', ' '])
            .find(|w| !w.is_empty())
            .unwrap()
            .parse()
            .unwrap_or_else(|_| panic!("no {unit:?} count in {line:?}"))
    };
    (count(" shard loads"), count(" evictions"))
}

#[test]
fn fleet_repository_line_counts_the_scans_own_traffic() {
    // The `# repository:` line reports what the scan itself loaded and
    // evicted: the same counters a scheduler over the same jobs and
    // shards reports, before anything else reads the repository.
    use dwcp::planner::{
        EstateScheduler, FleetOptions, MethodChoice, PipelineConfig, SeriesJob, ShardedRepository,
        SliceJobSource, WaveOptions,
    };
    let mut inputs = Vec::new();
    let mut jobs = Vec::new();
    for (instance, metric) in [("cdbm011", "cpu"), ("cdbm012", "cpu"), ("cdbm011", "iops")] {
        let path = tmp(&format!("traffic_{instance}_{metric}"));
        run(Command::Simulate {
            scenario: "oltp".into(),
            instance: instance.into(),
            metric: metric.into(),
            seed: 5,
            out: path.to_string_lossy().into_owned(),
        });
        let series = dwcp::cli::read_csv(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let key = path.file_stem().unwrap().to_string_lossy().into_owned();
        jobs.push(SeriesJob::new(
            key,
            series,
            PipelineConfig::hourly(MethodChoice::Hes),
        ));
        inputs.push(path.to_string_lossy().into_owned());
    }
    let printed_dir = tmp("traffic_printed");
    let counted_dir = tmp("traffic_counted");
    for dir in [&printed_dir, &counted_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
    let args: Vec<String> = [
        "fleet",
        "--inputs",
        &inputs.join(","),
        "--method",
        "hes",
        "--shards",
        "16",
        "--repo-dir",
        &printed_dir.to_string_lossy(),
    ]
    .iter()
    .map(|a| a.to_string())
    .collect();
    // A cold night, then a night that keeps every champion.
    for night in ["cold", "kept"] {
        let printed = repository_traffic(&run(parse(&args).unwrap()));
        let mut scheduler = EstateScheduler::new(
            FleetOptions::default(),
            WaveOptions::default(),
            ShardedRepository::open_or_create(&counted_dir, 16).unwrap(),
        );
        scheduler.run(&SliceJobSource::new(&jobs)).unwrap();
        let io = scheduler.repository.io_stats();
        assert_eq!(printed, (io.shard_loads, io.evictions), "{night} night");
    }
    for p in inputs {
        std::fs::remove_file(p).ok();
    }
    for dir in [&printed_dir, &counted_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}
