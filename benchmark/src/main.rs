//! The dwcp benchmark: end-to-end metrics of the paths users run, and a
//! traced pass that splits them into the program's layers.
//!
//! ```sh
//! cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload estate-scan --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `estate-scan`, `estate-relearn`, `serve-mixed`,
//! `forecast-auto` (see `README.md` in this directory for why each).
//! `--trace 0` prints the end-to-end metrics, measured untraced; `--trace
//! 1` also makes a traced pass, prints the per-layer metrics and writes
//! the spans to `.bench_out/trace-<workload>-seed<seed>.jsonl`. Each
//! metric is printed as `name value unit`; the last line is the result as
//! JSON. Run it from the repository root.

mod child;
mod estate;
mod forecast;
mod loadgen;
mod report;
mod serve;
mod stats;
mod trace;

use child::Error;
use report::{Metric, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// How much work a run does. It depends on `--seconds` alone, never on
/// how fast the program turns out to be, so every commit measures the
/// same work.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Rounds per pass; each has its own set-up and its own child.
    pub rounds: usize,
    pub estate_jobs: usize,
    pub wave: usize,
    pub serve_workloads: usize,
    /// Open-loop requests per second per client thread.
    pub serve_rate: f64,
    /// Open-loop, then closed-loop, requests per client thread per round.
    pub serve_open_requests: usize,
    pub serve_closed_requests: usize,
    pub series_per_round: usize,
}

/// Measured wall of one round on a 2-core x86-64 box, by workload.
const ROUND_S: [(&str, f64); 4] = [
    ("estate-scan", 2.6),
    ("estate-relearn", 2.1),
    ("serve-mixed", 3.3),
    ("forecast-auto", 3.0),
];

impl Sizes {
    /// As many rounds as fill `seconds` at the reference round wall, and
    /// at least three, so set-up time is a median.
    pub fn for_run(workload: &str, seconds: f64) -> Sizes {
        let round_s = ROUND_S
            .iter()
            .find(|(w, _)| *w == workload)
            .map_or(seconds, |&(_, s)| s);
        Sizes {
            rounds: ((seconds / round_s).round() as usize).max(3),
            estate_jobs: 4_096,
            wave: 1_024,
            serve_workloads: 32,
            serve_rate: 1_000.0,
            // 2.3 s of open loop, then about 1 s of closed loop.
            serve_open_requests: 2_300,
            serve_closed_requests: 3_000,
            series_per_round: 4,
        }
    }
}

/// One run's state: its inputs, its scratch directory, and what it has
/// found so far.
pub struct Ctx {
    pub seed: u64,
    pub sizes: Sizes,
    pub traced: bool,
    pub work: PathBuf,
    pub outcome: Outcome,
    /// Spans of the traced pass, against `origin`.
    pub spans: Vec<trace::Span>,
    pub origin: Instant,
}

impl Ctx {
    pub fn ns_since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// FNV-1a 64 over a sequence of byte strings, each followed by a
/// separator, for champion and forecast digests.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64 of `seed` and `salt`: every generated input derives from
/// the run's seed through this.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A hash mapped onto [0, 1).
pub fn unit_interval(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !report::WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            report::WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// Run one workload: the end-to-end metrics untraced, or with `traced`
/// the per-layer metrics from an added traced pass.
pub fn run_workload(workload: &str, ctx: &mut Ctx) -> Result<Vec<Metric>, Error> {
    match workload {
        "estate-scan" => estate::run(ctx, false),
        "estate-relearn" => estate::run(ctx, true),
        "serve-mixed" => serve::run(ctx),
        "forecast-auto" => forecast::run(ctx),
        other => Err(format!("unknown workload {other}").into()),
    }
}

/// Child side: run the task in the environment.
fn run_child(task: &str) -> Result<(), Error> {
    let role = match serde_json::from_str_value(task)?.field("role")? {
        serde_json::Value::String(role) => role.clone(),
        _ => return Err("task role is not a string".into()),
    };
    match role.as_str() {
        "estate" => estate::child(serde_json::from_str(task)?),
        "forecast" => forecast::child(serde_json::from_str(task)?),
        "serve" => serve::daemon(serde_json::from_str(task)?),
        other => Err(format!("unknown child role {other}").into()),
    }
}

/// The run's scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const OUT_DIR: &str = ".bench_out";

fn main() -> ExitCode {
    if let Ok(task) = std::env::var(child::TASK_ENV) {
        return match run_child(&task) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("usage: benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(Path::new(OUT_DIR).join(format!("work-{}", std::process::id())));
    // A traced run makes two passes, an untraced one and a traced one.
    let pass_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut ctx = Ctx {
        seed: args.seed,
        sizes: Sizes::for_run(&args.workload, pass_seconds),
        traced: args.trace,
        work: work.0.clone(),
        outcome: Outcome::default(),
        spans: Vec::new(),
        origin: Instant::now(),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("benchmark: cannot create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let metrics = match run_workload(&args.workload, &mut ctx) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("benchmark: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let metrics = if ctx.traced {
        let path =
            Path::new(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &ctx.spans) {
            Ok(()) => eprintln!("wrote {} spans to {}", ctx.spans.len(), path.display()),
            Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
        }
        report::per_layer(&metrics)
    } else {
        metrics
    };
    report::print(&ctx.outcome, &metrics);
    if ctx.outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// Dispatches child tasks when the test harness is re-executed as a
    /// child (see `child::Child::spawn`); a no-op otherwise.
    #[test]
    fn child_entry() {
        if let Ok(task) = std::env::var(child::TASK_ENV) {
            run_child(&task).expect("child task failed");
        }
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str_value(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn names(json: &Value, list: &str) -> Vec<(String, String)> {
        let Ok(Value::Array(items)) = json.field(list) else {
            panic!("BENCHMARK.json has no {list} list");
        };
        items
            .iter()
            .map(|m| match (m.field("name"), m.field("unit")) {
                (Ok(Value::String(n)), Ok(Value::String(u))) => (n.clone(), u.clone()),
                _ => panic!("{list} entry without name and unit"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_binary_prints() {
        let json = benchmark_json();
        let declared: Vec<(String, String)> = report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&json, "end_to_end"), declared);
        let declared: Vec<(String, String)> = report::PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names(&json, "per_layer"), declared);
        let Ok(Value::Array(workloads)) = json.field("workloads") else {
            panic!("no workloads");
        };
        let listed: Vec<String> = workloads
            .iter()
            .map(|w| match w.field("name") {
                Ok(Value::String(n)) => n.clone(),
                _ => panic!("workload without a name"),
            })
            .collect();
        assert_eq!(listed, report::WORKLOADS);
    }

    fn tiny() -> Sizes {
        Sizes {
            rounds: 1,
            estate_jobs: 48,
            wave: 16,
            serve_workloads: 2,
            serve_rate: 200.0,
            serve_open_requests: 60,
            serve_closed_requests: 100,
            series_per_round: 1,
        }
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    /// Drive every workload's runner, untraced and traced, on tiny sizes:
    /// every declared metric is printed with its unit, a workload measures
    /// exactly the layers the table assigns it, and every check passes.
    #[test]
    fn smoke_every_workload() {
        let json = benchmark_json();
        for workload in report::WORKLOADS {
            for traced in [false, true] {
                let work = WorkDir(
                    Path::new(OUT_DIR)
                        .join(format!("smoke-{}-{workload}-{traced}", std::process::id())),
                );
                std::fs::create_dir_all(&work.0).unwrap();
                let mut ctx = Ctx {
                    seed: 7,
                    sizes: tiny(),
                    traced,
                    work: work.0.clone(),
                    outcome: Outcome::default(),
                    spans: Vec::new(),
                    origin: Instant::now(),
                };
                let measured = run_workload(workload, &mut ctx).expect(workload);
                assert!(
                    ctx.outcome.correct(),
                    "{workload} (traced: {traced}): {:?}",
                    ctx.outcome.failures
                );
                let printed = if traced {
                    let mut got: Vec<&str> = measured.iter().map(|m| m.name.as_str()).collect();
                    let mut want: Vec<&str> = report::PER_LAYER
                        .iter()
                        .filter(|(_, _, ws)| ws.contains(&workload))
                        .map(|&(n, _, _)| n)
                        .collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "{workload} measures the wrong layers");
                    assert!(!ctx.spans.is_empty(), "{workload} recorded no spans");
                    report::per_layer(&measured)
                } else {
                    measured
                };
                let line = report::result_line(&ctx.outcome, &printed);
                let result = serde_json::from_str_value(&line).unwrap();
                let list = if traced { "per_layer" } else { "end_to_end" };
                for (name, unit) in names(&json, list) {
                    assert!(valid_name(&name), "bad metric name {name}");
                    let entry = result
                        .field("metrics")
                        .and_then(|m| m.field(&name))
                        .unwrap_or_else(|_| panic!("{workload} does not print {name}"));
                    assert_eq!(entry.field("unit").unwrap(), &Value::String(unit.clone()));
                    assert!(matches!(entry.field("value"), Ok(Value::Number(v)) if v.is_finite()));
                }
            }
        }
    }

    #[test]
    fn sizes_follow_seconds_not_speed() {
        assert_eq!(Sizes::for_run("estate-scan", 10.0).rounds, 4);
        assert_eq!(Sizes::for_run("estate-scan", 1.0).rounds, 3);
        assert_eq!(Sizes::for_run("forecast-auto", 30.0).rounds, 10);
        assert_eq!(Sizes::for_run("serve-mixed", 10.0).rounds, 3);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload serve-mixed --seed 3 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mixed", 3, 5.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload serve-mixed --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve-mixed --seconds -1")).is_err());
        assert!(parse_args(&args("--workload serve-mixed --seed")).is_err());
    }
}
