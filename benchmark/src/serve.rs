//! `serve-mixed`: the `dwcp serve` daemon under scheduled load.
//!
//! A round starts the daemon in a child exactly as `dwcp serve --addr
//! 127.0.0.1:0 --threads 2 --method hes --threshold 85` starts it, then
//! (set-up) pushes 1,010 hours of 15-minute points for each workload —
//! one first fit each — plus a per-workload number of further hours, so
//! the workloads reach their one-week staleness relearn at different
//! times. Two client threads then each own half of the workloads, which
//! keeps every workload's pushes in time order, and send the mix 50%
//! `POST /push` of the next hour, 30% `GET /forecast`, 15% `GET /series`
//! of the last week and 5% `GET /status`: first an open loop on a fixed
//! schedule, then a closed loop back to back for capacity.
//!
//! Afterwards the same request streams are replayed in-process against an
//! `Engine` configured as the daemon configures it; the daemon's
//! `/status` counters must equal the replay's.

use crate::child::{self, Child, Error};
use crate::loadgen::{self, Schedule, Timing};
use crate::report::{metric, Measured, Metric};
use crate::stats::{self, median, percentile};
use crate::trace::{self, Tracer};
use crate::{mix, unit_interval, Ctx, Sizes};
use dwcp::cli;
use dwcp::planner::{
    AlertRule, Engine, EngineConfig, IngestStage, MethodChoice, PipelineConfig, ScoreAction,
    StepOutcome,
};
use dwcp::series::Granularity;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The daemon's command line, minus the program name.
const DAEMON_ARGS: &str = "serve --addr 127.0.0.1:0 --threads 2 --method hes --threshold 85";
const THRESHOLD: f64 = 85.0;
/// Hours pushed before the first fit: the hourly protocol needs 1,008
/// complete hours, and the newest pushed hour stays open.
const WARM_HOURS: usize = 1_010;
/// The engine relearns a champion once the data runs more than a week
/// past its fit.
const STALE_AFTER_HOURS: usize = 169;
/// Share of requests that are pushes.
const PUSH_SHARE: f64 = 0.5;
/// An hour boundary, so each hour's four points share one bucket.
const ORIGIN: u64 = 1_599_998_400;
const CLIENTS: usize = 2;
/// Hours per `GET /series` page: the last week.
const PAGE_HOURS: usize = 168;
/// A request this far past due counts as stalled.
const STALL_NS: u64 = 5_000_000;
/// Above this generator lateness (idle thread, due to send, p99) the open
/// loop measured the generator rather than the daemon.
const MAX_LATE_P99_MS: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Push,
    Forecast,
    Series,
    Status,
}

const ROUTES: [Route; 4] = [Route::Push, Route::Forecast, Route::Series, Route::Status];

impl Route {
    fn name(self) -> &'static str {
        match self {
            Route::Push => "push",
            Route::Forecast => "forecast",
            Route::Series => "series",
            Route::Status => "status",
        }
    }

    /// Keys every 200 response of the route carries.
    fn keys(self) -> &'static str {
        match self {
            Route::Push => "workload accepted outcome state action champion",
            Route::Forecast => "workload start step_seconds level mean lower upper",
            Route::Series => "workload cursor total timestamps values next_cursor",
            Route::Status => "workload points complete_hours rescores relearns alerts_fired",
        }
    }

    /// The engine call(s) behind the route, as named in the replay.
    fn engine_calls(self) -> &'static [&'static str] {
        match self {
            Route::Push => &["engine.push_rescore", "engine.push_relearn"],
            Route::Forecast => &["engine.forecast"],
            Route::Series => &["engine.read_page"],
            Route::Status => &["engine.status"],
        }
    }
}

fn key(w: usize) -> String {
    format!("db{w:02}/cpu")
}

fn query_key(w: usize) -> String {
    format!("db{w:02}%2Fcpu")
}

/// Raw 15-minute points of workload `w` for hours `from..from + hours`:
/// a daily and a weekly cycle around a per-workload level, plus noise.
/// Every value is a pure function of (seed, w, point), so the HTTP run
/// and the replay push identical numbers.
fn points(seed: u64, w: usize, from: usize, hours: usize) -> Vec<(u64, f64)> {
    let shape = mix(seed, w as u64);
    let level = 40.0 + 40.0 * unit_interval(mix(shape, 1));
    let daily = 4.0 + 10.0 * unit_interval(mix(shape, 2));
    let weekly = 4.0 * unit_interval(mix(shape, 3));
    let phase = std::f64::consts::TAU * unit_interval(mix(shape, 4));
    (from * 4..(from + hours) * 4)
        .map(|k| {
            let hour = k as f64 / 4.0;
            let noise = 3.0 * (unit_interval(mix(shape, 16 + k as u64)) - 0.5);
            let value = level
                + daily * (std::f64::consts::TAU * hour / 24.0 + phase).sin()
                + weekly * (std::f64::consts::TAU * hour / 168.0).sin()
                + noise;
            (ORIGIN + k as u64 * 900, value)
        })
        .collect()
}

fn csv(points: &[(u64, f64)]) -> String {
    let mut body = String::with_capacity(points.len() * 24);
    for (ts, v) in points {
        // `{}` on f64 round-trips, so the daemon parses exactly `v`.
        body.push_str(&format!("{ts},{v}\n"));
    }
    body
}

/// A round's generated inputs: the seed every value derives from, and
/// the hours each workload is pushed at set-up after its first fit.
///
/// The offsets put each workload's weekly relearn at a seeded point of
/// the measured phases: half the workloads of each client in the open
/// loop, half in the closed loop. Every round thus stalls about once per
/// workload, split the same way every time, so the closed loop's capacity
/// includes a steady share of relearns.
struct Plan {
    seed: u64,
    offsets: Vec<usize>,
}

impl Plan {
    fn new(seed: u64, sizes: &Sizes) -> Plan {
        // Pushes a workload can expect in each phase.
        let hours = |requests: usize| {
            (requests * CLIENTS) as f64 * PUSH_SHARE / sizes.serve_workloads as f64
        };
        let (open, closed) = (
            hours(sizes.serve_open_requests),
            hours(sizes.serve_closed_requests),
        );
        let offsets = (0..sizes.serve_workloads)
            .map(|w| {
                // Keep clear of the phases' edges: a workload's share of
                // the pushes varies.
                let at = 0.15 + 0.65 * unit_interval(mix(seed, 1_000 + w as u64));
                let due = if (w / CLIENTS).is_multiple_of(2) {
                    at * open
                } else {
                    open + at * closed
                };
                STALE_AFTER_HOURS.saturating_sub(2 + due as usize).max(1)
            })
            .collect();
        Plan { seed, offsets }
    }

    fn workloads(&self) -> usize {
        self.offsets.len()
    }

    /// Everything set-up pushes to workload `w`: the warm hours (first
    /// fit) and then the offset hours (one frozen re-score).
    fn setup_pushes(&self, w: usize) -> [Vec<(u64, f64)>; 2] {
        [
            points(self.seed, w, 0, WARM_HOURS),
            points(self.seed, w, WARM_HOURS, self.offsets[w]),
        ]
    }
}

/// One request of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Request {
    route: Route,
    workload: usize,
    /// For a push, the hour it sends; otherwise the hours pushed so far.
    hour: usize,
}

/// A client's request stream. The same seed gives the same requests in
/// the same order to the HTTP run and to the replay.
struct Stream {
    state: u64,
    owned: Vec<usize>,
    next_hour: Vec<usize>,
}

impl Stream {
    fn new(plan: &Plan, client: usize) -> Stream {
        Stream {
            state: mix(plan.seed, 2_000 + client as u64),
            owned: (client..plan.workloads()).step_by(CLIENTS).collect(),
            next_hour: plan.offsets.iter().map(|o| WARM_HOURS + o).collect(),
        }
    }

    fn next(&mut self) -> Request {
        self.state = mix(self.state, 0);
        let workload = self.owned[(self.state >> 32) as usize % self.owned.len()];
        let route = match self.state % 100 {
            0..=49 => Route::Push,
            50..=79 => Route::Forecast,
            80..=94 => Route::Series,
            _ => Route::Status,
        };
        let hour = self.next_hour[workload];
        if route == Route::Push {
            self.next_hour[workload] += 1;
        }
        Request {
            route,
            workload,
            hour,
        }
    }
}

/// The cursor of the last week's page, given the hours pushed so far
/// (the newest pushed hour is still open).
fn page_cursor(hours_pushed: usize) -> usize {
    (hours_pushed - 1).saturating_sub(PAGE_HOURS)
}

fn http_request(seed: u64, r: &Request) -> Vec<u8> {
    let k = query_key(r.workload);
    match r.route {
        Route::Push => loadgen::post(
            &format!("/push?workload={k}"),
            &csv(&points(seed, r.workload, r.hour, 1)),
        ),
        Route::Forecast => loadgen::get(&format!("/forecast?workload={k}")),
        Route::Series => loadgen::get(&format!(
            "/series?workload={k}&cursor={}&limit={PAGE_HOURS}",
            page_cursor(r.hour)
        )),
        Route::Status => loadgen::get(&format!("/status?workload={k}")),
    }
}

/// One HTTP request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    route: Route,
    /// 200, with the route's keys (and a score, for a push).
    ok: bool,
    start: Instant,
    connected: Instant,
    done: Instant,
}

impl Sent {
    fn connect_ms(&self) -> f64 {
        (self.connected - self.start).as_secs_f64() * 1e3
    }

    fn exchange_ms(&self) -> f64 {
        (self.done - self.start).as_secs_f64() * 1e3
    }
}

fn send(addr: SocketAddr, seed: u64, r: &Request) -> Sent {
    let bytes = http_request(seed, r);
    let start = Instant::now();
    let (ok, connected) = match loadgen::exchange(addr, &bytes) {
        Ok((connected, response)) => {
            let body = &response.body;
            let ok = response.status == 200
                && r.route
                    .keys()
                    .split(' ')
                    .all(|k| body.contains(&format!("\"{k}\":")))
                && (r.route != Route::Push || body.contains("\"state\":\"scored\""));
            (ok, connected)
        }
        Err(_) => (false, Instant::now()),
    };
    Sent {
        route: r.route,
        ok,
        start,
        connected,
        done: Instant::now(),
    }
}

#[derive(Debug, Serialize, Deserialize)]
pub struct Task {
    pub role: String,
}

#[derive(Debug, Serialize, Deserialize)]
pub struct DaemonResult {
    pub peak_rss_bytes: u64,
}

/// Child side: the daemon, started through the CLI.
pub fn daemon(_task: Task) -> Result<(), Error> {
    let args: Vec<String> = DAEMON_ARGS.split(' ').map(String::from).collect();
    let command = cli::parse(&args)?;
    cli::execute(command, &mut std::io::stdout())?;
    child::result(&DaemonResult {
        peak_rss_bytes: child::peak_rss_bytes(),
    })
}

/// The engine configuration `dwcp serve --method hes --threshold 85`
/// builds.
fn engine_config() -> EngineConfig {
    let mut pipeline = PipelineConfig::hourly(MethodChoice::Hes);
    pipeline.granularity = Granularity::Hourly;
    let mut config = EngineConfig::new(pipeline);
    config.horizon = Granularity::Hourly.horizon();
    config
        .rules
        .push(AlertRule::new(format!("breach-{THRESHOLD}"), THRESHOLD));
    config
}

/// Engine-call times and final counters of the in-process replay.
#[derive(Debug, Default)]
struct Replay {
    /// Milliseconds per call, by span name.
    call_ms: BTreeMap<&'static str, Vec<f64>>,
    rescores: u64,
    relearns: u64,
    alerts: u64,
    ingest_points: usize,
    ingest_s: f64,
}

/// Push through the engine, and the same points through a standalone
/// ingest stage. Returns when the push started and ended, and whether it
/// relearned (`None`: it did not score).
fn replay_push(
    engine: &mut Engine,
    ingest: &mut IngestStage,
    out: &mut Replay,
    w: usize,
    pts: &[(u64, f64)],
) -> (Instant, Instant, Option<bool>) {
    let started = Instant::now();
    let outcome = engine.push_batch(&key(w), pts);
    let done = Instant::now();
    let ingest_started = Instant::now();
    for &(ts, v) in pts {
        let _ = ingest.push(ts, v);
    }
    out.ingest_s += ingest_started.elapsed().as_secs_f64();
    out.ingest_points += pts.len();
    let relearned = match outcome {
        Ok(StepOutcome::Scored(s)) => Some(s.action != ScoreAction::Rescored),
        _ => None,
    };
    (started, done, relearned)
}

/// Replay a round's set-up and the first `sent[c]` requests of each
/// client's stream against an in-process engine, timing each call.
/// Workloads are independent inside the engine, so replaying one
/// client's stream after the other reproduces the daemon's state.
fn replay(plan: &Plan, sent: &[usize], tracer: &mut Tracer) -> Result<Replay, Error> {
    let mut engine = Engine::new(engine_config());
    let mut ingest = IngestStage::hourly();
    let mut out = Replay::default();
    for w in 0..plan.workloads() {
        for pts in plan.setup_pushes(w) {
            replay_push(&mut engine, &mut ingest, &mut out, w, &pts);
        }
    }
    for (client, &count) in sent.iter().enumerate() {
        let mut stream = Stream::new(plan, client);
        for i in 0..count {
            let r = stream.next();
            let k = key(r.workload);
            let (name, started, done) = if r.route == Route::Push {
                let pts = points(plan.seed, r.workload, r.hour, 1);
                match replay_push(&mut engine, &mut ingest, &mut out, r.workload, &pts) {
                    (started, done, Some(true)) => ("engine.push_relearn", started, done),
                    (started, done, Some(false)) => ("engine.push_rescore", started, done),
                    _ => return Err(format!("replay: push to {k} did not score").into()),
                }
            } else {
                let started = Instant::now();
                let (name, found) = match r.route {
                    Route::Forecast => ("engine.forecast", engine.forecast(&k).is_some()),
                    Route::Series => (
                        "engine.read_page",
                        engine
                            .read_page(&k, page_cursor(r.hour), PAGE_HOURS)
                            .is_some(),
                    ),
                    _ => ("engine.status", engine.status(&k).is_some()),
                };
                if !found {
                    return Err(format!("replay: {name} found nothing for {k}").into());
                }
                (name, started, Instant::now())
            };
            tracer.record(name, started, done, None, request_id(client, i as u64));
            out.call_ms
                .entry(name)
                .or_default()
                .push((done - started).as_secs_f64() * 1e3);
        }
    }
    for w in 0..plan.workloads() {
        let status = engine.status(&key(w)).ok_or("replay lost a workload")?;
        out.rescores += status.rescores;
        out.relearns += status.relearns;
        out.alerts += status.alerts_fired as u64;
    }
    Ok(out)
}

fn request_id(client: usize, i: u64) -> u64 {
    ((client as u64) << 32) | i
}

/// The daemon's `/status` rescores and relearns, summed over workloads.
fn status_sums(addr: SocketAddr, workloads: usize) -> Result<(u64, u64), Error> {
    let mut sums = (0, 0);
    for w in 0..workloads {
        let target = format!("/status?workload={}", query_key(w));
        let (_, response) = loadgen::exchange(addr, &loadgen::get(&target))?;
        let status = serde_json::from_str_value(&response.body)?;
        let count = |field| match status.field(field) {
            Ok(serde_json::Value::Number(n)) => Ok(*n as u64),
            _ => Err(format!("/status has no numeric {field}")),
        };
        sums.0 += count("rescores")?;
        sums.1 += count("relearns")?;
    }
    Ok(sums)
}

/// One client thread's record of a round.
struct ClientRun {
    open: Vec<(Timing, Sent)>,
    closed: Vec<Sent>,
    closed_s: f64,
}

/// Everything one round measured.
struct Round {
    setup_s: f64,
    clients: Vec<ClientRun>,
    replay: Replay,
    peak_rss_bytes: u64,
}

/// A client thread: its share of the open loop, then the closed loop.
fn client(
    addr: SocketAddr,
    plan: &Plan,
    client: usize,
    ctx: &Ctx,
    origin: Instant,
    traced: bool,
) -> (ClientRun, Vec<trace::Span>) {
    let sizes = &ctx.sizes;
    // The two clients interleave, half an interval apart.
    let schedule = Schedule::per_second(
        sizes.serve_rate,
        client as u64 * (5e8 / sizes.serve_rate) as u64,
    );
    let open_requests = sizes.serve_open_requests as u64;
    let mut stream = Stream::new(plan, client);
    let mut tracer = Tracer::new(ctx.origin);
    let mut go = |i: u64, due: Option<Instant>| {
        let sent = send(addr, plan.seed, &stream.next());
        if traced {
            let id = request_id(client, i);
            let begin = due.map_or(sent.start, |due| due.min(sent.start));
            let root = tracer.record("serve.request", begin, sent.done, None, id);
            tracer.record("loadgen.wait", begin, sent.start, Some(root), id);
            tracer.record("serve.connect", sent.start, sent.connected, Some(root), id);
            tracer.record(sent.route.name(), sent.connected, sent.done, Some(root), id);
        }
        sent
    };
    let open = loadgen::open_loop(origin, schedule, open_requests, |i| {
        go(i, Some(origin + Duration::from_nanos(schedule.due_ns(i))))
    });
    let closed_range = open_requests..open_requests + sizes.serve_closed_requests as u64;
    let (closed, took) = loadgen::closed_loop(closed_range, |i| go(i, None));
    let run = ClientRun {
        open,
        closed,
        closed_s: took.as_secs_f64(),
    };
    (run, tracer.into_spans())
}

fn round(ctx: &mut Ctx, round: usize, traced: bool) -> Result<Round, Error> {
    let plan = Plan::new(mix(ctx.seed, round as u64), &ctx.sizes);
    let mut daemon = Child::spawn(&Task {
        role: "serve".to_string(),
    })?;
    let listening = daemon.read_until("listening on http://")?;
    let addr: SocketAddr = listening
        .split_whitespace()
        .next()
        .ok_or("no daemon address")?
        .parse()?;
    for w in 0..plan.workloads() {
        let target = format!("/push?workload={}", query_key(w));
        let [warm, offset] = plan.setup_pushes(w);
        let (_, first) = loadgen::exchange(addr, &loadgen::post(&target, &csv(&warm)))?;
        ctx.outcome
            .check(first.body.contains("\"action\":\"learned\""), || {
                format!("warm push to {} did not fit: {}", key(w), first.body)
            });
        let (_, second) = loadgen::exchange(addr, &loadgen::post(&target, &csv(&offset)))?;
        ctx.outcome
            .check(second.body.contains("\"state\":\"scored\""), || {
                format!("set-up push to {} did not score: {}", key(w), second.body)
            });
    }
    let setup_s = daemon.spawned.elapsed().as_secs_f64();

    let origin = Instant::now() + Duration::from_millis(5);
    let shared: &Ctx = ctx;
    let plan_ref = &plan;
    let runs: Vec<(ClientRun, Vec<trace::Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(addr, plan_ref, c, shared, origin, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut clients = Vec::new();
    for (run, spans) in runs {
        trace::append(&mut ctx.spans, spans, 0);
        clients.push(run);
    }

    let (daemon_rescores, daemon_relearns) = status_sums(addr, plan.workloads())?;
    loadgen::exchange(addr, &loadgen::post("/shutdown", ""))?;
    let DaemonResult { peak_rss_bytes } = daemon.finish()?;

    let sent: Vec<usize> = clients
        .iter()
        .map(|c| c.open.len() + c.closed.len())
        .collect();
    let mut tracer = Tracer::new(ctx.origin);
    let replay = replay(&plan, &sent, &mut tracer)?;
    if traced {
        trace::append(&mut ctx.spans, tracer.into_spans(), 0);
    }
    for c in &clients {
        let all = c.open.iter().map(|(_, s)| s).chain(&c.closed);
        let failed = all.filter(|s| !s.ok).count() as u64;
        ctx.outcome
            .attempt((c.open.len() + c.closed.len()) as u64, failed);
    }
    ctx.outcome.check(
        (daemon_rescores, daemon_relearns) == (replay.rescores, replay.relearns),
        || {
            format!(
                "round {round}: daemon /status rescores/relearns {daemon_rescores}/{daemon_relearns} \
                 != replay {}/{}",
                replay.rescores, replay.relearns
            )
        },
    );
    Ok(Round {
        setup_s,
        clients,
        replay,
        peak_rss_bytes,
    })
}

fn rounds(ctx: &mut Ctx, traced: bool) -> Result<Vec<Round>, Error> {
    let mut out = Vec::new();
    for r in 0..ctx.sizes.rounds {
        out.push(round(ctx, r, traced)?);
    }
    let late = late_p99_ms(&out);
    ctx.outcome.check(late <= MAX_LATE_P99_MS, || {
        format!(
            "load generator ran {late:.2} ms late at p99 (limit {MAX_LATE_P99_MS} ms): run invalid"
        )
    });
    Ok(out)
}

fn open(rounds: &[Round]) -> impl Iterator<Item = &(Timing, Sent)> {
    rounds
        .iter()
        .flat_map(|r| r.clients.iter().flat_map(|c| c.open.iter()))
}

fn late_p99_ms(rounds: &[Round]) -> f64 {
    let late: Vec<f64> = open(rounds)
        .filter_map(|(t, _)| t.late_ns())
        .map(|ns| ns as f64 * 1e-6)
        .collect();
    percentile(&late, 99.0)
}

/// Closed-loop requests and the wall they took (client-seconds shared
/// by the clients running side by side).
fn closed_requests_and_s(rounds: &[Round]) -> (f64, f64) {
    rounds
        .iter()
        .flat_map(|r| &r.clients)
        .fold((0.0, 0.0), |(n, s), c| {
            (n + c.closed.len() as f64, s + c.closed_s / CLIENTS as f64)
        })
}

pub fn run(ctx: &mut Ctx) -> Result<Vec<Metric>, Error> {
    let plain = rounds(ctx, false)?;
    if !ctx.traced {
        let mut m = Measured::default();
        for r in &plain {
            m.setup_s.push(r.setup_s);
            m.peak_rss_bytes.push(r.peak_rss_bytes as f64);
        }
        m.latency_ms = open(&plain)
            .map(|(t, _)| t.latency_ns() as f64 * 1e-6)
            .collect();
        (m.units, m.units_s) = closed_requests_and_s(&plain);
        return Ok(m.end_to_end());
    }

    let traced = rounds(ctx, true)?;
    let timings: Vec<&(Timing, Sent)> = open(&traced).collect();
    let queued: Vec<f64> = timings
        .iter()
        .filter_map(|(t, _)| t.queued_ns())
        .map(|ns| ns as f64 * 1e-6)
        .collect();
    let stalled = timings
        .iter()
        .filter(|(t, _)| t.latency_ns() > STALL_NS)
        .count();
    let connect: Vec<f64> = timings.iter().map(|(_, s)| s.connect_ms()).collect();
    let engine_ms = |calls: &[&str]| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|r| {
                calls
                    .iter()
                    .flat_map(|c| r.replay.call_ms.get(*c).into_iter().flatten())
            })
            .copied()
            .collect()
    };
    let total = |f: fn(&Replay) -> f64| traced.iter().map(|r| f(&r.replay)).sum::<f64>();
    let latency: Vec<f64> = timings
        .iter()
        .map(|(t, _)| t.latency_ns() as f64 * 1e-6)
        .collect();
    let tail = stats::tail(&latency);
    eprintln!(
        "open-loop latency tail: {} of {} samples",
        tail.label, tail.samples
    );
    let mut out = vec![
        metric("serve.latency_tail_ms", tail.value),
        metric("loadgen.late_p99_ms", late_p99_ms(&traced)),
        metric("serve.queue_p99_ms", percentile(&queued, 99.0)),
        metric(
            "serve.stalled_ratio",
            stalled as f64 / timings.len().max(1) as f64,
        ),
        metric("serve.connect_p50_ms", median(&connect)),
    ];
    for route in ROUTES {
        let name = route.name();
        let request: Vec<f64> = timings
            .iter()
            .filter(|(_, s)| s.route == route)
            .map(|(_, s)| s.exchange_ms())
            .collect();
        out.push(metric(
            &format!("serve.request_p50_ms.{name}"),
            median(&request),
        ));
        out.push(metric(
            &format!("serve.request_p99_ms.{name}"),
            percentile(&request, 99.0),
        ));
        out.push(metric(
            &format!("serve.http_overhead_p50_ms.{name}"),
            median(&request) - median(&engine_ms(route.engine_calls())),
        ));
    }
    for call in [
        "push_rescore",
        "push_relearn",
        "forecast",
        "read_page",
        "status",
    ] {
        let samples = engine_ms(&[format!("engine.{call}").as_str()]);
        out.push(metric(&format!("engine.{call}_p50_ms"), median(&samples)));
    }
    let (plain_n, plain_s) = closed_requests_and_s(&plain);
    let (traced_n, traced_s) = closed_requests_and_s(&traced);
    out.extend([
        metric("engine.rescores", total(|r| r.rescores as f64)),
        metric("engine.relearns", total(|r| r.relearns as f64)),
        metric("alerts.fired", total(|r| r.alerts as f64)),
        metric(
            "ingest.push_ns_per_point",
            total(|r| r.ingest_s) * 1e9 / total(|r| r.ingest_points as f64).max(1.0),
        ),
        // Closed-loop wall per request, traced over untraced.
        metric(
            "trace.overhead_ratio",
            (traced_s / traced_n.max(1.0)) / (plain_s / plain_n.max(1.0)) - 1.0,
        ),
    ]);
    Ok(out)
}
