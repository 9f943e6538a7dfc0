//! `dwcp serve`: the resident ingest→score→alert daemon over HTTP.
//!
//! The batch CLI answers one-shot questions; the paper's deployment story
//! (§8) is a *monitoring service*: agents push 15-minute samples, the
//! planner folds them into hourly aggregates, re-scores the stored
//! champion **frozen** as data arrives, and raises threshold alerts from
//! each fresh forecast. This module is that service — a hand-rolled
//! HTTP/1.1 front end over [`Engine`], built on `std` alone because the
//! build environment has no registry access. Each of a fixed pool of
//! workers owns a connection's whole life: it blocks in `accept` on the
//! shared listener, reads the request, routes it, sends the response in
//! one write and closes, so a request wakes one thread and changes no
//! hands. Connections waiting for a free worker queue in the kernel's
//! accept backlog, which bounds them. The engine sits behind a mutex
//! (scoring is CPU-bound and already parallel inside the evaluator, so
//! serialising requests at the engine is the right concurrency boundary).
//!
//! Endpoints (all responses are `application/json`):
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `GET /health` | liveness plus the known workload keys |
//! | `POST /push?workload=K` | CSV body, `timestamp,value` per line; folds into hourly buckets and runs **one** engine step |
//! | `GET /series?workload=K&cursor=N&limit=N` | one cursor page of hourly aggregates (`next_cursor` is `null` at the end) |
//! | `GET /forecast?workload=K` | the latest beyond-the-data forecast |
//! | `GET /alerts?workload=K` | the fired-alert log |
//! | `GET /status?workload=K` | ingest/score counters for one workload |
//! | `POST /shutdown` | drain in-flight requests and stop the daemon |
//!
//! Workload keys may contain `/` (e.g. `cdbm012/CPU`); percent-encode
//! them in query strings (`cdbm012%2FCPU`).

use crate::planner::advisor::BreachSeverity;
use crate::planner::protocol::{request_shutdown, serve_one};
use crate::planner::repository::RelearnReason;
use crate::planner::{
    CapacityAlert, Engine, LiveForecast, ScoreAction, ScoreSummary, StepOutcome, WorkloadStatus,
};
use crate::series::SeriesPage;
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Request headers larger than this are rejected.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Request bodies larger than this are rejected (a year of 15-minute
/// points is ~35k lines ≈ 700 KiB, so this is generous).
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// Per-connection socket timeout: a stalled client frees its worker.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);
/// Worker threads when the caller passes 0.
const DEFAULT_WORKERS: usize = 4;

/// A running `dwcp serve` daemon.
///
/// Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`] (or POST `/shutdown`) and then
/// [`ServerHandle::wait`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    signal: ShutdownSignal,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with `--addr 127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the server to stop accepting connections and drain.
    pub fn shutdown(&self) {
        self.signal.trigger();
    }

    /// Block until every worker has exited.
    pub fn wait(self) {
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// How a shutdown reaches the workers blocked in `accept`: set the flag,
/// then self-connect once per worker so each parked worker's `accept`
/// returns, serves the empty wake request a 400, and observes the flag.
/// The flag-before-wake ordering and the wake count are the drain-gate
/// protocol ([`crate::planner::protocol::request_shutdown`]),
/// model-checked in dwcp-core's `model_check` suite.
#[derive(Debug, Clone)]
struct ShutdownSignal {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
    workers: usize,
}

impl ShutdownSignal {
    fn trigger(&self) {
        request_shutdown(self.flag.as_ref(), self.workers, || {
            // The connect may fail once every worker is gone — fine.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        });
    }
}

/// Bind `addr` (e.g. `127.0.0.1:8000`, or port 0 for an ephemeral port)
/// and serve `engine` on `threads` workers (0 = a small default pool).
/// Returns once the listener is bound; the daemon runs on background
/// threads until `/shutdown` is posted or [`ServerHandle::shutdown`] runs.
pub fn start(engine: Engine, addr: &str, threads: usize) -> std::io::Result<ServerHandle> {
    let listener = Arc::new(TcpListener::bind(addr)?);
    let addr = listener.local_addr()?;
    let signal = ShutdownSignal {
        flag: Arc::new(AtomicBool::new(false)),
        addr,
        workers: worker_count(threads),
    };
    let engine = Arc::new(Mutex::new(engine));
    let workers = (0..signal.workers)
        .map(|_| {
            let listener = Arc::clone(&listener);
            let engine = Arc::clone(&engine);
            let signal = signal.clone();
            std::thread::spawn(move || worker_loop(&listener, &engine, &signal))
        })
        .collect();
    Ok(ServerHandle {
        addr,
        signal,
        workers,
    })
}

fn worker_count(threads: usize) -> usize {
    if threads == 0 {
        DEFAULT_WORKERS
    } else {
        threads.min(64)
    }
}

/// Accept and serve connections until the shutdown flag is set. Every
/// accepted connection is served *before* the flag is consulted
/// ([`crate::planner::protocol::serve_one`]): a real request racing the
/// shutdown trigger is answered rather than dropped, and the wake
/// connection the trigger makes for this worker takes the same path.
fn worker_loop(listener: &TcpListener, engine: &Mutex<Engine>, signal: &ShutdownSignal) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        if serve_one(signal.flag.as_ref(), || {
            handle_connection(&stream, engine, signal)
        }) {
            break;
        }
    }
}

/// One connection's whole exchange: read the request, route it, answer.
fn handle_connection(mut stream: &TcpStream, engine: &Mutex<Engine>, signal: &ShutdownSignal) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let (status, body, shutdown) = match parse_request(&mut BufReader::new(stream)) {
        Ok(request) => match route(engine, &request) {
            Action::Respond(status, value) => (status, value, false),
            Action::Shutdown(value) => (200, value, true),
        },
        Err(message) => (400, error_value(&message), false),
    };
    let _ = write_response(&mut stream, status, &body);
    if shutdown {
        signal.trigger();
    }
}

/// A parsed HTTP request: method, path, decoded query pairs, body text.
#[derive(Debug)]
struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    body: String,
}

impl Request {
    fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read one HTTP/1.1 request off the wire. Only the request line,
/// `Content-Length` and the body matter to this server.
fn parse_request<R: BufRead>(reader: &mut R) -> Result<Request, String> {
    let mut header_bytes = 0usize;
    let line = read_header_line(reader, &mut header_bytes, "read error")?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| "request line has no target".to_string())?;
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), parse_query(query)),
        None => (target.to_string(), Vec::new()),
    };
    let mut content_length = 0usize;
    loop {
        let header = read_header_line(reader, &mut header_bytes, "read error in headers")?;
        if header.is_empty() {
            return Err("connection closed mid-headers".to_string());
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "invalid Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err("body too large".to_string());
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("short body: {e}"))?;
    Ok(Request {
        method,
        path,
        query,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// Read the request line or one header line. The request line and the
/// headers share one `MAX_HEADER_BYTES` budget, `used` so far; the read
/// stops one byte past it, so a line that never ends costs bounded memory
/// before it is rejected.
fn read_header_line<R: BufRead>(
    reader: &mut R,
    used: &mut usize,
    context: &str,
) -> Result<String, String> {
    let mut line = String::new();
    let budget = (MAX_HEADER_BYTES + 1).saturating_sub(*used) as u64;
    *used += reader
        .by_ref()
        .take(budget)
        .read_line(&mut line)
        .map_err(|e| format!("{context}: {e}"))?;
    if *used > MAX_HEADER_BYTES {
        return Err("headers too large".to_string());
    }
    Ok(line)
}

/// Split `a=1&b=2` into decoded pairs.
fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Decode `%XX` escapes and `+` (so `cdbm012%2FCPU` names `cdbm012/CPU`).
fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'%' => {
                let decoded = match (bytes.get(i + 1), bytes.get(i + 2)) {
                    (Some(&hi), Some(&lo)) => {
                        match ((hi as char).to_digit(16), (lo as char).to_digit(16)) {
                            (Some(hi), Some(lo)) => Some((hi * 16 + lo) as u8),
                            _ => None,
                        }
                    }
                    _ => None,
                };
                match decoded {
                    Some(byte) => {
                        out.push(byte);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// What a routed request asks the worker to do.
enum Action {
    Respond(u16, Value),
    Shutdown(Value),
}

/// Dispatch one request against the shared engine.
fn route(engine: &Mutex<Engine>, request: &Request) -> Action {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            let engine = engine.lock().unwrap_or_else(|e| e.into_inner());
            let workloads = engine
                .workloads()
                .into_iter()
                .map(|k| Value::String(k.to_string()))
                .collect();
            Action::Respond(
                200,
                obj(vec![
                    ("status", Value::String("ok".to_string())),
                    ("workloads", Value::Array(workloads)),
                ]),
            )
        }
        ("POST", "/push") => match required_workload(request) {
            Ok(workload) => match parse_points(&request.body) {
                Ok(points) => {
                    let mut engine = engine.lock().unwrap_or_else(|e| e.into_inner());
                    match engine.push_batch(&workload, &points) {
                        Ok(outcome) => Action::Respond(
                            200,
                            obj(vec![
                                ("workload", Value::String(workload)),
                                ("accepted", Value::Number(points.len() as f64)),
                                ("outcome", step_value(&outcome)),
                            ]),
                        ),
                        Err(e) => Action::Respond(400, error_value(&e.to_string())),
                    }
                }
                Err(message) => Action::Respond(400, error_value(&message)),
            },
            Err(action) => action,
        },
        ("GET", "/series") => match required_workload(request) {
            Ok(workload) => {
                let cursor = match numeric_param(request, "cursor", 0) {
                    Ok(n) => n,
                    Err(action) => return action,
                };
                let limit = match numeric_param(request, "limit", 0) {
                    Ok(n) => n,
                    Err(action) => return action,
                };
                let engine = engine.lock().unwrap_or_else(|e| e.into_inner());
                match engine.read_page(&workload, cursor, limit) {
                    Some(page) => Action::Respond(200, page_value(&workload, &page)),
                    None => Action::Respond(404, error_value("unknown workload")),
                }
            }
            Err(action) => action,
        },
        ("GET", "/forecast") => match required_workload(request) {
            Ok(workload) => {
                let engine = engine.lock().unwrap_or_else(|e| e.into_inner());
                match engine.forecast(&workload) {
                    Some(forecast) => Action::Respond(200, forecast_value(&workload, forecast)),
                    None => {
                        Action::Respond(404, error_value("no forecast yet (push more data first)"))
                    }
                }
            }
            Err(action) => action,
        },
        ("GET", "/alerts") => match required_workload(request) {
            Ok(workload) => {
                let engine = engine.lock().unwrap_or_else(|e| e.into_inner());
                let alerts = engine.alerts(&workload).iter().map(alert_value).collect();
                Action::Respond(
                    200,
                    obj(vec![
                        ("workload", Value::String(workload)),
                        ("alerts", Value::Array(alerts)),
                    ]),
                )
            }
            Err(action) => action,
        },
        ("GET", "/status") => match required_workload(request) {
            Ok(workload) => {
                let engine = engine.lock().unwrap_or_else(|e| e.into_inner());
                match engine.status(&workload) {
                    Some(status) => Action::Respond(200, status_value(&status)),
                    None => Action::Respond(404, error_value("unknown workload")),
                }
            }
            Err(action) => action,
        },
        ("POST", "/shutdown") => Action::Shutdown(obj(vec![(
            "status",
            Value::String("shutting-down".to_string()),
        )])),
        _ => Action::Respond(404, error_value("no such endpoint")),
    }
}

fn required_workload(request: &Request) -> Result<String, Action> {
    match request.param("workload") {
        Some(w) if !w.is_empty() => Ok(w.to_string()),
        _ => Err(Action::Respond(
            400,
            error_value("missing ?workload= parameter"),
        )),
    }
}

fn numeric_param(request: &Request, name: &str, default: usize) -> Result<usize, Action> {
    match request.param(name) {
        None => Ok(default),
        Some(text) => text.parse().map_err(|_| {
            Action::Respond(400, error_value(&format!("?{name}= must be an integer")))
        }),
    }
}

/// Parse a CSV push body: one `timestamp,value` pair per line; `#` lines
/// and a non-numeric header row are skipped, blank/`nan` values are gaps.
fn parse_points(body: &str) -> Result<Vec<(u64, f64)>, String> {
    let mut points = Vec::new();
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((ts, value)) = line.split_once(',') else {
            return Err(format!("line {}: expected `timestamp,value`", lineno + 1));
        };
        let ts = match ts.trim().parse::<u64>() {
            Ok(ts) => ts,
            Err(_) if lineno == 0 => continue, // header row
            Err(_) => {
                return Err(format!(
                    "line {}: `{}` is not an epoch timestamp",
                    lineno + 1,
                    ts.trim()
                ))
            }
        };
        let value = value.trim();
        let value = if value.is_empty() || value.eq_ignore_ascii_case("nan") {
            f64::NAN
        } else {
            value
                .parse::<f64>()
                .map_err(|_| format!("line {}: `{value}` is not a number", lineno + 1))?
        };
        points.push((ts, value));
    }
    if points.is_empty() {
        return Err("no data points in request body".to_string());
    }
    Ok(points)
}

// --- JSON rendering (the vendored serde Value writes NaN/Inf as null) ---

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn error_value(message: &str) -> Value {
    obj(vec![("error", Value::String(message.to_string()))])
}

fn numbers(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|&v| Value::Number(v)).collect())
}

fn step_value(outcome: &StepOutcome) -> Value {
    match outcome {
        StepOutcome::NeedData { have, need } => obj(vec![
            ("state", Value::String("need-data".to_string())),
            ("have", Value::Number(*have as f64)),
            ("need", Value::Number(*need as f64)),
        ]),
        StepOutcome::Unchanged => obj(vec![("state", Value::String("unchanged".to_string()))]),
        StepOutcome::Scored(summary) => score_value(summary),
    }
}

fn score_value(summary: &ScoreSummary) -> Value {
    let (action, reason) = match &summary.action {
        ScoreAction::Learned => ("learned", Value::Null),
        ScoreAction::Rescored => ("rescored", Value::Null),
        ScoreAction::Relearned(reason) => (
            "relearned",
            Value::String(
                match reason {
                    RelearnReason::Missing => "missing",
                    RelearnReason::Stale => "stale",
                    RelearnReason::Degraded => "degraded",
                }
                .to_string(),
            ),
        ),
    };
    obj(vec![
        ("state", Value::String("scored".to_string())),
        ("action", Value::String(action.to_string())),
        ("relearn_reason", reason),
        ("champion", Value::String(summary.champion.clone())),
        ("live_rmse", Value::Number(summary.live_rmse)),
        ("baseline_rmse", Value::Number(summary.baseline_rmse)),
        (
            "alerts",
            Value::Array(summary.alerts.iter().map(alert_value).collect()),
        ),
    ])
}

fn page_value(workload: &str, page: &SeriesPage) -> Value {
    obj(vec![
        ("workload", Value::String(workload.to_string())),
        ("cursor", Value::Number(page.cursor as f64)),
        ("total", Value::Number(page.total as f64)),
        (
            "timestamps",
            Value::Array(
                page.timestamps
                    .iter()
                    .map(|&t| Value::Number(t as f64))
                    .collect(),
            ),
        ),
        ("values", numbers(&page.values)),
        (
            "next_cursor",
            match page.next_cursor {
                Some(next) => Value::Number(next as f64),
                None => Value::Null,
            },
        ),
    ])
}

fn forecast_value(workload: &str, forecast: &LiveForecast) -> Value {
    obj(vec![
        ("workload", Value::String(workload.to_string())),
        ("start", Value::Number(forecast.start as f64)),
        ("step_seconds", Value::Number(forecast.step_seconds as f64)),
        ("level", Value::Number(forecast.forecast.level)),
        ("mean", numbers(&forecast.forecast.mean)),
        ("lower", numbers(&forecast.forecast.lower)),
        ("upper", numbers(&forecast.forecast.upper)),
    ])
}

fn alert_value(alert: &CapacityAlert) -> Value {
    obj(vec![
        ("workload", Value::String(alert.workload.clone())),
        ("rule", Value::String(alert.rule.clone())),
        ("threshold", Value::Number(alert.threshold)),
        (
            "severity",
            Value::String(
                match alert.severity {
                    BreachSeverity::Expected => "expected",
                    BreachSeverity::Possible => "possible",
                }
                .to_string(),
            ),
        ),
        ("step", Value::Number(alert.step as f64)),
        ("timestamp", Value::Number(alert.timestamp as f64)),
        ("forecast_mean", Value::Number(alert.forecast_mean)),
        ("forecast_upper", Value::Number(alert.forecast_upper)),
    ])
}

fn status_value(status: &WorkloadStatus) -> Value {
    obj(vec![
        ("workload", Value::String(status.workload.clone())),
        ("points", Value::Number(status.points as f64)),
        ("late", Value::Number(status.late as f64)),
        (
            "complete_hours",
            Value::Number(status.complete_hours as f64),
        ),
        ("scored_hours", Value::Number(status.scored_hours as f64)),
        (
            "champion",
            match &status.champion {
                Some(c) => Value::String(c.clone()),
                None => Value::Null,
            },
        ),
        (
            "live_rmse",
            status.live_rmse.map_or(Value::Null, Value::Number),
        ),
        (
            "baseline_rmse",
            status.baseline_rmse.map_or(Value::Null, Value::Number),
        ),
        ("rescores", Value::Number(status.rescores as f64)),
        ("relearns", Value::Number(status.relearns as f64)),
        ("alerts_fired", Value::Number(status.alerts_fired as f64)),
    ])
}

/// Send one response — status line, headers and body rendered into one
/// buffer — with a single `write_all`.
fn write_response(out: &mut impl Write, status: u16, body: &Value) -> std::io::Result<()> {
    let text = body.to_json();
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    };
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        text.len()
    );
    response.push_str(&text);
    out.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{EngineConfig, MethodChoice, PipelineConfig};
    use proptest::prelude::*;
    use std::io::{Cursor, Read};
    use std::sync::mpsc;

    /// How long a test client waits on the daemon before failing.
    const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("cdbm012%2FCPU"), "cdbm012/CPU");
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%"); // truncated escape kept
        assert_eq!(percent_decode("plain"), "plain");
    }

    #[test]
    fn query_pairs_decode() {
        let q = parse_query("workload=db%2FCPU&cursor=5&flag");
        assert_eq!(q[0], ("workload".to_string(), "db/CPU".to_string()));
        assert_eq!(q[1], ("cursor".to_string(), "5".to_string()));
        assert_eq!(q[2], ("flag".to_string(), String::new()));
    }

    #[test]
    fn request_parse_with_body() {
        let raw = "POST /push?workload=db1 HTTP/1.1\r\nHost: x\r\n\
                   Content-Length: 9\r\n\r\n0,1.5\n1,2";
        let request = parse_request(&mut Cursor::new(raw)).unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/push");
        assert_eq!(request.param("workload"), Some("db1"));
        assert_eq!(request.body, "0,1.5\n1,2");
    }

    #[test]
    fn request_parse_rejects_garbage() {
        assert!(parse_request(&mut Cursor::new("\r\n")).is_err());
        assert!(parse_request(&mut Cursor::new("GET\r\n\r\n")).is_err());
        let huge = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(parse_request(&mut Cursor::new(huge)).is_err());
    }

    #[test]
    fn push_body_parses_and_validates() {
        let points =
            parse_points("timestamp,value\n0,1.5\n# gap\n900,\n1800,nan\n2700,3\n").unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0], (0, 1.5));
        assert!(points[1].1.is_nan());
        assert!(points[2].1.is_nan());
        assert_eq!(points[3], (2700, 3.0));
        assert!(parse_points("").is_err());
        assert!(parse_points("justonefield\n").is_err());
        assert!(parse_points("0,1\nnot_a_ts,2\n").is_err());
    }

    /// Raw round-trip helper: one request, full response text back.
    fn http(addr: std::net::SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn daemon_serves_health_and_shuts_down_cleanly() {
        let config = EngineConfig::new(PipelineConfig::hourly(MethodChoice::Hes));
        let handle = start(Engine::new(config), "127.0.0.1:0", 2).unwrap();
        let addr = handle.addr();

        // Status line, headers and body, byte for byte.
        let response = |status_line: &str, body: &str| {
            format!(
                "{status_line}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            )
        };
        let health = http(addr, "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(
            health,
            response("HTTP/1.1 200 OK", r#"{"status":"ok","workloads":[]}"#)
        );

        let missing = http(
            addr,
            "GET /status?workload=nope HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        let bad = http(addr, "GET /series HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(
            bad,
            response(
                "HTTP/1.1 400 Bad Request",
                r#"{"error":"missing ?workload= parameter"}"#
            )
        );

        let push = http(
            addr,
            "POST /push?workload=db1 HTTP/1.1\r\nHost: x\r\nContent-Length: 6\r\n\r\n0,50.0",
        );
        assert!(push.starts_with("HTTP/1.1 200"), "{push}");
        assert!(push.contains("\"state\":\"need-data\""), "{push}");

        let bye = http(addr, "POST /shutdown HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(bye.contains("shutting-down"), "{bye}");
        handle.wait();
    }

    /// A writer that counts its `write` calls and keeps what they carried.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_goes_out_in_one_write() {
        let ok = obj(vec![("status", Value::String("ok".to_string()))]);
        for (status, body) in [
            (200, ok),
            (400, error_value("empty request line")),
            (404, error_value("no such endpoint")),
        ] {
            let mut out = CountingWriter::default();
            write_response(&mut out, status, &body).unwrap();
            assert_eq!(out.writes, 1, "status {status}");
            let text = String::from_utf8(out.bytes).unwrap();
            assert!(text.starts_with(&format!("HTTP/1.1 {status} ")), "{text}");
            assert!(
                text.ends_with(&format!("\r\n\r\n{}", body.to_json())),
                "{text}"
            );
        }
    }

    /// How a test asks the daemon to stop.
    #[derive(Clone, Copy)]
    enum Stop {
        Post,
        Handle,
    }

    /// Stop a 4-worker daemon while every worker waits in `accept`, or while
    /// one is mid-request: the request in flight is answered, and every
    /// worker exits within the client timeout.
    fn daemon_drains(stop: Stop, mid_request: bool) {
        let config = EngineConfig::new(PipelineConfig::hourly(MethodChoice::Hes));
        let handle = start(Engine::new(config), "127.0.0.1:0", 4).unwrap();
        let addr = handle.addr();
        let health = "GET /health HTTP/1.1\r\nHost: x\r\n\r\n";
        assert!(http(addr, health).starts_with("HTTP/1.1 200 OK"));
        // Connected before the stop, so it queues ahead of the wake
        // connections; its worker blocks reading the unfinished headers.
        let in_flight = mid_request.then(|| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
            stream.write_all(b"GET /health HTTP/1.1\r\n").unwrap();
            stream
        });
        match stop {
            Stop::Post => {
                let bye = http(addr, "POST /shutdown HTTP/1.1\r\nHost: x\r\n\r\n");
                assert!(bye.contains("shutting-down"), "{bye}");
            }
            Stop::Handle => handle.shutdown(),
        }
        if let Some(mut stream) = in_flight {
            stream.write_all(b"Host: x\r\n\r\n").unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        }
        let (exited, waited) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            handle.wait();
            let _ = exited.send(());
        });
        waited
            .recv_timeout(CLIENT_TIMEOUT)
            .expect("a worker outlived the shutdown");
        waiter.join().unwrap();
    }

    #[test]
    fn post_shutdown_stops_idle_workers() {
        daemon_drains(Stop::Post, false);
    }

    #[test]
    fn post_shutdown_answers_the_request_in_flight_then_stops() {
        daemon_drains(Stop::Post, true);
    }

    #[test]
    fn handle_shutdown_stops_idle_workers() {
        daemon_drains(Stop::Handle, false);
    }

    #[test]
    fn handle_shutdown_answers_the_request_in_flight_then_stops() {
        daemon_drains(Stop::Handle, true);
    }

    // --- Properties of the request reader ---

    /// A reader that hands its bytes out in chunks of the given sizes, in
    /// turn, as a socket may.
    struct SplitReader {
        data: Vec<u8>,
        pos: usize,
        sizes: Vec<usize>,
        turn: usize,
    }

    impl Read for SplitReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let size = self.sizes[self.turn % self.sizes.len()];
            self.turn += 1;
            let rest = &self.data[self.pos..];
            let n = size.min(buf.len()).min(rest.len());
            buf[..n].copy_from_slice(&rest[..n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// The parsed fields, for comparing two parses.
    fn fields(request: &Request) -> (&str, &str, &[(String, String)], &str) {
        (
            &request.method,
            &request.path,
            &request.query,
            &request.body,
        )
    }

    /// The status a parsed request gets from a fresh engine.
    fn routed_status(request: &Request) -> u16 {
        let config = EngineConfig::new(PipelineConfig::hourly(MethodChoice::Hes));
        match route(&Mutex::new(Engine::new(config)), request) {
            Action::Respond(status, _) => status,
            Action::Shutdown(_) => 200,
        }
    }

    fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0u8..=255, len)
    }

    /// A well-formed request: every query byte percent-encoded, and a body
    /// of arbitrary bytes under its Content-Length (header name in any case).
    fn encode_request(
        method: &str,
        path: &str,
        query: &[(Vec<u8>, Vec<u8>)],
        length_name: &str,
        body: &[u8],
    ) -> Vec<u8> {
        let encode = |raw: &[u8]| raw.iter().map(|b| format!("%{b:02X}")).collect::<String>();
        let query: Vec<String> = query
            .iter()
            .map(|(k, v)| format!("{}={}", encode(k), encode(v)))
            .collect();
        let mut raw = format!(
            "{method} {path}?{} HTTP/1.1\r\nHost: x\r\n{length_name}: {}\r\n\r\n",
            query.join("&"),
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(body);
        raw
    }

    /// A request's wire bytes with the fields it must parse into.
    type WireRequest = (Vec<u8>, String, String, Vec<(String, String)>, String);

    fn valid_request() -> impl Strategy<Value = WireRequest> {
        (
            prop::sample::select(vec!["GET", "POST", "PUT"]),
            prop::sample::select(vec![
                "/health",
                "/push",
                "/series",
                "/forecast",
                "/alerts",
                "/status",
                "/shutdown",
                "/nope",
            ]),
            prop::collection::vec((bytes(0..6), bytes(0..6)), 0..4),
            prop::sample::select(vec!["Content-Length", "content-length", "CONTENT-LENGTH"]),
            bytes(0..200),
        )
            .prop_map(|(method, path, query, length_name, body)| {
                let raw = encode_request(method, path, &query, length_name, &body);
                let lossy = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
                let query = query.iter().map(|(k, v)| (lossy(k), lossy(v))).collect();
                let body = lossy(&body);
                (raw, method.to_string(), path.to_string(), query, body)
            })
    }

    fn assert_routable(request: &Request) {
        let status = routed_status(request);
        assert!(status == 200 || (400..500).contains(&status), "{status}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn random_and_corrupted_bytes_never_panic_and_parse_only_into_routable_requests(
            raw in bytes(0..400),
            request in valid_request(),
            noise in prop::collection::vec((0.0f64..1.0, 0u8..=255), 0..4),
            corrupt in prop::bool::ANY,
        ) {
            let input = if corrupt {
                // A valid request with a few bytes overwritten.
                let mut input = request.0;
                for (at, byte) in noise {
                    let at = (at * input.len() as f64) as usize;
                    if let Some(slot) = input.get_mut(at) {
                        *slot = byte;
                    }
                }
                input
            } else {
                raw
            };
            if let Ok(request) = parse_request(&mut Cursor::new(input)) {
                assert_routable(&request);
            }
        }

        #[test]
        fn a_valid_request_parses_the_same_whatever_the_split(
            request in valid_request(),
            sizes in prop::collection::vec(1usize..24, 1..6),
            capacity in 1usize..64,
        ) {
            let (raw, method, path, query, body) = request;
            let whole = parse_request(&mut Cursor::new(raw.clone())).unwrap();
            let want = (method.as_str(), path.as_str(), &query[..], body.as_str());
            prop_assert_eq!(fields(&whole), want);
            let reader = SplitReader { data: raw, pos: 0, sizes, turn: 0 };
            let split = parse_request(&mut BufReader::with_capacity(capacity, reader)).unwrap();
            prop_assert_eq!(fields(&split), want);
            assert_routable(&whole);
        }

        #[test]
        fn every_strict_prefix_of_a_request_with_a_body_is_an_error(
            request in valid_request(),
            cut in 0.0f64..1.0,
        ) {
            let (raw, _, _, _, body) = request;
            prop_assume!(!body.is_empty());
            let cut = (cut * raw.len() as f64) as usize;
            let prefix = raw.get(..cut).unwrap_or_default();
            prop_assert!(parse_request(&mut Cursor::new(prefix)).is_err(), "cut at {}", cut);
        }

        #[test]
        fn non_utf8_request_and_header_lines_are_errors(
            at in 0usize..24,
            byte in 0x80u8..0xC0,
            in_header in prop::bool::ANY,
        ) {
            // A lone continuation byte is never valid UTF-8.
            let (mut line, head, tail): (Vec<u8>, &[u8], &[u8]) = if in_header {
                (b"X-Agent: collector/1.2.3".to_vec(), b"GET /health HTTP/1.1\r\n", b"\r\n\r\n")
            } else {
                (b"GET /health?workload=db HTTP/1.1".to_vec(), b"", b"\r\n\r\n")
            };
            line.insert(at.min(line.len()), byte);
            let raw = [head, &line, tail].concat();
            prop_assert!(parse_request(&mut Cursor::new(raw)).is_err());
        }

        #[test]
        fn oversized_header_lines_are_rejected_after_a_bounded_read(
            excess in 1usize..64 * 1024,
            in_request_line in prop::bool::ANY,
            terminated in prop::bool::ANY,
        ) {
            let long = "a".repeat(MAX_HEADER_BYTES + excess);
            let mut raw = if in_request_line {
                format!("GET /{long}")
            } else {
                format!("GET / HTTP/1.1\r\nX-Long: {long}")
            };
            if terminated {
                raw.push_str("\r\n\r\n");
            }
            let mut input = Cursor::new(raw.into_bytes());
            let error = parse_request(&mut input).unwrap_err();
            prop_assert_eq!(error.as_str(), "headers too large");
            // The rest of the line was never buffered.
            prop_assert!(input.position() as usize <= MAX_HEADER_BYTES + 1);
        }

        #[test]
        fn too_many_headers_and_oversized_bodies_are_errors(
            headers in 1usize..400,
            length in (MAX_BODY_BYTES as u64 + 1)..u64::MAX,
        ) {
            let pad = "X-Pad: 0123456789abcdef0123456789abcdef0123456789abcdef\r\n";
            let raw = format!(
                "POST /push?workload=db HTTP/1.1\r\n{}Content-Length: {length}\r\n\r\n",
                pad.repeat(headers)
            );
            let error = parse_request(&mut Cursor::new(raw.as_bytes())).unwrap_err();
            let want = if raw.len() > MAX_HEADER_BYTES {
                "headers too large"
            } else {
                "body too large"
            };
            prop_assert_eq!(error.as_str(), want);
        }
    }

    /// One line of a generated push body and what it must parse into.
    #[derive(Debug, Clone)]
    enum BodyLine {
        /// A `timestamp,value` line and the point it carries (a NaN value
        /// stands for any NaN).
        Point(String, (u64, f64)),
        /// A comment or blank line, skipped anywhere.
        Skipped(String),
        /// A line whose timestamp is no epoch second: a header as the
        /// body's first line, an error anywhere else.
        BadTimestamp(String),
        /// A line no position makes acceptable.
        Bad(String),
    }

    /// A value spelling and the number it denotes: shortest, exponent and
    /// debug forms of a finite draw, integers (some with thousands of
    /// leading zeros), and blank, `nan`, `inf` and `infinity` spellings.
    fn value_text() -> impl Strategy<Value = (String, f64)> {
        let non_finite = vec![
            ("", f64::NAN),
            ("nan", f64::NAN),
            ("NaN", f64::NAN),
            ("inf", f64::INFINITY),
            ("-inf", f64::NEG_INFINITY),
            ("+inf", f64::INFINITY),
            ("infinity", f64::INFINITY),
            ("-Infinity", f64::NEG_INFINITY),
            ("-INFINITY", f64::NEG_INFINITY),
        ];
        (
            -1e9f64..1e9,
            0usize..6,
            prop::sample::select(non_finite),
            0usize..5000,
        )
            .prop_map(|(v, form, (text, special), zeros)| match form {
                0 => (format!("{v}"), v),
                1 => (format!("{v:e}"), v),
                2 => (format!("{v:?}"), v),
                3 => {
                    let n = v.abs().trunc();
                    (format!("{}{n}", "0".repeat(zeros)), n)
                }
                _ => (text.to_string(), special),
            })
    }

    fn body_line() -> impl Strategy<Value = BodyLine> {
        let bad = vec![
            "no comma here",
            "12abc",
            "1.2.3",
            "--1",
            "0x10",
            "1e",
            "inf inity",
            "1,5",
            "nan?",
        ];
        (
            0u64..72 * 3_600,
            value_text(),
            0usize..20,
            prop::sample::select(bad),
            prop::bool::ANY,
        )
            .prop_map(|(offset, (value, number), kind, junk, padded)| {
                let ts = 1_600_000_000 + offset;
                let pad = if padded { "  " } else { "" };
                match kind {
                    0 => BodyLine::Skipped(String::new()),
                    1 => BodyLine::Skipped(format!("# {junk}")),
                    2 => BodyLine::BadTimestamp(format!("{junk},{value}")),
                    3 => BodyLine::BadTimestamp(format!("{},{value}", "9".repeat(30))),
                    4 => BodyLine::Bad(format!("{ts},{junk}")),
                    5 => BodyLine::Bad("9".repeat(4096 + offset as usize % 4096)),
                    _ => BodyLine::Point(format!("{pad}{ts}{pad},{pad}{value}{pad}"), (ts, number)),
                }
            })
    }

    /// What `parse_points` must return for `lines`: the points in order,
    /// or an error if any line is bad where it stands or none carries a
    /// point.
    fn expected_points(lines: &[BodyLine]) -> Option<Vec<(u64, f64)>> {
        let mut points = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            match line {
                BodyLine::Point(_, point) => points.push(*point),
                BodyLine::Skipped(_) => {}
                BodyLine::BadTimestamp(_) if i == 0 => {}
                BodyLine::BadTimestamp(_) | BodyLine::Bad(_) => return None,
            }
        }
        (!points.is_empty()).then_some(points)
    }

    fn same_point(got: (u64, f64), want: (u64, f64)) -> bool {
        got.0 == want.0
            && (got.1.to_bits() == want.1.to_bits() || (got.1.is_nan() && want.1.is_nan()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn push_bodies_parse_into_exactly_the_points_written(
            lines in prop::collection::vec(body_line(), 0..40),
            header in prop::bool::ANY,
            crlf in prop::bool::ANY,
        ) {
            let mut lines = lines;
            if header {
                lines.insert(0, BodyLine::BadTimestamp("timestamp,value".to_string()));
            }
            let text: Vec<&str> = lines
                .iter()
                .map(|line| match line {
                    BodyLine::Point(text, _)
                    | BodyLine::Skipped(text)
                    | BodyLine::BadTimestamp(text)
                    | BodyLine::Bad(text) => text.as_str(),
                })
                .collect();
            let body = text.join(if crlf { "\r\n" } else { "\n" });
            match (parse_points(&body), expected_points(&lines)) {
                (Ok(got), Some(want)) => {
                    prop_assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        prop_assert!(same_point(*g, *w), "{:?} vs {:?}", g, w);
                    }
                }
                (Err(e), None) => prop_assert!(!e.is_empty()),
                (got, want) => prop_assert!(false, "{:?} vs {:?} for {:?}", got, want, body),
            }
        }

        #[test]
        fn random_push_bodies_never_panic(raw in bytes(0..600)) {
            // Every input is a list of points or an error message.
            match parse_points(&String::from_utf8_lossy(&raw)) {
                Ok(points) => prop_assert!(!points.is_empty()),
                Err(e) => prop_assert!(!e.is_empty()),
            }
        }

        #[test]
        fn non_finite_points_are_counted_missing_and_never_summed(
            lines in prop::collection::vec(body_line(), 1..60),
        ) {
            let points: Vec<(u64, f64)> = lines
                .iter()
                .filter_map(|line| match line {
                    BodyLine::Point(_, point) => Some(*point),
                    _ => None,
                })
                .collect();
            prop_assume!(!points.is_empty());
            let config = EngineConfig::new(PipelineConfig::hourly(MethodChoice::Hes));
            let mut engine = Engine::new(config);
            engine.push_batch("db", &points).unwrap();
            let status = engine.status("db").unwrap();
            let missing = points.iter().filter(|(_, v)| !v.is_finite()).count();
            prop_assert_eq!(status.points, points.len() as u64);
            prop_assert_eq!(status.missing, missing as u64);
            // Each complete hour is the mean of its finite points, summed
            // in arrival order; an hour of non-finite points only is a gap.
            let first = points.iter().map(|p| p.0 / 3_600).min().unwrap_or(0);
            let last = points.iter().map(|p| p.0 / 3_600).max().unwrap_or(0);
            let page = engine.read_page("db", 0, 4096).unwrap();
            prop_assert_eq!(page.values.len() as u64, last - first);
            for (hour, got) in (first..last).zip(&page.values) {
                let (mut sum, mut count) = (0.0, 0u32);
                for &(_, v) in points.iter().filter(|p| p.0 / 3_600 == hour) {
                    if v.is_finite() {
                        sum += v;
                        count += 1;
                    }
                }
                let want = if count == 0 { f64::NAN } else { sum / f64::from(count) };
                prop_assert!(same_point((hour, *got), (hour, want)), "hour {}", hour);
            }
        }
    }
}
