//! Child processes. The program under test runs in a re-executed child of
//! the benchmark, so the child's `VmHWM` is the program's peak RSS alone
//! and no load-generator state shares its heap.
//!
//! Protocol: the task travels as JSON in an environment variable; the
//! child prints `READY` once its set-up is done and `RESULT {json}` at the
//! end, both on stdout. The `dwcp serve` child prints the daemon's own
//! `listening on` line instead of `READY`.

use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Write};
use std::process::{ChildStdout, Command, Stdio};
use std::time::Instant;

/// Environment variable carrying a child's task.
pub const TASK_ENV: &str = "DWCP_BENCHMARK_TASK";

pub type Error = Box<dyn std::error::Error>;

/// A running child. Dropping it kills the process if it is still running
/// and always waits for it.
pub struct Child {
    process: std::process::Child,
    stdout: BufReader<ChildStdout>,
    /// When the child was spawned, for set-up times and trace offsets.
    pub spawned: Instant,
}

impl Child {
    /// Re-execute this binary with `task` as its job.
    pub fn spawn(task: &impl Serialize) -> Result<Child, Error> {
        let mut command = Command::new(std::env::current_exe()?);
        if cfg!(test) {
            // Under `cargo test` the executable is the test harness: run
            // only the test that dispatches child tasks.
            command.args(["--exact", "tests::child_entry", "--nocapture", "-q"]);
        }
        command
            .env(TASK_ENV, serde_json::to_string(task)?)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let spawned = Instant::now();
        let mut process = command.spawn()?;
        let stdout = process.stdout.take().ok_or("child has no stdout")?;
        Ok(Child {
            process,
            stdout: BufReader::new(stdout),
            spawned,
        })
    }

    /// Read stdout until a line containing `marker`; returns what follows
    /// the marker on that line.
    pub fn read_until(&mut self, marker: &str) -> Result<String, Error> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                return Err(format!("child exited before printing `{marker}`").into());
            }
            if let Some(at) = line.find(marker) {
                return Ok(line[at + marker.len()..].trim().to_string());
            }
        }
    }

    /// Wait for the `RESULT` line and a clean exit.
    pub fn finish<T: Deserialize>(mut self) -> Result<T, Error> {
        let json = self.read_until("RESULT ")?;
        let status = self.process.wait()?;
        if !status.success() {
            return Err(format!("child exited with {status}").into());
        }
        Ok(serde_json::from_str(&json)?)
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        // Errors mean the child is already gone.
        let _ = self.process.kill();
        let _ = self.process.wait();
    }
}

/// Child side: set-up is done.
pub fn ready() {
    println!("READY");
    let _ = std::io::stdout().flush();
}

/// Child side: report the result.
pub fn result(value: &impl Serialize) -> Result<(), Error> {
    println!("RESULT {}", serde_json::to_string(value)?);
    std::io::stdout().flush()?;
    Ok(())
}

/// This process's peak resident set size (`VmHWM`) in bytes; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}
