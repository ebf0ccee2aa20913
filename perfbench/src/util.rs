//! Small shared pieces: argument lookup, percentiles, peak-memory reads,
//! child-process roles, and the metric report every workload fills in.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The value following `flag` in `args`, if present.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Prints a line and flushes: the parent reads role stdout line by line.
pub fn emit(line: &str) {
    println!("{line}");
    std::io::stdout().flush().ok();
}

/// Milliseconds of a duration as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of `samples` (`q` in 0..=100); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The client-observed latency metrics: each verb's p50 (end to end)
/// and its tails under `client.` — p90, p99 where at least ten samples
/// lie beyond it, and the maximum.
pub fn put_latencies(report: &mut Report, pull_ms: &[f64], push_ms: &[f64]) {
    for (verb, samples) in [("pull", pull_ms), ("push", push_ms)] {
        let n = samples.len();
        report.put(&format!("{verb}_p50_ms"), median(samples), "ms", n);
        let p90 = percentile(samples, 90.0);
        report.put(&format!("client.{verb}_p90_ms"), p90, "ms", n);
        let name = format!("client.{verb}_p99_ms");
        if n >= 1000 {
            report.put(&name, percentile(samples, 99.0), "ms", n);
        } else {
            report.put_note(&name, 0.0, "ms", n, "under 1,000 samples: no p99");
        }
        let max = samples.iter().copied().fold(0.0, f64::max);
        report.put(&format!("client.{verb}_max_ms"), max, "ms", n);
    }
}

/// Peak resident set (`VmHWM`) of this process in MB, 0 when unreadable.
pub fn own_peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric as reported: value, unit, and how many samples stand
/// behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub note: String,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.put_note(name, value, unit, samples, "");
    }

    pub fn put_note(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
                note: note.to_string(),
            },
        );
    }

    /// Records an output check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable lines: one per metric with unit and sample count.
    pub fn print_table(&self, workload: &str) {
        for (name, m) in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", m.note)
            };
            emit(&format!(
                "{workload:14} {name:32} {:>14.4} {:6} n={}{note}",
                m.value, m.unit, m.samples
            ));
        }
        let rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        emit(&format!(
            "{workload:14} {:32} {rate:>14.6} {:6} n={}",
            "error_rate", "ratio", self.attempted
        ));
        for f in &self.failures {
            emit(&format!("{workload:14} CHECK FAILED: {f}"));
        }
    }

    /// The result object, restricted to `names` (a missing metric fails
    /// the run).
    pub fn json(&mut self, names: &[(&str, &str)]) -> String {
        for (n, _) in names {
            if !self.metrics.contains_key(*n) {
                self.failures.push(format!("metric {n} was not measured"));
            }
        }
        let metrics: Vec<String> = names
            .iter()
            .map(|(n, unit)| {
                let value = self.metrics.get(*n).map_or(0.0, |m| m.value);
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; non-finite values (never expected) become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A child process of this binary running one protocol role, with its
/// stdout read line by line (`LISTENING <addr>`, `STATS k=v ...`).
pub struct Role {
    pub name: String,
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Role {
    pub fn spawn(name: &str, args: &[String]) -> Role {
        let exe = std::env::current_exe().expect("current_exe");
        let mut child = Command::new(exe)
            .arg("role")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Role {
            name: name.to_string(),
            child,
            stdin,
            stdout,
        }
    }

    /// Reads the child's `LISTENING <addr>` line.
    pub fn listening_addr(&mut self) -> String {
        let mut line = String::new();
        self.stdout.read_line(&mut line).ok();
        line.trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("{} printed {line:?}, want LISTENING", self.name))
            .to_string()
    }

    pub fn has_exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    /// Closes the child's stdin (its stop signal), waits for it to exit
    /// (killing it past `deadline`) and returns its parsed `STATS`
    /// fields; empty when it printed none.
    pub fn finish(mut self, deadline: Instant) -> BTreeMap<String, String> {
        drop(self.stdin.take());
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() >= deadline => {
                    eprintln!("perfbench: {} overran its budget; killing", self.name);
                    self.child.kill().ok();
                    self.child.wait().ok();
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break,
            }
        }
        let mut stats = BTreeMap::new();
        for line in self.stdout.lines().map_while(Result::ok) {
            if let Some(rest) = line.strip_prefix("STATS ") {
                for tok in rest.split_whitespace() {
                    if let Some((k, v)) = tok.split_once('=') {
                        stats.insert(k.to_string(), v.to_string());
                    }
                }
            }
        }
        stats
    }

    /// Kills the child now and waits for it.
    pub fn kill(mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// A numeric `STATS` field, 0 when missing.
pub fn stat(stats: &BTreeMap<String, String>, key: &str) -> f64 {
    stats.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}
