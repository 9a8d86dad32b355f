//! What a run prints: provenance, one line per metric (name, value, unit
//! and the samples behind it), and the final JSON line.

use std::fmt::Write as _;
use std::path::Path;

use crate::stats;
use crate::workloads::{Inputs, Measurement, Op, CLIENTS};
use crate::Args;

/// The end-to-end metrics of the final JSON line, in order.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "query_p50_us",
    "query_p99_us",
    "count_p50_us",
    "count_p99_us",
    "probes_per_s",
    "resident_bytes",
];

/// Value printed for a timing whose percentile falls on a missed request.
const MISSED_JSON: f64 = 1e12;

#[derive(Debug)]
pub struct Report {
    lines: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
}

impl Report {
    pub fn new(args: &Args, cores: usize) -> Report {
        let mut r = Report {
            lines: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
        };
        r.note(format!(
            "provenance workload={} seed={} seconds={} trace={} cores={} git_revision={} source_fnv={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            cores,
            git_revision(),
            source_fingerprint(),
        ));
        r
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Records a metric of the final JSON line, with what it rests on.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, basis: String) {
        self.note(format!("metric {name} = {value} {unit} ({basis})"));
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a count (unit `count`).
    pub fn metric_count(&mut self, name: &str, value: f64, basis: String) {
        self.metric(name, value, "count", basis);
    }

    /// Records a timing metric: per window the p50 (`tail = false`) or the
    /// p99 (`tail = true`), then the median over the windows.  When the
    /// windows are too small for a p99, the tail is the whole run's highest
    /// percentile up to p99 with ten samples beyond it.
    pub fn timing(&mut self, name: &str, m: &Measurement, op: Op, tail: bool) {
        let mut per_window = Vec::new();
        let mut percentiles = Vec::new();
        for w in &m.windows {
            let samples = w.op(op);
            let point = if tail {
                samples.tail().filter(|&(p, _)| p >= 99.0)
            } else {
                Some((50.0, samples.median()))
            };
            if let Some((p, v)) = point {
                per_window.push(v);
                percentiles.push(p);
            }
        }
        let all = m.all(|w| w.op(op));
        if tail && per_window.is_empty() {
            let (p, v) = all.tail().unwrap_or((f64::NAN, f64::NAN));
            let basis = format!(
                "p{p} of {} samples over the whole run, {} missed",
                all.len(),
                all.missed()
            );
            self.metric(name, v, "us", basis);
            return;
        }
        let basis = if m.windows.len() == 1 {
            format!(
                "p{} of {} samples, {} missed",
                percentiles.first().copied().unwrap_or(f64::NAN),
                all.len(),
                all.missed()
            )
        } else {
            format!(
                "median over {} windows of each window's p{}; \
                 {} samples, {} missed; whole-run p{} = {}; windows {:?}",
                per_window.len(),
                stats::median(&percentiles),
                all.len(),
                all.missed(),
                if tail { 99 } else { 50 },
                all.percentile(if tail { 99.0 } else { 50.0 }),
                per_window.iter().map(|v| v.round()).collect::<Vec<_>>()
            )
        };
        self.metric(name, stats::median(&per_window), "us", basis);
    }

    /// Counts a measured phase's requests and answers.
    pub fn absorb(&mut self, m: &Measurement) {
        self.attempted += m.attempted;
        self.failed += m.failed();
        self.wrong.extend(m.wrong.iter().cloned());
    }

    /// The end-to-end block of an untraced run.
    pub fn end_to_end(&mut self, inputs: &Inputs, setups: &[f64], m: &Measurement) {
        let spec = &inputs.spec;
        self.absorb(m);
        self.metric(
            "setup_s",
            stats::median(setups),
            "s",
            format!("median of {} set-ups from empty: {setups:?}", setups.len()),
        );
        self.timing("query_p50_us", m, Op::Query, false);
        self.timing("query_p99_us", m, Op::Query, true);
        self.timing("count_p50_us", m, Op::Count, false);
        self.timing("count_p99_us", m, Op::Count, true);
        self.metric(
            "probes_per_s",
            m.probes_per_s,
            "probes/s",
            format!(
                "median over {} windows; {} probes answered in {} s, {} probes per request, \
                 closed loop, {CLIENTS} clients",
                m.windows.len(),
                m.probes_ok,
                m.window_s,
                spec.batch,
            ),
        );
        self.metric(
            "resident_bytes",
            m.resident_bytes(),
            "B",
            format!("median Stats.total_bytes of {} samples", m.stats.len()),
        );
        self.info_block(m);
    }

    /// Lines that are reported but not part of the final JSON: server
    /// counters and failures.
    pub fn info_block(&mut self, m: &Measurement) {
        if let (Some(first), Some(last)) = (m.stats.first(), m.stats.last()) {
            let probes = last.probes.saturating_sub(first.probes).max(1);
            let reloads = last.reloads.saturating_sub(first.reloads);
            self.note(format!(
                "info server: {} evictions and {reloads} reloads over {probes} probes \
                 ({} reloads per probe); errors {}, timeouts {}, rejected {}; datasets {:?}",
                last.evictions.saturating_sub(first.evictions),
                reloads as f64 / probes as f64,
                last.errors,
                last.timeouts,
                last.rejected,
                last.datasets
                    .iter()
                    .map(|d| (d.name.as_str(), d.bytes, d.resident))
                    .collect::<Vec<_>>()
            ));
        }
        let frac = if m.attempted > 0 {
            m.failed() as f64 / m.attempted as f64
        } else {
            0.0
        };
        self.note(format!(
            "info failed_frac = {frac} ratio ({} of {} attempted; {:?})",
            m.failed(),
            m.attempted,
            m.failures
        ));
    }

    /// Fails when the metrics recorded are not exactly `expected`, in order.
    pub fn require(&self, expected: &[&str]) -> Result<(), String> {
        let got: Vec<&str> = self.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        if got == expected {
            Ok(())
        } else {
            Err(format!(
                "metrics {got:?} differ from the declared {expected:?}"
            ))
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// Prints the report's lines, the wrong answers and the JSON line.
    pub fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        for (i, why) in self.wrong.iter().enumerate().take(20) {
            println!("wrong answer {i}: {why}");
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() {
                *value
            } else {
                MISSED_JSON
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The checkout's git revision, read from `.git` without running git;
/// `none` outside a git checkout.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the program's sources (`crates/`, the root manifest and
/// lock file), so a result names the code it measured even where there is
/// no git metadata.
fn source_fingerprint() -> String {
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.push(Path::new("Cargo.toml").to_path_buf());
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut state = eclipse_persist::fnv1a(b"");
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            state = eclipse_persist::fnv1a_extend(state, file.to_string_lossy().as_bytes());
            state = eclipse_persist::fnv1a_extend(state, &bytes);
        }
    }
    format!("{state:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path
            .extension()
            .is_some_and(|ext| ext == "rs" || ext == "toml")
        {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let mut r = Report {
            lines: Vec::new(),
            metrics: Vec::new(),
            attempted: 10,
            failed: 0,
            wrong: Vec::new(),
        };
        r.metric("setup_s", 0.5, "s", String::new());
        r.metric("query_p99_us", f64::INFINITY, "us", String::new());
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"query_p99_us\": {\"value\": 1000000000000, \"unit\": \"us\"}}}"
        );
        r.wrong.push("x".to_string());
        assert!(r.json().starts_with("{\"correct\": false"));
    }
}
