//! Result collection: metrics with units, operation counts, exact sample
//! statistics, the machine fingerprint, and the one-line JSON result.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(String, f64)>,
    notes: Vec<String>,
}

/// Failure messages kept for the printout; the count is always exact.
const MAX_FAILURE_MESSAGES: usize = 20;

impl Report {
    /// Counts one operation (a cold pass, a request, a gate check); a
    /// failed one is counted and its message kept.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Counts `n` operations that succeeded.
    pub fn succeeded(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(why);
        }
    }

    /// Adds another thread's operation counts and failure messages.
    pub fn absorb(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_FAILURE_MESSAGES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Records a metric; a later value with the same name replaces it.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// Adds a human-readable note (sample counts, percentiles used).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Share of operations that succeeded.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Value of a recorded metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Human-readable summary: notes, failures and one line per listed
    /// metric.
    pub fn human(&self, listed: &[(String, String)]) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        let _ = writeln!(
            out,
            "  attempted {} failed {} failed_frac {:.6}",
            self.attempted,
            self.failed,
            1.0 - self.ok_frac()
        );
        for (n, u) in listed {
            let v = self.value(n).unwrap_or(0.0);
            let _ = writeln!(out, "  {n:<34} {v:>16.6} {u}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the listed
    /// `metrics` with their units.
    pub fn json_line(&self, listed: &[(String, String)]) -> String {
        let metrics: Vec<String> = listed
            .iter()
            .map(|(n, u)| {
                let v = self.value(n).unwrap_or(0.0);
                format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(v))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The conventional median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact nearest-rank quantile of an ascending sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The tail of an ascending sample: p99 when at least [`TAIL_SUPPORT`]
/// samples lie beyond it, otherwise the highest nearest-rank percentile
/// that has that many beyond it. A sample too small to support any
/// percentile above the median reports its maximum. Returns
/// `(percentile, value)`.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n.saturating_sub(TAIL_SUPPORT));
    if rank <= n.div_ceil(2) {
        return (100.0, sorted.last().copied().unwrap_or(0.0));
    }
    (100.0 * rank as f64 / n as f64, sorted[rank - 1])
}

/// The tail of each third of a window and their median, the reported
/// tail: one burst of noise from outside the benchmark moves one third,
/// not the result. `samples` are (end, seconds into the window; latency).
pub fn tail_by_thirds(samples: &[(f64, f64)], window_s: f64) -> (Vec<f64>, f64) {
    let third = window_s / 3.0;
    let tails: Vec<f64> = (0..3)
        .map(|i| {
            let mut v: Vec<f64> = samples
                .iter()
                .filter(|&&(t, _)| ((t / third) as usize).min(2) == i)
                .map(|&(_, x)| x)
                .collect();
            v.sort_by(f64::total_cmp);
            tail(&v).1
        })
        .collect();
    let m = median(&tails);
    (tails, m)
}

/// An ascending copy of a latency sample and its one-line summary: count,
/// median and tail.
pub fn latency_summary(ms: &[f64]) -> (Vec<f64>, String) {
    let mut sorted = ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (pct, tail_ms) = tail(&sorted);
    let p50 = quantile(&sorted, 0.5);
    let text = format!("n {} p50 {p50:.3} ms p{pct:.1} {tail_ms:.3} ms", sorted.len());
    (sorted, text)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set (`VmHWM`) of a process in MB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_output(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where a result was measured: git revision, core count, compiler,
/// workload, seed and run length, as one JSON object.
pub fn fingerprint(workload: &str, seed: u64, seconds: f64, trace: bool, scale: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    // Only a repository rooted in the working directory names the
    // revision; git must not search the directories above it.
    if let Some(parent) = std::env::current_dir().ok().as_deref().and_then(Path::parent) {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    format!(
        "{{\"git_rev\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{}\", \"workload\": \"{workload}\", \
         \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"scale\": \"{scale}\"}}",
        command_output(&mut git),
        command_output(Command::new("rustc").arg("-V")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big), (99.0, 1980.0));
        let mid: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mid), (90.0, 90.0));
        let small: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&small), (100.0, 12.0));
        assert_eq!(tail(&[1.0, 2.0, 5.0]), (100.0, 5.0));
    }

    #[test]
    fn one_slow_third_does_not_move_the_tail() {
        // (end, s; latency, ms): the middle third holds a slow burst.
        let samples = [(0.5, 5.0), (0.9, 6.0), (1.2, 50.0), (1.8, 40.0), (2.4, 7.0), (3.0, 4.0)];
        let (tails, t) = tail_by_thirds(&samples, 3.0);
        assert_eq!(tails, vec![6.0, 50.0, 7.0]);
        assert_eq!(t, 7.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.op(true, String::new);
        r.metric("latency_ms", 1.25);
        let line = r.json_line(&[("latency_ms".into(), "ms".into())]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.op(false, || "boom".into());
        assert!(!r.correct());
    }
}
