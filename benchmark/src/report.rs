//! Results, failures and the run ledger.
//!
//! A run prints human-readable detail lines (every metric with its unit and
//! sample count), then one JSON object as its last line. A failed run
//! prints exactly one `FAIL` line naming the workload, the phase and the
//! ledger, and exits non-zero without a result.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::stats::Percentile;
use crate::trace::Trace;

/// Where a run is; named in every failure line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building inputs, training, starting the server.
    Setup,
    /// The measured window.
    Timed,
    /// Output checks after the window.
    Check,
    /// The traced window and the layer replay.
    Trace,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Setup => "set-up",
            Phase::Timed => "timed",
            Phase::Check => "check",
            Phase::Trace => "trace",
        }
    }
}

/// Request accounting shared by every thread of a run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations started (requests sent, passes begun).
    pub sent: AtomicU64,
    /// Operations that completed correctly.
    pub ok: AtomicU64,
    /// Operations that failed (non-200, broken stream, failed check).
    pub failed: AtomicU64,
    /// Requests the server shed with 503.
    pub shed: AtomicU64,
}

impl Ledger {
    fn line(&self) -> String {
        format!(
            "sent={} ok={} failed={} shed={}",
            self.sent.load(Ordering::SeqCst),
            self.ok.load(Ordering::SeqCst),
            self.failed.load(Ordering::SeqCst),
            self.shed.load(Ordering::SeqCst)
        )
    }
}

/// The process-wide run context the failure line is built from.
pub struct Run {
    /// Workload name.
    pub workload: &'static str,
    phase: Mutex<Phase>,
    /// The ledger.
    pub ledger: Ledger,
}

impl Run {
    /// A run of `workload`, in set-up.
    pub fn new(workload: &'static str) -> Run {
        Run {
            workload,
            phase: Mutex::new(Phase::Setup),
            ledger: Ledger::default(),
        }
    }

    /// Moves to `phase`.
    pub fn enter(&self, phase: Phase) {
        *self.phase.lock().expect("phase lock") = phase;
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        *self.phase.lock().expect("phase lock")
    }

    /// The one-line failure report for `reason`.
    pub fn fail_line(&self, reason: &str) -> String {
        format!(
            "FAIL workload={} phase={} {} reason={}",
            self.workload,
            self.phase().label(),
            self.ledger.line(),
            reason.replace('\n', " ")
        )
    }
}

/// A run-ending failure.
#[derive(Debug)]
pub struct Failure(pub String);

/// Workload result: `Err` ends the run with a `FAIL` line.
pub type Outcome<T> = Result<T, Failure>;

/// Returns a failure unless `cond` holds.
pub fn ensure(cond: bool, reason: impl FnOnce() -> String) -> Outcome<()> {
    if cond {
        Ok(())
    } else {
        Err(Failure(reason()))
    }
}

/// The metrics and detail lines of one successful run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    details: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The traced run's spans, written out when the run ends.
    pub trace: Option<Trace>,
}

impl Report {
    /// Adds a metric for the final JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a detail line (printed before the JSON line).
    pub fn detail(&mut self, line: impl Into<String>) {
        self.details.push(line.into());
    }

    /// Adds a detail line for a scalar measured over `n` samples.
    pub fn detail_value(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.detail(format!("{name:<34} {value:>14.4} {unit:<6} n={n}"));
    }

    /// Adds a detail line for a percentile, naming the percentile actually
    /// reported and its sample counts.
    pub fn detail_pct(&mut self, name: &str, pct: Option<Percentile>, unit: &str, scale: f64) {
        match pct {
            Some(p) => self.detail(format!(
                "{name:<34} {:>14.4} {unit:<6} n={} ({} of {} samples, {} beyond)",
                p.value * scale,
                p.count,
                p.label(),
                p.count,
                p.beyond
            )),
            None => self.detail(format!("{name:<34} {:>14} {unit:<6} n=0", "-")),
        }
    }

    /// Every metric must be finite.
    pub fn validate(&self) -> Outcome<()> {
        for (name, v, _) in &self.metrics {
            ensure(v.is_finite(), || {
                format!("metric {name} is not finite ({v})")
            })?;
        }
        ensure(self.attempted > 0, || "no operation attempted".to_string())
    }

    /// Detail lines, one per line.
    pub fn details(&self) -> &[String] {
        &self.details
    }

    /// The final result line.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// A finite float as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The host and source identity a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Whether the CPU reports AVX-512F.
    pub avx512f: bool,
    /// Git commit of the checkout, or `none` outside a repository.
    pub git_sha: String,
    /// Digest of the sources the benchmark was built from.
    pub source_digest: String,
    /// Workload seed.
    pub seed: u64,
}

impl Fingerprint {
    /// Detects the host half; the source half comes from the launcher.
    pub fn detect(git_sha: &str, source_digest: &str, seed: u64) -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            avx512f: avx512f(),
            git_sha: git_sha.to_string(),
            source_digest: source_digest.to_string(),
            seed,
        }
    }

    /// As a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"avx512f\": {}, \"git_sha\": \"{}\", \"source_digest\": \"{}\", \"seed\": {}}}",
            self.nproc, self.avx512f, self.git_sha, self.source_digest, self.seed
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn avx512f() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512f() -> bool {
    false
}

/// Resets the kernel's peak-RSS mark so a later [`rss_peak_mb`] covers only
/// what follows (set-up, e.g. training, is excluded). Best effort: on
/// kernels without the reset the peak includes set-up.
pub fn reset_rss_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MiB; `None` where unavailable.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 12,
            ..Report::default()
        };
        r.metric("setup_s", 1.25, "s");
        r.metric("throughput_per_s", 3.0, "1/s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"throughput_per_s\": {\"value\": 3.0, \"unit\": \"1/s\"}}}"
        );
        assert!(r.validate().is_ok());
        r.metric("bad", f64::NAN, "ms");
        assert!(r.validate().is_err());
    }

    #[test]
    fn failure_line_names_workload_phase_and_ledger() {
        let run = Run::new("editor_stream");
        run.enter(Phase::Timed);
        run.ledger.sent.store(5, Ordering::SeqCst);
        run.ledger.ok.store(3, Ordering::SeqCst);
        run.ledger.failed.store(1, Ordering::SeqCst);
        run.ledger.shed.store(1, Ordering::SeqCst);
        assert_eq!(
            run.fail_line("non-200\nstatus 503"),
            "FAIL workload=editor_stream phase=timed sent=5 ok=3 failed=1 shed=1 reason=non-200 status 503"
        );
    }
}
