//! The completion stack's benchmark: one workload per run, end-to-end
//! metrics on the plain run, per-layer metrics on the traced run.
//!
//! ```text
//! wisdom-perfbench --workload <editor_stream|table5_batch|curate_corpus>
//!                  --seed <n> --seconds <s> --trace <0|1>
//!                  [--git-sha <sha>] [--source-digest <hex>] [--out-dir <dir>]
//! ```
//!
//! Normally started through `benchmark/run.py`, which builds this binary
//! and fills in the source fingerprint. See `benchmark/README.md`.

mod curate;
mod editor;
mod layers;
mod prom;
mod report;
mod setup;
mod sse;
mod stats;
mod table5;
mod trace;
mod yamlbench;

use std::io::Write as _;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;

use report::{Fingerprint, Outcome, Report, Run};

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["editor_stream", "table5_batch", "curate_corpus"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    git_sha: String,
    source_digest: String,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut git_sha, mut source_digest, mut out_dir) =
        ("none".to_string(), "none".to_string(), None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WORKLOADS.into_iter().find(|w| *w == value).ok_or_else(|| {
                        format!("unknown workload {value:?} (one of {WORKLOADS:?})")
                    })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            "--git-sha" => git_sha = value,
            "--source-digest" => source_digest = value,
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        git_sha,
        source_digest,
        out_dir,
    })
}

fn run_workload(run: &Run, args: &Args) -> Outcome<Report> {
    let f = match args.workload {
        "editor_stream" => editor::run,
        "table5_batch" => table5::run,
        _ => curate::run,
    };
    f(run, args.seed, args.seconds, args.trace)
}

/// Appends one JSON record (fingerprint, workload, mode, result) to
/// `records.jsonl` under `out_dir`, for `benchmark/compare.py`.
fn append_record(dir: &PathBuf, args: &Args, fp: &Fingerprint, result: &str) {
    let record = format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"seconds\": {}, \"fingerprint\": {}, \"result\": {result}}}\n",
        args.workload,
        args.trace,
        args.seconds,
        fp.json()
    );
    let _ = std::fs::create_dir_all(dir);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("records.jsonl"))
    {
        let _ = f.write_all(record.as_bytes());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let fp = Fingerprint::detect(&args.git_sha, &args.source_digest, args.seed);
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("fingerprint {}", fp.json());
    let run = Run::new(args.workload);
    // Any panic (ours or a crate's) still ends with the one-line failure
    // report naming the phase it happened in.
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run_workload(&run, &args)))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "unknown panic".to_string());
            Err(report::Failure(format!("panic: {msg}")))
        })
        .and_then(|report| report.validate().map(|()| report));
    match outcome {
        Ok(report) => {
            for line in report.details() {
                println!("{line}");
            }
            let json = report.json();
            if let Some(dir) = &args.out_dir {
                append_record(dir, &args, &fp, &json);
                if let Some(trace) = &report.trace {
                    let name = format!("trace-{}-{}.jsonl", args.workload, args.seed);
                    let _ = std::fs::write(dir.join(name), trace.to_jsonl());
                }
            }
            println!("{json}");
        }
        Err(failure) => {
            let line = run.fail_line(&failure.0);
            println!("{line}");
            eprintln!("{line}");
            std::process::exit(1);
        }
    }
}
