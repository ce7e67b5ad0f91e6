//! `curate_corpus`: the streaming curation pipeline over a seeded corpus.
//!
//! Each pass is one `wisdom_curation::curate` call with two workers over
//! every YAML channel of `Corpus::build(&CorpusSpec::scaled(seed, 100))`
//! (about 13k documents, 7 MB). No model is involved. A pass takes about a
//! second on a 2-core host, so a 10 s run takes the median of ~10 passes.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use wisdom_corpus::{Corpus, CorpusSpec};
use wisdom_curation::{
    corpus_docs, curate, score_document, shingle_set, CurationConfig, CurationReport,
    CurationTelemetry, DocKind, InputDoc, MinHasher, NearDedup, ShardWriter,
};
use wisdom_telemetry::Registry;

use crate::layers::Layers;
use crate::prom::Exposition;
use crate::report::{ensure, reset_rss_peak, rss_peak_mb, Failure, Outcome, Phase, Report, Run};
use crate::setup;
use crate::stats::{median, median_of, tail, TAILS};
use crate::trace::Trace;

/// Corpus scale of the curated input.
const CORPUS_SCALE: usize = 100;
/// Parse/lint/score workers.
const WORKERS: usize = 2;
/// Set-up repetitions (set-up is cheap here, and its time varies run to
/// run by more than the work it does).
const SETUPS: usize = 5;
/// The input must hold at least this many documents.
const MIN_DOCS: usize = 1_000;
/// Documents the traced run replays stage by stage.
const REPLAY_DOCS: usize = 4_000;

fn config(seed: u64, workers: usize, telemetry: Option<CurationTelemetry>) -> CurationConfig {
    CurationConfig {
        workers,
        seed,
        keep_texts: false,
        telemetry,
        ..CurationConfig::default()
    }
}

fn build_docs(seed: u64) -> Vec<InputDoc> {
    corpus_docs(&Corpus::build(&CorpusSpec::scaled(seed, CORPUS_SCALE)))
}

/// Curates `docs` repeatedly for `secs` (at least one pass); returns each
/// pass's wall time and report. Cloning the input for a pass is outside
/// the timed call.
fn passes(
    docs: &[InputDoc],
    cfg: &CurationConfig,
    run: &Run,
    secs: f64,
) -> Vec<(f64, CurationReport)> {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut out = Vec::new();
    while out.is_empty() || Instant::now() < deadline {
        let input = docs.to_vec();
        run.ledger.sent.fetch_add(1, Ordering::SeqCst);
        let t = Instant::now();
        let report = curate(input, cfg);
        out.push((t.elapsed().as_secs_f64(), report));
        run.ledger.ok.fetch_add(1, Ordering::SeqCst);
    }
    out
}

fn output_bytes(r: &CurationReport) -> (Vec<Vec<u8>>, String) {
    (
        r.shards.iter().map(|s| s.bytes.clone()).collect(),
        r.manifest_json(),
    )
}

/// Every pass must match a one-worker run byte for byte, and every
/// ingested document must be kept or dropped for exactly one reason.
fn check(
    docs: &[InputDoc],
    seed: u64,
    run: &Run,
    results: &[(f64, CurationReport)],
) -> Outcome<()> {
    let reference = curate(docs.to_vec(), &config(seed, 1, None));
    let want = output_bytes(&reference);
    for (i, (_, r)) in results.iter().enumerate() {
        let accounted = r.kept + r.parse_failed + r.quality_rejected + r.exact_dups + r.near_dups;
        if accounted != r.ingested || r.ingested != docs.len() {
            run.ledger.failed.fetch_add(1, Ordering::SeqCst);
            return Err(Failure(format!(
                "check mismatch: pass {i} kept {} + dropped {} != ingested {} (input {})",
                r.kept,
                accounted - r.kept,
                r.ingested,
                docs.len()
            )));
        }
        if output_bytes(r) != want {
            run.ledger.failed.fetch_add(1, Ordering::SeqCst);
            return Err(Failure(format!(
                "check mismatch: pass {i} shards or manifest differ from the one-worker run"
            )));
        }
    }
    Ok(())
}

/// Runs the workload; `trace` selects the traced run.
pub fn run(run: &Run, seed: u64, secs: f64, trace: bool) -> Outcome<Report> {
    let (docs, setups) = setup::repeated(SETUPS, || build_docs(seed));
    let setup_s = median_of(&setups);
    ensure(docs.len() >= MIN_DOCS, || {
        format!(
            "seed {seed} yields too few documents: {} (< {MIN_DOCS})",
            docs.len()
        )
    })?;
    let bytes: usize = docs.iter().map(|d| d.text.len()).sum();
    let mut report = Report::default();
    if trace {
        traced(run, &docs, seed, secs, &mut report)?;
    } else {
        run.enter(Phase::Timed);
        reset_rss_peak();
        let results = passes(&docs, &config(seed, WORKERS, None), run, secs);
        let rss = rss_peak_mb().unwrap_or(0.0);
        run.enter(Phase::Check);
        check(&docs, seed, run, &results)?;
        let times: Vec<f64> = results.iter().map(|r| r.0).collect();
        let total: f64 = times.iter().sum();
        let k = results.len();
        let pass_s = median(&times).expect("at least one pass");
        let pass_ms = pass_s * 1e3;
        // Too few passes for a percentile above the median with ten passes
        // beyond it, so the tail is usually the median itself.
        let pass_tail = tail(&times, &TAILS).expect("at least one pass");
        report.detail_value(
            "docs_per_s",
            (docs.len() * k) as f64 / total,
            "1/s",
            docs.len() * k,
        );
        report.detail_value("mb_per_s", (bytes * k) as f64 / 1e6 / total, "MB/s", k);
        report.detail_value("pass_p50_ms", pass_ms, "ms", k);
        report.detail_pct("pass_tail_ms", Some(pass_tail), "ms", 1e3);
        report.detail_value("setup_s", setup_s, "s", setups.len());
        report.detail_value("rss_peak_mb", rss, "MB", 1);
        report.detail_value("error_frac", 0.0, "frac", k);
        let r = &results[0].1;
        report.detail(format!(
            "curation: ingested={} kept={} parse_failed={} quality_rejected={} exact_dups={} near_dups={} shards={}",
            r.ingested, r.kept, r.parse_failed, r.quality_rejected, r.exact_dups, r.near_dups, r.shards.len()
        ));
        report.metric("setup_s", setup_s, "s");
        report.metric("throughput_per_s", docs.len() as f64 / pass_s, "1/s");
        report.metric("latency_p50_ms", pass_ms, "ms");
        report.metric("latency_tail_ms", pass_tail.value * 1e3, "ms");
        report.metric("rss_peak_mb", rss, "MB");
    }
    report.attempted = run.ledger.sent.load(Ordering::SeqCst);
    report.failed = run.ledger.failed.load(Ordering::SeqCst);
    Ok(report)
}

fn traced(run: &Run, docs: &[InputDoc], seed: u64, secs: f64, report: &mut Report) -> Outcome<()> {
    run.enter(Phase::Trace);
    let plain = passes(docs, &config(seed, WORKERS, None), run, secs / 2.0);
    // The traced passes record into the pipeline's own stage histograms.
    let registry = Registry::new();
    let cfg = config(seed, WORKERS, Some(CurationTelemetry::new(&registry)));
    let traced = passes(docs, &cfg, run, secs / 2.0);
    run.enter(Phase::Check);
    let mut all = plain;
    let plain_n = all.len();
    all.extend(traced);
    check(docs, seed, run, &all)?;
    run.enter(Phase::Trace);
    let times: Vec<f64> = all.iter().map(|r| r.0).collect();
    let mut layers = Layers::default();
    layers.set(
        "trace.overhead_frac",
        median_of(&times[plain_n..]) / median_of(&times[..plain_n]) - 1.0,
        times.len() - plain_n,
    );
    let page = Exposition::parse(&registry.render());
    let passes_n = (all.len() - plain_n) as f64;
    for (stage, name) in [
        ("process", "curation.stage_busy_s.process"),
        ("curate", "curation.stage_busy_s.curate"),
    ] {
        let h = page.histogram("wisdom_curation_stage_seconds", &[("stage", stage)]);
        layers.set(name, h.sum / passes_n, h.count as usize);
    }
    let r = &all[0].1;
    let ingested = r.ingested.max(1) as f64;
    layers.set("curation.kept_frac", r.kept as f64 / ingested, r.ingested);
    layers.set(
        "curation.exact_dup_frac",
        r.exact_dups as f64 / ingested,
        r.ingested,
    );
    layers.set(
        "curation.near_dup_frac",
        r.near_dups as f64 / ingested,
        r.ingested,
    );

    // Stage-by-stage replay of the first documents through the public
    // stage functions, one root span per document.
    let defaults = CurationConfig::default();
    let hasher = MinHasher::new(seed, defaults.bands, defaults.rows);
    let floor = NearDedup::floor_for_target(defaults.target_similarity, hasher.lanes());
    let mut near = NearDedup::new(hasher.clone(), floor);
    let mut writer = ShardWriter::new(defaults.shard_docs);
    let mut trace = Trace::new();
    let sample = &docs[..docs.len().min(REPLAY_DOCS)];
    for (i, doc) in sample.iter().enumerate() {
        let id = i as u64;
        let root = trace.begin("replay.doc", id, None);
        trace.time("curation.score_document", id, Some(root), || {
            score_document(&doc.text, doc.kind)
        });
        let sig = trace.time("curation.minhash", id, Some(root), || {
            hasher.signature(&shingle_set(&doc.text, defaults.shingle_k))
        });
        trace.time("curation.near_dedup", id, Some(root), || near.offer(&sig));
        trace.time("curation.shard_write", id, Some(root), || {
            writer.add(&doc.source, &doc.text)
        });
        trace.finish(root);
    }
    std::hint::black_box(writer.finish());
    let self_s = trace.self_time_by_name();
    let n = sample.len();
    let per_doc = |name: &str| self_s.get(name).copied().unwrap_or(0.0) * 1e6 / n.max(1) as f64;
    layers.set(
        "curation.score_document_us",
        per_doc("curation.score_document"),
        n,
    );
    layers.set("curation.minhash_us", per_doc("curation.minhash"), n);
    layers.set("curation.near_dedup_us", per_doc("curation.near_dedup"), n);
    layers.set(
        "curation.shard_write_us",
        per_doc("curation.shard_write"),
        n,
    );
    layers.set(
        "trace.unattributed_frac",
        trace.unattributed_frac("replay.doc").unwrap_or(0.0),
        n,
    );
    crate::yamlbench::measure(
        sample
            .iter()
            .filter(|d| d.kind == DocKind::Ansible)
            .map(|d| d.text.as_str()),
        &mut layers,
    );
    // The corpus build is this workload's whole set-up.
    let t = Instant::now();
    std::hint::black_box(build_docs(seed));
    layers.set("setup.corpus_s", t.elapsed().as_secs_f64(), 1);
    layers.into_report(report);
    report.trace = Some(trace);
    Ok(())
}
