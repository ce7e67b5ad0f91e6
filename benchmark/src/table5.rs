//! `table5_batch`: the paper's Table 5 harness at full batch width under
//! the Ansible grammar.
//!
//! Each pass is one `wisdom_eval::evaluate` call over 84 samples of the
//! seeded test split, a fixed number of each of the four generation types
//! spread over each type's prompt lengths:
//! batch-8 `complete_batch` with a fresh per-call prefix cache, then
//! chunk-parallel scoring. Passes repeat for the run length.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wisdom_core::{Constraint, Wisdom};
use wisdom_corpus::{Corpus, CorpusSpec, GenType, PromptStyle, Sample, SplitSamples};
use wisdom_eval::{evaluate, postprocess, EvalResult, EvalSettings, SampleCap};
use wisdom_grammar::GrammarCursor;
use wisdom_model::{
    generate_batch_instrumented, BatchTelemetry, DecodeRequest, GenerationOptions, LmTextGenerator,
    PrefixKvCache, Strategy, TextGenerator,
};
use wisdom_telemetry::Registry;

use crate::layers::Layers;
use crate::prom::Exposition;
use crate::report::{ensure, reset_rss_peak, rss_peak_mb, Failure, Outcome, Phase, Report, Run};
use crate::setup::{self, PhaseTimes};
use crate::stats::{median, tail, TAILS};
use crate::trace::Trace;

/// Corpus scale of the evaluated split (at least 14 test samples of every
/// generation type for seeds 1 to 25).
const CORPUS_SCALE: usize = 50;
/// Samples of each generation type per pass, in Table 5 type order
/// (NL→PB, NL→T, PB+NL→T, T+NL→T). Fixed counts keep the type mix of a
/// pass the same across seeds. NL→PB gets only as many as every seed from
/// 1 to 25 has.
const PER_TYPE: [usize; 4] = [12, 24, 24, 24];
/// Sequences per batched decode, as in the harness.
const BATCH: usize = 8;

struct Env {
    wisdom: Wisdom,
    phases: PhaseTimes,
    test: Vec<Sample>,
    generator: LmTextGenerator,
    settings: EvalSettings,
}

impl Env {
    fn refs(&self) -> Vec<&Sample> {
        self.test.iter().collect()
    }

    fn opts(&self) -> GenerationOptions {
        GenerationOptions {
            max_new_tokens: self.settings.max_new_tokens,
            strategy: Strategy::Greedy,
            seed: self.settings.seed,
        }
    }

    fn prompts(&self) -> Vec<String> {
        self.test
            .iter()
            .map(|s| s.prompt_text(self.settings.style))
            .collect()
    }
}

fn start(seed: u64) -> Outcome<Env> {
    let (wisdom, phases) = setup::train();
    let corpus = Corpus::build(&CorpusSpec::scaled(seed, CORPUS_SCALE));
    let split = SplitSamples::build(&corpus.galaxy, seed).test;
    let counts: Vec<usize> = GenType::ALL
        .iter()
        .map(|g| split.iter().filter(|s| s.gen_type == *g).count())
        .collect();
    ensure(
        counts.iter().zip(PER_TYPE).all(|(&c, want)| c >= want),
        || {
            format!(
            "seed {seed} yields too few samples: {counts:?} test samples per generation type (need {PER_TYPE:?})"
        )
        },
    )?;
    let settings = EvalSettings {
        style: PromptStyle::NameCompletion,
        ansible_marker: false,
        max_new_tokens: wisdom.config().max_new_tokens,
        cap: SampleCap::Total(usize::MAX),
        seed,
    };
    let prompt_tokens = |s: &Sample| {
        wisdom
            .tokenizer()
            .encode(&s.prompt_text(settings.style))
            .len()
    };
    let test: Vec<Sample> = GenType::ALL
        .iter()
        .zip(PER_TYPE)
        .flat_map(|(g, n)| {
            let of_type: Vec<&Sample> = split.iter().filter(|s| s.gen_type == *g).collect();
            spread_by_length(&of_type, n, prompt_tokens)
        })
        .cloned()
        .collect();
    let generator = LmTextGenerator::new(
        "wisdom",
        wisdom.model().clone(),
        Arc::clone(wisdom.tokenizer()),
    )
    .with_constraint(Constraint::Ansible);
    Ok(Env {
        wisdom,
        phases,
        test,
        generator,
        settings,
    })
}

/// Picks `n` of `items` evenly across their prompt-length order (the
/// middle of each of `n` equal slices of the sorted lengths), returned in
/// their original order. Decode cost grows with context length, and a
/// plain first-`n` pick let the pass time of one seed differ from another's
/// by 40 %; spreading the pick over the length distribution makes every
/// seed's pass a sample of the same distribution.
fn spread_by_length<T: Copy>(items: &[T], n: usize, len: impl Fn(T) -> usize) -> Vec<T> {
    let mut order: Vec<(usize, usize)> = items
        .iter()
        .enumerate()
        .map(|(i, &s)| (len(s), i))
        .collect();
    order.sort_unstable();
    let m = order.len();
    let mut picked: Vec<usize> = (0..n).map(|k| order[(2 * k + 1) * m / (2 * n)].1).collect();
    picked.sort_unstable();
    picked.into_iter().map(|i| items[i]).collect()
}

/// Runs evaluation passes for `secs` (at least one); returns each pass's
/// wall time and result.
fn passes(env: &Env, run: &Run, secs: f64) -> Vec<(f64, EvalResult)> {
    let refs = env.refs();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut out = Vec::new();
    while out.is_empty() || Instant::now() < deadline {
        run.ledger.sent.fetch_add(1, Ordering::SeqCst);
        let t = Instant::now();
        let result = evaluate(&env.generator, &refs, &env.settings);
        out.push((t.elapsed().as_secs_f64(), result));
        run.ledger.ok.fetch_add(1, Ordering::SeqCst);
    }
    out
}

/// Every pass must score identically; batched outputs must equal solo
/// decodes sample by sample. Returns the batched outputs.
fn check(env: &Env, run: &Run, results: &[(f64, EvalResult)]) -> Outcome<Vec<String>> {
    let first = format!("{:?}", results[0].1);
    for (i, (_, r)) in results.iter().enumerate().skip(1) {
        if format!("{r:?}") != first {
            run.ledger.failed.fetch_add(1, Ordering::SeqCst);
            return Err(Failure(format!(
                "check mismatch: pass {i} scored differently from pass 0"
            )));
        }
    }
    let prompts = env.prompts();
    let opts = env.opts();
    let batched = env.generator.complete_batch(&prompts, &opts);
    let generator = &env.generator;
    let solo: Vec<String> = std::thread::scope(|scope| {
        let chunk = prompts.len().div_ceil(2).max(1);
        let handles: Vec<_> = prompts
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|p| generator.complete(p, &opts))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check worker panicked"))
            .collect()
    });
    for (i, (b, s)) in batched.iter().zip(&solo).enumerate() {
        if b != s {
            run.ledger.failed.fetch_add(1, Ordering::SeqCst);
            return Err(Failure(format!(
                "check mismatch: sample {i} batched output differs from solo decode"
            )));
        }
    }
    Ok(batched)
}

fn quality_details(report: &mut Report, r: &EvalResult) {
    let o = &r.overall;
    report.detail(format!(
        "quality (every pass identical): n={} EM={:.2} BLEU={:.2} AnsibleAware={:.2} SchemaCorrect={:.2}",
        o.count, o.exact_match, o.bleu, o.ansible_aware, o.schema_correct
    ));
    for (gt, m) in &r.by_type {
        report.detail(format!(
            "  {gt}: n={} EM={:.2} BLEU={:.2} AnsibleAware={:.2} SchemaCorrect={:.2}",
            m.count, m.exact_match, m.bleu, m.ansible_aware, m.schema_correct
        ));
    }
}

/// Runs the workload; `trace` selects the traced run.
pub fn run(run: &Run, seed: u64, secs: f64, trace: bool) -> Outcome<Report> {
    // Set-up twice; the median of two is their mean.
    let (env, setups) = setup::repeated(2, || start(seed));
    let env = env?;
    let setup_s = median(&setups).expect("two set-ups");
    let mut report = Report::default();
    let n = env.test.len();
    if trace {
        run.enter(Phase::Trace);
        let plain = passes(&env, run, secs / 2.0);
        let traced = passes(&env, run, secs / 2.0);
        let plain_times: Vec<f64> = plain.iter().map(|p| p.0).collect();
        let traced_times: Vec<f64> = traced.iter().map(|p| p.0).collect();
        run.enter(Phase::Check);
        let mut all = plain;
        all.extend(traced);
        let outputs = check(&env, run, &all)?;
        run.enter(Phase::Trace);
        let mut layers = Layers::default();
        layers.set(
            "trace.overhead_frac",
            median(&traced_times).unwrap_or(0.0) / median(&plain_times).unwrap_or(1.0) - 1.0,
            traced_times.len(),
        );
        report.trace = Some(replay(&env, &outputs, &mut layers)?);
        let p = env.phases;
        layers.set("setup.corpus_s", p.corpus_s, 1);
        layers.set("setup.tokenizer_s", p.tokenizer_s, 1);
        layers.set("setup.pretrain_s", p.pretrain_s, 1);
        layers.set("setup.finetune_s", p.finetune_s, 1);
        layers.into_report(&mut report);
    } else {
        run.enter(Phase::Timed);
        reset_rss_peak();
        let results = passes(&env, run, secs);
        let rss = rss_peak_mb().unwrap_or(0.0);
        run.enter(Phase::Check);
        check(&env, run, &results)?;
        let times: Vec<f64> = results.iter().map(|r| r.0).collect();
        let total: f64 = times.iter().sum();
        let pass_s = median(&times).expect("at least one pass");
        let pass_ms = pass_s * 1e3;
        // Too few passes for a percentile above the median with ten passes
        // beyond it, so the tail is usually the median itself.
        let pass_tail = tail(&times, &TAILS).expect("at least one pass");
        let tokens = output_tokens(&env);
        report.detail_value(
            "samples_per_s",
            (n * results.len()) as f64 / total,
            "1/s",
            n * results.len(),
        );
        report.detail_value(
            "tok_per_s",
            (tokens * results.len()) as f64 / total,
            "1/s",
            tokens * results.len(),
        );
        report.detail_value("pass_p50_ms", pass_ms, "ms", results.len());
        report.detail_pct("pass_tail_ms", Some(pass_tail), "ms", 1e3);
        report.detail_value("setup_s", setup_s, "s", setups.len());
        report.detail_value("rss_peak_mb", rss, "MB", 1);
        report.detail_value("error_frac", 0.0, "frac", results.len());
        quality_details(&mut report, &results[0].1);
        report.metric("setup_s", setup_s, "s");
        report.metric("throughput_per_s", n as f64 / pass_s, "1/s");
        report.metric("latency_p50_ms", pass_ms, "ms");
        report.metric("latency_tail_ms", pass_tail.value * 1e3, "ms");
        report.metric("rss_peak_mb", rss, "MB");
    }
    report.attempted = run.ledger.sent.load(Ordering::SeqCst);
    report.failed = run.ledger.failed.load(Ordering::SeqCst);
    Ok(report)
}

/// Tokens one pass generates (outside any timed section).
fn output_tokens(env: &Env) -> usize {
    let tok = env.wisdom.tokenizer();
    let requests = env
        .prompts()
        .iter()
        .map(|p| decode_request(env, tok.encode(p)))
        .collect();
    wisdom_model::generate_batch(env.generator.model(), requests, BATCH)
        .iter()
        .map(Vec::len)
        .sum::<usize>()
        .max(1)
}

/// The request the harness' batched decode submits for `prompt`.
fn decode_request(env: &Env, prompt: Vec<u32>) -> DecodeRequest {
    let tok = env.wisdom.tokenizer();
    DecodeRequest {
        prompt,
        stops: vec![tok.eot(), tok.sep()],
        opts: env.opts(),
        grammar: env.generator.grammar().cloned(),
    }
}

/// Replays one pass layer by layer: encode, batched constrained decode
/// with batch telemetry and the pass's own prefix cache, decode,
/// post-process and score; then the grammar cursor over the outputs.
fn replay(env: &Env, outputs: &[String], layers: &mut Layers) -> Outcome<Trace> {
    let tok = env.wisdom.tokenizer();
    let prompts = env.prompts();
    let mut trace = Trace::new();
    let root = trace.begin("replay.pass", 0, None);
    let encoded: Vec<Vec<u32>> = trace.time("tokenizer.encode", 0, Some(root), || {
        prompts.iter().map(|p| tok.encode(p)).collect()
    });
    let requests: Vec<DecodeRequest> = encoded
        .iter()
        .map(|ids| decode_request(env, ids.clone()))
        .collect();
    let registry = Registry::new();
    let telemetry = BatchTelemetry::register(&registry);
    let cache = Arc::new(PrefixKvCache::default());
    let outs = trace.time("model.generate_batch", 0, Some(root), || {
        generate_batch_instrumented(
            env.generator.model(),
            requests,
            BATCH,
            Some(Arc::clone(&cache)),
            telemetry,
        )
    });
    let raws: Vec<String> = trace.time("tokenizer.decode", 0, Some(root), || {
        outs.iter().map(|o| tok.decode(o)).collect()
    });
    ensure(raws == outputs, || {
        "check mismatch: instrumented batch decode differs from the harness".to_string()
    })?;
    let processed: Vec<String> = trace.time("eval.postprocess", 0, Some(root), || {
        env.test
            .iter()
            .zip(&raws)
            .map(|(s, r)| postprocess(s, r))
            .collect()
    });
    let docs: Vec<(String, String)> = env
        .test
        .iter()
        .zip(&processed)
        .map(|(s, p)| (s.scoring_document(&s.expected), s.scoring_document(p)))
        .collect();
    trace.time("metrics.bleu", 0, Some(root), || {
        for (s, p) in env.test.iter().zip(&processed) {
            std::hint::black_box(wisdom_metrics::sentence_bleu(&s.expected, p));
        }
    });
    trace.time("metrics.ansible_aware", 0, Some(root), || {
        for (t, p) in &docs {
            std::hint::black_box(wisdom_metrics::ansible_aware(t, p));
        }
    });
    trace.time("metrics.schema_correct", 0, Some(root), || {
        for (_, p) in &docs {
            std::hint::black_box(wisdom_metrics::schema_correct(p));
        }
    });
    trace.finish(root);

    let n = env.test.len();
    let nf = n as f64;
    let self_s = trace.self_time_by_name();
    let total = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let prompt_bytes: usize = prompts.iter().map(String::len).sum();
    let out_tokens: usize = outs.iter().map(Vec::len).sum();
    let window = env.generator.model().config().context_window - env.settings.max_new_tokens;
    let prompt_tokens: usize = encoded.iter().map(|p| p.len().min(window)).sum();
    layers.set(
        "tokenizer.encode_us_per_kb",
        total("tokenizer.encode") * 1e6 / (prompt_bytes as f64 / 1024.0),
        n,
    );
    layers.set(
        "tokenizer.decode_us_per_tok",
        total("tokenizer.decode") * 1e6 / out_tokens.max(1) as f64,
        out_tokens,
    );
    layers.set(
        "eval.postprocess_us",
        total("eval.postprocess") * 1e6 / nf,
        n,
    );
    layers.set("metrics.bleu_us", total("metrics.bleu") * 1e6 / nf, n);
    layers.set(
        "metrics.ansible_aware_us",
        total("metrics.ansible_aware") * 1e6 / nf,
        n,
    );
    layers.set(
        "metrics.schema_correct_us",
        total("metrics.schema_correct") * 1e6 / nf,
        n,
    );
    layers.set(
        "trace.unattributed_frac",
        trace.unattributed_frac("replay.pass").unwrap_or(0.0),
        1,
    );
    let page = Exposition::parse(&registry.render());
    let rounds = page.histogram("wisdom_decode_token_seconds", &[]);
    let queue = page.histogram("wisdom_queue_wait_seconds", &[]);
    layers.set(
        "model.decode_token_ms_p50",
        rounds.quantile(0.5).unwrap_or(0.0) * 1e3,
        rounds.count as usize,
    );
    layers.set(
        "model.queue_wait_ms_p50",
        queue.quantile(0.5).unwrap_or(0.0) * 1e3,
        queue.count as usize,
    );
    layers.set(
        "model.batch_occupancy_mean",
        out_tokens as f64 / rounds.count.max(1.0),
        rounds.count as usize,
    );
    layers.set("model.tokens_per_request", out_tokens as f64 / nf, n);
    layers.set(
        "model.prefix_hit_token_frac",
        cache.stats().hit_tokens as f64 / prompt_tokens.max(1) as f64,
        prompt_tokens,
    );
    layers.set(
        "model.prefill_us_per_tok",
        setup::prefill_us_per_tok(&env.wisdom, &encoded, window),
        n,
    );
    let cfg = env.generator.model().config();
    layers.set(
        "tensor.matmul_b1_gflops",
        setup::matmul_gflops(cfg.d_model, cfg.d_ff(), cfg.vocab_size, 1, 0.2),
        1,
    );
    layers.set(
        "tensor.matmul_b8_gflops",
        setup::matmul_gflops(cfg.d_model, cfg.d_ff(), cfg.vocab_size, 8, 0.2),
        1,
    );
    grammar_replay(env, &encoded, &outs, layers)?;
    crate::yamlbench::measure(docs.iter().map(|(_, p)| p.as_str()), layers);
    Ok(trace)
}

/// Walks a grammar cursor along each output, timing `apply` and `advance`
/// per token and counting masked, forced and inactive rows.
fn grammar_replay(
    env: &Env,
    prompts: &[Vec<u32>],
    outs: &[Vec<u32>],
    layers: &mut Layers,
) -> Outcome<()> {
    let grammar = env
        .generator
        .grammar()
        .cloned()
        .ok_or_else(|| Failure("generator has no grammar".to_string()))?;
    let vocab = env.generator.model().config().vocab_size;
    let mut logits = vec![0.0f32; vocab];
    let (mut apply_s, mut advance_s) = (0.0, 0.0);
    let (mut rows, mut masked, mut forced, mut inactive, mut active_rows) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (prompt, out) in prompts.iter().zip(outs) {
        let mut cursor =
            GrammarCursor::new(Arc::clone(&grammar), prompt, env.settings.max_new_tokens);
        for &t in out {
            logits.fill(0.0);
            let start = Instant::now();
            let outcome = cursor.apply(&mut logits);
            let mid = Instant::now();
            cursor.advance(t);
            let end = Instant::now();
            apply_s += mid.duration_since(start).as_secs_f64();
            advance_s += end.duration_since(mid).as_secs_f64();
            rows += 1;
            if outcome.active {
                active_rows += 1;
                masked += u64::from(outcome.masked);
                forced += u64::from(outcome.forced.is_some());
            } else {
                inactive += 1;
            }
        }
    }
    let r = rows.max(1) as f64;
    layers.set("grammar.apply_us", apply_s * 1e6 / r, rows as usize);
    layers.set("grammar.advance_us", advance_s * 1e6 / r, rows as usize);
    layers.set(
        "grammar.masked_frac",
        masked as f64 / (active_rows.max(1) as f64 * vocab as f64),
        active_rows as usize,
    );
    layers.set("grammar.forced_frac", forced as f64 / r, rows as usize);
    layers.set("grammar.inactive_frac", inactive as f64 / r, rows as usize);
    layers.set(
        "grammar.states_cached",
        grammar.stats().states_cached as f64,
        1,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::spread_by_length;

    #[test]
    fn picks_the_middle_of_equal_length_slices_in_original_order() {
        // Lengths 90, 80, ..., 0 at indices 0..10.
        let items: Vec<usize> = (0..10).map(|i| 90 - 10 * i).collect();
        // Sorted lengths 0..90; slice middles are lengths 10, 30, 50, 70, 90.
        let picked = spread_by_length(&items, 5, |x| x);
        assert_eq!(picked, vec![90, 70, 50, 30, 10]);
        // Asking for all of them returns all of them, in order.
        assert_eq!(spread_by_length(&items, 10, |x| x), items);
        assert_eq!(spread_by_length(&items, 1, |x| x), vec![50]);
    }
}
