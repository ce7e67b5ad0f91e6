//! `editor_stream`: closed-loop editor sessions streaming completions over
//! HTTP/SSE from an in-process server.
//!
//! Two sessions (one client thread and one connection at a time each, a
//! few milliseconds of seeded think time) walk seeded Galaxy files task by
//! task: each request sends the buffer so far as `context` and the next
//! task's name as `prompt`, so consecutive prompts of a session share
//! everything but their tail. The server runs the default configuration (no
//! grammar constraint) with one decode replica behind the router.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wisdom_core::{CompletionRequest, DecodeRequest, Suggestion, Wisdom};
use wisdom_corpus::{extract_samples, Corpus, CorpusSpec, GenType};
use wisdom_model::GenerationOptions;
use wisdom_prng::Prng;
use wisdom_server::{
    get, parse_json, Json, Router, RouterConfig, ServerConfig, ServerHandle, WisdomServer,
};

use crate::layers::Layers;
use crate::prom::Exposition;
use crate::report::{ensure, reset_rss_peak, rss_peak_mb, Failure, Outcome, Phase, Report, Run};
use crate::setup::{self, PhaseTimes};
use crate::sse::SseDecoder;
use crate::stats::{median, median_of, percentile, tail, TAILS};
use crate::trace::Trace;

/// Corpus scale the sessions' files come from (560 Galaxy files).
const CORPUS_SCALE: usize = 200;
/// Decode replicas behind the server's router. With two, throughput swung
/// with which replica each session's next file happened to land on (80 to
/// 108 req/s over five seeds); with one, both sessions share one batch and
/// the prefix cache still serves the shared buffers.
const REPLICAS: usize = 1;
/// Concurrent editor sessions (= client threads = open connections).
const SESSIONS: usize = 2;
/// Each session must have at least this many requests planned.
const MIN_SESSION_REQUESTS: usize = 200;
/// Upper end of a session's think time before each request, drawn uniformly
/// from the seed. Every completion runs to the same token budget, so with
/// no think time two requests admitted together finish together and
/// resubmit together, and the sessions could stay in the phase they started
/// in for a whole run; a few milliseconds of jitter lets the phase wander.
const THINK_MAX_US: usize = 4_000;
/// Requests started in this first part of a window are not measured.
const WARMUP: Duration = Duration::from_millis(500);
/// Distinct requests replayed in-process by the traced run.
const REPLAY_REQUESTS: usize = 300;
/// The measured window is cut into this many equal parts by send time; the
/// end-to-end figures are medians over the parts, so a burst of load from
/// outside the benchmark moves at most one part.
const SUB_WINDOWS: usize = 5;
/// Peak RSS is read when this many measured requests have completed, so
/// the figure reflects a fixed amount of served work (the prefix caches
/// grow with every distinct prompt served) rather than a fixed time.
const RSS_AT_REQUESTS: usize = 300;

/// One planned completion request.
struct Planned {
    request: CompletionRequest,
    prompt_tokens: usize,
    body: String,
}

/// The seeded request plan: requests and each session's walk over them.
struct Plan {
    requests: Vec<Planned>,
    sessions: Vec<Vec<usize>>,
}

/// Builds the plan from `seed`. A file contributes its tasks in order
/// while the prompt still fits the serving window; files alternate between
/// sessions.
fn plan(seed: u64, wisdom: &Wisdom) -> Outcome<Plan> {
    let corpus = Corpus::build(&CorpusSpec::scaled(seed, CORPUS_SCALE));
    let cfg = wisdom.config();
    let max_prompt = cfg.context_window - cfg.max_new_tokens;
    let mut requests = Vec::new();
    let mut sessions = vec![Vec::new(); SESSIONS];
    let mut walked = 0usize;
    // A run reaches only the first ~150 files of each session's walk. Walked
    // in corpus order, five seeds ranged over 74 to 95 req/s on a steady
    // host; in seeded random order, three came within 4 %.
    let mut files: Vec<&String> = corpus.galaxy.iter().collect();
    Prng::seed_from_u64(seed ^ 0xED17).shuffle(&mut files);
    for file in files {
        let steps: Vec<_> = extract_samples(file)
            .into_iter()
            .filter(|s| s.gen_type != GenType::NlToPb)
            .collect();
        let mut taken = 0;
        for s in steps {
            let request = CompletionRequest::new(s.context, s.nl);
            let prompt_tokens = wisdom.tokenizer().encode(&request.prompt_text()).len();
            if prompt_tokens > max_prompt {
                break;
            }
            let body = Json::obj(vec![
                ("prompt", Json::Str(request.prompt.clone())),
                ("context", Json::Str(request.context.clone())),
                ("stream", Json::Bool(true)),
            ])
            .to_text();
            sessions[walked % SESSIONS].push(requests.len());
            requests.push(Planned {
                request,
                prompt_tokens,
                body,
            });
            taken += 1;
        }
        if taken > 0 {
            walked += 1;
        }
    }
    let shortest = sessions.iter().map(Vec::len).min().unwrap_or(0);
    ensure(shortest >= MIN_SESSION_REQUESTS, || {
        format!(
            "seed {seed} yields too few requests: shortest session has {shortest} (< {MIN_SESSION_REQUESTS})"
        )
    })?;
    Ok(Plan { requests, sessions })
}

/// A running server with its assistant and plan.
struct Env {
    seed: u64,
    wisdom: Arc<Wisdom>,
    plan: Arc<Plan>,
    handle: ServerHandle,
    thread: JoinHandle<()>,
    phases: PhaseTimes,
}

impl Env {
    fn stop(self) -> Outcome<()> {
        self.handle.stop();
        self.thread
            .join()
            .map_err(|_| Failure("server thread panicked".to_string()))
    }
}

fn start(seed: u64) -> Outcome<Env> {
    let (wisdom, phases) = setup::train();
    let plan = Arc::new(plan(seed, &wisdom)?);
    let wisdom = Arc::new(wisdom);
    let server = WisdomServer::bind_with(
        Arc::clone(&wisdom),
        "127.0.0.1:0",
        ServerConfig {
            replicas: REPLICAS,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| Failure(format!("bind error: {e}")))?;
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if thread.is_finished() {
            return Err(Failure("server thread exited during start-up".to_string()));
        }
        if matches!(get(handle.addr(), "/readyz"), Ok((200, _))) {
            break;
        }
        ensure(Instant::now() < deadline, || {
            "server not ready after 60 s".to_string()
        })?;
        std::thread::sleep(Duration::from_millis(20));
    }
    Ok(Env {
        seed,
        wisdom,
        plan,
        handle,
        thread,
        phases,
    })
}

/// One completed exchange, as the client saw it.
struct Exchange {
    idx: usize,
    sent: Instant,
    token_times: Vec<Instant>,
    done: Instant,
    final_payload: String,
}

impl Exchange {
    fn ttft(&self) -> f64 {
        self.token_times
            .first()
            .unwrap_or(&self.done)
            .duration_since(self.sent)
            .as_secs_f64()
    }

    fn latency(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64()
    }
}

/// How one exchange failed.
enum ExchangeError {
    /// The server answered with this non-200 status.
    Status(u16, String),
    /// The stream broke off or did not follow the event protocol.
    Broken(String),
}

/// Sends one streaming request and reads the response, stamping each
/// event with the read that completed it.
fn exchange(addr: SocketAddr, idx: usize, body: &str) -> Result<Exchange, ExchangeError> {
    let broken = |e: String| ExchangeError::Broken(e);
    let sent = Instant::now();
    let mut conn = TcpStream::connect(addr).map_err(|e| broken(format!("connect: {e}")))?;
    let _ = conn.set_nodelay(true);
    let _ = conn.set_read_timeout(Some(Duration::from_secs(30)));
    let request = format!(
        "POST /v1/completions HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(request.as_bytes())
        .map_err(|e| broken(format!("write: {e}")))?;
    let mut decoder = SseDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    while !decoder.finished() {
        let n = conn
            .read(&mut buf)
            .map_err(|e| broken(format!("read: {e}")))?;
        if n == 0 {
            break;
        }
        decoder.feed(&buf[..n], Instant::now()).map_err(&broken)?;
    }
    match decoder.status() {
        Some(200) => {}
        Some(status) => return Err(ExchangeError::Status(status, decoder.plain_body())),
        None => return Err(broken("connection closed before a status line".to_string())),
    }
    if !decoder.finished() {
        return Err(broken(format!(
            "stream cut short after {} events",
            decoder.events().len()
        )));
    }
    let events = decoder.events();
    let n = events.len();
    ensure(n >= 2 && events[n - 1].data == "[DONE]", || {
        "stream did not end with a payload and [DONE]".to_string()
    })
    .map_err(|f| broken(f.0))?;
    let token_times = events[..n - 2].iter().map(|e| e.at).collect();
    Ok(Exchange {
        idx,
        sent,
        token_times,
        done: events[n - 1].at,
        final_payload: events[n - 2].data.clone(),
    })
}

/// The exchanges of one measured window.
struct Window {
    /// Exchanges sent after the warm-up, in no particular order.
    xs: Vec<Exchange>,
    /// When measurement started.
    from: Instant,
    /// Measured length in seconds (the requested run length).
    secs: f64,
    /// Seconds from `from` to the last completion.
    elapsed: f64,
    /// Peak RSS once [`RSS_AT_REQUESTS`] measured requests completed.
    rss_mb: Option<f64>,
}

/// Runs both sessions closed-loop for `secs` after the warm-up.
fn window(env: &Env, run: &Run, cursors: &mut [usize], secs: f64) -> Outcome<Window> {
    let start = Instant::now();
    let measure_from = start + WARMUP;
    let deadline = measure_from + Duration::from_secs_f64(secs);
    let addr = env.handle.addr();
    let measured_done = AtomicUsize::new(0);
    let rss_mb = Mutex::new(None);
    let results: Vec<Result<(Vec<Exchange>, usize), Failure>> = std::thread::scope(|scope| {
        let handles: Vec<_> = env
            .plan
            .sessions
            .iter()
            .zip(cursors.iter())
            .enumerate()
            .map(|(session, (walk, &cursor))| {
                let plan = &env.plan;
                let (measured_done, rss_mb) = (&measured_done, &rss_mb);
                scope.spawn(move || {
                    let mut cursor = cursor;
                    let mut measured = Vec::new();
                    while Instant::now() < deadline {
                        let idx = walk[cursor % walk.len()];
                        let mut think = Prng::seed_from_u64(
                            env.seed ^ ((session as u64) << 48) ^ cursor as u64,
                        );
                        std::thread::sleep(Duration::from_micros(
                            think.range_usize(0, THINK_MAX_US) as u64,
                        ));
                        cursor += 1;
                        run.ledger.sent.fetch_add(1, Ordering::SeqCst);
                        match exchange(addr, idx, &plan.requests[idx].body) {
                            Ok(x) => {
                                run.ledger.ok.fetch_add(1, Ordering::SeqCst);
                                if x.sent >= measure_from {
                                    measured.push(x);
                                    if measured_done.fetch_add(1, Ordering::SeqCst) + 1
                                        == RSS_AT_REQUESTS
                                    {
                                        *rss_mb.lock().expect("rss lock") = rss_peak_mb();
                                    }
                                }
                            }
                            Err(ExchangeError::Status(status, body)) => {
                                let counter = if status == 503 {
                                    &run.ledger.shed
                                } else {
                                    &run.ledger.failed
                                };
                                counter.fetch_add(1, Ordering::SeqCst);
                                return Err(Failure(format!("non-200: status {status}: {body}")));
                            }
                            Err(ExchangeError::Broken(why)) => {
                                run.ledger.failed.fetch_add(1, Ordering::SeqCst);
                                return Err(Failure(why));
                            }
                        }
                    }
                    Ok((measured, cursor))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(Failure("client thread panicked".to_string())))
            })
            .collect()
    });
    let mut all = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        let (mut xs, cursor) = r?;
        cursors[i] = cursor;
        all.append(&mut xs);
    }
    ensure(!env.thread.is_finished(), || {
        "server thread exited during the window".to_string()
    })?;
    ensure(!all.is_empty(), || {
        "no request completed in the window".to_string()
    })?;
    let end = all.iter().map(|x| x.done).max().expect("non-empty");
    Ok(Window {
        elapsed: end.duration_since(measure_from).as_secs_f64(),
        xs: all,
        from: measure_from,
        secs,
        rss_mb: rss_mb.into_inner().expect("rss lock"),
    })
}

/// Medians over the sub-windows of the request rate, the latency p50 and
/// the latency at percentile `tail_p`.
fn sub_window_medians(w: &Window, tail_p: f64) -> (f64, f64, f64) {
    let len = w.secs / SUB_WINDOWS as f64;
    let (mut rates, mut p50s, mut tails) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..SUB_WINDOWS {
        let (lo, hi) = (k as f64 * len, (k + 1) as f64 * len);
        let lat: Vec<f64> =
            w.xs.iter()
                .filter(|x| {
                    let at = x.sent.duration_since(w.from).as_secs_f64();
                    (lo..hi).contains(&at)
                })
                .map(Exchange::latency)
                .collect();
        if let (Some(p50), Some(t)) = (percentile(&lat, 50.0), percentile(&lat, tail_p)) {
            rates.push(lat.len() as f64 / len);
            p50s.push(p50.value);
            tails.push(t.value);
        }
    }
    (median_of(&rates), median_of(&p50s), median_of(&tails))
}

/// Summary of a window's exchanges.
struct WindowStats {
    latencies: Vec<f64>,
    ttfts: Vec<f64>,
    itls: Vec<f64>,
    tokens: usize,
    prompt_tokens: usize,
    elapsed: f64,
}

fn summarize(env: &Env, w: &Window) -> WindowStats {
    let xs = &w.xs;
    let mut itls = Vec::new();
    for x in xs {
        itls.extend(
            x.token_times
                .windows(2)
                .map(|w| w[1].duration_since(w[0]).as_secs_f64()),
        );
    }
    WindowStats {
        latencies: xs.iter().map(Exchange::latency).collect(),
        ttfts: xs.iter().map(Exchange::ttft).collect(),
        itls,
        tokens: xs.iter().map(|x| x.token_times.len()).sum(),
        prompt_tokens: xs
            .iter()
            .map(|x| env.plan.requests[x.idx].prompt_tokens)
            .sum(),
        elapsed: w.elapsed,
    }
}

/// Checks every final event against the non-streaming `Wisdom::complete`
/// result for its request. Returns the expected suggestions by request.
fn check(env: &Env, run: &Run, xs: &[Exchange]) -> Outcome<HashMap<usize, Suggestion>> {
    let mut ids: Vec<usize> = xs.iter().map(|x| x.idx).collect();
    ids.sort_unstable();
    ids.dedup();
    let wisdom = &env.wisdom;
    let plan = &env.plan;
    let expected: HashMap<usize, Suggestion> = std::thread::scope(|scope| {
        let chunk = ids.len().div_ceil(SESSIONS).max(1);
        let handles: Vec<_> = ids
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&i| (i, wisdom.complete(&plan.requests[i].request)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check worker panicked"))
            .collect()
    });
    for x in xs {
        if let Err(why) = payload_matches(&x.final_payload, &expected[&x.idx]) {
            run.ledger.failed.fetch_add(1, Ordering::SeqCst);
            return Err(Failure(format!(
                "check mismatch on request {} ({:?}): {why}",
                x.idx, plan.requests[x.idx].request.prompt
            )));
        }
    }
    Ok(expected)
}

/// Whether a final SSE payload carries exactly `expected`.
fn payload_matches(payload: &str, expected: &Suggestion) -> Result<(), String> {
    let json = parse_json(payload).map_err(|e| format!("final event is not JSON: {e}"))?;
    let text = |k: &str| json.get(k).and_then(Json::as_str).map(str::to_string);
    let lint: Option<Vec<String>> = match json.get("lint") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|j| j.as_str().map(str::to_string))
            .collect(),
        _ => None,
    };
    let want_lint: Vec<String> = expected.lint.iter().map(|v| v.to_string()).collect();
    if text("completion").as_deref() != Some(expected.body.as_str()) {
        return Err("completion differs".to_string());
    }
    if text("snippet").as_deref() != Some(expected.snippet.as_str()) {
        return Err("snippet differs".to_string());
    }
    if json.get("schema_correct").and_then(Json::as_bool) != Some(expected.schema_correct) {
        return Err("schema_correct differs".to_string());
    }
    if lint.as_ref() != Some(&want_lint) {
        return Err("lint differs".to_string());
    }
    Ok(())
}

/// Runs the workload; `trace` selects the traced run.
pub fn run(run: &Run, seed: u64, secs: f64, trace: bool) -> Outcome<Report> {
    // Set-up twice (the median of two is their mean); the first server is
    // stopped before the second set-up starts.
    let mut setups = Vec::new();
    let mut env = None;
    for _ in 0..2 {
        if let Some(previous) = env.take() {
            Env::stop(previous)?;
        }
        let t = Instant::now();
        env = Some(start(seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let env = env.expect("set up");
    let setup_s = median(&setups).expect("two set-ups");
    let mut report = Report::default();
    let mut cursors = vec![0usize; SESSIONS];

    if trace {
        traced(run, &env, &mut cursors, secs, &mut report)?;
    } else {
        run.enter(Phase::Timed);
        reset_rss_peak();
        let win = window(&env, run, &mut cursors, secs)?;
        let rss = win.rss_mb.or_else(rss_peak_mb).unwrap_or(0.0);
        let w = summarize(&env, &win);
        run.enter(Phase::Check);
        check(&env, run, &win.xs)?;
        let n = win.xs.len();
        let lat_tail = tail(&w.latencies, &TAILS).expect("non-empty");
        let (rate, p50, tail_ms) = sub_window_medians(&win, lat_tail.p);
        report.detail_value("req_per_s", n as f64 / w.elapsed, "1/s", n);
        report.detail_value("tok_per_s", w.tokens as f64 / w.elapsed, "1/s", w.tokens);
        report.detail_pct("ttft_p50_ms", percentile(&w.ttfts, 50.0), "ms", 1e3);
        report.detail_pct("ttft_p99_ms", tail(&w.ttfts, &TAILS), "ms", 1e3);
        report.detail_pct("itl_p50_ms", percentile(&w.itls, 50.0), "ms", 1e3);
        report.detail_pct("itl_p90_ms", tail(&w.itls, &TAILS[1..]), "ms", 1e3);
        report.detail_pct("latency_p50_ms", percentile(&w.latencies, 50.0), "ms", 1e3);
        report.detail_pct("latency_p99_ms", Some(lat_tail), "ms", 1e3);
        report.detail_value("setup_s", setup_s, "s", setups.len());
        report.detail_value("rss_peak_mb", rss, "MB", RSS_AT_REQUESTS.min(n));
        report.detail_value("error_frac", 0.0, "frac", n);
        report.detail(format!(
            "medians over {SUB_WINDOWS} sub-windows: req_per_s={rate:.4} latency_p50_ms={:.4} latency_{}_ms={:.4}",
            p50 * 1e3,
            lat_tail.label(),
            tail_ms * 1e3
        ));
        report.metric("setup_s", setup_s, "s");
        report.metric("throughput_per_s", rate, "1/s");
        report.metric("latency_p50_ms", p50 * 1e3, "ms");
        report.metric("latency_tail_ms", tail_ms * 1e3, "ms");
        report.metric("rss_peak_mb", rss, "MB");
    }
    let sent = run.ledger.sent.load(Ordering::SeqCst);
    report.attempted = sent;
    report.failed = run.ledger.failed.load(Ordering::SeqCst);
    env.stop()?;
    Ok(report)
}

fn scrape(addr: SocketAddr) -> Outcome<Exposition> {
    match get(addr, "/metrics") {
        Ok((200, body)) => Ok(Exposition::parse(&body)),
        Ok((status, _)) => Err(Failure(format!("non-200: /metrics returned {status}"))),
        Err(e) => Err(Failure(format!("/metrics scrape failed: {e}"))),
    }
}

/// The traced run: an untraced and a traced window of half the run length
/// each, `/metrics` deltas over the traced one, then an in-process replay
/// of its requests through each layer's public entry point.
fn traced(
    run: &Run,
    env: &Env,
    cursors: &mut [usize],
    secs: f64,
    report: &mut Report,
) -> Outcome<()> {
    run.enter(Phase::Trace);
    let plain = summarize(env, &window(env, run, cursors, secs / 2.0)?);
    let addr = env.handle.addr();
    let before = scrape(addr)?;
    let mut trace = Trace::new();
    let win = window(env, run, cursors, secs / 2.0)?;
    let after = scrape(addr)?;
    let xs = &win.xs;
    // Client spans: send -> first event -> each event -> [DONE].
    for (i, x) in xs.iter().enumerate() {
        let root = trace.record("client.request", i as u64, None, x.sent, x.done);
        let mut prev = x.sent;
        for (k, &at) in x.token_times.iter().enumerate() {
            let name = if k == 0 {
                "client.first_event"
            } else {
                "client.event"
            };
            trace.record(name, i as u64, Some(root), prev, at);
            prev = at;
        }
        trace.record("client.final_events", i as u64, Some(root), prev, x.done);
    }
    let w = summarize(env, &win);
    let expected = check(env, run, xs)?;
    run.enter(Phase::Trace);

    let mut layers = Layers::default();
    let ms = |h: &crate::prom::Hist| h.quantile(0.5).unwrap_or(0.0) * 1e3;
    let route = [("route", "/v1/completions")];
    let handler = after
        .histogram("wisdom_request_duration_seconds", &route)
        .delta(&before.histogram("wisdom_request_duration_seconds", &route));
    layers.set(
        "server.handler_ms_p50",
        ms(&handler),
        handler.count as usize,
    );
    // The histogram buckets double in width, too coarse for a difference of
    // medians; sums are exact, so the gap is a difference of means.
    let client_mean = w.latencies.iter().sum::<f64>() / w.latencies.len() as f64;
    let handler_mean = handler.sum / handler.count.max(1.0);
    layers.set(
        "server.client_gap_ms_mean",
        (client_mean - handler_mean) * 1e3,
        xs.len(),
    );
    let counter = |name: &str| after.sum(name, &[]) - before.sum(name, &[]);
    let prompt_tokens = w.prompt_tokens.max(1) as f64;
    layers.set(
        "server.router_affinity_frac",
        counter("wisdom_router_prefix_matched_tokens_total") / prompt_tokens,
        w.prompt_tokens,
    );
    layers.set(
        "model.prefix_hit_token_frac",
        counter("wisdom_prefix_cache_hit_tokens_total") / prompt_tokens,
        w.prompt_tokens,
    );
    let queue = after
        .histogram("wisdom_queue_wait_seconds", &[])
        .delta(&before.histogram("wisdom_queue_wait_seconds", &[]));
    layers.set("model.queue_wait_ms_p50", ms(&queue), queue.count as usize);
    let rounds = after
        .histogram("wisdom_decode_token_seconds", &[])
        .delta(&before.histogram("wisdom_decode_token_seconds", &[]));
    layers.set(
        "model.decode_token_ms_p50",
        ms(&rounds),
        rounds.count as usize,
    );
    layers.set(
        "model.batch_occupancy_mean",
        w.tokens as f64 / rounds.count.max(1.0),
        rounds.count as usize,
    );
    layers.set(
        "model.tokens_per_request",
        w.tokens as f64 / xs.len() as f64,
        xs.len(),
    );
    layers.set(
        "trace.overhead_frac",
        median(&w.latencies).unwrap_or(0.0) / median(&plain.latencies).unwrap_or(1.0) - 1.0,
        xs.len(),
    );

    // In-process replay of the traced window's distinct requests.
    let mut ids: Vec<usize> = xs.iter().map(|x| x.idx).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.truncate(REPLAY_REQUESTS);
    trace.absorb(replay(env, &ids, &expected, &mut layers)?);

    let phases = env.phases;
    layers.set("setup.corpus_s", phases.corpus_s, 1);
    layers.set("setup.tokenizer_s", phases.tokenizer_s, 1);
    layers.set("setup.pretrain_s", phases.pretrain_s, 1);
    layers.set("setup.finetune_s", phases.finetune_s, 1);
    report.trace = Some(trace);
    layers.into_report(report);
    Ok(())
}

fn replay(
    env: &Env,
    ids: &[usize],
    expected: &HashMap<usize, Suggestion>,
    layers: &mut Layers,
) -> Outcome<Trace> {
    let wisdom = &env.wisdom;
    let tok = wisdom.tokenizer();
    let cfg = ServerConfig {
        replicas: REPLICAS,
        ..ServerConfig::default()
    };
    let pool = wisdom.replica_pool(
        wisdom_core::BatchConfig {
            max_batch_size: cfg.max_batch_size,
            queue_depth: cfg.queue_depth,
            prefix_cache_bytes: cfg.prefix_cache_bytes,
            speculative: cfg.speculative,
            precision: cfg.precision,
            constraint: cfg.constraint,
        },
        cfg.replicas,
        &[],
    );
    let router = Router::new(Arc::new(pool), RouterConfig::default(), None);
    let max_new = wisdom.config().max_new_tokens;
    let mut trace = Trace::new();
    let mut prompts = Vec::new();
    let mut snippets = Vec::new();
    let (mut prompt_bytes, mut out_tokens) = (0usize, 0usize);
    for &i in ids {
        let req = &env.plan.requests[i].request;
        let rid = i as u64;
        let root = trace.begin("replay.request", rid, None);
        let text = trace.time("core.prompt_text", rid, Some(root), || req.prompt_text());
        let prompt = trace.time("tokenizer.encode", rid, Some(root), || tok.encode(&text));
        trace.time("server.router_decide", rid, Some(root), || {
            router.decide(&prompt, max_new)
        });
        let decode_req = DecodeRequest {
            prompt: prompt.clone(),
            stops: vec![tok.eot(), tok.sep()],
            opts: GenerationOptions {
                max_new_tokens: max_new,
                ..GenerationOptions::default()
            },
            grammar: None,
        };
        let out = trace
            .time("model.submit_wait", rid, Some(root), || {
                router.submit(decode_req).map(|p| p.wait())
            })
            .map_err(|e| Failure(format!("replay submit: {e}")))?;
        // Per-token text for each event, then the whole output at once, as
        // the streaming handler does.
        let raw = trace.time("tokenizer.decode", rid, Some(root), || {
            for &t in &out {
                std::hint::black_box(wisdom.token_text(t));
            }
            tok.decode(&out)
        });
        let suggestion = trace.time("core.suggestion", rid, Some(root), || {
            Suggestion::from_raw(req, &raw)
        });
        trace.finish(root);
        ensure(suggestion == expected[&i], || {
            format!("check mismatch: replay of request {i} differs from Wisdom::complete")
        })?;
        prompt_bytes += text.len();
        out_tokens += out.len();
        prompts.push(prompt);
        snippets.push(suggestion.snippet);
    }
    router.pool().shutdown();
    let self_s = trace.self_time_by_name();
    let total = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let n = ids.len().max(1) as f64;
    layers.set(
        "core.prompt_text_us",
        total("core.prompt_text") * 1e6 / n,
        ids.len(),
    );
    layers.set(
        "tokenizer.encode_us_per_kb",
        total("tokenizer.encode") * 1e6 / (prompt_bytes.max(1) as f64 / 1024.0),
        ids.len(),
    );
    layers.set(
        "server.router_decide_us",
        total("server.router_decide") * 1e6 / n,
        ids.len(),
    );
    layers.set(
        "tokenizer.decode_us_per_tok",
        total("tokenizer.decode") * 1e6 / out_tokens.max(1) as f64,
        out_tokens,
    );
    layers.set(
        "core.suggestion_us",
        total("core.suggestion") * 1e6 / n,
        ids.len(),
    );
    layers.set(
        "trace.unattributed_frac",
        trace.unattributed_frac("replay.request").unwrap_or(0.0),
        ids.len(),
    );
    let cfg = wisdom.model().config();
    let window = cfg.context_window - max_new;
    layers.set(
        "model.prefill_us_per_tok",
        setup::prefill_us_per_tok(wisdom, &prompts, window),
        prompts.len(),
    );
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
    crate::yamlbench::measure(snippets.iter().map(String::as_str), layers);
    Ok(trace)
}
