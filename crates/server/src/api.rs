//! The completions REST API: the offline counterpart of the paper's
//! GRPC/REST inference service behind the VS Code plugin.
//!
//! Endpoints:
//!
//! * `POST /v1/completions` with `{"prompt": "...", "context": "..."}` →
//!   `{"completion", "snippet", "schema_correct", "lint", "model"}`;
//! * `GET /v1/stats` → queue depth, in-flight batch size, prefix-cache,
//!   speculation, quantization and grammar counters summed over the
//!   replica pool, plus a per-replica breakdown, as JSON;
//! * `GET /metrics` → the full serving-stack registry in Prometheus text
//!   exposition format;
//! * `GET /healthz` → `ok` (liveness: never touches the model or a lock);
//! * `GET /readyz` → `ready`, or 503 while any decode worker is not
//!   running (before startup and after shutdown).
//!
//! Every completion takes one path: a cache-aware [`Router`] places it on
//! a replica of a [`ReplicaPool`] of `ServerConfig::replicas` (at least 1)
//! continuous-batching decode workers, each with its own bounded queue and
//! prefix KV cache, and prefers the replica already holding the longest
//! prefix of its prompt. Every [`ServerConfig`] field takes effect at every
//! `max_batch_size`; `1` is a pool of one-lane workers.
//!
//! Completions accept `"stream": true` to switch the response to
//! server-sent events over chunked transfer encoding: one `data:` event
//! per decoded token, then a final event carrying the exact JSON object a
//! non-streaming request would have returned, then `data: [DONE]`. A
//! decode whose result is lost (the pool shut down under it) answers 503
//! with `Retry-After`; a stream in that state ends without the final event
//! and without `[DONE]`.
//!
//! Completions also accept `"constraint": "none" | "yaml" | "ansible"` to
//! pick the grammar the decode is masked through per request
//! (unrecognized values get a 400); requests without the field decode
//! under [`ServerConfig::constraint`]. `GET /v1/stats` echoes the default
//! and the pool's grammar counters.
//!
//! Connections are keep-alive when the client asks for it
//! (`Connection: keep-alive`), bounded by
//! `ServerConfig::keepalive_max_requests`; legacy read-to-EOF clients that
//! omit the header keep the old close-per-request behavior.
//!
//! [`ReplicaPool`]: wisdom_core::ReplicaPool

use std::io::Write;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use wisdom_core::{
    BatchConfig, CompletionRequest, Constraint, Pending, Precision, ReplicaTelemetry,
    SpeculativeConfig, SubmitError, Suggestion, Wisdom,
};

use crate::http::{
    finish_chunked, read_request_opt, write_sse_event, write_sse_head, Request, Response,
    MAX_BODY_BYTES,
};
use crate::json::{parse_json, Json};
use crate::router::{RoutePolicy, Router, RouterConfig, RouterTelemetry};
use crate::telemetry::{ServerTelemetry, METRICS_CONTENT_TYPE};

/// Server sizing and limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Connection-handler threads (fixed pool; a flood of connections
    /// queues instead of exhausting threads).
    pub worker_threads: usize,
    /// Sequences each replica's decode worker decodes together (clamped to
    /// ≥ 1; `1` decodes one sequence at a time).
    pub max_batch_size: usize,
    /// Bounded decode-queue depth per replica; when every replica's queue
    /// is full, completions get 503.
    pub queue_depth: usize,
    /// Request-body cap in bytes (over it: 413).
    pub max_body_bytes: usize,
    /// Socket read/write timeout per connection.
    pub io_timeout: Duration,
    /// `Retry-After` seconds advertised on 503 responses while the pool has
    /// no decode history to estimate a drain time from.
    pub retry_after_secs: u64,
    /// Byte budget for each replica's prefix KV cache; `0` disables
    /// prompt-prefix reuse across requests.
    pub prefix_cache_bytes: usize,
    /// Speculative-decoding sizing for greedy requests; disabled by default
    /// (`max_draft` 0).
    pub speculative: SpeculativeConfig,
    /// Weight precision the replicas serve at ([`Precision::Int8`] packs
    /// each replica's model copy to per-block int8 at startup); echoed in
    /// `GET /v1/stats`.
    pub precision: Precision,
    /// Default grammar constraint completions decode under; individual
    /// requests override it with a `"constraint"` field. Echoed in
    /// `GET /v1/stats`.
    pub constraint: Constraint,
    /// Independent decode replicas behind the router, each with its own
    /// decode worker and prefix KV cache sized by `prefix_cache_bytes`;
    /// clamped to ≥ 1.
    pub replicas: usize,
    /// How the router places completions over the replicas.
    pub route_policy: RoutePolicy,
    /// Requests served per keep-alive connection before the server answers
    /// with `connection: close` (bounds how long one client can pin a
    /// handler thread).
    pub keepalive_max_requests: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            worker_threads: 8,
            max_batch_size: 8,
            queue_depth: 32,
            max_body_bytes: MAX_BODY_BYTES,
            io_timeout: Duration::from_secs(10),
            retry_after_secs: 1,
            prefix_cache_bytes: 64 << 20,
            speculative: SpeculativeConfig::disabled(),
            precision: Precision::F32,
            constraint: Constraint::None,
            replicas: 1,
            route_policy: RoutePolicy::PrefixAffinity,
            keepalive_max_requests: 32,
        }
    }
}

/// Everything a request handler needs: the assistant, the router over its
/// replica pool, the replicas' telemetry contexts, and the registry.
#[derive(Debug)]
struct Service {
    wisdom: Arc<Wisdom>,
    config: ServerConfig,
    router: Router,
    /// Per-replica telemetry contexts the pool records into; `/v1/stats`
    /// sums quantization and grammar counters across them.
    replicas: Vec<ReplicaTelemetry>,
    telemetry: ServerTelemetry,
    /// Test hook: while set, `GET /readyz` reports 503 regardless of the
    /// decode workers' actual state.
    forced_unready: AtomicBool,
}

/// The inference server: owns a trained [`Wisdom`] assistant and serves
/// completion requests over HTTP. Connections are handled by a fixed
/// worker pool; completions are routed onto a pool of continuous-batching
/// decode replicas.
pub struct WisdomServer {
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    service: Arc<Service>,
}

/// Handle for stopping a running server from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    service: Arc<Service>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Asks the serving loop to stop (takes effect on the next connection).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop.
        let _ = std::net::TcpStream::connect(self.addr);
    }

    /// The server's metric registry and access log.
    pub fn telemetry(&self) -> &ServerTelemetry {
        &self.service.telemetry
    }

    /// Test hook: pause/resume admission from the decode queue into the
    /// running batch, making queue-overflow (503) behavior deterministic.
    #[doc(hidden)]
    pub fn set_admission_paused(&self, paused: bool) {
        self.service.router.pool().set_admission_paused(paused);
    }

    /// Test hook: force `GET /readyz` to 503 (`false`) or restore normal
    /// worker-derived readiness (`true`).
    #[doc(hidden)]
    pub fn set_ready(&self, ready: bool) {
        self.service.forced_unready.store(!ready, Ordering::SeqCst);
    }
}

impl WisdomServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) with default
    /// [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(wisdom: Arc<Wisdom>, addr: impl ToSocketAddrs) -> std::io::Result<WisdomServer> {
        Self::bind_with(wisdom, addr, ServerConfig::default())
    }

    /// Binds with explicit sizing/limits.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind_with(
        wisdom: Arc<Wisdom>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<WisdomServer> {
        Self::bind_with_telemetry(wisdom, addr, config, ServerTelemetry::new())
    }

    /// [`Self::bind_with`] with an explicit [`ServerTelemetry`] (tests
    /// inject one with a capturing logger). The replicas, their prefix
    /// caches, and the router record into the same registry `GET /metrics`
    /// renders.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind_with_telemetry(
        wisdom: Arc<Wisdom>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        telemetry: ServerTelemetry,
    ) -> std::io::Result<WisdomServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(WisdomServer {
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
            service: Arc::new(Service::new(wisdom, config, telemetry)),
        })
    }

    /// A handle for stopping the server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.listener.local_addr().expect("bound listener"),
            shutdown: Arc::clone(&self.shutdown),
            service: Arc::clone(&self.service),
        }
    }

    /// Serves until [`ServerHandle::stop`] is called. Connections are
    /// dispatched to a fixed pool of `worker_threads` handlers; in-flight
    /// requests finish before `serve` returns.
    pub fn serve(self) {
        let WisdomServer {
            listener,
            shutdown,
            service,
        } = self;
        let workers = service.config.worker_threads.max(1);
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = Arc::clone(&rx);
                let service = &service;
                scope.spawn(move || loop {
                    // Hold the receiver lock only while dequeuing.
                    let conn = rx.lock().expect("worker queue lock").recv();
                    let Ok(mut conn) = conn else { break };
                    service.handle_connection(&mut conn);
                });
            }
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                let _ = tx.send(conn);
            }
            // Disconnect the channel: workers drain queued connections and
            // exit, then the scope joins them.
            drop(tx);
        });
        service.router.pool().shutdown();
    }
}

impl Service {
    /// Spawns the replica pool `config` describes and the router over it,
    /// both recording into `telemetry`'s registry.
    fn new(wisdom: Arc<Wisdom>, config: ServerConfig, telemetry: ServerTelemetry) -> Service {
        let replicas = telemetry.replica_bundles(config.replicas.max(1));
        let pool = wisdom.replica_pool(
            BatchConfig {
                max_batch_size: config.max_batch_size,
                queue_depth: config.queue_depth,
                prefix_cache_bytes: config.prefix_cache_bytes,
                speculative: config.speculative,
                precision: config.precision,
                constraint: config.constraint,
            },
            replicas.len(),
            &replicas,
        );
        let policy = match config.route_policy {
            RoutePolicy::PrefixAffinity => "prefix_affinity",
            RoutePolicy::RoundRobin => "round_robin",
            RoutePolicy::Rendezvous => "rendezvous",
        };
        let router = Router::new(
            Arc::new(pool),
            RouterConfig {
                policy: config.route_policy,
                ..RouterConfig::default()
            },
            Some(RouterTelemetry::register(telemetry.registry(), policy)),
        );
        Service {
            wisdom,
            config,
            router,
            replicas,
            telemetry,
            forced_unready: AtomicBool::new(false),
        }
    }

    /// Serves one connection: a keep-alive loop when the client asks for
    /// it (bounded by `keepalive_max_requests`), one request otherwise.
    /// Streaming completions take over the socket (SSE commits the
    /// connection to chunked encoding) and always close afterwards.
    fn handle_connection(&self, conn: &mut TcpStream) {
        let config = &self.config;
        let telemetry = &self.telemetry;
        let _ = conn.set_read_timeout(Some(config.io_timeout));
        let _ = conn.set_write_timeout(Some(config.io_timeout));
        let mut served = 0usize;
        loop {
            let started = Instant::now();
            match read_request_opt(conn, config.max_body_bytes) {
                // Clean EOF between requests: the client is done.
                Ok(None) => break,
                Ok(Some(request)) => {
                    served += 1;
                    let streaming = wants_streaming(&request);
                    let keep = !streaming
                        && wants_keep_alive(&request)
                        && served < config.keepalive_max_requests.max(1);
                    let status = if streaming {
                        self.stream_completion(conn, &request)
                    } else {
                        let response = self.dispatch(&request);
                        let _ = response.write_to_with(conn, keep);
                        response.status
                    };
                    telemetry.observe_request(
                        &request.method,
                        &request.path,
                        status,
                        started.elapsed().as_secs_f64(),
                    );
                    if !keep {
                        break;
                    }
                }
                Err(e) => {
                    let response = Response::text(e.status, e.to_string());
                    let _ = response.write_to(conn);
                    // No parsed path to attribute: folds into the "other"
                    // route.
                    telemetry.observe_request("-", "-", e.status, started.elapsed().as_secs_f64());
                    telemetry.logger.info(
                        "http",
                        &[("error", &e.to_string()), ("status", &e.status.to_string())],
                    );
                    break;
                }
            }
        }
    }

    /// Answers one non-streaming request.
    fn dispatch(&self, request: &Request) -> Response {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Response::text(200, "ok"),
            ("GET", "/readyz") => {
                // Derived from the decode workers' flags: a probe never
                // touches the model or a scheduler lock.
                let ready = !self.forced_unready.load(Ordering::SeqCst)
                    && self.router.pool().worker_ready();
                if ready {
                    Response::text(200, "ready")
                } else {
                    Response::text(503, "decode worker is not ready")
                        .with_header("retry-after", self.config.retry_after_secs.to_string())
                }
            }
            ("GET", "/metrics") => {
                Response::text(200, self.telemetry.render()).with_content_type(METRICS_CONTENT_TYPE)
            }
            ("GET", "/v1/stats") => self.stats(),
            ("POST", "/v1/completions") => self.complete(request),
            ("POST", "/v1/lint") => lint(request),
            ("POST", _) | ("GET", _) => Response::text(404, "unknown endpoint"),
            _ => Response::text(405, "method not allowed"),
        }
    }

    /// Router-placed completions: submit to the replica the router picks,
    /// spill to others on overflow, 503 with an estimated `Retry-After`
    /// when every replica is full or the result is lost.
    fn complete(&self, request: &Request) -> Response {
        let (completion, constraint) = match parse_completion(request, self.config.constraint) {
            Ok(r) => r,
            Err(response) => return response,
        };
        match self
            .router
            .submit(self.wisdom.decode_request(&completion, constraint))
            .and_then(Pending::wait_checked)
        {
            Ok(out) => Response::json(self.payload(&completion, &out).to_text()),
            Err(e) => self.unavailable(e),
        }
    }

    /// The 503 for a shed or lost decode, with the router's `Retry-After`
    /// estimate.
    fn unavailable(&self, error: SubmitError) -> Response {
        let secs = self.router.retry_after_secs(self.config.retry_after_secs);
        Response::text(503, error.to_string()).with_header("retry-after", secs.to_string())
    }

    /// The `/v1/completions` response object for decoded tokens `out`.
    /// Shared by the non-streaming response body and the final SSE event,
    /// which is what makes streamed and non-streamed responses
    /// byte-identical.
    fn payload(&self, request: &CompletionRequest, out: &[u32]) -> Json {
        let suggestion = Suggestion::from_raw(request, &self.wisdom.tokenizer().decode(out));
        let lint = suggestion
            .lint
            .iter()
            .map(|v| Json::Str(v.to_string()))
            .collect();
        Json::obj(vec![
            ("completion", Json::Str(suggestion.body)),
            ("snippet", Json::Str(suggestion.snippet)),
            ("schema_correct", Json::Bool(suggestion.schema_correct)),
            ("lint", Json::Arr(lint)),
            ("model", Json::Str("wisdom".to_string())),
        ])
    }

    /// Streams a completion as server-sent events, writing directly to the
    /// socket: one `{"token": …}` event per decoded token, the exact
    /// non-streaming JSON object as the final data event, then `[DONE]`.
    /// Returns the status to log. Validation failures and sheds are
    /// written as ordinary (non-chunked) responses before any SSE bytes
    /// commit the stream; a result lost mid-stream ends the body without
    /// the final event and `[DONE]`, and logs 503.
    fn stream_completion(&self, conn: &mut impl Write, request: &Request) -> u16 {
        let reject = |conn: &mut _, response: Response| {
            let _ = response.write_to(conn);
            response.status
        };
        let (completion, constraint) = match parse_completion(request, self.config.constraint) {
            Ok(r) => r,
            Err(response) => return reject(conn, response),
        };
        let stream = match self
            .router
            .submit_streaming(self.wisdom.decode_request(&completion, constraint))
        {
            Ok(stream) => stream,
            Err(e) => return reject(conn, self.unavailable(e)),
        };
        // From here the head has committed the connection to a chunked 200;
        // write failures (client gone) only abort the body.
        let started = Instant::now();
        if write_sse_head(conn).is_ok() {
            let mut previous: Option<Instant> = None;
            for token in stream.tokens.iter() {
                let now = Instant::now();
                match previous {
                    None => self
                        .telemetry
                        .stream_ttft
                        .observe(started.elapsed().as_secs_f64()),
                    Some(p) => self
                        .telemetry
                        .stream_token
                        .observe(now.duration_since(p).as_secs_f64()),
                }
                previous = Some(now);
                let event =
                    Json::obj(vec![("token", Json::Str(self.wisdom.token_text(token)))]).to_text();
                if write_sse_event(conn, &event).is_err() {
                    break;
                }
            }
        }
        let status = match stream.result.wait_checked() {
            Ok(out) => {
                let _ = write_sse_event(conn, &self.payload(&completion, &out).to_text());
                let _ = write_sse_event(conn, "[DONE]");
                200
            }
            Err(_) => 503,
        };
        let _ = finish_chunked(conn);
        status
    }

    /// `/v1/stats`: load, cache, speculation, precision, quantization and
    /// grammar figures summed over the replica pool, plus `replica_count` and
    /// a per-replica breakdown.
    fn stats(&self) -> Response {
        let config = &self.config;
        let agg = self.router.pool().aggregate();
        let num = |n: usize| Json::Num(n as f64);
        let count = |n: u64| Json::Num(n as f64);
        let pc = agg.prefix_cache.unwrap_or_default();
        let quant_bundles = || self.replicas.iter().filter_map(|b| b.quant.as_ref());
        let grammar_bundles = || self.replicas.iter().filter_map(|b| b.grammar.as_ref());
        let replicas = agg
            .replicas
            .iter()
            .map(|s| {
                let rpc = s.prefix_cache.unwrap_or_default();
                Json::obj(vec![
                    ("queue_depth", num(s.queue_depth)),
                    ("in_flight", num(s.in_flight)),
                    ("wakeups", count(s.wakeups)),
                    ("prefix_cache_hits", count(rpc.hits)),
                    ("prefix_cache_bytes", num(rpc.bytes)),
                ])
            })
            .collect();
        Response::json(
            Json::obj(vec![
                ("queue_depth", num(agg.queue_depth)),
                ("in_flight", num(agg.in_flight)),
                ("max_batch_size", num(config.max_batch_size)),
                ("queue_capacity", num(config.queue_depth)),
                (
                    "prefix_cache",
                    Json::obj(vec![
                        ("enabled", Json::Bool(agg.prefix_cache.is_some())),
                        ("hits", count(pc.hits)),
                        ("misses", count(pc.misses)),
                        ("hit_tokens", count(pc.hit_tokens)),
                        ("evicted_segments", count(pc.evicted_segments)),
                        ("bytes", num(pc.bytes)),
                        ("segments", num(pc.segments)),
                        ("budget_bytes", num(pc.budget_bytes)),
                    ]),
                ),
                (
                    "speculative",
                    Json::obj(vec![
                        ("enabled", Json::Bool(config.speculative.enabled())),
                        ("k", num(config.speculative.max_draft)),
                        (
                            "draft",
                            Json::Str(config.speculative.draft_label().to_string()),
                        ),
                    ]),
                ),
                (
                    "precision",
                    Json::Str(config.precision.as_str().to_string()),
                ),
                (
                    "quant",
                    Json::obj(vec![
                        (
                            "weight_bytes",
                            num(quant_bundles().map(|q| q.weight_bytes.get()).sum::<f64>() as usize),
                        ),
                        (
                            "weight_bytes_saved",
                            num(quant_bundles()
                                .map(|q| q.weight_bytes_saved.get())
                                .sum::<f64>() as usize),
                        ),
                        (
                            "matmuls_int8",
                            count(quant_bundles().map(|q| q.matmuls_int8.get()).sum()),
                        ),
                        (
                            "matmuls_f32",
                            count(quant_bundles().map(|q| q.matmuls_f32.get()).sum()),
                        ),
                    ]),
                ),
                (
                    "grammar",
                    Json::obj(vec![
                        (
                            "constraint",
                            Json::Str(config.constraint.as_str().to_string()),
                        ),
                        (
                            "masked_tokens",
                            count(grammar_bundles().map(|g| g.masked_tokens.get()).sum()),
                        ),
                        (
                            "forced_tokens",
                            count(grammar_bundles().map(|g| g.forced_fast_path.get()).sum()),
                        ),
                        (
                            "states_cached",
                            num(grammar_bundles()
                                .map(|g| g.states_cached.get())
                                .sum::<f64>() as usize),
                        ),
                    ]),
                ),
                ("replica_count", num(self.router.pool().len())),
                ("replicas", Json::Arr(replicas)),
            ])
            .to_text(),
        )
    }
}

/// Whether the client explicitly asked to reuse the connection. Absent
/// header means close — the pre-keep-alive clients read bodies to EOF and
/// would hang on a held-open socket.
fn wants_keep_alive(request: &Request) -> bool {
    request
        .headers
        .get("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
}

/// Whether this is a completion request with `"stream": true`.
fn wants_streaming(request: &Request) -> bool {
    request.method == "POST"
        && request.path == "/v1/completions"
        && parse_json(&request.body_text())
            .ok()
            .and_then(|p| p.get("stream").and_then(Json::as_bool))
            == Some(true)
}

/// Lint-as-a-service: `{"content": "<yaml>"}` → schema findings. The same
/// strict checker that gates suggestions, exposed for editor integrations.
fn lint(request: &Request) -> Response {
    let payload = match parse_json(&request.body_text()) {
        Ok(p) => p,
        Err(e) => return Response::text(400, e.to_string()),
    };
    let Some(content) = payload.get("content").and_then(Json::as_str) else {
        return Response::text(400, "missing required field 'content'");
    };
    let violations = wisdom_core::lint_document(content);
    let findings = violations
        .iter()
        .map(|v| Json::Str(v.to_string()))
        .collect();
    Response::json(
        Json::obj(vec![
            ("schema_correct", Json::Bool(violations.is_empty())),
            ("findings", Json::Arr(findings)),
        ])
        .to_text(),
    )
}

/// Parses the completion payload shared by all decode paths — including
/// the optional `"constraint"` field, resolved against the server's
/// configured default — or the 400 explaining what was wrong with it.
fn parse_completion(
    request: &Request,
    default_constraint: Constraint,
) -> Result<(CompletionRequest, Constraint), Response> {
    let payload =
        parse_json(&request.body_text()).map_err(|e| Response::text(400, e.to_string()))?;
    let Some(prompt) = payload.get("prompt").and_then(Json::as_str) else {
        return Err(Response::text(400, "missing required field 'prompt'"));
    };
    let context = payload.get("context").and_then(Json::as_str).unwrap_or("");
    let constraint = match payload.get("constraint") {
        None => default_constraint,
        Some(json) => {
            let Some(name) = json.as_str() else {
                return Err(Response::text(400, "field 'constraint' must be a string"));
            };
            name.parse::<Constraint>()
                .map_err(|e| Response::text(400, e))?
        }
    };
    Ok((CompletionRequest::new(context, prompt), constraint))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap};
    use std::sync::OnceLock;
    use wisdom_core::WisdomConfig;

    fn tiny_wisdom() -> Arc<Wisdom> {
        static WISDOM: OnceLock<Arc<Wisdom>> = OnceLock::new();
        WISDOM
            .get_or_init(|| Arc::new(Wisdom::train(&WisdomConfig::tiny(), None)))
            .clone()
    }

    fn service(config: ServerConfig) -> Service {
        Service::new(
            tiny_wisdom(),
            config,
            ServerTelemetry::with_logger(wisdom_telemetry::Logger::default()),
        )
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: HashMap::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            headers: HashMap::new(),
            body: Vec::new(),
        }
    }

    fn json_body(r: Response) -> Json {
        parse_json(&String::from_utf8(r.body).unwrap()).unwrap()
    }

    fn retry_after(r: &Response) -> Option<&str> {
        r.headers
            .iter()
            .find(|(k, _)| k == "retry-after")
            .map(|(_, v)| v.as_str())
    }

    /// Polls `cond` until it holds, failing after ten seconds.
    fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn healthz_works() {
        let r = service(ServerConfig::default()).dispatch(&get("/healthz"));
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn completions_endpoint_returns_json() {
        let r = service(ServerConfig::default())
            .dispatch(&post("/v1/completions", r#"{"prompt":"install nginx"}"#));
        assert_eq!(r.status, 200);
        let j = json_body(r);
        assert!(j.get("completion").is_some());
        assert!(j.get("schema_correct").and_then(Json::as_bool).is_some());
        let snippet = j.get("snippet").and_then(Json::as_str).unwrap();
        assert!(snippet.starts_with("- name: install nginx"));
    }

    #[test]
    fn lint_endpoint_reports_findings() {
        let s = service(ServerConfig::default());
        let good = s.dispatch(&post(
            "/v1/lint",
            r#"{"content":"- name: ok\n  ansible.builtin.ping: {}\n"}"#,
        ));
        assert_eq!(good.status, 200);
        let j = json_body(good);
        assert_eq!(j.get("schema_correct").and_then(Json::as_bool), Some(true));

        let bad = s.dispatch(&post(
            "/v1/lint",
            r#"{"content":"- name: bad\n  not_a_module: {}\n"}"#,
        ));
        let j = json_body(bad);
        assert_eq!(j.get("schema_correct").and_then(Json::as_bool), Some(false));
        assert!(matches!(j.get("findings"), Some(Json::Arr(items)) if !items.is_empty()));
    }

    #[test]
    fn stats_endpoint_reports_an_idle_one_lane_pool() {
        let r = service(ServerConfig {
            max_batch_size: 1,
            prefix_cache_bytes: 0,
            ..ServerConfig::default()
        })
        .dispatch(&get("/v1/stats"));
        assert_eq!(r.status, 200);
        let j = json_body(r);
        assert_eq!(j.get("queue_depth").and_then(Json::as_f64), Some(0.0));
        assert_eq!(j.get("in_flight").and_then(Json::as_f64), Some(0.0));
        assert_eq!(j.get("max_batch_size").and_then(Json::as_f64), Some(1.0));
        let pc = j.get("prefix_cache").expect("prefix_cache object");
        assert_eq!(pc.get("enabled").and_then(Json::as_bool), Some(false));
        let spec = j.get("speculative").expect("speculative object");
        assert_eq!(spec.get("enabled").and_then(Json::as_bool), Some(false));
        assert_eq!(spec.get("k").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spec.get("draft").and_then(Json::as_str), Some("off"));
    }

    /// Every key path of a JSON value; array elements share a `[]` segment.
    fn key_paths(j: &Json, prefix: &str, out: &mut BTreeSet<String>) {
        match j {
            Json::Obj(map) => {
                for (k, v) in map {
                    let path = format!("{prefix}{k}");
                    out.insert(path.clone());
                    key_paths(v, &format!("{path}."), out);
                }
            }
            Json::Arr(items) => {
                for v in items {
                    key_paths(v, &format!("{}[].", prefix.trim_end_matches('.')), out);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn default_stats_key_set_is_pinned() {
        let r = service(ServerConfig::default()).dispatch(&get("/v1/stats"));
        assert_eq!(r.status, 200);
        let mut got = BTreeSet::new();
        key_paths(&json_body(r), "", &mut got);
        let want: BTreeSet<String> = [
            "queue_depth",
            "in_flight",
            "max_batch_size",
            "queue_capacity",
            "prefix_cache",
            "prefix_cache.enabled",
            "prefix_cache.hits",
            "prefix_cache.misses",
            "prefix_cache.hit_tokens",
            "prefix_cache.evicted_segments",
            "prefix_cache.bytes",
            "prefix_cache.segments",
            "prefix_cache.budget_bytes",
            "speculative",
            "speculative.enabled",
            "speculative.k",
            "speculative.draft",
            "precision",
            "quant",
            "quant.weight_bytes",
            "quant.weight_bytes_saved",
            "quant.matmuls_int8",
            "quant.matmuls_f32",
            "grammar",
            "grammar.constraint",
            "grammar.masked_tokens",
            "grammar.forced_tokens",
            "grammar.states_cached",
            "replica_count",
            "replicas",
            "replicas[].queue_depth",
            "replicas[].in_flight",
            "replicas[].wakeups",
            "replicas[].prefix_cache_hits",
            "replicas[].prefix_cache_bytes",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn readyz_follows_the_decode_workers_and_the_forced_flag() {
        let s = service(ServerConfig {
            retry_after_secs: 2,
            ..ServerConfig::default()
        });
        eventually("the decode worker", || {
            s.dispatch(&get("/readyz")).status == 200
        });
        assert_eq!(s.dispatch(&get("/readyz")).body, b"ready");
        s.forced_unready.store(true, Ordering::SeqCst);
        let not_ready = s.dispatch(&get("/readyz"));
        assert_eq!(not_ready.status, 503);
        assert_eq!(retry_after(&not_ready), Some("2"));
        s.forced_unready.store(false, Ordering::SeqCst);
        assert_eq!(s.dispatch(&get("/readyz")).status, 200);

        // A worker that exits takes readiness with it.
        s.router.pool().shutdown();
        eventually("the workers to exit", || !s.router.pool().worker_ready());
        let gone = s.dispatch(&get("/readyz"));
        assert_eq!(gone.status, 503);
        assert_eq!(retry_after(&gone), Some("2"));
    }

    #[test]
    fn metrics_renders_the_exposition() {
        let s = service(ServerConfig::default());
        s.telemetry.observe_request("GET", "/healthz", 200, 0.001);
        let r = s.dispatch(&get("/metrics"));
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, METRICS_CONTENT_TYPE);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("# TYPE wisdom_request_duration_seconds histogram"));
        assert!(body.contains("# TYPE wisdom_ttft_seconds histogram"));
        assert!(body.contains("# TYPE wisdom_queue_wait_seconds histogram"));
        assert!(body.contains("# TYPE wisdom_batch_occupancy gauge"));
        assert!(body.contains("# TYPE wisdom_prefix_cache_hits_total counter"));
    }

    #[test]
    fn bad_requests_are_rejected() {
        let s = service(ServerConfig::default());
        assert_eq!(s.dispatch(&post("/v1/completions", "not json")).status, 400);
        assert_eq!(s.dispatch(&post("/v1/completions", "{}")).status, 400);
        assert_eq!(s.dispatch(&post("/nope", "{}")).status, 404);
    }

    /// A one-lane service with admission paused, so submissions park in the
    /// queue until the test shuts the pool down under them.
    fn paused_one_lane_service() -> Service {
        let s = service(ServerConfig {
            max_batch_size: 1,
            retry_after_secs: 4,
            ..ServerConfig::default()
        });
        s.router.pool().set_admission_paused(true);
        s
    }

    #[test]
    fn lost_decode_result_answers_503() {
        let s = paused_one_lane_service();
        let response = std::thread::scope(|scope| {
            let client = scope
                .spawn(|| s.dispatch(&post("/v1/completions", r#"{"prompt":"install nginx"}"#)));
            eventually("the queued request", || {
                s.router.pool().aggregate().queue_depth == 1
            });
            s.router.pool().shutdown();
            client.join().expect("client thread")
        });
        assert_eq!(response.status, 503, "a lost result is not a success");
        assert_eq!(retry_after(&response), Some("4"));
    }

    #[test]
    fn lost_stream_result_ends_without_the_final_event() {
        let s = paused_one_lane_service();
        let request = post(
            "/v1/completions",
            r#"{"prompt":"install nginx","stream":true}"#,
        );
        let (status, wire) = std::thread::scope(|scope| {
            let client = scope.spawn(|| {
                let mut wire = Vec::new();
                (s.stream_completion(&mut wire, &request), wire)
            });
            eventually("the queued stream", || {
                s.router.pool().aggregate().queue_depth == 1
            });
            s.router.pool().shutdown();
            client.join().expect("client thread")
        });
        assert_eq!(status, 503, "the access log records the lost stream");
        let wire = String::from_utf8(wire).unwrap();
        assert!(wire.starts_with("HTTP/1.1 200"), "{wire}");
        assert!(!wire.contains("[DONE]"), "{wire}");
        assert!(!wire.contains("\"snippet\""), "{wire}");
        assert!(
            wire.ends_with("0\r\n\r\n"),
            "chunked body still closes: {wire}"
        );
    }
}
