//! The TCP service: acceptor, connection governor, per-connection handler
//! with progress deadlines, routes, client-disconnect cancellation, and
//! graceful drain.
//!
//! Threading model: one non-blocking acceptor thread polls the listener
//! and a stop flag; each admitted connection gets its own handler thread
//! (connection count is capped by the governor, so thread count is too).
//! Handlers read with a short socket timeout so every loop iteration
//! re-checks the stop flag and the request-progress deadlines — no state
//! exists in which a hostile peer can park a thread indefinitely.

use crate::http::{HttpRequest, Limits, Parsed, Parser, Response};
use crate::tenant::{AuthError, TenantConfig, TenantRegistry};
use muve_dbms::Table;
use muve_obs::{metrics, CancelToken};
use muve_pipeline::{SessionConfig, Stage};
use muve_serve::{BreakerState, Request, ServeOutcome, ServeStats, Server, ServerConfig};
use serde_json::{json, Value};
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Network-layer configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Max concurrent connections; the governor sheds beyond this.
    pub max_conns: usize,
    /// Parser caps.
    pub limits: Limits,
    /// A request head must arrive in full within this long of its first
    /// byte (slow-header / slowloris defense).
    pub header_deadline: Duration,
    /// The body must arrive within this long after the head completed.
    pub body_deadline: Duration,
    /// Idle keep-alive connections are closed after this long.
    pub idle_keepalive: Duration,
    /// Query deadline when the request doesn't name one.
    pub default_deadline: Duration,
    /// Upper bound on client-requested deadlines.
    pub max_deadline: Duration,
    /// Ticket-poll / client-gone-check interval while a query is in
    /// flight.
    pub poll: Duration,
    /// How many completed query traces `GET /trace/<id>` can reach back.
    pub trace_ring: usize,
    /// Tenant table; empty = open serving as `"public"`.
    pub tenants: Vec<TenantConfig>,
    /// How long [`NetServer::shutdown`] waits for handler threads after
    /// the listener closes.
    pub drain_grace: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_conns: 64,
            limits: Limits::default(),
            header_deadline: Duration::from_secs(5),
            body_deadline: Duration::from_secs(10),
            idle_keepalive: Duration::from_secs(30),
            default_deadline: Duration::from_secs(2),
            max_deadline: Duration::from_secs(30),
            poll: Duration::from_millis(10),
            trace_ring: 256,
            tenants: Vec::new(),
            drain_grace: Duration::from_secs(10),
        }
    }
}

/// What [`NetServer::shutdown`] reports after the drain completes.
#[derive(Debug)]
pub struct NetReport {
    /// Final serve-layer stats.
    pub stats: ServeStats,
    /// Whether `submitted == served + degraded + shed` held at the end.
    pub reconciled: bool,
    /// Connections still open when the grace period expired (0 on a
    /// clean drain).
    pub stragglers: usize,
}

struct Shared {
    server: Server,
    registry: TenantRegistry,
    cfg: NetConfig,
    mem_cap_bytes: usize,
    base_session: SessionConfig,
    stop: AtomicBool,
    open_conns: AtomicUsize,
    next_trace: AtomicU64,
    traces: Mutex<VecDeque<(u64, Value)>>,
}

/// The running network server.
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl NetServer {
    /// Bind, wire tenant lanes into the serve config, and start accepting.
    pub fn start(
        table: Arc<Table>,
        mut serve_cfg: ServerConfig,
        base_session: SessionConfig,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let registry = TenantRegistry::new(cfg.tenants.clone());
        serve_cfg.lane_weights = registry.lane_weights();
        let mem_cap_bytes = serve_cfg.mem_cap_mb << 20;
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            server: Server::new(table, serve_cfg),
            registry,
            cfg,
            mem_cap_bytes,
            base_session,
            stop: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            next_trace: AtomicU64::new(1),
            traces: Mutex::new(VecDeque::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("muve-net-accept".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        Ok(NetServer {
            shared,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped serve layer (stats, breakers) — read-only use.
    pub fn serve(&self) -> &Server {
        &self.shared.server
    }

    /// Why `/healthz` would report degraded right now (empty = healthy).
    pub fn degraded_reasons(&self) -> Vec<String> {
        degraded_reasons(&self.shared)
    }

    /// Graceful drain: stop accepting, let in-flight requests finish,
    /// flush everything still queued as typed `ShuttingDown` sheds, and
    /// report reconciled stats.
    pub fn shutdown(mut self) -> NetReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join(); // drops the listener, closing the port
        }
        // Drain the serve layer FIRST: handler threads sit blocked on
        // tickets of queued requests, and only the drain (in-flight
        // finishes, queued flushed as typed ShuttingDown sheds) resolves
        // them. Then the handlers write their final responses and close.
        let report = self.shared.server.drain_shedding();
        let deadline = Instant::now() + self.shared.cfg.drain_grace;
        while self.shared.open_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        let stragglers = self.shared.open_conns.load(Ordering::SeqCst);
        let reconciled = report.stats.reconciles();
        NetReport {
            stats: report.stats,
            reconciled,
            stragglers,
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // A dropped-without-shutdown server still stops accepting.
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let m = metrics();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                m.counter("net.conns_accepted").incr();
                let open = shared.open_conns.fetch_add(1, Ordering::SeqCst) + 1;
                if open > shared.cfg.max_conns {
                    // Governor: shed with a typed 503 rather than queueing
                    // unbounded handler threads.
                    m.counter("net.conns_shed").incr();
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let mut s = stream;
                    let _ = Response::error(503, "overloaded", "connection limit reached")
                        .with_header("retry-after", "1")
                        .closing()
                        .write_to(&mut s);
                    shared.open_conns.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                m.gauge("net.conns_open").set(open as i64);
                let conn_shared = Arc::clone(&shared);
                let spawned =
                    thread::Builder::new()
                        .name("muve-net-conn".into())
                        .spawn(move || {
                            handle_conn(stream, &conn_shared);
                            let left = conn_shared.open_conns.fetch_sub(1, Ordering::SeqCst) - 1;
                            metrics().gauge("net.conns_open").set(left as i64);
                        });
                if spawned.is_err() {
                    shared.open_conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_conn(mut stream: TcpStream, shared: &Shared) {
    let m = metrics();
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
        || stream
            .set_write_timeout(Some(Duration::from_secs(5)))
            .is_err()
    {
        return;
    }
    let mut parser = Parser::new(shared.cfg.limits.clone());
    let mut buf = [0u8; 4096];
    let mut head_start: Option<Instant> = None;
    let mut idle_since = Instant::now();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            if parser.mid_request() {
                let _ = Response::error(503, "shutting-down", "server is shutting down")
                    .closing()
                    .write_to(&mut stream);
            }
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // client closed
            Ok(n) => {
                idle_since = Instant::now();
                if head_start.is_none() {
                    head_start = Some(Instant::now());
                }
                // Fresh bytes go in exactly once; the loop then drains any
                // pipelined surplus with empty feeds.
                let mut chunk: &[u8] = &buf[..n];
                loop {
                    match parser.feed(chunk) {
                        Ok(Parsed::Complete(req)) => {
                            head_start = None;
                            let keep = req.keep_alive;
                            let resp = route(shared, req, &stream);
                            let close = resp.close || !keep;
                            m.counter(&format!("net.responses_{}xx", resp.status / 100))
                                .incr();
                            if resp.write_to(&mut stream).is_err() || close {
                                return;
                            }
                            idle_since = Instant::now();
                            chunk = &[];
                            if parser.mid_request() {
                                // Pipelined next request already buffered:
                                // restart its progress clock and keep
                                // draining without another read.
                                head_start = Some(Instant::now());
                                continue;
                            }
                            break;
                        }
                        Ok(Parsed::Partial) => break,
                        Err(e) => {
                            m.counter("net.bad_requests").incr();
                            let _ = Response::error(e.http_status(), "bad-request", &e.to_string())
                                .closing()
                                .write_to(&mut stream);
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // No bytes this tick — enforce the progress deadlines.
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return, // reset / broken pipe
        }
        if let Some(start) = head_start {
            let allowance = if parser.reading_body() {
                shared.cfg.header_deadline + shared.cfg.body_deadline
            } else {
                shared.cfg.header_deadline
            };
            if start.elapsed() > allowance {
                m.counter("net.timeouts").incr();
                let _ = Response::error(408, "timeout", "request did not arrive in time")
                    .closing()
                    .write_to(&mut stream);
                return;
            }
        } else if idle_since.elapsed() > shared.cfg.idle_keepalive {
            return; // quiet keep-alive connection
        }
    }
}

fn route(shared: &Shared, req: HttpRequest, stream: &TcpStream) -> Response {
    metrics().counter("net.requests").incr();
    match (req.method.as_str(), req.target.as_str()) {
        ("POST", "/query") => query(shared, &req, stream),
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => metrics_snapshot(shared),
        ("GET", target) if target.starts_with("/trace/") => trace_lookup(shared, target),
        (_, "/query") | (_, "/healthz") | (_, "/metrics") => {
            Response::error(405, "method-not-allowed", "wrong method for this path")
        }
        _ => Response::error(404, "not-found", "unknown path"),
    }
}

// ---------------------------------------------------------------------------
// Routes

fn query(shared: &Shared, req: &HttpRequest, stream: &TcpStream) -> Response {
    let m = metrics();
    // 1. Tenant auth + quota, before anything touches the serve queue.
    let tenant = match shared.registry.authorize(req.header("x-api-key")) {
        Ok(t) => t,
        Err(e) => {
            m.counter(match e {
                AuthError::RateLimited { .. } => "net.rate_limited",
                _ => "net.auth_failures",
            })
            .incr();
            let mut resp = Response::error(
                e.http_status(),
                match e {
                    AuthError::RateLimited { .. } => "rate-limited",
                    _ => "unauthorized",
                },
                &e.to_string(),
            );
            if let Some(secs) = e.retry_after() {
                resp = resp.with_header("retry-after", secs.to_string());
            }
            return resp;
        }
    };

    // 2. Body: {"transcript": "...", "deadline_ms": 1500?}.
    let body = match std::str::from_utf8(&req.body)
        .ok()
        .and_then(|s| serde_json::from_str(s).ok())
    {
        Some(Value::Object(fields)) => fields,
        _ => {
            m.counter("net.bad_requests").incr();
            return Response::error(400, "bad-json", "body must be a JSON object");
        }
    };
    let transcript = match body.iter().find(|(k, _)| k == "transcript") {
        Some((_, Value::String(t))) if !t.trim().is_empty() => t.clone(),
        _ => {
            m.counter("net.bad_requests").incr();
            return Response::error(400, "bad-json", "missing string field \"transcript\"");
        }
    };
    let deadline = body
        .iter()
        .find(|(k, _)| k == "deadline_ms")
        .and_then(|(_, v)| v.as_f64())
        .map(|ms| Duration::from_millis(ms.max(1.0) as u64))
        .unwrap_or(shared.cfg.default_deadline)
        .min(shared.cfg.max_deadline);

    // 3. Submit with an externally owned cancel token so a vanished client
    //    can revoke the work.
    let token = CancelToken::with_deadline(Instant::now() + deadline);
    let mut session = shared.base_session.clone();
    session.deadline = deadline;
    let submitted = shared.server.submit(
        Request::new(transcript)
            .with_config(session)
            .with_tenant(&tenant)
            .with_cancel(token.clone()),
    );
    let ticket = match submitted {
        Ok(t) => t,
        Err(rej) => {
            m.counter("net.rejected").incr();
            return rejected_response(&rej);
        }
    };

    // 4. Await the outcome while watching the socket: a disconnect flips
    //    the token to `ClientGone`, and the ticket is still drained so the
    //    serve stats stay exact.
    let started = Instant::now();
    let wait_cap = deadline + shared.cfg.drain_grace;
    let mut gone = false;
    let outcome = loop {
        if let Some(out) = ticket.wait_for(shared.cfg.poll) {
            break out;
        }
        if !gone && client_gone(stream) {
            gone = true;
            m.counter("net.client_gone").incr();
            token.cancel_client_gone();
        }
        if started.elapsed() > wait_cap {
            // The serve layer guarantees resolution within the deadline;
            // this is a last-ditch bound so no handler can hang forever.
            m.counter("net.stuck_waits").incr();
            return Response::error(504, "stuck", "request did not resolve in time").closing();
        }
    };
    m.histogram("net.request_ms")
        .record_duration(started.elapsed());

    let resp = match outcome {
        ServeOutcome::Completed {
            outcome,
            attempts,
            queue_wait,
            total,
        } => {
            m.counter("net.queries_ok").incr();
            let trace_id = store_trace(shared, &outcome);
            let viz = match &outcome.visualization {
                muve_pipeline::Visualization::Multiplot {
                    headline,
                    rendered,
                    approximate,
                    results,
                    ..
                } => json!({
                    "kind": "multiplot",
                    "headline": headline,
                    "rendered": rendered,
                    "approximate": approximate,
                    "results": results.iter()
                        .map(|r| r.map_or(Value::Null, Value::Number))
                        .collect::<Vec<Value>>(),
                }),
                muve_pipeline::Visualization::Text { message } => {
                    json!({ "kind": "text", "message": message })
                }
            };
            Response::json(
                200,
                &json!({
                    "transcript": outcome.transcript,
                    "tenant": tenant,
                    "degraded": outcome.degraded(),
                    "planned_rung": outcome.trace.planned_rung.name(),
                    "final_rung": outcome.trace.final_rung.name(),
                    "errors": outcome.errors.iter().map(|e| e.to_string())
                        .collect::<Vec<String>>(),
                    "visualization": viz,
                    "attempts": attempts,
                    "queue_wait_ms": queue_wait.as_secs_f64() * 1000.0,
                    "total_ms": total.as_secs_f64() * 1000.0,
                    "trace_id": trace_id,
                }),
            )
        }
        ServeOutcome::Shed { reason, .. } => {
            m.counter("net.queries_shed").incr();
            rejected_response(&reason)
        }
    };
    if gone {
        // The write will fail anyway; mark the connection for closing so
        // the handler doesn't wait on a dead keep-alive peer.
        resp.closing()
    } else {
        resp
    }
}

fn rejected_response(rej: &muve_serve::Rejected) -> Response {
    let kind = match rej {
        muve_serve::Rejected::Overloaded { .. } => "overloaded",
        muve_serve::Rejected::Expired { .. } => "expired",
        muve_serve::Rejected::ShuttingDown => "shutting-down",
        muve_serve::Rejected::WorkerCrashed => "worker-crashed",
        muve_serve::Rejected::ClientGone => "client-gone",
    };
    let mut resp = Response::error(rej.http_status(), kind, &rej.user_message());
    if let Some(after) = rej.retry_after() {
        resp = resp.with_header("retry-after", after.as_secs().max(1).to_string());
    }
    if matches!(rej, muve_serve::Rejected::ClientGone) {
        resp = resp.closing();
    }
    resp
}

fn healthz(shared: &Shared) -> Response {
    let reasons = degraded_reasons(shared);
    let status = if reasons.is_empty() { 200 } else { 503 };
    let body = json!({
        "status": if reasons.is_empty() { "healthy" } else { "degraded" },
        "reasons": reasons,
    });
    Response::json(status, &body)
}

fn degraded_reasons(shared: &Shared) -> Vec<String> {
    let mut reasons = Vec::new();
    for stage in Stage::ALL {
        if shared.server.breaker_state(stage) == BreakerState::Open {
            reasons.push(format!("circuit breaker open: {}", stage.name()));
        }
    }
    let stats = shared.server.stats();
    if stats.crashed > stats.respawns {
        reasons.push(format!(
            "worker pool degraded: {} crashed, {} respawned",
            stats.crashed, stats.respawns
        ));
    }
    if let Some(used) = shared.server.mem_pool_used() {
        if shared.mem_cap_bytes > 0 && used >= shared.mem_cap_bytes {
            reasons.push(format!(
                "memory pool exhausted: {used} of {} bytes",
                shared.mem_cap_bytes
            ));
        }
    }
    reasons
}

fn metrics_snapshot(shared: &Shared) -> Response {
    let snap = metrics().snapshot();
    let counters: Vec<Value> = snap
        .counters
        .iter()
        .map(|(k, v)| json!({ "name": k, "value": v }))
        .collect();
    let gauges: Vec<Value> = snap
        .gauges
        .iter()
        .map(|(k, v)| json!({ "name": k, "value": v }))
        .collect();
    let histograms: Vec<Value> = snap
        .histograms
        .iter()
        .map(|h| {
            json!({
                "name": h.name, "count": h.count, "sum": h.sum,
                "max": h.max, "mean": h.mean(),
            })
        })
        .collect();
    let stats = shared.server.stats();
    let serve = json!({
        "submitted": stats.submitted,
        "served": stats.served,
        "degraded": stats.degraded,
        "shed": stats.shed,
        "retries": stats.retries,
        "breaker_opens": stats.breaker_opens,
        "crashed": stats.crashed,
        "respawns": stats.respawns,
        "watchdog_cancels": stats.watchdog_cancels,
        "queue_depth": stats.queue_depth,
        "reconciles": stats.reconciles(),
    });
    let body = json!({
        "serve": serve,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    });
    Response::json(200, &body)
}

fn store_trace(shared: &Shared, outcome: &muve_pipeline::SessionOutcome) -> u64 {
    let id = shared.next_trace.fetch_add(1, Ordering::SeqCst);
    let entry = json!({
        "id": id,
        "transcript": outcome.transcript,
        "degraded": outcome.degraded(),
        "planned_rung": outcome.trace.planned_rung.name(),
        "final_rung": outcome.trace.final_rung.name(),
        "stages": outcome.stage_trace.to_json(),
        "errors": outcome.errors.iter().map(|e| e.to_string())
            .collect::<Vec<String>>(),
    });
    let mut ring = shared.traces.lock().unwrap_or_else(|p| p.into_inner());
    ring.push_back((id, entry));
    while ring.len() > shared.cfg.trace_ring {
        ring.pop_front();
    }
    id
}

fn trace_lookup(shared: &Shared, target: &str) -> Response {
    let id: Option<u64> = target
        .strip_prefix("/trace/")
        .and_then(|rest| rest.parse().ok());
    let ring = shared.traces.lock().unwrap_or_else(|p| p.into_inner());
    match id.and_then(|id| ring.iter().find(|(k, _)| *k == id)) {
        Some((_, entry)) => Response::json(200, entry),
        None => Response::error(404, "not-found", "no such trace (ring may have evicted it)"),
    }
}

/// Has the peer hung up? Non-blocking peek: EOF or a hard error means
/// gone; pending bytes or `WouldBlock` mean alive.
fn client_gone(stream: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}
