//! `preserva-server`: a multi-tenant HTTP front end for preserva
//! collections.
//!
//! Design (std-only, no async runtime):
//!
//! - one accept thread hands each `TcpStream` to a long-lived
//!   [`preserva_wfms::pool::TaskPool`] worker — blocking thread per
//!   connection, bounded by the pool size;
//! - a [`tenants::CollectionManager`] routes `/v1/{tenant}/...` to
//!   isolated [`preserva_core::Collection`]s, each under its own
//!   directory with its own private metrics registry, behind API-key
//!   auth and per-tenant request quotas;
//! - read endpoints pin exactly one storage snapshot per request;
//! - `GET /v1/{tenant}/feed` streams journal changes as Server-Sent
//!   Events by long-polling the journal from a client-supplied cursor;
//! - `GET /metrics` merges every open tenant's registry under a
//!   `tenant` label and appends the server's own `preserva_server_*`
//!   families.
//!
//! Shutdown is explicit and verified: stop intake, drain workers, then
//! [`tenants::CollectionManager::close_all`] — which flushes capture
//! batchers and fails loudly if any snapshot is still pinned.

pub mod feed;
pub mod http;
pub mod routes;
pub mod state;
pub mod tenants;

use std::io::{self, BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use preserva_wfms::pool::TaskPool;

use crate::http::{read_request, write_response, ReadError, Response};
use crate::state::ServerState;
use crate::tenants::{CollectionManager, TenantConfig};

/// How long a refused connection drains what the client already sent.
const DRAIN_FOR: Duration = Duration::from_millis(250);
/// The most a refused connection drains before it closes anyway.
const DRAIN_BYTES: usize = 1024 * 1024;

/// Server configuration. `addr` may use port 0 to let the OS pick (the
/// bound address is on [`Server::addr`]).
pub struct ServerConfig {
    pub addr: String,
    /// Root directory; each tenant gets `data_root/{name}`.
    pub data_root: std::path::PathBuf,
    pub tenants: Vec<TenantConfig>,
    /// Connection-handler threads.
    pub workers: usize,
    /// Idle keep-alive read timeout per connection.
    pub keep_alive: Duration,
    /// How long one feed poll blocks waiting for journal growth. Also
    /// bounds shutdown latency for idle feed subscribers.
    pub feed_poll: Duration,
    /// Operator key for `GET /metrics` — the merged exposition names
    /// every tenant, so it is never served unauthenticated. `None`
    /// disables the endpoint entirely.
    pub admin_key: Option<String>,
}

impl ServerConfig {
    pub fn new(addr: impl Into<String>, data_root: impl Into<std::path::PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: addr.into(),
            data_root: data_root.into(),
            tenants: Vec::new(),
            workers: 8,
            keep_alive: Duration::from_secs(5),
            feed_poll: Duration::from_millis(250),
            admin_key: None,
        }
    }

    pub fn tenant(mut self, t: TenantConfig) -> ServerConfig {
        self.tenants.push(t);
        self
    }

    pub fn admin_key(mut self, key: impl Into<String>) -> ServerConfig {
        self.admin_key = Some(key.into());
        self
    }
}

/// Errors starting or stopping the server.
#[derive(Debug)]
pub enum ServerError {
    Bind(io::Error),
    Config(String),
    /// One or more tenant collections failed to close cleanly.
    Close(Vec<(String, preserva_core::CollectionError)>),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Bind(e) => write!(f, "bind failed: {e}"),
            ServerError::Config(m) => write!(f, "bad config: {m}"),
            ServerError::Close(fails) => {
                write!(f, "unclean shutdown:")?;
                for (tenant, e) in fails {
                    write!(f, " [{tenant}: {e}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// A running server. Call [`Server::shutdown`] to stop it and verify
/// every collection closed with zero pinned snapshots.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    /// Owns the TaskPool: dropping it at the end of the accept loop
    /// drains queued connections and joins the workers.
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and the accept loop, and return.
    pub fn start(config: ServerConfig) -> Result<Server, ServerError> {
        let manager = CollectionManager::new(&config.data_root, config.tenants)
            .map_err(ServerError::Config)?;
        let listener = TcpListener::bind(&config.addr).map_err(ServerError::Bind)?;
        let addr = listener.local_addr().map_err(ServerError::Bind)?;
        let state = ServerState::new(manager, config.feed_poll, config.admin_key);
        let pool = TaskPool::new(config.workers.max(1));

        let accept_state = state.clone();
        let keep_alive = config.keep_alive;
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                // Checked before dispatch so the shutdown wake-up
                // connection is dropped, not served.
                if accept_state.is_shutting_down() {
                    break;
                }
                let stream = match conn {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let st = accept_state.clone();
                let accepted = pool.execute(move || {
                    serve_connection(&st, stream, keep_alive);
                });
                if !accepted {
                    break;
                }
            }
            // Dropping the pool here stops intake, finishes queued
            // connections, and joins every worker before the accept
            // thread itself exits.
            drop(pool);
        });

        Ok(Server {
            addr,
            state,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for tests and the /metrics smoke.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stop accepting, drain in-flight connections, and close every
    /// tenant collection — flushing batchers and verifying that no
    /// snapshot is left pinned.
    pub fn shutdown(mut self) -> Result<(), ServerError> {
        self.state.shutting_down.store(true, Ordering::SeqCst);
        // The accept loop is blocked in accept(); poke it awake.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.state.manager.close_all().map_err(ServerError::Close)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort teardown when shutdown() wasn't called.
        if let Some(t) = self.accept_thread.take() {
            self.state.shutting_down.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            let _ = t.join();
            let _ = self.state.manager.close_all();
        }
    }
}

/// Serve one connection: keep-alive request loop, with feed requests
/// taking over the stream for chunked streaming.
fn serve_connection(state: &Arc<ServerState>, stream: TcpStream, keep_alive: Duration) {
    let _ = stream.set_read_timeout(Some(keep_alive));
    let _ = stream.set_nodelay(true);
    let _live = LiveConnection::enter(state);
    state.connections_served.fetch_add(1, Ordering::Relaxed);

    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);

    loop {
        if state.is_shutting_down() {
            break;
        }
        let req = match read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => break, // clean keep-alive end (EOF or idle)
            Err(ReadError::Refused { status, reason }) => {
                state.metrics.requests_total.inc();
                refuse(&mut reader, &mut writer, &Response::error(status, reason));
                break;
            }
            Err(ReadError::Io(_)) => break, // torn request; nobody to answer
        };
        state.metrics.requests_total.inc();
        let started = Instant::now();

        // Feed subscriptions stream on the raw socket and always end
        // the connection.
        if let Some(tenant) = feed_tenant(&req) {
            feed::serve_feed(state, &mut writer, &req, &tenant);
            state
                .metrics
                .request_seconds
                .observe_duration(started.elapsed());
            break;
        }

        let response = contain_panics(state, &req, || routes::route(state, &req));
        let close = req.wants_close();
        let ok = write_response(&mut writer, &response, close);
        state
            .metrics
            .request_seconds
            .observe_duration(started.elapsed());
        if ok.is_err() || close {
            break;
        }
    }
}

/// Run `handler`, answering a panic with 500, counted and traced with
/// the request's method and path. The tenant locks a handler takes
/// recover from a panic (see `tenants`), so the connection serves on.
fn contain_panics(
    state: &ServerState,
    req: &http::Request,
    handler: impl FnOnce() -> Response,
) -> Response {
    std::panic::catch_unwind(AssertUnwindSafe(handler)).unwrap_or_else(|_| {
        state.metrics.panics_total.inc();
        let note = format!("{} {} panicked; answered 500", req.method, req.path);
        state.registry.trace("server", note);
        Response::error(500, "internal error")
    })
}

/// Answer a refused request and close without a reset: the write half
/// is shut first, then what the client already sent is drained (for at
/// most [`DRAIN_FOR`] and [`DRAIN_BYTES`]), because closing a socket with
/// unread input resets it and the client would lose the reply.
fn refuse(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, response: &Response) {
    if write_response(writer, response, true).is_err() {
        return;
    }
    let _ = writer.shutdown(Shutdown::Write);
    let deadline = Instant::now() + DRAIN_FOR;
    let mut buf = [0u8; 8192];
    let mut drained = 0;
    while drained < DRAIN_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || reader.get_ref().set_read_timeout(Some(left)).is_err() {
            break;
        }
        match reader.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// Counts one live connection in `preserva_server_active_connections`
/// until dropped, so a handler that panics still releases it.
struct LiveConnection<'a>(&'a ServerState);

impl<'a> LiveConnection<'a> {
    fn enter(state: &'a ServerState) -> LiveConnection<'a> {
        let live = state.live_connections.fetch_add(1, Ordering::SeqCst) + 1;
        state.metrics.active_connections.set(live as u64);
        LiveConnection(state)
    }
}

impl Drop for LiveConnection<'_> {
    fn drop(&mut self) {
        let live = self.0.live_connections.fetch_sub(1, Ordering::SeqCst) - 1;
        self.0.metrics.active_connections.set(live as u64);
    }
}

/// `GET /v1/{tenant}/feed` → the tenant name. Matches on decoded
/// segments (same discipline as `routes::route`): the raw path is
/// split first, so an encoded '/' can't fake or dodge the feed route.
fn feed_tenant(req: &http::Request) -> Option<String> {
    if req.method != "GET" {
        return None;
    }
    match req.segments().as_slice() {
        [v1, tenant, feed] if v1 == "v1" && feed == "feed" => Some(tenant.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Server state with no tenants: nothing is opened or written.
    fn state() -> Arc<ServerState> {
        let manager = CollectionManager::new(std::path::Path::new("unused"), Vec::new()).unwrap();
        ServerState::new(manager, Duration::from_millis(10), None)
    }

    #[test]
    fn a_panicking_handler_answers_500_and_is_counted() {
        let state = state();
        let req = http::Request {
            method: "GET".into(),
            path: "/v1/herp/stats".into(),
            raw_query: String::new(),
            headers: Default::default(),
            body: Vec::new(),
        };
        let reply = contain_panics(&state, &req, || panic!("a handler bug"));
        assert_eq!(reply.status, 500);
        assert_eq!(reply.body, b"{\"error\":\"internal error\"}\n".to_vec());
        assert_eq!(state.metrics.panics_total.get(), 1);
        let traced = state.registry.trace_events();
        assert!(
            traced
                .iter()
                .any(|e| e.category == "server" && e.message.contains("GET /v1/herp/stats")),
            "{traced:?}"
        );
        let fine = contain_panics(&state, &req, || Response::text(200, "ok"));
        assert_eq!((fine.status, state.metrics.panics_total.get()), (200, 1));
    }

    #[test]
    fn a_panic_still_releases_the_live_connection() {
        let state = state();
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _live = LiveConnection::enter(&state);
            assert_eq!(state.metrics.active_connections.get(), 1);
            panic!("a feed bug");
        }));
        assert!(unwound.is_err());
        assert_eq!(state.live_connections.load(Ordering::SeqCst), 0);
        assert_eq!(state.metrics.active_connections.get(), 0);
    }
}
