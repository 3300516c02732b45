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

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use preserva_wfms::pool::TaskPool;

use crate::http::{read_request, write_response};
use crate::state::ServerState;
use crate::tenants::{CollectionManager, TenantConfig};

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
    let live = state.live_connections.fetch_add(1, Ordering::SeqCst) + 1;
    state.metrics.active_connections.set(live as u64);
    state.connections_served.fetch_add(1, Ordering::Relaxed);

    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => {
            release_connection(state);
            return;
        }
    };
    let mut reader = BufReader::new(stream);

    loop {
        if state.is_shutting_down() {
            break;
        }
        let req = match read_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => break, // clean keep-alive end (EOF or idle)
            Err(_) => break,   // torn request; nothing sane to answer
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

        let response = routes::route(state, &req);
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
    release_connection(state);
}

fn release_connection(state: &Arc<ServerState>) {
    let live = state.live_connections.fetch_sub(1, Ordering::SeqCst) - 1;
    state.metrics.active_connections.set(live as u64);
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
