//! Shared server state: the tenant router, the server's own metrics
//! registry, and the shutdown flag every long-lived loop polls.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use preserva_obs::{Counter, Gauge, Histogram, Registry};

use crate::tenants::CollectionManager;

/// Server-level metric families. All named `preserva_server_*`, disjoint
/// from the per-tenant collection families so the /metrics merge stays a
/// valid exposition.
pub struct ServerMetrics {
    pub requests_total: Arc<Counter>,
    pub auth_failures: Arc<Counter>,
    pub quota_rejections: Arc<Counter>,
    pub panics_total: Arc<Counter>,
    pub active_connections: Arc<Gauge>,
    pub feed_subscribers: Arc<Gauge>,
    pub feed_events_total: Arc<Counter>,
    pub request_seconds: Arc<Histogram>,
}

impl ServerMetrics {
    pub fn register(registry: &Registry) -> ServerMetrics {
        ServerMetrics {
            requests_total: registry.counter(
                "preserva_server_requests_total",
                "HTTP requests handled (all tenants, all statuses)",
            ),
            auth_failures: registry.counter(
                "preserva_server_auth_failures_total",
                "Requests rejected for a missing or wrong API key",
            ),
            quota_rejections: registry.counter(
                "preserva_server_quota_rejections_total",
                "Requests rejected by a tenant request quota",
            ),
            panics_total: registry.counter(
                "preserva_server_panics_total",
                "Requests whose handler panicked, answered 500",
            ),
            active_connections: registry.gauge(
                "preserva_server_active_connections",
                "Connections currently being served",
            ),
            feed_subscribers: registry.gauge(
                "preserva_server_feed_subscribers",
                "Change-feed subscriptions currently streaming",
            ),
            feed_events_total: registry.counter(
                "preserva_server_feed_events_total",
                "Change-feed events delivered to subscribers",
            ),
            request_seconds: registry.histogram(
                "preserva_server_request_seconds",
                "Wall time per handled request",
                &[0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0],
            ),
        }
    }
}

/// Everything a connection handler needs, behind one Arc.
pub struct ServerState {
    pub manager: CollectionManager,
    pub registry: Arc<Registry>,
    pub metrics: ServerMetrics,
    /// Operator credential gating `/metrics` (the merged exposition
    /// leaks tenant names and activity). `None` disables the endpoint.
    pub admin_key: Option<String>,
    /// Set once by shutdown; feed loops and the accept loop poll it.
    pub shutting_down: AtomicBool,
    /// How long one feed poll blocks waiting for new journal entries.
    pub feed_poll: Duration,
    /// Connections served, for tests and the banner.
    pub connections_served: AtomicU64,
    /// Live feed streams; mirrored into the `feed_subscribers` gauge
    /// (gauges are set-only, so the count lives here).
    pub live_feeds: AtomicUsize,
    /// Live connections; mirrored into `active_connections`.
    pub live_connections: AtomicUsize,
}

impl ServerState {
    pub fn new(
        manager: CollectionManager,
        feed_poll: Duration,
        admin_key: Option<String>,
    ) -> Arc<ServerState> {
        let registry = Arc::new(Registry::new());
        let metrics = ServerMetrics::register(&registry);
        Arc::new(ServerState {
            manager,
            registry,
            metrics,
            admin_key,
            shutting_down: AtomicBool::new(false),
            feed_poll,
            connections_served: AtomicU64::new(0),
            live_feeds: AtomicUsize::new(0),
            live_connections: AtomicUsize::new(0),
        })
    }

    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }
}
