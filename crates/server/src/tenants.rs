//! Tenant routing: one isolated [`Collection`] per tenant, opened
//! lazily under its own directory with its own private obs registry, so
//! nothing — data, snapshots, metrics — is shared between tenants except
//! the process.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use preserva_core::collection::{Collection, CollectionError, CollectionOptions};

/// Per-tenant request budget: a fixed window that refills wholesale when
/// it elapses. Deliberately simple — the point is isolation (one noisy
/// tenant can't starve the pool), not fairness guarantees.
#[derive(Debug, Clone)]
pub struct Quota {
    /// Requests allowed per window. 0 disables the quota.
    pub max_requests: u64,
    /// Window length.
    pub window: Duration,
    /// Concurrent change-feed subscribers allowed (each holds a worker).
    pub max_subscribers: usize,
}

impl Default for Quota {
    fn default() -> Self {
        Quota {
            max_requests: 0,
            window: Duration::from_secs(1),
            max_subscribers: 16,
        }
    }
}

/// Static declaration of one tenant.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Path segment and metric label. `[a-z0-9_-]+` only.
    pub name: String,
    /// The API key requests must present.
    pub api_key: String,
    pub quota: Quota,
}

struct QuotaWindow {
    started: Instant,
    used: u64,
}

/// A panic cannot tear what either lock guards: the slot changes in
/// one assignment, and nothing between the window's field updates can
/// panic. So a guard poisoned by a panicking request is recovered, and
/// the tenant keeps serving.
struct TenantState {
    config: TenantConfig,
    dir: PathBuf,
    /// Lazily opened on first request, then shared.
    collection: Mutex<Option<Arc<Collection>>>,
    window: Mutex<QuotaWindow>,
    subscribers: AtomicUsize,
}

/// Why a request bounced before reaching a handler.
#[derive(Debug, PartialEq, Eq)]
pub enum Gate {
    UnknownTenant,
    BadKey,
    OverQuota,
    TooManySubscribers,
}

/// Routes `/v1/{tenant}/...` to isolated collections.
pub struct CollectionManager {
    tenants: BTreeMap<String, TenantState>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_')
}

/// Constant-time key equality: the XOR-fold visits every candidate
/// byte regardless of where the first mismatch sits, so response
/// timing can't be used to recover the stored key byte by byte. (Only
/// the candidate's own length shapes the loop — that much the attacker
/// already knows.)
pub(crate) fn constant_time_key_eq(candidate: &str, expected: &str) -> bool {
    let c = candidate.as_bytes();
    let e = expected.as_bytes();
    if e.is_empty() {
        return c.is_empty();
    }
    let mut diff = c.len() ^ e.len();
    for (i, &b) in c.iter().enumerate() {
        diff |= (b ^ e[i % e.len()]) as usize;
    }
    diff == 0
}

impl CollectionManager {
    /// Build the routing table. Tenant directories live under `root`,
    /// one per tenant name; invalid names are refused up front.
    pub fn new(root: &std::path::Path, tenants: Vec<TenantConfig>) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for t in tenants {
            if !valid_name(&t.name) {
                return Err(format!(
                    "tenant name {:?} invalid (lowercase alphanumeric, '-', '_')",
                    t.name
                ));
            }
            let dir = root.join(&t.name);
            map.insert(
                t.name.clone(),
                TenantState {
                    dir,
                    collection: Mutex::new(None),
                    window: Mutex::new(QuotaWindow {
                        started: Instant::now(),
                        used: 0,
                    }),
                    subscribers: AtomicUsize::new(0),
                    config: t,
                },
            );
        }
        Ok(CollectionManager { tenants: map })
    }

    /// Tenant names, for the /metrics merge.
    pub fn names(&self) -> Vec<&str> {
        self.tenants.keys().map(String::as_str).collect()
    }

    /// Authenticate + meter one request. On success returns the tenant's
    /// collection (opening it on first touch).
    pub fn admit(&self, tenant: &str, key: Option<&str>) -> Result<Arc<Collection>, Gate> {
        let state = self.tenants.get(tenant).ok_or(Gate::UnknownTenant)?;
        if !key.is_some_and(|k| constant_time_key_eq(k, &state.config.api_key)) {
            return Err(Gate::BadKey);
        }
        if state.config.quota.max_requests > 0 {
            let mut w = state.window.lock().unwrap_or_else(PoisonError::into_inner);
            if w.started.elapsed() >= state.config.quota.window {
                w.started = Instant::now();
                w.used = 0;
            }
            if w.used >= state.config.quota.max_requests {
                return Err(Gate::OverQuota);
            }
            w.used += 1;
        }
        self.open(state).map_err(|_| Gate::UnknownTenant)
    }

    fn open(&self, state: &TenantState) -> Result<Arc<Collection>, CollectionError> {
        let mut slot = state
            .collection
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = slot.as_ref() {
            return Ok(c.clone());
        }
        // Private registry (metrics: None): each tenant's families merge
        // into /metrics under its own `tenant` label.
        let c = Arc::new(Collection::open(&state.dir, CollectionOptions::default())?);
        *slot = Some(c.clone());
        Ok(c)
    }

    /// The collection if it is already open (no auth — internal use,
    /// e.g. the /metrics merge).
    pub fn peek(&self, tenant: &str) -> Option<Arc<Collection>> {
        self.tenants
            .get(tenant)?
            .collection
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Try to claim a feed-subscriber slot. The returned guard releases
    /// it on drop.
    pub fn subscribe(&self, tenant: &str) -> Result<SubscriberSlot<'_>, Gate> {
        let state = self.tenants.get(tenant).ok_or(Gate::UnknownTenant)?;
        let max = state.config.quota.max_subscribers.max(1);
        let prev = state.subscribers.fetch_add(1, Ordering::SeqCst);
        if prev >= max {
            state.subscribers.fetch_sub(1, Ordering::SeqCst);
            return Err(Gate::TooManySubscribers);
        }
        Ok(SubscriberSlot {
            counter: &state.subscribers,
        })
    }

    /// Close every open collection, verifying no snapshot is pinned.
    /// Called exactly once at server shutdown.
    pub fn close_all(&self) -> Result<(), Vec<(String, CollectionError)>> {
        let mut failures = Vec::new();
        for (name, state) in &self.tenants {
            let c = state
                .collection
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            if let Some(c) = c {
                if let Err(e) = c.close() {
                    failures.push((name.clone(), e));
                }
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures)
        }
    }
}

/// RAII feed-subscriber slot.
#[derive(Debug)]
pub struct SubscriberSlot<'a> {
    counter: &'a AtomicUsize,
}

impl Drop for SubscriberSlot<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("preserva-tenants-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn manager(root: &std::path::Path) -> CollectionManager {
        CollectionManager::new(
            root,
            vec![
                TenantConfig {
                    name: "alpha".into(),
                    api_key: "ka".into(),
                    quota: Quota {
                        max_requests: 2,
                        window: Duration::from_secs(60),
                        max_subscribers: 1,
                    },
                },
                TenantConfig {
                    name: "beta".into(),
                    api_key: "kb".into(),
                    quota: Quota::default(),
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn auth_and_quota_gates() {
        let root = tmp("gates");
        let m = manager(&root);
        assert_eq!(
            m.admit("nope", Some("ka")).unwrap_err(),
            Gate::UnknownTenant
        );
        assert_eq!(m.admit("alpha", Some("kb")).unwrap_err(), Gate::BadKey);
        assert_eq!(m.admit("alpha", None).unwrap_err(), Gate::BadKey);
        m.admit("alpha", Some("ka")).unwrap();
        m.admit("alpha", Some("ka")).unwrap();
        assert_eq!(m.admit("alpha", Some("ka")).unwrap_err(), Gate::OverQuota);
        // beta's quota is disabled and its key is its own.
        for _ in 0..10 {
            m.admit("beta", Some("kb")).unwrap();
        }
        m.close_all().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tenants_get_isolated_directories_and_registries() {
        let root = tmp("iso");
        let m = manager(&root);
        let a = m.admit("alpha", Some("ka")).unwrap();
        let b = m.admit("beta", Some("kb")).unwrap();
        assert_ne!(a.dir(), b.dir());
        assert!(!Arc::ptr_eq(a.metrics_registry(), b.metrics_registry()));
        // Same tenant, same collection instance.
        let a2 = m.admit("alpha", Some("ka")).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        m.close_all().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn subscriber_slots_are_bounded_and_released() {
        let root = tmp("subs");
        let m = manager(&root);
        let s1 = m.subscribe("alpha").unwrap();
        assert_eq!(m.subscribe("alpha").unwrap_err(), Gate::TooManySubscribers);
        drop(s1);
        let _s2 = m.subscribe("alpha").unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn constant_time_eq_agrees_with_plain_equality() {
        let cases = [
            ("", "", true),
            ("", "k", false),
            ("k", "", false),
            ("key-herp", "key-herp", true),
            ("key-herp", "key-herq", false),
            ("key-her", "key-herp", false),
            ("key-herpp", "key-herp", false),
            ("aaaaaaaa", "key-herp", false),
            ("key-herpkey-herp", "key-herp", false),
        ];
        for (candidate, expected, want) in cases {
            assert_eq!(
                constant_time_key_eq(candidate, expected),
                want,
                "candidate={candidate:?} expected={expected:?}"
            );
        }
    }

    #[test]
    fn invalid_tenant_names_are_refused() {
        let root = tmp("names");
        assert!(CollectionManager::new(
            &root,
            vec![TenantConfig {
                name: "../escape".into(),
                api_key: "k".into(),
                quota: Quota::default(),
            }],
        )
        .is_err());
    }
}
