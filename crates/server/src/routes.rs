//! Request routing and the read/write endpoints.
//!
//! Every read endpoint pins exactly ONE storage snapshot for the
//! duration of the request — cross-table panels (records + stats) can
//! never observe a torn view, and the pin is released before the
//! response is written, so a crashed client can't floor the compaction
//! horizon.

use std::collections::BTreeMap;
use std::sync::Arc;

use preserva_core::collection::Collection;
use preserva_core::retrieval::Listing;
use preserva_metadata::record::Record;

use crate::http::{Request, Response};
use crate::state::ServerState;
use crate::tenants::{constant_time_key_eq, Gate};

/// Route one parsed request. Feed requests are NOT handled here — the
/// connection loop intercepts them because they stream.
pub fn route(state: &ServerState, req: &Request) -> Response {
    let segments = req.segments();
    let segments: Vec<&str> = segments.iter().map(String::as_str).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::text(200, "ok\n"),
        ("GET", ["metrics"]) => metrics(state, req),
        (_, ["v1", tenant, rest @ ..]) => tenant_route(state, req, tenant, rest),
        _ => Response::error(404, "no such route"),
    }
}

pub fn gate_response(gate: Gate) -> Response {
    match gate {
        Gate::UnknownTenant => Response::error(404, "unknown tenant"),
        Gate::BadKey => Response::error(401, "missing or invalid API key"),
        Gate::OverQuota => Response::error(429, "tenant request quota exceeded"),
        Gate::TooManySubscribers => Response::error(429, "tenant subscriber limit reached"),
    }
}

fn tenant_route(state: &ServerState, req: &Request, tenant: &str, rest: &[&str]) -> Response {
    let coll = match state.manager.admit(tenant, req.api_key()) {
        Ok(c) => c,
        Err(gate) => {
            if gate == Gate::BadKey {
                state.metrics.auth_failures.inc();
            }
            if gate == Gate::OverQuota {
                state.metrics.quota_rejections.inc();
            }
            return gate_response(gate);
        }
    };
    match (req.method.as_str(), rest) {
        ("GET", ["records", id]) => get_record(&coll, id),
        ("GET", ["records"]) => scan_records(&coll, req),
        ("PUT", ["records"]) | ("POST", ["records"]) => put_record(&coll, req),
        ("GET", ["stats"]) => stats(&coll),
        ("GET", ["prov", "runs"]) => prov_runs(&coll, req),
        ("GET", ["search"]) => search(&coll, req),
        ("GET", ["facets"]) => facets(&coll, req),
        _ => Response::error(404, "no such route"),
    }
}

/// One record at the request's pinned snapshot. A stored row that does
/// not decode answers 500 naming its table and key: the record exists
/// and is damaged, which is not the same as missing.
fn get_record(coll: &Arc<Collection>, id: &str) -> Response {
    let snap = coll.store().snapshot();
    match coll.catalog().get_at(&snap, id) {
        Ok(Some(record)) => Response::json(
            200,
            serde_json::json!({
                "record": record,
                "as_of_lsn": snap.lsn(),
            }),
        ),
        Ok(None) => Response::error(404, "no such record"),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// Query parameter `name` parsed as `T`: `None` when absent, a 400
/// naming the parameter when malformed, so a typo never widens a
/// request.
fn param<T: std::str::FromStr>(
    q: &BTreeMap<String, String>,
    name: &str,
) -> Result<Option<T>, Response> {
    q.get(name)
        .map(|v| {
            v.parse()
                .map_err(|_| Response::error(400, &format!("bad {name}: {v:?}")))
        })
        .transpose()
}

/// Exact-match listing, planned through the catalog's indexes at the
/// request's pinned snapshot: only the rows its probes name are decoded.
fn scan_records(coll: &Arc<Collection>, req: &Request) -> Response {
    let q = req.query();
    let (limit, year) = match (param::<usize>(&q, "limit"), param::<i32>(&q, "year")) {
        (Ok(limit), Ok(year)) => (limit.unwrap_or(50).min(1000), year),
        (Err(bad), _) | (_, Err(bad)) => return bad,
    };
    let listing = Listing {
        species: q.get("species").cloned(),
        state: q.get("state").cloned(),
        year,
    };
    let snap = coll.store().snapshot();
    match coll.catalog().list_at(&snap, &listing, limit) {
        Ok(page) => Response::json(
            200,
            serde_json::json!({
                "total": page.total,
                "records": page.records,
                "as_of_lsn": snap.lsn(),
            }),
        ),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

fn put_record(coll: &Arc<Collection>, req: &Request) -> Response {
    let record: Record = match serde_json::from_slice(&req.body) {
        Ok(r) => r,
        Err(e) => return Response::error(400, &format!("bad record body: {e}")),
    };
    match coll.catalog().insert(&record) {
        Ok(receipt) => Response::json(
            201,
            serde_json::json!({
                "id": record.id,
                "first_seq": receipt.first_seq,
                "last_seq": receipt.last_seq,
                "lsn": receipt.lsn,
            }),
        ),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

fn stats(coll: &Arc<Collection>) -> Response {
    let snap = coll.store().snapshot();
    let as_of_lsn = snap.lsn();
    let records = match coll.catalog().len_at(&snap) {
        Ok(n) => n,
        Err(e) => return Response::error(500, &e.to_string()),
    };
    // Release our own pin before reading the gauge, so a healthy idle
    // collection reports zero.
    drop(snap);
    let levels: Vec<serde_json::Value> = coll
        .engine()
        .runs_per_level()
        .into_iter()
        .map(|(level, runs)| serde_json::json!({ "level": level, "runs": runs }))
        .collect();
    Response::json(
        200,
        serde_json::json!({
            "records": records,
            "journal_head": coll.journal_head(),
            "as_of_lsn": as_of_lsn,
            "committed_lsn": coll.engine().committed_lsn(),
            "snapshots_pinned": coll.snapshots_pinned(),
            "runs_per_level": levels,
            "options_fingerprint": coll.options().fingerprint(),
        }),
    )
}

fn prov_runs(coll: &Arc<Collection>, req: &Request) -> Response {
    let q = req.query();
    // Fold in anything captured since the last refresh, then answer
    // from the index.
    let index = coll.prov_index();
    if let Err(e) = index.refresh() {
        return Response::error(500, &e.to_string());
    }
    let after = match param::<u64>(&q, "after") {
        Ok(after) => after.unwrap_or(0),
        Err(bad) => return bad,
    };
    let touched = q.get("touched").map(|v| v == "true").unwrap_or(false);
    let result = match (q.get("workflow"), q.get("artifact")) {
        (Some(wf), Some(art)) => index.runs_of_workflow_touching(wf, art),
        (Some(wf), None) => index.runs_of_workflow(wf),
        (None, Some(art)) if touched => index.runs_touching_artifact(art, after),
        (None, Some(art)) => index.runs_using_artifact(art, after),
        (None, None) => coll.provenance().run_ids(),
    };
    match result {
        Ok(runs) => Response::json(200, serde_json::json!({ "runs": runs })),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// Token and fuzzy search over the journal-fed index. Folds anything
/// committed since the last index run first (like `prov_runs`), then
/// pins ONE snapshot and answers entirely from the search tables,
/// reporting the snapshot LSN, the index cursor it embodies, and the
/// live lag behind the journal head.
fn search(coll: &Arc<Collection>, req: &Request) -> Response {
    let q = req.query();
    if let Err(e) = coll.search().run() {
        return Response::error(500, &e.to_string());
    }
    let reader = coll.search().reader();
    let snap = coll.store().snapshot();
    let cursor = match reader.cursor_at(&snap) {
        Ok(c) => c,
        Err(e) => return Response::error(500, &e.to_string()),
    };
    let lag = coll.journal_head().saturating_sub(cursor);
    let meta = |mut v: serde_json::Value| {
        let obj = v.as_object_mut().expect("object");
        obj.insert("as_of_lsn".into(), serde_json::json!(snap.lsn()));
        obj.insert("index_cursor".into(), serde_json::json!(cursor));
        obj.insert("index_lag".into(), serde_json::json!(lag));
        Response::json(200, v)
    };
    if let Some(fuzzy_q) = q.get("fuzzy") {
        let distance = match param::<usize>(&q, "distance") {
            Ok(distance) => distance.unwrap_or(2),
            Err(bad) => return bad,
        };
        return match reader.fuzzy(&snap, fuzzy_q, distance) {
            Ok(hit) => meta(serde_json::json!({
                "query": fuzzy_q,
                "distance_budget": distance,
                "match": hit.map(|h| serde_json::json!({
                    "name": h.name,
                    "distance": h.distance,
                    "candidates_scored": h.candidates_scored,
                })),
            })),
            Err(e) => Response::error(500, &e.to_string()),
        };
    }
    let terms = match q.get("q") {
        Some(t) => t,
        None => return Response::error(400, "missing query: pass q= or fuzzy="),
    };
    let limit = match param::<usize>(&q, "limit") {
        Ok(limit) => limit.unwrap_or(50).min(1000),
        Err(bad) => return bad,
    };
    match reader.query(&snap, q.get("field").map(String::as_str), terms, limit) {
        Ok(hits) => meta(serde_json::json!({
            "query": terms,
            "total": hits.total,
            "ids": hits.ids,
        })),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// Facet breakdowns straight off the counter rows — the record table is
/// never read. Same freshness/pinning protocol as `search`.
fn facets(coll: &Arc<Collection>, req: &Request) -> Response {
    let q = req.query();
    if let Err(e) = coll.search().run() {
        return Response::error(500, &e.to_string());
    }
    let reader = coll.search().reader();
    let snap = coll.store().snapshot();
    let cursor = match reader.cursor_at(&snap) {
        Ok(c) => c,
        Err(e) => return Response::error(500, &e.to_string()),
    };
    match reader.facets(&snap, q.get("facet").map(String::as_str)) {
        Ok(counts) => Response::json(
            200,
            serde_json::json!({
                "facets": counts,
                "as_of_lsn": snap.lsn(),
                "index_cursor": cursor,
                "index_lag": coll.journal_head().saturating_sub(cursor),
            }),
        ),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

fn metrics(state: &ServerState, req: &Request) -> Response {
    // The merged exposition names every tenant and exposes per-tenant
    // activity, so it is operator-only: it requires the admin key, a
    // credential distinct from any tenant's. An unconfigured admin key
    // means the endpoint is disabled, never open.
    let authorized = match &state.admin_key {
        Some(admin) => req
            .api_key()
            .is_some_and(|k| constant_time_key_eq(k, admin)),
        None => false,
    };
    if !authorized {
        state.metrics.auth_failures.inc();
        return Response::error(401, "metrics requires the admin key");
    }
    // Merge every OPEN tenant registry under a `tenant` label, then
    // append the server's own families (disjoint names, so the
    // exposition stays valid).
    let names = state.manager.names();
    let open: Vec<(String, Arc<Collection>)> = names
        .iter()
        .filter_map(|n| state.manager.peek(n).map(|c| (n.to_string(), c)))
        .collect();
    let parts: Vec<(&str, &preserva_obs::Registry)> = open
        .iter()
        .map(|(n, c)| (n.as_str(), c.metrics_registry().as_ref()))
        .collect();
    let mut text = preserva_obs::Registry::render_prometheus_merged("tenant", &parts);
    text.push_str(&state.registry.render_prometheus());
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        body: text.into_bytes(),
    }
}
