//! Per-layer attribution for the traced run (`--trace 1`).
//!
//! After the untraced measurement, the op stream's first ops plus a
//! fixed probe stream are replayed in four modes, each against its own
//! server over its own copy of the store, so every mode starts from the
//! same state:
//!
//! 1. over HTTP, untimed by spans (the reference latency);
//! 2. over HTTP with one span per request (the difference from 1 is the
//!    tracing overhead);
//! 3. in-process through `preserva_server::routes::route`;
//! 4. through the layer calls a route makes — `admit`, `snapshot`,
//!    `get`/`scan`, the record codec, the search reader, the indexer and
//!    the record catalog — each in its own span.
//!
//! Each op runs in all four modes back to back, in rotating order, so a
//! change in the host's speed during the replay hits every mode alike.
//!
//! Counts come from registry deltas over the untraced measurement.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use preserva_core::repository::decode_row;
use preserva_metadata::record::Record;
use preserva_metadata::value::Value;
use preserva_server::http::Request;
use preserva_server::routes;
use preserva_server::state::ServerState;
use preserva_server::Server;

use crate::client::Conn;
use crate::ops::{Kind, Op, KEY, TENANT};
use crate::report::{Dist, Report};
use crate::setup::{self, err, Counters, Steps};
use crate::trace::{SelfTime, Tracer};

const MIB: f64 = 1024.0 * 1024.0;
const RTT_PROBES: usize = 200;

/// Counts, ratios and background-work totals over the untraced
/// measurement of `ops` operations.
pub fn from_counters(report: &mut Report, delta: &Counters, ops: u64, runs_max: usize) {
    let ops = ops.max(1) as f64;
    report.scalar(
        "storage.commits",
        "count",
        delta.get("preserva_storage_commits_total"),
    );
    report.scalar(
        "storage.wal_fsyncs",
        "count",
        delta.get("preserva_storage_wal_fsyncs_total"),
    );
    report.scalar(
        "storage.checkpoints",
        "count",
        delta.get("preserva_storage_checkpoints_total"),
    );
    report.scalar(
        "storage.compactions",
        "count",
        delta.get("preserva_storage_compactions_total"),
    );
    report.scalar(
        "storage.compaction_mb",
        "MiB",
        delta.hist_sum("preserva_storage_compaction_bytes") / MIB,
    );
    report.scalar(
        "storage.value_bytes_read_per_op",
        "bytes",
        delta.get("preserva_storage_value_bytes_read_total") / ops,
    );
    let hits = delta.get("preserva_storage_bloom_hits_total");
    let misses = delta.get("preserva_storage_bloom_misses_total");
    report.scalar(
        "storage.bloom_skip_ratio",
        "ratio",
        if hits + misses > 0.0 {
            misses / (hits + misses)
        } else {
            0.0
        },
    );
    report.scalar("storage.runs_max_per_level", "count", runs_max as f64);
    report.scalar(
        "server.requests",
        "count",
        delta.get("preserva_server_requests_total"),
    );
    let puts = report.get("puts").map_or(0.0, |m| m.value);
    report.scalar(
        "server.feed_events_per_put",
        "ratio",
        if puts > 0.0 {
            delta.get("preserva_server_feed_events_total") / puts
        } else {
            0.0
        },
    );
    p99_if_observed(
        report,
        delta,
        "storage.commit_p99_us",
        "preserva_storage_commit_seconds",
    );
    p99_if_observed(
        report,
        delta,
        "search.run_inline_p99_us",
        "preserva_search_run_seconds",
    );
}

/// Set `metric` to the histogram's p99 (in µs) unless it was already set
/// or the histogram saw nothing.
fn p99_if_observed(report: &mut Report, delta: &Counters, metric: &str, hist: &str) {
    if delta.hist_count(hist) > 0 {
        report.scalar_if_absent(metric, "us", delta.hist_quantile(hist, 0.99) * 1e6);
    }
}

fn total_ms(st: &BTreeMap<&str, SelfTime>, name: &str) -> Option<f64> {
    st.get(name).map(|s| s.total_ns as f64 / 1e6)
}

/// Lifecycle-step spans recorded since `mark` (the traced lifecycle
/// repetition, or a server workload's set-up), with the outcome and the
/// collection's registry totals of those steps.
pub fn from_steps(report: &mut Report, tracer: &Tracer, mark: usize, steps: &Steps, c: &Counters) {
    let st = tracer.self_times(mark);
    for (metric, span) in [
        ("core.insert_all_bulk_ms", "core.insert_all_bulk"),
        ("core.insert_all_ms", "core.insert_all"),
        ("core.reassess_seed_ms", "core.reassess_seed"),
        ("core.maintain_ms", "core.maintain"),
        ("core.swap_backbone_ms", "core.swap_backbone"),
        ("core.reassess_run_ms", "core.reassess_run"),
        ("curation.stage1_ms", "curation.stage1"),
        ("curation.history_persist_ms", "curation.history_persist"),
        ("curation.name_check_ms", "curation.name_check"),
        ("storage.checkpoint_ms", "storage.checkpoint"),
        ("storage.compact_ms", "storage.compact"),
        ("taxonomy.checklist_diff_ms", "taxonomy.checklist_diff"),
        ("fnjv.generate_ms", "fnjv.generate"),
    ] {
        if let Some(ms) = total_ms(&st, span) {
            report.scalar(metric, "ms", ms);
        }
    }
    let n = steps.stage1.records_total.max(1) as f64;
    let r = &steps.reassess;
    report.scalar(
        "core.reassess_records_reprocessed",
        "count",
        r.records_reprocessed as f64,
    );
    report.scalar(
        "core.reassess_names_rechecked",
        "count",
        r.names_rechecked as f64,
    );
    report.scalar(
        "core.reassess_work_ratio",
        "ratio",
        r.records_reprocessed as f64 / n,
    );
    report.scalar(
        "curation.records_changed",
        "count",
        steps.stage1.records_changed as f64,
    );
    report.scalar(
        "curation.field_fixes",
        "count",
        steps.stage1.field_changes as f64,
    );
    report.scalar(
        "taxonomy.names_changed",
        "count",
        steps.names_changed as f64,
    );
    let entries = steps.catchup.search_entries_consumed as f64;
    let docs = steps.catchup.search_docs_updated as f64;
    report.scalar("search.entries_consumed", "count", entries);
    report.scalar("search.docs_indexed", "count", docs);
    report.scalar("search.docs_per_entry", "ratio", docs / entries.max(1.0));
    report.scalar(
        "search.catchup_ms",
        "ms",
        c.hist_sum("preserva_search_run_seconds") * 1e3,
    );
    report.scalar(
        "core.prov_index_refresh_ms",
        "ms",
        c.hist_sum("preserva_prov_index_refresh_seconds") * 1e3,
    );
    report.scalar(
        "core.prov_graph_bytes",
        "bytes",
        c.hist_sum("preserva_provenance_graph_bytes"),
    );

    // Step time the public-call spans inside each step do not cover.
    let (self_ns, total_ns) = st
        .iter()
        .filter(|(name, _)| name.starts_with("lifecycle.step"))
        .fold((0u64, 0u64), |(s, t), (_, v)| {
            (s + v.self_ns, t + v.total_ns)
        });
    report.scalar(
        "bench.lifecycle_unattributed_pct",
        "%",
        self_ns as f64 * 100.0 / total_ns.max(1) as f64,
    );
}

/// A server booted over a private copy of `src_root`.
struct Copy {
    root: std::path::PathBuf,
    server: Server,
}

impl Copy {
    fn boot(src_root: &Path, work: &Path, name: &str) -> Result<Copy, String> {
        let root = work.join(name);
        let _ = std::fs::remove_dir_all(&root);
        setup::copy_dir(src_root, &root).map_err(err)?;
        let server = crate::serve::boot(&root)?;
        Ok(Copy { root, server })
    }

    fn shutdown(self) -> Result<(), String> {
        let closed = self.server.shutdown().map_err(err);
        let _ = std::fs::remove_dir_all(&self.root);
        closed
    }
}

fn request(op: &Op) -> Request {
    let (path, raw_query) = op.path_query();
    Request {
        method: op.method().to_string(),
        path,
        raw_query,
        headers: [("authorization".to_string(), format!("Bearer {KEY}"))]
            .into_iter()
            .collect(),
        body: op.body().to_vec(),
    }
}

/// Work the layer replay did, for per-record and per-query ratios.
#[derive(Default)]
struct Tally {
    decoded: u64,
    encoded: u64,
    queries: u64,
    hits: u64,
    fuzzies: u64,
    candidates: u64,
}

/// One op through the layer calls its route makes.
fn layer_op(state: &ServerState, op: &Op, t: &Tracer, tally: &mut Tally) -> bool {
    let Ok(coll) = t.span("server.admit", || state.manager.admit(TENANT, Some(KEY))) else {
        return false;
    };
    let table = coll.options().records_table.clone();
    let search_prelude = || {
        t.span("search.indexer_run", || coll.search().run()).ok()?;
        let reader = coll.search().reader();
        let snap = t.span("storage.snapshot", || coll.store().snapshot());
        t.span("search.cursor_at", || reader.cursor_at(&snap))
            .ok()?;
        Some((reader, snap))
    };
    match op {
        Op::Get { id } => {
            let snap = t.span("storage.snapshot", || coll.store().snapshot());
            let Ok(Some(row)) = t.span("storage.get", || snap.get(&table, id.as_bytes())) else {
                return false;
            };
            tally.decoded += 1;
            let Some(rec) = t.span("metadata.decode_record", || decode_row::<Record>(&row)) else {
                return false;
            };
            tally.encoded += 1;
            t.span("metadata.encode_record", || serde_json::to_vec(&rec))
                .is_ok()
                && rec.id == *id
        }
        Op::Search { q, .. } | Op::Fresh { q, .. } => {
            let field = matches!(op, Op::Fresh { .. }).then_some("location");
            let Some((reader, snap)) = search_prelude() else {
                return false;
            };
            let Ok(hits) = t.span("search.query", || reader.query(&snap, field, q, 50)) else {
                return false;
            };
            tally.queries += 1;
            tally.hits += hits.total as u64;
            true
        }
        Op::Fuzzy { q, .. } => {
            let Some((reader, snap)) = search_prelude() else {
                return false;
            };
            let Ok(hit) = t.span("search.fuzzy", || reader.fuzzy(&snap, q, 2)) else {
                return false;
            };
            tally.fuzzies += 1;
            tally.candidates += hit.map_or(0, |h| h.candidates_scored as u64);
            true
        }
        Op::Facets => {
            let Some((reader, snap)) = search_prelude() else {
                return false;
            };
            t.span("search.facets", || reader.facets(&snap, None))
                .is_ok()
        }
        Op::ScanSpecies { .. } | Op::ScanStateYear { .. } => {
            let snap = t.span("storage.snapshot", || coll.store().snapshot());
            let Ok(rows) = t.span("storage.scan", || snap.scan(&table)) else {
                return false;
            };
            drop(snap);
            tally.decoded += rows.len() as u64;
            let records: Vec<Record> = t.span("metadata.decode_rows", || {
                rows.iter().filter_map(|(_, v)| decode_row(v)).collect()
            });
            let hits: Vec<&Record> = records
                .iter()
                .filter(|r| match op {
                    Op::ScanSpecies { species, .. } => r.get_text("species") == Some(species),
                    Op::ScanStateYear { state, year, .. } => {
                        r.get_text("state") == Some(state.as_str())
                            && matches!(r.get("collect_date"), Some(Value::Date(d)) if d.year == *year)
                    }
                    _ => false,
                })
                .take(50)
                .collect();
            tally.encoded += hits.len() as u64;
            t.span("metadata.encode_rows", || serde_json::to_vec(&hits))
                .is_ok()
        }
        Op::Stats => {
            let snap = t.span("storage.snapshot", || coll.store().snapshot());
            t.span("core.catalog_all_at", || coll.catalog().all_at(&snap))
                .is_ok()
        }
        Op::Put { body, .. } => {
            tally.decoded += 1;
            let Ok(rec) = t.span("metadata.decode_record", || {
                serde_json::from_slice::<Record>(body)
            }) else {
                return false;
            };
            t.span("core.catalog_insert", || coll.catalog().insert(&rec))
                .is_ok()
        }
    }
}

/// Durations (µs) of top-level spans since `mark` whose name starts
/// with `prefix`, per op kind.
fn per_kind(tracer: &Tracer, mark: usize, ops: &[Op], prefix: &str) -> BTreeMap<Kind, Dist> {
    let mut by: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    for s in tracer.since(mark) {
        if s.parent.is_some() || !s.name.starts_with(prefix) {
            continue;
        }
        if let Some(op) = ops.get(s.op_id as usize) {
            by.entry(op.kind())
                .or_default()
                .push(s.dur_ns() as f64 / 1e3);
        }
    }
    by.into_iter().map(|(k, v)| (k, Dist::new(v))).collect()
}

fn all_mean(by: &BTreeMap<Kind, Dist>) -> f64 {
    let (sum, n) = by.values().fold((0.0, 0usize), |(s, n), d| {
        (s + d.mean() * d.len() as f64, n + d.len())
    });
    sum / n.max(1) as f64
}

/// The four-mode replay of `ops` and the per-layer metrics it gives.
pub fn replay(
    report: &mut Report,
    tracer: &Tracer,
    src_root: &Path,
    work: &Path,
    ops: &[Op],
    n_records: usize,
) -> Result<(), String> {
    let copies = [
        "replay-http",
        "replay-http-traced",
        "replay-route",
        "replay-layers",
    ]
    .into_iter()
    .map(|name| Copy::boot(src_root, work, name))
    .collect::<Result<Vec<_>, _>>()?;
    let [plain, traced, routed, layered] = &copies[..] else {
        unreachable!("four copies booted");
    };
    let admit = |c: &Copy| {
        c.server
            .state()
            .manager
            .admit(TENANT, Some(KEY))
            .map_err(|g| format!("admit: {g:?}"))
    };
    let mut plain_conn = Conn::open(plain.server.addr()).map_err(err)?;
    let mut traced_conn = Conn::open(traced.server.addr()).map_err(err)?;
    plain_conn.op(&Op::Stats).map_err(err)?;
    traced_conn.op(&Op::Stats).map_err(err)?;
    admit(routed)?;
    let coll = admit(layered)?;

    let mut rtt = Vec::new();
    for i in 0..RTT_PROBES + 20 {
        let started = Instant::now();
        let ok = plain_conn
            .call("GET", "/healthz", &[])
            .is_ok_and(|(s, _)| s == 200);
        report.op(ok);
        if i >= 20 {
            rtt.push(started.elapsed().as_secs_f64() * 1e6);
        }
    }
    let rtt_us = Dist::new(rtt).mean();

    let before = Counters::read(&[coll.metrics_registry()]);
    let mut http: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut tally = Tally::default();
    let mark = tracer.mark();
    for (i, op) in ops.iter().enumerate() {
        tracer.set_op(i as u64);
        for mode in 0..4 {
            let ok = match (i + mode) % 4 {
                0 => {
                    let started = Instant::now();
                    let reply = plain_conn.op(op);
                    http.entry(op.kind())
                        .or_default()
                        .push(started.elapsed().as_secs_f64() * 1e6);
                    reply.is_ok_and(|(s, b)| op.check(s, &b, n_records, false))
                }
                1 => tracer
                    .span(op.kind().http_span(), || traced_conn.op(op))
                    .is_ok_and(|(s, b)| op.check(s, &b, n_records, false)),
                2 => {
                    let req = request(op);
                    let resp = tracer.span(op.kind().route_span(), || {
                        routes::route(routed.server.state(), &req)
                    });
                    op.check(resp.status, &resp.body, n_records, false)
                }
                _ => tracer.span(op.kind().layer_span(), || {
                    layer_op(layered.server.state(), op, tracer, &mut tally)
                }),
            };
            report.op(ok);
        }
    }
    // Fold the replayed writes into the store's runs.
    tracer.set_op(ops.len() as u64);
    tracer
        .span("storage.checkpoint", || coll.engine().checkpoint())
        .map_err(err)?;
    tracer
        .span("storage.compact", || coll.engine().compact())
        .map_err(err)?;
    let delta = Counters::read(&[coll.metrics_registry()]).since(&before);
    drop(coll);
    for c in copies {
        c.shutdown()?;
    }

    let http: BTreeMap<Kind, Dist> = http.into_iter().map(|(k, v)| (k, Dist::new(v))).collect();
    let http_traced = per_kind(tracer, mark, ops, "http.");
    let route = per_kind(tracer, mark, ops, "route.");
    let layers = per_kind(tracer, mark, ops, "layers.");
    let st = tracer.self_times(mark);
    let mean_us = |name: &str| st.get(name).map_or(0.0, |s| s.mean_us());
    let total_us = |name: &str| st.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e3);

    let http_mean = all_mean(&http);
    let route_mean = all_mean(&route);
    report.scalar("server.http_rtt_us", "us", rtt_us);
    report.scalar("server.admit_us", "us", mean_us("server.admit"));
    for (kind, metric) in [
        (Kind::Get, "server.route_get_us"),
        (Kind::Search, "server.route_search_us"),
        (Kind::Fuzzy, "server.route_fuzzy_us"),
        (Kind::Facets, "server.route_facets_us"),
        (Kind::Scan, "server.route_scan_us"),
        (Kind::Stats, "server.route_stats_us"),
        (Kind::Put, "server.route_put_us"),
    ] {
        if let Some(d) = route.get(&kind) {
            report.scalar(metric, "us", d.mean());
        }
    }
    report.scalar(
        "server.unattributed_pct",
        "%",
        (1.0 - (rtt_us + route_mean) / http_mean) * 100.0,
    );
    report.scalar_if_absent(
        "bench.trace_overhead_pct",
        "%",
        (all_mean(&http_traced) / http_mean - 1.0) * 100.0,
    );
    report.scalar("storage.snapshot_us", "us", mean_us("storage.snapshot"));
    report.scalar("storage.get_us", "us", mean_us("storage.get"));
    report.scalar("storage.scan_ms", "ms", mean_us("storage.scan") / 1e3);
    report.scalar(
        "metadata.decode_record_us",
        "us",
        (total_us("metadata.decode_record") + total_us("metadata.decode_rows"))
            / tally.decoded.max(1) as f64,
    );
    report.scalar(
        "metadata.encode_record_us",
        "us",
        (total_us("metadata.encode_record") + total_us("metadata.encode_rows"))
            / tally.encoded.max(1) as f64,
    );
    for (metric, span) in [
        ("search.indexer_run_us", "search.indexer_run"),
        ("search.query_us", "search.query"),
        ("search.fuzzy_us", "search.fuzzy"),
        ("search.facets_us", "search.facets"),
        ("search.cursor_at_us", "search.cursor_at"),
        ("core.catalog_insert_us", "core.catalog_insert"),
    ] {
        report.scalar(metric, "us", mean_us(span));
    }
    report.scalar(
        "core.catalog_all_at_ms",
        "ms",
        mean_us("core.catalog_all_at") / 1e3,
    );
    report.scalar(
        "search.query_hits_mean",
        "count",
        tally.hits as f64 / tally.queries.max(1) as f64,
    );
    report.scalar(
        "search.fuzzy_candidates_mean",
        "count",
        tally.candidates as f64 / tally.fuzzies.max(1) as f64,
    );
    report.scalar_if_absent(
        "storage.compact_ms",
        "ms",
        total_us("storage.compact") / 1e3,
    );
    p99_if_observed(
        report,
        &delta,
        "storage.commit_p99_us",
        "preserva_storage_commit_seconds",
    );
    p99_if_observed(
        report,
        &delta,
        "search.run_inline_p99_us",
        "preserva_search_run_seconds",
    );

    report.notes.push(format!(
        "replay: {} ops x 4 modes; http {:.1} us/op untraced, {:.1} traced; rtt {:.1} us; route {:.1} us/op",
        ops.len(),
        http_mean,
        all_mean(&http_traced),
        rtt_us,
        route_mean
    ));
    report.notes.push(
        "residual kind         n   http_us  route_us  http-rtt-route  layers_us  layer_calls_us  route-layers"
            .to_string(),
    );
    for kind in Kind::ALL {
        let (Some(h), Some(r), Some(l)) = (http.get(&kind), route.get(&kind), layers.get(&kind))
        else {
            continue;
        };
        let parent = st.get(kind.layer_span()).copied().unwrap_or_default();
        let calls_us = (parent.total_ns - parent.self_ns) as f64 / 1e3 / parent.count.max(1) as f64;
        report.notes.push(format!(
            "residual {:<12} {:>5} {:>9.1} {:>9.1} {:>15.1} {:>10.1} {:>15.1} {:>13.1}",
            kind.name(),
            h.len(),
            h.mean(),
            r.mean(),
            h.mean() - rtt_us - r.mean(),
            l.mean(),
            calls_us,
            r.mean() - l.mean(),
        ));
    }
    Ok(())
}

/// Write the span file and report where it went.
pub fn finish(report: &mut Report, tracer: &Tracer) -> Result<(), String> {
    let path = setup::out_dir().join(format!("trace-{}.jsonl", report.workload));
    tracer.write_jsonl(&path).map_err(err)?;
    report.notes.push(format!(
        "spans: {} written to {}",
        tracer.mark(),
        path.display()
    ));
    Ok(())
}
