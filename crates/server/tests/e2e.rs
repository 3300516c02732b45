//! End-to-end exercises over a real socket: auth, tenant isolation,
//! snapshot reads, the live change feed (including resume-from-cursor),
//! the merged /metrics exposition, and verified-clean shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use preserva_server::tenants::{Quota, TenantConfig};
use preserva_server::{Server, ServerConfig};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("preserva-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn tenant(name: &str, key: &str) -> TenantConfig {
    TenantConfig {
        name: name.into(),
        api_key: key.into(),
        quota: Quota::default(),
    }
}

fn start(tag: &str) -> (Server, PathBuf) {
    let root = tmp(tag);
    let config = ServerConfig::new("127.0.0.1:0", &root)
        .tenant(tenant("herp", "key-herp"))
        .tenant(tenant("ornith", "key-ornith"))
        .admin_key("op-secret");
    let mut config = config;
    config.feed_poll = Duration::from_millis(50);
    config.keep_alive = Duration::from_secs(2);
    (Server::start(config).unwrap(), root)
}

/// A parsed response: status, headers skipped, body fully read (sized or
/// chunked).
struct Reply {
    status: u16,
    body: String,
}

impl Reply {
    fn json(&self) -> serde_json::Value {
        serde_json::from_str(&self.body).unwrap_or(serde_json::Value::Null)
    }
}

/// One-shot request over a fresh connection.
fn call(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    key: Option<&str>,
    body: Option<&str>,
) -> Reply {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let auth = key
        .map(|k| format!("Authorization: Bearer {k}\r\n"))
        .unwrap_or_default();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\n{auth}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    read_reply(&mut BufReader::new(stream))
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Reply {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut len = 0usize;
    let mut chunked = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            len = v.trim().parse().unwrap();
        }
        if lower.starts_with("transfer-encoding:") && lower.contains("chunked") {
            chunked = true;
        }
    }
    let body = if chunked {
        read_chunked(reader)
    } else {
        let mut buf = vec![0u8; len];
        reader.read_exact(&mut buf).unwrap();
        String::from_utf8_lossy(&buf).into_owned()
    };
    Reply { status, body }
}

fn read_chunked(reader: &mut BufReader<TcpStream>) -> String {
    let mut out = String::new();
    loop {
        let mut size_line = String::new();
        if reader.read_line(&mut size_line).is_err() {
            break;
        }
        let size = usize::from_str_radix(size_line.trim(), 16).unwrap_or(0);
        if size == 0 {
            break;
        }
        let mut buf = vec![0u8; size + 2]; // chunk + trailing CRLF
        reader.read_exact(&mut buf).unwrap();
        out.push_str(&String::from_utf8_lossy(&buf[..size]));
    }
    out
}

fn record_json(id: &str, species: &str) -> String {
    serde_json::json!({
        "id": id,
        "fields": { "species": { "Text": species } }
    })
    .to_string()
}

/// SSE event ids (journal seqs) in arrival order.
fn feed_seqs(body: &str) -> Vec<u64> {
    body.lines()
        .filter_map(|l| l.strip_prefix("id: "))
        .filter_map(|v| v.parse().ok())
        .collect()
}

#[test]
fn auth_and_tenant_isolation_end_to_end() {
    let (server, root) = start("iso");
    let addr = server.addr();

    // No auth needed for health.
    assert_eq!(call(addr, "GET", "/healthz", None, None).status, 200);

    // Wrong / missing key and unknown tenant bounce correctly.
    assert_eq!(
        call(addr, "GET", "/v1/herp/records", None, None).status,
        401
    );
    assert_eq!(
        call(addr, "GET", "/v1/herp/records", Some("wrong"), None).status,
        401
    );
    assert_eq!(
        call(addr, "GET", "/v1/nosuch/records", Some("key-herp"), None).status,
        404
    );

    // Write to herp; visible to herp, invisible to ornith.
    let put = call(
        addr,
        "PUT",
        "/v1/herp/records",
        Some("key-herp"),
        Some(&record_json("r1", "Hyla faber")),
    );
    assert_eq!(put.status, 201, "body: {}", put.body);
    assert!(put.json()["lsn"].as_u64().is_some());

    let got = call(addr, "GET", "/v1/herp/records/r1", Some("key-herp"), None);
    assert_eq!(got.status, 200);
    assert_eq!(got.json()["record"]["id"], "r1");

    let other = call(
        addr,
        "GET",
        "/v1/ornith/records/r1",
        Some("key-ornith"),
        None,
    );
    assert_eq!(other.status, 404, "tenants must not share data");

    // Filtered scan under a single pinned snapshot.
    call(
        addr,
        "PUT",
        "/v1/herp/records",
        Some("key-herp"),
        Some(&record_json("r2", "Puma concolor")),
    );
    let scan = call(
        addr,
        "GET",
        "/v1/herp/records?species=Hyla+faber",
        Some("key-herp"),
        None,
    );
    assert_eq!(scan.status, 200);
    assert_eq!(scan.json()["total"], 1);

    // Stats reports zero pinned snapshots once the request is done.
    let stats = call(addr, "GET", "/v1/herp/stats", Some("key-herp"), None);
    assert_eq!(stats.status, 200);
    assert_eq!(stats.json()["records"], 2);
    assert_eq!(stats.json()["snapshots_pinned"], 0);
    assert!(stats.json()["options_fingerprint"]
        .as_str()
        .unwrap()
        .contains("records_table=records"));

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn feed_streams_live_changes_and_resumes_without_gaps() {
    let (server, root) = start("feed");
    let addr = server.addr();

    for i in 0..5 {
        let put = call(
            addr,
            "PUT",
            "/v1/herp/records",
            Some("key-herp"),
            Some(&record_json(&format!("r{i}"), "Hyla faber")),
        );
        assert_eq!(put.status, 201);
    }
    let head = call(addr, "GET", "/v1/herp/stats", Some("key-herp"), None).json()["journal_head"]
        .as_u64()
        .unwrap();
    assert!(head >= 5);

    // Full replay from cursor 0.
    let full = call(
        addr,
        "GET",
        &format!("/v1/herp/feed?cursor=0&max_events={head}"),
        Some("key-herp"),
        None,
    );
    assert_eq!(full.status, 200);
    let all = feed_seqs(&full.body);
    assert_eq!(all.len() as u64, head);
    assert!(full.body.contains("event: change"));
    // Strictly increasing — no duplicates, no reordering.
    assert!(all.windows(2).all(|w| w[0] < w[1]), "seqs: {all:?}");

    // Resume from a mid-stream cursor: exactly the suffix, gap-free.
    let mid = all[2];
    let remaining = all.len() - 3;
    let rest = call(
        addr,
        "GET",
        &format!("/v1/herp/feed?cursor={mid}&max_events={remaining}"),
        Some("key-herp"),
        None,
    );
    let suffix = feed_seqs(&rest.body);
    assert_eq!(
        suffix,
        all[3..].to_vec(),
        "resume must be gap- and dup-free"
    );

    // Live push: subscribe first, then write, and see the event arrive.
    let addr2 = addr;
    let sub = std::thread::spawn(move || {
        call(
            addr2,
            "GET",
            &format!("/v1/herp/feed?cursor={head}&max_events=1"),
            Some("key-herp"),
            None,
        )
    });
    std::thread::sleep(Duration::from_millis(150)); // let the long-poll park
    call(
        addr,
        "PUT",
        "/v1/herp/records",
        Some("key-herp"),
        Some(&record_json("live", "Caiman latirostris")),
    );
    let pushed = sub.join().unwrap();
    let seqs = feed_seqs(&pushed.body);
    assert_eq!(seqs.len(), 1);
    assert!(seqs[0] > head);

    // A cursor at the journal head yields only keepalives until
    // max_events… so use the past-the-end cursor u64::MAX: the feed
    // treats it as "nothing ever", closing after one poll cycle is not
    // guaranteed — skip streaming and just check the edge doesn't wedge
    // the server: the request below must still be answerable.
    assert_eq!(call(addr, "GET", "/healthz", None, None).status, 200);

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn metrics_merge_tenant_families_with_server_families() {
    let (server, root) = start("metrics");
    let addr = server.addr();

    // Touch both tenants so their registries are open and populated.
    call(
        addr,
        "PUT",
        "/v1/herp/records",
        Some("key-herp"),
        Some(&record_json("m1", "Hyla faber")),
    );
    call(addr, "GET", "/v1/ornith/stats", Some("key-ornith"), None);
    // And provoke an auth failure for the counter.
    call(addr, "GET", "/v1/herp/stats", Some("bad"), None);

    // The merged exposition names every tenant, so it is operator-only:
    // no key and tenant keys are both rejected (and counted).
    assert_eq!(call(addr, "GET", "/metrics", None, None).status, 401);
    assert_eq!(
        call(addr, "GET", "/metrics", Some("key-herp"), None).status,
        401,
        "a tenant key must not unlock the cross-tenant exposition"
    );

    let metrics = call(addr, "GET", "/metrics", Some("op-secret"), None);
    assert_eq!(metrics.status, 200);
    let text = &metrics.body;
    assert!(
        text.contains("preserva_server_requests_total"),
        "server families present"
    );
    // 1 tenant bad-key + 2 rejected /metrics scrapes above.
    assert!(text.contains("preserva_server_auth_failures_total 3"));
    assert!(
        text.contains("tenant=\"herp\"") && text.contains("tenant=\"ornith\""),
        "tenant-labeled families present:\n{text}"
    );
    assert!(
        text.contains("preserva_collection_options_info"),
        "collection fingerprint info gauge is exported"
    );

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn record_ids_containing_slashes_are_reachable() {
    let (server, root) = start("slashid");
    let addr = server.addr();
    let put = call(
        addr,
        "PUT",
        "/v1/herp/records",
        Some("key-herp"),
        Some(&record_json("FNJV/0001", "Hyla faber")),
    );
    assert_eq!(put.status, 201, "body: {}", put.body);
    // %2F stays inside the id segment: the record is reachable.
    let got = call(
        addr,
        "GET",
        "/v1/herp/records/FNJV%2F0001",
        Some("key-herp"),
        None,
    );
    assert_eq!(got.status, 200, "body: {}", got.body);
    assert_eq!(got.json()["record"]["id"], "FNJV/0001");
    // A literal slash genuinely changes the route shape — clean 404,
    // not a mis-route.
    let raw = call(
        addr,
        "GET",
        "/v1/herp/records/FNJV/0001",
        Some("key-herp"),
        None,
    );
    assert_eq!(raw.status, 404);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn search_and_facets_end_to_end() {
    let (server, root) = start("search");
    let addr = server.addr();

    // Both search endpoints sit behind tenant auth.
    assert_eq!(
        call(addr, "GET", "/v1/herp/search?q=hyla", None, None).status,
        401
    );
    assert_eq!(
        call(addr, "GET", "/v1/herp/facets", Some("wrong"), None).status,
        401
    );

    // Seed herp; ornith stays empty — isolation check below.
    for (id, species) in [
        ("s1", "Hyla faber"),
        ("s2", "Hyla faber"),
        ("s3", "Scinax ruber"),
    ] {
        assert_eq!(
            call(
                addr,
                "PUT",
                "/v1/herp/records",
                Some("key-herp"),
                Some(&record_json(id, species)),
            )
            .status,
            201
        );
    }

    // Token search folds the journal in first, then answers under one
    // pinned snapshot, reporting LSN + cursor + lag.
    let hits = call(
        addr,
        "GET",
        "/v1/herp/search?q=hyla&field=species",
        Some("key-herp"),
        None,
    );
    assert_eq!(hits.status, 200, "body: {}", hits.body);
    let j = hits.json();
    assert_eq!(j["total"], 2);
    assert_eq!(j["ids"], serde_json::json!(["s1", "s2"]));
    assert!(j["as_of_lsn"].as_u64().unwrap() > 0);
    assert_eq!(j["index_lag"], 0, "handler refreshed before answering");
    let cursor = j["index_cursor"].as_u64().unwrap();
    assert!(cursor >= 3, "cursor covers the three inserts");

    // Missing query parameter is a clean 400.
    assert_eq!(
        call(addr, "GET", "/v1/herp/search", Some("key-herp"), None).status,
        400
    );

    // Fuzzy lookup through the persisted n-gram index.
    let fuzzy = call(
        addr,
        "GET",
        "/v1/herp/search?fuzzy=Hyla+fabre&distance=2",
        Some("key-herp"),
        None,
    );
    assert_eq!(fuzzy.status, 200);
    assert_eq!(fuzzy.json()["match"]["name"], "Hyla faber");
    assert_eq!(fuzzy.json()["match"]["distance"], 1);

    // Facets answered off the counter rows alone.
    let facets = call(addr, "GET", "/v1/herp/facets", Some("key-herp"), None);
    assert_eq!(facets.status, 200);
    let f = facets.json();
    assert_eq!(f["facets"]["georeferenced"]["no"], 3);
    assert_eq!(f["facets"]["quality"]["low"], 3);
    assert_eq!(f["index_lag"], 0);

    // Tenant isolation: ornith's index is empty, not herp's.
    let other = call(
        addr,
        "GET",
        "/v1/ornith/search?q=hyla",
        Some("key-ornith"),
        None,
    );
    assert_eq!(other.status, 200);
    assert_eq!(other.json()["total"], 0, "tenants must not share indexes");

    // Consistency with a concurrent writer: a record landing while we
    // query is either fully visible (in hits AND facets at a later
    // cursor) or fully invisible — never half-indexed. After the next
    // search, it must be visible with lag 0 again.
    assert_eq!(
        call(
            addr,
            "PUT",
            "/v1/herp/records",
            Some("key-herp"),
            Some(&record_json("s4", "Hyla faber")),
        )
        .status,
        201
    );
    let after = call(
        addr,
        "GET",
        "/v1/herp/search?q=faber",
        Some("key-herp"),
        None,
    );
    assert_eq!(after.json()["total"], 3);
    assert_eq!(after.json()["index_lag"], 0);
    assert!(after.json()["index_cursor"].as_u64().unwrap() > cursor);
    let facets2 = call(addr, "GET", "/v1/herp/facets", Some("key-herp"), None);
    assert_eq!(facets2.json()["facets"]["georeferenced"]["no"], 4);

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn search_respects_request_quota() {
    let root = tmp("search-quota");
    let mut config = ServerConfig::new("127.0.0.1:0", &root);
    config.feed_poll = Duration::from_millis(50);
    let config = config.tenant(TenantConfig {
        name: "small".into(),
        api_key: "k".into(),
        quota: Quota {
            max_requests: 2,
            window: Duration::from_secs(60),
            max_subscribers: 1,
        },
    });
    let server = Server::start(config).unwrap();
    let addr = server.addr();

    assert_eq!(
        call(addr, "GET", "/v1/small/search?q=x", Some("k"), None).status,
        200
    );
    assert_eq!(
        call(addr, "GET", "/v1/small/facets", Some("k"), None).status,
        200
    );
    assert_eq!(
        call(addr, "GET", "/v1/small/search?q=x", Some("k"), None).status,
        429,
        "search requests count against the tenant quota"
    );

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn quota_limits_requests_per_window() {
    let root = tmp("quota");
    let mut config = ServerConfig::new("127.0.0.1:0", &root);
    config.feed_poll = Duration::from_millis(50);
    let config = config.tenant(TenantConfig {
        name: "small".into(),
        api_key: "k".into(),
        quota: Quota {
            max_requests: 3,
            window: Duration::from_secs(60),
            max_subscribers: 1,
        },
    });
    let server = Server::start(config).unwrap();
    let addr = server.addr();

    for _ in 0..3 {
        assert_eq!(
            call(addr, "GET", "/v1/small/stats", Some("k"), None).status,
            200
        );
    }
    assert_eq!(
        call(addr, "GET", "/v1/small/stats", Some("k"), None).status,
        429
    );

    // This server configured no admin key: /metrics is disabled, not
    // open — even a tenant key doesn't unlock it.
    assert_eq!(call(addr, "GET", "/metrics", None, None).status, 401);
    assert_eq!(call(addr, "GET", "/metrics", Some("k"), None).status, 401);

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_closes_collections_cleanly_and_data_survives_restart() {
    let root = tmp("restart");
    let build = |root: &PathBuf| {
        let mut c = ServerConfig::new("127.0.0.1:0", root).tenant(tenant("herp", "key-herp"));
        c.feed_poll = Duration::from_millis(50);
        c
    };

    let server = Server::start(build(&root)).unwrap();
    let addr = server.addr();
    assert_eq!(
        call(
            addr,
            "PUT",
            "/v1/herp/records",
            Some("key-herp"),
            Some(&record_json("persist", "Hyla faber")),
        )
        .status,
        201
    );
    server.shutdown().unwrap();

    // Reopen over the same directory: the record is still there.
    let server = Server::start(build(&root)).unwrap();
    let got = call(
        server.addr(),
        "GET",
        "/v1/herp/records/persist",
        Some("key-herp"),
        None,
    );
    assert_eq!(got.status, 200);
    assert_eq!(got.json()["record"]["id"], "persist");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

/// Percent-encode a query value: every byte but ASCII alphanumerics.
fn enc(s: &str) -> String {
    s.bytes()
        .map(|b| match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' => (b as char).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect()
}

fn ids_of(listing: &serde_json::Value) -> Vec<String> {
    listing["records"]
        .as_array()
        .unwrap()
        .iter()
        .map(|r| r["id"].as_str().unwrap().to_string())
        .collect()
}

#[test]
fn listings_and_stats_match_a_linear_count() {
    use preserva_fnjv::config::GeneratorConfig;
    use preserva_fnjv::generator;
    use preserva_metadata::value::Value;

    let (server, root) = start("listings");
    let addr = server.addr();
    let mut records = generator::generate(&GeneratorConfig::small(7)).records;
    records.truncate(120);
    for r in &records {
        let body = serde_json::to_string(r).unwrap();
        let put = call(
            addr,
            "PUT",
            "/v1/herp/records",
            Some("key-herp"),
            Some(&body),
        );
        assert_eq!(put.status, 201, "body: {}", put.body);
    }
    records.sort_by(|a, b| a.id.cmp(&b.id));
    let get = |target: &str| {
        let reply = call(addr, "GET", target, Some("key-herp"), None);
        assert_eq!(reply.status, 200, "{target}: {}", reply.body);
        reply.json()
    };

    // State + year: exact state text and a typed date in that year.
    let (state, year) = records
        .iter()
        .find_map(|r| match (r.get_text("state"), r.get("collect_date")) {
            (Some(s), Some(Value::Date(d))) => Some((s.to_string(), d.year)),
            _ => None,
        })
        .unwrap();
    let expected: Vec<String> = records
        .iter()
        .filter(|r| {
            r.get_text("state") == Some(state.as_str())
                && matches!(r.get("collect_date"), Some(Value::Date(d)) if d.year == year)
        })
        .map(|r| r.id.clone())
        .collect();
    let listing = get(&format!(
        "/v1/herp/records?state={}&year={year}&limit=2",
        enc(&state)
    ));
    assert_eq!(listing["total"], expected.len());
    assert_eq!(ids_of(&listing), expected[..expected.len().min(2)]);

    // Species, byte for byte (dirty spellings are different texts).
    let species = records[0].get_text("species").unwrap().to_string();
    let expected: Vec<String> = records
        .iter()
        .filter(|r| r.get_text("species") == Some(species.as_str()))
        .map(|r| r.id.clone())
        .collect();
    let listing = get(&format!("/v1/herp/records?species={}", enc(&species)));
    assert_eq!(listing["total"], expected.len());
    assert_eq!(ids_of(&listing), expected);

    // Unfiltered: every record counted, the first page in id order.
    let listing = get("/v1/herp/records?limit=7");
    assert_eq!(listing["total"], records.len());
    let first: Vec<String> = records.iter().take(7).map(|r| r.id.clone()).collect();
    assert_eq!(ids_of(&listing), first);

    assert_eq!(get("/v1/herp/stats")["records"], records.len());
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn malformed_parameters_are_rejected() {
    let (server, root) = start("bad-params");
    let addr = server.addr();
    let put = call(
        addr,
        "PUT",
        "/v1/herp/records",
        Some("key-herp"),
        Some(&record_json("r1", "Hyla faber")),
    );
    assert_eq!(put.status, 201);
    for (target, param) in [
        ("/v1/herp/records?state=SP&year=19x2", "year"),
        ("/v1/herp/records?year=", "year"),
        ("/v1/herp/records?limit=abc", "limit"),
        ("/v1/herp/records?limit=-1", "limit"),
        ("/v1/herp/search?q=hyla&limit=x", "limit"),
        ("/v1/herp/search?fuzzy=Hyla+fabre&distance=two", "distance"),
        ("/v1/herp/prov/runs?artifact=a&after=soon", "after"),
    ] {
        let reply = call(addr, "GET", target, Some("key-herp"), None);
        assert_eq!(reply.status, 400, "{target} answered {}", reply.body);
        let message = reply.json()["error"]
            .as_str()
            .unwrap_or_default()
            .to_string();
        assert!(message.contains(param), "{target}: {message}");
    }
    // A well-formed listing still answers.
    let ok = call(
        addr,
        "GET",
        "/v1/herp/records?limit=5",
        Some("key-herp"),
        None,
    );
    assert_eq!(ok.status, 200);
    assert_eq!(ok.json()["total"], 1);
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&root);
}
