//! Hostile requests against an in-process server with two tenants. None
//! may take the process down, hold a connection open past its budget,
//! commit a partial write, leave a snapshot pinned or change what the
//! other tenant reads.
//!
//! This is a test binary of its own because a request that overflows a
//! worker's stack aborts the whole process, and with it every test
//! sharing the binary.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use preserva_server::tenants::{Quota, TenantConfig};
use preserva_server::{Server, ServerConfig};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("preserva-hostile-{tag}-{}", std::process::id()));
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

/// A server on the default 5 s keep-alive, so a close that waits for
/// the idle timeout is told apart from one that does not.
fn start(tag: &str) -> (Server, PathBuf) {
    let root = tmp(tag);
    let config = ServerConfig::new("127.0.0.1:0", &root)
        .tenant(tenant("herp", "key-herp"))
        .tenant(tenant("ornith", "key-ornith"));
    (Server::start(config).unwrap(), root)
}

/// The head of a request that closes the connection after its reply.
fn head(method: &str, path: &str, key: &str, content_length: usize) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nAuthorization: Bearer {key}\r\n\
         Content-Length: {content_length}\r\nConnection: close\r\n\r\n"
    )
}

/// What the server did with one connection: the reply's status and body
/// if one came, and how long after the write the connection closed.
struct Outcome {
    status: Option<u16>,
    body: String,
    closed_after: Duration,
}

/// Write `bytes` on a fresh connection (half-closing it when `eof`),
/// then read until the server closes it. A reset counts as a close; a
/// read that waits 10 s does not.
fn exchange(addr: SocketAddr, bytes: &[u8], eof: bool) -> Outcome {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    // The server may close before reading everything; the write then
    // fails, which is the behaviour under test, not an error in it.
    let _ = stream.write_all(bytes);
    if eof {
        let _ = stream.shutdown(Shutdown::Write);
    }
    let mut reply = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("connection still open after {:?}", started.elapsed())
            }
            Err(_) => break,
        }
    }
    let closed_after = started.elapsed();
    let text = String::from_utf8_lossy(&reply).into_owned();
    let status = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok());
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Outcome {
        status,
        body,
        closed_after,
    }
}

fn call(addr: SocketAddr, method: &str, path: &str, key: &str, body: &str) -> Outcome {
    let mut request = head(method, path, key, body.len()).into_bytes();
    request.extend_from_slice(body.as_bytes());
    exchange(addr, &request, false)
}

fn put_record(addr: SocketAddr, tenant: &str, key: &str, id: &str) -> Outcome {
    let body = format!(r#"{{"id":"{id}","fields":{{"species":{{"Text":"Hyla faber"}}}}}}"#);
    call(addr, "PUT", &format!("/v1/{tenant}/records"), key, &body)
}

#[test]
fn hostile_requests_leave_every_tenant_serving() {
    let (server, root) = start("battery");
    let addr = server.addr();
    assert_eq!(
        put_record(addr, "ornith", "key-ornith", "O-1").status,
        Some(201)
    );
    assert_eq!(
        put_record(addr, "herp", "key-herp", "H-1").status,
        Some(201)
    );
    let seeded = call(addr, "GET", "/v1/ornith/records/O-1", "key-ornith", "");
    assert_eq!(seeded.status, Some(200));
    let herp = server.state().manager.peek("herp").unwrap();
    let commits = herp.store().engine().stats().commits;

    // 100,000 nested arrays in an unknown field: 200,027 bytes, under the
    // 1 MiB body limit. Decoding stops at 128 levels.
    let deep = format!(
        r#"{{"id":"a","fields":{{}},"x":{}{}}}"#,
        "[".repeat(100_000),
        "]".repeat(100_000)
    );
    assert_eq!(deep.len(), 200_027);
    let reply = call(addr, "PUT", "/v1/herp/records", "key-herp", &deep);
    assert_eq!(reply.status, Some(400), "{}", reply.body);
    assert!(reply.body.contains("recursion limit"), "{}", reply.body);

    // A 64 KiB header line that never ends is cut at the 16 KiB head
    // budget, not buffered until the keep-alive timeout.
    let mut long = b"GET /v1/herp/stats HTTP/1.1\r\nX-Filler: ".to_vec();
    long.resize(long.len() + 64 * 1024, b'a');
    let reply = exchange(addr, &long, false);
    assert_eq!(reply.status, Some(431));
    assert!(
        reply.closed_after < Duration::from_secs(1),
        "an endless header line held the connection for {:?}",
        reply.closed_after
    );

    // A body over 1 MiB is refused before any of it is read.
    let reply = exchange(
        addr,
        head("PUT", "/v1/herp/records", "key-herp", 2 * 1024 * 1024).as_bytes(),
        false,
    );
    assert_eq!(reply.status, Some(413));
    assert!(reply.closed_after < Duration::from_secs(1));

    // A Content-Length that is not a number is refused, so the body (a
    // whole GET of ornith's record) is never served as the next request.
    let smuggled = format!(
        "PUT /v1/herp/records HTTP/1.1\r\nHost: t\r\nAuthorization: Bearer key-herp\r\n\
         Content-Length: abc\r\n\r\n{}",
        head("GET", "/v1/ornith/records/O-1", "key-ornith", 0)
    );
    let reply = exchange(addr, smuggled.as_bytes(), false);
    assert_eq!(reply.status, Some(400), "{}", reply.body);
    assert!(
        !reply.body.contains("HTTP/1.1"),
        "a second reply: {}",
        reply.body
    );
    assert!(reply.closed_after < Duration::from_secs(1));

    // A chunked body is refused: only sized bodies are read.
    let chunked = "PUT /v1/herp/records HTTP/1.1\r\nHost: t\r\nAuthorization: Bearer key-herp\r\n\
                   Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
    let reply = exchange(addr, chunked.as_bytes(), false);
    assert_eq!(reply.status, Some(400), "{}", reply.body);
    assert!(reply.body.contains("Transfer-Encoding"), "{}", reply.body);

    // Two Content-Length headers that disagree are refused, whichever
    // comes last.
    let record = r#"{"id":"DUP-1","fields":{"species":{"Text":"Hyla faber"}}}"#;
    let dup = format!(
        "PUT /v1/herp/records HTTP/1.1\r\nHost: t\r\nAuthorization: Bearer key-herp\r\n\
         Content-Length: 0\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{record}",
        record.len()
    );
    let reply = exchange(addr, dup.as_bytes(), false);
    assert_eq!(reply.status, Some(400), "{}", reply.body);
    assert!(reply.body.contains("Content-Length"), "{}", reply.body);

    // A body cut short by the client commits nothing.
    let whole = r#"{"id":"TORN-1","fields":{"species":{"Text":"Hyla faber"}}}"#;
    let mut torn = head("PUT", "/v1/herp/records", "key-herp", whole.len()).into_bytes();
    torn.extend_from_slice(&whole.as_bytes()[..whole.len() / 2]);
    assert_eq!(exchange(addr, &torn, true).status, None);

    // A body that is not UTF-8 is a bad request.
    let body = b"{\"id\":\"\xff\",\"fields\":{}}";
    let mut bad = head("PUT", "/v1/herp/records", "key-herp", body.len()).into_bytes();
    bad.extend_from_slice(body);
    assert_eq!(exchange(addr, &bad, false).status, Some(400));

    assert_eq!(
        herp.store().engine().stats().commits,
        commits,
        "a hostile request committed"
    );
    let torn_get = call(addr, "GET", "/v1/herp/records/TORN-1", "key-herp", "");
    assert_eq!(torn_get.status, Some(404));
    let dup_get = call(addr, "GET", "/v1/herp/records/DUP-1", "key-herp", "");
    assert_eq!(dup_get.status, Some(404));

    // Both tenants still serve: ornith reads the same bytes, herp commits.
    let again = call(addr, "GET", "/v1/ornith/records/O-1", "key-ornith", "");
    assert_eq!(again.status, Some(200));
    assert_eq!(again.body, seeded.body);
    assert_eq!(
        put_record(addr, "herp", "key-herp", "H-2").status,
        Some(201)
    );
    for name in ["herp", "ornith"] {
        let coll = server.state().manager.peek(name).unwrap();
        assert_eq!(coll.snapshots_pinned(), 0, "{name} left a snapshot pinned");
    }
    drop(herp);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&root).ok();
}

/// A record id holding `+` or a `%` escape is found by the path that
/// names it: only a query component maps `+` to a space, and only `%`
/// with two hex digits is an escape.
#[test]
fn record_ids_with_plus_and_percent_round_trip_through_the_path() {
    let (server, root) = start("ids");
    let addr = server.addr();
    for (id, path) in [("a+b", "a+b"), ("a b", "a%20b"), ("%+5", "%+5")] {
        assert_eq!(put_record(addr, "herp", "key-herp", id).status, Some(201));
        let got = call(
            addr,
            "GET",
            &format!("/v1/herp/records/{path}"),
            "key-herp",
            "",
        );
        assert_eq!(got.status, Some(200), "{id}: {}", got.body);
        assert!(
            got.body.contains(&format!("\"id\":\"{id}\"")),
            "{}",
            got.body
        );
    }
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_damaged_record_answers_500_naming_its_table_and_key() {
    let (server, root) = start("damaged");
    let addr = server.addr();
    assert_eq!(
        put_record(addr, "herp", "key-herp", "OK-1").status,
        Some(201)
    );
    let herp = server.state().manager.peek("herp").unwrap();
    herp.store().put("records", b"BAD-1", b"{not json").unwrap();

    let reply = call(addr, "GET", "/v1/herp/records/BAD-1", "key-herp", "");
    assert_eq!(reply.status, Some(500), "{}", reply.body);
    assert!(reply.body.contains("records/BAD-1"), "{}", reply.body);
    let missing = call(addr, "GET", "/v1/herp/records/NONE-1", "key-herp", "");
    assert_eq!(missing.status, Some(404));
    let fine = call(addr, "GET", "/v1/herp/records/OK-1", "key-herp", "");
    assert_eq!(fine.status, Some(200));

    // Search skips the damaged record and keeps indexing later ones.
    assert_eq!(
        put_record(addr, "herp", "key-herp", "OK-2").status,
        Some(201)
    );
    let hits = call(addr, "GET", "/v1/herp/search?q=faber", "key-herp", "");
    assert_eq!(hits.status, Some(200), "{}", hits.body);
    assert!(hits.body.contains("\"OK-2\""), "{}", hits.body);
    assert!(!hits.body.contains("BAD-1"), "{}", hits.body);
    let facets = call(addr, "GET", "/v1/herp/facets", "key-herp", "");
    assert_eq!(facets.status, Some(200), "{}", facets.body);
    let still = call(addr, "GET", "/v1/herp/records/BAD-1", "key-herp", "");
    assert_eq!(still.status, Some(500), "{}", still.body);
    drop(herp);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&root).ok();
}
