//! A keep-alive HTTP/1.1 client and a change-feed subscriber, speaking
//! just what the preserva server serves.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::ops::{Op, KEY};

/// Requests that take longer than this count as failed.
pub const TIMEOUT: Duration = Duration::from_secs(10);

pub struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(timeout))?;
    s.set_write_timeout(Some(TIMEOUT))?;
    Ok(s)
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let s = connect(addr, TIMEOUT)?;
        Ok(Conn {
            addr,
            writer: s.try_clone()?,
            reader: BufReader::new(s),
        })
    }

    /// One exchange. After an error the connection is replaced, so the
    /// next call starts clean.
    pub fn call(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let out = self.exchange(method, target, body);
        if out.is_err() {
            if let Ok(fresh) = Conn::open(self.addr) {
                *self = fresh;
            }
        }
        out
    }

    pub fn op(&mut self, op: &Op) -> io::Result<(u16, Vec<u8>)> {
        self.call(op.method(), &op.target(), op.body())
    }

    fn exchange(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let mut req = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nAuthorization: Bearer {KEY}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.writer.write_all(&req)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "torn head"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut buf = vec![0u8; len];
        self.reader.read_exact(&mut buf)?;
        Ok((status, buf))
    }
}

/// A live `GET /v1/{tenant}/feed` subscription on its own connection and
/// thread, recording when each event id arrives.
pub struct Feed {
    stop: Arc<AtomicBool>,
    last_seen: Arc<AtomicU64>,
    stream: TcpStream,
    thread: JoinHandle<io::Result<Vec<(u64, Instant)>>>,
}

impl Feed {
    pub fn subscribe(addr: SocketAddr, tenant: &str, cursor: u64) -> io::Result<Feed> {
        let mut stream = connect(addr, Duration::from_millis(500))?;
        write!(
            stream,
            "GET /v1/{tenant}/feed?cursor={cursor} HTTP/1.1\r\nHost: bench\r\nAuthorization: Bearer {KEY}\r\n\r\n"
        )?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        if !line.contains(" 200 ") {
            return Err(io::Error::other(format!("feed refused: {}", line.trim())));
        }
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
                break;
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let last_seen = Arc::new(AtomicU64::new(cursor));
        let thread = {
            let (stop, last_seen) = (stop.clone(), last_seen.clone());
            std::thread::spawn(move || read_events(reader, &stop, &last_seen))
        };
        Ok(Feed {
            stop,
            last_seen,
            stream,
            thread,
        })
    }

    /// Wait (up to [`TIMEOUT`]) until event `last` has arrived, then hang
    /// up and return every `(seq, arrival)` received.
    pub fn finish(self, last: u64) -> io::Result<Vec<(u64, Instant)>> {
        let deadline = Instant::now() + TIMEOUT;
        while self.last_seen.load(Ordering::SeqCst) < last && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(Shutdown::Both);
        self.thread
            .join()
            .map_err(|_| io::Error::other("feed reader panicked"))?
    }
}

fn read_events(
    mut reader: BufReader<TcpStream>,
    stop: &AtomicBool,
    last_seen: &AtomicU64,
) -> io::Result<Vec<(u64, Instant)>> {
    let mut events = Vec::new();
    let mut line = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        // A read timeout only wakes the loop to look at `stop`; bytes
        // already read stay in `line` / `chunk`.
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) if !line.ends_with(b"\n") => continue,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => continue,
            Err(_) if stop.load(Ordering::SeqCst) => break,
            Err(e) => return Err(e),
        }
        let size = std::str::from_utf8(&line)
            .ok()
            .and_then(|l| usize::from_str_radix(l.trim(), 16).ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        line.clear();
        if size == 0 {
            break;
        }
        let mut chunk = vec![0u8; size + 2];
        let mut filled = 0;
        while filled < chunk.len() {
            match reader.read(&mut chunk[filled..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "torn chunk")),
                Ok(n) => filled += n,
                Err(e) if is_timeout(&e) && !stop.load(Ordering::SeqCst) => {}
                Err(e) => return Err(e),
            }
        }
        let arrived = Instant::now();
        for l in String::from_utf8_lossy(&chunk[..size]).lines() {
            if let Some(id) = l.strip_prefix("id: ") {
                let seq: u64 = id
                    .trim()
                    .parse()
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad event id"))?;
                events.push((seq, arrived));
                last_seen.fetch_max(seq, Ordering::SeqCst);
            }
        }
    }
    Ok(events)
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}
