//! The three workloads that cross the real server: set-up, the measured
//! traffic, and the checks on what came back.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use preserva_core::collection::{Collection, CollectionOptions};
use preserva_metadata::record::Record;
use preserva_obs::Registry;
use preserva_server::tenants::{Quota, TenantConfig};
use preserva_server::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{Conn, Feed};
use crate::ops::{Answers, Kind, Mix, Op, OpGen, KEY, TENANT};
use crate::report::{throughput, Dist, Metric, Report};
use crate::setup::{self, err, Counters, Steps, WorkDir};
use crate::trace::Tracer;
use crate::{Ctx, Workload};

/// Open-loop arrival rate of `read_mix`: about an eighth of the
/// closed-loop capacity measured on the 2-core reference host (see the
/// README). At half capacity the two connections queued so deeply that
/// open-loop latency varied between runs by more than any usable bound.
/// Never re-derived from the machine at hand.
pub const READ_RATE: f64 = 500.0;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 2;

/// Read ops each set-up sends after the tenant's first open.
const WARMUP_OPS: usize = 200;

/// Ops of each workload's own stream the traced run replays.
fn replay_prefix(w: Workload) -> usize {
    match w {
        Workload::Browse => 12,
        _ => 2000,
    }
}

/// A booted server over a freshly built store.
struct Ready {
    server: Server,
    root: PathBuf,
    steps: Steps,
    answers: Answers,
    /// The set-up collection's registry totals (steps 1–6).
    setup_counters: Counters,
}

pub fn boot(root: &Path) -> Result<Server, String> {
    Server::start(ServerConfig::new("127.0.0.1:0", root).tenant(TenantConfig {
        name: TENANT.into(),
        api_key: KEY.into(),
        quota: Quota::default(),
    }))
    .map_err(err)
}

/// The server's registry and the tenant's, read together.
fn read_counters(server: &Server) -> Counters {
    let mut regs: Vec<Arc<Registry>> = vec![server.state().registry.clone()];
    if let Some(c) = server.state().manager.peek(TENANT) {
        regs.push(c.metrics_registry().clone());
    }
    Counters::read(&regs.iter().collect::<Vec<_>>())
}

/// Send `ops` in order on one connection, counting and checking each.
fn send_all(
    addr: SocketAddr,
    ops: &[Op],
    n_records: usize,
    report: &mut Report,
) -> Result<(), String> {
    let mut conn = Conn::open(addr).map_err(err)?;
    for op in ops {
        let ok = conn
            .op(op)
            .is_ok_and(|(status, body)| op.check(status, &body, n_records, true));
        report.op(ok);
    }
    Ok(())
}

/// Generate, build the store with lifecycle steps 1–6 (server default
/// options), checkpoint it, boot the server, open the tenant, warm up.
fn set_up(ctx: &Ctx, root: PathBuf, tracer: &Tracer, report: &mut Report) -> Result<Ready, String> {
    let data = setup::generate(ctx.seed, tracer);
    let coll = tracer
        .span("core.collection_open", || {
            Collection::open(&root.join(TENANT), CollectionOptions::default())
        })
        .map_err(err)?;
    report.fingerprint(coll.options().fingerprint());
    let steps = setup::run_steps(&coll, &data, tracer, false)?;
    tracer
        .span("storage.checkpoint", || coll.engine().checkpoint())
        .map_err(err)?;
    if tracer.enabled() {
        tracer.span("taxonomy.checklist_diff", || {
            data.checklist.diff(setup::FROM_EDITION, setup::TO_EDITION)
        });
    }
    let setup_counters = Counters::read(&[coll.metrics_registry()]);
    let records = coll.catalog().all().map_err(err)?;
    coll.close().map_err(err)?;
    drop(coll);
    let answers = Answers::build(records);
    let server = boot(&root)?;
    let mut warm = OpGen::new(&answers, Mix::Read, ctx.seed, 7);
    let mut ops = vec![Op::Stats];
    ops.extend(warm.take(WARMUP_OPS));
    ops.push(Op::Stats);
    send_all(server.addr(), &ops, answers.records.len(), report)?;
    Ok(Ready {
        server,
        root,
        steps,
        answers,
        setup_counters,
    })
}

/// Set up `SETUPS` times (once when tracing) on fresh directories and
/// keep the last; `setup_s` is the median.
fn prepare(ctx: &Ctx, work: &Path, tracer: &Tracer, report: &mut Report) -> Result<Ready, String> {
    let n = if ctx.trace { 1 } else { SETUPS };
    let mut times = Vec::new();
    let mut ready: Option<Ready> = None;
    for i in 0..n {
        if let Some(prev) = ready.take() {
            prev.server.shutdown().map_err(err)?;
            let _ = std::fs::remove_dir_all(&prev.root);
        }
        let started = Instant::now();
        ready = Some(set_up(
            ctx,
            work.join(format!("setup-{i}")),
            tracer,
            report,
        )?);
        times.push(started.elapsed().as_secs_f64());
    }
    report.push(Metric::quantile("setup_s", "s", &Dist::new(times), 0.5));
    ready.ok_or_else(|| "no set-up ran".to_string())
}

/// Latency of a failed op: it misses every limit.
fn lat_ms(ok: bool, from: Instant, to: Instant) -> f64 {
    if ok {
        (to - from).as_secs_f64() * 1e3
    } else {
        f64::INFINITY
    }
}

/// What a measured phase hands back to the shared epilogue.
struct Phase {
    ops: u64,
    /// Registry readings right after the measured traffic, before any
    /// verification requests.
    after: Counters,
    /// Bytes of the records' JSON at the end (the user data held).
    user_bytes: f64,
    /// The op stream's first ops, for the traced replay.
    prefix: Vec<Op>,
}

/// One op as sent. Replies are checked after the phase, so checking
/// takes no client CPU away from the server while it is measured.
struct Sent {
    op: Op,
    reply: Option<(u16, Vec<u8>)>,
    /// Completion minus the time the op was due (open loop) or sent.
    lat_ms: f64,
    /// Delay the generator added before sending.
    late_ms: f64,
    /// Completion, in seconds from the start of the phase.
    done_s: f64,
}

struct Sample {
    kind: Kind,
    lat_ms: f64,
    late_ms: f64,
    done_s: f64,
    ok: bool,
}

fn check_all(sent: Vec<Sent>, n: usize, report: &mut Report) -> Vec<Sample> {
    sent.into_iter()
        .map(|s| {
            let ok = s
                .reply
                .is_some_and(|(status, body)| s.op.check(status, &body, n, true));
            report.op(ok);
            Sample {
                kind: s.op.kind(),
                lat_ms: if ok { s.lat_ms } else { f64::INFINITY },
                late_ms: s.late_ms,
                done_s: s.done_s,
                ok,
            }
        })
        .collect()
}

fn join_all<'s>(
    handles: Vec<std::thread::ScopedJoinHandle<'s, Result<Vec<Sent>, String>>>,
) -> Result<Vec<Sent>, String> {
    let mut all = Vec::new();
    for h in handles {
        all.extend(
            h.join()
                .map_err(|_| "client thread panicked".to_string())??,
        );
    }
    Ok(all)
}

/// `threads` clients, each sending its next op when the last returns.
fn closed_loop(
    addr: SocketAddr,
    gen: &Mutex<OpGen<'_>>,
    seconds: f64,
    threads: usize,
) -> Result<Vec<Sent>, String> {
    let start = Instant::now();
    let run = || -> Result<Vec<Sent>, String> {
        let mut conn = Conn::open(addr).map_err(err)?;
        let mut out = Vec::new();
        let mut last = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let op = gen.lock().expect("op stream poisoned").next_op();
            let sent = Instant::now();
            let reply = conn.op(&op).ok();
            let done = Instant::now();
            out.push(Sent {
                op,
                reply,
                lat_ms: (done - sent).as_secs_f64() * 1e3,
                late_ms: (sent - last).as_secs_f64() * 1e3,
                done_s: (done - start).as_secs_f64(),
            });
            last = done;
        }
        Ok(out)
    };
    std::thread::scope(|s| join_all((0..threads).map(|_| s.spawn(run)).collect()))
}

/// Poisson arrivals at `rate` over two connections; each op's latency
/// runs from the time it was due, so a stall also charges the ops queued
/// behind it.
fn open_loop(
    addr: SocketAddr,
    gen: &Mutex<OpGen<'_>>,
    seconds: f64,
    rate: f64,
    seed: u64,
) -> Result<Vec<Sent>, String> {
    let schedule = Mutex::new((StdRng::seed_from_u64(seed ^ 0xA77), 0.0f64));
    let start = Instant::now() + Duration::from_millis(5);
    let run = || -> Result<Vec<Sent>, String> {
        let mut conn = Conn::open(addr).map_err(err)?;
        let mut out = Vec::new();
        loop {
            let (op, due) = {
                let mut s = schedule.lock().expect("schedule poisoned");
                if s.1 >= seconds {
                    break;
                }
                let due = s.1;
                let u: f64 = s.0.gen::<f64>();
                s.1 += -(1.0 - u).ln() / rate;
                (gen.lock().expect("op stream poisoned").next_op(), due)
            };
            let due_at = start + Duration::from_secs_f64(due);
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let sent = Instant::now();
            let reply = conn.op(&op).ok();
            let done = Instant::now();
            out.push(Sent {
                op,
                reply,
                lat_ms: done.saturating_duration_since(due_at).as_secs_f64() * 1e3,
                late_ms: sent.saturating_duration_since(due_at).as_secs_f64() * 1e3,
                done_s: done.saturating_duration_since(start).as_secs_f64(),
            });
        }
        Ok(out)
    };
    std::thread::scope(|s| join_all(vec![s.spawn(run), s.spawn(run)]))
}

fn latencies(samples: &[Sample], keep: impl Fn(Kind) -> bool) -> Dist {
    Dist::new(
        samples
            .iter()
            .filter(|s| keep(s.kind))
            .map(|s| s.lat_ms)
            .collect(),
    )
}

fn completions(samples: &[Sample]) -> Vec<f64> {
    samples.iter().filter(|s| s.ok).map(|s| s.done_s).collect()
}

fn read_mix(ctx: &Ctx, ready: &Ready, report: &mut Report) -> Result<Phase, String> {
    let a = &ready.answers;
    let n = a.records.len();
    let addr = ready.server.addr();
    let gen = Mutex::new(OpGen::new(a, Mix::Read, ctx.seed, 1));
    let open_s = ctx.seconds * 2.0 / 3.0;
    let closed_s = ctx.seconds / 3.0;
    let open = open_loop(addr, &gen, open_s, READ_RATE, ctx.seed)?;
    let closed = closed_loop(addr, &gen, closed_s, 2)?;
    let after = read_counters(&ready.server);
    let open = check_all(open, n, report);
    let closed = check_all(closed, n, report);

    let all = latencies(&open, |_| true);
    report.push(Metric::quantile("read_p50_ms", "ms", &all, 0.5));
    report.push(Metric::quantile("read_p99_ms", "ms", &all, 0.99));
    let capacity = throughput("read_capacity_ops_per_s", &completions(&closed), closed_s);
    report.push(capacity.renamed("ops_per_s"));
    report.push(capacity);
    report.push(Metric::quantile("op_p50_ms", "ms", &all, 0.5));
    report.push(Metric::quantile("op_p90_ms", "ms", &all, 0.9));
    report.push(Metric::mean("op_mean_ms", "ms", &all));
    for kind in [Kind::Get, Kind::Search, Kind::Fuzzy, Kind::Facets] {
        let d = latencies(&open, |k| k == kind);
        report.push(Metric::quantile(
            &format!("read_{}_p50_ms", kind.name()),
            "ms",
            &d,
            0.5,
        ));
    }
    let late = Dist::new(open.iter().map(|s| s.late_ms).collect());
    report.push(Metric::quantile(
        "bench.generator_late_p99_ms",
        "ms",
        &late,
        0.99,
    ));
    report.scalar("read_rate_ops_per_s", "ops/s", READ_RATE);
    Ok(Phase {
        ops: (open.len() + closed.len()) as u64,
        after,
        user_bytes: setup::records_json_bytes(&a.records),
        prefix: OpGen::new(a, Mix::Read, ctx.seed, 1).take(replay_prefix(ctx.workload)),
    })
}

fn browse(ctx: &Ctx, ready: &Ready, report: &mut Report) -> Result<Phase, String> {
    let a = &ready.answers;
    let gen = Mutex::new(OpGen::new(a, Mix::Browse, ctx.seed, 2));
    let samples = closed_loop(ready.server.addr(), &gen, ctx.seconds, 2)?;
    let after = read_counters(&ready.server);
    let samples = check_all(samples, a.records.len(), report);
    let lat = latencies(&samples, |_| true);
    let ops = throughput("browse_ops_per_s", &completions(&samples), ctx.seconds);
    report.push(ops.renamed("ops_per_s"));
    report.push(ops);
    report.push(Metric::quantile("browse_p50_ms", "ms", &lat, 0.5));
    report.push(Metric::quantile("op_p50_ms", "ms", &lat, 0.5));
    report.push(Metric::quantile("op_p90_ms", "ms", &lat, 0.9));
    report.push(Metric::mean("op_mean_ms", "ms", &lat));
    let turnaround = Dist::new(samples.iter().map(|s| s.late_ms).collect());
    report.push(Metric::quantile(
        "bench.generator_late_p99_ms",
        "ms",
        &turnaround,
        0.99,
    ));
    Ok(Phase {
        ops: samples.len() as u64,
        after,
        user_bytes: setup::records_json_bytes(&a.records),
        prefix: OpGen::new(a, Mix::Browse, ctx.seed, 2).take(replay_prefix(ctx.workload)),
    })
}

#[derive(serde::Deserialize)]
struct GetReply {
    record: Record,
}

fn write_mix(ctx: &Ctx, ready: &Ready, report: &mut Report) -> Result<Phase, String> {
    let a = &ready.answers;
    let n = a.records.len();
    let addr = ready.server.addr();
    let mut conn = Conn::open(addr).map_err(err)?;
    let (status, body) = conn.call("GET", &Op::Stats.target(), &[]).map_err(err)?;
    let head = serde_json::from_slice::<serde_json::Value>(&body)
        .ok()
        .and_then(|v| v["journal_head"].as_u64())
        .filter(|_| status == 200)
        .ok_or("stats did not report a journal head")?;
    report.op(true);
    let feed = Feed::subscribe(addr, TENANT, head).map_err(err)?;

    let mut gen = OpGen::new(a, Mix::Write, ctx.seed, 3);
    // (sent, last_seq) of every acknowledged PUT.
    let mut puts: Vec<(Instant, u64, u64)> = Vec::new();
    let mut put_ms = Vec::new();
    let mut fresh_ms = Vec::new();
    let mut done_s = Vec::new();
    let mut late_ms = Vec::new();
    let start = Instant::now();
    let mut last = start;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let op = gen.next_op();
        let sent = Instant::now();
        let reply = conn.op(&op);
        let done = Instant::now();
        let ok = reply
            .as_ref()
            .is_ok_and(|(status, body)| op.check(*status, body, n, true));
        report.op(ok);
        late_ms.push((sent - last).as_secs_f64() * 1e3);
        last = done;
        if ok {
            done_s.push((done - start).as_secs_f64());
        }
        match op.kind() {
            Kind::Put => {
                put_ms.push(lat_ms(ok, sent, done));
                let seqs = reply.ok().and_then(|(_, body)| {
                    let v: serde_json::Value = serde_json::from_slice(&body).ok()?;
                    Some((v["first_seq"].as_u64()?, v["last_seq"].as_u64()?))
                });
                if let (true, Some((first, last_seq))) = (ok, seqs) {
                    puts.push((sent, first, last_seq));
                }
            }
            _ => fresh_ms.push(lat_ms(ok, sent, done)),
        }
    }
    let ops = late_ms.len() as u64;
    let last_seq = puts.last().map_or(head, |p| p.2);
    let events = feed.finish(last_seq).map_err(err)?;
    let after = read_counters(&ready.server);

    let expected: Vec<u64> = puts.iter().flat_map(|p| p.1..=p.2).collect();
    let got: Vec<u64> = events.iter().map(|e| e.0).collect();
    report.check(
        "feed_every_put_once_in_order",
        got == expected,
        format!("{} events for {} PUT seqs", got.len(), expected.len()),
    );
    let arrival: BTreeMap<u64, Instant> = events.iter().copied().collect();
    let lag = Dist::new(
        puts.iter()
            .map(|(sent, _, last)| {
                arrival
                    .get(last)
                    .map_or(f64::INFINITY, |t| (*t - *sent).as_secs_f64() * 1e3)
            })
            .collect(),
    );

    let mut stale = 0usize;
    for &idx in &gen.touched {
        let want = &gen.current[idx];
        let ok = conn
            .call(
                "GET",
                &Op::Get {
                    id: want.id.clone(),
                }
                .target(),
                &[],
            )
            .ok()
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, body)| serde_json::from_slice::<GetReply>(&body).ok())
            .is_some_and(|r| r.record == *want);
        report.op(ok);
        stale += usize::from(!ok);
    }
    report.check(
        "final_get_returns_last_write",
        stale == 0,
        format!("{stale} of {} touched ids differ", gen.touched.len()),
    );

    let put = Dist::new(put_ms);
    let fresh = Dist::new(fresh_ms);
    let writes = throughput("write_ops_per_s", &done_s, ctx.seconds);
    report.push(writes.renamed("ops_per_s"));
    report.push(writes);
    report.push(Metric::quantile("put_p50_ms", "ms", &put, 0.5));
    report.push(Metric::quantile("put_p99_ms", "ms", &put, 0.99));
    report.push(Metric::quantile("op_p50_ms", "ms", &put, 0.5));
    report.push(Metric::quantile("op_p90_ms", "ms", &put, 0.9));
    report.push(Metric::mean("op_mean_ms", "ms", &put));
    report.push(Metric::quantile("fresh_search_p99_ms", "ms", &fresh, 0.99));
    report.push(Metric::quantile("feed_lag_p99_ms", "ms", &lag, 0.99));
    report.push(Metric::quantile(
        "bench.generator_late_p99_ms",
        "ms",
        &Dist::new(late_ms),
        0.99,
    ));
    report.scalar("puts", "count", puts.len() as f64);
    Ok(Phase {
        ops,
        after,
        user_bytes: setup::records_json_bytes(&gen.current),
        prefix: OpGen::new(a, Mix::Write, ctx.seed, 3).take(replay_prefix(ctx.workload)),
    })
}

/// Run one server workload: set-up, measured traffic, shutdown, space,
/// and (with `--trace 1`) the traced replays.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let work = WorkDir::new(ctx.workload.name())?;
    let tracer = Tracer::new(ctx.trace);
    let mut report = ctx.report();
    let ready = prepare(ctx, work.path(), &tracer, &mut report)?;

    let before = read_counters(&ready.server);
    let phase = match ctx.workload {
        Workload::ReadMix => read_mix(ctx, &ready, &mut report)?,
        Workload::Browse => browse(ctx, &ready, &mut report)?,
        Workload::WriteMix => write_mix(ctx, &ready, &mut report)?,
        Workload::Lifecycle => return Err("lifecycle is not a server workload".into()),
    };
    let delta = phase.after.since(&before);
    let runs_max = ready.server.state().manager.peek(TENANT).map_or(0, |c| {
        c.engine()
            .runs_per_level()
            .iter()
            .map(|&(_, r)| r)
            .max()
            .unwrap_or(0)
    });

    let Ready {
        server,
        root,
        steps,
        answers,
        setup_counters,
    } = ready;
    let closed = server.shutdown();
    report.check(
        "shutdown_zero_pinned_snapshots",
        closed.is_ok(),
        closed.err().map_or(String::new(), |e| e.to_string()),
    );
    report.scalar("peak_rss_mb", "MiB", setup::peak_rss_mb());
    let tenant = root.join(TENANT);
    report.scalar(
        "space_amp_end",
        "ratio",
        setup::dir_bytes(&tenant) as f64 / phase.user_bytes,
    );

    if ctx.trace {
        crate::layers::from_counters(&mut report, &delta, phase.ops, runs_max);
        crate::layers::from_steps(&mut report, &tracer, 0, &steps, &setup_counters);
        let probe = crate::ops::probe_stream(&answers, ctx.seed);
        let ops: Vec<Op> = phase.prefix.into_iter().chain(probe).collect();
        crate::layers::replay(
            &mut report,
            &tracer,
            &root,
            work.path(),
            &ops,
            answers.records.len(),
        )?;
        crate::layers::finish(&mut report, &tracer)?;
    }

    // `space_amp_end` is the store as the run left it (WAL and runs in
    // flight); `space_amp` is after one full compaction, the steady
    // footprint, which does not depend on where the last flush fell.
    let coll = Collection::open(&tenant, CollectionOptions::default()).map_err(err)?;
    coll.engine().checkpoint().map_err(err)?;
    coll.engine().compact().map_err(err)?;
    coll.close().map_err(err)?;
    drop(coll);
    let store_bytes = setup::dir_bytes(&tenant) as f64;
    report.scalar("space_amp", "ratio", store_bytes / phase.user_bytes);
    report.scalar("store_mib", "MiB", store_bytes / (1024.0 * 1024.0));
    report.scalar(
        "records_json_mib",
        "MiB",
        phase.user_bytes / (1024.0 * 1024.0),
    );
    Ok(report)
}
