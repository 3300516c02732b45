//! `exp_e2e`: the FNJV archive-lifecycle and serving benchmark.
//!
//! Four workloads over the paper-scale FNJV collection (11,898 records,
//! 1,929 names, 134 outdated), generated from `--seed`:
//!
//! * `lifecycle` — ingest, curate, assess, index, swap the checklist
//!   edition, reassess and compact, in-process through `Collection`;
//! * `read_mix` — open-loop GET / search / fuzzy / facets over HTTP;
//! * `browse` — closed-loop filtered listings and stats over HTTP;
//! * `write_mix` — one PUT writer with fresh-index searches and a live
//!   change-feed subscriber.
//!
//! `--workload W` runs one workload in this process and ends with one
//! JSON summary line. Without it, every workload runs in a child process
//! of its own (so peak memory and caches stay apart); `--repeat N` runs
//! the set N times, alternating the order, and reports each metric's
//! median and spread against the bounds in `BENCHMARK.json`.

mod client;
mod layers;
mod lifecycle;
mod ops;
mod report;
mod serve;
mod setup;
mod trace;

use std::process::{Command, Stdio};

use serde_json::Value;

use report::{fmt_num, median_iqr, Report};

const USAGE: &str = "usage: exp_e2e [--workload lifecycle|read_mix|browse|write_mix] \
[--seed N] [--seconds S] [--trace 0|1] [--repeat N]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Lifecycle,
    ReadMix,
    Browse,
    WriteMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Lifecycle,
        Workload::ReadMix,
        Workload::Browse,
        Workload::WriteMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lifecycle => "lifecycle",
            Workload::ReadMix => "read_mix",
            Workload::Browse => "browse",
            Workload::WriteMix => "write_mix",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One workload run's settings.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    pub fn report(&self) -> Report {
        Report {
            workload: self.workload.name(),
            seed: self.seed,
            seconds: self.seconds as u64,
            trace: self.trace,
            ..Report::default()
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 8,
        trace: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds wants an integer")?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|_| "--repeat wants an integer")?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exp_e2e: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.workload {
        Some(w) => run_one(&Ctx {
            workload: w,
            seed: args.seed,
            seconds: args.seconds as f64,
            trace: args.trace,
        }),
        None => orchestrate(&args),
    };
    std::process::exit(code);
}

/// Run one workload here; exit 0 only if every op and check passed.
fn run_one(ctx: &Ctx) -> i32 {
    let result = match ctx.workload {
        Workload::Lifecycle => lifecycle::run(ctx),
        _ => serve::run(ctx),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("exp_e2e {}: {e}", ctx.workload.name());
            return 1;
        }
    };
    report.scalar(
        "error_rate",
        "ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.print_table();
    println!("{}", report.full_json());
    match report.summary_line() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("exp_e2e {}: {e}", ctx.workload.name());
            return 1;
        }
    }
    if report.correct() {
        0
    } else {
        1
    }
}

/// Bounds from `BENCHMARK.json` in the working directory, if present.
fn bounds() -> Vec<(String, f64)> {
    std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok())
        .and_then(|v| v["end_to_end"].as_array().cloned())
        .into_iter()
        .flatten()
        .filter_map(|m| Some((m["name"].as_str()?.to_string(), m["bound"].as_f64()?)))
        .collect()
}

/// Each workload in a child process; `--repeat` times with alternating
/// order and seeds `seed, seed+1, …`.
fn orchestrate(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("exp_e2e: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut ok = true;
    let mut runs: Vec<(Workload, Value)> = Vec::new();
    for r in 0..args.repeat {
        let mut order = Workload::ALL.to_vec();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = args.seed + r as u64;
            let started = std::time::Instant::now();
            let out = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("exp_e2e: cannot run {}: {e}", w.name());
                    ok = false;
                    continue;
                }
            };
            ok &= out.status.success();
            eprintln!(
                "exp_e2e: {} seed {seed} exited {} after {:.1} s",
                w.name(),
                out.status,
                started.elapsed().as_secs_f64()
            );
            let text = String::from_utf8_lossy(&out.stdout);
            for line in text.lines() {
                match serde_json::from_str::<Value>(line) {
                    Ok(v) if v["schema"].is_string() => runs.push((w, v)),
                    Ok(_) => {}
                    Err(_) => println!("{line}"),
                }
            }
        }
    }
    if args.repeat > 1 {
        summarize(&runs);
    }
    if ok {
        0
    } else {
        1
    }
}

/// Median and IQR of every metric across repeats, and the end-to-end
/// metrics whose spread exceeds their bound.
fn summarize(runs: &[(Workload, Value)]) {
    let bounds = bounds();
    let mut over = Vec::new();
    println!("== repeat summary (median, IQR, IQR/median) ==");
    for w in Workload::ALL {
        let mine: Vec<Value> = runs
            .iter()
            .filter(|(x, _)| *x == w)
            .map(|(_, v)| v.clone())
            .collect();
        for (name, (unit, values)) in report::collect(&mine) {
            let (median, iqr) = median_iqr(&values);
            let spread = if median != 0.0 {
                iqr / median.abs()
            } else {
                0.0
            };
            println!(
                "  {:<10} {:<36} {:>12} {:<6} iqr {:>10} ({:.3}) n={}",
                w.name(),
                name,
                fmt_num(median),
                unit,
                fmt_num(iqr),
                spread,
                values.len()
            );
            if let Some((_, bound)) = bounds.iter().find(|(b, _)| *b == name) {
                if name != "setup_s" && spread > *bound {
                    over.push(format!(
                        "{}/{name}: spread {spread:.3} > bound {bound}",
                        w.name()
                    ));
                }
            }
        }
    }
    if over.is_empty() {
        println!("every end-to-end spread is within its bound");
    } else {
        for o in over {
            println!("OUTSIDE BOUND {o}");
        }
    }
}
