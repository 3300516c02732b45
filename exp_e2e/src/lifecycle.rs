//! The `lifecycle` workload: the paper's §IV case study, in-process
//! through `Collection`, on a fresh directory per repetition.

use std::time::Instant;

use preserva_core::collection::Collection;
use preserva_curation::outdated::OutdatedNameDetector;
use preserva_fnjv::generator::SyntheticCollection;

use crate::layers;
use crate::ops::{probe_stream, Answers, TENANT};
use crate::report::{Dist, Metric, Report};
use crate::setup::{self, err, Counters, Steps, WorkDir};
use crate::trace::Tracer;
use crate::Ctx;

/// Data generations per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Repetitions per run, at least; more while `--seconds` lasts.
const MIN_REPS: usize = 3;

/// One repetition's results.
struct Rep {
    wall_s: f64,
    steps: Steps,
    /// The repetition collection's registry totals.
    counters: Counters,
    runs_max: usize,
    /// Store bytes after step 7 over the final records' JSON bytes.
    space_amp: f64,
}

/// Steps 1–7 on a fresh directory, then the output checks.
fn repetition(
    data: &SyntheticCollection,
    root: &std::path::Path,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Rep, String> {
    let coll = Collection::open(&root.join(TENANT), setup::lifecycle_options()).map_err(err)?;
    report.fingerprint(coll.options().fingerprint());
    let started = Instant::now();
    let steps = setup::run_steps(&coll, data, tracer, true);
    let wall_s = started.elapsed().as_secs_f64();
    for _ in 0..7 {
        report.op(steps.is_ok());
    }
    let steps = steps?;
    let counters = Counters::read(&[coll.metrics_registry()]);
    let runs_max = coll
        .engine()
        .runs_per_level()
        .iter()
        .map(|&(_, r)| r)
        .max()
        .unwrap_or(0);

    let records = coll.catalog().all().map_err(err)?;
    let n = data.config.records;
    report.check(
        "record_count",
        records.len() == n,
        format!("{} records, want {n}", records.len()),
    );
    let full = OutdatedNameDetector::new(&steps.service_to, 3).check_collection(&records);
    let ledger = coll.reassessor().ledger().map_err(err)?.totals();
    report.check(
        "ledger_equals_full_recompute",
        ledger == (full.checked() as f64, full.current as f64),
        format!(
            "ledger {:.0}/{:.0}, full check {}/{}",
            ledger.1,
            ledger.0,
            full.current,
            full.checked()
        ),
    );
    let facets = {
        let snap = coll.store().snapshot();
        coll.search().reader().facets(&snap, None).map_err(err)?
    };
    let bad: Vec<String> = facets
        .iter()
        .filter(|(_, counts)| counts.values().sum::<u64>() != n as u64)
        .map(|(f, counts)| format!("{f}={}", counts.values().sum::<u64>()))
        .collect();
    report.check(
        "facet_totals_equal_records",
        !facets.is_empty() && bad.is_empty(),
        format!("{} facets; off: {bad:?}", facets.len()),
    );
    let lag = coll.search().journal_lag().map_err(err)?;
    report.check("index_lag_zero", lag == 0, format!("lag {lag}"));
    let closed = coll.close();
    report.check(
        "close_zero_pinned_snapshots",
        closed.is_ok(),
        closed.err().map_or(String::new(), |e| e.to_string()),
    );
    drop(coll);
    Ok(Rep {
        wall_s,
        steps,
        counters,
        runs_max,
        space_amp: setup::dir_bytes(&root.join(TENANT)) as f64
            / setup::records_json_bytes(&records),
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let work = WorkDir::new("lifecycle")?;
    let mut report = ctx.report();
    let setup_tracer = Tracer::new(ctx.trace);
    let mut setups = Vec::new();
    let mut data = None;
    for _ in 0..if ctx.trace { 1 } else { SETUPS } {
        let started = Instant::now();
        data = Some(setup::generate(ctx.seed, &setup_tracer));
        setups.push(started.elapsed().as_secs_f64());
    }
    let data = data.ok_or("no set-up ran")?;
    report.push(Metric::quantile("setup_s", "s", &Dist::new(setups), 0.5));

    let off = Tracer::new(false);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < ctx.seconds {
        let root = work.path().join(format!("rep-{}", reps.len()));
        reps.push(repetition(&data, &root, &off, &mut report)?);
        let _ = std::fs::remove_dir_all(&root);
    }

    let wall = Dist::new(reps.iter().map(|r| r.wall_s).collect());
    let reassess = Dist::new(
        reps.iter()
            .map(|r| r.steps.step_s[4] + r.steps.step_s[5])
            .collect(),
    );
    let wall_ms = Dist::new(reps.iter().map(|r| r.wall_s * 1e3).collect());
    report.push(Metric::quantile("lifecycle_s", "s", &wall, 0.5));
    report.push(Metric::quantile("reassess_s", "s", &reassess, 0.5));
    report.push(Metric::quantile(
        "space_amp",
        "ratio",
        &Dist::new(reps.iter().map(|r| r.space_amp).collect()),
        0.5,
    ));
    report.push(Metric {
        name: "ops_per_s".into(),
        unit: "ops/s",
        value: 1.0 / wall.q(0.5),
        samples: reps.len(),
        p25: 1.0 / wall.q(0.75),
        p75: 1.0 / wall.q(0.25),
    });
    report.push(Metric::quantile("op_p50_ms", "ms", &wall_ms, 0.5));
    report.push(Metric::quantile("op_p90_ms", "ms", &wall_ms, 0.9));
    report.push(Metric::mean("op_mean_ms", "ms", &wall_ms));
    for (i, label) in [
        "step1_ingest_s",
        "step2_curate_s",
        "step3_assess_s",
        "step4_catchup_s",
        "step5_reassess_s",
        "step6_maintain_s",
        "step7_compact_s",
    ]
    .iter()
    .enumerate()
    {
        let d = Dist::new(reps.iter().map(|r| r.steps.step_s[i]).collect());
        report.push(Metric::quantile(label, "s", &d, 0.5));
    }
    report.scalar("peak_rss_mb", "MiB", setup::peak_rss_mb());

    if ctx.trace {
        traced(
            ctx,
            &mut report,
            &setup_tracer,
            &data,
            &reps,
            wall.q(0.5),
            work.path(),
        )?;
    }
    Ok(report)
}

/// One more repetition with a span around every public call, then the
/// probe stream replayed against a server over its final store.
fn traced(
    ctx: &Ctx,
    report: &mut Report,
    tracer: &Tracer,
    data: &SyntheticCollection,
    reps: &[Rep],
    untraced_wall_s: f64,
    work: &std::path::Path,
) -> Result<(), String> {
    let last = reps.last().ok_or("no untraced repetition")?;
    layers::from_counters(report, &last.counters, 1, last.runs_max);
    if let Some(g) = tracer.self_times(0).get("fnjv.generate") {
        report.scalar("fnjv.generate_ms", "ms", g.total_ns as f64 / 1e6);
    }

    let root = work.join("rep-traced");
    let mark = tracer.mark();
    let rep = repetition(data, &root, tracer, report)?;
    tracer.span("taxonomy.checklist_diff", || {
        data.checklist.diff(setup::FROM_EDITION, setup::TO_EDITION)
    });
    layers::from_steps(report, tracer, mark, &rep.steps, &rep.counters);
    report.scalar(
        "bench.trace_overhead_pct",
        "%",
        (rep.wall_s / untraced_wall_s - 1.0) * 100.0,
    );
    // The benchmark's own delay between one public call and the next.
    let spans = tracer.since(mark);
    let mut calls: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| {
            s.parent
                .is_some_and(|p| p >= mark && spans[p - mark].name.starts_with("lifecycle.step"))
        })
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    calls.sort_unstable();
    let gaps = Dist::new(
        calls
            .windows(2)
            .map(|w| w[1].0.saturating_sub(w[0].1) as f64 / 1e6)
            .collect(),
    );
    report.push(Metric::quantile(
        "bench.generator_late_p99_ms",
        "ms",
        &gaps,
        0.99,
    ));

    let records = {
        let coll = Collection::open(&root.join(TENANT), setup::lifecycle_options()).map_err(err)?;
        let records = coll.catalog().all().map_err(err)?;
        coll.close().map_err(err)?;
        records
    };
    let answers = Answers::build(records);
    let probe = probe_stream(&answers, ctx.seed);
    layers::replay(report, tracer, &root, work, &probe, answers.records.len())?;
    layers::finish(report, tracer)
}
