//! Inputs and shared machinery: the generated FNJV collection, the
//! paper's lifecycle steps over a `Collection`, host facts, directories,
//! and registry deltas.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use preserva_core::collection::{Collection, CollectionOptions, MaintenanceReport};
use preserva_core::reassess::ReassessOutcome;
use preserva_curation::history::HistoryStore;
use preserva_curation::log::CurationLog;
use preserva_curation::outdated::OutdatedNameDetector;
use preserva_curation::pipeline::{CurationPipeline, PipelineSummary};
use preserva_curation::review::ReviewQueue;
use preserva_fnjv::config::GeneratorConfig;
use preserva_fnjv::generator::{self, SyntheticCollection};
use preserva_metadata::record::Record;
use preserva_obs::Registry;
use preserva_taxonomy::service::{ColService, ServiceConfig};
use serde_json::{json, Value};

use crate::trace::Tracer;

/// Checklist edition the collection is ingested against, and the one
/// the lifecycle swaps to (the paper's 1995 → 2013 Catalogue of Life).
pub const FROM_EDITION: i32 = 1995;
pub const TO_EDITION: i32 = 2013;

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The FNJV collection at paper scale (11,898 records, 1,929 names, 134
/// outdated), generated from the seed.
pub fn generate(seed: u64, tracer: &Tracer) -> SyntheticCollection {
    let config = GeneratorConfig {
        seed,
        ..GeneratorConfig::default()
    };
    tracer.span("fnjv.generate", || generator::generate(&config))
}

/// A Catalogue-of-Life service pinned to one edition. Always available,
/// so a name check is a pure function of the edition.
pub fn service(data: &SyntheticCollection, year: i32) -> ColService {
    ColService::new(
        data.checklist.as_of(year),
        ServiceConfig {
            availability: 1.0,
            seed: data.config.seed ^ 0xC01,
            ..ServiceConfig::default()
        },
    )
}

/// What the lifecycle steps did, and how long each took.
pub struct Steps {
    /// Wall seconds of steps 1–7 (0 for steps not run).
    pub step_s: [f64; 7],
    pub stage1: PipelineSummary,
    pub catchup: MaintenanceReport,
    pub names_changed: usize,
    pub reassess: ReassessOutcome,
    /// The 2013-edition service, kept as the oracle for output checks.
    pub service_to: ColService,
}

fn step<R>(
    tracer: &Tracer,
    name: &'static str,
    secs: &mut f64,
    f: impl FnOnce() -> Result<R, String>,
) -> Result<R, String> {
    let started = Instant::now();
    let out = tracer.span(name, f);
    *secs = started.elapsed().as_secs_f64();
    out
}

/// The paper's §IV lifecycle over `coll`: steps 1–6, and step 7 when
/// `compact` is set. Every public call sits in its own span, inside one
/// span per step.
pub fn run_steps(
    coll: &Collection,
    data: &SyntheticCollection,
    tracer: &Tracer,
    compact: bool,
) -> Result<Steps, String> {
    let mut s = [0.0; 7];
    let catalog = coll.catalog();
    let reassessor = coll.reassessor();

    step(tracer, "lifecycle.step1_ingest", &mut s[0], || {
        tracer
            .span("core.insert_all_bulk", || {
                catalog.insert_all_bulk(&data.records)
            })
            .map_err(err)
    })?;

    let (pipeline, curated, stage1) = step(tracer, "lifecycle.step2_curate", &mut s[1], || {
        let stored = tracer
            .span("core.catalog_all", || catalog.all())
            .map_err(err)?;
        let pipeline = tracer.span("curation.pipeline_new", || {
            CurationPipeline::stage1(data.gazetteer.clone(), preserva_metadata::fnjv::schema())
        });
        let mut log = CurationLog::new();
        let mut queue = ReviewQueue::new();
        let (curated, summary) = tracer.span("curation.stage1", || {
            pipeline.run(&stored, &mut log, &mut queue)
        });
        tracer
            .span("core.insert_all", || catalog.insert_all(&curated))
            .map_err(err)?;
        tracer
            .span("curation.history_persist", || {
                HistoryStore::new(coll.store()).persist(&log)
            })
            .map_err(err)?;
        Ok((pipeline, curated, summary))
    })?;

    step(tracer, "lifecycle.step3_assess", &mut s[2], || {
        let svc = tracer.span("taxonomy.service_new", || service(data, FROM_EDITION));
        let report = tracer.span("curation.name_check", || {
            OutdatedNameDetector::new(&svc, 3).check_collection(&curated)
        });
        tracer
            .span("core.reassess_seed", || reassessor.seed(&report))
            .map_err(err)
    })?;
    drop(curated);

    let catchup = step(tracer, "lifecycle.step4_catchup", &mut s[3], || {
        tracer
            .span("core.maintain", || coll.maintain())
            .map_err(err)
    })?;

    let (names_changed, reassess, service_to) =
        step(tracer, "lifecycle.step5_reassess", &mut s[4], || {
            let (diff, _) = tracer
                .span("core.swap_backbone", || {
                    reassessor.swap_backbone(&data.checklist, FROM_EDITION, TO_EDITION)
                })
                .map_err(err)?;
            let svc = tracer.span("taxonomy.service_new", || service(data, TO_EDITION));
            let mut log = CurationLog::new();
            let mut queue = ReviewQueue::new();
            let outcome = tracer
                .span("core.reassess_run", || {
                    reassessor.run_at(
                        &pipeline,
                        &svc,
                        Some(coll.provenance().as_ref()),
                        None,
                        None,
                        &mut log,
                        &mut queue,
                    )
                })
                .map_err(err)?;
            Ok((diff.len(), outcome, svc))
        })?;

    step(tracer, "lifecycle.step6_maintain", &mut s[5], || {
        tracer
            .span("core.maintain", || coll.maintain())
            .map_err(err)
    })?;

    if compact {
        step(tracer, "lifecycle.step7_compact", &mut s[6], || {
            tracer
                .span("storage.checkpoint", || coll.engine().checkpoint())
                .map_err(err)?;
            tracer
                .span("storage.compact", || coll.engine().compact())
                .map_err(err)
        })?;
    }

    Ok(Steps {
        step_s: s,
        stage1,
        catchup,
        names_changed,
        reassess,
        service_to,
    })
}

/// Options the lifecycle opens its collection with: the server default
/// plus `fsync`, so every commit in the case study is durable.
pub fn lifecycle_options() -> CollectionOptions {
    CollectionOptions {
        fsync: true,
        ..CollectionOptions::default()
    }
}

/// Root under which a run keeps its stores and trace files:
/// `$CARGO_TARGET_DIR/exp_e2e`, or `target/exp_e2e`.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("exp_e2e")
}

/// A working directory, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = out_dir().join(format!("work-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(err)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Recursive copy, for the throwaway stores the traced replays write to.
pub fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for e in std::fs::read_dir(src)? {
        let e = e?;
        let to = dst.join(e.file_name());
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &to)?;
        } else {
            std::fs::copy(e.path(), to)?;
        }
    }
    Ok(())
}

/// Bytes of the records as one JSON array: the user data a store holds.
pub fn records_json_bytes(records: &[Record]) -> f64 {
    serde_json::to_vec(records).map_or(0, |v| v.len()) as f64
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn host_info() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    json!({
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "kernel": kernel,
        "cpu": cpu,
    })
}

/// `git rev-parse HEAD`, or `"unknown"` outside a git checkout. Git
/// looks for the repository in the working directory only, never in
/// the directories above it.
pub fn git_sha() -> String {
    static SHA: OnceLock<String> = OnceLock::new();
    SHA.get_or_init(|| {
        let cwd = std::env::current_dir().unwrap_or_default();
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    })
    .clone()
}

/// Counter values and histogram buckets read from registries, so a phase
/// can be measured as the difference of two snapshots.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    values: std::collections::BTreeMap<&'static str, f64>,
    hists: std::collections::BTreeMap<&'static str, (Vec<f64>, Vec<u64>, f64)>,
}

const COUNTERS: &[&str] = &[
    "preserva_storage_commits_total",
    "preserva_storage_wal_fsyncs_total",
    "preserva_storage_checkpoints_total",
    "preserva_storage_compactions_total",
    "preserva_storage_value_bytes_read_total",
    "preserva_storage_bloom_hits_total",
    "preserva_storage_bloom_misses_total",
    "preserva_server_requests_total",
    "preserva_server_feed_events_total",
];

const LATENCY_HISTS: &[&str] = &[
    "preserva_storage_commit_seconds",
    "preserva_search_run_seconds",
    "preserva_prov_index_refresh_seconds",
];

const SIZE_HISTS: &[&str] = &[
    "preserva_storage_compaction_bytes",
    "preserva_provenance_graph_bytes",
];

impl Counters {
    /// Read every tracked family from `registries` (summed across them;
    /// the families of the server and a tenant are disjoint).
    pub fn read(registries: &[&Arc<Registry>]) -> Counters {
        let mut c = Counters::default();
        for reg in registries {
            for name in COUNTERS {
                *c.values.entry(name).or_default() += reg.counter(name, "").get() as f64;
            }
            let hists = LATENCY_HISTS
                .iter()
                .map(|n| (*n, reg.latency_histogram(n, "")))
                .chain(SIZE_HISTS.iter().map(|n| (*n, reg.size_histogram(n, ""))));
            for (name, h) in hists {
                let e = c
                    .hists
                    .entry(name)
                    .or_insert_with(|| (h.bounds().to_vec(), vec![0; h.bounds().len() + 1], 0.0));
                for (acc, n) in e.1.iter_mut().zip(h.bucket_counts()) {
                    *acc += n;
                }
                e.2 += h.sum();
            }
        }
        c
    }

    /// `self − earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut out = self.clone();
        for (k, v) in out.values.iter_mut() {
            *v -= earlier.values.get(k).copied().unwrap_or(0.0);
        }
        for (k, (_, counts, sum)) in out.hists.iter_mut() {
            if let Some((_, before, before_sum)) = earlier.hists.get(k) {
                for (c, b) in counts.iter_mut().zip(before) {
                    *c -= b;
                }
                *sum -= before_sum;
            }
        }
        out
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.2)
    }

    pub fn hist_count(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |h| h.1.iter().sum())
    }

    /// Bucket-interpolated quantile, the way `preserva_obs` computes it.
    pub fn hist_quantile(&self, name: &str, q: f64) -> f64 {
        let Some((bounds, counts, _)) = self.hists.get(name) else {
            return 0.0;
        };
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, &c) in counts.iter().enumerate() {
            let prev = cum;
            cum += c;
            if cum >= rank {
                let Some(&upper) = bounds.get(i) else {
                    return *bounds.last().unwrap_or(&0.0);
                };
                let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
                return lower + (upper - lower) * (rank - prev) as f64 / c.max(1) as f64;
            }
        }
        0.0
    }
}
