//! Sample statistics, the shared result schema, and the three outputs a
//! run prints: a human table, one full-schema JSON line, and the final
//! summary line whose metric set is fixed by `BENCHMARK.json`.

use std::collections::BTreeMap;

use serde_json::{json, Value};

/// End-to-end metrics every workload reports (`BENCHMARK.json`
/// `end_to_end`), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("space_amp", "ratio"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics every traced run reports (`BENCHMARK.json`
/// `per_layer`), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.http_rtt_us", "us"),
    ("server.admit_us", "us"),
    ("server.route_get_us", "us"),
    ("server.route_search_us", "us"),
    ("server.route_fuzzy_us", "us"),
    ("server.route_facets_us", "us"),
    ("server.route_scan_us", "us"),
    ("server.route_stats_us", "us"),
    ("server.route_put_us", "us"),
    ("server.unattributed_pct", "%"),
    ("server.feed_events_per_put", "ratio"),
    ("server.requests", "count"),
    ("storage.snapshot_us", "us"),
    ("storage.get_us", "us"),
    ("storage.scan_ms", "ms"),
    ("storage.value_bytes_read_per_op", "bytes"),
    ("storage.bloom_skip_ratio", "ratio"),
    ("storage.commits", "count"),
    ("storage.wal_fsyncs", "count"),
    ("storage.commit_p99_us", "us"),
    ("storage.checkpoints", "count"),
    ("storage.compactions", "count"),
    ("storage.compaction_mb", "MiB"),
    ("storage.runs_max_per_level", "count"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.compact_ms", "ms"),
    ("metadata.decode_record_us", "us"),
    ("metadata.encode_record_us", "us"),
    ("core.insert_all_bulk_ms", "ms"),
    ("core.insert_all_ms", "ms"),
    ("core.reassess_seed_ms", "ms"),
    ("core.prov_index_refresh_ms", "ms"),
    ("core.maintain_ms", "ms"),
    ("core.catalog_insert_us", "us"),
    ("core.catalog_all_at_ms", "ms"),
    ("core.swap_backbone_ms", "ms"),
    ("core.reassess_run_ms", "ms"),
    ("core.reassess_records_reprocessed", "count"),
    ("core.reassess_names_rechecked", "count"),
    ("core.reassess_work_ratio", "ratio"),
    ("core.prov_graph_bytes", "bytes"),
    ("search.catchup_ms", "ms"),
    ("search.entries_consumed", "count"),
    ("search.docs_indexed", "count"),
    ("search.docs_per_entry", "ratio"),
    ("search.run_inline_p99_us", "us"),
    ("search.indexer_run_us", "us"),
    ("search.query_us", "us"),
    ("search.query_hits_mean", "count"),
    ("search.fuzzy_us", "us"),
    ("search.fuzzy_candidates_mean", "count"),
    ("search.facets_us", "us"),
    ("search.cursor_at_us", "us"),
    ("curation.stage1_ms", "ms"),
    ("curation.history_persist_ms", "ms"),
    ("curation.name_check_ms", "ms"),
    ("curation.records_changed", "count"),
    ("curation.field_fixes", "count"),
    ("taxonomy.checklist_diff_ms", "ms"),
    ("taxonomy.names_changed", "count"),
    ("fnjv.generate_ms", "ms"),
    ("bench.generator_late_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.lifecycle_unattributed_pct", "%"),
];

/// Linear-interpolated quantile of an ascending slice (`q` in [0, 1]).
/// Failed operations enter as `+inf`, so any quantile that reaches one
/// reads as infinite.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi || sorted[lo] == sorted[hi] {
                sorted[lo]
            } else {
                sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
            }
        }
    }
}

/// An ascending sample set.
#[derive(Debug, Clone, Default)]
pub struct Dist(Vec<f64>);

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist(samples)
    }

    pub fn q(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len().max(1) as f64
    }
}

/// One named result: `{name, unit, value, samples, p25, p75}`.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub p25: f64,
    pub p75: f64,
}

impl Metric {
    /// A single measured number (a count, a ratio, a total).
    pub fn scalar(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: 1,
            p25: value,
            p75: value,
        }
    }

    /// Quantile `q` of a distribution, with the distribution's quartiles
    /// as its spread.
    pub fn quantile(name: &str, unit: &'static str, dist: &Dist, q: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: dist.q(q),
            samples: dist.len(),
            p25: dist.q(0.25),
            p75: dist.q(0.75),
        }
    }

    /// Mean of a distribution (a failed op, at +inf, makes it infinite),
    /// with the distribution's quartiles as its spread.
    pub fn mean(name: &str, unit: &'static str, dist: &Dist) -> Metric {
        Metric {
            value: dist.mean(),
            ..Metric::quantile(name, unit, dist, 0.5)
        }
    }

    /// A copy under another name (the generic end-to-end slots reuse a
    /// workload's own headline metrics).
    pub fn renamed(&self, name: &str) -> Metric {
        Metric {
            name: name.to_string(),
            ..self.clone()
        }
    }
}

/// Throughput with its spread: ops completed in each whole second of
/// the phase give the quartiles.
pub fn throughput(name: &str, completions_s: &[f64], seconds: f64) -> Metric {
    let whole = seconds.floor().max(1.0) as usize;
    let mut per_second = vec![0.0; whole];
    for &t in completions_s {
        if let Some(slot) = per_second.get_mut(t as usize) {
            *slot += 1.0;
        }
    }
    let dist = Dist::new(per_second);
    Metric {
        name: name.to_string(),
        unit: "ops/s",
        value: completions_s.len() as f64 / seconds,
        samples: completions_s.len(),
        p25: dist.q(0.25),
        p75: dist.q(0.75),
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub fingerprints: Vec<String>,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form lines printed under the table (residual breakdowns).
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, m: Metric) {
        self.metrics.retain(|x| x.name != m.name);
        self.metrics.push(m);
    }

    pub fn scalar(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(Metric::scalar(name, unit, value));
    }

    /// Set a metric unless an earlier, more specific source already did.
    pub fn scalar_if_absent(&mut self, name: &str, unit: &'static str, value: f64) {
        if self.get(name).is_none() {
            self.scalar(name, unit, value);
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Count one attempted operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record an output check; a failed one counts as a failed op.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn fingerprint(&mut self, fp: String) {
        if !self.fingerprints.contains(&fp) {
            self.fingerprints.push(fp);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn print_table(&self) {
        println!(
            "== exp_e2e workload={} seed={} seconds={} trace={} ==",
            self.workload, self.seed, self.seconds, self.trace as u8
        );
        for m in &self.metrics {
            println!(
                "  {:<36} {:>14} {:<6} n={:<7} p25={} p75={}",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.samples,
                fmt_num(m.p25),
                fmt_num(m.p75)
            );
        }
        for c in &self.checks {
            println!(
                "  check {:<34} {} {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
        for line in &self.notes {
            println!("  {line}");
        }
        println!(
            "  ops attempted {} failed {} error_rate {}",
            self.attempted,
            self.failed,
            fmt_num(self.failed as f64 / self.attempted.max(1) as f64)
        );
    }

    /// The full result in the shared bench schema.
    pub fn full_json(&self) -> Value {
        let results: Vec<Value> = self
            .metrics
            .iter()
            .map(|m| {
                json!({
                    "name": m.name, "unit": m.unit, "value": finite(m.value),
                    "samples": m.samples, "p25": finite(m.p25), "p75": finite(m.p75),
                })
            })
            .collect();
        let checks: Vec<Value> = self
            .checks
            .iter()
            .map(|c| json!({"name": c.name, "ok": c.ok, "detail": c.detail}))
            .collect();
        json!({
            "schema": "preserva-bench/1",
            "bench": "exp_e2e",
            "workload": self.workload,
            "host": crate::setup::host_info(),
            "git_sha": crate::setup::git_sha(),
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "options_fingerprint": self.fingerprints,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": checks,
            "results": results,
        })
    }

    /// The final line: `correct`, `attempted`, `failed` and exactly the
    /// metric set `BENCHMARK.json` declares for this mode.
    pub fn summary_line(&self) -> Result<String, String> {
        let wanted = if self.trace { PER_LAYER } else { END_TO_END };
        let mut metrics = serde_json::Map::new();
        for (name, unit) in wanted {
            let m = self
                .get(name)
                .ok_or_else(|| format!("workload {} did not measure {name}", self.workload))?;
            if m.unit != *unit {
                return Err(format!("{name} measured in {} not {unit}", m.unit));
            }
            metrics.insert(
                name.to_string(),
                json!({"value": finite(m.value), "unit": unit}),
            );
        }
        Ok(json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
        .to_string())
    }
}

/// JSON has no infinity: a quantile that reached a failed op prints as
/// the largest finite double.
fn finite(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v.clamp(f64::MIN, f64::MAX)
    }
}

pub fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        format!("{v}")
    } else if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Median and interquartile range of repeated values, for `--repeat`,
/// with quartiles computed like Python's `statistics.quantiles(values,
/// n=4)` (the "exclusive" method) so the spread matches that check.
pub fn median_iqr(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v.first().copied().unwrap_or(f64::NAN), 0.0);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(2), q(3) - q(1))
}

/// Group `name → values` across repeats, keeping first-seen order.
pub fn collect(runs: &[Value]) -> BTreeMap<String, (String, Vec<f64>)> {
    let mut out: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    for run in runs {
        for r in run["results"].as_array().into_iter().flatten() {
            let (Some(name), Some(value)) = (r["name"].as_str(), r["value"].as_f64()) else {
                continue;
            };
            let unit = r["unit"].as_str().unwrap_or("").to_string();
            out.entry(name.to_string())
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(value);
        }
    }
    out
}
