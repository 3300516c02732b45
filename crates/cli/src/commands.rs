//! CLI subcommand implementations over the architecture.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use preserva_core::collection::{Collection, CollectionOptions};
use preserva_core::retrieval::RecordCatalog;
use preserva_curation::history::HistoryStore;
use preserva_curation::log::CurationLog;
use preserva_curation::outdated::{persist_updates, OutdatedNameDetector, UPDATED_NAMES_TABLE};
use preserva_curation::pipeline::CurationPipeline;
use preserva_curation::review::ReviewQueue;
use preserva_fnjv::config::GeneratorConfig;
use preserva_fnjv::generator;
use preserva_fnjv::stats::CollectionStats;
use preserva_metadata::fnjv;
use preserva_metadata::query::{Filter, Query};
use preserva_metadata::record::Record;
use preserva_metadata::value::Date;
use preserva_quality::metric::AssessmentContext;
use preserva_quality::model::QualityModel;
use preserva_storage::engine::Engine;
use preserva_storage::rows;
use preserva_storage::table::TableStore;
use preserva_taxonomy::service::{ColService, ServiceConfig};

use crate::args::Args;

/// Usage text shown on argument errors.
pub const USAGE: &str = "\
usage: preserva <command> --dir DATA [flags]

commands:
  ingest       generate and store a synthetic FNJV-style collection
               [--records N] [--species N] [--outdated N] [--seed S]
               [--backbone-year Y]  (pin name checks to the edition at Y)
               [--bulk true]   (bulk-load fast path: rows, indexes and
               journal written as one sorted run, bypassing the memtable;
               requires a fresh directory)
  stats        collection statistics (cached until the change journal moves)
               plus live engine counters and runs-per-level of the tiered
               store; collection panels read under one pinned snapshot
  compact      flush the memtable and merge every sstable run into one
               bottom-level run, folding tombstones
               [--flushes N]  (first rewrite the collection in N chunks,
               checkpointing after each, to seed a multi-run tree)
  curate       run the stage-1 curation pipeline, journal the history
  check-names  detect outdated species names against the Catalogue of Life
               [--availability 0.9] [--attempts 8]
  reassess     consume the change journal: re-run only affected curation
               passes, re-check only status-changed names, update the
               quality ledger incrementally
               [--since SEQ] [--backbone-year Y] [--availability 1.0]
               [--at-lsn L]   (pin the input snapshot to commit LSN L)
               [--metrics true]  (print the exposition after the run)
  query        retrieve records [--species S] [--state ST] [--year Y] [--limit N]
  search       query the journal-fed search index (folds new journal
               entries in first, then answers under one pinned snapshot)
               [--q TERMS]     (token search; AND across tokens)
               [--field F]     (restrict --q to one metadata field)
               [--fuzzy NAME]  (closest indexed species name)
               [--distance D]  (fuzzy edit-distance budget, default 2)
               [--facets true] (facet counts: family/georeferenced/quality)
               [--facet NAME]  (restrict --facets to one facet)
               [--limit N] [--rebuild true]  (wipe + reindex from seq 0)
  history      show a record's curation history --record ID
  assess       compute quality attributes for the collection
  export       write the collection as CSV --out FILE [--dwc true]
  prov         capture and query cross-run provenance
               [--capture N]   (execute N demo workflow runs through the
               group-commit batcher, then refresh the index)
               [--threads 4] [--max-batch 64] [--linger-ms 2]
               [--artifact KEY]  (runs that used KEY, e.g. \"a:*:in:specimen\";
               keys are run-agnostic node ids, run id replaced by *)
               [--touched true] [--after SEQ]
               [--workflow ID]   (runs of workflow ID; with --artifact,
               only runs that touched it)
               [--list true]   (list captured run ids)
               [--metrics true]   (render this process's prov metric families)
  stress       hammer the workflow engine with concurrent flaky runs
               [--runs 200] [--threads 4] [--availability 0.7]
               [--max-concurrency 0] [--max-attempts 8] [--timeout-ms 0]
               [--breaker-threshold 5] [--breaker-cooldown-ms 200] [--seed 42]
  metrics      Prometheus-style metrics exposition for this process
               (opens the store and runs storage/wfms/quality probes)
               [--summary true]
";

type CliResult = Result<(), Box<dyn Error>>;

/// Table holding CLI metadata (ingest parameters), so later commands can
/// deterministically rebuild the checklist/service.
const META_TABLE: &str = "meta";

/// The ONE set of options every CLI command opens a collection with.
/// Commands used to hand-wire engines with subtly different options
/// (`open_store` ignored the metrics registry that `metrics` wired in);
/// funnelling them through here makes the wiring identical by
/// construction, and [`CollectionOptions::fingerprint`] makes it
/// checkable from the outside.
fn cli_options() -> CollectionOptions {
    CollectionOptions {
        metrics: Some(preserva_obs::Registry::global()),
        ..CollectionOptions::default()
    }
}

fn open_collection(dir: &Path) -> Result<Collection, Box<dyn Error>> {
    Ok(Collection::open(dir, cli_options())?)
}

fn load_config(store: &TableStore) -> Result<GeneratorConfig, Box<dyn Error>> {
    let v: serde_json::Value = rows::get(store.head(), META_TABLE, b"ingest")?
        .ok_or("no collection ingested here yet (run `preserva ingest` first)")?;
    Ok(GeneratorConfig {
        records: v["records"].as_u64().unwrap_or(0) as usize,
        distinct_species: v["species"].as_u64().unwrap_or(0) as usize,
        outdated_names: v["outdated"].as_u64().unwrap_or(0) as usize,
        seed: v["seed"].as_u64().unwrap_or(42),
        ..GeneratorConfig::default()
    })
}

fn load_records(catalog: &RecordCatalog) -> Result<Vec<Record>, Box<dyn Error>> {
    let q = Query::new(Filter::And(vec![])); // matches everything
    Ok(catalog.query(&q)?)
}

/// The checklist edition the collection is currently pinned to.
/// 0 means "latest" — the pre-reassessment behaviour.
fn load_backbone_year(store: &TableStore) -> Result<i32, Box<dyn Error>> {
    Ok(match store.head().get(META_TABLE, b"backbone-year")? {
        Some(raw) => String::from_utf8_lossy(&raw).parse().unwrap_or(0),
        None => 0,
    })
}

fn effective_checklist(
    checklist: &preserva_taxonomy::checklist::Checklist,
    year: i32,
) -> preserva_taxonomy::checklist::Checklist {
    if year == 0 {
        checklist.clone()
    } else {
        checklist.as_of(year)
    }
}

/// Dispatch a parsed command line.
pub fn run(args: &Args) -> CliResult {
    // `stress` exercises the in-memory engine; it needs no data directory.
    if args.command == "stress" {
        return stress(args);
    }
    let dir = PathBuf::from(args.require("dir")?);
    match args.command.as_str() {
        "ingest" => ingest(args, &dir),
        "stats" => stats(&dir),
        "compact" => compact(args, &dir),
        "curate" => curate(&dir),
        "check-names" => check_names(args, &dir),
        "reassess" => reassess(args, &dir),
        "prov" => prov(args, &dir),
        "query" => query(args, &dir),
        "search" => search(args, &dir),
        "history" => history(args, &dir),
        "assess" => assess(&dir),
        "export" => export(args, &dir),
        "metrics" => metrics(args, &dir),
        other => {
            eprint!("{USAGE}");
            Err(format!("unknown command {other:?}").into())
        }
    }
}

fn ingest(args: &Args, dir: &Path) -> CliResult {
    let records = args.get_parsed("records", 2_000usize, "integer")?;
    let species = args.get_parsed("species", (records / 6).max(10), "integer")?;
    let outdated = args.get_parsed("outdated", species / 14, "integer")?;
    let seed = args.get_parsed("seed", 42u64, "integer")?;
    let backbone_year = args.get_parsed("backbone-year", 0i32, "integer")?;
    let bulk = args.get("bulk").map(|v| v == "true").unwrap_or(false);
    let config = GeneratorConfig {
        records,
        distinct_species: species,
        outdated_names: outdated,
        seed,
        ..GeneratorConfig::default()
    };
    if bulk {
        return ingest_bulk(&config, dir, backbone_year);
    }
    let coll = open_collection(dir)?;
    let store = coll.store();
    let catalog = coll.catalog();
    let params = serde_json::json!({
        "records": records, "species": species, "outdated": outdated,
        "seed": seed, "backbone_year": backbone_year,
    });
    // Identical parameters and an unmoved journal head mean the store
    // already holds exactly what this invocation would write: replay the
    // recorded output instead of re-staging every row.
    if let Some(v) = rows::get::<serde_json::Value>(store.head(), META_TABLE, b"ingest-cache")? {
        if v["params"] == params && v["head"].as_u64() == Some(store.journal_head()) {
            if let Some(text) = v["output"].as_str() {
                print!("{text}");
                return Ok(());
            }
        }
    }
    let collection = generator::generate(&config);
    // Metadata, every record and all index maintenance land in one
    // write session — a single WAL commit and fsync for the whole ingest.
    let commits_before = store.engine().stats().commits;
    let mut session = store.session();
    let row = serde_json::json!({
        "records": records, "species": species,
        "outdated": outdated, "seed": seed,
    });
    rows::stage(&mut session, META_TABLE, b"ingest", &row)?;
    if backbone_year != 0 {
        session.put(
            META_TABLE,
            b"backbone-year",
            backbone_year.to_string().as_bytes(),
        )?;
    }
    for record in &collection.records {
        catalog.stage(&mut session, record)?;
    }
    session.commit()?;
    let commits = store.engine().stats().commits - commits_before;
    let output = format!(
        "ingested {} records ({} distinct species, {} planted outdated, seed {}) into {}\n\
         storage commits: {} ({:.4} per record)\n",
        records,
        species,
        outdated,
        seed,
        dir.display(),
        commits,
        commits as f64 / (records.max(1)) as f64
    );
    let cache = serde_json::json!({
        "params": params, "head": store.journal_head(), "output": output,
    });
    store.put(
        META_TABLE,
        b"ingest-cache",
        &rows::encode(META_TABLE, "ingest-cache", &cache)?,
    )?;
    print!("{output}");
    Ok(())
}

/// The bulk-load fast path: every row, index entry and journal event is
/// written as ONE presorted level-1 run (no memtable, no per-row WAL
/// traffic). The direct-run builder shadows old versions without
/// retracting their index entries, so this path insists on a fresh
/// directory — updates belong to the session-based `ingest`.
fn ingest_bulk(config: &GeneratorConfig, dir: &Path, backbone_year: i32) -> CliResult {
    let coll = open_collection(dir)?;
    let store = coll.store();
    let catalog = coll.catalog();
    if catalog.len()? > 0 {
        return Err(
            "bulk ingest requires a fresh directory (records already present); \
                    rerun without --bulk to update in place"
                .into(),
        );
    }
    let collection = generator::generate(config);
    // Metadata still goes through a session so later commands can rebuild
    // the generator deterministically; the records go through the run
    // builder.
    let mut session = store.session();
    let row = serde_json::json!({
        "records": config.records, "species": config.distinct_species,
        "outdated": config.outdated_names, "seed": config.seed,
    });
    rows::stage(&mut session, META_TABLE, b"ingest", &row)?;
    if backbone_year != 0 {
        session.put(
            META_TABLE,
            b"backbone-year",
            backbone_year.to_string().as_bytes(),
        )?;
    }
    session.commit()?;
    let receipt = catalog.insert_all_bulk(&collection.records)?;
    let metrics = coll.metrics_registry();
    println!(
        "bulk-ingested {} records into {} (one sorted run, journal seqs {}..={}, commit lsn {})",
        receipt.entries(),
        dir.display(),
        receipt.first_seq,
        receipt.last_seq,
        receipt.lsn,
    );
    println!(
        "  preserva_storage_ingest_records_total {}",
        metrics
            .counter("preserva_storage_ingest_records_total", "")
            .get()
    );
    println!(
        "  preserva_storage_bulk_batches_total {}",
        metrics
            .counter("preserva_storage_bulk_batches_total", "")
            .get()
    );
    Ok(())
}

fn stats(dir: &Path) -> CliResult {
    let coll = open_collection(dir)?;
    stats_on(&coll)
}

/// The `stats` panels over an already-open collection (separated from
/// [`stats`] so tests can inject failures and observe snapshot hygiene:
/// every early `?` return below must unpin the panel snapshot).
fn stats_on(coll: &Collection) -> CliResult {
    print!("{}", stats_report(coll)?);
    Ok(())
}

/// Render the `stats` output (separated so tests can assert on the
/// fingerprint line against what `metrics` exposes).
fn stats_report(coll: &Collection) -> Result<String, Box<dyn Error>> {
    use std::fmt::Write as _;

    let store = coll.store();
    let catalog = coll.catalog();
    let mut out = String::new();
    // One pinned snapshot for every panel: the cache probe and the
    // record scan read the same committed state, so a concurrent commit
    // can never produce a torn cross-table view. Engine counters below
    // stay live by design.
    let snap = store.snapshot();
    let head = store.journal_head();
    let panel = match rows::get::<serde_json::Value>(&snap, META_TABLE, b"stats-cache")? {
        Some(v) => {
            // The collection panel only changes when the change journal
            // moves; while the head is unchanged, serve the cached
            // render instead of scanning every record again.
            if v["head"].as_u64() == Some(head) {
                v["panel"].as_str().map(str::to_string)
            } else {
                None
            }
        }
        None => None,
    };
    let panel = match panel {
        Some(text) => text,
        None => {
            let records = catalog.all_at(&snap)?;
            let text = CollectionStats::compute(&records).render();
            let cache = serde_json::json!({ "head": head, "panel": text });
            let row = rows::encode(META_TABLE, "stats-cache", &cache)?;
            store.put(META_TABLE, b"stats-cache", &row)?;
            text
        }
    };
    out.push_str(&panel);
    let _ = writeln!(
        out,
        "snapshot: collection panels read at commit lsn {}",
        snap.lsn()
    );
    let _ = writeln!(out, "options fingerprint: {}", coll.options().fingerprint());
    let s = store.engine().stats();
    let _ = writeln!(out, "storage engine:");
    let _ = writeln!(
        out,
        "  puts {} / deletes {} / commits {}",
        s.puts, s.deletes, s.commits
    );
    let _ = writeln!(
        out,
        "  gets {} / scans {} / checkpoints {}",
        s.gets, s.scans, s.checkpoints
    );
    let _ = writeln!(
        out,
        "  recovery: {} records replayed, {} run entries catalogued, torn tail discarded: {}",
        s.recovered_records,
        s.recovered_from_snapshot,
        if s.torn_tail_discarded { "yes" } else { "no" }
    );
    out.push_str(&render_tiered(store.engine()));
    Ok(out)
}

/// Render the run tree in Prometheus sample syntax, one line per level,
/// so scripts (and the CI smoke job) can grep the exact family they
/// would scrape from the `metrics` command.
fn render_tiered(engine: &Engine) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let levels = engine.runs_per_level();
    let _ = writeln!(out, "tiered store:");
    if levels.is_empty() {
        let _ = writeln!(
            out,
            "  (no sstable runs — all data lives in the WAL/memtable)"
        );
    }
    for (level, count) in levels {
        let _ = writeln!(
            out,
            "  preserva_storage_runs_per_level{{level=\"{level}\"}} {count}"
        );
    }
    let _ = writeln!(out, "  compactions {}", engine.stats().compactions);
    out
}

fn print_tiered(engine: &Engine) {
    print!("{}", render_tiered(engine));
}

/// The `compact` maintenance command: optionally seed a multi-run tree
/// by rewriting the collection in chunks (one flush each), then force a
/// full merge down to a single bottom-level run.
fn compact(args: &Args, dir: &Path) -> CliResult {
    let flushes = args.get_parsed("flushes", 0usize, "integer")?;
    let coll = open_collection(dir)?;
    let engine = coll.engine();
    if flushes > 0 {
        // Rewriting existing rows is value-neutral but gives each chunk
        // its own level-1 run — a deterministic way to grow the tree for
        // smoke tests and tuning experiments.
        let rows = engine.head().scan_all("records")?;
        if rows.is_empty() {
            return Err("no records to rewrite (run `preserva ingest` first)".into());
        }
        let chunk = rows.len().div_ceil(flushes).max(1);
        for part in rows.chunks(chunk) {
            for (key, value) in part {
                engine.put("records", key, value)?;
            }
            engine.checkpoint()?;
        }
        println!(
            "rewrote {} records across {} flushes",
            rows.len(),
            rows.len().div_ceil(chunk)
        );
    } else {
        engine.checkpoint()?;
    }
    let before: usize = engine.runs_per_level().iter().map(|(_, n)| n).sum();
    let merged = engine.compact()?;
    let after: usize = engine.runs_per_level().iter().map(|(_, n)| n).sum();
    if merged {
        println!("compacted {before} runs into {after}");
    } else {
        println!("nothing to compact ({before} runs)");
    }
    print_tiered(engine);
    Ok(())
}

fn curate(dir: &Path) -> CliResult {
    let coll = open_collection(dir)?;
    let store = coll.store();
    let config = load_config(store)?;
    let catalog = coll.catalog();
    let records = load_records(catalog)?;
    let gazetteer = preserva_gazetteer::builder::build_gazetteer(3, config.seed ^ 0x9E0);
    let pipeline = CurationPipeline::stage1(gazetteer, fnjv::schema());
    let mut log = CurationLog::new();
    let mut queue = ReviewQueue::new();
    let (curated, summary) = pipeline.run(&records, &mut log, &mut queue);
    catalog.insert_all(&curated)?;
    let persisted = HistoryStore::new(store).persist(&log)?;
    println!(
        "curated {} records: {} changed, {} field fixes, {} review flags; {} history entries journaled",
        summary.records_total,
        summary.records_changed,
        summary.field_changes,
        summary.flags,
        persisted
    );
    Ok(())
}

fn check_names(args: &Args, dir: &Path) -> CliResult {
    let availability = args.get_parsed("availability", 0.9f64, "number in [0,1]")?;
    let attempts = args.get_parsed("attempts", 8u32, "integer")?;
    let coll = open_collection(dir)?;
    let store = coll.store();
    let config = load_config(store)?;
    let records = load_records(coll.catalog())?;
    // Rebuild the deterministic checklist the collection was planted
    // with, pinned to the edition the collection currently tracks.
    let collection = generator::generate(&config);
    let year = load_backbone_year(store)?;
    let service = ColService::new(
        effective_checklist(&collection.checklist, year),
        ServiceConfig {
            availability,
            seed: config.seed ^ 0xC01,
            ..ServiceConfig::default()
        },
    );
    let report = OutdatedNameDetector::new(&service, attempts).check_collection(&records);
    print!("{}", report.render_summary());
    let written = persist_updates(store, &report)?;
    println!(
        "persisted {written} rows ({} updates in `{UPDATED_NAMES_TABLE}`, originals untouched)",
        report.outdated.len()
    );
    Ok(())
}

/// Consume the change journal from the stored cursor (or `--since`) and
/// re-run only the affected curation passes and name checks. With
/// `--backbone-year Y` the checklist is swapped first: the edition diff
/// is journaled and only status-changed names are re-checked.
fn reassess(args: &Args, dir: &Path) -> CliResult {
    let availability = args.get_parsed("availability", 1.0f64, "number in [0,1]")?;
    let since = match args.get("since") {
        Some(raw) => Some(raw.parse::<u64>().map_err(|_| "bad --since")?),
        None => None,
    };
    // Pin the run's input snapshot to a historical commit LSN: the feed
    // replays exactly as it stood then; later commits stay pending.
    let at_lsn = match args.get("at-lsn") {
        Some(raw) => Some(raw.parse::<u64>().map_err(|_| "bad --at-lsn")?),
        None => None,
    };
    let target_year = args.get_parsed("backbone-year", 0i32, "integer")?;

    // Opening the collection registers the secondary indexes the delta
    // run maintains when it stages re-curated records, and wires the
    // reassessor + provenance manager to the process registry.
    let coll = open_collection(dir)?;
    let store = coll.store();
    let config = load_config(store)?;
    let collection = generator::generate(&config);
    let obs = coll.metrics_registry().clone();
    let reassessor = coll.reassessor();

    let mut year = load_backbone_year(store)?;
    if target_year != 0 && target_year != year {
        let from = if year == 0 {
            collection.checklist.latest().year
        } else {
            year
        };
        let (diff, receipt) = reassessor.swap_backbone(&collection.checklist, from, target_year)?;
        store.put(
            META_TABLE,
            b"backbone-year",
            target_year.to_string().as_bytes(),
        )?;
        println!(
            "backbone {from} -> {target_year}: {} name status changes journaled through seq {}",
            diff.len(),
            receipt.last_seq
        );
        year = target_year;
    }

    let service = ColService::new(
        effective_checklist(&collection.checklist, year),
        ServiceConfig {
            availability,
            seed: config.seed ^ 0xC01,
            ..ServiceConfig::default()
        },
    );
    let gazetteer = preserva_gazetteer::builder::build_gazetteer(3, config.seed ^ 0x9E0);
    let pipeline = CurationPipeline::stage1(gazetteer, fnjv::schema());
    let mut log = CurationLog::new();
    let mut queue = ReviewQueue::new();
    let outcome = reassessor.run_at(
        &pipeline,
        &service,
        Some(coll.provenance().as_ref()),
        since,
        at_lsn,
        &mut log,
        &mut queue,
    )?;
    let persisted = HistoryStore::new(store).persist(&log)?;
    print!("{}", outcome.render());
    if persisted > 0 {
        println!("{persisted} history entries journaled");
    }
    if args.get("metrics").map(|v| v == "true").unwrap_or(false) {
        print!("{}", obs.render_prometheus());
    }
    Ok(())
}

fn query(args: &Args, dir: &Path) -> CliResult {
    let coll = open_collection(dir)?;
    let catalog = coll.catalog();
    let mut conjuncts = Vec::new();
    if let Some(s) = args.get("species") {
        conjuncts.push(Filter::species(s));
    }
    if let Some(s) = args.get("state") {
        conjuncts.push(Filter::TextEq {
            field: "state".into(),
            value: s.to_string(),
        });
    }
    if let Some(y) = args.get("year") {
        let y: i32 = y.parse().map_err(|_| "bad --year")?;
        conjuncts.push(Filter::DateRange {
            field: "collect_date".into(),
            from: Date::new(y, 1, 1).ok_or("bad year")?,
            to: Date::new(y, 12, 31).ok_or("bad year")?,
        });
    }
    if conjuncts.is_empty() {
        return Err("give at least one of --species / --state / --year".into());
    }
    let limit = args.get_parsed("limit", 10usize, "integer")?;
    let q = Query::new(Filter::And(conjuncts)).limit(limit);
    let page = catalog.query_at(&coll.store().snapshot(), &q)?;
    println!(
        "{} matching records; showing {}:",
        page.total,
        page.records.len()
    );
    for r in page.records {
        println!(
            "  {}  {}  {} {}  {}",
            r.id,
            r.get_text("species").unwrap_or("?"),
            r.get_text("city").unwrap_or("?"),
            r.get_text("state").unwrap_or("?"),
            r.get("collect_date")
                .map(|v| v.to_string())
                .unwrap_or_default()
        );
    }
    Ok(())
}

/// Answer token / fuzzy / facet queries from the journal-fed search
/// index. Like the server handlers: fold anything new off the journal
/// first, then pin ONE snapshot and answer entirely from the
/// `__search:` tables, reporting the snapshot LSN and index cursor.
fn search(args: &Args, dir: &Path) -> CliResult {
    let coll = open_collection(dir)?;
    let outcome = if args.get("rebuild").map(|v| v == "true").unwrap_or(false) {
        coll.search().rebuild()?
    } else {
        coll.search().run()?
    };
    if !outcome.is_noop() {
        println!(
            "index advanced {} -> {}: {} journal entries, {} docs indexed, {} removed",
            outcome.cursor_before,
            outcome.cursor_after,
            outcome.entries_consumed,
            outcome.docs_indexed,
            outcome.docs_removed
        );
    }
    let reader = coll.search().reader();
    let snap = coll.store().snapshot();
    let cursor = reader.cursor_at(&snap)?;
    println!(
        "answering at lsn {} (index cursor {}, lag {})",
        snap.lsn(),
        cursor,
        coll.journal_head().saturating_sub(cursor)
    );
    if args.get("facets").map(|v| v == "true").unwrap_or(false) || args.get("facet").is_some() {
        let counts = reader.facets(&snap, args.get("facet"))?;
        for (facet, values) in counts {
            println!("{facet}:");
            for (value, count) in values {
                println!("  {value:<24} {count}");
            }
        }
        return Ok(());
    }
    if let Some(fuzzy_q) = args.get("fuzzy") {
        let distance = args.get_parsed("distance", 2usize, "integer")?;
        match reader.fuzzy(&snap, fuzzy_q, distance)? {
            Some(hit) => println!(
                "{} (distance {}, scored {} of {} indexed names)",
                hit.name,
                hit.distance,
                hit.candidates_scored,
                reader.names(&snap)?.len()
            ),
            None => println!("no indexed name within distance {distance} of {fuzzy_q:?}"),
        }
        return Ok(());
    }
    let terms = args
        .get("q")
        .ok_or("give one of --q / --fuzzy / --facets true")?;
    let limit = args.get_parsed("limit", 20usize, "integer")?;
    let hits = reader.query(&snap, args.get("field"), terms, limit)?;
    println!(
        "{} matching records; showing {}:",
        hits.total,
        hits.ids.len()
    );
    for id in &hits.ids {
        match snap.get(coll.options().records_table.as_str(), id.as_bytes())? {
            Some(raw) => match rows::decode_row::<Record>(&raw) {
                Some(r) => println!(
                    "  {}  {}  {} {}",
                    r.id,
                    r.get_text("species").unwrap_or("?"),
                    r.get_text("city").unwrap_or("?"),
                    r.get_text("state").unwrap_or("?")
                ),
                None => println!("  {id}  (undecodable row)"),
            },
            None => println!("  {id}  (row vanished after index snapshot)"),
        }
    }
    Ok(())
}

fn history(args: &Args, dir: &Path) -> CliResult {
    let record_id = args.require("record")?;
    let coll = open_collection(dir)?;
    let h = HistoryStore::new(coll.store());
    let entries = h.for_record(record_id)?;
    if entries.is_empty() {
        println!("no curation history for {record_id}");
        return Ok(());
    }
    println!("curation history of {record_id}:");
    for e in entries {
        println!("  #{:<6} [{}] {:?}", e.seq, e.source, e.event);
    }
    Ok(())
}

fn export(args: &Args, dir: &Path) -> CliResult {
    let out_path = args.require("out")?;
    let dwc = args.get("dwc").map(|v| v == "true").unwrap_or(false);
    let coll = open_collection(dir)?;
    let records = load_records(coll.catalog())?;
    let schema = fnjv::schema();
    let csv = if dwc {
        // Darwin-Core subset: only the mapped fields, with DwC headers.
        let fields: Vec<&str> = preserva_metadata::export::DWC_MAPPING
            .iter()
            .map(|(f, _)| *f)
            .collect();
        let raw = preserva_metadata::export::to_csv(&records, &fields);
        // Rewrite the header line to Darwin Core terms.
        let mut lines = raw.splitn(2, '\n');
        let _header = lines.next().unwrap_or_default();
        let body = lines.next().unwrap_or_default();
        let dwc_header: Vec<&str> = std::iter::once("id")
            .chain(
                preserva_metadata::export::DWC_MAPPING
                    .iter()
                    .map(|(_, t)| *t),
            )
            .collect();
        format!("{}\n{}", dwc_header.join(","), body)
    } else {
        preserva_metadata::export::to_csv_full(&records, &schema)
    };
    std::fs::write(out_path, &csv)?;
    println!(
        "exported {} records x {} columns to {out_path}",
        records.len(),
        csv.lines()
            .next()
            .map(|h| h.split(',').count())
            .unwrap_or(0)
    );
    Ok(())
}

fn assess(dir: &Path) -> CliResult {
    let coll = open_collection(dir)?;
    let store = coll.store();
    let config = load_config(store)?;
    let records = load_records(coll.catalog())?;
    // Re-run the check with full availability to compute accuracy facts,
    // against the edition the collection is pinned to.
    let collection = generator::generate(&config);
    let year = load_backbone_year(store)?;
    let service = ColService::new(
        effective_checklist(&collection.checklist, year),
        ServiceConfig {
            availability: 1.0,
            seed: config.seed ^ 0xC01,
            ..ServiceConfig::default()
        },
    );
    let report = OutdatedNameDetector::new(&service, 3).check_collection(&records);
    let schema = fnjv::schema();
    let completeness =
        preserva_metadata::completeness::collection_completeness(&schema, &records, false);
    let ctx = AssessmentContext::new()
        .with_fact("names_checked", report.checked() as f64)
        .with_fact("names_correct", report.current as f64)
        .with_fact("observed_availability", 1.0)
        .with_annotation("reputation", 1.0)
        .with_annotation("availability", 0.9);
    let mut quality = QualityModel::case_study_default().assess("collection", &ctx);
    quality.push(
        preserva_quality::dimension::Dimension::completeness(),
        "51-field fill rate",
        completeness,
    );
    let (consistent, checked) = preserva_metadata::consistency::consistency_counts(&records);
    if checked > 0 {
        quality.push(
            preserva_quality::dimension::Dimension::consistency(),
            "within-record taxonomy consistency",
            consistent as f64 / checked as f64,
        );
    }
    print!("{}", quality.render_text());
    // Seed the incremental reassessment state: per-name ledger entries,
    // record→name references and the journal cursor, so later edits can
    // be reassessed as deltas instead of full recomputes.
    let reassessor = coll.reassessor();
    reassessor.seed(&report)?;
    let (ledger_checked, ledger_correct) = reassessor.ledger()?.totals();
    println!(
        "reassessment seeded: {:.0} names in the ledger ({:.0} current), journal cursor at seq {}",
        ledger_checked,
        ledger_correct,
        reassessor.cursor()?
    );
    let cross = preserva_metadata::consistency::collection_inconsistencies(&records);
    if !cross.is_empty() {
        println!("cross-record inconsistencies needing review:");
        for i in cross.iter().take(5) {
            println!("  - {i}");
        }
        if cross.len() > 5 {
            println!("  … and {} more", cross.len() - 5);
        }
    }
    Ok(())
}

/// The `metrics` command: wire every subsystem to the process-wide
/// registry, exercise each one briefly, and print the exposition.
///
/// Metrics are in-process state, so a fresh CLI invocation starts from
/// zero; the probes below generate real traffic through every layer —
/// the user's store is only *read* (recovery, gets, scans), while the
/// write-path, workflow, provenance and quality probes run against a
/// scratch directory that is removed afterwards.
fn metrics(args: &Args, dir: &Path) -> CliResult {
    let summary = args.get("summary").map(|v| v == "true").unwrap_or(false);
    let obs = preserva_obs::Registry::global();
    print!("{}", metrics_report(dir, &obs, summary)?);
    Ok(())
}

/// Build the exposition text (separated from [`metrics`] so tests can
/// assert on the output).
fn metrics_report(
    dir: &Path,
    obs: &Arc<preserva_obs::Registry>,
    summary: bool,
) -> Result<String, Box<dyn Error>> {
    use preserva_core::roles::EndUser;
    use preserva_wfms::engine::{Engine as WfEngine, EngineConfig};
    use preserva_wfms::model::{Processor, Workflow};
    use preserva_wfms::services::{port, PortMap, ServiceRegistry};

    // Same options as every other command, metrics routed to `obs`
    // (which IS the process registry when invoked as a command) — so
    // the fingerprint this exposition carries matches what `stats`
    // prints for the same directory.
    let observed = CollectionOptions {
        metrics: Some(obs.clone()),
        ..CollectionOptions::default()
    };

    // 1. The user's store, observed: recovery counters from open, then
    //    read-only traffic (gets / scans / value bytes).
    let coll = Collection::open(dir, observed.clone())?;
    let _ = coll.store().head().get(META_TABLE, b"ingest")?;
    let records = coll.store().head().count("records")?;
    obs.trace("cli", format!("metrics probe: {records} records on disk"));
    coll.close()?;
    drop(coll);

    // 2. Write-path probe on a scratch collection: puts, deletes, WAL
    //    appends, fsyncs, a commit and a checkpoint — without touching
    //    user data.
    let scratch = std::env::temp_dir().join(format!("preserva-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let result = (|| -> Result<(), Box<dyn Error>> {
        let probe_coll = Collection::open(&scratch, observed)?;
        let probe = probe_coll.store();
        probe.put("probe", b"k", b"observability probe value")?;
        let _ = probe.head().get("probe", b"k")?;
        probe.delete("probe", b"k")?;
        probe.engine().checkpoint()?;
        // Bulk-path probe: one row through the direct-run builder, so
        // the ingest/bulk families expose real traffic.
        probe.bulk_load(
            "probe_bulk",
            vec![(b"k".to_vec(), b"bulk probe value".to_vec())],
        )?;

        // 3. Workflow + provenance probe: a two-step chain through the
        //    observed engine, captured by the collection's provenance
        //    manager.
        let pm = probe_coll.provenance().clone();
        let mut registry = ServiceRegistry::new();
        registry.register_fn("echo", |i: &PortMap| Ok(port("out", i["in"].clone())));
        let workflow = Workflow::new("wf-metrics-probe", "metrics probe")
            .with_input("x")
            .with_output("y")
            .with_processor(Processor::service("first", "echo", &["in"], &["out"]))
            .with_processor(Processor::service("second", "echo", &["in"], &["out"]))
            .link_input("x", "first", "in")
            .link("first", "out", "second", "in")
            .link_output("second", "out", "y");
        let wf_engine = WfEngine::new(registry, EngineConfig::default())
            .with_metrics(obs.clone())
            .with_sink(pm);
        let trace = wf_engine
            .run(&workflow, &port("x", serde_json::json!("probe")))
            .map_err(|(e, _)| e.to_string())?;

        // 4. Quality probe: assess the captured run with the case-study
        //    model through the collection's quality manager.
        let user = EndUser::new("metrics-probe", "cli");
        let mut facts = std::collections::BTreeMap::new();
        facts.insert("names_checked".to_string(), 1929.0);
        facts.insert("names_correct".to_string(), 1795.0);
        facts.insert("reputation".to_string(), 1.0);
        facts.insert("availability".to_string(), 0.9);
        probe_coll
            .quality()
            .assess_run(&user, "probe", &trace.run_id, &workflow, &facts)?;
        probe_coll.close()?;
        Ok(())
    })();
    std::fs::remove_dir_all(&scratch).ok();
    result?;

    Ok(if summary {
        obs.render_summary()
    } else {
        obs.render_prometheus()
    })
}

/// Fault-tolerance stress drill: hundreds of concurrent runs over flaky
/// services through the bounded pool, reporting engine + breaker stats.
fn prov(args: &Args, dir: &Path) -> CliResult {
    use preserva_core::capture_batcher::BatcherOptions;
    use preserva_wfms::engine::{Engine as WfEngine, EngineConfig};
    use preserva_wfms::model::{Processor, Workflow};
    use preserva_wfms::services::{port, PortMap};
    use preserva_wfms::ServiceRegistry;
    use std::time::{Duration, Instant};

    let capture = args.get_parsed("capture", 0usize, "integer")?;
    let max_batch = args.get_parsed("max-batch", 64usize, "integer")?;
    let linger_ms = args.get_parsed("linger-ms", 2u64, "integer")?;
    // Batcher knobs ride the CollectionOptions (they're capture policy,
    // not engine options — the fingerprint ignores them).
    let coll = Collection::open(
        dir,
        CollectionOptions {
            batcher: BatcherOptions {
                max_batch,
                linger: Duration::from_millis(linger_ms),
            },
            ..cli_options()
        },
    )?;
    let store = coll.store();
    let manager = coll.provenance();
    let index = coll.prov_index();

    if capture > 0 {
        let threads = args.get_parsed("threads", 4usize, "integer")?.max(1);

        let mut registry = ServiceRegistry::new();
        registry.register_fn("echo", |i: &PortMap| Ok(port("out", i["in"].clone())));
        let workflow = Workflow::new("prov-demo", "curation-chain")
            .with_input("specimen")
            .with_output("archived")
            .with_processor(Processor::service("lookup", "echo", &["in"], &["out"]))
            .with_processor(Processor::service("archive", "echo", &["in"], &["out"]))
            .link_input("specimen", "lookup", "in")
            .link("lookup", "out", "archive", "in")
            .link_output("archive", "out", "archived");

        let batcher = coll.batcher().clone();
        let engine = WfEngine::new(
            registry,
            EngineConfig {
                max_concurrency: threads,
                ..Default::default()
            },
        )
        .with_sink(batcher.clone());
        let jobs: Vec<(Workflow, PortMap)> = (0..capture)
            .map(|i| {
                (
                    workflow.clone(),
                    port("specimen", serde_json::json!(format!("s-{i}"))),
                )
            })
            .collect();
        let before = store.engine().stats().commits;
        let started = Instant::now();
        let results = engine.run_wave(&jobs);
        let elapsed = started.elapsed();
        let failed = results.iter().filter(|r| r.is_err()).count();
        let commits = store.engine().stats().commits - before;
        println!(
            "captured {capture} runs ({failed} failed) in {elapsed:.2?} \
             using {commits} storage commits"
        );
        let out = index.refresh()?;
        println!(
            "index refreshed: +{} runs (cursor {} -> {})",
            out.runs_indexed, out.cursor_before, out.cursor_after
        );
    } else {
        // Queries read through the index; fold in anything captured since
        // the last refresh first.
        let out = index.refresh()?;
        if out.runs_indexed > 0 {
            println!("index caught up: +{} runs", out.runs_indexed);
        }
    }

    let mut queried = false;
    if let Some(artifact) = args.get("artifact") {
        queried = true;
        if let Some(wf) = args.get("workflow") {
            let runs = index.runs_of_workflow_touching(wf, artifact)?;
            println!("{} runs of {wf} touched {artifact}:", runs.len());
            for r in runs {
                println!("  {r}");
            }
        } else {
            let after = args.get_parsed("after", 0u64, "integer")?;
            let touched = args.get("touched").map(|v| v == "true").unwrap_or(false);
            let verb = if touched { "touched" } else { "used" };
            let runs = if touched {
                index.runs_touching_artifact(artifact, after)?
            } else {
                index.runs_using_artifact(artifact, after)?
            };
            println!(
                "{} runs {verb} {artifact} after journal seq {after}:",
                runs.len()
            );
            for r in runs {
                println!("  {r}");
            }
        }
    } else if let Some(wf) = args.get("workflow") {
        queried = true;
        let runs = index.runs_of_workflow(wf)?;
        println!("{} runs of workflow {wf}:", runs.len());
        for r in runs {
            println!("  {r}");
        }
    }
    if args.get("list").map(|v| v == "true").unwrap_or(false) {
        queried = true;
        let runs = manager.run_ids()?;
        println!("{} captured runs:", runs.len());
        for r in runs {
            println!("  {r}");
        }
    }
    if !queried {
        println!(
            "{} captured runs; index cursor {} (lag {})",
            manager.run_ids()?.len(),
            index.cursor()?,
            index.lag()?
        );
    }
    if args.get("metrics").map(|v| v == "true").unwrap_or(false) {
        // Batch/template/index families live in THIS process's registry
        // (capture happened here), so render it rather than the probes
        // the `metrics` command would run.
        print!("{}", manager.metrics_registry().render_prometheus());
    }
    Ok(())
}

fn stress(args: &Args) -> CliResult {
    use preserva_wfms::breaker::BreakerConfig;
    use preserva_wfms::engine::{Engine as WfEngine, EngineConfig, RetryPolicy};
    use preserva_wfms::model::{Processor, Workflow};
    use preserva_wfms::services::{port, FlakyService, FnService, PortMap, Service};
    use preserva_wfms::sink::BufferingSink;
    use preserva_wfms::ServiceRegistry;
    use std::time::{Duration, Instant};

    let runs = args.get_parsed("runs", 200usize, "integer")?;
    let threads = args.get_parsed("threads", 4usize, "integer")?.max(1);
    let availability = args.get_parsed("availability", 0.7f64, "number in [0,1]")?;
    let max_concurrency = args.get_parsed("max-concurrency", 0usize, "integer")?;
    let max_attempts = args.get_parsed("max-attempts", 8u32, "integer")?;
    let timeout_ms = args.get_parsed("timeout-ms", 0u64, "integer")?;
    let breaker_threshold = args.get_parsed("breaker-threshold", 5u32, "integer")?;
    let breaker_cooldown_ms = args.get_parsed("breaker-cooldown-ms", 200u64, "integer")?;
    let seed = args.get_parsed("seed", 42u64, "integer")?;

    let echo: Arc<dyn Service> = Arc::new(FnService::new(|i: &PortMap| {
        Ok(port("out", i["in"].clone()))
    }));
    let mut registry = ServiceRegistry::new();
    for (i, name) in ["col_lookup", "normalise", "archive"].iter().enumerate() {
        registry.register(
            name,
            Arc::new(FlakyService::new(
                echo.clone(),
                availability,
                seed + i as u64,
            )),
        );
    }
    let workflow = Workflow::new("stress", "curation-chain")
        .with_input("specimen")
        .with_output("archived")
        .with_processor(Processor::service(
            "lookup",
            "col_lookup",
            &["in"],
            &["out"],
        ))
        .with_processor(Processor::service(
            "normalise",
            "normalise",
            &["in"],
            &["out"],
        ))
        .with_processor(Processor::service("archive", "archive", &["in"], &["out"]))
        .link_input("specimen", "lookup", "in")
        .link("lookup", "out", "normalise", "in")
        .link("normalise", "out", "archive", "in")
        .link_output("archive", "out", "archived");

    let sink = Arc::new(BufferingSink::new());
    let engine = WfEngine::new(
        registry,
        EngineConfig {
            max_attempts,
            max_concurrency,
            retry: RetryPolicy::default(),
            processor_timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
            breaker: BreakerConfig {
                failure_threshold: breaker_threshold,
                cooldown: Duration::from_millis(breaker_cooldown_ms),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .with_sink(sink.clone());

    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let (engine, workflow) = (&engine, &workflow);
            // Spread `runs` across the threads, remainder to the first.
            let share = runs / threads + usize::from(t < runs % threads);
            s.spawn(move || {
                for i in 0..share {
                    let _ = engine.run(
                        workflow,
                        &port("specimen", serde_json::json!(format!("s-{t}-{i}"))),
                    );
                }
            });
        }
    });
    let elapsed = started.elapsed();

    let traces = sink.drain();
    let unique: std::collections::HashSet<&str> =
        traces.iter().map(|t| t.run_id.as_str()).collect();
    let stats = engine.stats();
    println!(
        "{} runs in {:.2?} on {} client threads ({:.0} runs/s)",
        stats.runs,
        elapsed,
        threads,
        stats.runs as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "  succeeded {} / failed {}; {} captured, {} unique run ids{}",
        stats.runs - stats.runs_failed,
        stats.runs_failed,
        traces.len(),
        unique.len(),
        if unique.len() == traces.len() {
            ""
        } else {
            "  ** COLLISION **"
        }
    );
    println!(
        "  invocations {} / retries {} / timeouts {}",
        stats.invocations, stats.retries, stats.timeouts
    );
    println!(
        "  breaker: {} rejections, {} trips, {} recoveries",
        stats.breaker_rejections, stats.breaker_trips, stats.breaker_recoveries
    );
    println!(
        "  pool: widest wave {} / peak workers {}",
        stats.widest_wave, stats.peak_workers
    );
    for (name, b) in engine.registry().breaker_snapshots() {
        println!(
            "  service {name}: {} (trips {}, rejections {}, recoveries {})",
            b.state, b.trips, b.rejections, b.recoveries
        );
    }
    if unique.len() != traces.len() {
        return Err("run id collision detected".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_core::reassess::Reassessor;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(str::to_string)).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("preserva-cli-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Tests reopen stores through the facade too (the CI grep bans
    /// direct engine opens from this whole crate). A private registry
    /// keeps gauge assertions isolated from concurrently-running tests.
    fn open_store(dir: &Path) -> Result<Arc<TableStore>, Box<dyn Error>> {
        Ok(Collection::open(dir, CollectionOptions::default())?
            .store()
            .clone())
    }

    fn open_catalog(store: Arc<TableStore>) -> Result<RecordCatalog, Box<dyn Error>> {
        Ok(RecordCatalog::open_on(store, "records")?)
    }

    #[test]
    fn full_cli_flow() {
        let dir = tmp("flow");
        let d = dir.to_string_lossy();
        run(&args(&format!(
            "ingest --dir {d} --records 400 --species 80 --outdated 6 --seed 3"
        )))
        .unwrap();
        run(&args(&format!("stats --dir {d}"))).unwrap();
        run(&args(&format!("curate --dir {d}"))).unwrap();
        run(&args(&format!(
            "check-names --dir {d} --availability 1.0 --attempts 1"
        )))
        .unwrap();
        run(&args(&format!(
            "query --dir {d} --state Amazonas --limit 2"
        )))
        .unwrap();
        run(&args(&format!("history --dir {d} --record FNJV-000001"))).unwrap();
        run(&args(&format!("assess --dir {d}"))).unwrap();

        // The stores hold what the commands claimed.
        let store = open_store(&dir).unwrap();
        assert_eq!(store.head().count("records").unwrap(), 400);
        assert_eq!(store.head().count(UPDATED_NAMES_TABLE).unwrap(), 6);
        assert!(store.head().count("curation_history").unwrap() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reassess_consumes_the_feed_incrementally() {
        let dir = tmp("reassess");
        let d = dir.to_string_lossy();
        // Pin the collection to the 1995 edition; the planted outdated
        // names only become outdated under later releases.
        run(&args(&format!(
            "ingest --dir {d} --records 300 --species 60 --outdated 8 --seed 11 --backbone-year 1995"
        )))
        .unwrap();
        run(&args(&format!("curate --dir {d}"))).unwrap();
        run(&args(&format!("assess --dir {d}"))).unwrap();

        {
            let store = open_store(&dir).unwrap();
            let r = Reassessor::new(store.clone(), "records").unwrap();
            // assess seeded the cursor at the current head: nothing lags.
            assert_eq!(r.journal_lag().unwrap(), 0);
            assert!(!r.ledger().unwrap().is_empty());
        }

        // Backbone upgrade: journal the edition diff, delta-run only the
        // affected names, capture the run as provenance.
        run(&args(&format!("reassess --dir {d} --backbone-year 2013"))).unwrap();

        {
            let store = open_store(&dir).unwrap();
            assert_eq!(load_backbone_year(&store).unwrap(), 2013);
            let r = Reassessor::new(store.clone(), "records").unwrap();
            assert_eq!(r.journal_lag().unwrap(), 0);
            // The incrementally maintained ledger matches a full
            // re-check against the 2013 edition.
            let config = load_config(&store).unwrap();
            let collection = generator::generate(&config);
            let service = ColService::new(
                collection.checklist.as_of(2013),
                ServiceConfig {
                    availability: 1.0,
                    seed: config.seed ^ 0xC01,
                    ..ServiceConfig::default()
                },
            );
            let catalog = open_catalog(store.clone()).unwrap();
            let records = load_records(&catalog).unwrap();
            let report = OutdatedNameDetector::new(&service, 3).check_collection(&records);
            let (checked, correct) = r.ledger().unwrap().totals();
            assert_eq!(checked as usize, report.checked());
            assert_eq!(correct as usize, report.current);
            // The delta run left an OPM graph behind.
            let runs: Vec<String> = store
                .head()
                .scan(preserva_core::provenance_manager::PROVENANCE_TABLE)
                .unwrap()
                .into_iter()
                .map(|(k, _)| String::from_utf8_lossy(&k).into_owned())
                .collect();
            assert!(
                runs.iter().any(|id| id.starts_with("reassess-")),
                "no reassess provenance in {runs:?}"
            );
        }

        // A second reassess with no new journal entries is a no-op.
        run(&args(&format!("reassess --dir {d}"))).unwrap();
        let store = open_store(&dir).unwrap();
        let r = Reassessor::new(store.clone(), "records").unwrap();
        assert_eq!(r.journal_lag().unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unchanged_invocations_short_circuit() {
        let dir = tmp("shortcut");
        let d = dir.to_string_lossy();
        let ingest_line =
            format!("ingest --dir {d} --records 80 --species 12 --outdated 2 --seed 9");
        run(&args(&ingest_line)).unwrap();
        let head = {
            let store = open_store(&dir).unwrap();
            store.journal_head()
        };
        // Identical re-ingest: the journal head must not move — the
        // cached output is replayed without re-staging any row.
        run(&args(&ingest_line)).unwrap();
        {
            let store = open_store(&dir).unwrap();
            assert_eq!(store.journal_head(), head);
        }
        // A different seed really re-ingests.
        run(&args(&format!(
            "ingest --dir {d} --records 80 --species 12 --outdated 2 --seed 10"
        )))
        .unwrap();
        {
            let store = open_store(&dir).unwrap();
            assert!(store.journal_head() > head);
        }
        // stats caches its panel keyed on the journal head.
        run(&args(&format!("stats --dir {d}"))).unwrap();
        {
            let store = open_store(&dir).unwrap();
            let raw = store
                .head()
                .get(META_TABLE, b"stats-cache")
                .unwrap()
                .unwrap();
            let v: serde_json::Value = serde_json::from_slice(&raw).unwrap();
            assert_eq!(v["head"].as_u64().unwrap(), store.journal_head());
        }
        // Second stats serves from the cache (same head, same panel).
        run(&args(&format!("stats --dir {d}"))).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commands_fail_before_ingest() {
        let dir = tmp("noingest");
        let d = dir.to_string_lossy();
        assert!(run(&args(&format!("curate --dir {d}"))).is_err());
        assert!(run(&args(&format!("check-names --dir {d}"))).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_requires_a_filter() {
        let dir = tmp("nofilter");
        let d = dir.to_string_lossy();
        run(&args(&format!(
            "ingest --dir {d} --records 60 --species 10 --outdated 0"
        )))
        .unwrap();
        assert!(run(&args(&format!("query --dir {d}"))).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prov_command_captures_and_answers_indexed_queries() {
        let dir = tmp("prov");
        let d = dir.to_string_lossy();
        run(&args(&format!(
            "prov --dir {d} --capture 12 --threads 4 --linger-ms 5"
        )))
        .unwrap();
        // Queries over the persisted index (fresh process state).
        run(&args(&format!("prov --dir {d} --artifact a:*:in:specimen"))).unwrap();
        run(&args(&format!(
            "prov --dir {d} --workflow prov-demo --artifact a:*:lookup.out"
        )))
        .unwrap();
        run(&args(&format!("prov --dir {d} --list true"))).unwrap();
        // The captures and the index really landed.
        let store = open_store(&dir).unwrap();
        let manager = Arc::new(preserva_core::provenance_manager::ProvenanceManager::new(
            store,
        ));
        let index = preserva_core::prov_index::ProvIndex::new(manager.clone());
        assert_eq!(manager.run_ids().unwrap().len(), 12);
        assert_eq!(
            index
                .runs_using_artifact("a:*:in:specimen", 0)
                .unwrap()
                .len(),
            12
        );
        assert_eq!(index.lag().unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stress_command_runs_without_a_data_dir() {
        run(&args(
            "stress --runs 40 --threads 2 --availability 0.8 --max-attempts 12 --max-concurrency 2",
        ))
        .unwrap();
    }

    #[test]
    fn metrics_report_covers_every_subsystem() {
        let dir = tmp("metrics");
        let d = dir.to_string_lossy();
        run(&args(&format!(
            "ingest --dir {d} --records 60 --species 10 --outdated 0"
        )))
        .unwrap();
        // A fresh (non-global) registry so the assertions are isolated
        // from other tests in this process.
        let obs = Arc::new(preserva_obs::Registry::new());
        let text = metrics_report(&dir, &obs, false).unwrap();
        for family in [
            "preserva_storage_wal_appends_total",
            "preserva_storage_wal_fsyncs_total",
            "preserva_storage_commit_seconds",
            "preserva_storage_checkpoint_seconds",
            "preserva_storage_memtable_bytes",
            "preserva_wfms_invocations_total",
            "preserva_wfms_invocation_seconds",
            "preserva_wfms_retries_total",
            "preserva_wfms_pool_peak_workers",
            "preserva_storage_runs_per_level",
            "preserva_storage_compactions_total",
            "preserva_storage_bloom_hits_total",
            "preserva_storage_bloom_misses_total",
            "preserva_storage_ingest_records_total",
            "preserva_storage_bulk_batches_total",
            "preserva_provenance_captures_total",
            "preserva_provenance_capture_seconds",
            "preserva_quality_evaluation_seconds",
            "preserva_quality_metric_evaluation_seconds",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        // The probes generate real traffic: these must be non-zero.
        assert!(text.contains("preserva_wfms_runs_total 1"));
        assert!(text.contains("preserva_storage_bulk_batches_total 1"));
        assert!(text.contains("preserva_provenance_captures_total 1"));
        assert!(text.contains("preserva_quality_assessments_total 1"));
        // The summary flavour renders too.
        let summary = metrics_report(&dir, &obs, true).unwrap();
        assert!(summary.contains("p95"));
        // The command itself works against the global registry.
        run(&args(&format!("metrics --dir {d}"))).unwrap();
        run(&args(&format!("metrics --dir {d} --summary true"))).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bulk_ingest_builds_one_run_and_serves_every_reader() {
        let dir = tmp("bulk");
        let d = dir.to_string_lossy();
        run(&args(&format!(
            "ingest --dir {d} --records 80 --species 10 --outdated 0 --bulk true"
        )))
        .unwrap();
        {
            let store = open_store(&dir).unwrap();
            assert_eq!(store.head().count("records").unwrap(), 80);
            assert_eq!(store.journal_head(), 80, "one journal event per record");
        }
        // Index-backed query and the stats panels read the bulk run like
        // any other data.
        run(&args(&format!("query --dir {d} --year 1980 --limit 3"))).unwrap();
        run(&args(&format!("stats --dir {d}"))).unwrap();
        // The fresh-directory contract is enforced, not assumed.
        let err = run(&args(&format!("ingest --dir {d} --bulk true"))).unwrap_err();
        assert!(err.to_string().contains("fresh directory"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite: a mid-panel failure in `stats` (corrupt cache JSON)
    /// must not leave the panel snapshot pinned — a leaked pin would
    /// silently block compaction from folding MVCC versions forever.
    #[test]
    fn failed_stats_never_leaks_a_pinned_snapshot() {
        let dir = tmp("stats-pin");
        let d = dir.to_string_lossy();
        run(&args(&format!(
            "ingest --dir {d} --records 40 --species 10 --outdated 0"
        )))
        .unwrap();
        let coll = Collection::open(&dir, CollectionOptions::default()).unwrap();
        let pinned = coll
            .metrics_registry()
            .gauge("preserva_storage_snapshots_pinned", "");
        // Plant a stats-cache row that is not valid JSON: stats_on pins
        // its snapshot, then fails decoding the cache mid-panel.
        coll.store()
            .put(META_TABLE, b"stats-cache", b"{ not json")
            .unwrap();
        assert!(stats_on(&coll).is_err());
        assert_eq!(pinned.get(), 0, "error path must unpin the snapshot");
        // With no pin outstanding the tree still folds all the way down.
        coll.engine().checkpoint().unwrap();
        coll.engine().compact().unwrap();
        let levels = coll.engine().runs_per_level();
        let total: usize = levels.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 1, "compaction not blocked: {levels:?}");
        coll.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_flushes_then_merges_to_one_run() {
        let dir = tmp("compact");
        let d = dir.to_string_lossy();
        run(&args(&format!(
            "ingest --dir {d} --records 60 --species 10 --outdated 0"
        )))
        .unwrap();
        // Seed a multi-run tree (three chunked rewrites, one flush each),
        // then merge it down.
        run(&args(&format!("compact --dir {d} --flushes 3"))).unwrap();
        {
            let store = open_store(&dir).unwrap();
            let levels = store.engine().runs_per_level();
            let total: usize = levels.iter().map(|(_, n)| n).sum();
            assert_eq!(total, 1, "full compaction leaves one run: {levels:?}");
            // Data intact after the merge + reopen.
            assert_eq!(store.head().count("records").unwrap(), 60);
        }
        // Idempotent: a second compact of a single clean run is a no-op
        // but still succeeds and prints the tree.
        run(&args(&format!("compact --dir {d}"))).unwrap();
        // stats renders the tiered section against the same directory.
        run(&args(&format!("stats --dir {d}"))).unwrap();
        // Without records, --flushes has nothing to rewrite.
        let empty = tmp("compact-empty");
        assert!(run(&args(&format!(
            "compact --dir {} --flushes 2",
            empty.to_string_lossy()
        )))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&empty).ok();
    }

    /// Satellite: `open_store` used to ignore the metrics/options other
    /// commands set — every command now opens with the ONE blessed
    /// `cli_options()`, and `stats` and `metrics` must report the same
    /// engine option fingerprint for the same directory.
    #[test]
    fn stats_and_metrics_agree_on_the_option_fingerprint() {
        let dir = tmp("fingerprint");
        let d = dir.to_string_lossy();
        run(&args(&format!(
            "ingest --dir {d} --records 40 --species 10 --outdated 0"
        )))
        .unwrap();
        let fp = cli_options().fingerprint();
        {
            let coll = open_collection(&dir).unwrap();
            let panel = stats_report(&coll).unwrap();
            assert!(
                panel.contains(&format!("options fingerprint: {fp}")),
                "stats drifted from cli_options():\n{panel}"
            );
            coll.close().unwrap();
        }
        let obs = Arc::new(preserva_obs::Registry::new());
        let text = metrics_report(&dir, &obs, false).unwrap();
        assert!(
            text.contains(&format!(
                "preserva_collection_options_info{{fingerprint=\"{fp}\"}} 1"
            )),
            "metrics drifted from cli_options():\n{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_command_is_error() {
        let dir = tmp("unknown");
        let d = dir.to_string_lossy();
        assert!(run(&args(&format!("frobnicate --dir {d}"))).is_err());
    }
}

#[cfg(test)]
mod export_tests {
    use super::*;
    use crate::args::Args;

    fn args(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(str::to_string)).unwrap()
    }

    #[test]
    fn export_writes_csv_both_flavours() {
        let dir = std::env::temp_dir().join(format!("preserva-cli-{}-export", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_string_lossy();
        run(&args(&format!(
            "ingest --dir {d} --records 50 --species 10 --outdated 0 --seed 5"
        )))
        .unwrap();
        let full = dir.join("full.csv");
        let dwc = dir.join("dwc.csv");
        run(&args(&format!("export --dir {d} --out {}", full.display()))).unwrap();
        run(&args(&format!(
            "export --dir {d} --out {} --dwc true",
            dwc.display()
        )))
        .unwrap();
        let full_s = std::fs::read_to_string(&full).unwrap();
        let dwc_s = std::fs::read_to_string(&dwc).unwrap();
        assert_eq!(full_s.lines().count(), 51); // header + 50 records
        assert!(full_s.starts_with("id,"));
        assert!(dwc_s.lines().next().unwrap().contains("dwc:scientificName"));
        assert_eq!(dwc_s.lines().count(), 51);
        std::fs::remove_dir_all(&dir).ok();
    }
}
