//! Sharded record catalog: hash-partitioned engine shards behind a thin
//! router, for archive-scale parallel ingest.
//!
//! The paper's preservation archive is loaded in observatory-scale bulk
//! (Gray et al.) and then served read-mostly. One storage engine
//! serializes all writers behind one WAL lock; a [`ShardedCatalog`]
//! removes that ceiling by hash-partitioning records across N fully
//! independent engines — each with its own WAL, memtable, run tree,
//! journal and metrics — and running per-shard ingest, flush and
//! compaction in parallel on the wfms worker pool
//! ([`preserva_wfms::pool::scoped_run`]). Reads route by the same hash
//! (point lookups touch one shard; queries fan out and merge), and
//! stats/journal heads are reported per shard plus merged.
//!
//! Shard membership is determined by `fnv1a(record id) % N`, so a
//! catalog must be reopened with the same shard count it was created
//! with; the router persists nothing itself — each shard directory is a
//! complete, self-describing engine.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use preserva_metadata::query::Query;
use preserva_metadata::record::Record;
use preserva_storage::engine::{Engine, EngineOptions, EngineStats};
use preserva_storage::table::{CommitReceipt, TableStore};
use preserva_wfms::pool::scoped_run;

use crate::collection::RECORDS_TABLE;
use crate::retrieval::{CatalogError, RecordCatalog};

/// FNV-1a over the record id — the shard routing hash. Stable across
/// processes and platforms (no `RandomState`), so a reopened catalog
/// routes every id to the shard that holds it.
fn route_hash(id: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in id.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One shard: an independent engine + table store + record catalog.
struct Shard {
    dir: PathBuf,
    store: Arc<TableStore>,
    catalog: RecordCatalog,
}

/// Outcome of a sharded ingest: per-shard receipts plus the totals.
#[derive(Debug, Clone, Default)]
pub struct ShardedIngest {
    /// Records routed and committed.
    pub records: u64,
    /// Shards that received at least one record.
    pub shards_used: usize,
    /// `(shard index, receipt)` for every shard that committed.
    pub receipts: Vec<(usize, CommitReceipt)>,
}

impl ShardedIngest {
    /// Journal events appended across all shards.
    pub fn journal_events(&self) -> u64 {
        self.receipts.iter().map(|(_, r)| r.entries()).sum()
    }
}

/// A record catalog hash-partitioned across N independent engine
/// shards. See the module docs for the routing and parallelism model.
pub struct ShardedCatalog {
    shards: Vec<Shard>,
}

impl std::fmt::Debug for ShardedCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCatalog")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardedCatalog {
    /// Open (creating if absent) `shards` engine shards under `root`,
    /// one subdirectory each (`shard-000`, `shard-001`, …), every shard
    /// carrying the full catalog index set and change journal. `shards`
    /// is clamped to at least 1. Reopen with the same count — routing
    /// is `hash % N`.
    pub fn open(
        root: &Path,
        shards: usize,
        options: EngineOptions,
    ) -> Result<ShardedCatalog, CatalogError> {
        let n = shards.max(1);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let dir = root.join(format!("shard-{i:03}"));
            let store = Arc::new(TableStore::new(Arc::new(Engine::open(
                &dir,
                options.clone(),
            )?)));
            let catalog = RecordCatalog::open_on(store.clone(), RECORDS_TABLE)?;
            out.push(Shard {
                dir,
                store,
                catalog,
            });
        }
        Ok(ShardedCatalog { shards: out })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Directory of shard `i` (for tooling and tests).
    pub fn shard_dir(&self, i: usize) -> &Path {
        &self.shards[i].dir
    }

    /// Home shard of a record id (stable FNV-1a routing, `hash % N`).
    pub fn shard_of(&self, id: &str) -> usize {
        (route_hash(id) % self.shards.len() as u64) as usize
    }

    /// Direct access to one shard's catalog, for callers that partition
    /// work themselves (per-shard writers, benches, repair tools).
    /// Writes through it MUST target ids that [`shard_of`](Self::shard_of)
    /// routes to `i`, or routed reads will miss them.
    pub fn catalog_of(&self, i: usize) -> &RecordCatalog {
        &self.shards[i].catalog
    }

    /// Partition `records` by routing hash, preserving input order
    /// within each shard.
    fn partition<'a>(&self, records: &'a [Record]) -> Vec<Vec<&'a Record>> {
        let mut parts: Vec<Vec<&Record>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for r in records {
            parts[self.shard_of(&r.id)].push(r);
        }
        parts
    }

    /// Ingest `records` across all shards in parallel — one worker per
    /// shard on the wfms pool. With `bulk = true` each shard commits
    /// through the direct-run fast path
    /// ([`RecordCatalog::insert_all_bulk`]; fresh ids only); otherwise
    /// through one ordinary session commit per shard.
    pub fn ingest(&self, records: &[Record], bulk: bool) -> Result<ShardedIngest, CatalogError> {
        let parts = self.partition(records);
        let jobs: Vec<(usize, Vec<Record>)> = parts
            .into_iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(i, p)| (i, p.into_iter().cloned().collect()))
            .collect();
        let (results, _report) = scoped_run(self.shards.len(), &jobs, |(i, recs)| {
            let catalog = &self.shards[*i].catalog;
            let receipt = if bulk {
                catalog.insert_all_bulk(recs)?
            } else {
                catalog.insert_all(recs)?
            };
            Ok::<(usize, u64, CommitReceipt), CatalogError>((*i, recs.len() as u64, receipt))
        });
        let mut out = ShardedIngest::default();
        for res in results {
            let (i, n, receipt) = res?;
            out.records += n;
            out.shards_used += 1;
            out.receipts.push((i, receipt));
        }
        out.receipts.sort_by_key(|(i, _)| *i);
        Ok(out)
    }

    /// Load one record: a single point lookup on its home shard.
    pub fn get(&self, id: &str) -> Result<Option<Record>, CatalogError> {
        self.shards[self.shard_of(id)].catalog.get(id)
    }

    /// Run a query on every shard in parallel and merge the hits in id
    /// order, re-applying the query's limit to the merged set.
    pub fn query(&self, query: &Query) -> Result<Vec<Record>, CatalogError> {
        let idx: Vec<usize> = (0..self.shards.len()).collect();
        let (results, _) = scoped_run(self.shards.len(), &idx, |i| {
            self.shards[*i].catalog.query(query)
        });
        let mut merged = Vec::new();
        for res in results {
            merged.extend(res?);
        }
        merged.sort_by(|a, b| a.id.cmp(&b.id));
        if let Some(n) = query.limit {
            merged.truncate(n);
        }
        Ok(merged)
    }

    /// Total records across all shards.
    pub fn len(&self) -> Result<usize, CatalogError> {
        let mut total = 0;
        for s in &self.shards {
            total += s.catalog.len()?;
        }
        Ok(total)
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> Result<bool, CatalogError> {
        Ok(self.len()? == 0)
    }

    /// Journal head of every shard, in shard order. The merged head of
    /// a sharded catalog is this whole vector — cursors are per shard.
    pub fn journal_heads(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.store.journal_head()).collect()
    }

    /// Engine stats summed across shards (`torn_tail_discarded` ORs).
    pub fn merged_stats(&self) -> EngineStats {
        let mut merged = EngineStats::default();
        for s in &self.shards {
            let st = s.store.engine().stats();
            merged.puts += st.puts;
            merged.deletes += st.deletes;
            merged.gets += st.gets;
            merged.scans += st.scans;
            merged.commits += st.commits;
            merged.checkpoints += st.checkpoints;
            merged.compactions += st.compactions;
            merged.recovered_records += st.recovered_records;
            merged.recovered_from_snapshot += st.recovered_from_snapshot;
            merged.torn_tail_discarded |= st.torn_tail_discarded;
        }
        merged
    }

    /// Flush every shard's memtable in parallel.
    pub fn checkpoint_all(&self) -> Result<(), CatalogError> {
        let idx: Vec<usize> = (0..self.shards.len()).collect();
        let (results, _) = scoped_run(self.shards.len(), &idx, |i| {
            self.shards[*i].store.engine().checkpoint()
        });
        for res in results {
            res?;
        }
        Ok(())
    }

    /// Force a full compaction on every shard in parallel.
    pub fn compact_all(&self) -> Result<(), CatalogError> {
        let idx: Vec<usize> = (0..self.shards.len()).collect();
        let (results, _) = scoped_run(self.shards.len(), &idx, |i| {
            self.shards[*i].store.engine().compact()
        });
        for res in results {
            res?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_metadata::query::Filter;
    use preserva_metadata::value::Value;

    fn tmproot(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("preserva-shard-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::new(format!("rec-{i:05}"))
                    .with("species", Value::Text("Hyla faber".into()))
                    .with(
                        "state",
                        Value::Text(if i % 2 == 0 { "SP" } else { "AM" }.into()),
                    )
            })
            .collect()
    }

    #[test]
    fn sharded_ingest_routes_and_merges() {
        let root = tmproot("route");
        let cat = ShardedCatalog::open(&root, 4, EngineOptions::default()).unwrap();
        let recs = records(200);
        let out = cat.ingest(&recs, true).unwrap();
        assert_eq!(out.records, 200);
        assert!(out.shards_used > 1, "200 ids must spread over 4 shards");
        assert_eq!(out.journal_events(), 200, "every record journaled once");
        assert_eq!(cat.len().unwrap(), 200);
        // Point reads route to the owning shard.
        assert_eq!(cat.get("rec-00123").unwrap().unwrap().id, "rec-00123");
        assert!(cat.get("missing").unwrap().is_none());
        // Fan-out query merges in id order and honors the limit.
        let q = Query::new(Filter::TextEq {
            field: "state".into(),
            value: "SP".into(),
        });
        let hits = cat.query(&q).unwrap();
        assert_eq!(hits.len(), 100);
        assert!(hits.windows(2).all(|w| w[0].id < w[1].id));
        let limited = cat
            .query(&Query {
                limit: Some(7),
                ..q
            })
            .unwrap();
        assert_eq!(limited.len(), 7);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reopened_catalog_routes_identically() {
        let root = tmproot("reopen");
        {
            let cat = ShardedCatalog::open(&root, 3, EngineOptions::default()).unwrap();
            cat.ingest(&records(60), true).unwrap();
            cat.checkpoint_all().unwrap();
        }
        let cat = ShardedCatalog::open(&root, 3, EngineOptions::default()).unwrap();
        assert_eq!(cat.len().unwrap(), 60);
        for i in 0..60 {
            let id = format!("rec-{i:05}");
            assert_eq!(cat.get(&id).unwrap().unwrap().id, id, "stable routing");
        }
        let heads = cat.journal_heads();
        assert_eq!(heads.len(), 3);
        assert_eq!(
            heads.iter().sum::<u64>(),
            60,
            "journal heads recovered per shard"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn merged_stats_aggregate_across_shards() {
        let root = tmproot("stats");
        let cat = ShardedCatalog::open(&root, 2, EngineOptions::default()).unwrap();
        let before = cat.merged_stats();
        cat.ingest(&records(40), false).unwrap();
        let stats = cat.merged_stats();
        assert_eq!(
            stats.commits - before.commits,
            2,
            "session mode: one commit per shard touched"
        );
        assert!(stats.puts - before.puts >= 40);
        cat.compact_all().unwrap();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn single_shard_is_a_plain_catalog() {
        let root = tmproot("one");
        let cat = ShardedCatalog::open(&root, 0, EngineOptions::default()).unwrap();
        assert_eq!(cat.shard_count(), 1, "shard count clamps to 1");
        let out = cat.ingest(&records(10), true).unwrap();
        assert_eq!(out.shards_used, 1);
        assert_eq!(cat.len().unwrap(), 10);
        std::fs::remove_dir_all(&root).ok();
    }
}
