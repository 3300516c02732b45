//! Snapshot-pinned reads over the search tables.
//!
//! A [`SearchReader`] holds only config — every method takes the
//! `TableSnapshot` to answer from, so callers (the server handlers in
//! particular) pin exactly one snapshot, answer the whole request from
//! it, and can report the precise LSN alongside the results.

use std::collections::{BTreeMap, BTreeSet};

use preserva_storage::table::TableSnapshot;
use preserva_storage::StorageResult;
use preserva_taxonomy::fuzzy;
use preserva_taxonomy::ngram::{candidate_threshold, grams};

use crate::{join_key, tables, SearchConfig, SEP};
use preserva_storage::view::ViewState;

/// Exclusive upper bound for a prefix scan: the prefix with its last
/// byte incremented (our prefixes always end with [`SEP`] = 0x00, so
/// the increment never carries).
fn prefix_end(prefix: &[u8]) -> Vec<u8> {
    let mut end = prefix.to_vec();
    let last = end.last_mut().expect("prefix never empty");
    debug_assert!(*last < 0xFF);
    *last += 1;
    end
}

/// One token query's result set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchHits {
    /// Records matching every query token (in key order).
    pub ids: Vec<String>,
    /// Total matches before the limit was applied.
    pub total: usize,
}

/// One fuzzy species-name lookup result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzyHit {
    /// The winning indexed name — identical to what the linear
    /// `best_match` scan over all indexed names would return.
    pub name: String,
    /// Its edit distance from the query.
    pub distance: usize,
    /// Candidates actually scored (the O(candidates) in the claim).
    pub candidates_scored: usize,
}

/// Facet → value → count.
pub type FacetCounts = BTreeMap<String, BTreeMap<String, u64>>;

/// Read-side of the search layer.
#[derive(Debug, Clone)]
pub struct SearchReader {
    config: SearchConfig,
}

impl SearchReader {
    /// A reader answering under `config` (must match the indexer's).
    pub fn new(config: SearchConfig) -> SearchReader {
        SearchReader { config }
    }

    /// The config queries are interpreted under.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// The indexer cursor as of `snap` — pair with `snap.lsn()` to
    /// report exactly how fresh an answer is.
    pub fn cursor_at(&self, snap: &TableSnapshot) -> StorageResult<u64> {
        Ok(ViewState::load_at(snap, tables::META)?.cursor)
    }

    /// Record ids whose `field` contains `token`, straight off the
    /// postings table.
    fn token_hits(
        &self,
        snap: &TableSnapshot,
        field: &str,
        token: &str,
    ) -> StorageResult<BTreeSet<Vec<u8>>> {
        let mut prefix = join_key(&[field.as_bytes(), token.as_bytes()]);
        prefix.push(SEP);
        let end = prefix_end(&prefix);
        let rows = snap.scan_range(tables::POSTINGS, &prefix, Some(&end))?;
        Ok(rows
            .into_iter()
            .map(|(k, _)| k[prefix.len()..].to_vec())
            .collect())
    }

    /// Records matching EVERY token of `terms` (tokenized like the
    /// index side). `field` restricts the match to one field; `None`
    /// matches a token anywhere in the configured fields. Ids come back
    /// in key order, truncated to `limit` with the pre-limit total.
    pub fn query(
        &self,
        snap: &TableSnapshot,
        field: Option<&str>,
        terms: &str,
        limit: usize,
    ) -> StorageResult<SearchHits> {
        let tokens = crate::tokenize(terms);
        if tokens.is_empty() {
            return Ok(SearchHits::default());
        }
        let fields: Vec<&str> = match field {
            Some(f) => vec![f],
            None => self.config.fields.iter().map(String::as_str).collect(),
        };
        let mut matched: Option<BTreeSet<Vec<u8>>> = None;
        for token in &tokens {
            let mut hits = BTreeSet::new();
            for f in &fields {
                hits.extend(self.token_hits(snap, f, token)?);
            }
            matched = Some(match matched {
                None => hits,
                Some(prev) => prev.intersection(&hits).cloned().collect(),
            });
            if matched.as_ref().is_some_and(BTreeSet::is_empty) {
                break;
            }
        }
        let matched = matched.unwrap_or_default();
        let total = matched.len();
        let ids = matched
            .into_iter()
            .take(limit)
            .map(|pk| String::from_utf8_lossy(&pk).into_owned())
            .collect();
        Ok(SearchHits { ids, total })
    }

    /// Facet breakdowns from the counter rows alone — the record table
    /// is never touched. `facet` restricts to one facet name.
    pub fn facets(&self, snap: &TableSnapshot, facet: Option<&str>) -> StorageResult<FacetCounts> {
        let rows = match facet {
            Some(f) => {
                let mut prefix = f.as_bytes().to_vec();
                prefix.push(SEP);
                let end = prefix_end(&prefix);
                snap.scan_range(tables::FACETS, &prefix, Some(&end))?
            }
            None => snap.scan(tables::FACETS)?,
        };
        let mut out: FacetCounts = BTreeMap::new();
        for (key, value) in rows {
            let mut parts = key.splitn(2, |&b| b == SEP);
            let name = String::from_utf8_lossy(parts.next().unwrap_or(b"")).into_owned();
            let val = String::from_utf8_lossy(parts.next().unwrap_or(b"")).into_owned();
            let count = String::from_utf8_lossy(&value).parse::<u64>().unwrap_or(0);
            out.entry(name).or_default().insert(val, count);
        }
        Ok(out)
    }

    /// Every indexed species name, in key order (the fallback scan set
    /// and the delta≡full comparison baseline).
    pub fn names(&self, snap: &TableSnapshot) -> StorageResult<Vec<String>> {
        Ok(snap
            .scan_keys(tables::NAMES)?
            .into_iter()
            .map(|k| String::from_utf8_lossy(&k).into_owned())
            .collect())
    }

    /// Fuzzy candidates for `query` within `max_distance`, via the
    /// persisted n-gram postings. A provable superset of every indexed
    /// name within budget (see `preserva_taxonomy::ngram`); degenerates
    /// to all names when the count-filtering bound does.
    pub fn fuzzy_candidates(
        &self,
        snap: &TableSnapshot,
        query: &str,
        max_distance: usize,
    ) -> StorageResult<Vec<String>> {
        let g = self.config.gram;
        let q = grams(query, g);
        let threshold = match candidate_threshold(q.len(), g, max_distance) {
            Some(t) => t,
            None => return self.names(snap),
        };
        let mut shared: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
        for gram in &q {
            let mut prefix = gram.as_bytes().to_vec();
            prefix.push(SEP);
            let end = prefix_end(&prefix);
            for (key, _) in snap.scan_range(tables::NGRAMS, &prefix, Some(&end))? {
                *shared.entry(key[prefix.len()..].to_vec()).or_insert(0) += 1;
            }
        }
        Ok(shared
            .into_iter()
            .filter(|&(_, n)| n >= threshold)
            .map(|(name, _)| String::from_utf8_lossy(&name).into_owned())
            .collect())
    }

    /// The closest indexed species name within `max_distance` —
    /// byte-for-byte the winner `fuzzy::best_match` would pick scanning
    /// ALL indexed names, computed over only the n-gram candidates.
    pub fn fuzzy(
        &self,
        snap: &TableSnapshot,
        query: &str,
        max_distance: usize,
    ) -> StorageResult<Option<FuzzyHit>> {
        let candidates = self.fuzzy_candidates(snap, query, max_distance)?;
        let scored = candidates.len();
        Ok(
            fuzzy::best_match(query, candidates.iter().map(String::as_str), max_distance).map(
                |m| FuzzyHit {
                    name: m.candidate.to_string(),
                    distance: m.distance,
                    candidates_scored: scored,
                },
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_end_increments_separator() {
        assert_eq!(prefix_end(b"abc\x00"), b"abc\x01".to_vec());
    }
}
