//! Ordered in-memory multi-version write buffer.
//!
//! One flat `BTreeMap` holds every committed version, keyed by
//! `((table, key), Reverse<Lsn>)`: range scans within a table are
//! contiguous, and a key's versions sit side by side, newest first.
//! Overwrites and deletions *accrete* instead of replacing, so a reader
//! pinned at any LSN still finds the version it saw at pin time. The
//! map owns the bytes a commit hands it — table, key and value move in
//! from the batch, so a committed value is held once. Deletions are
//! retained as tombstones (`None`). Versions are only folded later, by
//! compaction, below the oldest pinned snapshot. A point read seeks
//! straight to its pin; a range scan steps over each key's other
//! versions one by one, a walk the flush threshold bounds, since a flush
//! moves every version into a run. Both probe the map with borrowed
//! keys (`Probe`), so a read allocates nothing to find its place.

use std::borrow::Borrow;
use std::cmp::{Ordering, Reverse};
use std::collections::BTreeMap;
use std::ops::Bound;

use crate::cursor::Span;
use crate::snapshot::Lsn;
use crate::wal::BatchOp;

/// Composite key: table name + user key, ordered by table first.
pub type NsKey = (String, Vec<u8>);

/// A version's place in the map: its key, then its LSN newest first.
type VersionKey = (NsKey, Reverse<Lsn>);

/// A version key seen through borrowed parts, so the map can be probed
/// with `(&str, &[u8], Reverse<Lsn>)` and no owned key is built. Its
/// order is [`VersionKey`]'s: table, key, then LSN descending.
trait Probe {
    fn parts(&self) -> (&str, &[u8], Reverse<Lsn>);
}

impl Probe for VersionKey {
    fn parts(&self) -> (&str, &[u8], Reverse<Lsn>) {
        (&self.0 .0, &self.0 .1, self.1)
    }
}

impl Probe for (&str, &[u8], Reverse<Lsn>) {
    fn parts(&self) -> (&str, &[u8], Reverse<Lsn>) {
        *self
    }
}

impl<'a> Borrow<dyn Probe + 'a> for VersionKey {
    fn borrow(&self) -> &(dyn Probe + 'a) {
        self
    }
}

impl PartialEq for dyn Probe + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn Probe + '_ {}

impl PartialOrd for dyn Probe + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn Probe + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.parts().cmp(&other.parts())
    }
}

/// A version's share of a memtable's size estimate, the unit
/// `checkpoint_bytes` counts: table + key + value + 8 bytes.
pub(crate) fn version_bytes((table, key, value): (&str, &[u8], Option<&[u8]>)) -> usize {
    table.len() + key.len() + value.map_or(0, <[u8]>::len) + 8
}

/// A borrowed version, as a flush streams it: `(table, key, lsn,
/// value)`, where a `None` value is a point tombstone.
pub type VersionRef<'a> = (&'a str, &'a [u8], Lsn, Option<&'a [u8]>);

/// The mutable, ordered, multi-version write buffer of the engine.
#[derive(Debug, Default, Clone)]
pub struct Memtable {
    entries: BTreeMap<VersionKey, Option<Vec<u8>>>,
    /// Point writes applied, including a batch's repeated write of one
    /// key that the map keeps once. The flush sizes its run's bloom
    /// filter from this count, so run bytes depend on it.
    versions: usize,
    approx_bytes: usize,
    /// Largest LSN of any buffered version.
    max_lsn: Option<Lsn>,
}

impl Memtable {
    /// Create an empty memtable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Upsert a value at `lsn`, taking ownership of the bytes. Older
    /// versions of the key are retained.
    pub fn put(
        &mut self,
        table: impl Into<String>,
        key: impl Into<Vec<u8>>,
        value: Vec<u8>,
        lsn: Lsn,
    ) {
        self.insert(table.into(), key.into(), Some(value), lsn);
    }

    /// Record a deletion tombstone at `lsn`.
    pub fn delete(&mut self, table: impl Into<String>, key: impl Into<Vec<u8>>, lsn: Lsn) {
        self.insert(table.into(), key.into(), None, lsn);
    }

    fn insert(&mut self, table: String, key: Vec<u8>, value: Option<Vec<u8>>, lsn: Lsn) {
        self.approx_bytes += version_bytes((&table, &key, value.as_deref()));
        self.versions += 1;
        self.max_lsn = self.max_lsn.max(Some(lsn));
        self.entries.insert(((table, key), Reverse(lsn)), value);
    }

    /// Apply one committed batch operation at `lsn`, moving its bytes in.
    pub fn apply(&mut self, op: BatchOp, lsn: Lsn) {
        match op {
            BatchOp::Put { table, key, value } => self.put(table, key, value, lsn),
            BatchOp::Delete { table, key } => self.delete(table, key, lsn),
        }
    }

    /// Newest version of a key at or below `max_lsn`. `None` means "no
    /// version visible here"; `Some((lsn, None))` is a tombstone.
    pub fn get(&self, table: &str, key: &[u8], max_lsn: Lsn) -> Option<(Lsn, Option<&[u8]>)> {
        let probe = (table, key, Reverse(max_lsn));
        self.entries
            .range::<dyn Probe, _>((Bound::Included(&probe as &dyn Probe), Bound::Unbounded))
            .next()
            .filter(|(((t, k), _), _)| t == table && k == key)
            .map(|((_, Reverse(lsn)), v)| (*lsn, v.as_deref()))
    }

    /// Iterate the newest visible version (at or below `max_lsn`) of
    /// every key of `table` in `[start, end)` (`end = None` means
    /// unbounded). Tombstones are included.
    pub fn range<'a>(
        &'a self,
        table: &'a str,
        start: &'a [u8],
        end: Option<&'a [u8]>,
        max_lsn: Lsn,
    ) -> impl Iterator<Item = (&'a [u8], Lsn, Option<&'a [u8]>)> + 'a {
        let mut last: Option<&'a [u8]> = None;
        self.versions(Some(Span::range(table, start, end)))
            .filter_map(move |(_, k, lsn, v)| {
                // Versions run newest first: the first one at or below
                // the pin answers for its key, the rest are stepped over.
                if lsn > max_lsn || last == Some(k) {
                    return None;
                }
                last = Some(k);
                Some((k, lsn, v))
            })
    }

    /// Every version in `span` — of every table when `None` — borrowed
    /// and ordered `(key asc, lsn desc)`, as a read merges them.
    pub(crate) fn versions<'a>(
        &'a self,
        span: Option<Span<'a>>,
    ) -> impl Iterator<Item = VersionRef<'a>> + 'a {
        // `Reverse(Lsn::MAX)` sorts first among a key's versions and
        // `Reverse(0)` last.
        let range = match span {
            None => Some(self.entries.range::<dyn Probe, _>(..)),
            // An empty span is an empty range, not a panic
            // (BTreeMap::range panics on start > end).
            Some(s) if s.is_empty() => None,
            Some(s) => {
                let lo = (s.table, s.start, Reverse(Lsn::MAX));
                let hi = match s.end {
                    Bound::Included(e) => Bound::Included((s.table, e, Reverse(0))),
                    Bound::Excluded(e) => Bound::Excluded((s.table, e, Reverse(Lsn::MAX))),
                    Bound::Unbounded => Bound::Unbounded,
                };
                Some(self.entries.range::<dyn Probe, _>((
                    Bound::Included(&lo as &dyn Probe),
                    hi.as_ref().map(|h| h as &dyn Probe),
                )))
            }
        };
        let table = span.map(|s| s.table);
        range
            .into_iter()
            .flatten()
            .take_while(move |(((t, _), _), _)| table.is_none_or(|table| t == table))
            .map(|(((t, k), Reverse(lsn)), v)| (t.as_str(), k.as_slice(), *lsn, v.as_deref()))
    }

    /// Number of versions (including tombstones) inserted across
    /// all keys — the memory-amplification numerator. A batch writing
    /// one key twice counts twice, though only its last write stays.
    pub fn len(&self) -> usize {
        self.versions
    }

    /// Number of distinct keys holding at least one version.
    pub fn keys(&self) -> usize {
        let mut prev: Option<&NsKey> = None;
        self.entries
            .keys()
            .filter(|(k, _)| prev.replace(k) != Some(k))
            .count()
    }

    /// True when no version is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated bytes buffered: table + key + value + 8 per version.
    /// Drives checkpoint scheduling; it leaves out the map's own
    /// per-entry overhead.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Every version, borrowed and ordered `(key asc, lsn desc)`: what a
    /// memtable-only flush streams into the run writer while the engine
    /// keeps serving reads out of the live memtable.
    pub fn iter(&self) -> impl Iterator<Item = VersionRef<'_>> {
        self.versions(None)
    }

    /// Largest LSN of any buffered version.
    pub fn max_lsn(&self) -> Option<Lsn> {
        self.max_lsn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATEST: Lsn = Lsn::MAX;

    #[test]
    fn put_get_delete() {
        let mut m = Memtable::new();
        m.put("t", b"k", b"v".to_vec(), 1);
        assert_eq!(m.get("t", b"k", LATEST), Some((1, Some(&b"v"[..]))));
        m.delete("t", b"k", 2);
        assert_eq!(m.get("t", b"k", LATEST), Some((2, None)));
        assert_eq!(m.get("t", b"absent", LATEST), None);
        assert_eq!(m.get("other", b"k", LATEST), None);
    }

    #[test]
    fn versions_accrete_and_pin_reads_see_the_past() {
        let mut m = Memtable::new();
        m.put("t", b"k", b"v1".to_vec(), 1);
        m.put("t", b"k", b"v2".to_vec(), 5);
        m.delete("t", b"k", 9);
        assert_eq!(m.len(), 3, "all versions resident");
        assert_eq!(m.keys(), 1);
        // Reads at each pin point see exactly what was committed by then.
        assert_eq!(m.get("t", b"k", 0), None);
        assert_eq!(m.get("t", b"k", 1), Some((1, Some(&b"v1"[..]))));
        assert_eq!(m.get("t", b"k", 4), Some((1, Some(&b"v1"[..]))));
        assert_eq!(m.get("t", b"k", 5), Some((5, Some(&b"v2"[..]))));
        assert_eq!(m.get("t", b"k", LATEST), Some((9, None)));
    }

    #[test]
    fn range_is_table_scoped_and_ordered() {
        let mut m = Memtable::new();
        m.put("a", b"2", b"a2".to_vec(), 1);
        m.put("a", b"1", b"a1".to_vec(), 2);
        m.put("b", b"0", b"b0".to_vec(), 3);
        let keys: Vec<_> = m
            .range("a", b"", None, LATEST)
            .map(|(k, _, _)| k.to_vec())
            .collect();
        assert_eq!(keys, vec![b"1".to_vec(), b"2".to_vec()]);
    }

    #[test]
    fn range_respects_bounds_and_max_lsn() {
        let mut m = Memtable::new();
        for (i, k) in [b"a", b"b", b"c", b"d"].iter().enumerate() {
            m.put("t", *k, k.to_vec(), i as Lsn + 1);
        }
        let keys: Vec<_> = m
            .range("t", b"b", Some(b"d"), LATEST)
            .map(|(k, _, _)| k.to_vec())
            .collect();
        assert_eq!(keys, vec![b"b".to_vec(), b"c".to_vec()]);
        // A pin before "c" and "d" were written sees only "a" and "b".
        let pinned: Vec<_> = m
            .range("t", b"", None, 2)
            .map(|(k, _, _)| k.to_vec())
            .collect();
        assert_eq!(pinned, vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn inverted_range_is_empty_not_panic() {
        let mut m = Memtable::new();
        m.put("t", b"m", b"v".to_vec(), 1);
        assert_eq!(m.range("t", b"z", Some(b"a"), LATEST).count(), 0);
        // Equal bounds: empty half-open interval.
        assert_eq!(m.range("t", b"m", Some(b"m"), LATEST).count(), 0);
    }

    #[test]
    fn tombstones_appear_in_range() {
        let mut m = Memtable::new();
        m.put("t", b"a", b"1".to_vec(), 1);
        m.delete("t", b"b", 2);
        let got: Vec<_> = m.range("t", b"", None, LATEST).collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].2, None);
    }

    #[test]
    fn entries_stream_is_key_asc_lsn_desc() {
        let mut m = Memtable::new();
        m.put("t", b"a", b"1".to_vec(), 1);
        m.put("t", b"a", b"2".to_vec(), 3);
        m.put("t", b"b", b"3".to_vec(), 2);
        let flat: Vec<_> = m.iter().map(|(_, k, lsn, _)| (k.to_vec(), lsn)).collect();
        assert_eq!(
            flat,
            vec![(b"a".to_vec(), 3), (b"a".to_vec(), 1), (b"b".to_vec(), 2)]
        );
        assert_eq!(m.max_lsn(), Some(3));
    }
}
