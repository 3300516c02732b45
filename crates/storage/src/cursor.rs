//! The one merge every multi-key read and every compaction walks.
//!
//! A [`MergeCursor`] does a k-way merge of a view's layers — the active
//! memtable (copied under its read lock into one buffer, [`Copied`]),
//! the frozen memtable and the runs (both borrowed) — and yields
//! borrowed versions in `(key asc, lsn desc)` order, ties broken by
//! layer precedence. A key's first version at or below a read LSN is
//! therefore the highest LSN any layer holds for it, whichever layer
//! that is: a reader that sampled the layers one after another while a
//! flush moved data between them still sees the state of one commit.
//! Runs are walked one CRC-verified block at a time, decoded in place
//! from a buffer each run's cursor reuses
//! ([`RunCursor`](crate::sstable::RunCursor)), so a version costs no
//! allocation.

use std::cmp::{Ordering, Reverse};
use std::ops::Bound;

use crate::error::{StorageError, StorageResult};
use crate::memtable::VersionRef;
use crate::snapshot::Lsn;
use crate::sstable::{RunCursor, Versions};

/// A version as a layer holds it: `(table, key, lsn, value)`, the table
/// name still raw bytes. The merge checks it is UTF-8 once per table it
/// yields, not once per version.
pub(crate) type RawVersion<'a> = (&'a [u8], &'a [u8], Lsn, Option<&'a [u8]>);

/// The keys of one table from `start` (inclusive) to `end`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span<'k> {
    pub table: &'k str,
    pub start: &'k [u8],
    pub end: Bound<&'k [u8]>,
}

impl<'k> Span<'k> {
    /// `[start, end)` of `table`; `end = None` runs to the table's end.
    pub(crate) fn range(table: &'k str, start: &'k [u8], end: Option<&'k [u8]>) -> Self {
        Span {
            table,
            start,
            end: end.map_or(Bound::Unbounded, Bound::Excluded),
        }
    }

    /// Every version of one key.
    pub(crate) fn key(table: &'k str, key: &'k [u8]) -> Self {
        Span {
            table,
            start: key,
            end: Bound::Included(key),
        }
    }

    /// Whether `(table, key)` sorts before the span's start.
    pub(crate) fn is_before(&self, table: &[u8], key: &[u8]) -> bool {
        (table, key) < (self.table.as_bytes(), self.start)
    }

    /// Whether `(table, key)` sorts past the span's end.
    pub(crate) fn is_past(&self, table: &[u8], key: &[u8]) -> bool {
        match table.cmp(self.table.as_bytes()) {
            Ordering::Less => false,
            Ordering::Greater => true,
            Ordering::Equal => match self.end {
                Bound::Included(end) => key > end,
                Bound::Excluded(end) => key >= end,
                Bound::Unbounded => false,
            },
        }
    }

    /// An inverted or empty span holds no key.
    pub(crate) fn is_empty(&self) -> bool {
        self.is_past(self.table.as_bytes(), self.start)
    }
}

/// Versions copied into one buffer, so a reader can let go of the
/// active memtable's lock before it walks them: two allocations that
/// grow with the copy, none per version.
#[derive(Debug, Default)]
pub(crate) struct Copied {
    bytes: Vec<u8>,
    /// Per version: where its table, key and value end in `bytes` (each
    /// starts where the one before it ends), and its LSN.
    rows: Vec<(usize, usize, Lsn, Option<usize>)>,
}

impl<'v> FromIterator<VersionRef<'v>> for Copied {
    fn from_iter<I: IntoIterator<Item = VersionRef<'v>>>(versions: I) -> Self {
        let mut copied = Copied::default();
        for (table, key, lsn, value) in versions {
            let bytes = &mut copied.bytes;
            bytes.extend_from_slice(table.as_bytes());
            let table_end = bytes.len();
            bytes.extend_from_slice(key);
            let key_end = bytes.len();
            let value_end = value.map(|v| {
                bytes.extend_from_slice(v);
                bytes.len()
            });
            copied.rows.push((table_end, key_end, lsn, value_end));
        }
        copied
    }
}

impl Copied {
    /// The copied versions, in the order they were copied.
    pub(crate) fn versions(&self) -> impl Iterator<Item = RawVersion<'_>> {
        let mut start = 0;
        self.rows.iter().map(move |&(table, key, lsn, value)| {
            let version = (
                &self.bytes[start..table],
                &self.bytes[table..key],
                lsn,
                value.map(|end| &self.bytes[key..end]),
            );
            start = value.unwrap_or(key);
            version
        })
    }
}

/// One input of a merge, positioned on its current version.
pub(crate) enum Layer<'a> {
    /// A memtable's versions, or a copy of them, and the one `advance`
    /// last moved to.
    Mem(
        Box<dyn Iterator<Item = RawVersion<'a>> + 'a>,
        Option<RawVersion<'a>>,
    ),
    /// A run, walked block by block.
    Run(RunCursor<'a>),
}

impl<'a> Layer<'a> {
    /// A layer over borrowed versions in `(key asc, lsn desc)` order.
    pub(crate) fn mem(versions: impl Iterator<Item = RawVersion<'a>> + 'a) -> Self {
        Layer::Mem(Box::new(versions), None)
    }

    fn advance(&mut self) -> StorageResult<()> {
        match self {
            Layer::Mem(versions, current) => {
                *current = versions.next();
                Ok(())
            }
            Layer::Run(cursor) => cursor.advance(),
        }
    }

    fn current(&self) -> Option<RawVersion<'_>> {
        match self {
            Layer::Mem(_, current) => *current,
            Layer::Run(cursor) => cursor.current(),
        }
    }
}

/// A k-way merge of layers given newest first. Nothing is read until
/// the first [`advance`](Self::advance); a read error from any layer
/// ends the walk and surfaces to the caller.
pub(crate) struct MergeCursor<'a> {
    layers: Vec<Layer<'a>>,
    started: bool,
    /// The layer holding the current version; `None` once every layer
    /// is exhausted.
    at: Option<usize>,
    /// The current version's table and key, copied: once the layer that
    /// held a key has moved on, only this copy tells an older version of
    /// that key from the first version of the next one.
    table: String,
    key: Vec<u8>,
    starts_key: bool,
}

impl<'a> MergeCursor<'a> {
    /// A merge of `layers`, newest first: on equal `(key, lsn)` the
    /// earlier layer's version comes first.
    pub(crate) fn new(layers: Vec<Layer<'a>>) -> Self {
        MergeCursor {
            layers,
            started: false,
            at: None,
            table: String::new(),
            key: Vec::new(),
            starts_key: false,
        }
    }

    /// Move to the next version (the first, on the first call).
    pub(crate) fn advance(&mut self) -> StorageResult<()> {
        let first = !self.started;
        match self.at {
            Some(i) => self.layers[i].advance()?,
            None if first => {
                for layer in &mut self.layers {
                    layer.advance()?;
                }
                self.started = true;
            }
            None => return Ok(()),
        }
        let mut best: Option<(usize, RawVersion<'_>)> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            if let Some(v) = layer.current() {
                if best.is_none_or(|(_, b)| (v.0, v.1, Reverse(v.2)) < (b.0, b.1, Reverse(b.2))) {
                    best = Some((i, v));
                }
            }
        }
        self.at = best.map(|(i, _)| i);
        let Some((_, (table, key, _, _))) = best else {
            return Ok(());
        };
        let new_table = table != self.table.as_bytes();
        if new_table {
            let table = std::str::from_utf8(table)
                .map_err(|_| StorageError::Decode("non-utf8 table in run".into()))?;
            self.table.clear();
            self.table.push_str(table);
        }
        self.starts_key = first || new_table || key != self.key.as_slice();
        if self.starts_key {
            self.key.clear();
            self.key.extend_from_slice(key);
        }
        Ok(())
    }

    /// The version [`advance`](Self::advance) moved to; `None` at the
    /// end (and before the first call).
    pub(crate) fn current(&self) -> Option<VersionRef<'_>> {
        let (_, key, lsn, value) = self.layers[self.at?].current()?;
        Some((self.table.as_str(), key, lsn, value))
    }

    /// Whether the current version is its key's first: the highest LSN
    /// any layer holds for the key.
    pub(crate) fn starts_key(&self) -> bool {
        self.starts_key
    }

    /// Visit each key's first version at or below `max_lsn`, tombstones
    /// included (as `None`).
    pub(crate) fn for_each_newest(
        mut self,
        max_lsn: Lsn,
        mut f: impl FnMut(VersionRef<'_>),
    ) -> StorageResult<()> {
        let mut decided = false;
        loop {
            self.advance()?;
            let Some(version) = self.current() else {
                return Ok(());
            };
            decided &= !self.starts_key;
            if !decided && version.2 <= max_lsn {
                decided = true;
                f(version);
            }
        }
    }
}

impl Versions for MergeCursor<'_> {
    /// Every version of every layer, in merge order: what a flush writes
    /// when it merges a batch into the frozen memtable.
    fn for_each_version(
        &mut self,
        f: &mut dyn FnMut(VersionRef<'_>) -> StorageResult<()>,
    ) -> StorageResult<()> {
        loop {
            self.advance()?;
            let Some(version) = self.current() else {
                return Ok(());
            };
            f(version)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::Memtable;

    fn newest(layers: Vec<Layer<'_>>, max_lsn: Lsn) -> Vec<(String, Lsn, Option<Vec<u8>>)> {
        let mut out = Vec::new();
        MergeCursor::new(layers)
            .for_each_newest(max_lsn, |(_, k, lsn, v)| {
                out.push((
                    String::from_utf8(k.to_vec()).unwrap(),
                    lsn,
                    v.map(<[u8]>::to_vec),
                ))
            })
            .unwrap();
        out
    }

    fn memtable_layer(mem: &Memtable) -> Layer<'_> {
        Layer::mem(
            mem.versions(None)
                .map(|(t, k, lsn, v)| (t.as_bytes(), k, lsn, v)),
        )
    }

    /// A head scan that read the active memtable, then saw a commit and
    /// a freeze land before it read the frozen one: the active copy
    /// still holds `a@5`, the frozen memtable `a@7` beside the `log/7`
    /// that commit 7 wrote with it. The highest LSN wins, so the scan
    /// returns commit 7's state, never `a@5` beside `log/7`.
    #[test]
    fn highest_lsn_wins_across_layers_sampled_around_a_freeze() {
        let active: Copied = [("t", &b"a"[..], 5, Some(&b"5"[..]))].into_iter().collect();
        let mut frozen = Memtable::new();
        frozen.put("t", b"a", b"5".to_vec(), 5);
        frozen.put("t", b"a", b"7".to_vec(), 7);
        frozen.put("t", b"log/7", b"".to_vec(), 7);
        let layers = vec![Layer::mem(active.versions()), memtable_layer(&frozen)];
        assert_eq!(
            newest(layers, Lsn::MAX),
            vec![
                ("a".to_string(), 7, Some(b"7".to_vec())),
                ("log/7".to_string(), 7, Some(Vec::new())),
            ]
        );
    }

    #[test]
    fn equal_versions_resolve_by_layer_precedence() {
        let mut newer = Memtable::new();
        newer.delete("t", b"k", 3);
        let mut older = Memtable::new();
        older.put("t", b"k", b"stale".to_vec(), 3);
        older.put("t", b"z", b"z".to_vec(), 2);
        let layers = vec![memtable_layer(&newer), memtable_layer(&older)];
        assert_eq!(
            newest(layers, Lsn::MAX),
            vec![
                ("k".to_string(), 3, None),
                ("z".to_string(), 2, Some(b"z".to_vec())),
            ]
        );
        // Below a pin, the next-newest version answers.
        let layers = vec![memtable_layer(&newer), memtable_layer(&older)];
        assert_eq!(
            newest(layers, 2),
            vec![("z".to_string(), 2, Some(b"z".to_vec()))]
        );
    }

    #[test]
    fn copied_versions_roundtrip() {
        let rows = [
            ("a", &b""[..], 1, None),
            ("a", &b"k"[..], 2, Some(&b""[..])),
            ("bb", &b"kk"[..], 3, Some(&b"vv"[..])),
        ];
        let copied: Copied = rows.into_iter().collect();
        let back: Vec<_> = copied.versions().collect();
        let want: Vec<RawVersion<'_>> = rows
            .iter()
            .map(|&(t, k, lsn, v)| (t.as_bytes(), k, lsn, v))
            .collect();
        assert_eq!(back, want);
    }

    #[test]
    fn spans_bound_their_keys() {
        let range = Span::range("t", b"b", Some(b"d"));
        assert!(range.is_before(b"t", b"a") && !range.is_before(b"t", b"b"));
        assert!(range.is_before(b"s", b"z"));
        assert!(!range.is_past(b"t", b"c") && range.is_past(b"t", b"d"));
        assert!(range.is_past(b"u", b""));
        let key = Span::key("t", b"k");
        assert!(!key.is_past(b"t", b"k") && key.is_past(b"t", b"k\0"));
        assert!(Span::range("t", b"d", Some(b"b")).is_empty());
        assert!(Span::range("t", b"b", Some(b"b")).is_empty());
        assert!(!Span::range("t", b"", None).is_empty());
    }
}
