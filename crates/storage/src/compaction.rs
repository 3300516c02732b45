//! Leveled compaction: planning and the fold rules a merge applies.
//!
//! The tiered store accumulates runs at level 1 (one per memtable flush).
//! When a level holds more than `max_runs_per_level` runs, compaction
//! merges *all* runs of that level together with all runs of the next
//! level into a single run at the next level. Tombstones are folded out
//! only when the output is the bottom of the tree — i.e. no run at a
//! deeper level remains that an older version could hide under.
//!
//! Under MVCC the merge is additionally bounded by the **fold horizon**
//! `H` — the oldest pinned snapshot LSN, or the committed LSN when
//! nothing is pinned. Every version with `lsn > H` survives verbatim (a
//! pinned reader between two such versions must still tell them apart);
//! of the versions at or below `H` only the newest is kept, and even it
//! is dropped when it is a tombstone and the output is the bottom level.
//!
//! Invariants the planner and merge preserve:
//!
//! * **Precedence = (level asc, id desc).** A level-1 run always holds
//!   newer versions than any deeper run — flushes are the only source of
//!   level-1 runs and a compaction output (level ≥ 2) only contains data
//!   older than every surviving flush. Within a level ids are monotonic
//!   recency (flushes serialize; a level ≥ 2 holds at most one run). Id
//!   alone is *not* a recency order: a compaction can be allocated a
//!   higher output id than a concurrently flushed run holding newer
//!   data. The merge feeds inputs in precedence order and emits the
//!   first version it sees of each key.
//! * **Tombstone safety.** A tombstone may only be dropped when every
//!   older version of its key is part of the same merge. That is exactly
//!   the "no deeper level remains" condition.
//! * **Crash safety.** The output is written to a `.tmp`, fsynced,
//!   renamed, then the manifest is swapped; input files are deleted last.
//!   Recovery removes temp files and any run not in the manifest.

use crate::cursor::{Layer, MergeCursor};
use crate::error::StorageResult;
use crate::manifest::RunEntry;
use crate::memtable::VersionRef;
use crate::snapshot::Lsn;
use crate::sstable::{Run, Versions};

/// Tuning knobs for the compactor, carried inside `EngineOptions`.
#[derive(Debug, Clone)]
pub struct CompactionOptions {
    /// Run compactions on a background thread. When off, the engine
    /// drains pending compactions synchronously after each flush —
    /// deterministic, which the model-based tests rely on.
    pub background: bool,
    /// A level holding more than this many runs triggers a compaction.
    pub max_runs_per_level: usize,
}

impl Default for CompactionOptions {
    fn default() -> Self {
        CompactionOptions {
            background: true,
            max_runs_per_level: 4,
        }
    }
}

/// One unit of compaction work, decided by [`plan`] or [`full`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Ids of the input runs, newest data first — `(level asc, id desc)`
    /// order, which is the engine's read precedence.
    pub inputs: Vec<u64>,
    /// Level the merged output lands at.
    pub output_level: u32,
    /// Fold tombstones out (only legal at the bottom level).
    pub drop_tombstones: bool,
}

/// Sort `(level, id)` pairs into read-precedence order — level ascending,
/// id descending within a level — and strip them down to ids.
fn precedence_order(mut runs: Vec<(u32, u64)>) -> Vec<u64> {
    runs.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    runs.into_iter().map(|(_, id)| id).collect()
}

/// Decide the next compaction for `view`, or `None` when every level is
/// within bounds. `view` is the committed run set in any order.
pub fn plan(view: &[RunEntry], max_runs_per_level: usize) -> Option<Task> {
    let mut levels: Vec<u32> = view.iter().map(|e| e.level).collect();
    levels.sort_unstable();
    levels.dedup();
    for &level in &levels {
        let count = view.iter().filter(|e| e.level == level).count();
        if count <= max_runs_per_level {
            continue;
        }
        let output_level = level + 1;
        let inputs = precedence_order(
            view.iter()
                .filter(|e| e.level == level || e.level == output_level)
                .map(|e| (e.level, e.id))
                .collect(),
        );
        let drop_tombstones = !view.iter().any(|e| e.level > output_level);
        return Some(Task {
            inputs,
            output_level,
            drop_tombstones,
        });
    }
    None
}

/// A forced full compaction: merge every run into one bottom-level run,
/// folding tombstones. `None` when there is nothing useful to do: no
/// runs, or a single run the caller knows holds nothing foldable
/// (`single_run_foldable` — tombstones in the lone run).
pub fn full(view: &[RunEntry], single_run_foldable: bool) -> Option<Task> {
    if view.is_empty() || (view.len() == 1 && !single_run_foldable) {
        return None;
    }
    let inputs = precedence_order(view.iter().map(|e| (e.level, e.id)).collect());
    let output_level = view.iter().map(|e| e.level).max().unwrap_or(1).max(2);
    Some(Task {
        inputs,
        output_level,
        drop_tombstones: true,
    })
}

/// The fold rules applied to the merge of a compaction's input runs.
///
/// Yields versions in `(key asc, lsn desc)` order — exactly the
/// [`write_run`](crate::sstable::write_run) input contract — from the
/// same `MergeCursor` every multi-key read walks. Per key: every
/// version above the fold horizon survives verbatim; of the versions at
/// or below it only the newest is emitted, unless it is a tombstone at
/// the bottom level. Layer LSN-disjointness means a key's
/// versions across inputs in precedence order are already
/// LSN-descending; should two versions share an LSN, the tie breaks by
/// precedence. Memory stays bounded by one block per input. Errors from
/// any input end the merge and surface to the caller (the compaction
/// aborts and the inputs stay in place).
pub struct Merge<'a> {
    cursor: MergeCursor<'a>,
    drop_tombstones: bool,
    horizon: Lsn,
    /// Whether the current key's newest version at or below the horizon
    /// has been decided.
    resolved: bool,
    versions_folded: u64,
}

impl<'a> Merge<'a> {
    /// Build a merge over `runs`, which must be ordered newest-first —
    /// the position in the slice is the precedence. `horizon` is the
    /// oldest LSN any live reader can be pinned at.
    pub fn new(runs: &[&'a Run], drop_tombstones: bool, horizon: Lsn) -> Merge<'a> {
        Merge {
            cursor: MergeCursor::new(runs.iter().map(|r| Layer::Run(r.cursor(None))).collect()),
            drop_tombstones,
            horizon,
            resolved: false,
            versions_folded: 0,
        }
    }

    /// Versions dropped by the fold rule so far.
    pub fn versions_folded(&self) -> u64 {
        self.versions_folded
    }
}

impl Versions for Merge<'_> {
    fn for_each_version(
        &mut self,
        f: &mut dyn FnMut(VersionRef<'_>) -> StorageResult<()>,
    ) -> StorageResult<()> {
        loop {
            self.cursor.advance()?;
            let Some(version @ (_, _, lsn, value)) = self.cursor.current() else {
                return Ok(());
            };
            self.resolved &= !self.cursor.starts_key();
            if lsn > self.horizon {
                f(version)?;
                continue;
            }
            if self.resolved {
                // An older sibling of the version that already decided
                // the at-or-below-horizon verdict: invisible to every
                // possible reader.
                self.versions_folded += 1;
                continue;
            }
            self.resolved = true;
            if self.drop_tombstones && value.is_none() {
                self.versions_folded += 1;
            } else {
                f(version)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memtable::NsKey;
    use crate::sstable::{borrowed, write_run, VersionedEntry};
    use crate::StorageError;
    use std::path::PathBuf;

    fn entry(level: u32, id: u64) -> RunEntry {
        RunEntry { id, level }
    }

    #[test]
    fn plan_is_none_within_bounds() {
        let view = vec![entry(1, 1), entry(1, 2), entry(2, 3)];
        assert_eq!(plan(&view, 4), None);
        assert_eq!(plan(&[], 4), None);
    }

    #[test]
    fn plan_picks_overfull_level_and_next() {
        let view = vec![
            entry(1, 5),
            entry(1, 4),
            entry(1, 3),
            entry(2, 2),
            entry(2, 1),
        ];
        let task = plan(&view, 2).unwrap();
        assert_eq!(task.inputs, vec![5, 4, 3, 2, 1]);
        assert_eq!(task.output_level, 2);
        assert!(task.drop_tombstones, "nothing deeper than level 2 remains");
    }

    #[test]
    fn plan_keeps_tombstones_when_deeper_levels_exist() {
        let view = vec![
            entry(1, 9),
            entry(1, 8),
            entry(1, 7),
            entry(3, 1), // deeper level survives the merge into level 2
        ];
        let task = plan(&view, 2).unwrap();
        assert_eq!(task.output_level, 2);
        assert!(!task.drop_tombstones);
    }

    #[test]
    fn inputs_are_level_major_even_when_ids_invert() {
        // The flush/compaction race can hand a compaction output (old
        // data, level 2) a *higher* id than a newer level-1 flush run.
        // Precedence must follow the level, not the id, or the merge
        // would let stale versions win.
        let view = vec![
            entry(1, 10), // newer flush, lower id
            entry(1, 12),
            entry(2, 11), // stale compaction output, higher id
        ];
        let task = plan(&view, 1).unwrap();
        assert_eq!(task.inputs, vec![12, 10, 11], "level 1 before level 2");

        let task = full(&view, false).unwrap();
        assert_eq!(task.inputs, vec![12, 10, 11]);
    }

    #[test]
    fn full_compaction_covers_everything_or_nothing() {
        assert_eq!(full(&[], false), None);
        assert_eq!(
            full(&[entry(2, 1)], false),
            None,
            "single clean run is a no-op"
        );
        let task = full(&[entry(2, 1)], true).unwrap();
        assert_eq!(task.inputs, vec![1]);
        let task = full(&[entry(1, 2), entry(1, 1)], false).unwrap();
        assert_eq!(task.inputs, vec![2, 1]);
        assert_eq!(task.output_level, 2);
        assert!(task.drop_tombstones);
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "preserva-compaction-{}-{}",
            std::process::id(),
            name
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_of(dir: &std::path::Path, name: &str, rows: &[(&str, Lsn, Option<&str>)]) -> Run {
        let path = dir.join(name);
        let entries: Vec<VersionedEntry> = rows
            .iter()
            .map(|(k, lsn, v)| {
                (
                    ("t".to_string(), k.as_bytes().to_vec()),
                    *lsn,
                    v.map(|x| x.as_bytes().to_vec()),
                )
            })
            .collect();
        write_run(&path, 1, rows.len() as u64, &mut borrowed(&entries)).unwrap();
        Run::open(&path).unwrap()
    }

    /// Every version `merge` yields, copied out; a read error ends the
    /// list.
    fn drain(merge: &mut Merge<'_>) -> Vec<Result<VersionedEntry, StorageError>> {
        let mut out = Vec::new();
        let copy = &mut |(t, k, lsn, v): VersionRef<'_>| {
            out.push(Ok((
                (t.to_string(), k.to_vec()),
                lsn,
                v.map(<[u8]>::to_vec),
            )));
            Ok(())
        };
        if let Err(e) = merge.for_each_version(copy) {
            out.push(Err(e));
        }
        out
    }

    fn key(k: &str) -> NsKey {
        ("t".to_string(), k.as_bytes().to_vec())
    }

    #[test]
    fn merge_newest_wins_and_tombstones_fold() {
        let dir = tmp("merge");
        // Newest run: b deleted, c updated. Older run: a, b, c. No pins,
        // so the horizon sits above every LSN and one version per key
        // survives.
        let new = run_of(&dir, "new.sst", &[("b", 10, None), ("c", 11, Some("c2"))]);
        let old = run_of(
            &dir,
            "old.sst",
            &[
                ("a", 1, Some("a1")),
                ("b", 2, Some("b1")),
                ("c", 3, Some("c1")),
            ],
        );

        let folded: Vec<_> = drain(&mut Merge::new(&[&new, &old], true, Lsn::MAX))
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(
            folded,
            vec![
                (key("a"), 1, Some(b"a1".to_vec())),
                (key("c"), 11, Some(b"c2".to_vec())),
            ]
        );

        let mut merge = Merge::new(&[&new, &old], false, Lsn::MAX);
        let kept: Vec<_> = drain(&mut merge).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(kept.len(), 3, "tombstone survives when not at bottom");
        assert_eq!(kept[1], (key("b"), 10, None));
        assert_eq!(merge.versions_folded(), 2, "b@2 and c@3 folded");
    }

    #[test]
    fn horizon_preserves_versions_a_pinned_reader_can_see() {
        let dir = tmp("merge-horizon");
        let new = run_of(&dir, "new.sst", &[("k", 9, Some("v9")), ("k", 7, None)]);
        let old = run_of(
            &dir,
            "old.sst",
            &[("k", 4, Some("v4")), ("k", 2, Some("v2"))],
        );
        // A reader pinned at 5 must still see v4; readers ≥ 7 see the
        // newer versions. Only v2 is invisible to everyone.
        let mut merge = Merge::new(&[&new, &old], true, 5);
        let out: Vec<_> = drain(&mut merge).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(
            out,
            vec![
                (key("k"), 9, Some(b"v9".to_vec())),
                (key("k"), 7, None),
                (key("k"), 4, Some(b"v4".to_vec())),
            ]
        );
        assert_eq!(merge.versions_folded(), 1, "only v2 folds");

        // With the horizon above everything the chain collapses to v9.
        let out: Vec<_> = drain(&mut Merge::new(&[&new, &old], true, Lsn::MAX))
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(out, vec![(key("k"), 9, Some(b"v9".to_vec()))]);
    }

    #[test]
    fn merge_propagates_input_corruption() {
        let dir = tmp("merge-err");
        let good = run_of(&dir, "good.sst", &[("a", 1, Some("1"))]);
        run_of(&dir, "bad.sst", &[("b", 2, Some("2")), ("c", 3, Some("3"))]);
        let mut bytes = std::fs::read(dir.join("bad.sst")).unwrap();
        bytes[3] ^= 0x20; // data block corruption, found on read
        std::fs::write(dir.join("bad.sst"), &bytes).unwrap();
        let bad = Run::open(dir.join("bad.sst").as_path()).unwrap();

        let results = drain(&mut Merge::new(&[&bad, &good], true, Lsn::MAX));
        assert!(results.iter().any(|r| r.is_err()), "corruption surfaced");
    }
}
