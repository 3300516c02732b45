//! Delta reassessment: consume the storage change journal and re-run
//! only the affected curation passes on only the touched records.
//!
//! The full pipeline ([`crate::pipeline::CurationPipeline::run`]) is a
//! sweep over every record; this module replaces it for incremental
//! maintenance. A [`DeltaPlan`] is distilled from a batch of
//! [`JournalEntry`]s (what changed since the stored cursor), then
//! [`run_delta`] re-runs each pass on a touched record only when the
//! pass's declared [`PassDependencies`](crate::pass::PassDependencies)
//! intersect that record's changed fields (or a bumped external source)
//! — including fields changed by *earlier passes in the same sweep*, so
//! in-sweep cascades (species → genus → …) behave exactly as in a full
//! run. Equivalence with the full pipeline is guarded by the
//! cross-crate `delta ≡ full` proptest.

use std::collections::{BTreeMap, BTreeSet};

use preserva_metadata::record::Record;
use preserva_storage::journal::{JournalEntry, ROW_DELETED, ROW_UPSERTED};

use crate::log::{CurationEvent, CurationLog};
use crate::pass;
use crate::pipeline::CurationPipeline;
use crate::review::{ReviewItem, ReviewQueue};

/// Journal event kind: one record field changed; the entry's key is the
/// record id and the payload is the field name.
pub const FIELD_CHANGED: &str = "field-changed";
/// Journal event kind: a checklist name's status changed between
/// backbone editions; the entry's key is the canonical species name.
pub const NAME_STATUS_CHANGED: &str = "name-status-changed";
/// Journal event kind: an external source was swapped/upgraded; the
/// entry's key is the logical source name (e.g. `"checklist"`).
pub const SOURCE_CHANGED: &str = "source-changed";

/// The fields of one record the journal says were touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TouchedFields {
    /// The whole row was rewritten (or we don't know which fields) —
    /// every pass must be reconsidered.
    All,
    /// Only these fields changed.
    Fields(BTreeSet<String>),
}

impl TouchedFields {
    fn add_field(&mut self, field: &str) {
        if let TouchedFields::Fields(set) = self {
            set.insert(field.to_string());
        }
    }

    fn widen(&mut self) {
        *self = TouchedFields::All;
    }
}

/// What a batch of journal entries implies must be reassessed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaPlan {
    /// Touched record ids with the fields that changed.
    pub touched_records: BTreeMap<String, TouchedFields>,
    /// Record ids the journal says were deleted (and not re-upserted
    /// later in the batch).
    pub deleted_records: BTreeSet<String>,
    /// Canonical species names whose checklist status changed.
    pub changed_names: BTreeSet<String>,
    /// External sources that were swapped/upgraded.
    pub changed_sources: BTreeSet<String>,
    /// Sequence number of the last entry consumed (the new cursor).
    pub last_seq: u64,
    /// Number of journal entries consumed.
    pub entries_consumed: usize,
}

impl DeltaPlan {
    /// Whether the batch implies no work at all.
    pub fn is_empty(&self) -> bool {
        self.touched_records.is_empty()
            && self.deleted_records.is_empty()
            && self.changed_names.is_empty()
            && self.changed_sources.is_empty()
    }
}

/// Distill a batch of journal entries into a [`DeltaPlan`].
///
/// Row events on `records_table` mark the record touched ([`TouchedFields::All`]
/// — the journal doesn't know which fields a rewrite changed) or deleted;
/// [`FIELD_CHANGED`] events narrow a touch to specific fields when no row
/// rewrite widened it; [`NAME_STATUS_CHANGED`] and [`SOURCE_CHANGED`]
/// feed the taxonomy/source sets. Events on other tables are ignored.
pub fn plan(entries: &[JournalEntry], records_table: &str) -> DeltaPlan {
    let mut plan = DeltaPlan::default();
    for e in entries {
        plan.last_seq = plan.last_seq.max(e.seq);
        plan.entries_consumed += 1;
        match e.kind.as_str() {
            ROW_UPSERTED if e.table == records_table => {
                let id = String::from_utf8_lossy(&e.key).into_owned();
                plan.deleted_records.remove(&id);
                plan.touched_records
                    .entry(id)
                    .or_insert_with(|| TouchedFields::Fields(BTreeSet::new()))
                    .widen();
            }
            ROW_DELETED if e.table == records_table => {
                let id = String::from_utf8_lossy(&e.key).into_owned();
                plan.touched_records.remove(&id);
                plan.deleted_records.insert(id);
            }
            FIELD_CHANGED if e.table == records_table => {
                let id = String::from_utf8_lossy(&e.key).into_owned();
                let field = String::from_utf8_lossy(&e.payload).into_owned();
                plan.touched_records
                    .entry(id)
                    .or_insert_with(|| TouchedFields::Fields(BTreeSet::new()))
                    .add_field(&field);
            }
            NAME_STATUS_CHANGED => {
                plan.changed_names
                    .insert(String::from_utf8_lossy(&e.key).into_owned());
            }
            SOURCE_CHANGED => {
                plan.changed_sources
                    .insert(String::from_utf8_lossy(&e.key).into_owned());
            }
            _ => {}
        }
    }
    plan
}

/// Aggregate result of one delta sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Records handed to the sweep.
    pub records_considered: usize,
    /// Records on which at least one pass actually ran.
    pub records_reprocessed: usize,
    /// Individual pass executions (the unit of work saved vs full runs).
    pub passes_run: usize,
    /// Field changes applied.
    pub field_changes: usize,
    /// Review flags raised.
    pub flags: usize,
}

/// Re-run only the affected passes of `pipeline` on `records` (the
/// touched records from a [`DeltaPlan`]). Passes execute in pipeline
/// order; a pass runs when its dependencies intersect the record's
/// touched fields, the fields changed by earlier passes in this sweep,
/// or a changed external source. Changes are journaled into `log` and
/// flags into `queue` exactly as in a full run.
pub fn run_delta(
    pipeline: &CurationPipeline,
    records: &[Record],
    touched: &BTreeMap<String, TouchedFields>,
    changed_sources: &BTreeSet<String>,
    log: &mut CurationLog,
    queue: &mut ReviewQueue,
) -> (Vec<Record>, DeltaSummary) {
    let sources: Vec<&str> = changed_sources.iter().map(String::as_str).collect();
    let mut summary = DeltaSummary {
        records_considered: records.len(),
        ..Default::default()
    };
    let mut out = Vec::with_capacity(records.len());
    for record in records {
        let Some(touch) = touched.get(&record.id) else {
            out.push(record.clone());
            continue;
        };
        let mut changed: Vec<String> = match touch {
            TouchedFields::All => Vec::new(), // unused: every pass runs
            TouchedFields::Fields(set) => set.iter().cloned().collect(),
        };
        let run_all = matches!(touch, TouchedFields::All);
        let mut current = record.clone();
        let mut ran_any = false;
        for p in pipeline.passes() {
            let due = run_all || p.dependencies().affected_by(&changed, &sources);
            if !due {
                continue;
            }
            ran_any = true;
            summary.passes_run += 1;
            let outcome = p.inspect(&current);
            for c in &outcome.changes {
                log.append(
                    &current.id,
                    p.name(),
                    CurationEvent::FieldChanged {
                        field: c.field.clone(),
                        old: c.old.clone(),
                        new: c.new.clone(),
                        reason: c.reason.clone(),
                    },
                );
                if !changed.iter().any(|f| f == &c.field) {
                    changed.push(c.field.clone());
                }
                summary.field_changes += 1;
            }
            for f in &outcome.flags {
                log.append(
                    &current.id,
                    p.name(),
                    CurationEvent::Flagged {
                        field: f.field.clone(),
                        message: f.message.clone(),
                    },
                );
                queue.submit(ReviewItem::Flag {
                    record_id: current.id.clone(),
                    field: f.field.clone(),
                    message: f.message.clone(),
                });
                summary.flags += 1;
            }
            current = pass::apply(&current, &outcome);
        }
        if ran_any {
            summary.records_reprocessed += 1;
        }
        out.push(current);
    }
    (out, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_gazetteer::builder::build_gazetteer;
    use preserva_metadata::fnjv;
    use preserva_metadata::value::Value;

    fn entry(seq: u64, kind: &str, table: &str, key: &[u8], payload: &[u8]) -> JournalEntry {
        JournalEntry {
            seq,
            kind: kind.to_string(),
            table: table.to_string(),
            key: key.to_vec(),
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn plan_classifies_event_kinds() {
        let entries = vec![
            entry(1, ROW_UPSERTED, "records", b"r1", b""),
            entry(2, FIELD_CHANGED, "records", b"r2", b"species"),
            entry(3, FIELD_CHANGED, "records", b"r2", b"collect_date"),
            entry(4, ROW_DELETED, "records", b"r3", b""),
            entry(
                5,
                NAME_STATUS_CHANGED,
                "taxonomy",
                b"hyla faber",
                b"synonymized",
            ),
            entry(6, SOURCE_CHANGED, "taxonomy", b"checklist", b"2005->2013"),
            entry(7, ROW_UPSERTED, "provenance_graphs", b"run-1", b""),
        ];
        let p = plan(&entries, "records");
        assert_eq!(p.last_seq, 7);
        assert_eq!(p.entries_consumed, 7);
        assert_eq!(p.touched_records.len(), 2);
        assert_eq!(p.touched_records["r1"], TouchedFields::All);
        assert_eq!(
            p.touched_records["r2"],
            TouchedFields::Fields(
                ["species", "collect_date"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect()
            )
        );
        assert!(p.deleted_records.contains("r3"));
        assert!(p.changed_names.contains("hyla faber"));
        assert!(p.changed_sources.contains("checklist"));
        assert!(!p.is_empty());
        // Row events on other tables are ignored.
        assert!(!p.touched_records.contains_key("run-1"));
    }

    #[test]
    fn row_rewrite_widens_field_touch() {
        let entries = vec![
            entry(1, FIELD_CHANGED, "records", b"r", b"species"),
            entry(2, ROW_UPSERTED, "records", b"r", b""),
        ];
        let p = plan(&entries, "records");
        assert_eq!(p.touched_records["r"], TouchedFields::All);
    }

    #[test]
    fn delete_then_upsert_resurrects() {
        let entries = vec![
            entry(1, ROW_DELETED, "records", b"r", b""),
            entry(2, ROW_UPSERTED, "records", b"r", b""),
        ];
        let p = plan(&entries, "records");
        assert!(p.deleted_records.is_empty());
        assert_eq!(p.touched_records["r"], TouchedFields::All);
    }

    fn pipeline() -> CurationPipeline {
        CurationPipeline::stage1(build_gazetteer(0, 1), fnjv::schema())
    }

    fn dirty_record(id: &str) -> Record {
        Record::new(id)
            .with("phylum", Value::Text("Chordata".into()))
            .with("class", Value::Text("Amphibia".into()))
            .with("order", Value::Text("Anura".into()))
            .with("family", Value::Text("Hylidae".into()))
            .with("species", Value::Text("  hyla   faber ".into()))
            .with("collect_date", Value::Text("15.III.1982".into()))
            .with("country", Value::Text("Brazil".into()))
            .with("state", Value::Text("São Paulo".into()))
            .with("city", Value::Text("Campinas".into()))
    }

    #[test]
    fn delta_on_all_fields_matches_full_run() {
        let p = pipeline();
        let records = vec![dirty_record("FNJV-1"), dirty_record("FNJV-2")];
        let mut log_a = CurationLog::new();
        let mut queue_a = ReviewQueue::new();
        let (full, _) = p.run(&records, &mut log_a, &mut queue_a);

        let touched: BTreeMap<String, TouchedFields> = records
            .iter()
            .map(|r| (r.id.clone(), TouchedFields::All))
            .collect();
        let mut log_b = CurationLog::new();
        let mut queue_b = ReviewQueue::new();
        let (delta, summary) = run_delta(
            &p,
            &records,
            &touched,
            &BTreeSet::new(),
            &mut log_b,
            &mut queue_b,
        );
        assert_eq!(full, delta);
        assert_eq!(summary.records_reprocessed, 2);
    }

    #[test]
    fn narrow_touch_runs_only_dependent_passes() {
        let p = pipeline();
        // A record the full pipeline has already cleaned once.
        let mut log = CurationLog::new();
        let mut queue = ReviewQueue::new();
        let (clean, _) = p.run(&[dirty_record("FNJV-1")], &mut log, &mut queue);
        // Its species field is edited afterwards.
        let mut edited = clean[0].clone();
        edited.set("species", Value::Text("  scinax RUBER ".into()));
        let touched: BTreeMap<String, TouchedFields> = [(
            edited.id.clone(),
            TouchedFields::Fields(["species".to_string()].into_iter().collect()),
        )]
        .into_iter()
        .collect();
        let mut log2 = CurationLog::new();
        let mut queue2 = ReviewQueue::new();
        let (out, summary) = run_delta(
            &p,
            &[edited.clone()],
            &touched,
            &BTreeSet::new(),
            &mut log2,
            &mut queue2,
        );
        // Whitespace (depends on all fields), species canonicalization and
        // domain checks (all fields) ran; date/georef/envfill did not.
        assert_eq!(out[0].get_text("species"), Some("Scinax ruber"));
        assert_eq!(out[0].get_text("genus"), Some("Scinax"));
        assert!(summary.passes_run < p.passes().len());
        assert_eq!(summary.records_reprocessed, 1);
        // And the result equals what a full re-run would produce.
        let mut log3 = CurationLog::new();
        let mut queue3 = ReviewQueue::new();
        let (full, _) = p.run(&[edited], &mut log3, &mut queue3);
        assert_eq!(out, full);
    }

    #[test]
    fn untouched_records_run_no_passes() {
        let p = pipeline();
        let records = vec![dirty_record("FNJV-1")];
        let mut log = CurationLog::new();
        let mut queue = ReviewQueue::new();
        let (out, summary) = run_delta(
            &p,
            &records,
            &BTreeMap::new(),
            &BTreeSet::new(),
            &mut log,
            &mut queue,
        );
        assert_eq!(out, records, "not in the plan ⇒ untouched");
        assert_eq!(summary.passes_run, 0);
        assert_eq!(summary.records_reprocessed, 0);
    }

    #[test]
    fn source_bump_reruns_dependent_pass() {
        let p = pipeline();
        let mut log = CurationLog::new();
        let mut queue = ReviewQueue::new();
        let (clean, _) = p.run(&[dirty_record("FNJV-1")], &mut log, &mut queue);
        // Touched with NO changed fields, but the gazetteer was swapped:
        // only the georeference pass (and cascades) should run.
        let touched: BTreeMap<String, TouchedFields> =
            [(clean[0].id.clone(), TouchedFields::Fields(BTreeSet::new()))]
                .into_iter()
                .collect();
        let sources: BTreeSet<String> = ["gazetteer".to_string()].into_iter().collect();
        let mut log2 = CurationLog::new();
        let mut queue2 = ReviewQueue::new();
        let (_, summary) = run_delta(&p, &clean, &touched, &sources, &mut log2, &mut queue2);
        assert!(summary.passes_run >= 1);
        assert!(
            summary.passes_run < p.passes().len(),
            "only source-dependent passes ran, got {}",
            summary.passes_run
        );
    }
}
