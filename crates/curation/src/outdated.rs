//! The Outdated Species Name Detection Workflow's core logic (paper §IV-B
//! second implementation effort, validated by experts in October 2013).
//!
//! Given a collection and the Catalogue-of-Life service, check every
//! *distinct* species name, report which are outdated and what their
//! up-to-date names are (Figure 2), and persist the updated names in a
//! **separate table that references the unchanged original records** —
//! "important in order to maintain the original collection unchanged …
//! It also provides a historical log of metadata modifications."

use std::collections::BTreeMap;

use preserva_metadata::record::Record;
use preserva_storage::table::TableStore;
use preserva_taxonomy::name::ScientificName;
use preserva_taxonomy::service::{ColService, LookupOutcome};

/// Result of checking one distinct name.
#[derive(Debug, Clone, PartialEq)]
pub enum NameCheckOutcome {
    /// The name is the current accepted one.
    Current,
    /// The name is outdated; adopt `accepted`.
    Outdated {
        /// The up-to-date accepted name.
        accepted: ScientificName,
    },
    /// *Nomen inquirendum* — no valid replacement exists.
    Doubtful,
    /// Probably a typo of `suggestion`.
    Misspelled {
        /// The closest known name.
        suggestion: ScientificName,
        /// Edit distance from the queried spelling.
        distance: usize,
    },
    /// Unknown to the catalogue entirely.
    NotFound,
    /// Service stayed unavailable through every retry.
    Unavailable,
}

/// The Figure-2 report: progress counts plus the old → new name table.
#[derive(Debug, Clone, Default)]
pub struct OutdatedNameReport {
    /// Total records processed (paper: 11,898).
    pub records_processed: usize,
    /// Distinct species names analyzed (paper: 1,929).
    pub distinct_names: usize,
    /// Names still current.
    pub current: usize,
    /// Outdated names with their updated replacement (paper: 134).
    pub outdated: Vec<(ScientificName, ScientificName)>,
    /// Names demoted to *nomen inquirendum* (no replacement).
    pub doubtful: Vec<ScientificName>,
    /// Probable misspellings with suggestions.
    pub misspelled: Vec<(ScientificName, ScientificName, usize)>,
    /// Names the service doesn't know at all.
    pub not_found: Vec<ScientificName>,
    /// Names that could not be checked (service unavailable).
    pub unavailable: Vec<ScientificName>,
    /// Records whose species name is not a parseable binomial.
    pub unparseable_records: usize,
    /// record-id → distinct-name index, for the reference table.
    pub record_names: BTreeMap<String, ScientificName>,
}

impl OutdatedNameReport {
    /// Names that received *some* verdict (excludes unavailable).
    pub fn checked(&self) -> usize {
        self.distinct_names - self.unavailable.len()
    }

    /// Fraction of checked names that are outdated (paper: 7%).
    pub fn outdated_fraction(&self) -> f64 {
        if self.checked() == 0 {
            0.0
        } else {
            self.outdated.len() as f64 / self.checked() as f64
        }
    }

    /// The case study's accuracy dimension: correct names / checked names
    /// (paper: 93%). "Correct" = still the accepted current name.
    pub fn accuracy(&self) -> f64 {
        if self.checked() == 0 {
            return 1.0;
        }
        self.current as f64 / self.checked() as f64
    }

    /// Render the Figure-2 progress panel.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str("Outdated species name detection — summary\n");
        out.push_str(&format!(
            "  records processed:        {}\n",
            self.records_processed
        ));
        out.push_str(&format!(
            "  distinct species names:   {}\n",
            self.distinct_names
        ));
        out.push_str(&format!(
            "  outdated names detected:  {} ({:.0}% of names analyzed)\n",
            self.outdated.len(),
            self.outdated_fraction() * 100.0
        ));
        out.push_str(&format!(
            "  nomina inquirenda:        {}\n",
            self.doubtful.len()
        ));
        out.push_str(&format!(
            "  probable misspellings:    {}\n",
            self.misspelled.len()
        ));
        out.push_str(&format!(
            "  unknown to catalogue:     {}\n",
            self.not_found.len()
        ));
        out.push_str(&format!(
            "  unavailable (unchecked):  {}\n",
            self.unavailable.len()
        ));
        out.push_str(&format!(
            "  accuracy:                 {:.1}%\n",
            self.accuracy() * 100.0
        ));
        if !self.outdated.is_empty() {
            out.push_str("  updated names (flagged for biologist review):\n");
            for (old, new) in self.outdated.iter().take(10) {
                out.push_str(&format!("    {old}  →  {new}\n"));
            }
            if self.outdated.len() > 10 {
                out.push_str(&format!("    … and {} more\n", self.outdated.len() - 10));
            }
        }
        out
    }
}

/// The detector: wraps the service and a retry budget.
pub struct OutdatedNameDetector<'a> {
    service: &'a ColService,
    max_attempts: u32,
}

impl<'a> OutdatedNameDetector<'a> {
    /// Create a detector; `max_attempts` per name (availability 0.9 makes
    /// 3 attempts fail ~0.1% of the time).
    pub fn new(service: &'a ColService, max_attempts: u32) -> Self {
        OutdatedNameDetector {
            service,
            max_attempts,
        }
    }

    /// Check one name.
    pub fn check(&self, name: &ScientificName) -> NameCheckOutcome {
        match self.service.lookup_with_retries(name, self.max_attempts) {
            Err(_) => NameCheckOutcome::Unavailable,
            Ok(LookupOutcome::Current { .. }) => NameCheckOutcome::Current,
            Ok(LookupOutcome::Outdated { accepted, .. }) => NameCheckOutcome::Outdated { accepted },
            Ok(LookupOutcome::Doubtful) => NameCheckOutcome::Doubtful,
            Ok(LookupOutcome::Misspelled {
                suggestion,
                distance,
            }) => NameCheckOutcome::Misspelled {
                suggestion,
                distance,
            },
            Ok(LookupOutcome::NotFound) => NameCheckOutcome::NotFound,
        }
    }

    /// Check a whole collection: each *distinct* name is checked once
    /// (the paper checks 1,929 distinct names across 11,898 records).
    pub fn check_collection(&self, records: &[Record]) -> OutdatedNameReport {
        let mut report = OutdatedNameReport {
            records_processed: records.len(),
            ..Default::default()
        };
        let mut distinct: BTreeMap<ScientificName, Vec<String>> = BTreeMap::new();
        for r in records {
            match r.get_text("species").and_then(ScientificName::parse) {
                Some(name) => {
                    let bare = name.bare();
                    report.record_names.insert(r.id.clone(), bare.clone());
                    distinct.entry(bare).or_default().push(r.id.clone());
                }
                None => report.unparseable_records += 1,
            }
        }
        report.distinct_names = distinct.len();
        for name in distinct.keys() {
            match self.check(name) {
                NameCheckOutcome::Current => report.current += 1,
                NameCheckOutcome::Outdated { accepted } => {
                    report.outdated.push((name.clone(), accepted));
                }
                NameCheckOutcome::Doubtful => report.doubtful.push(name.clone()),
                NameCheckOutcome::Misspelled {
                    suggestion,
                    distance,
                } => {
                    report.misspelled.push((name.clone(), suggestion, distance));
                }
                NameCheckOutcome::NotFound => report.not_found.push(name.clone()),
                NameCheckOutcome::Unavailable => report.unavailable.push(name.clone()),
            }
        }
        report
    }
}

/// Table names used by [`persist_updates`].
pub const UPDATED_NAMES_TABLE: &str = "updated_names";
/// Table mapping affected record ids to their outdated name.
pub const NAME_REFS_TABLE: &str = "name_refs";

/// Persist detected updates: the `updated_names` table maps each outdated
/// name to its replacement (flagged unverified until a biologist approves)
/// and `name_refs` maps each affected record id to its outdated name. The
/// original records table is **never touched**. Both tables are written in
/// ONE storage commit so a crash can't leave a replacement name without
/// the records it affects.
pub fn persist_updates(
    store: &TableStore,
    report: &OutdatedNameReport,
) -> Result<usize, preserva_storage::StorageError> {
    let mut session = store.session();
    let mut written = 0usize;
    for (old, new) in &report.outdated {
        let value = serde_json::json!({
            "old": old.canonical(),
            "new": new.canonical(),
            "verified": false,
        });
        session.put(
            UPDATED_NAMES_TABLE,
            old.canonical().as_bytes(),
            value.to_string().as_bytes(),
        )?;
        written += 1;
    }
    let outdated: std::collections::BTreeSet<&ScientificName> =
        report.outdated.iter().map(|(old, _)| old).collect();
    for (record_id, name) in &report.record_names {
        if outdated.contains(name) {
            session.put(
                NAME_REFS_TABLE,
                record_id.as_bytes(),
                name.canonical().as_bytes(),
            )?;
            written += 1;
        }
    }
    session.commit()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use preserva_metadata::value::Value;
    use preserva_storage::engine::{Engine, EngineOptions};
    use preserva_taxonomy::backbone::{Backbone, Classification, Taxon};
    use preserva_taxonomy::checklist::{Checklist, Evolution};
    use preserva_taxonomy::service::ServiceConfig;
    use std::sync::Arc;

    fn n(s: &str) -> ScientificName {
        ScientificName::parse(s).unwrap()
    }

    fn service() -> ColService {
        let mut b = Backbone::new();
        for name in [
            "Elachistocleis ovalis",
            "Hyla faber",
            "Scinax ruber",
            "Hyla dubia",
        ] {
            b.insert(Taxon {
                name: n(name),
                classification: Classification::new("Chordata", "Amphibia", "Anura", "F"),
                common_name: None,
            });
        }
        let mut c = Checklist::bootstrap(b, 1965);
        c.release(
            2010,
            &[
                Evolution::Rename {
                    old: n("Elachistocleis ovalis"),
                    new: n("Nomen inquirenda"),
                },
                Evolution::Doubt {
                    name: n("Hyla dubia"),
                },
            ],
        )
        .unwrap();
        ColService::new(
            c,
            ServiceConfig {
                availability: 1.0,
                ..ServiceConfig::default()
            },
        )
    }

    fn records() -> Vec<Record> {
        vec![
            Record::new("FNJV-1").with("species", Value::Text("Hyla faber".into())),
            Record::new("FNJV-2").with("species", Value::Text("Hyla faber".into())),
            Record::new("FNJV-3").with("species", Value::Text("Elachistocleis ovalis".into())),
            Record::new("FNJV-4").with("species", Value::Text("Hyla dubia".into())),
            Record::new("FNJV-5").with("species", Value::Text("Scinax rubre".into())), // typo
            Record::new("FNJV-6").with("species", Value::Text("???".into())),
        ]
    }

    #[test]
    fn collection_check_classifies_names() {
        let svc = service();
        let det = OutdatedNameDetector::new(&svc, 3);
        let report = det.check_collection(&records());
        assert_eq!(report.records_processed, 6);
        assert_eq!(report.distinct_names, 4); // faber, ovalis, dubia, rubre
        assert_eq!(report.current, 1);
        assert_eq!(report.outdated.len(), 1);
        assert_eq!(report.outdated[0].1, n("Nomen inquirenda"));
        assert_eq!(report.doubtful, vec![n("Hyla dubia")]);
        assert_eq!(report.misspelled.len(), 1);
        assert_eq!(report.misspelled[0].1, n("Scinax ruber"));
        assert_eq!(report.unparseable_records, 1);
        assert!(report.unavailable.is_empty());
    }

    #[test]
    fn accuracy_and_fraction_computed() {
        let svc = service();
        let report = OutdatedNameDetector::new(&svc, 3).check_collection(&records());
        assert!((report.outdated_fraction() - 0.25).abs() < 1e-12);
        assert!((report.accuracy() - 0.25).abs() < 1e-12); // 1 current of 4
    }

    #[test]
    fn summary_renders_counts() {
        let svc = service();
        let report = OutdatedNameDetector::new(&svc, 3).check_collection(&records());
        let text = report.render_summary();
        assert!(text.contains("records processed:        6"));
        assert!(text.contains("distinct species names:   4"));
        assert!(text.contains("Elachistocleis ovalis  →  Nomen inquirenda"));
    }

    #[test]
    fn persist_updates_keeps_originals_untouched() {
        let dir = std::env::temp_dir().join(format!("preserva-outdated-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TableStore::new(Arc::new(
            Engine::open(&dir, EngineOptions::default()).unwrap(),
        ))
        .unwrap();
        // Simulate the originals table.
        store.put("records", b"FNJV-3", b"original row").unwrap();

        let svc = service();
        let report = OutdatedNameDetector::new(&svc, 3).check_collection(&records());
        let written = persist_updates(&store, &report).unwrap();
        assert_eq!(written, 2); // 1 updated name + 1 affected record ref

        // Separate table holds the update, unverified.
        let row = store
            .head()
            .get(UPDATED_NAMES_TABLE, b"Elachistocleis ovalis")
            .unwrap()
            .unwrap();
        let v: serde_json::Value = serde_json::from_slice(&row).unwrap();
        assert_eq!(v["new"], "Nomen inquirenda");
        assert_eq!(v["verified"], false);

        // Reference row links record → outdated name.
        let r = store
            .head()
            .get(NAME_REFS_TABLE, b"FNJV-3")
            .unwrap()
            .unwrap();
        assert_eq!(r, b"Elachistocleis ovalis".to_vec());

        // Original record byte-identical.
        assert_eq!(
            store.head().get("records", b"FNJV-3").unwrap().unwrap(),
            b"original row".to_vec()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unavailable_service_reported_not_dropped() {
        let mut b = Backbone::new();
        b.insert(Taxon {
            name: n("Hyla faber"),
            classification: Classification::new("C", "A", "O", "F"),
            common_name: None,
        });
        let c = Checklist::bootstrap(b, 1965);
        let svc = ColService::new(
            c,
            ServiceConfig {
                availability: 0.0,
                ..ServiceConfig::default()
            },
        );
        let report = OutdatedNameDetector::new(&svc, 2).check_collection(&records());
        assert_eq!(report.unavailable.len(), report.distinct_names);
        assert_eq!(report.checked(), 0);
        assert_eq!(report.accuracy(), 1.0); // vacuous, but defined
    }
}
