//! Change-feed-driven incremental reassessment.
//!
//! The write path journals every committed mutation (see
//! `preserva_storage::journal`); this module is the consumer side: a
//! [`Reassessor`] keeps a durable cursor into that feed and, on each
//! [`run`](Reassessor::run), distills the entries since the cursor into
//! a [`DeltaPlan`](preserva_curation::delta::DeltaPlan), re-runs only
//! the affected curation passes on only the touched records, re-checks
//! only the species names whose checklist status (or record references)
//! changed, and folds the results into a persistent
//! [`ContributionLedger`] so quality ratios update in O(changes) instead
//! of O(collection).
//!
//! Everything a run decides — curated rows, the record→name map, name
//! reference counts, the ledger, the advanced cursor and the OPM graph
//! describing the run — commits in **one** write session: recovery never
//! sees a half-applied reassessment. The OPM graph's cause artifact is
//! the journal slice itself, so provenance answers "*why* was this
//! record reprocessed" with the exact change that triggered it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use preserva_curation::delta::{self, TouchedFields};
use preserva_curation::log::CurationLog;
use preserva_curation::outdated::{NameCheckOutcome, OutdatedNameDetector, OutdatedNameReport};
use preserva_curation::pipeline::CurationPipeline;
use preserva_curation::review::ReviewQueue;
use preserva_metadata::record::Record;
use preserva_obs::{Counter, Registry};
use preserva_opm::edge::Edge;
use preserva_opm::graph::OpmGraph;
use preserva_opm::model::{Agent, Artifact, Process};
use preserva_quality::ledger::{Contribution, ContributionLedger};
use preserva_storage::table::{CommitReceipt, TableSnapshot, TableStore, WriteSession};
use preserva_storage::view::{stage_count_delta, DerivedView, ViewDriver, ViewSpec};
use preserva_storage::{JournalEntry, Lsn, StorageError};
use preserva_taxonomy::checklist::Checklist;
use preserva_taxonomy::diff::ChecklistDiff;
use preserva_taxonomy::name::ScientificName;
use preserva_taxonomy::service::ColService;

use crate::provenance_manager::{ProvenanceError, ProvenanceManager};
use crate::repository::CodecError;

/// Table holding the reassessment cursor/state and the serialized ledger.
pub const REASSESS_META_TABLE: &str = "reassess_meta";
/// Table mapping record id → canonical species name as of the last run.
pub const REASSESS_NAMES_TABLE: &str = "reassess_names";
/// Table mapping canonical species name → number of referencing records.
pub const REASSESS_REFS_TABLE: &str = "reassess_refs";

const LEDGER_KEY: &[u8] = b"ledger";

/// Name checks use a deterministic retry budget; with the availability
/// the CLI configures for reassessment (1.0) retries never trigger.
const CHECK_ATTEMPTS: u32 = 3;

/// Errors from the reassessment layer.
#[derive(Debug)]
pub enum ReassessError {
    /// Underlying storage failure.
    Storage(StorageError),
    /// A persisted row failed to (de)serialize.
    Codec(CodecError),
    /// Staging the run's OPM graph failed.
    Provenance(ProvenanceError),
}

impl std::fmt::Display for ReassessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReassessError::Storage(e) => write!(f, "reassess storage: {e}"),
            ReassessError::Codec(e) => write!(f, "reassess codec: {e}"),
            ReassessError::Provenance(e) => write!(f, "reassess provenance: {e}"),
        }
    }
}

impl std::error::Error for ReassessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReassessError::Storage(e) => Some(e),
            ReassessError::Codec(e) => Some(e),
            ReassessError::Provenance(e) => Some(e),
        }
    }
}

impl From<StorageError> for ReassessError {
    fn from(e: StorageError) -> Self {
        ReassessError::Storage(e)
    }
}

impl From<CodecError> for ReassessError {
    fn from(e: CodecError) -> Self {
        ReassessError::Codec(e)
    }
}

impl From<ProvenanceError> for ReassessError {
    fn from(e: ProvenanceError) -> Self {
        ReassessError::Provenance(e)
    }
}

/// What one [`Reassessor::run`] did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReassessOutcome {
    /// Cursor before the run.
    pub cursor_before: u64,
    /// Cursor after the run (past the run's own journaled writes when no
    /// other writer committed in between).
    pub cursor_after: u64,
    /// Journal entries pending when the run started.
    pub journal_lag: u64,
    /// Journal entries consumed.
    pub entries_consumed: usize,
    /// Records the delta affected (pipeline re-runs plus records whose
    /// species name's status changed) — the O(k) the metric asserts.
    pub records_reprocessed: usize,
    /// Individual pass executions.
    pub passes_run: usize,
    /// Field fixes applied by re-run passes.
    pub field_changes: usize,
    /// Review flags raised.
    pub flags: usize,
    /// Species names re-checked against the service.
    pub names_rechecked: usize,
    /// `(checked, correct)` ledger totals after the run.
    pub ledger_totals: (f64, f64),
    /// Run id of the OPM graph captured for this delta (None when the
    /// feed was empty or no provenance manager was supplied).
    pub run_id: Option<String>,
    /// Commit LSN the run's input snapshot was pinned at: every read the
    /// run made saw exactly this one consistent state.
    pub input_lsn: Lsn,
}

impl ReassessOutcome {
    /// Whether the run found nothing to do.
    pub fn is_noop(&self) -> bool {
        self.entries_consumed == 0
    }

    /// The ledger's accuracy ratio, if anything is checked.
    pub fn accuracy(&self) -> Option<f64> {
        let (checked, correct) = self.ledger_totals;
        (checked > 0.0).then(|| correct / checked)
    }

    /// Human-readable run summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("delta reassessment\n");
        out.push_str(&format!(
            "  journal: lag {} entries, consumed {} (cursor {} -> {})\n",
            self.journal_lag, self.entries_consumed, self.cursor_before, self.cursor_after
        ));
        out.push_str(&format!(
            "  records reprocessed:  {} ({} pass runs, {} field fixes, {} flags)\n",
            self.records_reprocessed, self.passes_run, self.field_changes, self.flags
        ));
        out.push_str(&format!(
            "  names re-checked:     {}\n",
            self.names_rechecked
        ));
        let (checked, correct) = self.ledger_totals;
        out.push_str(&format!(
            "  quality ledger:       {correct:.0}/{checked:.0} names correct{}\n",
            match self.accuracy() {
                Some(a) => format!(" ({:.1}% accuracy)", a * 100.0),
                None => String::new(),
            }
        ));
        if let Some(id) = &self.run_id {
            out.push_str(&format!("  provenance run:       {id}\n"));
        }
        out.push_str(&format!("  input snapshot lsn:   {}\n", self.input_lsn));
        out
    }
}

fn decode_ledger(row: Option<Vec<u8>>) -> Result<ContributionLedger, ReassessError> {
    match row {
        Some(row) => serde_json::from_slice(&row)
            .map_err(|e| CodecError::new(REASSESS_META_TABLE, "ledger", e).into()),
        None => Ok(ContributionLedger::new()),
    }
}

fn stage_ledger(
    session: &mut WriteSession<'_>,
    ledger: &ContributionLedger,
) -> Result<(), ReassessError> {
    let bytes = serde_json::to_vec(ledger)
        .map_err(|e| CodecError::new(REASSESS_META_TABLE, "ledger", e))?;
    session.put(REASSESS_META_TABLE, LEDGER_KEY, &bytes)?;
    Ok(())
}

fn check_name(service: &ColService, name: &str) -> Option<Contribution> {
    let parsed = ScientificName::parse(name)?;
    match OutdatedNameDetector::new(service, CHECK_ATTEMPTS).check(&parsed) {
        NameCheckOutcome::Current => Some(Contribution::correct()),
        NameCheckOutcome::Unavailable => None,
        _ => Some(Contribution::incorrect()),
    }
}

/// One reassessment run's context as a [`DerivedView`]: the curated
/// records, the record→name map, name reference counts and the ledger,
/// derived from the journal.
pub struct ReassessView<'a> {
    /// The journaled table of records to curate.
    pub records_table: &'a str,
    /// Curation passes re-run on touched records.
    pub pipeline: &'a CurationPipeline,
    /// Checklist service names are re-checked against.
    pub service: &'a ColService,
    /// Where each run's OPM graph is staged, if anywhere.
    pub prov: Option<&'a ProvenanceManager>,
    /// Curation log the re-run passes append to.
    pub log: &'a mut CurationLog,
    /// Review queue the re-run passes flag into.
    pub queue: &'a mut ReviewQueue,
}

impl ReassessView<'_> {
    /// The delta run's OPM graph: the journal slice is the *cause*, the
    /// reassessed collection state the *effect*.
    fn build_graph(
        &self,
        run_id: &str,
        first: u64,
        head: u64,
        plan: &delta::DeltaPlan,
        affected: &BTreeSet<String>,
        summary: &delta::DeltaSummary,
    ) -> OpmGraph {
        let mut g = OpmGraph::new();
        let cause = g.add_artifact(
            Artifact::new(format!("journal:{first}-{head}"), "change journal slice")
                .with_annotation("entries", plan.entries_consumed.to_string())
                .with_annotation("touched_records", plan.touched_records.len().to_string())
                .with_annotation("changed_names", plan.changed_names.len().to_string())
                .with_annotation("changed_sources", plan.changed_sources.len().to_string()),
        );
        let process = g.add_process(
            Process::new(run_id, "delta reassessment")
                .with_annotation("passes_run", summary.passes_run.to_string()),
        );
        let agent = g.add_agent(Agent::new("agent:reassessor", "change-feed reassessor"));
        let effect = g.add_artifact(
            Artifact::new(
                format!("collection:{}@{}", self.records_table, head),
                "reassessed collection state",
            )
            .with_annotation("records_reprocessed", affected.len().to_string()),
        );
        let _ = g.add_edge(Edge::used(
            process.clone(),
            cause.clone(),
            Some("change-feed"),
        ));
        let _ = g.add_edge(Edge::was_generated_by(
            effect.clone(),
            process.clone(),
            Some("reassessed-state"),
        ));
        let _ = g.add_edge(Edge::was_controlled_by(process, agent, Some("maintainer")));
        let _ = g.add_edge(Edge::was_derived_from(effect, cause));
        g
    }
}

impl DerivedView for ReassessView<'_> {
    type Outcome = ReassessOutcome;
    type Error = ReassessError;
    const SPEC: ViewSpec = ViewSpec {
        name: "reassess",
        meta_table: REASSESS_META_TABLE,
        tables: &[
            REASSESS_META_TABLE,
            REASSESS_NAMES_TABLE,
            REASSESS_REFS_TABLE,
        ],
        lag: "preserva_reassess_journal_lag",
        run_seconds: "preserva_reassess_run_seconds",
        batch_entries: Some("preserva_reassess_delta_batch_entries"),
        runs: "preserva_reassess_runs_total",
    };

    /// Affected curation passes on touched records, name re-checks for
    /// changed statuses/references, ledger maintenance, and an OPM graph
    /// whose cause is the consumed journal slice.
    fn apply(
        &mut self,
        snap: &TableSnapshot,
        entries: &[JournalEntry],
        session: &mut WriteSession<'_>,
    ) -> Result<ReassessOutcome, ReassessError> {
        let plan = delta::plan(entries, self.records_table);

        // An upgraded external source a pass depends on means every
        // record must be reconsidered — but still only by the dependent
        // passes (an empty touched-field set triggers nothing else).
        let source_sweep = self.pipeline.passes().iter().any(|p| {
            p.dependencies()
                .sources
                .iter()
                .any(|s| plan.changed_sources.contains(s))
        });
        let mut touched = plan.touched_records.clone();
        if source_sweep {
            for (key, _) in snap.scan(self.records_table)? {
                if let Ok(id) = String::from_utf8(key) {
                    touched
                        .entry(id)
                        .or_insert_with(|| TouchedFields::Fields(BTreeSet::new()));
                }
            }
        }

        // Load the touched records that still exist; ids the journal
        // touched but the table no longer holds are treated as deleted.
        let mut records = Vec::new();
        let mut gone: BTreeSet<String> = plan.deleted_records.clone();
        for id in touched.keys() {
            match snap.get(self.records_table, id.as_bytes())? {
                Some(row) => match serde_json::from_slice::<Record>(&row) {
                    Ok(r) => records.push(r),
                    Err(e) => return Err(CodecError::new(self.records_table, id.clone(), e).into()),
                },
                None => {
                    gone.insert(id.clone());
                }
            }
        }

        let (curated, summary) = delta::run_delta(
            self.pipeline,
            &records,
            &touched,
            &plan.changed_sources,
            self.log,
            self.queue,
        );

        // Name bookkeeping: reference-count deltas from records whose
        // species moved, plus re-checks for names the backbone retired.
        let mut ref_delta: BTreeMap<String, i64> = BTreeMap::new();
        for (before, after) in records.iter().zip(curated.iter()) {
            let old_name = snap
                .get(REASSESS_NAMES_TABLE, after.id.as_bytes())?
                .and_then(|v| String::from_utf8(v).ok());
            let new_name = after
                .get_text("species")
                .and_then(ScientificName::parse)
                .map(|n| n.canonical());
            if old_name != new_name {
                if let Some(old) = &old_name {
                    *ref_delta.entry(old.clone()).or_insert(0) -= 1;
                }
                if let Some(new) = &new_name {
                    *ref_delta.entry(new.clone()).or_insert(0) += 1;
                    session.put(REASSESS_NAMES_TABLE, after.id.as_bytes(), new.as_bytes())?;
                } else {
                    session.delete(REASSESS_NAMES_TABLE, after.id.as_bytes())?;
                }
            }
            if before != after {
                let bytes = serde_json::to_vec(after)
                    .map_err(|e| CodecError::new(self.records_table, after.id.clone(), e))?;
                session.put(self.records_table, after.id.as_bytes(), &bytes)?;
            }
        }
        for id in &gone {
            if let Some(old) = snap
                .get(REASSESS_NAMES_TABLE, id.as_bytes())?
                .and_then(|v| String::from_utf8(v).ok())
            {
                *ref_delta.entry(old).or_insert(0) -= 1;
                session.delete(REASSESS_NAMES_TABLE, id.as_bytes())?;
            }
        }

        let mut ledger = decode_ledger(snap.get(REASSESS_META_TABLE, LEDGER_KEY)?)?;
        let mut candidates: BTreeSet<String> = plan.changed_names.clone();
        candidates.extend(ref_delta.keys().cloned());
        let mut names_rechecked = 0usize;
        for name in &candidates {
            let delta_refs = ref_delta.get(name).copied().unwrap_or(0);
            let (_, refs) = stage_count_delta(
                snap,
                session,
                REASSESS_REFS_TABLE,
                name.as_bytes(),
                delta_refs,
            )?;
            if refs == 0 {
                ledger.remove(name);
                continue;
            }
            names_rechecked += 1;
            // On a `None` verdict (service unavailable or unparseable
            // name) keep the last ledger entry — the full path would
            // keep it out of `checked` only if it was never checked.
            if let Some(c) = check_name(self.service, name) {
                ledger.set(name, c);
            }
        }
        stage_ledger(session, &ledger)?;

        // The O(k) the acceptance metric asserts: records whose passes
        // re-ran, plus records referencing a status-changed name.
        let mut affected: BTreeSet<String> = touched.keys().chain(&gone).cloned().collect();
        for name in &plan.changed_names {
            let species = name.to_lowercase();
            let pks = snap.lookup(self.records_table, "species", species.as_bytes())?;
            affected.extend(pks.into_iter().filter_map(|pk| String::from_utf8(pk).ok()));
        }

        let first = entries.first().map_or(0, |e| e.seq);
        let head = entries.last().map_or(0, |e| e.seq);
        let run_id = match self.prov {
            Some(pm) if !plan.is_empty() => {
                let run_id = format!("reassess-{first:012}-{head:012}");
                let graph = self.build_graph(&run_id, first, head, &plan, &affected, &summary);
                pm.stage_graph(session, &run_id, &graph)?;
                Some(run_id)
            }
            _ => None,
        };
        Ok(ReassessOutcome {
            records_reprocessed: affected.len(),
            passes_run: summary.passes_run,
            field_changes: summary.field_changes,
            flags: summary.flags,
            names_rechecked,
            ledger_totals: ledger.totals(),
            run_id,
            ..Default::default()
        })
    }
}

/// The change-feed consumer: cursor + delta curation + incremental
/// quality bookkeeping over one records table.
#[derive(Debug)]
pub struct Reassessor {
    store: Arc<TableStore>,
    records_table: String,
    driver: ViewDriver,
    records_reprocessed: Arc<Counter>,
    names_rechecked: Arc<Counter>,
}

impl Reassessor {
    /// Bind to a store and records table, with a private metrics
    /// registry. Marks the table journaled (idempotent).
    pub fn new(store: Arc<TableStore>, records_table: &str) -> Result<Self, ReassessError> {
        Self::with_metrics(store, records_table, Arc::new(Registry::new()))
    }

    /// Bind to a store and records table, reporting into `registry`.
    pub fn with_metrics(
        store: Arc<TableStore>,
        records_table: &str,
        registry: Arc<Registry>,
    ) -> Result<Self, ReassessError> {
        store.mark_journaled(records_table)?;
        Ok(Reassessor {
            records_reprocessed: registry.counter(
                "preserva_reassess_records_reprocessed_total",
                "Records a delta run affected (pipeline re-runs plus \
                 name-status fallout) — O(changes), not O(collection).",
            ),
            names_rechecked: registry.counter(
                "preserva_reassess_names_rechecked_total",
                "Species names re-checked against the catalogue by delta runs.",
            ),
            driver: ViewDriver::new::<ReassessView>(store.clone(), registry),
            store,
            records_table: records_table.to_string(),
        })
    }

    /// The metrics registry this reassessor reports to.
    pub fn metrics_registry(&self) -> &Arc<Registry> {
        self.driver.metrics_registry()
    }

    /// The persisted quality ledger (empty before the first run/seed).
    pub fn ledger(&self) -> Result<ContributionLedger, ReassessError> {
        decode_ledger(self.store.head().get(REASSESS_META_TABLE, LEDGER_KEY)?)
    }

    /// Journal sequence number already reassessed.
    pub fn cursor(&self) -> Result<u64, ReassessError> {
        Ok(self.driver.state()?.cursor)
    }

    /// Journal entries committed but not yet reassessed — the lag the
    /// `preserva_reassess_journal_lag` gauge reports.
    pub fn journal_lag(&self) -> Result<u64, ReassessError> {
        Ok(self.driver.lag()?)
    }

    /// Seed the bookkeeping from a completed *full* check: record→name
    /// map, reference counts and ledger are rebuilt to mirror `report`,
    /// and the cursor jumps to the journal head (everything before it is
    /// reflected in the report by construction). One commit.
    pub fn seed(&self, report: &OutdatedNameReport) -> Result<CommitReceipt, ReassessError> {
        let mut refs: BTreeMap<String, u64> = BTreeMap::new();
        for name in report.record_names.values() {
            *refs.entry(name.canonical()).or_insert(0) += 1;
        }
        let incorrect: BTreeSet<String> = report
            .outdated
            .iter()
            .map(|(old, _)| old.canonical())
            .chain(report.doubtful.iter().map(|n| n.canonical()))
            .chain(report.misspelled.iter().map(|(n, _, _)| n.canonical()))
            .chain(report.not_found.iter().map(|n| n.canonical()))
            .collect();
        let unavailable: BTreeSet<String> =
            report.unavailable.iter().map(|n| n.canonical()).collect();
        let mut ledger = ContributionLedger::new();
        for name in refs.keys() {
            if unavailable.contains(name) {
                continue; // unchecked, exactly like the full report
            }
            ledger.set(
                name,
                if incorrect.contains(name) {
                    Contribution::incorrect()
                } else {
                    Contribution::correct()
                },
            );
        }

        let cursor = self.store.journal_head();
        let receipt = self.driver.reset(cursor, |session| {
            for (record_id, name) in &report.record_names {
                session.put(
                    REASSESS_NAMES_TABLE,
                    record_id.as_bytes(),
                    name.canonical().as_bytes(),
                )?;
            }
            for (name, count) in &refs {
                session.put(
                    REASSESS_REFS_TABLE,
                    name.as_bytes(),
                    count.to_string().as_bytes(),
                )?;
            }
            stage_ledger(session, &ledger)
        })?;
        self.driver.metrics_registry().trace(
            "reassess",
            format!(
                "seeded ledger with {} names ({} records) at cursor {}",
                ledger.len(),
                report.record_names.len(),
                cursor
            ),
        );
        Ok(receipt)
    }

    /// Record a backbone upgrade in the change feed: diff the `from` and
    /// `to` editions of `checklist` and journal one `name-status-changed`
    /// event per affected name (plus one `source-changed` marker), all in
    /// one commit. The next [`run`](Self::run) re-checks exactly those
    /// names. Returns the diff and the receipt.
    pub fn swap_backbone(
        &self,
        checklist: &Checklist,
        from_year: i32,
        to_year: i32,
    ) -> Result<(ChecklistDiff, CommitReceipt), ReassessError> {
        let diff = checklist.diff(from_year, to_year);
        let mut session = self.store.session();
        for change in &diff.changes {
            session.journal(
                delta::NAME_STATUS_CHANGED,
                "taxonomy",
                change.name.canonical().as_bytes(),
                format!("{:?} -> {:?}", change.old, change.new).as_bytes(),
            );
        }
        session.journal(
            delta::SOURCE_CHANGED,
            "taxonomy",
            b"checklist",
            format!("{from_year} -> {to_year}").as_bytes(),
        );
        let receipt = session.commit()?;
        self.driver.metrics_registry().trace(
            "reassess",
            format!(
                "backbone swap {from_year} -> {to_year}: {} name status changes journaled",
                diff.len()
            ),
        );
        Ok((diff, receipt))
    }

    /// Consume the journal from the stored cursor (or `since`) and apply
    /// the delta: affected curation passes on touched records, name
    /// re-checks for changed statuses/references, ledger maintenance, and
    /// an OPM graph whose cause is the consumed journal slice — all in
    /// ONE commit, with the cursor advanced past the run's own writes in
    /// a follow-up commit when nothing else committed in between
    /// (DESIGN.md §18).
    ///
    /// Every input — journal slice, touched records, name map, reference
    /// counts and ledger — is captured under ONE pinned snapshot, so the
    /// delta is computed against a single consistent state even while
    /// writers keep committing (delta ≡ full without quiescing anyone).
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        pipeline: &CurationPipeline,
        service: &ColService,
        prov: Option<&ProvenanceManager>,
        since: Option<u64>,
        log: &mut CurationLog,
        queue: &mut ReviewQueue,
    ) -> Result<ReassessOutcome, ReassessError> {
        self.run_at(pipeline, service, prov, since, None, log, queue)
    }

    /// [`run`](Self::run) with an explicit input pin: `at_lsn` time-travels
    /// the input snapshot to any journaled commit LSN (clamped to the
    /// head), replaying the feed exactly as it stood then — commits after
    /// that LSN are invisible to the run and stay for the next one.
    /// Outputs still commit to the live store.
    #[allow(clippy::too_many_arguments)]
    pub fn run_at(
        &self,
        pipeline: &CurationPipeline,
        service: &ColService,
        prov: Option<&ProvenanceManager>,
        since: Option<u64>,
        at_lsn: Option<Lsn>,
        log: &mut CurationLog,
        queue: &mut ReviewQueue,
    ) -> Result<ReassessOutcome, ReassessError> {
        let mut view = ReassessView {
            records_table: &self.records_table,
            pipeline,
            service,
            prov,
            log,
            queue,
        };
        let run = self.driver.run(&mut view, since, at_lsn)?;
        let out = match run.outcome {
            Some(out) => out,
            None => ReassessOutcome {
                ledger_totals: self.ledger()?.totals(),
                ..Default::default()
            },
        };
        self.records_reprocessed.add(out.records_reprocessed as u64);
        self.names_rechecked.add(out.names_rechecked as u64);
        Ok(ReassessOutcome {
            cursor_before: run.cursor_before,
            cursor_after: run.cursor_after,
            journal_lag: run.journal_lag,
            entries_consumed: run.entries_consumed,
            input_lsn: run.input_lsn,
            ..out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retrieval::RecordCatalog;
    use preserva_gazetteer::builder::build_gazetteer;
    use preserva_metadata::fnjv;
    use preserva_metadata::value::Value;
    use preserva_storage::engine::{Engine, EngineOptions};
    use preserva_taxonomy::backbone::{Backbone, Classification, Taxon};
    use preserva_taxonomy::checklist::Evolution;
    use preserva_taxonomy::service::ServiceConfig;

    fn n(s: &str) -> ScientificName {
        ScientificName::parse(s).unwrap()
    }

    /// Three accepted names in 1965; 2010 retires Elachistocleis ovalis.
    fn checklist() -> Checklist {
        let mut b = Backbone::new();
        for name in ["Hyla faber", "Scinax ruber", "Elachistocleis ovalis"] {
            b.insert(Taxon {
                name: n(name),
                classification: Classification::new("Chordata", "Amphibia", "Anura", "F"),
                common_name: None,
            });
        }
        let mut c = Checklist::bootstrap(b, 1965);
        c.release(
            2010,
            &[Evolution::Rename {
                old: n("Elachistocleis ovalis"),
                new: n("Nomen inquirenda"),
            }],
        )
        .unwrap();
        c
    }

    fn service_at(year: i32) -> ColService {
        ColService::new(
            checklist().as_of(year),
            ServiceConfig {
                availability: 1.0,
                ..ServiceConfig::default()
            },
        )
    }

    fn record(id: &str, species: &str) -> Record {
        Record::new(id)
            .with("phylum", Value::Text("Chordata".into()))
            .with("class", Value::Text("Amphibia".into()))
            .with("order", Value::Text("Anura".into()))
            .with("family", Value::Text("Hylidae".into()))
            .with("species", Value::Text(species.into()))
            .with("country", Value::Text("Brazil".into()))
            .with("state", Value::Text("São Paulo".into()))
            .with("city", Value::Text("Campinas".into()))
    }

    fn sample() -> Vec<Record> {
        vec![
            record("FNJV-1", "Hyla faber"),
            record("FNJV-2", "Hyla faber"),
            record("FNJV-3", "Scinax ruber"),
            record("FNJV-4", "Scinax ruber"),
            record("FNJV-5", "Elachistocleis ovalis"),
        ]
    }

    fn pipeline() -> CurationPipeline {
        CurationPipeline::stage1(build_gazetteer(0, 1), fnjv::schema())
    }

    struct Fixture {
        store: Arc<TableStore>,
        catalog: RecordCatalog,
        dir: std::path::PathBuf,
    }

    fn fixture(name: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("preserva-reassess-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(
            TableStore::new(Arc::new(
                Engine::open(&dir, EngineOptions::default()).unwrap(),
            ))
            .unwrap(),
        );
        let catalog = RecordCatalog::open_on(store.clone(), "records").unwrap();
        Fixture {
            store,
            catalog,
            dir,
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }

    /// A failed run must not leak its input snapshot: the pin gauge
    /// returns to zero and compaction is free to fold versions again. A
    /// leaked pin here would silently freeze MVCC garbage collection.
    #[test]
    fn failed_run_never_leaks_a_pinned_snapshot() {
        let f = fixture("pin-hygiene");
        f.catalog.insert_all(&sample()).unwrap();
        let r = Reassessor::new(f.store.clone(), "records").unwrap();
        // Corrupt one journaled record: run_at pins its snapshot, drains
        // the feed, then fails decoding the touched row mid-run.
        f.store.put("records", b"FNJV-1", b"{ not json").unwrap();
        let mut log = CurationLog::new();
        let mut queue = ReviewQueue::new();
        let err = r
            .run_at(
                &pipeline(),
                &service_at(1965),
                None,
                None,
                None,
                &mut log,
                &mut queue,
            )
            .unwrap_err();
        assert!(err.to_string().contains("FNJV-1"), "{err}");
        let pinned = f
            .store
            .engine()
            .metrics_registry()
            .gauge("preserva_storage_snapshots_pinned", "");
        assert_eq!(pinned.get(), 0, "error path must unpin the snapshot");
        // With no pin outstanding the tree folds all the way down.
        f.store.engine().checkpoint().unwrap();
        f.store.engine().compact().unwrap();
        let levels = f.store.engine().runs_per_level();
        let total: usize = levels.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 1, "compaction not blocked: {levels:?}");
    }

    #[test]
    fn backbone_swap_reprocesses_only_affected_records() {
        let f = fixture("swap");
        f.catalog.insert_all(&sample()).unwrap();
        let registry = Arc::new(Registry::new());
        let r = Reassessor::with_metrics(f.store.clone(), "records", registry.clone()).unwrap();

        // Full baseline check at the 1965 edition seeds the bookkeeping.
        let svc_old = service_at(1965);
        let report = OutdatedNameDetector::new(&svc_old, 3).check_collection(&sample());
        r.seed(&report).unwrap();
        assert_eq!(r.ledger().unwrap().totals(), (3.0, 3.0));
        assert_eq!(r.journal_lag().unwrap(), 0);

        // Upgrade the backbone: two names differ between editions
        // (retired old + newly described replacement).
        let (diff, _) = r.swap_backbone(&checklist(), 1965, 2010).unwrap();
        assert_eq!(diff.len(), 2);
        assert_eq!(r.journal_lag().unwrap(), 3); // 2 names + source marker

        let pm = ProvenanceManager::new(f.store.clone());
        let svc_new = service_at(2010);
        let mut log = CurationLog::new();
        let mut queue = ReviewQueue::new();
        let outcome = r
            .run(&pipeline(), &svc_new, Some(&pm), None, &mut log, &mut queue)
            .unwrap();

        // O(k): only the single record carrying the retired name is
        // affected, not the 5-record collection.
        assert_eq!(outcome.records_reprocessed, 1);
        assert_eq!(
            outcome.names_rechecked, 1,
            "replacement name has no records"
        );
        assert_eq!(outcome.entries_consumed, 3);
        assert_eq!(outcome.ledger_totals, (3.0, 2.0));
        // …and the ledger now agrees with a full recheck at the new edition.
        let full = OutdatedNameDetector::new(&svc_new, 3).check_collection(&sample());
        assert_eq!(
            outcome.ledger_totals,
            (full.checked() as f64, full.current as f64)
        );

        // The run's provenance: effect derived from the journal slice.
        let run_id = outcome.run_id.clone().unwrap();
        let graph = pm.load_graph(&run_id).unwrap();
        assert!(preserva_opm::validate::validate(&graph).is_legal());
        assert_eq!(
            graph
                .edges_of_kind(preserva_opm::edge::EdgeKind::WasDerivedFrom)
                .count(),
            1
        );

        // Metrics expose the O(k) claim.
        let text = registry.render_prometheus();
        assert!(text.contains("preserva_reassess_records_reprocessed_total 1"));
        // The batch histogram records the 3 entries pending at the start;
        // the lag gauge is head minus cursor, caught up after the run.
        assert!(text.contains("preserva_reassess_delta_batch_entries_sum 3"));
        assert!(text.contains("preserva_reassess_journal_lag 0"));

        // Cursor caught up: the next run is a no-op.
        let outcome2 = r
            .run(&pipeline(), &svc_new, Some(&pm), None, &mut log, &mut queue)
            .unwrap();
        assert!(outcome2.is_noop());
        assert_eq!(outcome2.cursor_after, outcome.cursor_after);
    }

    #[test]
    fn record_edit_moves_references_and_prunes_ledger() {
        let f = fixture("edit");
        f.catalog.insert_all(&sample()).unwrap();
        let r = Reassessor::new(f.store.clone(), "records").unwrap();
        let svc = service_at(2010);
        let report = OutdatedNameDetector::new(&svc, 3).check_collection(&sample());
        r.seed(&report).unwrap();
        assert_eq!(r.ledger().unwrap().totals(), (3.0, 2.0));

        // Re-identify the outdated specimen: its old name loses its last
        // reference and must leave the ledger entirely.
        f.catalog.insert(&record("FNJV-5", "Hyla faber")).unwrap();
        let mut log = CurationLog::new();
        let mut queue = ReviewQueue::new();
        let outcome = r
            .run(&pipeline(), &svc, None, None, &mut log, &mut queue)
            .unwrap();
        assert_eq!(outcome.records_reprocessed, 1);
        let ledger = r.ledger().unwrap();
        assert_eq!(ledger.totals(), (2.0, 2.0));
        assert!(ledger.get("Elachistocleis ovalis").is_none());
        assert_eq!(
            f.store
                .head()
                .get(REASSESS_REFS_TABLE, b"Hyla faber")
                .unwrap()
                .unwrap(),
            b"3".to_vec()
        );
        assert!(f
            .store
            .head()
            .get(REASSESS_REFS_TABLE, b"Elachistocleis ovalis")
            .unwrap()
            .is_none());
    }

    #[test]
    fn run_from_zero_bootstraps_and_matches_full_path() {
        let f = fixture("bootstrap");
        // Dirty records: the pipeline has real work to do.
        let dirty = vec![
            record("FNJV-1", "  hyla   faber "),
            record("FNJV-2", "scinax RUBER"),
            record("FNJV-3", "Elachistocleis ovalis"),
        ];
        f.catalog.insert_all(&dirty).unwrap();
        let r = Reassessor::new(f.store.clone(), "records").unwrap();
        let svc = service_at(2010);
        let p = pipeline();
        let mut log = CurationLog::new();
        let mut queue = ReviewQueue::new();
        let outcome = r.run(&p, &svc, None, None, &mut log, &mut queue).unwrap();
        // No seed: the whole feed replays, which IS the full run.
        assert_eq!(outcome.records_reprocessed, 3);
        assert!(outcome.field_changes > 0);

        // Stored records equal an in-memory full pipeline run…
        let mut log2 = CurationLog::new();
        let mut queue2 = ReviewQueue::new();
        let (full, _) = p.run(&dirty, &mut log2, &mut queue2);
        assert_eq!(f.catalog.all().unwrap(), full);
        // …and the ledger equals the full detector's facts.
        let full_report = OutdatedNameDetector::new(&svc, 3).check_collection(&full);
        assert_eq!(
            r.ledger().unwrap().totals(),
            (full_report.checked() as f64, full_report.current as f64)
        );

        // The run's own curated writes were skipped over: running again
        // changes nothing and consumes nothing.
        let again = r.run(&p, &svc, None, None, &mut log, &mut queue).unwrap();
        assert!(
            again.is_noop(),
            "second run saw {} entries",
            again.entries_consumed
        );
    }

    #[test]
    fn deleted_record_releases_its_name() {
        let f = fixture("delete");
        f.catalog.insert_all(&sample()).unwrap();
        let r = Reassessor::new(f.store.clone(), "records").unwrap();
        let svc = service_at(2010);
        let report = OutdatedNameDetector::new(&svc, 3).check_collection(&sample());
        r.seed(&report).unwrap();

        f.store.delete("records", b"FNJV-5").unwrap();
        let mut log = CurationLog::new();
        let mut queue = ReviewQueue::new();
        let outcome = r
            .run(&pipeline(), &svc, None, None, &mut log, &mut queue)
            .unwrap();
        assert_eq!(outcome.records_reprocessed, 1);
        let ledger = r.ledger().unwrap();
        assert_eq!(ledger.totals(), (2.0, 2.0));
        assert!(ledger.get("Elachistocleis ovalis").is_none());
        assert!(f
            .store
            .head()
            .get(REASSESS_NAMES_TABLE, b"FNJV-5")
            .unwrap()
            .is_none());
    }

    #[test]
    fn run_at_pins_the_input_to_a_historical_lsn() {
        let f = fixture("at-lsn");
        f.catalog.insert_all(&sample()).unwrap();
        let r = Reassessor::new(f.store.clone(), "records").unwrap();
        let svc = service_at(2010);
        let report = OutdatedNameDetector::new(&svc, 3).check_collection(&sample());
        let seed_receipt = r.seed(&report).unwrap();

        // Journal a backbone swap AFTER the pin point.
        r.swap_backbone(&checklist(), 1965, 2010).unwrap();
        assert_eq!(r.journal_lag().unwrap(), 3);

        // Pinned at the seed commit, the swap's entries are invisible —
        // the run replays the feed exactly as it stood then: a no-op.
        let mut log = CurationLog::new();
        let mut queue = ReviewQueue::new();
        let pinned = r
            .run_at(
                &pipeline(),
                &svc,
                None,
                None,
                Some(seed_receipt.lsn),
                &mut log,
                &mut queue,
            )
            .unwrap();
        assert!(pinned.is_noop(), "entries after the pin stay unconsumed");
        assert_eq!(pinned.input_lsn, seed_receipt.lsn);
        assert_eq!(r.journal_lag().unwrap(), 3, "cursor did not move");

        // An unpinned run then consumes them normally.
        let live = r
            .run(&pipeline(), &svc, None, None, &mut log, &mut queue)
            .unwrap();
        assert_eq!(live.entries_consumed, 3);
        assert!(live.input_lsn > seed_receipt.lsn);
    }

    #[test]
    fn explicit_since_replays_the_feed_idempotently() {
        let f = fixture("since");
        f.catalog.insert_all(&sample()).unwrap();
        let r = Reassessor::new(f.store.clone(), "records").unwrap();
        let svc = service_at(2010);
        let p = pipeline();
        let mut log = CurationLog::new();
        let mut queue = ReviewQueue::new();
        let first = r.run(&p, &svc, None, None, &mut log, &mut queue).unwrap();
        let ledger_after = r.ledger().unwrap();
        // Replaying from zero reconsiders everything but converges to the
        // identical state.
        let replay = r
            .run(&p, &svc, None, Some(0), &mut log, &mut queue)
            .unwrap();
        assert_eq!(replay.ledger_totals, first.ledger_totals);
        assert_eq!(r.ledger().unwrap(), ledger_after);
        assert_eq!(f.catalog.all().unwrap().len(), 5);
    }
}
