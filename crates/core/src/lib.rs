#![warn(missing_docs)]

//! `preserva-core` — the paper's architecture (Figure 1), wired end to
//! end over the substrates:
//!
//! ```text
//!  Process Designer ──> Workflow Adapter ──> quality-aware workflows
//!                                               │
//!  Workflow Repository <────────────────────────┤
//!                                               ▼
//!                              Scientific Workflow engine (preserva-wfms)
//!                                               │  trace
//!                                               ▼
//!                     Provenance Manager ──> OPM graph ──> Provenance Repository
//!                                               │                (preserva-storage)
//!  End User ──> Data Quality Manager <──────────┘
//!                    │  (a) provenance  (b) annotations  (c) external sources
//!                    ▼
//!            computed quality attributes + workflow trace
//! ```
//!
//! * [`preservation`] — the DPHEP preservation models of Table I
//! * [`roles`] — Process Designer and End User
//! * [`adapter`] — the Workflow Adapter (annotate without changing the
//!   workflow model)
//! * [`provenance_manager`] — trace → OPM → durable provenance repository
//! * [`quality_manager`] — the Data Quality Manager
//! * [`collection`] — the [`Collection`] facade a deployment opens: one
//!   engine shared by the data, workflow and provenance repositories (the
//!   figure's "database management system"), with the managers, derived
//!   views and workflow publishing on top. Workflows run on a
//!   `preserva_wfms::Engine` whose sink is the collection's provenance
//!   manager (Figure 3 is one such instance; see `examples/` and the
//!   bench harness).

pub mod adapter;
pub mod capture_batcher;
pub mod collection;
pub mod preservation;
pub mod prov_index;
pub mod provenance_manager;
pub mod quality_manager;
pub mod reassess;
pub mod repository;
pub mod retrieval;
pub mod roles;

pub use collection::{Collection, CollectionError, CollectionOptions, MaintenanceReport};
pub use preservation::PreservationModel;
pub use reassess::{ReassessOutcome, Reassessor};
pub use repository::Repository;
pub use roles::{EndUser, ProcessDesigner};
