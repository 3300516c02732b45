#![warn(missing_docs)]

//! `preserva-wfms` — a scientific workflow management system standing in
//! for Taverna (Hull et al. 2006), which the paper uses to run its
//! curation workflows.
//!
//! The architecture needs exactly four contact surfaces from its WFMS, and
//! this crate provides all four:
//!
//! 1. **a dataflow workflow model** — [`model::Workflow`]: processors with
//!    named input/output ports wired by data links ([`validate`] checks
//!    the graph is a well-formed DAG before execution);
//! 2. **annotation assertions** — [`annotation`]: Taverna's Annotation
//!    Editor attaches free-text assertions to processors; quality
//!    annotations use the paper's `Q(dimension): value;` syntax
//!    (Listing 1) and are parsed, not just stored;
//! 3. **execution with provenance capture** — [`engine::Engine`] runs
//!    workflows (parallel where the DAG allows, with retry policies for
//!    flaky services), producing an [`trace::ExecutionTrace`] that
//!    [`opm_export`] converts to an OPM graph, mirroring Taverna's OPM
//!    export;
//! 4. **a publishable spec format** — [`spec`] serializes workflows to
//!    the XML-ish format excerpted in the paper's Listing 1 and parses it
//!    back; the workflow repository itself is a pair of tables in the
//!    shared store (`preserva_core::Collection::publish_workflow`).
//!
//! Services a workflow invokes are registered in a
//! [`services::ServiceRegistry`]; [`services::FlakyService`] wraps any
//! service with seeded availability faults so "connection problems" are
//! reproducible.

pub mod annotation;
pub mod breaker;
pub mod decay;
pub mod engine;
pub mod fault;
pub mod model;
pub mod opm_export;
pub mod pool;
pub mod services;
pub mod sink;
pub mod spec;
pub mod trace;
pub mod validate;

pub use breaker::{BreakerConfig, BreakerSnapshot, BreakerState, CircuitBreaker};
pub use engine::{Engine, EngineConfig, EngineStats, RetryPolicy, RunError};
pub use fault::{FaultInjector, FaultPlan};
pub use model::{DataLink, Endpoint, Processor, ProcessorKind, Workflow};
pub use services::{PortMap, Service, ServiceError, ServiceRegistry};
pub use sink::{BufferingSink, NullSink, ProvenanceSink, SinkError};
pub use trace::ExecutionTrace;
