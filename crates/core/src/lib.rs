//! # ivc-core — end-to-end scenarios and experiments
//!
//! This crate wires the substrates together into the pipeline every
//! experiment runs:
//!
//! ```text
//! voice command ──► attack construction ──► speaker array ──► air ──► victim microphone
//!                                                                        │
//!                       speech recogniser ◄── digital recording ◄────────┤
//!                       defense detector  ◄──────────────────────────────┘
//! ```
//!
//! * [`scenario`] — the description of one experimental setup (device,
//!   distance, environment, ambient noise, how the command is delivered).
//! * [`stages`] — the staged trial pipeline (**Prepare → Perturb →
//!   Evaluate**): the cell-invariant work is packaged once as an immutable
//!   [`stages::PreparedCell`] and shared across all trials of a campaign
//!   cell.
//! * [`dataset`] — the detector's training corpus, built and captured by
//!   the same stages trials run.
//! * [`pipeline`] — the compose-all wrapper: [`pipeline::run_trial`] runs
//!   the three stages for one `(scenario, seed)` and reports whether the
//!   command was accepted, its word accuracy, the speaker-side leakage and
//!   the defense verdict.
//! * [`results`] — the table container the reproduction harness prints
//!   paper-style outputs with.
//! * [`json`] — a dependency-free JSON value model, writer and parser used
//!   to archive experiment reports (the workspace has no serialisation
//!   dependency, so archival gets its own deterministic layer).
//! * [`columns`] — length-prefixed little-endian column primitives for
//!   compact binary archives (the trial-record columnar format in
//!   `ivc-experiments` is built on them).
//! * [`telemetry`] — process-wide spans, counters and duration histograms
//!   instrumenting the stages and everything above them; overhead-free
//!   when disabled and never part of archived bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columns;
pub mod dataset;
pub mod json;
pub mod pipeline;
pub mod prepare_cache;
pub mod results;
pub mod scenario;
pub mod stages;
pub mod telemetry;

pub use dataset::DatasetConfig;
pub use json::JsonValue;
pub use pipeline::{run_trial, TrialOutcome};
pub use results::Table;
pub use scenario::{Delivery, Scenario};
pub use stages::PreparedCell;

/// Convenience error alias: the pipeline surfaces whichever layer failed.
pub type Error = Box<dyn std::error::Error + Send + Sync>;
/// Convenience result alias used by the pipeline.
pub type Result<T> = std::result::Result<T, Error>;
