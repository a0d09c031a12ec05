//! # ivc-experiments — the parallel campaign engine
//!
//! The paper's headline results are all *sweeps*: attack success versus
//! distance, element count, power and environment.  This crate turns
//! one-off `run_trial` calls into reproducible campaigns:
//!
//! * [`grid`] — the parameter-grid DSL: a [`CampaignSpec`] declares axes
//!   (detector training, device, delivery, room, environment, command,
//!   distance) and expands into the concrete [`ivc_core::Scenario`] cross
//!   product.
//! * [`executor`] — a bounded `std::thread` worker pool running the
//!   staged pipeline (one shared [`ivc_core::PreparedCell`] per cell, one
//!   trained detector per axis entry) with deterministic per-trial
//!   seeding: the same spec produces the **byte-identical** archived
//!   report at any worker count.  [`run_campaign`] is the in-process
//!   run: [`run_shard`] on the one-shard plan, then [`merge_shards`].
//! * [`aggregate`] — per-cell success rates with Wilson confidence
//!   intervals, mean word accuracy, bystander SPL and detector
//!   probability, and success-vs-distance psychometric curves.
//! * [`report`] — the archivable [`CampaignReport`] with its JSON
//!   encoding (via the dependency-free [`ivc_core::json`] layer).
//! * [`shard`] — the one report assembly: a [`ShardPlan`] partitions the
//!   job space into contiguous `(cell, trial)` ranges, [`run_shard`]
//!   executes one range anywhere from the pure spec, and [`merge_shards`]
//!   / [`merge_shard_files`] stream the partials through per-cell
//!   accumulators into the report — merge memory is O(cells), not
//!   O(trials held twice).  Every tiling merges to the bytes of the
//!   one-shard tiling, which is what [`run_campaign`] returns.
//! * [`columns`] — the compact binary wire format for shard partials
//!   (`ivc-trial-columns-v1`): one length-prefixed column per
//!   [`TrialRecord`] field, deterministic bytes, loud versioned
//!   rejection of foreign or truncated archives.
//! * [`orchestrate`](mod@orchestrate) — the one multi-process shard
//!   runner: [`orchestrate::orchestrate`] supervises `repro shard-worker`
//!   processes ([`ProcessLauncher`]) with bounded retries, straggler
//!   re-issue (first completed result wins), per-shard checkpoints and
//!   crash resume — the final report is still byte-identical to the
//!   in-process run.
//! * [`presets`] — built-in campaigns: every paper sweep (`a1`–`a6`,
//!   `b1`–`b3`, `d1`–`d6`), a defense acceptance sweep, the room sweep,
//!   and the CI smoke grid.
//!
//! ```no_run
//! use ivc_experiments::{default_workers, run_campaign, CampaignSpec, DeliverySpec};
//!
//! let spec = CampaignSpec {
//!     deliveries: (1..=4)
//!         .map(|i| DeliverySpec::array(format!("{} elements", 8 * i), 8 * i, 60.0, 40_000.0))
//!         .collect(),
//!     distances_m: vec![1.0, 2.0, 4.0],
//!     trials_per_cell: 3,
//!     ..CampaignSpec::new("my-sweep")
//! };
//! let report = run_campaign(&spec, default_workers()).unwrap();
//! println!("{}", report.summary_table().render());
//! report.save(std::path::Path::new("my-sweep.json")).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod columns;
pub mod error;
pub mod executor;
pub mod grid;
pub mod orchestrate;
pub mod presets;
pub mod report;
pub mod shard;

pub use aggregate::{CellAccumulator, CellReport, CellStats, PsychometricCurve};
pub use columns::COLUMNS_FORMAT;
pub use error::{ExperimentError, Result};
pub use executor::{default_workers, run_campaign, TrialRecord};
pub use grid::{
    detector_token, room_from_token, room_token, CampaignSpec, CellCoords, CellSpec, DeliverySpec,
    DetectorSpec, EnvironmentPreset,
};
pub use orchestrate::{
    manifest_file_name, orchestrate, OrchestratorConfig, OrchestratorRun, OrchestratorStats,
    ProcessLauncher, RunEvent, ShardLauncher, MANIFEST_FORMAT,
};
pub use report::CampaignReport;
pub use shard::{
    merge_shard_files, merge_shards, metrics_sidecar_path, run_shard, shard_archive_file_name,
    ShardArchive, ShardJob, ShardMerger, ShardPlan, ShardRange,
};
