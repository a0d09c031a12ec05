//! Shard-parallel campaign execution over the `PreparedCell` boundary.
//!
//! A campaign's job space — cell-major `(cell, trial)` slots, exactly the
//! order the archive stores records in — is partitioned by a [`ShardPlan`]
//! into contiguous ranges.  Each [`ShardJob`] is self-contained: it
//! carries the full [`CampaignSpec`] plus its slot range, so a worker
//! anywhere (another process, another machine) can run
//! [`run_shard`] with nothing but the job file.  The worker re-runs the
//! Prepare stage locally from the pure spec — only specs and
//! [`TrialRecord`]s ever cross the boundary, never waveforms — and emits a
//! partial archive ([`ShardArchive`], format [`SHARD_FORMAT`]).
//!
//! [`merge_shards`] reassembles the partials in slot order and streams
//! them through a [`ShardMerger`] — per-cell [`CellAccumulator`]s fold
//! each record once as its shard is absorbed, records move (never clone)
//! into their cell's report, and the aggregation state stays O(cells) — then
//! returns the [`CampaignReport`].  This is the one report assembly:
//! [`crate::run_campaign`] is [`run_shard`] on the one-shard plan plus
//! this merge, so every tiling, at any shard count and any per-shard
//! worker count, merges to the **byte-identical** in-process report.  The
//! contract holds because every trial is a pure function of
//! `(spec, cell, seed)` and both the record order and the aggregation are
//! functions of the spec alone — scheduling, sharding and process
//! boundaries never reach the bytes.
//!
//! Partials travel in one wire format, the compact columnar encoding
//! ([`crate::columns`], tag `ivc-trial-columns-v1`).  The JSON form
//! ([`SHARD_FORMAT`], [`ShardArchive::to_json_string`]) is a one-way
//! human-facing dump (`repro export-json`): nothing loads it back.

use crate::aggregate::{psychometric_curves, CellAccumulator, CellReport};
use crate::columns;
use crate::error::{ExperimentError, Result};
use crate::executor::{execute_jobs, TrialRecord};
use crate::grid::{CampaignSpec, CellSpec};
use crate::report::{
    obj, req, req_str, req_usize, spec_from_json, spec_to_json, trial_to_json, CampaignReport,
};
use ivc_core::json::JsonValue;
use std::path::Path;

/// Format tag of a shard partial archive ([`ShardArchive`]).
pub const SHARD_FORMAT: &str = "ivc-campaign-shard-v1";

/// Format tag of a shard job file ([`ShardJob`]).
pub const SHARD_JOB_FORMAT: &str = "ivc-campaign-shard-job-v1";

/// One shard's slice of a campaign's job space: the contiguous cell-major
/// slot range `[start_job, end_job)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// Position of this shard in the plan.
    pub shard_index: usize,
    /// Total number of shards in the plan.
    pub num_shards: usize,
    /// First cell-major job slot of the shard (inclusive).
    pub start_job: usize,
    /// One past the last job slot of the shard (exclusive).
    pub end_job: usize,
}

impl ShardRange {
    /// Number of trials this shard runs.
    pub fn num_jobs(&self) -> usize {
        self.end_job - self.start_job
    }

    /// The `(cell_index, trial_index)` jobs of this shard, in slot order.
    pub fn jobs(&self, trials_per_cell: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        (self.start_job..self.end_job)
            .map(move |slot| (slot / trials_per_cell, slot % trials_per_cell))
    }
}

/// A partition of one campaign's job space into contiguous shards.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// The campaign being partitioned.
    pub spec: CampaignSpec,
    /// The shards, in slot order; they tile `[0, spec.num_trials())`.
    pub shards: Vec<ShardRange>,
}

impl ShardPlan {
    /// Partitions `spec`'s job space into `num_shards` contiguous,
    /// near-equal ranges (sizes differ by at most one job; the remainder
    /// goes to the leading shards).  With more shards than jobs the tail
    /// shards are empty — every job is still covered exactly once.
    pub fn partition(spec: &CampaignSpec, num_shards: usize) -> Result<ShardPlan> {
        spec.validate()?;
        if num_shards == 0 {
            return Err(ExperimentError::invalid("shards", "must be at least 1"));
        }
        let num_jobs = spec.num_trials();
        let base = num_jobs / num_shards;
        let extra = num_jobs % num_shards;
        let mut shards = Vec::with_capacity(num_shards);
        let mut start = 0;
        for shard_index in 0..num_shards {
            let len = base + usize::from(shard_index < extra);
            shards.push(ShardRange {
                shard_index,
                num_shards,
                start_job: start,
                end_job: start + len,
            });
            start += len;
        }
        debug_assert_eq!(start, num_jobs);
        Ok(ShardPlan {
            spec: spec.clone(),
            shards,
        })
    }

    /// The self-contained jobs of this plan, one per shard.
    pub fn jobs(&self) -> Vec<ShardJob> {
        self.shards
            .iter()
            .map(|&shard| ShardJob {
                spec: self.spec.clone(),
                shard,
            })
            .collect()
    }
}

/// Stable file name of a shard's job file (shared by `repro shard-plan`
/// and the in-driver `--shards` path, so the two spellings of the same
/// contract cannot drift).
pub fn shard_job_file_name(spec_name: &str, shard: &ShardRange) -> String {
    format!(
        "{spec_name}.shard-{}-of-{}.job.json",
        shard.shard_index, shard.num_shards
    )
}

/// Stable file name of a shard's partial archive (`.part.bin`).
pub fn shard_archive_file_name(spec_name: &str, shard: &ShardRange) -> String {
    format!(
        "{spec_name}.shard-{}-of-{}.part.bin",
        shard.shard_index, shard.num_shards
    )
}

/// Path of the telemetry sidecar a worker writes next to a partial
/// archive: the partial's path with its extension replaced by
/// `.metrics.json`.  Derived from the *output* path, so an attempt-unique
/// partial gets an attempt-unique sidecar, and the orchestrator can
/// rename the two together when a checkpoint is accepted.
pub fn metrics_sidecar_path(partial_path: &Path) -> std::path::PathBuf {
    partial_path.with_extension("metrics.json")
}

/// Everything a worker needs to run one shard: the full spec plus the
/// shard's slot range.  Serialisable, so the job can be shipped to another
/// process or machine as a small JSON file.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardJob {
    /// The campaign the shard belongs to.
    pub spec: CampaignSpec,
    /// The shard's slice of the job space.
    pub shard: ShardRange,
}

impl ShardJob {
    /// Validates the spec and checks the range against it.
    pub fn validate(&self) -> Result<()> {
        self.spec.validate()?;
        validate_range(&self.shard, self.spec.num_trials())
    }

    /// Serialises the job to its JSON file form (pretty, deterministic).
    pub fn to_json_string(&self) -> String {
        let mut members = vec![
            ("format", JsonValue::string(SHARD_JOB_FORMAT)),
            ("spec", spec_to_json(&self.spec)),
        ];
        members.extend(range_members(&self.shard));
        obj(members).to_json_string_pretty()
    }

    /// Parses a job file.
    pub fn from_json_str(text: &str) -> Result<ShardJob> {
        let root = JsonValue::parse(text).map_err(|e| ExperimentError::decode(e.to_string()))?;
        check_format(&root, SHARD_JOB_FORMAT, "shard job")?;
        Ok(ShardJob {
            spec: spec_from_json(req(&root, "spec")?)?,
            shard: range_from_json(&root)?,
        })
    }

    /// Writes the job file to `path`.
    pub fn save(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.to_json_string())
            .map_err(|e| ExperimentError::Io(format!("writing {}: {e}", path.display())))
    }

    /// Reads a job file back from `path`.
    pub fn load(path: &Path) -> Result<ShardJob> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ExperimentError::Io(format!("reading {}: {e}", path.display())))?;
        ShardJob::from_json_str(&text)
    }
}

/// A finished shard: the spec, the range it ran, and the trial records in
/// slot order — the unit that crosses process/machine boundaries back to
/// the merger.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardArchive {
    /// The campaign the shard belongs to.
    pub spec: CampaignSpec,
    /// The shard's slice of the job space.
    pub shard: ShardRange,
    /// The shard's trial records, in cell-major slot order.
    pub records: Vec<TrialRecord>,
}

impl ShardArchive {
    /// Serialises the partial archive as pretty, deterministic JSON — the
    /// human-facing dump `repro export-json` writes.  One way only: the
    /// wire and checkpoint format is [`to_column_bytes`](Self::to_column_bytes).
    pub fn to_json_string(&self) -> String {
        let mut members = vec![
            ("format", JsonValue::string(SHARD_FORMAT)),
            ("spec", spec_to_json(&self.spec)),
        ];
        members.extend(range_members(&self.shard));
        members.push((
            "records",
            JsonValue::Array(self.records.iter().map(trial_to_json).collect()),
        ));
        obj(members).to_json_string_pretty()
    }

    /// Serialises the partial archive to the compact columnar encoding
    /// ([`crate::columns`], tag `ivc-trial-columns-v1`).
    pub fn to_column_bytes(&self) -> Vec<u8> {
        columns::to_column_bytes(self)
    }

    /// Parses the columnar encoding back into a partial archive.
    pub fn from_column_bytes(bytes: &[u8]) -> Result<ShardArchive> {
        columns::from_column_bytes(bytes)
    }

    /// Writes the partial archive to `path` in the columnar encoding.
    pub fn save(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.to_column_bytes())
            .map_err(|e| ExperimentError::Io(format!("writing {}: {e}", path.display())))
    }

    /// Reads a columnar partial archive back from `path`.  Anything else
    /// (a legacy JSON partial included) is a decode error naming the file.
    pub fn load(path: &Path) -> Result<ShardArchive> {
        let bytes = read_partial(path)?;
        ShardArchive::from_column_bytes(&bytes).map_err(|e| in_file(path, e))
    }

    /// Reads just the shard's slot range from `path` — O(header), so a
    /// streaming merge orders its input files without holding more than
    /// one decoded partial at a time.
    pub fn peek_range(path: &Path) -> Result<ShardRange> {
        let bytes = read_partial(path)?;
        columns::peek_column_range(&bytes).map_err(|e| in_file(path, e))
    }

    /// Checks that this partial is exactly the finished form of `job`:
    /// same spec, the very slot range the plan assigned, and a full,
    /// slot-consistent record set.  This is the orchestrator's
    /// checkpoint-acceptance test — a partial that validates here is by
    /// construction a partial [`merge_shards`] will accept, so resuming
    /// from surviving checkpoints can never assemble an archive the merge
    /// would have rejected.
    pub fn validate_for(&self, job: &ShardJob) -> Result<()> {
        validate_partial(self, &job.spec)?;
        if self.shard != job.shard {
            return Err(ExperimentError::Merge(format!(
                "partial covers jobs [{}, {}) of a {}-shard plan, expected [{}, {}) of {}",
                self.shard.start_job,
                self.shard.end_job,
                self.shard.num_shards,
                job.shard.start_job,
                job.shard.end_job,
                job.shard.num_shards
            )));
        }
        Ok(())
    }
}

fn read_partial(path: &Path) -> Result<Vec<u8>> {
    std::fs::read(path).map_err(|e| ExperimentError::Io(format!("reading {}: {e}", path.display())))
}

/// Prefixes a decode error with the file it came from.
fn in_file(path: &Path, error: ExperimentError) -> ExperimentError {
    match error {
        ExperimentError::Decode(reason) => {
            ExperimentError::decode(format!("{}: {reason}", path.display()))
        }
        other => other,
    }
}

/// Validates one partial against the campaign it claims to belong to:
/// spec equality, a well-formed range, exactly one record per slot, and
/// every record agreeing with its slot's `(cell, trial)` coordinates.
/// Shared by [`merge_shards`] and [`ShardArchive::validate_for`] so the
/// merge contract and the resume contract cannot drift apart.
pub fn validate_partial(shard: &ShardArchive, spec: &CampaignSpec) -> Result<()> {
    if shard.spec != *spec {
        return Err(ExperimentError::Merge(format!(
            "shard {} was produced by a different spec ('{}' vs '{}')",
            shard.shard.shard_index, shard.spec.name, spec.name
        )));
    }
    let num_jobs = spec.num_trials();
    let trials_per_cell = spec.trials_per_cell;
    validate_range(&shard.shard, num_jobs)?;
    let range = &shard.shard;
    if shard.records.len() != range.num_jobs() {
        return Err(ExperimentError::Merge(format!(
            "shard {} carries {} records for {} jobs",
            range.shard_index,
            shard.records.len(),
            range.num_jobs()
        )));
    }
    for (offset, record) in shard.records.iter().enumerate() {
        let slot = range.start_job + offset;
        let (cell_index, trial_index) = (slot / trials_per_cell, slot % trials_per_cell);
        if record.cell_index != cell_index || record.trial_index != trial_index {
            return Err(ExperimentError::Merge(format!(
                "shard {}: record at slot {slot} claims (cell {}, trial {}), expected \
                 (cell {cell_index}, trial {trial_index})",
                range.shard_index, record.cell_index, record.trial_index
            )));
        }
    }
    Ok(())
}

/// Runs one shard in-process on `workers` threads: the banded executor
/// with its shared-`PreparedCell` contract, restricted to the shard's slot
/// range.  Prepare runs locally from the spec (a pure function), so a
/// worker needs nothing but the job.
pub fn run_shard(job: &ShardJob, workers: usize) -> Result<ShardArchive> {
    job.validate()?;
    let records = execute_jobs(&job.spec, job.shard.start_job, job.shard.end_job, workers)?;
    Ok(ShardArchive {
        spec: job.spec.clone(),
        shard: job.shard,
        records,
    })
}

/// Streaming shard merge: absorbs partials one at a time — in slot order
/// — folding every record into its cell's [`CellAccumulator`] and moving
/// it (never cloning) into the cell's trial list, then finishes into the
/// full [`CampaignReport`].
///
/// Aggregation state is O(cells): one accumulator of running sums per
/// cell.  The record vectors themselves end up in the report (the JSON
/// archive embeds every trial), but only ever in one copy, and a caller
/// that loads partials from files one by one ([`merge_shard_files`])
/// never holds more than one shard's records beyond that single copy.
pub struct ShardMerger {
    spec: CampaignSpec,
    cells: Vec<CellSpec>,
    accumulators: Vec<CellAccumulator>,
    trials: Vec<Vec<TrialRecord>>,
    expected_start: usize,
}

impl ShardMerger {
    /// A merger for `spec`'s job space, with every cell empty.
    pub fn new(spec: CampaignSpec) -> Result<ShardMerger> {
        spec.validate()?;
        let cells = spec.cells();
        Ok(ShardMerger {
            accumulators: vec![CellAccumulator::new(); cells.len()],
            trials: vec![Vec::new(); cells.len()],
            cells,
            spec,
            expected_start: 0,
        })
    }

    /// Absorbs the next partial, which must continue the tiling exactly
    /// where the previous one ended (callers with unordered input sort by
    /// `start_job` first, as [`merge_shards`] does): the slot-order
    /// discipline is what keeps the floating-point sums — and therefore
    /// the merged bytes — identical to the in-process run.
    pub fn absorb(&mut self, shard: ShardArchive) -> Result<()> {
        validate_partial(&shard, &self.spec)?;
        let range = shard.shard;
        if range.start_job < self.expected_start {
            return Err(ExperimentError::Merge(format!(
                "shard {} overlaps: jobs [{}, {}) but jobs below {} are already covered",
                range.shard_index, range.start_job, range.end_job, self.expected_start
            )));
        }
        if range.start_job > self.expected_start {
            return Err(ExperimentError::Merge(format!(
                "gap in shard coverage: jobs [{}, {}) are missing",
                self.expected_start, range.start_job
            )));
        }
        let trials_per_cell = self.spec.trials_per_cell;
        for (offset, record) in shard.records.into_iter().enumerate() {
            let cell_index = (range.start_job + offset) / trials_per_cell;
            self.accumulators[cell_index].fold(&record);
            self.trials[cell_index].push(record);
        }
        self.expected_start = range.end_job;
        Ok(())
    }

    /// Checks the tiling reached the end of the job space and builds the
    /// report from the per-cell accumulators and the moved records.
    pub fn finish(self) -> Result<CampaignReport> {
        let num_jobs = self.spec.num_trials();
        if self.expected_start != num_jobs {
            return Err(ExperimentError::Merge(format!(
                "gap in shard coverage: jobs [{}, {num_jobs}) are missing",
                self.expected_start
            )));
        }
        let cell_reports: Vec<CellReport> = self
            .cells
            .iter()
            .zip(self.accumulators)
            .zip(self.trials)
            .map(|((cell, accumulator), trials)| CellReport {
                cell: *cell,
                label: self.spec.cell_label(cell),
                stats: accumulator.stats(),
                trials,
            })
            .collect();
        let curves = psychometric_curves(&self.spec, &cell_reports);
        Ok(CampaignReport {
            spec: self.spec,
            cells: cell_reports,
            curves,
        })
    }
}

/// Merges shard partials back into the full campaign report, consuming
/// them: records move into the report, they are never cloned.
///
/// The partials may arrive in any order; they are sorted into slot order,
/// checked against each other (same spec, no gaps, no overlaps, records
/// agreeing with their slots) and streamed through a [`ShardMerger`].
/// The result is byte-identical to [`crate::run_campaign`] on the same
/// spec.
pub fn merge_shards(mut shards: Vec<ShardArchive>) -> Result<CampaignReport> {
    let first = shards
        .first()
        .ok_or_else(|| ExperimentError::Merge("no shard archives to merge".to_string()))?;
    let mut merger = ShardMerger::new(first.spec.clone())?;
    shards.sort_by_key(|shard| (shard.shard.start_job, shard.shard.end_job));
    for shard in shards {
        merger.absorb(shard)?;
    }
    merger.finish()
}

/// Merges shard partials straight from their files, loading (and
/// dropping) one partial at a time: peak memory is one decoded shard
/// plus the growing report, never the whole flat record list, regardless
/// of how many trials the campaign ran.
///
/// Files are ordered by their shard range first — O(header) per file via
/// [`ShardArchive::peek_range`] — so the partials stream through the
/// [`ShardMerger`] in slot order whatever order the paths arrive in.
pub fn merge_shard_files(paths: &[std::path::PathBuf]) -> Result<CampaignReport> {
    if paths.is_empty() {
        return Err(ExperimentError::Merge(
            "no shard archives to merge".to_string(),
        ));
    }
    let mut ordered: Vec<(usize, usize, &std::path::PathBuf)> = Vec::with_capacity(paths.len());
    for path in paths {
        let range = ShardArchive::peek_range(path)?;
        ordered.push((range.start_job, range.end_job, path));
    }
    ordered.sort_by_key(|&(start, end, _)| (start, end));
    let mut merger: Option<ShardMerger> = None;
    for (_, _, path) in ordered {
        let shard = ShardArchive::load(path)?;
        if merger.is_none() {
            merger = Some(ShardMerger::new(shard.spec.clone())?);
        }
        merger.as_mut().expect("just created").absorb(shard)?;
    }
    merger.expect("at least one path absorbed").finish()
}

fn check_format(root: &JsonValue, expected: &str, what: &str) -> Result<()> {
    let format = req_str(root, "format")?;
    if format != expected {
        return Err(ExperimentError::decode(format!(
            "unsupported {what} format '{format}' (expected '{expected}')"
        )));
    }
    Ok(())
}

/// The shard-range JSON members, kept next to [`range_from_json`] so the
/// two directions of the encoding cannot drift.
fn range_members(range: &ShardRange) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("shard_index", JsonValue::number(range.shard_index as f64)),
        ("num_shards", JsonValue::number(range.num_shards as f64)),
        ("start_job", JsonValue::number(range.start_job as f64)),
        ("end_job", JsonValue::number(range.end_job as f64)),
    ]
}

fn range_from_json(root: &JsonValue) -> Result<ShardRange> {
    Ok(ShardRange {
        shard_index: req_usize(root, "shard_index")?,
        num_shards: req_usize(root, "num_shards")?,
        start_job: req_usize(root, "start_job")?,
        end_job: req_usize(root, "end_job")?,
    })
}

fn validate_range(range: &ShardRange, num_jobs: usize) -> Result<()> {
    if range.num_shards == 0 || range.shard_index >= range.num_shards {
        return Err(ExperimentError::invalid(
            "shards",
            format!(
                "shard index {} outside the {}-shard plan",
                range.shard_index, range.num_shards
            ),
        ));
    }
    if range.start_job > range.end_job || range.end_job > num_jobs {
        return Err(ExperimentError::invalid(
            "shards",
            format!(
                "job range [{}, {}) outside the campaign's {} jobs",
                range.start_job, range.end_job, num_jobs
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_campaign;
    use crate::grid::DeliverySpec;

    fn spec_with(cells: usize, trials_per_cell: usize) -> CampaignSpec {
        CampaignSpec {
            deliveries: (0..cells)
                .map(|i| DeliverySpec::array(format!("array {i}"), 4 + i, 40.0, 40_000.0))
                .collect(),
            trials_per_cell,
            ..CampaignSpec::new("plan")
        }
    }

    #[test]
    fn partition_tiles_the_job_space_evenly() {
        let spec = spec_with(5, 3); // 15 jobs
        let plan = ShardPlan::partition(&spec, 4).unwrap();
        assert_eq!(plan.shards.len(), 4);
        let sizes: Vec<usize> = plan.shards.iter().map(|s| s.num_jobs()).collect();
        assert_eq!(sizes, vec![4, 4, 4, 3]);
        let mut expected = 0;
        for (i, shard) in plan.shards.iter().enumerate() {
            assert_eq!(shard.shard_index, i);
            assert_eq!(shard.num_shards, 4);
            assert_eq!(shard.start_job, expected);
            expected = shard.end_job;
        }
        assert_eq!(expected, spec.num_trials());
    }

    #[test]
    fn degenerate_plans_still_cover_exactly_once() {
        // One job, many shards: the first shard gets it, the rest are
        // empty but well-formed.
        let spec = spec_with(1, 1);
        let plan = ShardPlan::partition(&spec, 7).unwrap();
        assert_eq!(plan.shards[0].num_jobs(), 1);
        assert!(plan.shards[1..].iter().all(|s| s.num_jobs() == 0));
        let jobs: Vec<(usize, usize)> = plan
            .shards
            .iter()
            .flat_map(|s| s.jobs(spec.trials_per_cell))
            .collect();
        assert_eq!(jobs, vec![(0, 0)]);
        // One shard is the whole campaign.
        let whole = ShardPlan::partition(&spec_with(3, 2), 1).unwrap();
        assert_eq!(whole.shards[0].num_jobs(), 6);
        // Zero shards is a spec error, not a panic.
        assert!(matches!(
            ShardPlan::partition(&spec, 0),
            Err(ExperimentError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn shard_ranges_split_cells_mid_trial() {
        // 2 cells x 3 trials, 2 shards: the boundary falls inside cell 0.
        let spec = spec_with(2, 3);
        let plan = ShardPlan::partition(&spec, 2).unwrap();
        let first: Vec<_> = plan.shards[0].jobs(3).collect();
        let second: Vec<_> = plan.shards[1].jobs(3).collect();
        assert_eq!(first, vec![(0, 0), (0, 1), (0, 2)]);
        assert_eq!(second, vec![(1, 0), (1, 1), (1, 2)]);
        let plan3 = ShardPlan::partition(&spec, 4).unwrap();
        let all: Vec<_> = plan3.shards.iter().flat_map(|s| s.jobs(3)).collect();
        assert_eq!(
            all,
            vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)],
            "mid-cell boundaries must not drop or duplicate jobs"
        );
    }

    #[test]
    fn job_files_and_partials_round_trip() {
        let spec = spec_with(2, 2);
        let plan = ShardPlan::partition(&spec, 2).unwrap();
        let job = &plan.jobs()[1];
        let text = job.to_json_string();
        assert!(text.contains(SHARD_JOB_FORMAT));
        let parsed = ShardJob::from_json_str(&text).unwrap();
        assert_eq!(&parsed, job);
        assert_eq!(parsed.to_json_string(), text);
        // Wrong/old format tags fail with a versioned message.
        let old = text.replace(SHARD_JOB_FORMAT, "ivc-campaign-shard-job-v0");
        let err = ShardJob::from_json_str(&old).unwrap_err();
        assert!(
            err.to_string().contains("ivc-campaign-shard-job-v0")
                && err.to_string().contains(SHARD_JOB_FORMAT),
            "{err}"
        );
    }

    #[test]
    fn a_job_with_a_removed_axis_fails_loudly() {
        // A job file written before the carrier/power axes went carries
        // `carriers_hz`; it must never decode to a different grid.
        let job = &ShardPlan::partition(&spec_with(2, 2), 2).unwrap().jobs()[0];
        let old = job.to_json_string().replacen(
            "\"rooms\":",
            "\"carriers_hz\": [null],\n    \"rooms\":",
            1,
        );
        let err = ShardJob::from_json_str(&old).unwrap_err().to_string();
        assert_eq!(
            err,
            "report decode error: unknown spec member 'carriers_hz'"
        );
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_foreign_shards() {
        let spec = spec_with(2, 2); // 4 jobs
        let archive = |start: usize, end: usize| ShardArchive {
            spec: spec.clone(),
            shard: ShardRange {
                shard_index: 0,
                num_shards: 2,
                start_job: start,
                end_job: end,
            },
            records: (start..end)
                .map(|slot| TrialRecord {
                    cell_index: slot / 2,
                    trial_index: slot % 2,
                    seed: spec.trial_seed(slot % 2),
                    accepted: true,
                    word_accuracy: 1.0,
                    recognized_words: vec![],
                    bystander_spl_db: None,
                    bystander_spl_dba: None,
                    bystander_voice_spl_db: None,
                    leak_audible: None,
                    power_shortfall_w: 0.0,
                    defense_features: vec![0.0; 4],
                    detection_probability: None,
                    recording_band_summary_db: None,
                })
                .collect(),
        };
        // A clean tiling merges (input order does not matter).
        let merged = merge_shards(vec![archive(2, 4), archive(0, 2)]).unwrap();
        assert_eq!(merged.cells.len(), 2);
        // Gap.
        let err = merge_shards(vec![archive(0, 1), archive(2, 4)]).unwrap_err();
        assert!(err.to_string().contains("gap"), "{err}");
        // Overlap.
        let err = merge_shards(vec![archive(0, 3), archive(2, 4)]).unwrap_err();
        assert!(err.to_string().contains("overlap"), "{err}");
        // Missing tail.
        let err = merge_shards(vec![archive(0, 3)]).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
        // Foreign spec.
        let mut foreign = archive(2, 4);
        foreign.spec = spec_with(2, 2);
        foreign.spec.name = "other".to_string();
        let err = merge_shards(vec![archive(0, 2), foreign]).unwrap_err();
        assert!(err.to_string().contains("different spec"), "{err}");
        // Record disagreeing with its slot.
        let mut skewed = archive(2, 4);
        skewed.records[0].trial_index = 1;
        let err = merge_shards(vec![archive(0, 2), skewed]).unwrap_err();
        assert!(err.to_string().contains("slot"), "{err}");
        // Nothing to merge.
        assert!(merge_shards(vec![]).is_err());
    }

    #[test]
    fn sharded_execution_reproduces_the_single_process_bytes() {
        // The tentpole contract at unit scale: a tiny real campaign run
        // as 1 process vs 3 shards (one boundary mid-cell), partials
        // round-tripped through their wire format, merged byte-exactly.
        let spec = CampaignSpec {
            deliveries: vec![
                DeliverySpec::legitimate("talker 68 dB", 68.0),
                DeliverySpec::array("6-element array, 60 W", 6, 60.0, 40_000.0),
            ],
            trials_per_cell: 2,
            max_voice_duration_s: 0.7,
            ..CampaignSpec::new("shard-tiny")
        };
        let baseline = run_campaign(&spec, 2).unwrap();
        let plan = ShardPlan::partition(&spec, 3).unwrap();
        let partials: Vec<ShardArchive> = plan
            .jobs()
            .iter()
            .map(|job| {
                let archive = run_shard(job, 2).unwrap();
                // Through the columnar wire format, as a real worker ships it.
                ShardArchive::from_column_bytes(&archive.to_column_bytes()).unwrap()
            })
            .collect();
        let merged = merge_shards(partials).unwrap();
        assert_eq!(merged, baseline);
        assert_eq!(merged.to_json_string(), baseline.to_json_string());
    }
}
