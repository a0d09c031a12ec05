//! The archivable campaign report and its JSON encoding.
//!
//! A [`CampaignReport`] embeds the spec that produced it (provenance), the
//! per-cell aggregates with raw trial records, and the psychometric
//! curves.  `to_json_string` is deterministic — same report, same bytes —
//! which is what makes the executor's worker-count-invariance promise
//! checkable at the archive level.  Decoding reads only the spec and the
//! records; the rest of the document is derived from them and is rebuilt,
//! not decoded.

use crate::aggregate::{CellReport, CellStats, PsychometricCurve};
use crate::error::{ExperimentError, Result};
use crate::executor::TrialRecord;
use crate::grid::{
    room_from_token, room_token, CampaignSpec, CellCoords, CellSpec, DeliverySpec, DetectorSpec,
    EnvironmentPreset,
};
use crate::shard::{merge_shards, ShardArchive, ShardRange};
use ivc_acoustics::microphone::DevicePreset;
use ivc_core::dataset::DatasetConfig;
use ivc_core::json::{u64_to_json, JsonValue};
use ivc_core::results::{fmt, Table};
use ivc_core::scenario::Delivery;

/// Format tag written into every archive, so readers can reject files from
/// a different schema generation.
///
/// v5 removed the spec's `bystander_distance_m` (the bystander stands
/// [`ivc_core::scenario::BYSTANDER_DISTANCE_M`] away), the detector
/// corpus members every corpus shares (they are constants of
/// [`ivc_core::dataset`]), and made `recording_band_summary` a boolean.
/// v4 removed the carrier-frequency and power axes (spec `carriers_hz`/
/// `powers_w`, cell/curve `carrier_index`/`power_index`): a swept carrier
/// or power is one delivery per point.  v3 added the detector-training
/// axis, per-delivery shadow suppression, per-trial defense features,
/// detector probabilities and optional recording band summaries, and the
/// per-cell mean detection probability.  v2 added the room axis and the
/// A-weighted bystander SPL.
pub const REPORT_FORMAT: &str = "ivc-campaign-report-v5";

/// A finished campaign: spec, per-cell results, curves.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// The spec the campaign ran (embedded for provenance).
    pub spec: CampaignSpec,
    /// One report per grid cell, in cell order.
    pub cells: Vec<CellReport>,
    /// One success-vs-distance curve per non-distance axis combination.
    pub curves: Vec<PsychometricCurve>,
}

impl CampaignReport {
    /// The cell at the given axis coordinates, if present.
    pub fn find_cell(&self, coords: &CellCoords) -> Option<&CellReport> {
        // Cells are stored in expansion order; the spec owns the mapping.
        let index = self.spec.cell_index_of(coords)?;
        self.cells.get(index)
    }

    /// A plain-text summary (one row per cell) for terminal output.
    pub fn summary_table(&self) -> Table {
        let mut table = Table::new(
            format!(
                "Campaign '{}': {} cells x {} trial(s)",
                self.spec.name,
                self.cells.len(),
                self.spec.trials_per_cell
            ),
            &[
                "Cell",
                "Success",
                "95% CI",
                "Word acc.",
                "Bystander SPL (dB)",
            ],
        );
        for cell in &self.cells {
            table.push_row(vec![
                cell.label.clone(),
                fmt(cell.stats.success_rate, 2),
                format!(
                    "[{}, {}]",
                    fmt(cell.stats.success_ci_low, 2),
                    fmt(cell.stats.success_ci_high, 2)
                ),
                fmt(cell.stats.mean_word_accuracy, 2),
                cell.stats
                    .mean_bystander_spl_db
                    .map(|v| fmt(v, 1))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        table
    }

    /// Serialises the report to its archival JSON (pretty, deterministic).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json_string_pretty()
    }

    /// The report as a JSON value tree.
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("format", JsonValue::string(REPORT_FORMAT)),
            ("spec", spec_to_json(&self.spec)),
            (
                "cells",
                JsonValue::Array(self.cells.iter().map(cell_report_to_json).collect()),
            ),
            (
                "curves",
                JsonValue::Array(self.curves.iter().map(curve_to_json).collect()),
            ),
        ])
    }

    /// Parses an archived report.
    ///
    /// Only the spec and the trial records are decoded.  The cells'
    /// coordinates, labels and stats and the curves are functions of
    /// them, so the report is rebuilt by [`merge_shards`] of one
    /// whole-range shard — the one report assembly — and a document whose
    /// stored cells or curves differ from the rebuild is refused, as is
    /// one whose records do not fill the spec's slots in order.
    pub fn from_json_str(text: &str) -> Result<CampaignReport> {
        let root = JsonValue::parse(text).map_err(|e| ExperimentError::decode(e.to_string()))?;
        let format = req_str(&root, "format")?;
        if format != REPORT_FORMAT {
            return Err(ExperimentError::decode(format!(
                "unsupported format '{format}' (expected '{REPORT_FORMAT}')"
            )));
        }
        let spec = spec_from_json(req(&root, "spec")?)?;
        let mut records = Vec::new();
        for cell in req_array(&root, "cells")? {
            for trial in req_array(cell, "trials")? {
                records.push(trial_from_json(trial)?);
            }
        }
        if records.len() != spec.num_trials() {
            return Err(ExperimentError::decode(format!(
                "{} records stored for the spec's {} trials",
                records.len(),
                spec.num_trials()
            )));
        }
        // One shard holding every record: the merge refuses it unless each
        // record sits in its own (cell, trial) slot.
        let shard = ShardRange {
            shard_index: 0,
            num_shards: 1,
            start_job: 0,
            end_job: records.len(),
        };
        let report = merge_shards(vec![ShardArchive {
            spec,
            shard,
            records,
        }])
        .map_err(|e| match e {
            ExperimentError::Merge(reason) => ExperimentError::decode(format!(
                "the records do not fill the spec's slots: {reason}"
            )),
            other => other,
        })?;
        let rebuilt = report.to_json();
        for member in ["cells", "curves"] {
            let (stored, derived) = (req_array(&root, member)?, req_array(&rebuilt, member)?);
            if stored.len() != derived.len() {
                return Err(ExperimentError::decode(format!(
                    "{} {member} stored, the spec gives {}",
                    stored.len(),
                    derived.len()
                )));
            }
            if let Some(i) = (0..stored.len()).find(|&i| stored[i] != derived[i]) {
                return Err(ExperimentError::decode(format!(
                    "{member}[{i}] differs from the one its spec and records rebuild"
                )));
            }
        }
        Ok(report)
    }

    /// Writes the archival JSON to `path`.
    pub fn save(&self, path: &std::path::Path) -> Result<()> {
        std::fs::write(path, self.to_json_string())
            .map_err(|e| ExperimentError::Io(format!("writing {}: {e}", path.display())))
    }

    /// Reads an archived report back from `path`.
    pub fn load(path: &std::path::Path) -> Result<CampaignReport> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ExperimentError::Io(format!("reading {}: {e}", path.display())))?;
        CampaignReport::from_json_str(&text)
    }
}

// --- encoding -------------------------------------------------------------

pub(crate) fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn device_token(device: DevicePreset) -> &'static str {
    match device {
        DevicePreset::AndroidPhone => "android_phone",
        DevicePreset::AmazonEcho => "amazon_echo",
        DevicePreset::LinearReference => "linear_reference",
    }
}

fn device_from_token(token: &str) -> Option<DevicePreset> {
    DevicePreset::ALL
        .into_iter()
        .find(|d| device_token(*d) == token)
}

fn delivery_to_json(delivery: &Delivery) -> JsonValue {
    match delivery {
        Delivery::Legitimate { talker_spl_db } => obj(vec![
            ("kind", JsonValue::string("legitimate")),
            ("talker_spl_db", JsonValue::number(*talker_spl_db)),
        ]),
        Delivery::SingleSpeakerUltrasound {
            power_w,
            carrier_hz,
        } => obj(vec![
            ("kind", JsonValue::string("single_speaker_ultrasound")),
            ("power_w", JsonValue::number(*power_w)),
            ("carrier_hz", JsonValue::number(*carrier_hz)),
        ]),
        Delivery::ArrayUltrasound {
            num_elements,
            total_power_w,
            carrier_hz,
        } => obj(vec![
            ("kind", JsonValue::string("array_ultrasound")),
            ("num_elements", JsonValue::number(*num_elements as f64)),
            ("total_power_w", JsonValue::number(*total_power_w)),
            ("carrier_hz", JsonValue::number(*carrier_hz)),
        ]),
    }
}

fn delivery_from_json(value: &JsonValue) -> Result<Delivery> {
    match req_str(value, "kind")? {
        "legitimate" => Ok(Delivery::Legitimate {
            talker_spl_db: req_f64(value, "talker_spl_db")?,
        }),
        "single_speaker_ultrasound" => Ok(Delivery::SingleSpeakerUltrasound {
            power_w: req_f64(value, "power_w")?,
            carrier_hz: req_f64(value, "carrier_hz")?,
        }),
        "array_ultrasound" => Ok(Delivery::ArrayUltrasound {
            num_elements: req_usize(value, "num_elements")?,
            total_power_w: req_f64(value, "total_power_w")?,
            carrier_hz: req_f64(value, "carrier_hz")?,
        }),
        other => Err(ExperimentError::decode(format!(
            "unknown delivery kind '{other}'"
        ))),
    }
}

fn detector_to_json(detector: &DetectorSpec) -> JsonValue {
    let corpus = &detector.corpus;
    obj(vec![
        ("label", JsonValue::string(&detector.label)),
        ("distances_m", JsonValue::number_array(&corpus.distances_m)),
        (
            "num_speaker_variants",
            JsonValue::number(corpus.num_speaker_variants as f64),
        ),
        (
            "command_indices",
            JsonValue::Array(
                corpus
                    .command_indices
                    .iter()
                    .map(|&i| JsonValue::number(i as f64))
                    .collect(),
            ),
        ),
        (
            // INFINITY (no cap) has no JSON number; archived as null.
            "max_voice_duration_s",
            JsonValue::number(corpus.max_voice_duration_s),
        ),
    ])
}

fn detector_from_json(value: &JsonValue) -> Result<DetectorSpec> {
    Ok(DetectorSpec {
        label: req_str(value, "label")?.to_string(),
        corpus: DatasetConfig {
            distances_m: req_f64_array(value, "distances_m")?,
            num_speaker_variants: req_usize(value, "num_speaker_variants")?,
            command_indices: req_array(value, "command_indices")?
                .iter()
                .map(|v| as_usize(v, "command_indices[]"))
                .collect::<Result<Vec<_>>>()?,
            max_voice_duration_s: opt_f64(value, "max_voice_duration_s")?.unwrap_or(f64::INFINITY),
        },
    })
}

pub(crate) fn spec_to_json(spec: &CampaignSpec) -> JsonValue {
    obj(vec![
        ("name", JsonValue::string(&spec.name)),
        (
            "detectors",
            JsonValue::Array(
                spec.detectors
                    .iter()
                    .map(|d| match d {
                        None => JsonValue::Null,
                        Some(detector) => detector_to_json(detector),
                    })
                    .collect(),
            ),
        ),
        (
            "devices",
            JsonValue::Array(
                spec.devices
                    .iter()
                    .map(|d| JsonValue::string(device_token(*d)))
                    .collect(),
            ),
        ),
        (
            "deliveries",
            JsonValue::Array(
                spec.deliveries
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("label", JsonValue::string(&d.label)),
                            ("delivery", delivery_to_json(&d.delivery)),
                            (
                                "shadow_suppression",
                                JsonValue::number(d.shadow_suppression),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rooms",
            JsonValue::Array(
                spec.rooms
                    .iter()
                    .map(|&r| JsonValue::string(room_token(r)))
                    .collect(),
            ),
        ),
        (
            "environments",
            JsonValue::Array(
                spec.environments
                    .iter()
                    .map(|e| JsonValue::string(e.token()))
                    .collect(),
            ),
        ),
        (
            "command_indices",
            JsonValue::Array(
                spec.command_indices
                    .iter()
                    .map(|&i| JsonValue::number(i as f64))
                    .collect(),
            ),
        ),
        ("distances_m", JsonValue::number_array(&spec.distances_m)),
        (
            "ambient_noise_spl_db",
            JsonValue::number(spec.ambient_noise_spl_db),
        ),
        (
            "trials_per_cell",
            JsonValue::number(spec.trials_per_cell as f64),
        ),
        ("base_seed", u64_to_json(spec.base_seed)),
        (
            // INFINITY (no cap) has no JSON number; archived as null.
            "max_voice_duration_s",
            JsonValue::number(spec.max_voice_duration_s),
        ),
        (
            "recording_band_summary",
            JsonValue::Bool(spec.recording_band_summary),
        ),
    ])
}

pub(crate) fn spec_from_json(value: &JsonValue) -> Result<CampaignSpec> {
    let detectors = req_array(value, "detectors")?
        .iter()
        .map(|v| match v {
            JsonValue::Null => Ok(None),
            other => detector_from_json(other).map(Some),
        })
        .collect::<Result<Vec<_>>>()?;
    let devices = req_array(value, "devices")?
        .iter()
        .map(|v| {
            let token = as_str(v, "devices[]")?;
            device_from_token(token)
                .ok_or_else(|| ExperimentError::decode(format!("unknown device '{token}'")))
        })
        .collect::<Result<Vec<_>>>()?;
    let deliveries = req_array(value, "deliveries")?
        .iter()
        .map(|v| {
            Ok(DeliverySpec {
                label: req_str(v, "label")?.to_string(),
                delivery: delivery_from_json(req(v, "delivery")?)?,
                shadow_suppression: req_f64(v, "shadow_suppression")?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let rooms = req_array(value, "rooms")?
        .iter()
        .map(|v| {
            let token = as_str(v, "rooms[]")?;
            room_from_token(token)
                .ok_or_else(|| ExperimentError::decode(format!("unknown room '{token}'")))
        })
        .collect::<Result<Vec<_>>>()?;
    let environments = req_array(value, "environments")?
        .iter()
        .map(|v| {
            let token = as_str(v, "environments[]")?;
            EnvironmentPreset::from_token(token)
                .ok_or_else(|| ExperimentError::decode(format!("unknown environment '{token}'")))
        })
        .collect::<Result<Vec<_>>>()?;
    let command_indices = req_array(value, "command_indices")?
        .iter()
        .map(|v| as_usize(v, "command_indices[]"))
        .collect::<Result<Vec<_>>>()?;
    let distances_m = req_f64_array(value, "distances_m")?;
    let spec = CampaignSpec {
        name: req_str(value, "name")?.to_string(),
        detectors,
        devices,
        deliveries,
        rooms,
        environments,
        command_indices,
        distances_m,
        ambient_noise_spl_db: req_f64(value, "ambient_noise_spl_db")?,
        trials_per_cell: req_usize(value, "trials_per_cell")?,
        base_seed: req(value, "base_seed")?
            .as_u64()
            .ok_or_else(|| ExperimentError::decode("base_seed is not a u64".to_string()))?,
        max_voice_duration_s: opt_f64(value, "max_voice_duration_s")?.unwrap_or(f64::INFINITY),
        recording_band_summary: req_bool(value, "recording_band_summary")?,
    };
    // A member the encoder does not write (an axis or setting an older
    // format had), at any depth, is refused, so an old spec never decodes
    // to a different campaign.
    if let Some(path) = unknown_member(value, &spec_to_json(&spec)) {
        return Err(ExperimentError::decode(format!(
            "unknown spec member '{path}'"
        )));
    }
    Ok(spec)
}

/// The path of the first member of `value` that `known` (its
/// re-encoding) lacks, searching objects and arrays alike.
fn unknown_member(value: &JsonValue, known: &JsonValue) -> Option<String> {
    match (value, known) {
        (JsonValue::Object(members), JsonValue::Object(_)) => {
            members
                .iter()
                .find_map(|(key, member)| match known.get(key) {
                    None => Some(key.clone()),
                    Some(known) => {
                        unknown_member(member, known).map(|path| format!("{key}.{path}"))
                    }
                })
        }
        (JsonValue::Array(items), JsonValue::Array(known)) => items
            .iter()
            .zip(known)
            .enumerate()
            .find_map(|(i, (item, known))| {
                unknown_member(item, known).map(|path| format!("[{i}].{path}"))
            }),
        _ => None,
    }
}

fn coords_members(coords: &CellCoords) -> Vec<(&'static str, JsonValue)> {
    vec![
        (
            "detector_index",
            JsonValue::number(coords.detector_index as f64),
        ),
        (
            "device_index",
            JsonValue::number(coords.device_index as f64),
        ),
        (
            "delivery_index",
            JsonValue::number(coords.delivery_index as f64),
        ),
        ("room_index", JsonValue::number(coords.room_index as f64)),
        (
            "environment_index",
            JsonValue::number(coords.environment_index as f64),
        ),
        (
            "command_position",
            JsonValue::number(coords.command_position as f64),
        ),
        (
            "distance_index",
            JsonValue::number(coords.distance_index as f64),
        ),
    ]
}

fn cell_spec_to_json(cell: &CellSpec) -> JsonValue {
    let mut members = vec![("cell_index", JsonValue::number(cell.cell_index as f64))];
    members.extend(coords_members(&cell.coords));
    obj(members)
}

fn stats_to_json(stats: &CellStats) -> JsonValue {
    obj(vec![
        ("trials", JsonValue::number(stats.trials as f64)),
        ("successes", JsonValue::number(stats.successes as f64)),
        ("success_rate", JsonValue::number(stats.success_rate)),
        ("success_ci_low", JsonValue::number(stats.success_ci_low)),
        ("success_ci_high", JsonValue::number(stats.success_ci_high)),
        (
            "mean_word_accuracy",
            JsonValue::number(stats.mean_word_accuracy),
        ),
        (
            "mean_bystander_spl_db",
            opt_number(stats.mean_bystander_spl_db),
        ),
        (
            "mean_bystander_spl_dba",
            opt_number(stats.mean_bystander_spl_dba),
        ),
        (
            "mean_bystander_voice_spl_db",
            opt_number(stats.mean_bystander_voice_spl_db),
        ),
        (
            "leak_audible_fraction",
            opt_number(stats.leak_audible_fraction),
        ),
        (
            "mean_power_shortfall_w",
            JsonValue::number(stats.mean_power_shortfall_w),
        ),
        (
            "mean_detection_probability",
            opt_number(stats.mean_detection_probability),
        ),
    ])
}

pub(crate) fn trial_to_json(trial: &TrialRecord) -> JsonValue {
    obj(vec![
        ("cell_index", JsonValue::number(trial.cell_index as f64)),
        ("trial_index", JsonValue::number(trial.trial_index as f64)),
        ("seed", u64_to_json(trial.seed)),
        ("accepted", JsonValue::Bool(trial.accepted)),
        ("word_accuracy", JsonValue::number(trial.word_accuracy)),
        (
            "recognized_words",
            JsonValue::string_array(&trial.recognized_words),
        ),
        ("bystander_spl_db", opt_number(trial.bystander_spl_db)),
        ("bystander_spl_dba", opt_number(trial.bystander_spl_dba)),
        (
            "bystander_voice_spl_db",
            opt_number(trial.bystander_voice_spl_db),
        ),
        (
            "leak_audible",
            trial
                .leak_audible
                .map(JsonValue::Bool)
                .unwrap_or(JsonValue::Null),
        ),
        (
            "power_shortfall_w",
            JsonValue::number(trial.power_shortfall_w),
        ),
        (
            "defense_features",
            JsonValue::number_array(&trial.defense_features),
        ),
        (
            "detection_probability",
            opt_number(trial.detection_probability),
        ),
        (
            "recording_band_summary_db",
            match &trial.recording_band_summary_db {
                None => JsonValue::Null,
                Some(bands) => JsonValue::number_array(bands),
            },
        ),
    ])
}

fn trial_from_json(value: &JsonValue) -> Result<TrialRecord> {
    let leak_audible = match req(value, "leak_audible")? {
        JsonValue::Null => None,
        JsonValue::Bool(b) => Some(*b),
        _ => {
            return Err(ExperimentError::decode(
                "leak_audible is neither bool nor null".to_string(),
            ))
        }
    };
    let recording_band_summary_db = match req(value, "recording_band_summary_db")? {
        JsonValue::Null => None,
        _ => Some(req_f64_array(value, "recording_band_summary_db")?),
    };
    Ok(TrialRecord {
        cell_index: req_usize(value, "cell_index")?,
        trial_index: req_usize(value, "trial_index")?,
        seed: req(value, "seed")?
            .as_u64()
            .ok_or_else(|| ExperimentError::decode("seed is not a u64".to_string()))?,
        accepted: req_bool(value, "accepted")?,
        word_accuracy: req_f64(value, "word_accuracy")?,
        recognized_words: req_array(value, "recognized_words")?
            .iter()
            .map(|v| Ok(as_str(v, "recognized_words[]")?.to_string()))
            .collect::<Result<Vec<_>>>()?,
        bystander_spl_db: opt_f64(value, "bystander_spl_db")?,
        bystander_spl_dba: opt_f64(value, "bystander_spl_dba")?,
        bystander_voice_spl_db: opt_f64(value, "bystander_voice_spl_db")?,
        leak_audible,
        power_shortfall_w: req_f64(value, "power_shortfall_w")?,
        defense_features: req_f64_array(value, "defense_features")?,
        detection_probability: opt_f64(value, "detection_probability")?,
        recording_band_summary_db,
    })
}

fn cell_report_to_json(cell: &CellReport) -> JsonValue {
    obj(vec![
        ("cell", cell_spec_to_json(&cell.cell)),
        ("label", JsonValue::string(&cell.label)),
        ("stats", stats_to_json(&cell.stats)),
        (
            "trials",
            JsonValue::Array(cell.trials.iter().map(trial_to_json).collect()),
        ),
    ])
}

fn curve_to_json(curve: &PsychometricCurve) -> JsonValue {
    let mut members = vec![("label", JsonValue::string(&curve.label))];
    members.extend(coords_members(&curve.coords));
    members.extend(vec![
        ("distances_m", JsonValue::number_array(&curve.distances_m)),
        (
            "success_rates",
            JsonValue::number_array(&curve.success_rates),
        ),
        ("ci_low", JsonValue::number_array(&curve.ci_low)),
        ("ci_high", JsonValue::number_array(&curve.ci_high)),
        (
            "mean_word_accuracy",
            JsonValue::number_array(&curve.mean_word_accuracy),
        ),
    ]);
    obj(members)
}

// --- decoding helpers -----------------------------------------------------

pub(crate) fn req<'a>(value: &'a JsonValue, key: &str) -> Result<&'a JsonValue> {
    value
        .get(key)
        .ok_or_else(|| ExperimentError::decode(format!("missing member '{key}'")))
}

pub(crate) fn req_str<'a>(value: &'a JsonValue, key: &str) -> Result<&'a str> {
    as_str(req(value, key)?, key)
}

fn as_str<'a>(value: &'a JsonValue, context: &str) -> Result<&'a str> {
    value
        .as_str()
        .ok_or_else(|| ExperimentError::decode(format!("'{context}' is not a string")))
}

fn as_usize(value: &JsonValue, context: &str) -> Result<usize> {
    value
        .as_usize()
        .ok_or_else(|| ExperimentError::decode(format!("'{context}' is not a whole number")))
}

fn req_f64(value: &JsonValue, key: &str) -> Result<f64> {
    req(value, key)?
        .as_f64()
        .ok_or_else(|| ExperimentError::decode(format!("'{key}' is not a number")))
}

fn opt_f64(value: &JsonValue, key: &str) -> Result<Option<f64>> {
    match req(value, key)? {
        JsonValue::Null => Ok(None),
        v => Ok(Some(v.as_f64().ok_or_else(|| {
            ExperimentError::decode(format!("'{key}' is neither number nor null"))
        })?)),
    }
}

pub(crate) fn req_usize(value: &JsonValue, key: &str) -> Result<usize> {
    req(value, key)?
        .as_usize()
        .ok_or_else(|| ExperimentError::decode(format!("'{key}' is not a whole number")))
}

fn req_bool(value: &JsonValue, key: &str) -> Result<bool> {
    req(value, key)?
        .as_bool()
        .ok_or_else(|| ExperimentError::decode(format!("'{key}' is not a bool")))
}

fn req_array<'a>(value: &'a JsonValue, key: &str) -> Result<&'a [JsonValue]> {
    req(value, key)?
        .as_array()
        .ok_or_else(|| ExperimentError::decode(format!("'{key}' is not an array")))
}

fn req_f64_array(value: &JsonValue, key: &str) -> Result<Vec<f64>> {
    req_array(value, key)?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| ExperimentError::decode(format!("'{key}[]' is not a number")))
        })
        .collect()
}

fn opt_number(value: Option<f64>) -> JsonValue {
    value.map(JsonValue::number).unwrap_or(JsonValue::Null)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::DeliverySpec;
    use crate::shard::{merge_shards, ShardArchive, ShardPlan};

    fn synthetic_report() -> CampaignReport {
        let spec = CampaignSpec {
            detectors: vec![None, Some(DetectorSpec::standard(true))],
            devices: vec![DevicePreset::AndroidPhone, DevicePreset::AmazonEcho],
            deliveries: vec![
                DeliverySpec::legitimate("talker", 65.0),
                DeliverySpec::single_speaker("single 3 W", 3.0, 40_000.0),
                DeliverySpec::single_speaker("single 23.7 W @ 30 kHz", 23.7, 30_000.0),
                DeliverySpec::array("array 61", 61, 400.0, 40_000.0).with_shadow_suppression(0.25),
            ],
            rooms: vec![None, Some(ivc_room::RoomPreset::Corridor)],
            environments: vec![
                EnvironmentPreset::MeetingRoom,
                EnvironmentPreset::SummerHumid,
            ],
            command_indices: vec![0, 3],
            distances_m: vec![0.5, 2.0, 7.6],
            trials_per_cell: 2,
            base_seed: u64::MAX - 5,
            max_voice_duration_s: f64::INFINITY,
            recording_band_summary: true,
            ..CampaignSpec::new("synthetic")
        };
        let cells = spec.cells();
        let mut records = Vec::new();
        for cell in &cells {
            for trial in 0..spec.trials_per_cell {
                let attack = spec.deliveries[cell.coords.delivery_index]
                    .delivery
                    .is_attack();
                let detector = spec.detectors[cell.coords.detector_index].is_some();
                records.push(TrialRecord {
                    cell_index: cell.cell_index,
                    trial_index: trial,
                    seed: spec.trial_seed(trial),
                    accepted: (cell.cell_index + trial) % 3 == 0,
                    word_accuracy: 1.0 / (1.0 + cell.cell_index as f64),
                    recognized_words: vec!["ok".into(), "google".into()],
                    bystander_spl_db: attack.then_some(33.3 + trial as f64 * 0.1),
                    bystander_spl_dba: attack.then_some(28.9),
                    bystander_voice_spl_db: attack.then_some(21.7),
                    leak_audible: attack.then_some(cell.cell_index % 2 == 0),
                    power_shortfall_w: if cell.cell_index % 5 == 0 { 12.5 } else { 0.0 },
                    defense_features: vec![0.25, -1.5, 3.25, 0.0],
                    detection_probability: detector.then_some(if attack { 0.875 } else { 0.125 }),
                    recording_band_summary_db: Some(vec![-10.0, -20.5, -30.25, -41.0]),
                });
            }
        }
        let shard = ShardPlan::partition(&spec, 1).unwrap().shards[0];
        merge_shards(vec![ShardArchive {
            spec,
            shard,
            records,
        }])
        .unwrap()
    }

    #[test]
    fn report_round_trips_through_json_exactly() {
        let report = synthetic_report();
        let text = report.to_json_string();
        let parsed = CampaignReport::from_json_str(&text).unwrap();
        assert_eq!(parsed, report);
        // And the re-serialisation is byte-identical.
        assert_eq!(parsed.to_json_string(), text);
    }

    #[test]
    fn find_cell_addresses_the_grid() {
        let report = synthetic_report();
        let coords = CellCoords {
            detector_index: 1,
            device_index: 1,
            delivery_index: 3,
            room_index: 1,
            environment_index: 0,
            command_position: 1,
            distance_index: 2,
        };
        let cell = report.find_cell(&coords).unwrap();
        assert_eq!(cell.cell.coords, coords);
        assert_eq!(report.cells[cell.cell.cell_index].cell, cell.cell);
        assert!(report
            .find_cell(&CellCoords {
                device_index: 2,
                ..CellCoords::default()
            })
            .is_none());
        assert!(report
            .find_cell(&CellCoords {
                distance_index: 99,
                ..CellCoords::default()
            })
            .is_none());
    }

    #[test]
    fn summary_table_has_one_row_per_cell() {
        let report = synthetic_report();
        let table = report.summary_table();
        assert_eq!(table.rows.len(), report.cells.len());
        let rendered = table.render();
        assert!(rendered.contains("synthetic"));
        assert!(rendered.contains("array 61"));
    }

    #[test]
    fn wrong_format_and_malformed_documents_are_rejected() {
        assert!(CampaignReport::from_json_str("{}").is_err());
        assert!(CampaignReport::from_json_str("not json").is_err());
        for old in [
            "ivc-campaign-report-v2",
            "ivc-campaign-report-v3",
            "ivc-campaign-report-v4",
        ] {
            let wrong_format = format!("{{\"format\": \"{old}\"}}");
            let err = CampaignReport::from_json_str(&wrong_format).unwrap_err();
            assert!(err.to_string().contains("unsupported format"));
        }
        // A valid report with one member clobbered decodes to an error, not
        // a panic.
        let text = synthetic_report()
            .to_json_string()
            .replace("\"accepted\": true", "\"accepted\": 3");
        assert!(CampaignReport::from_json_str(&text).is_err());
    }

    #[test]
    fn infinity_voice_cap_archives_as_null() {
        let report = synthetic_report();
        let text = report.to_json_string();
        assert!(text.contains("\"max_voice_duration_s\": null"));
        let parsed = CampaignReport::from_json_str(&text).unwrap();
        assert_eq!(parsed.spec.max_voice_duration_s, f64::INFINITY);
    }

    #[test]
    fn v3_members_are_archived() {
        let text = synthetic_report().to_json_string();
        for member in [
            "\"detectors\"",
            "\"shadow_suppression\"",
            "\"defense_features\"",
            "\"detection_probability\"",
            "\"recording_band_summary\"",
            "\"mean_detection_probability\"",
            "\"standard detector\"",
        ] {
            assert!(text.contains(member), "archive missing {member}");
        }
        assert!(text.contains(REPORT_FORMAT));
        // v4 archives no carrier or power axis; v5 no bystander distance
        // and no corpus constants.
        for member in [
            "carriers_hz",
            "powers_w",
            "carrier_index",
            "power_index",
            "bystander_distance_m",
            "attack_elements",
            "\"seed\": 18446744073709551615",
        ] {
            assert!(!text.contains(member), "archive still has {member}");
        }
        assert!(text.contains("\"recording_band_summary\": true"));
    }

    /// The report's JSON tree with `edit` applied, re-serialised.
    fn edited(edit: impl FnOnce(&mut JsonValue)) -> String {
        let mut root = synthetic_report().to_json();
        edit(&mut root);
        root.to_json_string_pretty()
    }

    /// The member `key` of an object node, mutably.
    fn member<'a>(value: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
        let JsonValue::Object(members) = value else {
            panic!("not an object");
        };
        &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    /// Element `i` of an array node, mutably.
    fn item(value: &mut JsonValue, i: usize) -> &mut JsonValue {
        let JsonValue::Array(items) = value else {
            panic!("not an array");
        };
        &mut items[i]
    }

    #[test]
    fn derived_members_are_rebuilt_and_checked_not_decoded() {
        // An edited success rate disagrees with the records it summarises.
        let text = edited(|root| {
            let stats = member(item(member(root, "cells"), 3), "stats");
            *member(stats, "success_rate") = JsonValue::Number(0.123);
        });
        let err = CampaignReport::from_json_str(&text)
            .unwrap_err()
            .to_string();
        assert!(err.contains("cells[3] differs"), "{err}");
        // So does an edited curve.
        let text = edited(|root| {
            let curve = item(member(root, "curves"), 0);
            *member(curve, "label") = JsonValue::string("renamed");
        });
        let err = CampaignReport::from_json_str(&text)
            .unwrap_err()
            .to_string();
        assert!(err.contains("curves[0] differs"), "{err}");
        // A record moved to another cell's slot is refused too.
        let text = edited(|root| {
            let cells = member(root, "cells");
            let moved =
                std::mem::replace(item(member(item(cells, 0), "trials"), 0), JsonValue::Null);
            let displaced = std::mem::replace(item(member(item(cells, 1), "trials"), 0), moved);
            *item(member(item(cells, 0), "trials"), 0) = displaced;
        });
        let err = CampaignReport::from_json_str(&text)
            .unwrap_err()
            .to_string();
        assert!(err.contains("do not fill the spec's slots"), "{err}");
        // And so is a missing one.
        let text = edited(|root| {
            let JsonValue::Array(trials) = member(item(member(root, "cells"), 5), "trials") else {
                unreachable!()
            };
            trials.pop();
        });
        let err = CampaignReport::from_json_str(&text)
            .unwrap_err()
            .to_string();
        assert!(err.contains("records stored for the spec's"), "{err}");
    }

    #[test]
    fn removed_spec_members_are_refused_at_any_depth() {
        for (path, edit) in [
            (
                "bystander_distance_m",
                (|spec: &mut JsonValue| {
                    let JsonValue::Object(members) = spec else {
                        unreachable!()
                    };
                    members.push(("bystander_distance_m".into(), JsonValue::Number(1.0)));
                }) as fn(&mut JsonValue),
            ),
            ("detectors.[1].carrier_hz", |spec| {
                let JsonValue::Object(members) = item(member(spec, "detectors"), 1) else {
                    unreachable!()
                };
                members.push(("carrier_hz".into(), JsonValue::Number(40_000.0)));
            }),
        ] {
            let text = edited(|root| edit(member(root, "spec")));
            let err = CampaignReport::from_json_str(&text)
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(&format!("unknown spec member '{path}'")),
                "{err}"
            );
            assert_eq!(err.lines().count(), 1, "{err}");
        }
    }
}
