//! The archivable campaign report and its JSON encoding.
//!
//! A [`CampaignReport`] embeds the spec that produced it (provenance), the
//! per-cell aggregates with raw trial records, and the psychometric
//! curves.  `to_json_string` is deterministic — same report, same bytes —
//! which is what makes the executor's worker-count-invariance promise
//! checkable at the archive level.

use crate::aggregate::{CellReport, CellStats, PsychometricCurve};
use crate::error::{ExperimentError, Result};
use crate::executor::TrialRecord;
use crate::grid::{
    room_from_token, room_token, BandSummarySpec, CampaignSpec, CellCoords, CellSpec, DeliverySpec,
    DetectorSpec, EnvironmentPreset,
};
use ivc_acoustics::microphone::DevicePreset;
use ivc_core::dataset::DatasetConfig;
use ivc_core::json::{u64_to_json, JsonValue};
use ivc_core::results::{fmt, Table};
use ivc_core::scenario::Delivery;

/// Format tag written into every archive, so readers can reject files from
/// a different schema generation.
///
/// v4 removed the carrier-frequency and power axes (spec `carriers_hz`/
/// `powers_w`, cell/curve `carrier_index`/`power_index`): a swept carrier
/// or power is one delivery per point.  v3 added the detector-training
/// axis, per-delivery shadow suppression, per-trial defense features,
/// detector probabilities and optional recording band summaries, and the
/// per-cell mean detection probability.  v2 added the room axis and the
/// A-weighted bystander SPL.
pub const REPORT_FORMAT: &str = "ivc-campaign-report-v4";

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
    pub fn from_json_str(text: &str) -> Result<CampaignReport> {
        let root = JsonValue::parse(text).map_err(|e| ExperimentError::decode(e.to_string()))?;
        let format = req_str(&root, "format")?;
        if format != REPORT_FORMAT {
            return Err(ExperimentError::decode(format!(
                "unsupported format '{format}' (expected '{REPORT_FORMAT}')"
            )));
        }
        let spec = spec_from_json(req(&root, "spec")?)?;
        let cells = req_array(&root, "cells")?
            .iter()
            .map(cell_report_from_json)
            .collect::<Result<Vec<_>>>()?;
        let curves = req_array(&root, "curves")?
            .iter()
            .map(curve_from_json)
            .collect::<Result<Vec<_>>>()?;
        Ok(CampaignReport {
            spec,
            cells,
            curves,
        })
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
        ("device", JsonValue::string(device_token(corpus.device))),
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
            "attack_elements",
            JsonValue::number(corpus.attack_elements as f64),
        ),
        (
            "attack_total_power_w",
            JsonValue::number(corpus.attack_total_power_w),
        ),
        ("carrier_hz", JsonValue::number(corpus.carrier_hz)),
        ("talker_spl_db", JsonValue::number(corpus.talker_spl_db)),
        (
            "ambient_noise_spl_db",
            JsonValue::number(corpus.ambient_noise_spl_db),
        ),
        (
            // INFINITY (no cap) has no JSON number; archived as null.
            "max_voice_duration_s",
            JsonValue::number(corpus.max_voice_duration_s),
        ),
        ("seed", u64_to_json(corpus.seed)),
    ])
}

fn detector_from_json(value: &JsonValue) -> Result<DetectorSpec> {
    let device_token_str = req_str(value, "device")?;
    Ok(DetectorSpec {
        label: req_str(value, "label")?.to_string(),
        corpus: DatasetConfig {
            device: device_from_token(device_token_str).ok_or_else(|| {
                ExperimentError::decode(format!("unknown device '{device_token_str}'"))
            })?,
            distances_m: req_f64_array(value, "distances_m")?,
            num_speaker_variants: req_usize(value, "num_speaker_variants")?,
            command_indices: req_array(value, "command_indices")?
                .iter()
                .map(|v| as_usize(v, "command_indices[]"))
                .collect::<Result<Vec<_>>>()?,
            attack_elements: req_usize(value, "attack_elements")?,
            attack_total_power_w: req_f64(value, "attack_total_power_w")?,
            carrier_hz: req_f64(value, "carrier_hz")?,
            talker_spl_db: req_f64(value, "talker_spl_db")?,
            ambient_noise_spl_db: req_f64(value, "ambient_noise_spl_db")?,
            max_voice_duration_s: opt_f64(value, "max_voice_duration_s")?.unwrap_or(f64::INFINITY),
            seed: req(value, "seed")?
                .as_u64()
                .ok_or_else(|| ExperimentError::decode("detector seed is not a u64".to_string()))?,
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
            "bystander_distance_m",
            JsonValue::number(spec.bystander_distance_m),
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
            match spec.recording_band_summary {
                None => JsonValue::Null,
                Some(summary) => obj(vec![
                    ("bands", JsonValue::number(summary.bands as f64)),
                    ("max_hz", JsonValue::number(summary.max_hz)),
                ]),
            },
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
    let recording_band_summary = match req(value, "recording_band_summary")? {
        JsonValue::Null => None,
        summary => Some(BandSummarySpec {
            bands: req_usize(summary, "bands")?,
            max_hz: req_f64(summary, "max_hz")?,
        }),
    };
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
        bystander_distance_m: req_f64(value, "bystander_distance_m")?,
        trials_per_cell: req_usize(value, "trials_per_cell")?,
        base_seed: req(value, "base_seed")?
            .as_u64()
            .ok_or_else(|| ExperimentError::decode("base_seed is not a u64".to_string()))?,
        max_voice_duration_s: opt_f64(value, "max_voice_duration_s")?.unwrap_or(f64::INFINITY),
        recording_band_summary,
    };
    // A member the encoder does not write (an axis an older format had)
    // is refused, so an old spec never decodes to a different grid.
    let known = spec_to_json(&spec);
    if let JsonValue::Object(members) = value {
        if let Some((key, _)) = members.iter().find(|(key, _)| known.get(key).is_none()) {
            return Err(ExperimentError::decode(format!(
                "unknown spec member '{key}'"
            )));
        }
    }
    Ok(spec)
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

fn coords_from_json(value: &JsonValue) -> Result<CellCoords> {
    Ok(CellCoords {
        detector_index: req_usize(value, "detector_index")?,
        device_index: req_usize(value, "device_index")?,
        delivery_index: req_usize(value, "delivery_index")?,
        room_index: req_usize(value, "room_index")?,
        environment_index: req_usize(value, "environment_index")?,
        command_position: req_usize(value, "command_position")?,
        distance_index: req_usize(value, "distance_index")?,
    })
}

fn cell_spec_to_json(cell: &CellSpec) -> JsonValue {
    let mut members = vec![("cell_index", JsonValue::number(cell.cell_index as f64))];
    members.extend(coords_members(&cell.coords));
    obj(members)
}

fn cell_spec_from_json(value: &JsonValue) -> Result<CellSpec> {
    Ok(CellSpec {
        cell_index: req_usize(value, "cell_index")?,
        coords: coords_from_json(value)?,
    })
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

fn stats_from_json(value: &JsonValue) -> Result<CellStats> {
    Ok(CellStats {
        trials: req_usize(value, "trials")?,
        successes: req_usize(value, "successes")?,
        success_rate: req_f64(value, "success_rate")?,
        success_ci_low: req_f64(value, "success_ci_low")?,
        success_ci_high: req_f64(value, "success_ci_high")?,
        mean_word_accuracy: req_f64(value, "mean_word_accuracy")?,
        mean_bystander_spl_db: opt_f64(value, "mean_bystander_spl_db")?,
        mean_bystander_spl_dba: opt_f64(value, "mean_bystander_spl_dba")?,
        mean_bystander_voice_spl_db: opt_f64(value, "mean_bystander_voice_spl_db")?,
        leak_audible_fraction: opt_f64(value, "leak_audible_fraction")?,
        mean_power_shortfall_w: req_f64(value, "mean_power_shortfall_w")?,
        mean_detection_probability: opt_f64(value, "mean_detection_probability")?,
    })
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

fn cell_report_from_json(value: &JsonValue) -> Result<CellReport> {
    Ok(CellReport {
        cell: cell_spec_from_json(req(value, "cell")?)?,
        label: req_str(value, "label")?.to_string(),
        stats: stats_from_json(req(value, "stats")?)?,
        trials: req_array(value, "trials")?
            .iter()
            .map(trial_from_json)
            .collect::<Result<Vec<_>>>()?,
    })
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

fn curve_from_json(value: &JsonValue) -> Result<PsychometricCurve> {
    Ok(PsychometricCurve {
        label: req_str(value, "label")?.to_string(),
        coords: coords_from_json(value)?,
        distances_m: req_f64_array(value, "distances_m")?,
        success_rates: req_f64_array(value, "success_rates")?,
        ci_low: req_f64_array(value, "ci_low")?,
        ci_high: req_f64_array(value, "ci_high")?,
        mean_word_accuracy: req_f64_array(value, "mean_word_accuracy")?,
    })
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
            recording_band_summary: Some(BandSummarySpec {
                bands: 4,
                max_hz: 8_000.0,
            }),
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
        for old in ["ivc-campaign-report-v2", "ivc-campaign-report-v3"] {
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
        // v4 archives no carrier or power axis.
        for member in ["carriers_hz", "powers_w", "carrier_index", "power_index"] {
            assert!(!text.contains(member), "archive still has {member}");
        }
    }
}
