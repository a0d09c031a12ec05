//! The compact binary columnar trial-record format,
//! [`ivc-trial-columns-v1`](COLUMNS_FORMAT) — the wire and checkpoint
//! format shard workers ship their partial archives in.
//!
//! Layout (everything little-endian, built on [`ivc_core::columns`]):
//!
//! ```text
//! str   format tag        "ivc-trial-columns-v1" (length-prefixed)
//! str   spec              the CampaignSpec as its deterministic JSON text
//! u64×4 shard range       shard_index, num_shards, start_job, end_job
//! u64   record count
//! u64   column count      always 14 (one column per TrialRecord field)
//! col×14                  length-prefixed columns, in field order
//! ```
//!
//! One column per [`TrialRecord`] field, each framed with a u64 byte
//! length so a reader can skip to any column in O(1); fixed-width columns
//! (indices, seeds, flags, scalars — 1 or 8 bytes per record) are then
//! directly addressable by record number, which keeps the layout
//! mmap-friendly.  Optional fields carry one presence byte per record
//! (`0` = absent) ahead of the value; vector fields a u64 element count.
//! `f64` values travel as raw IEEE-754 bits, so every record — including
//! negative zeros and NaN payloads — round-trips exactly, and the same
//! archive always serialises to the same bytes.
//!
//! This is the only encoding a partial is loaded from.  JSON
//! ([`SHARD_FORMAT`](crate::shard::SHARD_FORMAT)) is a one-way
//! human-facing dump: `repro export-json` converts a columnar partial to
//! it, and nothing reads it back.

use crate::error::{ExperimentError, Result};
use crate::executor::TrialRecord;
use crate::report::{spec_from_json, spec_to_json};
use crate::shard::{ShardArchive, ShardRange};
use ivc_core::columns as col;
use ivc_core::json::JsonValue;

/// Format tag of the columnar shard archive.
pub const COLUMNS_FORMAT: &str = "ivc-trial-columns-v1";

/// Number of columns: one per [`TrialRecord`] field.
const NUM_COLUMNS: u64 = 14;

fn decode_err(e: impl std::fmt::Display) -> ExperimentError {
    ExperimentError::decode(format!("columnar shard archive: {e}"))
}

/// Serialises a shard archive to its deterministic columnar bytes.
pub fn to_column_bytes(archive: &ShardArchive) -> Vec<u8> {
    let records = &archive.records;
    let mut out = Vec::new();
    col::put_str(&mut out, COLUMNS_FORMAT);
    col::put_str(&mut out, &spec_to_json(&archive.spec).to_json_string());
    col::put_u64(&mut out, archive.shard.shard_index as u64);
    col::put_u64(&mut out, archive.shard.num_shards as u64);
    col::put_u64(&mut out, archive.shard.start_job as u64);
    col::put_u64(&mut out, archive.shard.end_job as u64);
    col::put_u64(&mut out, records.len() as u64);
    col::put_u64(&mut out, NUM_COLUMNS);
    let column = |out: &mut Vec<u8>, write: &dyn Fn(&mut Vec<u8>, &TrialRecord)| {
        col::put_column(out, |buf| {
            for record in records {
                write(buf, record);
            }
        });
    };
    column(&mut out, &|b, r| col::put_u64(b, r.cell_index as u64));
    column(&mut out, &|b, r| col::put_u64(b, r.trial_index as u64));
    column(&mut out, &|b, r| col::put_u64(b, r.seed));
    column(&mut out, &|b, r| col::put_u8(b, u8::from(r.accepted)));
    column(&mut out, &|b, r| col::put_f64(b, r.word_accuracy));
    column(&mut out, &|b, r| {
        col::put_u64(b, r.recognized_words.len() as u64);
        for word in &r.recognized_words {
            col::put_str(b, word);
        }
    });
    column(&mut out, &|b, r| put_opt_f64(b, r.bystander_spl_db));
    column(&mut out, &|b, r| put_opt_f64(b, r.bystander_spl_dba));
    column(&mut out, &|b, r| put_opt_f64(b, r.bystander_voice_spl_db));
    column(&mut out, &|b, r| {
        // 0 = None, 1 = Some(false), 2 = Some(true).
        col::put_u8(b, r.leak_audible.map_or(0, |a| 1 + u8::from(a)));
    });
    column(&mut out, &|b, r| col::put_f64(b, r.power_shortfall_w));
    column(&mut out, &|b, r| {
        col::put_u64(b, r.defense_features.len() as u64);
        for value in &r.defense_features {
            col::put_f64(b, *value);
        }
    });
    column(&mut out, &|b, r| put_opt_f64(b, r.detection_probability));
    column(&mut out, &|b, r| match &r.recording_band_summary_db {
        None => col::put_u8(b, 0),
        Some(bands) => {
            col::put_u8(b, 1);
            col::put_u64(b, bands.len() as u64);
            for value in bands {
                col::put_f64(b, *value);
            }
        }
    });
    out
}

fn put_opt_f64(out: &mut Vec<u8>, value: Option<f64>) {
    match value {
        None => col::put_u8(out, 0),
        Some(value) => {
            col::put_u8(out, 1);
            col::put_f64(out, value);
        }
    }
}

/// Parses columnar bytes back into a shard archive, rejecting wrong or
/// old format tags with a versioned error and truncated or trailing
/// bytes loudly.
pub fn from_column_bytes(bytes: &[u8]) -> Result<ShardArchive> {
    let mut cursor = col::Cursor::new(bytes);
    let format = cursor.take_str().map_err(decode_err)?;
    if format != COLUMNS_FORMAT {
        return Err(ExperimentError::decode(format!(
            "unsupported shard archive format '{format}' (expected '{COLUMNS_FORMAT}')"
        )));
    }
    let spec_text = cursor.take_str().map_err(decode_err)?;
    let spec_json =
        JsonValue::parse(spec_text).map_err(|e| decode_err(format!("spec JSON: {e}")))?;
    let spec = spec_from_json(&spec_json)?;
    let shard = ShardRange {
        shard_index: cursor.take_len().map_err(decode_err)?,
        num_shards: cursor.take_len().map_err(decode_err)?,
        start_job: cursor.take_len().map_err(decode_err)?,
        end_job: cursor.take_len().map_err(decode_err)?,
    };
    let count = cursor.take_len().map_err(decode_err)?;
    let columns = cursor.take_u64().map_err(decode_err)?;
    if columns != NUM_COLUMNS {
        return Err(ExperimentError::decode(format!(
            "columnar shard archive carries {columns} column(s), expected {NUM_COLUMNS}"
        )));
    }
    // Guard the allocation before trusting the count: every record costs
    // at least one byte per fixed-width column, so a count the document
    // cannot possibly back is rejected without allocating for it.
    if count > bytes.len() {
        return Err(ExperimentError::decode(format!(
            "columnar shard archive claims {count} record(s) in a {}-byte document",
            bytes.len()
        )));
    }

    let mut take = |what: &str| -> Result<col::Cursor<'_>> {
        cursor
            .take_column()
            .map_err(|e| decode_err(format!("{what} column: {e}")))
    };
    let mut cell_index = take("cell_index")?;
    let mut trial_index = take("trial_index")?;
    let mut seed = take("seed")?;
    let mut accepted = take("accepted")?;
    let mut word_accuracy = take("word_accuracy")?;
    let mut recognized_words = take("recognized_words")?;
    let mut bystander_spl_db = take("bystander_spl_db")?;
    let mut bystander_spl_dba = take("bystander_spl_dba")?;
    let mut bystander_voice_spl_db = take("bystander_voice_spl_db")?;
    let mut leak_audible = take("leak_audible")?;
    let mut power_shortfall = take("power_shortfall_w")?;
    let mut defense_features = take("defense_features")?;
    let mut detection_probability = take("detection_probability")?;
    let mut band_summary = take("recording_band_summary_db")?;
    cursor.expect_end().map_err(decode_err)?;

    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        records.push(TrialRecord {
            cell_index: cell_index.take_len().map_err(decode_err)?,
            trial_index: trial_index.take_len().map_err(decode_err)?,
            seed: seed.take_u64().map_err(decode_err)?,
            accepted: match accepted.take_u8().map_err(decode_err)? {
                0 => false,
                1 => true,
                other => {
                    return Err(decode_err(format!("accepted flag byte {other}")));
                }
            },
            word_accuracy: word_accuracy.take_f64().map_err(decode_err)?,
            recognized_words: {
                let n = recognized_words.take_len().map_err(decode_err)?;
                let mut words = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    words.push(recognized_words.take_str().map_err(decode_err)?.to_string());
                }
                words
            },
            bystander_spl_db: take_opt_f64(&mut bystander_spl_db)?,
            bystander_spl_dba: take_opt_f64(&mut bystander_spl_dba)?,
            bystander_voice_spl_db: take_opt_f64(&mut bystander_voice_spl_db)?,
            leak_audible: match leak_audible.take_u8().map_err(decode_err)? {
                0 => None,
                1 => Some(false),
                2 => Some(true),
                other => {
                    return Err(decode_err(format!("leak_audible flag byte {other}")));
                }
            },
            power_shortfall_w: power_shortfall.take_f64().map_err(decode_err)?,
            defense_features: {
                let n = defense_features.take_len().map_err(decode_err)?;
                let mut values = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    values.push(defense_features.take_f64().map_err(decode_err)?);
                }
                values
            },
            detection_probability: take_opt_f64(&mut detection_probability)?,
            recording_band_summary_db: match band_summary.take_u8().map_err(decode_err)? {
                0 => None,
                1 => {
                    let n = band_summary.take_len().map_err(decode_err)?;
                    let mut values = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        values.push(band_summary.take_f64().map_err(decode_err)?);
                    }
                    Some(values)
                }
                other => {
                    return Err(decode_err(format!("band summary presence byte {other}")));
                }
            },
        });
    }
    for (name, column) in [
        ("cell_index", &cell_index),
        ("trial_index", &trial_index),
        ("seed", &seed),
        ("accepted", &accepted),
        ("word_accuracy", &word_accuracy),
        ("recognized_words", &recognized_words),
        ("bystander_spl_db", &bystander_spl_db),
        ("bystander_spl_dba", &bystander_spl_dba),
        ("bystander_voice_spl_db", &bystander_voice_spl_db),
        ("leak_audible", &leak_audible),
        ("power_shortfall_w", &power_shortfall),
        ("defense_features", &defense_features),
        ("detection_probability", &detection_probability),
        ("recording_band_summary_db", &band_summary),
    ] {
        if column.remaining() != 0 {
            return Err(decode_err(format!(
                "{name} column carries {} trailing byte(s) after {count} record(s)",
                column.remaining()
            )));
        }
    }
    Ok(ShardArchive {
        spec,
        shard,
        records,
    })
}

fn take_opt_f64(cursor: &mut col::Cursor<'_>) -> Result<Option<f64>> {
    match cursor.take_u8().map_err(decode_err)? {
        0 => Ok(None),
        1 => Ok(Some(cursor.take_f64().map_err(decode_err)?)),
        other => Err(decode_err(format!("presence byte {other}"))),
    }
}

/// Reads just the shard range from columnar bytes — the header is a few
/// length-prefixed fields, so ordering partials for a streaming merge
/// never decodes their record columns.
pub fn peek_column_range(bytes: &[u8]) -> Result<ShardRange> {
    let mut cursor = col::Cursor::new(bytes);
    let format = cursor.take_str().map_err(decode_err)?;
    if format != COLUMNS_FORMAT {
        return Err(ExperimentError::decode(format!(
            "unsupported shard archive format '{format}' (expected '{COLUMNS_FORMAT}')"
        )));
    }
    cursor.take_bytes().map_err(decode_err)?; // spec JSON, skipped
    Ok(ShardRange {
        shard_index: cursor.take_len().map_err(decode_err)?,
        num_shards: cursor.take_len().map_err(decode_err)?,
        start_job: cursor.take_len().map_err(decode_err)?,
        end_job: cursor.take_len().map_err(decode_err)?,
    })
}
