//! The parameter-grid DSL: a [`CampaignSpec`] declares axes (detector,
//! device, delivery, room, environment, command, distance) plus shared
//! scalars, and expands into the full cross product of concrete
//! [`Scenario`]s.  A swept carrier frequency or power is a delivery axis:
//! one [`DeliverySpec`] per point.
//!
//! Expansion order is part of the engine's contract: cells are enumerated
//! detectors → devices → deliveries → rooms → environments → commands →
//! distances (distance innermost), so success-vs-distance curves read off
//! contiguous cell ranges, and the same spec always produces the same cell
//! indices.  [`CampaignSpec::cell_index_of`] encodes coordinates in that
//! mixed radix and [`CampaignSpec::cells`] decodes it.

use crate::error::{ExperimentError, Result};
use ivc_acoustics::environment::AirEnvironment;
use ivc_acoustics::microphone::DevicePreset;
use ivc_core::dataset::DatasetConfig;
use ivc_core::scenario::{Delivery, Scenario, BYSTANDER_DISTANCE_M};
use ivc_room::RoomPreset;
use ivc_speech::commands::corpus;

/// Stable archive token of a room-axis entry (`None` = free field).
pub fn room_token(room: Option<RoomPreset>) -> &'static str {
    match room {
        None => "free_field",
        Some(preset) => preset.token(),
    }
}

/// Parses a room-axis archive token (inverse of [`room_token`]).
pub fn room_from_token(token: &str) -> Option<Option<RoomPreset>> {
    if token == "free_field" {
        return Some(None);
    }
    RoomPreset::from_token(token).map(Some)
}

/// Named air-condition presets for the environment axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvironmentPreset {
    /// A typical indoor meeting room (20 °C, 50 % RH) — the default used by
    /// every paper experiment.
    MeetingRoom,
    /// A heated building in winter: cooler and dry (16 °C, 25 % RH); dry
    /// air absorbs ultrasound hardest.
    WinterIndoor,
    /// A hot, humid summer room (30 °C, 80 % RH).
    SummerHumid,
    /// Outdoors on a cool day (10 °C, 70 % RH, slightly low pressure).
    Outdoor,
}

impl EnvironmentPreset {
    /// All presets in a stable order.
    pub const ALL: [EnvironmentPreset; 4] = [
        EnvironmentPreset::MeetingRoom,
        EnvironmentPreset::WinterIndoor,
        EnvironmentPreset::SummerHumid,
        EnvironmentPreset::Outdoor,
    ];

    /// Stable token used in JSON archives.
    pub fn token(&self) -> &'static str {
        match self {
            EnvironmentPreset::MeetingRoom => "meeting_room",
            EnvironmentPreset::WinterIndoor => "winter_indoor",
            EnvironmentPreset::SummerHumid => "summer_humid",
            EnvironmentPreset::Outdoor => "outdoor",
        }
    }

    /// Parses an archive token back into a preset.
    pub fn from_token(token: &str) -> Option<EnvironmentPreset> {
        EnvironmentPreset::ALL
            .into_iter()
            .find(|p| p.token() == token)
    }

    /// The air conditions this preset stands for.
    pub fn air(&self) -> AirEnvironment {
        match self {
            EnvironmentPreset::MeetingRoom => AirEnvironment::default(),
            EnvironmentPreset::WinterIndoor => AirEnvironment {
                temperature_c: 16.0,
                relative_humidity_percent: 25.0,
                pressure_kpa: 101.325,
            },
            EnvironmentPreset::SummerHumid => AirEnvironment {
                temperature_c: 30.0,
                relative_humidity_percent: 80.0,
                pressure_kpa: 101.325,
            },
            EnvironmentPreset::Outdoor => AirEnvironment {
                temperature_c: 10.0,
                relative_humidity_percent: 70.0,
                pressure_kpa: 100.0,
            },
        }
    }
}

/// One labelled point on the delivery axis.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliverySpec {
    /// Label used in tables, curves and archives.
    pub label: String,
    /// The delivery configuration.
    pub delivery: Delivery,
    /// Adaptive-attacker shadow suppression in `[0, 1]` applied to attack
    /// deliveries (`0.0`, the default, is the oblivious attacker).
    pub shadow_suppression: f64,
}

impl DeliverySpec {
    /// A legitimate talker at `talker_spl_db` dB SPL (1 m).
    pub fn legitimate(label: impl Into<String>, talker_spl_db: f64) -> Self {
        DeliverySpec {
            label: label.into(),
            delivery: Delivery::Legitimate { talker_spl_db },
            shadow_suppression: 0.0,
        }
    }

    /// A single ultrasonic speaker at `power_w` watt.
    pub fn single_speaker(label: impl Into<String>, power_w: f64, carrier_hz: f64) -> Self {
        DeliverySpec {
            label: label.into(),
            delivery: Delivery::SingleSpeakerUltrasound {
                power_w,
                carrier_hz,
            },
            shadow_suppression: 0.0,
        }
    }

    /// An ultrasonic array of `num_elements` at `total_power_w` watt.
    pub fn array(
        label: impl Into<String>,
        num_elements: usize,
        total_power_w: f64,
        carrier_hz: f64,
    ) -> Self {
        DeliverySpec {
            label: label.into(),
            delivery: Delivery::ArrayUltrasound {
                num_elements,
                total_power_w,
                carrier_hz,
            },
            shadow_suppression: 0.0,
        }
    }

    /// The same delivery with the adaptive attacker's shadow suppression
    /// set (the E-D6 sweep builds its delivery axis with this).
    pub fn with_shadow_suppression(mut self, suppression: f64) -> Self {
        self.shadow_suppression = suppression;
        self
    }
}

/// One point on the detector-training axis: a label and the labelled
/// corpus the campaign trains a logistic-regression detector on before
/// running trials.  The corpus is archived with the spec and everything
/// else it records is a constant of [`ivc_core::dataset`], so training is
/// fully reproducible from the archive.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorSpec {
    /// Label used in tables and archives.
    pub label: String,
    /// The training corpus (also the trained detector's cache key).
    pub corpus: DatasetConfig,
}

impl DetectorSpec {
    /// The standard detector of the paper's defense evaluation at the
    /// given fidelity (`quick` trims distances/commands/variants the same
    /// way the repro harness's quick mode always has).
    pub fn standard(quick: bool) -> Self {
        DetectorSpec {
            label: "standard detector".to_string(),
            corpus: DatasetConfig {
                distances_m: if quick {
                    vec![1.5, 3.0]
                } else {
                    vec![1.0, 2.0, 3.0, 5.0]
                },
                num_speaker_variants: if quick { 2 } else { 4 },
                command_indices: if quick { vec![0] } else { vec![0, 1, 2, 3] },
                max_voice_duration_s: if quick { 1.1 } else { f64::INFINITY },
            },
        }
    }

    fn validate(&self) -> Result<()> {
        if self.label.is_empty() {
            return Err(ExperimentError::invalid(
                "detectors",
                "detector label must not be empty",
            ));
        }
        self.corpus
            .validate()
            .map_err(|e| ExperimentError::invalid("detectors", e.to_string()))
    }
}

/// Stable archive token of a detector-axis entry.
pub fn detector_token(detector: Option<&DetectorSpec>) -> String {
    match detector {
        None => "no detector".to_string(),
        Some(spec) => spec.label.clone(),
    }
}

/// A full campaign: the grid axes plus everything shared by all cells.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (archived; also the default archive file stem).
    pub name: String,
    /// Detector-training axis: `None` runs trials without a detector,
    /// `Some(spec)` trains a logistic-regression detector on the described
    /// corpus once and scores every trial of the entry's cells with it.
    pub detectors: Vec<Option<DetectorSpec>>,
    /// Device axis.
    pub devices: Vec<DevicePreset>,
    /// Delivery-configuration axis (element counts, powers, carriers —
    /// anything [`Delivery`] expresses, plus shadow suppression).
    pub deliveries: Vec<DeliverySpec>,
    /// Room axis: `None` is the free-field channel, `Some(preset)` runs
    /// the trial inside that room's image-source model.
    pub rooms: Vec<Option<RoomPreset>>,
    /// Environment axis.
    pub environments: Vec<EnvironmentPreset>,
    /// Command axis: indices into [`ivc_speech::commands::corpus`].
    pub command_indices: Vec<usize>,
    /// Distance axis, in metres.
    pub distances_m: Vec<f64>,
    /// Ambient room noise for every cell, in dB SPL.
    pub ambient_noise_spl_db: f64,
    /// Trials per cell; trial `t` everywhere uses seed `base_seed + t`
    /// (common random numbers across cells, so cross-cell comparisons are
    /// paired).
    pub trials_per_cell: usize,
    /// Master seed; the only randomness a campaign sees.
    pub base_seed: u64,
    /// Voice-duration cap per trial, `f64::INFINITY` for whole commands.
    pub max_voice_duration_s: f64,
    /// When set, each trial record carries a band-energy summary of its
    /// recording (the E-B2 spectrogram column, archived instead of the
    /// waveform; see [`crate::executor::BAND_SUMMARY_BANDS`]).
    pub recording_band_summary: bool,
}

impl CampaignSpec {
    /// A single-cell starting point mirroring [`Scenario::default_attack`]:
    /// Android phone, 8-element 40 W array, meeting room, command 0, 2 m,
    /// one trial at seed 1.  Overwrite the axes you want to sweep.
    pub fn new(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            detectors: vec![None],
            devices: vec![DevicePreset::AndroidPhone],
            deliveries: vec![DeliverySpec::array(
                "8-element array, 40 W",
                8,
                40.0,
                40_000.0,
            )],
            rooms: vec![None],
            environments: vec![EnvironmentPreset::MeetingRoom],
            command_indices: vec![0],
            distances_m: vec![2.0],
            ambient_noise_spl_db: 40.0,
            trials_per_cell: 1,
            base_seed: 1,
            max_voice_duration_s: f64::INFINITY,
            recording_band_summary: false,
        }
    }

    /// Validates every axis and scalar.
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(ExperimentError::invalid("name", "must not be empty"));
        }
        if self.detectors.is_empty() {
            return Err(ExperimentError::invalid("detectors", "axis is empty"));
        }
        for detector in self.detectors.iter().flatten() {
            detector.validate()?;
        }
        if self.devices.is_empty() {
            return Err(ExperimentError::invalid("devices", "axis is empty"));
        }
        if self.deliveries.is_empty() {
            return Err(ExperimentError::invalid("deliveries", "axis is empty"));
        }
        for delivery in &self.deliveries {
            let problem = if !(0.0..=1.0).contains(&delivery.shadow_suppression) {
                "shadow_suppression must be within [0, 1]"
            } else if let Delivery::ArrayUltrasound {
                num_elements: 0, ..
            } = delivery.delivery
            {
                "an array needs at least one element"
            } else {
                continue;
            };
            return Err(ExperimentError::invalid(
                "deliveries",
                format!("'{}': {problem}", delivery.label),
            ));
        }
        if self.rooms.is_empty() {
            return Err(ExperimentError::invalid("rooms", "axis is empty"));
        }
        if self.environments.is_empty() {
            return Err(ExperimentError::invalid("environments", "axis is empty"));
        }
        if self.command_indices.is_empty() {
            return Err(ExperimentError::invalid("command_indices", "axis is empty"));
        }
        let corpus_len = corpus().len();
        for &index in &self.command_indices {
            if index >= corpus_len {
                return Err(ExperimentError::invalid(
                    "command_indices",
                    format!("index {index} outside the {corpus_len}-command corpus"),
                ));
            }
        }
        if self.distances_m.is_empty() {
            return Err(ExperimentError::invalid("distances_m", "axis is empty"));
        }
        for &d in &self.distances_m {
            if !(d > 0.0) || !d.is_finite() {
                return Err(ExperimentError::invalid(
                    "distances_m",
                    format!("{d} must be positive and finite"),
                ));
            }
        }
        // Every room must host every distance (and the bystander), so a
        // mis-sized sweep fails at validation instead of mid-campaign.
        for &room in &self.rooms {
            if let Some(preset) = room {
                for &d in &self.distances_m {
                    if let Err(e) = preset.check_placement(d, BYSTANDER_DISTANCE_M) {
                        return Err(ExperimentError::invalid(
                            "rooms",
                            format!("{} at {d} m: {e}", preset.token()),
                        ));
                    }
                }
            }
        }
        if !self.ambient_noise_spl_db.is_finite() {
            return Err(ExperimentError::invalid(
                "ambient_noise_spl_db",
                "must be finite",
            ));
        }
        if self.trials_per_cell == 0 {
            return Err(ExperimentError::invalid(
                "trials_per_cell",
                "must be at least 1",
            ));
        }
        if !(self.max_voice_duration_s > 0.0) {
            return Err(ExperimentError::invalid(
                "max_voice_duration_s",
                "must be positive (use f64::INFINITY for whole commands)",
            ));
        }
        Ok(())
    }

    /// Number of grid cells (the axis cross product).
    pub fn num_cells(&self) -> usize {
        self.detectors.len()
            * self.devices.len()
            * self.deliveries.len()
            * self.rooms.len()
            * self.environments.len()
            * self.command_indices.len()
            * self.distances_m.len()
    }

    /// Number of trials across the whole campaign.
    pub fn num_trials(&self) -> usize {
        self.num_cells() * self.trials_per_cell
    }

    /// Expands the grid into cells, in the documented order: cell `i` has
    /// the coordinates whose [`CampaignSpec::cell_index_of`] is `i`.
    pub fn cells(&self) -> Vec<CellSpec> {
        (0..self.num_cells())
            .map(|cell_index| {
                let mut rest = cell_index;
                let mut digit = |len: usize| {
                    let d = rest % len;
                    rest /= len;
                    d
                };
                // Fields evaluate in the order written: least significant
                // digit first.
                let coords = CellCoords {
                    distance_index: digit(self.distances_m.len()),
                    command_position: digit(self.command_indices.len()),
                    environment_index: digit(self.environments.len()),
                    room_index: digit(self.rooms.len()),
                    delivery_index: digit(self.deliveries.len()),
                    device_index: digit(self.devices.len()),
                    detector_index: digit(self.detectors.len()),
                };
                CellSpec { cell_index, coords }
            })
            .collect()
    }

    /// The cell index at the given axis coordinates: the expansion order
    /// as a mixed radix, distance the least significant digit.  `None`
    /// when any coordinate is outside its axis.
    pub fn cell_index_of(&self, coords: &CellCoords) -> Option<usize> {
        if coords.detector_index >= self.detectors.len()
            || coords.device_index >= self.devices.len()
            || coords.delivery_index >= self.deliveries.len()
            || coords.room_index >= self.rooms.len()
            || coords.environment_index >= self.environments.len()
            || coords.command_position >= self.command_indices.len()
            || coords.distance_index >= self.distances_m.len()
        {
            return None;
        }
        let mut index = coords.detector_index;
        index = index * self.devices.len() + coords.device_index;
        index = index * self.deliveries.len() + coords.delivery_index;
        index = index * self.rooms.len() + coords.room_index;
        index = index * self.environments.len() + coords.environment_index;
        index = index * self.command_indices.len() + coords.command_position;
        index = index * self.distances_m.len() + coords.distance_index;
        Some(index)
    }

    /// The seed trial `trial_index` uses in **every** cell (common random
    /// numbers: the same trial index sees the same noise draw across cells,
    /// so cross-cell differences are parameter effects, not seed luck).
    pub fn trial_seed(&self, trial_index: usize) -> u64 {
        self.base_seed.wrapping_add(trial_index as u64)
    }

    /// The concrete scenario of one trial of one cell.
    pub fn scenario(&self, cell: &CellSpec, trial_index: usize) -> Scenario {
        let delivery = &self.deliveries[cell.coords.delivery_index];
        Scenario {
            device: self.devices[cell.coords.device_index],
            distance_m: self.distances_m[cell.coords.distance_index],
            delivery: delivery.delivery,
            ambient_noise_spl_db: self.ambient_noise_spl_db,
            env: self.environments[cell.coords.environment_index].air(),
            room: self.rooms[cell.coords.room_index],
            seed: self.trial_seed(trial_index),
            max_voice_duration_s: self.max_voice_duration_s,
            shadow_suppression: delivery.shadow_suppression,
        }
    }

    /// Corpus index of the command a cell injects.
    pub fn command_index(&self, cell: &CellSpec) -> usize {
        self.command_indices[cell.coords.command_position]
    }

    /// Human-readable cell label used in summaries and archives.
    pub fn cell_label(&self, cell: &CellSpec) -> String {
        let mut label = format!(
            "{} | {} | {} | {} | cmd {} | {} m",
            self.devices[cell.coords.device_index].name(),
            self.deliveries[cell.coords.delivery_index].label,
            room_token(self.rooms[cell.coords.room_index]),
            self.environments[cell.coords.environment_index].token(),
            self.command_index(cell),
            self.distances_m[cell.coords.distance_index],
        );
        if self.detectors.len() > 1 {
            label.push_str(&format!(
                " | {}",
                detector_token(self.detectors[cell.coords.detector_index].as_ref())
            ));
        }
        label
    }

    /// Label of the curve a cell belongs to: the delivery label alone
    /// when the other non-distance axes are singletons, joined with the
    /// room when only the room axis is swept, the full combination
    /// otherwise.
    pub fn curve_label(&self, cell: &CellSpec) -> String {
        let delivery = &self.deliveries[cell.coords.delivery_index].label;
        let room = room_token(self.rooms[cell.coords.room_index]);
        if self.detectors.len() == 1
            && self.devices.len() == 1
            && self.environments.len() == 1
            && self.command_indices.len() == 1
        {
            if self.rooms.len() == 1 {
                delivery.clone()
            } else if self.deliveries.len() == 1 {
                room.to_string()
            } else {
                format!("{delivery} | {room}")
            }
        } else {
            let mut label = format!(
                "{} | {} | {} | {} | cmd {}",
                self.devices[cell.coords.device_index].name(),
                delivery,
                room,
                self.environments[cell.coords.environment_index].token(),
                self.command_index(cell),
            );
            if self.detectors.len() > 1 {
                label.push_str(&format!(
                    " | {}",
                    detector_token(self.detectors[cell.coords.detector_index].as_ref())
                ));
            }
            label
        }
    }
}

/// Axis coordinates of one grid cell, in expansion order.  `Default` is
/// the origin — spell out only the axes you mean to address:
///
/// ```
/// # use ivc_experiments::CellCoords;
/// let coords = CellCoords {
///     delivery_index: 2,
///     distance_index: 1,
///     ..CellCoords::default()
/// };
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CellCoords {
    /// Index into [`CampaignSpec::detectors`].
    pub detector_index: usize,
    /// Index into [`CampaignSpec::devices`].
    pub device_index: usize,
    /// Index into [`CampaignSpec::deliveries`].
    pub delivery_index: usize,
    /// Index into [`CampaignSpec::rooms`].
    pub room_index: usize,
    /// Index into [`CampaignSpec::environments`].
    pub environment_index: usize,
    /// Position in [`CampaignSpec::command_indices`] (not the corpus index).
    pub command_position: usize,
    /// Index into [`CampaignSpec::distances_m`].
    pub distance_index: usize,
}

/// One cell of the expanded grid: its position in the expansion order and
/// its axis coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// Position in the expansion order (also the index into
    /// `CampaignReport::cells`).
    pub cell_index: usize,
    /// The cell's axis coordinates.
    pub coords: CellCoords,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_spec() -> CampaignSpec {
        CampaignSpec {
            devices: vec![DevicePreset::AndroidPhone, DevicePreset::AmazonEcho],
            deliveries: vec![
                DeliverySpec::single_speaker("single 3 W", 3.0, 40_000.0),
                DeliverySpec::array("array 16", 16, 120.0, 40_000.0),
                DeliverySpec::legitimate("talker", 65.0),
            ],
            rooms: vec![None, Some(RoomPreset::Office)],
            environments: vec![EnvironmentPreset::MeetingRoom, EnvironmentPreset::Outdoor],
            command_indices: vec![0, 2],
            distances_m: vec![1.0, 3.0, 6.0],
            trials_per_cell: 4,
            base_seed: 100,
            ..CampaignSpec::new("sweep")
        }
    }

    #[test]
    fn cardinality_is_the_axis_product() {
        let spec = sweep_spec();
        assert_eq!(spec.num_cells(), 2 * 3 * 2 * 2 * 2 * 3);
        assert_eq!(spec.num_trials(), spec.num_cells() * 4);
        let cells = spec.cells();
        assert_eq!(cells.len(), spec.num_cells());
        // Cell indices are their positions.
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.cell_index, i);
        }
        // Distance is the innermost axis; devices the outermost non-default
        // axis of this spec.
        assert_eq!(cells[0].coords.distance_index, 0);
        assert_eq!(cells[1].coords.distance_index, 1);
        assert_eq!(cells[2].coords.distance_index, 2);
        assert_eq!(cells[3].coords.distance_index, 0);
        assert_eq!(cells[3].coords.command_position, 1);
        assert_eq!(cells.last().unwrap().coords.device_index, 1);
        // The room axis sits between deliveries and environments.
        let cells_per_room = 2 * 2 * 3;
        assert_eq!(cells[cells_per_room - 1].coords.room_index, 0);
        assert_eq!(cells[cells_per_room].coords.room_index, 1);
        assert_eq!(cells[cells_per_room].coords.delivery_index, 0);
        assert_eq!(cells[2 * cells_per_room].coords.delivery_index, 1);
        // The closed-form index agrees with the expansion order for every
        // cell (the two encodings of the ordering contract cannot drift).
        for cell in &cells {
            assert_eq!(spec.cell_index_of(&cell.coords), Some(cell.cell_index));
        }
        for bad in [
            CellCoords {
                device_index: 2,
                ..CellCoords::default()
            },
            CellCoords {
                room_index: 2,
                ..CellCoords::default()
            },
            CellCoords {
                distance_index: 3,
                ..CellCoords::default()
            },
            CellCoords {
                detector_index: 1,
                ..CellCoords::default()
            },
        ] {
            assert_eq!(spec.cell_index_of(&bad), None);
        }
        // A single-cell spec expands to one cell.
        assert_eq!(CampaignSpec::new("one").cells().len(), 1);
    }

    #[test]
    fn detectors_expand_outermost_and_label_their_cells() {
        let spec = CampaignSpec {
            detectors: vec![None, Some(DetectorSpec::standard(true))],
            deliveries: [30_000.0, 40_000.0, 60_000.0]
                .map(|hz| DeliverySpec::single_speaker(format!("single @ {hz} Hz"), 10.0, hz))
                .into(),
            distances_m: vec![1.0, 2.0],
            ..CampaignSpec::new("axes")
        };
        assert_eq!(spec.num_cells(), 2 * 3 * 2);
        let cells = spec.cells();
        // Deliveries vary faster than detectors, distances fastest.
        assert_eq!(cells[1].coords.distance_index, 1);
        assert_eq!(cells[2].coords.delivery_index, 1);
        assert_eq!(cells[6].coords.detector_index, 1);
        assert_eq!(cells[6].coords.delivery_index, 0);
        for cell in &cells {
            assert_eq!(spec.cell_index_of(&cell.coords), Some(cell.cell_index));
        }
        // Each point of a carrier sweep is its own delivery, read as is.
        assert_eq!(
            spec.scenario(&cells[4], 0).delivery,
            Delivery::SingleSpeakerUltrasound {
                power_w: 10.0,
                carrier_hz: 60_000.0,
            }
        );
        let label = spec.cell_label(&cells[4]);
        assert!(label.contains("single @ 60000 Hz"), "{label}");
        assert!(label.contains("no detector"), "{label}");
        let trained = spec.cell_label(&cells[6]);
        assert!(trained.contains("standard detector"), "{trained}");
    }

    #[test]
    fn scenario_resolution() {
        let spec = sweep_spec();
        let cells = spec.cells();
        let cell = &cells[spec.num_cells() - 1];
        let scenario = spec.scenario(cell, 3);
        assert_eq!(scenario.device, DevicePreset::AmazonEcho);
        assert_eq!(scenario.distance_m, 6.0);
        assert_eq!(scenario.seed, 103);
        assert_eq!(scenario.env, EnvironmentPreset::Outdoor.air());
        assert_eq!(scenario.room, Some(RoomPreset::Office));
        assert_eq!(scenario.shadow_suppression, 0.0);
        assert_eq!(spec.scenario(&cells[0], 0).room, None);
        assert_eq!(spec.command_index(cell), 2);
        assert!(matches!(scenario.delivery, Delivery::Legitimate { .. }));
        // Trial seeds are shared across cells (common random numbers).
        assert_eq!(
            spec.scenario(&cells[0], 2).seed,
            spec.scenario(cell, 2).seed
        );
        let label = spec.cell_label(cell);
        assert!(label.contains("talker") && label.contains("6 m"), "{label}");
        // Suppression set on a delivery spec reaches the scenario.
        let d6_spec = CampaignSpec {
            deliveries: vec![
                DeliverySpec::array("array", 8, 60.0, 40_000.0).with_shadow_suppression(0.5)
            ],
            ..CampaignSpec::new("d6")
        };
        let d6_cells = d6_spec.cells();
        assert_eq!(d6_spec.scenario(&d6_cells[0], 0).shadow_suppression, 0.5);
    }

    #[test]
    fn validation_catches_bad_axes() {
        assert!(sweep_spec().validate().is_ok());
        let empty_axis = CampaignSpec {
            distances_m: vec![],
            ..sweep_spec()
        };
        assert!(empty_axis.validate().is_err());
        let bad_distance = CampaignSpec {
            distances_m: vec![2.0, -1.0],
            ..sweep_spec()
        };
        assert!(bad_distance.validate().is_err());
        let bad_command = CampaignSpec {
            command_indices: vec![999],
            ..sweep_spec()
        };
        assert!(bad_command.validate().is_err());
        let no_trials = CampaignSpec {
            trials_per_cell: 0,
            ..sweep_spec()
        };
        assert!(no_trials.validate().is_err());
        let nan_noise = CampaignSpec {
            ambient_noise_spl_db: f64::NAN,
            ..sweep_spec()
        };
        assert!(nan_noise.validate().is_err());
        let no_rooms = CampaignSpec {
            rooms: vec![],
            ..sweep_spec()
        };
        assert!(no_rooms.validate().is_err());
        // An 8 m office cannot host a 7 m throw: caught at validation.
        let oversize = CampaignSpec {
            rooms: vec![Some(RoomPreset::Office)],
            distances_m: vec![2.0, 7.0],
            ..sweep_spec()
        };
        let err = oversize.validate().unwrap_err();
        assert!(err.to_string().contains("office"), "{err}");
        // Out-of-range suppression, an array of no elements and a bad
        // detector.
        let bad_suppression = CampaignSpec {
            deliveries: vec![
                DeliverySpec::array("array", 8, 60.0, 40_000.0).with_shadow_suppression(1.5)
            ],
            ..sweep_spec()
        };
        assert!(bad_suppression.validate().is_err());
        let empty_array = CampaignSpec {
            deliveries: vec![DeliverySpec::array("no elements", 0, 60.0, 40_000.0)],
            ..sweep_spec()
        };
        let err = empty_array.validate().unwrap_err().to_string();
        assert!(
            err.contains("'no elements': an array needs at least one element"),
            "{err}"
        );
        let bad_detector = CampaignSpec {
            detectors: vec![Some(DetectorSpec {
                label: String::new(),
                ..DetectorSpec::standard(true)
            })],
            ..sweep_spec()
        };
        assert!(bad_detector.validate().is_err());
        let mut empty_corpus = DetectorSpec::standard(true);
        empty_corpus.corpus.distances_m.clear();
        let bad_detector = CampaignSpec {
            detectors: vec![Some(empty_corpus)],
            ..sweep_spec()
        };
        assert!(bad_detector.validate().is_err());
    }

    #[test]
    fn room_tokens_round_trip() {
        assert_eq!(room_token(None), "free_field");
        assert_eq!(room_from_token("free_field"), Some(None));
        for preset in RoomPreset::ALL {
            assert_eq!(
                room_from_token(room_token(Some(preset))),
                Some(Some(preset))
            );
        }
        assert_eq!(room_from_token("submarine"), None);
    }

    #[test]
    fn environment_tokens_round_trip() {
        for preset in EnvironmentPreset::ALL {
            assert_eq!(EnvironmentPreset::from_token(preset.token()), Some(preset));
            // Every preset resolves to physical air conditions.
            let air = preset.air();
            assert!((-50.0..=60.0).contains(&air.temperature_c));
        }
        assert_eq!(EnvironmentPreset::from_token("underwater"), None);
    }
}
