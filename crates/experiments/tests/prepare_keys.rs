//! Prepare products keyed by construction: each product's inputs struct
//! is a sound and minimal cache key for it.  Builds go through the
//! process-wide Prepare cache, so this property lives in a test binary of
//! its own, apart from `prepare_cache.rs`'s exact counter assertions.

use ivc_acoustics::microphone::DevicePreset;
use ivc_acoustics::propagation::SourceSpectrum;
use ivc_core::prepare_cache::{self, Product};
use ivc_core::scenario::{Delivery, Scenario};
use ivc_core::stages::{
    AttackBuild, AttackInputs, CellInputs, LeakageInputs, PathInputs, Source, SpectrumInputs,
    UtteranceInputs,
};
use ivc_dsp::fft::next_power_of_two;
use ivc_dsp::signal::Signal;
use ivc_room::propagate::reflections_transform_len;
use ivc_room::RoomPreset;
use ivc_speech::commands::corpus;
use ivc_speech::synthesis::Utterance;
use proptest::TestRng;
use std::collections::BTreeSet;
use std::fmt::Debug;

/// One draw of everything Prepare reads: a command, a scenario and the
/// cell's one trial seed.
#[derive(Debug, Clone)]
struct Draw {
    command: usize,
    scenario: Scenario,
    seed: u64,
}

/// Picks one of `options`.
fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.usize_in(0, options.len())]
}

/// A random cell of delivery kind `kind` (0 legitimate, 1 single speaker,
/// 2 array), with a short voice cap so every build stays cheap.
fn draw(rng: &mut TestRng, kind: usize) -> Draw {
    let power_w = pick(rng, &[3.0, 20.0]);
    let carrier_hz = pick(rng, &[30_000.0, 40_000.0]);
    let delivery = match kind {
        0 => Delivery::Legitimate {
            talker_spl_db: pick(rng, &[62.0, 68.0]),
        },
        1 => Delivery::SingleSpeakerUltrasound {
            power_w,
            carrier_hz,
        },
        _ => Delivery::ArrayUltrasound {
            num_elements: pick(rng, &[1, 3]),
            total_power_w: power_w,
            carrier_hz,
        },
    };
    let mut env = Scenario::default_attack().env;
    env.temperature_c = pick(rng, &[20.0, 25.0]);
    Draw {
        command: rng.usize_in(0, corpus().len()),
        scenario: Scenario {
            device: pick(rng, &[DevicePreset::AndroidPhone, DevicePreset::AmazonEcho]),
            distance_m: pick(rng, &[1.0, 2.0, 3.0]),
            delivery,
            ambient_noise_spl_db: pick(rng, &[40.0, 50.0]),
            env,
            room: pick(
                rng,
                &[None, Some(RoomPreset::Anechoic), Some(RoomPreset::Office)],
            ),
            seed: rng.next_u64() % 100,
            max_voice_duration_s: pick(rng, &[0.2, 0.25]),
            shadow_suppression: pick(rng, &[0.0, 0.5]),
        },
        seed: rng.next_u64() % 100,
    }
}

/// Changes one field of `(command, scenario, seeds)`; `false` when the
/// field does not exist for the draw's delivery.
type Perturbation = (&'static str, fn(&mut Draw) -> bool);

/// Scales the attack's electrical power (`false` for a talker).
fn scale_power(d: &mut Draw) -> bool {
    match &mut d.scenario.delivery {
        Delivery::SingleSpeakerUltrasound { power_w: p, .. }
        | Delivery::ArrayUltrasound {
            total_power_w: p, ..
        } => *p *= 1.5,
        Delivery::Legitimate { .. } => return false,
    }
    true
}

/// Shifts the attack's carrier (`false` for a talker).
fn shift_carrier(d: &mut Draw) -> bool {
    match &mut d.scenario.delivery {
        Delivery::SingleSpeakerUltrasound { carrier_hz: f, .. }
        | Delivery::ArrayUltrasound { carrier_hz: f, .. } => *f += 5_000.0,
        Delivery::Legitimate { .. } => return false,
    }
    true
}

/// Adds an array element (a single speaker becomes a two-element array).
fn add_element(d: &mut Draw) -> bool {
    d.scenario.delivery = match d.scenario.delivery {
        Delivery::SingleSpeakerUltrasound {
            power_w,
            carrier_hz,
        } => Delivery::ArrayUltrasound {
            num_elements: 2,
            total_power_w: power_w,
            carrier_hz,
        },
        Delivery::ArrayUltrasound {
            num_elements,
            total_power_w,
            carrier_hz,
        } => Delivery::ArrayUltrasound {
            num_elements: num_elements + 1,
            total_power_w,
            carrier_hz,
        },
        Delivery::Legitimate { .. } => return false,
    };
    true
}

/// Respells a single speaker as the one-element array and back: the same
/// build either way.
fn respell_single_speaker(d: &mut Draw) -> bool {
    d.scenario.delivery = match d.scenario.delivery {
        Delivery::SingleSpeakerUltrasound {
            power_w,
            carrier_hz,
        } => Delivery::ArrayUltrasound {
            num_elements: 1,
            total_power_w: power_w,
            carrier_hz,
        },
        Delivery::ArrayUltrasound {
            num_elements: 1,
            total_power_w,
            carrier_hz,
        } => Delivery::SingleSpeakerUltrasound {
            power_w: total_power_w,
            carrier_hz,
        },
        _ => return false,
    };
    true
}

const PERTURBATIONS: &[Perturbation] = &[
    ("command", |d| {
        d.command = (d.command + 1) % corpus().len();
        true
    }),
    ("talker level", |d| match &mut d.scenario.delivery {
        Delivery::Legitimate { talker_spl_db } => {
            *talker_spl_db += 3.0;
            true
        }
        _ => false,
    }),
    ("elements", add_element),
    ("power", scale_power),
    ("carrier", shift_carrier),
    ("single speaker as array", respell_single_speaker),
    ("distance", |d| {
        d.scenario.distance_m += 0.5;
        true
    }),
    ("room", |d| {
        d.scenario.room = match d.scenario.room {
            Some(RoomPreset::Office) => None,
            _ => Some(RoomPreset::Office),
        };
        true
    }),
    ("air", |d| {
        d.scenario.env.temperature_c += 5.0;
        true
    }),
    ("voice cap", |d| {
        d.scenario.max_voice_duration_s += 0.03;
        true
    }),
    ("shadow suppression", |d| {
        d.scenario.shadow_suppression = 0.5 - d.scenario.shadow_suppression;
        true
    }),
    ("device", |d| {
        d.scenario.device = match d.scenario.device {
            DevicePreset::AndroidPhone => DevicePreset::AmazonEcho,
            _ => DevicePreset::AndroidPhone,
        };
        true
    }),
    ("ambient noise", |d| {
        d.scenario.ambient_noise_spl_db += 10.0;
        true
    }),
    ("scenario seed", |d| {
        d.scenario.seed += 1;
        true
    }),
    ("trial seed", |d| {
        d.seed += 1;
        true
    }),
];

/// One product kind under test: how to read its inputs off a cell's
/// projection, its inputs' top-level fields (rendered), and its output's
/// bits.
struct Kind<P: Product> {
    name: &'static str,
    of: fn(&CellInputs) -> Option<P>,
    fields: fn(&P) -> Vec<(&'static str, String)>,
    bits: fn(&P::Output) -> Vec<u64>,
}

/// `(field name, Debug rendering)` for each listed field of `inputs`.
macro_rules! fields {
    ($($field:ident),*) => {
        |inputs| vec![$((stringify!($field), format!("{:?}", inputs.$field))),*]
    };
}

fn signal_bits(signal: &Signal) -> Vec<u64> {
    let mut bits = vec![signal.sample_rate_hz().to_bits()];
    bits.extend(signal.samples().iter().map(|x| x.to_bits()));
    bits
}

fn debug_bits(value: &impl Debug) -> Vec<u64> {
    format!("{value:?}").bytes().map(u64::from).collect()
}

fn path_of(cell: &CellInputs) -> Option<PathInputs> {
    match cell {
        CellInputs::Legitimate(paths) => Some(paths[0].1.clone()),
        CellInputs::Attack { path, .. } => Some(path.clone()),
    }
}

/// The half spectrum a cell's target path reads last: the attack build's
/// near field at the reflections' transform length in a room that has
/// reflections, at the direct path's otherwise.
fn spectrum_of(cell: &CellInputs) -> Option<SpectrumInputs> {
    let CellInputs::Attack { build, path, .. } = cell else {
        return None;
    };
    let attack = prepare_cache::get(build).expect("attack builds");
    let near = &attack.near_field_at_1m;
    let reflections = path.room.and_then(|room| {
        let rir = room
            .target_rir(path.distance_m, attack.aperture_m)
            .expect("the draw places the target");
        reflections_transform_len(&rir, near.len(), near.sample_rate_hz(), &path.env)
    });
    Some(SpectrumInputs {
        source: build.clone(),
        transform_len: reflections.unwrap_or(next_power_of_two(near.len())),
    })
}

fn spectrum_bits(spectrum: &SourceSpectrum) -> Vec<u64> {
    let mut bits = vec![
        spectrum.sample_rate_hz().to_bits(),
        spectrum.source_len() as u64,
    ];
    bits.extend(
        spectrum
            .bins()
            .iter()
            .flat_map(|bin| [bin.re.to_bits(), bin.im.to_bits()]),
    );
    bits
}

/// What the property has seen so far, across cases.
#[derive(Default)]
struct Tally {
    /// `(kind, perturbation)` pairs whose equal keys built equal bits.
    sound: BTreeSet<(&'static str, &'static str)>,
    /// `(kind, perturbation)` pairs that changed the kind's key.
    rekeyed: BTreeSet<(&'static str, &'static str)>,
    /// `(kind, perturbation)` pairs that changed the kind's product.
    rebuilt: BTreeSet<(&'static str, &'static str)>,
    /// `(kind, field)` pairs seen to change the product alone.
    needed: BTreeSet<(&'static str, &'static str)>,
    /// Every `(kind, field)` pair of the inputs seen.
    fields: BTreeSet<(&'static str, &'static str)>,
}

impl<P: Product> Kind<P> {
    fn check(
        &self,
        perturbation: &'static str,
        base: &CellInputs,
        changed: &CellInputs,
        tally: &mut Tally,
    ) {
        let (Some(a), Some(b)) = ((self.of)(base), (self.of)(changed)) else {
            return;
        };
        let (fa, fb) = ((self.fields)(&a), (self.fields)(&b));
        tally
            .fields
            .extend(fa.iter().map(|(field, _)| (self.name, *field)));
        let same_key = format!("{a:?}") == format!("{b:?}");
        assert_eq!(
            fa == fb,
            same_key,
            "{}: the field list and the key disagree on {a:?}",
            self.name
        );
        let cached = || (self.bits)(&prepare_cache::get(&a).expect("base builds"));
        if same_key {
            // Sound: equal keys, bit-identical products.  A fresh build of
            // the changed cell must equal the product cached for the base.
            if tally.sound.insert((self.name, perturbation)) {
                let fresh = (self.bits)(&b.build().expect("changed cell builds"));
                assert!(
                    fresh == cached(),
                    "{}: '{perturbation}' kept the key {a:?} but changed the product",
                    self.name
                );
            }
            return;
        }
        tally.rekeyed.insert((self.name, perturbation));
        let differing: Vec<&'static str> = fa
            .iter()
            .zip(&fb)
            .filter(|(x, y)| x != y)
            .map(|(x, _)| x.0)
            .collect();
        let alone = match differing[..] {
            [field] => Some(field),
            _ => None,
        };
        let wanted = !tally.rebuilt.contains(&(self.name, perturbation))
            || alone.is_some_and(|field| !tally.needed.contains(&(self.name, field)));
        if wanted && (self.bits)(&prepare_cache::get(&b).expect("changed cell builds")) != cached()
        {
            tally.rebuilt.insert((self.name, perturbation));
            tally.needed.extend(alone.map(|field| (self.name, field)));
        }
    }
}

/// Keys by construction: for the five Scenario-projected products
/// (utterance, attack build, its half spectrum, target path, leakage), a
/// perturbation of
/// one field of `(command, scenario, seeds)` at a time shows
/// * **soundness** — cells whose inputs render the same key build
///   bit-identical products (a fresh build against the cached one);
/// * **minimality** — every field of every inputs struct changes its
///   product, on its own, for some draw, and every perturbation that
///   changes a key changes the product for some draw.
///
/// Cases cycle every perturbation over every delivery kind, so the
/// coverage does not hang on the draws.
#[test]
fn projected_inputs_are_sound_and_minimal() {
    let utterance: Kind<UtteranceInputs> = Kind {
        name: "utterance",
        of: |cell| {
            path_of(cell).map(|path| match path.source {
                Source::Talker { voice, .. } => voice,
                Source::Attack(attack) => attack.voice,
            })
        },
        fields: fields!(command, talker),
        bits: |u: &Utterance| {
            let mut bits = signal_bits(&u.signal);
            bits.extend(debug_bits(&(&u.word_boundaries, &u.text)));
            bits
        },
    };
    let attack: Kind<AttackInputs> = Kind {
        name: "attack build",
        of: |cell| match cell {
            CellInputs::Attack { build, .. } => Some(build.clone()),
            CellInputs::Legitimate(_) => None,
        },
        fields: fields!(
            voice,
            max_voice_duration_s,
            shadow_suppression,
            num_elements,
            total_power_w,
            carrier_hz
        ),
        bits: |b: &AttackBuild| {
            let mut bits = signal_bits(&b.near_field_at_1m);
            bits.extend([b.aperture_m.to_bits(), b.power_shortfall_w.to_bits()]);
            bits
        },
    };
    let spectrum: Kind<SpectrumInputs> = Kind {
        name: "source spectrum",
        of: spectrum_of,
        fields: fields!(source, transform_len),
        bits: spectrum_bits,
    };
    let path: Kind<PathInputs> = Kind {
        name: "target path",
        of: path_of,
        fields: fields!(source, distance_m, room, env),
        bits: signal_bits,
    };
    let leakage: Kind<LeakageInputs> = Kind {
        name: "leakage",
        of: |cell| match cell {
            CellInputs::Attack { leakage, .. } => Some(leakage.clone()),
            CellInputs::Legitimate(_) => None,
        },
        fields: fields!(source, room, env),
        bits: debug_bits,
    };

    let commands = corpus();
    let project = |d: &Draw| {
        CellInputs::project(&commands[d.command], &d.scenario, &[d.seed]).expect("valid cell")
    };
    let mut rng = TestRng::deterministic("projected_inputs_are_sound_and_minimal");
    let mut tally = Tally::default();
    for &(name, perturb) in PERTURBATIONS {
        for kind in 0..3 {
            let base = draw(&mut rng, kind);
            let mut changed = base.clone();
            if !perturb(&mut changed) {
                continue;
            }
            let (a, b) = (project(&base), project(&changed));
            utterance.check(name, &a, &b, &mut tally);
            attack.check(name, &a, &b, &mut tally);
            spectrum.check(name, &a, &b, &mut tally);
            path.check(name, &a, &b, &mut tally);
            leakage.check(name, &a, &b, &mut tally);
        }
    }
    // A cell perturbation moves the transform length only together with
    // the build, or within a room's reflections, so the length is shown
    // needed directly: one build at two lengths, two products.
    let cell = spectrum_of(&project(&draw(&mut rng, 2))).expect("an attack draw reads a spectrum");
    let longer = SpectrumInputs {
        transform_len: 2 * cell.transform_len,
        ..cell.clone()
    };
    let product = |inputs: &SpectrumInputs| spectrum_bits(&prepare_cache::get(inputs).unwrap());
    assert_ne!(product(&cell), product(&longer));
    tally.needed.insert(("source spectrum", "transform_len"));
    let unneeded: Vec<_> = tally.fields.difference(&tally.needed).collect();
    assert!(
        unneeded.is_empty(),
        "inputs fields that never changed their product: {unneeded:?}"
    );
    let over_keyed: Vec<_> = tally.rekeyed.difference(&tally.rebuilt).collect();
    assert!(
        over_keyed.is_empty(),
        "perturbations that changed a key but never its product: {over_keyed:?}"
    );
    // Every kind was built on both sides of the comparison.
    assert_eq!(tally.fields.len(), 2 + 6 + 2 + 4 + 3);
}
