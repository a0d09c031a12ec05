//! Integration tests of the physical claims that make the attack and the
//! defense work, exercised through the public crate boundaries.

use inaudible_voice_commands::acoustics::array::SpeakerArray;
use inaudible_voice_commands::acoustics::environment::AirEnvironment;
use inaudible_voice_commands::acoustics::microphone::DevicePreset;
use inaudible_voice_commands::acoustics::psychoacoustics::audibility;
use inaudible_voice_commands::acoustics::speaker::UltrasonicSpeaker;
use inaudible_voice_commands::attack::baseband::BasebandConfig;
use inaudible_voice_commands::attack::multispeaker::MultiSpeakerAttack;
use inaudible_voice_commands::dsp::signal::Signal;
use inaudible_voice_commands::dsp::spectrum::band_power;

fn syllabic_voice() -> Signal {
    let fs = 48_000.0;
    let n = (0.8 * fs) as usize;
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            let syllable = 0.55 + 0.45 * (2.0 * std::f64::consts::PI * 3.5 * t).sin();
            syllable
                * (0.5 * (2.0 * std::f64::consts::PI * 380.0 * t).sin()
                    + 0.35 * (2.0 * std::f64::consts::PI * 1_250.0 * t).sin()
                    + 0.2 * (2.0 * std::f64::consts::PI * 2_400.0 * t).sin())
        })
        .collect();
    let mut s = Signal::new(samples, fs).unwrap();
    s.normalize_peak(0.5);
    s
}

#[test]
fn the_attack_field_is_inaudible_but_the_recording_contains_voice() {
    let voice = syllabic_voice();
    let attack = MultiSpeakerAttack::build(
        &voice,
        40_000.0,
        6,
        50.0,
        0.3,
        30.0,
        &BasebandConfig::default(),
    )
    .unwrap();
    let array = SpeakerArray::new(UltrasonicSpeaker::default(), 6, 0.03).unwrap();
    let drives = attack.allocate_power(50.0, 0.3, 30.0).unwrap().drives;
    let env = AirEnvironment::default();

    // The segmented field carries far less *intelligible* (voice-band)
    // residue than the same signal played from a single element at the same
    // total power — the property that lets the real attack stay unnoticed.
    let field = array.field_at_target(&drives, 2.0, &env).unwrap();
    let fs_field = field.sample_rate_hz();
    let single_attack = inaudible_voice_commands::attack::single::SingleSpeakerAttack::build(
        &voice,
        40_000.0,
        0.9,
        &BasebandConfig::default(),
    )
    .unwrap();
    let single_array = SpeakerArray::new(UltrasonicSpeaker::default(), 1, 0.03).unwrap();
    let single_drives =
        inaudible_voice_commands::attack::multispeaker::single_speaker_element_drives(
            &single_attack,
            30.0,
        )
        .unwrap();
    let single_field = single_array
        .field_at_target(&single_drives, 2.0, &env)
        .unwrap();
    let segmented_voice_leak = band_power(field.samples(), fs_field, 300.0, 4_000.0).unwrap();
    let single_voice_leak = band_power(single_field.samples(), fs_field, 300.0, 4_000.0).unwrap();
    assert!(
        single_voice_leak > segmented_voice_leak * 3.0,
        "segmented voice-band leakage ({segmented_voice_leak:.3e}) should be well below the \
         single-speaker equivalent ({single_voice_leak:.3e})"
    );
    // And a much louder legitimate-speech field at the same spot WOULD be heard,
    // confirming the audibility model is not trivially silent.
    let report = audibility(field.samples(), fs_field, 60.0).unwrap();
    assert!(
        !report.audible,
        "residue should not be flagged at a 60 dB margin"
    );

    // ...while the non-linear microphone turns the field into an audible-band recording.
    let mic = DevicePreset::AndroidPhone.microphone();
    let recording = mic.capture(&field, 5).unwrap();
    let fs = recording.sample_rate_hz();
    let voice_band = band_power(recording.samples(), fs, 300.0, 3_000.0).unwrap();
    let high_band = band_power(recording.samples(), fs, 8_000.0, 20_000.0).unwrap();
    assert!(
        voice_band / high_band > 10.0,
        "recording should carry voice-band energy (ratio {})",
        voice_band / high_band
    );
}

#[test]
fn a_linear_microphone_is_immune() {
    let voice = syllabic_voice();
    let attack = MultiSpeakerAttack::build(
        &voice,
        40_000.0,
        6,
        50.0,
        0.3,
        30.0,
        &BasebandConfig::default(),
    )
    .unwrap();
    let array = SpeakerArray::new(UltrasonicSpeaker::default(), 6, 0.03).unwrap();
    let drives = attack.allocate_power(50.0, 0.3, 30.0).unwrap().drives;
    let env = AirEnvironment::default();
    let field = array.field_at_target(&drives, 2.0, &env).unwrap();

    let nonlinear = DevicePreset::AndroidPhone
        .microphone()
        .capture(&field, 5)
        .unwrap();
    let linear = DevicePreset::LinearReference
        .microphone()
        .capture(&field, 5)
        .unwrap();
    let fs = nonlinear.sample_rate_hz();
    let injected_nonlinear = band_power(nonlinear.samples(), fs, 300.0, 3_000.0).unwrap();
    let injected_linear = band_power(linear.samples(), fs, 300.0, 3_000.0).unwrap();
    assert!(
        injected_nonlinear / injected_linear > 10.0,
        "non-linear mic should demodulate ({}x)",
        injected_nonlinear / injected_linear
    );
}

#[test]
fn echo_needs_the_attacker_closer_than_the_phone() {
    // The plastic-grille device attenuates ultrasound more, so at the same
    // distance its demodulated voice is weaker.
    let voice = syllabic_voice();
    let attack = MultiSpeakerAttack::build(
        &voice,
        40_000.0,
        6,
        50.0,
        0.3,
        30.0,
        &BasebandConfig::default(),
    )
    .unwrap();
    let array = SpeakerArray::new(UltrasonicSpeaker::default(), 6, 0.03).unwrap();
    let drives = attack.allocate_power(50.0, 0.3, 30.0).unwrap().drives;
    let env = AirEnvironment::default();
    let field = array.field_at_target(&drives, 3.0, &env).unwrap();

    let phone = DevicePreset::AndroidPhone
        .microphone()
        .capture(&field, 6)
        .unwrap();
    let echo = DevicePreset::AmazonEcho
        .microphone()
        .capture(&field, 6)
        .unwrap();
    let fs = phone.sample_rate_hz();
    let phone_voice = band_power(phone.samples(), fs, 300.0, 3_000.0).unwrap();
    let echo_voice = band_power(echo.samples(), fs, 300.0, 3_000.0).unwrap();
    assert!(
        phone_voice > echo_voice * 2.0,
        "phone {} vs echo {}",
        phone_voice,
        echo_voice
    );
}
