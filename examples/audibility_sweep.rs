//! Why the naive attack cannot be both long-range and inaudible: sweep the
//! drive power of a single ultrasonic speaker and of a segmented array and
//! watch what a bystander standing one metre away would hear.
//!
//! Run with: `cargo run --release --example audibility_sweep`

use inaudible_voice_commands::acoustics::array::SpeakerArray;
use inaudible_voice_commands::acoustics::environment::AirEnvironment;
use inaudible_voice_commands::attack::leakage::estimate_leakage;
use inaudible_voice_commands::attack::multispeaker::{
    single_speaker_element_drives, MultiSpeakerAttack,
};
use inaudible_voice_commands::attack::single::SingleSpeakerAttack;
use inaudible_voice_commands::speech::commands::corpus;
use inaudible_voice_commands::speech::synthesis::{SpeakerProfile, Synthesizer};

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let synth = Synthesizer::new(48_000.0)?;
    let voice_full = synth
        .render(&corpus()[0], &SpeakerProfile::canonical())?
        .signal;
    let voice = voice_full.slice_seconds(0.0, 1.2);
    let env = AirEnvironment::default();

    println!("bystander standing 1 m from the transmitter\n");
    println!("--- single speaker (carrier + sidebands on one tweeter) ---");
    let single = SingleSpeakerAttack::build(&voice, 40_000.0)?;
    let single_array = SpeakerArray::new(1)?;
    println!(
        "{:>10}  {:>16}  {:>18}  {:>8}",
        "power (W)", "leak SPL (dB)", "voice-band (dB)", "audible"
    );
    for power in [1.0, 4.0, 10.0, 20.0, 29.0] {
        let drives = single_speaker_element_drives(&single, power)?;
        let leak = estimate_leakage(&single_array, &drives, 1.0, &env, 0.0)?;
        println!(
            "{power:>10.1}  {:>16.1}  {:>18.1}  {:>8}",
            leak.audible_spl_db,
            leak.voice_band_spl_db,
            leak.is_audible()
        );
    }

    println!("\n--- segmented array (carrier separated from spectrum slices) ---");
    println!(
        "{:>10}  {:>10}  {:>16}  {:>18}  {:>8}",
        "elements", "power (W)", "leak SPL (dB)", "voice-band (dB)", "audible"
    );
    for n in [2usize, 4, 8, 16] {
        let total_power = 7.0 * n as f64;
        let attack = MultiSpeakerAttack::build(&voice, 40_000.0, n, total_power)?;
        let array = SpeakerArray::new(n)?;
        let drives = attack.allocate_power()?.drives;
        let leak = estimate_leakage(&array, &drives, 1.0, &env, 0.0)?;
        println!(
            "{n:>10}  {total_power:>10.1}  {:>16.1}  {:>18.1}  {:>8}",
            leak.audible_spl_db,
            leak.voice_band_spl_db,
            leak.is_audible()
        );
    }
    println!("\nThe single speaker becomes audible long before it delivers long-range power;");
    println!("the segmented array keeps the voice-band leakage far lower at much higher totals.");
    Ok(())
}
