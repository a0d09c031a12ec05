//! The detector corpus shares the Prepare cache with the campaigns its
//! detector scores: training the standard quick detector builds the
//! 8-element attack that `d1`'s attack cells read.  A binary of its own,
//! because it starts from an empty cache and reads process-wide counters.

use ivc_core::stages::PreparedCell;
use ivc_core::{prepare_cache, telemetry};
use ivc_experiments::{presets, DetectorSpec};
use ivc_speech::commands::corpus;

#[test]
fn training_the_standard_detector_builds_d1s_attack() {
    prepare_cache::set_enabled(true);
    prepare_cache::clear();
    telemetry::set_enabled(true);
    prepare_cache::get(&DetectorSpec::standard(true).corpus).unwrap();

    let spec = presets::d1(true);
    let cell = spec
        .cells()
        .into_iter()
        .find(|cell| {
            spec.deliveries[cell.coords.delivery_index]
                .delivery
                .is_attack()
        })
        .expect("d1 has an attack cell");
    let counts = || {
        let snapshot = telemetry::snapshot();
        let builds = snapshot.span("prepare.attack_build").map_or(0, |s| s.count);
        (builds, snapshot.counter("prepare.attack_build_reused"))
    };
    let (builds, reused) = counts();
    let command = &corpus()[spec.command_index(&cell)];
    let seeds = [spec.trial_seed(0)];
    PreparedCell::prepare(command, &spec.scenario(&cell, 0), &seeds).unwrap();
    let (builds_after, reused_after) = counts();
    assert_eq!(
        builds_after, builds,
        "d1's attack cell rebuilt the attack the detector corpus built"
    );
    assert!(reused_after > reused);
}
