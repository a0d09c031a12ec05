//! The detector's training corpus is built by the trial stages: its
//! labelled features are bit-equal to what the staged pipeline gives for
//! the same cells and seeds.  (Its counts, labels, reproducibility and
//! validation are unit-tested in `ivc_core::dataset`.)

use ivc_acoustics::microphone::CaptureScratch;
use ivc_core::dataset::FIRST_SEED;
use ivc_core::prepare_cache::{self, DefaultRecognizer};
use ivc_core::PreparedCell;
use ivc_defense::features::FeatureVector;
use ivc_experiments::DetectorSpec;
use ivc_speech::recognizer::EvalScratch;

fn bits(samples: &[(FeatureVector, bool)]) -> Vec<(Vec<u64>, bool)> {
    samples
        .iter()
        .map(|(v, label)| (v.iter().map(|x| x.to_bits()).collect(), *label))
        .collect()
}

#[test]
fn corpus_features_equal_the_trial_stages() {
    let corpus = DetectorSpec::standard(true).corpus;
    let recognizer = prepare_cache::get(&DefaultRecognizer).unwrap();
    let mut scratch = CaptureScratch::new();
    let mut eval = EvalScratch::new();
    let mut expected = Vec::new();
    for cell in corpus.cells(FIRST_SEED).unwrap() {
        let prepared = PreparedCell::prepare(&cell.command, &cell.scenario, &cell.seeds).unwrap();
        for &seed in &cell.seeds {
            let outcome = prepared
                .run(seed, &recognizer, None, &mut scratch, &mut eval)
                .unwrap();
            let label = cell.scenario.delivery.is_attack();
            expected.push((outcome.defense_features.to_vector(), label));
        }
    }
    let actual = corpus.labelled_features(FIRST_SEED).unwrap();
    assert_eq!(bits(&actual), bits(&expected));
}
