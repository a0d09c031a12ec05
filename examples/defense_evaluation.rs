//! Train the software defense on simulated recordings and evaluate it:
//! the detector corpus runs through the trial stages → logistic regression
//! → confusion matrix and ROC on a held-out corpus.
//!
//! Run with: `cargo run --release --example defense_evaluation`

use inaudible_voice_commands::core::dataset::FIRST_SEED;
use inaudible_voice_commands::core::DatasetConfig;
use inaudible_voice_commands::defense::classifier::LogisticRegression;
use inaudible_voice_commands::defense::evaluation::{evaluate, RocCurve};
use inaudible_voice_commands::defense::features::DefenseFeatures;
use inaudible_voice_commands::experiments::DetectorSpec;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let train_config = DatasetConfig {
        num_speaker_variants: 3,
        command_indices: vec![0, 1],
        max_voice_duration_s: 1.2,
        ..DetectorSpec::standard(true).corpus
    };
    // Held out: a fresh first seed (other talkers and noise draws) and
    // two commands the detector never trained on.
    let test_config = DatasetConfig {
        command_indices: vec![2, 3],
        ..train_config.clone()
    };
    println!("running the labelled corpora through the trial stages...");
    let train = train_config.labelled_features(FIRST_SEED)?;
    let test = test_config.labelled_features(99)?;
    for (name, set) in [("train", &train), ("test", &test)] {
        let attacks = set.iter().filter(|(_, is_attack)| *is_attack).count();
        println!(
            "  {name}: {} samples ({attacks} attacks, {} legitimate)",
            set.len(),
            set.len() - attacks
        );
    }

    let model = LogisticRegression::train(&train)?;
    println!("\ntrained detector weights (standardised feature space):");
    for (name, w) in DefenseFeatures::NAMES.iter().zip(model.weights()) {
        println!("  {name:>26}: {w:+.3}");
    }

    let matrix = evaluate(&model, &test)?;
    println!("\nheld-out evaluation:");
    println!("  accuracy:            {:.2}", matrix.accuracy());
    println!("  detection rate (TPR): {:.2}", matrix.true_positive_rate());
    println!(
        "  false positives (FPR): {:.2}",
        matrix.false_positive_rate()
    );

    let roc = RocCurve::from_model(&model, &test)?;
    println!("  ROC AUC:             {:.3}", roc.auc);
    Ok(())
}
