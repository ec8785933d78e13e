use recpipe_data::{ClickGenerator, ClickSample, DatasetSpec};

use crate::Dlrm;

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean BCE loss per epoch, in order.
    pub epoch_losses: Vec<f64>,
    /// Misclassification rate on the held-out set after training.
    pub holdout_error: f64,
    /// Number of training samples seen per epoch.
    pub samples_per_epoch: usize,
}

impl TrainReport {}

/// Trains a [`Dlrm`] on synthetic click data and evaluates holdout error —
/// the machinery behind the Figure 2 hyperparameter sweep.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use recpipe_data::{DatasetKind, DatasetSpec};
/// use recpipe_models::{Dlrm, ModelConfig, ModelKind, Trainer};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let cfg = ModelConfig::for_kind(ModelKind::RmSmall, DatasetKind::CriteoKaggle);
/// let mut model = Dlrm::new(&cfg, 200, &mut rng);
///
/// let spec = DatasetSpec::criteo_kaggle();
/// let trainer = Trainer::new(&spec, 200).samples_per_epoch(500).epochs(2);
/// let report = trainer.run(&mut model, 7);
/// assert_eq!(report.epoch_losses.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    spec: DatasetSpec,
    vocab: u32,
    epochs: usize,
    samples_per_epoch: usize,
    holdout_samples: usize,
    learning_rate: f32,
}

impl Trainer {
    /// Creates a trainer for the given dataset spec; `vocab` must match
    /// the model's embedding-table row count.
    pub fn new(spec: &DatasetSpec, vocab: u32) -> Self {
        Self {
            spec: spec.clone(),
            vocab,
            epochs: 3,
            samples_per_epoch: 2000,
            holdout_samples: 1000,
            learning_rate: 0.05,
        }
    }

    /// Sets the number of epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the number of samples per epoch.
    pub fn samples_per_epoch(mut self, n: usize) -> Self {
        self.samples_per_epoch = n;
        self
    }

    /// Sets the holdout evaluation size.
    pub fn holdout_samples(mut self, n: usize) -> Self {
        self.holdout_samples = n;
        self
    }

    /// Sets the SGD learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Runs training and holdout evaluation with the given seed.
    pub fn run(&self, model: &mut Dlrm, seed: u64) -> TrainReport {
        let mut gen = ClickGenerator::new(&self.spec, self.vocab, seed);
        let train: Vec<ClickSample> = gen.take_samples(self.samples_per_epoch);
        let holdout: Vec<ClickSample> = gen.take_samples(self.holdout_samples);

        let mut epoch_losses = Vec::with_capacity(self.epochs);
        for _ in 0..self.epochs {
            let mut total = 0.0f64;
            for s in &train {
                total +=
                    model.train_step(&s.dense, &s.sparse, s.clicked, self.learning_rate) as f64;
            }
            epoch_losses.push(total / train.len().max(1) as f64);
        }

        let mut wrong = 0usize;
        for s in &holdout {
            let p = model.predict(&s.dense, &s.sparse);
            let predicted = p > 0.5;
            if predicted != s.clicked {
                wrong += 1;
            }
        }
        TrainReport {
            epoch_losses,
            holdout_error: wrong as f64 / holdout.len().max(1) as f64,
            samples_per_epoch: train.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use recpipe_data::DatasetKind;

    fn quick_report(kind: ModelKind, seed: u64) -> TrainReport {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = ModelConfig::for_kind(kind, DatasetKind::CriteoKaggle);
        let mut model = Dlrm::new(&cfg, 300, &mut rng);
        let spec = DatasetSpec::criteo_kaggle();
        Trainer::new(&spec, 300)
            .epochs(3)
            .samples_per_epoch(1500)
            .holdout_samples(600)
            .run(&mut model, seed)
    }

    #[test]
    fn training_reduces_loss() {
        let report = quick_report(ModelKind::RmSmall, 1);
        let losses = &report.epoch_losses;
        assert!(losses[losses.len() - 1] < losses[0], "losses: {losses:?}");
    }

    #[test]
    fn holdout_error_beats_chance() {
        // The latent-factor data has learnable structure: a trained model
        // must beat the ~50% base rate comfortably.
        let report = quick_report(ModelKind::RmSmall, 2);
        assert!(
            report.holdout_error < 0.45,
            "holdout error {}",
            report.holdout_error
        );
    }

    #[test]
    fn report_counts_samples() {
        let report = quick_report(ModelKind::RmSmall, 3);
        assert_eq!(report.samples_per_epoch, 1500);
        assert_eq!(report.epoch_losses.len(), 3);
    }
}
