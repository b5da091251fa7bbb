//! Gradient-boosted decision trees with a second-order (XGBoost-style) objective.
//!
//! This is the paper's "XGB" downstream model. Each boosting round fits a regression tree to the
//! current gradients and hessians of the loss; leaf weights are `-G / (H + λ)` and predictions
//! accumulate with shrinkage. Binary classification uses the logistic loss, regression the
//! squared loss, and multi-class classification a one-vs-rest ensemble of binary boosters.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dataset::{Dataset, Matrix, Task};
use crate::metrics::sigmoid;
use crate::model::Model;
use crate::tree::{DecisionTree, SortedRuns, SplitCriterion, TreeConfig};

/// Boosting hyperparameters.
#[derive(Debug, Clone)]
pub struct GbdtConfig {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage / learning rate.
    pub learning_rate: f64,
    /// Per-tree growth configuration.
    pub tree: TreeConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            n_rounds: 40,
            learning_rate: 0.2,
            tree: TreeConfig {
                max_depth: 4,
                ..TreeConfig::default()
            },
            seed: 42,
        }
    }
}

/// One boosted ensemble for a single output (binary logit or regression target).
#[derive(Debug, Clone, Default)]
struct Booster {
    base_score: f64,
    trees: Vec<DecisionTree>,
}

impl Booster {
    fn raw_predict(&self, x: &Matrix, learning_rate: f64) -> Vec<f64> {
        let mut out = vec![self.base_score; x.rows()];
        for tree in &self.trees {
            for (o, p) in out.iter_mut().zip(tree.predict(x)) {
                *o += learning_rate * p;
            }
        }
        out
    }
}

/// A fitted gradient-boosting model.
#[derive(Debug, Clone)]
pub struct GradientBoosting {
    cfg: GbdtConfig,
    task: Task,
    boosters: Vec<Booster>,
    n_features: usize,
    fitted: bool,
}

impl GradientBoosting {
    /// Create an unfitted model.
    pub fn new(cfg: GbdtConfig) -> Self {
        GradientBoosting {
            cfg,
            task: Task::BinaryClassification,
            boosters: Vec::new(),
            n_features: 0,
            fitted: false,
        }
    }

    /// Total split-gain importance per feature across all trees, normalised to sum to 1.
    /// This backs the "FT + GBDT selector" baseline.
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut imp = vec![0.0; self.n_features];
        for b in &self.boosters {
            for tree in &b.trees {
                for (j, v) in tree.feature_importances().iter().enumerate() {
                    imp[j] += v;
                }
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for v in &mut imp {
                *v /= total;
            }
        }
        imp
    }

    /// Fit a single booster for a binary (0/1) or regression target.
    fn fit_single(&self, x: &Matrix, y: &[f64], binary: bool, seed: u64) -> Booster {
        let n = y.len();
        let base_score = if binary {
            // log-odds of the base rate, clipped away from the extremes
            let p = (y.iter().sum::<f64>() / n.max(1) as f64).clamp(1e-6, 1.0 - 1e-6);
            (p / (1.0 - p)).ln()
        } else {
            y.iter().sum::<f64>() / n.max(1) as f64
        };
        let mut booster = Booster {
            base_score,
            ..Booster::default()
        };

        let mut raw = vec![booster.base_score; n];
        // Every round grows on the same matrix, so its columns are sorted once.
        let runs = SortedRuns::new(x);
        for round in 0..self.cfg.n_rounds {
            let mut grad = vec![0.0; n];
            let mut hess = vec![0.0; n];
            for i in 0..n {
                if binary {
                    let p = sigmoid(raw[i]);
                    grad[i] = p - y[i];
                    hess[i] = (p * (1.0 - p)).max(1e-6);
                } else {
                    grad[i] = raw[i] - y[i];
                    hess[i] = 1.0;
                }
            }
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(round as u64));
            let mut tree = DecisionTree::new(SplitCriterion::Variance, self.cfg.tree.clone());
            tree.fit_grad_hess_sorted(x, &runs, &grad, &hess, &mut rng);
            let update = tree.predict(x);
            for i in 0..n {
                raw[i] += self.cfg.learning_rate * update[i];
            }
            booster.trees.push(tree);
        }
        booster
    }
}

impl Default for GradientBoosting {
    fn default() -> Self {
        Self::new(GbdtConfig::default())
    }
}

impl Model for GradientBoosting {
    fn fit(&mut self, data: &Dataset) {
        self.task = data.task;
        self.n_features = data.n_features();
        let mut train = data.clone();
        train.impute_mean();

        self.boosters.clear();
        match data.task {
            Task::Regression => {
                self.boosters
                    .push(self.fit_single(&train.x, &train.y, false, self.cfg.seed));
            }
            Task::BinaryClassification => {
                self.boosters
                    .push(self.fit_single(&train.x, &train.y, true, self.cfg.seed));
            }
            Task::MultiClassification { n_classes } => {
                for c in 0..n_classes {
                    let y: Vec<f64> = train
                        .y
                        .iter()
                        .map(|&v| if (v.round() as usize) == c { 1.0 } else { 0.0 })
                        .collect();
                    self.boosters.push(self.fit_single(
                        &train.x,
                        &y,
                        true,
                        self.cfg.seed.wrapping_add(1000 * c as u64),
                    ));
                }
            }
        }
        self.fitted = true;
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        assert!(self.fitted, "predict called before fit");
        match self.task {
            Task::Regression => self.boosters[0].raw_predict(x, self.cfg.learning_rate),
            Task::BinaryClassification => self.boosters[0]
                .raw_predict(x, self.cfg.learning_rate)
                .into_iter()
                .map(sigmoid)
                .collect(),
            Task::MultiClassification { .. } => {
                let scores: Vec<Vec<f64>> = self
                    .boosters
                    .iter()
                    .map(|b| b.raw_predict(x, self.cfg.learning_rate))
                    .collect();
                (0..x.rows())
                    .map(|i| {
                        scores
                            .iter()
                            .enumerate()
                            .map(|(c, s)| (c, s[i]))
                            .max_by(|a, b| a.1.total_cmp(&b.1))
                            .map(|(c, _)| c as f64)
                            .unwrap_or(0.0)
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, auc, rmse};

    #[test]
    fn gbdt_binary_solves_xor() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..300 {
            let a = (i % 20) as f64 / 20.0;
            let b = ((i / 20) % 15) as f64 / 15.0;
            rows.push(vec![a, b]);
            y.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
        }
        let data = Dataset::new(
            Matrix::from_rows(&rows),
            y.clone(),
            vec!["a".into(), "b".into()],
            Task::BinaryClassification,
        );
        let mut model = GradientBoosting::default();
        model.fit(&data);
        let probs = model.predict(&data.x);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
        assert!(auc(&y, &probs) > 0.97, "auc = {}", auc(&y, &probs));
    }

    #[test]
    fn gbdt_regression_beats_constant_predictor() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 20.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[0]).collect();
        let data = Dataset::new(
            Matrix::from_rows(&rows),
            y.clone(),
            vec!["x".into()],
            Task::Regression,
        );
        let mut model = GradientBoosting::default();
        model.fit(&data);
        let preds = model.predict(&data.x);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let baseline = rmse(&y, &vec![mean; y.len()]);
        assert!(rmse(&y, &preds) < baseline * 0.3);
    }

    #[test]
    fn gbdt_multiclass_one_vs_rest() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let c = i % 4;
            rows.push(vec![c as f64 * 3.0 + (i % 5) as f64 * 0.05]);
            y.push(c as f64);
        }
        let data = Dataset::new(
            Matrix::from_rows(&rows),
            y.clone(),
            vec!["x".into()],
            Task::MultiClassification { n_classes: 4 },
        );
        let mut model = GradientBoosting::default();
        model.fit(&data);
        let preds = model.predict(&data.x);
        assert!(accuracy(&y, &preds) > 0.95);
    }

    #[test]
    fn gbdt_importances_identify_signal_feature() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let signal = (i % 10) as f64;
            let noise = ((i * 13) % 7) as f64;
            rows.push(vec![noise, signal]);
            y.push(if signal > 4.5 { 1.0 } else { 0.0 });
        }
        let data = Dataset::new(
            Matrix::from_rows(&rows),
            y,
            vec!["noise".into(), "signal".into()],
            Task::BinaryClassification,
        );
        let mut model = GradientBoosting::default();
        model.fit(&data);
        let imp = model.feature_importances();
        assert!(imp[1] > imp[0]);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gbdt_deterministic_given_seed() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<f64> = (0..100).map(|i| ((i % 10) > 4) as u8 as f64).collect();
        let data = Dataset::new(
            Matrix::from_rows(&rows),
            y,
            vec!["a".into(), "b".into()],
            Task::BinaryClassification,
        );
        let mut m1 = GradientBoosting::default();
        let mut m2 = GradientBoosting::default();
        m1.fit(&data);
        m2.fit(&data);
        assert_eq!(m1.predict(&data.x), m2.predict(&data.x));
    }
}
