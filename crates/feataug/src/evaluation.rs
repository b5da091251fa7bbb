//! Evaluating candidate features and augmented training tables with the downstream model.
//!
//! The paper's oracle is `L(A(D^q_train), D^q_valid)` (Problem 1): split the augmented training
//! table, train the downstream model on the train split and read its validation loss. This
//! module wraps that loop:
//!
//! * [`FeatureEvaluator`] holds the encoded base training table once and scores individual
//!   candidate feature vectors against it (used inside the search loop),
//! * [`evaluate_table`] scores an entire augmented table on a train/valid/test protocol (used to
//!   report the final numbers of the experiment tables).
//!
//! ## Loss memo
//!
//! Distinct queries often produce bit-identical feature vectors (`quantity <= 2.8` and
//! `quantity BETWEEN 1 AND 2.7` over an integer column), and TPE resamples configurations
//! that decode to a query it already scored. Training is deterministic and never reads the
//! column's name, so a vector's loss is fixed by its bits alone. [`FeatureEvaluator`]
//! therefore memoises [`FeatureEvaluator::loss_with_feature`]: the key is a 64-bit hash of the
//! vector's `f64` bits, every hit is confirmed by bitwise equality (so `0.0` and `-0.0`, or
//! two NaN payloads, are different keys), and a hit returns the stored loss without training.
//! Each entry trains through its own `OnceLock`, outside the memo's lock, so concurrent
//! callers with the same new vector train it once and the others wait for that loss. The memo
//! lives as long as the evaluator — one `fit` covers QTI, warm-up and search of every
//! template — and [`FeatureEvaluator::trainings`] / [`FeatureEvaluator::memo_hits`] count the
//! trainings run and avoided. [`FeatureEvaluator::result_with_features`] (several features at
//! once, used by the baselines) always trains.

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use feataug_ml::{evaluate, Dataset, EvalResult, ModelKind, Task};
use feataug_tabular::Table;

use crate::encoding::table_to_dataset;
use crate::exec::lock_recover;
use crate::problem::AugTask;

/// Default train/valid/test fractions (paper Section VII-A6: 0.6 / 0.2 / 0.2).
pub const SPLIT: (f64, f64) = (0.6, 0.2);

/// Scores candidate features by training the downstream model on
/// (base features + the candidate) and reading the validation metric.
///
/// Clones share the loss memo and its counters.
#[derive(Debug, Clone)]
pub struct FeatureEvaluator {
    base: Dataset,
    model: ModelKind,
    seed: u64,
    /// Memoized base validation loss. The base table never changes for the
    /// evaluator's lifetime, yet `base_loss` is consulted once per candidate
    /// that fails to materialise — without memoization each such candidate
    /// would retrain the downstream model from scratch.
    base_loss: OnceLock<f64>,
    memo: Arc<LossMemo>,
}

/// The loss memo behind [`FeatureEvaluator::loss_with_feature`], and the
/// evaluator's training counters.
#[derive(Debug, Default)]
struct LossMemo {
    /// Entries by the 64-bit hash of their vector's bits; a bucket holds every
    /// distinct vector with that hash.
    entries: Mutex<HashMap<u64, Vec<Arc<MemoEntry>>>>,
    trainings: AtomicUsize,
    hits: AtomicUsize,
}

/// One memoised candidate vector and, once trained, its validation loss.
#[derive(Debug)]
struct MemoEntry {
    values: Vec<f64>,
    loss: OnceLock<f64>,
}

impl LossMemo {
    /// The entry for `values`, inserted untrained when the memo has none.
    fn entry(&self, values: &[f64]) -> Arc<MemoEntry> {
        let mut hasher = DefaultHasher::new();
        hasher.write_usize(values.len());
        for v in values {
            hasher.write_u64(v.to_bits());
        }
        let mut entries = lock_recover(&self.entries);
        let bucket = entries.entry(hasher.finish()).or_default();
        let same_bits = |e: &&Arc<MemoEntry>| {
            e.values.len() == values.len()
                && e.values
                    .iter()
                    .zip(values)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        if let Some(entry) = bucket.iter().find(same_bits) {
            return Arc::clone(entry);
        }
        let entry = Arc::new(MemoEntry {
            values: values.to_vec(),
            loss: OnceLock::new(),
        });
        bucket.push(Arc::clone(&entry));
        entry
    }
}

impl FeatureEvaluator {
    /// Build an evaluator from the task's training table (key columns excluded from features).
    pub fn new(task: &AugTask, model: ModelKind, seed: u64) -> Self {
        let base = table_to_dataset(
            &task.train,
            &task.label_column,
            &task.key_columns,
            task.task,
        );
        FeatureEvaluator {
            base,
            model,
            seed,
            base_loss: OnceLock::new(),
            memo: Arc::default(),
        }
    }

    /// The downstream model kind this evaluator trains.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// The base dataset (without any generated features).
    pub fn base_dataset(&self) -> &Dataset {
        &self.base
    }

    /// Validation loss of the base table without any augmentation (lower is better).
    /// Trained once and memoized: the base table and split are fixed, so every
    /// later call returns the cached value.
    pub fn base_loss(&self) -> f64 {
        *self.base_loss.get_or_init(|| self.train(&self.base).loss)
    }

    /// Validation loss after appending one candidate feature vector (aligned with the training
    /// table's rows). Lower is better.
    ///
    /// Memoised by the vector's bits (see the module docs): a vector this evaluator already
    /// scored, under any name, returns its stored loss without training.
    pub fn loss_with_feature(&self, name: &str, values: &[f64]) -> f64 {
        let entry = self.memo.entry(values);
        let mut trained = false;
        let loss = *entry.loss.get_or_init(|| {
            trained = true;
            self.train(&self.base.with_feature(name, values)).loss
        });
        if !trained {
            self.memo.hits.fetch_add(1, Ordering::Relaxed);
        }
        loss
    }

    /// Validation result after appending several candidate features. Not memoised: every call
    /// trains.
    pub fn result_with_features(&self, features: &[(String, Vec<f64>)]) -> EvalResult {
        let mut data = Cow::Borrowed(&self.base);
        for (name, values) in features {
            data = Cow::Owned(data.with_feature(name.as_str(), values));
        }
        self.train(&data)
    }

    /// Downstream-model trainings this evaluator has run: the base table's, each
    /// [`FeatureEvaluator::loss_with_feature`] memo miss, and each
    /// [`FeatureEvaluator::result_with_features`] call.
    pub fn trainings(&self) -> usize {
        self.memo.trainings.load(Ordering::Relaxed)
    }

    /// [`FeatureEvaluator::loss_with_feature`] calls answered from the loss memo, each one a
    /// training avoided.
    pub fn memo_hits(&self) -> usize {
        self.memo.hits.load(Ordering::Relaxed)
    }

    /// The learning task being evaluated.
    pub fn task(&self) -> Task {
        self.base.task
    }

    /// Split `data` with the evaluator's seed, train on the train split and score the
    /// validation split.
    fn train(&self, data: &Dataset) -> EvalResult {
        self.memo.trainings.fetch_add(1, Ordering::Relaxed);
        let (train, valid) = data.split2(SPLIT.0 + SPLIT.1, self.seed);
        evaluate(self.model, &train, &valid)
    }
}

/// Train on 60%, validate on 20% and report the metric on the held-out 20% test split of an
/// augmented training table — the protocol behind the paper's result tables.
pub fn evaluate_table(
    augmented: &Table,
    label_column: &str,
    exclude: &[String],
    task: Task,
    model: ModelKind,
    seed: u64,
) -> EvalResult {
    let data = table_to_dataset(augmented, label_column, exclude, task);
    let (train, _valid, test) = data.split3(SPLIT.0, SPLIT.1, seed);
    // Final numbers are reported on the test split, with the model retrained on the train split
    // only. This is not yet the paper's protocol: the search did not validate on this validation
    // split. `FeatureEvaluator` validates on the last 20% of `split2(0.8, seed)`, the same
    // shuffle, so with equal seeds it validated on the rows scored here as the test split (up to
    // one row of rounding). ROADMAP item 1 moves the test rows out of the search.
    evaluate(model, &train, &test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feataug_ml::Metric;
    use feataug_tabular::Column;

    fn task() -> AugTask {
        let n = 300;
        let keys: Vec<String> = (0..n).map(|i| format!("u{i}")).collect();
        let ages: Vec<i64> = (0..n).map(|i| 20 + (i % 50) as i64).collect();
        let labels: Vec<i64> = (0..n).map(|i| (i % 2) as i64).collect();
        let mut train = Table::new("d");
        train.add_column("k", Column::from_strings(&keys)).unwrap();
        train.add_column("age", Column::from_i64s(&ages)).unwrap();
        train
            .add_column("label", Column::from_i64s(&labels))
            .unwrap();

        let mut relevant = Table::new("r");
        relevant
            .add_column("k", Column::from_strings(&keys))
            .unwrap();
        relevant
            .add_column("x", Column::from_f64s(&vec![1.0; n]))
            .unwrap();
        AugTask::new(
            train,
            relevant,
            vec!["k".into()],
            "label",
            Task::BinaryClassification,
        )
    }

    #[test]
    fn informative_feature_beats_base_loss() {
        let t = task();
        let evaluator = FeatureEvaluator::new(&t, ModelKind::Linear, 3);
        let base = evaluator.base_loss();
        let labels = t.labels().unwrap();
        let informative: Vec<f64> = labels.iter().map(|&y| y * 4.0 + 0.1).collect();
        let with = evaluator.loss_with_feature("good", &informative);
        assert!(
            with < base,
            "informative feature should lower the loss ({with} vs {base})"
        );
    }

    #[test]
    fn base_loss_is_trained_once_and_memoized() {
        let t = task();
        let evaluator = FeatureEvaluator::new(&t, ModelKind::Linear, 3);
        assert!(
            evaluator.base_loss.get().is_none(),
            "constructor must not train eagerly"
        );
        let first = evaluator.base_loss();
        assert_eq!(
            evaluator.base_loss.get().copied(),
            Some(first),
            "first call must populate the memo"
        );
        // Repeated calls (generate()'s phase 2 makes one per failed candidate)
        // read the memo instead of retraining.
        assert_eq!(evaluator.base_loss().to_bits(), first.to_bits());
        assert_eq!(evaluator.trainings(), 1);
        // Clones carry the memo with them.
        assert_eq!(evaluator.clone().base_loss.get().copied(), Some(first));
    }

    /// The memo returns exactly what a training returns, for every model kind: a new vector,
    /// a mostly-NaN one, `0.0` against `-0.0` (different bits, so different keys), and each
    /// of them again under another name.
    #[test]
    fn memoised_loss_is_bit_identical_to_a_training() {
        let t = task();
        let labels = t.labels().unwrap();
        let informative: Vec<f64> = labels
            .iter()
            .enumerate()
            .map(|(i, &y)| y * 3.0 + (i % 7) as f64 * 0.1)
            .collect();
        let mostly_nan: Vec<f64> = labels
            .iter()
            .enumerate()
            .map(|(i, &y)| if i % 10 == 0 { y } else { f64::NAN })
            .collect();
        let signed_zero = |zero: f64| -> Vec<f64> {
            labels
                .iter()
                .map(|&y| if y > 0.5 { 1.0 } else { zero })
                .collect()
        };
        let cases = [
            ("informative", informative),
            ("mostly_nan", mostly_nan),
            ("positive_zero", signed_zero(0.0)),
            ("negative_zero", signed_zero(-0.0)),
        ];
        for &kind in ModelKind::all() {
            let oracle = FeatureEvaluator::new(&t, kind, 3);
            let expected: Vec<u64> = cases
                .iter()
                .map(|(name, values)| {
                    oracle
                        .result_with_features(&[(name.to_string(), values.clone())])
                        .loss
                        .to_bits()
                })
                .collect();
            assert_eq!(oracle.trainings(), cases.len());
            assert_eq!(
                oracle.memo_hits(),
                0,
                "result_with_features is not memoised"
            );

            let evaluator = FeatureEvaluator::new(&t, kind, 3);
            for (i, ((name, values), bits)) in cases.iter().zip(&expected).enumerate() {
                let loss = evaluator.loss_with_feature(name, values);
                assert_eq!(loss.to_bits(), *bits, "{kind:?} {name}");
                assert_eq!(
                    evaluator.trainings(),
                    i + 1,
                    "{kind:?}: {name} is a new key"
                );
            }
            for ((name, values), bits) in cases.iter().zip(&expected) {
                let loss = evaluator.loss_with_feature(&format!("{name}_renamed"), values);
                assert_eq!(loss.to_bits(), *bits, "{kind:?} {name} renamed");
            }
            assert_eq!(evaluator.trainings(), cases.len(), "{kind:?}");
            assert_eq!(evaluator.memo_hits(), cases.len(), "{kind:?}");
        }
    }

    #[test]
    fn concurrent_callers_with_one_new_vector_train_it_once() {
        const CALLERS: usize = 4;
        let t = task();
        let evaluator = FeatureEvaluator::new(&t, ModelKind::Linear, 3);
        let values: Vec<f64> = t.labels().unwrap().iter().map(|&y| y + 0.5).collect();
        let barrier = std::sync::Barrier::new(CALLERS);
        let losses: Vec<u64> = std::thread::scope(|s| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|i| {
                    let (evaluator, values, barrier) = (&evaluator, &values, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        evaluator
                            .loss_with_feature(&format!("caller_{i}"), values)
                            .to_bits()
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("caller thread"))
                .collect()
        });
        assert!(losses.windows(2).all(|w| w[0] == w[1]), "{losses:?}");
        assert_eq!(evaluator.trainings(), 1);
        assert_eq!(evaluator.memo_hits(), CALLERS - 1);
    }

    #[test]
    fn noise_feature_does_not_dramatically_help() {
        let t = task();
        let evaluator = FeatureEvaluator::new(&t, ModelKind::Linear, 3);
        let noise: Vec<f64> = (0..t.train.num_rows())
            .map(|i| ((i * 37) % 23) as f64)
            .collect();
        let with = evaluator.loss_with_feature("noise", &noise);
        // For a balanced random label, AUC stays near 0.5 -> loss near -0.5.
        assert!(
            with > -0.75,
            "noise feature should not look great, got {with}"
        );
    }

    #[test]
    fn multiple_features_accumulate() {
        let t = task();
        let evaluator = FeatureEvaluator::new(&t, ModelKind::Linear, 3);
        let labels = t.labels().unwrap();
        let f1: Vec<f64> = labels.iter().map(|&y| y + 0.2).collect();
        let f2: Vec<f64> = labels.iter().map(|&y| 1.0 - y).collect();
        let result =
            evaluator.result_with_features(&[("a".to_string(), f1), ("b".to_string(), f2)]);
        assert_eq!(result.metric, Metric::Auc);
        assert!(result.value > 0.9);
    }

    #[test]
    fn evaluate_table_reports_test_metric() {
        let t = task();
        let result = evaluate_table(
            &t.train,
            "label",
            &t.key_columns,
            Task::BinaryClassification,
            ModelKind::Linear,
            7,
        );
        assert_eq!(result.metric, Metric::Auc);
        assert!((0.0..=1.0).contains(&result.value));
    }
}
