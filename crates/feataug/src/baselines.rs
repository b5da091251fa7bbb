//! The comparison methods of the paper's evaluation (Section VII-A3).
//!
//! * [`featuretools_augment`] — Featuretools (DFS) alone, or combined with one of the seven
//!   feature selectors ("FT", "FT+LR", "FT+GBDT", "FT+MI", "FT+Chi2", "FT+Gini", "FT+Forward",
//!   "FT+Backward").
//! * [`random_augment`] — the "Random" baseline: random templates, random queries, no search.
//! * [`arda_augment`] — an ARDA-style random-injection feature selection for one-to-one
//!   relationship tables.
//! * [`autofeature_augment`] — an AutoFeature-style reinforcement-learning feature picker
//!   (multi-armed-bandit and ε-greedy Q-learning variants).
//!
//! Every function returns an augmented training table; the experiment harness evaluates all of
//! them with the same protocol ([`crate::evaluation::evaluate_table`]).
//!
//! The query-evaluating baselines (DFS candidates, Random) materialise their candidate pools
//! through [`QueryEngine::evaluate_batch`], and each has a `*_with_engine` variant accepting a
//! shared engine handle so harnesses running several baselines against one task compile the
//! `(train, relevant)` pair once.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use feataug_featuretools::{enumerate_features, DfsConfig};
use feataug_fsel::FeatureSelector;
use feataug_ml::{Dataset, Matrix, ModelKind};
use feataug_tabular::join::{is_unique_key, left_join};
use feataug_tabular::{AggFunc, Column, Predicate, Table};

use crate::encoding::feature_vector;
use crate::evaluation::FeatureEvaluator;
use crate::exec::QueryEngine;
use crate::problem::AugTask;
use crate::query::{PredicateQuery, QueryCodec};
use crate::template::QueryTemplate;

/// Build the candidate feature pool for selector-style baselines: every DFS feature, evaluated
/// through the given [`QueryEngine`] (one shared group index, no join, the whole pool fanned
/// across the engine's worker threads) and attached to the training table. Returns
/// (augmented table, feature names).
fn dfs_candidates(
    task: &AugTask,
    cfg: &DfsConfig,
    engine: &QueryEngine<'_>,
) -> (Table, Vec<String>) {
    let keys = task.keys();
    let agg_cols = task.resolved_agg_columns();
    let agg_refs: Vec<&str> = agg_cols.iter().map(|s| s.as_str()).collect();
    let features = enumerate_features(&task.relevant, &agg_refs, cfg);
    if features.is_empty() {
        return ((*task.train).clone(), Vec::new());
    }
    let queries: Vec<PredicateQuery> = features
        .iter()
        .map(|feature| PredicateQuery {
            agg: feature.agg,
            agg_column: feature.column.clone(),
            predicate: Predicate::True,
            group_keys: keys.iter().map(|k| k.to_string()).collect(),
        })
        .collect();
    let mut augmented = (*task.train).clone();
    let mut names = Vec::with_capacity(features.len());
    for (feature, values) in features.into_iter().zip(engine.evaluate_batch(&queries)) {
        let values = values.expect("materialising DFS features");
        let column = Column::from_opt_f64s(&values);
        if augmented.add_column(feature.name.clone(), column).is_ok() {
            names.push(feature.name);
        }
    }
    (augmented, names)
}

/// Dataset view over a set of candidate feature columns of an augmented table (used to run the
/// feature selectors).
fn candidate_dataset(task: &AugTask, augmented: &Table, names: &[String]) -> Dataset {
    // The baseline entry points don't run `AugTask::validate`, so a missing
    // label must still fail loudly here — scoring selectors against a
    // fabricated label vector would silently return garbage selections.
    let labels = task
        .labels()
        .unwrap_or_else(|e| panic!("baseline on an invalid task: {e}"));
    let rows: Vec<Vec<f64>> = (0..augmented.num_rows())
        .map(|i| {
            names
                .iter()
                .map(|n| match augmented.value(i, n) {
                    Ok(v) => v.as_f64().unwrap_or(f64::NAN),
                    Err(_) => f64::NAN,
                })
                .collect()
        })
        .collect();
    Dataset::new(
        Matrix::from_rows(&rows),
        labels
            .iter()
            .map(|v| if v.is_finite() { *v } else { 0.0 })
            .collect(),
        names.to_vec(),
        task.task,
    )
}

/// Keep only the base training columns plus the named feature columns.
fn project_features(task: &AugTask, augmented: &Table, keep: &[String]) -> Table {
    let mut out = (*task.train).clone();
    for name in keep {
        if let Ok(col) = augmented.column(name) {
            let _ = out.add_column(name.clone(), col.clone());
        }
    }
    out
}

/// Featuretools baseline: materialise DFS features and keep `n_features` of them — the first
/// `n_features` in enumeration order when `selector` is `None` (plain "FT"), or the ones chosen
/// by the given selector ("FT+X").
pub fn featuretools_augment(
    task: &AugTask,
    n_features: usize,
    selector: Option<&dyn FeatureSelector>,
    dfs: &DfsConfig,
) -> Table {
    let engine = QueryEngine::new(&task.train, &task.relevant);
    featuretools_augment_with_engine(task, n_features, selector, dfs, &engine)
}

/// [`featuretools_augment`] evaluating through a shared [`QueryEngine`] compiled over the same
/// `(train, relevant)` pair as `task` — harnesses that run several baselines against one task
/// pass one engine so the DFS group index and column views are compiled once.
pub fn featuretools_augment_with_engine(
    task: &AugTask,
    n_features: usize,
    selector: Option<&dyn FeatureSelector>,
    dfs: &DfsConfig,
    engine: &QueryEngine<'_>,
) -> Table {
    let (augmented, names) = dfs_candidates(task, dfs, engine);
    if names.is_empty() {
        return augmented;
    }
    let keep: Vec<String> = match selector {
        None => names.iter().take(n_features).cloned().collect(),
        Some(sel) => {
            let data = candidate_dataset(task, &augmented, &names);
            sel.select(&data, n_features)
                .into_iter()
                .map(|i| names[i].clone())
                .collect()
        }
    };
    project_features(task, &augmented, &keep)
}

/// The "Random" baseline: choose `n_templates` random attribute combinations, sample
/// `queries_per_template` random queries from each pool, and attach whatever features they
/// produce — no model in the loop.
pub fn random_augment(
    task: &AugTask,
    agg_funcs: &[AggFunc],
    n_templates: usize,
    queries_per_template: usize,
    seed: u64,
) -> Table {
    let engine = QueryEngine::new(&task.train, &task.relevant);
    random_augment_with_engine(
        task,
        agg_funcs,
        n_templates,
        queries_per_template,
        seed,
        &engine,
    )
}

/// [`random_augment`] evaluating through a shared [`QueryEngine`] compiled over the same
/// `(train, relevant)` pair as `task`. Each template's random queries are sampled first (so the
/// RNG stream matches the serial formulation) and materialised in one batch fan-out.
pub fn random_augment_with_engine(
    task: &AugTask,
    agg_funcs: &[AggFunc],
    n_templates: usize,
    queries_per_template: usize,
    seed: u64,
    engine: &QueryEngine<'_>,
) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let attrs = task.resolved_predicate_attrs();
    let mut augmented = (*task.train).clone();

    for _ in 0..n_templates {
        // Random non-empty subset of the candidate attributes (at most 4 to keep pools sane).
        let mut shuffled = attrs.clone();
        shuffled.shuffle(&mut rng);
        let size = rng.gen_range(1..=shuffled.len().min(4));
        let combo: Vec<String> = shuffled.into_iter().take(size).collect();
        let template = QueryTemplate::new(
            agg_funcs.to_vec(),
            task.resolved_agg_columns(),
            combo,
            task.key_columns.clone(),
        );
        let Ok(codec) = QueryCodec::build(&template, &task.relevant) else {
            continue;
        };
        let queries: Vec<PredicateQuery> = (0..queries_per_template)
            .map(|_| codec.decode(&codec.space().sample(&mut rng)))
            .collect();
        for (query, values) in queries.iter().zip(engine.evaluate_batch(&queries)) {
            if let Ok(values) = values {
                // Non-finite aggregates count as missing, like the NULLs.
                let values: Vec<Option<f64>> =
                    values.iter().map(|v| v.filter(|x| x.is_finite())).collect();
                let _ = augmented.add_column(query.feature_name(), Column::from_opt_f64s(&values));
            }
        }
    }
    augmented
}

/// Candidate features for the one-to-one baselines: the relevant table's non-key columns joined
/// directly onto the training table (ARDA / AutoFeature assume direct joinability). When the
/// relationship is one-to-many the DFS aggregates are used as candidates instead.
fn direct_candidates(task: &AugTask) -> (Table, Vec<String>) {
    let keys = task.keys();
    if is_unique_key(&task.relevant, &keys).unwrap_or(false) {
        let augmented =
            left_join(&task.train, &task.relevant, &keys, &keys).expect("one-to-one join");
        let names: Vec<String> = augmented
            .column_names()
            .into_iter()
            .filter(|c| task.train.schema().index_of(c).is_none())
            .map(|s| s.to_string())
            .collect();
        (augmented, names)
    } else {
        let dfs = DfsConfig {
            agg_funcs: vec![
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Count,
                AggFunc::Max,
                AggFunc::Min,
            ],
            ..DfsConfig::default()
        };
        let engine = QueryEngine::new(&task.train, &task.relevant);
        dfs_candidates(task, &dfs, &engine)
    }
}

/// ARDA-style baseline: rank candidate features by a model-importance score estimated against
/// injected random-noise probes, and keep the features that beat the strongest probe (up to
/// `n_features`).
pub fn arda_augment(task: &AugTask, n_features: usize, model: ModelKind, seed: u64) -> Table {
    let (augmented, names) = direct_candidates(task);
    if names.is_empty() {
        return augmented;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let data = candidate_dataset(task, &augmented, &names);

    // Inject random-noise probe features.
    let n_probes = 3.min(names.len().max(1));
    let mut with_probes = data.clone();
    for p in 0..n_probes {
        let noise: Vec<f64> = (0..data.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        with_probes = with_probes.with_feature(format!("__probe_{p}"), &noise);
    }

    // Importance via the model family's native scores (forest importances cover tree models,
    // absolute weights cover linear models).
    let scores = match model {
        ModelKind::Linear | ModelKind::DeepFm => {
            feataug_fsel::ScoreSelector::new(feataug_fsel::ScoringMethod::LinearImportance)
                .scores(&with_probes)
        }
        _ => feataug_fsel::ScoreSelector::new(feataug_fsel::ScoringMethod::ForestImportance)
            .scores(&with_probes),
    };
    let probe_max = scores[names.len()..].iter().copied().fold(0.0f64, f64::max);
    let mut ranked: Vec<(usize, f64)> = scores[..names.len()]
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, s)| *s > probe_max)
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let keep: Vec<String> = ranked
        .into_iter()
        .take(n_features)
        .map(|(i, _)| names[i].clone())
        .collect();
    // ARDA keeps at least something: fall back to the top-scoring features if the probe
    // threshold filtered everything out.
    let keep = if keep.is_empty() {
        let mut order: Vec<usize> = (0..names.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        order
            .into_iter()
            .take(n_features)
            .map(|i| names[i].clone())
            .collect()
    } else {
        keep
    };
    project_features(task, &augmented, &keep)
}

/// The exploration strategy of the AutoFeature-style baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoFeatureStrategy {
    /// Upper-confidence-bound multi-armed bandit over candidate features ("AutoFeat-MAB").
    Mab,
    /// ε-greedy value learning over candidate features ("AutoFeat-DQN").
    Dqn,
}

/// AutoFeature-style baseline: iteratively add the candidate feature chosen by a bandit / value
/// learner whose reward is the improvement in validation performance, until `n_features` are
/// selected.
pub fn autofeature_augment(
    task: &AugTask,
    n_features: usize,
    model: ModelKind,
    strategy: AutoFeatureStrategy,
    seed: u64,
) -> Table {
    let (augmented, names) = direct_candidates(task);
    if names.is_empty() {
        return augmented;
    }
    let evaluator = FeatureEvaluator::new(task, model, seed);
    let mut rng = StdRng::seed_from_u64(seed);

    // Candidate feature vectors aligned with the training table.
    let vectors: Vec<Vec<f64>> = names
        .iter()
        .map(|n| feature_vector(&augmented, n))
        .collect();

    let n_arms = names.len();
    let mut values = vec![0.0f64; n_arms]; // estimated reward per arm
    let mut counts = vec![0usize; n_arms];
    let mut selected: Vec<usize> = Vec::new();
    let mut current_loss = evaluator.base_loss();

    let budget = (n_features * 2).min(n_arms.max(1) * 2);
    for step in 0..budget {
        if selected.len() >= n_features.min(n_arms) {
            break;
        }
        // Pick the next arm among the not-yet-selected candidates.
        let available: Vec<usize> = (0..n_arms).filter(|i| !selected.contains(i)).collect();
        if available.is_empty() {
            break;
        }
        let arm = match strategy {
            AutoFeatureStrategy::Mab => {
                // UCB1 over available arms.
                *available
                    .iter()
                    .max_by(|&&a, &&b| {
                        let ucb = |i: usize| {
                            if counts[i] == 0 {
                                f64::INFINITY
                            } else {
                                values[i]
                                    + (2.0 * ((step + 1) as f64).ln() / counts[i] as f64).sqrt()
                            }
                        };
                        ucb(a).total_cmp(&ucb(b))
                    })
                    .expect("available is non-empty")
            }
            AutoFeatureStrategy::Dqn => {
                // ε-greedy over the learned values.
                if rng.gen::<f64>() < 0.3 {
                    available[rng.gen_range(0..available.len())]
                } else {
                    *available
                        .iter()
                        .max_by(|&&a, &&b| values[a].total_cmp(&values[b]))
                        .expect("available is non-empty")
                }
            }
        };

        // Reward: validation-loss improvement when adding this feature to the selected set.
        let mut features: Vec<(String, Vec<f64>)> = selected
            .iter()
            .map(|&i| (names[i].clone(), vectors[i].clone()))
            .collect();
        features.push((names[arm].clone(), vectors[arm].clone()));
        let loss = evaluator.result_with_features(&features).loss;
        let reward = current_loss - loss;

        counts[arm] += 1;
        let lr = 1.0 / counts[arm] as f64;
        values[arm] += lr * (reward - values[arm]);

        if reward > 0.0 {
            selected.push(arm);
            current_loss = loss;
        }
    }

    // If the greedy process selected fewer than requested, top up with the best-valued arms.
    if selected.len() < n_features.min(n_arms) {
        let mut order: Vec<usize> = (0..n_arms).filter(|i| !selected.contains(i)).collect();
        order.sort_by(|&a, &b| values[b].total_cmp(&values[a]));
        for arm in order {
            if selected.len() >= n_features.min(n_arms) {
                break;
            }
            selected.push(arm);
        }
    }

    let keep: Vec<String> = selected.into_iter().map(|i| names[i].clone()).collect();
    project_features(task, &augmented, &keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feataug_datagen::{covtype, tmall, GenConfig};
    use feataug_fsel::{ScoreSelector, ScoringMethod};
    use feataug_ml::Task;

    fn tmall_task() -> AugTask {
        let ds = tmall::generate(&GenConfig {
            n_entities: 150,
            fanout: 6,
            n_noise_cols: 1,
            seed: 11,
        });
        AugTask::new(
            ds.train,
            ds.relevant,
            ds.key_columns,
            ds.label_column,
            Task::BinaryClassification,
        )
        .with_agg_columns(ds.agg_columns)
        .with_predicate_attrs(ds.predicate_attrs)
    }

    fn covtype_task() -> AugTask {
        let ds = covtype::generate(&GenConfig::tiny());
        AugTask::new(
            ds.train,
            ds.relevant,
            ds.key_columns,
            ds.label_column,
            Task::MultiClassification { n_classes: 4 },
        )
        .with_agg_columns(ds.agg_columns)
        .with_predicate_attrs(ds.predicate_attrs)
    }

    fn small_dfs() -> DfsConfig {
        DfsConfig {
            agg_funcs: vec![AggFunc::Sum, AggFunc::Avg, AggFunc::Count],
            ..DfsConfig::default()
        }
    }

    #[test]
    fn featuretools_plain_truncates_in_order() {
        let task = tmall_task();
        let out = featuretools_augment(&task, 4, None, &small_dfs());
        assert_eq!(out.num_columns(), task.train.num_columns() + 4);
        assert_eq!(out.num_rows(), task.train.num_rows());
    }

    #[test]
    fn featuretools_with_selector_picks_requested_count() {
        let task = tmall_task();
        let selector = ScoreSelector::new(ScoringMethod::MutualInformation);
        let out = featuretools_augment(&task, 3, Some(&selector), &small_dfs());
        assert_eq!(out.num_columns(), task.train.num_columns() + 3);
    }

    #[test]
    fn random_baseline_attaches_some_features() {
        let task = tmall_task();
        let out = random_augment(&task, &[AggFunc::Sum, AggFunc::Avg], 3, 2, 5);
        assert!(out.num_columns() > task.train.num_columns());
        assert_eq!(out.num_rows(), task.train.num_rows());
        // Deterministic given the seed.
        let again = random_augment(&task, &[AggFunc::Sum, AggFunc::Avg], 3, 2, 5);
        assert_eq!(out.column_names(), again.column_names());
    }

    #[test]
    fn arda_selects_features_on_one_to_one_data() {
        let task = covtype_task();
        let out = arda_augment(&task, 5, ModelKind::RandomForest, 3);
        assert!(out.num_columns() > task.train.num_columns());
        assert!(out.num_columns() <= task.train.num_columns() + 5);
    }

    #[test]
    fn autofeature_variants_select_features() {
        let task = covtype_task();
        for strategy in [AutoFeatureStrategy::Mab, AutoFeatureStrategy::Dqn] {
            let out = autofeature_augment(&task, 4, ModelKind::Linear, strategy, 3);
            assert!(
                out.num_columns() > task.train.num_columns(),
                "{strategy:?} selected nothing"
            );
            assert!(out.num_columns() <= task.train.num_columns() + 4);
        }
    }

    #[test]
    fn arda_works_on_one_to_many_via_dfs_candidates() {
        let task = tmall_task();
        let out = arda_augment(&task, 4, ModelKind::Linear, 3);
        assert!(out.num_columns() > task.train.num_columns());
    }
}
