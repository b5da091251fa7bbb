//! The SQL Query Generation component (paper Section V).
//!
//! Given a fixed [`QueryTemplate`], the component searches the template's query pool for the
//! queries whose generated feature minimises the downstream model's validation loss. The pool
//! is encoded as a hyperparameter space ([`QueryCodec`]) and searched with TPE in two rounds:
//!
//! 1. **Warm-up phase** — TPE optimises a low-cost proxy (mutual information by default) for
//!    [`SqlGenConfig::warmup_iters`] iterations; the top-[`SqlGenConfig::warmup_top_k`] proxy
//!    queries are then evaluated with the real model and used to seed the surrogate of the
//!    second round.
//! 2. **Query-generation phase** — a warm-started TPE optimises the real validation loss for
//!    [`SqlGenConfig::search_iters`] iterations.
//!
//! Disabling the warm-up (the paper's "NoWU" ablation) instead runs
//! `warmup_top_k + search_iters` iterations of plain TPE on the real objective, matching the
//! paper's fair-comparison protocol.
//!
//! Candidate queries are executed through a [`QueryEngine`] — by default a per-generator one,
//! but [`QueryGenerator::with_engine`] accepts a shared handle so the generator reuses the
//! group indexes, gather maps, column views and feature memo the Query Template Identification
//! component already compiled for the same `(train, relevant)` pair (the pipeline wires this
//! up). The engine's feature memo also absorbs TPE's near-duplicate resamples: a config that
//! decodes to an already-evaluated query skips the whole aggregation. The
//! [`FeatureEvaluator`]'s loss memo then skips the training too: a feature vector the
//! evaluator already scored, from this template or another, returns its stored loss.
//!
//! [`crate::FeatAug::fit`] searches its templates concurrently, each through its own
//! `generate` call on one shared generator. The searches share the engine's caches and the
//! evaluator's memo, both exact, and the pipeline merges their results in template order, so
//! the selection does not depend on the worker count.
//!
//! The warm-up's top-k selection deduplicates by feature name before ranking: TPE routinely
//! resamples configs that decode to the same query, and without the dedup each duplicate would
//! take one of the `warmup_top_k` slots, crowding a distinct seed out of the warm start.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use feataug_hpo::{Config, Optimizer, Tpe, TpeConfig};

use crate::evaluation::FeatureEvaluator;
use crate::exec::QueryEngine;
use crate::problem::AugTask;
use crate::proxy::LowCostProxy;
use crate::query::{PredicateQuery, QueryCodec};
use crate::template::QueryTemplate;

/// Configuration of the SQL Query Generation component.
#[derive(Debug, Clone)]
pub struct SqlGenConfig {
    /// TPE iterations spent on the low-cost proxy during the warm-up phase.
    pub warmup_iters: usize,
    /// Number of top proxy queries evaluated with the real model to seed the second phase.
    pub warmup_top_k: usize,
    /// TPE iterations spent on the real objective in the query-generation phase.
    pub search_iters: usize,
    /// Whether the warm-up phase runs at all (the "NoWU" ablation sets this to false).
    pub enable_warmup: bool,
    /// The low-cost proxy optimised during warm-up.
    pub proxy: LowCostProxy,
    /// TPE hyperparameters shared by both phases.
    pub tpe: TpeConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SqlGenConfig {
    fn default() -> Self {
        SqlGenConfig {
            warmup_iters: 60,
            warmup_top_k: 15,
            search_iters: 25,
            enable_warmup: true,
            proxy: LowCostProxy::MutualInformation,
            tpe: TpeConfig::default(),
            seed: 42,
        }
    }
}

impl SqlGenConfig {
    /// A smaller configuration for tests and quick examples.
    pub fn fast() -> Self {
        SqlGenConfig {
            warmup_iters: 25,
            warmup_top_k: 6,
            search_iters: 10,
            ..SqlGenConfig::default()
        }
    }
}

/// A query selected by the generation component, with its evaluation outcome.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    /// The predicate-aware SQL query.
    pub query: PredicateQuery,
    /// The real validation loss achieved when the query's feature is added (lower is better).
    pub loss: f64,
    /// Name of the feature column the query produces.
    pub feature_name: String,
    /// The feature values aligned with the training-table rows (NaN where unmatched).
    pub feature: Vec<f64>,
}

/// Wall-clock breakdown of one generation run (used by the scalability figures).
#[derive(Debug, Clone, Copy, Default)]
pub struct GenerationTiming {
    /// Time spent in the warm-up phase (proxy optimisation + seeding evaluations).
    pub warmup: Duration,
    /// Time spent in the query-generation phase (real-objective TPE).
    pub generate: Duration,
}

impl GenerationTiming {
    /// Total time of both phases.
    pub fn total(&self) -> Duration {
        self.warmup + self.generate
    }

    /// Accumulate another timing into this one.
    pub fn add(&mut self, other: &GenerationTiming) {
        self.warmup += other.warmup;
        self.generate += other.generate;
    }
}

/// The SQL Query Generation component.
pub struct QueryGenerator<'a, 'e> {
    task: &'a AugTask,
    evaluator: &'a FeatureEvaluator,
    cfg: SqlGenConfig,
    engine: QueryEngine<'e>,
}

impl<'a, 'e> QueryGenerator<'a, 'e> {
    /// Build a generator for one augmentation task. The execution engine is compiled lazily on
    /// the first candidate and its caches persist across every `generate` call on this
    /// generator.
    pub fn new(
        task: &'a AugTask,
        evaluator: &'a FeatureEvaluator,
        cfg: SqlGenConfig,
    ) -> QueryGenerator<'a, 'a> {
        QueryGenerator::with_engine(
            task,
            evaluator,
            cfg,
            QueryEngine::new(&task.train, &task.relevant),
        )
    }

    /// Build a generator that evaluates candidates through `engine` — a (clone of a) shared
    /// [`QueryEngine`] compiled over the *same* `(train, relevant)` pair as `task`, so the
    /// compiled group indexes, column views and memoized features of other components are
    /// reused instead of rebuilt. The engine's lifetime is independent of the task borrow
    /// (epoch-versioned engines are invariant in their table lifetime, so a `'static` engine
    /// must not be forced down to the task's).
    pub fn with_engine(
        task: &'a AugTask,
        evaluator: &'a FeatureEvaluator,
        cfg: SqlGenConfig,
        engine: QueryEngine<'e>,
    ) -> Self {
        QueryGenerator {
            task,
            evaluator,
            cfg,
            engine,
        }
    }

    /// The execution engine this generator evaluates candidates through.
    pub fn engine(&self) -> &QueryEngine<'e> {
        &self.engine
    }

    /// The configuration in use.
    pub fn config(&self) -> &SqlGenConfig {
        &self.cfg
    }

    /// Execute one decoded query and return its feature vector aligned with the training table
    /// (None when the query matched no rows at all or failed to execute).
    fn materialize(&self, query: &PredicateQuery) -> Option<(String, Vec<f64>)> {
        let (name, values) = self.engine.feature(query).ok()?;
        if values.iter().all(|v| !v.is_finite()) {
            return None;
        }
        Some((name, values))
    }

    /// Search the query pool of `template` and return the best `n_queries` distinct queries
    /// (sorted by ascending real validation loss), together with the timing breakdown.
    pub fn generate(
        &self,
        template: &QueryTemplate,
        n_queries: usize,
    ) -> (Vec<GeneratedQuery>, GenerationTiming) {
        let codec = match QueryCodec::build(template, &self.task.relevant) {
            Ok(c) => c,
            Err(_) => return (Vec::new(), GenerationTiming::default()),
        };
        // The pipeline validates the task before any component runs; a
        // stand-alone generator on a label-less task degrades to no queries.
        let Ok(labels) = self.task.labels() else {
            return (Vec::new(), GenerationTiming::default());
        };
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut timing = GenerationTiming::default();

        // Every really-evaluated candidate ends up here, keyed by feature name for dedup.
        let mut evaluated: Vec<GeneratedQuery> = Vec::new();
        let record = |evaluated: &mut Vec<GeneratedQuery>,
                      query: PredicateQuery,
                      name: String,
                      feature: Vec<f64>,
                      loss: f64| {
            if !evaluated.iter().any(|g| g.feature_name == name) {
                evaluated.push(GeneratedQuery {
                    query,
                    loss,
                    feature_name: name,
                    feature,
                });
            }
        };

        // ---- Phase 1: warm-up on the low-cost proxy -------------------------------------
        let mut warm_observations: Vec<(Config, f64)> = Vec::new();
        if self.cfg.enable_warmup {
            let start = Instant::now();
            let mut proxy_tpe = Tpe::new(codec.space().clone(), self.cfg.tpe.clone());
            let mut proxy_trials: Vec<ProxyTrial> = Vec::new();
            for _ in 0..self.cfg.warmup_iters {
                let config = proxy_tpe.suggest(&mut rng);
                let query = codec.decode(&config);
                let proxy_loss = match self.materialize(&query) {
                    Some((name, feature)) => {
                        let loss = self
                            .cfg
                            .proxy
                            .loss(&feature, &labels, self.evaluator.task());
                        proxy_trials.push((config.clone(), loss, query, name, feature));
                        loss
                    }
                    None => 0.0, // an empty feature is as good as no feature
                };
                proxy_tpe.observe(config, proxy_loss);
            }

            // Evaluate the top-k proxy queries with the real model and keep them as warm
            // observations for the second phase.
            let proxy_trials = warmup_top_k(proxy_trials, self.cfg.warmup_top_k);
            for (config, _proxy_loss, query, name, feature) in proxy_trials {
                let loss = self.evaluator.loss_with_feature(&name, &feature);
                warm_observations.push((config, loss));
                record(&mut evaluated, query, name, feature, loss);
            }
            timing.warmup = start.elapsed();
        }

        // ---- Phase 2: TPE on the real objective ------------------------------------------
        let start = Instant::now();
        let mut tpe = Tpe::new(codec.space().clone(), self.cfg.tpe.clone());
        tpe.warm_start(warm_observations);
        let real_iters = if self.cfg.enable_warmup {
            self.cfg.search_iters
        } else {
            // Fair-comparison protocol: the ablation spends the warm-up's evaluation budget on
            // additional plain TPE iterations instead.
            self.cfg.search_iters + self.cfg.warmup_top_k
        };
        for _ in 0..real_iters {
            let config = tpe.suggest(&mut rng);
            let query = codec.decode(&config);
            let loss = match self.materialize(&query) {
                Some((name, feature)) => {
                    let loss = self.evaluator.loss_with_feature(&name, &feature);
                    record(&mut evaluated, query, name, feature, loss);
                    loss
                }
                None => self.evaluator.base_loss(),
            };
            tpe.observe(config, loss);
        }
        timing.generate = start.elapsed();

        evaluated.sort_by(|a, b| a.loss.total_cmp(&b.loss));
        evaluated.truncate(n_queries);
        (evaluated, timing)
    }
}

/// One warm-up proxy trial: (config, proxy loss, decoded query, feature name, feature values).
type ProxyTrial = (Config, f64, PredicateQuery, String, Vec<f64>);

/// Rank the warm-up's proxy trials by ascending proxy loss and keep the best `k` with
/// *distinct* feature names.
///
/// TPE resamples configurations, and distinct configurations can decode to the same query, so
/// `trials` routinely holds several entries with one feature name. A plain
/// `sort + truncate(k)` would spend a slot of the warm-start budget on every duplicate — and
/// crowd a distinct seed out of the top-k — for zero extra information, since the duplicate's
/// feature (and therefore its real loss) is identical.
fn warmup_top_k(mut trials: Vec<ProxyTrial>, k: usize) -> Vec<ProxyTrial> {
    trials.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut out: Vec<ProxyTrial> = Vec::with_capacity(k.min(trials.len()));
    for trial in trials {
        if out.len() >= k {
            break;
        }
        if !out.iter().any(|kept| kept.3 == trial.3) {
            out.push(trial);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use feataug_datagen::{tmall, GenConfig};
    use feataug_ml::{ModelKind, Task};
    use feataug_tabular::AggFunc;

    fn tmall_task() -> AugTask {
        let ds = tmall::generate(&GenConfig {
            n_entities: 250,
            fanout: 8,
            n_noise_cols: 1,
            seed: 5,
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

    fn template(task: &AugTask) -> QueryTemplate {
        QueryTemplate::new(
            vec![AggFunc::Sum, AggFunc::Avg, AggFunc::Count, AggFunc::Max],
            task.resolved_agg_columns(),
            vec!["department".into(), "timestamp".into()],
            task.key_columns.clone(),
        )
    }

    fn trial(name: &str, proxy_loss: f64) -> ProxyTrial {
        let query = PredicateQuery {
            agg: AggFunc::Sum,
            agg_column: "x".into(),
            predicate: feataug_tabular::Predicate::True,
            group_keys: vec!["k".into()],
        };
        (Vec::new(), proxy_loss, query, name.to_string(), vec![1.0])
    }

    /// Regression: TPE resamples configs decoding to the same query, and the warm-up's top-k
    /// must not spend its real-model budget on those duplicates (or let them crowd distinct
    /// seeds out of the warm start).
    #[test]
    fn warmup_top_k_dedups_by_feature_name_before_truncating() {
        let trials = vec![
            trial("f_a", -0.9),
            trial("f_a", -0.8), // duplicate of the best query under another config
            trial("f_b", -0.7),
            trial("f_a", -0.6), // and another
            trial("f_c", -0.5),
            trial("f_d", -0.4),
        ];
        let kept = warmup_top_k(trials, 3);
        let names: Vec<&str> = kept.iter().map(|t| t.3.as_str()).collect();
        // Distinct names, best proxy loss first; f_c replaces the duplicates
        // that sort+truncate(3) would have kept.
        assert_eq!(names, vec!["f_a", "f_b", "f_c"]);
        assert!(kept.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn warmup_top_k_handles_fewer_distinct_names_than_k() {
        let kept = warmup_top_k(vec![trial("f_a", -0.2), trial("f_a", -0.1)], 5);
        assert_eq!(kept.len(), 1);
        assert_eq!(
            kept[0].1, -0.2,
            "the duplicate kept must be the best-ranked one"
        );
    }

    #[test]
    fn generates_ranked_distinct_queries() {
        let task = tmall_task();
        let evaluator = FeatureEvaluator::new(&task, ModelKind::Linear, 3);
        let gen = QueryGenerator::new(&task, &evaluator, SqlGenConfig::fast());
        let (queries, timing) = gen.generate(&template(&task), 5);
        assert!(!queries.is_empty());
        assert!(queries.len() <= 5);
        // Sorted by ascending loss.
        for w in queries.windows(2) {
            assert!(w[0].loss <= w[1].loss);
        }
        // Distinct feature names.
        let mut names: Vec<&str> = queries.iter().map(|q| q.feature_name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), queries.len());
        assert!(timing.total() > Duration::from_nanos(0));
    }

    #[test]
    fn best_query_beats_base_model() {
        let task = tmall_task();
        let evaluator = FeatureEvaluator::new(&task, ModelKind::Linear, 3);
        let gen = QueryGenerator::new(&task, &evaluator, SqlGenConfig::fast());
        let (queries, _) = gen.generate(&template(&task), 3);
        let base = evaluator.base_loss();
        assert!(
            queries[0].loss < base,
            "best generated query ({}) should beat the base loss ({base})",
            queries[0].loss
        );
    }

    #[test]
    fn warmup_records_timing_and_nowu_does_not() {
        let task = tmall_task();
        let evaluator = FeatureEvaluator::new(&task, ModelKind::Linear, 3);

        let with = QueryGenerator::new(&task, &evaluator, SqlGenConfig::fast());
        let (_, t_with) = with.generate(&template(&task), 2);
        assert!(t_with.warmup > Duration::from_nanos(0));

        let cfg = SqlGenConfig {
            enable_warmup: false,
            ..SqlGenConfig::fast()
        };
        let without = QueryGenerator::new(&task, &evaluator, cfg);
        let (queries, t_without) = without.generate(&template(&task), 2);
        assert_eq!(t_without.warmup, Duration::from_nanos(0));
        assert!(!queries.is_empty());
    }

    #[test]
    fn empty_predicate_template_still_works() {
        let task = tmall_task();
        let evaluator = FeatureEvaluator::new(&task, ModelKind::Linear, 3);
        let gen = QueryGenerator::new(&task, &evaluator, SqlGenConfig::fast());
        let t = QueryTemplate::without_predicates(
            vec![AggFunc::Avg, AggFunc::Count],
            task.resolved_agg_columns(),
            task.key_columns.clone(),
        );
        let (queries, _) = gen.generate(&t, 3);
        assert!(!queries.is_empty());
        assert!(queries.iter().all(|q| q.query.predicate.is_trivial()));
    }
}
