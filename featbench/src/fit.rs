//! The fit phase, and its traced replay.
//!
//! The timed run calls `fit_schema` as a user would. The traced run replays
//! the same fit through the library's public calls — path enumeration and
//! materialisation, template identification, the query codec, TPE, the
//! engine, the proxy and the downstream-model evaluator — with a span around
//! each call. The replay mirrors `fit_schema` → `FeatAug::fit` →
//! `QueryGenerator::generate` step for step, and is checked against the real
//! fit's selection (feature names and loss bits) before any per-layer number
//! is published.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use feataug::evaluation::{evaluate_table, FeatureEvaluator};
use feataug::exec::{QueryEngine, TableHandle};
use feataug::schema::{enumerate_paths, materialize_path};
use feataug::template_id::TemplateIdentifier;
use feataug::{
    AugPlan, AugTask, FeatAugConfig, PredicateQuery, QueryCodec, QueryTemplate, SchemaAugModel,
    SchemaTask,
};
use feataug_hpo::{Config, Optimizer, Tpe};
use feataug_tabular::{AggFunc, Column, Predicate, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;

/// A fit's selection: per promoted path, (feature name, loss bits) in plan
/// order, after cross-template dedup.
pub type Selection = Vec<Vec<(String, u64)>>;

pub fn selection_of(model: &SchemaAugModel) -> Selection {
    model
        .models()
        .iter()
        .map(|m| {
            m.queries()
                .iter()
                .map(|g| (g.feature_name.clone(), g.loss.to_bits()))
                .collect()
        })
        .collect()
}

/// Output checks of one fit. Returns the number of failed checks.
///
/// Each promoted plan must survive `to_plan_text` → `from_plan_text` →
/// `SchemaGraph::compile` and give a bit-identical `transform(train)`.
pub fn check_plans(task: &SchemaTask, model: &SchemaAugModel, train: &Table) -> usize {
    let mut failed = 0;
    for (fitted, plan) in model.models().iter().zip(model.plans()) {
        let parsed = match AugPlan::from_plan_text(&plan.to_plan_text()) {
            Ok(parsed) if parsed == plan => parsed,
            _ => {
                failed += 1;
                continue;
            }
        };
        let same = match (
            task.graph.compile(&task.train, parsed),
            fitted.transform(train),
        ) {
            (Ok(recompiled), Ok(expected)) => recompiled
                .transform(train)
                .map(|got| tables_bit_identical(&got, &expected))
                .unwrap_or(false),
            _ => false,
        };
        if !same {
            failed += 1;
        }
    }
    failed
}

/// Splits `test_auc` averages over: one split's test fold is a fifth of the
/// training rows, too few for a steady AUC on its own.
const AUC_SPLITS: u64 = 3;

/// Test-split metric of `transform(train)` under the fit's model kind, the
/// mean over `AUC_SPLITS` train/valid/test splits.
pub fn test_auc(
    task: &SchemaTask,
    cfg: &FeatAugConfig,
    model: &SchemaAugModel,
    train: &Table,
) -> f64 {
    let augmented = model
        .transform(train)
        .expect("transform the training table");
    let keys = &model.plans()[0].key_columns;
    let total: f64 = (0..AUC_SPLITS)
        .map(|i| {
            evaluate_table(
                &augmented,
                &task.label_column,
                keys,
                task.task,
                cfg.model,
                cfg.seed + i,
            )
            .value
        })
        .sum();
    total / AUC_SPLITS as f64
}

pub fn tables_bit_identical(a: &Table, b: &Table) -> bool {
    a.num_rows() == b.num_rows()
        && a.column_names() == b.column_names()
        && a.column_names()
            .iter()
            .all(|name| match (a.column(name), b.column(name)) {
                (Ok(Column::Float(x)), Ok(Column::Float(y))) => x
                    .iter()
                    .zip(y)
                    .all(|(p, q)| p.map(f64::to_bits) == q.map(f64::to_bits)),
                (Ok(x), Ok(y)) => x == y,
                _ => false,
            })
}

/// Counts taken at the layer boundaries during a replay.
#[derive(Default)]
pub struct Counters {
    pub template_nodes: usize,
    pub hpo_calls: usize,
    pub exec_calls: usize,
    pub exec_empty: usize,
    pub proxy_calls: usize,
    pub trainings: usize,
    /// Distinct trained inputs: distinct candidate vectors per evaluator,
    /// plus each base-table training.
    pub distinct_trainings: usize,
    pub schema_paths: usize,
    pub schema_promoted: usize,
}

/// Per-evaluator set of the candidate vectors trained on, keyed by a hash of
/// their bits and confirmed by equality.
#[derive(Default)]
struct TrainedVectors {
    by_hash: HashMap<u64, Vec<Vec<u64>>>,
}

impl TrainedVectors {
    /// Whether `values` is new to this set (and remember it).
    fn insert(&mut self, values: &[f64]) -> bool {
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        let mut hasher = DefaultHasher::new();
        bits.hash(&mut hasher);
        let bucket = self.by_hash.entry(hasher.finish()).or_default();
        if bucket.contains(&bits) {
            return false;
        }
        bucket.push(bits);
        true
    }
}

/// The replay's view of one promoted fit's evaluator.
struct Evaluator {
    inner: FeatureEvaluator,
    seen: TrainedVectors,
    base_trained: bool,
}

impl Evaluator {
    fn loss_with_feature(
        &mut self,
        tr: &mut Tracer,
        c: &mut Counters,
        name: &str,
        feature: &[f64],
    ) -> f64 {
        c.trainings += 1;
        if self.seen.insert(feature) {
            c.distinct_trainings += 1;
        }
        let inner = &self.inner;
        tr.leaf("evaluation", "loss_with_feature", || {
            inner.loss_with_feature(name, feature)
        })
    }

    fn base_loss(&mut self, tr: &mut Tracer, c: &mut Counters) -> f64 {
        // The evaluator memoizes the base loss: only the first call trains.
        if !self.base_trained {
            self.base_trained = true;
            c.trainings += 1;
            c.distinct_trainings += 1;
        }
        let inner = &self.inner;
        tr.leaf("evaluation", "base_loss", || inner.base_loss())
    }
}

/// `QueryEngine::feature` under a span; `None` when the candidate has no
/// finite value (or fails), exactly like the generator's `materialize`.
fn feature(
    tr: &mut Tracer,
    c: &mut Counters,
    engine: &QueryEngine<'_>,
    query: &PredicateQuery,
) -> Option<(String, Vec<f64>)> {
    c.exec_calls += 1;
    let out = tr.leaf("exec", "feature", || engine.feature(query)).ok();
    match out {
        Some((name, values)) if values.iter().any(|v| v.is_finite()) => Some((name, values)),
        _ => {
            c.exec_empty += 1;
            None
        }
    }
}

/// Replay `fit_schema(cfg, task)`, returning the selection it makes.
pub fn replay_fit_schema(
    cfg: &FeatAugConfig,
    task: &SchemaTask,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Selection {
    tr.begin_trace();
    let root = tr.enter("fit", "fit_schema");
    let train = task.graph.table(&task.train).expect("train table").clone();
    let labels: Vec<f64> = train
        .column(&task.label_column)
        .expect("label column")
        .to_f64_vec()
        .into_iter()
        .map(|v| v.unwrap_or(f64::NAN))
        .collect();
    let paths = tr
        .leaf("schema", "enumerate_paths", || {
            enumerate_paths(&task.graph, &task.train, task.max_hops)
        })
        .expect("enumerate paths");
    c.schema_paths += paths.len();

    // Proxy pass over every candidate view, as `fit_schema` scores paths.
    let mut scored = Vec::with_capacity(paths.len());
    for (index, path) in paths.into_iter().enumerate() {
        let view = tr
            .leaf("schema", "materialize_path", || {
                materialize_path(&task.graph, &path)
            })
            .expect("materialize path");
        let engine = QueryEngine::new_shared(train.clone(), view.clone());
        let mut best = f64::NEG_INFINITY;
        for query in probe_queries(&view, &path.base_keys) {
            c.exec_calls += 1;
            let (_, values) = tr
                .leaf("exec", "feature", || engine.feature(&query))
                .expect("probe feature");
            if !values.iter().any(|v| v.is_finite()) {
                c.exec_empty += 1;
            }
            c.proxy_calls += 1;
            let score = tr.leaf("proxy", "score", || {
                cfg.proxy.score(&values, &labels, task.task)
            });
            if score > best {
                best = score;
            }
        }
        scored.push((index, path, view, best));
    }
    scored.sort_by(|a, b| b.3.total_cmp(&a.3).then(a.0.cmp(&b.0)));

    let budget = task.path_budget.max(1).min(scored.len());
    let mut selection = Vec::with_capacity(budget);
    for (_, path, view, _) in scored.into_iter().take(budget) {
        c.schema_promoted += 1;
        let aug_task = AugTask::new(
            train.clone(),
            view.clone(),
            path.base_keys.clone(),
            task.label_column.clone(),
            task.task,
        )
        .with_agg_columns(present_in(&task.agg_columns, &view))
        .with_predicate_attrs(present_in(&task.predicate_attrs, &view));
        selection.push(replay_fit(cfg, &aug_task, tr, c));
    }
    tr.exit(root);
    selection
}

fn present_in(cols: &[String], view: &Table) -> Vec<String> {
    cols.iter()
        .filter(|c| view.column(c).is_ok())
        .cloned()
        .collect()
}

/// `fit_schema`'s path probes: COUNT over the key, and AVG of the first
/// numeric non-key column when there is one.
fn probe_queries(view: &Table, base_keys: &[String]) -> Vec<PredicateQuery> {
    let mut probes = Vec::with_capacity(2);
    let Some(first_key) = base_keys.first() else {
        return probes;
    };
    probes.push(PredicateQuery {
        agg: AggFunc::Count,
        agg_column: first_key.clone(),
        predicate: Predicate::True,
        group_keys: base_keys.to_vec(),
    });
    let payload = view
        .schema()
        .fields()
        .iter()
        .find(|f| f.dtype.is_numeric_like() && !base_keys.contains(&f.name));
    if let Some(field) = payload {
        probes.push(PredicateQuery {
            agg: AggFunc::Avg,
            agg_column: field.name.clone(),
            predicate: Predicate::True,
            group_keys: base_keys.to_vec(),
        });
    }
    probes
}

/// Replay `FeatAug::fit` on one task.
fn replay_fit(
    cfg: &FeatAugConfig,
    task: &AugTask,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Vec<(String, u64)> {
    task.validate().expect("valid task");
    let mut evaluator = Evaluator {
        inner: tr.leaf("evaluation", "new", || {
            FeatureEvaluator::new(task, cfg.model, cfg.seed)
        }),
        seen: TrainedVectors::default(),
        base_trained: false,
    };
    let engine = QueryEngine::with_handles(
        TableHandle::Shared(task.train.clone()),
        TableHandle::Shared(task.relevant.clone()),
    );
    assert!(
        cfg.enable_qti,
        "the benchmark fits with template identification on"
    );
    let mut ti_cfg = cfg.template_id.clone();
    ti_cfg.n_templates = cfg.n_templates;
    ti_cfg.proxy = cfg.proxy;
    let identifier = TemplateIdentifier::with_engine(
        task,
        &evaluator.inner,
        cfg.agg_funcs.clone(),
        ti_cfg,
        engine.clone(),
    );
    let (templates, _, nodes) = tr.leaf("template_id", "identify", || identifier.identify());
    c.template_nodes += nodes;

    let mut sql_cfg = cfg.sqlgen.clone();
    sql_cfg.enable_warmup = cfg.enable_warmup;
    sql_cfg.proxy = cfg.proxy;
    let labels = task.labels().expect("labels");
    let mut selection = Vec::new();
    let mut seen_names = HashSet::new();
    for scored in &templates {
        let generated = replay_generate(
            &sql_cfg,
            task,
            &labels,
            &mut evaluator,
            &engine,
            &scored.template,
            cfg.queries_per_template,
            tr,
            c,
        );
        for (name, loss) in generated {
            if seen_names.insert(name.clone()) {
                selection.push((name, loss.to_bits()));
            }
        }
    }
    selection
}

/// Replay `QueryGenerator::generate`: warm-up TPE on the proxy, real-model
/// scoring of the top proxy candidates, then warm-started TPE on the real
/// loss. Returns (feature name, loss) of the best `n_queries`.
#[allow(clippy::too_many_arguments)]
fn replay_generate(
    sql_cfg: &feataug::generation::SqlGenConfig,
    task: &AugTask,
    labels: &[f64],
    evaluator: &mut Evaluator,
    engine: &QueryEngine<'_>,
    template: &QueryTemplate,
    n_queries: usize,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Vec<(String, f64)> {
    let span = tr.enter("generation", "generate");
    let Ok(codec) = tr.leaf("generation", "codec.build", || {
        QueryCodec::build(template, &task.relevant)
    }) else {
        tr.exit(span);
        return Vec::new();
    };
    let mut rng = StdRng::seed_from_u64(sql_cfg.seed);
    let mut evaluated: Vec<(String, f64)> = Vec::new();
    let record = |evaluated: &mut Vec<(String, f64)>, name: String, loss: f64| {
        if !evaluated.iter().any(|(n, _)| *n == name) {
            evaluated.push((name, loss));
        }
    };

    let mut warm: Vec<(Config, f64)> = Vec::new();
    if sql_cfg.enable_warmup {
        let mut proxy_tpe = Tpe::new(codec.space().clone(), sql_cfg.tpe.clone());
        let mut trials: Vec<(Config, f64, String, Vec<f64>)> = Vec::new();
        for _ in 0..sql_cfg.warmup_iters {
            c.hpo_calls += 1;
            let config = tr.leaf("hpo", "suggest", || proxy_tpe.suggest(&mut rng));
            let query = tr.leaf("generation", "codec.decode", || codec.decode(&config));
            let proxy_loss = match feature(tr, c, engine, &query) {
                Some((name, values)) => {
                    c.proxy_calls += 1;
                    let loss = tr.leaf("proxy", "loss", || {
                        sql_cfg.proxy.loss(&values, labels, evaluator.inner.task())
                    });
                    trials.push((config.clone(), loss, name, values));
                    loss
                }
                None => 0.0,
            };
            c.hpo_calls += 1;
            tr.leaf("hpo", "observe", || proxy_tpe.observe(config, proxy_loss));
        }
        // `warmup_top_k`: best proxy loss first, distinct feature names.
        trials.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut kept: Vec<(Config, f64, String, Vec<f64>)> = Vec::new();
        for trial in trials {
            if kept.len() >= sql_cfg.warmup_top_k {
                break;
            }
            if !kept.iter().any(|k| k.2 == trial.2) {
                kept.push(trial);
            }
        }
        for (config, _, name, values) in kept {
            let loss = evaluator.loss_with_feature(tr, c, &name, &values);
            warm.push((config, loss));
            record(&mut evaluated, name, loss);
        }
    }

    let mut tpe = Tpe::new(codec.space().clone(), sql_cfg.tpe.clone());
    c.hpo_calls += 1;
    tr.leaf("hpo", "warm_start", || tpe.warm_start(warm));
    let real_iters = if sql_cfg.enable_warmup {
        sql_cfg.search_iters
    } else {
        sql_cfg.search_iters + sql_cfg.warmup_top_k
    };
    for _ in 0..real_iters {
        c.hpo_calls += 1;
        let config = tr.leaf("hpo", "suggest", || tpe.suggest(&mut rng));
        let query = tr.leaf("generation", "codec.decode", || codec.decode(&config));
        let loss = match feature(tr, c, engine, &query) {
            Some((name, values)) => {
                let loss = evaluator.loss_with_feature(tr, c, &name, &values);
                record(&mut evaluated, name, loss);
                loss
            }
            None => evaluator.base_loss(tr, c),
        };
        c.hpo_calls += 1;
        tr.leaf("hpo", "observe", || tpe.observe(config, loss));
    }
    evaluated.sort_by(|a, b| a.1.total_cmp(&b.1));
    evaluated.truncate(n_queries);
    tr.exit(span);
    evaluated
}
