//! One `QueryEngine` per `(train, relevant)` pair, shared across every component that
//! evaluates candidate queries against it: Query Template Identification, SQL Query
//! Generation, and the DFS/Random baselines. The engine's `stats()` counters make the
//! cross-component cache reuse observable — these tests pin that behaviour down.

use feataug::baselines::{featuretools_augment_with_engine, random_augment_with_engine};
use feataug::evaluation::FeatureEvaluator;
use feataug::generation::{QueryGenerator, SqlGenConfig};
use feataug::template_id::{TemplateIdConfig, TemplateIdentifier};
use feataug::{FeatAug, FeatAugConfig, FeatAugResult, QueryEngine};
use feataug_datagen::GenConfig;
use feataug_featuretools::DfsConfig;
use feataug_ml::ModelKind;
use feataug_repro::to_aug_task;
use feataug_tabular::AggFunc;

fn tmall_task() -> feataug::AugTask {
    let ds = feataug_datagen::tmall::generate(&GenConfig {
        n_entities: 200,
        fanout: 8,
        n_noise_cols: 1,
        seed: 5,
    });
    to_aug_task(&ds)
}

/// The acceptance shape of the shared-engine refactor: QTI compiles the group indexes and
/// column views while scoring beam nodes; generation and the baselines then evaluate through
/// the same engine and reuse them instead of recompiling.
#[test]
fn one_engine_serves_qti_generation_and_baselines() {
    let task = tmall_task();
    let evaluator = FeatureEvaluator::new(&task, ModelKind::Linear, 3);
    let engine = QueryEngine::new(&task.train, &task.relevant);

    // ---- Component 1: Query Template Identification -------------------------------------
    let identifier = TemplateIdentifier::with_engine(
        &task,
        &evaluator,
        vec![AggFunc::Sum, AggFunc::Avg, AggFunc::Count],
        TemplateIdConfig::fast(),
        engine.clone(),
    );
    let (templates, _, _) = identifier.identify();
    assert!(!templates.is_empty());
    let after_qti = engine.stats();
    assert!(
        after_qti.evaluations > 0,
        "QTI must evaluate through the shared engine"
    );
    assert!(after_qti.group_indexes >= 1 && after_qti.column_views >= 1);

    // ---- Component 2: SQL Query Generation -----------------------------------------------
    let generator =
        QueryGenerator::with_engine(&task, &evaluator, SqlGenConfig::fast(), engine.clone());
    let (queries, _) = generator.generate(&templates[0].template, 2);
    assert!(!queries.is_empty());
    let after_gen = engine.stats();
    assert!(
        after_gen.evaluations > after_qti.evaluations,
        "generation must evaluate through the same engine ({after_gen:?})"
    );
    // The tmall foreign key has 2 attributes -> at most 3 group-key subsets exist; had
    // generation compiled its own engine the per-run subset count would restart from zero.
    assert!(
        after_gen.group_indexes <= 3,
        "components must reuse compiled group indexes, not rebuild them ({after_gen:?})"
    );

    // ---- Baselines through the same engine ------------------------------------------------
    let dfs = DfsConfig {
        agg_funcs: vec![AggFunc::Sum, AggFunc::Avg, AggFunc::Count],
        ..DfsConfig::default()
    };
    let ft = featuretools_augment_with_engine(&task, 4, None, &dfs, &engine);
    assert!(ft.num_columns() > task.train.num_columns());
    let rnd = random_augment_with_engine(&task, &[AggFunc::Sum, AggFunc::Avg], 2, 2, 7, &engine);
    assert!(rnd.num_columns() > task.train.num_columns());
    let after_baselines = engine.stats();
    assert!(after_baselines.evaluations > after_gen.evaluations);
    assert!(
        after_baselines.group_indexes <= 3,
        "baselines must reuse the compiled group indexes ({after_baselines:?})"
    );
    // TPE resampling plus the baselines' full-key trivial queries overlapping QTI's pool make
    // feature-memo hits all but certain across this many evaluations.
    assert!(
        after_baselines.feature_cache_hits > 0,
        "expected cross-component feature-memo reuse ({after_baselines:?})"
    );
}

/// The pipeline wires the sharing up internally and reports the shared engine's counters.
#[test]
fn pipeline_reports_shared_engine_stats() {
    let task = tmall_task();
    let mut cfg = FeatAugConfig::fast(ModelKind::Linear);
    cfg.n_templates = 2;
    cfg.queries_per_template = 2;
    cfg.template_id.n_templates = 2;
    cfg.template_id.pool_samples = 8;
    cfg.sqlgen.warmup_iters = 12;
    cfg.sqlgen.warmup_top_k = 4;
    cfg.sqlgen.search_iters = 5;
    let result = FeatAug::new(cfg).augment(&task);
    let stats = result.engine_stats;
    assert!(stats.evaluations > 0);
    assert!(stats.group_indexes >= 1);
    // QTI alone runs pool_samples per beam node; generation adds warmup + search iterations
    // per template. Seeing more evaluations than QTI alone could produce proves one engine
    // counted both components.
    assert!(
        stats.evaluations > 8,
        "expected combined QTI + generation throughput on one engine, got {stats:?}"
    );
}

/// Batch evaluation must produce features deterministically regardless of the worker count the
/// environment picks — the end-to-end pipeline result is a function of config + seed only.
#[test]
fn pipeline_result_is_deterministic_across_runs() {
    let task = tmall_task();
    let mut cfg = FeatAugConfig::fast(ModelKind::Linear);
    cfg.template_id.pool_samples = 6;
    cfg.sqlgen.warmup_iters = 8;
    cfg.sqlgen.warmup_top_k = 3;
    cfg.sqlgen.search_iters = 4;
    let a = FeatAug::new(cfg.clone()).augment(&task);
    let b = FeatAug::new(cfg).augment(&task);
    assert_eq!(a.feature_names, b.feature_names);
    assert_eq!(
        a.augmented_train.num_columns(),
        b.augmented_train.num_columns()
    );
    assert_eq!(a.plan.to_plan_text(), b.plan.to_plan_text());
    let loss_bits =
        |r: &FeatAugResult| -> Vec<u64> { r.queries.iter().map(|g| g.loss.to_bits()).collect() };
    assert_eq!(loss_bits(&a), loss_bits(&b));
}
