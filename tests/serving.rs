//! Serving conformance suite: the owned (`Arc`-backed) serving runtime, the
//! prepared lookup handle, and the parallel transform path must all agree —
//! bit for bit — with the borrowed model, the `serve` reference path and the
//! serial transform, including under thread contention.
//!
//! (The zero-allocation guarantee of `ServingHandle::lookup` lives in its
//! own binary, `tests/serving_alloc.rs`, behind a counting global
//! allocator.)

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;

use feataug::multi::{fit_multi, MultiAugModel, MultiAugTask, RelevantSource};
use feataug::pipeline::AugModel;
use feataug::{
    AugPlan, FeatAug, FeatAugConfig, PlannedQuery, QueryCodec, QueryEngine, QueryTemplate,
};
use feataug_datagen::GenConfig;
use feataug_ml::{ModelKind, Task};
use feataug_repro::to_aug_task;
use feataug_tabular::{AggFunc, Column, Table, Value};

fn tiny_cfg(seed: u64) -> FeatAugConfig {
    let mut cfg = FeatAugConfig::fast(ModelKind::Linear).with_seed(seed);
    cfg.n_templates = 2;
    cfg.queries_per_template = 2;
    cfg.template_id.n_templates = 2;
    cfg.template_id.pool_samples = 6;
    cfg.sqlgen.warmup_iters = 10;
    cfg.sqlgen.warmup_top_k = 3;
    cfg.sqlgen.search_iters = 4;
    cfg
}

/// A randomized plan over one generated dataset's codec.
fn random_plan(ds: &feataug_datagen::SyntheticDataset, seed: u64, n_queries: usize) -> AugPlan {
    let template = QueryTemplate::new(
        AggFunc::all().to_vec(),
        ds.agg_columns.clone(),
        ds.predicate_attrs.clone(),
        ds.key_columns.clone(),
    );
    let codec = QueryCodec::build(&template, &ds.relevant).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let queries: Vec<PlannedQuery> = (0..n_queries)
        .map(|_| PlannedQuery {
            query: codec.decode(&codec.space().sample(&mut rng)),
            loss: 0.0,
        })
        .collect();
    AugPlan::new(ds.relevant.name(), ds.key_columns.clone(), queries)
}

fn bits(values: &[Option<f64>]) -> Vec<Option<u64>> {
    values.iter().map(|v| v.map(f64::to_bits)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The prepared handle answers every key — seen, unseen, NULL — with
    /// exactly the bits `serve` produces, which themselves match the
    /// transform rows. One conformance chain across all three serving paths,
    /// over randomized plans and datasets.
    #[test]
    fn prepared_lookup_serve_and_transform_agree(
        seed in 0u64..10_000,
        dataset_idx in 0usize..4,
        n_queries in 1usize..8,
    ) {
        let name = feataug_datagen::one_to_many_names()[dataset_idx];
        let ds = feataug_datagen::generate_by_name(name, &GenConfig::tiny().with_seed(seed)).unwrap();
        let task = to_aug_task(&ds);
        let plan = random_plan(&ds, seed ^ 0xab5e, n_queries);
        let feature_names = plan.feature_names();

        // Owned model (Arc-backed): nothing below borrows the task tables.
        let model = AugModel::compile_shared(
            plan,
            task.train.clone(),
            task.relevant.clone(),
        )
        .expect("plan compiles");
        let handle = model.prepare().unwrap();
        prop_assert_eq!(handle.n_shards(), 1);
        prop_assert_eq!(handle.feature_names(), feature_names.as_slice());
        prop_assert_eq!(handle.key_columns(), task.key_columns.as_slice());

        let transformed = model.transform(&task.train).unwrap();
        let mut out = Vec::with_capacity(handle.num_features());
        for row in 0..task.train.num_rows().min(16) {
            let key: Vec<Value> = task
                .key_columns
                .iter()
                .map(|k| task.train.value(row, k).unwrap())
                .collect();
            let served = model.serve(&key).unwrap();
            handle.lookup(&key, &mut out).unwrap();
            prop_assert_eq!(bits(&served), bits(&out), "serve vs lookup, row {}", row);
            for (fname, value) in feature_names.iter().zip(&out) {
                if transformed.column(fname).is_err() {
                    continue; // feature name collided with a base column
                }
                let expected = match transformed.value(row, fname).unwrap() {
                    Value::Float(f) => Some(f),
                    Value::Null => None,
                    other => panic!("feature column held {other:?}"),
                };
                prop_assert_eq!(
                    value.map(f64::to_bits),
                    expected.map(f64::to_bits),
                    "lookup vs transform, row {} feature {}", row, fname
                );
            }
        }

        // Unseen and NULL keys: all three paths agree they are all-NULL.
        for key in [
            task.key_columns.iter().map(|_| Value::Str("##never##".into())).collect::<Vec<_>>(),
            task.key_columns.iter().map(|_| Value::Null).collect::<Vec<_>>(),
        ] {
            let served = model.serve(&key).unwrap();
            handle.lookup(&key, &mut out).unwrap();
            prop_assert_eq!(bits(&served), bits(&out));
            prop_assert!(out.iter().all(|v| v.is_none()));
        }

        // Batch lookups are bit-identical to serial ones at whatever worker
        // count the environment picks.
        let keys: Vec<Vec<Value>> = (0..task.train.num_rows().min(24))
            .map(|row| {
                task.key_columns
                    .iter()
                    .map(|k| task.train.value(row, k).unwrap())
                    .collect()
            })
            .collect();
        let batch = handle.lookup_batch(&keys).unwrap();
        for (key, got) in keys.iter().zip(&batch) {
            handle.lookup(key, &mut out).unwrap();
            prop_assert_eq!(bits(got), bits(&out));
        }
    }

    /// `QueryEngine::transform` fans per-query gathers across workers; the
    /// output must be bit-identical to the serial path at 1 / 2 / default
    /// workers, over randomized pools and datasets.
    #[test]
    fn parallel_transform_is_bit_identical_to_serial(
        seed in 0u64..10_000,
        dataset_idx in 0usize..4,
        n_queries in 2usize..10,
    ) {
        let name = feataug_datagen::one_to_many_names()[dataset_idx];
        let ds = feataug_datagen::generate_by_name(name, &GenConfig::tiny().with_seed(seed)).unwrap();
        let plan = random_plan(&ds, seed ^ 0x7e11, n_queries);
        let pool: Vec<_> = plan.queries.iter().map(|p| p.query.clone()).collect();

        let serial_engine = QueryEngine::new(&ds.train, &ds.relevant);
        let serial = serial_engine.transform_threads(&pool, &ds.train, 1).unwrap();
        for workers in [2, feataug::default_workers()] {
            let engine = QueryEngine::new(&ds.train, &ds.relevant);
            let parallel = engine.transform_threads(&pool, &ds.train, workers).unwrap();
            prop_assert_eq!(parallel.len(), serial.len());
            for (i, (got, want)) in parallel.iter().zip(&serial).enumerate() {
                prop_assert_eq!(
                    bits(got), bits(want),
                    "workers={} query {} of {}", workers, i, name
                );
            }
        }
    }

    /// `MultiAugModel::transform` is exactly the union of its per-source
    /// models' transforms, and transforming a 0-row table or a table whose
    /// keys the relevant tables have never seen yields all-NULL feature
    /// columns.
    #[test]
    fn multi_transform_is_union_of_sources_and_nulls_unseen(
        seed in 0u64..10_000,
        n_queries in 1usize..5,
    ) {
        // Two sources with the same schema (same generator, different seeds
        // → different relevant tables), sharing one training table — so the
        // union target carries both sources' key columns.
        let name = feataug_datagen::one_to_many_names()[0];
        let ds_a = feataug_datagen::generate_by_name(name, &GenConfig::tiny().with_seed(seed)).unwrap();
        let ds_b = feataug_datagen::generate_by_name(name, &GenConfig::tiny().with_seed(seed ^ 0x5a5a)).unwrap();
        let train = ds_a.train.clone();

        let model_a = AugModel::compile_shared(
            random_plan(&ds_a, seed ^ 0x11, n_queries),
            Arc::new(train.clone()),
            Arc::new(ds_a.relevant.clone()),
        )
        .expect("plan compiles");
        let model_b = AugModel::compile_shared(
            random_plan(&ds_b, seed ^ 0x22, n_queries),
            Arc::new(train.clone()),
            Arc::new(ds_b.relevant.clone()),
        )
        .expect("plan compiles");
        let features_a = model_a.transform_features(&train).unwrap();
        let features_b = model_b.transform_features(&train).unwrap();

        let multi = MultiAugModel::from_models(vec![model_a, model_b]);
        let unioned = multi.transform(&train).unwrap();

        // Union semantics: each source's features appear bit-identically
        // (columns already present — base columns or cross-source collisions
        // — are skipped, exactly like the per-source attach).
        let mut expected = train.clone();
        for (name, values) in features_a.iter().chain(&features_b) {
            let _ = expected.add_column(name.clone(), Column::from_opt_f64s(values));
        }
        prop_assert_eq!(unioned.column_names(), expected.column_names());
        for name in expected.column_names() {
            for row in 0..expected.num_rows() {
                prop_assert_eq!(
                    unioned.value(row, name).unwrap(),
                    expected.value(row, name).unwrap(),
                    "column {} row {}", name, row
                );
            }
        }

        // A 0-row table transforms to 0-row feature columns.
        let empty_rows: Vec<usize> = Vec::new();
        let empty = train.take(&empty_rows);
        let on_empty = multi.transform(&empty).unwrap();
        prop_assert_eq!(on_empty.num_rows(), 0);
        prop_assert_eq!(on_empty.column_names(), expected.column_names());

        // A held-out table whose keys were never seen: every attached
        // feature column is all-NULL.
        let all_keys: std::collections::HashSet<&String> =
            ds_a.key_columns.iter().chain(&ds_b.key_columns).collect();
        let mut held_out = Table::new("held_out");
        for key in &all_keys {
            let dtype = train.column(key).unwrap().dtype();
            let mut col = Column::empty(dtype);
            for i in 0..3 {
                col.push(match dtype {
                    feataug_tabular::DataType::Categorical => Value::Str(format!("##ghost{i}##")),
                    feataug_tabular::DataType::Int => Value::Int(i64::MIN + i),
                    feataug_tabular::DataType::DateTime => Value::DateTime(i64::MIN + i),
                    feataug_tabular::DataType::Float => Value::Float(-1.0e300 - i as f64),
                    feataug_tabular::DataType::Bool => Value::Null,
                }).unwrap();
            }
            held_out.add_column((*key).clone(), col).unwrap();
        }
        let on_held_out = multi.transform(&held_out).unwrap();
        for name in on_held_out.column_names() {
            if held_out.column(name).is_ok() {
                continue; // a key column, not a feature
            }
            for row in 0..on_held_out.num_rows() {
                prop_assert_eq!(
                    on_held_out.value(row, name).unwrap(),
                    Value::Null,
                    "unseen key must be NULL in {} row {}", name, row
                );
            }
        }
    }
}

/// N threads hammering `serve` and the prepared handle's `lookup` on ONE
/// shared owned model produce results bit-identical to the serial answers —
/// the `Arc`/`RwLock` engine core under real contention. CI runs this suite
/// under `FEATAUG_THREADS=1` and the default, so both engine worker regimes
/// are covered.
#[test]
fn concurrent_serving_is_bit_identical_to_serial() {
    let ds = feataug_datagen::generate_by_name(
        feataug_datagen::one_to_many_names()[0],
        &GenConfig::tiny().with_seed(99),
    )
    .unwrap();
    let task = to_aug_task(&ds);
    let plan = random_plan(&ds, 0x5eed, 6);
    let model = Arc::new(
        AugModel::compile_shared(plan, task.train.clone(), task.relevant.clone())
            .expect("plan compiles"),
    );

    // Keys: every train row plus unseen/NULL adversaries.
    let mut keys: Vec<Vec<Value>> = (0..task.train.num_rows())
        .map(|row| {
            task.key_columns
                .iter()
                .map(|k| task.train.value(row, k).unwrap())
                .collect()
        })
        .collect();
    keys.push(
        task.key_columns
            .iter()
            .map(|_| Value::Str("##never##".into()))
            .collect(),
    );
    keys.push(task.key_columns.iter().map(|_| Value::Null).collect());

    // Serial reference answers, computed on a separate identically-compiled
    // model so the shared model starts COLD — the threads below then race
    // the lazy compilation of every group index, view and per-group feature.
    let reference_model = AugModel::compile_shared(
        model.plan().clone(),
        task.train.clone(),
        task.relevant.clone(),
    )
    .expect("plan compiles");
    let reference: Vec<Vec<Option<f64>>> = keys
        .iter()
        .map(|k| reference_model.serve(k).unwrap())
        .collect();

    let n_threads = 8;
    let rounds = 4;
    std::thread::scope(|scope| {
        for t in 0..n_threads {
            let model = Arc::clone(&model);
            let keys = &keys;
            let reference = &reference;
            scope.spawn(move || {
                // Half the threads serve, half go through a prepared handle;
                // all hammer the same shared engine core.
                let handle = (t % 2 == 0).then(|| model.prepare().unwrap());
                let mut out = Vec::new();
                for round in 0..rounds {
                    for (i, key) in keys.iter().enumerate() {
                        let got: Vec<Option<f64>> = match &handle {
                            Some(h) => {
                                h.lookup(key, &mut out).unwrap();
                                out.clone()
                            }
                            None => model.serve(key).unwrap(),
                        };
                        let want = &reference[i];
                        assert_eq!(
                            got.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>(),
                            want.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>(),
                            "thread {t} round {round} key {i}"
                        );
                    }
                }
            });
        }
    });
}

/// `fit` end to end: the owned model keeps the fit's compiled work,
/// crosses a thread boundary, and its prepared handle serves the fitted
/// plan's features — no task tables held anywhere.
#[test]
fn fit_owned_model_serves_from_another_thread() {
    let ds = feataug_datagen::generate_by_name(
        feataug_datagen::one_to_many_names()[0],
        &GenConfig::tiny().with_seed(7),
    )
    .unwrap();
    let task = to_aug_task(&ds);
    let model = FeatAug::new(tiny_cfg(7)).fit(&task).unwrap();
    assert!(!model.plan().is_empty(), "the tiny fit must select queries");
    let evaluations_after_fit = model.engine_stats().evaluations;
    assert!(
        evaluations_after_fit > 0,
        "the owned model must keep the fit's engine counters"
    );

    let key: Vec<Value> = task
        .key_columns
        .iter()
        .map(|k| task.train.value(0, k).unwrap())
        .collect();
    let expected = model.serve(&key).unwrap();
    drop(task); // nothing borrows the task anymore

    let got = std::thread::spawn(move || {
        let handle = model.prepare().unwrap();
        let mut out = Vec::new();
        handle.lookup(&key, &mut out).unwrap();
        out
    })
    .join()
    .unwrap();
    assert_eq!(
        got.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>(),
        expected
            .iter()
            .map(|v| v.map(f64::to_bits))
            .collect::<Vec<_>>()
    );
}

/// `fit_multi` needs no caller-held `sub_tasks` vector: the models
/// stand alone, transform the union onto any table, and survive a thread
/// hop.
#[test]
fn fit_multi_owned_stands_alone() {
    fn relevant(n: usize, name: &str, target: &str) -> Table {
        let mut keys = Vec::new();
        let mut flags = Vec::new();
        let mut values = Vec::new();
        for i in 0..n {
            for j in 0..4 {
                keys.push(format!("u{i}"));
                let flag = if j % 2 == 0 { target } else { "other" };
                flags.push(flag.to_string());
                values.push(if flag == target {
                    (i % 2) as f64 * 10.0 + j as f64
                } else {
                    j as f64
                });
            }
        }
        let mut t = Table::new(name);
        t.add_column("user_id", Column::from_strings(&keys))
            .unwrap();
        t.add_column("flag", Column::from_strings(&flags)).unwrap();
        t.add_column("value", Column::from_f64s(&values)).unwrap();
        t
    }
    let n = 60;
    let mut train = Table::new("d");
    train
        .add_column(
            "user_id",
            Column::from_strings(&(0..n).map(|i| format!("u{i}")).collect::<Vec<_>>()),
        )
        .unwrap();
    train
        .add_column(
            "label",
            Column::from_i64s(&(0..n).map(|i| (i % 2) as i64).collect::<Vec<_>>()),
        )
        .unwrap();
    let task = MultiAugTask::new(train.clone(), "label", Task::BinaryClassification)
        .with_source(RelevantSource::new(
            relevant(n, "r1", "a"),
            vec!["user_id".into()],
        ))
        .with_source(RelevantSource::new(
            relevant(n, "r2", "b"),
            vec!["user_id".into()],
        ));

    let model = fit_multi(&tiny_cfg(3), &task.sub_tasks()).unwrap();
    assert_eq!(model.models().len(), 2);
    let on_train = model.transform(&train).unwrap();
    assert!(on_train.num_columns() > train.num_columns());
    drop(task); // the owned multi-model borrows nothing

    // It crosses threads whole.
    let (rows, cols) = std::thread::spawn(move || {
        let again = model.transform(&train).unwrap();
        (again.num_rows(), again.num_columns())
    })
    .join()
    .unwrap();
    assert_eq!(rows, n);
    assert_eq!(cols, on_train.num_columns());
}
