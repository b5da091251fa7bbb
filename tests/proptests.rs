//! Cross-crate property-based tests: invariants that must hold for arbitrary generated datasets
//! and arbitrary sampled queries.

use proptest::prelude::*;
use rand::SeedableRng;

use feataug::encoding::{feature_vector, table_to_dataset};
use feataug::evaluation::evaluate_table;
use feataug::exec::QueryEngine;
use feataug::{QueryCodec, QueryTemplate};
use feataug_datagen::GenConfig;
use feataug_ml::ModelKind;
use feataug_repro::{to_aug_task, to_ml_task};
use feataug_tabular::AggFunc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any randomly sampled query from any dataset's codec must decode, execute, and produce an
    /// augmented table with exactly the training table's row count.
    #[test]
    fn sampled_queries_preserve_training_cardinality(
        seed in 0u64..1000,
        dataset_idx in 0usize..4,
        n_queries in 1usize..6,
    ) {
        let name = feataug_datagen::one_to_many_names()[dataset_idx];
        let ds = feataug_datagen::generate_by_name(name, &GenConfig::tiny().with_seed(seed)).unwrap();
        let task = to_aug_task(&ds);
        let template = QueryTemplate::new(
            vec![AggFunc::Sum, AggFunc::Avg, AggFunc::Count],
            task.resolved_agg_columns(),
            task.resolved_predicate_attrs(),
            task.key_columns.clone(),
        );
        let codec = QueryCodec::build(&template, &task.relevant).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..n_queries {
            let config = codec.space().sample(&mut rng);
            prop_assert!(codec.space().contains(&config));
            let query = codec.decode(&config);
            let (augmented, feature) = query.augment(&task.train, &task.relevant).unwrap();
            prop_assert_eq!(augmented.num_rows(), task.train.num_rows());
            let values = feature_vector(&augmented, &feature);
            prop_assert_eq!(values.len(), task.train.num_rows());
        }
    }

    /// The compiled QueryEngine must be value-identical — bit for bit, including NULL/NaN
    /// placement — to the naive execute-then-left-join path, for arbitrary sampled queries over
    /// arbitrary generated datasets (all fifteen aggregation functions, random predicates and
    /// random group-key subsets flow through the codec sampling).
    #[test]
    fn query_engine_matches_naive_augment_path(
        seed in 0u64..10_000,
        dataset_idx in 0usize..4,
        n_queries in 2usize..10,
    ) {
        let name = feataug_datagen::one_to_many_names()[dataset_idx];
        let ds = feataug_datagen::generate_by_name(name, &GenConfig::tiny().with_seed(seed)).unwrap();
        let task = to_aug_task(&ds);
        // Aggregate over the numeric defaults plus the categorical predicate
        // attributes (code-valued aggregation exercises the dictionary
        // re-interning the filtered reference path performs).
        let mut agg_columns = task.resolved_agg_columns();
        for attr in task.resolved_predicate_attrs() {
            if task.relevant.dtype(&attr).unwrap() == feataug_tabular::DataType::Categorical {
                agg_columns.push(attr);
            }
        }
        let template = QueryTemplate::new(
            AggFunc::all().to_vec(),
            agg_columns,
            task.resolved_predicate_attrs(),
            task.key_columns.clone(),
        );
        let codec = QueryCodec::build(&template, &task.relevant).unwrap();
        let engine = QueryEngine::new(&task.train, &task.relevant);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabcd);
        for _ in 0..n_queries {
            let config = codec.space().sample(&mut rng);
            let query = codec.decode(&config);

            let (engine_name, engine_values) = engine.feature(&query).unwrap();
            let (augmented, naive_name) = query.augment(&task.train, &task.relevant).unwrap();
            let naive_values = feature_vector(&augmented, &naive_name);

            prop_assert_eq!(&engine_name, &naive_name);
            prop_assert_eq!(engine_values.len(), naive_values.len());
            for (row, (e, n)) in engine_values.iter().zip(&naive_values).enumerate() {
                prop_assert_eq!(
                    e.to_bits(),
                    n.to_bits(),
                    "row {} differs for `{}` on {}: engine {} vs naive {}",
                    row,
                    query.to_sql("R"),
                    name,
                    e,
                    n
                );
            }
        }
    }

    /// Parallel batch evaluation must be bit-identical — NULL/NaN placement included — to the
    /// serial engine AND to the naive `PredicateQuery::augment` reference, at every worker
    /// count, over randomized query pools on arbitrary generated datasets. Pools are sampled
    /// with repetition-prone codecs, so the engine's feature memo is exercised too.
    #[test]
    fn batch_evaluation_is_bit_identical_across_thread_counts(
        seed in 0u64..10_000,
        dataset_idx in 0usize..4,
        n_queries in 4usize..16,
    ) {
        let name = feataug_datagen::one_to_many_names()[dataset_idx];
        let ds = feataug_datagen::generate_by_name(name, &GenConfig::tiny().with_seed(seed)).unwrap();
        let task = to_aug_task(&ds);
        let template = QueryTemplate::new(
            AggFunc::all().to_vec(),
            task.resolved_agg_columns(),
            task.resolved_predicate_attrs(),
            task.key_columns.clone(),
        );
        let codec = QueryCodec::build(&template, &task.relevant).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
        let pool: Vec<_> =
            (0..n_queries).map(|_| codec.decode(&codec.space().sample(&mut rng))).collect();

        // Reference values via the naive execute-then-left-join path.
        let reference: Vec<Vec<f64>> = pool
            .iter()
            .map(|q| {
                let (augmented, fname) = q.augment(&task.train, &task.relevant).unwrap();
                feature_vector(&augmented, &fname)
            })
            .collect();

        // Serial engine path.
        let serial_engine = QueryEngine::new(&task.train, &task.relevant);
        let serial: Vec<(String, Vec<f64>)> =
            pool.iter().map(|q| serial_engine.feature(q).unwrap()).collect();

        for workers in [1usize, 2, 5] {
            let engine = QueryEngine::new(&task.train, &task.relevant);
            let batch = engine.feature_batch_threads(&pool, workers);
            prop_assert_eq!(batch.len(), pool.len());
            for (i, result) in batch.into_iter().enumerate() {
                let (batch_name, batch_vals) = result.unwrap();
                prop_assert_eq!(&batch_name, &serial[i].0);
                prop_assert_eq!(batch_vals.len(), reference[i].len());
                for (row, b) in batch_vals.iter().enumerate() {
                    let s = serial[i].1[row];
                    let r = reference[i][row];
                    prop_assert_eq!(
                        b.to_bits(), s.to_bits(),
                        "workers={}: row {} of `{}` differs from serial engine ({} vs {})",
                        workers, row, pool[i].to_sql("R"), b, s
                    );
                    prop_assert_eq!(
                        b.to_bits(), r.to_bits(),
                        "workers={}: row {} of `{}` differs from naive reference ({} vs {})",
                        workers, row, pool[i].to_sql("R"), b, r
                    );
                }
            }
        }
    }

    /// The aggregation kernels must be bit-identical to the `AggFunc::apply` oracle for all
    /// fifteen functions over adversarial float inputs — signed zeros, NaN payloads of both
    /// signs, infinities, NULLs, single-element groups, all-equal groups and all-NaN groups —
    /// at one worker and at the default worker count.
    #[test]
    fn kernels_match_apply_oracle_on_adversarial_floats(
        seed in 0u64..10_000,
        n_rows in 6usize..48,
        n_keys in 2usize..6,
    ) {
        use feataug::exec::default_workers;
        use feataug::PredicateQuery;
        use feataug_tabular::{Column, Predicate, Table};
        use rand::Rng;

        let palette = [
            Some(0.0),
            Some(-0.0),
            Some(f64::NAN),
            Some(-f64::NAN),
            Some(1.0),
            Some(-1.0),
            Some(f64::INFINITY),
            Some(f64::NEG_INFINITY),
            Some(2.5),
            Some(2.5), // over-weighted so MODE sees real frequency ties
            None,
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut keys: Vec<String> = Vec::new();
        let mut values: Vec<Option<f64>> = Vec::new();
        for i in 0..n_rows {
            keys.push(format!("k{}", i % n_keys));
            values.push(palette[rng.gen_range(0..palette.len())]);
        }
        // Deterministic degenerate groups: all-equal, all-NaN, single-element.
        for _ in 0..3 {
            keys.push("eq".into());
            values.push(Some(3.5));
            keys.push("nan".into());
            values.push(Some(f64::NAN));
        }
        keys.push("one".into());
        values.push(Some(-0.0));

        let mut relevant = Table::new("logs");
        let key_refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
        relevant.add_column("k", Column::from_strs(&key_refs)).unwrap();
        relevant.add_column("v", Column::from_opt_f64s(&values)).unwrap();
        let sel: Vec<i64> = (0..keys.len() as i64).collect();
        relevant.add_column("sel", Column::from_i64s(&sel)).unwrap();

        let mut train = Table::new("users");
        let mut train_keys: Vec<String> = (0..n_keys).map(|i| format!("k{i}")).collect();
        train_keys.extend(["eq".into(), "nan".into(), "one".into(), "unseen".into()]);
        let train_refs: Vec<&str> = train_keys.iter().map(|s| s.as_str()).collect();
        train.add_column("k", Column::from_strs(&train_refs)).unwrap();

        let mid = keys.len() as i64 / 2;
        let predicates = [
            Predicate::True,
            Predicate::ge("sel", mid),
            Predicate::le("sel", mid),
        ];
        let mut pool: Vec<PredicateQuery> = Vec::new();
        for agg in AggFunc::all() {
            for predicate in &predicates {
                pool.push(PredicateQuery {
                    agg: *agg,
                    agg_column: "v".into(),
                    predicate: predicate.clone(),
                    group_keys: vec!["k".into()],
                });
            }
        }

        // Oracle: the reference execute-then-left-join path over (fixed-semantics)
        // `AggFunc::apply`.
        let reference: Vec<Vec<f64>> = pool
            .iter()
            .map(|q| {
                let (augmented, fname) = q.augment(&train, &relevant).unwrap();
                feature_vector(&augmented, &fname)
            })
            .collect();

        for workers in [1usize, default_workers()] {
            let engine = QueryEngine::new(&train, &relevant);
            for (i, result) in engine.feature_batch_threads(&pool, workers).into_iter().enumerate() {
                let (_, vals) = result.unwrap();
                prop_assert_eq!(vals.len(), reference[i].len());
                for (row, (e, r)) in vals.iter().zip(&reference[i]).enumerate() {
                    prop_assert_eq!(
                        e.to_bits(),
                        r.to_bits(),
                        "workers={}: row {} of `{}`: kernel {} vs oracle {}",
                        workers,
                        row,
                        pool[i].to_sql("R"),
                        e,
                        r
                    );
                }
            }
        }
    }

    /// `append_relevant` must be indistinguishable from a full refit: split an arbitrary
    /// generated relevant table into a base plus randomized append batches, warm the
    /// incremental engine's per-group memo *before* the appends (so every delta path —
    /// streaming resume, order-stat merge, universal rescan — must carry state forward), then
    /// compare transforms and point lookups bit-for-bit against a fresh engine compiled over
    /// the concatenated table, at one worker and the default count.
    #[test]
    fn append_relevant_matches_full_refit_bit_for_bit(
        seed in 0u64..10_000,
        dataset_idx in 0usize..4,
        n_queries in 3usize..10,
        n_batches in 1usize..4,
    ) {
        use feataug::exec::default_workers;
        use rand::Rng;

        let name = feataug_datagen::one_to_many_names()[dataset_idx];
        let ds = feataug_datagen::generate_by_name(name, &GenConfig::tiny().with_seed(seed)).unwrap();
        let task = to_aug_task(&ds);
        let template = QueryTemplate::new(
            AggFunc::all().to_vec(),
            task.resolved_agg_columns(),
            task.resolved_predicate_attrs(),
            task.key_columns.clone(),
        );
        let codec = QueryCodec::build(&template, &task.relevant).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1a6e57);
        let pool: Vec<_> =
            (0..n_queries).map(|_| codec.decode(&codec.space().sample(&mut rng))).collect();

        // Random cut points split the relevant rows into a base prefix plus
        // up to `n_batches` non-empty append batches.
        let total = task.relevant.num_rows();
        prop_assert!(total > n_batches + 1, "tiny datasets outnumber the batch count");
        let mut cuts: Vec<usize> = (0..n_batches).map(|_| rng.gen_range(1..total)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut bounds = vec![0];
        bounds.extend(cuts);
        bounds.push(total);
        let segments: Vec<Vec<usize>> =
            bounds.windows(2).map(|w| (w[0]..w[1]).collect()).collect();
        let base = task.relevant.take(&segments[0]);
        let batches: Vec<_> = segments[1..].iter().map(|idx| task.relevant.take(idx)).collect();

        // Oracle table: base ++ batches through the same concat path — `take`
        // re-interns dictionaries, so the original table is NOT the oracle.
        let mut full = base.clone();
        for batch in &batches {
            full = full.concat(batch).unwrap();
        }
        prop_assert_eq!(full.num_rows(), total);

        for workers in [1usize, default_workers()] {
            let engine = QueryEngine::new(&task.train, &base);
            // Warm every per-group feature before the appends: each append
            // must then carry the whole memo forward through its delta paths
            // rather than handing the next transform a cold cache.
            let warm = engine.transform_threads(&pool, &task.train, workers).unwrap();
            prop_assert_eq!(warm.len(), pool.len());

            for (i, batch) in batches.iter().enumerate() {
                let info = engine.append_relevant(batch).unwrap();
                prop_assert_eq!(info.epoch, (i + 1) as u64);
                prop_assert_eq!(info.appended_rows, batch.num_rows());
            }
            prop_assert_eq!(engine.epoch(), batches.len() as u64);

            let oracle = QueryEngine::new(&task.train, &full);
            let incremental = engine.transform_threads(&pool, &task.train, workers).unwrap();
            let refit = oracle.transform_threads(&pool, &task.train, workers).unwrap();
            for (qi, (inc, want)) in incremental.iter().zip(&refit).enumerate() {
                prop_assert_eq!(inc.len(), want.len());
                for (row, (a, b)) in inc.iter().zip(want).enumerate() {
                    prop_assert_eq!(
                        a.map(f64::to_bits),
                        b.map(f64::to_bits),
                        "workers={}: row {} of `{}`: incremental {:?} vs refit {:?}",
                        workers, row, pool[qi].to_sql("R"), a, b
                    );
                }
            }

            // Point lookups resolve identically through the appended epochs.
            for query in &pool {
                for row in 0..task.train.num_rows().min(6) {
                    let key: Vec<feataug_tabular::Value> = query
                        .group_keys
                        .iter()
                        .map(|k| task.train.value(row, k).unwrap())
                        .collect();
                    let a = engine.lookup(query, &key).unwrap();
                    let b = oracle.lookup(query, &key).unwrap();
                    prop_assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
                }
            }
        }
    }

    /// Encoding any generated training table yields a dataset with consistent shapes, and the
    /// evaluation protocol returns a metric within its valid range.
    #[test]
    fn encoding_and_evaluation_are_well_formed(
        seed in 0u64..1000,
        dataset_idx in 0usize..6,
    ) {
        let names: Vec<&str> = feataug_datagen::one_to_many_names()
            .iter()
            .chain(feataug_datagen::one_to_one_names())
            .copied()
            .collect();
        let ds = feataug_datagen::generate_by_name(names[dataset_idx], &GenConfig::tiny().with_seed(seed)).unwrap();
        let task = to_ml_task(ds.task);
        let data = table_to_dataset(&ds.train, &ds.label_column, &ds.key_columns, task);
        prop_assert_eq!(data.len(), ds.train.num_rows());
        prop_assert!(data.n_features() >= 1);

        let result = evaluate_table(&ds.train, &ds.label_column, &ds.key_columns, task, ModelKind::Linear, seed);
        match result.metric {
            feataug_ml::Metric::Auc | feataug_ml::Metric::F1Macro => {
                prop_assert!((0.0..=1.0).contains(&result.value));
            }
            feataug_ml::Metric::Rmse => prop_assert!(result.value >= 0.0),
        }
    }
}
