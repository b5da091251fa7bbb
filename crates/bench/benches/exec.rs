//! Engine vs. naive candidate evaluation: the cost of one predicate-query
//! feature on the tmall generator, through the reference
//! execute-then-left-join path and through the compiled [`QueryEngine`].

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use feataug::exec::QueryEngine;
use feataug::{QueryCodec, QueryTemplate};
use feataug_datagen::{tmall, GenConfig};
use feataug_tabular::{AggFunc, Predicate};

fn bench_exec(c: &mut Criterion) {
    let ds = tmall::generate(&GenConfig {
        n_entities: 800,
        fanout: 12,
        n_noise_cols: 1,
        seed: 3,
    });
    let template = QueryTemplate::new(
        vec![AggFunc::Sum, AggFunc::Avg, AggFunc::Count, AggFunc::Max],
        ds.agg_columns.clone(),
        ds.predicate_attrs.clone(),
        ds.key_columns.clone(),
    );
    let query = feataug::PredicateQuery {
        agg: AggFunc::Avg,
        agg_column: ds.agg_columns[0].clone(),
        predicate: Predicate::and(vec![
            Predicate::eq("department", "Electronics"),
            Predicate::ge("timestamp", tmall::RECENT_CUTOFF),
        ]),
        group_keys: ds.key_columns.clone(),
    };

    c.bench_function("exec/naive_augment_one_query", |b| {
        b.iter(|| black_box(query.augment(&ds.train, &ds.relevant).unwrap().0.num_rows()))
    });

    let engine = QueryEngine::new(&ds.train, &ds.relevant);
    engine.feature(&query).unwrap(); // compile outside the timed region
    c.bench_function("exec/engine_one_query_warm", |b| {
        b.iter(|| black_box(engine.feature(&query).unwrap().1.len()))
    });

    c.bench_function("exec/engine_compile_plus_one_query", |b| {
        b.iter(|| {
            let cold = QueryEngine::new(&ds.train, &ds.relevant);
            black_box(cold.feature(&query).unwrap().1.len())
        })
    });

    // A trivial-predicate (Featuretools-shaped) candidate: the reference path
    // clones and re-groups the full table; the engine gathers from cache.
    let trivial = feataug::PredicateQuery {
        agg: AggFunc::Sum,
        agg_column: ds.agg_columns[0].clone(),
        predicate: Predicate::True,
        group_keys: ds.key_columns.clone(),
    };
    c.bench_function("exec/naive_trivial_predicate", |b| {
        b.iter(|| {
            black_box(
                trivial
                    .augment(&ds.train, &ds.relevant)
                    .unwrap()
                    .0
                    .num_rows(),
            )
        })
    });
    c.bench_function("exec/engine_trivial_predicate_warm", |b| {
        b.iter(|| black_box(engine.feature(&trivial).unwrap().1.len()))
    });

    // Mixed pool, as the TPE loop sees it: random queries from the codec.
    let codec = QueryCodec::build(&template, &ds.relevant).unwrap();
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(11);
    let pool: Vec<_> = (0..64)
        .map(|_| codec.decode(&codec.space().sample(&mut rng)))
        .collect();
    let mut next = 0usize;
    c.bench_function("exec/engine_mixed_pool_warm", |b| {
        b.iter(|| {
            let q = &pool[next % pool.len()];
            next += 1;
            black_box(engine.feature(q).unwrap().1.len())
        })
    });

    // The whole pool at once through the scoped worker pool, fresh engine per
    // iteration (compile + memo-cold, like one beam-search node pays it). A
    // second variant pins one worker to expose the fan-out overhead itself.
    let workers = feataug::default_workers();
    c.bench_function("exec/engine_batch_pool_default_workers", |b| {
        b.iter(|| {
            let cold = QueryEngine::new(&ds.train, &ds.relevant);
            black_box(cold.feature_batch_threads(&pool, workers).len())
        })
    });
    c.bench_function("exec/engine_batch_pool_one_worker", |b| {
        b.iter(|| {
            let cold = QueryEngine::new(&ds.train, &ds.relevant);
            black_box(cold.feature_batch_threads(&pool, 1).len())
        })
    });
}

criterion_group!(benches, bench_exec);
criterion_main!(benches);
