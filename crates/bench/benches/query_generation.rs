//! Benchmarks for the SQL Query Generation component: the cost of materialising one candidate
//! query, and of a full warm-up + generation run over a template's pool.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use feataug::evaluation::FeatureEvaluator;
use feataug::generation::{QueryGenerator, SqlGenConfig};
use feataug::{QueryCodec, QueryTemplate};
use feataug_bench::datasets::build_task_with;
use feataug_datagen::GenConfig;
use feataug_ml::ModelKind;
use feataug_tabular::AggFunc;

fn bench_generation(c: &mut Criterion) {
    let ds = build_task_with(
        "tmall",
        &GenConfig {
            n_entities: 400,
            fanout: 10,
            n_noise_cols: 1,
            seed: 3,
        },
    );
    let task = &ds.task;
    let template = QueryTemplate::new(
        vec![AggFunc::Sum, AggFunc::Avg, AggFunc::Count, AggFunc::Max],
        task.resolved_agg_columns(),
        vec!["department".into(), "timestamp".into()],
        task.key_columns.clone(),
    );
    let codec = QueryCodec::build(&template, &task.relevant).unwrap();

    c.bench_function("generation/materialize_one_query", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let config = codec.space().sample(&mut rng);
            let query = codec.decode(&config);
            black_box(
                query
                    .augment(&task.train, &task.relevant)
                    .unwrap()
                    .0
                    .num_rows(),
            )
        })
    });

    // Each run gets a fresh evaluator, as each fit does: a shared one would answer every
    // run after the first from its loss memo.
    c.bench_function("generation/warmup_plus_search_fast", |b| {
        b.iter(|| {
            let evaluator = FeatureEvaluator::new(task, ModelKind::Linear, 3);
            let mut cfg = SqlGenConfig::fast();
            cfg.warmup_iters = 10;
            cfg.warmup_top_k = 3;
            cfg.search_iters = 4;
            let generator = QueryGenerator::new(task, &evaluator, cfg);
            black_box(generator.generate(&template, 2).0.len())
        })
    });

    c.bench_function("generation/no_warmup_search_fast", |b| {
        b.iter(|| {
            let evaluator = FeatureEvaluator::new(task, ModelKind::Linear, 3);
            let mut cfg = SqlGenConfig::fast();
            cfg.enable_warmup = false;
            cfg.warmup_top_k = 3;
            cfg.search_iters = 4;
            let generator = QueryGenerator::new(task, &evaluator, cfg);
            black_box(generator.generate(&template, 2).0.len())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_generation
}
criterion_main!(benches);
