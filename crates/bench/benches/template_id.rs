//! Benchmarks for the Query Template Identification component: beam search with the low-cost
//! proxy and the promising-template predictor, against the un-optimised variants (the design
//! ablation behind the paper's Figure 5(a)).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use feataug::evaluation::FeatureEvaluator;
use feataug::template_id::{TemplateIdConfig, TemplateIdentifier};
use feataug_bench::datasets::build_task_with;
use feataug_datagen::GenConfig;
use feataug_ml::ModelKind;
use feataug_tabular::AggFunc;

fn bench_template_id(c: &mut Criterion) {
    let ds = build_task_with(
        "student",
        &GenConfig {
            n_entities: 300,
            fanout: 8,
            n_noise_cols: 1,
            seed: 3,
        },
    );
    let task = &ds.task;
    let agg_funcs = vec![AggFunc::Sum, AggFunc::Avg, AggFunc::Count];

    // A fresh evaluator per run, as per fit: a shared one would answer the real-model
    // variant's every run after the first from its loss memo.
    let run = |use_proxy: bool, use_predictor: bool| {
        let evaluator = FeatureEvaluator::new(task, ModelKind::Linear, 3);
        let cfg = TemplateIdConfig {
            use_proxy,
            use_predictor,
            pool_samples: 6,
            max_depth: 3,
            beam_width: 2,
            ..TemplateIdConfig::fast()
        };
        let identifier = TemplateIdentifier::new(task, &evaluator, agg_funcs.clone(), cfg);
        identifier.identify().2
    };

    c.bench_function("template_id/beam_no_opts_real_eval", |b| {
        b.iter(|| black_box(run(false, false)))
    });
    c.bench_function("template_id/beam_proxy_only_opt1", |b| {
        b.iter(|| black_box(run(true, false)))
    });
    c.bench_function("template_id/beam_proxy_predictor_opt1_2", |b| {
        b.iter(|| black_box(run(true, true)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_template_id
}
criterion_main!(benches);
