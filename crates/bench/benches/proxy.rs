//! Micro-benchmarks for the low-cost proxies (Table VIII's SC / MI / LR): how much cheaper a
//! proxy evaluation is than training the downstream model, per candidate feature.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use feataug::evaluation::FeatureEvaluator;
use feataug::proxy::LowCostProxy;
use feataug_bench::datasets::build_task_with;
use feataug_datagen::GenConfig;
use feataug_ml::{ModelKind, Task};

fn bench_proxy(c: &mut Criterion) {
    let ds = build_task_with(
        "tmall",
        &GenConfig {
            n_entities: 600,
            fanout: 10,
            n_noise_cols: 1,
            seed: 3,
        },
    );
    let labels = ds.task.labels().expect("generated task has labels");
    let feature: Vec<f64> = labels
        .iter()
        .enumerate()
        .map(|(i, &y)| y * 2.0 + ((i * 17) % 13) as f64 * 0.1)
        .collect();

    for proxy in LowCostProxy::all() {
        c.bench_function(&format!("proxy/{}", proxy.name()), |b| {
            b.iter(|| black_box(proxy.score(&feature, &labels, Task::BinaryClassification)))
        });
    }

    // The real oracle the proxies stand in for: one downstream-model evaluation.
    // `result_with_features` trains on every call; `loss_with_feature` would answer
    // every iteration after the first from its loss memo.
    let evaluator = FeatureEvaluator::new(&ds.task, ModelKind::Linear, 3);
    let candidate = [("candidate".to_string(), feature)];
    c.bench_function("proxy/full_model_evaluation_LR", |b| {
        b.iter(|| black_box(evaluator.result_with_features(&candidate).loss))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_proxy
}
criterion_main!(benches);
