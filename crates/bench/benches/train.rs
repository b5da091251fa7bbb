//! Micro-benchmarks for one downstream-model training, the oracle `L(A(D_train), D_valid)` each
//! candidate FeatAug evaluates costs: `feataug_ml::evaluate` (fit on the training split, score
//! the validation split) for GBDT and RF on a 320×2 and a 640×8 training split.
//!
//! A quick local probe of tree-training cost; the end-to-end effect on `fit` is what featbench
//! measures.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use feataug_ml::{evaluate, Dataset, Matrix, ModelKind, Task};

/// A binary task of `rows` training and `rows / 4` validation rows. The label depends on the
/// first two columns; the rest alternate between continuous noise and integer-valued noise, so
/// some columns carry long runs of duplicates as aggregate features do.
fn splits(rows: usize, cols: usize, seed: u64) -> (Dataset, Dataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let make = |n: usize, rng: &mut StdRng| {
        let mut data = Vec::with_capacity(n * cols);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f64> = (0..cols)
                .map(|j| {
                    if j % 2 == 0 {
                        rng.gen_range(-1.0..1.0)
                    } else {
                        rng.gen_range(0..12) as f64
                    }
                })
                .collect();
            let score = row[0] + row.get(1).map_or(0.0, |v| v / 6.0 - 1.0);
            y.push(f64::from(score + rng.gen_range(-0.5..0.5) > 0.0));
            data.extend(row);
        }
        let names = (0..cols).map(|j| format!("f{j}")).collect();
        Dataset::new(
            Matrix::new(data, n, cols),
            y,
            names,
            Task::BinaryClassification,
        )
    };
    let train = make(rows, &mut rng);
    let valid = make(rows / 4, &mut rng);
    (train, valid)
}

fn bench_train(c: &mut Criterion) {
    for (rows, cols) in [(320, 2), (640, 8)] {
        let (train, valid) = splits(rows, cols, 7);
        for kind in [ModelKind::GradientBoosting, ModelKind::RandomForest] {
            c.bench_function(&format!("train/evaluate_{kind}/{rows}x{cols}"), |b| {
                b.iter(|| black_box(evaluate(kind, &train, &valid)))
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_train
}
criterion_main!(benches);
