//! Quickstart: augment a tiny hand-built training table with a predicate-aware feature.
//!
//! Run with `cargo run --example quickstart`.
//!
//! The example mirrors the paper's running example (Figure 1): a `User_Info` training table, a
//! `User_Logs` relevant table in a one-to-many relationship, and the predicate-aware query
//! `SELECT cname, AVG(pprice) FROM User_Logs WHERE department='Electronics' AND timestamp >= t0
//! GROUP BY cname` as the augmented feature.

use feataug::query::PredicateQuery;
use feataug::{FeatAug, FeatAugConfig};
use feataug_ml::{ModelKind, Task};
use feataug_repro::to_aug_task;
use feataug_tabular::{AggFunc, Column, Predicate, Table};

fn main() {
    // ---- 1. A miniature User_Info / User_Logs pair (paper Figure 1) -----------------------
    let mut user_info = Table::new("user_info");
    user_info
        .add_column(
            "cname",
            Column::from_strs(&["alice", "bob", "carol", "dave"]),
        )
        .unwrap();
    user_info
        .add_column("age", Column::from_i64s(&[34, 51, 27, 45]))
        .unwrap();
    user_info
        .add_column("label", Column::from_i64s(&[1, 0, 1, 0]))
        .unwrap();

    let mut user_logs = Table::new("user_logs");
    user_logs
        .add_column(
            "cname",
            Column::from_strs(&["alice", "alice", "bob", "carol", "carol", "dave"]),
        )
        .unwrap();
    user_logs
        .add_column(
            "pprice",
            Column::from_f64s(&[899.0, 25.0, 12.0, 499.0, 18.0, 9.0]),
        )
        .unwrap();
    user_logs
        .add_column(
            "department",
            Column::from_strs(&[
                "Electronics",
                "Food",
                "Food",
                "Electronics",
                "Clothing",
                "Food",
            ]),
        )
        .unwrap();
    user_logs
        .add_column(
            "timestamp",
            Column::from_datetimes(&[200, 50, 120, 210, 90, 60]),
        )
        .unwrap();

    // ---- 2. Execute one hand-written predicate-aware query --------------------------------
    let query = PredicateQuery {
        agg: AggFunc::Avg,
        agg_column: "pprice".into(),
        predicate: Predicate::and(vec![
            Predicate::eq("department", "Electronics"),
            Predicate::ge("timestamp", 150i64),
        ]),
        group_keys: vec!["cname".into()],
    };
    println!("query:\n  {}\n", query.to_sql("user_logs"));
    let (augmented, feature) = query.augment(&user_info, &user_logs).unwrap();
    println!("augmented training table (feature column = {feature}):");
    println!("{}", augmented.preview(10));

    // ---- 3. Let FeatAug search for features automatically on a generated dataset ----------
    let dataset = feataug_datagen::tmall::generate(&feataug_datagen::GenConfig::small());
    let task = to_aug_task(&dataset);
    assert_eq!(task.task, Task::BinaryClassification);

    // Fit once (offline discovery), then transform any table carrying the
    // keys — see examples/serve_features.rs for the full offline→online path.
    let feataug = FeatAug::new(FeatAugConfig::fast(ModelKind::Linear));
    let model = feataug.fit(&task).expect("generated task is well-formed");
    let augmented_train = model.transform(&task.train).expect("transform train");
    println!(
        "FeatAug generated {} features ({} columns total):",
        model.plan().len(),
        augmented_train.num_columns()
    );
    for q in model.queries().iter().take(5) {
        println!(
            "  loss {:>8.4}  {}",
            q.loss,
            q.query.to_sql(dataset.relevant.name())
        );
    }
    let timing = model.timing();
    println!(
        "\ntiming: QTI {:?}, warm-up {:?}, generation {:?} (busy time summed over templates)",
        timing.qti, timing.warmup, timing.generate
    );
    println!(
        "model trainings: {} run, {} answered from the loss memo",
        timing.trainings, timing.memo_hits
    );
}
