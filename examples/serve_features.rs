//! Offline → online: fit once, transform any table, serve single keys.
//!
//! Run with `cargo run --example serve_features`.
//!
//! The historical `FeatAug::augment` was terminal — it returned only the
//! augmented *training* table. This example walks the fit/transform split
//! that replaces it:
//!
//! 1. **fit** on a training split (QTI + SQL Query Generation, offline);
//! 2. **transform** a held-out test split the search never saw — the fitted
//!    model gathers its cached per-group features through the test rows'
//!    keys, paying no new aggregation;
//! 3. **serve** a single key, as an online feature store would per request;
//! 4. ship the portable **plan** as text and recompile it into a fresh
//!    serving model, as a separate serving process would;
//! 5. go **production-shaped**: the fitted model already co-owns its tables
//!    (`Arc`-backed, `Send + 'static`), so move it onto a serving thread and
//!    answer requests through a prepared [`feataug::ServingHandle`] — the
//!    allocation-free hot path (`lookup` into a reused buffer, `lookup_batch`
//!    across the worker pool);
//! 6. put a **survivable front door** on it: a [`feataug::ServingTier`] with
//!    admission control, per-request deadlines with graceful degradation,
//!    and atomic **hot-swap** of a recompiled model under live traffic;
//! 7. **ingest live**: append fresh relevant rows with
//!    `AugModel::append_relevant` — one copy-on-write engine epoch, only the
//!    touched groups recomputed — and watch the already-installed handle
//!    serve the new epoch with no re-prepare and no hot-swap;
//! 8. **shard** the serving layer: hash-partition the relevant table by the
//!    task's key columns into four engines behind a [`feataug::ShardRouter`],
//!    whose `prepare` builds the same [`feataug::ServingHandle`] with one
//!    entry per shard — routed lookups stay bit-identical to the unsharded
//!    path, appends split by the same hash with per-shard epochs under one
//!    router generation, and a per-request deadline is checked before
//!    each key probe of a routed lookup;
//! 9. go **multi-hop**: register a whole schema of tables in a
//!    [`feataug::SchemaGraph`], let budgeted join-path search
//!    ([`feataug::fit_schema`]) decide which paths earn a full search, and
//!    serve a promoted multi-hop plan by recompiling its shipped text
//!    against a freshly registered graph.

use std::sync::Arc;
use std::time::Duration;

use feataug::pipeline::AugModel;
use feataug::schema::{fit_schema, SchemaGraph, SchemaTask};
use feataug::{
    AugPlan, FeatAug, FeatAugConfig, PlannedQuery, PredicateQuery, ServingTier, ShardRouter,
    TierConfig,
};
use feataug_ml::{ModelKind, Task};
use feataug_repro::to_aug_task;
use feataug_tabular::{AggFunc, Predicate, Value};

fn main() {
    // ---- 0. A generated Tmall-style task ---------------------------------------------------
    let dataset = feataug_datagen::tmall::generate(&feataug_datagen::GenConfig::small());
    let full_task = to_aug_task(&dataset);

    // Split the training table by rows: fit on the first 80%, hold out 20%.
    let n = full_task.train.num_rows();
    let fit_rows: Vec<usize> = (0..n * 4 / 5).collect();
    let test_rows: Vec<usize> = (n * 4 / 5..n).collect();
    let mut task = full_task.clone();
    task.train = full_task.train.take(&fit_rows).into();
    let test_split = full_task.train.take(&test_rows);

    // ---- 1. Fit: discover predicate-aware queries offline ----------------------------------
    let model = FeatAug::new(FeatAugConfig::fast(ModelKind::Linear))
        .fit(&task)
        .expect("the generated task is well-formed");
    println!("fitted {} queries:", model.plan().len());
    for (sql, planned) in model.plan().to_sql().iter().zip(&model.plan().queries) {
        println!("  loss {:>8.4}  {sql}", planned.loss);
    }

    // ---- 2. Transform: the training table AND the held-out split ---------------------------
    let augmented_train = model.transform(&task.train).expect("transform train");
    let augmented_test = model.transform(&test_split).expect("transform test split");
    println!(
        "\ntransformed train ({} rows) and held-out test ({} rows) to {} columns each",
        augmented_train.num_rows(),
        augmented_test.num_rows(),
        augmented_test.num_columns(),
    );
    let stats = model.engine_stats();
    println!(
        "engine: {} per-group features cached, {} evaluations total (both transforms reused them)",
        stats.group_features, stats.evaluations
    );

    // ---- 3. Serve: single-key point lookups ------------------------------------------------
    let key: Vec<Value> = task
        .key_columns
        .iter()
        .map(|k| test_split.value(0, k).expect("key value"))
        .collect();
    let features = model.serve(&key).expect("serve");
    println!("\nserve({key:?}):");
    for (name, value) in model.feature_names().iter().zip(&features) {
        match value {
            Some(v) => println!("  {name} = {v}"),
            None => println!("  {name} = NULL"),
        }
    }

    // ---- 4. Ship the plan as text; recompile elsewhere -------------------------------------
    let text = model.plan().to_plan_text();
    println!("\nportable plan artifact ({} bytes):\n{text}", text.len());
    let plan = AugPlan::from_plan_text(&text).expect("round trip");
    assert_eq!(&plan, model.plan());
    let serving = AugModel::compile(plan, &task.train, &task.relevant).expect("plan compiles");
    let reserved = serving.serve(&key).expect("serve from recompiled model");
    assert_eq!(
        reserved
            .iter()
            .map(|v| v.map(f64::to_bits))
            .collect::<Vec<_>>(),
        features
            .iter()
            .map(|v| v.map(f64::to_bits))
            .collect::<Vec<_>>(),
        "a recompiled plan must serve identical features"
    );
    println!("recompiled model serves identical features ✓");

    // ---- 5. Production serving: owned model + prepared lookup handle -----------------------
    // The fitted model already co-owns its tables through the task's `Arc`s
    // (`Send + Sync + 'static`), so it moves onto a serving thread as-is
    // (a separate process would use `AugModel::compile_shared` directly).
    let tier_handle = Arc::new(model.prepare().expect("prepare tier handle"));
    let owned = model;
    let keys: Vec<Vec<Value>> = (0..test_split.num_rows().min(64))
        .map(|row| {
            task.key_columns
                .iter()
                .map(|k| test_split.value(row, k).expect("key value"))
                .collect()
        })
        .collect();
    let expected = features.clone();
    let server = std::thread::spawn(move || {
        let handle = owned.prepare().expect("prepare serving handle");
        // The hot path: reuse one output buffer; warm lookups allocate
        // nothing, render nothing, clone nothing.
        let mut out = Vec::with_capacity(handle.num_features());
        handle.lookup(&keys[0], &mut out).expect("prepared lookup");
        assert_eq!(
            out.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>(),
            expected
                .iter()
                .map(|v| v.map(f64::to_bits))
                .collect::<Vec<_>>(),
            "the prepared handle must serve exactly what `serve` served"
        );
        // And the batch form fans across the worker pool.
        let batch = handle.lookup_batch(&keys).expect("batch lookup");
        (handle.num_features(), batch.len())
    });
    let (n_features, n_served) = server.join().expect("serving thread");
    println!(
        "owned model served {n_features} features x {n_served} keys from a spawned thread \
         via the prepared handle ✓"
    );

    // ---- 6. Survivable front door: admission control, deadlines, hot-swap ------------------
    // The tier queues requests behind a bounded admission gate, applies a
    // per-request deadline (degrading to the documented all-NULL row instead
    // of erroring when one fires), and serves from an epoch cell a
    // background refit can atomically swap.
    let bits = |row: &[Option<f64>]| row.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>();
    let tier = ServingTier::new(
        Arc::clone(&tier_handle),
        TierConfig {
            default_deadline: Some(Duration::from_millis(50)),
            ..TierConfig::default()
        },
    );
    let row = tier.lookup(&key).expect("tier lookup");
    assert_eq!(
        bits(&row),
        bits(&features),
        "the tier must answer exactly what the handle answers"
    );
    println!(
        "\ntier answered through admission control (generation {}) ✓",
        tier.generation()
    );

    // A "background refit" ships its plan; recompile against the shared
    // tables and hot-swap it in — lookups in flight finish on the model
    // their batch pinned, the next batch serves the new one.
    let shipped = AugPlan::from_plan_text(&text).expect("round trip");
    let next = AugModel::compile_shared(shipped, task.train.clone(), task.relevant.clone())
        .expect("plan compiles");
    let generation = tier.install(Arc::new(next.prepare().expect("prepare swapped handle")));
    let after = tier.lookup(&key).expect("tier lookup after swap");
    assert_eq!(
        bits(&after),
        bits(&row),
        "same plan over the same tables must serve identical features"
    );
    let stats = tier.stats();
    println!(
        "hot-swapped to generation {generation} under a live tier \
         (submitted {} answered {} shed {} degraded {}) ✓",
        stats.submitted, stats.answered, stats.shed, stats.degraded
    );

    // ---- 7. Live ingestion: append relevant rows under the live tier -----------------------
    // Fresh relevant rows arrive while the tier keeps serving.
    // `append_relevant` publishes them as one copy-on-write engine epoch:
    // only the touched groups are recomputed, untouched compiled artifacts
    // are `Arc`-shared with the prior epoch, and no lookup ever blocks
    // behind the ingest. The handle installed in step 6 follows its engine's
    // epochs by itself — no re-prepare, no hot-swap.
    let replay_rows: Vec<usize> = (0..task.relevant.num_rows().min(32)).collect();
    let fresh_rows = task.relevant.take(&replay_rows);
    let epoch = next
        .append_relevant(&fresh_rows)
        .expect("append relevant rows");
    println!(
        "\nappended {} relevant rows as epoch {} ({} groups touched, {} new, {} total rows)",
        epoch.appended_rows, epoch.epoch, epoch.touched_groups, epoch.new_groups, epoch.total_rows
    );
    let live = tier.lookup(&key).expect("tier lookup after append");
    assert_eq!(live.len(), row.len());
    println!(
        "tier serves the appended epoch live (engine epoch {}) with no re-prepare ✓",
        next.epoch()
    );

    // ---- 8. Key-sharded serving: partitioned engines behind one router ---------------------
    // Hash-partition the relevant table by the task's key columns into four
    // shard engines behind one router. Full-key queries co-locate every
    // group on exactly one shard, so routed answers are bit-identical to the
    // unsharded path. `router.prepare` returns the same `ServingHandle` type
    // as `model.prepare`, so the tier serves it as is, and a per-request
    // deadline is checked before each key probe (a lookup that runs past it
    // degrades to the all-NULL row).
    let shard_planned: Vec<PlannedQuery> = AggFunc::basic()
        .iter()
        .map(|&agg| PlannedQuery {
            query: PredicateQuery {
                agg,
                agg_column: dataset.agg_columns[0].clone(),
                predicate: Predicate::True,
                group_keys: task.key_columns.clone(),
            },
            loss: 0.0,
        })
        .collect();
    let shard_plan = AugPlan::new(
        task.relevant.name(),
        task.key_columns.clone(),
        shard_planned,
    );
    let router = ShardRouter::build_for_plan(task.train.clone(), &task.relevant, &shard_plan, 4)
        .expect("shard router builds");
    let sharded = router.prepare(&shard_plan).expect("prepare sharded");
    let shard_tier = ServingTier::new(sharded, TierConfig::default());
    let sharded_row = shard_tier
        .lookup_deadline(&key, Duration::from_millis(50))
        .expect("sharded tier lookup");
    println!(
        "\nsharded tier (4 shards) answered {} features under a 50ms deadline ✓",
        sharded_row.len()
    );
    // Live append through the router: the batch splits by the same key hash,
    // each shard publishes its own epoch, and the installed handle follows
    // with no re-prepare.
    router.append_relevant(&fresh_rows).expect("sharded append");
    let after_append = shard_tier
        .lookup(&key)
        .expect("sharded lookup after append");
    assert_eq!(after_append.len(), sharded_row.len());
    println!(
        "router generation {} after a hash-split append, served live ✓",
        router.generation()
    );

    // ---- 9. Multi-hop schemas: budgeted join-path search -----------------------------------
    // The generated Instacart schema plants its signal two joins away from
    // the training table (`users → orders → order_items → products`): no
    // single relevant table sees both `order_hour` and `department`.
    // Register the catalog once, then let path search enumerate every
    // acyclic join path to the hop cap, proxy-score each, and promote only
    // the budgeted best to a full search.
    let schema = feataug_datagen::instacart::generate_schema(&feataug_datagen::GenConfig::tiny());
    let mut graph = SchemaGraph::new();
    graph
        .register(schema.train.clone())
        .expect("register train");
    for table in &schema.tables {
        graph.register(table.clone()).expect("register table");
    }
    for edge in &schema.edges {
        let left: Vec<&str> = edge.left_keys.iter().map(|s| s.as_str()).collect();
        let right: Vec<&str> = edge.right_keys.iter().map(|s| s.as_str()).collect();
        graph
            .declare_edge(&edge.left, &edge.right, &left, &right)
            .expect("declare edge");
    }
    let schema_task = SchemaTask::new(
        graph,
        schema.train.name(),
        schema.label_column.as_str(),
        Task::BinaryClassification,
    )
    .with_max_hops(2)
    .with_path_budget(1)
    .with_agg_columns(vec!["price".into(), "cart_position".into()])
    .with_predicate_attrs(vec!["department".into(), "order_hour".into()]);
    let fitted = fit_schema(&FeatAugConfig::fast(ModelKind::Linear), &schema_task)
        .expect("the generated schema task is well-formed");
    let stats = fitted.stats();
    println!(
        "\npath search: {} candidate paths, {} promoted under the budget",
        stats.candidates, stats.promoted
    );
    for (path, score) in stats.scores.iter().map(|s| (&s.path, s.score)) {
        println!("  proxy {score:>8.4}  {}", path.view_name());
    }

    // A promoted plan carries its hop route in the plan text (`AUGPLAN 2`);
    // a serving process recompiles it against its own registered graph and
    // answers point lookups exactly like the single-table path above.
    let plan = fitted.plans().into_iter().next().expect("a promoted plan");
    let shipped = AugPlan::from_plan_text(&plan.to_plan_text()).expect("round trip");
    let served = schema_task
        .graph
        .compile(schema.train.name(), shipped)
        .expect("recompile against the registered schema");
    let handle = served.prepare().expect("prepare schema serving handle");
    let schema_key: Vec<Value> = schema
        .key_columns
        .iter()
        .map(|k| schema.train.value(0, k).expect("key value"))
        .collect();
    let mut out = Vec::with_capacity(handle.num_features());
    handle
        .lookup(&schema_key, &mut out)
        .expect("multi-hop lookup");
    println!(
        "recompiled multi-hop plan ({} hops) serves {} features for {schema_key:?} ✓",
        fitted.paths()[0].hops.len(),
        out.len()
    );
}
