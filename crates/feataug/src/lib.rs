//! # feataug
//!
//! A Rust reproduction of **FeatAug** (Qi, Zheng, Wang — ICDE 2024): automatic feature
//! augmentation from one-to-many relationship tables via predicate-aware SQL query generation.
//!
//! Given a training table `D`, a relevant table `R` with a foreign key into `D`, and a
//! downstream ML model, FeatAug searches for group-by aggregation queries *with predicates*
//!
//! ```sql
//! SELECT k, agg(a) AS feature FROM R
//! WHERE pred(p1) AND ... AND pred(pw)
//! GROUP BY k
//! ```
//!
//! whose result, left-joined onto `D`, most improves the model's validation performance.
//!
//! The crate is organised around the paper's two components:
//!
//! * [`generation`] — **SQL Query Generation** (paper Section V): the query pool of a fixed
//!   [`template::QueryTemplate`] is encoded as a hyperparameter space ([`query::QueryCodec`])
//!   and searched with TPE, warm-started from a low-cost proxy ([`proxy::LowCostProxy`]).
//! * [`template_id`] — **Query Template Identification** (paper Section VI): beam search over
//!   attribute combinations for the `WHERE` clause, accelerated by the proxy (Optimization 1)
//!   and a learned template-performance predictor (Optimization 2).
//!
//! [`pipeline::FeatAug`] glues the two together into the end-to-end system evaluated in the
//! paper, and [`baselines`] contains the comparison methods (Featuretools + selectors, Random,
//! ARDA-style, AutoFeature-style).
//!
//! ## The query execution engine
//!
//! Both search components funnel every candidate through **one shared** [`exec::QueryEngine`]
//! per `(train, relevant)` pair — a compiled, cache-reusing, thread-parallel evaluator. Its
//! immutable compiled core (shared by every handle and worker thread):
//!
//! * a **group index per group-key subset** `k ⊆ K` — dense group ids over the relevant table
//!   plus a train-row → group gather map with categorical dictionary codes translated between
//!   the tables once (no joins, no string keys at evaluation time);
//! * a **numeric view per column** touched by aggregations or range predicates, plus sorted /
//!   inverted predicate indexes;
//! * one **feature memo** of per-group aggregates, read by search-time evaluation (TPE's
//!   near-duplicate resamples skip whole aggregations) and by transform, lookup and serving
//!   alike.
//!
//! Per-worker scratch (selection bitmasks, aggregation buffers) lives in a pool, and
//! [`exec::QueryEngine::evaluate_batch`] fans candidate pools across a
//! [`std::thread::scope`]-based worker pool sized by pool cost
//! ([`exec::workers_for_pool`]; `FEATAUG_THREADS` overrides). The engine is `Clone` — clones
//! are cheap handles onto the same caches, which is how the pipeline shares one engine across
//! QTI, generation and the baselines. Output is bit-for-bit identical to the reference path
//! ([`query::PredicateQuery::augment`]) at any thread count; the reference stays in place as
//! the semantic specification and the equivalence is enforced by property tests over randomized
//! query pools at several worker counts.
//!
//! ## Fit / transform / serve
//!
//! Discovery is the expensive, offline half; applying the discovered queries
//! to *unseen* rows is where they earn their keep. The top-level API splits
//! accordingly:
//!
//! * [`pipeline::FeatAug::fit`] validates the task ([`problem::AugTask::validate`] — a
//!   malformed task returns an [`problem::AugTaskError`] instead of panicking mid-search),
//!   runs QTI + generation, and returns an [`pipeline::AugModel`];
//! * [`pipeline::AugModel::transform`] materialises every planned feature onto **any** table
//!   carrying the key columns (train, test split, live batch) — each query's aggregation runs
//!   once per model, memoized per-group in the engine core, so N tables pay N gathers and one
//!   aggregation;
//! * [`pipeline::AugModel::serve`] answers single-key point lookups from the same cached
//!   per-group features — the online half of offline→online;
//! * [`pipeline::AugModel::prepare`] builds a [`serving::ServingHandle`] — the production
//!   form of `serve`: every planned query resolved to an interned feature slot, every key
//!   subset to a pre-built key→group probe, so the warm lookup path is hash probes plus a
//!   slice copy with **zero heap allocation** (and `lookup_batch` fans across the worker
//!   pool). [`serving::shard::ShardRouter::prepare`] builds the same handle over every
//!   shard of a key-sharded router;
//! * [`pipeline::FeatAug::fit`] / [`pipeline::AugModel::compile_shared`] /
//!   [`pipeline::AugModel::into_owned`] produce an [`pipeline::OwnedAugModel`]
//!   (`Arc`-backed tables, `Send + Sync + 'static`) that can live in a long-running
//!   serving process with no caller-held tables; [`multi::fit_multi`] does the same per
//!   relevant source;
//! * [`query::AugPlan`] is the portable artifact in between: plain-data queries, renderable to
//!   SQL ([`query::AugPlan::to_sql`]) and round-trippable through a hand-rolled text format
//!   ([`query::AugPlan::to_plan_text`] / [`query::AugPlan::from_plan_text`]), recompiled into
//!   a serving model by [`pipeline::AugModel::compile`];
//! * [`pipeline::FeatAug::augment`] survives as a thin `fit` + `transform(train)` wrapper,
//!   bit-identical to the historical one-shot pipeline.
//!
//! ## Live ingestion: epoch-versioned engine core
//!
//! The engine core is a **copy-on-write epoch**:
//! [`exec::QueryEngine::append_relevant`] ingests a batch of new
//! relevant-table rows by building the next epoch off to the side — only the
//! touched groups are recomputed (streaming aggregates resume per-group delta
//! accumulators, order-stat indexes merge the batch as lazy per-group sorted
//! runs, untouched artifacts are shared with the prior epoch by `Arc`) — and
//! publishing it with one atomic swap. Readers never block behind ingestion:
//! every lookup/transform/batch pins one epoch, in-flight work finishes on
//! the epoch it pinned, and the next request observes the append atomically.
//! Prepared [`serving::ServingHandle`]s follow the epochs by themselves, and
//! results after an append are property-tested bit-identical to a full refit
//! over the concatenated table.
//!
//! ## Multi-hop schemas: join-path search over a table graph
//!
//! Real warehouses rarely hand FeatAug its one relevant table; the signal
//! may sit two joins away. [`schema::SchemaGraph`] is the catalog: register
//! every table once, declare foreign-key edges (arity- and type-checked),
//! or let [`schema::SchemaGraph::infer_edges`] propose joinability edges
//! from key-name/type agreement plus value-containment sampling. From
//! there, [`schema::enumerate_paths`] walks acyclic [`schema::JoinPath`]s
//! to a hop cap, and [`schema::fit_schema`] runs the FeatNavigator/ARDA-
//! style budget: every candidate path gets a low-cost proxy score, only
//! the top `path_budget` paths are promoted to a full TPE search. A
//! promoted path is compiled by composing per-hop gather maps into one
//! virtual relevant view — bit-identical to the eagerly pre-joined table,
//! property-tested — which the existing [`exec::QueryEngine`] consumes
//! unchanged. [`multi::fit_multi`] is the degenerate depth-1 case. Fitted
//! plans carry their hops through the versioned plan text (`AUGPLAN 2`)
//! and recompile against a registered graph on the serving side via
//! [`schema::SchemaGraph::compile`].
//!
//! ## Invariants as static analysis
//!
//! The conventions the serving stack relies on — no panics reachable from a
//! lookup, poison-tolerant lock access in a declared order, zero allocation
//! on the warm path, `catch_unwind` around every worker closure, failpoint
//! names in sync with the chaos suite — are enforced statically by the
//! workspace's own lint pass (`cargo run -p feataug-lint -- --deny`; CI's
//! `invariants` job). The lints, the `// lint: allow(...)` suppression
//! grammar, and the invariant each encodes are documented in
//! `crates/lint/README.md`.
//!
//! ## Quickstart
//!
//! ```no_run
//! use feataug::pipeline::{AugModel, FeatAug, FeatAugConfig};
//! use feataug::problem::AugTask;
//! use feataug::query::AugPlan;
//! use feataug_ml::{ModelKind, Task};
//! use feataug_tabular::Value;
//!
//! # fn get_tables() -> (feataug_tabular::Table, feataug_tabular::Table, feataug_tabular::Table) { unimplemented!() }
//! let (train, test, relevant) = get_tables();
//! let task = AugTask::new(train, relevant, vec!["user_id".into()], "label", Task::BinaryClassification)
//!     .with_agg_columns(vec!["pprice".into()])
//!     .with_predicate_attrs(vec!["department".into(), "timestamp".into()]);
//!
//! // Offline: discover predicate-aware aggregation queries once.
//! let model = FeatAug::new(FeatAugConfig::fast(ModelKind::Linear)).fit(&task)?;
//! for sql in model.plan().to_sql() {
//!     println!("{sql}");
//! }
//!
//! // Apply them to the training table AND to unseen rows.
//! let augmented_train = model.transform(&task.train)?;
//! let augmented_test = model.transform(&test)?;
//!
//! // Online: point lookups straight from the cached per-group features.
//! let features = model.serve(&[Value::Str("alice".into())])?;
//!
//! // Production serving: the fitted model is already owned (`Arc`-backed,
//! // Send + Sync + 'static) — prepare the allocation-free lookup handle.
//! let handle = model.prepare()?;
//! let mut out = Vec::new();
//! handle.lookup(&[Value::Str("alice".into())], &mut out)?; // zero-alloc warm path
//!
//! // Live ingestion: append new relevant rows as one atomic epoch. Only the
//! // touched groups are recomputed; concurrent lookups never block, and the
//! // prepared handle serves the new epoch on its next request.
//! # fn get_new_rows() -> feataug_tabular::Table { unimplemented!() }
//! let epoch = model.append_relevant(&get_new_rows())?;
//! println!("epoch {}: +{} rows, {} groups touched", epoch.epoch, epoch.appended_rows, epoch.touched_groups);
//! handle.lookup(&[Value::Str("alice".into())], &mut out)?; // sees the appended rows
//!
//! // Survivable serving: an admission-controlled tier in front of the handle
//! // (bounded queue, deadlines, load shedding, graceful degradation) that
//! // also supports atomic hot-swap of a recompiled model.
//! let tier = feataug::ServingTier::new(std::sync::Arc::new(handle), feataug::TierConfig::default());
//! let features = tier.lookup(&[Value::Str("alice".into())])?;
//!
//! // Ship the plan as text; recompile it elsewhere (borrowed or Arc-owned).
//! let text = model.plan().to_plan_text();
//! let plan = AugPlan::from_plan_text(&text).unwrap();
//! let serving = AugModel::compile_shared(plan, task.train.clone(), task.relevant.clone())?;
//! let swapped_in = serving.prepare()?;
//! tier.install(std::sync::Arc::new(swapped_in)); // atomic hot-swap; warm lookups never block
//! std::thread::spawn(move || serving.serve(&[Value::Str("alice".into())])); // Send + 'static
//!
//! // Key-sharded serving: partition the relevant table by a hash of the
//! // task's key columns into N independent shard engines behind one router.
//! // Routed lookups are bit-identical to the unsharded path; appends split
//! // by the same hash, each shard publishing its own epochs under a single
//! // router generation. `router.prepare` builds the same `ServingHandle` as
//! // `model.prepare`, one entry per shard, so the tier serves it as is. A
//! // request's deadline is checked before each key probe, so a lookup that
//! // runs past it stops there (surfacing as the same all-NULL degradation
//! // as a deadline observed at a batch boundary).
//! use feataug::ShardRouter;
//! let plan = model.plan().clone();
//! let router = ShardRouter::build_for_plan(task.train.clone(), &task.relevant, &plan, 4)?;
//! let sharded = router.prepare(&plan)?;
//! let shard_tier = feataug::ServingTier::new(sharded, feataug::TierConfig::default());
//! let row = shard_tier.lookup_deadline(
//!     &[Value::Str("alice".into())],
//!     std::time::Duration::from_micros(250),
//! )?;
//! router.append_relevant(&get_new_rows())?; // hash-split across shards; handles follow live
//!
//! // Multi-hop: register the whole schema (declared foreign keys, plus
//! // sampled joinability inference) and let budgeted path search decide
//! // which join paths earn a full search. Promoted paths fit through a
//! // composed gather-map view; their plans carry the hops and recompile
//! // against a registered graph on the serving side.
//! use feataug::schema::{SchemaGraph, SchemaTask};
//! # fn get_more_tables() -> (feataug_tabular::Table, feataug_tabular::Table) { unimplemented!() }
//! let (order_items, products) = get_more_tables();
//! let mut graph = SchemaGraph::new();
//! graph.register(task.train.clone())?; // the training table, named "train"
//! graph.register(task.relevant.clone())?; // one hop away: "orders"
//! graph.register(order_items)?; // two hops away
//! graph.register(products)?; // three hops away
//! graph.declare_edge("train", "orders", &["user_id"], &["user_id"])?;
//! graph.declare_edge("orders", "order_items", &["order_id"], &["order_id"])?;
//! graph.infer_edges(&Default::default())?; // e.g. order_items.product_id ⊆ products.product_id
//! let schema_task = SchemaTask::new(graph, "train", "label", Task::BinaryClassification)
//!     .with_max_hops(2)
//!     .with_path_budget(2);
//! let fitted = feataug::fit_schema(&FeatAugConfig::fast(ModelKind::Linear), &schema_task)?;
//! println!("{} paths enumerated, {} promoted", fitted.stats().candidates, fitted.stats().promoted);
//! let augmented = fitted.transform(&task.train)?; // union of every promoted path's features
//! for plan in fitted.plans() {
//!     let text = plan.to_plan_text(); // `AUGPLAN 2`, one `hop` line per join
//!     let served = schema_task.graph.compile("train", AugPlan::from_plan_text(&text).unwrap())?;
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod baselines;
pub mod encoding;
pub mod evaluation;
pub mod exec;
#[cfg(any(test, feature = "failpoints"))]
pub mod failpoint;
pub mod generation;
pub mod multi;
pub mod pipeline;
pub mod problem;
pub mod proxy;
pub mod query;
pub mod schema;
pub mod serving;
pub mod template;
pub mod template_id;

pub use exec::{
    default_workers, workers_for_pool, EngineError, EngineResult, EngineStats, Epoch, EpochCell,
    QueryEngine, TableHandle,
};
pub use pipeline::{AugModel, FeatAug, FeatAugConfig, FeatAugResult, OwnedAugModel};
pub use problem::{AugTask, AugTaskError};
pub use proxy::LowCostProxy;
pub use query::{
    AugPlan, PlanAnalysisError, PlanHop, PlanParseError, PlanParseErrorKind, PlannedQuery,
    PredicateQuery, QueryCodec,
};
pub use schema::{fit_schema, JoinPath, SchemaAugModel, SchemaError, SchemaGraph, SchemaTask};
pub use serving::shard::{ShardEpoch, ShardRouter};
pub use serving::tier::{ServingTier, TierConfig, TierError, TierStats};
pub use serving::ServingHandle;
pub use template::QueryTemplate;

/// Evaluate a named failpoint (see [`failpoint`]). Expands to nothing unless
/// the build carries the `failpoints` feature or is the crate's own test
/// build, so production binaries pay zero cost at every site.
#[cfg(any(test, feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        $crate::failpoint::eval($name)
    };
}

/// No-op form of [`fail_point!`] for builds without the fault-injection
/// harness.
#[cfg(not(any(test, feature = "failpoints")))]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {};
}
