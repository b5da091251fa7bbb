//! QueryEngine vs. naive candidate evaluation on the tmall micro-bench,
//! recorded as `BENCH_exec.json` so the repository's perf trajectory has a
//! machine-readable data point per change.
//!
//! Run: `cargo run --release -p feataug-bench --bin bench_exec`
//!
//! Six candidate pools are measured, each through three paths — the
//! reference `PredicateQuery::augment` path, the compiled [`QueryEngine`]
//! evaluating serially, and the engine's thread-parallel
//! [`QueryEngine::feature_batch`] at [`feataug::default_workers`] workers
//! (a fresh engine per round on every path, so compilation is paid exactly
//! as one search pays it):
//!
//! * `basic_aggs` — random queries over the five cheap aggregation functions
//!   (`FeatAugConfig::fast`'s set). This is the headline number: it isolates
//!   the evaluation machinery (filter, group, join vs. mask, gather) that the
//!   engine replaces.
//! * `all_aggs` — random queries over all fifteen functions.
//! * `order_stats` — random queries over the order-statistic family
//!   (`MEDIAN`, `MAD`, `MODE`, `ENTROPY`, `COUNT_DISTINCT`): the reference
//!   path pays a copy + sort per candidate group, the engine merges
//!   selections out of its memoized sorted-group value index. Recorded as
//!   the top-level `order_stat_speedup`.
//! * `moments` — random queries over the two-pass moment family (`VAR`,
//!   `VAR_SAMPLE`, `STD`, `STD_SAMPLE`, `KURTOSIS`), streamed without
//!   per-group value buffers. Recorded as the top-level `moment_speedup`.
//! * `dfs_trivial` — trivial-predicate, full-key queries (the Featuretools
//!   pool shape): the reference path clones and re-groups the whole table,
//!   the engine gathers from its cached index.
//! * `order_trivial` — trivial-predicate order statistics: every candidate
//!   reads its groups' memoized pre-sorted runs in place, no copy and no
//!   per-candidate sort at all.
//!
//! `batch_speedup` is batch-vs-naive (same baseline as `speedup`);
//! `batch_vs_engine` isolates what threading adds over the serial engine and
//! is ~1.0 on a single-core machine — the recorded `workers` count says which
//! regime produced the numbers.
//!
//! `transform_rows_per_sec` measures the offline→online serving path: a
//! compiled `AugModel` (a plan of 16 mixed queries) transforming a fresh
//! table 10× the training table's size, model reused across rounds so the
//! steady-state number isolates the key-mapping + gather cost that every
//! served table pays (the per-group aggregation is paid once, on round one).
//! `parallel_transform_speedup` is the same workload's serial-vs-fanned
//! ratio (`QueryEngine::transform_threads` at 1 worker vs the pool-sized
//! default — ~1.0 on a single-core machine, like `batch_vs_engine`), and
//! `serve_lookups_per_sec` drives the prepared [`feataug::ServingHandle`]
//! warm: single-key lookups into a reused buffer, the zero-allocation
//! online hot path.
//!
//! The sharded section drives the same workload through a 4-way
//! [`feataug::ShardRouter`]: `shard_lookups_per_sec` is the warm routed
//! hot path (hash + owning-shard probe on top of the prepared lookup),
//! `shard_count` records the partition width, and `cancelled_rate` counts
//! the closed-loop tier requests whose tight deadline passed inside the
//! lookup's probe loop (0.0 when warm lookups beat the deadline — the
//! field exists so the trajectory is visible once they don't).
//!
//! The schema section exercises the multi-hop front end on the generated
//! Instacart schema (`users → orders → order_items → products`):
//! `path_search_candidates` counts every join path enumerated to the hop
//! cap, `paths_promoted` counts the strictly-fewer paths the proxy gate
//! promoted to a full search, and `hop2_transform_rows_per_sec` drives a
//! compiled 2-hop plan over a 10×-sized training table — the steady-state
//! cost of serving through a composed gather-map view instead of a
//! hand-maintained pre-joined table.

use std::time::Instant;

use feataug::exec::QueryEngine;
use feataug::pipeline::AugModel;
use feataug::schema::{enumerate_paths, fit_schema, SchemaGraph, SchemaTask};
use feataug::{
    AugPlan, FeatAugConfig, PlanHop, PlannedQuery, PredicateQuery, QueryCodec, QueryTemplate,
    ShardRouter,
};
use feataug_datagen::{instacart, tmall, GenConfig};
use feataug_ml::{ModelKind, Task};
use feataug_tabular::{AggFunc, Predicate, Table, Value};

use rand::rngs::StdRng;
use rand::SeedableRng;

const N_QUERIES: usize = 96;
const ROUNDS: usize = 5;

struct PoolResult {
    name: &'static str,
    naive_us: f64,
    engine_us: f64,
    batch_us: f64,
}

impl PoolResult {
    fn speedup(&self) -> f64 {
        self.naive_us / self.engine_us
    }

    fn batch_speedup(&self) -> f64 {
        self.naive_us / self.batch_us
    }

    fn batch_vs_engine(&self) -> f64 {
        self.engine_us / self.batch_us
    }
}

fn sample_pool(
    aggs: &[AggFunc],
    ds: &feataug_datagen::SyntheticDataset,
    seed: u64,
) -> Vec<PredicateQuery> {
    let template = QueryTemplate::new(
        aggs.to_vec(),
        ds.agg_columns.clone(),
        ds.predicate_attrs.clone(),
        ds.key_columns.clone(),
    );
    let codec = QueryCodec::build(&template, &ds.relevant).expect("codec over tmall");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N_QUERIES)
        .map(|_| codec.decode(&codec.space().sample(&mut rng)))
        .collect()
}

fn time_pool(
    name: &'static str,
    pool: &[PredicateQuery],
    train: &Table,
    relevant: &Table,
    workers: usize,
) -> PoolResult {
    // Checksums keep all paths honest about doing identical work.
    let mut naive_checksum = 0usize;
    let mut engine_checksum = 0usize;
    let mut batch_checksum = 0usize;
    let mut naive_best = f64::INFINITY;
    let mut engine_best = f64::INFINITY;
    let mut batch_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for q in pool {
            let (augmented, fname) = q.augment(train, relevant).expect("naive path");
            naive_checksum += augmented.column(&fname).map(|c| c.len()).unwrap_or(0);
        }
        naive_best = naive_best.min(start.elapsed().as_nanos() as f64 / pool.len() as f64);

        let start = Instant::now();
        let engine = QueryEngine::new(train, relevant);
        for q in pool {
            let (_, values) = engine.feature(q).expect("engine path");
            engine_checksum += values.len();
        }
        engine_best = engine_best.min(start.elapsed().as_nanos() as f64 / pool.len() as f64);

        let start = Instant::now();
        let batch_engine = QueryEngine::new(train, relevant);
        for result in batch_engine.feature_batch_threads(pool, workers) {
            let (_, values) = result.expect("batch path");
            batch_checksum += values.len();
        }
        batch_best = batch_best.min(start.elapsed().as_nanos() as f64 / pool.len() as f64);
    }
    assert_eq!(
        naive_checksum, engine_checksum,
        "{name}: paths did different work"
    );
    assert_eq!(
        naive_checksum, batch_checksum,
        "{name}: batch path did different work"
    );
    PoolResult {
        name,
        naive_us: naive_best / 1e3,
        engine_us: engine_best / 1e3,
        batch_us: batch_best / 1e3,
    }
}

fn main() {
    let gen_cfg = GenConfig {
        n_entities: 800,
        fanout: 12,
        n_noise_cols: 1,
        seed: 3,
    };
    let ds = tmall::generate(&gen_cfg);
    let workers = feataug::default_workers();

    let basic = sample_pool(AggFunc::basic(), &ds, 11);
    let all = sample_pool(AggFunc::all(), &ds, 12);
    let order_stats = sample_pool(
        &[
            AggFunc::Median,
            AggFunc::Mad,
            AggFunc::Mode,
            AggFunc::Entropy,
            AggFunc::CountDistinct,
        ],
        &ds,
        13,
    );
    let moments = sample_pool(
        &[
            AggFunc::Var,
            AggFunc::VarSample,
            AggFunc::Std,
            AggFunc::StdSample,
            AggFunc::Kurtosis,
        ],
        &ds,
        14,
    );
    let mut dfs: Vec<PredicateQuery> = Vec::new();
    for &agg in AggFunc::basic() {
        for col in &ds.agg_columns {
            dfs.push(PredicateQuery {
                agg,
                agg_column: col.clone(),
                predicate: Predicate::True,
                group_keys: ds.key_columns.clone(),
            });
        }
    }
    // Trivial-predicate order statistics (the Featuretools pool shape for the
    // expensive half of Table II): each candidate reads its groups' memoized
    // pre-sorted runs in place — the shape where the order index pays most.
    let mut order_trivial: Vec<PredicateQuery> = Vec::new();
    for &agg in &[
        AggFunc::Median,
        AggFunc::Mad,
        AggFunc::Mode,
        AggFunc::Entropy,
        AggFunc::CountDistinct,
    ] {
        for col in &ds.agg_columns {
            order_trivial.push(PredicateQuery {
                agg,
                agg_column: col.clone(),
                predicate: Predicate::True,
                group_keys: ds.key_columns.clone(),
            });
        }
    }

    // ---- Transform throughput (the offline→online serving path) -----------
    // A fitted plan (a mixed pool of planned queries) applied to a fresh
    // table 10× the training table's size, reusing one compiled `AugModel`
    // across rounds exactly as a serving process would: the per-group
    // aggregation is paid on the first round, so the best-of-rounds time
    // measures steady-state transform (key mapping + gather) throughput.
    let planned: Vec<PlannedQuery> = basic
        .iter()
        .take(12)
        .chain(order_stats.iter().take(4))
        .map(|q| PlannedQuery {
            query: q.clone(),
            loss: 0.0,
        })
        .collect();
    let n_planned = planned.len();
    let plan = AugPlan::new(ds.relevant.name(), ds.key_columns.clone(), planned);
    // Shared table ownership: the serving tier (and the ingest harness's
    // scoped lookup threads) need a `'static` handle.
    let model = AugModel::compile_shared(
        plan,
        std::sync::Arc::new(ds.train.clone()),
        std::sync::Arc::new(ds.relevant.clone()),
    )
    .expect("plan compiles");
    let train_rows = ds.train.num_rows();
    let big_indices: Vec<usize> = (0..train_rows * 10).map(|i| i % train_rows).collect();
    let big = ds.train.take(&big_indices);
    let mut transform_best = f64::INFINITY;
    let mut transform_cols = 0usize;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let out = model.transform(&big).expect("transform path");
        transform_best = transform_best.min(start.elapsed().as_secs_f64());
        transform_cols = out.num_columns();
    }
    let transform_rows_per_sec = big.num_rows() as f64 / transform_best;

    // ---- Parallel transform: serial vs pool-sized fan-out -----------------
    // Same workload through the engine-level entry point at 1 worker and at
    // the pool-sized count; per-group aggregations are already memoized, so
    // the ratio isolates what fanning the gathers adds.
    let planned_queries: Vec<PredicateQuery> = model
        .plan()
        .queries
        .iter()
        .map(|p| p.query.clone())
        .collect();
    let transform_workers = feataug::workers_for_pool(planned_queries.len());
    let mut serial_best = f64::INFINITY;
    let mut parallel_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let serial_out = model
            .engine()
            .transform_threads(&planned_queries, &big, 1)
            .expect("serial transform");
        serial_best = serial_best.min(start.elapsed().as_secs_f64());

        // Release the serial output before timing the fanned run: holding it
        // across the second call forces that call onto fresh (cold) pages
        // while the first reuses the previous round's freed ones — an
        // allocator artifact that read as a phantom parallel regression on
        // single-CPU hosts where both calls take the identical serial path.
        let serial_cols = serial_out.len();
        drop(serial_out);

        let start = Instant::now();
        let parallel_out = model
            .engine()
            .transform_threads(&planned_queries, &big, transform_workers)
            .expect("parallel transform");
        parallel_best = parallel_best.min(start.elapsed().as_secs_f64());
        assert_eq!(serial_cols, parallel_out.len());
    }
    let parallel_transform_speedup = serial_best / parallel_best;

    // ---- Prepared serving lookups (the online hot path) -------------------
    // One warm `ServingHandle`, single-key lookups into a reused buffer over
    // every train key: the steady-state request rate a feature server sees.
    let handle = model.prepare().expect("prepare serving handle");
    let serve_keys: Vec<Vec<Value>> = (0..train_rows)
        .map(|row| {
            ds.key_columns
                .iter()
                .map(|k| ds.train.value(row, k).expect("key value"))
                .collect()
        })
        .collect();
    let mut lookup_out: Vec<Option<f64>> = Vec::with_capacity(handle.num_features());
    let mut lookup_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for key in &serve_keys {
            handle
                .lookup(key, &mut lookup_out)
                .expect("prepared lookup");
            // Keep dead-code elimination away without timing any per-lookup
            // bookkeeping — the metric must measure the lookup alone.
            std::hint::black_box(&lookup_out);
        }
        lookup_best = lookup_best.min(start.elapsed().as_secs_f64());
    }
    // Outside the timed region: the warm path must actually hit features.
    let lookup_hits: usize = serve_keys
        .iter()
        .map(|key| {
            handle
                .lookup(key, &mut lookup_out)
                .expect("prepared lookup");
            lookup_out.iter().filter(|v| v.is_some()).count()
        })
        .sum();
    assert!(lookup_hits > 0, "warm lookups must hit some features");
    let serve_lookups_per_sec = serve_keys.len() as f64 / lookup_best;

    // ---- Serving-tier latency distribution (the survivable front door) ----
    // A closed-loop load generator: N client threads drive the admission-
    // controlled `ServingTier`, each waiting for its answer before the next
    // submit, per-request wall clock collected. p50/p99 record the tail a
    // deadline policy would be tuned against; `shed_rate` records admission
    // control's refusals (0.0 when a closed loop never outruns the workers —
    // the field's trajectory matters under future overload shapes).
    let tier_handle = std::sync::Arc::new(model.prepare().expect("prepare tier handle"));
    let tier = feataug::ServingTier::new(
        std::sync::Arc::clone(&tier_handle),
        feataug::TierConfig::default(),
    );
    const TIER_CLIENTS: usize = 4;
    const TIER_REQUESTS_PER_CLIENT: usize = 2_000;
    let mut latencies_us: Vec<f64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..TIER_CLIENTS)
            .map(|c| {
                let tier = &tier;
                let serve_keys = &serve_keys;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(TIER_REQUESTS_PER_CLIENT);
                    for i in 0..TIER_REQUESTS_PER_CLIENT {
                        let key = &serve_keys[(c + i * TIER_CLIENTS) % serve_keys.len()];
                        let start = Instant::now();
                        match tier.lookup(key) {
                            Ok(row) => {
                                std::hint::black_box(&row);
                                local.push(start.elapsed().as_nanos() as f64 / 1e3);
                            }
                            Err(feataug::TierError::Shed { .. }) => {}
                            Err(e) => panic!("tier load generator hit {e}"),
                        }
                    }
                    local
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("tier client thread"))
            .collect()
    });
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let percentile = |sorted: &[f64], p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx]
    };
    let p50_lookup_us = percentile(&latencies_us, 0.50);
    let p99_lookup_us = percentile(&latencies_us, 0.99);
    let tier_stats = tier.stats();
    assert_eq!(
        tier_stats.submitted,
        TIER_CLIENTS * TIER_REQUESTS_PER_CLIENT,
        "the load generator must account for every request"
    );
    let shed_rate = tier_stats.shed as f64 / tier_stats.submitted.max(1) as f64;
    assert!(
        latencies_us.len() + tier_stats.shed >= TIER_CLIENTS * TIER_REQUESTS_PER_CLIENT,
        "every request either answered or shed"
    );

    // ---- Live ingestion under closed-loop lookups (the epoch path) --------
    // Client threads hammer one prepared handle in a closed loop while the
    // main thread appends relevant-table batches through `append_relevant`.
    // `ingest_rows_per_sec` is the pure append throughput (copy-on-write
    // epoch build + publish); `staleness_us` is the median delay from an
    // epoch's publication until the concurrently-hammered handle serves it —
    // the freshness lag a feature server actually exposes.
    let ingest_model = AugModel::compile_shared(
        model.plan().clone(),
        std::sync::Arc::new(ds.train.clone()),
        std::sync::Arc::new(ds.relevant.clone()),
    )
    .expect("plan compiles");
    let ingest_handle = ingest_model.prepare().expect("prepare ingest handle");
    const INGEST_BATCHES: usize = 8;
    const INGEST_BATCH_ROWS: usize = 512;
    let batch_indices: Vec<usize> = (0..INGEST_BATCH_ROWS)
        .map(|i| (i * 7) % ds.relevant.num_rows())
        .collect();
    let ingest_batch = ds.relevant.take(&batch_indices);
    let ingest_stop = std::sync::atomic::AtomicBool::new(false);
    let (append_wall_s, mut staleness_samples_us) = std::thread::scope(|scope| {
        for c in 0..TIER_CLIENTS {
            let handle = &ingest_handle;
            let stop = &ingest_stop;
            let serve_keys = &serve_keys;
            scope.spawn(move || {
                let mut out = Vec::new();
                let mut i = c;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let key = &serve_keys[i % serve_keys.len()];
                    handle.lookup(key, &mut out).expect("closed-loop lookup");
                    std::hint::black_box(&out);
                    i += TIER_CLIENTS;
                }
            });
        }
        let mut append_wall = 0.0f64;
        let mut staleness = Vec::with_capacity(INGEST_BATCHES);
        for _ in 0..INGEST_BATCHES {
            let start = Instant::now();
            let info = ingest_model
                .append_relevant(&ingest_batch)
                .expect("append batch");
            append_wall += start.elapsed().as_secs_f64();
            let published = Instant::now();
            // The handle refreshes lazily off the lookup threads' requests;
            // wait until one of them observes the new epoch.
            while ingest_handle.epoch() < info.epoch {
                std::thread::yield_now();
            }
            staleness.push(published.elapsed().as_nanos() as f64 / 1e3);
        }
        ingest_stop.store(true, std::sync::atomic::Ordering::Relaxed);
        (append_wall, staleness)
    });
    staleness_samples_us.sort_by(|a, b| a.total_cmp(b));
    let ingest_rows_per_sec = (INGEST_BATCHES * INGEST_BATCH_ROWS) as f64 / append_wall_s;
    let staleness_us = percentile(&staleness_samples_us, 0.50);
    assert_eq!(
        ingest_model.epoch(),
        INGEST_BATCHES as u64,
        "every append must have published an epoch"
    );

    // ---- Sharded serving (key-partitioned engines behind one router) ------
    // A 4-way `ShardRouter` over the full-key trivial pool (every query
    // groups by every key column, so the shard keys are the whole key).
    // `shard_lookups_per_sec` measures what the routing hash + owning-shard
    // probe add to the unsharded warm path; then a closed-loop tier drives
    // the same sharded model with every 8th request under a tight deadline.
    // `cancelled_rate` counts only the deadlines the probe loop caught
    // mid-lookup (as opposed to deadlines observed at a batch boundary,
    // which degrade without cancelling) — 0.0 is a legitimate reading when
    // warm lookups beat the deadline, but the field must exist and be finite
    // so the trajectory is recorded once lookups get slow enough to run
    // past it.
    const SHARD_COUNT: usize = 4;
    let shard_planned: Vec<PlannedQuery> = dfs
        .iter()
        .take(12)
        .map(|q| PlannedQuery {
            query: q.clone(),
            loss: 0.0,
        })
        .collect();
    let n_shard_queries = shard_planned.len();
    let shard_plan = AugPlan::new(ds.relevant.name(), ds.key_columns.clone(), shard_planned);
    let shard_router = ShardRouter::build_for_plan(
        std::sync::Arc::new(ds.train.clone()),
        &ds.relevant,
        &shard_plan,
        SHARD_COUNT,
    )
    .expect("shard router builds");
    let shard_handle = std::sync::Arc::new(
        shard_router
            .prepare(&shard_plan)
            .expect("prepare sharded handle"),
    );
    let mut shard_out: Vec<Option<f64>> = Vec::with_capacity(shard_handle.num_features());
    let mut shard_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for key in &serve_keys {
            shard_handle
                .lookup(key, &mut shard_out)
                .expect("sharded lookup");
            std::hint::black_box(&shard_out);
        }
        shard_best = shard_best.min(start.elapsed().as_secs_f64());
    }
    // Outside the timed region: routed lookups must actually hit features.
    let shard_hits: usize = serve_keys
        .iter()
        .map(|key| {
            shard_handle
                .lookup(key, &mut shard_out)
                .expect("sharded lookup");
            shard_out.iter().filter(|v| v.is_some()).count()
        })
        .sum();
    assert!(
        shard_hits > 0,
        "warm sharded lookups must hit some features"
    );
    let shard_lookups_per_sec = serve_keys.len() as f64 / shard_best;

    let shard_tier = feataug::ServingTier::new(
        std::sync::Arc::clone(&shard_handle),
        feataug::TierConfig::default(),
    );
    const SHARD_DEADLINE_EVERY: usize = 8;
    const SHARD_TIER_REQUESTS_PER_CLIENT: usize = 1_000;
    std::thread::scope(|scope| {
        for c in 0..TIER_CLIENTS {
            let tier = &shard_tier;
            let serve_keys = &serve_keys;
            scope.spawn(move || {
                for i in 0..SHARD_TIER_REQUESTS_PER_CLIENT {
                    let key = &serve_keys[(c + i * TIER_CLIENTS) % serve_keys.len()];
                    let result = if i % SHARD_DEADLINE_EVERY == 0 {
                        tier.lookup_deadline(key, std::time::Duration::from_micros(50))
                    } else {
                        tier.lookup(key)
                    };
                    match result {
                        Ok(row) => std::hint::black_box(&row),
                        Err(feataug::TierError::Shed { .. }) => continue,
                        Err(e) => panic!("sharded tier load generator hit {e}"),
                    };
                }
            });
        }
    });
    let shard_tier_stats = shard_tier.stats();
    assert_eq!(
        shard_tier_stats.submitted,
        TIER_CLIENTS * SHARD_TIER_REQUESTS_PER_CLIENT,
        "the sharded load generator must account for every request"
    );
    assert!(
        shard_tier_stats.cancelled <= shard_tier_stats.degraded,
        "mid-lookup preemptions are a subset of deadline degradations"
    );
    let cancelled_rate =
        shard_tier_stats.cancelled as f64 / shard_tier_stats.answered.max(1) as f64;

    // ---- Schema path search (the multi-hop augmentation front end) --------
    // The generated Instacart multi-hop schema plants its signal two hops
    // away from the training table. Enumeration counts every candidate path
    // to the hop cap; the proxy gate promotes only the budgeted top slice to
    // a full TPE search — the FeatNavigator/ARDA-style accounting the
    // `paths_promoted < path_search_candidates` assertion pins down.
    let schema_gen = GenConfig {
        n_entities: 400,
        fanout: 8,
        n_noise_cols: 1,
        seed: 5,
    };
    let schema_ds = instacart::generate_schema(&schema_gen);
    let mut graph = SchemaGraph::new();
    graph
        .register(schema_ds.train.clone())
        .expect("register schema train");
    for table in &schema_ds.tables {
        graph
            .register(table.clone())
            .expect("register schema table");
    }
    for edge in &schema_ds.edges {
        let left: Vec<&str> = edge.left_keys.iter().map(|s| s.as_str()).collect();
        let right: Vec<&str> = edge.right_keys.iter().map(|s| s.as_str()).collect();
        graph
            .declare_edge(&edge.left, &edge.right, &left, &right)
            .expect("declare schema edge");
    }
    const SCHEMA_MAX_HOPS: usize = 2;
    const SCHEMA_PATH_BUDGET: usize = 1;
    let path_search_candidates = enumerate_paths(&graph, schema_ds.train.name(), SCHEMA_MAX_HOPS)
        .expect("enumerate join paths")
        .len();
    let mut schema_cfg = FeatAugConfig::fast(ModelKind::Linear).with_seed(5);
    schema_cfg.n_templates = 2;
    schema_cfg.queries_per_template = 2;
    schema_cfg.template_id.n_templates = 2;
    schema_cfg.template_id.pool_samples = 6;
    schema_cfg.sqlgen.warmup_iters = 10;
    schema_cfg.sqlgen.warmup_top_k = 3;
    schema_cfg.sqlgen.search_iters = 4;
    let schema_task = SchemaTask::new(
        graph.clone(),
        schema_ds.train.name(),
        &schema_ds.label_column,
        Task::BinaryClassification,
    )
    .with_max_hops(SCHEMA_MAX_HOPS)
    .with_path_budget(SCHEMA_PATH_BUDGET)
    .with_agg_columns(vec!["price".into(), "cart_position".into()])
    .with_predicate_attrs(vec!["department".into(), "order_hour".into()]);
    let schema_fitted = fit_schema(&schema_cfg, &schema_task).expect("fit_schema");
    let paths_promoted = schema_fitted.stats().promoted;
    assert!(
        paths_promoted < path_search_candidates,
        "the proxy budget must gate full fits ({paths_promoted} of {path_search_candidates})"
    );

    // A hand-built 2-hop plan through the composed gather-map view, driven
    // at the same 10× table scale as the flat transform benchmark.
    let hop = |table: &str, key: &str| PlanHop {
        table: table.to_string(),
        left_keys: vec![key.to_string()],
        right_keys: vec![key.to_string()],
    };
    let mut hop2_planned: Vec<PlannedQuery> = Vec::new();
    for &agg in AggFunc::basic() {
        for col in ["price", "cart_position"] {
            hop2_planned.push(PlannedQuery {
                query: PredicateQuery {
                    agg,
                    agg_column: col.to_string(),
                    predicate: Predicate::True,
                    group_keys: schema_ds.key_columns.clone(),
                },
                loss: 0.0,
            });
        }
    }
    let n_hop2 = hop2_planned.len();
    let hop2_plan =
        AugPlan::new("orders", schema_ds.key_columns.clone(), hop2_planned).with_hops(vec![
            hop("order_items", "order_id"),
            hop("products", "product_id"),
        ]);
    let hop2_model = graph
        .compile(schema_ds.train.name(), hop2_plan)
        .expect("2-hop plan compiles");
    let schema_train_rows = schema_ds.train.num_rows();
    let hop2_indices: Vec<usize> = (0..schema_train_rows * 10)
        .map(|i| i % schema_train_rows)
        .collect();
    let hop2_big = schema_ds.train.take(&hop2_indices);
    let mut hop2_best = f64::INFINITY;
    let mut hop2_cols = 0usize;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let out = hop2_model.transform(&hop2_big).expect("2-hop transform");
        hop2_best = hop2_best.min(start.elapsed().as_secs_f64());
        hop2_cols = out.num_columns();
    }
    let hop2_transform_rows_per_sec = hop2_big.num_rows() as f64 / hop2_best;

    let results = [
        time_pool("basic_aggs", &basic, &ds.train, &ds.relevant, workers),
        time_pool("all_aggs", &all, &ds.train, &ds.relevant, workers),
        time_pool(
            "order_stats",
            &order_stats,
            &ds.train,
            &ds.relevant,
            workers,
        ),
        time_pool("moments", &moments, &ds.train, &ds.relevant, workers),
        time_pool("dfs_trivial", &dfs, &ds.train, &ds.relevant, workers),
        time_pool(
            "order_trivial",
            &order_trivial,
            &ds.train,
            &ds.relevant,
            workers,
        ),
    ];

    let pools_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{ \"pool\": \"{}\", \"naive_us_per_query\": {:.3}, \"engine_us_per_query\": {:.3}, \"batch_us_per_query\": {:.3}, \"speedup\": {:.2}, \"batch_speedup\": {:.2}, \"batch_vs_engine\": {:.2} }}",
                r.name,
                r.naive_us,
                r.engine_us,
                r.batch_us,
                r.speedup(),
                r.batch_speedup(),
                r.batch_vs_engine()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"exec_tmall_micro\",\n  \"dataset\": {{ \"name\": \"tmall\", \"n_entities\": {}, \"fanout\": {}, \"train_rows\": {}, \"relevant_rows\": {} }},\n  \"n_queries\": {},\n  \"rounds\": {},\n  \"workers\": {},\n  \"headline_speedup\": {:.2},\n  \"headline_batch_speedup\": {:.2},\n  \"order_stat_speedup\": {:.2},\n  \"moment_speedup\": {:.2},\n  \"transform_rows_per_sec\": {:.0},\n  \"parallel_transform_speedup\": {:.2},\n  \"transform_workers\": {},\n  \"serve_lookups_per_sec\": {:.0},\n  \"p50_lookup_us\": {:.1},\n  \"p99_lookup_us\": {:.1},\n  \"shed_rate\": {:.4},\n  \"ingest_rows_per_sec\": {:.0},\n  \"staleness_us\": {:.1},\n  \"path_search_candidates\": {},\n  \"paths_promoted\": {},\n  \"hop2_transform_rows_per_sec\": {:.0},\n  \"shard_lookups_per_sec\": {:.0},\n  \"shard_count\": {},\n  \"cancelled_rate\": {:.4},\n  \"tier\": {{ \"clients\": {}, \"requests\": {}, \"workers\": {}, \"answered\": {}, \"shed\": {} }},\n  \"shard_tier\": {{ \"requests\": {}, \"deadline_every\": {}, \"queries\": {}, \"answered\": {}, \"degraded\": {}, \"cancelled\": {} }},\n  \"ingest\": {{ \"batches\": {}, \"batch_rows\": {}, \"epochs\": {} }},\n  \"transform\": {{ \"rows\": {}, \"planned_queries\": {}, \"columns_out\": {}, \"best_s\": {:.4} }},\n  \"schema\": {{ \"dataset\": \"{}\", \"max_hops\": {}, \"path_budget\": {}, \"candidates\": {}, \"promoted\": {}, \"hop2_rows\": {}, \"hop2_queries\": {}, \"hop2_columns_out\": {}, \"hop2_best_s\": {:.4} }},\n  \"pools\": [\n{}\n  ]\n}}\n",
        gen_cfg.n_entities,
        gen_cfg.fanout,
        ds.train.num_rows(),
        ds.relevant.num_rows(),
        N_QUERIES,
        ROUNDS,
        workers,
        results[0].speedup(),
        results[0].batch_speedup(),
        results[2].speedup(),
        results[3].speedup(),
        transform_rows_per_sec,
        parallel_transform_speedup,
        transform_workers,
        serve_lookups_per_sec,
        p50_lookup_us,
        p99_lookup_us,
        shed_rate,
        ingest_rows_per_sec,
        staleness_us,
        path_search_candidates,
        paths_promoted,
        hop2_transform_rows_per_sec,
        shard_lookups_per_sec,
        SHARD_COUNT,
        cancelled_rate,
        TIER_CLIENTS,
        TIER_CLIENTS * TIER_REQUESTS_PER_CLIENT,
        feataug::TierConfig::default().workers,
        tier_stats.answered,
        tier_stats.shed,
        TIER_CLIENTS * SHARD_TIER_REQUESTS_PER_CLIENT,
        SHARD_DEADLINE_EVERY,
        n_shard_queries,
        shard_tier_stats.answered,
        shard_tier_stats.degraded,
        shard_tier_stats.cancelled,
        INGEST_BATCHES,
        INGEST_BATCH_ROWS,
        ingest_model.epoch(),
        big.num_rows(),
        n_planned,
        transform_cols,
        transform_best,
        schema_ds.name,
        SCHEMA_MAX_HOPS,
        SCHEMA_PATH_BUDGET,
        path_search_candidates,
        paths_promoted,
        hop2_big.num_rows(),
        n_hop2,
        hop2_cols,
        hop2_best,
        pools_json.join(",\n"),
    );
    std::fs::write("BENCH_exec.json", &json).expect("writing BENCH_exec.json");
    print!("{json}");
    eprintln!(
        "wrote BENCH_exec.json (workers {workers}; naive->engine basic {:.2}x, all {:.2}x, order-stat {:.2}x, moment {:.2}x, dfs {:.2}x, order-trivial {:.2}x; naive->batch basic {:.2}x; transform {:.0} rows/s over {n_planned} planned queries, parallel transform {:.2}x at {transform_workers} workers; prepared serving {:.0} lookups/s; tier p50 {:.1}us p99 {:.1}us shed_rate {:.4}; sharded serving {:.0} lookups/s over {SHARD_COUNT} shards, cancelled_rate {:.4}; ingest {:.0} rows/s staleness {:.1}us; path search {path_search_candidates} candidates -> {paths_promoted} promoted, 2-hop transform {:.0} rows/s)",
        results[0].speedup(),
        results[1].speedup(),
        results[2].speedup(),
        results[3].speedup(),
        results[4].speedup(),
        results[5].speedup(),
        results[0].batch_speedup(),
        transform_rows_per_sec,
        parallel_transform_speedup,
        serve_lookups_per_sec,
        p50_lookup_us,
        p99_lookup_us,
        shed_rate,
        shard_lookups_per_sec,
        cancelled_rate,
        ingest_rows_per_sec,
        staleness_us,
        hop2_transform_rows_per_sec,
    );
}
