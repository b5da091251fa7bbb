//! Chaos suite: fault injection against the serving stack (PR 6,
//! "survivable serving").
//!
//! Every test here arms a named failpoint (see `feataug::failpoint`) to force
//! a panic, a delay, or a genuinely poisoned lock somewhere inside the engine
//! or the serving tier, then asserts the two survivability invariants:
//!
//! 1. **Blast radius is one request.** A worker panicking on one item fails
//!    that item with a typed [`EngineError::WorkerPanic`]; every other item's
//!    answer is bit-identical to a clean serial engine's.
//! 2. **Nothing is permanently broken.** After the fault — including a memo
//!    map poisoned mid-insert — the same engine keeps answering correctly.
//!
//! Failpoints are process-global, so the tests serialize on [`CHAOS_LOCK`]
//! and reset the registry on entry and exit. Build with
//! `--features failpoints` (CI runs this binary in its own job).
#![cfg(feature = "failpoints")]

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use feataug::failpoint::{self, Action};
use feataug::pipeline::AugModel;
use feataug::{
    AugPlan, EngineError, FeatAug, FeatAugConfig, PlannedQuery, PredicateQuery, QueryCodec,
    QueryEngine, QueryTemplate, ServingTier, TierConfig, TierError,
};
use feataug_datagen::GenConfig;
use feataug_ml::ModelKind;
use feataug_repro::to_aug_task;
use feataug_tabular::{AggFunc, Value};
use rand::SeedableRng;

/// Serializes the chaos tests: the failpoint registry is process-global.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// A guard that resets every failpoint on entry and on drop (even when the
/// test body panics), so one failing test cannot leak armed failpoints into
/// the next.
struct ChaosGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ChaosGuard {
    fn acquire() -> ChaosGuard {
        let guard = CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        failpoint::reset();
        ChaosGuard(guard)
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        failpoint::reset();
    }
}

fn dataset(seed: u64) -> feataug_datagen::SyntheticDataset {
    feataug_datagen::generate_by_name(
        feataug_datagen::one_to_many_names()[0],
        &GenConfig::tiny().with_seed(seed),
    )
    .unwrap()
}

/// A randomized query pool over the dataset's codec (distinct queries, so a
/// failed item maps to exactly one pool slot).
fn random_pool(ds: &feataug_datagen::SyntheticDataset, seed: u64, n: usize) -> Vec<PredicateQuery> {
    let template = QueryTemplate::new(
        AggFunc::all().to_vec(),
        ds.agg_columns.clone(),
        ds.predicate_attrs.clone(),
        ds.key_columns.clone(),
    );
    let codec = QueryCodec::build(&template, &ds.relevant).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pool = Vec::new();
    let mut seen = std::collections::HashSet::new();
    while pool.len() < n {
        let query = codec.decode(&codec.space().sample(&mut rng));
        if seen.insert(format!("{query:?}")) {
            pool.push(query);
        }
    }
    pool
}

fn plan_from(ds: &feataug_datagen::SyntheticDataset, pool: &[PredicateQuery]) -> AugPlan {
    AugPlan::new(
        ds.relevant.name(),
        ds.key_columns.clone(),
        pool.iter()
            .map(|query| PlannedQuery {
                query: query.clone(),
                loss: 0.0,
            })
            .collect(),
    )
}

fn bits(values: &[Option<f64>]) -> Vec<Option<u64>> {
    values.iter().map(|v| v.map(f64::to_bits)).collect()
}

/// `FeatAug::fit` searches its templates concurrently, and a search that
/// panics fails the whole fit: the fan-out contains the panic, and the fit
/// raises it again rather than return a plan missing that template's queries.
/// The kernel failpoint fails every evaluation; template identification
/// contains its own and still returns templates, so the panic comes from the
/// template searches.
#[test]
fn panicking_template_search_fails_the_fit() {
    let _guard = ChaosGuard::acquire();
    let task = to_aug_task(&dataset(43));
    let mut cfg = FeatAugConfig::fast(ModelKind::Linear);
    cfg.n_templates = 2;
    cfg.template_id.n_templates = 2;
    cfg.template_id.pool_samples = 4;
    cfg.sqlgen.warmup_iters = 4;
    cfg.sqlgen.warmup_top_k = 2;
    cfg.sqlgen.search_iters = 2;

    failpoint::set("exec.kernel", Action::Panic);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        FeatAug::new(cfg.clone()).fit(&task)
    }));
    failpoint::reset();
    let payload = match outcome {
        Ok(fitted) => panic!("the fit swallowed its template searches' panics: {fitted:?}"),
        Err(payload) => payload,
    };
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("template search failed") && message.contains("exec.kernel"),
        "got: {message}"
    );

    // Disarmed, the same configuration fits.
    let model = FeatAug::new(cfg).fit(&task).unwrap();
    assert!(model.templates().len() > 1 && !model.queries().is_empty());
}

/// A kernel panic under 8-thread batch evaluation fails exactly the hit
/// items; every surviving item is bit-identical to a clean serial engine.
#[test]
fn kernel_panic_fails_only_the_affected_request() {
    let _guard = ChaosGuard::acquire();
    let ds = dataset(41);
    let pool = random_pool(&ds, 0xc0de, 12);

    // Clean serial reference first (its engine never sees a failpoint).
    let clean = QueryEngine::new(&ds.train, &ds.relevant);
    let reference: Vec<Vec<Option<f64>>> = pool
        .iter()
        .map(|query| clean.evaluate(query).unwrap())
        .collect();

    failpoint::set_times("exec.kernel", Action::Panic, 1);
    let engine = QueryEngine::new(&ds.train, &ds.relevant);
    let results = engine.evaluate_batch_threads(&pool, 8);
    assert_eq!(failpoint::hits("exec.kernel"), 1);

    let mut failed = 0;
    for (i, result) in results.iter().enumerate() {
        match result {
            Ok(values) => assert_eq!(bits(values), bits(&reference[i]), "survivor {i} diverged"),
            Err(EngineError::WorkerPanic { context, message }) => {
                failed += 1;
                assert_eq!(*context, "batch evaluation");
                assert!(message.contains("exec.kernel"), "got: {message}");
            }
            Err(other) => panic!("unexpected error kind: {other:?}"),
        }
    }
    assert_eq!(failed, 1, "exactly the hit request fails");

    // The engine is not poisoned: re-evaluating the failed pool serially on
    // the SAME engine now answers everything, bit-identical to the reference.
    for (i, query) in pool.iter().enumerate() {
        assert_eq!(bits(&engine.evaluate(query).unwrap()), bits(&reference[i]));
    }
}

/// A panic raised while the group-index memo map's write lock is held
/// genuinely poisons that `RwLock`; the engine must recover (the map is
/// never left mid-mutation) and keep serving the same answers.
#[test]
fn poisoned_memo_map_recovers() {
    let _guard = ChaosGuard::acquire();
    let ds = dataset(43);
    let pool = random_pool(&ds, 0xdead, 4);

    let clean = QueryEngine::new(&ds.train, &ds.relevant);
    let reference: Vec<Vec<Option<f64>>> = pool
        .iter()
        .map(|query| clean.evaluate(query).unwrap())
        .collect();

    // Fire inside the write-lock scope. The contained batch worker unwinds
    // with the guard held — the poison is real, not simulated.
    failpoint::set_times("exec.index.insert", Action::Panic, 1);
    let engine = QueryEngine::new(&ds.train, &ds.relevant);
    let first = engine.evaluate_batch_threads(&pool[..1], 1);
    assert_eq!(failpoint::hits("exec.index.insert"), 1);
    assert!(
        matches!(first[0], Err(EngineError::WorkerPanic { .. })),
        "the poisoning request itself fails typed: {first:?}"
    );

    // Same engine, poisoned lock: every later evaluation recovers and the
    // answers match the clean engine bit for bit.
    for (i, query) in pool.iter().enumerate() {
        assert_eq!(
            bits(&engine.evaluate(query).unwrap()),
            bits(&reference[i]),
            "post-poison answer {i} diverged"
        );
    }
}

/// A panic while *compiling* a group index (the `exec.index.build` failpoint,
/// which fires outside any engine lock) fails only the triggering request,
/// poisons nothing, and the same engine rebuilds the index on the next call.
#[test]
fn index_build_panic_is_contained() {
    let _guard = ChaosGuard::acquire();
    let ds = dataset(53);
    let pool = random_pool(&ds, 0xbead, 4);

    let clean = QueryEngine::new(&ds.train, &ds.relevant);
    let reference: Vec<Vec<Option<f64>>> = pool
        .iter()
        .map(|query| clean.evaluate(query).unwrap())
        .collect();

    failpoint::set_times("exec.index.build", Action::Panic, 1);
    let engine = QueryEngine::new(&ds.train, &ds.relevant);
    let first = engine.evaluate_batch_threads(&pool[..1], 1);
    assert_eq!(failpoint::hits("exec.index.build"), 1);
    assert!(
        matches!(first[0], Err(EngineError::WorkerPanic { .. })),
        "the hit request fails typed: {first:?}"
    );

    // No lock was held at the failpoint, so nothing is poisoned: the same
    // engine rebuilds the index and answers bit-identically from here on.
    for (i, query) in pool.iter().enumerate() {
        assert_eq!(
            bits(&engine.evaluate(query).unwrap()),
            bits(&reference[i]),
            "post-panic answer {i} diverged"
        );
    }
}

/// A gather panic on the transform path fails only the hit query's column;
/// the other planned features still come back bit-identical.
#[test]
fn transform_gather_panic_is_contained() {
    let _guard = ChaosGuard::acquire();
    let ds = dataset(47);
    let pool = random_pool(&ds, 0xfeed, 6);

    let clean = QueryEngine::new(&ds.train, &ds.relevant);
    let reference = clean.transform(&pool, &ds.train).unwrap();

    failpoint::set_times("exec.gather", Action::Panic, 1);
    let engine = QueryEngine::new(&ds.train, &ds.relevant);
    let err = engine
        .transform(&pool, &ds.train)
        .expect_err("one gather panicked, the batch transform must surface it");
    assert!(
        matches!(err, EngineError::WorkerPanic { context, .. } if context == "transform"),
        "typed worker panic expected"
    );

    // The engine survives: the same transform on the same engine now
    // succeeds and matches the clean run.
    let again = engine.transform(&pool, &ds.train).unwrap();
    for (i, (got, want)) in again.iter().zip(&reference).enumerate() {
        assert_eq!(bits(got), bits(want), "query {i} diverged after recovery");
    }
}

/// 8 threads hammer one serving tier while lookups randomly panic under it:
/// the tier never crashes, failed requests surface typed, survivors are
/// bit-identical to a clean handle, and the tier still answers afterwards.
#[test]
fn tier_survives_panicking_lookups_under_contention() {
    let _guard = ChaosGuard::acquire();
    let ds = dataset(53);
    let task = to_aug_task(&ds);
    let pool = random_pool(&ds, 0xbeef, 4);
    let plan = plan_from(&ds, &pool);

    let model = AugModel::compile_shared(plan, task.train.clone(), task.relevant.clone())
        .expect("plan compiles");
    let handle = std::sync::Arc::new(model.prepare().unwrap());

    let keys: Vec<Vec<Value>> = (0..task.train.num_rows().min(32))
        .map(|row| {
            task.key_columns
                .iter()
                .map(|k| task.train.value(row, k).unwrap())
                .collect()
        })
        .collect();
    // Clean reference before arming anything (warms the shared engine too,
    // so the panics below hit pure cache-read lookups — the serving shape).
    let reference: Vec<Vec<Option<f64>>> = keys
        .iter()
        .map(|k| {
            let mut out = Vec::new();
            handle.lookup(k, &mut out).unwrap();
            out
        })
        .collect();

    let tier = ServingTier::new(
        std::sync::Arc::clone(&handle),
        TierConfig {
            workers: 4,
            ..TierConfig::default()
        },
    );
    failpoint::set_times("serving.lookup", Action::Panic, 6);

    let panics = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let tier = &tier;
            let keys = &keys;
            let reference = &reference;
            let panics = &panics;
            scope.spawn(move || {
                for round in 0..4 {
                    for (i, key) in keys.iter().enumerate() {
                        match tier.lookup(key) {
                            Ok(row) => assert_eq!(
                                bits(&row),
                                bits(&reference[i]),
                                "thread {t} round {round} key {i} diverged"
                            ),
                            Err(TierError::Engine(EngineError::WorkerPanic {
                                message, ..
                            })) => {
                                assert!(message.contains("serving.lookup"), "got: {message}");
                                panics.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected tier error: {other:?}"),
                        }
                    }
                }
            });
        }
    });

    let contained = panics.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(contained, 6, "every armed panic surfaced as a typed error");
    assert_eq!(tier.stats().worker_panics, 6);
    // The tier's workers are all still alive and serving.
    assert_eq!(bits(&tier.lookup(&keys[0]).unwrap()), bits(&reference[0]));
}

/// Deadlines that expire while requests sit behind a stalled worker batch:
/// degradation answers the documented all-NULL row, strict mode errors —
/// and in both modes the process, the tier and later requests survive.
#[test]
fn stalled_batches_expire_deadlines_gracefully() {
    let _guard = ChaosGuard::acquire();
    let ds = dataset(59);
    let task = to_aug_task(&ds);
    let pool = random_pool(&ds, 0xaaaa, 3);
    let plan = plan_from(&ds, &pool);
    let model = AugModel::compile_shared(plan, task.train.clone(), task.relevant.clone())
        .expect("plan compiles");
    let handle = std::sync::Arc::new(model.prepare().unwrap());

    let key: Vec<Value> = task
        .key_columns
        .iter()
        .map(|k| task.train.value(0, k).unwrap())
        .collect();
    let mut want = Vec::new();
    handle.lookup(&key, &mut want).unwrap();

    // Every batch stalls 30ms; a 1ms deadline is guaranteed to expire while
    // its request waits. One worker serializes the queue behind the stall.
    failpoint::set("tier.batch", Action::Delay(Duration::from_millis(30)));
    let tier = ServingTier::new(
        std::sync::Arc::clone(&handle),
        TierConfig {
            workers: 1,
            max_batch: 1,
            ..TierConfig::default()
        },
    );
    let pending: Vec<_> = (0..8)
        .map(|_| {
            tier.submit_deadline(key.clone(), Some(Duration::from_millis(1)))
                .unwrap()
        })
        .collect();
    // Under degradation every answer is Ok; expired ones are all-NULL.
    let degraded = pending
        .into_iter()
        .map(|p| p.wait().unwrap())
        .filter(|row| row.iter().all(|v| v.is_none()))
        .count();
    assert!(
        degraded >= 7,
        "with a 30ms stall per batch, nearly every 1ms-deadline request must degrade (got {degraded}/8)"
    );
    assert_eq!(tier.stats().degraded, degraded);

    // Disarm: the same tier immediately serves real answers again.
    failpoint::clear("tier.batch");
    assert_eq!(bits(&tier.lookup(&key).unwrap()), bits(&want));

    // Strict mode: the expiry is a typed error instead of a NULL row.
    failpoint::set("tier.batch", Action::Delay(Duration::from_millis(30)));
    let strict = ServingTier::new(
        std::sync::Arc::clone(&handle),
        TierConfig {
            workers: 1,
            max_batch: 1,
            degrade_on_deadline: false,
            ..TierConfig::default()
        },
    );
    let err = strict
        .lookup_deadline(&key, Duration::from_millis(1))
        .unwrap_err();
    assert!(matches!(err, TierError::DeadlineExceeded), "got {err:?}");
    failpoint::clear("tier.batch");
    assert_eq!(bits(&strict.lookup(&key).unwrap()), bits(&want));
}

/// Flooding a tiny tier behind a stalled worker trips admission control:
/// some requests shed with a typed error, every admitted request still
/// answers correctly, and the counters reconcile exactly.
#[test]
fn overload_sheds_at_admission_and_admitted_requests_survive() {
    let _guard = ChaosGuard::acquire();
    let ds = dataset(61);
    let task = to_aug_task(&ds);
    let pool = random_pool(&ds, 0xbbbb, 3);
    let plan = plan_from(&ds, &pool);
    let model = AugModel::compile_shared(plan, task.train.clone(), task.relevant.clone())
        .expect("plan compiles");
    let handle = std::sync::Arc::new(model.prepare().unwrap());

    let key: Vec<Value> = task
        .key_columns
        .iter()
        .map(|k| task.train.value(1, k).unwrap())
        .collect();
    let mut want = Vec::new();
    handle.lookup(&key, &mut want).unwrap();

    failpoint::set("tier.batch", Action::Delay(Duration::from_millis(5)));
    let tier = ServingTier::new(
        std::sync::Arc::clone(&handle),
        TierConfig {
            workers: 1,
            shed_watermark: 2,
            max_batch: 1,
            ..TierConfig::default()
        },
    );

    let mut pending = Vec::new();
    let mut shed = 0;
    for _ in 0..64 {
        match tier.submit(key.clone()) {
            Ok(p) => pending.push(p),
            Err(TierError::Shed { depth }) => {
                assert!(depth >= 2, "shed below the watermark (depth {depth})");
                shed += 1;
            }
            Err(other) => panic!("unexpected admission error: {other:?}"),
        }
    }
    assert!(shed > 0, "the flood must trip admission control");
    let admitted = pending.len();
    for p in pending {
        assert_eq!(bits(&p.wait().unwrap()), bits(&want));
    }
    let stats = tier.stats();
    assert_eq!(stats.submitted, 64);
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.answered, admitted);
}

/// A panic forced mid-`append_relevant` must be contained: the append fails
/// with a typed [`EngineError::WorkerPanic`], the published epoch never
/// moves, 8 concurrent reader threads stay bit-identical to the pre-append
/// reference throughout, and a clean retry afterwards publishes the next
/// epoch with values identical to a full refit over the concatenated table.
///
/// With `overlap_delay`, `exec.ingest.build` stalls the in-flight build for
/// 20ms first, so the readers demonstrably overlap a half-built epoch.
fn append_panic_keeps_prior_epoch_serving(fail_at: &str, overlap_delay: bool) {
    let _guard = ChaosGuard::acquire();
    let ds = dataset(71);
    let task = to_aug_task(&ds);
    let pool = random_pool(&ds, 0xd00d, 4);
    let plan = plan_from(&ds, &pool);
    let model = AugModel::compile_shared(plan.clone(), task.train.clone(), task.relevant.clone())
        .expect("plan compiles");
    let handle = model.prepare().unwrap();

    let keys: Vec<Vec<Value>> = (0..task.train.num_rows().min(16))
        .map(|row| {
            task.key_columns
                .iter()
                .map(|k| task.train.value(row, k).unwrap())
                .collect()
        })
        .collect();
    // Clean reference before arming anything (also warms the per-group memo,
    // so the failed append has real delta state to carry — and to discard).
    let reference: Vec<Vec<Option<f64>>> = keys
        .iter()
        .map(|k| {
            let mut out = Vec::new();
            handle.lookup(k, &mut out).unwrap();
            out
        })
        .collect();

    let batch_rows: Vec<usize> = (0..task.relevant.num_rows().min(24)).collect();
    let batch = task.relevant.take(&batch_rows);

    if overlap_delay {
        failpoint::set(
            "exec.ingest.build",
            Action::Delay(Duration::from_millis(20)),
        );
    }
    failpoint::set_times(fail_at, Action::Panic, 1);

    let looked = std::sync::atomic::AtomicUsize::new(0);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (stop, looked) = (&stop, &looked);
        for t in 0..8 {
            let handle = &handle;
            let keys = &keys;
            let reference = &reference;
            scope.spawn(move || {
                let mut out = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for (i, key) in keys.iter().enumerate() {
                        handle.lookup(key, &mut out).unwrap();
                        assert_eq!(
                            bits(&out),
                            bits(&reference[i]),
                            "thread {t} key {i} diverged while an append was failing"
                        );
                        looked.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
        let err = model
            .append_relevant(&batch)
            .expect_err("the armed append must fail");
        assert!(
            matches!(err, EngineError::WorkerPanic { context, .. } if context == "append_relevant"),
            "typed append panic expected"
        );
        assert_eq!(
            model.epoch(),
            0,
            "a failed append must not publish an epoch"
        );
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(failpoint::hits(fail_at), 1);
    assert!(
        looked.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "readers must have served during the append"
    );
    failpoint::reset();

    // The prior epoch is still the one serving, bit for bit.
    assert_eq!(handle.epoch(), 0);
    for (i, key) in keys.iter().enumerate() {
        let mut out = Vec::new();
        handle.lookup(key, &mut out).unwrap();
        assert_eq!(
            bits(&out),
            bits(&reference[i]),
            "post-panic answer {i} diverged"
        );
    }

    // Nothing is wedged: a clean retry publishes epoch 1 and the handle
    // follows it — identical to a full refit over the concatenated table.
    let info = model.append_relevant(&batch).unwrap();
    assert_eq!(info.epoch, 1);
    assert_eq!(info.appended_rows, batch.num_rows());
    assert_eq!(model.epoch(), 1);
    let full = std::sync::Arc::new(task.relevant.concat(&batch).unwrap());
    let oracle = AugModel::compile_shared(plan, task.train.clone(), full).expect("plan compiles");
    let oracle_handle = oracle.prepare().unwrap();
    for key in &keys {
        let mut got = Vec::new();
        handle.lookup(key, &mut got).unwrap();
        let mut want = Vec::new();
        oracle_handle.lookup(key, &mut want).unwrap();
        assert_eq!(
            bits(&got),
            bits(&want),
            "appended epoch diverged from a full refit"
        );
    }
    assert_eq!(handle.epoch(), 1);
}

/// Panic at the very start of the epoch build (`exec.ingest.build`).
#[test]
fn append_panic_at_build_leaves_prior_epoch_serving() {
    append_panic_keeps_prior_epoch_serving("exec.ingest.build", false);
}

/// Panic at the end of the build, just before the publish swap
/// (`exec.ingest.publish`) — the fully-assembled successor core is dropped
/// unpublished. A 20ms build stall guarantees readers overlap the in-flight
/// append.
#[test]
fn append_panic_at_publish_leaves_prior_epoch_serving() {
    append_panic_keeps_prior_epoch_serving("exec.ingest.publish", true);
}

/// Hot-swap under fire: while 4 threads stream lookups, a background thread
/// repeatedly installs recompiled models. Every answer must come from one
/// coherent model (old bits or new bits, never a mixture), and the final
/// generation must match the number of installs.
#[test]
fn hot_swap_under_concurrent_load_is_atomic() {
    let _guard = ChaosGuard::acquire();
    let ds = dataset(67);
    let task = to_aug_task(&ds);
    let pool = random_pool(&ds, 0xcccc, 3);

    // Two models over the SAME tables but different plans (the second drops
    // one query), so old/new answers differ in length — an incoherent read
    // would be instantly visible.
    let plan_a = plan_from(&ds, &pool);
    let plan_b = plan_from(&ds, &pool[..2]);
    let handle_a = std::sync::Arc::new(
        AugModel::compile_shared(plan_a, task.train.clone(), task.relevant.clone())
            .expect("plan compiles")
            .prepare()
            .unwrap(),
    );
    let handle_b = std::sync::Arc::new(
        AugModel::compile_shared(plan_b, task.train.clone(), task.relevant.clone())
            .expect("plan compiles")
            .prepare()
            .unwrap(),
    );

    let key: Vec<Value> = task
        .key_columns
        .iter()
        .map(|k| task.train.value(2, k).unwrap())
        .collect();
    let mut want_a = Vec::new();
    handle_a.lookup(&key, &mut want_a).unwrap();
    let mut want_b = Vec::new();
    handle_b.lookup(&key, &mut want_b).unwrap();
    assert_ne!(want_a.len(), want_b.len());

    let tier = ServingTier::new(std::sync::Arc::clone(&handle_a), TierConfig::default());
    let installs = 20;
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop;
        for _ in 0..4 {
            let tier = &tier;
            let (want_a, want_b) = (&want_a, &want_b);
            let key = &key;
            scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let row = tier.lookup(key).unwrap();
                    let coherent = bits(&row) == bits(want_a) || bits(&row) == bits(want_b);
                    assert!(coherent, "lookup saw a torn model: {row:?}");
                }
            });
        }
        for i in 0..installs {
            let next = if i % 2 == 0 { &handle_b } else { &handle_a };
            tier.install(std::sync::Arc::clone(next));
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(tier.generation(), installs);
    assert_eq!(tier.stats().generation, installs);
}

/// A routable query pool: like [`random_pool`], but every query groups by
/// the first key column, so a [`ShardRouter`] has a non-empty shard-key
/// intersection to route on.
fn routable_pool(
    ds: &feataug_datagen::SyntheticDataset,
    seed: u64,
    n: usize,
) -> Vec<PredicateQuery> {
    let anchor = &ds.key_columns[0];
    random_pool(ds, seed, n)
        .into_iter()
        .map(|mut query| {
            if !query.group_keys.contains(anchor) {
                query.group_keys.insert(0, anchor.clone());
            }
            query
        })
        .collect()
}

/// A deadline that passes while the serving probe loop stalls stops the
/// lookup right there, before its next key probe, instead of at the batch
/// boundary. Deadline-free requests never evaluate the `serving.deadline`
/// failpoint, so an armed stall cannot perturb them. The tier maps the stop
/// into its existing degradation policy: all-NULL under degradation
/// (counted in `TierStats::cancelled`), a typed error in strict mode.
#[test]
fn tripped_deadline_preempts_stalled_probe_mid_work() {
    let _guard = ChaosGuard::acquire();
    let ds = dataset(73);
    let task = to_aug_task(&ds);
    let pool = random_pool(&ds, 0xce11, 3);

    let plan = plan_from(&ds, &pool);
    let model = AugModel::compile_shared(plan, task.train.clone(), task.relevant.clone())
        .expect("plan compiles");
    let handle = std::sync::Arc::new(model.prepare().unwrap());
    let key: Vec<Value> = task
        .key_columns
        .iter()
        .map(|k| task.train.value(0, k).unwrap())
        .collect();
    let mut want = Vec::new();
    handle.lookup(&key, &mut want).unwrap();

    // Every deadline check stalls 50ms, so a 10ms deadline has passed by
    // the time the first probe checks it.
    failpoint::set("serving.deadline", Action::Delay(Duration::from_millis(50)));
    let tier = ServingTier::new(
        std::sync::Arc::clone(&handle),
        TierConfig {
            workers: 1,
            max_batch: 1,
            ..TierConfig::default()
        },
    );
    let row = tier
        .lookup_deadline(&key, Duration::from_millis(10))
        .unwrap();
    assert!(
        row.iter().all(|v| v.is_none()),
        "a preempted request degrades to the all-NULL row, got {row:?}"
    );
    let stats = tier.stats();
    assert!(
        stats.cancelled >= 1,
        "preemption must be counted: {stats:?}"
    );
    assert!(stats.degraded >= stats.cancelled);
    // A deadline-free request on the same tier is untouched by the stall.
    assert_eq!(bits(&tier.lookup(&key).unwrap()), bits(&want));

    // Strict mode surfaces the same preemption as a typed error.
    let strict = ServingTier::new(
        std::sync::Arc::clone(&handle),
        TierConfig {
            workers: 1,
            max_batch: 1,
            degrade_on_deadline: false,
            ..TierConfig::default()
        },
    );
    let err = strict
        .lookup_deadline(&key, Duration::from_millis(10))
        .unwrap_err();
    assert!(matches!(err, TierError::DeadlineExceeded), "got {err:?}");
    assert!(strict.stats().cancelled >= 1);
    failpoint::clear("serving.deadline");
    assert_eq!(
        bits(
            &strict
                .lookup_deadline(&key, Duration::from_secs(60))
                .unwrap()
        ),
        bits(&want)
    );
}

/// A panicking shard fails only the requests it owns: under 8-thread tier
/// load every armed `shard.route` panic surfaces as one typed per-request
/// error, every survivor is bit-identical to the warm reference, and once
/// the arm is exhausted every shard serves again. The router-level lookup
/// contains the same panic without any tier around it.
#[test]
fn shard_route_panic_fails_only_owned_requests() {
    let _guard = ChaosGuard::acquire();
    let ds = dataset(67);
    let task = to_aug_task(&ds);
    let pool = routable_pool(&ds, 0xdddd, 4);
    let plan = plan_from(&ds, &pool);
    let router =
        feataug::ShardRouter::build_for_plan(task.train.clone(), &ds.relevant, &plan, 3).unwrap();
    let handle = std::sync::Arc::new(router.prepare(&plan).unwrap());

    // Keys spanning every shard; warm reference answers before arming.
    let keys: Vec<Vec<Value>> = (0..task.train.num_rows().min(12))
        .map(|row| {
            task.key_columns
                .iter()
                .map(|k| task.train.value(row, k).unwrap())
                .collect()
        })
        .collect();
    let reference: Vec<Vec<Option<f64>>> = keys
        .iter()
        .map(|k| {
            let mut out = Vec::new();
            handle.lookup(k, &mut out).unwrap();
            out
        })
        .collect();

    let tier = ServingTier::new(
        std::sync::Arc::clone(&handle),
        TierConfig {
            workers: 4,
            ..TierConfig::default()
        },
    );
    failpoint::set_times("shard.route", Action::Panic, 6);

    let panics = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let tier = &tier;
            let keys = &keys;
            let reference = &reference;
            let panics = &panics;
            scope.spawn(move || {
                for round in 0..4 {
                    for (i, key) in keys.iter().enumerate() {
                        match tier.lookup(key) {
                            Ok(row) => assert_eq!(
                                bits(&row),
                                bits(&reference[i]),
                                "thread {t} round {round} key {i} diverged"
                            ),
                            Err(TierError::Engine(EngineError::WorkerPanic {
                                message, ..
                            })) => {
                                assert!(message.contains("shard.route"), "got: {message}");
                                panics.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            Err(other) => panic!("unexpected tier error: {other:?}"),
                        }
                    }
                }
            });
        }
    });
    assert_eq!(
        panics.load(std::sync::atomic::Ordering::Relaxed),
        6,
        "every armed panic fails exactly one owned request"
    );
    assert_eq!(tier.stats().worker_panics, 6);

    // Arm exhausted: every key — every shard — serves again, bit-identical.
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(bits(&tier.lookup(key).unwrap()), bits(&reference[i]));
    }

    // Router-level containment, no tier in sight: the owning shard's panic
    // becomes a typed error and the next request succeeds.
    failpoint::set_times("shard.route", Action::Panic, 1);
    let query = &pool[0];
    let key: Vec<Value> = query
        .group_keys
        .iter()
        .map(|k| task.train.value(0, k).unwrap())
        .collect();
    let err = router.lookup(query, &key).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::WorkerPanic {
                context: "shard route",
                ..
            }
        ),
        "got {err:?}"
    );
    router.lookup(query, &key).unwrap();
}

/// A panicking sharded append aborts the whole batch before any shard's
/// sub-batch dispatches: the router generation stays put, pre-append answers
/// keep serving, and a plain retry applies the batch — after which the
/// router is bit-identical to an unsharded engine fed the same batch.
#[test]
fn shard_append_panic_aborts_batch_and_retry_succeeds() {
    let _guard = ChaosGuard::acquire();
    let ds = dataset(71);
    let task = to_aug_task(&ds);
    let pool = routable_pool(&ds, 0xeeee, 3);
    let plan = plan_from(&ds, &pool);

    let n = ds.relevant.num_rows();
    let split = (n * 2 / 3).max(1);
    let base = ds.relevant.take(&(0..split).collect::<Vec<_>>());
    let batch = ds.relevant.take(&(split..n).collect::<Vec<_>>());
    assert!(batch.num_rows() > 0, "the tiny dataset must leave a batch");

    let unsharded = QueryEngine::new(&ds.train, &base);
    unsharded.append_relevant(&batch).unwrap();
    let want = unsharded.transform(&pool, &ds.train).unwrap();

    let router = feataug::ShardRouter::build_for_plan(task.train.clone(), &base, &plan, 3).unwrap();
    let handle = std::sync::Arc::new(router.prepare(&plan).unwrap());
    let key: Vec<Value> = task
        .key_columns
        .iter()
        .map(|k| task.train.value(0, k).unwrap())
        .collect();
    let mut before = Vec::new();
    handle.lookup(&key, &mut before).unwrap();
    let before = before.clone();

    failpoint::set_times("shard.append", Action::Panic, 1);
    let err = router.append_relevant(&batch).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::WorkerPanic {
                context: "shard append",
                ..
            }
        ),
        "got {err:?}"
    );
    assert_eq!(
        router.generation(),
        0,
        "a failed batch must not bump the generation"
    );
    let mut after = Vec::new();
    handle.lookup(&key, &mut after).unwrap();
    assert_eq!(
        bits(&before),
        bits(&after),
        "pre-append answers keep serving"
    );

    // The arm is spent: a plain retry applies the whole batch.
    let epoch = router.append_relevant(&batch).unwrap();
    assert_eq!(epoch.generation, 1);
    assert_eq!(epoch.appended_rows, batch.num_rows());
    let got = router.transform(&pool, &ds.train).unwrap();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(
            bits(g),
            bits(w),
            "post-retry answers match the unsharded engine"
        );
    }
}
