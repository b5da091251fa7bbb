//! The query execution engine: compiled, cache-reusing, thread-parallel
//! candidate evaluation.
//!
//! Both search components evaluate thousands of candidate queries against the
//! *same* relevant table. The reference path
//! ([`PredicateQuery::execute`] / [`PredicateQuery::augment`]) pays, per
//! candidate, for: materialising the filtered table, rebuilding the group-by
//! hash index from scratch, rendering join keys, and re-hashing them during
//! the left join. [`QueryEngine`] compiles the `(train, relevant)` pair once
//! per search and amortises all of that.
//!
//! ## Architecture: shared compiled core + per-worker scratch
//!
//! The engine is split into two kinds of state:
//!
//! * an **immutable compiled core**, shared by every handle and every worker
//!   thread — each artifact is built once, memoized behind an [`RwLock`]ed map
//!   and handed out as an [`Arc`]:
//!   - **group indexes** — for every group-by key subset `k ⊆ K` encountered,
//!     a dense `group_id` per relevant row plus a precomputed train-row →
//!     group-id gather map (categorical dictionary codes are translated
//!     between the two tables once per distinct value, via
//!     [`feataug_tabular::join::KeyMapper`]), so attaching a feature is an
//!     O(n) gather with no join and no string keys;
//!   - **numeric views** — each aggregated / range-predicate column's
//!     `Vec<Option<f64>>` view is extracted once;
//!   - **sorted / inverted predicate indexes** — a range leaf costs two
//!     binary searches, an equality leaf O(matching rows) bit sets;
//!   - **sorted-group value indexes** — for every `(aggregation column,
//!     key subset)` pair an order-statistic candidate touches, each group's
//!     non-null values pre-sorted by `total_cmp`; `MEDIAN`/`MAD`/`MODE`/
//!     `ENTROPY`/`COUNT_DISTINCT` then read the runs in place (trivial
//!     predicate) or merge the selection out of them, instead of paying a
//!     copy + sort per candidate;
//! * cheap **per-worker scratch** (`EvalScratch`) — the selection bitmasks
//!   ([`feataug_tabular::selection`]) and aggregation buffers one evaluation
//!   mutates. Scratch lives in a pool; each worker of a batch checks one out
//!   for its whole run, so parallel evaluations never contend on it.
//!
//! [`QueryEngine`] is [`Clone`]: clones are cheap handles onto the same
//! shared core, feature memo and counters, which is how one engine per
//! `(train, relevant)` pair is shared across the Query Template Identifier,
//! the SQL Query Generator, the DFS/Random baselines and each multi-source
//! pipeline run ([`QueryEngine::stats`] shows the cross-component reuse).
//!
//! The engine is deliberately agnostic about where its relevant table came
//! from: [`crate::schema`] materialises multi-hop join paths into a single
//! virtual relevant view (composed gather maps, bit-identical to the eager
//! pre-join) and hands it to this engine **unchanged** — no multi-hop
//! special cases exist below this line.
//!
//! ## Copy-on-write epochs: live ingestion without blocking readers
//!
//! The compiled state above lives inside an `EngineCore` — one immutable
//! **epoch snapshot** of the relevant table plus every artifact compiled over
//! it — held by an [`EpochCell`]. Every read entry point (evaluate, batch,
//! transform, lookup, serve) **pins one core** with a single `Arc` load and
//! resolves entirely against it, so a request observes exactly one epoch and
//! never blocks behind ingestion.
//!
//! [`QueryEngine::append_relevant`] builds the *next* epoch off to the side:
//! the appended rows are concatenated onto the relevant table, group indexes
//! are extended in place (old groups keep their ids; new keys mint new ids),
//! sorted/inverted indexes merge just the appended entries, order-statistic
//! indexes keep their base runs behind a shared `Arc` and accumulate
//! per-group **delta runs** merged lazily at read time, and each memoized
//! per-group feature is delta-updated for the **touched groups only** —
//! trivial-predicate streaming/moment features resume their per-group
//! [`StreamDelta`]/[`MomentDelta`] fold state, everything else rescans just
//! the touched groups' rows through [`apply_kernel`]. Untouched artifacts are
//! shared with the prior epoch by `Arc`, so an append's aggregation work is
//! O(touched), not O(table). The finished core is published with one atomic
//! swap; a panic mid-build (chaos-tested via the `exec.ingest.*` failpoints)
//! leaves the prior epoch serving untouched, by construction. Results after
//! any append sequence are **bit-identical to a full refit on the
//! concatenated table** (property-tested).
//!
//! ## Batch evaluation
//!
//! [`QueryEngine::evaluate_batch`] / [`QueryEngine::feature_batch`] fan a
//! candidate pool across a small [`std::thread::scope`]-based worker pool
//! (no external dependencies — the build is offline). Work is distributed by
//! an atomic cursor; every query's result lands in its input slot, and the
//! values are **bit-identical at any thread count** because each candidate's
//! evaluation is independent and visits rows in the same ascending order as
//! the serial path. The default worker count comes from
//! [`default_workers`] (`FEATAUG_THREADS` overrides it; CI runs the suite at
//! both 1 thread and the default).
//!
//! ## Transform path (offline → online)
//!
//! Search evaluates candidates against the *training* table, but a fitted
//! plan's value is applying its queries to **unseen** rows. Every entry
//! point splits an evaluation into the same two halves: the per-group
//! aggregation runs once per query and is memoized group-aligned in the
//! feature memo below, and a gather then maps it onto rows.
//! [`QueryEngine::evaluate`] gathers through the training table's
//! precomputed row → group map; [`QueryEngine::transform`] gathers through a
//! fresh [`KeyMapper`]-driven key mapping for whatever table is being served
//! — so transforming N tables pays the aggregation once plus N O(rows)
//! gathers, and a fitted plan's first transform reuses the aggregations its
//! search already ran (unless the memo's budget dropped them).
//! [`QueryEngine::lookup`] is the online half: a
//! single-key point read out of the same per-group features (two hash probes
//! after the first call). Repeat transforms and lookups move no engine
//! counter, which is how tests assert the reuse.
//!
//! ## The feature memo
//!
//! One memo per epoch holds every per-group feature any entry point has
//! aggregated, keyed by the query's structural `Debug` form — its
//! `(aggregate, aggregated column, predicate, key subset)`. TPE resamples
//! near-duplicate configurations, so a repeat candidate skips the whole
//! aggregation; `evaluate` hits are visible as
//! [`EngineStats::feature_cache_hits`]. Each entry carries a `served` flag,
//! set only when transform, lookup or `prepare` reads it. The memo is held
//! to a fixed 64 MiB budget (`values.len() × 16 B` per entry): an insert
//! past it drops every entry that is not served. `append_relevant` carries only
//! served entries into the next epoch, so search-time entries end at an
//! epoch boundary and an append delta-updates just what serving reads.
//!
//! ## Aggregation kernels
//!
//! Grouped aggregation is driven by the kernel families of
//! [`feataug_tabular::kernels`]: the five cheap functions stream in one pass,
//! the variance family and `KURTOSIS` stream in two passes (sum, then centred
//! power sums — no per-group value buffers), and the order statistics run
//! over the memoized sorted-group value index. The reference
//! [`AggFunc::apply`] survives as the property-test oracle only; the one
//! evaluation path still materialising per-group buckets is a filtered
//! categorical aggregation column, whose re-interned dictionary codes are
//! query-local (served by the dictionary-code frequency kernel plus a
//! per-bucket sort for `MEDIAN`/`MAD`).
//!
//! The engine's output is **bit-for-bit identical** to the reference path's
//! `feature_vector(&query.augment(train, relevant)?, &name)`: accumulation
//! visits values in the same ascending row order (or the ascending value
//! order the reference's sort produces), presence/NULL semantics mirror
//! group-by + left-join exactly — including the canonical ±0.0/NaN rules of
//! [`feataug_tabular::aggregate`] — and the equivalence is enforced by
//! property tests over randomized query pools at several thread counts
//! (`tests/proptests.rs`).

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use feataug_tabular::aggregate::canonical_nan;
use feataug_tabular::groupby::{key_atom, KeyAtom};
use feataug_tabular::join::KeyMapper;
use feataug_tabular::kernels::{
    accumulate_m2, accumulate_m4, apply_kernel, count_distinct_sorted, entropy_sorted, mad_sorted,
    median_sorted, mode_sorted, moment_finalize, CodeFreqKernel, KernelFamily, MomentDelta,
    StreamDelta,
};
use feataug_tabular::selection::{fill_eq, fill_range_view, SelectionMask};
use feataug_tabular::{AggFunc, Column, Predicate, Table, Value};

use crate::query::PredicateQuery;

/// Hard cap on the worker count [`default_workers`] infers from the machine.
const MAX_DEFAULT_WORKERS: usize = 8;

/// Minimum candidate-pool size per batch worker. Spawning a thread costs more
/// than evaluating a handful of candidates, so the batch entry points size
/// their worker count by pool cost — one worker per `MIN_POOL_PER_WORKER`
/// candidates, capped by the machine's parallelism — instead of always fanning
/// a tiny pool across the flat cap of [`MAX_DEFAULT_WORKERS`].
const MIN_POOL_PER_WORKER: usize = 8;

/// Byte budget of the feature memo (see [`FeatureMemo::insert`]).
const FEATURE_MEMO_BYTES: usize = 64 << 20;

/// Parse a `FEATAUG_THREADS`-style override: a positive integer wins, anything
/// else (unset, non-numeric, zero) falls through to auto-detection.
fn env_workers(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.parse::<usize>().ok())
        .filter(|n| *n >= 1)
}

/// The machine-derived worker count: available parallelism capped at
/// [`MAX_DEFAULT_WORKERS`].
fn auto_workers() -> usize {
    hardware_parallelism().min(MAX_DEFAULT_WORKERS)
}

/// The machine's available parallelism, probed once and cached (the probe can
/// involve a syscall, and [`fan_out`] consults it on every batch).
fn hardware_parallelism() -> usize {
    static HARDWARE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The worker count [`fan_out`] actually runs with: `requested` clamped to
/// `1..=items_len`, collapsed to one — the inline, thread-free serial path —
/// when the machine has a single hardware thread. On a 1-CPU host scoped
/// workers cannot overlap, so spawning them only adds scheduling overhead
/// (the `parallel_transform_speedup < 1` regression); the serial path is
/// bit-identical, so the collapse is free.
fn effective_fan_out_workers(requested: usize, items_len: usize, hardware: usize) -> usize {
    if hardware <= 1 {
        return 1;
    }
    requested.max(1).min(items_len.max(1))
}

/// The worker count batch evaluation uses when none is given explicitly: the
/// `FEATAUG_THREADS` environment variable if set to a positive integer,
/// otherwise the machine's available parallelism capped at 8.
pub fn default_workers() -> usize {
    if let Some(n) = env_workers(std::env::var("FEATAUG_THREADS").ok().as_deref()) {
        return n;
    }
    auto_workers()
}

/// Pure worker-sizing rule behind [`workers_for_pool`]: the machine-derived
/// worker count, further capped so every worker has at least
/// [`MIN_POOL_PER_WORKER`] candidates to chew on (never below one worker).
fn pool_workers(auto: usize, pool_len: usize) -> usize {
    auto.min(pool_len.div_ceil(MIN_POOL_PER_WORKER)).max(1)
}

/// The worker count a batch evaluation of `pool_len` candidates uses: a
/// positive `FEATAUG_THREADS` stays authoritative (exactly like
/// [`default_workers`]); otherwise the machine-derived count is capped by the
/// pool's cost — `min(default_workers(), ceil(pool_len / 8))` — so a
/// five-candidate pool no longer pays eight thread spawns for five items.
pub fn workers_for_pool(pool_len: usize) -> usize {
    if let Some(n) = env_workers(std::env::var("FEATAUG_THREADS").ok().as_deref()) {
        return n;
    }
    pool_workers(auto_workers(), pool_len)
}

/// How an engine (and everything built on it) holds a table: borrowed from
/// the caller — the zero-copy, search-time shape — or under shared `Arc`
/// ownership, which makes the holder `'static` and free to cross threads or
/// outlive the fitting process entirely (the serving shape).
#[derive(Clone)]
pub enum TableHandle<'a> {
    /// Borrowed for the caller's lifetime.
    Borrowed(&'a Table),
    /// Shared ownership; the handle is `'static`.
    Shared(Arc<Table>),
}

impl std::ops::Deref for TableHandle<'_> {
    type Target = Table;
    fn deref(&self) -> &Table {
        match self {
            TableHandle::Borrowed(t) => t,
            TableHandle::Shared(t) => t,
        }
    }
}

impl<'a> From<&'a Table> for TableHandle<'a> {
    fn from(table: &'a Table) -> TableHandle<'a> {
        TableHandle::Borrowed(table)
    }
}

impl From<Arc<Table>> for TableHandle<'static> {
    fn from(table: Arc<Table>) -> TableHandle<'static> {
        TableHandle::Shared(table)
    }
}

impl TableHandle<'_> {
    /// Upgrade to shared ownership. A borrowed table is cloned once — the
    /// one-time price of decoupling from the caller's lifetime — while a
    /// shared handle is a refcount bump. The clone carries identical
    /// dictionaries and row order, so artifacts compiled against the
    /// borrowed table stay valid against the upgraded one.
    pub fn into_shared(self) -> TableHandle<'static> {
        match self {
            TableHandle::Borrowed(t) => TableHandle::Shared(Arc::new(t.clone())),
            TableHandle::Shared(t) => TableHandle::Shared(t),
        }
    }
}

/// The typed error of every fallible engine / serving entry point.
///
/// Tabular-layer failures (missing column, key-arity mismatch, malformed
/// query) pass through unchanged; [`EngineError::WorkerPanic`] is new with
/// the robustness layer — a panic inside one worker's evaluation is caught at
/// the fan-out boundary, converted into this variant, and fails **only the
/// affected request** while the rest of the batch completes normally.
#[derive(Debug)]
pub enum EngineError {
    /// A tabular-layer failure, passed through verbatim.
    Tabular(feataug_tabular::TabularError),
    /// A worker panicked mid-request. `context` names the fan-out site (for
    /// operators correlating logs), `message` carries the panic payload.
    WorkerPanic {
        /// The fan-out site the panic escaped from.
        context: &'static str,
        /// The panic payload, rendered.
        message: String,
    },
    /// The request's deadline passed before a serving lookup's probe loop
    /// finished, and the lookup stopped before its next key probe. Distinct
    /// from a failure: the serving tier maps it onto its graceful-degradation
    /// path (all-NULL features).
    Cancelled,
}

/// Result alias of the engine / serving entry points.
pub type EngineResult<T> = Result<T, EngineError>;

impl From<feataug_tabular::TabularError> for EngineError {
    fn from(e: feataug_tabular::TabularError) -> EngineError {
        EngineError::Tabular(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // The inner message verbatim: callers match on the tabular
            // error's own wording.
            EngineError::Tabular(e) => write!(f, "{e}"),
            EngineError::WorkerPanic { context, message } => {
                write!(f, "worker panicked in {context}: {message}")
            }
            EngineError::Cancelled => write!(f, "request deadline passed mid-lookup"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Tabular(e) => Some(e),
            EngineError::WorkerPanic { .. } | EngineError::Cancelled => None,
        }
    }
}

/// Render a caught panic payload into a human-readable message (`panic!`
/// payloads are `&str` or `String` in practice).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Poison-tolerant lock acquisition. A panic while a thread holds one of the
/// engine's locks marks it poisoned, but every artifact behind these locks
/// stays sound across an unwind: the memo maps only ever gain fully-built
/// immutable `Arc`s (a panicked build never inserted), and the scratch pool
/// only holds scratch whose invariants were restored before return (a
/// panicked worker's scratch is dropped, not returned). So the right response
/// to poison is to recover the guard and keep serving — one bad candidate
/// must not brick a shared engine.
pub(crate) fn read_recover<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// See [`read_recover`].
pub(crate) fn write_recover<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// See [`read_recover`].
pub(crate) fn lock_recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker's scatter-back: `(input slot, result)` pairs, or the panic
/// message if the worker thread itself died.
type WorkerPart<R> = Result<Vec<(usize, EngineResult<R>)>, String>;

/// The one scoped-worker fan-out loop behind every batch entry point
/// (candidate evaluation, parallel transform, batch lookups). Work is handed
/// out by an atomic cursor — dynamic load balance, since item costs are
/// uneven — each worker builds one `state` for its whole run (a reusable
/// buffer), and every result is scattered back to its input slot, so the
/// output is positionally deterministic regardless of scheduling. `workers`
/// is clamped to `1..=items.len()`; one worker runs the loop inline with no
/// threads.
///
/// **Panic containment.** Each item's `work` call runs under
/// [`catch_unwind`]: a panic fails only that item — its slot becomes
/// [`EngineError::WorkerPanic`] naming `context` — and the worker keeps
/// draining the cursor with a *fresh* `state` (the panicked one may have
/// broken invariants mid-mutation, so it is dropped). Should a worker thread
/// die anyway (a panic in `state` itself), its claimed-but-unreported items
/// degrade to the same typed error instead of crashing the process.
pub(crate) fn fan_out<T, S, R>(
    items: &[T],
    workers: usize,
    context: &'static str,
    state: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, &T) -> EngineResult<R> + Sync,
) -> Vec<EngineResult<R>>
where
    T: Sync,
    R: Send,
{
    let workers = effective_fan_out_workers(workers, items.len(), hardware_parallelism());
    let guarded = |s: &mut S, item: &T| -> (EngineResult<R>, bool) {
        match catch_unwind(AssertUnwindSafe(|| work(s, item))) {
            Ok(result) => (result, false),
            Err(payload) => (
                Err(EngineError::WorkerPanic {
                    context,
                    message: panic_message(payload),
                }),
                true,
            ),
        }
    };
    if workers == 1 {
        let mut s = state();
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let (result, panicked) = guarded(&mut s, item);
            if panicked {
                // Drop the possibly-corrupted state, rebuild fresh.
                s = state();
            }
            out.push(result);
        }
        return out;
    }
    let cursor = AtomicUsize::new(0);
    let parts: Vec<WorkerPart<R>> = std::thread::scope(|scope| {
        let (cursor, state, guarded) = (&cursor, &state, &guarded);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut s = state();
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        let (result, panicked) = guarded(&mut s, item);
                        if panicked {
                            s = state();
                        }
                        local.push((i, result));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(panic_message))
            .collect()
    });
    let mut out: Vec<Option<EngineResult<R>>> = (0..items.len()).map(|_| None).collect();
    let mut lost: Option<String> = None;
    for part in parts {
        match part {
            Ok(results) => {
                for (i, result) in results {
                    out[i] = Some(result);
                }
            }
            Err(message) => lost = Some(message),
        }
    }
    out.into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err(EngineError::WorkerPanic {
                    context,
                    message: match &lost {
                        Some(m) => format!("worker thread died before reaching this item: {m}"),
                        None => "worker thread died before reaching this item".to_string(),
                    },
                })
            })
        })
        .collect()
}

/// A compiled grouping of the relevant table by one group-key subset, plus the
/// gather map aligning train rows with groups. Immutable once built.
#[derive(Debug)]
pub(crate) struct GroupIndex {
    /// Dense group id per relevant row.
    group_of_row: Vec<u32>,
    /// Number of distinct groups (including NULL-key groups).
    n_groups: usize,
    /// For each train row, the group its key maps to (`None`: NULL key,
    /// value absent from the relevant table, or incompatible key types —
    /// exactly the rows the reference left join leaves NULL).
    train_group: Vec<Option<u32>>,
    /// Typed key → group id, in the relevant table's key space. Retained from
    /// index construction so the transform/serve paths can gather per-group
    /// features onto *arbitrary* tables (and answer point lookups) without
    /// regrouping; costs one entry per distinct group.
    key_to_group: HashMap<Vec<KeyAtom>, u32>,
}

impl GroupIndex {
    /// Probe the retained key map with a typed key already translated into
    /// the relevant table's key space (the serving hot path: one hash probe,
    /// no allocation — `Vec<KeyAtom>` borrows as `[KeyAtom]`).
    pub(crate) fn group_of_key(&self, key: &[KeyAtom]) -> Option<u32> {
        self.key_to_group.get(key).copied()
    }
}

/// Sorted row index over one numeric column: row ids ordered by value, NULLs
/// and NaNs excluded (neither ever satisfies a bounded range predicate).
/// Turns a range leaf into two binary searches plus O(matches) bit sets.
struct SortedIndex {
    rows: Vec<u32>,
    vals: Vec<f64>,
}

/// Inverted index over one categorical column: the row ids holding each
/// dictionary code. Turns an equality leaf into O(matches) bit sets. Each
/// code's row list sits behind its own `Arc` so an epoch append clones the
/// outer vector (refcount bumps) and rewrites only the codes the appended
/// rows actually carry.
struct CatIndex {
    rows_by_code: Vec<Arc<Vec<u32>>>,
}

/// Memo key of an [`OrderIndex`]: the aggregation column and the group-key
/// subset it was compiled for.
type OrderKey = (String, Vec<String>);

/// Sorted-group value index over one `(aggregation column, group-key subset)`
/// pair: every group's non-null values pre-sorted by [`f64::total_cmp`]
/// (exactly the order the reference's per-candidate `sort_by(total_cmp)`
/// produces), with the owning row id kept alongside each value. Compiled once
/// and memoized in the engine's shared core; an order-statistic candidate then
/// reads its groups' sorted runs directly (trivial predicate) or merges the
/// selected rows out of them (one mask probe per value), instead of paying a
/// copy + sort per candidate.
struct OrderIndex {
    /// The runs as of the epoch the index was first compiled in, in CSR
    /// form. Shared by `Arc` across epochs — appends never rewrite it.
    base: Arc<OrderBase>,
    /// Per-group delta run of appended values (sorted within itself by
    /// `total_cmp`; every delta row id is greater than every base row id).
    /// Appends merge each touched group's new batch into its delta run;
    /// readers merge base + delta lazily in [`OrderIndex::run`]. Untouched
    /// groups' runs are shared `Arc`s across epochs.
    delta: HashMap<u32, Arc<OrderRun>>,
}

/// The CSR bulk of an [`OrderIndex`].
struct OrderBase {
    /// Per-group run bounds into `rows` / `vals` (`n_groups + 1` entries).
    starts: Vec<u32>,
    /// Row id of each non-null value, grouped by group id, value-sorted
    /// within each group.
    rows: Vec<u32>,
    /// The values, parallel to `rows`.
    vals: Vec<f64>,
}

/// One group's sorted run of appended `(row, value)` entries.
#[derive(Default)]
struct OrderRun {
    rows: Vec<u32>,
    vals: Vec<f64>,
}

impl OrderIndex {
    /// The base-epoch `(rows, vals)` run of group `g` (empty for groups
    /// minted after the index was compiled).
    fn base_run(&self, g: usize) -> (&[u32], &[f64]) {
        if g + 1 >= self.base.starts.len() {
            return (&[], &[]);
        }
        let start = self.base.starts[g] as usize;
        let end = self.base.starts[g + 1] as usize;
        (&self.base.rows[start..end], &self.base.vals[start..end])
    }

    /// Total run length of group `g` (base + delta) — the exact per-group
    /// accounting the merge-vs-scatter cost model reads.
    fn run_len(&self, g: usize) -> usize {
        let (rows, _) = self.base_run(g);
        rows.len() + self.delta.get(&(g as u32)).map_or(0, |d| d.rows.len())
    }

    /// The `(rows, vals)` run of group `g`. Groups without a delta run read
    /// the base CSR in place (zero copy — the common case); touched groups
    /// 2-way merge base + delta into the caller's buffers, preferring the
    /// base side on `total_cmp` ties. Base rows all precede delta rows, and
    /// `total_cmp` equality means bit-identical values, so the merged run
    /// reproduces a from-scratch stable per-group sort exactly.
    fn run<'x>(
        &'x self,
        g: usize,
        rows_buf: &'x mut Vec<u32>,
        vals_buf: &'x mut Vec<f64>,
    ) -> (&'x [u32], &'x [f64]) {
        let (brows, bvals) = self.base_run(g);
        let Some(delta) = self.delta.get(&(g as u32)) else {
            return (brows, bvals);
        };
        rows_buf.clear();
        vals_buf.clear();
        rows_buf.reserve(brows.len() + delta.rows.len());
        vals_buf.reserve(bvals.len() + delta.vals.len());
        let (mut i, mut j) = (0, 0);
        while i < brows.len() && j < delta.rows.len() {
            if bvals[i].total_cmp(&delta.vals[j]) != std::cmp::Ordering::Greater {
                rows_buf.push(brows[i]);
                vals_buf.push(bvals[i]);
                i += 1;
            } else {
                rows_buf.push(delta.rows[j]);
                vals_buf.push(delta.vals[j]);
                j += 1;
            }
        }
        rows_buf.extend_from_slice(&brows[i..]);
        vals_buf.extend_from_slice(&bvals[i..]);
        rows_buf.extend_from_slice(&delta.rows[j..]);
        vals_buf.extend_from_slice(&delta.vals[j..]);
        (rows_buf.as_slice(), vals_buf.as_slice())
    }
}

fn build_order_index(gi: &GroupIndex, view: &[Option<f64>]) -> OrderIndex {
    let n_groups = gi.n_groups;
    let mut starts = vec![0u32; n_groups + 1];
    for (row, v) in view.iter().enumerate() {
        if v.is_some() {
            starts[gi.group_of_row[row] as usize + 1] += 1;
        }
    }
    for g in 0..n_groups {
        starts[g + 1] += starts[g];
    }
    let total = starts[n_groups] as usize;
    let mut cursors: Vec<u32> = starts[..n_groups].to_vec();
    let mut entries: Vec<(f64, u32)> = vec![(0.0, 0); total];
    for (row, v) in view.iter().enumerate() {
        if let Some(x) = v {
            let g = gi.group_of_row[row] as usize;
            entries[cursors[g] as usize] = (*x, row as u32);
            cursors[g] += 1;
        }
    }
    for g in 0..n_groups {
        // Stable sort: bit-equal values keep ascending row order, so the
        // selection merge probes the mask in a deterministic order.
        entries[starts[g] as usize..starts[g + 1] as usize].sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    OrderIndex {
        base: Arc::new(OrderBase {
            starts,
            rows: entries.iter().map(|(_, r)| *r).collect(),
            vals: entries.iter().map(|(v, _)| *v).collect(),
        }),
        delta: HashMap::new(),
    }
}

/// The mutable buffers one aggregation needs. Each aggregation checks one out
/// of the engine's pool, so the shared core stays read-only during evaluation
/// and workers never contend.
#[derive(Default)]
struct EvalScratch {
    /// Predicate result mask, reused across evaluations.
    mask: SelectionMask,
    /// Scratch mask for conjunction terms.
    scratch: SelectionMask,
    /// Selected-row count per group (presence: a group none of whose rows
    /// survive the predicate yields NULL, like the reference join). Kept
    /// all-zero between evaluations; only the groups in `touched` are dirty
    /// during one, and they are re-zeroed on the way out, so per-query cost
    /// scales with the groups actually hit rather than the group universe.
    sel_count: Vec<u32>,
    /// Groups hit by the current evaluation, in first-touch order.
    touched: Vec<u32>,
    /// Non-null aggregated-value count per touched group.
    nonnull: Vec<u32>,
    /// Streaming accumulator per touched group (sum / min / max, then the
    /// group mean between the two moment passes).
    acc: Vec<f64>,
    /// Centred second-power sum per touched group (moment kernels, pass 2).
    m2: Vec<f64>,
    /// Centred fourth-power sum per touched group (kurtosis, pass 2).
    m4: Vec<f64>,
    /// Bucket cursors / offsets for the order-preserving scatter path.
    cursors: Vec<u32>,
    /// Flat per-group value buckets for the scatter path.
    scatter: Vec<f64>,
    /// One group's selected values merged out of its pre-sorted run.
    sorted_buf: Vec<f64>,
    /// Row-id half of one group's lazily-merged base + delta run.
    merge_rows: Vec<u32>,
    /// Value half of one group's lazily-merged base + delta run.
    merge_vals: Vec<f64>,
    /// Deviation scratch for the MAD kernel.
    dev_buf: Vec<f64>,
    /// Dense code-frequency kernel for dictionary-coded aggregation columns.
    freq: CodeFreqKernel,
    /// Per-query remapped view for categorical aggregation columns under a
    /// filtering predicate (see [`remapped_cat_view`]).
    cat_view: Vec<Option<f64>>,
    /// Old-code → re-interned-code scratch for the same path.
    cat_remap: Vec<Option<u32>>,
    /// Final aggregate per touched group.
    group_out: Vec<Option<f64>>,
}

/// A memoized per-group feature paired with its group index (transform path).
type SharedGroupFeature = (Arc<GroupIndex>, Arc<Vec<Option<f64>>>);

/// The engine's one feature memo (see the [module docs](self)): each query's
/// [`GroupFeature`] and its `served` flag, keyed by the query's `Debug`
/// rendering — unlike the displayed SQL (whose string literals are not quote
/// escaped), the `Debug` form is structurally unambiguous, so two distinct
/// queries can never share a slot.
#[derive(Clone, Default)]
struct FeatureMemo {
    map: HashMap<String, (Arc<GroupFeature>, bool)>,
    /// [`GroupFeature::bytes`] summed over the entries.
    bytes: usize,
}

impl FeatureMemo {
    fn key(query: &PredicateQuery) -> String {
        format!("{query:?}")
    }

    /// The entry under `key` and its `served` flag.
    fn get(&self, key: &str) -> Option<(Arc<GroupFeature>, bool)> {
        self.map
            .get(key)
            .map(|(entry, served)| (entry.clone(), *served))
    }

    /// Insert `entry` under `key` and return the memo's entry for it — the
    /// one already there if another request inserted first, whose flag then
    /// also takes `served`. An insert that would take the memo past `budget`
    /// bytes first drops every entry that is not served.
    fn insert(
        &mut self,
        key: String,
        entry: Arc<GroupFeature>,
        served: bool,
        budget: usize,
    ) -> Arc<GroupFeature> {
        if let Some((existing, flag)) = self.map.get_mut(&key) {
            *flag |= served;
            return existing.clone();
        }
        if self.bytes + entry.bytes() > budget {
            self.map.retain(|_, (_, served)| *served);
            self.bytes = self.map.values().map(|(e, _)| e.bytes()).sum();
        }
        self.bytes += entry.bytes();
        self.map.insert(key, (entry.clone(), served));
        entry
    }
}

/// A memoized per-group feature (one slot per group of the query's key
/// subset) plus everything `append_relevant` needs to delta-update it: the
/// query itself and — for trivial-predicate streaming families — resumable
/// per-group kernel state.
struct GroupFeature {
    /// The query this feature materialises, retained so the next epoch can
    /// re-derive selection and touched-group membership.
    query: PredicateQuery,
    /// One aggregate per group; `None` = group absent under the predicate or
    /// NULL-valued.
    values: Arc<Vec<Option<f64>>>,
    /// Resumable per-group kernel state.
    state: FeatureState,
}

impl GroupFeature {
    /// What the feature memo's budget counts for this entry.
    fn bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<Option<f64>>()
    }
}

/// Resumable per-group kernel state of a [`GroupFeature`]. The maps are
/// lazily populated: a group's state is built by one rescan of its rows the
/// first time an append touches it, and every later append just resumes the
/// fold over that group's appended rows.
#[derive(Clone)]
enum FeatureState {
    /// Features whose deltas always rescan the touched groups (non-trivial
    /// predicates, order statistics, categorical aggregation columns).
    None,
    /// Trivial-predicate Stream family: the resumed one-pass fold per group.
    Stream(HashMap<u32, StreamDelta>),
    /// Trivial-predicate Moment family: the resumed pass-1 (count, sum) per
    /// group; pass 2 rescans the touched group with the updated mean.
    Moment(HashMap<u32, MomentDelta>),
}

/// An atomically-swappable versioned slot: the published value plus a
/// monotonically increasing generation counter. Readers [`EpochCell::load`]
/// the current `Arc` (cheap, allocation-free) and keep serving from it even
/// while a writer [`EpochCell::swap`]s in a successor — an `Arc` pin, not a
/// lock hold. The generation lets readers detect staleness with one atomic
/// load. Generalized from the serving tier's whole-model hot-swap cell (PR 6)
/// down to the engine's internal epoch snapshots.
pub struct EpochCell<T> {
    /// The current value. A `Mutex` (not `RwLock`): the critical section is a
    /// refcount bump, and a mutex is smaller and has no writer-starvation
    /// edge.
    current: Mutex<Arc<T>>,
    /// Bumped on every install, *while the slot lock is held*, so a reader
    /// never observes a generation newer than the value it loaded.
    generation: AtomicU64,
}

impl<T> EpochCell<T> {
    /// A cell holding `value` at generation 0.
    pub fn new(value: Arc<T>) -> EpochCell<T> {
        EpochCell {
            current: Mutex::new(value),
            generation: AtomicU64::new(0),
        }
    }

    /// The current value (an `Arc` clone — the caller's pin on that epoch).
    // lint: hot-path
    pub fn load(&self) -> Arc<T> {
        // lint: allow(alloc): Arc refcount bump, no heap allocation
        lock_recover(&self.current).clone()
    }

    /// Atomically publish `next`, returning the new generation.
    pub fn swap(&self, next: Arc<T>) -> u64 {
        let mut slot = lock_recover(&self.current);
        *slot = next;
        self.generation.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The generation of the currently-published value.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }
}

/// Summary of one applied append, returned by
/// [`QueryEngine::append_relevant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    /// The new epoch number (counts appends since the engine was built).
    pub epoch: u64,
    /// Rows in the appended batch.
    pub appended_rows: usize,
    /// Total relevant-table rows as of this epoch.
    pub total_rows: usize,
    /// Existing groups the batch touched, summed over the compiled key
    /// subsets.
    pub touched_groups: usize,
    /// Groups minted by the batch, summed over the compiled key subsets.
    pub new_groups: usize,
}

/// One copy-on-write epoch of the engine: the relevant table as of this
/// epoch plus every lazily-compiled artifact over it (locks guard only the
/// memo maps — the artifacts themselves are immutable `Arc`s once built).
/// Readers pin a core for the duration of one request, so each request
/// observes exactly one epoch; `append_relevant` builds the successor off to
/// the side — sharing every untouched artifact with this one — and publishes
/// it through the engine's [`EpochCell`].
pub(crate) struct EngineCore<'a> {
    /// How many appends precede this snapshot (0 = the fitted table).
    epoch: u64,
    /// The relevant table as of this epoch.
    relevant: TableHandle<'a>,
    /// `Vec<Option<f64>>` view per relevant column (aggregation targets and
    /// range-predicate operands).
    views: RwLock<HashMap<String, Arc<Vec<Option<f64>>>>>,
    /// Group index per group-key subset, keyed by the exact key list.
    groups: RwLock<HashMap<Vec<String>, Arc<GroupIndex>>>,
    /// Sorted row index per range-predicate column.
    sorted: RwLock<HashMap<String, Arc<SortedIndex>>>,
    /// Inverted row index per categorical equality-predicate column.
    cats: RwLock<HashMap<String, Arc<CatIndex>>>,
    /// Sorted-group value index per `(aggregation column, group-key subset)`
    /// pair, serving the order-statistic kernels.
    order: RwLock<HashMap<OrderKey, Arc<OrderIndex>>>,
    /// The feature memo: the per-group feature of every query aggregated
    /// against this epoch. Group-aligned (one slot per group of the query's
    /// key subset), so one aggregation pass serves `evaluate`, transforms
    /// onto any number of tables and every point lookup.
    group_feats: RwLock<FeatureMemo>,
}

impl<'a> EngineCore<'a> {
    /// An empty core over `relevant` at `epoch`.
    fn fresh(relevant: TableHandle<'a>, epoch: u64) -> EngineCore<'a> {
        EngineCore {
            epoch,
            relevant,
            views: RwLock::new(HashMap::new()),
            groups: RwLock::new(HashMap::new()),
            sorted: RwLock::new(HashMap::new()),
            cats: RwLock::new(HashMap::new()),
            order: RwLock::new(HashMap::new()),
            group_feats: RwLock::new(FeatureMemo::default()),
        }
    }

    /// The relevant table as of this epoch (for the serving layer's prepared
    /// key translation).
    pub(crate) fn relevant(&self) -> &Table {
        &self.relevant
    }

    /// This snapshot's epoch number.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// The state every clone of a [`QueryEngine`] shares: the current epoch's
/// compiled core (behind the swappable [`EpochCell`]), the scratch pool, the
/// cross-epoch counters, and the ingest lock serializing appends.
struct EngineShared<'a> {
    /// The current epoch. Read paths pin it once per request; appends build
    /// the successor off to the side and publish it here.
    core: EpochCell<EngineCore<'a>>,
    /// Reusable evaluation scratch, one entry per concurrently-active worker.
    /// Shared across epochs: per-group buffers only ever grow, and group
    /// counts only grow across appends.
    scratch: Mutex<Vec<EvalScratch>>,
    /// See [`EngineStats::evaluations`]; accumulated across epochs.
    evaluations: AtomicUsize,
    /// See [`EngineStats::feature_cache_hits`]; accumulated across epochs.
    cache_hits: AtomicUsize,
    /// Serializes `append_relevant` calls. Never held by readers — lookups
    /// and transforms pin the published core and proceed regardless.
    ingest: Mutex<()>,
}

/// Cache and throughput counters of a [`QueryEngine`] (for benches and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// `evaluate` requests served so far (feature-memo hits included), plus
    /// the aggregations transform, lookup and `prepare` ran on memo misses.
    pub evaluations: usize,
    /// Distinct group-key subsets compiled.
    pub group_indexes: usize,
    /// Distinct column views extracted.
    pub column_views: usize,
    /// Distinct `(aggregation column, key subset)` sorted-group value indexes
    /// compiled for the order-statistic kernels.
    pub order_indexes: usize,
    /// `evaluate` requests answered from the feature memo without
    /// aggregating.
    pub feature_cache_hits: usize,
    /// Per-group features in the current epoch's feature memo: the
    /// search-time entries `evaluate` aggregated plus those transform,
    /// lookup and `prepare` read. Each costs exactly one aggregation; repeat
    /// transforms and point lookups are pure memo reads that move *no*
    /// counter.
    pub group_features: usize,
}

/// A compiled, cache-reusing execution engine for candidate predicate queries
/// over one `(train, relevant)` table pair.
///
/// Cloning an engine is cheap and yields a handle onto the *same* compiled
/// core, feature memo and counters — share one engine per table pair across
/// every component that evaluates candidates against it.
///
/// Tables are held through [`TableHandle`]s: [`QueryEngine::new`] borrows
/// them (the search-time shape), [`QueryEngine::new_shared`] takes
/// `Arc<Table>`s and yields a `QueryEngine<'static>` that is `Send + Sync`
/// and free to live in a long-running serving process, and
/// [`QueryEngine::into_owned`] upgrades a borrowed engine in place — keeping
/// every compiled artifact.
#[derive(Clone)]
pub struct QueryEngine<'a> {
    train: TableHandle<'a>,
    shared: Arc<EngineShared<'a>>,
}

impl<'a> QueryEngine<'a> {
    /// Build an engine over the task's table pair. Compilation is lazy: group
    /// indexes and column views are built on first use and memoized for the
    /// lifetime of the engine (one search).
    pub fn new(train: &'a Table, relevant: &'a Table) -> QueryEngine<'a> {
        QueryEngine::with_handles(train.into(), relevant.into())
    }

    /// Build an engine that co-owns its tables. The result is
    /// `QueryEngine<'static>`: it can be moved across threads and outlive
    /// the code that loaded the tables — the shape a long-running serving
    /// process needs.
    pub fn new_shared(train: Arc<Table>, relevant: Arc<Table>) -> QueryEngine<'static> {
        QueryEngine::with_handles(train.into(), relevant.into())
    }

    /// Build an engine over explicit [`TableHandle`]s (the general form
    /// behind [`QueryEngine::new`] / [`QueryEngine::new_shared`]).
    pub fn with_handles(train: TableHandle<'a>, relevant: TableHandle<'a>) -> QueryEngine<'a> {
        QueryEngine {
            train,
            shared: Arc::new(EngineShared {
                core: EpochCell::new(Arc::new(EngineCore::fresh(relevant, 0))),
                scratch: Mutex::new(Vec::new()),
                evaluations: AtomicUsize::new(0),
                cache_hits: AtomicUsize::new(0),
                ingest: Mutex::new(()),
            }),
        }
    }

    /// Upgrade this engine to shared table ownership, keeping the compiled
    /// core: every memoized group index, column view, order index, memoized
    /// feature and counter carries over (map clones are `Arc` refcount
    /// bumps; table clones preserve dictionaries and row order, so the
    /// artifacts stay valid). Borrowed tables are cloned once;
    /// already-shared handles are refcount bumps.
    pub fn into_owned(self) -> QueryEngine<'static> {
        let core = self.shared.core.load();
        let owned = EngineCore {
            epoch: core.epoch,
            relevant: core.relevant.clone().into_shared(),
            views: RwLock::new(read_recover(&core.views).clone()),
            groups: RwLock::new(read_recover(&core.groups).clone()),
            sorted: RwLock::new(read_recover(&core.sorted).clone()),
            cats: RwLock::new(read_recover(&core.cats).clone()),
            order: RwLock::new(read_recover(&core.order).clone()),
            group_feats: RwLock::new(read_recover(&core.group_feats).clone()),
        };
        QueryEngine {
            train: self.train.into_shared(),
            shared: Arc::new(EngineShared {
                core: EpochCell::new(Arc::new(owned)),
                scratch: Mutex::new(Vec::new()),
                evaluations: AtomicUsize::new(self.shared.evaluations.load(Ordering::Relaxed)),
                cache_hits: AtomicUsize::new(self.shared.cache_hits.load(Ordering::Relaxed)),
                ingest: Mutex::new(()),
            }),
        }
    }

    /// Pin the current epoch: every artifact resolved through the returned
    /// core belongs to one consistent snapshot, no matter how many appends
    /// land while the caller holds it.
    pub(crate) fn core(&self) -> Arc<EngineCore<'a>> {
        self.shared.core.load()
    }

    /// The current epoch number: how many [`QueryEngine::append_relevant`]
    /// batches have been applied (0 = the fitted table).
    pub fn epoch(&self) -> u64 {
        self.core().epoch
    }

    /// Cache and throughput counters, accumulated across every clone of this
    /// engine. Counter totals are deterministic for serial use; under batch
    /// evaluation the split between `feature_cache_hits` and real evaluations
    /// may vary with scheduling (results never do). Compiled-artifact counts
    /// describe the current epoch's core.
    pub fn stats(&self) -> EngineStats {
        let core = self.core();
        let stats = EngineStats {
            evaluations: self.shared.evaluations.load(Ordering::Relaxed),
            group_indexes: read_recover(&core.groups).len(),
            column_views: read_recover(&core.views).len(),
            order_indexes: read_recover(&core.order).len(),
            feature_cache_hits: self.shared.cache_hits.load(Ordering::Relaxed),
            group_features: read_recover(&core.group_feats).map.len(),
        };
        stats
    }

    /// Evaluate `query` and return its feature aligned with the training
    /// table's rows (`None` = SQL NULL), exactly as the reference
    /// execute-then-left-join path would produce: the memoized per-group
    /// feature, gathered through the training table's row → group map.
    pub fn evaluate(&self, query: &PredicateQuery) -> EngineResult<Vec<Option<f64>>> {
        self.evaluate_in(&self.core(), query)
    }

    /// The one `evaluate` path, against a pinned epoch. Search-time entries
    /// are memoized unserved.
    fn evaluate_in(
        &self,
        core: &EngineCore<'a>,
        query: &PredicateQuery,
    ) -> EngineResult<Vec<Option<f64>>> {
        self.shared.evaluations.fetch_add(1, Ordering::Relaxed);
        let (gi, entry, hit) = self.memo_entry(core, query, false)?;
        if hit {
            self.shared.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(gather(&gi.train_group, &entry.values))
    }

    /// Evaluate `query` into the NaN-encoded feature vector the search loops
    /// consume, together with the feature's column name. Mirrors
    /// `feature_vector(&query.augment(train, relevant)?.0, &name)`.
    pub fn feature(&self, query: &PredicateQuery) -> EngineResult<(String, Vec<f64>)> {
        let values = self.evaluate(query)?;
        Ok((query.feature_name(), nan_encode(values)))
    }

    /// Evaluate a whole candidate pool, fanning it across
    /// [`workers_for_pool`] threads (pool-cost-sized; `FEATAUG_THREADS`
    /// overrides). `results[i]` is query `i`'s outcome; values are
    /// bit-identical to calling [`QueryEngine::evaluate`] serially, at any
    /// worker count.
    pub fn evaluate_batch(
        &self,
        queries: &[PredicateQuery],
    ) -> Vec<EngineResult<Vec<Option<f64>>>> {
        self.evaluate_batch_threads(queries, workers_for_pool(queries.len()))
    }

    /// [`QueryEngine::evaluate_batch`] with an explicit worker count
    /// (clamped to `1..=queries.len()`).
    pub fn evaluate_batch_threads(
        &self,
        queries: &[PredicateQuery],
        workers: usize,
    ) -> Vec<EngineResult<Vec<Option<f64>>>> {
        // Pin one epoch for the whole batch: every query resolves against the
        // same snapshot even if appends land mid-batch.
        let core = self.core();
        fan_out(
            queries,
            workers,
            "batch evaluation",
            || (),
            |_, query| self.evaluate_in(&core, query),
        )
    }

    /// Batch counterpart of [`QueryEngine::feature`]: the candidate pool's
    /// NaN-encoded feature vectors and names, in input order.
    pub fn feature_batch(
        &self,
        queries: &[PredicateQuery],
    ) -> Vec<EngineResult<(String, Vec<f64>)>> {
        self.feature_batch_threads(queries, workers_for_pool(queries.len()))
    }

    /// [`QueryEngine::feature_batch`] with an explicit worker count.
    pub fn feature_batch_threads(
        &self,
        queries: &[PredicateQuery],
        workers: usize,
    ) -> Vec<EngineResult<(String, Vec<f64>)>> {
        self.evaluate_batch_threads(queries, workers)
            .into_iter()
            .zip(queries)
            .map(|(result, query)| result.map(|values| (query.feature_name(), nan_encode(values))))
            .collect()
    }

    fn take_scratch(&self) -> EvalScratch {
        lock_recover(&self.shared.scratch).pop().unwrap_or_default()
    }

    fn put_scratch(&self, scratch: EvalScratch) {
        lock_recover(&self.shared.scratch).push(scratch);
    }

    /// Fetch (or evaluate once and memoize) `query`'s **per-group** feature:
    /// one slot per group of the query's key subset, `None` for groups the
    /// predicate filtered out entirely or whose aggregate is NULL — exactly
    /// the value a gather delivers to any row carrying that group's key. This
    /// is the transform/serve workhorse: the aggregation runs once per query
    /// per epoch, and every later transform (over any table) or point lookup
    /// is a memo read that moves no counter. The entry is marked served.
    pub(crate) fn group_feature(
        &self,
        core: &EngineCore<'a>,
        query: &PredicateQuery,
    ) -> EngineResult<SharedGroupFeature> {
        let (gi, entry, hit) = self.memo_entry(core, query, true)?;
        if !hit {
            self.shared.evaluations.fetch_add(1, Ordering::Relaxed);
        }
        Ok((gi, entry.values.clone()))
    }

    /// Probe the feature memo for `query`, aggregating and inserting it on a
    /// miss; `served` marks the entry served. Returns the query's group
    /// index, its entry, and whether the probe hit.
    fn memo_entry(
        &self,
        core: &EngineCore<'a>,
        query: &PredicateQuery,
        served: bool,
    ) -> EngineResult<(Arc<GroupIndex>, Arc<GroupFeature>, bool)> {
        let gi = core.group_index(&self.train, &query.group_keys)?;
        let key = FeatureMemo::key(query);
        // Bind the probe first: its read guard must drop before the insert
        // below takes the write lock.
        let probe = read_recover(&core.group_feats).get(&key);
        let (entry, hit) = match probe {
            Some((entry, flag)) if flag || !served => return Ok((gi, entry, true)),
            Some((entry, _)) => (entry, true),
            None => {
                let values = self.materialize_group_feature(core, query, &gi)?;
                let entry = GroupFeature {
                    query: query.clone(),
                    values,
                    state: FeatureState::None,
                };
                (Arc::new(entry), false)
            }
        };
        let entry = write_recover(&core.group_feats).insert(key, entry, served, FEATURE_MEMO_BYTES);
        Ok((gi, entry, hit))
    }

    /// Evaluate `query`'s per-group feature against `core` (no memo probe, no
    /// counter bump — [`QueryEngine::memo_entry`] and the append path wrap
    /// this with their own bookkeeping).
    fn materialize_group_feature(
        &self,
        core: &EngineCore<'a>,
        query: &PredicateQuery,
        gi: &GroupIndex,
    ) -> EngineResult<Arc<Vec<Option<f64>>>> {
        let mut scratch = self.take_scratch();
        let result = core.aggregate_into_scratch(&mut scratch, query, gi);
        if let Err(e) = result {
            self.put_scratch(scratch);
            return Err(e);
        }
        // Materialise the touched groups (the only ones with live scratch
        // slots). NaN results are canonicalized here: IEEE 754 leaves an
        // arithmetic NaN's sign and payload unspecified, and the reference
        // `AggFunc::apply` pins them to the canonical NaN (see
        // `feataug_tabular::aggregate`).
        let mut values: Vec<Option<f64>> = vec![None; gi.n_groups];
        for &g in &scratch.touched {
            let g = g as usize;
            values[g] = scratch.group_out[g].map(canonical_nan);
        }
        // Restore the all-zero `sel_count` invariant (O(touched groups)).
        for &g in &scratch.touched {
            scratch.sel_count[g as usize] = 0;
        }
        self.put_scratch(scratch);
        Ok(Arc::new(values))
    }

    /// Row → group-id gather map for an **arbitrary** table carrying the
    /// group-key columns, in the relevant table's key space. Built fresh per
    /// call (the table is unknown to the compiled core); the group index it
    /// probes is memoized as usual.
    fn gather_map(
        core: &EngineCore<'a>,
        table: &Table,
        keys: &[String],
        gi: &GroupIndex,
    ) -> feataug_tabular::Result<Vec<Option<u32>>> {
        let key_refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
        let mapper = KeyMapper::new(&core.relevant, table, &key_refs, &key_refs)?;
        Ok((0..table.num_rows())
            .map(|row| {
                mapper
                    .key(row)
                    .and_then(|k| gi.key_to_group.get(&k).copied())
            })
            .collect())
    }

    /// Materialise every query of `queries` onto `table` — any table carrying
    /// the group-key columns, not just the training table the engine was
    /// compiled with. Each query's aggregation runs **once per engine**
    /// (memoized per-group features in the shared core); only the O(rows) key
    /// mapping and gather are paid per table, and one key mapping is shared
    /// by every query grouping on the same key subset. `results[i]` is query
    /// `i`'s feature aligned with `table`'s rows (`None` = SQL NULL), with
    /// value semantics identical to [`QueryEngine::evaluate`] run against a
    /// hypothetical engine whose training table were `table`.
    pub fn transform(
        &self,
        queries: &[PredicateQuery],
        table: &Table,
    ) -> EngineResult<Vec<Vec<Option<f64>>>> {
        self.transform_threads(queries, table, workers_for_pool(queries.len()))
    }

    /// [`QueryEngine::transform`] with an explicit worker count (clamped to
    /// `1..=queries.len()`). Each query's per-group aggregation (memoized) and
    /// O(rows) gather run independently, so the per-query fan-out is
    /// **bit-identical to the serial path at any worker count** — the
    /// property suites enforce it at 1 / 2 / default workers. One key mapping
    /// per distinct group-key subset is built up front and shared by every
    /// query grouping on it; a table missing a key column therefore errors
    /// before any aggregation work.
    pub fn transform_threads(
        &self,
        queries: &[PredicateQuery],
        table: &Table,
        workers: usize,
    ) -> EngineResult<Vec<Vec<Option<f64>>>> {
        // Pin one epoch for the whole transform: gather maps, group indexes
        // and per-group features all resolve against the same snapshot even
        // if appends land mid-call.
        let core = self.core();
        let mut maps: HashMap<&[String], Arc<Vec<Option<u32>>>> = HashMap::new();
        for query in queries {
            if !maps.contains_key(query.group_keys.as_slice()) {
                let gi = core.group_index(&self.train, &query.group_keys)?;
                let built = Arc::new(Self::gather_map(&core, table, &query.group_keys, &gi)?);
                maps.insert(query.group_keys.as_slice(), built);
            }
        }
        // The shared fan-out loop scatters every result back to its input
        // slot, so collecting in order surfaces the first error in *input*
        // order — exactly like the serial path.
        fan_out(
            queries,
            workers,
            "transform",
            || (),
            |_, query| -> EngineResult<Vec<Option<f64>>> {
                crate::fail_point!("exec.gather");
                let (_, feats) = self.group_feature(&core, query)?;
                Ok(gather(&maps[query.group_keys.as_slice()], &feats))
            },
        )
        .into_iter()
        .collect()
    }

    /// Answer a single-key request from the cached per-group features: the
    /// feature `query` assigns to a row whose group-key values are
    /// `key_values` (aligned with `query.group_keys`). `None` when the key is
    /// absent from the relevant table, filtered out by the predicate, NULL, or
    /// type-incompatible with the key column — the same rows a transform
    /// leaves NULL. The first lookup of a query pays its one aggregation;
    /// every later lookup is two hash probes.
    pub fn lookup(
        &self,
        query: &PredicateQuery,
        key_values: &[Value],
    ) -> EngineResult<Option<f64>> {
        self.lookup_pinned(&self.core(), query, key_values)
    }

    /// [`QueryEngine::lookup`] against an explicitly pinned epoch — the form
    /// [`crate::pipeline::AugModel::serve`] uses so a multi-query request
    /// observes one consistent snapshot.
    pub(crate) fn lookup_pinned(
        &self,
        core: &EngineCore<'a>,
        query: &PredicateQuery,
        key_values: &[Value],
    ) -> EngineResult<Option<f64>> {
        if key_values.len() != query.group_keys.len() {
            return Err(feataug_tabular::TabularError::InvalidArgument(format!(
                "lookup key has {} values for {} group-key columns",
                key_values.len(),
                query.group_keys.len()
            ))
            .into());
        }
        let (gi, feats) = self.group_feature(core, query)?;
        let mut key = Vec::with_capacity(key_values.len());
        for (column, value) in query.group_keys.iter().zip(key_values) {
            match core.serve_atom(column, value)? {
                Some(atom) => key.push(atom),
                // NULL / unseen / type-mismatched components never match,
                // exactly like the KeyMapper-driven gather.
                None => return Ok(None),
            }
        }
        Ok(gi.key_to_group.get(&key).and_then(|&g| feats[g as usize]))
    }

    /// Ingest a batch of new relevant-table rows, publishing the next epoch.
    ///
    /// The successor core is built entirely off to the side: every reader
    /// keeps serving the currently-published epoch throughout (lookups never
    /// block behind ingestion) and observes the append atomically at the
    /// final swap. Cost is O(appended rows + touched groups' rows + compiled
    /// column views), not O(compiled artifacts × table): untouched group
    /// runs, inverted lists and per-group features are shared with the prior
    /// epoch by `Arc`, trivial-predicate streaming features resume their
    /// per-group fold, and order-stat indexes merge the batch as a lazy
    /// per-group sorted run. Results after the swap are bit-identical to a
    /// full refit over the concatenated table (property-tested).
    ///
    /// A panic mid-build (or a schema mismatch) leaves the published epoch
    /// untouched — the swap is the last step — and surfaces as
    /// [`EngineError::WorkerPanic`] / [`EngineError::Tabular`]. Appends are
    /// serialized by an internal ingest lock readers never take.
    pub fn append_relevant(&self, rows: &Table) -> EngineResult<Epoch> {
        let _ingest = lock_recover(&self.shared.ingest);
        let old = self.core();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.build_next_core(&old, rows)
        })) {
            Ok(Ok((core, info))) => {
                self.shared.core.swap(Arc::new(core));
                Ok(info)
            }
            Ok(Err(e)) => Err(e),
            Err(payload) => Err(EngineError::WorkerPanic {
                context: "append_relevant",
                message: panic_message(payload),
            }),
        }
    }

    /// Assemble the successor of `old` with `rows` appended. Runs entirely
    /// before the publish swap; nothing here is observable by readers.
    fn build_next_core(
        &self,
        old: &EngineCore<'a>,
        rows: &Table,
    ) -> EngineResult<(EngineCore<'a>, Epoch)> {
        crate::fail_point!("exec.ingest.build");
        let base = old.relevant.num_rows();
        let appended_rows = rows.num_rows();
        // Absorb the batch's categorical dictionaries up front (identical to
        // a plain concat for push-built batches): sharded ingestion cuts
        // sub-batches with `take_with_dict`, and absorbing their full batch
        // dictionary keeps every shard's code assignment globally aligned.
        let relevant = TableHandle::from(Arc::new(old.relevant.concat_absorbing(rows)?));
        let total = relevant.num_rows();
        let core = EngineCore::fresh(relevant, old.epoch + 1);

        // Column views: re-extracted per compiled column — a branch-free
        // O(table) memcpy pass, the same extraction a fresh engine pays once
        // and the only whole-table copy an append makes.
        {
            let mut views = write_recover(&core.views);
            for name in read_recover(&old.views).keys() {
                views.insert(
                    name.clone(),
                    Arc::new(core.relevant.column(name)?.to_f64_vec()),
                );
            }
        }

        // Group indexes: extended per compiled subset. Group ids are stable
        // (first-appearance order is append-only), so every group-aligned
        // artifact downstream can be delta-updated in place.
        let mut deltas: HashMap<Vec<String>, SubsetDelta> = HashMap::new();
        {
            let mut groups = write_recover(&core.groups);
            for (keys, gi) in read_recover(&old.groups).iter() {
                let delta = extend_group_index(gi, &core.relevant, &self.train, keys, base)?;
                groups.insert(keys.clone(), delta.gi.clone());
                deltas.insert(keys.clone(), delta);
            }
        }

        // Sorted range indexes: merge the batch's (value, row) pairs into the
        // ascending run. Ties prefer the old run — old rows precede appended
        // ones, reproducing the stable full-rebuild sort.
        for (name, idx) in read_recover(&old.sorted).iter() {
            let view = core.view(name)?;
            let mut add: Vec<(f64, u32)> = (base..total)
                .filter_map(|row| match view[row] {
                    Some(x) if !x.is_nan() => Some((x, row as u32)),
                    _ => None,
                })
                .collect();
            if add.is_empty() {
                write_recover(&core.sorted).insert(name.clone(), idx.clone());
                continue;
            }
            // lint: allow(panic): the filter_map above drops every NaN, so partial_cmp is total here
            add.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaNs excluded"));
            let mut vals = Vec::with_capacity(idx.vals.len() + add.len());
            let mut rows_out = Vec::with_capacity(idx.rows.len() + add.len());
            let (mut i, mut j) = (0, 0);
            while i < idx.vals.len() && j < add.len() {
                if idx.vals[i] <= add[j].0 {
                    vals.push(idx.vals[i]);
                    rows_out.push(idx.rows[i]);
                    i += 1;
                } else {
                    vals.push(add[j].0);
                    rows_out.push(add[j].1);
                    j += 1;
                }
            }
            vals.extend_from_slice(&idx.vals[i..]);
            rows_out.extend_from_slice(&idx.rows[i..]);
            for &(v, r) in &add[j..] {
                vals.push(v);
                rows_out.push(r);
            }
            write_recover(&core.sorted).insert(
                name.clone(),
                Arc::new(SortedIndex {
                    vals,
                    rows: rows_out,
                }),
            );
        }

        // Inverted categorical indexes: the outer clone is per-code `Arc`
        // bumps; only codes the batch actually carries are rewritten.
        for (name, idx) in read_recover(&old.cats).iter() {
            let Column::Cat(cat) = core.relevant.column(name)? else {
                continue;
            };
            let mut rows_by_code = idx.rows_by_code.clone();
            rows_by_code.resize_with(cat.cardinality(), || Arc::new(Vec::new()));
            let codes = cat.codes();
            for (row, code) in codes.iter().enumerate().take(total).skip(base) {
                if let Some(c) = code {
                    Arc::make_mut(&mut rows_by_code[*c as usize]).push(row as u32);
                }
            }
            write_recover(&core.cats).insert(name.clone(), Arc::new(CatIndex { rows_by_code }));
        }

        // Order-stat indexes: the immutable base CSR is shared by `Arc`; the
        // batch becomes (or merges into) a lazy per-group sorted delta run.
        // Untouched groups' runs carry over as refcount bumps.
        for (okey, idx) in read_recover(&old.order).iter() {
            let (column, keys) = okey;
            let Some(delta_info) = deltas.get(keys) else {
                write_recover(&core.order).insert(okey.clone(), idx.clone());
                continue;
            };
            let view = core.view(column)?;
            let mut delta_map = idx.delta.clone();
            for (&g, rows_of_g) in &delta_info.appended {
                let mut batch: Vec<(f64, u32)> = rows_of_g
                    .iter()
                    .filter_map(|&r| view[r as usize].map(|v| (v, r)))
                    .collect();
                if batch.is_empty() {
                    continue;
                }
                batch.sort_by(|a, b| a.0.total_cmp(&b.0));
                let merged = match delta_map.get(&g) {
                    None => OrderRun {
                        rows: batch.iter().map(|&(_, r)| r).collect(),
                        vals: batch.iter().map(|&(v, _)| v).collect(),
                    },
                    // Merge into the existing delta run, preferring it on
                    // ties (its rows are older).
                    Some(run) => {
                        let mut rows_m = Vec::with_capacity(run.rows.len() + batch.len());
                        let mut vals_m = Vec::with_capacity(run.vals.len() + batch.len());
                        let (mut i, mut j) = (0, 0);
                        while i < run.vals.len() && j < batch.len() {
                            if run.vals[i].total_cmp(&batch[j].0) != std::cmp::Ordering::Greater {
                                vals_m.push(run.vals[i]);
                                rows_m.push(run.rows[i]);
                                i += 1;
                            } else {
                                vals_m.push(batch[j].0);
                                rows_m.push(batch[j].1);
                                j += 1;
                            }
                        }
                        vals_m.extend_from_slice(&run.vals[i..]);
                        rows_m.extend_from_slice(&run.rows[i..]);
                        for &(v, r) in &batch[j..] {
                            vals_m.push(v);
                            rows_m.push(r);
                        }
                        OrderRun {
                            rows: rows_m,
                            vals: vals_m,
                        }
                    }
                };
                delta_map.insert(g, Arc::new(merged));
            }
            write_recover(&core.order).insert(
                okey.clone(),
                Arc::new(OrderIndex {
                    base: idx.base.clone(),
                    delta: delta_map,
                }),
            );
        }

        // Per-group features: every served memo entry is carried into the
        // new epoch — untouched ones as `Arc` shares, touched ones
        // delta-updated — so post-append lookups and transforms stay pure
        // memo reads. Search-time (unserved) entries end with their epoch.
        let old_memo = read_recover(&old.group_feats);
        for (key, (gf, _)) in old_memo.map.iter().filter(|(_, (_, served))| *served) {
            let entry = match deltas.get(&gf.query.group_keys) {
                Some(d) => self.delta_group_feature(&core, gf, d, base)?,
                None => {
                    let gi = core.group_index(&self.train, &gf.query.group_keys)?;
                    Arc::new(GroupFeature {
                        query: gf.query.clone(),
                        values: self.materialize_group_feature(&core, &gf.query, &gi)?,
                        state: FeatureState::None,
                    })
                }
            };
            write_recover(&core.group_feats).insert(key.clone(), entry, true, FEATURE_MEMO_BYTES);
        }
        drop(old_memo);

        let mut touched_groups = 0;
        let mut new_groups = 0;
        for d in deltas.values() {
            touched_groups += d.appended.len() - d.new_groups;
            new_groups += d.new_groups;
        }
        crate::fail_point!("exec.ingest.publish");
        Ok((
            core,
            Epoch {
                epoch: old.epoch + 1,
                appended_rows,
                total_rows: total,
                touched_groups,
                new_groups,
            },
        ))
    }

    /// Carry one memoized per-group feature into the next epoch.
    ///
    /// Fast paths, in order: categorical aggregation columns under a
    /// filtering predicate recompute outright (the reference re-interns
    /// dictionary codes by first appearance among *selected* rows, so one
    /// appended row can renumber every group's view); untouched features
    /// share the prior epoch's `Arc`; trivial-predicate Stream features
    /// resume their one-pass fold per touched group ([`StreamDelta`]);
    /// trivial-predicate Moment features resume pass 1 and rescan only the
    /// touched groups for pass 2 ([`MomentDelta`] — centred power sums are
    /// not mergeable bit-identically); everything else rescans the touched
    /// groups end to end through [`apply_kernel`]. Every path is
    /// bit-identical to a full refit by construction: folds visit the same
    /// values in the same order the engine's own kernels would.
    fn delta_group_feature(
        &self,
        core: &EngineCore<'a>,
        old_gf: &GroupFeature,
        delta: &SubsetDelta,
        base: usize,
    ) -> EngineResult<Arc<GroupFeature>> {
        let query = &old_gf.query;
        let agg = query.agg;
        let gi = &delta.gi;
        let trivial = query.predicate.is_trivial();

        if !trivial && matches!(core.relevant.column(&query.agg_column)?, Column::Cat(_)) {
            let values = self.materialize_group_feature(core, query, gi)?;
            return Ok(Arc::new(GroupFeature {
                query: query.clone(),
                values,
                state: FeatureState::None,
            }));
        }

        // Which appended rows survive the predicate, per group (ascending row
        // order within each group, matching the engine's visit order).
        let mut selected: HashMap<u32, Vec<u32>> = HashMap::new();
        for (&g, rows_of_g) in &delta.appended {
            for &r in rows_of_g {
                if trivial || core.row_matches(&query.predicate, r as usize)? {
                    selected.entry(g).or_default().push(r);
                }
            }
        }

        if selected.is_empty() && gi.n_groups == old_gf.values.len() {
            // Untouched: the prior epoch's feature is this epoch's feature.
            return Ok(Arc::new(GroupFeature {
                query: query.clone(),
                values: old_gf.values.clone(),
                state: old_gf.state.clone(),
            }));
        }

        let view = core.view(&query.agg_column)?;
        let mut values = (*old_gf.values).clone();
        values.resize(gi.n_groups, None);
        let family = KernelFamily::of(agg);

        let state = if trivial && family == KernelFamily::Stream {
            let mut state = match &old_gf.state {
                FeatureState::Stream(m) => m.clone(),
                _ => HashMap::new(),
            };
            // First touch of a group: fold its historical rows once to seed
            // the resumable state; later appends skip straight to the resume.
            let need: Vec<u32> = selected
                .keys()
                .filter(|g| !state.contains_key(g))
                .copied()
                .collect();
            if !need.is_empty() {
                let mut hist: HashMap<u32, StreamDelta> =
                    need.iter().map(|&g| (g, StreamDelta::new(agg))).collect();
                for (row, &g) in gi.group_of_row[..base].iter().enumerate() {
                    if let Some(d) = hist.get_mut(&g) {
                        d.observe(agg, view[row]);
                    }
                }
                state.extend(hist);
            }
            for (&g, rows_sel) in &selected {
                // lint: allow(panic): the `need` pass seeded every selected group into `state`
                let d = state.get_mut(&g).expect("state seeded above");
                for &r in rows_sel {
                    d.observe(agg, view[r as usize]);
                }
                values[g as usize] = d.finalize(agg);
            }
            FeatureState::Stream(state)
        } else if trivial && family == KernelFamily::Moment {
            let mut state = match &old_gf.state {
                FeatureState::Moment(m) => m.clone(),
                _ => HashMap::new(),
            };
            let need: Vec<u32> = selected
                .keys()
                .filter(|g| !state.contains_key(g))
                .copied()
                .collect();
            if !need.is_empty() {
                let mut hist: HashMap<u32, MomentDelta> =
                    need.iter().map(|&g| (g, MomentDelta::new())).collect();
                for (row, &g) in gi.group_of_row[..base].iter().enumerate() {
                    if let Some(d) = hist.get_mut(&g) {
                        d.observe(view[row]);
                    }
                }
                state.extend(hist);
            }
            // Resume pass 1 over the appended rows …
            for (&g, rows_sel) in &selected {
                // lint: allow(panic): the `need` pass seeded every selected group into `state`
                let d = state.get_mut(&g).expect("state seeded above");
                for &r in rows_sel {
                    d.observe(view[r as usize]);
                }
            }
            // … then pass 2 rescans each touched group with the new mean.
            let wants_m4 = agg == AggFunc::Kurtosis;
            let mut m2: HashMap<u32, f64> = selected.keys().map(|&g| (g, 0.0)).collect();
            let mut m4: HashMap<u32, f64> = selected.keys().map(|&g| (g, 0.0)).collect();
            for (row, &g) in gi.group_of_row.iter().enumerate() {
                let Some(slot) = m2.get_mut(&g) else { continue };
                if let Some(v) = view[row] {
                    let mean = state[&g].mean();
                    accumulate_m2(slot, v, mean);
                    if wants_m4 {
                        // lint: allow(panic): m2 and m4 are built from the same `selected` key set
                        accumulate_m4(m4.get_mut(&g).expect("same keys as m2"), v, mean);
                    }
                }
            }
            for (g, d) in &state {
                if !m2.contains_key(g) {
                    continue;
                }
                values[*g as usize] = if d.sel == 0 {
                    None
                } else {
                    moment_finalize(agg, d.nonnull as usize, m2[g], m4[g])
                };
            }
            FeatureState::Moment(state)
        } else {
            // Universal fallback: rescan each touched group end to end and
            // apply the slice kernel — the reference semantics by definition.
            let mut sel: HashMap<u32, u64> = selected.keys().map(|&g| (g, 0)).collect();
            let mut vals: HashMap<u32, Vec<f64>> =
                selected.keys().map(|&g| (g, Vec::new())).collect();
            for (row, &g) in gi.group_of_row.iter().enumerate() {
                let Some(count) = sel.get_mut(&g) else {
                    continue;
                };
                if trivial || core.row_matches(&query.predicate, row)? {
                    *count += 1;
                    if let Some(v) = view[row] {
                        // lint: allow(panic): sel and vals are built from the same `selected` key set
                        vals.get_mut(&g).expect("same keys as sel").push(v);
                    }
                }
            }
            for (g, count) in &sel {
                values[*g as usize] = if *count == 0 {
                    None
                } else {
                    apply_kernel(agg, &vals[g])
                };
            }
            FeatureState::None
        };

        Ok(Arc::new(GroupFeature {
            query: query.clone(),
            values: Arc::new(values),
            state,
        }))
    }
}

/// Per-key-subset outcome of extending a group index with one append batch.
struct SubsetDelta {
    /// The extended index (old group ids are stable; new keys get the next
    /// dense ids).
    gi: Arc<GroupIndex>,
    /// Appended row ids per group that received any, in ascending row order.
    appended: HashMap<u32, Vec<u32>>,
    /// How many of those groups were minted by this batch.
    new_groups: usize,
}

/// Extend `old_gi` over `relevant` (the concatenated table) with the rows at
/// `base..`. Existing keys keep their group ids; new keys continue the dense
/// first-appearance numbering, so the result is exactly what
/// [`build_group_index`] would produce from scratch — at O(appended) cost
/// unless the batch mints a key (which forces one train-side rescan of the
/// previously-unmatched rows).
fn extend_group_index(
    old_gi: &GroupIndex,
    relevant: &Table,
    train: &Table,
    keys: &[String],
    base: usize,
) -> feataug_tabular::Result<SubsetDelta> {
    let key_refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
    let cols: Vec<&feataug_tabular::Column> = key_refs
        .iter()
        .map(|k| relevant.column(k))
        .collect::<feataug_tabular::Result<_>>()?;

    let mut key_to_group = old_gi.key_to_group.clone();
    let mut group_of_row = old_gi.group_of_row.clone();
    group_of_row.reserve(relevant.num_rows() - base);
    let mut appended: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut new_keys: HashMap<Vec<KeyAtom>, u32> = HashMap::new();
    let mut key_buf: Vec<KeyAtom> = Vec::with_capacity(cols.len());
    for row in base..relevant.num_rows() {
        key_buf.clear();
        key_buf.extend(cols.iter().map(|c| key_atom(c, row)));
        let id = match key_to_group.get(key_buf.as_slice()) {
            Some(&id) => id,
            None => {
                let id = key_to_group.len() as u32;
                key_to_group.insert(key_buf.clone(), id);
                new_keys.insert(key_buf.clone(), id);
                id
            }
        };
        group_of_row.push(id);
        appended.entry(id).or_default().push(row as u32);
    }
    let n_groups = key_to_group.len();

    // Train rows that already matched keep their ids (ids are stable). Only
    // previously-unmatched rows can newly match a key minted by this batch —
    // including via dictionary codes the append interned.
    let train_group = if new_keys.is_empty() {
        old_gi.train_group.clone()
    } else {
        let mapper = KeyMapper::new(relevant, train, &key_refs, &key_refs)?;
        old_gi
            .train_group
            .iter()
            .enumerate()
            .map(|(row, tg)| tg.or_else(|| mapper.key(row).and_then(|k| new_keys.get(&k).copied())))
            .collect()
    };

    let new_groups = new_keys.len();
    Ok(SubsetDelta {
        gi: Arc::new(GroupIndex {
            group_of_row,
            n_groups,
            train_group,
            key_to_group,
        }),
        appended,
        new_groups,
    })
}

impl<'a> EngineCore<'a> {
    /// Translate one key value into the relevant table's key space, mirroring
    /// [`KeyMapper`]'s rules: categorical strings resolve through the
    /// dictionary, every other type must match the column's dtype exactly
    /// (ints never match datetimes), and NULL never matches. `Ok(None)` means
    /// "can never match any group"; `Err` means the key column is missing.
    fn serve_atom(&self, column: &str, value: &Value) -> feataug_tabular::Result<Option<KeyAtom>> {
        let col = self.relevant.column(column)?;
        Ok(match (col, value) {
            (Column::Cat(c), Value::Str(s)) => c.code_of(s).map(KeyAtom::Code),
            (Column::Int(_), Value::Int(i)) => Some(KeyAtom::Int(*i)),
            (Column::DateTime(_), Value::DateTime(t)) => Some(KeyAtom::Int(*t)),
            (Column::Float(_), Value::Float(f)) => Some(KeyAtom::Bits(f.to_bits())),
            (Column::Bool(_), Value::Bool(b)) => Some(KeyAtom::Bool(*b)),
            _ => None,
        })
    }

    /// Fetch (or build and memoize) the numeric view of a relevant-table
    /// column. The artifact is immutable; the lock guards only the memo map.
    fn view(&self, column: &str) -> feataug_tabular::Result<Arc<Vec<Option<f64>>>> {
        if let Some(v) = read_recover(&self.views).get(column) {
            return Ok(v.clone());
        }
        let built = Arc::new(self.relevant.column(column)?.to_f64_vec());
        let mut map = write_recover(&self.views);
        // A racing worker may have inserted first; keep the canonical Arc.
        Ok(map.entry(column.to_string()).or_insert(built).clone())
    }

    /// Fetch (or build and memoize) the group index for one group-key subset.
    /// `train` is the gather side (the engine's training table — the core
    /// holds only the relevant side).
    fn group_index(
        &self,
        train: &Table,
        keys: &[String],
    ) -> feataug_tabular::Result<Arc<GroupIndex>> {
        if let Some(gi) = read_recover(&self.groups).get(keys) {
            return Ok(gi.clone());
        }
        let built = Arc::new(build_group_index(train, &self.relevant, keys)?);
        let mut map = write_recover(&self.groups);
        // A panic here unwinds with the write guard held and poisons the
        // lock; `read_recover`/`write_recover` keep the engine serving (the
        // map is never left mid-mutation — the failpoint fires before the
        // insert, and `HashMap::insert` of an already-built Arc is the only
        // mutation). Chaos tests force exactly this.
        crate::fail_point!("exec.index.insert");
        Ok(map.entry(keys.to_vec()).or_insert(built).clone())
    }

    /// The memoized order index for `query`'s `(aggregation column, key
    /// subset)` pair — when its aggregate is an order statistic *and* the
    /// selection is dense enough for the run merge to win. `None` routes the
    /// query to the scatter-bucket kernels instead.
    ///
    /// Cost model: the merge scans every touched group's whole run (up to all
    /// non-null rows) at one mask probe per value, while the scatter path
    /// costs O(selected rows) plus a sort of each small bucket. With the
    /// index already compiled the decision is **exact per-group run-length
    /// accounting**: sum the touched groups' run lengths (base + lazy delta)
    /// and merge only when the total stays within 4× the selected rows —
    /// epoch deltas can concentrate huge runs in a few groups, which a global
    /// row-count heuristic cannot see. When the index is not yet built, the
    /// run lengths don't exist either, so a global `4 × selected ≥ rows`
    /// density gate decides whether building it is worth amortizing — an
    /// all-sparse workload never pays the compilation.
    fn agg_order_index(
        &self,
        query: &PredicateQuery,
        gi: &GroupIndex,
        view: &[Option<f64>],
        mask: Option<&SelectionMask>,
    ) -> Option<Arc<OrderIndex>> {
        if KernelFamily::of(query.agg) != KernelFamily::OrderStat {
            return None;
        }
        // `None` mask = trivial predicate: every group's run is read in
        // place, zero copies — always a win.
        let Some(m) = mask else {
            return Some(self.order_index(&query.agg_column, &query.group_keys, gi, view));
        };
        // The popcount runs only for order-statistic queries — the streaming
        // / moment families bail out above without touching the mask.
        let selected = m.count_ones();
        let memo_key = (query.agg_column.clone(), query.group_keys.clone());
        let existing = read_recover(&self.order).get(&memo_key).cloned();
        match existing {
            Some(idx) => {
                let budget = selected.saturating_mul(4);
                let mut run_total = 0usize;
                let mut seen: HashSet<u32> = HashSet::new();
                for row in 0..self.relevant.num_rows() {
                    if !m.get(row) {
                        continue;
                    }
                    let g = gi.group_of_row[row];
                    if seen.insert(g) {
                        run_total += idx.run_len(g as usize);
                        if run_total > budget {
                            return None;
                        }
                    }
                }
                Some(idx)
            }
            None => (selected.saturating_mul(4) >= self.relevant.num_rows())
                .then(|| self.order_index(&query.agg_column, &query.group_keys, gi, view)),
        }
    }

    /// Fetch (or build and memoize) the sorted-group value index for one
    /// `(aggregation column, group-key subset)` pair. The artifact is
    /// immutable; the lock guards only the memo map.
    fn order_index(
        &self,
        column: &str,
        keys: &[String],
        gi: &GroupIndex,
        view: &[Option<f64>],
    ) -> Arc<OrderIndex> {
        if let Some(idx) = read_recover(&self.order).get(&(column.to_string(), keys.to_vec())) {
            return idx.clone();
        }
        let built = Arc::new(build_order_index(gi, view));
        let mut map = write_recover(&self.order);
        map.entry((column.to_string(), keys.to_vec()))
            .or_insert(built)
            .clone()
    }

    /// Fetch (or build and memoize) the sorted row index for a range column.
    fn sorted_index(&self, column: &str) -> feataug_tabular::Result<Arc<SortedIndex>> {
        if let Some(idx) = read_recover(&self.sorted).get(column) {
            return Ok(idx.clone());
        }
        let view = self.view(column)?;
        let mut pairs: Vec<(f64, u32)> = view
            .iter()
            .enumerate()
            .filter_map(|(row, v)| match v {
                Some(x) if !x.is_nan() => Some((*x, row as u32)),
                _ => None,
            })
            .collect();
        // lint: allow(panic): the filter_map above drops every NaN, so partial_cmp is total here
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaNs excluded"));
        let built = Arc::new(SortedIndex {
            vals: pairs.iter().map(|(v, _)| *v).collect(),
            rows: pairs.iter().map(|(_, r)| *r).collect(),
        });
        let mut map = write_recover(&self.sorted);
        Ok(map.entry(column.to_string()).or_insert(built).clone())
    }

    /// Fetch (or build and memoize) the inverted index for a categorical
    /// column.
    fn cat_index(&self, cat: &feataug_tabular::column::CatColumn, column: &str) -> Arc<CatIndex> {
        if let Some(idx) = read_recover(&self.cats).get(column) {
            return idx.clone();
        }
        let mut lists = vec![Vec::new(); cat.cardinality()];
        for (row, code) in cat.codes().iter().enumerate() {
            if let Some(c) = code {
                lists[*c as usize].push(row as u32);
            }
        }
        let built = Arc::new(CatIndex {
            rows_by_code: lists.into_iter().map(Arc::new).collect(),
        });
        let mut map = write_recover(&self.cats);
        map.entry(column.to_string()).or_insert(built).clone()
    }

    /// Evaluate a non-trivial predicate into `mask`, using `tmp` for
    /// conjunction terms.
    fn predicate_mask(
        &self,
        predicate: &Predicate,
        mask: &mut SelectionMask,
        tmp: &mut SelectionMask,
    ) -> feataug_tabular::Result<()> {
        match predicate {
            Predicate::And(parts) => {
                mask.reset(self.relevant.num_rows(), true);
                for part in parts {
                    self.leaf_mask(part, tmp)?;
                    mask.and_assign(tmp);
                }
                Ok(())
            }
            leaf => self.leaf_mask(leaf, mask),
        }
    }

    /// Evaluate one predicate leaf into `out` through the column indexes: an
    /// equality or bounded range costs O(matching rows) bit sets instead of a
    /// full-column scan. Mask membership is identical to the reference
    /// [`Predicate::evaluate`] leaves, so downstream aggregation is
    /// unaffected. Recurses for (rare, already-flattened-away) nested `And`s.
    fn leaf_mask(
        &self,
        predicate: &Predicate,
        out: &mut SelectionMask,
    ) -> feataug_tabular::Result<()> {
        let n = self.relevant.num_rows();
        match predicate {
            Predicate::True => {
                out.reset(n, true);
                Ok(())
            }
            Predicate::Eq { column, value } => {
                let col = self.relevant.column(column)?;
                match (col, value) {
                    (Column::Cat(c), Value::Str(s)) => {
                        let idx = self.cat_index(c, column);
                        out.reset(n, false);
                        if let Some(code) = c.code_of(s) {
                            for &row in idx.rows_by_code[code as usize].iter() {
                                out.set(row as usize, true);
                            }
                        }
                    }
                    // Equality on non-categorical operands (bools, odd manual
                    // queries) is rare: fall back to the reference scan.
                    _ => fill_eq(col, value, out),
                }
                Ok(())
            }
            Predicate::Range { column, low, high } => {
                let lo = low.as_ref().and_then(|v| v.as_f64());
                let hi = high.as_ref().and_then(|v| v.as_f64());
                if lo.is_none() && hi.is_none() {
                    // Unbounded range keeps every non-null row *including
                    // NaNs*, which the sorted index deliberately drops: use
                    // the view.
                    let view = self.view(column)?;
                    fill_range_view(&view, None, None, out);
                    return Ok(());
                }
                let idx = self.sorted_index(column)?;
                // `v < lo` / `v <= hi` are prefix-true over the ascending
                // values, and a NaN bound satisfies neither (empty
                // selection), matching the reference comparisons exactly.
                let start = match lo {
                    Some(l) => idx.vals.partition_point(|v| *v < l),
                    None => 0,
                };
                let end = match hi {
                    Some(h) => idx.vals.partition_point(|v| *v <= h),
                    None => idx.vals.len(),
                };
                out.reset(n, false);
                if let Some(rows) = idx.rows.get(start..end) {
                    for &row in rows {
                        out.set(row as usize, true);
                    }
                }
                Ok(())
            }
            Predicate::And(parts) => {
                out.reset(n, true);
                let mut tmp = SelectionMask::new();
                for part in parts {
                    self.leaf_mask(part, &mut tmp)?;
                    out.and_assign(&tmp);
                }
                Ok(())
            }
        }
    }

    /// Does `row` of the relevant table satisfy `predicate`? Point form of
    /// the mask builders above, with identical membership: equality mirrors
    /// [`fill_eq`] (NULL operands and NULL cells never match), ranges mirror
    /// the sorted-index partitions (NULL never matches; an unbounded range
    /// keeps NaNs, a bounded one drops them, a NaN bound matches nothing).
    /// The append path uses this to classify single appended rows without
    /// building full-table masks.
    fn row_matches(&self, predicate: &Predicate, row: usize) -> feataug_tabular::Result<bool> {
        match predicate {
            Predicate::True => Ok(true),
            Predicate::And(parts) => {
                for part in parts {
                    if !self.row_matches(part, row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Predicate::Eq { column, value } => {
                let col = self.relevant.column(column)?;
                Ok(match (col, value) {
                    (Column::Cat(c), Value::Str(s)) => match (c.codes()[row], c.code_of(s)) {
                        (Some(rc), Some(t)) => rc == t,
                        _ => false,
                    },
                    _ => {
                        if value.is_null() {
                            false
                        } else {
                            let v = col.get(row);
                            !v.is_null() && v.total_cmp(value) == std::cmp::Ordering::Equal
                        }
                    }
                })
            }
            Predicate::Range { column, low, high } => {
                let lo = low.as_ref().and_then(|v| v.as_f64());
                let hi = high.as_ref().and_then(|v| v.as_f64());
                let view = self.view(column)?;
                Ok(match view[row] {
                    None => false,
                    // An unbounded side passes; a NaN cell fails any bounded
                    // comparison (and a NaN bound fails every cell), matching
                    // the mask builders.
                    Some(x) => lo.is_none_or(|l| x >= l) && hi.is_none_or(|h| x <= h),
                })
            }
        }
    }

    /// Run `query`'s predicate mask + grouped aggregation against this
    /// core, leaving the per-group results in `scratch`
    /// (`group_out` / `sel_count` / `touched`). The caller reads the touched
    /// groups and MUST re-zero `sel_count` over `touched` afterwards to
    /// restore the scratch invariant.
    fn aggregate_into_scratch(
        &self,
        scratch: &mut EvalScratch,
        query: &PredicateQuery,
        gi: &GroupIndex,
    ) -> EngineResult<()> {
        crate::fail_point!("exec.kernel");
        let view = self.view(&query.agg_column)?;
        let trivial = query.predicate.is_trivial();
        if !trivial {
            let EvalScratch {
                mask, scratch: tmp, ..
            } = scratch;
            self.predicate_mask(&query.predicate, mask, tmp)?;
        }

        // The reference path materialises the filtered table, and
        // `CatColumn::take` re-interns the dictionary — so a categorical
        // aggregation column's numeric view (its codes) is renumbered by
        // first appearance among the *surviving* rows. Reproduce that here;
        // for trivial predicates the reference borrows the unfiltered table
        // and the cached view (and the order index built over it) already
        // match.
        if !trivial {
            if let Column::Cat(cat) = self.relevant.column(&query.agg_column)? {
                let EvalScratch {
                    mask,
                    cat_view,
                    cat_remap,
                    ..
                } = scratch;
                remapped_cat_view(cat, mask, cat_view, cat_remap);
                let cat_view = std::mem::take(&mut scratch.cat_view);
                // Re-interned codes are query-local, so the memoized order
                // index does not apply; the dictionary-code frequency kernel
                // (and a per-bucket sort for MEDIAN/MAD) covers this path.
                aggregate_groups(scratch, gi, &cat_view, query.agg, trivial, None, true);
                scratch.cat_view = cat_view;
            } else {
                let order = self.agg_order_index(query, gi, &view, Some(&scratch.mask));
                aggregate_groups(
                    scratch,
                    gi,
                    &view,
                    query.agg,
                    trivial,
                    order.as_deref(),
                    false,
                );
            }
        } else {
            let order = self.agg_order_index(query, gi, &view, None);
            aggregate_groups(
                scratch,
                gi,
                &view,
                query.agg,
                trivial,
                order.as_deref(),
                false,
            );
        }
        Ok(())
    }
}

fn build_group_index(
    train: &Table,
    relevant: &Table,
    keys: &[String],
) -> feataug_tabular::Result<GroupIndex> {
    crate::fail_point!("exec.index.build");
    let key_refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
    if key_refs.is_empty() {
        return Err(feataug_tabular::TabularError::InvalidArgument(
            "group-by needs at least one key".into(),
        ));
    }
    let cols: Vec<&feataug_tabular::Column> = key_refs
        .iter()
        .map(|k| relevant.column(k))
        .collect::<feataug_tabular::Result<_>>()?;

    // Dense group ids over the relevant table, in first-appearance order
    // (NULL atoms form their own groups, matching the group-by semantics).
    let mut index: HashMap<Vec<KeyAtom>, u32> = HashMap::new();
    let mut group_of_row = Vec::with_capacity(relevant.num_rows());
    let mut key_buf: Vec<KeyAtom> = Vec::with_capacity(cols.len());
    for row in 0..relevant.num_rows() {
        key_buf.clear();
        key_buf.extend(cols.iter().map(|c| key_atom(c, row)));
        let id = match index.get(key_buf.as_slice()) {
            Some(&id) => id,
            None => {
                let id = index.len() as u32;
                index.insert(key_buf.clone(), id);
                id
            }
        };
        group_of_row.push(id);
    }
    let n_groups = index.len();

    // Gather map: each train row's key translated into the relevant table's
    // key space (NULL / unseen / type-mismatched keys never match, exactly
    // like the reference left join).
    let mapper = KeyMapper::new(relevant, train, &key_refs, &key_refs)?;
    let train_group = (0..train.num_rows())
        .map(|row| mapper.key(row).and_then(|k| index.get(&k).copied()))
        .collect();

    Ok(GroupIndex {
        group_of_row,
        n_groups,
        train_group,
        key_to_group: index,
    })
}

/// Map a per-group feature onto rows through a row → group map (a group
/// index's `train_group`, or a transform's gather map): unmatched rows are
/// NULL.
fn gather(groups: &[Option<u32>], values: &[Option<f64>]) -> Vec<Option<f64>> {
    groups
        .iter()
        .map(|g| g.and_then(|g| values[g as usize]))
        .collect()
}

/// The search loops' encoding of a feature: NULL becomes NaN.
fn nan_encode(values: Vec<Option<f64>>) -> Vec<f64> {
    values.into_iter().map(|v| v.unwrap_or(f64::NAN)).collect()
}

/// Rebuild the numeric view of a categorical aggregation column the way the
/// reference path sees it after filtering: `CatColumn::take` re-interns the
/// dictionary, so codes are renumbered by first appearance among the selected
/// rows. Only the selected rows' slots are meaningful; aggregation never
/// reads the rest.
fn remapped_cat_view(
    cat: &feataug_tabular::column::CatColumn,
    mask: &SelectionMask,
    out: &mut Vec<Option<f64>>,
    remap: &mut Vec<Option<u32>>,
) {
    out.clear();
    out.resize(cat.len(), None);
    remap.clear();
    remap.resize(cat.cardinality(), None);
    let mut next = 0u32;
    let codes = cat.codes();
    mask.for_each_set(|row| {
        if let Some(code) = codes[row] {
            let slot = &mut remap[code as usize];
            let new_code = match slot {
                Some(c) => *c,
                None => {
                    let c = next;
                    *slot = Some(c);
                    next += 1;
                    c
                }
            };
            out[row] = Some(new_code as f64);
        }
    });
}

/// Aggregate the selected rows' values into `scratch.group_out` (one
/// `Option<f64>` per touched group), `scratch.sel_count` (selected rows per
/// group) and `scratch.touched` (the groups hit, in first-touch order),
/// through the kernel family of `agg`:
///
/// * **Stream** — one pass, O(1) state per group;
/// * **Moment** — two streaming passes (sum → centred power sums), no value
///   buffers;
/// * **OrderStat** — the memoized [`OrderIndex`] when the selection is dense
///   (a trivial predicate reads each group's pre-sorted run in place, a
///   filtering one merges the selected rows out of it at one mask probe per
///   value). When `order` is `None` — a sparse selection, or query-local
///   re-interned dictionary codes — values are scattered into per-group
///   buckets instead and evaluated by the dictionary-code frequency kernel
///   (`codes` views) or a per-bucket sort feeding the same sorted-run
///   kernels.
///
/// Per-group scratch is initialised lazily on first touch, so a selective
/// query costs O(selected rows + touched groups) regardless of how many
/// groups the index holds; the caller re-zeroes `sel_count` afterwards.
/// Values are visited in ascending row order (streaming) or ascending value
/// order (the order the reference's sort produces), so every kernel output
/// matches `AggFunc::apply` over the same group bit for bit — the property
/// suites enforce it.
fn aggregate_groups(
    scratch: &mut EvalScratch,
    gi: &GroupIndex,
    view: &[Option<f64>],
    agg: AggFunc,
    trivial: bool,
    order: Option<&OrderIndex>,
    codes: bool,
) {
    let n_groups = gi.n_groups;
    let EvalScratch {
        mask,
        sel_count,
        touched,
        nonnull,
        acc,
        m2,
        m4,
        cursors,
        scatter,
        sorted_buf,
        merge_rows,
        merge_vals,
        dev_buf,
        freq,
        group_out,
        ..
    } = scratch;
    // Grow (never shrink) the per-group scratch; `sel_count` is all-zero here
    // by invariant, the rest holds stale values that lazy init overwrites.
    if sel_count.len() < n_groups {
        sel_count.resize(n_groups, 0);
        nonnull.resize(n_groups, 0);
        acc.resize(n_groups, 0.0);
        m2.resize(n_groups, 0.0);
        m4.resize(n_groups, 0.0);
        cursors.resize(n_groups, 0);
        group_out.resize(n_groups, None);
    }
    touched.clear();
    let group_of_row = &gi.group_of_row;

    match KernelFamily::of(agg) {
        KernelFamily::Stream => {
            let init = match agg {
                AggFunc::Min => f64::INFINITY,
                AggFunc::Max => f64::NEG_INFINITY,
                // -0.0 is IEEE addition's identity and the neutral element
                // `Iterator::sum::<f64>` folds from: starting at +0.0 would
                // turn an all-(-0.0) group's sum into +0.0 and diverge from
                // the reference.
                _ => -0.0,
            };
            let mut visit = |row: usize| {
                let g = group_of_row[row] as usize;
                if sel_count[g] == 0 {
                    touched.push(g as u32);
                    nonnull[g] = 0;
                    acc[g] = init;
                }
                sel_count[g] += 1;
                if let Some(v) = view[row] {
                    match agg {
                        AggFunc::Sum | AggFunc::Avg => {
                            nonnull[g] += 1;
                            acc[g] += v;
                        }
                        AggFunc::Count => nonnull[g] += 1,
                        // MIN/MAX ignore NaNs; `nonnull` counts only the
                        // values that participate, so an all-NaN group
                        // finalizes to NULL like the (fixed) reference.
                        AggFunc::Min => {
                            if !v.is_nan() {
                                nonnull[g] += 1;
                                acc[g] = acc[g].min(v);
                            }
                        }
                        AggFunc::Max => {
                            if !v.is_nan() {
                                nonnull[g] += 1;
                                acc[g] = acc[g].max(v);
                            }
                        }
                        // lint: allow(panic): KernelFamily::of routes only the five cheap functions here
                        _ => unreachable!("streaming path covers only the five cheap functions"),
                    }
                }
            };
            if trivial {
                (0..group_of_row.len()).for_each(&mut visit);
            } else {
                mask.for_each_set(&mut visit);
            }
            for &g in touched.iter() {
                let g = g as usize;
                let n = nonnull[g];
                group_out[g] = match agg {
                    AggFunc::Count => Some(n as f64),
                    _ if n == 0 => None,
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => Some(acc[g]),
                    AggFunc::Avg => Some(acc[g] / n as f64),
                    // lint: allow(panic): KernelFamily::of routes only the five cheap functions here
                    _ => unreachable!("streaming path covers only the five cheap functions"),
                };
            }
        }
        KernelFamily::Moment => {
            // Pass 1: per-group sum and non-null count, in row order (the
            // order the reference's `values.iter().sum()` adds in).
            let mut sum_visit = |row: usize| {
                let g = group_of_row[row] as usize;
                if sel_count[g] == 0 {
                    touched.push(g as u32);
                    nonnull[g] = 0;
                    // -0.0: `Iterator::sum`'s neutral element (see the
                    // streaming path).
                    acc[g] = -0.0;
                }
                sel_count[g] += 1;
                if let Some(v) = view[row] {
                    nonnull[g] += 1;
                    acc[g] += v;
                }
            };
            if trivial {
                (0..group_of_row.len()).for_each(&mut sum_visit);
            } else {
                mask.for_each_set(&mut sum_visit);
            }
            // Between the passes: turn each sum into the group mean and zero
            // the centred power sums.
            for &g in touched.iter() {
                let g = g as usize;
                if nonnull[g] > 0 {
                    acc[g] /= nonnull[g] as f64;
                }
                m2[g] = 0.0;
                m4[g] = 0.0;
            }
            // Pass 2: centred power sums, same row order.
            let wants_m4 = agg == AggFunc::Kurtosis;
            let mut dev_visit = |row: usize| {
                if let Some(v) = view[row] {
                    let g = group_of_row[row] as usize;
                    accumulate_m2(&mut m2[g], v, acc[g]);
                    if wants_m4 {
                        accumulate_m4(&mut m4[g], v, acc[g]);
                    }
                }
            };
            if trivial {
                (0..group_of_row.len()).for_each(&mut dev_visit);
            } else {
                mask.for_each_set(&mut dev_visit);
            }
            for &g in touched.iter() {
                let g = g as usize;
                group_out[g] = moment_finalize(agg, nonnull[g] as usize, m2[g], m4[g]);
            }
        }
        KernelFamily::OrderStat => {
            // Presence pass: which groups have selected rows at all.
            let mut presence_visit = |row: usize| {
                let g = group_of_row[row] as usize;
                if sel_count[g] == 0 {
                    touched.push(g as u32);
                    nonnull[g] = 0;
                }
                sel_count[g] += 1;
                if view[row].is_some() {
                    nonnull[g] += 1;
                }
            };
            if trivial {
                (0..group_of_row.len()).for_each(&mut presence_visit);
            } else {
                mask.for_each_set(&mut presence_visit);
            }

            if let Some(order) = order {
                // Selection-aware merge over the pre-sorted group runs.
                for &g in touched.iter() {
                    let g = g as usize;
                    let (rows, vals) = order.run(g, merge_rows, merge_vals);
                    let selected: &[f64] = if trivial {
                        vals
                    } else {
                        sorted_buf.clear();
                        for (i, &row) in rows.iter().enumerate() {
                            if mask.get(row as usize) {
                                sorted_buf.push(vals[i]);
                            }
                        }
                        sorted_buf
                    };
                    group_out[g] = order_stat_value(agg, selected, dev_buf);
                }
                return;
            }

            // No precompiled runs (sparse selection, or query-local
            // re-interned codes): bucket the values per group, then run the
            // dictionary-code frequency kernel or sort the bucket.
            let mut total = 0u32;
            for &g in touched.iter() {
                cursors[g as usize] = total;
                total += nonnull[g as usize];
            }
            scatter.clear();
            scatter.resize(total as usize, 0.0);
            let mut scatter_visit = |row: usize| {
                if let Some(v) = view[row] {
                    let g = group_of_row[row] as usize;
                    scatter[cursors[g] as usize] = v;
                    cursors[g] += 1;
                }
            };
            if trivial {
                (0..group_of_row.len()).for_each(&mut scatter_visit);
            } else {
                mask.for_each_set(&mut scatter_visit);
            }
            // cursors[g] now points one past group g's bucket.
            for &g in touched.iter() {
                let g = g as usize;
                let end = cursors[g] as usize;
                let bucket = &mut scatter[end - nonnull[g] as usize..end];
                group_out[g] = match agg {
                    // Dictionary codes: dense frequency counting, no sort.
                    AggFunc::CountDistinct | AggFunc::Mode | AggFunc::Entropy if codes => {
                        for &code in bucket.iter() {
                            freq.add(code);
                        }
                        let value = match agg {
                            AggFunc::CountDistinct => Some(freq.count_distinct()),
                            _ if freq.is_empty() => None,
                            AggFunc::Mode => Some(freq.mode()),
                            AggFunc::Entropy => Some(freq.entropy()),
                            // lint: allow(panic): the outer match arm admits only the three aggs above
                            _ => unreachable!(),
                        };
                        freq.reset();
                        value
                    }
                    _ => {
                        bucket.sort_by(|a, b| a.total_cmp(b));
                        order_stat_value(agg, bucket, dev_buf)
                    }
                };
            }
        }
    }
}

/// Evaluate an order-statistic aggregate over one group's selected values,
/// already sorted by `total_cmp`. Empty-group semantics mirror
/// [`AggFunc::apply`]: `COUNT_DISTINCT` yields 0, everything else NULL.
fn order_stat_value(agg: AggFunc, sorted: &[f64], dev_buf: &mut Vec<f64>) -> Option<f64> {
    if agg == AggFunc::CountDistinct {
        return Some(count_distinct_sorted(sorted));
    }
    if sorted.is_empty() {
        return None;
    }
    Some(match agg {
        AggFunc::Median => median_sorted(sorted),
        AggFunc::Mad => mad_sorted(sorted, dev_buf),
        AggFunc::Mode => mode_sorted(sorted),
        AggFunc::Entropy => entropy_sorted(sorted),
        // lint: allow(panic): KernelFamily::of routes only order statistics here
        other => unreachable!("{other:?} is not an order statistic"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::feature_vector;
    use feataug_tabular::{Column, Value};

    fn train() -> Table {
        let mut t = Table::new("users");
        t.add_column("cname", Column::from_strs(&["a", "b", "c"]))
            .unwrap();
        t.add_column("mid", Column::from_strs(&["m1", "m2", "m9"]))
            .unwrap();
        t.add_column("label", Column::from_i64s(&[0, 1, 0]))
            .unwrap();
        t
    }

    fn relevant() -> Table {
        let mut t = Table::new("logs");
        t.add_column("cname", Column::from_strs(&["a", "a", "b", "b"]))
            .unwrap();
        t.add_column("mid", Column::from_strs(&["m1", "m1", "m2", "m2"]))
            .unwrap();
        t.add_column("pprice", Column::from_f64s(&[10.0, 20.0, 30.0, 40.0]))
            .unwrap();
        t.add_column("department", Column::from_strs(&["E", "H", "E", "E"]))
            .unwrap();
        t.add_column("ts", Column::from_datetimes(&[100, 200, 300, 400]))
            .unwrap();
        t
    }

    fn query(agg: AggFunc, predicate: Predicate, keys: &[&str]) -> PredicateQuery {
        PredicateQuery {
            agg,
            agg_column: "pprice".into(),
            predicate,
            group_keys: keys.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The engine and the reference path must agree bit for bit.
    fn assert_matches_naive(q: &PredicateQuery, train: &Table, relevant: &Table) {
        let engine = QueryEngine::new(train, relevant);
        let (engine_name, engine_vals) = engine.feature(q).unwrap();
        let (augmented, name) = q.augment(train, relevant).unwrap();
        let naive_vals = feature_vector(&augmented, &name);
        assert_eq!(engine_name, name);
        assert_eq!(engine_vals.len(), naive_vals.len());
        for (i, (e, n)) in engine_vals.iter().zip(&naive_vals).enumerate() {
            assert_eq!(
                e.to_bits(),
                n.to_bits(),
                "row {i} of {}: {e} vs {n}",
                q.to_sql("R")
            );
        }
    }

    #[test]
    fn matches_naive_across_aggregates_and_predicates() {
        let (train, relevant) = (train(), relevant());
        let predicates = [
            Predicate::True,
            Predicate::eq("department", "E"),
            Predicate::eq("department", "ZZZ"),
            Predicate::ge("ts", 250),
            Predicate::between("pprice", 15.0, 35.0),
            Predicate::and(vec![
                Predicate::eq("department", "E"),
                Predicate::le("ts", 350),
            ]),
        ];
        for agg in AggFunc::all() {
            for predicate in &predicates {
                for keys in [&["cname"][..], &["cname", "mid"][..], &["mid"][..]] {
                    assert_matches_naive(&query(*agg, predicate.clone(), keys), &train, &relevant);
                }
            }
        }
    }

    #[test]
    fn fully_filtered_group_yields_null_not_zero_count() {
        let (train, relevant) = (train(), relevant());
        // Rows 0,1 (cname=a) are all filtered out; group "a" must go NULL
        // even for COUNT, because the reference feature table simply lacks
        // that key after filtering.
        let q = query(AggFunc::Count, Predicate::ge("ts", 250), &["cname"]);
        let engine = QueryEngine::new(&train, &relevant);
        let values = engine.evaluate(&q).unwrap();
        assert_eq!(values, vec![None, Some(2.0), None]);
        assert_matches_naive(&q, &train, &relevant);
    }

    #[test]
    fn group_with_only_null_values_counts_zero() {
        let mut relevant = Table::new("logs");
        relevant
            .add_column("cname", Column::from_strs(&["a", "b"]))
            .unwrap();
        relevant
            .add_column("mid", Column::from_strs(&["m1", "m2"]))
            .unwrap();
        relevant
            .add_column("pprice", Column::from_opt_f64s(&[None, Some(1.0)]))
            .unwrap();
        let train = train();
        let q = query(AggFunc::Count, Predicate::True, &["cname"]);
        let engine = QueryEngine::new(&train, &relevant);
        // Group "a" is present (one selected row) but has no non-null value:
        // COUNT = 0, unlike an absent group.
        assert_eq!(
            engine.evaluate(&q).unwrap(),
            vec![Some(0.0), Some(1.0), None]
        );
        assert_matches_naive(&q, &train, &relevant);
        let q = query(AggFunc::Sum, Predicate::True, &["cname"]);
        assert_eq!(engine.evaluate(&q).unwrap(), vec![None, Some(1.0), None]);
    }

    #[test]
    fn key_subsets_build_separate_cached_indexes() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        for keys in [&["cname"][..], &["cname", "mid"][..], &["cname"][..]] {
            engine
                .evaluate(&query(AggFunc::Sum, Predicate::True, keys))
                .unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.evaluations, 3);
        assert_eq!(
            stats.group_indexes, 2,
            "repeat key subset must hit the cache"
        );
        assert_eq!(stats.column_views, 1);
        assert_eq!(
            stats.feature_cache_hits, 1,
            "the repeated query must hit the feature memo"
        );
    }

    #[test]
    fn feature_cache_hits_return_identical_values_and_errors_are_not_cached() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let q = query(
            AggFunc::Median,
            Predicate::eq("department", "E"),
            &["cname"],
        );
        let first = engine.evaluate(&q).unwrap();
        let second = engine.evaluate(&q).unwrap();
        assert_eq!(first, second);
        assert_eq!(engine.stats().feature_cache_hits, 1);

        let mut bad = q.clone();
        bad.agg_column = "nope".into();
        assert!(engine.evaluate(&bad).is_err());
        assert!(
            engine.evaluate(&bad).is_err(),
            "errors must keep erroring, not be cached"
        );
    }

    /// Regression, two layers deep. Historically the displayed SQL did not
    /// escape quotes inside string literals, so two *structurally different*
    /// queries could render to the same text — the literal below used to
    /// read exactly like the two-leaf conjunction. Literals are SQL-escaped
    /// now (quotes doubled), making the rendering injective again; and the
    /// feature memo keys on structure regardless, so neither layer can
    /// alias one query's vector to the other.
    #[test]
    fn textually_tricky_queries_render_distinct_sql_and_cache_separately() {
        let (train, relevant) = (train(), relevant());
        let tricky = query(
            AggFunc::Sum,
            Predicate::eq("department", "E' AND mid = 'm1"),
            &["cname"],
        );
        let conjunction = query(
            AggFunc::Sum,
            Predicate::and(vec![
                Predicate::eq("department", "E"),
                Predicate::eq("mid", "m1"),
            ]),
            &["cname"],
        );
        assert_ne!(
            tricky.to_sql("R"),
            conjunction.to_sql("R"),
            "escaped literals must render structurally different queries differently"
        );
        assert!(
            tricky.to_sql("R").contains("E'' AND mid = ''m1"),
            "the embedded quotes must be doubled: {}",
            tricky.to_sql("R")
        );
        assert_ne!(
            tricky.feature_name(),
            conjunction.feature_name(),
            "distinct SQL means distinct feature names"
        );
        let engine = QueryEngine::new(&train, &relevant);
        // No department is literally named "E' AND mid = 'm1": every group is
        // filtered away.
        assert_eq!(engine.evaluate(&tricky).unwrap(), vec![None, None, None]);
        // The conjunction matches row 0 only (cname=a, dept=E, mid=m1).
        assert_eq!(
            engine.evaluate(&conjunction).unwrap(),
            vec![Some(10.0), None, None]
        );
        assert_eq!(engine.stats().feature_cache_hits, 0);
        assert_matches_naive(&conjunction, &train, &relevant);
    }

    #[test]
    fn env_workers_honours_positive_integers_only() {
        assert_eq!(super::env_workers(Some("4")), Some(4));
        assert_eq!(super::env_workers(Some("1")), Some(1));
        assert_eq!(
            super::env_workers(Some("0")),
            None,
            "zero workers is nonsense"
        );
        assert_eq!(super::env_workers(Some("two")), None);
        assert_eq!(super::env_workers(Some("")), None);
        assert_eq!(super::env_workers(None), None);
    }

    #[test]
    fn clones_share_compiled_core_and_counters() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let clone = engine.clone();
        engine
            .evaluate(&query(AggFunc::Sum, Predicate::True, &["cname"]))
            .unwrap();
        clone
            .evaluate(&query(AggFunc::Sum, Predicate::True, &["cname"]))
            .unwrap();
        let stats = engine.stats();
        assert_eq!(
            stats.evaluations, 2,
            "clones must report combined throughput"
        );
        assert_eq!(
            stats.group_indexes, 1,
            "clones must reuse the same compiled group index"
        );
        assert_eq!(
            stats.feature_cache_hits, 1,
            "clones must share the feature memo"
        );
        assert_eq!(engine.stats(), clone.stats());
    }

    #[test]
    fn batch_is_bit_identical_to_serial_at_every_worker_count() {
        let (train, relevant) = (train(), relevant());
        let mut pool = Vec::new();
        let predicates = [
            Predicate::True,
            Predicate::eq("department", "E"),
            Predicate::ge("ts", 250),
            Predicate::between("pprice", 15.0, 35.0),
        ];
        for agg in AggFunc::all() {
            for predicate in &predicates {
                pool.push(query(*agg, predicate.clone(), &["cname"]));
                pool.push(query(*agg, predicate.clone(), &["cname", "mid"]));
            }
        }
        let serial_engine = QueryEngine::new(&train, &relevant);
        let serial: Vec<_> = pool
            .iter()
            .map(|q| serial_engine.evaluate(q).unwrap())
            .collect();
        for workers in [1, 2, 5, 16] {
            let engine = QueryEngine::new(&train, &relevant);
            let batch = engine.evaluate_batch_threads(&pool, workers);
            assert_eq!(batch.len(), pool.len());
            for ((got, want), q) in batch.iter().zip(&serial).zip(&pool) {
                let got = got.as_ref().unwrap();
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(
                        g.map(f64::to_bits),
                        w.map(f64::to_bits),
                        "workers={workers}: {}",
                        q.to_sql("R")
                    );
                }
            }
        }
    }

    #[test]
    fn batch_keeps_input_order_and_reports_per_slot_errors() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let mut bad = query(AggFunc::Sum, Predicate::True, &["cname"]);
        bad.agg_column = "nope".into();
        let pool = vec![
            query(AggFunc::Sum, Predicate::True, &["cname"]),
            bad,
            query(AggFunc::Avg, Predicate::True, &["cname"]),
        ];
        let results = engine.feature_batch_threads(&pool, 3);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(
            results[1].is_err(),
            "the failing query's slot must carry its error"
        );
        assert!(results[2].is_ok());
        assert_eq!(results[0].as_ref().unwrap().0, pool[0].feature_name());
        assert_eq!(results[2].as_ref().unwrap().0, pool[2].feature_name());
    }

    #[test]
    fn default_workers_is_positive_and_env_overridable() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn unmatched_and_untranslatable_train_keys_are_null() {
        let mut train = Table::new("users");
        // "zz" never appears in the relevant table; NULL keys never match.
        train
            .add_column(
                "cname",
                Column::from_opt_strs(&[Some("a"), Some("zz"), None]),
            )
            .unwrap();
        let mut relevant = Table::new("logs");
        relevant
            .add_column("cname", Column::from_strs(&["a", "a"]))
            .unwrap();
        relevant
            .add_column("pprice", Column::from_f64s(&[1.5, 2.5]))
            .unwrap();
        let q = query(AggFunc::Sum, Predicate::True, &["cname"]);
        let engine = QueryEngine::new(&train, &relevant);
        assert_eq!(engine.evaluate(&q).unwrap(), vec![Some(4.0), None, None]);
        assert_matches_naive(&q, &train, &relevant);
    }

    #[test]
    fn missing_columns_error_like_the_reference_path() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let mut q = query(AggFunc::Sum, Predicate::True, &["cname"]);
        q.agg_column = "nope".into();
        assert!(engine.evaluate(&q).is_err());
        let q2 = query(AggFunc::Sum, Predicate::eq("nope", "x"), &["cname"]);
        assert!(engine.evaluate(&q2).is_err());
        let q3 = query(AggFunc::Sum, Predicate::True, &["nope"]);
        assert!(engine.evaluate(&q3).is_err());
    }

    #[test]
    fn feature_encodes_null_as_nan_and_names_match() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let q = query(
            AggFunc::Avg,
            Predicate::eq("department", "E"),
            &["cname", "mid"],
        );
        let (name, values) = engine.feature(&q).unwrap();
        assert_eq!(name, q.feature_name());
        assert_eq!(values.len(), train.num_rows());
        assert!(values[2].is_nan()); // cname=c has no relevant rows
        assert_eq!(values[0], 10.0);
    }

    #[test]
    fn agrees_with_naive_on_a_generated_dataset_pool() {
        use crate::query::QueryCodec;
        use crate::template::QueryTemplate;
        use feataug_datagen::{tmall, GenConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let ds = tmall::generate(&GenConfig::tiny());
        let template = QueryTemplate::new(
            AggFunc::all().to_vec(),
            ds.agg_columns.clone(),
            ds.predicate_attrs.clone(),
            ds.key_columns.clone(),
        );
        let codec = QueryCodec::build(&template, &ds.relevant).unwrap();
        let engine = QueryEngine::new(&ds.train, &ds.relevant);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..60 {
            let config = codec.space().sample(&mut rng);
            let q = codec.decode(&config);
            assert_matches_naive(&q, &ds.train, &ds.relevant);
            // Also exercise the cached path a second time.
            let first = engine.evaluate(&q).unwrap();
            let second = engine.evaluate(&q).unwrap();
            assert_eq!(first, second);
        }
        assert!(
            engine.stats().group_indexes <= 4,
            "K has 2 attributes -> at most 3 subsets"
        );
        assert!(
            engine.stats().feature_cache_hits >= 60,
            "every repeat evaluation must be served from the feature memo"
        );
    }

    #[test]
    fn null_relevant_keys_group_but_never_match_train() {
        let mut relevant = Table::new("logs");
        relevant
            .add_column("cname", Column::from_opt_strs(&[Some("a"), None, None]))
            .unwrap();
        relevant
            .add_column("pprice", Column::from_f64s(&[1.0, 2.0, 3.0]))
            .unwrap();
        let train = train();
        let q = query(AggFunc::Sum, Predicate::True, &["cname"]);
        assert_matches_naive(&q, &train, &relevant);
        let engine = QueryEngine::new(&train, &relevant);
        assert_eq!(engine.evaluate(&q).unwrap(), vec![Some(1.0), None, None]);
    }

    #[test]
    fn categorical_agg_column_reinterning_matches_reference() {
        // The reference path filters first, and CatColumn::take re-interns
        // the dictionary — so code-valued aggregations (MODE, MIN, ...) see
        // renumbered codes. Regression test: relevant codes ["b"=0, "a"=1],
        // predicate drops the "b" row, reference re-interns "a" to 0.
        let mut train = Table::new("users");
        train.add_column("k", Column::from_strs(&["u"])).unwrap();
        let mut relevant = Table::new("logs");
        relevant
            .add_column("k", Column::from_strs(&["u", "u"]))
            .unwrap();
        relevant
            .add_column("c", Column::from_strs(&["b", "a"]))
            .unwrap();
        relevant
            .add_column("sel", Column::from_i64s(&[0, 1]))
            .unwrap();
        let q = PredicateQuery {
            agg: AggFunc::Mode,
            agg_column: "c".into(),
            predicate: Predicate::ge("sel", 1),
            group_keys: vec!["k".into()],
        };
        let engine = QueryEngine::new(&train, &relevant);
        assert_eq!(engine.evaluate(&q).unwrap(), vec![Some(0.0)]);
        assert_matches_naive(&q, &train, &relevant);
        // All aggregates over a categorical column, filtered and not.
        for agg in AggFunc::all() {
            for pred in [
                Predicate::True,
                Predicate::ge("sel", 1),
                Predicate::eq("c", "a"),
            ] {
                let q = PredicateQuery {
                    agg: *agg,
                    agg_column: "c".into(),
                    predicate: pred,
                    group_keys: vec!["k".into()],
                };
                assert_matches_naive(&q, &train, &relevant);
            }
        }
    }

    #[test]
    fn order_index_is_memoized_per_column_and_key_subset() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        engine
            .evaluate(&query(AggFunc::Median, Predicate::True, &["cname"]))
            .unwrap();
        // Same (column, keys) pair: MAD must reuse MEDIAN's runs.
        engine
            .evaluate(&query(
                AggFunc::Mad,
                Predicate::eq("department", "E"),
                &["cname"],
            ))
            .unwrap();
        assert_eq!(
            engine.stats().order_indexes,
            1,
            "same pair must share one order index"
        );
        // A different key subset compiles its own runs.
        engine
            .evaluate(&query(AggFunc::Mode, Predicate::True, &["cname", "mid"]))
            .unwrap();
        assert_eq!(engine.stats().order_indexes, 2);
        // Streaming / moment aggregates never build order indexes.
        engine
            .evaluate(&query(AggFunc::Var, Predicate::True, &["mid"]))
            .unwrap();
        engine
            .evaluate(&query(AggFunc::Sum, Predicate::True, &["mid"]))
            .unwrap();
        assert_eq!(engine.stats().order_indexes, 2);
    }

    /// Signed zeros, NaNs (both payload signs), infinities, all-NaN groups and
    /// single-element groups must flow through every kernel family with the
    /// reference path's exact bits.
    #[test]
    fn adversarial_floats_match_naive_for_all_aggregates() {
        let mut train = Table::new("users");
        train
            .add_column("k", Column::from_strs(&["a", "b", "c", "d", "e"]))
            .unwrap();
        let mut relevant = Table::new("logs");
        relevant
            .add_column(
                "k",
                Column::from_strs(&["a", "a", "a", "a", "b", "b", "c", "d", "d"]),
            )
            .unwrap();
        relevant
            .add_column(
                "v",
                Column::from_opt_f64s(&[
                    Some(0.0),
                    Some(-0.0),
                    Some(f64::NAN),
                    Some(-f64::NAN),
                    Some(f64::NAN), // group b: all NaN
                    Some(f64::NAN),
                    Some(-0.0), // group c: single element
                    Some(f64::INFINITY),
                    None,
                ]),
            )
            .unwrap();
        relevant
            .add_column("sel", Column::from_i64s(&[0, 1, 2, 3, 4, 5, 6, 7, 8]))
            .unwrap();
        for agg in AggFunc::all() {
            for predicate in [
                Predicate::True,
                Predicate::ge("sel", 2),
                Predicate::le("sel", 6),
            ] {
                let q = PredicateQuery {
                    agg: *agg,
                    agg_column: "v".into(),
                    predicate,
                    group_keys: vec!["k".into()],
                };
                assert_matches_naive(&q, &train, &relevant);
            }
        }
        // Spot-check the fixed semantics end to end: group b is all-NaN, so
        // MIN must be NULL (NaN-encoded), not -INFINITY; and group a's MODE
        // canonicalizes -0.0/0.0 into one value.
        let engine = QueryEngine::new(&train, &relevant);
        let min = engine
            .evaluate(&PredicateQuery {
                agg: AggFunc::Min,
                agg_column: "v".into(),
                predicate: Predicate::True,
                group_keys: vec!["k".into()],
            })
            .unwrap();
        assert_eq!(
            min[1], None,
            "all-NaN group must be NULL, not an infinite sentinel"
        );
        let distinct = engine
            .evaluate(&PredicateQuery {
                agg: AggFunc::CountDistinct,
                agg_column: "v".into(),
                predicate: Predicate::True,
                group_keys: vec!["k".into()],
            })
            .unwrap();
        assert_eq!(
            distinct[0],
            Some(2.0),
            "group a holds two values: 0.0 and NaN"
        );
    }

    #[test]
    fn pool_workers_scale_with_pool_cost() {
        // Small pools don't spawn idle workers…
        assert_eq!(super::pool_workers(8, 0), 1);
        assert_eq!(super::pool_workers(8, 1), 1);
        assert_eq!(super::pool_workers(8, 8), 1);
        assert_eq!(super::pool_workers(8, 9), 2);
        assert_eq!(super::pool_workers(8, 40), 5);
        // …and big pools still cap at the machine-derived count.
        assert_eq!(super::pool_workers(8, 1000), 8);
        assert_eq!(super::pool_workers(2, 1000), 2);
        assert_eq!(super::pool_workers(1, 9), 1);
    }

    #[test]
    fn effective_fan_out_workers_short_circuits_on_one_cpu() {
        // A 1-CPU host collapses every request to the inline serial path.
        assert_eq!(super::effective_fan_out_workers(2, 16, 1), 1);
        assert_eq!(super::effective_fan_out_workers(8, 1000, 1), 1);
        // Multi-CPU hosts keep the old clamp semantics.
        assert_eq!(super::effective_fan_out_workers(2, 16, 4), 2);
        assert_eq!(super::effective_fan_out_workers(1, 16, 8), 1);
        assert_eq!(super::effective_fan_out_workers(4, 2, 8), 2);
        assert_eq!(super::effective_fan_out_workers(0, 0, 8), 1);
    }

    #[test]
    fn workers_for_pool_is_positive_and_capped_by_default() {
        let n = super::workers_for_pool(1_000_000);
        assert!(n >= 1);
        // With FEATAUG_THREADS unset this is the auto cap; with it set, the
        // override is authoritative — either way never zero.
        let small = super::workers_for_pool(1);
        assert!(small >= 1);
        if std::env::var("FEATAUG_THREADS").is_err() {
            assert!(small <= n);
        }
    }

    #[test]
    fn transform_on_train_table_matches_evaluate() {
        let (train, relevant) = (train(), relevant());
        let pool = vec![
            query(AggFunc::Sum, Predicate::eq("department", "E"), &["cname"]),
            query(AggFunc::Median, Predicate::ge("ts", 250), &["cname", "mid"]),
            query(AggFunc::Count, Predicate::True, &["mid"]),
            query(AggFunc::Var, Predicate::le("ts", 350), &["cname"]),
        ];
        let reference = QueryEngine::new(&train, &relevant);
        let expected: Vec<Vec<Option<f64>>> = pool
            .iter()
            .map(|q| reference.evaluate(q).unwrap())
            .collect();
        let engine = QueryEngine::new(&train, &relevant);
        let got = engine.transform(&pool, &train).unwrap();
        for ((g, e), q) in got.iter().zip(&expected).zip(&pool) {
            assert_eq!(
                g.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>(),
                e.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>(),
                "transform must match evaluate for {}",
                q.to_sql("R")
            );
        }
    }

    #[test]
    fn second_transform_reuses_cached_group_features() {
        let (train, relevant) = (train(), relevant());
        let pool = vec![
            query(AggFunc::Sum, Predicate::eq("department", "E"), &["cname"]),
            query(AggFunc::Avg, Predicate::True, &["cname", "mid"]),
        ];
        let engine = QueryEngine::new(&train, &relevant);
        engine.transform(&pool, &train).unwrap();
        let after_first = engine.stats();
        assert_eq!(after_first.group_features, 2);
        assert_eq!(after_first.evaluations, 2);

        // A different table: fresh gather, zero new aggregation work.
        let mut other = Table::new("serving");
        other
            .add_column("cname", Column::from_strs(&["b", "a", "zz"]))
            .unwrap();
        other
            .add_column("mid", Column::from_strs(&["m2", "m1", "m1"]))
            .unwrap();
        let out = engine.transform(&pool, &other).unwrap();
        assert_eq!(out[0].len(), 3);
        assert_eq!(
            engine.stats(),
            after_first,
            "repeat transform must be a pure cache read"
        );
        // Row values follow the new table's keys: cname=b rows of the SUM
        // query (dept=E keeps ts rows 2,3: 30+40), unseen key -> NULL.
        assert_eq!(out[0], vec![Some(70.0), Some(10.0), None]);
        assert_eq!(out[1][2], None);
    }

    fn bits(values: &[Option<f64>]) -> Vec<Option<u64>> {
        values.iter().map(|v| v.map(f64::to_bits)).collect()
    }

    #[test]
    fn evaluate_then_transform_runs_one_aggregation() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let q = query(AggFunc::Median, Predicate::ge("ts", 250), &["cname", "mid"]);
        let evaluated = engine.evaluate(&q).unwrap();
        let transformed = engine.transform(std::slice::from_ref(&q), &train).unwrap();
        let stats = engine.stats();
        assert_eq!(
            stats.evaluations, 1,
            "transform must reuse the aggregation evaluate memoized"
        );
        assert_eq!(stats.group_features, 1);
        assert_eq!(bits(&transformed[0]), bits(&evaluated));
    }

    #[test]
    fn append_carries_only_served_memo_entries() {
        let (train, relevant) = (train(), relevant());
        let base = relevant.take(&[0, 1, 2]);
        let batch = relevant.take(&[3]);
        let full = base.concat(&batch).unwrap();
        // The batch's row (cname=b, mid=m2, department=E) touches both
        // queries' groups.
        let searched = query(AggFunc::Sum, Predicate::eq("department", "E"), &["cname"]);
        let served = query(AggFunc::Avg, Predicate::True, &["cname", "mid"]);
        let engine = QueryEngine::new(&train, &base);
        engine.evaluate(&searched).unwrap();
        engine
            .transform(std::slice::from_ref(&served), &train)
            .unwrap();
        engine.append_relevant(&batch).unwrap();
        assert_eq!(
            engine.stats().group_features,
            1,
            "only the served entry crosses the epoch boundary"
        );
        let before = engine.stats();
        let transformed = engine
            .transform(std::slice::from_ref(&served), &train)
            .unwrap();
        assert_eq!(
            engine.stats(),
            before,
            "the carried entry must be a pure memo read"
        );

        let oracle = QueryEngine::new(&train, &full);
        assert_eq!(
            bits(&transformed[0]),
            bits(&oracle.evaluate(&served).unwrap())
        );
        assert_eq!(
            bits(&engine.evaluate(&searched).unwrap()),
            bits(&oracle.evaluate(&searched).unwrap())
        );
    }

    #[test]
    fn feature_memo_insert_past_budget_drops_only_unserved_entries() {
        let entry = |agg: AggFunc, groups: usize| {
            let q = query(agg, Predicate::True, &["cname"]);
            let feature = GroupFeature {
                values: Arc::new(vec![None; groups]),
                query: q.clone(),
                state: FeatureState::None,
            };
            (FeatureMemo::key(&q), Arc::new(feature))
        };
        // 16 B per group slot: a four-group entry counts 64 B.
        let budget = 3 * 64;
        let mut memo = FeatureMemo::default();
        let (sum_key, sum) = entry(AggFunc::Sum, 4);
        let (avg_key, avg) = entry(AggFunc::Avg, 4);
        let (max_key, max) = entry(AggFunc::Max, 4);
        memo.insert(sum_key.clone(), sum, true, budget);
        memo.insert(avg_key.clone(), avg, false, budget);
        memo.insert(max_key.clone(), max.clone(), false, budget);
        assert_eq!(memo.bytes, budget);

        // A served insert of a key already present keeps the stored entry
        // and only raises its flag.
        let kept = memo.insert(max_key.clone(), entry(AggFunc::Max, 4).1, true, budget);
        assert!(Arc::ptr_eq(&kept, &max));
        assert_eq!(memo.bytes, budget);

        // Past the budget: the unserved entry goes, the served ones stay.
        let (min_key, min) = entry(AggFunc::Min, 2);
        memo.insert(min_key.clone(), min, false, budget);
        assert!(memo.get(&avg_key).is_none());
        for key in [&sum_key, &max_key] {
            assert!(matches!(memo.get(key), Some((_, true))));
        }
        assert!(matches!(memo.get(&min_key), Some((_, false))));
        assert_eq!(memo.map.len(), 3);
        assert_eq!(memo.bytes, 64 + 64 + 32);
    }

    #[test]
    fn transform_leaves_unseen_and_null_keys_null() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let q = query(AggFunc::Sum, Predicate::True, &["cname"]);
        let mut held_out = Table::new("held_out");
        held_out
            .add_column(
                "cname",
                Column::from_opt_strs(&[Some("a"), Some("never_seen"), None]),
            )
            .unwrap();
        let out = engine.transform(&[q], &held_out).unwrap();
        assert_eq!(out[0], vec![Some(30.0), None, None]);
    }

    #[test]
    fn transform_errors_when_key_columns_are_missing() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let q = query(AggFunc::Sum, Predicate::True, &["cname"]);
        let keyless = Table::new("empty");
        assert!(engine.transform(&[q], &keyless).is_err());
    }

    #[test]
    fn lookup_answers_point_requests_from_cached_features() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let q = query(AggFunc::Sum, Predicate::eq("department", "E"), &["cname"]);
        assert_eq!(
            engine.lookup(&q, &[Value::Str("a".into())]).unwrap(),
            Some(10.0)
        );
        assert_eq!(
            engine.lookup(&q, &[Value::Str("b".into())]).unwrap(),
            Some(70.0)
        );
        // Unseen, NULL and type-mismatched keys never match.
        assert_eq!(engine.lookup(&q, &[Value::Str("zz".into())]).unwrap(), None);
        assert_eq!(engine.lookup(&q, &[Value::Null]).unwrap(), None);
        assert_eq!(engine.lookup(&q, &[Value::Int(7)]).unwrap(), None);
        // Arity mismatch is an error, not a silent miss.
        assert!(engine.lookup(&q, &[]).is_err());
        // All lookups above cost exactly one aggregation.
        assert_eq!(engine.stats().evaluations, 1);
        assert_eq!(engine.stats().group_features, 1);
    }

    #[test]
    fn lookup_multi_key_subset() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let q = query(AggFunc::Avg, Predicate::True, &["cname", "mid"]);
        assert_eq!(
            engine
                .lookup(&q, &[Value::Str("b".into()), Value::Str("m2".into())])
                .unwrap(),
            Some(35.0)
        );
        assert_eq!(
            engine
                .lookup(&q, &[Value::Str("b".into()), Value::Str("m1".into())])
                .unwrap(),
            None
        );
    }

    #[test]
    fn into_owned_keeps_the_compiled_core_and_is_send_static() {
        fn assert_send_sync_static<T: Send + Sync + 'static>(_: &T) {}
        let (train, relevant) = (train(), relevant());
        let borrowed = QueryEngine::new(&train, &relevant);
        let q = query(AggFunc::Sum, Predicate::eq("department", "E"), &["cname"]);
        let before = borrowed.evaluate(&q).unwrap();
        let stats_before = borrowed.stats();
        assert!(stats_before.group_indexes >= 1);

        let owned = borrowed.into_owned();
        assert_send_sync_static(&owned);
        assert_eq!(
            owned.stats(),
            stats_before,
            "upgrading must keep every compiled artifact and counter"
        );
        // Tables can be dropped now; the owned engine keeps serving.
        drop((train, relevant));
        let after = owned.evaluate(&q).unwrap();
        assert_eq!(
            before
                .iter()
                .map(|v| v.map(f64::to_bits))
                .collect::<Vec<_>>(),
            after
                .iter()
                .map(|v| v.map(f64::to_bits))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            owned.stats().feature_cache_hits,
            stats_before.feature_cache_hits + 1,
            "the repeat evaluation must hit the carried-over feature memo"
        );
        // And it crosses threads.
        let q2 = query(AggFunc::Avg, Predicate::True, &["cname", "mid"]);
        let from_thread = std::thread::spawn(move || owned.evaluate(&q2).unwrap())
            .join()
            .unwrap();
        assert_eq!(from_thread.len(), 3);
    }

    #[test]
    fn new_shared_engine_co_owns_its_tables() {
        let (train, relevant) = (Arc::new(train()), Arc::new(relevant()));
        let engine = QueryEngine::new_shared(train.clone(), relevant.clone());
        drop((train, relevant));
        let q = query(AggFunc::Count, Predicate::True, &["cname"]);
        assert_eq!(
            engine.evaluate(&q).unwrap(),
            vec![Some(2.0), Some(2.0), None]
        );
    }

    #[test]
    fn parallel_transform_is_bit_identical_to_serial_at_every_worker_count() {
        let (train, relevant) = (train(), relevant());
        let mut pool = Vec::new();
        let predicates = [
            Predicate::True,
            Predicate::eq("department", "E"),
            Predicate::ge("ts", 250),
        ];
        for agg in AggFunc::all() {
            for predicate in &predicates {
                pool.push(query(*agg, predicate.clone(), &["cname"]));
                pool.push(query(*agg, predicate.clone(), &["cname", "mid"]));
                pool.push(query(*agg, predicate.clone(), &["mid"]));
            }
        }
        let serial_engine = QueryEngine::new(&train, &relevant);
        let serial = serial_engine.transform_threads(&pool, &train, 1).unwrap();
        for workers in [2, 3, 8, 64] {
            let engine = QueryEngine::new(&train, &relevant);
            let parallel = engine.transform_threads(&pool, &train, workers).unwrap();
            assert_eq!(parallel.len(), serial.len());
            for ((got, want), q) in parallel.iter().zip(&serial).zip(&pool) {
                assert_eq!(
                    got.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>(),
                    want.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>(),
                    "workers={workers}: {}",
                    q.to_sql("R")
                );
            }
        }
    }

    #[test]
    fn parallel_transform_reports_the_first_error_in_input_order() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let mut bad = query(AggFunc::Sum, Predicate::True, &["cname"]);
        bad.agg_column = "nope".into();
        let pool = vec![
            query(AggFunc::Sum, Predicate::True, &["cname"]),
            bad,
            query(AggFunc::Avg, Predicate::True, &["cname"]),
        ];
        for workers in [1, 3] {
            let err = engine
                .transform_threads(&pool, &train, workers)
                .unwrap_err();
            assert!(
                err.to_string().contains("nope"),
                "workers={workers}: expected the bad column's error, got {err}"
            );
        }
    }

    #[test]
    fn datetime_predicate_values_match() {
        let (train, relevant) = (train(), relevant());
        let q = query(
            AggFunc::Sum,
            Predicate::Range {
                column: "ts".into(),
                low: Some(Value::DateTime(150)),
                high: Some(Value::DateTime(350)),
            },
            &["cname"],
        );
        assert_matches_naive(&q, &train, &relevant);
    }
}
