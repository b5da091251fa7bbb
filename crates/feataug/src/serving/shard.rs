//! Key-sharded serving: hash-partition the relevant table across N
//! independent [`QueryEngine`]s and route every request to the shard that
//! owns its key.
//!
//! # Why sharding is bit-exact here
//!
//! The router partitions relevant rows by a hash of the **shard keys** — the
//! key columns every planned query groups by (the intersection of the
//! queries' `group_keys`, kept in task key-column order). Because the shard
//! keys are a subset of *every* query's group keys, two rows of the same
//! group always carry the same shard-key values, hash identically, and land
//! on the same shard. Each shard therefore holds its groups **whole**, in
//! original relative row order ([`Table::take_with_dict`] preserves order
//! *and* the global categorical dictionaries), so per-shard aggregation
//! visits exactly the row sequence the unsharded engine would — the
//! per-group features are bit-identical, not merely close. The conformance
//! property suite (`tests/sharding.rs`) pins this at shard counts 1, 2 and 7.
//!
//! The one construction this argument cannot cover is a **categorical
//! aggregation column under a non-trivial predicate**: the engine renumbers
//! the selected codes by first appearance across the globally-filtered rows,
//! an ordering a shard cannot reconstruct from its rows alone.
//! [`ShardRouter::build`] rejects that combination up front whenever more
//! than one shard is requested, rather than serving subtly different
//! frequencies.
//!
//! # Topology
//!
//! ```text
//!                 ┌── shard 0: QueryEngine (EpochCell core)
//!   ShardRouter ──┼── shard 1: QueryEngine          ── append_relevant
//!   (generation)  └── shard 2: QueryEngine             splits the batch by
//!        │                                             the same hash
//!        └── prepare → ServingHandle: per shard, an engine clone and its
//!            PreparedState EpochCell; lookup = route + owning-shard probe
//! ```
//!
//! [`ShardRouter::prepare`] builds the same [`ServingHandle`] an unsharded
//! model prepares, with one entry per shard, so the serving tier takes it
//! as is. `lookup` / serve probe only the shard that owns the key (`route`);
//! `transform` and `append_relevant` fan across shards, splitting their
//! input rows by the same hash (`row_shard`). Appends publish per-shard
//! epochs and bump one router-level generation once the whole batch has
//! landed. A panicking shard fails only the requests it owns — the router
//! contains the panic as [`EngineError::WorkerPanic`] and the survivors keep
//! serving (chaos-tested via the `shard.route` / `shard.append`
//! failpoints).

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use feataug_tabular::{CancelToken, Column, Table, Value};

use crate::exec::{
    default_workers, fan_out, lock_recover, panic_message, workers_for_pool, EngineError,
    EngineResult, Epoch, QueryEngine,
};
use crate::query::{AugPlan, PredicateQuery};
use crate::serving::ServingHandle;

// ---------------------------------------------------------------------------
// Routing hash
// ---------------------------------------------------------------------------

/// Feed one key component into the routing hash. Every kind is prefixed by a
/// discriminant so `Int(1)` and `DateTime(1)` route independently, strings
/// are terminated so adjacent components cannot alias, and floats hash by
/// bit pattern. Must stay in lockstep with [`hash_cell`]: a stored row and
/// the key that looks it up have to reach the same shard.
// lint: hot-path
fn hash_value(h: &mut DefaultHasher, value: &Value) {
    match value {
        Value::Null => h.write_u8(0),
        Value::Int(v) => {
            h.write_u8(1);
            h.write_i64(*v);
        }
        Value::Float(v) => {
            h.write_u8(2);
            h.write_u64(v.to_bits());
        }
        Value::Bool(v) => {
            h.write_u8(3);
            h.write_u8(*v as u8);
        }
        Value::Str(s) => {
            h.write_u8(4);
            h.write(s.as_bytes());
            h.write_u8(0xff);
        }
        Value::DateTime(v) => {
            h.write_u8(5);
            h.write_i64(*v);
        }
    }
}

/// [`hash_value`] for a column cell, without materialising a [`Value`] (no
/// `String` clone for categorical cells — partitioning a table hashes every
/// row). Discriminants match `hash_value` exactly.
fn hash_cell(h: &mut DefaultHasher, column: &Column, row: usize) {
    match column {
        Column::Int(v) => match v[row] {
            Some(x) => {
                h.write_u8(1);
                h.write_i64(x);
            }
            None => h.write_u8(0),
        },
        Column::Float(v) => match v[row] {
            Some(x) => {
                h.write_u8(2);
                h.write_u64(x.to_bits());
            }
            None => h.write_u8(0),
        },
        Column::Bool(v) => match v[row] {
            Some(x) => {
                h.write_u8(3);
                h.write_u8(x as u8);
            }
            None => h.write_u8(0),
        },
        Column::DateTime(v) => match v[row] {
            Some(x) => {
                h.write_u8(5);
                h.write_i64(x);
            }
            None => h.write_u8(0),
        },
        Column::Cat(c) => match c.get(row) {
            Some(s) => {
                h.write_u8(4);
                h.write(s.as_bytes());
                h.write_u8(0xff);
            }
            None => h.write_u8(0),
        },
    }
}

/// Shard owning a request key, hashing its components at `positions` (the
/// routing keys' places in the key, in shard-key order). The same hash as
/// [`row_shard`], so a key reaches the shard holding its stored rows. Callers
/// answer shard 0 themselves when there is only one.
// lint: hot-path
pub(crate) fn route(key: &[Value], positions: &[usize], n_shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    for &pos in positions {
        hash_value(&mut h, &key[pos]);
    }
    (h.finish() % n_shards as u64) as usize
}

/// Shard owning `row` of a table whose shard-key columns are `columns` (in
/// shard-key order).
fn row_shard(columns: &[&Column], row: usize, n_shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    for column in columns {
        hash_cell(&mut h, column, row);
    }
    (h.finish() % n_shards as u64) as usize
}

/// Split `table`'s rows into one index list per shard by hashing the
/// shard-key columns. Errors when a shard-key column is missing from the
/// table — before any partitioning work.
fn partition_rows(
    table: &Table,
    shard_keys: &[String],
    n_shards: usize,
) -> EngineResult<Vec<Vec<usize>>> {
    let columns = shard_keys
        .iter()
        .map(|key| table.column(key))
        .collect::<feataug_tabular::Result<Vec<_>>>()?;
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
    for row in 0..table.num_rows() {
        buckets[row_shard(&columns, row, n_shards)].push(row);
    }
    Ok(buckets)
}

fn invalid(message: String) -> EngineError {
    feataug_tabular::TabularError::InvalidArgument(message).into()
}

// ---------------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------------

/// Summary of one batch applied through [`ShardRouter::append_relevant`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEpoch {
    /// Router generation after the append (counts successful router-level
    /// appends; bumped once per batch, after every shard has published).
    pub generation: u64,
    /// Rows in the appended batch, summed over shards.
    pub appended_rows: usize,
    /// `(shard, epoch)` for each shard that received rows, in shard order.
    /// Shards whose sub-batch was empty keep their epoch and are absent.
    pub shard_epochs: Vec<(usize, Epoch)>,
}

/// N hash-partitioned [`QueryEngine`] shards behind one query-compatible
/// facade: `lookup` probes the owning shard, `transform` and
/// `append_relevant` fan the input across shards by the same hash. See the
/// [module docs](self) for the bit-exactness argument and the
/// categorical-predicate construction [`ShardRouter::build`] rejects.
pub struct ShardRouter {
    /// One engine per shard, each owning its hash-partition of the relevant
    /// table (and sharing the training table `Arc`).
    shards: Vec<QueryEngine<'static>>,
    /// The key columns every planned query groups by, in task key-column
    /// order — the routing domain.
    shard_keys: Vec<String>,
    /// Successful router-level appends. Readers may compare generations to
    /// detect that a whole batch (not just one shard's slice) has landed.
    generation: AtomicU64,
    /// Serialises router-level appends, so concurrent batches cannot
    /// interleave their per-shard sub-appends.
    ingest: Mutex<()>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("n_shards", &self.shards.len())
            .field("shard_keys", &self.shard_keys)
            .field("generation", &self.generation.load(Ordering::Acquire))
            .finish()
    }
}

impl ShardRouter {
    /// Partition `relevant` into `n_shards` engines keyed by the columns of
    /// `key_columns` that **every** query of `queries` groups by.
    ///
    /// Errors (all before any engine is built):
    /// - `n_shards == 0`;
    /// - more than one shard requested but no key column is common to every
    ///   query's `group_keys` (groups would straddle shards);
    /// - more than one shard requested and some query aggregates a
    ///   categorical column under a non-trivial predicate (the one shape
    ///   whose code numbering is inherently global — see the
    ///   [module docs](self));
    /// - a shard-key column is missing from `relevant`.
    pub fn build(
        train: Arc<Table>,
        relevant: &Table,
        key_columns: &[String],
        queries: &[PredicateQuery],
        n_shards: usize,
    ) -> EngineResult<ShardRouter> {
        if n_shards == 0 {
            return Err(invalid("shard router needs at least one shard".into()));
        }
        let shard_keys: Vec<String> = key_columns
            .iter()
            .filter(|key| queries.iter().all(|q| q.group_keys.contains(key)))
            .cloned()
            .collect();
        if n_shards > 1 {
            if shard_keys.is_empty() {
                return Err(invalid(
                    "cannot shard: no key column is grouped by every query, so groups \
                     would straddle shards"
                        .into(),
                ));
            }
            for query in queries {
                if query.predicate.is_trivial() {
                    continue;
                }
                if let Ok(Column::Cat(_)) = relevant.column(&query.agg_column) {
                    return Err(invalid(format!(
                        "cannot shard: query aggregates categorical column \
                         `{}` under a non-trivial predicate, whose code \
                         numbering is global by construction",
                        query.agg_column
                    )));
                }
            }
        }
        let buckets = partition_rows(relevant, &shard_keys, n_shards)?;
        let shards = buckets
            .into_iter()
            .map(|bucket| {
                QueryEngine::new_shared(
                    Arc::clone(&train),
                    Arc::new(relevant.take_with_dict(&bucket)),
                )
            })
            .collect();
        Ok(ShardRouter {
            shards,
            shard_keys,
            generation: AtomicU64::new(0),
            ingest: Mutex::new(()),
        })
    }

    /// [`ShardRouter::build`] driven by a compiled [`AugPlan`]: the task keys
    /// and queries are the plan's.
    pub fn build_for_plan(
        train: Arc<Table>,
        relevant: &Table,
        plan: &AugPlan,
        n_shards: usize,
    ) -> EngineResult<ShardRouter> {
        let queries: Vec<PredicateQuery> = plan.queries.iter().map(|p| p.query.clone()).collect();
        ShardRouter::build(train, relevant, &plan.key_columns, &queries, n_shards)
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The key columns requests are routed by.
    pub fn shard_keys(&self) -> &[String] {
        &self.shard_keys
    }

    /// Router-level generation: successful [`ShardRouter::append_relevant`]
    /// batches applied so far.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The engine owning shard `index`, or `None` when `index` is past the
    /// last shard. Serving goes through the router; this exposes a shard's
    /// engine for inspection.
    pub fn shard(&self, index: usize) -> Option<&QueryEngine<'static>> {
        self.shards.get(index)
    }

    /// Prepare the allocation-free lookup handle for `plan` over every shard
    /// (see [`ServingHandle`]): each shard pays its partition's aggregations
    /// once, up front, and a lookup probes only the shard owning its key.
    /// Errors when a shard key is not a plan key column, when some planned
    /// query does not group by every shard key (its groups straddle shards),
    /// or when any shard's prepare fails.
    pub fn prepare(&self, plan: &AugPlan) -> EngineResult<ServingHandle<'static>> {
        let route_positions = self
            .shard_keys
            .iter()
            .map(|key| {
                plan.key_columns
                    .iter()
                    .position(|c| c == key)
                    .ok_or_else(|| {
                        invalid(format!(
                            "shard key `{key}` is not a plan key column; the router cannot \
                             route this plan's requests"
                        ))
                    })
            })
            .collect::<EngineResult<Vec<_>>>()?;
        if self.shards.len() > 1 {
            for planned in &plan.queries {
                for shard_key in &self.shard_keys {
                    if !planned.query.group_keys.contains(shard_key) {
                        return Err(invalid(format!(
                            "planned query does not group by shard key `{shard_key}`; \
                             its groups straddle shards"
                        )));
                    }
                }
            }
        }
        ServingHandle::over_shards(&self.shards, route_positions, plan)
    }

    /// Shard owning a key whose components are `key_values` aligned with
    /// `group_keys`. Errors when the query does not group by every shard key
    /// (its groups straddle shards) or on key arity mismatch.
    fn shard_of_query_key(
        &self,
        group_keys: &[String],
        key_values: &[Value],
    ) -> EngineResult<usize> {
        if key_values.len() != group_keys.len() {
            return Err(invalid(format!(
                "lookup key has {} values for {} group-key columns",
                key_values.len(),
                group_keys.len()
            )));
        }
        if self.shards.len() == 1 {
            return Ok(0);
        }
        let positions = self
            .shard_keys
            .iter()
            .map(|shard_key| {
                group_keys
                    .iter()
                    .position(|k| k == shard_key)
                    .ok_or_else(|| {
                        invalid(format!(
                            "query does not group by shard key `{shard_key}`; its groups \
                             straddle shards"
                        ))
                    })
            })
            .collect::<EngineResult<Vec<_>>>()?;
        Ok(route(key_values, &positions, self.shards.len()))
    }

    /// [`QueryEngine::lookup`] against the shard owning `key_values`. A panic
    /// inside the owning shard (or an armed `shard.route` failpoint) is
    /// contained as [`EngineError::WorkerPanic`] — only this request fails;
    /// every other shard keeps serving untouched.
    pub fn lookup(
        &self,
        query: &PredicateQuery,
        key_values: &[Value],
    ) -> EngineResult<Option<f64>> {
        self.lookup_with(query, key_values, None)
    }

    /// [`ShardRouter::lookup`] under a [`CancelToken`]: the owning shard's
    /// first aggregation polls the token at the kernel checkpoints.
    pub fn lookup_cancel(
        &self,
        query: &PredicateQuery,
        key_values: &[Value],
        cancel: &CancelToken,
    ) -> EngineResult<Option<f64>> {
        self.lookup_with(query, key_values, Some(cancel))
    }

    fn lookup_with(
        &self,
        query: &PredicateQuery,
        key_values: &[Value],
        cancel: Option<&CancelToken>,
    ) -> EngineResult<Option<f64>> {
        let engine = &self.shards[self.shard_of_query_key(&query.group_keys, key_values)?];
        match catch_unwind(AssertUnwindSafe(|| {
            crate::fail_point!("shard.route");
            engine.lookup_pinned(&engine.core(), query, key_values, cancel)
        })) {
            Ok(result) => result,
            Err(payload) => Err(EngineError::WorkerPanic {
                context: "shard route",
                message: panic_message(payload),
            }),
        }
    }

    /// [`QueryEngine::transform`] fanned across shards: `table`'s rows are
    /// split by the routing hash, each shard transforms its slice against its
    /// partition, and the per-row results scatter back into input order —
    /// bit-identical to the unsharded transform (each row's group lives whole
    /// on its owning shard). Shards with no rows are skipped. A panicking
    /// shard fails the whole transform with [`EngineError::WorkerPanic`]
    /// (the caller retries or falls back), but cannot poison other shards.
    pub fn transform(
        &self,
        queries: &[PredicateQuery],
        table: &Table,
    ) -> EngineResult<Vec<Vec<Option<f64>>>> {
        self.transform_with(queries, table, None)
    }

    /// [`ShardRouter::transform`] under a [`CancelToken`]: every shard's
    /// aggregation and gather poll the token, so one tripped deadline
    /// abandons the fan-out mid-work.
    pub fn transform_cancel(
        &self,
        queries: &[PredicateQuery],
        table: &Table,
        cancel: &CancelToken,
    ) -> EngineResult<Vec<Vec<Option<f64>>>> {
        self.transform_with(queries, table, Some(cancel))
    }

    fn transform_with(
        &self,
        queries: &[PredicateQuery],
        table: &Table,
        cancel: Option<&CancelToken>,
    ) -> EngineResult<Vec<Vec<Option<f64>>>> {
        let workers = workers_for_pool(queries.len());
        if self.shards.len() == 1 {
            // Degenerate single-shard router: today's path, byte for byte.
            return self.shards[0].transform_with(queries, table, workers, cancel);
        }
        let buckets = partition_rows(table, &self.shard_keys, self.shards.len())?;
        let jobs: Vec<(usize, Vec<usize>)> = buckets
            .into_iter()
            .enumerate()
            .filter(|(_, rows)| !rows.is_empty())
            .collect();
        let parts = fan_out(
            &jobs,
            default_workers().min(jobs.len().max(1)),
            "shard transform",
            || (),
            |_| (),
            |_, (shard, rows)| {
                crate::fail_point!("shard.route");
                let sub = table.take_with_dict(rows);
                self.shards[*shard].transform_with(queries, &sub, workers, cancel)
            },
        );
        let mut out: Vec<Vec<Option<f64>>> = queries
            .iter()
            .map(|_| vec![None; table.num_rows()])
            .collect();
        for ((_, rows), part) in jobs.iter().zip(parts) {
            let sub_out = part?;
            for (feature, sub_feature) in out.iter_mut().zip(sub_out) {
                for (&row, value) in rows.iter().zip(sub_feature) {
                    feature[row] = value;
                }
            }
        }
        Ok(out)
    }

    /// Ingest a batch across shards: the batch is split by the routing hash
    /// and each owning shard appends its slice (publishing its own epoch,
    /// with the global categorical dictionaries preserved — see
    /// [`Table::take_with_dict`] / `Table::concat_absorbing`). The router
    /// generation bumps once, after every shard has published.
    ///
    /// Batches are serialised by a router-level ingest lock. A failing or
    /// panicking shard aborts the batch with the generation unbumped;
    /// sub-batches already applied to earlier shards stay applied (each is
    /// individually consistent), so the caller may simply retry — the armed
    /// `shard.append` failpoint fires *before* any dispatch, which is what
    /// the chaos suite exercises.
    pub fn append_relevant(&self, rows: &Table) -> EngineResult<ShardEpoch> {
        match catch_unwind(AssertUnwindSafe(|| self.append_inner(rows))) {
            Ok(result) => result,
            Err(payload) => Err(EngineError::WorkerPanic {
                context: "shard append",
                message: panic_message(payload),
            }),
        }
    }

    fn append_inner(&self, rows: &Table) -> EngineResult<ShardEpoch> {
        let _ingest = lock_recover(&self.ingest);
        crate::fail_point!("shard.append");
        let buckets = partition_rows(rows, &self.shard_keys, self.shards.len())?;
        let mut shard_epochs = Vec::new();
        for (shard, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let sub = rows.take_with_dict(&bucket);
            shard_epochs.push((shard, self.shards[shard].append_relevant(&sub)?));
        }
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        Ok(ShardEpoch {
            generation,
            appended_rows: rows.num_rows(),
            shard_epochs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feataug_tabular::{AggFunc, Predicate};

    fn train() -> Table {
        let mut t = Table::new("users");
        t.add_column("cname", Column::from_strs(&["a", "b", "c", "a"]))
            .unwrap();
        t.add_column("mid", Column::from_strs(&["m1", "m2", "m9", "m2"]))
            .unwrap();
        t.add_column("label", Column::from_f64s(&[1.0, 0.0, 1.0, 0.0]))
            .unwrap();
        t
    }

    fn relevant() -> Table {
        let mut t = Table::new("logs");
        t.add_column("cname", Column::from_strs(&["a", "a", "b", "b", "a", "c"]))
            .unwrap();
        t.add_column(
            "mid",
            Column::from_strs(&["m1", "m1", "m2", "m2", "m2", "m1"]),
        )
        .unwrap();
        t.add_column(
            "pprice",
            Column::from_f64s(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0]),
        )
        .unwrap();
        t.add_column(
            "department",
            Column::from_strs(&["E", "H", "E", "E", "H", "E"]),
        )
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

    fn keys() -> Vec<String> {
        vec!["cname".into(), "mid".into()]
    }

    fn pool() -> Vec<PredicateQuery> {
        vec![
            query(AggFunc::Sum, Predicate::True, &["cname"]),
            query(
                AggFunc::Avg,
                Predicate::eq("department", "E"),
                &["cname", "mid"],
            ),
            query(AggFunc::Count, Predicate::True, &["cname", "mid"]),
        ]
    }

    /// Queries here all group by `cname` (two also by `mid`), so the shard
    /// keys collapse to `[cname]`.
    fn shared_key_pool() -> Vec<PredicateQuery> {
        vec![
            query(AggFunc::Sum, Predicate::True, &["cname"]),
            query(AggFunc::Max, Predicate::True, &["cname", "mid"]),
        ]
    }

    #[test]
    fn build_computes_shard_keys_as_ordered_intersection() {
        let router = ShardRouter::build(
            Arc::new(train()),
            &relevant(),
            &keys(),
            &shared_key_pool(),
            3,
        )
        .unwrap();
        assert_eq!(router.shard_keys(), &["cname".to_string()]);
        assert_eq!(router.n_shards(), 3);
        assert_eq!(router.generation(), 0);
        // Partition covers every row exactly once.
        let total: usize = (0..3)
            .map(|s| router.shard(s).unwrap().core().relevant().num_rows())
            .sum();
        assert_eq!(total, relevant().num_rows());
        // Past the last shard there is no engine, and no panic.
        assert!(router.shard(3).is_none());
        assert!(router.shard(usize::MAX).is_none());
    }

    #[test]
    fn build_rejects_zero_shards_and_empty_intersection() {
        let err =
            ShardRouter::build(Arc::new(train()), &relevant(), &keys(), &pool(), 0).unwrap_err();
        assert!(err.to_string().contains("at least one shard"), "{err}");
        let disjoint = vec![
            query(AggFunc::Sum, Predicate::True, &["cname"]),
            query(AggFunc::Sum, Predicate::True, &["mid"]),
        ];
        let err =
            ShardRouter::build(Arc::new(train()), &relevant(), &keys(), &disjoint, 2).unwrap_err();
        assert!(err.to_string().contains("straddle"), "{err}");
        // …but a single shard accepts the same pool (nothing to straddle).
        ShardRouter::build(Arc::new(train()), &relevant(), &keys(), &disjoint, 1).unwrap();
    }

    #[test]
    fn build_rejects_categorical_agg_under_predicate_when_sharded() {
        let mut cat = pool();
        cat.push(PredicateQuery {
            agg: AggFunc::Mode,
            agg_column: "department".into(),
            predicate: Predicate::eq("cname", "a"),
            group_keys: vec!["cname".into(), "mid".into()],
        });
        let err = ShardRouter::build(Arc::new(train()), &relevant(), &keys(), &cat, 2).unwrap_err();
        assert!(err.to_string().contains("categorical"), "{err}");
        // A single shard serves it (the global numbering is the shard's), and
        // so does a trivial predicate at any shard count.
        ShardRouter::build(Arc::new(train()), &relevant(), &keys(), &cat, 1).unwrap();
        let mut trivial_cat = pool();
        trivial_cat.push(PredicateQuery {
            agg: AggFunc::Mode,
            agg_column: "department".into(),
            predicate: Predicate::True,
            group_keys: vec!["cname".into(), "mid".into()],
        });
        ShardRouter::build(Arc::new(train()), &relevant(), &keys(), &trivial_cat, 2).unwrap();
    }

    #[test]
    fn sharded_lookup_and_transform_match_unsharded() {
        let (train, relevant) = (train(), relevant());
        let baseline = QueryEngine::new(&train, &relevant);
        for n_shards in [1, 2, 7] {
            let router = ShardRouter::build(
                Arc::new(train.clone()),
                &relevant,
                &keys(),
                &pool(),
                n_shards,
            )
            .unwrap();
            for q in pool() {
                // Every train key, plus an unseen one.
                let seen = [("a", "m1"), ("b", "m2"), ("c", "m9"), ("a", "m2")];
                for (c, m) in seen {
                    let key: Vec<Value> = if q.group_keys.len() == 2 {
                        vec![Value::Str(c.into()), Value::Str(m.into())]
                    } else {
                        vec![Value::Str(c.into())]
                    };
                    let want = baseline.lookup(&q, &key).unwrap();
                    let got = router.lookup(&q, &key).unwrap();
                    assert_eq!(want.map(f64::to_bits), got.map(f64::to_bits));
                }
                let unseen: Vec<Value> = q
                    .group_keys
                    .iter()
                    .map(|_| Value::Str("nope".into()))
                    .collect();
                assert_eq!(router.lookup(&q, &unseen).unwrap(), None);
            }
            let want = baseline.transform(&pool(), &train).unwrap();
            let got = router.transform(&pool(), &train).unwrap();
            assert_eq!(bits(&want), bits(&got), "n_shards={n_shards}");
        }
    }

    #[test]
    fn sharded_append_matches_unsharded_refit() {
        let (train, relevant) = (train(), relevant());
        let mut batch = Table::new("logs");
        batch
            .add_column("cname", Column::from_strs(&["a", "z", "b"]))
            .unwrap();
        batch
            .add_column("mid", Column::from_strs(&["m1", "m3", "m2"]))
            .unwrap();
        batch
            .add_column("pprice", Column::from_f64s(&[5.0, 7.0, 9.0]))
            .unwrap();
        batch
            .add_column("department", Column::from_strs(&["E", "E", "H"]))
            .unwrap();
        let refit_relevant = relevant.concat(&batch).unwrap();
        let refit = QueryEngine::new(&train, &refit_relevant);
        for n_shards in [1, 2, 7] {
            let router = ShardRouter::build(
                Arc::new(train.clone()),
                &relevant,
                &keys(),
                &pool(),
                n_shards,
            )
            .unwrap();
            let epoch = router.append_relevant(&batch).unwrap();
            assert_eq!(epoch.generation, 1);
            assert_eq!(epoch.appended_rows, 3);
            assert_eq!(router.generation(), 1);
            let want = refit.transform(&pool(), &train).unwrap();
            let got = router.transform(&pool(), &train).unwrap();
            assert_eq!(bits(&want), bits(&got), "n_shards={n_shards}");
        }
    }

    #[test]
    fn prepared_handle_matches_unsharded_handle() {
        let (train, relevant) = (train(), relevant());
        let plan = crate::query::AugPlan::new(
            "logs",
            keys(),
            pool()
                .into_iter()
                .map(|query| crate::query::PlannedQuery { query, loss: 0.0 })
                .collect(),
        );
        let baseline_engine = QueryEngine::new(&train, &relevant);
        let baseline = ServingHandle::prepare(&baseline_engine, &plan).unwrap();
        for n_shards in [1, 2, 7] {
            let router =
                ShardRouter::build_for_plan(Arc::new(train.clone()), &relevant, &plan, n_shards)
                    .unwrap();
            let handle = router.prepare(&plan).unwrap();
            assert_eq!(handle.n_shards(), n_shards);
            assert_eq!(handle.num_features(), plan.queries.len());
            assert_eq!(handle.feature_names(), baseline.feature_names());
            assert_eq!(handle.key_columns(), baseline.key_columns());
            let (mut want, mut got) = (Vec::new(), Vec::new());
            for (c, m) in [
                ("a", "m1"),
                ("b", "m2"),
                ("c", "m9"),
                ("a", "m2"),
                ("z", "zz"),
            ] {
                let key = [Value::Str(c.into()), Value::Str(m.into())];
                baseline.lookup(&key, &mut want).unwrap();
                handle.lookup(&key, &mut got).unwrap();
                let as_bits = |v: &Vec<Option<f64>>| -> Vec<Option<u64>> {
                    v.iter().map(|x| x.map(f64::to_bits)).collect()
                };
                assert_eq!(as_bits(&want), as_bits(&got), "{c}/{m} n={n_shards}");
            }
            // Arity errors come from the router facade, not a shard probe.
            let err = handle
                .lookup(&[Value::Str("a".into())], &mut got)
                .unwrap_err();
            assert!(err.to_string().contains("1 values for 2"), "{err}");

            // A router append moves the shards' epochs; lookups of the
            // touched keys follow them, and answers follow the new rows.
            let epoch_before = handle.epoch();
            let mut batch = Table::new("logs");
            batch
                .add_column("cname", Column::from_strs(&["a", "b"]))
                .unwrap();
            batch
                .add_column("mid", Column::from_strs(&["m1", "m2"]))
                .unwrap();
            batch
                .add_column("pprice", Column::from_f64s(&[5.0, 9.0]))
                .unwrap();
            batch
                .add_column("department", Column::from_strs(&["E", "E"]))
                .unwrap();
            router.append_relevant(&batch).unwrap();
            let refit_relevant = relevant.concat(&batch).unwrap();
            let refit = QueryEngine::new(&train, &refit_relevant);
            let refit_handle = ServingHandle::prepare(&refit, &plan).unwrap();
            for (c, m) in [("a", "m1"), ("b", "m2")] {
                let key = [Value::Str(c.into()), Value::Str(m.into())];
                handle.lookup(&key, &mut got).unwrap();
                refit_handle.lookup(&key, &mut want).unwrap();
                assert_eq!(
                    got.iter().map(|x| x.map(f64::to_bits)).collect::<Vec<_>>(),
                    want.iter().map(|x| x.map(f64::to_bits)).collect::<Vec<_>>(),
                    "post-append {c}/{m} n={n_shards}"
                );
            }
            assert!(
                handle.epoch() > epoch_before,
                "n={n_shards}: epoch {} did not advance past {epoch_before}",
                handle.epoch()
            );
        }
    }

    fn bits(features: &[Vec<Option<f64>>]) -> Vec<Vec<Option<u64>>> {
        features
            .iter()
            .map(|f| f.iter().map(|v| v.map(f64::to_bits)).collect())
            .collect()
    }
}
