//! The online serving runtime: prepared, allocation-free feature lookups.
//!
//! [`crate::pipeline::AugModel::serve`] is correct but pays avoidable costs
//! on every request: it clones each key [`Value`], renders every query's
//! structural `Debug` key to probe the engine's feature memo, and
//! re-resolves each query's key-subset positions. A [`ServingHandle`] hoists
//! all of that out of the hot path. It is the one prepared serving type:
//! [`crate::pipeline::AugModel::prepare`] builds it over one engine, and
//! [`shard::ShardRouter::prepare`] over every shard of a key-sharded router.
//! Per shard, the handle holds:
//!
//! * every planned query resolved to an **interned feature slot** — a
//!   direct `Arc` onto its memoized per-group feature vector, so no cache
//!   map (and no `Debug` rendering) is touched per lookup;
//! * every distinct group-key subset's **key probe**: the subset's
//!   positions within the full serve key, a pre-built value→dictionary-code
//!   atomizer per key column (cloned out of the relevant table, so the hot
//!   path never touches the table), and the engine's retained typed-key →
//!   group-id map.
//!
//! [`ServingHandle::lookup`] then checks the key's arity and routes it to
//! the shard that owns it: shard 0, with no hash, when there is one shard,
//! otherwise the hash the router partitions relevant rows by. It answers
//! with, per probe, one dictionary probe per categorical key component and
//! one group-map probe (two hash probes for the common single-subset plan),
//! followed by a slice copy into the caller's buffer. The warm path
//! performs **zero heap allocations** (the routing hash and the key atoms
//! live on the stack; `Vec<KeyAtom>` keys borrow as `[KeyAtom]` slices),
//! which the serving conformance suite asserts through a counting allocator
//! for both one shard and several.
//!
//! [`ServingHandle::lookup_batch`] fans request batches across the same
//! pool-cost-sized scoped worker pool the engine's batch evaluation uses
//! ([`workers_for_pool`]; `FEATAUG_THREADS` stays authoritative). A handle
//! over shared-table engines is `Send + Sync + 'static`: share one behind
//! an `Arc` across every request thread of a serving process.
//!
//! ## Epochs
//!
//! The handle **follows live ingestion**. Each shard keeps a cheap clone of
//! its engine (sharing the compiled epoch cell) and compiles its probes and
//! slots into a per-epoch [`EpochCell`]-published state; the handle keeps
//! the plan. When `append_relevant` publishes a new epoch on a shard's
//! engine, the next lookup routed there notices the epoch advance (one
//! atomic-epoch compare on the warm path), recompiles that shard's state —
//! pure memo reads, because an append carries every memoized per-group
//! feature forward — and republishes it atomically. Lookups never block
//! behind ingestion: in-flight requests finish against the state they
//! pinned, and each batch pins exactly one epoch per shard.
//! [`ServingHandle::epoch`] sums the shards' compiled epochs.
//!
//! The [`tier`] submodule stacks the production concerns on top of the
//! handle: an admission-controlled request queue with deadlines and load
//! shedding, and an atomic model hot-swap cell.

pub mod shard;
pub mod tier;

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use feataug_tabular::groupby::KeyAtom;
use feataug_tabular::{CancelToken, Column, Value};

use crate::exec::{
    cancel_checkpoint, fan_out, workers_for_pool, EngineCore, EngineResult, EpochCell, GroupIndex,
    QueryEngine,
};
use crate::query::AugPlan;

/// Key subsets up to this many columns are atomized into a stack buffer;
/// wider (exotic) subsets fall back to one heap buffer per lookup.
const MAX_INLINE_KEY: usize = 8;

/// Pre-resolved translation of one key column's [`Value`]s into the relevant
/// table's key space, mirroring `KeyMapper`'s rules: categorical strings
/// resolve through the dictionary, every other type must match the column's
/// dtype exactly (ints never match datetimes), and NULL never matches.
enum Atomizer {
    /// value → dictionary code, cloned out of the relevant table's
    /// dictionary at prepare time.
    Cat(HashMap<String, u32>),
    Int,
    DateTime,
    Float,
    Bool,
}

impl Atomizer {
    fn for_column(column: &Column) -> Atomizer {
        match column {
            Column::Cat(c) => Atomizer::Cat(
                c.dictionary()
                    .iter()
                    .enumerate()
                    .map(|(code, v)| (v.clone(), code as u32))
                    .collect(),
            ),
            Column::Int(_) => Atomizer::Int,
            Column::DateTime(_) => Atomizer::DateTime,
            Column::Float(_) => Atomizer::Float,
            Column::Bool(_) => Atomizer::Bool,
        }
    }

    /// `None` means "can never match any group" — NULL, unseen categorical
    /// value, or type-mismatched key — exactly the rows a transform leaves
    /// NULL.
    // lint: hot-path
    fn atomize(&self, value: &Value) -> Option<KeyAtom> {
        match (self, value) {
            (Atomizer::Cat(dict), Value::Str(s)) => {
                dict.get(s.as_str()).map(|&code| KeyAtom::Code(code))
            }
            (Atomizer::Int, Value::Int(i)) => Some(KeyAtom::Int(*i)),
            (Atomizer::DateTime, Value::DateTime(t)) => Some(KeyAtom::Int(*t)),
            (Atomizer::Float, Value::Float(f)) => Some(KeyAtom::Bits(f.to_bits())),
            (Atomizer::Bool, Value::Bool(b)) => Some(KeyAtom::Bool(*b)),
            _ => None,
        }
    }
}

/// One distinct group-key subset's resolved probe: where its columns sit in
/// the full serve key, how to translate their values, and the engine's
/// retained key → group-id map.
struct KeyProbe {
    /// Position of each subset column within the full serve key `K`.
    positions: Vec<usize>,
    /// One atomizer per subset column, parallel to `positions`; shared
    /// (`Arc`) across every probe touching the same key column, so a
    /// categorical key's cloned dictionary exists once per handle.
    atomizers: Vec<Arc<Atomizer>>,
    /// The compiled group index (its retained key map answers the probe).
    index: Arc<GroupIndex>,
    /// The contiguous run of feature slots this probe answers.
    slots: Range<usize>,
}

impl KeyProbe {
    /// Resolve the full serve key to this subset's group id: one atomize per
    /// subset column (a dictionary hash probe for categoricals), then one
    /// probe of the retained key map. Allocation-free for subsets up to
    /// [`MAX_INLINE_KEY`] columns.
    // lint: hot-path
    fn group_of(&self, key: &[Value]) -> Option<u32> {
        let n = self.positions.len();
        if n <= MAX_INLINE_KEY {
            let mut buf = [KeyAtom::Null; MAX_INLINE_KEY];
            for (slot, (pos, atomizer)) in buf
                .iter_mut()
                .zip(self.positions.iter().zip(&self.atomizers))
            {
                *slot = atomizer.atomize(&key[*pos])?;
            }
            self.index.group_of_key(&buf[..n])
        } else {
            // lint: allow(alloc): documented fallback for key subsets wider than MAX_INLINE_KEY
            let mut buf = Vec::with_capacity(n);
            for (pos, atomizer) in self.positions.iter().zip(&self.atomizers) {
                buf.push(atomizer.atomize(&key[*pos])?);
            }
            self.index.group_of_key(&buf)
        }
    }
}

/// One planned query's interned output slot.
struct FeatureSlot {
    /// Where this query's value lands in the output (plan order).
    out_pos: usize,
    /// The query's memoized per-group feature vector (group-aligned with the
    /// probe's index).
    feats: Arc<Vec<Option<f64>>>,
}

/// One engine epoch's compiled lookup state: the probes and interned feature
/// slots, all resolved against a single pinned [`EngineCore`]. Republished
/// atomically (via [`EpochCell`]) the first time a lookup observes the
/// engine on a newer epoch.
struct PreparedState {
    /// The engine epoch this state was compiled against.
    epoch: u64,
    /// One probe per distinct group-key subset, in first-appearance order.
    probes: Vec<KeyProbe>,
    /// One slot per planned query, grouped contiguously by probe.
    slots: Vec<FeatureSlot>,
}

impl PreparedState {
    /// Compile `plan`'s probes and slots against one pinned `core`. Every
    /// feature resolves through the engine memo (a map read when the epoch
    /// carried it forward), and every atomizer dictionary is cloned out of
    /// the pinned core's relevant table — appends can grow dictionaries, so
    /// the clones are per-epoch state, not handle state.
    fn build<'a>(
        engine: &QueryEngine<'a>,
        core: &EngineCore<'a>,
        plan: &AugPlan,
    ) -> EngineResult<PreparedState> {
        // Group the plan's queries by key subset, first-appearance order.
        // One flat Vec (not subset-keyed maps) so the compile pass below
        // consumes each subset's entry directly — there is no "the map must
        // contain this key" invariant left to get wrong. Plans hold a handful
        // of distinct subsets, so the linear probe is cheap.
        type SubsetGroup = (Vec<String>, Arc<GroupIndex>, Vec<FeatureSlot>);
        let mut grouped: Vec<SubsetGroup> = Vec::new();
        for (out_pos, planned) in plan.queries.iter().enumerate() {
            let (index, feats) = engine.group_feature(core, &planned.query, None)?;
            let keys = &planned.query.group_keys;
            let slot = FeatureSlot { out_pos, feats };
            match grouped.iter_mut().find(|(subset, _, _)| subset == keys) {
                Some((_, _, subset_slots)) => subset_slots.push(slot),
                None => grouped.push((keys.clone(), index, vec![slot])),
            }
        }

        let mut probes = Vec::with_capacity(grouped.len());
        let mut slots = Vec::with_capacity(plan.queries.len());
        let mut atomizer_cache: HashMap<String, Arc<Atomizer>> = HashMap::new();
        for (subset, index, subset_slots) in grouped {
            let positions = subset
                .iter()
                .map(|key| {
                    plan.key_columns
                        .iter()
                        .position(|c| c == key)
                        .ok_or_else(|| {
                            feataug_tabular::TabularError::InvalidArgument(format!(
                                "planned query groups by `{key}`, which is not a plan key column"
                            ))
                        })
                })
                .collect::<feataug_tabular::Result<Vec<_>>>()?;
            // One atomizer per key *column*, shared across every subset that
            // probes it — a categorical key's cloned dictionary can be large,
            // so it must not be duplicated per subset.
            let atomizers = subset
                .iter()
                .map(|key| match atomizer_cache.get(key) {
                    Some(atomizer) => Ok(Arc::clone(atomizer)),
                    None => {
                        let built = Arc::new(Atomizer::for_column(core.relevant().column(key)?));
                        atomizer_cache.insert(key.clone(), Arc::clone(&built));
                        Ok(built)
                    }
                })
                .collect::<feataug_tabular::Result<Vec<_>>>()?;
            let start = slots.len();
            slots.extend(subset_slots);
            probes.push(KeyProbe {
                positions,
                atomizers,
                index,
                slots: start..slots.len(),
            });
        }

        Ok(PreparedState {
            epoch: core.epoch(),
            probes,
            slots,
        })
    }

    /// The probe loop: `out` is cleared and refilled in plan order, one
    /// group-id probe per distinct key subset. Without a token (`cancel` =
    /// `None` — every search-time and deadline-less path) the checkpoint is
    /// a skipped branch; with one, each probe boundary is a preemption point.
    // lint: hot-path
    fn probe(
        &self,
        key: &[Value],
        out: &mut Vec<Option<f64>>,
        cancel: Option<&CancelToken>,
    ) -> EngineResult<()> {
        crate::fail_point!("serving.lookup");
        out.clear();
        out.resize(self.slots.len(), None);
        for probe in &self.probes {
            cancel_checkpoint(cancel)?;
            let group = probe.group_of(key);
            for slot in &self.slots[probe.slots.start..probe.slots.end] {
                out[slot.out_pos] = group
                    .and_then(|g| slot.feats[g as usize])
                    .filter(|v| v.is_finite());
            }
        }
        Ok(())
    }
}

/// One shard of a [`ServingHandle`]: the engine the shard's state follows
/// across epochs (a cheap clone sharing the compiled epoch cell and memo),
/// and that state.
struct PreparedShard<'a> {
    engine: QueryEngine<'a>,
    state: EpochCell<PreparedState>,
}

impl<'a> PreparedShard<'a> {
    fn prepare(engine: &QueryEngine<'a>, plan: &AugPlan) -> EngineResult<PreparedShard<'a>> {
        let state = PreparedState::build(engine, &engine.core(), plan)?;
        Ok(PreparedShard {
            engine: engine.clone(),
            state: EpochCell::new(Arc::new(state)),
        })
    }

    /// Pin the current epoch's compiled state, recompiling first when the
    /// engine has advanced past it (an `append_relevant` landed). The warm
    /// path — epoch unchanged — is two short lock holds and one compare,
    /// with **zero heap allocations**.
    // lint: hot-path
    fn current_state(&self, plan: &AugPlan) -> EngineResult<Arc<PreparedState>> {
        let state = self.state.load();
        if state.epoch == self.engine.epoch() {
            return Ok(state);
        }
        self.refresh(plan)
    }

    /// Recompile the probes and slots against the engine's current epoch and
    /// publish them. Appends carry every memoized per-group feature forward,
    /// so this is pure map reads — no aggregation re-runs, no evaluation
    /// counter moves. Racing refreshes are benign: each publishes a state
    /// consistent with some recent epoch, and the next lookup re-checks.
    fn refresh(&self, plan: &AugPlan) -> EngineResult<Arc<PreparedState>> {
        let core = self.engine.core();
        let built = Arc::new(PreparedState::build(&self.engine, &core, plan)?);
        self.state.swap(Arc::clone(&built));
        Ok(built)
    }
}

/// A prepared, allocation-free lookup handle over a fitted (or compiled)
/// model's plan, on one engine or on every shard of a key-sharded router —
/// built by [`crate::pipeline::AugModel::prepare`] or
/// [`shard::ShardRouter::prepare`], which pay each planned query's one
/// aggregation (per shard) up front. The handle follows its engines across
/// `append_relevant` epochs. See the [module docs](self) for the hot-path
/// anatomy.
pub struct ServingHandle<'a> {
    /// One entry per shard, indexed by the routing hash (a single entry for
    /// an unsharded model).
    shards: Vec<PreparedShard<'a>>,
    /// Positions of the routing keys within the plan's key columns, in
    /// routing-key order, so a request key hashes without any name lookup.
    /// Unused with one shard.
    route_positions: Vec<usize>,
    /// The plan served — kept so new epochs can be recompiled in place.
    plan: AugPlan,
    /// Feature column names, in plan (= output) order (stable across
    /// epochs).
    feature_names: Vec<String>,
}

impl std::fmt::Debug for ServingHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingHandle")
            .field("key_columns", &self.plan.key_columns)
            .field("features", &self.feature_names.len())
            .field("n_shards", &self.shards.len())
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl<'a> ServingHandle<'a> {
    /// Resolve `plan` against `engine`: evaluate-and-memoize each query's
    /// per-group feature (the one aggregation a cold query costs), intern
    /// the feature slots, and pre-build one key probe per distinct group-key
    /// subset. Errors when a query's aggregation fails, a group key is not a
    /// plan key column, or a key column is missing from the relevant table.
    pub(crate) fn prepare(
        engine: &QueryEngine<'a>,
        plan: &AugPlan,
    ) -> EngineResult<ServingHandle<'a>> {
        Self::over_shards(std::slice::from_ref(engine), Vec::new(), plan)
    }

    /// [`ServingHandle::prepare`] on every engine of `shards`, which a
    /// request key reaches by hashing its components at `route_positions`.
    /// The caller has checked that every planned query groups by those
    /// routing keys, so each group lives whole on one shard.
    pub(crate) fn over_shards(
        shards: &[QueryEngine<'a>],
        route_positions: Vec<usize>,
        plan: &AugPlan,
    ) -> EngineResult<ServingHandle<'a>> {
        let shards = shards
            .iter()
            .map(|engine| PreparedShard::prepare(engine, plan))
            .collect::<EngineResult<Vec<_>>>()?;
        Ok(ServingHandle {
            shards,
            route_positions,
            plan: plan.clone(),
            feature_names: plan.feature_names(),
        })
    }

    /// The engine epoch the handle last compiled its lookup state against,
    /// summed over shards: with one shard it is that engine's epoch, and it
    /// grows whenever any shard's state follows an append.
    pub fn epoch(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.state.load().epoch)
            .sum()
    }

    /// Number of shards the handle routes across (1 when unsharded).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The plan's foreign-key columns, in the order `lookup` expects the key
    /// values.
    pub fn key_columns(&self) -> &[String] {
        &self.plan.key_columns
    }

    /// Feature column names, aligned with the output slots of `lookup`.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Number of features a lookup writes.
    pub fn num_features(&self) -> usize {
        self.plan.queries.len()
    }

    /// Answer one online request into `out` (resized to
    /// [`ServingHandle::num_features`], plan order; `None` marks the same
    /// rows a transform would leave NULL — unseen, filtered-away, NULL or
    /// type-mismatched keys, and non-finite aggregates). `key` holds one
    /// [`Value`] per plan key column.
    ///
    /// The warm path — a reused `out` buffer — performs **zero heap
    /// allocations**: the routing hash (sharded handles only) runs on the
    /// stack, and per distinct key subset the key atoms are built in a
    /// stack buffer, the group id is one hash probe of the retained key map
    /// (plus one dictionary probe per categorical key component), and each
    /// feature is a slice read. No `Debug`/SQL rendering, no [`Value`]
    /// clones. Results are bit-identical to
    /// [`crate::pipeline::AugModel::serve`] on the unsharded model.
    // lint: hot-path
    pub fn lookup(&self, key: &[Value], out: &mut Vec<Option<f64>>) -> EngineResult<()> {
        self.lookup_with(key, out, None)
    }

    /// [`ServingHandle::lookup`] under an optional [`CancelToken`]: check the
    /// key's arity, route it to its shard, pin that shard's state (following
    /// a new epoch first if one landed), and run the probe loop. The loop
    /// polls the token before each key probe, so a request whose deadline
    /// has already fired is preempted mid-lookup with
    /// [`crate::exec::EngineError::Cancelled`] instead of finishing its
    /// remaining probes — the hook [`tier::ServingTier`] deadlines use to
    /// preempt in-flight work.
    // lint: hot-path
    pub(crate) fn lookup_with(
        &self,
        key: &[Value],
        out: &mut Vec<Option<f64>>,
        cancel: Option<&CancelToken>,
    ) -> EngineResult<()> {
        self.check_arity(key)?;
        let state = self.shards[self.route(key)].current_state(&self.plan)?;
        state.probe(key, out, cancel)
    }

    /// Index of the shard owning `key` (arity already checked): 0 with one
    /// shard, otherwise [`shard::route`] over the routing-key components —
    /// the hash the router partitioned the relevant rows by.
    // lint: hot-path
    fn route(&self, key: &[Value]) -> usize {
        let n_shards = self.shards.len();
        if n_shards == 1 {
            return 0;
        }
        crate::fail_point!("shard.route");
        shard::route(key, &self.route_positions, n_shards)
    }

    /// Reject a key whose arity does not match the plan's key columns (a
    /// cold branch no well-formed request takes).
    fn check_arity(&self, key: &[Value]) -> EngineResult<()> {
        if key.len() == self.plan.key_columns.len() {
            return Ok(());
        }
        Err(feataug_tabular::TabularError::InvalidArgument(format!(
            "lookup key has {} values for {} key columns",
            key.len(),
            self.plan.key_columns.len()
        ))
        .into())
    }

    /// [`ServingHandle::lookup`] into a fresh vector (allocates; the
    /// buffer-reusing form is the hot path).
    pub fn lookup_vec(&self, key: &[Value]) -> EngineResult<Vec<Option<f64>>> {
        let mut out = Vec::with_capacity(self.plan.queries.len());
        self.lookup(key, &mut out)?;
        Ok(out)
    }

    /// Answer a batch of requests, fanned across a [`workers_for_pool`]-sized
    /// scoped worker pool (`FEATAUG_THREADS` overrides; one worker runs the
    /// loop inline). `results[i]` is `keys[i]`'s features, bit-identical to
    /// serial [`ServingHandle::lookup`] calls at any worker count. Key
    /// arities are validated up front so a malformed request errors before
    /// any work.
    pub fn lookup_batch(&self, keys: &[Vec<Value>]) -> EngineResult<Vec<Vec<Option<f64>>>> {
        for key in keys {
            self.check_arity(key)?;
        }
        self.try_lookup_batch(keys).into_iter().collect()
    }

    /// Panic-contained batch lookup with **per-request** outcomes:
    /// `results[i]` is `keys[i]`'s features or its own typed error, so one
    /// panicking (or malformed) request cannot fail its batch-mates — the
    /// shape the admission-controlled tier serves from. Values are
    /// bit-identical to serial [`ServingHandle::lookup`] calls at any worker
    /// count.
    pub fn try_lookup_batch(&self, keys: &[Vec<Value>]) -> Vec<EngineResult<Vec<Option<f64>>>> {
        // Pin one epoch per shard for the whole batch: every batch-mate
        // answers against the same snapshot even while appends land
        // concurrently.
        let pinned: Vec<EngineResult<Arc<PreparedState>>> = self
            .shards
            .iter()
            .map(|shard| shard.current_state(&self.plan))
            .collect();
        fan_out(
            keys,
            workers_for_pool(keys.len()),
            "batch lookup",
            || Vec::with_capacity(self.plan.queries.len()),
            |row, key| {
                self.check_arity(key)?;
                match &pinned[self.route(key)] {
                    Ok(state) => state.probe(key, row, None)?,
                    // The shard's epoch recompile failed; re-resolving per
                    // request reproduces the typed error for each
                    // batch-mate it owns.
                    Err(_) => self.lookup(key, row)?,
                }
                Ok(row.clone())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{PlannedQuery, PredicateQuery};
    use feataug_tabular::{AggFunc, Column, Predicate, Table};

    fn train() -> Table {
        let mut t = Table::new("users");
        t.add_column("cname", Column::from_strs(&["a", "b", "c"]))
            .unwrap();
        t.add_column("mid", Column::from_strs(&["m1", "m2", "m9"]))
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
        t
    }

    fn plan() -> AugPlan {
        let q = |agg: AggFunc, predicate: Predicate, keys: &[&str]| PlannedQuery {
            query: PredicateQuery {
                agg,
                agg_column: "pprice".into(),
                predicate,
                group_keys: keys.iter().map(|s| s.to_string()).collect(),
            },
            loss: 0.0,
        };
        AugPlan::new(
            "logs",
            vec!["cname".into(), "mid".into()],
            vec![
                q(AggFunc::Sum, Predicate::eq("department", "E"), &["cname"]),
                q(AggFunc::Avg, Predicate::True, &["cname", "mid"]),
                q(AggFunc::Count, Predicate::True, &["cname"]),
                // `mid` alone — a third subset, out of key order.
                q(AggFunc::Max, Predicate::True, &["mid"]),
            ],
        )
    }

    #[test]
    fn prepared_lookup_answers_in_plan_order() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let plan = plan();
        let handle = ServingHandle::prepare(&engine, &plan).unwrap();
        assert_eq!(handle.num_features(), 4);
        assert_eq!(handle.feature_names(), plan.feature_names().as_slice());
        assert_eq!(handle.key_columns(), plan.key_columns.as_slice());

        let mut out = Vec::new();
        handle
            .lookup(&[Value::Str("a".into()), Value::Str("m1".into())], &mut out)
            .unwrap();
        assert_eq!(
            out,
            vec![Some(10.0), Some(15.0), Some(2.0), Some(20.0)],
            "slots must land in plan order, not probe order"
        );
        // Unseen key component: every slot probing it goes NULL, the rest
        // answer normally.
        handle
            .lookup(&[Value::Str("a".into()), Value::Str("zz".into())], &mut out)
            .unwrap();
        assert_eq!(out, vec![Some(10.0), None, Some(2.0), None]);
        // NULL and type-mismatched keys never match.
        handle
            .lookup(&[Value::Null, Value::Str("m1".into())], &mut out)
            .unwrap();
        assert_eq!(out, vec![None, None, None, Some(20.0)]);
        handle
            .lookup(&[Value::Int(7), Value::Str("m2".into())], &mut out)
            .unwrap();
        assert_eq!(out, vec![None, None, None, Some(40.0)]);
        // Arity mismatch is an error, not a silent miss.
        assert!(handle.lookup(&[Value::Str("a".into())], &mut out).is_err());
    }

    #[test]
    fn prepare_pays_each_aggregation_once_and_lookups_move_no_counter() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let plan = plan();
        let handle = ServingHandle::prepare(&engine, &plan).unwrap();
        let after_prepare = engine.stats();
        assert_eq!(after_prepare.group_features, 4);
        assert_eq!(after_prepare.evaluations, 4);

        let mut out = Vec::new();
        for key in [
            [Value::Str("a".into()), Value::Str("m1".into())],
            [Value::Str("b".into()), Value::Str("m2".into())],
            [Value::Str("zz".into()), Value::Null],
        ] {
            handle.lookup(&key, &mut out).unwrap();
        }
        assert_eq!(
            engine.stats(),
            after_prepare,
            "warm lookups must be pure probe reads"
        );
        // A second prepare reuses every memoized per-group feature.
        let again = ServingHandle::prepare(&engine, &plan).unwrap();
        assert_eq!(engine.stats(), after_prepare);
        assert_eq!(again.num_features(), 4);
    }

    #[test]
    fn prepare_rejects_foreign_group_keys_and_missing_columns() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        // A query grouping by a column outside the plan's key set.
        let mut bad = plan();
        bad.key_columns = vec!["cname".into()];
        let err = ServingHandle::prepare(&engine, &bad).unwrap_err();
        assert!(err.to_string().contains("not a plan key column"));
        // A query whose aggregation column is missing errors during the
        // prepare-time aggregation.
        let mut ghost = plan();
        ghost.queries[0].query.agg_column = "nope".into();
        assert!(ServingHandle::prepare(&engine, &ghost).is_err());
    }

    #[test]
    fn lookup_batch_matches_serial_lookups() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let handle = ServingHandle::prepare(&engine, &plan()).unwrap();
        let keys: Vec<Vec<Value>> = ["a", "b", "c", "zz", "a", "b"]
            .iter()
            .cycle()
            .take(40)
            .enumerate()
            .map(|(i, c)| {
                vec![
                    Value::Str(c.to_string()),
                    Value::Str(format!("m{}", i % 3 + 1)),
                ]
            })
            .collect();
        let batch = handle.lookup_batch(&keys).unwrap();
        assert_eq!(batch.len(), keys.len());
        let mut row = Vec::new();
        for (key, got) in keys.iter().zip(&batch) {
            handle.lookup(key, &mut row).unwrap();
            assert_eq!(got, &row);
        }
        // Any bad arity in the batch errors up front.
        let mut keys = keys;
        keys.push(vec![Value::Str("a".into())]);
        assert!(handle.lookup_batch(&keys).is_err());
    }

    #[test]
    fn lookup_follows_appends_without_reprepare() {
        let (train, relevant) = (train(), relevant());
        let engine = QueryEngine::new(&train, &relevant);
        let handle = ServingHandle::prepare(&engine, &plan()).unwrap();
        let mut out = Vec::new();
        handle
            .lookup(&[Value::Str("a".into()), Value::Str("m1".into())], &mut out)
            .unwrap();
        assert_eq!(out[0], Some(10.0));
        assert_eq!(handle.epoch(), 0);

        // Append one more department-E row for (a, m1) and a brand-new
        // (c, m3) group whose key values are new dictionary entries.
        let mut batch = Table::new("logs");
        batch
            .add_column("cname", Column::from_strs(&["a", "c"]))
            .unwrap();
        batch
            .add_column("mid", Column::from_strs(&["m1", "m3"]))
            .unwrap();
        batch
            .add_column("pprice", Column::from_f64s(&[5.0, 7.0]))
            .unwrap();
        batch
            .add_column("department", Column::from_strs(&["E", "E"]))
            .unwrap();
        let info = engine.append_relevant(&batch).unwrap();
        assert_eq!(info.epoch, 1);

        // The next lookup transparently refreshes onto the new epoch.
        handle
            .lookup(&[Value::Str("a".into()), Value::Str("m1".into())], &mut out)
            .unwrap();
        assert_eq!(out[0], Some(15.0), "sum picks up the appended E row");
        assert_eq!(out[2], Some(3.0), "count sees the third cname=a row");
        assert_eq!(handle.epoch(), 1);
        // The new group — including its fresh dictionary codes — serves.
        handle
            .lookup(&[Value::Str("c".into()), Value::Str("m3".into())], &mut out)
            .unwrap();
        assert_eq!(out, vec![Some(7.0), Some(7.0), Some(1.0), Some(7.0)]);
    }

    #[test]
    fn handle_is_send_sync_static() {
        fn assert_send_sync_static<T: Send + Sync + 'static>(_: &T) {}
        let (train, relevant) = (Arc::new(train()), Arc::new(relevant()));
        let engine = QueryEngine::new_shared(train, relevant);
        let handle = ServingHandle::prepare(&engine, &plan()).unwrap();
        assert_send_sync_static(&handle);
        drop(engine);
        // The handle carries its own engine clone (sharing the compiled
        // epoch cell), so dropping the caller's engine changes nothing.
        let mut out = Vec::new();
        handle
            .lookup(&[Value::Str("b".into()), Value::Str("m2".into())], &mut out)
            .unwrap();
        assert_eq!(out[0], Some(70.0));
        let from_thread = std::thread::spawn(move || {
            let mut out = Vec::new();
            handle
                .lookup(&[Value::Str("a".into()), Value::Str("m1".into())], &mut out)
                .unwrap();
            out
        })
        .join()
        .unwrap();
        assert_eq!(from_thread[0], Some(10.0));
    }
}
