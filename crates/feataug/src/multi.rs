//! Multiple relevant tables and deep-layer relationships.
//!
//! The paper's problem statement (Section III) defines FeatAug for one training table and one
//! relevant table, and notes that the richer real-world scenarios reduce to it:
//!
//! * **multiple relevant tables** — run the one-table problem once per relevant table and take
//!   the union of the generated features ([`MultiAugTask`] / [`augment_multi`]);
//! * **deep-layer relationships** (a relevant table that itself points at further tables, e.g.
//!   orders → products → departments) — pre-join the chain into a single relevant table
//!   ([`flatten_chain`]), exactly as the paper's Tmall / Instacart / Merchant preparation does.
//!
//! [`crate::schema::fit_schema`] generalises both reductions: it *discovers*
//! the chains as join paths over a registered [`crate::schema::SchemaGraph`]
//! (instead of taking a hand-flattened table), proxy-scores every candidate
//! path, and fits only the budgeted best. [`fit_multi`] is its degenerate
//! depth-1 case — every path exactly one declared edge long, no budget gate.
//!
//! Each source's pipeline run compiles **one** shared [`crate::exec::QueryEngine`] for its
//! `(train, relevant)` pair — QTI and generation both evaluate through it — and reports the
//! engine's cache counters in its [`FeatAugResult::engine_stats`]. Engines are per-pair by
//! construction, so distinct sources (distinct relevant tables) get distinct engines.

use std::sync::Arc;

use feataug_ml::Task;
use feataug_tabular::join::left_join;
use feataug_tabular::{Column, Table};

use crate::exec::EngineResult;
use crate::pipeline::{AugModel, FeatAug, FeatAugConfig, FeatAugResult, PipelineTiming};
use crate::problem::{AugTask, AugTaskError};
use crate::query::AugPlan;

/// One relevant table participating in a multi-table augmentation task.
#[derive(Debug, Clone)]
pub struct RelevantSource {
    /// The relevant table (`Arc`-shared: handing it to a sub-task is a
    /// reference-count bump, not a copy).
    pub table: Arc<Table>,
    /// Foreign-key columns shared with the training table.
    pub key_columns: Vec<String>,
    /// Aggregation attributes offered from this table (empty = numeric defaults).
    pub agg_columns: Vec<String>,
    /// Candidate predicate attributes offered from this table (empty = all non-key columns).
    pub predicate_attrs: Vec<String>,
}

impl RelevantSource {
    /// Build a source with default attribute sets.
    pub fn new(table: impl Into<Arc<Table>>, key_columns: Vec<String>) -> Self {
        RelevantSource {
            table: table.into(),
            key_columns,
            agg_columns: Vec::new(),
            predicate_attrs: Vec::new(),
        }
    }

    /// Builder-style setter for the aggregation attributes.
    pub fn with_agg_columns(mut self, cols: Vec<String>) -> Self {
        self.agg_columns = cols;
        self
    }

    /// Builder-style setter for the predicate attributes.
    pub fn with_predicate_attrs(mut self, attrs: Vec<String>) -> Self {
        self.predicate_attrs = attrs;
        self
    }
}

/// A feature-augmentation task with several relevant tables.
#[derive(Debug, Clone)]
pub struct MultiAugTask {
    /// Training table `D` (`Arc`-shared across every per-source sub-task).
    pub train: Arc<Table>,
    /// Label column in `D`.
    pub label_column: String,
    /// Downstream learning task.
    pub task: Task,
    /// The relevant tables, each with its own key / attribute metadata.
    pub sources: Vec<RelevantSource>,
}

impl MultiAugTask {
    /// Build a multi-table task.
    pub fn new(train: impl Into<Arc<Table>>, label_column: impl Into<String>, task: Task) -> Self {
        MultiAugTask {
            train: train.into(),
            label_column: label_column.into(),
            task,
            sources: Vec::new(),
        }
    }

    /// Builder-style: add a relevant table.
    pub fn with_source(mut self, source: RelevantSource) -> Self {
        self.sources.push(source);
        self
    }

    /// The single-table sub-task for source `i` (paper Section III's
    /// reduction). Both tables are `Arc`-shared with this task — building a
    /// sub-task is two reference-count bumps, never a table copy.
    pub fn sub_task(&self, i: usize) -> AugTask {
        let source = &self.sources[i];
        AugTask::new(
            self.train.clone(),
            source.table.clone(),
            source.key_columns.clone(),
            self.label_column.clone(),
            self.task,
        )
        .with_agg_columns(source.agg_columns.clone())
        .with_predicate_attrs(source.predicate_attrs.clone())
    }

    /// All per-source sub-tasks, in source order (each an `Arc`-sharing view
    /// of this task's tables).
    pub fn sub_tasks(&self) -> Vec<AugTask> {
        (0..self.sources.len()).map(|i| self.sub_task(i)).collect()
    }
}

/// The fit/transform counterpart of [`augment_multi`]: one fitted
/// [`AugModel`] per relevant source, transformable as a union onto any table
/// carrying the training-side key columns. Each source keeps its own engine
/// (engines are per `(train, relevant)` pair by construction), so repeat
/// transforms pay no aggregation anywhere.
#[derive(Debug)]
pub struct MultiAugModel<'a> {
    models: Vec<AugModel<'a>>,
}

/// Fit one model per sub-task (see [`MultiAugTask::sub_tasks`]). Each model
/// co-owns its source tables through the sub-task's `Arc`s, so the returned
/// [`OwnedMultiAugModel`] stands alone — the sub-task vector can be dropped.
///
/// ```no_run
/// # use feataug::multi::{MultiAugTask, fit_multi};
/// # use feataug::FeatAugConfig;
/// # use feataug_ml::ModelKind;
/// # fn get(_: ()) -> MultiAugTask { unimplemented!() }
/// let task: MultiAugTask = get(());
/// let subs = task.sub_tasks();
/// let model = fit_multi(&FeatAugConfig::fast(ModelKind::Linear), &subs).unwrap();
/// let augmented_train = model.transform(&task.train).unwrap();
/// ```
pub fn fit_multi(
    cfg: &FeatAugConfig,
    sub_tasks: &[AugTask],
) -> Result<OwnedMultiAugModel, AugTaskError> {
    let models = sub_tasks
        .iter()
        .map(|task| FeatAug::new(cfg.clone()).fit(task))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(MultiAugModel { models })
}

/// An owned [`MultiAugModel`]: every per-source model co-owns its tables
/// (`Arc`-backed, `Send + Sync + 'static`).
pub type OwnedMultiAugModel = MultiAugModel<'static>;

impl<'a> MultiAugModel<'a> {
    /// Assemble a multi-source serving model from per-source models (e.g.
    /// one [`AugModel::compile`] / [`AugModel::compile_shared`] per shipped
    /// plan), in source order.
    pub fn from_models(models: Vec<AugModel<'a>>) -> MultiAugModel<'a> {
        MultiAugModel { models }
    }

    /// Upgrade every per-source model to shared table ownership (see
    /// [`AugModel::into_owned`]).
    pub fn into_owned(self) -> OwnedMultiAugModel {
        MultiAugModel {
            models: self.models.into_iter().map(AugModel::into_owned).collect(),
        }
    }

    /// The per-source fitted models, in source order.
    pub fn models(&self) -> &[AugModel<'a>] {
        &self.models
    }

    /// The per-source portable plans, in source order.
    pub fn plans(&self) -> Vec<&AugPlan> {
        self.models.iter().map(|m| m.plan()).collect()
    }

    /// Ingest `rows` into source `source`'s relevant table as one atomic
    /// epoch (see [`AugModel::append_relevant`]). The other sources' engines
    /// and epochs are untouched.
    pub fn append_relevant(&self, source: usize, rows: &Table) -> EngineResult<crate::exec::Epoch> {
        let model = self.models.get(source).ok_or_else(|| {
            feataug_tabular::TabularError::InvalidArgument(format!(
                "append_relevant source index {source} out of range for {} sources",
                self.models.len()
            ))
        })?;
        model.append_relevant(rows)
    }

    /// Attach the union of every source's planned features to a copy of
    /// `table` (any table carrying each source's training-side key columns).
    /// Feature names embed a query hash, so cross-source collisions are
    /// unlikely; a colliding (or pre-existing) column is skipped, exactly
    /// like [`augment_multi`]'s union.
    pub fn transform(&self, table: &Table) -> EngineResult<Table> {
        transform_union(&self.models, table, None)
    }

    /// [`MultiAugModel::transform`] under a
    /// [`feataug_tabular::CancelToken`]: sources run in order and every
    /// source's aggregations poll the token at the kernel checkpoints, so
    /// one tripped deadline abandons the whole union mid-source with
    /// [`crate::exec::EngineError::Cancelled`] instead of finishing the
    /// remaining relevant tables.
    pub fn transform_cancel(
        &self,
        table: &Table,
        cancel: &feataug_tabular::CancelToken,
    ) -> EngineResult<Table> {
        transform_union(&self.models, table, Some(cancel))
    }
}

/// Attach the union of `models`' planned features to a copy of `table`,
/// model by model; a colliding (or pre-existing) column keeps its first
/// copy. The one union loop behind [`MultiAugModel::transform`],
/// [`MultiAugModel::transform_cancel`] and
/// [`crate::schema::SchemaAugModel::transform`].
pub(crate) fn transform_union(
    models: &[AugModel<'_>],
    table: &Table,
    cancel: Option<&feataug_tabular::CancelToken>,
) -> EngineResult<Table> {
    let mut augmented = table.clone();
    for model in models {
        for (name, values) in model.transform_features_with(table, cancel)? {
            let _ = augmented.add_column(name, Column::from_opt_f64s(&values));
        }
    }
    Ok(augmented)
}

/// The union of per-source pipeline runs.
#[derive(Debug, Clone)]
pub struct MultiAugResult {
    /// The training table with every source's selected features attached.
    pub augmented_train: Table,
    /// The per-source pipeline results, in source order.
    pub per_source: Vec<FeatAugResult>,
    /// Total timing across all sources.
    pub timing: PipelineTiming,
}

/// Run FeatAug once per relevant table and union the generated features onto the training table.
/// The per-source feature budget is the configuration's budget; callers who want a fixed total
/// budget should divide it across sources first.
pub fn augment_multi(cfg: &FeatAugConfig, task: &MultiAugTask) -> MultiAugResult {
    let mut augmented = (*task.train).clone();
    let mut per_source = Vec::new();
    let mut timing = PipelineTiming::default();

    for i in 0..task.sources.len() {
        let sub = task.sub_task(i);
        let result = FeatAug::new(cfg.clone()).augment(&sub);
        timing.qti += result.timing.qti;
        timing.warmup += result.timing.warmup;
        timing.generate += result.timing.generate;

        for name in &result.feature_names {
            if let Ok(col) = result.augmented_train.column(name) {
                // Feature names embed a query hash, so collisions across sources are unlikely;
                // skip silently if one does occur.
                let _ = augmented.add_column(name.clone(), col.clone());
            }
        }
        per_source.push(result);
    }

    MultiAugResult {
        augmented_train: augmented,
        per_source,
        timing,
    }
}

/// Flatten a deep-layer relationship chain into one relevant table by left-joining each
/// deeper table onto the chain head (paper Section III: "it can be represented by the
/// aforementioned scenario by joining all the tables into one relevant table").
///
/// `chain` lists `(table, join keys against the current head)` pairs in order.
pub fn flatten_chain(
    head: &Table,
    chain: &[(Table, Vec<String>)],
) -> feataug_tabular::Result<Table> {
    let mut current = head.clone();
    for (table, keys) in chain {
        let key_refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
        current = left_join(&current, table, &key_refs, &key_refs)?;
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feataug_ml::ModelKind;
    use feataug_tabular::{Column, Value};

    fn train(n: usize) -> Table {
        let keys: Vec<String> = (0..n).map(|i| format!("u{i}")).collect();
        let labels: Vec<i64> = (0..n).map(|i| (i % 2) as i64).collect();
        let mut t = Table::new("d");
        t.add_column("user_id", Column::from_strings(&keys))
            .unwrap();
        t.add_column("label", Column::from_i64s(&labels)).unwrap();
        t
    }

    /// A relevant table whose mean of `value` per user tracks the label when `flag == target`.
    fn relevant(n: usize, name: &str, target: &str) -> Table {
        let mut keys = Vec::new();
        let mut flags = Vec::new();
        let mut values = Vec::new();
        for i in 0..n {
            for j in 0..5 {
                keys.push(format!("u{i}"));
                let flag = if j % 2 == 0 { target } else { "other" };
                flags.push(flag.to_string());
                let label = (i % 2) as f64;
                values.push(if flag == target {
                    label * 10.0 + j as f64
                } else {
                    j as f64
                });
            }
        }
        let mut t = Table::new(name);
        t.add_column("user_id", Column::from_strings(&keys))
            .unwrap();
        t.add_column("flag", Column::from_strings(&flags)).unwrap();
        t.add_column("value", Column::from_f64s(&values)).unwrap();
        t
    }

    fn small_cfg() -> FeatAugConfig {
        let mut cfg = FeatAugConfig::fast(ModelKind::Linear);
        cfg.n_templates = 2;
        cfg.queries_per_template = 2;
        cfg.template_id.n_templates = 2;
        cfg.template_id.pool_samples = 6;
        cfg.sqlgen.warmup_iters = 10;
        cfg.sqlgen.warmup_top_k = 3;
        cfg.sqlgen.search_iters = 4;
        cfg
    }

    #[test]
    fn multi_source_union_attaches_features_from_every_source() {
        let n = 120;
        let task = MultiAugTask::new(train(n), "label", Task::BinaryClassification)
            .with_source(RelevantSource::new(
                relevant(n, "r1", "a"),
                vec!["user_id".into()],
            ))
            .with_source(RelevantSource::new(
                relevant(n, "r2", "b"),
                vec!["user_id".into()],
            ));
        assert_eq!(task.sources.len(), 2);
        let result = augment_multi(&small_cfg(), &task);
        assert_eq!(result.per_source.len(), 2);
        assert!(result.augmented_train.num_columns() > task.train.num_columns());
        assert_eq!(result.augmented_train.num_rows(), n);
        // Features from both sources contribute.
        assert!(result
            .per_source
            .iter()
            .all(|r| !r.feature_names.is_empty()));
        assert!(result.timing.total() > std::time::Duration::from_nanos(0));
        // Every source's run shared one engine across QTI + generation.
        assert!(result
            .per_source
            .iter()
            .all(|r| r.engine_stats.evaluations > 0));
    }

    #[test]
    fn fit_multi_transforms_unseen_tables_with_every_sources_features() {
        let n = 80;
        let task = MultiAugTask::new(train(n), "label", Task::BinaryClassification)
            .with_source(RelevantSource::new(
                relevant(n, "r1", "a"),
                vec!["user_id".into()],
            ))
            .with_source(RelevantSource::new(
                relevant(n, "r2", "b"),
                vec!["user_id".into()],
            ));
        let subs = task.sub_tasks();
        let model = fit_multi(&small_cfg(), &subs).unwrap();
        assert_eq!(model.models().len(), 2);
        assert_eq!(model.plans().len(), 2);
        assert!(model.plans().iter().all(|p| !p.is_empty()));

        // Transform the training table: union of all sources' features.
        let on_train = model.transform(&task.train).unwrap();
        let total_features: usize = model.models().iter().map(|m| m.plan().len()).sum();
        assert!(on_train.num_columns() > task.train.num_columns());
        assert!(on_train.num_columns() <= task.train.num_columns() + total_features);

        // Transform a held-out table with one known and one unseen key.
        let mut held_out = Table::new("held_out");
        held_out
            .add_column("user_id", Column::from_strs(&["u0", "nobody"]))
            .unwrap();
        let served = model.transform(&held_out).unwrap();
        assert_eq!(served.num_rows(), 2);
        assert_eq!(
            served.num_columns() - held_out.num_columns(),
            on_train.num_columns() - task.train.num_columns(),
            "held-out tables must carry the same feature union"
        );
        for name in served.column_names() {
            if name == "user_id" {
                continue;
            }
            assert_eq!(
                served.value(1, name).unwrap(),
                Value::Null,
                "unseen key must be NULL in {name}"
            );
        }
        // Fitting validated each sub-task; a broken one errors instead.
        let mut bad = task.sub_task(0);
        bad.label_column = "ghost".into();
        assert!(fit_multi(&small_cfg(), &[bad]).is_err());
    }

    #[test]
    fn sub_task_reduction_matches_paper_definition() {
        let n = 30;
        let task = MultiAugTask::new(train(n), "label", Task::BinaryClassification).with_source(
            RelevantSource::new(relevant(n, "r1", "a"), vec!["user_id".into()])
                .with_agg_columns(vec!["value".into()])
                .with_predicate_attrs(vec!["flag".into()]),
        );
        let sub = task.sub_task(0);
        assert_eq!(sub.key_columns, vec!["user_id".to_string()]);
        assert_eq!(sub.resolved_agg_columns(), vec!["value".to_string()]);
        assert_eq!(sub.resolved_predicate_attrs(), vec!["flag".to_string()]);
    }

    #[test]
    fn flatten_chain_joins_deep_layers() {
        // orders(order head) -> products (by product_id) -> departments (by dept_id)
        let mut orders = Table::new("orders");
        orders
            .add_column("user_id", Column::from_strs(&["u1", "u1", "u2"]))
            .unwrap();
        orders
            .add_column("product_id", Column::from_strs(&["p1", "p2", "p1"]))
            .unwrap();

        let mut products = Table::new("products");
        products
            .add_column("product_id", Column::from_strs(&["p1", "p2"]))
            .unwrap();
        products
            .add_column("dept_id", Column::from_strs(&["d1", "d2"]))
            .unwrap();
        products
            .add_column("price", Column::from_f64s(&[10.0, 20.0]))
            .unwrap();

        let mut departments = Table::new("departments");
        departments
            .add_column("dept_id", Column::from_strs(&["d1", "d2"]))
            .unwrap();
        departments
            .add_column("dept_name", Column::from_strs(&["produce", "dairy"]))
            .unwrap();

        let flat = flatten_chain(
            &orders,
            &[
                (products, vec!["product_id".to_string()]),
                (departments, vec!["dept_id".to_string()]),
            ],
        )
        .unwrap();
        assert_eq!(flat.num_rows(), 3);
        assert_eq!(flat.value(0, "price").unwrap(), Value::Float(10.0));
        assert_eq!(
            flat.value(1, "dept_name").unwrap(),
            Value::Str("dairy".into())
        );
        assert_eq!(
            flat.value(2, "dept_name").unwrap(),
            Value::Str("produce".into())
        );
    }
}
