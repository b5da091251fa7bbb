//! The end-to-end FeatAug pipeline (paper Figure 2), split fit/transform.
//!
//! [`FeatAug::fit`] runs the discovery half offline: Query Template
//! Identification (optional — users who know their data can fix the template
//! instead), then SQL Query Generation inside each promising template's pool.
//! The ablation flags map one-to-one onto the paper's Table VII rows:
//! `enable_qti = false` is "NoQTI", `enable_warmup = false` is "NoWU".
//!
//! Fitting returns an [`AugModel`] — the bridge from offline discovery to
//! online serving:
//!
//! * [`AugModel::plan`] is the **portable artifact**: the selected queries as
//!   plain data ([`AugPlan`]), renderable to SQL and round-trippable through
//!   a text format, so the discovery cost is paid once and the result ships
//!   anywhere ([`AugModel::compile`] rebuilds a serving model from a plan).
//! * [`AugModel::transform`] materialises every planned feature onto **any**
//!   table carrying the key columns — the training table, a test split,
//!   tomorrow's users. Each query's aggregation runs once per model (memoized
//!   per-group in the shared engine core); each table pays only an O(rows)
//!   key mapping and gather.
//! * [`AugModel::serve`] answers **single-key requests** from the same cached
//!   per-group features — the online half of offline→online.
//!
//! [`FeatAug::augment`] survives as a thin `fit` + `transform(train)` wrapper
//! producing the one-shot [`FeatAugResult`], bit-identical to the historical
//! terminal pipeline.
//!
//! Both search components evaluate their candidates through **one shared
//! [`QueryEngine`]** compiled per fit (i.e. per `(train, relevant)` pair): the
//! identifier scores every beam-search node through it, and the generator's
//! warm-up and TPE loops of *all* templates then reuse the group indexes,
//! gather maps, column views and memoized features beam search already
//! built — and the transform/serve paths keep reusing them after the fit.
//! [`FeatAugResult::engine_stats`] exposes the cross-component cache reuse;
//! batch evaluation inside the engine fans candidate pools across a
//! [`std::thread::scope`]-based worker pool (see [`crate::exec`]). One
//! [`FeatureEvaluator`] likewise scores every candidate of a fit, so its loss
//! memo trains each distinct feature vector once across QTI and all templates
//! ([`PipelineTiming::trainings`] / [`PipelineTiming::memo_hits`]).
//!
//! The templates' searches are independent, so `fit` runs them concurrently
//! through the same worker pool, at [`crate::exec::default_workers`]
//! (`FEATAUG_THREADS=1` searches them one after another), and merges their
//! results in template order. The fitted plan does not depend on the worker
//! count.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use feataug_ml::ModelKind;
use feataug_tabular::{AggFunc, Column, Table, Value};

use crate::evaluation::FeatureEvaluator;
use crate::exec::{default_workers, fan_out, EngineResult, EngineStats, QueryEngine, TableHandle};
use crate::generation::{GeneratedQuery, QueryGenerator, SqlGenConfig};
use crate::problem::{AugTask, AugTaskError};
use crate::proxy::LowCostProxy;
use crate::query::{AugPlan, PlanAnalysisError, PlannedQuery, PredicateQuery};
use crate::template::QueryTemplate;
use crate::template_id::{ScoredTemplate, TemplateIdConfig, TemplateIdentifier};

/// Configuration of the full pipeline.
#[derive(Debug, Clone)]
pub struct FeatAugConfig {
    /// Number of promising query templates to search (paper default: 8).
    pub n_templates: usize,
    /// Number of queries kept per template's pool (paper default: 5 → 40 features in total).
    pub queries_per_template: usize,
    /// Run the Query Template Identification component ("NoQTI" ablation sets this to false).
    pub enable_qti: bool,
    /// Run the warm-up phase of SQL Query Generation ("NoWU" ablation sets this to false).
    pub enable_warmup: bool,
    /// The low-cost proxy used by the warm-up and by template identification.
    pub proxy: LowCostProxy,
    /// The downstream model optimised during the search.
    pub model: ModelKind,
    /// Aggregation-function set `F` shared by all templates.
    pub agg_funcs: Vec<AggFunc>,
    /// SQL Query Generation settings (iteration budgets, TPE settings).
    pub sqlgen: SqlGenConfig,
    /// Query Template Identification settings (beam width, depth, pool samples).
    pub template_id: TemplateIdConfig,
    /// RNG seed.
    pub seed: u64,
}

impl FeatAugConfig {
    /// Paper-style defaults for the given downstream model.
    pub fn new(model: ModelKind) -> Self {
        FeatAugConfig {
            n_templates: 8,
            queries_per_template: 5,
            enable_qti: true,
            enable_warmup: true,
            proxy: LowCostProxy::MutualInformation,
            model,
            agg_funcs: AggFunc::all().to_vec(),
            sqlgen: SqlGenConfig::default(),
            template_id: TemplateIdConfig::default(),
            seed: 42,
        }
    }

    /// A reduced-budget configuration for tests, examples and the laptop-scale experiment
    /// harness (fewer templates, fewer TPE iterations, the cheap aggregation functions only).
    pub fn fast(model: ModelKind) -> Self {
        FeatAugConfig {
            n_templates: 4,
            queries_per_template: 3,
            agg_funcs: vec![
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Count,
                AggFunc::Max,
                AggFunc::Min,
            ],
            sqlgen: SqlGenConfig::fast(),
            template_id: TemplateIdConfig::fast(),
            ..FeatAugConfig::new(model)
        }
    }

    /// Builder-style seed override (propagated to both components).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.sqlgen.seed = seed;
        self.template_id.seed = seed;
        self
    }

    /// Builder-style proxy override (propagated to both components).
    pub fn with_proxy(mut self, proxy: LowCostProxy) -> Self {
        self.proxy = proxy;
        self.sqlgen.proxy = proxy;
        self.template_id.proxy = proxy;
        self
    }

    /// Builder-style ablation switch for the Query Template Identification component.
    pub fn with_qti(mut self, enabled: bool) -> Self {
        self.enable_qti = enabled;
        self
    }

    /// Builder-style ablation switch for the warm-up phase.
    pub fn with_warmup(mut self, enabled: bool) -> Self {
        self.enable_warmup = enabled;
        self.sqlgen.enable_warmup = enabled;
        self
    }

    /// Builder-style override of the number of templates searched.
    pub fn with_n_templates(mut self, n: usize) -> Self {
        self.n_templates = n;
        self.template_id.n_templates = n;
        self
    }
}

/// Cost breakdown of one pipeline run: the three time series of the paper's Figures 7–9, and
/// the downstream-model trainings the search ran and avoided.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineTiming {
    /// Query Template Identification time.
    pub qti: Duration,
    /// Warm-up time summed over all templates. Templates are searched concurrently, so this
    /// busy time can exceed the wall time the warm-ups took.
    pub warmup: Duration,
    /// Query-generation time summed over all templates; busy time, like
    /// [`PipelineTiming::warmup`].
    pub generate: Duration,
    /// Downstream-model trainings the fit ran (see [`FeatureEvaluator::trainings`]).
    pub trainings: usize,
    /// Candidate scorings the loss memo answered without training (see
    /// [`FeatureEvaluator::memo_hits`]).
    pub memo_hits: usize,
}

impl PipelineTiming {
    /// Total time of the three phases.
    pub fn total(&self) -> Duration {
        self.qti + self.warmup + self.generate
    }

    /// Accumulate another run's breakdown into this one.
    pub fn add(&mut self, other: &PipelineTiming) {
        self.qti += other.qti;
        self.warmup += other.warmup;
        self.generate += other.generate;
        self.trainings += other.trainings;
        self.memo_hits += other.memo_hits;
    }
}

/// The result of a one-shot [`FeatAug::augment`] run.
#[derive(Debug, Clone)]
pub struct FeatAugResult {
    /// The training table with every selected feature attached.
    pub augmented_train: Table,
    /// The selected queries (ascending validation loss within each template).
    pub queries: Vec<GeneratedQuery>,
    /// The templates that were searched, with their estimated effectiveness.
    pub templates: Vec<ScoredTemplate>,
    /// Names of the attached feature columns.
    pub feature_names: Vec<String>,
    /// Wall-clock breakdown.
    pub timing: PipelineTiming,
    /// Counters of the run's shared execution engine (one engine served both
    /// QTI and generation, so these show the cross-component cache reuse).
    pub engine_stats: EngineStats,
    /// The selected queries as a portable [`AugPlan`] artifact (text
    /// round-trippable, SQL renderable, [`AugModel::compile`]-able).
    pub plan: AugPlan,
}

/// A fitted augmentation: the discovered queries (as a portable [`AugPlan`])
/// plus the compiled [`QueryEngine`] that applies them. Produced by
/// [`FeatAug::fit`]; rebuilt from a shipped plan by [`AugModel::compile`].
///
/// The relevant table backs every aggregation, and clones of the engine
/// handle share one compiled core, so transforming N tables pays each
/// query's aggregation once. Table ownership follows the engine's
/// [`crate::exec::TableHandle`]: `compile` borrows the caller's tables
/// (zero copy), while [`FeatAug::fit`] and [`AugModel::compile_shared`]
/// share the task's `Arc<Table>`s directly and therefore produce an
/// [`OwnedAugModel`] (`AugModel<'static>`, `Send + Sync`) that co-owns its
/// tables and can live in a long-running serving process — no table is
/// cloned anywhere on the fit→serve path.
pub struct AugModel<'a> {
    plan: AugPlan,
    engine: QueryEngine<'a>,
    templates: Vec<ScoredTemplate>,
    queries: Vec<GeneratedQuery>,
    timing: PipelineTiming,
}

/// An [`AugModel`] that co-owns its tables (`Arc`-backed, `Send + Sync +
/// 'static`) — the shape a long-lived serving process holds.
pub type OwnedAugModel = AugModel<'static>;

impl std::fmt::Debug for AugModel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AugModel")
            .field("plan", &self.plan)
            .field("templates", &self.templates.len())
            .field("engine_stats", &self.engine.stats())
            .finish_non_exhaustive()
    }
}

impl<'a> AugModel<'a> {
    /// Rebuild a serving model from a portable plan and the table pair — the
    /// online half of offline→online: fit once, ship
    /// [`AugPlan::to_plan_text`], compile here, then
    /// [`AugModel::transform`] / [`AugModel::serve`]. The first use of each
    /// planned query pays its one aggregation; everything after is cache
    /// reads plus gathers.
    ///
    /// Compiled models carry no fit metadata: [`AugModel::templates`] and
    /// [`AugModel::queries`] are empty and [`AugModel::timing`] is zero.
    ///
    /// Runs [`AugPlan::analyze`] first: a plan that does not match the
    /// relevant table (missing or retyped columns, stray group keys,
    /// colliding feature names) fails here with a typed
    /// [`PlanAnalysisError`] instead of deep inside transform or serve.
    pub fn compile(
        plan: AugPlan,
        train: &'a Table,
        relevant: &'a Table,
    ) -> Result<AugModel<'a>, PlanAnalysisError> {
        plan.analyze(train, relevant)?;
        Ok(AugModel::with_engine(
            plan,
            QueryEngine::new(train, relevant),
        ))
    }

    /// [`AugModel::compile`] with shared table ownership: the returned
    /// [`OwnedAugModel`] is `Send + Sync + 'static` — load the tables into
    /// `Arc`s once and the model can outlive the loading scope, move across
    /// threads, and serve for the life of the process. Runs
    /// [`AugPlan::analyze`] first, like [`AugModel::compile`].
    pub fn compile_shared(
        plan: AugPlan,
        train: Arc<Table>,
        relevant: Arc<Table>,
    ) -> Result<OwnedAugModel, PlanAnalysisError> {
        plan.analyze(&train, &relevant)?;
        Ok(AugModel::with_engine(
            plan,
            QueryEngine::new_shared(train, relevant),
        ))
    }

    fn with_engine(plan: AugPlan, engine: QueryEngine<'_>) -> AugModel<'_> {
        AugModel {
            plan,
            engine,
            templates: Vec::new(),
            queries: Vec::new(),
            timing: PipelineTiming::default(),
        }
    }

    /// Upgrade this model to shared table ownership, keeping the engine's
    /// whole compiled core (memoized group indexes, per-group features,
    /// caches, counters). Borrowed tables are cloned once — the one-time
    /// price of a `Send + 'static` model; see
    /// [`crate::exec::QueryEngine::into_owned`].
    pub fn into_owned(self) -> OwnedAugModel {
        AugModel {
            plan: self.plan,
            engine: self.engine.into_owned(),
            templates: self.templates,
            queries: self.queries,
            timing: self.timing,
        }
    }

    /// Build the prepared, allocation-free lookup handle for this model's
    /// plan (see [`crate::serving::ServingHandle`]): every planned query is
    /// resolved to an interned feature slot and every distinct key subset to
    /// a pre-built key→group probe, so the hot path is hash probes plus a
    /// slice copy — no `Debug`/SQL rendering, no [`Value`] clones, zero heap
    /// allocation on the warm path. Pays each cold query's one aggregation
    /// up front; results are bit-identical to [`AugModel::serve`]. The
    /// handle follows this model's engine across
    /// [`AugModel::append_relevant`] epochs by itself.
    pub fn prepare(&self) -> EngineResult<crate::serving::ServingHandle<'a>> {
        crate::serving::ServingHandle::prepare(&self.engine, &self.plan)
    }

    /// Ingest `rows` into the engine's relevant table as one atomic epoch
    /// (see [`crate::exec::QueryEngine::append_relevant`]): only the touched
    /// groups are delta-updated, untouched compiled artifacts are shared
    /// with the prior epoch, and every in-flight lookup/transform keeps the
    /// epoch it pinned. Prepared [`crate::serving::ServingHandle`]s and
    /// later [`AugModel::serve`]/[`AugModel::transform`] calls observe the
    /// new rows on their next request.
    pub fn append_relevant(&self, rows: &Table) -> EngineResult<crate::exec::Epoch> {
        self.engine.append_relevant(rows)
    }

    /// The engine's current epoch (0 until the first
    /// [`AugModel::append_relevant`]).
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// The portable plan: the selected queries as plain data.
    pub fn plan(&self) -> &AugPlan {
        &self.plan
    }

    /// The templates the fit searched (empty for compiled models).
    pub fn templates(&self) -> &[ScoredTemplate] {
        &self.templates
    }

    /// The fit's selected queries with their search-time features and losses
    /// (empty for compiled models).
    pub fn queries(&self) -> &[GeneratedQuery] {
        &self.queries
    }

    /// Wall-clock breakdown of the fit (zero for compiled models).
    pub fn timing(&self) -> PipelineTiming {
        self.timing
    }

    /// The execution engine backing transform/serve (a cheap handle; clones
    /// share the compiled core).
    pub fn engine(&self) -> &QueryEngine<'a> {
        &self.engine
    }

    /// Counters of the model's engine — fit work plus transform/serve reuse.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The feature column names [`AugModel::transform`] attaches, in order.
    pub fn feature_names(&self) -> Vec<String> {
        self.plan.feature_names()
    }

    /// Materialise every planned feature as `(name, values)` pairs aligned
    /// with `table`'s rows — any table carrying the plan's key columns. The
    /// building block behind [`AugModel::transform`]; useful when the caller
    /// attaches columns itself (e.g. unioning several models' features).
    ///
    /// Non-finite aggregates (NaN, ±∞) surface as `None`, exactly like the
    /// historical one-shot materialisation.
    pub fn transform_features(
        &self,
        table: &Table,
    ) -> EngineResult<Vec<(String, Vec<Option<f64>>)>> {
        let queries: Vec<PredicateQuery> =
            self.plan.queries.iter().map(|p| p.query.clone()).collect();
        let features = self.engine.transform(&queries, table)?;
        Ok(queries
            .iter()
            .zip(features)
            .map(|(query, values)| {
                let filtered: Vec<Option<f64>> = values
                    .into_iter()
                    .map(|v| v.filter(|x| x.is_finite()))
                    .collect();
                (query.feature_name(), filtered)
            })
            .collect())
    }

    /// Attach every planned feature to a copy of `table` — the offline
    /// transform. Works on any table carrying the plan's key columns: the
    /// training table reproduces [`FeatAug::augment`]'s output bit for bit,
    /// a test split or a fresh serving table gets the same features for its
    /// own keys (NULL where a key never appeared, or its group was filtered
    /// away). Returns the augmented table and the attached column names
    /// (planned columns whose name already exists in `table` are skipped,
    /// like the historical path).
    pub fn transform_named(&self, table: &Table) -> EngineResult<(Table, Vec<String>)> {
        let mut augmented = table.clone();
        let mut names = Vec::new();
        for (name, values) in self.transform_features(table)? {
            if augmented
                .add_column(name.clone(), Column::from_opt_f64s(&values))
                .is_ok()
            {
                names.push(name);
            }
        }
        Ok((augmented, names))
    }

    /// [`AugModel::transform_named`], returning just the augmented table.
    pub fn transform(&self, table: &Table) -> EngineResult<Table> {
        self.transform_named(table).map(|(table, _)| table)
    }

    /// Answer one online request: the planned features of a single key, in
    /// plan order ([`AugModel::feature_names`] names the slots). `key` holds
    /// one [`Value`] per plan key column (the full foreign key `K`); each
    /// query reads the subset it groups by. `None` marks the same rows a
    /// transform would leave NULL — unseen, filtered-away, NULL or
    /// type-mismatched keys, and non-finite aggregates.
    ///
    /// Lookups read the cached per-group features (two hash probes after a
    /// query's first use), so a warm model answers point requests without
    /// touching the relevant table. One engine epoch is pinned for the whole
    /// request, so every slot answers against the same ingestion snapshot.
    pub fn serve(&self, key: &[Value]) -> EngineResult<Vec<Option<f64>>> {
        if key.len() != self.plan.key_columns.len() {
            return Err(feataug_tabular::TabularError::InvalidArgument(format!(
                "serve key has {} values for {} key columns",
                key.len(),
                self.plan.key_columns.len()
            ))
            .into());
        }
        let core = self.engine.core();
        self.plan
            .queries
            .iter()
            .map(|planned| {
                let mut subset = Vec::with_capacity(planned.query.group_keys.len());
                for group_key in &planned.query.group_keys {
                    let position = self
                        .plan
                        .key_columns
                        .iter()
                        .position(|k| k == group_key)
                        .ok_or_else(|| {
                            feataug_tabular::TabularError::InvalidArgument(format!(
                                "planned query groups by `{group_key}`, which is not a plan \
                                 key column"
                            ))
                        })?;
                    subset.push(key[position].clone());
                }
                self.engine
                    .lookup_pinned(&core, &planned.query, &subset)
                    .map(|v| v.filter(|x| x.is_finite()))
            })
            .collect()
    }

    /// Consume the model into the one-shot [`FeatAugResult`] shape
    /// (`augmented` should be the fitted training table's transform).
    fn into_result(self, augmented_train: Table, feature_names: Vec<String>) -> FeatAugResult {
        let engine_stats = self.engine.stats();
        FeatAugResult {
            augmented_train,
            queries: self.queries,
            templates: self.templates,
            feature_names,
            timing: self.timing,
            engine_stats,
            plan: self.plan,
        }
    }
}

/// The FeatAug system.
#[derive(Debug, Clone)]
pub struct FeatAug {
    cfg: FeatAugConfig,
}

impl FeatAug {
    /// Build the system with a configuration.
    pub fn new(cfg: FeatAugConfig) -> Self {
        FeatAug { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FeatAugConfig {
        &self.cfg
    }

    /// Run the discovery half of the pipeline (QTI + SQL Query Generation)
    /// and return a fitted [`AugModel`]: the selected queries as a portable
    /// [`AugPlan`] plus the compiled engine that applies them to any table.
    /// The task is validated up front — a malformed task (missing label,
    /// mismatched keys, ghost attributes) fails fast with an
    /// [`AugTaskError`] instead of panicking mid-search.
    ///
    /// The engine co-owns the task's tables (an `Arc` bump each — the task
    /// itself holds them in `Arc`s), so the returned model is already the
    /// `Send + Sync + 'static` [`OwnedAugModel`] shape with no table clone
    /// anywhere on the path.
    pub fn fit(&self, task: &AugTask) -> Result<OwnedAugModel, AugTaskError> {
        self.fit_with_workers(task, default_workers())
    }

    /// [`FeatAug::fit`], searching the templates on up to `workers` threads.
    /// The result does not depend on `workers`: every template's search is
    /// independent, the evaluator's loss memo is exact, and the searches are
    /// merged in template order.
    pub(crate) fn fit_with_workers(
        &self,
        task: &AugTask,
        workers: usize,
    ) -> Result<OwnedAugModel, AugTaskError> {
        task.validate()?;
        let evaluator = FeatureEvaluator::new(task, self.cfg.model, self.cfg.seed);
        let mut timing = PipelineTiming::default();

        // One execution engine per run: QTI compiles group indexes / views
        // while scoring beam nodes, and the generator's search loops reuse
        // them through the cloned handle below. The handles share the task's
        // `Arc<Table>`s — no copy, and the model outlives the task borrow.
        let engine = QueryEngine::with_handles(
            TableHandle::Shared(task.train.clone()),
            TableHandle::Shared(task.relevant.clone()),
        );

        // ---- Query Template Identification ------------------------------------------------
        let templates: Vec<ScoredTemplate> = if self.cfg.enable_qti {
            let mut ti_cfg = self.cfg.template_id.clone();
            ti_cfg.n_templates = self.cfg.n_templates;
            ti_cfg.proxy = self.cfg.proxy;
            let identifier = TemplateIdentifier::with_engine(
                task,
                &evaluator,
                self.cfg.agg_funcs.clone(),
                ti_cfg,
                engine.clone(),
            );
            let (templates, qti_time, _) = identifier.identify();
            timing.qti = qti_time;
            templates
        } else {
            // NoQTI: a single template whose WHERE combination is the full user-provided
            // attribute set.
            vec![ScoredTemplate {
                template: QueryTemplate::new(
                    self.cfg.agg_funcs.clone(),
                    task.resolved_agg_columns(),
                    task.resolved_predicate_attrs(),
                    task.key_columns.clone(),
                ),
                effectiveness: f64::NAN,
            }]
        };

        // ---- SQL Query Generation in each template's pool ---------------------------------
        let mut sql_cfg = self.cfg.sqlgen.clone();
        sql_cfg.enable_warmup = self.cfg.enable_warmup;
        sql_cfg.proxy = self.cfg.proxy;
        let generator = QueryGenerator::with_engine(task, &evaluator, sql_cfg, engine.clone());

        let per_template = per_template_budget(
            self.cfg.enable_qti,
            self.cfg.n_templates,
            self.cfg.queries_per_template,
        );

        // The templates' searches are independent, so they run concurrently.
        // A search that panics fails the fit: its queries are never dropped.
        let searches = fan_out(
            &templates,
            workers,
            "pipeline.generate",
            || (),
            |_, scored| Ok(generator.generate(&scored.template, per_template)),
        );

        // Cross-template dedup by feature name, in template order: templates
        // overlap (a deeper template's pool contains the shallower one's
        // queries), and a repeat feature would silently fail to attach.
        // Membership is a `HashSet` probe — the historical
        // `queries.iter().any(...)` scan was O(n²) across the whole selection.
        let mut queries: Vec<GeneratedQuery> = Vec::new();
        let mut seen_names: HashSet<String> = HashSet::new();
        for search in searches {
            let (generated, gen_timing) =
                search.unwrap_or_else(|e| panic!("FeatAug::fit: template search failed: {e}"));
            timing.warmup += gen_timing.warmup;
            timing.generate += gen_timing.generate;
            for g in generated {
                if seen_names.insert(g.feature_name.clone()) {
                    queries.push(g);
                }
            }
        }
        timing.trainings = evaluator.trainings();
        timing.memo_hits = evaluator.memo_hits();

        let plan = AugPlan::new(
            task.relevant.name(),
            task.key_columns.clone(),
            queries
                .iter()
                .map(|g| PlannedQuery {
                    query: g.query.clone(),
                    loss: g.loss,
                })
                .collect(),
        );

        Ok(AugModel {
            plan,
            engine,
            templates,
            queries,
            timing,
        })
    }

    /// Run the full historical one-shot pipeline: [`FeatAug::fit`] followed
    /// by [`AugModel::transform`] on the training table. Bit-identical to the
    /// pre-split terminal `augment` (property-tested); panics on a malformed
    /// task — call `fit` directly to handle [`AugTaskError`] gracefully.
    pub fn augment(&self, task: &AugTask) -> FeatAugResult {
        let model = self
            .fit(task)
            .unwrap_or_else(|e| panic!("FeatAug::augment: invalid task: {e}"));
        let (augmented_train, feature_names) = model
            .transform_named(&task.train)
            .expect("transforming the fitted training table");
        model.into_result(augmented_train, feature_names)
    }
}

/// The feature budget each searched template's pool yields.
///
/// The NoQTI ablation runs a single template whose pool must yield the whole
/// `n_templates * queries_per_template` budget to stay comparable with the
/// full system. The inflation is keyed off the ablation flag itself — NOT off
/// the number of templates found — because QTI legitimately returns a single
/// promising template on small attribute sets, and inflating *that* run's
/// budget would silently hand it `n_templates`× the features of an
/// equally-configured multi-template run.
fn per_template_budget(enable_qti: bool, n_templates: usize, queries_per_template: usize) -> usize {
    if enable_qti {
        queries_per_template
    } else {
        n_templates * queries_per_template
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluation::evaluate_table;
    use feataug_datagen::{instacart, tmall, GenConfig};
    use feataug_ml::Task;
    use feataug_tabular::join::left_join_expand;

    fn tmall_task() -> AugTask {
        let ds = tmall::generate(&GenConfig {
            n_entities: 450,
            fanout: 8,
            n_noise_cols: 1,
            seed: 9,
        });
        AugTask::new(
            ds.train,
            ds.relevant,
            ds.key_columns,
            ds.label_column,
            Task::BinaryClassification,
        )
        .with_agg_columns(ds.agg_columns)
        .with_predicate_attrs(ds.predicate_attrs)
    }

    fn tiny_cfg(model: ModelKind) -> FeatAugConfig {
        let mut cfg = FeatAugConfig::fast(model);
        cfg.n_templates = 3;
        cfg.queries_per_template = 2;
        cfg.template_id.n_templates = 3;
        cfg.template_id.pool_samples = 12;
        cfg.sqlgen.warmup_iters = 20;
        cfg.sqlgen.warmup_top_k = 5;
        cfg.sqlgen.search_iters = 8;
        cfg
    }

    #[test]
    fn full_pipeline_attaches_features_and_improves_over_base() {
        let task = tmall_task();
        let result = FeatAug::new(tiny_cfg(ModelKind::Linear)).augment(&task);
        assert!(!result.feature_names.is_empty());
        assert_eq!(
            result.augmented_train.num_columns(),
            task.train.num_columns() + result.feature_names.len()
        );
        assert_eq!(result.augmented_train.num_rows(), task.train.num_rows());
        assert!(result.timing.total() > Duration::from_nanos(0));

        // The base features (age, gender) carry almost no signal, so the base AUC hovers near
        // chance; the planted predicate-aware feature should lift the augmented table clearly
        // above it.
        let base = evaluate_table(
            &task.train,
            "label",
            &task.key_columns,
            task.task,
            ModelKind::Linear,
            5,
        );
        let aug = evaluate_table(
            &result.augmented_train,
            "label",
            &task.key_columns,
            task.task,
            ModelKind::Linear,
            5,
        );
        assert!(
            aug.value > 0.55 && aug.value > base.value,
            "augmentation should clearly beat the near-chance base: base {} vs aug {}",
            base.value,
            aug.value
        );
    }

    /// Regression: the budget inflation must key off the NoQTI ablation flag, not off how many
    /// templates were found — QTI legitimately identifying a single promising template must NOT
    /// silently balloon the feature budget `n_templates`×.
    #[test]
    fn budget_inflation_keys_off_qti_flag_not_template_count() {
        // QTI enabled: per-template budget stays fixed even when only one template survives.
        assert_eq!(per_template_budget(true, 8, 5), 5);
        assert_eq!(per_template_budget(true, 8, 1), 1);
        // NoQTI ablation: the single full template's pool yields the whole budget.
        assert_eq!(per_template_budget(false, 8, 5), 40);
        assert_eq!(per_template_budget(false, 4, 3), 12);
    }

    /// Regression (behavioural): a QTI run that identifies exactly one template must attach at
    /// most `queries_per_template` features from it, not the inflated NoQTI budget.
    #[test]
    fn single_identified_template_keeps_per_template_budget() {
        let task = tmall_task();
        let mut cfg = tiny_cfg(ModelKind::Linear);
        // Force QTI to return exactly one template.
        cfg.n_templates = 1;
        cfg.template_id.n_templates = 1;
        cfg.queries_per_template = 2;
        let result = FeatAug::new(cfg).augment(&task);
        assert_eq!(result.templates.len(), 1);
        assert!(
            result.queries.len() <= 2,
            "QTI run with one template must keep the per-template budget, got {} queries",
            result.queries.len()
        );
    }

    #[test]
    fn one_engine_serves_qti_and_generation() {
        let task = tmall_task();
        let result = FeatAug::new(tiny_cfg(ModelKind::Linear)).augment(&task);
        let stats = result.engine_stats;
        // Beam search alone evaluates pool_samples per node; generation adds its warm-up and
        // search iterations on top. A per-component engine would reset these counters.
        assert!(
            stats.evaluations > 0 && stats.group_indexes >= 1 && stats.column_views >= 1,
            "shared engine saw no work: {stats:?}"
        );
        let qti_only_evals = 12; // pool_samples per node, at least one node
        assert!(
            stats.evaluations > qti_only_evals,
            "generation must evaluate through the same engine as QTI ({stats:?})"
        );
    }

    #[test]
    fn ablation_flags_change_behaviour() {
        let task = tmall_task();
        let full = FeatAug::new(tiny_cfg(ModelKind::Linear)).augment(&task);
        assert!(full.timing.qti > Duration::from_nanos(0));
        assert!(full.timing.warmup > Duration::from_nanos(0));

        let no_qti = FeatAug::new(tiny_cfg(ModelKind::Linear).with_qti(false)).augment(&task);
        assert_eq!(no_qti.timing.qti, Duration::from_nanos(0));
        assert_eq!(no_qti.templates.len(), 1);

        let no_wu = FeatAug::new(tiny_cfg(ModelKind::Linear).with_warmup(false)).augment(&task);
        assert_eq!(no_wu.timing.warmup, Duration::from_nanos(0));
        assert!(!no_wu.feature_names.is_empty());
    }

    /// The seed materialisation: what the historical terminal `augment` did
    /// with the search-time feature vectors. The transform path must
    /// reproduce it bit for bit.
    fn seed_materialise(task: &AugTask, queries: &[GeneratedQuery]) -> (Table, Vec<String>) {
        let mut augmented = (*task.train).clone();
        let mut feature_names = Vec::new();
        for q in queries {
            let values: Vec<Option<f64>> = q
                .feature
                .iter()
                .map(|v| if v.is_finite() { Some(*v) } else { None })
                .collect();
            if augmented
                .add_column(q.feature_name.clone(), Column::from_opt_f64s(&values))
                .is_ok()
            {
                feature_names.push(q.feature_name.clone());
            }
        }
        (augmented, feature_names)
    }

    fn assert_tables_bit_identical(a: &Table, b: &Table) {
        assert_eq!(a.num_rows(), b.num_rows());
        assert_eq!(a.column_names(), b.column_names());
        for name in a.column_names() {
            for row in 0..a.num_rows() {
                let va = a.value(row, name).unwrap();
                let vb = b.value(row, name).unwrap();
                let same = match (&va, &vb) {
                    (feataug_tabular::Value::Float(x), feataug_tabular::Value::Float(y)) => {
                        x.to_bits() == y.to_bits()
                    }
                    _ => va == vb,
                };
                assert!(same, "column {name} row {row}: {va:?} vs {vb:?}");
            }
        }
    }

    #[test]
    fn fit_transform_matches_seed_augment_materialisation() {
        let task = tmall_task();
        let model = FeatAug::new(tiny_cfg(ModelKind::Linear))
            .fit(&task)
            .unwrap();
        let (seed_table, seed_names) = seed_materialise(&task, model.queries());
        let (transformed, names) = model.transform_named(&task.train).unwrap();
        assert_eq!(names, seed_names);
        assert_tables_bit_identical(&transformed, &seed_table);

        // And the one-shot wrapper is exactly fit + transform(train).
        let via_augment = FeatAug::new(tiny_cfg(ModelKind::Linear)).augment(&task);
        assert_eq!(via_augment.feature_names, seed_names);
        assert_tables_bit_identical(&via_augment.augmented_train, &seed_table);
    }

    /// The two-hop `orders ⋈ order_items ⋈ products` view of the instacart schema, the
    /// only view carrying both signal attributes.
    fn instacart_view_task() -> AugTask {
        let ds = instacart::generate_schema(&GenConfig::tiny());
        let table = |name: &str| ds.table(name).expect("generated schema table");
        let one_hop = left_join_expand(
            table("orders"),
            table("order_items"),
            &["order_id"],
            &["order_id"],
        )
        .unwrap();
        let view = left_join_expand(
            &one_hop,
            table("products"),
            &["product_id"],
            &["product_id"],
        )
        .unwrap();
        AugTask::new(
            ds.train.clone(),
            view,
            ds.key_columns.clone(),
            ds.label_column.clone(),
            Task::BinaryClassification,
        )
        .with_agg_columns(vec!["price".into(), "cart_position".into()])
        .with_predicate_attrs(vec!["department".into(), "order_hour".into()])
    }

    /// Templates are searched concurrently, yet the fit does not depend on the worker count:
    /// plan text, loss bits, templates, training counts and `transform(train)` are identical
    /// at 1, 2 and 4 workers.
    #[test]
    fn fit_is_identical_at_any_template_worker_count() {
        for (task, model) in [
            (tmall_task(), ModelKind::Linear),
            (instacart_view_task(), ModelKind::GradientBoosting),
        ] {
            let feataug = FeatAug::new(tiny_cfg(model));
            let fits: Vec<OwnedAugModel> = [1, 2, 4]
                .into_iter()
                .map(|workers| feataug.fit_with_workers(&task, workers).unwrap())
                .collect();
            let losses = |m: &OwnedAugModel| -> Vec<(String, u64)> {
                m.queries()
                    .iter()
                    .map(|g| (g.feature_name.clone(), g.loss.to_bits()))
                    .collect()
            };
            let templates = |m: &OwnedAugModel| -> Vec<(QueryTemplate, u64)> {
                m.templates()
                    .iter()
                    .map(|t| (t.template.clone(), t.effectiveness.to_bits()))
                    .collect()
            };
            let serial = &fits[0];
            assert!(serial.templates().len() > 1, "{model:?}: one template");
            assert!(!serial.queries().is_empty(), "{model:?}: no queries");
            assert!(serial.timing().memo_hits > 0, "{model:?}: no repeat");
            let serial_train = serial.transform(&task.train).unwrap();
            for parallel in &fits[1..] {
                assert_eq!(
                    parallel.plan().to_plan_text(),
                    serial.plan().to_plan_text(),
                    "{model:?}"
                );
                assert_eq!(losses(parallel), losses(serial), "{model:?}");
                assert_eq!(templates(parallel), templates(serial), "{model:?}");
                assert_eq!(parallel.timing().trainings, serial.timing().trainings);
                assert_eq!(parallel.timing().memo_hits, serial.timing().memo_hits);
                assert_tables_bit_identical(
                    &parallel.transform(&task.train).unwrap(),
                    &serial_train,
                );
            }
        }
    }

    #[test]
    fn transform_on_a_second_table_reuses_cached_aggregations() {
        let task = tmall_task();
        let model = FeatAug::new(tiny_cfg(ModelKind::Linear))
            .fit(&task)
            .unwrap();
        let first = model.transform(&task.train).unwrap();
        let stats_after_first = model.engine_stats();

        // A "test split": the second half of the training table's rows.
        let n = task.train.num_rows();
        let split: Vec<usize> = (n / 2..n).collect();
        let held_out = task.train.take(&split);
        let second = model.transform(&held_out).unwrap();
        assert_eq!(second.num_rows(), held_out.num_rows());
        assert_eq!(second.num_columns(), first.num_columns());
        assert_eq!(
            model.engine_stats(),
            stats_after_first,
            "the second transform must run no new evaluations"
        );
        // Row-for-row, the held-out rows carry the same feature values they
        // had inside the full-table transform (same keys -> same groups).
        for name in model.feature_names() {
            for (i, &src) in split.iter().enumerate() {
                let a = first.value(src, &name).unwrap();
                let b = second.value(i, &name).unwrap();
                assert_eq!(a, b, "feature {name}: row {src} vs held-out row {i}");
            }
        }
    }

    #[test]
    fn serve_answers_single_keys_like_transform_rows() {
        let task = tmall_task();
        let model = FeatAug::new(tiny_cfg(ModelKind::Linear))
            .fit(&task)
            .unwrap();
        let transformed = model.transform(&task.train).unwrap();
        let names = model.feature_names();
        for row in [0usize, 7, 31] {
            let key: Vec<feataug_tabular::Value> = task
                .key_columns
                .iter()
                .map(|k| task.train.value(row, k).unwrap())
                .collect();
            let served = model.serve(&key).unwrap();
            assert_eq!(served.len(), names.len());
            for (name, value) in names.iter().zip(&served) {
                let expected = match transformed.value(row, name).unwrap() {
                    feataug_tabular::Value::Float(f) => Some(f),
                    feataug_tabular::Value::Null => None,
                    other => panic!("feature column held {other:?}"),
                };
                assert_eq!(
                    value.map(f64::to_bits),
                    expected.map(f64::to_bits),
                    "serve({key:?})[{name}] disagrees with transform row {row}"
                );
            }
        }
        // Arity mismatch errors; an unseen key serves all-NULL.
        assert!(model.serve(&[]).is_err());
        let unseen: Vec<feataug_tabular::Value> = task
            .key_columns
            .iter()
            .map(|_| feataug_tabular::Value::Str("no_such_key".into()))
            .collect();
        assert!(model.serve(&unseen).unwrap().iter().all(|v| v.is_none()));
    }

    #[test]
    fn fit_validates_the_task_up_front() {
        let mut task = tmall_task();
        task.label_column = "ghost".into();
        let err = FeatAug::new(tiny_cfg(ModelKind::Linear))
            .fit(&task)
            .unwrap_err();
        assert!(matches!(
            err,
            crate::problem::AugTaskError::MissingLabelColumn { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "invalid task")]
    fn augment_panics_with_a_description_on_invalid_tasks() {
        let mut task = tmall_task();
        task.key_columns = vec![];
        FeatAug::new(tiny_cfg(ModelKind::Linear)).augment(&task);
    }

    #[test]
    fn plan_round_trips_and_recompiles_into_an_equivalent_model() {
        let task = tmall_task();
        let model = FeatAug::new(tiny_cfg(ModelKind::Linear))
            .fit(&task)
            .unwrap();
        let text = model.plan().to_plan_text();
        let plan = crate::query::AugPlan::from_plan_text(&text).unwrap();
        assert_eq!(&plan, model.plan());

        let compiled = AugModel::compile(plan, &task.train, &task.relevant).expect("plan compiles");
        assert!(compiled.templates().is_empty() && compiled.queries().is_empty());
        let (a, names_a) = model.transform_named(&task.train).unwrap();
        let (b, names_b) = compiled.transform_named(&task.train).unwrap();
        assert_eq!(names_a, names_b);
        assert_tables_bit_identical(&a, &b);
    }

    #[test]
    fn config_builders_propagate() {
        let cfg = FeatAugConfig::fast(ModelKind::RandomForest)
            .with_seed(7)
            .with_proxy(LowCostProxy::Spearman)
            .with_n_templates(3);
        assert_eq!(cfg.sqlgen.seed, 7);
        assert_eq!(cfg.template_id.seed, 7);
        assert_eq!(cfg.sqlgen.proxy, LowCostProxy::Spearman);
        assert_eq!(cfg.template_id.n_templates, 3);
    }
}
