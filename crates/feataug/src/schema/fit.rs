//! Budgeted path exploration and the schema-level fit API.
//!
//! `fit_schema` is the FeatNavigator / ARDA shape over this repo's
//! machinery: **enumerate** every walkable [`JoinPath`] up to
//! [`SchemaTask::max_hops`], **score** each path with one or two cheap
//! probe queries through the existing proxy evaluator
//! ([`crate::proxy::LowCostProxy`], the same estimator the warm-start
//! stage uses), and **promote** only the top [`SchemaTask::path_budget`]
//! paths to a full TPE search ([`crate::pipeline::FeatAug::fit`]). The
//! proxy pass touches each candidate view once — strictly cheaper than
//! running the full search on every enumerated path, which is the point:
//! path count grows combinatorially with schema size, full searches do not.
//!
//! **One worker queue.** Every promoted path's template searches share one
//! worker queue (see [`fit_schema`]), so a path with one template does not
//! leave the other workers idle, and the fit is the same at any worker count.
//!
//! **Degenerate depth-1 case.** With `max_hops = 0` and a budget covering
//! every candidate, `fit_schema` *is* [`crate::multi::fit_multi`]: the
//! candidate views are the registered base tables themselves (zero-copy
//! `Arc`s), every path is promoted, and each promoted fit is the ordinary
//! single-relevant-table pipeline. The schema API strictly generalizes the
//! multi API.

use std::sync::Arc;

use feataug_ml::Task;
use feataug_tabular::{AggFunc, Predicate, Table};

use crate::exec::{default_workers, EngineResult, QueryEngine};
use crate::pipeline::{FeatAug, FeatAugConfig, OwnedAugModel};
use crate::problem::AugTask;
use crate::query::{AugPlan, PredicateQuery};

use super::compile::materialize_path;
use super::graph::{SchemaError, SchemaGraph};
use super::path::{enumerate_paths, JoinPath};

/// A schema-level augmentation task: which graph to search, where the
/// labels live, and how much path exploration to pay for.
#[derive(Debug, Clone)]
pub struct SchemaTask {
    /// The registered tables and edges to search.
    pub graph: SchemaGraph,
    /// Name of the registered training table.
    pub train: String,
    /// Label column on the training table.
    pub label_column: String,
    /// Prediction task kind.
    pub task: Task,
    /// Maximum intermediate hops past the base table (0 = depth-1 only,
    /// the [`crate::multi::fit_multi`] degenerate case).
    pub max_hops: usize,
    /// How many top-proxy-scored paths get a full TPE search.
    pub path_budget: usize,
    /// Aggregation columns per promoted fit, filtered to each view's
    /// actual columns (empty: the task default — numeric non-keys).
    pub agg_columns: Vec<String>,
    /// Predicate attributes per promoted fit, filtered like `agg_columns`
    /// (empty: the task default — all non-keys).
    pub predicate_attrs: Vec<String>,
}

impl SchemaTask {
    /// A task with the defaults: up to 2 hops, 2 promoted paths.
    pub fn new(
        graph: SchemaGraph,
        train: impl Into<String>,
        label_column: impl Into<String>,
        task: Task,
    ) -> Self {
        SchemaTask {
            graph,
            train: train.into(),
            label_column: label_column.into(),
            task,
            max_hops: 2,
            path_budget: 2,
            agg_columns: Vec::new(),
            predicate_attrs: Vec::new(),
        }
    }

    /// Builder-style setter for [`SchemaTask::max_hops`].
    pub fn with_max_hops(mut self, max_hops: usize) -> Self {
        self.max_hops = max_hops;
        self
    }

    /// Builder-style setter for [`SchemaTask::path_budget`].
    pub fn with_path_budget(mut self, budget: usize) -> Self {
        self.path_budget = budget;
        self
    }

    /// Builder-style setter for [`SchemaTask::agg_columns`].
    pub fn with_agg_columns(mut self, cols: Vec<String>) -> Self {
        self.agg_columns = cols;
        self
    }

    /// Builder-style setter for [`SchemaTask::predicate_attrs`].
    pub fn with_predicate_attrs(mut self, attrs: Vec<String>) -> Self {
        self.predicate_attrs = attrs;
        self
    }
}

/// One explored candidate path: its proxy score and whether it made the
/// promotion budget.
#[derive(Debug, Clone)]
pub struct PathScore {
    /// The candidate path.
    pub path: JoinPath,
    /// Best proxy score over the path's probe queries (higher is better).
    pub score: f64,
    /// Whether the path was promoted to a full search.
    pub promoted: bool,
}

/// What the exploration did — the budget accounting the bench suite and
/// the acceptance criteria read.
#[derive(Debug, Clone)]
pub struct ExplorationStats {
    /// Paths enumerated (= candidate views proxy-scored).
    pub candidates: usize,
    /// Paths promoted to a full TPE search (≤ `candidates`).
    pub promoted: usize,
    /// Per-path scores, in promotion rank order.
    pub scores: Vec<PathScore>,
}

/// The fitted result of [`fit_schema`]: one serving model per promoted
/// path, plus the exploration accounting.
#[derive(Debug)]
pub struct SchemaAugModel {
    models: Vec<OwnedAugModel>,
    paths: Vec<JoinPath>,
    stats: ExplorationStats,
}

impl SchemaAugModel {
    /// The fitted models, in promotion rank order (best proxy score first).
    pub fn models(&self) -> &[OwnedAugModel] {
        &self.models
    }

    /// The promoted paths, aligned with [`SchemaAugModel::models`].
    pub fn paths(&self) -> &[JoinPath] {
        &self.paths
    }

    /// The exploration accounting.
    pub fn stats(&self) -> &ExplorationStats {
        &self.stats
    }

    /// Portable plans, one per promoted path, each carrying its hop route
    /// so [`SchemaGraph::compile`] can rebuild the serving model from a
    /// registered schema after a text round trip.
    pub fn plans(&self) -> Vec<AugPlan> {
        self.models
            .iter()
            .zip(&self.paths)
            .map(|(model, path)| {
                AugPlan::new(
                    path.base.clone(),
                    model.plan().key_columns.clone(),
                    model.plan().queries.clone(),
                )
                .with_hops(path.hops.clone())
            })
            .collect()
    }

    /// Union-augment a table with every promoted model's features (name
    /// collisions keep the first copy, exactly like
    /// [`crate::multi::MultiAugModel::transform`]).
    pub fn transform(&self, table: &Table) -> EngineResult<Table> {
        crate::multi::transform_union(&self.models, table)
    }
}

/// Fit a schema task: enumerate paths, proxy-score every candidate view,
/// promote the top [`SchemaTask::path_budget`] to full searches.
///
/// The promoted paths' template searches share one worker queue at
/// [`default_workers`]: each path is prepared in rank order (validated, its
/// templates identified), then every (path, template) search runs on the
/// queue, and each path's results merge in template order. Every path keeps
/// its own evaluator, loss memo and engine, so the model does not depend on
/// the worker count, and `FEATAUG_THREADS=1` runs the searches one after
/// another.
pub fn fit_schema(cfg: &FeatAugConfig, task: &SchemaTask) -> Result<SchemaAugModel, SchemaError> {
    fit_schema_with_workers(cfg, task, default_workers())
}

/// [`fit_schema`], running the promoted paths' searches on up to `workers`
/// threads.
pub(crate) fn fit_schema_with_workers(
    cfg: &FeatAugConfig,
    task: &SchemaTask,
    workers: usize,
) -> Result<SchemaAugModel, SchemaError> {
    let train = task.graph.table(&task.train)?.clone();
    let labels: Vec<f64> = train
        .column(&task.label_column)
        .map_err(|_| SchemaError::UnknownColumn {
            table: task.train.clone(),
            column: task.label_column.clone(),
        })?
        .to_f64_vec()
        .into_iter()
        .map(|v| v.unwrap_or(f64::NAN))
        .collect();

    let paths = enumerate_paths(&task.graph, &task.train, task.max_hops)?;
    if paths.is_empty() {
        return Err(SchemaError::NoPaths {
            train: task.train.clone(),
        });
    }

    // Proxy pass: one cheap engine per candidate view, one or two probe
    // features, best proxy score wins. Enumeration index breaks ties, so
    // the ranking is deterministic.
    let mut scored: Vec<(usize, JoinPath, Arc<Table>, f64)> = Vec::with_capacity(paths.len());
    for (index, path) in paths.into_iter().enumerate() {
        let view = materialize_path(&task.graph, &path)?;
        let score = proxy_score(cfg, task.task, &train, &view, &path.base_keys, &labels)?;
        scored.push((index, path, view, score));
    }
    scored.sort_by(|a, b| b.3.total_cmp(&a.3).then(a.0.cmp(&b.0)));

    let budget = task.path_budget.max(1).min(scored.len());
    let mut aug_tasks = Vec::with_capacity(budget);
    let mut promoted_paths = Vec::with_capacity(budget);
    let mut scores = Vec::with_capacity(scored.len());
    for (rank, (_, path, view, score)) in scored.into_iter().enumerate() {
        let promoted = rank < budget;
        scores.push(PathScore {
            path: path.clone(),
            score,
            promoted,
        });
        if !promoted {
            continue;
        }
        aug_tasks.push(
            AugTask::new(
                train.clone(),
                view.clone(),
                path.base_keys.clone(),
                task.label_column.clone(),
                task.task,
            )
            .with_agg_columns(present_in(&task.agg_columns, &view))
            .with_predicate_attrs(present_in(&task.predicate_attrs, &view)),
        );
        promoted_paths.push(path);
    }
    let models = FeatAug::new(cfg.clone()).fit_all(&aug_tasks, workers)?;

    let stats = ExplorationStats {
        candidates: scores.len(),
        promoted: models.len(),
        scores,
    };
    Ok(SchemaAugModel {
        models,
        paths: promoted_paths,
        stats,
    })
}

/// The configured columns that exist on this view (a path's view does not
/// necessarily carry every configured column — hop renames drop some).
fn present_in(cols: &[String], view: &Table) -> Vec<String> {
    cols.iter()
        .filter(|c| view.column(c).is_ok())
        .cloned()
        .collect()
}

/// Proxy-score one candidate view: group-size plus (when a numeric payload
/// exists) mean-payload probe features, scored by the configured
/// [`crate::proxy::LowCostProxy`] against the training labels. Returns the
/// best probe's score; `-inf` only when no probe is possible (never the
/// case for a walkable path — `base_keys` is non-empty by construction).
fn proxy_score(
    cfg: &FeatAugConfig,
    task: Task,
    train: &Arc<Table>,
    view: &Arc<Table>,
    base_keys: &[String],
    labels: &[f64],
) -> Result<f64, SchemaError> {
    let engine = QueryEngine::new_shared(train.clone(), view.clone());
    let mut best = f64::NEG_INFINITY;
    for query in probe_queries(view, base_keys) {
        let (_, feature) = engine.feature(&query)?;
        let score = cfg.proxy.score(&feature, labels, task);
        if score > best {
            best = score;
        }
    }
    Ok(best)
}

/// The probe queries for a view: COUNT over the key (always meaningful) and
/// AVG of the first numeric non-key payload column (when one exists).
fn probe_queries(view: &Table, base_keys: &[String]) -> Vec<PredicateQuery> {
    let mut probes = Vec::with_capacity(2);
    let Some(first_key) = base_keys.first() else {
        return probes;
    };
    probes.push(PredicateQuery {
        agg: AggFunc::Count,
        agg_column: first_key.clone(),
        predicate: Predicate::True,
        group_keys: base_keys.to_vec(),
    });
    let payload = view
        .schema()
        .fields()
        .iter()
        .find(|f| f.dtype.is_numeric_like() && !base_keys.contains(&f.name));
    if let Some(field) = payload {
        probes.push(PredicateQuery {
            agg: AggFunc::Avg,
            agg_column: field.name.clone(),
            predicate: Predicate::True,
            group_keys: base_keys.to_vec(),
        });
    }
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use feataug_ml::ModelKind;
    use feataug_tabular::Column;

    fn cat(values: &[&str]) -> Column {
        Column::from_strs(values)
    }

    fn ints(values: &[i64]) -> Column {
        Column::Int(values.iter().map(|v| Some(*v)).collect())
    }

    fn table(name: &str, cols: Vec<(&str, Column)>) -> Table {
        let mut t = Table::new(name);
        for (cname, col) in cols {
            t.add_column(cname, col).unwrap();
        }
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

    /// users(uid,label) —uid→ orders(uid,oid,amount) —oid→ items(oid,qty).
    fn graph(n: usize) -> SchemaGraph {
        let uids: Vec<String> = (0..n).map(|i| format!("u{i}")).collect();
        let users = table(
            "users",
            vec![
                (
                    "uid",
                    cat(&uids.iter().map(|s| s.as_str()).collect::<Vec<_>>()),
                ),
                (
                    "label",
                    ints(&(0..n as i64).map(|i| i % 2).collect::<Vec<_>>()),
                ),
            ],
        );
        let ouids: Vec<&str> = uids
            .iter()
            .map(|s| s.as_str())
            .cycle()
            .take(2 * n)
            .collect();
        let orders = table(
            "orders",
            vec![
                ("uid", cat(&ouids)),
                ("oid", ints(&(0..2 * n as i64).collect::<Vec<_>>())),
                (
                    "amount",
                    ints(&(0..2 * n as i64).map(|i| i * 3 % 17).collect::<Vec<_>>()),
                ),
            ],
        );
        let items = table(
            "items",
            vec![
                ("oid", ints(&(0..2 * n as i64).collect::<Vec<_>>())),
                (
                    "qty",
                    ints(&(0..2 * n as i64).map(|i| i % 5).collect::<Vec<_>>()),
                ),
            ],
        );
        let mut g = SchemaGraph::new()
            .with_table(users)
            .unwrap()
            .with_table(orders)
            .unwrap()
            .with_table(items)
            .unwrap();
        g.declare_edge("users", "orders", &["uid"], &["uid"])
            .unwrap();
        g.declare_edge("orders", "items", &["oid"], &["oid"])
            .unwrap();
        g
    }

    #[test]
    fn budget_promotes_strictly_fewer_paths_than_enumerated() {
        let task = SchemaTask::new(graph(12), "users", "label", Task::BinaryClassification)
            .with_max_hops(1)
            .with_path_budget(1);
        let model = fit_schema(&small_cfg(), &task).unwrap();
        let stats = model.stats();
        assert_eq!(stats.candidates, 2); // orders, orders ⋈ items
        assert_eq!(stats.promoted, 1);
        assert!(stats.promoted < stats.candidates);
        assert_eq!(model.models().len(), 1);
        assert_eq!(model.paths().len(), 1);
        // Scores are in rank order and flag promotion correctly.
        assert!(stats.scores[0].promoted && !stats.scores[1].promoted);
        assert!(stats.scores[0].score >= stats.scores[1].score);
    }

    #[test]
    fn plans_round_trip_and_recompile_to_matching_transforms() {
        let task = SchemaTask::new(graph(10), "users", "label", Task::BinaryClassification)
            .with_max_hops(1)
            .with_path_budget(2);
        let fitted = fit_schema(&small_cfg(), &task).unwrap();
        let users = task.graph.table("users").unwrap().clone();
        for (model, plan) in fitted.models().iter().zip(fitted.plans()) {
            let text = plan.to_plan_text();
            let parsed = AugPlan::from_plan_text(&text).unwrap();
            assert_eq!(parsed, plan);
            let recompiled = task.graph.compile("users", parsed).unwrap();
            assert_eq!(
                recompiled.transform(&users).unwrap(),
                model.transform(&users).unwrap()
            );
        }
    }

    #[test]
    fn empty_graph_reports_no_paths() {
        let g = SchemaGraph::new()
            .with_table(table(
                "users",
                vec![("uid", cat(&["a"])), ("label", ints(&[1]))],
            ))
            .unwrap();
        let task = SchemaTask::new(g, "users", "label", Task::BinaryClassification);
        assert!(matches!(
            fit_schema(&small_cfg(), &task),
            Err(SchemaError::NoPaths { .. })
        ));
    }

    /// The promoted paths' template searches share one worker queue, yet the
    /// fit does not depend on the worker count: plans, per-path losses,
    /// templates, training counts and path scores are identical at 1, 2 and
    /// 4 workers.
    #[test]
    fn fit_is_identical_at_any_worker_count_across_paths() {
        let ds = feataug_datagen::instacart::generate_schema(&feataug_datagen::GenConfig::tiny());
        let mut graph = SchemaGraph::new();
        graph.register(ds.train.clone()).unwrap();
        for table in &ds.tables {
            graph.register(table.clone()).unwrap();
        }
        for edge in &ds.edges {
            let left: Vec<&str> = edge.left_keys.iter().map(String::as_str).collect();
            let right: Vec<&str> = edge.right_keys.iter().map(String::as_str).collect();
            graph
                .declare_edge(&edge.left, &edge.right, &left, &right)
                .unwrap();
        }
        let task = SchemaTask::new(graph, "users", "label", Task::BinaryClassification)
            .with_max_hops(2)
            .with_path_budget(usize::MAX)
            .with_agg_columns(vec!["price".into(), "cart_position".into()])
            .with_predicate_attrs(vec!["department".into(), "order_hour".into()]);
        type Summary = (
            Vec<String>,
            Vec<Vec<(String, u64)>>,
            Vec<Vec<(crate::template::QueryTemplate, u64)>>,
            Vec<(usize, usize)>,
            Vec<u64>,
        );
        let summary = |m: &SchemaAugModel| -> Summary {
            (
                m.plans().iter().map(AugPlan::to_plan_text).collect(),
                m.models()
                    .iter()
                    .map(|m| {
                        m.queries()
                            .iter()
                            .map(|g| (g.feature_name.clone(), g.loss.to_bits()))
                            .collect()
                    })
                    .collect(),
                m.models()
                    .iter()
                    .map(|m| {
                        m.templates()
                            .iter()
                            .map(|t| (t.template.clone(), t.effectiveness.to_bits()))
                            .collect()
                    })
                    .collect(),
                m.models()
                    .iter()
                    .map(|m| (m.timing().trainings, m.timing().memo_hits))
                    .collect(),
                m.stats().scores.iter().map(|s| s.score.to_bits()).collect(),
            )
        };
        let serial = summary(&fit_schema_with_workers(&small_cfg(), &task, 1).unwrap());
        assert!(serial.2.len() >= 2, "fewer than two promoted paths");
        assert!(serial.1.iter().all(|losses| !losses.is_empty()));
        assert!(
            serial.2.iter().any(|templates| templates.len() > 1),
            "every path holds one template, so the queue never mixes paths"
        );
        for workers in [2, 4] {
            let parallel = fit_schema_with_workers(&small_cfg(), &task, workers).unwrap();
            assert_eq!(summary(&parallel), serial, "{workers} workers");
        }
    }

    #[test]
    fn missing_label_column_is_reported_against_the_train_table() {
        let task = SchemaTask::new(graph(6), "users", "ghost", Task::BinaryClassification);
        let err = fit_schema(&small_cfg(), &task).unwrap_err();
        assert!(matches!(err, SchemaError::UnknownColumn { table, column }
            if table == "users" && column == "ghost"));
    }
}
