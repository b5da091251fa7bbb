//! The benchmark's workloads: generated inputs, fit configuration and the
//! serving plan, all derived from the workload seed.
//!
//! Every workload runs the whole life of a model: register tables in a
//! `SchemaGraph`, `fit_schema`, then serve a fixed plan through transform,
//! the serving tier and live ingest. The workloads differ in the data shape
//! and the downstream model, which moves the cost between layers:
//!
//! * `tmall_wide_lr` — tmall, 800 users with 200 log rows each (≈160k
//!   relevant rows), logistic regression. The relevant table dwarfs the
//!   training table, as in the paper; with a cheap model the engine, LR
//!   training and template identification all carry weight in a fit.
//! * `instacart_hop2_xgb` — the normalized instacart schema
//!   (users → orders → order_items → products), 400 users, gradient-boosted
//!   trees, every path up to two hops fitted. Tree training dominates the
//!   fit, and serving runs over the two-hop view.

use std::sync::Arc;

use feataug::query::PlanHop;
use feataug::schema::materialize_path;
use feataug::{
    AugPlan, FeatAugConfig, JoinPath, PlannedQuery, QueryCodec, QueryTemplate, SchemaGraph,
    SchemaTask,
};
use feataug_datagen::{instacart, tmall, GenConfig};
use feataug_ml::{ModelKind, Task};
use feataug_tabular::{AggFunc, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Planned queries in the serving plan: the paper's 8 templates × 5 queries.
pub const PLAN_QUERIES: usize = 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's measured size.
    Full,
    /// A few-second smoke size for the self-test.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub model: ModelKind,
    /// Fits per timed run, each on its own dataset drawn from the seed, so
    /// the reported time does not hang on one draw of the data.
    pub fits: usize,
    /// Relevant batches appended per timed run (a fixed count, so the table
    /// and the process end every run at the same size).
    ingest_batches: usize,
    build: fn(u64, Scale) -> Scenario,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "tmall_wide_lr",
        model: ModelKind::Linear,
        fits: 12,
        ingest_batches: 150,
        build: tmall_wide,
    },
    Workload {
        name: "instacart_hop2_xgb",
        model: ModelKind::GradientBoosting,
        fits: 6,
        ingest_batches: 300,
        build: instacart_hop2,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One generated input set.
pub struct Scenario {
    pub graph: SchemaGraph,
    /// The fit task over `graph`.
    pub task: SchemaTask,
    pub train: Arc<Table>,
    /// The fixed path the serving plan reads.
    pub serve_path: JoinPath,
    /// Aggregation columns and predicate attributes of the serving codec.
    pub agg_columns: Vec<String>,
    pub predicate_attrs: Vec<String>,
}

impl Workload {
    /// The inputs of dataset `index` under `seed`.
    pub fn scenario(&self, seed: u64, index: usize, scale: Scale) -> Scenario {
        (self.build)(mix(seed, index as u64), scale)
    }

    /// Relevant batches appended per run at `scale`.
    pub fn ingest_batches(&self, scale: Scale) -> usize {
        match scale {
            Scale::Full => self.ingest_batches,
            Scale::Tiny => 5,
        }
    }

    /// The fit configuration: paper defaults, or a reduced one at tiny scale.
    pub fn config(&self, scale: Scale) -> FeatAugConfig {
        match scale {
            Scale::Full => FeatAugConfig::new(self.model),
            Scale::Tiny => {
                let mut cfg = FeatAugConfig::fast(self.model);
                cfg.n_templates = 2;
                cfg.template_id.n_templates = 2;
                cfg.template_id.pool_samples = 6;
                cfg.queries_per_template = 2;
                cfg.sqlgen.warmup_iters = 10;
                cfg.sqlgen.warmup_top_k = 3;
                cfg.sqlgen.search_iters = 4;
                cfg
            }
        }
    }
}

/// SplitMix64 over (seed, index): distinct, reproducible dataset seeds.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn tmall_wide(seed: u64, scale: Scale) -> Scenario {
    let (n_entities, fanout) = match scale {
        Scale::Full => (800, 200),
        Scale::Tiny => (60, 10),
    };
    let ds = tmall::generate(&GenConfig {
        n_entities,
        fanout,
        n_noise_cols: 1,
        seed,
    });
    let train = Arc::new(ds.train);
    let relevant = Arc::new(ds.relevant);
    let mut graph = SchemaGraph::new();
    graph.register(train.clone()).expect("register tmall train");
    graph
        .register(relevant.clone())
        .expect("register tmall logs");
    let keys: Vec<&str> = ds.key_columns.iter().map(String::as_str).collect();
    graph
        .declare_edge(train.name(), relevant.name(), &keys, &keys)
        .expect("declare tmall edge");
    // Depth 1: the one path is the logs table itself, so the promoted fit is
    // `FeatAug::fit` on (train, logs).
    let task = SchemaTask::new(
        graph.clone(),
        train.name(),
        &ds.label_column,
        Task::BinaryClassification,
    )
    .with_max_hops(0)
    .with_path_budget(1)
    .with_agg_columns(ds.agg_columns.clone())
    .with_predicate_attrs(ds.predicate_attrs.clone());
    Scenario {
        graph,
        task,
        serve_path: JoinPath {
            base: relevant.name().to_string(),
            base_keys: ds.key_columns.clone(),
            hops: Vec::new(),
        },
        train,
        agg_columns: ds.agg_columns,
        predicate_attrs: ds.predicate_attrs,
    }
}

fn instacart_hop2(seed: u64, scale: Scale) -> Scenario {
    let n_entities = match scale {
        // A fit at 400 users takes about two thirds of one at 600 (tree
        // training has a fixed cost per round), so a run affords six fits
        // rather than three.
        Scale::Full => 400,
        Scale::Tiny => 80,
    };
    let schema = instacart::generate_schema(&GenConfig {
        n_entities,
        fanout: 8,
        n_noise_cols: 1,
        seed,
    });
    let train = Arc::new(schema.train);
    let mut graph = SchemaGraph::new();
    graph.register(train.clone()).expect("register users");
    for table in schema.tables {
        graph.register(table).expect("register schema table");
    }
    for edge in &schema.edges {
        let left: Vec<&str> = edge.left_keys.iter().map(String::as_str).collect();
        let right: Vec<&str> = edge.right_keys.iter().map(String::as_str).collect();
        graph
            .declare_edge(&edge.left, &edge.right, &left, &right)
            .expect("declare schema edge");
    }
    let agg_columns: Vec<String> = vec!["price".into(), "cart_position".into()];
    let predicate_attrs: Vec<String> = vec!["department".into(), "order_hour".into()];
    let task = SchemaTask::new(
        graph.clone(),
        train.name(),
        &schema.label_column,
        Task::BinaryClassification,
    )
    .with_max_hops(2)
    // Every candidate path is promoted. With a budget of 2 the proxy
    // ties the one- and two-hop item views, and whether the two-hop view
    // (three templates instead of one) is fitted flips with the data:
    // fit time per dataset split into 3 s and 7 s modes.
    .with_path_budget(3)
    .with_agg_columns(agg_columns.clone())
    .with_predicate_attrs(predicate_attrs.clone());
    let hop = |table: &str, key: &str| PlanHop {
        table: table.to_string(),
        left_keys: vec![key.to_string()],
        right_keys: vec![key.to_string()],
    };
    Scenario {
        graph,
        task,
        serve_path: JoinPath {
            base: "orders".to_string(),
            base_keys: schema.key_columns.clone(),
            hops: vec![
                hop("order_items", "order_id"),
                hop("products", "product_id"),
            ],
        },
        train,
        agg_columns,
        predicate_attrs,
    }
}

impl Scenario {
    /// The serving plan: `PLAN_QUERIES` distinct queries sampled by `seed`
    /// from the all-aggregates, all-attributes codec over the serving path's
    /// view. It is never fitted, so a change to fit cannot change it. The
    /// aggregate functions and aggregated columns take turns and only the
    /// predicates are drawn, so every seed's plan holds the same mix of cheap
    /// and costly aggregates and ingest cost does not hang on the draw.
    pub fn serving_plan(&self, view: &Table, seed: u64) -> AugPlan {
        let template = QueryTemplate::new(
            AggFunc::all().to_vec(),
            self.agg_columns.clone(),
            self.predicate_attrs.clone(),
            self.serve_path.base_keys.clone(),
        );
        let codec = QueryCodec::build(&template, view).expect("serving codec");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut names = std::collections::HashSet::new();
        let mut queries = Vec::with_capacity(PLAN_QUERIES);
        let aggs = AggFunc::all();
        while queries.len() < PLAN_QUERIES {
            let mut query = codec.decode(&codec.space().sample(&mut rng));
            let slot = queries.len();
            query.agg = aggs[slot % aggs.len()];
            query.agg_column = self.agg_columns[slot / aggs.len() % self.agg_columns.len()].clone();
            if names.insert(query.feature_name()) {
                queries.push(PlannedQuery { query, loss: 0.0 });
            }
        }
        AugPlan::new(
            self.serve_path.base.clone(),
            self.serve_path.base_keys.clone(),
            queries,
        )
        .with_hops(self.serve_path.hops.clone())
    }

    /// The serving path's relevant view.
    pub fn serve_view(&self) -> Arc<Table> {
        materialize_path(&self.graph, &self.serve_path).expect("serving view")
    }
}
