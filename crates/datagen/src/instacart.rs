//! Instacart-style reorder-prediction dataset (binary classification, one-to-many).
//!
//! Mirrors the paper's Instacart dataset: the training table holds users with a "will this user
//! buy the target product (bananas) next order" label; the relevant table holds their historical
//! order lines (product, department, aisle, order hour, days since prior order, reordered flag).
//!
//! **Planted signal**: the label is driven mostly by *how many produce-department items the user
//! bought during morning hours* — `COUNT(*) WHERE department = 'produce' AND order_hour BETWEEN
//! 7 AND 11 GROUP BY user_id` — plus a weak overall basket-size effect and noise.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use feataug_tabular::{Column, Table};

use crate::spec::{GenConfig, SchemaEdgeSpec, SyntheticDataset, SyntheticSchema, TaskKind};
use crate::util::{add_noise_columns, normal, sigmoid, zscore};

/// Departments; `produce` carries the planted signal.
pub const DEPARTMENTS: [&str; 6] = [
    "produce",
    "dairy",
    "snacks",
    "beverages",
    "frozen",
    "household",
];
/// Aisles (uninformative).
pub const AISLES: [&str; 6] = ["a1", "a2", "a3", "a4", "a5", "a6"];

/// Morning-hour window carrying the signal (inclusive bounds).
pub const MORNING_START: i64 = 7;
/// Upper bound of the signal window.
pub const MORNING_END: i64 = 11;

/// Generate the Instacart-style dataset.
pub fn generate(cfg: &GenConfig) -> SyntheticDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1257);
    let n = cfg.n_entities;

    let mut user_ids = Vec::with_capacity(n);
    let mut n_prior_orders = Vec::with_capacity(n);
    let mut avg_basket = Vec::with_capacity(n);

    let mut r_user = Vec::new();
    let mut r_product: Vec<String> = Vec::new();
    let mut r_dept: Vec<&str> = Vec::new();
    let mut r_aisle: Vec<&str> = Vec::new();
    let mut r_hour = Vec::new();
    let mut r_days_prior = Vec::new();
    let mut r_reordered = Vec::new();
    let mut r_cart_pos = Vec::new();

    let mut morning_produce = Vec::with_capacity(n);
    let mut basket_sizes = Vec::with_capacity(n);

    for i in 0..n {
        let user = format!("u{i}");
        let produce_affinity = normal(&mut rng);
        let morning_shopper = normal(&mut rng);
        let lines = (cfg.fanout as f64 * (0.5 + rng.gen::<f64>()))
            .round()
            .max(1.0) as usize;

        let mut signal_count = 0.0;
        for line in 0..lines {
            let p_produce = sigmoid(0.7 * produce_affinity - 0.5);
            let dept = if rng.gen::<f64>() < p_produce {
                "produce"
            } else {
                DEPARTMENTS[1 + rng.gen_range(0..DEPARTMENTS.len() - 1)]
            };
            let morning = rng.gen::<f64>() < sigmoid(0.8 * morning_shopper);
            let hour: i64 = if morning {
                rng.gen_range(MORNING_START..=MORNING_END)
            } else {
                // afternoon / evening hours
                rng.gen_range(12..23)
            };
            if dept == "produce" && (MORNING_START..=MORNING_END).contains(&hour) {
                signal_count += 1.0;
            }
            let product = format!("p{}", rng.gen_range(0..50));
            let aisle = AISLES[rng.gen_range(0..AISLES.len())];
            let days_prior = rng.gen_range(0.0..30.0);
            let reordered = rng.gen_bool(0.4 + 0.1 * sigmoid(produce_affinity));
            let cart_pos = (line % 20) as i64 + 1;

            r_user.push(user.clone());
            r_product.push(product);
            r_dept.push(dept);
            r_aisle.push(aisle);
            r_hour.push(hour);
            r_days_prior.push(days_prior);
            r_reordered.push(reordered);
            r_cart_pos.push(cart_pos);
        }

        morning_produce.push(signal_count);
        basket_sizes.push(lines as f64);
        user_ids.push(user);
        n_prior_orders.push(rng.gen_range(3..40i64));
        avg_basket.push(lines as f64 / 3.0 + rng.gen_range(0.0..2.0));
    }

    zscore(&mut morning_produce);
    let mut basket_z = basket_sizes.clone();
    zscore(&mut basket_z);
    let labels: Vec<i64> = (0..n)
        .map(|i| {
            let logit = 1.7 * morning_produce[i] + 0.3 * basket_z[i] + 0.5 * normal(&mut rng) - 0.1;
            (rng.gen::<f64>() < sigmoid(logit)) as i64
        })
        .collect();

    let mut train = Table::new("users");
    train
        .add_column("user_id", Column::from_strings(&user_ids))
        .unwrap();
    train
        .add_column("n_prior_orders", Column::from_i64s(&n_prior_orders))
        .unwrap();
    train
        .add_column("avg_basket", Column::from_f64s(&avg_basket))
        .unwrap();
    train
        .add_column("label", Column::from_i64s(&labels))
        .unwrap();

    let mut relevant = Table::new("order_history");
    relevant
        .add_column("user_id", Column::from_strings(&r_user))
        .unwrap();
    relevant
        .add_column("product", Column::from_strings(&r_product))
        .unwrap();
    relevant
        .add_column("department", Column::from_strs(&r_dept))
        .unwrap();
    relevant
        .add_column("aisle", Column::from_strs(&r_aisle))
        .unwrap();
    relevant
        .add_column("order_hour", Column::from_i64s(&r_hour))
        .unwrap();
    relevant
        .add_column("days_since_prior", Column::from_f64s(&r_days_prior))
        .unwrap();
    relevant
        .add_column("reordered", Column::from_bools(&r_reordered))
        .unwrap();
    relevant
        .add_column("cart_position", Column::from_i64s(&r_cart_pos))
        .unwrap();
    add_noise_columns(&mut relevant, cfg.n_noise_cols, &mut rng);

    SyntheticDataset {
        name: "instacart",
        train,
        relevant,
        key_columns: vec!["user_id".into()],
        label_column: "label".into(),
        agg_columns: vec![
            "days_since_prior".into(),
            "cart_position".into(),
            "order_hour".into(),
        ],
        predicate_attrs: vec![
            "department".into(),
            "order_hour".into(),
            "aisle".into(),
            "reordered".into(),
            "days_since_prior".into(),
            "cart_position".into(),
        ],
        task: TaskKind::Binary,
        signal_description: "label ≈ f(COUNT(*) WHERE department='produce' AND 7<=order_hour<=11)",
    }
}

/// Generate the **normalized multi-hop** Instacart schema:
///
/// ```text
/// users(user_id, n_prior_orders, label)
///   ⟵ orders(user_id, order_id, order_hour, days_since_prior)
///        ⟵ order_items(order_id, product_id, cart_position, reordered)
///             ⟶ products(product_id, department, aisle, price)
/// ```
///
/// This is the same reorder-prediction story as [`generate`], but the flat
/// `order_history` table is split into its third-normal-form chain, so the
/// planted signal genuinely requires a **2-hop join path**: counting a
/// user's morning produce items needs `order_hour` from `orders` *and*
/// `department` from `products`, reachable only through
/// `orders ⋈ order_items ⋈ products`. No single table (nor any 1-hop view)
/// carries both signal attributes.
pub fn generate_schema(cfg: &GenConfig) -> SyntheticSchema {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9ac3);
    let n = cfg.n_entities;

    // Product catalog with fixed departments. The first two products are
    // pinned so both the signal department and its complement are always
    // inhabited, even under adversarial seeds.
    let n_products = 50usize;
    let mut p_ids = Vec::with_capacity(n_products);
    let mut p_dept: Vec<&str> = Vec::with_capacity(n_products);
    let mut p_aisle: Vec<&str> = Vec::with_capacity(n_products);
    let mut p_price = Vec::with_capacity(n_products);
    for j in 0..n_products {
        p_ids.push(format!("p{j}"));
        let dept = match j {
            0 => "produce",
            1 => DEPARTMENTS[1],
            _ => DEPARTMENTS[rng.gen_range(0..DEPARTMENTS.len())],
        };
        p_dept.push(dept);
        p_aisle.push(AISLES[rng.gen_range(0..AISLES.len())]);
        p_price.push(rng.gen_range(1.0..20.0f64));
    }
    let produce_products: Vec<usize> = (0..n_products)
        .filter(|&j| p_dept[j] == "produce")
        .collect();
    let other_products: Vec<usize> = (0..n_products)
        .filter(|&j| p_dept[j] != "produce")
        .collect();

    let mut user_ids = Vec::with_capacity(n);
    let mut n_prior_orders = Vec::with_capacity(n);

    let mut o_user = Vec::new();
    let mut o_order: Vec<String> = Vec::new();
    let mut o_hour = Vec::new();
    let mut o_days_prior = Vec::new();

    let mut i_order: Vec<String> = Vec::new();
    let mut i_product: Vec<String> = Vec::new();
    let mut i_cart_pos = Vec::new();
    let mut i_reordered = Vec::new();

    let mut morning_produce = Vec::with_capacity(n);
    let mut item_totals = Vec::with_capacity(n);
    let mut order_counter = 0usize;

    for i in 0..n {
        let user = format!("u{i}");
        let produce_affinity = normal(&mut rng);
        let morning_shopper = normal(&mut rng);
        let n_orders = ((cfg.fanout as f64 / 3.0) * (0.5 + rng.gen::<f64>()))
            .round()
            .max(1.0) as usize;

        let mut signal_count = 0.0;
        let mut total_items = 0.0;
        for _ in 0..n_orders {
            let order_id = format!("o{order_counter}");
            order_counter += 1;
            let morning = rng.gen::<f64>() < sigmoid(0.8 * morning_shopper);
            let hour: i64 = if morning {
                rng.gen_range(MORNING_START..=MORNING_END)
            } else {
                rng.gen_range(12..23)
            };
            o_user.push(user.clone());
            o_order.push(order_id.clone());
            o_hour.push(hour);
            o_days_prior.push(rng.gen_range(0.0..30.0));

            let n_items = 1 + rng.gen_range(0..4);
            for item in 0..n_items {
                let p_produce = sigmoid(0.7 * produce_affinity - 0.3);
                let product = if rng.gen::<f64>() < p_produce {
                    produce_products[rng.gen_range(0..produce_products.len())]
                } else {
                    other_products[rng.gen_range(0..other_products.len())]
                };
                if p_dept[product] == "produce" && (MORNING_START..=MORNING_END).contains(&hour) {
                    signal_count += 1.0;
                }
                i_order.push(order_id.clone());
                i_product.push(p_ids[product].clone());
                i_cart_pos.push(item as i64 + 1);
                i_reordered.push(rng.gen_bool(0.4 + 0.1 * sigmoid(produce_affinity)));
                total_items += 1.0;
            }
        }

        morning_produce.push(signal_count);
        item_totals.push(total_items);
        user_ids.push(user);
        n_prior_orders.push(rng.gen_range(3..40i64));
    }

    zscore(&mut morning_produce);
    zscore(&mut item_totals);
    let labels: Vec<i64> = (0..n)
        .map(|i| {
            let logit =
                1.7 * morning_produce[i] + 0.3 * item_totals[i] + 0.5 * normal(&mut rng) - 0.1;
            (rng.gen::<f64>() < sigmoid(logit)) as i64
        })
        .collect();

    let mut train = Table::new("users");
    train
        .add_column("user_id", Column::from_strings(&user_ids))
        .unwrap();
    train
        .add_column("n_prior_orders", Column::from_i64s(&n_prior_orders))
        .unwrap();
    train
        .add_column("label", Column::from_i64s(&labels))
        .unwrap();

    let mut orders = Table::new("orders");
    orders
        .add_column("user_id", Column::from_strings(&o_user))
        .unwrap();
    orders
        .add_column("order_id", Column::from_strings(&o_order))
        .unwrap();
    orders
        .add_column("order_hour", Column::from_i64s(&o_hour))
        .unwrap();
    orders
        .add_column("days_since_prior", Column::from_f64s(&o_days_prior))
        .unwrap();

    let mut order_items = Table::new("order_items");
    order_items
        .add_column("order_id", Column::from_strings(&i_order))
        .unwrap();
    order_items
        .add_column("product_id", Column::from_strings(&i_product))
        .unwrap();
    order_items
        .add_column("cart_position", Column::from_i64s(&i_cart_pos))
        .unwrap();
    order_items
        .add_column("reordered", Column::from_bools(&i_reordered))
        .unwrap();

    let mut products = Table::new("products");
    products
        .add_column("product_id", Column::from_strings(&p_ids))
        .unwrap();
    products
        .add_column("department", Column::from_strs(&p_dept))
        .unwrap();
    products
        .add_column("aisle", Column::from_strs(&p_aisle))
        .unwrap();
    products
        .add_column("price", Column::from_f64s(&p_price))
        .unwrap();

    let edge = |left: &str, right: &str, key: &str| SchemaEdgeSpec {
        left: left.to_string(),
        right: right.to_string(),
        left_keys: vec![key.to_string()],
        right_keys: vec![key.to_string()],
    };
    SyntheticSchema {
        name: "instacart-schema",
        train,
        tables: vec![orders, order_items, products],
        edges: vec![
            edge("users", "orders", "user_id"),
            edge("orders", "order_items", "order_id"),
            edge("order_items", "products", "product_id"),
        ],
        key_columns: vec!["user_id".into()],
        label_column: "label".into(),
        task: TaskKind::Binary,
        signal_description: "label ≈ f(COUNT(*) OVER orders ⋈ order_items ⋈ products \
                             WHERE department='produce' AND 7<=order_hour<=11)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_determinism() {
        let cfg = GenConfig::tiny();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.train, b.train);
        assert_eq!(a.relevant, b.relevant);
        assert_eq!(a.train.num_rows(), cfg.n_entities);
        assert_eq!(a.key_columns, vec!["user_id".to_string()]);
        assert!(a.relevant.column("department").is_ok());
    }

    #[test]
    fn label_balance_reasonable() {
        let ds = generate(&GenConfig::small());
        let labels = ds.train.column("label").unwrap().numeric_values();
        let rate = labels.iter().sum::<f64>() / labels.len() as f64;
        assert!(rate > 0.15 && rate < 0.85, "positive rate = {rate}");
    }

    #[test]
    fn order_hours_are_valid() {
        let ds = generate(&GenConfig::tiny());
        let hours = ds.relevant.column("order_hour").unwrap().numeric_values();
        assert!(hours.iter().all(|&h| (0.0..24.0).contains(&h)));
    }

    #[test]
    fn schema_shapes_edges_and_determinism() {
        let cfg = GenConfig::tiny();
        let a = generate_schema(&cfg);
        let b = generate_schema(&cfg);
        assert_eq!(a.train, b.train);
        assert_eq!(a.tables, b.tables);
        assert_eq!(a.train.num_rows(), cfg.n_entities);
        assert_eq!(a.edges.len(), 3);
        assert_eq!(a.edges[0].left, "users");
        let orders = a.table("orders").unwrap();
        let items = a.table("order_items").unwrap();
        let products = a.table("products").unwrap();
        assert!(orders.num_rows() >= cfg.n_entities);
        assert!(items.num_rows() >= orders.num_rows());
        assert_eq!(products.num_rows(), 50);
        // No single relevant table carries both signal attributes.
        assert!(orders.column("order_hour").is_ok() && orders.column("department").is_err());
        assert!(products.column("department").is_ok() && products.column("order_hour").is_err());
    }

    #[test]
    fn schema_signal_needs_both_hops() {
        // The 2-hop morning-produce count must separate the label classes;
        // computed here by hand (order → hour; item → order, product;
        // product → department) to avoid depending on the join machinery.
        let ds = generate_schema(&GenConfig::small());
        let orders = ds.table("orders").unwrap();
        let items = ds.table("order_items").unwrap();
        let products = ds.table("products").unwrap();
        let mut hour_of = std::collections::HashMap::new();
        let mut user_of = std::collections::HashMap::new();
        for row in 0..orders.num_rows() {
            let oid = format!("{:?}", orders.value(row, "order_id").unwrap());
            hour_of.insert(
                oid.clone(),
                orders.column("order_hour").unwrap().numeric_values()[row],
            );
            user_of.insert(oid, format!("{:?}", orders.value(row, "user_id").unwrap()));
        }
        let mut dept_of = std::collections::HashMap::new();
        for row in 0..products.num_rows() {
            dept_of.insert(
                format!("{:?}", products.value(row, "product_id").unwrap()),
                format!("{:?}", products.value(row, "department").unwrap()),
            );
        }
        let mut counts: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
        for row in 0..items.num_rows() {
            let oid = format!("{:?}", items.value(row, "order_id").unwrap());
            let pid = format!("{:?}", items.value(row, "product_id").unwrap());
            let hour = hour_of[&oid];
            if dept_of[&pid].contains("produce")
                && (MORNING_START as f64..=MORNING_END as f64).contains(&hour)
            {
                *counts.entry(user_of[&oid].clone()).or_default() += 1.0;
            }
        }
        let labels = ds.train.column("label").unwrap().numeric_values();
        let mut pos_mean = 0.0;
        let mut neg_mean = 0.0;
        let (mut pos_n, mut neg_n) = (0.0, 0.0);
        for (row, &label) in labels.iter().enumerate() {
            let user = format!("{:?}", ds.train.value(row, "user_id").unwrap());
            let c = counts.get(&user).copied().unwrap_or(0.0);
            if label > 0.5 {
                pos_mean += c;
                pos_n += 1.0;
            } else {
                neg_mean += c;
                neg_n += 1.0;
            }
        }
        assert!(pos_n > 0.0 && neg_n > 0.0);
        assert!(
            pos_mean / pos_n > neg_mean / neg_n + 0.5,
            "positive users should buy more morning produce ({} vs {})",
            pos_mean / pos_n,
            neg_mean / neg_n
        );
    }
}
