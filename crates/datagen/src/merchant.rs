//! Merchant-loyalty dataset (regression, one-to-many).
//!
//! Mirrors the paper's Merchant dataset (Kaggle "Elo Merchant Category Recommendation"): the
//! training table holds merchants with a continuous loyalty target; the relevant table holds the
//! card transactions observed at each merchant (purchase amount, installments, category flags,
//! city, month lag).
//!
//! **Planted signal**: the target tracks the merchant's *average purchase amount for category-A
//! transactions within the last three months* — `AVG(purchase_amount) WHERE category = 'A' AND
//! month_lag >= -3 GROUP BY merchant_id` — plus a weak transaction-count component and noise.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use feataug_tabular::{Column, Table};

use crate::spec::{GenConfig, SyntheticDataset, TaskKind};
use crate::util::{add_noise_columns, normal, sigmoid, zscore};

/// Transaction categories; `A` carries the planted signal.
pub const CATEGORIES: [&str; 3] = ["A", "B", "C"];
/// Cities (uninformative).
pub const CITIES: [&str; 6] = ["c10", "c21", "c35", "c48", "c57", "c63"];

/// Month-lag threshold (inclusive) carrying the signal: the three most recent months.
pub const RECENT_MONTH_LAG: i64 = -3;

/// Generate the Merchant-style dataset.
pub fn generate(cfg: &GenConfig) -> SyntheticDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x3e8c);
    let n = cfg.n_entities;

    let mut merchant_ids = Vec::with_capacity(n);
    let mut group_codes = Vec::with_capacity(n);
    let mut city_counts = Vec::with_capacity(n);

    let mut r_merchant = Vec::new();
    let mut r_amount = Vec::new();
    let mut r_installments = Vec::new();
    let mut r_category: Vec<&str> = Vec::new();
    let mut r_city: Vec<&str> = Vec::new();
    let mut r_month_lag = Vec::new();
    let mut r_authorized = Vec::new();

    let mut recent_a_avg = Vec::with_capacity(n);
    let mut txn_counts = Vec::with_capacity(n);

    for i in 0..n {
        let merchant = format!("m{i}");
        let premium = normal(&mut rng); // drives category-A amounts
        let txns = (cfg.fanout as f64 * (0.5 + rng.gen::<f64>()))
            .round()
            .max(1.0) as usize;

        let mut a_recent_sum = 0.0;
        let mut a_recent_cnt = 0usize;
        for _ in 0..txns {
            let p_a = sigmoid(0.5 * premium - 0.4);
            let category = if rng.gen::<f64>() < p_a {
                "A"
            } else if rng.gen_bool(0.5) {
                "B"
            } else {
                "C"
            };
            let month_lag: i64 = -rng.gen_range(0..13i64);
            // Only the *conditional mean* of recent category-A transactions expresses the
            // merchant's latent premium; every other amount is wide multiplicative noise over the
            // same numeric range, so predicate-free aggregates stay mostly uninformative.
            let amount = if category == "A" && month_lag >= RECENT_MONTH_LAG {
                (80.0 + 40.0 * premium) * rng.gen_range(0.85..1.15)
            } else {
                let base = match category {
                    "A" => 80.0,
                    "B" => 45.0,
                    _ => 20.0,
                };
                base * rng.gen_range(0.3..2.8)
            }
            .max(1.0);
            if category == "A" && month_lag >= RECENT_MONTH_LAG {
                a_recent_sum += amount;
                a_recent_cnt += 1;
            }
            r_merchant.push(merchant.clone());
            r_amount.push(amount);
            r_installments.push(rng.gen_range(1..12i64));
            r_category.push(category);
            r_city.push(CITIES[rng.gen_range(0..CITIES.len())]);
            r_month_lag.push(month_lag);
            r_authorized.push(rng.gen_bool(0.9));
        }

        recent_a_avg.push(if a_recent_cnt > 0 {
            a_recent_sum / a_recent_cnt as f64
        } else {
            0.0
        });
        txn_counts.push(txns as f64);
        merchant_ids.push(merchant);
        group_codes.push((i % 5) as i64);
        city_counts.push(rng.gen_range(1..30i64));
    }

    // Continuous target centred near the paper's loyalty-score scale (mean 0, wide spread,
    // reported RMSE around 3.9-4.1).
    zscore(&mut recent_a_avg);
    let mut count_z = txn_counts.clone();
    zscore(&mut count_z);
    let targets: Vec<f64> = (0..n)
        .map(|i| 2.6 * recent_a_avg[i] + 0.5 * count_z[i] + 2.8 * normal(&mut rng))
        .collect();

    let mut train = Table::new("merchants");
    train
        .add_column("merchant_id", Column::from_strings(&merchant_ids))
        .unwrap();
    train
        .add_column("merchant_group", Column::from_i64s(&group_codes))
        .unwrap();
    train
        .add_column("city_count", Column::from_i64s(&city_counts))
        .unwrap();
    train
        .add_column("label", Column::from_f64s(&targets))
        .unwrap();

    let mut relevant = Table::new("transactions");
    relevant
        .add_column("merchant_id", Column::from_strings(&r_merchant))
        .unwrap();
    relevant
        .add_column("purchase_amount", Column::from_f64s(&r_amount))
        .unwrap();
    relevant
        .add_column("installments", Column::from_i64s(&r_installments))
        .unwrap();
    relevant
        .add_column("category", Column::from_strs(&r_category))
        .unwrap();
    relevant
        .add_column("city", Column::from_strs(&r_city))
        .unwrap();
    relevant
        .add_column("month_lag", Column::from_i64s(&r_month_lag))
        .unwrap();
    relevant
        .add_column("authorized", Column::from_bools(&r_authorized))
        .unwrap();
    add_noise_columns(&mut relevant, cfg.n_noise_cols, &mut rng);

    SyntheticDataset {
        name: "merchant",
        train,
        relevant,
        key_columns: vec!["merchant_id".into()],
        label_column: "label".into(),
        agg_columns: vec!["purchase_amount".into(), "installments".into()],
        predicate_attrs: vec![
            "category".into(),
            "month_lag".into(),
            "city".into(),
            "authorized".into(),
            "installments".into(),
        ],
        task: TaskKind::Regression,
        signal_description:
            "label ≈ 2.6·z(AVG(purchase_amount) WHERE category='A' AND month_lag>=-3) + noise",
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
        assert_eq!(a.train.num_rows(), cfg.n_entities);
        assert_eq!(a.task, TaskKind::Regression);
    }

    #[test]
    fn target_is_continuous_with_spread() {
        let ds = generate(&GenConfig::small());
        let y = ds.train.column("label").unwrap().numeric_values();
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let var = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / y.len() as f64;
        assert!(var.sqrt() > 2.0, "target std too small: {}", var.sqrt());
        assert!(mean.abs() < 1.0, "target mean should be near zero: {mean}");
    }

    #[test]
    fn month_lags_are_non_positive() {
        let ds = generate(&GenConfig::tiny());
        let lags = ds.relevant.column("month_lag").unwrap().numeric_values();
        assert!(lags.iter().all(|l| (-12.0..=0.0).contains(l)));
    }
}
