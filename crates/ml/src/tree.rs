//! CART decision trees.
//!
//! A single tree implementation serves three callers:
//!
//! * [`crate::forest::RandomForest`] — classification (gini) and regression (variance) trees with
//!   per-split random feature subsampling,
//! * [`crate::gbdt::GradientBoosting`] — second-order regression trees fitted to
//!   gradient/hessian statistics (XGBoost-style leaf weights `-G / (H + λ)`),
//! * the "FT + GBDT selector" baseline — via accumulated split-gain feature importances.
//!
//! # Split search
//!
//! At each node, for each candidate feature (all of them, or `max_features` drawn by shuffling),
//! the candidate thresholds come from the node's finite values of that feature: sorted,
//! deduplicated with `==` (so `-0.0` and `0.0` merge), then up to `n_thresholds` midpoints
//! `(a + b) / 2` of neighbouring distinct values at evenly stepped quantile positions, or the
//! single midpoint of the extremes when the stepping places none. A row goes left of threshold
//! `t` when its value is `<= t` or not finite. The split with the largest gain above `1e-12`
//! wins; ties keep the first feature visited and the lowest threshold.
//!
//! The search never partitions the rows per threshold or rescans them per side:
//!
//! * every feature's rows are sorted once per tree (`SortedRuns`: `total_cmp` order,
//!   non-finite rows first), and a split hands each child its share of every run by stable
//!   partition, so a node reads its distinct values and thresholds straight off its runs;
//! * each row gets a bin, the first threshold it falls left of (0 for non-finite values);
//! * one pass over the node's rows in ascending row id adds every row to the left side of each
//!   threshold at or above its bin and to the right side of each threshold below it. Second-
//!   order trees sum gradients and hessians; variance trees sum targets, then in a second pass
//!   the squared deviations from each side's mean; Gini trees count classes per bin.
//!
//! Accumulators start at `-0.0`, the value `Iterator::sum` folds from, and each side's sum adds
//! the same rows in the same order as summing a partitioned index list would. Every gain, and
//! so every tree, is therefore bit-identical to the straightforward search that partitions the
//! rows for each threshold and recomputes both sides' impurity from scratch. That search is
//! kept as the reference grower in this module's tests, which assert trees and whole ensembles
//! equal to it bit for bit.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::dataset::Matrix;

/// What the tree optimises at each split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitCriterion {
    /// Variance reduction on a real-valued target (regression / boosting residuals).
    Variance,
    /// Gini impurity reduction on integer class labels.
    Gini {
        /// Number of classes.
        n_classes: usize,
    },
}

/// Tree growth hyperparameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples in each leaf.
    pub min_samples_leaf: usize,
    /// Number of candidate features examined at each split (`None` = all features).
    pub max_features: Option<usize>,
    /// Number of candidate thresholds per feature (quantile-based).
    pub n_thresholds: usize,
    /// L2 regularisation on leaf weights (used by the second-order fit).
    pub lambda: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 6,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
            n_thresholds: 16,
            lambda: 1.0,
        }
    }
}

/// A tree node: either an internal split or a leaf.
#[derive(Debug, Clone)]
enum Node {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        value: f64,
        class_probs: Vec<f64>,
    },
}

/// A fitted CART tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    cfg: TreeConfig,
    criterion: SplitCriterion,
    nodes: Vec<Node>,
    importances: Vec<f64>,
}

/// Per-example statistics handed to the growing procedure.
#[derive(Clone, Copy)]
struct GrowTarget<'a> {
    /// Regression target or class label.
    y: &'a [f64],
    /// Optional gradient/hessian pairs for second-order fitting.
    grad_hess: Option<(&'a [f64], &'a [f64])>,
}

/// Every feature's rows ordered by value: the sorted runs a tree's root starts from.
///
/// Feature `f`'s run holds its non-finite rows first, in row order, then its finite rows in
/// `total_cmp` order. Boosting builds one per model and reuses it every round, since its matrix
/// does not change.
#[derive(Debug, Clone)]
pub(crate) struct SortedRuns {
    /// Feature-major: feature `f`'s run is `order[f * rows..(f + 1) * rows]`.
    order: Vec<usize>,
}

impl SortedRuns {
    /// Sort every column of `x`.
    pub(crate) fn new(x: &Matrix) -> SortedRuns {
        let n = x.rows();
        let mut order = Vec::with_capacity(n * x.cols());
        let mut finite: Vec<(f64, usize)> = Vec::with_capacity(n);
        for f in 0..x.cols() {
            finite.clear();
            for i in 0..n {
                let v = x.get(i, f);
                if v.is_finite() {
                    finite.push((v, i));
                } else {
                    order.push(i);
                }
            }
            // Values that tie under `total_cmp` have the same bits, so their order is moot.
            finite.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            order.extend(finite.iter().map(|&(_, i)| i));
        }
        SortedRuns { order }
    }
}

impl DecisionTree {
    /// Create an unfitted tree.
    pub fn new(criterion: SplitCriterion, cfg: TreeConfig) -> Self {
        DecisionTree {
            cfg,
            criterion,
            nodes: Vec::new(),
            importances: Vec::new(),
        }
    }

    /// Fit on a plain target (class labels for [`SplitCriterion::Gini`], real targets for
    /// [`SplitCriterion::Variance`]). `rng` drives the per-split feature subsampling.
    ///
    /// Panics when `y` does not hold one value per row of `x`.
    pub fn fit(&mut self, x: &Matrix, y: &[f64], rng: &mut StdRng) {
        assert_eq!(y.len(), x.rows(), "targets must match matrix rows");
        let target = GrowTarget { y, grad_hess: None };
        self.fit_target(x, &SortedRuns::new(x), target, rng);
    }

    /// Fit a second-order regression tree to gradients/hessians (XGBoost-style). Leaf values are
    /// `-G / (H + λ)`; split gain is the standard second-order gain.
    ///
    /// Panics when `grad` or `hess` does not hold one value per row of `x`.
    pub fn fit_grad_hess(&mut self, x: &Matrix, grad: &[f64], hess: &[f64], rng: &mut StdRng) {
        self.fit_grad_hess_sorted(x, &SortedRuns::new(x), grad, hess, rng);
    }

    /// [`DecisionTree::fit_grad_hess`] from `x`'s precomputed sorted runs.
    pub(crate) fn fit_grad_hess_sorted(
        &mut self,
        x: &Matrix,
        runs: &SortedRuns,
        grad: &[f64],
        hess: &[f64],
        rng: &mut StdRng,
    ) {
        assert_eq!(grad.len(), x.rows(), "gradients must match matrix rows");
        assert_eq!(hess.len(), x.rows(), "hessians must match matrix rows");
        let target = GrowTarget {
            y: grad,
            grad_hess: Some((grad, hess)),
        };
        self.fit_target(x, runs, target, rng);
    }

    fn fit_target(
        &mut self,
        x: &Matrix,
        runs: &SortedRuns,
        target: GrowTarget<'_>,
        rng: &mut StdRng,
    ) {
        debug_assert_eq!(
            runs.order.len(),
            x.rows() * x.cols(),
            "runs of another matrix"
        );
        self.importances = vec![0.0; x.cols()];
        self.nodes.clear();
        #[cfg(test)]
        if reference::enabled() {
            self.grow_reference(x, &target, (0..x.rows()).collect(), 0, rng);
            return;
        }
        let mut grower = Grower::new(x, target, self.criterion, runs);
        self.grow(&mut grower, 0, x.rows(), 0, rng);
    }

    /// Predicted value per row: leaf mean (regression), leaf weight (boosting) or majority class
    /// (classification).
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|i| self.predict_row(x.row(i))).collect()
    }

    /// Per-class probabilities (classification trees only).
    pub fn predict_proba(&self, x: &Matrix) -> Vec<Vec<f64>> {
        (0..x.rows())
            .map(|i| self.leaf_of(x.row(i)).1.clone())
            .collect()
    }

    /// Accumulated split-gain importance per feature (unnormalised).
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        self.leaf_of(row).0
    }

    fn leaf_of(&self, row: &[f64]) -> (f64, &Vec<f64>) {
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value, class_probs } => return (*value, class_probs),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = row[*feature];
                    // Missing values follow the left branch.
                    idx = if !v.is_finite() || v <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn leaf_value(&self, target: &GrowTarget<'_>, indices: &[usize]) -> (f64, Vec<f64>) {
        match (&self.criterion, target.grad_hess) {
            (_, Some((grad, hess))) => {
                let g: f64 = indices.iter().map(|&i| grad[i]).sum();
                let h: f64 = indices.iter().map(|&i| hess[i]).sum();
                (-g / (h + self.cfg.lambda), Vec::new())
            }
            (SplitCriterion::Variance, None) => {
                let mean =
                    indices.iter().map(|&i| target.y[i]).sum::<f64>() / indices.len().max(1) as f64;
                (mean, Vec::new())
            }
            (SplitCriterion::Gini { n_classes }, None) => {
                let mut counts = vec![0.0; *n_classes];
                for &i in indices {
                    let c = (target.y[i].round() as usize).min(n_classes - 1);
                    counts[c] += 1.0;
                }
                let total: f64 = counts.iter().sum();
                let probs: Vec<f64> = counts.iter().map(|c| c / total.max(1.0)).collect();
                let majority = probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(c, _)| c as f64)
                    .unwrap_or(0.0);
                (majority, probs)
            }
        }
    }

    /// Impurity of a set of rows under the configured criterion (lower is purer). For the
    /// second-order fit this is the negative gain term `-G² / (H + λ)`.
    fn impurity(&self, target: &GrowTarget<'_>, indices: &[usize]) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        match (&self.criterion, target.grad_hess) {
            (_, Some((grad, hess))) => {
                let g: f64 = indices.iter().map(|&i| grad[i]).sum();
                let h: f64 = indices.iter().map(|&i| hess[i]).sum();
                -(g * g) / (h + self.cfg.lambda)
            }
            (SplitCriterion::Variance, None) => {
                let n = indices.len() as f64;
                let mean = indices.iter().map(|&i| target.y[i]).sum::<f64>() / n;
                indices
                    .iter()
                    .map(|&i| (target.y[i] - mean).powi(2))
                    .sum::<f64>()
            }
            (SplitCriterion::Gini { n_classes }, None) => {
                let mut counts = vec![0.0; *n_classes];
                for &i in indices {
                    let c = (target.y[i].round() as usize).min(n_classes - 1);
                    counts[c] += 1.0;
                }
                let n: f64 = counts.iter().sum();
                let gini = 1.0 - counts.iter().map(|c| (c / n) * (c / n)).sum::<f64>();
                gini * n
            }
        }
    }

    fn push_leaf(&mut self, target: &GrowTarget<'_>, rows: &[usize]) -> usize {
        let (value, class_probs) = self.leaf_value(target, rows);
        self.nodes.push(Node::Leaf { value, class_probs });
        self.nodes.len() - 1
    }

    /// Grow the subtree of the node owning `g.rows[lo..hi]`; returns its node index.
    fn grow(
        &mut self,
        g: &mut Grower<'_>,
        lo: usize,
        hi: usize,
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let n_rows = hi - lo;
        if depth >= self.cfg.max_depth
            || n_rows < self.cfg.min_samples_split
            || n_rows < 2 * self.cfg.min_samples_leaf
        {
            return self.push_leaf(&g.target, &g.rows[lo..hi]);
        }

        let parent_impurity = self.impurity(&g.target, &g.rows[lo..hi]);

        // Candidate features: all, or a random subset of `max_features`.
        g.features.clear();
        g.features.extend(0..g.x.cols());
        if let Some(k) = self.cfg.max_features {
            g.features.shuffle(rng);
            g.features.truncate(k.max(1).min(g.x.cols()));
        }

        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        for fi in 0..g.features.len() {
            let f = g.features[fi];
            if !g.bin_feature(f, lo, hi, self.cfg.n_thresholds) {
                continue;
            }
            g.for_each_gain(lo, hi, parent_impurity, &self.cfg, |threshold, gain| {
                if gain > 1e-12 && best.is_none_or(|(b, _, _)| gain > b) {
                    best = Some((gain, f, threshold));
                }
            });
        }

        match best {
            None => self.push_leaf(&g.target, &g.rows[lo..hi]),
            Some((gain, feature, threshold)) => {
                self.importances[feature] += gain;
                let mid = g.partition(lo, hi, feature, threshold);
                // Reserve the split node position, then grow children.
                self.nodes.push(Node::Leaf {
                    value: 0.0,
                    class_probs: Vec::new(),
                });
                let node_idx = self.nodes.len() - 1;
                let left = self.grow(g, lo, mid, depth + 1, rng);
                let right = self.grow(g, mid, hi, depth + 1, rng);
                self.nodes[node_idx] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                node_idx
            }
        }
    }
}

/// The per-row statistics splits are scored on.
enum SplitStats<'a> {
    /// Second-order fit: gradient and hessian sums.
    GradHess(&'a [f64], &'a [f64]),
    /// Variance reduction on a real-valued target.
    Variance(&'a [f64]),
    /// Gini impurity over each row's class index.
    Gini { class: Vec<usize>, n_classes: usize },
}

/// One tree's growth state: the nodes' rows, the sorted runs, and scratch buffers reused across
/// nodes and features. A node is a range `lo..hi` that indexes `rows` and every feature's run.
struct Grower<'a> {
    x: &'a Matrix,
    target: GrowTarget<'a>,
    stats: SplitStats<'a>,
    /// Row ids; a node owns `rows[lo..hi]`, in ascending order.
    rows: Vec<usize>,
    /// The sorted runs, feature-major; a node owns `order[f * n + lo..f * n + hi]` of feature
    /// `f`, non-finite rows first, then finite rows by value.
    order: Vec<usize>,
    /// Features to visit at the current node.
    features: Vec<usize>,
    /// Per row id: the first threshold of the feature being scored the row falls left of.
    bin: Vec<usize>,
    /// Per row id: whether the row goes left of the split being applied.
    goes_left: Vec<bool>,
    /// The feature's distinct finite values at the node, ascending.
    distinct: Vec<f64>,
    /// The feature's candidate thresholds at the node, non-decreasing.
    thresholds: Vec<f64>,
    /// Rows left of each threshold (built as rows per bin, then prefix-summed).
    n_left: Vec<usize>,
    /// Per-threshold sums: entry `k` is threshold `k`'s left side, entry `t + k` its right side
    /// (`t` thresholds), so a row of bin `b` adds into the window `b..b + t`.
    acc: Vec<[f64; 2]>,
    /// Each side's target mean, laid out like `acc` (variance only).
    means: Vec<f64>,
    /// Class counts per bin, prefix-summed over bins (Gini only).
    counts: Vec<usize>,
    /// One side's class counts (Gini only).
    side_counts: Vec<f64>,
    /// Impurity of each side, laid out like `acc`.
    side_impurity: Vec<f64>,
    /// Partition scratch.
    spill: Vec<usize>,
}

impl<'a> Grower<'a> {
    fn new(
        x: &'a Matrix,
        target: GrowTarget<'a>,
        criterion: SplitCriterion,
        runs: &SortedRuns,
    ) -> Grower<'a> {
        let n = x.rows();
        let stats = match (criterion, target.grad_hess) {
            (_, Some((grad, hess))) => SplitStats::GradHess(grad, hess),
            (SplitCriterion::Variance, None) => SplitStats::Variance(target.y),
            (SplitCriterion::Gini { n_classes }, None) => SplitStats::Gini {
                class: target
                    .y
                    .iter()
                    .map(|&v| (v.round() as usize).min(n_classes - 1))
                    .collect(),
                n_classes,
            },
        };
        Grower {
            x,
            target,
            stats,
            rows: (0..n).collect(),
            order: runs.order.clone(),
            features: Vec::new(),
            bin: vec![0; n],
            goes_left: vec![false; n],
            distinct: Vec::new(),
            thresholds: Vec::new(),
            n_left: Vec::new(),
            acc: Vec::new(),
            means: Vec::new(),
            counts: Vec::new(),
            side_counts: Vec::new(),
            side_impurity: Vec::new(),
            spill: Vec::new(),
        }
    }

    /// Read feature `f`'s thresholds at node `lo..hi` off its sorted run and bin the node's
    /// rows. Returns false when the node has fewer than two distinct finite values of `f`.
    fn bin_feature(&mut self, f: usize, lo: usize, hi: usize, n_thresholds: usize) -> bool {
        let x = self.x;
        let base = f * x.rows();
        let run = &self.order[base + lo..base + hi];
        let n_missing = run
            .iter()
            .take_while(|&&i| !x.get(i, f).is_finite())
            .count();
        let (missing, finite) = run.split_at(n_missing);
        if finite.len() < 2 {
            return false;
        }
        self.distinct.clear();
        for &i in finite {
            let v = x.get(i, f);
            // `==`, as `Vec::dedup` compares: -0.0 and 0.0 merge into the first seen.
            if self.distinct.last() != Some(&v) {
                self.distinct.push(v);
            }
        }
        let vals = &self.distinct;
        if vals.len() < 2 {
            return false;
        }
        let step = (vals.len() as f64 / (n_thresholds + 1) as f64).max(1.0);
        self.thresholds.clear();
        let mut pos = step;
        while (pos as usize) < vals.len() {
            let a = vals[pos as usize - 1];
            let b = vals[pos as usize];
            self.thresholds.push((a + b) / 2.0);
            pos += step;
        }
        if self.thresholds.is_empty() {
            self.thresholds.push((vals[0] + vals[vals.len() - 1]) / 2.0);
        }

        // Midpoints of ascending pairs never decrease, so one merge walk bins the whole run.
        for &i in missing {
            self.bin[i] = 0;
        }
        let mut k = 0;
        for &i in finite {
            let v = x.get(i, f);
            while k < self.thresholds.len() && self.thresholds[k] < v {
                k += 1;
            }
            self.bin[i] = k;
        }
        true
    }

    /// Score every threshold [`Grower::bin_feature`] placed at node `lo..hi`: call
    /// `visit(threshold, gain)` in threshold order for each one that leaves both sides at
    /// least `min_samples_leaf` rows.
    fn for_each_gain(
        &mut self,
        lo: usize,
        hi: usize,
        parent_impurity: f64,
        cfg: &TreeConfig,
        mut visit: impl FnMut(f64, f64),
    ) {
        let Grower {
            stats,
            rows,
            bin,
            thresholds,
            n_left,
            acc,
            means,
            counts,
            side_counts,
            side_impurity,
            ..
        } = self;
        let rows = &rows[lo..hi];
        let t = thresholds.len();
        n_left.clear();
        n_left.resize(t + 1, 0);
        for &i in rows {
            n_left[bin[i]] += 1;
        }
        for k in 1..=t {
            n_left[k] += n_left[k - 1];
        }
        let side_rows = |j: usize| {
            if j < t {
                n_left[j]
            } else {
                rows.len() - n_left[j - t]
            }
        };

        side_impurity.clear();
        match stats {
            SplitStats::GradHess(grad, hess) => {
                acc.clear();
                acc.resize(2 * t, [-0.0, -0.0]);
                for &i in rows {
                    let (gi, hi) = (grad[i], hess[i]);
                    for a in &mut acc[bin[i]..bin[i] + t] {
                        a[0] += gi;
                        a[1] += hi;
                    }
                }
                side_impurity.extend(acc.iter().enumerate().map(|(j, &[g, h])| {
                    if side_rows(j) == 0 {
                        0.0
                    } else {
                        -(g * g) / (h + cfg.lambda)
                    }
                }));
            }
            SplitStats::Variance(y) => {
                acc.clear();
                acc.resize(2 * t, [-0.0, -0.0]);
                for &i in rows {
                    let yi = y[i];
                    for a in &mut acc[bin[i]..bin[i] + t] {
                        a[0] += yi;
                    }
                }
                // An empty side's mean is never read: no row adds into its entry.
                means.clear();
                means.extend(
                    acc.iter()
                        .enumerate()
                        .map(|(j, a)| a[0] / side_rows(j) as f64),
                );
                for &i in rows {
                    let yi = y[i];
                    let window = bin[i]..bin[i] + t;
                    for (a, &mean) in acc[window.clone()].iter_mut().zip(&means[window]) {
                        a[1] += (yi - mean).powi(2);
                    }
                }
                side_impurity.extend(acc.iter().enumerate().map(|(j, a)| {
                    if side_rows(j) == 0 {
                        0.0
                    } else {
                        a[1]
                    }
                }));
            }
            SplitStats::Gini { class, n_classes } => {
                let k = *n_classes;
                counts.clear();
                counts.resize((t + 1) * k, 0);
                for &i in rows {
                    counts[bin[i] * k + class[i]] += 1;
                }
                // Prefix sums over bins: block `j` now counts the rows left of threshold `j`,
                // and block `t` the whole node.
                for j in k..counts.len() {
                    counts[j] += counts[j - k];
                }
                for j in 0..2 * t {
                    side_counts.clear();
                    if j < t {
                        side_counts.extend(counts[j * k..(j + 1) * k].iter().map(|&n| n as f64));
                    } else {
                        let (left, total) = (&counts[(j - t) * k..], &counts[t * k..]);
                        side_counts.extend((0..k).map(|cl| (total[cl] - left[cl]) as f64));
                    }
                    side_impurity.push(if side_rows(j) == 0 {
                        0.0
                    } else {
                        let n: f64 = side_counts.iter().sum();
                        let gini = 1.0 - side_counts.iter().map(|c| (c / n) * (c / n)).sum::<f64>();
                        gini * n
                    });
                }
            }
        }

        for k in 0..t {
            if side_rows(k) < cfg.min_samples_leaf || side_rows(t + k) < cfg.min_samples_leaf {
                continue;
            }
            visit(
                thresholds[k],
                parent_impurity - side_impurity[k] - side_impurity[t + k],
            );
        }
    }

    /// Split node `lo..hi` on `x[·, feature] <= threshold` (non-finite values left): stably
    /// partition its rows and every sorted run. Returns the boundary between the children.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let x = self.x;
        for &i in &self.rows[lo..hi] {
            let v = x.get(i, feature);
            self.goes_left[i] = !v.is_finite() || v <= threshold;
        }
        let n = x.rows();
        let mid = lo + stable_partition(&mut self.rows[lo..hi], &self.goes_left, &mut self.spill);
        for f in 0..x.cols() {
            let run = &mut self.order[f * n + lo..f * n + hi];
            stable_partition(run, &self.goes_left, &mut self.spill);
        }
        mid
    }
}

/// Move the rows `goes_left` marks to the front of `run`, keeping the order on both sides;
/// returns how many went left.
fn stable_partition(run: &mut [usize], goes_left: &[bool], spill: &mut Vec<usize>) -> usize {
    spill.clear();
    let mut n_left = 0;
    for r in 0..run.len() {
        let i = run[r];
        if goes_left[i] {
            run[n_left] = i;
            n_left += 1;
        } else {
            spill.push(i);
        }
    }
    run[n_left..].copy_from_slice(spill);
    n_left
}

/// Test-only switch that routes [`DecisionTree::fit`] and [`DecisionTree::fit_grad_hess`]
/// through the reference grower, so tests can fit whole ensembles both ways.
#[cfg(test)]
pub(crate) mod reference {
    use std::cell::Cell;

    thread_local! {
        static ENABLED: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn enabled() -> bool {
        ENABLED.with(Cell::get)
    }

    /// Run `f` with every tree fitted on this thread grown by the reference grower.
    pub(crate) fn with<R>(f: impl FnOnce() -> R) -> R {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                ENABLED.with(|e| e.set(false));
            }
        }
        ENABLED.with(|e| e.set(true));
        let _reset = Reset;
        f()
    }
}

#[cfg(test)]
impl DecisionTree {
    /// The reference split search: for every threshold, partition the node's rows into two
    /// fresh index lists and recompute both sides' impurity from scratch.
    fn grow_reference(
        &mut self,
        x: &Matrix,
        target: &GrowTarget<'_>,
        indices: Vec<usize>,
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let make_leaf = |tree: &mut DecisionTree, indices: &[usize]| -> usize {
            let (value, class_probs) = tree.leaf_value(target, indices);
            tree.nodes.push(Node::Leaf { value, class_probs });
            tree.nodes.len() - 1
        };

        if depth >= self.cfg.max_depth
            || indices.len() < self.cfg.min_samples_split
            || indices.len() < 2 * self.cfg.min_samples_leaf
        {
            return make_leaf(self, &indices);
        }

        let parent_impurity = self.impurity(target, &indices);

        // Candidate features: all, or a random subset of `max_features`.
        let mut features: Vec<usize> = (0..x.cols()).collect();
        if let Some(k) = self.cfg.max_features {
            features.shuffle(rng);
            features.truncate(k.max(1).min(x.cols()));
        }

        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        for &f in &features {
            // Quantile-based candidate thresholds over the finite values of this feature.
            let mut vals: Vec<f64> = indices
                .iter()
                .map(|&i| x.get(i, f))
                .filter(|v| v.is_finite())
                .collect();
            if vals.len() < 2 {
                continue;
            }
            vals.sort_by(|a, b| a.total_cmp(b));
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            let step = (vals.len() as f64 / (self.cfg.n_thresholds + 1) as f64).max(1.0);
            let mut thresholds: Vec<f64> = Vec::new();
            let mut pos = step;
            while (pos as usize) < vals.len() {
                let a = vals[pos as usize - 1];
                let b = vals[pos as usize];
                thresholds.push((a + b) / 2.0);
                pos += step;
            }
            if thresholds.is_empty() {
                thresholds.push((vals[0] + vals[vals.len() - 1]) / 2.0);
            }

            for &t in &thresholds {
                let (mut left, mut right) = (Vec::new(), Vec::new());
                for &i in &indices {
                    let v = x.get(i, f);
                    if !v.is_finite() || v <= t {
                        left.push(i);
                    } else {
                        right.push(i);
                    }
                }
                if left.len() < self.cfg.min_samples_leaf || right.len() < self.cfg.min_samples_leaf
                {
                    continue;
                }
                let gain =
                    parent_impurity - self.impurity(target, &left) - self.impurity(target, &right);
                if gain > 1e-12 && best.as_ref().map(|(g, _, _)| gain > *g).unwrap_or(true) {
                    best = Some((gain, f, t));
                }
            }
        }

        match best {
            None => make_leaf(self, &indices),
            Some((gain, feature, threshold)) => {
                self.importances[feature] += gain;
                let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
                for &i in &indices {
                    let v = x.get(i, feature);
                    if !v.is_finite() || v <= threshold {
                        left_idx.push(i);
                    } else {
                        right_idx.push(i);
                    }
                }
                // Reserve the split node position, then grow children.
                self.nodes.push(Node::Leaf {
                    value: 0.0,
                    class_probs: Vec::new(),
                });
                let node_idx = self.nodes.len() - 1;
                let left = self.grow_reference(x, target, left_idx, depth + 1, rng);
                let right = self.grow_reference(x, target, right_idx, depth + 1, rng);
                self.nodes[node_idx] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
                node_idx
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn xor_data() -> (Matrix, Vec<f64>) {
        // A non-linear pattern a linear model cannot fit: y = (x0 > 0.5) XOR (x1 > 0.5).
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i % 20) as f64 / 20.0;
            let b = ((i / 20) % 10) as f64 / 10.0;
            rows.push(vec![a, b]);
            y.push(if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 });
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let x = Matrix::from_rows(&rows);
        let mut tree = DecisionTree::new(SplitCriterion::Variance, TreeConfig::default());
        tree.fit(&x, &y, &mut rng());
        let preds = tree.predict(&x);
        assert!((preds[0] - 1.0).abs() < 0.3);
        assert!((preds[99] - 5.0).abs() < 0.3);
    }

    #[test]
    fn classification_tree_solves_xor() {
        let (x, y) = xor_data();
        let mut tree =
            DecisionTree::new(SplitCriterion::Gini { n_classes: 2 }, TreeConfig::default());
        tree.fit(&x, &y, &mut rng());
        let preds = tree.predict(&x);
        let acc = preds
            .iter()
            .zip(&y)
            .filter(|(p, y)| (**p - **y).abs() < 0.5)
            .count() as f64
            / y.len() as f64;
        assert!(acc > 0.95, "accuracy = {acc}");
    }

    #[test]
    fn predict_proba_sums_to_one() {
        let (x, y) = xor_data();
        let mut tree =
            DecisionTree::new(SplitCriterion::Gini { n_classes: 2 }, TreeConfig::default());
        tree.fit(&x, &y, &mut rng());
        for p in tree.predict_proba(&x) {
            assert_eq!(p.len(), 2);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn grad_hess_tree_moves_towards_negative_gradient() {
        // Gradients all +1 on the left half, -1 on the right half; hessians 1.
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let grad: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { -1.0 }).collect();
        let hess = vec![1.0; 100];
        let mut tree = DecisionTree::new(SplitCriterion::Variance, TreeConfig::default());
        tree.fit_grad_hess(&x, &grad, &hess, &mut rng());
        let preds = tree.predict(&x);
        // Leaf weight = -G/(H+1): left ≈ -50/51, right ≈ +50/51.
        assert!(preds[0] < -0.5);
        assert!(preds[99] > 0.5);
    }

    #[test]
    fn importances_prefer_informative_feature() {
        let (x, y) = xor_data();
        // Add a constant noise feature as column 2.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..x.rows() {
            let mut r = x.row(i).to_vec();
            r.push(0.0);
            rows.push(r);
        }
        let x2 = Matrix::from_rows(&rows);
        let mut tree =
            DecisionTree::new(SplitCriterion::Gini { n_classes: 2 }, TreeConfig::default());
        tree.fit(&x2, &y, &mut rng());
        let imp = tree.feature_importances();
        assert!(imp[0] > 0.0);
        assert!(imp[1] > 0.0);
        assert_eq!(imp[2], 0.0);
    }

    #[test]
    fn missing_values_go_left_without_panicking() {
        let rows = vec![vec![1.0], vec![2.0], vec![f64::NAN], vec![4.0]];
        let x = Matrix::from_rows(&rows);
        let y = vec![1.0, 1.0, 5.0, 5.0];
        let mut tree = DecisionTree::new(SplitCriterion::Variance, TreeConfig::default());
        tree.fit(&x, &y, &mut rng());
        let preds = tree.predict(&x);
        assert_eq!(preds.len(), 4);
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn max_depth_zero_yields_single_leaf() {
        let (x, y) = xor_data();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let mut tree = DecisionTree::new(SplitCriterion::Variance, cfg);
        tree.fit(&x, &y, &mut rng());
        let preds = tree.predict(&x);
        let first = preds[0];
        assert!(preds.iter().all(|&p| (p - first).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "targets must match matrix rows")]
    fn fit_rejects_longer_targets() {
        let (x, mut y) = xor_data();
        y.push(1.0);
        DecisionTree::new(SplitCriterion::Variance, TreeConfig::default()).fit(&x, &y, &mut rng());
    }

    #[test]
    #[should_panic(expected = "targets must match matrix rows")]
    fn fit_rejects_shorter_targets() {
        let (x, y) = xor_data();
        DecisionTree::new(SplitCriterion::Gini { n_classes: 2 }, TreeConfig::default()).fit(
            &x,
            &y[..150],
            &mut rng(),
        );
    }

    #[test]
    #[should_panic(expected = "gradients must match matrix rows")]
    fn fit_grad_hess_rejects_short_gradients() {
        let (x, y) = xor_data();
        let hess = vec![1.0; y.len()];
        DecisionTree::new(SplitCriterion::Variance, TreeConfig::default()).fit_grad_hess(
            &x,
            &y[..10],
            &hess,
            &mut rng(),
        );
    }

    #[test]
    #[should_panic(expected = "hessians must match matrix rows")]
    fn fit_grad_hess_rejects_long_hessians() {
        let (x, y) = xor_data();
        let hess = vec![1.0; y.len() + 3];
        DecisionTree::new(SplitCriterion::Variance, TreeConfig::default()).fit_grad_hess(
            &x,
            &y,
            &hess,
            &mut rng(),
        );
    }
}

/// The split search against the reference grower: trees and whole ensembles must agree bit for
/// bit on adversarial inputs.
#[cfg(test)]
mod oracle_tests {
    use super::*;
    use crate::dataset::{Dataset, Task};
    use crate::forest::RandomForest;
    use crate::gbdt::GradientBoosting;
    use crate::model::Model;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Node shapes, features, threshold and leaf bits, class probabilities and importances.
    fn assert_same_tree(fast: &DecisionTree, oracle: &DecisionTree, context: &str) {
        assert_eq!(
            fast.nodes.len(),
            oracle.nodes.len(),
            "{context}: node count"
        );
        for (k, pair) in fast.nodes.iter().zip(&oracle.nodes).enumerate() {
            match pair {
                (
                    Node::Split {
                        feature: fa,
                        threshold: ta,
                        left: la,
                        right: ra,
                    },
                    Node::Split {
                        feature: fb,
                        threshold: tb,
                        left: lb,
                        right: rb,
                    },
                ) => assert_eq!(
                    (fa, ta.to_bits(), la, ra),
                    (fb, tb.to_bits(), lb, rb),
                    "{context}: split node {k}"
                ),
                (
                    Node::Leaf {
                        value: va,
                        class_probs: pa,
                    },
                    Node::Leaf {
                        value: vb,
                        class_probs: pb,
                    },
                ) => {
                    assert_eq!(va.to_bits(), vb.to_bits(), "{context}: leaf {k} value");
                    assert_eq!(
                        bits(pa),
                        bits(pb),
                        "{context}: leaf {k} class probabilities"
                    );
                }
                _ => panic!("{context}: node {k} is a split in one tree and a leaf in the other"),
            }
        }
        assert_eq!(
            bits(&fast.importances),
            bits(&oracle.importances),
            "{context}: importances"
        );
    }

    /// A column of one random kind, with NaN, ±inf and ±0.0 mixed in at a random rate.
    fn column(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let kind = rng.gen_range(0..7);
        let special_rate = [0.0, 0.05, 0.3][rng.gen_range(0..3)];
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        (0..n)
            .map(|_| {
                if rng.gen_bool(special_rate) {
                    return specials[rng.gen_range(0..specials.len())];
                }
                match kind {
                    0 => rng.gen_range(-10.0..10.0),
                    // Few levels: long runs of duplicates.
                    1 => rng.gen_range(0..4) as f64,
                    2 => rng.gen_range(-40..40) as f64,
                    3 => 2.5,
                    4 => [-0.0, 0.0, 1.0, -1.0][rng.gen_range(0..4)],
                    // Neighbouring floats: midpoints round onto a data value.
                    5 => 1.0 + rng.gen_range(0..4) as f64 * f64::EPSILON,
                    // Midpoints of these overflow to ±inf.
                    _ => [f64::MAX, -f64::MAX, 1e308, -1e308, 0.5][rng.gen_range(0..5)],
                }
            })
            .collect()
    }

    fn matrix(rng: &mut StdRng, n: usize, cols: usize) -> Matrix {
        let columns: Vec<Vec<f64>> = (0..cols).map(|_| column(rng, n)).collect();
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| columns.iter().map(|c| c[i]).collect())
            .collect();
        Matrix::new(rows.concat(), n, cols)
    }

    fn config(rng: &mut StdRng, n: usize, cols: usize) -> TreeConfig {
        TreeConfig {
            max_depth: rng.gen_range(0..7),
            min_samples_split: rng.gen_range(0..6),
            min_samples_leaf: rng.gen_range(0..3),
            max_features: if rng.gen_bool(0.5) {
                Some(rng.gen_range(0..cols + 2))
            } else {
                None
            },
            n_thresholds: [0, 1, 2, 16, n + 3][rng.gen_range(0..5)],
            lambda: [1.0, 0.0, 0.5][rng.gen_range(0..3)],
        }
    }

    /// Fit one random tree with both searches, from the same target draw and RNG state, and
    /// compare the trees and the RNG state they leave behind. `fit` draws the target from its
    /// first generator and grows the tree with the second.
    fn check_case(
        seed: u64,
        criterion: SplitCriterion,
        fit: impl Fn(&mut DecisionTree, &Matrix, &mut StdRng, &mut StdRng),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..70);
        let cols = rng.gen_range(1..5);
        let x = matrix(&mut rng, n, cols);
        let cfg = config(&mut rng, n, cols);
        let (target_seed, tree_seed) = (rng.gen::<u64>(), rng.gen::<u64>());
        let run = |tree: &mut DecisionTree| {
            let mut tree_rng = StdRng::seed_from_u64(tree_seed);
            fit(
                tree,
                &x,
                &mut StdRng::seed_from_u64(target_seed),
                &mut tree_rng,
            );
            tree_rng.gen::<u64>()
        };
        let mut fast = DecisionTree::new(criterion, cfg.clone());
        let mut oracle = fast.clone();
        let rng_after = run(&mut fast);
        let oracle_rng_after = reference::with(|| run(&mut oracle));
        let context = format!("seed {seed}, {n}x{cols}, {criterion:?}, {cfg:?}");
        assert_same_tree(&fast, &oracle, &context);
        assert_eq!(rng_after, oracle_rng_after, "{context}: rng state");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        #[test]
        fn gini_trees_match_reference(seed in 0u64..u64::MAX, n_classes in 2usize..5) {
            check_case(seed, SplitCriterion::Gini { n_classes }, |tree, x, labels, tree_rng| {
                // Mostly valid labels, some that round or clamp into range.
                let y: Vec<f64> = (0..x.rows())
                    .map(|_| match labels.gen_range(0..10) {
                        0 => [-1.0, 0.4, 1.6, 9.0][labels.gen_range(0..4)],
                        _ => labels.gen_range(0..n_classes) as f64,
                    })
                    .collect();
                tree.fit(x, &y, tree_rng);
            });
        }

        #[test]
        fn variance_trees_match_reference(seed in 0u64..u64::MAX) {
            check_case(seed, SplitCriterion::Variance, |tree, x, targets, tree_rng| {
                let integral = targets.gen_bool(0.3);
                let y: Vec<f64> = (0..x.rows())
                    .map(|_| {
                        if integral {
                            targets.gen_range(-3..4) as f64
                        } else {
                            targets.gen_range(-100.0..100.0)
                        }
                    })
                    .collect();
                tree.fit(x, &y, tree_rng);
            });
        }

        #[test]
        fn grad_hess_trees_match_reference(seed in 0u64..u64::MAX) {
            check_case(seed, SplitCriterion::Variance, |tree, x, stats, tree_rng| {
                let grad: Vec<f64> = (0..x.rows()).map(|_| stats.gen_range(-1.0..1.0)).collect();
                let hess: Vec<f64> = (0..x.rows())
                    .map(|_| if stats.gen_bool(0.5) { 1.0 } else { stats.gen_range(1e-6..0.25) })
                    .collect();
                tree.fit_grad_hess(x, &grad, &hess, tree_rng);
            });
        }
    }

    /// A dataset for `task` whose features carry signal, duplicates and missing values.
    fn dataset(seed: u64, task: Task) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(60..120);
        let cols = rng.gen_range(2..5);
        let x = matrix(&mut rng, n, cols);
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let signal = x
                    .row(i)
                    .iter()
                    .filter(|v| v.is_finite())
                    .sum::<f64>()
                    .tanh();
                let noise = rng.gen_range(-0.5..0.5);
                match task {
                    Task::Regression => signal * 3.0 + noise,
                    Task::BinaryClassification => f64::from(signal + noise > 0.0),
                    Task::MultiClassification { n_classes } => {
                        (((signal + noise + 1.5) / 3.0 * n_classes as f64) as usize)
                            .min(n_classes - 1) as f64
                    }
                }
            })
            .collect();
        let names = (0..cols).map(|j| format!("f{j}")).collect();
        Dataset::new(x, y, names, task)
    }

    /// Predictions and importances bit for bit, plus every tree: `{:?}` prints each float in
    /// its shortest round-trip form, so equal text means equal bits, even where a multi-class
    /// model's predictions are only class indices.
    #[test]
    fn ensembles_match_reference_growth() {
        let tasks = [
            Task::BinaryClassification,
            Task::MultiClassification { n_classes: 3 },
            Task::Regression,
        ];
        for task in tasks {
            for seed in 0..3 {
                let data = dataset(seed, task);
                let context = format!("{task:?}, seed {seed}");

                let mut fast = GradientBoosting::default();
                fast.fit(&data);
                let mut oracle = GradientBoosting::default();
                reference::with(|| oracle.fit(&data));
                assert_eq!(
                    bits(&fast.predict(&data.x)),
                    bits(&oracle.predict(&data.x)),
                    "GBDT {context}"
                );
                assert_eq!(
                    bits(&fast.feature_importances()),
                    bits(&oracle.feature_importances()),
                    "GBDT importances {context}"
                );
                assert!(
                    format!("{fast:?}") == format!("{oracle:?}"),
                    "GBDT trees {context}"
                );

                let mut fast = RandomForest::default();
                fast.fit(&data);
                let mut oracle = RandomForest::default();
                reference::with(|| oracle.fit(&data));
                assert_eq!(
                    bits(&fast.predict(&data.x)),
                    bits(&oracle.predict(&data.x)),
                    "RF {context}"
                );
                assert_eq!(
                    bits(&fast.feature_importances()),
                    bits(&oracle.feature_importances()),
                    "RF importances {context}"
                );
                assert!(
                    format!("{fast:?}") == format!("{oracle:?}"),
                    "RF trees {context}"
                );
            }
        }
    }
}
