//! Reusable row-selection bitmasks.
//!
//! Candidate-query evaluation filters the same relevant table thousands of
//! times per search. Materialising a filtered [`Table`] per candidate (clone +
//! `take`) dominates the cost; a [`SelectionMask`] instead records the
//! predicate outcome as one bit per row, can be reused across evaluations
//! without reallocating, and is cheap to intersect for conjunctions.
//!
//! The leaf fillers ([`fill_eq`], [`fill_range`], [`fill_range_view`]) mirror
//! [`Predicate::evaluate`]'s semantics exactly — same NULL handling, same
//! categorical fast path, same [`crate::value::Value::total_cmp`] fallback —
//! so a mask-driven evaluator produces bit-identical results to the
//! materialise-then-aggregate reference path.

use crate::column::Column;
use crate::predicate::Predicate;
use crate::table::Table;
use crate::value::Value;
use crate::Result;

/// A bitmask over the rows of a table (one bit per row, packed into words).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectionMask {
    bits: Vec<u64>,
    len: usize,
}

impl SelectionMask {
    /// An empty mask (zero rows).
    pub fn new() -> SelectionMask {
        SelectionMask::default()
    }

    /// A mask of `len` rows, all set to `value`.
    pub fn with_len(len: usize, value: bool) -> SelectionMask {
        let mut m = SelectionMask::new();
        m.reset(len, value);
        m
    }

    /// Number of rows covered by the mask.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resize to `len` rows and set every bit to `value`, reusing the
    /// allocation.
    pub fn reset(&mut self, len: usize, value: bool) {
        self.len = len;
        let words = len.div_ceil(64);
        let fill = if value { u64::MAX } else { 0 };
        self.bits.clear();
        self.bits.resize(words, fill);
        self.trim_tail();
    }

    /// Zero any bits beyond `len` in the last word (keeps `count_ones` exact).
    fn trim_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.bits.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// The bit for `row`.
    #[inline]
    pub fn get(&self, row: usize) -> bool {
        debug_assert!(row < self.len);
        self.bits[row / 64] >> (row % 64) & 1 == 1
    }

    /// Set the bit for `row`.
    #[inline]
    pub fn set(&mut self, row: usize, value: bool) {
        debug_assert!(row < self.len);
        let word = &mut self.bits[row / 64];
        let bit = 1u64 << (row % 64);
        if value {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Rebuild the mask as `len` rows where row `i` is set iff `f(i)`.
    /// Builds whole words at a time, avoiding per-bit read-modify-write.
    pub fn fill_from(&mut self, len: usize, mut f: impl FnMut(usize) -> bool) {
        self.len = len;
        self.bits.clear();
        self.bits.reserve(len.div_ceil(64));
        let mut row = 0;
        while row < len {
            let span = (len - row).min(64);
            let mut word = 0u64;
            for b in 0..span {
                if f(row + b) {
                    word |= 1u64 << b;
                }
            }
            self.bits.push(word);
            row += span;
        }
    }

    /// Intersect with another mask of the same length.
    pub fn and_assign(&mut self, other: &SelectionMask) {
        assert_eq!(self.len, other.len, "mask length mismatch");
        for (dst, src) in self.bits.iter_mut().zip(&other.bits) {
            *dst &= *src;
        }
    }

    /// Number of selected rows.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Visit every selected row index in ascending order, one 64-bit word at
    /// a time: saturated words (the common case for dense selections and
    /// trivial predicates) take a branch-free counted loop instead of paying
    /// per-bit `trailing_zeros` dispatch; sparse words still skip straight to
    /// each set bit.
    #[inline]
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.bits.iter().enumerate() {
            let base = wi * 64;
            if word == u64::MAX {
                for b in 0..64 {
                    f(base + b);
                }
                continue;
            }
            let mut w = word;
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                f(base + b);
                w &= w - 1;
            }
        }
    }

    /// The selected row indices, materialised (ascending). Mostly for tests.
    pub fn to_indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        self.for_each_set(|i| out.push(i));
        out
    }
}

/// Fill `mask` with `column = value` semantics (NULL never matches). Identical
/// to the equality leaf of [`Predicate::evaluate`]: dictionary-code comparison
/// for categorical columns, [`Value::total_cmp`] otherwise.
pub fn fill_eq(col: &Column, value: &Value, mask: &mut SelectionMask) {
    match (col, value) {
        (Column::Cat(c), Value::Str(s)) => {
            let target = c.code_of(s);
            let codes = c.codes();
            mask.fill_from(codes.len(), |i| match (codes[i], target) {
                (Some(rc), Some(t)) => rc == t,
                _ => false,
            });
        }
        _ => {
            let n = col.len();
            if value.is_null() {
                mask.reset(n, false);
                return;
            }
            mask.fill_from(n, |i| {
                let v = col.get(i);
                !v.is_null() && v.total_cmp(value) == std::cmp::Ordering::Equal
            });
        }
    }
}

/// Fill `mask` with `low <= view <= high` semantics over a pre-extracted
/// numeric view (NULL rows never match; an absent bound is unbounded).
pub fn fill_range_view(
    view: &[Option<f64>],
    low: Option<f64>,
    high: Option<f64>,
    mask: &mut SelectionMask,
) {
    mask.fill_from(view.len(), |i| match view[i] {
        None => false,
        Some(x) => low.map(|l| x >= l).unwrap_or(true) && high.map(|h| x <= h).unwrap_or(true),
    });
}

/// Fill `mask` with range-predicate semantics against a column. Identical to
/// the range leaf of [`Predicate::evaluate`].
pub fn fill_range(
    col: &Column,
    low: Option<&Value>,
    high: Option<&Value>,
    mask: &mut SelectionMask,
) {
    let lo = low.and_then(|v| v.as_f64());
    let hi = high.and_then(|v| v.as_f64());
    fill_range_view(&col.to_f64_vec(), lo, hi, mask);
}

/// Evaluate `predicate` over every row of `table` into `mask` (resizing it to
/// the table's row count). Equivalent to `predicate.evaluate(table)` without
/// allocating a fresh `Vec<bool>` per call.
pub fn select_into(table: &Table, predicate: &Predicate, mask: &mut SelectionMask) -> Result<()> {
    match predicate {
        Predicate::True => {
            mask.reset(table.num_rows(), true);
            Ok(())
        }
        Predicate::Eq { column, value } => {
            fill_eq(table.column(column)?, value, mask);
            Ok(())
        }
        Predicate::Range { column, low, high } => {
            fill_range(table.column(column)?, low.as_ref(), high.as_ref(), mask);
            Ok(())
        }
        Predicate::And(preds) => {
            mask.reset(table.num_rows(), true);
            let mut scratch = SelectionMask::new();
            for p in preds {
                select_into(table, p, &mut scratch)?;
                mask.and_assign(&scratch);
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Masks are the per-worker scratch of the parallel query engine: they
    /// must stay plain data, movable into and shareable across worker
    /// threads. Compile-time check — an interior `Rc`/`RefCell` regression
    /// would fail here before it fails in the engine.
    #[test]
    fn selection_mask_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SelectionMask>();
    }

    fn logs() -> Table {
        let mut t = Table::new("logs");
        t.add_column(
            "dept",
            Column::from_opt_strs(&[Some("E"), Some("H"), Some("E"), None]),
        )
        .unwrap();
        t.add_column(
            "price",
            Column::from_opt_f64s(&[Some(10.0), Some(20.0), None, Some(5.0)]),
        )
        .unwrap();
        t.add_column("ts", Column::from_datetimes(&[100, 200, 300, 400]))
            .unwrap();
        t
    }

    #[test]
    fn mask_bit_operations_and_counts() {
        let mut m = SelectionMask::with_len(130, false);
        assert_eq!(m.len(), 130);
        assert_eq!(m.count_ones(), 0);
        m.set(0, true);
        m.set(64, true);
        m.set(129, true);
        assert!(m.get(0) && m.get(64) && m.get(129));
        assert!(!m.get(1));
        assert_eq!(m.count_ones(), 3);
        assert_eq!(m.to_indices(), vec![0, 64, 129]);
        m.set(64, false);
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn reset_trims_tail_bits() {
        let mut m = SelectionMask::new();
        m.reset(70, true);
        assert_eq!(m.count_ones(), 70);
        m.reset(3, true);
        assert_eq!(m.count_ones(), 3);
    }

    #[test]
    fn fill_from_builds_words() {
        let mut m = SelectionMask::new();
        m.fill_from(200, |i| i % 3 == 0);
        assert_eq!(m.count_ones(), 67);
        assert!(m.get(0) && m.get(3) && m.get(198));
        assert!(!m.get(1));
    }

    /// The saturated-word fast path in `for_each_set` must visit exactly the
    /// same indices, in the same order, as the sparse bit-skipping path —
    /// across full words, partial tails, and mixed densities.
    #[test]
    fn for_each_set_full_word_fast_path_matches_sparse_path() {
        type Shape = (usize, Box<dyn Fn(usize) -> bool>);
        let shapes: Vec<Shape> = vec![
            (64, Box::new(|_| true)),                      // exactly one saturated word
            (130, Box::new(|_| true)),                     // saturated words + ragged tail
            (200, Box::new(|i| i < 64 || i % 7 == 0)),     // saturated then sparse
            (320, Box::new(|i| !(128..192).contains(&i))), // hole mid-mask
            (63, Box::new(|_| true)),                      // all-true but below one word
        ];
        for (len, pred) in shapes {
            let mut m = SelectionMask::new();
            m.fill_from(len, &pred);
            let mut visited = Vec::new();
            m.for_each_set(|i| visited.push(i));
            let expected: Vec<usize> = (0..len).filter(|&i| pred(i)).collect();
            assert_eq!(visited, expected, "len {len}");
        }
    }

    #[test]
    fn and_assign_intersects() {
        let mut a = SelectionMask::new();
        a.fill_from(100, |i| i % 2 == 0);
        let mut b = SelectionMask::new();
        b.fill_from(100, |i| i % 3 == 0);
        a.and_assign(&b);
        assert_eq!(
            a.to_indices(),
            (0..100).filter(|i| i % 6 == 0).collect::<Vec<_>>()
        );
    }

    /// Every predicate shape must agree with the Vec<bool> reference
    /// evaluator on the same table.
    #[test]
    fn select_into_matches_predicate_evaluate() {
        let t = logs();
        let predicates = vec![
            Predicate::True,
            Predicate::eq("dept", "E"),
            Predicate::eq("dept", "Z"),
            Predicate::between("price", 6.0, 25.0),
            Predicate::ge("ts", 250),
            Predicate::range("price", None, None),
            Predicate::and(vec![Predicate::eq("dept", "E"), Predicate::le("ts", 150)]),
        ];
        let mut mask = SelectionMask::new();
        for p in predicates {
            let reference = p.evaluate(&t).unwrap();
            select_into(&t, &p, &mut mask).unwrap();
            let got: Vec<bool> = (0..t.num_rows()).map(|i| mask.get(i)).collect();
            assert_eq!(got, reference, "predicate {p}");
        }
    }

    #[test]
    fn fill_eq_null_value_matches_nothing() {
        let t = logs();
        let mut mask = SelectionMask::new();
        fill_eq(t.column("price").unwrap(), &Value::Null, &mut mask);
        assert_eq!(mask.count_ones(), 0);
        assert_eq!(mask.len(), 4);
    }

    #[test]
    fn missing_column_errors() {
        let t = logs();
        let mut mask = SelectionMask::new();
        assert!(select_into(&t, &Predicate::eq("nope", "E"), &mut mask).is_err());
    }
}
