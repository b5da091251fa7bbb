//! Typed, nullable column storage.
//!
//! Every column stores its values in a typed vector with per-row `Option` nullability.
//! Categorical columns are dictionary-encoded ([`CatColumn`]) so that equality predicates,
//! group-by keys and mutual-information estimates can work on small integer codes.

use std::collections::HashMap;

use crate::error::TabularError;
use crate::schema::DataType;
use crate::value::Value;
use crate::Result;

/// A dictionary-encoded categorical column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatColumn {
    /// Distinct values, indexed by code.
    dict: Vec<String>,
    /// Reverse lookup from value to code.
    index: HashMap<String, u32>,
    /// Per-row code (None = NULL).
    codes: Vec<Option<u32>>,
}

impl CatColumn {
    /// Empty categorical column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct non-null values seen so far.
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// The dictionary of distinct values, indexed by code.
    pub fn dictionary(&self) -> &[String] {
        &self.dict
    }

    /// Per-row codes (None = NULL).
    pub fn codes(&self) -> &[Option<u32>] {
        &self.codes
    }

    /// Code for a value if it is already in the dictionary.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// Append a (possibly null) value, interning it in the dictionary.
    pub fn push(&mut self, value: Option<&str>) {
        match value {
            None => self.codes.push(None),
            Some(v) => {
                let code = match self.index.get(v) {
                    Some(&c) => c,
                    None => {
                        let c = self.dict.len() as u32;
                        self.dict.push(v.to_string());
                        self.index.insert(v.to_string(), c);
                        c
                    }
                };
                self.codes.push(Some(code));
            }
        }
    }

    /// Value at row `i` (None if NULL or out of bounds).
    pub fn get(&self, i: usize) -> Option<&str> {
        self.codes
            .get(i)
            .and_then(|c| c.map(|c| self.dict[c as usize].as_str()))
    }

    /// Build a new column containing the rows at `indices` (in order).
    pub fn take(&self, indices: &[usize]) -> CatColumn {
        let mut out = CatColumn::new();
        for &i in indices {
            out.push(self.get(i));
        }
        out
    }

    /// Like [`CatColumn::take`], with `None` indices producing NULL rows. The dictionary is
    /// rebuilt in appearance order of the gathered rows.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> CatColumn {
        let mut out = CatColumn::new();
        for i in indices {
            out.push(i.and_then(|i| self.get(i)));
        }
        out
    }

    /// Build a new column containing the rows at `indices`, keeping this column's *entire*
    /// dictionary (codes included) instead of re-interning by gathered-row appearance order.
    ///
    /// [`CatColumn::take`] minimises the output dictionary, which renumbers codes; partitioned
    /// engines need every partition to agree on the global code assignment so that
    /// code-domain aggregates (`MODE`, `ENTROPY`, `COUNT_DISTINCT` over categoricals) and
    /// dictionary probes stay bit-identical to the unpartitioned table. Values with no
    /// surviving row simply keep an unused dictionary slot.
    pub fn take_with_dict(&self, indices: &[usize]) -> CatColumn {
        CatColumn {
            dict: self.dict.clone(),
            index: self.index.clone(),
            codes: indices.iter().map(|&i| self.codes[i]).collect(),
        }
    }

    /// Append every row of `other`, first absorbing `other`'s entire dictionary in `other`'s
    /// dictionary order (interning novel values before any row is pushed).
    ///
    /// For columns whose dictionary order equals first-appearance row order — everything built
    /// by [`CatColumn::push`] or [`CatColumn::take`] — this matches plain row-by-row pushing
    /// bit for bit. The distinction matters when `other` was built by
    /// [`CatColumn::take_with_dict`] and carries dictionary entries with no surviving rows:
    /// absorbing the dictionary keeps the receiver's code assignment in sync with the
    /// unpartitioned reference even when this partition saw none of a novel value's rows.
    pub fn extend_absorbing_dict(&mut self, other: &CatColumn) {
        for v in &other.dict {
            if !self.index.contains_key(v) {
                let c = self.dict.len() as u32;
                self.dict.push(v.clone());
                self.index.insert(v.clone(), c);
            }
        }
        for code in &other.codes {
            match code {
                None => self.codes.push(None),
                Some(c) => {
                    let v = &other.dict[*c as usize];
                    self.codes.push(Some(self.index[v]));
                }
            }
        }
    }
}

/// A typed, nullable column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int(Vec<Option<i64>>),
    /// 64-bit floats.
    Float(Vec<Option<f64>>),
    /// Booleans.
    Bool(Vec<Option<bool>>),
    /// Datetimes as seconds since the Unix epoch.
    DateTime(Vec<Option<i64>>),
    /// Dictionary-encoded strings.
    Cat(CatColumn),
}

impl Column {
    // ----- constructors ---------------------------------------------------------------------

    /// Build an integer column from non-null values.
    pub fn from_i64s(values: &[i64]) -> Column {
        Column::Int(values.iter().map(|&v| Some(v)).collect())
    }

    /// Build a float column from non-null values.
    pub fn from_f64s(values: &[f64]) -> Column {
        Column::Float(values.iter().map(|&v| Some(v)).collect())
    }

    /// Build a boolean column from non-null values.
    pub fn from_bools(values: &[bool]) -> Column {
        Column::Bool(values.iter().map(|&v| Some(v)).collect())
    }

    /// Build a datetime column from non-null epoch-second values.
    pub fn from_datetimes(values: &[i64]) -> Column {
        Column::DateTime(values.iter().map(|&v| Some(v)).collect())
    }

    /// Build a categorical column from non-null strings.
    pub fn from_strs(values: &[&str]) -> Column {
        let mut c = CatColumn::new();
        for v in values {
            c.push(Some(v));
        }
        Column::Cat(c)
    }

    /// Build a categorical column from owned strings.
    pub fn from_strings(values: &[String]) -> Column {
        let mut c = CatColumn::new();
        for v in values {
            c.push(Some(v));
        }
        Column::Cat(c)
    }

    /// Build a float column allowing nulls.
    pub fn from_opt_f64s(values: &[Option<f64>]) -> Column {
        Column::Float(values.to_vec())
    }

    /// Build an integer column allowing nulls.
    pub fn from_opt_i64s(values: &[Option<i64>]) -> Column {
        Column::Int(values.to_vec())
    }

    /// Build a categorical column allowing nulls.
    pub fn from_opt_strs(values: &[Option<&str>]) -> Column {
        let mut c = CatColumn::new();
        for v in values {
            c.push(*v);
        }
        Column::Cat(c)
    }

    /// An empty column of the given type.
    pub fn empty(dtype: DataType) -> Column {
        match dtype {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
            DataType::DateTime => Column::DateTime(Vec::new()),
            DataType::Categorical => Column::Cat(CatColumn::new()),
        }
    }

    // ----- basic accessors ------------------------------------------------------------------

    /// The column's logical type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Bool(_) => DataType::Bool,
            Column::DateTime(_) => DataType::DateTime,
            Column::Cat(_) => DataType::Categorical,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::DateTime(v) => v.len(),
            Column::Cat(c) => c.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Bool(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::DateTime(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Cat(c) => c.codes().iter().filter(|x| x.is_none()).count(),
        }
    }

    /// Cell value at row `i` ([`Value::Null`] when NULL; panics when out of bounds).
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => v[i].map(Value::Int).unwrap_or(Value::Null),
            Column::Float(v) => v[i].map(Value::Float).unwrap_or(Value::Null),
            Column::Bool(v) => v[i].map(Value::Bool).unwrap_or(Value::Null),
            Column::DateTime(v) => v[i].map(Value::DateTime).unwrap_or(Value::Null),
            Column::Cat(c) => c
                .get(i)
                .map(|s| Value::Str(s.to_string()))
                .unwrap_or(Value::Null),
        }
    }

    /// Append a [`Value`] to the column, coercing compatible types
    /// (int → float, int → datetime). Returns an error when the value cannot be stored.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (Column::Int(v), Value::Int(x)) => v.push(Some(x)),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Float(x)) => v.push(Some(x)),
            (Column::Float(v), Value::Int(x)) => v.push(Some(x as f64)),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Bool(v), Value::Bool(x)) => v.push(Some(x)),
            (Column::Bool(v), Value::Null) => v.push(None),
            (Column::DateTime(v), Value::DateTime(x)) => v.push(Some(x)),
            (Column::DateTime(v), Value::Int(x)) => v.push(Some(x)),
            (Column::DateTime(v), Value::Null) => v.push(None),
            (Column::Cat(c), Value::Str(ref s)) => c.push(Some(s)),
            (Column::Cat(c), Value::Null) => c.push(None),
            (col, value) => {
                return Err(TabularError::TypeMismatch {
                    column: String::new(),
                    expected: col.dtype().name(),
                    actual: value.data_type().name(),
                })
            }
        }
        Ok(())
    }

    /// Build a new column containing the rows at `indices` (in order, duplicates allowed).
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(indices.iter().map(|&i| v[i]).collect()),
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
            Column::DateTime(v) => Column::DateTime(indices.iter().map(|&i| v[i]).collect()),
            Column::Cat(c) => Column::Cat(c.take(indices)),
        }
    }

    /// Like [`Column::take`], but categorical columns keep their full dictionary and code
    /// assignment (see [`CatColumn::take_with_dict`]); other types behave exactly like
    /// [`Column::take`].
    pub fn take_with_dict(&self, indices: &[usize]) -> Column {
        match self {
            Column::Cat(c) => Column::Cat(c.take_with_dict(indices)),
            other => other.take(indices),
        }
    }

    /// Like [`Column::take`], with `None` indices producing NULL rows — the gather primitive
    /// behind expanding left joins, where unmatched left rows carry NULLs on the right side.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> Column {
        match self {
            Column::Int(v) => Column::Int(indices.iter().map(|i| i.and_then(|i| v[i])).collect()),
            Column::Float(v) => {
                Column::Float(indices.iter().map(|i| i.and_then(|i| v[i])).collect())
            }
            Column::Bool(v) => Column::Bool(indices.iter().map(|i| i.and_then(|i| v[i])).collect()),
            Column::DateTime(v) => {
                Column::DateTime(indices.iter().map(|i| i.and_then(|i| v[i])).collect())
            }
            Column::Cat(c) => Column::Cat(c.take_opt(indices)),
        }
    }

    /// Numeric view of the column: one `Option<f64>` per row. Strings map to `None`.
    /// Booleans become 0.0/1.0 and datetimes their epoch seconds.
    pub fn to_f64_vec(&self) -> Vec<Option<f64>> {
        match self {
            Column::Int(v) => v.iter().map(|x| x.map(|x| x as f64)).collect(),
            Column::Float(v) => v.clone(),
            Column::Bool(v) => v
                .iter()
                .map(|x| x.map(|b| if b { 1.0 } else { 0.0 }))
                .collect(),
            Column::DateTime(v) => v.iter().map(|x| x.map(|x| x as f64)).collect(),
            Column::Cat(c) => c.codes().iter().map(|x| x.map(|c| c as f64)).collect(),
        }
    }

    /// Non-null numeric values only (order preserved). Categorical codes are used for
    /// categorical columns, which is what aggregation functions such as `COUNT DISTINCT`,
    /// `MODE` and `ENTROPY` need.
    pub fn numeric_values(&self) -> Vec<f64> {
        self.to_f64_vec().into_iter().flatten().collect()
    }

    /// Minimum and maximum of the numeric view, ignoring NULLs. `None` for all-null columns.
    pub fn numeric_range(&self) -> Option<(f64, f64)> {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut seen = false;
        for v in self.to_f64_vec().into_iter().flatten() {
            if v.is_nan() {
                continue;
            }
            seen = true;
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        if seen {
            Some((min, max))
        } else {
            None
        }
    }

    /// The distinct non-null values of the column as [`Value`]s, in first-appearance order,
    /// capped at `limit` entries. Used to build predicate domains.
    pub fn distinct_values(&self, limit: usize) -> Vec<Value> {
        let mut out = Vec::new();
        match self {
            Column::Cat(c) => {
                for v in c.dictionary().iter().take(limit) {
                    out.push(Value::Str(v.clone()));
                }
            }
            _ => {
                let mut seen = Vec::new();
                for i in 0..self.len() {
                    let v = self.get(i);
                    if v.is_null() {
                        continue;
                    }
                    if !seen.contains(&v) {
                        seen.push(v.clone());
                        out.push(v);
                        if out.len() >= limit {
                            break;
                        }
                    }
                }
            }
        }
        out
    }

    /// Number of distinct non-null values (exact; walks the whole column for non-categorical
    /// types).
    pub fn n_distinct(&self) -> usize {
        match self {
            Column::Cat(c) => {
                // Only count dictionary entries that actually appear.
                let mut used = vec![false; c.cardinality()];
                for code in c.codes().iter().flatten() {
                    used[*code as usize] = true;
                }
                used.into_iter().filter(|&u| u).count()
            }
            _ => {
                let mut vals: Vec<u64> = self
                    .to_f64_vec()
                    .into_iter()
                    .flatten()
                    .map(|f| f.to_bits())
                    .collect();
                vals.sort_unstable();
                vals.dedup();
                vals.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cat_column_interns_values() {
        let mut c = CatColumn::new();
        c.push(Some("a"));
        c.push(Some("b"));
        c.push(Some("a"));
        c.push(None);
        assert_eq!(c.len(), 4);
        assert_eq!(c.cardinality(), 2);
        assert_eq!(c.get(0), Some("a"));
        assert_eq!(c.get(2), Some("a"));
        assert_eq!(c.get(3), None);
        assert_eq!(c.code_of("b"), Some(1));
        assert_eq!(c.code_of("z"), None);
    }

    #[test]
    fn column_constructors_and_len() {
        assert_eq!(Column::from_i64s(&[1, 2, 3]).len(), 3);
        assert_eq!(Column::from_f64s(&[1.0]).len(), 1);
        assert_eq!(Column::from_strs(&["a", "b"]).len(), 2);
        assert_eq!(Column::from_bools(&[true]).dtype(), DataType::Bool);
        assert_eq!(Column::from_datetimes(&[5]).dtype(), DataType::DateTime);
        assert!(Column::empty(DataType::Float).is_empty());
    }

    #[test]
    fn get_returns_null_for_missing() {
        let c = Column::from_opt_f64s(&[Some(1.0), None]);
        assert_eq!(c.get(0), Value::Float(1.0));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn push_with_coercion() {
        let mut c = Column::Float(vec![]);
        c.push(Value::Int(3)).unwrap();
        c.push(Value::Float(1.5)).unwrap();
        c.push(Value::Null).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Float(3.0));

        let mut d = Column::DateTime(vec![]);
        d.push(Value::Int(100)).unwrap();
        assert_eq!(d.get(0), Value::DateTime(100));

        let mut s = Column::Cat(CatColumn::new());
        assert!(s.push(Value::Float(1.0)).is_err());
        s.push(Value::Str("x".into())).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn take_reorders_and_duplicates() {
        let c = Column::from_i64s(&[10, 20, 30]);
        let t = c.take(&[2, 0, 0]);
        assert_eq!(t.get(0), Value::Int(30));
        assert_eq!(t.get(1), Value::Int(10));
        assert_eq!(t.get(2), Value::Int(10));
    }

    #[test]
    fn take_opt_inserts_nulls() {
        let c = Column::from_strs(&["a", "b", "c"]);
        let t = c.take_opt(&[Some(2), None, Some(2), Some(0)]);
        assert_eq!(t.get(0), Value::Str("c".into()));
        assert_eq!(t.get(1), Value::Null);
        assert_eq!(t.get(2), Value::Str("c".into()));
        assert_eq!(t.get(3), Value::Str("a".into()));
        // Dictionary is rebuilt in appearance order of the gathered rows.
        match t {
            Column::Cat(c) => assert_eq!(c.dictionary(), &["c".to_string(), "a".to_string()]),
            other => panic!("expected categorical, got {other:?}"),
        }
    }

    #[test]
    fn numeric_views() {
        let c = Column::from_opt_i64s(&[Some(1), None, Some(3)]);
        assert_eq!(c.to_f64_vec(), vec![Some(1.0), None, Some(3.0)]);
        assert_eq!(c.numeric_values(), vec![1.0, 3.0]);
        assert_eq!(c.numeric_range(), Some((1.0, 3.0)));

        let all_null = Column::from_opt_f64s(&[None, None]);
        assert_eq!(all_null.numeric_range(), None);
    }

    #[test]
    fn distinct_values_and_counts() {
        let c = Column::from_strs(&["a", "b", "a", "c"]);
        let d = c.distinct_values(10);
        assert_eq!(d.len(), 3);
        assert_eq!(c.n_distinct(), 3);

        let n = Column::from_i64s(&[5, 5, 7]);
        assert_eq!(n.n_distinct(), 2);
        assert_eq!(n.distinct_values(1).len(), 1);
    }

    #[test]
    fn take_with_dict_preserves_codes_and_dictionary() {
        let mut c = CatColumn::new();
        for v in ["a", "b", "c", "b", "d"] {
            c.push(Some(v));
        }
        // Keep only rows of "c" and "b": plain take would renumber, take_with_dict must not.
        let t = c.take_with_dict(&[2, 3]);
        assert_eq!(t.dictionary(), c.dictionary());
        assert_eq!(t.codes(), &[Some(2), Some(1)]);
        assert_eq!(t.code_of("d"), Some(3), "row-less values keep their code");
        assert_eq!(t.get(0), Some("c"));

        let col = Column::Cat(c.clone());
        match col.take_with_dict(&[2, 3]) {
            Column::Cat(tc) => assert_eq!(tc, t),
            other => panic!("expected categorical, got {other:?}"),
        }
        // Non-categorical columns delegate to plain take.
        let ints = Column::from_i64s(&[10, 20, 30]);
        assert_eq!(ints.take_with_dict(&[2, 0]), ints.take(&[2, 0]));
    }

    #[test]
    fn extend_absorbing_dict_matches_row_pushes_and_absorbs_rowless_values() {
        // Push-built batch: absorbing must equal row-by-row pushing.
        let mut base = CatColumn::new();
        base.push(Some("a"));
        base.push(Some("b"));
        let mut batch = CatColumn::new();
        for v in [Some("c"), Some("a"), None, Some("d")] {
            batch.push(v);
        }
        let mut absorbed = base.clone();
        absorbed.extend_absorbing_dict(&batch);
        let mut pushed = base.clone();
        for i in 0..batch.len() {
            pushed.push(batch.get(i));
        }
        assert_eq!(absorbed.codes(), pushed.codes());
        assert_eq!(absorbed.dictionary(), pushed.dictionary());

        // take_with_dict-built batch: dictionary entries with no rows are still interned,
        // in the batch's dictionary order.
        let rowless = batch.take_with_dict(&[1]); // one "a" row, dict still [c, a, d]
        let mut target = base.clone();
        target.extend_absorbing_dict(&rowless);
        assert_eq!(
            target.dictionary(),
            &["a", "b", "c", "d"].map(String::from),
            "novel values interned in the batch's dictionary order, rows or not"
        );
        assert_eq!(target.codes(), &[Some(0), Some(1), Some(0)]);
    }

    #[test]
    fn n_distinct_ignores_unused_dictionary_entries() {
        let mut c = CatColumn::new();
        c.push(Some("a"));
        c.push(Some("b"));
        let col = Column::Cat(c.take(&[0])); // only "a" survives
        assert_eq!(col.n_distinct(), 1);
    }
}
