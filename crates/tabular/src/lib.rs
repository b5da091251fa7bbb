//! # feataug-tabular
//!
//! An in-memory columnar table engine providing exactly the relational operators that
//! predicate-aware feature augmentation needs:
//!
//! * typed, nullable columns ([`Column`]) with dictionary-encoded categoricals,
//! * schemas and tables ([`Schema`], [`Table`]),
//! * predicate evaluation ([`Predicate`]) — equality predicates on categorical columns and
//!   (one- or two-sided) range predicates on numeric / datetime columns,
//! * group-by aggregation ([`groupby::group_by_aggregate`]) with the fifteen aggregation
//!   functions used by the FeatAug paper ([`AggFunc`]), plus compiled streaming / sorted-run /
//!   frequency kernels for them ([`kernels`]) that query engines drive incrementally,
//! * left joins ([`join::left_join`]) to attach generated features to a training table,
//! * a small CSV reader/writer for interoperability.
//!
//! The engine deliberately trades generality for clarity: every operator is implemented directly
//! over column vectors so that the feature-search algorithms in the `feataug` crate exercise a
//! realistic materialise-and-evaluate code path without requiring an external database.
//!
//! ## Quick example
//!
//! ```
//! use feataug_tabular::{Table, Column, AggFunc, Predicate, groupby::group_by_aggregate};
//!
//! let mut logs = Table::new("user_logs");
//! logs.add_column("cname", Column::from_strs(&["a", "a", "b", "b", "b"])).unwrap();
//! logs.add_column("pprice", Column::from_f64s(&[10.0, 20.0, 5.0, 15.0, 40.0])).unwrap();
//! logs.add_column("department", Column::from_strs(&["E", "H", "E", "E", "H"])).unwrap();
//!
//! // SELECT cname, AVG(pprice) FROM logs WHERE department = 'E' GROUP BY cname
//! let filtered = logs.filter(&Predicate::eq("department", "E")).unwrap();
//! let feats = group_by_aggregate(&filtered, &["cname"], AggFunc::Avg, "pprice", "feature").unwrap();
//! assert_eq!(feats.num_rows(), 2);
//! ```

pub mod aggregate;
pub mod column;
pub mod csv;
pub mod error;
pub mod groupby;
pub mod join;
pub mod kernels;
pub mod predicate;
pub mod schema;
pub mod selection;
pub mod table;
pub mod value;

pub use aggregate::AggFunc;
pub use column::Column;
pub use error::TabularError;
pub use predicate::Predicate;
pub use schema::{DataType, Field, Schema};
pub use selection::SelectionMask;
pub use table::Table;
pub use value::Value;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TabularError>;
