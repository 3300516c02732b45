//! Metadata-based retrieval — the access path the paper's case study
//! protects: "Another way is to query metadata, usually posing queries on
//! fields such as species taxonomy, and location where the sound was
//! recorded. Queries on metadata are limited to the stored fields, which
//! are often incomplete or blank" (§II-C).
//!
//! A [`Filter`] is a composable predicate over records; a [`Query`] is a
//! filter plus result shaping. Because filters only match *typed, filled*
//! fields, the scope of answerable queries literally grows as curation
//! fills and types fields — the paper's second direction ("enhancing the
//! scope of queries that can be supported"), measured in `exp_queries`.

use serde::{Deserialize, Serialize};

use crate::record::Record;
use crate::value::{Date, Value};

/// A composable predicate over a record.
///
/// # Example
///
/// ```
/// use preserva_metadata::query::{Filter, Query};
/// use preserva_metadata::record::Record;
/// use preserva_metadata::value::Value;
///
/// let records = vec![
///     Record::new("1").with("species", Value::Text("Hyla faber".into())),
///     Record::new("2").with("species", Value::Text("Scinax ruber".into())),
/// ];
/// let q = Query::new(Filter::species("hyla faber")); // case-insensitive
/// assert_eq!(q.count(&records), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Filter {
    /// Text field equals (case/whitespace-insensitive).
    TextEq {
        /// Field to test.
        field: String,
        /// Expected text (normalized before comparison).
        value: String,
    },
    /// Text field contains the needle (case-insensitive).
    TextContains {
        /// Field to test.
        field: String,
        /// Substring to look for (case-insensitive).
        needle: String,
    },
    /// Typed date field within `[from, to]` inclusive.
    DateRange {
        /// Field to test (must hold a typed date).
        field: String,
        /// Inclusive start.
        from: Date,
        /// Inclusive end.
        to: Date,
    },
    /// Numeric field within `[min, max]` inclusive.
    NumericRange {
        /// Field to test.
        field: String,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// Coordinates field within the bounding box.
    SpatialBox {
        /// Field to test (must hold coordinates).
        field: String,
        /// Southern edge.
        min_lat: f64,
        /// Northern edge.
        max_lat: f64,
        /// Western edge.
        min_lon: f64,
        /// Eastern edge.
        max_lon: f64,
    },
    /// Field present and non-blank.
    Filled {
        /// Field that must be present and non-blank.
        field: String,
    },
    /// Conjunction.
    And(Vec<Filter>),
    /// Disjunction.
    Or(Vec<Filter>),
    /// Negation.
    Not(Box<Filter>),
}

/// The text normal form [`Filter::TextEq`] compares under: whitespace
/// runs collapsed to one space, ends trimmed, lowercased. Index keys
/// built over text fields use it too, so an index probe and the filter
/// it accelerates agree on which texts are equal.
pub fn norm(s: &str) -> String {
    s.split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .to_lowercase()
}

impl Filter {
    /// Whether `record` satisfies this filter. Missing or wrongly-typed
    /// fields never match (a blank field cannot answer a query — that is
    /// the point the paper makes about incomplete metadata).
    pub fn matches(&self, record: &Record) -> bool {
        match self {
            Filter::TextEq { field, value } => record
                .get_text(field)
                .map(|s| norm(s) == norm(value))
                .unwrap_or(false),
            Filter::TextContains { field, needle } => record
                .get_text(field)
                .map(|s| norm(s).contains(&norm(needle)))
                .unwrap_or(false),
            Filter::DateRange { field, from, to } => match record.get(field) {
                Some(Value::Date(d)) => d >= from && d <= to,
                _ => false,
            },
            Filter::NumericRange { field, min, max } => record
                .get(field)
                .and_then(Value::as_f64)
                .map(|v| v >= *min && v <= *max)
                .unwrap_or(false),
            Filter::SpatialBox {
                field,
                min_lat,
                max_lat,
                min_lon,
                max_lon,
            } => match record.get(field) {
                Some(Value::Coordinates(c)) => {
                    c.lat >= *min_lat && c.lat <= *max_lat && c.lon >= *min_lon && c.lon <= *max_lon
                }
                _ => false,
            },
            Filter::Filled { field } => record.is_filled(field),
            Filter::And(fs) => fs.iter().all(|f| f.matches(record)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(record)),
            Filter::Not(f) => !f.matches(record),
        }
    }

    /// Convenience: `species == value`.
    pub fn species(value: &str) -> Filter {
        Filter::TextEq {
            field: "species".into(),
            value: value.into(),
        }
    }
}

/// A query: filter + shaping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Predicate records must satisfy.
    pub filter: Filter,
    /// Maximum results (`None` = all).
    pub limit: Option<usize>,
}

impl Query {
    /// A query returning every match.
    pub fn new(filter: Filter) -> Query {
        Query {
            filter,
            limit: None,
        }
    }

    /// Cap results (builder style).
    pub fn limit(mut self, n: usize) -> Query {
        self.limit = Some(n);
        self
    }

    /// Run against an in-memory collection, preserving input order.
    pub fn run<'a>(&self, records: &'a [Record]) -> Vec<&'a Record> {
        let it = records.iter().filter(|r| self.filter.matches(r));
        match self.limit {
            Some(n) => it.take(n).collect(),
            None => it.collect(),
        }
    }

    /// Count matches without materializing.
    pub fn count(&self, records: &[Record]) -> usize {
        records.iter().filter(|r| self.filter.matches(r)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Coordinates;

    fn records() -> Vec<Record> {
        vec![
            Record::new("1")
                .with("species", Value::Text("Hyla faber".into()))
                .with("state", Value::Text("São Paulo".into()))
                .with("collect_date", Value::Date(Date::new(1982, 3, 15).unwrap()))
                .with("air_temperature_c", Value::Float(24.0))
                .with(
                    "coordinates",
                    Value::Coordinates(Coordinates::new(-22.9, -47.0).unwrap()),
                ),
            Record::new("2")
                .with("species", Value::Text("Scinax ruber".into()))
                .with("state", Value::Text("Amazonas".into()))
                .with("collect_date", Value::Text("15.III.1982".into())), // untyped!
            Record::new("3")
                .with("species", Value::Text("  hyla   faber ".into()))
                .with("state", Value::Text("São Paulo".into())),
        ]
    }

    #[test]
    fn text_eq_normalizes() {
        let f = Filter::species("HYLA FABER");
        let rs = records();
        let hits: Vec<&str> = Query::new(f)
            .run(&rs)
            .iter()
            .map(|r| r.id.as_str())
            .collect();
        assert_eq!(hits, vec!["1", "3"]); // dirty spelling still matches
    }

    #[test]
    fn date_range_needs_typed_dates() {
        let f = Filter::DateRange {
            field: "collect_date".into(),
            from: Date::new(1980, 1, 1).unwrap(),
            to: Date::new(1985, 12, 31).unwrap(),
        };
        let rs = records();
        // Record 2's date is legacy text → not queryable until curated.
        assert_eq!(Query::new(f).count(&rs), 1);
    }

    #[test]
    fn numeric_and_spatial() {
        let rs = records();
        let warm = Filter::NumericRange {
            field: "air_temperature_c".into(),
            min: 20.0,
            max: 30.0,
        };
        assert_eq!(Query::new(warm).count(&rs), 1);
        let sp_box = Filter::SpatialBox {
            field: "coordinates".into(),
            min_lat: -24.0,
            max_lat: -21.0,
            min_lon: -48.0,
            max_lon: -46.0,
        };
        assert_eq!(Query::new(sp_box).count(&rs), 1);
    }

    #[test]
    fn boolean_composition() {
        let rs = records();
        let f = Filter::And(vec![
            Filter::TextEq {
                field: "state".into(),
                value: "são paulo".into(),
            },
            Filter::Not(Box::new(Filter::Filled {
                field: "coordinates".into(),
            })),
        ]);
        let hits: Vec<&str> = Query::new(f)
            .run(&rs)
            .iter()
            .map(|r| r.id.as_str())
            .collect();
        assert_eq!(hits, vec!["3"]);
        let either = Filter::Or(vec![
            Filter::species("Hyla faber"),
            Filter::species("Scinax ruber"),
        ]);
        assert_eq!(Query::new(either).count(&rs), 3);
    }

    #[test]
    fn limit_caps_results() {
        let rs = records();
        let q = Query::new(Filter::Filled {
            field: "species".into(),
        })
        .limit(2);
        assert_eq!(q.run(&rs).len(), 2);
    }

    #[test]
    fn contains_matches_substring() {
        let rs = records();
        let f = Filter::TextContains {
            field: "species".into(),
            needle: "faber".into(),
        };
        assert_eq!(Query::new(f).count(&rs), 2);
        let none = Filter::TextContains {
            field: "species".into(),
            needle: "zzz".into(),
        };
        assert_eq!(Query::new(none).count(&rs), 0);
    }

    #[test]
    fn serde_roundtrip() {
        let q = Query::new(Filter::And(vec![
            Filter::species("Hyla faber"),
            Filter::Filled {
                field: "coordinates".into(),
            },
        ]))
        .limit(10);
        let s = serde_json::to_string(&q).unwrap();
        let back: Query = serde_json::from_str(&s).unwrap();
        assert_eq!(q, back);
    }
}
