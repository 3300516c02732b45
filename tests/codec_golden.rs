//! The JSON codec's bytes and rules, pinned.
//!
//! Every stored row, journal entry and HTTP body in the archive is
//! written by the vendored `serde_json`. [`GOLDEN`] holds what the
//! tree-based codec this one replaced produced for the cases in
//! [`cases`], captured by running that codec on the same inputs: output
//! strings for encoded values, and the decoded value's `Debug` (or
//! `error`) for each input rule. The `in.depth.*` rules are the one
//! exception: that codec had no nesting limit, and recursed until the
//! stack overflowed, so their expected strings state the 128-level limit
//! instead. A change to the codec that moves a single byte of stored or
//! served JSON fails here. The property tests at the end round-trip
//! random records through both directions.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use proptest::prelude::*;
use serde_json::{json, Value as Json};

use preserva::curation::log::LogEntry;
use preserva::curation::CurationEvent;
use preserva::fnjv::{generate, GeneratorConfig};
use preserva::metadata::value::{Coordinates, TimeOfDay};
use preserva::metadata::{Date, Record, Value};
use preserva::opm::edge::Edge;
use preserva::opm::graph::OpmGraph;
use preserva::opm::model::{Account, Agent, Artifact, NodeId, Process};
use preserva::search::DocState;
use preserva::taxonomy::diff::{ChecklistDiff, NameStatusChange};
use preserva::taxonomy::name::ScientificName;
use preserva::taxonomy::status::NameStatus;

/// A struct exercising the derive attributes the workspace uses.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Attrs {
    plain: u8,
    #[serde(skip_serializing_if = "Option::is_none", default)]
    skipped: Option<String>,
    #[serde(default)]
    listed: Vec<i32>,
    maybe: Option<bool>,
}

/// A tuple struct of two, which encodes as a sequence.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Pair(u8, String);

fn date(y: i32, m: u8, d: u8) -> Date {
    Date::new(y, m, d).expect("valid date")
}

/// The first seed-42 record, completed so it holds every `Value` kind.
fn generated_record() -> Record {
    let config = GeneratorConfig {
        records: 40,
        distinct_species: 20,
        outdated_names: 2,
        ..GeneratorConfig::small(42)
    };
    generate(&config).records[0]
        .clone()
        .with("count", Value::Integer(-3))
        .with("temperature", Value::Float(21.0))
        .with("humidity", Value::Float(0.625))
        .with("collect_date", Value::Date(date(1987, 11, 4)))
        .with(
            "collect_time",
            Value::Time(TimeOfDay::new(5, 30).expect("valid time")),
        )
        .with(
            "coordinates",
            Value::Coordinates(Coordinates::new(-22.9056, -47.0608).expect("valid")),
        )
        .with("georeferenced", Value::Boolean(true))
}

fn tricky_record() -> Record {
    Record::new("R-\"q\"\\ção")
        .with(
            "notes",
            Value::Text("line\nbreak\ttab \u{1} \u{1f} 🐸 日本".into()),
        )
        .with("big", Value::Float(1e20))
        .with("tiny", Value::Float(1.5e-7))
        .with("max", Value::Integer(i64::MAX))
        .with("min", Value::Integer(i64::MIN))
        .with("empty", Value::Text(String::new()))
}

fn log_entries() -> Vec<LogEntry> {
    let events = vec![
        CurationEvent::FieldChanged {
            field: "species".into(),
            old: Some(Value::Text("Hyla faber ".into())),
            new: Value::Text("Hyla faber".into()),
            reason: "trimmed whitespace".into(),
        },
        CurationEvent::FieldChanged {
            field: "collect_date".into(),
            old: None,
            new: Value::Date(date(1975, 2, 28)),
            reason: "parsed legacy date".into(),
        },
        CurationEvent::Flagged {
            field: Some("coordinates".into()),
            message: "outside the state".into(),
        },
        CurationEvent::Flagged {
            field: None,
            message: "whole record".into(),
        },
        CurationEvent::NameUpdateProposed {
            old: "Elachistocleis ovalis".into(),
            new: "Elachistocleis cesarii".into(),
        },
        CurationEvent::Validated {
            subject: "species".into(),
            curator: "ana".into(),
        },
        CurationEvent::Rejected {
            subject: "species".into(),
            curator: "ana".into(),
            reason: "keep \"as is\"".into(),
        },
    ];
    events
        .into_iter()
        .enumerate()
        .map(|(i, event)| LogEntry {
            seq: i as u64,
            record_id: format!("FNJV-{i:06}"),
            source: "stage1".into(),
            event,
        })
        .collect()
}

fn doc_state() -> DocState {
    let mut doc = DocState::default();
    doc.tokens.insert(
        "species".into(),
        ["faber", "hyla"].iter().map(|s| s.to_string()).collect(),
    );
    doc.tokens
        .insert("country".into(), ["brazil".to_string()].into());
    doc.facets.insert(("family".into(), "Hylidae".into()));
    doc.facets.insert(("quality".into(), "high".into()));
    doc.name = Some("Hyla faber".into());
    doc
}

fn checklist_diff() -> ChecklistDiff {
    let name = |s: &str| ScientificName::parse(s).expect("valid name");
    ChecklistDiff {
        from_year: 1995,
        to_year: 2013,
        changes: vec![
            NameStatusChange {
                name: name("Elachistocleis ovalis"),
                old: NameStatus::Accepted,
                new: NameStatus::NomenInquirendum,
            },
            NameStatusChange {
                name: name("Hyla albopunctata"),
                old: NameStatus::Accepted,
                new: NameStatus::Synonym {
                    accepted: name("Boana albopunctata"),
                },
            },
            NameStatusChange {
                name: name("Hyla nova"),
                old: NameStatus::Unknown,
                new: NameStatus::Accepted,
            },
        ],
    }
}

fn opm_graph() -> OpmGraph {
    let mut g = OpmGraph::new();
    let a = g.add_artifact(Artifact::new("a:rec", "record").with_annotation("quality", "0.93"));
    let out = g.add_artifact(Artifact::new("a:out", "curated"));
    let p = g.add_process(Process::new("p:clean", "clean"));
    let ag = g.add_agent(Agent::new("ag:ana", "Ana"));
    g.edges.push(Edge::used(p.clone(), a.clone(), Some("in")));
    g.edges.push(
        Edge::was_generated_by(out.clone(), p.clone(), None).in_account(Account::new("run-1")),
    );
    g.edges
        .push(Edge::was_controlled_by(p, ag, Some("curator")));
    g.edges
        .push(Edge::was_derived_from(out, a).with_annotation("why", "cleaning"));
    g.accounts.insert(Account::new("run-1"));
    g
}

/// `Ok(Debug)` of a decoded value, or `error`.
fn decoded<T: std::fmt::Debug>(r: serde_json::Result<T>) -> String {
    match r {
        Ok(v) => format!("{v:?}"),
        Err(_) => "error".to_string(),
    }
}

fn enc<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

fn pretty<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializes")
}

/// `depth` empty arrays, each inside the last.
fn nested(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

/// How many arrays and objects nest in `v`, counting `v` itself.
fn depth_of(v: &Json) -> usize {
    match v {
        Json::Array(items) => 1 + items.iter().map(depth_of).max().unwrap_or(0),
        Json::Object(map) => 1 + map.values().map(depth_of).max().unwrap_or(0),
        _ => 0,
    }
}

/// A `Date` whose unknown field `x` holds `depth` nested arrays, so
/// the document nests `depth + 1` levels.
fn date_with_unknown_depth(depth: usize) -> String {
    format!(r#"{{"year":2000,"x":{},"month":1,"day":2}}"#, nested(depth))
}

/// A record body with an unknown field 100,000 arrays deep: 200,027
/// bytes, under the server's 1 MiB body limit.
fn deep_record() -> String {
    format!(r#"{{"id":"a","fields":{{}},"x":{}}}"#, nested(100_000))
}

/// Every pinned case: `(name, what the codec produces)`.
fn cases() -> Vec<(String, String)> {
    let rec = generated_record();
    let floats = [
        1.0,
        -0.0,
        0.1,
        -2.5,
        1e15,
        1e16,
        123456789012345680.0,
        1e21,
        1.5e-7,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
    ];
    let int_keys: HashMap<i32, &str> = [(10, "a"), (9, "b"), (-1, "c")].into();
    let string_keys: HashMap<String, u8> =
        [("b".into(), 1), ("a".into(), 2), ("B".into(), 3)].into();
    let newtype_keys: BTreeMap<NodeId, u8> = [(NodeId::new("z"), 1), (NodeId::new("a"), 2)].into();
    let skipped = Attrs {
        plain: 1,
        skipped: None,
        listed: vec![],
        maybe: None,
    };
    let kept = Attrs {
        plain: 2,
        skipped: Some("s".into()),
        listed: vec![-1, 2],
        maybe: Some(false),
    };
    let mut cases = vec![
        ("record.generated", enc(&rec)),
        ("record.tricky", enc(&tricky_record())),
        ("doc_state", enc(&doc_state())),
        ("checklist_diff", enc(&checklist_diff())),
        ("opm_graph", enc(&opm_graph())),
        (
            "reply.get",
            json!({"record": rec, "as_of_lsn": 23_934u64}).to_string(),
        ),
        (
            "reply.listing",
            json!({
                "total": 2usize,
                "records": vec![rec.clone(), tricky_record()],
                "as_of_lsn": 7u64,
            })
            .to_string(),
        ),
        (
            "reply.put",
            json!({"id": rec.id, "first_seq": 1u64, "last_seq": 3u64, "lsn": 9u64}).to_string(),
        ),
        (
            "reply.error",
            json!({ "error": "bad record body: expected `,`" }).to_string(),
        ),
        (
            "pretty.nested",
            pretty(&json!({
                "a": [1, {"b": null, "c": [], "d": {}}, [true, false]],
                "e": "x\ny",
                "f": 2.0,
                "g": -0.5,
            })),
        ),
        ("pretty.record", pretty(&rec)),
        (
            "strings.escapes",
            enc("quote \" backslash \\ slash / nl \n cr \r tab \t bs \u{8} ff \u{c} \
                 nul \u{0} esc \u{1b} unit \u{1f} del \u{7f} ção 日本 🐸"),
        ),
        ("floats", enc(&floats)),
        (
            "value.numbers",
            enc(&json!([0, -1, u64::MAX, i64::MIN, 2.0f32, 0.1f32, 255u8])),
        ),
        ("hashmap.int_keys", enc(&int_keys)),
        ("hashmap.string_keys", enc(&string_keys)),
        ("btreemap.newtype_keys", enc(&newtype_keys)),
        ("attrs.skip", enc(&skipped)),
        ("attrs.kept", enc(&kept)),
        (
            "tuples",
            enc(&(Pair(1, "one".into()), (2u8, "a", 2.5f64), ())),
        ),
        ("duration", enc(&Duration::new(5, 7))),
        (
            "in.strings",
            decoded(serde_json::from_str::<Vec<String>>(
                r#"["😀 éé \/ \b\f\n\r\t \"\\", "raw ção 🐸", ""]"#,
            )),
        ),
        (
            "in.first_field_wins",
            decoded(serde_json::from_str::<Date>(
                r#"{"year":2000,"month":1,"day":2,"year":1999}"#,
            )),
        ),
        (
            "in.first_field_wins_over_bad_repeat",
            decoded(serde_json::from_str::<Date>(
                r#"{"year":2000,"month":1,"day":2,"day":"two"}"#,
            )),
        ),
        (
            "in.map_last_wins",
            decoded(serde_json::from_str::<BTreeMap<String, u8>>(
                r#"{"a":1,"b":5,"a":2}"#,
            )),
        ),
        (
            "in.hashmap_last_wins",
            decoded(serde_json::from_str::<HashMap<String, u8>>(
                r#"{"a":1,"a":2}"#,
            )),
        ),
        (
            "in.value_last_wins",
            decoded(serde_json::from_str::<Json>(
                r#"{"a":1,"b":[],"a":{"c":2}}"#,
            )),
        ),
        (
            "in.unknown_ignored",
            decoded(serde_json::from_str::<Date>(
                r#"{"year":2000,"extra":{"x":[1,"A\n",{"y":null}],"z":-1.5e3},"month":1,"day":2,"more":true}"#,
            )),
        ),
        (
            "in.missing_field",
            decoded(serde_json::from_str::<Date>(r#"{"year":2000,"month":1}"#)),
        ),
        (
            "in.missing_default_fields",
            decoded(serde_json::from_str::<Attrs>(r#"{"plain":3,"maybe":null}"#)),
        ),
        (
            "in.missing_option_field",
            decoded(serde_json::from_str::<Attrs>(r#"{"plain":3}"#)),
        ),
        (
            "in.missing_option_field_of_variant",
            decoded(serde_json::from_str::<CurationEvent>(
                r#"{"Flagged":{"message":"m"}}"#,
            )),
        ),
        (
            "in.null_is_none",
            decoded(serde_json::from_str::<CurationEvent>(
                r#"{"Flagged":{"field":null,"message":"m"}}"#,
            )),
        ),
        (
            "in.int_from_float",
            decoded(serde_json::from_str::<Date>(
                r#"{"year":2000.0,"month":1.0,"day":2e0}"#,
            )),
        ),
        (
            "in.int_fraction",
            decoded(serde_json::from_str::<Date>(
                r#"{"year":2000,"month":1,"day":2.5}"#,
            )),
        ),
        (
            "in.int_out_of_range",
            decoded(serde_json::from_str::<Date>(
                r#"{"year":2000,"month":300,"day":2}"#,
            )),
        ),
        (
            "in.int_negative_unsigned",
            decoded(serde_json::from_str::<u8>("-1")),
        ),
        (
            "in.int_huge_float",
            decoded(serde_json::from_str::<i64>("1e300")),
        ),
        (
            "in.int_too_big",
            decoded(serde_json::from_str::<i64>("9223372036854775808")),
        ),
        (
            "in.float_from_int",
            decoded(serde_json::from_str::<Vec<f64>>(
                "[3, -4, 18446744073709551615]",
            )),
        ),
        (
            "in.enum_unit",
            decoded(serde_json::from_str::<Vec<NameStatus>>(
                r#"["Accepted","Unknown"]"#,
            )),
        ),
        (
            "in.enum_payload",
            decoded(serde_json::from_str::<Vec<Value>>(
                r#"[{"Text":"a"},{"Date":{"day":1,"month":2,"year":3}},{"Boolean":false}]"#,
            )),
        ),
        (
            "in.enum_two_keys",
            decoded(serde_json::from_str::<Value>(r#"{"Text":"a","Integer":1}"#)),
        ),
        (
            "in.enum_empty_map",
            decoded(serde_json::from_str::<Value>("{}")),
        ),
        (
            "in.enum_unit_as_map",
            decoded(serde_json::from_str::<NameStatus>(r#"{"Accepted":null}"#)),
        ),
        (
            "in.enum_payload_as_string",
            decoded(serde_json::from_str::<Value>(r#""Text""#)),
        ),
        (
            "in.enum_unknown_variant",
            decoded(serde_json::from_str::<Value>(r#"{"Texts":"a"}"#)),
        ),
        (
            "in.tuple_struct_length",
            decoded(serde_json::from_str::<Pair>(r#"[1,"a",2]"#)),
        ),
        (
            "in.tuple_struct",
            decoded(serde_json::from_str::<Pair>(r#"[1,"a"]"#)),
        ),
        (
            "in.trailing_garbage",
            decoded(serde_json::from_str::<u8>("1 x")),
        ),
        (
            "in.trailing_whitespace",
            decoded(serde_json::from_str::<u8>(" 1 \n\t\r")),
        ),
        (
            "in.int_keys_as_strings",
            decoded(serde_json::from_str::<BTreeMap<u32, u8>>(r#"{"1":2}"#)),
        ),
        (
            "in.newtype_keys",
            decoded(serde_json::from_str::<BTreeMap<NodeId, u8>>(
                r#"{"b":1,"a\n":2}"#,
            )),
        ),
        (
            "in.enum_values",
            decoded(serde_json::from_str::<BTreeMap<String, NameStatus>>(
                r#"{"x":"Accepted","y":{"Synonym":{"accepted":{"genus":"Boana","epithet":"faber","authorship":null}}}}"#,
            )),
        ),
        (
            "in.numbers",
            decoded(serde_json::from_str::<Json>(
                "[0, -0, 1.5e3, -12, 18446744073709551615, 18446744073709551616, \
                 -9223372036854775808, -9223372036854775809, 01, 1E2, 2.50]",
            )),
        ),
        (
            "in.char",
            decoded(serde_json::from_str::<Vec<char>>(r#"["a","ç","A"]"#)),
        ),
        (
            "in.char_two",
            decoded(serde_json::from_str::<char>(r#""ab""#)),
        ),
        (
            "in.duration",
            decoded(serde_json::from_str::<Duration>(
                r#"{"nanos":7,"secs":5,"secs":9}"#,
            )),
        ),
        (
            "in.record",
            decoded(serde_json::from_str::<Record>(&enc(&tricky_record()))),
        ),
        (
            "in.bytes_invalid_utf8",
            decoded(serde_json::from_slice::<String>(b"\"\xff\"")),
        ),
        (
            "in.depth.128_value",
            decoded(serde_json::from_str::<Json>(&nested(128)).map(|v| depth_of(&v))),
        ),
        (
            "in.depth.129_value",
            decoded(serde_json::from_str::<Json>(&nested(129))),
        ),
        (
            "in.depth.128_unknown_field",
            decoded(serde_json::from_str::<Date>(&date_with_unknown_depth(127))),
        ),
        (
            "in.depth.129_unknown_field",
            decoded(serde_json::from_str::<Date>(&date_with_unknown_depth(128))),
        ),
        (
            "in.depth.100000_record",
            decoded(serde_json::from_str::<Record>(&deep_record())),
        ),
    ]
    .into_iter()
    .map(|(name, out)| (name.to_string(), out))
    .collect::<Vec<_>>();
    let bad = [
        "[1,]",
        "{,}",
        "[1 2]",
        r#"{"a" 1}"#,
        r#"{"a":1,}"#,
        r#""\x""#,
        r#""\ud800""#,
        r#""\ud800A""#,
        r#""\udc00""#,
        r#""\u12g4""#,
        r#""open"#,
        "nul",
        "tru",
        "-",
        "1.2.3",
        "+1",
        "",
        "   ",
        "[",
        "{\"a\":",
    ];
    for (i, input) in bad.iter().enumerate() {
        let out = decoded(serde_json::from_str::<Json>(input));
        cases.push((format!("in.bad.{i}"), out));
    }
    for entry in log_entries() {
        cases.push((format!("log.{}", entry.seq), enc(&entry)));
    }
    cases
}

const GOLDEN: &[(&str, &str)] = &[
    (
        "record.generated",
        r##"{"id":"FNJV-000001","fields":{"air_temperature_c":{"Float":26.6},"atmospheric_conditions":{"Text":"Clear"},"city":{"Text":"Foz do Iguaçu"},"class":{"Text":"Reptilia"},"collect_date":{"Date":{"year":1987,"month":11,"day":4}},"collect_time":{"Time":{"hour":5,"minute":30}},"coordinates":{"Coordinates":{"lat":-22.9056,"lon":-47.0608}},"count":{"Integer":-3},"country":{"Text":"Brazil"},"family":{"Text":"Gekkonidae"},"frequency_khz":{"Float":12.3},"genus":{"Text":"Phyllopezus"},"georeferenced":{"Boolean":true},"humidity":{"Float":0.625},"microphone_model":{"Text":"Sennheiser MKH816"},"number_of_individuals":{"Integer":5},"order":{"Text":"Squamata"},"phylum":{"Text":"Chordata"},"recording_device":{"Text":"Nagra III"},"sound_file_format":{"Text":"Magnetic tape"},"species":{"Text":"Phyllopezus agrestis"},"state":{"Text":"Paraná"},"temperature":{"Float":21.0}}}"##,
    ),
    (
        "record.tricky",
        r##"{"id":"R-\"q\"\\ção","fields":{"big":{"Float":100000000000000000000},"empty":{"Text":""},"max":{"Integer":9223372036854775807},"min":{"Integer":-9223372036854775808},"notes":{"Text":"line\nbreak\ttab \u0001 \u001f 🐸 日本"},"tiny":{"Float":0.00000015}}}"##,
    ),
    (
        "doc_state",
        r##"{"tokens":{"country":["brazil"],"species":["faber","hyla"]},"facets":[["family","Hylidae"],["quality","high"]],"name":"Hyla faber"}"##,
    ),
    (
        "checklist_diff",
        r##"{"from_year":1995,"to_year":2013,"changes":[{"name":{"genus":"Elachistocleis","epithet":"ovalis","authorship":null},"old":"Accepted","new":"NomenInquirendum"},{"name":{"genus":"Hyla","epithet":"albopunctata","authorship":null},"old":"Accepted","new":{"Synonym":{"accepted":{"genus":"Boana","epithet":"albopunctata","authorship":null}}}},{"name":{"genus":"Hyla","epithet":"nova","authorship":null},"old":"Unknown","new":"Accepted"}]}"##,
    ),
    (
        "opm_graph",
        r##"{"artifacts":{"a:out":{"id":"a:out","label":"curated","annotations":{}},"a:rec":{"id":"a:rec","label":"record","annotations":{"quality":"0.93"}}},"processes":{"p:clean":{"id":"p:clean","label":"clean","annotations":{}}},"agents":{"ag:ana":{"id":"ag:ana","label":"Ana","annotations":{}}},"edges":[{"kind":"Used","effect":"p:clean","cause":"a:rec","role":"in","accounts":[],"annotations":{}},{"kind":"WasGeneratedBy","effect":"a:out","cause":"p:clean","accounts":["run-1"],"annotations":{}},{"kind":"WasControlledBy","effect":"p:clean","cause":"ag:ana","role":"curator","accounts":[],"annotations":{}},{"kind":"WasDerivedFrom","effect":"a:out","cause":"a:rec","accounts":[],"annotations":{"why":"cleaning"}}],"accounts":["run-1"]}"##,
    ),
    (
        "reply.get",
        r##"{"as_of_lsn":23934,"record":{"fields":{"air_temperature_c":{"Float":26.6},"atmospheric_conditions":{"Text":"Clear"},"city":{"Text":"Foz do Iguaçu"},"class":{"Text":"Reptilia"},"collect_date":{"Date":{"day":4,"month":11,"year":1987}},"collect_time":{"Time":{"hour":5,"minute":30}},"coordinates":{"Coordinates":{"lat":-22.9056,"lon":-47.0608}},"count":{"Integer":-3},"country":{"Text":"Brazil"},"family":{"Text":"Gekkonidae"},"frequency_khz":{"Float":12.3},"genus":{"Text":"Phyllopezus"},"georeferenced":{"Boolean":true},"humidity":{"Float":0.625},"microphone_model":{"Text":"Sennheiser MKH816"},"number_of_individuals":{"Integer":5},"order":{"Text":"Squamata"},"phylum":{"Text":"Chordata"},"recording_device":{"Text":"Nagra III"},"sound_file_format":{"Text":"Magnetic tape"},"species":{"Text":"Phyllopezus agrestis"},"state":{"Text":"Paraná"},"temperature":{"Float":21.0}},"id":"FNJV-000001"}}"##,
    ),
    (
        "reply.listing",
        r##"{"as_of_lsn":7,"records":[{"fields":{"air_temperature_c":{"Float":26.6},"atmospheric_conditions":{"Text":"Clear"},"city":{"Text":"Foz do Iguaçu"},"class":{"Text":"Reptilia"},"collect_date":{"Date":{"day":4,"month":11,"year":1987}},"collect_time":{"Time":{"hour":5,"minute":30}},"coordinates":{"Coordinates":{"lat":-22.9056,"lon":-47.0608}},"count":{"Integer":-3},"country":{"Text":"Brazil"},"family":{"Text":"Gekkonidae"},"frequency_khz":{"Float":12.3},"genus":{"Text":"Phyllopezus"},"georeferenced":{"Boolean":true},"humidity":{"Float":0.625},"microphone_model":{"Text":"Sennheiser MKH816"},"number_of_individuals":{"Integer":5},"order":{"Text":"Squamata"},"phylum":{"Text":"Chordata"},"recording_device":{"Text":"Nagra III"},"sound_file_format":{"Text":"Magnetic tape"},"species":{"Text":"Phyllopezus agrestis"},"state":{"Text":"Paraná"},"temperature":{"Float":21.0}},"id":"FNJV-000001"},{"fields":{"big":{"Float":100000000000000000000},"empty":{"Text":""},"max":{"Integer":9223372036854775807},"min":{"Integer":-9223372036854775808},"notes":{"Text":"line\nbreak\ttab \u0001 \u001f 🐸 日本"},"tiny":{"Float":0.00000015}},"id":"R-\"q\"\\ção"}],"total":2}"##,
    ),
    (
        "reply.put",
        r##"{"first_seq":1,"id":"FNJV-000001","last_seq":3,"lsn":9}"##,
    ),
    (
        "reply.error",
        r##"{"error":"bad record body: expected `,`"}"##,
    ),
    (
        "pretty.nested",
        r##"{
  "a": [
    1,
    {
      "b": null,
      "c": [],
      "d": {}
    },
    [
      true,
      false
    ]
  ],
  "e": "x\ny",
  "f": 2.0,
  "g": -0.5
}"##,
    ),
    (
        "pretty.record",
        r##"{
  "id": "FNJV-000001",
  "fields": {
    "air_temperature_c": {
      "Float": 26.6
    },
    "atmospheric_conditions": {
      "Text": "Clear"
    },
    "city": {
      "Text": "Foz do Iguaçu"
    },
    "class": {
      "Text": "Reptilia"
    },
    "collect_date": {
      "Date": {
        "year": 1987,
        "month": 11,
        "day": 4
      }
    },
    "collect_time": {
      "Time": {
        "hour": 5,
        "minute": 30
      }
    },
    "coordinates": {
      "Coordinates": {
        "lat": -22.9056,
        "lon": -47.0608
      }
    },
    "count": {
      "Integer": -3
    },
    "country": {
      "Text": "Brazil"
    },
    "family": {
      "Text": "Gekkonidae"
    },
    "frequency_khz": {
      "Float": 12.3
    },
    "genus": {
      "Text": "Phyllopezus"
    },
    "georeferenced": {
      "Boolean": true
    },
    "humidity": {
      "Float": 0.625
    },
    "microphone_model": {
      "Text": "Sennheiser MKH816"
    },
    "number_of_individuals": {
      "Integer": 5
    },
    "order": {
      "Text": "Squamata"
    },
    "phylum": {
      "Text": "Chordata"
    },
    "recording_device": {
      "Text": "Nagra III"
    },
    "sound_file_format": {
      "Text": "Magnetic tape"
    },
    "species": {
      "Text": "Phyllopezus agrestis"
    },
    "state": {
      "Text": "Paraná"
    },
    "temperature": {
      "Float": 21.0
    }
  }
}"##,
    ),
    (
        "strings.escapes",
        r##""quote \" backslash \\ slash / nl \n cr \r tab \t bs \b ff \f nul \u0000 esc \u001b unit \u001f del  ção 日本 🐸""##,
    ),
    (
        "floats",
        r##"[1.0,-0.0,0.1,-2.5,1000000000000000.0,10000000000000000,123456789012345680,1000000000000000000000,0.00000015,179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,null,null]"##,
    ),
    (
        "value.numbers",
        r##"[0,-1,18446744073709551615,-9223372036854775808,2.0,0.10000000149011612,255]"##,
    ),
    ("hashmap.int_keys", r##"{"-1":"c","10":"a","9":"b"}"##),
    ("hashmap.string_keys", r##"{"B":3,"a":2,"b":1}"##),
    ("btreemap.newtype_keys", r##"{"a":2,"z":1}"##),
    ("attrs.skip", r##"{"plain":1,"listed":[],"maybe":null}"##),
    (
        "attrs.kept",
        r##"{"plain":2,"skipped":"s","listed":[-1,2],"maybe":false}"##,
    ),
    ("tuples", r##"[[1,"one"],[2,"a",2.5],null]"##),
    ("duration", r##"{"secs":5,"nanos":7}"##),
    (
        "in.strings",
        r##"["😀 éé / \u{8}\u{c}\n\r\t \"\\", "raw ção 🐸", ""]"##,
    ),
    (
        "in.first_field_wins",
        r##"Date { year: 2000, month: 1, day: 2 }"##,
    ),
    (
        "in.first_field_wins_over_bad_repeat",
        r##"Date { year: 2000, month: 1, day: 2 }"##,
    ),
    ("in.map_last_wins", r##"{"a": 2, "b": 5}"##),
    ("in.hashmap_last_wins", r##"{"a": 2}"##),
    (
        "in.value_last_wins",
        r##"Object({"a": Object({"c": Number(Number(PosInt(2)))}), "b": Array([])})"##,
    ),
    (
        "in.unknown_ignored",
        r##"Date { year: 2000, month: 1, day: 2 }"##,
    ),
    ("in.missing_field", r##"error"##),
    (
        "in.missing_default_fields",
        r##"Attrs { plain: 3, skipped: None, listed: [], maybe: None }"##,
    ),
    ("in.missing_option_field", r##"error"##),
    ("in.missing_option_field_of_variant", r##"error"##),
    (
        "in.null_is_none",
        r##"Flagged { field: None, message: "m" }"##,
    ),
    (
        "in.int_from_float",
        r##"Date { year: 2000, month: 1, day: 2 }"##,
    ),
    ("in.int_fraction", r##"error"##),
    ("in.int_out_of_range", r##"error"##),
    ("in.int_negative_unsigned", r##"error"##),
    ("in.int_huge_float", r##"9223372036854775807"##),
    ("in.int_too_big", r##"error"##),
    (
        "in.float_from_int",
        r##"[3.0, -4.0, 1.8446744073709552e19]"##,
    ),
    ("in.enum_unit", r##"[Accepted, Unknown]"##),
    (
        "in.enum_payload",
        r##"[Text("a"), Date(Date { year: 3, month: 2, day: 1 }), Boolean(false)]"##,
    ),
    ("in.enum_two_keys", r##"error"##),
    ("in.enum_empty_map", r##"error"##),
    ("in.enum_unit_as_map", r##"error"##),
    ("in.enum_payload_as_string", r##"error"##),
    ("in.enum_unknown_variant", r##"error"##),
    ("in.tuple_struct_length", r##"error"##),
    ("in.tuple_struct", r##"Pair(1, "a")"##),
    ("in.trailing_garbage", r##"error"##),
    ("in.trailing_whitespace", r##"1"##),
    ("in.int_keys_as_strings", r##"error"##),
    ("in.newtype_keys", r##"{NodeId("a\n"): 2, NodeId("b"): 1}"##),
    (
        "in.enum_values",
        r##"{"x": Accepted, "y": Synonym { accepted: ScientificName { genus: "Boana", epithet: "faber", authorship: None } }}"##,
    ),
    (
        "in.numbers",
        r##"Array([Number(Number(PosInt(0))), Number(Number(PosInt(0))), Number(Number(Float(1500.0))), Number(Number(NegInt(-12))), Number(Number(PosInt(18446744073709551615))), Number(Number(Float(1.8446744073709552e19))), Number(Number(NegInt(-9223372036854775808))), Number(Number(Float(-9.223372036854776e18))), Number(Number(PosInt(1))), Number(Number(Float(100.0))), Number(Number(Float(2.5)))])"##,
    ),
    ("in.char", r##"['a', 'ç', 'A']"##),
    ("in.char_two", r##"error"##),
    ("in.duration", r##"5.000000007s"##),
    (
        "in.record",
        r##"Record { id: "R-\"q\"\\ção", fields: {"big": Float(1e20), "empty": Text(""), "max": Integer(9223372036854775807), "min": Integer(-9223372036854775808), "notes": Text("line\nbreak\ttab \u{1} \u{1f} 🐸 日本"), "tiny": Float(1.5e-7)} }"##,
    ),
    ("in.bytes_invalid_utf8", r##"error"##),
    ("in.depth.128_value", r##"128"##),
    ("in.depth.129_value", r##"error"##),
    (
        "in.depth.128_unknown_field",
        r##"Date { year: 2000, month: 1, day: 2 }"##,
    ),
    ("in.depth.129_unknown_field", r##"error"##),
    ("in.depth.100000_record", r##"error"##),
    ("in.bad.0", r##"error"##),
    ("in.bad.1", r##"error"##),
    ("in.bad.2", r##"error"##),
    ("in.bad.3", r##"error"##),
    ("in.bad.4", r##"error"##),
    ("in.bad.5", r##"error"##),
    ("in.bad.6", r##"error"##),
    ("in.bad.7", r##"error"##),
    ("in.bad.8", r##"error"##),
    ("in.bad.9", r##"error"##),
    ("in.bad.10", r##"error"##),
    ("in.bad.11", r##"error"##),
    ("in.bad.12", r##"error"##),
    ("in.bad.13", r##"error"##),
    ("in.bad.14", r##"error"##),
    ("in.bad.15", r##"error"##),
    ("in.bad.16", r##"error"##),
    ("in.bad.17", r##"error"##),
    ("in.bad.18", r##"error"##),
    ("in.bad.19", r##"error"##),
    (
        "log.0",
        r##"{"seq":0,"record_id":"FNJV-000000","source":"stage1","event":{"FieldChanged":{"field":"species","old":{"Text":"Hyla faber "},"new":{"Text":"Hyla faber"},"reason":"trimmed whitespace"}}}"##,
    ),
    (
        "log.1",
        r##"{"seq":1,"record_id":"FNJV-000001","source":"stage1","event":{"FieldChanged":{"field":"collect_date","old":null,"new":{"Date":{"year":1975,"month":2,"day":28}},"reason":"parsed legacy date"}}}"##,
    ),
    (
        "log.2",
        r##"{"seq":2,"record_id":"FNJV-000002","source":"stage1","event":{"Flagged":{"field":"coordinates","message":"outside the state"}}}"##,
    ),
    (
        "log.3",
        r##"{"seq":3,"record_id":"FNJV-000003","source":"stage1","event":{"Flagged":{"field":null,"message":"whole record"}}}"##,
    ),
    (
        "log.4",
        r##"{"seq":4,"record_id":"FNJV-000004","source":"stage1","event":{"NameUpdateProposed":{"old":"Elachistocleis ovalis","new":"Elachistocleis cesarii"}}}"##,
    ),
    (
        "log.5",
        r##"{"seq":5,"record_id":"FNJV-000005","source":"stage1","event":{"Validated":{"subject":"species","curator":"ana"}}}"##,
    ),
    (
        "log.6",
        r##"{"seq":6,"record_id":"FNJV-000006","source":"stage1","event":{"Rejected":{"subject":"species","curator":"ana","reason":"keep \"as is\""}}}"##,
    ),
];

#[test]
fn codec_output_and_input_rules_match_the_pinned_strings() {
    let golden: BTreeMap<&str, &str> = GOLDEN.iter().copied().collect();
    let cases = cases();
    assert_eq!(cases.len(), golden.len(), "every case is pinned");
    for (name, actual) in cases {
        let expected = golden
            .get(name.as_str())
            .unwrap_or_else(|| panic!("case {name} is not pinned"));
        assert_eq!(actual, *expected, "case {name}");
    }
}

#[test]
fn pinned_rows_decode_to_what_was_encoded() {
    let golden: BTreeMap<&str, &str> = GOLDEN.iter().copied().collect();
    let rec: Record = serde_json::from_str(golden["record.generated"]).expect("decodes");
    assert_eq!(rec, generated_record());
    for entry in log_entries() {
        let name = format!("log.{}", entry.seq);
        let back: LogEntry = serde_json::from_str(golden[name.as_str()]).expect("decodes");
        assert_eq!(back, entry, "{name}");
    }
    let doc: DocState = serde_json::from_str(golden["doc_state"]).expect("decodes");
    assert_eq!(doc, doc_state());
    let diff: ChecklistDiff = serde_json::from_str(golden["checklist_diff"]).expect("decodes");
    assert_eq!(diff, checklist_diff());
    let graph: OpmGraph = serde_json::from_str(golden["opm_graph"]).expect("decodes");
    assert_eq!(graph, opm_graph());
    let reply: Json = serde_json::from_str(golden["reply.listing"]).expect("decodes");
    assert_eq!(reply.to_string(), golden["reply.listing"]);
    let pretty: Json = serde_json::from_str(golden["pretty.nested"]).expect("decodes");
    assert_eq!(
        serde_json::to_string_pretty(&pretty).expect("serializes"),
        golden["pretty.nested"]
    );
}

#[test]
fn nesting_past_128_levels_fails_at_the_opening_bracket() {
    let err = serde_json::from_str::<Json>(&nested(129)).unwrap_err();
    assert_eq!(err.to_string(), "recursion limit exceeded at byte 128");
    let err = serde_json::from_str::<Date>(&date_with_unknown_depth(128)).unwrap_err();
    assert_eq!(err.to_string(), "recursion limit exceeded at byte 144");
    let body = deep_record();
    assert_eq!(body.len(), 200_027);
    let err = serde_json::from_slice::<Record>(body.as_bytes()).unwrap_err();
    assert_eq!(err.to_string(), "recursion limit exceeded at byte 153");
    // Closing a level gives it back: siblings at the limit still decode.
    let siblings = format!("[{},{}]", nested(127), nested(127));
    let v: Json = serde_json::from_str(&siblings).expect("decodes");
    assert_eq!(depth_of(&v), 128);
}

/// Text with quotes, backslashes, control characters and non-ASCII.
const TEXT: &str = "[a-zA-Z0-9 çãéü日本🐸\"\\\\/\n\r\t\u{1}\u{1f}\u{7f}]{0,12}";

fn value_strategy() -> BoxedStrategy<Value> {
    prop_oneof![
        TEXT.prop_map(Value::Text),
        any::<i64>().prop_map(Value::Integer),
        (-1_000_000i64..1_000_000).prop_map(|i| Value::Float(i as f64)),
        any::<u64>().prop_map(|bits| {
            let f = f64::from_bits(bits);
            Value::Float(if f.is_finite() { f } else { 0.5 })
        }),
        (-30i32..30).prop_map(|e| Value::Float(1.7 * 10f64.powi(e))),
        (1i32..2100, 1u8..13, 1u8..29).prop_map(|(y, m, d)| Value::Date(date(y, m, d))),
        (0u8..24, 0u8..60)
            .prop_map(|(h, m)| Value::Time(TimeOfDay::new(h, m).expect("valid time"))),
        (-90.0f64..90.0, -180.0f64..180.0).prop_map(|(lat, lon)| {
            Value::Coordinates(Coordinates::new(lat, lon).expect("valid coordinates"))
        }),
        any::<bool>().prop_map(Value::Boolean),
    ]
    .boxed()
}

fn record_strategy() -> impl Strategy<Value = Record> {
    (
        TEXT,
        proptest::collection::vec((TEXT, value_strategy()), 0..12),
    )
        .prop_map(|(id, fields)| {
            fields
                .into_iter()
                .fold(Record::new(id), |r, (k, v)| r.with(&k, v))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn records_roundtrip_both_ways(rec in record_strategy()) {
        let bytes = serde_json::to_vec(&rec).expect("serializes");
        let back: Record = serde_json::from_slice(&bytes).expect("decodes");
        prop_assert_eq!(&back, &rec);
        prop_assert_eq!(serde_json::to_vec(&back).expect("serializes"), bytes);
    }
}
