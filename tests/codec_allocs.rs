//! Allocation budget of the JSON codec over the seed-42 FNJV collection
//! (11,898 records): encoding a record writes its text straight into one
//! growing buffer, and decoding one allocates only what the record owns
//! (its strings and map nodes), with no tree in between. Run in release
//! with `--nocapture` to see the per-record counts, including a GET
//! reply's.

#[path = "../crates/storage/tests/counting/mod.rs"]
mod counting;

use std::hint::black_box;

use serde_json::json;

use preserva::fnjv::{generate, GeneratorConfig};
use preserva::metadata::Record;

use counting::counted;

/// Allocations per record of `to_vec`.
const ENCODE_BUDGET: f64 = 8.0;
/// Allocations per record of `from_slice::<Record>`.
const DECODE_BUDGET: f64 = 40.0;

#[test]
fn codec_allocations_per_record_stay_within_budget() {
    let records = generate(&GeneratorConfig::default()).records;
    let rows: Vec<Vec<u8>> = records
        .iter()
        .map(|r| serde_json::to_vec(r).expect("serializes"))
        .collect();
    let n = records.len() as f64;

    let ((), encode) = counted(|| {
        for r in &records {
            black_box(serde_json::to_vec(r).expect("serializes"));
        }
    });
    let ((), decode) = counted(|| {
        for row in &rows {
            black_box(serde_json::from_slice::<Record>(row).expect("decodes"));
        }
    });
    let ((), get_reply) = counted(|| {
        for r in &records {
            black_box(json!({"record": r, "as_of_lsn": 1u64}).to_string());
        }
    });
    let ((), listing) = counted(|| {
        for page in records.chunks(50) {
            let reply = json!({"total": page.len(), "records": page, "as_of_lsn": 1u64});
            black_box(reply.to_string());
        }
    });

    let per = |allocs: u64| allocs as f64 / n;
    println!(
        "codec allocations per record over {} records: to_vec {:.2} (budget {ENCODE_BUDGET}), \
         from_slice {:.2} (budget {DECODE_BUDGET}), GET reply {:.2}, 50-row listing reply {:.2}",
        records.len(),
        per(encode.allocs),
        per(decode.allocs),
        per(get_reply.allocs),
        per(listing.allocs),
    );
    assert!(
        per(encode.allocs) <= ENCODE_BUDGET,
        "to_vec allocates {:.2} times per record",
        per(encode.allocs)
    );
    assert!(
        per(decode.allocs) <= DECODE_BUDGET,
        "from_slice allocates {:.2} times per record",
        per(decode.allocs)
    );
}
