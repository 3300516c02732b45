//! Retrieval microbenchmarks: indexed vs scan query paths over the
//! catalog — the payoff of the secondary indexes.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use preserva_core::retrieval::RecordCatalog;
use preserva_fnjv::config::GeneratorConfig;
use preserva_fnjv::generator;
use preserva_metadata::query::{Filter, Query};
use preserva_storage::engine::{Engine, EngineOptions};
use preserva_storage::table::TableStore;

fn setup(n_records: usize) -> (RecordCatalog, String, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "preserva-bench-retrieval-{}-{n_records}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(
        TableStore::new(Arc::new(
            Engine::open(&dir, EngineOptions::default()).unwrap(),
        ))
        .unwrap(),
    );
    let catalog = RecordCatalog::open(store).unwrap();
    let collection = generator::generate(&GeneratorConfig {
        records: n_records,
        distinct_species: (n_records / 6).max(10),
        outdated_names: 0,
        seed: 5,
        ..GeneratorConfig::default()
    });
    catalog.insert_all(&collection.records).unwrap();
    let species = collection.species_names[0].canonical();
    (catalog, species, dir)
}

fn bench_queries(c: &mut Criterion) {
    let (catalog, species, dir) = setup(5_000);
    let mut g = c.benchmark_group("retrieval/query_5k");
    g.sample_size(30);
    g.throughput(Throughput::Elements(1));

    let indexed = Query::new(Filter::species(&species));
    g.bench_function("species_indexed", |b| {
        b.iter(|| catalog.query(&indexed).unwrap())
    });

    // Same predicate, forced down the scan path via a non-plannable Or.
    let scan = Query::new(Filter::Or(vec![Filter::species(&species)]));
    g.bench_function("species_scan", |b| b.iter(|| catalog.query(&scan).unwrap()));

    let filled = Query::new(Filter::Filled {
        field: "coordinates".into(),
    });
    g.bench_function("filled_scan", |b| {
        b.iter(|| catalog.query(&filled).unwrap())
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_insert(c: &mut Criterion) {
    let (catalog, _, dir) = setup(100);
    let collection = generator::generate(&GeneratorConfig::small(9));
    let mut g = c.benchmark_group("retrieval/insert");
    g.throughput(Throughput::Elements(1));
    let mut i = 0usize;
    g.bench_function("indexed_insert", |b| {
        b.iter(|| {
            let r = &collection.records[i % collection.records.len()];
            i += 1;
            catalog.insert(r).unwrap()
        })
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_queries, bench_insert);
criterion_main!(benches);
