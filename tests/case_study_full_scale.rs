//! Full-scale case-study invariants: the synthetic FNJV collection must
//! land exactly on the paper's published numbers (Figure 2 / §IV-C).

use preserva::curation::outdated::OutdatedNameDetector;
use preserva::fnjv::config::GeneratorConfig;
use preserva::fnjv::generator;
use preserva::taxonomy::service::{ColService, ServiceConfig};

#[test]
fn figure2_numbers_reproduce_exactly() {
    let config = GeneratorConfig::default();
    let collection = generator::generate(&config);
    assert_eq!(collection.records.len(), 11_898);
    assert_eq!(collection.species_names.len(), 1_929);
    assert_eq!(collection.planted_outdated.len(), 134);

    let service = ColService::new(
        collection.checklist.clone(),
        ServiceConfig {
            availability: 0.9,
            seed: config.seed ^ 0xC01,
            ..ServiceConfig::default()
        },
    );
    let report = OutdatedNameDetector::new(&service, 8).check_collection(&collection.records);

    assert_eq!(report.records_processed, 11_898);
    assert_eq!(report.distinct_names, 1_929);
    assert_eq!(report.outdated.len(), 134, "paper: 134 outdated names");
    assert!(
        report.unavailable.is_empty(),
        "8 attempts must absorb 0.9 availability"
    );
    assert!(
        (report.outdated_fraction() - 0.07).abs() < 0.005,
        "paper: 7% — got {:.3}",
        report.outdated_fraction()
    );
    assert!(
        (report.accuracy() - 0.9305).abs() < 0.005,
        "paper: 93% — got {:.3}",
        report.accuracy()
    );
    // Every outdated name carries an updated replacement (Figure 2 lists
    // old → new pairs).
    for (old, new) in &report.outdated {
        assert_ne!(old, new);
        assert!(collection.checklist.latest().status(new).is_current());
    }
    // The detected set equals the planted ground truth.
    let mut detected: Vec<String> = report.outdated.iter().map(|(o, _)| o.canonical()).collect();
    detected.sort();
    let mut planted: Vec<String> = collection
        .planted_outdated
        .iter()
        .map(|n| n.canonical())
        .collect();
    planted.sort();
    assert_eq!(detected, planted);
}

#[test]
fn detection_is_deterministic_across_runs() {
    let config = GeneratorConfig::small(77);
    let c1 = generator::generate(&config);
    let c2 = generator::generate(&config);
    let s1 = ColService::new(
        c1.checklist.clone(),
        ServiceConfig {
            availability: 0.9,
            seed: 5,
            ..ServiceConfig::default()
        },
    );
    let s2 = ColService::new(
        c2.checklist.clone(),
        ServiceConfig {
            availability: 0.9,
            seed: 5,
            ..ServiceConfig::default()
        },
    );
    let r1 = OutdatedNameDetector::new(&s1, 8).check_collection(&c1.records);
    let r2 = OutdatedNameDetector::new(&s2, 8).check_collection(&c2.records);
    assert_eq!(r1.outdated, r2.outdated);
    assert_eq!(r1.accuracy(), r2.accuracy());
}

/// The full-scale case study through the *architecture* path (not just
/// the direct detector): workflow run + provenance capture + quality
/// assessment land on the paper's numbers.
#[test]
fn paper_scale_through_architecture() {
    use preserva::core::roles::EndUser;
    use preserva::quality::dimension::Dimension;
    use preserva::wfms::services::port;
    use preserva_bench::case_study::{records_to_json, setup_case_study};
    use std::collections::BTreeMap;

    let dir = std::env::temp_dir().join(format!("preserva-fullscale-arch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cs = setup_case_study(&dir, &GeneratorConfig::default(), 0.9, 8);
    let trace = cs
        .run(&port(
            "sound_metadata",
            records_to_json(&cs.collection.records),
        ))
        .unwrap();
    let s = &trace.workflow_outputs["summary"];
    assert_eq!(s["records_processed"].as_u64(), Some(11_898));
    assert_eq!(s["distinct_names"].as_u64(), Some(1_929));
    assert_eq!(s["outdated"].as_u64(), Some(134));
    assert_eq!(s["unavailable"].as_u64(), Some(0));

    let user = EndUser::new("Dr. Toledo", "IB/Unicamp");
    let mut facts = BTreeMap::new();
    facts.insert("names_checked".into(), s["checked"].as_f64().unwrap());
    facts.insert("names_correct".into(), s["current"].as_f64().unwrap());
    let report = cs
        .assess(&user, "fnjv-full", &trace.run_id, &facts)
        .unwrap();
    let acc = report.score(&Dimension::accuracy()).unwrap();
    assert!((acc - 0.9305).abs() < 0.005, "accuracy {acc}");
    assert_eq!(report.score(&Dimension::reputation()), Some(1.0));
    assert_eq!(report.score(&Dimension::availability()), Some(0.9));
    std::fs::remove_dir_all(&dir).ok();
}
