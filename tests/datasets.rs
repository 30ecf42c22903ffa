//! Dataset-level integration tests: shape statistics, validity, determinism
//! and the headline accuracy ordering.

use conflict_resolution::core::framework::{GroundTruthOracle, ResolutionConfig, Resolver};
use conflict_resolution::core::{is_valid, pick_baseline, Accuracy};
use conflict_resolution::data::{career, nba, person};

#[test]
fn nba_shape_matches_published_statistics() {
    let ds = nba::generate(nba::NbaConfig {
        entities: 120,
        seed: 1,
        ..Default::default()
    });
    let stats = ds.stats();
    assert_eq!(stats.sigma, 54, "54 currency constraints");
    assert_eq!(stats.gamma, 58, "58 constant CFDs");
    assert!(stats.min_tuples >= 2 && stats.max_tuples <= 136);
    assert!((10.0..45.0).contains(&stats.avg_tuples), "avg near 27");
    assert_eq!(ds.schema.arity(), 14);
}

#[test]
fn career_shape_matches_published_statistics() {
    let ds = career::generate(career::CareerConfig::default());
    let stats = ds.stats();
    assert_eq!(stats.entities, 65);
    assert_eq!(stats.gamma, 347, "347 CFD patterns");
    assert!(
        (300..=700).contains(&stats.sigma),
        "citation constraints {} near the paper's 503",
        stats.sigma
    );
    assert!(stats.max_tuples <= 175);
}

#[test]
fn person_shape_matches_published_statistics() {
    let ds = person::generate(person::PersonConfig {
        entities: 20,
        ..Default::default()
    });
    let stats = ds.stats();
    assert_eq!(stats.sigma, 983, "983 currency constraints");
    assert_eq!(stats.gamma, 1000, "1000 CFD patterns");
    assert_eq!(ds.schema.arity(), 8);
}

#[test]
fn all_generated_specs_are_valid() {
    let nba = nba::generate(nba::NbaConfig {
        entities: 10,
        seed: 77,
        ..Default::default()
    });
    let career = career::generate(career::CareerConfig {
        entities: 10,
        seed: 77,
        ..Default::default()
    });
    let person = person::generate(person::PersonConfig {
        entities: 10,
        min_tuples: 2,
        max_tuples: 40,
        seed: 77,
    });
    for ds in [&nba, &career, &person] {
        for i in 0..ds.len() {
            assert!(
                is_valid(&ds.spec(i)).valid,
                "{} entity {i} must be valid",
                ds.name
            );
        }
    }
}

#[test]
fn generation_is_deterministic_per_seed() {
    let a = person::generate(person::PersonConfig {
        entities: 5,
        ..Default::default()
    });
    let b = person::generate(person::PersonConfig {
        entities: 5,
        ..Default::default()
    });
    for i in 0..a.len() {
        assert_eq!(a.entities[i].0.tuples(), b.entities[i].0.tuples());
        assert_eq!(a.entities[i].1, b.entities[i].1);
    }
    let c = nba::generate_with_sizes(&[10, 20], 3);
    let d = nba::generate_with_sizes(&[10, 20], 3);
    assert_eq!(c.entities[1].0.tuples(), d.entities[1].0.tuples());
}

#[test]
fn unified_method_beats_pick_on_every_dataset() {
    let seed = 0xBEA7;
    let datasets = [
        nba::generate(nba::NbaConfig {
            entities: 20,
            seed,
            ..Default::default()
        }),
        career::generate(career::CareerConfig {
            entities: 20,
            seed,
            ..Default::default()
        }),
        person::generate(person::PersonConfig {
            entities: 20,
            min_tuples: 4,
            max_tuples: 40,
            seed,
        }),
    ];
    let resolver = Resolver::new(ResolutionConfig {
        max_rounds: 3,
        ..Default::default()
    });
    for ds in &datasets {
        let mut unified = Accuracy::new();
        let mut pick = Accuracy::new();
        for i in 0..ds.len() {
            let spec = ds.spec(i);
            let mut oracle = GroundTruthOracle::with_cap(ds.truth(i).clone(), 1);
            let outcome = resolver.resolve(&spec, &mut oracle);
            unified.add_entity(&ds.entities[i].0, ds.truth(i), &outcome.resolved);
            pick.add_entity(&ds.entities[i].0, ds.truth(i), &pick_baseline(&spec, seed));
        }
        let fu = unified.f_measure().f_measure;
        let fp = pick.f_measure().f_measure;
        assert!(
            fu > fp,
            "{}: unified {fu:.3} must beat Pick {fp:.3}",
            ds.name
        );
    }
}

#[test]
fn csv_round_trip_of_generated_entities() {
    let ds = nba::generate(nba::NbaConfig {
        entities: 3,
        seed: 4,
        ..Default::default()
    });
    for (entity, _) in &ds.entities {
        let csv = conflict_resolution::types::csv::write_entity(entity);
        let back = conflict_resolution::types::csv::read_entity("nba", &csv).unwrap();
        assert_eq!(back.len(), entity.len());
        for (a, b) in entity.tuples().iter().zip(back.tuples()) {
            assert_eq!(a.values(), b.values());
        }
    }
}
