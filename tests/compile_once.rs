//! Compile-once: each dataset's constraint program is compiled at setup,
//! and resolving its entities — on the incremental engine and on the
//! `incremental: false` oracle, across every interaction round — only
//! projects entities through that program and never compiles another.
//!
//! [`compile_count`] is process-global, so this binary holds exactly one
//! test: a second test compiling in parallel would move the counter.

use std::sync::Arc;

use conflict_resolution::core::framework::{GroundTruthOracle, ResolutionConfig, Resolver};
use conflict_resolution::core::{compile_count, CompiledProgram, Specification};
use conflict_resolution::data::gen::{scenario, ScenarioConfig};
use conflict_resolution::data::{career, nba, person, vjday, Dataset};
use conflict_resolution::types::{Tuple, ValueTable};

mod common;

/// Stamps one program, compiled from the first spec (against `table` when
/// the dataset has one), onto every spec of a homogeneous dataset.
fn share_program(specs: &[Specification], table: Option<&ValueTable>) {
    let program = Arc::new(CompiledProgram::compile(
        specs[0].sigma(),
        specs[0].gamma(),
        table,
    ));
    for spec in specs {
        spec.set_compiled_program(program.clone());
    }
}

/// A dataset's specs with Σ and Γ cut to 60% (the same subset for every
/// entity, so one shared program fits them all) and its truths.
fn subsampled(ds: &Dataset) -> (Vec<Specification>, Vec<Tuple>) {
    let specs: Vec<_> = (0..ds.len())
        .map(|i| ds.spec(i).with_constraint_fraction(0.6, 0.6, 18))
        .collect();
    share_program(&specs, ds.value_table().map(|t| t.as_ref()));
    (specs, (0..ds.len()).map(|i| ds.truth(i).clone()).collect())
}

#[test]
fn resolution_never_compiles_a_program() {
    let mut datasets: Vec<(&str, Vec<Specification>, Vec<Tuple>)> = Vec::new();

    let vjday_specs = vec![vjday::edith_spec(), vjday::george_spec()];
    share_program(&vjday_specs, None);
    datasets.push((
        "vjday",
        vjday_specs,
        vec![vjday::edith_truth(), vjday::george_truth()],
    ));

    let (specs, truths) = subsampled(&nba::generate_with_sizes(&[12, 27], 7));
    datasets.push(("nba", specs, truths));
    let (specs, truths) = subsampled(&person::generate_with_sizes(&[20, 40], 7));
    datasets.push(("person", specs, truths));

    // `Dataset::spec` and `gen::scenario` stamp their own programs.
    let ds = career::generate(career::CareerConfig {
        entities: 2,
        seed: 7,
        ..Default::default()
    });
    datasets.push((
        "career",
        (0..ds.len()).map(|i| ds.spec(i)).collect(),
        (0..ds.len()).map(|i| ds.truth(i).clone()).collect(),
    ));
    let wide: Vec<_> = (0..2u64)
        .map(|i| {
            scenario(&ScenarioConfig {
                seed: 7 + i,
                attrs: 5,
                tuples: 24,
                domain: 20,
                conflict_density: 1.0,
                null_density: 0.02,
                sigma: 8,
                gamma: 3,
                order_density: 0.1,
                new_value_answers: i == 1,
            })
        })
        .collect();
    datasets.push((
        "wide",
        wide.iter().map(|s| s.spec.clone()).collect(),
        wide.iter().map(|s| s.truth.clone()).collect(),
    ));

    // Γ differs per entity: one program each.
    let (specs, truths): (Vec<_>, Vec<_>) = common::retraction_specs(2).into_iter().unzip();
    datasets.push(("retract", specs, truths));

    for (_, specs, _) in &datasets {
        for spec in specs {
            spec.compiled_program();
        }
    }

    let at_setup = compile_count();
    let resolver = |incremental| {
        Resolver::new(ResolutionConfig {
            max_rounds: 10,
            incremental,
            ..Default::default()
        })
    };
    let (engine, oracle_loop) = (resolver(true), resolver(false));
    for (label, specs, truths) in &datasets {
        for (i, (spec, truth)) in specs.iter().zip(truths).enumerate() {
            let oracle = || GroundTruthOracle::with_cap(truth.clone(), 1);
            let inc = engine.resolve(spec, &mut oracle());
            let reference = oracle_loop.resolve(spec, &mut oracle());
            assert_eq!(
                inc.resolved, reference.resolved,
                "{label} entity {i}: resolution diverged"
            );
            assert_eq!(
                inc.interactions, reference.interactions,
                "{label} entity {i}"
            );
        }
        assert_eq!(
            compile_count(),
            at_setup,
            "{label}: resolution compiled a constraint program (compile-once violated)"
        );
    }
}
