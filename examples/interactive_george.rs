//! Interactive resolution: the sailor from the photograph (Examples 3, 6,
//! 9–13 of the paper).
//!
//! George's records leave most attributes ambiguous: automatic deduction
//! finds only `name` and `kids` (Example 3). The framework then computes a
//! *suggestion* — a minimum set of attributes whose validation unlocks the
//! rest. For George that is exactly `{status}` with candidates
//! `{retired, unemployed}` (Example 12); once the user answers
//! `status = retired`, every other attribute cascades (Example 9).
//!
//! Run: `cargo run --example interactive_george`

use conflict_resolution::core::framework::render_resolved;
use conflict_resolution::core::{
    deduce_order, suggest, true_values_from_orders, EncodedSpec, Specification, UserInput,
};
use conflict_resolution::data::vjday;
use conflict_resolution::types::Value;

fn show_deduction(spec: &Specification) -> (EncodedSpec, bool) {
    let enc = EncodedSpec::encode(spec);
    let od = deduce_order(&enc).expect("valid specification");
    let known = true_values_from_orders(&enc, &od);
    println!(
        "  deduced so far: {}",
        render_resolved(spec.schema(), &known)
    );
    (enc, known.complete())
}

fn main() {
    let spec = vjday::george_spec();
    println!("Entity instance E2 (Fig. 2):");
    for (id, tuple) in spec.entity().iter() {
        println!("  r{}: {}", id.0 + 4, tuple.display(spec.schema()));
    }

    // Step 1-2 of the framework: validity + automatic deduction.
    println!("\nRound 0 — automatic deduction only:");
    let enc = EncodedSpec::encode(&spec);
    let od = deduce_order(&enc).expect("valid specification");
    let known = true_values_from_orders(&enc, &od);
    println!("  deduced: {}", render_resolved(spec.schema(), &known));
    assert_eq!(known.known_count(), 2, "Example 3: only name and kids");

    // Step 4: suggestion generation (Example 12).
    let sug = suggest(&spec, &enc, &od, &known);
    println!("\nSuggestion (ask the user about these attributes):");
    for (attr, candidates) in &sug.ask {
        let cands: Vec<String> = candidates.iter().map(|v| v.to_string()).collect();
        println!(
            "  {} — candidates: {{{}}}",
            spec.schema().attr_name(*attr),
            cands.join(", ")
        );
    }
    println!(
        "Derivable once answered: {:?}",
        sug.derived
            .iter()
            .map(|a| spec.schema().attr_name(*a))
            .collect::<Vec<_>>()
    );
    println!("Selected derivation rules:");
    for rule in &sug.rules {
        println!("  {}", rule.display(&enc, spec.schema()));
    }

    // The user validates status = retired (Example 9).
    println!("\nUser answers: status = retired");
    let status = spec.schema().attr_id("status").expect("attr");
    let input = UserInput::single(status, Value::str("retired"));
    let mut extended = spec.clone();
    let (_, ot_size) = extended.apply_user_input(&input);
    println!("  |Ot| added: {ot_size}");

    println!("\nRound 1 — after the answer:");
    let (_, complete) = show_deduction(&extended);
    assert!(complete, "Example 9: everything cascades from status");

    println!("\nmatches the paper's Example 9 exactly:");
    println!("  (George, retired, veteran, 2, NY, 212, 12404, Accord)");
}
