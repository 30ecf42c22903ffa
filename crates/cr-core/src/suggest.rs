//! `Suggest`: computing suggestions for user interaction (Section V-C.2,
//! Fig. 7).
//!
//! Pipeline: `DeriveVR` (candidate true values from the deduced orders) →
//! `TrueDer` (derivation rules) → `CompGraph` → `MaxClique` → `GetSug`
//! (MaxSAT repair of the clique against `Φ(Se)`, then
//! `A = R \ (A' ∪ B)`).

use std::collections::BTreeMap;

use cr_clique::find_max_clique;
use cr_maxsat::exact::solve_exact_with;
use cr_maxsat::MaxSatInstance;
use cr_types::{AttrId, Value, ValueId};

use crate::compat::compatibility_graph;
use crate::deduce::DeducedOrders;
use crate::encode::EncodedSpec;
use crate::rules::{candidate_values, true_der, DerivationRule};
use crate::spec::Specification;
use crate::truevalue::TrueValues;

/// A suggestion `(A, V(A))`: attributes the user should validate, each with
/// its candidate true values, plus the attributes `A'` whose true values the
/// selected rules will derive automatically once `A` is answered.
#[derive(Clone, Debug)]
pub struct Suggestion {
    /// Attributes to ask the user about, with candidate values from the
    /// active domain (users may also supply new values).
    pub ask: BTreeMap<AttrId, Vec<Value>>,
    /// Attributes derivable from the chosen conflict-free rule set.
    pub derived: Vec<AttrId>,
    /// The conflict-free rules selected by the MaxSAT repair.
    pub rules: Vec<DerivationRule>,
}

impl Suggestion {
    /// Number of attributes the user is asked to validate (`|A|`).
    pub fn len(&self) -> usize {
        self.ask.len()
    }

    /// True iff nothing needs asking.
    pub fn is_empty(&self) -> bool {
        self.ask.is_empty()
    }
}

/// Computes a suggestion for `spec` given the deduced orders `od` and the
/// validated/deduced true values `known` (the `VB` of the paper).
pub fn suggest(
    spec: &Specification,
    enc: &EncodedSpec,
    od: &DeducedOrders,
    known: &TrueValues,
) -> Suggestion {
    suggest_on(spec, enc, od, known, &mut enc.fresh_solver())
}

/// The body of [`suggest`] over a solver that holds every clause of `enc`'s
/// CNF and its registered order atoms: the one-shot call passes a fresh
/// one, the session its warm solver (it syncs before suggesting).
/// `DeriveVR` + `TrueDer` + `CompGraph` + `MaxClique`, then `GetSug`. The
/// common case of `GetSug` — the whole clique is consistent — costs one
/// assumption probe instead of copying `Φ(Se)` into a fresh MaxSAT
/// instance.
pub(crate) fn suggest_on(
    spec: &Specification,
    enc: &EncodedSpec,
    od: &DeducedOrders,
    known: &TrueValues,
    solver: &mut cr_sat::Solver,
) -> Suggestion {
    let rules = true_der(spec, enc, od, known);
    let graph = compatibility_graph(&rules);
    let clique = find_max_clique(&graph);
    let selected = max_consistent_subset(enc, &rules, &clique, solver);
    assemble_suggestion(spec, enc, od, known, rules, selected)
}

/// The post-selection half of `GetSug`: compute `A'` (derivable
/// attributes) by chaining the selected rules and assemble
/// `A = R \ (A' ∪ B)` with candidate values.
fn assemble_suggestion(
    spec: &Specification,
    enc: &EncodedSpec,
    od: &DeducedOrders,
    known: &TrueValues,
    rules: Vec<DerivationRule>,
    selected: Vec<usize>,
) -> Suggestion {
    // A' = attributes reachable from the known/asked set by chaining the
    // selected rules (a rule fires once all of its LHS attributes are
    // settled). A plain "all RHS attributes" reading admits circular rule
    // pairs (x derives from y, y from x) that would leave the user with an
    // empty suggestion and the resolution stuck; the fixpoint does not.
    let derived: Vec<AttrId> = {
        let mut settled: Vec<bool> = spec
            .schema()
            .attr_ids()
            .map(|a| known.get(a).is_some())
            .collect();
        // Attributes we will ask about are settled by the user.
        for attr in spec.schema().attr_ids() {
            let derivable_rhs = selected.iter().any(|&i| rules[i].rhs.0 == attr);
            if !settled[attr.index()] && !derivable_rhs {
                settled[attr.index()] = true; // will be asked
            }
        }
        let mut derived = Vec::new();
        loop {
            let mut progress = false;
            for &i in &selected {
                let r = &rules[i];
                if settled[r.rhs.0.index()] {
                    continue;
                }
                if r.lhs.iter().all(|(a, _)| settled[a.index()]) {
                    settled[r.rhs.0.index()] = true;
                    derived.push(r.rhs.0);
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        // Anything still unsettled is circular: ask the user instead.
        derived.sort_unstable();
        derived.dedup();
        derived
    };

    // A = R \ (A' ∪ B): unknown attributes not derivable from the rules.
    let mut ask = BTreeMap::new();
    for attr in spec.schema().attr_ids() {
        if known.get(attr).is_some() || derived.contains(&attr) {
            continue;
        }
        ask.insert(attr, candidate_values(enc, od, attr));
    }
    Suggestion {
        ask,
        derived,
        rules: selected.into_iter().map(|i| rules[i].clone()).collect(),
    }
}

/// MaxSAT repair: hard clauses are `Φ(Se)`; each clique rule gets a selector
/// implying "all its asserted values are tops of their attributes"; soft
/// unit clauses maximise the number of selected rules. Returns the indices
/// (into `rules`) of the retained clique members.
///
/// Fast path: when the clique's combined assertions are jointly satisfiable
/// with `Φ(Se)` — one incremental probe on `solver`, assembled into a
/// single reused literal buffer with no per-rule allocation — the MaxSAT
/// optimum keeps every clique member, so no instance is ever constructed.
/// Real suggestions overwhelmingly hit this case. When the clique genuinely
/// over-asserts, the repair instance *borrows* `Φ(Se)`'s clause arena
/// ([`MaxSatInstance::with_hard_base`]) instead of copying it, so even the
/// fallback is `O(clique)` in construction cost.
///
/// The repair is solved exactly, and each solver of its search registers
/// the encoding's order domains before loading a clause, so on a lazy
/// encoding the hard base holds the order axioms like `solver` does and
/// the optimum equals the eager repair.
fn max_consistent_subset(
    enc: &EncodedSpec,
    rules: &[DerivationRule],
    clique: &[usize],
    solver: &mut cr_sat::Solver,
) -> Vec<usize> {
    if clique.is_empty() {
        return Vec::new();
    }
    let assumptions = clique_assumptions(enc, rules, clique);
    if solver.solve_with_assumptions(&assumptions) == cr_sat::SolveResult::Sat {
        return clique.to_vec();
    }
    let (inst, selectors) = build_repair_instance(enc, rules, clique);
    let register = |s: &mut cr_sat::Solver| {
        enc.register_order_atoms(0, |d, n, var| s.register_order_domain(d, n, var));
    };
    match solve_exact_with(&inst, register) {
        Some(result) => retained_clique(clique, &selectors, &result.assignment),
        // Hard clauses unsatisfiable: the specification itself is
        // invalid; callers check IsValid first, so this is defensive.
        None => Vec::new(),
    }
}

/// The clique's combined "these values are tops" assumption set, sorted
/// and deduplicated.
fn clique_assumptions(
    enc: &EncodedSpec,
    rules: &[DerivationRule],
    clique: &[usize],
) -> Vec<cr_sat::Lit> {
    let mut assumptions: Vec<cr_sat::Lit> = Vec::new();
    for &ri in clique {
        let rule = &rules[ri];
        for &(attr, v) in rule.lhs.iter().chain(std::iter::once(&rule.rhs)) {
            push_top_literals(enc, attr, v, &mut assumptions);
        }
    }
    assumptions.sort_unstable();
    assumptions.dedup();
    assumptions
}

/// Builds the MaxSAT repair instance: the borrowed `Φ(Se)` hard base, one
/// selector variable per clique rule implying "all its asserted values are
/// tops", and unit-weight soft selectors. Returns the instance and the
/// selector variables (parallel to `clique`).
fn build_repair_instance<'a>(
    enc: &'a EncodedSpec,
    rules: &[DerivationRule],
    clique: &[usize],
) -> (MaxSatInstance<'a>, Vec<cr_sat::Var>) {
    let mut inst = MaxSatInstance::with_hard_base(enc.cnf());
    let mut tops = Vec::new();
    let mut selectors = Vec::with_capacity(clique.len());
    for (offset, &ri) in clique.iter().enumerate() {
        let sel = cr_sat::Var(enc.cnf().num_vars() + offset as u32);
        selectors.push(sel);
        let rule = &rules[ri];
        for &(attr, v) in rule.lhs.iter().chain(std::iter::once(&rule.rhs)) {
            tops.clear();
            push_top_literals(enc, attr, v, &mut tops);
            for &lit in &tops {
                inst.add_hard([sel.negative(), lit]);
            }
        }
        inst.add_soft([sel.positive()], 1);
    }
    (inst, selectors)
}

/// The clique members a repair result retained.
fn retained_clique(clique: &[usize], selectors: &[cr_sat::Var], assignment: &[bool]) -> Vec<usize> {
    clique
        .iter()
        .zip(selectors)
        .filter(|(_, sel)| assignment[sel.index()])
        .map(|(&ri, _)| ri)
        .collect()
}

/// Appends the literals asserting "`v` is the top of `attr`" to `out` —
/// every other value sits below `v`.
fn push_top_literals(enc: &EncodedSpec, attr: AttrId, v: ValueId, out: &mut Vec<cr_sat::Lit>) {
    out.extend(
        enc.space()
            .attr(attr)
            .ids()
            .filter(|&o| o != v)
            .filter_map(|o| enc.var_of(attr, o, v).map(|var| var.positive())),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deduce::deduce_order;
    use crate::truevalue::true_values_from_orders;
    use cr_constraints::parser::{parse_cfd_file, parse_currency_file};
    use cr_types::{EntityInstance, Schema, Tuple};

    /// Full George entity (Fig. 2 E2) with the Fig. 3 constraints.
    fn george() -> Specification {
        let s = Schema::new(
            "person",
            [
                "name", "status", "job", "kids", "city", "AC", "zip", "county",
            ],
        )
        .unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([
                    Value::str("George"),
                    Value::str("working"),
                    Value::str("sailor"),
                    Value::int(0),
                    Value::str("Newport"),
                    Value::int(401),
                    Value::str("02840"),
                    Value::str("Rhode Island"),
                ]),
                Tuple::of([
                    Value::str("George"),
                    Value::str("retired"),
                    Value::str("veteran"),
                    Value::int(2),
                    Value::str("NY"),
                    Value::int(212),
                    Value::str("12404"),
                    Value::str("Accord"),
                ]),
                Tuple::of([
                    Value::str("George"),
                    Value::str("unemployed"),
                    Value::str("n/a"),
                    Value::int(2),
                    Value::str("Chicago"),
                    Value::int(312),
                    Value::str("60653"),
                    Value::str("Bronzeville"),
                ]),
            ],
        )
        .unwrap();
        let sigma = parse_currency_file(
            &s,
            r#"
            phi1: t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2
            phi2: t1[status] = "retired" && t2[status] = "deceased" -> t1 <[status] t2
            phi3: t1[job] = "sailor" && t2[job] = "veteran" -> t1 <[job] t2
            phi4: t1[kids] < t2[kids] -> t1 <[kids] t2
            phi5: t1 <[status] t2 -> t1 <[job] t2
            phi6: t1 <[status] t2 -> t1 <[AC] t2
            phi7: t1 <[status] t2 -> t1 <[zip] t2
            phi8: t1 <[city] t2 && t1 <[zip] t2 -> t1 <[county] t2
            "#,
        )
        .unwrap();
        let gamma = parse_cfd_file(
            &s,
            r#"
            psi1: AC = 213 -> city = "LA"
            psi2: AC = 212 -> city = "NY"
            "#,
        )
        .unwrap();
        Specification::without_orders(e, sigma, gamma)
    }

    /// Example 12: asking for `status` suffices — job, AC, zip, city and
    /// county all become derivable; name and kids are already known.
    #[test]
    fn george_suggestion_is_status_only() {
        let spec = george();
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).unwrap();
        let known = true_values_from_orders(&enc, &od);
        // Example 3: only name and kids are deducible automatically.
        let s = spec.schema();
        assert_eq!(
            known.get(s.attr_id("name").unwrap()),
            Some(&Value::str("George"))
        );
        assert_eq!(known.get(s.attr_id("kids").unwrap()), Some(&Value::int(2)));
        assert_eq!(known.known_count(), 2);

        let sug = suggest(&spec, &enc, &od, &known);
        let ask_names: Vec<&str> = sug.ask.keys().map(|a| s.attr_name(*a)).collect();
        assert_eq!(
            ask_names,
            vec!["status"],
            "suggestion should be exactly status"
        );
        // Candidates for status per Example 12: retired and unemployed.
        let status = s.attr_id("status").unwrap();
        let cands = &sug.ask[&status];
        assert_eq!(cands.len(), 2);
        assert!(cands.contains(&Value::str("retired")));
        assert!(cands.contains(&Value::str("unemployed")));
        // Derived set covers the remaining five attributes.
        let derived_names: Vec<&str> = sug.derived.iter().map(|a| s.attr_name(*a)).collect();
        for a in ["job", "AC", "zip", "city", "county"] {
            assert!(derived_names.contains(&a), "{a} missing from derived set");
        }
    }

    #[test]
    fn suggestion_rules_are_mutually_consistent_with_spec() {
        let spec = george();
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).unwrap();
        let known = true_values_from_orders(&enc, &od);
        let sug = suggest(&spec, &enc, &od, &known);
        // Selected rules must not assert two different values of the same
        // attribute (clique property) and must be jointly satisfiable with
        // Φ(Se) (MaxSAT hard constraints) — check the first property here.
        for (i, x) in sug.rules.iter().enumerate() {
            for y in &sug.rules[i + 1..] {
                for (a, v) in x.lhs.iter().chain(std::iter::once(&x.rhs)) {
                    if let Some(w) = y.asserted(*a) {
                        assert_eq!(*v, w, "inconsistent rule pair selected");
                    }
                }
            }
        }
    }

    #[test]
    fn nothing_to_suggest_when_everything_known() {
        let s = Schema::new("p", ["a"]).unwrap();
        let e = EntityInstance::new(s, vec![Tuple::of([Value::int(1)])]).unwrap();
        let spec = Specification::without_orders(e, vec![], vec![]);
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).unwrap();
        let known = true_values_from_orders(&enc, &od);
        assert!(known.complete());
        let sug = suggest(&spec, &enc, &od, &known);
        assert!(sug.is_empty());
        assert!(sug.derived.is_empty());
    }

    #[test]
    fn unconstrained_conflicts_ask_for_everything() {
        let s = Schema::new("p", ["a", "b"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![
                Tuple::of([Value::int(1), Value::str("x")]),
                Tuple::of([Value::int(2), Value::str("y")]),
            ],
        )
        .unwrap();
        let spec = Specification::without_orders(e, vec![], vec![]);
        let enc = EncodedSpec::encode(&spec);
        let od = deduce_order(&enc).unwrap();
        let known = true_values_from_orders(&enc, &od);
        let sug = suggest(&spec, &enc, &od, &known);
        assert_eq!(sug.len(), 2);
        for cands in sug.ask.values() {
            assert_eq!(cands.len(), 2);
        }
    }
}
