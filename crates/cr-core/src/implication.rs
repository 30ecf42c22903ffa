//! The implication problem (Section IV) and invalidity explanation.
//!
//! *Implication*: given a valid `Se` and a partial temporal order `Ot`,
//! decide `Se |= Ot` — every valid completion of `Se` contains `Ot`. The
//! problem is coNP-complete (Theorem 2); here it is decided exactly on the
//! encoded instance with one SAT probe per pair of `Ot`.
//!
//! *Explanation*: when `IsValid` rejects a specification, the framework's
//! "No" branch (Fig. 4) sends users back to revise their input. To make
//! that actionable, [`explain_invalidity`] shrinks `(Σ, Γ, base orders)` to
//! a minimal conflicting core by deletion-based minimisation — every
//! element of the core is necessary for the conflict.

use cr_sat::SolveResult;
use cr_types::{AttrId, TupleId};

use crate::encode::EncodedSpec;
use crate::orders::PartialOrders;
use crate::spec::Specification;

/// Decides `Se |= Ot`: does every valid completion order `t1 ≺_Ai t2` for
/// each recorded pair? Pairs over equal or null values are the reflexive /
/// vacuous part of `⪯` and count as implied.
///
/// Returns `None` when `Se` itself is invalid (implication is then
/// ill-posed: the paper defines it for valid specifications only).
pub fn implies(spec: &Specification, ot: &PartialOrders) -> Option<bool> {
    let enc = EncodedSpec::encode(spec);
    let mut solver = enc.fresh_solver();
    if solver.solve() == SolveResult::Unsat {
        return None;
    }
    let entity = spec.entity();
    for attr in spec.schema().attr_ids() {
        for (t1, t2) in ot.pairs(attr) {
            let v1 = entity.tuple(t1).get(attr);
            let v2 = entity.tuple(t2).get(attr);
            if v1 == v2 || v1.is_null() || v2.is_null() {
                continue;
            }
            let (Some(lo), Some(hi)) = (enc.value_id(attr, v1), enc.value_id(attr, v2)) else {
                return Some(false); // value unknown to the instance
            };
            let Some(var) = enc.var_of(attr, lo, hi) else {
                return Some(false);
            };
            // Se |= (lo ≺ hi) iff Φ(Se) ∧ ¬x is unsatisfiable (Lemma 6).
            if solver.solve_with_assumptions(&[var.negative()]) == SolveResult::Sat {
                return Some(false);
            }
        }
    }
    Some(true)
}

/// One element of an invalidity explanation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConflictPart {
    /// The currency constraint `sigma[index]` participates in the conflict.
    Currency {
        /// Index into `Specification::sigma`.
        index: usize,
    },
    /// The constant CFD `gamma[index]` participates in the conflict.
    Cfd {
        /// Index into `Specification::gamma`.
        index: usize,
    },
    /// The base-order pair `t1 ≺_attr t2` participates in the conflict.
    BaseOrder {
        /// Attribute of the pair.
        attr: AttrId,
        /// Less-current tuple.
        t1: TupleId,
        /// More-current tuple.
        t2: TupleId,
    },
}

/// Shrinks an *invalid* specification to a minimal conflicting core of
/// constraints and base-order pairs: removing any single element of the
/// returned set makes the remainder satisfiable.
///
/// Returns `None` if the specification is actually valid. Deletion-based
/// minimisation costs one `IsValid` call per candidate element — fine at
/// entity-instance scale.
pub fn explain_invalidity(spec: &Specification) -> Option<Vec<ConflictPart>> {
    if is_sat(spec) {
        return None;
    }
    // Work set: all candidate parts.
    let mut parts: Vec<ConflictPart> = Vec::new();
    for i in 0..spec.sigma().len() {
        parts.push(ConflictPart::Currency { index: i });
    }
    for i in 0..spec.gamma().len() {
        parts.push(ConflictPart::Cfd { index: i });
    }
    for attr in spec.schema().attr_ids() {
        for (t1, t2) in spec.orders().pairs(attr) {
            parts.push(ConflictPart::BaseOrder { attr, t1, t2 });
        }
    }
    // Deletion filter: drop a part; if still unsat, it is unnecessary.
    let mut keep: Vec<bool> = vec![true; parts.len()];
    for i in 0..parts.len() {
        keep[i] = false;
        let candidate = rebuild(spec, &parts, &keep);
        if is_sat(&candidate) {
            keep[i] = true; // needed for the conflict
        }
    }
    Some(
        parts
            .into_iter()
            .zip(keep)
            .filter(|(_, k)| *k)
            .map(|(p, _)| p)
            .collect(),
    )
}

fn is_sat(spec: &Specification) -> bool {
    EncodedSpec::encode(spec).fresh_solver().solve() == SolveResult::Sat
}

/// Rebuilds a specification keeping only the parts flagged in `keep`.
fn rebuild(spec: &Specification, parts: &[ConflictPart], keep: &[bool]) -> Specification {
    let mut sigma = Vec::new();
    let mut gamma = Vec::new();
    let mut orders = PartialOrders::empty(spec.schema().arity());
    for (part, &k) in parts.iter().zip(keep) {
        if !k {
            continue;
        }
        match part {
            ConflictPart::Currency { index } => sigma.push(spec.sigma()[*index].clone()),
            ConflictPart::Cfd { index } => gamma.push(spec.gamma()[*index].clone()),
            ConflictPart::BaseOrder { attr, t1, t2 } => orders.add(*attr, *t1, *t2),
        }
    }
    Specification::new(spec.entity().clone(), orders, sigma, gamma)
}

/// Renders an explanation with constraint text for display.
pub fn render_explanation(spec: &Specification, parts: &[ConflictPart]) -> Vec<String> {
    parts
        .iter()
        .map(|p| match p {
            ConflictPart::Currency { index } => format!("currency: {}", spec.sigma()[*index]),
            ConflictPart::Cfd { index } => format!("cfd: {}", spec.gamma()[*index]),
            ConflictPart::BaseOrder { attr, t1, t2 } => format!(
                "order: r{} <[{}] r{}",
                t1.0,
                spec.schema().attr_name(*attr),
                t2.0
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_constraints::parser::{parse_cfd_file, parse_currency_file};
    use cr_types::{EntityInstance, Schema, Tuple, Value};

    fn base_entity() -> (std::sync::Arc<Schema>, EntityInstance) {
        let s = Schema::new("p", ["status", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::str("a"), Value::str("NY")]),
                Tuple::of([Value::str("b"), Value::str("LA")]),
            ],
        )
        .unwrap();
        (s, e)
    }

    #[test]
    fn implication_of_derived_and_underived_orders() {
        let (s, e) = base_entity();
        let sigma = parse_currency_file(
            &s,
            r#"t1[status] = "a" && t2[status] = "b" -> t1 <[status] t2"#,
        )
        .unwrap();
        let spec = Specification::without_orders(e, sigma, vec![]);
        let status = s.attr_id("status").unwrap();
        let city = s.attr_id("city").unwrap();

        let mut implied = PartialOrders::empty(2);
        implied.add(status, TupleId(0), TupleId(1));
        assert_eq!(implies(&spec, &implied), Some(true));

        let mut not_implied = PartialOrders::empty(2);
        not_implied.add(city, TupleId(0), TupleId(1));
        assert_eq!(implies(&spec, &not_implied), Some(false));

        // The reverse status order is refuted, hence not implied.
        let mut reversed = PartialOrders::empty(2);
        reversed.add(status, TupleId(1), TupleId(0));
        assert_eq!(implies(&spec, &reversed), Some(false));

        // Empty Ot is trivially implied.
        assert_eq!(implies(&spec, &PartialOrders::empty(2)), Some(true));
    }

    #[test]
    fn implication_is_none_for_invalid_specs() {
        let (s, e) = base_entity();
        let sigma = parse_currency_file(
            &s,
            "t1[status] = \"a\" && t2[status] = \"b\" -> t1 <[status] t2\n\
             t1[status] = \"b\" && t2[status] = \"a\" -> t1 <[status] t2",
        )
        .unwrap();
        let spec = Specification::without_orders(e, sigma, vec![]);
        assert_eq!(implies(&spec, &PartialOrders::empty(2)), None);
    }

    #[test]
    fn explanation_is_minimal_core() {
        let (s, e) = base_entity();
        // Three constraints; only the pair (0, 1) conflicts. Constraint 2 is
        // irrelevant noise that must not appear in the core.
        let sigma = parse_currency_file(
            &s,
            "c0: t1[status] = \"a\" && t2[status] = \"b\" -> t1 <[status] t2\n\
             c1: t1[status] = \"b\" && t2[status] = \"a\" -> t1 <[status] t2\n\
             c2: t1[city] = \"NY\" && t2[city] = \"LA\" -> t1 <[city] t2",
        )
        .unwrap();
        let spec = Specification::without_orders(e, sigma, vec![]);
        let core = explain_invalidity(&spec).expect("invalid spec");
        assert_eq!(
            core,
            vec![
                ConflictPart::Currency { index: 0 },
                ConflictPart::Currency { index: 1 }
            ]
        );
        let rendered = render_explanation(&spec, &core);
        assert!(rendered[0].starts_with("currency: c0"));
    }

    #[test]
    fn explanation_spans_orders_and_cfds() {
        let s = Schema::new("p", ["AC", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::int(212), Value::str("NY")]),
                Tuple::of([Value::int(213), Value::str("LA")]),
            ],
        )
        .unwrap();
        // Base order forces 213 on top; its CFD demands LA; a second base
        // order forces NY above LA. Conflict needs all three.
        let gamma = parse_cfd_file(&s, "AC = 213 -> city = \"LA\"").unwrap();
        let mut orders = PartialOrders::empty(2);
        orders.add(s.attr_id("AC").unwrap(), TupleId(0), TupleId(1));
        orders.add(s.attr_id("city").unwrap(), TupleId(1), TupleId(0));
        let spec = Specification::new(e, orders, vec![], gamma);
        let core = explain_invalidity(&spec).expect("invalid");
        assert_eq!(core.len(), 3);
        assert!(core.iter().any(|p| matches!(p, ConflictPart::Cfd { .. })));
        assert_eq!(
            core.iter()
                .filter(|p| matches!(p, ConflictPart::BaseOrder { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn valid_specs_have_no_explanation() {
        let (_, e) = base_entity();
        let spec = Specification::without_orders(e, vec![], vec![]);
        assert!(explain_invalidity(&spec).is_none());
    }
}
