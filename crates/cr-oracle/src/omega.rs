//! The reference `Instantiation(Se)` (Section V-A), written over
//! `cr-core`'s public API only: per-entity derivation of each constraint's
//! projections, comparison conjuncts evaluated per ordered pair, CFD
//! patterns resolved by `Value` lookup. The production path projects the
//! entity through a dataset-level compiled program on dense ids;
//! `tests/lazy_differential.rs` proves the two emit the same Ω(Se), in
//! the same order.

use std::collections::HashSet;

use cr_constraints::Predicate;
use cr_core::encode::{Conclusion, InstanceConstraint, OrderAtom, Origin, Premise};
use cr_core::Specification;
use cr_types::{AttrId, AttrValueSpace, Tuple, Value};

/// The instance constraints Ω(Se) of `spec`, in emission order: null
/// bottoms, base orders, currency constraints, constant CFDs. Value ids
/// are those of the encoder's value spaces: each attribute's active domain
/// in canonical order, then null when it occurs.
pub fn omega_reference(spec: &Specification) -> Vec<InstanceConstraint> {
    let schema = spec.schema();
    let entity = spec.entity();
    let mut space = AttrValueSpace::new(schema.arity());
    for attr in schema.attr_ids() {
        for v in entity.active_domain(attr) {
            space.intern(attr, &v);
        }
        if entity.tuples().iter().any(|t| t.get(attr).is_null()) {
            space.intern(attr, &Value::Null);
        }
    }
    let atom = |attr: AttrId, lo: &Value, hi: &Value| OrderAtom {
        attr,
        lo: space.get(attr, lo).expect("interned"),
        hi: space.get(attr, hi).expect("interned"),
    };
    // `lo ≺ hi` on two cells; vacuous (`None`) on equal or null values.
    let strict = |attr: AttrId, t1: &Tuple, t2: &Tuple| {
        let (v1, v2) = (t1.get(attr), t2.get(attr));
        (v1 != v2 && !v1.is_null() && !v2.is_null()).then(|| atom(attr, v1, v2))
    };
    let mut omega = Vec::new();
    let unit = |conclusion: OrderAtom, origin: Origin| InstanceConstraint {
        premise: Premise::new(),
        conclusion: Conclusion::Atom(conclusion),
        origin,
    };

    // Null-bottom axioms `null ≺v a`.
    for attr in schema.attr_ids() {
        if space.get(attr, &Value::Null).is_some() {
            for v in entity.active_domain(attr) {
                omega.push(unit(atom(attr, &Value::Null, &v), Origin::NullBottom));
            }
        }
    }
    // Base currency orders.
    for attr in schema.attr_ids() {
        for (t1, t2) in spec.orders().pairs(attr) {
            if let Some(a) = strict(attr, entity.tuple(t1), entity.tuple(t2)) {
                omega.push(unit(a, Origin::BaseOrder));
            }
        }
    }
    // Currency constraints over the first tuple of each distinct projection
    // on the constraint's attributes.
    for (ci, constraint) in spec.sigma().iter().enumerate() {
        let attrs = constraint.referenced_attrs();
        let mut seen = HashSet::new();
        let reps: Vec<&Tuple> = entity
            .iter()
            .map(|(_, t)| t)
            .filter(|t| seen.insert(attrs.iter().map(|&a| t.get(a)).collect::<Vec<_>>()))
            .collect();
        for (i, &t1) in reps.iter().enumerate() {
            for (j, &t2) in reps.iter().enumerate() {
                if i == j {
                    continue;
                }
                let mut premise = Premise::new();
                let holds = constraint.premises().iter().all(|p| match p {
                    Predicate::Order { attr } => match strict(*attr, t1, t2) {
                        Some(a) => {
                            premise.push(a);
                            true
                        }
                        None => false,
                    },
                    other => other.eval_comparison(t1, t2).expect("comparison predicate"),
                });
                let Some(conclusion) = strict(constraint.conclusion_attr(), t1, t2) else {
                    continue;
                };
                if holds {
                    premise.canonicalize();
                    omega.push(InstanceConstraint {
                        premise,
                        conclusion: Conclusion::Atom(conclusion),
                        origin: Origin::Currency(ci),
                    });
                }
            }
        }
    }
    // Constant CFDs: ωX (every other non-null value of each LHS attribute
    // below the pattern constant) implies the pattern's B-value dominates;
    // an LHS constant outside the active domain never fires, an RHS one
    // forces ¬ωX.
    let others = |attr: AttrId, top: &Value| {
        let top = top.clone();
        entity
            .active_domain(attr)
            .into_iter()
            .filter(move |v| *v != top)
    };
    for (gi, cfd) in spec.gamma().iter().enumerate() {
        if cfd.lhs().iter().any(|(a, c)| space.get(*a, c).is_none()) {
            continue;
        }
        let mut premise = Premise::new();
        for (a, c) in cfd.lhs() {
            for v in others(*a, c) {
                premise.push(atom(*a, &v, c));
            }
        }
        let (b, bv) = cfd.rhs();
        if space.get(*b, bv).is_none() {
            let origin = Origin::Cfd(gi);
            omega.push(InstanceConstraint {
                premise,
                conclusion: Conclusion::False,
                origin,
            });
            continue;
        }
        for v in others(*b, bv) {
            omega.push(InstanceConstraint {
                premise: premise.clone(),
                conclusion: Conclusion::Atom(atom(*b, &v, bv)),
                origin: Origin::Cfd(gi),
            });
        }
    }
    omega
}
