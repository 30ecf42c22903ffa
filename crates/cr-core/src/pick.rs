//! The traditional `Pick` baseline (Section VI).
//!
//! `Pick` resolves each attribute by randomly taking one of its values \[4\].
//! As in the paper, the baseline is *favoured*: it may discard values that
//! are provably stale according to the comparison-only currency constraints
//! (those whose premise `ω` contains no order predicates, e.g. ϕ1–ϕ4), and
//! picks uniformly among the remaining maximal values.

use cr_types::Value;

use crate::spec::Specification;
use crate::truevalue::TrueValues;

/// Deterministic SplitMix64 for seeded "random" picks without an external
/// RNG dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Runs the favoured `Pick` baseline on `spec`, returning one value per
/// attribute.
pub fn pick_baseline(spec: &Specification, seed: u64) -> TrueValues {
    let mut rng = SplitMix64(seed ^ 0xD1B54A32D192ED03);
    let entity = spec.entity();
    let schema = spec.schema();
    let mut out = Vec::with_capacity(schema.arity());

    for attr in schema.attr_ids() {
        let dom = entity.active_domain(attr);
        if dom.is_empty() {
            out.push(Some(Value::Null));
            continue;
        }
        if dom.len() == 1 {
            out.push(Some(dom[0].clone()));
            continue;
        }
        // Value-level orders derivable from comparison-only constraints.
        let mut dominated = vec![false; dom.len()];
        for c in spec.sigma() {
            if c.conclusion_attr() != attr || !c.is_comparison_only() {
                continue;
            }
            for (i1, t1) in entity.iter() {
                for (i2, t2) in entity.iter() {
                    if i1 == i2 {
                        continue;
                    }
                    if !c.comparisons_hold(t1, t2) {
                        continue;
                    }
                    let w1 = t1.get(attr);
                    let w2 = t2.get(attr);
                    if w1 == w2 || w1.is_null() {
                        continue;
                    }
                    if let Some(pos) = dom.iter().position(|v| v == w1) {
                        dominated[pos] = true;
                    }
                }
            }
        }
        let maximal: Vec<&Value> = dom
            .iter()
            .zip(&dominated)
            .filter(|(_, d)| !**d)
            .map(|(v, _)| v)
            .collect();
        let pool: &[&Value] = if maximal.is_empty() {
            // Constraints dominated everything (cyclic data): fall back to
            // the full domain, like a plain random pick.
            &dom.iter().collect::<Vec<_>>()[..]
        } else {
            &maximal[..]
        };
        out.push(Some(pool[rng.pick(pool.len())].clone()));
    }
    TrueValues::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_constraints::parser::parse_currency_file;
    use cr_types::{AttrId, EntityInstance, Schema, Tuple};

    fn spec() -> Specification {
        let s = Schema::new("p", ["status", "kids", "city"]).unwrap();
        let e = EntityInstance::new(
            s.clone(),
            vec![
                Tuple::of([Value::str("working"), Value::int(0), Value::str("NY")]),
                Tuple::of([Value::str("retired"), Value::int(3), Value::str("LA")]),
            ],
        )
        .unwrap();
        let sigma = parse_currency_file(
            &s,
            r#"
            t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2
            t1[kids] < t2[kids] -> t1 <[kids] t2
            "#,
        )
        .unwrap();
        Specification::without_orders(e, sigma, vec![])
    }

    #[test]
    fn comparison_constraints_prune_stale_values() {
        let sp = spec();
        let schema = sp.schema().clone();
        for seed in 0..20 {
            let picked = pick_baseline(&sp, seed);
            // status and kids are pinned by the comparison-only constraints.
            assert_eq!(
                picked.get(schema.attr_id("status").unwrap()),
                Some(&Value::str("retired"))
            );
            assert_eq!(
                picked.get(schema.attr_id("kids").unwrap()),
                Some(&Value::int(3))
            );
        }
    }

    #[test]
    fn unconstrained_attribute_varies_with_seed() {
        let sp = spec();
        let city = sp.schema().attr_id("city").unwrap();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..50 {
            seen.insert(pick_baseline(&sp, seed).get(city).unwrap().clone());
        }
        assert_eq!(seen.len(), 2, "both cities should appear across seeds");
    }

    #[test]
    fn pick_is_deterministic_per_seed() {
        let sp = spec();
        assert_eq!(
            pick_baseline(&sp, 7).as_slice(),
            pick_baseline(&sp, 7).as_slice()
        );
    }

    #[test]
    fn single_value_and_empty_attrs() {
        let s = Schema::new("p", ["a", "b"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![
                Tuple::of([Value::str("only"), Value::Null]),
                Tuple::of([Value::str("only"), Value::Null]),
            ],
        )
        .unwrap();
        let sp = Specification::without_orders(e, vec![], vec![]);
        let picked = pick_baseline(&sp, 1);
        assert_eq!(picked.get(AttrId(0)), Some(&Value::str("only")));
        assert_eq!(picked.get(AttrId(1)), Some(&Value::Null));
    }
}
