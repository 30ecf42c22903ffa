//! Accuracy accounting: precision, recall and F-measure (Section VI).
//!
//! Following the paper: *precision* is the ratio of correctly deduced values
//! to all values deduced; *recall* is the ratio of correctly deduced values
//! to the number of attributes with conflicts or stale values;
//! `F = 2·P·R/(P+R)`.
//!
//! An attribute is *relevant* (needs resolving) when its tuples disagree
//! (a conflict) or its single value differs from the ground truth (stale).
//! Trivially single-valued correct attributes are excluded from both
//! numerator and denominator so methods are compared on actual work.

use cr_types::{AttrId, EntityInstance, Tuple};

use crate::truevalue::TrueValues;

/// Precision / recall / F-measure triple.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FMeasure {
    /// Correct deduced / total deduced.
    pub precision: f64,
    /// Correct deduced / relevant attributes.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f_measure: f64,
}

impl FMeasure {
    /// Builds from raw counts.
    pub fn from_counts(correct: usize, deduced: usize, relevant: usize) -> FMeasure {
        let precision = if deduced == 0 {
            0.0
        } else {
            correct as f64 / deduced as f64
        };
        let recall = if relevant == 0 {
            1.0
        } else {
            correct as f64 / relevant as f64
        };
        let f_measure = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        FMeasure {
            precision,
            recall,
            f_measure,
        }
    }
}

/// Accumulates accuracy over many entities (the per-dataset averages the
/// paper reports).
#[derive(Clone, Copy, Debug, Default)]
pub struct Accuracy {
    correct: usize,
    deduced: usize,
    relevant: usize,
    entities: usize,
    fully_resolved: usize,
}

impl Accuracy {
    /// Empty accumulator.
    pub fn new() -> Self {
        Accuracy::default()
    }

    /// The attributes of `entity` that need resolving against `truth`:
    /// conflicting or stale.
    pub fn relevant_attrs(entity: &EntityInstance, truth: &Tuple) -> Vec<AttrId> {
        entity
            .schema()
            .attr_ids()
            .filter(|&a| {
                let mut values = entity.tuples().iter().map(|t| t.get(a));
                match values.next() {
                    None => false,
                    Some(first) => {
                        let conflict = values.clone().any(|v| v != first);
                        let stale = !conflict && first != truth.get(a);
                        conflict || stale
                    }
                }
            })
            .collect()
    }

    /// Scores one entity's resolution against its ground truth.
    pub fn add_entity(&mut self, entity: &EntityInstance, truth: &Tuple, resolved: &TrueValues) {
        let relevant = Self::relevant_attrs(entity, truth);
        self.relevant += relevant.len();
        self.entities += 1;
        let mut all_attrs_known = true;
        for attr in entity.schema().attr_ids() {
            if resolved.get(attr).is_none() {
                all_attrs_known = false;
            }
        }
        if all_attrs_known {
            self.fully_resolved += 1;
        }
        for &attr in &relevant {
            if let Some(v) = resolved.get(attr) {
                self.deduced += 1;
                if v == truth.get(attr) {
                    self.correct += 1;
                }
            }
        }
    }

    /// The aggregated F-measure.
    pub fn f_measure(&self) -> FMeasure {
        FMeasure::from_counts(self.correct, self.deduced, self.relevant)
    }

    /// Fraction of relevant attribute values correctly found — the y-axis of
    /// the interaction plots (Fig. 8(e)/(i)/(m)).
    pub fn true_value_fraction(&self) -> f64 {
        if self.relevant == 0 {
            1.0
        } else {
            self.correct as f64 / self.relevant as f64
        }
    }

    /// Fraction of entities fully resolved.
    pub fn fully_resolved_fraction(&self) -> f64 {
        if self.entities == 0 {
            0.0
        } else {
            self.fully_resolved as f64 / self.entities as f64
        }
    }

    /// Raw counters `(correct, deduced, relevant, entities)`.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        (self.correct, self.deduced, self.relevant, self.entities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_types::{Schema, Value};

    fn entity() -> (EntityInstance, Tuple) {
        let s = Schema::new("p", ["name", "status", "kids", "city"]).unwrap();
        let e = EntityInstance::new(
            s,
            vec![
                Tuple::of([
                    Value::str("X"),
                    Value::str("working"),
                    Value::int(0),
                    Value::str("NY"),
                ]),
                Tuple::of([
                    Value::str("X"),
                    Value::str("retired"),
                    Value::int(3),
                    Value::str("NY"),
                ]),
            ],
        )
        .unwrap();
        // city "NY" is stale: truth says LA. name is trivially correct.
        let truth = Tuple::of([
            Value::str("X"),
            Value::str("retired"),
            Value::int(3),
            Value::str("LA"),
        ]);
        (e, truth)
    }

    #[test]
    fn relevant_attrs_are_conflicting_or_stale() {
        let (e, truth) = entity();
        let names: Vec<&str> = Accuracy::relevant_attrs(&e, &truth)
            .iter()
            .map(|&a| e.schema().attr_name(a))
            .collect();
        assert_eq!(names, vec!["status", "kids", "city"]);
    }

    #[test]
    fn perfect_resolution_scores_one() {
        let (e, truth) = entity();
        let resolved = TrueValues::new(truth.values().iter().cloned().map(Some).collect());
        let mut acc = Accuracy::new();
        acc.add_entity(&e, &truth, &resolved);
        let f = acc.f_measure();
        assert_eq!(f.precision, 1.0);
        assert_eq!(f.recall, 1.0);
        assert_eq!(f.f_measure, 1.0);
        assert_eq!(acc.fully_resolved_fraction(), 1.0);
    }

    #[test]
    fn partial_resolution_trades_recall() {
        let (e, truth) = entity();
        // Resolve status correctly, leave kids/city unknown.
        let resolved = TrueValues::new(vec![
            Some(Value::str("X")),
            Some(Value::str("retired")),
            None,
            None,
        ]);
        let mut acc = Accuracy::new();
        acc.add_entity(&e, &truth, &resolved);
        let f = acc.f_measure();
        assert_eq!(f.precision, 1.0);
        assert!((f.recall - 1.0 / 3.0).abs() < 1e-9);
        assert!((f.f_measure - 0.5).abs() < 1e-9);
        assert_eq!(acc.fully_resolved_fraction(), 0.0);
    }

    #[test]
    fn wrong_values_hurt_precision() {
        let (e, truth) = entity();
        let resolved = TrueValues::new(vec![
            Some(Value::str("X")),
            Some(Value::str("working")), // wrong
            Some(Value::int(3)),         // right
            Some(Value::str("NY")),      // wrong (stale)
        ]);
        let mut acc = Accuracy::new();
        acc.add_entity(&e, &truth, &resolved);
        let f = acc.f_measure();
        assert!((f.precision - 1.0 / 3.0).abs() < 1e-9);
        assert!((f.recall - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn f_measure_degenerate_cases() {
        let f = FMeasure::from_counts(0, 0, 0);
        assert_eq!(f.precision, 0.0);
        assert_eq!(f.recall, 1.0);
        assert_eq!(f.f_measure, 0.0);
    }
}
