//! Dataset-compiled constraint programs.
//!
//! The Fig. 4 loop resolves every entity of a dataset against the *same*
//! Σ (currency constraints) and Γ (constant CFDs), yet naive per-entity
//! encoding re-derives each constraint's referenced-attribute set, premise
//! decomposition and CFD pattern lookups from scratch for every entity. A
//! [`CompiledProgram`] performs that derivation **once per dataset**:
//!
//! * per currency constraint, the sorted referenced-attribute projection
//!   key, the order premises, and the comparison predicates split into
//!   unary (constant, per-side) and binary (tuple) conjuncts — so pair
//!   instantiation can pre-evaluate the unary conjuncts once per distinct
//!   projection instead of once per ordered pair;
//! * the **projection classes** of Σ — its distinct referenced-attribute
//!   sets, each constraint tagged with its class id — so an entity's
//!   tuples are grouped once per class, not once per constraint;
//! * per constraint side, its **pin**: when the side's `Eq` conjuncts
//!   equate every referenced attribute to a *string* constant with a table
//!   id, those ids, in class-attribute order — the key that finds the one
//!   projection the side can match by lookup instead of evaluating every
//!   projection. Numeric constants never pin: `Int(3)` and `Float(3.0)`
//!   are semantically equal under different ids, so a numeric `Eq` can
//!   match more than one projection (see the `omega` module docs for when
//!   the lookup is conclusive);
//! * per constant CFD, the pattern constants resolved to the dataset
//!   [`ValueTable`]'s dense [`GlobalValueId`]s — so per-entity pattern
//!   matching is an integer lookup against the entity's global-id rows
//!   instead of a `Value` hash;
//! * the table's identity token, `debug_assert`-checked against every
//!   entity the program is projected onto (a program compiled for one id
//!   universe must never meet an entity interned against another).
//!
//! `Specification` caches one `Arc<CompiledProgram>` (shared by clones, so
//! every round of a resolution and every entity stamped by a dataset
//! generator reuses it); [`compile_count`] counts actual compilations so
//! benchmarks can enforce the compile-once-per-dataset invariant in CI.

use std::sync::atomic::{AtomicUsize, Ordering};

use cr_constraints::{CompOp, ConstantCfd, CurrencyConstraint, Predicate, TupleRef};
use cr_types::{AttrId, GlobalValueId, Value, ValueTable};

/// Global count of [`CompiledProgram::compile`] runs — telemetry for the
/// compile-once-per-dataset invariant (the workspace's
/// `tests/compile_once.rs`).
static COMPILE_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Number of constraint programs compiled so far in this process.
pub fn compile_count() -> usize {
    COMPILE_COUNT.load(Ordering::Relaxed)
}

#[cfg(test)]
thread_local! {
    /// [`COMPILE_COUNT`] of the current thread alone: unit tests run on
    /// parallel threads that compile too, so a delta of the global count
    /// races.
    static THREAD_COMPILE_COUNT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A constant comparison `ti[attr] op c`, with the constant pre-resolved to
/// its dataset-wide global id when the program was compiled with a table
/// (equality against a table value then needs no `Value` compare at all).
#[derive(Clone, Debug)]
pub(crate) struct CompiledConstCmp {
    pub attr: AttrId,
    pub op: CompOp,
    pub constant: Value,
    /// The constant's [`GlobalValueId`] in the program's table, if any.
    pub gid: Option<GlobalValueId>,
}

impl CompiledConstCmp {
    /// Evaluates the conjunct on the tuple `tid` of `entity`, matching
    /// [`Predicate::eval_comparison`] exactly: a null operand is `false`.
    /// `use_gids` gates the global-id fast path — callers pass `true` only
    /// when the program and entity share one [`ValueTable`] id universe.
    #[inline]
    pub(crate) fn eval_gated(
        &self,
        entity: &cr_types::EntityInstance,
        tid: cr_types::TupleId,
        use_gids: bool,
    ) -> bool {
        let local = entity.dense_id(tid, self.attr);
        if local == cr_types::NULL_VALUE_ID {
            return false;
        }
        // Fast path: *matching* global ids prove value equality, deciding
        // Eq/Neq with one integer compare. Distinct ids are not conclusive
        // (the semantic ordering equates e.g. `Int(3)` and `Float(3.0)`),
        // so a miss falls through to the semantic evaluation.
        if use_gids {
            if let Some(gid) = self.gid {
                if entity.global_of_local(local) == gid {
                    match self.op {
                        CompOp::Eq => return true,
                        CompOp::Neq => return false,
                        _ => {}
                    }
                }
            }
        }
        self.op.eval(entity.dense_value(local), &self.constant)
    }

    /// Evaluates the conjunct on an arbitrary tuple (the user-input tuple
    /// `to`, which has no dense row) — pure `Value` evaluation with
    /// [`Predicate::eval_comparison`]'s null semantics.
    #[inline]
    pub(crate) fn eval_tuple(&self, t: &cr_types::Tuple) -> bool {
        let v = t.get(self.attr);
        !v.is_null() && !self.constant.is_null() && self.op.eval(v, &self.constant)
    }
}

/// Appends the pin of one constraint side to `pins` and returns where it
/// starts: for every referenced attribute, the table id of a string
/// constant the side's `Eq` conjuncts equate it to. Only strings qualify —
/// numerically equal `Int`/`Float` values are semantically equal under
/// distinct ids, so a numeric constant can match more than one projection.
fn push_pin(
    attrs: &[AttrId],
    consts: &[CompiledConstCmp],
    pins: &mut Vec<GlobalValueId>,
) -> Option<u32> {
    let start = pins.len();
    for &a in attrs {
        let gid = consts
            .iter()
            .find(|c| c.attr == a && c.op == CompOp::Eq && matches!(c.constant, Value::Str(_)))
            .and_then(|c| c.gid);
        match gid {
            Some(g) => pins.push(g),
            None => {
                pins.truncate(start);
                return None;
            }
        }
    }
    Some(start as u32)
}

/// One currency constraint with its per-dataset derivations (see the
/// module docs). Field order mirrors evaluation order in the encoder.
#[derive(Clone, Debug)]
pub(crate) struct CompiledConstraint {
    /// Sorted, deduplicated premise ∪ conclusion attributes — the
    /// projection-grouping key of `Instantiation(Se)` step 4.
    pub referenced_attrs: Vec<AttrId>,
    /// The constraint's projection class: index into
    /// [`CompiledProgram::classes`], shared by every constraint with the
    /// same `referenced_attrs`.
    pub class: usize,
    /// Per side, where the table ids that *pin* the side's projection (see
    /// the module docs) start in [`CompiledProgram::pins`] — one id per
    /// referenced attribute, in `referenced_attrs` order — when the side's
    /// string `Eq` constants fix every referenced attribute; `None`
    /// otherwise.
    pub t1_pin: Option<u32>,
    pub t2_pin: Option<u32>,
    /// Attributes of the symbolic order premises, in premise order.
    pub order_premises: Vec<AttrId>,
    /// Binary comparison conjuncts `t1[attr] op t2[attr]`.
    pub tuple_cmps: Vec<(AttrId, CompOp)>,
    /// Unary conjuncts on `t1` / on `t2` — evaluated once per distinct
    /// projection, not once per ordered pair.
    pub t1_consts: Vec<CompiledConstCmp>,
    pub t2_consts: Vec<CompiledConstCmp>,
    /// The conclusion attribute `Ar` of `t1 ≺_Ar t2`.
    pub conclusion_attr: AttrId,
}

/// One constant CFD with pattern constants in dense-id form.
#[derive(Clone, Debug)]
pub(crate) struct CompiledCfd {
    /// LHS pattern `(attr, constant, table id)`.
    pub lhs: Vec<(AttrId, Value, Option<GlobalValueId>)>,
    /// RHS `(attr, constant, table id)`.
    pub rhs: (AttrId, Value, Option<GlobalValueId>),
}

/// The compiled form of a dataset's Σ/Γ — built once, projected onto every
/// entity (see the module docs and the "Compiled constraint programs"
/// section of [`crate::encode`]).
#[derive(Debug)]
pub struct CompiledProgram {
    pub(crate) sigma: Vec<CompiledConstraint>,
    pub(crate) gamma: Vec<CompiledCfd>,
    /// The distinct referenced-attribute sets of Σ, in first-occurrence
    /// order — the projection classes entities are grouped by.
    pub(crate) classes: Vec<Vec<AttrId>>,
    /// The pins of all constraint sides, back to back (see
    /// [`CompiledProgram::pin`]).
    pub(crate) pins: Vec<GlobalValueId>,
    /// [`ValueTable::token`] of the table the constants were resolved
    /// against, if one was supplied.
    table_token: Option<u64>,
}

impl CompiledProgram {
    /// Compiles Σ/Γ, resolving constants against `table` when supplied.
    /// Compile with the dataset's shared [`ValueTable`] whenever one exists:
    /// constants then match entity cells by dense global id. Without a
    /// table the program still caches every structural derivation; constant
    /// matching falls back to `Value` comparisons.
    pub fn compile(
        sigma: &[CurrencyConstraint],
        gamma: &[ConstantCfd],
        table: Option<&ValueTable>,
    ) -> Self {
        COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        THREAD_COMPILE_COUNT.with(|n| n.set(n.get() + 1));
        let resolve = |v: &Value| table.and_then(|t| t.get(v));
        // Σ has few classes (hundreds of generated Person constraints fall
        // into two), so a linear scan finds a constraint's class.
        let mut classes: Vec<Vec<AttrId>> = Vec::new();
        let mut pins: Vec<GlobalValueId> = Vec::new();
        let sigma = sigma
            .iter()
            .map(|c| {
                let referenced_attrs = c.referenced_attrs();
                let class = match classes.iter().position(|k| *k == referenced_attrs) {
                    Some(class) => class,
                    None => {
                        classes.push(referenced_attrs.clone());
                        classes.len() - 1
                    }
                };
                let mut cc = CompiledConstraint {
                    referenced_attrs,
                    class,
                    t1_pin: None,
                    t2_pin: None,
                    order_premises: Vec::new(),
                    tuple_cmps: Vec::new(),
                    t1_consts: Vec::new(),
                    t2_consts: Vec::new(),
                    conclusion_attr: c.conclusion_attr(),
                };
                for p in c.premises() {
                    match p {
                        Predicate::Order { attr } => cc.order_premises.push(*attr),
                        Predicate::TupleCmp { attr, op } => cc.tuple_cmps.push((*attr, *op)),
                        Predicate::ConstCmp {
                            tuple,
                            attr,
                            op,
                            constant,
                        } => {
                            let compiled = CompiledConstCmp {
                                attr: *attr,
                                op: *op,
                                constant: constant.clone(),
                                gid: resolve(constant),
                            };
                            match tuple {
                                TupleRef::T1 => cc.t1_consts.push(compiled),
                                TupleRef::T2 => cc.t2_consts.push(compiled),
                            }
                        }
                    }
                }
                cc.t1_pin = push_pin(&cc.referenced_attrs, &cc.t1_consts, &mut pins);
                cc.t2_pin = push_pin(&cc.referenced_attrs, &cc.t2_consts, &mut pins);
                cc
            })
            .collect();
        let gamma = gamma
            .iter()
            .map(|cfd| CompiledCfd {
                lhs: cfd
                    .lhs()
                    .iter()
                    .map(|(a, v)| (*a, v.clone(), resolve(v)))
                    .collect(),
                rhs: {
                    let (a, v) = cfd.rhs();
                    (*a, v.clone(), resolve(v))
                },
            })
            .collect();
        CompiledProgram {
            sigma,
            gamma,
            classes,
            pins,
            table_token: table.map(|t| t.token()),
        }
    }

    /// The pin of one constraint side, given its start (a
    /// [`CompiledConstraint`]'s `t1_pin`/`t2_pin`).
    pub(crate) fn pin(&self, cc: &CompiledConstraint, start: u32) -> &[GlobalValueId] {
        let start = start as usize;
        &self.pins[start..start + cc.referenced_attrs.len()]
    }

    /// Token of the [`ValueTable`] the constants were resolved against.
    pub fn table_token(&self) -> Option<u64> {
        self.table_token
    }

    /// `(|Σ|, |Γ|)` of the compiled program — sanity-checked against the
    /// specification it is used with.
    pub fn sizes(&self) -> (usize, usize) {
        (self.sigma.len(), self.gamma.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
    use cr_types::Schema;

    #[test]
    fn compile_splits_premises_and_resolves_constants() {
        let s = Schema::new("p", ["status", "job", "kids"]).unwrap();
        let mut table = ValueTable::new();
        let working = table.intern(&Value::str("working"));
        let c = parse_currency_constraint(
            &s,
            r#"t1[status] = "working" && t1[kids] < t2[kids] && t1 <[status] t2 -> t1 <[job] t2"#,
        )
        .unwrap();
        let gamma = parse_cfds(&s, "status = \"working\" -> job = \"nurse\"").unwrap();
        let compiled = || THREAD_COMPILE_COUNT.with(std::cell::Cell::get);
        let before = compiled();
        let p = CompiledProgram::compile(&[c], &gamma, Some(&table));
        assert_eq!(compiled(), before + 1);
        assert_eq!(p.sizes(), (1, 1));
        assert_eq!(p.table_token(), Some(table.token()));
        let cc = &p.sigma[0];
        let status = s.attr_id("status").unwrap();
        let job = s.attr_id("job").unwrap();
        let kids = s.attr_id("kids").unwrap();
        assert_eq!(cc.referenced_attrs, vec![status, job, kids]);
        assert_eq!(cc.order_premises, vec![status]);
        assert_eq!(cc.tuple_cmps, vec![(kids, CompOp::Lt)]);
        assert_eq!(cc.t1_consts.len(), 1);
        assert_eq!(cc.t1_consts[0].gid, Some(working));
        assert!(cc.t2_consts.is_empty());
        assert_eq!(cc.conclusion_attr, job);
        // "nurse" is not in the table: falls back to Value matching.
        assert_eq!(p.gamma[0].lhs[0].2, Some(working));
        assert_eq!(p.gamma[0].rhs.2, None);
        // One projection class; t1's constant fixes only `status`, so no
        // side is pinned.
        assert_eq!(p.classes, vec![vec![status, job, kids]]);
        assert_eq!(cc.class, 0);
        assert_eq!((cc.t1_pin, cc.t2_pin), (None, None));
    }

    #[test]
    fn compile_groups_classes_and_pins_string_constants_only() {
        let s = Schema::new("p", ["status", "kids"]).unwrap();
        let mut table = ValueTable::new();
        let working = table.intern(&Value::str("working"));
        let retired = table.intern(&Value::str("retired"));
        table.intern(&Value::int(3));
        let sigma: Vec<_> = [
            r#"t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2"#,
            // Numeric constants never pin.
            "t1[kids] = 3 && t2[kids] = 4 -> t1 <[kids] t2",
            r#"t1[status] = "retired" && t2[status] = "working" -> t1 <[status] t2"#,
            // A constant missing from the table cannot pin.
            r#"t1[status] = "deceased" -> t1 <[status] t2"#,
        ]
        .iter()
        .map(|c| parse_currency_constraint(&s, c).unwrap())
        .collect();
        let p = CompiledProgram::compile(&sigma, &[], Some(&table));
        let status = s.attr_id("status").unwrap();
        let kids = s.attr_id("kids").unwrap();
        assert_eq!(p.classes, vec![vec![status], vec![kids]]);
        let class: Vec<usize> = p.sigma.iter().map(|cc| cc.class).collect();
        assert_eq!(class, vec![0, 1, 0, 0]);
        let pin =
            |ci: usize, side: Option<u32>| side.map(|start| p.pin(&p.sigma[ci], start).to_vec());
        assert_eq!(pin(0, p.sigma[0].t1_pin), Some(vec![working]));
        assert_eq!(pin(0, p.sigma[0].t2_pin), Some(vec![retired]));
        assert_eq!((p.sigma[1].t1_pin, p.sigma[1].t2_pin), (None, None));
        assert_eq!(pin(2, p.sigma[2].t1_pin), Some(vec![retired]));
        assert_eq!((p.sigma[3].t1_pin, p.sigma[3].t2_pin), (None, None));
    }
}
