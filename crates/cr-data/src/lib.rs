//! Dataset substrate for the experimental study (Section VI).
//!
//! Provides the paper's running example as an exact fixture ([`vjday`]) and
//! three generators emulating the evaluation datasets:
//!
//! * [`person`] — the synthetic Person data, implemented as the paper
//!   describes (generate a true tuple, then a conflicting-but-consistent
//!   history; the entity instance is `E \ {tc}`);
//! * [`nba`] — a simulated NBA player-statistics dataset matching the
//!   published shape statistics (760 entities, 2–136 tuples each, 54
//!   currency constraints, 58 constant CFDs of the documented forms);
//! * [`career`] — a simulated CAREER/citeseer dataset (65 entities, 2–175
//!   tuples, citation-derived currency constraints, an
//!   `affiliation → city, country` CFD with ~347 patterns).
//!
//! The real NBA and CAREER scrapes are not redistributable/available
//! offline. The generators keep what the experiments measure: entity sizes
//! and the forms and counts of the constraints, which fix the encoding size
//! and the solver work; only the concrete values are synthetic.

pub mod career;
pub mod chaos;
pub mod fleet;
pub mod gen;
pub mod gen_util;
pub mod nba;
pub mod person;
pub mod vjday;

use std::sync::{Arc, OnceLock};

use cr_constraints::{ConstantCfd, CurrencyConstraint};
use cr_core::{CompiledProgram, Specification};
use cr_types::{EntityInstance, Schema, Tuple, ValueTable};

/// A dataset: shared schema and constraints plus per-entity instances with
/// their ground-truth current tuples.
///
/// All entities share one [`ValueTable`] (see
/// `Dataset::share_value_table`) and one [`CompiledProgram`]
/// ([`Dataset::program`]): Σ/Γ are compiled against the table **once per
/// dataset**, and [`Dataset::spec`] stamps the shared program onto every
/// entity specification so per-entity encoding only *projects* through it.
pub struct Dataset {
    /// Dataset name (for reports).
    pub name: String,
    /// The relation schema.
    pub schema: Arc<Schema>,
    /// Currency constraints `Σ` shared by all entities.
    pub sigma: Vec<CurrencyConstraint>,
    /// Constant CFDs `Γ` shared by all entities.
    pub gamma: Vec<ConstantCfd>,
    /// `(entity instance, ground-truth tuple)` pairs.
    pub entities: Vec<(EntityInstance, Tuple)>,
    /// Dataset-wide value table (filled by `share_value_table`).
    pub(crate) table: Option<Arc<ValueTable>>,
    /// Σ/Γ compiled against the shared table, once per dataset.
    pub(crate) program: OnceLock<Arc<CompiledProgram>>,
}

impl Dataset {
    /// Builds the specification (with empty currency orders, as in all the
    /// paper's experiments) for entity `i`, carrying the dataset-shared
    /// compiled constraint program.
    pub fn spec(&self, i: usize) -> Specification {
        let spec = Specification::without_orders(
            self.entities[i].0.clone(),
            self.sigma.clone(),
            self.gamma.clone(),
        );
        spec.set_compiled_program(self.program().clone());
        spec
    }

    /// The dataset's compiled constraint program, compiled on first use
    /// against the shared value table.
    pub fn program(&self) -> &Arc<CompiledProgram> {
        self.program.get_or_init(|| {
            Arc::new(CompiledProgram::compile(
                &self.sigma,
                &self.gamma,
                self.table.as_deref(),
            ))
        })
    }

    /// The dataset-wide value table, if the entities were re-interned over
    /// one (`Dataset::share_value_table`). Consumers re-deriving
    /// constraint subsets (benchmark subsampling) compile their programs
    /// against this table.
    pub fn value_table(&self) -> Option<&Arc<ValueTable>> {
        self.table.as_ref()
    }

    /// The ground truth of entity `i`.
    pub fn truth(&self, i: usize) -> &Tuple {
        &self.entities[i].1
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True iff the dataset has no entities.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Re-interns every entity instance over **one dataset-wide
    /// [`ValueTable`]**: all values are interned exactly once, every
    /// entity's dense id rows reference the shared table (via `Arc`), and
    /// equal values are deduplicated across entities. Generators call this
    /// as their final step; the SAT encoder's instantiation then runs on
    /// dense ids whose interning cost was paid once per dataset rather than
    /// once per specification.
    pub(crate) fn share_value_table(mut self) -> Self {
        let mut table = ValueTable::new();
        for (e, truth) in &self.entities {
            table.intern_tuples(e.tuples());
            table.intern_tuples(std::iter::once(truth));
        }
        self.entities = self
            .entities
            .into_iter()
            .map(|(e, truth)| {
                let tuples = e.tuples().to_vec();
                let schema = e.schema().clone();
                (
                    EntityInstance::with_table(schema, tuples, &table)
                        .expect("arity already validated"),
                    truth,
                )
            })
            .collect();
        self.table = Some(Arc::new(table));
        self
    }

    /// Summary statistics: `(entities, min/avg/max instance size, |Σ|, |Γ|)`.
    pub fn stats(&self) -> DatasetStats {
        let sizes: Vec<usize> = self.entities.iter().map(|(e, _)| e.len()).collect();
        let total: usize = sizes.iter().sum();
        DatasetStats {
            entities: self.entities.len(),
            min_tuples: sizes.iter().copied().min().unwrap_or(0),
            avg_tuples: if sizes.is_empty() {
                0.0
            } else {
                total as f64 / sizes.len() as f64
            },
            max_tuples: sizes.iter().copied().max().unwrap_or(0),
            total_tuples: total,
            sigma: self.sigma.len(),
            gamma: self.gamma.len(),
        }
    }
}

/// Shape statistics of a dataset (compared against the paper's in tests).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetStats {
    /// Number of entities.
    pub entities: usize,
    /// Smallest entity instance.
    pub min_tuples: usize,
    /// Mean entity instance size.
    pub avg_tuples: f64,
    /// Largest entity instance.
    pub max_tuples: usize,
    /// Total tuples across entities.
    pub total_tuples: usize,
    /// Currency constraint count.
    pub sigma: usize,
    /// Constant CFD count.
    pub gamma: usize,
}

impl std::fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} entities, {} tuples ({}..{} per entity, avg {:.1}), |Sigma|={}, |Gamma|={}",
            self.entities,
            self.total_tuples,
            self.min_tuples,
            self.max_tuples,
            self.avg_tuples,
            self.sigma,
            self.gamma
        )
    }
}
