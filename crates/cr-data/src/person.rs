//! The synthetic Person dataset (Section VI, "(3) Person data").
//!
//! The paper: *"The synthetic data adheres to the schema given in Table 2.
//! We found 983 currency constraints (of the same form but with distinct
//! constant values for status, job and kid) and a single CFD AC → city with
//! 1000 patterns. … For each entity, it first generated a true value `tc`,
//! and then produced a set `E` of tuples that have conflicts but do not
//! violate the currency constraints; we treated `E \ {tc}` as the entity
//! instance."*
//!
//! Construction here:
//!
//! * a global **status chain** of 600 values (599 ϕ1-style constraints), a
//!   **job chain** of 380 values (379 constraints), the ϕ4 kids
//!   monotonicity constraint, and the four propagation rules ϕ5–ϕ8 —
//!   `599 + 379 + 1 + 4 = 983` currency constraints;
//! * 1000 `AC → city` CFD patterns over an AC pool of 1000 codes;
//! * per entity, a state history walking the chains forward (never reusing
//!   an AC/zip/county value, so the data cannot violate the constraints),
//!   with `tc` the final state; the instance samples `|Ie|` tuples from the
//!   history and excludes one copy of `tc`, so some true values are only
//!   reachable through user input — exactly the regime in which Person
//!   needs up to 3 interaction rounds in Fig. 8(m).

use std::sync::Arc;

use rand::prelude::*;

use cr_constraints::parser::{parse_cfds, parse_currency_constraint};
use cr_constraints::{ConstantCfd, CurrencyConstraint};
use cr_types::{EntityInstance, Schema, Tuple, Value};

use crate::gen_util::rng;
use crate::Dataset;

/// Status chain length (599 constraints).
const STATUS_CHAIN: usize = 600;
/// Job chain length (379 constraints).
const JOB_CHAIN: usize = 380;
/// AC pool size (1000 CFD patterns).
const AC_POOL: usize = 1000;
/// Distinct cities the CFD patterns map to.
const CITY_POOL: usize = 250;
/// Maximum distinct states in one entity's history (bounds per-attribute
/// active domains, hence the cubic encoding, independent of instance size).
/// 18 states with ~|Ie| samples leaves ≈ 1/6 of the history unsampled, so
/// chains break and interaction is genuinely needed (Fig. 8(m)).
const MAX_STATES: usize = 18;

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct PersonConfig {
    /// Number of entities.
    pub entities: usize,
    /// Minimum tuples per entity instance.
    pub min_tuples: usize,
    /// Maximum tuples per entity instance.
    pub max_tuples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PersonConfig {
    fn default() -> Self {
        PersonConfig {
            entities: 100,
            min_tuples: 2,
            max_tuples: 40,
            seed: 0xBEEF,
        }
    }
}

/// The Person schema of Fig. 2.
pub fn schema() -> Arc<Schema> {
    Schema::new(
        "person",
        [
            "name", "status", "job", "kids", "city", "AC", "zip", "county",
        ],
    )
    .expect("static schema")
}

/// Builds the 983 currency constraints.
pub fn sigma(schema: &Arc<Schema>) -> Vec<CurrencyConstraint> {
    let mut out = Vec::with_capacity(983);
    for i in 0..STATUS_CHAIN - 1 {
        out.push(
            parse_currency_constraint(
                schema,
                &format!(
                    r#"t1[status] = "status_{i}" && t2[status] = "status_{}" -> t1 <[status] t2"#,
                    i + 1
                ),
            )
            .expect("static constraint"),
        );
    }
    for i in 0..JOB_CHAIN - 1 {
        out.push(
            parse_currency_constraint(
                schema,
                &format!(
                    r#"t1[job] = "job_{i}" && t2[job] = "job_{}" -> t1 <[job] t2"#,
                    i + 1
                ),
            )
            .expect("static constraint"),
        );
    }
    for text in [
        "t1[kids] < t2[kids] -> t1 <[kids] t2",
        "t1 <[status] t2 -> t1 <[job] t2",
        "t1 <[status] t2 -> t1 <[AC] t2",
        "t1 <[status] t2 -> t1 <[zip] t2",
        "t1 <[city] t2 && t1 <[zip] t2 -> t1 <[county] t2",
    ] {
        out.push(parse_currency_constraint(schema, text).expect("static constraint"));
    }
    debug_assert_eq!(out.len(), 983);
    out
}

/// Builds the 1000 `AC → city` CFD patterns.
pub fn gamma(schema: &Arc<Schema>) -> Vec<ConstantCfd> {
    (0..AC_POOL)
        .flat_map(|i| {
            parse_cfds(
                schema,
                &format!("AC = {} -> city = \"city_{}\"", 200 + i, i % CITY_POOL),
            )
            .expect("static CFD")
        })
        .collect()
}

/// One state of an entity's history.
#[derive(Clone)]
struct State {
    status: usize,
    job: usize,
    kids: i64,
    ac: usize,
    zip: usize,    // entity-local fresh counter
    county: usize, // entity-local fresh counter
}

impl State {
    fn to_tuple(&self, name: &str, entity: usize) -> Tuple {
        Tuple::of([
            Value::str(name),
            Value::str(format!("status_{}", self.status)),
            Value::str(format!("job_{}", self.job)),
            Value::int(self.kids),
            Value::str(format!("city_{}", self.ac % CITY_POOL)),
            Value::int(200 + self.ac as i64),
            Value::str(format!("zip_{entity}_{}", self.zip)),
            Value::str(format!("county_{entity}_{}", self.county)),
        ])
    }
}

/// Generates a Person dataset.
pub fn generate(config: PersonConfig) -> Dataset {
    let sizes: Vec<usize> = {
        let mut r = rng(config.seed ^ 0x51235);
        (0..config.entities)
            .map(|_| r.gen_range(config.min_tuples..=config.max_tuples))
            .collect()
    };
    generate_with_sizes(&sizes, config.seed)
}

/// Generates one entity per requested instance size (used by the Fig. 8
/// size-bin sweeps).
pub fn generate_with_sizes(sizes: &[usize], seed: u64) -> Dataset {
    let s = schema();
    let mut r = rng(seed);
    let mut entities = Vec::with_capacity(sizes.len());
    for (idx, &size) in sizes.iter().enumerate() {
        entities.push(generate_entity(&s, idx, size.max(1), &mut r));
    }
    Dataset {
        name: "Person".to_string(),
        schema: s.clone(),
        sigma: sigma(&s),
        gamma: gamma(&s),
        entities,
        table: None,
        program: std::sync::OnceLock::new(),
    }
    .share_value_table()
}

fn generate_entity(
    schema: &Arc<Schema>,
    idx: usize,
    size: usize,
    r: &mut rand_chacha::ChaCha8Rng,
) -> (EntityInstance, Tuple) {
    let name = format!("person_{idx}");
    let states_n = size.clamp(2, MAX_STATES);

    // History: walk every evolving attribute forward, never reusing values,
    // so the generated data cannot violate the (acyclic) constraints.
    let mut state = State {
        status: r.gen_range(0..STATUS_CHAIN - states_n),
        job: r.gen_range(0..JOB_CHAIN - states_n),
        kids: r.gen_range(0..3),
        ac: r.gen_range(0..AC_POOL),
        zip: 0,
        county: 0,
    };
    let mut states = vec![state.clone()];
    let mut used_acs: Vec<usize> = Vec::new();
    for _ in 1..states_n {
        // Status advances by exactly one chain step so adjacent history
        // states are directly constrained (gaps come from sampling below).
        state.status += 1;
        if r.gen_bool(0.6) {
            state.job += 1;
        }
        if r.gen_bool(0.5) {
            state.kids += 1;
        }
        if r.gen_bool(0.4) {
            // A fresh AC (never reused by this entity) keeps ϕ6 acyclic.
            used_acs.push(state.ac);
            loop {
                let candidate = r.gen_range(0..AC_POOL);
                if !used_acs.contains(&candidate) {
                    state.ac = candidate;
                    break;
                }
            }
        }
        // zip changes with every status change (ϕ7 orders them); county
        // follows city/zip (ϕ8).
        state.zip += 1;
        if r.gen_bool(0.5) {
            state.county += 1;
        }
        states.push(state.clone());
    }

    let truth = states.last().expect("non-empty").to_tuple(&name, idx);

    // E = `size` samples from the history plus one copy of tc; the instance
    // is E \ {tc}. Sampling may or may not re-draw the final state, so some
    // true values are outside the active domain ("new values" users supply).
    // Sample from the *older* states; with probability 0.90 one copy of the
    // final (truth) state survives in E \ {tc} — sources usually repeat the
    // current state — while the remaining 10% of entities have genuinely
    // stale instances whose newest values only users can supply.
    let older = states.len() - 1;
    let mut tuples: Vec<Tuple> = (0..size)
        .map(|_| {
            let pick = r.gen_range(0..older.max(1));
            states[pick].to_tuple(&name, idx)
        })
        .collect();
    if size >= 2 {
        // Guarantee at least one genuine conflict: the oldest state first.
        tuples[0] = states[0].to_tuple(&name, idx);
        if r.gen_bool(0.90) {
            let slot = 1 + r.gen_range(0..size - 1);
            tuples[slot] = states[states.len() - 1].to_tuple(&name, idx);
        }
    }
    let entity = EntityInstance::new(schema.clone(), tuples).expect("arity matches");
    (entity, truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::isvalid::is_valid;
    use cr_core::Specification;

    #[test]
    fn constraint_counts_match_the_paper() {
        let s = schema();
        assert_eq!(sigma(&s).len(), 983);
        assert_eq!(gamma(&s).len(), 1000);
    }

    #[test]
    fn generated_specs_are_valid() {
        let ds = generate(PersonConfig {
            entities: 12,
            min_tuples: 2,
            max_tuples: 30,
            seed: 7,
        });
        for i in 0..ds.len() {
            assert!(is_valid(&ds.spec(i)).valid, "entity {i} must be valid");
        }
    }

    #[test]
    fn instances_have_conflicts() {
        let ds = generate(PersonConfig {
            entities: 10,
            min_tuples: 4,
            max_tuples: 20,
            seed: 9,
        });
        let conflicting = ds
            .entities
            .iter()
            .filter(|(e, _)| !e.conflicting_attrs().is_empty())
            .count();
        assert!(conflicting >= 8, "most instances should carry conflicts");
    }

    #[test]
    fn truth_is_the_latest_state() {
        let ds = generate(PersonConfig {
            entities: 5,
            min_tuples: 6,
            max_tuples: 12,
            seed: 3,
        });
        for i in 0..ds.len() {
            let (e, truth) = &ds.entities[i];
            let status_attr = ds.schema.attr_id("status").unwrap();
            // The truth status is >= every status in the instance (chain
            // indices are comparable through the label suffix).
            let idx =
                |v: &Value| -> usize { v.to_token().rsplit('_').next().unwrap().parse().unwrap() };
            let truth_status = idx(truth.get(status_attr));
            for t in e.tuples() {
                assert!(idx(t.get(status_attr)) <= truth_status);
            }
        }
    }

    #[test]
    fn sizes_are_respected() {
        let ds = generate_with_sizes(&[1, 5, 17], 11);
        let sizes: Vec<usize> = ds.entities.iter().map(|(e, _)| e.len()).collect();
        assert_eq!(sizes, vec![1, 5, 17]);
    }

    #[test]
    fn active_domains_stay_bounded_for_huge_instances() {
        let ds = generate_with_sizes(&[800], 13);
        let (e, _) = &ds.entities[0];
        for attr in ds.schema.attr_ids() {
            assert!(
                e.active_domain(attr).len() <= MAX_STATES,
                "adom must be bounded by the state cap"
            );
        }
        // Large instances still encode + validate quickly.
        let spec = Specification::without_orders(e.clone(), ds.sigma.clone(), ds.gamma.clone());
        assert!(is_valid(&spec).valid);
    }
}
