//! Umbrella crate: conflict resolution by inferring data currency and
//! consistency (Fan, Geerts, Tang, Yu — ICDE 2013).
//!
//! Re-exports the engine (`cr-core`) and the crates its API is written in
//! (types, constraints, SAT, clique, datasets) so applications can depend
//! on a single crate. See the README for a guided tour and
//! `examples/quickstart.rs` for the paper's running example.

pub use cr_clique as clique;
pub use cr_constraints as constraints;
pub use cr_core as core;
pub use cr_data as data;
pub use cr_sat as sat;
pub use cr_types as types;
