//! Independent oracles for the conflict-resolution engine.
//!
//! The engine's correctness rests on Lemmas 5/6 of the paper: the models
//! of `Φ(Se)` are exactly the valid completions of Section II-C. This
//! crate holds what checks that, written over the public APIs of
//! `cr-core` and `cr-store` only, so an oracle can never share a private
//! helper — or its bugs — with the engine it judges:
//!
//! * [`bruteforce`] — enumerates every value-level completion of a small
//!   specification and decides validity, implied orders and true values
//!   from the definition;
//! * [`replay`] — the checked replay harnesses: the Fig. 4 loop under a
//!   revision or causal stream, with the session proven equivalent to a
//!   from-scratch re-resolution after every batch;
//! * [`omega`] — the reference per-entity `Instantiation(Se)` the
//!   compiled-program projection is proven against.
//!
//! No crate the benchmark builds depends on this one; tests take it as a
//! dev-dependency.

pub mod bruteforce;
pub mod omega;
pub mod replay;

pub use omega::omega_reference;
pub use replay::{
    resolve_causal_checked, resolve_with_revisions_checked, CausalCheckedReplay,
    CausalReplayConfig, CheckedReplay,
};
