//! Relational substrate for currency/consistency conflict resolution.
//!
//! This crate provides the data model of Section II of the paper:
//! dynamically typed [`Value`]s with the null-lowest comparison semantics the
//! currency model requires, relation [`Schema`]s, [`Tuple`]s, and
//! [`EntityInstance`]s — sets of tuples all pertaining to one real-world
//! entity (the unit the conflict-resolution algorithms operate on).
//!
//! It also hosts the per-attribute [`interner`] used by the SAT encoder and a
//! small dependency-free [`csv`] module for dataset import/export.

pub mod causal;
pub mod codec;
pub mod csv;
pub mod entity;
pub mod error;
pub mod interner;
pub mod schema;
pub mod tuple;
pub mod value;
pub mod wire;

pub use causal::{CausalStamp, Epoch, Hlc, SourceClock, SourceId, VectorClock};
pub use codec::{CodecError, Dec, Enc, FrameScanner};
pub use entity::{EntityInstance, TupleId, NO_GLOBAL_VALUE};
pub use error::TypesError;
pub use interner::{
    AttrValueSpace, GlobalValueId, ValueId, ValueInterner, ValueTable, NULL_VALUE_ID,
};
pub use schema::{AttrId, Attribute, Schema};
pub use tuple::Tuple;
pub use value::Value;
pub use wire::{Envelope, IdemKey, RequestId, TenantId};
