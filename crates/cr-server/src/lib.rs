//! Resolution-as-a-service: a robustness-first serving layer over durable
//! resolution sessions.
//!
//! PRs 5–8 made correction ingestion causal (`cr_core::causal`), durable
//! (`cr-store`'s write-ahead log) and batched with epoch-consistent
//! reads; this crate turns the library into a *system*: a message-based
//! front-end over [`SessionStore`](cr_store::SessionStore) built for many
//! concurrent, unreliable clients.
//!
//! * [`proto`] — the typed request/response protocol: every operation is
//!   a [`Request`] in a versioned [`Envelope`](cr_types::wire::Envelope),
//!   wire-encodable with the same total codec the durable log uses (any
//!   byte string decodes to a value or a typed error — fuzzable by
//!   construction);
//! * [`admission`] — per-tenant token buckets and bounded queues: an
//!   overloaded tenant is shed with a typed
//!   [`ServeError::Overloaded`] carrying an honest retry-after hint,
//!   never queued unboundedly;
//! * [`server`] — the deterministic tick-driven front-end: fair
//!   round-robin dispatch under a global in-flight cap (one hot tenant
//!   cannot starve others), deadlines with cancellation at queue-dequeue
//!   time and mid-request phase expiry
//!   ([`cr_core::deadline::PhaseDeadline`]), and idempotency keys so
//!   client retries of mutations are answered from the store's reply
//!   ledger instead of double-applied — with the causal frontier's
//!   `(source, hlc)` dedup as the durable backstop underneath.
//!
//! The exactly-once-under-retry contract is verified end to end by the
//! simulated client fleet in `cr-data` (drop / duplicate / delay /
//! reorder / disconnect faults with exponential-backoff-plus-jitter
//! retries) and enforced in CI by the seeded `serve_soak` binary.

pub mod admission;
pub mod proto;
pub mod server;

pub use admission::{AdmissionConfig, TokenBucket};
pub use proto::{
    decode_message, encode_message, Message, Reply, Request, Response, ServeError, PROTO_VERSION,
};
pub use server::{ServeTelemetry, Server};
