//! Wire-protocol envelope records for the serving layer.
//!
//! `cr-server` speaks a message-based request/response protocol over the
//! same hand-rolled binary codec the durable log uses
//! ([`crate::codec`]). This module holds the *transport-agnostic* half of
//! that protocol — the pieces that reference only `cr-types`: tenant and
//! request identities, deadlines measured in server ticks, idempotency
//! keys, and the versioned [`Envelope`] every request travels in. The
//! request/response *payloads* (which reference `cr-core` types) and the
//! full message codec live in `cr-server::proto`; both layers share the
//! decode-totality guarantee of the primitive codec: every byte string
//! decodes to a value or a typed [`CodecError`], never a panic.
//!
//! Time is a logical **tick** counter supplied by the serving harness, not
//! wall clock: deadlines and retry-after hints are absolute/relative tick
//! counts, which keeps every admission-control and timeout decision
//! deterministic and replayable under test.

use crate::codec::{CodecError, Dec, Enc};

/// A tenant — the unit admission control isolates. Each tenant owns a
/// token bucket and a bounded request queue on the server; one hot tenant
/// exhausts *its own* budget, never its neighbours'.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// A per-tenant request identity, chosen by the client. Replies echo it;
/// cancellation targets it. Distinct in-flight requests of one tenant must
/// use distinct ids (a retry of the *same* logical request reuses the id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// An idempotency key for mutating requests. A client retrying a mutation
/// (because its reply was lost) sends the same key; the server's ledger
/// replays the recorded reply instead of applying the mutation twice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IdemKey(pub u64);

/// The versioned envelope every request travels in: who is asking
/// (tenant), what session they target, which logical request this is, by
/// when it must be answered, and — for mutations — the idempotency key
/// retries are deduplicated under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Client-chosen request identity, echoed in the reply.
    pub request_id: RequestId,
    /// The tenant whose admission budget this request spends.
    pub tenant: TenantId,
    /// The durable session the request targets (a `cr-store` session id).
    pub session: u64,
    /// Absolute server tick after which the request is dead: a request
    /// still queued at its deadline is cancelled at dequeue time, and a
    /// multi-phase read that crosses it mid-request stops early. `None`
    /// lets the server stamp its configured default.
    pub deadline: Option<u64>,
    /// Idempotency key for mutating requests (`None` for reads).
    pub idempotency: Option<IdemKey>,
}

/// Encodes an [`Envelope`] body (no version byte — the enclosing message
/// carries the protocol version).
pub fn encode_envelope(e: &mut Enc, env: &Envelope) {
    e.put_varint(env.request_id.0);
    e.put_varint(u64::from(env.tenant.0));
    e.put_varint(env.session);
    match env.deadline {
        None => e.put_u8(0),
        Some(at) => {
            e.put_u8(1);
            e.put_varint(at);
        }
    }
    match env.idempotency {
        None => e.put_u8(0),
        Some(key) => {
            e.put_u8(1);
            e.put_varint(key.0);
        }
    }
}

fn get_opt_varint(d: &mut Dec<'_>, what: &'static str) -> Result<Option<u64>, CodecError> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(d.varint()?)),
        tag => Err(CodecError::BadTag { what, tag }),
    }
}

/// Decodes an [`Envelope`] body.
pub fn decode_envelope(d: &mut Dec<'_>) -> Result<Envelope, CodecError> {
    let request_id = RequestId(d.varint()?);
    let tenant = TenantId(u32::try_from(d.varint()?).map_err(|_| CodecError::BadVarint)?);
    let session = d.varint()?;
    let deadline = get_opt_varint(d, "Envelope::deadline")?;
    let idempotency = get_opt_varint(d, "Envelope::idempotency")?.map(IdemKey);
    Ok(Envelope {
        request_id,
        tenant,
        session,
        deadline,
        idempotency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrips() {
        let cases = [
            Envelope {
                request_id: RequestId(0),
                tenant: TenantId(0),
                session: 0,
                deadline: None,
                idempotency: None,
            },
            Envelope {
                request_id: RequestId(u64::MAX),
                tenant: TenantId(u32::MAX),
                session: 981,
                deadline: Some(1 << 40),
                idempotency: Some(IdemKey(7)),
            },
        ];
        for env in &cases {
            let mut e = Enc::new();
            encode_envelope(&mut e, env);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(&decode_envelope(&mut d).unwrap(), env);
            d.finish().unwrap();
        }
    }

    #[test]
    fn envelope_truncation_is_typed() {
        let env = Envelope {
            request_id: RequestId(300),
            tenant: TenantId(2),
            session: 5,
            deadline: Some(129),
            idempotency: Some(IdemKey(1 << 50)),
        };
        let mut e = Enc::new();
        encode_envelope(&mut e, &env);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(
                matches!(decode_envelope(&mut d), Err(CodecError::Truncated { .. })),
                "cut at {cut} must be a typed truncation"
            );
        }
    }

    #[test]
    fn bad_option_tag_is_typed() {
        let mut e = Enc::new();
        e.put_varint(1); // request id
        e.put_varint(1); // tenant
        e.put_varint(1); // session
        e.put_u8(7); // bogus option tag
        let bytes = e.into_bytes();
        assert!(matches!(
            decode_envelope(&mut Dec::new(&bytes)),
            Err(CodecError::BadTag {
                what: "Envelope::deadline",
                ..
            })
        ));
    }
}
